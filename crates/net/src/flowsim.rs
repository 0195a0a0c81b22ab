//! Fluid-flow simulator over the max-min fair model.
//!
//! Flows between the same `(src, dst)` pair always share one max-min rate,
//! so the simulator keeps them in per-pair *groups*. Each group carries a
//! virtual drain clock (`drained`: bytes sent per member flow since the
//! group was created); a flow joining at drain level `d` with `size` bytes
//! completes when the clock reaches `d + size`.
//!
//! The per-event costs are incremental: rate recomputation reuses a
//! persistent [`Waterfiller`], told of every group count change and
//! capacity change, which resumes its last fill at the first saturation
//! those mutations can change and reports only the groups it re-froze; each
//! group caches its earliest member, updated only when its membership
//! changes; and time advancement walks a live-group list, so `(src, dst)`
//! pairs that once carried a flow but drained long ago cost nothing. A
//! clock move is one pass over the live groups, which drains each and
//! recomputes its due/tie bit flag; a query that needs rates is one refill
//! and one scan of the live groups for the minimum `(eta, group)`. Refills
//! are deferred to the query that needs rates: when a flow has already
//! drained at the current instant (a reduce stage's equal-size fetches
//! finish together), the next completion is answered without one, so a
//! burst of same-instant completions costs one refill, not one each. Which
//! group holds such a flow is read from the due/tie flags, kept fresh for
//! one group per flow mutation and for all live groups per clock move or
//! capacity change, so a query costs a scan of bitset words, not of groups.
//! The next-completion answer is memoized until the flow set or a capacity
//! changes, and the memo survives [`FlowSim::advance_to`]: a query after a
//! clock move returns the absolute time derived at the last mutation, not
//! one re-derived from the moved clock. All of it is exact against a
//! from-scratch model that memoizes the same way (the `Modeled` twin in the
//! unit tests): per-pair drains at rates recomputed at every step, and the
//! answer re-derived only when the memo is cleared. Every simulated
//! timestamp and byte count is bit-identical to that model's.

// L4 (DESIGN.md §10.1): a lossy `as` cast goes through a named helper
// under `#[expect]`; an inline one in this file fails clippy.
#![warn(clippy::cast_possible_truncation)]

use crate::maxmin::Waterfiller;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BinaryHeap};
use tetrium_cluster::SiteId;
use tetrium_obs::Obs;

/// Handle to a flow inside a [`FlowSim`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct FlowKey(usize);

impl FlowKey {
    /// The slab index behind the handle. Keys are reused after removal, so
    /// indices are dense: callers can keep per-flow state in a plain vector
    /// instead of a hash map.
    pub fn index(&self) -> usize {
        self.0
    }
}

#[derive(Debug, Clone)]
struct FlowRec {
    size_gb: f64,
    /// Group the flow belongs to (`None` for local flows).
    group: Option<usize>,
    /// Group drain level when the flow joined.
    join_drain: f64,
    /// Position in `locals` (meaningful only for alive local flows).
    local_pos: usize,
    alive: bool,
}

#[derive(Debug)]
struct Group {
    src: usize,
    dst: usize,
    count: usize,
    /// Current per-flow rate in GB/s.
    rate: f64,
    /// Bytes drained per member flow since group creation.
    drained: f64,
    /// Completion thresholds `(join_drain + size, flow index)`, min-first;
    /// entries for removed flows are discarded lazily.
    heap: BinaryHeap<Reverse<(u64, usize)>>,
    /// The minimum valid heap entry (`None` when the group is empty), which
    /// is also the heap's top: `add_flow` lowers it, and `remove_flow` of
    /// the top flow pops the heap down to the next valid entry.
    top: Option<(u64, usize)>,
}

/// Orders non-negative f64 thresholds as u64 keys.
fn key(v: f64) -> u64 {
    v.max(0.0).to_bits()
}

/// Maps any non-NaN f64 to a u64 that orders like the float (negative
/// values included, `-0.0` below `0.0`), for use as an ordering key.
fn ord_key(v: f64) -> u64 {
    let b = v.to_bits();
    if b >> 63 == 1 {
        !b
    } else {
        b | (1 << 63)
    }
}

/// A group's due-now flag, from its earliest flow's remaining GB and the
/// bound `cap = min(up[src], down[dst])` on its max-min rate: `Some(true)`
/// when the flow is due at `now`, `Some(false)` when it is not but could
/// tie at `now` (`now + rem / cap <= now`), `None` when neither.
fn due_flag(now: f64, rem: f64, cap: f64) -> Option<bool> {
    if rem <= 1e-12 {
        Some(true)
    } else if cap > 0.0 && now + rem / cap <= now {
        Some(false)
    } else {
        None
    }
}

/// Per-group [`due_flag`]s as two bitsets over group ids: `any` marks the
/// live groups that are due or could tie at `now`, `due` the due subset.
#[derive(Debug, Default)]
struct DueFlags {
    any: Vec<u64>,
    due: Vec<u64>,
}

impl DueFlags {
    fn set(&mut self, g: usize, flag: Option<bool>) {
        let (w, bit) = (g / 64, 1u64 << (g % 64));
        if w >= self.any.len() {
            self.any.resize(w + 1, 0);
            self.due.resize(w + 1, 0);
        }
        self.any[w] &= !bit;
        self.due[w] &= !bit;
        if let Some(due) = flag {
            self.any[w] |= bit;
            if due {
                self.due[w] |= bit;
            }
        }
    }

    fn get(&self, g: usize) -> Option<bool> {
        let (w, bit) = (g / 64, 1u64 << (g % 64));
        match self.any.get(w) {
            Some(&a) if a & bit != 0 => Some(self.due[w] & bit != 0),
            _ => None,
        }
    }

    /// The lowest flagged group.
    fn first(&self) -> Option<usize> {
        let w = self.any.iter().position(|&a| a != 0)?;
        Some(w * 64 + self.any[w].trailing_zeros() as usize)
    }
}

/// Fluid simulation of concurrent WAN transfers.
///
/// Time does not advance on its own: the owner (the discrete-event engine)
/// calls [`FlowSim::advance_to`] to move the clock forward — draining bytes
/// at the current max-min rates — and uses [`FlowSim::next_completion`] to
/// schedule its next network event. Rates are recomputed lazily whenever the
/// flow set or link capacities change, and incrementally: the refill resumes
/// at the first saturation the changes since the last refresh can move.
///
/// Local flows (`src == dst`) complete instantly (zero remaining time), as
/// local reads do not cross the WAN in the paper's model.
///
/// # Examples
///
/// ```
/// use tetrium_net::FlowSim;
/// use tetrium_cluster::SiteId;
///
/// let mut sim = FlowSim::new(vec![1.0, 4.0], vec![4.0, 2.0]);
/// let flow = sim.add_flow(SiteId(0), SiteId(1), 10.0);
/// let (done, t) = sim.next_completion().unwrap();
/// assert_eq!(done, flow);
/// assert!((t - 10.0).abs() < 1e-9); // 10 GB over the 1 GB/s uplink.
/// sim.advance_to(t);
/// assert!(sim.remaining_gb(flow) < 1e-9);
/// ```
#[derive(Debug)]
pub struct FlowSim {
    up_gbps: Vec<f64>,
    down_gbps: Vec<f64>,
    flows: Vec<FlowRec>,
    free: Vec<usize>,
    groups: Vec<Group>,
    group_index: BTreeMap<(usize, usize), usize>,
    /// Group ids with `count > 0`, ascending. Groups whose pair drained
    /// empty stay in the table (their drain clock must survive re-use) but
    /// drop off this list, so long-dead pairs cost nothing per event.
    live: Vec<usize>,
    now: f64,
    total_wan_gb: f64,
    active: usize,
    /// Alive local flows (rarely used; the engine short-circuits local
    /// reads before they reach the WAN model). Removal is a swap_remove,
    /// so the order is not insertion order.
    locals: Vec<usize>,
    dirty: bool,
    /// Resumable max-min state: per-link membership, the last fill's
    /// record and the dirty-link set.
    wf: Waterfiller,
    /// Which live groups are due or could tie at `now`, always fresh; see
    /// [`FlowSim::due_now`].
    flags: DueFlags,
    /// Memoized result of [`FlowSim::next_completion`]: completion times are
    /// absolute, so the answer stays valid until the flow set or capacities
    /// change.
    cached_next: Option<Option<(FlowKey, f64)>>,
    /// Observability sink; disabled by default.
    obs: Obs,
    /// A link-utilization sample is owed at the current instant (samples
    /// are deferred to the end of a same-timestamp mutation burst; the sink
    /// coalesces same-instant samples, so one deferred sample equals the
    /// last of the per-mutation ones).
    obs_pending: bool,
    obs_up: Vec<f64>,
    obs_down: Vec<f64>,
}

impl FlowSim {
    /// Creates a simulator over sites with the given link capacities.
    ///
    /// # Panics
    ///
    /// Panics if the vectors differ in length or any capacity is
    /// non-positive.
    pub fn new(up_gbps: Vec<f64>, down_gbps: Vec<f64>) -> Self {
        assert_eq!(up_gbps.len(), down_gbps.len());
        assert!(up_gbps.iter().chain(&down_gbps).all(|&c| c > 0.0));
        let n = up_gbps.len();
        Self {
            up_gbps,
            down_gbps,
            flows: Vec::new(),
            free: Vec::new(),
            groups: Vec::new(),
            group_index: BTreeMap::new(),
            live: Vec::new(),
            now: 0.0,
            total_wan_gb: 0.0,
            active: 0,
            locals: Vec::new(),
            dirty: false,
            wf: Waterfiller::new(n),
            flags: DueFlags::default(),
            cached_next: None,
            obs: Obs::disabled(),
            obs_pending: false,
            obs_up: Vec::new(),
            obs_down: Vec::new(),
        }
    }

    /// Installs an observability sink. The simulator emits per-pair WAN
    /// accounting (including refunds) and a link-utilization sample at
    /// every flow-set or capacity change boundary. Samples are flushed at
    /// the next clock advance, [`FlowSim::link_usage`] call, or
    /// [`FlowSim::next_completion`] query that refills rates (one answered
    /// by a flow already due at the current instant does not); call
    /// [`FlowSim::link_usage`] before reading the sink if the last event
    /// was a mutation.
    pub fn set_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    /// Current simulation time in seconds.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// Cumulative bytes (GB) that crossed the WAN so far — the WAN-usage
    /// metric of §4.3 (local flows do not count).
    pub fn total_wan_gb(&self) -> f64 {
        self.total_wan_gb
    }

    /// Number of in-flight flows.
    pub fn active_flows(&self) -> usize {
        self.active
    }

    fn live_insert(&mut self, g: usize) {
        let pos = self.live.partition_point(|&x| x < g);
        self.live.insert(pos, g);
    }

    fn live_remove(&mut self, g: usize) {
        let pos = self.live.partition_point(|&x| x < g);
        debug_assert_eq!(self.live[pos], g);
        self.live.remove(pos);
    }

    /// Starts a transfer of `gb` from `src` to `dst` and returns its handle.
    ///
    /// WAN usage is accounted at start time (the bytes will cross the WAN
    /// unless the flow is cancelled).
    pub fn add_flow(&mut self, src: SiteId, dst: SiteId, gb: f64) -> FlowKey {
        assert!(gb >= 0.0 && gb.is_finite());
        let local = src == dst;
        if !local {
            self.total_wan_gb += gb;
            self.obs.wan_transfer(src, dst, gb);
        }
        let idx = self.free.pop().unwrap_or_else(|| {
            self.flows.push(FlowRec {
                size_gb: 0.0,
                group: None,
                join_drain: 0.0,
                local_pos: 0,
                alive: false,
            });
            self.flows.len() - 1
        });
        let (group, join_drain, local_pos) = if local {
            let pos = self.locals.len();
            self.locals.push(idx);
            self.cached_next = None;
            (None, 0.0, pos)
        } else {
            let g = *self
                .group_index
                .entry((src.index(), dst.index()))
                .or_insert_with(|| {
                    self.groups.push(Group {
                        src: src.index(),
                        dst: dst.index(),
                        count: 0,
                        rate: 0.0,
                        drained: 0.0,
                        heap: BinaryHeap::new(),
                        top: None,
                    });
                    self.groups.len() - 1
                });
            let grp = &mut self.groups[g];
            grp.count += 1;
            // The old top stays valid (the free list hands out only indices
            // of removed flows), so the new minimum is the lower of the two.
            let entry = (key(grp.drained + gb), idx);
            grp.heap.push(Reverse(entry));
            if grp.top.is_none_or(|top| entry < top) {
                grp.top = Some(entry);
            }
            let (join, count) = (grp.drained, grp.count);
            if count == 1 {
                self.live_insert(g);
            }
            self.update_flag(g);
            self.wf.set_count(g, src.index(), dst.index(), count);
            self.dirty = true;
            self.cached_next = None;
            (Some(g), join, 0)
        };
        self.flows[idx] = FlowRec {
            size_gb: gb,
            group,
            join_drain,
            local_pos,
            alive: true,
        };
        self.active += 1;
        if !local && self.obs.is_enabled() {
            self.obs_pending = true;
        }
        FlowKey(idx)
    }

    /// Removes a completed (or cancelled) flow.
    ///
    /// Returns the bytes that were still unsent (exactly zero for a
    /// completed flow: the group drain clock accumulates `rate * dt`
    /// increments, so a flow removed at its completion time can be left
    /// with a float-drift remainder; refunding that from `total_wan_gb`
    /// would leak bytes out of the conservation ledger, so sub-epsilon
    /// remainders are clamped to zero before the refund).
    pub fn remove_flow(&mut self, fkey: FlowKey) -> f64 {
        let size = self.flows[fkey.0].size_gb;
        let mut remaining = self.remaining_gb(fkey);
        if remaining < 1e-9 * (1.0 + size) {
            remaining = 0.0;
        }
        let rec = &mut self.flows[fkey.0];
        assert!(rec.alive, "flow already removed");
        rec.alive = false;
        self.cached_next = None;
        match rec.group {
            Some(g) => {
                self.groups[g].count -= 1;
                if self.groups[g].top.is_some_and(|(_, i)| i == fkey.0) {
                    self.pop_top(g);
                }
                if self.groups[g].count == 0 {
                    self.live_remove(g);
                }
                self.update_flag(g);
                let (src, dst) = (self.groups[g].src, self.groups[g].dst);
                self.wf.set_count(g, src, dst, self.groups[g].count);
                self.dirty = true;
                // Refund WAN accounting for unsent bytes of a cancelled flow.
                self.total_wan_gb -= remaining;
                if remaining > 0.0 {
                    self.obs.wan_transfer(SiteId(src), SiteId(dst), -remaining);
                }
                if self.obs.is_enabled() {
                    self.obs_pending = true;
                }
            }
            None => {
                let pos = self.flows[fkey.0].local_pos;
                self.locals.swap_remove(pos);
                if pos < self.locals.len() {
                    let moved = self.locals[pos];
                    self.flows[moved].local_pos = pos;
                }
            }
        }
        self.free.push(fkey.0);
        self.active -= 1;
        remaining
    }

    /// Updates a site's link capacities (resource dynamics, §4.2).
    ///
    /// Zero is allowed and models a full link outage: flows bottlenecked on
    /// the zeroed link get rate 0 from the waterfiller and become
    /// *stalled* — they keep their drained progress but are excluded from
    /// [`FlowSim::next_completion`] (no infinite/NaN ETA is ever produced),
    /// so the engine never busy-loops on them. Restoring a positive
    /// capacity later resumes the stalled flows from where they stopped.
    /// Construction ([`FlowSim::new`]) still requires positive capacities:
    /// only mid-run dynamics may zero a link.
    pub fn set_capacity(&mut self, site: SiteId, up_gbps: f64, down_gbps: f64) {
        assert!(up_gbps >= 0.0 && down_gbps >= 0.0 && up_gbps.is_finite() && down_gbps.is_finite());
        self.up_gbps[site.index()] = up_gbps;
        self.down_gbps[site.index()] = down_gbps;
        self.wf.mark_site_dirty(site.index());
        self.dirty = true;
        // The tie test bounds rates by the capacities.
        for i in 0..self.live.len() {
            let g = self.live[i];
            self.update_flag(g);
        }
        self.cached_next = None;
        if self.obs.is_enabled() {
            self.obs_pending = true;
        }
    }

    /// Advances the clock to `t`, draining every flow at its current rate.
    ///
    /// # Panics
    ///
    /// Panics if `t` is earlier than the current time.
    pub fn advance_to(&mut self, t: f64) {
        assert!(t >= self.now - 1e-9, "time must be monotone");
        if t.to_bits() == self.now.to_bits() {
            return;
        }
        // `dt` is 0 for a sub-epsilon step backwards or across the zero
        // signs: nothing drains, but the flags derive from `now`.
        let dt = (t - self.now).max(0.0);
        if dt > 0.0 {
            // The owed sample belongs to the instant the mutations happened
            // at, so flush before moving the clock.
            self.flush_link_sample();
            self.refresh();
        }
        self.now = t;
        for i in 0..self.live.len() {
            let g = self.live[i];
            let grp = &mut self.groups[g];
            if dt > 0.0 && grp.rate > 0.0 {
                grp.drained += grp.rate * dt;
            }
            self.update_flag(g);
        }
    }

    /// Group `g`'s first member to complete, as `(flow index, remaining
    /// GB)`.
    fn group_top(&self, g: usize) -> Option<(usize, f64)> {
        let grp = &self.groups[g];
        let (threshold, idx) = grp.top?;
        Some((idx, (f64::from_bits(threshold) - grp.drained).max(0.0)))
    }

    /// Re-derives group `g`'s cached top once its top flow has left: pops
    /// heap entries of removed flows, and of indices the free list has since
    /// handed to another flow, until a valid one surfaces.
    fn pop_top(&mut self, g: usize) {
        let grp = &mut self.groups[g];
        grp.top = loop {
            let Some(&Reverse((th, idx))) = grp.heap.peek() else {
                break None;
            };
            let f = &self.flows[idx];
            if f.alive && f.group == Some(g) && key(f.join_drain + f.size_gb) == th {
                break Some((th, idx));
            }
            grp.heap.pop();
        };
    }

    /// The earliest `(flow, absolute completion time)` among in-flight flows
    /// at current rates, or `None` when no flows are active.
    ///
    /// Local flows and zero-byte flows complete "now".
    pub fn next_completion(&mut self) -> Option<(FlowKey, f64)> {
        if let Some(cached) = self.cached_next {
            return cached;
        }
        // Local flows (no group) complete immediately.
        if let Some(&i) = self.locals.first() {
            return Some((FlowKey(i), self.now));
        }
        if let Some(due) = self.due_now() {
            #[cfg(feature = "audit")]
            {
                let slow = self.next_by_eta();
                assert!(
                    slow.map(|(k, t)| (k, t.to_bits())) == Some((due.0, due.1.to_bits())),
                    "audit: due-now answer {due:?} != refresh-then-scan answer {slow:?} at t={}",
                    self.now
                );
            }
            self.cached_next = Some(Some(due));
            return Some(due);
        }
        self.flush_link_sample();
        let best = self.next_by_eta();
        self.cached_next = Some(best);
        best
    }

    /// Answers [`FlowSim::next_completion`] without the pending refill when
    /// a flow is already drained at `now`: its ETA is `now` at any rate. The
    /// lowest group that is due or could tie at `now` decides: if it is due,
    /// it wins the `(eta, group)` order, since a group's max-min rate never
    /// exceeds `cap = min(up, down)` and so `now + rem / cap > now` rules a
    /// tie out for every lower group. `None` sends the query to the refill
    /// path.
    fn due_now(&self) -> Option<(FlowKey, f64)> {
        if !self.dirty {
            return None;
        }
        let g = self.flags.first()?;
        if self.flags.get(g) != Some(true) {
            return None;
        }
        let (idx, _) = self.group_top(g)?;
        Some((FlowKey(idx), self.now))
    }

    /// Recomputes group `g`'s due-now flag (an emptied group unflags).
    fn update_flag(&mut self, g: usize) {
        let grp = &self.groups[g];
        let cap = self.up_gbps[grp.src].min(self.down_gbps[grp.dst]);
        let flag = self
            .group_top(g)
            .and_then(|(_, rem)| due_flag(self.now, rem, cap));
        self.flags.set(g, flag);
    }

    /// The refresh-then-scan answer: refills pending rates, then finds the
    /// minimum `(eta, group)` in one ascending scan of the live groups (a
    /// strict `<` keeps the lowest group on ties).
    fn next_by_eta(&mut self) -> Option<(FlowKey, f64)> {
        self.refresh();
        let mut best: Option<(u64, usize, f64)> = None;
        for &g in &self.live {
            let Some((idx, remaining)) = self.group_top(g) else {
                continue;
            };
            let rate = self.groups[g].rate;
            let eta = if remaining <= 1e-12 {
                self.now
            } else if rate <= 0.0 {
                // Stalled: the group sits on a zeroed link (`set_capacity`
                // with 0 during an outage). No finite ETA exists until a
                // capacity change restores its rate.
                continue;
            } else {
                self.now + remaining / rate
            };
            let ord = ord_key(eta);
            if best.is_none_or(|(b, _, _)| ord < b) {
                best = Some((ord, idx, eta));
            }
        }
        best.map(|(_, idx, eta)| (FlowKey(idx), eta))
    }

    /// Remaining volume of a flow in GB (zero for local flows, which never
    /// queue).
    pub fn remaining_gb(&self, fkey: FlowKey) -> f64 {
        let f = &self.flows[fkey.0];
        assert!(f.alive, "flow was removed");
        match f.group {
            None => 0.0,
            Some(g) => (f.join_drain + f.size_gb - self.groups[g].drained).max(0.0),
        }
    }

    /// Current rate of a flow in GB/s (`f64::INFINITY` for local flows).
    pub fn rate_gbps(&mut self, fkey: FlowKey) -> f64 {
        self.refresh();
        let f = &self.flows[fkey.0];
        assert!(f.alive, "flow was removed");
        match f.group {
            None => f64::INFINITY,
            Some(g) => self.groups[g].rate,
        }
    }

    /// Aggregate rate currently allocated on each site's uplink and
    /// downlink, in GB/s — the basis for available-bandwidth estimation
    /// (paper §5). Local flows consume nothing.
    pub fn link_usage(&mut self) -> (Vec<f64>, Vec<f64>) {
        let n = self.up_gbps.len();
        let mut up = Vec::with_capacity(n);
        let mut down = Vec::with_capacity(n);
        self.link_usage_into(&mut up, &mut down);
        (up, down)
    }

    /// Allocation-free variant of [`FlowSim::link_usage`]: clears and fills
    /// the caller's buffers so a hot caller can reuse their capacity.
    pub fn link_usage_into(&mut self, up: &mut Vec<f64>, down: &mut Vec<f64>) {
        self.flush_link_sample();
        self.refresh();
        self.fill_usage(up, down);
    }

    /// Sums live-group rates into the buffers (ascending group order — the
    /// accumulation order is part of the bit-exact contract).
    fn fill_usage(&self, up: &mut Vec<f64>, down: &mut Vec<f64>) {
        let n = self.up_gbps.len();
        up.clear();
        up.resize(n, 0.0);
        down.clear();
        down.resize(n, 0.0);
        for &gi in &self.live {
            let g = &self.groups[gi];
            up[g.src] += g.rate * g.count as f64;
            down[g.dst] += g.rate * g.count as f64;
        }
    }

    /// Emits the owed per-link utilization sample, if any. Deferring to the
    /// end of a same-timestamp mutation burst is invisible in the sink
    /// (same-instant samples coalesce to the last one) and means one rate
    /// refresh per burst instead of one per mutation.
    fn flush_link_sample(&mut self) {
        if !self.obs_pending {
            return;
        }
        self.obs_pending = false;
        self.refresh();
        let mut up = std::mem::take(&mut self.obs_up);
        let mut down = std::mem::take(&mut self.obs_down);
        self.fill_usage(&mut up, &mut down);
        self.obs.link_sample(self.now, &up, &down);
        self.obs_up = up;
        self.obs_down = down;
    }

    /// Brings rates up to date if any mutation happened since the last
    /// refresh: the groups the resumed refill re-froze get their new rates,
    /// every other group keeps its (still exact) one.
    fn refresh(&mut self) {
        if !self.dirty {
            return;
        }
        self.dirty = false;
        self.wf.refill(&self.up_gbps, &self.down_gbps);
        for &(g, r) in self.wf.refilled() {
            self.groups[g].rate = r;
        }
        #[cfg(feature = "audit")]
        self.audit_rates("refresh");
    }
}

#[cfg(feature = "audit")]
impl FlowSim {
    /// Audit-mode invariant check (feature `audit`, DESIGN.md §10): re-checks
    /// the simulator's incremental state against from-scratch oracles and
    /// panics with full context on any violation.
    ///
    /// Invariants:
    /// 1. Every live group's per-flow rate is **bit-exact** equal to a
    ///    from-scratch [`crate::waterfill_groups`] over the same groups and
    ///    capacities (the resumed refill contract).
    /// 2. Per-link conservation: Σ (rate × count) over groups crossing a
    ///    link never exceeds its capacity (tiny relative tolerance for the
    ///    summation order).
    /// 3. Per-flow byte conservation: for every alive WAN flow,
    ///    `sent + remaining == size` with `0 ≤ sent ≤ size` up to float
    ///    drift, where `sent = group.drained − join_drain` (drain clocks are
    ///    monotone, so a violation means bytes were created or destroyed).
    /// 4. Bookkeeping consistency: group member counts match the alive flow
    ///    records, the live list is exactly the non-empty groups in
    ///    ascending order, and `active` counts the alive flows.
    /// 5. Due-now flags: every group's flag equals one recomputed from
    ///    scratch, from its minimum valid threshold found by a heap scan. A
    ///    wrong flag could make `due_now` defer too early, which costs
    ///    refills but no output bits, so the due-now cross-check in
    ///    `next_completion` cannot see it.
    /// 6. Cached tops: every group's cached top equals the minimum valid
    ///    `(threshold, flow)` found by a scan of its heap and the heap's
    ///    top entry (`None` for an empty group, whose heap is empty).
    ///
    /// Checks 1 and 2 run here only when no refill is pending (the audit
    /// must not refresh, or the next query would never see pending
    /// mutations); every refresh runs them on its own result instead.
    pub fn audit(&self, ctx: &str) {
        if !self.dirty {
            self.audit_rates(ctx);
        }

        // 3. Per-flow byte conservation.
        for (i, f) in self.flows.iter().enumerate() {
            if !f.alive {
                continue;
            }
            let Some(g) = f.group else { continue };
            let sent = self.groups[g].drained - f.join_drain;
            let tol = 1e-6 * (1.0 + f.size_gb);
            assert!(
                sent >= -tol,
                "audit[{ctx}]: flow {i} drained backwards (sent {sent}) at t={}",
                self.now
            );
            assert!(
                sent <= f.size_gb + tol,
                "audit[{ctx}]: flow {i} overshot its size: sent {sent} of \
                 {} GB (group {g} drained {}, joined at {}) at t={}",
                f.size_gb,
                self.groups[g].drained,
                f.join_drain,
                self.now
            );
        }

        // 4. Bookkeeping consistency.
        let mut member_counts = vec![0usize; self.groups.len()];
        let mut alive = 0usize;
        for f in &self.flows {
            if f.alive {
                alive += 1;
                if let Some(g) = f.group {
                    member_counts[g] += 1;
                }
            }
        }
        assert!(
            alive == self.active,
            "audit[{ctx}]: active counter {} != alive flow records {alive}",
            self.active
        );
        for (g, gr) in self.groups.iter().enumerate() {
            assert!(
                gr.count == member_counts[g],
                "audit[{ctx}]: group {g} count {} != alive members {}",
                gr.count,
                member_counts[g]
            );
        }
        let expect_live: Vec<usize> = (0..self.groups.len())
            .filter(|&g| self.groups[g].count > 0)
            .collect();
        assert!(
            self.live == expect_live,
            "audit[{ctx}]: live list {:?} != non-empty groups {:?}",
            self.live,
            expect_live
        );

        for (g, gr) in self.groups.iter().enumerate() {
            let scanned = gr
                .heap
                .iter()
                .map(|&Reverse(entry)| entry)
                .filter(|&(th, idx)| {
                    let f = &self.flows[idx];
                    f.alive && f.group == Some(g) && key(f.join_drain + f.size_gb) == th
                })
                .min();

            // 5. Due-now flags.
            let cap = self.up_gbps[gr.src].min(self.down_gbps[gr.dst]);
            let want = scanned.and_then(|(th, _)| {
                due_flag(self.now, (f64::from_bits(th) - gr.drained).max(0.0), cap)
            });
            let got = self.flags.get(g);
            assert!(
                got == want,
                "audit[{ctx}]: group {g} ({}->{}, count {}) due-now flag \
                 {got:?} != from-scratch {want:?} at t={}",
                gr.src,
                gr.dst,
                gr.count,
                self.now
            );

            // 6. Cached tops.
            let peek = gr.heap.peek().map(|&Reverse(entry)| entry);
            assert!(
                gr.top == scanned && peek == scanned,
                "audit[{ctx}]: group {g} ({}->{}, count {}) cached top {:?} != \
                 scanned minimum {scanned:?} (heap top {peek:?}) at t={}",
                gr.src,
                gr.dst,
                gr.count,
                gr.top,
                self.now
            );
        }
    }

    /// Checks 1 and 2 of [`FlowSim::audit`]: the current rates against the
    /// from-scratch waterfill, bit for bit, and per-link conservation.
    fn audit_rates(&self, ctx: &str) {
        // 1. Rates vs the stateless oracle, bit for bit.
        let specs: Vec<crate::GroupSpec> = self
            .groups
            .iter()
            .map(|g| crate::GroupSpec {
                src: g.src,
                dst: g.dst,
                count: g.count,
            })
            .collect();
        let oracle = crate::waterfill_groups(&specs, &self.up_gbps, &self.down_gbps);
        for &g in &self.live {
            let gr = &self.groups[g];
            assert!(
                gr.rate.to_bits() == oracle[g].to_bits(),
                "audit[{ctx}]: group {g} ({}->{}, count {}) incremental rate \
                 {:?} != from-scratch waterfill {:?} at t={}",
                gr.src,
                gr.dst,
                gr.count,
                gr.rate,
                oracle[g],
                self.now
            );
        }

        // 2. Per-link conservation.
        let n = self.up_gbps.len();
        let mut up_used = vec![0.0f64; n];
        let mut down_used = vec![0.0f64; n];
        for &g in &self.live {
            let gr = &self.groups[g];
            let total = gr.rate * gr.count as f64;
            up_used[gr.src] += total;
            down_used[gr.dst] += total;
        }
        for s in 0..n {
            assert!(
                up_used[s] <= self.up_gbps[s] * (1.0 + 1e-9) + 1e-12,
                "audit[{ctx}]: uplink {s} oversubscribed: {} > cap {} at t={}",
                up_used[s],
                self.up_gbps[s],
                self.now
            );
            assert!(
                down_used[s] <= self.down_gbps[s] * (1.0 + 1e-9) + 1e-12,
                "audit[{ctx}]: downlink {s} oversubscribed: {} > cap {} at t={}",
                down_used[s],
                self.down_gbps[s],
                self.now
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exercises the audit oracle across the simulator's full lifecycle —
    /// adds, drains, removals, capacity changes including a zero-capacity
    /// outage — proving the incremental state matches the from-scratch
    /// waterfill at every step (and that the oracle tolerates zeroed links).
    #[cfg(feature = "audit")]
    #[test]
    fn audit_passes_through_churn_and_outage() {
        let mut sim = FlowSim::new(vec![2.0, 9.0, 3.0], vec![9.0, 4.0, 9.0]);
        sim.audit("empty");
        let a = sim.add_flow(SiteId(0), SiteId(1), 4.0);
        let b = sim.add_flow(SiteId(0), SiteId(2), 8.0);
        let c = sim.add_flow(SiteId(2), SiteId(1), 6.0);
        sim.audit("after adds");
        let (_, t) = sim.next_completion().unwrap();
        sim.advance_to(t * 0.5);
        sim.audit("mid drain");
        sim.set_capacity(SiteId(0), 0.0, 0.0); // outage
        sim.audit("outage");
        sim.advance_to(t * 0.75);
        sim.remove_flow(c);
        sim.audit("removal during outage");
        sim.set_capacity(SiteId(0), 5.0, 5.0); // recovery
        sim.audit("recovery");
        while let Some((k, t)) = sim.next_completion() {
            sim.advance_to(t);
            sim.remove_flow(k);
            sim.audit("drain to empty");
        }
        assert!(sim.active_flows() == 0);
        let _ = (a, b);
    }

    #[test]
    fn single_transfer_finishes_at_bottleneck_time() {
        let mut sim = FlowSim::new(vec![1.0, 4.0], vec![4.0, 2.0]);
        let k = sim.add_flow(SiteId(0), SiteId(1), 10.0);
        let (kk, t) = sim.next_completion().unwrap();
        assert_eq!(kk, k);
        assert!((t - 10.0).abs() < 1e-9); // Uplink 1 GB/s is the bottleneck.
        sim.advance_to(t);
        assert!(sim.remaining_gb(k) < 1e-9);
        assert!((sim.total_wan_gb() - 10.0).abs() < 1e-9);
    }

    #[test]
    fn competing_flows_slow_each_other_then_speed_up() {
        let mut sim = FlowSim::new(vec![2.0, 9.0, 9.0], vec![9.0; 3]);
        let a = sim.add_flow(SiteId(0), SiteId(1), 4.0);
        let b = sim.add_flow(SiteId(0), SiteId(2), 8.0);
        // Shared uplink 2 GB/s -> 1 GB/s each; flow a completes at t=4.
        let (first, t1) = sim.next_completion().unwrap();
        assert_eq!(first, a);
        assert!((t1 - 4.0).abs() < 1e-9);
        sim.advance_to(t1);
        sim.remove_flow(a);
        // Flow b has 4 GB left and now gets the full 2 GB/s: +2 s.
        let (second, t2) = sim.next_completion().unwrap();
        assert_eq!(second, b);
        assert!((t2 - 6.0).abs() < 1e-9);
    }

    #[test]
    fn same_pair_flows_share_and_complete_in_size_order() {
        let mut sim = FlowSim::new(vec![2.0, 2.0], vec![2.0, 2.0]);
        let small = sim.add_flow(SiteId(0), SiteId(1), 1.0);
        let big = sim.add_flow(SiteId(0), SiteId(1), 3.0);
        // Each gets 1 GB/s; small finishes at t=1.
        let (first, t1) = sim.next_completion().unwrap();
        assert_eq!(first, small);
        assert!((t1 - 1.0).abs() < 1e-9);
        sim.advance_to(t1);
        sim.remove_flow(small);
        // Big has 2 GB left at the full 2 GB/s.
        let (second, t2) = sim.next_completion().unwrap();
        assert_eq!(second, big);
        assert!((t2 - 2.0).abs() < 1e-9);
    }

    #[test]
    fn local_flow_completes_immediately_and_costs_no_wan() {
        let mut sim = FlowSim::new(vec![1.0], vec![1.0]);
        let k = sim.add_flow(SiteId(0), SiteId(0), 100.0);
        let (kk, t) = sim.next_completion().unwrap();
        assert_eq!(kk, k);
        assert_eq!(t, 0.0);
        assert_eq!(sim.total_wan_gb(), 0.0);
    }

    #[test]
    fn local_flow_removal_is_positional() {
        // Three local flows; removing the first must keep the other two
        // alive and resolvable (swap_remove repositions the moved entry).
        let mut sim = FlowSim::new(vec![1.0], vec![1.0]);
        let a = sim.add_flow(SiteId(0), SiteId(0), 1.0);
        let b = sim.add_flow(SiteId(0), SiteId(0), 1.0);
        let c = sim.add_flow(SiteId(0), SiteId(0), 1.0);
        sim.remove_flow(a);
        assert_eq!(sim.active_flows(), 2);
        let (k1, _) = sim.next_completion().unwrap();
        sim.remove_flow(k1);
        let (k2, _) = sim.next_completion().unwrap();
        sim.remove_flow(k2);
        assert!(sim.next_completion().is_none());
        assert!([b, c].contains(&k1) && [b, c].contains(&k2) && k1 != k2);
    }

    #[test]
    fn cancelling_a_flow_refunds_wan_accounting() {
        let mut sim = FlowSim::new(vec![1.0, 1.0], vec![1.0, 1.0]);
        let k = sim.add_flow(SiteId(0), SiteId(1), 10.0);
        sim.advance_to(2.0);
        let unsent = sim.remove_flow(k);
        assert!((unsent - 8.0).abs() < 1e-9);
        assert!((sim.total_wan_gb() - 2.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_drop_slows_flows() {
        let mut sim = FlowSim::new(vec![4.0, 9.0], vec![9.0, 9.0]);
        let k = sim.add_flow(SiteId(0), SiteId(1), 8.0);
        sim.advance_to(1.0); // 4 GB sent, 4 left.
        sim.set_capacity(SiteId(0), 1.0, 9.0);
        let (_, t) = sim.next_completion().unwrap();
        assert!((t - 5.0).abs() < 1e-9); // 4 GB at 1 GB/s from t=1.
        assert!((sim.rate_gbps(k) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn key_reuse_is_safe() {
        let mut sim = FlowSim::new(vec![1.0, 1.0], vec![1.0, 1.0]);
        let a = sim.add_flow(SiteId(0), SiteId(1), 1.0);
        sim.advance_to(1.0);
        sim.remove_flow(a);
        let b = sim.add_flow(SiteId(1), SiteId(0), 2.0);
        assert_eq!(sim.active_flows(), 1);
        assert!((sim.remaining_gb(b) - 2.0).abs() < 1e-9);
    }

    /// Once a pair's group drains empty it leaves the live list; re-adding
    /// flows on the pair (and on others) must still produce completions in
    /// exact ETA order, and the long-dead pair must not resurface.
    #[test]
    fn completion_order_is_unchanged_after_group_pruning() {
        let mut sim = FlowSim::new(vec![2.0; 3], vec![2.0; 3]);
        // Round 1: drain pair (0,1) to empty so its group goes dormant.
        let a = sim.add_flow(SiteId(0), SiteId(1), 2.0);
        let (ka, ta) = sim.next_completion().unwrap();
        assert_eq!(ka, a);
        sim.advance_to(ta);
        sim.remove_flow(a);
        assert!(sim.next_completion().is_none());
        // Round 2: flows on (1,2) and the revived (0,1); sizes chosen so
        // the revived pair finishes second. The (0,1) drain clock kept its
        // round-1 value, so remaining bytes must still resolve exactly.
        let b = sim.add_flow(SiteId(1), SiteId(2), 2.0);
        let c = sim.add_flow(SiteId(0), SiteId(1), 4.0);
        let (kb, tb) = sim.next_completion().unwrap();
        assert_eq!(kb, b);
        assert!((tb - 2.0).abs() < 1e-9); // 2 GB at 2 GB/s from t=1.
        sim.advance_to(tb);
        sim.remove_flow(b);
        let (kc, tc) = sim.next_completion().unwrap();
        assert_eq!(kc, c);
        assert!((tc - 3.0).abs() < 1e-9);
        sim.advance_to(tc);
        assert_eq!(sim.remove_flow(c), 0.0);
    }

    /// Drains `n` flows over `sites` sites to completion, asserting exact
    /// byte conservation: every completed flow must be removed with exactly
    /// zero remaining (the drift clamp in `remove_flow`), and the ledger
    /// must come back to the sum of sizes within 1e-9.
    fn drain_and_conserve(n: usize, sites: usize) {
        let mut sim = FlowSim::new(vec![1.0; sites], vec![1.0; sites]);
        let mut expected = 0.0;
        for i in 0..n {
            let src = i % sites;
            let dst = (i + 1 + i / sites) % sites;
            let gb = 0.1 + (i % 7) as f64 * 0.05;
            if src != dst {
                expected += gb;
            }
            sim.add_flow(SiteId(src), SiteId(dst), gb);
        }
        let mut done = 0;
        while let Some((k, t)) = sim.next_completion() {
            sim.advance_to(t);
            let rem = sim.remove_flow(k);
            assert_eq!(rem, 0.0, "completed flow removed with {rem} GB left");
            done += 1;
        }
        assert_eq!(done, n);
        assert!(
            (sim.total_wan_gb() - expected).abs() < 1e-9,
            "ledger {} vs expected {expected}",
            sim.total_wan_gb()
        );
    }

    #[test]
    fn many_flows_scale_and_conserve_bytes() {
        // A stress shape: 200 flows across 4 sites; drain to completion and
        // verify every flow finishes with total WAN equal to the bytes sent.
        drain_and_conserve(200, 4);
    }

    #[test]
    fn ten_thousand_flows_conserve_bytes_exactly() {
        // Drift accumulates with the number of rate recomputations, so the
        // 200-flow shape alone would not catch a leaky remainder refund.
        drain_and_conserve(10_000, 8);
    }

    /// Near t = 1e7 s one ulp of `now` is ~2e-9 s, so a flow 1e-11 GB from
    /// done has ETA `now` at any rate and ties with a due flow; the tie
    /// goes to the lower group. The due-now answer must defer to the
    /// refill path instead of returning the higher group's due flow.
    #[test]
    fn due_now_defers_when_a_lower_group_ties_at_now() {
        let build = || {
            let mut sim = FlowSim::new(vec![1.0; 4], vec![1.0; 4]);
            sim.advance_to(1e7);
            let tying = sim.add_flow(SiteId(0), SiteId(1), 1e-11);
            sim.add_flow(SiteId(2), SiteId(3), 0.0);
            (sim, tying)
        };
        let (mut sim, tying) = build();
        let (mut twin, _) = build();
        let got = sim.next_completion().map(|(k, t)| (k, t.to_bits()));
        twin.link_usage(); // Refills first: the refresh-then-scan answer.
        assert_eq!(got, twin.next_completion().map(|(k, t)| (k, t.to_bits())));
        assert_eq!(got, Some((tying, 1e7f64.to_bits())));
    }

    /// The due/tie flags span bitset words: with 64 groups on the first
    /// pairs of 9 sites, the due group (id 64) sits in word 1. A tying
    /// group in word 0 must make the due-now answer defer; with nothing
    /// flagged in word 0, the word-1 due flow must be answered, matching a
    /// refill-first twin bit for bit.
    #[test]
    fn due_now_reads_flags_across_bitset_words() {
        let pairs: Vec<(usize, usize)> = (0..9)
            .flat_map(|s| (0..9).filter(move |&d| d != s).map(move |d| (s, d)))
            .collect();
        let run = |tie: bool, refill_first: bool| {
            let mut sim = FlowSim::new(vec![1.0; 9], vec![1.0; 9]);
            sim.advance_to(1e7);
            for &(s, d) in &pairs[..64] {
                sim.add_flow(SiteId(s), SiteId(d), 1.0);
            }
            // Nothing is due yet; the adds below update the flags one group
            // at a time.
            assert!(sim.next_completion().unwrap().1 > 1e7);
            let tying = tie.then(|| sim.add_flow(SiteId(pairs[3].0), SiteId(pairs[3].1), 1e-11));
            let (s, d) = pairs[64];
            let due = sim.add_flow(SiteId(s), SiteId(d), 0.0);
            if refill_first {
                sim.link_usage();
            } else {
                let want = if tie { None } else { Some((due, 1e7)) };
                assert_eq!(sim.due_now(), want);
            }
            let got = sim.next_completion().map(|(k, t)| (k, t.to_bits()));
            assert_eq!(got, Some((tying.unwrap_or(due), 1e7f64.to_bits())));
            got
        };
        for tie in [true, false] {
            assert_eq!(run(tie, false), run(tie, true));
        }
    }

    /// Near t = 1e7 a flow 1e-9 GB from done cannot tie at `now` over a
    /// 1 GB/s cap (1e-9 s exceeds half an ulp of `now`), so the higher
    /// group's due flow is answered; raising the cap to 10 GB/s makes it
    /// tie, and the due-now answer must then defer to the refill path.
    #[test]
    fn due_now_defers_once_a_capacity_raise_makes_a_lower_group_tie() {
        let run = |refill_first: bool| {
            let mut sim = FlowSim::new(vec![1.0; 4], vec![1.0; 4]);
            sim.advance_to(1e7);
            let lower = sim.add_flow(SiteId(0), SiteId(1), 1e-9);
            let due = sim.add_flow(SiteId(2), SiteId(3), 0.0);
            let mut answers = Vec::new();
            for raise in [false, true] {
                if raise {
                    sim.set_capacity(SiteId(0), 10.0, 10.0);
                    sim.set_capacity(SiteId(1), 10.0, 10.0);
                }
                if refill_first {
                    sim.link_usage();
                } else {
                    let want = if raise { None } else { Some((due, 1e7)) };
                    assert_eq!(sim.due_now(), want);
                }
                answers.push(sim.next_completion().map(|(k, t)| (k, t.to_bits())));
            }
            let at_now = 1e7f64.to_bits();
            assert_eq!(answers, [Some((due, at_now)), Some((lower, at_now))]);
            answers
        };
        assert_eq!(run(false), run(true));
    }

    /// A from-scratch model of a [`FlowSim`] driven alongside it: per-pair
    /// drain clocks advanced at [`crate::waterfill_groups`] rates recomputed
    /// at every step, and each completion query answered by a scan over
    /// every in-flight flow in `(eta, group, threshold, index)` order and
    /// memoized until the flow set changes, as [`FlowSim::next_completion`]
    /// documents.
    struct Modeled {
        sim: FlowSim,
        up: Vec<f64>,
        down: Vec<f64>,
        now: f64,
        /// `(src, dst, drained)` per pair, in first-use order: the
        /// simulator's group ids.
        pairs: Vec<(usize, usize, f64)>,
        /// `(key, pair, join drain, size)` per in-flight flow.
        flows: Vec<(FlowKey, usize, f64, f64)>,
        memo: Option<Option<(FlowKey, u64)>>,
    }

    impl Modeled {
        fn new(up: &[f64], down: &[f64]) -> Self {
            Self {
                sim: FlowSim::new(up.to_vec(), down.to_vec()),
                up: up.to_vec(),
                down: down.to_vec(),
                now: 0.0,
                pairs: Vec::new(),
                flows: Vec::new(),
                memo: None,
            }
        }

        fn rates(&self) -> Vec<f64> {
            let specs: Vec<crate::GroupSpec> = (0..self.pairs.len())
                .map(|p| crate::GroupSpec {
                    src: self.pairs[p].0,
                    dst: self.pairs[p].1,
                    count: self.flows.iter().filter(|f| f.1 == p).count(),
                })
                .collect();
            crate::waterfill_groups(&specs, &self.up, &self.down)
        }

        fn add(&mut self, src: usize, dst: usize, gb: f64) -> FlowKey {
            let k = self.sim.add_flow(SiteId(src), SiteId(dst), gb);
            let pos = self
                .pairs
                .iter()
                .position(|&(s, d, _)| (s, d) == (src, dst));
            let p = pos.unwrap_or_else(|| {
                self.pairs.push((src, dst, 0.0));
                self.pairs.len() - 1
            });
            self.flows.push((k, p, self.pairs[p].2, gb));
            self.memo = None;
            self.check();
            k
        }

        fn remove(&mut self, k: FlowKey) {
            self.sim.remove_flow(k);
            self.flows.retain(|f| f.0 != k);
            self.memo = None;
            self.check();
        }

        fn advance_to(&mut self, t: f64) {
            self.sim.advance_to(t);
            let dt = (t - self.now).max(0.0);
            if dt > 0.0 {
                for (p, r) in self.rates().into_iter().enumerate() {
                    if r > 0.0 {
                        self.pairs[p].2 += r * dt;
                    }
                }
            }
            self.now = t;
            self.check();
        }

        fn remaining(&self, f: &(FlowKey, usize, f64, f64)) -> f64 {
            (f.2 + f.3 - self.pairs[f.1].2).max(0.0)
        }

        /// The next completion, with its time's bits.
        fn next(&mut self) -> Option<(FlowKey, u64)> {
            let rates = self.rates();
            let scan = self
                .flows
                .iter()
                .filter_map(|f| {
                    let rem = self.remaining(f);
                    let eta = if rem <= 1e-12 {
                        self.now
                    } else if rates[f.1] <= 0.0 {
                        return None;
                    } else {
                        self.now + rem / rates[f.1]
                    };
                    let order = (ord_key(eta), f.1, key(f.2 + f.3), f.0.index());
                    Some((order, (f.0, eta.to_bits())))
                })
                .min_by_key(|&(order, _)| order)
                .map(|(_, answer)| answer);
            let want = *self.memo.get_or_insert(scan);
            let got = self.sim.next_completion().map(|(k, t)| (k, t.to_bits()));
            assert_eq!(got, want, "next completion at t={}", self.now);
            got
        }

        /// Compares every in-flight flow's remaining bytes, bit for bit.
        fn check(&self) {
            #[cfg(feature = "audit")]
            self.sim.audit("modeled");
            assert_eq!(self.sim.now().to_bits(), self.now.to_bits());
            for f in &self.flows {
                let (got, want) = (self.sim.remaining_gb(f.0), self.remaining(f));
                assert_eq!(got.to_bits(), want.to_bits(), "{:?}: {got} vs {want}", f.0);
            }
        }

        /// Runs to empty, retiring each completion at its time.
        fn drain(&mut self) {
            while let Some((k, t)) = self.next() {
                self.advance_to(f64::from_bits(t));
                self.remove(k);
            }
            assert_eq!(self.sim.active_flows(), 0);
        }
    }

    /// The free list hands a removed flow's index to a flow on another
    /// group, at the removal's instant and after a clock move. The index's
    /// old heap entry stays behind in its first group, below a later
    /// member's, and must be skipped when that group's top leaves.
    #[test]
    fn reused_flow_indices_match_the_model() {
        let mut m = Modeled::new(&[2.0, 3.0, 5.0], &[4.0, 2.0, 3.0]);
        let a = m.add(0, 1, 1.0);
        let a2 = m.add(0, 1, 5.0);
        m.add(0, 1, 8.0);
        m.add(1, 2, 3.0);
        let c = m.add(2, 0, 2.0);
        m.next();
        // Same instant: a2's index goes to a flow on pair (1, 2) with a2's
        // threshold (both drain clocks are still 0), so only the group
        // check tells a2's entry in pair (0, 1) apart from a valid one.
        m.remove(a2);
        assert_eq!(m.add(1, 2, 5.0), a2);
        let (_, t) = m.next().unwrap();
        m.advance_to(f64::from_bits(t) * 0.5);
        m.next();
        // After a clock move: c's index goes to a new pair (0, 2).
        m.remove(c);
        m.advance_to(m.now * 1.5);
        assert_eq!(m.add(0, 2, 1.5), c);
        m.next();
        // Pair (0, 1) loses its top; a2's stale entry (threshold 5) sits
        // between it and the 8 GB member.
        m.remove(a);
        m.next();
        m.drain();
    }

    /// `advance_to(now − 5e-10)` changes the clock's bits but drains
    /// nothing. At `now = 2^23` half an ulp is 9.3e-10 s, so a flow 5e-10 GB
    /// from done over a 1 GB/s cap ties at `now`; just below `2^23` half an
    /// ulp is 4.7e-10 s and it no longer does. The step back must re-flag
    /// it, so the due flows of a higher group are answered without a
    /// refill and retired at the new instant in the model's order.
    #[test]
    fn sub_epsilon_step_back_matches_the_model() {
        let mut m = Modeled::new(&[1.0; 4], &[1.0; 4]);
        m.advance_to(8_388_608.0);
        m.add(0, 1, 5e-10);
        let due: Vec<FlowKey> = (0..3).map(|_| m.add(2, 3, 0.0)).collect();
        assert_eq!(m.sim.due_now(), None);
        m.advance_to(m.now - 5e-10);
        assert_eq!(m.sim.due_now(), Some((due[0], m.now)));
        for &k in &due {
            assert_eq!(m.next(), Some((k, m.now.to_bits())));
            m.remove(k);
        }
        m.drain();
    }

    /// Sixteen equal fetches on one pair drain at one instant: retiring all
    /// of them costs one working refill (when the pair empties), not one
    /// per completion. (Audit builds cross-check every due-now answer with
    /// a refill, so the count holds only without the feature.)
    #[cfg(not(feature = "audit"))]
    #[test]
    fn same_instant_completions_share_one_refill() {
        let mut sim = FlowSim::new(vec![8.0; 2], vec![8.0; 2]);
        let keys: Vec<FlowKey> = (0..16)
            .map(|_| sim.add_flow(SiteId(0), SiteId(1), 3.0))
            .collect();
        let (_, t) = sim.next_completion().unwrap();
        assert_eq!(t, 6.0); // 0.5 GB/s each on the shared 8 GB/s uplink.
        sim.advance_to(t);
        let before = sim.wf.refills();
        let mut done = Vec::new();
        while let Some((k, tk)) = sim.next_completion() {
            assert_eq!(tk, t);
            assert_eq!(sim.remove_flow(k), 0.0);
            done.push(k);
        }
        assert_eq!(sim.wf.refills() - before, 1);
        done.sort_by_key(FlowKey::index);
        assert_eq!(done, keys);
    }

    #[test]
    fn obs_records_wan_pairs_and_link_samples() {
        let obs = Obs::recording(vec![1, 1]);
        let mut sim = FlowSim::new(vec![1.0, 1.0], vec![1.0, 1.0]);
        sim.set_obs(obs.clone());
        let k = sim.add_flow(SiteId(0), SiteId(1), 10.0);
        sim.advance_to(2.0);
        sim.remove_flow(k); // Cancelled: 8 GB refunded.
        sim.next_completion(); // Flush the sample owed for the removal.
        let r = obs.finish().unwrap();
        assert!((r.wan_pair(SiteId(0), SiteId(1)) - 2.0).abs() < 1e-9);
        assert!((r.total_wan_gb() - sim.total_wan_gb()).abs() < 1e-12);
        // One sample at add (t=0), one at remove (t=2).
        assert_eq!(r.link_timeline.len(), 2);
        assert!((r.link_timeline[0].up[0] - 1.0).abs() < 1e-12);
        assert_eq!(r.link_timeline[1].up[0], 0.0);
    }
}
