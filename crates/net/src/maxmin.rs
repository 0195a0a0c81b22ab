//! Max-min fair rate allocation by progressive filling.
//!
//! [`max_min_rates`] and [`waterfill_groups`] fill from scratch. The flow
//! simulator holds a [`Waterfiller`] instead: it keeps per-link membership
//! and a record of its last fill (saturation order, freeze steps, per-link
//! updates), and each refill resumes at the first saturation the mutations
//! since the last one can change, re-freezing only the groups from there
//! on. The result is the from-scratch fill's rates bit for bit; the tests
//! check it against a naive reference fill.

// L4 (DESIGN.md §10.1): a lossy `as` cast goes through a named helper
// under `#[expect]`; an inline one in this file fails clippy.
#![warn(clippy::cast_possible_truncation)]

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use tetrium_cluster::SiteId;

/// A wide-area flow between two sites.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowSpec {
    /// Sending site (constrains the uplink).
    pub src: SiteId,
    /// Receiving site (constrains the downlink).
    pub dst: SiteId,
}

impl FlowSpec {
    /// Whether the flow stays within one site and therefore uses no WAN
    /// capacity.
    pub fn is_local(&self) -> bool {
        self.src == self.dst
    }
}

/// Computes the max-min fair rate (GB/s) of each flow by progressive filling.
///
/// All flows start at rate zero and grow at the same pace; when a link
/// (site uplink or downlink) saturates, every flow crossing it is frozen at
/// the current level, and the remaining flows keep growing. The result is
/// the unique max-min fair allocation: no link is over capacity and every
/// flow is bottlenecked at some saturated link.
///
/// Local flows (`src == dst`) cross no WAN link and are reported as
/// `f64::INFINITY`; the caller decides how to treat intra-site copies
/// (the engine completes them immediately, as reading local data does not
/// use the WAN in the paper's model).
///
/// # Panics
///
/// Panics if a site index is out of range of the capacity vectors or a
/// capacity is non-positive.
pub fn max_min_rates(flows: &[FlowSpec], up_gbps: &[f64], down_gbps: &[f64]) -> Vec<f64> {
    assert!(up_gbps.iter().all(|&c| c > 0.0));
    assert!(down_gbps.iter().all(|&c| c > 0.0));
    let n_sites = up_gbps.len();
    assert_eq!(down_gbps.len(), n_sites);

    // Flows with the same (src, dst) receive identical max-min rates, so
    // the filling runs over *groups*; with `n` sites there are at most `n^2`
    // groups regardless of flow count.
    let mut rates = vec![0.0f64; flows.len()];
    let mut group_of = vec![usize::MAX; flows.len()];
    let mut groups: Vec<GroupSpec> = Vec::new();
    let mut index: std::collections::BTreeMap<(usize, usize), usize> =
        std::collections::BTreeMap::new();
    for (i, f) in flows.iter().enumerate() {
        assert!(f.src.index() < n_sites && f.dst.index() < n_sites);
        if f.is_local() {
            // Local flows never contend for WAN links.
            rates[i] = f64::INFINITY;
            continue;
        }
        let g = *index
            .entry((f.src.index(), f.dst.index()))
            .or_insert_with(|| {
                groups.push(GroupSpec {
                    src: f.src.index(),
                    dst: f.dst.index(),
                    count: 0,
                });
                groups.len() - 1
            });
        groups[g].count += 1;
        group_of[i] = g;
    }
    let group_rates = waterfill_groups(&groups, up_gbps, down_gbps);
    for (i, &g) in group_of.iter().enumerate() {
        if g != usize::MAX {
            rates[i] = group_rates[g];
        }
    }
    rates
}

/// A bundle of identical flows between one `(src, dst)` site pair.
#[derive(Debug, Clone, Copy)]
pub struct GroupSpec {
    /// Sending site index.
    pub src: usize,
    /// Receiving site index.
    pub dst: usize,
    /// Number of flows in the bundle (zero-count groups get rate 0).
    pub count: usize,
}

/// Max-min fair per-flow rate of each group, by progressive filling with a
/// lazily re-validated link heap.
///
/// Stateless convenience wrapper over [`Waterfiller`]: allocates fresh
/// state per call. Hot callers (the flow simulator) hold a persistent
/// [`Waterfiller`] instead, so each refill resumes the last fill.
pub fn waterfill_groups(groups: &[GroupSpec], up_gbps: &[f64], down_gbps: &[f64]) -> Vec<f64> {
    let n = up_gbps.len();
    assert_eq!(down_gbps.len(), n);
    let mut wf = Waterfiller::new(n);
    for (g, spec) in groups.iter().enumerate() {
        if spec.count > 0 {
            wf.set_count(g, spec.src, spec.dst, spec.count);
        }
    }
    wf.refill(up_gbps, down_gbps);
    let mut rates = vec![0.0f64; groups.len()];
    for &(g, r) in wf.refilled() {
        rates[g] = r;
    }
    rates
}

/// Orders non-negative f64 levels as u64 keys.
#[inline]
fn key(level: f64) -> u64 {
    level.max(0.0).to_bits()
}

/// A `(level key, link)` pair packed into one `u128` (`key << 64 | link`),
/// ordered exactly like the tuple.
#[inline]
fn pack(k: u64, link: usize) -> u128 {
    ((k as u128) << 64) | link as u128
}

/// Splits a [`pack`]ed pair back into `(level key, link)`.
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "each half of the u128 holds one field whole"
)]
fn unpack(packed: u128) -> (u64, usize) {
    ((packed >> 64) as u64, packed as u64 as usize)
}

/// Narrows an index or count to the `u32` the record's fields store. Every
/// caller's value fits: site, link and group indices and record lengths
/// are bounded by the group count, far below 2³², and group counts by the
/// `u32::MAX` check in [`Waterfiller::set_count`].
#[inline]
#[expect(
    clippy::cast_possible_truncation,
    reason = "callers' values are below u32::MAX (see doc comment)"
)]
fn ix(i: usize) -> u32 {
    i as u32
}

/// "No step" / "no update" marker in the `u32` index fields.
const NONE: u32 = u32::MAX;

/// One saturation of the last fill, in fill order.
#[derive(Debug, Clone, Copy)]
struct Step {
    /// `pack(key(level), link)` of the link that saturated.
    packed: u128,
    /// The level its unfrozen groups froze at.
    level: f64,
    /// Where this step's entries start in `freeze_log` and `updates`.
    first_freeze: u32,
    first_update: u32,
}

/// One `(rem, act)` update of a link, made when a group crossing it froze
/// at a step that saturated the group's other link.
#[derive(Debug, Clone, Copy)]
struct Update {
    step: u32,
    link: u32,
    /// The same link's previous update, or [`NONE`].
    prev: u32,
    /// Flows of the frozen group.
    count: u32,
    /// The link's active flows and remaining capacity after the update.
    act: u32,
    rem: f64,
}

/// One group, keyed by the caller's group id.
#[derive(Debug, Clone, Copy)]
struct GroupRec {
    src: u32,
    dst: u32,
    count: u32,
    /// Step of the last fill the group froze at, or [`NONE`].
    step: u32,
}

/// Persistent progressive-filling state that resumes the last fill instead
/// of redoing it.
///
/// # What a fill leaves behind
///
/// Per-link membership (the live groups crossing each link, ascending by
/// group id, and their total flow count) is updated on group birth, death
/// and count change by [`Waterfiller::set_count`]. Each fill then records,
/// in flat arrays:
/// - the saturation order: one `Step` per saturated link, with its
///   `(key, link)` and level;
/// - each group's freeze step (the groups in freeze order, too);
/// - each link's ordered `(rem, act)` updates, chained backwards per link.
///
/// Per-group arrays are keyed by the caller's dense group ids and grow on
/// demand; per-link arrays are allocated once (`2 × n_sites` entries). None
/// is sized by the n² pair universe.
///
/// # Resume invariant
///
/// A mutation (a group's count changed, born or died, or a site's
/// capacity changed) marks the links it touches dirty; every changed group
/// has both its links dirty. The fill up to the first step whose outcome
/// a dirty link can change repeats bit for bit:
/// - a clean link's members are all unchanged groups, and its initial
///   `(capacity, flows)` is unchanged;
/// - so if the old steps `0..i` never popped a dirty link, they froze the
///   same groups at the same levels and applied the same `(level, count)`
///   updates to every link — to a dirty link too, from its new initial
///   state;
/// - step `i` pops the same `(key, link)` as before iff no dirty link's
///   new key, replayed from its new initial state through its own updates
///   before `i`, precedes the old `(key, link)` of step `i`.
///
/// [`Waterfiller::refill`] resumes at `i*`, the first old step that pops a
/// dirty link or that a dirty link's replayed key precedes. It rolls the
/// record back to `i*`, restores every link still active there from its
/// last update before `i*` (a dirty link by the replay), and fills on in
/// eager `(key, link)` order. Only the groups frozen from `i*` on are
/// re-frozen and reported, and the result is the rates of a from-scratch
/// fill, bit for bit.
#[derive(Debug)]
pub struct Waterfiller {
    n_sites: usize,
    /// Per-link remaining capacity and unfrozen flows during a fill (0..n
    /// uplinks, n..2n downlinks).
    rem: Vec<f64>,
    act: Vec<usize>,
    /// Per-link live groups, ascending by group id (the freeze order).
    members: Vec<Vec<u32>>,
    /// Per-link flow count over `members`: the link's `act` at the start
    /// of a fill.
    total: Vec<usize>,
    groups: Vec<GroupRec>,
    /// The last fill's record; see the type docs.
    steps: Vec<Step>,
    freeze_log: Vec<u32>,
    updates: Vec<Update>,
    /// Per-link index of its last entry in `updates`, or [`NONE`].
    last_update: Vec<u32>,
    /// Per-link step it saturated at in the last fill, or [`NONE`].
    pop_step: Vec<u32>,
    /// Saturation heap of packed `(level key, link)`, min-first.
    heap: BinaryHeap<Reverse<u128>>,
    /// Key of the most recent heap push per link. The fill keeps the
    /// invariant that every active link has an entry at or below its
    /// current saturation level: levels are monotone over the fill modulo
    /// float rounding, so only the (rare) downward rounding moves need a
    /// fresh push — see the freeze loop.
    best_key: Vec<u64>,
    /// Links marked dirty by mutations since the last refill.
    dirty_links: Vec<usize>,
    dirty_mask: Vec<bool>,
    /// Links restored for the current refill (cleared before it returns),
    /// and one link's update chain, both scratch.
    restored: Vec<bool>,
    restored_links: Vec<usize>,
    chain: Vec<u32>,
    /// `(group, new rate)` pairs produced by the last refill.
    refilled: Vec<(usize, f64)>,
    /// Refills that did work.
    refills: u64,
}

impl Waterfiller {
    /// Creates a waterfiller over `n_sites` sites (2 × `n_sites` links).
    pub fn new(n_sites: usize) -> Self {
        let links = 2 * n_sites;
        Self {
            n_sites,
            rem: vec![0.0; links],
            act: vec![0; links],
            members: vec![Vec::new(); links],
            total: vec![0; links],
            groups: Vec::new(),
            steps: Vec::new(),
            freeze_log: Vec::new(),
            updates: Vec::new(),
            last_update: vec![NONE; links],
            pop_step: vec![NONE; links],
            heap: BinaryHeap::new(),
            best_key: vec![0; links],
            dirty_links: Vec::new(),
            dirty_mask: vec![false; links],
            restored: vec![false; links],
            restored_links: Vec::new(),
            chain: Vec::new(),
            refilled: Vec::new(),
            refills: 0,
        }
    }

    #[inline]
    fn mark_dirty(&mut self, link: usize) {
        if !self.dirty_mask[link] {
            self.dirty_mask[link] = true;
            self.dirty_links.push(link);
        }
    }

    /// Marks a site's uplink and downlink dirty: call after changing its
    /// capacity.
    pub fn mark_site_dirty(&mut self, site: usize) {
        self.mark_dirty(site);
        self.mark_dirty(self.n_sites + site);
    }

    /// Sets group `g`'s flow count; 0 removes the group, and a later
    /// non-zero count may re-create it on another pair. Marks both of its
    /// links dirty when the count changes.
    pub fn set_count(&mut self, g: usize, src: usize, dst: usize, count: usize) {
        let n = self.n_sites;
        assert!(src != dst, "local flows cannot be grouped");
        assert!(src < n && dst < n);
        if g >= self.groups.len() {
            let empty = GroupRec {
                src: 0,
                dst: 0,
                count: 0,
                step: NONE,
            };
            self.groups.resize(g + 1, empty);
        }
        let old = self.groups[g].count as usize;
        if old == count {
            return;
        }
        let (up, down) = (src, n + dst);
        if old == 0 {
            self.groups[g].src = ix(src);
            self.groups[g].dst = ix(dst);
            for l in [up, down] {
                let pos = self.members[l].partition_point(|&x| (x as usize) < g);
                self.members[l].insert(pos, ix(g));
            }
        } else {
            let rec = self.groups[g];
            assert!(
                (rec.src as usize, rec.dst as usize) == (src, dst),
                "group {g} changed pair while live"
            );
        }
        if count == 0 {
            for l in [up, down] {
                let pos = self.members[l].partition_point(|&x| (x as usize) < g);
                self.members[l].remove(pos);
            }
        }
        for l in [up, down] {
            self.total[l] = self.total[l] - old + count;
            self.mark_dirty(l);
        }
        assert!(self.total[up].max(self.total[down]) <= u32::MAX as usize);
        self.groups[g].count = ix(count);
    }

    /// Number of refills that did work so far.
    pub fn refills(&self) -> u64 {
        self.refills
    }

    /// Brings the fill up to date with the mutations since the last
    /// refill, resuming at the first saturation they can change (see the
    /// type docs) and clearing the dirty set. The re-frozen groups and
    /// their rates are exposed via [`Waterfiller::refilled`]; every other
    /// live group keeps the rate the last refill reported for it.
    pub fn refill(&mut self, up_gbps: &[f64], down_gbps: &[f64]) {
        let n = self.n_sites;
        assert_eq!(up_gbps.len(), n);
        assert_eq!(down_gbps.len(), n);
        self.refilled.clear();
        if self.dirty_links.is_empty() {
            return;
        }
        self.refills += 1;
        let cap = |l: usize| if l < n { up_gbps[l] } else { down_gbps[l - n] };

        // The resume step: no later than the first pop of a dirty link,
        // nor than the first step a dirty link's replayed key precedes.
        let mut resume = ix(self.steps.len());
        for &d in &self.dirty_links {
            resume = resume.min(self.pop_step[d]);
        }
        for i in 0..self.dirty_links.len() {
            let d = self.dirty_links[i];
            resume = self.first_preceded(d, cap(d), resume);
        }

        // Roll the record back to `resume`, restoring the links of every
        // group that must re-freeze.
        let (first_freeze, first_update) = match self.steps.get(resume as usize) {
            Some(s) => (s.first_freeze as usize, s.first_update as usize),
            None => (self.freeze_log.len(), self.updates.len()),
        };
        for s in &self.steps[resume as usize..] {
            self.pop_step[unpack(s.packed).1] = NONE;
        }
        self.steps.truncate(resume as usize);
        for u in self.updates[first_update..].iter().rev() {
            self.last_update[u.link as usize] = u.prev;
        }
        self.updates.truncate(first_update);
        // Dirty links first: `restore` visits each link once.
        for i in 0..self.dirty_links.len() {
            let d = self.dirty_links[i];
            self.restore(d, cap(d), true);
        }
        for i in first_freeze..self.freeze_log.len() {
            let g = self.freeze_log[i] as usize;
            self.groups[g].step = NONE;
            let rec = self.groups[g];
            if rec.count > 0 {
                self.restore(rec.src as usize, cap(rec.src as usize), false);
                self.restore(n + rec.dst as usize, cap(n + rec.dst as usize), false);
            }
        }
        self.freeze_log.truncate(first_freeze);

        // Heapify the restored active links in one pass; link keys are
        // distinct, so the pop order matches one-by-one pushes exactly.
        debug_assert!(self.heap.is_empty());
        let mut heap_buf = std::mem::take(&mut self.heap).into_vec();
        for &l in &self.restored_links {
            self.restored[l] = false;
            if self.act[l] > 0 {
                let k = key(self.rem[l].max(0.0) / self.act[l] as f64);
                self.best_key[l] = k;
                heap_buf.push(Reverse(pack(k, l)));
            }
        }
        self.restored_links.clear();
        self.heap = BinaryHeap::from(heap_buf);
        self.fill();

        for l in self.dirty_links.drain(..) {
            self.dirty_mask[l] = false;
        }
    }

    /// The first old step before `bound` that dirty link `d`'s new key
    /// precedes, or `bound`. The key is replayed from `d`'s new initial
    /// state (`cap`, `total[d]`) through its own updates before `bound`,
    /// all of which came from unchanged groups.
    fn first_preceded(&mut self, d: usize, cap: f64, bound: u32) -> u32 {
        let mut act = self.total[d];
        if act == 0 {
            return bound;
        }
        self.collect_chain(d, bound);
        let mut rem = cap;
        let mut j = 0u32;
        for i in (0..self.chain.len()).rev() {
            let u = self.updates[self.chain[i] as usize];
            let k = pack(key(rem.max(0.0) / act as f64), d);
            while j <= u.step {
                if k < self.steps[j as usize].packed {
                    return j;
                }
                j += 1;
            }
            act -= u.count as usize;
            rem = (rem - self.steps[u.step as usize].level * u.count as f64).max(0.0);
            if act == 0 {
                return bound;
            }
        }
        let k = pack(key(rem.max(0.0) / act as f64), d);
        while j < bound {
            if k < self.steps[j as usize].packed {
                return j;
            }
            j += 1;
        }
        bound
    }

    /// Collects link `l`'s updates before step `bound` into `chain`, last
    /// first.
    fn collect_chain(&mut self, l: usize, bound: u32) {
        self.chain.clear();
        let mut u = self.last_update[l];
        while u != NONE {
            let upd = self.updates[u as usize];
            if upd.step < bound {
                self.chain.push(u);
            }
            u = upd.prev;
        }
    }

    /// Sets link `l`'s fill state to the one it had at the resume step
    /// (the record is already rolled back to it): its last update, or its
    /// initial state. A `dirty` link's updates are replayed from its new
    /// initial state and rewritten in place.
    fn restore(&mut self, l: usize, cap: f64, dirty: bool) {
        if self.restored[l] {
            return;
        }
        self.restored[l] = true;
        self.restored_links.push(l);
        debug_assert!(
            self.pop_step[l] == NONE,
            "link {l} restored after it saturated"
        );
        let (mut rem, mut act) = (cap, self.total[l]);
        if dirty {
            self.collect_chain(l, NONE);
            for i in (0..self.chain.len()).rev() {
                let u = &mut self.updates[self.chain[i] as usize];
                act -= u.count as usize;
                rem = (rem - self.steps[u.step as usize].level * u.count as f64).max(0.0);
                u.act = ix(act);
                u.rem = rem;
            }
        } else if let Some(u) = self.updates.get(self.last_update[l] as usize) {
            (rem, act) = (u.rem, u.act as usize);
        }
        self.rem[l] = rem;
        self.act[l] = act;
    }

    /// Progressive filling from the restored state in eager `(key, link)`
    /// order, appending to the record: saturation levels are monotone over
    /// the filling (freezing a group can only raise the level at which
    /// other links saturate), so a stale heap entry is simply re-pushed
    /// with its recomputed level. Each group freezes exactly once.
    fn fill(&mut self) {
        let n = self.n_sites;
        let Waterfiller {
            rem,
            act,
            members,
            groups,
            steps,
            freeze_log,
            updates,
            last_update,
            pop_step,
            heap,
            best_key,
            refilled,
            ..
        } = self;
        while let Some(Reverse(packed)) = heap.pop() {
            let (stored, l) = unpack(packed);
            if act[l] == 0 {
                continue;
            }
            let exact = rem[l].max(0.0) / act[l] as f64;
            if key(exact) > stored {
                best_key[l] = key(exact);
                heap.push(Reverse(pack(key(exact), l)));
                continue;
            }
            // Freeze every unfrozen group crossing link `l` at this level;
            // only the other link of each needs its state updated.
            let level = exact;
            let step = ix(steps.len());
            steps.push(Step {
                packed: pack(key(exact), l),
                level,
                first_freeze: ix(freeze_log.len()),
                first_update: ix(updates.len()),
            });
            pop_step[l] = step;
            for &g in &members[l] {
                let rec = &mut groups[g as usize];
                if rec.step != NONE {
                    continue;
                }
                rec.step = step;
                freeze_log.push(g);
                refilled.push((g as usize, level));
                let m = if l < n {
                    n + rec.dst as usize
                } else {
                    rec.src as usize
                };
                let count = rec.count as usize;
                act[m] -= count;
                rem[m] = (rem[m] - level * count as f64).max(0.0);
                updates.push(Update {
                    step,
                    link: ix(m),
                    prev: last_update[m],
                    count: rec.count,
                    act: ix(act[m]),
                    rem: rem[m],
                });
                last_update[m] = ix(updates.len() - 1);
                // The other link almost never needs a re-push: the entry
                // behind `best_key[m]` is still at or below the new level
                // (levels are monotone over the fill), and the
                // revalidate-and-repush step above restores the exact key
                // when it surfaces. Only a *downward* float-rounding move —
                // the new level landing below every live entry — needs a
                // fresh push to keep the at-or-below invariant, so the
                // freeze order stays exactly that of an eager heap while
                // the heap itself stays at `O(links)` entries.
                if act[m] > 0 {
                    let nk = key(rem[m] / act[m] as f64);
                    if nk < best_key[m] {
                        best_key[m] = nk;
                        heap.push(Reverse(pack(nk, m)));
                    }
                }
            }
            act[l] = 0;
        }
    }

    /// The `(group, per-flow rate)` results of the last [`refill`]: the
    /// groups frozen from its resume step on, each once.
    ///
    /// [`refill`]: Waterfiller::refill
    pub fn refilled(&self) -> &[(usize, f64)] {
        &self.refilled
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;

    /// A deliberately naive progressive fill, the specification the
    /// `Waterfiller` is checked against: each step freezes the active link
    /// with the least `(key(rem.max(0) / act), link)`; its unfrozen groups
    /// freeze in ascending group order at that level, and both links of
    /// each frozen group give up `level · count` of capacity (clamped at 0)
    /// and `count` active flows. Zero-count groups get rate 0.
    fn reference_fill(groups: &[GroupSpec], up: &[f64], down: &[f64]) -> Vec<f64> {
        let n = up.len();
        let mut rem: Vec<f64> = up.iter().chain(down).copied().collect();
        let mut act = vec![0usize; 2 * n];
        for g in groups {
            act[g.src] += g.count;
            act[n + g.dst] += g.count;
        }
        let mut rate = vec![0.0; groups.len()];
        let mut frozen: Vec<bool> = groups.iter().map(|g| g.count == 0).collect();
        while let Some(l) = (0..2 * n)
            .filter(|&l| act[l] > 0)
            .min_by_key(|&l| (key(rem[l].max(0.0) / act[l] as f64), l))
        {
            let level = rem[l].max(0.0) / act[l] as f64;
            for (g, spec) in groups.iter().enumerate() {
                if frozen[g] || (spec.src != l && n + spec.dst != l) {
                    continue;
                }
                frozen[g] = true;
                rate[g] = level;
                for m in [spec.src, n + spec.dst] {
                    rem[m] = (rem[m] - level * spec.count as f64).max(0.0);
                    act[m] -= spec.count;
                }
            }
        }
        rate
    }

    /// Per-site capacities over `sites`: either coarse (many ties, a zero
    /// in one draw of six) or fine-grained.
    fn caps_in(
        sites: std::ops::RangeInclusive<usize>,
    ) -> impl Strategy<Value = (Vec<f64>, Vec<f64>)> {
        (sites, proptest::bool::ANY).prop_flat_map(|(n, coarse)| {
            let cap = move |v: u32| {
                if coarse {
                    if v.is_multiple_of(6) {
                        0.0
                    } else {
                        (v % 4 + 1) as f64 * 0.5
                    }
                } else {
                    v as f64 * 0.05
                }
            };
            (
                proptest::collection::vec(0u32..80, n),
                proptest::collection::vec(0u32..80, n),
            )
                .prop_map(move |(u, d)| {
                    (
                        u.into_iter().map(cap).collect(),
                        d.into_iter().map(cap).collect(),
                    )
                })
        })
    }

    /// Groups over `n` sites from raw `(src, dst, count)` draws, local
    /// pairs dropped (a pair may repeat; each copy is its own group).
    fn groups_from(n: usize, raw: &[(usize, usize, usize)]) -> Vec<GroupSpec> {
        raw.iter()
            .map(|&(s, d, count)| (s % n, d % n, count))
            .filter(|&(s, d, _)| s != d)
            .map(|(src, dst, count)| GroupSpec { src, dst, count })
            .collect()
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|r| r.to_bits()).collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The reference fill is the from-scratch waterfill, bit for bit,
        /// ties and zero capacities included.
        #[test]
        fn reference_fill_matches_waterfill_groups(
            (up, down) in caps_in(2..=12),
            raw in proptest::collection::vec((0usize..12, 0usize..12, 0usize..4), 1..40),
        ) {
            let groups = groups_from(up.len(), &raw);
            prop_assert_eq!(
                bits(&waterfill_groups(&groups, &up, &down)),
                bits(&reference_fill(&groups, &up, &down))
            );
        }
    }

    fn f(s: usize, d: usize) -> FlowSpec {
        FlowSpec {
            src: SiteId(s),
            dst: SiteId(d),
        }
    }

    #[test]
    fn single_flow_gets_bottleneck_bandwidth() {
        let rates = max_min_rates(&[f(0, 1)], &[10.0, 10.0], &[10.0, 2.0]);
        assert!((rates[0] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn two_flows_share_a_link_equally() {
        // Both flows leave site 0 (uplink 4); receivers are unconstrained.
        let rates = max_min_rates(&[f(0, 1), f(0, 2)], &[4.0, 9.0, 9.0], &[9.0; 3]);
        assert!((rates[0] - 2.0).abs() < 1e-9);
        assert!((rates[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn freed_capacity_goes_to_unbottlenecked_flow() {
        // Flow A: 0->1 constrained by dst downlink 1. Flow B: 0->2 can then
        // use the rest of src uplink 4 => 3.
        let rates = max_min_rates(&[f(0, 1), f(0, 2)], &[4.0, 9.0, 9.0], &[9.0, 1.0, 9.0]);
        assert!((rates[0] - 1.0).abs() < 1e-9);
        assert!((rates[1] - 3.0).abs() < 1e-9);
    }

    #[test]
    fn local_flows_are_infinite_and_do_not_contend() {
        let rates = max_min_rates(&[f(0, 0), f(0, 1)], &[2.0, 2.0], &[2.0, 2.0]);
        assert!(rates[0].is_infinite());
        assert!((rates[1] - 2.0).abs() < 1e-9);
    }

    #[test]
    fn no_link_oversubscribed_on_random_instances() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(42);
        for _ in 0..50 {
            let n = rng.gen_range(2..6);
            let up: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..8.0)).collect();
            let down: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..8.0)).collect();
            let flows: Vec<FlowSpec> = (0..rng.gen_range(1..20))
                .map(|_| f(rng.gen_range(0..n), rng.gen_range(0..n)))
                .collect();
            let rates = max_min_rates(&flows, &up, &down);
            let mut upload = vec![0.0; n];
            let mut download = vec![0.0; n];
            for (i, fl) in flows.iter().enumerate() {
                if !fl.is_local() {
                    upload[fl.src.index()] += rates[i];
                    download[fl.dst.index()] += rates[i];
                }
            }
            for s in 0..n {
                assert!(upload[s] <= up[s] + 1e-6, "uplink {s} oversubscribed");
                assert!(download[s] <= down[s] + 1e-6, "downlink {s} oversubscribed");
            }
            // Every non-local flow is bottlenecked: its rate cannot be raised
            // without violating some link, i.e. it crosses a saturated link.
            for (i, fl) in flows.iter().enumerate() {
                if fl.is_local() {
                    continue;
                }
                let up_sat = upload[fl.src.index()] >= up[fl.src.index()] - 1e-6;
                let down_sat = download[fl.dst.index()] >= down[fl.dst.index()] - 1e-6;
                assert!(up_sat || down_sat, "flow {i} not bottlenecked");
            }
        }
    }

    /// A persistent `Waterfiller` driven through mutations next to the
    /// caller-side state the reference fill needs: groups are the ordered
    /// pairs of `n` sites, numbered `s * n + d`.
    struct Model {
        n: usize,
        wf: Waterfiller,
        counts: Vec<usize>,
        up: Vec<f64>,
        down: Vec<f64>,
        rates: Vec<f64>,
    }

    impl Model {
        fn new(up: Vec<f64>, down: Vec<f64>) -> Self {
            let n = up.len();
            Model {
                n,
                wf: Waterfiller::new(n),
                counts: vec![0; n * n],
                up,
                down,
                rates: vec![0.0; n * n],
            }
        }

        fn set_count(&mut self, s: usize, d: usize, count: usize) {
            if s != d {
                let g = s * self.n + d;
                self.counts[g] = count;
                self.wf.set_count(g, s, d, count);
            }
        }

        fn set_capacity(&mut self, site: usize, up: f64, down: f64) {
            self.up[site] = up;
            self.down[site] = down;
            self.wf.mark_site_dirty(site);
        }

        fn specs(&self) -> Vec<GroupSpec> {
            (0..self.n * self.n)
                .map(|g| GroupSpec {
                    src: g / self.n,
                    dst: g % self.n,
                    count: self.counts[g],
                })
                .collect()
        }

        /// Refills and checks every live group's rate against the
        /// reference fill, bit for bit; returns the groups re-frozen.
        fn refill_and_check(&mut self, ctx: &str) -> usize {
            self.wf.refill(&self.up, &self.down);
            for &(g, r) in self.wf.refilled() {
                self.rates[g] = r;
            }
            let want = reference_fill(&self.specs(), &self.up, &self.down);
            for g in (0..self.counts.len()).filter(|&g| self.counts[g] > 0) {
                assert!(
                    self.rates[g].to_bits() == want[g].to_bits(),
                    "{ctx}: group {g} ({}->{}) resumed {} != reference {}",
                    g / self.n,
                    g % self.n,
                    self.rates[g],
                    want[g]
                );
            }
            self.wf.refilled().len()
        }
    }

    /// Incremental refills must reproduce the reference fill bit for bit,
    /// for every mutation in a deterministic churn sequence.
    #[test]
    fn incremental_refill_matches_full_fill_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 6;
        let up: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..8.0)).collect();
        let down: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..8.0)).collect();
        let mut m = Model::new(up, down);
        for step in 0..400 {
            let (s, d) = (rng.gen_range(0..n), rng.gen_range(0..n));
            let c = m.counts[s * n + d];
            let c = if c > 0 && rng.gen_bool(0.4) {
                c - 1
            } else {
                c + rng.gen_range(1..4usize)
            };
            m.set_count(s, d, c);
            m.refill_and_check(&format!("step {step}"));
        }
    }

    /// Capacity from a raw draw: 0 in one draw of eight, else a coarse
    /// (tie-prone) value.
    fn raw_cap(v: u32) -> f64 {
        if v.is_multiple_of(8) {
            0.0
        } else {
            (v % 5 + 1) as f64 * 0.5
        }
    }

    /// Applies one mutation batch: `(op, a, b, v)` sets pair `(a, b)`'s
    /// count to `v % 4` (0 kills the group), or changes a site's capacity
    /// (possibly to 0), or restores it to its initial value. With `split`,
    /// pairs stay inside one half of the sites, so the groups form at
    /// least two disconnected components.
    fn apply_batch(
        m: &mut Model,
        init: &(Vec<f64>, Vec<f64>),
        batch: &[(u8, usize, usize, u32)],
        split: bool,
    ) {
        let n = m.n;
        for &(op, a, b, v) in batch {
            let s = a % n;
            match op % 4 {
                0 | 1 => {
                    let d = if split {
                        let (lo, len) = if s < n / 2 {
                            (0, n / 2)
                        } else {
                            (n / 2, n - n / 2)
                        };
                        lo + b % len
                    } else {
                        b % n
                    };
                    m.set_count(s, d, v as usize % 4);
                }
                2 => m.set_capacity(s, raw_cap(v), raw_cap(v / 8)),
                _ => m.set_capacity(s, init.0[s], init.1[s]),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random mutation batches (several dirty links per refill, group
        /// birth and death, capacities to 0 and back, split components):
        /// every resumed refill equals the reference fill bit for bit.
        #[test]
        fn resumed_refill_matches_reference(
            init in caps_in(2..=12),
            split in proptest::bool::ANY,
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0usize..12, 0usize..12, 0u32..64), 1..7),
                1..25,
            ),
        ) {
            let mut m = Model::new(init.0.clone(), init.1.clone());
            for (i, batch) in batches.iter().enumerate() {
                apply_batch(&mut m, &init, batch, split);
                m.refill_and_check(&format!("batch {i}"));
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(16))]

        /// 30-site all-to-all traffic (870 groups), then mutation batches.
        #[test]
        fn resumed_refill_matches_reference_all_to_all(
            init in caps_in(30..=30),
            counts in proptest::collection::vec(1usize..4, 900),
            batches in proptest::collection::vec(
                proptest::collection::vec((0u8..4, 0usize..30, 0usize..30, 0u32..64), 1..7),
                1..30,
            ),
        ) {
            let mut m = Model::new(init.0.clone(), init.1.clone());
            for s in 0..30 {
                for d in 0..30 {
                    m.set_count(s, d, counts[s * 30 + d]);
                }
            }
            prop_assert_eq!(m.refill_and_check("all-to-all"), 870);
            for (i, batch) in batches.iter().enumerate() {
                apply_batch(&mut m, &init, batch, false);
                m.refill_and_check(&format!("batch {i}"));
            }
        }
    }

    /// Five sites whose fill saturates uplink 0, then downlink 1, then
    /// downlink 2 (link 7), each at a distinct level; only group 3→2 is
    /// left when downlink 2 saturates. No group crosses site 4.
    fn crafted() -> Model {
        let mut m = Model::new(vec![1.0, 9.0, 9.0, 6.0, 9.0], vec![9.0, 2.0, 4.0, 9.0, 9.0]);
        m.set_count(0, 1, 1);
        m.set_count(0, 2, 1);
        m.set_count(3, 1, 1);
        m.set_count(3, 2, 2);
        assert_eq!(m.refill_and_check("first fill"), 4);
        let order: Vec<usize> = m.wf.steps.iter().map(|s| unpack(s.packed).1).collect();
        assert_eq!(order, [0, 6, 7]);
        m
    }

    /// A mutation on the last link to saturate resumes at its step: only
    /// its group is re-frozen.
    #[test]
    fn mutating_the_last_saturated_link_refreezes_only_its_groups() {
        let mut m = crafted();
        m.set_capacity(2, 9.0, 4.4);
        assert_eq!(m.refill_and_check("downlink 2 raised"), 1);
        assert_eq!(m.wf.refilled()[0].0, 3 * 5 + 2);
        // A capacity change on links no group crosses re-freezes nothing.
        m.set_capacity(4, 5.0, 0.0);
        assert_eq!(m.refill_and_check("idle site 4"), 0);
    }

    /// A mutation on the first link to saturate resumes at step 0: every
    /// group is re-frozen.
    #[test]
    fn mutating_the_first_saturated_link_refreezes_all_groups() {
        let mut m = crafted();
        m.set_capacity(0, 1.2, 9.0);
        assert_eq!(m.refill_and_check("uplink 0 raised"), 4);
    }
}
