//! Max-min fair rate allocation by progressive filling.

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
/// scratch per call. Hot callers (the flow simulator) hold a persistent
/// [`Waterfiller`] instead and reuse its buffers across calls.
pub fn waterfill_groups(groups: &[GroupSpec], up_gbps: &[f64], down_gbps: &[f64]) -> Vec<f64> {
    let n = up_gbps.len();
    assert_eq!(down_gbps.len(), n);
    let mut wf = Waterfiller::new(n);
    let mut rates = vec![0.0f64; groups.len()];
    let live: Vec<usize> = (0..groups.len()).filter(|&g| groups[g].count > 0).collect();
    wf.mark_all_dirty();
    wf.refill(
        &live,
        |g| (groups[g].src, groups[g].dst, groups[g].count),
        up_gbps,
        down_gbps,
    );
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

/// Persistent progressive-filling state: all scratch buffers (per-link
/// remaining capacity and active counts, link→group membership, the
/// saturation heap, and a link union-find) live across calls, so the steady
/// state of a refill allocates nothing.
///
/// # Sparsity
///
/// Construction allocates only the per-link arrays (`2 × n_sites` entries);
/// per-group state (`spec_cache`, `frozen`) is keyed by *position in the
/// caller's sorted live list*, not by group id, so its footprint is
/// O(live pairs) even when the caller numbers groups by dense `(src, dst)`
/// pair index (n² ids). Per-refill bookkeeping that used to reset every
/// link (union-find parents, dirty-root markers, the scoped-link scan) is
/// epoch-stamped instead: an incremental refill touches O(live + dirty)
/// links, never all `2n`.
///
/// # Dirty-link incremental refills
///
/// Links and groups form a bipartite graph (each group crosses its source
/// uplink and destination downlink). Progressive filling is *independent
/// across connected components* of that graph: freezing a group only
/// updates the remaining capacity and active count of the two links it
/// crosses, so the fill arithmetic of one component never observes another.
/// A mutation (flow added/removed, capacity change) therefore only
/// invalidates the rates of groups in the components containing the links
/// it touched — the *dirty* links. [`Waterfiller::refill`] unions the
/// current live groups' links, scopes the fill to components holding a
/// dirty link, and leaves every other component's rates untouched. When the
/// bottleneck structure actually moves — components merge, split, or a
/// saturation order changes inside one — the moved structure is by
/// construction inside a dirty component and gets a full (component-wide)
/// refill, so the result is always *exactly* the rates a from-scratch fill
/// would produce, bit for bit (the arithmetic sequence per component is
/// identical).
#[derive(Debug)]
pub struct Waterfiller {
    n_sites: usize,
    /// Per-link remaining capacity during a fill (0..n uplinks, n..2n
    /// downlinks).
    rem: Vec<f64>,
    /// Per-link count of unfrozen flows.
    act: Vec<usize>,
    /// Per-link list of live-list positions of the groups crossing it
    /// (rebuilt per refill, scoped). Positions, not group ids: the fill
    /// never indexes anything by the caller's (possibly dense-pair) ids.
    link_groups: Vec<Vec<u32>>,
    /// Saturation heap of `(level key, link)` packed into a `u128`
    /// (`key << 64 | link`; one-word compares), min-first. Ordering is
    /// identical to the `(key, link)` tuple.
    heap: BinaryHeap<Reverse<u128>>,
    /// Per-live-position frozen marker, rebuilt each refill (O(live)).
    frozen: Vec<bool>,
    /// Union-find parent over links. Lazily reset: a link whose
    /// `parent_epoch` lags the current epoch reads as a fresh singleton,
    /// so no O(links) clear pass runs per refill.
    parent: Vec<u32>,
    parent_epoch: Vec<u64>,
    /// Bumped at the start of every refill that does work; validates
    /// `parent_epoch`, `dirty_root_epoch` and `scoped_epoch` entries.
    epoch: u64,
    /// Links marked dirty by mutations since the last refill.
    dirty_links: Vec<usize>,
    dirty_mask: Vec<bool>,
    all_dirty: bool,
    /// Per-link root-dirty marker: the root is dirty iff its entry equals
    /// the current epoch.
    dirty_root_epoch: Vec<u64>,
    /// Links participating in the current scoped fill (each reset exactly
    /// once per refill, guarded by `scoped_epoch`).
    scoped_links: Vec<usize>,
    scoped_epoch: Vec<u64>,
    /// `(src, dst, count)` per live-list position, cached for the current
    /// refill so the fill loop stays on this compact array instead of
    /// chasing the caller's group records. Sized to the live list —
    /// O(live pairs), independent of how sparse or dense the caller's
    /// group-id space is.
    spec_cache: Vec<(u32, u32, u32)>,
    /// Scratch the frozen link's member list is swapped into (the buffers
    /// circulate between this and `link_groups`, so freezing never
    /// deallocates).
    members_scratch: Vec<u32>,
    /// Key of the most recent heap push per link. The fill keeps the
    /// invariant that every active link has an entry at or below its
    /// current saturation level: levels are monotone over the fill modulo
    /// float rounding, so only the (rare) downward rounding moves need a
    /// fresh push — see the freeze loop.
    best_key: Vec<u64>,
    /// `(group, new rate)` pairs produced by the last refill.
    refilled: Vec<(usize, f64)>,
}

impl Waterfiller {
    /// Creates a waterfiller over `n_sites` sites (2 × `n_sites` links).
    pub fn new(n_sites: usize) -> Self {
        let links = 2 * n_sites;
        Self {
            n_sites,
            rem: vec![0.0; links],
            act: vec![0; links],
            link_groups: vec![Vec::new(); links],
            heap: BinaryHeap::new(),
            frozen: Vec::new(),
            parent: vec![0; links],
            parent_epoch: vec![0; links],
            epoch: 0,
            dirty_links: Vec::new(),
            dirty_mask: vec![false; links],
            all_dirty: false,
            dirty_root_epoch: vec![0; links],
            scoped_links: Vec::new(),
            scoped_epoch: vec![0; links],
            spec_cache: Vec::new(),
            members_scratch: Vec::new(),
            best_key: vec![0; links],
            refilled: Vec::new(),
        }
    }

    /// Marks one site's uplink or downlink dirty: the next [`refill`] will
    /// recompute every group in that link's connected component.
    ///
    /// [`refill`]: Waterfiller::refill
    #[inline]
    pub fn mark_dirty(&mut self, link: usize) {
        if !self.dirty_mask[link] && !self.all_dirty {
            self.dirty_mask[link] = true;
            self.dirty_links.push(link);
        }
    }

    /// Marks the uplink of `src` and the downlink of `dst` dirty.
    #[inline]
    pub fn mark_pair_dirty(&mut self, src: usize, dst: usize) {
        self.mark_dirty(src);
        self.mark_dirty(self.n_sites + dst);
    }

    /// Marks everything dirty: the next [`refill`] recomputes all live
    /// groups.
    ///
    /// [`refill`]: Waterfiller::refill
    pub fn mark_all_dirty(&mut self) {
        self.all_dirty = true;
        for l in self.dirty_links.drain(..) {
            self.dirty_mask[l] = false;
        }
    }

    /// Number of refills that did work so far (the epoch bumps once per
    /// working refill). Read only by the flow simulator's refill-count test.
    #[cfg(all(test, not(feature = "audit")))]
    pub(crate) fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Whether any link is marked dirty.
    pub fn is_dirty(&self) -> bool {
        self.all_dirty || !self.dirty_links.is_empty()
    }

    fn find(&mut self, l: usize) -> usize {
        // Lazy singleton: an unstamped link has never been unioned this
        // epoch, so it is its own root (parents are only written between
        // stamped links, so stamped chains never escape the epoch).
        if self.parent_epoch[l] != self.epoch {
            self.parent_epoch[l] = self.epoch;
            self.parent[l] = l as u32;
            return l;
        }
        let mut root = l;
        while self.parent[root] as usize != root {
            root = self.parent[root] as usize;
        }
        let mut cur = l;
        while self.parent[cur] as usize != root {
            let next = self.parent[cur] as usize;
            self.parent[cur] = root as u32;
            cur = next;
        }
        root
    }

    /// Recomputes the rates of every live group whose component contains a
    /// dirty link, clearing the dirty set. `live` must list live (count > 0)
    /// group ids in ascending order; `spec` maps a group id to its
    /// `(src, dst, count)`. The results are exposed via
    /// [`Waterfiller::refilled`]; groups outside the dirty components are
    /// not recomputed and keep whatever rate the caller stored for them.
    pub fn refill(
        &mut self,
        live: &[usize],
        spec: impl Fn(usize) -> (usize, usize, usize),
        up_gbps: &[f64],
        down_gbps: &[f64],
    ) {
        let n = self.n_sites;
        assert_eq!(up_gbps.len(), n);
        assert_eq!(down_gbps.len(), n);
        self.refilled.clear();
        let full = self.all_dirty;
        if !full && self.dirty_links.is_empty() {
            return;
        }
        // One epoch per working refill: invalidates last refill's parents,
        // dirty-root marks and scoped marks without clearing them.
        self.epoch += 1;

        // Cache every live group's spec once, keyed by live-list position;
        // all later passes read the compact array. Also union the live
        // groups' link pairs and mark the roots reached by dirty links (a
        // full refill scopes every live group, so it skips the union pass).
        self.spec_cache.clear();
        self.frozen.clear();
        self.frozen.resize(live.len(), false);
        if full {
            for &g in live {
                let (src, dst, count) = spec(g);
                assert!(src != dst, "local flows cannot be grouped");
                assert!(src < n && dst < n);
                self.spec_cache.push((src as u32, dst as u32, count as u32));
            }
        } else {
            for &g in live {
                let (src, dst, count) = spec(g);
                assert!(src != dst, "local flows cannot be grouped");
                assert!(src < n && dst < n);
                self.spec_cache.push((src as u32, dst as u32, count as u32));
                let (a, b) = (self.find(src), self.find(n + dst));
                if a != b {
                    self.parent[a] = b as u32;
                }
            }
            for i in 0..self.dirty_links.len() {
                let l = self.dirty_links[i];
                let r = self.find(l);
                self.dirty_root_epoch[r] = self.epoch;
            }
        }

        // Collect the scoped group set into the link membership lists
        // (ascending live order — the fill's arithmetic order), resetting
        // each scoped link's fill state on first touch. Only links crossed
        // by in-scope groups are visited; a dirty link with no live group
        // has nothing to recompute.
        self.scoped_links.clear();
        for i in 0..self.spec_cache.len() {
            let (src, dst, count) = self.spec_cache[i];
            let (src, dst, count) = (src as usize, dst as usize, count as usize);
            let in_scope = full || {
                let r = self.find(src);
                self.dirty_root_epoch[r] == self.epoch
            };
            if !in_scope {
                continue;
            }
            for l in [src, n + dst] {
                if self.scoped_epoch[l] != self.epoch {
                    self.scoped_epoch[l] = self.epoch;
                    self.scoped_links.push(l);
                    self.rem[l] = if l < n { up_gbps[l] } else { down_gbps[l - n] };
                    self.act[l] = 0;
                    self.link_groups[l].clear();
                }
            }
            self.act[src] += count;
            self.act[n + dst] += count;
            self.link_groups[src].push(i as u32);
            self.link_groups[n + dst].push(i as u32);
        }

        // Progressive filling over the scoped component(s), identical to a
        // from-scratch fill restricted to them: saturation levels are
        // monotone over the filling (freezing a group can only raise the
        // level at which other links saturate), so a stale heap entry is
        // simply re-pushed with its recomputed level. Each group freezes
        // exactly once, giving `O(groups + links·log links)` per refill.
        debug_assert!(self.heap.is_empty());
        let pack = |k: u64, l: usize| ((k as u128) << 64) | l as u128;
        let mut heap_buf = std::mem::take(&mut self.heap).into_vec();
        heap_buf.clear();
        for i in 0..self.scoped_links.len() {
            let l = self.scoped_links[i];
            if self.act[l] > 0 {
                let k = key(self.rem[l].max(0.0) / self.act[l] as f64);
                self.best_key[l] = k;
                heap_buf.push(Reverse(pack(k, l)));
            }
        }
        // Heapify in one O(links) pass; link keys are distinct, so the pop
        // order matches one-by-one pushes exactly.
        let Waterfiller {
            rem,
            act,
            link_groups,
            heap,
            frozen,
            spec_cache,
            members_scratch,
            refilled,
            best_key,
            ..
        } = &mut *self;
        *heap = BinaryHeap::from(heap_buf);
        while let Some(Reverse(packed)) = heap.pop() {
            let (stored, l) = ((packed >> 64) as u64, packed as u64 as usize);
            if act[l] == 0 {
                continue;
            }
            let exact = rem[l].max(0.0) / act[l] as f64;
            if key(exact) > stored {
                best_key[l] = key(exact);
                heap.push(Reverse(pack(key(exact), l)));
                continue;
            }
            // Freeze every unfrozen group crossing link `l` at this level.
            // The member list swaps against a scratch buffer (leaving the
            // link's list empty, as the fill requires) so no Vec is dropped
            // or grown from zero on this path.
            let level = exact;
            members_scratch.clear();
            std::mem::swap(members_scratch, &mut link_groups[l]);
            for &i in members_scratch.iter() {
                let i = i as usize;
                if frozen[i] {
                    continue;
                }
                frozen[i] = true;
                refilled.push((live[i], level));
                let (src, dst, count) = spec_cache[i];
                let (src, dst, count) = (src as usize, dst as usize, count as usize);
                // Counterpart links almost never need a re-push: the entry
                // behind `best_key[m]` is still at or below the new level
                // (levels are monotone over the fill), and the
                // revalidate-and-repush step above restores the exact key
                // when it surfaces. Only a *downward* float-rounding move —
                // the new level landing below every live entry — needs a
                // fresh push to keep the at-or-below invariant, so the
                // freeze order stays exactly that of an eager heap while
                // the heap itself stays at `O(links)` entries.
                for m in [src, n + dst] {
                    act[m] -= count;
                    rem[m] = (rem[m] - level * count as f64).max(0.0);
                    if act[m] > 0 {
                        let nk = key(rem[m] / act[m] as f64);
                        if nk < best_key[m] {
                            best_key[m] = nk;
                            heap.push(Reverse(pack(nk, m)));
                        }
                    }
                }
            }
            act[l] = 0;
        }

        self.all_dirty = false;
        for l in self.dirty_links.drain(..) {
            self.dirty_mask[l] = false;
        }
    }

    /// The `(group, per-flow rate)` results of the last [`refill`]: exactly
    /// the groups inside the dirty components, each frozen once.
    ///
    /// [`refill`]: Waterfiller::refill
    pub fn refilled(&self) -> &[(usize, f64)] {
        &self.refilled
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// Incremental refills (dirty-link scoping) must reproduce the full
    /// fill bit for bit, for every mutation in a deterministic churn
    /// sequence.
    #[test]
    fn incremental_refill_matches_full_fill_bitwise() {
        use rand::{Rng, SeedableRng};
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let n = 6;
        let up: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..8.0)).collect();
        let down: Vec<f64> = (0..n).map(|_| rng.gen_range(0.5..8.0)).collect();
        // One group per ordered pair; counts mutate over time.
        let pairs: Vec<(usize, usize)> = (0..n)
            .flat_map(|s| (0..n).filter(move |&d| d != s).map(move |d| (s, d)))
            .collect();
        let mut counts = vec![0usize; pairs.len()];
        let mut rates = vec![0.0f64; pairs.len()];
        let mut wf = Waterfiller::new(n);
        for step in 0..400 {
            let g = rng.gen_range(0..pairs.len());
            if counts[g] > 0 && rng.gen_bool(0.4) {
                counts[g] -= 1;
            } else {
                counts[g] += rng.gen_range(1..4usize);
            }
            let (s, d) = pairs[g];
            wf.mark_pair_dirty(s, d);
            let live: Vec<usize> = (0..pairs.len()).filter(|&g| counts[g] > 0).collect();
            wf.refill(&live, |g| (pairs[g].0, pairs[g].1, counts[g]), &up, &down);
            for &(g, r) in wf.refilled() {
                rates[g] = r;
            }
            let specs: Vec<GroupSpec> = pairs
                .iter()
                .zip(&counts)
                .map(|(&(src, dst), &count)| GroupSpec { src, dst, count })
                .collect();
            let want = waterfill_groups(&specs, &up, &down);
            for &g in &live {
                assert!(
                    rates[g].to_bits() == want[g].to_bits(),
                    "step {step}: group {g} incremental {} != full {}",
                    rates[g],
                    want[g]
                );
            }
        }
    }
}
