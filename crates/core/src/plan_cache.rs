//! Template-keyed plan caching and LP warm-starting (the recurring-query
//! fast path; see DESIGN.md §11).
//!
//! Recurring analytics — the dominant workload the paper targets (§2:
//! "analytics queries are often recurring") — present the scheduler with a
//! stream of placement problems that are *structurally identical* and
//! *numerically similar* across instances: the same DAG shape over the same
//! sites, with data volumes that drift with the diurnal cycle. Re-running
//! two-phase simplex from scratch on every instance wastes almost all of
//! that similarity. This module keys solved placements by a two-level
//! fingerprint and reuses them at three escalating costs:
//!
//! 1. **Exact hit** — the cached problem compares equal field-for-field to
//!    the current one; the cached placement is returned verbatim. This tier
//!    is bit-exact by construction and is the only tier active in
//!    [`PlanCacheMode::Exact`].
//! 2. **Patched hit** — same template and same quantized bucket, but the
//!    numbers drifted. The cached *fractional* split is re-rounded against
//!    the current task counts ([`tetrium_jobs::largest_remainder_round`])
//!    and volumes/times are rescaled. A patch whose WAN bytes would exceed
//!    the current budget is rejected (it would overspend `ρ`) and the
//!    lookup falls through to the warm tier.
//! 3. **Warm start** — same template only: the most recently used entry's
//!    optimal [`Basis`] seeds [`tetrium_lp::Problem::solve_from_basis`],
//!    which skips simplex phase 1 entirely when the stored basis is still
//!    feasible. The solver itself guarantees optimality (it re-prices and
//!    re-optimizes), so this tier changes latency, never answers.
//!
//! The two-level key separates *structure* from *numbers*:
//! [`TemplateSig`] captures what makes two LPs share a constraint skeleton
//! (stage kind and index, site count, lookahead presence, limit flags),
//! while [`BucketSig`] quantizes the continuous inputs (per-site data
//! shares in 1/32 steps, WAN-budget ratio in 1/16 steps, lookahead ratio
//! in 1/64 steps, volume / task-count / task-length / slot / bandwidth
//! octaves) so that instances separated by mild diurnal drift land in the
//! same bucket and patch instead of re-solving.

use crate::map_placement::{assemble_map, MapPlacement, MapProblem};
use crate::reduce_placement::{ReducePlacement, ReduceProblem};
use std::collections::BTreeMap;
use tetrium_jobs::largest_remainder_round;
use tetrium_lp::Basis;

/// How the scheduler uses the template cache (`--plan-cache`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlanCacheMode {
    /// No template cache; every placement decision solves its LP.
    #[default]
    Off,
    /// Only exact hits short-circuit the solver. Placements are identical
    /// to [`PlanCacheMode::Off`] bit for bit, so figure output must not
    /// change (CI asserts this).
    Exact,
    /// Exact hits, patched near-hits and LP warm starts.
    Full,
}

/// Counters drained into each instance's planner record.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct CacheStats {
    /// Solves short-circuited by an exact (field-identical) hit.
    pub exact: usize,
    /// Solves short-circuited by rescaling a same-bucket placement.
    pub patched: usize,
    /// Solves warm-started from a cached optimal basis.
    pub warm: usize,
    /// Cold solves (no usable entry, or the warm attempt fell back).
    pub miss: usize,
    /// Total simplex pivots spent across the warm-started solves.
    pub warm_pivots: usize,
}

impl CacheStats {
    /// Returns the counters accumulated since the last call, resetting them.
    pub fn take(&mut self) -> CacheStats {
        std::mem::take(self)
    }
}

/// Structural fingerprint: two placement problems with equal template
/// signatures build LPs over the same constraint skeleton, so an optimal
/// basis for one is a plausible starting basis for the other.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct TemplateSig {
    /// 0 = map, 1 = reduce.
    kind: u8,
    /// Stage position in the job DAG.
    stage_index: usize,
    /// Number of sites (the LP's dimension). Slot *values* are
    /// coefficients, not structure — they live in the bucket, so a stage
    /// planned against partially-occupied slots still finds the entries
    /// its full-capacity siblings planted.
    sites: usize,
    /// Whether the LP carries the next-stage lookahead term. Presence is
    /// structural (it adds constraints and an objective variable); the
    /// ratio's *value* is numeric and lives in the bucket.
    lookahead: bool,
    /// Map: `dest_limit + 1` (0 when unrestricted). Reduce: `network_only`.
    flags: u64,
}

/// Numeric fingerprint: quantized continuous inputs. Same template + same
/// bucket means the drift is mild enough that rescaling the cached
/// fractional split is a sound plan.
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
pub struct BucketSig {
    /// Per-site share of the total data volume, in 1/32 steps.
    data: Vec<u8>,
    /// Map only: per-site share of the remaining tasks, in 1/32 steps.
    tasks: Vec<u8>,
    /// WAN budget over total volume in 1/16 steps; 255 = unbounded.
    wan: u8,
    /// Lookahead ratio in 1/64 steps; `u64::MAX` when absent.
    ratio_q: u64,
    /// Slot half-octaves per site (available capacity at planning time).
    slots: Vec<i16>,
    /// Total volume half-octave (`round(2 log2 gb)`).
    vol_oct: i16,
    /// Task-count half-octave.
    task_oct: i16,
    /// Task-length half-octave.
    secs_oct: i16,
    /// Uplink half-octaves per site.
    up: Vec<i16>,
    /// Downlink half-octaves per site.
    down: Vec<i16>,
}

/// Share of `total` in 1/32 steps.
fn q_share(v: f64, total: f64) -> u8 {
    if total <= 0.0 || !total.is_finite() {
        return 0;
    }
    (v / total * 32.0).round().clamp(0.0, 255.0) as u8
}

/// Half-octave quantization: `round(2 log2 v)`.
fn q_log2(v: f64) -> i16 {
    if v <= 0.0 || !v.is_finite() {
        return i16::MIN;
    }
    (v.log2() * 2.0).round().clamp(-32768.0, 32767.0) as i16
}

/// WAN budget over total volume in 1/16 steps; 255 when unbounded.
fn q_wan(budget: Option<f64>, total: f64) -> u8 {
    match budget {
        None => 255,
        Some(_) if total <= 0.0 => 0,
        Some(w) => (w / total * 16.0).round().clamp(0.0, 254.0) as u8,
    }
}

/// Lookahead ratio in 1/64 steps; `u64::MAX` when absent.
fn q_ratio(ratio: Option<f64>) -> u64 {
    match ratio {
        None => u64::MAX,
        Some(r) if r <= 0.0 || !r.is_finite() => 0,
        Some(r) => (r * 64.0).round().min(1e18) as u64,
    }
}

/// Fingerprints one map-stage placement problem.
pub fn map_sigs(stage_index: usize, p: &MapProblem) -> (TemplateSig, BucketSig) {
    let total: f64 = p.input_gb.iter().sum();
    let num_tasks: usize = p.tasks_from.iter().sum();
    let tsig = TemplateSig {
        kind: 0,
        stage_index,
        sites: p.slots.len(),
        lookahead: p.next_stage_ratio.is_some_and(|r| r > 0.0),
        flags: p.dest_limit.map_or(0, |k| k as u64 + 1),
    };
    let bsig = BucketSig {
        data: p.input_gb.iter().map(|&v| q_share(v, total)).collect(),
        tasks: p
            .tasks_from
            .iter()
            .map(|&t| q_share(t as f64, num_tasks as f64))
            .collect(),
        wan: q_wan(p.wan_budget_gb, total),
        ratio_q: q_ratio(p.next_stage_ratio),
        slots: p.slots.iter().map(|&s| q_log2(s as f64)).collect(),
        vol_oct: q_log2(total),
        task_oct: q_log2(num_tasks as f64),
        secs_oct: q_log2(p.task_secs),
        up: p.up_gbps.iter().map(|&v| q_log2(v)).collect(),
        down: p.down_gbps.iter().map(|&v| q_log2(v)).collect(),
    };
    (tsig, bsig)
}

/// Fingerprints one reduce-stage placement problem.
pub fn reduce_sigs(stage_index: usize, p: &ReduceProblem) -> (TemplateSig, BucketSig) {
    let total: f64 = p.shuffle_gb.iter().sum();
    let tsig = TemplateSig {
        kind: 1,
        stage_index,
        sites: p.slots.len(),
        lookahead: !p.network_only && p.next_stage_out_gb.is_some_and(|o| o > 0.0),
        flags: p.network_only as u64,
    };
    let bsig = BucketSig {
        data: p.shuffle_gb.iter().map(|&v| q_share(v, total)).collect(),
        tasks: Vec::new(),
        wan: q_wan(p.wan_budget_gb, total),
        // The lookahead volume scales with the shuffle volume, so the
        // *ratio* is the stable quantity to bucket.
        ratio_q: q_ratio(
            p.next_stage_out_gb
                .map(|o| if total > 0.0 { o / total } else { 0.0 }),
        ),
        slots: p.slots.iter().map(|&s| q_log2(s as f64)).collect(),
        vol_oct: q_log2(total),
        task_oct: q_log2(p.num_tasks as f64),
        secs_oct: q_log2(p.task_secs),
        up: p.up_gbps.iter().map(|&v| q_log2(v)).collect(),
        down: p.down_gbps.iter().map(|&v| q_log2(v)).collect(),
    };
    (tsig, bsig)
}

/// Solver metadata returned alongside a placement by the warm-capable
/// solve functions.
#[derive(Debug, Clone, Default)]
pub struct SolveMeta {
    /// Optimal basis for seeding a future warm start (`None` when the
    /// solve took a non-LP shortcut path).
    pub basis: Option<Basis>,
    /// Whether the solve actually ran from the supplied basis (a failed
    /// warm attempt silently falls back to a cold solve).
    pub warm_started: bool,
    /// Simplex pivots spent.
    pub pivots: usize,
}

enum Stored {
    Map {
        problem: MapProblem,
        placement: MapPlacement,
        basis: Basis,
    },
    Reduce {
        problem: ReduceProblem,
        placement: ReducePlacement,
        basis: Basis,
    },
}

struct Entry {
    stored: Stored,
    last_used: u64,
}

/// Outcome of a map-stage cache lookup.
pub enum MapLookup {
    /// Field-identical problem; placement returned verbatim.
    Exact(MapPlacement),
    /// Same bucket; cached split re-rounded and rescaled.
    Patched(MapPlacement),
    /// Same template; warm-start the LP from this basis.
    Warm(Basis),
    /// Nothing usable; solve cold.
    Miss,
}

/// Outcome of a reduce-stage cache lookup.
pub enum ReduceLookup {
    /// Field-identical problem; placement returned verbatim.
    Exact(ReducePlacement),
    /// Same bucket; cached split re-rounded and rescaled.
    Patched(ReducePlacement),
    /// Same template; warm-start the LP from this basis.
    Warm(Basis),
    /// Nothing usable; solve cold.
    Miss,
}

/// Bound on cached entries across all templates. 256 placements cover far
/// more concurrently-recurring stage shapes than any evaluated workload
/// while keeping the worst-case footprint a few MB.
const CAP: usize = 256;

/// The cross-instance template cache. Owned by the scheduler; survives
/// across scheduling instances and jobs (keys are job-independent so a
/// recurring query's next submission hits entries planted by the previous
/// one) and is cleared wholesale on cluster dynamics events.
pub struct TemplateCache {
    mode: PlanCacheMode,
    entries: BTreeMap<TemplateSig, BTreeMap<BucketSig, Entry>>,
    len: usize,
    tick: u64,
    /// Hit/miss counters; drained per scheduling instance.
    pub stats: CacheStats,
}

impl TemplateCache {
    /// Creates an empty cache operating in `mode`.
    pub fn new(mode: PlanCacheMode) -> Self {
        Self {
            mode,
            entries: BTreeMap::new(),
            len: 0,
            tick: 0,
            stats: CacheStats::default(),
        }
    }

    /// The configured mode.
    pub fn mode(&self) -> PlanCacheMode {
        self.mode
    }

    /// Number of cached placements.
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether the cache holds no entries.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Drops every entry (cluster dynamics invalidate all templates: the
    /// slot and bandwidth quantizations baked into every bucket no longer
    /// describe the cluster, and a stale basis would only waste a failed
    /// warm attempt).
    pub fn clear(&mut self) {
        self.entries.clear();
        self.len = 0;
    }

    /// Three-tier lookup for a map-stage problem.
    pub fn lookup_map(
        &mut self,
        tsig: &TemplateSig,
        bsig: &BucketSig,
        p: &MapProblem,
    ) -> MapLookup {
        if self.mode == PlanCacheMode::Off {
            return MapLookup::Miss;
        }
        self.tick += 1;
        let Some(buckets) = self.entries.get_mut(tsig) else {
            return MapLookup::Miss;
        };
        if let Some(e) = buckets.get_mut(bsig) {
            if let Stored::Map {
                problem, placement, ..
            } = &e.stored
            {
                if problem == p {
                    e.last_used = self.tick;
                    self.stats.exact += 1;
                    return MapLookup::Exact(placement.clone());
                }
                if self.mode == PlanCacheMode::Full {
                    if let Some(patched) = patch_map(problem, placement, p) {
                        e.last_used = self.tick;
                        self.stats.patched += 1;
                        return MapLookup::Patched(patched);
                    }
                }
            }
        }
        if self.mode == PlanCacheMode::Full {
            // Warm hint: the most recently used same-template entry.
            if let Some(basis) = buckets
                .values()
                .filter(|e| matches!(e.stored, Stored::Map { .. }))
                .max_by_key(|e| e.last_used)
                .map(|e| match &e.stored {
                    Stored::Map { basis, .. } | Stored::Reduce { basis, .. } => basis.clone(),
                })
            {
                return MapLookup::Warm(basis);
            }
        }
        MapLookup::Miss
    }

    /// Three-tier lookup for a reduce-stage problem.
    pub fn lookup_reduce(
        &mut self,
        tsig: &TemplateSig,
        bsig: &BucketSig,
        p: &ReduceProblem,
    ) -> ReduceLookup {
        if self.mode == PlanCacheMode::Off {
            return ReduceLookup::Miss;
        }
        self.tick += 1;
        let Some(buckets) = self.entries.get_mut(tsig) else {
            return ReduceLookup::Miss;
        };
        if let Some(e) = buckets.get_mut(bsig) {
            if let Stored::Reduce {
                problem, placement, ..
            } = &e.stored
            {
                if problem == p {
                    e.last_used = self.tick;
                    self.stats.exact += 1;
                    return ReduceLookup::Exact(placement.clone());
                }
                if self.mode == PlanCacheMode::Full {
                    if let Some(patched) = patch_reduce(problem, placement, p) {
                        e.last_used = self.tick;
                        self.stats.patched += 1;
                        return ReduceLookup::Patched(patched);
                    }
                }
            }
        }
        if self.mode == PlanCacheMode::Full {
            if let Some(basis) = buckets
                .values()
                .filter(|e| matches!(e.stored, Stored::Reduce { .. }))
                .max_by_key(|e| e.last_used)
                .map(|e| match &e.stored {
                    Stored::Map { basis, .. } | Stored::Reduce { basis, .. } => basis.clone(),
                })
            {
                return ReduceLookup::Warm(basis);
            }
        }
        ReduceLookup::Miss
    }

    /// Records a solved map placement under its fingerprint.
    pub fn insert_map(
        &mut self,
        tsig: TemplateSig,
        bsig: BucketSig,
        problem: MapProblem,
        placement: MapPlacement,
        basis: Basis,
    ) {
        self.insert(
            tsig,
            bsig,
            Stored::Map {
                problem,
                placement,
                basis,
            },
        );
    }

    /// Records a solved reduce placement under its fingerprint.
    pub fn insert_reduce(
        &mut self,
        tsig: TemplateSig,
        bsig: BucketSig,
        problem: ReduceProblem,
        placement: ReducePlacement,
        basis: Basis,
    ) {
        self.insert(
            tsig,
            bsig,
            Stored::Reduce {
                problem,
                placement,
                basis,
            },
        );
    }

    fn insert(&mut self, tsig: TemplateSig, bsig: BucketSig, stored: Stored) {
        if self.mode == PlanCacheMode::Off {
            return;
        }
        self.tick += 1;
        let entry = Entry {
            stored,
            last_used: self.tick,
        };
        let fresh = self
            .entries
            .entry(tsig)
            .or_default()
            .insert(bsig, entry)
            .is_none();
        if fresh {
            self.len += 1;
            if self.len > CAP {
                self.evict_lru();
            }
        }
    }

    /// Removes the least-recently-used entry. `BTreeMap` iteration order
    /// makes the victim deterministic when ticks tie (they cannot: ticks
    /// are unique), keeping runs reproducible.
    fn evict_lru(&mut self) {
        let victim = self
            .entries
            .iter()
            .flat_map(|(t, buckets)| {
                buckets
                    .iter()
                    .map(move |(b, e)| (e.last_used, t.clone(), b.clone()))
            })
            .min_by_key(|(used, _, _)| *used);
        if let Some((_, t, b)) = victim {
            if let Some(buckets) = self.entries.get_mut(&t) {
                buckets.remove(&b);
                if buckets.is_empty() {
                    self.entries.remove(&t);
                }
                self.len -= 1;
            }
        }
    }
}

/// Rescales a cached map placement onto drifted problem data: the
/// fractional split is kept, counts are re-rounded against the current
/// per-source task counts, and times are scaled by the volume / work
/// ratios. Returns `None` when the patch would overspend the current WAN
/// budget or the shapes disagree.
fn patch_map(cached_p: &MapProblem, cached: &MapPlacement, p: &MapProblem) -> Option<MapPlacement> {
    let n = p.input_gb.len();
    if cached.fractions.len() != n || p.forced_dest_gb.is_some() {
        return None;
    }
    let old_total: f64 = cached_p.input_gb.iter().sum();
    let new_total: f64 = p.input_gb.iter().sum();
    if old_total <= 0.0 || new_total <= 0.0 {
        return None;
    }
    let old_work = cached_p.tasks_from.iter().sum::<usize>() as f64 * cached_p.task_secs;
    let new_work = p.tasks_from.iter().sum::<usize>() as f64 * p.task_secs;
    if old_work <= 0.0 {
        return None;
    }
    let t_aggr = cached.times.transfer * new_total / old_total;
    let t_map = cached.times.compute * new_work / old_work;
    let patched = assemble_map(p, cached.fractions.clone(), t_aggr, t_map);
    if let Some(w) = p.wan_budget_gb {
        if patched.wan_gb > w + 1e-9 {
            return None;
        }
    }
    Some(patched)
}

/// Reduce-stage analog of [`patch_map`].
fn patch_reduce(
    cached_p: &ReduceProblem,
    cached: &ReducePlacement,
    p: &ReduceProblem,
) -> Option<ReducePlacement> {
    let n = p.shuffle_gb.len();
    if cached.fractions.len() != n {
        return None;
    }
    let old_total: f64 = cached_p.shuffle_gb.iter().sum();
    let new_total: f64 = p.shuffle_gb.iter().sum();
    if old_total <= 0.0 || new_total <= 0.0 {
        return None;
    }
    let old_work = cached_p.num_tasks as f64 * cached_p.task_secs;
    let new_work = p.num_tasks as f64 * p.task_secs;
    if old_work <= 0.0 {
        return None;
    }
    let fractions = cached.fractions.clone();
    let wan_gb: f64 = (0..n).map(|x| p.shuffle_gb[x] * (1.0 - fractions[x])).sum();
    if let Some(w) = p.wan_budget_gb {
        if wan_gb > w + 1e-9 {
            return None;
        }
    }
    let tasks_at = largest_remainder_round(&fractions, p.num_tasks);
    let slot_demand = (0..n).map(|x| p.slots[x].min(tasks_at[x])).collect();
    Some(ReducePlacement {
        times: crate::analytic::StageTimes {
            transfer: cached.times.transfer * new_total / old_total,
            compute: cached.times.compute * new_work / old_work,
        },
        fractions,
        tasks_at,
        slot_demand,
        wan_gb,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::map_placement::{solve_map_placement, solve_map_placement_warm, MapProblem};
    use crate::reduce_placement::{
        solve_reduce_placement, solve_reduce_placement_warm, ReduceProblem,
    };

    fn map_p(input: [f64; 3]) -> MapProblem {
        MapProblem {
            tasks_from: input.iter().map(|&g| (g * 10.0).round() as usize).collect(),
            input_gb: input.to_vec(),
            task_secs: 2.0,
            up_gbps: vec![5.0, 1.0, 2.0],
            down_gbps: vec![5.0, 1.0, 5.0],
            slots: vec![40, 10, 20],
            wan_budget_gb: None,
            forced_dest_gb: None,
            next_stage_ratio: None,
            dest_limit: None,
        }
    }

    fn reduce_p(shuffle: [f64; 3]) -> ReduceProblem {
        ReduceProblem {
            shuffle_gb: shuffle.to_vec(),
            num_tasks: 500,
            task_secs: 1.0,
            up_gbps: vec![5.0, 1.0, 2.0],
            down_gbps: vec![5.0, 1.0, 5.0],
            slots: vec![40, 10, 20],
            wan_budget_gb: None,
            network_only: false,
            next_stage_out_gb: None,
        }
    }

    fn solve_and_insert_map(cache: &mut TemplateCache, p: &MapProblem) -> MapPlacement {
        let (tsig, bsig) = map_sigs(0, p);
        let (pl, meta) = solve_map_placement_warm(p, None).unwrap();
        cache.insert_map(tsig, bsig, p.clone(), pl.clone(), meta.basis.unwrap());
        pl
    }

    #[test]
    fn exact_hit_returns_identical_placement() {
        let mut cache = TemplateCache::new(PlanCacheMode::Exact);
        let p = map_p([20.0, 30.0, 50.0]);
        let pl = solve_and_insert_map(&mut cache, &p);
        let (tsig, bsig) = map_sigs(0, &p);
        match cache.lookup_map(&tsig, &bsig, &p) {
            MapLookup::Exact(hit) => assert_eq!(hit, pl),
            _ => panic!("expected exact hit"),
        }
        assert_eq!(cache.stats.take().exact, 1);
    }

    #[test]
    fn exact_mode_never_patches_or_warms() {
        let mut cache = TemplateCache::new(PlanCacheMode::Exact);
        let p = map_p([20.0, 30.0, 50.0]);
        solve_and_insert_map(&mut cache, &p);
        // Mild drift: same bucket, different numbers.
        let drifted = map_p([20.2, 29.9, 50.1]);
        let (tsig, bsig) = map_sigs(0, &drifted);
        assert!(matches!(
            cache.lookup_map(&tsig, &bsig, &drifted),
            MapLookup::Miss
        ));
    }

    #[test]
    fn mild_drift_patches_in_full_mode() {
        let mut cache = TemplateCache::new(PlanCacheMode::Full);
        let p = map_p([20.0, 30.0, 50.0]);
        solve_and_insert_map(&mut cache, &p);
        let drifted = map_p([20.2, 29.9, 50.1]);
        let (tsig, bsig) = map_sigs(0, &drifted);
        let MapLookup::Patched(patched) = cache.lookup_map(&tsig, &bsig, &drifted) else {
            panic!("expected patched hit");
        };
        // Patched counts must respect the drifted per-source task totals.
        for (x, &from) in drifted.tasks_from.iter().enumerate() {
            assert_eq!(patched.counts[x].iter().sum::<usize>(), from);
        }
    }

    #[test]
    fn patch_rejected_when_wan_budget_would_overspend() {
        let mut cache = TemplateCache::new(PlanCacheMode::Full);
        // Cache under a generous budget, then shrink it so the cached
        // split's WAN bytes no longer fit; the patch tier must refuse and
        // degrade to a warm hint.
        let mut p = map_p([20.0, 30.0, 50.0]);
        p.wan_budget_gb = Some(100.0);
        let pl = solve_and_insert_map(&mut cache, &p);
        assert!(pl.wan_gb > 1.0, "fixture should want to move data");
        let mut tight = map_p([20.2, 29.9, 50.1]);
        tight.wan_budget_gb = Some(100.0);
        // Force the same bucket but an unaffordable budget is a different
        // bucket by construction (wan is quantized), so instead drift the
        // data while keeping the budget equal and verify the guard itself.
        let (tsig, bsig) = map_sigs(0, &tight);
        let looked = cache.lookup_map(&tsig, &bsig, &tight);
        let MapLookup::Patched(patched) = looked else {
            panic!("drifted lookup should patch");
        };
        assert!(patched.wan_gb <= 100.0 + 1e-9);
        // Now the direct guard: a budget below the cached split's usage.
        let cached = cache.entries.values().next().unwrap();
        let Stored::Map {
            problem, placement, ..
        } = &cached.values().next().unwrap().stored
        else {
            panic!("map entry expected")
        };
        let mut broke = tight.clone();
        broke.wan_budget_gb = Some(pl.wan_gb / 2.0);
        assert!(patch_map(problem, placement, &broke).is_none());
    }

    #[test]
    fn large_drift_falls_to_warm_tier_and_warm_solve_matches_cold() {
        let mut cache = TemplateCache::new(PlanCacheMode::Full);
        let p = map_p([20.0, 30.0, 50.0]);
        solve_and_insert_map(&mut cache, &p);
        // Octave-level drift: different bucket, same template.
        let far = map_p([50.0, 80.0, 120.0]);
        let (tsig, bsig) = map_sigs(0, &far);
        let MapLookup::Warm(basis) = cache.lookup_map(&tsig, &bsig, &far) else {
            panic!("expected warm hint");
        };
        let (warm, meta) = solve_map_placement_warm(&far, Some(&basis)).unwrap();
        let cold = solve_map_placement(&far).unwrap();
        assert!(meta.warm_started);
        assert_eq!(warm, cold, "warm-started solve must be bit-exact");
    }

    #[test]
    fn reduce_exact_and_warm_tiers() {
        let mut cache = TemplateCache::new(PlanCacheMode::Full);
        let p = reduce_p([10.0, 15.0, 25.0]);
        let (tsig, bsig) = reduce_sigs(1, &p);
        let (pl, meta) = solve_reduce_placement_warm(&p, None).unwrap();
        cache.insert_reduce(tsig, bsig, p.clone(), pl.clone(), meta.basis.unwrap());
        let (tsig, bsig) = reduce_sigs(1, &p);
        assert!(matches!(
            cache.lookup_reduce(&tsig, &bsig, &p),
            ReduceLookup::Exact(hit) if hit == pl
        ));
        let far = reduce_p([30.0, 40.0, 70.0]);
        let (tsig, bsig) = reduce_sigs(1, &far);
        let ReduceLookup::Warm(basis) = cache.lookup_reduce(&tsig, &bsig, &far) else {
            panic!("expected warm hint");
        };
        let (warm, meta) = solve_reduce_placement_warm(&far, Some(&basis)).unwrap();
        let cold = solve_reduce_placement(&far).unwrap();
        assert!(meta.warm_started);
        assert_eq!(warm, cold);
    }

    #[test]
    fn different_stage_index_is_a_different_template() {
        let mut cache = TemplateCache::new(PlanCacheMode::Full);
        let p = map_p([20.0, 30.0, 50.0]);
        solve_and_insert_map(&mut cache, &p);
        let (tsig, bsig) = map_sigs(3, &p);
        assert!(matches!(
            cache.lookup_map(&tsig, &bsig, &p),
            MapLookup::Miss
        ));
    }

    #[test]
    fn capacity_is_bounded_and_eviction_is_lru() {
        let mut cache = TemplateCache::new(PlanCacheMode::Full);
        let base = map_p([20.0, 30.0, 50.0]);
        let (pl, meta) = solve_map_placement_warm(&base, None).unwrap();
        let basis = meta.basis.unwrap();
        for i in 0..(CAP + 40) {
            // Distinct templates via the stage index.
            let (tsig, bsig) = map_sigs(i, &base);
            cache.insert_map(tsig, bsig, base.clone(), pl.clone(), basis.clone());
            assert!(cache.len() <= CAP);
        }
        assert_eq!(cache.len(), CAP);
        // The oldest entries (lowest stage indices) were evicted.
        let (tsig, bsig) = map_sigs(0, &base);
        assert!(matches!(
            cache.lookup_map(&tsig, &bsig, &base),
            MapLookup::Miss
        ));
        let (tsig, bsig) = map_sigs(CAP + 39, &base);
        assert!(matches!(
            cache.lookup_map(&tsig, &bsig, &base),
            MapLookup::Exact(_)
        ));
    }

    #[test]
    fn off_mode_stores_and_returns_nothing() {
        let mut cache = TemplateCache::new(PlanCacheMode::Off);
        let p = map_p([20.0, 30.0, 50.0]);
        solve_and_insert_map(&mut cache, &p);
        assert!(cache.is_empty());
        let (tsig, bsig) = map_sigs(0, &p);
        assert!(matches!(
            cache.lookup_map(&tsig, &bsig, &p),
            MapLookup::Miss
        ));
    }

    #[test]
    fn clear_empties_the_cache() {
        let mut cache = TemplateCache::new(PlanCacheMode::Full);
        let p = map_p([20.0, 30.0, 50.0]);
        solve_and_insert_map(&mut cache, &p);
        assert_eq!(cache.len(), 1);
        cache.clear();
        assert!(cache.is_empty());
        let (tsig, bsig) = map_sigs(0, &p);
        assert!(matches!(
            cache.lookup_map(&tsig, &bsig, &p),
            MapLookup::Miss
        ));
    }
}
