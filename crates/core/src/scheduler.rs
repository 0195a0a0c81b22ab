//! The Tetrium scheduler (§4): SRPT job ordering over LP task placement,
//! with the WAN-budget knob `ρ` (§4.3), the fairness knob `ε` (§4.4) and
//! limited re-assignment under resource dynamics (§4.2).
//!
//! At every scheduling instance the scheduler:
//!
//! 1. plans each unfinished job's runnable stages with the placement LPs of
//!    §3 (over the stage's *remaining* tasks and data), obtaining both a
//!    placement and the job's remaining processing time `T_j`;
//! 2. ranks jobs by `(G_j, T_j)` — remaining stage count first, LP-estimated
//!    remaining time as the tie-breaker (§4.1);
//! 3. orders each stage's tasks (§3.3) and emits per-task assignments whose
//!    priorities encode the job ranking, so the engine's per-site dispatch
//!    realizes SRPT across jobs;
//! 4. when `ε < 1`, reserves `(1-ε) · S* · f_i / Σf_i` slots per job in a
//!    priority band that outranks every regular assignment, interpolating
//!    between pure SRPT (`ε = 1`) and fair sharing (`ε = 0`).
//!
//! Like the prototype (§6.2, "Scheduling Overhead"), the scheduler bounds
//! LP work per instance: only the `lp_job_limit` highest-priority jobs are
//! planned with the optimizer; the rest receive a cheap site-local plan and
//! are re-planned when they rise in priority.

use crate::analytic::{evaluate_map_counts, evaluate_reduce_counts};
use crate::dynamics::limited_update;
use crate::map_placement::{solve_map_placement, MapPlacement, MapProblem};
use crate::ordering::{order_map_tasks, order_reduce_tasks, MapOrdering, ReduceOrdering};
use crate::plan_cache::{
    map_sigs, reduce_sigs, MapLookup, PlanCacheMode, ReduceLookup, TemplateCache,
};
use crate::reduce_placement::{solve_reduce_placement, ReducePlacement, ReduceProblem};
use crate::reverse::{plan_best, ReduceStageSpec};
use crate::wan::{reduce_min_wan, wan_budget, WanKnob};
use std::collections::{BTreeMap, HashMap, HashSet};
use tetrium_cluster::SiteId;
use tetrium_jobs::{largest_remainder_round, JobId, StageKind};
use tetrium_obs::{Obs, PlannerRecord};
use tetrium_sim::{
    JobSnapshot, Scheduler, Snapshot, StagePlan, StageSnapshot, TaskAssignment, TaskPhase,
};

/// Cross-job scheduling policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum JobPolicy {
    /// Shortest remaining processing time, ranked by `(G_j, T_j)` (§4.1).
    #[default]
    Srpt,
    /// Fair sharing across jobs (the `Tetrium+FS` ablation of Fig 8a).
    Fair,
}

/// Task-placement policy.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum PlacementPolicy {
    /// The compute+network LPs of §3 (Tetrium).
    #[default]
    TetriumLp,
    /// Iridium's placement: map tasks stay with their data, reduce tasks
    /// minimize shuffle time only (the `+I-task` ablation of Fig 8a).
    IridiumNet,
}

/// How map stages are planned relative to their downstream reduce stage.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StagePlanning {
    /// Stage-by-stage in DAG order (Tetrium's default, §3.4 "forward").
    #[default]
    Forward,
    /// Compute both forward and reverse plans, keep the better (§3.4/§6.3.1
    /// "mixed").
    BestOfForwardReverse,
}

/// Configuration of a [`TetriumScheduler`].
#[derive(Debug, Clone)]
pub struct TetriumConfig {
    /// WAN-usage knob `ρ ∈ [0, 1]` (§4.3); 1 disables budgeting.
    pub wan: WanKnob,
    /// Fairness knob `ε ∈ [0, 1]` (§4.4); 1 is pure SRPT, 0 is fair sharing.
    pub epsilon: f64,
    /// Cross-job policy.
    pub job_policy: JobPolicy,
    /// Placement policy.
    pub placement: PlacementPolicy,
    /// Map-stage task ordering (§3.3).
    pub map_ordering: MapOrdering,
    /// Reduce-stage task ordering (§3.3).
    pub reduce_ordering: ReduceOrdering,
    /// Stage planning direction (§3.4).
    pub planning: StagePlanning,
    /// Maximum sites whose assignment may change when capacities change
    /// (`k` of §4.2); `None` re-plans freely.
    pub dynamics_k: Option<usize>,
    /// Upper bound on jobs planned with the LP per scheduling instance.
    pub lp_job_limit: usize,
    /// Add the next-stage lookahead term to the placement LPs (avoids
    /// parking intermediate data behind thin uplinks; §3.4 discusses the
    /// forward planner's blind spot this mitigates). On by default; turn
    /// off to reproduce the strictly myopic stage-by-stage formulation.
    pub lookahead: bool,
    /// Template-keyed plan caching across scheduling instances (see
    /// [`crate::plan_cache`]). Off by default; `Exact` only short-circuits
    /// field-identical solves (placements are bit-identical to `Off`),
    /// `Full` adds rescaled near-hits.
    pub plan_cache: PlanCacheMode,
}

impl Default for TetriumConfig {
    fn default() -> Self {
        Self {
            wan: WanKnob::default(),
            epsilon: 1.0,
            job_policy: JobPolicy::default(),
            placement: PlacementPolicy::default(),
            map_ordering: MapOrdering::default(),
            reduce_ordering: ReduceOrdering::default(),
            planning: StagePlanning::default(),
            dynamics_k: None,
            lp_job_limit: 64,
            lookahead: true,
            plan_cache: PlanCacheMode::default(),
        }
    }
}

/// The Tetrium scheduler; see the module docs for the per-instance flow.
pub struct TetriumScheduler {
    cfg: TetriumConfig,
    name: String,
    prev_caps: Option<Vec<usize>>,
    prev_dest: BTreeMap<(JobId, usize), Vec<usize>>,
    /// Cached full-capacity stage plans: re-solving the LP at every slot
    /// release is wasted work when nothing material changed (the prototype
    /// batches scheduling instances for the same reason, §5). A cached plan
    /// is reused until slot capacities change or the stage's unlaunched set
    /// shrinks below half of what was planned.
    plan_cache: BTreeMap<(JobId, usize), CachedPlan>,
    /// Set once a capacity change has been observed; from then on the
    /// `dynamics_k` restriction applies to every re-assignment (updating a
    /// site manager costs coordination whether or not the capacities moved
    /// again this instant, §4.2).
    restricted: bool,
    instance: u64,
    /// Cross-instance template cache (see [`crate::plan_cache`]): solved
    /// placements keyed by structural + quantized-numeric fingerprints,
    /// independent of job identity so recurring submissions hit entries
    /// planted by their predecessors.
    tmpl: TemplateCache,
    /// Template-cache counters drained at the end of the last instance
    /// (kept for the observability record and test inspection).
    last_tmpl_stats: crate::plan_cache::CacheStats,
    /// Observability sink handed over by the engine; emits a per-instance
    /// planner breakdown (LP-planned vs cache-reused vs local-planned).
    obs: Obs,
}

struct CachedPlan {
    ordered: Vec<(usize, SiteId)>,
    dest_counts: Vec<usize>,
    est_total: f64,
    planned_unlaunched: usize,
    /// Whether this plan was computed against a drained slot pool (pass 2).
    contended: bool,
}

/// Result of planning one stage.
struct Outcome {
    dest_counts: Vec<usize>,
    /// `(task, site)` in launch order.
    ordered: Vec<(usize, SiteId)>,
    est_total: f64,
}

struct PlannedStage {
    stage_index: usize,
    ordered: Vec<(usize, SiteId)>,
    dest_counts: Vec<usize>,
}

struct PlannedJob {
    job_idx: usize,
    t_j: f64,
    stages: Vec<PlannedStage>,
}

impl TetriumScheduler {
    /// Creates a scheduler with the given configuration.
    pub fn new(cfg: TetriumConfig) -> Self {
        let name = match (cfg.job_policy, cfg.placement) {
            (JobPolicy::Srpt, PlacementPolicy::TetriumLp) => "tetrium".to_string(),
            (JobPolicy::Fair, PlacementPolicy::TetriumLp) => "tetrium+fs".to_string(),
            (JobPolicy::Srpt, PlacementPolicy::IridiumNet) => "tetrium+i-task".to_string(),
            (JobPolicy::Fair, PlacementPolicy::IridiumNet) => "tetrium+fs+i-task".to_string(),
        };
        Self {
            tmpl: TemplateCache::new(cfg.plan_cache),
            last_tmpl_stats: crate::plan_cache::CacheStats::default(),
            cfg,
            name,
            prev_caps: None,
            prev_dest: BTreeMap::new(),
            plan_cache: BTreeMap::new(),
            restricted: false,
            instance: 0,
            obs: Obs::disabled(),
        }
    }

    /// The default Tetrium configuration (ρ = 1, ε = 1, SRPT, forward).
    pub fn standard() -> Self {
        Self::new(TetriumConfig::default())
    }

    /// Plans one stage with the placement LPs. Falls back to the site-local
    /// plan on solver failure.
    #[allow(
        clippy::too_many_arguments,
        reason = "the stage, its snapshot and the per-call knobs, threaded from schedule()"
    )]
    fn plan_stage_lp(
        &mut self,
        snap: &Snapshot,
        job: &JobSnapshot,
        st: &StageSnapshot,
        caps_changed: bool,
        slots: &[usize],
        up: &[f64],
        down: &[f64],
    ) -> Outcome {
        let n = snap.sites.len();
        let unl: Vec<usize> = st
            .tasks
            .iter()
            .filter(|t| t.phase == TaskPhase::Unlaunched)
            .map(|t| t.index)
            .collect();
        if unl.is_empty() {
            return Outcome {
                dest_counts: vec![0; n],
                ordered: Vec::new(),
                est_total: 0.0,
            };
        }
        // Guard against fully drained sites: a single phantom slot keeps the
        // wave model finite while strongly steering work elsewhere.
        let slots: Vec<usize> = slots.iter().map(|&s| s.max(1)).collect();

        match st.kind {
            StageKind::Map => {
                let mut tasks_from = vec![0usize; n];
                let mut input_gb = vec![0.0f64; n];
                // Map tasks without a home site (e.g. snapshots of
                // generated or replayed work whose input is ephemeral) are
                // placeable anywhere at zero fetch cost: they are excluded
                // from the per-source LP accounting and assigned after the
                // homed tasks below.
                for &i in &unl {
                    let t = &st.tasks[i];
                    let Some(src) = t.input_site else { continue };
                    let x = src.index();
                    tasks_from[x] += 1;
                    input_gb[x] += t.input_gb;
                }
                let budget = (!self.cfg.wan.is_unbounded()).then(|| map_wan_left(self.cfg.wan, st));
                let problem = MapProblem {
                    input_gb: input_gb.clone(),
                    tasks_from: tasks_from.clone(),
                    task_secs: st.est_task_secs,
                    up_gbps: up.to_vec(),
                    down_gbps: down.to_vec(),
                    slots: slots.clone(),
                    wan_budget_gb: budget,
                    forced_dest_gb: None,
                    next_stage_ratio: (self.cfg.lookahead && has_consumer(job, st.stage_index))
                        .then(|| stage_ratio(job, st.stage_index)),
                    // Prune dominated destinations on large clusters so one
                    // placement decision stays near the paper's ~100 ms.
                    dest_limit: (n > 16).then_some(12),
                };
                let solved = match self.cfg.placement {
                    PlacementPolicy::IridiumNet => None, // Local placement below.
                    PlacementPolicy::TetriumLp => match self.cfg.planning {
                        // Only the forward planner goes through the template
                        // cache: reverse planning couples two LPs whose
                        // interaction the fingerprint does not capture.
                        StagePlanning::Forward => self.solve_map_cached(st.stage_index, &problem),
                        StagePlanning::BestOfForwardReverse => {
                            match reduce_successor(job, st.stage_index) {
                                Some(spec) => plan_best(&problem, &spec).ok().map(|p| p.map),
                                None => solve_map_placement(&problem).ok(),
                            }
                        }
                    },
                };
                let (mut counts, est) = match solved {
                    Some(p) => (p.counts, p.times.total()),
                    None => {
                        // Site-local placement (also Iridium's map policy).
                        let mut counts = vec![vec![0usize; n]; n];
                        for (x, &c) in tasks_from.iter().enumerate() {
                            counts[x][x] = c;
                        }
                        let est = evaluate_map_counts(
                            &vec![vec![0.0; n]; n],
                            &tasks_from,
                            st.est_task_secs,
                            up,
                            down,
                            &slots,
                            true,
                        )
                        .total();
                        (counts, est)
                    }
                };
                let mut dest: Vec<usize> =
                    (0..n).map(|y| (0..n).map(|x| counts[x][y]).sum()).collect();
                // Limited re-assignment under resource dynamics (§4.2); the
                // restriction persists once a drop has been observed.
                if caps_changed || self.restricted {
                    if let Some(k) = self.cfg.dynamics_k {
                        if let Some(prev) = self.prev_dest.get(&(job.id, st.stage_index)) {
                            let scaled = scale_counts(prev, unl.len());
                            let adjusted = limited_update(&scaled, &dest, k);
                            if adjusted != dest {
                                counts = redistribute_map(&tasks_from, &adjusted);
                                dest = adjusted;
                            }
                        }
                    }
                }
                // Pair concrete tasks with destinations, grouped by source.
                let mut by_src: Vec<Vec<usize>> = vec![Vec::new(); n];
                let mut homeless: Vec<usize> = Vec::new();
                for &i in &unl {
                    match st.tasks[i].input_site {
                        Some(src) => by_src[src.index()].push(i),
                        None => homeless.push(i),
                    }
                }
                let mut triples: Vec<(usize, SiteId, f64, SiteId)> = Vec::with_capacity(unl.len());
                let mut site_of: HashMap<usize, SiteId> = HashMap::with_capacity(unl.len());
                for x in 0..n {
                    let mut cursor = 0;
                    for y in 0..n {
                        for _ in 0..counts[x][y] {
                            if cursor >= by_src[x].len() {
                                break;
                            }
                            let t = by_src[x][cursor];
                            cursor += 1;
                            triples.push((t, SiteId(x), st.tasks[t].input_gb, SiteId(y)));
                            site_of.insert(t, SiteId(y));
                        }
                    }
                    // Any leftovers (counts mismatch) stay local.
                    for &t in &by_src[x][cursor..] {
                        triples.push((t, SiteId(x), st.tasks[t].input_gb, SiteId(x)));
                        site_of.insert(t, SiteId(x));
                    }
                }
                // Homeless tasks fetch nothing, so spread them over the
                // emptiest destinations (fewest assigned tasks per slot;
                // ties break on the lower site index — deterministic).
                for &t in &homeless {
                    let y = (0..n)
                        .min_by(|&a, &b| {
                            (dest[a] * slots[b])
                                .cmp(&(dest[b] * slots[a]))
                                .then(a.cmp(&b))
                        })
                        .expect("cluster has at least one site");
                    dest[y] += 1;
                    triples.push((t, SiteId(y), st.tasks[t].input_gb, SiteId(y)));
                    site_of.insert(t, SiteId(y));
                }
                let order = order_map_tasks(self.cfg.map_ordering, &triples, up);
                let ordered = order.into_iter().map(|t| (t, site_of[&t])).collect();
                Outcome {
                    dest_counts: dest,
                    ordered,
                    est_total: est,
                }
            }
            StageKind::Reduce => {
                let share_rem: f64 = unl.iter().map(|&i| st.tasks[i].share).sum();
                let shuffle_gb: Vec<f64> = st.input_gb.iter().map(|v| v * share_rem).collect();
                let total: f64 = shuffle_gb.iter().sum();
                // Floored at the minimum feasible volume for the remaining
                // tasks.
                let budget = (!self.cfg.wan.is_unbounded())
                    .then(|| reduce_wan_left(self.cfg.wan, st).max(reduce_min_wan(&shuffle_gb)));
                let problem = ReduceProblem {
                    shuffle_gb: shuffle_gb.clone(),
                    num_tasks: unl.len(),
                    task_secs: st.est_task_secs,
                    up_gbps: up.to_vec(),
                    down_gbps: down.to_vec(),
                    slots: slots.clone(),
                    wan_budget_gb: budget,
                    network_only: matches!(self.cfg.placement, PlacementPolicy::IridiumNet),
                    next_stage_out_gb: (self.cfg.lookahead && has_consumer(job, st.stage_index))
                        .then(|| total * stage_ratio(job, st.stage_index)),
                };
                let solved = if matches!(self.cfg.placement, PlacementPolicy::TetriumLp)
                    && matches!(self.cfg.planning, StagePlanning::Forward)
                {
                    self.solve_reduce_cached(st.stage_index, &problem)
                } else {
                    solve_reduce_placement(&problem).ok()
                };
                let (mut tasks_at, est) = match solved {
                    Some(p) => (p.tasks_at, p.times.total()),
                    None => {
                        // Data-proportional fallback.
                        let tasks_at = largest_remainder_round(&shuffle_gb, unl.len());
                        let frac: Vec<f64> = if total > 0.0 {
                            shuffle_gb.iter().map(|v| v / total).collect()
                        } else {
                            vec![0.0; n]
                        };
                        let est = evaluate_reduce_counts(
                            &shuffle_gb,
                            &frac,
                            &tasks_at,
                            st.est_task_secs,
                            up,
                            down,
                            &slots,
                            true,
                        )
                        .total();
                        (tasks_at, est)
                    }
                };
                if caps_changed || self.restricted {
                    if let Some(k) = self.cfg.dynamics_k {
                        if let Some(prev) = self.prev_dest.get(&(job.id, st.stage_index)) {
                            let scaled = scale_counts(prev, unl.len());
                            tasks_at = limited_update(&scaled, &tasks_at, k);
                        }
                    }
                }
                // Pair tasks (index order) with the expanded site list.
                let mut sites: Vec<SiteId> = Vec::with_capacity(unl.len());
                for (y, &c) in tasks_at.iter().enumerate() {
                    sites.extend(std::iter::repeat_n(SiteId(y), c));
                }
                while sites.len() < unl.len() {
                    sites.push(SiteId(0));
                }
                let mut site_of: HashMap<usize, SiteId> = HashMap::with_capacity(unl.len());
                let mut inputs: Vec<(usize, f64)> = Vec::with_capacity(unl.len());
                for (j, &i) in unl.iter().enumerate() {
                    site_of.insert(i, sites[j]);
                    inputs.push((i, st.tasks[i].input_gb));
                }
                let seed = self
                    .instance
                    .wrapping_mul(31)
                    .wrapping_add(job.id.index() as u64 * 7 + st.stage_index as u64);
                let order = order_reduce_tasks(self.cfg.reduce_ordering, &inputs, seed);
                let ordered = order.into_iter().map(|t| (t, site_of[&t])).collect();
                Outcome {
                    dest_counts: tasks_at,
                    ordered,
                    est_total: est,
                }
            }
        }
    }

    /// Template-cache-aware map solve: exact/patched hits skip the solver,
    /// misses solve cold. Every LP-solved placement is inserted for future
    /// instances.
    fn solve_map_cached(
        &mut self,
        stage_index: usize,
        problem: &MapProblem,
    ) -> Option<MapPlacement> {
        if self.tmpl.mode() == PlanCacheMode::Off {
            // Count the cold solve anyway: symmetric counters let the
            // latency benchmark select the same instances in every mode.
            self.tmpl.stats.miss += 1;
            return solve_map_placement(problem).ok();
        }
        let key = map_sigs(stage_index, problem);
        if let MapLookup::Exact(p) | MapLookup::Patched(p) = self.tmpl.lookup_map(&key, problem) {
            return Some(p);
        }
        let placement = solve_map_placement(problem).ok()?;
        self.tmpl.stats.miss += 1;
        if problem.needs_lp() {
            self.tmpl
                .insert_map(key, problem.clone(), placement.clone());
        }
        Some(placement)
    }

    /// Reduce-stage analog of [`TetriumScheduler::solve_map_cached`].
    fn solve_reduce_cached(
        &mut self,
        stage_index: usize,
        problem: &ReduceProblem,
    ) -> Option<ReducePlacement> {
        if self.tmpl.mode() == PlanCacheMode::Off {
            self.tmpl.stats.miss += 1;
            return solve_reduce_placement(problem).ok();
        }
        let key = reduce_sigs(stage_index, problem);
        if let ReduceLookup::Exact(p) | ReduceLookup::Patched(p) =
            self.tmpl.lookup_reduce(&key, problem)
        {
            return Some(p);
        }
        let placement = solve_reduce_placement(problem).ok()?;
        self.tmpl.stats.miss += 1;
        if problem.needs_lp() {
            self.tmpl
                .insert_reduce(key, problem.clone(), placement.clone());
        }
        Some(placement)
    }

    /// Whether a cached full-capacity stage plan still fits the stage's
    /// remaining WAN budget. Between the instance that produced the plan and
    /// this one, launched tasks may have consumed budget the plan assumed
    /// was still available — replaying it then overspends `ρ`. Compares the
    /// plan's still-unlaunched cross-site bytes plus everything already
    /// moved against the whole-stage budget (floored, for reduce stages, at
    /// the minimum feasible shuffle volume exactly like fresh planning).
    fn cached_plan_fits_wan(&self, st: &StageSnapshot, c: &CachedPlan) -> bool {
        if self.cfg.wan.is_unbounded() {
            return true;
        }
        const EPS: f64 = 1e-9;
        match st.kind {
            StageKind::Map => {
                let pending_remote: f64 = c
                    .ordered
                    .iter()
                    .filter_map(|&(i, site)| st.tasks.get(i).map(|t| (t, site)))
                    .filter(|(t, site)| {
                        t.phase == TaskPhase::Unlaunched && t.input_site != Some(*site)
                    })
                    .map(|(t, _)| t.input_gb)
                    .sum();
                pending_remote <= map_wan_left(self.cfg.wan, st) + EPS
            }
            StageKind::Reduce => {
                let full_total: f64 = st.input_gb.iter().sum();
                let share_rem: f64 = st
                    .tasks
                    .iter()
                    .filter(|t| t.phase == TaskPhase::Unlaunched)
                    .map(|t| t.share)
                    .sum();
                let shuffle_rem: Vec<f64> = st.input_gb.iter().map(|v| v * share_rem).collect();
                let pending: f64 = c
                    .ordered
                    .iter()
                    .filter_map(|&(i, site)| st.tasks.get(i).map(|t| (t, site)))
                    .filter(|(t, _)| t.phase == TaskPhase::Unlaunched)
                    .map(|(t, site)| t.share * (full_total - st.input_gb[site.index()]))
                    .sum();
                pending <= reduce_wan_left(self.cfg.wan, st).max(reduce_min_wan(&shuffle_rem)) + EPS
            }
        }
    }

    /// Number of cached full-capacity stage plans (test hook for the
    /// memory-bound regression).
    #[doc(hidden)]
    pub fn stage_plan_cache_len(&self) -> usize {
        self.plan_cache.len()
    }

    /// Number of template-cache entries (test hook).
    #[doc(hidden)]
    pub fn template_cache_len(&self) -> usize {
        self.tmpl.len()
    }

    /// Template-cache counters of the last scheduling instance (test hook).
    #[doc(hidden)]
    pub fn last_template_stats(&self) -> crate::plan_cache::CacheStats {
        self.last_tmpl_stats
    }
}

/// What remains of a map stage's WAN budget (`W_min = 0`, §4.3). The
/// budget covers the whole stage, so input bytes that launched tasks moved
/// off their home site are charged against it; otherwise every re-planning
/// instance would grant a fresh ρ-fraction of the remaining data and the
/// stage would overspend. Floored at zero.
fn map_wan_left(knob: WanKnob, st: &StageSnapshot) -> f64 {
    let full_total: f64 = st.tasks.iter().map(|t| t.input_gb).sum();
    let moved: f64 = st
        .tasks
        .iter()
        .filter(|t| {
            t.phase != TaskPhase::Unlaunched
                && t.running_site.is_some()
                && t.running_site != t.input_site
        })
        .map(|t| t.input_gb)
        .sum();
    (wan_budget(knob, 0.0, full_total) - moved).max(0.0)
}

/// What remains of a reduce stage's whole-stage WAN budget once the bytes
/// launched tasks already shuffled are charged (see [`map_wan_left`]).
/// Unfloored: callers floor it at the minimum feasible volume of the tasks
/// they place.
fn reduce_wan_left(knob: WanKnob, st: &StageSnapshot) -> f64 {
    let full_total: f64 = st.input_gb.iter().sum();
    let full_min = reduce_min_wan(&st.input_gb);
    let moved: f64 = st
        .tasks
        .iter()
        .filter(|t| t.phase != TaskPhase::Unlaunched)
        .filter_map(|t| {
            t.running_site
                .map(|site| t.share * (full_total - st.input_gb[site.index()]))
        })
        .sum();
    wan_budget(knob, full_min, full_total) - moved
}

/// Cheap site-local plan for jobs past the LP budget: map tasks stay home,
/// reduce tasks follow the data.
fn plan_stage_local(st: &StageSnapshot, n: usize) -> Outcome {
    let unl: Vec<usize> = st
        .tasks
        .iter()
        .filter(|t| t.phase == TaskPhase::Unlaunched)
        .map(|t| t.index)
        .collect();
    match st.kind {
        StageKind::Map => {
            // Homed tasks stay local; homeless ones (no input site, nothing
            // to fetch) go to the least-loaded site so far, ties on index.
            let mut dest = vec![0usize; n];
            let mut ordered: Vec<(usize, SiteId)> = Vec::with_capacity(unl.len());
            for &i in &unl {
                let site = st.tasks[i].input_site.unwrap_or_else(|| {
                    let y = (0..n)
                        .min_by_key(|&y| (dest[y], y))
                        .expect("cluster has at least one site");
                    SiteId(y)
                });
                dest[site.index()] += 1;
                ordered.push((i, site));
            }
            Outcome {
                dest_counts: dest,
                ordered,
                est_total: f64::MAX / 4.0,
            }
        }
        StageKind::Reduce => {
            let tasks_at = largest_remainder_round(&st.input_gb, unl.len());
            let mut sites: Vec<SiteId> = Vec::with_capacity(unl.len());
            for (y, &c) in tasks_at.iter().enumerate() {
                sites.extend(std::iter::repeat_n(SiteId(y), c));
            }
            while sites.len() < unl.len() {
                sites.push(SiteId(0));
            }
            let ordered: Vec<(usize, SiteId)> = unl
                .iter()
                .enumerate()
                .map(|(j, &i)| (i, sites[j]))
                .collect();
            Outcome {
                dest_counts: tasks_at,
                ordered,
                est_total: f64::MAX / 4.0,
            }
        }
    }
}

/// Whether any unfinished stage consumes `stage_index`'s output.
fn has_consumer(job: &JobSnapshot, stage_index: usize) -> bool {
    job.stages
        .iter()
        .any(|m| !m.done && m.deps.contains(&stage_index))
}

/// Output/input ratio of the given stage.
///
/// Every caller passes an index taken from the same snapshot, so an
/// out-of-range index is a scheduler bug, not a data condition: debug and
/// audit-enabled builds fail loudly instead of silently disabling
/// lookahead. Release builds degrade to 0.0 (ratio unknown → no
/// lookahead), which is safe but conservative.
fn stage_ratio(job: &JobSnapshot, stage_index: usize) -> f64 {
    match job.stages.get(stage_index) {
        Some(m) => m.output_ratio,
        None => {
            debug_assert!(
                false,
                "stage_ratio: stage index {stage_index} out of range ({} stages)",
                job.stages.len()
            );
            assert!(
                !tetrium_sim::audit_enabled(),
                "stage_ratio: stage index {stage_index} out of range ({} stages)",
                job.stages.len()
            );
            0.0
        }
    }
}

/// Finds the reduce stage fed (solely) by map stage `stage_index`, for
/// reverse planning.
fn reduce_successor(job: &JobSnapshot, stage_index: usize) -> Option<ReduceStageSpec> {
    let ratio = job.stages.get(stage_index)?.output_ratio;
    job.stages
        .iter()
        .find(|m| m.kind == StageKind::Reduce && !m.done && m.deps == [stage_index])
        .map(|m| ReduceStageSpec {
            num_tasks: m.num_tasks,
            task_secs: m.task_secs,
            map_output_ratio: ratio,
        })
}

/// Rescales a previous per-site count vector to a new total.
fn scale_counts(prev: &[usize], total: usize) -> Vec<usize> {
    let fracs: Vec<f64> = prev.iter().map(|&c| c as f64).collect();
    largest_remainder_round(&fracs, total)
}

/// Rebuilds a source→destination count matrix matching per-site destination
/// totals, preferring local pairs first.
fn redistribute_map(tasks_from: &[usize], dest: &[usize]) -> Vec<Vec<usize>> {
    let n = tasks_from.len();
    let mut counts = vec![vec![0usize; n]; n];
    let mut src_rem = tasks_from.to_vec();
    let mut dst_rem = dest.to_vec();
    for x in 0..n {
        let l = src_rem[x].min(dst_rem[x]);
        counts[x][x] = l;
        src_rem[x] -= l;
        dst_rem[x] -= l;
    }
    let mut y = 0;
    for x in 0..n {
        while src_rem[x] > 0 {
            while y < n && dst_rem[y] == 0 {
                y += 1;
            }
            if y >= n {
                break;
            }
            let m = src_rem[x].min(dst_rem[y]);
            counts[x][y] += m;
            src_rem[x] -= m;
            dst_rem[y] -= m;
        }
    }
    // If destination totals fell short, leftover tasks stay local.
    for x in 0..n {
        counts[x][x] += src_rem[x];
    }
    counts
}

impl Scheduler for TetriumScheduler {
    fn name(&self) -> &str {
        &self.name
    }

    fn attach_obs(&mut self, obs: Obs) {
        self.obs = obs;
    }

    fn schedule(&mut self, snap: &Snapshot) -> Vec<StagePlan> {
        self.instance += 1;
        // Per-instance planner breakdown for the observability record.
        let (mut lp_planned, mut cache_reused, mut local_planned) = (0usize, 0usize, 0usize);
        // Per-site capacity vectors, computed once per instance and shared by
        // every stage planned below.
        let up = snap.up_vec();
        let down = snap.down_vec();
        // Resource-dynamics detection (§4.2) keys off slot-capacity changes:
        // available bandwidth fluctuates with every in-flight transfer, so
        // comparing it would re-trigger limited updates at every instance.
        let caps: Vec<usize> = snap.sites.iter().map(|s| s.slots).collect();
        let caps_changed = self.prev_caps.as_ref().is_some_and(|p| *p != caps);
        if caps_changed {
            self.restricted = true;
            // Cluster dynamics invalidate every template: the slot
            // quantizations embedded in the fingerprints no longer describe
            // the cluster.
            self.tmpl.clear();
        }

        // Cheap pre-ranking bounds LP work to the likely winners.
        let mut order: Vec<usize> = (0..snap.jobs.len()).collect();
        order.sort_by(|&a, &b| {
            let (ja, jb) = (&snap.jobs[a], &snap.jobs[b]);
            ja.remaining_stages
                .cmp(&jb.remaining_stages)
                .then(ja.arrival.total_cmp(&jb.arrival))
                .then(ja.id.cmp(&jb.id))
        });

        // Pass 1: plan every job against the full current capacity to obtain
        // its remaining-time estimate T_j (the SRPT key of §4.1).
        let full_slots = snap.slots_vec();
        let mut lp_eligible = vec![false; snap.jobs.len()];
        let mut planned: Vec<PlannedJob> = Vec::with_capacity(order.len());
        for (pos, &ji) in order.iter().enumerate() {
            let job = &snap.jobs[ji];
            let use_lp = pos < self.cfg.lp_job_limit;
            lp_eligible[ji] = use_lp;
            let mut t_j = 0.0f64;
            let mut stages = Vec::new();
            for st in &job.runnable {
                let key = (job.id, st.stage_index);
                let unl = st.unlaunched_count();
                let cached = (!caps_changed)
                    .then(|| self.plan_cache.get(&key))
                    .flatten()
                    .filter(|c| unl > 0 && unl * 2 >= c.planned_unlaunched)
                    // A plan computed when the stage's WAN budget was still
                    // intact can overspend `ρ` once intervening instances
                    // have moved data; re-plan instead of replaying it.
                    .filter(|c| self.cached_plan_fits_wan(st, c));
                let (ordered, dest_counts, est) = match cached {
                    Some(c) => {
                        cache_reused += 1;
                        (c.ordered.clone(), c.dest_counts.clone(), c.est_total)
                    }
                    None => {
                        let outcome = if use_lp {
                            lp_planned += 1;
                            self.plan_stage_lp(snap, job, st, caps_changed, &full_slots, &up, &down)
                        } else {
                            local_planned += 1;
                            plan_stage_local(st, snap.sites.len())
                        };
                        self.plan_cache.insert(
                            key,
                            CachedPlan {
                                ordered: outcome.ordered.clone(),
                                dest_counts: outcome.dest_counts.clone(),
                                est_total: outcome.est_total,
                                planned_unlaunched: unl,
                                contended: false,
                            },
                        );
                        (outcome.ordered, outcome.dest_counts, outcome.est_total)
                    }
                };
                t_j = t_j.max(est);
                stages.push(PlannedStage {
                    stage_index: st.stage_index,
                    ordered,
                    dest_counts,
                });
            }
            planned.push(PlannedJob {
                job_idx: ji,
                t_j,
                stages,
            });
        }

        // Final ranking.
        match self.cfg.job_policy {
            JobPolicy::Srpt => planned.sort_by(|a, b| {
                let (ja, jb) = (&snap.jobs[a.job_idx], &snap.jobs[b.job_idx]);
                ja.remaining_stages
                    .cmp(&jb.remaining_stages)
                    .then(a.t_j.total_cmp(&b.t_j))
                    .then(ja.arrival.total_cmp(&jb.arrival))
                    .then(ja.id.cmp(&jb.id))
            }),
            JobPolicy::Fair => planned.sort_by(|a, b| {
                let (ja, jb) = (&snap.jobs[a.job_idx], &snap.jobs[b.job_idx]);
                ja.arrival.total_cmp(&jb.arrival).then(ja.id.cmp(&jb.id))
            }),
        }

        // Pass 2: allocate slots to jobs in rank order (§4.1: "allocate
        // slots D_k to job k ... until there is no remaining slot"). Each
        // job's slot demand is D_x = min(available_x, tasks there) — its
        // current wave, not its whole queue. The top-ranked job keeps its
        // full-capacity plan; once the free pool is partly drained, later
        // jobs re-plan against what is left, and once it is empty they fall
        // back to site-local plans (they cannot launch now anyway, and will
        // be re-planned when slots free up) — this prevents queued jobs from
        // speculatively scattering data across the WAN.
        let mut avail: Vec<usize> = snap.sites.iter().map(|s| s.free_slots).collect();
        let full_free = avail.clone();
        for (rank, p) in planned.iter_mut().enumerate() {
            let job = &snap.jobs[p.job_idx];
            let drained = avail != full_free;
            let empty = avail.iter().all(|&a| a == 0);
            if rank > 0 && drained && lp_eligible[p.job_idx] {
                // Re-plan against the drained pool at most once per cache
                // generation: a still-valid contended plan is reused, which
                // bounds LP work per stage instead of re-solving at every
                // scheduling instance while the job queues.
                let needs_replan = job.runnable.iter().any(|st| {
                    self.plan_cache
                        .get(&(job.id, st.stage_index))
                        .is_none_or(|c| !c.contended)
                });
                if needs_replan {
                    let mut stages = Vec::with_capacity(p.stages.len());
                    for st in &job.runnable {
                        let outcome = if empty {
                            local_planned += 1;
                            plan_stage_local(st, snap.sites.len())
                        } else {
                            lp_planned += 1;
                            self.plan_stage_lp(snap, job, st, caps_changed, &avail, &up, &down)
                        };
                        self.plan_cache.insert(
                            (job.id, st.stage_index),
                            CachedPlan {
                                ordered: outcome.ordered.clone(),
                                dest_counts: outcome.dest_counts.clone(),
                                est_total: outcome.est_total,
                                planned_unlaunched: st.unlaunched_count(),
                                contended: true,
                            },
                        );
                        stages.push(PlannedStage {
                            stage_index: st.stage_index,
                            ordered: outcome.ordered,
                            dest_counts: outcome.dest_counts,
                        });
                    }
                    p.stages = stages;
                }
            }
            for ps in &p.stages {
                self.prev_dest
                    .insert((job.id, ps.stage_index), ps.dest_counts.clone());
                for (x, &d) in ps.dest_counts.iter().enumerate() {
                    avail[x] = avail[x].saturating_sub(d.min(avail[x]));
                }
            }
        }

        // Fairness reservations (§4.4): the first `reserved[i]` tasks of each
        // job land in a band that outranks all regular assignments.
        let eps = self.cfg.epsilon.clamp(0.0, 1.0);
        let s_free = snap.total_free_slots();
        let f: Vec<usize> = planned
            .iter()
            .map(|p| snap.jobs[p.job_idx].remaining_runnable_tasks())
            .collect();
        let f_total: usize = f.iter().sum();
        let reserved: Vec<usize> = match self.cfg.job_policy {
            // Fair sharing dispatches everything round-robin.
            JobPolicy::Fair => f.clone(),
            JobPolicy::Srpt if eps < 1.0 && f_total > 0 => f
                .iter()
                .map(|&fi| {
                    ((1.0 - eps) * s_free as f64 * fi as f64 / f_total as f64).floor() as usize
                })
                .collect(),
            JobPolicy::Srpt => vec![0; planned.len()],
        };

        const STRIDE: i64 = 1 << 32;
        let njobs = planned.len().max(1) as i64;
        let mut plans = Vec::new();
        for (rank, p) in planned.iter().enumerate() {
            let job_id = snap.jobs[p.job_idx].id;
            let mut remaining_reserved = reserved[rank];
            let mut res_pos: i64 = 0;
            let mut reg_pos: i64 = 0;
            for ps in &p.stages {
                let mut assignments = Vec::with_capacity(ps.ordered.len());
                for &(task, site) in &ps.ordered {
                    let priority = if remaining_reserved > 0 {
                        remaining_reserved -= 1;
                        let pr = res_pos * njobs + rank as i64;
                        res_pos += 1;
                        pr
                    } else {
                        let pr = (rank as i64 + 1) * STRIDE + reg_pos;
                        reg_pos += 1;
                        pr
                    };
                    assignments.push(TaskAssignment {
                        task,
                        site,
                        priority,
                    });
                }
                plans.push(StagePlan {
                    job: job_id,
                    stage: ps.stage_index,
                    assignments,
                });
            }
        }
        self.prev_caps = Some(caps);
        // Eager eviction at instance end: a stage plan is only ever looked
        // up for stages that are runnable in the current snapshot, so
        // anything else — finished stages of live jobs as much as whole
        // finished jobs — is dead weight. Evicting here (rather than lazily
        // on lookup) keeps both maps bounded by the number of concurrently
        // runnable stages across a long recurring workload.
        let runnable: HashSet<(JobId, usize)> = snap
            .jobs
            .iter()
            .flat_map(|j| j.runnable.iter().map(move |st| (j.id, st.stage_index)))
            .collect();
        self.plan_cache.retain(|k, _| runnable.contains(k));
        self.prev_dest.retain(|k, _| runnable.contains(k));
        let tmpl = self.tmpl.stats.take();
        self.last_tmpl_stats = tmpl;
        self.obs.planner_record(PlannerRecord {
            at: snap.now,
            lp_planned,
            cache_reused,
            local_planned,
            tmpl_exact: tmpl.exact,
            tmpl_patched: tmpl.patched,
            tmpl_warm: tmpl.warm,
            tmpl_miss: tmpl.miss,
            warm_pivots: 0,
        });
        plans
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrium_sim::{SiteState, StageMeta, TaskSnapshot};

    fn sites3() -> Vec<SiteState> {
        vec![
            SiteState {
                slots: 40,
                free_slots: 40,
                up_gbps: 5.0,
                down_gbps: 5.0,
            },
            SiteState {
                slots: 10,
                free_slots: 10,
                up_gbps: 1.0,
                down_gbps: 1.0,
            },
            SiteState {
                slots: 20,
                free_slots: 20,
                up_gbps: 2.0,
                down_gbps: 5.0,
            },
        ]
    }

    fn map_task(i: usize, site: usize, gb: f64) -> TaskSnapshot {
        TaskSnapshot {
            index: i,
            phase: TaskPhase::Unlaunched,
            input_site: Some(SiteId(site)),
            input_gb: gb,
            share: 0.0,
            running_site: None,
        }
    }

    fn reduce_task(i: usize, share: f64, gb: f64) -> TaskSnapshot {
        TaskSnapshot {
            index: i,
            phase: TaskPhase::Unlaunched,
            input_site: None,
            input_gb: gb,
            share,
            running_site: None,
        }
    }

    /// A single-stage map job over the Fig 4 input, with the given number of
    /// tasks homed at each site.
    fn map_job(id: usize, tasks_per_site: [usize; 3]) -> JobSnapshot {
        let mut tasks = Vec::new();
        let gb = [20.0, 30.0, 50.0];
        let mut idx = 0;
        for (s, &c) in tasks_per_site.iter().enumerate() {
            for _ in 0..c {
                tasks.push(map_task(idx, s, gb[s] / c as f64));
                idx += 1;
            }
        }
        let n = tasks.len();
        JobSnapshot {
            id: JobId(id),
            arrival: 0.0,
            total_stages: 1,
            remaining_stages: 1,
            stages: vec![StageMeta {
                kind: StageKind::Map,
                deps: vec![],
                num_tasks: n,
                task_secs: 2.0,
                output_ratio: 0.5,
                done: false,
            }],
            runnable: vec![StageSnapshot {
                stage_index: 0,
                kind: StageKind::Map,
                est_task_secs: 2.0,
                num_tasks: n,
                input_gb: vec![20.0, 30.0, 50.0],
                tasks,
            }],
        }
    }

    fn snap(jobs: Vec<JobSnapshot>) -> Snapshot {
        Snapshot {
            now: 0.0,
            sites: sites3(),
            jobs,
        }
    }

    #[test]
    fn assigns_every_unlaunched_task() {
        let mut sched = TetriumScheduler::standard();
        let s = snap(vec![map_job(0, [20, 30, 50])]);
        let plans = sched.schedule(&s);
        assert_eq!(plans.len(), 1);
        assert_eq!(plans[0].assignments.len(), 100);
        let mut seen: Vec<usize> = plans[0].assignments.iter().map(|a| a.task).collect();
        seen.sort_unstable();
        assert_eq!(seen, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn homeless_map_tasks_are_placed_not_panicked_on() {
        // Regression: snapshots with map tasks lacking a home site (e.g.
        // generated work with ephemeral input) used to hit an `unwrap` in
        // the source-grouping pass. They must instead be placeable
        // anywhere, deterministically, alongside normally homed tasks.
        let mut sched = TetriumScheduler::standard();
        let mut job = map_job(0, [4, 3, 3]);
        for t in &mut job.runnable[0].tasks {
            if t.index >= 6 {
                t.input_site = None;
                t.input_gb = 0.0;
            }
        }
        let plans = sched.schedule(&snap(vec![job]));
        assert_eq!(plans.len(), 1);
        let mut seen: Vec<usize> = plans[0].assignments.iter().map(|a| a.task).collect();
        seen.sort_unstable();
        assert_eq!(
            seen,
            (0..10).collect::<Vec<_>>(),
            "every task assigned once"
        );
        for a in &plans[0].assignments {
            assert!(a.site.index() < 3);
        }
        // Determinism: the same snapshot schedules identically.
        let mut job2 = map_job(0, [4, 3, 3]);
        for t in &mut job2.runnable[0].tasks {
            if t.index >= 6 {
                t.input_site = None;
                t.input_gb = 0.0;
            }
        }
        let plans2 = TetriumScheduler::standard().schedule(&snap(vec![job2]));
        let key = |p: &Vec<StagePlan>| {
            let mut v: Vec<(usize, usize)> = p[0]
                .assignments
                .iter()
                .map(|a| (a.task, a.site.index()))
                .collect();
            v.sort_unstable();
            v
        };
        assert_eq!(key(&plans), key(&plans2));
    }

    #[test]
    fn all_homeless_stage_spreads_over_sites() {
        let mut sched = TetriumScheduler::standard();
        let mut job = map_job(0, [10, 0, 0]);
        for t in &mut job.runnable[0].tasks {
            t.input_site = None;
            t.input_gb = 0.0;
        }
        job.runnable[0].input_gb = vec![0.0, 0.0, 0.0];
        let plans = sched.schedule(&snap(vec![job]));
        assert_eq!(plans[0].assignments.len(), 10);
    }

    #[test]
    fn stage_ratio_reads_known_stage() {
        let job = map_job(0, [1, 1, 1]);
        assert_eq!(stage_ratio(&job, 0), 0.5);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "stage_ratio: stage index 7 out of range")]
    fn stage_ratio_out_of_range_fails_loudly_in_debug() {
        let job = map_job(0, [1, 1, 1]);
        let _ = stage_ratio(&job, 7);
    }

    #[test]
    fn moves_work_toward_powerful_site() {
        let mut sched = TetriumScheduler::standard();
        // The full Fig 4 instance (1000 tasks of 100 MB): compute dominates,
        // so the LP shifts work to site 0 as in the paper's better approach.
        let s = snap(vec![map_job(0, [200, 300, 500])]);
        let plans = sched.schedule(&s);
        let at = |site: usize| {
            plans[0]
                .assignments
                .iter()
                .filter(|a| a.site == SiteId(site))
                .count()
        };
        // Paper's plan runs ~571 tasks at site 0 and ~143 at site 1.
        assert!(at(0) > 450, "site0 got {}", at(0));
        assert!(at(1) < 250, "site1 got {}", at(1));
    }

    #[test]
    fn rho_zero_keeps_map_tasks_local() {
        let cfg = TetriumConfig {
            wan: WanKnob::new(0.0).unwrap(),
            ..TetriumConfig::default()
        };
        let mut sched = TetriumScheduler::new(cfg);
        let s = snap(vec![map_job(0, [20, 30, 50])]);
        let plans = sched.schedule(&s);
        for a in &plans[0].assignments {
            let home = s.jobs[0].runnable[0].tasks[a.task].input_site.unwrap();
            assert_eq!(a.site, home, "task {} moved despite rho=0", a.task);
        }
    }

    #[test]
    fn srpt_ranks_small_job_first() {
        let mut sched = TetriumScheduler::standard();
        // Job 1 is much smaller than job 0.
        let s = snap(vec![map_job(0, [20, 30, 50]), map_job(1, [2, 3, 5])]);
        let plans = sched.schedule(&s);
        let min_pri = |job: usize| {
            plans
                .iter()
                .filter(|p| p.job == JobId(job))
                .flat_map(|p| p.assignments.iter().map(|a| a.priority))
                .min()
                .unwrap()
        };
        assert!(
            min_pri(1) < min_pri(0),
            "small job must outrank the large one"
        );
    }

    #[test]
    fn epsilon_zero_reserves_for_both_jobs() {
        let cfg = TetriumConfig {
            epsilon: 0.0,
            ..TetriumConfig::default()
        };
        let mut sched = TetriumScheduler::new(cfg);
        let s = snap(vec![map_job(0, [20, 30, 50]), map_job(1, [2, 3, 5])]);
        let plans = sched.schedule(&s);
        // Both jobs must own assignments in the reserved band (< 2^32).
        for job in 0..2 {
            let reserved = plans
                .iter()
                .filter(|p| p.job == JobId(job))
                .flat_map(|p| p.assignments.iter())
                .filter(|a| a.priority < (1 << 32))
                .count();
            assert!(reserved > 0, "job {job} got no reserved slots");
        }
    }

    #[test]
    fn iridium_placement_keeps_maps_local() {
        let cfg = TetriumConfig {
            placement: PlacementPolicy::IridiumNet,
            ..TetriumConfig::default()
        };
        let mut sched = TetriumScheduler::new(cfg);
        assert_eq!(sched.name(), "tetrium+i-task");
        let s = snap(vec![map_job(0, [20, 30, 50])]);
        let plans = sched.schedule(&s);
        for a in &plans[0].assignments {
            let home = s.jobs[0].runnable[0].tasks[a.task].input_site.unwrap();
            assert_eq!(a.site, home);
        }
    }

    #[test]
    fn reduce_stage_is_planned_and_ordered_longest_first() {
        let mut sched = TetriumScheduler::standard();
        let tasks: Vec<TaskSnapshot> = (0..10)
            .map(|i| reduce_task(i, 0.1, 5.0 * (1.0 + (i % 3) as f64)))
            .collect();
        let job = JobSnapshot {
            id: JobId(0),
            arrival: 0.0,
            total_stages: 2,
            remaining_stages: 1,
            stages: vec![
                StageMeta {
                    kind: StageKind::Map,
                    deps: vec![],
                    num_tasks: 10,
                    task_secs: 1.0,
                    output_ratio: 0.5,
                    done: true,
                },
                StageMeta {
                    kind: StageKind::Reduce,
                    deps: vec![0],
                    num_tasks: 10,
                    task_secs: 1.0,
                    output_ratio: 0.1,
                    done: false,
                },
            ],
            runnable: vec![StageSnapshot {
                stage_index: 1,
                kind: StageKind::Reduce,
                est_task_secs: 1.0,
                num_tasks: 10,
                input_gb: vec![10.0, 15.0, 25.0],
                tasks,
            }],
        };
        let plans = sched.schedule(&snap(vec![job]));
        assert_eq!(plans[0].assignments.len(), 10);
        // Longest-first: the assignment with the smallest priority must be
        // one of the largest-input tasks (input 10 GB, i % 3 == 2).
        let first = plans[0]
            .assignments
            .iter()
            .min_by_key(|a| a.priority)
            .unwrap();
        assert_eq!(first.task % 3, 2);
    }

    #[test]
    fn dynamics_limits_changed_sites() {
        let cfg = TetriumConfig {
            dynamics_k: Some(1),
            ..TetriumConfig::default()
        };
        let mut sched = TetriumScheduler::new(cfg);
        let s1 = snap(vec![map_job(0, [20, 30, 50])]);
        let plans1 = sched.schedule(&s1);
        let dest1 = dest_counts(&plans1, 3);
        // Degrade site 0 heavily and re-schedule.
        let mut s2 = s1.clone();
        s2.sites[0].slots = 4;
        s2.sites[0].free_slots = 4;
        let plans2 = sched.schedule(&s2);
        let dest2 = dest_counts(&plans2, 3);
        let changed = dest1.iter().zip(&dest2).filter(|(a, b)| a != b).count();
        // k = 1 bounds *updated* sites, but conservation forces at least one
        // absorber, so allow k + 1 changed counts.
        assert!(
            changed <= 2,
            "changed {changed} sites: {dest1:?} -> {dest2:?}"
        );
    }

    fn dest_counts(plans: &[StagePlan], n: usize) -> Vec<usize> {
        let mut d = vec![0usize; n];
        for p in plans {
            for a in &p.assignments {
                d[a.site.index()] += 1;
            }
        }
        d
    }

    #[test]
    fn fair_policy_interleaves_jobs() {
        let cfg = TetriumConfig {
            job_policy: JobPolicy::Fair,
            ..TetriumConfig::default()
        };
        let mut sched = TetriumScheduler::new(cfg);
        assert_eq!(sched.name(), "tetrium+fs");
        let s = snap(vec![map_job(0, [20, 30, 50]), map_job(1, [20, 30, 50])]);
        let plans = sched.schedule(&s);
        // Collect global priority order of (priority, job) and check the
        // first two tasks belong to different jobs (round-robin).
        let mut all: Vec<(i64, usize)> = plans
            .iter()
            .flat_map(|p| {
                p.assignments
                    .iter()
                    .map(move |a| (a.priority, p.job.index()))
            })
            .collect();
        all.sort_unstable();
        assert_ne!(all[0].1, all[1].1, "fair policy must interleave jobs");
    }

    /// Remote GB assigned to still-unlaunched tasks in a set of plans.
    fn remote_gb(plans: &[StagePlan], st: &StageSnapshot) -> f64 {
        plans
            .iter()
            .flat_map(|p| p.assignments.iter())
            .filter(|a| {
                let t = &st.tasks[a.task];
                t.phase == TaskPhase::Unlaunched && t.input_site != Some(a.site)
            })
            .map(|a| st.tasks[a.task].input_gb)
            .sum()
    }

    /// Satellite regression: a cached stage plan must be invalidated once
    /// intervening instances consume WAN budget it assumed was available.
    /// Before the fix, the reuse guard only checked the unlaunched count, so
    /// the stale plan replayed its remote assignments and overspent `ρ`.
    #[test]
    fn stale_cached_plan_is_invalidated_when_wan_budget_is_consumed() {
        let cfg = TetriumConfig {
            wan: WanKnob::new(0.3).unwrap(), // 30 GB budget over the 100 GB stage.
            ..TetriumConfig::default()
        };
        let mut sched = TetriumScheduler::new(cfg);
        let s1 = snap(vec![map_job(0, [20, 30, 50])]);
        let plans1 = sched.schedule(&s1);
        assert!(remote_gb(&plans1, &s1.jobs[0].runnable[0]) <= 30.0 + 1e-6);

        // Second instance: 30 tasks have launched — 20 of them remotely,
        // consuming 20 GB of the 30 GB stage budget — while 70 remain
        // unlaunched (enough that the count-based guard alone would reuse
        // the cached plan).
        let mut s2 = s1.clone();
        {
            let st = &mut s2.jobs[0].runnable[0].tasks;
            for t in st.iter_mut().take(20) {
                // Site-0 tasks running remotely at site 2.
                t.phase = TaskPhase::Running;
                t.running_site = Some(SiteId(2));
            }
            for t in st.iter_mut().skip(20).take(10) {
                // Ten site-1 tasks running at home (no WAN cost).
                t.phase = TaskPhase::Running;
                t.running_site = t.input_site;
            }
        }
        let plans2 = sched.schedule(&s2);
        // Only 10 GB of budget remains; the re-planned assignments for the
        // 70 unlaunched tasks must fit inside it.
        let moved2 = remote_gb(&plans2, &s2.jobs[0].runnable[0]);
        assert!(
            moved2 <= 10.0 + 1e-6,
            "stale plan replayed: {moved2} GB remote against 10 GB remaining budget"
        );
    }

    /// The WAN check itself must not invalidate plans that still fit: an
    /// identical snapshot reuses the cached plan (no LP re-solve).
    #[test]
    fn cached_plan_still_reused_when_budget_intact() {
        let cfg = TetriumConfig {
            wan: WanKnob::new(0.3).unwrap(),
            ..TetriumConfig::default()
        };
        let mut sched = TetriumScheduler::new(cfg);
        let s1 = snap(vec![map_job(0, [20, 30, 50])]);
        let plans1 = sched.schedule(&s1);
        let plans2 = sched.schedule(&s1);
        assert_eq!(dest_counts(&plans1, 3), dest_counts(&plans2, 3));
    }

    /// Satellite regression: stage-plan cache entries are evicted eagerly at
    /// instance end, so a long stream of recurring jobs cannot grow the maps
    /// without bound (before the fix, entries of finished stages lingered
    /// until their job finished, and entries of finished jobs until the next
    /// instance's lazy sweep).
    #[test]
    fn plan_cache_stays_bounded_over_many_recurring_instances() {
        let cfg = TetriumConfig {
            plan_cache: PlanCacheMode::Full,
            ..TetriumConfig::default()
        };
        let mut sched = TetriumScheduler::new(cfg);
        for i in 0..520 {
            // Each instance carries a fresh job (the previous one finished).
            let s = snap(vec![map_job(i, [2, 3, 5])]);
            sched.schedule(&s);
            assert!(
                sched.stage_plan_cache_len() <= 1,
                "instance {i}: {} cached stage plans",
                sched.stage_plan_cache_len()
            );
            assert!(sched.template_cache_len() <= 256);
        }
        // The template cache *should* be carrying cross-job entries.
        assert!(sched.template_cache_len() >= 1);
    }

    /// A finished stage of a still-live job is evicted as soon as it leaves
    /// the runnable set.
    #[test]
    fn finished_stage_entries_are_evicted_while_job_lives() {
        let mut sched = TetriumScheduler::standard();
        let s1 = snap(vec![map_job(0, [20, 30, 50])]);
        sched.schedule(&s1);
        assert_eq!(sched.stage_plan_cache_len(), 1);
        // Same job, but stage 0 finished and a reduce stage took its place.
        let mut job = map_job(0, [20, 30, 50]);
        job.total_stages = 2;
        job.stages[0].done = true;
        job.stages.push(StageMeta {
            kind: StageKind::Reduce,
            deps: vec![0],
            num_tasks: 10,
            task_secs: 1.0,
            output_ratio: 0.1,
            done: false,
        });
        job.runnable = vec![StageSnapshot {
            stage_index: 1,
            kind: StageKind::Reduce,
            est_task_secs: 1.0,
            num_tasks: 10,
            input_gb: vec![10.0, 15.0, 25.0],
            tasks: (0..10).map(|i| reduce_task(i, 0.1, 5.0)).collect(),
        }];
        sched.schedule(&snap(vec![job]));
        assert_eq!(
            sched.stage_plan_cache_len(),
            1,
            "finished stage 0 must be evicted, leaving only stage 1"
        );
    }

    /// `Exact` caching must not change a single assignment relative to an
    /// uncached scheduler fed the same snapshots.
    #[test]
    fn exact_cache_mode_is_plan_identical_to_off() {
        let mut off = TetriumScheduler::standard();
        let cfg = TetriumConfig {
            plan_cache: PlanCacheMode::Exact,
            ..TetriumConfig::default()
        };
        let mut exact = TetriumScheduler::new(cfg);
        for i in 0..5 {
            // Alternate two recurring shapes so the second submission of
            // each hits the cache.
            let shape = if i % 2 == 0 {
                [20, 30, 50]
            } else {
                [10, 10, 10]
            };
            let s = snap(vec![map_job(i, shape)]);
            let a = off.schedule(&s);
            let b = exact.schedule(&s);
            for (pa, pb) in a.iter().zip(b.iter()) {
                assert_eq!(pa.job, pb.job);
                assert_eq!(pa.stage, pb.stage);
                assert_eq!(pa.assignments, pb.assignments, "instance {i}");
            }
        }
    }

    /// Full mode serves repeat instances from the template cache (exact
    /// tier) and drifted instances without a cold solve.
    #[test]
    fn full_cache_mode_reuses_templates_across_jobs() {
        let cfg = TetriumConfig {
            plan_cache: PlanCacheMode::Full,
            ..TetriumConfig::default()
        };
        let mut sched = TetriumScheduler::new(cfg);
        sched.schedule(&snap(vec![map_job(0, [20, 30, 50])]));
        let first = sched.last_template_stats();
        assert_eq!(first.miss, 1);
        // A different job with the same stage shape: exact template hit.
        sched.schedule(&snap(vec![map_job(1, [20, 30, 50])]));
        let second = sched.last_template_stats();
        assert_eq!(second.exact, 1, "{second:?}");
        assert_eq!(second.miss, 0);
    }

    /// Dynamics events (slot-capacity changes) clear the template cache.
    #[test]
    fn capacity_change_clears_template_cache() {
        let cfg = TetriumConfig {
            plan_cache: PlanCacheMode::Full,
            ..TetriumConfig::default()
        };
        let mut sched = TetriumScheduler::new(cfg);
        let s1 = snap(vec![map_job(0, [20, 30, 50])]);
        sched.schedule(&s1);
        assert!(sched.template_cache_len() > 0);
        let mut s2 = s1.clone();
        s2.sites[1].slots = 5;
        s2.sites[1].free_slots = 5;
        sched.schedule(&s2);
        // Cleared on entry, then repopulated by this instance's solves
        // against the *new* slot vector only.
        assert!(sched.template_cache_len() >= 1);
        let stats = sched.last_template_stats();
        assert_eq!(stats.exact + stats.patched, 0, "{stats:?}");
    }
}
