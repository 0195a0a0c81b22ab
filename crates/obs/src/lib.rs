//! Event-sourced observability for the execution path.
//!
//! The engine, the WAN model and the schedulers all hold clones of one
//! [`Obs`] handle and emit structured events into it: task lifecycle
//! transitions, per-site slot-occupancy and per-link utilization step
//! timelines (sampled at event boundaries), scheduling-instance records,
//! WAN bytes by `(src, dst)` pair, and counters for speculation, failure
//! and capacity-drop events.
//!
//! The disabled handle is the default and costs one `Option` branch per
//! emission point — the engine's hot path stays allocation-free (the
//! benchmark in `perfbench/` measures with this handle, so a cost here
//! shows in its `tasks_per_s`). When recording, everything
//! collected is simulation-derived and therefore deterministic for a given
//! seed, except the *measured* per-instance scheduler wall latency;
//! [`ObsReport::to_json`] takes an `include_wall` switch so serialized
//! records can stay byte-identical across worker-thread counts (DESIGN.md
//! §7/§8).
//!
//! A handle is an `Arc<Mutex<…>>` so an engine (and its `Obs` clones) can
//! move across threads — the serve front end runs engines on a worker pool
//! and drains task events from subscriber threads. Within one engine all
//! emissions still happen from a single thread at a time, so the mutex is
//! uncontended on the hot path; the disabled handle skips it entirely at
//! an `Option` branch.

pub mod otel;

pub use otel::{to_otel_json, to_otel_string, OTEL_SCOPE};

use std::sync::{Arc, Mutex};
use tetrium_cluster::SiteId;

/// Why a scheduling instance fired (§5 batching: the first requester of a
/// pending instance wins).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Trigger {
    /// A job arrived.
    JobArrival,
    /// A stage finished (possibly activating successors).
    StageDone,
    /// A slot was released mid-stage (batched per the §5 policy).
    SlotRelease,
    /// A site's capacity dropped (§4.2).
    CapacityDrop,
    /// A dynamics-timeline event (outage, recovery, link degradation)
    /// changed the cluster's resources mid-run.
    Dynamics,
    /// A task attempt was lost to failure injection.
    Failure,
    /// The event loop went idle with work remaining and retried.
    IdleRetry,
}

impl Trigger {
    /// Stable string used in serialized records.
    pub fn as_str(self) -> &'static str {
        match self {
            Trigger::JobArrival => "job-arrival",
            Trigger::StageDone => "stage-done",
            Trigger::SlotRelease => "slot-release",
            Trigger::CapacityDrop => "capacity-drop",
            Trigger::Dynamics => "dynamics",
            Trigger::Failure => "failure",
            Trigger::IdleRetry => "idle-retry",
        }
    }
}

/// Lifecycle transition of a task attempt (original or speculative copy).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TaskPhaseEvent {
    /// Assigned a (new) destination site by a scheduling instance.
    Queued,
    /// Occupied a slot and started fetching remote input.
    Fetching,
    /// All inputs local; compute began.
    Computing,
    /// Completed the task (the winning attempt).
    Done,
    /// Lost to failure injection; the task returns to the pool.
    Failed,
    /// Torn down because the competing attempt won the task.
    Cancelled,
}

impl TaskPhaseEvent {
    /// Stable string used in serialized records.
    pub fn as_str(self) -> &'static str {
        match self {
            TaskPhaseEvent::Queued => "queued",
            TaskPhaseEvent::Fetching => "fetching",
            TaskPhaseEvent::Computing => "computing",
            TaskPhaseEvent::Done => "done",
            TaskPhaseEvent::Failed => "failed",
            TaskPhaseEvent::Cancelled => "cancelled",
        }
    }
}

/// One task lifecycle event.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TaskEvent {
    /// Simulation time of the transition.
    pub t: f64,
    /// Job id (dense index).
    pub job: usize,
    /// Stage index within the job.
    pub stage: usize,
    /// Task index within the stage.
    pub task: usize,
    /// Whether the attempt is a speculative copy.
    pub copy: bool,
    /// The transition.
    pub phase: TaskPhaseEvent,
    /// Site of the attempt.
    pub site: SiteId,
}

/// One scheduling instance as seen from the engine.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SchedRecord {
    /// Simulation time of the instance.
    pub at: f64,
    /// What requested it.
    pub trigger: Trigger,
    /// Unfinished jobs in the snapshot.
    pub jobs: usize,
    /// Unlaunched tasks across the snapshot's runnable stages (snapshot
    /// size).
    pub unlaunched: usize,
    /// Stage plans the scheduler returned.
    pub plans: usize,
    /// Task assignments across those plans.
    pub assignments: usize,
    /// Tasks actually launched by the dispatch that followed.
    pub launched: usize,
    /// Measured wall-clock seconds inside `Scheduler::schedule` — the only
    /// non-deterministic field; excluded from `to_json(false)`.
    pub wall_secs: f64,
}

/// Per-instance planner breakdown emitted by the Tetrium scheduler: how
/// each planned stage was obtained. Baselines do not emit these (their
/// instances are still covered by [`SchedRecord`]).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerRecord {
    /// Simulation time of the instance.
    pub at: f64,
    /// Stages planned with the placement LPs (including template-cache
    /// hits, which replace the solve inside the LP path).
    pub lp_planned: usize,
    /// Stages that reused a cached plan.
    pub cache_reused: usize,
    /// Stages planned with the site-local fallback.
    pub local_planned: usize,
    /// Template-cache exact hits (solver skipped, placement verbatim).
    pub tmpl_exact: usize,
    /// Template-cache patched hits (cached split rescaled).
    pub tmpl_patched: usize,
    /// Always 0: the plan cache no longer warm-starts solves, so every
    /// solve it does not answer counts in `tmpl_miss`. Kept because the
    /// benchmark harness still reads it.
    pub tmpl_warm: usize,
    /// Cold solves through the template-cache path.
    pub tmpl_miss: usize,
    /// Always 0, for the same reason as `tmpl_warm`.
    pub warm_pivots: usize,
}

/// One sample of every link's allocated rate, taken when the flow set or a
/// capacity changes.
#[derive(Debug, Clone, PartialEq)]
pub struct LinkSample {
    /// Simulation time of the sample.
    pub t: f64,
    /// Aggregate uplink rate in use per site, GB/s.
    pub up: Vec<f64>,
    /// Aggregate downlink rate in use per site, GB/s.
    pub down: Vec<f64>,
}

/// Event counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Counters {
    /// Speculative copies launched.
    pub copies_launched: usize,
    /// Speculative copies that won their task.
    pub copies_won: usize,
    /// Attempts (copies or superseded originals) torn down by the winner.
    pub attempts_cancelled: usize,
    /// Task attempts lost to failure injection.
    pub task_failures: usize,
    /// Capacity-drop events applied.
    pub capacity_drops: usize,
    /// Dynamics-timeline events applied (capacity drops, link changes,
    /// outages and recoveries — a superset of `capacity_drops`).
    pub dynamics_events: usize,
    /// Full site outages applied.
    pub site_outages: usize,
    /// Task attempts killed by a site outage and re-queued for
    /// re-placement (bounded by the engine's retry budget).
    pub dynamics_retries: usize,
}

/// Everything one run recorded. Also serves as the live recording state
/// behind an enabled [`Obs`] handle; [`Obs::finish`] extracts it as plain
/// (`Send`) data.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Initial slot capacity per site (indexed by site id).
    pub slots: Vec<usize>,
    /// Task lifecycle events in emission (= simulation) order.
    pub task_events: Vec<TaskEvent>,
    /// Per-site `(time, occupied slots)` step timeline; occupancy is 0
    /// before the first step. Samples at identical times coalesce into the
    /// final value at that instant.
    pub slot_timeline: Vec<Vec<(f64, usize)>>,
    /// Per-link utilization samples at flow-set/capacity change boundaries,
    /// coalesced per instant.
    pub link_timeline: Vec<LinkSample>,
    /// Scheduling-instance records in simulation order.
    pub sched: Vec<SchedRecord>,
    /// Planner breakdowns (Tetrium only).
    pub planner: Vec<PlannerRecord>,
    /// Net WAN GB per `(src, dst)` pair, row-major `src * n + dst`
    /// (cancelled flows' unsent remainders are refunded).
    pub wan_pair_gb: Vec<f64>,
    /// Event counters.
    pub counters: Counters,
}

impl ObsReport {
    fn recording(slots: Vec<usize>) -> Self {
        let n = slots.len();
        Self {
            slots,
            slot_timeline: vec![Vec::new(); n],
            wan_pair_gb: vec![0.0; n * n],
            ..Self::default()
        }
    }

    /// Number of sites.
    pub fn n_sites(&self) -> usize {
        self.slots.len()
    }

    /// Net WAN GB moved from `src` to `dst` (zero for out-of-range ids).
    pub fn wan_pair(&self, src: SiteId, dst: SiteId) -> f64 {
        self.wan_pair_gb
            .get(src.index() * self.n_sites() + dst.index())
            .copied()
            .unwrap_or(0.0)
    }

    /// Total net WAN GB across all pairs — reconciles with
    /// `FlowSim::total_wan_gb` over the same run.
    pub fn total_wan_gb(&self) -> f64 {
        self.wan_pair_gb.iter().sum()
    }

    /// Number of `(src, dst)` pairs that moved any bytes.
    pub fn active_pairs(&self) -> usize {
        self.wan_pair_gb.iter().filter(|&&gb| gb > 0.0).count()
    }

    /// Per-site busy slot-seconds over `[0, until]`, integrated from the
    /// occupancy step timeline. With failure injection and speculation off
    /// this reconciles with `metrics::timeline::site_busy_secs` over the
    /// run's trace; with them on it additionally counts losing attempts.
    pub fn busy_secs(&self, until: f64) -> Vec<f64> {
        self.slot_timeline
            .iter()
            .map(|tl| {
                let (mut acc, mut prev_t, mut prev_occ) = (0.0, 0.0, 0usize);
                for &(t, occ) in tl {
                    acc += prev_occ as f64 * (t.min(until) - prev_t).max(0.0);
                    prev_t = t.min(until);
                    prev_occ = occ;
                }
                acc + prev_occ as f64 * (until - prev_t).max(0.0)
            })
            .collect()
    }

    /// Per-site slot utilization over `[0, until]`: busy slot-seconds over
    /// available slot-seconds, unclamped (a value above 1 + eps means the
    /// engine oversubscribed a site).
    pub fn utilization(&self, until: f64) -> Vec<f64> {
        self.busy_secs(until)
            .into_iter()
            .zip(&self.slots)
            .map(|(b, &s)| {
                if until <= 0.0 || s == 0 {
                    0.0
                } else {
                    b / (s as f64 * until)
                }
            })
            .collect()
    }

    /// Total (fetch, compute) slot-seconds across attempts, from the task
    /// event stream. Attempts cancelled mid-phase contribute the time they
    /// held the phase.
    pub fn fetch_compute_split(&self) -> (f64, f64) {
        use std::collections::HashMap;
        let mut fetch_start: HashMap<(usize, usize, usize, bool), f64> = HashMap::new();
        let mut compute_start: HashMap<(usize, usize, usize, bool), f64> = HashMap::new();
        let (mut fetch, mut compute) = (0.0, 0.0);
        for e in &self.task_events {
            let key = (e.job, e.stage, e.task, e.copy);
            match e.phase {
                TaskPhaseEvent::Queued => {}
                TaskPhaseEvent::Fetching => {
                    fetch_start.insert(key, e.t);
                }
                TaskPhaseEvent::Computing => {
                    if let Some(t0) = fetch_start.remove(&key) {
                        fetch += e.t - t0;
                    }
                    compute_start.insert(key, e.t);
                }
                TaskPhaseEvent::Done | TaskPhaseEvent::Failed | TaskPhaseEvent::Cancelled => {
                    if let Some(t0) = compute_start.remove(&key) {
                        compute += e.t - t0;
                    }
                    if let Some(t0) = fetch_start.remove(&key) {
                        fetch += e.t - t0;
                    }
                }
            }
        }
        (fetch, compute)
    }

    /// Nearest-rank `q`-quantile (0..=1) of the measured per-instance
    /// scheduler wall latency, in seconds. Zero when nothing was recorded.
    pub fn sched_wall_percentile(&self, q: f64) -> f64 {
        assert!((0.0..=1.0).contains(&q));
        if self.sched.is_empty() {
            return 0.0;
        }
        let mut w: Vec<f64> = self.sched.iter().map(|s| s.wall_secs).collect();
        w.sort_by(f64::total_cmp);
        let idx = ((w.len() as f64 - 1.0) * q).round() as usize;
        w.get(idx).copied().unwrap_or(0.0)
    }

    /// Serializes the report. `include_wall` gates the measured scheduler
    /// wall latencies — the only non-simulation-derived content — so that
    /// `to_json(false)` is byte-identical for any worker-thread count
    /// (DESIGN.md §7/§8); the CLI's `--obs` output uses `true`.
    pub fn to_json(&self, include_wall: bool) -> serde_json::Value {
        use serde_json::json;
        let sched: Vec<serde_json::Value> = self
            .sched
            .iter()
            .map(|s| {
                let mut v = json!({
                    "at": s.at,
                    "trigger": s.trigger.as_str(),
                    "jobs": s.jobs,
                    "unlaunched": s.unlaunched,
                    "plans": s.plans,
                    "assignments": s.assignments,
                    "launched": s.launched,
                });
                if include_wall {
                    // lint:allow(L6, "json! builds an object; IndexMut inserts, never panics")
                    v["wall_ms"] = json!(s.wall_secs * 1e3);
                }
                v
            })
            .collect();
        json!({
            "schema": "tetrium-obs/v1",
            "sites": self.n_sites(),
            "slots": self.slots,
            "counters": {
                "copies_launched": self.counters.copies_launched,
                "copies_won": self.counters.copies_won,
                "attempts_cancelled": self.counters.attempts_cancelled,
                "task_failures": self.counters.task_failures,
                "capacity_drops": self.counters.capacity_drops,
                "dynamics_events": self.counters.dynamics_events,
                "site_outages": self.counters.site_outages,
                "dynamics_retries": self.counters.dynamics_retries,
            },
            "wan_pair_gb": self.wan_pair_gb,
            "slot_timeline": self.slot_timeline
                .iter()
                .map(|tl| tl.iter().map(|&(t, occ)| json!([t, occ])).collect::<Vec<_>>())
                .collect::<Vec<_>>(),
            "link_timeline": self.link_timeline
                .iter()
                .map(|s| json!({"t": s.t, "up": s.up, "down": s.down}))
                .collect::<Vec<_>>(),
            "sched": sched,
            "planner": self.planner
                .iter()
                .map(|p| json!({
                    "at": p.at,
                    "lp_planned": p.lp_planned,
                    "cache_reused": p.cache_reused,
                    "local_planned": p.local_planned,
                    "tmpl_exact": p.tmpl_exact,
                    "tmpl_patched": p.tmpl_patched,
                    "tmpl_warm": p.tmpl_warm,
                    "tmpl_miss": p.tmpl_miss,
                    "warm_pivots": p.warm_pivots,
                }))
                .collect::<Vec<_>>(),
            "task_events": self.task_events
                .iter()
                .map(|e| json!({
                    "t": e.t,
                    "job": e.job,
                    "stage": e.stage,
                    "task": e.task,
                    "copy": e.copy,
                    "phase": e.phase.as_str(),
                    "site": e.site.index(),
                }))
                .collect::<Vec<_>>(),
        })
    }
}

/// Cloneable handle to an observability sink. [`Obs::disabled`] (the
/// default) drops every emission at an `Option` branch; [`Obs::recording`]
/// collects into a shared [`ObsReport`].
#[derive(Debug, Clone, Default)]
pub struct Obs {
    inner: Option<Arc<Mutex<ObsReport>>>,
}

impl Obs {
    /// The no-op sink.
    pub fn disabled() -> Self {
        Self { inner: None }
    }

    /// A recording sink over a cluster with the given per-site slot counts.
    pub fn recording(slots: Vec<usize>) -> Self {
        Self {
            inner: Some(Arc::new(Mutex::new(ObsReport::recording(slots)))),
        }
    }

    /// Whether emissions are recorded. Callers use this to skip *preparing*
    /// expensive payloads (e.g. link usage vectors); the emission methods
    /// themselves are already no-ops when disabled.
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    fn with(&self, f: impl FnOnce(&mut ObsReport)) {
        if let Some(core) = &self.inner {
            // Recover from poisoning: a panic in one engine thread must not
            // cascade through the shared sink and take down unrelated
            // shards. The report data is plain counters/vectors, valid
            // after any partial emission.
            f(&mut core
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner));
        }
    }

    /// Records a task lifecycle transition.
    #[allow(clippy::too_many_arguments)]
    pub fn task_event(
        &self,
        t: f64,
        job: usize,
        stage: usize,
        task: usize,
        copy: bool,
        phase: TaskPhaseEvent,
        site: SiteId,
    ) {
        self.with(|r| {
            r.task_events.push(TaskEvent {
                t,
                job,
                stage,
                task,
                copy,
                phase,
                site,
            })
        });
    }

    /// Records a site's slot occupancy after a change; same-instant samples
    /// coalesce into the final value.
    pub fn slot_sample(&self, t: f64, site: SiteId, occupied: usize) {
        self.with(|r| {
            let Some(tl) = r.slot_timeline.get_mut(site.index()) else {
                return;
            };
            match tl.last_mut() {
                Some(last) if last.0 == t => last.1 = occupied,
                _ => tl.push((t, occupied)),
            }
        });
    }

    /// Records the allocated rate on every link after a flow-set or
    /// capacity change; same-instant samples coalesce.
    pub fn link_sample(&self, t: f64, up: &[f64], down: &[f64]) {
        self.with(|r| match r.link_timeline.last_mut() {
            Some(last) if last.t == t => {
                last.up.clear();
                last.up.extend_from_slice(up);
                last.down.clear();
                last.down.extend_from_slice(down);
            }
            _ => r.link_timeline.push(LinkSample {
                t,
                up: up.to_vec(),
                down: down.to_vec(),
            }),
        });
    }

    /// Accounts `gb` (negative for refunds of unsent bytes) against the
    /// `(src, dst)` WAN matrix.
    pub fn wan_transfer(&self, src: SiteId, dst: SiteId, gb: f64) {
        self.with(|r| {
            let n = r.n_sites();
            if let Some(cell) = r.wan_pair_gb.get_mut(src.index() * n + dst.index()) {
                *cell += gb;
            }
        });
    }

    /// Records a scheduling instance.
    pub fn sched_record(&self, rec: SchedRecord) {
        self.with(|r| r.sched.push(rec));
    }

    /// Records a planner breakdown.
    pub fn planner_record(&self, rec: PlannerRecord) {
        self.with(|r| r.planner.push(rec));
    }

    /// Counts a speculative copy launch.
    pub fn copy_launched(&self) {
        self.with(|r| r.counters.copies_launched += 1);
    }

    /// Counts a speculative copy winning its task.
    pub fn copy_won(&self) {
        self.with(|r| r.counters.copies_won += 1);
    }

    /// Counts a losing attempt being torn down.
    pub fn attempt_cancelled(&self) {
        self.with(|r| r.counters.attempts_cancelled += 1);
    }

    /// Counts a task attempt lost to failure injection.
    pub fn task_failure(&self) {
        self.with(|r| r.counters.task_failures += 1);
    }

    /// Counts a capacity-drop event.
    pub fn capacity_drop(&self) {
        self.with(|r| r.counters.capacity_drops += 1);
    }

    /// Counts an applied dynamics-timeline event of any kind.
    pub fn dynamics_event(&self) {
        self.with(|r| r.counters.dynamics_events += 1);
    }

    /// Counts a full site outage.
    pub fn site_outage(&self) {
        self.with(|r| r.counters.site_outages += 1);
    }

    /// Counts an attempt killed by an outage and re-queued.
    pub fn dynamics_retry(&self) {
        self.with(|r| r.counters.dynamics_retries += 1);
    }

    /// Extracts the recorded report, leaving the shared state empty (other
    /// live clones keep emitting into the drained core, which is harmless
    /// after the run ends). Returns `None` for a disabled sink.
    pub fn finish(&self) -> Option<ObsReport> {
        self.inner.as_ref().map(|core| {
            let mut locked = core
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut *locked)
        })
    }

    /// Drains the task events recorded since the last drain, leaving the
    /// rest of the report intact. The serve front end uses this to fan
    /// lifecycle events out to subscribers mid-run without consuming the
    /// report. Returns an empty vec for a disabled sink.
    pub fn drain_task_events(&self) -> Vec<TaskEvent> {
        self.inner.as_ref().map_or_else(Vec::new, |core| {
            let mut locked = core
                .lock()
                .unwrap_or_else(std::sync::PoisonError::into_inner);
            std::mem::take(&mut locked.task_events)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn obs_handle_is_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Obs>();
    }

    #[test]
    fn drain_task_events_takes_only_task_events() {
        let obs = Obs::recording(vec![1]);
        obs.task_event(1.0, 0, 0, 0, false, TaskPhaseEvent::Queued, SiteId(0));
        obs.copy_launched();
        let drained = obs.drain_task_events();
        assert_eq!(drained.len(), 1);
        assert_eq!(drained[0].t, 1.0);
        // A second drain sees nothing new; the rest of the report survives.
        assert!(obs.drain_task_events().is_empty());
        let r = obs.finish().unwrap();
        assert!(r.task_events.is_empty());
        assert_eq!(r.counters.copies_launched, 1);
    }

    #[test]
    fn drain_task_events_on_disabled_sink_is_empty() {
        assert!(Obs::disabled().drain_task_events().is_empty());
    }

    #[test]
    fn disabled_sink_records_nothing() {
        let obs = Obs::disabled();
        assert!(!obs.is_enabled());
        obs.slot_sample(1.0, SiteId(0), 1);
        obs.wan_transfer(SiteId(0), SiteId(1), 2.0);
        obs.copy_launched();
        assert!(obs.finish().is_none());
    }

    #[test]
    fn slot_timeline_integrates_to_busy_seconds() {
        let obs = Obs::recording(vec![2, 1]);
        // Site 0: occupancy 1 over [1,3), 2 over [3,4), 0 after.
        obs.slot_sample(1.0, SiteId(0), 1);
        obs.slot_sample(3.0, SiteId(0), 2);
        obs.slot_sample(4.0, SiteId(0), 0);
        let r = obs.finish().unwrap();
        let busy = r.busy_secs(5.0);
        assert!((busy[0] - 4.0).abs() < 1e-12);
        assert_eq!(busy[1], 0.0);
        let util = r.utilization(5.0);
        assert!((util[0] - 0.4).abs() < 1e-12);
    }

    #[test]
    fn same_instant_samples_coalesce() {
        let obs = Obs::recording(vec![4]);
        obs.slot_sample(2.0, SiteId(0), 1);
        obs.slot_sample(2.0, SiteId(0), 2);
        obs.slot_sample(2.0, SiteId(0), 3);
        obs.link_sample(2.0, &[1.0], &[1.0]);
        obs.link_sample(2.0, &[2.0], &[2.0]);
        let r = obs.finish().unwrap();
        assert_eq!(r.slot_timeline[0], vec![(2.0, 3)]);
        assert_eq!(r.link_timeline.len(), 1);
        assert_eq!(r.link_timeline[0].up, vec![2.0]);
    }

    #[test]
    fn utilization_is_unclamped() {
        let obs = Obs::recording(vec![1]);
        obs.slot_sample(0.0, SiteId(0), 2); // Oversubscribed on purpose.
        obs.slot_sample(4.0, SiteId(0), 0);
        let r = obs.finish().unwrap();
        assert!((r.utilization(4.0)[0] - 2.0).abs() < 1e-12);
    }

    #[test]
    fn wan_matrix_nets_out_refunds() {
        let obs = Obs::recording(vec![0; 3]);
        obs.wan_transfer(SiteId(0), SiteId(1), 5.0);
        obs.wan_transfer(SiteId(0), SiteId(1), -2.0);
        obs.wan_transfer(SiteId(2), SiteId(1), 1.0);
        let r = obs.finish().unwrap();
        assert!((r.wan_pair(SiteId(0), SiteId(1)) - 3.0).abs() < 1e-12);
        assert!((r.total_wan_gb() - 4.0).abs() < 1e-12);
        assert_eq!(r.active_pairs(), 2);
    }

    #[test]
    fn fetch_compute_split_handles_cancelled_attempts() {
        let obs = Obs::recording(vec![2]);
        let s = SiteId(0);
        // Original: fetch [0,2), compute [2,5), done.
        obs.task_event(0.0, 0, 0, 0, false, TaskPhaseEvent::Fetching, s);
        obs.task_event(2.0, 0, 0, 0, false, TaskPhaseEvent::Computing, s);
        obs.task_event(5.0, 0, 0, 0, false, TaskPhaseEvent::Done, s);
        // Copy: fetch [3,5), cancelled mid-fetch when the original won.
        obs.task_event(3.0, 0, 0, 0, true, TaskPhaseEvent::Fetching, s);
        obs.task_event(5.0, 0, 0, 0, true, TaskPhaseEvent::Cancelled, s);
        let r = obs.finish().unwrap();
        let (fetch, compute) = r.fetch_compute_split();
        assert!((fetch - 4.0).abs() < 1e-12);
        assert!((compute - 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_excludes_wall_unless_asked() {
        let obs = Obs::recording(vec![1]);
        obs.sched_record(SchedRecord {
            at: 1.0,
            trigger: Trigger::JobArrival,
            jobs: 1,
            unlaunched: 3,
            plans: 1,
            assignments: 3,
            launched: 1,
            wall_secs: 0.25,
        });
        let r = obs.finish().unwrap();
        let bare = serde_json::to_string(&r.to_json(false)).unwrap();
        let full = serde_json::to_string(&r.to_json(true)).unwrap();
        assert!(!bare.contains("wall_ms"));
        assert!(full.contains("wall_ms"));
        assert!(bare.contains("\"trigger\":\"job-arrival\""));
    }

    #[test]
    fn wall_percentiles_are_ranked() {
        let obs = Obs::recording(vec![1]);
        for (i, w) in [0.3, 0.1, 0.2].into_iter().enumerate() {
            obs.sched_record(SchedRecord {
                at: i as f64,
                trigger: Trigger::SlotRelease,
                jobs: 1,
                unlaunched: 0,
                plans: 0,
                assignments: 0,
                launched: 0,
                wall_secs: w,
            });
        }
        let r = obs.finish().unwrap();
        assert!((r.sched_wall_percentile(0.0) - 0.1).abs() < 1e-12);
        assert!((r.sched_wall_percentile(0.5) - 0.2).abs() < 1e-12);
        assert!((r.sched_wall_percentile(1.0) - 0.3).abs() < 1e-12);
        assert_eq!(ObsReport::default().sched_wall_percentile(0.5), 0.0);
    }
}
