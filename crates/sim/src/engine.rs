//! The discrete-event engine: event loop, task launching, dispatch.

// L4 (DESIGN.md §10.1): a lossy `as` cast goes through a named helper
// under `#[expect]`; an inline one in this file fails clippy.
#![warn(clippy::cast_possible_truncation)]

use crate::config::{BatchPolicy, EngineConfig};
use crate::event::{Event, EventQueue};
use crate::report::{JobOutcome, RunReport};
use crate::sched::{
    JobSnapshot, Scheduler, SiteState, Snapshot, StageSnapshot, TaskPhase, TaskSnapshot,
};
use crate::state::{build_tasks, Attempt, JobRt, Phase, StageRt, StageStatus, TaskState};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rand_distr::{Distribution, LogNormal};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::Arc;
use std::time::Instant;
use tetrium_cluster::{Cluster, DynamicsChange, DynamicsTimeline, SiteId};
use tetrium_jobs::{Job, JobId, StageKind};
use tetrium_net::{FlowKey, FlowSim};
use tetrium_obs::{Obs, SchedRecord, TaskPhaseEvent, Trigger};

/// Errors terminating a simulation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SimError {
    /// The scheduler stopped assigning tasks while work remained.
    Stalled {
        /// Number of unfinished jobs at the stall.
        unfinished: usize,
    },
    /// One task lost more attempts (to failure injection or site outages)
    /// than [`EngineConfig::max_task_retries`] allows.
    RetriesExhausted {
        /// Workload index of the job.
        job: usize,
        /// Stage index within the job.
        stage: usize,
        /// Task index within the stage.
        task: usize,
        /// Attempts lost when the run aborted.
        retries: usize,
    },
}

impl std::fmt::Display for SimError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SimError::Stalled { unfinished } => {
                write!(f, "scheduler stalled with {unfinished} unfinished jobs")
            }
            SimError::RetriesExhausted {
                job,
                stage,
                task,
                retries,
            } => {
                write!(
                    f,
                    "task {task} of job {job} stage {stage} lost {retries} attempts"
                )
            }
        }
    }
}

impl std::error::Error for SimError {}

/// The attempt a WAN flow feeds: its task `(job, stage, task)` and its copy
/// id (`None` for the original).
type AttemptKey = (usize, usize, usize, Option<u64>);

/// The execution engine. Construct with a cluster, a workload and a
/// scheduler; call [`Engine::run`] to simulate to completion.
pub struct Engine {
    cluster: Cluster,
    // Current (possibly degraded) capacities.
    cur_slots: Vec<usize>,
    cur_up: Vec<f64>,
    cur_down: Vec<f64>,
    occupied: Vec<usize>,
    flows: FlowSim,
    events: EventQueue,
    jobs: Vec<JobRt>,
    job_index: HashMap<JobId, usize>,
    /// Owner of each in-flight flow, indexed by `FlowKey::index()` (flow
    /// keys are dense slab indices, so a vector beats a hash map on the
    /// per-flow-event path).
    flow_owner: Vec<Option<AttemptKey>>,
    /// Live speculative copies by task. A BTreeMap, so outage teardown
    /// meets them in key order.
    copies: BTreeMap<(usize, usize, usize), Attempt>,
    next_copy_id: u64,
    scheduler: Box<dyn Scheduler>,
    cfg: EngineConfig,
    rng: StdRng,
    now: f64,
    dynamics: DynamicsTimeline,
    /// Set when a per-task retry budget is exhausted; checked by the event
    /// loop after each event so the run aborts deterministically.
    fatal: Option<SimError>,
    dynamics_applied: usize,
    sched_pending: bool,
    /// Trigger of the pending scheduling instance: the first requester of a
    /// batched instance wins (later requests coalesce into it).
    pending_trigger: Trigger,
    recent_secs: VecDeque<f64>,
    sched_invocations: usize,
    sched_wall_secs: f64,
    copies_launched: usize,
    copies_won: usize,
    task_failures: usize,
    obs: Obs,
    /// Per-job flag: outcome already handed out by [`Engine::drain_finished`].
    reported_finished: Vec<bool>,
    // Scratch buffers reused across scheduler invocations so the steady
    // state of the event loop allocates nothing per invocation.
    snapshot_scratch: Snapshot,
    dispatch_scratch: Vec<Vec<(i64, usize, usize, usize)>>,
    launch_scratch: Vec<(i64, usize, usize, usize)>,
    usage_scratch: (Vec<f64>, Vec<f64>),
    fetch_scratch: Vec<(SiteId, f64)>,
    /// Shadow state for the runtime invariant auditor (DESIGN.md §10).
    #[cfg(feature = "audit")]
    auditor: crate::audit::Auditor,
}

/// Per-stage cap on live speculative copies: `ceil(tasks × frac)`, at
/// least one. The float→integer rounding for this ledger quantity is
/// confined to one documented helper so the engine hot path carries no
/// inline lossy casts; task counts sit far below f64's exact-integer range,
/// so the product and its ceiling are exact.
#[expect(
    clippy::cast_possible_truncation,
    reason = "documented rounding helper (see doc comment)"
)]
fn copy_cap(tasks: usize, frac: f64) -> usize {
    ((tasks as f64 * frac).ceil() as usize).max(1)
}

impl Engine {
    /// Creates an engine over `cluster` running `jobs` under `scheduler`.
    ///
    /// # Panics
    ///
    /// Panics if any job's root inputs do not match the cluster's site count.
    pub fn new(
        cluster: Cluster,
        jobs: Vec<Job>,
        mut scheduler: Box<dyn Scheduler>,
        cfg: EngineConfig,
    ) -> Self {
        for j in &jobs {
            assert!(
                j.matches_cluster(&cluster),
                "job {} input does not match cluster",
                j.id
            );
        }
        let n = cluster.len();
        let cur_slots = cluster.slots_vec();
        let cur_up: Vec<f64> = cluster.iter().map(|(_, s)| s.up_gbps).collect();
        let cur_down: Vec<f64> = cluster.iter().map(|(_, s)| s.down_gbps).collect();
        let obs = if cfg.record_obs {
            Obs::recording(cur_slots.clone())
        } else {
            Obs::disabled()
        };
        let mut flows = FlowSim::new(cur_up.clone(), cur_down.clone());
        flows.set_obs(obs.clone());
        scheduler.attach_obs(obs.clone());
        let job_index: HashMap<JobId, usize> =
            jobs.iter().enumerate().map(|(i, j)| (j.id, i)).collect();
        assert_eq!(job_index.len(), jobs.len(), "job ids must be unique");
        let seed = cfg.seed;
        let n_jobs = jobs.len();
        Self {
            cluster,
            cur_slots,
            cur_up,
            cur_down,
            occupied: vec![0; n],
            flows,
            events: EventQueue::new(),
            jobs: jobs.into_iter().map(|j| JobRt::new(j, n)).collect(),
            job_index,
            flow_owner: Vec::new(),
            copies: BTreeMap::new(),
            next_copy_id: 0,
            scheduler,
            cfg,
            rng: StdRng::seed_from_u64(seed),
            now: 0.0,
            dynamics: DynamicsTimeline::default(),
            fatal: None,
            dynamics_applied: 0,
            sched_pending: false,
            pending_trigger: Trigger::JobArrival,
            recent_secs: VecDeque::with_capacity(64),
            sched_invocations: 0,
            sched_wall_secs: 0.0,
            copies_launched: 0,
            copies_won: 0,
            task_failures: 0,
            obs,
            reported_finished: vec![false; n_jobs],
            snapshot_scratch: Snapshot::default(),
            dispatch_scratch: Vec::new(),
            launch_scratch: Vec::new(),
            usage_scratch: (Vec::new(), Vec::new()),
            fetch_scratch: Vec::new(),
            #[cfg(feature = "audit")]
            auditor: crate::audit::Auditor::new(),
        }
    }

    /// Records `owner` for an in-flight flow.
    fn set_flow_owner(&mut self, key: FlowKey, owner: AttemptKey) {
        let i = key.index();
        if self.flow_owner.len() <= i {
            self.flow_owner.resize(i + 1, None);
        }
        self.flow_owner[i] = Some(owner);
    }

    /// Removes and returns the owner of a flow, if any.
    fn take_flow_owner(&mut self, key: FlowKey) -> Option<AttemptKey> {
        self.flow_owner.get_mut(key.index()).and_then(Option::take)
    }

    /// Merges a mid-run resource-dynamics timeline into the run: capacity
    /// drops and recoveries, link degradations and full site outages fire
    /// at their `at_time` through the event queue.
    pub fn with_dynamics(mut self, timeline: DynamicsTimeline) -> Self {
        self.dynamics.extend(timeline);
        self
    }

    /// Runs the simulation to completion and returns the report.
    pub fn run(mut self) -> Result<RunReport, SimError> {
        self.seed_initial_events();
        self.step_until_idle()?;
        Ok(self.into_report())
    }

    /// Pushes the arrival events for every job configured at construction
    /// plus the dynamics timeline. [`Engine::run`] calls this once; a
    /// front end driving the engine incrementally calls it once before the
    /// first [`Engine::step_until_idle`].
    pub fn seed_initial_events(&mut self) {
        for i in 0..self.jobs.len() {
            self.events
                .push(self.jobs[i].job.arrival, Event::JobArrival(i));
        }
        for i in 0..self.dynamics.len() {
            let at = self.dynamics.events()[i].at_time;
            self.events.push(at, Event::Dynamics(i));
        }
    }

    /// Admits `job` into a (possibly already stepped) engine, clamping its
    /// arrival to the current virtual time — a job submitted to a service
    /// cannot arrive in the engine's past. Call
    /// [`Engine::step_until_idle`] afterwards to process it.
    ///
    /// # Panics
    ///
    /// Panics if the job's root inputs do not match the cluster or its id
    /// collides with an already admitted job, mirroring [`Engine::new`].
    pub fn submit_job(&mut self, mut job: Job) -> JobId {
        assert!(
            job.matches_cluster(&self.cluster),
            "job {} input does not match cluster",
            job.id
        );
        job.arrival = job.arrival.max(self.now);
        let id = job.id;
        let i = self.jobs.len();
        let prev = self.job_index.insert(id, i);
        assert!(prev.is_none(), "job ids must be unique (duplicate {id})");
        let n = self.cluster.len();
        self.events.push(job.arrival, Event::JobArrival(i));
        self.jobs.push(JobRt::new(job, n));
        self.reported_finished.push(false);
        id
    }

    /// Processes events until the engine is idle: every admitted job has
    /// finished and no event remains. Identical to the [`Engine::run`]
    /// event loop — `run` is exactly seed + one `step_until_idle` — so
    /// incremental driving preserves byte-determinism for the same
    /// submission history.
    ///
    /// # Errors
    ///
    /// [`SimError::Stalled`] when unfinished jobs remain but the scheduler
    /// launches nothing, and whatever fatal error an event handler arms
    /// (e.g. [`SimError::RetriesExhausted`]).
    pub fn step_until_idle(&mut self) -> Result<(), SimError> {
        loop {
            let t_heap = self.events.peek_time();
            match (t_heap, self.flows.next_completion()) {
                (None, None) => {
                    if self.unfinished() == 0 {
                        break;
                    }
                    // Idle but unfinished: give the scheduler one more chance
                    // (e.g. it withheld assignments waiting for more slots).
                    let launched = self.run_scheduler(Trigger::IdleRetry);
                    if launched == 0 {
                        return Err(SimError::Stalled {
                            unfinished: self.unfinished(),
                        });
                    }
                }
                // A network completion wins ties with the heap.
                (heap, Some((key, t))) if heap.is_none_or(|h| t <= h) => {
                    self.advance_to(t);
                    self.on_flow_done(key);
                    #[cfg(feature = "audit")]
                    self.audit_check(&format!("FlowDone({}) at t={t}", key.index()));
                }
                // Only a non-empty heap reaches this arm, so `pop` yields.
                _ => {
                    if let Some((t, ev)) = self.events.pop() {
                        #[cfg(feature = "audit")]
                        let ctx = format!("{ev:?} at t={t}");
                        self.advance_to(t);
                        self.on_event(ev);
                        #[cfg(feature = "audit")]
                        self.audit_check(&ctx);
                    }
                }
            }
            if let Some(e) = self.fatal.take() {
                return Err(e);
            }
        }
        Ok(())
    }

    /// Current virtual time.
    pub fn now(&self) -> f64 {
        self.now
    }

    /// A clone of the engine's observability handle. A front end holds
    /// this to drain task events between steps (e.g. fanning them out to
    /// subscribers) while the engine keeps recording; disabled unless
    /// [`crate::EngineConfig::record_obs`] is set.
    pub fn obs_handle(&self) -> Obs {
        self.obs.clone()
    }

    /// Total WAN gigabytes charged so far.
    pub fn total_wan_gb(&self) -> f64 {
        self.flows.total_wan_gb()
    }

    /// Outcomes of jobs that finished since the last drain, in admission
    /// order. A front end polls this between [`Engine::step_until_idle`]
    /// calls to report completions without consuming the engine.
    pub fn drain_finished(&mut self) -> Vec<JobOutcome> {
        let mut out = Vec::new();
        for i in 0..self.jobs.len() {
            if !self.reported_finished[i] && self.jobs[i].finished_at.is_some() {
                self.reported_finished[i] = true;
                out.push(Self::job_outcome(&self.jobs[i]));
            }
        }
        out
    }

    fn unfinished(&self) -> usize {
        self.jobs
            .iter()
            .filter(|j| j.arrived && !j.is_finished())
            .count()
            + self.jobs.iter().filter(|j| !j.arrived).count()
    }

    fn advance_to(&mut self, t: f64) {
        let t = t.max(self.now);
        self.flows.advance_to(t);
        self.now = t;
    }

    /// Occupies a slot at `site`, sampling the occupancy timeline.
    fn occupy_slot(&mut self, site: SiteId) {
        self.occupied[site.index()] += 1;
        self.obs
            .slot_sample(self.now, site, self.occupied[site.index()]);
    }

    /// Releases a slot at `site`, sampling the occupancy timeline.
    fn vacate_slot(&mut self, site: SiteId) {
        self.occupied[site.index()] -= 1;
        self.obs
            .slot_sample(self.now, site, self.occupied[site.index()]);
    }

    fn on_event(&mut self, ev: Event) {
        match ev {
            Event::JobArrival(i) => {
                self.jobs[i].arrived = true;
                self.activate_stages(i);
                self.request_sched(true, Trigger::JobArrival);
            }
            Event::ComputeDone(j, s, t, copy) => self.on_compute_done(j, s, t, copy),
            Event::SchedulingPoint => {
                let trigger = self.pending_trigger;
                self.sched_pending = false;
                self.run_scheduler(trigger);
                self.maybe_speculate();
            }
            Event::Dynamics(i) => self.apply_dynamics(i),
        }
    }

    /// Applies dynamics-timeline event `i`: swaps the site's live capacities
    /// to the event's target (always derived from the configured baseline),
    /// updates the flow simulator, fails attempts stranded by an outage and
    /// requests rescheduling.
    ///
    /// Occupancy above a shrunken slot count drains naturally: dispatch and
    /// speculation compute free slots with `saturating_sub`, so no new task
    /// launches at the site until enough running attempts finish
    /// (clamp-and-drain), and `occupied` keeps tracking real slot holders.
    fn apply_dynamics(&mut self, i: usize) {
        let ev = self.dynamics.events()[i];
        let site = ev.site;
        let target = ev.target(self.cluster.site(site));
        let s = site.index();
        self.cur_slots[s] = target.slots;
        self.cur_up[s] = target.up_gbps;
        self.cur_down[s] = target.down_gbps;
        self.flows
            .set_capacity(site, target.up_gbps, target.down_gbps);
        self.dynamics_applied += 1;
        self.obs.dynamics_event();
        let trigger = match ev.change {
            DynamicsChange::Capacity { .. } => {
                self.obs.capacity_drop();
                Trigger::Capacity
            }
            DynamicsChange::Outage => {
                self.obs.site_outage();
                self.fail_attempts_at(site);
                Trigger::Dynamics
            }
            DynamicsChange::Links { .. } | DynamicsChange::Recover => Trigger::Dynamics,
        };
        self.request_sched(true, trigger);
    }

    /// Fails every attempt running at `site` (a full outage): originals
    /// re-enter the scheduling pool through the bounded retry path, then the
    /// speculative copies there are cancelled.
    fn fail_attempts_at(&mut self, site: SiteId) {
        for j in 0..self.jobs.len() {
            for s in 0..self.jobs[j].stages.len() {
                if self.jobs[j].stages[s].status != StageStatus::Runnable {
                    continue;
                }
                for t in 0..self.jobs[j].stages[s].tasks.len() {
                    let state = &mut self.jobs[j].stages[s].tasks[t].state;
                    if !matches!(state, TaskState::Running(a) if a.site == site) {
                        continue;
                    }
                    if let Some(a) = state.take_running() {
                        self.obs.dynamics_retry();
                        self.fail_attempt(j, s, t, a);
                    }
                }
            }
        }
        // `copies` is a BTreeMap, so the doomed copies come out in key order
        // and no compensating sort is needed before the order-dependent
        // teardown effects.
        let (doomed, live): (BTreeMap<_, _>, _) = std::mem::take(&mut self.copies)
            .into_iter()
            .partition(|(_, a)| a.site == site);
        self.copies = live;
        for ((j, s, t), a) in doomed {
            self.cancel(j, s, t, a);
        }
    }

    /// Fails original attempt `a` of task `(j, s, t)`, already taken out of
    /// the task: releases what it holds and leaves the task unlaunched for
    /// re-placement. Arms [`SimError::RetriesExhausted`] once the attempt
    /// budget is spent.
    fn fail_attempt(&mut self, j: usize, s: usize, t: usize, a: Attempt) {
        let site = a.site;
        self.release(j, a);
        self.task_failures += 1;
        self.obs.task_failure();
        self.obs
            .task_event(self.now, j, s, t, false, TaskPhaseEvent::Failed, site);
        let task = &mut self.jobs[j].stages[s].tasks[t];
        task.retries += 1;
        if task.retries > self.cfg.max_task_retries && self.fatal.is_none() {
            self.fatal = Some(SimError::RetriesExhausted {
                job: j,
                stage: s,
                task: t,
                retries: task.retries,
            });
        }
    }

    /// Activates every stage of job `j` whose parents are done: realizes its
    /// input distribution, builds task records and samples the duration
    /// estimate shown to the scheduler.
    fn activate_stages(&mut self, j: usize) {
        let n = self.cluster.len();
        for s in self.jobs[j].activatable_stages() {
            let input = self.jobs[j].realized_input(s, n);
            let spec = self.jobs[j].job.stages[s].clone();
            let tasks = build_tasks(spec.kind, spec.num_tasks, &input, |i| spec.task_share(i));
            let e = self.cfg.estimation_error;
            let err = if e > 0.0 {
                self.rng.gen_range(-e..=e)
            } else {
                0.0
            };
            let st = &mut self.jobs[j].stages[s];
            st.status = StageStatus::Runnable;
            st.input = Some(Arc::new(input));
            st.tasks = tasks;
            st.est_task_secs = (spec.task_secs * (1.0 + err)).max(1e-6);
            st.activated_at = Some(self.now);
        }
    }

    fn on_flow_done(&mut self, key: FlowKey) {
        self.flows.remove_flow(key);
        // Every flow is opened for an attempt, and tearing an attempt down
        // removes its flows and their owners, so a finished flow always
        // finds its attempt fetching.
        let owner = self.take_flow_owner(key);
        debug_assert!(
            owner.is_some(),
            "flow {} finished without an owner",
            key.index()
        );
        let Some((j, s, t, copy)) = owner else {
            return;
        };
        let a = self.take_attempt(j, s, t, copy);
        debug_assert!(
            matches!(&a, Some(a) if matches!(a.phase, Phase::Fetching { .. })),
            "flow {} finished for task {:?} with no fetching attempt",
            key.index(),
            (j, s, t)
        );
        let Some(mut a) = a else {
            return;
        };
        if let Phase::Fetching { pending, queued } = &mut a.phase {
            pending.retain(|k| *k != key);
            if let Some((src, gb)) = queued.pop() {
                let flow = self.flows.add_flow(src, a.site, gb);
                self.set_flow_owner(flow, (j, s, t, copy));
                pending.push(flow);
            } else if pending.is_empty() {
                self.begin_compute(j, s, t, &mut a);
            }
        }
        self.put_attempt(j, s, t, a);
    }

    /// Moves attempt `a` of task `(j, s, t)`, whose inputs are all local,
    /// into its compute phase.
    fn begin_compute(&mut self, j: usize, s: usize, t: usize, a: &mut Attempt) {
        let done_at = self.now + a.secs;
        a.phase = Phase::Computing {
            started: self.now,
            done_at,
        };
        let copy = a.copy.is_some();
        self.obs
            .task_event(self.now, j, s, t, copy, TaskPhaseEvent::Computing, a.site);
        self.events
            .push(done_at, Event::ComputeDone(j, s, t, a.copy));
    }

    /// Attempt `copy` of task `(j, s, t)` finished computing. Unless failure
    /// injection strikes the original, it wins: the other attempt, if any,
    /// is cancelled (its `Cancelled` event precedes the winner's `Done`) and
    /// the task completes.
    fn on_compute_done(&mut self, j: usize, s: usize, t: usize, copy: Option<u64>) {
        // A stale event finds no attempt (it was cancelled, or failed and
        // not relaunched) or one whose own completion lies ahead (an
        // original relaunched after an outage). Exact float equality holds:
        // the event carries the bits `done_at` was set to.
        let Some(win) = self.take_attempt(j, s, t, copy) else {
            return;
        };
        if !matches!(win.phase, Phase::Computing { done_at, .. } if done_at == self.now) {
            self.put_attempt(j, s, t, win);
            return;
        }
        // Fail-over injection (§6.1 trace) draws once per original
        // completion and never for a copy. A failed original returns to the
        // pool; a live copy, if any, keeps running and may still complete
        // the task.
        if copy.is_none()
            && self.cfg.failure_prob > 0.0
            && self.rng.gen::<f64>() < self.cfg.failure_prob
        {
            self.fail_attempt(j, s, t, win);
            self.request_sched(true, Trigger::Failure);
            return;
        }
        let task = &mut self.jobs[j].stages[s].tasks[t];
        let loser = match copy {
            None => self.copies.remove(&(j, s, t)),
            Some(_) => task.state.take_running(),
        };
        let original = if copy.is_none() {
            Some(&win)
        } else {
            loser.as_ref()
        };
        task.state = TaskState::Done(original.map(|a| a.site));
        if let Some(loser) = loser {
            self.cancel(j, s, t, loser);
        }
        self.vacate_slot(win.site);
        if copy.is_some() {
            self.copies_won += 1;
            self.obs.copy_won();
        }
        self.finish_task(j, s, t, &win);
    }

    /// Completion accounting for the winning attempt `win`: emits its
    /// `Done` event, materializes the task's output at its site, advances
    /// stage/job state and requests scheduling.
    fn finish_task(&mut self, j: usize, s: usize, t: usize, win: &Attempt) {
        let site = win.site;
        let was_copy = win.copy.is_some();
        self.obs
            .task_event(self.now, j, s, t, was_copy, TaskPhaseEvent::Done, site);
        self.recent_secs.push_back(win.secs);
        if self.recent_secs.len() > 64 {
            self.recent_secs.pop_front();
        }
        // Materialize this task's output where it ran.
        let ratio = self.jobs[j].job.stages[s].output_ratio;
        let input_gb = self.jobs[j].stages[s].tasks[t].input_gb;
        *self.jobs[j].stages[s].output.at_mut(site) += input_gb * ratio;
        self.jobs[j].stages[s].done_tasks += 1;

        let stage_done = self.jobs[j].stages[s].done_tasks == self.jobs[j].stages[s].tasks.len();
        if stage_done {
            self.jobs[j].stages[s].status = StageStatus::Done;
            self.jobs[j].stages[s].finished_at = Some(self.now);
            self.jobs[j].done_stages += 1;
            if self.jobs[j].is_finished() {
                self.jobs[j].finished_at = Some(self.now);
            } else {
                self.activate_stages(j);
            }
            self.request_sched(true, Trigger::StageDone);
        } else {
            self.request_sched(false, Trigger::SlotRelease);
        }
    }

    /// Queues a scheduling instance. `immediate` instances (arrivals, stage
    /// activations, capacity drops) fire now; slot releases are batched per
    /// the configured policy (§5). The `trigger` of the first request wins —
    /// later requests coalesce into the already-pending instance.
    fn request_sched(&mut self, immediate: bool, trigger: Trigger) {
        if self.sched_pending {
            return;
        }
        self.pending_trigger = trigger;
        let delay = if immediate {
            0.0
        } else {
            match self.cfg.batch {
                BatchPolicy::None => 0.0,
                BatchPolicy::Fixed(w) => w,
                BatchPolicy::Adaptive { factor, max_secs } => {
                    if self.recent_secs.is_empty() {
                        0.0
                    } else {
                        let mean =
                            self.recent_secs.iter().sum::<f64>() / self.recent_secs.len() as f64;
                        (mean * factor).min(max_secs)
                    }
                }
            }
        };
        self.sched_pending = true;
        self.events.push(self.now + delay, Event::SchedulingPoint);
    }

    /// Builds a snapshot, invokes the scheduler, applies its plans and
    /// dispatches launchable tasks. Returns the number launched.
    fn run_scheduler(&mut self, trigger: Trigger) -> usize {
        let mut snapshot = std::mem::take(&mut self.snapshot_scratch);
        self.fill_snapshot(&mut snapshot);
        if snapshot.jobs.is_empty() {
            self.snapshot_scratch = snapshot;
            return 0;
        }
        // Snapshot-size stats feed the SchedRecord; skip computing them on
        // the disabled path.
        let (rec_jobs, rec_unlaunched) = if self.obs.is_enabled() {
            let unlaunched = snapshot
                .jobs
                .iter()
                .flat_map(|j| &j.runnable)
                .map(|st| st.unlaunched_count())
                .sum();
            (snapshot.jobs.len(), unlaunched)
        } else {
            (0, 0)
        };
        // Scheduler wall-latency telemetry: feeds `sched_wall_secs`, which
        // is excluded from deterministic figure/obs output (DESIGN.md §7).
        #[expect(
            clippy::disallowed_methods,
            reason = "telemetry timing only, never in sim output"
        )]
        let started = Instant::now();
        let plans = self.scheduler.schedule(&snapshot);
        let wall_secs = started.elapsed().as_secs_f64();
        self.sched_wall_secs += wall_secs;
        self.sched_invocations += 1;
        self.snapshot_scratch = snapshot;
        let (rec_plans, rec_assignments) = if self.obs.is_enabled() {
            (plans.len(), plans.iter().map(|p| p.assignments.len()).sum())
        } else {
            (0, 0)
        };

        for plan in plans {
            #[expect(
                clippy::panic,
                reason = "schedulers plan only jobs from the snapshot the engine built"
            )]
            let j = *self
                .job_index
                .get(&plan.job)
                .unwrap_or_else(|| panic!("plan for unknown job {}", plan.job));
            let s = plan.stage;
            assert!(
                s < self.jobs[j].stages.len(),
                "plan for unknown stage {s} of {}",
                plan.job
            );
            if self.jobs[j].stages[s].status != StageStatus::Runnable {
                continue;
            }
            for a in plan.assignments {
                assert!(a.site.index() < self.cluster.len(), "bad site in plan");
                let task = &mut self.jobs[j].stages[s].tasks[a.task];
                if task.state == TaskState::Unlaunched {
                    // Queued events record first assignments and site moves;
                    // re-assignments to the same site would flood the stream
                    // without carrying information.
                    if task.assigned_site != Some(a.site) {
                        self.obs.task_event(
                            self.now,
                            j,
                            s,
                            a.task,
                            false,
                            TaskPhaseEvent::Queued,
                            a.site,
                        );
                    }
                    task.assigned_site = Some(a.site);
                    task.priority = a.priority;
                }
            }
        }
        let launched = self.dispatch();
        if self.obs.is_enabled() {
            self.obs.sched_record(SchedRecord {
                at: self.now,
                trigger,
                jobs: rec_jobs,
                unlaunched: rec_unlaunched,
                plans: rec_plans,
                assignments: rec_assignments,
                launched,
                wall_secs,
            });
        }
        launched
    }

    /// Fills free slots: at each site, launches assigned unlaunched tasks in
    /// priority order. Returns the number of tasks launched.
    #[allow(
        clippy::needless_range_loop,
        reason = "site indices address several parallel per-site vectors"
    )]
    fn dispatch(&mut self) -> usize {
        let n = self.cluster.len();
        // Collect launch candidates per site: (priority, j, s, t). The
        // per-site buckets and the per-site launch list are scratch fields so
        // steady-state dispatch reuses their capacity.
        let mut per_site = std::mem::take(&mut self.dispatch_scratch);
        per_site.resize_with(n, Vec::new);
        for bucket in &mut per_site {
            bucket.clear();
        }
        for (j, job) in self.jobs.iter().enumerate() {
            if !job.arrived || job.is_finished() {
                continue;
            }
            for (s, st) in job.stages.iter().enumerate() {
                if st.status != StageStatus::Runnable {
                    continue;
                }
                for (t, task) in st.tasks.iter().enumerate() {
                    if task.state == TaskState::Unlaunched {
                        if let Some(site) = task.assigned_site {
                            per_site[site.index()].push((task.priority, j, s, t));
                        }
                    }
                }
            }
        }
        let mut launched = 0;
        let mut list = std::mem::take(&mut self.launch_scratch);
        for site in 0..n {
            let free = self.cur_slots[site].saturating_sub(self.occupied[site]);
            if free == 0 || per_site[site].is_empty() {
                continue;
            }
            per_site[site].sort_unstable();
            let take = free.min(per_site[site].len());
            // Split the borrow: move the list out to launch against `self`.
            list.clear();
            list.extend(per_site[site].drain(..take));
            for &(_, j, s, t) in &list {
                self.launch(j, s, t, SiteId(site), None);
                launched += 1;
            }
        }
        list.clear();
        self.launch_scratch = list;
        self.dispatch_scratch = per_site;
        launched
    }

    /// Launches an attempt of task `(j, s, t)` at `site`, the original
    /// (`copy` is `None`) or a speculative copy: samples its duration,
    /// charges and starts its input flows (map: one source partition;
    /// reduce: a fetch from every site holding shuffle data) and begins
    /// compute immediately when all inputs are local.
    fn launch(&mut self, j: usize, s: usize, t: usize, site: SiteId, copy: Option<u64>) {
        self.occupy_slot(site);
        self.obs.task_event(
            self.now,
            j,
            s,
            t,
            copy.is_some(),
            TaskPhaseEvent::Fetching,
            site,
        );
        let kind = self.jobs[j].job.stages[s].kind;
        let mean = self.jobs[j].job.stages[s].task_secs;
        let secs = self.sample_duration(mean);

        // Open at most `max_fetch_concurrency` fetches immediately; the rest
        // queue behind them. All flows of a same-instant launch burst (an
        // n-source shuffle fan-out, or many tasks dispatched at one
        // scheduling point) enter the simulator before the next completion
        // query, so the whole burst costs one rate refresh.
        let mut fetches = std::mem::take(&mut self.fetch_scratch);
        self.collect_fetches(j, s, t, kind, site, &mut fetches);
        let cap = self.cfg.max_fetch_concurrency.max(1);
        let (mut pending, mut queued) = (Vec::new(), Vec::new());
        for (i, &(src, gb)) in fetches.iter().enumerate() {
            self.jobs[j].wan_gb += gb;
            if i < cap {
                let key = self.flows.add_flow(src, site, gb);
                self.set_flow_owner(key, (j, s, t, copy));
                pending.push(key);
            } else {
                queued.push((src, gb));
            }
        }
        self.fetch_scratch = fetches;
        let local = pending.is_empty();
        let mut a = Attempt {
            site,
            secs,
            phase: Phase::Fetching { pending, queued },
            copy,
        };
        if local {
            self.begin_compute(j, s, t, &mut a);
        }
        self.put_attempt(j, s, t, a);
    }

    /// Fills `fetches` with the remote inputs an attempt of task `(j, s, t)`
    /// running at `site` must pull over the WAN: a map task's home
    /// partition, or a reduce task's shuffle share from every other site.
    fn collect_fetches(
        &self,
        j: usize,
        s: usize,
        t: usize,
        kind: StageKind,
        site: SiteId,
        fetches: &mut Vec<(SiteId, f64)>,
    ) {
        fetches.clear();
        let task = &self.jobs[j].stages[s].tasks[t];
        match kind {
            StageKind::Map => {
                // A map task without a home partition (placeable-anywhere
                // snapshot) has nothing to pull over the WAN.
                if let Some(src) = task.input_site {
                    if src != site && task.input_gb > 1e-12 {
                        fetches.push((src, task.input_gb));
                    }
                }
            }
            StageKind::Reduce => {
                #[expect(
                    clippy::expect_used,
                    reason = "a reduce stage turns runnable only after its input is realized"
                )]
                let input = self.jobs[j].stages[s]
                    .input
                    .as_deref()
                    .expect("runnable stage has realized input");
                for x in 0..self.cluster.len() {
                    let vol = task.share * input.at(SiteId(x));
                    if SiteId(x) != site && vol > 1e-12 {
                        fetches.push((SiteId(x), vol));
                    }
                }
            }
        }
    }

    fn sample_duration(&mut self, mean: f64) -> f64 {
        let mut secs = mean;
        if self.cfg.duration_cv > 0.0 {
            let cv = self.cfg.duration_cv;
            let sigma2 = (1.0 + cv * cv).ln();
            #[expect(
                clippy::expect_used,
                reason = "duration_cv is set in code, not from input; a finite cv gives a finite sigma >= 0"
            )]
            let ln = LogNormal::new(-sigma2 / 2.0, sigma2.sqrt()).expect("valid lognormal");
            secs *= ln.sample(&mut self.rng);
        }
        if self.cfg.straggler_prob > 0.0 && self.rng.gen::<f64>() < self.cfg.straggler_prob {
            let (a, b) = self.cfg.straggler_mult;
            secs *= self.rng.gen_range(a..=b);
        }
        secs.max(1e-9)
    }

    /// Launches speculative copies for straggling tasks (§8): any task
    /// computing longer than `threshold` × its stage estimate gets a copy at
    /// the free-est site, bounded by `max_copies_frac` live copies per
    /// stage. The first finisher wins; the loser is cancelled.
    fn maybe_speculate(&mut self) {
        let Some(spec) = self.cfg.speculation else {
            return;
        };
        let n = self.cluster.len();
        let mut candidates: Vec<(usize, usize, usize)> = Vec::new();
        for (j, job) in self.jobs.iter().enumerate() {
            if !job.arrived || job.is_finished() {
                continue;
            }
            for (si, st) in job.stages.iter().enumerate() {
                if st.status != StageStatus::Runnable {
                    continue;
                }
                let live = self.copies.range((j, si, 0)..(j, si + 1, 0)).count();
                let mut budget =
                    copy_cap(st.tasks.len(), spec.max_copies_frac).saturating_sub(live);
                for (t, task) in st.tasks.iter().enumerate() {
                    if budget == 0 {
                        break;
                    }
                    let straggling = matches!(
                        &task.state,
                        TaskState::Running(Attempt {
                            phase: Phase::Computing { started, .. },
                            ..
                        }) if self.now - started > spec.threshold * st.est_task_secs
                    ) && !self.copies.contains_key(&(j, si, t));
                    if straggling {
                        candidates.push((j, si, t));
                        budget -= 1;
                    }
                }
            }
        }
        for (j, si, t) in candidates {
            // Free-est site; skip speculation when the cluster is full.
            let Some(site) = (0..n)
                .max_by_key(|&x| self.cur_slots[x].saturating_sub(self.occupied[x]))
                .filter(|&x| self.cur_slots[x] > self.occupied[x])
            else {
                return;
            };
            let id = self.next_copy_id;
            self.next_copy_id += 1;
            self.copies_launched += 1;
            self.obs.copy_launched();
            self.launch(j, si, t, SiteId(site), Some(id));
        }
    }

    /// Takes attempt `copy` of task `(j, s, t)` out of the engine: the
    /// original (`None`) out of the task's state, a copy out of the
    /// live-copy map if its id still matches. [`Engine::put_attempt`] puts
    /// it back.
    fn take_attempt(&mut self, j: usize, s: usize, t: usize, copy: Option<u64>) -> Option<Attempt> {
        if copy.is_none() {
            return self.jobs[j].stages[s].tasks[t].state.take_running();
        }
        let live = self.copies.get(&(j, s, t)).is_some_and(|a| a.copy == copy);
        live.then(|| self.copies.remove(&(j, s, t))).flatten()
    }

    /// Stores running attempt `a` of task `(j, s, t)`: the original in the
    /// task's state, a copy in the live-copy map.
    fn put_attempt(&mut self, j: usize, s: usize, t: usize, a: Attempt) {
        if a.copy.is_none() {
            self.jobs[j].stages[s].tasks[t].state = TaskState::Running(a);
        } else {
            self.copies.insert((j, s, t), a);
        }
    }

    /// Releases what attempt `a` of a task of job `j` holds when it will
    /// never finish: refunds the WAN it was charged for but will not move
    /// (the unsent remainder of in-flight fetches, and the fetches still
    /// queued behind the concurrency cap, both charged in full at launch)
    /// and frees its slot.
    fn release(&mut self, j: usize, a: Attempt) {
        if let Phase::Fetching { pending, queued } = a.phase {
            for key in pending {
                let unsent = self.flows.remove_flow(key);
                self.take_flow_owner(key);
                self.jobs[j].wan_gb -= unsent;
            }
            for (_, gb) in queued {
                self.jobs[j].wan_gb -= gb;
            }
        }
        self.vacate_slot(a.site);
    }

    /// Cancels attempt `a` of task `(j, s, t)`: the other attempt won, or
    /// `a` is a copy at a site that went down.
    fn cancel(&mut self, j: usize, s: usize, t: usize, a: Attempt) {
        let (site, copy) = (a.site, a.copy.is_some());
        self.release(j, a);
        self.obs.attempt_cancelled();
        self.obs
            .task_event(self.now, j, s, t, copy, TaskPhaseEvent::Cancelled, site);
    }

    /// Fills `out` with the current cluster and job state, reusing the
    /// caller's top-level buffers instead of allocating a fresh snapshot per
    /// scheduling instance.
    fn fill_snapshot(&mut self, out: &mut Snapshot) {
        // Report *available* bandwidth: capacity minus what in-flight flows
        // currently consume (the paper measures available bandwidth rather
        // than configured capacity, §5). A 5% floor keeps the placement
        // models finite when a link is saturated.
        let (mut up_used, mut down_used) = std::mem::take(&mut self.usage_scratch);
        self.flows.link_usage_into(&mut up_used, &mut down_used);
        out.now = self.now;
        out.sites.clear();
        out.sites.extend((0..self.cluster.len()).map(|s| {
            SiteState {
                slots: self.cur_slots[s],
                free_slots: self.cur_slots[s].saturating_sub(self.occupied[s]),
                // The extra 1e-4 floor only bites when a dynamics event zeroed
                // the link outright; it keeps scheduler transfer-time models
                // finite (no 0/0) without perturbing healthy-link reports.
                // The floor must sit well above the LP solvers' 1e-9 pivot
                // tolerance: a dead-link bandwidth near the tolerance after
                // row normalization makes feasibility of the placement model
                // numerically ambiguous, and pivots on such entries amplify
                // roundoff past the tolerance. At 1e-4 GB/s a "dead" link
                // still needs ~1e4 s per GB — far beyond any realized
                // makespan — so placements are unaffected.
                up_gbps: (self.cur_up[s] - up_used[s])
                    .max(self.cur_up[s] * 0.05)
                    .max(1e-4),
                down_gbps: (self.cur_down[s] - down_used[s])
                    .max(self.cur_down[s] * 0.05)
                    .max(1e-4),
            }
        }));
        self.usage_scratch = (up_used, down_used);
        out.jobs.clear();
        for job in &self.jobs {
            if !job.arrived || job.is_finished() {
                continue;
            }
            let runnable = job
                .stages
                .iter()
                .enumerate()
                .filter(|(_, st)| st.status == StageStatus::Runnable)
                .map(|(si, st)| self.stage_snapshot(&job.job, si, st))
                .collect();
            let stages = job
                .job
                .stages
                .iter()
                .zip(&job.stages)
                .map(|(spec, rt)| crate::sched::StageMeta {
                    kind: spec.kind,
                    deps: spec.deps.clone(),
                    num_tasks: spec.num_tasks,
                    task_secs: spec.task_secs,
                    output_ratio: spec.output_ratio,
                    done: rt.status == StageStatus::Done,
                })
                .collect();
            out.jobs.push(JobSnapshot {
                id: job.job.id,
                arrival: job.job.arrival,
                total_stages: job.stages.len(),
                remaining_stages: job.stages.len() - job.done_stages,
                stages,
                runnable,
            });
        }
    }

    fn stage_snapshot(&self, job: &Job, si: usize, st: &StageRt) -> StageSnapshot {
        let tasks = st
            .tasks
            .iter()
            .enumerate()
            .map(|(i, task)| {
                let (phase, running_site) = match &task.state {
                    TaskState::Unlaunched => (TaskPhase::Unlaunched, None),
                    TaskState::Running(a) => (TaskPhase::Running, Some(a.site)),
                    TaskState::Done(site) => (TaskPhase::Done, *site),
                };
                TaskSnapshot {
                    index: i,
                    phase,
                    input_site: task.input_site,
                    input_gb: task.input_gb,
                    share: task.share,
                    running_site,
                }
            })
            .collect();
        StageSnapshot {
            stage_index: si,
            kind: job.stages[si].kind,
            est_task_secs: st.est_task_secs,
            num_tasks: st.tasks.len(),
            input_gb: st
                .input
                .as_ref()
                .map(|d| d.as_slice().to_vec())
                .unwrap_or_default(),
            tasks,
        }
    }

    /// Builds the outcome record for a finished job.
    ///
    /// # Panics
    ///
    /// Panics if the job has not finished.
    fn job_outcome(j: &JobRt) -> JobOutcome {
        #[expect(
            clippy::expect_used,
            reason = "drain_finished filters on finished_at; into_report runs after an Ok step_until_idle"
        )]
        let finished = j.finished_at.expect("job outcome requires completion");
        let input_skew = j
            .job
            .stages
            .iter()
            .filter_map(|s| s.input.as_ref())
            .map(|d| d.skew_cv())
            .fold(0.0f64, f64::max);
        let est_error = {
            let errs: Vec<f64> = j
                .stages
                .iter()
                .zip(&j.job.stages)
                .filter(|(_, spec)| spec.task_secs > 0.0)
                .map(|(rt, spec)| ((rt.est_task_secs - spec.task_secs) / spec.task_secs).abs())
                .collect();
            if errs.is_empty() {
                0.0
            } else {
                errs.iter().sum::<f64>() / errs.len() as f64
            }
        };
        let outcome = JobOutcome {
            id: j.job.id,
            name: j.job.name.clone(),
            arrival: j.job.arrival,
            finished,
            response: finished - j.job.arrival,
            wan_gb: j.wan_gb,
            num_stages: j.job.num_stages(),
            total_tasks: j.job.total_tasks(),
            input_gb: j.job.input_gb(),
            intermediate_gb: j.job.expected_intermediate_gb(),
            input_skew_cv: input_skew,
            est_error,
            stage_spans: j
                .stages
                .iter()
                .map(|st| {
                    (
                        st.activated_at.unwrap_or(f64::NAN),
                        st.finished_at.unwrap_or(f64::NAN),
                    )
                })
                .collect(),
        };
        outcome.debug_assert_finite();
        outcome
    }

    /// Finalizes the run into a [`RunReport`]. Called by [`Engine::run`];
    /// also the terminal step for a front end that drove the engine through
    /// [`Engine::step_until_idle`].
    ///
    /// # Panics
    ///
    /// Panics if any admitted job is unfinished — only call after
    /// `step_until_idle` returned `Ok`.
    pub fn into_report(self) -> RunReport {
        let mut jobs = Vec::with_capacity(self.jobs.len());
        for j in &self.jobs {
            jobs.push(Self::job_outcome(j));
        }
        let makespan = jobs.iter().map(|j| j.finished).fold(0.0f64, f64::max);
        RunReport {
            scheduler: self.scheduler.name().to_string(),
            jobs,
            makespan,
            total_wan_gb: self.flows.total_wan_gb(),
            sched_invocations: self.sched_invocations,
            sched_wall_secs: self.sched_wall_secs,
            copies_launched: self.copies_launched,
            copies_won: self.copies_won,
            task_failures: self.task_failures,
            dynamics_events: self.dynamics_applied,
            obs: self.obs.finish(),
        }
    }
}

/// Runtime invariant auditing (feature `audit`, DESIGN.md §10): after every
/// processed event the engine re-derives its conservation invariants from
/// scratch and compares them with the incrementally maintained state,
/// panicking with the event context on the first divergence. The auditor is
/// read-only — it never influences the simulation, so an audit build
/// produces byte-identical output to a normal build (just slower).
#[cfg(feature = "audit")]
impl Engine {
    fn audit_check(&mut self, ctx: &str) {
        // 1. Event-time monotonicity, and the engine/flow clocks agree
        //    bitwise (every event path funnels through `advance_to`).
        self.auditor.check_time(self.now, ctx);
        assert!(
            self.flows.now().to_bits() == self.now.to_bits(),
            "audit[{ctx}]: engine clock {} != flow clock {}",
            self.now,
            self.flows.now()
        );
        // 2. No pending heap event sits in the past.
        if let Some(t) = self.events.peek_time() {
            assert!(
                t >= self.now,
                "audit[{ctx}]: event heap holds a past event at t={t} (now {})",
                self.now
            );
        }

        // 3. Slot-occupancy conservation: the per-site occupancy counters
        //    must equal the running attempts (originals and live copies)
        //    recounted from scratch. A live copy's task is never done: the
        //    winner cancels the other attempt before the task completes.
        let n = self.cluster.len();
        let mut running = vec![0usize; n];
        let originals = self
            .jobs
            .iter()
            .flat_map(|j| &j.stages)
            .flat_map(|st| &st.tasks)
            .filter_map(|task| match &task.state {
                TaskState::Running(a) => Some(a),
                _ => None,
            });
        let attempts: Vec<&Attempt> = originals.chain(self.copies.values()).collect();
        for a in &attempts {
            running[a.site.index()] += 1;
        }
        for &(j, s, t) in self.copies.keys() {
            assert!(
                !matches!(self.jobs[j].stages[s].tasks[t].state, TaskState::Done(_)),
                "audit[{ctx}]: task {:?} is done but its copy still runs at t={}",
                (j, s, t),
                self.now
            );
        }
        for s in 0..n {
            assert!(
                self.occupied[s] == running[s],
                "audit[{ctx}]: site {s} occupancy {} != running attempts {} \
                 (occupied={:?}, recount={:?}) at t={}",
                self.occupied[s],
                running[s],
                self.occupied,
                running,
                self.now
            );
        }

        // 4. Every open flow's owner is a live attempt, fetching, with that
        //    flow in its pending list (teardown removes flows with their
        //    owners, so a finished flow always finds its attempt).
        for (i, owner) in self.flow_owner.iter().enumerate() {
            let Some((j, s, t, copy)) = *owner else {
                continue;
            };
            let a = match copy {
                None => match &self.jobs[j].stages[s].tasks[t].state {
                    TaskState::Running(a) => Some(a),
                    _ => None,
                },
                Some(_) => self.copies.get(&(j, s, t)).filter(|a| a.copy == copy),
            };
            assert!(
                matches!(a, Some(Attempt { phase: Phase::Fetching { pending, .. }, .. })
                    if pending.iter().any(|k| k.index() == i)),
                "audit[{ctx}]: flow {i} is owned by {:?} (copy {copy:?}), which is not \
                 fetching it at t={}",
                (j, s, t),
                self.now
            );
        }

        // 5. Retry-budget monotonicity per task.
        for (j, job) in self.jobs.iter().enumerate() {
            for (s, st) in job.stages.iter().enumerate() {
                for (t, task) in st.tasks.iter().enumerate() {
                    self.auditor.check_retry(
                        (j, s, t),
                        task.retries,
                        self.cfg.max_task_retries,
                        ctx,
                    );
                }
            }
        }

        // 6. WAN-ledger conservation: per-job charges (made in full at
        //    launch) must equal the flow simulator's ledger plus the queued
        //    fetches that have not opened a flow yet. Every refund for a
        //    torn-down attempt must have been given back exactly once for
        //    this to hold mid-run.
        let per_job: f64 = self.jobs.iter().map(|j| j.wan_gb).sum();
        let mut queued_gb = 0.0f64;
        for a in &attempts {
            if let Phase::Fetching { queued, .. } = &a.phase {
                queued_gb += queued.iter().map(|&(_, gb)| gb).sum::<f64>();
            }
        }
        let flowsim_gb = self.flows.total_wan_gb();
        let expect = flowsim_gb + queued_gb;
        assert!(
            (per_job - expect).abs() <= 1e-6 * (1.0 + expect.abs()),
            "audit[{ctx}]: WAN ledger diverged: per-job charges {per_job} != \
             flowsim {flowsim_gb} + queued {queued_gb} at t={}",
            self.now
        );

        // 7. Flow-level invariants (bit-exact waterfill, link conservation,
        //    per-flow byte conservation).
        self.flows.audit(ctx);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::sched::{StagePlan, TaskAssignment};
    use tetrium_cluster::{DataDistribution, DynamicsEvent, Site};
    use tetrium_jobs::JobId;

    /// The serve front end moves engines onto pool threads; this fails to
    /// compile if anything engine-reachable regresses to `Rc`/`RefCell`.
    #[test]
    fn engine_is_send() {
        fn assert_send<T: Send>() {}
        assert_send::<Engine>();
    }

    /// A minimal site-locality scheduler used to exercise the engine: map
    /// tasks run where their partition lives, reduce tasks run proportional
    /// to intermediate data, FIFO priorities.
    struct LocalScheduler;

    impl Scheduler for LocalScheduler {
        fn name(&self) -> &str {
            "test-local"
        }

        fn schedule(&mut self, snap: &Snapshot) -> Vec<StagePlan> {
            let mut plans = Vec::new();
            for job in &snap.jobs {
                for st in &job.runnable {
                    let mut assignments = Vec::new();
                    for task in st.unlaunched() {
                        let site = match st.kind {
                            StageKind::Map => task.input_site.unwrap(),
                            StageKind::Reduce => {
                                // Largest-input site.
                                let mut best = 0;
                                for (i, v) in st.input_gb.iter().enumerate() {
                                    if *v > st.input_gb[best] {
                                        best = i;
                                    }
                                }
                                SiteId(best)
                            }
                        };
                        assignments.push(TaskAssignment {
                            task: task.index,
                            site,
                            priority: task.index as i64,
                        });
                    }
                    plans.push(StagePlan {
                        job: job.id,
                        stage: st.stage_index,
                        assignments,
                    });
                }
            }
            plans
        }
    }

    fn cluster2() -> Cluster {
        Cluster::new(vec![
            Site::new("a", 2, 1.0, 1.0),
            Site::new("b", 1, 1.0, 1.0),
        ])
    }

    #[test]
    fn single_map_job_runs_locally_with_waves() {
        // 4 map tasks of 1 s at site a (2 slots) -> 2 waves -> 2 s.
        let input = DataDistribution::new(vec![4.0, 0.0]);
        let job = Job::new(
            JobId(0),
            "m",
            0.0,
            vec![tetrium_jobs::Stage::root_map(input, 4, 1.0, 0.5)],
        );
        let report = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig::default(),
        )
        .run()
        .unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert!((report.jobs[0].response - 2.0).abs() < 1e-9);
        assert_eq!(report.total_wan_gb, 0.0);
    }

    #[test]
    fn map_reduce_shuffle_crosses_wan() {
        // Input at both sites; reduce runs at the larger site and fetches
        // the remote half over the WAN.
        let input = DataDistribution::new(vec![2.0, 2.0]);
        let job = Job::map_reduce(JobId(0), "mr", 0.0, input, 2, 1.0, 0.5, 1, 1.0);
        let report = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig::default(),
        )
        .run()
        .unwrap();
        // Map: 1 s (local, parallel). Intermediate: 1 GB per site. Reduce at
        // site a fetches 1 GB at 1 GB/s = 1 s, computes 1 s. Total 3 s.
        assert!((report.jobs[0].response - 3.0).abs() < 1e-9);
        assert!((report.total_wan_gb - 1.0).abs() < 1e-9);
        assert!((report.jobs[0].wan_gb - 1.0).abs() < 1e-9);
    }

    #[test]
    fn two_jobs_contend_for_slots() {
        let mk = |id: usize, arrival: f64| {
            Job::new(
                JobId(id),
                format!("j{id}"),
                arrival,
                vec![tetrium_jobs::Stage::root_map(
                    DataDistribution::new(vec![0.0, 2.0]),
                    2,
                    1.0,
                    1.0,
                )],
            )
        };
        let report = Engine::new(
            cluster2(),
            vec![mk(0, 0.0), mk(1, 0.0)],
            Box::new(LocalScheduler),
            EngineConfig::default(),
        )
        .run()
        .unwrap();
        // Site b has 1 slot; 4 tasks of 1 s -> makespan 4 s.
        assert!((report.makespan - 4.0).abs() < 1e-9);
    }

    #[test]
    fn capacity_drop_mid_run_slows_job() {
        // 4 tasks, 2 slots at site a; after 1 s the site drops to 1 slot,
        // so the remaining 2 tasks serialize: finish at 3 s instead of 2 s.
        let input = DataDistribution::new(vec![4.0, 0.0]);
        let job = Job::new(
            JobId(0),
            "m",
            0.0,
            vec![tetrium_jobs::Stage::root_map(input, 4, 1.0, 0.5)],
        );
        let report = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig::default(),
        )
        .with_dynamics(DynamicsTimeline::new(vec![DynamicsEvent::new(
            SiteId(0),
            0.5,
            DynamicsChange::Capacity { keep: 0.5 },
        )]))
        .run()
        .unwrap();
        assert!(
            (report.jobs[0].response - 3.0).abs() < 1e-9,
            "response {}",
            report.jobs[0].response
        );
    }

    #[test]
    fn deterministic_across_runs() {
        let input = DataDistribution::new(vec![3.0, 2.0]);
        let mk = || Job::map_reduce(JobId(0), "mr", 0.0, input.clone(), 5, 1.0, 0.5, 3, 1.0);
        let cfg = EngineConfig {
            duration_cv: 0.3,
            straggler_prob: 0.2,
            seed: 9,
            ..EngineConfig::default()
        };
        let r1 = Engine::new(
            cluster2(),
            vec![mk()],
            Box::new(LocalScheduler),
            cfg.clone(),
        )
        .run()
        .unwrap();
        let r2 = Engine::new(cluster2(), vec![mk()], Box::new(LocalScheduler), cfg)
            .run()
            .unwrap();
        assert_eq!(r1.jobs[0].response, r2.jobs[0].response);
        assert_eq!(r1.total_wan_gb, r2.total_wan_gb);
    }

    #[test]
    fn incremental_driving_matches_batch_run_bitwise() {
        // `run()` is seed + one `step_until_idle`; driving the same jobs
        // through `submit_job` between idle points must produce bitwise
        // identical outcomes when every submission lands at its arrival
        // time (job 1 arrives at t=4.0, after job 0's 4 s makespan, so
        // submitting it post-idle does not clamp its arrival).
        let input = DataDistribution::new(vec![3.0, 2.0]);
        let mk = |id: usize, arrival: f64| {
            Job::map_reduce(
                JobId(id),
                format!("j{id}"),
                arrival,
                input.clone(),
                5,
                1.0,
                0.5,
                3,
                1.0,
            )
        };
        let cfg = EngineConfig {
            duration_cv: 0.3,
            straggler_prob: 0.2,
            seed: 9,
            ..EngineConfig::default()
        };

        let batch = Engine::new(
            cluster2(),
            vec![mk(0, 0.0)],
            Box::new(LocalScheduler),
            cfg.clone(),
        )
        .run()
        .unwrap();

        let mut eng = Engine::new(cluster2(), vec![], Box::new(LocalScheduler), cfg);
        eng.seed_initial_events();
        assert!(eng.drain_finished().is_empty());
        eng.submit_job(mk(0, 0.0));
        eng.step_until_idle().unwrap();
        let drained = eng.drain_finished();
        assert_eq!(drained.len(), 1);
        assert_eq!(
            drained[0].response.to_bits(),
            batch.jobs[0].response.to_bits()
        );
        assert!(eng.drain_finished().is_empty(), "drain is once-only");

        // A second job admitted after idle runs on the same engine; its
        // outcome must match a fresh single-job run whose arrival equals
        // the admission time (an idle engine carries no residual state
        // other than the clock and RNG consumption — the latter only
        // matters under nonzero duration_cv, so pin a fresh-RNG config).
        let t_resume = eng.now();
        eng.submit_job(mk(1, t_resume));
        eng.step_until_idle().unwrap();
        let second = eng.drain_finished();
        assert_eq!(second.len(), 1);
        assert_eq!(second[0].id, JobId(1));
        assert!(second[0].finished > t_resume);
        let report = eng.into_report();
        assert_eq!(report.jobs.len(), 2);
        assert_eq!(
            report.jobs[0].response.to_bits(),
            batch.jobs[0].response.to_bits()
        );
    }

    #[test]
    fn submit_job_clamps_past_arrivals_to_now() {
        let input = DataDistribution::new(vec![2.0, 0.0]);
        let mk = |id: usize, arrival: f64| {
            Job::new(
                JobId(id),
                format!("j{id}"),
                arrival,
                vec![tetrium_jobs::Stage::root_map(input.clone(), 2, 1.0, 0.5)],
            )
        };
        let mut eng = Engine::new(
            cluster2(),
            vec![mk(0, 0.0)],
            Box::new(LocalScheduler),
            EngineConfig::default(),
        );
        eng.seed_initial_events();
        eng.step_until_idle().unwrap();
        let t = eng.now();
        assert!(t > 0.0);
        // Nominal arrival 0.0 is in the engine's past; admission clamps it.
        eng.submit_job(mk(1, 0.0));
        eng.step_until_idle().unwrap();
        let report = eng.into_report();
        assert_eq!(report.jobs[1].arrival.to_bits(), t.to_bits());
        assert!(report.jobs[1].finished >= t);
    }

    #[test]
    fn speculation_rescues_or_completes_cleanly() {
        use crate::config::SpeculationConfig;
        // Forced stragglers with a huge multiplier spread: copies resample
        // their duration and often win. The run must stay consistent either
        // way (no double completion, slots balanced, WAN non-negative).
        let input = DataDistribution::new(vec![4.0, 4.0]);
        let job = Job::map_reduce(JobId(0), "spec", 0.0, input, 8, 1.0, 0.5, 4, 1.0);
        let cluster = Cluster::new(vec![
            Site::new("a", 6, 1.0, 1.0),
            Site::new("b", 6, 1.0, 1.0),
        ]);
        let cfg = EngineConfig {
            straggler_prob: 0.6,
            straggler_mult: (5.0, 60.0),
            speculation: Some(SpeculationConfig {
                threshold: 1.5,
                max_copies_frac: 0.5,
            }),
            batch: crate::config::BatchPolicy::Fixed(0.5),
            seed: 3,
            ..EngineConfig::default()
        };
        let report = Engine::new(cluster, vec![job], Box::new(LocalScheduler), cfg)
            .run()
            .unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert!(
            report.copies_launched > 0,
            "stragglers should trigger copies"
        );
        assert!(report.copies_won <= report.copies_launched);
        assert!(report.jobs[0].wan_gb >= 0.0);
    }

    #[test]
    fn speculation_off_launches_no_copies() {
        let input = DataDistribution::new(vec![2.0, 2.0]);
        let job = Job::map_reduce(JobId(0), "nospec", 0.0, input, 4, 1.0, 0.5, 2, 1.0);
        let report = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig {
                straggler_prob: 1.0,
                straggler_mult: (10.0, 20.0),
                seed: 1,
                ..EngineConfig::default()
            },
        )
        .run()
        .unwrap();
        assert_eq!(report.copies_launched, 0);
        assert_eq!(report.copies_won, 0);
    }

    #[test]
    fn task_records_capture_every_task() {
        let input = DataDistribution::new(vec![2.0, 2.0]);
        let job = Job::map_reduce(JobId(0), "tr", 0.0, input, 4, 1.0, 0.5, 2, 1.0);
        let report = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig {
                record_obs: true,
                ..EngineConfig::default()
            },
        )
        .run()
        .unwrap();
        let records = report.obs.unwrap().task_records();
        assert_eq!(records.len(), 6);
        for t in &records {
            assert!(t.finished_at >= t.compute_started);
            assert!(t.compute_started >= t.launched_at - 1e-9);
            assert!(!t.was_copy);
        }
    }

    #[test]
    fn failure_injection_rexecutes_until_done() {
        let input = DataDistribution::new(vec![3.0, 3.0]);
        let job = Job::map_reduce(JobId(0), "flaky", 0.0, input, 6, 1.0, 0.5, 3, 1.0);
        let report = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig {
                failure_prob: 0.3,
                seed: 17,
                ..EngineConfig::default()
            },
        )
        .run()
        .unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert!(
            report.task_failures > 0,
            "p=0.3 over 9 tasks should fail some"
        );
        // Every failure adds at least one task re-execution worth of time.
        assert!(report.jobs[0].response > 2.0);
        // No failures => counter stays zero.
        let input = DataDistribution::new(vec![3.0, 3.0]);
        let job = Job::map_reduce(JobId(0), "solid", 0.0, input, 6, 1.0, 0.5, 3, 1.0);
        let clean = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig::default(),
        )
        .run()
        .unwrap();
        assert_eq!(clean.task_failures, 0);
    }

    #[test]
    fn failures_and_speculation_compose() {
        use crate::config::SpeculationConfig;
        let input = DataDistribution::new(vec![4.0, 4.0]);
        let job = Job::map_reduce(JobId(0), "chaos", 0.0, input, 8, 1.0, 0.5, 4, 1.0);
        let cluster = Cluster::new(vec![
            Site::new("a", 6, 1.0, 1.0),
            Site::new("b", 6, 1.0, 1.0),
        ]);
        let report = Engine::new(
            cluster,
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig {
                failure_prob: 0.2,
                straggler_prob: 0.4,
                straggler_mult: (4.0, 30.0),
                speculation: Some(SpeculationConfig {
                    threshold: 1.5,
                    max_copies_frac: 0.5,
                }),
                batch: crate::config::BatchPolicy::Fixed(0.5),
                seed: 23,
                ..EngineConfig::default()
            },
        )
        .run()
        .unwrap();
        assert_eq!(report.jobs.len(), 1);
        assert!(report.jobs[0].response.is_finite());
    }

    #[test]
    fn stalled_scheduler_is_reported() {
        struct NullScheduler;
        impl Scheduler for NullScheduler {
            fn name(&self) -> &str {
                "null"
            }
            fn schedule(&mut self, _s: &Snapshot) -> Vec<StagePlan> {
                Vec::new()
            }
        }
        let input = DataDistribution::new(vec![1.0, 0.0]);
        let job = Job::new(
            JobId(0),
            "m",
            0.0,
            vec![tetrium_jobs::Stage::root_map(input, 1, 1.0, 1.0)],
        );
        let err = Engine::new(
            cluster2(),
            vec![job],
            Box::new(NullScheduler),
            EngineConfig::default(),
        )
        .run()
        .unwrap_err();
        assert_eq!(err, SimError::Stalled { unfinished: 1 });
    }

    /// Speculation + capped fetch concurrency: a copy (or a cancelled
    /// original) leaves fetches *queued* behind the cap, which are charged
    /// to the job at launch but never reach the flow simulator. The refund
    /// paths must give those back, keeping per-job accounting in lockstep
    /// with `FlowSim::total_wan_gb`.
    #[test]
    fn speculation_with_capped_fetches_keeps_wan_accounting_exact() {
        use crate::config::SpeculationConfig;
        let cluster = Cluster::new(vec![
            Site::new("a", 8, 1.0, 1.0),
            Site::new("b", 8, 1.0, 1.0),
            Site::new("c", 8, 1.0, 1.0),
        ]);
        // Input on all three sites so every reduce task fetches from two
        // remote sites; with the cap at 1 one of them always queues.
        let input = DataDistribution::new(vec![4.0, 4.0, 4.0]);
        let mut copies_seen = 0;
        for seed in 0..8 {
            let job = Job::map_reduce(JobId(0), "capped", 0.0, input.clone(), 9, 1.0, 0.8, 6, 1.0);
            let report = Engine::new(
                cluster.clone(),
                vec![job],
                Box::new(LocalScheduler),
                EngineConfig {
                    straggler_prob: 0.6,
                    straggler_mult: (5.0, 60.0),
                    speculation: Some(SpeculationConfig {
                        threshold: 1.5,
                        max_copies_frac: 0.5,
                    }),
                    max_fetch_concurrency: 1,
                    batch: crate::config::BatchPolicy::Fixed(0.5),
                    seed,
                    ..EngineConfig::default()
                },
            )
            .run()
            .unwrap();
            copies_seen += report.copies_won;
            let per_job: f64 = report.jobs.iter().map(|j| j.wan_gb).sum();
            assert!(
                (per_job - report.total_wan_gb).abs() < 1e-6,
                "seed {seed}: per-job wan {per_job} != flowsim wan {}",
                report.total_wan_gb
            );
        }
        assert!(copies_seen > 0, "no seed produced a winning copy");
    }

    #[test]
    fn obs_recording_captures_run_and_is_off_by_default() {
        let mk = || {
            let input = DataDistribution::new(vec![2.0, 2.0]);
            Job::map_reduce(JobId(0), "obs", 0.0, input, 4, 1.0, 0.5, 2, 1.0)
        };
        let report = Engine::new(
            cluster2(),
            vec![mk()],
            Box::new(LocalScheduler),
            EngineConfig {
                record_obs: true,
                ..EngineConfig::default()
            },
        )
        .run()
        .unwrap();
        let obs = report.obs.expect("record_obs captures a report");
        // Every task produced a Done event; none was a copy.
        let done = obs
            .task_events
            .iter()
            .filter(|e| e.phase == TaskPhaseEvent::Done)
            .count();
        assert_eq!(done, 6);
        // Slot occupancy returned to zero everywhere and integrates to a
        // positive busy time at the active sites.
        for tl in &obs.slot_timeline {
            if let Some(&(_, occ)) = tl.last() {
                assert_eq!(occ, 0);
            }
        }
        assert!(obs.busy_secs(report.makespan).iter().sum::<f64>() > 0.0);
        // The WAN pair matrix reconciles with the flow simulator's ledger.
        assert!((obs.total_wan_gb() - report.total_wan_gb).abs() < 1e-9);
        // Scheduling instances were recorded with their triggers.
        assert_eq!(obs.sched.len(), report.sched_invocations);
        assert_eq!(obs.sched[0].trigger, Trigger::JobArrival);
        assert!(obs.sched.iter().any(|s| s.launched > 0));

        let off = Engine::new(
            cluster2(),
            vec![mk()],
            Box::new(LocalScheduler),
            EngineConfig::default(),
        )
        .run()
        .unwrap();
        assert!(off.obs.is_none());
    }

    #[test]
    fn recovery_restores_parallelism() {
        use tetrium_cluster::{DynamicsChange, DynamicsEvent, DynamicsTimeline};
        // 4 tasks, 2 slots at site a. Dropping to 1 slot at 0.5 s alone
        // serializes the second wave (3 s); recovering at 1.0 s restores
        // both slots exactly when the wave ends, so the run finishes in 2 s.
        let mk = || {
            let input = DataDistribution::new(vec![4.0, 0.0]);
            Job::new(
                JobId(0),
                "m",
                0.0,
                vec![tetrium_jobs::Stage::root_map(input, 4, 1.0, 0.5)],
            )
        };
        let timeline = DynamicsTimeline::new(vec![
            DynamicsEvent::new(SiteId(0), 0.5, DynamicsChange::Capacity { keep: 0.5 }),
            DynamicsEvent::new(SiteId(0), 1.0, DynamicsChange::Recover),
        ]);
        let report = Engine::new(
            cluster2(),
            vec![mk()],
            Box::new(LocalScheduler),
            EngineConfig::default(),
        )
        .with_dynamics(timeline)
        .run()
        .unwrap();
        assert!(
            (report.jobs[0].response - 2.0).abs() < 1e-9,
            "response {}",
            report.jobs[0].response
        );
        assert_eq!(report.dynamics_events, 2);
    }

    /// A drop below the running task count must clamp and drain: occupancy
    /// stays accurate, no slot count goes negative, and no new task launches
    /// until enough running attempts finish.
    #[test]
    fn slot_drop_below_occupancy_clamps_and_drains() {
        use tetrium_cluster::{DynamicsChange, DynamicsEvent, DynamicsTimeline};
        // 6 tasks of 1 s, 2 slots. At 0.5 s the site keeps 1 slot while 2
        // attempts still run (occupied > capacity). They drain at 1.0 s;
        // the remaining 4 serialize on the single slot: 2, 3, 4, 5 s.
        let input = DataDistribution::new(vec![6.0, 0.0]);
        let job = Job::new(
            JobId(0),
            "m",
            0.0,
            vec![tetrium_jobs::Stage::root_map(input, 6, 1.0, 0.5)],
        );
        let timeline = DynamicsTimeline::new(vec![DynamicsEvent::new(
            SiteId(0),
            0.5,
            DynamicsChange::Capacity { keep: 0.5 },
        )]);
        let report = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig {
                record_obs: true,
                ..EngineConfig::default()
            },
        )
        .with_dynamics(timeline)
        .run()
        .unwrap();
        assert!(
            (report.jobs[0].response - 5.0).abs() < 1e-9,
            "response {}",
            report.jobs[0].response
        );
        let obs = report.obs.expect("obs recorded");
        let tl = &obs.slot_timeline[0];
        // Never oversubscribed beyond the pre-drop capacity, and once the
        // drop's drain completes occupancy never exceeds the clamped count.
        assert!(tl.iter().all(|&(_, occ)| occ <= 2));
        assert!(tl
            .iter()
            .filter(|&&(at, _)| at > 1.0 + 1e-9)
            .all(|&(_, occ)| occ <= 1));
        assert_eq!(tl.last().unwrap().1, 0);
    }

    #[test]
    fn outage_fails_running_tasks_and_recovery_completes_the_job() {
        use tetrium_cluster::{DynamicsChange, DynamicsEvent, DynamicsTimeline};
        // 4 local map tasks at site a. The outage at 0.5 s kills the two
        // running attempts; the site is dead until 1.5 s, then all four
        // tasks run from scratch in two waves: done at 3.5 s.
        let input = DataDistribution::new(vec![4.0, 0.0]);
        let job = Job::new(
            JobId(0),
            "m",
            0.0,
            vec![tetrium_jobs::Stage::root_map(input, 4, 1.0, 0.5)],
        );
        let timeline = DynamicsTimeline::new(vec![
            DynamicsEvent::new(SiteId(0), 0.5, DynamicsChange::Outage),
            DynamicsEvent::new(SiteId(0), 1.5, DynamicsChange::Recover),
        ]);
        let report = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig {
                record_obs: true,
                ..EngineConfig::default()
            },
        )
        .with_dynamics(timeline)
        .run()
        .unwrap();
        assert!(
            (report.jobs[0].response - 3.5).abs() < 1e-9,
            "response {}",
            report.jobs[0].response
        );
        assert_eq!(report.task_failures, 2);
        assert_eq!(report.dynamics_events, 2);
        let obs = report.obs.expect("obs recorded");
        assert_eq!(obs.counters.site_outages, 1);
        assert_eq!(obs.counters.dynamics_events, 2);
        assert_eq!(obs.counters.dynamics_retries, 2);
        assert_eq!(obs.counters.task_failures, 2);
    }

    #[test]
    fn outage_without_recovery_stalls() {
        use tetrium_cluster::{DynamicsChange, DynamicsEvent, DynamicsTimeline};
        let input = DataDistribution::new(vec![4.0, 0.0]);
        let job = Job::new(
            JobId(0),
            "m",
            0.0,
            vec![tetrium_jobs::Stage::root_map(input, 4, 1.0, 0.5)],
        );
        let timeline = DynamicsTimeline::new(vec![DynamicsEvent::new(
            SiteId(0),
            0.5,
            DynamicsChange::Outage,
        )]);
        // LocalScheduler insists on the dead input site, so nothing can be
        // re-placed and the run reports a stall instead of spinning.
        let err = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig::default(),
        )
        .with_dynamics(timeline)
        .run()
        .unwrap_err();
        assert_eq!(err, SimError::Stalled { unfinished: 1 });
    }

    /// An outage that kills a *fetching* attempt must refund the unsent
    /// remainder of its in-flight flows so the per-job WAN ledger stays in
    /// lockstep with the flow simulator's.
    #[test]
    fn outage_mid_fetch_refunds_wan_and_ledger_reconciles() {
        use tetrium_cluster::{DynamicsChange, DynamicsEvent, DynamicsTimeline};
        // Maps finish at 1 s leaving 1 GB of shuffle input at each site; the
        // reduce runs at a and starts pulling b's 1 GB at 1 GB/s. The outage
        // at 1.5 s kills it half-fetched (0.5 GB refunded); after recovery
        // at 2.0 s it re-fetches in full: done at 3.0, computed at 4.0.
        let input = DataDistribution::new(vec![2.0, 2.0]);
        let job = Job::map_reduce(JobId(0), "mr", 0.0, input, 2, 1.0, 0.5, 1, 1.0);
        let timeline = DynamicsTimeline::new(vec![
            DynamicsEvent::new(SiteId(0), 1.5, DynamicsChange::Outage),
            DynamicsEvent::new(SiteId(0), 2.0, DynamicsChange::Recover),
        ]);
        let report = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig::default(),
        )
        .with_dynamics(timeline)
        .run()
        .unwrap();
        assert!(
            (report.jobs[0].response - 4.0).abs() < 1e-9,
            "response {}",
            report.jobs[0].response
        );
        assert_eq!(report.task_failures, 1);
        // 0.5 GB moved by the doomed attempt + 1.0 GB by the retry.
        assert!(
            (report.jobs[0].wan_gb - 1.5).abs() < 1e-9,
            "wan {}",
            report.jobs[0].wan_gb
        );
        let per_job: f64 = report.jobs.iter().map(|j| j.wan_gb).sum();
        assert!(
            (per_job - report.total_wan_gb).abs() < 1e-6,
            "per-job wan {per_job} != flowsim wan {}",
            report.total_wan_gb
        );
    }

    #[test]
    fn exhausted_retries_abort_the_run() {
        let input = DataDistribution::new(vec![1.0, 0.0]);
        let job = Job::new(
            JobId(0),
            "m",
            0.0,
            vec![tetrium_jobs::Stage::root_map(input, 1, 1.0, 1.0)],
        );
        let err = Engine::new(
            cluster2(),
            vec![job],
            Box::new(LocalScheduler),
            EngineConfig {
                failure_prob: 1.0,
                max_task_retries: 2,
                ..EngineConfig::default()
            },
        )
        .run()
        .unwrap_err();
        assert_eq!(
            err,
            SimError::RetriesExhausted {
                job: 0,
                stage: 0,
                task: 0,
                retries: 3,
            }
        );
    }

    /// A winning copy's record must carry the copy's own timeline, not the
    /// original's launch time glued to the copy's duration (which produced
    /// `compute_started < launched_at` and negative fetch times).
    #[test]
    fn task_record_invariants_hold_with_winning_copies() {
        use crate::config::SpeculationConfig;
        let cluster = Cluster::new(vec![
            Site::new("a", 6, 1.0, 1.0),
            Site::new("b", 6, 1.0, 1.0),
        ]);
        let mut copies_traced = 0;
        for seed in 0..8 {
            let input = DataDistribution::new(vec![4.0, 4.0]);
            let job = Job::map_reduce(JobId(0), "spec-tr", 0.0, input, 8, 1.0, 0.5, 4, 1.0);
            let report = Engine::new(
                cluster.clone(),
                vec![job],
                Box::new(LocalScheduler),
                EngineConfig {
                    straggler_prob: 0.6,
                    straggler_mult: (5.0, 60.0),
                    speculation: Some(SpeculationConfig {
                        threshold: 1.5,
                        max_copies_frac: 0.5,
                    }),
                    batch: crate::config::BatchPolicy::Fixed(0.5),
                    record_obs: true,
                    seed,
                    ..EngineConfig::default()
                },
            )
            .run()
            .unwrap();
            let records = report.obs.unwrap().task_records();
            assert_eq!(records.len(), 12, "one record per task");
            for t in &records {
                assert!(
                    t.compute_started >= t.launched_at - 1e-9,
                    "seed {seed}: compute at {} before launch at {} (was_copy={})",
                    t.compute_started,
                    t.launched_at,
                    t.was_copy
                );
                assert!(t.finished_at >= t.compute_started - 1e-9);
                assert!(t.fetch_secs() >= 0.0);
                assert!(t.compute_secs() > 0.0);
                if t.was_copy {
                    copies_traced += 1;
                }
            }
        }
        assert!(copies_traced > 0, "no seed traced a winning copy");
    }
}
