//! The service: shard workers around deterministic engines, an async
//! submission front end, broadcast fan-out and cooperative shutdown.

use std::collections::BTreeSet;
use std::sync::{Mutex, PoisonError};

use tokio::sync::{broadcast, mpsc};
use tokio::task::JoinHandle;
use tokio_util::sync::CancellationToken;

use tetrium::cluster::Cluster;
use tetrium::jobs::{Job, JobId};
use tetrium::sim::{Engine, SimError};

use crate::config::{shard_of, ServeConfig};
use crate::events::JobEvent;
use crate::report::{ServeReport, ShardReport};

/// Acknowledgement of an accepted submission.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SubmitReceipt {
    /// The submitted job's id.
    pub job: JobId,
    /// Shard the job was routed to.
    pub shard: usize,
}

/// Why a submission was rejected.
#[derive(Debug)]
pub enum SubmitError {
    /// The service is shutting down (or already shut down); the job is
    /// returned to the caller.
    ShuttingDown(Box<Job>),
    /// A job with the same id was already accepted; the job is returned to
    /// the caller.
    DuplicateJob(Box<Job>),
    /// The job's root inputs do not cover exactly the service cluster's
    /// sites; the job is returned to the caller.
    ClusterMismatch(Box<Job>),
    /// The job fails [`Job::validate`] (the reason is the second field);
    /// the job is returned to the caller.
    InvalidJob(Box<Job>, String),
}

impl std::fmt::Display for SubmitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SubmitError::ShuttingDown(job) => {
                write!(f, "service is shutting down; job {} rejected", job.id)
            }
            SubmitError::DuplicateJob(job) => {
                write!(f, "job {} was already submitted", job.id)
            }
            SubmitError::ClusterMismatch(job) => {
                write!(f, "job {} input does not match the cluster", job.id)
            }
            SubmitError::InvalidJob(job, reason) => {
                write!(f, "job {} is invalid: {reason}", job.id)
            }
        }
    }
}

impl std::error::Error for SubmitError {}

/// Why a service run failed.
#[derive(Debug)]
pub enum ServeError {
    /// A shard's engine failed (stall or exhausted retries).
    Shard {
        /// The failing shard.
        shard: usize,
        /// The engine error.
        error: SimError,
    },
    /// A shard worker was cancelled before returning its report (only
    /// possible if the runtime is torn down around the service).
    WorkerLost {
        /// The lost shard.
        shard: usize,
    },
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::Shard { shard, error } => write!(f, "shard {shard} failed: {error}"),
            ServeError::WorkerLost { shard } => write!(f, "shard {shard} worker lost"),
        }
    }
}

impl std::error::Error for ServeError {}

/// A running scheduler service: N engine shards behind one submission
/// front end. See the crate docs for the architecture and determinism
/// contract.
pub struct TetriumService {
    cluster: Cluster,
    /// Ids of every accepted job: the engine asserts ids are unique, so a
    /// duplicate must be turned away here, before it reaches a shard.
    accepted: Mutex<BTreeSet<JobId>>,
    submit_txs: Vec<mpsc::Sender<Job>>,
    events_tx: broadcast::Sender<JobEvent>,
    token: CancellationToken,
    gate: CancellationToken,
    workers: Vec<JoinHandle<Result<ShardReport, SimError>>>,
    shards: usize,
}

impl TetriumService {
    /// Starts the service: builds one engine per shard over clones of
    /// `cluster` and spawns the shard workers onto the current runtime.
    ///
    /// # Panics
    ///
    /// Panics when called outside a tokio runtime context, or when
    /// `cfg.shards` is zero.
    pub fn start(cluster: &Cluster, cfg: &ServeConfig) -> Self {
        Self::start_inner(cluster, cfg, false)
    }

    /// Like [`TetriumService::start`], but workers admit nothing until
    /// [`TetriumService::open`] is called. Submissions made while held sit
    /// in the shard queues and form each shard's first epoch — this is how
    /// callers (and the determinism tests) pin the epoch partition exactly.
    ///
    /// # Panics
    ///
    /// See [`TetriumService::start`].
    pub fn start_held(cluster: &Cluster, cfg: &ServeConfig) -> Self {
        Self::start_inner(cluster, cfg, true)
    }

    fn start_inner(cluster: &Cluster, cfg: &ServeConfig, held: bool) -> Self {
        assert!(cfg.shards > 0, "service needs at least one shard");
        let (events_tx, _keepalive) = broadcast::channel(cfg.event_capacity.max(1));
        // The subscriber created at channel construction is dropped here:
        // fan-out is best-effort and must not block or fail the service
        // when nobody listens.
        drop(_keepalive);
        let token = CancellationToken::new();
        let gate = CancellationToken::new();
        if !held {
            gate.cancel(); // Open from the start.
        }
        let mut submit_txs = Vec::with_capacity(cfg.shards);
        let mut workers = Vec::with_capacity(cfg.shards);
        for shard in 0..cfg.shards {
            let (tx, rx) = mpsc::channel(cfg.queue_depth.max(1));
            submit_txs.push(tx);
            let engine = Engine::new(
                cluster.clone(),
                Vec::new(),
                cfg.scheduler.build(),
                cfg.engine.clone(),
            );
            workers.push(tokio::spawn(shard_worker(
                shard,
                engine,
                rx,
                events_tx.clone(),
                token.child_token(),
                gate.clone(),
            )));
        }
        Self {
            cluster: cluster.clone(),
            accepted: Mutex::new(BTreeSet::new()),
            submit_txs,
            events_tx,
            token,
            gate,
            workers,
            shards: cfg.shards,
        }
    }

    /// Number of shards.
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// Opens a service started with [`TetriumService::start_held`]; no-op
    /// otherwise.
    pub fn open(&self) {
        self.gate.cancel();
    }

    /// Submits a job: routes it to its shard by [`shard_of`] and enqueues
    /// it, waiting when the shard's queue is full (backpressure).
    ///
    /// # Errors
    ///
    /// Each returns the job:
    /// - [`SubmitError::ShuttingDown`] once [`TetriumService::shutdown`]
    ///   has been called;
    /// - [`SubmitError::InvalidJob`] when the job fails [`Job::validate`]
    ///   (the shard's engine would panic on it);
    /// - [`SubmitError::ClusterMismatch`] when the job's inputs do not
    ///   match the service cluster;
    /// - [`SubmitError::DuplicateJob`] when a job with the same id was
    ///   already accepted.
    pub async fn submit(&self, job: Job) -> Result<SubmitReceipt, SubmitError> {
        if self.token.is_cancelled() {
            return Err(SubmitError::ShuttingDown(Box::new(job)));
        }
        if let Err(reason) = job.validate() {
            return Err(SubmitError::InvalidJob(Box::new(job), reason));
        }
        if !job.matches_cluster(&self.cluster) {
            return Err(SubmitError::ClusterMismatch(Box::new(job)));
        }
        let id = job.id;
        // A claimed id stays claimed even if the send below fails: that
        // only happens once the service is shutting down, and every later
        // submit is turned away by the token check above.
        if !self.claim(id) {
            return Err(SubmitError::DuplicateJob(Box::new(job)));
        }
        let shard = shard_of(id, self.shards);
        // `shard_of` returns `< self.shards == submit_txs.len()`; treat a
        // mismatch like shutdown rather than panicking a serving task.
        let Some(tx) = self.submit_txs.get(shard) else {
            return Err(SubmitError::ShuttingDown(Box::new(job)));
        };
        match tx.send(job).await {
            Ok(()) => Ok(SubmitReceipt { job: id, shard }),
            Err(mpsc::SendError(job)) => Err(SubmitError::ShuttingDown(Box::new(job))),
        }
    }

    /// Records `id` as accepted; `false` if it already was. Synchronous,
    /// so the lock is never held across an `.await`.
    fn claim(&self, id: JobId) -> bool {
        self.accepted
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .insert(id)
    }

    /// A new lifecycle-event subscription. Events sent before the call are
    /// not replayed; slow subscribers observe `Lagged` gaps rather than
    /// blocking the service.
    pub fn subscribe(&self) -> broadcast::Receiver<JobEvent> {
        self.events_tx.subscribe()
    }

    /// Begins graceful shutdown: new submissions are rejected, every
    /// already accepted job still runs to completion, final events are
    /// flushed. Await [`TetriumService::join`] for the reports.
    pub fn shutdown(&self) {
        self.token.cancel();
    }

    /// Waits for every shard worker to finish and merges their reports
    /// (shards in index order). Without a prior
    /// [`TetriumService::shutdown`], workers exit once every submission
    /// handle is dropped — `join` drops the service's own handles, so
    /// calling it ends the run after the backlog drains.
    ///
    /// # Errors
    ///
    /// The first shard failure in shard order, if any.
    pub async fn join(mut self) -> Result<ServeReport, ServeError> {
        // Open the gate (a held service must not deadlock join) and drop
        // the submission handles so workers see their queues close.
        self.gate.cancel();
        self.submit_txs.clear();
        let mut shards = Vec::with_capacity(self.workers.len());
        for (shard, worker) in self.workers.drain(..).enumerate() {
            match worker.await {
                Ok(Ok(report)) => shards.push(report),
                Ok(Err(error)) => return Err(ServeError::Shard { shard, error }),
                Err(_) => return Err(ServeError::WorkerLost { shard }),
            }
        }
        shards.sort_by_key(|s| s.shard);
        Ok(ServeReport { shards })
    }
}

/// Admits one epoch batch into the engine, steps to idle, and fans out the
/// resulting events. Returns how many jobs finished.
fn process_epoch(
    shard: usize,
    engine: &mut Engine,
    mut epoch: Vec<Job>,
    events: &broadcast::Sender<JobEvent>,
) -> Result<usize, SimError> {
    // Canonical admission order within an epoch: job id. This (plus the
    // deterministic engine) makes the shard report a pure function of the
    // epoch partition, independent of submission interleaving.
    epoch.sort_by_key(|j| j.id);
    for job in epoch {
        let arrival = job.arrival.max(engine.now());
        let id = engine.submit_job(job);
        let _ = events.send(JobEvent::Admitted {
            shard,
            job: id,
            arrival,
        });
    }
    engine.step_until_idle()?;
    for e in engine.obs_handle().drain_task_events() {
        let _ = events.send(JobEvent::Task {
            shard,
            job_index: e.job,
            stage: e.stage,
            task: e.task,
            copy: e.copy,
            phase: e.phase,
            site: e.site.index(),
            at: e.t,
        });
    }
    let finished = engine.drain_finished();
    let n = finished.len();
    for out in finished {
        let _ = events.send(JobEvent::Finished {
            shard,
            job: out.id,
            finished: out.finished,
            response: out.response,
            wan_gb: out.wan_gb,
        });
    }
    let _ = events.send(JobEvent::Idle {
        shard,
        now: engine.now(),
    });
    Ok(n)
}

/// One shard's worker: drain the queue in epochs until the queue closes or
/// shutdown is requested, then flush and return the engine's report.
async fn shard_worker(
    shard: usize,
    mut engine: Engine,
    mut rx: mpsc::Receiver<Job>,
    events: broadcast::Sender<JobEvent>,
    token: CancellationToken,
    gate: CancellationToken,
) -> Result<ShardReport, SimError> {
    gate.cancelled().await;
    engine.seed_initial_events();
    let mut completed = 0usize;
    loop {
        // Park until the next job, the queue closing, or shutdown.
        let (first, closing) = match token.run_until_cancelled(rx.recv()).await {
            Some(Some(job)) => (Some(job), false),
            // Every submission handle dropped and the backlog drained.
            Some(None) => (None, true),
            // Graceful shutdown: close the queue so concurrent submits
            // fail fast, then drain whatever was already accepted.
            None => {
                rx.close();
                (None, true)
            }
        };
        // Everything queued right now joins this epoch.
        let mut epoch: Vec<Job> = Vec::new();
        epoch.extend(first);
        while let Ok(job) = rx.try_recv() {
            epoch.push(job);
        }
        if !epoch.is_empty() {
            completed += process_epoch(shard, &mut engine, epoch, &events)?;
        }
        if closing {
            break;
        }
    }
    let _ = events.send(JobEvent::ShardDone {
        shard,
        jobs: completed,
    });
    Ok(ShardReport {
        shard,
        report: engine.into_report(),
    })
}
