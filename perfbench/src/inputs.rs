//! The four workloads and the seeded inputs they feed the program. The
//! program under test only ever sees what these functions generate: a
//! cluster, a `tetrium-trace/v1` trace body to ingest, and a run
//! configuration.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::cluster::{ec2_thirty_instances, Cluster, DynamicsChange, DynamicsEvent};
use tetrium::cluster::{DynamicsTimeline, SiteId};
use tetrium::core::{PlanCacheMode, TetriumConfig};
use tetrium::jobs::Job;
use tetrium::sim::EngineConfig;
use tetrium::workload::ingest::trace_from_jobs;
use tetrium::workload::{recurring_dashboard_jobs, trace_like_jobs, RecurringParams};
use tetrium::workload::{ScalePreset, TraceParams};

/// A benchmark workload. Each input is sized to run in about a second on
/// a quiet host, so a run covers many seeded inputs (their median is
/// steady where one input's numbers swing by 10-40%) and the host-speed
/// calibration between inputs tracks the host closely.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Workload {
    /// Trace-like jobs on the paper's 30-site EC2 cluster.
    Trace30,
    /// A recurring dashboard query with the template plan cache on, and a
    /// capacity drop and recovery mid-run.
    Recurring30,
    /// A few large jobs on a 120-site Zipf cluster: LP-bound scheduling.
    Scale120,
    /// Trace-like jobs through the sharded service, burst then open loop.
    Serve30,
}

impl Workload {
    /// Every workload, in report order.
    pub const ALL: [Workload; 4] = [
        Workload::Trace30,
        Workload::Recurring30,
        Workload::Scale120,
        Workload::Serve30,
    ];

    /// The workload's name on the command line and in reports.
    pub fn name(self) -> &'static str {
        match self {
            Workload::Trace30 => "trace-30",
            Workload::Recurring30 => "recurring-30",
            Workload::Scale120 => "scale-120",
            Workload::Serve30 => "serve-30",
        }
    }

    /// Parses a workload name.
    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Generator seed of input `i` of a run with `--seed seed`. Seed 0,
    /// input 0 is the workload's canonical input (the one the golden digest
    /// pins); the multipliers keep the inputs of seeds 0..7919 disjoint.
    fn input_seed(self, seed: u64, i: u64) -> u64 {
        let canonical = match self {
            Workload::Trace30 => 35,
            Workload::Recurring30 => 42,
            Workload::Scale120 => 84,
            Workload::Serve30 => 33,
        };
        canonical + seed * 7919 + i * 104_729
    }
}

/// Jobs per trace-30 input (~140 trace rows).
const TRACE_JOBS: usize = 20;
/// Dashboard instances per recurring-30 input, one every 120 s.
const RECURRING_INSTANCES: usize = 48;
/// Jobs per scale-120 input.
const SCALE_JOBS: usize = 12;
/// Jobs per serve-30 input submitted as a held burst (phase a).
pub const SERVE_BURST_JOBS: usize = 8;
/// Jobs per serve-30 input submitted in the open loop (phase b).
pub const SERVE_OPEN_JOBS: usize = 16;

/// One generated input.
pub struct Input {
    /// The cluster the jobs run on.
    pub cluster: Cluster,
    /// The generated jobs; ingestion must reproduce them.
    pub jobs: Vec<Job>,
    /// The jobs rendered as a `tetrium-trace/v1` JSON body.
    pub trace: String,
    /// Mid-run resource changes.
    pub dynamics: DynamicsTimeline,
    /// Configuration of the Tetrium scheduler under test.
    pub tetrium: TetriumConfig,
    /// Engine configuration.
    pub engine: EngineConfig,
}

/// The trace-like job population of trace-30 and serve-30 (the parameters
/// of the repository's engine-throughput benchmark).
fn trace_params() -> TraceParams {
    TraceParams {
        median_input_gb: 10.0,
        mean_interarrival_secs: 30.0,
        mean_task_secs: 5.0,
        tasks_per_gb: 4.0,
        max_tasks: 150,
        ..TraceParams::default()
    }
}

/// The most capable site: the one a capacity drop hurts most.
fn biggest_site(cluster: &Cluster) -> SiteId {
    cluster
        .iter()
        .max_by_key(|(_, s)| s.slots)
        .map_or(SiteId(0), |(id, _)| id)
}

/// Builds input `i` of workload `w` for `--seed seed`.
pub fn input(w: Workload, seed: u64, i: u64) -> Input {
    let s = w.input_seed(seed, i);
    let mut rng = StdRng::seed_from_u64(s);
    let plain = TetriumConfig::default();
    let (cluster, jobs, dynamics, tetrium, engine) = match w {
        Workload::Trace30 => {
            let cluster = ec2_thirty_instances();
            let jobs = trace_like_jobs(&cluster, TRACE_JOBS, &trace_params(), &mut rng);
            let none = DynamicsTimeline::default();
            (cluster, jobs, none, plain, EngineConfig::trace_like(s))
        }
        Workload::Recurring30 => {
            let cluster = ec2_thirty_instances();
            let params = RecurringParams {
                phase_step: 1.0 / 720.0,
                ..RecurringParams::default()
            };
            let jobs = recurring_dashboard_jobs(&cluster, RECURRING_INSTANCES, &params, &mut rng);
            // Halve the biggest site a third of the way into the stream
            // and recover it at two thirds: cached plans go stale, then the
            // old ones become right again.
            let span = RECURRING_INSTANCES as f64 * params.period_secs;
            let big = biggest_site(&cluster);
            let dynamics = DynamicsTimeline::new(vec![
                DynamicsEvent::new(big, span / 3.0, DynamicsChange::Capacity { keep: 0.5 }),
                DynamicsEvent::new(big, 2.0 * span / 3.0, DynamicsChange::Recover),
            ]);
            let cached = TetriumConfig {
                plan_cache: PlanCacheMode::Full,
                ..TetriumConfig::default()
            };
            // Noise-free, as the repository's plan-cache latency benchmark
            // runs this stream: instances repeat closely enough to hit.
            (cluster, jobs, dynamics, cached, EngineConfig::default())
        }
        Workload::Scale120 => {
            // The cluster is fixed hardware; the seed draws the jobs. Many
            // small jobs keep every input LP-bound without the rare
            // multi-second solve that lets one input decide a run. The
            // noise-free engine matches the repository's scale sweep.
            let mut preset = ScalePreset::new(120, 83);
            preset.params.median_input_gb = 10.0;
            preset.params.max_tasks = 40;
            let jobs = preset.jobs(SCALE_JOBS, s);
            let none = DynamicsTimeline::default();
            (preset.cluster, jobs, none, plain, EngineConfig::default())
        }
        Workload::Serve30 => {
            // Requests of like size: 3-4 stages of at most 24 tasks, so
            // latency percentiles describe the service, not which
            // heavy-tailed jobs one input happened to draw.
            let cluster = ec2_thirty_instances();
            let params = TraceParams {
                stages: (3, 4),
                max_tasks: 24,
                ..trace_params()
            };
            let n = SERVE_BURST_JOBS + SERVE_OPEN_JOBS;
            let jobs = trace_like_jobs(&cluster, n, &params, &mut rng);
            let none = DynamicsTimeline::default();
            (cluster, jobs, none, plain, EngineConfig::trace_like(s))
        }
    };
    let trace = trace_from_jobs(&jobs, cluster.len(), w.name()).to_json();
    Input {
        cluster,
        jobs,
        trace,
        dynamics,
        tetrium,
        engine,
    }
}
