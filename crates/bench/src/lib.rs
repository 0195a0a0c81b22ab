//! Benchmark harness regenerating every table and figure of the Tetrium
//! evaluation (§6).
//!
//! Each figure has a module under [`figs`] exposing a `run()` that prints
//! the same rows/series the paper reports and appends a JSON record under
//! `target/experiments/`; the `figs` binary runs one figure by name, or the
//! whole suite with no name.
//!
//! Scale control: set `TETRIUM_QUICK=1` to shrink workloads for smoke runs;
//! absolute numbers are not comparable to the paper's testbed either way —
//! the *shape* (who wins, rough factors, trends over knobs) is the
//! reproduction target (see EXPERIMENTS.md).
//!
//! Parallelism: figures run their simulation cells across worker threads
//! (`TETRIUM_THREADS`, default all cores) via [`runner`]; output stays
//! byte-identical to a sequential run.

pub mod figs;
mod record;
pub mod runner;

pub use record::{quick_mode, write_obs_record, write_record};
pub use runner::{cell, run_cells, run_cells_with, thread_count, Cell};

use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::{run_workload, SchedulerKind};
use tetrium_cluster::Cluster;
use tetrium_jobs::Job;
use tetrium_metrics::reduction_pct;
use tetrium_sim::{EngineConfig, RunReport};
use tetrium_workload::TraceParams;

/// The 50-site trace-driven cluster used by Figs 8–12 (§6.1).
pub fn fifty_sites(seed: u64) -> Cluster {
    let mut rng = StdRng::seed_from_u64(seed);
    tetrium_cluster::trace_fifty_sites(&mut rng)
}

/// Trace-workload parameters calibrated so the 50-site simulation is
/// compute-constrained with heavy WAN contention — the regime in which the
/// paper's trends (Fig 8, Fig 10) manifest. `TETRIUM_QUICK` shrinks tasks.
pub fn calibrated_trace() -> TraceParams {
    let quick = quick_mode();
    TraceParams {
        median_input_gb: if quick { 20.0 } else { 40.0 },
        mean_interarrival_secs: 45.0,
        mean_task_secs: 20.0,
        tasks_per_gb: if quick { 6.0 } else { 10.0 },
        max_tasks: if quick { 250 } else { 500 },
        ..TraceParams::default()
    }
}

/// Lighter-contention parameters for the WAN-knob sweep (Fig 10): under
/// heavy queueing byte-frugality dominates and the rho trend flattens, so
/// the sweep runs at the load level where the knob's trade-off is visible.
pub fn fig10_trace() -> TraceParams {
    let quick = quick_mode();
    TraceParams {
        median_input_gb: if quick { 30.0 } else { 60.0 },
        mean_interarrival_secs: 90.0,
        mean_task_secs: 20.0,
        tasks_per_gb: if quick { 6.0 } else { 14.0 },
        max_tasks: if quick { 250 } else { 800 },
        ..TraceParams::default()
    }
}

/// Number of jobs for 50-site experiments.
pub fn trace_job_count() -> usize {
    if quick_mode() {
        8
    } else {
        16
    }
}

/// Whether figure runs collect observability records (`TETRIUM_OBS=1`);
/// when set, each figure also writes `target/experiments/<fig>.obs.json`.
pub fn obs_mode() -> bool {
    std::env::var_os("TETRIUM_OBS").is_some()
}

/// Engine noise configuration for trace-driven runs (§6.1). Observability
/// recording follows [`obs_mode`] so `TETRIUM_OBS=1` flows through every
/// figure cell without per-figure plumbing.
pub fn trace_engine(seed: u64) -> EngineConfig {
    let mut cfg = EngineConfig::trace_like(seed);
    cfg.record_obs = obs_mode();
    cfg
}

/// Extracts a figure cell's obs record as a `(label, json)` entry for
/// [`write_obs_record`]. Serializes with `include_wall = false` so the obs
/// file is byte-identical for any `TETRIUM_THREADS` (DESIGN.md §8).
pub fn obs_entry(
    label: impl Into<String>,
    report: &RunReport,
) -> Option<(String, serde_json::Value)> {
    report
        .obs
        .as_ref()
        .map(|o| (label.into(), o.to_json(false)))
}

/// Generates the standard 50-site workload for a seed.
pub fn trace_workload(cluster: &Cluster, seed: u64) -> Vec<Job> {
    let mut rng = StdRng::seed_from_u64(seed);
    tetrium_workload::trace_like_jobs(cluster, trace_job_count(), &calibrated_trace(), &mut rng)
}

/// Runs one scheduler on a workload and returns the report.
pub fn run(cluster: &Cluster, jobs: &[Job], kind: SchedulerKind, seed: u64) -> RunReport {
    run_workload(cluster.clone(), jobs.to_vec(), kind, trace_engine(seed))
        .expect("scheduler completes the workload")
}

/// Percentage reduction in average response time of `x` vs `base`.
pub fn rt_reduction(base: &RunReport, x: &RunReport) -> f64 {
    reduction_pct(base.avg_response(), x.avg_response())
}

/// Pretty separator line for the console output.
pub fn banner(id: &str, title: &str) {
    println!("\n=== {id}: {title} ===");
}
