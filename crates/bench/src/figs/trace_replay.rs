//! Trace-replay sweep: the ingestion pipeline end to end, then a
//! fig5-style scheduler comparison on the replayed workload.
//!
//! The workload takes the long way into the engine on purpose: generated
//! jobs are exported to the on-disk `tetrium-trace/v1` rendering, parsed
//! back, pushed through the full validation gate (with the trace's own
//! profile as the drift reference), and only then converted to a scenario
//! — exactly the path `tetrium-cli run --trace` takes with a real cluster
//! trace file. Any constraint regression or lossy round-trip breaks this
//! sweep before it breaks a user. `TETRIUM_QUICK=1` shrinks the job count
//! for the CI trace-smoke job.

use crate::runner::{cell, run_cells, Cell, CellFn};
use crate::{banner, quick_mode, write_record};
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;
use tetrium::metrics::reduction_pct;
use tetrium::sim::{EngineConfig, RunReport};
use tetrium::{run_workload, SchedulerKind};
use tetrium_workload::ingest::{
    parse_trace_str, scenario_from_trace, trace_from_jobs, validate, TraceProfile, ValidatorConfig,
};
use tetrium_workload::{trace_like_jobs, TraceParams};

/// Runs the sweep and writes the `trace_replay` record.
pub fn run_fig() {
    banner("trace_replay", "raw-trace ingestion gate + scheduler sweep");
    let cluster = tetrium_cluster::ec2_eight_regions();
    let n_jobs = if quick_mode() { 4 } else { 16 };
    let mut rng = StdRng::seed_from_u64(91);
    let jobs = trace_like_jobs(&cluster, n_jobs, &TraceParams::default(), &mut rng);
    let body = trace_from_jobs(&jobs, cluster.len(), "bench-replay").to_json();
    let trace = parse_trace_str(&body).expect("exported trace parses");
    let cfg = ValidatorConfig {
        profile: TraceProfile::from_trace(&trace),
        ..ValidatorConfig::default()
    };
    validate(&trace, &cfg).unwrap_or_else(|report| {
        panic!("exported trace failed its own validation gate:\n{report}")
    });
    let scenario = scenario_from_trace(&trace, cluster, &cfg).expect("validated trace converts");
    println!(
        "replaying {} rows -> {} jobs over {} sites",
        trace.rows.len(),
        scenario.jobs.len(),
        scenario.cluster.len()
    );

    let schedulers = [
        ("tetrium", SchedulerKind::Tetrium),
        ("in-place", SchedulerKind::InPlace),
        ("iridium", SchedulerKind::Iridium),
    ];
    #[expect(
        clippy::disallowed_methods,
        reason = "bench timing: `wall_secs` is measured, outside the determinism contract"
    )]
    let t0 = Instant::now();
    let cells: Vec<(Cell, CellFn<'_, RunReport>)> = schedulers
        .iter()
        .map(|(sname, kind)| {
            let (cluster, jobs) = (&scenario.cluster, &scenario.jobs);
            cell(
                Cell::new("trace_replay", *sname, "ingested-trace", 91),
                move || {
                    run_workload(
                        cluster.clone(),
                        jobs.clone(),
                        kind.clone(),
                        EngineConfig::trace_like(91),
                    )
                    .expect("completes")
                },
            )
        })
        .collect();
    let runs = run_cells(cells);
    let wall = t0.elapsed().as_secs_f64();

    let avg: Vec<f64> = runs.iter().map(RunReport::avg_response).collect();
    for (&(sname, _), &a) in schedulers.iter().zip(&avg) {
        println!("{sname:<13} avg response {a:>10.1} s");
    }
    let rt_ip = reduction_pct(avg[1], avg[0]);
    let rt_ir = reduction_pct(avg[2], avg[0]);
    println!(
        "tetrium reduction: {rt_ip:.0}% vs in-place, {rt_ir:.0}% vs iridium \
         ({wall:.1} s wall)"
    );
    write_record(
        "trace_replay",
        &serde_json::json!({
            "rows": trace.rows.len(),
            "jobs": scenario.jobs.len(),
            "sites": scenario.cluster.len(),
            "wall_secs": wall,
            "avg_response_s": {
                "tetrium": avg[0],
                "in-place": avg[1],
                "iridium": avg[2],
            },
            "rt_reduction_vs_inplace_pct": rt_ip,
            "rt_reduction_vs_iridium_pct": rt_ir,
        }),
    );
}
