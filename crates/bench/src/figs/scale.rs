//! Substrate-scale sweep: a fig5-style scheduler comparison on the
//! `--sites N` Zipf preset (default 1000 sites).
//!
//! The paper's clusters stop at 30 sites; this sweep exists to prove the
//! sparse substrate (revised simplex + sharded waterfiller) carries a
//! four-digit site count end to end: three schedulers over a trace-like
//! workload, reporting Tetrium's response-time reduction exactly as Fig 5
//! does. `TETRIUM_QUICK=1` (the CI scale-smoke job) shrinks the job count
//! so the sweep stays in smoke-test budget.

use crate::runner::{cell, run_cells, Cell, CellFn};
use crate::{banner, quick_mode, write_record};
use std::time::Instant;
use tetrium::metrics::reduction_pct;
use tetrium::sim::{EngineConfig, RunReport};
use tetrium::{run_workload, SchedulerKind};
use tetrium_workload::ScalePreset;

/// Runs the sweep on a `sites`-site preset and writes the
/// `scale_<sites>` record.
pub fn run(sites: usize) {
    banner(
        "scale",
        &format!("{sites}-site substrate sweep: response time vs baselines"),
    );
    let preset = ScalePreset::new(sites, 83);
    let jobs = preset.jobs(if quick_mode() { 3 } else { 6 }, 84);
    let total_tasks: usize = jobs.iter().map(tetrium_jobs::Job::total_tasks).sum();
    println!("{sites} sites, {} jobs, {total_tasks} tasks", jobs.len());

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
            let (cluster, jobs) = (&preset.cluster, &jobs);
            cell(
                Cell::new("scale", *sname, format!("{sites}-sites"), 83),
                move || {
                    run_workload(
                        cluster.clone(),
                        jobs.clone(),
                        kind.clone(),
                        EngineConfig::default(),
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
        &format!("scale_{sites}"),
        &serde_json::json!({
            "sites": sites,
            "jobs": jobs.len(),
            "tasks": total_tasks,
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
