//! Fig 12: distribution of the gains by workload characteristic.
//!
//! Per-job response-time reductions of Tetrium vs In-Place, bucketed by
//! (a) the job's intermediate/input data ratio, (b) input-data skew CV,
//! (c) intermediate (reduce-key) skew CV, and (d) the task-duration
//! estimation error. Each bucket reports the fraction of queries that fall
//! into it and the mean gain within it, matching the paired bars of the
//! paper's figure.

use crate::runner::{cell, run_cells, Cell, CellFn};
use crate::{banner, calibrated_trace, fifty_sites, quick_mode, write_record};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::metrics::{bucket_by, per_job_reduction, Bucket};
use tetrium::sim::EngineConfig;
use tetrium::{run_workload, SchedulerKind};
use tetrium_workload::trace_like_jobs;

fn print_buckets(title: &str, buckets: &[Bucket]) -> Vec<serde_json::Value> {
    println!("\n({title})");
    println!("{:>12} {:>12} {:>12}", "bucket", "queries", "mean gain");
    buckets
        .iter()
        .map(|b| {
            println!(
                "{:>12} {:>11.0}% {:>11.0}%",
                b.label,
                b.fraction * 100.0,
                b.mean_gain
            );
            serde_json::json!({
                "bucket": b.label,
                "queries_pct": b.fraction * 100.0,
                "mean_gain_pct": b.mean_gain,
            })
        })
        .collect()
}

/// Per-job sample carrying the characterization axes and the gain.
struct Sample {
    ratio: f64,
    input_skew: f64,
    key_skew: f64,
    est_error: f64,
    gain: f64,
}

/// Runs several paired comparisons (distinct workload seeds) and buckets
/// the pooled per-job gains four ways. Workloads are generated up front;
/// the (seed, scheduler) simulation pairs run as parallel cells.
pub fn run_fig() {
    banner("fig12", "gain distribution by workload characteristic");
    let cluster = fifty_sites(1);
    let mut params = calibrated_trace();
    params.max_tasks = params.max_tasks.min(300);
    let n_jobs = if quick_mode() { 12 } else { 20 };
    let seeds: &[u64] = if quick_mode() { &[12] } else { &[12, 13, 14] };

    let workloads: Vec<(u64, Vec<tetrium_jobs::Job>)> = seeds
        .iter()
        .map(|&seed| {
            let mut rng = StdRng::seed_from_u64(seed);
            (seed, trace_like_jobs(&cluster, n_jobs, &params, &mut rng))
        })
        .collect();
    let mut grid: Vec<(Cell, CellFn<'_, _>)> = Vec::new();
    for (seed, jobs) in &workloads {
        for (name, kind) in [
            ("tetrium", SchedulerKind::Tetrium),
            ("in-place", SchedulerKind::InPlace),
        ] {
            grid.push(cell(Cell::new("fig12", name, "trace-50", *seed), {
                let cluster = &cluster;
                move || {
                    // Estimation error must actually vary to populate
                    // Fig 12(d).
                    let mut cfg = EngineConfig::trace_like(*seed);
                    cfg.estimation_error = 0.5;
                    run_workload(cluster.clone(), jobs.clone(), kind, cfg).expect("completes")
                }
            }));
        }
    }
    let mut results = run_cells(grid).into_iter();

    let mut samples: Vec<Sample> = Vec::new();
    for (_, jobs) in &workloads {
        let tetrium = results.next().unwrap();
        let inplace = results.next().unwrap();
        let key_skew: HashMap<usize, f64> = jobs
            .iter()
            .map(|j| {
                let cv = j
                    .stages
                    .iter()
                    .map(|s| s.task_skew_cv())
                    .fold(0.0f64, f64::max);
                (j.id.index(), cv)
            })
            .collect();
        let gains = per_job_reduction(&inplace, &tetrium);
        for j in &tetrium.jobs {
            let gain = gains
                .iter()
                .find(|(id, _)| *id == j.id)
                .map(|(_, g)| *g)
                .unwrap_or(0.0);
            samples.push(Sample {
                ratio: j.intermediate_gb / j.input_gb.max(1e-9),
                input_skew: j.input_skew_cv,
                key_skew: key_skew.get(&j.id.index()).copied().unwrap_or(0.0),
                est_error: j.est_error,
                gain,
            });
        }
    }

    let mut record = serde_json::Map::new();
    #[allow(
        clippy::type_complexity,
        reason = "a literal table of (name, label, accessor, grid) rows"
    )]
    let axes: [(&str, &str, fn(&Sample) -> f64, &[f64]); 4] = [
        (
            "intermediate_input_ratio",
            "a: intermediate/input ratio",
            |s| s.ratio,
            &[0.2, 0.5, 1.0],
        ),
        (
            "input_skew_cv",
            "b: input data skew (CV)",
            |s| s.input_skew,
            &[0.5, 1.0, 2.0],
        ),
        (
            "intermediate_skew_cv",
            "c: intermediate data skew (CV)",
            |s| s.key_skew,
            &[0.5, 1.0, 2.0],
        ),
        (
            "estimation_error",
            "d: task estimation error",
            |s| s.est_error,
            &[0.1, 0.25, 0.5],
        ),
    ];
    for (key, title, axis, edges) in axes {
        let pairs: Vec<(f64, f64)> = samples.iter().map(|s| (axis(s), s.gain)).collect();
        record.insert(
            key.into(),
            print_buckets(title, &bucket_by(&pairs, edges)).into(),
        );
    }

    println!(
        "\n(paper: gains rise with the ratio and with skew up to CV~2, fall with estimation error)"
    );
    write_record("fig12", &serde_json::Value::Object(record));
}

use std::collections::HashMap;
