//! Fig 11 (table): gains under resource dynamics.
//!
//! Five random sites lose a fraction of their compute and network capacity
//! mid-run; Tetrium reacts with the limited re-assignment heuristic of §4.2
//! that updates at most `k` sites. Rows are the drop fraction, columns the
//! update budget `k`; cells report reduction in average response time vs
//! In-Place under the same drops. The paper sees gains grow with `k`
//! (saturating by k≈10) and shrink as drops deepen.

use crate::runner::{cell, run_cells, Cell, CellFn};
use crate::{banner, calibrated_trace, fifty_sites, quick_mode, trace_engine, write_record};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use tetrium::cluster::{DynamicsChange, DynamicsEvent, DynamicsTimeline, SiteId};
use tetrium::core::TetriumConfig;
use tetrium::metrics::reduction_pct;
use tetrium::sim::Engine;
use tetrium::SchedulerKind;
use tetrium_workload::trace_like_jobs;

/// Runs the drop × k grid.
pub fn run_fig() {
    banner("fig11", "resource dynamics: drop % x update budget k");
    let cluster = fifty_sites(1);
    // Full calibrated scale: under-scaled workloads erase the
    // Tetrium-vs-In-Place gap this table modulates.
    let params = calibrated_trace();
    let n_jobs = if quick_mode() { 6 } else { 16 };
    let mut rng = StdRng::seed_from_u64(11);
    let jobs = trace_like_jobs(&cluster, n_jobs, &params, &mut rng);

    // Degrade the five most capable sites: those carry the bulk of every
    // scheduler's placements, so the drop actually forces re-assignment
    // (random small sites are usually not load-bearing).
    let mut by_slots: Vec<usize> = (0..cluster.len()).collect();
    by_slots.sort_by_key(|&i| std::cmp::Reverse(cluster.site(SiteId(i)).slots));
    let targets: Vec<SiteId> = by_slots[..5].iter().map(|&i| SiteId(i)).collect();
    let drops_for = |frac: f64, rng: &mut StdRng| -> DynamicsTimeline {
        let keep = 1.0 - frac;
        DynamicsTimeline::new(
            targets
                .iter()
                .map(|&site| {
                    let at = rng.gen_range(50.0..250.0);
                    DynamicsEvent::new(site, at, DynamicsChange::Capacity { keep })
                })
                .collect(),
        )
    };
    let fractions: &[f64] = if quick_mode() {
        &[0.1, 0.5]
    } else {
        &[0.1, 0.3, 0.5]
    };
    let ks: &[usize] = if quick_mode() {
        &[3, 50]
    } else {
        &[3, 7, 20, 50]
    };

    print!("{:>8}", "drop");
    for &k in ks {
        print!("{:>9}", format!("k={k}"));
    }
    println!();

    // Drop schedules are derived per fraction up front (same rng stream as
    // before); every (fraction, scheduler) pair is then an independent cell.
    let drop_sets: Vec<(f64, DynamicsTimeline)> = fractions
        .iter()
        .map(|&frac| {
            let mut drop_rng = StdRng::seed_from_u64(1100 + (frac * 10.0) as u64);
            (frac, drops_for(frac, &mut drop_rng))
        })
        .collect();
    let mut grid: Vec<(Cell, CellFn<'_, _>)> = Vec::new();
    for (frac, drops) in &drop_sets {
        let workload = format!("trace-50 drop={frac}");
        grid.push(cell(
            Cell::new("fig11", "in-place", workload.clone(), 11),
            {
                let cluster = &cluster;
                let jobs = &jobs;
                move || {
                    Engine::new(
                        cluster.clone(),
                        jobs.clone(),
                        SchedulerKind::InPlace.build(),
                        trace_engine(11),
                    )
                    .with_dynamics(drops.clone())
                    .run()
                    .expect("in-place completes")
                }
            },
        ));
        for &k in ks {
            grid.push(cell(
                Cell::new("fig11", format!("tetrium k={k}"), workload.clone(), 11),
                {
                    let cluster = &cluster;
                    let jobs = &jobs;
                    move || {
                        Engine::new(
                            cluster.clone(),
                            jobs.clone(),
                            SchedulerKind::TetriumWith(TetriumConfig {
                                dynamics_k: Some(k),
                                ..TetriumConfig::default()
                            })
                            .build(),
                            trace_engine(11),
                        )
                        .with_dynamics(drops.clone())
                        .run()
                        .expect("tetrium completes")
                    }
                },
            ));
        }
    }
    let mut results = run_cells(grid).into_iter();

    let mut rows = Vec::new();
    for (frac, _) in &drop_sets {
        let baseline = results.next().unwrap();
        print!("{:>7.0}%", frac * 100.0);
        let mut cells = Vec::new();
        for &k in ks {
            let r = results.next().unwrap();
            let red = reduction_pct(baseline.avg_response(), r.avg_response());
            print!("{red:>8.0}%");
            cells.push(serde_json::json!({"k": k, "vs_inplace_pct": red}));
        }
        println!();
        rows.push(serde_json::json!({"drop_frac": frac, "cells": cells}));
    }
    println!("(paper: e.g. 30% drop: 16/26/32/34% for k=3/7/20/50; gains rise with k, fall with drop depth)");
    write_record("fig11", &serde_json::json!({ "rows": rows }));
}
