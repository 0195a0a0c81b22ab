//! Fig 3 / Fig 4: the three-site worked example.
//!
//! Reproduces the paper's exact arithmetic (worst-case accounting):
//! Iridium 88.5 s, the better (Tetrium-style) placement 59.83 s, the
//! Centralized strawman 93 s — and then runs the same job through the
//! discrete-event engine under each scheduler.

use crate::runner::{cell, run_cells, Cell};
use crate::{banner, write_record};
use tetrium::core::analytic::{evaluate_map_counts, evaluate_reduce_counts};
use tetrium::core::reduce_placement::{solve_reduce_placement, ReduceProblem};
use tetrium::sim::EngineConfig;
use tetrium::workload::{fig4_cluster, fig4_job};
use tetrium::{run_workload, SchedulerKind};

const UP: [f64; 3] = [5.0, 1.0, 2.0];
const DOWN: [f64; 3] = [5.0, 1.0, 5.0];
const SLOTS: [usize; 3] = [40, 10, 20];

/// Prints the analytic tables and the engine replication.
pub fn run() {
    banner("fig3", "three-site worked example (Fig 3/4)");

    // (a) Iridium: maps local; reduce placement from its network-only LP.
    let iridium_map = evaluate_map_counts(
        &vec![vec![0.0; 3]; 3],
        &[200, 300, 500],
        2.0,
        &UP,
        &DOWN,
        &SLOTS,
        true,
    );
    let red = solve_reduce_placement(&ReduceProblem {
        shuffle_gb: vec![10.0, 15.0, 25.0],
        num_tasks: 500,
        task_secs: 1.0,
        up_gbps: UP.to_vec(),
        down_gbps: DOWN.to_vec(),
        slots: SLOTS.to_vec(),
        wan_budget_gb: None,
        network_only: true,
        next_stage_out_gb: None,
    })
    .expect("feasible");
    let iridium_red = evaluate_reduce_counts(
        &[10.0, 15.0, 25.0],
        &red.fractions,
        &red.tasks_at,
        1.0,
        &UP,
        &DOWN,
        &SLOTS,
        true,
    );
    let iridium_total = iridium_map.total() + iridium_red.total();

    // (b) The better approach: the paper's plan (Fig 3 right).
    let mut moved = vec![vec![0.0; 3]; 3];
    moved[1][0] = 15.7;
    moved[2][0] = 21.4;
    let better_map = evaluate_map_counts(&moved, &[571, 143, 286], 2.0, &UP, &DOWN, &SLOTS, true);
    let better_red = evaluate_reduce_counts(
        &[28.55, 7.15, 14.3],
        &[0.571, 0.143, 0.286],
        &[286, 71, 143],
        1.0,
        &UP,
        &DOWN,
        &SLOTS,
        true,
    );
    let better_total = better_map.total() + better_red.total();

    // (c) Centralized: aggregate everything at site 1.
    let mut agg = vec![vec![0.0; 3]; 3];
    agg[1][0] = 30.0;
    agg[2][0] = 50.0;
    let central_map = evaluate_map_counts(&agg, &[1000, 0, 0], 2.0, &UP, &DOWN, &SLOTS, true);
    let central_red = evaluate_reduce_counts(
        &[25.0, 0.0, 0.0],
        &[1.0, 0.0, 0.0],
        &[500, 0, 0],
        1.0,
        &UP,
        &DOWN,
        &SLOTS,
        true,
    );
    let central_total = central_map.total() + central_red.total();

    println!("analytic (paper accounting)     transfer+compute per stage        total   paper");
    println!(
        "  iridium      map {:5.1}+{:5.1}  reduce {:5.2}+{:5.1}   -> {:6.2}   88.50",
        iridium_map.transfer,
        iridium_map.compute,
        iridium_red.transfer,
        iridium_red.compute,
        iridium_total
    );
    println!(
        "  better       map {:5.1}+{:5.1}  reduce {:5.2}+{:5.1}   -> {:6.2}   59.83",
        better_map.transfer,
        better_map.compute,
        better_red.transfer,
        better_red.compute,
        better_total
    );
    println!(
        "  centralized  map {:5.1}+{:5.1}  reduce {:5.2}+{:5.1}   -> {:6.2}   93.00",
        central_map.transfer,
        central_map.compute,
        central_red.transfer,
        central_red.compute,
        central_total
    );

    // Engine replication (fetch/compute overlap, so values sit below the
    // worst-case bounds while preserving the ordering). One cell per
    // scheduler; formatting consumes the results in cell order.
    println!("\nengine (discrete-event, overlap allowed)");
    let kinds = [
        ("tetrium", SchedulerKind::Tetrium),
        ("iridium", SchedulerKind::Iridium),
        ("centralized", SchedulerKind::Centralized),
        ("in-place", SchedulerKind::InPlace),
    ];
    let cells = kinds
        .iter()
        .map(|(name, kind)| {
            cell(
                Cell::new("fig3", *name, "fig4-worked-example", 0),
                move || {
                    run_workload(
                        fig4_cluster(),
                        vec![fig4_job()],
                        kind.clone(),
                        EngineConfig::default(),
                    )
                    .expect("completes")
                },
            )
        })
        .collect();
    let mut engine = serde_json::Map::new();
    for r in run_cells(cells) {
        println!(
            "  {:12} response {:7.2} s   wan {:6.1} GB",
            r.scheduler, r.jobs[0].response, r.total_wan_gb
        );
        engine.insert(
            r.scheduler.clone(),
            serde_json::json!({"response_s": r.jobs[0].response, "wan_gb": r.total_wan_gb}),
        );
    }

    write_record(
        "fig3",
        &serde_json::json!({
            "analytic": {
                "iridium": {"total_s": iridium_total, "paper_s": 88.5},
                "better": {"total_s": better_total, "paper_s": 59.83},
                "centralized": {"total_s": central_total, "paper_s": 93.0},
            },
            "engine": serde_json::Value::Object(engine),
        }),
    );
}
