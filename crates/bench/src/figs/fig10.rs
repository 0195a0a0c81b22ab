//! Fig 10: balancing response time against WAN usage (ρ) and fairness (ε).
//!
//! (a)(b) sweep the WAN-budget knob ρ and report reduction in average
//! response time and in WAN usage vs In-Place and Centralized; (c) sweeps
//! the fairness knob ε and reports response-time reduction vs In-Place.

use crate::runner::{cell, run_cells, Cell, CellFn};
use crate::{banner, fifty_sites, fig10_trace, quick_mode, rt_reduction, run, write_record};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::core::{TetriumConfig, WanKnob};
use tetrium::metrics::wan_reduction_pct;
use tetrium::SchedulerKind;

/// Runs both sweeps. The two baselines plus every rho and epsilon point
/// are independent cells over the same workload and run in parallel.
pub fn run_fig() {
    banner("fig10", "WAN-budget knob rho and fairness knob epsilon");
    let cluster = fifty_sites(1);
    let jobs = {
        let mut rng = StdRng::seed_from_u64(4);
        tetrium_workload::trace_like_jobs(&cluster, 14, &fig10_trace(), &mut rng)
    };
    let rhos: &[f64] = if quick_mode() {
        &[0.0, 0.5, 1.0]
    } else {
        &[0.0, 0.25, 0.5, 0.75, 1.0]
    };
    let epsilons: &[f64] = if quick_mode() {
        &[0.0, 0.6, 1.0]
    } else {
        &[0.0, 0.2, 0.4, 0.6, 0.8, 1.0]
    };

    let mut cells: Vec<(Cell, CellFn<'_, _>)> = vec![
        cell(Cell::new("fig10", "in-place", "trace-50-light", 10), || {
            run(&cluster, &jobs, SchedulerKind::InPlace, 10)
        }),
        cell(
            Cell::new("fig10", "centralized", "trace-50-light", 10),
            || run(&cluster, &jobs, SchedulerKind::Centralized, 10),
        ),
    ];
    for &rho in rhos {
        cells.push(cell(
            Cell::new("fig10", format!("tetrium rho={rho}"), "trace-50-light", 10),
            {
                let cluster = &cluster;
                let jobs = &jobs;
                move || {
                    run(
                        cluster,
                        jobs,
                        SchedulerKind::TetriumWith(TetriumConfig {
                            wan: WanKnob::new(rho).expect("the rho sweep is finite"),
                            ..TetriumConfig::default()
                        }),
                        10,
                    )
                }
            },
        ));
    }
    for &eps in epsilons {
        cells.push(cell(
            Cell::new("fig10", format!("tetrium eps={eps}"), "trace-50-light", 10),
            {
                let cluster = &cluster;
                let jobs = &jobs;
                move || {
                    run(
                        cluster,
                        jobs,
                        SchedulerKind::TetriumWith(TetriumConfig {
                            epsilon: eps,
                            ..TetriumConfig::default()
                        }),
                        10,
                    )
                }
            },
        ));
    }
    let mut results = run_cells(cells).into_iter();
    let inplace = results.next().unwrap();
    let central = results.next().unwrap();

    println!("\n(a)(b) rho sweep");
    println!(
        "{:>6} {:>12} {:>12} | {:>12} {:>12}",
        "rho", "RT vs I-P", "WAN vs I-P", "RT vs Cen", "WAN vs Cen"
    );
    let mut rho_rows = Vec::new();
    for &rho in rhos {
        let r = results.next().unwrap();
        let rt_ip = rt_reduction(&inplace, &r);
        let wan_ip = wan_reduction_pct(&inplace, &r);
        let rt_ce = rt_reduction(&central, &r);
        let wan_ce = wan_reduction_pct(&central, &r);
        println!("{rho:>6.2} {rt_ip:>11.0}% {wan_ip:>11.0}% | {rt_ce:>11.0}% {wan_ce:>11.0}%");
        rho_rows.push(serde_json::json!({
            "rho": rho,
            "rt_vs_inplace_pct": rt_ip,
            "wan_vs_inplace_pct": wan_ip,
            "rt_vs_centralized_pct": rt_ce,
            "wan_vs_centralized_pct": wan_ce,
            "avg_response_s": r.avg_response(),
            "wan_gb": r.total_wan_gb,
        }));
    }
    println!("(paper: response reduction grows with rho, WAN savings shrink; sweet spot ~0.75)");

    println!("\n(c) epsilon sweep (RT reduction vs In-Place)");
    let mut eps_rows = Vec::new();
    for &eps in epsilons {
        let r = results.next().unwrap();
        let red = rt_reduction(&inplace, &r);
        println!("  eps={eps:>4.2}  {red:>6.0}%");
        eps_rows.push(serde_json::json!({"epsilon": eps, "rt_vs_inplace_pct": red}));
    }
    println!("(paper: gains grow from ~0 at eps=0 to the full SRPT gain at eps=1; knee ~0.6)");
    write_record(
        "fig10",
        &serde_json::json!({"rho": rho_rows, "epsilon": eps_rows}),
    );
}
