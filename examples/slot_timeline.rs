//! Inspect where slot time goes with the run's obs record.
//!
//! Runs the Fig 4 worked example with obs recording enabled and prints,
//! per scheduler, the per-site slot utilization and the fetch/compute split
//! — the diagnostic behind the paper's argument that WAN transfers must be
//! scheduled jointly with compute.
//!
//! Run with: `cargo run --release --example slot_timeline`

use tetrium::sim::EngineConfig;
use tetrium::workload::{fig4_cluster, fig4_job};
use tetrium::{run_workload, SchedulerKind};

fn main() {
    for kind in [SchedulerKind::InPlace, SchedulerKind::Tetrium] {
        let report = run_workload(
            fig4_cluster(),
            vec![fig4_job()],
            kind,
            EngineConfig {
                record_obs: true,
                ..EngineConfig::default()
            },
        )
        .expect("run completes");
        let obs = report.obs.as_ref().expect("obs recorded");
        let util = obs.utilization(report.makespan);
        let (fetch, compute) = obs.fetch_compute_split();
        println!(
            "{:<10} response {:6.1} s   slot util per site {:?}   fetch/compute {:.0}/{:.0} slot-s",
            report.scheduler,
            report.jobs[0].response,
            util.iter()
                .map(|u| (u * 100.0).round() / 100.0)
                .collect::<Vec<_>>(),
            fetch,
            compute,
        );
    }
    println!(
        "\nIn-Place leaves the big site under-used while the slot-starved site grinds\n\
         through waves; Tetrium spends fetch time to level utilization."
    );
}
