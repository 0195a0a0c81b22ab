//! Tune the WAN-usage (ρ) and fairness (ε) knobs.
//!
//! Sweeps both control knobs of §4.3/§4.4 over a Big-Data-benchmark-like
//! workload on the 8-region EC2 preset and prints the trade-off each knob
//! exposes: ρ trades response time against bytes shipped over the WAN,
//! ε trades average response time against even slot sharing across jobs.
//!
//! Run with: `cargo run --release --example wan_budget_tuning`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::cluster::ec2_eight_regions;
use tetrium::core::{TetriumConfig, WanKnob};
use tetrium::metrics::jain_index;
use tetrium::sim::EngineConfig;
use tetrium::workload::bigdata_like_jobs;
use tetrium::{isolated_service_times, run_workload, SchedulerKind};

fn main() {
    let cluster = ec2_eight_regions();
    let mut rng = StdRng::seed_from_u64(21);
    let jobs = bigdata_like_jobs(&cluster, 10, 60.0, 15.0, &mut rng);

    println!("rho sweep (WAN budget):");
    println!("{:>6} {:>12} {:>10}", "rho", "avg resp", "WAN (GB)");
    for rho in [0.0, 0.25, 0.5, 0.75, 1.0] {
        let r = run_workload(
            cluster.clone(),
            jobs.clone(),
            SchedulerKind::TetriumWith(TetriumConfig {
                wan: WanKnob::new(rho).expect("the rho sweep is finite"),
                ..TetriumConfig::default()
            }),
            EngineConfig::default(),
        )
        .expect("completes");
        println!(
            "{rho:>6.2} {:>10.0} s {:>10.1}",
            r.avg_response(),
            r.total_wan_gb
        );
    }

    println!("\nepsilon sweep (fairness):");
    println!("{:>6} {:>12} {:>16}", "eps", "avg resp", "Jain(slowdown)");
    let isolated = isolated_service_times(&cluster, &jobs, SchedulerKind::Tetrium)
        .expect("isolated runs complete");
    for eps in [0.0, 0.2, 0.4, 0.6, 0.8, 1.0] {
        let r = run_workload(
            cluster.clone(),
            jobs.clone(),
            SchedulerKind::TetriumWith(TetriumConfig {
                epsilon: eps,
                ..TetriumConfig::default()
            }),
            EngineConfig::default(),
        )
        .expect("completes");
        let slowdowns: Vec<f64> = r
            .jobs
            .iter()
            .zip(&isolated)
            .map(|(j, &iso)| j.response / iso)
            .collect();
        println!(
            "{eps:>6.2} {:>10.0} s {:>16.3}",
            r.avg_response(),
            jain_index(&slowdowns)
        );
    }
    println!(
        "\n(rho -> 0 minimizes WAN bytes; eps -> 0 reserves slots fairly across jobs.\n\
         On this bandwidth-starved EC2 preset frugality also wins response time;\n\
         in compute-bound regimes the budget buys speed instead — compare the\n\
         quickstart example and the fig10 bench.)"
    );
}
