//! React to mid-run capacity drops with limited re-assignment (§4.2).
//!
//! Two sites lose 40% of their compute and network capacity while a batch
//! of jobs runs. Tetrium re-plans, but updating every site manager is
//! expensive, so the `k` knob bounds how many sites may change assignment;
//! this example sweeps `k` and prints the cost of reacting narrowly.
//!
//! Run with: `cargo run --release --example capacity_drop_recovery`

use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::cluster::{
    ec2_eight_regions, DynamicsChange, DynamicsEvent, DynamicsTimeline, SiteId,
};
use tetrium::core::TetriumConfig;
use tetrium::sim::{Engine, EngineConfig};
use tetrium::workload::bigdata_like_jobs;
use tetrium::SchedulerKind;

fn main() {
    let cluster = ec2_eight_regions();
    let mut rng = StdRng::seed_from_u64(31);
    let jobs = bigdata_like_jobs(&cluster, 10, 15.0, 20.0, &mut rng);
    let drop = |site, at| DynamicsEvent::new(site, at, DynamicsChange::Capacity { keep: 0.6 });
    let drops = DynamicsTimeline::new(vec![drop(SiteId(0), 60.0), drop(SiteId(5), 120.0)]);
    println!("two sites lose 40% capacity at t=60s and t=120s\n");
    println!("{:>14} {:>12}", "update budget", "avg resp");

    // Unconstrained re-planning as the reference point.
    let full = Engine::new(
        cluster.clone(),
        jobs.clone(),
        SchedulerKind::Tetrium.build(),
        EngineConfig::default(),
    )
    .with_dynamics(drops.clone())
    .run()
    .expect("completes");
    println!("{:>14} {:>10.0} s", "unlimited", full.avg_response());

    for k in [1usize, 2, 4, 8] {
        let r = Engine::new(
            cluster.clone(),
            jobs.clone(),
            SchedulerKind::TetriumWith(TetriumConfig {
                dynamics_k: Some(k),
                ..TetriumConfig::default()
            })
            .build(),
            EngineConfig::default(),
        )
        .with_dynamics(drops.clone())
        .run()
        .expect("completes");
        println!("{:>14} {:>10.0} s", format!("k = {k}"), r.avg_response());
    }
    println!("\n(small k limits coordination overhead; the paper finds k of 5-7 captures most gains on 50 sites)");
}
