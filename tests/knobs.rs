//! End-to-end behaviour of the ρ (WAN budget) and ε (fairness) knobs.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::cluster::ec2_eight_regions;
use tetrium::core::{TetriumConfig, WanKnob};
use tetrium::metrics::jain_index;
use tetrium::sim::EngineConfig;
use tetrium::workload::{bigdata_like_jobs, trace_like_jobs, TraceParams};
use tetrium::{isolated_service_times, run_workload, SchedulerKind};

fn tetrium_with(mutate: impl FnOnce(&mut TetriumConfig)) -> SchedulerKind {
    let mut cfg = TetriumConfig::default();
    mutate(&mut cfg);
    SchedulerKind::TetriumWith(cfg)
}

#[test]
fn rho_zero_saves_wan() {
    let cluster = ec2_eight_regions();
    let mut rng = StdRng::seed_from_u64(21);
    let jobs = bigdata_like_jobs(&cluster, 10, 10.0, 2.0, &mut rng);
    let run = |rho: f64| {
        run_workload(
            cluster.clone(),
            jobs.clone(),
            tetrium_with(|c| c.wan = WanKnob::new(rho).unwrap()),
            EngineConfig::default(),
        )
        .unwrap()
    };
    let frugal = run(0.0);
    let free = run(1.0);
    // The knob's hard guarantee: rho = 0 never exceeds the frugal budget.
    // Whether the extra WAN at rho = 1 buys response time depends on the
    // compute/network regime (Fig 10 sweeps it in the bench harness), so
    // only the WAN ordering is asserted here.
    assert!(
        frugal.total_wan_gb < free.total_wan_gb,
        "rho=0 wan {:.1} vs rho=1 wan {:.1}",
        frugal.total_wan_gb,
        free.total_wan_gb
    );
}

#[test]
fn rho_one_wins_when_compute_bound() {
    // The Fig 4 worked example is compute-bound (site 2 runs 30 waves when
    // everything stays local), so spending WAN must pay off: the paper's
    // better approach beats in-place by ~33% on this instance.
    use tetrium::workload::{fig4_cluster, fig4_job};
    let run = |rho: f64| {
        run_workload(
            fig4_cluster(),
            vec![fig4_job()],
            tetrium_with(|c| c.wan = WanKnob::new(rho).unwrap()),
            EngineConfig::default(),
        )
        .unwrap()
        .jobs[0]
            .response
    };
    let frugal = run(0.0);
    let free = run(1.0);
    assert!(
        free < frugal,
        "rho=1 response {free:.1} should beat rho=0 {frugal:.1} on Fig 4"
    );
}

#[test]
fn rho_interpolates_wan_usage() {
    let cluster = ec2_eight_regions();
    let mut rng = StdRng::seed_from_u64(23);
    let jobs = bigdata_like_jobs(&cluster, 8, 10.0, 2.0, &mut rng);
    let wan = |rho: f64| {
        run_workload(
            cluster.clone(),
            jobs.clone(),
            tetrium_with(|c| c.wan = WanKnob::new(rho).unwrap()),
            EngineConfig::default(),
        )
        .unwrap()
        .total_wan_gb
    };
    let w0 = wan(0.0);
    let w5 = wan(0.5);
    let w1 = wan(1.0);
    // Monotone within a small tolerance (rounding of task counts can wiggle
    // a little).
    assert!(w0 <= w5 * 1.05 + 1.0, "w0 {w0:.1} w5 {w5:.1}");
    assert!(w5 <= w1 * 1.05 + 1.0, "w5 {w5:.1} w1 {w1:.1}");
    assert!(w0 < w1, "w0 {w0:.1} should be below w1 {w1:.1}");
}

#[test]
fn epsilon_trades_average_response_for_fairness() {
    let cluster = ec2_eight_regions();
    // SRPT's average-response advantage is regime-dependent: under heavy
    // cross-job WAN contention the ordering can invert on individual traces.
    // This seed sits in a clearly queue-bound regime where SRPT wins by ~10%,
    // so the assertion is robust to tie-breaking changes in the placement LP
    // (alternate optimal vertices shift realized contention slightly).
    let mut rng = StdRng::seed_from_u64(9);
    let params = TraceParams {
        mean_interarrival_secs: 5.0,
        median_input_gb: 3.0,
        stages: (2, 5),
        ..TraceParams::default()
    };
    let jobs = trace_like_jobs(&cluster, 12, &params, &mut rng);
    let isolated = isolated_service_times(&cluster, &jobs, SchedulerKind::Tetrium).unwrap();
    let run = |eps: f64| {
        run_workload(
            cluster.clone(),
            jobs.clone(),
            tetrium_with(|c| c.epsilon = eps),
            EngineConfig::default(),
        )
        .unwrap()
    };
    let srpt = run(1.0);
    let fair = run(0.0);
    // SRPT optimizes average response.
    assert!(
        srpt.avg_response() <= fair.avg_response() + 1e-9,
        "srpt {:.1} vs fair {:.1}",
        srpt.avg_response(),
        fair.avg_response()
    );
    // Full fairness should not make the slowdown distribution much *less*
    // fair than SRPT (it typically improves it).
    let slow = |r: &tetrium::sim::RunReport| {
        let s: Vec<f64> = r
            .jobs
            .iter()
            .zip(&isolated)
            .map(|(j, &iso)| j.response / iso)
            .collect();
        jain_index(&s)
    };
    assert!(slow(&fair) >= slow(&srpt) - 0.15);
}

#[test]
fn dynamics_k_still_completes_under_capacity_drops() {
    use tetrium::cluster::{DynamicsChange, DynamicsEvent, DynamicsTimeline, SiteId};
    use tetrium::sim::Engine;

    let cluster = ec2_eight_regions();
    let mut rng = StdRng::seed_from_u64(31);
    let jobs = bigdata_like_jobs(&cluster, 6, 10.0, 2.0, &mut rng);
    for k in [1, 3, 8] {
        let kind = tetrium_with(|c| c.dynamics_k = Some(k));
        let drops = DynamicsTimeline::new(vec![
            DynamicsEvent::new(SiteId(0), 5.0, DynamicsChange::Capacity { keep: 0.6 }),
            DynamicsEvent::new(SiteId(3), 9.0, DynamicsChange::Capacity { keep: 0.7 }),
        ]);
        let report = Engine::new(
            cluster.clone(),
            jobs.clone(),
            kind.build(),
            EngineConfig::default(),
        )
        .with_dynamics(drops)
        .run()
        .unwrap_or_else(|e| panic!("k={k}: {e}"));
        assert_eq!(report.jobs.len(), 6);
    }
}
