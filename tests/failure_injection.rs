//! Cross-crate behaviour under injected task failures (the trace's
//! fail-over events): every scheduler must drive flaky workloads to
//! completion, failures must only ever delay jobs, and the WAN ledger must
//! reconcile exactly however many attempts are lost.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::cluster::ec2_eight_regions;
use tetrium::cluster::{DynamicsChange, DynamicsEvent, DynamicsTimeline, SiteId};
use tetrium::sim::EngineConfig;
use tetrium::workload::bigdata_like_jobs;
use tetrium::{run_workload, SchedulerKind};

/// Per-job WAN charges must sum to the flow simulator's ledger: every
/// refund for a failed or cancelled attempt was given back exactly once.
fn assert_wan_reconciles(report: &tetrium::sim::RunReport, ctx: &str) {
    let per_job: f64 = report.jobs.iter().map(|j| j.wan_gb).sum();
    assert!(
        (per_job - report.total_wan_gb).abs() < 1e-6 * (1.0 + report.total_wan_gb),
        "{ctx}: per-job wan {per_job} != flowsim wan {}",
        report.total_wan_gb
    );
}

#[test]
fn every_scheduler_survives_failures() {
    let cluster = ec2_eight_regions();
    let mut rng = StdRng::seed_from_u64(41);
    let jobs = bigdata_like_jobs(&cluster, 5, 20.0, 3.0, &mut rng);
    for kind in [
        SchedulerKind::Tetrium,
        SchedulerKind::InPlace,
        SchedulerKind::Iridium,
        SchedulerKind::Swag,
        SchedulerKind::Tetris,
        SchedulerKind::Centralized,
    ] {
        let report = run_workload(
            cluster.clone(),
            jobs.clone(),
            kind.clone(),
            EngineConfig {
                failure_prob: 0.15,
                seed: 5,
                ..EngineConfig::default()
            },
        )
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_eq!(report.jobs.len(), 5, "{}", kind.name());
        assert!(report.task_failures > 0, "{}", kind.name());
        assert_wan_reconciles(&report, &kind.name());
    }
}

#[test]
fn failures_only_delay_never_speed_up() {
    let cluster = ec2_eight_regions();
    let mut rng = StdRng::seed_from_u64(43);
    let jobs = bigdata_like_jobs(&cluster, 4, 0.0, 3.0, &mut rng);
    let clean = run_workload(
        cluster.clone(),
        jobs.clone(),
        SchedulerKind::InPlace,
        EngineConfig::default(),
    )
    .unwrap();
    let flaky = run_workload(
        cluster,
        jobs,
        SchedulerKind::InPlace,
        EngineConfig {
            failure_prob: 0.25,
            seed: 9,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    // With site-local placement the re-executions strictly add work, so the
    // makespan cannot shrink.
    assert!(
        flaky.makespan >= clean.makespan - 1e-9,
        "flaky {:.1} vs clean {:.1}",
        flaky.makespan,
        clean.makespan
    );
    assert_wan_reconciles(&clean, "clean");
    assert_wan_reconciles(&flaky, "flaky");
}

/// The monotonicity property must also hold when a mid-run capacity drop is
/// active: injected failures on top of the degraded cluster only add work.
#[test]
fn failures_only_delay_under_mid_run_drops() {
    use tetrium::sim::Engine;
    let cluster = ec2_eight_regions();
    let mut rng = StdRng::seed_from_u64(43);
    let jobs = bigdata_like_jobs(&cluster, 4, 0.0, 3.0, &mut rng);
    let drops = DynamicsTimeline::new(vec![DynamicsEvent::new(
        SiteId(0),
        50.0,
        DynamicsChange::Capacity { keep: 0.5 },
    )]);
    let run = |failure_prob: f64, seed: u64| {
        Engine::new(
            cluster.clone(),
            jobs.clone(),
            SchedulerKind::InPlace.build(),
            EngineConfig {
                failure_prob,
                seed,
                ..EngineConfig::default()
            },
        )
        .with_dynamics(drops.clone())
        .run()
        .unwrap()
    };
    let clean = run(0.0, 0);
    let flaky = run(0.25, 9);
    assert_eq!(clean.dynamics_events, 1);
    assert_eq!(flaky.dynamics_events, 1);
    assert!(flaky.task_failures > 0);
    assert!(
        flaky.makespan >= clean.makespan - 1e-9,
        "flaky {:.1} vs clean {:.1}",
        flaky.makespan,
        clean.makespan
    );
    assert_wan_reconciles(&clean, "drop-clean");
    assert_wan_reconciles(&flaky, "drop-flaky");
}

/// A full site outage with recovery: every scheduler still completes, the
/// retry path re-places the stranded attempts, and the slot/WAN ledgers
/// reconcile (occupancy returns to zero everywhere, per-job WAN matches the
/// flow simulator).
#[test]
fn outage_with_recovery_reconciles_ledgers_for_every_scheduler() {
    use tetrium::cluster::{DynamicsChange, DynamicsEvent, DynamicsTimeline};
    use tetrium::run_workload_dynamic;
    let cluster = ec2_eight_regions();
    let mut rng = StdRng::seed_from_u64(41);
    let jobs = bigdata_like_jobs(&cluster, 5, 20.0, 3.0, &mut rng);
    let timeline = DynamicsTimeline::new(vec![
        DynamicsEvent::new(SiteId(2), 40.0, DynamicsChange::Outage),
        DynamicsEvent::new(SiteId(2), 120.0, DynamicsChange::Recover),
    ]);
    for kind in [
        SchedulerKind::Tetrium,
        SchedulerKind::InPlace,
        SchedulerKind::Iridium,
        SchedulerKind::Swag,
        SchedulerKind::Tetris,
        SchedulerKind::Centralized,
    ] {
        let cfg = EngineConfig {
            record_obs: true,
            ..EngineConfig::default()
        };
        let report = run_workload_dynamic(
            cluster.clone(),
            jobs.clone(),
            kind.clone(),
            cfg,
            timeline.clone(),
        )
        .unwrap_or_else(|e| panic!("{}: {e}", kind.name()));
        assert_eq!(report.jobs.len(), 5, "{}", kind.name());
        assert_eq!(report.dynamics_events, 2, "{}", kind.name());
        assert_wan_reconciles(&report, &kind.name());
        let obs = report.obs.as_ref().expect("record_obs set");
        assert_eq!(obs.counters.site_outages, 1, "{}", kind.name());
        // Slot ledger: occupancy at every site drained back to zero.
        for (site, tl) in obs.slot_timeline.iter().enumerate() {
            if let Some(&(_, occ)) = tl.last() {
                assert_eq!(occ, 0, "{}: site {site} ends occupied", kind.name());
            }
        }
    }
}
