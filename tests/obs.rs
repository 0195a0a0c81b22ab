//! Integration tests for the observability layer: the obs record must
//! reconcile with the run report and with itself (slot timeline against
//! the task records derived from its event log), and its serialized form
//! must be deterministic for a seed.

use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium::cluster::ec2_eight_regions;
use tetrium::obs::TaskPhaseEvent;
use tetrium::sim::{EngineConfig, RunReport, SpeculationConfig};
use tetrium::workload::trace_like_jobs;
use tetrium::{run_workload, SchedulerKind};

fn run_with(cfg: EngineConfig) -> RunReport {
    let cluster = ec2_eight_regions();
    let mut rng = StdRng::seed_from_u64(9);
    let jobs = trace_like_jobs(&cluster, 6, &Default::default(), &mut rng);
    run_workload(cluster, jobs, SchedulerKind::Tetrium, cfg).expect("completes")
}

#[test]
fn obs_is_off_by_default() {
    let report = run_with(EngineConfig::trace_like(9));
    assert!(report.obs.is_none(), "no obs record unless requested");
}

/// With failure injection and speculation off (true for `trace_like`),
/// every slot-second the obs slot timeline integrates belongs to a winning
/// attempt, so it must equal the per-site busy time summed from the task
/// records (an independent stream: the task-event log); and the obs WAN
/// matrix must sum to the flow-level ledger.
#[test]
fn obs_reconciles_with_trace_and_wan_ledger() {
    let mut cfg = EngineConfig::trace_like(9);
    cfg.record_obs = true;
    let report = run_with(cfg);
    let obs = report.obs.as_ref().expect("recorded");

    let mut from_records = vec![0.0; obs.n_sites()];
    for t in obs.task_records() {
        from_records[t.site.index()] += t.finished_at - t.launched_at;
    }
    let from_slots = obs.busy_secs(report.makespan);
    for (site, (a, b)) in from_slots.iter().zip(&from_records).enumerate() {
        assert!(
            (a - b).abs() < 1e-6 * (1.0 + b),
            "site {site}: slot-timeline busy {a} vs task-record busy {b}"
        );
    }
    for (site, u) in obs.utilization(report.makespan).into_iter().enumerate() {
        assert!(u <= 1.0 + 1e-9, "site {site} oversubscribed: {u}");
    }
    assert!(
        (obs.total_wan_gb() - report.total_wan_gb).abs() < 1e-6 * (1.0 + report.total_wan_gb),
        "obs WAN {} vs flow-level WAN {}",
        obs.total_wan_gb(),
        report.total_wan_gb
    );

    let total_tasks: usize = report.jobs.iter().map(|j| j.total_tasks).sum();
    let done = obs
        .task_events
        .iter()
        .filter(|e| e.phase == TaskPhaseEvent::Done)
        .count();
    assert_eq!(done, total_tasks, "one done event per task");

    assert!(!obs.sched.is_empty(), "scheduling instances were recorded");
    assert!(!obs.planner.is_empty(), "Tetrium emits planner breakdowns");
    assert!(obs.sched_wall_percentile(0.5) <= obs.sched_wall_percentile(0.99));
    let launched: usize = obs.sched.iter().map(|s| s.launched).sum();
    assert!(
        launched >= total_tasks,
        "every task was launched at least once"
    );
}

/// `to_json(false)` excludes the only measured (non-deterministic) field, so
/// two same-seed runs must serialize byte-identically.
#[test]
fn obs_json_is_deterministic_for_a_seed() {
    let mk = || {
        let mut cfg = EngineConfig::trace_like(9);
        cfg.record_obs = true;
        let report = run_with(cfg);
        serde_json::to_string(&report.obs.unwrap().to_json(false)).unwrap()
    };
    assert_eq!(mk(), mk());
}

/// With speculation and failure injection on, the counters and the event
/// stream stay mutually consistent.
#[test]
fn obs_counters_cover_speculation_and_failures() {
    let mut cfg = EngineConfig::trace_like(9);
    cfg.record_obs = true;
    cfg.speculation = Some(SpeculationConfig::default());
    cfg.failure_prob = 0.05;
    let report = run_with(cfg);
    let obs = report.obs.as_ref().expect("recorded");
    let c = obs.counters;
    assert_eq!(c.copies_launched, report.copies_launched);
    assert_eq!(c.copies_won, report.copies_won);
    assert_eq!(c.task_failures, report.task_failures);
    assert!(c.copies_won <= c.copies_launched);
    let failed_events = obs
        .task_events
        .iter()
        .filter(|e| e.phase == TaskPhaseEvent::Failed)
        .count();
    assert_eq!(failed_events, c.task_failures);
    let cancelled_events = obs
        .task_events
        .iter()
        .filter(|e| e.phase == TaskPhaseEvent::Cancelled)
        .count();
    assert_eq!(cancelled_events, c.attempts_cancelled);
    let total_tasks: usize = report.jobs.iter().map(|j| j.total_tasks).sum();
    let done = obs
        .task_events
        .iter()
        .filter(|e| e.phase == TaskPhaseEvent::Done)
        .count();
    assert_eq!(done, total_tasks, "exactly one winning attempt per task");
}
