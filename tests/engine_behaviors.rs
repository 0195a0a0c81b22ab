//! Behavioural integration tests for engine mechanisms: slot batching,
//! estimation error, speculation and the SWAG baseline end-to-end.

use tetrium::cluster::{Cluster, DataDistribution, Site};
use tetrium::jobs::{Job, JobId, Stage};
use tetrium::sim::{BatchPolicy, EngineConfig, SpeculationConfig};
use tetrium::{run_workload, SchedulerKind};

fn two_sites() -> Cluster {
    Cluster::new(vec![
        Site::new("a", 2, 1.0, 1.0),
        Site::new("b", 2, 1.0, 1.0),
    ])
}

fn wavey_job(id: usize) -> Job {
    // 24 tasks over 4 slots: six waves of slot releases.
    Job::new(
        JobId(id),
        format!("waves-{id}"),
        0.0,
        vec![Stage::root_map(
            DataDistribution::new(vec![1.2, 1.2]),
            24,
            1.0,
            0.2,
        )],
    )
}

#[test]
fn batching_reduces_scheduling_instances() {
    // Duration noise spreads slot releases in time; identical-duration
    // waves would coalesce into one instance even unbatched.
    let run = |batch: BatchPolicy| {
        run_workload(
            two_sites(),
            vec![wavey_job(0)],
            SchedulerKind::Tetrium,
            EngineConfig {
                batch,
                duration_cv: 0.4,
                seed: 9,
                ..EngineConfig::default()
            },
        )
        .unwrap()
    };
    let eager = run(BatchPolicy::None);
    let batched = run(BatchPolicy::Fixed(2.0));
    assert!(
        batched.sched_invocations < eager.sched_invocations,
        "batched {} vs eager {}",
        batched.sched_invocations,
        eager.sched_invocations
    );
    // Batching trades a little response time, not correctness.
    assert_eq!(batched.jobs.len(), 1);
    assert!(batched.jobs[0].response >= eager.jobs[0].response - 1e-9);
}

#[test]
fn adaptive_batching_completes_and_coalesces() {
    let report = run_workload(
        two_sites(),
        vec![wavey_job(0), wavey_job_offset(1, 3.0)],
        SchedulerKind::Tetrium,
        EngineConfig {
            batch: BatchPolicy::Adaptive {
                factor: 0.5,
                max_secs: 5.0,
            },
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert_eq!(report.jobs.len(), 2);
    assert!(report.sched_invocations > 0);
}

fn wavey_job_offset(id: usize, arrival: f64) -> Job {
    let mut j = wavey_job(id);
    j.arrival = arrival;
    j
}

#[test]
fn estimation_error_is_sampled_and_reported() {
    let noisy = run_workload(
        two_sites(),
        vec![wavey_job(0)],
        SchedulerKind::Tetrium,
        EngineConfig {
            estimation_error: 0.4,
            seed: 5,
            ..EngineConfig::default()
        },
    )
    .unwrap();
    assert!(noisy.jobs[0].est_error > 0.0);
    assert!(noisy.jobs[0].est_error <= 0.4 + 1e-9);
    let exact = run_workload(
        two_sites(),
        vec![wavey_job(0)],
        SchedulerKind::Tetrium,
        EngineConfig::default(),
    )
    .unwrap();
    assert_eq!(exact.jobs[0].est_error, 0.0);
}

#[test]
fn speculation_never_loses_tasks_under_contention() {
    let cfg = EngineConfig {
        duration_cv: 0.3,
        straggler_prob: 0.3,
        straggler_mult: (3.0, 20.0),
        speculation: Some(SpeculationConfig {
            threshold: 1.5,
            max_copies_frac: 0.3,
        }),
        batch: BatchPolicy::Fixed(0.5),
        seed: 11,
        ..EngineConfig::default()
    };
    let report = run_workload(
        two_sites(),
        vec![wavey_job(0), wavey_job_offset(1, 1.0)],
        SchedulerKind::Tetrium,
        cfg,
    )
    .unwrap();
    assert_eq!(report.jobs.len(), 2);
    assert!(report.copies_launched >= report.copies_won);
}

#[test]
fn swag_runs_multi_wave_workloads_and_orders_reasonably() {
    // A small job arriving alongside a big one should not wait behind it.
    let big = wavey_job(0);
    let small = Job::new(
        JobId(1),
        "small",
        0.0,
        vec![Stage::root_map(
            DataDistribution::new(vec![0.1, 0.1]),
            2,
            1.0,
            0.2,
        )],
    );
    let report = run_workload(
        two_sites(),
        vec![big, small],
        SchedulerKind::Swag,
        EngineConfig::default(),
    )
    .unwrap();
    let small_resp = report.response_of(JobId(1)).expect("small job ran");
    let big_resp = report.response_of(JobId(0)).expect("big job ran");
    assert!(
        small_resp < big_resp,
        "small {small_resp:.1} should beat big {big_resp:.1}"
    );
}
