//! Integration tests for scheduler-internal mechanisms observable from
//! outside: the LP job budget, the lookahead knob, and snapshot accuracy.

use tetrium::cluster::{Cluster, DataDistribution, Site, SiteId};
use tetrium::core::{TetriumConfig, TetriumScheduler};
use tetrium::jobs::{Job, JobId, Stage};
use tetrium::sim::{Engine, EngineConfig, Scheduler, Snapshot, StagePlan};
use tetrium::{run_workload, SchedulerKind};

fn cluster() -> Cluster {
    Cluster::new(vec![
        Site::new("big", 30, 2.0, 2.0),
        Site::new("thin", 4, 0.05, 0.5),
        Site::new("mid", 10, 0.5, 0.5),
    ])
}

fn chain_job(id: usize, gb: f64) -> Job {
    Job::new(
        JobId(id),
        format!("chain-{id}"),
        0.0,
        vec![
            Stage::root_map(
                DataDistribution::new(vec![0.1 * gb, 0.8 * gb, 0.1 * gb]),
                20,
                2.0,
                0.8,
            ),
            Stage::reduce(vec![0], 16, 2.0, 0.6),
            Stage::reduce(vec![1], 8, 1.0, 0.1),
        ],
    )
}

#[test]
fn lookahead_avoids_parking_data_behind_thin_uplinks() {
    let run = |lookahead: bool| {
        run_workload(
            cluster(),
            vec![chain_job(0, 8.0)],
            SchedulerKind::TetriumWith(TetriumConfig {
                lookahead,
                ..TetriumConfig::default()
            }),
            EngineConfig::default(),
        )
        .unwrap()
        .jobs[0]
            .response
    };
    let with = run(true);
    let without = run(false);
    // The lookahead exists precisely for chains through thin uplinks; it
    // must not lose, and on this instance it should win.
    assert!(
        with <= without * 1.02,
        "lookahead {with:.1} vs myopic {without:.1}"
    );
}

#[test]
fn lp_job_limit_falls_back_without_stalling() {
    // More jobs than the LP budget: over-limit jobs get site-local plans
    // but the run must still complete everything.
    let jobs: Vec<Job> = (0..8).map(|i| chain_job(i, 2.0)).collect();
    let report = run_workload(
        cluster(),
        jobs,
        SchedulerKind::TetriumWith(TetriumConfig {
            lp_job_limit: 2,
            ..TetriumConfig::default()
        }),
        EngineConfig::default(),
    )
    .unwrap();
    assert_eq!(report.jobs.len(), 8);
    assert!(report.jobs.iter().all(|j| j.response > 0.0));
}

/// A probe wrapped around the real scheduler that checks snapshot
/// invariants at every instance.
struct ProbingScheduler {
    inner: TetriumScheduler,
    checked: usize,
}

impl Scheduler for ProbingScheduler {
    fn name(&self) -> &str {
        "probe"
    }

    fn schedule(&mut self, snap: &Snapshot) -> Vec<StagePlan> {
        for (i, site) in snap.sites.iter().enumerate() {
            assert!(site.free_slots <= site.slots, "site {i} free > total");
            assert!(site.up_gbps > 0.0 && site.down_gbps > 0.0);
        }
        for job in &snap.jobs {
            assert!(job.remaining_stages >= 1);
            assert!(job.remaining_stages <= job.total_stages);
            assert_eq!(job.stages.len(), job.total_stages);
            for st in &job.runnable {
                assert_eq!(st.tasks.len(), st.num_tasks);
                assert!(!st.input_gb.is_empty());
                assert!(st.est_task_secs > 0.0);
                // Stage metadata and runnable view agree.
                assert!(!job.stages[st.stage_index].done);
            }
        }
        self.checked += 1;
        self.inner.schedule(snap)
    }
}

#[test]
fn snapshots_satisfy_invariants_at_every_instance() {
    let probe = ProbingScheduler {
        inner: TetriumScheduler::standard(),
        checked: 0,
    };
    let report = Engine::new(
        cluster(),
        (0..3).map(|i| chain_job(i, 4.0)).collect(),
        Box::new(probe),
        EngineConfig {
            duration_cv: 0.2,
            seed: 3,
            ..EngineConfig::default()
        },
    )
    .run()
    .unwrap();
    assert!(report.sched_invocations > 3);
}

#[test]
fn capacity_drop_is_visible_in_snapshots() {
    use tetrium::cluster::{DynamicsChange, DynamicsEvent, DynamicsTimeline};

    struct DropWatcher {
        inner: TetriumScheduler,
        saw_degraded: std::sync::Arc<std::sync::atomic::AtomicBool>,
    }
    impl Scheduler for DropWatcher {
        fn name(&self) -> &str {
            "watch"
        }
        fn schedule(&mut self, snap: &Snapshot) -> Vec<StagePlan> {
            if snap.sites[0].slots <= 15 {
                self.saw_degraded
                    .store(true, std::sync::atomic::Ordering::Relaxed);
            }
            self.inner.schedule(snap)
        }
    }
    let saw = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
    let watcher = DropWatcher {
        inner: TetriumScheduler::standard(),
        saw_degraded: saw.clone(),
    };
    Engine::new(
        cluster(),
        vec![chain_job(0, 8.0)],
        Box::new(watcher),
        EngineConfig::default(),
    )
    .with_dynamics(DynamicsTimeline::new(vec![DynamicsEvent::new(
        SiteId(0),
        2.0,
        DynamicsChange::Capacity { keep: 0.5 },
    )]))
    .run()
    .unwrap();
    assert!(
        saw.load(std::sync::atomic::Ordering::Relaxed),
        "scheduler never observed the degraded capacity"
    );
}
