//! Fig 7: scheduler running time vs number of concurrent jobs.
//!
//! The paper reports ~950 ms for 50 concurrent jobs and ~8 s for 400 on a
//! 50-site deployment, noting that bounding LP work to high-priority jobs
//! keeps scaling sane. We time one full `schedule()` pass over synthetic
//! snapshots of 25..400 concurrent jobs on 50 sites.

use crate::runner::{cell, run_cells_with, Cell};
use crate::{banner, write_record};
use std::time::Instant;
use tetrium::core::TetriumScheduler;
use tetrium_cluster::SiteId;
use tetrium_jobs::{JobId, StageKind};
use tetrium_sim::{
    JobSnapshot, Scheduler, SiteState, Snapshot, StageMeta, StageSnapshot, TaskPhase, TaskSnapshot,
};

/// Builds a synthetic scheduling snapshot with `n_jobs` single-stage jobs of
/// `tasks_per_job` map tasks over 50 heterogeneous sites.
pub fn snapshot(n_jobs: usize, tasks_per_job: usize) -> Snapshot {
    let n_sites = 50;
    let sites: Vec<SiteState> = (0..n_sites)
        .map(|i| SiteState {
            slots: 25 + (i * 97) % 1000,
            free_slots: 25 + (i * 97) % 1000,
            up_gbps: 0.0125 + 0.005 * (i % 13) as f64,
            down_gbps: 0.0125 + 0.005 * ((i + 4) % 13) as f64,
        })
        .collect();
    let jobs = (0..n_jobs)
        .map(|j| {
            let tasks: Vec<TaskSnapshot> = (0..tasks_per_job)
                .map(|t| TaskSnapshot {
                    index: t,
                    phase: TaskPhase::Unlaunched,
                    input_site: Some(SiteId((t * 31 + j * 7) % n_sites)),
                    input_gb: 0.1,
                    share: 1.0 / tasks_per_job as f64,
                    running_site: None,
                })
                .collect();
            let mut input_gb = vec![0.0; n_sites];
            for t in &tasks {
                input_gb[t.input_site.unwrap().index()] += t.input_gb;
            }
            JobSnapshot {
                id: JobId(j),
                arrival: j as f64,
                total_stages: 2,
                remaining_stages: 2,
                stages: vec![
                    StageMeta {
                        kind: StageKind::Map,
                        deps: vec![],
                        num_tasks: tasks_per_job,
                        task_secs: 2.0,
                        output_ratio: 0.5,
                        done: false,
                    },
                    StageMeta {
                        kind: StageKind::Reduce,
                        deps: vec![0],
                        num_tasks: tasks_per_job / 2,
                        task_secs: 1.0,
                        output_ratio: 0.1,
                        done: false,
                    },
                ],
                runnable: vec![StageSnapshot {
                    stage_index: 0,
                    kind: StageKind::Map,
                    est_task_secs: 2.0,
                    num_tasks: tasks_per_job,
                    input_gb: input_gb.clone(),
                    tasks,
                }],
            }
        })
        .collect();
    Snapshot {
        now: 0.0,
        sites,
        jobs,
    }
}

/// Times one cold `schedule()` pass per job count. The cells run on a
/// single worker — this figure measures decision latency, and concurrent
/// cells would contend with the quantity being measured.
pub fn run() {
    banner(
        "fig7",
        "scheduler running time vs concurrent jobs (50 sites)",
    );
    println!("{:>10} {:>16}", "jobs", "decision time");
    let cells = [25usize, 50, 100, 200, 400]
        .into_iter()
        .map(|n_jobs| {
            cell(
                Cell::new("fig7", "tetrium", format!("{n_jobs}-jobs"), 0),
                move || {
                    let snap = snapshot(n_jobs, 100);
                    // Fresh scheduler per measurement: cold caches, like a
                    // burst of new arrivals.
                    let mut sched = TetriumScheduler::standard();
                    #[expect(
                        clippy::disallowed_methods,
                        reason = "bench timing: fig7 reports measured decision latency"
                    )]
                    let t0 = Instant::now();
                    let plans = sched.schedule(&snap);
                    let elapsed = t0.elapsed();
                    assert!(!plans.is_empty());
                    (n_jobs, elapsed)
                },
            )
        })
        .collect();
    let mut rows = Vec::new();
    for (n_jobs, elapsed) in run_cells_with(1, cells) {
        println!("{:>10} {:>13.0} ms", n_jobs, elapsed.as_secs_f64() * 1e3);
        rows.push(serde_json::json!({
            "jobs": n_jobs,
            "decision_ms": elapsed.as_secs_f64() * 1e3,
        }));
    }
    println!("(paper: ~950 ms at 50 jobs, ~8 s at 400 jobs, Gurobi + Spark prototype)");
    write_record("fig7", &serde_json::json!({ "rows": rows }));
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrium_sim::Scheduler;

    #[test]
    fn snapshot_builder_is_consistent() {
        let snap = snapshot(10, 40);
        assert_eq!(snap.sites.len(), 50);
        assert_eq!(snap.jobs.len(), 10);
        for job in &snap.jobs {
            assert_eq!(job.runnable.len(), 1);
            assert_eq!(job.runnable[0].tasks.len(), 40);
            let input_total: f64 = job.runnable[0].input_gb.iter().sum();
            assert!((input_total - 4.0).abs() < 1e-9, "40 tasks x 0.1 GB");
        }
    }

    #[test]
    fn a_decision_over_the_synthetic_snapshot_assigns_everything() {
        let snap = snapshot(4, 25);
        let mut sched = tetrium_core::TetriumScheduler::standard();
        let plans = sched.schedule(&snap);
        let assigned: usize = plans.iter().map(|p| p.assignments.len()).sum();
        assert_eq!(assigned, 4 * 25);
    }
}
