//! Property tests: engine conservation laws over random workloads.

use proptest::prelude::*;
use tetrium::cluster::{Cluster, DataDistribution, Site};
use tetrium::jobs::{Job, JobId, Stage};
use tetrium::sim::EngineConfig;
use tetrium::{run_workload, SchedulerKind};

#[derive(Debug, Clone)]
struct GenJob {
    input: Vec<f64>,
    map_tasks: usize,
    reduce_tasks: usize,
    ratio: f64,
    arrival: f64,
    deep: bool,
}

fn cluster_strategy() -> impl Strategy<Value = Cluster> {
    (2usize..5).prop_flat_map(|n| {
        proptest::collection::vec((1usize..6, 1u32..40, 1u32..40), n).prop_map(|sites| {
            Cluster::new(
                sites
                    .into_iter()
                    .enumerate()
                    .map(|(i, (slots, up, down))| {
                        Site::new(format!("s{i}"), slots, up as f64 * 0.05, down as f64 * 0.05)
                    })
                    .collect(),
            )
        })
    })
}

fn scenario_strategy() -> impl Strategy<Value = (Cluster, Vec<GenJob>)> {
    cluster_strategy().prop_flat_map(|c| {
        let n = c.len();
        (Just(c), jobs_strategy(n))
    })
}

fn jobs_strategy(n_sites: usize) -> impl Strategy<Value = Vec<GenJob>> {
    proptest::collection::vec(
        (
            proptest::collection::vec(0.0f64..5.0, n_sites),
            1usize..15,
            1usize..10,
            0.05f64..1.2,
            0.0f64..20.0,
            proptest::bool::ANY,
        )
            .prop_map(
                |(input, map_tasks, reduce_tasks, ratio, arrival, deep)| GenJob {
                    input,
                    map_tasks,
                    reduce_tasks,
                    ratio,
                    arrival,
                    deep,
                },
            ),
        1..4,
    )
}

fn build_jobs(gen: &[GenJob], n_sites: usize) -> Vec<Job> {
    gen.iter()
        .enumerate()
        .map(|(i, g)| {
            let mut input = g.input.clone();
            if input.iter().sum::<f64>() <= 0.0 {
                input[0] = 1.0;
            }
            let _ = n_sites;
            let mut stages = vec![
                Stage::root_map(DataDistribution::new(input), g.map_tasks, 0.5, g.ratio),
                Stage::reduce(vec![0], g.reduce_tasks, 0.4, 0.2),
            ];
            if g.deep {
                stages.push(Stage::reduce(vec![1], 2, 0.2, 0.1));
            }
            Job::new(JobId(i), format!("p{i}"), g.arrival, stages)
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Every scheduler finishes every random workload; responses are
    /// positive and finite, the makespan covers the last completion, and
    /// per-job WAN accounting sums to the flow-level total.
    #[test]
    fn conservation_laws_hold(
        (cluster, gen) in scenario_strategy(),
        seed in 0u64..1000,
        sched_pick in 0usize..5,
    ) {
        let jobs = build_jobs(&gen, cluster.len());
        let total_tasks: usize = jobs.iter().map(|j| j.total_tasks()).sum();
        let kind = match sched_pick {
            0 => SchedulerKind::Tetrium,
            1 => SchedulerKind::InPlace,
            2 => SchedulerKind::Iridium,
            3 => SchedulerKind::Centralized,
            _ => SchedulerKind::Tetris,
        };
        let cfg = EngineConfig {
            duration_cv: 0.2,
            straggler_prob: 0.05,
            seed,
            record_obs: true,
            ..EngineConfig::default()
        };
        let report = run_workload(cluster, jobs, kind, cfg).expect("run completes");
        prop_assert_eq!(report.jobs.len(), gen.len());
        for j in &report.jobs {
            prop_assert!(j.response.is_finite() && j.response > 0.0);
            prop_assert!(j.finished >= j.arrival);
            prop_assert!(j.wan_gb >= -1e-9);
            prop_assert!(report.makespan >= j.finished - 1e-9);
        }
        let per_job_wan: f64 = report.jobs.iter().map(|j| j.wan_gb).sum();
        prop_assert!(
            (per_job_wan - report.total_wan_gb).abs() < 1e-6 * (1.0 + per_job_wan),
            "per-job {} vs flow-level {}", per_job_wan, report.total_wan_gb
        );
        let reported_tasks: usize = report.jobs.iter().map(|j| j.total_tasks).sum();
        prop_assert_eq!(reported_tasks, total_tasks);
        // Utilization is unclamped on purpose: a ratio above 1 means the
        // engine oversubscribed a site's slots.
        let obs = report.obs.as_ref().expect("obs recorded");
        for (i, u) in obs.utilization(report.makespan).into_iter().enumerate() {
            prop_assert!(u <= 1.0 + 1e-9, "site {} oversubscribed: utilization {}", i, u);
        }
    }

    /// Identical seeds give identical runs (full determinism).
    #[test]
    fn runs_are_deterministic(
        (cluster, gen) in scenario_strategy(),
        seed in 0u64..100,
    ) {
        let jobs = build_jobs(&gen, cluster.len());
        let cfg = EngineConfig {
            duration_cv: 0.3,
            straggler_prob: 0.1,
            seed,
            ..EngineConfig::default()
        };
        let a = run_workload(cluster.clone(), jobs.clone(), SchedulerKind::Tetrium, cfg.clone())
            .unwrap();
        let b = run_workload(cluster, jobs, SchedulerKind::Tetrium, cfg).unwrap();
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            prop_assert_eq!(x.response.to_bits(), y.response.to_bits());
            prop_assert_eq!(x.wan_gb.to_bits(), y.wan_gb.to_bits());
        }
    }
}
