//! TPC-DS-like decision-support workload (§6.1 workload (a)).
//!
//! The paper characterizes these queries as CPU- and IO-heavy with long
//! sequences of 6–16 dependent stages. The generator builds such chains:
//! one or two scan roots (joined by an early shuffle when there are two),
//! followed by alternating shuffle/aggregate stages whose data volume
//! shrinks as the query narrows — matching the observation in §6.3.3 that
//! most cross-site traffic happens in the first few stages.

use crate::{key_skew_weights, poisson_arrivals, skewed_input};
use rand::Rng;
use tetrium_cluster::Cluster;
use tetrium_jobs::{Job, JobId, Stage};

/// Generates `n_jobs` TPC-DS-like jobs over `cluster`.
///
/// `mean_interarrival_secs` spaces Poisson arrivals (0 = all at time 0);
/// `scale_gb` is the mean input size of the fact table.
pub fn tpcds_like_jobs(
    cluster: &Cluster,
    n_jobs: usize,
    mean_interarrival_secs: f64,
    scale_gb: f64,
    rng: &mut impl Rng,
) -> Vec<Job> {
    let arrivals = if mean_interarrival_secs > 0.0 {
        poisson_arrivals(n_jobs, mean_interarrival_secs, 0.0, rng)
    } else {
        vec![0.0; n_jobs]
    };
    (0..n_jobs)
        .map(|i| tpcds_like_job(cluster, JobId(i), arrivals[i], scale_gb, rng))
        .collect()
}

/// Generates one TPC-DS-like job.
pub fn tpcds_like_job(
    cluster: &Cluster,
    id: JobId,
    arrival: f64,
    scale_gb: f64,
    rng: &mut impl Rng,
) -> Job {
    let n_stages = rng.gen_range(6..=16usize);
    let two_tables = rng.gen_bool(0.6);
    let input_gb = scale_gb * rng.gen_range(0.5..2.0);
    let skew = rng.gen_range(0.3..2.0);
    // ~100 MB partitions, bounded so simulations stay tractable.
    let tasks_for = |gb: f64| ((gb * 10.0).round() as usize).clamp(4, 400);

    let mut stages: Vec<Stage> = Vec::with_capacity(n_stages);
    // Scan roots: CPU-heavy map stages with selectivity < 1.
    let fact_gb = if two_tables { input_gb * 0.8 } else { input_gb };
    let fact = skewed_input(cluster, fact_gb, skew, rng);
    stages.push(Stage::root_map(
        fact,
        tasks_for(fact_gb),
        rng.gen_range(1.5..4.0),
        rng.gen_range(0.4..1.0),
    ));
    let mut frontier = vec![0usize];
    if two_tables {
        let dim_gb = input_gb * 0.2;
        let dim = skewed_input(cluster, dim_gb, skew, rng);
        stages.push(Stage::root_map(
            dim,
            tasks_for(dim_gb),
            rng.gen_range(1.0..2.0),
            rng.gen_range(0.5..1.0),
        ));
        frontier.push(1);
    }
    // Chain of shuffles; volume decays stage over stage.
    let mut est_gb: f64 = input_gb * 0.7;
    while stages.len() < n_stages {
        let idx = stages.len();
        let last = stages.len() + 1 == n_stages;
        let ratio = if last {
            rng.gen_range(0.01..0.1)
        } else if idx <= 3 {
            rng.gen_range(0.5..1.3) // Early joins can grow data.
        } else {
            rng.gen_range(0.1..0.6)
        };
        let mut stage = Stage::reduce(
            frontier.clone(),
            tasks_for(est_gb).max(4),
            rng.gen_range(0.8..2.5),
            ratio,
        );
        if rng.gen_bool(0.3) {
            let w = key_skew_weights(stage.num_tasks, rng.gen_range(0.5..1.5), rng);
            stage = stage.with_task_weights(w);
        }
        est_gb = (est_gb * ratio).max(0.05);
        frontier = vec![idx];
        stages.push(stage);
    }
    Job::new(id, format!("tpcds-q{}", id.index()), arrival, stages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tetrium_cluster::Site;

    fn cluster() -> Cluster {
        Cluster::new(vec![
            Site::new("a", 16, 0.125, 0.125),
            Site::new("b", 4, 0.0125, 0.025),
            Site::new("c", 8, 0.1, 0.1),
        ])
    }

    #[test]
    fn stage_counts_in_paper_range() {
        let mut rng = StdRng::seed_from_u64(1);
        let jobs = tpcds_like_jobs(&cluster(), 40, 0.0, 5.0, &mut rng);
        assert_eq!(jobs.len(), 40);
        for j in &jobs {
            assert!(
                (6..=16).contains(&j.num_stages()),
                "job has {} stages",
                j.num_stages()
            );
            assert!(j.matches_cluster(&cluster()));
            assert!(j.input_gb() > 0.0);
        }
        // The family must actually span long chains.
        assert!(jobs.iter().any(|j| j.num_stages() >= 12));
    }

    #[test]
    fn volume_decays_toward_the_tail() {
        let mut rng = StdRng::seed_from_u64(2);
        let j = tpcds_like_job(&cluster(), JobId(0), 0.0, 10.0, &mut rng);
        let outs = j.expected_stage_outputs_gb();
        let last = *outs.last().unwrap();
        let peak = outs.iter().copied().fold(0.0f64, f64::max);
        assert!(last < peak * 0.5, "tail {last} vs peak {peak}");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = tpcds_like_jobs(&cluster(), 5, 10.0, 5.0, &mut StdRng::seed_from_u64(3));
        let b = tpcds_like_jobs(&cluster(), 5, 10.0, 5.0, &mut StdRng::seed_from_u64(3));
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.num_stages(), y.num_stages());
            assert_eq!(x.arrival, y.arrival);
            assert_eq!(x.input_gb(), y.input_gb());
        }
    }
}
