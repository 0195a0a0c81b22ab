//! Workload generators and the paper's worked examples.
//!
//! The evaluation runs three workload families (§6.1):
//!
//! - [`tpcds`]: TPC-DS-like decision-support queries — long chains of 6–16
//!   dependent stages, CPU/IO heavy, lots of intermediate shuffle;
//! - [`bigdata`]: AMPLab Big Data Benchmark-like queries — short jobs of
//!   2–5 stages mixing scans, joins and aggregations;
//! - [`trace`]: production-trace-like jobs — Poisson arrivals, heavy-tailed
//!   task counts and input sizes, Zipf-skewed data placement, optional
//!   reduce-key skew — parameterized on exactly the axes Fig 12
//!   characterizes gains against (intermediate/input ratio, input skew CV,
//!   intermediate skew CV).
//!
//! [`example`] reconstructs the 3-site illustrative setup of Fig 3/4 and
//! the two-job ordering example of §2.2, which the integration tests pin to
//! the paper's numbers.

pub mod bigdata;
pub mod example;
pub mod ingest;
pub mod io;
pub mod recurring;
pub mod scale;
pub mod tpcds;
pub mod trace;

pub use bigdata::bigdata_like_jobs;
pub use example::{fig4_cluster, fig4_job, two_job_example};
pub use ingest::{
    scenario_from_trace, trace_from_jobs, IngestError, RawTrace, TraceProfile, ValidationReport,
    ValidatorConfig,
};
pub use io::{Scenario, ScenarioError};
pub use recurring::{recurring_dashboard_jobs, RecurringParams};
pub use scale::{sites_from_args, ScalePreset};
pub use tpcds::tpcds_like_jobs;
pub use trace::{trace_like_jobs, TraceParams};

use rand::Rng;
use rand_distr::{Distribution, Zipf};
use tetrium_cluster::{Cluster, DataDistribution};

/// Spreads `total_gb` across the cluster's sites with Zipf-skewed weights
/// (exponent 0 = uniform) under a random site permutation, mirroring the
/// skewed data generation of §2.1 (Skype logs vary 22× across sites).
pub fn skewed_input(
    cluster: &Cluster,
    total_gb: f64,
    zipf_exponent: f64,
    rng: &mut impl Rng,
) -> DataDistribution {
    let n = cluster.len();
    let mut weights: Vec<f64> = if zipf_exponent <= 0.0 {
        vec![1.0; n]
    } else {
        (1..=n)
            .map(|r| 1.0 / (r as f64).powf(zipf_exponent))
            .collect()
    };
    for i in (1..n).rev() {
        let j = rng.gen_range(0..=i);
        weights.swap(i, j);
    }
    let sum: f64 = weights.iter().sum();
    DataDistribution::new(weights.into_iter().map(|w| w / sum * total_gb).collect())
}

/// Samples reduce-key skew weights for `n` tasks: a few heavy keys and a
/// long tail, via a Zipf draw per task (the source of intermediate-data
/// skew in Fig 12c).
pub fn key_skew_weights(n: usize, severity: f64, rng: &mut impl Rng) -> Vec<f64> {
    if severity <= 0.0 || n < 2 {
        return vec![1.0; n.max(1)];
    }
    let z = Zipf::new(1000, severity.clamp(0.05, 3.0)).expect("valid zipf");
    (0..n).map(|_| 1.0 + z.sample(rng)).collect()
}

/// Poisson-process arrival times: exponential inter-arrivals with the given
/// mean, starting at `start`.
pub fn poisson_arrivals(
    n: usize,
    mean_interarrival_secs: f64,
    start: f64,
    rng: &mut impl Rng,
) -> Vec<f64> {
    assert!(mean_interarrival_secs >= 0.0);
    let mut t = start;
    (0..n)
        .map(|_| {
            let u: f64 = rng.gen_range(1e-12..1.0);
            t += -mean_interarrival_secs * u.ln();
            t
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tetrium_cluster::Site;

    fn cluster4() -> Cluster {
        Cluster::new(vec![
            Site::new("a", 4, 1.0, 1.0),
            Site::new("b", 4, 1.0, 1.0),
            Site::new("c", 4, 1.0, 1.0),
            Site::new("d", 4, 1.0, 1.0),
        ])
    }

    #[test]
    fn skewed_input_conserves_total_and_skews() {
        let mut rng = StdRng::seed_from_u64(1);
        let uniform = skewed_input(&cluster4(), 100.0, 0.0, &mut rng);
        assert!((uniform.total() - 100.0).abs() < 1e-9);
        assert!(uniform.skew_cv() < 1e-9);
        let skewed = skewed_input(&cluster4(), 100.0, 2.0, &mut rng);
        assert!((skewed.total() - 100.0).abs() < 1e-9);
        assert!(skewed.skew_cv() > 0.5);
    }

    #[test]
    fn key_skew_spans_severities() {
        let mut rng = StdRng::seed_from_u64(2);
        let flat = key_skew_weights(100, 0.0, &mut rng);
        assert!(flat.iter().all(|&w| w == 1.0));
        let skew = key_skew_weights(100, 1.5, &mut rng);
        let max = skew.iter().copied().fold(0.0f64, f64::max);
        let min = skew.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(max / min > 3.0);
    }

    #[test]
    fn arrivals_are_increasing() {
        let mut rng = StdRng::seed_from_u64(3);
        let a = poisson_arrivals(50, 10.0, 5.0, &mut rng);
        assert!(a.windows(2).all(|w| w[0] < w[1]));
        assert!(a[0] > 5.0);
        let mean = (a[49] - 5.0) / 50.0;
        assert!(mean > 5.0 && mean < 20.0, "mean interarrival {mean}");
    }
}
