//! Heterogeneity samplers regenerating the capacity spreads of Figure 2.
//!
//! The paper characterizes one of the largest online service providers
//! (OSP): compute capacity varies by about two orders of magnitude across
//! hundreds of sites (Fig 2a), and inter-site bandwidth by about 18×
//! (Fig 2b). We do not have the proprietary measurements, so we regenerate
//! populations with the same spreads from heavy-tailed samplers; the bench
//! harness prints the resulting CDFs for `fig2`.

use rand::Rng;
use rand_distr::{Distribution, LogNormal};

/// Parameters describing a heterogeneous capacity population.
#[derive(Debug, Clone, Copy)]
pub struct HeterogeneityProfile {
    /// Target max/min ratio of the population.
    pub spread: f64,
    /// Minimum value of the population (normalization base).
    pub min_value: f64,
}

impl HeterogeneityProfile {
    /// The compute-capacity profile of Fig 2(a): ~200× spread.
    pub fn osp_compute() -> Self {
        Self {
            spread: 200.0,
            min_value: 1.0,
        }
    }

    /// The bandwidth profile of Fig 2(b): ~18× spread.
    pub fn osp_bandwidth() -> Self {
        Self {
            spread: 18.0,
            min_value: 1.0,
        }
    }

    /// Samples `n` capacities with roughly the profile's spread.
    ///
    /// Values are drawn from a log-normal (heavy-tailed, always positive)
    /// and then min-max rescaled onto `[min_value, min_value * spread]`, so
    /// the advertised spread is hit exactly while the body of the
    /// distribution keeps the log-normal's long-tail shape, matching the
    /// concave CDFs in Figure 2.
    pub fn sample(&self, n: usize, rng: &mut impl Rng) -> Vec<f64> {
        assert!(n >= 2, "need at least two sites to express a spread");
        // sigma chosen so that the 99th/1st percentile ratio of the raw
        // log-normal is on the order of `spread`.
        let sigma = (self.spread.ln() / 4.65).max(0.1);
        let dist = LogNormal::new(0.0, sigma).expect("valid log-normal");
        let mut raw: Vec<f64> = (0..n).map(|_| dist.sample(rng)).collect();
        let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
        for &v in &raw {
            lo = lo.min(v);
            hi = hi.max(v);
        }
        let span = (hi - lo).max(1e-12);
        for v in &mut raw {
            let t = (*v - lo) / span;
            *v = self.min_value * (1.0 + t * (self.spread - 1.0));
        }
        raw
    }
}

/// Samples `n` per-site compute capacities (in slots) with the OSP's ~200×
/// spread, scaled so the smallest site has `min_slots` slots.
pub fn sample_compute_spread(n: usize, min_slots: usize, rng: &mut impl Rng) -> Vec<usize> {
    HeterogeneityProfile::osp_compute()
        .sample(n, rng)
        .into_iter()
        .map(|v| ((v * min_slots as f64).round() as usize).max(min_slots))
        .collect()
}

/// Samples `n` per-site bandwidths (GB/s) with the OSP's ~18× spread, scaled
/// so the slowest site has `min_gbps`.
pub fn sample_bandwidth_spread(n: usize, min_gbps: f64, rng: &mut impl Rng) -> Vec<f64> {
    HeterogeneityProfile::osp_bandwidth()
        .sample(n, rng)
        .into_iter()
        .map(|v| v * min_gbps)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn compute_spread_hits_two_orders_of_magnitude() {
        let mut rng = StdRng::seed_from_u64(7);
        let v = HeterogeneityProfile::osp_compute().sample(300, &mut rng);
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0f64, f64::max);
        assert!((hi / lo - 200.0).abs() < 1e-6, "spread was {}", hi / lo);
    }

    #[test]
    fn bandwidth_spread_is_about_18x() {
        let mut rng = StdRng::seed_from_u64(11);
        let v = sample_bandwidth_spread(200, 0.1, &mut rng);
        let lo = v.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = v.iter().copied().fold(0.0f64, f64::max);
        assert!((hi / lo - 18.0).abs() < 1e-6);
        assert!(lo >= 0.1 - 1e-12);
    }

    #[test]
    fn slot_samples_respect_minimum() {
        let mut rng = StdRng::seed_from_u64(3);
        let v = sample_compute_spread(100, 4, &mut rng);
        assert!(v.iter().all(|&s| s >= 4));
        assert!(v.iter().any(|&s| s > 400));
    }

    #[test]
    fn deterministic_under_seed() {
        let a = HeterogeneityProfile::osp_compute().sample(50, &mut StdRng::seed_from_u64(5));
        let b = HeterogeneityProfile::osp_compute().sample(50, &mut StdRng::seed_from_u64(5));
        assert_eq!(a, b);
    }
}
