//! Substrate-scale presets: clusters and workloads for 100–1000-site
//! sweeps.
//!
//! The paper's deployments top out at 30 sites, but the ROADMAP's
//! north star ("thousands of sites") needs a reproducible way to exercise
//! the sparse LP and waterfiller substrate at scale. [`ScalePreset`]
//! packages a Zipf-skewed cluster with trace-like workload parameters
//! tuned so a fig5-style sweep finishes in minutes even at 1000 sites:
//! inputs are concentrated (the per-stage LP still sees every site, but
//! task counts stay bounded), and stage chains are short.
//!
//! The bench binary's `figs scale` entry drives this via its `--sites N`
//! flag (see README); [`sites_from_args`] implements the flag parsing so
//! every scale entry point spells it identically.

use crate::trace::{trace_like_jobs, TraceParams};
use rand::rngs::StdRng;
use rand::SeedableRng;
use tetrium_cluster::{zipf_cluster, Cluster};
use tetrium_jobs::Job;

/// A scale-sweep preset: cluster plus calibrated workload parameters.
#[derive(Debug, Clone)]
pub struct ScalePreset {
    /// Number of sites in the preset cluster.
    pub sites: usize,
    /// Zipf-skewed cluster (slot and bandwidth exponents 1.2 — a few
    /// capable sites, a long tail, as in the 50-site trace preset).
    pub cluster: Cluster,
    /// Trace-workload parameters scaled for sweep-in-minutes runs.
    pub params: TraceParams,
}

impl ScalePreset {
    /// Builds the preset for `sites` sites. The same `(sites, seed)` pair
    /// always yields the same cluster and parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sites < 2` (a WAN needs at least two sites).
    pub fn new(sites: usize, seed: u64) -> Self {
        assert!(sites >= 2, "a scale preset needs at least 2 sites");
        let mut rng = StdRng::seed_from_u64(seed);
        // ~4 slots per site on average: with Zipf-skewed inputs the busy
        // sites are compute-bound, so placement (not just locality) decides
        // response time — the regime where the paper's trends manifest.
        let cluster = zipf_cluster(sites, 1.2, 1.2, 4 * sites, &mut rng);
        let params = TraceParams {
            median_input_gb: 40.0,
            mean_interarrival_secs: 20.0,
            mean_task_secs: 20.0,
            tasks_per_gb: 4.0,
            max_tasks: 150,
            stages: (2, 3),
            ..TraceParams::default()
        };
        Self {
            sites,
            cluster,
            params,
        }
    }

    /// Generates `count` trace-like jobs over the preset cluster.
    pub fn jobs(&self, count: usize, seed: u64) -> Vec<Job> {
        let mut rng = StdRng::seed_from_u64(seed);
        trace_like_jobs(&self.cluster, count, &self.params, &mut rng)
    }
}

/// Parses the `--sites N` flag (both `--sites 1000` and `--sites=1000`)
/// from the process arguments, falling back to `default`.
///
/// # Panics
///
/// Panics when the flag is present but its value is missing or not a
/// positive integer — a silent fallback would make a mistyped sweep look
/// like the default one.
pub fn sites_from_args(default: usize) -> usize {
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let value = if a == "--sites" {
            Some(args.next().unwrap_or_else(|| {
                panic!("--sites requires a value");
            }))
        } else {
            a.strip_prefix("--sites=").map(str::to_owned)
        };
        if let Some(v) = value {
            let n: usize = v
                .parse()
                .unwrap_or_else(|_| panic!("invalid --sites value: {v:?}"));
            assert!(n >= 2, "--sites needs at least 2 sites");
            return n;
        }
    }
    default
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn preset_is_deterministic() {
        let a = ScalePreset::new(100, 9);
        let b = ScalePreset::new(100, 9);
        assert_eq!(a.cluster.len(), 100);
        for ((_, x), (_, y)) in a.cluster.iter().zip(b.cluster.iter()) {
            assert_eq!(x.slots, y.slots);
            assert_eq!(x.up_gbps.to_bits(), y.up_gbps.to_bits());
        }
        let ja = a.jobs(3, 11);
        let jb = b.jobs(3, 11);
        assert_eq!(ja.len(), jb.len());
        assert_eq!(
            ja.iter().map(Job::total_tasks).collect::<Vec<_>>(),
            jb.iter().map(Job::total_tasks).collect::<Vec<_>>()
        );
    }

    #[test]
    fn thousand_site_preset_builds_quickly() {
        let p = ScalePreset::new(1000, 9);
        assert_eq!(p.cluster.len(), 1000);
        assert!(p.cluster.iter().all(|(_, s)| s.slots >= 1));
    }
}
