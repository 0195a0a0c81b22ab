//! Evaluation metrics for scheduler comparisons (§6).
//!
//! The paper reports results as *reductions* relative to a baseline
//! (response time, slowdown, WAN usage), per-job reduction CDFs (Fig 8b),
//! and gain distributions bucketed by workload characteristics (Fig 12).
//! This crate holds the pure-math side of that reporting; runs come from
//! [`tetrium_sim::RunReport`]. Per-run timeline diagnostics (slot busy
//! time, utilization, the fetch/compute split, the Chrome trace export)
//! read the run's obs record instead: see `tetrium_obs::ObsReport`.

mod buckets;
mod cdf;
mod gains;

pub use buckets::{bucket_by, Bucket};
pub use cdf::Cdf;
pub use gains::{jain_index, per_job_reduction, reduction_pct, slowdowns, wan_reduction_pct};
