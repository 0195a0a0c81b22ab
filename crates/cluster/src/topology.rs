//! The cluster: an indexed collection of sites behind a congestion-free core.

use crate::{Site, SiteId};
use serde::{Deserialize, Serialize};

/// A geo-distributed cluster of sites.
///
/// The core network is congestion-free (paper §2.1): the only network
/// constraints are each site's uplink and downlink. A `Cluster` is immutable
/// configuration; mutable capacity state during a simulation (e.g. after a
/// [`crate::DynamicsEvent`]) lives in the engine.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Cluster {
    sites: Vec<Site>,
}

impl Cluster {
    /// Creates a cluster from a list of sites.
    ///
    /// # Panics
    ///
    /// Panics if `sites` is empty.
    pub fn new(sites: Vec<Site>) -> Self {
        assert!(!sites.is_empty(), "a cluster needs at least one site");
        Self { sites }
    }

    /// Number of sites.
    pub fn len(&self) -> usize {
        self.sites.len()
    }

    /// Whether the cluster has no sites (never true by construction).
    pub fn is_empty(&self) -> bool {
        self.sites.is_empty()
    }

    /// The site with the given id.
    ///
    /// # Panics
    ///
    /// Panics if the id is out of range.
    pub fn site(&self, id: SiteId) -> &Site {
        &self.sites[id.index()]
    }

    /// Iterates over `(SiteId, &Site)` pairs in index order.
    pub fn iter(&self) -> impl Iterator<Item = (SiteId, &Site)> {
        self.sites.iter().enumerate().map(|(i, s)| (SiteId(i), s))
    }

    /// Total number of compute slots across all sites.
    pub fn total_slots(&self) -> usize {
        self.sites.iter().map(|s| s.slots).sum()
    }

    /// Slots per site as a dense vector.
    pub fn slots_vec(&self) -> Vec<usize> {
        self.sites.iter().map(|s| s.slots).collect()
    }

    /// Coefficient of variation of the per-site slot counts — the resource
    /// skew statistic used in §6.4 of the paper.
    pub fn slot_skew_cv(&self) -> f64 {
        cv(self.sites.iter().map(|s| s.slots as f64))
    }
}

/// Coefficient of variation (stddev / mean) of a sequence; zero for empty or
/// zero-mean input.
pub(crate) fn cv(values: impl Iterator<Item = f64>) -> f64 {
    let v: Vec<f64> = values.collect();
    if v.is_empty() {
        return 0.0;
    }
    let mean = v.iter().sum::<f64>() / v.len() as f64;
    if mean == 0.0 {
        return 0.0;
    }
    let var = v.iter().map(|x| (x - mean) * (x - mean)).sum::<f64>() / v.len() as f64;
    var.sqrt() / mean
}

#[cfg(test)]
mod tests {
    use super::*;

    fn c3() -> Cluster {
        Cluster::new(vec![
            Site::new("a", 40, 5.0, 5.0),
            Site::new("b", 10, 1.0, 1.0),
            Site::new("c", 20, 2.0, 5.0),
        ])
    }

    #[test]
    fn totals_and_lookup() {
        let c = c3();
        assert_eq!(c.len(), 3);
        assert_eq!(c.total_slots(), 70);
        assert_eq!(c.site(SiteId(1)).slots, 10);
        assert_eq!(c.slots_vec(), vec![40, 10, 20]);
    }

    #[test]
    fn skew_statistics() {
        let uniform = Cluster::new(vec![
            Site::new("a", 5, 1.0, 1.0),
            Site::new("b", 5, 1.0, 1.0),
        ]);
        assert!(uniform.slot_skew_cv().abs() < 1e-12);
        assert!(c3().slot_skew_cv() > 0.4);
    }
}
