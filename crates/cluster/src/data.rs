//! Per-site data distributions.

use crate::topology::cv;
use crate::{Cluster, SiteId};
use serde::{Deserialize, Serialize};

/// How much of a dataset (input or intermediate) lives at each site, in GB.
///
/// A `DataDistribution` is indexed by [`SiteId`] and is the unit the
/// placement models reason about: `I_x^input` for map stages and
/// `I_x^shufl` for reduce stages (Table 1 of the paper).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DataDistribution {
    gb: Vec<f64>,
}

impl DataDistribution {
    /// Creates a distribution from per-site volumes in GB.
    ///
    /// # Panics
    ///
    /// Panics if any volume is negative or non-finite.
    pub fn new(gb: Vec<f64>) -> Self {
        let d = Self { gb };
        if let Err(e) = d.validate() {
            panic!("{e}");
        }
        d
    }

    /// Checks that every volume is finite and non-negative.
    /// Deserialization skips [`DataDistribution::new`], so scenario loading
    /// calls this.
    pub fn validate(&self) -> Result<(), String> {
        if self.gb.iter().all(|v| v.is_finite() && *v >= 0.0) {
            Ok(())
        } else {
            Err("data volumes must be finite and non-negative".into())
        }
    }

    /// An all-zero distribution over `n` sites.
    pub fn zeros(n: usize) -> Self {
        Self { gb: vec![0.0; n] }
    }

    /// A distribution with the entire `total_gb` at a single site.
    pub fn concentrated(n: usize, site: SiteId, total_gb: f64) -> Self {
        let mut gb = vec![0.0; n];
        gb[site.index()] = total_gb;
        Self::new(gb)
    }

    /// Number of sites this distribution covers.
    pub fn len(&self) -> usize {
        self.gb.len()
    }

    /// Whether the distribution covers zero sites.
    pub fn is_empty(&self) -> bool {
        self.gb.is_empty()
    }

    /// Volume at `site` in GB.
    pub fn at(&self, site: SiteId) -> f64 {
        self.gb[site.index()]
    }

    /// Mutable volume at `site` in GB.
    pub fn at_mut(&mut self, site: SiteId) -> &mut f64 {
        &mut self.gb[site.index()]
    }

    /// Total volume across sites in GB.
    pub fn total(&self) -> f64 {
        self.gb.iter().sum()
    }

    /// Per-site volumes as a slice, indexed by site id.
    pub fn as_slice(&self) -> &[f64] {
        &self.gb
    }

    /// Scales every site's volume by `factor` (e.g. the intermediate/input
    /// ratio `alpha` when deriving shuffle data from input data).
    pub fn scaled(&self, factor: f64) -> Self {
        assert!(factor >= 0.0 && factor.is_finite());
        Self {
            gb: self.gb.iter().map(|v| v * factor).collect(),
        }
    }

    /// Coefficient of variation of per-site volumes — the data-skew statistic
    /// used for Figure 12(b)(c) of the paper.
    pub fn skew_cv(&self) -> f64 {
        cv(self.gb.iter().copied())
    }

    /// Checks that the distribution has one entry per cluster site.
    pub fn matches(&self, cluster: &Cluster) -> bool {
        self.gb.len() == cluster.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_scaling() {
        let d = DataDistribution::new(vec![20.0, 30.0, 50.0]);
        assert!((d.total() - 100.0).abs() < 1e-12);
        assert!((d.scaled(0.5).total() - 50.0).abs() < 1e-12);
    }

    #[test]
    fn concentrated_places_everything_at_one_site() {
        let d = DataDistribution::concentrated(4, SiteId(2), 7.0);
        assert_eq!(d.at(SiteId(2)), 7.0);
        assert_eq!(d.at(SiteId(0)), 0.0);
        assert_eq!(d.total(), 7.0);
    }

    #[test]
    fn zero_volume_has_zero_skew() {
        let d = DataDistribution::zeros(3);
        assert_eq!(d.skew_cv(), 0.0);
    }

    #[test]
    #[should_panic(expected = "non-negative")]
    fn rejects_negative_volume() {
        DataDistribution::new(vec![1.0, -0.5]);
    }
}
