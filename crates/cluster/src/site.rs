//! Site identity and per-site capacities.

use serde::{Deserialize, Serialize};

/// Identifier of a site within a [`crate::Cluster`].
///
/// Site ids are dense indices (`0..cluster.len()`), which lets every data
/// structure in the workspace use plain vectors indexed by site.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SiteId(pub usize);

// `Ord` by hand: a derived `PartialOrd` calls `partial_cmp`, which
// clippy.toml bans (L2).
impl Ord for SiteId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for SiteId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

impl SiteId {
    /// The dense index of this site.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for SiteId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "site-{}", self.0)
    }
}

/// Capacities of one geo-distributed site.
///
/// A *slot* is the unit of compute (a fixed bundle of cores and memory, as in
/// the paper §2.1); uplink and downlink are the WAN capacities toward the
/// congestion-free core.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Site {
    /// Human-readable name (e.g. the EC2 region).
    pub name: String,
    /// Number of compute slots (`S_x`).
    pub slots: usize,
    /// Uplink bandwidth in GB/s (`B_x^up`).
    pub up_gbps: f64,
    /// Downlink bandwidth in GB/s (`B_x^down`).
    pub down_gbps: f64,
}

impl Site {
    /// Creates a site with the given capacities.
    ///
    /// # Panics
    ///
    /// Panics if [`Site::validate`] rejects the capacities.
    pub fn new(name: impl Into<String>, slots: usize, up_gbps: f64, down_gbps: f64) -> Self {
        let site = Self {
            name: name.into(),
            slots,
            up_gbps,
            down_gbps,
        };
        if let Err(e) = site.validate() {
            panic!("{e}");
        }
        site
    }

    /// Checks the capacities: at least one slot (a site that can hold data
    /// but never compute is expressed with data distributions, not zero
    /// slots) and positive, finite bandwidths. Deserialization skips
    /// [`Site::new`], so scenario loading calls this.
    pub fn validate(&self) -> Result<(), String> {
        let (up, down) = (self.up_gbps, self.down_gbps);
        if self.slots == 0 {
            Err("a site must have at least one slot".into())
        } else if !(up > 0.0 && up.is_finite() && down > 0.0 && down.is_finite()) {
            Err(format!(
                "uplink {up} and downlink {down} GB/s must be positive and finite"
            ))
        } else {
            Ok(())
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn site_display_and_index() {
        let id = SiteId(3);
        assert_eq!(id.index(), 3);
        assert_eq!(id.to_string(), "site-3");
    }

    #[test]
    #[should_panic(expected = "at least one slot")]
    fn zero_slots_rejected() {
        Site::new("x", 0, 1.0, 1.0);
    }

    #[test]
    #[should_panic(expected = "uplink")]
    fn bad_bandwidth_rejected() {
        Site::new("x", 1, 0.0, 1.0);
    }
}
