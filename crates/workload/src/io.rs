//! Scenario serialization: save and reload cluster + workload bundles.
//!
//! The paper's simulator is driven from a recorded production trace; this
//! module gives the reproduction the same replayability — a generated
//! scenario can be frozen to JSON, shared, and re-run bit-identically
//! (given the same engine seed).

use serde::{Deserialize, Serialize};
use std::path::Path;
use tetrium_cluster::Cluster;
use tetrium_jobs::Job;

/// A frozen simulation scenario: the cluster and the job trace.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Scenario {
    /// Format version for forward compatibility.
    pub version: u32,
    /// Free-form description (generator, parameters, seed).
    pub description: String,
    /// The cluster configuration.
    pub cluster: Cluster,
    /// Jobs in arrival order.
    pub jobs: Vec<Job>,
}

/// Errors from scenario IO.
#[derive(Debug)]
pub enum ScenarioError {
    /// Filesystem failure.
    Io(std::io::Error),
    /// Malformed JSON or schema mismatch.
    Parse(serde_json::Error),
    /// Structurally invalid contents (e.g. jobs not matching the cluster).
    Invalid(String),
}

impl std::fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ScenarioError::Io(e) => write!(f, "scenario io error: {e}"),
            ScenarioError::Parse(e) => write!(f, "scenario parse error: {e}"),
            ScenarioError::Invalid(m) => write!(f, "invalid scenario: {m}"),
        }
    }
}

impl std::error::Error for ScenarioError {}

impl From<std::io::Error> for ScenarioError {
    fn from(e: std::io::Error) -> Self {
        ScenarioError::Io(e)
    }
}

impl From<serde_json::Error> for ScenarioError {
    fn from(e: serde_json::Error) -> Self {
        ScenarioError::Parse(e)
    }
}

impl Scenario {
    /// Bundles a cluster and jobs after validating they belong together.
    pub fn new(
        description: impl Into<String>,
        cluster: Cluster,
        jobs: Vec<Job>,
    ) -> Result<Self, ScenarioError> {
        let s = Self {
            version: 1,
            description: description.into(),
            cluster,
            jobs,
        };
        s.validate()?;
        Ok(s)
    }

    /// Checks internal consistency, including every check the site, job
    /// and data constructors make (deserialization skips them).
    pub fn validate(&self) -> Result<(), ScenarioError> {
        if self.version != 1 {
            return Err(ScenarioError::Invalid(format!(
                "unsupported version {}",
                self.version
            )));
        }
        if self.cluster.is_empty() {
            return Err(ScenarioError::Invalid("the cluster has no sites".into()));
        }
        for (id, site) in self.cluster.iter() {
            site.validate()
                .map_err(|e| ScenarioError::Invalid(format!("{id}: {e}")))?;
        }
        for job in &self.jobs {
            job.validate()
                .map_err(|e| ScenarioError::Invalid(format!("{}: {e}", job.id)))?;
            if !job.matches_cluster(&self.cluster) {
                return Err(ScenarioError::Invalid(format!(
                    "job {} input does not cover the cluster's {} sites",
                    job.id,
                    self.cluster.len()
                )));
            }
        }
        let mut ids: Vec<_> = self.jobs.iter().map(|j| j.id).collect();
        ids.sort_unstable();
        ids.dedup();
        if ids.len() != self.jobs.len() {
            return Err(ScenarioError::Invalid("duplicate job ids".into()));
        }
        Ok(())
    }

    /// Serializes to pretty JSON.
    pub fn to_json(&self) -> Result<String, ScenarioError> {
        Ok(serde_json::to_string_pretty(self)?)
    }

    /// Parses and validates a scenario from JSON.
    pub fn from_json(json: &str) -> Result<Self, ScenarioError> {
        let s: Scenario = serde_json::from_str(json)?;
        s.validate()?;
        Ok(s)
    }

    /// Writes the scenario to a file.
    pub fn save(&self, path: impl AsRef<Path>) -> Result<(), ScenarioError> {
        std::fs::write(path, self.to_json()?)?;
        Ok(())
    }

    /// Loads and validates a scenario from a file.
    pub fn load(path: impl AsRef<Path>) -> Result<Self, ScenarioError> {
        Self::from_json(&std::fs::read_to_string(path)?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{trace_like_jobs, TraceParams};
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use tetrium_cluster::Site;

    fn scenario() -> Scenario {
        let cluster = Cluster::new(vec![
            Site::new("a", 8, 1.0, 1.0),
            Site::new("b", 4, 0.5, 0.5),
        ]);
        let mut rng = StdRng::seed_from_u64(9);
        let jobs = trace_like_jobs(&cluster, 4, &TraceParams::default(), &mut rng);
        Scenario::new("test scenario", cluster, jobs).unwrap()
    }

    #[test]
    fn json_round_trip_preserves_everything() {
        let s = scenario();
        let back = Scenario::from_json(&s.to_json().unwrap()).unwrap();
        assert_eq!(back.jobs.len(), s.jobs.len());
        for (a, b) in s.jobs.iter().zip(&back.jobs) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.num_stages(), b.num_stages());
            assert_eq!(a.input_gb(), b.input_gb());
        }
        assert_eq!(back.cluster, s.cluster);
    }

    #[test]
    fn file_round_trip() {
        let s = scenario();
        let path = std::env::temp_dir().join("tetrium_scenario_test.json");
        s.save(&path).unwrap();
        let back = Scenario::load(&path).unwrap();
        assert_eq!(back.description, "test scenario");
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_cluster_mismatch() {
        let s = scenario();
        let small = Cluster::new(vec![Site::new("x", 1, 1.0, 1.0)]);
        assert!(Scenario::new("bad", small, s.jobs).is_err());
    }

    #[test]
    fn rejects_duplicate_ids() {
        let mut s = scenario();
        let dup = s.jobs[0].clone();
        s.jobs.push(dup);
        assert!(s.validate().is_err());
    }

    /// The committed fixture CI feeds to `tetrium-cli run --scenario`.
    #[test]
    fn rejects_the_zero_bandwidth_fixture() {
        let json = include_str!("../tests/fixtures/zero_bandwidth_scenario.json");
        let err = Scenario::from_json(json).unwrap_err().to_string();
        assert!(
            err.starts_with("invalid scenario: site-0: uplink 0 "),
            "{err}"
        );
    }
}
