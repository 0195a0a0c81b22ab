//! Jobs: DAGs of stages submitted to the global manager.

use crate::{Stage, StageKind};
use serde::{Deserialize, Serialize};
use tetrium_cluster::Cluster;

/// Identifier of a job within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct JobId(pub usize);

impl JobId {
    /// Dense index of this job.
    pub fn index(self) -> usize {
        self.0
    }
}

impl std::fmt::Display for JobId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "job-{}", self.0)
    }
}

/// An analytics job: a DAG of stages arriving at a point in time.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Job {
    /// Identifier, unique within a workload.
    pub id: JobId,
    /// Human-readable name (e.g. the query template that produced it).
    pub name: String,
    /// Submission time in seconds.
    pub arrival: f64,
    /// Stages in topological order (deps point to earlier indices).
    pub stages: Vec<Stage>,
}

impl Job {
    /// Creates a job, validating the stage DAG.
    ///
    /// # Panics
    ///
    /// Panics if there are no stages, if a dependency points at itself or a
    /// later stage (i.e. the vector is not in topological order), or if a
    /// non-root stage lists a dependency out of range.
    pub fn new(id: JobId, name: impl Into<String>, arrival: f64, stages: Vec<Stage>) -> Self {
        assert!(!stages.is_empty(), "a job needs at least one stage");
        assert!(arrival >= 0.0 && arrival.is_finite());
        for (i, s) in stages.iter().enumerate() {
            for &d in &s.deps {
                assert!(d < i, "stage {i} depends on {d}, not topologically ordered");
            }
            if s.is_root() {
                assert!(
                    s.input.is_some(),
                    "root stage {i} must carry an external input distribution"
                );
            } else {
                assert!(s.input.is_none(), "non-root stage {i} must not carry input");
            }
        }
        Self {
            id,
            name: name.into(),
            arrival,
            stages,
        }
    }

    /// Number of stages.
    pub fn num_stages(&self) -> usize {
        self.stages.len()
    }

    /// Total number of tasks across all stages.
    pub fn total_tasks(&self) -> usize {
        self.stages.iter().map(|s| s.num_tasks).sum()
    }

    /// Total external input volume in GB (over all root stages).
    pub fn input_gb(&self) -> f64 {
        self.stages
            .iter()
            .filter_map(|s| s.input.as_ref())
            .map(|d| d.total())
            .sum()
    }

    /// Expected total intermediate volume in GB: the summed outputs of every
    /// non-final stage, assuming each stage's `output_ratio` applies to its
    /// input volume. Used for the intermediate/input characterization of
    /// Fig 12(a).
    pub fn expected_intermediate_gb(&self) -> f64 {
        let outs = self.expected_stage_outputs_gb();
        let last = self.stages.len() - 1;
        outs.iter()
            .enumerate()
            .filter(|(i, _)| *i != last)
            .map(|(_, v)| v)
            .sum()
    }

    /// Expected output volume of each stage in GB, propagating
    /// `output_ratio` through the DAG.
    pub fn expected_stage_outputs_gb(&self) -> Vec<f64> {
        let mut outs = vec![0.0; self.stages.len()];
        for (i, s) in self.stages.iter().enumerate() {
            let input: f64 = if s.is_root() {
                s.input.as_ref().map(|d| d.total()).unwrap_or(0.0)
            } else {
                s.deps.iter().map(|&d| outs[d]).sum()
            };
            outs[i] = input * s.output_ratio;
        }
        outs
    }

    /// Stages with no dependents (the DAG's sinks).
    pub fn sink_stages(&self) -> Vec<usize> {
        let mut has_child = vec![false; self.stages.len()];
        for s in &self.stages {
            for &d in &s.deps {
                has_child[d] = true;
            }
        }
        (0..self.stages.len()).filter(|&i| !has_child[i]).collect()
    }

    /// Checks every root-stage input covers exactly the cluster's sites.
    pub fn matches_cluster(&self, cluster: &Cluster) -> bool {
        self.stages
            .iter()
            .filter_map(|s| s.input.as_ref())
            .all(|d| d.matches(cluster))
    }

    /// Convenience constructor for the common two-stage map→reduce job over
    /// one input dataset.
    #[allow(
        clippy::too_many_arguments,
        reason = "one argument per parameter of the two-stage job"
    )]
    pub fn map_reduce(
        id: JobId,
        name: impl Into<String>,
        arrival: f64,
        input: tetrium_cluster::DataDistribution,
        num_map: usize,
        map_secs: f64,
        intermediate_ratio: f64,
        num_reduce: usize,
        reduce_secs: f64,
    ) -> Self {
        let stages = vec![
            Stage::root_map(input, num_map, map_secs, intermediate_ratio),
            Stage::reduce(vec![0], num_reduce, reduce_secs, 0.1),
        ];
        Self::new(id, name, arrival, stages)
    }

    /// Number of map-like and reduce-like stages.
    pub fn stage_kind_counts(&self) -> (usize, usize) {
        let maps = self
            .stages
            .iter()
            .filter(|s| s.kind == StageKind::Map)
            .count();
        (maps, self.stages.len() - maps)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrium_cluster::DataDistribution;

    fn mr_job() -> Job {
        Job::map_reduce(
            JobId(0),
            "t",
            0.0,
            DataDistribution::new(vec![20.0, 30.0, 50.0]),
            1000,
            2.0,
            0.5,
            500,
            1.0,
        )
    }

    #[test]
    fn map_reduce_shape() {
        let j = mr_job();
        assert_eq!(j.num_stages(), 2);
        assert_eq!(j.total_tasks(), 1500);
        assert!((j.input_gb() - 100.0).abs() < 1e-12);
        // Intermediate = 100 GB * 0.5 from the map stage.
        assert!((j.expected_intermediate_gb() - 50.0).abs() < 1e-12);
        assert_eq!(j.sink_stages(), vec![1]);
    }

    #[test]
    fn stage_output_propagation() {
        let input = DataDistribution::new(vec![10.0, 10.0]);
        let stages = vec![
            Stage::root_map(input, 10, 1.0, 0.5),
            Stage::reduce(vec![0], 5, 1.0, 0.4),
            Stage::reduce(vec![1], 5, 1.0, 0.2),
        ];
        let j = Job::new(JobId(1), "chain", 0.0, stages);
        let outs = j.expected_stage_outputs_gb();
        assert!((outs[0] - 10.0).abs() < 1e-12);
        assert!((outs[1] - 4.0).abs() < 1e-12);
        assert!((outs[2] - 0.8).abs() < 1e-12);
        assert!((j.expected_intermediate_gb() - 14.0).abs() < 1e-12);
    }

    #[test]
    fn join_dag_sinks() {
        let a = DataDistribution::new(vec![5.0, 5.0]);
        let b = DataDistribution::new(vec![2.0, 8.0]);
        let stages = vec![
            Stage::root_map(a, 4, 1.0, 1.0),
            Stage::root_map(b, 4, 1.0, 1.0),
            Stage::reduce(vec![0, 1], 4, 1.0, 0.1),
        ];
        let j = Job::new(JobId(2), "join", 1.0, stages);
        assert_eq!(j.sink_stages(), vec![2]);
        assert_eq!(j.stage_kind_counts(), (2, 1));
    }

    #[test]
    #[should_panic(expected = "topologically ordered")]
    fn rejects_forward_dependency() {
        let input = DataDistribution::new(vec![1.0]);
        let mut s = Stage::root_map(input, 1, 1.0, 1.0);
        s.deps = vec![0]; // Self-dependency.
        Job::new(JobId(0), "bad", 0.0, vec![s]);
    }
}
