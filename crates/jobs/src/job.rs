//! Jobs: DAGs of stages submitted to the global manager.

use crate::Stage;
use serde::{Deserialize, Serialize};
use tetrium_cluster::Cluster;

/// Identifier of a job within a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct JobId(pub usize);

// `Ord` by hand: a derived `PartialOrd` calls `partial_cmp`, which
// clippy.toml bans (L2).
impl Ord for JobId {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.cmp(&other.0)
    }
}

impl PartialOrd for JobId {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

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
    /// Panics if [`Job::validate`] rejects the job.
    pub fn new(id: JobId, name: impl Into<String>, arrival: f64, stages: Vec<Stage>) -> Self {
        let job = Self {
            id,
            name: name.into(),
            arrival,
            stages,
        };
        if let Err(e) = job.validate() {
            panic!("{e}");
        }
        job
    }

    /// Checks the job: at least one stage, a finite non-negative arrival,
    /// stages in topological order (every dependency points at an earlier
    /// stage), an external input on exactly the root stages, and per stage
    /// at least one task, a finite non-negative task time and output ratio,
    /// and one finite non-negative weight per task when key skew is set.
    /// Deserialization skips [`Job::new`], so scenario loading calls this.
    pub fn validate(&self) -> Result<(), String> {
        let ok = |v: f64| v >= 0.0 && v.is_finite();
        if self.stages.is_empty() {
            return Err("a job needs at least one stage".into());
        }
        if !ok(self.arrival) {
            return Err(format!(
                "arrival {} must be finite and non-negative",
                self.arrival
            ));
        }
        for (i, s) in self.stages.iter().enumerate() {
            let bad_weights = s
                .task_weights
                .as_ref()
                .is_some_and(|w| w.len() != s.num_tasks || !w.iter().all(|&x| ok(x)));
            let problem = if let Some(d) = s.deps.iter().find(|&&d| d >= i) {
                format!("depends on {d}, not topologically ordered")
            } else if s.is_root() != s.input.is_some() {
                "must carry an external input exactly when it is a root".into()
            } else if s.num_tasks == 0 {
                "needs at least one task".into()
            } else if !ok(s.task_secs) || !ok(s.output_ratio) {
                "task_secs and output_ratio must be finite and non-negative".into()
            } else if bad_weights {
                "task_weights needs one finite non-negative weight per task".into()
            } else if let Some(Err(e)) = s.input.as_ref().map(|d| d.validate()) {
                e
            } else {
                continue;
            };
            return Err(format!("stage {i}: {problem}"));
        }
        Ok(())
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
    #[should_panic(expected = "topologically ordered")]
    fn rejects_forward_dependency() {
        let input = DataDistribution::new(vec![1.0]);
        let mut s = Stage::root_map(input, 1, 1.0, 1.0);
        s.deps = vec![0]; // Self-dependency.
        Job::new(JobId(0), "bad", 0.0, vec![s]);
    }
}
