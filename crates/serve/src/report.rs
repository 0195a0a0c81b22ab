//! Final service reports and their canonical JSON form.

use serde_json::json;
use tetrium::sim::RunReport;

/// Final report of one shard: its engine's complete [`RunReport`].
#[derive(Debug, Clone)]
pub struct ShardReport {
    /// The shard index.
    pub shard: usize,
    /// The shard engine's report (jobs in admission order).
    pub report: RunReport,
}

/// Merged report of a whole service run, shards in index order.
#[derive(Debug, Clone)]
pub struct ServeReport {
    /// Per-shard reports, sorted by shard index.
    pub shards: Vec<ShardReport>,
}

impl ServeReport {
    /// Total jobs completed across shards.
    pub fn total_jobs(&self) -> usize {
        self.shards.iter().map(|s| s.report.jobs.len()).sum()
    }

    /// Total WAN gigabytes across shards.
    pub fn total_wan_gb(&self) -> f64 {
        self.shards.iter().map(|s| s.report.total_wan_gb).sum()
    }

    /// Largest per-shard makespan (shards run independent virtual clocks,
    /// so the service-level makespan is their maximum).
    pub fn makespan(&self) -> f64 {
        self.shards
            .iter()
            .map(|s| s.report.makespan)
            .fold(0.0f64, f64::max)
    }

    /// Job-weighted mean response time across shards.
    pub fn avg_response(&self) -> f64 {
        let n = self.total_jobs();
        if n == 0 {
            return 0.0;
        }
        let sum: f64 = self
            .shards
            .iter()
            .flat_map(|s| s.report.jobs.iter())
            .map(|j| j.response)
            .sum();
        sum / n as f64
    }

    /// Canonical JSON: shards in index order, jobs in admission order,
    /// virtual-time quantities only. Wall-clock measurements
    /// (`sched_wall_secs`) are deliberately excluded so the serialization
    /// is byte-identical for identical epoch partitions (DESIGN.md §7).
    pub fn to_json(&self) -> serde_json::Value {
        json!({
            "shards": self.shards.iter().map(|s| json!({
                "shard": s.shard,
                "scheduler": s.report.scheduler,
                "makespan": s.report.makespan,
                "total_wan_gb": s.report.total_wan_gb,
                "sched_invocations": s.report.sched_invocations,
                "jobs": s.report.jobs.iter().map(|j| json!({
                    "id": j.id.0,
                    "name": j.name,
                    "arrival": j.arrival,
                    "finished": j.finished,
                    "response": j.response,
                    "wan_gb": j.wan_gb,
                })).collect::<Vec<_>>(),
            })).collect::<Vec<_>>(),
            "total_jobs": self.total_jobs(),
            "makespan": self.makespan(),
            "total_wan_gb": self.total_wan_gb(),
            "avg_response": self.avg_response(),
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tetrium::jobs::JobId;
    use tetrium::sim::JobOutcome;

    fn shard(i: usize, responses: &[f64]) -> ShardReport {
        ShardReport {
            shard: i,
            report: RunReport {
                scheduler: "test".into(),
                jobs: responses
                    .iter()
                    .enumerate()
                    .map(|(k, &r)| JobOutcome {
                        id: JobId(10 * i + k),
                        name: format!("j{k}"),
                        arrival: 0.0,
                        finished: r,
                        response: r,
                        wan_gb: 1.0,
                        num_stages: 1,
                        total_tasks: 1,
                        input_gb: 1.0,
                        intermediate_gb: 0.0,
                        input_skew_cv: 0.0,
                        est_error: 0.0,
                        stage_spans: Vec::new(),
                    })
                    .collect(),
                makespan: responses.iter().copied().fold(0.0, f64::max),
                total_wan_gb: responses.len() as f64,
                sched_invocations: responses.len(),
                sched_wall_secs: 123.456, // wall-clock: must not leak into JSON
                copies_launched: 0,
                copies_won: 0,
                task_failures: 0,
                dynamics_events: 0,
                obs: None,
            },
        }
    }

    #[test]
    fn aggregates_across_shards() {
        let r = ServeReport {
            shards: vec![shard(0, &[1.0, 3.0]), shard(1, &[5.0])],
        };
        assert_eq!(r.total_jobs(), 3);
        assert!((r.makespan() - 5.0).abs() < 1e-12);
        assert!((r.total_wan_gb() - 3.0).abs() < 1e-12);
        assert!((r.avg_response() - 3.0).abs() < 1e-12);
    }

    #[test]
    fn json_is_canonical_and_wall_free() {
        let r = ServeReport {
            shards: vec![shard(0, &[1.0]), shard(1, &[2.0])],
        };
        let s = serde_json::to_string(&r.to_json()).unwrap();
        assert!(!s.contains("wall"), "wall-clock leaked into canonical JSON");
        // Serializing twice is byte-identical.
        assert_eq!(s, serde_json::to_string(&r.to_json()).unwrap());
    }

    #[test]
    fn empty_report_is_zeroes() {
        let r = ServeReport { shards: Vec::new() };
        assert_eq!(r.total_jobs(), 0);
        assert_eq!(r.avg_response(), 0.0);
        assert_eq!(r.makespan(), 0.0);
    }
}
