//! Metric names and units, the failure tally, and the result line.

use serde_json::{json, Map, Value};
use std::collections::BTreeMap;

/// End-to-end metrics, printed by an untraced run, in `BENCHMARK.json`
/// order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("tasks_per_s", "tasks/s"),
    ("latency_p50_ms", "ms"),
    ("latency_tail_ms", "ms"),
    ("ingest_rows_per_s", "rows/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
];

/// Per-layer metrics, printed by a traced run, in `BENCHMARK.json` order.
/// A layer a workload does not exercise reads zero.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("ingest.parse_s", "s"),
    ("ingest.validate_s", "s"),
    ("ingest.convert_s", "s"),
    ("ingest.rows", "count"),
    ("ingest.bytes", "B"),
    ("sim.new_s", "s"),
    ("sim.run_s", "s"),
    ("sim.self_s", "s"),
    ("sim.self_us_per_task", "us"),
    ("sim.copies_launched", "count"),
    ("sim.copy_win_ratio", "ratio"),
    ("sim.task_failures", "count"),
    ("sim.dynamics_events", "count"),
    ("core.calls", "count"),
    ("core.planning_calls", "count"),
    ("core.schedule_s", "s"),
    ("core.schedule_share", "ratio"),
    ("core.snapshot_tasks", "count"),
    ("core.assignments", "count"),
    ("core.launch_ratio", "ratio"),
    ("core.lp_calls", "count"),
    ("core.lp_call_s", "s"),
    ("core.nolp_call_s", "s"),
    ("core.lp_planned", "count"),
    ("core.cache_reused", "count"),
    ("core.local_planned", "count"),
    ("core.tmpl_exact", "count"),
    ("core.tmpl_patched", "count"),
    ("core.tmpl_warm", "count"),
    ("core.tmpl_miss", "count"),
    ("core.tmpl_hit_ratio", "ratio"),
    ("core.warm_pivots", "count"),
    ("net.link_samples", "count"),
    ("obs.overhead_s", "s"),
    ("obs.task_events", "count"),
    ("obs.to_json_s", "s"),
    ("obs.otel_s", "s"),
    ("serve.start_s", "s"),
    ("serve.submit_p50_us", "us"),
    ("serve.queue_wait_p50_ms", "ms"),
    ("serve.service_p50_ms", "ms"),
    ("serve.epochs", "count"),
    ("serve.jobs_per_epoch", "count"),
    ("serve.lagged", "count"),
    ("serve.gen_late_ms", "ms"),
    ("serve.join_s", "s"),
    ("trace.explained_share", "ratio"),
];

/// Named metric values of one workload run.
#[derive(Debug, Default)]
pub struct Metrics(BTreeMap<&'static str, f64>);

impl Metrics {
    /// No metrics yet.
    pub fn new() -> Self {
        Self::default()
    }

    /// Sets a metric.
    pub fn set(&mut self, name: &'static str, value: f64) {
        self.0.insert(name, value);
    }

    /// A metric's value, if set.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.get(name).copied()
    }

    /// The metrics of `list`, in its order, as `{"name": {"value", "unit"}}`.
    /// Metrics of `list` the run did not set read zero; a metric set but
    /// not listed is a bug in the benchmark.
    pub fn to_json(&self, list: &[(&str, &str)]) -> Result<Value, String> {
        if let Some(extra) = self.0.keys().find(|k| !list.iter().any(|(n, _)| n == *k)) {
            return Err(format!("metric {extra} is not in the metric list"));
        }
        let mut out = Map::new();
        for &(name, unit) in list {
            let value = self.get(name).unwrap_or(0.0);
            out.insert(name.to_string(), json!({"value": value, "unit": unit}));
        }
        Ok(Value::Object(out))
    }
}

/// Operations attempted and failed. One job simulated or served is one
/// operation; a failed run or a failed check fails every job it covers.
#[derive(Debug, Default)]
pub struct Tally {
    /// Jobs attempted.
    pub attempted: u64,
    /// Jobs whose run or check failed.
    pub failed: u64,
}

impl Tally {
    /// Counts `jobs` attempted, and failed if `r` is an error.
    pub fn attempt<T>(&mut self, jobs: usize, r: Result<T, String>) -> Result<T, String> {
        self.attempted += jobs as u64;
        self.verify(jobs, r)
    }

    /// Counts `jobs` failed if the check `r` is an error.
    pub fn verify<T>(&mut self, jobs: usize, r: Result<T, String>) -> Result<T, String> {
        if r.is_err() {
            self.failed += jobs as u64;
        }
        r
    }
}

/// Peak resident set of this process (`VmHWM`), in MiB.
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .ok_or("no VmHWM in /proc/self/status")?;
    Ok(kb / 1024.0)
}

/// The result line: the last line a run prints.
pub fn result_line(correct: bool, tally: &Tally, metrics: Value) -> String {
    json!({
        "correct": correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": metrics,
    })
    .to_string()
}
