//! Chrome trace-event export of a recorded run's winning task attempts.
//!
//! [`chrome_trace`] writes the JSON array format that `chrome://tracing` /
//! Perfetto render as a Gantt chart: one row per site, one bar per task,
//! fetch and compute phases as nested slices. Handy for eyeballing wave
//! structure and placement decisions.

use crate::ObsReport;
use serde_json::{json, Value};
use tetrium_jobs::JobId;

/// Serializes the report's [`ObsReport::task_records`] as a Chrome
/// trace-event JSON array. `job_ids[j]` names the job at engine index `j`
/// (an index past the end names itself).
///
/// Each site becomes a "process" row (`pid` = site index); each task emits
/// a complete event (`ph: "X"`) for its slot occupancy and a nested one for
/// its compute phase. Times are exported in microseconds as the format
/// expects.
pub fn chrome_trace(report: &ObsReport, job_ids: &[JobId]) -> String {
    let records = report.task_records();
    let mut events = Vec::with_capacity(records.len() * 2);
    for t in &records {
        let job = job_ids.get(t.job).copied().unwrap_or(JobId(t.job));
        let name = format!(
            "{job}/s{}/t{}{}",
            t.stage,
            t.task,
            if t.was_copy { " (copy)" } else { "" }
        );
        let pid = t.site.index();
        // Slot occupancy (fetch + compute).
        events.push(json!({
            "name": name,
            "cat": "task",
            "ph": "X",
            "pid": pid,
            "tid": t.task % 64,
            "ts": (t.launched_at * 1e6) as i64,
            "dur": (((t.finished_at - t.launched_at).max(0.0)) * 1e6) as i64,
            "args": {
                "job": job.index(),
                "stage": t.stage,
                "fetch_s": t.fetch_secs(),
                "compute_s": t.compute_secs(),
                "copy": t.was_copy,
            },
        }));
        if t.compute_secs() > 0.0 {
            events.push(json!({
                "name": "compute",
                "cat": "phase",
                "ph": "X",
                "pid": pid,
                "tid": t.task % 64,
                "ts": (t.compute_started * 1e6) as i64,
                "dur": (t.compute_secs() * 1e6) as i64,
            }));
        }
    }
    Value::Array(events).to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Obs, TaskPhaseEvent};
    use tetrium_cluster::SiteId;

    /// Two tasks of engine job 0 at site 2: fetch [1, 1.5), compute
    /// [1.5, 3); task 1's result comes from a copy.
    fn report() -> ObsReport {
        let obs = Obs::recording(vec![1; 3]);
        for (task, copy) in [(0, false), (1, true)] {
            for (t, phase) in [
                (1.0, TaskPhaseEvent::Fetching),
                (1.5, TaskPhaseEvent::Computing),
                (3.0, TaskPhaseEvent::Done),
            ] {
                obs.task_event(t, 0, 0, task, copy, phase, SiteId(2));
            }
        }
        obs.finish().unwrap()
    }

    #[test]
    fn emits_valid_json_with_expected_fields() {
        let out = chrome_trace(&report(), &[JobId(1)]);
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        let events = parsed.as_array().unwrap();
        // Two tasks x (occupancy + compute slice).
        assert_eq!(events.len(), 4);
        assert_eq!(events[0]["ph"], "X");
        assert_eq!(events[0]["name"], "job-1/s0/t0");
        assert_eq!(events[0]["pid"], 2);
        assert_eq!(events[0]["ts"], 1_000_000);
        assert_eq!(events[0]["dur"], 2_000_000);
        assert_eq!(events[0]["args"]["job"], 1);
        assert!(events[2]["name"].as_str().unwrap().contains("(copy)"));
    }

    #[test]
    fn empty_report_is_an_empty_array() {
        let out = chrome_trace(&ObsReport::default(), &[]);
        let parsed: serde_json::Value = serde_json::from_str(&out).unwrap();
        assert_eq!(parsed.as_array().unwrap().len(), 0);
    }
}
