//! OpenTelemetry-compatible span export of an [`ObsReport`].
//!
//! Serializes a recorded run as OTLP/JSON (the `resourceSpans` →
//! `scopeSpans` → `spans` shape of the OTLP protobuf JSON mapping), so
//! off-the-shelf tooling — Jaeger, an OTel collector's file receiver, any
//! OTLP-JSON reader — can open a simulation timeline without knowing
//! anything about Tetrium.
//!
//! ## Span model
//!
//! - One **trace per job** (`traceId` derived from the job index), with a
//!   `job/{j}` root span covering the job's first-to-last task event;
//! - a `stage/{s}` child span per stage;
//! - a task-attempt child span per `(task, copy)`, whose **span events**
//!   are the lifecycle transitions (`queued`, `fetching`, `computing`,
//!   `done`, `failed`, `cancelled`) and whose status is `OK` for the
//!   winning attempt and `ERROR` for one lost to failure injection;
//! - one run-level trace whose single span carries the run's aggregate
//!   attributes: per-site mean link utilization (up/down, GB/s), the
//!   event counters, and the net WAN total.
//!
//! ## Determinism contract (DESIGN.md §14)
//!
//! Ids are *derived, not generated*: `traceId`/`spanId` are splitmix64
//! mixes of a namespace (a hash of the run name) and the job/stage/task
//! indices, zero-guarded per the OTel spec. Times are simulation seconds
//! scaled to integer nanoseconds. The export is therefore a pure function
//! of `(report, run_name)` — byte-identical across `TETRIUM_THREADS`
//! settings, like `ObsReport::to_json(false)` — and distinct serve shards
//! exporting under different run names cannot collide.

use crate::{ObsReport, TaskEvent, TaskPhaseEvent};
use serde_json::{json, Value};
use std::collections::BTreeMap;

/// Scope name stamped on the exported spans.
pub const OTEL_SCOPE: &str = "tetrium-obs";

/// Serializes the report as pretty OTLP/JSON under the given run name
/// (the id namespace; see the module docs).
#[expect(
    clippy::expect_used,
    reason = "serializing a serde_json::Value cannot fail"
)]
pub fn to_otel_string(report: &ObsReport, run_name: &str) -> String {
    serde_json::to_string_pretty(&to_otel_json(report, run_name)).expect("otel export serializes")
}

/// The OTLP/JSON value form of [`to_otel_string`].
pub fn to_otel_json(report: &ObsReport, run_name: &str) -> Value {
    let ns = hash_str(run_name);
    let mut spans: Vec<Value> = vec![run_span(report, run_name, ns)];
    spans.extend(job_spans(report, ns));
    json!({
        "resourceSpans": [{
            "resource": {"attributes": [
                attr_str("service.name", "tetrium"),
                attr_str("tetrium.run", run_name),
                attr_int("tetrium.sites", report.n_sites() as i64),
            ]},
            "scopeSpans": [{
                "scope": {"name": OTEL_SCOPE, "version": "1"},
                "spans": spans,
            }],
        }],
    })
}

/// FNV-1a 64-bit hash: the id namespace from a run name.
fn hash_str(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.as_bytes() {
        h ^= u64::from(*b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// splitmix64: the id mixer. Statistically unbiased, cheap, and stable
/// across platforms — ids must never depend on process state.
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = x;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// 32-hex-char trace id for a job (`job == u64::MAX` is the run trace).
/// The OTel spec forbids the all-zero id, so the low word is forced
/// nonzero.
fn trace_id(ns: u64, job: u64) -> String {
    let hi = splitmix64(ns ^ job.wrapping_mul(0x9e37_79b9_7f4a_7c15));
    let lo = splitmix64(hi ^ 0x5bf0_3635);
    let lo = if hi == 0 && lo == 0 { 1 } else { lo };
    format!("{hi:016x}{lo:016x}")
}

/// 16-hex-char span id from the namespace and a structural key.
fn span_id(ns: u64, key: &[u64]) -> String {
    let mut x = ns;
    for k in key {
        x = splitmix64(x ^ k.wrapping_add(1));
    }
    if x == 0 {
        x = 1;
    }
    format!("{x:016x}")
}

/// Simulation seconds → integer Unix nanoseconds (OTLP JSON renders
/// 64-bit integers as decimal strings).
fn nanos(t: f64) -> String {
    format!("{}", (t.max(0.0) * 1e9).round() as u64)
}

fn attr_str(key: &str, v: &str) -> Value {
    json!({"key": key, "value": {"stringValue": v}})
}

fn attr_int(key: &str, v: i64) -> Value {
    json!({"key": key, "value": {"intValue": format!("{v}")}})
}

fn attr_double(key: &str, v: f64) -> Value {
    json!({"key": key, "value": {"doubleValue": v}})
}

fn attr_bool(key: &str, v: bool) -> Value {
    json!({"key": key, "value": {"boolValue": v}})
}

fn attr_double_array(key: &str, vs: &[f64]) -> Value {
    let values: Vec<Value> = vs.iter().map(|v| json!({"doubleValue": v})).collect();
    json!({"key": key, "value": {"arrayValue": {"values": values}}})
}

/// Time-weighted mean of each site's allocated link rate over the sampled
/// window (zeros when fewer than two samples exist).
fn mean_link_rates(report: &ObsReport) -> (Vec<f64>, Vec<f64>) {
    let n = report.n_sites();
    let tl = &report.link_timeline;
    let (mut up, mut down) = (vec![0.0; n], vec![0.0; n]);
    let window = match (tl.first(), tl.last()) {
        (Some(first), Some(last)) if tl.len() >= 2 => last.t - first.t,
        _ => return (up, down),
    };
    if window <= 0.0 {
        return (up, down);
    }
    for w in tl.windows(2) {
        let [prev, next] = w else { continue };
        let dt = next.t - prev.t;
        for (acc, rate) in up.iter_mut().zip(&prev.up) {
            *acc += rate * dt;
        }
        for (acc, rate) in down.iter_mut().zip(&prev.down) {
            *acc += rate * dt;
        }
    }
    for v in up.iter_mut().chain(down.iter_mut()) {
        *v /= window;
    }
    (up, down)
}

/// The run-level span: one trace holding the aggregate view.
fn run_span(report: &ObsReport, run_name: &str, ns: u64) -> Value {
    let (t0, t1) = report
        .task_events
        .iter()
        .fold((f64::INFINITY, 0.0f64), |(lo, hi), e| {
            (lo.min(e.t), hi.max(e.t))
        });
    let (t0, t1) = if report.task_events.is_empty() {
        (0.0, 0.0)
    } else {
        (t0, t1)
    };
    let (up, down) = mean_link_rates(report);
    let c = &report.counters;
    json!({
        "traceId": trace_id(ns, u64::MAX),
        "spanId": span_id(ns, &[u64::MAX]),
        "name": format!("run/{run_name}"),
        "kind": 1,
        "startTimeUnixNano": nanos(t0),
        "endTimeUnixNano": nanos(t1),
        "attributes": [
            attr_double_array("tetrium.link.mean_up_gbps", &up),
            attr_double_array("tetrium.link.mean_down_gbps", &down),
            attr_double("tetrium.wan.total_gb", report.total_wan_gb()),
            attr_int("tetrium.counters.copies_launched", c.copies_launched as i64),
            attr_int("tetrium.counters.copies_won", c.copies_won as i64),
            attr_int("tetrium.counters.attempts_cancelled", c.attempts_cancelled as i64),
            attr_int("tetrium.counters.task_failures", c.task_failures as i64),
            attr_int("tetrium.counters.capacity_drops", c.capacity_drops as i64),
            attr_int("tetrium.counters.dynamics_events", c.dynamics_events as i64),
            attr_int("tetrium.counters.site_outages", c.site_outages as i64),
            attr_int("tetrium.counters.dynamics_retries", c.dynamics_retries as i64),
            attr_int("tetrium.sched.instances", report.sched.len() as i64),
        ],
        "status": {"code": 0},
    })
}

/// Per-job traces: job span → stage spans → task-attempt spans.
fn job_spans(report: &ObsReport, ns: u64) -> Vec<Value> {
    // Group events by job → stage → attempt. BTreeMaps keep the export
    // order a function of the indices alone.
    type AttemptKey = (usize, bool);
    let mut jobs: BTreeMap<usize, BTreeMap<usize, BTreeMap<AttemptKey, Vec<&TaskEvent>>>> =
        BTreeMap::new();
    for e in &report.task_events {
        jobs.entry(e.job)
            .or_default()
            .entry(e.stage)
            .or_default()
            .entry((e.task, e.copy))
            .or_default()
            .push(e);
    }
    let mut spans = Vec::new();
    for (job, stages) in &jobs {
        let tid = trace_id(ns, *job as u64);
        let job_sid = span_id(ns, &[*job as u64]);
        let all: Vec<f64> = stages
            .values()
            .flat_map(|s| s.values())
            .flatten()
            .map(|e| e.t)
            .collect();
        let j0 = all.iter().copied().fold(f64::INFINITY, f64::min);
        let j1 = all.iter().copied().fold(0.0f64, f64::max);
        spans.push(json!({
            "traceId": tid,
            "spanId": job_sid,
            "name": format!("job/{job}"),
            "kind": 1,
            "startTimeUnixNano": nanos(j0),
            "endTimeUnixNano": nanos(j1),
            "attributes": [
                attr_int("tetrium.job", *job as i64),
                attr_int("tetrium.stages", stages.len() as i64),
            ],
            "status": {"code": 0},
        }));
        for (stage, attempts) in stages {
            let stage_sid = span_id(ns, &[*job as u64, *stage as u64]);
            let ts: Vec<f64> = attempts.values().flatten().map(|e| e.t).collect();
            let s0 = ts.iter().copied().fold(f64::INFINITY, f64::min);
            let s1 = ts.iter().copied().fold(0.0f64, f64::max);
            spans.push(json!({
                "traceId": tid,
                "spanId": stage_sid,
                "parentSpanId": job_sid,
                "name": format!("job/{job}/stage/{stage}"),
                "kind": 1,
                "startTimeUnixNano": nanos(s0),
                "endTimeUnixNano": nanos(s1),
                "attributes": [
                    attr_int("tetrium.stage", *stage as i64),
                    attr_int("tetrium.attempts", attempts.len() as i64),
                ],
                "status": {"code": 0},
            }));
            for ((task, copy), events) in attempts {
                let key = [*job as u64, *stage as u64, *task as u64, u64::from(*copy)];
                let (Some(&first), Some(&last)) = (events.first(), events.last()) else {
                    continue;
                };
                let status = match last.phase {
                    TaskPhaseEvent::Done => 1,
                    TaskPhaseEvent::Failed => 2,
                    _ => 0,
                };
                let span_events: Vec<Value> = events
                    .iter()
                    .map(|e| {
                        json!({
                            "timeUnixNano": nanos(e.t),
                            "name": e.phase.as_str(),
                            "attributes": [attr_int("tetrium.site", e.site.index() as i64)],
                        })
                    })
                    .collect();
                let suffix = if *copy { "/copy" } else { "" };
                spans.push(json!({
                    "traceId": tid,
                    "spanId": span_id(ns, &key),
                    "parentSpanId": stage_sid,
                    "name": format!("job/{job}/stage/{stage}/task/{task}{suffix}"),
                    "kind": 1,
                    "startTimeUnixNano": nanos(first.t),
                    "endTimeUnixNano": nanos(last.t),
                    "attributes": [
                        attr_int("tetrium.task", *task as i64),
                        attr_bool("tetrium.copy", *copy),
                        attr_int("tetrium.site", last.site.index() as i64),
                    ],
                    "events": span_events,
                    "status": {"code": status},
                }));
            }
        }
    }
    spans
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Obs;
    use tetrium_cluster::SiteId;

    fn small_report() -> ObsReport {
        let obs = Obs::recording(vec![2, 2]);
        let s = SiteId(0);
        obs.task_event(0.0, 0, 0, 0, false, TaskPhaseEvent::Queued, s);
        obs.task_event(0.5, 0, 0, 0, false, TaskPhaseEvent::Fetching, s);
        obs.task_event(1.0, 0, 0, 0, false, TaskPhaseEvent::Computing, s);
        obs.task_event(2.0, 0, 0, 0, false, TaskPhaseEvent::Done, s);
        obs.task_event(0.0, 1, 0, 0, false, TaskPhaseEvent::Queued, SiteId(1));
        obs.task_event(3.0, 1, 0, 0, false, TaskPhaseEvent::Failed, SiteId(1));
        obs.link_sample(0.0, &[1.0, 0.0], &[0.0, 1.0]);
        obs.link_sample(2.0, &[0.0, 0.0], &[0.0, 0.0]);
        obs.wan_transfer(SiteId(0), SiteId(1), 3.0);
        obs.finish().unwrap()
    }

    #[test]
    fn ids_are_deterministic_and_well_formed() {
        let r = small_report();
        let a = to_otel_string(&r, "run-a");
        assert_eq!(a, to_otel_string(&r, "run-a"));
        // Different run names give disjoint id namespaces.
        assert_ne!(a, to_otel_string(&r, "run-b"));
        let v = to_otel_json(&r, "run-a");
        let spans = v["resourceSpans"][0]["scopeSpans"][0]["spans"]
            .as_array()
            .unwrap();
        for s in spans {
            let tid = s["traceId"].as_str().unwrap();
            let sid = s["spanId"].as_str().unwrap();
            assert_eq!(tid.len(), 32);
            assert_eq!(sid.len(), 16);
            assert!(tid.chars().all(|c| c.is_ascii_hexdigit()));
            assert!(tid.chars().any(|c| c != '0'));
            assert!(sid.chars().any(|c| c != '0'));
        }
    }

    #[test]
    fn span_hierarchy_and_status() {
        let v = to_otel_json(&small_report(), "t");
        let spans = v["resourceSpans"][0]["scopeSpans"][0]["spans"]
            .as_array()
            .unwrap();
        // Run span + 2 jobs × (job + stage + task).
        assert_eq!(spans.len(), 1 + 2 * 3);
        let find = |name: &str| spans.iter().find(|s| s["name"] == name).unwrap();
        let job = find("job/0");
        let stage = find("job/0/stage/0");
        let task = find("job/0/stage/0/task/0");
        assert_eq!(stage["parentSpanId"], job["spanId"]);
        assert_eq!(task["parentSpanId"], stage["spanId"]);
        assert_eq!(task["traceId"], job["traceId"]);
        assert_eq!(task["status"]["code"], serde_json::json!(1));
        let failed = find("job/1/stage/0/task/0");
        assert_eq!(failed["status"]["code"], serde_json::json!(2));
        // Lifecycle transitions are span events in order.
        let events = task["events"].as_array().unwrap();
        let names: Vec<&str> = events.iter().map(|e| e["name"].as_str().unwrap()).collect();
        assert_eq!(names, ["queued", "fetching", "computing", "done"]);
        assert_eq!(events[3]["timeUnixNano"], serde_json::json!("2000000000"));
    }

    #[test]
    fn run_span_carries_link_and_counter_attributes() {
        let v = to_otel_json(&small_report(), "t");
        let run = &v["resourceSpans"][0]["scopeSpans"][0]["spans"][0];
        assert!(run["name"].as_str().unwrap().starts_with("run/"));
        let attrs = run["attributes"].as_array().unwrap();
        let get = |key: &str| attrs.iter().find(|a| a["key"] == key).unwrap();
        let up = &get("tetrium.link.mean_up_gbps")["value"]["arrayValue"]["values"];
        assert_eq!(up[0]["doubleValue"], serde_json::json!(1.0));
        assert_eq!(
            get("tetrium.wan.total_gb")["value"]["doubleValue"],
            serde_json::json!(3.0)
        );
    }

    #[test]
    fn empty_report_exports_cleanly() {
        let v = to_otel_json(&ObsReport::default(), "empty");
        let spans = v["resourceSpans"][0]["scopeSpans"][0]["spans"]
            .as_array()
            .unwrap();
        assert_eq!(spans.len(), 1);
    }
}
