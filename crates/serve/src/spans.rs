//! OTel span export for the serve front end.
//!
//! The engine's final shard reports cannot carry task timelines — the
//! workers drain task events mid-run to fan them out as [`JobEvent::Task`]
//! — so the span exporter lives on the *subscriber* side: a [`SpanTap`]
//! consumes the event stream, reassembles per-shard task timelines, and
//! serializes them with the same OTLP/JSON serializer the CLI uses
//! (`tetrium::obs::otel`).
//!
//! Shard virtual clocks are independent, so each shard exports as its own
//! resource (`{run}/shard-{i}` is its id namespace): traces from different
//! shards never share ids, and one shard's export is byte-identical to
//! what a single-process run of that shard would produce.

use crate::events::JobEvent;
use serde_json::{json, Value};
use std::collections::BTreeMap;
use tetrium::cluster::SiteId;
use tetrium::obs::{otel, ObsReport, TaskEvent};
use tokio::sync::broadcast;

/// Subscriber-side span collector. Feed it every event from a
/// subscription (or let [`SpanTap::collect`] drive a receiver) and ask
/// for the OTLP/JSON document when the run ends.
#[derive(Debug, Default)]
pub struct SpanTap {
    shards: BTreeMap<usize, Vec<TaskEvent>>,
    done: usize,
}

impl SpanTap {
    /// An empty tap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Observes one event; only [`JobEvent::Task`] contributes spans.
    pub fn observe(&mut self, event: &JobEvent) {
        match *event {
            JobEvent::Task {
                shard,
                job_index,
                stage,
                task,
                copy,
                phase,
                site,
                at,
            } => {
                self.shards.entry(shard).or_default().push(TaskEvent {
                    t: at,
                    job: job_index,
                    stage,
                    task,
                    copy,
                    phase,
                    site: SiteId(site),
                });
            }
            JobEvent::ShardDone { .. } => self.done += 1,
            _ => {}
        }
    }

    /// Number of `ShardDone` events seen so far.
    pub fn shards_done(&self) -> usize {
        self.done
    }

    /// Drives a subscription until `shards` workers have reported
    /// `ShardDone` or the channel closes. `Lagged` gaps are skipped (the
    /// export then covers the events that were observed).
    pub async fn collect(&mut self, rx: &mut broadcast::Receiver<JobEvent>, shards: usize) {
        while self.done < shards {
            match rx.recv().await {
                Ok(event) => self.observe(&event),
                Err(broadcast::error::RecvError::Lagged(_)) => {}
                Err(broadcast::error::RecvError::Closed) => break,
            }
        }
    }

    /// The OTLP/JSON document: one resource per shard, each exported under
    /// the `{run_name}/shard-{i}` id namespace.
    pub fn to_otel_json(&self, run_name: &str) -> Value {
        let mut resources = Vec::with_capacity(self.shards.len());
        for (shard, events) in &self.shards {
            let report = ObsReport {
                task_events: events.clone(),
                ..ObsReport::default()
            };
            let doc = otel::to_otel_json(&report, &format!("{run_name}/shard-{shard}"));
            if let Some(rs) = doc.get("resourceSpans").and_then(Value::as_array) {
                resources.extend(rs.iter().cloned());
            }
        }
        json!({"resourceSpans": resources})
    }

    /// Pretty-printed form of [`SpanTap::to_otel_json`].
    #[expect(
        clippy::expect_used,
        reason = "serializing a serde_json::Value cannot fail"
    )]
    pub fn to_otel_string(&self, run_name: &str) -> String {
        serde_json::to_string_pretty(&self.to_otel_json(run_name)).expect("otel export serializes")
    }
}
