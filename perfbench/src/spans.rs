//! Benchmark-owned spans of a traced run: built in memory from the instants
//! the benchmark took around each call into a layer, written out once the
//! run ends, and folded into a per-layer self-time table.

use crate::stats::{explained_share, ratio, self_time};
use serde_json::{json, Value};
use std::time::Instant;

/// One span: a named interval with the span that caused it.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    /// Layer-qualified name, e.g. `sim.run`.
    pub name: &'static str,
    /// Seconds since the trace's epoch.
    pub start: f64,
    /// Seconds since the trace's epoch.
    pub end: f64,
    /// Index of the causing span; `None` for the workload's root.
    pub parent: Option<usize>,
    /// Job id, for spans that belong to one job.
    pub job: Option<usize>,
}

/// The spans of one traced workload run.
pub struct Trace {
    epoch: Instant,
    spans: Vec<Span>,
}

/// One row of the self-time table: every span of one name.
#[derive(Debug, Clone, PartialEq)]
pub struct Row {
    /// Span name.
    pub name: &'static str,
    /// Number of spans.
    pub count: usize,
    /// Summed durations, seconds.
    pub total: f64,
    /// Summed self times, seconds.
    pub self_s: f64,
}

impl Trace {
    /// An empty trace whose times count from `epoch`.
    pub fn new(epoch: Instant) -> Self {
        Trace {
            epoch,
            spans: Vec::new(),
        }
    }

    /// Records a span and returns its index.
    pub fn push(
        &mut self,
        name: &'static str,
        (start, end): (Instant, Instant),
        parent: Option<usize>,
        job: Option<usize>,
    ) -> usize {
        let secs = |t: Instant| t.saturating_duration_since(self.epoch).as_secs_f64();
        self.spans.push(Span {
            name,
            start: secs(start),
            end: secs(end),
            parent,
            job,
        });
        self.spans.len() - 1
    }

    fn children(&self, parent: usize) -> Vec<(f64, f64)> {
        self.spans
            .iter()
            .filter(|s| s.parent == Some(parent))
            .map(|s| (s.start, s.end))
            .collect()
    }

    /// Self time of every span, by index.
    pub fn self_times(&self) -> Vec<f64> {
        let mut kids: Vec<Vec<(f64, f64)>> = vec![Vec::new(); self.spans.len()];
        for s in &self.spans {
            if let Some(k) = s.parent.and_then(|p| kids.get_mut(p)) {
                k.push((s.start, s.end));
            }
        }
        self.spans
            .iter()
            .zip(&kids)
            .map(|(s, k)| self_time(s.start, s.end, k))
            .collect()
    }

    /// Share of span `root` covered by its children.
    pub fn explained(&self, root: usize) -> f64 {
        self.spans.get(root).map_or(0.0, |r| {
            explained_share(r.start, r.end, &self.children(root))
        })
    }

    /// Self-time table, one row per span name in first-seen order.
    pub fn table(&self) -> Vec<Row> {
        let mut rows: Vec<Row> = Vec::new();
        for (s, own) in self.spans.iter().zip(self.self_times()) {
            let i = match rows.iter().position(|r| r.name == s.name) {
                Some(i) => i,
                None => {
                    rows.push(Row {
                        name: s.name,
                        count: 0,
                        total: 0.0,
                        self_s: 0.0,
                    });
                    rows.len() - 1
                }
            };
            rows[i].count += 1;
            rows[i].total += s.end - s.start;
            rows[i].self_s += own;
        }
        rows
    }

    /// The self-time table as text lines, shares taken of span `root`.
    pub fn table_lines(&self, root: usize) -> Vec<String> {
        let root_s = self.spans.get(root).map_or(0.0, |r| r.end - r.start);
        let mut out = vec![format!(
            "{:<18} {:>7} {:>11} {:>11} {:>7}",
            "span", "count", "total_s", "self_s", "self%"
        )];
        for r in self.table() {
            out.push(format!(
                "{:<18} {:>7} {:>11.6} {:>11.6} {:>6.2}%",
                r.name,
                r.count,
                r.total,
                r.self_s,
                100.0 * ratio(r.self_s, root_s)
            ));
        }
        out
    }

    /// The trace as JSON: spans with ids and parents, plus the table.
    pub fn to_json(&self, workload: &str, run: u64) -> Value {
        let spans: Vec<Value> = self
            .spans
            .iter()
            .enumerate()
            .map(|(id, s)| {
                json!({
                    "id": id,
                    "name": s.name,
                    "start_s": s.start,
                    "end_s": s.end,
                    "parent": s.parent,
                    "job": s.job,
                    "run": run,
                })
            })
            .collect();
        let table: Vec<Value> = self
            .table()
            .into_iter()
            .map(|r| json!({"name": r.name, "count": r.count, "total_s": r.total, "self_s": r.self_s}))
            .collect();
        json!({
            "workload": workload,
            "run": run,
            "spans": spans,
            "self_time": table,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::timed::now;
    use std::time::Duration;

    fn at(epoch: Instant, a: u64, b: u64) -> (Instant, Instant) {
        (
            epoch + Duration::from_millis(a),
            epoch + Duration::from_millis(b),
        )
    }

    #[test]
    fn table_folds_spans_by_name_and_subtracts_children() {
        let e = now();
        let mut t = Trace::new(e);
        let root = t.push("root", at(e, 0, 100), None, None);
        let run = t.push("sim.run", at(e, 10, 90), Some(root), None);
        t.push("core.schedule", at(e, 20, 30), Some(run), None);
        t.push("core.schedule", at(e, 40, 60), Some(run), None);
        let rows = t.table();
        let get = |n: &str| rows.iter().find(|r| r.name == n).unwrap().clone();
        assert_eq!(get("core.schedule").count, 2);
        assert!((get("core.schedule").self_s - 0.030).abs() < 1e-9);
        assert!((get("sim.run").self_s - 0.050).abs() < 1e-9);
        assert!((get("root").self_s - 0.020).abs() < 1e-9);
        assert!((t.explained(root) - 0.8).abs() < 1e-9);
        assert!((get("core.schedule").total - 0.030).abs() < 1e-9);
    }
}
