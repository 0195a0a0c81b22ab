//! Constraint-based trace validation: the gate between a raw trace file
//! and the engine.
//!
//! Validation is a fixed pipeline of small, named constraints
//! ([`CONSTRAINTS`]); each scans the whole trace and appends
//! [`Violation`]s carrying a row address and (where it applies) a field
//! name. Nothing short-circuits: a malformed trace comes back with *every*
//! problem it has, so one round-trip with the producer fixes them all.
//! A trace is accepted only when the full pipeline stays silent.
//!
//! The constraint list (DESIGN.md §14):
//!
//! - `schema` — rows parse field-by-field (type/shape errors recorded by
//!   the lenient parser), no unknown fields;
//! - `required` — non-null required fields, with root/non-root rules
//!   (roots carry `input_gb_by_site`, non-roots carry `deps`+`input_gb`);
//! - `non-negative` — byte/duration/count fields are finite, non-negative,
//!   and integral where counts are expected;
//! - `monotone-timestamps` — rows of a job are contiguous and share one
//!   submit time; job submit times never regress across the file;
//! - `topology` — stage indices are dense and ascending per job, deps
//!   point strictly backwards, roots are map stages;
//! - `site-arity` — per-site byte lists match the header's site count;
//! - `byte-conservation` — a non-root stage's declared input equals the
//!   sum of its parents' outputs within a relative tolerance;
//! - `drift` — optional distribution-drift check of input-size and
//!   inter-arrival statistics against a reference [`TraceProfile`].

use super::schema::RawTrace;

/// One constraint violation, addressed to a row (1-based) and field where
/// that is meaningful; whole-trace findings (e.g. drift) carry neither.
#[derive(Debug, Clone, PartialEq)]
pub struct Violation {
    /// Which constraint fired (a name from [`CONSTRAINTS`]).
    pub constraint: &'static str,
    /// 1-based row address ([`RawRow::row`](super::schema::RawRow::row)); `None` for whole-trace
    /// findings.
    pub row: Option<usize>,
    /// Offending field, when the violation is narrower than the row.
    pub field: Option<&'static str>,
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match (self.row, self.field) {
            (Some(r), Some(fl)) => {
                write!(
                    f,
                    "row {r}, field '{fl}' [{}]: {}",
                    self.constraint, self.message
                )
            }
            (Some(r), None) => write!(f, "row {r} [{}]: {}", self.constraint, self.message),
            _ => write!(f, "trace [{}]: {}", self.constraint, self.message),
        }
    }
}

/// Everything the pipeline found, in constraint-then-row order.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ValidationReport {
    /// All violations across all constraints.
    pub violations: Vec<Violation>,
}

impl ValidationReport {
    /// Number of distinct constraints that fired.
    pub fn distinct_constraints(&self) -> usize {
        let mut names: Vec<&str> = self.violations.iter().map(|v| v.constraint).collect();
        names.sort_unstable();
        names.dedup();
        names.len()
    }
}

impl std::fmt::Display for ValidationReport {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        writeln!(
            f,
            "trace rejected: {} violation(s) across {} constraint(s)",
            self.violations.len(),
            self.distinct_constraints()
        )?;
        for v in &self.violations {
            writeln!(f, "  {v}")?;
        }
        Ok(())
    }
}

/// Reference statistics a trace can be checked for drift against.
///
/// The profile is deliberately coarse — order statistics of job input
/// sizes and the mean inter-arrival gap — because its job is to catch a
/// *different population* (wrong units, truncated file, synthetic data
/// swapped for production data), not to hypothesis-test the generator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct TraceProfile {
    /// Median per-job total input in GB.
    pub median_input_gb: f64,
    /// 90th-percentile per-job total input in GB.
    pub p90_input_gb: f64,
    /// Mean gap between consecutive job submits in seconds.
    pub mean_interarrival_s: f64,
    /// Mean stages per job.
    pub mean_stages: f64,
}

impl TraceProfile {
    /// Derives the profile of a trace. Returns `None` when the trace has
    /// no usable job rows (profile checks need at least two jobs).
    pub fn from_trace(trace: &RawTrace) -> Option<Self> {
        let jobs = job_spans(trace);
        if jobs.len() < 2 {
            return None;
        }
        let mut inputs: Vec<f64> = Vec::with_capacity(jobs.len());
        let mut submits: Vec<f64> = Vec::with_capacity(jobs.len());
        let mut stages = 0usize;
        for span in &jobs {
            let rows = &trace.rows[span.clone()];
            stages += rows.len();
            submits.push(rows[0].submit_s.unwrap_or(0.0));
            inputs.push(
                rows.iter()
                    .filter_map(|r| r.input_gb_by_site.as_ref())
                    .map(|b| b.iter().sum::<f64>())
                    .sum(),
            );
        }
        inputs.sort_by(f64::total_cmp);
        let q = |p: f64| inputs[((inputs.len() as f64 - 1.0) * p).round() as usize];
        let gaps: f64 = submits.windows(2).map(|w| (w[1] - w[0]).max(0.0)).sum();
        Some(Self {
            median_input_gb: q(0.5),
            p90_input_gb: q(0.9),
            mean_interarrival_s: gaps / (submits.len() - 1) as f64,
            mean_stages: stages as f64 / jobs.len() as f64,
        })
    }
}

/// Validator knobs.
#[derive(Debug, Clone)]
pub struct ValidatorConfig {
    /// Relative tolerance of the byte-conservation check (declared stage
    /// input vs sum of parent outputs). Real traces are lossy meters, so
    /// the default allows 1% slack.
    pub byte_tolerance: f64,
    /// Reference profile for the drift check; `None` disables it.
    pub profile: Option<TraceProfile>,
    /// Maximum relative deviation from the reference profile before the
    /// drift constraint fires.
    pub max_drift: f64,
}

impl Default for ValidatorConfig {
    fn default() -> Self {
        Self {
            byte_tolerance: 0.01,
            profile: None,
            max_drift: 0.5,
        }
    }
}

/// A constraint: scans the trace and appends violations.
pub type ConstraintFn = fn(&RawTrace, &ValidatorConfig, &mut Vec<Violation>);

/// The pipeline, in the order constraints run. Each entry is
/// `(name, check)`; [`validate`] runs them all, unconditionally.
pub const CONSTRAINTS: &[(&str, ConstraintFn)] = &[
    ("schema", check_schema),
    ("required", check_required),
    ("non-negative", check_non_negative),
    ("monotone-timestamps", check_monotone_timestamps),
    ("topology", check_topology),
    ("site-arity", check_site_arity),
    ("byte-conservation", check_byte_conservation),
    ("drift", check_drift),
];

/// Runs the full constraint pipeline.
///
/// # Errors
///
/// The report with **all** violations when any constraint fired.
pub fn validate(trace: &RawTrace, cfg: &ValidatorConfig) -> Result<(), ValidationReport> {
    let mut violations = Vec::new();
    for (_, check) in CONSTRAINTS {
        check(trace, cfg, &mut violations);
    }
    if violations.is_empty() {
        Ok(())
    } else {
        Err(ValidationReport { violations })
    }
}

fn push(
    out: &mut Vec<Violation>,
    constraint: &'static str,
    row: Option<usize>,
    field: Option<&'static str>,
    message: String,
) {
    out.push(Violation {
        constraint,
        row,
        field,
        message,
    });
}

/// Contiguous row spans per job, in file order. Rows with no job name are
/// skipped (the `required` constraint addresses those).
fn job_spans(trace: &RawTrace) -> Vec<std::ops::Range<usize>> {
    let mut spans: Vec<std::ops::Range<usize>> = Vec::new();
    let mut current: Option<(&str, usize)> = None;
    for (i, r) in trace.rows.iter().enumerate() {
        let Some(name) = r.job.as_deref() else {
            continue;
        };
        match current {
            Some((cur, start)) if cur == name => {
                let _ = start;
            }
            Some((_, start)) => {
                spans.push(start..i);
                current = Some((name, i));
            }
            None => current = Some((name, i)),
        }
    }
    if let Some((_, start)) = current {
        spans.push(start..trace.rows.len());
    }
    spans
}

/// `schema`: surfaces the lenient parser's per-field type errors and
/// rejects a trace with zero rows or zero sites.
fn check_schema(trace: &RawTrace, _cfg: &ValidatorConfig, out: &mut Vec<Violation>) {
    if trace.sites == 0 {
        push(out, "schema", None, None, "header declares 0 sites".into());
    }
    if trace.rows.is_empty() {
        push(out, "schema", None, None, "trace has no rows".into());
    }
    for r in &trace.rows {
        for (field, msg) in &r.bad_fields {
            let field = if *field == "row" { None } else { Some(*field) };
            push(out, "schema", Some(r.row), field, msg.clone());
        }
    }
}

/// `required`: non-null required fields, with root/non-root asymmetry.
fn check_required(trace: &RawTrace, _cfg: &ValidatorConfig, out: &mut Vec<Violation>) {
    fn missing(out: &mut Vec<Violation>, row: usize, field: &'static str, absent: bool) {
        if absent {
            push(
                out,
                "required",
                Some(row),
                Some(field),
                format!("required field '{field}' is missing or null"),
            );
        }
    }
    for r in &trace.rows {
        missing(
            out,
            r.row,
            "job",
            r.job.as_deref().is_none_or(str::is_empty),
        );
        missing(out, r.row, "submit_s", r.submit_s.is_none());
        missing(out, r.row, "stage", r.stage.is_none());
        missing(out, r.row, "deps", r.deps.is_none());
        missing(out, r.row, "tasks", r.tasks.is_none());
        missing(out, r.row, "task_s", r.task_s.is_none());
        missing(out, r.row, "output_gb", r.output_gb.is_none());
        match r.kind.as_deref() {
            None => missing(out, r.row, "kind", true),
            Some("map" | "reduce") => {}
            Some(other) => push(
                out,
                "required",
                Some(r.row),
                Some("kind"),
                format!("kind must be 'map' or 'reduce', got '{other}'"),
            ),
        }
        // Root rows (explicitly empty deps) read external per-site input;
        // non-roots declare their aggregate input so byte conservation is
        // checkable against the parents.
        match &r.deps {
            Some(d) if d.is_empty() => {
                missing(out, r.row, "input_gb_by_site", r.input_gb_by_site.is_none());
            }
            Some(_) => {
                missing(out, r.row, "input_gb", r.input_gb.is_none());
                if r.input_gb_by_site.is_some() {
                    push(
                        out,
                        "required",
                        Some(r.row),
                        Some("input_gb_by_site"),
                        "only root rows (empty deps) may carry per-site input".into(),
                    );
                }
            }
            None => {}
        }
    }
}

/// `non-negative`: numeric sanity — finite, ≥ 0, integral counts.
fn check_non_negative(trace: &RawTrace, _cfg: &ValidatorConfig, out: &mut Vec<Violation>) {
    for r in &trace.rows {
        let mut bad = |field: &'static str, msg: String| {
            push(out, "non-negative", Some(r.row), Some(field), msg);
        };
        let check_scalar = |v: Option<f64>| v.is_some_and(|x| !x.is_finite() || x < 0.0);
        if check_scalar(r.submit_s) {
            bad("submit_s", format!("{:?} is not a finite time", r.submit_s));
        }
        if check_scalar(r.task_s) {
            bad("task_s", format!("{:?} is not a finite duration", r.task_s));
        }
        if check_scalar(r.input_gb) {
            bad(
                "input_gb",
                format!("{:?} is not a finite volume", r.input_gb),
            );
        }
        if check_scalar(r.output_gb) {
            bad(
                "output_gb",
                format!("{:?} is not a finite volume", r.output_gb),
            );
        }
        let check_count = |v: Option<f64>, min: f64| {
            v.is_some_and(|x| !x.is_finite() || x < min || x.fract() != 0.0)
        };
        if check_count(r.tasks, 1.0) {
            bad("tasks", format!("{:?} is not a positive integer", r.tasks));
        }
        if check_count(r.stage, 0.0) {
            bad(
                "stage",
                format!("{:?} is not a non-negative integer", r.stage),
            );
        }
        if let Some(deps) = &r.deps {
            if deps
                .iter()
                .any(|d| !d.is_finite() || *d < 0.0 || d.fract() != 0.0)
            {
                bad("deps", format!("{deps:?} contains a non-index entry"));
            }
        }
        if let Some(by_site) = &r.input_gb_by_site {
            if by_site.iter().any(|v| !v.is_finite() || *v < 0.0) {
                bad(
                    "input_gb_by_site",
                    "contains a negative or non-finite volume".into(),
                );
            }
        }
    }
}

/// `monotone-timestamps`: one submit time per job, non-decreasing across
/// jobs, and no job's rows split by another job's (split rows re-enter
/// `job_spans` as a second span of the same name, caught here).
fn check_monotone_timestamps(trace: &RawTrace, _cfg: &ValidatorConfig, out: &mut Vec<Violation>) {
    let spans = job_spans(trace);
    let mut seen: Vec<&str> = Vec::new();
    let mut prev_submit: Option<(f64, usize)> = None;
    for span in &spans {
        let rows = &trace.rows[span.clone()];
        let name = rows[0].job.as_deref().unwrap_or("");
        if seen.contains(&name) {
            push(
                out,
                "monotone-timestamps",
                Some(rows[0].row),
                None,
                format!("rows of job '{name}' are not contiguous"),
            );
        }
        seen.push(name);
        let Some(first) = rows.iter().find_map(|r| r.submit_s) else {
            continue; // `required` already addressed the missing submit.
        };
        for r in rows {
            if let Some(s) = r.submit_s {
                if s != first {
                    push(
                        out,
                        "monotone-timestamps",
                        Some(r.row),
                        Some("submit_s"),
                        format!("job '{name}' has conflicting submit times {first} and {s}"),
                    );
                }
            }
        }
        if let Some((p, prow)) = prev_submit {
            if first < p {
                push(
                    out,
                    "monotone-timestamps",
                    Some(rows[0].row),
                    Some("submit_s"),
                    format!(
                        "submit {first} regresses below {p} (row {prow}); \
                         jobs must arrive in submit order"
                    ),
                );
            }
        }
        prev_submit = Some((first, rows[0].row));
    }
}

/// `topology`: dense ascending stage indices per job, backward deps, map
/// roots.
fn check_topology(trace: &RawTrace, _cfg: &ValidatorConfig, out: &mut Vec<Violation>) {
    for span in job_spans(trace) {
        let rows = &trace.rows[span];
        for (pos, r) in rows.iter().enumerate() {
            let Some(stage) = r.stage else { continue };
            if stage.fract() != 0.0 || stage < 0.0 {
                continue; // `non-negative` already addressed it.
            }
            if stage as usize != pos {
                push(
                    out,
                    "topology",
                    Some(r.row),
                    Some("stage"),
                    format!("stage index {stage} at position {pos}; indices must be dense and ascending"),
                );
                continue;
            }
            if let Some(deps) = &r.deps {
                for &d in deps {
                    if d.fract() != 0.0 || d < 0.0 {
                        continue; // `non-negative` already addressed it.
                    }
                    if d >= stage {
                        push(
                            out,
                            "topology",
                            Some(r.row),
                            Some("deps"),
                            format!("dep {d} does not point strictly backwards from stage {stage}"),
                        );
                    }
                }
                if deps.is_empty() && r.kind.as_deref() == Some("reduce") {
                    push(
                        out,
                        "topology",
                        Some(r.row),
                        Some("kind"),
                        "root stages read external input one-to-one and must be 'map'".into(),
                    );
                }
            }
        }
    }
}

/// `site-arity`: per-site byte lists are indexed by the header's sites.
fn check_site_arity(trace: &RawTrace, _cfg: &ValidatorConfig, out: &mut Vec<Violation>) {
    for r in &trace.rows {
        if let Some(by_site) = &r.input_gb_by_site {
            if by_site.len() != trace.sites {
                push(
                    out,
                    "site-arity",
                    Some(r.row),
                    Some("input_gb_by_site"),
                    format!(
                        "{} per-site entries, header declares {} sites",
                        by_site.len(),
                        trace.sites
                    ),
                );
            }
        }
    }
}

/// `byte-conservation`: a non-root stage's declared input must equal the
/// sum of its parents' outputs within the relative tolerance.
fn check_byte_conservation(trace: &RawTrace, cfg: &ValidatorConfig, out: &mut Vec<Violation>) {
    for span in job_spans(trace) {
        let rows = &trace.rows[span];
        for r in rows {
            let (Some(deps), Some(declared)) = (&r.deps, r.input_gb) else {
                continue;
            };
            if deps.is_empty() {
                continue;
            }
            let mut expected = 0.0;
            let mut complete = true;
            for &d in deps {
                if d.fract() != 0.0 || d < 0.0 || d as usize >= rows.len() {
                    complete = false; // `topology` already addressed it.
                    break;
                }
                match rows[d as usize].output_gb {
                    Some(gb) => expected += gb,
                    None => complete = false, // `required` already addressed it.
                }
            }
            if !complete {
                continue;
            }
            let scale = expected.abs().max(1e-9);
            if ((declared - expected) / scale).abs() > cfg.byte_tolerance {
                push(
                    out,
                    "byte-conservation",
                    Some(r.row),
                    Some("input_gb"),
                    format!(
                        "declared input {declared} GB but parents output {expected} GB \
                         (tolerance {})",
                        cfg.byte_tolerance
                    ),
                );
            }
        }
    }
}

/// `drift`: the trace's population statistics stay within `max_drift`
/// relative deviation of the reference profile.
fn check_drift(trace: &RawTrace, cfg: &ValidatorConfig, out: &mut Vec<Violation>) {
    let Some(reference) = &cfg.profile else {
        return;
    };
    let Some(actual) = TraceProfile::from_trace(trace) else {
        push(
            out,
            "drift",
            None,
            None,
            "drift check configured but the trace has too few jobs to profile".into(),
        );
        return;
    };
    let pairs = [
        (
            "median input GB",
            actual.median_input_gb,
            reference.median_input_gb,
        ),
        ("p90 input GB", actual.p90_input_gb, reference.p90_input_gb),
        (
            "mean interarrival s",
            actual.mean_interarrival_s,
            reference.mean_interarrival_s,
        ),
        (
            "mean stages per job",
            actual.mean_stages,
            reference.mean_stages,
        ),
    ];
    for (what, a, r) in pairs {
        let scale = r.abs().max(1e-9);
        let dev = ((a - r) / scale).abs();
        if dev > cfg.max_drift {
            push(
                out,
                "drift",
                None,
                None,
                format!(
                    "{what} drifted {:.0}% from the reference ({a:.3} vs {r:.3}, \
                     allowed {:.0}%)",
                    dev * 100.0,
                    cfg.max_drift * 100.0
                ),
            );
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn trace(rows_json: &str) -> RawTrace {
        RawTrace::from_json(&format!(
            r#"{{"format": "tetrium-trace/v1", "sites": 2, "rows": [{rows_json}]}}"#
        ))
        .unwrap()
    }

    const GOOD_ROOT: &str = r#"{"job": "a", "submit_s": 1.0, "stage": 0, "deps": [], "kind": "map",
        "tasks": 4, "task_s": 1.0, "input_gb_by_site": [1.0, 1.0], "output_gb": 1.0}"#;
    const GOOD_REDUCE: &str = r#"{"job": "a", "submit_s": 1.0, "stage": 1, "deps": [0], "kind": "reduce",
        "tasks": 2, "task_s": 1.0, "input_gb": 1.0, "output_gb": 0.1}"#;

    fn fired(t: &RawTrace, cfg: &ValidatorConfig) -> Vec<Violation> {
        match validate(t, cfg) {
            Ok(()) => Vec::new(),
            Err(r) => r.violations,
        }
    }

    #[test]
    fn clean_trace_passes() {
        let t = trace(&format!("{GOOD_ROOT},{GOOD_REDUCE}"));
        assert!(validate(&t, &ValidatorConfig::default()).is_ok());
    }

    #[test]
    fn missing_required_field_is_row_addressed() {
        let row = r#"{"job": "a", "submit_s": 1.0, "stage": 0, "deps": [], "kind": "map",
            "tasks": 4, "input_gb_by_site": [1.0, 1.0], "output_gb": 1.0}"#;
        let v = fired(&trace(row), &ValidatorConfig::default());
        assert!(v
            .iter()
            .any(|v| v.constraint == "required" && v.row == Some(1) && v.field == Some("task_s")));
    }

    #[test]
    fn timestamp_regression_fires() {
        let late = GOOD_ROOT.replace("\"job\": \"a\"", "\"job\": \"b\"");
        let early = late
            .replace("\"submit_s\": 1.0", "\"submit_s\": 0.5")
            .replace("\"job\": \"b\"", "\"job\": \"c\"");
        let t = trace(&format!("{GOOD_ROOT},{GOOD_REDUCE},{late},{early}"));
        let v = fired(&t, &ValidatorConfig::default());
        assert!(v
            .iter()
            .any(|v| v.constraint == "monotone-timestamps" && v.row == Some(4)));
    }

    #[test]
    fn byte_conservation_violation_fires_within_tolerance_rules() {
        let bad_reduce = GOOD_REDUCE.replace("\"input_gb\": 1.0", "\"input_gb\": 1.5");
        let t = trace(&format!("{GOOD_ROOT},{bad_reduce}"));
        let v = fired(&t, &ValidatorConfig::default());
        assert!(v
            .iter()
            .any(|v| v.constraint == "byte-conservation" && v.row == Some(2)));
        // A looser tolerance accepts the same trace.
        let loose = ValidatorConfig {
            byte_tolerance: 0.6,
            ..ValidatorConfig::default()
        };
        assert!(validate(&t, &loose).is_ok());
    }

    #[test]
    fn drift_fires_only_with_a_profile() {
        let b_root = GOOD_ROOT
            .replace("\"job\": \"a\"", "\"job\": \"b\"")
            .replace("\"submit_s\": 1.0", "\"submit_s\": 2.0");
        let t = trace(&format!("{GOOD_ROOT},{GOOD_REDUCE},{b_root}"));
        assert!(validate(&t, &ValidatorConfig::default()).is_ok());
        let profile = TraceProfile {
            median_input_gb: 2000.0,
            p90_input_gb: 4000.0,
            mean_interarrival_s: 1.0,
            mean_stages: 1.5,
        };
        let cfg = ValidatorConfig {
            profile: Some(profile),
            ..ValidatorConfig::default()
        };
        let v = fired(&t, &cfg);
        assert!(v.iter().any(|v| v.constraint == "drift" && v.row.is_none()));
        // The trace's own profile never drifts from itself.
        let own = TraceProfile::from_trace(&t).unwrap();
        let cfg = ValidatorConfig {
            profile: Some(own),
            ..ValidatorConfig::default()
        };
        assert!(validate(&t, &cfg).is_ok());
    }

    #[test]
    fn every_constraint_is_reported_not_just_the_first() {
        // One row violating several constraints at once: bad kind, negative
        // duration, short site list, float task count.
        let row = r#"{"job": "a", "submit_s": 1.0, "stage": 0, "deps": [], "kind": "mop",
            "tasks": 2.5, "task_s": -1.0, "input_gb_by_site": [1.0], "output_gb": 1.0}"#;
        let v = fired(&trace(row), &ValidatorConfig::default());
        let constraints: Vec<&str> = v.iter().map(|v| v.constraint).collect();
        assert!(constraints.contains(&"required"), "{v:?}");
        assert!(constraints.contains(&"non-negative"), "{v:?}");
        assert!(constraints.contains(&"site-arity"), "{v:?}");
        assert!(v.iter().all(|v| v.row == Some(1)));
    }

    #[test]
    fn report_display_lists_rows() {
        let row = r#"{"job": "a", "submit_s": 1.0, "stage": 0, "deps": [], "kind": "map",
            "tasks": 4, "task_s": 1.0, "input_gb_by_site": [1.0], "output_gb": 1.0}"#;
        let err = validate(&trace(row), &ValidatorConfig::default()).unwrap_err();
        let text = err.to_string();
        assert!(text.contains("row 1"), "{text}");
        assert!(text.contains("site-arity"), "{text}");
    }
}
