//! The `workload::ingest` layer, timed from outside: parse, validate and
//! convert the input's trace body, exactly as `tetrium-cli run --trace`
//! does, and check the scenario reproduces the generated jobs.

use crate::inputs::Input;
use crate::timed::{now, secs};
use std::time::Instant;
use tetrium::jobs::Job;
use tetrium::workload::ingest::{
    parse_trace_str, scenario_from_trace, validate, TraceProfile, ValidatorConfig,
};
use tetrium::workload::Scenario;

/// An ingested input and the instants around each ingest call.
pub struct Ingested {
    /// The converted scenario.
    pub scenario: Scenario,
    /// Trace rows parsed.
    pub rows: usize,
    /// Trace body size in bytes.
    pub bytes: usize,
    /// `parse_trace_str`.
    pub parse: (Instant, Instant),
    /// `validate`, drift included, against the trace's own profile.
    pub validate: (Instant, Instant),
    /// `scenario_from_trace` (which re-runs the validator before
    /// converting).
    pub convert: (Instant, Instant),
}

impl Ingested {
    /// Wall seconds of the whole ingest.
    pub fn secs(&self) -> f64 {
        secs((self.parse.0, self.convert.1))
    }
}

/// Ingests `input.trace` onto `input.cluster`.
pub fn ingest(input: &Input) -> Result<Ingested, String> {
    let p0 = now();
    let trace = parse_trace_str(&input.trace).map_err(|e| format!("parse: {e}"))?;
    let p1 = now();
    let cfg = ValidatorConfig {
        profile: TraceProfile::from_trace(&trace),
        ..ValidatorConfig::default()
    };
    validate(&trace, &cfg).map_err(|e| format!("validate: {e}"))?;
    let v1 = now();
    let scenario = scenario_from_trace(&trace, input.cluster.clone(), &cfg)
        .map_err(|e| format!("convert: {e}"))?;
    let c1 = now();
    same_jobs(&input.jobs, &scenario.jobs)?;
    Ok(Ingested {
        scenario,
        rows: trace.rows.len(),
        bytes: input.trace.len(),
        parse: (p0, p1),
        validate: (p1, v1),
        convert: (v1, c1),
    })
}

/// The ingested jobs must be the generated ones: same ids, names, arrival
/// times, shapes, task counts and input volumes.
fn same_jobs(want: &[Job], got: &[Job]) -> Result<(), String> {
    if want.len() != got.len() {
        return Err(format!(
            "ingest produced {} jobs, generated {}",
            got.len(),
            want.len()
        ));
    }
    for (w, g) in want.iter().zip(got) {
        let same = w.id == g.id
            && w.name == g.name
            && w.arrival == g.arrival
            && w.num_stages() == g.num_stages()
            && w.total_tasks() == g.total_tasks()
            && (w.input_gb() - g.input_gb()).abs() <= 1e-9 * w.input_gb().max(1.0);
        if !same {
            return Err(format!(
                "ingested job {} differs from the generated one",
                w.id
            ));
        }
    }
    Ok(())
}
