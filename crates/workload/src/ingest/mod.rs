//! Real-trace ingestion: schema, validation gate, and loader.
//!
//! The pipeline is `file → RawTrace → validator → Scenario`:
//!
//! - [`schema`] parses Google/Alibaba-cluster-trace-shaped JSON or CSV
//!   *leniently* — per-field damage is recorded on the row instead of
//!   aborting the parse, so the validator can address every problem;
//! - [`validate`](mod@validate) runs the composable constraint pipeline and reports
//!   **all** violations with row/field addresses;
//! - [`loader`] converts a validated trace into a [`crate::Scenario`]
//!   and can export synthetic jobs back into trace form.
//!
//! See DESIGN.md §14 for the trace schema and the constraint list.

pub mod loader;
pub mod schema;
pub mod validate;

pub use loader::{
    ingest, parse_trace_str, read_trace_file, scenario_from_trace, trace_from_jobs, IngestError,
};
pub use schema::{RawRow, RawTrace, TraceParseError, TRACE_FORMAT};
pub use validate::{
    validate, TraceProfile, ValidationReport, ValidatorConfig, Violation, CONSTRAINTS,
};
