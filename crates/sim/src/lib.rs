//! Discrete-event execution engine for geo-distributed data-parallel jobs.
//!
//! This crate is the Spark-like substrate the reproduction runs on: it plays
//! the role the authors' modified Spark deployment and trace-driven simulator
//! play in the paper. It executes [`tetrium_jobs::Job`] DAGs over a
//! [`tetrium_cluster::Cluster`]:
//!
//! - each site has `S_x` compute slots; a launched task occupies one slot for
//!   its input fetch plus its compute time (multi-wave execution emerges when
//!   a stage has more tasks at a site than slots, §2.2),
//! - wide-area fetches are fluid flows over the max-min fair WAN model of
//!   [`tetrium_net`], so network transfer time reacts to concurrent load,
//! - a stage becomes runnable when all its parent stages finish (stage
//!   barrier), with its input distribution realized from where the parent
//!   tasks actually ran,
//! - the pluggable [`Scheduler`] is invoked at *scheduling instances* — job
//!   arrivals, stage activations and (batched, §5) slot releases — and
//!   assigns unlaunched tasks to sites with launch priorities,
//! - capacity-drop events degrade a site's slots and bandwidth mid-run
//!   (§4.2), and straggler/estimation noise reproduce the production-trace
//!   characteristics the paper simulates (§6.1, Fig 12d).
//!
//! The engine records per-job response times, WAN usage and scheduler
//! decision latency, which the harness turns into every figure of §6.

// Reachable panics are banned outside tests (DESIGN.md §10.1): an
// intentional one carries `#[expect(clippy::…, reason = "…")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented
)]

#[cfg(feature = "audit")]
mod audit;
mod config;
mod engine;
mod event;
mod report;
mod sched;
mod state;

/// Whether this build carries the runtime invariant auditor (feature
/// `audit`). Perf tooling asserts this is `false` before measuring, so the
/// gate never times auditor overhead.
pub fn audit_enabled() -> bool {
    cfg!(feature = "audit")
}

pub use config::{BatchPolicy, EngineConfig, SpeculationConfig};
pub use engine::{Engine, SimError};
pub use report::{JobOutcome, RunReport};
pub use sched::{
    JobSnapshot, Scheduler, SiteState, Snapshot, StageMeta, StagePlan, StageSnapshot,
    TaskAssignment, TaskPhase, TaskSnapshot,
};
pub use tetrium_obs::{Obs, ObsReport};
