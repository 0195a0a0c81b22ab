//! Scheduler-as-a-service front end over the deterministic Tetrium core
//! (DESIGN.md §12).
//!
//! The simulation engine is a deterministic, synchronous, virtual-time
//! machine; this crate wraps N independent engine instances ("shards")
//! behind one asynchronous submission front end:
//!
//! - jobs arrive continuously through [`TetriumService::submit`] and are
//!   routed to a shard by a deterministic hash of their [`JobId`]
//!   ([`shard_of`] — never `RandomState`);
//! - each shard worker drains its queue in *epochs*: everything queued when
//!   the worker looks is admitted as one batch, canonically sorted by job
//!   id, then the engine steps to idle in virtual time;
//! - lifecycle events ([`JobEvent`]) fan out to any number of subscribers
//!   over a broadcast channel;
//! - shutdown is cooperative via a `CancellationToken`: cancelled workers
//!   stop accepting work, finish every admitted job, flush final events
//!   and return their reports.
//!
//! # Determinism contract
//!
//! The async layer introduces real concurrency, so the *grouping* of
//! submissions into epochs depends on timing. Determinism is preserved
//! one level down: a shard's report is a pure function of its epoch
//! partition — for the same sequence of epoch batches (sets of jobs), the
//! per-shard reports are byte-identical, because within an epoch jobs are
//! canonically ordered before admission and the engine itself is
//! deterministic. In particular, submitting a whole job set before the
//! workers run yields one epoch per shard and therefore byte-identical
//! reports regardless of submission interleaving — the property
//! `submission_order_determinism` tests pin down.
//!
//! The core crates stay tokio-free; this crate (and the vendored tokio
//! stand-in it runs on) contains no wall-clock or entropy source — time
//! below the front end is exclusively virtual (clippy.toml bans the clock).

// Reachable panics are banned outside tests (DESIGN.md §10.1): an
// intentional one carries `#[expect(clippy::…, reason = "…")]`.
#![warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing
)]

mod config;
mod events;
mod report;
mod service;
mod spans;

pub use config::{shard_of, ServeConfig};
pub use events::JobEvent;
pub use report::{ServeReport, ShardReport};
pub use service::{ServeError, SubmitError, SubmitReceipt, TetriumService};
pub use spans::SpanTap;

pub use tetrium::jobs::{Job, JobId};
pub use tetrium::SchedulerKind;
