//! Data-parallel job model: DAGs of map/reduce stages with parallel tasks.
//!
//! A job (paper §2.1) is a DAG of *stages*; each stage is a set of parallel
//! tasks. Stages come in two communication patterns that Tetrium places
//! differently (§3):
//!
//! - **map-like** stages read partitioned input one-to-one (each task reads
//!   one partition, which lives at a specific site), and
//! - **reduce-like** stages read all-to-all (each task reads its share of the
//!   intermediate data from every site).
//!
//! The model distinguishes the *estimated* task duration (what the scheduler
//! believes, obtained in the real system from finished tasks of the same
//! stage, §5) from the *actual* duration sampled by the execution engine,
//! which lets the harness reproduce the estimation-error sensitivity study of
//! Figure 12(d).

mod job;
mod rounding;
mod stage;

pub use job::{Job, JobId};
pub use rounding::{largest_remainder_round, largest_remainder_round_into};
pub use stage::{Stage, StageKind};
