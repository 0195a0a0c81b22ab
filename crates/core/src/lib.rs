//! Tetrium: multi-resource task placement and job scheduling for
//! geo-distributed data analytics (EuroSys '18).
//!
//! This crate is the paper's primary contribution, rebuilt from the
//! formulations of §3 and §4:
//!
//! - [`map_placement`]: the map-stage linear program (§3.1) deciding what
//!   fraction of a stage's tasks runs at site `y` while reading from site
//!   `x`, jointly minimizing aggregation time and multi-wave compute time;
//! - [`reduce_placement`]: the reduce-stage linear program (§3.2) choosing
//!   per-site task fractions to minimize shuffle plus compute time;
//! - [`ordering`]: intra-stage task ordering (§3.3) — remote-first with
//!   source spreading for map stages, longest-transfer-first for reduce
//!   stages — plus the baseline orderings of Fig 9;
//! - [`wan`]: the WAN-usage budget knob `ρ` (§4.3);
//! - [`reverse`]: the reverse (reduce-first) stage planner of §3.4 and the
//!   best-of-forward/reverse selector;
//! - [`dynamics`]: the `k`-site limited re-assignment heuristic reacting to
//!   capacity drops (§4.2);
//! - [`plan_cache`]: template-keyed placement caching across scheduling
//!   instances, exploiting the recurring nature of the target workloads
//!   (§2);
//! - [`scheduler`]: [`TetriumScheduler`], the SRPT-based multi-job scheduler
//!   (§4.1) with the fairness knob `ε` (§4.4), packaged as a
//!   [`tetrium_sim::Scheduler`];
//! - [`replicas`]: the multi-replica input selection extension sketched in
//!   §8, as a pre-pass feeding the unchanged map LP;
//! - [`analytic`]: closed-form stage-duration evaluation used to reproduce
//!   the paper's worked example (Fig 3/4) and to rank jobs by remaining
//!   time.

// Index-based loops over site matrices are clearer than iterator chains in
// the placement math; silence the pedantic lint crate-wide.
#![allow(clippy::needless_range_loop)]

pub mod analytic;
pub mod dynamics;
pub mod estimate;
pub mod map_placement;
pub mod ordering;
pub mod plan_cache;
pub mod reduce_placement;
pub mod replicas;
pub mod reverse;
pub mod scheduler;
pub mod wan;

pub use analytic::{evaluate_map_counts, evaluate_reduce_counts, StageTimes};
pub use estimate::{estimate_job, JobEstimate};
pub use map_placement::{solve_map_placement, MapPlacement, MapProblem};
pub use ordering::{MapOrdering, ReduceOrdering};
pub use plan_cache::{CacheStats, PlanCacheMode, TemplateCache};
pub use reduce_placement::{solve_reduce_placement, ReducePlacement, ReduceProblem};
pub use replicas::{replicated_input, select_replicas, ReplicatedPartition};
pub use scheduler::{JobPolicy, PlacementPolicy, StagePlanning, TetriumConfig, TetriumScheduler};
pub use wan::{wan_budget, WanKnob};
