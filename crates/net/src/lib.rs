//! Flow-level WAN model with max-min fair bandwidth sharing.
//!
//! The paper assumes sites connected by a congestion-free core (§2.1,
//! validated by measurement studies), so a wide-area transfer is constrained
//! only by the sender's uplink and the receiver's downlink. Tetrium's
//! prototype further assumes "available bandwidth is fairly shared among all
//! concurrent flows at a site" (§5). This crate implements exactly that
//! model:
//!
//! - [`max_min_rates`] computes the max-min fair allocation for a set of
//!   flows over per-site uplink/downlink capacities (progressive filling),
//! - [`FlowSim`] is the fluid-flow simulator used by the execution engine:
//!   flows are added/removed over time, rates are re-derived whenever the
//!   flow set or capacities change, and the next flow completion is exposed
//!   as the engine's next network event.

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

mod flowsim;
mod maxmin;

pub use flowsim::{FlowKey, FlowSim};
pub use maxmin::{max_min_rates, waterfill_groups, FlowSpec, GroupSpec, Waterfiller};
