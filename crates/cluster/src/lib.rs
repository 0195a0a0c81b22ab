//! Geo-distributed cluster model for wide-area data analytics.
//!
//! This crate models the substrate the Tetrium paper schedules over
//! (§2.1 of the paper): a set of *sites* (datacenters or edge clusters), each
//! with a number of compute slots and uplink/downlink WAN capacities, plus
//! per-site data distributions for job inputs. Sites are connected through a
//! congestion-free core, so a transfer is constrained only by the sender's
//! uplink and the receiver's downlink — the same assumption as the paper and
//! Iridium before it.
//!
//! It also provides the heterogeneity samplers used to regenerate the
//! capacity CDFs of Figure 2 (compute spread of ~200×, bandwidth spread of
//! ~18×) and the cluster presets used throughout the evaluation (the 8-region
//! EC2 deployment, the 30-instance deployment, and the 50-site trace-driven
//! configuration).
//!
//! Units across the whole workspace: data volumes in **GB**, bandwidth in
//! **GB/s**, time in **seconds**.

mod data;
mod dynamics;
mod hetero;
mod presets;
mod site;
mod topology;

pub use data::DataDistribution;
pub use dynamics::{DynamicsChange, DynamicsEvent, DynamicsTimeline};
pub use hetero::{sample_bandwidth_spread, sample_compute_spread, HeterogeneityProfile};
pub use presets::{ec2_eight_regions, ec2_thirty_instances, trace_fifty_sites, zipf_cluster};
pub use site::{Site, SiteId};
pub use topology::Cluster;
