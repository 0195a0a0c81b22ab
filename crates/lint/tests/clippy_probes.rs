//! Probes for the bans in the root `clippy.toml` (DESIGN.md §10.1).
//!
//! Each test below makes one banned call under
//! `#[expect(clippy::…, reason = "probe")]`. Clippy reports an `#[expect]`
//! whose lint never fires as `unfulfilled_lint_expectations`, which CI's
//! `cargo clippy --workspace --all-targets -- -D warnings` turns into an
//! error. So deleting a `clippy.toml` entry that a probe covers fails the
//! clippy step, not just review. Under plain `cargo test` the probes are
//! ordinary tests: each call is harmless here.
//!
//! There is no probe for the crate-level `#![warn(clippy::unwrap_used, …)]`
//! in the sim-facing crates, nor for `iter_over_hash_type` in the root
//! `Cargo.toml`. Those are restriction lints, and an `#[expect]` on a
//! restriction lint turns that lint on where it stands, so such a probe
//! would pass with the crate or workspace setting deleted and prove
//! nothing about it.

use std::collections::{HashMap, HashSet};

#[test]
#[expect(clippy::disallowed_methods, reason = "probe")]
fn instant_now_is_banned() {
    let _ = std::time::Instant::now();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "probe")]
fn system_time_now_is_banned() {
    let _ = std::time::SystemTime::now();
}

#[test]
#[expect(clippy::disallowed_methods, reason = "probe")]
fn hash_map_values_is_banned() {
    let m: HashMap<u32, u32> = HashMap::from([(1, 2)]);
    assert_eq!(m.values().next(), Some(&2));
}

#[test]
#[expect(clippy::disallowed_methods, reason = "probe")]
fn hash_set_iter_is_banned() {
    let s: HashSet<u32> = HashSet::from([1]);
    assert_eq!(s.iter().next(), Some(&1));
}

#[test]
#[expect(clippy::disallowed_types, reason = "probe")]
fn random_state_is_banned() {
    let _ = std::hash::RandomState::new();
}
