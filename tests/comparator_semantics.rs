//! Regression pin for the workspace-wide `partial_cmp().unwrap()` →
//! `f64::total_cmp` conversion (the `partial_cmp` ban in clippy.toml): on
//! the NaN-free inputs the simulator produces, the two comparators induce
//! identical sort orders, so swapping them cannot move any figure output. The one documented
//! divergence is mixed-sign zeros (`total_cmp` orders `-0.0 < 0.0`, while
//! `partial_cmp` calls them equal); there the orders are still numerically
//! identical.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

#[expect(
    clippy::disallowed_methods,
    reason = "this test exists to compare the two comparators"
)]
fn sort_both_ways(vals: &[f64]) -> (Vec<f64>, Vec<f64>) {
    let mut by_total = vals.to_vec();
    by_total.sort_by(|a, b| a.total_cmp(b));
    let mut by_partial = vals.to_vec();
    by_partial.sort_by(|a, b| a.partial_cmp(b).unwrap());
    (by_total, by_partial)
}

#[test]
fn total_cmp_matches_partial_cmp_on_nan_free_inputs() {
    let mut rng = StdRng::seed_from_u64(7);
    for case in 0..200 {
        let n = 1 + case % 64;
        let vals: Vec<f64> = (0..n)
            .map(|_| {
                // The magnitudes ledger quantities actually take: bytes,
                // rates, seconds — spread over many decades, plus exact
                // integers and subnormal-adjacent tinies.
                let exp: i32 = rng.gen_range(-12..12);
                let mantissa: f64 = rng.gen_range(-10.0..10.0);
                mantissa * 10f64.powi(exp)
            })
            .collect();
        let (by_total, by_partial) = sort_both_ways(&vals);
        // Bit-exact: same values must land in the same slots.
        for (a, b) in by_total.iter().zip(&by_partial) {
            assert_eq!(a.to_bits(), b.to_bits(), "case {case}: order diverged");
        }
    }
}

#[test]
fn total_cmp_matches_partial_cmp_on_edge_values() {
    let vals = [
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MAX,
        f64::MIN,
        f64::MIN_POSITIVE,
        f64::EPSILON,
        1.0,
        -1.0,
        0.0,
        1e308,
        -1e308,
        5e-324, // smallest subnormal
    ];
    let (by_total, by_partial) = sort_both_ways(&vals);
    for (a, b) in by_total.iter().zip(&by_partial) {
        assert_eq!(a.to_bits(), b.to_bits());
    }
}

/// Mixed-sign zeros: the only NaN-free case where the comparators differ.
/// `total_cmp` deterministically puts `-0.0` first; numerically the sorted
/// sequences are identical, so no downstream arithmetic can change.
#[test]
fn mixed_zeros_stay_numerically_identical() {
    let vals = [0.0, -0.0, 1.0, -1.0, -0.0, 0.0];
    let (by_total, by_partial) = sort_both_ways(&vals);
    for (a, b) in by_total.iter().zip(&by_partial) {
        assert_eq!(a, b, "numeric order must match");
    }
    // And total_cmp's zero placement is itself deterministic.
    assert_eq!(by_total[1].to_bits(), (-0.0f64).to_bits());
    assert_eq!(by_total[2].to_bits(), (-0.0f64).to_bits());
}
