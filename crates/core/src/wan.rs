//! The WAN-usage budget knob `ρ` (§4.3).
//!
//! At each scheduling instance Tetrium computes, per job, a budget
//! `W_j = W_min + ρ (W_max - W_min)`. With `ρ → 1` placement is fully geared
//! toward response time; with `ρ → 0` WAN usage is minimized. `W_max` is the
//! stage's input volume (a stage can move at most its input), `W_min` is 0
//! for map stages (leave everything in place) and the solution of the LP of
//! Eqs. 11–13 for reduce stages, which has the closed form
//! `ΣI_x - max_x I_x` (place every reduce task at the site holding the most
//! data).

use tetrium_lp::{Problem, Relation};

/// The `ρ` knob, clamped to `[0, 1]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WanKnob(f64);

impl WanKnob {
    /// Creates a knob value, clamping into `[0, 1]`; `None` for a
    /// non-finite `rho` (`clamp` keeps a NaN, which would zero every map
    /// WAN budget).
    pub fn new(rho: f64) -> Option<Self> {
        rho.is_finite().then(|| Self(rho.clamp(0.0, 1.0)))
    }

    /// The knob value.
    pub fn rho(self) -> f64 {
        self.0
    }

    /// Whether the budget constraint can be skipped entirely (`ρ = 1`
    /// budgets the full `W_max`, which never binds).
    pub fn is_unbounded(self) -> bool {
        self.0 >= 1.0
    }
}

impl Default for WanKnob {
    fn default() -> Self {
        Self(1.0)
    }
}

/// Interpolates the per-job budget `W = W_min + ρ (W_max - W_min)`.
pub fn wan_budget(knob: WanKnob, w_min: f64, w_max: f64) -> f64 {
    debug_assert!(w_min <= w_max + 1e-9);
    w_min + knob.rho() * (w_max - w_min).max(0.0)
}

/// Minimum WAN usage of a reduce stage over `shuffle_gb` (closed form of
/// the LP in Eqs. 11–13): keep the largest site's data local.
pub fn reduce_min_wan(shuffle_gb: &[f64]) -> f64 {
    let total: f64 = shuffle_gb.iter().sum();
    let max = shuffle_gb.iter().copied().fold(0.0f64, f64::max);
    (total - max).max(0.0)
}

/// Solves the paper's `W_min` LP (Eqs. 11–13) directly; exists to validate
/// the closed form and for documentation parity with the paper.
pub fn reduce_min_wan_lp(shuffle_gb: &[f64]) -> f64 {
    let n = shuffle_gb.len();
    if n == 0 {
        return 0.0;
    }
    // Variables: r_x. Minimize sum_x I_x (1 - r_x) = total - sum I_x r_x,
    // i.e. maximize sum I_x r_x subject to sum r = 1, r in [0, 1].
    let mut lp = Problem::maximize(n);
    let terms: Vec<(usize, f64)> = (0..n).map(|x| (x, shuffle_gb[x])).collect();
    lp.set_objective(&terms);
    let ones: Vec<(usize, f64)> = (0..n).map(|x| (x, 1.0)).collect();
    lp.add_constraint(&ones, Relation::Eq, 1.0);
    let total: f64 = shuffle_gb.iter().sum();
    total - lp.solve().map(|s| s.objective).unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn knob_clamps() {
        assert_eq!(WanKnob::new(2.0).unwrap().rho(), 1.0);
        assert_eq!(WanKnob::new(-1.0).unwrap().rho(), 0.0);
        assert!(WanKnob::new(1.0).unwrap().is_unbounded());
        assert!(!WanKnob::new(0.99).unwrap().is_unbounded());
    }

    #[test]
    fn knob_rejects_non_finite_rho() {
        for rho in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY] {
            assert_eq!(WanKnob::new(rho), None, "{rho}");
        }
    }

    #[test]
    fn budget_interpolates() {
        let w0 = wan_budget(WanKnob::new(0.0).unwrap(), 10.0, 50.0);
        let whalf = wan_budget(WanKnob::new(0.5).unwrap(), 10.0, 50.0);
        let w1 = wan_budget(WanKnob::new(1.0).unwrap(), 10.0, 50.0);
        assert_eq!(w0, 10.0);
        assert_eq!(whalf, 30.0);
        assert_eq!(w1, 50.0);
    }

    #[test]
    fn closed_form_matches_lp() {
        for gb in [
            vec![10.0, 15.0, 25.0],
            vec![1.0],
            vec![0.0, 0.0],
            vec![5.0, 5.0, 5.0, 100.0],
        ] {
            let cf = reduce_min_wan(&gb);
            let lp = reduce_min_wan_lp(&gb);
            assert!((cf - lp).abs() < 1e-6, "{gb:?}: {cf} vs {lp}");
        }
    }

    #[test]
    fn fig4_reduce_min_is_25() {
        assert_eq!(reduce_min_wan(&[10.0, 15.0, 25.0]), 25.0);
    }
}
