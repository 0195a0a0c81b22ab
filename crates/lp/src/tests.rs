//! Unit and property tests for the simplex solver.

use crate::{LpError, Problem, Relation};
use proptest::prelude::*;

fn assert_close(a: f64, b: f64) {
    assert!(
        (a - b).abs() < 1e-6 * (1.0 + a.abs().max(b.abs())),
        "expected {a} ~ {b}"
    );
}

#[test]
fn trivial_unconstrained_min_is_zero() {
    let mut p = Problem::minimize(3);
    p.set_objective(&[(0, 1.0), (1, 2.0), (2, 3.0)]);
    let sol = p.solve().unwrap();
    assert_close(sol.objective, 0.0);
    assert!(sol.values.iter().all(|&v| v.abs() < 1e-9));
}

#[test]
fn basic_two_var_minimization() {
    // min x + 2y s.t. x + y >= 4, y <= 3.
    let mut p = Problem::minimize(2);
    p.set_objective(&[(0, 1.0), (1, 2.0)]);
    p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 4.0);
    p.add_constraint(&[(1, 1.0)], Relation::Le, 3.0);
    let sol = p.solve().unwrap();
    assert_close(sol.objective, 4.0);
    assert_close(sol.values[0], 4.0);
    assert_close(sol.values[1], 0.0);
}

#[test]
fn basic_maximization() {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18 (classic Dantzig).
    let mut p = Problem::maximize(2);
    p.set_objective(&[(0, 3.0), (1, 5.0)]);
    p.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
    p.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
    p.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
    let sol = p.solve().unwrap();
    assert_close(sol.objective, 36.0);
    assert_close(sol.values[0], 2.0);
    assert_close(sol.values[1], 6.0);
}

#[test]
fn equality_constraints() {
    // min x + y s.t. x + 2y = 6, x - y = 0 -> x = y = 2.
    let mut p = Problem::minimize(2);
    p.set_objective(&[(0, 1.0), (1, 1.0)]);
    p.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Eq, 6.0);
    p.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 0.0);
    let sol = p.solve().unwrap();
    assert_close(sol.values[0], 2.0);
    assert_close(sol.values[1], 2.0);
    assert_close(sol.objective, 4.0);
}

#[test]
fn negative_rhs_is_normalized() {
    // x - y <= -2 with min x means y >= x + 2; optimum x = 0 (y = 2 free in
    // objective).
    let mut p = Problem::minimize(2);
    p.set_objective(&[(0, 1.0)]);
    p.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Le, -2.0);
    let sol = p.solve().unwrap();
    assert_close(sol.objective, 0.0);
    assert!(sol.values[1] >= 2.0 - 1e-9);
}

#[test]
fn detects_infeasible() {
    let mut p = Problem::minimize(1);
    p.set_objective(&[(0, 1.0)]);
    p.add_constraint(&[(0, 1.0)], Relation::Ge, 5.0);
    p.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
    assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
}

#[test]
fn detects_unbounded() {
    let mut p = Problem::maximize(1);
    p.set_objective(&[(0, 1.0)]);
    p.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
    assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
}

#[test]
fn redundant_equalities_do_not_break_phase1() {
    // Duplicated equality rows are redundant; phase 1 must drop them.
    let mut p = Problem::minimize(2);
    p.set_objective(&[(0, 1.0), (1, 1.0)]);
    p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 3.0);
    p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 3.0);
    p.add_constraint(&[(0, 2.0), (1, 2.0)], Relation::Eq, 6.0);
    let sol = p.solve().unwrap();
    assert_close(sol.objective, 3.0);
}

#[test]
fn degenerate_instance_terminates() {
    // Classic cycling-prone instance (Beale); Bland's rule must terminate.
    let mut p = Problem::minimize(4);
    p.set_objective(&[(0, -0.75), (1, 150.0), (2, -0.02), (3, 6.0)]);
    p.add_constraint(
        &[(0, 0.25), (1, -60.0), (2, -0.04), (3, 9.0)],
        Relation::Le,
        0.0,
    );
    p.add_constraint(
        &[(0, 0.5), (1, -90.0), (2, -0.02), (3, 3.0)],
        Relation::Le,
        0.0,
    );
    p.add_constraint(&[(2, 1.0)], Relation::Le, 1.0);
    let sol = p.solve().unwrap();
    assert_close(sol.objective, -0.05);
}

#[test]
fn tetrium_shaped_lp_solves() {
    // A miniature reduce-placement LP: min T_s + T_r over r_x fractions.
    // 3 sites, shuffle data I = [10, 15, 25] GB, up/down bw and slots as in
    // the paper's Figure 4.
    let i = [10.0, 15.0, 25.0];
    let up = [5.0, 1.0, 2.0];
    let down = [5.0, 1.0, 5.0];
    let slots = [40.0, 10.0, 20.0];
    let n_red = 500.0;
    let t_red = 1.0;
    let total: f64 = i.iter().sum();
    // Vars: r0, r1, r2, Tshufl (3), Tred (4).
    let mut p = Problem::minimize(5);
    p.set_objective(&[(3, 1.0), (4, 1.0)]);
    for x in 0..3 {
        // Upload: I_x (1 - r_x) / up_x <= Tshufl.
        p.add_constraint(
            &[(x, -i[x] / up[x]), (3, -1.0)],
            Relation::Le,
            -i[x] / up[x],
        );
        // Download: (total - I_x) r_x / down_x <= Tshufl.
        p.add_constraint(
            &[(x, (total - i[x]) / down[x]), (3, -1.0)],
            Relation::Le,
            0.0,
        );
        // Compute: t_red * n_red * r_x / S_x <= Tred.
        p.add_constraint(
            &[(x, t_red * n_red / slots[x]), (4, -1.0)],
            Relation::Le,
            0.0,
        );
    }
    p.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Eq, 1.0);
    let sol = p.solve().unwrap();
    let r: f64 = sol.values[..3].iter().sum();
    assert_close(r, 1.0);
    assert!(sol.objective > 0.0 && sol.objective < 60.0);
}

#[test]
fn duals_match_the_textbook_instance() {
    // max 3x + 5y s.t. x <= 4, 2y <= 12, 3x + 2y <= 18: the classic duals
    // are (0, 3/2, 1).
    let mut p = Problem::maximize(2);
    p.set_objective(&[(0, 3.0), (1, 5.0)]);
    p.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
    p.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
    p.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
    let sol = p.solve().unwrap();
    assert_close(sol.duals[0], 0.0);
    assert_close(sol.duals[1], 1.5);
    assert_close(sol.duals[2], 1.0);
}

#[test]
fn duals_predict_rhs_perturbation() {
    // min x + 2y s.t. x + y >= 4, y <= 3: binding constraint is the first.
    let solve = |rhs: f64| {
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, 1.0), (1, 2.0)]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, rhs);
        p.add_constraint(&[(1, 1.0)], Relation::Le, 3.0);
        p.solve().unwrap()
    };
    let base = solve(4.0);
    let bumped = solve(5.0);
    // dObj/dRhs of the >= constraint equals its dual.
    assert_close(bumped.objective - base.objective, base.duals[0]);
    assert_close(base.duals[1], 0.0); // Non-binding.
}

#[test]
fn equality_duals_are_reported() {
    // min x + y s.t. x + 2y = 6 (binding): raising rhs by 1 adds 0.5
    // (x stays 0, y = rhs/2).
    let solve = |rhs: f64| {
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, 1.0), (1, 1.0)]);
        p.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Eq, rhs);
        p.solve().unwrap()
    };
    let base = solve(6.0);
    let bumped = solve(8.0);
    assert_close(base.duals[0], 0.5);
    assert_close(bumped.objective - base.objective, 2.0 * base.duals[0]);
}

#[test]
fn strong_duality_holds_on_random_bounded_instances() {
    // b^T y == c^T x at the optimum (strong duality), checked on a fixed
    // set of feasible bounded minimization instances.
    use rand::{Rng, SeedableRng};
    let mut rng = rand::rngs::StdRng::seed_from_u64(77);
    for _ in 0..40 {
        let n = rng.gen_range(2..4);
        let mut p = Problem::minimize(n);
        let obj: Vec<(usize, f64)> = (0..n).map(|i| (i, rng.gen_range(0.1..5.0))).collect();
        p.set_objective(&obj);
        let mut rhs_list = Vec::new();
        for _ in 0..rng.gen_range(1..4) {
            let terms: Vec<(usize, f64)> = (0..n).map(|i| (i, rng.gen_range(0.1..4.0))).collect();
            let rhs = rng.gen_range(1.0..10.0);
            p.add_constraint(&terms, Relation::Ge, rhs);
            rhs_list.push(rhs);
        }
        let sol = p.solve().unwrap();
        let dual_obj: f64 = sol.duals.iter().zip(&rhs_list).map(|(y, b)| y * b).sum();
        assert!(
            (dual_obj - sol.objective).abs() < 1e-6 * (1.0 + sol.objective.abs()),
            "strong duality violated: {dual_obj} vs {}",
            sol.objective
        );
    }
}

#[test]
fn zero_variable_problem_is_trivially_optimal() {
    let p = Problem::minimize(0);
    let sol = p.solve().unwrap();
    assert!(sol.values.is_empty());
    assert_eq!(sol.objective, 0.0);
}

#[test]
fn pivot_counts_are_reported() {
    let mut p = Problem::maximize(2);
    p.set_objective(&[(0, 3.0), (1, 5.0)]);
    p.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
    p.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
    p.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, 18.0);
    let sol = p.solve().unwrap();
    assert!(sol.pivots >= 2, "needed pivots to reach (2, 6)");
}

#[test]
fn wildly_scaled_coefficients_still_solve() {
    // Bandwidths in GB/s (1e-2) against volumes in GB (1e2): the row
    // rescaling must keep the tolerance meaningful.
    let mut p = Problem::minimize(2);
    p.set_objective(&[(0, 1.0), (1, 1.0)]);
    p.add_constraint(&[(0, 1e-4), (1, 1e4)], Relation::Ge, 1.0);
    p.add_constraint(&[(0, 1.0)], Relation::Le, 1e6);
    let sol = p.solve().unwrap();
    // Optimal: use the 1e4 coefficient: y = 1e-4, objective 1e-4.
    assert!((sol.objective - 1e-4).abs() < 1e-9);
}

#[test]
fn equality_with_zero_rhs_handles_degeneracy() {
    // x - y = 0, x + y >= 2, min x -> x = y = 1.
    let mut p = Problem::minimize(2);
    p.set_objective(&[(0, 1.0)]);
    p.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 0.0);
    p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 2.0);
    let sol = p.solve().unwrap();
    assert_close(sol.values[0], 1.0);
    assert_close(sol.values[1], 1.0);
}

/// The miniature reduce-placement LP used by the warm-start tests: 3 sites,
/// shuffle volumes `i`, fixed bandwidths and slots.
fn reduce_shaped_lp(i: [f64; 3]) -> Problem {
    let up = [5.0, 1.0, 2.0];
    let down = [5.0, 1.0, 5.0];
    let slots = [40.0, 10.0, 20.0];
    let total: f64 = i.iter().sum();
    let mut p = Problem::minimize(5);
    p.set_objective(&[(3, 1.0), (4, 1.0)]);
    for x in 0..3 {
        p.add_constraint(
            &[(x, -i[x] / up[x]), (3, -1.0)],
            Relation::Le,
            -i[x] / up[x],
        );
        p.add_constraint(
            &[(x, (total - i[x]) / down[x]), (3, -1.0)],
            Relation::Le,
            0.0,
        );
        p.add_constraint(&[(x, 500.0 / slots[x]), (4, -1.0)], Relation::Le, 0.0);
    }
    p.add_constraint(&[(0, 1.0), (1, 1.0), (2, 1.0)], Relation::Eq, 1.0);
    p
}

#[test]
fn warm_start_matches_cold_bit_exact_on_drifted_data() {
    // Solve a placement-shaped LP, drift the data distribution (as the
    // recurring workload does between instances), and re-solve both cold
    // and warm from the first solve's basis: both must land on the same
    // optimal basis and return bit-identical values, objective and duals.
    let base = reduce_shaped_lp([10.0, 15.0, 25.0]).solve().unwrap();
    assert!(!base.warm_started);
    let drifted = reduce_shaped_lp([11.0, 14.5, 24.5]);
    let cold = drifted.solve().unwrap();
    let warm = drifted.solve_from_basis(&base.basis).unwrap();
    assert!(warm.warm_started, "drifted basis should stay feasible");
    assert_eq!(warm.values, cold.values);
    assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
    assert_eq!(warm.duals, cold.duals);
    assert_eq!(warm.basis, cold.basis);
}

#[test]
fn warm_start_identical_problem_needs_no_pivots() {
    let p = reduce_shaped_lp([10.0, 15.0, 25.0]);
    let base = p.solve().unwrap();
    let warm = p.solve_from_basis(&base.basis).unwrap();
    assert!(warm.warm_started);
    // Pivot-into-basis work only; no simplex iterations were needed, so the
    // count stays at the basis-establishment pivots (= number of rows).
    assert!(warm.pivots <= p.num_constraints());
    assert_eq!(warm.values, base.values);
    assert_eq!(warm.objective.to_bits(), base.objective.to_bits());
}

#[test]
fn warm_start_falls_back_on_shape_mismatch() {
    // A basis from a structurally different problem must be rejected and
    // the solve must silently take the cold path.
    let mut other = Problem::minimize(2);
    other.set_objective(&[(0, 1.0), (1, 2.0)]);
    other.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 4.0);
    other.add_constraint(&[(1, 1.0)], Relation::Le, 3.0);
    let foreign = other.solve().unwrap();
    assert!(!foreign.basis.compatible_with(5, &[]));

    let p = reduce_shaped_lp([10.0, 15.0, 25.0]);
    let cold = p.solve().unwrap();
    let warm = p.solve_from_basis(&foreign.basis).unwrap();
    assert!(!warm.warm_started);
    assert_eq!(warm.values, cold.values);
    assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
}

#[test]
fn warm_start_falls_back_when_stored_basis_goes_infeasible() {
    // min x s.t. x >= rhs: at rhs = 5 the optimal basis has x basic; at
    // rhs = -5 (normalized to x <= 5 after the sign flip... relation changes)
    // the stored basis shape no longer matches; and for a same-shape change
    // the vertex may go infeasible. Use a two-constraint instance where the
    // old basis becomes primal-infeasible.
    let solve_at = |cap: f64| {
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, 1.0), (1, 3.0)]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 4.0);
        p.add_constraint(&[(0, 1.0)], Relation::Le, cap);
        p
    };
    let base = solve_at(10.0).solve().unwrap(); // x = 4 basic, slack of cap row basic.
    let tight = solve_at(1.0); // Old vertex x = 4 violates x <= 1.
    let cold = tight.solve().unwrap();
    let warm = tight.solve_from_basis(&base.basis).unwrap();
    assert!(!warm.warm_started, "infeasible stored basis must fall back");
    assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
    assert_close(warm.values[0], 1.0);
    assert_close(warm.values[1], 3.0);
}

#[test]
fn warm_start_still_detects_infeasible_problems() {
    let feasible = {
        let mut p = Problem::minimize(1);
        p.set_objective(&[(0, 1.0)]);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 1.0);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
        p
    };
    let base = feasible.solve().unwrap();
    let mut contradictory = Problem::minimize(1);
    contradictory.set_objective(&[(0, 1.0)]);
    contradictory.add_constraint(&[(0, 1.0)], Relation::Ge, 5.0);
    contradictory.add_constraint(&[(0, 1.0)], Relation::Le, 2.0);
    assert_eq!(
        contradictory.solve_from_basis(&base.basis).unwrap_err(),
        LpError::Infeasible
    );
}

#[test]
fn warm_start_max_sense_flips_like_cold() {
    let build = |cap: f64| {
        let mut p = Problem::maximize(2);
        p.set_objective(&[(0, 3.0), (1, 5.0)]);
        p.add_constraint(&[(0, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(1, 2.0)], Relation::Le, 12.0);
        p.add_constraint(&[(0, 3.0), (1, 2.0)], Relation::Le, cap);
        p
    };
    let base = build(18.0).solve().unwrap();
    let drifted = build(18.5);
    let cold = drifted.solve().unwrap();
    let warm = drifted.solve_from_basis(&base.basis).unwrap();
    assert!(warm.warm_started);
    assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
    assert_eq!(warm.duals, cold.duals);
}

/// Brute-force reference: enumerate all basic solutions (vertices) of a small
/// LP by solving every square subsystem of active constraints, keep feasible
/// ones, and return the best objective.
fn brute_force_min(
    num_vars: usize,
    objective: &[f64],
    cons: &[(Vec<f64>, Relation, f64)],
) -> Option<f64> {
    // Build the full list of hyperplanes: constraints plus x_i = 0 bounds.
    let mut planes: Vec<(Vec<f64>, f64)> = Vec::new();
    for (coef, _, rhs) in cons {
        planes.push((coef.clone(), *rhs));
    }
    for i in 0..num_vars {
        let mut c = vec![0.0; num_vars];
        c[i] = 1.0;
        planes.push((c, 0.0));
    }
    let feasible = |x: &[f64]| -> bool {
        x.iter().all(|&v| v >= -1e-7)
            && cons.iter().all(|(coef, rel, rhs)| {
                let lhs: f64 = coef.iter().zip(x).map(|(a, b)| a * b).sum();
                match rel {
                    Relation::Le => lhs <= rhs + 1e-7,
                    Relation::Ge => lhs >= rhs - 1e-7,
                    Relation::Eq => (lhs - rhs).abs() <= 1e-7,
                }
            })
    };
    let mut best: Option<f64> = None;
    let k = planes.len();
    let mut idx: Vec<usize> = (0..num_vars).collect();
    // Enumerate combinations of `num_vars` planes via odometer.
    loop {
        // Solve the square system via Gaussian elimination.
        let n = num_vars;
        let mut m = vec![0.0; n * (n + 1)];
        for (r, &pi) in idx.iter().enumerate() {
            for c in 0..n {
                m[r * (n + 1) + c] = planes[pi].0[c];
            }
            m[r * (n + 1) + n] = planes[pi].1;
        }
        let mut ok = true;
        for col in 0..n {
            let mut piv = col;
            for r in col..n {
                if m[r * (n + 1) + col].abs() > m[piv * (n + 1) + col].abs() {
                    piv = r;
                }
            }
            if m[piv * (n + 1) + col].abs() < 1e-9 {
                ok = false;
                break;
            }
            for c in 0..=n {
                m.swap(col * (n + 1) + c, piv * (n + 1) + c);
            }
            let d = m[col * (n + 1) + col];
            for c in 0..=n {
                m[col * (n + 1) + c] /= d;
            }
            for r in 0..n {
                if r != col {
                    let f = m[r * (n + 1) + col];
                    for c in 0..=n {
                        m[r * (n + 1) + c] -= f * m[col * (n + 1) + c];
                    }
                }
            }
        }
        if ok {
            let x: Vec<f64> = (0..n).map(|r| m[r * (n + 1) + n]).collect();
            if x.iter().all(|v| v.is_finite()) && feasible(&x) {
                let obj: f64 = objective.iter().zip(&x).map(|(a, b)| a * b).sum();
                best = Some(best.map_or(obj, |b: f64| b.min(obj)));
            }
        }
        // Advance the combination odometer.
        let mut i = num_vars;
        loop {
            if i == 0 {
                return best;
            }
            i -= 1;
            if idx[i] < k - (num_vars - i) {
                idx[i] += 1;
                for j in i + 1..num_vars {
                    idx[j] = idx[j - 1] + 1;
                }
                break;
            }
        }
    }
}

/// Solves `p` with both backends and asserts they agree: the same error
/// kind, or bit-identical objective and values. Returns the sparse result.
#[cfg(not(miri))]
fn solve_both(p: &Problem) -> Result<Result<crate::Solution, LpError>, TestCaseError> {
    let sparse = p.solve();
    match (&sparse, p.solve_dense()) {
        (Ok(s), Ok(d)) => {
            assert_eq!(
                s.objective.to_bits(),
                d.objective.to_bits(),
                "objective: sparse {} vs dense {}",
                s.objective,
                d.objective
            );
            for (i, (sv, dv)) in s.values.iter().zip(&d.values).enumerate() {
                assert_eq!(
                    sv.to_bits(),
                    dv.to_bits(),
                    "value {i}: sparse {sv} vs dense {dv}"
                );
            }
        }
        (Err(se), Err(de)) => assert_eq!(*se, de),
        (s, d) => {
            return Err(TestCaseError::fail(format!(
                "outcome mismatch: sparse {s:?} vs dense {d:?}"
            )));
        }
    }
    Ok(sparse)
}

// The 256-case property sweep is far too slow under Miri's interpreter
// (CI's miri job runs the deterministic unit tests above instead).
#[cfg(not(miri))]
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// On random bounded-feasible 2-3 variable LPs, simplex matches the
    /// brute-force vertex optimum and returns a feasible point.
    #[test]
    fn simplex_matches_vertex_enumeration(
        num_vars in 2usize..4,
        seed_cons in proptest::collection::vec(
            (proptest::collection::vec(-4i32..5, 3), 0u8..2, 1i32..20),
            1..5,
        ),
        obj in proptest::collection::vec(-5i32..6, 3),
    ) {
        // Always add a box constraint so the LP is bounded.
        let mut cons: Vec<(Vec<f64>, Relation, f64)> = vec![
            ((0..num_vars).map(|_| 1.0).collect(), Relation::Le, 50.0),
        ];
        for (coef, rel, rhs) in &seed_cons {
            let c: Vec<f64> = coef.iter().take(num_vars).map(|&v| v as f64).collect();
            let rel = if *rel == 0 { Relation::Le } else { Relation::Ge };
            cons.push((c, rel, *rhs as f64));
        }
        let objective: Vec<f64> = obj.iter().take(num_vars).map(|&v| v as f64).collect();

        let mut p = Problem::minimize(num_vars);
        let terms: Vec<(usize, f64)> =
            objective.iter().enumerate().map(|(i, &c)| (i, c)).collect();
        p.set_objective(&terms);
        for (coef, rel, rhs) in &cons {
            let terms: Vec<(usize, f64)> =
                coef.iter().enumerate().map(|(i, &c)| (i, c)).collect();
            p.add_constraint(&terms, *rel, *rhs);
        }

        let reference = brute_force_min(num_vars, &objective, &cons);
        match p.solve() {
            Ok(sol) => {
                let r = reference.expect("simplex found a solution but brute force found none");
                prop_assert!(
                    (sol.objective - r).abs() < 1e-5 * (1.0 + r.abs()),
                    "simplex {} vs reference {}", sol.objective, r
                );
                // Returned point must be feasible.
                for (coef, rel, rhs) in &cons {
                    let lhs: f64 = coef.iter().zip(&sol.values).map(|(a, b)| a * b).sum();
                    match rel {
                        Relation::Le => prop_assert!(lhs <= rhs + 1e-6),
                        Relation::Ge => prop_assert!(lhs >= rhs - 1e-6),
                        Relation::Eq => prop_assert!((lhs - rhs).abs() <= 1e-6),
                    }
                }
                for v in &sol.values {
                    prop_assert!(*v >= -1e-9);
                }
            }
            Err(LpError::Infeasible) => {
                prop_assert!(reference.is_none(), "simplex says infeasible, reference found {reference:?}");
            }
            Err(e) => return Err(TestCaseError::fail(format!("unexpected error {e:?}"))),
        }
    }

    /// Perturbing a binding constraint's RHS by a small δ moves the optimal
    /// objective by ≈ dual·δ (the defining property of shadow prices; the
    /// warm-start path re-uses duals on this assumption). Because duals are
    /// subgradients of the convex value function, the exact statement is a
    /// bracket: the change lies between base-dual·δ and bumped-dual·δ.
    #[test]
    fn duals_predict_binding_rhs_perturbation(
        seed_cons in proptest::collection::vec(
            (proptest::collection::vec(1i32..5, 3), 2i32..20),
            1..4,
        ),
        obj in proptest::collection::vec(1i32..6, 3),
        delta_mil in 1i32..50,
    ) {
        // Feasible bounded min instances: positive costs, >= constraints.
        let num_vars = 3;
        let build = |bump: Option<(usize, f64)>| {
            let mut p = Problem::minimize(num_vars);
            let terms: Vec<(usize, f64)> =
                obj.iter().enumerate().map(|(i, &c)| (i, c as f64)).collect();
            p.set_objective(&terms);
            for (ci, (coef, rhs)) in seed_cons.iter().enumerate() {
                let terms: Vec<(usize, f64)> =
                    coef.iter().enumerate().map(|(i, &c)| (i, c as f64)).collect();
                let mut rhs = *rhs as f64;
                if let Some((bi, d)) = bump {
                    if bi == ci {
                        rhs += d;
                    }
                }
                p.add_constraint(&terms, Relation::Ge, rhs);
            }
            p
        };
        let base = build(None).solve().unwrap();
        // Pick the binding constraint with the largest dual; skip the rare
        // all-slack case (origin excluded by rhs >= 2, so there is one).
        let (bi, &dual) = base
            .duals
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.total_cmp(b.1))
            .unwrap();
        prop_assume!(dual > 1e-9);
        let delta = delta_mil as f64 / 1000.0;
        let bumped = build(Some((bi, delta))).solve().unwrap();
        let change = bumped.objective - base.objective;
        let lo = dual * delta;
        let hi = bumped.duals[bi] * delta;
        let tol = 1e-7 * (1.0 + base.objective.abs());
        prop_assert!(
            change >= lo.min(hi) - tol && change <= lo.max(hi) + tol,
            "objective change {change} outside dual bracket [{lo}, {hi}]"
        );
    }

    /// Warm-starting from a related instance's basis never changes the
    /// optimum: cold and warm solves of the same perturbed problem agree,
    /// and when they land on the same basis they agree bit-for-bit.
    #[test]
    fn warm_start_agrees_with_cold_on_random_perturbations(
        seed_cons in proptest::collection::vec(
            (proptest::collection::vec(1i32..5, 3), 2i32..20),
            1..4,
        ),
        obj in proptest::collection::vec(1i32..6, 3),
        scale_pct in 80i32..121,
    ) {
        let num_vars = 3;
        let build = |f: f64| {
            let mut p = Problem::minimize(num_vars);
            let terms: Vec<(usize, f64)> =
                obj.iter().enumerate().map(|(i, &c)| (i, c as f64)).collect();
            p.set_objective(&terms);
            for (coef, rhs) in &seed_cons {
                let terms: Vec<(usize, f64)> =
                    coef.iter().enumerate().map(|(i, &c)| (i, c as f64)).collect();
                p.add_constraint(&terms, Relation::Ge, *rhs as f64 * f);
            }
            p
        };
        let base = build(1.0).solve().unwrap();
        let drifted = build(scale_pct as f64 / 100.0);
        let cold = drifted.solve().unwrap();
        let warm = drifted.solve_from_basis(&base.basis).unwrap();
        prop_assert!(
            (warm.objective - cold.objective).abs() <= 1e-7 * (1.0 + cold.objective.abs()),
            "warm {} vs cold {}", warm.objective, cold.objective
        );
        if warm.basis == cold.basis {
            prop_assert_eq!(&warm.values, &cold.values);
            prop_assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
            prop_assert_eq!(&warm.duals, &cold.duals);
        }
    }

    /// On random LPs spanning every outcome class — feasible, infeasible,
    /// unbounded, and (via duplicated rows and zero right-hand sides)
    /// degenerate — the sparse revised simplex agrees with the retained
    /// dense tableau: same error kind, and on success the canonical
    /// solutions are bit-identical (the `--features audit` contract,
    /// exercised here without the feature flag).
    #[test]
    fn sparse_and_dense_agree_on_random_lps(
        num_vars in 2usize..5,
        seed_cons in proptest::collection::vec(
            (proptest::collection::vec(-3i32..4, 4), 0u8..3, -6i32..15),
            1..7,
        ),
        obj in proptest::collection::vec(-4i32..5, 4),
        duplicate_first in proptest::bool::ANY,
    ) {
        let mut p = Problem::minimize(num_vars);
        let terms: Vec<(usize, f64)> = obj
            .iter()
            .take(num_vars)
            .enumerate()
            .map(|(i, &c)| (i, c as f64))
            .collect();
        p.set_objective(&terms);
        let mut add = |coef: &[i32], rel: u8, rhs: i32| {
            let terms: Vec<(usize, f64)> = coef
                .iter()
                .take(num_vars)
                .enumerate()
                .map(|(i, &c)| (i, c as f64))
                .collect();
            let rel = match rel {
                0 => Relation::Le,
                1 => Relation::Ge,
                _ => Relation::Eq,
            };
            p.add_constraint(&terms, rel, rhs as f64);
        };
        for (coef, rel, rhs) in &seed_cons {
            add(coef, *rel, *rhs);
        }
        if duplicate_first {
            // A redundant copy of the first row forces primal degeneracy.
            let (coef, rel, rhs) = &seed_cons[0];
            add(coef, *rel, *rhs);
        }
        let _ = solve_both(&p)?;
    }

    /// Transport LPs (3–8 sources × 3–8 destinations) with costs drawn from
    /// `{1, 2}` have large primary-optimal faces, so the canonical face
    /// cleanup does real work on them, and `ub = 0` pins make some routes
    /// dead. Sparse and dense must agree bit for bit, and a warm start from
    /// the basis of a perturbed problem (one supply, one demand and one cost
    /// changed) must return the cold answer bit for bit.
    #[test]
    fn flat_faces_canonicalize_identically(
        sources in 3usize..9,
        dests in 3usize..9,
        costs in proptest::collection::vec(1u8..3, 64),
        pins in proptest::collection::vec(0u8..7, 64),
        supply in proptest::collection::vec(1i32..12, 8),
        demand in proptest::collection::vec(1i32..8, 8),
        bump in (0usize..64, 1i32..4),
    ) {
        let build = |bump: Option<(usize, i32)>| {
            let var = |i: usize, j: usize| i * dests + j;
            let mut cost: Vec<f64> = costs.iter().map(|&c| f64::from(c)).collect();
            let mut supply: Vec<i32> = supply[..sources].to_vec();
            let mut demand: Vec<i32> = demand[..dests].to_vec();
            // Enough total supply; source 0 absorbs the deficit, so supply
            // and demand are often exactly balanced.
            let deficit = demand.iter().sum::<i32>() - supply.iter().sum::<i32>();
            supply[0] += deficit.max(0);
            if let Some((k, d)) = bump {
                supply[k % sources] += d;
                demand[k % dests] += d;
                cost[k % (sources * dests)] = 3.0 - cost[k % (sources * dests)];
            }
            let mut p = Problem::minimize(sources * dests);
            let terms: Vec<(usize, f64)> = (0..sources * dests).map(|v| (v, cost[v])).collect();
            p.set_objective(&terms);
            for (i, &s) in supply.iter().enumerate() {
                let row: Vec<(usize, f64)> = (0..dests).map(|j| (var(i, j), 1.0)).collect();
                p.add_constraint(&row, Relation::Le, f64::from(s));
            }
            for (j, &d) in demand.iter().enumerate() {
                let col: Vec<(usize, f64)> = (0..sources).map(|i| (var(i, j), 1.0)).collect();
                p.add_constraint(&col, Relation::Eq, f64::from(d));
            }
            for (v, _) in pins[..sources * dests].iter().enumerate().filter(|(_, &k)| k == 0) {
                p.set_upper(v, 0.0);
            }
            p
        };
        let p = build(None);
        let (Ok(cold), Ok(perturbed)) = (solve_both(&p)?, build(Some(bump)).solve()) else {
            return Ok(());
        };
        let warm = p.solve_from_basis(&perturbed.basis).unwrap();
        prop_assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        for (w, c) in warm.values.iter().zip(&cold.values) {
            prop_assert_eq!(w.to_bits(), c.to_bits());
        }
    }

    /// An exported basis re-imported into `solve_from_basis` on the *same*
    /// problem reproduces the canonical solution bit for bit and re-exports
    /// the same basis — the round-trip contract PR 6's template cache and
    /// this PR's sparse rewrite both depend on.
    #[test]
    fn basis_export_import_round_trips(
        seed_cons in proptest::collection::vec(
            (proptest::collection::vec(1i32..5, 3), 2i32..20),
            1..4,
        ),
        obj in proptest::collection::vec(1i32..6, 3),
    ) {
        let num_vars = 3;
        let mut p = Problem::minimize(num_vars);
        let terms: Vec<(usize, f64)> =
            obj.iter().enumerate().map(|(i, &c)| (i, c as f64)).collect();
        p.set_objective(&terms);
        for (coef, rhs) in &seed_cons {
            let terms: Vec<(usize, f64)> =
                coef.iter().enumerate().map(|(i, &c)| (i, c as f64)).collect();
            p.add_constraint(&terms, Relation::Ge, *rhs as f64);
        }
        let cold = p.solve().unwrap();
        let warm = p.solve_from_basis(&cold.basis).unwrap();
        prop_assert!(warm.warm_started, "identical problem must accept its own basis");
        prop_assert_eq!(warm.objective.to_bits(), cold.objective.to_bits());
        prop_assert_eq!(&warm.basis, &cold.basis, "basis must survive the round trip");
        for (w, c) in warm.values.iter().zip(&cold.values) {
            prop_assert_eq!(w.to_bits(), c.to_bits());
        }
        for (w, c) in warm.duals.iter().zip(&cold.duals) {
            prop_assert_eq!(w.to_bits(), c.to_bits());
        }
    }
}
