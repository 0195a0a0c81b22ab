//! Unit and property tests for the simplex solver.

use crate::norm::NormSystem;
use crate::presolve::Presolve;
use crate::revised::REFACTOR_EVERY;
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

/// Certifies `p`'s answer, then requires the presolved and the unreduced
/// solve to agree: the same error kind, or bit-identical objective and
/// values (what `Problem::solve` checks on every solve under
/// `--features audit`).
#[cfg(not(miri))]
fn solve_both(p: &Problem) -> Result<(), TestCaseError> {
    crate::problem::certify::audit(p, &p.solve()).map_err(TestCaseError::fail)
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
    /// objective by ≈ dual·δ (the defining property of shadow prices).
    /// Because duals are subgradients of the convex value function, the
    /// exact statement is a bracket: the change lies between base-dual·δ and
    /// bumped-dual·δ.
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

    /// On random LPs spanning every outcome class — feasible, infeasible,
    /// unbounded, and (via duplicated rows and zero right-hand sides)
    /// degenerate — every answer certifies, and the presolved solve agrees
    /// with the unreduced one: same error kind, and on success the canonical
    /// solutions are bit-identical (the `--features audit` contract,
    /// exercised here without the feature flag).
    #[test]
    fn presolved_and_unreduced_agree_on_random_lps(
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
        solve_both(&p)?;
    }

    /// Transport LPs (3–8 sources × 3–8 destinations) with costs drawn from
    /// `{1, 2}` have large primary-optimal faces, so the canonical face
    /// cleanup does real work on them, and `ub = 0` pins make some routes
    /// dead. The presolved and unreduced solves must agree bit for bit.
    #[test]
    fn flat_faces_canonicalize_identically(
        sources in 3usize..9,
        dests in 3usize..9,
        costs in proptest::collection::vec(1u8..3, 64),
        pins in proptest::collection::vec(0u8..7, 64),
        supply in proptest::collection::vec(1i32..12, 8),
        demand in proptest::collection::vec(1i32..8, 8),
    ) {
        let var = |i: usize, j: usize| i * dests + j;
        let mut supply: Vec<i32> = supply[..sources].to_vec();
        let demand: Vec<i32> = demand[..dests].to_vec();
        // Enough total supply; source 0 absorbs the deficit, so supply and
        // demand are often exactly balanced.
        let deficit = demand.iter().sum::<i32>() - supply.iter().sum::<i32>();
        supply[0] += deficit.max(0);
        let mut p = Problem::minimize(sources * dests);
        let terms: Vec<(usize, f64)> =
            (0..sources * dests).map(|v| (v, f64::from(costs[v]))).collect();
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
        solve_both(&p)?;
    }

    /// Placement-shaped LPs (4–30 sources) on which both presolve
    /// reductions fire: the presolved answer certifies and matches the
    /// unreduced one bit for bit, carries one dual per input constraint,
    /// and every dropped row's dual is exactly zero.
    #[test]
    fn presolved_placement_lps_match_the_unreduced_solve(
        n in 4usize..31,
        dests in 1usize..5,
        data in proptest::collection::vec(0u8..14, 30),
        tasks in proptest::collection::vec(0u8..9, 30),
        up in proptest::collection::vec(1u8..6, 30),
        slots in proptest::collection::vec(1u8..9, 30),
        cost in proptest::collection::vec(0u8..3, 7),
        budget in 0u8..40,
        floor in 0u8..8,
        keep in proptest::collection::vec(0usize..30, 0..3),
    ) {
        // About 40% of sources without data, 40% without tasks.
        let data: Vec<u8> = data[..n].iter().map(|&d| d.saturating_sub(5)).collect();
        let tasks: Vec<u8> = tasks[..n].iter().map(|&k| k.saturating_sub(3)).collect();
        let keep: Vec<usize> = keep.into_iter().filter(|&x| x < n).collect();
        let (p, never_binds, fixing) = placement_lp(
            &data, &tasks, &up[..n], &slots[..n], &cost, dests, budget, floor, &keep,
        );
        let upper: Vec<f64> = (0..p.num_vars()).map(|v| p.upper_bound(v)).collect();
        let pre = Presolve::new(&NormSystem::build(p.num_vars(), p.constraints()), &upper);
        prop_assert_eq!(pre.sys.m(), p.num_constraints() - never_binds.len() - fixing);
        solve_both(&p)?;
        if let Ok(sol) = p.solve() {
            prop_assert_eq!(sol.duals.len(), p.num_constraints());
            for &r in &never_binds {
                prop_assert_eq!(sol.duals[r].to_bits(), 0.0f64.to_bits(), "row {}", r);
            }
        }
    }
}

#[test]
fn presolve_drops_every_row_at_an_optimum() {
    // Both rows hold for every x, T ≥ 0: the reduced system is empty and
    // the answer is the origin.
    let mut p = Problem::minimize(2);
    p.set_objective(&[(0, 1.0), (1, 2.0)]);
    p.add_constraint(&[(1, -3.0)], Relation::Le, 0.0);
    p.add_constraint(&[(0, -1.0), (1, -2.0)], Relation::Le, 4.0);
    let sol = p.solve().unwrap();
    assert_eq!(sol.objective, 0.0);
    assert_eq!(sol.values, vec![0.0, 0.0]);
    assert_eq!(sol.duals, vec![0.0, 0.0]);
    let unreduced = p.solve_unreduced().unwrap();
    assert_eq!(unreduced.objective, 0.0);
    assert_eq!(unreduced.values, vec![0.0, 0.0]);
}

#[test]
fn presolve_drops_every_row_and_reports_unbounded() {
    // A negative cost on a column no row can stop: unbounded, like the
    // unreduced solve says.
    let mut p = Problem::minimize(2);
    p.set_objective(&[(0, -1.0), (1, 1.0)]);
    p.add_constraint(&[(1, -3.0)], Relation::Le, 0.0);
    p.add_constraint(&[(0, -1.0), (1, -2.0)], Relation::Le, 0.0);
    assert_eq!(p.solve().unwrap_err(), LpError::Unbounded);
    assert_eq!(p.solve_unreduced().unwrap_err(), LpError::Unbounded);
}

#[test]
fn fixing_row_beyond_the_bound_is_left_to_the_simplex() {
    // x0 = 5 (x1 pinned) would fix x0 above its bound of 3: the row stays
    // in the reduced system and phase 1 finds it infeasible.
    let mut p = Problem::minimize(2);
    p.set_objective(&[(0, 1.0)]);
    p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Eq, 5.0);
    p.set_upper(0, 3.0);
    p.set_upper(1, 0.0);
    let upper = [3.0, 0.0];
    let full = NormSystem::build(2, p.constraints());
    assert_eq!(Presolve::new(&full, &upper).sys.m(), 1);
    assert_eq!(p.solve().unwrap_err(), LpError::Infeasible);
    assert_eq!(p.solve_unreduced().unwrap_err(), LpError::Infeasible);
}

/// A placement LP large enough that the sparse solve crosses several
/// refactorizations (the eta file holds at most `REFACTOR_EVERY` etas),
/// and it still certifies and matches the unreduced solve bit for bit.
#[test]
#[cfg(not(miri))]
fn placement_lp_across_refactorizations_matches_the_unreduced_solve() {
    let n = 30;
    let data: Vec<u8> = (0..n).map(|x| (x * 7 % 11) as u8).collect();
    let tasks: Vec<u8> = (0..n).map(|x| (x * 5 % 9) as u8).collect();
    let up: Vec<u8> = (0..n).map(|x| 1 + (x % 5) as u8).collect();
    let slots: Vec<u8> = (0..n).map(|x| 1 + (x * 3 % 8) as u8).collect();
    let (p, _, _) = placement_lp(&data, &tasks, &up, &slots, &[0, 1, 2], 4, 30, 2, &[3, 17]);
    let sol = p.solve().unwrap();
    assert!(sol.pivots > 2 * REFACTOR_EVERY, "pivots {}", sol.pivots);
    solve_both(&p).unwrap();
}

/// Parses the LPs of a repro file: the text `Problem::audit` prints on a
/// fault, one LP per `lp audit repro:` header, values in `{:?}` form (which
/// round-trips every `f64` bit).
#[cfg(not(miri))]
fn parse_repro(text: &str) -> Vec<Problem> {
    // The items of a `[…]` list, split on `sep`.
    fn items<'a>(list: &'a str, sep: &'a str) -> impl Iterator<Item = &'a str> {
        let list = list.trim_start_matches('[').trim_end_matches(']');
        list.split(sep).filter(|item| !item.is_empty())
    }
    let num = |s: &str| s.parse::<f64>().unwrap();
    let mut lps: Vec<Problem> = Vec::new();
    let mut num_vars = 0;
    for line in text.lines() {
        if let Some(n) = line.strip_prefix("lp audit repro: NUM_VARS ") {
            num_vars = n.parse().unwrap();
            continue;
        }
        let (key, rest) = line.split_once(' ').unwrap();
        if key == "SENSE" {
            let sense = if rest == "Max" {
                crate::Sense::Max
            } else {
                crate::Sense::Min
            };
            lps.push(Problem::new(num_vars, sense));
            continue;
        }
        let p = lps.last_mut().unwrap();
        match key {
            "OBJ" => {
                let obj: Vec<(usize, f64)> = items(rest, ", ").map(num).enumerate().collect();
                p.set_objective(&obj);
            }
            "UPPER" => {
                for (j, ub) in items(rest, ", ").map(num).enumerate() {
                    p.set_upper(j, ub);
                }
            }
            "CON" => {
                let (rel, rest) = rest.split_once(' ').unwrap();
                let (terms, rhs) = rest.rsplit_once(" rhs=").unwrap();
                let terms: Vec<(usize, f64)> = items(terms, "), (")
                    .map(|t| {
                        let (j, a) = t.trim_matches(['(', ')']).split_once(", ").unwrap();
                        (j.parse().unwrap(), num(a))
                    })
                    .collect();
                let rel = match rel {
                    "Le" => Relation::Le,
                    "Ge" => Relation::Ge,
                    _ => Relation::Eq,
                };
                p.add_constraint(&terms, rel, num(rhs));
            }
            _ => panic!("unknown repro line: {line}"),
        }
    }
    lps
}

/// Two `trace-30` placement LPs (130 × 323 and 132 × 381, benchmark seed
/// 0) on which Dantzig pricing reached a numerically singular
/// refactorization (`LpError::SingularBasis`). Normalized pricing takes
/// another path; both solve, certify and match the unreduced solve.
#[test]
#[cfg(not(miri))]
fn trace_lps_that_went_singular_under_dantzig_pricing_solve() {
    let lps = parse_repro(include_str!("../tests/fixtures/singular_basis.lp"));
    let shapes: Vec<(usize, usize)> = lps
        .iter()
        .map(|p| (p.num_constraints(), p.num_vars()))
        .collect();
    assert_eq!(shapes, [(130, 323), (132, 381)]);
    for p in &lps {
        assert!(p.solve().is_ok());
        solve_both(p).unwrap();
    }
}

/// 64-bit FNV-1a.
#[cfg(not(miri))]
struct Fnv(u64);

#[cfg(not(miri))]
impl Fnv {
    fn new() -> Self {
        Self(0xcbf2_9ce4_8422_2325)
    }

    fn u64(&mut self, x: u64) {
        for b in x.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0100_0000_01b3);
        }
    }
}

/// Instance `k` of the pinned placement corpus: 4–40 sources, 1–4 shared
/// destinations, and data, tasks, bandwidths, slots, costs, budget, floor
/// and `keep` set drawn from `k` by a fixed 64-bit mix (the same ranges as
/// `presolved_placement_lps_match_the_unreduced_solve`).
#[cfg(not(miri))]
fn corpus_lp(k: u64) -> Problem {
    let mut state = k.wrapping_mul(0x9e37_79b9_7f4a_7c15) ^ 0x2545_f491_4f6c_dd1d;
    let mut draw = |below: u64| {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        (z ^ (z >> 31)) % below
    };
    let n = 4 + draw(37) as usize;
    let dests = 1 + draw(4) as usize;
    let mut byte = |lo: u64, hi: u64| (lo + draw(hi - lo)) as u8;
    let data: Vec<u8> = (0..n).map(|_| byte(0, 14).saturating_sub(5)).collect();
    let tasks: Vec<u8> = (0..n).map(|_| byte(0, 9).saturating_sub(3)).collect();
    let up: Vec<u8> = (0..n).map(|_| byte(1, 6)).collect();
    let slots: Vec<u8> = (0..n).map(|_| byte(1, 9)).collect();
    let cost: Vec<u8> = (0..7).map(|_| byte(0, 3)).collect();
    let budget = byte(0, 40);
    let floor = byte(0, 8);
    let keep: Vec<usize> = (0..byte(0, 3)).map(|_| draw(n as u64) as usize).collect();
    placement_lp(
        &data, &tasks, &up, &slots, &cost, dests, budget, floor, &keep,
    )
    .0
}

/// Pins the simplex on a fixed corpus of placement-shaped LPs, each solved
/// presolved and unreduced: the total of [`crate::Solution::pivots`] and an
/// FNV-1a digest of every value's and objective's bits (an error's kind in
/// their place). A pricing change may lower the pivot total, but the
/// canonical extraction must leave the digest where it is: the reported
/// values are a function of the problem, not of the pivot path.
///
/// When the pivot total changes on purpose, the failure message prints the
/// new value to paste in.
#[test]
#[cfg(not(miri))]
fn placement_corpus_pivots_and_answer_bits_are_pinned() {
    const PIVOTS: usize = 5011;
    const DIGEST: u64 = 0xf2d1_51b4_36ea_b4b1;
    let mut h = Fnv::new();
    let mut pivots = 0;
    for k in 0..64 {
        let p = corpus_lp(k);
        for result in [p.solve(), p.solve_unreduced()] {
            match result {
                Ok(sol) => {
                    pivots += sol.pivots;
                    for v in &sol.values {
                        h.u64(v.to_bits());
                    }
                    h.u64(sol.objective.to_bits());
                }
                Err(e) => h.u64(e as u64),
            }
        }
    }
    assert_eq!(
        (pivots, h.0),
        (PIVOTS, DIGEST),
        "placement corpus: pivots {pivots}, digest {:#018x}",
        h.0
    );
}

/// A map-placement-shaped LP over `n` sources, built so that both presolve
/// reductions fire. Source `x` ships fractions `a[x][y]` to itself and to
/// the shared destinations `0..dests`, and one epigraph column `T` bounds
/// every upload and compute time. A source with neither data nor tasks is
/// pinned in place (`a[x][y] = 0` bounds for `y ≠ x`), so its row sum is a
/// fixing row unless another row also uses `a[x][x]`; a source with no
/// data leaves a singleton `−up·T ≤ 0` upload row, and a destination that
/// no unpinned source computes at leaves a singleton `−slots·T ≤ 0` row.
/// A WAN budget, a floor on `T` and an optional `Σ a[x][x] ≥ 0.5` row
/// over `keep` are the ordinary rows mixed in.
///
/// Returns the problem, the indices of its never-binding rows and the
/// number of fixing rows.
#[cfg(not(miri))]
#[allow(
    clippy::too_many_arguments,
    reason = "one argument per proptest-drawn dimension of the instance"
)]
fn placement_lp(
    data: &[u8],
    tasks: &[u8],
    up: &[u8],
    slots: &[u8],
    cost: &[u8],
    dests: usize,
    budget: u8,
    floor: u8,
    keep: &[usize],
) -> (Problem, Vec<usize>, usize) {
    let n = data.len();
    let mut cols: Vec<Vec<(usize, usize)>> = Vec::with_capacity(n); // (y, var)
    let mut nv = 0;
    for x in 0..n {
        let mut ys: Vec<usize> = (0..dests).collect();
        if x >= dests {
            ys.push(x);
        }
        cols.push(ys.iter().map(|&y| (y, nv + y.min(dests))).collect());
        nv += ys.len();
    }
    let t = nv;
    let var = |x: usize, y: usize| cols[x].iter().find(|&&(yy, _)| yy == y).map(|&(_, v)| v);
    let dead = |x: usize| data[x] == 0 && tasks[x] == 0;
    let mut p = Problem::minimize(nv + 1);
    p.add_objective_term(t, 1.0);
    for (x, ys) in cols.iter().enumerate() {
        for &(y, v) in ys {
            if y != x {
                p.add_objective_term(v, f64::from(cost[(x + y) % cost.len()]) / 8.0);
                if dead(x) {
                    p.set_upper(v, 0.0);
                }
            }
        }
    }
    let mut never_binds = Vec::new();
    let mut add = |p: &mut Problem, terms: Vec<(usize, f64)>, rel: Relation, rhs: f64| {
        let unpinned_pos = terms
            .iter()
            .any(|&(v, a)| a > 0.0 && p.upper_bound(v) != 0.0);
        if rel == Relation::Le && rhs >= 0.0 && !unpinned_pos {
            never_binds.push(p.num_constraints());
        }
        p.add_constraint(&terms, rel, rhs);
    };
    for ys in &cols {
        add(
            &mut p,
            ys.iter().map(|&(_, v)| (v, 1.0)).collect(),
            Relation::Eq,
            1.0,
        );
    }
    for (x, ys) in cols.iter().enumerate() {
        let mut terms: Vec<(usize, f64)> = ys
            .iter()
            .filter(|&&(y, _)| y != x)
            .map(|&(_, v)| (v, f64::from(data[x])))
            .collect();
        terms.push((t, -f64::from(up[x])));
        add(&mut p, terms, Relation::Le, 0.0);
    }
    for (y, &s) in slots.iter().enumerate() {
        let mut terms: Vec<(usize, f64)> = (0..n)
            .filter_map(|x| var(x, y).map(|v| (v, f64::from(tasks[x]))))
            .collect();
        terms.push((t, -f64::from(s)));
        add(&mut p, terms, Relation::Le, 0.0);
    }
    let wan: Vec<(usize, f64)> = cols
        .iter()
        .enumerate()
        .flat_map(|(x, ys)| {
            ys.iter()
                .filter(move |&&(y, _)| y != x)
                .map(move |&(_, v)| (v, f64::from(data[x])))
        })
        .collect();
    add(&mut p, wan, Relation::Le, f64::from(budget));
    add(&mut p, vec![(t, 1.0)], Relation::Ge, f64::from(floor) / 4.0);
    if !keep.is_empty() {
        let terms: Vec<(usize, f64)> = keep
            .iter()
            .filter_map(|&x| var(x, x))
            .map(|v| (v, 1.0))
            .collect();
        add(&mut p, terms, Relation::Ge, 0.5);
    }
    // A row sum fixes `a[x][x]` when that is its only unpinned column (a
    // dead source, or source 0 with `dests == 1`) and no compute or `keep`
    // row uses it.
    let fixing = (0..n)
        .filter(|&x| (dead(x) || cols[x].len() == 1) && tasks[x] == 0 && !keep.contains(&x))
        .count();
    (p, never_binds, fixing)
}
