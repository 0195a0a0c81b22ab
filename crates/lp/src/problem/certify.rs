//! The audit's check of an LP answer: its optimality certificate, and its
//! agreement with the solve that skips the presolve.
//!
//! [`certify`] reads an answer against the caller's own rows, bounds and
//! objective in O(nnz): the values are feasible, each dual has the sign its
//! row's relation allows and is zero on a row that is not tight, each
//! reduced cost has the sign that its value's place in `[0, ub]` allows, and
//! the objective is `cᵀx`. These are the optimality conditions of the LP,
//! so an answer that passes is optimal to within the tolerances, whatever
//! its size. [`audit`] adds path independence (DESIGN.md §13.2): the
//! presolved solve, started where the caller set a start point, against a
//! cold solve of every row.

use super::{Problem, Relation, Sense};
use crate::types::{LpError, Solution, SUPPORT_EPS};

/// Tolerance of every check, relative to the activity it checks (the sum of
/// the magnitudes of the terms it adds up); a dual's sign is checked on the
/// row scaled to unit max magnitude, as the solver sees it.
const TOL: f64 = 1e-6;

/// The first condition an answer fails.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Violation {
    /// Value `j` is NaN or outside `[0, ub_j]`.
    Bound(usize),
    /// Row `i` does not hold.
    Row(usize),
    /// Row `i`'s dual has the wrong sign for its relation.
    DualSign(usize),
    /// Row `i` is not tight, yet its dual is not zero.
    SlackDual(usize),
    /// Column `j`'s reduced cost has the wrong sign for where its value
    /// sits: at zero, inside its bounds or at its upper bound.
    ReducedCost(usize),
    /// The reported objective is not `cᵀx`.
    Objective,
}

/// Checks `sol` against `p`'s own data. Duals and reduced costs are read in
/// minimization sense (a maximization's negate): a `≤` row's dual is `≤ 0`,
/// a `≥` row's `≥ 0`, and `d = c − Aᵀy` is `≥ 0` at zero, `≤ 0` at the
/// upper bound and `0` in between.
pub(crate) fn certify(p: &Problem, sol: &Solution) -> Result<(), Violation> {
    let x = &sol.values;
    if let Some(j) = (0..p.num_vars).find(|&j| !(x[j] >= 0.0 && x[j] <= p.upper[j])) {
        return Err(Violation::Bound(j));
    }
    let sign = if p.sense == Sense::Max { -1.0 } else { 1.0 };
    // Reduced costs, and the magnitudes of the terms each one sums.
    let mut d: Vec<f64> = p.objective.iter().map(|c| sign * c).collect();
    let mut d_act: Vec<f64> = d.iter().map(|c| c.abs()).collect();
    for (i, (row, &dual)) in p.constraints().zip(&sol.duals).enumerate() {
        let y = sign * dual;
        let (mut lhs, mut act, mut scale) = (0.0, 0.0, row.rhs.abs());
        for &(j, a) in row.terms {
            lhs += a * x[j];
            act += (a * x[j]).abs();
            scale = scale.max(a.abs());
            d[j] -= a * y;
            d_act[j] += (a * y).abs();
        }
        let slack = lhs - row.rhs;
        let tol = TOL * (scale + act);
        let holds = match row.relation {
            Relation::Le => slack <= tol,
            Relation::Ge => slack >= -tol,
            Relation::Eq => slack.abs() <= tol,
        };
        if !holds {
            return Err(Violation::Row(i));
        }
        // The dual of the row scaled to unit max magnitude.
        let y = y * scale;
        let sign_holds = match row.relation {
            Relation::Le => y <= TOL,
            Relation::Ge => y >= -TOL,
            Relation::Eq => true,
        };
        if !sign_holds {
            return Err(Violation::DualSign(i));
        }
        if slack.abs() > tol && y.abs() > TOL {
            return Err(Violation::SlackDual(i));
        }
    }
    // A value at zero may not gain by rising, one at its upper bound by
    // falling; a pinned one (`ub = 0`) sits at both.
    let misplaced = |j: usize| {
        let tol = TOL * (1.0 + d_act[j]);
        let at_zero = x[j] <= SUPPORT_EPS;
        let at_upper = x[j] >= p.upper[j] - SUPPORT_EPS;
        d[j].is_nan() || (!at_zero && d[j] > tol) || (!at_upper && d[j] < -tol)
    };
    if let Some(j) = (0..p.num_vars).find(|&j| misplaced(j)) {
        return Err(Violation::ReducedCost(j));
    }
    let cx: f64 = x.iter().zip(&p.objective).map(|(x, c)| x * c).sum();
    if sol.objective != cx {
        return Err(Violation::Objective);
    }
    Ok(())
}

/// Certifies `presolved`, the answer [`Problem::solve`] returns (from the
/// start point when one is set), then re-solves `p` without the presolve
/// and from the slack basis, and requires the same error kind, or
/// bit-identical values and objective. A numerical error
/// ([`LpError::SingularBasis`], [`LpError::IterationLimit`]) on one path
/// where the other returns an answer fails too.
pub(crate) fn audit(p: &Problem, presolved: &Result<Solution, LpError>) -> Result<(), String> {
    if let Ok(s) = presolved {
        certify(p, s).map_err(|v| format!("the answer fails its certificate: {v:?}"))?;
    }
    match (presolved, p.solve_unreduced()) {
        (Ok(s), Ok(u)) => {
            if s.objective.to_bits() != u.objective.to_bits() {
                return Err(format!(
                    "objective {} presolved, {} unreduced",
                    s.objective, u.objective
                ));
            }
            let differs = |(a, b): (&f64, &f64)| a.to_bits() != b.to_bits();
            match s.values.iter().zip(&u.values).position(differs) {
                Some(j) => Err(format!(
                    "value {j}: {} presolved, {} unreduced",
                    s.values[j], u.values[j]
                )),
                None => Ok(()),
            }
        }
        (Err(e), Err(u)) if *e == u => Ok(()),
        (s, u) => Err(format!(
            "presolved solve {:?}, unreduced {:?}",
            s.as_ref().map(|_| "solved"),
            u.map(|_| "solved")
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn answer(values: &[f64], objective: f64, duals: &[f64]) -> Solution {
        Solution {
            values: values.to_vec(),
            objective,
            duals: duals.to_vec(),
            pivots: 0,
        }
    }

    /// `min x + 2y` s.t. `x + y ≥ 2`: the optimum is `(2, 0)` with dual 1.
    fn cheaper_x() -> Problem {
        let mut p = Problem::minimize(2);
        p.set_objective(&[(0, 1.0), (1, 2.0)]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 2.0);
        p
    }

    /// Values moved off a `≤`, an `=` and a `≥` row fail on that row. The
    /// objective is zero, so every feasible point is optimal with zero
    /// duals and only the row check can reject. NaN and values in the
    /// `1e18`s are what a drifted elimination returns.
    #[test]
    fn rejects_a_value_off_each_row() {
        // x + y ≤ 4, x − y = 1, x ≥ 2.
        let mut p = Problem::minimize(2);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 4.0);
        p.add_constraint(&[(0, 1.0), (1, -1.0)], Relation::Eq, 1.0);
        p.add_constraint(&[(0, 1.0)], Relation::Ge, 2.0);
        let at = |x: f64, y: f64| certify(&p, &answer(&[x, y], 0.0, &[0.0; 3]));
        assert_eq!(at(2.0, 1.0), Ok(()));
        assert_eq!(at(2.5, 1.5), Ok(()));
        // Within the activity-relative tolerance.
        assert_eq!(at(2.0 + 1e-9, 1.0), Ok(()));
        assert_eq!(at(3.0, 2.0), Err(Violation::Row(0)));
        assert_eq!(at(2.0, 0.5), Err(Violation::Row(1)));
        assert_eq!(at(1.0, 0.0), Err(Violation::Row(2)));
        assert_eq!(at(f64::NAN, 1.0), Err(Violation::Bound(0)));
        assert_eq!(at(1.5e18, -1.5e18), Err(Violation::Bound(1)));
        assert_eq!(at(1.5e18, 1.5e18), Err(Violation::Row(0)));
    }

    /// A feasible vertex given with its own basis duals, but not optimal:
    /// `(0, 2)` prices `x` at `1 − 2 < 0` while `x` sits at zero. At an
    /// upper bound the sign turns: `min −x`, `x ≤ 3` is optimal at `x = 3`
    /// and not at `x = 0`.
    #[test]
    fn rejects_a_feasible_vertex_that_is_not_optimal() {
        let p = cheaper_x();
        assert_eq!(certify(&p, &answer(&[2.0, 0.0], 2.0, &[1.0])), Ok(()));
        assert_eq!(
            certify(&p, &answer(&[0.0, 2.0], 4.0, &[2.0])),
            Err(Violation::ReducedCost(0))
        );
        let mut p = Problem::minimize(1);
        p.set_objective(&[(0, -1.0)]);
        p.set_upper(0, 3.0);
        assert_eq!(certify(&p, &answer(&[3.0], -3.0, &[])), Ok(()));
        assert_eq!(
            certify(&p, &answer(&[0.0], 0.0, &[])),
            Err(Violation::ReducedCost(0))
        );
    }

    /// A `≥` row's dual is `≥ 0` when minimizing and `≤ 0` when maximizing.
    #[test]
    fn rejects_a_wrong_sign_dual_on_a_ge_row() {
        assert_eq!(
            certify(&cheaper_x(), &answer(&[2.0, 0.0], 2.0, &[-1.0])),
            Err(Violation::DualSign(0))
        );
        // max −x − 2y over the same row.
        let mut p = Problem::maximize(2);
        p.set_objective(&[(0, -1.0), (1, -2.0)]);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Ge, 2.0);
        assert_eq!(certify(&p, &answer(&[2.0, 0.0], -2.0, &[-1.0])), Ok(()));
        assert_eq!(
            certify(&p, &answer(&[2.0, 0.0], -2.0, &[1.0])),
            Err(Violation::DualSign(0))
        );
    }

    /// `x ≤ 10` is slack at `(2, 0)`, so its dual must be zero. The duals
    /// `(1.5, −0.5)` have the right signs and price `x` and `y` correctly;
    /// only complementary slackness rejects them.
    #[test]
    fn rejects_a_nonzero_dual_on_a_slack_row() {
        let mut p = cheaper_x();
        p.add_constraint(&[(0, 1.0)], Relation::Le, 10.0);
        assert_eq!(certify(&p, &answer(&[2.0, 0.0], 2.0, &[1.0, 0.0])), Ok(()));
        assert_eq!(
            certify(&p, &answer(&[2.0, 0.0], 2.0, &[1.5, -0.5])),
            Err(Violation::SlackDual(1))
        );
    }

    /// The objective must be `cᵀx` exactly: one ulp off fails.
    #[test]
    fn rejects_a_misreported_objective() {
        let off = f64::from_bits(2.0f64.to_bits() + 1);
        assert_eq!(
            certify(&cheaper_x(), &answer(&[2.0, 0.0], off, &[1.0])),
            Err(Violation::Objective)
        );
    }
}
