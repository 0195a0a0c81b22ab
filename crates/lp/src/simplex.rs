//! Dense two-phase tableau simplex — retained as the audit oracle.
//!
//! The default solver backend is the sparse revised simplex in
//! [`crate::revised`]; this module keeps the original dense tableau
//! implementation as an independent cross-check. Under `--features audit`,
//! [`crate::Problem`] re-solves (size-gated) instances through this path and
//! asserts agreement with the sparse result; the test suite also calls it
//! directly via [`crate::Problem::solve_dense`].
//!
//! The oracle shares *data preparation* and *answer extraction* with the
//! sparse backend — both build the same [`NormSystem`] and both finish
//! through the canonical refinement in [`crate::norm`] — but shares none of
//! the pivoting machinery: this file eliminates over a dense row-major
//! tableau with explicit priced cost rows, the revised solver over an LU +
//! eta-file basis inverse. Because the shared face cleanup drives both to
//! the same canonical vertex and the shared refinement re-derives the
//! answer from the original data, the two backends return bit-identical
//! values and objectives whenever the problem's bounds are all `0`/`+∞`
//! (the only kinds the schedulers emit). Positive finite bounds are
//! materialized here as explicit `≤` rows — a *different* system from the
//! sparse backend's native bound handling — so those solves are only
//! tolerance-comparable.
//!
//! Variable bounds aside, one bounded-variable idea is used internally:
//! phase 1 no longer pivots out or drops redundant rows. Artificials are
//! instead treated as fixed to zero in phase 2 — barred from entering, and
//! the ratio test blocks on rows whose basic artificial would *grow* — so
//! the terminal basis always has full length `m` and refines through the
//! same code path as the sparse backend.

use crate::norm::{refine_canonical, refine_from_basis, ColDef, NormSystem};
use crate::problem::{Constraint, Relation};
use crate::types::{LpError, Solution, EPS, FACE_EPS};

/// Dense simplex tableau: `rows` constraint rows of `cols` entries each
/// (the last entry of a row is the right-hand side), plus a reduced-cost row.
struct Tableau {
    rows: usize,
    /// Number of internal columns, excluding the RHS column.
    vars: usize,
    /// Row-major data; each row has `vars + 1` entries.
    a: Vec<f64>,
    /// Basic variable of each row.
    basis: Vec<usize>,
    /// Reduced costs per variable plus the (negated) objective value.
    cost: Vec<f64>,
    pivots: usize,
}

impl Tableau {
    fn at(&self, r: usize, c: usize) -> f64 {
        self.a[r * (self.vars + 1) + c]
    }

    fn rhs(&self, r: usize) -> f64 {
        self.at(r, self.vars)
    }

    /// Rebuilds the reduced-cost row for cost vector `c` (length `vars`)
    /// given the current basis: `cost[j] = c_j - c_B^T B^{-1} A_j`.
    #[allow(clippy::needless_range_loop)]
    fn price(&mut self, c: &[f64]) {
        let w = self.vars + 1;
        let mut row = vec![0.0; w];
        row[..self.vars].copy_from_slice(c);
        for r in 0..self.rows {
            let cb = c[self.basis[r]];
            if cb != 0.0 {
                let base = r * w;
                for j in 0..w {
                    row[j] -= cb * self.a[base + j];
                }
            }
        }
        self.cost = row;
    }

    /// Performs one pivot on `(row, col)`, updating constraint rows, the
    /// reduced-cost row and the basis.
    fn pivot(&mut self, row: usize, col: usize) {
        let w = self.vars + 1;
        let piv = self.at(row, col);
        debug_assert!(piv.abs() > EPS, "pivot on near-zero element");
        let base = row * w;
        let inv = 1.0 / piv;
        for j in 0..w {
            self.a[base + j] *= inv;
        }
        // Re-normalize the pivot entry exactly to avoid drift.
        self.a[base + col] = 1.0;
        for r in 0..self.rows {
            if r == row {
                continue;
            }
            let f = self.at(r, col);
            if f.abs() > 0.0 {
                let rb = r * w;
                for j in 0..w {
                    self.a[rb + j] -= f * self.a[base + j];
                }
                self.a[rb + col] = 0.0;
            }
        }
        let f = self.cost[col];
        if f.abs() > 0.0 {
            for j in 0..w {
                self.cost[j] -= f * self.a[base + j];
            }
            self.cost[col] = 0.0;
        }
        self.basis[row] = col;
        self.pivots += 1;
    }

    /// Ratio test: smallest `rhs/a` over rows with positive `a`; ties are
    /// broken toward the smallest basis index (Bland-compatible). When
    /// `art_fixed` is set (phase 2), rows whose basic variable is an
    /// artificial (`>= art_start`) also block on *negative* `a` at ratio
    /// ~0 — a basic artificial sits at zero and must not grow again, which
    /// is the tableau equivalent of the revised solver's `ub = 0`
    /// artificial retirement.
    fn ratio_row(&self, col: usize, art_fixed: Option<usize>) -> Option<usize> {
        let mut pivot_row = None;
        let mut best_ratio = f64::INFINITY;
        for r in 0..self.rows {
            let a = self.at(r, col);
            let ratio = if a > EPS {
                self.rhs(r) / a
            } else if a < -EPS && art_fixed.is_some_and(|ab| self.basis[r] >= ab) {
                (self.rhs(r) / a).max(0.0)
            } else {
                continue;
            };
            let better = ratio < best_ratio - EPS
                || (ratio < best_ratio + EPS
                    && pivot_row.is_some_and(|pr: usize| self.basis[r] < self.basis[pr]));
            if better {
                best_ratio = ratio;
                pivot_row = Some(r);
            }
        }
        pivot_row
    }

    /// Runs simplex iterations to optimality for the current cost row.
    /// `barred` marks columns that may never enter (artificials in phase 2,
    /// `ub = 0` pins always); `art_fixed` enables the artificial row block
    /// in the ratio test.
    fn optimize(&mut self, barred: &[bool], art_fixed: Option<usize>) -> Result<(), LpError> {
        let limit = 200 * (self.rows + self.vars) + 1000;
        let dantzig_until = 20 * (self.rows + self.vars) + 200;
        for iter in 0..limit {
            let col = if iter < dantzig_until {
                // Dantzig: most negative reduced cost.
                let mut best = None;
                let mut best_v = -EPS;
                for (j, &bar) in barred.iter().enumerate().take(self.vars) {
                    if !bar && self.cost[j] < best_v {
                        best_v = self.cost[j];
                        best = Some(j);
                    }
                }
                best
            } else {
                // Bland: smallest index with negative reduced cost.
                (0..self.vars).find(|&j| !barred[j] && self.cost[j] < -EPS)
            };
            let Some(col) = col else {
                return Ok(());
            };
            let Some(row) = self.ratio_row(col, art_fixed) else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
        }
        Err(LpError::IterationLimit)
    }

    /// Minimizes a fixed generic secondary objective over the current
    /// primary-optimal face (lexicographic simplex): only columns whose
    /// primary reduced cost is (tolerantly) zero may enter, so the primary
    /// optimum is preserved while the secondary objective — weights
    /// `sqrt(j + 2)`, pairwise irrational so its minimizer on any face is a
    /// single vertex — selects one deterministic vertex out of the face.
    /// Two solves that reach *any* vertex of the same optimal face
    /// therefore leave this cleanup at the *same* vertex — including a
    /// sparse revised-simplex solve, whose face cleanup applies the same
    /// thresholds to the same secondary weights. Entering is by Bland's
    /// rule (smallest index), matching the Bland-compatible leaving
    /// tie-break in the ratio test, so the cleanup cannot cycle.
    fn optimize_face(&mut self, barred: &[bool], art_fixed: Option<usize>) -> Result<(), LpError> {
        let w = self.vars + 1;
        let sec: Vec<f64> = (0..self.vars).map(|j| ((j + 2) as f64).sqrt()).collect();
        // Price the secondary row against the current basis.
        let mut s = vec![0.0; w];
        s[..self.vars].copy_from_slice(&sec);
        for r in 0..self.rows {
            let cb = sec[self.basis[r]];
            if cb != 0.0 {
                let base = r * w;
                for (sj, aj) in s.iter_mut().zip(&self.a[base..base + w]) {
                    *sj -= cb * aj;
                }
            }
        }
        let limit = 200 * (self.rows + self.vars) + 1000;
        for _ in 0..limit {
            let col = (0..self.vars)
                .find(|&j| !barred[j] && self.cost[j].abs() <= FACE_EPS && s[j] < -FACE_EPS);
            let Some(col) = col else {
                return Ok(());
            };
            // The secondary objective is non-negative on x >= 0, so it
            // cannot actually be unbounded on the face; a missing pivot row
            // means numerical trouble — report it as such.
            let Some(row) = self.ratio_row(col, art_fixed) else {
                return Err(LpError::Unbounded);
            };
            self.pivot(row, col);
            // Keep the secondary row in lockstep with the pivot.
            let f = s[col];
            if f.abs() > 0.0 {
                let base = row * w;
                for (sj, aj) in s.iter_mut().zip(&self.a[base..base + w]) {
                    *sj -= f * aj;
                }
                s[col] = 0.0;
            }
        }
        Err(LpError::IterationLimit)
    }
}

/// Builds the initial dense tableau (slack/artificial basis) from the
/// normalized system.
fn build_tableau(sys: &NormSystem) -> Tableau {
    let m = sys.m();
    let vars = sys.total_cols;
    let w = vars + 1;
    let mut a = vec![0.0; m * w];
    for (r, row) in sys.rows.iter().enumerate() {
        let base = r * w;
        for &(j, v) in &row.terms {
            a[base + j as usize] = v;
        }
        a[base + vars] = row.rhs;
    }
    for c in sys.num_vars..vars {
        if let ColDef::RowUnit { row, sign } = sys.col_defs[c] {
            a[row * w + c] = sign;
        }
    }
    Tableau {
        rows: m,
        vars,
        a,
        basis: sys.init_basis.clone(),
        cost: vec![],
        pivots: 0,
    }
}

/// Solves `min c^T x` s.t. `constraints`, `0 ≤ x ≤ upper` through the dense
/// tableau. Positive finite bounds are materialized as appended `≤` rows
/// (ascending variable order); `ub = 0` pins are enforced by barring the
/// column. The cost vector must already be in minimization sense.
pub(crate) fn solve_dense(
    num_vars: usize,
    objective: &[f64],
    constraints: &[Constraint],
    upper: &[f64],
) -> Result<Solution, LpError> {
    let user_m = constraints.len();
    let mut extended: Vec<Constraint>;
    let (constraints, upper_refine): (&[Constraint], Vec<f64>) = {
        let bounded: Vec<usize> = (0..num_vars)
            .filter(|&j| upper[j].is_finite() && upper[j] > 0.0)
            .collect();
        if bounded.is_empty() {
            (constraints, upper.to_vec())
        } else {
            extended = constraints.to_vec();
            let mut up = upper.to_vec();
            for &j in &bounded {
                extended.push(Constraint {
                    terms: vec![(j, 1.0)],
                    relation: Relation::Le,
                    rhs: upper[j],
                });
                // The bound lives in a row now; the refinement must not
                // treat the column as bounded on top of that.
                up[j] = f64::INFINITY;
            }
            (extended.as_slice(), up)
        }
    };

    let sys = NormSystem::build(num_vars, constraints);
    let mut t = build_tableau(&sys);
    let barred_p1: Vec<bool> = (0..sys.total_cols)
        .map(
            |c| matches!(sys.col_defs[c], ColDef::Structural(j) if j < num_vars && upper[j] == 0.0),
        )
        .collect();
    let barred_p2: Vec<bool> = (0..sys.total_cols)
        .map(|c| barred_p1[c] || c >= sys.art_start)
        .collect();

    // Phase 1: minimize the sum of artificials.
    if sys.total_cols > sys.art_start {
        let mut c1 = vec![0.0; sys.total_cols];
        for c in c1.iter_mut().skip(sys.art_start) {
            *c = 1.0;
        }
        t.price(&c1);
        t.optimize(&barred_p1, None)?;
        // The phase-1 objective value is -cost[vars].
        if -t.cost[t.vars] > 1e-7 {
            return Err(LpError::Infeasible);
        }
    }

    // Phase 2 + canonical face cleanup, with artificials fixed at zero.
    let mut c2 = vec![0.0; sys.total_cols];
    c2[..num_vars].copy_from_slice(objective);
    t.price(&c2);
    t.optimize(&barred_p2, Some(sys.art_start))?;
    t.optimize_face(&barred_p2, Some(sys.art_start))?;

    let mut basis_cols = t.basis.clone();
    basis_cols.sort_unstable();
    let refined = refine_canonical(&sys, objective, &upper_refine, &[], &basis_cols)
        .or_else(|| refine_from_basis(&sys, objective, &upper_refine, &[], &basis_cols));
    let (values, mut duals, objective_value) = match refined {
        Some(r) => r,
        None => {
            // Last resort: read the answer straight out of the tableau.
            let mut values = vec![0.0; num_vars];
            for r in 0..t.rows {
                let b = t.basis[r];
                if b < num_vars {
                    values[b] = t.rhs(r).max(0.0);
                }
            }
            let objective_value = values
                .iter()
                .zip(objective)
                .map(|(x, c)| x * c)
                .sum::<f64>();
            let duals = (0..sys.m())
                .map(|r| {
                    let y_scaled = sys.dual_sign[r] * t.cost[sys.dual_col[r]];
                    let y = y_scaled / sys.rows[r].scale;
                    if sys.rows[r].flipped {
                        -y
                    } else {
                        y
                    }
                })
                .collect();
            (values, duals, objective_value)
        }
    };
    duals.truncate(user_m);
    Ok(Solution {
        values,
        objective: objective_value,
        duals,
        pivots: t.pivots,
    })
}
