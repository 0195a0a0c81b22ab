//! Sparse bounded-variable revised simplex.
//!
//! Works on a [`NormSystem`] (CSC-stored normalized constraints,
//! `[structural | slack | artificial]` column layout) and never materializes
//! a tableau. The system it pivots on is the presolved one
//! ([`crate::presolve`]): the shared normalized system minus the rows that
//! cannot bind. Phases 1 and 2 and the face cleanup run there; the terminal
//! basis, completed by the dropped rows' slacks and the fixed columns, is
//! then refined on the full system, so values, objective and one dual per
//! input constraint come from the same refinement as an unreduced solve.
//!
//! The basis inverse is represented as a sparse LU factorization
//! ([`crate::sparsela::SparseLu`]) composed with a product-form eta file;
//! every pivot appends one eta (the FTRAN'd entering column), and the basis
//! is refactorized from scratch once [`REFACTOR_EVERY`] etas have
//! accumulated or when a pivot element is too small to divide by safely.
//! Refactorization is cheap because it factors the unit columns (slacks,
//! artificials) first: they pivot on their own rows without fill, and the
//! structural columns only factor the small block the unit columns leave.
//! That keeps the eta file short, which matters because FTRAN'd columns
//! are dense. Variable upper bounds are handled natively: each column
//! carries a status (basic / at lower bound / at upper bound), the ratio
//! test considers leaving-to-upper and bound-flip steps, and `ub = 0`
//! columns are simply never allowed to enter (which is how the placement
//! models pin dead sources without emitting constraint rows, and how
//! artificials are retired after phase 1 without dropping redundant rows).
//! Each phase prices only the columns it may enter, listed once per phase.
//!
//! Entering selection is normalized pricing for a warm-up period, then
//! Bland's rule. Normalized pricing enters the eligible column with the
//! largest `viol² / ‖a_j‖²` (its reduced-cost violation squared over its
//! squared column norm in the pivoted system): the steepest descent per
//! unit of the column's own length rather than per unit of its variable.
//! In phase 1 every row-sum column ties at `−1` under Dantzig's rule, which
//! then enters the lowest index, often against a compute or upload row
//! with zero slack (a step of zero); the norm breaks those ties toward the
//! columns that touch fewer and lighter rows, and cuts the pivots of the
//! benchmark's placement LPs by 18–51% (DESIGN.md §13.4). Which column may
//! enter is unchanged (a violation beyond the tolerance), so the optimality
//! test is too. The ratio test breaks an exact tie (a degenerate step ties
//! every blocking row at 0) by the largest pivot magnitude during the
//! warm-up, so a degenerate step does not pivot on rounding noise of a
//! zero, and by the smallest leaving column index under Bland's rule, as
//! its termination proof needs.
//!
//! The canonical face cleanup afterwards minimizes the
//! `sqrt(j + 2)` secondary objective (the full system's weights, written in
//! reduced columns) over the primary-optimal face; the irrational weights
//! make its minimizer unique, so a presolved and an unreduced solve finish
//! at the same vertex by different pivot paths, and the refinement in
//! [`crate::norm`] returns the same bits. The cleanup is
//! priced like phase 2: the face set is fixed once from one BTRAN of the
//! primary cost on entry (entering a column with primary reduced cost ≈ 0
//! leaves the primary multipliers unchanged), each pivot costs one BTRAN of
//! the secondary cost and prices only the face set, and entering uses the
//! same pricing loop as phase 1 and phase 2. The pricing rule picks the
//! path only: the face cleanup and the refinement make the reported values
//! and objective a function of the problem, so no answer bit depends on it.

use crate::norm::{bounded_rhs, refine_canonical, refine_from_basis, user_duals, NormSystem};
use crate::presolve::Presolve;
use crate::problem::Constraint;
use crate::sparsela::SparseLu;
use crate::types::{LpError, Solution, EPS, FACE_EPS};

/// Pivot threshold for basis refactorizations.
const LU_TOL: f64 = 1e-11;

/// The eta file holds at most this many etas: the basis change that would
/// append one more refactorizes instead.
pub(crate) const REFACTOR_EVERY: usize = 16;

/// Pivot elements smaller than this trigger an immediate refactorization
/// instead of an eta (dividing by them would amplify error).
const ETA_TOL: f64 = 1e-7;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Status {
    Basic,
    Lower,
    Upper,
}

/// One product-form update: basis position `r` was replaced; `w` is the
/// FTRAN'd entering column (entries exclude position `r`).
struct Eta {
    r: u32,
    wr: f64,
    w: Vec<(u32, f64)>,
}

struct Rev<'a> {
    sys: &'a NormSystem,
    /// Current upper bound of every internal column (structural bounds from
    /// the user; artificials drop from `+∞` to `0` after phase 1).
    ub: Vec<f64>,
    status: Vec<Status>,
    basis_cols: Vec<usize>,
    /// Values of the basic variables, by basis position.
    xb: Vec<f64>,
    lu: SparseLu,
    etas: Vec<Eta>,
    /// Squared Euclidean norm of every internal column in this system (1
    /// for an empty column), the scale of normalized pricing.
    norm2: Vec<f64>,
    pivots: usize,
    /// The FTRAN'd entering column of the current step.
    w: Vec<f64>,
    /// Work space of the LU solves.
    tmp: Vec<f64>,
}

impl<'a> Rev<'a> {
    /// Sets up the all-slack/artificial initial basis (phase-1 start).
    fn new(sys: &'a NormSystem, upper: &[f64]) -> Result<Self, LpError> {
        let m = sys.m();
        let mut ub = vec![f64::INFINITY; sys.total_cols];
        ub[..sys.num_vars].copy_from_slice(upper);
        let mut status = vec![Status::Lower; sys.total_cols];
        let basis_cols = sys.init_basis.clone();
        for &c in &basis_cols {
            status[c] = Status::Basic;
        }
        let norm2 = (0..sys.total_cols)
            .map(|c| {
                let sq: f64 = sys.col(c).1.iter().map(|v| v * v).sum();
                if sq > 0.0 {
                    sq
                } else {
                    1.0
                }
            })
            .collect();
        let mut rev = Rev {
            sys,
            ub,
            status,
            basis_cols,
            xb: vec![0.0; m],
            lu: SparseLu::empty(),
            etas: Vec::new(),
            norm2,
            pivots: 0,
            w: Vec::with_capacity(m),
            tmp: Vec::with_capacity(m),
        };
        rev.refactor()?;
        Ok(rev)
    }

    /// Rebuilds the LU factorization of the current basis and recomputes the
    /// basic values from scratch. The basis positions are first stable-sorted
    /// with the unit columns (slacks, artificials) ahead of the structural
    /// ones, so the units pivot on their own rows without fill. Fails with
    /// [`LpError::SingularBasis`] when some column finds no pivot above
    /// [`LU_TOL`] (the basis is numerically singular).
    fn refactor(&mut self) -> Result<(), LpError> {
        let m = self.sys.m();
        let sys = self.sys;
        self.basis_cols.sort_by_key(|&c| c < sys.num_vars);
        let cols = &self.basis_cols;
        self.lu = SparseLu::factorize(
            m,
            |k, out| sys.for_col(cols[k], |r, v| out.push((r as u32, v))),
            LU_TOL,
        )
        .ok_or(LpError::SingularBasis)?;
        self.etas.clear();
        let at_upper = self.at_upper();
        let mut b = bounded_rhs(self.sys, &self.ub[..self.sys.num_vars], &at_upper);
        self.lu.solve_in_place(&mut b, &mut self.tmp);
        self.xb = b;
        Ok(())
    }

    /// Sorted structural columns currently at their (positive) upper bound.
    fn at_upper(&self) -> Vec<usize> {
        (0..self.sys.num_vars)
            .filter(|&j| self.status[j] == Status::Upper)
            .collect()
    }

    /// FTRAN: `v <- B⁻¹ v` (`v` in original row coordinates in, basis
    /// positions out).
    fn ftran(&mut self, v: &mut [f64]) {
        self.lu.solve_in_place(v, &mut self.tmp);
        for eta in &self.etas {
            let r = eta.r as usize;
            let t = v[r] / eta.wr;
            if t != 0.0 {
                for &(i, wi) in &eta.w {
                    v[i as usize] -= wi * t;
                }
            }
            v[r] = t;
        }
    }

    /// BTRAN: `v <- B⁻ᵀ v` (`v` indexed by basis position in, original row
    /// coordinates out).
    fn btran(&mut self, v: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let r = eta.r as usize;
            let mut acc = v[r];
            for &(i, wi) in &eta.w {
                acc -= wi * v[i as usize];
            }
            v[r] = acc / eta.wr;
        }
        self.lu.solve_transpose_in_place(v, &mut self.tmp);
    }

    /// Simplex multipliers for cost vector `cost` (indexed by internal
    /// column): `y = B⁻ᵀ c_B`, in original row coordinates, written over
    /// `y`.
    fn multipliers_into(&mut self, cost: &[f64], y: &mut Vec<f64>) {
        y.clear();
        y.extend(self.basis_cols.iter().map(|&c| cost[c]));
        self.btran(y);
    }

    /// [`Rev::multipliers_into`] into a new vector.
    fn multipliers(&mut self, cost: &[f64]) -> Vec<f64> {
        let mut y = Vec::with_capacity(self.sys.m());
        self.multipliers_into(cost, &mut y);
        y
    }

    /// Reduced cost of column `j` given multipliers `y`.
    fn reduced_cost(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let (rows, vals) = self.sys.col(j);
        let mut dot = 0.0;
        for (&r, &v) in rows.iter().zip(vals) {
            dot += y[r as usize] * v;
        }
        cost[j] - dot
    }

    /// The columns that may enter in the current phase, ascending: all but
    /// those pinned to zero (dead-source pins, presolve-fixed columns, and
    /// artificials once retired). Bounds only change between phases, so a
    /// phase lists them once.
    fn enterable(&self) -> Vec<usize> {
        (0..self.sys.total_cols)
            .filter(|&j| self.ub[j] != 0.0)
            .collect()
    }

    /// Runs one entering step for column `q`: ratio test, then either a
    /// bound flip or a basis change. `bland` says whether Bland's rule is
    /// on, which decides how the ratio test breaks an exact tie. Returns
    /// `Err(Unbounded)` when no step length limits the move.
    fn step(&mut self, q: usize, bland: bool) -> Result<(), LpError> {
        // w = B⁻¹ a_q, in a buffer kept across steps.
        let mut w = std::mem::take(&mut self.w);
        w.clear();
        w.resize(self.sys.m(), 0.0);
        self.sys.for_col(q, |r, v| w[r] += v);
        self.ftran(&mut w);
        let result = self.move_along(q, &w, bland);
        self.w = w;
        result
    }

    /// The rest of [`Rev::step`], given the FTRAN'd entering column `w`.
    fn move_along(&mut self, q: usize, w: &[f64], bland: bool) -> Result<(), LpError> {
        let dir: f64 = if self.status[q] == Status::Lower {
            1.0
        } else {
            -1.0
        };

        // Bounded ratio test: the entering variable moves by t ≥ 0 toward
        // its opposite bound; each basic variable moves by −dir·w_i·t and
        // may hit its lower or upper bound first.
        let mut t_best = self.ub[q]; // Bound-flip step length (may be +∞).
        let mut leave: Option<(usize, bool)> = None; // (basis pos, to_upper)
        for (i, &wi) in w.iter().enumerate() {
            if wi == 0.0 {
                continue;
            }
            let s = dir * wi;
            let (t, to_upper) = if s > EPS {
                ((self.xb[i] / s).max(0.0), false)
            } else if s < -EPS {
                let ub_i = self.ub[self.basis_cols[i]];
                if !ub_i.is_finite() {
                    continue;
                }
                (((ub_i - self.xb[i]) / -s).max(0.0), true)
            } else {
                continue;
            };
            let better = match leave {
                _ if t < t_best => true,
                // Exact tie (a degenerate step ties every blocking row at
                // 0). Under Bland's rule the smallest leaving column index
                // wins, as its termination proof needs; in the warm-up the
                // largest pivot |w_i| wins first, so a degenerate step does
                // not divide by what is only rounding noise of a zero.
                Some((pi, _)) if t == t_best => {
                    let (a, b) = (wi.abs(), w[pi].abs());
                    if bland || a == b {
                        self.basis_cols[i] < self.basis_cols[pi]
                    } else {
                        a > b
                    }
                }
                _ => false,
            };
            if better {
                t_best = t;
                leave = Some((i, to_upper));
            }
        }

        match leave {
            None => {
                if !t_best.is_finite() {
                    return Err(LpError::Unbounded);
                }
                // Bound flip: q jumps to its opposite bound, basics absorb.
                for (i, &wi) in w.iter().enumerate() {
                    if wi != 0.0 {
                        self.xb[i] -= wi * dir * t_best;
                    }
                }
                self.status[q] = if self.status[q] == Status::Lower {
                    Status::Upper
                } else {
                    Status::Lower
                };
                self.pivots += 1;
                Ok(())
            }
            Some((r, to_upper)) => {
                let entering_value = if dir > 0.0 {
                    t_best
                } else {
                    self.ub[q] - t_best
                };
                for (i, &wi) in w.iter().enumerate() {
                    if i != r && wi != 0.0 {
                        self.xb[i] -= wi * dir * t_best;
                    }
                }
                let leaving = self.basis_cols[r];
                self.status[leaving] = if to_upper {
                    Status::Upper
                } else {
                    Status::Lower
                };
                self.status[q] = Status::Basic;
                self.basis_cols[r] = q;
                self.xb[r] = entering_value;
                self.pivots += 1;
                let wr = w[r];
                if wr.abs() < ETA_TOL || self.etas.len() >= REFACTOR_EVERY {
                    self.refactor()
                } else {
                    let entries: Vec<(u32, f64)> = w
                        .iter()
                        .enumerate()
                        .filter(|&(i, &wi)| i != r && wi != 0.0)
                        .map(|(i, &wi)| (i as u32, wi))
                        .collect();
                    self.etas.push(Eta {
                        r: r as u32,
                        wr,
                        w: entries,
                    });
                    Ok(())
                }
            }
        }
    }

    /// Runs simplex iterations to optimality for `cost`, pricing every
    /// column that may enter.
    fn optimize(&mut self, cost: &[f64]) -> Result<(), LpError> {
        let cols = self.enterable();
        self.price_and_pivot(cost, &cols, EPS)
    }

    /// Minimizes the secondary objective `sec` (the full system's
    /// `sqrt(j + 2)` weights written in this system's columns, see
    /// [`crate::presolve`]) over the current primary-optimal face, so every
    /// pivot path leaves at the same canonical vertex.
    ///
    /// Every column that enters has primary reduced cost ≈ 0, so the primary
    /// multipliers, and with them the face, do not change while it runs: the
    /// face set is fixed once from one BTRAN on entry. Of the enterable
    /// columns it holds those basic on entry (a basic column that leaves
    /// re-joins the face) and the nonbasic ones with `|d1| ≤ FACE_EPS`. Each
    /// pivot then costs one BTRAN for the secondary multipliers and prices
    /// the face set only, with the same pricing loop as [`Rev::optimize`].
    fn optimize_face(&mut self, cost: &[f64], sec: &[f64]) -> Result<(), LpError> {
        let y1 = self.multipliers(cost);
        let mut face = self.enterable();
        face.retain(|&j| {
            self.status[j] == Status::Basic || self.reduced_cost(cost, &y1, j).abs() <= FACE_EPS
        });
        self.price_and_pivot(sec, &face, FACE_EPS)?;
        #[cfg(feature = "audit")]
        self.audit_face(cost, sec);
        Ok(())
    }

    /// The pricing loop shared by [`Rev::optimize`] and
    /// [`Rev::optimize_face`]: prices the nonbasic columns of `cols`
    /// (ascending, all enterable) against fresh multipliers for `cost`. A
    /// column is eligible when its reduced-cost violation `viol` exceeds
    /// `tol`; until a warm-up budget runs out the eligible column with the
    /// largest `viol² / ‖a_j‖²` enters, ties to the smallest index
    /// (normalized pricing, see the module doc); after that the first
    /// eligible column wins (Bland), which rules out cycling. Stops when no
    /// column in `cols` is eligible, the same test under either rule.
    fn price_and_pivot(&mut self, cost: &[f64], cols: &[usize], tol: f64) -> Result<(), LpError> {
        let size = self.sys.m() + self.sys.total_cols;
        let limit = 200 * size + 1000;
        let warm_up = 20 * size + 200;
        let mut y = Vec::with_capacity(self.sys.m());
        for iter in 0..limit {
            self.multipliers_into(cost, &mut y);
            let bland = iter >= warm_up;
            let mut entering = None;
            let mut best = 0.0;
            for &j in cols {
                let viol = match self.status[j] {
                    Status::Lower => -self.reduced_cost(cost, &y, j),
                    Status::Upper => self.reduced_cost(cost, &y, j),
                    Status::Basic => continue,
                };
                if viol > tol {
                    if bland {
                        entering = Some(j);
                        break;
                    }
                    let score = viol * viol / self.norm2[j];
                    if score > best {
                        best = score;
                        entering = Some(j);
                    }
                }
            }
            let Some(q) = entering else {
                return Ok(());
            };
            self.step(q, bland)?;
        }
        Err(LpError::IterationLimit)
    }

    /// Audit: the cached face set missed no face column. At the terminal
    /// basis, with both multipliers recomputed, the full-scan rule (any
    /// column that may enter, has `|d1| ≤ FACE_EPS` and violates the
    /// secondary sign condition) finds nothing to enter.
    #[cfg(feature = "audit")]
    fn audit_face(&mut self, cost: &[f64], sec: &[f64]) {
        let y1 = self.multipliers(cost);
        let y2 = self.multipliers(sec);
        let missed = (0..self.sys.total_cols).find(|&j| {
            self.ub[j] != 0.0 && self.reduced_cost(cost, &y1, j).abs() <= FACE_EPS && {
                let d2 = self.reduced_cost(sec, &y2, j);
                match self.status[j] {
                    Status::Lower => d2 < -FACE_EPS,
                    Status::Upper => d2 > FACE_EPS,
                    Status::Basic => false,
                }
            }
        });
        assert!(
            missed.is_none(),
            "lp audit: face cleanup stopped with column {missed:?} still eligible \
             under the full-scan rule"
        );
    }

    /// Phase-1 objective value: total residual in the artificial columns.
    fn artificial_residual(&self) -> f64 {
        self.basis_cols
            .iter()
            .zip(&self.xb)
            .filter(|&(&c, _)| c >= self.sys.art_start)
            .map(|(_, &x)| x.max(0.0))
            .sum()
    }

    /// Retires the artificials after phase 1: pinned to zero, never to
    /// re-enter. Basic artificials may remain (redundant rows) — they sit
    /// within tolerance of zero and the entering bar keeps them there.
    fn retire_artificials(&mut self) {
        for c in self.sys.art_start..self.sys.total_cols {
            self.ub[c] = 0.0;
        }
    }

    /// Extracts the final [`Solution`] on the full system `full` through
    /// the shared canonical refinement (with terminal-basis and raw-state
    /// fallbacks): `pre` maps this reduced basis back to a full one.
    fn extract(
        mut self,
        full: &NormSystem,
        pre: &Presolve,
        objective: &[f64],
        upper: &[f64],
    ) -> Solution {
        let basis_cols = pre.full_basis(full, &self.basis_cols);
        let at_upper = self.at_upper();
        let refined = refine_canonical(full, objective, upper, &at_upper, &basis_cols)
            .or_else(|| refine_from_basis(full, objective, upper, &at_upper, &basis_cols));
        let (values, mut duals, objective_value) = match refined {
            Some(r) => r,
            None => self.raw_package(full, pre, objective),
        };
        pre.zero_dropped_duals(&mut duals);
        Solution {
            values,
            objective: objective_value,
            duals,
            pivots: self.pivots,
        }
    }

    /// Last-resort packaging straight from solver state, used only when the
    /// refinement LU rejects the terminal basis (numerically singular).
    fn raw_package(
        &mut self,
        full: &NormSystem,
        pre: &Presolve,
        objective: &[f64],
    ) -> (Vec<f64>, Vec<f64>, f64) {
        let mut values = vec![0.0; self.sys.num_vars];
        for (j, v) in values.iter_mut().enumerate() {
            if self.status[j] == Status::Upper {
                *v = self.ub[j];
            }
        }
        for (i, &j) in self.basis_cols.iter().enumerate() {
            if j < self.sys.num_vars {
                values[j] = self.xb[i].max(0.0).min(self.ub[j]);
            }
        }
        pre.fill_fixed(full, &mut values);
        let objective_value = values
            .iter()
            .zip(objective)
            .map(|(x, c)| x * c)
            .sum::<f64>();
        let mut cost = vec![0.0; self.sys.total_cols];
        cost[..self.sys.num_vars].copy_from_slice(objective);
        let y = pre.full_multipliers(full, &self.multipliers(&cost), objective);
        (values, user_duals(full, &y), objective_value)
    }
}

/// Solves `min c^T x` s.t. `constraints`, `0 ≤ x ≤ upper` on the rows
/// `presolve` keeps ([`Presolve::new`] behind [`crate::Problem::solve`]).
/// The cost vector must already be in minimization sense.
pub(crate) fn solve_sparse(
    num_vars: usize,
    objective: &[f64],
    constraints: &[Constraint],
    upper: &[f64],
    presolve: fn(&NormSystem, &[f64]) -> Presolve,
) -> Result<Solution, LpError> {
    let full = NormSystem::build(num_vars, constraints);
    let pre = presolve(&full, upper);
    let sys = &pre.sys;
    let mut rev = Rev::new(sys, &pre.upper)?;

    // Phase 1: minimize the sum of artificials.
    if sys.total_cols > sys.art_start {
        let mut c1 = vec![0.0; sys.total_cols];
        for c in c1.iter_mut().skip(sys.art_start) {
            *c = 1.0;
        }
        rev.optimize(&c1)?;
        if rev.artificial_residual() > 1e-7 {
            return Err(LpError::Infeasible);
        }
        rev.retire_artificials();
    }

    // Phase 2 + canonical face cleanup. Retired artificials (ub = 0) never
    // re-enter, like the dead-source pins.
    let mut c2 = vec![0.0; sys.total_cols];
    c2[..num_vars].copy_from_slice(objective);
    rev.optimize(&c2)?;
    rev.optimize_face(&c2, &pre.sec)?;
    Ok(rev.extract(&full, &pre, objective, upper))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Problem, Relation};

    /// `Rev::refactor` factors the unit columns first whatever order the
    /// basis positions hold. A basis of one dense structural column at
    /// position 0 and `m − 1` slacks then factors with no entry beyond the
    /// input's; in stored order it would fill `O(m²)` (see
    /// `unit_columns_first_factor_without_fill` in `sparsela.rs`).
    #[test]
    fn refactor_factors_unit_columns_first() {
        let m = 100;
        let mut p = Problem::minimize(1);
        for _ in 0..m {
            p.add_constraint(&[(0, 1.0)], Relation::Le, 1.0);
        }
        let sys = NormSystem::build(1, p.constraints());
        let mut rev = Rev::new(&sys, &[f64::INFINITY]).unwrap();
        rev.basis_cols = std::iter::once(0)
            .chain(sys.init_basis[..m - 1].iter().copied())
            .collect();
        rev.status[0] = Status::Basic;
        rev.status[sys.init_basis[m - 1]] = Status::Lower;
        rev.refactor().unwrap();
        assert_eq!(rev.basis_cols[m - 1], 0);
        assert_eq!(rev.lu.nnz(), 2 * m - 1);
    }

    /// A basis holding one column at two positions is singular, and
    /// `Rev::refactor` says so with its own error.
    #[test]
    fn refactor_reports_a_repeated_column_as_singular() {
        let mut p = Problem::minimize(2);
        p.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Le, 4.0);
        p.add_constraint(&[(0, 3.0), (1, 1.0)], Relation::Le, 6.0);
        let sys = NormSystem::build(2, p.constraints());
        let mut rev = Rev::new(&sys, &[f64::INFINITY; 2]).unwrap();
        rev.basis_cols = vec![0, 0];
        assert_eq!(rev.refactor().err(), Some(LpError::SingularBasis));
        assert_eq!(
            LpError::SingularBasis.to_string(),
            "simplex basis is numerically singular"
        );
    }
}
