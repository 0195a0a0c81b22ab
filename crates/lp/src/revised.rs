//! Sparse bounded-variable revised simplex — the default solver backend.
//!
//! Works on the shared [`NormSystem`] (CSC-stored normalized constraints,
//! `[structural | slack | artificial]` column layout) and never materializes
//! a tableau. The basis inverse is represented as a sparse LU factorization
//! ([`crate::sparsela::SparseLu`]) composed with a product-form eta file;
//! every pivot appends one eta (the FTRAN'd entering column), and the basis
//! is refactorized from scratch every [`REFACTOR_EVERY`] pivots or when a
//! pivot element is too small to divide by safely. Variable upper bounds are
//! handled natively: each column carries a status (basic / at lower bound /
//! at upper bound), the ratio test considers leaving-to-upper and
//! bound-flip steps, and `ub = 0` columns are simply never allowed to enter
//! (which is how the placement models pin dead sources without emitting
//! constraint rows, and how artificials are retired after phase 1 without
//! dropping redundant rows).
//!
//! Entering selection is Dantzig's rule for a warm-up period, then Bland's
//! rule. The canonical face cleanup afterwards minimizes the shared
//! `sqrt(j + 2)` secondary objective over the primary-optimal face, so this
//! backend and the dense oracle finish at the same vertex and the shared
//! refinement in [`crate::norm`] returns the same bits. The cleanup is
//! priced like phase 2: the face set is fixed once from one BTRAN of the
//! primary cost on entry (entering a column with primary reduced cost ≈ 0
//! leaves the primary multipliers unchanged), each pivot costs one BTRAN of
//! the secondary cost and prices only the face set, and entering uses the
//! same Dantzig-then-Bland loop as phase 1 and phase 2. The dense oracle
//! keeps Bland's rule for its cleanup; the irrational weights make the face
//! minimizer unique, so the two pivot paths still meet at one vertex.

use crate::norm::{bounded_rhs, refine_canonical, refine_from_basis, ColDef, NormSystem};
use crate::problem::Constraint;
use crate::sparsela::SparseLu;
use crate::types::{LpError, Solution, EPS, FACE_EPS};

/// Pivot threshold for basis refactorizations.
const LU_TOL: f64 = 1e-11;

/// Refactorize after this many etas have accumulated.
const REFACTOR_EVERY: usize = 64;

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
    pivots: usize,
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
        let mut rev = Rev {
            sys,
            ub,
            status,
            basis_cols,
            xb: vec![0.0; m],
            lu: SparseLu::empty(),
            etas: Vec::new(),
            pivots: 0,
        };
        rev.refactor()?;
        Ok(rev)
    }

    /// Rebuilds the LU factorization of the current basis and recomputes the
    /// basic values from scratch.
    fn refactor(&mut self) -> Result<(), LpError> {
        let m = self.sys.m();
        let sys = self.sys;
        let cols = &self.basis_cols;
        self.lu = SparseLu::factorize(
            m,
            |k, out| sys.for_col(cols[k], |r, v| out.push((r as u32, v))),
            LU_TOL,
        )
        .ok_or(LpError::IterationLimit)?;
        self.etas.clear();
        let at_upper = self.at_upper();
        let mut b = bounded_rhs(self.sys, &self.ub[..self.sys.num_vars], &at_upper);
        self.lu.solve_in_place(&mut b);
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
    fn ftran(&self, v: &mut [f64]) {
        self.lu.solve_in_place(v);
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
    fn btran(&self, v: &mut [f64]) {
        for eta in self.etas.iter().rev() {
            let r = eta.r as usize;
            let mut acc = v[r];
            for &(i, wi) in &eta.w {
                acc -= wi * v[i as usize];
            }
            v[r] = acc / eta.wr;
        }
        self.lu.solve_transpose_in_place(v);
    }

    /// Simplex multipliers for cost vector `cost` (indexed by internal
    /// column): `y = B⁻ᵀ c_B`, in original row coordinates.
    fn multipliers(&self, cost: &[f64]) -> Vec<f64> {
        let mut cb = vec![0.0f64; self.sys.m()];
        for (i, &c) in self.basis_cols.iter().enumerate() {
            cb[i] = cost[c];
        }
        self.btran(&mut cb);
        cb
    }

    /// Reduced cost of column `j` given multipliers `y`.
    fn reduced_cost(&self, cost: &[f64], y: &[f64], j: usize) -> f64 {
        let mut dot = 0.0;
        match self.sys.col_defs[j] {
            ColDef::Structural(v) => {
                for p in self.sys.col_ptr[v]..self.sys.col_ptr[v + 1] {
                    dot += y[self.sys.col_rows[p] as usize] * self.sys.col_vals[p];
                }
            }
            ColDef::RowUnit { row, sign } => dot = y[row] * sign,
        }
        cost[j] - dot
    }

    /// A column may never enter while pinned to zero (dead-source pins and
    /// retired artificials) or barred by the caller.
    fn may_enter(&self, barred: &[bool], j: usize) -> bool {
        self.status[j] != Status::Basic && !barred[j] && self.ub[j] != 0.0
    }

    /// Runs one entering step for column `q`: ratio test, then either a
    /// bound flip or a basis change. Returns `Err(Unbounded)` when no step
    /// length limits the move.
    fn step(&mut self, q: usize) -> Result<(), LpError> {
        let m = self.sys.m();
        let dir: f64 = if self.status[q] == Status::Lower {
            1.0
        } else {
            -1.0
        };
        // w = B⁻¹ a_q.
        let mut w = vec![0.0f64; m];
        self.sys.for_col(q, |r, v| w[r] += v);
        self.ftran(&mut w);

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
                None => false,
                // Exact tie: prefer the smallest leaving column index
                // (Bland-compatible, deterministic).
                Some((pi, _)) => t == t_best && self.basis_cols[i] < self.basis_cols[pi],
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
                if wr.abs() < ETA_TOL || self.etas.len() + 1 >= REFACTOR_EVERY {
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
    /// column.
    fn optimize(&mut self, cost: &[f64], barred: &[bool]) -> Result<(), LpError> {
        self.price_and_pivot(cost, barred, 0..self.sys.total_cols, EPS)
    }

    /// Minimizes the shared `sqrt(j + 2)` secondary objective over the
    /// current primary-optimal face — same semantics as the dense oracle's
    /// face cleanup, so both backends leave at the same canonical vertex.
    ///
    /// Every column that enters has primary reduced cost ≈ 0, so the primary
    /// multipliers, and with them the face, do not change while it runs: the
    /// face set is fixed once from one BTRAN on entry. It holds the columns
    /// basic on entry (a basic column that leaves re-joins the face) plus the
    /// nonbasic columns that may enter with `|d1| ≤ FACE_EPS`. Each pivot then
    /// costs one BTRAN for the secondary multipliers and prices the face set
    /// only, with the same Dantzig-then-Bland rule as [`Rev::optimize`].
    fn optimize_face(&mut self, cost: &[f64], barred: &[bool]) -> Result<(), LpError> {
        let n = self.sys.total_cols;
        let y1 = self.multipliers(cost);
        let face: Vec<usize> = (0..n)
            .filter(|&j| {
                self.status[j] == Status::Basic
                    || (self.may_enter(barred, j)
                        && self.reduced_cost(cost, &y1, j).abs() <= FACE_EPS)
            })
            .collect();
        let sec: Vec<f64> = (0..n).map(|j| ((j + 2) as f64).sqrt()).collect();
        self.price_and_pivot(&sec, barred, face.iter().copied(), FACE_EPS)?;
        #[cfg(feature = "audit")]
        self.audit_face(cost, &sec, barred);
        Ok(())
    }

    /// The pricing loop shared by [`Rev::optimize`] and
    /// [`Rev::optimize_face`]: prices `cols` (ascending) against fresh
    /// multipliers for `cost` and enters the largest reduced-cost violation
    /// beyond `tol`, ties to the smallest index (Dantzig), until a warm-up
    /// budget runs out; after that the first violation wins (Bland), which
    /// rules out cycling. Stops when no column in `cols` violates.
    fn price_and_pivot<I>(
        &mut self,
        cost: &[f64],
        barred: &[bool],
        cols: I,
        tol: f64,
    ) -> Result<(), LpError>
    where
        I: Iterator<Item = usize> + Clone,
    {
        let size = self.sys.m() + self.sys.total_cols;
        let limit = 200 * size + 1000;
        let dantzig_until = 20 * size + 200;
        for iter in 0..limit {
            let y = self.multipliers(cost);
            let bland = iter >= dantzig_until;
            let mut entering = None;
            let mut best = tol;
            for j in cols.clone() {
                if !self.may_enter(barred, j) {
                    continue;
                }
                let d = self.reduced_cost(cost, &y, j);
                let viol = match self.status[j] {
                    Status::Lower => -d,
                    Status::Upper => d,
                    Status::Basic => continue, // excluded by `may_enter`
                };
                if viol > best {
                    best = viol;
                    entering = Some(j);
                    if bland {
                        break;
                    }
                }
            }
            let Some(q) = entering else {
                return Ok(());
            };
            self.step(q)?;
        }
        Err(LpError::IterationLimit)
    }

    /// Audit: the cached face set missed no face column. At the terminal
    /// basis, with both multipliers recomputed, the full-scan rule (any
    /// column that may enter, has `|d1| ≤ FACE_EPS` and violates the
    /// secondary sign condition) finds nothing to enter.
    #[cfg(feature = "audit")]
    fn audit_face(&self, cost: &[f64], sec: &[f64], barred: &[bool]) {
        let y1 = self.multipliers(cost);
        let y2 = self.multipliers(sec);
        let missed = (0..self.sys.total_cols).find(|&j| {
            self.may_enter(barred, j) && self.reduced_cost(cost, &y1, j).abs() <= FACE_EPS && {
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

    /// Extracts the final [`Solution`] through the shared canonical
    /// refinement (with terminal-basis and raw-state fallbacks).
    fn extract(mut self, objective: &[f64], upper: &[f64]) -> Solution {
        let mut basis_cols = self.basis_cols.clone();
        basis_cols.sort_unstable();
        let at_upper = self.at_upper();
        let refined = refine_canonical(self.sys, objective, upper, &at_upper, &basis_cols)
            .or_else(|| refine_from_basis(self.sys, objective, upper, &at_upper, &basis_cols));
        let (values, duals, objective_value) = match refined {
            Some(r) => r,
            None => self.raw_package(objective),
        };
        Solution {
            values,
            objective: objective_value,
            duals,
            pivots: self.pivots,
        }
    }

    /// Last-resort packaging straight from solver state, used only when the
    /// refinement LU rejects the terminal basis (numerically singular).
    fn raw_package(&mut self, objective: &[f64]) -> (Vec<f64>, Vec<f64>, f64) {
        let mut values = vec![0.0; self.sys.num_vars];
        for (j, v) in values.iter_mut().enumerate() {
            if self.status[j] == Status::Upper {
                *v = self.ub[j];
            }
        }
        for (i, &c) in self.basis_cols.iter().enumerate() {
            if let ColDef::Structural(j) = self.sys.col_defs[c] {
                if j < self.sys.num_vars {
                    values[j] = self.xb[i].max(0.0).min(self.ub[j]);
                }
            }
        }
        let objective_value = values
            .iter()
            .zip(objective)
            .map(|(x, c)| x * c)
            .sum::<f64>();
        let mut cost = vec![0.0; self.sys.total_cols];
        cost[..self.sys.num_vars].copy_from_slice(objective);
        let y = self.multipliers(&cost);
        let duals = self
            .sys
            .rows
            .iter()
            .zip(&y)
            .map(|(row, &yr)| {
                let v = yr / row.scale;
                if row.flipped {
                    -v
                } else {
                    v
                }
            })
            .collect();
        (values, duals, objective_value)
    }
}

/// Solves `min c^T x` s.t. `constraints`, `0 ≤ x ≤ upper`. The cost
/// vector must already be in minimization sense. This is the default
/// backend behind [`crate::Problem::solve`].
pub(crate) fn solve_sparse(
    num_vars: usize,
    objective: &[f64],
    constraints: &[Constraint],
    upper: &[f64],
) -> Result<Solution, LpError> {
    let sys = NormSystem::build(num_vars, constraints);
    let mut rev = Rev::new(&sys, upper)?;

    // Phase 1: minimize the sum of artificials.
    if sys.total_cols > sys.art_start {
        let mut c1 = vec![0.0; sys.total_cols];
        for c in c1.iter_mut().skip(sys.art_start) {
            *c = 1.0;
        }
        let barred_p1 = vec![false; sys.total_cols];
        rev.optimize(&c1, &barred_p1)?;
        if rev.artificial_residual() > 1e-7 {
            return Err(LpError::Infeasible);
        }
        rev.retire_artificials();
    }

    // Phase 2 + canonical face cleanup. Artificials never re-enter; ub = 0
    // pins are enforced inside `may_enter`.
    let mut c2 = vec![0.0; sys.total_cols];
    c2[..num_vars].copy_from_slice(objective);
    let barred_p2: Vec<bool> = (0..sys.total_cols).map(|c| c >= sys.art_start).collect();
    rev.optimize(&c2, &barred_p2)?;
    rev.optimize_face(&c2, &barred_p2)?;
    Ok(rev.extract(objective, upper))
}
