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
//! A solve begins from one of two bases. Given a start point
//! ([`crate::Problem::set_start`]), [`Rev::start_from`] builds a crash
//! basis: the point's support (the slacks of the rows it leaves slack and
//! its positive structurals), eliminated units first with the extraction's
//! [`Completion`], plus the unit column of every row left unpivoted. The
//! slacks pivot on their own rows without fill, so the structurals, dense
//! epigraph columns included, only eliminate the block of the rows the
//! point holds tight. When that basis factors to a feasible basic solution
//! with no artificial above zero, phase 1 has nothing to do and phase 2
//! starts there. The placement models hand over the paper's In-Place plan
//! (map stages) and the reverse planner's slot-proportional plan (reduce
//! stages; the `W_min` plan where that one is no usable vertex), which no
//! map or reduce LP of the benchmark's workloads rejects. Without a start,
//! or when the crash basis is not feasible, the solve starts from the
//! slack/artificial basis and runs phase 1 as before. Both paths end in the
//! same face cleanup and refinement, so values and objective keep their
//! bits; duals come from the terminal basis and may differ at a
//! dual-degenerate optimum.
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
//! The solve owns its buffers and reuses them. A refactorization writes
//! the new LU over the previous one's arrays and work vectors
//! ([`SparseLu::refactor`]); the eta file is flat (one position, pivot and
//! CSR span per eta) and a refactorization empties it without freeing;
//! the FTRAN'd entering column is kept across pivots and the multipliers
//! across a phase's pivots.
//! The basis inverse and the extraction's work space
//! ([`crate::norm::Refinement`], whose [`Completion`] the crash basis
//! borrows first) sit in one per-thread scratch that a solve
//! takes and puts back and that every use re-initialises, so once a thread
//! has solved a problem of some size, a solve of that size allocates a
//! fixed number of buffers, whatever its pivots and refactorizations. The
//! buffers change where numbers are stored, never which operations run or
//! in what order.
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

use crate::norm::{bounded_rhs_into, clamp_value, user_duals, Completion, NormSystem, Refinement};
use crate::presolve::Presolve;
use crate::problem::{Problem, Relation};
use crate::sparsela::SparseLu;
use crate::types::{LpError, Solution, EPS, FACE_EPS};
use std::cell::Cell;

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

/// The product-form eta file, flat: eta `k` replaced basis position
/// `pos[k]`, whose pivot in the FTRAN'd entering column was `pivot[k]`; the
/// column's other nonzeros are `idx/val[ptr[k]..ptr[k + 1]]`, ascending by
/// position. A refactorization empties it and keeps its arrays.
#[derive(Default)]
struct EtaFile {
    pos: Vec<u32>,
    pivot: Vec<f64>,
    ptr: Vec<usize>,
    idx: Vec<u32>,
    val: Vec<f64>,
}

impl EtaFile {
    fn len(&self) -> usize {
        self.pos.len()
    }

    fn clear(&mut self) {
        self.pos.clear();
        self.pivot.clear();
        self.ptr.clear();
        self.ptr.push(0);
        self.idx.clear();
        self.val.clear();
    }

    /// Appends the eta of FTRAN'd entering column `w` pivoting at basis
    /// position `r`.
    fn push(&mut self, r: usize, w: &[f64]) {
        self.pos.push(r as u32);
        self.pivot.push(w[r]);
        for (i, &wi) in w.iter().enumerate() {
            if i != r && wi != 0.0 {
                self.idx.push(i as u32);
                self.val.push(wi);
            }
        }
        self.ptr.push(self.idx.len());
    }

    /// Applies the etas in order: `v <- E_k⁻¹ ⋯ E_1⁻¹ v`.
    fn ftran(&self, v: &mut [f64]) {
        for k in 0..self.len() {
            let r = self.pos[k] as usize;
            let t = v[r] / self.pivot[k];
            if t != 0.0 {
                for e in self.ptr[k]..self.ptr[k + 1] {
                    v[self.idx[e] as usize] -= self.val[e] * t;
                }
            }
            v[r] = t;
        }
    }

    /// Applies the transposed etas in reverse order.
    fn btran(&self, v: &mut [f64]) {
        for k in (0..self.len()).rev() {
            let r = self.pos[k] as usize;
            let mut acc = v[r];
            for e in self.ptr[k]..self.ptr[k + 1] {
                acc -= self.val[e] * v[self.idx[e] as usize];
            }
            v[r] = acc / self.pivot[k];
        }
    }
}

/// The basis inverse: the LU factorization of the basis at the last
/// refactorization, composed with the eta file of the basis changes since.
/// A refactorization writes over both and keeps their arrays.
#[derive(Default)]
struct BasisInverse {
    lu: SparseLu,
    etas: EtaFile,
}

/// The buffers whose sizes follow the pivot path: the basis inverse and
/// the extraction's work space. A solve takes its thread's scratch and
/// puts it back, so later solves on the thread allocate none of them once
/// they are large enough. Every use re-initialises what it reads; a solve
/// nested in another (none is today) would start from a fresh one.
#[derive(Default)]
struct Scratch {
    inverse: BasisInverse,
    refinement: Refinement,
}

thread_local! {
    static SCRATCH: Cell<Scratch> = Cell::new(Scratch::default());
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
    inv: &'a mut BasisInverse,
    /// Squared Euclidean norm of every internal column in this system (1
    /// for an empty column), the scale of normalized pricing.
    norm2: Vec<f64>,
    pivots: usize,
    /// The FTRAN'd entering column of the current step.
    w: Vec<f64>,
    /// The basis in its refactorization order, built before it replaces
    /// `basis_cols`.
    reordered: Vec<usize>,
}

impl<'a> Rev<'a> {
    /// Sets up the solver state with no basis yet; [`Rev::set_basis`] or
    /// [`Rev::start_from`] gives it one, factored into `inv`.
    fn new(sys: &'a NormSystem, upper: &[f64], inv: &'a mut BasisInverse) -> Self {
        let m = sys.m();
        let mut ub = vec![f64::INFINITY; sys.total_cols];
        ub[..sys.num_vars].copy_from_slice(upper);
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
        Rev {
            sys,
            ub,
            status: vec![Status::Lower; sys.total_cols],
            basis_cols: Vec::with_capacity(m),
            xb: Vec::with_capacity(m),
            inv,
            norm2,
            pivots: 0,
            w: Vec::with_capacity(m),
            reordered: Vec::with_capacity(m),
        }
    }

    /// Makes `cols` the basis, every other column at its lower bound, and
    /// factors it. The slack/artificial basis `sys.init_basis` is the
    /// phase-1 start.
    fn set_basis(&mut self, cols: &[usize]) -> Result<(), LpError> {
        self.basis_cols.clear();
        self.basis_cols.extend_from_slice(cols);
        self.mark_basis();
        self.refactor()
    }

    /// Sets every column's status from `basis_cols`: basic there, at its
    /// lower bound elsewhere.
    fn mark_basis(&mut self) {
        self.status.fill(Status::Lower);
        for &c in &self.basis_cols {
            self.status[c] = Status::Basic;
        }
    }

    /// The crash basis of the start point `x` (structural values): its
    /// support, the slacks of the rows it leaves slack by more than [`EPS`]
    /// and the columns that may enter with `x_j > 0`, is eliminated with
    /// `completion`, units first: the slacks in row order, each pivoting on
    /// its own row without fill, then the structurals in ascending column
    /// order, which leaves them only the block of the rows the point holds
    /// tight to eliminate. A support column that adds no rank is left out.
    /// Each row no chosen column pivots on gets its own unit column, the
    /// slack or, on an `=` row, the artificial, which keeps the basis
    /// nonsingular. Factored, the basis is the start when every basic
    /// value lies in `[−EPS, ub + EPS]` and no artificial is above `EPS`:
    /// its basic solution is then a feasible point and phase 1 has nothing
    /// to do. Returns whether it is; when it is not, the caller sets
    /// another basis.
    fn start_from(&mut self, x: &[f64], completion: &mut Completion) -> bool {
        let sys = self.sys;
        let m = sys.m();
        let ub = &self.ub;
        let value = |j: usize| {
            if x[j] > 0.0 && ub[j] != 0.0 {
                x[j]
            } else {
                0.0
            }
        };
        completion.reset(m);
        for (r, row) in sys.rows.iter().enumerate() {
            let activity: f64 = sys
                .terms(r)
                .iter()
                .map(|&(j, a)| a * value(j as usize))
                .sum();
            let slack = match row.rel {
                Relation::Le => row.rhs - activity,
                Relation::Ge => activity - row.rhs,
                Relation::Eq => continue,
            };
            if slack > EPS {
                completion.add(sys, sys.dual_col[r]);
            }
        }
        for j in (0..sys.num_vars).filter(|&j| value(j) > 0.0) {
            completion.add(sys, j);
        }
        self.basis_cols.clear();
        self.basis_cols.extend_from_slice(completion.chosen());
        self.basis_cols.extend(
            (0..m)
                .filter(|&r| !completion.pivots_on(r))
                .map(|r| sys.dual_col[r]),
        );
        self.mark_basis();
        self.refactor().is_ok()
            && self.basis_cols.iter().zip(&self.xb).all(|(&c, &v)| {
                let top = if c >= sys.art_start {
                    EPS
                } else {
                    self.ub[c] + EPS
                };
                v >= -EPS && v <= top
            })
    }

    /// Rebuilds the LU factorization of the current basis and recomputes the
    /// basic values from scratch. The basis positions are first stably
    /// partitioned with the unit columns (slacks, artificials) ahead of the
    /// structural ones, so the units pivot on their own rows without fill.
    /// Fails with [`LpError::SingularBasis`] when some column finds no pivot
    /// above [`LU_TOL`] (the basis is numerically singular).
    fn refactor(&mut self) -> Result<(), LpError> {
        let m = self.sys.m();
        let sys = self.sys;
        // Through a kept buffer: a stable sort would allocate on every
        // refactorization of a basis longer than its stack buffer.
        let n = sys.num_vars;
        self.reordered.clear();
        self.reordered
            .extend(self.basis_cols.iter().filter(|&&c| c >= n));
        self.reordered
            .extend(self.basis_cols.iter().filter(|&&c| c < n));
        std::mem::swap(&mut self.basis_cols, &mut self.reordered);
        let cols = &self.basis_cols;
        if !self.inv.lu.refactor(
            m,
            |k, out| sys.for_col(cols[k], |r, v| out.push((r as u32, v))),
            LU_TOL,
        ) {
            return Err(LpError::SingularBasis);
        }
        self.inv.etas.clear();
        let status = &self.status;
        let at_upper = (0..sys.num_vars).filter(|&j| status[j] == Status::Upper);
        bounded_rhs_into(sys, &self.ub[..sys.num_vars], at_upper, &mut self.xb);
        self.inv.lu.solve_in_place(&mut self.xb);
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
        self.inv.lu.solve_in_place(v);
        self.inv.etas.ftran(v);
    }

    /// BTRAN: `v <- B⁻ᵀ v` (`v` indexed by basis position in, original row
    /// coordinates out).
    fn btran(&mut self, v: &mut [f64]) {
        self.inv.etas.btran(v);
        self.inv.lu.solve_transpose_in_place(v);
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
                if w[r].abs() < ETA_TOL || self.inv.etas.len() >= REFACTOR_EVERY {
                    self.refactor()
                } else {
                    self.inv.etas.push(r, w);
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
        refinement: &mut Refinement,
    ) -> Solution {
        let basis_cols = pre.full_basis(full, &self.basis_cols);
        let at_upper = self.at_upper();
        let refined = refinement
            .canonical(full, objective, upper, &at_upper, &basis_cols)
            .or_else(|| refinement.terminal(full, objective, upper, &at_upper, &basis_cols));
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
                values[j] = clamp_value(self.xb[i], self.ub[j]);
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

/// Solves `min c^T x` s.t. the constraints of `p`, `0 ≤ x ≤ upper` on the
/// rows `presolve` keeps ([`Presolve::new`] behind [`crate::Problem::solve`]).
/// The cost vector `objective` must already be in minimization sense.
pub(crate) fn solve_sparse(
    p: &Problem,
    objective: &[f64],
    presolve: fn(&NormSystem, &[f64]) -> Presolve,
    start: Option<&[f64]>,
) -> Result<Solution, LpError> {
    let mut scratch = SCRATCH.with(Cell::take);
    let result = solve_in(p, objective, presolve, start, &mut scratch);
    SCRATCH.with(|s| s.set(scratch));
    result
}

/// [`solve_sparse`] in the buffers of `scratch`: from the crash basis of
/// `start` when [`Rev::start_from`] accepts it, else from the
/// slack/artificial basis through phase 1.
fn solve_in(
    p: &Problem,
    objective: &[f64],
    presolve: fn(&NormSystem, &[f64]) -> Presolve,
    start: Option<&[f64]>,
    scratch: &mut Scratch,
) -> Result<Solution, LpError> {
    let num_vars = p.num_vars();
    let upper = p.upper_bounds();
    let full = NormSystem::build(p);
    let pre = presolve(&full, upper);
    let sys = &pre.sys;
    let mut rev = Rev::new(sys, &pre.upper, &mut scratch.inverse);
    let started = start.is_some_and(|x| rev.start_from(x, scratch.refinement.completion()));

    if !started {
        rev.set_basis(&sys.init_basis)?;
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
        }
    }
    rev.retire_artificials();

    // Phase 2 + canonical face cleanup. Retired artificials (ub = 0) never
    // re-enter, like the dead-source pins.
    let mut c2 = vec![0.0; sys.total_cols];
    c2[..num_vars].copy_from_slice(objective);
    rev.optimize(&c2)?;
    rev.optimize_face(&c2, &pre.sec)?;
    Ok(rev.extract(&full, &pre, objective, upper, &mut scratch.refinement))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Problem;

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
        let sys = NormSystem::build(&p);
        let mut inv = BasisInverse::default();
        let mut rev = Rev::new(&sys, &[f64::INFINITY], &mut inv);
        rev.set_basis(&sys.init_basis).unwrap();
        rev.basis_cols = std::iter::once(0)
            .chain(sys.init_basis[..m - 1].iter().copied())
            .collect();
        rev.status[0] = Status::Basic;
        rev.status[sys.init_basis[m - 1]] = Status::Lower;
        rev.refactor().unwrap();
        assert_eq!(rev.basis_cols[m - 1], 0);
        assert_eq!(rev.inv.lu.nnz(), 2 * m - 1);
    }

    /// The crash basis of a vertex start is accepted with no artificial
    /// above zero, and its basic solution is the vertex; the one of a
    /// start that breaks a row is rejected, and the slack basis can then
    /// be set over it. The rows are those of `two_cover_rows` in
    /// `tests.rs`.
    #[test]
    fn crash_basis_is_the_start_vertex_or_rejected() {
        let mut p = Problem::minimize(2);
        p.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Ge, 4.0);
        p.add_constraint(&[(0, 3.0), (1, 1.0)], Relation::Ge, 6.0);
        p.add_constraint(&[(0, 1.0), (1, 1.0)], Relation::Le, 10.0);
        let sys = NormSystem::build(&p);
        let mut inv = BasisInverse::default();
        let mut completion = Completion::default();
        let mut rev = Rev::new(&sys, &[f64::INFINITY; 2], &mut inv);
        assert!(rev.start_from(&[4.0, 0.0], &mut completion));
        assert_eq!(rev.artificial_residual(), 0.0);
        let x0 = rev.basis_cols.iter().position(|&c| c == 0).unwrap();
        assert!((rev.xb[x0] - 4.0).abs() < 1e-12);
        assert!(rev.status[1] == Status::Lower);
        assert!(!rev.start_from(&[1.0, 0.0], &mut completion));
        rev.set_basis(&sys.init_basis).unwrap();
        assert!(rev.artificial_residual() > 0.0);
        assert!(rev.status[0] == Status::Lower);

        // A reduce-placement LP at its slot-proportional vertex: fractions
        // `r_x = S_x / ΣS`, with `T_shufl` and `T_red` dense columns over
        // the upload, download and compute rows. Every compute row and the
        // upload row of site 3 are tight; the slacks of the other rows are
        // eliminated first, each on its own row, then the structurals.
        let shuffle = [4.0, 0.0, 1.0, 2.0, 0.0, 3.0];
        let up = [1.0, 2.0, 1.0, 0.5, 1.0, 2.0];
        let down = [1.0, 1.0, 2.0, 1.0, 0.5, 1.0];
        let slots = [4.0, 2.0, 6.0, 1.0, 3.0, 8.0];
        let (n, work) = (shuffle.len(), 120.0);
        let total: f64 = shuffle.iter().sum();
        let all_slots: f64 = slots.iter().sum();
        let (t_shufl, t_red) = (n, n + 1);
        let mut p = Problem::minimize(n + 2);
        p.set_objective(&[(t_shufl, 1.0), (t_red, 1.0)]);
        for x in 0..n {
            let terms = [(x, -shuffle[x]), (t_shufl, -up[x])];
            p.add_constraint(&terms, Relation::Le, -shuffle[x]);
        }
        for x in 0..n {
            let terms = [(x, total - shuffle[x]), (t_shufl, -down[x])];
            p.add_constraint(&terms, Relation::Le, 0.0);
        }
        for (x, &s) in slots.iter().enumerate() {
            p.add_constraint(&[(x, work), (t_red, -s)], Relation::Le, 0.0);
        }
        let ones: Vec<(usize, f64)> = (0..n).map(|x| (x, 1.0)).collect();
        p.add_constraint(&ones, Relation::Eq, 1.0);
        let mut point: Vec<f64> = slots.iter().map(|s| s / all_slots).collect();
        point.push((0..n).fold(0.0, |t: f64, x| {
            let upload = shuffle[x] * (1.0 - point[x]) / up[x];
            t.max(upload).max((total - shuffle[x]) * point[x] / down[x])
        }));
        point.push((0..n).fold(0.0, |t: f64, x| t.max(work * point[x] / slots[x])));
        let sys = NormSystem::build(&p);
        let mut rev = Rev::new(&sys, &[f64::INFINITY; 8], &mut inv);
        assert!(rev.start_from(&point, &mut completion));
        assert_eq!(rev.artificial_residual(), 0.0);
        let units = completion.chosen().partition_point(|&c| c >= sys.num_vars);
        assert_eq!(
            units,
            2 * n - 1,
            "one slack per upload or download row but one"
        );
        assert!(completion.chosen()[units..]
            .iter()
            .all(|&c| c < sys.num_vars));
        for (j, &v) in point.iter().enumerate() {
            let at = rev.basis_cols.iter().position(|&c| c == j).unwrap();
            assert!((rev.xb[at] - v).abs() <= 1e-12 * v.max(1.0), "column {j}");
        }
    }

    /// A basis holding one column at two positions is singular, and
    /// `Rev::refactor` says so with its own error.
    #[test]
    fn refactor_reports_a_repeated_column_as_singular() {
        let mut p = Problem::minimize(2);
        p.add_constraint(&[(0, 1.0), (1, 2.0)], Relation::Le, 4.0);
        p.add_constraint(&[(0, 3.0), (1, 1.0)], Relation::Le, 6.0);
        let sys = NormSystem::build(&p);
        let mut inv = BasisInverse::default();
        let mut rev = Rev::new(&sys, &[f64::INFINITY; 2], &mut inv);
        rev.set_basis(&sys.init_basis).unwrap();
        rev.basis_cols = vec![0, 0];
        assert_eq!(rev.refactor().err(), Some(LpError::SingularBasis));
        assert_eq!(
            LpError::SingularBasis.to_string(),
            "simplex basis is numerically singular"
        );
    }
}
