//! Problem normalization, internal column layout, and canonical solution
//! refinement.
//!
//! The revised simplex ([`crate::revised`]) pivots on the normalized system
//! built here, or on the presolved part of it ([`crate::presolve`]), in the
//! `[structural | slack | artificial]` column layout, and extracts its
//! answer on the full system through the canonical refinement. The
//! refinement re-derives values and duals from the original normalized data
//! by deterministic sparse LU solves (`B x_B = b'`, `Bᵀ y = c_B`), erasing
//! the floating-point history of whichever pivot sequence found the optimal
//! vertex. Two pivot paths that reach the same vertex therefore return
//! bit-identical values and objective, which is what the `audit` feature
//! checks between the presolved and the unreduced solve
//! (`problem::certify::audit`).
//!
//! The matrix is one CSC over every internal column, the unit columns
//! included, so the solver prices and FTRANs a column by reading flat
//! arrays. At a degenerate vertex the refinement completes the support to
//! a canonical basis by greedy elimination ([`Completion::complete`]), which
//! eliminates a candidate only against the chosen columns whose pivot row
//! it touches; that performs the same updates, in the same order, as
//! eliminating it against every chosen column. The canonical basis is then
//! factored for its values only, since the duals come from the terminal
//! one.

use crate::problem::{Problem, Relation};
use crate::sparsela::SparseLu;
use crate::types::SUPPORT_EPS;

/// Pivot threshold for refinement LU factorizations, the same as the
/// solver's own refactorizations.
const LU_TOL: f64 = 1e-11;

/// One normalized constraint row: non-negative RHS, unit max magnitude.
/// Its coefficient terms live in the system's row storage
/// ([`NormSystem::terms`]).
#[derive(Debug, Clone, Copy)]
pub(crate) struct Row {
    pub rel: Relation,
    pub rhs: f64,
    pub scale: f64,
    pub flipped: bool,
}

/// The normalized system plus the full internal column layout.
pub(crate) struct NormSystem {
    pub rows: Vec<Row>,
    /// Row `r`'s coefficient terms are `row_terms[row_ptr[r]..row_ptr[r +
    /// 1]]`, sorted by variable index with duplicates summed and exact
    /// zeros dropped.
    row_ptr: Vec<usize>,
    row_terms: Vec<(u32, f64)>,
    pub num_vars: usize,
    /// CSC of every internal column: column `c` holds rows
    /// `col_rows[col_ptr[c]..col_ptr[c + 1]]` (ascending) with values
    /// `col_vals[..]`. Columns below `num_vars` are the structural
    /// variables; each one past them is a ±1 unit column (slack, surplus or
    /// artificial) with a single entry on its row.
    pub col_ptr: Vec<usize>,
    pub col_rows: Vec<u32>,
    pub col_vals: Vec<f64>,
    /// First artificial column (phase-2 entering bar).
    pub art_start: usize,
    /// Total internal columns (structural + slack + artificial).
    pub total_cols: usize,
    /// For each constraint: the unit column whose reduced cost prices its
    /// dual, the slack or surplus of an inequality and the artificial of an
    /// equality.
    pub dual_col: Vec<usize>,
    /// Initial basic column of each row (slack for `≤`, artificial
    /// otherwise).
    pub init_basis: Vec<usize>,
}

/// Sums the duplicate indices of the row stored in `terms[start..]` in
/// encounter order (stable sort), then drops its exact zeros, in place.
fn sum_duplicates(terms: &mut Vec<(u32, f64)>, start: usize) {
    let row = &mut terms[start..];
    if !row.is_sorted_by_key(|&(i, _)| i) {
        row.sort_by_key(|&(i, _)| i);
    }
    let mut end = start;
    for k in start..terms.len() {
        let (i, v) = terms[k];
        if end > start && terms[end - 1].0 == i {
            terms[end - 1].1 += v;
        } else {
            terms[end] = (i, v);
            end += 1;
        }
    }
    terms.truncate(end);
    let mut end = start;
    for k in start..terms.len() {
        if terms[k].1 != 0.0 {
            terms[end] = terms[k];
            end += 1;
        }
    }
    terms.truncate(end);
}

impl NormSystem {
    /// Normalizes the constraints of `p` (sparse accumulation,
    /// negative-RHS flip, unit max-magnitude rescale) and assembles the
    /// column layout.
    pub fn build(p: &Problem) -> Self {
        let m = p.num_constraints();
        let mut rows: Vec<Row> = Vec::with_capacity(m);
        let mut row_ptr: Vec<usize> = Vec::with_capacity(m + 1);
        row_ptr.push(0);
        let mut terms: Vec<(u32, f64)> = Vec::with_capacity(p.num_terms());
        for c in p.constraints() {
            let start = terms.len();
            terms.extend(c.terms.iter().map(|&(i, v)| (i as u32, v)));
            sum_duplicates(&mut terms, start);
            let row = &mut terms[start..];
            let mut rel = c.relation;
            let mut rhs = c.rhs;
            let mut flipped = false;
            if rhs < 0.0 {
                for t in row.iter_mut() {
                    t.1 = -t.1;
                }
                rhs = -rhs;
                flipped = true;
                rel = match rel {
                    Relation::Le => Relation::Ge,
                    Relation::Ge => Relation::Le,
                    Relation::Eq => Relation::Eq,
                };
            }
            let scale = row
                .iter()
                .map(|&(_, v)| v.abs())
                .fold(rhs.abs(), f64::max)
                .max(1e-300);
            for t in row.iter_mut() {
                t.1 /= scale;
            }
            rhs /= scale;
            rows.push(Row {
                rel,
                rhs,
                scale,
                flipped,
            });
            row_ptr.push(terms.len());
        }
        Self::from_rows(p.num_vars(), rows, row_ptr, terms)
    }

    /// Assembles the CSC and the column layout over already-normalized
    /// rows, row `r` holding the terms `terms[row_ptr[r]..row_ptr[r + 1]]`.
    /// [`NormSystem::build`] and the presolve's reduced system
    /// ([`crate::presolve`]) both end here.
    pub fn from_rows(
        num_vars: usize,
        rows: Vec<Row>,
        row_ptr: Vec<usize>,
        row_terms: Vec<(u32, f64)>,
    ) -> Self {
        let m = rows.len();
        // Column layout: structural, then one slack/surplus per inequality
        // in row order, then one artificial per `≥`/`=` row in row order.
        let num_slack = rows
            .iter()
            .filter(|r| !matches!(r.rel, Relation::Eq))
            .count();
        let num_art = rows
            .iter()
            .filter(|r| matches!(r.rel, Relation::Ge | Relation::Eq))
            .count();
        let art_start = num_vars + num_slack;
        let total_cols = art_start + num_art;

        // Transpose the row terms into the structural columns; each unit
        // column gets one entry, filled in with the layout below.
        let mut col_ptr = vec![0usize; total_cols + 1];
        for &(j, _) in &row_terms {
            col_ptr[j as usize + 1] += 1;
        }
        col_ptr[num_vars + 1..].fill(1);
        for c in 0..total_cols {
            col_ptr[c + 1] += col_ptr[c];
        }
        let nnz = col_ptr[total_cols];
        let mut col_rows = vec![0u32; nnz];
        let mut col_vals = vec![0.0f64; nnz];
        let mut cursor = col_ptr[..num_vars].to_vec();
        for (r, span) in row_ptr.windows(2).enumerate() {
            for &(j, v) in &row_terms[span[0]..span[1]] {
                let p = cursor[j as usize];
                col_rows[p] = r as u32;
                col_vals[p] = v;
                cursor[j as usize] = p + 1;
            }
        }
        let mut unit = |c: usize, row: usize, sign: f64| {
            col_rows[col_ptr[c]] = row as u32;
            col_vals[col_ptr[c]] = sign;
        };

        let mut dual_col = vec![0usize; m];
        let mut init_basis = vec![0usize; m];
        let mut next_slack = num_vars;
        let mut next_art = art_start;
        for (r, row) in rows.iter().enumerate() {
            match row.rel {
                Relation::Le => {
                    init_basis[r] = next_slack;
                    dual_col[r] = next_slack;
                    unit(next_slack, r, 1.0);
                    next_slack += 1;
                }
                Relation::Ge => {
                    dual_col[r] = next_slack;
                    unit(next_slack, r, -1.0);
                    next_slack += 1;
                    init_basis[r] = next_art;
                    unit(next_art, r, 1.0);
                    next_art += 1;
                }
                Relation::Eq => {
                    init_basis[r] = next_art;
                    dual_col[r] = next_art;
                    unit(next_art, r, 1.0);
                    next_art += 1;
                }
            }
        }

        NormSystem {
            rows,
            row_ptr,
            row_terms,
            num_vars,
            col_ptr,
            col_rows,
            col_vals,
            art_start,
            total_cols,
            dual_col,
            init_basis,
        }
    }

    /// Number of constraint rows.
    pub fn m(&self) -> usize {
        self.rows.len()
    }

    /// The coefficient terms of row `r`, ascending by variable.
    pub fn terms(&self, r: usize) -> &[(u32, f64)] {
        &self.row_terms[self.row_ptr[r]..self.row_ptr[r + 1]]
    }

    /// Total coefficient terms over all rows.
    pub fn num_terms(&self) -> usize {
        self.row_terms.len()
    }

    /// Rows and values of internal column `c`.
    pub fn col(&self, c: usize) -> (&[u32], &[f64]) {
        let range = self.col_ptr[c]..self.col_ptr[c + 1];
        (&self.col_rows[range.clone()], &self.col_vals[range])
    }

    /// Calls `f(row, value)` for every nonzero of internal column `c`.
    pub fn for_col<F: FnMut(usize, f64)>(&self, c: usize, mut f: F) {
        let (rows, vals) = self.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            f(r as usize, v);
        }
    }

    /// The row of unit column `c` (`c ≥ num_vars`).
    pub fn unit_row(&self, c: usize) -> usize {
        self.col_rows[self.col_ptr[c]] as usize
    }
}

/// Factorizes the basis matrix `B` given by `basis_cols` against the
/// normalized system into `lu`, in the given (ascending) column order.
/// `false` when the basis is not square or is (numerically) singular. The
/// order fixes the LU's rounding and with it the refined bits, so unlike
/// the solver's refactorization (unit columns first, see
/// [`crate::revised`]) this one must not reorder.
fn factorize_basis(sys: &NormSystem, basis_cols: &[usize], lu: &mut SparseLu) -> bool {
    let m = sys.m();
    basis_cols.len() == m
        && lu.refactor(
            m,
            |k, out| sys.for_col(basis_cols[k], |r, v| out.push((r as u32, v))),
            LU_TOL,
        )
}

/// Writes into `b` the right-hand side of the basic system with the
/// at-upper variables moved to their bounds: `b'_r = b_r − Σ_{j ∈ at_upper}
/// A_{r,j} · ub_j`, accumulated over `at_upper` in ascending order
/// (deterministic).
pub(crate) fn bounded_rhs_into(
    sys: &NormSystem,
    upper: &[f64],
    at_upper: impl IntoIterator<Item = usize>,
    b: &mut Vec<f64>,
) {
    b.clear();
    b.extend(sys.rows.iter().map(|r| r.rhs));
    for j in at_upper {
        let ub = upper[j];
        for p in sys.col_ptr[j]..sys.col_ptr[j + 1] {
            b[sys.col_rows[p] as usize] -= sys.col_vals[p] * ub;
        }
    }
}

/// Maps raw basis-system solutions into user-facing `(values, duals,
/// objective)`: structural values with a tolerant feasibility check, duals
/// rescaled and un-flipped back to the original constraint orientation.
pub(crate) fn package_solution(
    sys: &NormSystem,
    objective: &[f64],
    upper: &[f64],
    at_upper: &[usize],
    basis_cols: &[usize],
    xb: &[f64],
    y: &[f64],
) -> Option<(Vec<f64>, Vec<f64>, f64)> {
    let mut values = vec![0.0; sys.num_vars];
    for &j in at_upper {
        values[j] = upper[j];
    }
    for (k, &j) in basis_cols.iter().enumerate() {
        if j < sys.num_vars {
            if xb[k] < -1e-6 || xb[k] > upper[j] + 1e-6 {
                return None; // Refined vertex drifted infeasible.
            }
            values[j] = clamp_value(xb[k], upper[j]);
        }
    }
    let objective_value = values
        .iter()
        .zip(objective)
        .map(|(x, c)| x * c)
        .sum::<f64>();
    Some((values, user_duals(sys, y), objective_value))
}

/// Clamps a basic value into `[0, ub]`, with `+0.0` for every value that
/// is not positive: `f64::max` may return either zero for a `-0.0`
/// argument, and the sign it picks differs between build profiles.
pub(crate) fn clamp_value(x: f64, ub: f64) -> f64 {
    if x > 0.0 {
        x.min(ub)
    } else {
        0.0
    }
}

/// Maps multipliers in normalized row space back to the caller's
/// constraints: undo each row's rescale and, for a flipped row, its sign.
pub(crate) fn user_duals(sys: &NormSystem, y: &[f64]) -> Vec<f64> {
    sys.rows
        .iter()
        .zip(y)
        .map(|(row, &yr)| {
            let v = yr / row.scale;
            if row.flipped {
                -v
            } else {
                v
            }
        })
        .collect()
}

/// The work space of one answer's extraction, reused by every
/// factorization and solve in it: the refinement LU (the terminal basis,
/// then the canonical one), the bounded right-hand side, the basic values
/// and multipliers, the vertex support and the basis completion.
#[derive(Default)]
pub(crate) struct Refinement {
    lu: SparseLu,
    b: Vec<f64>,
    xb: Vec<f64>,
    y: Vec<f64>,
    support: Vec<usize>,
    completion: Completion,
}

impl Refinement {
    /// The basis completion's buffers, lent to the solver's crash basis
    /// ([`crate::revised`]) before the extraction needs them.
    pub fn completion(&mut self) -> &mut Completion {
        &mut self.completion
    }

    /// Factors `basis_cols`, then solves `B x_B = b'` into `xb` and
    /// `Bᵀ y = c_B` (the basis costs under the minimization-sense
    /// structural objective) into `y`. `false` when the basis does not
    /// factor.
    fn solve_basis(
        &mut self,
        sys: &NormSystem,
        objective: &[f64],
        upper: &[f64],
        at_upper: &[usize],
        basis_cols: &[usize],
    ) -> bool {
        if !factorize_basis(sys, basis_cols, &mut self.lu) {
            return false;
        }
        bounded_rhs_into(sys, upper, at_upper.iter().copied(), &mut self.b);
        self.xb.clone_from(&self.b);
        self.lu.solve_in_place(&mut self.xb);
        self.y.clear();
        self.y.extend(
            basis_cols
                .iter()
                .map(|&c| if c < sys.num_vars { objective[c] } else { 0.0 }),
        );
        self.lu.solve_transpose_in_place(&mut self.y);
        true
    }

    /// Canonical refinement: re-derives solution values and duals for a
    /// known terminal basis directly from the normalized constraint data.
    /// At a primal-degenerate optimal vertex several bases represent the
    /// same point, and two pivot paths (the presolved solve's and the
    /// unreduced one's) can legitimately terminate at different ones;
    /// refining from different basis matrices then disagrees in the last
    /// ulps. To make the reported *values* a function of the vertex rather
    /// than of the pivot path, the terminal basis is replaced before the
    /// value solve by a canonical one: the vertex's support columns (basic
    /// at a nonzero value, hence basic in *every* basis of this vertex)
    /// completed to rank `m` by scanning the non-artificial columns in fixed
    /// index order — a pure function of the support set. Any nonsingular
    /// completion yields the same basic solution (the completion columns
    /// sit at zero in it), so values and objective come out bit-identical
    /// for every pivot path that reaches this vertex.
    ///
    /// Duals are deliberately *not* taken from the canonical basis — a
    /// completion chosen without regard to reduced costs need not be
    /// dual-feasible. They are refined from the terminal basis instead,
    /// which keeps them valid shadow prices; at a dual-degenerate optimum
    /// two pivot paths may then report different (equally valid) dual
    /// vectors, which is why the audit compares values and objectives
    /// across paths, and checks each answer's duals by its certificate
    /// (`problem::certify`).
    pub fn canonical(
        &mut self,
        sys: &NormSystem,
        objective: &[f64],
        upper: &[f64],
        at_upper: &[usize],
        terminal_cols: &[usize],
    ) -> Option<(Vec<f64>, Vec<f64>, f64)> {
        if !self.solve_basis(sys, objective, upper, at_upper, terminal_cols) {
            return None;
        }
        // Vertex support: basic columns at a tolerantly nonzero value.
        // `terminal_cols` is sorted, so the support inherits that order.
        self.support.clear();
        self.support.extend(
            terminal_cols
                .iter()
                .zip(&self.xb)
                .filter(|&(_, &x)| x.abs() > SUPPORT_EPS)
                .map(|(&c, _)| c),
        );
        if self.support.len() == sys.m() {
            // Non-degenerate vertex: its basis is unique, nothing to replace.
            return package_solution(
                sys,
                objective,
                upper,
                at_upper,
                terminal_cols,
                &self.xb,
                &self.y,
            );
        }
        let canon = self
            .completion
            .complete(sys, upper, at_upper, &self.support)?;
        // Values from the canonical basis, duals from the terminal one.
        if !factorize_basis(sys, canon, &mut self.lu) {
            return None;
        }
        self.xb.clone_from(&self.b);
        self.lu.solve_in_place(&mut self.xb);
        package_solution(sys, objective, upper, at_upper, canon, &self.xb, &self.y)
    }

    /// Plain terminal-basis refinement (no canonicalization), used as the
    /// fallback when [`Refinement::canonical`] cannot complete a basis.
    pub fn terminal(
        &mut self,
        sys: &NormSystem,
        objective: &[f64],
        upper: &[f64],
        at_upper: &[usize],
        basis_cols: &[usize],
    ) -> Option<(Vec<f64>, Vec<f64>, f64)> {
        if !self.solve_basis(sys, objective, upper, at_upper, basis_cols) {
            return None;
        }
        package_solution(
            sys, objective, upper, at_upper, basis_cols, &self.xb, &self.y,
        )
    }
}

/// Marks a row no chosen column pivots on.
const UNCHOSEN: u32 = u32::MAX;

/// The basis completion of [`Refinement::canonical`] and of the solver's
/// crash basis: the chosen columns, each eliminated against the ones
/// chosen before it, and the candidate accumulator.
/// [`Completion::reset`] re-initialises all of it.
#[derive(Default)]
pub(crate) struct Completion {
    chosen: Vec<usize>,
    /// Chosen column `i` pivots on row `pivot_row[i]` with value
    /// `pivot_val[i]`. Its entries after elimination on the rows no column
    /// pivoted on when it was chosen are
    /// `red_row/red_val[red_ptr[i]..red_ptr[i + 1]]` (in no particular
    /// order, each row once).
    red_ptr: Vec<usize>,
    red_row: Vec<u32>,
    red_val: Vec<f64>,
    pivot_row: Vec<u32>,
    pivot_val: Vec<f64>,
    /// Row -> index of the chosen column pivoting on it, or [`UNCHOSEN`].
    chosen_at: Vec<u32>,
    /// The candidate column, dense, all `0.0` between candidates, and the
    /// rows it has touched.
    x: Vec<f64>,
    in_x: Vec<bool>,
    touched: Vec<u32>,
    /// One bit per chosen column whose pivot row the candidate touches.
    pending: Vec<u64>,
}

impl Completion {
    /// Completes the vertex support to a full basis by greedy sparse
    /// Gaussian elimination over the non-artificial columns in ascending
    /// index order, skipping columns that cannot sit basic at this vertex
    /// (pinned to zero or nonbasic at their upper bound), and returns it
    /// sorted. A pure function of the normalized system and the vertex
    /// descriptor — independent of which terminal basis the pivot path
    /// reached. Returns `None` if rank `m` is not reached (the caller then
    /// falls back to plain terminal-basis refinement).
    pub fn complete(
        &mut self,
        sys: &NormSystem,
        upper: &[f64],
        at_upper: &[usize],
        support: &[usize],
    ) -> Option<&[usize]> {
        let m = sys.m();
        self.reset(m);
        for &c in support {
            // The support of a vertex is linearly independent; a failure
            // here means the "vertex" was numerically degenerate beyond
            // repair.
            if !self.add(sys, c) {
                return None;
            }
        }
        // Structural columns that cannot be basic at this vertex: pinned to
        // zero, or parked at a positive upper bound. `support` and
        // `at_upper` are ascending, like the scan.
        let mut at_upper_iter = at_upper.iter().copied().peekable();
        let mut cannot_be_basic = |j: usize| {
            while at_upper_iter.next_if(|&u| u < j).is_some() {}
            upper[j] == 0.0 || at_upper_iter.peek() == Some(&j)
        };
        let mut support_iter = support.iter().copied().peekable();
        for c in 0..sys.art_start {
            if self.chosen.len() == m {
                break;
            }
            if support_iter.next_if_eq(&c).is_some() || (c < sys.num_vars && cannot_be_basic(c)) {
                continue;
            }
            self.add(sys, c);
        }
        // Redundant rows leave the non-artificial columns short of rank
        // `m`; fall back to artificial columns (basic at zero, like the
        // terminal basis keeps them) so the completion is still a pure
        // function of the support.
        for c in sys.art_start..sys.total_cols {
            if self.chosen.len() == m {
                break;
            }
            self.add(sys, c);
        }
        if self.chosen.len() != m {
            return None;
        }
        self.chosen.sort_unstable();
        Some(&self.chosen)
    }

    /// Starts an elimination over `m` rows with no column chosen.
    pub fn reset(&mut self, m: usize) {
        self.chosen.clear();
        self.red_ptr.clear();
        self.red_ptr.push(0);
        self.red_row.clear();
        self.red_val.clear();
        self.pivot_row.clear();
        self.pivot_val.clear();
        self.chosen_at.clear();
        self.chosen_at.resize(m, UNCHOSEN);
        self.x.clear();
        self.x.resize(m, 0.0);
        self.in_x.clear();
        self.in_x.resize(m, false);
        self.touched.clear();
        self.pending.clear();
        self.pending.resize(m.div_ceil(64), 0);
    }

    /// The columns chosen since the last [`Completion::reset`], in the
    /// order they were chosen.
    pub fn chosen(&self) -> &[usize] {
        &self.chosen
    }

    /// Whether a chosen column pivots on row `r`.
    pub fn pivots_on(&self, r: usize) -> bool {
        self.chosen_at[r] != UNCHOSEN
    }

    /// Eliminates column `c` against the chosen columns and chooses it if a
    /// pivot of magnitude `> 1e-7` remains on a row no chosen column
    /// pivots on (max magnitude, ties to the smallest row).
    ///
    /// The elimination visits only the chosen columns whose pivot row the
    /// candidate touches, drained in ascending chosen order from a bitset.
    /// Every other chosen column would find an exact zero on its pivot row
    /// and skip its update (`f != 0.0`), so the factors `f` and the updates
    /// on every row not yet pivoted on are those of a pass over every
    /// chosen column. A chosen column keeps no entry on the rows pivoted on
    /// before it (its own pivot row included): applying one could only
    /// change a row whose factor was already taken, and such rows are
    /// never pivot candidates, so dropping them changes nothing the
    /// completion decides and leaves each column's entries on the pivot
    /// rows of later columns, whose bits it queues.
    pub fn add(&mut self, sys: &NormSystem, c: usize) -> bool {
        let words = self.pending.len();
        let mut lo = words; // lowest word with a pending bit
        let (rows, vals) = sys.col(c);
        for (&r, &v) in rows.iter().zip(vals) {
            let r = r as usize;
            if !self.in_x[r] {
                self.in_x[r] = true;
                self.touched.push(r as u32);
            }
            self.x[r] += v;
            let i = self.chosen_at[r];
            if i != UNCHOSEN {
                let i = i as usize;
                self.pending[i / 64] |= 1 << (i % 64);
                lo = lo.min(i / 64);
            }
        }
        let mut w = lo;
        while w < words {
            let bits = self.pending[w];
            if bits == 0 {
                w += 1;
                continue;
            }
            self.pending[w] = bits & (bits - 1);
            let i = w * 64 + bits.trailing_zeros() as usize;
            let f = self.x[self.pivot_row[i] as usize] / self.pivot_val[i];
            if f != 0.0 {
                for e in self.red_ptr[i]..self.red_ptr[i + 1] {
                    let r = self.red_row[e] as usize;
                    if !self.in_x[r] {
                        self.in_x[r] = true;
                        self.touched.push(r as u32);
                    }
                    self.x[r] -= f * self.red_val[e];
                    let later = self.chosen_at[r];
                    if later != UNCHOSEN {
                        let later = later as usize;
                        self.pending[later / 64] |= 1 << (later % 64);
                    }
                }
            }
        }

        let mut best: Option<usize> = None;
        let mut best_mag = 1e-7;
        for &t in &self.touched {
            let r = t as usize;
            let mag = self.x[r].abs();
            if self.chosen_at[r] == UNCHOSEN
                && (mag > best_mag || (mag == best_mag && best.is_some_and(|b| r < b)))
            {
                best_mag = mag;
                best = Some(r);
            }
        }
        if let Some(p) = best {
            self.chosen_at[p] = self.chosen.len() as u32;
            self.chosen.push(c);
            for &t in &self.touched {
                let v = self.x[t as usize];
                if v != 0.0 && self.chosen_at[t as usize] == UNCHOSEN {
                    self.red_row.push(t);
                    self.red_val.push(v);
                }
            }
            self.red_ptr.push(self.red_row.len());
            self.pivot_row.push(p as u32);
            self.pivot_val.push(self.x[p]);
        }
        for &t in &self.touched {
            self.x[t as usize] = 0.0;
            self.in_x[t as usize] = false;
        }
        self.touched.clear();
        best.is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    /// The completion loop before the worklist, kept as the reference:
    /// every candidate is eliminated against every chosen column in chosen
    /// order, one `Vec` per chosen column.
    fn complete_basis_reference(
        sys: &NormSystem,
        upper: &[f64],
        at_upper: &[usize],
        support: &[usize],
    ) -> Option<Vec<usize>> {
        let m = sys.m();
        let mut chosen: Vec<usize> = Vec::with_capacity(m);
        let mut reduced: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        let mut pivot_rows: Vec<usize> = Vec::with_capacity(m);
        let mut pivot_vals: Vec<f64> = Vec::with_capacity(m);
        let mut row_used = vec![false; m];
        let mut scratch = vec![0.0f64; m];
        let mut touched: Vec<u32> = Vec::new();

        let mut add_column = |c: usize,
                              chosen: &mut Vec<usize>,
                              reduced: &mut Vec<Vec<(u32, f64)>>,
                              pivot_rows: &mut Vec<usize>,
                              pivot_vals: &mut Vec<f64>,
                              row_used: &mut [bool]|
         -> bool {
            for &t in &*touched {
                scratch[t as usize] = 0.0;
            }
            touched.clear();
            sys.for_col(c, |r, v| {
                if scratch[r] == 0.0 && v != 0.0 {
                    touched.push(r as u32);
                }
                scratch[r] += v;
            });
            for ((col, &p), &pv) in reduced.iter().zip(pivot_rows.iter()).zip(pivot_vals.iter()) {
                let f = scratch[p] / pv;
                if f != 0.0 {
                    for &(r, vr) in col {
                        if scratch[r as usize] == 0.0 {
                            touched.push(r);
                        }
                        scratch[r as usize] -= f * vr;
                    }
                }
            }
            let mut best: Option<usize> = None;
            let mut best_mag = 1e-7;
            for &t in &*touched {
                let r = t as usize;
                let mag = scratch[r].abs();
                if !row_used[r]
                    && (mag > best_mag || (mag == best_mag && best.is_some_and(|b| r < b)))
                {
                    best_mag = mag;
                    best = Some(r);
                }
            }
            let Some(p) = best else { return false };
            row_used[p] = true;
            chosen.push(c);
            let mut col: Vec<(u32, f64)> = touched
                .iter()
                .map(|&t| (t, scratch[t as usize]))
                .filter(|&(_, v)| v != 0.0)
                .collect();
            col.sort_by_key(|&(r, _)| r);
            col.dedup_by_key(|&mut (r, _)| r);
            reduced.push(col);
            pivot_rows.push(p);
            pivot_vals.push(scratch[p]);
            true
        };

        for &c in support {
            if !add_column(
                c,
                &mut chosen,
                &mut reduced,
                &mut pivot_rows,
                &mut pivot_vals,
                &mut row_used,
            ) {
                return None;
            }
        }
        let mut at_upper_iter = at_upper.iter().copied().peekable();
        let structural = |c: usize| upper.get(c).filter(|_| c < sys.num_vars);
        for c in 0..sys.art_start {
            if chosen.len() == m {
                break;
            }
            if support.binary_search(&c).is_ok() {
                continue;
            }
            if let Some(&ub) = structural(c) {
                if ub == 0.0 {
                    continue;
                }
                while at_upper_iter.peek().is_some_and(|&u| u < c) {
                    at_upper_iter.next();
                }
                if at_upper_iter.peek() == Some(&c) {
                    continue;
                }
            }
            add_column(
                c,
                &mut chosen,
                &mut reduced,
                &mut pivot_rows,
                &mut pivot_vals,
                &mut row_used,
            );
        }
        for c in sys.art_start..sys.total_cols {
            if chosen.len() == m {
                break;
            }
            add_column(
                c,
                &mut chosen,
                &mut reduced,
                &mut pivot_rows,
                &mut pivot_vals,
                &mut row_used,
            );
        }
        if chosen.len() != m {
            return None;
        }
        chosen.sort_unstable();
        Some(chosen)
    }

    /// A drawn constraint: terms, relation and right-hand side.
    type Drawn = (Vec<(usize, f64)>, Relation, f64);

    /// A random completion problem shaped like a degenerate vertex: sparse
    /// rows of every relation, about a fifth of them redundant (a copy of
    /// an earlier row, or the sum of two), zero right-hand sides, `ub = 0`
    /// pins, columns at a finite upper bound, and a support of a few
    /// columns that need not be independent.
    fn random_completion(seed: u64) -> (NormSystem, Vec<f64>, Vec<usize>, Vec<usize>) {
        let mut rng = StdRng::seed_from_u64(seed);
        let n = rng.gen_range(1..80);
        let m = rng.gen_range(1..120);
        let mut cons: Vec<Drawn> = Vec::with_capacity(m);
        for _ in 0..m {
            if cons.len() >= 2 && rng.gen_bool(0.2) {
                let a = cons[rng.gen_range(0..cons.len())].clone();
                let b = &cons[rng.gen_range(0..cons.len())];
                cons.push(if rng.gen_bool(0.5) {
                    a
                } else {
                    (
                        a.0.iter().chain(&b.0).copied().collect(),
                        Relation::Eq,
                        a.2 + b.2,
                    )
                });
                continue;
            }
            let terms = (0..rng.gen_range(1..5))
                .map(|_| {
                    let v = rng.gen_range(1..4) as f64;
                    (rng.gen_range(0..n), if rng.gen_bool(0.5) { v } else { -v })
                })
                .collect();
            let relation = [Relation::Le, Relation::Ge, Relation::Eq][rng.gen_range(0..3usize)];
            let rhs = if rng.gen_bool(0.4) {
                0.0
            } else {
                rng.gen_range(-3..6) as f64
            };
            cons.push((terms, relation, rhs));
        }
        let mut p = Problem::minimize(n);
        for (terms, relation, rhs) in &cons {
            p.add_constraint(terms, *relation, *rhs);
        }
        let sys = NormSystem::build(&p);
        let upper: Vec<f64> = (0..n)
            .map(|_| match rng.gen_range(0..10) {
                0 | 1 => 0.0,
                2..=4 => rng.gen_range(1..5) as f64,
                _ => f64::INFINITY,
            })
            .collect();
        let at_upper: Vec<usize> = (0..n)
            .filter(|&j| upper[j].is_finite() && upper[j] > 0.0 && rng.gen_bool(0.5))
            .collect();
        let mut support: Vec<usize> = (0..rng.gen_range(0..=m.min(12)))
            .map(|_| rng.gen_range(0..sys.total_cols))
            .filter(|&c| c >= n || (upper[c] != 0.0 && at_upper.binary_search(&c).is_err()))
            .collect();
        support.sort_unstable();
        support.dedup();
        (sys, upper, at_upper, support)
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The worklist completion picks the reference loop's columns, or
        /// fails where it fails.
        #[test]
        fn completion_matches_the_reference(seed in 0u64..u64::MAX) {
            let (sys, upper, at_upper, support) = random_completion(seed);
            prop_assert_eq!(
                Completion::default()
                    .complete(&sys, &upper, &at_upper, &support)
                    .map(<[usize]>::to_vec),
                complete_basis_reference(&sys, &upper, &at_upper, &support)
            );
        }
    }
}
