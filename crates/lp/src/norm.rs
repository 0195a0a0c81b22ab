//! Shared problem normalization, internal column layout, and canonical
//! solution refinement.
//!
//! Both solver backends — the sparse revised simplex ([`crate::revised`])
//! and the retained dense tableau oracle ([`crate::simplex`]) — run over
//! the *same* normalized system built here, use the *same*
//! `[structural | slack | artificial]` column layout, and extract their
//! final answers through the *same* canonical refinement. The refinement
//! re-derives values and duals from the original normalized data by
//! deterministic sparse LU solves (`B x_B = b'`, `Bᵀ y = c_B`), erasing the
//! floating-point history of whichever pivot sequence found the optimal
//! vertex. Two backends that reach the same vertex therefore return
//! bit-identical values and objective, which is what the `audit` feature's
//! sparse-vs-dense oracle checks.

use crate::problem::{Constraint, Relation};
use crate::sparsela::SparseLu;
use crate::types::SUPPORT_EPS;

/// Pivot threshold for refinement LU factorizations (matches the dense
/// solver's historical `lu_solve` threshold).
const LU_TOL: f64 = 1e-11;

/// One normalized constraint row in sparse form: non-negative RHS, unit
/// max magnitude, coefficient terms sorted by variable index with
/// duplicates summed and exact zeros dropped.
#[derive(Debug, Clone)]
pub(crate) struct Row {
    pub terms: Vec<(u32, f64)>,
    pub rel: Relation,
    pub rhs: f64,
    pub scale: f64,
    pub flipped: bool,
}

/// What each internal column is: a structural variable, or a ±1 unit column
/// (slack, surplus or artificial) attached to one row.
#[derive(Clone, Copy)]
pub(crate) enum ColDef {
    Structural(usize),
    RowUnit { row: usize, sign: f64 },
}

/// The normalized system plus the full internal column layout, shared by
/// both solver backends.
pub(crate) struct NormSystem {
    pub rows: Vec<Row>,
    pub num_vars: usize,
    /// CSC of the structural part of the normalized matrix: for variable
    /// `j`, rows `col_rows[col_ptr[j]..col_ptr[j+1]]` (ascending) hold
    /// values `col_vals[..]`.
    pub col_ptr: Vec<usize>,
    pub col_rows: Vec<u32>,
    pub col_vals: Vec<f64>,
    /// First artificial column (phase-2 entering bar).
    pub art_start: usize,
    /// Total internal columns (structural + slack + artificial).
    pub total_cols: usize,
    /// Definition of every internal column.
    pub col_defs: Vec<ColDef>,
    /// For each constraint: the auxiliary column whose final reduced cost
    /// yields its dual, and the sign relating that reduced cost to y.
    pub dual_col: Vec<usize>,
    pub dual_sign: Vec<f64>,
    /// Initial basic column of each row (slack for `≤`, artificial
    /// otherwise).
    pub init_basis: Vec<usize>,
}

impl NormSystem {
    /// Normalizes `constraints` (sparse accumulation, negative-RHS flip,
    /// unit max-magnitude rescale — arithmetic identical to the historical
    /// dense densify-and-rescale) and assembles the column layout.
    pub fn build(num_vars: usize, constraints: &[Constraint]) -> Self {
        let mut rows: Vec<Row> = Vec::with_capacity(constraints.len());
        let mut acc: Vec<(u32, f64)> = Vec::new();
        for c in constraints {
            // Sum duplicate indices in encounter order (stable sort), then
            // drop exact zeros.
            acc.clear();
            acc.extend(c.terms.iter().map(|&(i, v)| (i as u32, v)));
            acc.sort_by_key(|&(i, _)| i);
            let mut terms: Vec<(u32, f64)> = Vec::with_capacity(acc.len());
            for &(i, v) in &*acc {
                match terms.last_mut() {
                    Some(last) if last.0 == i => last.1 += v,
                    _ => terms.push((i, v)),
                }
            }
            terms.retain(|&(_, v)| v != 0.0);
            let mut rel = c.relation;
            let mut rhs = c.rhs;
            let mut flipped = false;
            if rhs < 0.0 {
                for t in &mut terms {
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
            let scale = terms
                .iter()
                .map(|&(_, v)| v.abs())
                .fold(rhs.abs(), f64::max)
                .max(1e-300);
            for t in &mut terms {
                t.1 /= scale;
            }
            rhs /= scale;
            rows.push(Row {
                terms,
                rel,
                rhs,
                scale,
                flipped,
            });
        }
        Self::from_rows(num_vars, rows)
    }

    /// Assembles the CSC and the column layout over already-normalized
    /// rows. [`NormSystem::build`] and the presolve's reduced system
    /// ([`crate::presolve`]) both end here.
    pub fn from_rows(num_vars: usize, rows: Vec<Row>) -> Self {
        let m = rows.len();
        // Transpose the row terms into CSC over structural columns.
        let mut col_ptr = vec![0usize; num_vars + 1];
        for row in &rows {
            for &(j, _) in &row.terms {
                col_ptr[j as usize + 1] += 1;
            }
        }
        for j in 0..num_vars {
            col_ptr[j + 1] += col_ptr[j];
        }
        let nnz = col_ptr[num_vars];
        let mut col_rows = vec![0u32; nnz];
        let mut col_vals = vec![0.0f64; nnz];
        let mut cursor = col_ptr.clone();
        for (r, row) in rows.iter().enumerate() {
            for &(j, v) in &row.terms {
                let p = cursor[j as usize];
                col_rows[p] = r as u32;
                col_vals[p] = v;
                cursor[j as usize] = p + 1;
            }
        }

        // Column layout: structural, then one slack/surplus per inequality
        // in row order, then one artificial per `≥`/`=` row in row order —
        // identical to the historical dense tableau layout.
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
        let mut col_defs: Vec<ColDef> = (0..num_vars).map(ColDef::Structural).collect();
        col_defs.resize(total_cols, ColDef::Structural(usize::MAX));
        let mut dual_col = vec![0usize; m];
        let mut dual_sign = vec![0.0f64; m];
        let mut init_basis = vec![0usize; m];
        let mut next_slack = num_vars;
        let mut next_art = art_start;
        for (r, row) in rows.iter().enumerate() {
            match row.rel {
                Relation::Le => {
                    init_basis[r] = next_slack;
                    // Reduced cost of a +1 slack is -y.
                    dual_col[r] = next_slack;
                    dual_sign[r] = -1.0;
                    col_defs[next_slack] = ColDef::RowUnit { row: r, sign: 1.0 };
                    next_slack += 1;
                }
                Relation::Ge => {
                    // Reduced cost of a -1 surplus is +y.
                    dual_col[r] = next_slack;
                    dual_sign[r] = 1.0;
                    col_defs[next_slack] = ColDef::RowUnit { row: r, sign: -1.0 };
                    next_slack += 1;
                    init_basis[r] = next_art;
                    col_defs[next_art] = ColDef::RowUnit { row: r, sign: 1.0 };
                    next_art += 1;
                }
                Relation::Eq => {
                    init_basis[r] = next_art;
                    // Equalities have no slack; the +1 artificial's phase-2
                    // reduced cost is -y (its own cost is zero).
                    dual_col[r] = next_art;
                    dual_sign[r] = -1.0;
                    col_defs[next_art] = ColDef::RowUnit { row: r, sign: 1.0 };
                    next_art += 1;
                }
            }
        }

        NormSystem {
            rows,
            num_vars,
            col_ptr,
            col_rows,
            col_vals,
            art_start,
            total_cols,
            col_defs,
            dual_col,
            dual_sign,
            init_basis,
        }
    }

    /// Number of constraint rows.
    pub fn m(&self) -> usize {
        self.rows.len()
    }

    /// Calls `f(row, value)` for every nonzero of internal column `c`.
    pub fn for_col<F: FnMut(usize, f64)>(&self, c: usize, mut f: F) {
        match self.col_defs[c] {
            ColDef::Structural(j) => {
                for p in self.col_ptr[j]..self.col_ptr[j + 1] {
                    f(self.col_rows[p] as usize, self.col_vals[p]);
                }
            }
            ColDef::RowUnit { row, sign } => f(row, sign),
        }
    }
}

/// Factorizes the basis matrix `B` given by `basis_cols` against the
/// normalized system, in the given (ascending) column order. `None` when
/// (numerically) singular. The order fixes the LU's rounding and with it
/// the refined bits, so unlike the solver's refactorization (unit columns
/// first, see [`crate::revised`]) this one must not reorder.
fn factorize_basis(sys: &NormSystem, basis_cols: &[usize]) -> Option<SparseLu> {
    let m = sys.m();
    SparseLu::factorize(
        m,
        |k, out| {
            sys.for_col(basis_cols[k], |r, v| out.push((r as u32, v)));
        },
        LU_TOL,
    )
}

/// Right-hand side of the basic system with the at-upper variables moved to
/// their bounds: `b'_r = b_r − Σ_{j ∈ at_upper} A_{r,j} · ub_j`, accumulated
/// over `at_upper` in ascending order (deterministic).
pub(crate) fn bounded_rhs(sys: &NormSystem, upper: &[f64], at_upper: &[usize]) -> Vec<f64> {
    let mut b: Vec<f64> = sys.rows.iter().map(|r| r.rhs).collect();
    for &j in at_upper {
        let ub = upper[j];
        for p in sys.col_ptr[j]..sys.col_ptr[j + 1] {
            b[sys.col_rows[p] as usize] -= sys.col_vals[p] * ub;
        }
    }
    b
}

/// Solves `B x_B = b'` and `Bᵀ y = c_B` for the given basis columns against
/// the normalized system via two deterministic sparse LU solves. Returns the
/// per-basis-position values and the dual vector in normalized-row space,
/// or `None` when the basis matrix is numerically singular.
pub(crate) fn basis_systems(
    sys: &NormSystem,
    objective: &[f64],
    upper: &[f64],
    at_upper: &[usize],
    basis_cols: &[usize],
) -> Option<(Vec<f64>, Vec<f64>)> {
    let m = sys.m();
    if basis_cols.len() != m {
        return None;
    }
    let lu = factorize_basis(sys, basis_cols)?;
    let b = bounded_rhs(sys, upper, at_upper);
    let xb = lu.solve(&b);
    // Basis costs under the (minimization-sense) structural objective.
    let cb: Vec<f64> = basis_cols
        .iter()
        .map(|&c| match sys.col_defs[c] {
            ColDef::Structural(j) if j < sys.num_vars => objective[j],
            _ => 0.0,
        })
        .collect();
    let y = lu.solve_transpose(&cb);
    Some((xb, y))
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
    for (k, &c) in basis_cols.iter().enumerate() {
        if let ColDef::Structural(j) = sys.col_defs[c] {
            if j < sys.num_vars {
                if xb[k] < -1e-6 || xb[k] > upper[j] + 1e-6 {
                    return None; // Refined vertex drifted infeasible.
                }
                values[j] = xb[k].max(0.0).min(upper[j]);
            }
        }
    }
    let objective_value = values
        .iter()
        .zip(objective)
        .map(|(x, c)| x * c)
        .sum::<f64>();
    Some((values, user_duals(sys, y), objective_value))
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

/// Whether `values` satisfies every normalized row to within
/// `1e-6 · (1 + Σ|a_j x_j|)`, a tolerance relative to the row's activity.
/// NaN anywhere fails the check.
pub(crate) fn rows_satisfied(sys: &NormSystem, values: &[f64]) -> bool {
    sys.rows.iter().all(|row| {
        let (lhs, activity) = row
            .terms
            .iter()
            .fold((0.0f64, 0.0f64), |(lhs, act), &(j, a)| {
                let t = a * values[j as usize];
                (lhs + t, act + t.abs())
            });
        let tol = 1e-6 * (1.0 + activity);
        match row.rel {
            Relation::Le => lhs - row.rhs <= tol,
            Relation::Ge => row.rhs - lhs <= tol,
            Relation::Eq => (lhs - row.rhs).abs() <= tol,
        }
    })
}

/// Canonical refinement: re-derives solution values and duals for a known
/// terminal basis directly from the normalized constraint data. At a
/// primal-degenerate optimal vertex several bases represent the same point,
/// and two pivot paths (the sparse solver's and the dense oracle's) can
/// legitimately terminate at different ones; refining from different basis
/// matrices then disagrees in the last ulps. To make the reported *values* a
/// function of the vertex rather than of the pivot path, the terminal basis
/// is replaced before the value solve by a canonical one: the vertex's
/// support columns (basic at a nonzero value, hence basic in *every* basis
/// of this vertex) completed to rank `m` by scanning the non-artificial
/// columns in fixed index order — a pure function of the support set. Any nonsingular
/// completion yields the same basic solution (the completion columns sit at
/// zero in it), so values and objective come out bit-identical for every
/// pivot path that reaches this vertex.
///
/// Duals are deliberately *not* taken from the canonical basis — a
/// completion chosen without regard to reduced costs need not be
/// dual-feasible. They are refined from the terminal basis instead, which
/// keeps them valid shadow prices; at a dual-degenerate optimum two pivot
/// paths may then report different (equally valid) dual vectors, which is
/// why the audit oracle compares values and objectives, not duals.
pub(crate) fn refine_canonical(
    sys: &NormSystem,
    objective: &[f64],
    upper: &[f64],
    at_upper: &[usize],
    terminal_cols: &[usize],
) -> Option<(Vec<f64>, Vec<f64>, f64)> {
    let m = sys.m();
    let (xb, y) = basis_systems(sys, objective, upper, at_upper, terminal_cols)?;
    // Vertex support: basic columns at a tolerantly nonzero value.
    // `terminal_cols` is sorted, so the support inherits that order.
    let support: Vec<usize> = terminal_cols
        .iter()
        .zip(&xb)
        .filter(|&(_, &x)| x.abs() > SUPPORT_EPS)
        .map(|(&c, _)| c)
        .collect();
    if support.len() == m {
        // Non-degenerate vertex: its basis is unique, nothing to replace.
        return package_solution(sys, objective, upper, at_upper, terminal_cols, &xb, &y);
    }
    let canon = complete_basis(sys, upper, at_upper, &support)?;
    let (cxb, _) = basis_systems(sys, objective, upper, at_upper, &canon)?;
    // Values from the canonical basis, duals from the terminal one.
    package_solution(sys, objective, upper, at_upper, &canon, &cxb, &y)
}

/// Plain terminal-basis refinement (no canonicalization), used as the
/// fallback when [`refine_canonical`] cannot complete a basis.
pub(crate) fn refine_from_basis(
    sys: &NormSystem,
    objective: &[f64],
    upper: &[f64],
    at_upper: &[usize],
    basis_cols: &[usize],
) -> Option<(Vec<f64>, Vec<f64>, f64)> {
    let (xb, y) = basis_systems(sys, objective, upper, at_upper, basis_cols)?;
    package_solution(sys, objective, upper, at_upper, basis_cols, &xb, &y)
}

/// Completes the vertex support to a full basis by greedy sparse Gaussian
/// elimination over the non-artificial columns in ascending index order,
/// skipping columns that cannot sit basic at this vertex (pinned to zero or
/// nonbasic at their upper bound). A pure function of the normalized system
/// and the vertex descriptor — independent of which terminal basis the
/// pivot path reached. Returns `None` if rank `m` is not reached (the
/// caller then falls back to plain terminal-basis refinement).
pub(crate) fn complete_basis(
    sys: &NormSystem,
    upper: &[f64],
    at_upper: &[usize],
    support: &[usize],
) -> Option<Vec<usize>> {
    let m = sys.m();
    let mut chosen: Vec<usize> = Vec::with_capacity(m);
    // Eliminated copies of the chosen columns (sparse) and their pivots.
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
        // Pivot: max magnitude over unused rows, ties to the smallest index.
        let mut best: Option<usize> = None;
        let mut best_mag = 1e-7;
        for &t in &*touched {
            let r = t as usize;
            let mag = scratch[r].abs();
            if !row_used[r] && (mag > best_mag || (mag == best_mag && best.is_some_and(|b| r < b)))
            {
                best_mag = mag;
                best = Some(r);
            }
        }
        let Some(p) = best else { return false };
        row_used[p] = true;
        chosen.push(c);
        // `touched` can hold duplicates (a row that cancels to exactly 0.0
        // mid-elimination is re-pushed when a later step revives it); the
        // stored column must carry each row once or later eliminations
        // would subtract it twice.
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
        // The support of a vertex is linearly independent; a failure here
        // means the "vertex" was numerically degenerate beyond repair.
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
    for c in 0..sys.art_start {
        if chosen.len() == m {
            break;
        }
        if support.binary_search(&c).is_ok() {
            continue;
        }
        // Columns that cannot be basic at this vertex: pinned to zero, or
        // parked at a positive upper bound.
        if let ColDef::Structural(j) = sys.col_defs[c] {
            if upper[j] == 0.0 {
                continue;
            }
            while at_upper_iter.peek().is_some_and(|&u| u < j) {
                at_upper_iter.next();
            }
            if at_upper_iter.peek() == Some(&j) {
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
    // Redundant rows leave the non-artificial columns short of rank `m`;
    // fall back to artificial columns (basic at zero, like the terminal
    // basis keeps them) so the completion is still a pure function of the
    // support.
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
