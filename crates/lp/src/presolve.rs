//! Presolve for the sparse path: the simplex runs on the rows that can
//! bind, and the answer is extracted on the full system.
//!
//! Two reductions, both read off the normalized system (right-hand sides
//! are non-negative there, so the tests are exact):
//!
//! - **Never-binding `≤` rows.** A `≤` row whose coefficients on unpinned
//!   columns are all `≤ 0` holds for every `x ≥ 0`. It is dropped; its slack
//!   is basic in the full terminal basis. The placement models carry many:
//!   a site with no data to send leaves a singleton `−c·T ≤ 0` row.
//! - **Fixing `=` rows.** An `=` row whose only unpinned column `j` appears
//!   in no other kept row fixes `x_j = rhs / a_rj`. When that value lies in
//!   `[0, ub_j]`, row and column leave the reduced system (the column is
//!   pinned at zero there) and `j` is basic in the full terminal basis. A
//!   source with no data, pinned in place, has such a row sum.
//!
//! The full problem's feasible set is the reduced one times the fixed
//! values, and its primary objective differs by a constant. So does the
//! canonical face cleanup's `sqrt(j + 2)` secondary objective, once it is
//! written in reduced columns: each dropped row's slack is
//! `s_r = rhs_r − Σ a_rj x_j`, so its weight `sqrt(s_r + 2)` folds into the
//! columns as `−a_rj · sqrt(s_r + 2)`; kept slacks keep their full-system
//! weights. The reduced cleanup therefore minimizes the same function over
//! the same face, lands on the same vertex, and the full terminal basis
//! (reduced basis, dropped slacks, fixed columns) refines to the same bits
//! through [`crate::norm::Refinement::canonical`].

use crate::norm::{NormSystem, Row};
use crate::problem::Relation;

/// The reduced system plus what it takes to map its answer back.
pub(crate) struct Presolve {
    /// The system the simplex runs on: the kept rows, the same structural
    /// columns.
    pub sys: NormSystem,
    /// Structural bounds for the reduced solve: the caller's, with each
    /// fixed column pinned at zero.
    pub upper: Vec<f64>,
    /// Secondary cleanup weight of each reduced internal column.
    pub sec: Vec<f64>,
    /// Full-system internal column of each reduced internal column.
    col_map: Vec<usize>,
    /// Full-system row of each reduced row.
    kept: Vec<usize>,
    /// The dropped `≤` rows, ascending.
    dropped: Vec<usize>,
    /// `(row, column, normalized coefficient)` of each fixing `=` row.
    fixed: Vec<(usize, usize, f64)>,
}

impl Presolve {
    /// Reduces `full` under the structural bounds `upper`.
    pub fn new(full: &NormSystem, upper: &[f64]) -> Self {
        let unpinned = |j: u32| upper[j as usize] != 0.0;
        let never_binds: Vec<bool> = full
            .rows
            .iter()
            .enumerate()
            .map(|(r, row)| {
                row.rel == Relation::Le
                    && full.terms(r).iter().all(|&(j, a)| a <= 0.0 || !unpinned(j))
            })
            .collect();
        // Number of non-dropped rows each structural column appears in.
        let uses: Vec<usize> = (0..full.num_vars)
            .map(|j| {
                full.col_rows[full.col_ptr[j]..full.col_ptr[j + 1]]
                    .iter()
                    .filter(|&&r| !never_binds[r as usize])
                    .count()
            })
            .collect();
        let mut fixed = Vec::new();
        for (r, row) in full.rows.iter().enumerate() {
            if row.rel != Relation::Eq {
                continue;
            }
            let mut live = full.terms(r).iter().filter(|&&(j, _)| unpinned(j));
            if let (Some(&(j, a)), None) = (live.next(), live.next()) {
                let j = j as usize;
                let value = row.rhs / a;
                if uses[j] == 1 && value >= 0.0 && value <= upper[j] {
                    fixed.push((r, j, a));
                }
            }
        }

        Self::reduce(full, upper, never_binds, fixed)
    }

    /// The presolve that keeps every row: the simplex pivots on the full
    /// system itself.
    #[cfg(any(test, feature = "audit"))]
    pub fn keep_all(full: &NormSystem, upper: &[f64]) -> Self {
        Self::reduce(full, upper, vec![false; full.m()], Vec::new())
    }

    /// Drops the `never_binds` rows and the `fixed` rows with their columns.
    fn reduce(
        full: &NormSystem,
        upper: &[f64],
        never_binds: Vec<bool>,
        fixed: Vec<(usize, usize, f64)>,
    ) -> Self {
        let mut removed = never_binds.clone();
        let mut red_upper = upper.to_vec();
        for &(r, j, _) in &fixed {
            removed[r] = true;
            red_upper[j] = 0.0;
        }
        let kept: Vec<usize> = (0..full.m()).filter(|&r| !removed[r]).collect();
        let rows: Vec<Row> = kept.iter().map(|&r| full.rows[r]).collect();
        let mut row_ptr = Vec::with_capacity(kept.len() + 1);
        row_ptr.push(0);
        let mut row_terms = Vec::with_capacity(full.num_terms());
        for &r in &kept {
            row_terms.extend_from_slice(full.terms(r));
            row_ptr.push(row_terms.len());
        }
        let sys = NormSystem::from_rows(full.num_vars, rows, row_ptr, row_terms);
        // Slacks map through `dual_col` (a `≤`/`≥` row's slack or surplus),
        // artificials through `init_basis` (a `≥`/`=` row's artificial).
        let col_map: Vec<usize> = (0..sys.total_cols)
            .map(|c| {
                if c < sys.num_vars {
                    c
                } else if c < sys.art_start {
                    full.dual_col[kept[sys.unit_row(c)]]
                } else {
                    full.init_basis[kept[sys.unit_row(c)]]
                }
            })
            .collect();

        let dropped: Vec<usize> = (0..full.m()).filter(|&r| never_binds[r]).collect();
        let mut sec: Vec<f64> = col_map.iter().map(|&c| ((c + 2) as f64).sqrt()).collect();
        for &r in &dropped {
            // A `≤` row's initial basic column is its slack.
            let w = ((full.init_basis[r] + 2) as f64).sqrt();
            for &(j, a) in full.terms(r) {
                sec[j as usize] -= a * w;
            }
        }

        Presolve {
            sys,
            upper: red_upper,
            sec,
            col_map,
            kept,
            dropped,
            fixed,
        }
    }

    /// The full system's terminal basis, sorted: the reduced basis mapped
    /// to full columns, plus the dropped rows' slacks and the fixed columns.
    pub fn full_basis(&self, full: &NormSystem, reduced_basis: &[usize]) -> Vec<usize> {
        let mut cols: Vec<usize> = reduced_basis
            .iter()
            .map(|&c| self.col_map[c])
            .chain(self.dropped.iter().map(|&r| full.init_basis[r]))
            .chain(self.fixed.iter().map(|&(_, j, _)| j))
            .collect();
        cols.sort_unstable();
        cols
    }

    /// Sets each dropped row's dual to exactly zero. Its slack is basic,
    /// so zero is its exact value; the refinement's LU solve can leave
    /// rounding noise there instead.
    pub fn zero_dropped_duals(&self, duals: &mut [f64]) {
        for &r in &self.dropped {
            duals[r] = 0.0;
        }
    }

    /// Writes each fixed column's value into `values` (full structural
    /// indexing).
    pub fn fill_fixed(&self, full: &NormSystem, values: &mut [f64]) {
        for &(r, j, a) in &self.fixed {
            values[j] = full.rows[r].rhs / a;
        }
    }

    /// Full-system multipliers (normalized row space) from the reduced
    /// ones: kept rows copy theirs, a dropped row's basic slack makes its
    /// multiplier zero, and a fixing row prices its basic column to zero
    /// reduced cost, `y_r = c_j / a_rj`.
    pub fn full_multipliers(&self, full: &NormSystem, y: &[f64], objective: &[f64]) -> Vec<f64> {
        let mut out = vec![0.0; full.m()];
        for (&r, &yr) in self.kept.iter().zip(y) {
            out[r] = yr;
        }
        for &(r, j, a) in &self.fixed {
            out[r] = objective[j] / a;
        }
        out
    }
}
