//! Deterministic sparse LU factorization with forward/backward transforms.
//!
//! A small, dependency-free left-looking LU with partial pivoting, tuned for
//! the basis matrices this crate produces: mostly unit columns (slacks,
//! artificials) plus sparse structural columns. Used in two places:
//!
//! * the canonical refinement in [`crate::norm`], which solves
//!   `B x_B = b` / `Bᵀ y = c_B` once per extraction, and
//! * the revised simplex in [`crate::revised`], which reuses one
//!   factorization across many iterations through a product-form eta file
//!   and refactorizes periodically.
//!
//! Everything here is deterministic: pivot selection breaks magnitude ties
//! toward the smallest row index, per-column updates are applied in
//! ascending eliminated-column order (driven by a min-heap worklist), and
//! stored factor columns are sorted by row, so identical input columns
//! always produce bit-identical factors and solves. Both solver backends
//! lean on this for their bit-equality contract.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Sparse LU factors of a square matrix `B` with row permutation:
/// `P·B = L·U` (up to the usual left-looking bookkeeping), where `L` is unit
/// lower triangular and `U` upper triangular in the pivot ordering.
pub(crate) struct SparseLu {
    m: usize,
    /// Column `k` of `L` below the diagonal: `(original_row, multiplier)`,
    /// sorted by row. The unit diagonal is implicit.
    l_cols: Vec<Vec<(u32, f64)>>,
    /// Column `k` of `U` above the diagonal: `(pivot_position j < k, value)`,
    /// sorted ascending by `j`.
    u_cols: Vec<Vec<(u32, f64)>>,
    /// Diagonal of `U` per pivot position.
    diag: Vec<f64>,
    /// Pivot position -> original row index.
    pivrow: Vec<u32>,
}

impl SparseLu {
    /// The factorization of the `0×0` matrix: a placeholder until the
    /// first real [`SparseLu::factorize`].
    pub fn empty() -> Self {
        SparseLu {
            m: 0,
            l_cols: Vec::new(),
            u_cols: Vec::new(),
            diag: Vec::new(),
            pivrow: Vec::new(),
        }
    }

    /// Factorizes the `m×m` matrix whose column `k` is produced by
    /// `col(k, &mut out)` as `(row, value)` pairs (any order; duplicate rows
    /// are summed). Returns `None` if a pivot of magnitude `> tol` cannot be
    /// found for some column (numerically singular).
    pub fn factorize<F: FnMut(usize, &mut Vec<(u32, f64)>)>(
        m: usize,
        mut col: F,
        tol: f64,
    ) -> Option<Self> {
        let mut l_cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        let mut u_cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
        let mut diag = vec![0.0f64; m];
        let mut pivrow = vec![0u32; m];
        // Original row -> pivot position (u32::MAX while unpivoted).
        let mut pinv = vec![u32::MAX; m];

        // Dense accumulator for the current column plus touch tracking.
        let mut x = vec![0.0f64; m];
        let mut in_x = vec![false; m];
        let mut touched: Vec<u32> = Vec::new();
        let mut buf: Vec<(u32, f64)> = Vec::new();
        // Worklist of already-pivoted positions hit by this column, drained
        // in ascending order (left-looking dependency order).
        let mut pending: BinaryHeap<Reverse<u32>> = BinaryHeap::new();
        let mut queued = vec![false; m];

        for k in 0..m {
            buf.clear();
            col(k, &mut buf);
            for &(r, v) in &buf {
                let r = r as usize;
                if !in_x[r] {
                    in_x[r] = true;
                    touched.push(r as u32);
                    x[r] = v;
                } else {
                    x[r] += v;
                }
                let p = pinv[r];
                if p != u32::MAX && !queued[p as usize] {
                    queued[p as usize] = true;
                    pending.push(Reverse(p));
                }
            }

            // Left-looking elimination: apply every earlier column whose
            // pivot row this column touches, in ascending order. Applying
            // column `j` may fill pivot rows of later columns, which are
            // pushed as discovered.
            let mut u_col: Vec<(u32, f64)> = Vec::new();
            while let Some(Reverse(j)) = pending.pop() {
                let ju = j as usize;
                queued[ju] = false;
                let pr = pivrow[ju] as usize;
                let xv = x[pr];
                if xv != 0.0 {
                    u_col.push((j, xv));
                    for &(r, lv) in &l_cols[ju] {
                        let r = r as usize;
                        if !in_x[r] {
                            in_x[r] = true;
                            touched.push(r as u32);
                            x[r] = 0.0;
                        }
                        x[r] -= xv * lv;
                        let p = pinv[r];
                        if p != u32::MAX && !queued[p as usize] {
                            queued[p as usize] = true;
                            pending.push(Reverse(p));
                        }
                    }
                }
            }

            // Partial pivot over unpivoted rows: max magnitude, ties to the
            // smallest original row index (scan-order independent).
            let mut best: Option<usize> = None;
            let mut best_mag = tol;
            for &t in &touched {
                let r = t as usize;
                if pinv[r] != u32::MAX {
                    continue;
                }
                let mag = x[r].abs();
                if mag > best_mag || (mag == best_mag && best.is_some_and(|b| r < b)) {
                    best_mag = mag;
                    best = Some(r);
                }
            }
            let p = best?;
            pivrow[k] = p as u32;
            pinv[p] = k as u32;
            diag[k] = x[p];

            let mut l_col: Vec<(u32, f64)> = touched
                .iter()
                .filter_map(|&t| {
                    let r = t as usize;
                    if pinv[r] == u32::MAX && x[r] != 0.0 {
                        Some((t, x[r] / diag[k]))
                    } else {
                        None
                    }
                })
                .collect();
            l_col.sort_unstable_by_key(|&(r, _)| r);
            l_cols.push(l_col);
            u_cols.push(u_col);

            for &t in &touched {
                x[t as usize] = 0.0;
                in_x[t as usize] = false;
            }
            touched.clear();
        }

        Some(SparseLu {
            m,
            l_cols,
            u_cols,
            diag,
            pivrow,
        })
    }

    /// Solves `B x = b` (FTRAN). `b` is in original row coordinates; the
    /// result is indexed by pivot position (= basis position for a basis
    /// factorization).
    pub fn solve(&self, b: &[f64]) -> Vec<f64> {
        let mut work = b.to_vec();
        self.solve_in_place(&mut work);
        work
    }

    /// In-place FTRAN: on entry `work` holds `b` in original row
    /// coordinates; on exit it holds `x` indexed by pivot position.
    pub fn solve_in_place(&self, work: &mut [f64]) {
        debug_assert_eq!(work.len(), self.m);
        // Forward solve with L (unit diagonal), in original row coords.
        for j in 0..self.m {
            let t = work[self.pivrow[j] as usize];
            if t != 0.0 {
                for &(r, lv) in &self.l_cols[j] {
                    work[r as usize] -= t * lv;
                }
            }
        }
        // Permute to pivot positions.
        let mut y = vec![0.0f64; self.m];
        for k in 0..self.m {
            y[k] = work[self.pivrow[k] as usize];
        }
        // Back substitution with U, column sweep from the right.
        for k in (0..self.m).rev() {
            let xk = y[k] / self.diag[k];
            y[k] = xk;
            if xk != 0.0 {
                for &(j, uv) in &self.u_cols[k] {
                    y[j as usize] -= uv * xk;
                }
            }
        }
        work.copy_from_slice(&y);
    }

    /// Solves `Bᵀ y = c` (BTRAN). `c` is indexed by pivot position (= basis
    /// position); the result is in original row coordinates.
    pub fn solve_transpose(&self, c: &[f64]) -> Vec<f64> {
        let mut work = c.to_vec();
        self.solve_transpose_in_place(&mut work);
        work
    }

    /// In-place BTRAN: on entry `work` holds `c` indexed by pivot position;
    /// on exit it holds `y` in original row coordinates.
    pub fn solve_transpose_in_place(&self, work: &mut [f64]) {
        debug_assert_eq!(work.len(), self.m);
        // Forward solve with Uᵀ (lower triangular in pivot order):
        // z_k = (c_k − Σ_{j<k} U[j][k]·z_j) / d_k.
        let mut z = vec![0.0f64; self.m];
        for k in 0..self.m {
            let mut acc = work[k];
            for &(j, uv) in &self.u_cols[k] {
                acc -= uv * z[j as usize];
            }
            z[k] = acc / self.diag[k];
        }
        // Backward solve with Lᵀ (unit diagonal), writing original rows:
        // w[pivrow_j] = z_j − Σ L[r][j]·w[r]. Every entry row of column j
        // is pivoted strictly later than j, so descending order is safe.
        for j in (0..self.m).rev() {
            let mut acc = z[j];
            for &(r, lv) in &self.l_cols[j] {
                acc -= lv * work[r as usize];
            }
            work[self.pivrow[j] as usize] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn dense_cols(a: &[&[f64]]) -> Vec<Vec<(u32, f64)>> {
        let m = a.len();
        (0..m)
            .map(|j| {
                (0..m)
                    .filter_map(|i| {
                        let v = a[i][j];
                        (v != 0.0).then_some((i as u32, v))
                    })
                    .collect()
            })
            .collect()
    }

    fn check_roundtrip(a: &[&[f64]]) {
        let m = a.len();
        let cols = dense_cols(a);
        let lu = SparseLu::factorize(m, |k, out| out.extend_from_slice(&cols[k]), 1e-11)
            .expect("nonsingular");
        // B x = b.
        let b: Vec<f64> = (0..m).map(|i| (i as f64) - 1.5).collect();
        let x = lu.solve(&b);
        for (i, row) in a.iter().enumerate() {
            let got: f64 = row.iter().zip(&x).map(|(aij, xj)| aij * xj).sum();
            assert!((got - b[i]).abs() < 1e-9, "row {i}: {got} vs {}", b[i]);
        }
        // Bᵀ y = c.
        let c: Vec<f64> = (0..m).map(|i| 0.25 * (i as f64) + 1.0).collect();
        let y = lu.solve_transpose(&c);
        for j in 0..m {
            let got: f64 = (0..m).map(|i| a[i][j] * y[i]).sum();
            assert!((got - c[j]).abs() < 1e-9, "col {j}: {got} vs {}", c[j]);
        }
    }

    #[test]
    fn identity_and_permutation() {
        check_roundtrip(&[&[1.0, 0.0], &[0.0, 1.0]]);
        check_roundtrip(&[&[0.0, 1.0, 0.0], &[0.0, 0.0, 2.0], &[3.0, 0.0, 0.0]]);
    }

    #[test]
    fn general_sparse_system() {
        check_roundtrip(&[
            &[2.0, 1.0, 0.0, 0.0, 0.5],
            &[0.0, 3.0, 0.0, -1.0, 0.0],
            &[1.0, 0.0, 1.0, 0.0, 0.0],
            &[0.0, 0.0, -2.0, 4.0, 1.0],
            &[0.0, 0.5, 0.0, 0.0, 2.0],
        ]);
    }

    #[test]
    fn pivoting_handles_zero_diagonal() {
        check_roundtrip(&[&[0.0, 2.0], &[1.0, 1.0]]);
    }

    #[test]
    fn singular_matrix_is_rejected() {
        let a: &[&[f64]] = &[&[1.0, 2.0], &[2.0, 4.0]];
        let cols = dense_cols(a);
        assert!(SparseLu::factorize(2, |k, out| out.extend_from_slice(&cols[k]), 1e-11).is_none());
    }

    #[test]
    fn deterministic_factors() {
        let a: &[&[f64]] = &[
            &[2.0, 1.0, 0.0, 0.5],
            &[0.0, 3.0, -1.0, 0.0],
            &[1.0, 0.0, 1.0, 0.0],
            &[0.0, 0.0, 4.0, 1.0],
        ];
        let cols = dense_cols(a);
        let f = || SparseLu::factorize(4, |k, out| out.extend_from_slice(&cols[k]), 1e-11).unwrap();
        let (l1, l2) = (f(), f());
        let b = [1.0, -2.0, 3.0, 0.5];
        let x1 = l1.solve(&b);
        let x2 = l2.solve(&b);
        assert_eq!(
            x1.iter().map(|v| v.to_bits()).collect::<Vec<_>>(),
            x2.iter().map(|v| v.to_bits()).collect::<Vec<_>>()
        );
    }
}
