//! Deterministic sparse LU factorization with forward/backward transforms.
//!
//! A small, dependency-free left-looking LU with max-magnitude partial
//! pivoting, in the column order the caller gives. It is tuned for the
//! basis matrices this crate produces: mostly unit columns (slacks,
//! artificials) plus sparse structural columns. Used in two places:
//!
//! * the canonical refinement in [`crate::norm`], which solves
//!   `B x_B = b` / `Bᵀ y = c_B` once per extraction with the basis in
//!   ascending column order, and
//! * the revised simplex in [`crate::revised`], which factors its basis
//!   with the unit columns first (no fill from them), reuses the
//!   factorization across pivots through a product-form eta file and
//!   refactorizes often.
//!
//! Column order is the caller's choice because it decides the fill: a
//! structural column factored before the unit column of its pivot row
//! leaves a dense `L` column behind, and every later unit column on a row
//! it eliminated picks that fill up again.
//!
//! One kernel serves both, and each column picks its path by what it
//! touches: a single entry on an unpivoted row (the refactor's unit
//! columns) pivots there with no work; any other column drains the earlier
//! columns it reaches from a bitset over pivot positions; and a column that
//! has touched more than `m / SCAN_SHARE` rows (an extraction's unit column
//! on a row a structural already pivoted, which picks up a dense `L`
//! column) stops tracking and scans every remaining pivot position into
//! the dense accumulator.
//!
//! A factorization owns its arrays and its work vectors.
//! [`SparseLu::refactor`] clears and refills them, so the simplex, which
//! refactors every 16 pivots, and the extraction, which factors two bases
//! per answer, allocate only when a basis needs more room than the ones
//! before it. Every call re-initialises the work vectors it reads, so a
//! factorization that stopped on a singular column leaves nothing behind.
//!
//! Everything here is deterministic, and the three paths do the same
//! arithmetic: pivot selection takes the largest magnitude and breaks ties
//! toward the smallest row index, whatever order the candidates are seen
//! in; every path applies the earlier columns in ascending pivot position,
//! and a position the drain would not visit holds an exact zero, which the
//! scan skips as the drain skips a cancelled one (`xv != 0.0`); and stored
//! factor columns are sorted by row. So identical input columns always
//! produce bit-identical factors and solves. Both solver backends lean on
//! this for their bit-equality contract, and the tests check every factor
//! array against a one-`Vec`-per-column heap kernel, fresh and refactored
//! over a used factorization.

/// Sparse LU factors of a square matrix `B` with row permutation:
/// `P·B = L·U` (up to the usual left-looking bookkeeping), where `L` is unit
/// lower triangular and `U` upper triangular in the pivot ordering. Both
/// are stored column by column in flat CSC arrays.
///
/// A factorization owns its arrays and its work vectors and keeps them:
/// [`SparseLu::refactor`] writes a new factorization over the previous
/// one's, so a solver that refactors every few pivots allocates only when
/// a basis needs more room than any before it.
#[derive(Default)]
pub(crate) struct SparseLu {
    m: usize,
    /// Column `k` of `L` below the diagonal is
    /// `l_row/l_val[l_ptr[k]..l_ptr[k + 1]]`: original rows and
    /// multipliers, sorted by row. The unit diagonal is implicit.
    l_ptr: Vec<usize>,
    l_row: Vec<u32>,
    l_val: Vec<f64>,
    /// Column `k` of `U` above the diagonal is
    /// `u_pos/u_val[u_ptr[k]..u_ptr[k + 1]]`: pivot positions `j < k` and
    /// values, sorted ascending by `j`.
    u_ptr: Vec<usize>,
    u_pos: Vec<u32>,
    u_val: Vec<f64>,
    /// Diagonal of `U` per pivot position.
    diag: Vec<f64>,
    /// Pivot position -> original row index.
    pivrow: Vec<u32>,
    work: Work,
}

/// The work vectors of [`SparseLu::refactor`] and of the solves. They hold
/// nothing between calls: each call re-initialises what it reads.
#[derive(Default)]
struct Work {
    /// Original row -> pivot position ([`UNPIVOTED`] while unpivoted).
    pinv: Vec<u32>,
    /// The unpivoted rows, ascending, plus any pivoted since the last
    /// scan, which drops them.
    free: Vec<u32>,
    /// Dense accumulator for the current column, all `0.0` between
    /// columns, plus the worklist path's touch tracking.
    x: Vec<f64>,
    in_x: Vec<bool>,
    touched: Vec<u32>,
    /// The current input column.
    buf: Vec<(u32, f64)>,
    /// Worklist of already-pivoted positions hit by this column, one bit
    /// per pivot position, drained in ascending order (left-looking
    /// dependency order).
    pending: Vec<u64>,
    /// The solves' permuted intermediate.
    tmp: Vec<f64>,
}

/// Marks an original row that has no pivot position yet.
const UNPIVOTED: u32 = u32::MAX;

/// A column switches from the worklist drain to the scan path once it has
/// touched more than `m / SCAN_SHARE` rows. Where it switches changes no
/// bit, only time; on the extraction bases of traced `scale-120` and
/// `trace-30` runs, shares from 1/4 to 1/32 timed the same within noise.
const SCAN_SHARE: usize = 8;

/// Empties `v` and refills it with `n` copies of `value`, keeping its
/// allocation.
fn reset<T: Clone>(v: &mut Vec<T>, n: usize, value: T) {
    v.clear();
    v.resize(n, value);
}

impl SparseLu {
    /// Factorizes the `m×m` matrix whose column `k` is produced by
    /// `col(k, &mut out)` as `(row, value)` pairs (any order; duplicate rows
    /// are summed) into a new factorization. `None` if a pivot of magnitude
    /// `> tol` cannot be found for some column (numerically singular).
    #[cfg(test)]
    pub fn factorize<F: FnMut(usize, &mut Vec<(u32, f64)>)>(
        m: usize,
        col: F,
        tol: f64,
    ) -> Option<Self> {
        let mut lu = SparseLu::default();
        lu.refactor(m, col, tol).then_some(lu)
    }

    /// Factorizes the `m×m` matrix whose column `k` is produced by
    /// `col(k, &mut out)` as `(row, value)` pairs (any order; duplicate rows
    /// are summed), over this factorization's arrays. Returns `false` if a
    /// pivot of magnitude `> tol` cannot be found for some column
    /// (numerically singular); the factors are then unusable until the
    /// next successful call.
    ///
    /// Each column takes one of three paths with the same arithmetic (the
    /// module doc says why the bits agree): a single entry on an unpivoted
    /// row pivots there; any other column drains a worklist of the earlier
    /// columns it reaches, and once it has touched more than
    /// `m / SCAN_SHARE` rows it scans the remaining pivot positions instead.
    pub fn refactor<F: FnMut(usize, &mut Vec<(u32, f64)>)>(
        &mut self,
        m: usize,
        mut col: F,
        tol: f64,
    ) -> bool {
        let SparseLu {
            m: size,
            l_ptr,
            l_row,
            l_val,
            u_ptr,
            u_pos,
            u_val,
            diag,
            pivrow,
            work:
                Work {
                    pinv,
                    free,
                    x,
                    in_x,
                    touched,
                    buf,
                    pending,
                    tmp: _,
                },
        } = self;
        *size = m;
        reset(l_ptr, 1, 0);
        l_row.clear();
        l_val.clear();
        reset(u_ptr, 1, 0);
        u_pos.clear();
        u_val.clear();
        reset(diag, m, 0.0);
        reset(pivrow, m, 0);
        reset(pinv, m, UNPIVOTED);
        free.clear();
        free.extend(0..m as u32);
        reset(x, m, 0.0);
        reset(in_x, m, false);
        touched.clear();
        let words = m.div_ceil(64);
        reset(pending, words, 0);
        let scan_at = m / SCAN_SHARE;

        for k in 0..m {
            buf.clear();
            col(k, buf);
            // Unit path: one entry on an unpivoted row eliminates nothing,
            // pivots on that row and leaves an empty `L` column, which is
            // what the worklist path computes for it.
            if let [(r, v)] = buf[..] {
                let r = r as usize;
                if pinv[r] == UNPIVOTED {
                    if v.abs() > tol {
                        pivrow[k] = r as u32;
                        pinv[r] = k as u32;
                        diag[k] = v;
                        l_ptr.push(l_row.len());
                        u_ptr.push(u_pos.len());
                        continue;
                    }
                    return false;
                }
            }

            let mut lo = words; // lowest word with a pending bit
            for &(r, v) in buf.iter() {
                let r = r as usize;
                if !in_x[r] {
                    in_x[r] = true;
                    touched.push(r as u32);
                    x[r] = v;
                } else {
                    x[r] += v;
                }
                let p = pinv[r];
                if p != UNPIVOTED {
                    let p = p as usize;
                    pending[p / 64] |= 1 << (p % 64);
                    lo = lo.min(p / 64);
                }
            }

            // Worklist path: apply every earlier column whose pivot row
            // this column touches, in ascending order. Applying column `j`
            // may fill pivot rows of later columns only (its `L` rows were
            // unpivoted when `j` was factored), so their bits lie past the
            // cursor.
            let mut w = lo;
            let mut scan_from = None;
            while w < words {
                let bits = pending[w];
                if bits == 0 {
                    w += 1;
                    continue;
                }
                pending[w] = bits & (bits - 1);
                let j = w * 64 + bits.trailing_zeros() as usize;
                let xv = x[pivrow[j] as usize];
                if xv != 0.0 {
                    u_pos.push(j as u32);
                    u_val.push(xv);
                    for e in l_ptr[j]..l_ptr[j + 1] {
                        let r = l_row[e] as usize;
                        if !in_x[r] {
                            in_x[r] = true;
                            touched.push(r as u32);
                            x[r] = 0.0;
                        }
                        x[r] -= xv * l_val[e];
                        let p = pinv[r];
                        if p != UNPIVOTED {
                            let p = p as usize;
                            pending[p / 64] |= 1 << (p % 64);
                        }
                    }
                    if touched.len() > scan_at {
                        pending[w..].fill(0);
                        scan_from = Some(j + 1);
                        break;
                    }
                }
            }

            let l_start = l_row.len();
            let p = if let Some(from) = scan_from {
                // Scan path: the column has gone dense, and tracking what
                // it touches costs more than visiting everything. Each
                // position past `from` is applied in ascending order; one
                // that no update reached holds an exact zero and is skipped
                // as the drain's `xv != 0.0` would, so the updates and their
                // order are the drain's. A pivot row is final once its
                // position is read (later `L` columns hold unpivoted rows
                // only), so it is cleared there.
                for j in from..k {
                    let pr = pivrow[j] as usize;
                    let xv = x[pr];
                    x[pr] = 0.0;
                    if xv != 0.0 {
                        u_pos.push(j as u32);
                        u_val.push(xv);
                        let col = l_ptr[j]..l_ptr[j + 1];
                        for (&r, &l) in l_row[col.clone()].iter().zip(&l_val[col]) {
                            x[r as usize] -= xv * l;
                        }
                    }
                }
                // The nonzero unpivoted rows in ascending order are the `L`
                // column plus the pivot; a strict `>` in that order breaks
                // magnitude ties toward the smallest row, as the drain's
                // rule does.
                let mut best: Option<usize> = None;
                let mut best_mag = tol;
                free.retain(|&r| {
                    let r = r as usize;
                    if pinv[r] != UNPIVOTED {
                        return false;
                    }
                    let xr = x[r];
                    if xr != 0.0 {
                        l_row.push(r as u32);
                        if xr.abs() > best_mag {
                            best_mag = xr.abs();
                            best = Some(l_row.len() - 1);
                        }
                    } else {
                        x[r] = 0.0; // a cancelled `-0.0`
                    }
                    true
                });
                let Some(best) = best else {
                    return false;
                };
                l_row.remove(best) as usize
            } else {
                // Partial pivot over unpivoted rows: max magnitude, ties to
                // the smallest original row index (scan-order independent).
                let mut best: Option<usize> = None;
                let mut best_mag = tol;
                for &t in touched.iter() {
                    let r = t as usize;
                    if pinv[r] != UNPIVOTED {
                        continue;
                    }
                    let mag = x[r].abs();
                    if mag > best_mag || (mag == best_mag && best.is_some_and(|b| r < b)) {
                        best_mag = mag;
                        best = Some(r);
                    }
                }
                let Some(p) = best else {
                    return false;
                };
                l_row.extend(touched.iter().filter(|&&t| {
                    let r = t as usize;
                    r != p && pinv[r] == UNPIVOTED && x[r] != 0.0
                }));
                l_row[l_start..].sort_unstable();
                p
            };
            pivrow[k] = p as u32;
            pinv[p] = k as u32;
            let d = x[p];
            diag[k] = d;
            x[p] = 0.0;
            for &r in &l_row[l_start..] {
                l_val.push(x[r as usize] / d);
                x[r as usize] = 0.0;
            }
            l_ptr.push(l_row.len());
            u_ptr.push(u_pos.len());
            for &t in touched.iter() {
                x[t as usize] = 0.0;
                in_x[t as usize] = false;
            }
            touched.clear();
        }
        true
    }

    /// Stored entries: `L` below the diagonal, `U` above it, and the
    /// diagonal.
    #[cfg(test)]
    pub fn nnz(&self) -> usize {
        self.l_row.len() + self.u_pos.len() + self.m
    }

    /// Solves `B x = b` (FTRAN) into a new vector. `b` is in original row
    /// coordinates; the result is indexed by pivot position (= basis
    /// position for a basis factorization).
    #[cfg(test)]
    pub fn solve(&mut self, b: &[f64]) -> Vec<f64> {
        let mut work = b.to_vec();
        self.solve_in_place(&mut work);
        work
    }

    /// In-place FTRAN: on entry `work` holds `b` in original row
    /// coordinates; on exit it holds `x` indexed by pivot position.
    pub fn solve_in_place(&mut self, work: &mut [f64]) {
        debug_assert_eq!(work.len(), self.m);
        // Forward solve with L (unit diagonal), in original row coords.
        for j in 0..self.m {
            let t = work[self.pivrow[j] as usize];
            if t != 0.0 {
                for e in self.l_ptr[j]..self.l_ptr[j + 1] {
                    work[self.l_row[e] as usize] -= t * self.l_val[e];
                }
            }
        }
        // Permute to pivot positions.
        let y = &mut self.work.tmp;
        y.clear();
        y.extend(self.pivrow.iter().map(|&r| work[r as usize]));
        // Back substitution with U, column sweep from the right.
        for k in (0..self.m).rev() {
            let xk = y[k] / self.diag[k];
            y[k] = xk;
            if xk != 0.0 {
                for e in self.u_ptr[k]..self.u_ptr[k + 1] {
                    y[self.u_pos[e] as usize] -= self.u_val[e] * xk;
                }
            }
        }
        work.copy_from_slice(y);
    }

    /// Solves `Bᵀ y = c` (BTRAN) into a new vector. `c` is indexed by pivot
    /// position (= basis position); the result is in original row
    /// coordinates.
    #[cfg(test)]
    pub fn solve_transpose(&mut self, c: &[f64]) -> Vec<f64> {
        let mut work = c.to_vec();
        self.solve_transpose_in_place(&mut work);
        work
    }

    /// In-place BTRAN: on entry `work` holds `c` indexed by pivot position;
    /// on exit it holds `y` in original row coordinates.
    pub fn solve_transpose_in_place(&mut self, work: &mut [f64]) {
        debug_assert_eq!(work.len(), self.m);
        // Forward solve with Uᵀ (lower triangular in pivot order):
        // z_k = (c_k − Σ_{j<k} U[j][k]·z_j) / d_k.
        let z = &mut self.work.tmp;
        z.clear();
        z.resize(self.m, 0.0);
        for k in 0..self.m {
            let mut acc = work[k];
            for e in self.u_ptr[k]..self.u_ptr[k + 1] {
                acc -= self.u_val[e] * z[self.u_pos[e] as usize];
            }
            z[k] = acc / self.diag[k];
        }
        // Backward solve with Lᵀ (unit diagonal), writing original rows:
        // w[pivrow_j] = z_j − Σ L[r][j]·w[r]. Every entry row of column j
        // is pivoted strictly later than j, so descending order is safe.
        for j in (0..self.m).rev() {
            let mut acc = z[j];
            for e in self.l_ptr[j]..self.l_ptr[j + 1] {
                acc -= self.l_val[e] * work[self.l_row[e] as usize];
            }
            work[self.pivrow[j] as usize] = acc;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use proptest::prelude::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;

    /// A reference kernel: one `Vec` per factor column and a min-heap
    /// worklist. `SparseLu` must perform the same operations in the same
    /// order, so both give the same bits.
    struct HeapLu {
        m: usize,
        l_cols: Vec<Vec<(u32, f64)>>,
        u_cols: Vec<Vec<(u32, f64)>>,
        diag: Vec<f64>,
        pivrow: Vec<u32>,
    }

    impl HeapLu {
        fn factorize<F: FnMut(usize, &mut Vec<(u32, f64)>)>(
            m: usize,
            mut col: F,
            tol: f64,
        ) -> Option<Self> {
            let mut l_cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
            let mut u_cols: Vec<Vec<(u32, f64)>> = Vec::with_capacity(m);
            let mut diag = vec![0.0f64; m];
            let mut pivrow = vec![0u32; m];
            let mut pinv = vec![u32::MAX; m];
            let mut x = vec![0.0f64; m];
            let mut in_x = vec![false; m];
            let mut touched: Vec<u32> = Vec::new();
            let mut buf: Vec<(u32, f64)> = Vec::new();
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
                let mut u_col: Vec<(u32, f64)> = Vec::new();
                while let Some(Reverse(j)) = pending.pop() {
                    let ju = j as usize;
                    queued[ju] = false;
                    let xv = x[pivrow[ju] as usize];
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
                        (pinv[r] == u32::MAX && x[r] != 0.0).then(|| (t, x[r] / diag[k]))
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
            Some(HeapLu {
                m,
                l_cols,
                u_cols,
                diag,
                pivrow,
            })
        }

        fn solve(&self, b: &[f64]) -> Vec<f64> {
            let mut work = b.to_vec();
            for j in 0..self.m {
                let t = work[self.pivrow[j] as usize];
                if t != 0.0 {
                    for &(r, lv) in &self.l_cols[j] {
                        work[r as usize] -= t * lv;
                    }
                }
            }
            let mut y: Vec<f64> = self.pivrow.iter().map(|&r| work[r as usize]).collect();
            for k in (0..self.m).rev() {
                let xk = y[k] / self.diag[k];
                y[k] = xk;
                if xk != 0.0 {
                    for &(j, uv) in &self.u_cols[k] {
                        y[j as usize] -= uv * xk;
                    }
                }
            }
            y
        }

        fn solve_transpose(&self, c: &[f64]) -> Vec<f64> {
            let mut work = c.to_vec();
            let mut z = vec![0.0f64; self.m];
            for k in 0..self.m {
                let mut acc = work[k];
                for &(j, uv) in &self.u_cols[k] {
                    acc -= uv * z[j as usize];
                }
                z[k] = acc / self.diag[k];
            }
            for j in (0..self.m).rev() {
                let mut acc = z[j];
                for &(r, lv) in &self.l_cols[j] {
                    acc -= lv * work[r as usize];
                }
                work[self.pivrow[j] as usize] = acc;
            }
            work
        }
    }

    fn bits(v: &[f64]) -> Vec<u64> {
        v.iter().map(|x| x.to_bits()).collect()
    }

    fn factor_cols(cols: &[Vec<(u32, f64)>]) -> Option<SparseLu> {
        SparseLu::factorize(cols.len(), |k, out| out.extend_from_slice(&cols[k]), 1e-11)
    }

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
        let mut lu = factor_cols(&dense_cols(a)).expect("nonsingular");
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
        assert!(factor_cols(&dense_cols(a)).is_none());
    }

    /// A random `m×m` column set shaped like a simplex basis: about half
    /// unit columns (slacks, artificials), the rest sparse structural
    /// columns with an occasional duplicate row entry (which `factorize`
    /// sums). About one structural column per draw loses the entry on its
    /// own row, so about a third of the draws are singular.
    fn random_basis(m: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<u32> = (0..m as u32).collect();
        for i in (1..m).rev() {
            rows.swap(i, rng.gen_range(0..=i));
        }
        rows.iter()
            .map(|&r| {
                if rng.gen_bool(0.5) {
                    return vec![(r, if rng.gen_bool(0.5) { 1.0 } else { -1.0 })];
                }
                let mut col = vec![(r, rng.gen_range(1..9) as f64 / 4.0)];
                for _ in 0..rng.gen_range(0..6) {
                    let row = rng.gen_range(0..m as u32);
                    col.push((row, rng.gen_range(-8..9) as f64 / 8.0));
                    if rng.gen_bool(0.1) {
                        col.push((row, 0.5));
                    }
                }
                if rng.gen_bool(1.0 / m as f64) {
                    col.remove(0);
                }
                col
            })
            .collect()
    }

    /// A basis shaped like a canonical extraction's: structural columns
    /// first, then unit columns in ascending row order on the rows the
    /// structurals do not own. A structural's largest entry mostly lies off
    /// its own row, so the structurals pivot on rows the unit columns then
    /// hit, and each such unit column fills `L` densely: the scan path's
    /// case. Singular when the structurals' block on their own rows is.
    fn extraction_basis(m: usize, seed: u64) -> Vec<Vec<(u32, f64)>> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows: Vec<u32> = (0..m as u32).collect();
        for i in (1..m).rev() {
            rows.swap(i, rng.gen_range(0..=i));
        }
        let (own, rest) = rows.split_at(rng.gen_range(1..=m.div_ceil(3)));
        let mut unit_rows = rest.to_vec();
        unit_rows.sort_unstable();
        let mut cols: Vec<Vec<(u32, f64)>> = own
            .iter()
            .map(|&r| {
                let mut col = vec![(r, rng.gen_range(1..9) as f64 / 8.0)];
                for _ in 0..rng.gen_range(1..8) {
                    col.push((
                        rng.gen_range(0..m as u32),
                        rng.gen_range(-16..17) as f64 / 8.0,
                    ));
                }
                col
            })
            .collect();
        cols.extend(unit_rows.iter().map(|&r| vec![(r, 1.0)]));
        cols
    }

    /// Every factor array, values as bits.
    #[derive(Debug, PartialEq)]
    struct Factors {
        l_ptr: Vec<usize>,
        l_row: Vec<u32>,
        l_val: Vec<u64>,
        u_ptr: Vec<usize>,
        u_pos: Vec<u32>,
        u_val: Vec<u64>,
        diag: Vec<u64>,
        pivrow: Vec<u32>,
    }

    impl Factors {
        fn of_flat(lu: &SparseLu) -> Self {
            Factors {
                l_ptr: lu.l_ptr.clone(),
                l_row: lu.l_row.clone(),
                l_val: bits(&lu.l_val),
                u_ptr: lu.u_ptr.clone(),
                u_pos: lu.u_pos.clone(),
                u_val: bits(&lu.u_val),
                diag: bits(&lu.diag),
                pivrow: lu.pivrow.clone(),
            }
        }

        fn of_heap(lu: &HeapLu) -> Self {
            let ptr = |cols: &[Vec<(u32, f64)>]| {
                std::iter::once(0)
                    .chain(cols.iter().scan(0, |n, c| {
                        *n += c.len();
                        Some(*n)
                    }))
                    .collect()
            };
            let flat = |cols: &[Vec<(u32, f64)>]| -> (Vec<u32>, Vec<u64>) {
                cols.iter()
                    .flatten()
                    .map(|&(i, v)| (i, v.to_bits()))
                    .unzip()
            };
            let (l_row, l_val) = flat(&lu.l_cols);
            let (u_pos, u_val) = flat(&lu.u_cols);
            Factors {
                l_ptr: ptr(&lu.l_cols),
                l_row,
                l_val,
                u_ptr: ptr(&lu.u_cols),
                u_pos,
                u_val,
                diag: bits(&lu.diag),
                pivrow: lu.pivrow.clone(),
            }
        }
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(128))]

        /// The flat kernel gives the heap oracle's bits: the same singular
        /// rejections, bit-identical factor arrays and bit-identical FTRAN
        /// and BTRAN results. Simplex-shaped bases span several worklist
        /// words; extraction-shaped ones, up to 500 rows, send most unit
        /// columns down the scan path.
        #[test]
        fn flat_kernel_matches_the_heap_oracle(
            m in 1usize..500,
            seed in 0u64..u64::MAX,
            extraction in proptest::bool::ANY,
        ) {
            let cols = if extraction {
                extraction_basis(m, seed)
            } else {
                random_basis(m.min(200), seed)
            };
            let m = cols.len();
            let flat = factor_cols(&cols);
            let heap = HeapLu::factorize(m, |k, out| out.extend_from_slice(&cols[k]), 1e-11);
            prop_assert_eq!(flat.is_some(), heap.is_some());
            if let (Some(mut flat), Some(heap)) = (flat, heap) {
                prop_assert_eq!(Factors::of_flat(&flat), Factors::of_heap(&heap));
                let b: Vec<f64> = (0..m).map(|i| (i % 7) as f64 - 2.5).collect();
                prop_assert_eq!(bits(&flat.solve(&b)), bits(&heap.solve(&b)));
                prop_assert_eq!(
                    bits(&flat.solve_transpose(&b)),
                    bits(&heap.solve_transpose(&b))
                );
            }
        }
    }

    /// A column of ones, unit columns on the rows it and its successors
    /// pivot, and the ones column again: singular at the last column, on
    /// the scan path, which then stops with its accumulator dirty.
    fn singular_on_the_scan_path(m: usize) -> Vec<Vec<(u32, f64)>> {
        let ones: Vec<(u32, f64)> = (0..m as u32).map(|r| (r, 1.0)).collect();
        std::iter::once(ones.clone())
            .chain((0..m as u32 - 2).map(|r| vec![(r, 1.0)]))
            .chain([ones])
            .collect()
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(64))]

        /// `refactor` over a used factorization gives a fresh one's bits,
        /// the heap oracle's. The reused `SparseLu` first factors a larger
        /// basis, then one that fails partway down the scan path (leaving
        /// its work vectors dirty), then the drawn basis.
        #[test]
        fn refactor_over_used_arrays_matches_the_heap_oracle(
            m in 1usize..300,
            seed in 0u64..u64::MAX,
            extraction in proptest::bool::ANY,
        ) {
            let cols = if extraction {
                extraction_basis(m, seed)
            } else {
                random_basis(m.min(200), seed)
            };
            let m = cols.len();
            let mut reused = SparseLu::default();
            let larger = extraction_basis(m + 64, seed.wrapping_add(1));
            reused.refactor(larger.len(), |k, out| out.extend_from_slice(&larger[k]), 1e-11);
            let singular = singular_on_the_scan_path(100);
            prop_assert!(!reused.refactor(100, |k, out| out.extend_from_slice(&singular[k]), 1e-11));
            let ok = reused.refactor(m, |k, out| out.extend_from_slice(&cols[k]), 1e-11);
            let heap = HeapLu::factorize(m, |k, out| out.extend_from_slice(&cols[k]), 1e-11);
            prop_assert_eq!(ok, heap.is_some());
            if let Some(heap) = heap {
                prop_assert_eq!(Factors::of_flat(&reused), Factors::of_heap(&heap));
                let b: Vec<f64> = (0..m).map(|i| (i % 7) as f64 - 2.5).collect();
                prop_assert_eq!(bits(&reused.solve(&b)), bits(&heap.solve(&b)));
                prop_assert_eq!(
                    bits(&reused.solve_transpose(&b)),
                    bits(&heap.solve_transpose(&b))
                );
            }
        }
    }

    /// A pivot an exact `δ` away from zero on the scan path: a column of
    /// ones first, unit columns on the rows it and its successors pivot
    /// (each one dense), and last the ones column plus `δ` on the final
    /// row. The elimination is exact, so the last pivot is `δ`: singular
    /// for `δ = 2⁻³⁷ < 1e-11`, nonsingular for `δ = 2⁻³⁶ > 1e-11`, in both
    /// kernels, with the same factors.
    #[test]
    fn near_tolerance_pivot_on_the_scan_path() {
        let m = 100;
        for (delta, singular) in [(2f64.powi(-37), true), (2f64.powi(-36), false)] {
            let ones: Vec<(u32, f64)> = (0..m as u32).map(|r| (r, 1.0)).collect();
            let mut last = ones.clone();
            last[m - 1].1 += delta;
            let cols: Vec<Vec<(u32, f64)>> = std::iter::once(ones)
                .chain((0..m as u32 - 2).map(|r| vec![(r, 1.0)]))
                .chain([last])
                .collect();
            let flat = factor_cols(&cols);
            let heap = HeapLu::factorize(m, |k, out| out.extend_from_slice(&cols[k]), 1e-11);
            assert_eq!(flat.is_none(), singular, "δ = {delta:e}");
            assert_eq!(heap.is_none(), singular, "δ = {delta:e}");
            if let (Some(flat), Some(heap)) = (flat, heap) {
                assert_eq!(flat.diag[m - 1], delta);
                assert_eq!(Factors::of_flat(&flat), Factors::of_heap(&heap));
            }
        }
    }

    #[test]
    fn deterministic_factors() {
        for m in [4, 65, 150] {
            let cols = (0..u64::MAX)
                .map(|seed| random_basis(m, seed))
                .find(|cols| factor_cols(cols).is_some())
                .expect("a nonsingular draw");
            let (mut l1, mut l2) = (factor_cols(&cols).unwrap(), factor_cols(&cols).unwrap());
            let b: Vec<f64> = (0..m).map(|i| 1.0 - (i % 5) as f64 * 0.75).collect();
            assert_eq!(bits(&l1.solve(&b)), bits(&l2.solve(&b)), "m = {m}");
            assert_eq!(
                bits(&l1.solve_transpose(&b)),
                bits(&l2.solve_transpose(&b)),
                "m = {m}"
            );
        }
    }

    /// One dense structural column plus `m − 1` unit columns. With the
    /// unit columns first, every unit pivots on its own row and the dense
    /// column only lands in `U`: no entry beyond the input's. With the
    /// dense column first, it pivots on row 0 and leaves a dense `L`
    /// column; each unit column after it then picks up the fill of the one
    /// before, `O(m²)` in all. This is why the simplex factors unit
    /// columns first.
    #[test]
    fn unit_columns_first_factor_without_fill() {
        let m = 100;
        let dense: Vec<(u32, f64)> = (0..m as u32).map(|r| (r, 1.0)).collect();
        let units: Vec<Vec<(u32, f64)>> = (0..m as u32 - 1).map(|r| vec![(r, 1.0)]).collect();
        let input_nnz = 2 * m - 1;

        let unit_first: Vec<_> = units.iter().cloned().chain([dense.clone()]).collect();
        let lu = factor_cols(&unit_first).expect("nonsingular");
        assert_eq!(lu.nnz(), input_nnz);

        let dense_first: Vec<_> = [dense].into_iter().chain(units).collect();
        let lu = factor_cols(&dense_first).expect("nonsingular");
        assert!(lu.nnz() >= m * (m - 1) / 2, "fill {}", lu.nnz());
    }
}
