//! Compressed sparse row (CSR) storage — the format the paper targets
//! (Figure 1) — plus the sequential reference SpMV (Algorithm 1).

use crate::coo::CooMatrix;
use crate::dense::DenseMatrix;
use crate::error::{CsrBuildError, SparseError};
use crate::scalar::Scalar;
use std::sync::atomic::{AtomicU64, Ordering};

/// Process-unique generation id handed to each freshly built (or
/// mutated) matrix's values and pattern. Monotone and never reused, so
/// two matrices — or two mutation epochs of one matrix — can never
/// collide.
fn next_generation() -> u64 {
    static NEXT: AtomicU64 = AtomicU64::new(1);
    NEXT.fetch_add(1, Ordering::Relaxed)
}

/// A sparse matrix in compressed sparse row format.
///
/// Three arrays represent the matrix, exactly as in Figure 1 of the
/// paper:
///
/// * `row_ptr` — offsets of each row's first non-zero in `col_idx`/`values`
///   (length `n_rows + 1`);
/// * `col_idx` — column indices of the non-zeros in row-major order;
/// * `values` — the corresponding non-zero values.
///
/// Column indices are stored as `u32` (the UF collection fits comfortably;
/// this matches the 4-byte `int` the paper's OpenCL kernels load and is what
/// the simulated GPU charges for).
#[derive(Clone, Debug)]
pub struct CsrMatrix<T> {
    n_rows: usize,
    n_cols: usize,
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    values: Vec<T>,
    /// Generation id of the current value array: assigned fresh at
    /// construction and on every mutable access to `values`. Derived
    /// formats that cache a copy of the values (e.g.
    /// [`crate::packed::PackedSell`]) compare this id to detect value-only
    /// updates without rescanning O(nnz) data. Clones keep the id — their
    /// values are bit-identical until either side mutates (which bumps).
    values_id: u64,
    /// Generation id of the current sparsity pattern (`row_ptr` and
    /// `col_idx`): assigned fresh at construction, kept by clones, and
    /// bumped by every call that may move a column ([`sort_rows`]).
    /// Value updates leave it alone. Plans compare it to accept the
    /// matrix they were built for in O(1).
    ///
    /// [`sort_rows`]: CsrMatrix::sort_rows
    pattern_id: u64,
}

impl<T: PartialEq> PartialEq for CsrMatrix<T> {
    /// Structural + numeric equality. The [`values_id`] and
    /// [`pattern_id`] generation tags are deliberately ignored: two
    /// matrices built independently with the same arrays are equal.
    ///
    /// [`values_id`]: CsrMatrix::values_id
    /// [`pattern_id`]: CsrMatrix::pattern_id
    fn eq(&self, other: &Self) -> bool {
        self.n_rows == other.n_rows
            && self.n_cols == other.n_cols
            && self.row_ptr == other.row_ptr
            && self.col_idx == other.col_idx
            && self.values == other.values
    }
}

impl<T: Scalar> CsrMatrix<T> {
    /// Build a CSR matrix from its three raw arrays, validating every
    /// structural invariant.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::InvalidStructure`] when `row_ptr` has the
    /// wrong length, is non-monotone, does not start at 0 or end at
    /// `col_idx.len()`, when `col_idx` and `values` disagree in length, or
    /// when any column index is out of range.
    pub fn from_parts(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Result<Self, SparseError> {
        Self::try_new(n_rows, n_cols, row_ptr, col_idx, values).map_err(SparseError::from)
    }

    /// Build a CSR matrix from its three raw arrays, validating every
    /// structural invariant and reporting the first violation as a typed
    /// [`CsrBuildError`] naming the exact defect (offending row, column
    /// index, position, or length pair).
    ///
    /// This is the error-typed twin of [`from_parts`]; the checks are
    /// identical.
    ///
    /// [`from_parts`]: CsrMatrix::from_parts
    pub fn try_new(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Result<Self, CsrBuildError> {
        if row_ptr.len() != n_rows + 1 {
            return Err(CsrBuildError::RowPtrLen {
                len: row_ptr.len(),
                n_rows,
            });
        }
        if row_ptr[0] != 0 {
            return Err(CsrBuildError::RowPtrStart { first: row_ptr[0] });
        }
        if *row_ptr.last().unwrap() != col_idx.len() {
            return Err(CsrBuildError::NnzMismatch {
                last: *row_ptr.last().unwrap(),
                nnz: col_idx.len(),
            });
        }
        if col_idx.len() != values.len() {
            return Err(CsrBuildError::LengthMismatch {
                col_idx: col_idx.len(),
                values: values.len(),
            });
        }
        if let Some(row) = row_ptr.windows(2).position(|w| w[0] > w[1]) {
            return Err(CsrBuildError::NonMonotone { row });
        }
        if let Some((pos, &col)) = col_idx
            .iter()
            .enumerate()
            .find(|&(_, &c)| c as usize >= n_cols)
        {
            return Err(CsrBuildError::ColOutOfBounds { pos, col, n_cols });
        }
        Ok(Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
            values_id: next_generation(),
            pattern_id: next_generation(),
        })
    }

    /// Build without validation. Intended for generators that construct
    /// rows in order and uphold the invariants by construction; debug
    /// builds still assert them.
    pub fn from_parts_unchecked(
        n_rows: usize,
        n_cols: usize,
        row_ptr: Vec<usize>,
        col_idx: Vec<u32>,
        values: Vec<T>,
    ) -> Self {
        debug_assert_eq!(row_ptr.len(), n_rows + 1);
        debug_assert_eq!(col_idx.len(), values.len());
        debug_assert_eq!(*row_ptr.last().unwrap_or(&0), col_idx.len());
        Self {
            n_rows,
            n_cols,
            row_ptr,
            col_idx,
            values,
            values_id: next_generation(),
            pattern_id: next_generation(),
        }
    }

    /// An `n_rows × n_cols` matrix with no non-zeros.
    pub fn zeros(n_rows: usize, n_cols: usize) -> Self {
        Self {
            n_rows,
            n_cols,
            row_ptr: vec![0; n_rows + 1],
            col_idx: Vec::new(),
            values: Vec::new(),
            values_id: next_generation(),
            pattern_id: next_generation(),
        }
    }

    /// The `n × n` identity matrix.
    pub fn identity(n: usize) -> Self {
        Self {
            n_rows: n,
            n_cols: n,
            row_ptr: (0..=n).collect(),
            col_idx: (0..n as u32).collect(),
            values: vec![T::ONE; n],
            values_id: next_generation(),
            pattern_id: next_generation(),
        }
    }

    /// Number of rows (`M` in Table I).
    #[inline]
    pub fn n_rows(&self) -> usize {
        self.n_rows
    }

    /// Number of columns (`N` in Table I).
    #[inline]
    pub fn n_cols(&self) -> usize {
        self.n_cols
    }

    /// Number of stored non-zeros (`NNZ` in Table I).
    #[inline]
    pub fn nnz(&self) -> usize {
        self.col_idx.len()
    }

    /// The row-pointer array (`rowPtr` in Figure 1).
    #[inline]
    pub fn row_ptr(&self) -> &[usize] {
        &self.row_ptr
    }

    /// The column-index array (`colIdx` in Figure 1).
    #[inline]
    pub fn col_idx(&self) -> &[u32] {
        &self.col_idx
    }

    /// The value array (`val` in Figure 1).
    #[inline]
    pub fn values(&self) -> &[T] {
        &self.values
    }

    /// Mutable access to the values (structure stays fixed). Bumps the
    /// [`values_id`](Self::values_id) generation: the exclusive borrow
    /// ends before any execution path can read the matrix again, so
    /// tagging at hand-out time is exact.
    #[inline]
    pub fn values_mut(&mut self) -> &mut [T] {
        self.values_id = next_generation();
        &mut self.values
    }

    /// Generation id of the current value array. Changes on every
    /// [`values_mut`], [`fill_values_with`] or [`sort_rows`] call and is
    /// process-unique, so caching layers can detect "same pattern, new
    /// numbers" in O(1).
    ///
    /// [`values_mut`]: Self::values_mut
    /// [`fill_values_with`]: Self::fill_values_with
    /// [`sort_rows`]: Self::sort_rows
    #[inline]
    pub fn values_id(&self) -> u64 {
        self.values_id
    }

    /// Generation id of the current sparsity pattern. Fresh at
    /// construction, kept by `clone`, changed by [`sort_rows`] (the one
    /// method that may move a column) and by nothing that only touches
    /// values. Two matrices with equal ids have the same `row_ptr` and
    /// `col_idx`, so a plan that recorded the id at build time accepts
    /// the matrix in O(1); unequal ids say nothing either way, and the
    /// plan falls back to comparing checksums.
    ///
    /// [`sort_rows`]: Self::sort_rows
    #[inline]
    pub fn pattern_id(&self) -> u64 {
        self.pattern_id
    }

    /// Number of stored entries in row `i`.
    #[inline]
    pub fn row_nnz(&self, i: usize) -> usize {
        self.row_ptr[i + 1] - self.row_ptr[i]
    }

    /// Column indices and values of row `i`.
    #[inline]
    pub fn row(&self, i: usize) -> (&[u32], &[T]) {
        let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
        (&self.col_idx[s..e], &self.values[s..e])
    }

    /// Total non-zeros in the half-open row range `[start, end)` — the
    /// "workload" of a virtual row in the paper's Algorithm 2, step 1:
    /// `wl = rowPtr[min(end, m)] - rowPtr[start]`.
    #[inline]
    pub fn range_nnz(&self, start: usize, end: usize) -> usize {
        let end = end.min(self.n_rows);
        self.row_ptr[end] - self.row_ptr[start]
    }

    /// Iterator over `(row, col, value)` triplets in row-major order.
    pub fn iter(&self) -> impl Iterator<Item = (usize, u32, T)> + '_ {
        (0..self.n_rows).flat_map(move |i| {
            let (cols, vals) = self.row(i);
            cols.iter().zip(vals).map(move |(&c, &v)| (i, c, v))
        })
    }

    /// Sequential reference SpMV (the paper's Algorithm 1): `u = A · v`.
    ///
    /// # Errors
    ///
    /// Returns [`SparseError::DimensionMismatch`] when `v.len() != n_cols`
    /// or `u.len() != n_rows`.
    pub fn spmv_seq(&self, v: &[T], u: &mut [T]) -> Result<(), SparseError> {
        if v.len() != self.n_cols {
            return Err(SparseError::DimensionMismatch {
                context: "spmv input vector".into(),
                expected: self.n_cols,
                got: v.len(),
            });
        }
        if u.len() != self.n_rows {
            return Err(SparseError::DimensionMismatch {
                context: "spmv output vector".into(),
                expected: self.n_rows,
                got: u.len(),
            });
        }
        for (i, out) in u.iter_mut().enumerate() {
            let (cols, vals) = self.row(i);
            let mut sum = T::ZERO;
            for (&c, &a) in cols.iter().zip(vals) {
                sum = a.mul_add_(v[c as usize], sum);
            }
            *out = sum;
        }
        Ok(())
    }

    /// Convenience allocating wrapper around [`spmv_seq`](Self::spmv_seq).
    pub fn spmv_seq_alloc(&self, v: &[T]) -> Result<Vec<T>, SparseError> {
        let mut u = vec![T::ZERO; self.n_rows];
        self.spmv_seq(v, &mut u)?;
        Ok(u)
    }

    /// Whether every row's column indices are strictly increasing.
    pub fn rows_sorted(&self) -> bool {
        (0..self.n_rows).all(|i| {
            let (cols, _) = self.row(i);
            cols.windows(2).all(|w| w[0] < w[1])
        })
    }

    /// Sort the entries of every row by column index (stable with respect
    /// to values, which travel with their column).
    pub fn sort_rows(&mut self) {
        self.values_id = next_generation();
        self.pattern_id = next_generation();
        for i in 0..self.n_rows {
            let (s, e) = (self.row_ptr[i], self.row_ptr[i + 1]);
            let mut pairs: Vec<(u32, T)> = self.col_idx[s..e]
                .iter()
                .copied()
                .zip(self.values[s..e].iter().copied())
                .collect();
            pairs.sort_by_key(|&(c, _)| c);
            for (k, (c, v)) in pairs.into_iter().enumerate() {
                self.col_idx[s + k] = c;
                self.values[s + k] = v;
            }
        }
    }

    /// Transpose (CSR → CSR of the transpose) via a counting pass.
    pub fn transpose(&self) -> Self {
        let mut counts = vec![0usize; self.n_cols + 1];
        for &c in &self.col_idx {
            counts[c as usize + 1] += 1;
        }
        for j in 0..self.n_cols {
            counts[j + 1] += counts[j];
        }
        let row_ptr = counts.clone();
        let mut col_idx = vec![0u32; self.nnz()];
        let mut values = vec![T::ZERO; self.nnz()];
        let mut next = counts;
        for i in 0..self.n_rows {
            let (cols, vals) = self.row(i);
            for (&c, &v) in cols.iter().zip(vals) {
                let slot = next[c as usize];
                next[c as usize] += 1;
                col_idx[slot] = i as u32;
                values[slot] = v;
            }
        }
        Self {
            n_rows: self.n_cols,
            n_cols: self.n_rows,
            row_ptr,
            col_idx,
            values,
            values_id: next_generation(),
            pattern_id: next_generation(),
        }
    }

    /// Convert to triplet (COO) form.
    pub fn to_coo(&self) -> CooMatrix<T> {
        let mut coo = CooMatrix::new(self.n_rows, self.n_cols);
        for (i, c, v) in self.iter() {
            coo.push(i, c as usize, v);
        }
        coo
    }

    /// Materialise as a dense matrix (tests and tiny examples only).
    pub fn to_dense(&self) -> DenseMatrix<T> {
        let mut d = DenseMatrix::zeros(self.n_rows, self.n_cols);
        for (i, c, v) in self.iter() {
            *d.get_mut(i, c as usize) += v;
        }
        d
    }

    /// Deterministically randomise the values (structure preserved),
    /// useful for turning a pattern matrix into a numeric one.
    pub fn fill_values_with(&mut self, mut f: impl FnMut(usize) -> T) {
        self.values_id = next_generation();
        for (k, v) in self.values.iter_mut().enumerate() {
            *v = f(k);
        }
    }

    /// Estimated heap footprint of the three CSR arrays in bytes.
    pub fn storage_bytes(&self) -> usize {
        self.row_ptr.len() * std::mem::size_of::<usize>()
            + self.col_idx.len() * std::mem::size_of::<u32>()
            + self.values.len() * T::BYTES
    }
}

/// The worked example of Figure 1 in the paper: a 4×4 matrix with eight
/// non-zeros. Used across the test suites as a tiny fixture.
pub fn figure1_example<T: Scalar>() -> CsrMatrix<T> {
    // A = [1 6 0 0; 3 0 2 0; 0 4 0 0; 0 5 8 1]
    CsrMatrix::from_parts(
        4,
        4,
        vec![0, 2, 4, 5, 8],
        vec![0, 1, 0, 2, 1, 1, 2, 3],
        [1.0, 6.0, 3.0, 2.0, 4.0, 5.0, 8.0, 1.0]
            .iter()
            .map(|&x| T::from_f64(x))
            .collect(),
    )
    .expect("figure-1 fixture is valid")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn figure1_roundtrip() {
        let a = figure1_example::<f64>();
        assert_eq!(a.n_rows(), 4);
        assert_eq!(a.n_cols(), 4);
        assert_eq!(a.nnz(), 8);
        assert_eq!(a.row_nnz(0), 2);
        assert_eq!(a.row_nnz(2), 1);
        let (cols, vals) = a.row(3);
        assert_eq!(cols, &[1, 2, 3]);
        assert_eq!(vals, &[5.0, 8.0, 1.0]);
    }

    #[test]
    fn figure1_spmv_matches_hand_computation() {
        let a = figure1_example::<f64>();
        let v = vec![1.0, 2.0, 3.0, 4.0];
        let u = a.spmv_seq_alloc(&v).unwrap();
        // [1*1+6*2, 3*1+2*3, 4*2, 5*2+8*3+1*4]
        assert_eq!(u, vec![13.0, 9.0, 8.0, 38.0]);
    }

    #[test]
    fn validation_rejects_bad_row_ptr() {
        let r = CsrMatrix::<f64>::from_parts(2, 2, vec![0, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(matches!(r, Err(SparseError::InvalidStructure(_))));
        let r = CsrMatrix::<f64>::from_parts(2, 2, vec![0, 2, 1], vec![0, 1], vec![1.0, 2.0]);
        assert!(r.is_err());
        let r = CsrMatrix::<f64>::from_parts(2, 2, vec![1, 1, 2], vec![0, 1], vec![1.0, 2.0]);
        assert!(r.is_err());
    }

    #[test]
    fn validation_rejects_out_of_range_column() {
        let r = CsrMatrix::<f64>::from_parts(1, 2, vec![0, 1], vec![2], vec![1.0]);
        assert!(r.is_err());
    }

    #[test]
    fn validation_rejects_length_mismatch() {
        let r = CsrMatrix::<f64>::from_parts(1, 2, vec![0, 2], vec![0, 1], vec![1.0]);
        assert!(r.is_err());
    }

    #[test]
    fn spmv_dimension_checks() {
        let a = figure1_example::<f64>();
        let mut u = vec![0.0; 4];
        assert!(a.spmv_seq(&[1.0; 3], &mut u).is_err());
        assert!(a.spmv_seq(&[1.0; 4], &mut [0.0; 3]).is_err());
    }

    #[test]
    fn identity_spmv_is_identity() {
        let a = CsrMatrix::<f64>::identity(5);
        let v = vec![3.0, -1.0, 0.5, 2.0, 9.0];
        assert_eq!(a.spmv_seq_alloc(&v).unwrap(), v);
    }

    #[test]
    fn zeros_matrix() {
        let a = CsrMatrix::<f32>::zeros(3, 4);
        assert_eq!(a.nnz(), 0);
        assert_eq!(a.spmv_seq_alloc(&[1.0; 4]).unwrap(), vec![0.0; 3]);
    }

    #[test]
    fn transpose_twice_is_identity_op() {
        let a = figure1_example::<f64>();
        let att = a.transpose().transpose();
        assert_eq!(a, att);
    }

    #[test]
    fn transpose_matches_dense() {
        let a = figure1_example::<f64>();
        let t = a.transpose();
        let d = a.to_dense();
        let dt = t.to_dense();
        for i in 0..4 {
            for j in 0..4 {
                assert_eq!(d.get(i, j), dt.get(j, i));
            }
        }
    }

    #[test]
    fn range_nnz_matches_sum_of_rows() {
        let a = figure1_example::<f64>();
        assert_eq!(a.range_nnz(0, 2), 4);
        assert_eq!(a.range_nnz(1, 10), 6); // end clamped to m
        assert_eq!(a.range_nnz(0, 4), a.nnz());
    }

    #[test]
    fn sort_rows_sorts() {
        let mut a =
            CsrMatrix::from_parts(1, 4, vec![0, 3], vec![3, 0, 2], vec![30.0, 0.5, 20.0]).unwrap();
        assert!(!a.rows_sorted());
        a.sort_rows();
        assert!(a.rows_sorted());
        let (cols, vals) = a.row(0);
        assert_eq!(cols, &[0, 2, 3]);
        assert_eq!(vals, &[0.5, 20.0, 30.0]);
    }

    #[test]
    fn pattern_generation_follows_the_pattern_not_the_values() {
        let mut a = figure1_example::<f64>();
        let id = a.pattern_id();
        assert_eq!(a.clone().pattern_id(), id, "clones keep the pattern id");
        a.values_mut()[0] = 9.0;
        a.fill_values_with(|k| k as f64);
        assert_eq!(a.pattern_id(), id, "value updates keep it");
        assert_ne!(
            figure1_example::<f64>().pattern_id(),
            id,
            "fresh on construction"
        );
        assert_ne!(a.transpose().pattern_id(), id);
        a.sort_rows();
        assert_ne!(a.pattern_id(), id, "sort_rows may move columns");
    }

    #[test]
    fn storage_bytes_counts_all_arrays() {
        let a = figure1_example::<f32>();
        let expect = 5 * std::mem::size_of::<usize>() + 8 * 4 + 8 * 4;
        assert_eq!(a.storage_bytes(), expect);
    }

    #[test]
    fn iter_yields_all_nnz_in_row_major_order() {
        let a = figure1_example::<f64>();
        let triplets: Vec<_> = a.iter().collect();
        assert_eq!(triplets.len(), 8);
        assert!(triplets.windows(2).all(|w| w[0].0 <= w[1].0));
        assert_eq!(triplets[0], (0, 0, 1.0));
        assert_eq!(triplets[7], (3, 3, 1.0));
    }
}
