//! Row-major multi-vector blocks for batched SpMV (SpMM).
//!
//! Single-vector SpMV is memory-bandwidth-bound: every apply re-streams
//! the whole matrix for one dot product per row. A [`DenseBlock`] holds
//! `K` right-hand sides side by side in **row-major** layout — element
//! `(i, k)` at `data[i * stride + k]` — so a kernel that has gathered one
//! matrix entry `A[r, c]` can broadcast it against the `K` contiguous
//! values of input row `c`, amortising the matrix traversal over `K`
//! outputs. Column-major (one `Vec` per vector) would make those `K`
//! loads `rows`-strided gathers; row-major makes them one cache line.
//!
//! `stride >= k` is explicit so callers can operate on a sub-block of a
//! wider allocation (e.g. the first 8 columns of a 32-wide buffer)
//! without copying — the batched kernels only ever index
//! `i * stride + k` with `k < k()`, never the slack.

use crate::scalar::Scalar;

/// `rows × k` dense block of `K` column vectors, stored row-major with an
/// explicit row stride (`stride >= k`; slack beyond `k` is never read or
/// written by the kernels).
#[derive(Clone, Debug, PartialEq)]
pub struct DenseBlock<T> {
    rows: usize,
    k: usize,
    stride: usize,
    data: Vec<T>,
}

impl<T: Scalar> DenseBlock<T> {
    /// A zero-filled `rows × k` block with the tight stride `k`.
    pub fn zeros(rows: usize, k: usize) -> Self {
        Self::zeros_strided(rows, k, k)
    }

    /// A zero-filled `rows × k` block with an explicit row stride.
    ///
    /// # Panics
    ///
    /// Panics if `stride < k` (unless both are zero) or the total size
    /// overflows.
    pub fn zeros_strided(rows: usize, k: usize, stride: usize) -> Self {
        assert!(stride >= k, "row stride {stride} shorter than width {k}");
        let len = rows.checked_mul(stride).expect("dense block too large");
        Self {
            rows,
            k,
            stride,
            data: vec![T::ZERO; len],
        }
    }

    /// Build a block from `k` equal-length column vectors (the layout
    /// transpose: `out[i][j] = columns[j][i]`).
    ///
    /// # Panics
    ///
    /// Panics if the columns have unequal lengths.
    pub fn from_columns(columns: &[Vec<T>]) -> Self {
        let rows = columns.first().map_or(0, |c| c.len());
        let mut block = Self::zeros(rows, columns.len());
        block.set_columns(columns);
        block
    }

    /// Reshape to `rows × k` with the tight stride `k`, keeping the
    /// allocation: a block reused across batches of different shapes
    /// allocates only when it outgrows its largest shape so far. Element
    /// values after the call are whatever the storage held (stale), so
    /// the caller must overwrite every element it reads.
    pub fn reshape(&mut self, rows: usize, k: usize) {
        let len = rows.checked_mul(k).expect("dense block too large");
        self.data.resize(len, T::ZERO);
        self.rows = rows;
        self.k = k;
        self.stride = k;
    }

    /// Overwrite every column: column `j` from `columns[j]`. One
    /// row-major pass per group of up to eight columns.
    ///
    /// # Panics
    ///
    /// Panics if `columns.len() != k` or a column's length is not
    /// `n_rows`.
    pub fn set_columns<C: AsRef<[T]>>(&mut self, columns: &[C]) {
        assert_eq!(columns.len(), self.k, "column count != k");
        self.gather(0, columns);
    }

    /// Copy every column out: column `j` into `columns[j]`. The inverse of
    /// [`set_columns`](Self::set_columns), with the same pass structure.
    ///
    /// # Panics
    ///
    /// Panics if `columns.len() != k` or a column's length is not
    /// `n_rows`.
    pub fn copy_columns_to<C: AsMut<[T]>>(&self, columns: &mut [C]) {
        assert_eq!(columns.len(), self.k, "column count != k");
        self.scatter(0, columns);
    }

    /// Fill every addressable element `(i, k)` with values from `f(i, k)`.
    /// Stride slack is left untouched.
    pub fn fill_with(&mut self, mut f: impl FnMut(usize, usize) -> T) {
        for i in 0..self.rows {
            for j in 0..self.k {
                self.data[i * self.stride + j] = f(i, j);
            }
        }
    }

    /// Number of rows (the vector length).
    pub fn n_rows(&self) -> usize {
        self.rows
    }

    /// Number of vectors held side by side (`K`).
    pub fn k(&self) -> usize {
        self.k
    }

    /// Row stride in elements (`>= k`).
    pub fn stride(&self) -> usize {
        self.stride
    }

    /// Row `i`: the `k` values `(i, 0..k)`, contiguous.
    pub fn row(&self, i: usize) -> &[T] {
        &self.data[i * self.stride..i * self.stride + self.k]
    }

    /// Mutable row `i`.
    pub fn row_mut(&mut self, i: usize) -> &mut [T] {
        &mut self.data[i * self.stride..i * self.stride + self.k]
    }

    /// Copy column `j` out into a contiguous vector.
    pub fn column(&self, j: usize) -> Vec<T> {
        assert!(j < self.k, "column {j} out of bounds (k = {})", self.k);
        let mut col = vec![T::ZERO; self.rows];
        self.scatter(j, std::slice::from_mut(&mut col));
        col
    }

    /// Overwrite column `j` from a contiguous vector.
    ///
    /// # Panics
    ///
    /// Panics if `j >= k` or `col.len() != n_rows`.
    pub fn set_column(&mut self, j: usize, col: &[T]) {
        assert!(j < self.k, "column {j} out of bounds (k = {})", self.k);
        self.gather(j, std::slice::from_ref(&col));
    }

    /// The backing storage (row-major, including stride slack).
    pub fn as_slice(&self) -> &[T] {
        &self.data
    }

    /// Mutable backing storage.
    pub fn as_mut_slice(&mut self) -> &mut [T] {
        &mut self.data
    }

    /// Write `columns` into columns `first..first + columns.len()`, in
    /// groups of up to [`LANES`] columns, each group one width-specialised
    /// row-major pass.
    fn gather<C: AsRef<[T]>>(&mut self, first: usize, columns: &[C]) {
        assert!(first + columns.len() <= self.k, "columns out of bounds");
        for (g, group) in columns.chunks(LANES).enumerate() {
            let c0 = first + g * LANES;
            let (rows, stride, data) = (self.rows, self.stride, &mut self.data[..]);
            match group.len() {
                1 => gather_lanes::<T, C, 1>(data, rows, stride, c0, group),
                2 => gather_lanes::<T, C, 2>(data, rows, stride, c0, group),
                3 => gather_lanes::<T, C, 3>(data, rows, stride, c0, group),
                4 => gather_lanes::<T, C, 4>(data, rows, stride, c0, group),
                5 => gather_lanes::<T, C, 5>(data, rows, stride, c0, group),
                6 => gather_lanes::<T, C, 6>(data, rows, stride, c0, group),
                7 => gather_lanes::<T, C, 7>(data, rows, stride, c0, group),
                _ => gather_lanes::<T, C, LANES>(data, rows, stride, c0, group),
            }
        }
    }

    /// Copy columns `first..first + columns.len()` out into `columns`;
    /// the mirror of [`gather`](Self::gather).
    fn scatter<C: AsMut<[T]>>(&self, first: usize, columns: &mut [C]) {
        assert!(first + columns.len() <= self.k, "columns out of bounds");
        for (g, group) in columns.chunks_mut(LANES).enumerate() {
            let c0 = first + g * LANES;
            let (rows, stride, data) = (self.rows, self.stride, &self.data[..]);
            match group.len() {
                1 => scatter_lanes::<T, C, 1>(data, rows, stride, c0, group),
                2 => scatter_lanes::<T, C, 2>(data, rows, stride, c0, group),
                3 => scatter_lanes::<T, C, 3>(data, rows, stride, c0, group),
                4 => scatter_lanes::<T, C, 4>(data, rows, stride, c0, group),
                5 => scatter_lanes::<T, C, 5>(data, rows, stride, c0, group),
                6 => scatter_lanes::<T, C, 6>(data, rows, stride, c0, group),
                7 => scatter_lanes::<T, C, 7>(data, rows, stride, c0, group),
                _ => scatter_lanes::<T, C, LANES>(data, rows, stride, c0, group),
            }
        }
    }
}

/// Widest column group the transposes move in one pass. Eight `f64`
/// columns make one 64-byte row segment; wider blocks go in groups.
const LANES: usize = 8;

/// `data[i * stride + c0 + j] = group[j][i]` for every row `i` and lane
/// `j < W`. `W` is a constant, so the lane loop unrolls into `W` loads
/// from `W` sequential streams and one contiguous store per row; a tight
/// block as wide as the group also gets a constant row stride.
fn gather_lanes<T: Scalar, C: AsRef<[T]>, const W: usize>(
    data: &mut [T],
    rows: usize,
    stride: usize,
    c0: usize,
    group: &[C],
) {
    let cols: [&[T]; W] = std::array::from_fn(|j| {
        let col = group[j].as_ref();
        assert_eq!(col.len(), rows, "column length != rows");
        col
    });
    let put = |i: usize, lanes: &mut [T]| {
        let lanes: &mut [T; W] = lanes.try_into().expect("W lanes");
        for (dst, col) in lanes.iter_mut().zip(&cols) {
            *dst = col[i];
        }
    };
    if stride == W {
        (0..rows)
            .zip(data.chunks_exact_mut(W))
            .for_each(|(i, row)| put(i, row));
    } else {
        (0..rows)
            .zip(data.chunks_exact_mut(stride))
            .for_each(|(i, row)| put(i, &mut row[c0..c0 + W]));
    }
}

/// `group[j][i] = data[i * stride + c0 + j]`: the inverse of
/// [`gather_lanes`], with the same specialisation.
fn scatter_lanes<T: Scalar, C: AsMut<[T]>, const W: usize>(
    data: &[T],
    rows: usize,
    stride: usize,
    c0: usize,
    group: &mut [C],
) {
    let mut lanes = group.iter_mut();
    let mut cols: [&mut [T]; W] = std::array::from_fn(|_| {
        let col = lanes.next().expect("group holds W columns").as_mut();
        assert_eq!(col.len(), rows, "column length != rows");
        col
    });
    let mut put = |i: usize, lanes: &[T]| {
        let lanes: &[T; W] = lanes.try_into().expect("W lanes");
        for (col, &value) in cols.iter_mut().zip(lanes) {
            col[i] = value;
        }
    };
    if stride == W {
        (0..rows)
            .zip(data.chunks_exact(W))
            .for_each(|(i, row)| put(i, row));
    } else {
        (0..rows)
            .zip(data.chunks_exact(stride))
            .for_each(|(i, row)| put(i, &row[c0..c0 + W]));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_columns_through_rows() {
        let cols = vec![
            vec![1.0f64, 2.0, 3.0],
            vec![10.0, 20.0, 30.0],
            vec![-1.0, -2.0, -3.0],
        ];
        let b = DenseBlock::from_columns(&cols);
        assert_eq!((b.n_rows(), b.k(), b.stride()), (3, 3, 3));
        assert_eq!(b.row(1), &[2.0, 20.0, -2.0]);
        for (j, col) in cols.iter().enumerate() {
            assert_eq!(&b.column(j), col);
        }
    }

    #[test]
    fn strided_blocks_keep_slack_untouched() {
        let mut b = DenseBlock::<f32>::zeros_strided(4, 2, 5);
        b.fill_with(|i, j| (i * 10 + j) as f32);
        assert_eq!(b.row(2), &[20.0, 21.0]);
        // Slack positions stay at their initial zero.
        assert_eq!(b.as_slice()[2 * 5 + 2], 0.0);
        let mut c = b.clone();
        c.set_column(1, &[9.0, 9.0, 9.0, 9.0]);
        assert_eq!(c.column(1), vec![9.0; 4]);
        assert_eq!(c.column(0), b.column(0));
    }

    /// Every width 1..=19 (one to three lane groups, full and partial),
    /// tight and strided, through the gather and the scatter.
    #[test]
    fn grouped_transposes_round_trip_every_width() {
        for k in 1..=19 {
            let cols: Vec<Vec<f32>> = (0..k)
                .map(|j| (0..37).map(|i| (i * 31 + j) as f32).collect())
                .collect();
            let tight = DenseBlock::from_columns(&cols);
            let mut strided = DenseBlock::zeros_strided(37, k, k + 3);
            strided.set_columns(&cols);
            for b in [&tight, &strided] {
                for i in 0..37 {
                    let want: Vec<f32> = (0..k).map(|j| (i * 31 + j) as f32).collect();
                    assert_eq!(b.row(i), want.as_slice(), "k = {k}, row {i}");
                }
                let mut out = vec![vec![0.0f32; 37]; k];
                b.copy_columns_to(&mut out);
                assert_eq!(out, cols, "k = {k}");
                assert_eq!(b.column(k - 1), cols[k - 1]);
            }
            // Stride slack is never written.
            for i in 0..37 {
                assert_eq!(
                    &strided.as_slice()[i * (k + 3) + k..(i + 1) * (k + 3)],
                    &[0.0; 3]
                );
            }
        }
    }

    #[test]
    fn reshape_reuses_storage_and_keeps_stale_values() {
        let mut b = DenseBlock::from_columns(&[vec![1.0f64; 6], vec![2.0; 6]]);
        let ptr = b.as_slice().as_ptr();
        b.reshape(4, 3);
        assert_eq!((b.n_rows(), b.k(), b.stride()), (4, 3, 3));
        assert_eq!(
            b.as_slice().as_ptr(),
            ptr,
            "a smaller shape must not reallocate"
        );
        assert_eq!(b.as_slice().len(), 12);
        // The storage is left as it was: the caller overwrites it.
        assert_eq!(b.row(0), &[1.0, 2.0, 1.0]);
        b.set_columns(&[[5.0; 4], [6.0; 4], [7.0; 4]]);
        assert_eq!(b.row(3), &[5.0, 6.0, 7.0]);
    }

    #[test]
    #[should_panic(expected = "column length != rows")]
    fn unequal_columns_panic() {
        let _ = DenseBlock::from_columns(&[vec![1.0f64; 3], vec![1.0; 2]]);
    }

    #[test]
    fn zero_width_and_zero_rows_are_fine() {
        let b = DenseBlock::<f64>::zeros(5, 0);
        assert_eq!(b.k(), 0);
        assert_eq!(b.row(4), &[] as &[f64]);
        let c = DenseBlock::<f64>::zeros(0, 3);
        assert_eq!(c.n_rows(), 0);
        assert_eq!(c.as_slice().len(), 0);
    }

    #[test]
    #[should_panic(expected = "shorter than width")]
    fn stride_below_width_panics() {
        let _ = DenseBlock::<f64>::zeros_strided(2, 4, 3);
    }
}
