//! Triangular-solve substrate: triangularity detection, level-set
//! dependency scheduling, triangular splitting, and the sequential
//! reference kernels for SpTRSV and symmetric Gauss-Seidel (SymGS).
//!
//! Iterative solvers (CG with triangular preconditioners, multigrid
//! smoothers) need three sparse kernels: SpMV, sparse triangular solve,
//! and the SymGS sweep. Unlike SpMV, a triangular solve carries
//! *dependencies* between rows — row `i` of a lower-triangular solve
//! reads `x[j]` for every stored column `j < i` — so parallel execution
//! needs a schedule that provably respects them. The standard schedule
//! is the **level set**: row `i`'s level is the length of its longest
//! dependency chain, rows of equal level are mutually independent, and
//! a barrier between consecutive levels makes the whole solve race-free.
//!
//! This module provides the structure side of that story:
//!
//! * [`CsrMatrix::triangularity`] — classify a pattern as lower/upper
//!   triangular (or neither) and detect missing diagonal entries;
//! * [`level_order`] — build the level schedule for a triangular matrix,
//!   rejecting non-triangular or diagonal-deficient inputs with a typed
//!   [`SolveBuildError`];
//! * [`split_triangular`] — extract the `L + D` / `D + U` halves (and
//!   the strict upper half `U`) a SymGS sweep is composed from;
//! * [`sptrsv_seq`] / [`symgs_seq`] — the sequential references every
//!   parallel execution is compared against **bit for bit**: the
//!   parallel kernels perform the identical per-row arithmetic in the
//!   identical intra-row order, so any schedule that respects the
//!   dependencies reproduces these results exactly.

use crate::csr::CsrMatrix;
use crate::error::{SolveBuildError, SparseError};
use crate::packed::SellSlab;
use crate::scalar::Scalar;

/// Which triangle a solve traverses, and in which row order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum SolveDirection {
    /// Forward substitution over a lower-triangular matrix (`L + D`):
    /// rows solved in ascending order, row `i` reads columns `j < i`.
    Forward,
    /// Backward substitution over an upper-triangular matrix (`D + U`):
    /// rows solved in descending order, row `i` reads columns `j > i`.
    Backward,
}

impl SolveDirection {
    /// Short human-readable label (`"forward"` / `"backward"`).
    pub fn label(self) -> &'static str {
        match self {
            SolveDirection::Forward => "forward",
            SolveDirection::Backward => "backward",
        }
    }

    /// Is column `c` a dependency of row `r` under this direction
    /// (strictly on the solved triangle's side)?
    #[inline]
    pub fn is_dependency(self, r: usize, c: usize) -> bool {
        match self {
            SolveDirection::Forward => c < r,
            SolveDirection::Backward => c > r,
        }
    }
}

impl std::fmt::Display for SolveDirection {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.label())
    }
}

/// Classification of a matrix pattern relative to its diagonal,
/// produced by [`CsrMatrix::triangularity`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Triangularity {
    /// Every off-diagonal entry sits strictly below the diagonal. A
    /// purely diagonal pattern also reports `Lower` (both solves work;
    /// forward is the convention).
    Lower {
        /// First row with no structural diagonal entry, if any.
        missing_diagonal: Option<usize>,
    },
    /// Every off-diagonal entry sits strictly above the diagonal.
    Upper {
        /// First row with no structural diagonal entry, if any.
        missing_diagonal: Option<usize>,
    },
    /// Entries on both strict sides of the diagonal; carries one
    /// witness entry `(row, col)` from each side.
    Neither {
        /// First strictly-lower entry encountered.
        lower: (usize, u32),
        /// First strictly-upper entry encountered.
        upper: (usize, u32),
    },
}

impl<T: Scalar> CsrMatrix<T> {
    /// Classify this pattern as lower-triangular, upper-triangular, or
    /// neither, and report the first structurally missing diagonal
    /// entry. One O(nnz) scan; value content is ignored (an explicit
    /// stored zero still counts as a structural entry).
    pub fn triangularity(&self) -> Triangularity {
        let mut first_lower: Option<(usize, u32)> = None;
        let mut first_upper: Option<(usize, u32)> = None;
        let mut missing_diagonal: Option<usize> = None;
        for i in 0..self.n_rows() {
            let (cols, _) = self.row(i);
            let mut has_diag = false;
            for &c in cols {
                let ci = c as usize;
                if ci == i {
                    has_diag = true;
                } else if ci < i {
                    first_lower.get_or_insert((i, c));
                } else {
                    first_upper.get_or_insert((i, c));
                }
            }
            if !has_diag && missing_diagonal.is_none() {
                missing_diagonal = Some(i);
            }
        }
        match (first_lower, first_upper) {
            (Some(lower), Some(upper)) => Triangularity::Neither { lower, upper },
            (None, Some(_)) => Triangularity::Upper { missing_diagonal },
            _ => Triangularity::Lower { missing_diagonal },
        }
    }
}

/// Validate that `a` is square, strictly on `dir`'s triangle, and
/// carries a structural diagonal in every row — the premises every
/// solve in this module builds on.
pub fn check_solvable<T: Scalar>(
    a: &CsrMatrix<T>,
    dir: SolveDirection,
) -> Result<(), SolveBuildError> {
    check_rows(a, dir, false)
}

/// [`check_solvable`], or with `half` the premises of a solve over the
/// `dir` half of a general matrix: entries of the other triangle are
/// skipped, not defects.
fn check_rows<T: Scalar>(
    a: &CsrMatrix<T>,
    dir: SolveDirection,
    half: bool,
) -> Result<(), SolveBuildError> {
    if a.n_rows() != a.n_cols() {
        return Err(SolveBuildError::NotSquare {
            n_rows: a.n_rows(),
            n_cols: a.n_cols(),
        });
    }
    for i in 0..a.n_rows() {
        let (cols, _) = a.row(i);
        let mut has_diag = false;
        for &c in cols {
            let ci = c as usize;
            if ci == i {
                has_diag = true;
            } else if half && !dir.is_dependency(i, ci) && ci < a.n_rows() {
                continue;
            } else if !dir.is_dependency(i, ci) || ci >= a.n_rows() {
                return Err(SolveBuildError::OffTriangle {
                    direction: dir,
                    row: i,
                    col: c,
                });
            }
        }
        if !has_diag {
            return Err(SolveBuildError::MissingDiagonal { row: i });
        }
    }
    Ok(())
}

/// Build the level-set schedule for a triangular solve as one flat
/// array: every row in level order, and each level's start in that
/// array — `starts[l]..starts[l + 1]` is level `l`, `starts.len()` is
/// the level count plus one. Level `l` lists the rows whose longest
/// dependency chain has length `l`, in the direction's natural
/// traversal order (ascending rows for forward, descending for
/// backward). Rows within one level are mutually independent by
/// construction; every dependency of a level-`l` row sits in a level
/// `< l`.
///
/// One level pass and one counting-sort pass, no per-level allocation;
/// the [`check_solvable`] premises are checked in the level pass
/// itself. Rejects non-square, non-triangular, or diagonal-deficient
/// inputs with a typed [`SolveBuildError`]. O(m + nnz).
pub fn level_order<T: Scalar>(
    a: &CsrMatrix<T>,
    dir: SolveDirection,
) -> Result<(Vec<u32>, Vec<usize>), SolveBuildError> {
    level_order_with_offdiag(a, dir, false).map(|(rows, starts, _)| (rows, starts))
}

/// A level schedule as [`level_order_with_offdiag`] returns it: rows in
/// level order, each level's start, and each listed row's off-diagonal
/// count.
pub type LevelOrder = (Vec<u32>, Vec<usize>, Vec<u32>);

/// [`level_order`] plus the off-diagonal count of each row it lists —
/// its entries on `dir`'s side of the diagonal, aligned with the
/// returned rows — which the level pass counts as it reads every entry
/// anyway. With `half`, `a` is a general square matrix and the schedule
/// is that of its `dir` half, as a SymGS sweep solves it: the other
/// triangle's entries are skipped rather than rejected, so only a
/// non-square shape or a missing diagonal is a defect.
pub fn level_order_with_offdiag<T: Scalar>(
    a: &CsrMatrix<T>,
    dir: SolveDirection,
    half: bool,
) -> Result<LevelOrder, SolveBuildError> {
    // The level pass below checks the `check_solvable` premises as it
    // goes; on a defect, `check_rows` names the first one in row order,
    // whichever the traversal met first.
    let defect = || check_rows(a, dir, half).expect_err("the level pass met a defect");
    let m = a.n_rows();
    if a.n_cols() != m {
        return Err(defect());
    }
    let row_at = |t: usize| match dir {
        SolveDirection::Forward => t,
        SolveDirection::Backward => m - 1 - t,
    };
    let mut level = vec![0u32; m];
    let mut offdiag = vec![0u32; m];
    let mut counts: Vec<usize> = Vec::new();
    for t in 0..m {
        let i = row_at(t);
        let mut l = 0u32;
        let (mut deps, mut has_diag) = (0u32, false);
        for &c in a.row(i).0 {
            let ci = c as usize;
            if ci == i {
                has_diag = true;
            } else if dir.is_dependency(i, ci) && ci < m {
                // A same-direction dependency: level[ci] is final.
                l = l.max(level[ci] + 1);
                deps += 1;
            } else if !half || ci >= m {
                return Err(defect());
            }
        }
        if !has_diag {
            return Err(defect());
        }
        level[i] = l;
        offdiag[i] = deps;
        // A level is at most one past the deepest seen so far.
        if l as usize == counts.len() {
            counts.push(0);
        }
        counts[l as usize] += 1;
    }
    let mut starts = Vec::with_capacity(counts.len() + 1);
    starts.push(0);
    for c in counts {
        starts.push(starts[starts.len() - 1] + c);
    }
    let mut next = starts[..starts.len() - 1].to_vec();
    let mut rows = vec![0u32; m];
    let mut row_offdiag = vec![0u32; m];
    for t in 0..m {
        let i = row_at(t);
        let slot = &mut next[level[i] as usize];
        rows[*slot] = i as u32;
        row_offdiag[*slot] = offdiag[i];
        *slot += 1;
    }
    Ok((rows, starts, row_offdiag))
}

/// Sequential sparse triangular solve: `a * x = b` with `a` triangular
/// per `dir`. This is the bit-for-bit reference for every parallel
/// schedule: per row, off-diagonal products are subtracted in storage
/// order (`sum = sum - v * x[c]`), then one divide by the diagonal.
///
/// Errors on dimension mismatches and (via
/// [`SolveBuildError::MissingDiagonal`]) on rows without a diagonal
/// entry; triangularity itself is not re-validated here — on a
/// non-triangular input the result is a Gauss-Seidel-like sweep, not a
/// solve.
pub fn sptrsv_seq<T: Scalar>(
    a: &CsrMatrix<T>,
    dir: SolveDirection,
    b: &[T],
    x: &mut [T],
) -> Result<(), SparseError> {
    if b.len() != a.n_rows() {
        return Err(SparseError::DimensionMismatch {
            context: "sptrsv rhs".into(),
            expected: a.n_rows(),
            got: b.len(),
        });
    }
    if x.len() != a.n_cols() {
        return Err(SparseError::DimensionMismatch {
            context: "sptrsv solution".into(),
            expected: a.n_cols(),
            got: x.len(),
        });
    }
    let m = a.n_rows();
    let order: Box<dyn Iterator<Item = usize>> = match dir {
        SolveDirection::Forward => Box::new(0..m),
        SolveDirection::Backward => Box::new((0..m).rev()),
    };
    for i in order {
        let (cols, vals) = a.row(i);
        let mut sum = b[i];
        let mut diag: Option<T> = None;
        for (&c, &v) in cols.iter().zip(vals) {
            let ci = c as usize;
            if ci == i {
                diag = Some(v);
            } else {
                sum = sum - v * x[ci];
            }
        }
        let d = diag.ok_or(SolveBuildError::MissingDiagonal { row: i })?;
        x[i] = sum / d;
    }
    Ok(())
}

/// The three triangular views of a square matrix `A = L + D + U` a SymGS
/// sweep is composed from: the solvable halves `L + D` and `D + U`, and
/// the strict upper half `U` its residual SpMV reads. (The strict lower
/// half is not stored: the sweep forms `L·x` from the `L + D` entries it
/// already reads.) [`symgs_seq`] splits once per call; a compiled sweep
/// holds no split and builds one only on request, from its level slabs
/// ([`from_slabs`](Self::from_slabs)).
#[derive(Debug)]
pub struct TriangularHalves<T: Scalar> {
    lower: CsrMatrix<T>,
    upper: CsrMatrix<T>,
    strict_upper: CsrMatrix<T>,
}

impl<T: Scalar> TriangularHalves<T> {
    /// The split held by a sweep's forward slab (`lower`, lanes of
    /// [`Entries::Lower`]) and backward slab (`upper`, [`Entries::Upper`]),
    /// values as the slabs hold them: each row's strict entries in
    /// storage order, then its one diagonal (the last, the one
    /// [`sptrsv_seq`] divides by, which it reads apart wherever it
    /// sits). Each matrix carries its slab's value generation, so
    /// solving with it refreshes nothing.
    ///
    /// [`Entries::Lower`]: crate::packed::Entries::Lower
    /// [`Entries::Upper`]: crate::packed::Entries::Upper
    pub fn from_slabs(lower: &SellSlab<T>, upper: &SellSlab<T>) -> Self {
        Self {
            lower: lower.to_csr(true),
            upper: upper.to_csr(true),
            strict_upper: upper.to_csr(false),
        }
    }

    /// The solvable lower half `L + D`.
    pub fn lower(&self) -> &CsrMatrix<T> {
        &self.lower
    }

    /// The solvable upper half `D + U`.
    pub fn upper(&self) -> &CsrMatrix<T> {
        &self.upper
    }

    /// The strictly-upper half `U` (no diagonal).
    pub fn strict_upper(&self) -> &CsrMatrix<T> {
        &self.strict_upper
    }
}

/// Split a square matrix with a full structural diagonal into its three
/// triangular views (see [`TriangularHalves`]). Rejects non-square
/// inputs and rows without a diagonal entry — SymGS divides by the
/// diagonal, so a missing entry is a build error, not a runtime NaN.
pub fn split_triangular<T: Scalar>(
    a: &CsrMatrix<T>,
) -> Result<TriangularHalves<T>, SolveBuildError> {
    if a.n_rows() != a.n_cols() {
        return Err(SolveBuildError::NotSquare {
            n_rows: a.n_rows(),
            n_cols: a.n_cols(),
        });
    }
    let m = a.n_rows();
    // Counting pass: each half's row pointers (and the missing-diagonal
    // check), so the fill pass below writes into exactly-sized buffers.
    // Halves: 0 = L + D, 1 = D + U, 2 = U.
    let mut row_ptrs: [Vec<usize>; 3] = std::array::from_fn(|_| {
        let mut p = Vec::with_capacity(m + 1);
        p.push(0);
        p
    });
    // Running entry totals below / above the diagonal, so every push
    // is a row end.
    let (mut below, mut above) = (0usize, 0usize);
    for i in 0..m {
        let (cols, _) = a.row(i);
        let mut has_diag = false;
        for &c in cols {
            let ci = c as usize;
            has_diag |= ci == i;
            below += usize::from(ci < i);
            above += usize::from(ci > i);
        }
        if !has_diag {
            return Err(SolveBuildError::MissingDiagonal { row: i });
        }
        let diag = a.row_ptr()[i + 1] - below - above;
        for (p, end) in row_ptrs.iter_mut().zip([below + diag, diag + above, above]) {
            p.push(end);
        }
    }
    struct HalfAcc<T> {
        row_ptr: Vec<usize>,
        cols: Vec<u32>,
        vals: Vec<T>,
    }
    impl<T> HalfAcc<T> {
        fn push(&mut self, c: u32, v: T) {
            self.cols.push(c);
            self.vals.push(v);
        }
    }
    let mut halves = row_ptrs.map(|row_ptr| {
        let nnz = row_ptr[m];
        HalfAcc {
            row_ptr,
            cols: Vec::with_capacity(nnz),
            vals: Vec::with_capacity(nnz),
        }
    });
    for i in 0..m {
        let (cols, vals) = a.row(i);
        for (&c, &v) in cols.iter().zip(vals) {
            let ci = c as usize;
            if ci == i {
                halves[0].push(c, v);
                halves[1].push(c, v);
            } else if ci < i {
                halves[0].push(c, v);
            } else {
                halves[1].push(c, v);
                halves[2].push(c, v);
            }
        }
    }
    // Each half is a row-order subsequence of `a`'s entries with
    // exactly-counted row pointers, so `a`'s CSR invariants carry over
    // and need no second validation scan.
    let [lower, upper, strict_upper] =
        halves.map(|h| CsrMatrix::from_parts_unchecked(m, m, h.row_ptr, h.cols, h.vals));
    Ok(TriangularHalves {
        lower,
        upper,
        strict_upper,
    })
}

/// Sequential symmetric Gauss-Seidel sweep, the bit-for-bit reference
/// for the composed parallel pipeline. One sweep is:
///
/// 1. `r = b - U x`           (strict-upper SpMV + residual)
/// 2. `(L + D) x = r`         (forward SpTRSV)
/// 3. `r = b - L x`           (strict-lower SpMV + residual)
/// 4. `(D + U) x = r`         (backward SpTRSV)
///
/// This *composed* form — residual first, then a pure triangular solve
/// — is the definition of the sweep here (rather than the interleaved
/// in-place update), so the parallel pipeline built from the same
/// halves reproduces it exactly, summation order included.
pub fn symgs_seq<T: Scalar>(a: &CsrMatrix<T>, b: &[T], x: &mut [T]) -> Result<(), SparseError> {
    let halves = split_triangular(a)?;
    symgs_seq_halves(&halves, b, x)
}

/// [`symgs_seq`] over a pre-built split, for callers amortising the
/// structural work across sweeps.
pub fn symgs_seq_halves<T: Scalar>(
    halves: &TriangularHalves<T>,
    b: &[T],
    x: &mut [T],
) -> Result<(), SparseError> {
    let m = halves.lower().n_rows();
    if b.len() != m {
        return Err(SparseError::DimensionMismatch {
            context: "symgs rhs".into(),
            expected: m,
            got: b.len(),
        });
    }
    let mut r = halves.strict_upper().spmv_seq_alloc(x)?;
    for (ri, &bi) in r.iter_mut().zip(b) {
        *ri = bi - *ri;
    }
    sptrsv_seq(halves.lower(), SolveDirection::Forward, &r, x)?;
    // `L·x` from the `L + D` rows with the diagonal skipped: the same
    // storage-order multiply-add chain as `spmv_seq` of the strict half.
    let lower = halves.lower();
    for (i, (ri, &bi)) in r.iter_mut().zip(b).enumerate() {
        let (cols, vals) = lower.row(i);
        let mut lx = T::ZERO;
        for (&c, &v) in cols.iter().zip(vals) {
            if c as usize != i {
                lx = v.mul_add_(x[c as usize], lx);
            }
        }
        *ri = bi - lx;
    }
    sptrsv_seq(halves.upper(), SolveDirection::Backward, &r, x)?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;

    /// Lower-triangular-with-diagonal version of an arbitrary square
    /// matrix: keep strictly-lower entries, force a dominant diagonal.
    fn tril_with_diag(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
        let m = a.n_rows();
        let mut builder = gen::RowsBuilder::<f64>::new(m);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..m {
            cols.clear();
            vals.clear();
            let (rc, rv) = a.row(i);
            let mut dominant = 1.0;
            for (&c, &v) in rc.iter().zip(rv) {
                if (c as usize) < i {
                    cols.push(c);
                    vals.push(v);
                    dominant += v.abs();
                }
            }
            cols.push(i as u32);
            vals.push(dominant);
            builder.push_row_sorted(&cols, &vals);
        }
        builder.finish()
    }

    #[test]
    fn triangularity_classifies_all_shapes() {
        let lower = tril_with_diag(&gen::random_uniform::<f64>(40, 40, 1, 5, 1));
        match lower.triangularity() {
            Triangularity::Lower {
                missing_diagonal: None,
            } => {}
            other => panic!("expected Lower, got {other:?}"),
        }
        let upper = lower.transpose();
        match upper.triangularity() {
            Triangularity::Upper {
                missing_diagonal: None,
            } => {}
            other => panic!("expected Upper, got {other:?}"),
        }
        let full = gen::banded::<f64>(30, 2, 7);
        match full.triangularity() {
            Triangularity::Neither { lower, upper } => {
                assert!(lower.0 > lower.1 as usize);
                assert!(upper.0 < upper.1 as usize);
            }
            other => panic!("expected Neither, got {other:?}"),
        }
        // Diagonal-only reports Lower by convention.
        let diag = CsrMatrix::<f64>::identity(5);
        assert!(matches!(
            diag.triangularity(),
            Triangularity::Lower {
                missing_diagonal: None
            }
        ));
    }

    #[test]
    fn triangularity_reports_missing_diagonal() {
        // Row 1 has no diagonal entry.
        let a = CsrMatrix::<f64>::from_parts(
            3,
            3,
            vec![0, 1, 2, 4],
            vec![0, 0, 0, 2],
            vec![1.0, 2.0, 3.0, 4.0],
        )
        .unwrap();
        match a.triangularity() {
            Triangularity::Lower {
                missing_diagonal: Some(1),
            } => {}
            other => panic!("expected missing diagonal at row 1, got {other:?}"),
        }
    }

    #[test]
    fn level_order_respects_dependencies_and_partitions_rows() {
        let a = tril_with_diag(&gen::powerlaw::<f64>(300, 1, 60, 2.1, 5));
        let (order, starts) = level_order(&a, SolveDirection::Forward).unwrap();
        let mut level_of = vec![usize::MAX; a.n_rows()];
        let mut seen = 0usize;
        for (l, w) in starts.windows(2).enumerate() {
            assert!(w[0] < w[1], "level {l} is empty");
            for &r in &order[w[0]..w[1]] {
                assert_eq!(level_of[r as usize], usize::MAX, "row {r} scheduled twice");
                level_of[r as usize] = l;
                seen += 1;
            }
        }
        assert_eq!(seen, a.n_rows());
        for i in 0..a.n_rows() {
            let (cols, _) = a.row(i);
            for &c in cols {
                if (c as usize) != i {
                    assert!(
                        level_of[c as usize] < level_of[i],
                        "row {i} (level {}) depends on row {c} (level {})",
                        level_of[i],
                        level_of[c as usize]
                    );
                }
            }
        }
    }

    #[test]
    fn level_order_walks_levels_in_traversal_order_and_names_the_same_defects() {
        let a = tril_with_diag(&gen::powerlaw::<f64>(300, 1, 60, 2.1, 5));
        for (m, dir) in [
            (a.clone(), SolveDirection::Forward),
            (a.transpose(), SolveDirection::Backward),
        ] {
            let (rows, starts) = level_order(&m, dir).unwrap();
            assert_eq!(starts.first(), Some(&0));
            assert_eq!(starts.last(), Some(&m.n_rows()));
            assert_eq!(rows.len(), m.n_rows());
            for w in starts.windows(2) {
                let level = &rows[w[0]..w[1]];
                assert!(
                    level.windows(2).all(|p| match dir {
                        SolveDirection::Forward => p[0] < p[1],
                        SolveDirection::Backward => p[0] > p[1],
                    }),
                    "{dir:?}: a level is not in traversal order"
                );
            }
        }
        // A backward walk meets row 19's defect first; the error still
        // names the first defective row in row order, as
        // `check_solvable` does.
        let mut b = crate::gen::RowsBuilder::<f64>::new(20);
        for i in 0..20u32 {
            match i {
                3 => b.push_row_sorted(&[1, 3], &[1.0, 1.0]),
                19 => b.push_row_sorted(&[0, 19], &[1.0, 1.0]),
                _ => b.push_row_sorted(&[i], &[1.0]),
            }
        }
        let bad = b.finish();
        assert_eq!(
            level_order(&bad, SolveDirection::Backward).unwrap_err(),
            check_solvable(&bad, SolveDirection::Backward).unwrap_err()
        );
        assert!(matches!(
            level_order(&bad, SolveDirection::Backward),
            Err(SolveBuildError::OffTriangle { row: 3, .. })
        ));
    }

    #[test]
    fn level_order_rejects_bad_structure() {
        let full = gen::banded::<f64>(20, 1, 3);
        assert!(matches!(
            level_order(&full, SolveDirection::Forward),
            Err(SolveBuildError::OffTriangle { .. })
        ));
        let rect = gen::random_uniform::<f64>(10, 20, 1, 3, 4);
        assert!(matches!(
            level_order(&rect, SolveDirection::Forward),
            Err(SolveBuildError::NotSquare { .. })
        ));
        let no_diag =
            CsrMatrix::<f64>::from_parts(2, 2, vec![0, 1, 2], vec![0, 0], vec![1.0, 1.0]).unwrap();
        assert!(matches!(
            level_order(&no_diag, SolveDirection::Forward),
            Err(SolveBuildError::MissingDiagonal { row: 1 })
        ));
    }

    #[test]
    fn sptrsv_seq_solves_lower_and_upper_systems() {
        let a = tril_with_diag(&gen::random_uniform::<f64>(120, 120, 1, 6, 9));
        let x_true: Vec<f64> = (0..120).map(|i| ((i % 13) as f64) - 6.0).collect();
        let b = a.spmv_seq_alloc(&x_true).unwrap();
        let mut x = vec![0.0; 120];
        sptrsv_seq(&a, SolveDirection::Forward, &b, &mut x).unwrap();
        for (xs, xt) in x.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-8, "{xs} vs {xt}");
        }
        let u = a.transpose();
        let bu = u.spmv_seq_alloc(&x_true).unwrap();
        let mut xu = vec![0.0; 120];
        sptrsv_seq(&u, SolveDirection::Backward, &bu, &mut xu).unwrap();
        for (xs, xt) in xu.iter().zip(&x_true) {
            assert!((xs - xt).abs() < 1e-8, "{xs} vs {xt}");
        }
    }

    #[test]
    fn split_halves_partition_entries() {
        let a = gen::banded::<f64>(80, 3, 11);
        let halves = split_triangular(&a).unwrap();
        assert_eq!(
            halves.lower().nnz() + halves.upper().nnz(),
            a.nnz() + a.n_rows(),
            "(L + D) plus (D + U) must cover every entry once, the diagonal twice"
        );
        assert_eq!(halves.lower().nnz() + halves.strict_upper().nnz(), a.nnz());
        let i = 40;
        let (_, dv) = halves.lower().row(i);
        let (ac, av) = a.row(i);
        let diag_src = ac
            .iter()
            .zip(av)
            .find(|(&c, _)| c as usize == i)
            .map(|(_, &v)| v)
            .unwrap();
        assert_eq!(*dv.last().unwrap(), diag_src);
    }

    #[test]
    fn symgs_converges_on_a_dominant_system() {
        // Diagonally dominant banded system: a few sweeps shrink the
        // residual monotonically toward the solution.
        let mut a = gen::banded::<f64>(100, 2, 13);
        let m = a.n_rows();
        for i in 0..m {
            let (rc, _) = a.row(i);
            let rc = rc.to_vec();
            let start = a.row_ptr()[i];
            let vals = a.values_mut();
            let mut offsum = 0.0;
            for (k, &c) in rc.iter().enumerate() {
                if c as usize != i {
                    offsum += vals[start + k].abs();
                }
            }
            for (k, &c) in rc.iter().enumerate() {
                if c as usize == i {
                    vals[start + k] = offsum + 1.0;
                }
            }
        }
        let x_true: Vec<f64> = (0..m).map(|i| ((i % 7) as f64) - 3.0).collect();
        let b = a.spmv_seq_alloc(&x_true).unwrap();
        let mut x = vec![0.0; m];
        let err = |x: &[f64]| -> f64 {
            x.iter()
                .zip(&x_true)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max)
        };
        let e0 = err(&x);
        for _ in 0..8 {
            symgs_seq(&a, &b, &mut x).unwrap();
        }
        assert!(err(&x) < e0 * 1e-6, "SymGS failed to converge: {}", err(&x));
    }
}
