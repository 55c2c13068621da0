//! Error type for sparse-matrix construction and I/O.

use std::fmt;

/// Errors produced while constructing, validating, or parsing sparse
/// matrices.
#[derive(Debug)]
pub enum SparseError {
    /// Structural invariant violated (non-monotone row pointer, column
    /// index out of range, array-length mismatch, …).
    InvalidStructure(String),
    /// Dimension mismatch between operands (e.g. SpMV with a wrong-length
    /// vector).
    DimensionMismatch {
        /// Human-readable description of the operation.
        context: String,
        /// Size the operation expected.
        expected: usize,
        /// Size it was given.
        got: usize,
    },
    /// Matrix Market (or other) parse failure, with 1-based line number.
    Parse {
        /// Line at which parsing failed.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// Underlying I/O failure.
    Io(std::io::Error),
}

impl fmt::Display for SparseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SparseError::InvalidStructure(msg) => write!(f, "invalid sparse structure: {msg}"),
            SparseError::DimensionMismatch {
                context,
                expected,
                got,
            } => write!(
                f,
                "dimension mismatch in {context}: expected {expected}, got {got}"
            ),
            SparseError::Parse { line, message } => {
                write!(f, "parse error at line {line}: {message}")
            }
            SparseError::Io(e) => write!(f, "i/o error: {e}"),
        }
    }
}

impl std::error::Error for SparseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SparseError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for SparseError {
    fn from(e: std::io::Error) -> Self {
        SparseError::Io(e)
    }
}

/// Typed CSR construction failure, produced by [`CsrMatrix::try_new`].
/// Each variant names the violated invariant and the offending values, so
/// callers (and the `spmv-lint` analyzer) can match on the exact defect
/// instead of parsing a message string.
///
/// [`CsrMatrix::try_new`]: crate::csr::CsrMatrix::try_new
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CsrBuildError {
    /// `row_ptr.len()` must be `n_rows + 1`.
    RowPtrLen {
        /// Actual `row_ptr` length.
        len: usize,
        /// Declared row count.
        n_rows: usize,
    },
    /// `row_ptr[0]` must be 0.
    RowPtrStart {
        /// Actual first entry.
        first: usize,
    },
    /// `row_ptr[n_rows]` must equal `col_idx.len()`.
    NnzMismatch {
        /// Final `row_ptr` entry.
        last: usize,
        /// `col_idx.len()`.
        nnz: usize,
    },
    /// `col_idx` and `values` must have the same length.
    LengthMismatch {
        /// `col_idx.len()`.
        col_idx: usize,
        /// `values.len()`.
        values: usize,
    },
    /// `row_ptr` must be monotone non-decreasing; `row` is the first row
    /// whose pointer exceeds its successor.
    NonMonotone {
        /// First offending row index.
        row: usize,
    },
    /// Every column index must be below `n_cols`.
    ColOutOfBounds {
        /// Position in `col_idx` of the offending entry.
        pos: usize,
        /// The out-of-range column index.
        col: u32,
        /// Declared column count.
        n_cols: usize,
    },
}

impl fmt::Display for CsrBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            CsrBuildError::RowPtrLen { len, n_rows } => {
                write!(f, "row_ptr length {len} != n_rows + 1 = {}", n_rows + 1)
            }
            CsrBuildError::RowPtrStart { first } => {
                write!(f, "row_ptr[0] = {first} (must be 0)")
            }
            CsrBuildError::NnzMismatch { last, nnz } => {
                write!(f, "row_ptr[last] = {last} != nnz = {nnz}")
            }
            CsrBuildError::LengthMismatch { col_idx, values } => {
                write!(f, "col_idx length {col_idx} != values length {values}")
            }
            CsrBuildError::NonMonotone { row } => {
                write!(f, "row_ptr decreases at row {row}")
            }
            CsrBuildError::ColOutOfBounds { pos, col, n_cols } => {
                write!(
                    f,
                    "column index {col} at position {pos} out of range (n_cols = {n_cols})"
                )
            }
        }
    }
}

impl std::error::Error for CsrBuildError {}

impl From<CsrBuildError> for SparseError {
    fn from(e: CsrBuildError) -> Self {
        SparseError::InvalidStructure(e.to_string())
    }
}

/// Typed rejection of a matrix handed to the triangular-solve stack
/// ([`level_order`], [`split_triangular`], and the solve-plan builders in
/// `spmv-autotune`). Each variant names the violated premise and a
/// witness, so plan construction fails with a diagnosable error instead
/// of a panic (or a silently wrong solve).
///
/// [`level_order`]: crate::solve::level_order
/// [`split_triangular`]: crate::solve::split_triangular
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum SolveBuildError {
    /// Triangular solves need a square system.
    NotSquare {
        /// Row count.
        n_rows: usize,
        /// Column count.
        n_cols: usize,
    },
    /// An entry sits on the wrong side of the diagonal for the
    /// requested direction (or beyond the matrix entirely): the matrix
    /// is not triangular the way the solve needs it to be.
    OffTriangle {
        /// Direction the solve was built for.
        direction: crate::solve::SolveDirection,
        /// Row of the witness entry.
        row: usize,
        /// Column of the witness entry.
        col: u32,
    },
    /// A row has no structural diagonal entry — the solve would divide
    /// by an entry that does not exist.
    MissingDiagonal {
        /// First diagonal-less row.
        row: usize,
    },
}

impl fmt::Display for SolveBuildError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            SolveBuildError::NotSquare { n_rows, n_cols } => {
                write!(
                    f,
                    "triangular solve needs a square matrix, got {n_rows}x{n_cols}"
                )
            }
            SolveBuildError::OffTriangle {
                direction,
                row,
                col,
            } => {
                let side = match direction {
                    crate::solve::SolveDirection::Forward => "above",
                    crate::solve::SolveDirection::Backward => "below",
                };
                write!(
                    f,
                    "{direction} solve needs a triangular matrix: row {row} has an entry in \
                     column {col}, {side} the diagonal"
                )
            }
            SolveBuildError::MissingDiagonal { row } => {
                write!(f, "row {row} has no structural diagonal entry to divide by")
            }
        }
    }
}

impl std::error::Error for SolveBuildError {}

impl From<SolveBuildError> for SparseError {
    fn from(e: SolveBuildError) -> Self {
        SparseError::InvalidStructure(e.to_string())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        let e = SparseError::InvalidStructure("bad".into());
        assert!(e.to_string().contains("bad"));
        let e = SparseError::DimensionMismatch {
            context: "spmv".into(),
            expected: 4,
            got: 5,
        };
        assert!(e.to_string().contains("spmv"));
        assert!(e.to_string().contains('4'));
        let e = SparseError::Parse {
            line: 7,
            message: "nope".into(),
        };
        assert!(e.to_string().contains("line 7"));
    }

    #[test]
    fn io_error_source() {
        use std::error::Error;
        let e = SparseError::from(std::io::Error::other("x"));
        assert!(e.source().is_some());
    }
}
