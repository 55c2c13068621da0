//! Write-set proofs: statically prove that executing a plan writes
//! every output element exactly once.
//!
//! On the native backend [`SpmvPlan::execute`] runs the plan's whole
//! tile queue in one parallel region, and the kernel bodies write
//! output rows through a raw-pointer writer from many threads. That is
//! only sound when every written index is in bounds and written by
//! exactly one (tile, RHS-block) work item:
//!
//! - [`check_dispatch`] proves, from the [`BinDispatch`] table and the
//!   CSR row pointer in one O(m + Σ|rows|) pass, that every listed row
//!   id is in bounds and every row of the matrix is listed by exactly
//!   one bin;
//! - [`check_payloads`] proves that each bin's tiles partition its work
//!   (spans of its row list, or chunk ranges of a packed slab whose rows
//!   are the bin's rows) and that every payload mirrors the CSR arrays;
//! - [`check_rhs_blocks`] proves that the RHS blocks of a batched
//!   execute partition its columns.
//!
//! Plans that pass become a [`VerifiedPlan`] (see [`SpmvPlan::verify`])
//! which unlocks [`VerifiedPlan::execute_unchecked`] — the fast path
//! that drops the per-execute pattern check from the hot loop. Failures
//! are a typed [`VerifyError`] naming the bin, kernel id, and offending
//! row range. The level-scheduled solves have their own
//! dependency-order prover ([`check_solve_schedule`]).
//!
//! [`SpmvPlan::execute`]: crate::plan::SpmvPlan::execute
//! [`SpmvPlan::verify`]: crate::plan::SpmvPlan::verify
//! [`VerifiedPlan`]: crate::plan::VerifiedPlan
//! [`VerifiedPlan::execute_unchecked`]: crate::plan::VerifiedPlan::execute_unchecked

use crate::kernels::KernelId;
use crate::plan::{BinDispatch, BinFormat, BinPayload, Tile};
use crate::solve::{SolveSnapshot, SolveStep};
use spmv_sparse::packed::Entries;
use spmv_sparse::solve::SolveDirection;
use spmv_sparse::{prefetch_rows_ahead, CsrMatrix, DefectKind, PackedSell, Scalar, SlabRef};

/// Why a dispatch table failed write-set verification.
#[derive(Clone, Debug, PartialEq)]
pub enum VerifyError {
    /// The matrix handed to [`SpmvPlan::verify`] is not the pattern the
    /// plan was compiled for — the proof would be about the wrong
    /// matrix.
    ///
    /// [`SpmvPlan::verify`]: crate::plan::SpmvPlan::verify
    PatternMismatch {
        /// Fingerprint the plan was compiled against.
        expected: crate::plan::PatternFingerprint,
        /// Fingerprint of the matrix handed to `verify`.
        got: crate::plan::PatternFingerprint,
    },
    /// A row id in a bin's row list is outside `[0, m)`.
    RowOutOfBounds {
        /// Bin whose row list contains the bad id.
        bin_id: usize,
        /// Kernel assigned to that bin.
        kernel: KernelId,
        /// The offending row id.
        row: u32,
        /// Number of matrix rows.
        m: usize,
    },
    /// Two launches would both write some rows: either two bins share
    /// rows, or one bin lists a row twice (then the two bins coincide).
    OverlappingRows {
        /// First bin writing the range.
        bin_a: usize,
        /// Its kernel.
        kernel_a: KernelId,
        /// Second bin writing the range.
        bin_b: usize,
        /// Its kernel.
        kernel_b: KernelId,
        /// Inclusive row range `[first, last]` written by both.
        rows: (u32, u32),
    },
    /// Rows no launch writes — `execute` would leave stale values there.
    UncoveredRows {
        /// Inclusive row range `[first, last]` of the first uncovered run.
        rows: (u32, u32),
    },
    /// A bin's cached NNZ count disagrees with the row pointer, so the
    /// bin's tiling and traffic accounting would use wrong totals.
    BinNnzMismatch {
        /// The inconsistent bin.
        bin_id: usize,
        /// Its kernel.
        kernel: KernelId,
        /// NNZ stored in the dispatch entry.
        stored: usize,
        /// NNZ the row pointer actually gives.
        actual: usize,
    },
    /// A bin's packed payload disagrees with its dispatch entry: wrong
    /// format recorded, wrong row set, or slab contents that do not
    /// mirror the CSR entries slot-for-slot.
    PackedPayloadInvalid {
        /// The bin whose payload is broken.
        bin_id: usize,
        /// Its kernel.
        kernel: KernelId,
        /// What property failed.
        detail: String,
        /// The slab proof's defect class when the packed layout itself
        /// failed ([`PackedSell::check_against`]); `None` when the
        /// payload table or the recorded format disagrees.
        ///
        /// [`PackedSell::check_against`]: spmv_sparse::PackedSell::check_against
        defect: Option<DefectKind>,
    },
    /// A bin's cache-blocked execution premise is broken: the recorded
    /// strip width disagrees with the payload, the strip width is zero
    /// (the strip walk would not advance), or the bin's rows are not
    /// column-sorted (blocking would still be correct but the plan's
    /// locality claim would be false — compilation never emits this).
    BlockedPayloadInvalid {
        /// The bin whose blocked payload is broken.
        bin_id: usize,
        /// Its kernel.
        kernel: KernelId,
        /// What property failed.
        detail: String,
    },
    /// A bin's structure-specialized payload (dense-run, banded, or
    /// row-run) fails its re-derivation proof against the CSR arrays —
    /// the structural premise its unchecked-gather kernel relies on
    /// (runs really contiguous, bands really complete, run rows really
    /// identical) does not hold, so promotion must refuse it.
    SpecializedPayloadInvalid {
        /// The bin whose specialized payload is broken.
        bin_id: usize,
        /// Its kernel.
        kernel: KernelId,
        /// What property failed.
        detail: String,
    },
    /// The fused tile queue does not partition some bin's work — a tile
    /// range overlaps, gaps, or runs past the end, so the fused execute
    /// would double-write or skip rows.
    TilesNotPartition {
        /// The bin whose tiles are broken.
        bin_id: usize,
        /// What property failed.
        detail: String,
    },
    /// The RHS-block decomposition the batched executor would use for
    /// some batch width `K` fails to partition the column range `[0, K)`
    /// into kernel-supported widths — batched execution would
    /// double-write or skip output columns.
    BatchBlocksNotPartition {
        /// The batch width whose decomposition is broken.
        k: usize,
        /// What property failed.
        detail: String,
    },
    /// A solve plan's schedule-ordered slab does not mirror the matrix
    /// it is proven against: a position holds a row its step does not
    /// run, the steps do not tile the positions, the slab breaks the
    /// shared chunk shape, a position's entries are not exactly its
    /// row's off-diagonals in storage order, or its diagonal is not the
    /// row's. The kernel reads structure only from the slab, so the
    /// proof must be about the slab.
    SolveSnapshotMismatch {
        /// First position (index into the run order) that disagrees.
        position: usize,
        /// What property failed.
        detail: String,
        /// The slab defect class when the chunk shape failed
        /// ([`SlabRef::check_shape`]) or a lane claims a padding slot;
        /// `None` for the other mismatches.
        defect: Option<DefectKind>,
    },
    /// A triangular solve needs a square system; this matrix is not.
    SolveNotSquare {
        /// Row count.
        n_rows: usize,
        /// Column count.
        n_cols: usize,
    },
    /// A scheduled row id is outside `[0, m)`.
    SolveRowOutOfBounds {
        /// The offending row id.
        row: u32,
        /// Number of matrix rows.
        m: usize,
    },
    /// A row appears in two schedule slots — two workers (or two steps)
    /// would both write `x[row]`.
    SolveRowRepeated {
        /// The row scheduled twice.
        row: u32,
        /// Step that scheduled it first.
        first_step: usize,
        /// Step that scheduled it again.
        step: usize,
    },
    /// A row appears in no step — the solve would leave `x[row]` stale.
    SolveRowUnscheduled {
        /// The unscheduled row.
        row: usize,
    },
    /// A stored column index is outside the system — the kernel's
    /// gather of `x[col]` would be out of bounds.
    SolveColOutOfBounds {
        /// Row whose entry is bad.
        row: usize,
        /// The out-of-range column.
        col: u32,
        /// System dimension.
        n: usize,
    },
    /// An entry sits on the wrong side of the diagonal for the solve's
    /// direction — the matrix is not triangular the way the schedule
    /// assumes.
    SolveOffTriangle {
        /// Direction the schedule was built for.
        direction: SolveDirection,
        /// Row of the witness entry.
        row: usize,
        /// Column of the witness entry.
        col: u32,
    },
    /// A row has no structural diagonal entry to divide by.
    SolveMissingDiagonal {
        /// The diagonal-less row.
        row: usize,
    },
    /// A row runs before a row it reads is finalised: its dependency
    /// sits in the same or a later step (same-step reads are only legal
    /// from earlier lock-step chunks of the *same serial step*; the
    /// lanes of one chunk read together). Executing this schedule would
    /// race or read a stale value.
    SolveDependencyViolated {
        /// The row that reads too early.
        row: usize,
        /// Step the reading row is scheduled in.
        row_step: usize,
        /// The dependency it reads.
        col: usize,
        /// Step the dependency is scheduled in.
        col_step: usize,
    },
    /// A parallel step's cut positions do not partition its row list
    /// across the worker team — workers would overlap or skip rows.
    SolveCutsInvalid {
        /// The step whose cuts are broken.
        step: usize,
        /// What property failed.
        detail: String,
    },
    /// A SymGS sweep's residual slab does not mirror the strict upper
    /// triangle of its matrix ([`check_residual`]), or, at build, its
    /// chunk spans do not tile the slab: residual rows would be written
    /// twice, or not at all, or from other entries.
    ResidualInvalid {
        /// What property failed.
        detail: String,
        /// The slab proof's defect class when the packed layout failed
        /// ([`PackedSell::check_against`]); `None` for the spans.
        ///
        /// [`PackedSell::check_against`]: spmv_sparse::PackedSell::check_against
        defect: Option<DefectKind>,
    },
}

impl std::fmt::Display for VerifyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            VerifyError::PatternMismatch { expected, got } => write!(
                f,
                "verify called with the wrong matrix: plan is for {}x{}/{} nnz \
                 (hash {:#x}), got {}x{}/{} nnz (hash {:#x})",
                expected.m,
                expected.n,
                expected.nnz,
                expected.row_ptr_hash,
                got.m,
                got.n,
                got.nnz,
                got.row_ptr_hash,
            ),
            VerifyError::RowOutOfBounds {
                bin_id,
                kernel,
                row,
                m,
            } => write!(
                f,
                "bin {bin_id} ({kernel}): row {row} out of bounds (m = {m})"
            ),
            VerifyError::OverlappingRows {
                bin_a,
                kernel_a,
                bin_b,
                kernel_b,
                rows,
            } => write!(
                f,
                "bins {bin_a} ({kernel_a}) and {bin_b} ({kernel_b}) both write rows {}..={}",
                rows.0, rows.1
            ),
            VerifyError::UncoveredRows { rows } => {
                write!(f, "rows {}..={} are written by no launch", rows.0, rows.1)
            }
            VerifyError::BinNnzMismatch {
                bin_id,
                kernel,
                stored,
                actual,
            } => write!(
                f,
                "bin {bin_id} ({kernel}): cached nnz {stored} != row-pointer nnz {actual}"
            ),
            VerifyError::PackedPayloadInvalid {
                bin_id,
                kernel,
                detail,
                ..
            } => write!(
                f,
                "bin {bin_id} ({kernel}): packed payload invalid: {detail}"
            ),
            VerifyError::BlockedPayloadInvalid {
                bin_id,
                kernel,
                detail,
            } => write!(
                f,
                "bin {bin_id} ({kernel}): blocked payload invalid: {detail}"
            ),
            VerifyError::SpecializedPayloadInvalid {
                bin_id,
                kernel,
                detail,
            } => write!(
                f,
                "bin {bin_id} ({kernel}): specialized payload invalid: {detail}"
            ),
            VerifyError::TilesNotPartition { bin_id, detail } => {
                write!(f, "bin {bin_id}: fused tiles are not a partition: {detail}")
            }
            VerifyError::BatchBlocksNotPartition { k, detail } => write!(
                f,
                "RHS blocks for batch width {k} are not a partition: {detail}"
            ),
            VerifyError::SolveSnapshotMismatch {
                position, detail, ..
            } => write!(
                f,
                "solve snapshot position {position} does not mirror the matrix: {detail}"
            ),
            VerifyError::SolveNotSquare { n_rows, n_cols } => write!(
                f,
                "triangular solve needs a square system, got {n_rows}x{n_cols}"
            ),
            VerifyError::SolveRowOutOfBounds { row, m } => {
                write!(f, "scheduled row {row} out of bounds (m = {m})")
            }
            VerifyError::SolveRowRepeated {
                row,
                first_step,
                step,
            } => write!(
                f,
                "row {row} scheduled twice: steps {first_step} and {step}"
            ),
            VerifyError::SolveRowUnscheduled { row } => {
                write!(f, "row {row} appears in no step of the schedule")
            }
            VerifyError::SolveColOutOfBounds { row, col, n } => {
                write!(f, "row {row} gathers column {col} out of bounds (n = {n})")
            }
            VerifyError::SolveOffTriangle {
                direction,
                row,
                col,
            } => write!(
                f,
                "{direction} solve schedule over a non-triangular matrix: row {row} \
                 has an off-triangle entry in column {col}"
            ),
            VerifyError::SolveMissingDiagonal { row } => {
                write!(f, "row {row} has no structural diagonal entry to divide by")
            }
            VerifyError::SolveDependencyViolated {
                row,
                row_step,
                col,
                col_step,
            } => write!(
                f,
                "row {row} (step {row_step}) reads row {col} (step {col_step}) before \
                 it is finalised"
            ),
            VerifyError::SolveCutsInvalid { step, detail } => {
                write!(f, "step {step}: worker cuts are not a partition: {detail}")
            }
            VerifyError::ResidualInvalid { detail, .. } => {
                write!(f, "SymGS residual slab: {detail}")
            }
        }
    }
}

impl std::error::Error for VerifyError {}

/// Prove the write-set invariants of `dispatch` against `a`'s row
/// pointer:
///
/// 1. every listed row id is in `[0, m)`;
/// 2. across all bins, every row of the matrix is listed exactly once
///    (disjointness + coverage);
/// 3. each bin's cached NNZ matches the row pointer.
///
/// O(m) space, O(m + Σ|rows|) time.
pub fn check_dispatch<T: Scalar>(
    a: &CsrMatrix<T>,
    dispatch: &[BinDispatch],
) -> Result<(), VerifyError> {
    let m = a.n_rows();
    const UNOWNED: u32 = u32::MAX;
    let mut owner: Vec<u32> = vec![UNOWNED; m];
    for (e, d) in dispatch.iter().enumerate() {
        let mut nnz = 0usize;
        for &r in &d.rows {
            let ri = r as usize;
            if ri >= m {
                return Err(VerifyError::RowOutOfBounds {
                    bin_id: d.bin_id,
                    kernel: d.kernel,
                    row: r,
                    m,
                });
            }
            if owner[ri] != UNOWNED {
                let prev = &dispatch[owner[ri] as usize];
                return Err(VerifyError::OverlappingRows {
                    bin_a: prev.bin_id,
                    kernel_a: prev.kernel,
                    bin_b: d.bin_id,
                    kernel_b: d.kernel,
                    rows: overlap_range(&prev.rows, &d.rows, e == owner[ri] as usize, r),
                });
            }
            owner[ri] = e as u32;
            nnz += a.row_nnz(ri);
        }
        if nnz != d.nnz {
            return Err(VerifyError::BinNnzMismatch {
                bin_id: d.bin_id,
                kernel: d.kernel,
                stored: d.nnz,
                actual: nnz,
            });
        }
    }
    if let Some(first) = owner.iter().position(|&o| o == UNOWNED) {
        let mut last = first;
        while last + 1 < m && owner[last + 1] == UNOWNED {
            last += 1;
        }
        return Err(VerifyError::UncoveredRows {
            rows: (first as u32, last as u32),
        });
    }
    Ok(())
}

/// Prove the packed/fused side of a plan against `a`:
///
/// 1. the payload table is aligned with the dispatch table, and each
///    entry's materialised payload matches the recorded [`BinFormat`]
///    (a `PackedSell` format with a CSR payload — or vice versa — means
///    the plan would execute a different format than it reports);
/// 2. every packed payload mirrors its bin exactly: the shared chunk
///    shape, the bin's row set in its sort windows, lane lengths equal to
///    the CSR row lengths and the CSR columns in every lane
///    ([`spmv_sparse::packed::PackedSell::check_against`]);
/// 3. the fused tile queue partitions each bin's work — chunk ranges
///    for packed bins, row-list spans for CSR bins — with no overlap, no
///    gap, and no overrun. An empty queue passes only for an empty
///    dispatch table: every native execute drains the queue, so a bin
///    without tiles would never be written.
///
/// Together with [`check_dispatch`] (rows owned exactly once across
/// bins) this proves the fused executor's write set: every output index
/// written by exactly one tile. O(slots + Σ|rows| + packed bins × m +
/// |tiles| log |tiles|).
pub fn check_payloads<T: Scalar>(
    a: &CsrMatrix<T>,
    dispatch: &[BinDispatch],
    payloads: &[BinPayload<T>],
    tiles: &[Tile],
) -> Result<(), VerifyError> {
    if dispatch.len() != payloads.len() {
        return Err(VerifyError::PackedPayloadInvalid {
            bin_id: 0,
            kernel: KernelId::Serial,
            detail: format!(
                "payload table has {} entries for {} dispatch entries",
                payloads.len(),
                dispatch.len()
            ),
            defect: None,
        });
    }
    for (d, p) in dispatch.iter().zip(payloads) {
        match (d.format, p) {
            (BinFormat::Csr, BinPayload::Csr) => {}
            (BinFormat::PackedSell { chunk }, BinPayload::Packed(packed)) => {
                if packed.chunk() != chunk {
                    return Err(VerifyError::PackedPayloadInvalid {
                        bin_id: d.bin_id,
                        kernel: d.kernel,
                        detail: format!(
                            "recorded chunk {chunk} != payload chunk {}",
                            packed.chunk()
                        ),
                        defect: None,
                    });
                }
                // check_against re-proves the gather bound: every slab
                // column equals its CSR column and stays inside
                // [0, n_cols).
                packed.check_against(a, &d.rows).map_err(|defect| {
                    VerifyError::PackedPayloadInvalid {
                        bin_id: d.bin_id,
                        kernel: d.kernel,
                        defect: Some(defect.kind),
                        detail: defect.detail,
                    }
                })?;
            }
            (BinFormat::CacheBlockedCsr { strip_cols }, BinPayload::Blocked { strip_cols: ps }) => {
                if strip_cols != *ps {
                    return Err(VerifyError::BlockedPayloadInvalid {
                        bin_id: d.bin_id,
                        kernel: d.kernel,
                        detail: format!("recorded strip width {strip_cols} != payload width {ps}"),
                    });
                }
                if strip_cols == 0 {
                    return Err(VerifyError::BlockedPayloadInvalid {
                        bin_id: d.bin_id,
                        kernel: d.kernel,
                        detail: "strip width 0 would never advance".into(),
                    });
                }
                // The plan only chooses blocking for column-sorted rows
                // (the locality premise). Results do not depend on it —
                // the cursor walk consumes storage order — but a violated
                // premise means the plan was tampered with.
                for &r in &d.rows {
                    let (cols, _) = a.row(r as usize);
                    if let Some(w) = cols.windows(2).find(|w| w[0] >= w[1]) {
                        return Err(VerifyError::BlockedPayloadInvalid {
                            bin_id: d.bin_id,
                            kernel: d.kernel,
                            detail: format!("row {r} not column-sorted at {} >= {}", w[0], w[1]),
                        });
                    }
                }
            }
            // Re-derivation proofs for the structure-specialized tiers:
            // each payload's structural premise (the exact license its
            // unchecked-gather kernel executes under) is re-proven
            // against the CSR arrays, never trusted from pack time.
            (BinFormat::DenseRun, BinPayload::DenseRun(runs)) => {
                runs.check_against(a, &d.rows).map_err(|detail| {
                    VerifyError::SpecializedPayloadInvalid {
                        bin_id: d.bin_id,
                        kernel: d.kernel,
                        detail,
                    }
                })?;
            }
            (BinFormat::Banded { offsets }, BinPayload::Banded(band)) => {
                if band.offsets().len() != offsets {
                    return Err(VerifyError::SpecializedPayloadInvalid {
                        bin_id: d.bin_id,
                        kernel: d.kernel,
                        detail: format!(
                            "recorded {offsets} offsets != payload {}",
                            band.offsets().len()
                        ),
                    });
                }
                band.check_against(a, &d.rows).map_err(|detail| {
                    VerifyError::SpecializedPayloadInvalid {
                        bin_id: d.bin_id,
                        kernel: d.kernel,
                        detail,
                    }
                })?;
            }
            (BinFormat::RowRunReuse, BinPayload::RowRun(rr)) => {
                rr.check_against(a, &d.rows).map_err(|detail| {
                    VerifyError::SpecializedPayloadInvalid {
                        bin_id: d.bin_id,
                        kernel: d.kernel,
                        detail,
                    }
                })?;
            }
            (format, payload) => {
                let have = match payload {
                    BinPayload::Csr => "csr",
                    BinPayload::Packed(_) => "packed",
                    BinPayload::Blocked { .. } => "blocked",
                    BinPayload::DenseRun(_) => "dense-run",
                    BinPayload::Banded(_) => "banded",
                    BinPayload::RowRun(_) => "row-run",
                };
                return Err(VerifyError::PackedPayloadInvalid {
                    bin_id: d.bin_id,
                    kernel: d.kernel,
                    detail: format!("recorded format {format} but payload is {have}"),
                    defect: None,
                });
            }
        }
    }
    // The batched executor tiles the output as (row range × RHS block).
    // The row axis is covered by the dispatch/tile proofs; the column
    // axis is the deterministic RHS-block decomposition, proven here for
    // a sweep of batch widths.
    check_rhs_blocks()?;
    // Per-bin tile-partition proof: collect each bin's ranges, sort, and
    // require exact coverage of that bin's work span.
    let mut per_bin: Vec<Vec<(usize, usize)>> = vec![Vec::new(); dispatch.len()];
    for t in tiles {
        if t.bin >= dispatch.len() {
            return Err(VerifyError::TilesNotPartition {
                bin_id: t.bin,
                detail: format!("tile bin index {} out of range", t.bin),
            });
        }
        per_bin[t.bin].push((t.start, t.end));
    }
    for (bi, (d, p)) in dispatch.iter().zip(payloads).enumerate() {
        let span = match p {
            BinPayload::Packed(packed) => packed.n_chunks(),
            // Blocked bins tile over row-list spans like CSR bins; all
            // strips of a row live inside its tile, so tile disjointness
            // covers the blocked partial-sum writes. The specialized
            // tiers also tile the row list (a row-run clipped by a tile
            // boundary reloads its pattern, never splits a row's sum).
            BinPayload::Csr
            | BinPayload::Blocked { .. }
            | BinPayload::DenseRun(_)
            | BinPayload::Banded(_)
            | BinPayload::RowRun(_) => d.rows.len(),
        };
        let ranges = &mut per_bin[bi];
        ranges.sort_unstable();
        let mut pos = 0usize;
        for &(s, e) in ranges.iter() {
            if s != pos || e <= s {
                return Err(VerifyError::TilesNotPartition {
                    bin_id: d.bin_id,
                    detail: format!("range {s}..{e} does not continue coverage at {pos}"),
                });
            }
            pos = e;
        }
        if pos != span {
            return Err(VerifyError::TilesNotPartition {
                bin_id: d.bin_id,
                detail: format!("tiles cover 0..{pos} of work span 0..{span}"),
            });
        }
    }
    Ok(())
}

/// Prove [`rhs_blocks`] partitions `[0, K)` for a sweep of batch widths
/// covering the degenerate (0, 1), exact-multiple (8, 16), and
/// every-remainder (2, 3, 5, 7, 9, 15, 33) cases: blocks must be
/// contiguous in order, each width must have a compiled kernel
/// (∈ {1, 2, 4, 8}), and the last block must end at `K`. The
/// decomposition is deterministic in `K` alone, so checking these widths
/// *is* checking the batched executor's column write sets.
///
/// [`rhs_blocks`]: crate::plan::rhs_blocks
pub fn check_rhs_blocks() -> Result<(), VerifyError> {
    for k in [0usize, 1, 2, 3, 4, 5, 7, 8, 9, 15, 16, 33, 64] {
        let fail = |detail: String| VerifyError::BatchBlocksNotPartition { k, detail };
        let mut pos = 0usize;
        for (start, width) in crate::plan::rhs_blocks(k) {
            if start != pos {
                return Err(fail(format!(
                    "block at {start} does not continue coverage at {pos}"
                )));
            }
            if !matches!(width, 1 | 2 | 4 | 8) {
                return Err(fail(format!("block width {width} has no compiled kernel")));
            }
            pos = start + width;
        }
        if pos != k {
            return Err(fail(format!("blocks cover 0..{pos} of 0..{k}")));
        }
    }
    Ok(())
}

/// Prove a level-set solve schedule dependency-respecting against the
/// matrix it claims to solve — the core obligation behind
/// [`VerifiedSolvePlan`]'s unchecked path:
///
/// 1. the matrix is square (the solve reads and writes one vector);
/// 2. every row of the matrix appears in **exactly one** schedule slot
///    (no duplicates, no gaps, no out-of-range ids) — so `x[row]` is
///    written once, by one worker;
/// 3. every stored entry of every scheduled row is either the row's
///    own diagonal, or a same-direction dependency (strictly below the
///    diagonal for forward solves, strictly above for backward) whose
///    owning row is finalised **before** the reading row runs: in a
///    strictly earlier step for parallel steps, or at an earlier
///    position of the same serial chunk (same-worker program order);
///    columns outside the system are rejected outright — the kernel
///    would gather out of bounds;
/// 4. every scheduled row has a structural diagonal entry (the kernel
///    divides by it);
/// 5. every parallel step's cut positions partition its row list into
///    exactly `workers` spans (length `workers + 1`, first 0, last
///    `|rows|`, monotone) — the role-indexed spans the barrier-stepped
///    executor hands out are disjoint and complete.
///
/// Everything is re-derived from `a`'s structure; nothing the schedule
/// builder wrote down is trusted. O(m) space, O(m + nnz) time.
/// [`check_solve_snapshot`] adds the obligations of the snapshot a plan
/// executes from.
///
/// [`VerifiedSolvePlan`]: crate::solve::VerifiedSolvePlan
pub fn check_solve_schedule<T: Scalar>(
    a: &CsrMatrix<T>,
    direction: SolveDirection,
    steps: &[SolveStep],
    workers: usize,
) -> Result<(), VerifyError> {
    let (order, bounds, parallel) = positions_of(steps, workers)?;
    prove_solve(
        a, direction, false, &order, &bounds, &parallel, workers, None,
    )
}

/// [`check_solve_schedule`] plus the obligations of the schedule-ordered
/// snapshot a solve plan executes from, for a schedule and snapshot
/// copied out of a plan ([`SolvePlan::steps`], [`SolvePlan::snapshot`]):
///
/// 6. the snapshot's positions are the steps' rows, in run order;
/// 7. each position's entries are exactly its matrix row's off-diagonal
///    `(column, value)` pairs in storage order: slot `(j, lane)` of its
///    chunk holds the row's `j`-th, for `j` below the lane's length, and
///    the row has no more;
/// 8. each position's diagonal is its row's diagonal value (the last
///    one in storage order, as `sptrsv_seq` takes it);
/// 9. the snapshot has the shared chunk shape ([`SlabRef::check_shape`]:
///    the column width the system's size selects, chunks and slots
///    tiled, no lane past its chunk, lane lengths non-increasing within
///    a chunk), so the kernel's active lanes at column `j` are a prefix
///    and it never reads a padding slot;
/// 10. every chunk has 1, 2, 4 or 8 lanes, and no step or role bound
///     falls inside a chunk (a role runs whole chunks);
/// 11. obligation 3 tightened for lock-step: inside a serial step, a
///     dependency must sit in an earlier *chunk*, not merely at an
///     earlier position, because the lanes of a chunk read together.
///
/// The proof runs inside the row walk of obligations 3–4, so it costs
/// no second pass over the matrix. [`SolvePlan::verify`] runs the same
/// proof on the plan's own snapshot. Values are compared bit for bit.
///
/// [`SolvePlan::steps`]: crate::solve::SolvePlan::steps
/// [`SolvePlan::snapshot`]: crate::solve::SolvePlan::snapshot
/// [`SolvePlan::verify`]: crate::solve::SolvePlan::verify
pub fn check_solve_snapshot<T: Scalar>(
    a: &CsrMatrix<T>,
    direction: SolveDirection,
    steps: &[SolveStep],
    workers: usize,
    snapshot: &SolveSnapshot<T>,
) -> Result<(), VerifyError> {
    let (order, bounds, parallel) = positions_of(steps, workers)?;
    let n = order.len().max(snapshot.rows.len());
    if let Some(q) = (0..n).find(|&q| order.get(q) != snapshot.rows.get(q)) {
        return Err(mismatch(
            q,
            format!(
                "the snapshot holds row {:?} where the steps run row {:?}",
                snapshot.rows.get(q),
                order.get(q)
            ),
        ));
    }
    prove_solve(
        a,
        direction,
        false,
        &order,
        &bounds,
        &parallel,
        workers,
        Some(snapshot.view(a.n_cols())),
    )
}

/// A step list in the prover's position form: the concatenated run
/// order, each step's absolute position bounds (`[start, end]` for a
/// serial step, one bound per role plus the end for a parallel one) and
/// its parallel flag. Each parallel step's cuts are checked on the way
/// (obligation 5).
type Positions = (Vec<u32>, Vec<Vec<usize>>, Vec<bool>);

fn positions_of(steps: &[SolveStep], workers: usize) -> Result<Positions, VerifyError> {
    let mut order = Vec::new();
    let mut bounds = Vec::with_capacity(steps.len());
    for (s, st) in steps.iter().enumerate() {
        let start = order.len();
        match st {
            SolveStep::Serial { rows } => bounds.push(vec![start, start + rows.len()]),
            SolveStep::Parallel { rows, cuts } => {
                let fail = |detail: String| VerifyError::SolveCutsInvalid { step: s, detail };
                if cuts.len() != workers + 1 {
                    return Err(fail(format!(
                        "{} cuts for {workers} workers (need workers + 1)",
                        cuts.len()
                    )));
                }
                if cuts.first() != Some(&0) {
                    return Err(fail(format!("first cut {:?} != 0", cuts.first())));
                }
                if cuts.last() != Some(&rows.len()) {
                    return Err(fail(format!(
                        "last cut {:?} != |rows| = {}",
                        cuts.last(),
                        rows.len()
                    )));
                }
                bounds.push(cuts.iter().map(|&c| start + c).collect());
            }
        }
        order.extend_from_slice(st.rows());
    }
    Ok((
        order,
        bounds,
        steps.iter().map(SolveStep::is_parallel).collect(),
    ))
}

/// The one solve prover behind [`check_solve_schedule`],
/// [`check_solve_snapshot`] and `SolvePlan::verify`: obligations 1–5
/// over the run order `order` split into steps by `bounds` (positions),
/// plus 7–11 against `snap` when given (obligation 6 holds when `order`
/// is the snapshot's own row column). Without a snapshot every position
/// is its own chunk. With `half`, `a` is the general matrix of a SymGS
/// sweep whose `direction` half the plan solves: entries of the other
/// triangle are not read, so they are skipped rather than rejected
/// (obligation 3), and the snapshot's lanes hold the strict entries on
/// `direction`'s side (obligation 7).
#[allow(clippy::too_many_arguments)]
pub(crate) fn prove_solve<T: Scalar>(
    a: &CsrMatrix<T>,
    direction: SolveDirection,
    half: bool,
    order: &[u32],
    bounds: &[Vec<usize>],
    parallel: &[bool],
    workers: usize,
    snap: Option<SlabRef<'_, T>>,
) -> Result<(), VerifyError> {
    let m = a.n_rows();
    if a.n_cols() != m {
        return Err(VerifyError::SolveNotSquare {
            n_rows: m,
            n_cols: a.n_cols(),
        });
    }
    // (5) + (6): every step's bounds are well-formed and the steps tile
    // the positions in order, so role spans are disjoint and complete
    // (a step the flags do not reach leaves its positions uncovered).
    let mut end = 0usize;
    for (s, (b, &par)) in bounds.iter().zip(parallel).enumerate() {
        let fail = |detail: String| VerifyError::SolveCutsInvalid { step: s, detail };
        let want = if par { workers + 1 } else { 2 };
        if b.len() != want {
            return Err(fail(format!(
                "{} bounds where the step needs {want}",
                b.len()
            )));
        }
        if b[0] != end {
            return Err(mismatch(
                end,
                format!(
                    "step {s} starts at position {}, not where its predecessor ended",
                    b[0]
                ),
            ));
        }
        if let Some(w) = b.windows(2).find(|w| w[0] > w[1]) {
            return Err(fail(format!("cuts not monotone at {} > {}", w[0], w[1])));
        }
        end = b[want - 1];
    }
    if end != order.len() {
        return Err(mismatch(
            end.min(order.len()),
            format!("the steps cover positions 0..{end} of 0..{}", order.len()),
        ));
    }
    // (2) exactly-once scheduling, recording each row's step and
    // position so the dependency check can compare finalisation order.
    const UNSCHEDULED: u32 = u32::MAX;
    let mut step_of: Vec<u32> = vec![UNSCHEDULED; m];
    let mut pos_of: Vec<u32> = vec![0; m];
    for (s, b) in bounds.iter().enumerate() {
        for (q, &r) in order.iter().enumerate().take(b[b.len() - 1]).skip(b[0]) {
            let ri = r as usize;
            if ri >= m {
                return Err(VerifyError::SolveRowOutOfBounds { row: r, m });
            }
            if step_of[ri] != UNSCHEDULED {
                return Err(VerifyError::SolveRowRepeated {
                    row: r,
                    first_step: step_of[ri] as usize,
                    step: s,
                });
            }
            step_of[ri] = s as u32;
            pos_of[ri] = q as u32;
        }
    }
    if let Some(row) = step_of.iter().position(|&s| s == UNSCHEDULED) {
        return Err(VerifyError::SolveRowUnscheduled { row });
    }
    if let Some(sn) = &snap {
        check_chunks(sn, order.len(), bounds)?;
    }
    // (3) + (4) + (7) + (8) + (11): per-row structure scan against the
    // finalisation order, walking the snapshot's slots alongside. The
    // steps tile the positions in order, so `q` only grows and the chunk
    // cursor `k` follows it.
    let mut k = 0;
    for (s, (b, &par)) in bounds.iter().zip(parallel).enumerate() {
        for q in b[0]..b[b.len() - 1] {
            prefetch_rows_ahead(a, order, q);
            let i = order[q] as usize;
            let (cols, vals) = a.row(i);
            // The position's chunk start, first slot, lane stride and
            // length (a lone position without a snapshot).
            let (chunk_start, first, stride, len) = match &snap {
                Some(sn) => {
                    while sn.chunk_ptr[k + 1] <= q {
                        k += 1;
                    }
                    let p0 = sn.chunk_ptr[k];
                    let lanes = sn.chunk_ptr[k + 1] - p0;
                    (p0, sn.slot_ptr[k] + q - p0, lanes, sn.lens[q] as usize)
                }
                None => (q, 0, 0, 0),
            };
            let mut j = 0;
            let mut diag = None;
            for (&c, &v) in cols.iter().zip(vals) {
                let ci = c as usize;
                if ci >= m {
                    return Err(VerifyError::SolveColOutOfBounds {
                        row: i,
                        col: c,
                        n: m,
                    });
                }
                if ci == i {
                    diag = Some(v);
                    continue;
                }
                if !direction.is_dependency(i, ci) {
                    if half {
                        continue;
                    }
                    return Err(VerifyError::SolveOffTriangle {
                        direction,
                        row: i,
                        col: c,
                    });
                }
                let cs = step_of[ci] as usize;
                let finalised = if par {
                    // Another worker may own the dependency: only a
                    // barrier (strictly earlier step) orders its write
                    // before this read.
                    cs < s
                } else {
                    // Serial steps run on one worker in listed order,
                    // a chunk's lanes together: an earlier chunk of the
                    // same step suffices.
                    cs < s || (cs == s && (pos_of[ci] as usize) < chunk_start)
                };
                if !finalised {
                    return Err(VerifyError::SolveDependencyViolated {
                        row: i,
                        row_step: s,
                        col: ci,
                        col_step: cs,
                    });
                }
                if let Some(sn) = &snap {
                    // In bounds: `j < len` ≤ the chunk's first lane,
                    // whose slots end inside the arrays (obligation 9).
                    let slot = first + j * stride;
                    if j == len || sn.cols.get(slot) != c || !same_bits(sn.vals[slot], v) {
                        let held = (j < len).then(|| (sn.cols.get(slot), sn.vals[slot]));
                        return Err(mismatch(
                            q,
                            format!(
                                "row {i}: off-diagonal entry {j} is ({c}, {v}) in the matrix \
                                 but {held:?} in the snapshot"
                            ),
                        ));
                    }
                    j += 1;
                }
            }
            let Some(d) = diag else {
                return Err(VerifyError::SolveMissingDiagonal { row: i });
            };
            if let Some(sn) = &snap {
                if j != len {
                    return Err(VerifyError::SolveSnapshotMismatch {
                        position: q,
                        detail: format!("row {i}: the snapshot holds {} extra entries", len - j),
                        defect: Some(DefectKind::PaddingClaimed),
                    });
                }
                if !same_bits(sn.diag[q], d) {
                    return Err(mismatch(
                        q,
                        format!(
                            "row {i}: diagonal {d} in the matrix, {} in the snapshot",
                            sn.diag[q]
                        ),
                    ));
                }
            }
        }
    }
    Ok(())
}

/// Prove a SymGS sweep's residual slab ([`SymgsPlan::residual`])
/// against the sweep's matrix `a`: it holds the rows `0..m`, each once
/// and inside its sort window of that list, so its writes `r[i]` are
/// disjoint and cover the system; it has the shared chunk shape; and
/// every lane holds its row's strictly upper entries by column, in
/// storage order, each below `n_cols` ([`PackedSell::check_against`] on
/// a slab of [`Entries::StrictUpper`]). The slab is refreshed from `a`
/// first. O(slots + m).
///
/// [`SymgsPlan::residual`]: crate::solve::SymgsPlan::residual
/// [`PackedSell::check_against`]: spmv_sparse::PackedSell::check_against
pub fn check_residual<T: Scalar>(
    a: &CsrMatrix<T>,
    slab: &PackedSell<T>,
) -> Result<(), VerifyError> {
    if slab.entries() != Entries::StrictUpper {
        return Err(VerifyError::ResidualInvalid {
            detail: format!(
                "lanes hold {:?}, not the strict upper entries",
                slab.entries()
            ),
            defect: None,
        });
    }
    let rows: Vec<u32> = (0..a.n_rows() as u32).collect();
    slab.check_against(a, &rows)
        .map_err(|d| VerifyError::ResidualInvalid {
            detail: d.detail,
            defect: Some(d.kind),
        })
}

/// [`check_residual`], and the residual's chunk spans `cuts` tile the
/// slab's chunks in order, so each chunk runs in exactly one span.
pub(crate) fn prove_residual<T: Scalar>(
    a: &CsrMatrix<T>,
    slab: &PackedSell<T>,
    cuts: &[usize],
) -> Result<(), VerifyError> {
    check_residual(a, slab)?;
    let tiled = cuts.first() == Some(&0)
        && cuts.last() == Some(&slab.n_chunks())
        && cuts.windows(2).all(|w| w[0] <= w[1]);
    if !tiled {
        let chunks = slab.n_chunks();
        return Err(VerifyError::ResidualInvalid {
            detail: format!("{} span bounds do not tile {chunks} chunks", cuts.len()),
            defect: None,
        });
    }
    Ok(())
}

/// Obligations 9–10 and the array shapes the row walk indexes by: the
/// shared chunk shape over the slab's `n` positions, one diagonal per
/// position, chunks of 1, 2, 4 or 8 lanes, and every bound in `bounds`
/// a chunk start.
fn check_chunks<T: Scalar>(
    sn: &SlabRef<'_, T>,
    n: usize,
    bounds: &[Vec<usize>],
) -> Result<(), VerifyError> {
    sn.check_shape()
        .map_err(|d| VerifyError::SolveSnapshotMismatch {
            position: d.position,
            detail: d.detail,
            defect: Some(d.kind),
        })?;
    if sn.diag.len() != n {
        let detail = format!("{} diagonals for {n} positions", sn.diag.len());
        return Err(mismatch(sn.diag.len().min(n), detail));
    }
    if let Some(c) = sn
        .chunk_ptr
        .windows(2)
        .find(|c| !matches!(c[1] - c[0], 1 | 2 | 4 | 8))
    {
        let detail = format!(
            "chunk at positions {}..{}, not 1, 2, 4 or 8 lanes",
            c[0], c[1]
        );
        return Err(mismatch(c[0], detail));
    }
    for (s, b) in bounds.iter().enumerate() {
        if let Some(&q) = b.iter().find(|q| sn.chunk_ptr.binary_search(q).is_err()) {
            return Err(mismatch(
                q,
                format!("step {s} has a bound at position {q}, inside a chunk"),
            ));
        }
    }
    Ok(())
}

/// A [`VerifyError::SolveSnapshotMismatch`] with no slab defect class.
fn mismatch(position: usize, detail: String) -> VerifyError {
    VerifyError::SolveSnapshotMismatch {
        position,
        detail,
        defect: None,
    }
}

/// Bitwise equality of two scalars (`NaN` equals itself, `-0` does not
/// equal `+0`): widening to `f64` is exact and injective on the values
/// a copy can produce.
fn same_bits<T: Scalar>(a: T, b: T) -> bool {
    a.to_f64().to_bits() == b.to_f64().to_bits()
}

/// The inclusive row range two launches both claim. When the duplicate
/// comes from a single bin listing a row twice (`same_entry`), the range
/// is that one row.
fn overlap_range(rows_a: &[u32], rows_b: &[u32], same_entry: bool, hit: u32) -> (u32, u32) {
    if same_entry {
        return (hit, hit);
    }
    let set: std::collections::HashSet<u32> = rows_a.iter().copied().collect();
    let mut lo = hit;
    let mut hi = hit;
    for &r in rows_b {
        if set.contains(&r) {
            lo = lo.min(r);
            hi = hi.max(r);
        }
    }
    (lo, hi)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinningScheme;
    use crate::exec::SimGpuBackend;
    use crate::plan::SpmvPlan;
    use crate::strategy::Strategy;
    use spmv_gpusim::GpuDevice;
    use spmv_sparse::gen;

    fn dispatch_of(a: &CsrMatrix<f64>, u: usize) -> Vec<BinDispatch> {
        let strategy = Strategy {
            binning: BinningScheme::Coarse { u },
            kernels: vec![KernelId::Subvector(8); 8],
        };
        let plan = SpmvPlan::compile(
            a,
            strategy,
            Box::new(SimGpuBackend::new(GpuDevice::kaveri())),
        );
        plan.dispatch().to_vec()
    }

    #[test]
    fn compiled_plans_pass() {
        let a = gen::powerlaw::<f64>(800, 1, 150, 2.1, 3);
        for u in [10, 100] {
            check_dispatch(&a, &dispatch_of(&a, u)).unwrap();
        }
    }

    #[test]
    fn out_of_bounds_row_is_named() {
        let a = gen::random_uniform::<f64>(50, 50, 1, 4, 1);
        let mut d = dispatch_of(&a, 10);
        d[0].rows.push(50);
        match check_dispatch(&a, &d) {
            Err(VerifyError::RowOutOfBounds { row: 50, m: 50, .. }) => {}
            other => panic!("expected RowOutOfBounds, got {other:?}"),
        }
    }

    #[test]
    fn duplicate_row_across_bins_reports_both_bins() {
        let a = gen::random_uniform::<f64>(60, 60, 1, 4, 2);
        let mut d = dispatch_of(&a, 10);
        assert!(d.len() >= 2, "need two bins for this test");
        let stolen = d[0].rows[0];
        let extra_nnz = a.row_nnz(stolen as usize);
        let last = d.len() - 1;
        d[last].rows.push(stolen);
        d[last].nnz += extra_nnz;
        match check_dispatch(&a, &d) {
            Err(VerifyError::OverlappingRows {
                bin_a, bin_b, rows, ..
            }) => {
                assert_ne!(bin_a, bin_b);
                assert!(rows.0 <= stolen && stolen <= rows.1);
            }
            other => panic!("expected OverlappingRows, got {other:?}"),
        }
    }

    #[test]
    fn missing_rows_report_the_uncovered_range() {
        let a = gen::random_uniform::<f64>(40, 40, 1, 3, 3);
        let mut d = dispatch_of(&a, 10);
        // Drop rows 5..=7 from whichever entry owns them.
        for e in &mut d {
            let before: Vec<u32> = e.rows.clone();
            e.rows.retain(|&r| !(5..=7).contains(&r));
            for &r in before.iter().filter(|&&r| (5..=7).contains(&r)) {
                e.nnz -= a.row_nnz(r as usize);
            }
        }
        match check_dispatch(&a, &d) {
            Err(VerifyError::UncoveredRows { rows: (5, 7) }) => {}
            other => panic!("expected UncoveredRows(5..=7), got {other:?}"),
        }
    }

    #[test]
    fn empty_tile_queue_proves_nothing_for_a_populated_plan() {
        let a = gen::powerlaw::<f64>(300, 1, 40, 2.1, 5);
        let strategy = Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Serial; 8],
        };
        let plan = SpmvPlan::compile(
            &a,
            strategy,
            Box::new(SimGpuBackend::new(GpuDevice::kaveri())),
        );
        assert!(!plan.dispatch().is_empty());
        check_payloads(&a, plan.dispatch(), plan.payloads(), plan.tiles()).unwrap();
        match check_payloads(&a, plan.dispatch(), plan.payloads(), &[]) {
            Err(VerifyError::TilesNotPartition { .. }) => {}
            other => panic!("expected TilesNotPartition, got {other:?}"),
        }
        // An empty dispatch table needs no tiles.
        check_payloads::<f64>(&a, &[], &[], &[]).unwrap();
    }

    #[test]
    fn stale_nnz_is_caught() {
        let a = gen::random_uniform::<f64>(30, 30, 1, 3, 4);
        let mut d = dispatch_of(&a, 10);
        d[0].nnz += 1;
        match check_dispatch(&a, &d) {
            Err(VerifyError::BinNnzMismatch { .. }) => {}
            other => panic!("expected BinNnzMismatch, got {other:?}"),
        }
    }
}
