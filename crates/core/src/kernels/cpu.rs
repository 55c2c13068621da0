//! Native CPU SpMV on the `spmv-parallel` substrate: the compiled-plan
//! executor behind `NativeCpuBackend`, and the row kernels of its
//! one-bin launches.
//!
//! `run_plan_tiles` (SpMV) and `run_plan_tiles_batch` (SpMM) run one
//! executor: a drain over the plan's (tile × RHS-block) work items, SpMV
//! being the `K = 1` case over a stride-1 view of `v`. Each item runs
//! one const-`KB` tile function whose `match` on the bin payload picks
//! the kernel body; the bodies live in the private `table` module.
//!
//! [`spmv_rows_chunked`] and [`spmv_rows_nnz_balanced`] back
//! `NativeCpuBackend::launch`, the per-bin launch `run_hetero` uses.
//! [`spmv_row_parallel`] and [`spmv_nnz_balanced`] are whole-matrix
//! row-parallel and NNZ-balanced SpMV, the baselines the benches
//! compare plans against: the load-balancing split the paper's binning
//! addresses.

use crate::exec::PlanParts;
use crate::kernels::table::{self, TileArgs};
use crate::plan::{rhs_blocks, BinPayload};
use spmv_parallel::{drain_for_each, parallel_for};
use spmv_sparse::{CsrMatrix, DenseBlock, Scalar, SparseError};

/// Row-parallel SpMV: rows are distributed in fixed-size chunks. The CPU
/// analogue of `Kernel-Serial`.
pub fn spmv_row_parallel<T: Scalar>(
    a: &CsrMatrix<T>,
    v: &[T],
    u: &mut [T],
) -> Result<(), SparseError> {
    check_dims(a, v, u)?;
    let out = BlockWriter::vector(u);
    parallel_for(a.n_rows(), 256, |start, end| {
        for i in start..end {
            let (cols, vals) = a.row(i);
            let mut sum = T::ZERO;
            for (&c, &x) in cols.iter().zip(vals) {
                sum = x.mul_add_(v[c as usize], sum);
            }
            // SAFETY: `parallel_for` hands out disjoint row ranges and
            // returns only once every worker is done; `u` outlives the call.
            unsafe { out.write_block(i, 0, [sum]) };
        }
    });
    Ok(())
}

/// NNZ-balanced SpMV: the row space is cut at (roughly) equal non-zero
/// counts via binary search on `rowPtr`, so one dense row cannot
/// serialise the loop. The CPU analogue of what binning buys the GPU.
///
/// Recomputes the cut positions every call. Repeated callers (iterative
/// solvers, benches) should compute [`nnz_balanced_cuts`] once per
/// pattern and call [`spmv_nnz_balanced_with_cuts`] — the compiled-plan
/// path does exactly that by freezing its cuts into the tile queue at
/// compile time.
pub fn spmv_nnz_balanced<T: Scalar>(
    a: &CsrMatrix<T>,
    v: &[T],
    u: &mut [T],
) -> Result<(), SparseError> {
    let parts = spmv_parallel::num_threads() * 4;
    let cuts = nnz_balanced_cuts(a, parts);
    spmv_nnz_balanced_with_cuts(a, &cuts, v, u)
}

/// [`spmv_nnz_balanced`] with the cut positions hoisted out: `cuts` must
/// come from [`nnz_balanced_cuts`] on the same pattern (monotone, first
/// 0, last `n_rows`), computed once and reused across value-only
/// updates.
pub fn spmv_nnz_balanced_with_cuts<T: Scalar>(
    a: &CsrMatrix<T>,
    cuts: &[usize],
    v: &[T],
    u: &mut [T],
) -> Result<(), SparseError> {
    check_dims(a, v, u)?;
    assert!(
        cuts.first() == Some(&0) && cuts.last() == Some(&a.n_rows()),
        "cuts must span [0, n_rows]"
    );
    let out = BlockWriter::vector(u);
    parallel_for(cuts.len() - 1, 1, |p0, p1| {
        for p in p0..p1 {
            for i in cuts[p]..cuts[p + 1] {
                let (cols, vals) = a.row(i);
                let mut sum = T::ZERO;
                for (&c, &x) in cols.iter().zip(vals) {
                    sum = x.mul_add_(v[c as usize], sum);
                }
                // SAFETY: cut ranges are disjoint; see above.
                unsafe { out.write_block(i, 0, [sum]) };
            }
        }
    });
    Ok(())
}

/// SpMV over an explicit row subset, rows distributed in fixed-size
/// chunks of the `rows` list. Backs [`KernelId::Serial`] on the native
/// CPU backend: cheap scheduling, no balancing — right for bins of
/// uniformly short rows.
///
/// Returns [`SparseError::InvalidStructure`] if `rows` names a row of
/// the matrix twice or a row id `>= n_rows`.
///
/// [`KernelId::Serial`]: crate::kernels::KernelId::Serial
pub fn spmv_rows_chunked<T: Scalar>(
    a: &CsrMatrix<T>,
    rows: &[u32],
    grain: usize,
    v: &[T],
    u: &mut [T],
) -> Result<(), SparseError> {
    check_dims(a, v, u)?;
    check_distinct_rows(a, rows)?;
    let out = BlockWriter::vector(u);
    parallel_for(rows.len(), grain.max(1), |start, end| {
        for &r in &rows[start..end] {
            let (cols, vals) = a.row(r as usize);
            let mut sum = T::ZERO;
            for (&c, &x) in cols.iter().zip(vals) {
                sum = x.mul_add_(v[c as usize], sum);
            }
            // SAFETY: `check_distinct_rows` proved each row id in bounds
            // and listed once, so writes are disjoint; `parallel_for`
            // returns only once every worker is done.
            unsafe { out.write_block(r as usize, 0, [sum]) };
        }
    });
    Ok(())
}

/// SpMV over an explicit row subset with NNZ-balanced partitioning: the
/// `rows` list is cut into `parts` spans of roughly equal non-zero count
/// in one O(|rows|) scan, so one heavy row cannot serialise the launch.
/// Backs the subvector/vector kernels on the native CPU backend.
///
/// Returns [`SparseError::InvalidStructure`] if `rows` names a row of
/// the matrix twice or a row id `>= n_rows`.
pub fn spmv_rows_nnz_balanced<T: Scalar>(
    a: &CsrMatrix<T>,
    rows: &[u32],
    parts: usize,
    v: &[T],
    u: &mut [T],
) -> Result<(), SparseError> {
    check_dims(a, v, u)?;
    check_distinct_rows(a, rows)?;
    let cuts = rows_nnz_cuts(a, rows, parts);
    // The spans `rows[cuts[p]..cuts[p + 1]]` the workers write must
    // partition `rows`: first cut 0, last `|rows|`, monotone. O(parts).
    assert!(
        cuts.first() == Some(&0)
            && cuts.last() == Some(&rows.len())
            && cuts.windows(2).all(|w| w[0] <= w[1]),
        "row cuts must partition the row list"
    );
    let out = BlockWriter::vector(u);
    parallel_for(cuts.len() - 1, 1, |p0, p1| {
        for p in p0..p1 {
            for &r in &rows[cuts[p]..cuts[p + 1]] {
                let (cols, vals) = a.row(r as usize);
                let mut sum = T::ZERO;
                for (&c, &x) in cols.iter().zip(vals) {
                    sum = x.mul_add_(v[c as usize], sum);
                }
                // SAFETY: the cut spans partition `rows` (asserted above)
                // and `check_distinct_rows` proved every id in bounds and
                // listed once, so writes are disjoint; `parallel_for`
                // returns only once every worker is done.
                unsafe { out.write_block(r as usize, 0, [sum]) };
            }
        }
    });
    Ok(())
}

/// Execute a compiled plan's SpMV, `u = A · v`: the plan executor at
/// `K = 1` over a stride-1 view of `v`, the native path behind
/// [`NativeCpuBackend::launch_plan`]. Allocates nothing but the
/// per-worker buffers of cache-blocked bins' strip walk.
///
/// `workers` caps the parallel region (`0` = process default).
///
/// [`NativeCpuBackend::launch_plan`]: crate::exec::NativeCpuBackend
pub(crate) fn run_plan_tiles<T: Scalar>(
    a: &CsrMatrix<T>,
    parts: &PlanParts<'_, T>,
    workers: usize,
    v: &[T],
    u: &mut [T],
) -> Result<(), SparseError> {
    check_dims(a, v, u)?;
    run_plan(a, parts, workers, (v, 1), &[(0, 1)], BlockWriter::vector(u));
    Ok(())
}

/// Execute a compiled plan against a block of `K` right-hand sides,
/// `y = A · x` (SpMM): the plan executor over the blocks
/// [`rhs_blocks`] decomposes `K` into (greedy 8/4/2/1), the native path
/// behind `NativeCpuBackend::launch_plan_batch`. Each output column is
/// bit-for-bit the SpMV of its input column.
///
/// `workers` caps the parallel region (`0` = process default).
pub(crate) fn run_plan_tiles_batch<T: Scalar>(
    a: &CsrMatrix<T>,
    parts: &PlanParts<'_, T>,
    workers: usize,
    x: &DenseBlock<T>,
    y: &mut DenseBlock<T>,
) -> Result<(), SparseError> {
    check_block_dims(a, x, y)?;
    let blocks = rhs_blocks(x.k());
    let xs = (x.as_slice(), x.stride());
    run_plan(a, parts, workers, xs, &blocks, BlockWriter::block(y));
    Ok(())
}

/// The plan executor: one parallel region drains the plan's
/// *(tile, RHS block)* work items, each running one tile's span of its
/// bin against one contiguous column block of `x`. Workers claim items
/// off one cursor, so a thread finishing one bin's tiles immediately
/// steals the next bin's: one join per execute, not one barrier per bin.
///
/// Items are ordered heaviest first with weight `tile_nnz ×
/// block_width`, the LPT discipline of the tile queue extended to `K`.
/// With one block the queue's own order already is that order, so
/// item `i` is tile `i` and no item list is built. Packed value slabs
/// are refreshed from `a` up front, single-threaded, so the parallel
/// region only ever takes read locks.
///
/// Write soundness: each row of the matrix appears in exactly one bin
/// (binning invariant, proven by `check_dispatch`), each bin's tiles
/// partition its work and a packed bin's rows are the bin's rows (both
/// proven by `check_payloads`), and the blocks partition `[0, K)`
/// (`check_rhs_blocks`). So every output element `(row, column)` is
/// written by exactly one item, and the result is bit-for-bit
/// identical to sequential execution under any schedule: the per-row
/// FMA chains depend only on the item, never on the worker.
fn run_plan<T: Scalar>(
    a: &CsrMatrix<T>,
    parts: &PlanParts<'_, T>,
    workers: usize,
    (xs, x_stride): (&[T], usize),
    blocks: &[(usize, usize)],
    out: BlockWriter<T>,
) {
    let PlanParts {
        dispatch,
        payloads,
        tiles,
        tile_weights,
    } = *parts;
    assert_eq!(dispatch.len(), payloads.len(), "payload table misaligned");
    debug_assert_eq!(tiles.len(), tile_weights.len(), "tile weights misaligned");
    for p in payloads {
        if let BinPayload::Packed(packed) = p {
            packed.ensure_values(a);
        }
    }
    let mut items: Vec<(u32, u32)> = Vec::new();
    if blocks.len() > 1 {
        items.reserve(tiles.len() * blocks.len());
        for bi in 0..blocks.len() {
            for ti in 0..tiles.len() {
                items.push((ti as u32, bi as u32));
            }
        }
        // The sort is stable, so equal weights keep the tile queue's
        // own LPT order.
        items.sort_by_key(|&(ti, bi)| {
            std::cmp::Reverse(tile_weights[ti as usize] * blocks[bi as usize].1)
        });
    }
    drain_for_each(
        workers,
        tiles.len() * blocks.len(),
        BlockedScratch::<T>::default,
        |scratch, i| {
            let (ti, bi) = match items.get(i) {
                Some(&(ti, bi)) => (ti as usize, bi as usize),
                None => (i, 0),
            };
            let tile = &tiles[ti];
            let (c0, width) = blocks[bi];
            let args = TileArgs {
                a,
                bin_rows: &dispatch[tile.bin].rows,
                start: tile.start,
                end: tile.end,
                xs,
                x_stride,
                c0,
                out,
            };
            let payload = &payloads[tile.bin];
            match width {
                1 => run_tile::<T, 1>(payload, &args, scratch),
                2 => run_tile::<T, 2>(payload, &args, scratch),
                4 => run_tile::<T, 4>(payload, &args, scratch),
                8 => run_tile::<T, 8>(payload, &args, scratch),
                _ => unreachable!("rhs_blocks emits widths 1, 2, 4 and 8 only"),
            }
        },
    );
}

/// Run one work item at RHS width `KB`: the bin's payload picks the
/// kernel body, and each body gets its own payload type. A cache-blocked
/// bin walks its strips at `KB = 1` and takes the CSR body at wider
/// blocks: the strip schedule is a single-vector locality overlay (a
/// wider block already amortises each gather across its lanes), and
/// both walks consume each row in storage order, so the results are
/// bit-identical either way.
fn run_tile<T: Scalar, const KB: usize>(
    payload: &BinPayload<T>,
    args: &TileArgs<'_, T>,
    scratch: &mut BlockedScratch<T>,
) {
    match payload {
        BinPayload::Csr => table::csr::<T, KB>(args),
        BinPayload::Blocked { strip_cols } if KB == 1 => {
            blocked_rows_spmv(args, *strip_cols, scratch)
        }
        BinPayload::Blocked { .. } => table::csr::<T, KB>(args),
        BinPayload::Packed(packed) => table::packed::<T, KB>(packed, args),
        BinPayload::DenseRun(runs) => table::dense_run::<T, KB>(runs, args),
        BinPayload::Banded(band) => table::banded::<T, KB>(band, args),
        BinPayload::RowRun(rr) => table::row_run::<T, KB>(rr, args),
    }
}

/// Worker-private cursor/partial-sum buffers for the cache-blocked
/// strip walk — reused across tiles so the hot path never allocates
/// after the first blocked tile a worker claims.
struct BlockedScratch<T: Scalar> {
    cursors: Vec<usize>,
    sums: Vec<T>,
}

impl<T: Scalar> Default for BlockedScratch<T> {
    fn default() -> Self {
        Self {
            cursors: Vec::new(),
            sums: Vec::new(),
        }
    }
}

/// Cache-blocked SpMV over one tile's row span, one RHS column: the
/// gather vector is walked in vertical strips of `strip_cols` columns,
/// and every row's cursor pauses at the strip boundary, carrying its
/// partial sum to the next strip. Within one strip the working set of
/// the gather vector is at most `strip_cols` elements, so scatter-heavy
/// rows stop thrashing the cache across its full width.
///
/// **Deterministic reduction order.** Each row's entries are consumed in
/// exact CSR storage position order: the strip loop only ever *pauses* a
/// row's cursor (`cols[j] < strip_end` fails) and later resumes it, never
/// reorders it, and the final strip ends at `n_cols`, so every cursor
/// reaches its row's end. The per-row FMA chain is therefore identical —
/// operation for operation — to the sequential CSR reference, making the
/// blocked path bit-for-bit regardless of strip width or column
/// sortedness (unsorted rows merely pause early and lose the locality
/// win, they cannot lose entries: a column below an earlier strip's end
/// still satisfies `cols[j] < strip_end` for every later strip).
fn blocked_rows_spmv<T: Scalar>(
    args: &TileArgs<'_, T>,
    strip_cols: usize,
    scratch: &mut BlockedScratch<T>,
) {
    let rows = &args.bin_rows[args.start..args.end];
    let strip_cols = strip_cols.max(1);
    let n = rows.len();
    scratch.cursors.clear();
    scratch.cursors.resize(n, 0);
    scratch.sums.clear();
    scratch.sums.resize(n, T::ZERO);
    let n_cols = args.a.n_cols();
    let mut strip_end = strip_cols.min(n_cols);
    loop {
        for (i, &r) in rows.iter().enumerate() {
            let (cols, vals) = args.a.row(r as usize);
            let mut j = scratch.cursors[i];
            let mut sum = scratch.sums[i];
            while j < cols.len() && (cols[j] as usize) < strip_end {
                let xv = args.xs[cols[j] as usize * args.x_stride + args.c0];
                sum = vals[j].mul_add_(xv, sum);
                j += 1;
            }
            scratch.cursors[i] = j;
            scratch.sums[i] = sum;
        }
        if strip_end >= n_cols {
            break;
        }
        strip_end = (strip_end + strip_cols).min(n_cols);
    }
    for (i, &r) in rows.iter().enumerate() {
        // SAFETY: the same item-disjointness argument as the CSR body —
        // this item owns `rows` × column `c0`, every strip of a row was
        // accumulated into this item's scratch, and the parallel region
        // returns only once every worker is done, before the output is
        // observable again.
        unsafe { args.out.write_block(r as usize, args.c0, [scratch.sums[i]]) };
    }
}

/// Positions into `rows` that split it into `parts` spans of roughly
/// equal NNZ (monotone, first 0, last `rows.len()`). One linear scan;
/// the result is O(parts), never O(m).
pub fn rows_nnz_cuts<T: Scalar>(a: &CsrMatrix<T>, rows: &[u32], parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let total: usize = rows.iter().map(|&r| a.row_nnz(r as usize)).sum();
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0);
    let mut acc = 0usize;
    let mut next_part = 1usize;
    for (i, &r) in rows.iter().enumerate() {
        if next_part >= parts {
            break;
        }
        acc += a.row_nnz(r as usize);
        while next_part < parts && acc >= total * next_part / parts {
            cuts.push(i + 1);
            next_part += 1;
        }
    }
    while cuts.len() < parts {
        cuts.push(rows.len());
    }
    cuts.push(rows.len());
    cuts
}

/// Row boundaries that split the matrix into `parts` spans of roughly
/// equal NNZ (monotone, first 0, last `n_rows`).
pub fn nnz_balanced_cuts<T: Scalar>(a: &CsrMatrix<T>, parts: usize) -> Vec<usize> {
    let parts = parts.max(1);
    let nnz = a.nnz();
    let row_ptr = a.row_ptr();
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(0);
    for p in 1..parts {
        let target = nnz * p / parts;
        let i = row_ptr.partition_point(|&x| x < target);
        cuts.push(i.min(a.n_rows()).max(*cuts.last().unwrap()));
    }
    cuts.push(a.n_rows());
    cuts
}

/// Dimension checks for the batched path: input rows match the column
/// count, output rows match the row count, and both blocks carry the
/// same number of vectors.
fn check_block_dims<T: Scalar>(
    a: &CsrMatrix<T>,
    x: &DenseBlock<T>,
    y: &DenseBlock<T>,
) -> Result<(), SparseError> {
    if x.n_rows() != a.n_cols() {
        return Err(SparseError::DimensionMismatch {
            context: "cpu spmm input block".into(),
            expected: a.n_cols(),
            got: x.n_rows(),
        });
    }
    if y.n_rows() != a.n_rows() {
        return Err(SparseError::DimensionMismatch {
            context: "cpu spmm output block".into(),
            expected: a.n_rows(),
            got: y.n_rows(),
        });
    }
    if y.k() != x.k() {
        return Err(SparseError::DimensionMismatch {
            context: "cpu spmm block width".into(),
            expected: x.k(),
            got: y.k(),
        });
    }
    Ok(())
}

/// Reject a row list the row-subset kernels cannot write soundly: an id
/// of `n_rows` or more, or an id listed twice (two workers would store
/// to the same output element unsynchronised). O(n_rows) scratch, one
/// scan, before any parallel region opens.
fn check_distinct_rows<T: Scalar>(a: &CsrMatrix<T>, rows: &[u32]) -> Result<(), SparseError> {
    let mut seen = vec![false; a.n_rows()];
    for &r in rows {
        match seen.get_mut(r as usize) {
            None => {
                return Err(SparseError::InvalidStructure(format!(
                    "row id {r} out of range for {} rows",
                    a.n_rows()
                )))
            }
            Some(true) => {
                return Err(SparseError::InvalidStructure(format!(
                    "row id {r} listed twice"
                )))
            }
            Some(s) => *s = true,
        }
    }
    Ok(())
}

fn check_dims<T: Scalar>(a: &CsrMatrix<T>, v: &[T], u: &[T]) -> Result<(), SparseError> {
    if v.len() != a.n_cols() {
        return Err(SparseError::DimensionMismatch {
            context: "cpu spmv input".into(),
            expected: a.n_cols(),
            got: v.len(),
        });
    }
    if u.len() != a.n_rows() {
        return Err(SparseError::DimensionMismatch {
            context: "cpu spmv output".into(),
            expected: a.n_rows(),
            got: u.len(),
        });
    }
    Ok(())
}

/// Raw shared-write window over a row-major output block; a vector is
/// the one-column block of stride 1. Writes land at `row * stride +
/// col`; soundness comes from the caller's disjointness argument (for
/// the plan executor, the proof that every work item owns a disjoint
/// row set × column range). Debug builds assert every write is in
/// bounds; release builds compile the check out — the static proof in
/// `spmv_autotune::verify` (write-set disjointness + in-bounds over a
/// plan's whole dispatch table) is what justifies removing it from the
/// hot path.
#[derive(Clone, Copy)]
pub(super) struct BlockWriter<T> {
    ptr: *mut T,
    stride: usize,
    #[cfg(debug_assertions)]
    len: usize,
}
// SAFETY: used only for disjoint (row, column) writes inside one
// parallel region, which returns only once every worker is done.
unsafe impl<T: Send> Send for BlockWriter<T> {}
// SAFETY: same restriction — disjoint output rectangles, every worker
// done before the block is read.
unsafe impl<T: Send> Sync for BlockWriter<T> {}

impl<T: Scalar> BlockWriter<T> {
    fn vector(u: &mut [T]) -> Self {
        Self {
            ptr: u.as_mut_ptr(),
            stride: 1,
            #[cfg(debug_assertions)]
            len: u.len(),
        }
    }

    fn block(y: &mut DenseBlock<T>) -> Self {
        Self {
            ptr: y.as_mut_slice().as_mut_ptr(),
            stride: y.stride(),
            #[cfg(debug_assertions)]
            len: y.as_slice().len(),
        }
    }

    /// Row stride of the wrapped block (`1` for a vector).
    pub(super) fn stride(&self) -> usize {
        self.stride
    }

    /// Store `sums` at `(row, c0..c0 + KB)`.
    ///
    /// # Safety
    ///
    /// Every target index must be in bounds of the wrapped block and no
    /// other thread may write the same `(row, column)` concurrently.
    pub(super) unsafe fn write_block<const KB: usize>(&self, row: usize, c0: usize, sums: [T; KB]) {
        let base = row * self.stride + c0;
        #[cfg(debug_assertions)]
        debug_assert!(
            base + KB <= self.len,
            "BlockWriter: rectangle ({row}, {c0}..{}) out of bounds",
            c0 + KB
        );
        for (kk, &s) in sums.iter().enumerate() {
            // SAFETY: caller guarantees the rectangle is in bounds and
            // exclusively owned for the duration of the parallel region.
            unsafe { *self.ptr.add(base + kk) = s };
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::csr::figure1_example;
    use spmv_sparse::gen;
    use spmv_sparse::gen::mixture::RowRegime;
    use spmv_sparse::scalar::approx_eq;

    #[test]
    fn both_variants_match_reference() {
        let a = gen::mixture::<f64>(
            1000,
            1500,
            &[RowRegime::new(1, 4, 0.7), RowRegime::new(50, 200, 0.3)],
            true,
            5,
        );
        let v: Vec<f64> = (0..a.n_cols()).map(|i| ((i * 13) % 17) as f64).collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        for f in [spmv_row_parallel::<f64>, spmv_nnz_balanced::<f64>] {
            let mut u = vec![0.0; a.n_rows()];
            f(&a, &v, &mut u).unwrap();
            for i in 0..a.n_rows() {
                assert!(approx_eq(u[i], reference[i], a.row_nnz(i)), "row {i}");
            }
        }
    }

    #[test]
    fn dimension_errors_are_reported() {
        let a = figure1_example::<f64>();
        let mut u = vec![0.0; 4];
        assert!(spmv_row_parallel(&a, &[1.0; 3], &mut u).is_err());
        assert!(spmv_nnz_balanced(&a, &[1.0; 4], &mut [0.0; 2]).is_err());
    }

    #[test]
    fn cuts_are_monotone_and_cover() {
        let a = gen::powerlaw::<f32>(5000, 1, 500, 2.0, 7);
        for parts in [1, 3, 8, 64] {
            let cuts = nnz_balanced_cuts(&a, parts);
            assert_eq!(*cuts.first().unwrap(), 0);
            assert_eq!(*cuts.last().unwrap(), a.n_rows());
            assert!(cuts.windows(2).all(|w| w[0] <= w[1]));
        }
    }

    #[test]
    fn cuts_balance_nnz() {
        let a = gen::random_uniform::<f64>(10_000, 10_000, 1, 9, 8);
        let cuts = nnz_balanced_cuts(&a, 8);
        let per_part: Vec<usize> = cuts.windows(2).map(|w| a.range_nnz(w[0], w[1])).collect();
        let avg = a.nnz() / 8;
        for (p, &n) in per_part.iter().enumerate() {
            assert!(
                n < avg * 2 + 100,
                "part {p} has {n} nnz (avg {avg}) — unbalanced"
            );
        }
    }

    /// A row list naming a row twice, or a row the matrix does not
    /// have, is rejected before any worker writes `u`.
    fn rejects_bad_row_lists(
        run: impl Fn(&CsrMatrix<f64>, &[u32], &[f64], &mut [f64]) -> Result<(), SparseError>,
    ) {
        let a = figure1_example::<f64>();
        let v = vec![1.0; a.n_cols()];
        let n = a.n_rows() as u32;
        for rows in [&[0, 0][..], &[2, 1, 2], &[n], &[0, n + 5]] {
            let mut u = vec![f64::NAN; a.n_rows()];
            let result = run(&a, rows, &v, &mut u);
            assert!(
                matches!(result, Err(SparseError::InvalidStructure(_))),
                "rows {rows:?}: {result:?}"
            );
            assert!(u.iter().all(|x| x.is_nan()), "rows {rows:?} wrote u");
        }
        let mut u = vec![0.0; a.n_rows()];
        run(&a, &[3, 0], &v, &mut u).unwrap();
    }

    #[test]
    fn rows_chunked_rejects_repeated_and_out_of_range_rows() {
        rejects_bad_row_lists(|a, rows, v, u| spmv_rows_chunked(a, rows, 1, v, u));
    }

    #[test]
    fn rows_nnz_balanced_rejects_repeated_and_out_of_range_rows() {
        rejects_bad_row_lists(|a, rows, v, u| spmv_rows_nnz_balanced(a, rows, 2, v, u));
    }

    #[test]
    fn row_cuts_partition_every_row_list() {
        // Rows 0, 3, 6, … are empty: zero-NNZ rows inside, at the start
        // of and making up whole row lists.
        let mut coo = spmv_sparse::CooMatrix::<f64>::new(60, 40);
        for r in (0..60).filter(|r| r % 3 != 0) {
            for j in 0..1 + r % 7 {
                coo.push(r, (r * 11 + j * 5) % 40, 1.0);
            }
        }
        let a = coo.to_csr();
        let lists: [Vec<u32>; 5] = [
            Vec::new(),
            (0..60).collect(),
            (0..60).rev().step_by(2).collect(),
            (0..60).step_by(3).collect(),
            vec![0],
        ];
        let workers = spmv_parallel::num_threads();
        for rows in &lists {
            let n = rows.len();
            for parts in [1, 2, 3, workers * 4, n, n + 7] {
                let cuts = rows_nnz_cuts(&a, rows, parts);
                let what = format!("{n} rows, {parts} parts: {cuts:?}");
                assert_eq!(cuts.len(), parts.max(1) + 1, "{what}");
                assert_eq!(cuts.first(), Some(&0), "{what}");
                assert_eq!(cuts.last(), Some(&n), "{what}");
                assert!(cuts.windows(2).all(|w| w[0] <= w[1]), "{what}");
            }
        }
    }

    #[test]
    fn empty_matrix_is_fine() {
        let a = CsrMatrix::<f32>::zeros(0, 0);
        let mut u: Vec<f32> = vec![];
        spmv_row_parallel(&a, &[], &mut u).unwrap();
        spmv_nnz_balanced(&a, &[], &mut u).unwrap();
    }
}
