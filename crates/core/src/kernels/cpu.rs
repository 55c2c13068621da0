//! Native CPU SpMV kernels on the `spmv-parallel` substrate.
//!
//! These are real multithreaded implementations (not simulations) used by
//! the examples, the CPU side of the heterogeneous scheduling sketch
//! (§VI future work), and the Criterion microbenches. The two variants
//! mirror the load-balancing split the paper's binning addresses:
//! row-parallel (cheap, imbalanced) versus NNZ-balanced partitioning.

use crate::kernels::table::{self, BatchArgs, BatchKernelFn, KernelKey};
use crate::plan::{rhs_blocks, BinDispatch, BinPayload, Tile};
use spmv_parallel::{drain_for_each, fused_for_each_with, parallel_for};
use spmv_sparse::{CsrMatrix, DenseBlock, Scalar, SparseError};

/// Row-parallel SpMV: rows are distributed in fixed-size chunks. The CPU
/// analogue of `Kernel-Serial`.
pub fn spmv_row_parallel<T: Scalar>(
    a: &CsrMatrix<T>,
    v: &[T],
    u: &mut [T],
) -> Result<(), SparseError> {
    check_dims(a, v, u)?;
    let out = SliceWriter::new(u);
    parallel_for(a.n_rows(), 256, |start, end| {
        for i in start..end {
            let (cols, vals) = a.row(i);
            let mut sum = T::ZERO;
            for (&c, &x) in cols.iter().zip(vals) {
                sum = x.mul_add_(v[c as usize], sum);
            }
            // SAFETY: `parallel_for` hands out disjoint row ranges and
            // returns only once every worker is done; `u` outlives the call.
            unsafe { out.write(i, sum) };
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
    let out = SliceWriter::new(u);
    parallel_for(cuts.len() - 1, 1, |p0, p1| {
        for p in p0..p1 {
            for i in cuts[p]..cuts[p + 1] {
                let (cols, vals) = a.row(i);
                let mut sum = T::ZERO;
                for (&c, &x) in cols.iter().zip(vals) {
                    sum = x.mul_add_(v[c as usize], sum);
                }
                // SAFETY: cut ranges are disjoint; see above.
                unsafe { out.write(i, sum) };
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
/// [`KernelId::Serial`]: crate::kernels::KernelId::Serial
pub fn spmv_rows_chunked<T: Scalar>(
    a: &CsrMatrix<T>,
    rows: &[u32],
    grain: usize,
    v: &[T],
    u: &mut [T],
) -> Result<(), SparseError> {
    check_dims(a, v, u)?;
    let out = SliceWriter::new(u);
    parallel_for(rows.len(), grain.max(1), |start, end| {
        for &r in &rows[start..end] {
            let (cols, vals) = a.row(r as usize);
            let mut sum = T::ZERO;
            for (&c, &x) in cols.iter().zip(vals) {
                sum = x.mul_add_(v[c as usize], sum);
            }
            // SAFETY: each row id appears once in `rows`, so writes are
            // disjoint; `parallel_for` returns only once every worker is done.
            unsafe { out.write(r as usize, sum) };
        }
    });
    Ok(())
}

/// SpMV over an explicit row subset with NNZ-balanced partitioning: the
/// `rows` list is cut into `parts` spans of roughly equal non-zero count
/// in one O(|rows|) scan, so one heavy row cannot serialise the launch.
/// Backs the subvector/vector kernels on the native CPU backend.
pub fn spmv_rows_nnz_balanced<T: Scalar>(
    a: &CsrMatrix<T>,
    rows: &[u32],
    parts: usize,
    v: &[T],
    u: &mut [T],
) -> Result<(), SparseError> {
    check_dims(a, v, u)?;
    let cuts = rows_nnz_cuts(a, rows, parts);
    let out = SliceWriter::new(u);
    parallel_for(cuts.len() - 1, 1, |p0, p1| {
        for p in p0..p1 {
            for &r in &rows[cuts[p]..cuts[p + 1]] {
                let (cols, vals) = a.row(r as usize);
                let mut sum = T::ZERO;
                for (&c, &x) in cols.iter().zip(vals) {
                    sum = x.mul_add_(v[c as usize], sum);
                }
                // SAFETY: cut spans are disjoint; see above.
                unsafe { out.write(r as usize, sum) };
            }
        }
    });
    Ok(())
}

/// Resolve each bin's single-vector (`KB = 1`) table kernel once, before
/// the parallel region opens. `None` for the formats whose single-vector
/// tile body is called directly (CSR row walk, packed slab walk,
/// cache-blocked strips); the specialized families execute through the
/// same registry entries as the batched path, over a stride-1 output
/// view.
fn resolve_tile_kernels<T: Scalar>(payloads: &[BinPayload<T>]) -> Vec<Option<BatchKernelFn<T>>> {
    payloads
        .iter()
        .map(|p| match p {
            BinPayload::DenseRun(_) | BinPayload::Banded(_) | BinPayload::RowRun(_) => {
                let key = KernelKey {
                    family: table::payload_family(p),
                    kb: 1,
                };
                Some(
                    table::lookup::<T>(key)
                        .unwrap_or_else(|| panic!("kernel table missing entry {key}")),
                )
            }
            BinPayload::Csr | BinPayload::Packed(_) | BinPayload::Blocked { .. } => None,
        })
        .collect()
}

/// Execute one tile of the queue — the per-item body of
/// [`run_plan_tiles`]. Which worker runs a tile cannot change a bit of
/// the result: the per-row FMA chains below depend only on the tile,
/// never on the schedule.
#[allow(clippy::too_many_arguments)]
fn exec_tile<T: Scalar>(
    a: &CsrMatrix<T>,
    dispatch: &[BinDispatch],
    payloads: &[BinPayload<T>],
    kernels: &[Option<BatchKernelFn<T>>],
    tile: &Tile,
    v: &[T],
    out: SliceWriter<T>,
    scratch: &mut BlockedScratch<T>,
) {
    let d = &dispatch[tile.bin];
    match &payloads[tile.bin] {
        BinPayload::Csr => {
            for &r in &d.rows[tile.start..tile.end] {
                let (cols, vals) = a.row(r as usize);
                let mut sum = T::ZERO;
                for (&c, &x) in cols.iter().zip(vals) {
                    sum = x.mul_add_(v[c as usize], sum);
                }
                // SAFETY: tiles of one bin cover disjoint spans of its
                // row list, bins own disjoint rows, and the parallel
                // region returns only once every worker is done, before
                // `u` is observable again.
                unsafe { out.write(r as usize, sum) };
            }
        }
        // The packed walk of the batched path, at `KB = 1` over `v`.
        BinPayload::Packed(packed) => {
            packed.with_slab(|slab| {
                slab.spmm_chunks::<1, _>(tile.start, tile.end, v, 1, 0, |r, [sum]| {
                    // SAFETY: chunk ranges of one bin are disjoint and
                    // each packed row belongs to exactly one chunk;
                    // same join argument as above.
                    unsafe { out.write(r, sum) };
                });
            });
        }
        BinPayload::Blocked { strip_cols } => {
            blocked_rows_spmv(
                a,
                &d.rows[tile.start..tile.end],
                *strip_cols,
                v,
                &out,
                scratch,
            );
        }
        // Structure-specialized bins run their registry kernel at
        // `KB = 1` over a stride-1 view of `u`: one kernel body per
        // family serves both the single-vector and the batched path.
        // Write soundness is the CSR arm's argument — these payloads
        // tile the bin's row list, so tiles still own disjoint rows.
        BinPayload::DenseRun(_) | BinPayload::Banded(_) | BinPayload::RowRun(_) => {
            let args = BatchArgs {
                a,
                bin_rows: &d.rows,
                payload: &payloads[tile.bin],
                start: tile.start,
                end: tile.end,
                xs: v,
                x_stride: 1,
                c0: 0,
                out: out.as_block(),
            };
            (kernels[tile.bin].expect("specialized bin without a resolved kernel"))(&args);
        }
    }
}

/// Execute a compiled plan's whole dispatch in **one** parallel region
/// over its precompiled tile queue — the native path behind
/// [`NativeCpuBackend::launch_plan`].
///
/// Workers claim `(bin, range)` tiles from the queue, so a thread
/// finishing one bin's tiles immediately steals the next bin's: one
/// join per execute, not one barrier per bin. CSR tiles walk their span
/// of the dispatch row list; packed tiles stream their SELL chunk
/// range; cache-blocked tiles walk the same row span strip-by-strip
/// with worker-private cursors and partial sums (`blocked_rows_spmv` —
/// bit-identical, the strips only reorder *when* entries are consumed
/// across rows, never within one). Packed value slabs are refreshed
/// from `a` up front, single-threaded, so the parallel region only ever
/// takes read locks.
///
/// Write soundness: each row of the matrix appears in exactly one bin
/// (binning invariant, proven by `check_dispatch`), each bin's tiles
/// partition its work (proven by `check_payloads`), and a packed bin's
/// rows are the bin's rows (ditto) — so across the whole queue every
/// output index is written by exactly one tile, and the result is
/// bit-for-bit identical to sequential execution under any schedule.
///
/// `workers` caps the parallel region (`0` = process default).
///
/// [`NativeCpuBackend::launch_plan`]: crate::exec::NativeCpuBackend
pub fn run_plan_tiles<T: Scalar>(
    a: &CsrMatrix<T>,
    dispatch: &[BinDispatch],
    payloads: &[BinPayload<T>],
    tiles: &[Tile],
    workers: usize,
    v: &[T],
    u: &mut [T],
) -> Result<(), SparseError> {
    check_dims(a, v, u)?;
    assert_eq!(dispatch.len(), payloads.len(), "payload table misaligned");
    for p in payloads {
        if let BinPayload::Packed(packed) = p {
            packed.ensure_values(a);
        }
    }
    let out = SliceWriter::new(u);
    let kernels = resolve_tile_kernels(payloads);
    drain_for_each(
        workers,
        tiles.len(),
        BlockedScratch::<T>::default,
        |scratch, t| exec_tile(a, dispatch, payloads, &kernels, &tiles[t], v, out, scratch),
    );
    Ok(())
}

/// Worker-private cursor/partial-sum buffers for the cache-blocked
/// executor — reused across tiles so the hot path never allocates after
/// the first tile a worker claims.
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

/// Cache-blocked SpMV over one tile's row span: the gather vector `v` is
/// walked in vertical strips of `strip_cols` columns, and every row's
/// cursor pauses at the strip boundary, carrying its partial sum to the
/// next strip. Within one strip the working set of `v` is at most
/// `strip_cols` elements, so scatter-heavy rows stop thrashing the cache
/// across the full width of `v`.
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
    a: &CsrMatrix<T>,
    rows: &[u32],
    strip_cols: usize,
    v: &[T],
    out: &SliceWriter<T>,
    scratch: &mut BlockedScratch<T>,
) {
    let strip_cols = strip_cols.max(1);
    let n = rows.len();
    scratch.cursors.clear();
    scratch.cursors.resize(n, 0);
    scratch.sums.clear();
    scratch.sums.resize(n, T::ZERO);
    let n_cols = a.n_cols();
    let mut strip_end = strip_cols.min(n_cols);
    loop {
        for (i, &r) in rows.iter().enumerate() {
            let (cols, vals) = a.row(r as usize);
            let mut j = scratch.cursors[i];
            let mut sum = scratch.sums[i];
            while j < cols.len() && (cols[j] as usize) < strip_end {
                sum = vals[j].mul_add_(v[cols[j] as usize], sum);
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
        // SAFETY: the same tile-disjointness argument as the CSR arm —
        // this tile owns `rows`, every strip of a row was accumulated
        // into this tile's scratch, and the parallel region returns
        // only once every worker is done, before `u` is observable again.
        unsafe { out.write(r as usize, scratch.sums[i]) };
    }
}

/// Batched (multi-RHS) plan execution: the SpMM analogue of
/// [`run_plan_tiles`], behind `NativeCpuBackend::launch_plan_batch`.
///
/// The RHS width `K` is decomposed into register-blocked widths by
/// [`rhs_blocks`] (greedy 8/4/2/1), and the work queue becomes the cross
/// product *(tile, RHS block)*: each item runs one tile's rows against
/// one contiguous column block of `x`/`y`, gathering every matrix element
/// once and broadcasting it against the block's contiguous x-lanes. Items
/// are ordered heaviest first with weight `tile_nnz × block_width`, so
/// the LPT discipline of the single-vector queue extends to `K`.
///
/// Write soundness extends the single-vector argument by one axis: tiles
/// write disjoint **row** sets (proven by `check_dispatch` +
/// `check_payloads`), RHS blocks write disjoint **column** ranges
/// (`rhs_blocks` partitions `[0, K)`, proven by `check_payloads`), so
/// every `(row, column)` output element is written by exactly one item.
///
/// `workers` caps the parallel region (`0` = process default).
#[allow(clippy::too_many_arguments)]
pub fn run_plan_tiles_batch<T: Scalar>(
    a: &CsrMatrix<T>,
    dispatch: &[BinDispatch],
    payloads: &[BinPayload<T>],
    tiles: &[Tile],
    tile_weights: &[usize],
    workers: usize,
    x: &DenseBlock<T>,
    y: &mut DenseBlock<T>,
) -> Result<(), SparseError> {
    check_block_dims(a, x, y)?;
    assert_eq!(dispatch.len(), payloads.len(), "payload table misaligned");
    debug_assert_eq!(tiles.len(), tile_weights.len(), "tile weights misaligned");
    let k = x.k();
    if k == 0 {
        return Ok(());
    }
    for p in payloads {
        if let BinPayload::Packed(packed) = p {
            packed.ensure_values(a);
        }
    }
    let blocks = rhs_blocks(k);
    let mut items: Vec<(u32, u32)> = Vec::with_capacity(tiles.len() * blocks.len());
    for bi in 0..blocks.len() {
        for ti in 0..tiles.len() {
            items.push((ti as u32, bi as u32));
        }
    }
    // LPT accounting for K: heaviest (tile, block) first. The sort is
    // stable, so equal weights keep the tile queue's own LPT order.
    items.sort_by_key(|&(ti, bi)| {
        let w = tile_weights.get(ti as usize).copied().unwrap_or(0);
        std::cmp::Reverse(w * blocks[bi as usize].1)
    });
    let xs = x.as_slice();
    let x_stride = x.stride();
    let out = BlockWriter::new(y);
    // Resolve every (bin, RHS-block) kernel from the generated table
    // before the parallel region: the hot loop below is one indirect
    // call per work item, no width `match` and no registry walk.
    // Cache-blocked bins resolve to the CSR family — the strip schedule
    // is a single-vector locality optimisation (the register-blocked
    // walk already amortises gathers across RHS lanes), and both walks
    // consume storage order, so the results are bit-identical either
    // way.
    let resolved: Vec<Vec<BatchKernelFn<T>>> = payloads
        .iter()
        .map(|p| {
            let family = table::payload_family(p);
            blocks
                .iter()
                .map(|&(_, width)| {
                    let key = KernelKey { family, kb: width };
                    table::lookup::<T>(key)
                        .unwrap_or_else(|| panic!("kernel table missing entry {key}"))
                })
                .collect()
        })
        .collect();
    let exec_item = |it: usize| {
        let (ti, bi) = items[it];
        let tile = &tiles[ti as usize];
        let (c0, _) = blocks[bi as usize];
        let d = &dispatch[tile.bin];
        let args = BatchArgs {
            a,
            bin_rows: &d.rows,
            payload: &payloads[tile.bin],
            start: tile.start,
            end: tile.end,
            xs,
            x_stride,
            c0,
            out,
        };
        resolved[tile.bin][bi as usize](&args);
    };
    fused_for_each_with(workers, items.len(), exec_item);
    Ok(())
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

/// Raw shared-write window over an output slice. Debug builds assert
/// every write is in bounds; release builds compile the check out — the
/// static proof in `spmv_autotune::verify` (write-set disjointness +
/// in-bounds over a plan's whole dispatch table) is what justifies
/// removing it from the hot path.
#[derive(Clone, Copy)]
struct SliceWriter<T> {
    ptr: *mut T,
    #[cfg(debug_assertions)]
    len: usize,
}
// SAFETY: used only for disjoint-index writes inside one parallel
// region, which returns only once every worker is done.
unsafe impl<T: Send> Send for SliceWriter<T> {}
// SAFETY: same restriction — disjoint indices, every worker done before use.
unsafe impl<T: Send> Sync for SliceWriter<T> {}

impl<T> SliceWriter<T> {
    fn new(u: &mut [T]) -> Self {
        Self {
            ptr: u.as_mut_ptr(),
            #[cfg(debug_assertions)]
            len: u.len(),
        }
    }

    /// # Safety
    ///
    /// `i` must be in bounds of the wrapped slice and no other thread may
    /// write index `i` concurrently.
    unsafe fn write(&self, i: usize, val: T) {
        #[cfg(debug_assertions)]
        debug_assert!(
            i < self.len,
            "SliceWriter: index {i} out of bounds ({})",
            self.len
        );
        // SAFETY: caller guarantees `i < len` and exclusive ownership of
        // index `i` for the duration of the enclosing parallel scope.
        unsafe { *self.ptr.add(i) = val };
    }

    /// Reinterpret the wrapped vector as a stride-1 single-column block,
    /// so the `KB = 1` table kernels can serve single-vector execution:
    /// `write_block(r, 0, [sum])` lands at index `r`, exactly where
    /// [`write`](Self::write) would put it.
    fn as_block(&self) -> BlockWriter<T> {
        BlockWriter {
            ptr: self.ptr,
            stride: 1,
            #[cfg(debug_assertions)]
            len: self.len,
        }
    }
}

/// Raw shared-write window over a row-major output block: the batched
/// counterpart of the crate-private `SliceWriter`. Writes land at
/// `row * stride + col`; soundness comes from the (tile × RHS-block)
/// disjointness proof — each work item owns a disjoint (row set ×
/// column range) rectangle.
///
/// Public only because it appears in [`crate::kernels::table::BatchArgs`]
/// (so the registry's fn-pointer type is nameable outside the crate);
/// the fields and both constructors (`BlockWriter::new` /
/// `SliceWriter::as_block`) stay crate-private, so every instance is
/// born inside an executor that owns the disjointness argument —
/// external code can inspect the registry but never invoke a kernel.
#[derive(Clone, Copy)]
pub struct BlockWriter<T> {
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
    fn new(y: &mut DenseBlock<T>) -> Self {
        Self {
            ptr: y.as_mut_slice().as_mut_ptr(),
            stride: y.stride(),
            #[cfg(debug_assertions)]
            len: y.as_slice().len(),
        }
    }

    /// Store `sums` at `(row, c0..c0 + KB)`.
    ///
    /// # Safety
    ///
    /// Every target index must be in bounds of the wrapped block and no
    /// other thread may write the same `(row, column)` concurrently.
    pub(crate) unsafe fn write_block<const KB: usize>(&self, row: usize, c0: usize, sums: [T; KB]) {
        let base = row * self.stride + c0;
        #[cfg(debug_assertions)]
        debug_assert!(
            base + KB <= self.len,
            "BlockWriter: rectangle ({row}, {c0}..{}) out of bounds",
            c0 + KB
        );
        for (kk, &s) in sums.iter().enumerate() {
            // SAFETY: caller guarantees the rectangle is in bounds and
            // exclusively owned for the duration of the fused scope.
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

    #[test]
    fn empty_matrix_is_fine() {
        let a = CsrMatrix::<f32>::zeros(0, 0);
        let mut u: Vec<f32> = vec![];
        spmv_row_parallel(&a, &[], &mut u).unwrap();
        spmv_nnz_balanced(&a, &[], &mut u).unwrap();
    }
}
