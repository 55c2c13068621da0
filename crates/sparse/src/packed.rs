//! SELL-C-σ-style packed storage for a row *subset*.
//!
//! The auto-tuner's binning groups rows of similar workload precisely so each
//! bin can run a kernel shaped for its workload — but a bin stored as a
//! CSR row list still pays one `row_ptr` lookup, one loop setup, and an
//! irregular short inner loop per row. [`PackedSell`] removes that
//! overhead for the bins where it dominates:
//!
//! * the bin's rows are sorted by NNZ descending — the "σ" sort — but
//!   only within *windows* of [`SORT_WINDOW_CHUNKS`] chunks (`32·C`
//!   consecutive positions of the bin's row list), with equal-length
//!   rows ordered by minimum column so structurally similar rows share
//!   a chunk. Bounding σ keeps most of the padding benefit (bins are
//!   already workload-homogeneous) while the slab still walks `x` and
//!   `y` roughly in row order; a whole-bin sort turns each length class
//!   into its own sweep over both vectors, which on a large
//!   scatter-heavy bin costs more than the padding it saves;
//! * consecutive groups of `C` rows form a *chunk* whose columns are laid
//!   out column-major (`lane` fastest), so one pass over a chunk streams
//!   `C` rows in lock-step with unit-stride loads — the shape a compiler
//!   auto-vectorises and the paper's SELL/ELL-family references exploit;
//! * within a chunk, lanes longer than the shortest row form a *ragged
//!   tail*: because lanes are length-sorted, the active lanes at column
//!   `j` are always a prefix, so the kernel never multiplies padding.
//!   Padding exists only as unread storage slots, which keeps results
//!   **bit-for-bit identical** to the sequential CSR reference (same
//!   per-row `mul_add_` order, no `0 · v[0]` terms that would break
//!   `-0.0` sums or NaN-propagate from an infinite `v` entry).
//!
//! The slab holds two per-slot arrays: one column and one value per
//! slot. Columns are `u16` when the source matrix has at most
//! [`NARROW_MAX_COLS`] columns and `u32` otherwise — one width per slab,
//! fixed by `n_cols`. A packed SpMV is bandwidth-bound (it streams the
//! slab, while `x` usually stays cache-resident), so the narrower column
//! stream is two bytes per slot the kernels do not move. The column
//! bound `col < n_cols` is proven at pack time and **re-proven at every
//! slab refresh**, which is what licenses the unchecked `v[col]` gathers
//! in the kernels.
//!
//! Columns and values are cached in a slab keyed by
//! [`CsrMatrix::values_id`], so a compiled plan executes with zero
//! indirection in the steady state and re-gathers the slab after a value
//! update. A refresh walks each packed row's CSR entries, in storage
//! order, into its lane's slots. Columns travel with the values because
//! an in-place mutation such as [`CsrMatrix::sort_rows`] permutes the
//! `(col, val)` pairs *within* each row without touching `row_ptr`: both
//! halves of each slot must be re-read or the slab would pair stale
//! columns with fresh values.
//!
//! Storage padding is bounded: [`PackedSell::padding_ratio`] reports
//! `slots / nnz`, and plan compilation falls back to the CSR row list
//! when the ratio exceeds its bound (one dense row among empties would
//! otherwise inflate the slab `C`-fold).

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use std::sync::{PoisonError, RwLock};

/// Chunks per row-sort window: [`PackedSell`] sorts the bin's row list
/// only within consecutive, chunk-aligned windows of
/// `SORT_WINDOW_CHUNKS · C` positions. In the perfbench window sweep
/// SpMM and SpMV gain about equally from 16 to 128 chunks; at 4 the
/// extra padding costs SpMV a third of its speed, and at 1024 the gain
/// on L2-resident bins is lost again (DESIGN §7).
pub const SORT_WINDOW_CHUNKS: usize = 32;

/// The widest matrix whose slab stores `u16` columns: every column id
/// of a matrix with at most this many columns fits 16 bits.
pub const NARROW_MAX_COLS: usize = 1 << 16;

/// A slab column id: `u16` or `u32`. Kernels and the refresh walk are
/// generic over it and dispatched once per call.
trait SlabCol: Copy {
    /// Narrow a column the caller has proven `< n_cols`, where `n_cols`
    /// selected this width.
    fn from_col(c: u32) -> Self;
    /// The column as an index.
    fn idx(self) -> usize;
}

impl SlabCol for u16 {
    #[inline(always)]
    fn from_col(c: u32) -> Self {
        c as u16
    }
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

impl SlabCol for u32 {
    #[inline(always)]
    fn from_col(c: u32) -> Self {
        c
    }
    #[inline(always)]
    fn idx(self) -> usize {
        self as usize
    }
}

/// The slab's column array at its one width.
#[derive(Clone)]
enum Cols {
    Narrow(Vec<u16>),
    Wide(Vec<u32>),
}

impl Cols {
    /// `slots` zeroed columns at the width `n_cols` selects.
    fn zeroed(n_cols: usize, slots: usize) -> Self {
        if n_cols <= NARROW_MAX_COLS {
            Cols::Narrow(vec![0; slots])
        } else {
            Cols::Wide(vec![0; slots])
        }
    }

    fn len(&self) -> usize {
        match self {
            Cols::Narrow(c) => c.len(),
            Cols::Wide(c) => c.len(),
        }
    }

    fn bytes(&self) -> usize {
        match self {
            Cols::Narrow(_) => 2,
            Cols::Wide(_) => 4,
        }
    }
}

/// The cached (columns, values) slab and the generation it mirrors.
/// Both halves live under one lock so readers always observe a coherent
/// pairing, even if a refresh races a concurrent execute.
struct ValueSlab<T> {
    /// `CsrMatrix::values_id` of the matrix state the slab mirrors.
    source: u64,
    /// One column per storage slot, column-major per chunk; padding
    /// slots hold `0`. Every non-padding column was asserted `< n_cols`
    /// when gathered, which is what licenses the unchecked `v[col]`
    /// gathers.
    cols: Cols,
    /// One entry per storage slot; padding slots hold `T::ZERO`.
    vals: Vec<T>,
}

/// A borrowed, coherent view of a [`PackedSell`] slab — obtained only
/// through [`PackedSell::with_slab`], never constructed by callers. The
/// kernels gather `v[col]` without per-element bound checks, so the
/// column stream must be the validated slab contents; keeping the
/// fields private makes that unforgeable from safe code.
#[derive(Clone, Copy)]
pub struct SlabView<'a, T> {
    cols: &'a Cols,
    vals: &'a [T],
}

/// Hint the CPU to pull `v[idx]` toward L1. Never reads memory, so any
/// `idx` is fine (an out-of-range one is a wasted hint).
#[inline(always)]
pub fn prefetch_read<T>(v: &[T], idx: usize) {
    #[cfg(target_arch = "x86_64")]
    // SAFETY: `_mm_prefetch` is a pure cache hint — it cannot fault even
    // on an unmapped address, and the pointer itself is formed with
    // `wrapping_add`, which is defined for any `idx`. No memory is read
    // or written.
    unsafe {
        use std::arch::x86_64::{_mm_prefetch, _MM_HINT_T0};
        _mm_prefetch::<_MM_HINT_T0>(v.as_ptr().wrapping_add(idx) as *const i8);
    }
    #[cfg(not(target_arch = "x86_64"))]
    let _ = (v, idx);
}

/// Which property of a [`PackedSell`] layout [`PackedSell::check_against`]
/// found broken.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum DefectKind {
    /// The payload's column count, or its slab's column width, disagrees
    /// with the matrix: the gather bound proof would be about another
    /// matrix, or columns would not fit their slots.
    WidthMismatch,
    /// The packed rows are not the bin's rows, each once and in the sort
    /// window it was listed in.
    RowSet,
    /// A lane's length runs past its chunk's slots, so the lane would
    /// read another chunk's slots as its own.
    LaneOverrun,
    /// A lane is longer than the CSR row it mirrors, so it claims a
    /// padding slot as an entry.
    PaddingClaimed,
    /// Any other broken layout property: chunk offsets that do not tile
    /// the slab, a lane shorter than its row, lanes out of length order
    /// within a window, or a wrong cached non-zero count.
    Layout,
    /// A slab column differs from the CSR column it mirrors, or falls
    /// outside `[0, n_cols)`.
    ColumnMismatch,
}

/// A [`PackedSell`] defect: its kind and a description naming the chunk,
/// lane or row. It reads as its description (`Deref<Target = str>`), so
/// a report can print or search it like a message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct PackedDefect {
    /// What broke.
    pub kind: DefectKind,
    /// Where, in words.
    pub detail: String,
}

/// `Err` with a [`PackedDefect`].
fn fail<R>(kind: DefectKind, detail: impl Into<String>) -> Result<R, PackedDefect> {
    Err(PackedDefect {
        kind,
        detail: detail.into(),
    })
}

impl std::ops::Deref for PackedDefect {
    type Target = str;
    fn deref(&self) -> &str {
        &self.detail
    }
}

impl std::fmt::Display for PackedDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for PackedDefect {}

/// The unsound layouts [`PackedSell::check_against`] must reject, each
/// built from an honest payload by [`apply`](Self::apply) for the tests
/// of the prover and of plan verification.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlabTamper {
    /// Lengthen the first lane of the first chunk by one: it runs past
    /// the chunk's slots ([`DefectKind::LaneOverrun`]).
    LaneOverrun,
    /// Lengthen a lane shorter than the lane before it in its chunk by
    /// one, so it claims a padding slot as an entry
    /// ([`DefectKind::PaddingClaimed`]).
    PaddingClaimed,
    /// Store the slab's columns at the other width
    /// ([`DefectKind::WidthMismatch`]).
    WidthMismatch,
}

impl SlabTamper {
    /// Every tamper, in declaration order.
    pub const ALL: [Self; 3] = [Self::LaneOverrun, Self::PaddingClaimed, Self::WidthMismatch];

    /// The defect [`PackedSell::check_against`] must report for this
    /// tamper.
    pub fn defect(self) -> DefectKind {
        match self {
            Self::LaneOverrun => DefectKind::LaneOverrun,
            Self::PaddingClaimed => DefectKind::PaddingClaimed,
            Self::WidthMismatch => DefectKind::WidthMismatch,
        }
    }

    /// A copy of `packed` broken this way, or `None` when the payload
    /// offers no site for it (no rows, or no ragged chunk).
    pub fn apply<T: Scalar>(self, packed: &PackedSell<T>) -> Option<PackedSell<T>> {
        let mut p = packed.clone();
        match self {
            Self::LaneOverrun => *p.lens.first_mut()? += 1,
            Self::PaddingClaimed => {
                let q =
                    (1..p.lens.len()).find(|&q| q % p.chunk != 0 && p.lens[q] < p.lens[q - 1])?;
                p.lens[q] += 1;
            }
            Self::WidthMismatch => {
                let slab = p.vals.get_mut().unwrap_or_else(PoisonError::into_inner);
                slab.cols = match &slab.cols {
                    Cols::Narrow(c) => Cols::Wide(c.iter().map(|&c| u32::from(c)).collect()),
                    Cols::Wide(c) => Cols::Narrow(c.iter().map(|&c| c as u16).collect()),
                };
            }
        }
        Some(p)
    }
}

/// A row subset packed into length-sorted, column-major chunks of `C`
/// lanes (SELL-C-σ with σ = [`SORT_WINDOW_CHUNKS`]` · C`), one column —
/// `u16` up to [`NARROW_MAX_COLS`] matrix columns, else `u32` — and one
/// value per slot (see the module docs). Built once per sparsity pattern
/// by plan compilation; executes many times.
pub struct PackedSell<T: Scalar> {
    /// Lanes per chunk (`C`).
    chunk: usize,
    /// Column count of the source matrix. Every non-padding slot's
    /// column is validated against this bound each time the slab is
    /// gathered, which is what licenses the unchecked gathers in the
    /// kernels; it also fixes the slab's column width.
    n_cols: usize,
    /// Row ids in packed (window-sorted) order.
    rows: Vec<u32>,
    /// NNZ of each packed row (same order as `rows`).
    lens: Vec<u32>,
    /// Slot offset of each chunk's slab; length `n_chunks + 1`.
    chunk_off: Vec<usize>,
    /// Non-zeros actually stored (excluding padding slots).
    nnz: usize,
    /// Cached columns + values, refreshed together when the source
    /// matrix's value generation changes.
    vals: RwLock<ValueSlab<T>>,
}

impl<T: Scalar> PackedSell<T> {
    /// Pack `rows` of `a` into chunks of `chunk` lanes. Within each
    /// window of [`SORT_WINDOW_CHUNKS`]` · chunk` consecutive positions
    /// of `rows`, rows are sorted by NNZ descending, equal lengths by
    /// minimum column (stable beyond that, so fully tied rows keep their
    /// input order); rows never leave their window. The caller's list is
    /// not modified. The slab is gathered immediately from `a`'s current
    /// columns and values.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`, a row id is out of bounds, or `a.nnz()`
    /// overflows the `u32` row lengths.
    pub fn from_rows(a: &CsrMatrix<T>, rows: &[u32], chunk: usize) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(
            a.nnz() < u32::MAX as usize,
            "matrix too large for u32 row lengths"
        );
        // Within each window of SORT_WINDOW_CHUNKS chunks — consecutive,
        // chunk-aligned runs of the input list — primary: NNZ descending
        // (the SELL length sort). Tie-break: minimum column, so
        // equal-length rows with nearby column sets share a chunk. Fully
        // tied rows keep their input order. Rows need not be
        // column-sorted, so the minimum takes a scan of the row: each key
        // is computed once, in one O(nnz) pass, and packed with the row's
        // input position — unique keys, so an unstable sort yields
        // exactly the stable order. Each row's dot product is accumulated
        // independently, so lane placement cannot change any result bit.
        let mut keyed: Vec<(u64, usize)> = rows
            .iter()
            .enumerate()
            .map(|(pos, &r)| {
                let (rcols, _) = a.row(r as usize);
                let min_col = rcols.iter().copied().min().unwrap_or(u32::MAX);
                // `!len` in the high word puts longer rows first; row
                // lengths fit u32 (asserted above).
                let len = rcols.len() as u32;
                ((u64::from(!len) << 32) | u64::from(min_col), pos)
            })
            .collect();
        for window in keyed.chunks_mut(SORT_WINDOW_CHUNKS * chunk) {
            window.sort_unstable();
        }
        let order: Vec<u32> = keyed.iter().map(|&(_, pos)| rows[pos]).collect();
        let lens: Vec<u32> = keyed
            .iter()
            .map(|&(key, _)| !((key >> 32) as u32))
            .collect();
        drop(keyed); // freed before the slabs are allocated

        let n_chunks = order.len().div_ceil(chunk);
        let mut chunk_off = Vec::with_capacity(n_chunks + 1);
        chunk_off.push(0usize);
        let mut slots = 0usize;
        for c in 0..n_chunks {
            let lane0 = c * chunk;
            let lanes = (order.len() - lane0).min(chunk);
            // Widest lane first: windows are chunk-aligned and sorted
            // by length descending.
            slots += lens[lane0] as usize * lanes;
            chunk_off.push(slots);
        }

        let nnz: usize = lens.iter().map(|&l| l as usize).sum();
        let packed = Self {
            chunk,
            n_cols: a.n_cols(),
            rows: order,
            lens,
            chunk_off,
            nnz,
            vals: RwLock::new(ValueSlab {
                // `values_id` generations start at 1, so 0 always forces
                // the gather below to populate cols + vals.
                source: 0,
                cols: Cols::zeroed(a.n_cols(), slots),
                vals: vec![T::ZERO; slots],
            }),
        };
        packed.ensure_values(a);
        packed
    }

    /// Lanes per chunk (`C`).
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Rows covered, in packed order: the caller's list with each window
    /// of [`SORT_WINDOW_CHUNKS`]` · C` positions sorted by length
    /// descending, then minimum column.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunk_off.len() - 1
    }

    /// Stored non-zeros (excluding padding).
    pub fn nnz(&self) -> usize {
        self.nnz
    }

    /// Total storage slots including padding.
    pub fn slots(&self) -> usize {
        self.chunk_off[self.n_chunks()]
    }

    /// Storage blow-up of the packed layout: `slots / nnz` (`1.0` when
    /// the subset is all padding-free or empty). Plan compilation gates
    /// SELL selection on this bound.
    pub fn padding_ratio(&self) -> f64 {
        if self.nnz == 0 {
            1.0
        } else {
            self.slots() as f64 / self.nnz as f64
        }
    }

    /// First lane and lane count of chunk `c`.
    fn lanes_of(&self, c: usize) -> (usize, usize) {
        let lane0 = c * self.chunk;
        (lane0, (self.rows.len() - lane0).min(self.chunk))
    }

    /// Non-zeros stored in chunk `c` (excluding padding) — the work
    /// estimate tile generation balances on.
    pub fn chunk_nnz(&self, c: usize) -> usize {
        let (lane0, lanes) = self.lanes_of(c);
        self.lens[lane0..lane0 + lanes]
            .iter()
            .map(|&l| l as usize)
            .sum()
    }

    /// Bytes per slab column: 2 when the source matrix has at most
    /// [`NARROW_MAX_COLS`] columns, else 4.
    pub fn col_bytes(&self) -> usize {
        self.slab_read().cols.bytes()
    }

    /// Bytes of the column-index stream the kernels traverse: one column
    /// of [`col_bytes`](Self::col_bytes) per slot, padding included.
    pub fn index_stream_bytes(&self) -> usize {
        self.slots() * self.col_bytes()
    }

    /// Heap bytes of the packed arrays (slab columns + slab values +
    /// index vectors).
    pub fn storage_bytes(&self) -> usize {
        self.index_stream_bytes()
            + self.slots() * T::BYTES
            + self.rows.len() * std::mem::size_of::<u32>()
            + self.lens.len() * std::mem::size_of::<u32>()
            + self.chunk_off.len() * std::mem::size_of::<usize>()
    }

    /// Bring the cached slab up to date with `a`. O(1) when
    /// [`CsrMatrix::values_id`] matches the slab's source (the steady
    /// state of an iterative solver); one O(slots) walk after a value
    /// update, which copies each packed row's CSR entries, in storage
    /// order, into its lane's slots. Re-reading columns with the values
    /// is what keeps the slab correct across in-place mutations like
    /// [`CsrMatrix::sort_rows`] that permute `(col, val)` pairs within a
    /// row. Callers must hand the same pattern (`row_ptr`) the payload
    /// was packed from — plan validation guarantees that; a row longer
    /// than its lane has its surplus entries dropped.
    ///
    /// # Panics
    ///
    /// Panics if a refreshed column index is out of bounds — the
    /// per-refresh proof that licenses the unchecked `v[col]` gathers in
    /// the kernels.
    pub fn ensure_values(&self, a: &CsrMatrix<T>) {
        let want = a.values_id();
        if self.slab_read().source == want {
            return;
        }
        let mut slab = self.vals.write().unwrap_or_else(PoisonError::into_inner);
        if slab.source == want {
            return; // another thread refreshed while we waited
        }
        let ValueSlab { cols, vals, source } = &mut *slab;
        // Stale until the walk completes, should it panic midway (every
        // column it did write passed the bound check first).
        *source = 0;
        match cols {
            Cols::Narrow(cols) => self.gather(cols, vals, a),
            Cols::Wide(cols) => self.gather(cols, vals, a),
        }
        *source = want;
    }

    /// The refresh walk of [`ensure_values`](Self::ensure_values) at one
    /// column width.
    fn gather<C: SlabCol>(&self, cols: &mut [C], vals: &mut [T], a: &CsrMatrix<T>) {
        for (c, &off) in self.chunk_off[..self.n_chunks()].iter().enumerate() {
            let (lane0, lanes) = self.lanes_of(c);
            for (lane, (&r, &len)) in self.rows[lane0..lane0 + lanes]
                .iter()
                .zip(&self.lens[lane0..lane0 + lanes])
                .enumerate()
            {
                let (rc, rv) = a.row(r as usize);
                for (j, (&col, &val)) in rc.iter().zip(rv).take(len as usize).enumerate() {
                    // Refresh-time bound proof: the kernels gather
                    // `v[col]` without a per-element check. It also
                    // makes the narrowing exact: `n_cols` chose the
                    // width, so every column below it fits.
                    assert!(
                        (col as usize) < self.n_cols,
                        "CSR column {col} out of bounds"
                    );
                    let slot = off + j * lanes + lane;
                    cols[slot] = C::from_col(col);
                    vals[slot] = val;
                }
            }
        }
    }

    /// Run `f` against the current slab under the read lock. The lock is
    /// uncontended in the steady state (refreshes happen before workers
    /// launch), so this costs one atomic acquire per call — take it once
    /// per tile, not per chunk.
    pub fn with_slab<R>(&self, f: impl FnOnce(SlabView<'_, T>) -> R) -> R {
        let guard = self.slab_read();
        f(SlabView {
            cols: &guard.cols,
            vals: &guard.vals,
        })
    }

    /// The slab's read guard. A refresh that panicked (its column bound
    /// check) poisons the lock but leaves the slab tagged stale with
    /// in-bounds columns, so the guard is recovered: the next
    /// [`ensure_values`](Self::ensure_values) re-gathers, and a later
    /// refresh from the right matrix succeeds.
    fn slab_read(&self) -> std::sync::RwLockReadGuard<'_, ValueSlab<T>> {
        self.vals.read().unwrap_or_else(PoisonError::into_inner)
    }

    /// SpMV over chunks `[c0, c1)`: for every row `r` of those chunks,
    /// computes `Σ_j A[r,·]·v` in ascending-`j` order (bit-identical to
    /// the CSR reference) and hands `(row, sum)` to `sink`. Rows with no
    /// entries still reach the sink with `T::ZERO`, matching CSR
    /// semantics. `slab` must come from [`with_slab`]. Full chunks of
    /// 8, 4 or 2 lanes (the heights `pick_auto_chunk` tries) run the
    /// `L`-unrolled kernel; other heights and partial chunks the dynamic
    /// one.
    ///
    /// # Panics
    ///
    /// Panics if `v` is shorter than the source matrix's column count —
    /// the single bound check that covers every gather below.
    ///
    /// [`with_slab`]: Self::with_slab
    pub fn spmv_chunks<S: FnMut(usize, T)>(
        &self,
        slab: SlabView<'_, T>,
        c0: usize,
        c1: usize,
        v: &[T],
        sink: S,
    ) {
        assert!(
            v.len() >= self.n_cols,
            "input vector shorter than the matrix column count"
        );
        match slab.cols {
            Cols::Narrow(cols) => self.spmv_range(cols.as_slice(), slab.vals, c0, c1, v, sink),
            Cols::Wide(cols) => self.spmv_range(cols.as_slice(), slab.vals, c0, c1, v, sink),
        }
    }

    /// [`spmv_chunks`](Self::spmv_chunks) at one column width.
    fn spmv_range<C: SlabCol, S: FnMut(usize, T)>(
        &self,
        cols: &[C],
        vals: &[T],
        c0: usize,
        c1: usize,
        v: &[T],
        mut sink: S,
    ) {
        for c in c0..c1 {
            let span = self.chunk_off[c]..self.chunk_off[c + 1];
            let (cols, vals) = (&cols[span.clone()], &vals[span]);
            let (lane0, lanes) = self.lanes_of(c);
            match lanes {
                8 => self.chunk_fixed::<C, 8, S>(cols, vals, lane0, v, &mut sink),
                4 => self.chunk_fixed::<C, 4, S>(cols, vals, lane0, v, &mut sink),
                2 => self.chunk_fixed::<C, 2, S>(cols, vals, lane0, v, &mut sink),
                _ => self.chunk_dyn(cols, vals, lane0, lanes, v, &mut sink),
            }
        }
    }

    /// One full chunk of exactly `L` lanes, with the dense phase (all
    /// lanes active) unrolled `L`-wide. `L` is a compile-time constant so
    /// the accumulator array lives in registers and the inner lane loop
    /// disappears. `cols`/`vals` are the chunk's own slices.
    #[inline]
    fn chunk_fixed<C: SlabCol, const L: usize, S: FnMut(usize, T)>(
        &self,
        cols: &[C],
        vals: &[T],
        lane0: usize,
        v: &[T],
        sink: &mut S,
    ) {
        let lens = &self.lens[lane0..lane0 + L];
        let width = lens[0] as usize;
        let min_len = lens[L - 1] as usize;
        let mut sums = [T::ZERO; L];
        // Dense phase: every lane active, unit-stride slab columns. The
        // `chunks_exact(L)` windows (L const) drop the per-slot slab
        // bounds checks; the gather is unchecked because every
        // non-padding column was proven `< n_cols` when the slab was
        // gathered and `spmv_chunks` checked `v.len() >= n_cols` once up
        // front.
        let dense = cols[..min_len * L].chunks_exact(L);
        let dense_vals = vals[..min_len * L].chunks_exact(L);
        for (cw, vw) in dense.zip(dense_vals) {
            // Gather first, FMA second: the gather loop is scalar loads,
            // but the FMA loop is contiguous-on-contiguous and the
            // compiler can turn it into one packed `vfmadd`.
            let mut xs = [T::ZERO; L];
            for l in 0..L {
                // SAFETY: `cw[l]` is a non-padding slot of this chunk's
                // dense phase; `ensure_values` asserted its column
                // `< n_cols` and `spmv_chunks` asserted
                // `v.len() >= n_cols`.
                xs[l] = unsafe { *v.get_unchecked(cw[l].idx()) };
            }
            for l in 0..L {
                sums[l] = vw[l].mul_add_(xs[l], sums[l]);
            }
        }
        // Ragged tail: lanes are length-sorted descending, so the active
        // lanes at column j are the prefix with len > j.
        let mut active = L;
        for j in min_len..width {
            while active > 0 && (lens[active - 1] as usize) <= j {
                active -= 1;
            }
            let o = j * L;
            for (l, s) in sums.iter_mut().enumerate().take(active) {
                // SAFETY: `l < active` means lane `l` has `len > j`, so
                // this slot is non-padding; same refresh-time bound
                // proof on its column.
                let x = unsafe { *v.get_unchecked(cols[o + l].idx()) };
                *s = vals[o + l].mul_add_(x, *s);
            }
        }
        for (l, &s) in sums.iter().enumerate() {
            sink(self.rows[lane0 + l] as usize, s);
        }
    }

    /// A partial (or oddly sized) chunk of `lanes` lanes — the same
    /// phase structure without the compile-time unroll. Accumulators
    /// live in a fixed stack buffer unless the chunk size is enormous.
    fn chunk_dyn<C: SlabCol, S: FnMut(usize, T)>(
        &self,
        cols: &[C],
        vals: &[T],
        lane0: usize,
        lanes: usize,
        v: &[T],
        sink: &mut S,
    ) {
        let lens = &self.lens[lane0..lane0 + lanes];
        let width = if lanes == 0 { 0 } else { lens[0] as usize };
        let mut stack = [T::ZERO; 32];
        let mut heap;
        let sums: &mut [T] = if lanes <= stack.len() {
            &mut stack[..lanes]
        } else {
            heap = vec![T::ZERO; lanes];
            &mut heap
        };
        let mut active = lanes;
        for j in 0..width {
            while active > 0 && (lens[active - 1] as usize) <= j {
                active -= 1;
            }
            let o = j * lanes;
            for (l, s) in sums.iter_mut().enumerate().take(active) {
                // SAFETY: `l < active` means this slot is non-padding;
                // same refresh-time bound proof as `chunk_fixed`.
                let x = unsafe { *v.get_unchecked(cols[o + l].idx()) };
                *s = vals[o + l].mul_add_(x, *s);
            }
        }
        for (l, &s) in sums.iter().enumerate() {
            sink(self.rows[lane0 + l] as usize, s);
        }
    }

    /// Batched SpMV (SpMM) over chunks `[c0, c1)` against `KB`
    /// right-hand sides read from a row-major block: input row `c` is
    /// `x[c * x_stride + x_col0 ..][..KB]`. For every packed row `r` the
    /// kernel walks the row's slots in ascending-`j` order — the **same**
    /// per-row accumulation order as [`spmv_chunks`](Self::spmv_chunks)
    /// and the CSR reference, so each of the `KB` output columns is
    /// bit-for-bit identical to an independent single-vector SpMV — and
    /// broadcasts each gathered matrix element against the `KB`
    /// contiguous x-lanes, accumulating into `KB` register-resident
    /// sums. Matrix bytes are streamed once and pay for `KB` outputs.
    ///
    /// Iteration is per-lane (slot stride = the chunk's lane count)
    /// rather than lane-lockstep: lockstep would need `lanes × KB`
    /// accumulators, which spills at any useful width, while per-lane
    /// keeps exactly `KB` sums live — the register-pressure cap that
    /// bounds the supported RHS widths (see the dispatch in the core
    /// executor). Padding slots are never read: each lane stops at its
    /// own length.
    ///
    /// `sink` receives `(row, sums)` for every row of the chunk range,
    /// including empty rows (all-zero sums), matching CSR semantics.
    ///
    /// # Panics
    ///
    /// Panics if `KB == 0`, the block geometry is inconsistent
    /// (`x_col0 + KB > x_stride` while columns exist), or `x` is too
    /// short to hold row `n_cols - 1` — the single up-front bound check
    /// that, together with the refresh-time column bound, licenses the
    /// unchecked x-gathers below.
    #[allow(clippy::too_many_arguments)] // block geometry is three scalars, not a struct
    pub fn spmm_chunks<const KB: usize, S: FnMut(usize, [T; KB])>(
        &self,
        slab: SlabView<'_, T>,
        c0: usize,
        c1: usize,
        x: &[T],
        x_stride: usize,
        x_col0: usize,
        sink: S,
    ) {
        assert!(KB > 0, "RHS block width must be positive");
        if self.n_cols > 0 {
            assert!(
                x_col0 + KB <= x_stride,
                "RHS block {x_col0}..{} overruns the row stride {x_stride}",
                x_col0 + KB
            );
            assert!(
                (self.n_cols - 1) * x_stride + x_col0 + KB <= x.len(),
                "input block shorter than the matrix column count"
            );
        }
        let block = (x, x_stride, x_col0);
        match slab.cols {
            Cols::Narrow(cols) => self.spmm_range(cols.as_slice(), slab.vals, c0, c1, block, sink),
            Cols::Wide(cols) => self.spmm_range(cols.as_slice(), slab.vals, c0, c1, block, sink),
        }
    }

    /// [`spmm_chunks`](Self::spmm_chunks) at one column width; `block`
    /// is `(x, x_stride, x_col0)`, already checked.
    fn spmm_range<C: SlabCol, const KB: usize, S: FnMut(usize, [T; KB])>(
        &self,
        cols: &[C],
        vals: &[T],
        c0: usize,
        c1: usize,
        (x, x_stride, x_col0): (&[T], usize, usize),
        mut sink: S,
    ) {
        for c in c0..c1 {
            let span = self.chunk_off[c]..self.chunk_off[c + 1];
            let (cols, vals) = (&cols[span.clone()], &vals[span]);
            let (lane0, lanes) = self.lanes_of(c);
            for l in 0..lanes {
                let len = self.lens[lane0 + l] as usize;
                let mut sums = [T::ZERO; KB];
                let mut slot = l;
                for _ in 0..len {
                    let av = vals[slot];
                    let xbase = cols[slot].idx() * x_stride + x_col0;
                    for (kk, s) in sums.iter_mut().enumerate() {
                        // SAFETY: `cols[slot] < n_cols` was asserted
                        // when the slab was gathered, for every
                        // non-padding slot (lane `l` stops at its own
                        // length, so `slot` is never padding), and
                        // `spmm_chunks` proved
                        // `(n_cols - 1) * x_stride + x_col0 + KB <=
                        // x.len()`, so `xbase + kk` is in bounds.
                        let xv = unsafe { *x.get_unchecked(xbase + kk) };
                        *s = av.mul_add_(xv, *s);
                    }
                    slot += lanes;
                }
                sink(self.rows[lane0 + l] as usize, sums);
            }
        }
    }

    /// Sequential SpMV over the whole packed subset into `u` (only the
    /// packed rows are written). Refreshes the value slab from `a` first.
    /// Reference/diagnostic path; the parallel tiled path lives in the
    /// execution layer.
    pub fn spmv_into(&self, a: &CsrMatrix<T>, v: &[T], u: &mut [T]) {
        self.ensure_values(a);
        self.with_slab(|slab| {
            self.spmv_chunks(slab, 0, self.n_chunks(), v, |r, s| u[r] = s);
        });
    }

    /// Re-derive the packed layout from `a` and `expected_rows` and prove
    /// this payload matches it exactly, in this order:
    ///
    /// 1. the column count equals `a`'s and the slab's column width is
    ///    the one it selects;
    /// 2. the same row set (each row once, in bounds), every packed row
    ///    in the sort window of `expected_rows` it was listed in;
    /// 3. chunk offsets that tile the slab, no lane longer than its
    ///    chunk's slots allow, and each chunk exactly as wide as its
    ///    first lane;
    /// 4. lane lengths equal to the CSR row lengths (a longer lane would
    ///    read padding as an entry) and non-increasing within each
    ///    window;
    /// 5. every lane's slots, walked like a refresh, holding the columns
    ///    of its CSR row's entries in storage order, each `< n_cols`.
    ///
    /// The slab is refreshed from `a` before step 5, so the proof covers
    /// the state execution will read. Returns the first defect.
    /// O(slots + |rows| + m).
    pub fn check_against(
        &self,
        a: &CsrMatrix<T>,
        expected_rows: &[u32],
    ) -> Result<(), PackedDefect> {
        use DefectKind::*;
        if self.n_cols != a.n_cols() {
            return fail(
                WidthMismatch,
                format!(
                    "packed n_cols {} != matrix n_cols {} (gather bound proof void)",
                    self.n_cols,
                    a.n_cols()
                ),
            );
        }
        let col_bytes = self.col_bytes();
        if (col_bytes == 2) != (self.n_cols <= NARROW_MAX_COLS) {
            return fail(
                WidthMismatch,
                format!("{col_bytes}-byte slab columns for n_cols {}", self.n_cols),
            );
        }
        if self.rows.len() != expected_rows.len() {
            return fail(
                RowSet,
                format!(
                    "packed row count {} != bin row count {}",
                    self.rows.len(),
                    expected_rows.len()
                ),
            );
        }
        // Row-set and window proof with a window-tag array: every
        // expected row in bounds and listed once, tagged with its sort
        // window; then every packed row in bounds, tagged with the
        // window of its packed position (clearing the tag, so a repeat
        // fails). Equal counts make that a bijection that keeps every
        // row in its window.
        const UNTAGGED: u32 = u32::MAX;
        let window = SORT_WINDOW_CHUNKS * self.chunk;
        let m = a.n_rows();
        let mut tag = vec![UNTAGGED; m];
        for (pos, &r) in expected_rows.iter().enumerate() {
            match tag.get_mut(r as usize) {
                None => return fail(RowSet, format!("bin row {r} out of bounds (m = {m})")),
                Some(t) if *t != UNTAGGED => {
                    return fail(RowSet, format!("bin lists row {r} twice"))
                }
                Some(t) => *t = (pos / window) as u32,
            }
        }
        for (pos, &r) in self.rows.iter().enumerate() {
            match tag.get_mut(r as usize) {
                None => return fail(RowSet, format!("packed row {r} out of bounds (m = {m})")),
                Some(t) if *t == UNTAGGED => {
                    return fail(RowSet, "packed rows are not the bin's row set")
                }
                Some(t) if *t as usize != pos / window => {
                    return fail(
                        RowSet,
                        format!("packed row {r} at index {pos} left its sort window {t}"),
                    )
                }
                Some(t) => *t = UNTAGGED,
            }
        }
        let slab_len = {
            let slab = self.slab_read();
            if slab.vals.len() != slab.cols.len() {
                return fail(Layout, "slab length mismatch");
            }
            slab.cols.len()
        };
        if self.lens.len() != self.rows.len()
            || self.n_chunks() != self.rows.len().div_ceil(self.chunk)
            || self.chunk_off[0] != 0
            || self.slots() != slab_len
        {
            return fail(Layout, "chunk offsets do not span the slab");
        }
        for c in 0..self.n_chunks() {
            let (lane0, lanes) = self.lanes_of(c);
            let Some(span) = self.chunk_off[c + 1].checked_sub(self.chunk_off[c]) else {
                return fail(Layout, format!("chunk {c}: offsets decrease"));
            };
            for lane in 0..lanes {
                let len = self.lens[lane0 + lane] as usize;
                if len * lanes > span {
                    return fail(
                        LaneOverrun,
                        format!(
                            "chunk {c} lane {lane}: length {len} runs past the chunk's {} columns",
                            span / lanes
                        ),
                    );
                }
            }
            if span != self.lens[lane0] as usize * lanes {
                return fail(Layout, format!("chunk {c}: slab size != width × lanes"));
            }
        }
        let mut nnz = 0usize;
        for (i, (&r, &len)) in self.rows.iter().zip(&self.lens).enumerate() {
            let csr = a.row_nnz(r as usize);
            nnz += csr;
            if len as usize != csr {
                let (kind, what) = if len as usize > csr {
                    (PaddingClaimed, "claims a padding slot")
                } else {
                    (Layout, "drops entries")
                };
                return fail(
                    kind,
                    format!("packed row {r}: cached len {len} != CSR len {csr} ({what})"),
                );
            }
            if (i + 1) % window != 0 && i + 1 < self.lens.len() && self.lens[i + 1] > len {
                return fail(
                    Layout,
                    format!("packed rows not length-sorted within their window at index {i}"),
                );
            }
        }
        if nnz != self.nnz {
            return fail(
                Layout,
                format!("cached nnz {} != lane total {nnz}", self.nnz),
            );
        }
        self.ensure_values(a);
        let slab = self.slab_read();
        match &slab.cols {
            Cols::Narrow(cols) => self.check_columns(cols.as_slice(), a),
            Cols::Wide(cols) => self.check_columns(cols.as_slice(), a),
        }
    }

    /// Step 5 of [`check_against`](Self::check_against) at one column
    /// width.
    fn check_columns<C: SlabCol>(&self, cols: &[C], a: &CsrMatrix<T>) -> Result<(), PackedDefect> {
        for (c, &off) in self.chunk_off[..self.n_chunks()].iter().enumerate() {
            let (lane0, lanes) = self.lanes_of(c);
            for lane in 0..lanes {
                let (rc, _) = a.row(self.rows[lane0 + lane] as usize);
                for (j, &want) in rc.iter().enumerate() {
                    let col = cols[off + j * lanes + lane].idx();
                    if col != want as usize || col >= self.n_cols {
                        return fail(
                            DefectKind::ColumnMismatch,
                            format!(
                                "chunk {c} lane {lane} col {j}: slab col {col} != CSR col {want} \
                                 (n_cols {})",
                                self.n_cols
                            ),
                        );
                    }
                }
            }
        }
        Ok(())
    }
}

impl<T: Scalar> Clone for PackedSell<T> {
    fn clone(&self) -> Self {
        let slab = self.slab_read();
        Self {
            chunk: self.chunk,
            n_cols: self.n_cols,
            rows: self.rows.clone(),
            lens: self.lens.clone(),
            chunk_off: self.chunk_off.clone(),
            nnz: self.nnz,
            vals: RwLock::new(ValueSlab {
                source: slab.source,
                cols: slab.cols.clone(),
                vals: slab.vals.clone(),
            }),
        }
    }
}

impl<T: Scalar> std::fmt::Debug for PackedSell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedSell")
            .field("chunk", &self.chunk)
            .field("rows", &self.rows.len())
            .field("chunks", &self.n_chunks())
            .field("nnz", &self.nnz)
            .field("slots", &self.slots())
            .field("col_bytes", &self.col_bytes())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::gen;
    use crate::gen::mixture::RowRegime;

    fn all_rows<T: Scalar>(a: &CsrMatrix<T>) -> Vec<u32> {
        (0..a.n_rows() as u32).collect()
    }

    #[test]
    fn packed_matches_reference_bit_for_bit() {
        let a = gen::mixture::<f64>(
            500,
            700,
            &[
                RowRegime::new(1, 3, 0.4),
                RowRegime::new(8, 30, 0.4),
                RowRegime::new(60, 120, 0.2),
            ],
            true,
            7,
        );
        let v: Vec<f64> = (0..a.n_cols())
            .map(|i| ((i * 5) % 13) as f64 - 6.0)
            .collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        for chunk in [1, 3, 4, 8, 16] {
            let p = PackedSell::from_rows(&a, &all_rows(&a), chunk);
            p.check_against(&a, &all_rows(&a)).unwrap();
            let mut u = vec![0.0f64; a.n_rows()];
            p.spmv_into(&a, &v, &mut u);
            assert_eq!(u, reference, "chunk {chunk} diverges from CSR reference");
        }
    }

    #[test]
    fn subset_only_touches_its_rows() {
        let a = gen::random_uniform::<f32>(100, 100, 1, 6, 3);
        let subset: Vec<u32> = (0..100).step_by(3).collect();
        let p = PackedSell::from_rows(&a, &subset, 8);
        p.check_against(&a, &subset).unwrap();
        let v = vec![1.0f32; 100];
        let mut u = vec![f32::NAN; 100];
        p.spmv_into(&a, &v, &mut u);
        for (i, &x) in u.iter().enumerate() {
            if subset.contains(&(i as u32)) {
                assert!(!x.is_nan(), "row {i} skipped");
            } else {
                assert!(x.is_nan(), "row {i} touched");
            }
        }
    }

    #[test]
    fn value_updates_are_picked_up_via_values_id() {
        let mut a = gen::random_uniform::<f64>(200, 200, 2, 9, 5);
        let rows = all_rows(&a);
        let p = PackedSell::from_rows(&a, &rows, 8);
        let v: Vec<f64> = (0..200).map(|i| (i % 5) as f64).collect();
        for round in 0..3u64 {
            a.fill_values_with(|k| ((k as u64).wrapping_mul(round + 1) % 11) as f64 - 5.0);
            let reference = a.spmv_seq_alloc(&v).unwrap();
            let mut u = vec![0.0f64; 200];
            p.spmv_into(&a, &v, &mut u);
            assert_eq!(u, reference, "round {round}: stale value slab");
        }
    }

    #[test]
    fn padding_ratio_reflects_skew() {
        // 7 empty rows and one 64-NNZ row in one chunk: slots = 8·64.
        let mut coo = crate::CooMatrix::<f64>::new(8, 64);
        for j in 0..64 {
            coo.push(0, j, 1.0 + j as f64);
        }
        let a = coo.to_csr();
        let p = PackedSell::from_rows(&a, &all_rows(&a), 8);
        assert_eq!(p.slots(), 8 * 64);
        assert!((p.padding_ratio() - 8.0).abs() < 1e-12);
        // Uniform rows pack with no padding at all.
        let b = gen::random_uniform::<f64>(64, 64, 4, 4, 1);
        let q = PackedSell::from_rows(&b, &all_rows(&b), 8);
        assert_eq!(q.padding_ratio(), 1.0);
    }

    #[test]
    fn empty_rows_and_empty_subsets_are_fine() {
        let a = CsrMatrix::<f64>::zeros(10, 10);
        let p = PackedSell::from_rows(&a, &all_rows(&a), 8);
        assert_eq!(p.nnz(), 0);
        assert_eq!(p.padding_ratio(), 1.0);
        let v = vec![1.0f64; 10];
        let mut u = vec![9.0f64; 10];
        p.spmv_into(&a, &v, &mut u);
        assert_eq!(u, vec![0.0f64; 10], "empty rows must write zeros");
        let q = PackedSell::from_rows(&a, &[], 4);
        assert_eq!(q.n_chunks(), 0);
        q.spmv_into(&a, &v, &mut [0.0f64; 10]);
    }

    #[test]
    fn check_against_catches_tampering() {
        let a = gen::random_uniform::<f64>(40, 40, 1, 5, 9);
        let rows = all_rows(&a);
        let p = PackedSell::from_rows(&a, &rows, 8);
        p.check_against(&a, &rows).unwrap();
        // A slab column that no longer mirrors its CSR entry must be
        // named (the refresh is a no-op: the values generation still
        // matches). Slot 0 is lane 0's first entry.
        let mut slab = p.vals.write().unwrap_or_else(PoisonError::into_inner);
        let Cols::Narrow(cols) = &mut slab.cols else {
            panic!("40 columns pack 16-bit")
        };
        cols[0] = (cols[0] + 1) % 40;
        drop(slab);
        let err = p.check_against(&a, &rows).unwrap_err();
        assert!(err.contains("slab col"), "unexpected defect: {err}");
        assert_eq!(err.kind, DefectKind::ColumnMismatch);
    }

    /// The packed row order by definition: a stable
    /// `(Reverse(len), min col)` sort within each window of
    /// `SORT_WINDOW_CHUNKS · chunk` positions of the input list.
    fn windowed_reference(a: &CsrMatrix<f64>, rows: &[u32], chunk: usize) -> Vec<u32> {
        let mut order = rows.to_vec();
        for window in order.chunks_mut(SORT_WINDOW_CHUNKS * chunk) {
            window.sort_by_key(|&r| {
                let (rcols, _) = a.row(r as usize);
                (
                    std::cmp::Reverse(rcols.len()),
                    rcols.iter().copied().min().unwrap_or(u32::MAX),
                )
            });
        }
        order
    }

    #[test]
    fn row_order_is_the_windowed_stable_length_then_min_column_sort() {
        // Unsorted rows with the diagonal last (the SymGS companions'
        // layout), ties on length, ties on length *and* minimum column,
        // and empty rows, listed in a scrambled input order.
        let lists: [&[u32]; 12] = [
            &[5, 9, 0],
            &[7, 3, 1],
            &[4, 2],
            &[8, 0, 3],
            &[],
            &[6, 5],
            &[2, 6],
            &[15, 1, 12, 7],
            &[0, 8],
            &[3, 9],
            &[],
            &[1, 14, 2, 11],
        ];
        let mut row_ptr = vec![0usize];
        let mut cols = Vec::new();
        for l in lists {
            cols.extend_from_slice(l);
            row_ptr.push(cols.len());
        }
        let vals: Vec<f64> = (0..cols.len()).map(|k| k as f64 + 1.0).collect();
        let a = CsrMatrix::from_parts(12, 16, row_ptr, cols, vals).unwrap();
        let scrambled = [11u32, 3, 10, 6, 0, 9, 2, 7, 4, 1, 8, 5];
        for rows in [&scrambled[..], &scrambled[3..9], &all_rows(&a)[..]] {
            for chunk in [1, 4, 8] {
                let p = PackedSell::from_rows(&a, rows, chunk);
                assert_eq!(
                    p.rows(),
                    &windowed_reference(&a, rows, chunk)[..],
                    "chunk {chunk}"
                );
                p.check_against(&a, rows).unwrap();
            }
        }
        // A larger random matrix: long tie runs on every length.
        let b = gen::random_uniform::<f64>(400, 60, 0, 6, 17);
        let rows: Vec<u32> = (0..400u32).map(|i| (i * 151) % 400).collect();
        assert_eq!(
            PackedSell::from_rows(&b, &rows, 8).rows(),
            &windowed_reference(&b, &rows, 8)[..]
        );
        // A list spanning three windows, the last one partial: rows
        // never cross a window boundary, and each window is sorted.
        let c = gen::random_uniform::<f64>(700, 90, 0, 9, 23);
        let rows: Vec<u32> = (0..700u32).map(|i| (i * 263) % 700).collect();
        for chunk in [4, 8] {
            let window = SORT_WINDOW_CHUNKS * chunk;
            let take = 2 * window + window / 3;
            let p = PackedSell::from_rows(&c, &rows[..take], chunk);
            let reference = windowed_reference(&c, &rows[..take], chunk);
            assert_eq!(p.rows(), &reference[..], "chunk {chunk}");
            // A chunk height of `take` makes one window: the global sort.
            let global = windowed_reference(&c, &rows[..take], take);
            assert_ne!(reference, global, "chunk {chunk}: no row crossed a window");
            p.check_against(&c, &rows[..take]).unwrap();
        }
    }

    #[test]
    fn check_against_rejects_a_wrong_row_set() {
        let a = gen::random_uniform::<f64>(40, 40, 1, 5, 9);
        let rows = all_rows(&a);
        let p = PackedSell::from_rows(&a, &rows, 8);
        // A duplicated expected row (one row dropped for it).
        let mut dup = rows.clone();
        dup[7] = dup[3];
        assert!(p.check_against(&a, &dup).is_err());
        // An out-of-bounds expected row.
        let mut oob = rows.clone();
        oob[39] = 40;
        assert!(p.check_against(&a, &oob).is_err());
        // A duplicated or out-of-bounds packed row — also when the whole
        // payload was packed consistently from the duplicate.
        let mut tampered = p.clone();
        tampered.rows[1] = tampered.rows[0];
        assert!(tampered.check_against(&a, &rows).is_err());
        assert!(PackedSell::from_rows(&a, &dup, 8)
            .check_against(&a, &rows)
            .is_err());
        let mut tampered = p.clone();
        tampered.rows[5] = 40;
        assert!(tampered.check_against(&a, &rows).is_err());
        // Same length, different set.
        let subset: Vec<u32> = (0..20).collect();
        let q = PackedSell::from_rows(&a, &subset, 8);
        q.check_against(&a, &subset).unwrap();
        let shifted: Vec<u32> = (1..21).collect();
        assert!(q.check_against(&a, &shifted).is_err());
    }

    #[test]
    fn spmm_chunks_matches_per_column_spmv_bit_for_bit() {
        let a = gen::mixture::<f64>(
            300,
            420,
            &[
                RowRegime::new(1, 4, 0.5),
                RowRegime::new(10, 40, 0.4),
                RowRegime::new(80, 150, 0.1),
            ],
            true,
            13,
        );
        let rows = all_rows(&a);
        for chunk in [3, 4, 8] {
            let p = PackedSell::from_rows(&a, &rows, chunk);
            // A strided row-major block: 4 live columns inside stride 6,
            // starting at column offset 1.
            const KB: usize = 4;
            let (stride, col0) = (6usize, 1usize);
            let x: Vec<f64> = (0..a.n_cols() * stride)
                .map(|i| ((i * 7) % 23) as f64 - 11.0)
                .collect();
            let mut batched = vec![f64::NAN; a.n_rows() * KB];
            p.with_slab(|slab| {
                p.spmm_chunks::<KB, _>(slab, 0, p.n_chunks(), &x, stride, col0, |r, sums| {
                    batched[r * KB..(r + 1) * KB].copy_from_slice(&sums);
                });
            });
            for kk in 0..KB {
                let v: Vec<f64> = (0..a.n_cols()).map(|c| x[c * stride + col0 + kk]).collect();
                let mut single = vec![f64::NAN; a.n_rows()];
                p.with_slab(|slab| {
                    p.spmv_chunks(slab, 0, p.n_chunks(), &v, |r, s| single[r] = s);
                });
                for r in 0..a.n_rows() {
                    assert_eq!(
                        batched[r * KB + kk],
                        single[r],
                        "chunk {chunk} row {r} col {kk} diverges"
                    );
                }
            }
        }
    }

    #[test]
    fn sort_rows_refreshes_columns_with_values() {
        // Unsorted rows: packing captures the pre-sort (col, val) order.
        // `sort_rows` permutes pairs within each row and bumps the value
        // generation; the slab refresh must re-gather *columns* too, or
        // stale columns pair with fresh values.
        let mut row_ptr = vec![0usize];
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for r in 0..6usize {
            cols.push(((r + 3) % 6) as u32);
            cols.push((r % 6) as u32);
            vals.push(10.0 + r as f64);
            vals.push(1.0 + r as f64);
            row_ptr.push(cols.len());
        }
        let mut a = CsrMatrix::<f64>::from_parts(6, 6, row_ptr, cols, vals).unwrap();
        assert!(!a.rows_sorted());
        let rows = all_rows(&a);
        let p = PackedSell::from_rows(&a, &rows, 4);
        p.check_against(&a, &rows).unwrap();

        a.sort_rows();
        let v: Vec<f64> = (0..6).map(|i| (i + 1) as f64).collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let mut u = vec![0.0f64; 6];
        p.spmv_into(&a, &v, &mut u);
        assert_eq!(u, reference, "slab went stale after sort_rows");
        p.check_against(&a, &rows).unwrap();
    }

    #[test]
    fn nan_and_inf_inputs_do_not_leak_through_padding() {
        // A skewed chunk with heavy padding; v[0] = inf would poison any
        // kernel that multiplies padding slots.
        let mut coo = crate::CooMatrix::<f64>::new(8, 16);
        for j in 1..16 {
            coo.push(0, j, 2.0);
        }
        coo.push(1, 1, 3.0);
        let a = coo.to_csr();
        let mut v = vec![1.0f64; 16];
        v[0] = f64::INFINITY;
        let p = PackedSell::from_rows(&a, &(0..8).collect::<Vec<u32>>(), 8);
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let mut u = vec![0.0f64; 8];
        p.spmv_into(&a, &v, &mut u);
        assert_eq!(u, reference, "padding participated in the sum");
        assert!(u[2..].iter().all(|&x| x == 0.0));
    }

    #[test]
    fn panicked_refresh_does_not_poison_later_refreshes() {
        // A refresh from a matrix whose columns overflow the packed
        // column count panics on its bound check while holding the write
        // lock. Later refreshes, from the right matrix at its old or a
        // new value generation, must still succeed and be exact.
        let mut a = gen::random_uniform::<f64>(40, 40, 1, 6, 3);
        let rows = all_rows(&a);
        let p = PackedSell::from_rows(&a, &rows, 4);
        let mut wide_cols = a.col_idx().to_vec();
        *wide_cols.last_mut().unwrap() = 45;
        let wide =
            CsrMatrix::from_parts(40, 48, a.row_ptr().to_vec(), wide_cols, a.values().to_vec())
                .unwrap();
        let refresh = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            p.ensure_values(&wide);
        }));
        assert!(refresh.is_err(), "an out-of-bounds column must panic");
        let v: Vec<f64> = (0..40).map(|i| (i % 7) as f64 - 3.0).collect();
        for version in 0..2 {
            if version > 0 {
                for x in a.values_mut() {
                    *x *= -2.0;
                }
            }
            let mut u = vec![f64::NAN; 40];
            p.spmv_into(&a, &v, &mut u);
            assert_eq!(u, a.spmv_seq_alloc(&v).unwrap(), "version {version}");
            p.check_against(&a, &rows).unwrap();
        }
    }

    /// A matrix of `m` rows over `n_cols` columns whose rows have 1–9
    /// unsorted entries spread over the whole column range, with the
    /// last column present: the width boundary's worst case.
    fn spread(m: usize, n_cols: usize, seed: u64) -> CsrMatrix<f64> {
        let mut row_ptr = vec![0usize];
        let mut cols = Vec::new();
        let mut s = seed;
        for r in 0..m {
            let len = 1 + (r * 7 + seed as usize) % 9;
            let mut row: Vec<u32> = (0..len)
                .map(|_| {
                    s = s
                        .wrapping_mul(6364136223846793005)
                        .wrapping_add(1442695040888963407);
                    ((s >> 33) % n_cols as u64) as u32
                })
                .collect();
            if r % 5 == 0 {
                row[len / 2] = (n_cols - 1) as u32;
            }
            row.sort_unstable();
            row.dedup();
            row.reverse();
            cols.extend(row);
            row_ptr.push(cols.len());
        }
        let vals: Vec<f64> = (0..cols.len())
            .map(|k| (k % 13) as f64 * 0.5 - 3.0)
            .collect();
        CsrMatrix::from_parts(m, n_cols, row_ptr, cols, vals).unwrap()
    }

    #[test]
    fn column_width_follows_n_cols_and_stays_bitwise() {
        for (n_cols, bytes) in [(NARROW_MAX_COLS, 2), (NARROW_MAX_COLS + 1, 4)] {
            let a = spread(300, n_cols, 3);
            assert!(a.col_idx().contains(&((n_cols - 1) as u32)));
            let rows = all_rows(&a);
            let v: Vec<f64> = (0..n_cols).map(|i| (i % 11) as f64 - 5.0).collect();
            let reference = a.spmv_seq_alloc(&v).unwrap();
            for chunk in [2, 3, 4, 8] {
                let p = PackedSell::from_rows(&a, &rows, chunk);
                assert_eq!(p.col_bytes(), bytes, "n_cols {n_cols}");
                assert_eq!(p.index_stream_bytes(), bytes * p.slots());
                p.check_against(&a, &rows).unwrap();
                let mut u = vec![f64::NAN; a.n_rows()];
                p.spmv_into(&a, &v, &mut u);
                assert_eq!(u, reference, "n_cols {n_cols} chunk {chunk}");
                // One RHS block of width 3 inside stride 4.
                let x: Vec<f64> = (0..n_cols * 4).map(|i| (i % 7) as f64 - 3.0).collect();
                let mut y = vec![[f64::NAN; 3]; a.n_rows()];
                p.with_slab(|slab| {
                    p.spmm_chunks::<3, _>(slab, 0, p.n_chunks(), &x, 4, 1, |r, s| y[r] = s);
                });
                for kk in 0..3 {
                    let vk: Vec<f64> = (0..n_cols).map(|c| x[c * 4 + 1 + kk]).collect();
                    let rk = a.spmv_seq_alloc(&vk).unwrap();
                    for (r, want) in rk.iter().enumerate() {
                        assert_eq!(y[r][kk], *want, "n_cols {n_cols} chunk {chunk} column {kk}");
                    }
                }
            }
        }
    }

    #[test]
    fn narrow_slab_refreshes_follow_sort_rows_and_values_mut() {
        // `spread` stores every row's columns descending, so `sort_rows`
        // reverses each row in place.
        let mut a = spread(200, NARROW_MAX_COLS, 8);
        assert!(!a.rows_sorted());
        let rows = all_rows(&a);
        let p = PackedSell::from_rows(&a, &rows, 4);
        assert_eq!(p.col_bytes(), 2);
        let v: Vec<f64> = (0..a.n_cols()).map(|i| (i % 9) as f64 - 4.0).collect();
        a.sort_rows();
        let mut u = vec![f64::NAN; a.n_rows()];
        p.spmv_into(&a, &v, &mut u);
        assert_eq!(
            u,
            a.spmv_seq_alloc(&v).unwrap(),
            "slab went stale after sort_rows"
        );
        p.check_against(&a, &rows).unwrap();
        for x in a.values_mut() {
            *x = -*x * 1.5 + 0.25;
        }
        let mut u = vec![f64::NAN; a.n_rows()];
        p.spmv_into(&a, &v, &mut u);
        assert_eq!(
            u,
            a.spmv_seq_alloc(&v).unwrap(),
            "slab went stale after values_mut"
        );
        p.check_against(&a, &rows).unwrap();
    }

    #[test]
    fn slab_tampers_are_rejected_with_their_defect() {
        for n_cols in [40, NARROW_MAX_COLS + 1] {
            let a = spread(120, n_cols, 5);
            let rows = all_rows(&a);
            let p = PackedSell::from_rows(&a, &rows, 4);
            p.check_against(&a, &rows).unwrap();
            for tamper in SlabTamper::ALL {
                let bad = tamper.apply(&p).expect("the payload has a site");
                let err = bad.check_against(&a, &rows).unwrap_err();
                assert_eq!(
                    err.kind,
                    tamper.defect(),
                    "{tamper:?} at n_cols {n_cols}: {err}"
                );
            }
        }
        // A payload with no ragged chunk offers no padding to claim.
        let b = gen::random_uniform::<f64>(16, 16, 3, 3, 2);
        let q = PackedSell::from_rows(&b, &all_rows(&b), 4);
        assert!(SlabTamper::PaddingClaimed.apply(&q).is_none());
    }
}
