//! SELL-C slabs: the one packed layout behind packed SpMV/SpMM bins and
//! the level-scheduled triangular solves.
//!
//! A [`SellSlab`] lays an ordered row list out as *chunks* of
//! consecutive positions. Position `p` holds row `rows[p]` as a *lane* of
//! `lens[p]` entries. Chunk `k` runs positions from `chunk_ptr[k]` up to
//! the next chunk's and stores its lanes' entries column-major (`lane`
//! fastest) from slot `slot_ptr[k]` on, lane `l`'s `j`-th entry at
//! `slot_ptr[k] + j * lanes + l`. One pass over a chunk streams its lanes
//! in lock-step with unit-stride loads — the shape a compiler
//! auto-vectorises and the paper's SELL/ELL-family references exploit.
//! Lane lengths do not increase within a chunk, so the active lanes at
//! column `j` are a prefix: no kernel reads a padding slot, and results
//! stay **bit-for-bit identical** to the sequential CSR references (same
//! per-row operation order, no `0 · v[0]` terms that would break `-0.0`
//! sums or NaN-propagate from an infinite `v` entry). The owner picks the
//! row order and the chunk heights:
//!
//! * [`PackedSell`] (an SpMV bin) uses a fixed `C` lanes per chunk and
//!   sorts the bin's rows by NNZ descending — the "σ" sort — only within
//!   *windows* of [`SORT_WINDOW_CHUNKS`] chunks, equal lengths by minimum
//!   column so similar rows share a chunk. Bounding σ keeps most of the
//!   padding benefit (bins are already workload-homogeneous) while the
//!   slab still walks `x` and `y` roughly in row order; a whole-bin sort
//!   turns each length class into its own sweep over both vectors. Its
//!   lanes hold every entry ([`Entries::All`]), or for a SymGS sweep's
//!   residual every strictly upper one ([`Entries::StrictUpper`]).
//! * A triangular solve plan (`spmv_autotune::solve`) cuts its chunks at
//!   level boundaries, 1, 2, 4 or 8 lanes each; its lanes hold each
//!   row's off-diagonals, the diagonals kept apart
//!   ([`Entries::OffDiagonal`]), or for a SymGS sweep's halves the
//!   entries of one triangle of the general matrix ([`Entries::Lower`],
//!   [`Entries::Upper`]).
//!
//! A slab's kind ([`Entries`]) routes each entry of a row by its column:
//! to the lane, to the position's diagonal, or nowhere. So the three
//! slabs of a SymGS sweep fill and refresh straight from the general
//! matrix's rows, with no triangular copy in between.
//!
//! **One column width per slab**, fixed by `n_cols`: `u16` when the
//! source matrix has at most [`NARROW_MAX_COLS`] columns, else `u32`
//! ([`Cols`]). The kernels are bandwidth-bound, so the narrow stream is
//! two bytes per slot they do not move. `col < n_cols` is asserted
//! whenever a column is written, which licenses the unchecked `v[col]`
//! gathers of the SpMV kernels.
//!
//! **One value slab**: columns, values and diagonals live under one
//! lock, keyed by [`CsrMatrix::values_id`], and a refresh walks each
//! position's CSR row, in storage order, into its lane's slots
//! ([`SellSlab::fresh`]). An SpMV bin's slab ([`Entries::All`])
//! re-reads its columns with the values, because an in-place mutation
//! such as [`CsrMatrix::sort_rows`] permutes the `(col, val)` pairs
//! *within* rows without touching `row_ptr`: stale columns would pair
//! with fresh values. Every other slab's columns are frozen at build, so
//! a refresh rewrites values and diagonals only: a solve slab's
//! race-freedom rests on the dependency order its prover established
//! over exactly those columns, and its unchecked path validates a call
//! in O(1); a SymGS sweep refuses, by an exact column check, any matrix
//! its slabs do not mirror.
//!
//! **One shape proof**: [`SlabRef::check_shape`] proves what every kernel
//! over a slab relies on, and [`SlabTamper`] builds the layouts it must
//! reject. Each owner proves its own premises on top:
//! [`PackedSell::check_against`] the bin's row set, sort windows and
//! columns, the solve prover the dependency order.
//!
//! Storage padding is bounded: [`PackedSell::padding_ratio`] reports
//! `slots / nnz`, and plan compilation falls back to the CSR row list
//! when the ratio exceeds its bound (one dense row among empties would
//! otherwise inflate the slab `C`-fold).

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use std::sync::{PoisonError, RwLock, RwLockReadGuard, RwLockWriteGuard};

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
pub trait SlabCol: Copy + Send + Sync {
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

/// A slab's column array at its one width: `u16` up to
/// [`NARROW_MAX_COLS`] matrix columns, else `u32`. Padding slots hold `0`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Cols {
    /// Two bytes per slot.
    Narrow(Vec<u16>),
    /// Four bytes per slot.
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

    /// `slots` zeroed columns at this array's width.
    pub fn zeroed_like(&self, slots: usize) -> Self {
        match self {
            Cols::Narrow(_) => Cols::Narrow(vec![0; slots]),
            Cols::Wide(_) => Cols::Wide(vec![0; slots]),
        }
    }

    /// Slots held.
    pub fn len(&self) -> usize {
        match self {
            Cols::Narrow(c) => c.len(),
            Cols::Wide(c) => c.len(),
        }
    }

    /// Whether no slot is held.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Bytes per column: 2 or 4.
    pub fn bytes(&self) -> usize {
        match self {
            Cols::Narrow(_) => 2,
            Cols::Wide(_) => 4,
        }
    }

    /// The column at `slot`. Panics if out of bounds.
    pub fn get(&self, slot: usize) -> u32 {
        match self {
            Cols::Narrow(c) => u32::from(c[slot]),
            Cols::Wide(c) => c[slot],
        }
    }

    /// Store `col` at `slot`, truncated to this array's width. Panics if
    /// out of bounds.
    pub fn set(&mut self, slot: usize, col: u32) {
        match self {
            Cols::Narrow(c) => c[slot] = col as u16,
            Cols::Wide(c) => c[slot] = col,
        }
    }
}

/// Which of its row's entries a lane holds, in storage order. The kinds
/// that keep the diagonal apart hold one per position, the last one, as
/// `sptrsv_seq` takes it. Columns are frozen at build for every kind but
/// [`All`](Self::All).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Entries {
    /// Every entry (SpMV); columns are re-read with the values at every
    /// refresh.
    All,
    /// Every entry but the diagonal, kept apart (a triangular system).
    OffDiagonal,
    /// The strictly lower entries, the diagonal kept apart and the
    /// strictly upper ones skipped: the forward half of a SymGS sweep,
    /// read straight from the general matrix.
    Lower,
    /// The strictly upper entries, the diagonal kept apart and the
    /// strictly lower ones skipped: the sweep's backward half.
    Upper,
    /// The strictly upper entries alone: the sweep's residual `U·x`.
    StrictUpper,
}

impl Entries {
    /// Whether entry `(i, c)` of row `i` belongs in its lane.
    pub(crate) fn in_lane(self, i: u32, c: u32) -> bool {
        match self {
            Entries::All => true,
            Entries::OffDiagonal => c != i,
            Entries::Lower => c < i,
            Entries::Upper | Entries::StrictUpper => c > i,
        }
    }

    /// Whether each position keeps its row's diagonal apart.
    pub(crate) fn keeps_diagonal(self) -> bool {
        matches!(self, Entries::OffDiagonal | Entries::Lower | Entries::Upper)
    }
}

/// The cached columns, values and diagonals (empty unless the entry kind
/// keeps them apart) and the value generation they mirror, under one lock so readers
/// always observe a coherent state.
#[derive(Clone)]
struct ValueSlab<T> {
    /// `CsrMatrix::values_id` of the matrix state mirrored; `0` while a
    /// walk is under way or after one panicked.
    source: u64,
    cols: Cols,
    vals: Vec<T>,
    diag: Vec<T>,
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

/// Rows ahead of a walk whose columns and values are hinted toward
/// cache; twice as far ahead, the row's `row_ptr` pair.
const ROW_AHEAD: usize = 8;

/// Hint the CPU toward the rows a walk over `a` in `order` visits next:
/// `row_ptr` of `order[q + 2 * ROW_AHEAD]`, and the columns and values of
/// `order[q + ROW_AHEAD]`. Level order scatters consecutive rows over the
/// matrix; without the hints a solve slab's gather, refresh and proof
/// walk stall on every row (about a third of the gather's time on a
/// 0.5M-row road network). Hints only: nothing is read.
#[inline(always)]
pub fn prefetch_rows_ahead<T: Scalar>(a: &CsrMatrix<T>, order: &[u32], q: usize) {
    let row_ptr = a.row_ptr();
    if let Some(&r) = order.get(q + 2 * ROW_AHEAD) {
        prefetch_read(row_ptr, r as usize);
    }
    if let Some(&r) = order.get(q + ROW_AHEAD) {
        if let Some(&start) = row_ptr.get(r as usize) {
            prefetch_read(a.col_idx(), start);
            prefetch_read(a.values(), start);
        }
    }
}

/// Every position of a chunked layout in order, as `(position, first
/// slot, stride)`: the position's `j`-th entry sits in slot `first + j *
/// stride` (the stride is its chunk's lane count). `chunk_ptr` must be
/// non-decreasing and `slot_ptr` at least as long.
fn lanes<'a>(
    chunk_ptr: &'a [usize],
    slot_ptr: &'a [usize],
) -> impl Iterator<Item = (usize, usize, usize)> + 'a {
    chunk_ptr.windows(2).zip(slot_ptr).flat_map(|(w, &s0)| {
        let n = w[1] - w[0];
        (0..n).map(move |l| (w[0] + l, s0 + l, n))
    })
}

/// Which property of a slab [`SlabRef::check_shape`] or
/// [`PackedSell::check_against`] found broken.
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
    /// A lane is longer than the row it mirrors, so it claims a padding
    /// slot as an entry.
    PaddingClaimed,
    /// A lane is longer than the lane before it in its chunk (or, in a
    /// packed bin, its sort window): the active lanes at a column are no
    /// longer a prefix.
    LanesOutOfOrder,
    /// Any other broken layout property: array lengths or chunk offsets
    /// that do not tile the positions and slots, chunks of the wrong
    /// height, or a lane shorter than its row.
    Layout,
    /// A slab column differs from the CSR column it mirrors, or falls
    /// outside `[0, n_cols)`.
    ColumnMismatch,
}

/// A slab defect: its kind, the first position it concerns (`0` for a
/// slab-wide one) and a description. It reads as its description
/// (`Deref<Target = str>`), so a report can print or search it like a
/// message.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SlabDefect {
    /// What broke.
    pub kind: DefectKind,
    /// Where: an index into the slab's positions.
    pub position: usize,
    /// Where and how, in words.
    pub detail: String,
}

/// `Err` with a [`SlabDefect`].
fn fail<R>(kind: DefectKind, position: usize, detail: impl Into<String>) -> Result<R, SlabDefect> {
    Err(SlabDefect {
        kind,
        position,
        detail: detail.into(),
    })
}

impl std::ops::Deref for SlabDefect {
    type Target = str;
    fn deref(&self) -> &str {
        &self.detail
    }
}

impl std::fmt::Display for SlabDefect {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(&self.detail)
    }
}

impl std::error::Error for SlabDefect {}

/// The unsound layouts the slab's owners must reject, each built from an
/// honest slab by [`apply`](Self::apply): a packed payload through
/// [`PackedSell::tampered`], a solve plan through its own tamper hook.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SlabTamper {
    /// Lengthen the first lane of the first chunk by one: it runs past
    /// the chunk's slots ([`DefectKind::LaneOverrun`]).
    LaneOverrun,
    /// Swap a lane, slots and all, behind a shorter lane of its chunk
    /// ([`DefectKind::LanesOutOfOrder`]).
    LanesOutOfOrder,
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
    pub const ALL: [Self; 4] = [
        Self::LaneOverrun,
        Self::LanesOutOfOrder,
        Self::PaddingClaimed,
        Self::WidthMismatch,
    ];

    /// The defect the slab's owners must report for this tamper.
    pub fn defect(self) -> DefectKind {
        match self {
            Self::LaneOverrun => DefectKind::LaneOverrun,
            Self::LanesOutOfOrder => DefectKind::LanesOutOfOrder,
            Self::PaddingClaimed => DefectKind::PaddingClaimed,
            Self::WidthMismatch => DefectKind::WidthMismatch,
        }
    }

    /// Break `slab` this way and return the position the rejection must
    /// name. `None`, with the slab left as it was, when it offers no site
    /// (no rows, or no chunk with a lane shorter than the one before it).
    pub fn apply<T: Scalar>(self, slab: &mut SellSlab<T>) -> Option<usize> {
        let ragged = slab
            .chunk_ptr
            .windows(2)
            .find_map(|w| (w[0] + 1..w[1]).find(|&q| slab.lens[q] < slab.lens[q - 1]));
        let data = slab.data.get_mut().unwrap_or_else(PoisonError::into_inner);
        match self {
            Self::LaneOverrun => {
                *slab.lens.first_mut()? += 1;
                Some(0)
            }
            Self::LanesOutOfOrder => {
                let q = ragged?;
                let k = slab.chunk_ptr.partition_point(|&p| p <= q) - 1;
                let (p0, lanes) = (slab.chunk_ptr[k], slab.chunk_ptr[k + 1] - slab.chunk_ptr[k]);
                for s in (slab.slot_ptr[k]..slab.slot_ptr[k + 1]).step_by(lanes) {
                    let (x, y) = (s + q - 1 - p0, s + q - p0);
                    let (cx, cy) = (data.cols.get(x), data.cols.get(y));
                    data.cols.set(x, cy);
                    data.cols.set(y, cx);
                    data.vals.swap(x, y);
                }
                slab.rows.swap(q - 1, q);
                slab.lens.swap(q - 1, q);
                if !data.diag.is_empty() {
                    data.diag.swap(q - 1, q);
                }
                Some(q)
            }
            Self::PaddingClaimed => {
                let q = ragged?;
                slab.lens[q] += 1;
                Some(q)
            }
            Self::WidthMismatch => {
                data.cols = match &data.cols {
                    Cols::Narrow(c) => Cols::Wide(c.iter().map(|&c| u32::from(c)).collect()),
                    Cols::Wide(c) => Cols::Narrow(c.iter().map(|&c| c as u16).collect()),
                };
                Some(0)
            }
        }
    }
}

/// Rows of a matrix laid out as SELL-C chunks of any heights, with one
/// column width and one value slab (see the module docs). Built once per
/// sparsity pattern by its owner — [`PackedSell`] or a solve plan — and
/// read through a [`SlabGuard`].
pub struct SellSlab<T: Scalar> {
    /// Column count of the source matrix: the bound every column written
    /// was checked against, and what fixes the column width.
    n_cols: usize,
    /// Row id at each position.
    rows: Vec<u32>,
    /// Lane length (entries held) at each position.
    lens: Vec<u32>,
    /// First position of each chunk, then the position count.
    chunk_ptr: Vec<usize>,
    /// First slot of each chunk, then the slot count.
    slot_ptr: Vec<usize>,
    /// Which entries the lanes hold.
    entries: Entries,
    data: RwLock<ValueSlab<T>>,
}

impl<T: Scalar> SellSlab<T> {
    /// Lay `rows` of `a` out with `lens[p]` entries of `entries`' kind
    /// at position `p`, chunk `k` running positions `chunk_ptr[k]..
    /// chunk_ptr[k + 1]` (so `chunk_ptr` starts at 0 and ends at
    /// `rows.len()`), and gather columns, values and diagonals from `a`.
    /// Each chunk takes as many slots per lane as its first lane's length:
    /// the caller sorts each chunk's lanes longest first.
    ///
    /// # Panics
    ///
    /// Panics if `lens` or `chunk_ptr` does not fit `rows`, a row id is
    /// out of bounds, or a gathered column is not below `a.n_cols()`.
    pub fn build(
        a: &CsrMatrix<T>,
        rows: Vec<u32>,
        lens: Vec<u32>,
        chunk_ptr: Vec<usize>,
        entries: Entries,
    ) -> Self {
        assert_eq!(lens.len(), rows.len(), "one lane length per row");
        assert_eq!(chunk_ptr.last(), Some(&rows.len()), "chunks tile the rows");
        let mut slot_ptr = Vec::with_capacity(chunk_ptr.len());
        slot_ptr.push(0);
        for w in chunk_ptr.windows(2) {
            let slots = slot_ptr[slot_ptr.len() - 1];
            slot_ptr.push(slots + lens[w[0]] as usize * (w[1] - w[0]));
        }
        let slots = slot_ptr[slot_ptr.len() - 1];
        let diag = if entries.keeps_diagonal() {
            vec![T::ONE; rows.len()]
        } else {
            Vec::new()
        };
        let slab = Self {
            n_cols: a.n_cols(),
            rows,
            lens,
            chunk_ptr,
            slot_ptr,
            entries,
            data: RwLock::new(ValueSlab {
                source: 0,
                cols: Cols::zeroed(a.n_cols(), slots),
                vals: vec![T::ZERO; slots],
                diag,
            }),
        };
        {
            let mut data = slab.data.write().unwrap_or_else(PoisonError::into_inner);
            slab.refill(&mut data, a, true);
            data.source = a.values_id();
        }
        slab
    }

    /// Row id at each position.
    pub fn rows(&self) -> &[u32] {
        &self.rows
    }

    /// Lane length (entries held) at each position.
    pub fn lens(&self) -> &[u32] {
        &self.lens
    }

    /// Which entries the lanes hold.
    pub fn entries(&self) -> Entries {
        self.entries
    }

    /// First position of each chunk, then the position count.
    pub fn chunk_ptr(&self) -> &[usize] {
        &self.chunk_ptr
    }

    /// Number of chunks.
    pub fn n_chunks(&self) -> usize {
        self.chunk_ptr.len() - 1
    }

    /// Storage slots, padding included.
    pub fn slots(&self) -> usize {
        self.slot_ptr[self.n_chunks()]
    }

    /// Entries held (excluding padding and diagonals).
    pub fn nnz(&self) -> usize {
        self.lens.iter().map(|&l| l as usize).sum()
    }

    /// Bytes per slab column: 2 when the source matrix has at most
    /// [`NARROW_MAX_COLS`] columns, else 4.
    pub fn col_bytes(&self) -> usize {
        self.read().lock().cols.bytes()
    }

    /// The slab as it stands, held under its read lock. A refresh that
    /// panicked (its column bound check) poisons the lock but leaves the
    /// slab tagged stale with in-bounds columns, so the guard is
    /// recovered: the next [`fresh`](Self::fresh) re-gathers.
    pub fn read(&self) -> SlabGuard<'_, T> {
        SlabGuard {
            slab: self,
            lock: Lock::Read(self.data.read().unwrap_or_else(PoisonError::into_inner)),
        }
    }

    /// The slab brought up to date with `a` and held. O(1) when
    /// [`CsrMatrix::values_id`] matches the slab's source. Otherwise one
    /// walk, under the write lock the guard then keeps, copies each
    /// position's CSR entries, in storage order, into its lane's slots
    /// (see the module docs). Callers hand the pattern the slab was built
    /// from; a row longer than its lane has its surplus entries dropped.
    ///
    /// # Panics
    ///
    /// Panics if a re-read column is out of bounds — the per-refresh
    /// proof that licenses the unchecked `v[col]` gathers of SpMV.
    pub fn fresh(&self, a: &CsrMatrix<T>) -> SlabGuard<'_, T> {
        let want = a.values_id();
        let guard = self.read();
        if guard.lock().source == want {
            return guard;
        }
        drop(guard);
        let mut data = self.data.write().unwrap_or_else(PoisonError::into_inner);
        if data.source != want {
            // Stale until the walk completes, should it panic midway
            // (every column it did write passed the bound check first).
            data.source = 0;
            self.refill(&mut data, a, false);
            data.source = want;
        }
        SlabGuard {
            slab: self,
            lock: Lock::Write(data),
        }
    }

    /// The gather walk of [`build`](Self::build) (`build`, columns
    /// written whatever the entry kind) and [`fresh`](Self::fresh).
    fn refill(&self, data: &mut ValueSlab<T>, a: &CsrMatrix<T>, build: bool) {
        let ValueSlab {
            cols, vals, diag, ..
        } = data;
        let with_cols = build || self.entries == Entries::All;
        match cols {
            Cols::Narrow(cols) => self.walk(cols, vals, diag, a, with_cols),
            Cols::Wide(cols) => self.walk(cols, vals, diag, a, with_cols),
        }
    }

    /// [`refill`](Self::refill) at one column width.
    fn walk<C: SlabCol>(
        &self,
        cols: &mut [C],
        vals: &mut [T],
        diag: &mut [T],
        a: &CsrMatrix<T>,
        with_cols: bool,
    ) {
        let apart = self.entries.keeps_diagonal();
        for (q, first, stride) in lanes(&self.chunk_ptr, &self.slot_ptr) {
            prefetch_rows_ahead(a, &self.rows, q);
            let i = self.rows[q];
            let (rc, rv) = a.row(i as usize);
            let mut slots = (0..self.lens[q] as usize).map(|j| first + j * stride);
            for (&c, &v) in rc.iter().zip(rv) {
                if self.entries.in_lane(i, c) {
                    let Some(slot) = slots.next() else { continue };
                    if with_cols {
                        // The gather bound proof; it also makes the
                        // narrowing exact: `n_cols` chose the width, so
                        // every column below it fits.
                        assert!((c as usize) < self.n_cols, "CSR column {c} out of bounds");
                        cols[slot] = C::from_col(c);
                    }
                    vals[slot] = v;
                } else if apart && c == i {
                    diag[q] = v;
                }
            }
        }
    }

    /// The rows back in CSR form, in row order: each row its lane's
    /// entries in storage order, then its diagonal when `with_diag` and
    /// the slab keeps one apart. For a slab holding every row of a
    /// square matrix once (a solve's). The matrix is tagged with the
    /// value generation the slab mirrors, so handing it back to this slab
    /// refreshes nothing.
    ///
    /// # Panics
    ///
    /// Panics if the positions are not a permutation of the rows.
    pub(crate) fn to_csr(&self, with_diag: bool) -> CsrMatrix<T> {
        let guard = self.read();
        let d = guard.lock();
        let m = self.rows.len();
        assert_eq!(m, self.n_cols, "a square matrix's rows, each once");
        let diag = usize::from(with_diag && self.entries.keeps_diagonal());
        let mut row_ptr = vec![0usize; m + 1];
        for (&r, &len) in self.rows.iter().zip(&self.lens) {
            row_ptr[r as usize + 1] = len as usize + diag;
        }
        for i in 0..m {
            row_ptr[i + 1] += row_ptr[i];
        }
        let (mut cols, mut vals) = (vec![0; row_ptr[m]], vec![T::ZERO; row_ptr[m]]);
        for (q, first, stride) in lanes(&self.chunk_ptr, &self.slot_ptr) {
            let mut k = row_ptr[self.rows[q] as usize];
            for s in (0..self.lens[q] as usize).map(|j| first + j * stride) {
                (cols[k], vals[k]) = (d.cols.get(s), d.vals[s]);
                k += 1;
            }
            if diag == 1 {
                (cols[k], vals[k]) = (self.rows[q], d.diag[q]);
            }
        }
        let csr = CsrMatrix::from_parts_unchecked(m, m, row_ptr, cols, vals);
        match d.source {
            0 => csr,
            source => csr.with_values_id(source),
        }
    }
}

impl<T: Scalar> Clone for SellSlab<T> {
    fn clone(&self) -> Self {
        Self {
            rows: self.rows.clone(),
            lens: self.lens.clone(),
            chunk_ptr: self.chunk_ptr.clone(),
            slot_ptr: self.slot_ptr.clone(),
            data: RwLock::new(self.read().lock().clone()),
            ..*self
        }
    }
}

/// A slab's value lock, held: read, or the write lock a refresh took.
enum Lock<'a, T> {
    Read(RwLockReadGuard<'a, ValueSlab<T>>),
    Write(RwLockWriteGuard<'a, ValueSlab<T>>),
}

/// A [`SellSlab`] held for reading: its structure and one coherent value
/// state, viewed through [`view`](Self::view).
pub struct SlabGuard<'a, T: Scalar> {
    slab: &'a SellSlab<T>,
    lock: Lock<'a, T>,
}

impl<T: Scalar> SlabGuard<'_, T> {
    fn lock(&self) -> &ValueSlab<T> {
        match &self.lock {
            Lock::Read(g) => g,
            Lock::Write(g) => g,
        }
    }

    /// The first position whose lane does not hold its CSR row's
    /// entries of the slab's kind ([`Entries`]) by column, in storage
    /// order, each below `n_cols`, the row keeping a diagonal when the
    /// slab keeps one apart. O(slots).
    pub fn first_mismatch(&self, a: &CsrMatrix<T>) -> Option<usize> {
        match &self.lock().cols {
            Cols::Narrow(cols) => self.mismatch_in(cols, a),
            Cols::Wide(cols) => self.mismatch_in(cols, a),
        }
    }

    /// [`first_mismatch`](Self::first_mismatch) at one column width: one
    /// pass over each row.
    fn mismatch_in<C: SlabCol>(&self, cols: &[C], a: &CsrMatrix<T>) -> Option<usize> {
        let s = self.slab;
        lanes(&s.chunk_ptr, &s.slot_ptr).position(|(q, first, stride)| {
            prefetch_rows_ahead(a, &s.rows, q);
            let (i, len) = (s.rows[q], s.lens[q] as usize);
            let (mut j, mut diag) = (0, false);
            for &c in a.row(i as usize).0 {
                if c as usize >= s.n_cols {
                    return true;
                }
                if s.entries.in_lane(i, c) {
                    if j == len || cols[first + j * stride].idx() != c as usize {
                        return true;
                    }
                    j += 1;
                } else {
                    diag |= c == i;
                }
            }
            j != len || (s.entries.keeps_diagonal() && !diag)
        })
    }

    /// The held slab, borrowed whole.
    pub fn view(&self) -> SlabRef<'_, T> {
        let (s, d) = (self.slab, self.lock());
        SlabRef {
            n_cols: s.n_cols,
            rows: &s.rows,
            lens: &s.lens,
            chunk_ptr: &s.chunk_ptr,
            slot_ptr: &s.slot_ptr,
            cols: &d.cols,
            vals: &d.vals,
            diag: &d.diag,
        }
    }
}

/// A slab borrowed whole — from a [`SlabGuard`], or from a copy of a
/// slab's arrays a prover is asked about (see the module docs); `diag`
/// is empty unless the lanes hold off-diagonals.
#[derive(Clone, Copy, Debug)]
pub struct SlabRef<'a, T> {
    /// The column bound, which also fixes the width `cols` must have.
    pub n_cols: usize,
    /// Row id at each position.
    pub rows: &'a [u32],
    /// Lane length at each position.
    pub lens: &'a [u32],
    /// First position of each chunk, then the position count.
    pub chunk_ptr: &'a [usize],
    /// First slot of each chunk, then the slot count.
    pub slot_ptr: &'a [usize],
    /// One column per slot.
    pub cols: &'a Cols,
    /// One value per slot.
    pub vals: &'a [T],
    /// Diagonal value at each position.
    pub diag: &'a [T],
}

impl<'a, T: Scalar> SlabRef<'a, T> {
    /// The chunk shape every kernel over a slab relies on, proven from
    /// the arrays alone: the column width is the one `n_cols` selects;
    /// the chunks tile the positions in order, each with at least one
    /// lane; no lane is longer than its chunk's slots allow; lane lengths
    /// do not increase within a chunk (so the active lanes at a column
    /// are a prefix); and each chunk's slots, its first lane's length
    /// times its lane count, tile the column and value arrays. Returns
    /// the first defect. O(positions + chunks).
    pub fn check_shape(&self) -> Result<(), SlabDefect> {
        use DefectKind::*;
        let n = self.rows.len();
        let bytes = self.cols.bytes();
        if (bytes == 2) != (self.n_cols <= NARROW_MAX_COLS) {
            let detail = format!("{bytes}-byte slab columns for n_cols {}", self.n_cols);
            return fail(WidthMismatch, 0, detail);
        }
        if self.lens.len() != n
            || self.chunk_ptr.first() != Some(&0)
            || self.chunk_ptr.last() != Some(&n)
            || self.slot_ptr.len() != self.chunk_ptr.len()
            || self.slot_ptr[0] != 0
            || self.slot_ptr.last() != Some(&self.cols.len())
            || self.vals.len() != self.cols.len()
        {
            let what = "lane lengths, chunk or slot bounds, or entry arrays";
            let detail = format!("the {what} do not fit {n} positions");
            return fail(Layout, self.lens.len().min(n), detail);
        }
        for (k, (c, s)) in self
            .chunk_ptr
            .windows(2)
            .zip(self.slot_ptr.windows(2))
            .enumerate()
        {
            let p0 = c[0];
            if c[1] <= p0 || c[1] > n {
                let detail = format!("chunk {k} spans positions {p0}..{} of 0..{n}", c[1]);
                return fail(Layout, p0.min(n), detail);
            }
            let lanes = c[1] - p0;
            let Some(span) = s[1].checked_sub(s[0]) else {
                return fail(Layout, p0, format!("chunk {k}: slot offsets decrease"));
            };
            let lens = &self.lens[p0..c[1]];
            for (l, &len) in lens.iter().enumerate() {
                if len as usize * lanes > span {
                    let width = span / lanes;
                    let detail = format!("chunk {k} lane {l}: length {len} runs past {width}");
                    return fail(LaneOverrun, p0 + l, detail);
                }
                if l > 0 && len > lens[l - 1] {
                    let detail = format!("chunk {k}: lane {l} is longer than the lane before");
                    return fail(LanesOutOfOrder, p0 + l, detail);
                }
            }
            if span != lens[0] as usize * lanes {
                let detail = format!("chunk {k}: {span} slots, not first lane × {lanes} lanes");
                return fail(Layout, p0, detail);
            }
        }
        Ok(())
    }

    /// Position `p`'s `(column, value)` pairs as its lane's slots hold
    /// them. Panics if `p` or the slots it names are out of bounds.
    pub fn entries(self, p: usize) -> impl Iterator<Item = (u32, T)> + 'a {
        let k = self.chunk_ptr.partition_point(|&q| q <= p) - 1;
        let stride = self.chunk_ptr[k + 1] - self.chunk_ptr[k];
        let first = self.slot_ptr[k] + p - self.chunk_ptr[k];
        (0..self.lens[p] as usize)
            .map(move |j| first + j * stride)
            .map(move |s| (self.cols.get(s), self.vals[s]))
    }
}

/// A borrowed, coherent view of a [`PackedSell`] slab — obtained only
/// through [`PackedSell::with_slab`], never constructed by callers. The
/// kernels gather `v[col]` without per-element bound checks, so the
/// column stream must be the validated slab contents; keeping the field
/// private makes that unforgeable from safe code.
#[derive(Clone, Copy)]
pub struct SlabView<'a, T>(SlabRef<'a, T>);

/// A row subset packed into length-sorted, column-major chunks of `C`
/// lanes (SELL-C-σ with σ = [`SORT_WINDOW_CHUNKS`]` · C`): a
/// [`SellSlab`] whose lanes hold every entry (see the module docs).
/// Built once per sparsity pattern by plan compilation; executes many
/// times.
#[derive(Clone)]
pub struct PackedSell<T: Scalar> {
    /// Lanes per chunk (`C`).
    chunk: usize,
    slab: SellSlab<T>,
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
        Self::from_rows_of(a, rows, chunk, Entries::All)
    }

    /// [`from_rows`](Self::from_rows) with lanes holding only the
    /// `entries` of each row, lengths and minimum columns counted over
    /// those: [`Entries::All`] for an SpMV bin, [`Entries::StrictUpper`]
    /// for the residual `U·x` of a SymGS sweep.
    ///
    /// # Panics
    ///
    /// As [`from_rows`](Self::from_rows), and if `entries` keeps
    /// diagonals apart, which no SpMV walk reads.
    pub fn from_rows_of(a: &CsrMatrix<T>, rows: &[u32], chunk: usize, entries: Entries) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(!entries.keeps_diagonal(), "an SpMV slab holds no diagonals");
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
                let lane = a
                    .row(r as usize)
                    .0
                    .iter()
                    .filter(|&&c| entries.in_lane(r, c));
                let (len, min_col) = lane.fold((0u32, u32::MAX), |(n, m), &c| (n + 1, m.min(c)));
                // `!len` in the high word puts longer rows first; row
                // lengths fit u32 (asserted above).
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
        let n = order.len();
        let chunk_ptr = (0..n).step_by(chunk).chain([n]).collect();
        Self {
            chunk,
            slab: SellSlab::build(a, order, lens, chunk_ptr, entries),
        }
    }

    /// Lanes per chunk (`C`).
    pub fn chunk(&self) -> usize {
        self.chunk
    }

    /// Storage blow-up of the packed layout: `slots / nnz` (`1.0` when
    /// the subset is all padding-free or empty). Plan compilation gates
    /// SELL selection on this bound.
    pub fn padding_ratio(&self) -> f64 {
        match self.nnz() {
            0 => 1.0,
            nnz => self.slots() as f64 / nnz as f64,
        }
    }

    /// Non-zeros stored in chunk `c` (excluding padding) — the work
    /// estimate tile generation balances on.
    pub fn chunk_nnz(&self, c: usize) -> usize {
        let lanes = self.slab.chunk_ptr[c]..self.slab.chunk_ptr[c + 1];
        self.slab.lens[lanes].iter().map(|&l| l as usize).sum()
    }

    /// Bytes of the column-index stream the kernels traverse: one column
    /// of [`SellSlab::col_bytes`] per slot, padding included.
    pub fn index_stream_bytes(&self) -> usize {
        self.slots() * self.col_bytes()
    }

    /// Bring the cached slab up to date with `a` ([`SellSlab::fresh`]):
    /// columns and values are re-read together, which keeps the slab
    /// correct across in-place mutations like [`CsrMatrix::sort_rows`].
    ///
    /// # Panics
    ///
    /// Panics if a refreshed column index is out of bounds.
    pub fn ensure_values(&self, a: &CsrMatrix<T>) {
        drop(self.slab.fresh(a));
    }

    /// Run `f` against the current slab under the read lock. The lock is
    /// uncontended in the steady state (refreshes happen before workers
    /// launch), so this costs one atomic acquire per call — take it once
    /// per tile, not per chunk.
    pub fn with_slab<R>(&self, f: impl FnOnce(SlabView<'_, T>) -> R) -> R {
        let guard = self.slab.read();
        f(SlabView(guard.view()))
    }

    /// A copy of this payload with its slab broken by `tamper`, or `None`
    /// when the slab offers no site for it.
    pub fn tampered(&self, tamper: SlabTamper) -> Option<Self> {
        let mut bad = self.clone();
        tamper.apply(&mut bad.slab)?;
        Some(bad)
    }

    /// Sequential SpMV over the whole packed subset into `u` (only the
    /// packed rows are written). Refreshes the value slab from `a` first.
    /// Reference/diagnostic path; the parallel tiled path lives in the
    /// execution layer.
    pub fn spmv_into(&self, a: &CsrMatrix<T>, v: &[T], u: &mut [T]) {
        self.ensure_values(a);
        self.with_slab(|slab| {
            slab.spmm_chunks::<1, _>(0, self.n_chunks(), v, 1, 0, |r, [s]| u[r] = s);
        });
    }

    /// Re-derive the packed layout from `a` and `expected_rows` and prove
    /// this payload matches it exactly, in this order:
    ///
    /// 1. the column count equals `a`'s, and the slab has the shared
    ///    chunk shape ([`SlabRef::check_shape`]: the column width `n_cols`
    ///    selects, chunks tiling positions and slots, no lane past its
    ///    chunk, lane lengths non-increasing within a chunk), in chunks
    ///    of exactly `C` lanes but the last;
    /// 2. the same row set (each row once, in bounds), every packed row
    ///    in the sort window of `expected_rows` it was listed in;
    /// 3. lane lengths equal to the number of the CSR row's entries of
    ///    the slab's kind ([`Entries`]; a longer lane would read padding
    ///    as an entry) and non-increasing within each window;
    /// 4. every lane's slots holding the columns of those entries in
    ///    storage order, each `< n_cols` ([`SlabGuard::first_mismatch`]).
    ///
    /// The slab is refreshed from `a` before step 4, so the proof covers
    /// the state execution will read. Returns the first defect.
    /// O(slots + |rows| + m).
    pub fn check_against(&self, a: &CsrMatrix<T>, expected_rows: &[u32]) -> Result<(), SlabDefect> {
        use DefectKind::*;
        let s = &self.slab;
        if s.n_cols != a.n_cols() {
            let (got, want) = (s.n_cols, a.n_cols());
            let detail = format!("packed n_cols {got} != matrix n_cols {want} (bound proof void)");
            return fail(WidthMismatch, 0, detail);
        }
        s.read().view().check_shape()?;
        let n = s.rows.len();
        if s.n_chunks() != n.div_ceil(self.chunk)
            || (0..s.n_chunks()).any(|c| s.chunk_ptr[c] != c * self.chunk)
        {
            return fail(
                Layout,
                0,
                format!("chunks are not {} lanes high", self.chunk),
            );
        }
        if n != expected_rows.len() {
            let detail = format!(
                "packed row count {n} != bin row count {}",
                expected_rows.len()
            );
            return fail(RowSet, 0, detail);
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
                None => return fail(RowSet, 0, format!("bin row {r} out of bounds (m = {m})")),
                Some(t) if *t != UNTAGGED => {
                    return fail(RowSet, 0, format!("bin lists row {r} twice"))
                }
                Some(t) => *t = (pos / window) as u32,
            }
        }
        for (pos, &r) in s.rows.iter().enumerate() {
            match tag.get_mut(r as usize) {
                None => return fail(RowSet, pos, format!("packed row {r} out of bounds")),
                Some(t) if *t == UNTAGGED => {
                    return fail(RowSet, pos, "packed rows are not the bin's row set")
                }
                Some(t) if *t as usize != pos / window => {
                    let detail = format!("packed row {r} at index {pos} left its sort window {t}");
                    return fail(RowSet, pos, detail);
                }
                Some(t) => *t = UNTAGGED,
            }
        }
        for (i, (&r, &len)) in s.rows.iter().zip(&s.lens).enumerate() {
            let csr = match s.entries {
                Entries::All => a.row_nnz(r as usize),
                kind => a
                    .row(r as usize)
                    .0
                    .iter()
                    .filter(|&&c| kind.in_lane(r, c))
                    .count(),
            };
            if len as usize != csr {
                let (kind, what) = if len as usize > csr {
                    (PaddingClaimed, "claims a padding slot")
                } else {
                    (Layout, "drops entries")
                };
                let detail = format!("packed row {r}: cached len {len} != CSR len {csr} ({what})");
                return fail(kind, i, detail);
            }
            if (i + 1) % window != 0 && i + 1 < n && s.lens[i + 1] > len {
                let detail = format!("packed rows not length-sorted in their window at index {i}");
                return fail(LanesOutOfOrder, i + 1, detail);
            }
        }
        match s.fresh(a).first_mismatch(a) {
            None => Ok(()),
            Some(q) => fail(
                ColumnMismatch,
                q,
                format!(
                    "position {q}: slab columns != its CSR row's (n_cols {})",
                    s.n_cols
                ),
            ),
        }
    }
}

/// Where the walk reads its right-hand sides: input row `c` is
/// `x[c * stride + col0..][..KB]`.
#[derive(Clone, Copy)]
struct Rhs<'a, T, const KB: usize> {
    x: &'a [T],
    stride: usize,
    col0: usize,
}

impl<T: Scalar, const KB: usize> Rhs<'_, T, KB> {
    /// Input row `col`.
    ///
    /// # Safety
    ///
    /// `col < n_cols` of the slab whose [`SlabView::spmm_chunks`] bound
    /// check passed on this block: then `col * stride + col0 + KB <=
    /// x.len()`.
    #[inline(always)]
    unsafe fn row(&self, col: usize) -> [T; KB] {
        let base = col * self.stride + self.col0;
        // SAFETY: in bounds by the caller's contract above.
        std::array::from_fn(|kk| unsafe { *self.x.get_unchecked(base + kk) })
    }
}

impl<T: Scalar> SlabRef<'_, T> {
    /// [`SlabView::spmm_chunks`] at one column width and block shape.
    /// Chunks of 8, 4 and 2 lanes run as one group with the lane loops
    /// unrolled; other heights in groups of up to 8 lanes counted at run
    /// time.
    fn walk<C: SlabCol, const KB: usize>(
        &self,
        cols: &[C],
        (c0, c1): (usize, usize),
        rhs: Rhs<'_, T, KB>,
        sink: &mut impl FnMut(usize, [T; KB]),
    ) {
        for c in c0..c1 {
            let span = self.slot_ptr[c]..self.slot_ptr[c + 1];
            let (cols, vals) = (&cols[span.clone()], &self.vals[span]);
            let (p0, lanes) = (self.chunk_ptr[c], self.chunk_ptr[c + 1] - self.chunk_ptr[c]);
            let slots = (cols, vals, lanes);
            match lanes {
                8 => self.group::<_, _, 8>(slots, (p0, 0, 8), rhs, sink),
                4 => self.group::<_, _, 4>(slots, (p0, 0, 4), rhs, sink),
                2 => self.group::<_, _, 2>(slots, (p0, 0, 2), rhs, sink),
                _ => {
                    for g0 in (0..lanes).step_by(8) {
                        let at = (p0, g0, (lanes - g0).min(8));
                        self.group::<_, _, 8>(slots, at, rhs, sink);
                    }
                }
            }
        }
    }

    /// Lanes `g0..g0 + n` (`n <= L`) of the chunk from position `p0`
    /// whose `stride` lanes hold slots `cols`/`vals`, advanced in
    /// lock-step one slot column at a time: the dense phase while all `n`
    /// are active, then the ragged tail over the active prefix. Each lane
    /// keeps one `KB`-wide row of sums, its own storage-order chain. A
    /// constant `n` unrolls the lane loops, so the `[[T; KB]; L]` sums
    /// live in registers.
    #[inline(always)]
    fn group<C: SlabCol, const KB: usize, const L: usize>(
        &self,
        (cols, vals, stride): (&[C], &[T], usize),
        (p0, g0, n): (usize, usize, usize),
        rhs: Rhs<'_, T, KB>,
        sink: &mut impl FnMut(usize, [T; KB]),
    ) {
        let lens = &self.lens[p0 + g0..p0 + g0 + n];
        let (width, min_len) = (lens[0] as usize, lens[n - 1] as usize);
        let slot_rows = |j0: usize, j1: usize| {
            let span = j0 * stride..j1 * stride;
            let rows = cols[span.clone()].chunks_exact(stride);
            rows.zip(vals[span].chunks_exact(stride))
        };
        let mut sums = [[T::ZERO; KB]; L];
        for (cw, vw) in slot_rows(0, min_len) {
            let (cw, vw) = (&cw[g0..g0 + n], &vw[g0..g0 + n]);
            for l in 0..n {
                // SAFETY: every lane is active in the dense phase, so
                // `cw[l]` is an entry: the slab's gather asserted its
                // column `< n_cols`, and `spmm_chunks` checked the block.
                let x = unsafe { rhs.row(cw[l].idx()) };
                for kk in 0..KB {
                    sums[l][kk] = vw[l].mul_add_(x[kk], sums[l][kk]);
                }
            }
        }
        // Lane lengths do not increase within a chunk, so the active
        // lanes at column `j` are the prefix with `len > j`; `j < width`
        // keeps lane 0 active.
        let mut active = n;
        for (j, (cw, vw)) in (min_len..).zip(slot_rows(min_len, width)) {
            while lens[active - 1] as usize <= j {
                active -= 1;
            }
            let (cw, vw) = (&cw[g0..g0 + n], &vw[g0..g0 + n]);
            // All `n` lanes, tested, rather than `0..active`: constant
            // lane indices keep the sums in registers.
            for l in (0..n).filter(|&l| l < active) {
                // SAFETY: lane `l < active` has `len > j`, so this slot
                // is an entry; same bound proof as the dense phase.
                let x = unsafe { rhs.row(cw[l].idx()) };
                for kk in 0..KB {
                    sums[l][kk] = vw[l].mul_add_(x[kk], sums[l][kk]);
                }
            }
        }
        for (l, &s) in sums[..n].iter().enumerate() {
            sink(self.rows[p0 + g0 + l] as usize, s);
        }
    }
}

impl<T: Scalar> SlabView<'_, T> {
    /// SpMV over chunks `[c0, c1)` against `KB` right-hand sides read
    /// from a row-major block: input row `c` is `x[c * x_stride + x_col0
    /// ..][..KB]` (SpMV is `KB = 1` over a stride-1 vector). Each row's
    /// slots are walked in ascending-`j` order, the CSR reference's
    /// per-row order, so every output column is bit-for-bit an
    /// independent single-vector SpMV; each matrix element is broadcast
    /// against its `KB` contiguous x-lanes, so matrix bytes stream once
    /// for `KB` outputs. A chunk's lanes advance in lock-step, one slot
    /// column at a time, up to 8 at once: lanes give the FMA units
    /// independent chains, so the walk is not bound by the latency of
    /// one row's chain. `sink` receives `(row, sums)`
    /// for every row, empty rows included (all `T::ZERO`).
    ///
    /// # Panics
    ///
    /// Panics if `KB == 0`, the block geometry is inconsistent
    /// (`x_col0 + KB > x_stride` while columns exist), or `x` is too
    /// short to hold row `n_cols - 1` — the single up-front bound check
    /// that, together with the gather-time column bound, licenses the
    /// unchecked x-gathers below.
    pub fn spmm_chunks<const KB: usize, S: FnMut(usize, [T; KB])>(
        self,
        c0: usize,
        c1: usize,
        x: &[T],
        x_stride: usize,
        x_col0: usize,
        mut sink: S,
    ) {
        let s = self.0;
        assert!(KB > 0, "RHS block width must be positive");
        if s.n_cols > 0 {
            assert!(
                x_col0 + KB <= x_stride,
                "RHS block {x_col0}..{} overruns the row stride {x_stride}",
                x_col0 + KB
            );
            assert!(
                (s.n_cols - 1) * x_stride + x_col0 + KB <= x.len(),
                "input block shorter than the matrix column count"
            );
        }
        let rhs = Rhs::<T, KB> {
            x,
            stride: x_stride,
            col0: x_col0,
        };
        let (range, sink) = ((c0, c1), &mut sink);
        match s.cols {
            Cols::Narrow(cols) => s.walk(cols, range, rhs, sink),
            Cols::Wide(cols) => s.walk(cols, range, rhs, sink),
        }
    }
}

/// A packed payload reads as its slab: rows in packed order (each window
/// of [`SORT_WINDOW_CHUNKS`]` · C` positions sorted by length descending,
/// then minimum column), chunks, slots, non-zeros and column width.
impl<T: Scalar> std::ops::Deref for PackedSell<T> {
    type Target = SellSlab<T>;
    fn deref(&self) -> &SellSlab<T> {
        &self.slab
    }
}

impl<T: Scalar> std::fmt::Debug for PackedSell<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("PackedSell")
            .field("chunk", &self.chunk)
            .field("rows", &self.rows().len())
            .field("chunks", &self.n_chunks())
            .field("nnz", &self.nnz())
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
        let mut slab = p.slab.data.write().unwrap_or_else(PoisonError::into_inner);
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
        tampered.slab.rows[1] = tampered.slab.rows[0];
        assert!(tampered.check_against(&a, &rows).is_err());
        assert!(PackedSell::from_rows(&a, &dup, 8)
            .check_against(&a, &rows)
            .is_err());
        let mut tampered = p.clone();
        tampered.slab.rows[5] = 40;
        assert!(tampered.check_against(&a, &rows).is_err());
        // Same length, different set.
        let subset: Vec<u32> = (0..20).collect();
        let q = PackedSell::from_rows(&a, &subset, 8);
        q.check_against(&a, &subset).unwrap();
        let shifted: Vec<u32> = (1..21).collect();
        assert!(q.check_against(&a, &shifted).is_err());
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
    /// unsorted entries (every 23rd row 40 more) spread over the whole
    /// column range, with the last column present: the width boundary's
    /// worst case.
    fn spread<T: Scalar>(m: usize, n_cols: usize, seed: u64) -> CsrMatrix<T> {
        let mut row_ptr = vec![0usize];
        let mut cols = Vec::new();
        let mut s = seed;
        for r in 0..m {
            let len = 1 + (r * 7 + seed as usize) % 9 + if r % 23 == 0 { 40 } else { 0 };
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
        let vals: Vec<T> = (0..cols.len())
            .map(|k| T::from_f64((k % 13) as f64 * 0.5 - 3.0))
            .collect();
        CsrMatrix::from_parts(m, n_cols, row_ptr, cols, vals).unwrap()
    }

    /// Every output column of `spmm_chunks::<KB>` over the whole payload
    /// against CSR `spmv_seq` on that column, bit for bit (`-0.0` apart
    /// from `0.0`), from a whole-width block (`x_stride == KB`) and from
    /// `KB` columns inside a stride of `KB + 3`. Outputs start as NaN, so
    /// a row the walk skips shows.
    fn spmm_matches_csr<T: Scalar, const KB: usize>(
        a: &CsrMatrix<T>,
        p: &PackedSell<T>,
        what: &str,
    ) {
        for (stride, col0) in [(KB, 0), (KB + 3, 1)] {
            let x: Vec<T> = (0..a.n_cols() * stride)
                .map(|i| T::from_f64(((i * 7) % 23) as f64 - 11.0))
                .collect();
            let mut y = vec![[T::from_f64(f64::NAN); KB]; a.n_rows()];
            p.with_slab(|slab| {
                slab.spmm_chunks::<KB, _>(0, p.n_chunks(), &x, stride, col0, |r, s| y[r] = s);
            });
            for kk in 0..KB {
                let v: Vec<T> = (0..a.n_cols()).map(|c| x[c * stride + col0 + kk]).collect();
                let want = a.spmv_seq_alloc(&v).unwrap();
                for (r, w) in want.iter().enumerate() {
                    assert_eq!(
                        y[r][kk].to_f64().to_bits(),
                        w.to_f64().to_bits(),
                        "{what} KB {KB} stride {stride}: row {r} column {kk} is {} not {w}",
                        y[r][kk]
                    );
                }
            }
        }
    }

    #[test]
    fn spmm_chunks_matches_per_column_spmv_bit_for_bit() {
        fn at<T: Scalar>(name: &str) {
            for n_cols in [NARROW_MAX_COLS, NARROW_MAX_COLS + 1] {
                let a = spread::<T>(301, n_cols, 13);
                let rows = all_rows(&a);
                // Heights 2, 4 and 8 run unrolled, the others at run
                // time (11 and 16 in two groups, 11 ending in a partial
                // one); 301 rows leave each a partial last chunk.
                for chunk in [2, 3, 4, 8, 11, 16] {
                    let p = PackedSell::from_rows(&a, &rows, chunk);
                    let what = format!("{name} n_cols {n_cols} chunk {chunk}");
                    // Every width the plan executor's `match kb` runs.
                    spmm_matches_csr::<T, 1>(&a, &p, &what);
                    spmm_matches_csr::<T, 2>(&a, &p, &what);
                    spmm_matches_csr::<T, 4>(&a, &p, &what);
                    spmm_matches_csr::<T, 8>(&a, &p, &what);
                }
            }
        }
        at::<f32>("f32");
        at::<f64>("f64");
    }

    #[test]
    fn column_width_follows_n_cols_and_stays_bitwise() {
        for (n_cols, bytes) in [(NARROW_MAX_COLS, 2), (NARROW_MAX_COLS + 1, 4)] {
            let a = spread::<f64>(300, n_cols, 3);
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
                    slab.spmm_chunks::<3, _>(0, p.n_chunks(), &x, 4, 1, |r, s| y[r] = s);
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
        let mut a = spread::<f64>(200, NARROW_MAX_COLS, 8);
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
            let a = spread::<f64>(120, n_cols, 5);
            let rows = all_rows(&a);
            let p = PackedSell::from_rows(&a, &rows, 4);
            p.check_against(&a, &rows).unwrap();
            for tamper in SlabTamper::ALL {
                let bad = p.tampered(tamper).expect("the payload has a site");
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
        assert!(q.tampered(SlabTamper::PaddingClaimed).is_none());
    }
}
