//! SELL-C-σ-style packed storage for a row *subset*.
//!
//! The auto-tuner's binning groups rows of similar workload precisely so each
//! bin can run a kernel shaped for its workload — but a bin stored as a
//! CSR row list still pays one `row_ptr` lookup, one loop setup, and an
//! irregular short inner loop per row. [`PackedSell`] removes that
//! overhead for the low/mid-NNZ bins where it dominates:
//!
//! * the bin's rows are sorted by NNZ descending — the "σ" sort — but
//!   only within *windows* of [`SORT_WINDOW_CHUNKS`] chunks (`32·C`
//!   consecutive positions of the bin's row list), with equal-length
//!   rows ordered by minimum column: structurally similar rows land in
//!   the same chunk, which is what the per-column base anchors below
//!   monetise. Bounding σ keeps most of the padding benefit (bins are
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
//! SpMV is bandwidth-bound, and after the compute side is vectorised the
//! column-index stream is the next biggest payload: a full `u32` per
//! non-zero. The slab therefore stores **delta-compressed** column
//! indices, and every chunk prices two anchor layouts at pack time and
//! keeps the cheaper one ([`BaseMode`]):
//!
//! * **chunk anchors** — one `u32` base (the chunk's minimum column),
//!   deltas covering the chunk's column span;
//! * **column anchors** — one `u32` base per dense column position (the
//!   minimum over the active lanes there), deltas covering only the
//!   *lane spread* at each position. A row may range across the whole
//!   matrix and still take 1-byte deltas, as long as its chunk-mates
//!   track it — the inter-row locality the length sort's minimum-column
//!   tie-break deliberately concentrates.
//!
//! Deltas are stored in the narrowest of `u8`/`u16`/`u32` lanes that
//! fits the chosen anchor's worst delta ([`IndexKind`]), **per chunk**:
//! the pools for the three widths are separate vectors, so one
//! wide-span chunk no longer drags the whole bin to 4-byte lanes. The
//! widths are proven feasible at pack time and **re-proven at every
//! slab refresh** (each gathered column must satisfy `base ≤ col`,
//! `col − base ≤ width` and `col < n_cols`), which is what keeps the
//! unchecked `v[col]` gathers licensed: the kernels decode
//! `base + delta` and that decode reconstructs exactly the proven
//! column. A chunk covers whole rows, so its column *sets* — hence its
//! anchors and spans — are invariant under supported in-place mutations
//! ([`CsrMatrix::sort_rows`], value updates); a mutation that moved a
//! column outside its pack-time window is caught by the refresh proof.
//! The dense phase also issues software prefetches for the gathered `x`
//! elements a few unroll windows ahead when `x` is too large for L1 —
//! the gather is the only irregular access left, so hiding its latency
//! is where the remaining memory time goes.
//!
//! Columns and values are cached in a slab keyed by
//! [`CsrMatrix::values_id`], so a compiled plan executes with zero
//! indirection in the steady state and transparently re-gathers the slab
//! after a value update. Columns travel with the values because an
//! in-place mutation such as [`CsrMatrix::sort_rows`] permutes the
//! `(col, val)` pairs *within* each row without touching `row_ptr`: the
//! positional `src` map stays valid, but both halves of each slot must
//! be re-read or the slab would pair stale columns with fresh values.
//!
//! Storage padding is bounded: [`PackedSell::padding_ratio`] reports
//! `slots / nnz`, and plan compilation falls back to the CSR row list
//! when the ratio exceeds its bound (one dense row among empties would
//! otherwise inflate the slab `C`-fold).

use crate::csr::CsrMatrix;
use crate::scalar::Scalar;
use std::sync::RwLock;

/// Chunks per row-sort window: [`PackedSell`] sorts the bin's row list
/// only within consecutive, chunk-aligned windows of
/// `SORT_WINDOW_CHUNKS · C` positions. In the perfbench window sweep
/// SpMM and SpMV gain about equally from 16 to 128 chunks; at 4 the
/// extra padding costs SpMV a third of its speed, and at 1024 the gain
/// on L2-resident bins is lost again (DESIGN §7).
pub const SORT_WINDOW_CHUNKS: usize = 32;

/// Sentinel in the `src` map marking a padding slot (never read by the
/// kernels; kept so [`refresh`](PackedSell::ensure_values) is branch-light
/// and [`check_against`](PackedSell::check_against) can prove slab shape).
pub const SRC_PAD: u32 = u32::MAX;

/// Lane width of the delta-compressed column-index stream.
///
/// Each chunk stores one `u32` base column; per-slot indices are deltas
/// from that base in this width. `U8`/`U16` cut the dominant index
/// payload 4×/2× for matrices whose chunks span few columns (banded,
/// block-local, low-bandwidth reorderings); `U32` is always feasible and
/// is the uncompressed fallback. Ordered by width so
/// [`IndexKind::narrowest_for`] and widening comparisons read naturally.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum IndexKind {
    /// 1-byte deltas: every chunk spans ≤ 255 columns.
    U8,
    /// 2-byte deltas: every chunk spans ≤ 65 535 columns.
    U16,
    /// 4-byte deltas (no compression); always feasible.
    U32,
}

impl IndexKind {
    /// Bytes per stored column index.
    pub fn bytes(self) -> usize {
        match self {
            IndexKind::U8 => 1,
            IndexKind::U16 => 2,
            IndexKind::U32 => 4,
        }
    }

    /// Largest delta this width can encode.
    pub fn max_delta(self) -> u32 {
        match self {
            IndexKind::U8 => u8::MAX as u32,
            IndexKind::U16 => u16::MAX as u32,
            IndexKind::U32 => u32::MAX,
        }
    }

    /// The narrowest width whose [`max_delta`](Self::max_delta) covers
    /// `span`.
    pub fn narrowest_for(span: u32) -> IndexKind {
        if span <= IndexKind::U8.max_delta() {
            IndexKind::U8
        } else if span <= IndexKind::U16.max_delta() {
            IndexKind::U16
        } else {
            IndexKind::U32
        }
    }
}

impl std::fmt::Display for IndexKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            IndexKind::U8 => "u8",
            IndexKind::U16 => "u16",
            IndexKind::U32 => "u32",
        })
    }
}

/// A storage lane type for the delta stream. Sealed inside this module:
/// the kernels are generic over the lane so each width gets its own
/// monomorphised loop, but no public API mentions the trait.
trait IndexLane: Copy + Send + Sync + 'static {
    /// The [`IndexKind`] this lane realises.
    const KIND: IndexKind;
    /// Widen a stored delta back to `u32`.
    fn widen(self) -> u32;
    /// Narrow a delta proven `≤ KIND.max_delta()`.
    fn narrow(delta: u32) -> Self;
}

impl IndexLane for u8 {
    const KIND: IndexKind = IndexKind::U8;
    #[inline(always)]
    fn widen(self) -> u32 {
        self as u32
    }
    #[inline(always)]
    fn narrow(delta: u32) -> Self {
        debug_assert!(delta <= Self::KIND.max_delta());
        delta as u8
    }
}

impl IndexLane for u16 {
    const KIND: IndexKind = IndexKind::U16;
    #[inline(always)]
    fn widen(self) -> u32 {
        self as u32
    }
    #[inline(always)]
    fn narrow(delta: u32) -> Self {
        debug_assert!(delta <= Self::KIND.max_delta());
        delta as u16
    }
}

impl IndexLane for u32 {
    const KIND: IndexKind = IndexKind::U32;
    #[inline(always)]
    fn widen(self) -> u32 {
        self
    }
    #[inline(always)]
    fn narrow(delta: u32) -> Self {
        delta
    }
}

/// How a chunk anchors its column deltas.
///
/// `Chunk` stores one base (the chunk's minimum column): one `u32` of
/// overhead, but the deltas must cover the chunk's full column *span*,
/// which is bounded below by each row's own span — a single long-range
/// row keeps every lane wide. `Column` stores one base per dense column
/// position (the minimum over the lanes active there): 4 bytes per
/// column of overhead, but the deltas cover only the *lane spread* at
/// each position, which is tiny whenever chunk-mates have similar
/// structure (banded neighbours, identical block rows, degree-sorted
/// mesh nodes) no matter how far each row itself ranges. Pack time
/// prices both per chunk and keeps the cheaper stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BaseMode {
    /// One base for the whole chunk.
    Chunk,
    /// One base per dense column position.
    Column,
}

impl std::fmt::Display for BaseMode {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            BaseMode::Chunk => "chunk",
            BaseMode::Column => "column",
        })
    }
}

/// A chunk's base table as the kernels read it: a constant (`Chunk`
/// mode — hoisted out of the column loop) or a per-column slice
/// (`Column` mode). Sealed like [`IndexLane`]; the kernels are generic
/// over it so each mode gets its own monomorphised loop with no
/// per-column branch.
trait BaseSrc: Copy {
    fn at(&self, j: usize) -> u32;
}

#[derive(Clone, Copy)]
struct ConstBase(u32);

impl BaseSrc for ConstBase {
    #[inline(always)]
    fn at(&self, _j: usize) -> u32 {
        self.0
    }
}

#[derive(Clone, Copy)]
struct SliceBase<'a>(&'a [u32]);

impl BaseSrc for SliceBase<'_> {
    #[inline(always)]
    fn at(&self, j: usize) -> u32 {
        self.0[j]
    }
}

/// The delta streams, one pool per lane width: each chunk's slots live
/// contiguously in the pool matching its realised [`IndexKind`], at the
/// offset recorded in the payload's `lane_off` table. Three typed
/// vectors — rather than one byte slab reinterpreted per chunk — keep
/// every access aligned and safe while letting neighbouring chunks
/// realise different widths.
#[derive(Clone)]
struct ColSlab {
    c8: Vec<u8>,
    c16: Vec<u16>,
    c32: Vec<u32>,
}

impl ColSlab {
    /// Pools sized by total slots per width, in [`IndexKind`] order.
    fn zeroed(tallies: [usize; 3]) -> Self {
        ColSlab {
            c8: vec![0; tallies[0]],
            c16: vec![0; tallies[1]],
            c32: vec![0; tallies[2]],
        }
    }

    /// Widened delta at `idx` of the `kind` pool (check/diagnostic path).
    fn delta_at(&self, kind: IndexKind, idx: usize) -> u32 {
        match kind {
            IndexKind::U8 => self.c8[idx] as u32,
            IndexKind::U16 => self.c16[idx] as u32,
            IndexKind::U32 => self.c32[idx],
        }
    }
}

/// The cached (columns, values) slab and the generation it mirrors.
/// Both halves live under one lock so readers always observe a coherent
/// pairing, even if a refresh races a concurrent execute.
struct ValueSlab<T> {
    /// `CsrMatrix::values_id` of the matrix state the slab mirrors.
    source: u64,
    /// Column deltas, column-major per chunk; padding slots hold `0`.
    /// Every non-padding entry's decoded column (`base + delta`) was
    /// asserted `< n_cols` when gathered, which is what licenses the
    /// unchecked `v[col]` gathers.
    cols: ColSlab,
    /// One entry per storage slot; padding slots hold `T::ZERO`.
    vals: Vec<T>,
}

/// A borrowed, coherent view of a [`PackedSell`] slab — obtained only
/// through [`PackedSell::with_slab`], never constructed by callers. The
/// kernels gather `v[col]` without per-element bound checks, so the
/// column streams must be the validated slab contents; keeping the
/// fields private makes that unforgeable from safe code.
#[derive(Clone, Copy)]
pub struct SlabView<'a, T> {
    c8: &'a [u8],
    c16: &'a [u16],
    c32: &'a [u32],
    vals: &'a [T],
}

/// Threshold on `n_cols · sizeof(T)` above which the dense phase issues
/// software prefetches for the gathered `x` elements: when `x` fits L1
/// the hint is pure overhead, beyond it the gather is the dominant
/// latency.
const PF_MIN_X_BYTES: usize = 32 * 1024;

/// How many dense unroll windows ahead the prefetch runs.
const PF_DIST: usize = 4;

/// Hint the CPU to pull `v[idx]` toward L1. Never reads memory.
#[inline(always)]
fn prefetch_read<T>(v: &[T], idx: usize) {
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

/// The realised encoding of one chunk: base mode, lane width, and the
/// base table (one entry in `Chunk` mode, `width` entries in `Column`
/// mode).
struct ChunkEncoding {
    mode: BaseMode,
    kind: IndexKind,
    bases: Vec<u32>,
}

/// Price both base modes for one chunk and keep the cheaper stream.
///
/// `Chunk` anchoring pays `slots × width(span)` delta bytes plus one
/// base; `Column` anchoring pays `slots × width(spread)` plus one base
/// per dense column, where `spread` is the worst lane spread at any
/// column position. The choice is deterministic (ties prefer `Chunk`,
/// whose base table is smaller and whose base load hoists out of the
/// kernel's column loop), so [`PackedSell::check_against`] re-derives
/// it and rejects a payload whose stored encoding differs. A floor of
/// [`IndexKind::U32`] makes both candidates 4-byte lanes and `Chunk`
/// win the tie everywhere — exactly the uncompressed baseline layout.
fn choose_encoding<T: Scalar>(
    a: &CsrMatrix<T>,
    lane_rows: &[u32],
    width: usize,
    floor: IndexKind,
) -> ChunkEncoding {
    let lanes = lane_rows.len();
    let mut col_lo = vec![u32::MAX; width];
    let mut col_hi = vec![0u32; width];
    let (mut lo, mut hi, mut any) = (u32::MAX, 0u32, false);
    for &r in lane_rows {
        let (rcols, _) = a.row(r as usize);
        for (j, &col) in rcols.iter().enumerate() {
            col_lo[j] = col_lo[j].min(col);
            col_hi[j] = col_hi[j].max(col);
            lo = lo.min(col);
            hi = hi.max(col);
            any = true;
        }
    }
    if !any {
        // No entries: nothing to anchor; a single zero base keeps the
        // decode well-defined for the (all-padding) slots.
        return ChunkEncoding {
            mode: BaseMode::Chunk,
            kind: floor,
            bases: vec![0],
        };
    }
    // Every dense column position has at least one active lane (lane 0
    // is the chunk's widest row), so `col_lo` is fully populated.
    let spread = col_lo
        .iter()
        .zip(&col_hi)
        .map(|(&l, &h)| h - l)
        .max()
        .unwrap_or(0);
    let w_chunk = floor.max(IndexKind::narrowest_for(hi - lo));
    let w_col = floor.max(IndexKind::narrowest_for(spread));
    let slots = width * lanes;
    let bytes_chunk = slots * w_chunk.bytes() + std::mem::size_of::<u32>();
    let bytes_col = slots * w_col.bytes() + width * std::mem::size_of::<u32>();
    if bytes_col < bytes_chunk {
        ChunkEncoding {
            mode: BaseMode::Column,
            kind: w_col,
            bases: col_lo,
        }
    } else {
        ChunkEncoding {
            mode: BaseMode::Chunk,
            kind: w_chunk,
            bases: vec![lo],
        }
    }
}

/// A row subset packed into length-sorted, column-major chunks of `C`
/// lanes (SELL-C-σ with σ = [`SORT_WINDOW_CHUNKS`]` · C`), with the column-index
/// stream delta-compressed per chunk (see the module docs). Built once
/// per sparsity pattern by plan compilation; executes many times.
pub struct PackedSell<T: Scalar> {
    /// Lanes per chunk (`C`).
    chunk: usize,
    /// Column count of the source matrix. Every non-padding slot's
    /// decoded column index is validated against this bound each time
    /// the slab is gathered, which is what licenses the unchecked
    /// gathers in the kernels.
    n_cols: usize,
    /// Widest realised lane width over the chunks — the bin-level width
    /// recorded in dispatch formats; `kinds` has the per-chunk widths.
    index: IndexKind,
    /// The caller's width floor: no chunk realises narrower, and
    /// [`check_against`](Self::check_against) re-derives every chunk's
    /// encoding under the same floor.
    floor: IndexKind,
    /// Row ids in packed (window-sorted) order.
    rows: Vec<u32>,
    /// NNZ of each packed row (same order as `rows`).
    lens: Vec<u32>,
    /// Slot offset of each chunk's slab; length `n_chunks + 1`.
    chunk_off: Vec<usize>,
    /// Per-chunk realised delta width.
    kinds: Vec<IndexKind>,
    /// Per-chunk base mode.
    modes: Vec<BaseMode>,
    /// Base tables, all chunks concatenated (split by `base_off`): one
    /// entry for a [`BaseMode::Chunk`] chunk, `width` entries for a
    /// [`BaseMode::Column`] chunk. Deltas are relative to these.
    bases: Vec<u32>,
    /// Offset of each chunk's base table in `bases`; length `n_chunks + 1`.
    base_off: Vec<usize>,
    /// Slot offset of each chunk's lanes inside the pool of its width;
    /// length `n_chunks`.
    lane_off: Vec<usize>,
    /// CSR value positions per slot ([`SRC_PAD`] for padding slots).
    src: Vec<u32>,
    /// Non-zeros actually stored (excluding padding slots).
    nnz: usize,
    /// Cached column deltas + values, refreshed together when the source
    /// matrix's value generation changes.
    vals: RwLock<ValueSlab<T>>,
}

impl<T: Scalar> PackedSell<T> {
    /// Pack `rows` of `a` into chunks of `chunk` lanes with the
    /// narrowest feasible index width (equivalent to
    /// [`from_rows_with_index`](Self::from_rows_with_index) with an
    /// [`IndexKind::U8`] floor). Within each window of
    /// [`SORT_WINDOW_CHUNKS`]` · chunk` consecutive positions of `rows`,
    /// rows are sorted by NNZ descending, equal lengths by minimum
    /// column (stable beyond that, so fully tied rows keep their input
    /// order); rows never leave their window. The caller's list is not
    /// modified. The value slab is gathered immediately from `a`'s
    /// current values.
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`, a row id is out of bounds, or `a.nnz()`
    /// overflows the `u32` source map.
    pub fn from_rows(a: &CsrMatrix<T>, rows: &[u32], chunk: usize) -> Self {
        Self::from_rows_with_index(a, rows, chunk, IndexKind::U8)
    }

    /// Pack `rows` of `a` into chunks of `chunk` lanes, storing column
    /// indices per chunk in the narrowest width that is **at least**
    /// `min_index` and fits the chunk's cheaper anchor layout (chunk
    /// span or per-column lane spread — see [`BaseMode`]). `min_index`
    /// is a floor, not a promise: an infeasible request is silently
    /// widened — `U32` always succeeds — and the widest realised width
    /// is reported by [`index_kind`](Self::index_kind). Pass
    /// [`IndexKind::U32`] to force the uncompressed layout (every chunk
    /// then realises 4-byte lanes with a single chunk anchor).
    ///
    /// # Panics
    ///
    /// Panics if `chunk == 0`, a row id is out of bounds, or `a.nnz()`
    /// overflows the `u32` source map.
    pub fn from_rows_with_index(
        a: &CsrMatrix<T>,
        rows: &[u32],
        chunk: usize,
        min_index: IndexKind,
    ) -> Self {
        assert!(chunk > 0, "chunk size must be positive");
        assert!(
            a.nnz() < SRC_PAD as usize,
            "matrix too large for the u32 source map"
        );
        let row_ptr = a.row_ptr();
        // Within each window of SORT_WINDOW_CHUNKS chunks — consecutive,
        // chunk-aligned runs of the input list — primary: NNZ descending
        // (the SELL length sort). Tie-break: minimum column, so
        // equal-length rows with nearby column sets share a chunk — the
        // locality the Column base mode prices. Fully tied rows keep
        // their input order. Rows need not be column-sorted, so the
        // minimum takes a scan of the row: each key is computed once, in
        // one O(nnz) pass, and packed with the row's input position —
        // unique keys, so an unstable sort yields exactly the stable
        // order. Each row's dot product is accumulated independently, so
        // lane placement cannot change any result bit.
        let mut keyed: Vec<(u64, usize)> = rows
            .iter()
            .enumerate()
            .map(|(pos, &r)| {
                let (rcols, _) = a.row(r as usize);
                let min_col = rcols.iter().copied().min().unwrap_or(u32::MAX);
                // `!len` in the high word puts longer rows first; row
                // lengths fit u32 (nnz < SRC_PAD is asserted above).
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
            let width = lens[lane0] as usize;
            slots += width * lanes;
            chunk_off.push(slots);
        }

        let mut src = vec![SRC_PAD; slots];
        for (c, &off) in chunk_off.iter().take(n_chunks).enumerate() {
            let lane0 = c * chunk;
            let lanes = (order.len() - lane0).min(chunk);
            let width = lens[lane0] as usize;
            for (lane, (&r, &len)) in order[lane0..lane0 + lanes]
                .iter()
                .zip(&lens[lane0..lane0 + lanes])
                .enumerate()
            {
                let base = row_ptr[r as usize];
                for j in 0..len as usize {
                    src[off + j * lanes + lane] = (base + j) as u32;
                }
                debug_assert!(len as usize <= width);
            }
        }

        // Pack-time compression proof: per chunk, price both anchor
        // layouts and keep the cheaper (mode, width, bases). A chunk
        // covers whole rows, so its column sets — hence anchors and
        // spans — are invariant under `sort_rows` (which only permutes
        // within rows) and value updates; the refresh proof in
        // `ensure_values` re-checks every decode anyway.
        let mut kinds = Vec::with_capacity(n_chunks);
        let mut modes = Vec::with_capacity(n_chunks);
        let mut bases = Vec::new();
        let mut base_off = Vec::with_capacity(n_chunks + 1);
        base_off.push(0usize);
        let mut lane_off = Vec::with_capacity(n_chunks);
        let mut tallies = [0usize; 3];
        for c in 0..n_chunks {
            let lane0 = c * chunk;
            let lanes = (order.len() - lane0).min(chunk);
            let width = lens[lane0] as usize;
            let enc = choose_encoding(a, &order[lane0..lane0 + lanes], width, min_index);
            lane_off.push(tallies[enc.kind as usize]);
            tallies[enc.kind as usize] += width * lanes;
            kinds.push(enc.kind);
            modes.push(enc.mode);
            bases.extend_from_slice(&enc.bases);
            base_off.push(bases.len());
        }
        let index = kinds.iter().copied().max().unwrap_or(min_index);

        let nnz: usize = lens.iter().map(|&l| l as usize).sum();
        let packed = Self {
            chunk,
            n_cols: a.n_cols(),
            index,
            floor: min_index,
            rows: order,
            lens,
            chunk_off,
            kinds,
            modes,
            bases,
            base_off,
            lane_off,
            src,
            nnz,
            vals: RwLock::new(ValueSlab {
                // `values_id` generations start at 1, so 0 always forces
                // the gather below to populate cols + vals.
                source: 0,
                cols: ColSlab::zeroed(tallies),
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

    /// Widest realised width of the delta-compressed column-index
    /// stream across the chunks (individual chunks may be narrower).
    pub fn index_kind(&self) -> IndexKind {
        self.index
    }

    /// Chunks whose deltas anchor on per-column bases
    /// ([`BaseMode::Column`]) rather than a single chunk base.
    pub fn column_anchored_chunks(&self) -> usize {
        self.modes
            .iter()
            .filter(|&&m| m == BaseMode::Column)
            .count()
    }

    /// Base column the deltas of chunk `c`, dense position `j` are
    /// relative to.
    fn base_at(&self, c: usize, j: usize) -> u32 {
        match self.modes[c] {
            BaseMode::Chunk => self.bases[self.base_off[c]],
            BaseMode::Column => self.bases[self.base_off[c] + j],
        }
    }

    /// Suggest a chunk height aligned to the subset's *identical-row
    /// runs*: maximal groups of consecutive packed rows with exactly
    /// the same column list (block-structured matrices produce runs of
    /// the block size). Lanes that are copies of each other have zero
    /// spread at every dense position, so a run-aligned chunk realises
    /// 1-byte column-anchored deltas regardless of how far the rows
    /// range. Returns the dominant run length (clamped to 16) when such
    /// runs cover at least half the rows and differ from the current
    /// chunk height; `None` otherwise. Plan compilation probes the
    /// suggestion and keeps whichever packing streams fewer index
    /// bytes.
    pub fn identical_run_chunk(&self, a: &CsrMatrix<T>) -> Option<usize> {
        let mut covered = [0usize; 17];
        let mut i = 0;
        while i < self.rows.len() {
            let (head, _) = a.row(self.rows[i] as usize);
            let mut j = i + 1;
            while j < self.rows.len() && a.row(self.rows[j] as usize).0 == head {
                j += 1;
            }
            let run = j - i;
            if run >= 2 {
                covered[run.min(16)] += run;
            }
            i = j;
        }
        let best = (2..=16).max_by_key(|&r| covered[r])?;
        (covered[best] * 2 >= self.rows.len() && best != self.chunk).then_some(best)
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
        self.src.len()
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

    /// Non-zeros stored in chunk `c` (excluding padding) — the work
    /// estimate tile generation balances on.
    pub fn chunk_nnz(&self, c: usize) -> usize {
        let lane0 = c * self.chunk;
        let lanes = (self.rows.len() - lane0).min(self.chunk);
        self.lens[lane0..lane0 + lanes]
            .iter()
            .map(|&l| l as usize)
            .sum()
    }

    /// Bytes of the column-index stream the kernels actually traverse:
    /// each chunk's delta lanes (including padding slots) in that
    /// chunk's realised width, plus the `u32` base tables. This is the
    /// payload the compression tier shrinks; compare against
    /// `slots × 4` for the uncompressed layout.
    pub fn index_stream_bytes(&self) -> usize {
        let mut bytes = self.bases.len() * std::mem::size_of::<u32>();
        for c in 0..self.n_chunks() {
            bytes += (self.chunk_off[c + 1] - self.chunk_off[c]) * self.kinds[c].bytes();
        }
        bytes
    }

    /// Heap bytes of the packed arrays (src + slab cols + slab values +
    /// index vectors).
    pub fn storage_bytes(&self) -> usize {
        self.src.len() * std::mem::size_of::<u32>()
            + self.index_stream_bytes()
            + self.slots() * T::BYTES
            + self.rows.len() * std::mem::size_of::<u32>()
            + self.lens.len() * std::mem::size_of::<u32>()
            + self.chunk_off.len() * std::mem::size_of::<usize>()
            + self.base_off.len() * std::mem::size_of::<usize>()
            + self.lane_off.len() * std::mem::size_of::<usize>()
            + self.kinds.len()
            + self.modes.len()
    }

    /// Bring the cached slab up to date with `a`. O(1) when
    /// [`CsrMatrix::values_id`] matches the slab's source (the steady
    /// state of an iterative solver); one O(slots) gather of columns and
    /// values after a value update. Gathering both halves is what keeps
    /// the slab correct across in-place mutations like
    /// [`CsrMatrix::sort_rows`] that permute `(col, val)` pairs within a
    /// row: the positional `src` map still points at the row's entries,
    /// just in their new order. Callers must hand the same pattern
    /// (`row_ptr`) the payload was packed from — plan validation
    /// guarantees that.
    ///
    /// # Panics
    ///
    /// Panics if a refreshed column index is out of bounds **or falls
    /// outside its chunk's delta window** (`base ≤ col`,
    /// `col − base ≤ max delta` for the chunk's realised width, with
    /// `base` the chunk's anchor — or the dense position's anchor for a
    /// column-anchored chunk) — the per-refresh proof that licenses the
    /// unchecked `v[col]` gathers in the kernels and keeps the
    /// compressed encoding exact. Chunk anchors depend only on each
    /// row's column *set*, so they survive any in-row permutation;
    /// column anchors are derived from in-row storage order, so packing
    /// an *unsorted* matrix into column-anchored chunks and then
    /// sorting it trips this proof loudly instead of decoding wrong
    /// columns.
    pub fn ensure_values(&self, a: &CsrMatrix<T>) {
        let want = a.values_id();
        if self.vals.read().unwrap().source == want {
            return;
        }
        let mut slab = self.vals.write().unwrap();
        if slab.source == want {
            return; // another thread refreshed while we waited
        }
        let ValueSlab { cols, vals, source } = &mut *slab;
        for c in 0..self.n_chunks() {
            let slots = self.chunk_off[c + 1] - self.chunk_off[c];
            let lo = self.lane_off[c];
            let vals_c = &mut vals[self.chunk_off[c]..self.chunk_off[c + 1]];
            match self.kinds[c] {
                IndexKind::U8 => {
                    self.refresh_chunk::<u8>(c, &mut cols.c8[lo..lo + slots], vals_c, a)
                }
                IndexKind::U16 => {
                    self.refresh_chunk::<u16>(c, &mut cols.c16[lo..lo + slots], vals_c, a)
                }
                IndexKind::U32 => {
                    self.refresh_chunk::<u32>(c, &mut cols.c32[lo..lo + slots], vals_c, a)
                }
            }
        }
        *source = want;
    }

    /// The width-monomorphised gather behind
    /// [`ensure_values`](Self::ensure_values) for one chunk: re-reads
    /// every slot's `(col, val)` pair and re-proves the bound and
    /// delta-window invariants for the chunk's realised width and
    /// anchor mode. `cols`/`vals` are the chunk's own slices.
    fn refresh_chunk<I: IndexLane>(
        &self,
        c: usize,
        cols: &mut [I],
        vals: &mut [T],
        a: &CsrMatrix<T>,
    ) {
        let av = a.values();
        let a_cols = a.col_idx();
        let lane0 = c * self.chunk;
        let lanes = (self.rows.len() - lane0).min(self.chunk);
        let src = &self.src[self.chunk_off[c]..self.chunk_off[c + 1]];
        let width = if lanes == 0 {
            0
        } else {
            self.lens[lane0] as usize
        };
        for j in 0..width {
            let base = self.base_at(c, j);
            for slot in j * lanes..(j + 1) * lanes {
                let s = src[slot];
                if s == SRC_PAD {
                    cols[slot] = I::narrow(0);
                    vals[slot] = T::ZERO;
                } else {
                    let col = a_cols[s as usize];
                    // Refresh-time bound proof: the kernels gather
                    // `v[base + delta]` without a per-element check, so
                    // the decoded column must be in range and the delta
                    // must round-trip through the narrow lane exactly.
                    assert!(
                        (col as usize) < self.n_cols,
                        "CSR column {col} out of bounds"
                    );
                    assert!(
                        col >= base && col - base <= I::KIND.max_delta(),
                        "CSR column {col} outside chunk {c}'s {} delta window (base {base})",
                        I::KIND
                    );
                    cols[slot] = I::narrow(col - base);
                    vals[slot] = av[s as usize];
                }
            }
        }
    }

    /// Run `f` against the current slab under the read lock. The lock is
    /// uncontended in the steady state (refreshes happen before workers
    /// launch), so this costs one atomic acquire per call — take it once
    /// per tile, not per chunk.
    pub fn with_slab<R>(&self, f: impl FnOnce(SlabView<'_, T>) -> R) -> R {
        let guard = self.vals.read().unwrap();
        f(SlabView {
            c8: &guard.cols.c8,
            c16: &guard.cols.c16,
            c32: &guard.cols.c32,
            vals: &guard.vals,
        })
    }

    /// SpMV over chunks `[c0, c1)`: for every row `r` of those chunks,
    /// computes `Σ_j A[r,·]·v` in ascending-`j` order (bit-identical to
    /// the CSR reference) and hands `(row, sum)` to `sink`. Rows with no
    /// entries still reach the sink with `T::ZERO`, matching CSR
    /// semantics. `slab` must come from [`with_slab`].
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
        mut sink: S,
    ) {
        assert!(
            v.len() >= self.n_cols,
            "input vector shorter than the matrix column count"
        );
        for c in c0..c1 {
            let slots = self.chunk_off[c + 1] - self.chunk_off[c];
            let lo = self.lane_off[c];
            match self.kinds[c] {
                IndexKind::U8 => {
                    self.chunk_modes(&slab.c8[lo..lo + slots], slab.vals, c, v, &mut sink)
                }
                IndexKind::U16 => {
                    self.chunk_modes(&slab.c16[lo..lo + slots], slab.vals, c, v, &mut sink)
                }
                IndexKind::U32 => {
                    self.chunk_modes(&slab.c32[lo..lo + slots], slab.vals, c, v, &mut sink)
                }
            }
        }
    }

    /// Resolve chunk `c`'s base table into its [`BaseSrc`] form (one
    /// hoisted constant or the per-column slice) behind
    /// [`spmv_chunks`](Self::spmv_chunks). `cols` is the chunk's own
    /// lane slice in its realised width.
    fn chunk_modes<I: IndexLane, S: FnMut(usize, T)>(
        &self,
        cols: &[I],
        vals: &[T],
        c: usize,
        v: &[T],
        sink: &mut S,
    ) {
        let vals = &vals[self.chunk_off[c]..self.chunk_off[c + 1]];
        match self.modes[c] {
            BaseMode::Chunk => self.chunk_lanes(
                cols,
                vals,
                ConstBase(self.bases[self.base_off[c]]),
                c,
                v,
                sink,
            ),
            BaseMode::Column => self.chunk_lanes(
                cols,
                vals,
                SliceBase(&self.bases[self.base_off[c]..self.base_off[c + 1]]),
                c,
                v,
                sink,
            ),
        }
    }

    /// Lane-count dispatch behind [`spmv_chunks`](Self::spmv_chunks):
    /// full chunks run the `L`-unrolled kernel (the common heights get
    /// their own instantiation — run-aligned chunk probing makes odd
    /// heights like 3, 5, 6, 7 routine, not just the tail), partial
    /// chunks the dynamic one.
    fn chunk_lanes<I: IndexLane, B: BaseSrc, S: FnMut(usize, T)>(
        &self,
        cols: &[I],
        vals: &[T],
        base: B,
        c: usize,
        v: &[T],
        sink: &mut S,
    ) {
        let lane0 = c * self.chunk;
        let lanes = (self.rows.len() - lane0).min(self.chunk);
        match lanes {
            16 => self.chunk_fixed::<I, B, 16, S>(cols, vals, base, lane0, v, sink),
            8 => self.chunk_fixed::<I, B, 8, S>(cols, vals, base, lane0, v, sink),
            7 => self.chunk_fixed::<I, B, 7, S>(cols, vals, base, lane0, v, sink),
            6 => self.chunk_fixed::<I, B, 6, S>(cols, vals, base, lane0, v, sink),
            5 => self.chunk_fixed::<I, B, 5, S>(cols, vals, base, lane0, v, sink),
            4 => self.chunk_fixed::<I, B, 4, S>(cols, vals, base, lane0, v, sink),
            3 => self.chunk_fixed::<I, B, 3, S>(cols, vals, base, lane0, v, sink),
            2 => self.chunk_fixed::<I, B, 2, S>(cols, vals, base, lane0, v, sink),
            _ => self.chunk_dyn(cols, vals, base, lane0, lanes, v, sink),
        }
    }

    /// One full chunk of exactly `L` lanes, with the dense phase (all
    /// lanes active) unrolled `L`-wide. `L` is a compile-time constant so
    /// the accumulator array lives in registers and the inner lane loop
    /// disappears.
    #[inline]
    fn chunk_fixed<I: IndexLane, B: BaseSrc, const L: usize, S: FnMut(usize, T)>(
        &self,
        cols: &[I],
        vals: &[T],
        base: B,
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
        // non-padding column was proven `< n_cols` (decoded as
        // `base + delta` against this position's anchor) when the slab
        // was gathered and `spmv_chunks` checked `v.len() >= n_cols`
        // once up front.
        let dense_cols = &cols[..min_len * L];
        let dense = dense_cols.chunks_exact(L);
        let dense_vals = vals[..min_len * L].chunks_exact(L);
        // The gather is the only irregular access left; hint the windows
        // a few iterations ahead unless `x` plausibly lives in L1.
        let prefetch = self.n_cols * T::BYTES > PF_MIN_X_BYTES;
        for (jj, (cw, vw)) in dense.zip(dense_vals).enumerate() {
            if prefetch {
                let pf = jj + PF_DIST;
                if pf < min_len {
                    let pb = base.at(pf);
                    for l in 0..L {
                        prefetch_read(v, (pb + dense_cols[pf * L + l].widen()) as usize);
                    }
                }
            }
            // Gather first, FMA second: the gather loop is scalar loads,
            // but the FMA loop is contiguous-on-contiguous and the
            // compiler can turn it into one packed `vfmadd`.
            let b = base.at(jj);
            let mut xs = [T::ZERO; L];
            for l in 0..L {
                // SAFETY: `cw[l]` is a non-padding slot of this chunk's
                // dense phase; `ensure_values` asserted its decoded
                // column `base + delta < n_cols` (same anchor `b`) and
                // `spmv_chunks` asserted `v.len() >= n_cols`.
                xs[l] = unsafe { *v.get_unchecked((b + cw[l].widen()) as usize) };
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
            let b = base.at(j);
            for (l, s) in sums.iter_mut().enumerate().take(active) {
                // SAFETY: `l < active` means lane `l` has `len > j`, so
                // this slot is non-padding; same refresh-time bound
                // proof on the decoded column.
                let x = unsafe { *v.get_unchecked((b + cols[o + l].widen()) as usize) };
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
    #[allow(clippy::too_many_arguments)] // width-monomorphised internal kernel
    fn chunk_dyn<I: IndexLane, B: BaseSrc, S: FnMut(usize, T)>(
        &self,
        cols: &[I],
        vals: &[T],
        base: B,
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
            let b = base.at(j);
            for (l, s) in sums.iter_mut().enumerate().take(active) {
                // SAFETY: `l < active` means this slot is non-padding;
                // same refresh-time bound proof as `chunk_fixed`.
                let x = unsafe { *v.get_unchecked((b + cols[o + l].widen()) as usize) };
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
    /// that, together with the pack-time column bound, licenses the
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
        mut sink: S,
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
        for c in c0..c1 {
            let slots = self.chunk_off[c + 1] - self.chunk_off[c];
            let lo = self.lane_off[c];
            match self.kinds[c] {
                IndexKind::U8 => self.spmm_modes::<u8, KB, S>(
                    &slab.c8[lo..lo + slots],
                    slab.vals,
                    c,
                    x,
                    x_stride,
                    x_col0,
                    &mut sink,
                ),
                IndexKind::U16 => self.spmm_modes::<u16, KB, S>(
                    &slab.c16[lo..lo + slots],
                    slab.vals,
                    c,
                    x,
                    x_stride,
                    x_col0,
                    &mut sink,
                ),
                IndexKind::U32 => self.spmm_modes::<u32, KB, S>(
                    &slab.c32[lo..lo + slots],
                    slab.vals,
                    c,
                    x,
                    x_stride,
                    x_col0,
                    &mut sink,
                ),
            }
        }
    }

    /// Base-mode dispatch behind [`spmm_chunks`](Self::spmm_chunks).
    #[allow(clippy::too_many_arguments)] // width-monomorphised internal kernel
    fn spmm_modes<I: IndexLane, const KB: usize, S: FnMut(usize, [T; KB])>(
        &self,
        cols: &[I],
        vals: &[T],
        c: usize,
        x: &[T],
        x_stride: usize,
        x_col0: usize,
        sink: &mut S,
    ) {
        let vals = &vals[self.chunk_off[c]..self.chunk_off[c + 1]];
        match self.modes[c] {
            BaseMode::Chunk => self.spmm_chunk_impl::<I, ConstBase, KB, S>(
                cols,
                vals,
                ConstBase(self.bases[self.base_off[c]]),
                c,
                x,
                x_stride,
                x_col0,
                sink,
            ),
            BaseMode::Column => self.spmm_chunk_impl::<I, SliceBase<'_>, KB, S>(
                cols,
                vals,
                SliceBase(&self.bases[self.base_off[c]..self.base_off[c + 1]]),
                c,
                x,
                x_stride,
                x_col0,
                sink,
            ),
        }
    }

    /// Width/mode-monomorphised loop behind
    /// [`spmm_chunks`](Self::spmm_chunks) for one chunk. `cols`/`vals`
    /// are the chunk's own slices.
    #[allow(clippy::too_many_arguments)] // width-monomorphised internal kernel
    fn spmm_chunk_impl<I: IndexLane, B: BaseSrc, const KB: usize, S: FnMut(usize, [T; KB])>(
        &self,
        cols: &[I],
        vals: &[T],
        base: B,
        c: usize,
        x: &[T],
        x_stride: usize,
        x_col0: usize,
        sink: &mut S,
    ) {
        let lane0 = c * self.chunk;
        let lanes = (self.rows.len() - lane0).min(self.chunk);
        for l in 0..lanes {
            let len = self.lens[lane0 + l] as usize;
            let mut sums = [T::ZERO; KB];
            let mut slot = l;
            for j in 0..len {
                let col = (base.at(j) + cols[slot].widen()) as usize;
                let av = vals[slot];
                let xbase = col * x_stride + x_col0;
                for (kk, s) in sums.iter_mut().enumerate() {
                    // SAFETY: the decoded `col < n_cols` was asserted
                    // when the slab was gathered, for every
                    // non-padding slot (lane `l` stops at its own
                    // length, so `slot` is never padding), and the
                    // up-front assert in `spmm_chunks` proved
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
    /// this payload matches it exactly: same row set (each row once, in
    /// bounds) with every packed row in the same sort window of
    /// `expected_rows` it was listed in, lengths equal to the CSR row
    /// lengths and non-increasing within each window (so every chunk's
    /// widest lane comes first), correct chunk offsets,
    /// every non-padding slot's `(decoded col, src)` equal to the CSR
    /// entry it claims to mirror with the decoded column in bounds,
    /// every padding slot marked, and every chunk's stored encoding
    /// (base mode, lane width, base table) equal to the one
    /// [`choose_encoding`] re-derives under the stored floor — the
    /// tightest anchors the delta proof assumed. The slab is refreshed
    /// from `a` first, so the proof covers the state execution will
    /// read. Returns a description of the first defect.
    /// O(slots + |rows| + m).
    pub fn check_against(&self, a: &CsrMatrix<T>, expected_rows: &[u32]) -> Result<(), String> {
        self.ensure_values(a);
        if self.n_cols != a.n_cols() {
            return Err(format!(
                "packed n_cols {} != matrix n_cols {} (gather bound proof void)",
                self.n_cols,
                a.n_cols()
            ));
        }
        if self.rows.len() != expected_rows.len() {
            return Err(format!(
                "packed row count {} != bin row count {}",
                self.rows.len(),
                expected_rows.len()
            ));
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
                None => return Err(format!("bin row {r} out of bounds (m = {m})")),
                Some(t) if *t != UNTAGGED => return Err(format!("bin lists row {r} twice")),
                Some(t) => *t = (pos / window) as u32,
            }
        }
        for (pos, &r) in self.rows.iter().enumerate() {
            match tag.get_mut(r as usize) {
                None => return Err(format!("packed row {r} out of bounds (m = {m})")),
                Some(t) if *t == UNTAGGED => {
                    return Err("packed rows are not the bin's row set".into())
                }
                Some(t) if *t as usize != pos / window => {
                    return Err(format!(
                        "packed row {r} at index {pos} left its sort window {t}"
                    ))
                }
                Some(t) => *t = UNTAGGED,
            }
        }
        let row_ptr = a.row_ptr();
        let a_cols = a.col_idx();
        for (i, (&r, &len)) in self.rows.iter().zip(&self.lens).enumerate() {
            if a.row_nnz(r as usize) != len as usize {
                return Err(format!(
                    "packed row {r}: cached len {len} != CSR len {}",
                    a.row_nnz(r as usize)
                ));
            }
            if (i + 1) % window != 0 && i + 1 < self.lens.len() && self.lens[i + 1] > len {
                return Err(format!(
                    "packed rows not length-sorted within their window at index {i}"
                ));
            }
        }
        if self.chunk_off.first() != Some(&0) || self.chunk_off.last() != Some(&self.src.len()) {
            return Err("chunk offsets do not span the slab".into());
        }
        if self.kinds.len() != self.n_chunks()
            || self.modes.len() != self.n_chunks()
            || self.lane_off.len() != self.n_chunks()
            || self.base_off.len() != self.n_chunks() + 1
        {
            return Err("per-chunk encoding tables do not match the chunk count".into());
        }
        if self.base_off.first() != Some(&0) || self.base_off.last() != Some(&self.bases.len()) {
            return Err("base offsets do not span the base table".into());
        }
        if self.index != self.kinds.iter().copied().max().unwrap_or(self.floor) {
            return Err(format!(
                "declared index kind {} is not the widest chunk width",
                self.index
            ));
        }
        let slab = self.vals.read().unwrap();
        let mut tallies = [0usize; 3];
        for c in 0..self.n_chunks() {
            if self.lane_off[c] != tallies[self.kinds[c] as usize] {
                return Err(format!(
                    "chunk {c}: lane offset {} does not match its width pool",
                    self.lane_off[c]
                ));
            }
            tallies[self.kinds[c] as usize] += self.chunk_off[c + 1] - self.chunk_off[c];
        }
        if [slab.cols.c8.len(), slab.cols.c16.len(), slab.cols.c32.len()] != tallies {
            return Err("lane pool sizes do not match the per-chunk widths".into());
        }
        if slab.vals.len() != self.src.len() {
            return Err("value slab length mismatch".into());
        }
        let mut seen_nnz = 0usize;
        for c in 0..self.n_chunks() {
            let lane0 = c * self.chunk;
            let lanes = (self.rows.len() - lane0).min(self.chunk);
            let width = self.lens[lane0] as usize;
            if self.chunk_off[c + 1] - self.chunk_off[c] != width * lanes {
                return Err(format!("chunk {c}: slab size != width × lanes"));
            }
            let enc = choose_encoding(a, &self.rows[lane0..lane0 + lanes], width, self.floor);
            if enc.kind != self.kinds[c] || enc.mode != self.modes[c] {
                return Err(format!(
                    "chunk {c}: stored encoding {}/{} != derived {}/{}",
                    self.modes[c], self.kinds[c], enc.mode, enc.kind
                ));
            }
            if enc.bases[..] != self.bases[self.base_off[c]..self.base_off[c + 1]] {
                return Err(format!(
                    "chunk {c}: stored base table is not the derived anchor set"
                ));
            }
            let off = self.chunk_off[c];
            let kind = self.kinds[c];
            let pool0 = self.lane_off[c];
            for lane in 0..lanes {
                let r = self.rows[lane0 + lane] as usize;
                let len = self.lens[lane0 + lane] as usize;
                let base = row_ptr[r];
                for j in 0..width {
                    let slot = off + j * lanes + lane;
                    if j < len {
                        if self.src[slot] as usize != base + j {
                            return Err(format!(
                                "chunk {c} lane {lane} col {j}: src {} != CSR position {}",
                                self.src[slot],
                                base + j
                            ));
                        }
                        let decoded =
                            self.base_at(c, j) + slab.cols.delta_at(kind, pool0 + j * lanes + lane);
                        if decoded != a_cols[base + j] {
                            return Err(format!(
                                "chunk {c} lane {lane} col {j}: decoded col {decoded} != CSR col {}",
                                a_cols[base + j]
                            ));
                        }
                        if (decoded as usize) >= self.n_cols {
                            return Err(format!(
                                "chunk {c} lane {lane} col {j}: decoded col {decoded} out of bounds"
                            ));
                        }
                        seen_nnz += 1;
                    } else if self.src[slot] != SRC_PAD {
                        return Err(format!(
                            "chunk {c} lane {lane} col {j}: padding slot has src {}",
                            self.src[slot]
                        ));
                    }
                }
            }
        }
        if seen_nnz != self.nnz {
            return Err(format!("cached nnz {} != slab nnz {seen_nnz}", self.nnz));
        }
        Ok(())
    }
}

impl<T: Scalar> Clone for PackedSell<T> {
    fn clone(&self) -> Self {
        let slab = self.vals.read().unwrap();
        Self {
            chunk: self.chunk,
            n_cols: self.n_cols,
            index: self.index,
            floor: self.floor,
            rows: self.rows.clone(),
            lens: self.lens.clone(),
            chunk_off: self.chunk_off.clone(),
            kinds: self.kinds.clone(),
            modes: self.modes.clone(),
            bases: self.bases.clone(),
            base_off: self.base_off.clone(),
            lane_off: self.lane_off.clone(),
            src: self.src.clone(),
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
            .field("index", &self.index)
            .field("rows", &self.rows.len())
            .field("chunks", &self.n_chunks())
            .field("column_anchored", &self.column_anchored_chunks())
            .field("nnz", &self.nnz)
            .field("slots", &self.slots())
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
    fn every_index_width_matches_reference_bit_for_bit() {
        let a = gen::mixture::<f64>(
            400,
            600,
            &[RowRegime::new(1, 4, 0.5), RowRegime::new(20, 80, 0.5)],
            true,
            11,
        );
        let rows = all_rows(&a);
        let v: Vec<f64> = (0..a.n_cols())
            .map(|i| ((i * 3) % 17) as f64 - 8.0)
            .collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        for min_index in [IndexKind::U8, IndexKind::U16, IndexKind::U32] {
            let p = PackedSell::from_rows_with_index(&a, &rows, 8, min_index);
            assert!(p.index_kind() >= min_index, "floor not respected");
            p.check_against(&a, &rows).unwrap();
            let mut u = vec![0.0f64; a.n_rows()];
            p.spmv_into(&a, &v, &mut u);
            assert_eq!(u, reference, "{min_index} floor diverges from reference");
        }
    }

    #[test]
    fn delta_compression_picks_narrowest_feasible_width() {
        // A uniform band (every row exactly 4 entries at cols r..r+4):
        // the length sort is the identity, so every chunk covers
        // adjacent rows and spans ≤ chunk + 3 columns → u8.
        let mut coo = crate::CooMatrix::<f64>::new(64, 68);
        for r in 0..64 {
            for j in 0..4 {
                coo.push(r, r + j, (r * 4 + j) as f64 + 1.0);
            }
        }
        let a = coo.to_csr();
        let p = PackedSell::from_rows(&a, &all_rows(&a), 8);
        assert_eq!(p.index_kind(), IndexKind::U8);
        assert!(p.index_stream_bytes() < p.slots() * 4);
        p.check_against(&a, &all_rows(&a)).unwrap();

        // Lane spreads of ~300 at every dense position (the two rows'
        // column lists diverge from position 0) defeat both anchor
        // modes' u8 window → u16.
        let mut coo = crate::CooMatrix::<f64>::new(4, 400);
        coo.push(0, 0, 1.0);
        coo.push(0, 399, 2.0);
        coo.push(1, 300, 3.0);
        coo.push(1, 301, 4.0);
        let b = coo.to_csr();
        let q = PackedSell::from_rows(&b, &all_rows(&b), 4);
        assert_eq!(q.index_kind(), IndexKind::U16);
        q.check_against(&b, &all_rows(&b)).unwrap();

        // Lane spreads beyond 65 535 exceed u16 under either mode →
        // u32 fallback, even when the caller asked for the narrowest
        // floor.
        let mut coo = crate::CooMatrix::<f64>::new(4, 70_001);
        coo.push(0, 0, 1.0);
        coo.push(0, 70_000, 2.0);
        coo.push(1, 66_000, 3.0);
        coo.push(1, 70_000, 4.0);
        let c = coo.to_csr();
        let r = PackedSell::from_rows_with_index(&c, &all_rows(&c), 4, IndexKind::U8);
        assert_eq!(r.index_kind(), IndexKind::U32);
        r.check_against(&c, &all_rows(&c)).unwrap();
        let v = vec![1.0f64; c.n_cols()];
        let reference = c.spmv_seq_alloc(&v).unwrap();
        let mut u = vec![0.0f64; c.n_rows()];
        r.spmv_into(&c, &v, &mut u);
        assert_eq!(u, reference, "wide-span fallback diverges");
    }

    #[test]
    fn column_anchors_compress_wide_rows_with_tracking_neighbours() {
        // Every row spans 300+ columns (cols {r, r+300}), so a single
        // chunk anchor can never fit u8 deltas — but neighbouring rows
        // track each other within the chunk height, so per-column
        // anchors realise 1-byte lanes.
        let mut coo = crate::CooMatrix::<f64>::new(64, 364);
        for r in 0..64 {
            coo.push(r, r, 1.0 + r as f64);
            coo.push(r, r + 300, 2.0 + r as f64);
        }
        let a = coo.to_csr();
        let rows = all_rows(&a);
        let p = PackedSell::from_rows(&a, &rows, 8);
        assert_eq!(p.index_kind(), IndexKind::U8);
        assert!(p.column_anchored_chunks() == p.n_chunks());
        p.check_against(&a, &rows).unwrap();
        let v: Vec<f64> = (0..a.n_cols())
            .map(|i| ((i * 7) % 19) as f64 - 9.0)
            .collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let mut u = vec![0.0f64; a.n_rows()];
        p.spmv_into(&a, &v, &mut u);
        assert_eq!(u, reference, "column-anchored chunks diverge");

        // The forced-u32 layout must stay the uncompressed baseline:
        // chunk anchors everywhere, 4-byte lanes.
        let q = PackedSell::from_rows_with_index(&a, &rows, 8, IndexKind::U32);
        assert_eq!(q.index_kind(), IndexKind::U32);
        assert_eq!(q.column_anchored_chunks(), 0);
        q.check_against(&a, &rows).unwrap();
    }

    #[test]
    fn run_aligned_chunks_turn_identical_block_rows_into_u8() {
        // 4 "blocks" of 6 identical rows, each block's columns spread
        // across the whole matrix. With the chunk height equal to the
        // run length every chunk holds copies of one row: zero lane
        // spread, u8 column-anchored deltas, regardless of row span.
        let mut coo = crate::CooMatrix::<f64>::new(24, 4_000);
        for b in 0..4usize {
            for l in 0..6usize {
                let r = b * 6 + l;
                for k in 0..5usize {
                    coo.push(r, (b * 997 + k * 641) % 4_000, (r * 5 + k) as f64 + 1.0);
                }
            }
        }
        let a = coo.to_csr();
        let rows = all_rows(&a);
        let p8 = PackedSell::from_rows(&a, &rows, 8);
        assert_eq!(
            p8.identical_run_chunk(&a),
            Some(6),
            "block runs should suggest a 6-lane chunk"
        );
        let p6 = PackedSell::from_rows(&a, &rows, 6);
        assert_eq!(p6.index_kind(), IndexKind::U8);
        assert_eq!(p6.column_anchored_chunks(), p6.n_chunks());
        assert!(p6.index_stream_bytes() < p8.index_stream_bytes());
        p6.check_against(&a, &rows).unwrap();
        let v: Vec<f64> = (0..a.n_cols())
            .map(|i| ((i * 3) % 11) as f64 - 5.0)
            .collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let mut u = vec![0.0f64; a.n_rows()];
        p6.spmv_into(&a, &v, &mut u);
        assert_eq!(u, reference, "run-aligned chunks diverge");
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
        let mut p = PackedSell::from_rows(&a, &rows, 8);
        p.check_against(&a, &rows).unwrap();
        // A wrong source index must be named.
        let slot = p.src.iter().position(|&s| s != SRC_PAD).unwrap();
        p.src[slot] = p.src[slot].wrapping_add(1);
        assert!(p.check_against(&a, &rows).is_err());
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
    fn check_against_catches_base_tampering() {
        let a = gen::banded::<f64>(64, 2, 3);
        let rows = all_rows(&a);
        let p = PackedSell::from_rows(&a, &rows, 8);
        assert_eq!(p.index_kind(), IndexKind::U8);
        p.check_against(&a, &rows).unwrap();
        // A shifted base decodes every slot of that chunk wrongly.
        let mut tampered = p.clone();
        tampered.bases[0] = tampered.bases[0].wrapping_add(1);
        assert!(tampered.check_against(&a, &rows).is_err());
        // A flipped anchor mode disagrees with the deterministic
        // chooser even if the decoded columns happened to survive.
        let mut tampered = p.clone();
        tampered.modes[0] = match tampered.modes[0] {
            BaseMode::Chunk => BaseMode::Column,
            BaseMode::Column => BaseMode::Chunk,
        };
        assert!(tampered.check_against(&a, &rows).is_err());
        // A widened per-chunk kind no longer matches the chooser (and
        // desynchronises the lane pools).
        let mut tampered = p;
        tampered.kinds[0] = IndexKind::U32;
        assert!(tampered.check_against(&a, &rows).is_err());
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
        for (chunk, min_index) in [(3, IndexKind::U8), (8, IndexKind::U8), (8, IndexKind::U32)] {
            let p = PackedSell::from_rows_with_index(&a, &rows, chunk, min_index);
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
                        "chunk {chunk} ({min_index}) row {r} col {kk} diverges"
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
        // stale columns pair with fresh values. The chunk's column set
        // (hence its base and span) is invariant under the sort, so the
        // compressed encoding survives — which this test now also
        // exercises, since a 6-column matrix packs into u8 deltas.
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
        assert_eq!(p.index_kind(), IndexKind::U8);
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
}
