//! Compiled execution plans: tune once, run many.
//!
//! Binning, feature extraction, and strategy selection are all
//! per-*pattern* work — they depend only on the sparsity structure, not
//! the stored values. Iterative consumers (CG, PageRank, time-stepping)
//! run SpMV hundreds of times on one pattern, so [`SpmvPlan`] freezes
//! that work at compile time: the predicted [`Strategy`], the extracted
//! [`MatrixFeatures`], the expanded per-bin row lists, and the backend to
//! launch on. [`SpmvPlan::execute`] then does *no* binning, feature
//! extraction, or row-list allocation — it walks the dispatch table and
//! launches.
//!
//! A [`PatternFingerprint`] guards reuse: executing a plan against a
//! matrix with a different structure is a typed [`PlanError`], never a
//! silently wrong result. Value-only updates (same pattern, new numbers)
//! are the intended use and need no recompilation.

use crate::binning::{bin_matrix, Bins};
use crate::exec::{ExecBackend, LaunchCost, PlanParts};
use crate::kernels::cpu::rows_nnz_cuts;
use crate::kernels::KernelId;
use crate::strategy::Strategy;
use crate::verify::{check_dispatch, check_payloads, VerifyError};
use spmv_sparse::packed::SORT_WINDOW_CHUNKS;
use spmv_sparse::{
    BandSet, ColumnLocality, CsrMatrix, DenseBlock, DenseRuns, FeatureSet, MatrixFeatures,
    PackedSell, RowRuns, Scalar,
};

/// Structural identity of a CSR matrix: dimensions, NNZ, and an FNV-1a
/// checksum of the row-pointer array. Two matrices with equal
/// fingerprints have the same row lengths everywhere, which is exactly
/// the information binning consumed.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PatternFingerprint {
    /// Rows.
    pub m: usize,
    /// Columns.
    pub n: usize,
    /// Stored non-zeros.
    pub nnz: usize,
    /// FNV-1a over the row-pointer array.
    pub row_ptr_hash: u64,
}

impl PatternFingerprint {
    /// Fingerprint `a`'s sparsity structure. O(m), allocation-free.
    pub fn of<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        Self::of_row_ptr(a.n_rows(), a.n_cols(), a.row_ptr().iter().copied())
    }

    /// The fingerprint of an `m × n` pattern with row pointer `row_ptr`
    /// (its last entry is the NNZ), which need not be stored anywhere.
    pub(crate) fn of_row_ptr(m: usize, n: usize, row_ptr: impl IntoIterator<Item = usize>) -> Self {
        let (mut h, mut nnz): (u64, usize) = (0xcbf2_9ce4_8422_2325, 0);
        for p in row_ptr {
            h ^= p as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
            nnz = p;
        }
        Self {
            m,
            n,
            nnz,
            row_ptr_hash: h,
        }
    }

    /// A second, independent checksum of `a`'s whole pattern — what a
    /// cache layer stores next to a fingerprinted entry so a hit can be
    /// confirmed without trusting FNV-1a alone, and what an
    /// [`SpmvPlan`] records to accept a matrix it did not compile from.
    /// [`confirm_row_ptr`] continued over the column indices (a column
    /// of row `i` mixed at position `m + 1 + i`), so it separates
    /// patterns that share `row_ptr` — two bands of equal width, a
    /// stencil and its shifted copy — but not two orders of one row's
    /// columns: [`CsrMatrix::sort_rows`] keeps it, as SpMV plans keep
    /// working across that sort. O(m + nnz), allocation-free.
    pub fn confirm_of<T: Scalar>(a: &CsrMatrix<T>) -> u64 {
        let base = a.row_ptr().len();
        (0..a.n_rows()).fold(confirm_row_ptr(a.row_ptr()), |acc, i| {
            a.row(i).0.iter().fold(acc, |acc, &c| {
                acc.wrapping_add(position_mix(u64::from(c), base + i))
            })
        })
    }
}

/// Position-mixed SplitMix64 checksum over a row-pointer array: each
/// element is finalized together with its index, and the results are
/// combined with wrapping addition. Structurally unrelated to the FNV-1a
/// multiply-xor chain in [`PatternFingerprint::of`], so an adversarially
/// forged (or astronomically unlucky) FNV collision does not also
/// collide here — the confirmation a plan cache performs before reusing
/// an entry whose fingerprint matched. O(m), allocation-free.
pub fn confirm_row_ptr(row_ptr: &[usize]) -> u64 {
    row_ptr.iter().enumerate().fold(0, |acc, (i, &p)| {
        acc.wrapping_add(position_mix(p as u64, i))
    })
}

/// SplitMix64 finalizer of `value` salted with its position.
fn position_mix(value: u64, position: usize) -> u64 {
    let mut z = value ^ (position as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// What a plan remembers about the pattern it was built for: its
/// [`PatternFingerprint`] and the matrix's [`CsrMatrix::pattern_id`]
/// generation. O(m) to take.
#[derive(Clone, Copy, Debug)]
pub(crate) struct PatternBinding {
    pub(crate) fingerprint: PatternFingerprint,
    pattern_id: u64,
}

impl PatternBinding {
    pub(crate) fn of<T: Scalar>(a: &CsrMatrix<T>) -> Self {
        Self {
            fingerprint: PatternFingerprint::of(a),
            pattern_id: a.pattern_id(),
        }
    }

    /// A binding to a pattern no matrix was built with (pattern
    /// generations start at 1), so every matrix takes the fingerprint
    /// and column check.
    pub(crate) fn unbound(fingerprint: PatternFingerprint) -> Self {
        Self {
            fingerprint,
            pattern_id: 0,
        }
    }

    /// The fingerprint of `a` when its pattern is *not* the bound one,
    /// `None` when it is. An equal generation accepts in O(1): the build
    /// matrix itself, a clone of it, or either after value updates. Any
    /// other matrix — an independently rebuilt copy, one whose rows were
    /// re-sorted — must match the fingerprint *and* pass
    /// `same_columns`, the plan's own column check (a checksum, or an
    /// exact comparison against the structure the plan stores), which
    /// separates two patterns that share `row_ptr`.
    pub(crate) fn mismatch<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        same_columns: impl FnOnce() -> bool,
    ) -> Option<PatternFingerprint> {
        if a.pattern_id() == self.pattern_id {
            return None;
        }
        let got = PatternFingerprint::of(a);
        (got != self.fingerprint || !same_columns()).then_some(got)
    }

    /// [`mismatch`](Self::mismatch) as the checked paths' typed error.
    pub(crate) fn check<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        same_columns: impl FnOnce() -> bool,
    ) -> Result<(), PlanError> {
        match self.mismatch(a, same_columns) {
            None => Ok(()),
            Some(got) => Err(PlanError::PatternMismatch {
                expected: self.fingerprint,
                got,
            }),
        }
    }
}

/// Why a plan refused to execute.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum PlanError {
    /// The matrix handed to [`SpmvPlan::execute`] has a different
    /// sparsity structure than the one the plan was compiled for.
    PatternMismatch {
        /// Fingerprint the plan was compiled against.
        expected: PatternFingerprint,
        /// Fingerprint of the matrix handed to `execute`.
        got: PatternFingerprint,
    },
    /// An input or output vector has the wrong length.
    DimensionMismatch {
        /// Which slice was wrong (`"input vector"` / `"output vector"`).
        what: &'static str,
        /// Length the plan requires.
        expected: usize,
        /// Length received.
        got: usize,
    },
}

impl std::fmt::Display for PlanError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            PlanError::PatternMismatch { expected, got } => write!(
                f,
                "plan compiled for pattern {}x{}/{} nnz (hash {:#x}) executed \
                 against {}x{}/{} nnz (hash {:#x}); recompile the plan for \
                 structurally different matrices",
                expected.m,
                expected.n,
                expected.nnz,
                expected.row_ptr_hash,
                got.m,
                got.n,
                got.nnz,
                got.row_ptr_hash,
            ),
            PlanError::DimensionMismatch {
                what,
                expected,
                got,
            } => {
                write!(f, "{what}: expected length {expected}, got {got}")
            }
        }
    }
}

impl std::error::Error for PlanError {}

/// Storage format compilation chose for one bin — the per-bin decision
/// the plan records (and [`check_payloads`] proves consistent with the
/// materialised payload).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum BinFormat {
    /// Generic CSR traversal over the bin's row list — the fallback for
    /// dense/tail bins and for bins whose SELL padding would blow the
    /// [`PlanConfig::max_padding`] bound.
    Csr,
    /// SELL-style packed slabs ([`PackedSell`]) with the given lane
    /// count, for low/mid-NNZ bins where per-row loop overhead dominates.
    PackedSell {
        /// Lanes per chunk (`C`).
        chunk: usize,
    },
    /// CSR traversal with column-blocked (cache-blocked) execution on the
    /// fused native path: the gather vector `x` is tiled into vertical
    /// strips of `strip_cols` columns and each row's cursor pauses at
    /// strip boundaries, carrying its partial sum across strips. Chosen
    /// for scatter-heavy CSR-fallback bins whose working set of `x`
    /// exceeds L2. Entries are still consumed in exact CSR storage order,
    /// so results are bit-for-bit identical to [`BinFormat::Csr`].
    CacheBlockedCsr {
        /// Columns per vertical strip of `x`.
        strip_cols: usize,
    },
    /// Structure fast path: every row of the bin decomposes into long
    /// contiguous column runs ([`spmv_sparse::DenseRuns`]), so execution
    /// is strided dense AXPYs with no per-element index gathers.
    DenseRun,
    /// Structure fast path: the bin is band-complete over a fixed small
    /// set of diagonal offsets ([`spmv_sparse::BandSet`]) — execution
    /// iterates the offset list with zero index traffic.
    Banded {
        /// Number of distinct diagonal offsets.
        offsets: usize,
    },
    /// Structure fast path: runs of identical-pattern rows
    /// ([`spmv_sparse::RowRuns`]) load their shared column list once per
    /// run instead of once per row.
    RowRunReuse,
}

impl std::fmt::Display for BinFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            BinFormat::Csr => write!(f, "csr"),
            BinFormat::PackedSell { chunk } => write!(f, "sell-{chunk}"),
            BinFormat::CacheBlockedCsr { strip_cols } => write!(f, "blocked-csr-{strip_cols}"),
            BinFormat::DenseRun => write!(f, "dense-run"),
            BinFormat::Banded { offsets } => write!(f, "banded-{offsets}"),
            BinFormat::RowRunReuse => write!(f, "row-run"),
        }
    }
}

/// The execution payload materialised for one bin, aligned index-for-index
/// with the plan's dispatch table.
// Plans hold one payload per bin (single digits), so the size spread
// against the unit variants is noise next to the slab heap a `Packed`
// owns; boxing would only add a pointer chase on the execute path.
#[allow(clippy::large_enum_variant)]
#[derive(Debug)]
pub enum BinPayload<T: Scalar> {
    /// No extra payload — execute walks the dispatch entry's row list
    /// through the CSR arrays.
    Csr,
    /// A packed SELL slab built from the bin's rows at compile time.
    Packed(PackedSell<T>),
    /// No extra storage, but the fused native executor walks the bin's
    /// rows strip-by-strip with per-row partial sums (see
    /// [`BinFormat::CacheBlockedCsr`]). Backends without a blocked
    /// executor treat this exactly like [`BinPayload::Csr`] — the
    /// blocking is a schedule, not a semantic change.
    Blocked {
        /// Columns per vertical strip of `x`.
        strip_cols: usize,
    },
    /// The proven contiguous-run decomposition of the bin's rows
    /// (see [`BinFormat::DenseRun`]).
    DenseRun(DenseRuns),
    /// The proven diagonal-offset set of the bin (see
    /// [`BinFormat::Banded`]).
    Banded(BandSet),
    /// The proven identical-row-run boundaries of the bin (see
    /// [`BinFormat::RowRunReuse`]).
    RowRun(RowRuns),
}

/// One unit of the fused dispatch queue: a contiguous slice of one bin's
/// work. For a [`BinFormat::PackedSell`] bin, `start..end` is a chunk
/// range of its slab; for a [`BinFormat::Csr`] bin it is a span of the
/// dispatch entry's row list (cut NNZ-balanced at compile time — the
/// hoisted form of the cuts the per-launch path recomputes). Tiles of one
/// bin partition that bin's work, so any queue execution order writes
/// disjoint rows.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Tile {
    /// Index into the plan's dispatch/payload tables.
    pub bin: usize,
    /// First chunk (packed) or first row-list position (CSR), inclusive.
    pub start: usize,
    /// Last chunk / row-list position, exclusive.
    pub end: usize,
}

/// Decompose a batch width `K` into the register-blocked RHS widths the
/// batched kernels are compiled for: greedy `(start, width)` blocks of
/// width 8, then one of 4, 2, 1 for the remainder (e.g. `K = 7` →
/// `[(0, 4), (4, 2), (6, 1)]`). The blocks partition `[0, K)` in order —
/// [`crate::verify::check_payloads`] proves that invariant for a sweep
/// of widths, because the batched executor's write-set argument tiles
/// the output as (row range × RHS block). Width 8 is the cap: the
/// per-lane kernels keep exactly `width` accumulators plus the broadcast
/// element live, and wider blocks spill out of registers (see DESIGN.md
/// §8).
pub fn rhs_blocks(k: usize) -> Vec<(usize, usize)> {
    let mut blocks = Vec::new();
    let mut start = 0usize;
    while k - start >= 8 {
        blocks.push((start, 8));
        start += 8;
    }
    for width in [4usize, 2, 1] {
        if k - start >= width {
            blocks.push((start, width));
            start += width;
        }
    }
    debug_assert_eq!(start, k);
    blocks
}

/// Knobs for plan compilation's format and dispatch decisions. The
/// defaults are what [`SpmvPlan::compile`] uses; benches and tests use
/// [`SpmvPlan::compile_with`] to pin specific corners (packing off,
/// adversarial padding bounds, a zero `llc_bytes` to classify every
/// matrix as streaming, tiny `l2_bytes` to trigger cache blocking on
/// small matrices).
#[derive(Clone, Copy, Debug)]
pub struct PlanConfig {
    /// Consider SELL packing at all (`false` forces CSR everywhere).
    pub pack: bool,
    /// Lanes per chunk; `0` picks per bin from the row-length spread:
    /// the widest of {8, 4, 2} (max 4 for bins under 8 rows) whose
    /// realised padding is tight, else the least-padded candidate.
    pub chunk: usize,
    /// Maximum `slots / nnz` storage blow-up a packed bin may have;
    /// above it the bin falls back to CSR (the padding-overflow gate).
    pub max_padding: f64,
    /// Target non-zeros per tile; `0` sizes tiles so each worker sees
    /// several per launch (min 4096 so tiny matrices stay one tile).
    pub tile_nnz: usize,
    /// Consider column-blocked execution for scatter-heavy CSR-fallback
    /// bins (`false` keeps plain CSR traversal).
    pub cache_block: bool,
    /// Cache-blocking working-set budget in bytes: blocking only fires
    /// when `x` outgrows this, and the strip width is sized so one strip
    /// of `x` fits within it (an L2-capacity stand-in).
    pub l2_bytes: usize,
    /// Format-gate threshold: a CSR-fallback bin is treated as
    /// scatter-heavy (latency-bound) when its rows touch at least this
    /// many distinct cache lines of `x` on average.
    pub scatter_lines_per_row: f64,
    /// Row-run regime budget in bytes (a last-level-cache stand-in):
    /// the [`BinFormat::RowRunReuse`] probe runs only when the matrix's
    /// streamed bytes (values, `u32` indices, and the dense vectors)
    /// exceed this. Smaller operand sets are cache-resident and re-read
    /// their index stream from cache, so trading the SIMD-friendly slab
    /// for pattern reuse buys nothing there.
    pub llc_bytes: usize,
    /// Probe the structure fast paths ([`BinFormat::Banded`],
    /// [`BinFormat::DenseRun`], [`BinFormat::RowRunReuse`]) at all
    /// (`false` restricts the gate to the packed, cache-blocked and CSR
    /// tiers — the knob benches use to pin the packed baseline).
    pub specialize: bool,
    /// Banded fast-path budget: a bin qualifies only when its entries
    /// sit on at most this many distinct diagonal offsets (`0` disables
    /// the banded probe).
    pub band_max_offsets: usize,
    /// Dense-run fast-path threshold: a bin qualifies only when its
    /// average contiguous column-run length reaches this (`0` disables
    /// the dense-run probe).
    pub min_dense_run: usize,
    /// Row-run-reuse threshold: a bin qualifies only when its average
    /// identical-pattern run length reaches this (`0` disables the
    /// row-run probe).
    pub min_row_run: usize,
}

impl Default for PlanConfig {
    fn default() -> Self {
        Self {
            pack: true,
            chunk: 0,
            max_padding: 1.25,
            tile_nnz: 0,
            cache_block: true,
            l2_bytes: 256 * 1024,
            scatter_lines_per_row: 4.0,
            llc_bytes: 32 * 1024 * 1024,
            specialize: true,
            band_max_offsets: 16,
            min_dense_run: 8,
            min_row_run: 4,
        }
    }
}

/// A hashable identity for a [`PlanConfig`] — the second half of a plan
/// cache key (the first being the [`PatternFingerprint`]). `PlanConfig`
/// itself carries `f64` thresholds, so it cannot be `Eq`/`Hash`; the key
/// freezes those fields through [`f64::to_bits`], which is exactly the
/// right equivalence for caching: two configs compile identical plans
/// iff every knob — including the float gates, bit-for-bit — agrees.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanConfigKey {
    flags: [bool; 3],
    sizes: [usize; 7],
    floats: [u64; 2],
}

impl PlanConfig {
    /// The cache identity of this configuration (see [`PlanConfigKey`]).
    pub fn cache_key(&self) -> PlanConfigKey {
        PlanConfigKey {
            flags: [self.pack, self.cache_block, self.specialize],
            sizes: [
                self.chunk,
                self.tile_nnz,
                self.l2_bytes,
                self.llc_bytes,
                self.band_max_offsets,
                self.min_dense_run,
                self.min_row_run,
            ],
            floats: [
                self.max_padding.to_bits(),
                self.scatter_lines_per_row.to_bits(),
            ],
        }
    }
}

/// Bytes one execution of a plan must move from memory, broken down by
/// payload stream — the observability counterpart of the format gate.
/// Packed bins charge one column per slot at the slab's width — 2 bytes
/// up to [`spmv_sparse::packed::NARROW_MAX_COLS`] matrix columns, else 4
/// — padding included; CSR and blocked bins charge `nnz × 4` index
/// bytes. `x_gather_bytes` is the cache-line-granular estimate of
/// gather traffic derived from the matrix's measured
/// distinct-lines-per-row feature — an estimate of compulsory misses,
/// not a bound (reuse across rows may reduce it, capacity misses may
/// raise it).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrafficStats {
    /// Matrix value bytes (packed slabs charge padding slots too).
    pub value_bytes: usize,
    /// Column-index bytes (one column per slot, at the slab's width, for
    /// packed bins).
    pub index_bytes: usize,
    /// Estimated `x` gather traffic at cache-line granularity.
    pub x_gather_bytes: usize,
    /// Non-zeros covered (denominator for the per-NNZ views).
    pub nnz: usize,
}

impl TrafficStats {
    /// Index bytes moved per non-zero (the tentpole's headline metric).
    pub fn index_bytes_per_nnz(&self) -> f64 {
        self.index_bytes as f64 / (self.nnz as f64).max(1.0)
    }

    /// Value bytes moved per non-zero.
    pub fn value_bytes_per_nnz(&self) -> f64 {
        self.value_bytes as f64 / (self.nnz as f64).max(1.0)
    }

    /// Total matrix + estimated gather bytes per non-zero.
    pub fn total_bytes_per_nnz(&self) -> f64 {
        (self.value_bytes + self.index_bytes + self.x_gather_bytes) as f64
            / (self.nnz as f64).max(1.0)
    }
}

/// One entry of a plan's dispatch table: a populated bin with its row
/// list pre-expanded and its kernel already chosen.
#[derive(Clone, Debug)]
pub struct BinDispatch {
    /// Bin id under the plan's binning scheme.
    pub bin_id: usize,
    /// Kernel the strategy assigns this bin.
    pub kernel: KernelId,
    /// The actual row indices, expanded once at compile time.
    pub rows: Vec<u32>,
    /// Non-zeros covered by the bin.
    pub nnz: usize,
    /// Storage format compilation chose for the bin.
    pub format: BinFormat,
}

/// Expand every populated bin of `bins` into `(bin_id, rows, nnz)`
/// triples — the one place row lists are materialised; plans and the
/// tuner both build on it so the work happens once per pattern.
pub(crate) fn expand_populated<T: Scalar>(
    a: &CsrMatrix<T>,
    bins: &Bins,
) -> Vec<(usize, Vec<u32>, usize)> {
    (0..bins.bins.len())
        .filter(|&b| !bins.bins[b].is_empty())
        .map(|b| {
            let rows = bins.expand(b);
            let nnz = rows.iter().map(|&r| a.row_nnz(r as usize)).sum();
            (b, rows, nnz)
        })
        .collect()
}

/// A compiled SpMV: frozen strategy, features, fingerprint, dispatch
/// table, and backend. Build with [`SpmvPlan::compile`] (or
/// [`crate::framework::AutoSpmv::plan`]), then call
/// [`execute`](SpmvPlan::execute) as many times as the solver needs.
pub struct SpmvPlan<T: Scalar> {
    strategy: Strategy,
    features: MatrixFeatures,
    pattern: PatternBinding,
    /// [`PatternFingerprint::confirm_of`] the compile matrix.
    confirm: u64,
    dispatch: Vec<BinDispatch>,
    payloads: Vec<BinPayload<T>>,
    tiles: Vec<Tile>,
    /// Per-tile NNZ weights, aligned with `tiles`: the LPT cost the
    /// batched executor scales by RHS-block width.
    tile_weights: Vec<usize>,
    backend: Box<dyn ExecBackend<T>>,
}

// Compile-time `Send + Sync` proofs: plans and proof tokens cross
// thread boundaries in a multi-tenant runtime, so thread safety is
// part of their contract — adding a `!Sync` field (an `Rc`, a bare
// `Cell`) must fail to compile, not fail at a caller.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SpmvPlan<f32>>();
    assert_send_sync::<SpmvPlan<f64>>();
    assert_send_sync::<VerifiedPlan<f32>>();
    assert_send_sync::<VerifiedPlan<f64>>();
};

impl<T: Scalar> SpmvPlan<T> {
    /// Compile `strategy` for `a` on `backend` with the default
    /// [`PlanConfig`]: extract features, bin, expand every populated
    /// bin's row list, freeze the kernel choice per bin, materialise a
    /// packed payload where the format gate allows, and precompute the
    /// fused tile queue.
    pub fn compile(a: &CsrMatrix<T>, strategy: Strategy, backend: Box<dyn ExecBackend<T>>) -> Self {
        Self::compile_with(a, strategy, backend, PlanConfig::default())
    }

    /// [`compile`](Self::compile) with explicit format/dispatch knobs.
    pub fn compile_with(
        a: &CsrMatrix<T>,
        strategy: Strategy,
        backend: Box<dyn ExecBackend<T>>,
        config: PlanConfig,
    ) -> Self {
        let features = MatrixFeatures::extract(a, FeatureSet::TableI);
        let pattern = PatternBinding::of(a);
        let confirm = PatternFingerprint::confirm_of(a);
        let bins = bin_matrix(a, strategy.binning);
        let mut dispatch = Vec::new();
        let mut payloads = Vec::new();
        for (bin_id, rows, nnz) in expand_populated(a, &bins) {
            let (format, payload) = choose_format(a, &rows, &config);
            dispatch.push(BinDispatch {
                bin_id,
                kernel: strategy.kernel_for(bin_id),
                rows,
                nnz,
                format,
            });
            payloads.push(payload);
        }
        let (tiles, tile_weights) = build_tiles(a, &dispatch, &payloads, &config);
        Self {
            strategy,
            features,
            pattern,
            confirm,
            dispatch,
            payloads,
            tiles,
            tile_weights,
            backend,
        }
    }

    /// Execute the plan: one backend `launch_plan` over the compiled
    /// tables (the simulated GPU launches each bin in turn).
    ///
    /// Validates dimensions and the pattern (O(1) for the compile matrix,
    /// a clone, or either after value updates; otherwise the fingerprint
    /// and the column-covering confirm checksum, O(m + nnz)), then
    /// launches over the cached row lists. Value-only updates to `a`
    /// since compilation are fine; structural changes — including a
    /// matrix that shares `row_ptr` but not columns — are a
    /// [`PlanError::PatternMismatch`].
    pub fn execute(&self, a: &CsrMatrix<T>, v: &[T], u: &mut [T]) -> Result<LaunchCost, PlanError> {
        if v.len() != self.pattern.fingerprint.n {
            return Err(PlanError::DimensionMismatch {
                what: "input vector",
                expected: self.pattern.fingerprint.n,
                got: v.len(),
            });
        }
        if u.len() != self.pattern.fingerprint.m {
            return Err(PlanError::DimensionMismatch {
                what: "output vector",
                expected: self.pattern.fingerprint.m,
                got: u.len(),
            });
        }
        self.check_pattern(a)?;
        Ok(self.launch_all(a, v, u))
    }

    /// The checked paths' pattern guard: O(1) for the compile matrix's
    /// generation, else the fingerprint plus the confirm checksum.
    fn check_pattern(&self, a: &CsrMatrix<T>) -> Result<(), PlanError> {
        self.pattern
            .check(a, || PatternFingerprint::confirm_of(a) == self.confirm)
    }

    /// Borrow the compiled tables as one bundle for the backend.
    fn parts(&self) -> PlanParts<'_, T> {
        PlanParts {
            dispatch: &self.dispatch,
            payloads: &self.payloads,
            tiles: &self.tiles,
            tile_weights: &self.tile_weights,
        }
    }

    /// Hand the whole compiled dispatch — table, payloads, tile queue —
    /// to the backend. All validation happens in the
    /// callers.
    fn launch_all(&self, a: &CsrMatrix<T>, v: &[T], u: &mut [T]) -> LaunchCost {
        self.backend.launch_plan(a, &self.parts(), v, u)
    }

    /// Batched execute: `y = A · x` for every column of `x` in one
    /// matrix traversal per RHS block (SpMM). `x` is `n × K`, `y` is
    /// `m × K`; each output column is bit-for-bit identical to a
    /// single-vector [`execute`](Self::execute) against that input
    /// column. `K = 0` is a no-op. Validation mirrors `execute`:
    /// dimensions, block widths, then the pattern check.
    pub fn execute_batch(
        &self,
        a: &CsrMatrix<T>,
        x: &DenseBlock<T>,
        y: &mut DenseBlock<T>,
    ) -> Result<LaunchCost, PlanError> {
        self.check_batch_dims(x, y)?;
        self.check_pattern(a)?;
        Ok(self.launch_all_batch(a, x, y))
    }

    /// Block-shape validation shared by the checked and verified batched
    /// paths: O(1), no allocation.
    fn check_batch_dims(&self, x: &DenseBlock<T>, y: &DenseBlock<T>) -> Result<(), PlanError> {
        if x.n_rows() != self.pattern.fingerprint.n {
            return Err(PlanError::DimensionMismatch {
                what: "input block rows",
                expected: self.pattern.fingerprint.n,
                got: x.n_rows(),
            });
        }
        if y.n_rows() != self.pattern.fingerprint.m {
            return Err(PlanError::DimensionMismatch {
                what: "output block rows",
                expected: self.pattern.fingerprint.m,
                got: y.n_rows(),
            });
        }
        if y.k() != x.k() {
            return Err(PlanError::DimensionMismatch {
                what: "output block width",
                expected: x.k(),
                got: y.k(),
            });
        }
        Ok(())
    }

    /// Hand the compiled dispatch to the backend's batched entry.
    fn launch_all_batch(
        &self,
        a: &CsrMatrix<T>,
        x: &DenseBlock<T>,
        y: &mut DenseBlock<T>,
    ) -> LaunchCost {
        self.backend.launch_plan_batch(a, &self.parts(), x, y)
    }

    /// Prove this plan's write sets against `a` and, on success, wrap it
    /// in a [`VerifiedPlan`] that unlocks the unchecked execute path.
    ///
    /// Runs [`check_dispatch`]: every output row in bounds, written by
    /// exactly one launch across all bins, cached bin NNZ consistent,
    /// and the Subvector/Vector NNZ-balanced splits exact partitions.
    /// Then [`check_payloads`]: every packed payload mirrors its bin's
    /// CSR entries slot-for-slot, and the fused tile queue partitions
    /// each bin's work — so the packed/fused path provably writes the
    /// same set of rows the dispatch proof covered. Failures are a typed
    /// [`VerifyError`] naming the bin, kernel id, and offending row
    /// range. The one O(m + Σ|rows| + slots) proof replaces the
    /// per-execute pattern check. `a` must have the compile matrix's
    /// pattern, as `execute` checks it.
    pub fn verify(self, a: &CsrMatrix<T>) -> Result<VerifiedPlan<T>, VerifyError> {
        if let Some(got) = self
            .pattern
            .mismatch(a, || PatternFingerprint::confirm_of(a) == self.confirm)
        {
            return Err(VerifyError::PatternMismatch {
                expected: self.pattern.fingerprint,
                got,
            });
        }
        check_dispatch(a, &self.dispatch)?;
        check_payloads(a, &self.dispatch, &self.payloads, &self.tiles)?;
        Ok(VerifiedPlan { plan: self })
    }

    /// The frozen strategy.
    pub fn strategy(&self) -> &Strategy {
        &self.strategy
    }

    /// Features extracted at compile time.
    pub fn features(&self) -> &MatrixFeatures {
        &self.features
    }

    /// The pattern this plan is bound to.
    pub fn fingerprint(&self) -> &PatternFingerprint {
        &self.pattern.fingerprint
    }

    /// The dispatch table (one entry per populated bin).
    pub fn dispatch(&self) -> &[BinDispatch] {
        &self.dispatch
    }

    /// Per-bin payloads, aligned with [`dispatch`](Self::dispatch).
    pub fn payloads(&self) -> &[BinPayload<T>] {
        &self.payloads
    }

    /// The fused tile queue (empty only for an empty dispatch table).
    pub fn tiles(&self) -> &[Tile] {
        &self.tiles
    }

    /// How many bins were materialised as packed SELL slabs.
    pub fn packed_bins(&self) -> usize {
        self.dispatch
            .iter()
            .filter(|d| matches!(d.format, BinFormat::PackedSell { .. }))
            .count()
    }

    /// How many bins the gate routed to cache-blocked execution.
    pub fn blocked_bins(&self) -> usize {
        self.dispatch
            .iter()
            .filter(|d| matches!(d.format, BinFormat::CacheBlockedCsr { .. }))
            .count()
    }

    /// How many bins the gate routed to a structure-specialized tier
    /// (dense-run, banded, or row-run).
    pub fn specialized_bins(&self) -> usize {
        self.dispatch
            .iter()
            .filter(|d| {
                matches!(
                    d.format,
                    BinFormat::DenseRun | BinFormat::Banded { .. } | BinFormat::RowRunReuse
                )
            })
            .count()
    }

    /// Memory-traffic accounting for one execution of this plan, summed
    /// over the materialised payloads (see [`TrafficStats`]).
    pub fn traffic(&self) -> TrafficStats {
        let mut t = TrafficStats::default();
        for (d, p) in self.dispatch.iter().zip(&self.payloads) {
            match p {
                BinPayload::Packed(packed) => {
                    t.value_bytes += packed.slots() * T::BYTES;
                    t.index_bytes += packed.index_stream_bytes();
                }
                BinPayload::Csr | BinPayload::Blocked { .. } => {
                    t.value_bytes += d.nnz * T::BYTES;
                    t.index_bytes += d.nnz * 4;
                }
                // The structure fast paths stream values in full but
                // replace the per-non-zero index stream with their proven
                // structural metadata: run descriptors, the offset list,
                // or one pattern load per identical-row run.
                BinPayload::DenseRun(runs) => {
                    t.value_bytes += d.nnz * T::BYTES;
                    t.index_bytes += runs.index_stream_bytes();
                }
                BinPayload::Banded(band) => {
                    t.value_bytes += d.nnz * T::BYTES;
                    t.index_bytes += band.index_stream_bytes();
                }
                BinPayload::RowRun(rr) => {
                    t.value_bytes += d.nnz * T::BYTES;
                    t.index_bytes += rr.index_stream_bytes();
                }
            }
            t.nnz += d.nnz;
        }
        let m = self.pattern.fingerprint.m;
        t.x_gather_bytes = (self.features.avg_lines_per_row * 64.0 * m as f64).round() as usize;
        t
    }

    /// Name of the backend launches run on.
    pub fn backend_name(&self) -> &'static str {
        self.backend.name()
    }

    /// Number of kernel launches per execution.
    pub fn launches(&self) -> usize {
        self.dispatch.len()
    }
}

/// Decide a bin's storage format and materialise its payload.
///
/// **Gate precedence** (first match wins — the order is part of the
/// contract, regression-tested in `core/tests/specialized_exec.rs`, so a
/// bin qualifying for several tiers resolves deterministically):
///
/// 1. [`BinFormat::Banded`] — band-complete bins over at most
///    [`PlanConfig::band_max_offsets`] diagonal offsets. Strongest
///    specialization: zero per-non-zero index traffic *and* the simplest
///    inner loop, so it outranks everything below.
/// 2. [`BinFormat::DenseRun`] — rows decomposing into contiguous runs of
///    average length ≥ [`PlanConfig::min_dense_run`]: near-zero index
///    traffic (two words per run).
/// 3. The SELL gate: packing must be enabled, the bin must have enough
///    rows to fill lanes, its row lengths must fit `u32`, and the
///    realised padding must stay under [`PlanConfig::max_padding`] —
///    otherwise the bin falls back to CSR. A long row alone does not
///    keep a bin CSR: it is one lane of its chunk, and the padding gate
///    already charges whatever its chunk wastes.
/// 4. [`BinFormat::RowRunReuse`] — probed only in the row-run regime
///    (the matrix's streamed operand set outgrows
///    [`PlanConfig::llc_bytes`], so index bandwidth is the bottleneck)
///    against the packed candidate the SELL gate just built: it wins
///    exactly when its modelled index stream is *strictly* smaller than
///    the packed column stream (at the slab's width); ties keep
///    [`BinFormat::PackedSell`] (the SIMD-friendlier layout).
/// 5. CSR-fallback bins pass through the scatter axis: when cache
///    blocking is enabled, the rows are column-sorted, `x` outgrows the
///    [`PlanConfig::l2_bytes`] budget, and the bin's measured column
///    locality marks it scatter-heavy, the fallback becomes
///    [`BinFormat::CacheBlockedCsr`] (same semantics, strip schedule).
/// 6. [`BinFormat::Csr`].
///
/// The structure probes (1, 2, 4) run only with
/// [`PlanConfig::specialize`] on; they deliberately sit *outside* the
/// `pack` gate — a banded bin stays banded with packing off — but share
/// the ≥ 4 row floor and the `u32` bound on the non-zero count.
fn choose_format<T: Scalar>(
    a: &CsrMatrix<T>,
    rows: &[u32],
    config: &PlanConfig,
) -> (BinFormat, BinPayload<T>) {
    let specialize = config.specialize && rows.len() >= 4 && a.nnz() < u32::MAX as usize;
    if specialize {
        if let Some(band) = BandSet::detect(a, rows, config.band_max_offsets) {
            return (
                BinFormat::Banded {
                    offsets: band.offsets().len(),
                },
                BinPayload::Banded(band),
            );
        }
        if let Some(runs) = DenseRuns::detect(a, rows, config.min_dense_run) {
            return (BinFormat::DenseRun, BinPayload::DenseRun(runs));
        }
    }
    if !config.pack || rows.len() < 4 || a.nnz() >= u32::MAX as usize {
        return csr_fallback(a, rows, config);
    }
    let chunk = match config.chunk {
        0 => {
            let lens: Vec<usize> = rows.iter().map(|&r| a.row_nnz(r as usize)).collect();
            match pick_auto_chunk(&lens, config.max_padding) {
                Some(c) => c,
                None => return csr_fallback(a, rows, config),
            }
        }
        c => c,
    };
    let packed = PackedSell::from_rows(a, rows, chunk);
    if packed.padding_ratio() > config.max_padding {
        return csr_fallback(a, rows, config);
    }
    // Gate step 4: when the whole operand set — values, u32 indices and
    // both dense vectors — streams from memory every iteration,
    // identical-row-run reuse competes with the packed slab on modelled
    // index bytes. Strictly smaller wins; ties keep the SELL slab.
    if specialize {
        let streamed = a.nnz() * (T::BYTES + 4) + (a.n_rows() + a.n_cols()) * T::BYTES;
        if streamed > config.llc_bytes {
            if let Some(rr) = RowRuns::detect(a, rows, config.min_row_run) {
                if rr.index_stream_bytes() < packed.index_stream_bytes() {
                    return (BinFormat::RowRunReuse, BinPayload::RowRun(rr));
                }
            }
        }
    }
    (BinFormat::PackedSell { chunk }, BinPayload::Packed(packed))
}

/// The CSR side of the format gate: plain CSR, unless the bottleneck
/// classifier marks the bin latency-bound (scatter-heavy gathers over an
/// `x` larger than the cache budget), in which case the fused native
/// executor runs it column-blocked. The measured features are the bin's
/// average distinct-cache-lines-per-row (the classifier threshold) and
/// average column span (blocking only pays when rows actually span more
/// than one strip). Requires sorted rows — the strip walk only improves
/// locality when each row's columns are ascending.
fn csr_fallback<T: Scalar>(
    a: &CsrMatrix<T>,
    rows: &[u32],
    config: &PlanConfig,
) -> (BinFormat, BinPayload<T>) {
    let strip_cols = (config.l2_bytes / T::BYTES).max(1);
    if !config.cache_block || a.n_cols() <= strip_cols {
        return (BinFormat::Csr, BinPayload::Csr);
    }
    let sorted = rows.iter().all(|&r| {
        let (cols, _) = a.row(r as usize);
        cols.windows(2).all(|w| w[0] < w[1])
    });
    if !sorted {
        return (BinFormat::Csr, BinPayload::Csr);
    }
    let loc = ColumnLocality::of_rows::<T>(a, rows);
    if loc.avg_lines_per_row >= config.scatter_lines_per_row
        && loc.avg_col_span >= strip_cols as f64
    {
        (
            BinFormat::CacheBlockedCsr { strip_cols },
            BinPayload::Blocked { strip_cols },
        )
    } else {
        (BinFormat::Csr, BinPayload::Csr)
    }
}

/// Pick the chunk height for an auto (`config.chunk == 0`) bin from its
/// row-length spread. `lens` are the bin's row lengths in bin order. For
/// each candidate height the padding the slab *would* realise is
/// computed analytically (exactly [`PackedSell`]'s slot count — each
/// window of `SORT_WINDOW_CHUNKS · C` lengths sorted descending, widest
/// lane of each group of `C` times its lane count — with no slab
/// materialised). The widest candidate that packs tightly wins; when
/// none does, the least-padded candidate still under `max_padding`.
/// High-variance bins thus slide to narrower chunks — trading SIMD
/// width for dead slots — instead of losing to CSR outright. Returns
/// `None` when every candidate blows the padding gate. The triangular
/// solves pick each level's lock-step chunk height by the same rule
/// (`solve::SolvePlan`).
pub(crate) fn pick_auto_chunk(lens: &[usize], max_padding: f64) -> Option<usize> {
    /// Padding this tight is treated as free: take the widest such chunk.
    const TIGHT: f64 = 1.05;
    let candidates: &[usize] = if lens.len() < 8 { &[4, 2] } else { &[8, 4, 2] };
    let nnz: usize = lens.iter().sum();
    if nnz == 0 {
        return Some(candidates[0]);
    }
    let mut best: Option<(usize, f64)> = None;
    for &c in candidates {
        let p = packed_padding(lens, nnz, c);
        if p <= TIGHT {
            return Some(c);
        }
        if best.is_none_or(|(_, bp)| p < bp) {
            best = Some((c, p));
        }
    }
    best.and_then(|(c, p)| (p <= max_padding).then_some(c))
}

/// `slots / nnz` of a [`PackedSell`] of rows with lengths `lens` (bin
/// order, summing to `nnz > 0`) at chunk height `c`: each window of
/// `SORT_WINDOW_CHUNKS · c` lengths sorted descending, every group of
/// `c` padded to its first (widest) lane.
fn packed_padding(lens: &[usize], nnz: usize, c: usize) -> f64 {
    let mut sorted = Vec::with_capacity(SORT_WINDOW_CHUNKS * c);
    let mut slots = 0usize;
    for window in lens.chunks(SORT_WINDOW_CHUNKS * c) {
        sorted.clear();
        sorted.extend_from_slice(window);
        sorted.sort_unstable_by(|x, y| y.cmp(x));
        slots += sorted.chunks(c).map(|g| g[0] * g.len()).sum::<usize>();
    }
    slots as f64 / nnz as f64
}

/// Precompute the fused dispatch queue: cut every bin's work into tiles
/// of roughly `tile_nnz` non-zeros (chunk ranges for packed bins,
/// NNZ-balanced row spans for CSR bins — the hoisted form of the cuts the
/// per-launch path recomputes every call), then order the queue heaviest
/// first so the longest tiles start earliest (LPT-style balance under
/// work stealing). The per-tile NNZ weights are returned alongside the
/// queue — the batched executor scales them by the RHS-block width to
/// keep the LPT order correct under `K` vectors.
fn build_tiles<T: Scalar>(
    a: &CsrMatrix<T>,
    dispatch: &[BinDispatch],
    payloads: &[BinPayload<T>],
    config: &PlanConfig,
) -> (Vec<Tile>, Vec<usize>) {
    let total_nnz: usize = dispatch.iter().map(|d| d.nnz).sum();
    let tile_nnz = if config.tile_nnz == 0 {
        let workers = spmv_parallel::num_threads();
        (total_nnz / (workers * 8).max(1)).max(4096)
    } else {
        config.tile_nnz.max(1)
    };
    let mut weighted: Vec<(Tile, usize)> = Vec::new();
    for (bin, (d, p)) in dispatch.iter().zip(payloads).enumerate() {
        match p {
            BinPayload::Packed(packed) => {
                let n_chunks = packed.n_chunks();
                let mut start = 0usize;
                let mut acc = 0usize;
                for c in 0..n_chunks {
                    acc += packed.chunk_nnz(c);
                    if acc >= tile_nnz {
                        weighted.push((
                            Tile {
                                bin,
                                start,
                                end: c + 1,
                            },
                            acc,
                        ));
                        start = c + 1;
                        acc = 0;
                    }
                }
                if start < n_chunks {
                    weighted.push((
                        Tile {
                            bin,
                            start,
                            end: n_chunks,
                        },
                        acc,
                    ));
                }
            }
            // Blocked and specialized bins tile over row spans exactly
            // like CSR bins — every strip of a row lives inside one tile,
            // and the run kernels clip their runs to tile spans — so tile
            // disjointness covers every partial-sum write.
            BinPayload::Csr
            | BinPayload::Blocked { .. }
            | BinPayload::DenseRun(_)
            | BinPayload::Banded(_)
            | BinPayload::RowRun(_) => {
                let parts = d.nnz.div_ceil(tile_nnz).max(1);
                let cuts = rows_nnz_cuts(a, &d.rows, parts);
                for w in cuts.windows(2) {
                    if w[0] < w[1] {
                        let nnz: usize = d.rows[w[0]..w[1]]
                            .iter()
                            .map(|&r| a.row_nnz(r as usize))
                            .sum();
                        weighted.push((
                            Tile {
                                bin,
                                start: w[0],
                                end: w[1],
                            },
                            nnz,
                        ));
                    }
                }
            }
        }
    }
    weighted.sort_by_key(|&(_, w)| std::cmp::Reverse(w));
    weighted.into_iter().unzip()
}

/// A plan whose write sets have been *proven* disjoint, in-bounds, and
/// covering by [`SpmvPlan::verify`] — the token that unlocks
/// [`execute_unchecked`](VerifiedPlan::execute_unchecked).
///
/// The only way to obtain one is through `verify`; the wrapped plan is
/// immutable from outside, so the proof cannot go stale for the pattern
/// it was established against.
pub struct VerifiedPlan<T: Scalar> {
    plan: SpmvPlan<T>,
}

impl<T: Scalar> VerifiedPlan<T> {
    /// Execute without the per-call pattern check.
    ///
    /// Validation is O(1): vector lengths plus the matrix's dimensions
    /// and NNZ against the compiled fingerprint. Neither the pattern
    /// generation nor the checksums are consulted — a matrix of another
    /// generation would cost the checked path O(m + nnz), which is the
    /// cost the verification proof paid for once. Handing this a different matrix that happens to
    /// share dimensions and NNZ therefore produces wrong *values* (never
    /// undefined behaviour: row reads still go through bounds-checked
    /// slices, and output writes were proven in-bounds for this shape).
    /// Value-only updates — the intended use — are always fine.
    pub fn execute_unchecked(
        &self,
        a: &CsrMatrix<T>,
        v: &[T],
        u: &mut [T],
    ) -> Result<LaunchCost, PlanError> {
        let fp = &self.plan.pattern.fingerprint;
        if v.len() != fp.n {
            return Err(PlanError::DimensionMismatch {
                what: "input vector",
                expected: fp.n,
                got: v.len(),
            });
        }
        if u.len() != fp.m {
            return Err(PlanError::DimensionMismatch {
                what: "output vector",
                expected: fp.m,
                got: u.len(),
            });
        }
        if a.n_rows() != fp.m || a.n_cols() != fp.n || a.nnz() != fp.nnz {
            return Err(PlanError::PatternMismatch {
                expected: *fp,
                got: PatternFingerprint::of(a),
            });
        }
        Ok(self.plan.launch_all(a, v, u))
    }

    /// The checked execute path (the full pattern check), for callers
    /// that want the proof *and* the per-call pattern guard.
    pub fn execute(&self, a: &CsrMatrix<T>, v: &[T], u: &mut [T]) -> Result<LaunchCost, PlanError> {
        self.plan.execute(a, v, u)
    }

    /// Batched execute without the per-call pattern check: the
    /// SpMM counterpart of [`execute_unchecked`](Self::execute_unchecked),
    /// with the same O(1) validation contract. The verification proof
    /// already covered the batched write set — `check_payloads` proves
    /// the RHS-block decomposition partitions `[0, K)` for a sweep of
    /// widths, so the (tile × block) queue writes each output element
    /// exactly once.
    pub fn execute_batch_unchecked(
        &self,
        a: &CsrMatrix<T>,
        x: &DenseBlock<T>,
        y: &mut DenseBlock<T>,
    ) -> Result<LaunchCost, PlanError> {
        let fp = &self.plan.pattern.fingerprint;
        self.plan.check_batch_dims(x, y)?;
        if a.n_rows() != fp.m || a.n_cols() != fp.n || a.nnz() != fp.nnz {
            return Err(PlanError::PatternMismatch {
                expected: *fp,
                got: PatternFingerprint::of(a),
            });
        }
        Ok(self.plan.launch_all_batch(a, x, y))
    }

    /// Batched execute with the full per-call pattern guard.
    pub fn execute_batch(
        &self,
        a: &CsrMatrix<T>,
        x: &DenseBlock<T>,
        y: &mut DenseBlock<T>,
    ) -> Result<LaunchCost, PlanError> {
        self.plan.execute_batch(a, x, y)
    }

    /// The underlying plan.
    pub fn plan(&self) -> &SpmvPlan<T> {
        &self.plan
    }

    /// The pattern this plan is bound to (cache-key convenience; same as
    /// `plan().fingerprint()`).
    pub fn fingerprint(&self) -> &PatternFingerprint {
        &self.plan.pattern.fingerprint
    }

    /// Unwrap, dropping the proof token.
    pub fn into_inner(self) -> SpmvPlan<T> {
        self.plan
    }
}

impl<T: Scalar> std::fmt::Debug for VerifiedPlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifiedPlan")
            .field("plan", &self.plan)
            .finish()
    }
}

impl<T: Scalar> std::fmt::Debug for SpmvPlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SpmvPlan")
            .field("strategy", &self.strategy)
            .field("fingerprint", &self.pattern.fingerprint)
            .field("launches", &self.dispatch.len())
            .field("backend", &self.backend.name())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinningScheme;
    use crate::exec::{NativeCpuBackend, SimGpuBackend};
    use spmv_gpusim::GpuDevice;
    use spmv_sparse::gen;
    use spmv_sparse::scalar::approx_eq;

    fn plan_for(a: &CsrMatrix<f64>) -> SpmvPlan<f64> {
        let strategy = Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Serial; 8],
        };
        SpmvPlan::compile(
            a,
            strategy,
            Box::new(SimGpuBackend::new(GpuDevice::kaveri())),
        )
    }

    #[test]
    fn a_bin_with_a_row_over_512_entries_packs() {
        // 96 rows of 600–700 entries and one of 1 400 in one bin: the
        // long row is one lane of a chunk, and the padding gate, not
        // its length, decides.
        let mut coo = spmv_sparse::CooMatrix::<f64>::new(97, 2_000);
        for r in 0..97usize {
            let len = if r == 40 { 1_400 } else { 600 + (r * 37) % 101 };
            for j in 0..len {
                coo.push(r, (r * 13 + j * 7) % 2_000, ((r + j) % 11) as f64 - 5.0);
            }
        }
        let a = coo.to_csr();
        assert!(a.row_nnz(40) > 512);
        let plan = SpmvPlan::compile(
            &a,
            Strategy {
                binning: BinningScheme::Single,
                kernels: vec![KernelId::Serial],
            },
            Box::new(NativeCpuBackend::new()),
        );
        assert_eq!(plan.dispatch().len(), 1);
        assert!(
            matches!(plan.dispatch()[0].format, BinFormat::PackedSell { .. }),
            "long-row bin stayed {:?}",
            plan.dispatch()[0].format
        );
        let v: Vec<f64> = (0..a.n_cols()).map(|i| (i % 9) as f64 - 4.0).collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let verified = plan.verify(&a).expect("long-row packed plan verifies");
        let mut u = vec![f64::NAN; a.n_rows()];
        verified.execute_unchecked(&a, &v, &mut u).unwrap();
        assert_eq!(u, reference);
    }

    #[test]
    fn fingerprint_distinguishes_structures_not_values() {
        let a = gen::random_uniform::<f64>(200, 200, 1, 6, 1);
        let mut b = a.clone();
        b.fill_values_with(|k| k as f64 * 0.5);
        assert_eq!(PatternFingerprint::of(&a), PatternFingerprint::of(&b));
        let c = gen::random_uniform::<f64>(200, 200, 1, 6, 2);
        assert_ne!(PatternFingerprint::of(&a), PatternFingerprint::of(&c));
    }

    #[test]
    fn execute_matches_reference_and_reuses_across_value_updates() {
        let mut a = gen::powerlaw::<f64>(500, 1, 80, 2.1, 9);
        let plan = plan_for(&a);
        let v: Vec<f64> = (0..a.n_cols()).map(|i| (i % 4) as f64).collect();
        for round in 0..3 {
            let mut u = vec![0.0f64; a.n_rows()];
            plan.execute(&a, &v, &mut u).unwrap();
            let reference = a.spmv_seq_alloc(&v).unwrap();
            for i in 0..a.n_rows() {
                assert!(
                    approx_eq(u[i], reference[i], a.row_nnz(i).max(1)),
                    "round {round} row {i}"
                );
            }
            a.fill_values_with(|k| ((k + round) % 7) as f64 - 3.0);
        }
    }

    #[test]
    fn confirm_checksum_is_independent_of_fnv() {
        // Same multiset of row-pointer values in a different order: the
        // position-mixed confirm checksum must separate what a purely
        // value-driven digest could conflate, and any structural change
        // must move it.
        let a = [0usize, 2, 5, 9];
        let b = [0usize, 5, 2, 9];
        assert_ne!(confirm_row_ptr(&a), confirm_row_ptr(&b));
        assert_eq!(confirm_row_ptr(&a), confirm_row_ptr(&[0, 2, 5, 9]));
        let m = gen::random_uniform::<f64>(200, 200, 1, 6, 1);
        let mut v = m.clone();
        v.fill_values_with(|k| k as f64);
        // Value-only updates leave the structural confirm unchanged.
        assert_eq!(
            PatternFingerprint::confirm_of(&m),
            PatternFingerprint::confirm_of(&v)
        );
        // A permutation and the identity share `row_ptr`; the columns
        // separate them.
        let ptr = vec![0, 1, 2, 3];
        let eye = CsrMatrix::from_parts(3, 3, ptr.clone(), vec![0, 1, 2], vec![1.0; 3]).unwrap();
        let perm = CsrMatrix::from_parts(3, 3, ptr, vec![1, 2, 0], vec![1.0; 3]).unwrap();
        assert_eq!(PatternFingerprint::of(&eye), PatternFingerprint::of(&perm));
        assert_ne!(
            PatternFingerprint::confirm_of(&eye),
            PatternFingerprint::confirm_of(&perm)
        );
    }

    #[test]
    fn cache_key_freezes_every_knob_including_floats() {
        let base = PlanConfig::default();
        assert_eq!(base.cache_key(), PlanConfig::default().cache_key());
        let padded = PlanConfig {
            max_padding: 1.25 + f64::EPSILON,
            ..base
        };
        assert_ne!(base.cache_key(), padded.cache_key());
        let streaming = PlanConfig {
            llc_bytes: 0,
            ..base
        };
        assert_ne!(base.cache_key(), streaming.cache_key());
    }

    #[test]
    fn structural_mismatch_is_a_typed_error() {
        let a = gen::random_uniform::<f64>(300, 300, 2, 5, 3);
        let b = gen::random_uniform::<f64>(300, 300, 2, 5, 4);
        let plan = plan_for(&a);
        let v = vec![1.0f64; 300];
        let mut u = vec![0.0f64; 300];
        match plan.execute(&b, &v, &mut u) {
            Err(PlanError::PatternMismatch { .. }) => {}
            other => panic!("expected PatternMismatch, got {other:?}"),
        }
    }

    #[test]
    fn dimension_mismatch_is_a_typed_error() {
        let a = gen::random_uniform::<f64>(100, 120, 1, 4, 5);
        let plan = plan_for(&a);
        let mut u = vec![0.0f64; 100];
        assert!(matches!(
            plan.execute(&a, &[0.0; 7], &mut u),
            Err(PlanError::DimensionMismatch {
                what: "input vector",
                ..
            })
        ));
        assert!(matches!(
            plan.execute(&a, &vec![0.0; 120], &mut [0.0; 3]),
            Err(PlanError::DimensionMismatch {
                what: "output vector",
                ..
            })
        ));
    }

    #[test]
    fn dispatch_covers_every_row_exactly_once() {
        let a = gen::powerlaw::<f64>(700, 1, 120, 2.0, 6);
        let plan = plan_for(&a);
        let mut seen = vec![0usize; a.n_rows()];
        for d in plan.dispatch() {
            for &r in &d.rows {
                seen[r as usize] += 1;
            }
        }
        assert!(seen.iter().all(|&c| c == 1));
    }

    #[test]
    fn verified_plan_unchecked_matches_checked_bit_for_bit() {
        let a = gen::powerlaw::<f64>(600, 1, 110, 2.0, 11);
        let strategy = Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: (0..8)
                .map(|b| {
                    if b < 2 {
                        KernelId::Serial
                    } else {
                        KernelId::Subvector(16)
                    }
                })
                .collect(),
        };
        let checked = SpmvPlan::compile(&a, strategy.clone(), Box::new(NativeCpuBackend::new()));
        let verified = SpmvPlan::compile(&a, strategy, Box::new(NativeCpuBackend::new()))
            .verify(&a)
            .unwrap();
        let v: Vec<f64> = (0..a.n_cols())
            .map(|i| ((i * 7) % 13) as f64 - 6.0)
            .collect();
        let mut u1 = vec![0.0f64; a.n_rows()];
        let mut u2 = vec![0.0f64; a.n_rows()];
        checked.execute(&a, &v, &mut u1).unwrap();
        verified.execute_unchecked(&a, &v, &mut u2).unwrap();
        assert_eq!(u1, u2, "unchecked path must be bit-identical");
    }

    #[test]
    fn verify_rejects_the_wrong_matrix() {
        let a = gen::random_uniform::<f64>(200, 200, 1, 5, 1);
        let b = gen::random_uniform::<f64>(200, 200, 1, 5, 2);
        let plan = plan_for(&a);
        match plan.verify(&b) {
            Err(crate::verify::VerifyError::PatternMismatch { .. }) => {}
            other => panic!("expected PatternMismatch, got {other:?}"),
        }
    }

    #[test]
    fn unchecked_still_catches_dimension_and_shape_errors() {
        let a = gen::random_uniform::<f64>(150, 170, 1, 4, 9);
        let verified = plan_for(&a).verify(&a).unwrap();
        let mut u = vec![0.0f64; 150];
        assert!(matches!(
            verified.execute_unchecked(&a, &[0.0; 3], &mut u),
            Err(PlanError::DimensionMismatch {
                what: "input vector",
                ..
            })
        ));
        // A structurally different matrix with a different nnz count is
        // still rejected in O(1).
        let b = gen::random_uniform::<f64>(150, 170, 2, 6, 10);
        let v = vec![0.0f64; 170];
        assert!(matches!(
            verified.execute_unchecked(&b, &v, &mut u),
            Err(PlanError::PatternMismatch { .. })
        ));
    }

    #[test]
    fn native_plan_matches_sim_plan() {
        let a = gen::powerlaw::<f64>(400, 1, 90, 2.2, 7);
        let strategy = Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: (0..8)
                .map(|b| {
                    if b < 4 {
                        KernelId::Serial
                    } else {
                        KernelId::Vector
                    }
                })
                .collect(),
        };
        let sim = SpmvPlan::compile(
            &a,
            strategy.clone(),
            Box::new(SimGpuBackend::new(GpuDevice::kaveri())),
        );
        let cpu = SpmvPlan::compile(&a, strategy, Box::new(NativeCpuBackend::new()));
        let v: Vec<f64> = (0..a.n_cols())
            .map(|i| ((i * 3) % 11) as f64 - 5.0)
            .collect();
        let mut u1 = vec![0.0f64; a.n_rows()];
        let mut u2 = vec![0.0f64; a.n_rows()];
        sim.execute(&a, &v, &mut u1).unwrap();
        cpu.execute(&a, &v, &mut u2).unwrap();
        for i in 0..a.n_rows() {
            assert!(approx_eq(u1[i], u2[i], a.row_nnz(i).max(1)), "row {i}");
        }
    }

    #[test]
    fn padding_model_is_the_packed_slot_count() {
        // Several sort windows at every candidate height, empty rows
        // included: the auto-chunk model must price the layout the
        // packer realises, not a whole-bin sort.
        use spmv_sparse::gen::mixture::RowRegime;
        let a = gen::mixture::<f64>(
            3_000,
            3_000,
            &[RowRegime::new(0, 6, 0.7), RowRegime::new(10, 40, 0.3)],
            true,
            5,
        );
        let rows: Vec<u32> = (0..3_000u32).map(|i| (i * 1_201) % 3_000).collect();
        let lens: Vec<usize> = rows.iter().map(|&r| a.row_nnz(r as usize)).collect();
        let nnz: usize = lens.iter().sum();
        for c in [2, 4, 8] {
            let packed = PackedSell::from_rows(&a, &rows, c);
            assert_eq!(
                packed_padding(&lens, nnz, c),
                packed.padding_ratio(),
                "chunk {c}"
            );
        }
    }
}
