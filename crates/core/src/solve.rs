//! Level-scheduled sparse triangular solves (SpTRSV) and the symmetric
//! Gauss-Seidel sweep (SymGS) behind the same plan/verify split as
//! SpMV.
//!
//! A triangular solve carries row-to-row dependencies, so its parallel
//! schedule is a *claim* that needs proving, exactly like an SpMV
//! plan's write sets. The pipeline mirrors `SpmvPlan → VerifiedPlan`:
//!
//! 1. [`SolvePlan::build`] turns a triangular matrix into a barrier-
//!    stepped schedule: the level sets of the dependency DAG, with runs
//!    of light levels merged into barrier-free serial chunks (by default
//!    a level gets a parallel step only when its work — stored entries
//!    plus rows — reaches [`PARALLEL_MIN_WORK`] and its rows fill a
//!    lock-step chunk per worker;
//!    [`SolveConfig::min_parallel_rows`] sets a row count instead) and
//!    parallel levels split across workers by work-balanced cuts. Each
//!    level's rows run as the lanes of SELL-C chunks (below).
//! 2. [`SolvePlan::verify`] hands the schedule and the plan's snapshot
//!    to the dependency-order prover ([`check_solve_snapshot`]), which
//!    re-derives from the structure alone that every row is scheduled
//!    exactly once, reads only rows finalised before it, and owns a
//!    structural diagonal, and that the snapshot mirrors the matrix.
//!    Success mints a [`VerifiedSolvePlan`] — unforgeable outside this
//!    module — whose [`solve_unchecked`](VerifiedSolvePlan::solve_unchecked)
//!    validates each call in O(1).
//! 3. [`SymgsPlan`] composes a proven residual slab (`U·x`, rows in row
//!    order) with one forward and one backward verified solve into the
//!    SymGS sweep, bit-for-bit identical to
//!    [`spmv_sparse::solve::symgs_seq`]. All three read the general
//!    matrix itself, each its own triangle; the sweep keeps no split.
//!    The forward solve runs in its emitting mode: beside each row it
//!    solves it forms that row's backward residual `b - L·x` from the
//!    entries it has just read, so a sweep reads `L` once.
//!
//! ## Why the plan snapshots its structure
//!
//! The SpMV kernels read the caller's matrix each call, and their proof
//! survives that because a wrong matrix only changes *values* read
//! through bounds-checked slices. A solve kernel is sharper: dependency
//! order is a property of the *column indices*, and the unchecked path
//! does not re-read them. So the plan copies the structure at build
//! time and the kernel reads structure only from that copy. Memory
//! safety therefore never depends on what the caller passes — a
//! mismatched matrix yields wrong numbers, never a data race — and
//! `solve_unchecked` stays a safe fn.
//!
//! The copy is a [`SellSlab`] (the SELL-C layout packed SpMV bins use,
//! with each row's off-diagonals — a sweep's half: its entries on the
//! solve's side — in its lane and its diagonal kept apart), laid out
//! the way the schedule runs: position `p` is the
//! `p`-th row the steps run ([`SolveSnapshot`] is the copied-out form).
//! The positions of each level form *lock-step chunks* of 1, 2, 4 or 8
//! lanes that never straddle a level: the level's rows are sorted by
//! length, longest first, within windows of 256, and grouped `C` at a
//! time, `C` picked per level by the packed SpMV gate's padding rule
//! (`C = 1`, a plain row per chunk, when no height packs tightly; a
//! level's remainder splits into narrower chunks). A chunk's lanes run
//! together — no per-row loop of 0–3 entries and its branch miss — and
//! each keeps its own arithmetic chain, so results stay bit for bit
//! those of `sptrsv_seq`. Columns are `u16` when the system has at most
//! 65 536 rows, else `u32`. A step is a span of chunks (a parallel step,
//! one span per worker), so the kernel streams the slab front to back
//! rather than chasing a natural-order CSR through row lists, where
//! every row of a level would be a cache miss on `row_ptr`, `col_idx`
//! and `values`. The row column is the schedule's only copy of its row
//! order.
//!
//! Columns are frozen at build; values and diagonals are re-gathered
//! only when the matrix handed to a solve carries a different
//! [`CsrMatrix::values_id`]: the refresh walks that matrix's rows in
//! schedule order under the slab's write lock, so it keeps no
//! per-entry source map, and a solve holds the slab's lock (read, or
//! the write lock it refreshed under) from start to end, so a refresh
//! never lands mid-solve.

use crate::kernels::solve::{solve_chunks, XVec};
use crate::plan::{pick_auto_chunk, PatternBinding, PatternFingerprint, PlanConfig, PlanError};
use crate::verify::{prove_residual, prove_solve, VerifyError};
use spmv_parallel::{fused_for_each_with, num_threads, stepped_for_each};
use spmv_sparse::packed::{Cols, Entries, SlabCol, SORT_WINDOW_CHUNKS};
use spmv_sparse::solve::{level_order_with_offdiag, SolveDirection, TriangularHalves};
use spmv_sparse::{CsrMatrix, PackedSell, Scalar, SellSlab, SlabRef, SlabTamper, SolveBuildError};
use std::sync::OnceLock;

#[cfg(doc)]
use crate::verify::check_solve_snapshot;

/// Tuning knobs for building a [`SolvePlan`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveConfig {
    /// Worker-team size. `0` (the default) resolves to
    /// [`spmv_parallel::num_threads`]. `1` builds an all-serial plan
    /// with zero barriers.
    pub workers: usize,
    /// Which levels get a barrier-stepped parallel step of their own;
    /// the others merge with their neighbours into serial, barrier-free
    /// chunks. `0` (the default) is the auto merge: a level is parallel
    /// when its work — stored entries plus rows — reaches
    /// [`PARALLEL_MIN_WORK`], below which a barrier costs more than the
    /// exposed parallelism buys, and it packs into at least one lock-step
    /// chunk per worker. Any other value is a row count: levels
    /// with at least this many rows are parallel, so `usize::MAX`
    /// serialises everything and `1` keeps every level parallel.
    pub min_parallel_rows: usize,
}

/// Work (stored entries plus rows) a level needs before the auto merge
/// (`min_parallel_rows = 0`) gives it a parallel step; lighter levels
/// join the serial chunk around them. One constant for every matrix and
/// team size: a team barrier costs about as much as streaming this much
/// work (DESIGN §11 has the measured table).
pub const PARALLEL_MIN_WORK: usize = 2048;

impl SolveConfig {
    /// The worker-team size, `0 = auto` resolved.
    fn team(self) -> usize {
        if self.workers == 0 {
            num_threads()
        } else {
            self.workers
        }
        .max(1)
    }

    /// Whether a level of `rows` rows in `chunks` lock-step chunks, with
    /// `work` stored entries plus rows, gets a parallel step of its own
    /// on a `team`-worker plan. Cuts fall on chunk boundaries, so the
    /// auto merge also needs a chunk per worker: a level of fewer chunks
    /// (one row with thousands of entries, say) would leave a role idle
    /// and pay two barriers for no parallelism.
    fn parallel_level(self, team: usize, rows: usize, chunks: usize, work: usize) -> bool {
        team > 1
            && match self.min_parallel_rows {
                0 => work >= PARALLEL_MIN_WORK && chunks >= team,
                min => rows >= min,
            }
    }
}

/// One barrier-separated step of a solve schedule.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SolveStep {
    /// Rows executed in listed order by one worker (a merged run of
    /// tiny levels). Later rows of the chunk may depend on earlier
    /// ones — same-worker program order needs no barrier.
    Serial {
        /// Rows of the chunk, in dependency-respecting order.
        rows: Vec<u32>,
    },
    /// One level, split across the worker team: worker `r` executes
    /// `rows[cuts[r]..cuts[r + 1]]`. Rows of a level are mutually
    /// independent, so any split is race-free once proven a partition.
    Parallel {
        /// The level's rows.
        rows: Vec<u32>,
        /// NNZ-balanced cut positions into `rows`, length `workers + 1`.
        cuts: Vec<usize>,
    },
}

impl SolveStep {
    /// The rows this step executes, in order.
    pub fn rows(&self) -> &[u32] {
        match self {
            SolveStep::Serial { rows } | SolveStep::Parallel { rows, .. } => rows,
        }
    }

    /// Does the whole worker team participate in this step?
    pub fn is_parallel(&self) -> bool {
        matches!(self, SolveStep::Parallel { .. })
    }
}

/// A solve plan's schedule-ordered slab, copied out by
/// [`SolvePlan::snapshot`] for inspection and for the public prover
/// entry [`check_solve_snapshot`]. Position `p` is the `p`-th row the
/// schedule runs; positions form the lock-step chunks the kernel runs
/// (see the module docs).
#[derive(Clone, Debug, PartialEq)]
pub struct SolveSnapshot<T> {
    /// Row id at each position.
    pub rows: Vec<u32>,
    /// Chunk `k` runs positions `chunk_ptr[k]..chunk_ptr[k + 1]` as its
    /// lanes: 1, 2, 4 or 8 of them, all rows of one level.
    pub chunk_ptr: Vec<usize>,
    /// Chunk `k`'s entries are slots `slot_ptr[k]..slot_ptr[k + 1]`.
    pub slot_ptr: Vec<usize>,
    /// Off-diagonal count at each position.
    pub lens: Vec<u32>,
    /// Off-diagonal columns, column-major per chunk ([`SlabRef`]).
    pub cols: Cols,
    /// The values of `cols`.
    pub vals: Vec<T>,
    /// Diagonal value at each position.
    pub diag: Vec<T>,
}

impl<T: Scalar> SolveSnapshot<T> {
    /// A copy of a held slab.
    fn of(slab: SlabRef<'_, T>) -> Self {
        SolveSnapshot {
            rows: slab.rows.to_vec(),
            chunk_ptr: slab.chunk_ptr.to_vec(),
            slot_ptr: slab.slot_ptr.to_vec(),
            lens: slab.lens.to_vec(),
            cols: slab.cols.clone(),
            vals: slab.vals.to_vec(),
            diag: slab.diag.to_vec(),
        }
    }

    /// The snapshot as a slab over a system of `n` columns.
    pub(crate) fn view(&self, n: usize) -> SlabRef<'_, T> {
        SlabRef {
            n_cols: n,
            rows: &self.rows,
            lens: &self.lens,
            chunk_ptr: &self.chunk_ptr,
            slot_ptr: &self.slot_ptr,
            cols: &self.cols,
            vals: &self.vals,
            diag: &self.diag,
        }
    }

    /// The same positions laid out afresh: position `q` of the result is
    /// position `order[q]` of this snapshot (row, diagonal and entries),
    /// and the result's chunks take `heights[0]`, `heights[1]`, …
    /// positions in turn, each with as many slots per lane as its first
    /// lane's length (lengths are carried over, not re-sorted). Whether
    /// the result is a valid layout is the prover's to say; this is for
    /// building the layouts it must reject.
    ///
    /// # Panics
    ///
    /// If `heights` does not sum to `order.len()`, or an index is out of
    /// bounds.
    pub fn relaid(&self, order: &[usize], heights: &[usize]) -> Self {
        assert_eq!(
            heights.iter().sum::<usize>(),
            order.len(),
            "heights tile the order"
        );
        let (mut chunk_ptr, mut slot_ptr) = (vec![0], vec![0]);
        let mut entries = Vec::new();
        for &lanes in heights {
            let (q0, s0) = (chunk_ptr[chunk_ptr.len() - 1], slot_ptr[slot_ptr.len() - 1]);
            let width = self.lens[order[q0]] as usize;
            for (l, &p) in order[q0..q0 + lanes].iter().enumerate() {
                let lane = self.view(0).entries(p).take(width).enumerate();
                entries.extend(lane.map(|(j, e)| (s0 + j * lanes + l, e)));
            }
            chunk_ptr.push(q0 + lanes);
            slot_ptr.push(s0 + width * lanes);
        }
        let slots = slot_ptr[slot_ptr.len() - 1];
        let (mut cols, mut vals) = (self.cols.zeroed_like(slots), vec![T::ZERO; slots]);
        for (slot, (c, v)) in entries {
            cols.set(slot, c);
            vals[slot] = v;
        }
        SolveSnapshot {
            rows: order.iter().map(|&p| self.rows[p]).collect(),
            chunk_ptr,
            slot_ptr,
            lens: order.iter().map(|&p| self.lens[p]).collect(),
            cols,
            vals,
            diag: order.iter().map(|&p| self.diag[p]).collect(),
        }
    }
}

/// The lock-step layouts the dependency-order prover must reject on top
/// of the shared chunk shape ([`SlabTamper`]), each built from an honest
/// plan's schedule ([`SolvePlan::steps`]) and snapshot
/// ([`SolvePlan::snapshot`]) by [`apply`](Self::apply). The tests of
/// [`check_solve_snapshot`] and the spmv-lint tamper sweep share them.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum LayoutTamper {
    /// Move a row to just after its latest dependency, one no shorter
    /// (a legal order, in length order), and make the pair one two-lane
    /// chunk under a single serial step, every other position a chunk
    /// of its own. A chunk's lanes read together, so the moved row
    /// reads its dependency before it is written: a
    /// [`VerifyError::SolveDependencyViolated`].
    LaneReadsLane,
    /// Move a parallel step's role cut one position into a chunk of
    /// several lanes.
    RoleCutInChunk,
}

impl LayoutTamper {
    /// Every tamper, in declaration order.
    pub const ALL: [Self; 2] = [Self::LaneReadsLane, Self::RoleCutInChunk];

    /// Break `steps` and `snap` in place and return the position the
    /// rejection must name (for [`LaneReadsLane`](Self::LaneReadsLane),
    /// the reading lane's; its dependency is the position before).
    /// `None`, with both left as they were, when the plan offers no site
    /// for this tamper.
    pub fn apply<T: Scalar>(
        self,
        steps: &mut Vec<SolveStep>,
        snap: &mut SolveSnapshot<T>,
    ) -> Option<usize> {
        let n = snap.rows.len();
        match self {
            Self::LaneReadsLane => {
                let mut pos = vec![0; n];
                for (q, &r) in snap.rows.iter().enumerate() {
                    pos[r as usize] = q;
                }
                let latest = |q: usize| snap.view(0).entries(q).map(|(c, _)| pos[c as usize]).max();
                let (p, q) = (0..n).find_map(|q| {
                    latest(q)
                        .filter(|&p| snap.lens[p] >= snap.lens[q])
                        .map(|p| (p, q))
                })?;
                let order: Vec<usize> = (0..=p)
                    .chain([q])
                    .chain((p + 1..n).filter(|&x| x != q))
                    .collect();
                let mut heights = vec![1; n - 1];
                heights[p] = 2;
                *snap = snap.relaid(&order, &heights);
                *steps = vec![SolveStep::Serial {
                    rows: snap.rows.clone(),
                }];
                Some(p + 1)
            }
            Self::RoleCutInChunk => {
                let mut start = 0;
                for st in steps {
                    let len = st.rows().len();
                    if let SolveStep::Parallel { cuts, .. } = st {
                        for r in 1..cuts.len() - 1 {
                            let at = start + cuts[r];
                            let k = snap.chunk_ptr.partition_point(|&x| x <= at) - 1;
                            let wide = snap.chunk_ptr[k + 1] - snap.chunk_ptr[k] >= 2;
                            if cuts[r] < cuts[r + 1] && wide {
                                cuts[r] += 1;
                                return Some(at + 1);
                            }
                        }
                    }
                    start += len;
                }
                None
            }
        }
    }
}

/// A compiled level-set schedule for one triangular solve, bound to the
/// sparsity pattern it was built from. Build once per structure with
/// [`SolvePlan::build`], then [`solve`](SolvePlan::solve) repeatedly as
/// values change — or promote to a [`VerifiedSolvePlan`] via
/// [`verify`](SolvePlan::verify) to drop the per-call pattern check.
pub struct SolvePlan<T: Scalar> {
    direction: SolveDirection,
    pattern: PatternBinding,
    /// The schedule-ordered slab (see the module docs): the kernel
    /// reads structure only from here.
    slab: SellSlab<T>,
    /// Per step, its chunk bounds: `[start, end]` for a serial step,
    /// one start per worker role plus the end for a parallel step.
    bounds: Vec<Vec<usize>>,
    /// Whether each step is parallel, for `stepped_for_each`.
    parallel_flags: Vec<bool>,
    n_levels: usize,
    workers: usize,
}

// Plans and their proof tokens cross threads in a multi-tenant runtime;
// a `!Sync` field must fail to compile here, not at a caller.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<SolvePlan<f32>>();
    assert_send_sync::<VerifiedSolvePlan<f32>>();
    assert_send_sync::<VerifiedSolvePlan<f64>>();
    assert_send_sync::<SymgsPlan<f32>>();
    assert_send_sync::<SymgsPlan<f64>>();
};

/// The lane counts a chunk may have, widest first: a level's trailing
/// partial chunk splits into these, so every chunk runs a fixed-width
/// kernel.
const LANES: [usize; 4] = [8, 4, 2, 1];

/// Per-level scratch of [`Layout::push_level`].
#[derive(Default)]
struct Scratch {
    lens: Vec<usize>,
    pairs: Vec<(usize, u32)>,
}

/// Sort a window's rows and their lengths together, longest first, ties
/// in their given order. `pairs` is scratch.
fn sort_longest_first(rows: &mut [u32], lens: &mut [usize], pairs: &mut Vec<(usize, u32)>) {
    pairs.clear();
    pairs.extend(lens.iter().copied().zip(rows.iter().copied()));
    pairs.sort_by_key(|p| std::cmp::Reverse(p.0));
    for ((r, l), &(pl, pr)) in rows.iter_mut().zip(lens.iter_mut()).zip(pairs.iter()) {
        (*r, *l) = (pr, pl);
    }
}

/// A slab's chunk structure under construction.
struct Layout {
    lens: Vec<u32>,
    chunk_ptr: Vec<usize>,
}

impl Layout {
    /// Pack one level (positions `level`) into lock-step chunks,
    /// reordering `level` in place; rows of a level are independent, so
    /// their order is free. Rows are sorted by off-diagonal count (`offd`,
    /// aligned with `level`), longest first, ties in level order, within
    /// windows of [`SORT_WINDOW_CHUNKS`] `· 8` rows — the `PackedSell`
    /// σ-sort at the widest height, which leaves every narrower height's
    /// windows sorted too. The chunk height `C` then comes from the
    /// packed SpMV gate's rule ([`pick_auto_chunk`], default padding
    /// bound), which so prices exactly this order; `C = 1` when it finds
    /// none. Rows are grouped `C` at a time.
    fn push_level(&mut self, level: &mut [u32], offd: &[u32], max_padding: f64, s: &mut Scratch) {
        s.lens.clear();
        s.lens.extend(offd.iter().map(|&l| l as usize));
        let c = if level.len() < 2 {
            1
        } else {
            let window = SORT_WINDOW_CHUNKS * LANES[0];
            for (rows, lens) in level.chunks_mut(window).zip(s.lens.chunks_mut(window)) {
                sort_longest_first(rows, lens, &mut s.pairs);
            }
            pick_auto_chunk(&s.lens, max_padding).unwrap_or(1)
        };
        for group in s.lens.chunks(c) {
            let mut rest = group;
            while let Some(&lanes) = LANES.iter().find(|&&l| l <= rest.len()) {
                let (chunk, tail) = rest.split_at(lanes);
                self.lens.extend(chunk.iter().map(|&l| l as u32));
                self.chunk_ptr.push(self.lens.len());
                rest = tail;
            }
        }
    }
}

/// Chunk indices splitting chunks `[k0, k1)` of a slab with lane lengths
/// `lens` and chunk bounds `chunk_ptr` into `parts` spans of roughly
/// equal work (stored entries plus rows): monotone, first `k0`, last
/// `k1` — `rows_nnz_cuts` with chunks for rows.
fn work_cuts(lens: &[u32], chunk_ptr: &[usize], k0: usize, k1: usize, parts: usize) -> Vec<usize> {
    let work = |k: usize| {
        let lanes = &lens[chunk_ptr[k]..chunk_ptr[k + 1]];
        lanes.len() + lanes.iter().map(|&l| l as usize).sum::<usize>()
    };
    let total: usize = (k0..k1).map(work).sum();
    let mut cuts = Vec::with_capacity(parts + 1);
    cuts.push(k0);
    let mut acc = 0;
    for k in k0..k1 {
        if cuts.len() >= parts {
            break;
        }
        acc += work(k);
        while cuts.len() < parts && acc >= total * cuts.len() / parts {
            cuts.push(k + 1);
        }
    }
    cuts.resize(parts, k1);
    cuts.push(k1);
    cuts
}

impl<T: Scalar> SolvePlan<T> {
    /// Build a schedule for `a` with the default [`SolveConfig`].
    /// Rejects non-square, non-triangular, or diagonal-deficient
    /// matrices with a typed [`SolveBuildError`].
    pub fn build(a: &CsrMatrix<T>, direction: SolveDirection) -> Result<Self, SolveBuildError> {
        Self::build_with(a, direction, SolveConfig::default())
    }

    /// [`build`](Self::build) with explicit tuning knobs.
    pub fn build_with(
        a: &CsrMatrix<T>,
        direction: SolveDirection,
        config: SolveConfig,
    ) -> Result<Self, SolveBuildError> {
        Self::build_of(a, direction, config, false)
    }

    /// [`build_with`](Self::build_with), or with `half` the plan of a
    /// SymGS sweep's `direction` half, straight from its general square
    /// matrix `a`: the other triangle's entries are skipped, the slab's
    /// lanes take `a`'s entries on `direction`'s side
    /// ([`Entries::Lower`] or [`Entries::Upper`]), and the plan is bound
    /// to the pattern of the half as [`TriangularHalves::from_slabs`]
    /// builds it (each row's strict entries and one diagonal), not to
    /// `a`'s: its own solve paths take that split's matrix.
    fn build_of(
        a: &CsrMatrix<T>,
        direction: SolveDirection,
        config: SolveConfig,
        half: bool,
    ) -> Result<Self, SolveBuildError> {
        // Levels in order are the run order; a step is a span of it.
        let (mut rows, starts, offd) = level_order_with_offdiag(a, direction, half)?;
        let (entries, pattern) = match (half, direction) {
            (false, _) => (Entries::OffDiagonal, PatternBinding::of(a)),
            (true, SolveDirection::Forward) => (Entries::Lower, half_binding(a, &rows, &offd)),
            (true, SolveDirection::Backward) => (Entries::Upper, half_binding(a, &rows, &offd)),
        };
        let n_levels = starts.len() - 1;
        let workers = config.team();
        let max_padding = PlanConfig::default().max_padding;
        let mut lay = Layout {
            lens: Vec::with_capacity(rows.len()),
            chunk_ptr: Vec::with_capacity(rows.len() + 1),
        };
        lay.chunk_ptr.push(0);
        let mut scratch = Scratch::default();
        // Levels become parallel steps or join the serial chunk around
        // them. With one worker everything is a single serial chunk,
        // zero barriers — the deterministic reference schedule.
        let mut bounds: Vec<Vec<usize>> = Vec::new();
        let mut parallel_flags = Vec::new();
        let mut run_start = 0;
        for w in starts.windows(2) {
            let k0 = lay.chunk_ptr.len() - 1;
            let level = w[0]..w[1];
            lay.push_level(
                &mut rows[level.clone()],
                &offd[level],
                max_padding,
                &mut scratch,
            );
            let k1 = lay.chunk_ptr.len() - 1;
            let entries: usize = lay.lens[w[0]..w[1]].iter().map(|&l| l as usize).sum();
            let n = w[1] - w[0];
            if !config.parallel_level(workers, n, k1 - k0, entries + n) {
                continue;
            }
            if k0 > run_start {
                bounds.push(vec![run_start, k0]);
                parallel_flags.push(false);
            }
            bounds.push(work_cuts(&lay.lens, &lay.chunk_ptr, k0, k1, workers));
            parallel_flags.push(true);
            run_start = k1;
        }
        lay.chunk_ptr.shrink_to_fit();
        let n_chunks = lay.chunk_ptr.len() - 1;
        if n_chunks > run_start {
            bounds.push(vec![run_start, n_chunks]);
            parallel_flags.push(false);
        }
        // `level_order` proved every row has a diagonal; the last one
        // wins, as in `sptrsv_seq`.
        let slab = SellSlab::build(a, rows, lay.lens, lay.chunk_ptr, entries);
        Ok(Self {
            direction,
            pattern,
            slab,
            bounds,
            parallel_flags,
            n_levels,
            workers,
        })
    }

    /// Execute the solve with the per-call pattern guard: `a` must have
    /// the build matrix's pattern (O(1) for that matrix, a clone, or
    /// either after value updates; otherwise the fingerprint plus an
    /// exact comparison with the snapshot's columns, in storage order,
    /// O(nnz)), and `b`/`x` must have the system's length. Values come from `a` (re-gathered into the
    /// snapshot when its value generation changed), structure from the
    /// plan's snapshot.
    pub fn solve(&self, a: &CsrMatrix<T>, b: &[T], x: &mut [T]) -> Result<(), PlanError> {
        self.pattern.check(a, || self.mirrors(a))?;
        self.check_dims(b, x)?;
        self.run(a, b, x);
        Ok(())
    }

    /// Promote this plan to a [`VerifiedSolvePlan`] by running the
    /// dependency-order prover against `a`:
    ///
    /// 1. `a` must have the build matrix's pattern (generation, or
    ///    fingerprint plus the slab's columns) — the proof must be about
    ///    the matrix the caller will solve with;
    /// 2. the slab's values are brought up to date with `a`;
    /// 3. every obligation of [`check_solve_snapshot`] is proven on the
    ///    plan's own schedule and slab: rows scheduled exactly once and
    ///    finalised before any lane reads them (before its *chunk*
    ///    starts, as the lanes run together), structural diagonals, cuts
    ///    that partition each parallel step, the shared chunk shape
    ///    ([`SlabRef::check_shape`]) in chunks of 1, 2, 4 or 8 lanes that
    ///    no bound cuts, and slots holding each row's off-diagonals.
    ///
    /// The prover re-derives everything from the matrix in one row
    /// walk; it trusts nothing the builder wrote down.
    pub fn verify(self, a: &CsrMatrix<T>) -> Result<VerifiedSolvePlan<T>, VerifyError> {
        if let Some(got) = self.pattern.mismatch(a, || self.mirrors(a)) {
            return Err(VerifyError::PatternMismatch {
                expected: self.pattern.fingerprint,
                got,
            });
        }
        // The dimensions match (the pattern does), so the refresh may
        // read `a`'s rows.
        self.prove(a)?;
        Ok(VerifiedSolvePlan { plan: self })
    }

    /// The prover's obligations on this plan's schedule and slab,
    /// refreshed from `a` first; for a sweep's half, against the general
    /// matrix it was built from.
    fn prove(&self, a: &CsrMatrix<T>) -> Result<(), VerifyError> {
        let slab = self.slab.fresh(a);
        prove_solve(
            a,
            self.direction,
            self.slab.entries() != Entries::OffDiagonal,
            self.slab.rows(),
            &self.position_bounds(),
            &self.parallel_flags,
            self.workers,
            Some(slab.view()),
        )
    }

    /// The pattern this plan is bound to.
    pub fn fingerprint(&self) -> &PatternFingerprint {
        &self.pattern.fingerprint
    }

    /// The barrier-separated schedule, materialised from the slab's row
    /// order (a copy; the plan stores each step as a span).
    pub fn steps(&self) -> Vec<SolveStep> {
        self.steps_of(self.slab.rows())
    }

    /// The schedule over the row order `rows`.
    fn steps_of(&self, rows: &[u32]) -> Vec<SolveStep> {
        self.position_bounds()
            .iter()
            .zip(&self.parallel_flags)
            .map(|(b, &par)| {
                let (start, end) = (b[0], b[b.len() - 1]);
                let rows = rows[start..end].to_vec();
                if par {
                    let cuts = b.iter().map(|&c| c - start).collect();
                    SolveStep::Parallel { rows, cuts }
                } else {
                    SolveStep::Serial { rows }
                }
            })
            .collect()
    }

    /// A copy of the schedule-ordered slab, values as of the last solve,
    /// refresh or build.
    pub fn snapshot(&self) -> SolveSnapshot<T> {
        SolveSnapshot::of(self.slab.read().view())
    }

    /// The schedule and snapshot of a copy of this plan whose slab
    /// `tamper` broke, and the position the prover's rejection must
    /// name; `None` when the slab offers no site for it. Copies only:
    /// no plan is left to run the broken layout.
    pub fn tampered(
        &self,
        tamper: SlabTamper,
    ) -> Option<(Vec<SolveStep>, SolveSnapshot<T>, usize)> {
        let mut slab = self.slab.clone();
        let at = tamper.apply(&mut slab)?;
        let snap = SolveSnapshot::of(slab.read().view());
        Some((self.steps_of(slab.rows()), snap, at))
    }

    /// Rows that run as lanes of a chunk of two or more lanes, that is,
    /// in lock-step with other rows of their level.
    pub fn lockstep_rows(&self) -> usize {
        self.slab
            .chunk_ptr()
            .windows(2)
            .map(|w| w[1] - w[0])
            .filter(|&lanes| lanes > 1)
            .sum()
    }

    /// The steps' bounds as positions rather than chunks.
    fn position_bounds(&self) -> Vec<Vec<usize>> {
        let chunk_ptr = self.slab.chunk_ptr();
        self.bounds
            .iter()
            .map(|b| b.iter().map(|&k| chunk_ptr[k]).collect())
            .collect()
    }

    /// Depth of the dependency DAG (number of level sets).
    pub fn n_levels(&self) -> usize {
        self.n_levels
    }

    /// Barriers one solve pays: steps minus one for a real team, zero
    /// for a single worker (the level-merge knob exists to shrink
    /// this below `n_levels - 1`).
    pub fn n_barriers(&self) -> usize {
        if self.workers > 1 {
            self.bounds.len().saturating_sub(1)
        } else {
            0
        }
    }

    fn check_dims(&self, b: &[T], x: &[T]) -> Result<(), PlanError> {
        let fp = &self.pattern.fingerprint;
        if b.len() != fp.m {
            return Err(PlanError::DimensionMismatch {
                what: "rhs vector",
                expected: fp.m,
                got: b.len(),
            });
        }
        if x.len() != fp.n {
            return Err(PlanError::DimensionMismatch {
                what: "solution vector",
                expected: fp.n,
                got: x.len(),
            });
        }
        Ok(())
    }

    /// Whether `a`'s off-diagonal columns are the slab's, row for row in
    /// storage order, every row keeping a diagonal: the checked paths'
    /// exact column check for a matrix of another generation (the
    /// fingerprint has matched, so the shape and row lengths do). The
    /// order counts — the kernel subtracts in it — so a matrix whose
    /// rows [`CsrMatrix::sort_rows`] reordered is refused. O(nnz).
    fn mirrors(&self, a: &CsrMatrix<T>) -> bool {
        self.slab.read().first_mismatch(a).is_none()
    }

    /// March the worker team through the schedule with `a`'s values.
    /// Callers guarantee `a.n_rows() == m`, `b.len() == m`,
    /// `x.len() == n`; everything else the kernel needs holds by
    /// construction: the slab's structure came from a matrix
    /// `level_order` validated (square, on-triangle or a sweep's half of
    /// it, in-bounds columns, full diagonal), the steps run its levels in
    /// dependency order,
    /// and the fields are private so no safe code can change that
    /// structure after the build (a refresh rewrites values only).
    fn run(&self, a: &CsrMatrix<T>, b: &[T], x: &mut [T]) {
        self.run_with::<false>(a, b, x, &mut []);
    }

    /// [`run`](Self::run), emitting the SymGS residual into `r` when
    /// `EMIT` (see [`solve_chunks`]); callers of the emitting form
    /// also guarantee `r.len() == m`. The slab stays held, refreshed
    /// from `a` if stale, for the whole solve.
    fn run_with<const EMIT: bool>(&self, a: &CsrMatrix<T>, b: &[T], x: &mut [T], r: &mut [T]) {
        let guard = self.slab.fresh(a);
        let slab = guard.view();
        match slab.cols {
            Cols::Narrow(cols) => self.march::<_, EMIT>(slab, cols, b, x, r),
            Cols::Wide(cols) => self.march::<_, EMIT>(slab, cols, b, x, r),
        }
    }

    /// [`run_with`](Self::run_with) at one column width.
    fn march<C: SlabCol, const EMIT: bool>(
        &self,
        slab: SlabRef<'_, T>,
        cols: &[C],
        b: &[T],
        x: &mut [T],
        r: &mut [T],
    ) {
        let xv = XVec::new(x);
        let rv = XVec::new(r);
        stepped_for_each(self.workers, &self.parallel_flags, |step, role, _w| {
            let bounds = &self.bounds[step];
            // SAFETY: a serial step runs on role 0 alone, after every
            // earlier step; a parallel step is one level, whose rows
            // are mutually independent, and the roles' chunk spans are
            // disjoint — so this span races with nobody, and its
            // dependencies sit in earlier, barrier-separated steps or
            // earlier chunks of this worker's own serial run (a chunk
            // never straddles a level). The span's `r` slots are its
            // own rows, owned exactly as in `x`.
            unsafe {
                solve_chunks::<T, C, EMIT>(slab, cols, b, xv, rv, bounds[role], bounds[role + 1])
            }
        });
    }
}

impl<T: Scalar> std::fmt::Debug for SolvePlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolvePlan")
            .field("direction", &self.direction)
            .field("m", &self.pattern.fingerprint.m)
            .field("nnz", &self.pattern.fingerprint.nnz)
            .field("n_levels", &self.n_levels)
            .field("steps", &self.bounds.len())
            .field("lockstep_rows", &self.lockstep_rows())
            .field("workers", &self.workers)
            .finish()
    }
}

/// A solve plan whose schedule and snapshot have been *proven* by
/// [`SolvePlan::verify`] — the token that unlocks
/// [`solve_unchecked`](Self::solve_unchecked).
///
/// The only way to obtain one is through `verify`; the wrapped plan is
/// immutable from outside, so the proof cannot go stale for the pattern
/// it was established against.
pub struct VerifiedSolvePlan<T: Scalar> {
    plan: SolvePlan<T>,
}

impl<T: Scalar> VerifiedSolvePlan<T> {
    /// Solve without the per-call pattern check.
    ///
    /// Validation is O(1): vector lengths plus the matrix's dimensions
    /// and NNZ against the compiled fingerprint. Structure always comes
    /// from the proven snapshot, so handing this a different matrix
    /// that happens to share dimensions and NNZ produces wrong *values*
    /// (never undefined behaviour — the dependency order the threads
    /// rely on is a property of the snapshot, not of `a`). Value-only
    /// updates — the intended use — are always fine.
    pub fn solve_unchecked(&self, a: &CsrMatrix<T>, b: &[T], x: &mut [T]) -> Result<(), PlanError> {
        self.check_call(a, b, x)?;
        self.plan.run(a, b, x);
        Ok(())
    }

    /// The O(1) call validation of the unchecked paths.
    fn check_call(&self, a: &CsrMatrix<T>, b: &[T], x: &[T]) -> Result<(), PlanError> {
        let fp = &self.plan.pattern.fingerprint;
        self.plan.check_dims(b, x)?;
        if a.n_rows() != fp.m || a.n_cols() != fp.n || a.nnz() != fp.nnz {
            return Err(PlanError::PatternMismatch {
                expected: *fp,
                got: PatternFingerprint::of(a),
            });
        }
        Ok(())
    }

    /// The checked solve path (full pattern validation), for callers
    /// that want the proof *and* the per-call pattern guard.
    pub fn solve(&self, a: &CsrMatrix<T>, b: &[T], x: &mut [T]) -> Result<(), PlanError> {
        self.plan.solve(a, b, x)
    }

    /// The underlying plan.
    pub fn plan(&self) -> &SolvePlan<T> {
        &self.plan
    }
}

impl<T: Scalar> std::fmt::Debug for VerifiedSolvePlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("VerifiedSolvePlan")
            .field("plan", &self.plan)
            .finish()
    }
}

/// Why a composed solve pipeline ([`SymgsPlan`]) failed to build.
#[derive(Debug)]
pub enum SolveError {
    /// The matrix violated a structural premise (not square, not
    /// triangular where required, missing diagonal).
    Build(SolveBuildError),
    /// A component schedule or plan failed its verification proof —
    /// this indicates a planner bug, not bad input.
    Verify(VerifyError),
}

impl std::fmt::Display for SolveError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            SolveError::Build(e) => write!(f, "solve build rejected the matrix: {e}"),
            SolveError::Verify(e) => write!(f, "solve schedule failed verification: {e}"),
        }
    }
}

impl std::error::Error for SolveError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            SolveError::Build(e) => Some(e),
            SolveError::Verify(e) => Some(e),
        }
    }
}

impl From<SolveBuildError> for SolveError {
    fn from(e: SolveBuildError) -> Self {
        SolveError::Build(e)
    }
}

impl From<VerifyError> for SolveError {
    fn from(e: VerifyError) -> Self {
        SolveError::Verify(e)
    }
}

/// The binding of a sweep's half of `a` whose level order lists `rows`
/// with `offd` entries on the solve's side each: the pattern of that half
/// as [`TriangularHalves::from_slabs`] builds it, each row's entries
/// plus one diagonal, fingerprinted without storing it.
fn half_binding<T: Scalar>(a: &CsrMatrix<T>, rows: &[u32], offd: &[u32]) -> PatternBinding {
    let m = a.n_rows();
    let mut len = vec![0u32; m];
    for (&r, &l) in rows.iter().zip(offd) {
        len[r as usize] = l + 1;
    }
    let row_ptr = std::iter::once(0).chain(len.iter().scan(0, |end, &l| {
        *end += l as usize;
        Some(*end)
    }));
    PatternBinding::unbound(PatternFingerprint::of_row_ptr(m, a.n_cols(), row_ptr))
}

/// Spans of the residual slab per worker: the team drains them, so a
/// worker that finishes early takes another span.
const RESIDUAL_SPANS_PER_WORKER: usize = 8;

/// A sweep's residual `r = U·x_old`: every row's strictly upper entries
/// of the general matrix, in row order, as one packed slab
/// ([`Entries::StrictUpper`]) whose chunk spans the team drains.
struct Residual<T: Scalar> {
    /// Rows `0..m`, σ-sorted within windows, in chunks of the height
    /// [`pick_auto_chunk`] gives the strict upper row lengths (`1` when
    /// no height packs within the default padding bound).
    slab: PackedSell<T>,
    /// Work-balanced chunk spans: monotone, from `0` to the chunk count.
    cuts: Vec<usize>,
    workers: usize,
}

impl<T: Scalar> Residual<T> {
    /// Pack `a`'s strict upper triangle and prove the result
    /// ([`prove_residual`]).
    fn build(a: &CsrMatrix<T>, workers: usize) -> Result<Self, VerifyError> {
        let m = a.n_rows();
        let lens: Vec<usize> = (0..m)
            .map(|i| a.row(i).0.iter().filter(|&&c| c as usize > i).count())
            .collect();
        let chunk = pick_auto_chunk(&lens, PlanConfig::default().max_padding).unwrap_or(1);
        drop(lens);
        let rows: Vec<u32> = (0..m as u32).collect();
        let slab = PackedSell::from_rows_of(a, &rows, chunk, Entries::StrictUpper);
        drop(rows);
        let spans = RESIDUAL_SPANS_PER_WORKER * workers;
        let cuts = work_cuts(slab.lens(), slab.chunk_ptr(), 0, slab.n_chunks(), spans);
        prove_residual(a, &slab, &cuts)?;
        Ok(Self {
            slab,
            cuts,
            workers,
        })
    }

    /// `r = U·x` with `U`'s values refreshed from `a` when stale: each
    /// row one fused multiply-add chain from zero in storage order, bit
    /// for bit `spmv_seq` of the strict upper triangle. Callers
    /// guarantee `x` and `r` have the system's length.
    fn run(&self, a: &CsrMatrix<T>, x: &[T], r: &mut [T]) {
        self.slab.ensure_values(a);
        let out = XVec::new(r);
        self.slab.with_slab(|slab| {
            fused_for_each_with(self.workers, self.cuts.len() - 1, |t| {
                let (c0, c1) = (self.cuts[t], self.cuts[t + 1]);
                slab.spmm_chunks::<1, _>(c0, c1, x, 1, 0, |i, [sum]| {
                    // SAFETY: the slab's rows are a permutation of the
                    // system's (`prove_residual`) and the spans are
                    // disjoint, so row `i < m = r.len()` is written once,
                    // by this span, and read by nobody during the drain.
                    unsafe { out.write(i, sum) }
                });
            });
        });
    }
}

/// A compiled symmetric Gauss-Seidel sweep over a general square matrix
/// `A = L + D + U`, composed entirely from verified parts that read `A`
/// itself — the sweep stores no copy of it, only three SELL slabs:
///
/// 1. `r = U x`       — the residual slab: `U`'s rows in row order,
///    σ-sorted within windows, its chunk spans drained by the team
/// 2. `(L + D) x = b - r`, fused with `r = b - L x` — the verified
///    forward solve over the forward level slab (`L`, diagonal), which
///    reads every `l_ij` and finalised `x[j]` the lower residual needs
///    and emits it as it goes
/// 3. `(D + U) x = r` — the verified backward solve over the backward
///    level slab (`U`, diagonal)
///
/// This is exactly the composed definition of
/// [`spmv_sparse::solve::symgs_seq`], so the result is bit-for-bit
/// identical to the sequential reference at every worker count: each
/// residual row is `spmv_seq`'s fused multiply-add chain from zero over
/// the row's strict upper entries in storage order, the verified solves
/// reproduce `sptrsv_seq` exactly, and the forward solve's emitted
/// residual runs the same chain over the strict lower entries, apart
/// from the solve's own running sum.
///
/// Every slab takes its values straight from `A`'s rows by the split's
/// routing — `c < i` to the forward slab, `c == i` to the diagonals (the
/// last duplicate wins), `c > i` to the backward and residual slabs — at
/// build, and again on an [`apply`](SymgsPlan::apply) whose matrix
/// carries a new value generation.
pub struct SymgsPlan<T: Scalar> {
    pattern: PatternBinding,
    forward: VerifiedSolvePlan<T>,
    backward: VerifiedSolvePlan<T>,
    residual: Residual<T>,
    /// Residual scratch, allocated once.
    r: Vec<T>,
    /// The split [`halves`](Self::halves) builds on first call.
    split: OnceLock<TriangularHalves<T>>,
}

impl<T: Scalar> SymgsPlan<T> {
    /// Build a sweep for `a` with the default [`SolveConfig`]. Rejects
    /// non-square matrices and rows without a structural diagonal.
    pub fn build(a: &CsrMatrix<T>) -> Result<Self, SolveError> {
        Self::build_with(a, SolveConfig::default())
    }

    /// [`build`](Self::build) with explicit solve knobs (shared by the
    /// forward and backward halves; the residual uses the same worker
    /// count). The three parts — forward half, backward half, residual —
    /// are built from `a` and proven independently, concurrently on the
    /// worker team, or on the caller alone when the team is busy; each
    /// is the same whichever thread builds it. The first error is
    /// reported in a fixed order — forward, backward, residual — not in
    /// completion order.
    pub fn build_with(a: &CsrMatrix<T>, config: SolveConfig) -> Result<Self, SolveError> {
        let workers = config.team();
        let solve_for = |direction| -> Result<_, SolveError> {
            let plan = SolvePlan::build_of(a, direction, config, true)?;
            plan.prove(a)?;
            Ok(VerifiedSolvePlan { plan })
        };
        // One three-item drain; results are collected, then unwrapped in
        // the documented error order.
        let solves: [OnceLock<Result<VerifiedSolvePlan<T>, SolveError>>; 2] = Default::default();
        let residual: OnceLock<Result<Residual<T>, VerifyError>> = OnceLock::new();
        fused_for_each_with(workers, 3, |part| {
            let fresh = match part {
                0 => solves[0].set(solve_for(SolveDirection::Forward)).is_ok(),
                1 => solves[1].set(solve_for(SolveDirection::Backward)).is_ok(),
                _ => residual.set(Residual::build(a, workers)).is_ok(),
            };
            debug_assert!(fresh, "part {part} built twice");
        });
        let built = "the drain builds every part";
        let [forward, backward] = solves.map(|s| s.into_inner().expect(built));
        let (forward, backward) = (forward?, backward?);
        let residual = residual.into_inner().expect(built)?;
        Ok(Self {
            pattern: PatternBinding::of(a),
            r: vec![T::ZERO; a.n_rows()],
            forward,
            backward,
            residual,
            split: OnceLock::new(),
        })
    }

    /// Run one sweep: `a` must have the build matrix's pattern (O(1)
    /// for that matrix, a clone, or either after value updates;
    /// otherwise the fingerprint plus an exact O(nnz) comparison of its
    /// columns with the slabs'), values may differ — they are re-copied
    /// into the slabs when stale. `b` is the right-hand side, `x` the
    /// iterate updated in place.
    pub fn apply(&mut self, a: &CsrMatrix<T>, b: &[T], x: &mut [T]) -> Result<(), PlanError> {
        self.pattern.check(a, || self.mirrors(a))?;
        let fp = &self.pattern.fingerprint;
        if b.len() != fp.m {
            return Err(PlanError::DimensionMismatch {
                what: "rhs vector",
                expected: fp.m,
                got: b.len(),
            });
        }
        if x.len() != fp.n {
            return Err(PlanError::DimensionMismatch {
                what: "solution vector",
                expected: fp.n,
                got: x.len(),
            });
        }
        let Self {
            forward,
            backward,
            residual,
            r,
            ..
        } = self;
        residual.run(a, x, r);
        forward.plan.run_with::<true>(a, b, x, r);
        backward.plan.run(a, r, x);
        Ok(())
    }

    /// Whether `a`'s columns are the build matrix's as the slabs hold
    /// them (the fingerprint has matched): each row's strictly lower and
    /// strictly upper entries, in storage order, and a diagonal. Those
    /// are everything a sweep reads and the order it reads them in. The
    /// residual slab's lanes are the backward slab's, both proven
    /// against the build matrix, so two slabs decide it. O(nnz).
    fn mirrors(&self, a: &CsrMatrix<T>) -> bool {
        self.forward.plan.mirrors(a) && self.backward.plan.mirrors(a)
    }

    /// The pattern this sweep is bound to.
    pub fn fingerprint(&self) -> &PatternFingerprint {
        &self.pattern.fingerprint
    }

    /// The residual slab: `U`'s rows in row order, σ-sorted within
    /// windows ([`check_residual`](crate::verify::check_residual) is its
    /// proof).
    pub fn residual(&self) -> &PackedSell<T> {
        &self.residual.slab
    }

    /// The verified forward (`L + D`) solve. It is bound to the pattern
    /// of [`halves`](Self::halves)`().lower()`, the matrix its own solve
    /// paths take.
    pub fn forward(&self) -> &VerifiedSolvePlan<T> {
        &self.forward
    }

    /// The verified backward (`D + U`) solve, bound to
    /// [`halves`](Self::halves)`().upper()`.
    pub fn backward(&self) -> &VerifiedSolvePlan<T> {
        &self.backward
    }

    /// The structural split `L + D`, `D + U`, `U` of the sweep's matrix,
    /// for callers that run [`forward`](Self::forward) and
    /// [`backward`](Self::backward) on their own. A sweep stores no
    /// split: this one is built on the first call, from the level slabs
    /// ([`TriangularHalves::from_slabs`]: each row's strict entries,
    /// then its one diagonal), with the values they hold at that call —
    /// the last sweep's — and kept. Sweeps never rebuild or refresh it.
    pub fn halves(&self) -> &TriangularHalves<T> {
        self.split.get_or_init(|| {
            TriangularHalves::from_slabs(&self.forward.plan.slab, &self.backward.plan.slab)
        })
    }
}

impl<T: Scalar> std::fmt::Debug for SymgsPlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymgsPlan")
            .field("m", &self.pattern.fingerprint.m)
            .field("nnz", &self.pattern.fingerprint.nnz)
            .field("forward", &self.forward)
            .field("backward", &self.backward)
            .field("residual", &self.residual.slab)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;
    use spmv_sparse::packed::NARROW_MAX_COLS;
    use spmv_sparse::solve::sptrsv_seq;

    fn tril(m: usize, seed: u64) -> CsrMatrix<f64> {
        let a = gen::random_uniform::<f64>(m, m, 1, 6, seed);
        let mut b = gen::RowsBuilder::<f64>::new(m);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..m {
            cols.clear();
            vals.clear();
            let (rc, rv) = a.row(i);
            let mut dom = 1.0;
            for (&c, &v) in rc.iter().zip(rv) {
                if (c as usize) < i {
                    cols.push(c);
                    vals.push(v);
                    dom += v.abs();
                }
            }
            cols.push(i as u32);
            vals.push(dom);
            b.push_row_sorted(&cols, &vals);
        }
        b.finish()
    }

    #[test]
    fn verified_solve_matches_reference_bitwise() {
        let a = tril(400, 9);
        let b: Vec<f64> = (0..400).map(|i| ((i % 11) as f64) - 5.0).collect();
        let mut x_ref = vec![0.0; 400];
        sptrsv_seq(&a, SolveDirection::Forward, &b, &mut x_ref).unwrap();
        for workers in [1usize, 2, 4, 7] {
            for min_parallel in [1usize, 0, usize::MAX] {
                let plan = SolvePlan::build_with(
                    &a,
                    SolveDirection::Forward,
                    SolveConfig {
                        workers,
                        min_parallel_rows: min_parallel,
                    },
                )
                .unwrap()
                .verify(&a)
                .unwrap();
                let mut x = vec![0.0; 400];
                plan.solve_unchecked(&a, &b, &mut x).unwrap();
                for (i, (got, want)) in x.iter().zip(&x_ref).enumerate() {
                    assert_eq!(
                        got.to_bits(),
                        want.to_bits(),
                        "workers={workers} min_parallel={min_parallel} row {i}"
                    );
                }
            }
        }
    }

    #[test]
    fn plan_rejects_wrong_matrix_and_dims() {
        let a = tril(60, 1);
        let other = tril(60, 2);
        let plan = SolvePlan::build(&a, SolveDirection::Forward).unwrap();
        let b = vec![1.0; 60];
        let mut x = vec![0.0; 60];
        assert!(matches!(
            plan.solve(&other, &b, &mut x),
            Err(PlanError::PatternMismatch { .. })
        ));
        assert!(matches!(
            plan.solve(&a, &b[..59], &mut x),
            Err(PlanError::DimensionMismatch { .. })
        ));
        // Verification against a structurally different matrix fails
        // even before the prover runs.
        let plan = SolvePlan::build(&a, SolveDirection::Forward).unwrap();
        assert!(plan.verify(&other).is_err());
    }

    #[test]
    fn build_rejects_non_triangular_input() {
        let full = gen::banded::<f64>(30, 2, 5);
        assert!(matches!(
            SolvePlan::build(&full, SolveDirection::Forward),
            Err(SolveBuildError::OffTriangle { .. })
        ));
        assert!(matches!(
            SolvePlan::build(&tril(30, 3).transpose(), SolveDirection::Forward),
            Err(SolveBuildError::OffTriangle { .. })
        ));
    }

    #[test]
    fn serial_config_has_zero_barriers() {
        let a = tril(200, 4);
        let plan = SolvePlan::<f64>::build_with(
            &a,
            SolveDirection::Forward,
            SolveConfig {
                workers: 1,
                min_parallel_rows: 0,
            },
        )
        .unwrap();
        assert_eq!(plan.n_barriers(), 0);
        assert_eq!(plan.steps().len(), 1);
        assert!(!plan.steps()[0].is_parallel());
    }

    #[test]
    fn merging_reduces_barriers() {
        let a = tril(300, 5);
        let fine = SolvePlan::<f64>::build_with(
            &a,
            SolveDirection::Forward,
            SolveConfig {
                workers: 4,
                min_parallel_rows: 1,
            },
        )
        .unwrap();
        let merged = SolvePlan::<f64>::build_with(
            &a,
            SolveDirection::Forward,
            SolveConfig {
                workers: 4,
                min_parallel_rows: 64,
            },
        )
        .unwrap();
        assert_eq!(fine.steps().len(), fine.n_levels());
        assert!(
            merged.n_barriers() <= fine.n_barriers(),
            "merging must not add barriers: {} vs {}",
            merged.n_barriers(),
            fine.n_barriers()
        );
    }

    #[test]
    fn auto_merge_keeps_a_level_of_one_chunk_serial() {
        // An arrowhead: 2599 independent rows, then one row reading them
        // all. Both levels clear `PARALLEL_MIN_WORK`, but the last is one
        // chunk, which a second worker could not share.
        let m = 2600;
        let (mut row_ptr, mut cols, mut vals) = (vec![0usize], Vec::new(), Vec::new());
        for i in 0..m {
            if i == m - 1 {
                cols.extend(0..i as u32);
                vals.extend((0..i).map(|c| (c % 7) as f64 * 0.001));
            }
            cols.push(i as u32);
            vals.push(2.0);
            row_ptr.push(cols.len());
        }
        let a = CsrMatrix::from_parts(m, m, row_ptr, cols, vals).unwrap();
        let config = SolveConfig {
            workers: 2,
            min_parallel_rows: 0,
        };
        let plan = SolvePlan::build_with(&a, SolveDirection::Forward, config).unwrap();
        let parallel: Vec<bool> = plan.steps().iter().map(SolveStep::is_parallel).collect();
        assert_eq!(parallel, [true, false]);
        let b: Vec<f64> = (0..m).map(|i| (i % 5) as f64 - 2.0).collect();
        let mut want = vec![0.0; m];
        sptrsv_seq(&a, SolveDirection::Forward, &b, &mut want).unwrap();
        let mut x = vec![f64::NAN; m];
        plan.verify(&a)
            .unwrap()
            .solve_unchecked(&a, &b, &mut x)
            .unwrap();
        assert!(x.iter().zip(&want).all(|(g, w)| g.to_bits() == w.to_bits()));
    }

    #[test]
    fn symgs_plan_matches_sequential_sweep_bitwise() {
        let a = {
            // General square matrix with a guaranteed dominant diagonal.
            let base = gen::banded::<f64>(150, 3, 9);
            let m = base.n_rows();
            let mut b = gen::RowsBuilder::<f64>::new(m);
            let mut cols = Vec::new();
            let mut vals = Vec::new();
            for i in 0..m {
                cols.clear();
                vals.clear();
                let (rc, rv) = base.row(i);
                let mut dom = 1.0;
                let mut has_diag = false;
                for (&c, &v) in rc.iter().zip(rv) {
                    if c as usize == i {
                        has_diag = true;
                    }
                    dom += v.abs();
                }
                for (&c, &v) in rc.iter().zip(rv) {
                    if c as usize == i {
                        cols.push(c);
                        vals.push(dom);
                    } else {
                        cols.push(c);
                        vals.push(v);
                    }
                }
                if !has_diag {
                    cols.push(i as u32);
                    vals.push(dom);
                    let mut paired: Vec<(u32, f64)> =
                        cols.iter().copied().zip(vals.iter().copied()).collect();
                    paired.sort_by_key(|&(c, _)| c);
                    cols.clear();
                    vals.clear();
                    for (c, v) in paired {
                        cols.push(c);
                        vals.push(v);
                    }
                }
                b.push_row_sorted(&cols, &vals);
            }
            b.finish()
        };
        let m = a.n_rows();
        let b: Vec<f64> = (0..m).map(|i| ((i % 7) as f64) - 3.0).collect();
        let mut x_ref = vec![0.0; m];
        for _ in 0..3 {
            spmv_sparse::solve::symgs_seq(&a, &b, &mut x_ref).unwrap();
        }
        for workers in [1usize, 2, 4, 7] {
            let mut plan = SymgsPlan::build_with(
                &a,
                SolveConfig {
                    workers,
                    min_parallel_rows: 0,
                },
            )
            .unwrap();
            let mut x = vec![0.0; m];
            for _ in 0..3 {
                plan.apply(&a, &b, &mut x).unwrap();
            }
            for (i, (got, want)) in x.iter().zip(&x_ref).enumerate() {
                assert_eq!(got.to_bits(), want.to_bits(), "workers={workers} row {i}");
            }
        }
    }

    /// A symmetric general matrix `L + L^T` (diagonal once) from
    /// [`tril`]; rows in `drop_diag` lose their diagonal entry.
    fn sym(m: usize, seed: u64, drop_diag: &[usize]) -> CsrMatrix<f64> {
        let l = tril(m, seed);
        let mut coo = spmv_sparse::CooMatrix::<f64>::new(m, m);
        for i in 0..m {
            let (rc, rv) = l.row(i);
            for (&c, &v) in rc.iter().zip(rv) {
                if (c as usize) != i {
                    coo.push(i, c as usize, v);
                    coo.push(c as usize, i, v);
                } else if !drop_diag.contains(&i) {
                    coo.push(i, i, v);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn symgs_built_inside_a_busy_team_matches_a_top_level_build() {
        let a = sym(600, 11, &[]);
        let top = SymgsPlan::build(&a).unwrap();
        // A build from inside a step body finds the team busy, so its
        // three parts run on that role's thread alone.
        let nested = std::sync::Mutex::new(None);
        stepped_for_each(2, &[true], |_, role, _| {
            if role == 0 {
                *nested.lock().unwrap() = Some(SymgsPlan::build(&a).unwrap());
            }
        });
        let mut nested = nested.into_inner().unwrap().unwrap();
        assert_eq!(
            nested.forward().plan().steps(),
            top.forward().plan().steps()
        );
        assert_eq!(
            nested.backward().plan().steps(),
            top.backward().plan().steps()
        );
        let b: Vec<f64> = (0..600).map(|i| ((i % 13) as f64) - 6.0).collect();
        let mut x = vec![0.0; 600];
        let mut x_ref = vec![0.0; 600];
        for _ in 0..3 {
            nested.apply(&a, &b, &mut x).unwrap();
            spmv_sparse::solve::symgs_seq(&a, &b, &mut x_ref).unwrap();
        }
        for (i, (got, want)) in x.iter().zip(&x_ref).enumerate() {
            assert_eq!(got.to_bits(), want.to_bits(), "row {i}");
        }
    }

    #[test]
    fn symgs_build_errors_name_the_first_defect() {
        let wide = gen::random_uniform::<f64>(40, 41, 1, 5, 2);
        let holes = sym(90, 3, &[61, 17, 40]);
        for workers in [0usize, 1, 4] {
            let config = SolveConfig {
                workers,
                min_parallel_rows: 0,
            };
            assert!(matches!(
                SymgsPlan::build_with(&wide, config),
                Err(SolveError::Build(SolveBuildError::NotSquare {
                    n_rows: 40,
                    n_cols: 41
                }))
            ));
            assert!(matches!(
                SymgsPlan::build_with(&holes, config),
                Err(SolveError::Build(SolveBuildError::MissingDiagonal {
                    row: 17
                }))
            ));
        }
    }

    /// [`sym`] with rows the split must route by column, not by place:
    /// odd rows stored in reverse, every third row's diagonal moved to
    /// the front (the others keep it mid-row), row `10` carrying a second
    /// diagonal before its own (the last one wins), row `21` without
    /// strictly lower entries and row `33` without strictly upper ones.
    fn routed(m: usize, seed: u64) -> CsrMatrix<f64> {
        let base = sym(m, seed, &[]);
        let (mut row_ptr, mut cols, mut vals) = (vec![0usize], Vec::new(), Vec::new());
        for i in 0..m {
            let (rc, rv) = base.row(i);
            let mut e: Vec<(u32, f64)> = rc.iter().copied().zip(rv.iter().copied()).collect();
            match i {
                21 => e.retain(|&(c, _)| c as usize >= i),
                33 => e.retain(|&(c, _)| c as usize <= i),
                _ => {}
            }
            if i % 3 == 0 {
                let d = e.iter().position(|&(c, _)| c as usize == i).unwrap();
                let diag = e.remove(d);
                e.insert(0, diag);
            }
            if i % 2 == 1 {
                e.reverse();
            }
            if i == 10 {
                e.insert(0, (i as u32, 0.5));
            }
            for (c, v) in e {
                cols.push(c);
                vals.push(v);
            }
            row_ptr.push(cols.len());
        }
        CsrMatrix::from_parts(m, m, row_ptr, cols, vals).unwrap()
    }

    #[test]
    fn symgs_refreshes_values_on_change() {
        // A nonzero start keeps `U·x` live, so a slab left on stale
        // values shows in the very first sweep after an update; the
        // second sweep of each version checks that nothing reverts once
        // the values have settled.
        let a0 = routed(80, 7);
        let side = |i: usize, lower: bool| {
            let cols = a0.row(i).0.iter().map(|&c| c as usize);
            cols.filter(|&c| if lower { c < i } else { c > i }).count()
        };
        let diags = a0.row(10).0.iter().filter(|&&c| c == 10).count();
        assert_eq!((diags, side(21, true), side(33, false)), (2, 0, 0));
        assert!(side(21, false) > 0 && side(33, true) > 0);
        let b: Vec<f64> = (0..80).map(|i| ((i % 5) as f64) - 2.0).collect();
        for workers in [1usize, 2, 4, 7] {
            let mut a = a0.clone();
            let config = SolveConfig {
                workers,
                min_parallel_rows: 0,
            };
            let mut plan = SymgsPlan::build_with(&a, config).unwrap();
            let mut x: Vec<f64> = (0..80).map(|i| ((i * 7 % 11) as f64) - 5.0).collect();
            let mut x_ref = x.clone();
            for version in 0..3 {
                if version > 0 {
                    for (k, v) in a.values_mut().iter_mut().enumerate() {
                        *v = *v * 3.0 + (k % 4) as f64 * 0.25;
                    }
                }
                for sweep in 0..2 {
                    let before = x.clone();
                    plan.apply(&a, &b, &mut x).unwrap();
                    spmv_sparse::solve::symgs_seq(&a, &b, &mut x_ref).unwrap();
                    let at = format!("workers {workers} version {version} sweep {sweep}");
                    assert_ne!(x, before, "{at} moved nothing");
                    for (i, (got, want)) in x.iter().zip(&x_ref).enumerate() {
                        assert_eq!(got.to_bits(), want.to_bits(), "{at} row {i}");
                    }
                }
            }
            // Neither the build nor a sweep holds a split.
            assert!(plan.split.get().is_none(), "workers {workers}");
        }
    }

    #[test]
    fn halves_are_built_on_first_call_and_run_the_verified_halves() {
        let mut a = routed(80, 9);
        let mut plan = SymgsPlan::build(&a).unwrap();
        a.fill_values_with(|k| (k % 7) as f64 * 0.125 - 0.375 + 4.0 * f64::from(k % 5 == 0));
        let mut x = vec![0.5; 80];
        let b: Vec<f64> = (0..80).map(|i| ((i % 9) as f64) - 4.0).collect();
        plan.apply(&a, &b, &mut x).unwrap();
        assert!(plan.split.get().is_none());
        // Values as of the first call: the sweep's.
        let h = plan.halves();
        let split = spmv_sparse::solve::split_triangular(&a).unwrap();
        assert_eq!(h.strict_upper(), split.strict_upper());
        let same = |got: &[f64], want: &[f64]| {
            got.iter()
                .zip(want)
                .all(|(g, w)| g.to_bits() == w.to_bits())
        };
        for (dir, solve, mine, theirs) in [
            (
                SolveDirection::Forward,
                plan.forward(),
                h.lower(),
                split.lower(),
            ),
            (
                SolveDirection::Backward,
                plan.backward(),
                h.upper(),
                split.upper(),
            ),
        ] {
            let mut want = vec![0.0; 80];
            sptrsv_seq(theirs, dir, &b, &mut want).unwrap();
            for checked in [false, true] {
                let mut x = vec![f64::NAN; 80];
                if checked {
                    solve.solve(mine, &b, &mut x).unwrap();
                } else {
                    solve.solve_unchecked(mine, &b, &mut x).unwrap();
                }
                assert!(same(&x, &want), "{dir} checked {checked}");
            }
            // The sweep's matrix is not the half's.
            assert!(solve.solve(&a, &b, &mut x).is_err(), "{dir}");
        }
        let (mut got, mut want) = (vec![0.25; 80], vec![0.25; 80]);
        spmv_sparse::solve::symgs_seq_halves(h, &b, &mut got).unwrap();
        spmv_sparse::solve::symgs_seq(&a, &b, &mut want).unwrap();
        assert!(same(&got, &want));
        assert!(std::ptr::eq(h, plan.halves()), "built once");
    }

    #[test]
    fn fused_forward_emits_the_lower_residual_bitwise() {
        // Odd rows stored in reverse, so the emitted chain must follow
        // storage order; row `dup` carries a second diagonal entry (the
        // snapshot keeps the last, and neither may enter the residual);
        // row `bare` loses its strict-lower entries, so its residual is
        // `b - 0`.
        let m = 400;
        let base = tril(m, 13);
        let below = |i: usize| base.row(i).0.iter().filter(|&&c| (c as usize) < i).count();
        let dup = (0..m).find(|&i| below(i) >= 2).unwrap();
        let bare = (dup + 1..m).find(|&i| below(i) >= 1).unwrap();
        let mut row_ptr = vec![0usize];
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        for i in 0..m {
            let (rc, rv) = base.row(i);
            let mut entries: Vec<(u32, f64)> = rc.iter().copied().zip(rv.iter().copied()).collect();
            if i % 2 == 1 {
                entries.reverse();
            }
            if i == dup {
                entries.insert(0, (i as u32, 0.5));
            }
            if i == bare {
                entries.retain(|&(c, _)| c as usize == i);
            }
            for (c, v) in entries {
                cols.push(c);
                vals.push(v);
            }
            row_ptr.push(cols.len());
        }
        let lower = CsrMatrix::from_parts(m, m, row_ptr, cols, vals).unwrap();
        assert_eq!(
            lower
                .row(dup)
                .0
                .iter()
                .filter(|&&c| c as usize == dup)
                .count(),
            2
        );
        assert_eq!(lower.row(bare).0, &[bare as u32]);
        // The strict lower triangle, entries in storage order.
        let (mut sp, mut sc, mut sv) = (vec![0usize], Vec::new(), Vec::new());
        for i in 0..m {
            let (rc, rv) = lower.row(i);
            for (&c, &v) in rc.iter().zip(rv) {
                if (c as usize) < i {
                    sc.push(c);
                    sv.push(v);
                }
            }
            sp.push(sc.len());
        }
        let strict = CsrMatrix::from_parts(m, m, sp, sc, sv).unwrap();

        let b: Vec<f64> = (0..m).map(|i| ((i % 11) as f64) - 5.0).collect();
        let ux: Vec<f64> = (0..m)
            .map(|i| ((i * 5 % 13) as f64) * 0.375 - 2.0)
            .collect();
        let rhs: Vec<f64> = b.iter().zip(&ux).map(|(&bi, &ui)| bi - ui).collect();
        let mut x_ref = vec![0.0; m];
        sptrsv_seq(&lower, SolveDirection::Forward, &rhs, &mut x_ref).unwrap();
        let lx = strict.spmv_seq_alloc(&x_ref).unwrap();
        let r_ref: Vec<f64> = b.iter().zip(&lx).map(|(&bi, &li)| bi - li).collect();
        assert_eq!(r_ref[bare].to_bits(), b[bare].to_bits());
        for workers in [1usize, 2, 4, 7] {
            for min_parallel in [1usize, 0, usize::MAX] {
                let cfg = SolveConfig {
                    workers,
                    min_parallel_rows: min_parallel,
                };
                let plan = SolvePlan::build_with(&lower, SolveDirection::Forward, cfg)
                    .unwrap()
                    .verify(&lower)
                    .unwrap();
                let mut x = vec![f64::NAN; m];
                let mut r = ux.clone();
                plan.plan().run_with::<true>(&lower, &b, &mut x, &mut r);
                for i in 0..m {
                    let at = format!("workers={workers} min_parallel={min_parallel} row {i}");
                    assert_eq!(x[i].to_bits(), x_ref[i].to_bits(), "x, {at}");
                    assert_eq!(r[i].to_bits(), r_ref[i].to_bits(), "r, {at}");
                }
            }
        }
    }

    /// A lower-triangular matrix whose level `l` has exactly `widths[l]`
    /// rows, ids ascending level by level. Level 0's rows have no
    /// off-diagonal entries; a row of level `l ≥ 1` reads one row of
    /// level `l - 1` and more of earlier levels, `1 + l % 4` entries or
    /// one fewer (near-uniform, so wide levels pack into full chunks with
    /// a ragged tail). Odd rows are stored in reverse column order, and
    /// the first row of level 3 carries a second diagonal entry.
    fn leveled(widths: &[usize], seed: u64) -> CsrMatrix<f64> {
        let mut h = seed;
        let mut next = || {
            h = h
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (h >> 33) as usize
        };
        let m: usize = widths.iter().sum();
        let (mut row_ptr, mut cols, mut vals) = (vec![0usize], Vec::new(), Vec::new());
        let mut start = 0;
        for (l, &w) in widths.iter().enumerate() {
            for i in start..start + w {
                let mut deps: Vec<u32> = Vec::new();
                if l > 0 {
                    let prev = start - widths[l - 1];
                    deps.push((prev + next() % widths[l - 1]) as u32);
                    let want = (1 + l % 4 - usize::from(next() % 3 == 0)).min(start);
                    while deps.len() < want {
                        let c = (next() % start) as u32;
                        if !deps.contains(&c) {
                            deps.push(c);
                        }
                    }
                }
                deps.sort_unstable();
                let mut entries: Vec<(u32, f64)> = deps
                    .iter()
                    .map(|&c| (c, ((next() % 17) as f64 - 8.0) * 0.125))
                    .collect();
                let dom = 1.0 + entries.iter().map(|e| e.1.abs()).sum::<f64>();
                entries.push((i as u32, dom));
                if i % 2 == 1 {
                    entries.reverse();
                }
                if l == 3 && i == start {
                    entries.insert(0, (i as u32, 0.5));
                }
                for (c, v) in entries {
                    cols.push(c);
                    vals.push(v);
                }
                row_ptr.push(cols.len());
            }
            start += w;
        }
        CsrMatrix::from_parts(m, m, row_ptr, cols, vals).unwrap()
    }

    /// `a` with rows and columns reversed (`i → m - 1 - i`), each row's
    /// storage order kept: a lower triangle becomes an upper one whose
    /// backward levels are the forward levels of `a`.
    fn mirrored(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
        let m = a.n_rows();
        let (mut row_ptr, mut cols, mut vals) = (vec![0usize], Vec::new(), Vec::new());
        for i in (0..m).rev() {
            let (rc, rv) = a.row(i);
            cols.extend(rc.iter().map(|&c| (m - 1 - c as usize) as u32));
            vals.extend_from_slice(rv);
            row_ptr.push(cols.len());
        }
        CsrMatrix::from_parts(m, m, row_ptr, cols, vals).unwrap()
    }

    #[test]
    fn lockstep_layout_matches_the_references_bitwise() {
        // Levels of exactly C and C ± 1 rows for C = 8, 4, 2, single-row
        // levels, and one level heavy enough for the auto merge to run
        // it in parallel.
        let widths = [
            9, 8, 7, 9, 16, 17, 15, 4, 3, 5, 2, 1, 1, 3, 24, 6, 40, 33, 1, 700,
        ];
        let lower = leveled(&widths, 17);
        let upper = mirrored(&lower);
        let m = lower.n_rows();
        let auto = SolveConfig {
            workers: 2,
            min_parallel_rows: 0,
        };
        let plan = SolvePlan::build_with(&lower, SolveDirection::Forward, auto).unwrap();
        assert_eq!(plan.n_levels(), widths.len());
        let steps = plan.steps();
        assert!(steps.iter().any(SolveStep::is_parallel) && !steps[0].is_parallel());
        let snap = plan.snapshot();
        let heights: Vec<usize> = snap.chunk_ptr.windows(2).map(|w| w[1] - w[0]).collect();
        for c in [1, 2, 4, 8] {
            assert!(heights.contains(&c), "no chunk of {c} lanes");
        }
        let ragged = snap
            .chunk_ptr
            .windows(2)
            .any(|w| snap.lens[w[0]] > snap.lens[w[1] - 1]);
        assert!(ragged, "no chunk with a ragged tail");
        assert!(plan.lockstep_rows() * 2 > m);

        let b: Vec<f64> = (0..m).map(|i| ((i % 11) as f64) - 5.0).collect();
        let ux: Vec<f64> = (0..m)
            .map(|i| ((i * 5 % 13) as f64) * 0.375 - 2.0)
            .collect();
        let rhs: Vec<f64> = b.iter().zip(&ux).map(|(&bi, &ui)| bi - ui).collect();
        let reference = |a: &CsrMatrix<f64>, dir, b: &[f64]| {
            let mut x = vec![0.0; m];
            sptrsv_seq(a, dir, b, &mut x).unwrap();
            x
        };
        let want_fwd = reference(&lower, SolveDirection::Forward, &b);
        let want_bwd = reference(&upper, SolveDirection::Backward, &b);
        // The emitting forward solve: `x` from `b - U·x_old`, and
        // `r = b - L·x` by `spmv_seq`'s chain over the strict entries.
        let want_x = reference(&lower, SolveDirection::Forward, &rhs);
        let want_r: Vec<f64> = (0..m)
            .map(|i| {
                let (rc, rv) = lower.row(i);
                let lx = rc
                    .iter()
                    .zip(rv)
                    .filter(|(&c, _)| c as usize != i)
                    .fold(0.0, |acc, (&c, &v)| v.mul_add(want_x[c as usize], acc));
                b[i] - lx
            })
            .collect();
        // A general matrix whose lower half is `lower`: each row's
        // `L + D` entries, then its strict upper entries from `upper`.
        let sym = {
            let (mut row_ptr, mut cols, mut vals) = (vec![0usize], Vec::new(), Vec::new());
            for i in 0..m {
                for (a, keep) in [(&lower, true), (&upper, false)] {
                    let (rc, rv) = a.row(i);
                    for (&c, &v) in rc.iter().zip(rv) {
                        if keep || c as usize != i {
                            cols.push(c);
                            vals.push(v);
                        }
                    }
                }
                row_ptr.push(cols.len());
            }
            CsrMatrix::from_parts(m, m, row_ptr, cols, vals).unwrap()
        };
        let mut want_sym = vec![0.25; m];
        for _ in 0..2 {
            spmv_sparse::solve::symgs_seq(&sym, &b, &mut want_sym).unwrap();
        }
        let same = |got: &[f64], want: &[f64], what: &str| {
            let bad = got
                .iter()
                .zip(want)
                .position(|(g, w)| g.to_bits() != w.to_bits());
            assert_eq!(bad, None, "{what}");
        };
        for workers in [1usize, 2, 3, 4, 7] {
            for min_parallel_rows in [1usize, 0, usize::MAX] {
                let cfg = SolveConfig {
                    workers,
                    min_parallel_rows,
                };
                let at = format!("workers={workers} min_parallel_rows={min_parallel_rows}");
                for (a, dir, want) in [
                    (&lower, SolveDirection::Forward, &want_fwd),
                    (&upper, SolveDirection::Backward, &want_bwd),
                ] {
                    let plan = SolvePlan::build_with(a, dir, cfg)
                        .unwrap()
                        .verify(a)
                        .unwrap();
                    let mut x = vec![f64::NAN; m];
                    plan.solve_unchecked(a, &b, &mut x).unwrap();
                    same(&x, want, &format!("{dir} {at}"));
                }
                let plan = SolvePlan::build_with(&lower, SolveDirection::Forward, cfg)
                    .unwrap()
                    .verify(&lower)
                    .unwrap();
                let (mut x, mut r) = (vec![f64::NAN; m], ux.clone());
                plan.plan().run_with::<true>(&lower, &b, &mut x, &mut r);
                same(&x, &want_x, &format!("emitting x, {at}"));
                same(&r, &want_r, &format!("emitting r, {at}"));
                let mut sweep = SymgsPlan::build_with(&sym, cfg).unwrap();
                let mut x = vec![0.25; m];
                for _ in 0..2 {
                    sweep.apply(&sym, &b, &mut x).unwrap();
                }
                same(&x, &want_sym, &format!("symgs, {at}"));
            }
        }
    }

    #[test]
    fn every_slab_tamper_is_rejected_by_verify_naming_its_defect() {
        let a = leveled(&[9, 8, 7, 9, 16, 17, 15, 4, 3, 5, 2, 1, 40, 33, 700], 5);
        let cfg = SolveConfig {
            workers: 2,
            min_parallel_rows: 0,
        };
        for tamper in SlabTamper::ALL {
            let mut plan = SolvePlan::build_with(&a, SolveDirection::Forward, cfg).unwrap();
            let at = tamper
                .apply(&mut plan.slab)
                .unwrap_or_else(|| panic!("{tamper:?}: the plan offers no site"));
            match plan.verify(&a) {
                Err(VerifyError::SolveSnapshotMismatch {
                    position, defect, ..
                }) => assert_eq!(
                    (position, defect),
                    (at, Some(tamper.defect())),
                    "{tamper:?}"
                ),
                other => panic!("{tamper:?} accepted or misnamed: {other:?}"),
            }
        }
    }

    /// A symmetric `n × n` pattern whose row `i` reads rows `i / 2`,
    /// `i - 1000` and `7i mod i`-style neighbours below it (about a
    /// hundred wide levels), so the upper triangle reaches column
    /// `n - 1`; the diagonal dominates.
    fn spread_sym(n: usize) -> CsrMatrix<f64> {
        let mut coo = spmv_sparse::CooMatrix::<f64>::new(n, n);
        for i in 0..n {
            let mut deps = vec![i / 2, i.saturating_sub(1000), (i * 7 + 3) % i.max(1)];
            deps.retain(|&c| c < i);
            deps.sort_unstable();
            deps.dedup();
            for &c in &deps {
                let v = ((i + 3 * c) % 13) as f64 * 0.125 - 0.75;
                coo.push(i, c, v);
                coo.push(c, i, v);
            }
            coo.push(i, i, 8.0 + (i % 5) as f64);
        }
        coo.to_csr()
    }

    /// `a`'s triangle on and below (`lower`) or above the diagonal.
    fn triangle(a: &CsrMatrix<f64>, lower: bool) -> CsrMatrix<f64> {
        let mut coo = spmv_sparse::CooMatrix::<f64>::new(a.n_rows(), a.n_cols());
        for i in 0..a.n_rows() {
            let (rc, rv) = a.row(i);
            for (&c, &v) in rc.iter().zip(rv) {
                if (c as usize <= i) == lower || c as usize == i {
                    coo.push(i, c as usize, v);
                }
            }
        }
        coo.to_csr()
    }

    #[test]
    fn solve_column_width_follows_n_cols_and_stays_bitwise() {
        for (n, bytes) in [(NARROW_MAX_COLS, 2), (NARROW_MAX_COLS + 1, 4)] {
            let mut sym = spread_sym(n);
            let mut lower = triangle(&sym, true);
            let mut upper = triangle(&sym, false);
            assert!(upper.col_idx().contains(&((n - 1) as u32)));
            let b: Vec<f64> = (0..n).map(|i| (i % 9) as f64 - 4.0).collect();
            for workers in [1usize, 2, 4, 7] {
                let cfg = SolveConfig {
                    workers,
                    min_parallel_rows: 0,
                };
                let at = |what: &str| format!("n {n} workers {workers}: {what}");
                let fwd = SolvePlan::build_with(&lower, SolveDirection::Forward, cfg)
                    .unwrap()
                    .verify(&lower)
                    .unwrap();
                let bwd = SolvePlan::build_with(&upper, SolveDirection::Backward, cfg)
                    .unwrap()
                    .verify(&upper)
                    .unwrap();
                let mut sweep = SymgsPlan::build_with(&sym, cfg).unwrap();
                for plan in [fwd.plan(), bwd.plan(), sweep.forward().plan()] {
                    assert_eq!(plan.slab.col_bytes(), bytes, "{}", at("column width"));
                }
                for version in 0..2 {
                    if version > 0 {
                        for m in [&mut sym, &mut lower, &mut upper] {
                            for v in m.values_mut() {
                                *v = *v * 1.5 - 0.25;
                            }
                        }
                    }
                    for (plan, a, dir) in [
                        (&fwd, &lower, SolveDirection::Forward),
                        (&bwd, &upper, SolveDirection::Backward),
                    ] {
                        let mut want = vec![0.0; n];
                        sptrsv_seq(a, dir, &b, &mut want).unwrap();
                        let mut x = vec![f64::NAN; n];
                        plan.solve_unchecked(a, &b, &mut x).unwrap();
                        let bad = x
                            .iter()
                            .zip(&want)
                            .position(|(g, w)| g.to_bits() != w.to_bits());
                        assert_eq!(bad, None, "{}", at(&format!("{dir} v{version}")));
                    }
                    let (mut x, mut want) = (vec![0.5; n], vec![0.5; n]);
                    sweep.apply(&sym, &b, &mut x).unwrap();
                    spmv_sparse::solve::symgs_seq(&sym, &b, &mut want).unwrap();
                    let bad = x
                        .iter()
                        .zip(&want)
                        .position(|(g, w)| g.to_bits() != w.to_bits());
                    assert_eq!(bad, None, "{}", at(&format!("symgs v{version}")));
                }
            }
        }
    }
}
