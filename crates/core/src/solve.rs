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
//!    of tiny levels merged into barrier-free serial chunks (the
//!    auto-tuned granularity knob, [`SolveConfig::min_parallel_rows`])
//!    and wide levels split across workers by NNZ-balanced cuts.
//! 2. [`SolvePlan::verify`] hands the schedule and the plan's snapshot
//!    to the dependency-order prover ([`check_solve_snapshot`]), which
//!    re-derives from the structure alone that every row is scheduled
//!    exactly once, reads only rows finalised before it, and owns a
//!    structural diagonal, and that the snapshot mirrors the matrix.
//!    Success mints a [`VerifiedSolvePlan`] — unforgeable outside this
//!    module — whose [`solve_unchecked`](VerifiedSolvePlan::solve_unchecked)
//!    validates each call in O(1).
//! 3. [`SymgsPlan`] composes one forward and one backward verified
//!    solve with two verified residual SpMV plans into the SymGS sweep,
//!    bit-for-bit identical to [`spmv_sparse::solve::symgs_seq`].
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
//! The copy is laid out the way the schedule runs, not the way the
//! matrix is stored. Position `p` of the *schedule-ordered snapshot* is
//! the `p`-th row the steps run: its row id, its diagonal value, and
//! its off-diagonal columns and values, contiguous and in storage order
//! ([`SolveSnapshot`] is the copied-out form). A step is a span of
//! positions (a parallel step, one span per worker), so the kernel
//! streams `[lo, hi)` front to back rather than chasing a natural-order
//! CSR through row lists, where every row of a level would be a cache
//! miss on `row_ptr`, `col_idx` and `values`. The row column is the
//! schedule's only copy of its row order.
//!
//! Values enter the snapshot at build. They are re-gathered only when
//! the matrix handed to a solve carries a different
//! [`CsrMatrix::values_id`]: the refresh walks that matrix's rows in
//! schedule order under the slab's write lock, so it keeps no
//! per-entry source map, and a solve holds the slab's lock (read, or
//! the write lock it refreshed under) from start to end, so a refresh
//! never lands mid-solve.

use crate::kernels::cpu::rows_nnz_cuts;
use crate::kernels::solve::{prefetch_rows_ahead, solve_positions, SnapshotRef, XVec};
use crate::kernels::KernelId;
use crate::plan::{PatternBinding, PatternFingerprint, PlanError, SpmvPlan, VerifiedPlan};
use crate::strategy::Strategy;
use crate::verify::{prove_solve, VerifyError};
use spmv_parallel::{fused_for_each_with, num_threads, stepped_for_each};
use spmv_sparse::solve::{level_order, split_triangular, SolveDirection, TriangularHalves};
use spmv_sparse::{CsrMatrix, Scalar, SolveBuildError};
use std::sync::{OnceLock, PoisonError, RwLock};

#[cfg(doc)]
use crate::verify::check_solve_snapshot;

/// Tuning knobs for building a [`SolvePlan`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SolveConfig {
    /// Worker-team size. `0` (the default) resolves to
    /// [`spmv_parallel::num_threads`]. `1` builds an all-serial plan
    /// with zero barriers.
    pub workers: usize,
    /// Levels with fewer rows than this are merged with their
    /// neighbours into one serial, barrier-free chunk — below this
    /// width a barrier costs more than the exposed parallelism buys.
    /// `0` (the default) resolves to `4 * workers`. `usize::MAX`
    /// serialises everything; `1` keeps every level parallel.
    pub min_parallel_rows: usize,
}

impl SolveConfig {
    /// Resolve the `0 = auto` sentinels to concrete values.
    fn resolve(self) -> (usize, usize) {
        let workers = if self.workers == 0 {
            num_threads()
        } else {
            self.workers
        };
        let min_parallel = if self.min_parallel_rows == 0 {
            4 * workers
        } else {
            self.min_parallel_rows
        };
        (workers.max(1), min_parallel)
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

/// A solve plan's schedule-ordered snapshot, copied out by
/// [`SolvePlan::snapshot`] for inspection and for the public prover
/// entry [`check_solve_snapshot`]. Position `p` is the `p`-th row the
/// schedule runs.
#[derive(Clone, Debug, PartialEq)]
pub struct SolveSnapshot<T> {
    /// Row id at each position.
    pub rows: Vec<u32>,
    /// Position `p`'s off-diagonal entries are
    /// `entry_ptr[p]..entry_ptr[p + 1]` of `cols` and `vals`.
    pub entry_ptr: Vec<usize>,
    /// Off-diagonal columns, position by position, each row's in
    /// storage order.
    pub cols: Vec<u32>,
    /// The values of `cols`.
    pub vals: Vec<T>,
    /// Diagonal value at each position.
    pub diag: Vec<T>,
}

impl<T> SolveSnapshot<T> {
    pub(crate) fn view(&self) -> SnapshotRef<'_, T> {
        SnapshotRef {
            rows: &self.rows,
            entry_ptr: &self.entry_ptr,
            cols: &self.cols,
            diag: &self.diag,
            vals: &self.vals,
        }
    }
}

/// The snapshot's values and the [`CsrMatrix::values_id`] they were
/// gathered from, under one lock so a solve never mixes two versions.
struct ValueSlab<T> {
    source: u64,
    diag: Vec<T>,
    vals: Vec<T>,
}

/// A compiled level-set schedule for one triangular solve, bound to the
/// sparsity pattern it was built from. Build once per structure with
/// [`SolvePlan::build`], then [`solve`](SolvePlan::solve) repeatedly as
/// values change — or promote to a [`VerifiedSolvePlan`] via
/// [`verify`](SolvePlan::verify) to drop the per-call pattern check.
pub struct SolvePlan<T: Scalar> {
    direction: SolveDirection,
    pattern: PatternBinding,
    /// The snapshot's structure (see the module docs): the row at each
    /// position, each position's entry range, and the off-diagonal
    /// columns. The kernel reads structure only from here.
    rows: Vec<u32>,
    entry_ptr: Vec<usize>,
    cols: Vec<u32>,
    /// The snapshot's values.
    slab: RwLock<ValueSlab<T>>,
    /// Per step, its position bounds: `[start, end]` for a serial step,
    /// one start per worker role plus the end for a parallel step.
    bounds: Vec<Vec<usize>>,
    /// Whether each step is parallel, for `stepped_for_each`.
    parallel_flags: Vec<bool>,
    n_levels: usize,
    workers: usize,
    config: SolveConfig,
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
        // Levels in order are the run order; a step is a span of it.
        let (rows, starts) = level_order(a, direction)?;
        let n_levels = starts.len() - 1;
        let (workers, min_parallel) = config.resolve();
        // Runs of levels narrower than `min_parallel` merge into serial
        // chunks. With one worker everything is a single serial chunk,
        // zero barriers — the deterministic reference schedule.
        let mut bounds: Vec<Vec<usize>> = Vec::new();
        let mut parallel_flags = Vec::new();
        let mut chunk_start = 0;
        for w in starts.windows(2) {
            let (start, end) = (w[0], w[1]);
            if workers == 1 || end - start < min_parallel {
                continue;
            }
            if start > chunk_start {
                bounds.push(vec![chunk_start, start]);
                parallel_flags.push(false);
            }
            let cuts = rows_nnz_cuts(a, &rows[start..end], workers);
            bounds.push(cuts.iter().map(|&c| start + c).collect());
            parallel_flags.push(true);
            chunk_start = end;
        }
        if rows.len() > chunk_start {
            bounds.push(vec![chunk_start, rows.len()]);
            parallel_flags.push(false);
        }
        // Gather the snapshot in run order. `level_order` proved every
        // row has a diagonal; the last one wins, as in `sptrsv_seq`.
        let n_off = a.nnz().saturating_sub(rows.len());
        let mut entry_ptr = Vec::with_capacity(rows.len() + 1);
        let mut cols = Vec::with_capacity(n_off);
        let mut vals = Vec::with_capacity(n_off);
        let mut diag = Vec::with_capacity(rows.len());
        entry_ptr.push(0);
        for (q, &r) in rows.iter().enumerate() {
            prefetch_rows_ahead(a, &rows, q);
            let i = r as usize;
            let (rc, rv) = a.row(i);
            let mut d = T::ONE;
            for (&c, &v) in rc.iter().zip(rv) {
                if c as usize == i {
                    d = v;
                } else {
                    cols.push(c);
                    vals.push(v);
                }
            }
            diag.push(d);
            entry_ptr.push(cols.len());
        }
        Ok(Self {
            direction,
            pattern: PatternBinding::of(a),
            rows,
            entry_ptr,
            cols,
            slab: RwLock::new(ValueSlab {
                source: a.values_id(),
                diag,
                vals,
            }),
            bounds,
            parallel_flags,
            n_levels,
            workers,
            config,
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
    ///    fingerprint plus the snapshot's columns) — the proof must be
    ///    about the matrix the caller will solve with;
    /// 2. the snapshot's values are brought up to date with `a`;
    /// 3. [`check_solve_snapshot`]'s obligations then prove, from the
    ///    structure alone, that every row is scheduled exactly once,
    ///    every off-diagonal column is a same-direction dependency
    ///    finalised before the row runs (strictly earlier step for
    ///    parallel steps; earlier position suffices inside a serial
    ///    chunk), every row has a structural diagonal, every parallel
    ///    step's cuts partition its span across the worker team, and
    ///    that the steps tile the snapshot's positions, each of which
    ///    holds exactly its row's off-diagonals in storage order and
    ///    its row's diagonal.
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
        {
            let slab = self.values_for(a);
            prove_solve(
                a,
                self.direction,
                &self.rows,
                &self.bounds,
                &self.parallel_flags,
                self.workers,
                Some(self.view(&slab)),
            )?;
        }
        Ok(VerifiedSolvePlan { plan: self })
    }

    /// Which triangle this plan solves.
    pub fn direction(&self) -> SolveDirection {
        self.direction
    }

    /// The pattern this plan is bound to.
    pub fn fingerprint(&self) -> &PatternFingerprint {
        &self.pattern.fingerprint
    }

    /// The barrier-separated schedule, materialised from the snapshot's
    /// row order (a copy; the plan stores each step as a span).
    pub fn steps(&self) -> Vec<SolveStep> {
        self.bounds
            .iter()
            .zip(&self.parallel_flags)
            .map(|(b, &par)| {
                let (start, end) = (b[0], b[b.len() - 1]);
                let rows = self.rows[start..end].to_vec();
                if par {
                    let cuts = b.iter().map(|&c| c - start).collect();
                    SolveStep::Parallel { rows, cuts }
                } else {
                    SolveStep::Serial { rows }
                }
            })
            .collect()
    }

    /// A copy of the schedule-ordered snapshot, values as of the last
    /// solve, refresh or build.
    pub fn snapshot(&self) -> SolveSnapshot<T> {
        let slab = self.slab.read().unwrap_or_else(PoisonError::into_inner);
        SolveSnapshot {
            rows: self.rows.clone(),
            entry_ptr: self.entry_ptr.clone(),
            cols: self.cols.clone(),
            vals: slab.vals.clone(),
            diag: slab.diag.clone(),
        }
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

    /// Resolved worker-team size.
    pub fn workers(&self) -> usize {
        self.workers
    }

    /// The knobs this plan was built with (as given, sentinels intact).
    pub fn config(&self) -> SolveConfig {
        self.config
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

    /// Whether `a`'s off-diagonal columns are the snapshot's, row for
    /// row in storage order, every row keeping a diagonal: the checked
    /// paths' exact column check for a matrix of another generation
    /// (the fingerprint has matched, so the shape and row lengths do).
    /// The order counts — the kernel subtracts in it — so a matrix whose
    /// rows [`CsrMatrix::sort_rows`] reordered is refused. O(nnz).
    fn mirrors(&self, a: &CsrMatrix<T>) -> bool {
        self.rows
            .iter()
            .zip(self.entry_ptr.windows(2))
            .all(|(&r, e)| {
                let i = r as usize;
                let (cols, _) = a.row(i);
                let off = cols.iter().filter(|&&c| c as usize != i).copied();
                cols.contains(&r) && off.eq(self.cols[e[0]..e[1]].iter().copied())
            })
    }

    fn view<'a>(&'a self, slab: &'a ValueSlab<T>) -> SnapshotRef<'a, T> {
        SnapshotRef {
            rows: &self.rows,
            entry_ptr: &self.entry_ptr,
            cols: &self.cols,
            diag: &slab.diag,
            vals: &slab.vals,
        }
    }

    /// The value slab, gathered from `a` if it holds another value
    /// generation, behind a guard held for as long as the caller reads
    /// it. A refresh takes the write lock and the caller keeps it
    /// (readers of the old values are done; readers of the new ones
    /// wait), so a caller always reads the values of the `a` it passed.
    /// `a` must have `m` rows; any other difference in pattern yields
    /// wrong values, never an out-of-bounds write.
    fn values_for(&self, a: &CsrMatrix<T>) -> SlabGuard<'_, T> {
        let want = a.values_id();
        let slab = self.slab.read().unwrap_or_else(PoisonError::into_inner);
        if slab.source == want {
            return SlabGuard::Read(slab);
        }
        drop(slab);
        let mut slab = self.slab.write().unwrap_or_else(PoisonError::into_inner);
        if slab.source != want {
            // Stale until the walk completes, should it panic midway.
            slab.source = 0;
            self.gather_values(&mut slab, a);
            slab.source = want;
        }
        SlabGuard::Write(slab)
    }

    /// Re-gather the snapshot's values from `a`, walking its rows in
    /// schedule order and routing each entry as the build did: the
    /// diagonal to its position's slot, the off-diagonals in storage
    /// order into its entry range (surplus entries of a mismatched row
    /// are dropped).
    fn gather_values(&self, slab: &mut ValueSlab<T>, a: &CsrMatrix<T>) {
        let ValueSlab { diag, vals, .. } = slab;
        for (p, (&r, d)) in self.rows.iter().zip(diag.iter_mut()).enumerate() {
            prefetch_rows_ahead(a, &self.rows, p);
            let i = r as usize;
            let (rc, rv) = a.row(i);
            let mut slots = vals[self.entry_ptr[p]..self.entry_ptr[p + 1]].iter_mut();
            for (&c, &v) in rc.iter().zip(rv) {
                if c as usize == i {
                    *d = v;
                } else if let Some(slot) = slots.next() {
                    *slot = v;
                }
            }
        }
    }

    /// March the worker team through the schedule with `a`'s values.
    /// Callers guarantee `a.n_rows() == m`, `b.len() == m`,
    /// `x.len() == n`; everything else the kernel needs holds by
    /// construction: the snapshot's structure came from a matrix
    /// `level_order` validated (square, on-triangle, in-bounds columns,
    /// full diagonal), the steps run its levels in dependency order,
    /// and the fields are private so no safe code can change that
    /// structure after the build (a refresh rewrites values only).
    fn run(&self, a: &CsrMatrix<T>, b: &[T], x: &mut [T]) {
        let slab = self.values_for(a);
        let snap = self.view(&slab);
        let xv = XVec::new(x);
        stepped_for_each(self.workers, &self.parallel_flags, |step, role, _w| {
            let bounds = &self.bounds[step];
            // SAFETY: a serial step runs on role 0 alone, after every
            // earlier step; a parallel step is one level, whose rows
            // are mutually independent, and the roles' spans are
            // disjoint — so this span races with nobody, and its
            // dependencies sit in earlier, barrier-separated steps or
            // earlier positions of this worker's own chunk.
            unsafe { solve_positions(snap, b, xv, bounds[role], bounds[role + 1]) }
        });
    }
}

/// A read or write guard on a plan's value slab.
enum SlabGuard<'a, T> {
    Read(std::sync::RwLockReadGuard<'a, ValueSlab<T>>),
    Write(std::sync::RwLockWriteGuard<'a, ValueSlab<T>>),
}

impl<T> std::ops::Deref for SlabGuard<'_, T> {
    type Target = ValueSlab<T>;

    fn deref(&self) -> &ValueSlab<T> {
        match self {
            SlabGuard::Read(g) => g,
            SlabGuard::Write(g) => g,
        }
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
        let fp = &self.plan.pattern.fingerprint;
        self.plan.check_dims(b, x)?;
        if a.n_rows() != fp.m || a.n_cols() != fp.n || a.nnz() != fp.nnz {
            return Err(PlanError::PatternMismatch {
                expected: *fp,
                got: PatternFingerprint::of(a),
            });
        }
        self.plan.run(a, b, x);
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

    /// Unwrap, dropping the proof token.
    pub fn into_inner(self) -> SolvePlan<T> {
        self.plan
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

/// A compiled symmetric Gauss-Seidel sweep over a general square matrix
/// `A = L + D + U`, composed entirely from verified parts:
///
/// 1. `r = b - U x`   — verified SpMV plan over the strict upper half
/// 2. `(L + D) x = r` — verified forward solve
/// 3. `r = b - L x`   — verified SpMV plan over the strict lower half
/// 4. `(D + U) x = r` — verified backward solve
///
/// This is exactly the composed definition of
/// [`spmv_sparse::solve::symgs_seq`], so the result is bit-for-bit
/// identical to the sequential reference at every worker count: the
/// SpMV plans reproduce `spmv_seq` exactly (per-row storage-order
/// accumulation) and the verified solves reproduce `sptrsv_seq`
/// exactly.
///
/// The split is structural and done once; each
/// [`apply`](SymgsPlan::apply) refreshes the halves' values in O(nnz)
/// only when the source matrix's value generation changed.
pub struct SymgsPlan<T: Scalar> {
    pattern: PatternBinding,
    halves: TriangularHalves<T>,
    forward: VerifiedSolvePlan<T>,
    backward: VerifiedSolvePlan<T>,
    upper_spmv: VerifiedPlan<T>,
    lower_spmv: VerifiedPlan<T>,
    /// Residual scratch, allocated once.
    r: Vec<T>,
}

impl<T: Scalar> SymgsPlan<T> {
    /// Build a sweep for `a` with the default [`SolveConfig`]. Rejects
    /// non-square matrices and rows without a structural diagonal.
    pub fn build(a: &CsrMatrix<T>) -> Result<Self, SolveError> {
        Self::build_with(a, SolveConfig::default())
    }

    /// [`build`](Self::build) with explicit solve knobs (shared by the
    /// forward and backward halves; the residual SpMV plans use the
    /// same worker count). The four verified parts are independent and
    /// are built concurrently on the worker team, or on the caller alone
    /// when the team is busy; each is the same plan whichever thread
    /// builds it. The first error is reported in a fixed order —
    /// forward, backward, upper, lower — not in completion order.
    pub fn build_with(a: &CsrMatrix<T>, config: SolveConfig) -> Result<Self, SolveError> {
        let halves = split_triangular(a)?;
        let (workers, _) = config.resolve();
        let solve_for = |half: &CsrMatrix<T>, direction| -> Result<_, SolveError> {
            Ok(SolvePlan::build_with(half, direction, config)?.verify(half)?)
        };
        let spmv_for = |half: &CsrMatrix<T>| -> Result<VerifiedPlan<T>, SolveError> {
            let backend = crate::exec::NativeCpuBackend::new().with_workers(workers);
            let plan = SpmvPlan::compile(
                half,
                Strategy::single_kernel(KernelId::Serial),
                Box::new(backend),
            );
            Ok(plan.verify(half)?)
        };
        // One four-item drain; results are collected, then unwrapped in
        // the documented error order.
        let solves: [OnceLock<Result<VerifiedSolvePlan<T>, SolveError>>; 2] = Default::default();
        let spmvs: [OnceLock<Result<VerifiedPlan<T>, SolveError>>; 2] = Default::default();
        fused_for_each_with(workers, 4, |part| {
            let fresh = match part {
                0 => solves[0]
                    .set(solve_for(halves.lower(), SolveDirection::Forward))
                    .is_ok(),
                1 => solves[1]
                    .set(solve_for(halves.upper(), SolveDirection::Backward))
                    .is_ok(),
                2 => spmvs[0].set(spmv_for(halves.strict_upper())).is_ok(),
                _ => spmvs[1].set(spmv_for(halves.strict_lower())).is_ok(),
            };
            debug_assert!(fresh, "part {part} built twice");
        });
        let [forward, backward] =
            solves.map(|s| s.into_inner().expect("the drain builds every part"));
        let [upper_spmv, lower_spmv] =
            spmvs.map(|s| s.into_inner().expect("the drain builds every part"));
        let (forward, backward) = (forward?, backward?);
        let (upper_spmv, lower_spmv) = (upper_spmv?, lower_spmv?);
        Ok(Self {
            pattern: PatternBinding::of(a),
            r: vec![T::ZERO; a.n_rows()],
            halves,
            forward,
            backward,
            upper_spmv,
            lower_spmv,
        })
    }

    /// Run one sweep: `a` must have the build matrix's pattern (O(1)
    /// for that matrix, a clone, or either after value updates;
    /// otherwise the fingerprint plus [`TriangularHalves::is_split_of`],
    /// an exact O(nnz) column comparison), values may differ — they are
    /// re-copied into the halves when stale. `b` is the right-hand side, `x` the
    /// iterate updated in place.
    pub fn apply(&mut self, a: &CsrMatrix<T>, b: &[T], x: &mut [T]) -> Result<(), PlanError> {
        self.pattern.check(a, || self.halves.is_split_of(a))?;
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
        self.halves.ensure_values(a);
        let Self {
            halves,
            forward,
            backward,
            upper_spmv,
            lower_spmv,
            r,
            ..
        } = self;
        upper_spmv.execute_unchecked(halves.strict_upper(), x, r)?;
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        forward.solve_unchecked(halves.lower(), r, x)?;
        lower_spmv.execute_unchecked(halves.strict_lower(), x, r)?;
        for (ri, &bi) in r.iter_mut().zip(b) {
            *ri = bi - *ri;
        }
        backward.solve_unchecked(halves.upper(), r, x)?;
        Ok(())
    }

    /// The pattern this sweep is bound to.
    pub fn fingerprint(&self) -> &PatternFingerprint {
        &self.pattern.fingerprint
    }

    /// The verified forward (`L + D`) solve.
    pub fn forward(&self) -> &VerifiedSolvePlan<T> {
        &self.forward
    }

    /// The verified backward (`D + U`) solve.
    pub fn backward(&self) -> &VerifiedSolvePlan<T> {
        &self.backward
    }

    /// The structural split the sweep runs on.
    pub fn halves(&self) -> &TriangularHalves<T> {
        &self.halves
    }
}

impl<T: Scalar> std::fmt::Debug for SymgsPlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SymgsPlan")
            .field("m", &self.pattern.fingerprint.m)
            .field("nnz", &self.pattern.fingerprint.nnz)
            .field("forward", &self.forward)
            .field("backward", &self.backward)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;
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
        // four parts run on that role's thread alone.
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

    #[test]
    fn symgs_refreshes_values_on_change() {
        let mut a = sym(80, 7, &[]);
        let b = vec![1.0; 80];
        let mut plan = SymgsPlan::build(&a).unwrap();
        let mut x1 = vec![0.0; 80];
        plan.apply(&a, &b, &mut x1).unwrap();
        for v in a.values_mut() {
            *v *= 3.0;
        }
        let mut x2 = vec![0.0; 80];
        plan.apply(&a, &b, &mut x2).unwrap();
        let mut x2_ref = vec![0.0; 80];
        spmv_sparse::solve::symgs_seq(&a, &b, &mut x2_ref).unwrap();
        assert_ne!(x1, x2, "value refresh must change the sweep");
        for (got, want) in x2.iter().zip(&x2_ref) {
            assert_eq!(got.to_bits(), want.to_bits());
        }
    }
}
