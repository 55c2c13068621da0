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
//! 2. [`SolvePlan::verify`] hands the schedule to the dependency-order
//!    prover ([`check_solve_schedule`]), which re-derives from the
//!    structure alone that every row is scheduled exactly once, reads
//!    only rows finalised before it, and owns a structural diagonal.
//!    Success mints a [`VerifiedSolvePlan`] — unforgeable outside this
//!    module — whose [`solve_unchecked`](VerifiedSolvePlan::solve_unchecked)
//!    drops the per-call O(m) fingerprint scan to O(1) validation.
//! 3. [`SymgsPlan`] composes one forward and one backward verified
//!    solve with two verified residual SpMV plans into the SymGS sweep,
//!    bit-for-bit identical to [`spmv_sparse::solve::symgs_seq`].
//!
//! ## Why the plan snapshots its structure
//!
//! The SpMV kernels read the caller's matrix each call, and their proof
//! survives that because a wrong matrix only changes *values* read
//! through bounds-checked slices. A solve kernel is sharper: dependency
//! order is a property of the *column indices*, and the pattern
//! fingerprint does not hash those. So the plan copies `row_ptr` and
//! `col_idx` at build time and the kernels walk the snapshot, taking
//! only values from the caller's matrix. Memory safety therefore never
//! depends on what the caller passes — a mismatched matrix yields wrong
//! numbers, never a data race — and `solve_unchecked` stays a safe fn.

use crate::kernels::cpu::rows_nnz_cuts;
use crate::kernels::solve::{solve_rows, XVec};
use crate::kernels::KernelId;
use crate::plan::{PatternFingerprint, PlanError, SpmvPlan, VerifiedPlan};
use crate::strategy::Strategy;
use crate::verify::{check_solve_schedule, VerifyError};
use spmv_parallel::{fused_for_each_with, num_threads, stepped_for_each};
use spmv_sparse::solve::{level_sets, split_triangular, SolveDirection, TriangularHalves};
use spmv_sparse::{CsrMatrix, Scalar, SolveBuildError};
use std::marker::PhantomData;
use std::sync::OnceLock;

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

/// A compiled level-set schedule for one triangular solve, bound to the
/// sparsity pattern it was built from. Build once per structure with
/// [`SolvePlan::build`], then [`solve`](SolvePlan::solve) repeatedly as
/// values change — or promote to a [`VerifiedSolvePlan`] via
/// [`verify`](SolvePlan::verify) to drop the per-call pattern scan.
pub struct SolvePlan<T: Scalar> {
    direction: SolveDirection,
    fingerprint: PatternFingerprint,
    /// Structure snapshot: the kernels never read structure from the
    /// caller's matrix (see the module docs).
    row_ptr: Vec<usize>,
    col_idx: Vec<u32>,
    steps: Vec<SolveStep>,
    /// `steps[s].is_parallel()`, precomputed for `stepped_for_each`.
    parallel_flags: Vec<bool>,
    n_levels: usize,
    workers: usize,
    config: SolveConfig,
    _values: PhantomData<T>,
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
        let levels = level_sets(a, direction)?;
        let n_levels = levels.len();
        let (workers, min_parallel) = config.resolve();
        let mut steps: Vec<SolveStep> = Vec::new();
        let mut pending: Vec<u32> = Vec::new();
        if workers == 1 {
            // One worker: a single serial chunk in level order, zero
            // barriers — the deterministic reference schedule.
            pending = levels.into_iter().flatten().collect();
        } else {
            for rows in levels {
                if rows.len() >= min_parallel {
                    if !pending.is_empty() {
                        steps.push(SolveStep::Serial {
                            rows: std::mem::take(&mut pending),
                        });
                    }
                    let cuts = rows_nnz_cuts(a, &rows, workers);
                    steps.push(SolveStep::Parallel { rows, cuts });
                } else {
                    pending.extend(rows);
                }
            }
        }
        if !pending.is_empty() {
            steps.push(SolveStep::Serial { rows: pending });
        }
        let parallel_flags = steps.iter().map(SolveStep::is_parallel).collect();
        Ok(Self {
            direction,
            fingerprint: PatternFingerprint::of(a),
            row_ptr: a.row_ptr().to_vec(),
            col_idx: a.col_idx().to_vec(),
            steps,
            parallel_flags,
            n_levels,
            workers,
            config,
            _values: PhantomData,
        })
    }

    /// Execute the solve with the full per-call pattern guard: `a` must
    /// fingerprint-match the build matrix (O(m) scan), and `b`/`x` must
    /// have the system's length. Values are read from `a`, structure
    /// from the plan's snapshot.
    pub fn solve(&self, a: &CsrMatrix<T>, b: &[T], x: &mut [T]) -> Result<(), PlanError> {
        let got = PatternFingerprint::of(a);
        if got != self.fingerprint {
            return Err(PlanError::PatternMismatch {
                expected: self.fingerprint,
                got,
            });
        }
        self.check_dims(b, x)?;
        self.run(a.values(), b, x);
        Ok(())
    }

    /// Promote this plan to a [`VerifiedSolvePlan`] by running the
    /// dependency-order prover against `a`:
    ///
    /// 1. `a` must fingerprint-match the build matrix **and** agree
    ///    with the structure snapshot entry-for-entry (the fingerprint
    ///    does not hash column indices; the proof must be about the
    ///    matrix the caller will solve with);
    /// 2. [`check_solve_schedule`] then proves, from the structure
    ///    alone, that every row is scheduled exactly once, every
    ///    off-diagonal column is a same-direction dependency finalised
    ///    before the row runs (strictly earlier step for parallel
    ///    steps; earlier position suffices inside a serial chunk),
    ///    every row has a structural diagonal, and every parallel
    ///    step's cuts partition its rows across the worker team.
    ///
    /// The prover re-derives everything from the matrix; it trusts
    /// nothing the builder wrote down.
    pub fn verify(self, a: &CsrMatrix<T>) -> Result<VerifiedSolvePlan<T>, VerifyError> {
        let got = PatternFingerprint::of(a);
        if got != self.fingerprint {
            return Err(VerifyError::PatternMismatch {
                expected: self.fingerprint,
                got,
            });
        }
        if a.row_ptr() != &self.row_ptr[..] {
            return Err(VerifyError::SolveStructureMismatch { what: "row_ptr" });
        }
        if a.col_idx() != &self.col_idx[..] {
            return Err(VerifyError::SolveStructureMismatch { what: "col_idx" });
        }
        check_solve_schedule(a, self.direction, &self.steps, self.workers)?;
        Ok(VerifiedSolvePlan { plan: self })
    }

    /// Which triangle this plan solves.
    pub fn direction(&self) -> SolveDirection {
        self.direction
    }

    /// The pattern this plan is bound to.
    pub fn fingerprint(&self) -> &PatternFingerprint {
        &self.fingerprint
    }

    /// The barrier-separated schedule.
    pub fn steps(&self) -> &[SolveStep] {
        &self.steps
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
            self.steps.len().saturating_sub(1)
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
        if b.len() != self.fingerprint.m {
            return Err(PlanError::DimensionMismatch {
                what: "rhs vector",
                expected: self.fingerprint.m,
                got: b.len(),
            });
        }
        if x.len() != self.fingerprint.n {
            return Err(PlanError::DimensionMismatch {
                what: "solution vector",
                expected: self.fingerprint.n,
                got: x.len(),
            });
        }
        Ok(())
    }

    /// March the worker team through the schedule. Callers guarantee
    /// `values.len() == fingerprint.nnz`, `b.len() == m`,
    /// `x.len() == n`; everything else the kernel needs holds by
    /// construction: the snapshot came from a matrix `level_sets`
    /// validated (square, on-triangle, in-bounds columns, full
    /// diagonal), the steps cover rows in dependency order, and the
    /// fields are private so no safe code can break those invariants
    /// after the build.
    fn run(&self, values: &[T], b: &[T], x: &mut [T]) {
        let xv = XVec::new(x);
        stepped_for_each(self.workers, &self.parallel_flags, |step, role, _w| {
            match &self.steps[step] {
                SolveStep::Serial { rows } => {
                    // SAFETY: serial steps run on one worker; earlier
                    // rows of the chunk and all prior steps are done.
                    unsafe { solve_rows(&self.row_ptr, &self.col_idx, values, b, xv, rows) }
                }
                SolveStep::Parallel { rows, cuts } => {
                    let span = &rows[cuts[role]..cuts[role + 1]];
                    // SAFETY: level rows are mutually independent and
                    // the cuts are disjoint, so this worker's span
                    // races with nobody; dependencies sit in earlier,
                    // barrier-separated steps.
                    unsafe { solve_rows(&self.row_ptr, &self.col_idx, values, b, xv, span) }
                }
            }
        });
    }
}

impl<T: Scalar> std::fmt::Debug for SolvePlan<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("SolvePlan")
            .field("direction", &self.direction)
            .field("m", &self.fingerprint.m)
            .field("nnz", &self.fingerprint.nnz)
            .field("n_levels", &self.n_levels)
            .field("steps", &self.steps.len())
            .field("workers", &self.workers)
            .finish()
    }
}

/// A solve plan whose schedule has been *proven* dependency-respecting
/// by [`SolvePlan::verify`] — the token that unlocks
/// [`solve_unchecked`](Self::solve_unchecked).
///
/// The only way to obtain one is through `verify`; the wrapped plan is
/// immutable from outside, so the proof cannot go stale for the
/// pattern it was established against.
pub struct VerifiedSolvePlan<T: Scalar> {
    plan: SolvePlan<T>,
}

impl<T: Scalar> VerifiedSolvePlan<T> {
    /// Solve without the per-call O(m) fingerprint scan.
    ///
    /// Validation is O(1): vector lengths plus the matrix's dimensions
    /// and NNZ against the compiled fingerprint. Structure always comes
    /// from the proven snapshot, so handing this a different matrix
    /// that happens to share dimensions and NNZ produces wrong *values*
    /// (never undefined behaviour — the dependency order the threads
    /// rely on is a property of the snapshot, not of `a`). Value-only
    /// updates — the intended use — are always fine.
    pub fn solve_unchecked(&self, a: &CsrMatrix<T>, b: &[T], x: &mut [T]) -> Result<(), PlanError> {
        let fp = &self.plan.fingerprint;
        self.plan.check_dims(b, x)?;
        if a.n_rows() != fp.m || a.n_cols() != fp.n || a.nnz() != fp.nnz {
            return Err(PlanError::PatternMismatch {
                expected: *fp,
                got: PatternFingerprint::of(a),
            });
        }
        self.plan.run(a.values(), b, x);
        Ok(())
    }

    /// The checked solve path (full fingerprint validation), for
    /// callers that want the proof *and* the per-call pattern guard.
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
    fingerprint: PatternFingerprint,
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
            fingerprint: PatternFingerprint::of(a),
            r: vec![T::ZERO; a.n_rows()],
            halves,
            forward,
            backward,
            upper_spmv,
            lower_spmv,
        })
    }

    /// Run one sweep: `a` must fingerprint-match the build matrix
    /// (values may differ — they are re-copied into the halves when
    /// stale), `b` is the right-hand side, `x` the iterate updated in
    /// place.
    pub fn apply(&mut self, a: &CsrMatrix<T>, b: &[T], x: &mut [T]) -> Result<(), PlanError> {
        let got = PatternFingerprint::of(a);
        if got != self.fingerprint {
            return Err(PlanError::PatternMismatch {
                expected: self.fingerprint,
                got,
            });
        }
        if b.len() != self.fingerprint.m {
            return Err(PlanError::DimensionMismatch {
                what: "rhs vector",
                expected: self.fingerprint.m,
                got: b.len(),
            });
        }
        if x.len() != self.fingerprint.n {
            return Err(PlanError::DimensionMismatch {
                what: "solution vector",
                expected: self.fingerprint.n,
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
        &self.fingerprint
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
            .field("m", &self.fingerprint.m)
            .field("nnz", &self.fingerprint.nnz)
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
