//! Sweep driver for the write-set disjointness analyzer: compile and
//! verify a plan for every (binning strategy × kernel map × backend)
//! combination over a set of structurally diverse matrices.
//!
//! The core checker ([`spmv_autotune::verify::check_dispatch`]) proves
//! one dispatch table; this module enumerates the cross product the
//! runtime can actually produce, so `spmv-lint` exercises every code
//! path that expands bins into row lists.

use spmv_autotune::binning::BinningScheme;
use spmv_autotune::exec::{ExecBackend, NativeCpuBackend, SimGpuBackend};
use spmv_autotune::kernels::KernelId;
use spmv_autotune::plan::{BinFormat, PlanConfig, SpmvPlan};
use spmv_autotune::strategy::Strategy;
use spmv_autotune::verify::VerifyError;
use spmv_gpusim::GpuDevice;
use spmv_sparse::gen::{self, mixture::RowRegime};
use spmv_sparse::{CsrMatrix, PackedSell, Scalar};

/// Outcome of verifying one (strategy, backend, matrix) combination.
#[derive(Debug)]
pub struct PlanCheck {
    /// Human-readable strategy summary.
    pub strategy: String,
    /// Backend name the plan was compiled for.
    pub backend: &'static str,
    /// Label of the matrix the plan was proven against.
    pub matrix: String,
    /// `Ok` when the proof succeeded, the typed failure otherwise.
    pub result: Result<(), VerifyError>,
}

/// The strategy grid `spmv-lint` sweeps: every binning scheme the
/// runtime implements, each with kernel maps that hit the serial,
/// subvector, and vector launch paths (the latter two engage the
/// NNZ-balanced split checks).
pub fn strategy_grid() -> Vec<Strategy> {
    let uniform = |k: KernelId| vec![k; 8];
    let mixed: Vec<KernelId> = (0..8)
        .map(|b| match b {
            0 | 1 => KernelId::Serial,
            2..=5 => KernelId::Subvector(1 << (b as u32)),
            _ => KernelId::Vector,
        })
        .collect();
    let mut out = Vec::new();
    for binning in [
        BinningScheme::Coarse { u: 10 },
        BinningScheme::Coarse { u: 100 },
        BinningScheme::Fine,
        BinningScheme::Hybrid {
            threshold: 16,
            u: 10,
        },
        BinningScheme::Single,
    ] {
        for kernels in [
            uniform(KernelId::Serial),
            uniform(KernelId::Subvector(16)),
            uniform(KernelId::Vector),
            mixed.clone(),
        ] {
            out.push(Strategy { binning, kernels });
        }
    }
    out
}

/// Structurally diverse test matrices: uniform short rows, a power-law
/// tail, and a bimodal mixture (the shape binning exists for). Labels
/// are stable so failures name the matrix.
pub fn matrix_suite() -> Vec<(String, CsrMatrix<f64>)> {
    vec![
        (
            "uniform-400".into(),
            gen::random_uniform::<f64>(400, 400, 1, 8, 11),
        ),
        (
            "powerlaw-600".into(),
            gen::powerlaw::<f64>(600, 1, 120, 2.1, 12),
        ),
        (
            "mixture-500".into(),
            gen::mixture::<f64>(
                500,
                500,
                &[RowRegime::new(1, 4, 0.8), RowRegime::new(60, 200, 0.2)],
                true,
                13,
            ),
        ),
    ]
}

/// Compile and verify every (strategy × backend) plan for `a`,
/// returning one [`PlanCheck`] per combination.
pub fn verify_all_plans<T: Scalar + 'static>(label: &str, a: &CsrMatrix<T>) -> Vec<PlanCheck> {
    let mut out = Vec::new();
    for strategy in strategy_grid() {
        for backend in backend_pair::<T>() {
            let name = backend.name();
            let plan = SpmvPlan::compile(a, strategy.clone(), backend);
            let result = plan.verify(a).map(|_| ());
            out.push(PlanCheck {
                strategy: strategy.describe(),
                backend: name,
                matrix: label.to_string(),
                result,
            });
        }
    }
    out
}

fn backend_pair<T: Scalar + 'static>() -> Vec<Box<dyn ExecBackend<T>>> {
    vec![
        Box::new(SimGpuBackend::new(GpuDevice::kaveri())),
        Box::new(NativeCpuBackend::new()),
    ]
}

/// Run the full sweep over [`matrix_suite`]; the `spmv-lint` entry
/// point. Returns every check so the caller can print and count
/// failures.
pub fn full_sweep() -> Vec<PlanCheck> {
    let mut out = Vec::new();
    for (label, a) in matrix_suite() {
        out.extend(verify_all_plans(&label, &a));
    }
    out
}

/// Outcome of one batched-dispatch equivalence check: a verified plan's
/// `execute_batch` must be bit-for-bit identical, per output column, to
/// `K` single-vector `execute` calls.
#[derive(Debug)]
pub struct BatchCheck {
    /// Human-readable strategy summary.
    pub strategy: String,
    /// Backend name the plan was compiled for.
    pub backend: &'static str,
    /// Label of the matrix checked.
    pub matrix: String,
    /// RHS width exercised.
    pub k: usize,
    /// `Ok` on bitwise equality, a description of the first divergence
    /// (or verify failure) otherwise.
    pub result: Result<(), String>,
}

/// Batched-dispatch sweep: every (strategy × backend) plan over the
/// matrix suite, verified, then executed batched at widths that cover
/// a lone column, a greedy remainder (4+1), and a full register block —
/// each column compared exactly against the single-vector path. This is
/// the `spmv-lint` proof that the (tile × RHS-block) work queue writes
/// every output element once with the right value.
pub fn batched_sweep() -> Vec<BatchCheck> {
    let mut out = Vec::new();
    for (label, a) in matrix_suite() {
        for strategy in strategy_grid() {
            for which in 0..2usize {
                for k in [1usize, 5, 8] {
                    let backend = backend_pair::<f64>().swap_remove(which);
                    let name = backend.name();
                    let plan = SpmvPlan::compile(&a, strategy.clone(), backend);
                    out.push(BatchCheck {
                        strategy: strategy.describe(),
                        backend: name,
                        matrix: label.clone(),
                        k,
                        result: check_batch_equivalence(&a, plan, k),
                    });
                }
            }
        }
    }
    out
}

fn check_batch_equivalence(
    a: &CsrMatrix<f64>,
    plan: SpmvPlan<f64>,
    k: usize,
) -> Result<(), String> {
    let verified = plan.verify(a).map_err(|e| format!("verify: {e}"))?;
    let mut x = spmv_sparse::DenseBlock::<f64>::zeros(a.n_cols(), k);
    x.fill_with(|i, j| (((i * 31 + j * 7) % 23) as f64) - 11.0);
    let mut y = spmv_sparse::DenseBlock::<f64>::zeros(a.n_rows(), k);
    verified
        .execute_batch(a, &x, &mut y)
        .map_err(|e| format!("execute_batch: {e}"))?;
    for j in 0..k {
        let v = x.column(j);
        let mut u = vec![f64::NAN; a.n_rows()];
        verified
            .execute(a, &v, &mut u)
            .map_err(|e| format!("execute (column {j}): {e}"))?;
        if y.column(j) != u {
            let row = (0..a.n_rows())
                .find(|&r| y.column(j)[r].to_bits() != u[r].to_bits())
                .unwrap_or(0);
            return Err(format!(
                "column {j} of {k} diverges first at row {row}: batched {} vs single {}",
                y.column(j)[row],
                u[row]
            ));
        }
    }
    Ok(())
}

/// The bandwidth-tier plan configurations `spmv-lint` sweeps on top of
/// the strategy grid: the shipped default gate and a forced
/// cache-blocked tier (tiny strip budget plus a permissive scatter
/// threshold so the gate actually fires on the 400–600-column suite
/// matrices).
pub fn bandwidth_tiers() -> Vec<(&'static str, PlanConfig)> {
    vec![
        ("auto", PlanConfig::default()),
        (
            "blocked",
            PlanConfig {
                pack: false,
                l2_bytes: 64 * std::mem::size_of::<f64>(),
                scatter_lines_per_row: 1.0,
                ..PlanConfig::default()
            },
        ),
    ]
}

/// Outcome of one bandwidth-tier check: a packed or cache-blocked
/// plan must verify (the payload proofs re-run) and execute bit-for-bit
/// against the sequential CSR reference.
#[derive(Debug)]
pub struct BandwidthCheck {
    /// Tier label from [`bandwidth_tiers`].
    pub tier: &'static str,
    /// Human-readable strategy summary.
    pub strategy: String,
    /// Backend name the plan was compiled for.
    pub backend: &'static str,
    /// Label of the matrix checked.
    pub matrix: String,
    /// `Ok` on bitwise equality, a description of the failure otherwise.
    pub result: Result<(), String>,
}

/// Bandwidth-tier sweep: every (strategy × backend × tier) plan over the
/// matrix suite, verified and executed against the sequential reference.
///
/// Beyond per-plan correctness, the sweep asserts it actually exercised
/// the blocked payload: at least one plan must carry a cache-blocked bin
/// — a sweep that silently gates everything back to plain CSR proves
/// nothing. That coverage failure is appended as a synthetic check.
pub fn bandwidth_sweep() -> Vec<BandwidthCheck> {
    let mut out = Vec::new();
    let mut saw_blocked = false;
    for (label, a) in matrix_suite() {
        let reference = a.spmv_seq_alloc(&probe(a.n_cols())).unwrap();
        for strategy in strategy_grid() {
            for (tier, config) in bandwidth_tiers() {
                for which in 0..2usize {
                    let backend = backend_pair::<f64>().swap_remove(which);
                    let name = backend.name();
                    let plan = SpmvPlan::compile_with(&a, strategy.clone(), backend, config);
                    saw_blocked |= plan.blocked_bins() > 0;
                    out.push(BandwidthCheck {
                        tier,
                        strategy: strategy.describe(),
                        backend: name,
                        matrix: label.clone(),
                        result: check_against_reference(&a, plan, &reference),
                    });
                }
            }
        }
    }
    out.push(BandwidthCheck {
        tier: "coverage",
        strategy: "sweep-wide".into(),
        backend: "-",
        matrix: "-".into(),
        result: if saw_blocked {
            Ok(())
        } else {
            Err(
                "no plan produced a cache-blocked bin: the sweep never left the CSR fallback"
                    .into(),
            )
        },
    });
    out
}

fn probe(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 19) as f64) - 9.0).collect()
}

fn check_against_reference(
    a: &CsrMatrix<f64>,
    plan: SpmvPlan<f64>,
    reference: &[f64],
) -> Result<(), String> {
    let verified = plan.verify(a).map_err(|e| format!("verify: {e}"))?;
    let v = probe(a.n_cols());
    let mut u = vec![f64::NAN; a.n_rows()];
    verified
        .execute_unchecked(a, &v, &mut u)
        .map_err(|e| format!("execute: {e}"))?;
    if u != reference {
        let row = (0..a.n_rows())
            .find(|&r| u[r].to_bits() != reference[r].to_bits())
            .unwrap_or(0);
        return Err(format!(
            "diverges first at row {row}: plan {} vs reference {}",
            u[row], reference[row]
        ));
    }
    Ok(())
}

/// The `n_cols`-shrink guard: a packed plan's gather-bound proof is
/// anchored to the compile-time column count, so handing the plan a
/// column-shrunk matrix (same pattern otherwise) must be rejected on
/// every entry point — checked execute, unchecked execute, and
/// re-verification — never gathered out of bounds.
pub fn shrink_guard_lint() -> Result<(), String> {
    let a = gen::random_uniform::<f64>(200, 100, 2, 4, 17);
    let (rp, ci, vals) = (
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        a.values().to_vec(),
    );
    let wide = CsrMatrix::from_parts(200, 200, rp.clone(), ci.clone(), vals.clone())
        .map_err(|e| format!("build wide: {e}"))?;
    let narrow =
        CsrMatrix::from_parts(200, 100, rp, ci, vals).map_err(|e| format!("build narrow: {e}"))?;
    let compile = || {
        SpmvPlan::compile_with(
            &wide,
            Strategy {
                binning: BinningScheme::Coarse { u: 10 },
                kernels: vec![KernelId::Serial; 8],
            },
            Box::new(NativeCpuBackend::new()),
            PlanConfig::default(),
        )
    };
    let plan = compile();
    if plan.packed_bins() == 0 {
        return Err("shrink guard never compiled a packed bin".into());
    }
    let v = vec![1.0f64; narrow.n_cols()];
    let mut u = vec![0.0f64; narrow.n_rows()];
    if plan.execute(&narrow, &v, &mut u).is_ok() {
        return Err("checked execute accepted a column-shrunk matrix".into());
    }
    if plan.verify(&narrow).is_ok() {
        return Err("verify accepted a column-shrunk matrix".into());
    }
    let verified = compile()
        .verify(&wide)
        .map_err(|e| format!("verify against the compile matrix: {e}"))?;
    if verified.execute_unchecked(&narrow, &v, &mut u).is_ok() {
        return Err("unchecked execute accepted a column-shrunk matrix".into());
    }
    Ok(())
}

/// An identical-row-run matrix for the specialized sweep: runs of
/// `run_len` rows sharing one scattered column list (values still
/// differ per row), the shape the [`BinFormat::RowRunReuse`] gate
/// exists for. Columns are scattered over 4000 columns, and the
/// row-run index stream demonstrably beats the packed slab's (16-bit)
/// column stream.
pub fn row_run_matrix(n_runs: usize, run_len: usize, nnz_per_row: usize) -> CsrMatrix<f64> {
    let n_rows = n_runs * run_len;
    let n_cols = 4_000;
    let mut coo = spmv_sparse::CooMatrix::<f64>::new(n_rows, n_cols);
    for run in 0..n_runs {
        let mut cols: Vec<usize> = (0..nnz_per_row)
            .map(|j| (j * 331 + run * 97) % n_cols)
            .collect();
        cols.sort_unstable();
        cols.dedup();
        for k in 0..run_len {
            let r = run * run_len + k;
            for (j, &c) in cols.iter().enumerate() {
                coo.push(r, c, 1.0 + (r * 7 + j * 3) as f64 * 0.25);
            }
        }
    }
    coo.to_csr()
}

/// The specialized-tier cases `spmv-lint` sweeps: one (matrix, config)
/// pair per structure fast path, with the knobs that route the gate
/// there, plus a disabled tier proving the `specialize` kill switch
/// regates everything to the packed, blocked and CSR formats.
pub fn specialized_tiers() -> Vec<(&'static str, CsrMatrix<f64>, PlanConfig)> {
    vec![
        // Band-complete generator under the default knobs.
        (
            "banded",
            gen::banded::<f64>(900, 3, 21),
            PlanConfig::default(),
        ),
        // Same shape with the banded tier disabled and the run threshold
        // lowered to the generator's run length, forcing dense runs.
        (
            "dense-run",
            gen::banded::<f64>(900, 3, 22),
            PlanConfig {
                band_max_offsets: 0,
                min_dense_run: 2,
                ..PlanConfig::default()
            },
        ),
        // Identical-row runs, classified streaming so the index-byte
        // contest against packing is live.
        (
            "row-run",
            row_run_matrix(48, 8, 12),
            PlanConfig {
                llc_bytes: 0,
                ..PlanConfig::default()
            },
        ),
        // Kill switch: a structured matrix with specialization off must
        // produce zero specialized bins.
        (
            "disabled",
            gen::banded::<f64>(900, 3, 23),
            PlanConfig {
                specialize: false,
                ..PlanConfig::default()
            },
        ),
    ]
}

/// Outcome of one specialized-tier check: the plan must verify (the
/// structural payload proofs re-run against the matrix) and execute
/// bit-for-bit against the sequential CSR reference.
#[derive(Debug)]
pub struct SpecializedCheck {
    /// Tier label from [`specialized_tiers`].
    pub tier: &'static str,
    /// Human-readable strategy summary.
    pub strategy: String,
    /// Backend name the plan was compiled for.
    pub backend: &'static str,
    /// `Ok` on bitwise equality, a description of the failure otherwise.
    pub result: Result<(), String>,
}

/// Specialized-kernel sweep: every (strategy × backend) plan over the
/// [`specialized_tiers`] cases, verified and executed bit-for-bit
/// against the sequential reference.
///
/// Like the bandwidth sweep, coverage is asserted: the sweep must
/// realise at least one banded, one dense-run, and one row-run bin, and
/// the `disabled` tier must realise none — a sweep that silently gates
/// everything back to CSR/packed proves nothing about the fast paths.
/// Failures of those four invariants are appended as synthetic checks.
pub fn specialized_sweep() -> Vec<SpecializedCheck> {
    let mut out = Vec::new();
    let mut saw_banded = false;
    let mut saw_dense_run = false;
    let mut saw_row_run = false;
    let mut disabled_clean = true;
    for (tier, a, config) in specialized_tiers() {
        let reference = a.spmv_seq_alloc(&probe(a.n_cols())).unwrap();
        for strategy in strategy_grid() {
            for which in 0..2usize {
                let backend = backend_pair::<f64>().swap_remove(which);
                let name = backend.name();
                let plan = SpmvPlan::compile_with(&a, strategy.clone(), backend, config);
                for d in plan.dispatch() {
                    match d.format {
                        BinFormat::Banded { .. } => saw_banded = true,
                        BinFormat::DenseRun => saw_dense_run = true,
                        BinFormat::RowRunReuse => saw_row_run = true,
                        _ => {}
                    }
                }
                if tier == "disabled" && plan.specialized_bins() > 0 {
                    disabled_clean = false;
                }
                out.push(SpecializedCheck {
                    tier,
                    strategy: strategy.describe(),
                    backend: name,
                    result: check_against_reference(&a, plan, &reference),
                });
            }
        }
    }
    for (flag, what) in [
        (saw_banded, "no plan realised a banded bin"),
        (saw_dense_run, "no plan realised a dense-run bin"),
        (saw_row_run, "no plan realised a row-run bin"),
        (
            disabled_clean,
            "the specialize kill switch leaked a specialized bin",
        ),
    ] {
        out.push(SpecializedCheck {
            tier: "coverage",
            strategy: "sweep-wide".into(),
            backend: "-",
            result: if flag {
                Ok(())
            } else {
                Err(format!("{what}: the fast-path gate was never exercised"))
            },
        });
    }
    out
}

/// Lower-triangularise one suite matrix: keep its strictly-lower
/// entries, clip to square, and plant a well-conditioned diagonal so
/// the triangular solve is numerically tame. The level structure is
/// inherited from the suite matrix's sparsity, so the three shapes
/// (uniform, power-law, mixture) produce genuinely different level-set
/// profiles.
pub fn lower_with_diag(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let n = a.n_rows().min(a.n_cols());
    let mut coo = spmv_sparse::CooMatrix::<f64>::new(n, n);
    for i in 0..n {
        for k in a.row_ptr()[i]..a.row_ptr()[i + 1] {
            let c = a.col_idx()[k] as usize;
            if c < i {
                coo.push(i, c, a.values()[k]);
            }
        }
        coo.push(i, i, 4.0 + (i % 7) as f64);
    }
    coo.to_csr()
}

/// Square-with-full-diagonal companion for the SymGS sweep: every
/// off-diagonal entry of the suite matrix that fits in the square clip,
/// plus a dominant diagonal (SymGS requires a diagonal in every row).
pub fn square_with_diag(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let n = a.n_rows().min(a.n_cols());
    let mut coo = spmv_sparse::CooMatrix::<f64>::new(n, n);
    for i in 0..n {
        for k in a.row_ptr()[i]..a.row_ptr()[i + 1] {
            let c = a.col_idx()[k] as usize;
            if c < n && c != i {
                coo.push(i, c, a.values()[k]);
            }
        }
        coo.push(i, i, 8.0 + (i % 5) as f64);
    }
    coo.to_csr()
}

/// The level-granularity settings the solve sweep exercises:
/// every level parallel (maximum barriers), the shipped auto merge, and
/// everything merged into one serial chunk (zero barriers).
pub fn solve_granularities() -> Vec<(&'static str, usize)> {
    vec![("parallel-all", 1), ("auto", 0), ("serial-all", usize::MAX)]
}

/// Outcome of one solve-schedule check: the plan must pass the
/// dependency-order prover and its parallel execution must be
/// bit-for-bit identical to the sequential reference.
#[derive(Debug)]
pub struct SolveCheck {
    /// Operation exercised: `forward`, `backward`, `symgs`, a `tamper: …`
    /// snapshot the prover must reject, or a SymGS residual slab, honest
    /// or tampered (`residual…`).
    pub op: &'static str,
    /// Label of the matrix checked.
    pub matrix: String,
    /// Worker count the schedule was built for.
    pub workers: usize,
    /// Level-granularity label from [`solve_granularities`].
    pub granularity: &'static str,
    /// `Ok` on certified + bitwise-equal, a description otherwise.
    pub result: Result<(), String>,
}

/// Solve-schedule sweep: for every suite matrix, build forward SpTRSV
/// (lower triangle), backward SpTRSV (its transpose) and SymGS plans at
/// every (worker count × level granularity), run each through the
/// dependency-order prover, and compare the certified execution
/// bit-for-bit against [`spmv_sparse::solve::sptrsv_seq`] /
/// [`spmv_sparse::solve::symgs_seq`], the SymGS matrix's values changed
/// between its two sweeps. Each suite matrix also gets eleven rows
/// showing that a tampered schedule-ordered snapshot is rejected
/// (`snapshot_tamper_checks`), and five showing that the residual slab
/// of its 4-worker, every-level-parallel sweep is proven and that each
/// slab tamper of it is rejected (`residual_tamper_checks`).
///
/// Like the bandwidth sweep, coverage is asserted: at least one plan
/// must carry a parallel (barrier-stepped) step and at least one must
/// have merged levels into fewer barriers than `levels - 1` — a sweep
/// whose schedules all degenerate to serial proves nothing about the
/// prover. Those coverage failures are appended as synthetic checks.
pub fn solve_sweep() -> Vec<SolveCheck> {
    use spmv_autotune::solve::SolveConfig;
    use spmv_sparse::solve::SolveDirection;

    let mut out = Vec::new();
    let mut saw_parallel = false;
    let mut saw_merged = false;
    for (label, a) in matrix_suite() {
        let lower = lower_with_diag(&a);
        let upper = lower.transpose();
        let sym = square_with_diag(&a);
        for (op, result) in snapshot_tamper_checks(&lower) {
            out.push(SolveCheck {
                op,
                matrix: label.clone(),
                workers: 4,
                granularity: "parallel-all",
                result,
            });
        }
        for workers in [1usize, 4] {
            for (granularity, min_parallel_rows) in solve_granularities() {
                let config = SolveConfig {
                    workers,
                    min_parallel_rows,
                };
                for (op, tri, dir) in [
                    ("forward", &lower, SolveDirection::Forward),
                    ("backward", &upper, SolveDirection::Backward),
                ] {
                    let result = check_solve_plan(tri, dir, config, &mut saw_parallel);
                    if let Ok(merged) = &result {
                        saw_merged |= *merged;
                    }
                    out.push(SolveCheck {
                        op,
                        matrix: label.clone(),
                        workers,
                        granularity,
                        result: result.map(|_| ()),
                    });
                }
                let (result, residual) = check_symgs_plan(&sym, config);
                out.push(SolveCheck {
                    op: "symgs",
                    matrix: label.clone(),
                    workers,
                    granularity,
                    result,
                });
                if (workers, min_parallel_rows) == (4, 1) {
                    for (op, result) in residual_tamper_checks(residual) {
                        out.push(SolveCheck {
                            op,
                            matrix: label.clone(),
                            workers,
                            granularity,
                            result,
                        });
                    }
                }
            }
        }
    }
    for (flag, what) in [
        (saw_parallel, "no schedule carried a parallel step"),
        (
            saw_merged,
            "no schedule merged levels below levels - 1 barriers",
        ),
    ] {
        out.push(SolveCheck {
            op: "coverage",
            matrix: "-".into(),
            workers: 0,
            granularity: "sweep-wide",
            result: if flag {
                Ok(())
            } else {
                Err(format!("{what}: the sweep never exercised it"))
            },
        });
    }
    out
}

/// The snapshot prover's negative cases: copy the schedule and the
/// schedule-ordered snapshot out of an honest forward plan (4 workers,
/// every level parallel), break one property each — five edits of what
/// the snapshot mirrors, every [`LayoutTamper`], then every shared slab
/// tamper ([`SlabTamper`], applied to a copy of the plan) — and require
/// `check_solve_snapshot` to reject it: as a snapshot mismatch (naming
/// the slab tamper's defect), or for the lane that reads another lane
/// of its chunk, as a dependency violation. Each row is `Ok` when the
/// tamper is caught.
fn snapshot_tamper_checks(tri: &CsrMatrix<f64>) -> Vec<(&'static str, Result<(), String>)> {
    use spmv_autotune::solve::{LayoutTamper, SolveConfig, SolvePlan, SolveSnapshot};
    use spmv_autotune::verify::{check_solve_snapshot, VerifyError};
    use spmv_sparse::solve::SolveDirection;
    use spmv_sparse::SlabTamper;
    type Tamper = fn(&mut SolveSnapshot<f64>) -> bool;
    let edits: [(&str, Tamper); 5] = [
        ("tamper: row ids swapped across steps", |s| {
            let last = s.rows.len() - 1;
            s.rows.swap(0, last);
            true
        }),
        ("tamper: slab column edited", |s| {
            let Some(p) = (0..s.rows.len()).find(|&p| s.lens[p] > 0) else {
                return false;
            };
            let k = s.chunk_ptr.partition_point(|&q| q <= p) - 1;
            let slot = s.slot_ptr[k] + p - s.chunk_ptr[k];
            s.cols.set(slot, s.cols.get(slot).wrapping_add(1));
            true
        }),
        ("tamper: diagonal edited", |s| {
            s.diag[0] += 1.0;
            true
        }),
        ("tamper: diagonal dropped", |s| s.diag.pop().is_some()),
        ("tamper: position beyond the steps", |s| {
            s.rows.push(0);
            s.diag.push(1.0);
            s.lens.push(0);
            s.chunk_ptr.push(s.rows.len());
            s.slot_ptr.push(s.cols.len());
            true
        }),
    ];
    let config = SolveConfig {
        workers: 4,
        min_parallel_rows: 1,
    };
    let plan = match SolvePlan::build_with(tri, SolveDirection::Forward, config) {
        Ok(plan) => plan,
        Err(e) => return vec![("tamper: build", Err(format!("build: {e}")))],
    };
    let (honest_steps, honest) = (plan.steps(), plan.snapshot());
    let mut out = Vec::new();
    // `dependency`: the rejection must be a dependency violation;
    // otherwise a snapshot mismatch, naming `defect` when one is given.
    type Want = (bool, Option<spmv_sparse::DefectKind>);
    let mut check = |op, (dependency, defect): Want, broken: bool, steps: &[_], snap: &_| {
        let result = if !broken {
            Err("the honest plan offers no site for this tamper".into())
        } else {
            match check_solve_snapshot(tri, SolveDirection::Forward, steps, 4, snap) {
                Err(VerifyError::SolveDependencyViolated { .. }) if dependency => Ok(()),
                Err(VerifyError::SolveSnapshotMismatch { defect: got, .. })
                    if !dependency && (defect.is_none() || got == defect) =>
                {
                    Ok(())
                }
                other => Err(format!("caught wrongly or not at all: {other:?}")),
            }
        };
        out.push((op, result));
    };
    for (op, edit) in edits {
        let mut snap: SolveSnapshot<f64> = honest.clone();
        let broken = edit(&mut snap);
        check(op, (false, None), broken, &honest_steps, &snap);
    }
    for tamper in LayoutTamper::ALL {
        let (mut steps, mut snap) = (honest_steps.clone(), honest.clone());
        let broken = tamper.apply(&mut steps, &mut snap).is_some();
        let op = match tamper {
            LayoutTamper::LaneReadsLane => "tamper: lane reads another lane of its chunk",
            LayoutTamper::RoleCutInChunk => "tamper: chunk straddles a role cut",
        };
        let dependency = tamper == LayoutTamper::LaneReadsLane;
        check(op, (dependency, None), broken, &steps, &snap);
    }
    for tamper in SlabTamper::ALL {
        let op = match tamper {
            SlabTamper::LaneOverrun => "tamper: lane runs past its chunk",
            SlabTamper::LanesOutOfOrder => "tamper: lanes out of length order",
            SlabTamper::PaddingClaimed => "tamper: padding slot claimed as an entry",
            SlabTamper::WidthMismatch => "tamper: columns at the wrong width",
        };
        let want = (false, Some(tamper.defect()));
        match plan.tampered(tamper) {
            Some((steps, snap, _)) => check(op, want, true, &steps, &snap),
            None => check(op, want, false, &honest_steps, &honest),
        }
    }
    out
}

/// Build + verify + execute one triangular plan; `Ok(merged)` reports
/// whether the schedule has fewer barriers than `levels - 1` (level
/// merging actually fired).
fn check_solve_plan(
    tri: &CsrMatrix<f64>,
    dir: spmv_sparse::solve::SolveDirection,
    config: spmv_autotune::solve::SolveConfig,
    saw_parallel: &mut bool,
) -> Result<bool, String> {
    use spmv_autotune::solve::{SolvePlan, SolveStep};
    let plan =
        SolvePlan::build_with(tri, dir, config).map_err(|e| format!("build ({dir:?}): {e}"))?;
    *saw_parallel |= plan.steps().iter().any(SolveStep::is_parallel);
    let merged = plan.n_barriers() < plan.n_levels().saturating_sub(1);
    let verified = plan.verify(tri).map_err(|e| format!("verify: {e}"))?;
    let b = probe(tri.n_rows());
    let mut reference = vec![f64::NAN; tri.n_rows()];
    spmv_sparse::solve::sptrsv_seq(tri, dir, &b, &mut reference)
        .map_err(|e| format!("sptrsv_seq: {e}"))?;
    let mut x = vec![f64::NAN; tri.n_rows()];
    verified
        .solve_unchecked(tri, &b, &mut x)
        .map_err(|e| format!("solve_unchecked: {e}"))?;
    bitwise_eq(&x, &reference, "solve").map(|()| merged)
}

/// A SymGS plan's residual slab and the matrix whose values it holds.
type Residual = (CsrMatrix<f64>, PackedSell<f64>);

/// Build one SymGS plan and run two sweeps against `symgs_seq`, bit for
/// bit, with `sym`'s values changed between them, so the second sweep
/// checks the routing of a refresh from the general matrix into the
/// three slabs. Returns the outcome and the plan's residual slab with
/// the values its proof must find (`None` when the build failed).
fn check_symgs_plan(
    sym: &CsrMatrix<f64>,
    config: spmv_autotune::solve::SolveConfig,
) -> (Result<(), String>, Option<Residual>) {
    let mut plan = match spmv_autotune::solve::SymgsPlan::build_with(sym, config) {
        Ok(plan) => plan,
        Err(e) => return (Err(format!("symgs build: {e}")), None),
    };
    let mut sym = sym.clone();
    let base = sym.values().to_vec();
    let b = probe(sym.n_rows());
    let mut reference = vec![0.25f64; sym.n_rows()];
    let mut x = vec![0.25f64; sym.n_rows()];
    let mut sweeps = || {
        for sweep in 0..2 {
            if sweep > 0 {
                sym.fill_values_with(|k| base[k] * (1.0 + (k % 3) as f64 * 0.125));
            }
            spmv_sparse::solve::symgs_seq(&sym, &b, &mut reference)
                .map_err(|e| format!("symgs_seq (sweep {sweep}): {e}"))?;
            plan.apply(&sym, &b, &mut x)
                .map_err(|e| format!("symgs apply (sweep {sweep}): {e}"))?;
            bitwise_eq(&x, &reference, &format!("symgs sweep {sweep}"))?;
        }
        Ok(())
    };
    let result = sweeps();
    let residual = plan.residual().clone();
    (result, Some((sym, residual)))
}

/// The residual slab's negative cases: every shared slab tamper
/// ([`SlabTamper`], applied to a copy of an honest sweep's residual
/// slab) must be rejected by `check_residual`, naming the tamper's
/// defect. Each row is `Ok` when the tamper is caught.
///
/// [`SlabTamper`]: spmv_sparse::SlabTamper
fn residual_tamper_checks(residual: Option<Residual>) -> Vec<(&'static str, Result<(), String>)> {
    use spmv_autotune::verify::{check_residual, VerifyError};
    use spmv_sparse::SlabTamper;
    let Some((a, slab)) = residual else {
        return vec![("residual tamper: build", Err("no sweep was built".into()))];
    };
    let honest = check_residual(&a, &slab).map_err(|e| format!("honest residual rejected: {e}"));
    let mut out = vec![("residual: honest slab proven", honest)];
    for tamper in SlabTamper::ALL {
        let op = match tamper {
            SlabTamper::LaneOverrun => "residual tamper: lane runs past its chunk",
            SlabTamper::LanesOutOfOrder => "residual tamper: lanes out of length order",
            SlabTamper::PaddingClaimed => "residual tamper: padding slot claimed as an entry",
            SlabTamper::WidthMismatch => "residual tamper: columns at the wrong width",
        };
        let result = match slab.tampered(tamper) {
            None => Err("the honest slab offers no site for this tamper".into()),
            Some(bad) => match check_residual(&a, &bad) {
                Err(VerifyError::ResidualInvalid {
                    defect: Some(got), ..
                }) if got == tamper.defect() => Ok(()),
                other => Err(format!("caught wrongly or not at all: {other:?}")),
            },
        };
        out.push((op, result));
    }
    out
}

fn bitwise_eq(got: &[f64], want: &[f64], what: &str) -> Result<(), String> {
    if let Some(row) = (0..got.len()).find(|&r| got[r].to_bits() != want[r].to_bits()) {
        return Err(format!(
            "{what} diverges first at row {row}: plan {} vs reference {}",
            got[row], want[row]
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn batched_sweep_is_bit_identical_everywhere() {
        let checks = batched_sweep();
        assert_eq!(checks.len(), 5 * 4 * 2 * 3 * 3, "batched grid changed?");
        for c in &checks {
            assert!(
                c.result.is_ok(),
                "{} on {} over {} (K = {}) failed: {:?}",
                c.strategy,
                c.backend,
                c.matrix,
                c.k,
                c.result
            );
        }
    }

    #[test]
    fn bandwidth_sweep_is_bit_identical_and_covers_new_payloads() {
        let checks = bandwidth_sweep();
        assert_eq!(checks.len(), 3 * 20 * 2 * 2 + 1, "bandwidth grid changed?");
        for c in &checks {
            assert!(
                c.result.is_ok(),
                "[{}] {} on {} over {} failed: {:?}",
                c.tier,
                c.strategy,
                c.backend,
                c.matrix,
                c.result
            );
        }
    }

    #[test]
    fn solve_sweep_is_certified_and_bit_identical_everywhere() {
        let checks = solve_sweep();
        // Per suite matrix: 2 worker counts × 3 granularities × 3 ops,
        // 11 snapshot tamper cases, the honest residual slab and its 4
        // tampers; then 2 sweep-wide coverage rows.
        assert_eq!(
            checks.len(),
            3 * (2 * 3 * 3 + 11 + 1 + 4) + 2,
            "solve grid changed?"
        );
        for c in &checks {
            assert!(
                c.result.is_ok(),
                "{} over {} (workers = {}, granularity = {}) failed: {:?}",
                c.op,
                c.matrix,
                c.workers,
                c.granularity,
                c.result
            );
        }
    }

    #[test]
    fn shrink_guard_rejects_column_shrunk_matrices() {
        shrink_guard_lint().unwrap();
    }

    #[test]
    fn specialized_sweep_is_bit_identical_and_covers_every_fast_path() {
        let checks = specialized_sweep();
        assert_eq!(checks.len(), 4 * 20 * 2 + 4, "specialized grid changed?");
        for c in &checks {
            assert!(
                c.result.is_ok(),
                "[{}] {} on {} failed: {:?}",
                c.tier,
                c.strategy,
                c.backend,
                c.result
            );
        }
    }

    #[test]
    fn every_strategy_backend_combination_verifies() {
        let checks = full_sweep();
        assert_eq!(checks.len(), 5 * 4 * 2 * 3, "grid size changed?");
        for c in &checks {
            assert!(
                c.result.is_ok(),
                "{} on {} over {} failed: {:?}",
                c.strategy,
                c.backend,
                c.matrix,
                c.result
            );
        }
    }
}
