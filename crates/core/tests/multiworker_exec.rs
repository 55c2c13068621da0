//! Multi-worker determinism suite for the flat tile queue: a plan
//! executed by `t` workers must produce **bit-for-bit** the same output
//! as the same plan executed by one worker — for every format tier
//! (CSR, packed, cache-blocked), every worker count in
//! {2, 3, 4, 7}, the single-vector and the batched (SpMM) path, checked
//! and unchecked, and across repeated executes.
//!
//! The suite pins `SPMV_NUM_THREADS=8` before the first parallel launch
//! so the schedules are genuinely multi-threaded even on small CI boxes
//! (the runtime clamps workers to this cap, never above it).

use spmv_autotune::prelude::*;
use spmv_sparse::gen;
use spmv_sparse::gen::mixture::RowRegime;
use spmv_sparse::CsrMatrix;
use std::sync::Once;

const WORKERS: [usize; 4] = [2, 3, 4, 7];

/// Freeze the process-wide thread cap high enough that `with_workers(t)`
/// for every swept `t` really runs `t` workers. Must run before any
/// kernel launch (the cap is cached on first use).
fn setup() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if std::env::var("SPMV_NUM_THREADS").is_err() {
            std::env::set_var("SPMV_NUM_THREADS", "8");
        }
    });
}

fn irregular(seed: u64) -> CsrMatrix<f64> {
    gen::mixture(
        900,
        1_100,
        &[
            RowRegime::new(1, 3, 0.5),
            RowRegime::new(8, 40, 0.35),
            RowRegime::new(150, 300, 0.15),
        ],
        true,
        seed,
    )
}

fn coarse(kernel: KernelId) -> Strategy {
    Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![kernel; 8],
    }
}

fn probe_vector(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| (((i as u64).wrapping_mul(seed + 5) % 19) as f64) - 9.0)
        .collect()
}

fn probe_block(n: usize, k: usize) -> DenseBlock<f64> {
    let mut x = DenseBlock::<f64>::zeros(n, k);
    x.fill_with(|i, j| ((i * 3 + j * 11) % 23) as f64 - 11.0);
    x
}

/// One named `PlanConfig` per format tier, all with small tiles so the
/// queue holds many more items than there are workers.
fn format_tiers() -> Vec<(&'static str, PlanConfig)> {
    vec![
        (
            "csr",
            PlanConfig {
                pack: false,
                cache_block: false,
                tile_nnz: 1 << 11,
                ..PlanConfig::default()
            },
        ),
        (
            "packed",
            PlanConfig {
                tile_nnz: 1 << 11,
                ..PlanConfig::default()
            },
        ),
        (
            "cache-blocked",
            PlanConfig {
                pack: false,
                l2_bytes: 32 * std::mem::size_of::<f64>(),
                scatter_lines_per_row: 2.0,
                tile_nnz: 1 << 11,
                ..PlanConfig::default()
            },
        ),
    ]
}

fn plan_with(
    a: &CsrMatrix<f64>,
    strategy: Strategy,
    config: PlanConfig,
    workers: usize,
) -> SpmvPlan<f64> {
    SpmvPlan::compile_with(
        a,
        strategy,
        Box::new(NativeCpuBackend::new().with_workers(workers)),
        config,
    )
}

/// The tiers really exercise the formats they are named after, so a
/// gate change cannot quietly turn this suite into four CSR runs.
#[test]
fn tiers_compile_to_their_formats() {
    setup();
    let a = irregular(11);
    for (tier, config) in format_tiers() {
        let plan = plan_with(&a, coarse(KernelId::Subvector(8)), config, 1);
        let expect = match tier {
            "csr" => plan.packed_bins() == 0 && plan.blocked_bins() == 0,
            "packed" => plan.packed_bins() > 0,
            _ => plan.blocked_bins() > 0,
        };
        let formats: Vec<BinFormat> = plan.dispatch().iter().map(|d| d.format).collect();
        assert!(expect, "{tier}: formats {formats:?}");
        assert!(plan.tiles().len() > 7, "{tier}: too few tiles to share");
    }
}

/// Every format tier, every worker count: the output equals the
/// one-worker output bit for bit, and the plan still passes
/// `VerifiedPlan` promotion with a bit-identical unchecked path.
#[test]
fn multiworker_matches_one_worker_across_formats_and_worker_counts() {
    setup();
    let a = irregular(11);
    let v = probe_vector(a.n_cols(), 3);
    for (tier, config) in format_tiers() {
        let mut reference = vec![f64::NAN; a.n_rows()];
        plan_with(&a, coarse(KernelId::Subvector(8)), config, 1)
            .execute(&a, &v, &mut reference)
            .unwrap();
        for t in WORKERS {
            let plan = plan_with(&a, coarse(KernelId::Subvector(8)), config, t);
            let mut u = vec![f64::NAN; a.n_rows()];
            plan.execute(&a, &v, &mut u).unwrap();
            assert_eq!(u, reference, "{tier}: {t} workers diverge from 1 worker");
            let verified = plan
                .verify(&a)
                .unwrap_or_else(|e| panic!("{tier}: {t}-worker plan failed verify: {e}"));
            let mut u2 = vec![f64::NAN; a.n_rows()];
            verified.execute_unchecked(&a, &v, &mut u2).unwrap();
            assert_eq!(
                u2, reference,
                "{tier}: {t} workers, unchecked path diverges"
            );
        }
    }
}

/// The batched (SpMM) path drains the (tile × RHS block) queue: for
/// every tier and worker count, the K-column output equals the
/// one-worker batch bit for bit, and each column equals the one-worker
/// single-vector execute of that column.
#[test]
fn batched_multiworker_matches_one_worker_bit_for_bit() {
    setup();
    let a = irregular(14);
    let k = 5usize;
    let x = probe_block(a.n_cols(), k);
    for (tier, config) in format_tiers() {
        let one = plan_with(&a, coarse(KernelId::Subvector(8)), config, 1);
        let mut reference = DenseBlock::<f64>::zeros(a.n_rows(), k);
        one.execute_batch(&a, &x, &mut reference).unwrap();
        for j in 0..k {
            let mut u = vec![f64::NAN; a.n_rows()];
            one.execute(&a, &x.column(j), &mut u).unwrap();
            assert_eq!(reference.column(j), u, "{tier}: column {j} diverges");
        }
        for t in WORKERS {
            let plan = plan_with(&a, coarse(KernelId::Subvector(8)), config, t);
            let mut y = DenseBlock::<f64>::zeros(a.n_rows(), k);
            plan.execute_batch(&a, &x, &mut y).unwrap();
            assert_eq!(
                y.as_slice(),
                reference.as_slice(),
                "{tier}: {t}-worker batch diverges from 1 worker"
            );
            let verified = plan.verify(&a).expect("batched plan must verify");
            let mut y2 = DenseBlock::<f64>::zeros(a.n_rows(), k);
            verified.execute_batch_unchecked(&a, &x, &mut y2).unwrap();
            assert_eq!(
                y2.as_slice(),
                reference.as_slice(),
                "{tier}: {t}-worker unchecked batch diverges"
            );
        }
    }
}

/// Repeated execution through one multi-worker plan: every execute is
/// bit-identical to the first.
#[test]
fn repeated_multiworker_execution_is_stable() {
    setup();
    let a = irregular(13);
    let v = probe_vector(a.n_cols(), 7);
    let cfg = PlanConfig {
        tile_nnz: 1 << 11,
        ..PlanConfig::default()
    };
    let plan = plan_with(&a, coarse(KernelId::Subvector(16)), cfg, 4);
    let mut first = vec![f64::NAN; a.n_rows()];
    plan.execute(&a, &v, &mut first).unwrap();
    for round in 0..3 {
        let mut u = vec![f64::NAN; a.n_rows()];
        plan.execute(&a, &v, &mut u).unwrap();
        assert_eq!(u, first, "round {round} diverges from first execute");
    }
}
