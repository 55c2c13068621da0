//! Batched (SpMM) execution suite: `execute_batch` must be **bit-for-bit**
//! identical, per output column, to `K` independent single-vector
//! `execute` calls — across random matrices, strategies, RHS widths
//! (including 0, 1, and widths that exercise every register-block size
//! and the remainder path), strided blocks, packed and CSR-fallback
//! bins, and both backends.

use spmv_autotune::prelude::*;
use spmv_sparse::gen;
use spmv_sparse::gen::mixture::RowRegime;
use spmv_sparse::CsrMatrix;

fn native_plan(a: &CsrMatrix<f64>, strategy: Strategy, config: PlanConfig) -> SpmvPlan<f64> {
    SpmvPlan::compile_with(a, strategy, Box::new(NativeCpuBackend::new()), config)
}

fn strategies() -> Vec<Strategy> {
    vec![
        Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Serial; 8],
        },
        Strategy {
            binning: BinningScheme::Fine,
            kernels: vec![KernelId::Subvector(16); 8],
        },
        Strategy::single_kernel(KernelId::Subvector(32)),
    ]
}

/// Pseudo-random but deterministic block entries (no RNG dependency).
fn filled_block(rows: usize, k: usize, stride: usize, salt: u64) -> spmv_autotune::DenseBlock<f64> {
    let mut x = spmv_autotune::DenseBlock::<f64>::zeros_strided(rows, k, stride);
    x.fill_with(|i, j| {
        let h = (i as u64)
            .wrapping_mul(31)
            .wrapping_add(j as u64)
            .wrapping_mul(salt.wrapping_add(7));
        ((h % 37) as f64) - 18.0
    });
    x
}

/// Per-column comparison of a batched run against `K` sequential
/// single-vector executes through the same plan. Exact `assert_eq!`.
fn assert_batch_matches_sequential(
    a: &CsrMatrix<f64>,
    plan: &SpmvPlan<f64>,
    x: &spmv_autotune::DenseBlock<f64>,
    label: &str,
) {
    let k = x.k();
    let mut y = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows(), k);
    plan.execute_batch(a, x, &mut y).unwrap();
    for j in 0..k {
        let v = x.column(j);
        let mut u = vec![f64::NAN; a.n_rows()];
        plan.execute(a, &v, &mut u).unwrap();
        assert_eq!(y.column(j), u, "{label}: column {j} of {k} diverges");
    }
}

/// The core fuzz: random mixtures × strategies × RHS widths covering
/// every register-block width (8, 4, 2, 1) and every greedy remainder
/// combination, plus K = 0 and K = 1.
#[test]
fn fuzz_execute_batch_bit_identical_to_sequential() {
    for seed in 0..6u64 {
        let m = 90 + (seed as usize * 37) % 300;
        let a = gen::mixture::<f64>(
            m,
            m + 40,
            &[
                RowRegime::new(1, 3, 0.4),
                RowRegime::new(6, 24, 0.4),
                RowRegime::new(40, 90, 0.2),
            ],
            true,
            seed,
        );
        for (si, strategy) in strategies().into_iter().enumerate() {
            let plan = native_plan(&a, strategy, PlanConfig::default());
            for k in [0usize, 1, 2, 3, 5, 8, 11, 16] {
                let x = filled_block(a.n_cols(), k, k.max(1), seed + k as u64);
                assert_batch_matches_sequential(
                    &a,
                    &plan,
                    &x,
                    &format!("seed {seed} strategy {si}"),
                );
            }
        }
    }
}

/// Strided input and output blocks: live columns embedded in a wider
/// row stride must behave exactly like tight blocks, and the slack
/// lanes of the output must never be written.
#[test]
fn strided_blocks_match_and_slack_is_untouched() {
    let a = gen::powerlaw::<f64>(400, 1, 60, 2.1, 11);
    let plan = native_plan(
        &a,
        Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Subvector(8); 8],
        },
        PlanConfig::default(),
    );
    for (k, stride) in [(1usize, 4usize), (3, 5), (8, 13), (7, 7)] {
        let x = filled_block(a.n_cols(), k, stride, 3);
        let mut y = spmv_autotune::DenseBlock::<f64>::zeros_strided(a.n_rows(), k, stride + 2);
        // Poison the slack so an out-of-block write is detectable.
        y.as_mut_slice().fill(f64::NAN);
        for j in 0..k {
            y.set_column(j, &vec![0.0; a.n_rows()]);
        }
        plan.execute_batch(&a, &x, &mut y).unwrap();
        for j in 0..k {
            let v = x.column(j);
            let mut u = vec![f64::NAN; a.n_rows()];
            plan.execute(&a, &v, &mut u).unwrap();
            assert_eq!(y.column(j), u, "k {k} stride {stride} column {j}");
        }
        for i in 0..a.n_rows() {
            let row = &y.as_slice()[i * y.stride()..i * y.stride() + y.stride()];
            assert!(
                row[k..].iter().all(|s| s.is_nan()),
                "slack lanes of row {i} were written (k {k} stride {stride})"
            );
        }
    }
}

/// The format/dispatch configuration must not change batched results:
/// packed vs CSR payloads and explicit chunk/tile overrides all agree
/// bitwise.
#[test]
fn batched_configs_are_bitwise_equal() {
    let a = gen::mixture::<f64>(
        350,
        350,
        &[RowRegime::new(2, 6, 0.6), RowRegime::new(20, 60, 0.4)],
        true,
        5,
    );
    let strategy = Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Serial; 8],
    };
    let configs = [
        PlanConfig::default(),
        PlanConfig {
            pack: false,
            ..PlanConfig::default()
        },
        PlanConfig {
            chunk: 4,
            tile_nnz: 64,
            ..PlanConfig::default()
        },
    ];
    let k = 7usize; // blocks: 4 + 2 + 1 — every remainder width at once
    let x = filled_block(a.n_cols(), k, k, 9);
    let mut outputs = Vec::new();
    for config in configs {
        let plan = native_plan(&a, strategy.clone(), config);
        let mut y = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows(), k);
        plan.execute_batch(&a, &x, &mut y).unwrap();
        outputs.push((config, y));
    }
    for (config, y) in &outputs[1..] {
        assert_eq!(
            y.as_slice(),
            outputs[0].1.as_slice(),
            "config {config:?} diverges from the default"
        );
    }
}

/// The verified fast path: `execute_batch_unchecked` equals the checked
/// path, and the checked wrapper still works through `VerifiedPlan`.
#[test]
fn verified_batch_paths_agree() {
    let a = gen::random_uniform::<f64>(300, 300, 3, 9, 13);
    let verified = native_plan(
        &a,
        Strategy::single_kernel(KernelId::Serial),
        PlanConfig::default(),
    )
    .verify(&a)
    .unwrap();
    assert!(verified.plan().packed_bins() >= 1);
    let k = 5usize;
    let x = filled_block(a.n_cols(), k, k, 21);
    let mut y_checked = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows(), k);
    let mut y_fast = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows(), k);
    verified.execute_batch(&a, &x, &mut y_checked).unwrap();
    verified
        .execute_batch_unchecked(&a, &x, &mut y_fast)
        .unwrap();
    assert_eq!(y_checked.as_slice(), y_fast.as_slice());
    for j in 0..k {
        let v = x.column(j);
        let mut u = vec![f64::NAN; a.n_rows()];
        verified.execute(&a, &v, &mut u).unwrap();
        assert_eq!(y_fast.column(j), u, "column {j}");
    }
}

/// Batched value tracking: a value update between batched executes is
/// picked up by the packed slabs, exactly as on the single-vector path.
#[test]
fn batched_execute_tracks_value_updates() {
    let mut a = gen::random_uniform::<f64>(250, 250, 4, 4, 17);
    let plan = native_plan(
        &a,
        Strategy::single_kernel(KernelId::Serial),
        PlanConfig::default(),
    );
    assert!(plan.packed_bins() >= 1);
    let k = 4usize;
    let x = filled_block(a.n_cols(), k, k, 2);
    for round in 0..3u64 {
        a.fill_values_with(|p| ((p as u64).wrapping_mul(round + 2) % 17) as f64 - 8.0);
        assert_batch_matches_sequential(&a, &plan, &x, &format!("round {round}"));
    }
}

/// Dimension validation on the batched path: wrong input rows, wrong
/// output rows, and mismatched block widths are all typed errors.
#[test]
fn batched_dimension_errors_are_reported() {
    let a = gen::random_uniform::<f64>(100, 80, 1, 4, 3);
    let plan = native_plan(
        &a,
        Strategy::single_kernel(KernelId::Serial),
        PlanConfig::default(),
    );
    let x = filled_block(a.n_cols(), 4, 4, 1);
    let bad_x = filled_block(a.n_cols() + 1, 4, 4, 1);
    let mut y = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows(), 4);
    let mut bad_rows = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows() + 2, 4);
    let mut bad_width = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows(), 3);
    assert!(matches!(
        plan.execute_batch(&a, &bad_x, &mut y),
        Err(PlanError::DimensionMismatch {
            what: "input block rows",
            ..
        })
    ));
    assert!(matches!(
        plan.execute_batch(&a, &x, &mut bad_rows),
        Err(PlanError::DimensionMismatch {
            what: "output block rows",
            ..
        })
    ));
    assert!(matches!(
        plan.execute_batch(&a, &x, &mut bad_width),
        Err(PlanError::DimensionMismatch {
            what: "output block width",
            ..
        })
    ));
    plan.execute_batch(&a, &x, &mut y).unwrap();
}

/// The simulated-GPU backend's batched launch is functionally identical
/// per column, and its amortized pricing actually amortizes: a K-wide
/// batch reads fewer bytes than K single-vector launches, but never
/// less than one full matrix traversal.
#[test]
fn simgpu_batch_is_equal_and_amortized() {
    let a = gen::mixture::<f64>(
        600,
        600,
        &[RowRegime::new(2, 8, 0.7), RowRegime::new(30, 80, 0.3)],
        true,
        29,
    );
    let plan = SpmvPlan::compile_with(
        &a,
        Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Subvector(16); 8],
        },
        Box::new(SimGpuBackend::new(GpuDevice::kaveri())),
        PlanConfig::default(),
    );
    let k = 8usize;
    let x = filled_block(a.n_cols(), k, k, 4);
    let mut y = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows(), k);
    let batch_bytes = plan
        .execute_batch(&a, &x, &mut y)
        .unwrap()
        .stats
        .expect("sim backend models stats")
        .bytes_read;
    let mut sequential_bytes = 0u64;
    for j in 0..k {
        let v = x.column(j);
        let mut u = vec![f64::NAN; a.n_rows()];
        let cost = plan.execute(&a, &v, &mut u).unwrap();
        sequential_bytes += cost.stats.expect("sim stats").bytes_read;
        assert_eq!(y.column(j), u, "sim column {j} diverges");
    }
    let matrix_bytes = (a.nnz() * (std::mem::size_of::<u32>() + 8)
        + (a.n_rows() + 1) * std::mem::size_of::<usize>()) as u64;
    assert!(
        batch_bytes < sequential_bytes,
        "batched traffic {batch_bytes} not amortized vs sequential {sequential_bytes}"
    );
    assert!(
        batch_bytes >= matrix_bytes,
        "batched traffic {batch_bytes} below one matrix traversal {matrix_bytes}"
    );
    // K = 1 must price exactly like a single-vector launch.
    let x1 = filled_block(a.n_cols(), 1, 1, 4);
    let mut y1 = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows(), 1);
    let b1 = plan.execute_batch(&a, &x1, &mut y1).unwrap();
    let mut u1 = vec![0.0f64; a.n_rows()];
    let s1 = plan.execute(&a, &x1.column(0), &mut u1).unwrap();
    assert_eq!(
        b1.stats.expect("sim stats").bytes_read,
        s1.stats.expect("sim stats").bytes_read
    );
}

/// `rhs_blocks` is a partition of `[0, K)` into kernel-supported widths,
/// greedy widest-first — the property `check_rhs_blocks` proves and the
/// batched write-soundness argument relies on.
#[test]
fn rhs_blocks_partition_property() {
    check_rhs_blocks().unwrap();
    for k in 0..257usize {
        let blocks = rhs_blocks(k);
        let mut pos = 0usize;
        for &(c0, w) in &blocks {
            assert_eq!(c0, pos, "K {k}: block start {c0} leaves a gap");
            assert!(matches!(w, 1 | 2 | 4 | 8), "K {k}: unsupported width {w}");
            pos += w;
        }
        assert_eq!(pos, k, "K {k}: blocks cover {pos}");
        // Greedy widest-first: at most one each of 4, 2, 1 at the tail.
        let tail: Vec<usize> = blocks.iter().map(|&(_, w)| w).filter(|&w| w != 8).collect();
        let mut sorted = tail.clone();
        sorted.sort_unstable_by(|x, y| y.cmp(x));
        assert_eq!(tail, sorted, "K {k}: remainder not widest-first");
        assert!(tail
            .iter()
            .all(|&w| tail.iter().filter(|&&v| v == w).count() == 1));
    }
}
