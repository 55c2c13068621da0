//! Pattern-specialized execution suite: every kernel family of the
//! generated table (CSR, packed, dense-run, banded, row-run) must be
//! **bit-for-bit** identical to the sequential CSR reference at every
//! registered RHS width and under thread sweeps; the verifier must
//! reject tampered specialized payloads per structural proof; and the
//! format gate's documented precedence order must hold.

use spmv_autotune::prelude::*;
use spmv_sparse::gen;
use spmv_sparse::{CooMatrix, CsrMatrix, DenseBlock};
use std::sync::Once;

/// Freeze the process-wide thread cap high enough that `with_workers(t)`
/// for every swept `t` really spawns `t` workers. Must run before any
/// kernel launch (the cap is cached on first use).
fn setup() {
    static INIT: Once = Once::new();
    INIT.call_once(|| {
        if std::env::var("SPMV_NUM_THREADS").is_err() {
            std::env::set_var("SPMV_NUM_THREADS", "8");
        }
    });
}

fn native_plan_workers(
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

fn coarse(kernel: KernelId) -> Strategy {
    Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![kernel; 8],
    }
}

fn probe_vector(n: usize, seed: u64) -> Vec<f64> {
    (0..n)
        .map(|i| (((i as u64).wrapping_mul(seed + 3) % 17) as f64) - 8.0)
        .collect()
}

/// A matrix of identical-row runs with *scattered* columns: every run of
/// `run_len` rows shares one column pattern (values differ per row), and
/// column spacing defeats dense runs and bands. The shape the row-run
/// tier exists for.
fn row_run_matrix(n_runs: usize, run_len: usize, nnz_per_row: usize) -> CsrMatrix<f64> {
    let n_rows = n_runs * run_len;
    let n_cols = 4_000;
    let mut coo = CooMatrix::<f64>::new(n_rows, n_cols);
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

/// One matrix per kernel family, with the config that routes the gate
/// there, plus the format-pattern the plan must realise.
fn family_cases() -> Vec<(&'static str, CsrMatrix<f64>, PlanConfig)> {
    vec![
        // Plain CSR bins: structureless scatter with packing off, and
        // specialization on but nothing qualifies.
        (
            "csr",
            gen::random_uniform::<f64>(700, 900, 2, 6, 11),
            PlanConfig {
                pack: false,
                ..PlanConfig::default()
            },
        ),
        // Packed SELL bins: uniform rows, specialization off so the
        // packed family (not banded) serves a banded generator.
        (
            "packed",
            gen::random_uniform::<f64>(600, 600, 4, 4, 12),
            PlanConfig::default(),
        ),
        // Banded: band-complete generator under the default knobs.
        (
            "banded",
            gen::banded::<f64>(1_500, 3, 13),
            PlanConfig::default(),
        ),
        // Dense-run: the same banded shape with the banded tier disabled
        // and the run threshold lowered to the generator's run length.
        (
            "dense-run",
            gen::banded::<f64>(1_500, 3, 14),
            PlanConfig {
                band_max_offsets: 0,
                min_dense_run: 2,
                ..PlanConfig::default()
            },
        ),
        // Row-run: identical-row runs, classified streaming so the
        // index-byte contest against packing is live.
        (
            "row-run",
            row_run_matrix(64, 8, 12),
            PlanConfig {
                llc_bytes: 0,
                ..PlanConfig::default()
            },
        ),
    ]
}

fn format_matches(name: &str, f: BinFormat) -> bool {
    match name {
        "csr" => matches!(f, BinFormat::Csr | BinFormat::CacheBlockedCsr { .. }),
        "packed" => matches!(f, BinFormat::PackedSell { .. }),
        "banded" => matches!(f, BinFormat::Banded { .. }),
        "dense-run" => matches!(f, BinFormat::DenseRun),
        "row-run" => matches!(f, BinFormat::RowRunReuse),
        _ => unreachable!(),
    }
}

/// Every kernel family × every registered RHS width × threads {1, 4}:
/// single-vector and batched execution (K = 15 decomposes into 8+4+2+1,
/// touching all four table widths in one launch) must be bit-for-bit
/// identical to the sequential CSR reference, and the plans must
/// survive `VerifiedPlan` promotion (which re-proves every structural
/// license the specialized kernels execute under).
#[test]
fn fuzz_every_table_entry_bit_identical_across_threads() {
    setup();
    for (name, a, config) in family_cases() {
        let v = probe_vector(a.n_cols(), 3);
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let k = 15usize;
        let mut x = DenseBlock::zeros(a.n_cols(), k);
        x.fill_with(|i, j| ((i * 3 + j * 7) % 13) as f64 - 6.0);
        for workers in [1usize, 4] {
            let plan = native_plan_workers(&a, coarse(KernelId::Serial), config, workers);
            assert!(
                plan.dispatch()
                    .iter()
                    .any(|d| format_matches(name, d.format)),
                "{name}/{workers}t: gate never chose the family: {:?}",
                plan.dispatch().iter().map(|d| d.format).collect::<Vec<_>>()
            );
            // Single-vector, checked and promoted-unchecked.
            let mut u = vec![f64::NAN; a.n_rows()];
            plan.execute(&a, &v, &mut u).unwrap();
            assert_eq!(u, reference, "{name}/{workers}t single-vector diverges");
            let verified = plan.verify(&a).expect("specialized plan must verify");
            let mut uf = vec![f64::NAN; a.n_rows()];
            verified.execute_unchecked(&a, &v, &mut uf).unwrap();
            assert_eq!(uf, reference, "{name}/{workers}t unchecked diverges");
            // Batched: every registered width in one K = 15 launch.
            let mut y = DenseBlock::zeros(a.n_rows(), k);
            verified.plan().execute_batch(&a, &x, &mut y).unwrap();
            for j in 0..k {
                let vj = x.column(j);
                let ref_j = a.spmv_seq_alloc(&vj).unwrap();
                assert_eq!(
                    y.column(j),
                    ref_j,
                    "{name}/{workers}t batched column {j} diverges"
                );
            }
        }
    }
}

/// `check_payloads` rejects every tampered specialized payload with the
/// proof-specific error: a payload whose structural premise was derived
/// from a *different* matrix (dense-run / banded / row-run), a banded
/// format whose recorded offset count lies, and a format/payload
/// cross-pairing.
#[test]
fn verify_rejects_tampered_specialized_payloads() {
    setup();
    // Dense-run: derive the run decomposition from a banded matrix,
    // then present it against a matrix with one extra entry.
    let a = gen::banded::<f64>(300, 3, 21);
    let rows: Vec<u32> = (0..a.n_rows() as u32).collect();
    let runs = spmv_sparse::DenseRuns::detect(&a, &rows, 2).expect("banded rows are runs");
    let mut coo = CooMatrix::<f64>::new(a.n_rows(), a.n_cols());
    for r in 0..a.n_rows() {
        let (cols, vals) = a.row(r);
        for (&c, &x) in cols.iter().zip(vals) {
            coo.push(r, c as usize, x);
        }
    }
    coo.push(0, 250, 9.0); // the tamper: one extra far-off entry in row 0
    let b = coo.to_csr();
    let mk_dispatch = |format: BinFormat| {
        vec![BinDispatch {
            bin_id: 0,
            kernel: KernelId::Serial,
            rows: rows.clone(),
            nnz: b.nnz(),
            format,
        }]
    };
    let tiles = vec![Tile {
        bin: 0,
        start: 0,
        end: rows.len(),
    }];
    match check_payloads(
        &b,
        &mk_dispatch(BinFormat::DenseRun),
        &[BinPayload::<f64>::DenseRun(runs)],
        &tiles,
    ) {
        Err(VerifyError::SpecializedPayloadInvalid { detail, .. }) => {
            assert!(!detail.is_empty())
        }
        other => panic!("tampered dense-run accepted: {other:?}"),
    }

    // Banded: a valid band set presented against the tampered matrix
    // (row 0 is no longer band-complete), and a lying offset count.
    let band = spmv_sparse::BandSet::detect(&a, &rows, 16).expect("banded matrix");
    let n_offsets = band.offsets().len();
    match check_payloads(
        &b,
        &mk_dispatch(BinFormat::Banded { offsets: n_offsets }),
        &[BinPayload::<f64>::Banded(band.clone())],
        &tiles,
    ) {
        Err(VerifyError::SpecializedPayloadInvalid { .. }) => {}
        other => panic!("tampered banded accepted: {other:?}"),
    }
    match check_payloads(
        &a,
        &mk_dispatch(BinFormat::Banded {
            offsets: n_offsets + 1,
        }),
        &[BinPayload::<f64>::Banded(band)],
        &tiles,
    ) {
        Err(VerifyError::SpecializedPayloadInvalid { detail, .. }) => {
            assert!(detail.contains("offsets"), "got: {detail}")
        }
        other => panic!("lying offset count accepted: {other:?}"),
    }

    // Row-run: run boundaries derived from the run matrix, presented
    // against a matrix whose first two rows were made distinct.
    let rr_matrix = row_run_matrix(16, 8, 12);
    let rr_rows: Vec<u32> = (0..rr_matrix.n_rows() as u32).collect();
    let rr = spmv_sparse::RowRuns::detect(&rr_matrix, &rr_rows, 4).expect("runs of 8");
    let mut coo2 = CooMatrix::<f64>::new(rr_matrix.n_rows(), rr_matrix.n_cols());
    for r in 0..rr_matrix.n_rows() {
        let (cols, vals) = rr_matrix.row(r);
        for (&c, &x) in cols.iter().zip(vals) {
            // Shift row 0's pattern by one column: its run shrinks.
            let cc = if r == 0 { c as usize + 1 } else { c as usize };
            coo2.push(r, cc.min(rr_matrix.n_cols() - 1), x);
        }
    }
    let b2 = coo2.to_csr();
    let rr_tiles = vec![Tile {
        bin: 0,
        start: 0,
        end: rr_rows.len(),
    }];
    match check_payloads(
        &b2,
        &[BinDispatch {
            bin_id: 0,
            kernel: KernelId::Serial,
            rows: rr_rows.clone(),
            nnz: b2.nnz(),
            format: BinFormat::RowRunReuse,
        }],
        &[BinPayload::<f64>::RowRun(rr)],
        &rr_tiles,
    ) {
        Err(VerifyError::SpecializedPayloadInvalid { detail, .. }) => {
            assert!(!detail.is_empty())
        }
        other => panic!("tampered row-run accepted: {other:?}"),
    }

    // Format/payload cross-pairing: a specialized format with a CSR
    // payload must be named in the mismatch error.
    match check_payloads(
        &a,
        &mk_dispatch(BinFormat::DenseRun),
        &[BinPayload::<f64>::Csr],
        &tiles,
    ) {
        Err(VerifyError::PackedPayloadInvalid { detail, .. }) => {
            assert!(
                detail.contains("dense-run") && detail.contains("csr"),
                "got: {detail}"
            );
        }
        other => panic!("cross-paired payload accepted: {other:?}"),
    }
}

/// The gate precedence contract, pinned: banded beats dense-run beats
/// packing when all qualify; each knob's zero value disables its tier;
/// `specialize: false` disables all three; and the row-run tier only
/// displaces packing when its modelled index stream is strictly
/// smaller.
#[test]
fn gate_precedence_is_deterministic_and_knob_gated() {
    setup();
    // A banded matrix qualifies for banded AND (with a low threshold)
    // dense-run AND packing: banded must win.
    let banded = gen::banded::<f64>(1_200, 2, 31);
    let plan_for = |config: PlanConfig, a: &CsrMatrix<f64>| {
        native_plan_workers(a, coarse(KernelId::Serial), config, 1)
    };
    let both = plan_for(
        PlanConfig {
            min_dense_run: 2,
            ..PlanConfig::default()
        },
        &banded,
    );
    assert!(
        both.dispatch()
            .iter()
            .all(|d| matches!(d.format, BinFormat::Banded { .. })),
        "banded did not take precedence: {:?}",
        both.dispatch().iter().map(|d| d.format).collect::<Vec<_>>()
    );
    // Banded disabled → the same matrix drops to dense-run.
    let no_band = plan_for(
        PlanConfig {
            band_max_offsets: 0,
            min_dense_run: 2,
            ..PlanConfig::default()
        },
        &banded,
    );
    assert!(
        no_band
            .dispatch()
            .iter()
            .all(|d| matches!(d.format, BinFormat::DenseRun)),
        "dense-run did not take over: {:?}",
        no_band
            .dispatch()
            .iter()
            .map(|d| d.format)
            .collect::<Vec<_>>()
    );
    // Both structure tiers disabled → no bin is specialized.
    let neither = plan_for(
        PlanConfig {
            band_max_offsets: 0,
            min_dense_run: 0,
            ..PlanConfig::default()
        },
        &banded,
    );
    assert_eq!(neither.specialized_bins(), 0);
    // The master switch beats every threshold.
    let off = plan_for(
        PlanConfig {
            specialize: false,
            min_dense_run: 2,
            ..PlanConfig::default()
        },
        &banded,
    );
    assert_eq!(off.specialized_bins(), 0, "specialize: false leaked");

    // Row-run vs packing: in the streaming regime the identical-row
    // matrix moves fewer modelled index bytes as row runs, so the gate
    // must pick RowRunReuse — and packing must win it back when the
    // row-run tier is disabled.
    let rr_matrix = row_run_matrix(64, 8, 12);
    let streaming = PlanConfig {
        llc_bytes: 0,
        ..PlanConfig::default()
    };
    let rr_plan = plan_for(streaming, &rr_matrix);
    assert!(
        rr_plan
            .dispatch()
            .iter()
            .any(|d| matches!(d.format, BinFormat::RowRunReuse)),
        "row-run tier never chosen: {:?}",
        rr_plan
            .dispatch()
            .iter()
            .map(|d| d.format)
            .collect::<Vec<_>>()
    );
    let rr_off = plan_for(
        PlanConfig {
            llc_bytes: 0,
            min_row_run: 0,
            ..PlanConfig::default()
        },
        &rr_matrix,
    );
    assert_eq!(rr_off.specialized_bins(), 0);
    assert!(
        rr_off.packed_bins() >= 1,
        "packing did not reclaim the row-run matrix"
    );
    // The displacement is justified: row runs model strictly fewer
    // index bytes than the packed plan they displaced.
    assert!(
        rr_plan.traffic().index_bytes < rr_off.traffic().index_bytes,
        "row-run {} !< packed {}",
        rr_plan.traffic().index_bytes,
        rr_off.traffic().index_bytes
    );
    // And both stay bit-identical to the reference.
    let v = probe_vector(rr_matrix.n_cols(), 9);
    let reference = rr_matrix.spmv_seq_alloc(&v).unwrap();
    for plan in [rr_plan, rr_off] {
        let mut u = vec![f64::NAN; rr_matrix.n_rows()];
        plan.verify(&rr_matrix)
            .unwrap()
            .execute(&rr_matrix, &v, &mut u)
            .unwrap();
        assert_eq!(u, reference);
    }
}

/// The specialized tiers' traffic accounting: a banded plan's modelled
/// index stream is the offset list alone (bytes ≈ 8 × offsets), far
/// below the packed `u32` slab, and the SimGpu pricing charges the
/// reduction.
#[test]
fn specialized_traffic_is_modelled_and_priced() {
    setup();
    let a = gen::banded::<f64>(2_000, 3, 41);
    let mk = |specialize| {
        SpmvPlan::compile_with(
            &a,
            coarse(KernelId::Serial),
            Box::new(SimGpuBackend::new(GpuDevice::kaveri())),
            PlanConfig {
                llc_bytes: 0,
                specialize,
                ..PlanConfig::default()
            },
        )
    };
    let spec = mk(true);
    let packed = mk(false);
    assert!(spec.specialized_bins() >= 1 && packed.packed_bins() >= 1);
    let (ts, tp) = (spec.traffic(), packed.traffic());
    assert_eq!(ts.nnz, tp.nnz);
    // Packed slabs charge their padding slots; the banded tier streams
    // exactly the stored values.
    assert!(ts.value_bytes <= tp.value_bytes);
    assert!(
        ts.index_bytes * 10 < tp.index_bytes,
        "banded index stream not ≥10x smaller: {} vs {}",
        ts.index_bytes,
        tp.index_bytes
    );
    let v = vec![1.0f64; a.n_cols()];
    let mut u = vec![0.0f64; a.n_rows()];
    let cs = spec.execute(&a, &v, &mut u).unwrap();
    let cp = packed.execute(&a, &v, &mut u).unwrap();
    let (bs, bp) = (
        cs.stats.expect("sim prices").bytes_read,
        cp.stats.expect("sim prices").bytes_read,
    );
    assert!(bs < bp, "specialized priced at {bs} bytes, packed at {bp}");
}
