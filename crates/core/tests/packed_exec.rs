//! Packed-format execution suite: the SELL-packed, fused-dispatch path
//! must be **bit-for-bit** identical to the sequential CSR reference for
//! every kernel class, every binning, and adversarial shapes (empty
//! rows, one dense row among empties, everything in one bin) — and the
//! padding-overflow fallback to CSR must actually fire.

use spmv_autotune::prelude::*;
use spmv_sparse::gen;
use spmv_sparse::gen::mixture::RowRegime;
use spmv_sparse::packed::SORT_WINDOW_CHUNKS;
use spmv_sparse::{CooMatrix, CsrMatrix};

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
        Strategy {
            binning: BinningScheme::Hybrid {
                threshold: 16,
                u: 10,
            },
            kernels: vec![KernelId::Vector; 8],
        },
        Strategy::single_kernel(KernelId::Subvector(32)),
    ]
}

/// Seeded fuzz (the PR 2 pattern): packed + fused plans are bit-for-bit
/// identical to the sequential reference across seeds, strategies, and
/// kernel classes. Exact `assert_eq!` — any reordering of a row's
/// accumulation, or any padding slot leaking into a sum, fails here.
#[test]
fn fuzz_packed_plans_bit_identical_to_reference() {
    for seed in 0..12u64 {
        let m = 120 + (seed as usize * 41) % 500;
        let a = gen::mixture::<f64>(
            m,
            m + 60,
            &[
                RowRegime::new(1, 3, 0.4),
                RowRegime::new(6, 24, 0.4),
                RowRegime::new(40, 90, 0.2),
            ],
            true,
            seed,
        );
        let v: Vec<f64> = (0..a.n_cols())
            .map(|i| (((i as u64).wrapping_mul(seed + 5) % 19) as f64) - 9.0)
            .collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        for (si, strategy) in strategies().into_iter().enumerate() {
            let plan = native_plan(&a, strategy, PlanConfig::default());
            let mut u = vec![f64::NAN; a.n_rows()];
            plan.execute(&a, &v, &mut u).unwrap();
            assert_eq!(u, reference, "seed {seed} strategy {si} diverges");
        }
    }
}

/// The format decision must not change results: packing on vs off and
/// explicit chunk/tile overrides are all bitwise the same.
#[test]
fn packed_and_unpacked_configs_are_bitwise_equal() {
    let a = gen::powerlaw::<f64>(900, 1, 70, 2.1, 17);
    let v: Vec<f64> = (0..a.n_cols())
        .map(|i| ((i * 7) % 23) as f64 - 11.0)
        .collect();
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
    let strategy = Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    };
    let mut outputs = Vec::new();
    for config in configs {
        let plan = native_plan(&a, strategy.clone(), config);
        let mut u = vec![0.0f64; a.n_rows()];
        plan.execute(&a, &v, &mut u).unwrap();
        outputs.push((config, u));
    }
    for (config, u) in &outputs[1..] {
        assert_eq!(
            *u, outputs[0].1,
            "config {config:?} diverges from the default"
        );
    }
}

/// Low-variance bins get packed; the recorded per-bin format says so,
/// and verification proves the payloads.
#[test]
fn uniform_bins_actually_pack_and_verify() {
    // Exactly 4 NNZ per row: one bin, zero padding — prime SELL shape.
    let a = gen::random_uniform::<f64>(600, 600, 4, 4, 3);
    let plan = native_plan(
        &a,
        Strategy::single_kernel(KernelId::Serial),
        PlanConfig::default(),
    );
    assert!(plan.packed_bins() >= 1, "uniform matrix failed to pack");
    assert!(!plan.tiles().is_empty(), "fused queue missing");
    for d in plan.dispatch() {
        assert!(
            matches!(d.format, BinFormat::PackedSell { .. }),
            "bin {} stayed CSR on a uniform matrix",
            d.bin_id
        );
    }
    let verified = plan.verify(&a).expect("packed plan must verify");
    let v = vec![1.5f64; a.n_cols()];
    let reference = a.spmv_seq_alloc(&v).unwrap();
    let mut u = vec![0.0f64; a.n_rows()];
    verified.execute_unchecked(&a, &v, &mut u).unwrap();
    assert_eq!(u, reference);
}

/// One dense row among empty rows in a `Single` binning: packing it
/// would pad the slab ~chunk-fold, so the padding gate must fall back to
/// CSR — the padding-overflow fallback the acceptance criteria require.
#[test]
fn padding_overflow_falls_back_to_csr() {
    let mut coo = CooMatrix::<f64>::new(64, 256);
    for j in 0..256 {
        coo.push(0, j, 1.0 + j as f64);
    }
    coo.push(1, 0, 2.0);
    let a = coo.to_csr();
    let plan = native_plan(
        &a,
        Strategy {
            binning: BinningScheme::Single,
            kernels: vec![KernelId::Vector],
        },
        PlanConfig {
            // This test pins the *packing* gate's padding fallback; the
            // dense-run fast path would otherwise (correctly) claim the
            // fully dense row first.
            specialize: false,
            ..PlanConfig::default()
        },
    );
    assert_eq!(plan.dispatch().len(), 1, "Single binning should be one bin");
    assert_eq!(
        plan.dispatch()[0].format,
        BinFormat::Csr,
        "skewed bin must fall back to CSR, not pack with ~64x padding"
    );
    // And the fallback still computes correctly, fused.
    let v: Vec<f64> = (0..a.n_cols()).map(|i| (i % 5) as f64 - 2.0).collect();
    let reference = a.spmv_seq_alloc(&v).unwrap();
    let mut u = vec![f64::NAN; a.n_rows()];
    plan.execute(&a, &v, &mut u).unwrap();
    assert_eq!(u, reference, "fallback path wrong");
    assert!(u[2..].iter().all(|&x| x == 0.0), "empty rows not zeroed");
}

/// Adversarial shapes, all strategies: empty rows everywhere, a dense
/// spike, and everything crammed into the overflow bin.
#[test]
fn adversarial_shapes_stay_bit_identical() {
    let mut shapes: Vec<(&str, CsrMatrix<f64>)> = Vec::new();
    shapes.push(("all-empty", CsrMatrix::zeros(300, 300)));
    {
        let mut coo = CooMatrix::<f64>::new(200, 300);
        for j in 0..300 {
            coo.push(77, j, 0.5 + j as f64);
        }
        shapes.push(("one-dense-row", coo.to_csr()));
    }
    // Every row lands in the top (overflow) bin of a Coarse{u:10}
    // binning: rows of ~200 NNZ with MAX_BINS-sized granularity.
    shapes.push((
        "all-rows-overflow-bin",
        gen::random_uniform::<f64>(150, 400, 190, 210, 9),
    ));
    for (name, a) in &shapes {
        let v: Vec<f64> = (0..a.n_cols()).map(|i| ((i % 11) as f64) - 5.0).collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        for (si, strategy) in strategies().into_iter().enumerate() {
            let plan = native_plan(a, strategy, PlanConfig::default());
            let mut u = vec![f64::NAN; a.n_rows()];
            plan.execute(a, &v, &mut u).unwrap();
            assert_eq!(&u, &reference, "{name} strategy {si} diverges");
        }
    }
}

/// Value-only updates through a verified plan refresh the packed slabs:
/// the `values_id` generation must invalidate cached values, on both the
/// checked and unchecked paths.
#[test]
fn packed_slabs_track_value_updates() {
    let mut a = gen::random_uniform::<f64>(500, 500, 3, 9, 21);
    let verified = native_plan(
        &a,
        Strategy::single_kernel(KernelId::Serial),
        PlanConfig::default(),
    )
    .verify(&a)
    .unwrap();
    assert!(verified.plan().packed_bins() >= 1);
    let v: Vec<f64> = (0..500).map(|i| (i % 7) as f64).collect();
    for round in 0..4u64 {
        a.fill_values_with(|k| ((k as u64).wrapping_mul(round + 2) % 13) as f64 - 6.0);
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let mut u = vec![0.0f64; 500];
        verified.execute_unchecked(&a, &v, &mut u).unwrap();
        assert_eq!(u, reference, "round {round}: stale packed values");
    }
}

/// Aggregate storage blow-up of a plan's packed payloads.
fn packed_padding(plan: &SpmvPlan<f64>) -> f64 {
    let (mut slots, mut nnz) = (0usize, 0usize);
    for p in plan.payloads() {
        if let BinPayload::Packed(packed) = p {
            slots += packed.slots();
            nnz += packed.nnz();
        }
    }
    if nnz == 0 {
        1.0
    } else {
        slots as f64 / nnz as f64
    }
}

/// Regression for the Ga3As3H12 slowdown: long irregular rows (spread
/// 30–1400 NNZ) packed at a fixed C = 8 cost 1.156x padding and pushed
/// the packed path below CSR. The adaptive chunk pick (`chunk: 0`) must
/// choose C per bin from the row-length spread: on every bin it packs,
/// its padding is no worse than a forced C = 8 layout of the same rows,
/// on at least one bin strictly better, the aggregate stays under 1.10,
/// and results remain bit-identical.
#[test]
fn adaptive_chunk_tames_long_irregular_rows() {
    // Ga3As3H12's regime mix (suite entry), scaled down for test time.
    // Few rows per bin relative to the length spread is exactly the
    // shape where a wide fixed C pads heavily.
    let a = gen::mixture::<f64>(
        260,
        1_500,
        &[
            RowRegime::new(30, 100, 0.60),
            RowRegime::new(100, 300, 0.32),
            RowRegime::new(300, 1_400, 0.08),
        ],
        true,
        41,
    );
    let adaptive = native_plan(
        &a,
        Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Subvector(16); 8],
        },
        PlanConfig::default(),
    );
    assert!(adaptive.packed_bins() >= 1, "adaptive pick dropped packing");
    let mut strictly_better = 0usize;
    let (mut slots_a, mut slots_f, mut nnz_packed) = (0usize, 0usize, 0usize);
    for (d, p) in adaptive.dispatch().iter().zip(adaptive.payloads()) {
        let BinPayload::Packed(packed) = p else {
            continue;
        };
        let fixed8 = spmv_sparse::PackedSell::from_rows(&a, &d.rows, 8);
        assert!(
            packed.padding_ratio() <= fixed8.padding_ratio() + 1e-12,
            "bin {}: adaptive C={} pads {:.3}, fixed-8 pads {:.3}",
            d.bin_id,
            packed.chunk(),
            packed.padding_ratio(),
            fixed8.padding_ratio()
        );
        if packed.padding_ratio() < fixed8.padding_ratio() - 1e-12 {
            strictly_better += 1;
        }
        slots_a += packed.slots();
        slots_f += fixed8.slots();
        nnz_packed += packed.nnz();
    }
    assert!(
        strictly_better >= 1,
        "adaptive pick never beat fixed-8 — regression case lost its bite"
    );
    // Aggregate over the packed bins: strictly below the fixed-8 layout
    // of the same rows, and under the 1.15 bound the Ga3As3H12 case
    // (1.156 at fixed C = 8) violated.
    let (pa, pf) = (
        slots_a as f64 / nnz_packed as f64,
        slots_f as f64 / nnz_packed as f64,
    );
    assert!(
        pa < pf,
        "adaptive aggregate {pa:.3} not below fixed-8 {pf:.3}"
    );
    assert!(pa <= 1.15, "adaptive padding {pa:.3} above the 1.15 bound");
    assert!(packed_padding(&adaptive) <= 1.15);
    let v: Vec<f64> = (0..a.n_cols()).map(|i| ((i % 13) as f64) - 6.0).collect();
    let reference = a.spmv_seq_alloc(&v).unwrap();
    let mut u = vec![f64::NAN; a.n_rows()];
    adaptive
        .verify(&a)
        .unwrap()
        .execute(&a, &v, &mut u)
        .unwrap();
    assert_eq!(u, reference, "adaptive-chunk plan diverges");
}

/// `check_payloads` rejects tampered plans: a recorded format that does
/// not match the materialised payload, and tile queues that overlap or
/// leave gaps.
#[test]
fn check_payloads_rejects_mismatch_and_bad_tiles() {
    let a = gen::random_uniform::<f64>(80, 80, 2, 5, 8);
    let rows: Vec<u32> = (0..80).collect();
    let nnz = a.nnz();
    let packed = spmv_sparse::PackedSell::from_rows(&a, &rows, 8);
    let n_chunks = packed.n_chunks();
    let dispatch = vec![BinDispatch {
        bin_id: 0,
        kernel: KernelId::Serial,
        rows,
        nnz,
        format: BinFormat::PackedSell { chunk: 8 },
    }];
    let good_tiles = vec![Tile {
        bin: 0,
        start: 0,
        end: n_chunks,
    }];

    // Format recorded as packed, payload is CSR.
    let wrong_payload: Vec<BinPayload<f64>> = vec![BinPayload::Csr];
    assert!(matches!(
        check_payloads(&a, &dispatch, &wrong_payload, &good_tiles),
        Err(VerifyError::PackedPayloadInvalid { .. })
    ));

    // Healthy payload + healthy tiles pass.
    let payloads = vec![BinPayload::Packed(packed)];
    check_payloads(&a, &dispatch, &payloads, &good_tiles).unwrap();

    // A gap in the tile queue is caught.
    let gappy = vec![Tile {
        bin: 0,
        start: 1,
        end: n_chunks,
    }];
    assert!(matches!(
        check_payloads(&a, &dispatch, &payloads, &gappy),
        Err(VerifyError::TilesNotPartition { .. })
    ));

    // Overlapping tiles are caught.
    let overlapping = vec![
        Tile {
            bin: 0,
            start: 0,
            end: n_chunks,
        },
        Tile {
            bin: 0,
            start: n_chunks - 1,
            end: n_chunks,
        },
    ];
    assert!(matches!(
        check_payloads(&a, &dispatch, &payloads, &overlapping),
        Err(VerifyError::TilesNotPartition { .. })
    ));

    // A payload packed from the wrong row set is caught.
    let half_rows: Vec<u32> = (0..40).collect();
    let wrong_rows = vec![BinPayload::Packed(spmv_sparse::PackedSell::from_rows(
        &a, &half_rows, 8,
    ))];
    assert!(matches!(
        check_payloads(&a, &dispatch, &wrong_rows, &good_tiles),
        Err(VerifyError::PackedPayloadInvalid { .. })
    ));
}

/// Bit-for-bit check of a verified plan against `spmv_seq`: one
/// single-vector execute, then a batched execute at every `K` in
/// `1..=8`, each column compared with its own sequential product.
fn assert_spmv_and_spmm_match_reference(a: &CsrMatrix<f64>, plan: SpmvPlan<f64>, label: &str) {
    let plan = plan.verify(a).expect("plan must verify");
    let v: Vec<f64> = (0..a.n_cols()).map(|i| ((i % 17) as f64) - 8.0).collect();
    let mut u = vec![f64::NAN; a.n_rows()];
    plan.execute(a, &v, &mut u).unwrap();
    assert_eq!(u, a.spmv_seq_alloc(&v).unwrap(), "{label}: SpMV diverges");
    for k in 1..=8usize {
        let mut x = spmv_autotune::DenseBlock::<f64>::zeros(a.n_cols(), k);
        x.fill_with(|i, j| (((i * 7 + j * 13) % 29) as f64) - 14.0);
        let mut y = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows(), k);
        plan.execute_batch(a, &x, &mut y).unwrap();
        for j in 0..k {
            let reference = a.spmv_seq_alloc(&x.column(j)).unwrap();
            assert_eq!(y.column(j), reference, "{label}: SpMM K = {k} column {j}");
        }
    }
}

/// The packed bins of a plan and how many row-sort windows each spans.
fn packed_windows(plan: &SpmvPlan<f64>) -> Vec<(usize, usize)> {
    plan.payloads()
        .iter()
        .filter_map(|p| match p {
            BinPayload::Packed(packed) => Some((
                packed.chunk(),
                packed
                    .rows()
                    .len()
                    .div_ceil(SORT_WINDOW_CHUNKS * packed.chunk()),
            )),
            _ => None,
        })
        .collect()
}

/// Rows are length-sorted only within windows of `SORT_WINDOW_CHUNKS`
/// chunks. Bins spanning many windows — a road network with empty
/// rows, mixtures at several chunk heights, and a block-structured bin
/// packed at its identical-run height of 6 (windows of 192 rows, not a
/// power of two, run by the dynamic-height kernel) — must stay bit-for-bit equal to the sequential
/// reference for SpMV and for SpMM at every `K`.
#[test]
fn windowed_row_sort_is_bit_identical_across_windows() {
    let road = gen::road_network::<f64>(110, 110, 0.53, 5);
    assert!(
        (0..road.n_rows()).any(|r| road.row_nnz(r) == 0),
        "the road network must keep empty rows"
    );
    let plan = native_plan(
        &road,
        Strategy::single_kernel(KernelId::Serial),
        PlanConfig::default(),
    );
    assert!(
        packed_windows(&plan).iter().any(|&(_, w)| w > 20),
        "no packed road-network bin spans more than 20 windows: {:?}",
        packed_windows(&plan)
    );
    assert_spmv_and_spmm_match_reference(&road, plan, "road network");

    let mix = gen::mixture::<f64>(
        6_000,
        6_400,
        &[
            RowRegime::new(0, 3, 0.5),
            RowRegime::new(4, 12, 0.4),
            RowRegime::new(20, 40, 0.1),
        ],
        true,
        29,
    );
    for chunk in [2, 4, 8] {
        let plan = native_plan(
            &mix,
            Strategy::single_kernel(KernelId::Serial),
            PlanConfig {
                chunk,
                ..PlanConfig::default()
            },
        );
        assert!(
            packed_windows(&plan)
                .iter()
                .any(|&(c, w)| c == chunk && w > 2),
            "chunk {chunk}: no packed bin spans several windows: {:?}",
            packed_windows(&plan)
        );
        assert_spmv_and_spmm_match_reference(&mix, plan, &format!("mixture at chunk {chunk}"));
    }

    let blocks = gen::block_structured::<f64>(200, 6, 2, 3);
    let plan = native_plan(
        &blocks,
        Strategy::single_kernel(KernelId::Serial),
        PlanConfig {
            chunk: 6,
            specialize: false,
            ..PlanConfig::default()
        },
    );
    assert!(
        packed_windows(&plan).iter().any(|&(c, w)| c == 6 && w > 2),
        "the block bin was not packed at its run height: {:?}",
        packed_windows(&plan)
    );
    assert_spmv_and_spmm_match_reference(&blocks, plan, "block rows at chunk 6");
}

/// The window proof: a slab packed consistently from a row list in
/// which two equal-length rows from different windows trade places is
/// a valid layout of *that* list, so a prover that only checked the row
/// set and per-window length order would accept it against the bin's
/// own list. `check_against` and `check_payloads` must reject it.
#[test]
fn check_against_rejects_rows_swapped_across_windows() {
    let a = gen::random_uniform::<f64>(900, 900, 2, 6, 12);
    let rows: Vec<u32> = (0..900).collect();
    let chunk = 4;
    let window = SORT_WINDOW_CHUNKS * chunk;
    let len = a.row_nnz(0);
    let far = (window..rows.len())
        .find(|&r| a.row_nnz(r) == len)
        .expect("an equal-length row in a later window");
    let mut swapped = rows.clone();
    swapped.swap(0, far);

    let good = spmv_sparse::PackedSell::from_rows(&a, &rows, chunk);
    good.check_against(&a, &rows).unwrap();
    let bad = spmv_sparse::PackedSell::from_rows(&a, &swapped, chunk);
    bad.check_against(&a, &swapped).unwrap();
    let err = bad
        .check_against(&a, &rows)
        .expect_err("a row moved across windows must be rejected");
    assert!(err.contains("window"), "unexpected defect: {err}");

    let dispatch = vec![BinDispatch {
        bin_id: 0,
        kernel: KernelId::Serial,
        rows,
        nnz: a.nnz(),
        format: BinFormat::PackedSell { chunk },
    }];
    let tiles = vec![Tile {
        bin: 0,
        start: 0,
        end: bad.n_chunks(),
    }];
    assert!(matches!(
        check_payloads(&a, &dispatch, &[BinPayload::Packed(bad)], &tiles),
        Err(VerifyError::PackedPayloadInvalid { .. })
    ));
}
