//! Bandwidth-tier execution suite: the packed column slab (16- or
//! 32-bit by the matrix's column count) and
//! cache-blocked scatter execution must be **bit-for-bit** identical to
//! the sequential CSR reference across value-only refreshes after
//! `sort_rows` and scatter-heavy generators, the traffic model must
//! charge exactly the streamed index bytes, and the verifier must
//! reject tampered packed/blocked payloads.

use spmv_autotune::prelude::*;
use spmv_sparse::gen;
use spmv_sparse::gen::mixture::RowRegime;
use spmv_sparse::packed::NARROW_MAX_COLS;
use spmv_sparse::{CsrMatrix, PackedSell, SlabTamper};

fn native_plan(a: &CsrMatrix<f64>, strategy: Strategy, config: PlanConfig) -> SpmvPlan<f64> {
    SpmvPlan::compile_with(a, strategy, Box::new(NativeCpuBackend::new()), config)
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

/// `sort_rows` permutes entries *within* rows (values travel with their
/// columns), bumps the values id, and leaves the row pointer — hence the
/// fingerprint — unchanged. The slab refresh must re-gather columns
/// with their values and keep matching the (now sorted) reference
/// bit-for-bit.
#[test]
fn value_only_refresh_after_sort_rows_stays_bit_identical() {
    // Deliberately unsorted rows: 40 rows of 4 entries in descending
    // column order.
    let m = 40usize;
    let n = 200usize;
    let mut row_ptr = vec![0usize];
    let mut col_idx = Vec::new();
    let mut values = Vec::new();
    for r in 0..m {
        for j in 0..4u32 {
            col_idx.push(((r as u32 * 5) + 12 - 3 * j) % n as u32);
            values.push((r * 4 + j as usize) as f64 * 0.25 - 3.0);
        }
        row_ptr.push(col_idx.len());
    }
    let mut a = CsrMatrix::from_parts(m, n, row_ptr, col_idx, values).unwrap();
    assert!(!a.rows_sorted(), "test premise: rows start unsorted");
    let plan = native_plan(&a, coarse(KernelId::Serial), PlanConfig::default());
    assert!(plan.packed_bins() >= 1, "uniform 4-NNZ rows must pack");
    let v = probe_vector(n, 7);
    let fp_before = *plan.fingerprint();

    let mut u = vec![f64::NAN; m];
    plan.execute(&a, &v, &mut u).unwrap();
    assert_eq!(u, a.spmv_seq_alloc(&v).unwrap(), "pre-sort execution");

    a.sort_rows();
    assert_eq!(
        fp_before,
        PatternFingerprint::of(&a),
        "sort_rows must not change the pattern fingerprint"
    );
    let mut u2 = vec![f64::NAN; m];
    plan.execute(&a, &v, &mut u2).unwrap();
    assert_eq!(u2, a.spmv_seq_alloc(&v).unwrap(), "post-sort refresh");

    // A further value-only update through the same plan.
    a.fill_values_with(|k| ((k % 11) as f64) - 5.0);
    let mut u3 = vec![f64::NAN; m];
    plan.execute(&a, &v, &mut u3).unwrap();
    assert_eq!(u3, a.spmv_seq_alloc(&v).unwrap(), "value refresh");
}

/// Cache-blocked execution is a schedule, not a semantic change: on
/// scatter-heavy rmat/powerlaw matrices with the gate forced by a tiny
/// `l2_bytes` budget, the blocked plan is bit-identical to the unblocked
/// plan and to the sequential reference, and verification covers the
/// blocked payloads.
#[test]
fn cache_blocked_equals_unblocked_on_scatter_heavy_matrices() {
    let matrices: Vec<(&str, CsrMatrix<f64>)> = vec![
        ("rmat", gen::rmat(10, 8, 0.57, 0.19, 0.19, 5)),
        ("powerlaw", gen::powerlaw(800, 4, 120, 2.0, 9)),
    ];
    for (name, a) in &matrices {
        assert!(a.rows_sorted(), "{name}: generators produce sorted rows");
        // Tiny budget: strips of 32 f64 columns, so any matrix wider than
        // 32 columns is eligible and scatter-heavy bins get blocked.
        let blocked_cfg = PlanConfig {
            pack: false,
            l2_bytes: 32 * std::mem::size_of::<f64>(),
            scatter_lines_per_row: 2.0,
            ..PlanConfig::default()
        };
        let plain_cfg = PlanConfig {
            pack: false,
            cache_block: false,
            ..PlanConfig::default()
        };
        let blocked = native_plan(a, coarse(KernelId::Subvector(8)), blocked_cfg);
        let plain = native_plan(a, coarse(KernelId::Subvector(8)), plain_cfg);
        assert!(
            blocked.blocked_bins() >= 1,
            "{name}: forced gate produced no blocked bins"
        );
        assert_eq!(plain.blocked_bins(), 0);
        let v = probe_vector(a.n_cols(), 13);
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let mut ub = vec![f64::NAN; a.n_rows()];
        let mut up = vec![f64::NAN; a.n_rows()];
        blocked
            .verify(a)
            .expect("blocked plan must verify")
            .execute(a, &v, &mut ub)
            .unwrap();
        plain.execute(a, &v, &mut up).unwrap();
        assert_eq!(ub, reference, "{name}: blocked diverges from reference");
        assert_eq!(ub, up, "{name}: blocked diverges from unblocked");
    }
}

/// The batched (SpMM) path over blocked and packed payloads matches
/// per-column single-vector execution bit-for-bit.
#[test]
fn batched_execution_matches_columns_for_bandwidth_payloads() {
    let a = gen::rmat::<f64>(9, 6, 0.45, 0.25, 0.2, 3);
    let config = PlanConfig {
        l2_bytes: 64 * std::mem::size_of::<f64>(),
        scatter_lines_per_row: 2.0,
        ..PlanConfig::default()
    };
    let plan = native_plan(&a, coarse(KernelId::Serial), config);
    let k = 5usize;
    let mut x = DenseBlock::zeros(a.n_cols(), k);
    x.fill_with(|i, j| ((i * 3 + j * 7) % 13) as f64 - 6.0);
    let mut y = DenseBlock::zeros(a.n_rows(), k);
    plan.execute_batch(&a, &x, &mut y).unwrap();
    for j in 0..k {
        let v = x.column(j);
        let mut u = vec![f64::NAN; a.n_rows()];
        plan.execute(&a, &v, &mut u).unwrap();
        assert_eq!(y.column(j), u, "batched column {j} diverges");
    }
}

/// `check_payloads` rejects tampered bandwidth-tier plans: a recorded
/// chunk height that disagrees with the payload, a blocked strip width
/// mismatch, and a zero strip width.
#[test]
fn verify_rejects_tampered_packed_and_blocked_payloads() {
    let a = gen::random_uniform::<f64>(80, 80, 3, 5, 8);
    let rows: Vec<u32> = (0..80).collect();
    let nnz = a.nnz();
    let packed = PackedSell::from_rows(&a, &rows, 8);
    let n_chunks = packed.n_chunks();

    // Recorded chunk height disagrees with the payload's.
    let lying = vec![BinDispatch {
        bin_id: 0,
        kernel: KernelId::Serial,
        rows: rows.clone(),
        nnz,
        format: BinFormat::PackedSell { chunk: 4 },
    }];
    let payloads = vec![BinPayload::Packed(packed)];
    let tiles = vec![Tile {
        bin: 0,
        start: 0,
        end: n_chunks,
    }];
    match check_payloads(&a, &lying, &payloads, &tiles) {
        Err(VerifyError::PackedPayloadInvalid { detail, .. }) => {
            assert!(detail.contains("recorded chunk"), "got: {detail}")
        }
        other => panic!("expected PackedPayloadInvalid, got {other:?}"),
    }

    // Blocked payloads: strip-width mismatch and zero strips.
    let row_tiles = vec![Tile {
        bin: 0,
        start: 0,
        end: rows.len(),
    }];
    for (fmt_strip, pay_strip) in [(8usize, 4usize), (0, 0)] {
        let dispatch = vec![BinDispatch {
            bin_id: 0,
            kernel: KernelId::Serial,
            rows: rows.clone(),
            nnz,
            format: BinFormat::CacheBlockedCsr {
                strip_cols: fmt_strip,
            },
        }];
        let blocked_payloads: Vec<BinPayload<f64>> = vec![BinPayload::Blocked {
            strip_cols: pay_strip,
        }];
        assert!(
            matches!(
                check_payloads(&a, &dispatch, &blocked_payloads, &row_tiles),
                Err(VerifyError::BlockedPayloadInvalid { .. })
            ),
            "strips {fmt_strip}/{pay_strip} accepted"
        );
    }
}

/// The gather-bound proof is anchored to the compile-time `n_cols`:
/// executing (checked or unchecked) against a column-shrunk matrix of
/// the same pattern otherwise must be rejected, never gathered
/// out-of-bounds. This is the runtime half of the spmv-lint shrink
/// guard.
#[test]
fn column_shrink_invalidates_the_plan() {
    // All columns < 100, but the matrix claims 200 columns.
    let a = gen::random_uniform::<f64>(120, 100, 2, 4, 4);
    let (rp, ci, vals) = (
        a.row_ptr().to_vec(),
        a.col_idx().to_vec(),
        a.values().to_vec(),
    );
    let wide = CsrMatrix::from_parts(120, 200, rp.clone(), ci.clone(), vals.clone()).unwrap();
    let narrow = CsrMatrix::from_parts(120, 100, rp, ci, vals).unwrap();

    let plan = native_plan(&wide, coarse(KernelId::Serial), PlanConfig::default());
    let verified = native_plan(&wide, coarse(KernelId::Serial), PlanConfig::default())
        .verify(&wide)
        .unwrap();
    let v_narrow = vec![1.0f64; 100];
    let mut u = vec![0.0f64; 120];
    assert!(
        plan.execute(&narrow, &v_narrow, &mut u).is_err(),
        "checked execute accepted a shrunk matrix"
    );
    assert!(
        verified
            .execute_unchecked(&narrow, &v_narrow, &mut u)
            .is_err(),
        "unchecked execute accepted a shrunk matrix"
    );
    assert!(
        matches!(
            native_plan(&wide, coarse(KernelId::Serial), PlanConfig::default()).verify(&narrow),
            Err(VerifyError::PatternMismatch { .. })
        ),
        "verify accepted a shrunk matrix"
    );
}

/// Every packed slab streams exactly one column per slot at the slab's
/// width — 2 bytes when the matrix has at most `NARROW_MAX_COLS`
/// columns, else 4, with no per-chunk base word — at each chunk height,
/// and the plan's traffic model charges exactly that for each packed
/// bin (CSR bins `nnz × 4`).
#[test]
fn packed_index_stream_is_one_column_per_slot_at_the_slab_width() {
    for (n_cols, col_bytes) in [(3_200, 2), (NARROW_MAX_COLS + 4_000, 4)] {
        let a = gen::mixture::<f64>(
            3_000,
            n_cols,
            &[RowRegime::new(1, 4, 0.5), RowRegime::new(6, 20, 0.5)],
            true,
            21,
        );
        let rows: Vec<u32> = (0..a.n_rows() as u32).collect();
        for chunk in [2, 4, 8] {
            let packed = PackedSell::from_rows(&a, &rows, chunk);
            assert!(
                packed.n_chunks() > 1,
                "chunk {chunk}: one chunk proves nothing"
            );
            assert_eq!(packed.col_bytes(), col_bytes, "n_cols {n_cols}");
            assert_eq!(
                packed.index_stream_bytes(),
                col_bytes * packed.slots(),
                "n_cols {n_cols} chunk {chunk}"
            );

            let plan = native_plan(
                &a,
                coarse(KernelId::Serial),
                PlanConfig {
                    chunk,
                    max_padding: 8.0,
                    cache_block: false,
                    specialize: false,
                    ..PlanConfig::default()
                },
            );
            let mut expected = 0usize;
            for (d, p) in plan.dispatch().iter().zip(plan.payloads()) {
                expected += match p {
                    BinPayload::Packed(packed) => {
                        assert_eq!(d.format, BinFormat::PackedSell { chunk });
                        col_bytes * packed.slots()
                    }
                    _ => 4 * d.nnz,
                };
            }
            assert!(plan.packed_bins() >= 1, "chunk {chunk}: nothing packed");
            assert_eq!(
                plan.traffic().index_bytes,
                expected,
                "n_cols {n_cols} chunk {chunk}"
            );
        }
    }
}

/// `m` rows over `n_cols` columns, 2–12 entries per row spread over the
/// whole column range, stored unsorted, with the last column present in
/// every seventh row.
fn spread(m: usize, n_cols: usize, seed: u64) -> CsrMatrix<f64> {
    let mut coo = spmv_sparse::CooMatrix::<f64>::new(m, n_cols);
    let mut s = seed;
    for r in 0..m {
        for j in 0..2 + (r * 5 + seed as usize) % 11 {
            s = s
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let c = if r % 7 == 0 && j == 1 {
                n_cols - 1
            } else {
                ((s >> 33) % n_cols as u64) as usize
            };
            coo.push(r, c, ((r * 3 + j) % 19) as f64 * 0.5 - 4.5);
        }
    }
    coo.to_csr()
}

/// The 16/32-bit boundary, bit for bit: `n_cols` = 65 536 with column
/// 65 535 present packs 16-bit, 65 537 packs 32-bit. At chunk heights
/// 2, 4 and 8 the plan's SpMV and its SpMM at every K in `1..=8` match
/// `spmv_seq` per column on NaN-filled outputs, through the checked
/// path and through `VerifiedPlan`'s unchecked one.
#[test]
fn width_boundary_is_bit_identical_at_both_slab_widths() {
    for (n_cols, col_bytes) in [(NARROW_MAX_COLS, 2), (NARROW_MAX_COLS + 1, 4)] {
        let a = spread(700, n_cols, 17);
        assert!(a.col_idx().contains(&((n_cols - 1) as u32)));
        let v: Vec<f64> = (0..n_cols).map(|i| ((i % 23) as f64) - 11.0).collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        for chunk in [2, 4, 8] {
            let label = format!("n_cols {n_cols} chunk {chunk}");
            let plan = native_plan(
                &a,
                coarse(KernelId::Serial),
                PlanConfig {
                    chunk,
                    max_padding: 8.0,
                    specialize: false,
                    ..PlanConfig::default()
                },
            );
            let widths: Vec<usize> = plan
                .payloads()
                .iter()
                .filter_map(|p| match p {
                    BinPayload::Packed(packed) => Some(packed.col_bytes()),
                    _ => None,
                })
                .collect();
            assert!(!widths.is_empty(), "{label}: nothing packed");
            assert!(
                widths.iter().all(|&w| w == col_bytes),
                "{label}: {widths:?}"
            );

            let mut u = vec![f64::NAN; a.n_rows()];
            plan.execute(&a, &v, &mut u).unwrap();
            assert_eq!(u, reference, "{label}: checked SpMV");
            let verified = plan.verify(&a).expect("plan must verify");
            let mut u = vec![f64::NAN; a.n_rows()];
            verified.execute_unchecked(&a, &v, &mut u).unwrap();
            assert_eq!(u, reference, "{label}: verified SpMV");
            for k in 1..=8usize {
                let mut x = spmv_autotune::DenseBlock::<f64>::zeros(n_cols, k);
                x.fill_with(|i, j| (((i * 7 + j * 13) % 29) as f64) - 14.0);
                let mut y = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows(), k);
                y.fill_with(|_, _| f64::NAN);
                verified.plan().execute_batch(&a, &x, &mut y).unwrap();
                let mut yu = spmv_autotune::DenseBlock::<f64>::zeros(a.n_rows(), k);
                yu.fill_with(|_, _| f64::NAN);
                verified.execute_batch_unchecked(&a, &x, &mut yu).unwrap();
                for j in 0..k {
                    let rj = a.spmv_seq_alloc(&x.column(j)).unwrap();
                    assert_eq!(y.column(j), rj, "{label}: checked SpMM K = {k} column {j}");
                    assert_eq!(
                        yu.column(j),
                        rj,
                        "{label}: verified SpMM K = {k} column {j}"
                    );
                }
            }
        }
    }
}

/// `check_payloads` rejects each unsound slab layout with the packed
/// proof's typed defect, at both column widths.
#[test]
fn verify_names_the_defect_of_each_tampered_slab() {
    for n_cols in [300, NARROW_MAX_COLS + 1] {
        let a = spread(200, n_cols, 29);
        let rows: Vec<u32> = (0..a.n_rows() as u32).collect();
        let packed = PackedSell::from_rows(&a, &rows, 4);
        let dispatch = vec![BinDispatch {
            bin_id: 0,
            kernel: KernelId::Serial,
            rows,
            nnz: a.nnz(),
            format: BinFormat::PackedSell { chunk: 4 },
        }];
        let tiles = vec![Tile {
            bin: 0,
            start: 0,
            end: packed.n_chunks(),
        }];
        for tamper in SlabTamper::ALL {
            let bad = tamper
                .apply(&packed)
                .expect("a ragged payload has every site");
            match check_payloads(&a, &dispatch, &[BinPayload::Packed(bad)], &tiles) {
                Err(VerifyError::PackedPayloadInvalid { defect, .. }) => {
                    assert_eq!(
                        defect,
                        Some(tamper.defect()),
                        "{tamper:?} at n_cols {n_cols}"
                    )
                }
                other => panic!("{tamper:?} at n_cols {n_cols} accepted: {other:?}"),
            }
        }
        check_payloads(&a, &dispatch, &[BinPayload::Packed(packed)], &tiles).unwrap();
    }
}
