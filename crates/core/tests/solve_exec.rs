//! Adversarial tests for the dependency-order prover and bit-for-bit
//! equivalence of the parallel triangular solves against the sequential
//! references.
//!
//! The prover tests hand [`check_solve_schedule`] deliberately broken
//! schedules — permuted levels, rows promoted a level early, duplicate
//! and missing rows, broken worker cuts, missing diagonals, and
//! out-of-bounds columns — and require the exact typed rejection. The
//! fuzz tests sweep worker counts {1, 2, 4, 7} and every granularity
//! corner against `sptrsv_seq`/`symgs_seq`, comparing `to_bits`.

use spmv_autotune::prelude::*;
use spmv_autotune::solve::SolveStep;
use spmv_sparse::solve::{level_order, sptrsv_seq, symgs_seq, SolveDirection};
use spmv_sparse::{gen, CsrMatrix, SolveBuildError};

/// Deterministic lower-triangular matrix with a dominant diagonal,
/// derived from a random sparse pattern.
fn tril(m: usize, max_nnz: usize, seed: u64) -> CsrMatrix<f64> {
    let a = gen::random_uniform::<f64>(m, m, 1, max_nnz, seed);
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

/// The honest level-set schedule, every level parallel, cuts from the
/// same NNZ-balanced splitter the planner uses.
fn honest_schedule(a: &CsrMatrix<f64>, workers: usize) -> Vec<SolveStep> {
    let (order, starts) = level_order(a, SolveDirection::Forward).unwrap();
    starts
        .windows(2)
        .map(|w| {
            let rows = order[w[0]..w[1]].to_vec();
            let cuts = spmv_autotune::kernels::cpu::rows_nnz_cuts(a, &rows, workers);
            SolveStep::Parallel { rows, cuts }
        })
        .collect()
}

fn even_cuts(len: usize, workers: usize) -> Vec<usize> {
    let mut cuts: Vec<usize> = (0..=workers).map(|r| r * len / workers).collect();
    cuts[workers] = len;
    cuts
}

#[test]
fn honest_level_sets_are_certified() {
    let a = tril(300, 8, 11);
    check_solve_schedule(&a, SolveDirection::Forward, &honest_schedule(&a, 4), 4).unwrap();
}

#[test]
fn prover_certifies_every_suite_matrix_level_set() {
    // The acceptance bar: the level sets of every (lower-triangularised)
    // suite matrix pass the prover, at several worker counts.
    for sm in spmv_sparse::suite::suite() {
        let full = sm.generate();
        let m = full.n_rows();
        let mut b = gen::RowsBuilder::<f64>::new(m);
        let mut cols = Vec::new();
        let mut vals = Vec::new();
        for i in 0..m {
            cols.clear();
            vals.clear();
            let (rc, rv) = full.row(i);
            let mut dom = 1.0f64;
            for (&c, &v) in rc.iter().zip(rv) {
                if (c as usize) < i {
                    cols.push(c);
                    vals.push(v as f64);
                    dom += (v as f64).abs();
                }
            }
            cols.push(i as u32);
            vals.push(dom);
            b.push_row_sorted(&cols, &vals);
        }
        let a = b.finish();
        for workers in [1usize, 4] {
            let plan = SolvePlan::build_with(
                &a,
                SolveDirection::Forward,
                SolveConfig {
                    workers,
                    min_parallel_rows: 0,
                },
            )
            .unwrap();
            plan.verify(&a)
                .unwrap_or_else(|e| panic!("{}: workers={workers}: {e}", sm.name));
        }
    }
}

#[test]
fn reversed_schedule_is_rejected() {
    let a = tril(200, 6, 3);
    let mut steps = honest_schedule(&a, 2);
    assert!(steps.len() >= 2, "need a real dependency chain");
    steps.reverse();
    match check_solve_schedule(&a, SolveDirection::Forward, &steps, 2) {
        Err(VerifyError::SolveDependencyViolated { .. }) => {}
        other => panic!("expected SolveDependencyViolated, got {other:?}"),
    }
}

#[test]
fn row_promoted_one_level_early_is_rejected() {
    let a = tril(200, 6, 5);
    let mut steps = honest_schedule(&a, 2);
    assert!(steps.len() >= 2);
    // Move the first row of level 1 into level 0: it now runs in the
    // same parallel step as a row it reads.
    let victim = match &mut steps[1] {
        SolveStep::Parallel { rows, cuts } => {
            let v = rows.remove(0);
            *cuts = even_cuts(rows.len(), 2);
            v
        }
        _ => unreachable!(),
    };
    match &mut steps[0] {
        SolveStep::Parallel { rows, cuts } => {
            rows.push(victim);
            *cuts = even_cuts(rows.len(), 2);
        }
        _ => unreachable!(),
    }
    match check_solve_schedule(&a, SolveDirection::Forward, &steps, 2) {
        Err(VerifyError::SolveDependencyViolated { row, .. }) => {
            assert_eq!(row, victim as usize);
        }
        other => panic!("expected SolveDependencyViolated, got {other:?}"),
    }
}

#[test]
fn mutually_dependent_rows_in_one_step_are_rejected() {
    // The "cyclic" case: collapse the whole schedule into one parallel
    // step — every cross-level dependency becomes a same-step race.
    let a = tril(100, 5, 7);
    let rows: Vec<u32> = (0..100).collect();
    let cuts = even_cuts(rows.len(), 4);
    let steps = vec![SolveStep::Parallel { rows, cuts }];
    match check_solve_schedule(&a, SolveDirection::Forward, &steps, 4) {
        Err(VerifyError::SolveDependencyViolated {
            row_step, col_step, ..
        }) => {
            assert_eq!(row_step, col_step, "violation must be the same-step race");
        }
        other => panic!("expected SolveDependencyViolated, got {other:?}"),
    }
}

#[test]
fn serial_chunk_in_wrong_order_is_rejected() {
    // A serial chunk may carry internal dependencies — but only
    // earlier-position-reads-later is legal. Reversing the chunk breaks
    // program order.
    let a = tril(100, 5, 13);
    let (mut rows, _) = level_order(&a, SolveDirection::Forward).unwrap();
    let steps_ok = vec![SolveStep::Serial { rows: rows.clone() }];
    check_solve_schedule(&a, SolveDirection::Forward, &steps_ok, 1).unwrap();
    rows.reverse();
    let steps = vec![SolveStep::Serial { rows }];
    match check_solve_schedule(&a, SolveDirection::Forward, &steps, 1) {
        Err(VerifyError::SolveDependencyViolated { .. }) => {}
        other => panic!("expected SolveDependencyViolated, got {other:?}"),
    }
}

#[test]
fn duplicate_and_missing_rows_are_rejected() {
    let a = tril(80, 4, 17);
    let mut steps = honest_schedule(&a, 2);
    // Duplicate: schedule row 0 again at the end.
    let rows = vec![0u32];
    let cuts = even_cuts(1, 2);
    steps.push(SolveStep::Parallel { rows, cuts });
    match check_solve_schedule(&a, SolveDirection::Forward, &steps, 2) {
        Err(VerifyError::SolveRowRepeated { row: 0, .. }) => {}
        other => panic!("expected SolveRowRepeated, got {other:?}"),
    }
    // Missing: drop a row entirely.
    let mut steps = honest_schedule(&a, 2);
    let dropped = match &mut steps[0] {
        SolveStep::Parallel { rows, cuts } => {
            let v = rows.pop().unwrap();
            *cuts = even_cuts(rows.len(), 2);
            v
        }
        _ => unreachable!(),
    };
    match check_solve_schedule(&a, SolveDirection::Forward, &steps, 2) {
        Err(VerifyError::SolveRowUnscheduled { row }) => assert_eq!(row, dropped as usize),
        other => panic!("expected SolveRowUnscheduled, got {other:?}"),
    }
    // Out of range: a row id >= m.
    let mut steps = honest_schedule(&a, 2);
    if let SolveStep::Parallel { rows, cuts } = &mut steps[0] {
        rows.push(80);
        *cuts = even_cuts(rows.len(), 2);
    }
    match check_solve_schedule(&a, SolveDirection::Forward, &steps, 2) {
        Err(VerifyError::SolveRowOutOfBounds { row: 80, m: 80 }) => {}
        other => panic!("expected SolveRowOutOfBounds, got {other:?}"),
    }
}

#[test]
fn broken_cuts_are_rejected() {
    let a = tril(120, 5, 19);
    let make = |mangle: fn(&mut Vec<usize>)| {
        let mut steps = honest_schedule(&a, 4);
        let target = steps
            .iter_mut()
            .find(|s| s.rows().len() >= 4)
            .expect("a wide level");
        if let SolveStep::Parallel { cuts, .. } = target {
            mangle(cuts);
        }
        steps
    };
    // Wrong length (workers + 2 entries).
    let steps = make(|cuts| cuts.push(*cuts.last().unwrap()));
    assert!(matches!(
        check_solve_schedule(&a, SolveDirection::Forward, &steps, 4),
        Err(VerifyError::SolveCutsInvalid { .. })
    ));
    // Last cut short: the tail rows would be skipped.
    let steps = make(|cuts| {
        let n = cuts.len();
        cuts[n - 1] -= 1;
    });
    assert!(matches!(
        check_solve_schedule(&a, SolveDirection::Forward, &steps, 4),
        Err(VerifyError::SolveCutsInvalid { .. })
    ));
    // Non-monotone: two workers would overlap.
    let steps = make(|cuts| {
        let n = cuts.len();
        cuts.swap(1, n - 2);
    });
    assert!(matches!(
        check_solve_schedule(&a, SolveDirection::Forward, &steps, 4),
        Err(VerifyError::SolveCutsInvalid { .. })
    ));
}

#[test]
fn missing_diagonal_is_rejected_by_prover_and_builder() {
    // Row 1 lacks a diagonal entry.
    let a = CsrMatrix::<f64>::from_parts(
        3,
        3,
        vec![0, 1, 2, 4],
        vec![0, 0, 0, 2],
        vec![2.0, 1.0, 1.0, 2.0],
    )
    .unwrap();
    assert!(matches!(
        SolvePlan::build(&a, SolveDirection::Forward),
        Err(SolveBuildError::MissingDiagonal { row: 1 })
    ));
    let rows: Vec<u32> = vec![0, 1, 2];
    let steps = vec![SolveStep::Serial { rows }];
    match check_solve_schedule(&a, SolveDirection::Forward, &steps, 1) {
        Err(VerifyError::SolveMissingDiagonal { row: 1 }) => {}
        other => panic!("expected SolveMissingDiagonal, got {other:?}"),
    }
}

#[test]
fn out_of_bounds_column_is_rejected() {
    // from_parts_unchecked lets a hostile structure claim a column
    // beyond the system; the prover must catch the would-be OOB gather.
    let a = CsrMatrix::<f64>::from_parts_unchecked(
        3,
        3,
        vec![0, 1, 2, 4],
        vec![0, 1, 5, 2],
        vec![2.0, 2.0, 1.0, 2.0],
    );
    let steps = vec![SolveStep::Serial {
        rows: vec![0, 1, 2],
    }];
    match check_solve_schedule(&a, SolveDirection::Forward, &steps, 1) {
        Err(VerifyError::SolveColOutOfBounds { row: 2, col: 5, .. }) => {}
        other => panic!("expected SolveColOutOfBounds, got {other:?}"),
    }
}

#[test]
fn off_triangle_and_non_square_are_rejected() {
    let full = gen::banded::<f64>(20, 1, 3);
    let steps = vec![SolveStep::Serial {
        rows: (0..20).collect(),
    }];
    assert!(matches!(
        check_solve_schedule(&full, SolveDirection::Forward, &steps, 1),
        Err(VerifyError::SolveOffTriangle { .. })
    ));
    let rect = gen::random_uniform::<f64>(10, 20, 1, 3, 23);
    assert!(matches!(
        check_solve_schedule(&rect, SolveDirection::Forward, &[], 1),
        Err(VerifyError::SolveNotSquare { .. })
    ));
}

#[test]
fn sptrsv_fuzz_is_bitwise_identical_across_threads_and_granularities() {
    for (m, max_nnz, seed) in [(150usize, 5usize, 31u64), (400, 9, 37), (700, 12, 41)] {
        let lower = tril(m, max_nnz, seed);
        let upper = lower.transpose();
        let b: Vec<f64> = (0..m).map(|i| ((i * 37 % 23) as f64) - 11.0).collect();
        for (a, dir) in [
            (&lower, SolveDirection::Forward),
            (&upper, SolveDirection::Backward),
        ] {
            let mut x_ref = vec![0.0; m];
            sptrsv_seq(a, dir, &b, &mut x_ref).unwrap();
            for workers in [1usize, 2, 4, 7] {
                for min_parallel in [1usize, 0, 64, usize::MAX] {
                    let plan = SolvePlan::build_with(
                        a,
                        dir,
                        SolveConfig {
                            workers,
                            min_parallel_rows: min_parallel,
                        },
                    )
                    .unwrap()
                    .verify(a)
                    .unwrap();
                    let mut x = vec![0.0; m];
                    plan.solve_unchecked(a, &b, &mut x).unwrap();
                    for (i, (got, want)) in x.iter().zip(&x_ref).enumerate() {
                        assert_eq!(
                            got.to_bits(),
                            want.to_bits(),
                            "m={m} seed={seed} {dir} workers={workers} \
                             min_parallel={min_parallel} row {i}"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn symgs_fuzz_is_bitwise_identical_across_threads() {
    for (m, seed) in [(120usize, 43u64), (350, 47)] {
        // Symmetrise a lower-triangular pattern so the system has both
        // strict halves populated, diagonal included.
        let l = tril(m, 6, seed);
        let a = {
            let mut coo = spmv_sparse::CooMatrix::<f64>::new(m, m);
            for i in 0..m {
                let (rc, rv) = l.row(i);
                for (&c, &v) in rc.iter().zip(rv) {
                    coo.push(i, c as usize, v);
                    if (c as usize) != i {
                        coo.push(c as usize, i, v);
                    }
                }
            }
            coo.to_csr()
        };
        let b: Vec<f64> = (0..m).map(|i| ((i * 31 % 17) as f64) - 8.0).collect();
        let mut x_ref = vec![0.0; m];
        for _ in 0..2 {
            symgs_seq(&a, &b, &mut x_ref).unwrap();
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
            for _ in 0..2 {
                plan.apply(&a, &b, &mut x).unwrap();
            }
            for (i, (got, want)) in x.iter().zip(&x_ref).enumerate() {
                assert_eq!(
                    got.to_bits(),
                    want.to_bits(),
                    "m={m} seed={seed} workers={workers} row {i}"
                );
            }
        }
    }
}
