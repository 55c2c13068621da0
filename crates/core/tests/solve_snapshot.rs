//! The schedule-ordered snapshot a solve plan executes from: the prover
//! must reject every way a snapshot can stop mirroring its matrix, value
//! refreshes must reach the next solve, and concurrent solves with
//! different value versions must never see each other's values.
//!
//! The tamper tests copy a plan's schedule and snapshot out
//! ([`SolvePlan::steps`], [`SolvePlan::snapshot`]), break one property,
//! and require the exact typed rejection from [`check_solve_snapshot`].

use spmv_autotune::prelude::*;
use spmv_sparse::solve::{sptrsv_seq, SolveDirection};
use spmv_sparse::{gen, CsrMatrix};

/// Lower-triangular matrix with a dominant diagonal, from a random
/// pattern.
fn tril(m: usize, max_nnz: usize, seed: u64) -> CsrMatrix<f64> {
    let a = gen::random_uniform::<f64>(m, m, 1, max_nnz, seed);
    let mut b = gen::RowsBuilder::<f64>::new(m);
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
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

fn config(workers: usize) -> SolveConfig {
    SolveConfig {
        workers,
        min_parallel_rows: 1,
    }
}

/// An honest plan's schedule and snapshot, plus the matrix.
fn honest(workers: usize) -> (CsrMatrix<f64>, Vec<SolveStep>, SolveSnapshot<f64>) {
    let a = tril(300, 7, 5);
    let plan = SolvePlan::build_with(&a, SolveDirection::Forward, config(workers)).unwrap();
    let (steps, snap) = (plan.steps(), plan.snapshot());
    assert!(steps.len() >= 3, "need a multi-step schedule");
    (a, steps, snap)
}

fn prove(
    a: &CsrMatrix<f64>,
    steps: &[SolveStep],
    workers: usize,
    snap: &SolveSnapshot<f64>,
) -> Result<(), VerifyError> {
    check_solve_snapshot(a, SolveDirection::Forward, steps, workers, snap)
}

fn expect_mismatch(r: Result<(), VerifyError>, what: &str) -> usize {
    match r {
        Err(VerifyError::SolveSnapshotMismatch { position, .. }) => position,
        other => panic!("{what}: expected SolveSnapshotMismatch, got {other:?}"),
    }
}

/// Move whole positions (row id, entries and diagonal) into `order`.
fn permuted(snap: &SolveSnapshot<f64>, order: &[usize]) -> SolveSnapshot<f64> {
    let mut out = SolveSnapshot {
        rows: Vec::new(),
        entry_ptr: vec![0],
        cols: Vec::new(),
        vals: Vec::new(),
        diag: Vec::new(),
    };
    for &p in order {
        let (s, e) = (snap.entry_ptr[p], snap.entry_ptr[p + 1]);
        out.rows.push(snap.rows[p]);
        out.cols.extend_from_slice(&snap.cols[s..e]);
        out.vals.extend_from_slice(&snap.vals[s..e]);
        out.entry_ptr.push(out.cols.len());
        out.diag.push(snap.diag[p]);
    }
    out
}

/// Positions `(p, q)` in steps 0 and 1 where the row at `q` reads the row
/// at `p`: swapping them runs a row before its dependency.
fn dependent_pair(a: &CsrMatrix<f64>, steps: &[SolveStep]) -> (usize, usize) {
    let first = steps[0].rows();
    let second = steps[1].rows();
    for (j, &r) in second.iter().enumerate() {
        let deps = a.row(r as usize).0;
        if let Some(i) = first.iter().position(|c| deps.contains(c)) {
            return (i, first.len() + j);
        }
    }
    panic!("step 1 reads nothing of step 0");
}

#[test]
fn honest_snapshots_are_certified_at_every_worker_count() {
    for workers in [1usize, 2, 4, 7] {
        let a = tril(300, 7, 5);
        let plan = SolvePlan::build_with(&a, SolveDirection::Forward, config(workers)).unwrap();
        prove(&a, &plan.steps(), workers, &plan.snapshot()).unwrap();
        plan.verify(&a).unwrap();
    }
}

#[test]
fn positions_swapped_across_a_step_are_rejected() {
    let (a, steps, snap) = honest(2);
    let (p, q) = dependent_pair(&a, &steps);
    // The snapshot's row ids swapped, the steps left alone: its
    // positions no longer run the steps' rows.
    let mut rows_only = snap.clone();
    rows_only.rows.swap(p, q);
    assert_eq!(
        expect_mismatch(prove(&a, &steps, 2, &rows_only), "row ids swapped"),
        p
    );
    // Whole positions swapped in the snapshot *and* the steps: a
    // self-consistent snapshot of a schedule that reads too early.
    let mut order: Vec<usize> = (0..snap.rows.len()).collect();
    order.swap(p, q);
    let swapped = permuted(&snap, &order);
    let mut bad_steps = steps.clone();
    let (rp, rq) = (snap.rows[p], snap.rows[q]);
    for st in &mut bad_steps {
        let rows = match st {
            SolveStep::Serial { rows } | SolveStep::Parallel { rows, .. } => rows,
        };
        for r in rows.iter_mut() {
            if *r == rp {
                *r = rq;
            } else if *r == rq {
                *r = rp;
            }
        }
    }
    match prove(&a, &bad_steps, 2, &swapped) {
        Err(VerifyError::SolveDependencyViolated { row, .. }) => assert_eq!(row, rq as usize),
        other => panic!("expected SolveDependencyViolated, got {other:?}"),
    }
}

#[test]
fn an_edited_slab_column_is_rejected() {
    let (a, steps, snap) = honest(4);
    // Find a position with two entries and point the second at the
    // first's column: still in bounds and on the triangle, wrong row.
    let p = (0..snap.rows.len())
        .find(|&p| snap.entry_ptr[p + 1] - snap.entry_ptr[p] >= 2)
        .expect("a row with two off-diagonals");
    let mut bad = snap.clone();
    let k = bad.entry_ptr[p];
    bad.cols[k + 1] = bad.cols[k];
    assert_eq!(expect_mismatch(prove(&a, &steps, 4, &bad), "column"), p);
    // An edited value is just as wrong.
    let mut bad = snap.clone();
    bad.vals[k] += 1.0;
    assert_eq!(expect_mismatch(prove(&a, &steps, 4, &bad), "value"), p);
    // So is an entry range shifted by one.
    let mut bad = snap;
    bad.entry_ptr[p + 1] -= 1;
    expect_mismatch(prove(&a, &steps, 4, &bad), "entry range");
}

#[test]
fn a_missing_or_wrong_diagonal_is_rejected() {
    let (a, steps, snap) = honest(2);
    let mut wrong = snap.clone();
    wrong.diag[7] *= 2.0;
    assert_eq!(expect_mismatch(prove(&a, &steps, 2, &wrong), "diagonal"), 7);
    let mut missing = snap.clone();
    missing.diag.pop();
    expect_mismatch(prove(&a, &steps, 2, &missing), "missing diagonal");
    // A matrix row that lost its diagonal is the prover's own error.
    let row = snap.rows[3] as usize;
    let mut b = gen::RowsBuilder::<f64>::new(a.n_rows());
    for i in 0..a.n_rows() {
        let (rc, rv) = a.row(i);
        let keep: Vec<(u32, f64)> = rc
            .iter()
            .zip(rv)
            .filter(|(&c, _)| i != row || c as usize != i)
            .map(|(&c, &v)| (c, v))
            .collect();
        let (cols, vals): (Vec<u32>, Vec<f64>) = keep.into_iter().unzip();
        b.push_row_sorted(&cols, &vals);
    }
    let holed = b.finish();
    match prove(&holed, &steps, 2, &snap) {
        Err(VerifyError::SolveMissingDiagonal { row: r }) => assert_eq!(r, row),
        other => panic!("expected SolveMissingDiagonal, got {other:?}"),
    }
}

#[test]
fn positions_that_disagree_with_the_step_rows_are_rejected() {
    let (a, steps, snap) = honest(2);
    // One position too many: the snapshot holds a row no step runs.
    let mut extra = snap.clone();
    extra.rows.push(0);
    extra.diag.push(1.0);
    extra.entry_ptr.push(*extra.entry_ptr.last().unwrap());
    assert_eq!(
        expect_mismatch(prove(&a, &steps, 2, &extra), "extra position"),
        snap.rows.len()
    );
    // One position short.
    let mut short = snap.clone();
    short.rows.pop();
    short.diag.pop();
    short.entry_ptr.pop();
    let last = *short.entry_ptr.last().unwrap();
    short.cols.truncate(last);
    short.vals.truncate(last);
    assert_eq!(
        expect_mismatch(prove(&a, &steps, 2, &short), "short snapshot"),
        short.rows.len()
    );
    // A different row at one position.
    let mut other = snap.clone();
    other.rows[0] = snap.rows[1];
    assert_eq!(
        expect_mismatch(prove(&a, &steps, 2, &other), "row replaced"),
        0
    );
}

#[test]
fn a_values_mut_refresh_is_picked_up_by_the_next_solve() {
    let mut a = tril(400, 8, 9);
    let b: Vec<f64> = (0..400).map(|i| ((i % 9) as f64) - 4.0).collect();
    for workers in [1usize, 2, 4, 7] {
        let plan = SolvePlan::build_with(&a, SolveDirection::Forward, config(workers))
            .unwrap()
            .verify(&a)
            .unwrap();
        for round in 0..3 {
            let mut want = vec![0.0; 400];
            sptrsv_seq(&a, SolveDirection::Forward, &b, &mut want).unwrap();
            let mut got = vec![f64::NAN; 400];
            plan.solve_unchecked(&a, &b, &mut got).unwrap();
            let mut checked = vec![f64::NAN; 400];
            plan.solve(&a, &b, &mut checked).unwrap();
            for (i, ((g, c), w)) in got.iter().zip(&checked).zip(&want).enumerate() {
                assert_eq!(
                    g.to_bits(),
                    w.to_bits(),
                    "workers={workers} round {round} row {i}"
                );
                assert_eq!(c.to_bits(), w.to_bits(), "checked, row {i}");
            }
            for v in a.values_mut() {
                *v = *v * 1.5 + 0.25;
            }
        }
    }
}

#[test]
fn concurrent_solves_with_two_value_versions_never_mix_them() {
    let m = 2000;
    let a1 = tril(m, 6, 13);
    let mut a2 = a1.clone();
    for v in a2.values_mut() {
        *v *= -0.75;
    }
    let b: Vec<f64> = (0..m).map(|i| ((i % 13) as f64) - 6.0).collect();
    let reference = |a: &CsrMatrix<f64>| {
        let mut x = vec![0.0; m];
        sptrsv_seq(a, SolveDirection::Forward, &b, &mut x).unwrap();
        x
    };
    let (want1, want2) = (reference(&a1), reference(&a2));
    let plan = SolvePlan::build_with(&a1, SolveDirection::Forward, config(2))
        .unwrap()
        .verify(&a1)
        .unwrap();
    std::thread::scope(|s| {
        for (a, want) in [(&a1, &want1), (&a2, &want2)] {
            let (plan, b) = (&plan, &b);
            s.spawn(move || {
                let mut x = vec![0.0; m];
                for _ in 0..40 {
                    x.fill(f64::NAN);
                    plan.solve_unchecked(a, b, &mut x).unwrap();
                    let bad = x
                        .iter()
                        .zip(want)
                        .position(|(g, w)| g.to_bits() != w.to_bits());
                    assert_eq!(bad, None, "a solve read the other version's values");
                }
            });
        }
    });
}

#[test]
fn unsorted_rows_and_repeated_diagonals_match_the_reference() {
    // `sptrsv_seq` subtracts in storage order and divides by the last
    // diagonal entry; the snapshot must do exactly the same.
    let m = 500;
    let base = tril(m, 6, 21);
    let mut row_ptr = vec![0usize];
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for i in 0..m {
        let (rc, rv) = base.row(i);
        let mut entries: Vec<(u32, f64)> = rc.iter().copied().zip(rv.iter().copied()).collect();
        entries.reverse();
        if i % 3 == 0 {
            entries.insert(0, (i as u32, 0.5));
        }
        for (c, v) in entries {
            cols.push(c);
            vals.push(v);
        }
        row_ptr.push(cols.len());
    }
    let lower = CsrMatrix::from_parts(m, m, row_ptr, cols, vals).unwrap();
    let upper = lower.transpose();
    let b: Vec<f32> = (0..m).map(|i| ((i * 7 % 11) as f32) - 5.0).collect();
    for (a, dir) in [
        (&lower, SolveDirection::Forward),
        (&upper, SolveDirection::Backward),
    ] {
        let a: CsrMatrix<f32> = CsrMatrix::from_parts(
            m,
            m,
            a.row_ptr().to_vec(),
            a.col_idx().to_vec(),
            a.values().iter().map(|&v| v as f32).collect(),
        )
        .unwrap();
        let mut want = vec![0.0f32; m];
        sptrsv_seq(&a, dir, &b, &mut want).unwrap();
        for workers in [1usize, 2, 4, 7] {
            for min_parallel in [1usize, 0, usize::MAX] {
                let cfg = SolveConfig {
                    workers,
                    min_parallel_rows: min_parallel,
                };
                let plan = SolvePlan::build_with(&a, dir, cfg)
                    .unwrap()
                    .verify(&a)
                    .unwrap();
                let mut x = vec![f32::NAN; m];
                plan.solve_unchecked(&a, &b, &mut x).unwrap();
                for (i, (g, w)) in x.iter().zip(&want).enumerate() {
                    assert_eq!(
                        g.to_bits(),
                        w.to_bits(),
                        "{dir} workers={workers} min_parallel={min_parallel} row {i}"
                    );
                }
            }
        }
    }
}
