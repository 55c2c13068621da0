//! A plan is bound to its whole sparsity pattern, columns included.
//!
//! Two bands of equal width share `row_ptr`, so a fingerprint of the row
//! pointer alone cannot tell them apart. Every checked path must refuse
//! the other band, accept the build matrix's clones and independently
//! rebuilt copies, and re-check a matrix whose rows `sort_rows` touched.

use spmv_autotune::prelude::*;
use spmv_sparse::solve::{sptrsv_seq, symgs_seq, SolveDirection};
use spmv_sparse::{CsrMatrix, DenseBlock};

const N: usize = 4096;

/// Circulant band with the given column offsets (every row has
/// `offsets.len()` entries, so all such bands share `row_ptr`), columns
/// sorted, a dominant diagonal on offset 0.
fn band(offsets: &[isize]) -> CsrMatrix<f64> {
    let mut row_ptr = vec![0usize];
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for i in 0..N {
        let mut row: Vec<(u32, f64)> = offsets
            .iter()
            .map(|&o| {
                let c = (i as isize + o).rem_euclid(N as isize) as u32;
                let v = if o == 0 { 4.0 } else { -1.0 + 0.01 * o as f64 };
                (c, v)
            })
            .collect();
        row.sort_by_key(|&(c, _)| c);
        for (c, v) in row {
            cols.push(c);
            vals.push(v);
        }
        row_ptr.push(cols.len());
    }
    CsrMatrix::from_parts(N, N, row_ptr, cols, vals).unwrap()
}

fn narrow() -> CsrMatrix<f64> {
    band(&[-1, 0, 1])
}

fn wide() -> CsrMatrix<f64> {
    band(&[-7, 0, 7])
}

fn probe(n: usize) -> Vec<f64> {
    (0..n).map(|i| ((i % 17) as f64) * 0.25 - 2.0).collect()
}

/// A plan under the default `PlanConfig` on the native backend.
fn compile(a: &CsrMatrix<f64>) -> SpmvPlan<f64> {
    SpmvPlan::compile(
        a,
        Strategy::single_kernel(KernelId::Serial),
        Box::new(NativeCpuBackend::new()),
    )
}

fn default_plan(a: &CsrMatrix<f64>) -> VerifiedPlan<f64> {
    compile(a).verify(a).unwrap()
}

fn same(got: &[f64], want: &[f64]) -> bool {
    got.len() == want.len()
        && got
            .iter()
            .zip(want)
            .all(|(g, w)| g.to_bits() == w.to_bits())
}

#[test]
fn the_bands_share_row_ptr_but_not_columns() {
    let (a, b) = (narrow(), wide());
    assert_eq!(a.row_ptr(), b.row_ptr());
    assert_eq!(PatternFingerprint::of(&a), PatternFingerprint::of(&b));
    assert_ne!(a.col_idx(), b.col_idx());
}

#[test]
fn checked_spmv_refuses_a_band_of_the_same_width() {
    let (a, b) = (narrow(), wide());
    let plan = default_plan(&a);
    let x = probe(N);
    let mut y = vec![0.0; N];
    assert!(matches!(
        plan.execute(&b, &x, &mut y),
        Err(PlanError::PatternMismatch { .. })
    ));
    assert!(matches!(
        plan.plan().execute(&b, &x, &mut y),
        Err(PlanError::PatternMismatch { .. })
    ));
    let xb = DenseBlock::from_columns(&[x.clone(), x.clone()]);
    let mut yb = DenseBlock::zeros(N, 2);
    assert!(matches!(
        plan.execute_batch(&b, &xb, &mut yb),
        Err(PlanError::PatternMismatch { .. })
    ));
    // Verification against the other band is refused too.
    assert!(matches!(
        compile(&a).verify(&b),
        Err(VerifyError::PatternMismatch { .. })
    ));
    // The build matrix itself still runs, bit for bit.
    plan.execute(&a, &x, &mut y).unwrap();
    assert!(same(&y, &a.spmv_seq_alloc(&x).unwrap()));
}

#[test]
fn checked_solves_and_symgs_refuse_a_band_of_the_same_width() {
    let (a, b) = (narrow(), wide());
    let mut sweep = SymgsPlan::build(&a).unwrap();
    let rhs = probe(N);
    let mut x = vec![0.0; N];
    assert!(matches!(
        sweep.apply(&b, &rhs, &mut x),
        Err(PlanError::PatternMismatch { .. })
    ));
    // Two lower bidiagonals, subdiagonal offsets 1 and 7, share
    // `row_ptr` as well.
    let (la, lb) = (lower_band(1), lower_band(7));
    assert_eq!(la.row_ptr(), lb.row_ptr());
    let plan = SolvePlan::build(&la, SolveDirection::Forward).unwrap();
    assert!(matches!(
        plan.solve(&lb, &rhs, &mut x),
        Err(PlanError::PatternMismatch { .. })
    ));
    let verified = plan.verify(&la).unwrap();
    assert!(matches!(
        verified.solve(&lb, &rhs, &mut x),
        Err(PlanError::PatternMismatch { .. })
    ));
    let plan = SolvePlan::build(&la, SolveDirection::Forward).unwrap();
    assert!(matches!(
        plan.verify(&lb),
        Err(VerifyError::PatternMismatch { .. })
    ));
}

/// Lower bidiagonal: row `i > 0` holds columns `i - k` (clamped at 0)
/// and `i`, so every `k` gives the same `row_ptr`.
fn lower_band(k: usize) -> CsrMatrix<f64> {
    let mut b = spmv_sparse::gen::RowsBuilder::<f64>::new(N);
    b.push_row_sorted(&[0], &[4.0]);
    for i in 1..N {
        b.push_row_sorted(&[i.saturating_sub(k) as u32, i as u32], &[-1.0, 4.0]);
    }
    b.finish()
}

/// The `c <= i` part of `a`.
fn lower(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let mut b = spmv_sparse::gen::RowsBuilder::<f64>::new(a.n_cols());
    for i in 0..a.n_rows() {
        let (rc, rv) = a.row(i);
        let (cols, vals): (Vec<u32>, Vec<f64>) = rc
            .iter()
            .zip(rv)
            .filter(|(&c, _)| c as usize <= i)
            .map(|(&c, &v)| (c, v))
            .unzip();
        b.push_row_sorted(&cols, &vals);
    }
    b.finish()
}

#[test]
fn clones_and_rebuilt_copies_are_accepted() {
    let a = narrow();
    let x = probe(N);
    let plan = default_plan(&a);
    let sweep_ref = {
        let mut r = vec![0.0; N];
        symgs_seq(&a, &x, &mut r).unwrap();
        r
    };
    let la = lower(&a);
    let mut fwd_ref = vec![0.0; N];
    sptrsv_seq(&la, SolveDirection::Forward, &x, &mut fwd_ref).unwrap();
    let solve = SolvePlan::build(&la, SolveDirection::Forward)
        .unwrap()
        .verify(&la)
        .unwrap();
    let mut sweep = SymgsPlan::build(&a).unwrap();
    // A clone keeps the pattern generation; a rebuilt copy has a fresh
    // one and passes the full check.
    for (what, other, other_lower) in [
        ("clone", a.clone(), la.clone()),
        ("rebuilt", narrow(), lower(&narrow())),
    ] {
        let mut y = vec![0.0; N];
        plan.execute(&other, &x, &mut y).unwrap();
        assert!(same(&y, &a.spmv_seq_alloc(&x).unwrap()), "{what}: spmv");
        let mut z = vec![0.0; N];
        solve.solve(&other_lower, &x, &mut z).unwrap();
        assert!(same(&z, &fwd_ref), "{what}: forward solve");
        let mut s = vec![0.0; N];
        sweep.apply(&other, &x, &mut s).unwrap();
        assert!(same(&s, &sweep_ref), "{what}: symgs");
    }
}

/// Rows stored in descending column order, so `sort_rows` moves columns.
fn reversed(a: &CsrMatrix<f64>) -> CsrMatrix<f64> {
    let mut cols = Vec::with_capacity(a.nnz());
    let mut vals = Vec::with_capacity(a.nnz());
    for i in 0..a.n_rows() {
        let (rc, rv) = a.row(i);
        cols.extend(rc.iter().rev());
        vals.extend(rv.iter().rev());
    }
    CsrMatrix::from_parts(a.n_rows(), a.n_cols(), a.row_ptr().to_vec(), cols, vals).unwrap()
}

#[test]
fn a_sort_rows_mutated_matrix_is_rechecked() {
    let x = probe(N);
    // SpMV plans keep running across an in-row sort (the row's column
    // set is unchanged), and compute the sorted matrix's product.
    let mut a = reversed(&narrow());
    let plan = default_plan(&a);
    a.sort_rows();
    let mut y = vec![0.0; N];
    plan.execute(&a, &x, &mut y).unwrap();
    assert!(same(&y, &a.spmv_seq_alloc(&x).unwrap()));

    // A solve subtracts in storage order, so a plan for the unsorted
    // rows must refuse the sorted ones rather than compute a sweep in
    // the old order.
    let mut la = reversed(&lower(&narrow()));
    let solve = SolvePlan::build(&la, SolveDirection::Forward).unwrap();
    let mut sweep = SymgsPlan::build(&reversed(&narrow())).unwrap();
    la.sort_rows();
    let mut z = vec![0.0; N];
    assert!(matches!(
        solve.solve(&la, &x, &mut z),
        Err(PlanError::PatternMismatch { .. })
    ));
    assert!(matches!(
        sweep.apply(&a, &x, &mut z),
        Err(PlanError::PatternMismatch { .. })
    ));

    // Sorting rows that were already sorted bumps the generation but
    // changes nothing: the full check accepts them.
    let mut s = narrow();
    let solve = SolvePlan::build(&lower(&s), SolveDirection::Forward).unwrap();
    let mut sweep = SymgsPlan::build(&s).unwrap();
    let mut ls = lower(&s);
    ls.sort_rows();
    s.sort_rows();
    solve.solve(&ls, &x, &mut z).unwrap();
    sweep.apply(&s, &x, &mut z).unwrap();
}
