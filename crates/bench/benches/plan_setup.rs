//! Criterion bench for plan set-up: what a plan costs before its first
//! execute. Times `SpmvPlan::compile` + `verify` on a skewed 30k-row
//! mixture, and `SymgsPlan::build` (three slabs filled straight from the
//! matrix and proven: the forward and backward level slabs of two
//! verified solves, and the row-order slab of the strict upper residual
//! — the forward solve emits the lower residual itself; no triangular
//! split) on its diagonally dominant square companion — the local view
//! of `setup_s` in the repo benchmark.

use criterion::{criterion_group, criterion_main, Criterion};
use spmv_autotune::prelude::*;
use spmv_sparse::gen;
use spmv_sparse::gen::mixture::RowRegime;
use spmv_sparse::CsrMatrix;

fn matrix() -> CsrMatrix<f32> {
    gen::mixture(
        30_000,
        30_000,
        &[
            RowRegime::new(1, 4, 0.5),
            RowRegime::new(8, 24, 0.4),
            RowRegime::new(60, 200, 0.1),
        ],
        true,
        29,
    )
}

/// The same off-diagonal pattern plus a strictly dominant diagonal,
/// stored last in each row (rows are not column-sorted).
fn companion(a: &CsrMatrix<f32>) -> CsrMatrix<f32> {
    let n = a.n_rows();
    let mut row_ptr = vec![0usize];
    let (mut cols, mut vals) = (Vec::new(), Vec::new());
    for i in 0..n {
        let (rc, rv) = a.row(i);
        let mut off = 0.0f32;
        for (&c, &v) in rc.iter().zip(rv) {
            if c as usize != i {
                cols.push(c);
                vals.push(v);
                off += v.abs();
            }
        }
        cols.push(i as u32);
        vals.push(1.0 + off);
        row_ptr.push(cols.len());
    }
    CsrMatrix::from_parts(n, n, row_ptr, cols, vals).expect("companion is valid CSR")
}

fn strategy() -> Strategy {
    Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    }
}

fn bench_plan_setup(c: &mut Criterion) {
    let a = matrix();
    let sym = companion(&a);
    let mut group = c.benchmark_group("plan_setup");
    group.sample_size(10);
    group.bench_function("compile_verify", |b| {
        b.iter(|| {
            SpmvPlan::compile(&a, strategy(), Box::new(NativeCpuBackend::new()))
                .verify(&a)
                .expect("plan must verify")
        })
    });
    group.bench_function("symgs_build", |b| {
        b.iter(|| SymgsPlan::build(&sym).expect("companion has a full diagonal"))
    });
    group.finish();
}

criterion_group!(benches, bench_plan_setup);
criterion_main!(benches);
