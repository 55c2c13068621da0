//! Criterion bench for bin-specialized packed formats: a fused
//! SELL-packed plan versus the same plan with packing disabled versus
//! the plain row-parallel CSR kernel, on low-NNZ-variance matrices
//! (where SELL should win) and a skewed power-law matrix (where the
//! padding gate keeps most bins CSR and fused dispatch is the only
//! lever).
//!
//! Acceptance target: on the low-variance inputs, the packed plan beats
//! the row-parallel CSR kernel.
//!
//! A second group times a europe_osm-sized road network (511k rows,
//! one coarse bin) as one SpMV and as batched executes at K = 1 and
//! K = 8, default plan against `pack: false`: the local view of the
//! row-sort window, which keeps the packed slab walking `x` and `y` in
//! near row order.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spmv_autotune::kernels::cpu::spmv_row_parallel;
use spmv_autotune::prelude::*;
use spmv_sparse::gen;
use spmv_sparse::{CsrMatrix, DenseBlock};

fn strategy() -> Strategy {
    Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    }
}

fn bench_matrix(c: &mut Criterion, name: &str, a: &CsrMatrix<f32>) {
    let v: Vec<f32> = (0..a.n_cols()).map(|i| ((i % 9) as f32) - 4.0).collect();
    let mut group = c.benchmark_group("packed_exec");
    group.sample_size(20);
    group.throughput(criterion::Throughput::Elements(a.nnz() as u64));

    // Both plan variants are verified once up front and timed through
    // the unchecked fast path — the steady-state solver hot loop.
    let packed = SpmvPlan::compile(a, strategy(), Box::new(NativeCpuBackend::new()))
        .verify(a)
        .expect("packed plan must verify");
    let unpacked = SpmvPlan::compile_with(
        a,
        strategy(),
        Box::new(NativeCpuBackend::new()),
        PlanConfig {
            pack: false,
            ..PlanConfig::default()
        },
    )
    .verify(a)
    .expect("csr plan must verify");

    group.bench_with_input(BenchmarkId::new("packed-fused", name), a, |b, a| {
        let mut u = vec![0.0f32; a.n_rows()];
        b.iter(|| packed.execute_unchecked(a, &v, &mut u).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("csr-fused", name), a, |b, a| {
        let mut u = vec![0.0f32; a.n_rows()];
        b.iter(|| unpacked.execute_unchecked(a, &v, &mut u).unwrap())
    });
    group.bench_with_input(BenchmarkId::new("csr-row-parallel", name), a, |b, a| {
        let mut u = vec![0.0f32; a.n_rows()];
        b.iter(|| spmv_row_parallel(a, &v, &mut u).unwrap())
    });
    group.finish();
}

fn bench_packed(c: &mut Criterion) {
    // bfly-style: exactly 4 NNZ per row — zero padding, pure SELL win.
    bench_matrix(
        c,
        "uniform4-60k",
        &gen::random_uniform::<f32>(60_000, 60_000, 4, 4, 1),
    );
    // apache1-style banded ~7 NNZ rows.
    bench_matrix(c, "banded7-60k", &gen::banded::<f32>(60_000, 3, 2));
    // Skewed: the padding gate forces dense bins back to CSR.
    bench_matrix(
        c,
        "powerlaw-30k",
        &gen::powerlaw::<f32>(30_000, 1, 600, 2.0, 7),
    );
}

fn bench_road_network(c: &mut Criterion) {
    let a = gen::road_network::<f32>(715, 715, 0.53, 1);
    let v: Vec<f32> = (0..a.n_cols()).map(|i| ((i % 9) as f32) - 4.0).collect();
    let block = |k| {
        let mut x = DenseBlock::<f32>::zeros(a.n_cols(), k);
        x.fill_with(|i, j| (((i + 3 * j) % 11) as f32) - 5.0);
        x
    };
    let mut group = c.benchmark_group("packed_exec_road");
    group.sample_size(10);
    for (label, pack) in [("packed", true), ("csr", false)] {
        let plan = SpmvPlan::compile_with(
            &a,
            strategy(),
            Box::new(NativeCpuBackend::new()),
            PlanConfig {
                pack,
                ..PlanConfig::default()
            },
        )
        .verify(&a)
        .expect("road-network plan must verify");
        group.bench_function(BenchmarkId::new("spmv", label), |b| {
            let mut u = vec![0.0f32; a.n_rows()];
            b.iter(|| plan.execute_unchecked(&a, &v, &mut u).unwrap())
        });
        // K = 1 through the batched path beside the single-vector one:
        // the same packed kernel at the same width, so the two arms
        // differ only by the block plumbing.
        for k in [1, 8] {
            let x = block(k);
            group.bench_function(BenchmarkId::new(format!("spmm{k}"), label), |b| {
                let mut y = DenseBlock::<f32>::zeros(a.n_rows(), k);
                b.iter(|| plan.execute_batch_unchecked(&a, &x, &mut y).unwrap())
            });
        }
    }
    group.finish();
}

criterion_group!(benches, bench_packed, bench_road_network);
criterion_main!(benches);
