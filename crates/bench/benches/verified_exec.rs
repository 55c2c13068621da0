//! Criterion bench for the verified-plan fast path: `execute` (per-call
//! O(m) fingerprint scan) versus `execute_unchecked` (O(1) shape check,
//! justified by the one-time write-set proof of `SpmvPlan::verify`).
//!
//! Matrices come from the paper's evaluation suite (the Figure 5/6
//! inputs); both paths run on the native CPU backend so the measured
//! difference is exactly the validation cost the proof removes.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use spmv_autotune::prelude::*;
use spmv_sparse::suite;

const MATRICES: [&str; 2] = ["cryg10000", "whitaker3_dual"];

fn auto() -> AutoSpmv {
    AutoSpmv::with_tuner(Tuner::with_config(
        GpuDevice::kaveri(),
        TunerConfig {
            granularities: vec![100, 1_000],
            kernels: ALL_KERNELS.to_vec(),
            include_single_bin: false,
        },
    ))
}

fn bench_verified_exec(c: &mut Criterion) {
    let auto = auto();
    let mut group = c.benchmark_group("verified_exec");
    group.sample_size(10);
    for name in MATRICES {
        let a = suite::by_name(name)
            .unwrap_or_else(|| panic!("{name} not in suite"))
            .generate();
        let v: Vec<f32> = (0..a.n_cols()).map(|i| (i % 9) as f32).collect();

        let checked = auto.plan_native(&a);
        group.bench_with_input(BenchmarkId::new("execute", name), &a, |b, a| {
            let mut u = vec![0.0f32; a.n_rows()];
            b.iter(|| checked.execute(a, &v, &mut u).unwrap())
        });

        let verified = auto
            .plan_native(&a)
            .verify(&a)
            .expect("compiled plan must verify");
        group.bench_with_input(BenchmarkId::new("execute_unchecked", name), &a, |b, a| {
            let mut u = vec![0.0f32; a.n_rows()];
            b.iter(|| verified.execute_unchecked(a, &v, &mut u).unwrap())
        });
    }
    group.finish();
}

criterion_group!(benches, bench_verified_exec);
criterion_main!(benches);
