//! Criterion bench for the serving layer's per-batch cost: one K = 8
//! batch of a 20k-row banded matrix through `submit` → `wait` on a
//! one-worker server, against a bare `execute_batch_unchecked` of the
//! same batch through an identically-compiled plan. The difference
//! between the two arms is what serving adds around the kernel: queue
//! hand-off, dispatcher wake-up, plan lookup, the gather into the `x`
//! block, the scatter out of `y`, and ticket resolution.
//!
//! Each response is fed back as the next request's vector, so the timed
//! loop makes no client-side copies. The matrix's rows sum to one, so
//! the vectors stay bounded however long the bench runs.

use criterion::{criterion_group, criterion_main, Criterion};
use spmv_autotune::prelude::*;
use spmv_serve::{ServeConfig, SpmvServer};
use spmv_sparse::gen;
use std::time::{Duration, Instant};

const N: usize = 20_000;
const K: usize = 8;
const HALF_BANDWIDTH: usize = 3;

fn strategy() -> Strategy {
    Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    }
}

fn bench_serve_batch(c: &mut Criterion) {
    let mut a = gen::banded::<f32>(N, HALF_BANDWIDTH, 5);
    a.fill_values_with(|_| 1.0 / (2 * HALF_BANDWIDTH + 1) as f32);
    let columns: Vec<Vec<f32>> = (0..K)
        .map(|j| (0..N).map(|i| ((i * 7 + j) % 13) as f32).collect())
        .collect();
    let config = ServeConfig {
        workers: 1,
        coalesce_window: Duration::from_millis(5),
        ..ServeConfig::default()
    };
    let mut group = c.benchmark_group("serve_batch");
    group.sample_size(20);

    let plan = SpmvPlan::compile_with(
        &a,
        strategy(),
        Box::new(NativeCpuBackend::new().with_workers(config.workers)),
        config.plan,
    )
    .verify(&a)
    .expect("plan must verify");
    group.bench_function("execute_batch_unchecked", |b| {
        let x = DenseBlock::from_columns(&columns);
        let mut y = DenseBlock::zeros(N, K);
        b.iter(|| plan.execute_batch_unchecked(&a, &x, &mut y).unwrap())
    });

    let server = SpmvServer::start(config);
    server.register_matrix(0, a, strategy());
    let far = Instant::now() + Duration::from_secs(3600);
    group.bench_function("submit_wait", |b| {
        let mut xs = columns.clone();
        b.iter(|| {
            let tickets: Vec<_> = xs
                .drain(..)
                .enumerate()
                .map(|(j, x)| server.submit(j as u32 % 4, 0, x, far).unwrap())
                .collect();
            for ticket in tickets {
                let response = ticket.wait().unwrap();
                assert_eq!(response.batch_k, K, "the batch must coalesce fully");
                xs.push(response.y);
            }
        })
    });
    group.finish();
    server.shutdown();
}

criterion_group!(benches, bench_serve_batch);
criterion_main!(benches);
