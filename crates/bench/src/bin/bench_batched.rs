//! Batched (SpMM) throughput report: measures the register-blocked
//! multi-RHS path against K independent single-vector executes over the
//! Table II suite and emits `BENCH_batched.json`.
//!
//! For each matrix, each thread count in {1, N}, and each RHS width
//! `K ∈ {1, 2, 4, 8, 16}`, the report records:
//!
//! * `batched_gflops` — effective GFLOP/s of one `execute_batch`
//!   (`2 · nnz · K` flops per call);
//! * `sequential_gflops` — the same work as `K` single-vector
//!   `execute_unchecked` calls (the amortization baseline);
//! * `speedup_vs_k1` — batched GFLOP/s over this thread count's `K = 1`
//!   batched GFLOP/s: the matrix-traversal amortization headline;
//! * `matrix_bytes_per_output` — analytic matrix bytes streamed per
//!   output vector: `matrix_bytes · n_blocks(K) / K` (the single-vector
//!   path pays `matrix_bytes` per output).
//!
//! Regenerate with `cargo run --release -p spmv-bench --bin bench_batched`.
//!
//! Knobs: `SPMV_BENCH_ITERS` (timed iterations, default 10),
//! `SPMV_BENCH_BATCHED_OUT` (output path, default `BENCH_batched.json`),
//! `SPMV_BENCH_TINY=1` (three small synthetic matrices — CI smoke mode).

use spmv_autotune::prelude::*;
use spmv_bench::json_escape;
use spmv_bench::setup::{env_usize, load_suite, scaling_efficiency, sweep_threads};
use spmv_sparse::{gen, CsrMatrix, DenseBlock};
use std::fmt::Write as _;
use std::time::Instant;

const K_VALUES: [usize; 5] = [1, 2, 4, 8, 16];

struct Run {
    threads: usize,
    k: usize,
    batched_gflops: f64,
    sequential_gflops: f64,
    matrix_bytes_per_output: f64,
}

struct Row {
    name: String,
    m: usize,
    n: usize,
    nnz: usize,
    runs: Vec<Run>,
}

fn time_loop(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f(); // warm-up: page in slabs, populate value caches
    }
    // Best of three repetitions: the minimum is the standard robust
    // estimator for throughput on a machine with background noise.
    let mut best = f64::INFINITY;
    for _ in 0..3 {
        let t0 = Instant::now();
        for _ in 0..iters {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best
}

fn effective_gflops(nnz: usize, k: usize, iters: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    2.0 * nnz as f64 * k as f64 * iters as f64 / secs / 1e9
}

fn measure(name: &str, a: &CsrMatrix<f32>, iters: usize) -> Row {
    let strategy = Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    };
    let matrix_bytes = (a.nnz() * (std::mem::size_of::<u32>() + 4)
        + (a.n_rows() + 1) * std::mem::size_of::<usize>()) as f64;
    let thread_counts = sweep_threads();

    let mut runs = Vec::new();
    for &threads in &thread_counts {
        let verified = SpmvPlan::compile_with(
            a,
            strategy.clone(),
            Box::new(NativeCpuBackend::new().with_workers(threads)),
            PlanConfig::default(),
        )
        .verify(a)
        .expect("plan must verify");

        for k in K_VALUES {
            let mut x = DenseBlock::<f32>::zeros(a.n_cols(), k);
            x.fill_with(|i, j| (((i * 7 + j * 3) % 9) as f32) - 4.0);
            let columns: Vec<Vec<f32>> = (0..k).map(|j| x.column(j)).collect();
            let mut y = DenseBlock::<f32>::zeros(a.n_rows(), k);
            let mut u = vec![0.0f32; a.n_rows()];

            let batched_secs = time_loop(iters, || {
                verified.execute_batch_unchecked(a, &x, &mut y).unwrap();
            });
            let sequential_secs = time_loop(iters, || {
                for v in &columns {
                    verified.execute_unchecked(a, v, &mut u).unwrap();
                }
            });
            // Cross-check before trusting the numbers: the last batched
            // run's final column must equal the last sequential output.
            assert_eq!(
                y.column(k - 1),
                u,
                "{name}: batched column {} diverges from sequential",
                k - 1
            );

            let n_blocks = rhs_blocks(k).len() as f64;
            runs.push(Run {
                threads,
                k,
                batched_gflops: effective_gflops(a.nnz(), k, iters, batched_secs),
                sequential_gflops: effective_gflops(a.nnz(), k, iters, sequential_secs),
                matrix_bytes_per_output: matrix_bytes * n_blocks / k as f64,
            });
        }
    }
    Row {
        name: name.to_string(),
        m: a.n_rows(),
        n: a.n_cols(),
        nnz: a.nnz(),
        runs,
    }
}

fn main() {
    let iters = env_usize("SPMV_BENCH_ITERS", 10);
    let tiny = std::env::var("SPMV_BENCH_TINY").is_ok_and(|s| s == "1");
    let out_path = std::env::var("SPMV_BENCH_BATCHED_OUT")
        .unwrap_or_else(|_| "BENCH_batched.json".to_string());

    let cases: Vec<(String, CsrMatrix<f32>)> = if tiny {
        vec![
            (
                "tiny-uniform4".into(),
                gen::random_uniform::<f32>(4_000, 4_000, 4, 4, 1),
            ),
            ("tiny-banded7".into(), gen::banded::<f32>(4_000, 3, 2)),
            (
                "tiny-powerlaw".into(),
                gen::powerlaw::<f32>(3_000, 1, 150, 2.1, 3),
            ),
        ]
    } else {
        load_suite()
            .into_iter()
            .map(|c| (c.meta.name.to_string(), c.matrix))
            .collect()
    };

    let mut rows = Vec::new();
    for (name, a) in &cases {
        eprintln!(
            "  benchmarking {name} ({} x {}, {} nnz) …",
            a.n_rows(),
            a.n_cols(),
            a.nnz()
        );
        rows.push(measure(name, a, iters));
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"batched_exec\",").unwrap();
    writeln!(
        json,
        "  \"hardware_threads\": {},",
        spmv_parallel::machine_threads()
    )
    .unwrap();
    writeln!(json, "  \"threads\": {},", spmv_parallel::num_threads()).unwrap();
    writeln!(
        json,
        "  \"threads_swept\": [{}],",
        sweep_threads()
            .iter()
            .map(|t| t.to_string())
            .collect::<Vec<_>>()
            .join(", ")
    )
    .unwrap();
    writeln!(json, "  \"iters\": {iters},").unwrap();
    writeln!(json, "  \"tiny\": {tiny},").unwrap();
    writeln!(
        json,
        "  \"k_values\": [{}],",
        K_VALUES.map(|k| k.to_string()).join(", ")
    )
    .unwrap();
    writeln!(json, "  \"matrices\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"m\": {}, \"n\": {}, \"nnz\": {}, \"runs\": [",
            json_escape(&r.name),
            r.m,
            r.n,
            r.nnz
        )
        .unwrap();
        for (j, run) in r.runs.iter().enumerate() {
            let k1 = r
                .runs
                .iter()
                .find(|q| q.threads == run.threads && q.k == 1)
                .map(|q| q.batched_gflops)
                .unwrap_or(0.0);
            let speedup_vs_k1 = if k1 > 0.0 {
                run.batched_gflops / k1
            } else {
                0.0
            };
            let t1 = r
                .runs
                .iter()
                .find(|q| q.threads == 1 && q.k == run.k)
                .map(|q| q.batched_gflops)
                .unwrap_or(0.0);
            write!(
                json,
                "      {{\"threads\": {}, \"k\": {}, \"batched_gflops\": {:.3}, \
                 \"sequential_gflops\": {:.3}, \"speedup_vs_k1\": {:.3}, \
                 \"scaling_efficiency\": {:.3}, \
                 \"matrix_bytes_per_output\": {:.1}}}",
                run.threads,
                run.k,
                run.batched_gflops,
                run.sequential_gflops,
                speedup_vs_k1,
                scaling_efficiency(run.threads, run.batched_gflops, t1),
                run.matrix_bytes_per_output,
            )
            .unwrap();
            writeln!(json, "{}", if j + 1 < r.runs.len() { "," } else { "" }).unwrap();
        }
        write!(json, "    ]}}").unwrap();
        writeln!(json, "{}", if i + 1 < rows.len() { "," } else { "" }).unwrap();
    }
    writeln!(json, "  ]").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out_path}");
}
