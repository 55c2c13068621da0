//! Bandwidth-tier throughput report: times the same tuned strategy over
//! every format tier of the bandwidth work — plain CSR, the PR 3
//! u32-lane packed baseline, delta-compressed lanes, forced
//! cache-blocked scatter execution, and the full bottleneck-aware gate —
//! and emits `BENCH_bandwidth.json` with GFLOP/s, modelled traffic
//! (bytes per non-zero), and the per-tier format mix.
//!
//! Every tier is asserted bit-for-bit against the sequential CSR
//! reference before its timing is reported.
//!
//! Regenerate with `cargo run --release -p spmv-bench --bin bench_bandwidth`.
//!
//! Knobs: `SPMV_BENCH_ITERS` (timed iterations, default 20),
//! `SPMV_BENCH_BANDWIDTH_OUT` (output path, default
//! `BENCH_bandwidth.json`), `SPMV_BENCH_TINY=1` (three small synthetic
//! matrices — the CI smoke mode).

use spmv_autotune::prelude::*;
use spmv_bench::json_escape;
use spmv_bench::setup::{env_usize, load_suite, scaling_efficiency, sweep_threads};
use spmv_sparse::{gen, CsrMatrix, IndexKind};
use std::fmt::Write as _;
use std::time::Instant;

/// The format tiers compared. `csr` and `u32` reproduce the pre-PR and
/// PR 3 layouts; `compressed` isolates the delta lanes (forced past the
/// width gate, so the byte reduction is measured on every matrix);
/// `blocked` isolates the column-strip schedule (pack off, strip budget
/// small enough that the suite matrices qualify); `auto` is the PR 5
/// bottleneck-aware gate. Every tier pins `specialize: false` so this
/// report keeps measuring the PR 5 format space — the structure fast
/// paths have their own report (`bench_specialized`).
fn tiers() -> Vec<(&'static str, PlanConfig)> {
    vec![
        (
            "csr",
            PlanConfig {
                pack: false,
                cache_block: false,
                specialize: false,
                ..PlanConfig::default()
            },
        ),
        (
            "u32",
            PlanConfig {
                index: IndexPolicy::Fixed(IndexKind::U32),
                cache_block: false,
                specialize: false,
                ..PlanConfig::default()
            },
        ),
        (
            "compressed",
            PlanConfig {
                index: IndexPolicy::Fixed(IndexKind::U8),
                cache_block: false,
                specialize: false,
                ..PlanConfig::default()
            },
        ),
        (
            "blocked",
            PlanConfig {
                pack: false,
                l2_bytes: 4 * 1024,
                scatter_lines_per_row: 2.0,
                specialize: false,
                ..PlanConfig::default()
            },
        ),
        (
            "auto",
            PlanConfig {
                specialize: false,
                ..PlanConfig::default()
            },
        ),
    ]
}

struct TierRow {
    tier: &'static str,
    threads: usize,
    gflops: f64,
    index_bpn: f64,
    total_bpn: f64,
    u8_bins: usize,
    u16_bins: usize,
    u32_bins: usize,
    blocked_bins: usize,
    csr_bins: usize,
}

struct MatrixRow {
    name: String,
    m: usize,
    n: usize,
    nnz: usize,
    tiers: Vec<TierRow>,
}

fn time_loop(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
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

fn gflops(nnz: usize, iters: usize, secs: f64) -> f64 {
    if secs <= 0.0 {
        return 0.0;
    }
    2.0 * nnz as f64 * iters as f64 / secs / 1e9
}

fn measure(name: &str, a: &CsrMatrix<f32>, iters: usize, threads: &[usize]) -> MatrixRow {
    let v: Vec<f32> = (0..a.n_cols()).map(|i| ((i % 9) as f32) - 4.0).collect();
    let reference = a.spmv_seq_alloc(&v).unwrap();
    let strategy = Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    };
    let mut rows = Vec::new();
    for (tier, config) in tiers() {
        for &w in threads {
            let backend = Box::new(NativeCpuBackend::new().with_workers(w));
            let verified = SpmvPlan::compile_with(a, strategy.clone(), backend, config)
                .verify(a)
                .expect("tiered plan must verify");
            let mut u = vec![0.0f32; a.n_rows()];
            let secs = time_loop(iters, || {
                verified.execute_unchecked(a, &v, &mut u).unwrap();
            });
            assert_eq!(
                u, reference,
                "{name}/{tier} (threads {w}) diverges from the CSR reference"
            );
            let plan = verified.plan();
            let traffic = plan.traffic();
            let (mut u8b, mut u16b, mut u32b) = (0usize, 0usize, 0usize);
            for d in plan.dispatch() {
                if let BinFormat::PackedSell { index, .. } = d.format {
                    match index {
                        IndexKind::U8 => u8b += 1,
                        IndexKind::U16 => u16b += 1,
                        IndexKind::U32 => u32b += 1,
                    }
                }
            }
            rows.push(TierRow {
                tier,
                threads: w,
                gflops: gflops(a.nnz(), iters, secs),
                index_bpn: traffic.index_bytes_per_nnz(),
                total_bpn: traffic.total_bytes_per_nnz(),
                u8_bins: u8b,
                u16_bins: u16b,
                u32_bins: u32b,
                blocked_bins: plan.blocked_bins(),
                csr_bins: plan.dispatch().len() - plan.packed_bins() - plan.blocked_bins(),
            });
        }
    }
    MatrixRow {
        name: name.to_string(),
        m: a.n_rows(),
        n: a.n_cols(),
        nnz: a.nnz(),
        tiers: rows,
    }
}

fn main() {
    let iters = env_usize("SPMV_BENCH_ITERS", 20);
    let tiny = std::env::var("SPMV_BENCH_TINY").is_ok_and(|s| s == "1");
    let out_path = std::env::var("SPMV_BENCH_BANDWIDTH_OUT")
        .unwrap_or_else(|_| "BENCH_bandwidth.json".to_string());

    let threads = sweep_threads();

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
        rows.push(measure(name, a, iters, &threads));
    }

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"bandwidth\",").unwrap();
    writeln!(
        json,
        "  \"hardware_threads\": {},",
        spmv_parallel::machine_threads()
    )
    .unwrap();
    writeln!(
        json,
        "  \"pool_threads\": {},",
        spmv_parallel::num_threads()
    )
    .unwrap();
    write!(json, "  \"threads_swept\": [").unwrap();
    for (i, w) in threads.iter().enumerate() {
        write!(json, "{}{w}", if i > 0 { ", " } else { "" }).unwrap();
    }
    writeln!(json, "],").unwrap();
    writeln!(json, "  \"iters\": {iters},").unwrap();
    writeln!(json, "  \"tiny\": {tiny},").unwrap();
    writeln!(json, "  \"matrices\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"m\": {}, \"n\": {}, \"nnz\": {}, \"tiers\": [",
            json_escape(&r.name),
            r.m,
            r.n,
            r.nnz
        )
        .unwrap();
        for (j, t) in r.tiers.iter().enumerate() {
            let base = r
                .tiers
                .iter()
                .find(|q| q.tier == t.tier && q.threads == 1)
                .map(|q| q.gflops)
                .unwrap_or(0.0);
            write!(
                json,
                "      {{\"tier\": \"{}\", \"threads\": {}, \"gflops\": {:.3}, \
                 \"scaling_efficiency\": {:.3}, \
                 \"index_bytes_per_nnz\": {:.4}, \"total_bytes_per_nnz\": {:.4}, \
                 \"u8_bins\": {}, \"u16_bins\": {}, \"u32_bins\": {}, \
                 \"blocked_bins\": {}, \"csr_bins\": {}}}",
                t.tier,
                t.threads,
                t.gflops,
                scaling_efficiency(t.threads, t.gflops, base),
                t.index_bpn,
                t.total_bpn,
                t.u8_bins,
                t.u16_bins,
                t.u32_bins,
                t.blocked_bins,
                t.csr_bins,
            )
            .unwrap();
            writeln!(json, "{}", if j + 1 < r.tiers.len() { "," } else { "" }).unwrap();
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
