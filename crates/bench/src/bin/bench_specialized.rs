//! Specialized-kernel throughput report: times the structured subset of
//! the Table II suite (the banded and block-coupled matrices, plus a
//! power-law control the gate must decline) over every kernel-table
//! tier — plain CSR, the packed slab with specialization off, the
//! forced dense-run and row-run fast paths, and the shipped gate with
//! the full table — and emits `BENCH_specialized.json` with GFLOP/s
//! (the median of interleaved trials, each trial listed), modelled
//! traffic (bytes per non-zero), the per-tier format mix, and a thread
//! sweep with scaling efficiency.
//!
//! Every tier is asserted bit-for-bit against the sequential CSR
//! reference before its timing is reported.
//!
//! Regenerate with `cargo run --release -p spmv-bench --bin bench_specialized`.
//!
//! Knobs: `SPMV_BENCH_ITERS` (timed iterations, default 20),
//! `SPMV_BENCH_SPECIALIZED_OUT` (output path, default
//! `BENCH_specialized.json`), `SPMV_BENCH_TINY=1` (three small synthetic
//! matrices — the CI smoke mode).

use spmv_autotune::prelude::*;
use spmv_bench::json_escape;
use spmv_bench::setup::{env_usize, scaling_efficiency, sweep_threads};
use spmv_sparse::{gen, suite, CsrMatrix};
use std::fmt::Write as _;
use std::time::Instant;

/// The kernel-table tiers compared. `csr` is the pre-packing layout;
/// `packed` is the packed slab (16-bit columns up to 65 536 matrix
/// columns, else 32-bit) with the structure fast paths and cache
/// blocking switched off (the baseline the fast paths must beat);
/// `dense-run` and `row-run` force one fast path each (banded tier
/// disabled, thresholds lowered to the suite's run lengths, and for
/// `row-run` a zero `llc_bytes` so every matrix counts as streaming);
/// `auto` is the shipped gate searching the full table.
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
            "packed",
            PlanConfig {
                cache_block: false,
                specialize: false,
                ..PlanConfig::default()
            },
        ),
        (
            "dense-run",
            PlanConfig {
                band_max_offsets: 0,
                min_dense_run: 2,
                min_row_run: 0,
                ..PlanConfig::default()
            },
        ),
        (
            "row-run",
            PlanConfig {
                llc_bytes: 0,
                band_max_offsets: 0,
                min_dense_run: 0,
                ..PlanConfig::default()
            },
        ),
        ("auto", PlanConfig::default()),
    ]
}

/// Timing trials per (tier, thread count). Each trial times every tier
/// once, in tier order, so host noise lands on all tiers alike; the
/// reported GFLOP/s is the median trial.
const TRIALS: usize = 5;

struct TierRow {
    tier: &'static str,
    threads: usize,
    /// Median of `trials`.
    gflops: f64,
    trials: Vec<f64>,
    index_bpn: f64,
    value_bpn: f64,
    total_bpn: f64,
    banded_bins: usize,
    dense_run_bins: usize,
    row_run_bins: usize,
    packed_bins: usize,
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

fn median(xs: &[f64]) -> f64 {
    let mut sorted = xs.to_vec();
    sorted.sort_by(f64::total_cmp);
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        (sorted[mid - 1] + sorted[mid]) / 2.0
    }
}

fn measure(name: &str, a: &CsrMatrix<f32>, iters: usize, threads: &[usize]) -> MatrixRow {
    let v: Vec<f32> = (0..a.n_cols()).map(|i| ((i % 9) as f32) - 4.0).collect();
    let reference = a.spmv_seq_alloc(&v).unwrap();
    let strategy = Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    };
    let tiers = tiers();
    let mut by_tier: Vec<Vec<TierRow>> = tiers.iter().map(|_| Vec::new()).collect();
    let mut u = vec![0.0f32; a.n_rows()];
    for &w in threads {
        let plans: Vec<_> = tiers
            .iter()
            .map(|&(tier, config)| {
                let backend = Box::new(NativeCpuBackend::new().with_workers(w));
                let verified = SpmvPlan::compile_with(a, strategy.clone(), backend, config)
                    .verify(a)
                    .expect("specialized plan must verify");
                // NaN-fill so the check proves this tier writes every row.
                u.fill(f32::NAN);
                verified.execute_unchecked(a, &v, &mut u).unwrap();
                assert_eq!(
                    u, reference,
                    "{name}/{tier} (threads {w}) diverges from the CSR reference"
                );
                verified
            })
            .collect();
        let mut trials = vec![Vec::with_capacity(TRIALS); plans.len()];
        for _ in 0..TRIALS {
            for (verified, t) in plans.iter().zip(&mut trials) {
                let secs = time_loop(iters, || {
                    verified.execute_unchecked(a, &v, &mut u).unwrap();
                });
                t.push(gflops(a.nnz(), iters, secs));
            }
        }
        for (((&(tier, _), verified), trials), rows) in
            tiers.iter().zip(&plans).zip(trials).zip(&mut by_tier)
        {
            let plan = verified.plan();
            let traffic = plan.traffic();
            let (mut banded, mut dense_run, mut row_run) = (0usize, 0usize, 0usize);
            for d in plan.dispatch() {
                match d.format {
                    BinFormat::Banded { .. } => banded += 1,
                    BinFormat::DenseRun => dense_run += 1,
                    BinFormat::RowRunReuse => row_run += 1,
                    _ => {}
                }
            }
            rows.push(TierRow {
                tier,
                threads: w,
                gflops: median(&trials),
                trials,
                index_bpn: traffic.index_bytes_per_nnz(),
                value_bpn: traffic.value_bytes_per_nnz(),
                total_bpn: traffic.total_bytes_per_nnz(),
                banded_bins: banded,
                dense_run_bins: dense_run,
                row_run_bins: row_run,
                packed_bins: plan.packed_bins(),
                blocked_bins: plan.blocked_bins(),
                csr_bins: plan.dispatch().len()
                    - plan.packed_bins()
                    - plan.blocked_bins()
                    - plan.specialized_bins(),
            });
        }
    }
    MatrixRow {
        name: name.to_string(),
        m: a.n_rows(),
        n: a.n_cols(),
        nnz: a.nnz(),
        tiers: by_tier.into_iter().flatten().collect(),
    }
}

/// The structured subset of the Table II suite: the three banded
/// matrices the `Banded` tier exists for, three block-coupled FEM
/// matrices whose identical-row blocks feed the dense-run and row-run
/// paths, and a power-law control where the gate must decline every
/// fast path (its `auto` row must carry no specialized bin).
fn structured_suite() -> Vec<(String, CsrMatrix<f32>)> {
    [
        "apache1",
        "cryg10000",
        "denormal",
        "crankseg_2",
        "pcrystk02",
        "pkustk14",
        "dictionary28",
    ]
    .iter()
    .map(|name| {
        let meta = suite::by_name(name).expect("suite matrix");
        eprintln!("  generating {name} …");
        (name.to_string(), meta.generate())
    })
    .collect()
}

fn main() {
    let iters = env_usize("SPMV_BENCH_ITERS", 20);
    let tiny = std::env::var("SPMV_BENCH_TINY").is_ok_and(|s| s == "1");
    let out_path = std::env::var("SPMV_BENCH_SPECIALIZED_OUT")
        .unwrap_or_else(|_| "BENCH_specialized.json".to_string());

    let threads = sweep_threads();

    let cases: Vec<(String, CsrMatrix<f32>)> = if tiny {
        vec![
            ("tiny-banded7".into(), gen::banded::<f32>(4_000, 3, 2)),
            (
                "tiny-block6".into(),
                gen::block_structured::<f32>(300, 6, 8, 4),
            ),
            (
                "tiny-powerlaw".into(),
                gen::powerlaw::<f32>(3_000, 1, 150, 2.1, 3),
            ),
        ]
    } else {
        structured_suite()
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
    writeln!(json, "  \"bench\": \"specialized\",").unwrap();
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
    writeln!(json, "  \"trials\": {TRIALS},").unwrap();
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
            let trials: Vec<String> = t.trials.iter().map(|g| format!("{g:.3}")).collect();
            write!(
                json,
                "      {{\"tier\": \"{}\", \"threads\": {}, \"gflops\": {:.3}, \
                 \"gflops_trials\": [{}], \"scaling_efficiency\": {:.3}, \
                 \"index_bytes_per_nnz\": {:.4}, \"value_bytes_per_nnz\": {:.4}, \
                 \"total_bytes_per_nnz\": {:.4}, \
                 \"banded_bins\": {}, \"dense_run_bins\": {}, \"row_run_bins\": {}, \
                 \"packed_bins\": {}, \"blocked_bins\": {}, \"csr_bins\": {}}}",
                t.tier,
                t.threads,
                t.gflops,
                trials.join(", "),
                scaling_efficiency(t.threads, t.gflops, base),
                t.index_bpn,
                t.value_bpn,
                t.total_bpn,
                t.banded_bins,
                t.dense_run_bins,
                t.row_run_bins,
                t.packed_bins,
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
