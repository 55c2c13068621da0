//! Online-refinement convergence report: starts from a deliberately
//! mispredicted plan (forced plain CSR on a banded matrix — exactly the
//! compile-time mistake the PR 10 refiner exists to catch), arms its
//! execute telemetry, and drives the same `classify_plan` →
//! `probe_candidate` → adopt loop the `spmv-serve` background refiner
//! runs, until the classifier reports the plan on-model. Emits
//! `BENCH_adaptive.json` comparing the mispredicted, refined, and
//! oracle-best (exhaustive config grid) GFLOP/s, with the acceptance
//! gate `refined ≥ 0.9 × oracle` reported as `"converged"`.
//!
//! Every plan — mispredicted, every refinement candidate, and every
//! oracle tier — is asserted bit-for-bit against the sequential CSR
//! reference; `probe_candidate` additionally rejects any candidate
//! whose probe output differs bitwise from the incumbent's.
//!
//! Regenerate with `cargo run --release -p spmv-bench --bin bench_adaptive`.
//!
//! Knobs: `SPMV_BENCH_ITERS` (timed iterations, default 20),
//! `SPMV_BENCH_ADAPTIVE_OUT` (output path, default
//! `BENCH_adaptive.json`), `SPMV_BENCH_TINY=1` (small synthetic banded
//! matrix — the CI smoke mode), and the serving-layer refinement knobs
//! `SPMV_REFINE` / `SPMV_REFINE_DIVERGENCE` (this bench defaults the
//! mode to `auto` when `SPMV_REFINE` is unset, since an off-mode
//! convergence report would be vacuous).

use spmv_autotune::prelude::*;
use spmv_bench::json_escape;
use spmv_bench::setup::env_usize;
use spmv_serve::{classify_plan, probe_candidate, RefineConfig, RefineMode};
use spmv_sparse::{gen, suite, CsrMatrix};
use std::fmt::Write as _;
use std::sync::Arc;
use std::time::Instant;

/// Cap on refinement rounds. The loop normally stops after one adopt
/// (the refined plan classifies on-model); the cap only guards against
/// a classifier that keeps suggesting.
const MAX_ROUNDS: usize = 4;

/// The oracle grid: plain CSR, packed slabs (the `u32` tiers, named
/// for their old column width) with and without cache blocking, and
/// the full planner. The forced fast paths are left out (subsumed by
/// `auto` on a banded input).
fn oracle_tiers() -> Vec<(&'static str, PlanConfig)> {
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
                cache_block: false,
                specialize: false,
                ..PlanConfig::default()
            },
        ),
        (
            "u32-blocked",
            PlanConfig {
                specialize: false,
                ..PlanConfig::default()
            },
        ),
        ("auto", PlanConfig::default()),
    ]
}

/// Best-of-3 seconds per execute. The batch starts at `iters` and is
/// grown until one timed window spans ≥ 5 ms — the convergence gate
/// compares plans whose per-execute gap is the signal, so the windows
/// must be long enough that scheduler jitter cannot fake a 10% miss
/// (the CI smoke mode runs `SPMV_BENCH_ITERS=3` on a ~17 µs kernel).
fn time_per_iter(iters: usize, mut f: impl FnMut()) -> f64 {
    for _ in 0..2 {
        f();
    }
    let mut batch = iters.max(1);
    loop {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        if t0.elapsed().as_secs_f64() >= 5e-3 || batch >= 1 << 20 {
            break;
        }
        batch *= 4;
    }
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for _ in 0..batch {
            f();
        }
        best = best.min(t0.elapsed().as_secs_f64());
    }
    best / batch as f64
}

/// Spins the incumbent for ~200 ms before any timed window. The first
/// plan measured in a cold process is systematically slow (frequency
/// ramp, allocator and page-cache warmup), which would bias the
/// mispredicted-vs-oracle comparison in the refiner's favour.
fn warmup(plan: &VerifiedPlan<f32>, a: &CsrMatrix<f32>, v: &[f32]) {
    let mut u = vec![0.0f32; a.n_rows()];
    let t0 = Instant::now();
    while t0.elapsed().as_secs_f64() < 0.2 {
        plan.execute_unchecked(a, v, &mut u).unwrap();
    }
}

fn gflops(nnz: usize, secs_per_iter: f64) -> f64 {
    if secs_per_iter <= 0.0 {
        return 0.0;
    }
    2.0 * nnz as f64 / secs_per_iter / 1e9
}

fn bottleneck_name(b: Bottleneck) -> &'static str {
    match b {
        Bottleneck::MemoryBound => "memory-bound",
        Bottleneck::LatencyBound => "latency-bound",
        Bottleneck::OnModel => "on-model",
    }
}

fn compile_verified(
    a: &CsrMatrix<f32>,
    strategy: &Strategy,
    config: PlanConfig,
    workers: usize,
) -> VerifiedPlan<f32> {
    let backend = Box::new(NativeCpuBackend::new().with_workers(workers));
    SpmvPlan::compile_with(a, strategy.clone(), backend, config)
        .verify(a)
        .expect("plan must verify")
}

/// Times `plan` best-of-3 and asserts its output bit-for-bit against
/// the sequential reference. The timed executes double as telemetry
/// samples, arming the bottleneck classifier (≥ 2 + 3·iters ≫ the
/// `min_executes` floor).
fn measure(
    label: &str,
    plan: &VerifiedPlan<f32>,
    a: &CsrMatrix<f32>,
    v: &[f32],
    reference: &[f32],
    iters: usize,
) -> f64 {
    let mut u = vec![0.0f32; a.n_rows()];
    let secs_per_iter = time_per_iter(iters, || {
        plan.execute_unchecked(a, v, &mut u).unwrap();
    });
    assert_eq!(
        u.as_slice(),
        reference,
        "{label} diverges from the CSR reference"
    );
    gflops(a.nnz(), secs_per_iter)
}

struct Round {
    gflops: f64,
    bottleneck: &'static str,
    action: &'static str,
    probe_speedup: f64,
}

fn main() {
    let iters = env_usize("SPMV_BENCH_ITERS", 20);
    let tiny = std::env::var("SPMV_BENCH_TINY").is_ok_and(|s| s == "1");
    let out_path = std::env::var("SPMV_BENCH_ADAPTIVE_OUT")
        .unwrap_or_else(|_| "BENCH_adaptive.json".to_string());
    let workers = spmv_parallel::num_threads();

    let mut cfg = RefineConfig::from_env();
    if std::env::var("SPMV_REFINE").is_err() {
        cfg.mode = RefineMode::Auto;
    }
    // The serve-layer default of best-of-3 single executes is tuned for
    // a live process that cannot afford long probes; the report wants a
    // stable verdict, and 40 extra ~µs executes are free here.
    cfg.probe_iters = cfg.probe_iters.max(40);

    let (name, a): (String, CsrMatrix<f32>) = if tiny {
        ("tiny-banded7".into(), gen::banded::<f32>(4_000, 3, 2))
    } else {
        let meta = suite::by_name("denormal").expect("suite matrix");
        ("denormal".into(), meta.generate())
    };
    eprintln!(
        "  refining {name} ({} x {}, {} nnz, workers {workers}) …",
        a.n_rows(),
        a.n_cols(),
        a.nnz()
    );

    let v: Vec<f32> = (0..a.n_cols()).map(|i| ((i % 9) as f32) - 4.0).collect();
    let reference = a.spmv_seq_alloc(&v).unwrap();
    let strategy = Strategy {
        binning: BinningScheme::Coarse { u: 10 },
        kernels: vec![KernelId::Subvector(8); 8],
    };

    // The misprediction: a compile-time pick of plain CSR for a banded
    // matrix (no packing, no blocking, no structure fast paths).
    let mispredicted_cfg = PlanConfig {
        pack: false,
        cache_block: false,
        specialize: false,
        ..PlanConfig::default()
    };
    let mispredicted: Arc<VerifiedPlan<f32>> =
        Arc::new(compile_verified(&a, &strategy, mispredicted_cfg, workers));
    let mut incumbent = Arc::clone(&mispredicted);
    warmup(&incumbent, &a, &v);

    // The refinement loop the serve-layer background thread runs, driven
    // synchronously: measure (arming telemetry), classify, probe, adopt
    // only what measures faster. In observe/off modes no candidate is
    // ever built, matching the server's gating.
    let mut rounds: Vec<Round> = Vec::new();
    let mut adopted = 0usize;
    for round in 0..MAX_ROUNDS {
        let g = measure(
            &format!("{name}/round{round}"),
            &incumbent,
            &a,
            &v,
            &reference,
            iters,
        );
        let (bottleneck, suggestion) = classify_plan(&incumbent, &cfg.adapt);
        let bname = bottleneck_name(bottleneck);
        eprintln!("  round {round}: {g:.3} GFLOP/s, classified {bname}");
        let Some(suggestion) = suggestion else {
            rounds.push(Round {
                gflops: g,
                bottleneck: bname,
                action: "stop",
                probe_speedup: 0.0,
            });
            break;
        };
        if cfg.mode != RefineMode::Auto {
            rounds.push(Round {
                gflops: g,
                bottleneck: bname,
                action: "observe",
                probe_speedup: 0.0,
            });
            break;
        }
        match probe_candidate(&a, &incumbent, suggestion, workers, &cfg) {
            Ok(report) => {
                let speedup = report.incumbent_ns as f64 / report.candidate_ns.max(1) as f64;
                if report.improved {
                    incumbent = report.candidate;
                    adopted += 1;
                    rounds.push(Round {
                        gflops: g,
                        bottleneck: bname,
                        action: "adopted",
                        probe_speedup: speedup,
                    });
                } else {
                    rounds.push(Round {
                        gflops: g,
                        bottleneck: bname,
                        action: "kept",
                        probe_speedup: speedup,
                    });
                    break;
                }
            }
            Err(e) => panic!("{name}/round{round}: refinement probe failed: {e}"),
        }
    }

    // Final measurement phase: the mispredicted plan, the refined
    // incumbent, and every oracle tier are timed back-to-back in one
    // warmed-up phase, so the convergence ratio compares like-for-like
    // conditions rather than a cold round 0 against warm oracle runs.
    let mispredicted_gflops = measure(
        &format!("{name}/mispredicted"),
        &mispredicted,
        &a,
        &v,
        &reference,
        iters,
    );
    let refined_gflops = measure(
        &format!("{name}/refined"),
        &incumbent,
        &a,
        &v,
        &reference,
        iters,
    );
    eprintln!(
        "  final: mispredicted {mispredicted_gflops:.3}, refined {refined_gflops:.3} GFLOP/s"
    );

    // Oracle: exhaustive best over the config grid, each tier verified
    // and asserted bit-for-bit before timing.
    let mut oracle_gflops = 0.0;
    let mut oracle_tier = "";
    let mut tier_rows: Vec<(&'static str, f64)> = Vec::new();
    for (tier, config) in oracle_tiers() {
        let plan = compile_verified(&a, &strategy, config, workers);
        let g = measure(&format!("{name}/{tier}"), &plan, &a, &v, &reference, iters);
        eprintln!("  oracle tier {tier}: {g:.3} GFLOP/s");
        if g > oracle_gflops {
            oracle_gflops = g;
            oracle_tier = tier;
        }
        tier_rows.push((tier, g));
    }

    let refined_vs_oracle = if oracle_gflops > 0.0 {
        refined_gflops / oracle_gflops
    } else {
        0.0
    };
    let converged = refined_vs_oracle >= 0.9;

    let mut json = String::new();
    writeln!(json, "{{").unwrap();
    writeln!(json, "  \"bench\": \"adaptive\",").unwrap();
    writeln!(
        json,
        "  \"hardware_threads\": {},",
        spmv_parallel::machine_threads()
    )
    .unwrap();
    writeln!(json, "  \"pool_threads\": {workers},").unwrap();
    writeln!(json, "  \"iters\": {iters},").unwrap();
    writeln!(json, "  \"tiny\": {tiny},").unwrap();
    writeln!(
        json,
        "  \"mode\": \"{}\",",
        match cfg.mode {
            RefineMode::Off => "off",
            RefineMode::Observe => "observe",
            RefineMode::Auto => "auto",
        }
    )
    .unwrap();
    writeln!(
        json,
        "  \"matrix\": {{\"name\": \"{}\", \"m\": {}, \"n\": {}, \"nnz\": {}}},",
        json_escape(&name),
        a.n_rows(),
        a.n_cols(),
        a.nnz()
    )
    .unwrap();
    writeln!(json, "  \"mispredicted_gflops\": {mispredicted_gflops:.3},").unwrap();
    writeln!(json, "  \"refined_gflops\": {refined_gflops:.3},").unwrap();
    writeln!(json, "  \"oracle_gflops\": {oracle_gflops:.3},").unwrap();
    writeln!(json, "  \"oracle_tier\": \"{oracle_tier}\",").unwrap();
    writeln!(
        json,
        "  \"refined_vs_mispredicted\": {:.3},",
        if mispredicted_gflops > 0.0 {
            refined_gflops / mispredicted_gflops
        } else {
            0.0
        }
    )
    .unwrap();
    writeln!(json, "  \"refined_vs_oracle\": {refined_vs_oracle:.3},").unwrap();
    writeln!(json, "  \"adopted\": {adopted},").unwrap();
    writeln!(json, "  \"rounds\": [").unwrap();
    for (i, r) in rounds.iter().enumerate() {
        write!(
            json,
            "    {{\"round\": {i}, \"gflops\": {:.3}, \"bottleneck\": \"{}\", \
             \"action\": \"{}\", \"probe_speedup\": {:.3}}}",
            r.gflops, r.bottleneck, r.action, r.probe_speedup
        )
        .unwrap();
        writeln!(json, "{}", if i + 1 < rounds.len() { "," } else { "" }).unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"oracle_tiers\": [").unwrap();
    for (i, (tier, g)) in tier_rows.iter().enumerate() {
        write!(json, "    {{\"tier\": \"{tier}\", \"gflops\": {g:.3}}}").unwrap();
        writeln!(json, "{}", if i + 1 < tier_rows.len() { "," } else { "" }).unwrap();
    }
    writeln!(json, "  ],").unwrap();
    writeln!(json, "  \"converged\": {converged}").unwrap();
    writeln!(json, "}}").unwrap();

    std::fs::write(&out_path, &json).expect("write report");
    println!("{json}");
    eprintln!("wrote {out_path}");

    if cfg.mode == RefineMode::Auto {
        assert!(
            converged,
            "refined plan ({refined_gflops:.3} GFLOP/s) did not converge within 10% of \
             oracle-best ({oracle_gflops:.3} GFLOP/s, tier {oracle_tier})"
        );
    }
}
