//! End-to-end and per-layer benchmark of the SpMV auto-tuning stack.
//!
//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Each run sets the workload up several times from fresh (the median is
//! `setup_s`), then alternates for `--seconds` between solve rounds
//! (SpMV, SpMM with 8 right-hand sides, SymGS over every matrix) and
//! serving windows (a low and a high fixed Poisson rate, then a drain
//! burst). Every program call and every window is paired with the same
//! work on the benchmark's own baseline ([`reference`], and the baseline
//! server in [`serve`]), run right next to it, and the solve and serving
//! metrics are ratios of the two: a shared VM's speed changes for tens of
//! seconds at a time, and a slowdown that both sides meet cancels. The
//! last line of standard output is one JSON object with the metrics;
//! `--trace 1` reports the per-layer metrics instead, from a traced pass
//! run after an untraced one so the tracing overhead is stated.
//!
//! Everything is driven through the crates' public functions; the
//! spans live in this package only.

mod inputs;
mod reference;
mod serve;
mod solve;
mod stats;
mod trace;

use inputs::Workload;
use solve::{Case, Round, SetupTimes};
use spmv_autotune::model_io::load_model;
use spmv_autotune::prelude::*;
use stats::{median, quantile};
use std::fmt::Write as _;
use std::hint::black_box;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// Operations attempted and failed over the run. An operation is one
/// execute, sweep, served request or value refresh; a wrong output, an
/// error or a refused submit counts as failed.
#[derive(Default)]
pub struct Ops {
    attempted: u64,
    failed: u64,
}

/// Failures described on stderr; later ones are only counted.
const FAILURES_SHOWN: u64 = 20;

impl Ops {
    /// Count one operation; a failed one is described by `what`.
    pub fn record(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            if self.failed <= FAILURES_SHOWN {
                eprintln!("perfbench: failed operation: {}", what());
            }
        }
    }
}

/// Fresh set-up rounds per pass; `setup_s` is their median.
const SETUP_ROUNDS: usize = 5;
/// Host CPU steal (share of all CPU time, over one solve round) up to
/// which the round counts as calm, for the `host.calm_share` diagnostic.
const STEAL_MAX_PCT: f64 = 5.0;
/// Calls timed per microbenchmark of the parallel layer.
const MICRO_CALLS: usize = 2_000;
/// Empty parallel steps per `stepped_for_each` call.
const MICRO_STEPS: usize = 64;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    rev: String,
    trace_dir: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        seconds: 10.0,
        trace: false,
        rev: "unknown".into(),
        trace_dir: PathBuf::from(".bench_build/perfbench-trace"),
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
            "--trace" => args.trace = value == "1",
            "--rev" => args.rev = value,
            "--trace-dir" => args.trace_dir = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    if args.seconds.is_nan() || args.seconds <= 0.0 {
        return Err("--seconds must be positive".into());
    }
    Ok(args)
}

/// Run `f` and return its result with the host steal over the call.
fn with_steal<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = stats::cpu_ticks();
    let value = f();
    (value, stats::steal_pct(start, stats::cpu_ticks()))
}

/// One fresh set-up of the workload.
struct Setup {
    seconds: f64,
    layers: SetupTimes,
    server_s: f64,
}

/// Everything one pass over a workload measured.
struct Pass {
    setups: Vec<Setup>,
    rounds: Vec<Round>,
    /// Share of solve rounds that were calm.
    calm_share: f64,
    lo: Vec<serve::Window>,
    hi: Vec<serve::Window>,
    bursts: Vec<serve::Window>,
    bins: [usize; 6],
    traffic: (usize, usize, usize),
    schedule: (usize, usize),
    cache: spmv_serve::CacheStats,
    batches: u64,
    mean_occupancy: f64,
    /// Trace-pass extras: per-call µs of the parallel layer's dispatch
    /// and of one empty parallel step, and a standalone 1-worker execute
    /// of the hot matrix.
    dispatch_us: f64,
    step_us: f64,
    standalone_hot_us: f64,
}

fn run_pass(
    w: &Workload,
    cases: &[Case],
    auto: &AutoSpmv,
    seed: u64,
    seconds: f64,
    traced: bool,
    ops: &mut Ops,
) -> Result<Pass, String> {
    let mut setups = Vec::new();
    let mut kept: Option<(Vec<solve::Prepared>, spmv_serve::SpmvServer<f32>)> = None;
    for _ in 0..SETUP_ROUNDS {
        // Drop the previous round's plans and server first, so every
        // round starts from the same state.
        drop(kept.take());
        let round = (|| -> Result<_, String> {
            let t = Instant::now();
            let (prepared, layers) = trace::span("setup.solve", || solve::setup(auto, cases, ops))?;
            let (server, server_s) =
                trace::span("setup.serve", || serve::setup(cases, &prepared, ops));
            let seconds = t.elapsed().as_secs_f64();
            kept = Some((prepared, server));
            Ok(Setup {
                seconds,
                layers,
                server_s,
            })
        })();
        setups.push(round?);
    }
    let (mut prepared, server) = kept.ok_or("no set-up rounds")?;
    let warm = server.stats();
    let mut scratch: Vec<solve::Scratch> = cases.iter().map(solve::Scratch::new).collect();
    let mut load = serve::Load::new(cases, seed);
    let (mut rounds, mut lo, mut hi, mut bursts) = (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut pass = Pass {
        setups,
        rounds: Vec::new(),
        calm_share: 0.0,
        lo: Vec::new(),
        hi: Vec::new(),
        bursts: Vec::new(),
        bins: solve::bin_counts(&prepared),
        traffic: solve::traffic(&prepared),
        schedule: solve::schedule_counts(&prepared),
        cache: warm.cache,
        batches: 0,
        mean_occupancy: 0.0,
        dispatch_us: 0.0,
        step_us: 0.0,
        standalone_hot_us: 0.0,
    };

    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    while Instant::now() < deadline {
        let solve_end = Instant::now() + w.solve_time;
        loop {
            rounds.push(with_steal(|| {
                trace::span("bench.solve_round", || {
                    solve::round(cases, &mut prepared, &mut scratch, w.reps, traced, ops)
                })
            }));
            if Instant::now() >= solve_end {
                break;
            }
        }
        let t = &w.traffic;
        // Each window and burst is followed by its replay on the baseline
        // server, so short windows interleave the two servers finely.
        for _ in 0..w.serve_repeats {
            lo.push(trace::span("bench.window_lo", || {
                load.open_window(&server, cases, t.lo_rps, t, ops)
            }));
            hi.push(trace::span("bench.window_hi", || {
                load.open_window(&server, cases, t.hi_rps, t, ops)
            }));
            bursts.push(trace::span("bench.burst", || {
                load.drain_burst(&server, cases, t.burst, ops)
            }));
        }
    }
    let calm_rounds = rounds.iter().filter(|r| r.1 <= STEAL_MAX_PCT).count();
    pass.calm_share = calm_rounds as f64 / rounds.len().max(1) as f64;
    pass.rounds = rounds.into_iter().map(|r| r.0).collect();
    pass.lo = lo;
    pass.hi = hi;
    pass.bursts = bursts;

    let end = server.stats();
    pass.cache = end.cache;
    pass.batches = end.batches - warm.batches;
    let served: u64 = end
        .occupancy
        .iter()
        .zip(&warm.occupancy)
        .enumerate()
        .map(|(k, (e, s))| (k as u64 + 1) * (e - s))
        .sum();
    pass.mean_occupancy = served as f64 / pass.batches.max(1) as f64;
    server.shutdown();

    if traced {
        pass.dispatch_us = micro(MICRO_CALLS, || {
            trace::span("parallel.fused_for_each_with", || {
                spmv_parallel::fused_for_each_with(2, 2, |t| {
                    black_box(t);
                })
            })
        });
        let steps = [true; MICRO_STEPS];
        pass.step_us = micro(MICRO_CALLS / 10, || {
            trace::span("parallel.stepped_for_each", || {
                spmv_parallel::stepped_for_each(2, &steps, |s, r, n| {
                    black_box((s, r, n));
                })
            })
        }) / MICRO_STEPS as f64;
        pass.standalone_hot_us = standalone(&cases[0], &prepared[0].strategy, ops)?;
    }
    Ok(pass)
}

/// Median µs of `calls` timed calls of `f`.
fn micro(calls: usize, mut f: impl FnMut()) -> f64 {
    let mut us = Vec::with_capacity(calls);
    for _ in 0..calls {
        let t = Instant::now();
        f();
        us.push(t.elapsed().as_secs_f64() * 1e6);
    }
    median(&us)
}

/// Median µs of a standalone execute of `c` on the serving worker count,
/// with the plan the server would compile.
fn standalone(c: &Case, strategy: &Strategy, ops: &mut Ops) -> Result<f64, String> {
    let backend = NativeCpuBackend::new().with_workers(serve::config().workers);
    let plan = SpmvPlan::compile_with(
        &c.a,
        strategy.clone(),
        Box::new(backend),
        serve::config().plan,
    )
    .verify(&c.a)
    .map_err(|e| format!("{}: standalone plan verification failed: {e}", c.name))?;
    let mut y = vec![0.0f32; c.a.n_rows()];
    let mut us = Vec::new();
    for _ in 0..200 {
        y.fill(f32::NAN);
        let t = Instant::now();
        let r = trace::span("core.exec.standalone", || {
            plan.execute_unchecked(&c.a, &c.x, &mut y)
        });
        us.push(t.elapsed().as_secs_f64() * 1e6);
        ops.record(r.is_ok() && solve::same(&y, &c.y_ref), || {
            format!("standalone execute of {}: {r:?}", c.name)
        });
    }
    Ok(median(&us))
}

fn pooled(windows: &[serve::Window], f: impl Fn(&serve::Window) -> &Vec<f64>) -> Vec<f64> {
    windows.iter().flat_map(|w| f(w).iter().copied()).collect()
}

/// A metric: name, value, unit.
type Metric = (String, f64, &'static str);

/// Quantile of the per-call times that stands for a matrix in the
/// kernel speed-ups: the best decile, so calls that met a host stall
/// drop out.
const BEST_DECILE: f64 = 0.1;
/// Quantile of the latencies in the serving ratios: the fastest tenth,
/// requests that met no host stall.
const LATENCY_Q: f64 = 0.1;

type Pick = fn(&solve::CallTimes) -> f64;

/// Seconds of one call per matrix at the best decile, summed over the
/// matrix set.
fn best_total(p: &Pass, f: Pick) -> f64 {
    let n = p.rounds.first().map_or(0, |r| r.per_matrix.len());
    (0..n)
        .map(|i| {
            let calls: Vec<f64> = p.rounds.iter().map(|r| f(&r.per_matrix[i])).collect();
            quantile(&calls, BEST_DECILE)
        })
        .sum()
}

/// Baseline over program time of `f` at the best decile.
fn speedup(p: &Pass, base: Pick, prog: Pick) -> f64 {
    best_total(p, base) / best_total(p, prog)
}

/// The program's latency over the baseline server's: per matrix, the
/// latency quantile of its requests over the run's windows, summed over
/// the matrices. Per matrix, so the quantile never falls between two
/// matrices' modes, where a small shift of the mix would move it.
fn latency_ratio(windows: &[serve::Window]) -> f64 {
    let mut per: Vec<[Vec<f64>; 2]> = Vec::new();
    for w in windows {
        let sides = [
            (&w.matrix, &w.latency_us),
            (&w.base_matrix, &w.base_latency_us),
        ];
        for (side, (ms, ls)) in sides.into_iter().enumerate() {
            for (&m, &l) in ms.iter().zip(ls) {
                if per.len() <= m {
                    per.resize_with(m + 1, Default::default);
                }
                per[m][side].push(l);
            }
        }
    }
    let both = || per.iter().filter(|s| !s[0].is_empty() && !s[1].is_empty());
    let total = |side: usize| both().map(|s| quantile(&s[side], LATENCY_Q)).sum::<f64>();
    total(0) / total(1)
}

/// The end-to-end metrics of a pass, in the order `BENCHMARK.json`
/// lists them.
fn end_to_end(p: &Pass) -> Vec<Metric> {
    let span = |f: fn(&serve::Window) -> f64| p.bursts.iter().map(f).sum::<f64>();
    vec![
        (
            "setup_s".into(),
            median(&p.setups.iter().map(|s| s.seconds).collect::<Vec<_>>()),
            "s",
        ),
        (
            "spmv_speedup".into(),
            speedup(p, |t| t.base_spmv, |t| t.spmv),
            "x",
        ),
        (
            "spmm8_speedup".into(),
            speedup(p, |t| t.base_spmm, |t| t.spmm),
            "x",
        ),
        (
            "symgs_speedup".into(),
            speedup(p, |t| t.base_symgs, |t| t.symgs),
            "x",
        ),
        ("p10_lo_x".into(), latency_ratio(&p.lo), "x"),
        (
            "drain_x".into(),
            span(|b| b.base_span_s) / span(|b| b.span_s),
            "x",
        ),
        ("peak_rss_mb".into(), stats::peak_rss_mb(), "MiB"),
    ]
}

/// Absolute speeds behind the end-to-end ratios: GFLOP/s of the
/// program's kernels at the best decile, serving latencies and drain
/// rate as measured. Also the latency ratio at the high rate, which is
/// not steady enough under heavy host steal to carry a bound.
fn absolute(p: &Pass, cases: &[Case]) -> Vec<Metric> {
    let flops = |per: fn(&Case) -> f64| cases.iter().map(per).sum::<f64>() / 1e9;
    let drained: usize = p.bursts.iter().map(|b| b.requests).sum();
    let drain_s: f64 = p.bursts.iter().map(|b| b.span_s).sum();
    vec![
        (
            "core.exec.spmv_gflops".into(),
            flops(|c| 2.0 * c.a.nnz() as f64) / best_total(p, |t| t.spmv),
            "GFLOP/s",
        ),
        (
            "core.exec.spmm8_gflops".into(),
            flops(|c| 2.0 * solve::K as f64 * c.a.nnz() as f64) / best_total(p, |t| t.spmm),
            "GFLOP/s",
        ),
        (
            "core.solve.symgs_gflops".into(),
            flops(|c| 4.0 * c.sym.nnz() as f64) / best_total(p, |t| t.symgs),
            "GFLOP/s",
        ),
        (
            "server.serve.p50_lo_us".into(),
            median(&pooled(&p.lo, |w| &w.latency_us)),
            "us",
        ),
        (
            "server.serve.p50_hi_us".into(),
            median(&pooled(&p.hi, |w| &w.latency_us)),
            "us",
        ),
        (
            "server.serve.drain_rps".into(),
            drained as f64 / drain_s,
            "1/s",
        ),
        ("server.serve.p10_hi_x".into(), latency_ratio(&p.hi), "x"),
    ]
}

/// Size class of a matrix by non-zeros, for the per-class breakdown.
fn size_class(nnz: usize) -> &'static str {
    match nnz {
        0..=39_999 => "nnz<40k",
        40_000..=99_999 => "nnz40k-100k",
        100_000..=249_999 => "nnz100k-250k",
        _ => "nnz>=250k",
    }
}

/// The per-layer metrics of a traced pass.
fn per_layer(p: &Pass, cases: &[Case], steal: f64, ops: &Ops) -> Vec<Metric> {
    let mut m: Vec<Metric> = Vec::new();
    let setup = |f: fn(&SetupTimes) -> f64| {
        median(
            &p.setups
                .iter()
                .map(|s| f(&s.layers) * 1e3)
                .collect::<Vec<_>>(),
        )
    };
    m.push(("ml.select_ms".into(), setup(|t| t.select), "ms"));
    m.push(("core.plan.compile_ms".into(), setup(|t| t.compile), "ms"));
    m.push(("core.verify.verify_ms".into(), setup(|t| t.verify), "ms"));
    m.push((
        "core.exec.first_exec_ms".into(),
        setup(|t| t.first_exec),
        "ms",
    ));
    m.push((
        "core.solve.symgs_build_ms".into(),
        setup(|t| t.symgs_build),
        "ms",
    ));
    let server_ms: Vec<f64> = p.setups.iter().map(|s| s.server_s * 1e3).collect();
    m.push(("server.setup_ms".into(), median(&server_ms), "ms"));
    for (name, n) in solve::FORMATS.iter().zip(p.bins) {
        m.push((format!("core.plan.bins.{name}"), n as f64, "count"));
    }
    let (index_b, total_b, nnz) = p.traffic;
    m.push((
        "core.plan.index_bytes_per_nnz".into(),
        index_b as f64 / nnz.max(1) as f64,
        "B",
    ));
    m.push((
        "core.plan.total_bytes_per_nnz".into(),
        total_b as f64 / nnz.max(1) as f64,
        "B",
    ));
    let by_nnz = |pick_max: bool| {
        let it = cases.iter().enumerate();
        if pick_max {
            it.max_by_key(|(_, c)| c.a.nnz()).map(|(i, _)| i)
        } else {
            it.min_by_key(|(_, c)| c.a.nnz()).map(|(i, _)| i)
        }
        .unwrap_or(0)
    };
    let call_us = |i: usize, f: fn(&solve::CallTimes) -> f64| {
        median(
            &p.rounds
                .iter()
                .map(|r| f(&r.per_matrix[i]) * 1e6)
                .collect::<Vec<_>>(),
        )
    };
    for (label, i) in [("smallest", by_nnz(false)), ("largest", by_nnz(true))] {
        m.push((
            format!("core.exec.spmv_us.{label}"),
            call_us(i, |t| t.spmv),
            "us",
        ));
        m.push((
            format!("core.exec.spmm8_us.{label}"),
            call_us(i, |t| t.spmm),
            "us",
        ));
    }
    let rounds = |f: &dyn Fn(&Round) -> f64| median(&p.rounds.iter().map(f).collect::<Vec<_>>());
    m.push((
        "core.exec.spmv_gbps_computed".into(),
        rounds(&|r| r.spmv_gbps),
        "GB/s",
    ));
    m.push((
        "core.solve.fwd_us".into(),
        rounds(&|r| r.per_matrix.iter().map(|t| t.fwd).sum::<f64>() * 1e6),
        "us",
    ));
    m.push((
        "core.solve.bwd_us".into(),
        rounds(&|r| r.per_matrix.iter().map(|t| t.bwd).sum::<f64>() * 1e6),
        "us",
    ));
    m.push(("core.solve.levels".into(), p.schedule.0 as f64, "count"));
    m.push(("core.solve.barriers".into(), p.schedule.1 as f64, "count"));
    m.push(("parallel.dispatch_us".into(), p.dispatch_us, "us"));
    m.push(("parallel.step_us".into(), p.step_us, "us"));
    m.push(("server.cache.hit_rate".into(), p.cache.hit_rate(), "ratio"));
    m.push(("server.cache.builds".into(), p.cache.builds as f64, "count"));
    m.push(("server.cache.misses".into(), p.cache.misses as f64, "count"));
    m.push((
        "server.serve.mean_occupancy".into(),
        p.mean_occupancy,
        "columns",
    ));
    m.push(("server.serve.batches".into(), p.batches as f64, "count"));
    let hot_lo = median(&pooled(&p.lo, |w| &w.hot_latency_us));
    m.push((
        "server.serve.overhead_us".into(),
        hot_lo - p.standalone_hot_us,
        "us",
    ));
    let all = |f: fn(&serve::Window) -> &Vec<f64>| {
        let mut v = pooled(&p.lo, f);
        v.extend(pooled(&p.hi, f));
        v.extend(pooled(&p.bursts, f));
        v
    };
    m.push((
        "server.serve.update_values_us".into(),
        median(&all(|w| &w.update_us)),
        "us",
    ));
    m.push((
        "server.serve.p99_lo_us".into(),
        quantile(&pooled(&p.lo, |w| &w.latency_us), 0.99),
        "us",
    ));
    m.push((
        "server.serve.p99_hi_us".into(),
        quantile(&pooled(&p.hi, |w| &w.latency_us), 0.99),
        "us",
    ));
    let mut late = pooled(&p.lo, |w| &w.late_us);
    late.extend(pooled(&p.hi, |w| &w.late_us));
    m.push((
        "server.serve.gen_late_p99_us".into(),
        quantile(&late, 0.99),
        "us",
    ));
    m.push(("host.steal_pct".into(), steal, "%"));
    m.push(("host.calm_share".into(), p.calm_share, "ratio"));
    m.push(("ops.attempted".into(), ops.attempted as f64, "count"));
    m.push(("ops.failed".into(), ops.failed as f64, "count"));
    m
}

/// Human-readable breakdown: per matrix and per size class, median
/// per-call µs over the solve rounds.
fn breakdown(p: &Pass, cases: &[Case], out: &mut String) {
    let call = |i: usize, f: fn(&solve::CallTimes) -> f64| {
        median(
            &p.rounds
                .iter()
                .map(|r| f(&r.per_matrix[i]) * 1e6)
                .collect::<Vec<_>>(),
        )
    };
    let _ = writeln!(
        out,
        "# {:<22} {:>9} {:>11} {:>11} {:>11} {:>11} {:>11} {:>11}",
        "matrix", "nnz", "spmv_us", "base", "spmm8_us", "base", "symgs_us", "base"
    );
    for (i, c) in cases.iter().enumerate() {
        let _ = writeln!(
            out,
            "# {:<22} {:>9} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1} {:>11.1}",
            c.name,
            c.a.nnz(),
            call(i, |t| t.spmv),
            call(i, |t| t.base_spmv),
            call(i, |t| t.spmm),
            call(i, |t| t.base_spmm),
            call(i, |t| t.symgs),
            call(i, |t| t.base_symgs)
        );
    }
    let mut classes: Vec<&str> = cases.iter().map(|c| size_class(c.a.nnz())).collect();
    classes.dedup();
    classes.sort_unstable();
    classes.dedup();
    for class in classes {
        let members: Vec<usize> = (0..cases.len())
            .filter(|&i| size_class(cases[i].a.nnz()) == class)
            .collect();
        let sum = |f: fn(&solve::CallTimes) -> f64| {
            median(
                &p.rounds
                    .iter()
                    .map(|r| members.iter().map(|&i| f(&r.per_matrix[i])).sum::<f64>() * 1e6)
                    .collect::<Vec<_>>(),
            )
        };
        let _ = writeln!(
            out,
            "# class {:<16} {:>3} matrices  spmv_us {:>10.1}  spmm8_us {:>10.1}  symgs_us {:>10.1}",
            class,
            members.len(),
            sum(|t| t.spmv),
            sum(|t| t.spmm),
            sum(|t| t.symgs)
        );
    }
}

fn json(ops: &Ops, metrics: &[Metric]) -> String {
    let mut s = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        ops.failed == 0,
        ops.attempted,
        ops.failed
    );
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let value = if value.is_finite() { *value } else { 0.0 };
        let _ = write!(
            s,
            "{}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}",
            if i == 0 { "" } else { ", " }
        );
    }
    s.push_str("}}");
    s
}

fn run(args: &Args) -> Result<(), String> {
    let mut workload = inputs::build(&args.workload, args.seed).ok_or(format!(
        "unknown workload {:?}; expected one of {:?}",
        args.workload,
        inputs::WORKLOADS
    ))?;
    let model = load_model(include_str!("../../models/tiny.txt").as_bytes())
        .map_err(|e| format!("models/tiny.txt: {e}"))?;
    let auto = AutoSpmv::with_model(GpuDevice::kaveri(), model);
    let cases: Vec<Case> = std::mem::take(&mut workload.matrices)
        .into_iter()
        .map(|(name, a)| Case::new(name, a))
        .collect();
    let nnz: usize = cases.iter().map(|c| c.a.nnz()).sum();
    println!(
        "# perfbench workload={} seed={} seconds={} trace={} rev={} hardware_threads={} \
         solve_workers={} serve_workers={} matrices={} nnz={}",
        workload.name,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        args.rev,
        spmv_parallel::machine_threads(),
        spmv_parallel::num_threads(),
        serve::config().workers,
        cases.len(),
        nnz
    );

    let mut ops = Ops::default();
    let steal_start = stats::cpu_ticks();
    let mut out = String::new();
    let metrics = if args.trace {
        let half = args.seconds / 2.0;
        let untraced = run_pass(&workload, &cases, &auto, args.seed, half, false, &mut ops)?;
        let untraced_abs = absolute(&untraced, &cases);
        let base: Vec<Metric> = end_to_end(&untraced)
            .into_iter()
            .chain(untraced_abs.iter().cloned())
            .collect();
        drop(untraced);
        trace::set_enabled(true);
        let traced = run_pass(&workload, &cases, &auto, args.seed, half, true, &mut ops)?;
        trace::set_enabled(false);
        let spans = trace::take();
        let path = args
            .trace_dir
            .join(format!("{}-seed{}.jsonl", workload.name, args.seed));
        trace::dump(&path, &spans).map_err(|e| format!("{}: {e}", path.display()))?;
        let _ = writeln!(
            out,
            "# spans: {} written to {}",
            spans.len(),
            path.display()
        );
        let _ = writeln!(
            out,
            "# {:<32} {:>9} {:>12} {:>12}",
            "layer span", "calls", "total_ms", "self_ms"
        );
        for (name, (calls, total, own)) in trace::self_times(&spans) {
            let _ = writeln!(
                out,
                "# {:<32} {:>9} {:>12.3} {:>12.3}",
                name,
                calls,
                total as f64 / 1e6,
                own as f64 / 1e6
            );
        }
        let _ = writeln!(
            out,
            "# {:<24} {:>14} {:>14} {:>9}",
            "end-to-end", "untraced", "traced", "delta%"
        );
        let shown: Vec<Metric> = end_to_end(&traced)
            .into_iter()
            .chain(absolute(&traced, &cases))
            .collect();
        let mut overhead = Vec::new();
        for ((name, u, unit), (_, t, _)) in base.iter().zip(&shown) {
            let delta = 100.0 * (t - u) / u;
            let _ = writeln!(out, "# {name:<24} {u:>14.4} {t:>14.4} {delta:>8.2}  {unit}");
            overhead.push((name.clone(), delta));
        }
        breakdown(&traced, &cases, &mut out);
        let steal = stats::steal_pct(steal_start, stats::cpu_ticks());
        let mut m = per_layer(&traced, &cases, steal, &ops);
        m.extend(untraced_abs);
        m.push(("trace.spans".into(), spans.len() as f64, "count"));
        // Tracing overhead as a slowdown in percent: throughput lost,
        // latency added.
        for (name, delta) in overhead {
            match name.as_str() {
                "core.exec.spmv_gflops" => {
                    m.push(("trace.overhead_pct.spmv_gflops".into(), -delta, "%"))
                }
                "server.serve.p50_lo_us" => {
                    m.push(("trace.overhead_pct.p50_lo_us".into(), delta, "%"))
                }
                _ => {}
            }
        }
        m
    } else {
        let pass = run_pass(
            &workload,
            &cases,
            &auto,
            args.seed,
            args.seconds,
            false,
            &mut ops,
        )?;
        let m = end_to_end(&pass);
        for (name, value, unit) in m.iter().chain(&absolute(&pass, &cases)) {
            let _ = writeln!(out, "# {name:<24} {value:>14.4} {unit}");
        }
        breakdown(&pass, &cases, &mut out);
        m
    };
    let steal = stats::steal_pct(steal_start, stats::cpu_ticks());
    print!("{out}");
    println!(
        "# host steal_pct={steal:.2} over the run; ops attempted={} failed={}",
        ops.attempted, ops.failed
    );
    println!("{}", json(&ops, &metrics));
    Ok(())
}

fn main() {
    let result = parse_args().and_then(|args| run(&args));
    if let Err(e) = result {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
}
