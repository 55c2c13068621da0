//! Level-scheduled triangular-solve throughput report: times the
//! certified forward-SpTRSV plan over every level-granularity setting —
//! every level parallel (maximum barriers), the shipped auto merge, and
//! everything serial (zero barriers) — across the thread sweep, and
//! emits `BENCH_solve.json` with the level structure (levels, steps,
//! barriers per row, parallel-row share, and the share of rows that run
//! in lock-step chunks of two or more lanes), GFLOP/s, and scaling
//! efficiency.
//!
//! Every timed plan is asserted bit-for-bit against the sequential
//! [`spmv_sparse::solve::sptrsv_seq`] reference first, and each
//! matrix's SymGS pipeline is asserted bit-for-bit against
//! [`spmv_sparse::solve::symgs_seq`] at the widest thread count.
//!
//! Regenerate with `cargo run --release -p spmv-bench --bin bench_solve`.
//!
//! Knobs: `SPMV_BENCH_ITERS` (timed iterations, default 20),
//! `SPMV_BENCH_SOLVE_OUT` (output path, default `BENCH_solve.json`),
//! `SPMV_BENCH_TINY=1` (three small synthetic matrices — the CI smoke
//! mode).

use spmv_autotune::prelude::*;
use spmv_bench::json_escape;
use spmv_bench::setup::{env_usize, load_suite, scaling_efficiency, sweep_threads};
use spmv_sparse::solve::{sptrsv_seq, symgs_seq, SolveDirection};
use spmv_sparse::{gen, CooMatrix, CsrMatrix};
use std::fmt::Write as _;
use std::time::Instant;

/// The level-granularity settings compared (`min_parallel_rows` values):
/// `parallel-all` schedules every level as a barrier-stepped parallel
/// step, `auto` is the shipped work-based merge, `serial-all` collapses
/// the whole schedule into one barrier-free serial chunk.
fn granularities() -> Vec<(&'static str, usize)> {
    vec![("parallel-all", 1), ("auto", 0), ("serial-all", usize::MAX)]
}

/// Lower-triangularise `a`: keep its strictly-lower entries, clip to
/// square, and plant a well-conditioned diagonal. The level profile is
/// inherited from `a`'s sparsity pattern.
fn lower_with_diag(a: &CsrMatrix<f32>) -> CsrMatrix<f32> {
    let n = a.n_rows().min(a.n_cols());
    let mut coo = CooMatrix::<f32>::new(n, n);
    for i in 0..n {
        for k in a.row_ptr()[i]..a.row_ptr()[i + 1] {
            let c = a.col_idx()[k] as usize;
            if c < i {
                coo.push(i, c, a.values()[k]);
            }
        }
        coo.push(i, i, 4.0 + (i % 7) as f32);
    }
    coo.to_csr()
}

/// Square companion with a full diagonal for the SymGS check.
fn square_with_diag(a: &CsrMatrix<f32>) -> CsrMatrix<f32> {
    let n = a.n_rows().min(a.n_cols());
    let mut coo = CooMatrix::<f32>::new(n, n);
    for i in 0..n {
        for k in a.row_ptr()[i]..a.row_ptr()[i + 1] {
            let c = a.col_idx()[k] as usize;
            if c < n && c != i {
                coo.push(i, c, a.values()[k]);
            }
        }
        coo.push(i, i, 8.0 + (i % 5) as f32);
    }
    coo.to_csr()
}

struct GrainRow {
    granularity: &'static str,
    threads: usize,
    steps: usize,
    barriers: usize,
    parallel_rows_pct: f64,
    lockstep_rows_pct: f64,
    gflops: f64,
}

struct MatrixRow {
    name: String,
    m: usize,
    nnz: usize,
    levels: usize,
    grains: Vec<GrainRow>,
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

fn probe(n: usize) -> Vec<f32> {
    (0..n).map(|i| ((i % 9) as f32) - 4.0).collect()
}

fn measure(name: &str, a: &CsrMatrix<f32>, iters: usize, threads: &[usize]) -> MatrixRow {
    let tri = lower_with_diag(a);
    let b = probe(tri.n_rows());
    let mut reference = vec![f32::NAN; tri.n_rows()];
    sptrsv_seq(&tri, SolveDirection::Forward, &b, &mut reference).unwrap();

    let mut levels = 0;
    let mut grains = Vec::new();
    for (granularity, min_parallel_rows) in granularities() {
        for &w in threads {
            let config = SolveConfig {
                workers: w,
                min_parallel_rows,
            };
            let verified = SolvePlan::build_with(&tri, SolveDirection::Forward, config)
                .expect("suite triangle must build")
                .verify(&tri)
                .expect("honest level-set schedule must certify");
            let plan = verified.plan();
            levels = plan.n_levels();
            let parallel_rows: usize = plan
                .steps()
                .iter()
                .filter(|s| s.is_parallel())
                .map(|s| s.rows().len())
                .sum();
            let mut x = vec![f32::NAN; tri.n_rows()];
            verified.solve_unchecked(&tri, &b, &mut x).unwrap();
            assert!(
                x.iter()
                    .zip(&reference)
                    .all(|(g, r)| g.to_bits() == r.to_bits()),
                "{name}/{granularity} (threads {w}) diverges from sptrsv_seq"
            );
            let secs = time_loop(iters, || {
                verified.solve_unchecked(&tri, &b, &mut x).unwrap();
            });
            grains.push(GrainRow {
                granularity,
                threads: w,
                steps: plan.steps().len(),
                barriers: plan.n_barriers(),
                parallel_rows_pct: 100.0 * parallel_rows as f64 / tri.n_rows() as f64,
                lockstep_rows_pct: 100.0 * plan.lockstep_rows() as f64 / tri.n_rows() as f64,
                gflops: gflops(tri.nnz(), iters, secs),
            });
        }
    }

    // SymGS smoke at the widest thread count: the composed pipeline must
    // reproduce the sequential sweep bit-for-bit.
    let sym = square_with_diag(a);
    let config = SolveConfig {
        workers: *threads.iter().max().unwrap_or(&1),
        min_parallel_rows: 0,
    };
    let mut plan = SymgsPlan::build_with(&sym, config).expect("suite SymGS must build");
    let bs = probe(sym.n_rows());
    let mut want = vec![0.25f32; sym.n_rows()];
    let mut got = vec![0.25f32; sym.n_rows()];
    for _ in 0..2 {
        symgs_seq(&sym, &bs, &mut want).unwrap();
        plan.apply(&sym, &bs, &mut got).unwrap();
    }
    assert!(
        got.iter()
            .zip(&want)
            .all(|(g, r)| g.to_bits() == r.to_bits()),
        "{name}: SymGS pipeline diverges from symgs_seq"
    );

    MatrixRow {
        name: name.to_string(),
        m: tri.n_rows(),
        nnz: tri.nnz(),
        levels,
        grains,
    }
}

fn main() {
    let iters = env_usize("SPMV_BENCH_ITERS", 20);
    let tiny = std::env::var("SPMV_BENCH_TINY").is_ok_and(|s| s == "1");
    let out_path =
        std::env::var("SPMV_BENCH_SOLVE_OUT").unwrap_or_else(|_| "BENCH_solve.json".to_string());

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
    writeln!(json, "  \"bench\": \"solve\",").unwrap();
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
    writeln!(json, "  \"bitwise_vs_serial\": true,").unwrap();
    writeln!(json, "  \"matrices\": [").unwrap();
    for (i, r) in rows.iter().enumerate() {
        writeln!(
            json,
            "    {{\"name\": \"{}\", \"m\": {}, \"nnz\": {}, \"levels\": {}, \"grains\": [",
            json_escape(&r.name),
            r.m,
            r.nnz,
            r.levels
        )
        .unwrap();
        for (j, g) in r.grains.iter().enumerate() {
            let base = r
                .grains
                .iter()
                .find(|q| q.granularity == g.granularity && q.threads == 1)
                .map(|q| q.gflops)
                .unwrap_or(0.0);
            write!(
                json,
                "      {{\"granularity\": \"{}\", \"threads\": {}, \"steps\": {}, \
                 \"barriers\": {}, \"barriers_per_row\": {:.5}, \
                 \"parallel_rows_pct\": {:.2}, \"lockstep_rows_pct\": {:.2}, \
                 \"gflops\": {:.3}, \
                 \"scaling_efficiency\": {:.3}}}",
                g.granularity,
                g.threads,
                g.steps,
                g.barriers,
                g.barriers as f64 / r.m.max(1) as f64,
                g.parallel_rows_pct,
                g.lockstep_rows_pct,
                g.gflops,
                scaling_efficiency(g.threads, g.gflops, base),
            )
            .unwrap();
            writeln!(json, "{}", if j + 1 < r.grains.len() { "," } else { "" }).unwrap();
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
