//! The closed solve loop: plan set-up, then rounds of SpMV, SpMM (K = 8)
//! and SymGS over every matrix of the workload. Each program call is
//! timed on its own right after the same call of the benchmark's
//! baseline kernel ([`crate::reference`]), and its output is checked bit
//! for bit.

use crate::inputs::{symgs_companion, vector};
use crate::reference;
use crate::trace::span;
use crate::Ops;
use spmv_autotune::prelude::*;
use spmv_sparse::solve::{split_triangular, sptrsv_seq, symgs_seq, SolveDirection};
use spmv_sparse::CsrMatrix;
use std::sync::atomic::AtomicU32;
use std::time::Instant;

/// Right-hand sides per SpMM call.
pub const K: usize = 8;

/// One matrix with its inputs and the outputs of the sequential
/// references: 1-worker CSR SpMV (`spmv_seq`) for SpMV and every SpMM
/// column, `symgs_seq` for the sweep, `sptrsv_seq` for the two halves.
pub struct Case {
    pub name: String,
    pub a: CsrMatrix<f32>,
    /// Diagonally dominant square companion the SymGS sweeps run on.
    pub sym: CsrMatrix<f32>,
    pub x: Vec<f32>,
    xb: DenseBlock<f32>,
    b: Vec<f32>,
    x0: Vec<f32>,
    pub y_ref: Vec<f32>,
    yb_ref: DenseBlock<f32>,
    /// Row ranges of the baseline kernels, one per default worker, and
    /// the baseline sweep's level schedules.
    cuts: Vec<usize>,
    levels: [reference::Levels; 2],
    sym_ref: Vec<f32>,
    fwd_ref: Vec<f32>,
    bwd_ref: Vec<f32>,
}

impl Case {
    pub fn new(name: String, a: CsrMatrix<f32>) -> Self {
        let sym = symgs_companion(&a);
        let x = vector(a.n_cols(), 0);
        let y_ref = a.spmv_seq_alloc(&x).expect("reference spmv");
        let cols: Vec<Vec<f32>> = (0..K).map(|j| vector(a.n_cols(), j + 1)).collect();
        let xb = DenseBlock::from_columns(&cols);
        let ref_cols: Vec<Vec<f32>> = cols
            .iter()
            .map(|c| a.spmv_seq_alloc(c).expect("reference spmv"))
            .collect();
        let yb_ref = DenseBlock::from_columns(&ref_cols);
        let workers = spmv_parallel::num_threads();
        let cuts = reference::split(&a, workers);
        let n = sym.n_rows();
        let levels = [
            reference::Levels::new(&sym, true, workers),
            reference::Levels::new(&sym, false, workers),
        ];
        let b = vector(n, 99);
        let x0 = vec![0.25f32; n];
        let mut sym_ref = x0.clone();
        symgs_seq(&sym, &b, &mut sym_ref).expect("reference symgs");
        let halves = split_triangular(&sym).expect("companion has a full diagonal");
        let mut fwd_ref = vec![0.0; n];
        sptrsv_seq(halves.lower(), SolveDirection::Forward, &b, &mut fwd_ref)
            .expect("reference forward solve");
        let mut bwd_ref = vec![0.0; n];
        sptrsv_seq(halves.upper(), SolveDirection::Backward, &b, &mut bwd_ref)
            .expect("reference backward solve");
        Self {
            name,
            a,
            sym,
            x,
            xb,
            b,
            x0,
            y_ref,
            yb_ref,
            cuts,
            levels,
            sym_ref,
            fwd_ref,
            bwd_ref,
        }
    }
}

pub fn same(a: &[f32], b: &[f32]) -> bool {
    a.len() == b.len() && a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// A matrix's compiled plans, as the set-up leaves them.
pub struct Prepared {
    pub strategy: Strategy,
    pub plan: VerifiedPlan<f32>,
    pub symgs: SymgsPlan<f32>,
}

/// Seconds spent in each layer during one set-up round, summed over the
/// workload's matrices.
#[derive(Clone, Copy, Default)]
pub struct SetupTimes {
    pub select: f64,
    pub compile: f64,
    pub verify: f64,
    pub symgs_build: f64,
    pub first_exec: f64,
}

fn timed<R>(acc: &mut f64, name: &'static str, f: impl FnOnce() -> R) -> R {
    let t = Instant::now();
    let r = span(name, f);
    *acc += t.elapsed().as_secs_f64();
    r
}

/// Select, compile (default `PlanConfig`, default worker count), verify,
/// build the SymGS sweep and run a first checked execute, per matrix.
pub fn setup(
    auto: &AutoSpmv,
    cases: &[Case],
    ops: &mut Ops,
) -> Result<(Vec<Prepared>, SetupTimes), String> {
    let mut t = SetupTimes::default();
    let mut out = Vec::with_capacity(cases.len());
    for c in cases {
        let strategy = timed(&mut t.select, "ml.select", || auto.select(&c.a));
        let plan = timed(&mut t.compile, "core.plan.compile", || {
            SpmvPlan::compile_with(
                &c.a,
                strategy.clone(),
                Box::new(NativeCpuBackend::new()),
                PlanConfig::default(),
            )
        });
        let plan = timed(&mut t.verify, "core.verify", || plan.verify(&c.a))
            .map_err(|e| format!("{}: plan verification failed: {e}", c.name))?;
        let symgs = timed(&mut t.symgs_build, "core.solve.symgs_build", || {
            SymgsPlan::build(&c.sym)
        })
        .map_err(|e| format!("{}: SymGS build failed: {e}", c.name))?;
        let mut y = vec![f32::NAN; c.a.n_rows()];
        let r = timed(&mut t.first_exec, "core.exec.first_exec", || {
            plan.execute_unchecked(&c.a, &c.x, &mut y)
        });
        ops.record(r.is_ok() && same(&y, &c.y_ref), || {
            format!("first execute of {}: {r:?}", c.name)
        });
        out.push(Prepared {
            strategy,
            plan,
            symgs,
        });
    }
    Ok((out, t))
}

/// Reusable output buffers, one set per matrix, allocated outside timing;
/// the `base_` ones take the baseline kernels' outputs.
pub struct Scratch {
    y: Vec<f32>,
    yb: DenseBlock<f32>,
    xs: Vec<f32>,
    base_y: Vec<f32>,
    base_yb: Vec<f32>,
    base_xs: Vec<AtomicU32>,
    base_r: Vec<AtomicU32>,
}

impl Scratch {
    pub fn new(c: &Case) -> Self {
        Self {
            y: vec![0.0; c.a.n_rows()],
            yb: DenseBlock::zeros(c.a.n_rows(), K),
            xs: vec![0.0; c.sym.n_rows()],
            base_y: vec![0.0; c.a.n_rows()],
            base_yb: vec![0.0; c.a.n_rows() * K],
            base_xs: (0..c.sym.n_rows()).map(|_| AtomicU32::new(0)).collect(),
            base_r: (0..c.sym.n_rows()).map(|_| AtomicU32::new(0)).collect(),
        }
    }
}

/// Per-call seconds of one matrix in one round (mean over the round's
/// repetitions), of the program and (`base_`) of the baseline kernels.
#[derive(Clone, Copy, Default)]
pub struct CallTimes {
    pub spmv: f64,
    pub spmm: f64,
    pub symgs: f64,
    pub base_spmv: f64,
    pub base_spmm: f64,
    pub base_symgs: f64,
    pub fwd: f64,
    pub bwd: f64,
}

/// One solve round over every matrix.
pub struct Round {
    /// Bytes the plans' traffic model charges per SpMV, over SpMV time.
    pub spmv_gbps: f64,
    pub per_matrix: Vec<CallTimes>,
}

/// Seconds of one call of `f`.
fn time<R>(f: impl FnOnce() -> R) -> (R, f64) {
    let t = Instant::now();
    let r = f();
    (r, t.elapsed().as_secs_f64())
}

/// Run one round. Each phase cycles through all matrices before the next
/// phase starts. Every program call follows the baseline kernel's call on
/// the same matrix and inputs, and each is timed alone: output poisoning,
/// input resets and checks happen outside the timed interval. With
/// `halves`, the forward and backward solves of each sweep are also timed
/// on their own (outside the SymGS total).
pub fn round(
    cases: &[Case],
    prepared: &mut [Prepared],
    scratch: &mut [Scratch],
    reps: usize,
    halves: bool,
    ops: &mut Ops,
) -> Round {
    let mut per_matrix = vec![CallTimes::default(); cases.len()];
    let mut bytes = 0.0;
    let each = reps as f64;
    for (i, ((c, p), s)) in cases
        .iter()
        .zip(prepared.iter())
        .zip(scratch.iter_mut())
        .enumerate()
    {
        let t = &mut per_matrix[i];
        for _ in 0..reps {
            let ((), base) = time(|| reference::spmv(&c.a, &c.cuts, &c.x, &mut s.base_y));
            s.y.fill(f32::NAN);
            let (r, dt) = time(|| {
                span("core.exec.spmv", || {
                    p.plan.execute_unchecked(&c.a, &c.x, &mut s.y)
                })
            });
            ops.record(r.is_ok() && same(&s.y, &c.y_ref), || {
                format!("spmv of {}: {r:?}", c.name)
            });
            t.base_spmv += base / each;
            t.spmv += dt / each;
            let tr = p.plan.plan().traffic();
            bytes +=
                (tr.value_bytes + tr.index_bytes + tr.x_gather_bytes + 4 * c.a.n_rows()) as f64;
        }
    }
    for (i, ((c, p), s)) in cases
        .iter()
        .zip(prepared.iter())
        .zip(scratch.iter_mut())
        .enumerate()
    {
        let t = &mut per_matrix[i];
        for _ in 0..reps {
            let ((), base) =
                time(|| reference::spmm(&c.a, &c.cuts, K, c.xb.as_slice(), &mut s.base_yb));
            s.yb.as_mut_slice().fill(f32::NAN);
            let (r, dt) = time(|| {
                span("core.exec.spmm8", || {
                    p.plan.execute_batch_unchecked(&c.a, &c.xb, &mut s.yb)
                })
            });
            ops.record(
                r.is_ok() && same(s.yb.as_slice(), c.yb_ref.as_slice()),
                || format!("spmm8 of {}: {r:?}", c.name),
            );
            t.base_spmm += base / each;
            t.spmm += dt / each;
        }
    }
    for (i, ((c, p), s)) in cases
        .iter()
        .zip(prepared.iter_mut())
        .zip(scratch.iter_mut())
        .enumerate()
    {
        let t = &mut per_matrix[i];
        for _ in 0..reps {
            for (x, &v) in s.base_xs.iter_mut().zip(&c.x0) {
                *x.get_mut() = v.to_bits();
            }
            let ((), base) = time(|| {
                reference::symgs(
                    &c.sym,
                    &c.levels,
                    c.cuts.len() - 1,
                    &c.b,
                    &s.base_xs,
                    &s.base_r,
                )
            });
            s.xs.copy_from_slice(&c.x0);
            let (r, dt) = time(|| {
                span("core.solve.symgs", || {
                    p.symgs.apply(&c.sym, &c.b, &mut s.xs)
                })
            });
            ops.record(r.is_ok() && same(&s.xs, &c.sym_ref), || {
                format!("symgs sweep of {}: {r:?}", c.name)
            });
            t.base_symgs += base / each;
            t.symgs += dt / each;
        }
        if halves {
            let h = p.symgs.halves();
            s.xs.fill(f32::NAN);
            let (r, dt) = time(|| {
                span("core.solve.forward", || {
                    p.symgs
                        .forward()
                        .solve_unchecked(h.lower(), &c.b, &mut s.xs)
                })
            });
            t.fwd = dt;
            ops.record(r.is_ok() && same(&s.xs, &c.fwd_ref), || {
                format!("forward solve of {}: {r:?}", c.name)
            });
            s.xs.fill(f32::NAN);
            let (r, dt) = time(|| {
                span("core.solve.backward", || {
                    p.symgs
                        .backward()
                        .solve_unchecked(h.upper(), &c.b, &mut s.xs)
                })
            });
            t.bwd = dt;
            ops.record(r.is_ok() && same(&s.xs, &c.bwd_ref), || {
                format!("backward solve of {}: {r:?}", c.name)
            });
        }
    }
    let spmv_s = per_matrix.iter().map(|t| t.spmv).sum::<f64>() * each;
    Round {
        spmv_gbps: bytes / spmv_s / 1e9,
        per_matrix,
    }
}

/// Per-format bin counts over every plan, in a fixed order.
pub const FORMATS: [&str; 6] = ["csr", "packed", "banded", "dense_run", "row_run", "blocked"];

pub fn bin_counts(prepared: &[Prepared]) -> [usize; 6] {
    let mut n = [0; 6];
    for p in prepared {
        for d in p.plan.plan().dispatch() {
            let slot = match d.format {
                BinFormat::Csr => 0,
                BinFormat::PackedSell { .. } => 1,
                BinFormat::Banded { .. } => 2,
                BinFormat::DenseRun => 3,
                BinFormat::RowRunReuse => 4,
                BinFormat::CacheBlockedCsr { .. } => 5,
            };
            n[slot] += 1;
        }
    }
    n
}

/// `(index bytes, total bytes, nnz)` of one SpMV over every plan, from
/// the plans' traffic model (computed, not measured).
pub fn traffic(prepared: &[Prepared]) -> (usize, usize, usize) {
    prepared.iter().fold((0, 0, 0), |(i, t, n), p| {
        let tr = p.plan.plan().traffic();
        (
            i + tr.index_bytes,
            t + tr.value_bytes + tr.index_bytes + tr.x_gather_bytes,
            n + tr.nnz,
        )
    })
}

/// `(levels, barriers)` of every SymGS sweep (forward plus backward).
pub fn schedule_counts(prepared: &[Prepared]) -> (usize, usize) {
    prepared.iter().fold((0, 0), |(l, b), p| {
        let (f, w) = (p.symgs.forward().plan(), p.symgs.backward().plan());
        (
            l + f.n_levels() + w.n_levels(),
            b + f.n_barriers() + w.n_barriers(),
        )
    })
}
