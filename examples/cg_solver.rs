//! Conjugate-gradient solver on the auto-tuned SpMV (CPU backend).
//!
//! SpMV dominates CG iterations, so this example shows the intended
//! plan/execute usage: compile one [`SpmvPlan`] on the native CPU
//! backend up front, then execute it allocation-free inside the solver
//! loop. It solves a 2-D Poisson problem and verifies the residual
//! actually converges. Run with `cargo run --release --example cg_solver`.

use spmv_repro::autotune::prelude::*;
use spmv_repro::sparse::gen::laplacian_2d;
use spmv_repro::sparse::CsrMatrix;

/// Solve `A x = b` by conjugate gradients over a compiled plan; returns
/// (solution, residual history).
fn conjugate_gradient(
    a: &CsrMatrix<f64>,
    plan: &SpmvPlan<f64>,
    b: &[f64],
    max_iters: usize,
    tol: f64,
) -> (Vec<f64>, Vec<f64>) {
    let n = a.n_rows();
    let mut x = vec![0.0f64; n];
    let mut r = b.to_vec();
    let mut p = r.clone();
    let mut ap = vec![0.0f64; n];
    let dot = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
    let mut rs_old = dot(&r, &r);
    let mut history = vec![rs_old.sqrt()];
    for _ in 0..max_iters {
        plan.execute(a, &p, &mut ap).expect("pattern unchanged");
        let alpha = rs_old / dot(&p, &ap);
        for i in 0..n {
            x[i] += alpha * p[i];
            r[i] -= alpha * ap[i];
        }
        let rs_new = dot(&r, &r);
        history.push(rs_new.sqrt());
        if rs_new.sqrt() < tol {
            break;
        }
        let beta = rs_new / rs_old;
        for i in 0..n {
            p[i] = r[i] + beta * p[i];
        }
        rs_old = rs_new;
    }
    (x, history)
}

fn main() {
    let (gx, gy) = (120usize, 120usize);
    let a = laplacian_2d::<f64>(gx, gy);
    println!(
        "2-D Poisson operator: {} unknowns, {} nnz",
        a.n_rows(),
        a.nnz()
    );

    // Plan once: select a strategy with a reduced oracle search, freeze
    // the binning, and target the native CPU worker team. Every CG
    // iteration below reuses this plan with zero re-tuning.
    let device = GpuDevice::kaveri();
    let tuner = Tuner::with_config(
        device,
        TunerConfig {
            granularities: vec![100, 1_000],
            kernels: ALL_KERNELS.to_vec(),
            include_single_bin: true,
        },
    );
    let auto = AutoSpmv::with_tuner(tuner);
    let t_plan = std::time::Instant::now();
    let plan = auto.plan_native(&a);
    println!(
        "plan: {} on {} ({} launches/apply), compiled in {:.1?}",
        plan.strategy().describe(),
        plan.backend_name(),
        plan.launches(),
        t_plan.elapsed()
    );

    // Manufactured solution: x* = 1 everywhere → b = A·1.
    let x_star = vec![1.0f64; a.n_rows()];
    let b = a.spmv_seq_alloc(&x_star).unwrap();

    let t0 = std::time::Instant::now();
    let (x, history) = conjugate_gradient(&a, &plan, &b, 2_000, 1e-10);
    let elapsed = t0.elapsed();

    let err = x
        .iter()
        .zip(&x_star)
        .map(|(a, b)| (a - b).abs())
        .fold(0.0f64, f64::max);
    println!(
        "converged in {} iterations, {:.1?} (residual {:.2e})",
        history.len() - 1,
        elapsed,
        history.last().unwrap()
    );
    println!("max |x - x*| = {err:.2e}");
    for (i, r) in history.iter().enumerate().step_by(history.len() / 10 + 1) {
        println!("  iter {i:>5}: residual {r:.3e}");
    }
    assert!(err < 1e-6, "CG failed to converge");
    println!("\nCG solved the system through one compiled SpMV plan.");
}
