//! The benchmark's own baseline kernels: a plain row-split CSR SpMV and
//! SpMM on the program's default worker count (one scoped thread per
//! worker, spawned per call, rows cut at equal non-zero shares) and a
//! textbook level-scheduled symmetric Gauss-Seidel sweep on the same
//! workers, one barrier per schedule step.
//!
//! They live in the benchmark, not in the program, so they stay the same
//! while the program changes. The solve metrics are the program's speed
//! relative to them, each program call timed right after the baseline
//! call on the same matrix: a change of host speed that lasts longer than
//! the call pair (CPU steal, a neighbour's memory traffic) slows both and
//! cancels out of the ratio.

use spmv_sparse::CsrMatrix;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::Barrier;

/// Row boundaries that cut `a` into `workers` ranges of about equal
/// non-zero count.
pub fn split(a: &CsrMatrix<f32>, workers: usize) -> Vec<usize> {
    let workers = workers.max(1);
    let rp = a.row_ptr();
    let mut cuts = vec![0];
    for w in 1..workers {
        let target = a.nnz() * w / workers;
        let row = rp.partition_point(|&p| p < target).min(a.n_rows());
        cuts.push(row.max(*cuts.last().unwrap_or(&0)));
    }
    cuts.push(a.n_rows());
    cuts
}

/// Run `body(first_row, rows_out)` on each range of `cuts`, the last on
/// the calling thread; `out` holds `width` outputs per row.
fn rows_parallel<F>(cuts: &[usize], width: usize, out: &mut [f32], body: F)
where
    F: Fn(usize, &mut [f32]) + Sync,
{
    std::thread::scope(|scope| {
        let mut rest = out;
        let ranges = cuts.windows(2).count();
        for (r, w) in cuts.windows(2).enumerate() {
            let (mine, tail) = std::mem::take(&mut rest).split_at_mut((w[1] - w[0]) * width);
            rest = tail;
            let body = &body;
            if r + 1 == ranges {
                body(w[0], mine);
            } else {
                scope.spawn(move || body(w[0], mine));
            }
        }
    });
}

/// `y = A x`, one plain CSR row loop per range.
pub fn spmv(a: &CsrMatrix<f32>, cuts: &[usize], x: &[f32], y: &mut [f32]) {
    let (rp, ci, v) = (a.row_ptr(), a.col_idx(), a.values());
    rows_parallel(cuts, 1, y, |first, ys| {
        for (r, yi) in ys.iter_mut().enumerate() {
            let i = first + r;
            let mut acc = 0.0f32;
            for k in rp[i]..rp[i + 1] {
                acc += v[k] * x[ci[k] as usize];
            }
            *yi = acc;
        }
    });
}

/// `Y = A X` for `k` right-hand sides stored row-major with stride `k`.
pub fn spmm(a: &CsrMatrix<f32>, cuts: &[usize], k: usize, x: &[f32], y: &mut [f32]) {
    let (rp, ci, v) = (a.row_ptr(), a.col_idx(), a.values());
    rows_parallel(cuts, k, y, |first, ys| {
        for (r, yr) in ys.chunks_exact_mut(k).enumerate() {
            let i = first + r;
            yr.fill(0.0);
            for p in rp[i]..rp[i + 1] {
                let xr = &x[ci[p] as usize * k..][..k];
                for (yj, xj) in yr.iter_mut().zip(xr) {
                    *yj += v[p] * xj;
                }
            }
        }
    });
}

/// Levels narrower than this many rows per worker are merged with their
/// neighbours into one serial step run by a single worker.
const ROWS_PER_WORKER: usize = 4;

/// A textbook level schedule of one triangular solve: rows grouped by
/// dependency level, in level order; levels of at least
/// [`ROWS_PER_WORKER`] rows per worker become parallel steps, runs of
/// narrower ones merge into serial steps. Every step ends in a barrier.
pub struct Levels {
    rows: Vec<u32>,
    /// `(end in rows, parallel)` per step; a step starts where the
    /// previous one ended.
    steps: Vec<(usize, bool)>,
}

impl Levels {
    /// The schedule of the lower (`forward`) or upper triangle of `a`.
    pub fn new(a: &CsrMatrix<f32>, forward: bool, workers: usize) -> Self {
        let (rp, ci) = (a.row_ptr(), a.col_idx());
        let n = a.n_rows();
        let mut level = vec![0usize; n];
        let order: Box<dyn Iterator<Item = usize>> = if forward {
            Box::new(0..n)
        } else {
            Box::new((0..n).rev())
        };
        for i in order {
            level[i] = (rp[i]..rp[i + 1])
                .map(|k| ci[k] as usize)
                .filter(|&c| if forward { c < i } else { c > i })
                .map(|c| level[c] + 1)
                .max()
                .unwrap_or(0);
        }
        let depth = level.iter().max().map_or(0, |l| l + 1);
        let mut by_level = vec![Vec::new(); depth];
        for (i, &l) in level.iter().enumerate() {
            by_level[l].push(i as u32);
        }
        let wide = ROWS_PER_WORKER * workers.max(1);
        let (mut rows, mut steps) = (Vec::with_capacity(n), Vec::new());
        for l in by_level {
            let parallel = l.len() >= wide;
            if parallel && rows.len() > steps.last().map_or(0, |s: &(usize, bool)| s.0) {
                steps.push((rows.len(), false));
            }
            rows.extend(l);
            if parallel {
                steps.push((rows.len(), true));
            }
        }
        if rows.len() > steps.last().map_or(0, |s| s.0) {
            steps.push((rows.len(), false));
        }
        Self { rows, steps }
    }
}

fn load(v: &[AtomicU32], i: usize) -> f32 {
    f32::from_bits(v[i].load(Ordering::Relaxed))
}

fn store(v: &[AtomicU32], i: usize, x: f32) {
    v[i].store(x.to_bits(), Ordering::Relaxed);
}

/// One symmetric Gauss-Seidel sweep of `A x = b` in place on `workers`
/// scoped threads: per direction, the residual `r = b - (strict other
/// triangle) x` over all rows in one parallel step, then the triangular
/// solve along the level schedule. `A` is square with a non-zero
/// diagonal; `r` is scratch of the same length as `x`.
pub fn symgs(
    a: &CsrMatrix<f32>,
    sweeps: &[Levels; 2],
    workers: usize,
    b: &[f32],
    x: &[AtomicU32],
    r: &[AtomicU32],
) {
    let (rp, ci, v) = (a.row_ptr(), a.col_idx(), a.values());
    let n = a.n_rows();
    let workers = workers.max(1);
    let barrier = Barrier::new(workers);
    let work = |role: usize| {
        for (sweep, forward) in sweeps.iter().zip([true, false]) {
            // Residual over the triangle the solve does not read.
            for i in (n * role / workers)..(n * (role + 1) / workers) {
                let mut acc = b[i];
                for k in rp[i]..rp[i + 1] {
                    let c = ci[k] as usize;
                    if (forward && c > i) || (!forward && c < i) {
                        acc -= v[k] * load(x, c);
                    }
                }
                store(r, i, acc);
            }
            barrier.wait();
            let mut start = 0;
            for &(end, parallel) in &sweep.steps {
                let rows = &sweep.rows[start..end];
                start = end;
                let mine = if parallel {
                    &rows[rows.len() * role / workers..rows.len() * (role + 1) / workers]
                } else if role == 0 {
                    rows
                } else {
                    &rows[..0]
                };
                for &i in mine {
                    let i = i as usize;
                    let (mut acc, mut diag) = (load(r, i), 1.0f32);
                    for k in rp[i]..rp[i + 1] {
                        let c = ci[k] as usize;
                        if c == i {
                            diag = v[k];
                        } else if (forward && c < i) || (!forward && c > i) {
                            acc -= v[k] * load(x, c);
                        }
                    }
                    store(x, i, acc / diag);
                }
                barrier.wait();
            }
        }
    };
    std::thread::scope(|scope| {
        for role in 1..workers {
            let work = &work;
            scope.spawn(move || work(role));
        }
        work(0);
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::{symgs_companion, vector};
    use spmv_sparse::gen;
    use spmv_sparse::solve::symgs_seq;

    /// Equal up to rounding: the references may fuse multiply-adds.
    fn close(got: &[f32], want: &[f32]) -> bool {
        got.len() == want.len()
            && got
                .iter()
                .zip(want)
                .all(|(g, w)| (g - w).abs() <= 1e-4 * w.abs().max(1.0))
    }

    #[test]
    fn baselines_compute_what_the_sequential_references_do() {
        let a = symgs_companion(&gen::road_network(40, 40, 0.7, 5));
        let x = vector(a.n_cols(), 1);
        for workers in [1, 2, 3] {
            let cuts = split(&a, workers);
            let mut y = vec![f32::NAN; a.n_rows()];
            spmv(&a, &cuts, &x, &mut y);
            assert!(close(&y, &a.spmv_seq_alloc(&x).unwrap()));

            let k = 3;
            let xb: Vec<f32> = (0..a.n_cols() * k).map(|i| (i % 7) as f32).collect();
            let mut yb = vec![f32::NAN; a.n_rows() * k];
            spmm(&a, &cuts, k, &xb, &mut yb);
            for j in 0..k {
                let col: Vec<f32> = (0..a.n_cols()).map(|i| xb[i * k + j]).collect();
                let want = a.spmv_seq_alloc(&col).unwrap();
                let got: Vec<f32> = (0..a.n_rows()).map(|i| yb[i * k + j]).collect();
                assert!(close(&got, &want));
            }

            let b = vector(a.n_rows(), 9);
            let mut want = vec![0.25f32; a.n_rows()];
            symgs_seq(&a, &b, &mut want).unwrap();
            let sweeps = [
                Levels::new(&a, true, workers),
                Levels::new(&a, false, workers),
            ];
            let xs: Vec<AtomicU32> = (0..a.n_rows())
                .map(|_| AtomicU32::new(0.25f32.to_bits()))
                .collect();
            let r: Vec<AtomicU32> = (0..a.n_rows()).map(|_| AtomicU32::new(0)).collect();
            symgs(&a, &sweeps, workers, &b, &xs, &r);
            for (i, w) in want.iter().enumerate() {
                assert!(
                    (load(&xs, i) - w).abs() <= 1e-4 * w.abs().max(1.0),
                    "row {i}"
                );
            }
        }
    }
}
