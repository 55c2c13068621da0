//! Execution backends: where a planned kernel launch actually runs.
//!
//! The framework's upper layers (plan compilation, strategy selection,
//! heterogeneous routing) decide *what* to launch — a kernel over a row
//! subset — and an [`ExecBackend`] decides *where*: on the simulated GPU
//! (functional execution plus architectural pricing) or natively on the
//! CPU worker team. Both backends compute the same `u[r] = Σ A[r,·]·v`
//! for the rows they are handed, so they are interchangeable under one
//! [`crate::plan::SpmvPlan`].

use crate::kernels::cpu::{
    run_plan_tiles, run_plan_tiles_batch, spmv_rows_chunked, spmv_rows_nnz_balanced,
};
use crate::kernels::{run_kernel, KernelId};
use crate::plan::{rhs_blocks, BinDispatch, BinPayload, Tile};
use spmv_gpusim::{GpuDevice, LaunchStats};
use spmv_sparse::{CsrMatrix, DenseBlock, Scalar};
use std::time::{Duration, Instant};

/// What one launch (or an accumulated sequence of launches) cost.
///
/// Simulated launches carry priced [`LaunchStats`]; native launches only
/// have wall time — the two clocks are not comparable, so `stats` is
/// optional rather than zero-filled.
#[derive(Clone, Debug, Default)]
pub struct LaunchCost {
    /// Modelled device cost, when the backend simulates one.
    pub stats: Option<LaunchStats>,
    /// Measured wall time of the launch on the host.
    pub wall: Duration,
}

impl LaunchCost {
    /// Fold another launch into this one: stats accumulate (appearing if
    /// absent), wall times add.
    pub fn accumulate(&mut self, other: &LaunchCost) {
        self.wall += other.wall;
        match (&mut self.stats, &other.stats) {
            (Some(mine), Some(theirs)) => mine.accumulate(theirs),
            (None, Some(theirs)) => self.stats = Some(theirs.clone()),
            _ => {}
        }
    }

    /// Modelled cycles, `0.0` for purely native execution.
    pub fn cycles(&self) -> f64 {
        self.stats.as_ref().map_or(0.0, |s| s.cycles)
    }
}

/// The borrowed compiled tables of one plan, bundled for a backend
/// launch: dispatch entries, payloads, and the fused tile queue with
/// its LPT weights. One bundle instead of four parallel slice
/// arguments — adding a table no longer ripples through every backend
/// signature.
pub struct PlanParts<'a, T: Scalar> {
    /// Dispatch table (one entry per populated bin).
    pub dispatch: &'a [BinDispatch],
    /// Per-bin payloads, aligned with `dispatch`.
    pub payloads: &'a [BinPayload<T>],
    /// The fused tile queue (empty only for an empty dispatch table).
    pub tiles: &'a [Tile],
    /// Per-tile NNZ weights, aligned with `tiles`.
    pub tile_weights: &'a [usize],
}

/// A place kernel launches execute: hands a kernel and a row subset to
/// some substrate and reports what it cost.
///
/// The trait is generic over the scalar at the trait level (not the
/// method level) so `Box<dyn ExecBackend<T>>` is object-safe and a plan
/// can own its backend.
pub trait ExecBackend<T: Scalar>: Send + Sync {
    /// Stable backend name for reports (`"sim-gpu"`, `"native-cpu"`).
    fn name(&self) -> &'static str;

    /// Execute `kernel` over `rows`: `u[r] = Σ_j A[r, j]·v[j]` for each
    /// `r ∈ rows`, other entries of `u` untouched.
    ///
    /// # Panics
    ///
    /// Panics if `v`/`u` lengths don't match the matrix — callers
    /// ([`crate::plan::SpmvPlan::execute`]) validate first.
    fn launch(
        &self,
        a: &CsrMatrix<T>,
        rows: &[u32],
        kernel: KernelId,
        v: &[T],
        u: &mut [T],
    ) -> LaunchCost;

    /// Execute a whole compiled plan: dispatch table, per-bin payloads,
    /// and the fused tile queue.
    ///
    /// The default implementation ignores payloads and tiles
    /// and issues one [`launch`](Self::launch) per bin — semantically
    /// the reference path, and what the simulated GPU keeps (its per-bin
    /// pricing *is* the point). Backends that can exploit the packed
    /// payloads and the single-scope tile queue (the native CPU)
    /// override this.
    fn launch_plan(
        &self,
        a: &CsrMatrix<T>,
        parts: &PlanParts<'_, T>,
        v: &[T],
        u: &mut [T],
    ) -> LaunchCost {
        let mut total = LaunchCost::default();
        for d in parts.dispatch {
            let cost = self.launch(a, &d.rows, d.kernel, v, u);
            total.accumulate(&cost);
        }
        total
    }

    /// Execute a whole compiled plan against a block of `K` right-hand
    /// sides: `y = A · x` for every column of `x` (SpMM).
    ///
    /// The default implementation runs one [`launch_plan`] per column
    /// through scratch vectors — reference semantics at the full
    /// per-column price (no traffic amortization). The native CPU
    /// overrides this with real register-blocked kernels over the
    /// (tile × RHS-block) queue; the simulated GPU overrides the
    /// *pricing*, charging matrix traffic once per RHS block.
    ///
    /// [`launch_plan`]: Self::launch_plan
    fn launch_plan_batch(
        &self,
        a: &CsrMatrix<T>,
        parts: &PlanParts<'_, T>,
        x: &DenseBlock<T>,
        y: &mut DenseBlock<T>,
    ) -> LaunchCost {
        let mut total = LaunchCost::default();
        let mut u = vec![T::ZERO; a.n_rows()];
        for j in 0..x.k() {
            let v = x.column(j);
            let cost = self.launch_plan(a, parts, &v, &mut u);
            y.set_column(j, &u);
            total.accumulate(&cost);
        }
        total
    }
}

/// The trace-driven simulated-GPU backend: kernels execute functionally
/// while being priced on a [`GpuDevice`] model. This is the path every
/// paper figure uses.
#[derive(Clone, Debug)]
pub struct SimGpuBackend {
    device: GpuDevice,
}

impl SimGpuBackend {
    /// Backend pricing launches on `device`.
    pub fn new(device: GpuDevice) -> Self {
        Self { device }
    }

    /// The device model launches are priced on.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }
}

impl<T: Scalar> ExecBackend<T> for SimGpuBackend {
    fn name(&self) -> &'static str {
        "sim-gpu"
    }

    fn launch(
        &self,
        a: &CsrMatrix<T>,
        rows: &[u32],
        kernel: KernelId,
        v: &[T],
        u: &mut [T],
    ) -> LaunchCost {
        let t0 = Instant::now();
        let stats = run_kernel(&self.device, a, rows, kernel, v, u);
        LaunchCost {
            stats: Some(stats),
            wall: t0.elapsed(),
        }
    }

    /// Per-bin launches priced with the index-stream discount: a bin
    /// whose payload moves fewer index bytes than the `nnz × 4` the
    /// functional CSR pricing charged — a packed slab of 16-bit columns,
    /// or a structure-specialized tier whose metadata (run descriptors,
    /// diagonal offsets, one column pattern per row run) replaces
    /// per-element indices — has the saved bytes subtracted from its
    /// modelled traffic (bandwidth-bound kernel times scale down with the
    /// bytes; compute-bound times are left alone).
    /// Execution stays per-bin and functional — only the price changes.
    fn launch_plan(
        &self,
        a: &CsrMatrix<T>,
        parts: &PlanParts<'_, T>,
        v: &[T],
        u: &mut [T],
    ) -> LaunchCost {
        let mut total = LaunchCost::default();
        for (d, p) in parts.dispatch.iter().zip(parts.payloads) {
            let mut cost = self.launch(a, &d.rows, d.kernel, v, u);
            let streamed = match p {
                BinPayload::DenseRun(runs) => Some(runs.index_stream_bytes()),
                BinPayload::Banded(band) => Some(band.index_stream_bytes()),
                BinPayload::RowRun(rr) => Some(rr.index_stream_bytes()),
                // One column per slot at the slab's width: padding can
                // outweigh the 16-bit saving, and a 32-bit slab never
                // streams fewer than the nnz × 4 already charged.
                BinPayload::Packed(packed) => Some(packed.index_stream_bytes()),
                BinPayload::Csr | BinPayload::Blocked { .. } => None,
            };
            if let Some(bytes) = streamed {
                let saved = (d.nnz * std::mem::size_of::<u32>()).saturating_sub(bytes);
                if saved > 0 {
                    if let Some(stats) = &mut cost.stats {
                        stats.discount_traffic(saved as f64);
                    }
                }
            }
            total.accumulate(&cost);
        }
        total
    }

    /// Batched launches priced with matrix-traffic amortization: the
    /// matrix stream (column indices + values + row pointer) is charged
    /// in full for the **first** column of each RHS block and subtracted
    /// from the follow-up columns of the block — a batched kernel keeps
    /// the gathered element in registers and re-uses it across the
    /// block's x-lanes, so only the vector traffic repeats. Execution
    /// stays per-column (functionally identical to the default path);
    /// only the price changes. Bandwidth-bound kernel times scale with
    /// the removed bytes; compute-bound times are left alone.
    fn launch_plan_batch(
        &self,
        a: &CsrMatrix<T>,
        parts: &PlanParts<'_, T>,
        x: &DenseBlock<T>,
        y: &mut DenseBlock<T>,
    ) -> LaunchCost {
        // The analytic matrix stream of one full traversal: one u32
        // column index and one value per non-zero, plus the row pointer.
        let matrix_bytes = (a.nnz() * (std::mem::size_of::<u32>() + T::BYTES)
            + (a.n_rows() + 1) * std::mem::size_of::<usize>()) as f64;
        let mut total = LaunchCost::default();
        let mut u = vec![T::ZERO; a.n_rows()];
        for (c0, width) in rhs_blocks(x.k()) {
            for kk in 0..width {
                let v = x.column(c0 + kk);
                let mut cost = self.launch_plan(a, parts, &v, &mut u);
                y.set_column(c0 + kk, &u);
                if kk > 0 {
                    if let Some(stats) = &mut cost.stats {
                        stats.discount_traffic(matrix_bytes);
                    }
                }
                total.accumulate(&cost);
            }
        }
        total
    }
}

/// The native multithreaded CPU backend on the `spmv-parallel` worker team.
///
/// A compiled plan runs on one executor for SpMV and SpMM
/// ([`launch_plan`](ExecBackend::launch_plan) and
/// [`launch_plan_batch`](ExecBackend::launch_plan_batch)): a drain over
/// the plan's (tile × RHS-block) work items in which each bin's payload
/// picks the kernel body. The bin's [`KernelId`] plays no part there.
///
/// [`launch`](ExecBackend::launch), the one-bin path that `run_hetero`
/// uses, maps [`KernelId`]s onto the two CPU scheduling disciplines
/// rather than emulating them thread-for-thread:
///
/// * `Serial` (one work-item per row) → row-chunked dynamic scheduling —
///   the same "cheap on uniform short rows" trade-off;
/// * `Subvector(_)` / `Vector` (cooperative rows) → NNZ-balanced
///   partitioning of the bin's row list — the CPU's answer to long-row
///   load imbalance.
///
/// A default backend runs the fused paths on the process worker count,
/// [`spmv_parallel::num_threads`] (`SPMV_THREADS=N` caps it);
/// [`with_workers`](Self::with_workers) caps it further in code.
#[derive(Clone, Debug, Default)]
pub struct NativeCpuBackend {
    /// Worker cap for the fused paths (`0` = process default).
    workers: usize,
}

/// Rows per scheduling chunk for the row-chunked (`Serial`) path.
const GRAIN: usize = 256;

/// Partitions per worker for the NNZ-balanced path.
const PARTS_PER_WORKER: usize = 4;

impl NativeCpuBackend {
    /// Backend with the default scheduling parameters.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cap the worker count of the fused single-scope paths (`0` restores
    /// the process default). The process worker count is frozen at first
    /// use, so thread-scaling sweeps go through this knob rather than the
    /// environment.
    pub fn with_workers(mut self, workers: usize) -> Self {
        self.workers = workers;
        self
    }
}

impl<T: Scalar> ExecBackend<T> for NativeCpuBackend {
    fn name(&self) -> &'static str {
        "native-cpu"
    }

    /// Runs `kernel`'s CPU discipline over `rows`.
    ///
    /// # Panics
    ///
    /// Panics if `v`/`u` lengths don't match the matrix, or if `rows`
    /// names a row twice or a row id `>= n_rows`: two workers would
    /// write one output element.
    fn launch(
        &self,
        a: &CsrMatrix<T>,
        rows: &[u32],
        kernel: KernelId,
        v: &[T],
        u: &mut [T],
    ) -> LaunchCost {
        let t0 = Instant::now();
        let result = match kernel {
            KernelId::Serial => spmv_rows_chunked(a, rows, GRAIN, v, u),
            KernelId::Subvector(_) | KernelId::Vector => {
                let parts = spmv_parallel::num_threads() * PARTS_PER_WORKER;
                spmv_rows_nnz_balanced(a, rows, parts, v, u)
            }
        };
        result.unwrap_or_else(|e| panic!("native launch: {e}"));
        LaunchCost {
            stats: None,
            wall: t0.elapsed(),
        }
    }

    /// The plan executor at `K = 1`: one parallel region over the
    /// precompiled tile queue, workers stealing across bins, each tile
    /// running its bin's kernel body over a stride-1 view of `v`.
    fn launch_plan(
        &self,
        a: &CsrMatrix<T>,
        parts: &PlanParts<'_, T>,
        v: &[T],
        u: &mut [T],
    ) -> LaunchCost {
        let t0 = Instant::now();
        run_plan_tiles(a, parts, self.workers, v, u).expect("plan validated dimensions");
        LaunchCost {
            stats: None,
            wall: t0.elapsed(),
        }
    }

    /// The plan executor over the (tile × RHS-block) work queue:
    /// register-blocked kernel bodies, so one matrix traversal pays for
    /// a whole RHS block.
    fn launch_plan_batch(
        &self,
        a: &CsrMatrix<T>,
        parts: &PlanParts<'_, T>,
        x: &DenseBlock<T>,
        y: &mut DenseBlock<T>,
    ) -> LaunchCost {
        let t0 = Instant::now();
        run_plan_tiles_batch(a, parts, self.workers, x, y).expect("plan validated dimensions");
        LaunchCost {
            stats: None,
            wall: t0.elapsed(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::kernels::ALL_KERNELS;
    use spmv_sparse::gen;
    use spmv_sparse::gen::mixture::RowRegime;
    use spmv_sparse::scalar::approx_eq;

    fn probe() -> CsrMatrix<f64> {
        gen::mixture(
            600,
            800,
            &[
                RowRegime::new(1, 3, 0.5),
                RowRegime::new(20, 80, 0.4),
                RowRegime::new(200, 400, 0.1),
            ],
            true,
            11,
        )
    }

    #[test]
    fn backends_agree_with_reference_on_every_kernel() {
        let a = probe();
        let v: Vec<f64> = (0..a.n_cols()).map(|i| ((i % 9) as f64) - 4.0).collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let rows: Vec<u32> = (0..a.n_rows() as u32).collect();
        let sim = SimGpuBackend::new(GpuDevice::kaveri());
        let cpu = NativeCpuBackend::new();
        for k in ALL_KERNELS {
            for (name, backend) in [("sim", &sim as &dyn ExecBackend<f64>), ("cpu", &cpu)] {
                let mut u = vec![0.0f64; a.n_rows()];
                backend.launch(&a, &rows, k, &v, &mut u);
                for i in 0..a.n_rows() {
                    assert!(
                        approx_eq(u[i], reference[i], a.row_nnz(i).max(1)),
                        "{name}/{k} row {i}: {} vs {}",
                        u[i],
                        reference[i]
                    );
                }
            }
        }
    }

    #[test]
    fn backends_only_touch_requested_rows() {
        let a = probe();
        let v = vec![1.0f64; a.n_cols()];
        let subset: Vec<u32> = (0..a.n_rows() as u32).step_by(3).collect();
        let sim = SimGpuBackend::new(GpuDevice::kaveri());
        let cpu = NativeCpuBackend::new();
        for backend in [&sim as &dyn ExecBackend<f64>, &cpu] {
            let mut u = vec![f64::NAN; a.n_rows()];
            backend.launch(&a, &subset, KernelId::Subvector(8), &v, &mut u);
            for (i, &x) in u.iter().enumerate() {
                if subset.contains(&(i as u32)) {
                    assert!(!x.is_nan(), "{} skipped row {i}", backend.name());
                } else {
                    assert!(x.is_nan(), "{} touched row {i}", backend.name());
                }
            }
        }
    }

    #[test]
    #[should_panic(expected = "listed twice")]
    fn native_launch_panics_on_a_repeated_row() {
        let a = probe();
        let v = vec![1.0f64; a.n_cols()];
        let mut u = vec![0.0f64; a.n_rows()];
        NativeCpuBackend::new().launch(&a, &[0, 0], KernelId::Serial, &v, &mut u);
    }

    #[test]
    fn sim_backend_prices_native_does_not() {
        let a = probe();
        let v = vec![1.0f64; a.n_cols()];
        let rows: Vec<u32> = (0..a.n_rows() as u32).collect();
        let mut u = vec![0.0f64; a.n_rows()];
        let sim_cost =
            SimGpuBackend::new(GpuDevice::kaveri()).launch(&a, &rows, KernelId::Serial, &v, &mut u);
        assert!(sim_cost.stats.is_some());
        assert!(sim_cost.cycles() > 0.0);
        let cpu_cost = NativeCpuBackend::new().launch(&a, &rows, KernelId::Serial, &v, &mut u);
        assert!(cpu_cost.stats.is_none());
        assert_eq!(cpu_cost.cycles(), 0.0);
    }

    #[test]
    fn default_backend_leaves_the_worker_cap_to_the_process() {
        // `SPMV_THREADS` is applied once, inside `num_threads`; the
        // backend adds no cap of its own unless `with_workers` sets one.
        assert_eq!(NativeCpuBackend::default().workers, 0);
        assert_eq!(NativeCpuBackend::new().with_workers(3).workers, 3);
    }

    #[test]
    fn launch_cost_accumulates_both_clocks() {
        let stats = LaunchStats {
            cycles: 10.0,
            workgroups: 2,
            ..Default::default()
        };
        let mut total = LaunchCost {
            stats: None,
            wall: Duration::from_millis(1),
        };
        total.accumulate(&LaunchCost {
            stats: Some(stats.clone()),
            wall: Duration::from_millis(2),
        });
        total.accumulate(&LaunchCost {
            stats: Some(stats),
            wall: Duration::from_millis(3),
        });
        assert_eq!(total.wall, Duration::from_millis(6));
        assert_eq!(total.cycles(), 20.0);
        assert_eq!(total.stats.as_ref().unwrap().workgroups, 4);
    }
}
