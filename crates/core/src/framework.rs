//! The end-to-end runtime (Figure 3): extract features → predict a
//! strategy with the trained rule-sets → bin → launch the selected kernel
//! per bin.
//!
//! All execution flows through the plan/execute split:
//! [`AutoSpmv::plan`] compiles a [`SpmvPlan`] once per sparsity pattern
//! and iterative callers execute it repeatedly; the one-shot entry points
//! ([`run_strategy`], [`run_single_kernel`], [`AutoSpmv::run`]) are thin
//! wrappers that compile a throwaway plan and execute it once.

use crate::exec::{ExecBackend, LaunchCost, NativeCpuBackend, SimGpuBackend};
use crate::kernels::KernelId;
use crate::plan::SpmvPlan;
use crate::strategy::Strategy;
use crate::training::TrainedModel;
use crate::tuner::Tuner;
use spmv_gpusim::{GpuDevice, LaunchStats};
use spmv_sparse::{CsrMatrix, MatrixFeatures, Scalar};

/// Execute an explicit [`Strategy`] on the simulated device: one kernel
/// launch per populated bin, costs accumulated.
///
/// One-shot convenience over [`SpmvPlan`] — compiles and executes a plan
/// in one call. Iterative callers should compile once and reuse.
pub fn run_strategy<T: Scalar>(
    device: &GpuDevice,
    a: &CsrMatrix<T>,
    strategy: &Strategy,
    v: &[T],
    u: &mut [T],
) -> LaunchStats {
    let plan = SpmvPlan::compile(
        a,
        strategy.clone(),
        Box::new(SimGpuBackend::new(device.clone())),
    );
    let cost = plan
        .execute(a, v, u)
        .expect("plan compiled for this matrix");
    cost.stats.unwrap_or_default()
}

/// The "default SpMV using only one single kernel" of Figure 6: all rows
/// in one bin, one launch.
pub fn run_single_kernel<T: Scalar>(
    device: &GpuDevice,
    a: &CsrMatrix<T>,
    kernel: KernelId,
    v: &[T],
    u: &mut [T],
) -> LaunchStats {
    run_strategy(device, a, &Strategy::single_kernel(kernel), v, u)
}

/// How [`AutoSpmv`] picks strategies.
pub enum Selector {
    /// Exhaustive search at run time (the oracle; expensive but optimal
    /// within the search space).
    Oracle(Tuner),
    /// The paper's approach: one prediction pass through the two-stage
    /// trained model.
    Model(TrainedModel),
}

/// The auto-tuned SpMV runtime.
pub struct AutoSpmv {
    device: GpuDevice,
    selector: Selector,
}

/// What [`AutoSpmv::run`] produces besides the output vector.
#[derive(Clone, Debug)]
pub struct AutoRunReport {
    /// The strategy that was executed.
    pub strategy: Strategy,
    /// Accumulated cost of every bin launch.
    pub stats: LaunchStats,
    /// The features extracted for prediction.
    pub features: MatrixFeatures,
}

impl AutoSpmv {
    /// Auto-tuner that runs the oracle search per matrix.
    pub fn with_oracle(device: GpuDevice) -> Self {
        Self {
            selector: Selector::Oracle(Tuner::new(device.clone())),
            device,
        }
    }

    /// Auto-tuner driven by an explicitly configured oracle tuner (e.g.
    /// a reduced search space for interactive use).
    pub fn with_tuner(tuner: Tuner) -> Self {
        Self {
            device: tuner.device().clone(),
            selector: Selector::Oracle(tuner),
        }
    }

    /// Auto-tuner driven by a trained model (the paper's deployment
    /// mode).
    pub fn with_model(device: GpuDevice, model: TrainedModel) -> Self {
        Self {
            device,
            selector: Selector::Model(model),
        }
    }

    /// The device launches are priced on.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Pick a strategy for `a` without executing it.
    pub fn select<T: Scalar>(&self, a: &CsrMatrix<T>) -> Strategy {
        match &self.selector {
            Selector::Oracle(tuner) => tuner.tune(a).strategy,
            Selector::Model(model) => model.predict_strategy(a),
        }
    }

    /// Compile a plan for `a` on the simulated GPU: select a strategy,
    /// freeze features and bins, and return a reusable [`SpmvPlan`].
    /// The intended entry point for iterative solvers.
    pub fn plan<T: Scalar>(&self, a: &CsrMatrix<T>) -> SpmvPlan<T> {
        self.plan_on(a, Box::new(SimGpuBackend::new(self.device.clone())))
    }

    /// Compile a plan executing natively on the CPU worker team (same
    /// strategy selection; launches run real multithreaded kernels).
    pub fn plan_native<T: Scalar>(&self, a: &CsrMatrix<T>) -> SpmvPlan<T> {
        self.plan_on(a, Box::new(NativeCpuBackend::new()))
    }

    /// Compile a plan on an explicit backend.
    pub fn plan_on<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        backend: Box<dyn ExecBackend<T>>,
    ) -> SpmvPlan<T> {
        SpmvPlan::compile(a, self.select(a), backend)
    }

    /// Full pipeline: select, bin, execute, report. One-shot wrapper
    /// over [`AutoSpmv::plan`] — iterative callers should plan once.
    pub fn run<T: Scalar>(&self, a: &CsrMatrix<T>, v: &[T], u: &mut [T]) -> AutoRunReport {
        let plan = self.plan(a);
        let cost = plan
            .execute(a, v, u)
            .expect("plan compiled for this matrix");
        AutoRunReport {
            strategy: plan.strategy().clone(),
            stats: cost.stats.unwrap_or_default(),
            features: plan.features().clone(),
        }
    }
}

/// Heterogeneous-scheduling sketch (§VI, future work): bins whose rows
/// carry little work are routed to the native CPU backend while heavy
/// bins stay on the simulated GPU. Returns the GPU launch cost and the
/// measured CPU wall time separately — they run on different clocks and
/// the paper leaves their overlap to future work.
///
/// Both sides go through [`ExecBackend::launch`] with the strategy's
/// kernel for each bin, so CPU-routed bins get the same strategy-aware,
/// multithreaded treatment as GPU-routed ones.
pub fn run_hetero<T: Scalar>(
    device: &GpuDevice,
    a: &CsrMatrix<T>,
    strategy: &Strategy,
    cpu_bin_nnz_limit: usize,
    v: &[T],
    u: &mut [T],
) -> (LaunchStats, std::time::Duration) {
    let gpu_backend = SimGpuBackend::new(device.clone());
    let cpu_backend = NativeCpuBackend::new();
    let bins = crate::binning::bin_matrix(a, strategy.binning);
    let mut gpu = LaunchCost::default();
    let mut cpu = LaunchCost::default();
    for (bin_id, rows, nnz) in crate::plan::expand_populated(a, &bins) {
        let kernel = strategy.kernel_for(bin_id);
        if nnz <= cpu_bin_nnz_limit {
            cpu.accumulate(&cpu_backend.launch(a, &rows, kernel, v, u));
        } else {
            gpu.accumulate(&gpu_backend.launch(a, &rows, kernel, v, u));
        }
    }
    (gpu.stats.unwrap_or_default(), cpu.wall)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::binning::BinningScheme;
    use crate::kernels::ALL_KERNELS;
    use crate::tuner::TunerConfig;
    use spmv_sparse::gen;
    use spmv_sparse::gen::mixture::RowRegime;
    use spmv_sparse::scalar::approx_eq;

    fn irregular() -> CsrMatrix<f32> {
        gen::mixture(
            2500,
            4000,
            &[
                RowRegime::new(1, 3, 0.6),
                RowRegime::new(20, 60, 0.3),
                RowRegime::new(400, 800, 0.1),
            ],
            true,
            31,
        )
    }

    #[test]
    fn run_strategy_computes_correct_result() {
        let a = irregular();
        let v: Vec<f32> = (0..a.n_cols()).map(|i| (i % 5) as f32).collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let device = GpuDevice::kaveri();
        let tuner = Tuner::with_config(
            device.clone(),
            TunerConfig {
                granularities: vec![10, 100],
                kernels: ALL_KERNELS.to_vec(),
                include_single_bin: false,
            },
        );
        let tuned = tuner.tune(&a);
        let mut u = vec![0.0f32; a.n_rows()];
        let stats = run_strategy(&device, &a, &tuned.strategy, &v, &mut u);
        assert!(stats.cycles > 0.0);
        for i in 0..a.n_rows() {
            assert!(approx_eq(u[i], reference[i], a.row_nnz(i)), "row {i}");
        }
    }

    #[test]
    fn oracle_auto_beats_both_default_kernels() {
        // The Figure 6 claim, at small scale: kernel-auto is never worse
        // than kernel-serial or kernel-vector on an irregular matrix.
        let a = irregular();
        let v = vec![1.0f32; a.n_cols()];
        let device = GpuDevice::kaveri();
        let auto = AutoSpmv::with_oracle(device.clone());
        let mut u = vec![0.0f32; a.n_rows()];
        let report = auto.run(&a, &v, &mut u);
        let mut u2 = vec![0.0f32; a.n_rows()];
        let serial = run_single_kernel(&device, &a, KernelId::Serial, &v, &mut u2);
        let vector = run_single_kernel(&device, &a, KernelId::Vector, &v, &mut u2);
        assert!(
            report.stats.cycles <= serial.cycles,
            "auto {} !<= serial {}",
            report.stats.cycles,
            serial.cycles
        );
        assert!(
            report.stats.cycles <= vector.cycles,
            "auto {} !<= vector {}",
            report.stats.cycles,
            vector.cycles
        );
    }

    #[test]
    fn single_kernel_runner_matches_reference() {
        let a = irregular();
        let v = vec![0.5f32; a.n_cols()];
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let device = GpuDevice::kaveri();
        for k in ALL_KERNELS {
            let mut u = vec![0.0f32; a.n_rows()];
            run_single_kernel(&device, &a, k, &v, &mut u);
            for i in 0..a.n_rows() {
                assert!(approx_eq(u[i], reference[i], a.row_nnz(i)), "{k} row {i}");
            }
        }
    }

    #[test]
    fn hetero_split_computes_correct_result() {
        let a = irregular();
        let v: Vec<f32> = (0..a.n_cols()).map(|i| ((i % 3) as f32) - 1.0).collect();
        let reference = a.spmv_seq_alloc(&v).unwrap();
        let device = GpuDevice::kaveri();
        let strategy = Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Serial; 100],
        };
        let mut u = vec![0.0f32; a.n_rows()];
        let (gpu, cpu_time) = run_hetero(&device, &a, &strategy, 5_000, &v, &mut u);
        let _ = cpu_time;
        for i in 0..a.n_rows() {
            assert!(approx_eq(u[i], reference[i], a.row_nnz(i)), "row {i}");
        }
        // Some bins must have stayed on the GPU (the long-row bins).
        assert!(gpu.workgroups > 0);
    }

    #[test]
    fn report_carries_features_and_strategy() {
        let a = irregular();
        let v = vec![1.0f32; a.n_cols()];
        let auto = AutoSpmv::with_oracle(GpuDevice::kaveri());
        let mut u = vec![0.0f32; a.n_rows()];
        let report = auto.run(&a, &v, &mut u);
        assert_eq!(report.features.m, a.n_rows());
        assert!(!report.strategy.kernels.is_empty());
    }
}
