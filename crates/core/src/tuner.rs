//! The exhaustive oracle tuner: for every candidate binning granularity,
//! bin the matrix, try every kernel on every populated bin, and keep the
//! cheapest combination. This is the ground truth the machine-learning
//! model is trained to imitate (§III-C's off-line "train process").

use crate::binning::{bin_matrix, BinningScheme};
use crate::kernels::{run_kernel, KernelId, ALL_KERNELS};
use crate::strategy::Strategy;
use spmv_gpusim::{GpuDevice, LaunchStats};
use spmv_parallel::parallel_map_collect;
use spmv_sparse::{CsrMatrix, Scalar};

/// Tuner search space.
#[derive(Clone, Debug)]
pub struct TunerConfig {
    /// Candidate coarse granularities `U` (default: the paper's presets
    /// 10, 20, 50, …, 10^6).
    pub granularities: Vec<usize>,
    /// Kernel pool (default: all nine).
    pub kernels: Vec<KernelId>,
    /// Also evaluate the single-bin strategy (§IV-C; the paper lists
    /// this as future work — on by default here as our extension).
    pub include_single_bin: bool,
}

impl Default for TunerConfig {
    fn default() -> Self {
        Self {
            granularities: BinningScheme::paper_granularities(),
            kernels: ALL_KERNELS.to_vec(),
            include_single_bin: true,
        }
    }
}

impl TunerConfig {
    /// A reduced search space for corpus-scale training runs: decade
    /// granularities only, all kernels, no single-bin (the paper's
    /// stage-1 label space).
    pub fn training() -> Self {
        Self {
            granularities: vec![10, 100, 1_000, 10_000, 100_000, 1_000_000],
            kernels: ALL_KERNELS.to_vec(),
            include_single_bin: false,
        }
    }

    /// Paper-faithful space (no single-bin candidate), used for the
    /// Figure 9 discussion.
    pub fn paper() -> Self {
        Self {
            include_single_bin: false,
            ..Default::default()
        }
    }
}

/// Chosen kernel and cost of one bin under one scheme.
#[derive(Clone, Debug)]
pub struct BinChoice {
    /// Bin id.
    pub bin_id: usize,
    /// Rows the bin expands to.
    pub rows: usize,
    /// Non-zeros covered by the bin.
    pub nnz: usize,
    /// Winning kernel.
    pub kernel: KernelId,
    /// Priced launch of the winning kernel.
    pub stats: LaunchStats,
}

/// Full evaluation of one binning scheme.
#[derive(Clone, Debug)]
pub struct CandidateResult {
    /// The scheme evaluated.
    pub scheme: BinningScheme,
    /// Total cycles (sum over per-bin launches).
    pub cycles: f64,
    /// Per-bin winners.
    pub choices: Vec<BinChoice>,
}

impl CandidateResult {
    /// Materialise the strategy this candidate stands for.
    pub fn strategy(&self) -> Strategy {
        let max_bin = self.choices.iter().map(|c| c.bin_id).max().unwrap_or(0);
        let mut kernels = vec![KernelId::Serial; max_bin + 1];
        for c in &self.choices {
            kernels[c.bin_id] = c.kernel;
        }
        // Fill gaps (unpopulated bins) with the nearest populated choice
        // below, so the strategy is total.
        let mut last = kernels.first().copied().unwrap_or(KernelId::Serial);
        let populated: Vec<usize> = self.choices.iter().map(|c| c.bin_id).collect();
        for (b, k) in kernels.iter_mut().enumerate() {
            if populated.contains(&b) {
                last = *k;
            } else {
                *k = last;
            }
        }
        Strategy {
            binning: self.scheme,
            kernels,
        }
    }
}

/// Result of tuning one matrix.
#[derive(Clone, Debug)]
pub struct TunedStrategy {
    /// The winning strategy.
    pub strategy: Strategy,
    /// Its total cycles.
    pub cycles: f64,
    /// Every candidate evaluated (for reports and figures).
    pub candidates: Vec<CandidateResult>,
}

impl TunedStrategy {
    /// The winning candidate's per-bin choices.
    pub fn winning_choices(&self) -> &[BinChoice] {
        let best = self
            .candidates
            .iter()
            .min_by(|a, b| a.cycles.partial_cmp(&b.cycles).unwrap())
            .expect("at least one candidate");
        &best.choices
    }
}

/// The exhaustive oracle tuner.
#[derive(Clone, Debug)]
pub struct Tuner {
    device: GpuDevice,
    config: TunerConfig,
}

impl Tuner {
    /// Tuner with the default (paper + single-bin) search space.
    pub fn new(device: GpuDevice) -> Self {
        Self {
            device,
            config: TunerConfig::default(),
        }
    }

    /// Tuner with an explicit search space.
    pub fn with_config(device: GpuDevice, config: TunerConfig) -> Self {
        Self { device, config }
    }

    /// The device strategies are priced on.
    pub fn device(&self) -> &GpuDevice {
        &self.device
    }

    /// Evaluate one binning scheme: per populated bin, run every kernel
    /// and keep the cheapest.
    ///
    /// The matrix is binned **once** per scheme and every populated
    /// bin's row list is expanded **once** (via the same
    /// [`crate::plan`] expansion plans use); all nine kernel candidates
    /// then share those cached row lists instead of re-binning.
    pub fn evaluate_scheme<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        scheme: BinningScheme,
    ) -> CandidateResult {
        let bins = bin_matrix(a, scheme);
        let expanded = crate::plan::expand_populated(a, &bins);
        let v = vec![T::ONE; a.n_cols()];
        let mut scratch = vec![T::ZERO; a.n_rows()];
        let mut choices = Vec::new();
        let mut cycles = 0.0;
        for (bin_id, rows, nnz) in expanded {
            let mut best: Option<(KernelId, LaunchStats)> = None;
            for &k in &self.config.kernels {
                let stats = run_kernel(&self.device, a, &rows, k, &v, &mut scratch);
                if best.as_ref().is_none_or(|(_, b)| stats.cycles < b.cycles) {
                    best = Some((k, stats));
                }
            }
            let (kernel, stats) = best.expect("kernel pool is non-empty");
            cycles += stats.cycles;
            choices.push(BinChoice {
                bin_id,
                rows: rows.len(),
                nnz,
                kernel,
                stats,
            });
        }
        CandidateResult {
            scheme,
            cycles,
            choices,
        }
    }

    /// Tune a matrix: evaluate every candidate scheme (in parallel) and
    /// return the best strategy plus the full candidate table.
    pub fn tune<T: Scalar>(&self, a: &CsrMatrix<T>) -> TunedStrategy {
        let mut schemes: Vec<BinningScheme> = self
            .config
            .granularities
            .iter()
            .map(|&u| BinningScheme::Coarse { u })
            .collect();
        if self.config.include_single_bin {
            schemes.push(BinningScheme::Single);
        }
        assert!(!schemes.is_empty(), "tuner needs at least one scheme");
        let results: Vec<CandidateResult> =
            parallel_map_collect(schemes.len(), 1, |i| self.evaluate_scheme(a, schemes[i]));
        let best = results
            .iter()
            .min_by(|x, y| x.cycles.partial_cmp(&y.cycles).unwrap())
            .expect("non-empty");
        TunedStrategy {
            strategy: best.strategy(),
            cycles: best.cycles,
            candidates: results.clone(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_sparse::gen;
    use spmv_sparse::gen::mixture::RowRegime;

    fn small_config() -> TunerConfig {
        TunerConfig {
            granularities: vec![10, 100, 1000],
            kernels: ALL_KERNELS.to_vec(),
            include_single_bin: true,
        }
    }

    #[test]
    fn tuned_strategy_is_at_least_as_good_as_every_candidate() {
        let a = gen::mixture::<f32>(
            2000,
            3000,
            &[RowRegime::new(1, 4, 0.7), RowRegime::new(100, 400, 0.3)],
            true,
            21,
        );
        let tuner = Tuner::with_config(GpuDevice::kaveri(), small_config());
        let tuned = tuner.tune(&a);
        for c in &tuned.candidates {
            assert!(
                tuned.cycles <= c.cycles + 1e-6,
                "{:?} beats the winner",
                c.scheme
            );
        }
    }

    #[test]
    fn irregular_matrix_gets_multiple_kernels() {
        // Strongly bimodal rows: per-bin selection should differ across
        // bins for at least one evaluated granularity.
        let a = gen::mixture::<f32>(
            3000,
            5000,
            &[RowRegime::new(1, 2, 0.6), RowRegime::new(600, 900, 0.4)],
            true,
            22,
        );
        let tuner = Tuner::with_config(GpuDevice::kaveri(), small_config());
        let tuned = tuner.tune(&a);
        let multi = tuned.candidates.iter().any(|c| {
            let mut kernels: Vec<KernelId> = c.choices.iter().map(|x| x.kernel).collect();
            kernels.dedup();
            kernels.len() > 1
        });
        assert!(multi, "no candidate used more than one kernel");
    }

    #[test]
    fn uniform_short_matrix_prefers_thin_kernels() {
        let a = gen::random_uniform::<f32>(20_000, 20_000, 2, 3, 23);
        let tuner = Tuner::with_config(GpuDevice::kaveri(), small_config());
        let tuned = tuner.tune(&a);
        for c in tuned.winning_choices() {
            assert!(
                c.kernel.threads_per_row() <= 8,
                "bin {} chose {}",
                c.bin_id,
                c.kernel
            );
        }
    }

    #[test]
    fn uniform_long_matrix_prefers_wide_kernels() {
        let a = gen::random_uniform::<f32>(1500, 30_000, 700, 800, 24);
        let tuner = Tuner::with_config(GpuDevice::kaveri(), small_config());
        let tuned = tuner.tune(&a);
        for c in tuned.winning_choices() {
            assert!(
                c.kernel.threads_per_row() >= 32,
                "bin {} chose {}",
                c.bin_id,
                c.kernel
            );
        }
    }

    #[test]
    fn strategy_fills_unpopulated_bins() {
        let a = gen::random_uniform::<f32>(500, 500, 4, 4, 25);
        let tuner = Tuner::with_config(GpuDevice::kaveri(), small_config());
        let tuned = tuner.tune(&a);
        // kernel_for must be total over any bin id.
        for b in 0..crate::binning::MAX_BINS {
            let _ = tuned.strategy.kernel_for(b);
        }
    }

    #[test]
    fn tuning_is_deterministic() {
        let a = gen::powerlaw::<f32>(1500, 1, 200, 2.2, 26);
        let tuner = Tuner::with_config(GpuDevice::kaveri(), small_config());
        let x = tuner.tune(&a);
        let y = tuner.tune(&a);
        assert_eq!(x.strategy, y.strategy);
        assert_eq!(x.cycles, y.cycles);
    }
}
