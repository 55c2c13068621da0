//! The exhaustive oracle tuner: for every candidate binning granularity,
//! bin the matrix, try every kernel on every populated bin, and keep the
//! cheapest combination. This is the ground truth the machine-learning
//! model is trained to imitate (§III-C's off-line "train process").
//!
//! Since the kernel pool grew a format axis (packed/compressed tiers,
//! and the structure-specialized dense-run/banded/row-run families of
//! the generated kernel table), the tuner also searches that enlarged
//! space: [`Tuner::tune_format`] prices one strategy under each format
//! tier on the SimGpu traffic model and falls back to measured
//! native-CPU timings when the model calls it too close.

use crate::binning::{bin_matrix, BinningScheme};
use crate::exec::{NativeCpuBackend, SimGpuBackend};
use crate::kernels::{run_kernel, KernelId, ALL_KERNELS};
use crate::plan::{IndexPolicy, PlanConfig, SpmvPlan};
use crate::strategy::Strategy;
use spmv_gpusim::{GpuDevice, LaunchStats};
use spmv_parallel::parallel_map_collect;
use spmv_sparse::{CsrMatrix, IndexKind, Scalar};

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

    /// The search space.
    pub fn config(&self) -> &TunerConfig {
        &self.config
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

    /// Tune `a`, then compile the winning strategy into an executable
    /// [`SpmvPlan`](crate::plan::SpmvPlan) on `backend` under an explicit
    /// [`PlanConfig`](crate::plan::PlanConfig) — the entry the bandwidth
    /// bench uses to compare format tiers (u32 floor, delta-compressed,
    /// cache-blocked, …) under one identical tuned strategy.
    pub fn plan_on<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        backend: Box<dyn crate::exec::ExecBackend<T>>,
        config: crate::plan::PlanConfig,
    ) -> (crate::plan::SpmvPlan<T>, TunedStrategy) {
        let tuned = self.tune(a);
        let plan = crate::plan::SpmvPlan::compile_with(a, tuned.strategy.clone(), backend, config);
        (plan, tuned)
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

/// Search settings for the format-tier axis ([`Tuner::tune_format`]).
#[derive(Clone, Debug)]
pub struct FormatSearch {
    /// Relative cycle margin under which the SimGpu model is considered
    /// too close to call and the near-tied candidates are re-timed on
    /// the native CPU backend (`0.0` disables the measured fallback and
    /// keeps the search fully deterministic).
    pub margin: f64,
    /// Executions per candidate in the measured fallback (the minimum
    /// wall time wins).
    pub measure_iters: usize,
}

impl Default for FormatSearch {
    fn default() -> Self {
        Self {
            margin: 0.10,
            measure_iters: 3,
        }
    }
}

/// One format tier priced by [`Tuner::tune_format`].
#[derive(Clone, Debug)]
pub struct FormatCandidate {
    /// Tier label (`u32-floor`, `compressed`, `specialized`).
    pub name: &'static str,
    /// The plan configuration the tier stands for.
    pub config: PlanConfig,
    /// Modelled cycles of one execution on the SimGpu traffic model.
    pub modelled_cycles: f64,
    /// Modelled DRAM bytes read of that execution.
    pub modelled_bytes: u64,
    /// Bins the tier's gate routed to a structure-specialized kernel.
    pub specialized_bins: usize,
    /// Measured native wall time, if the fallback re-timed this tier.
    pub measured: Option<std::time::Duration>,
}

/// Result of the format-tier search: the winning configuration plus the
/// full candidate table.
#[derive(Clone, Debug)]
pub struct TunedFormat {
    /// Winning tier's label.
    pub name: &'static str,
    /// Winning tier's plan configuration (compile with this).
    pub config: PlanConfig,
    /// Every tier evaluated.
    pub candidates: Vec<FormatCandidate>,
    /// Whether the measured fallback decided the winner (the model
    /// called it within [`FormatSearch::margin`]).
    pub measured_fallback: bool,
}

impl Tuner {
    /// Search the format axis the kernel table enlarged: price
    /// `strategy` under each format tier — u32-floor packing, the
    /// delta-compressed tier, and the structure-specialized tier (the
    /// gate free to pick dense-run/banded/row-run kernels) — on the
    /// SimGpu traffic model, derived from `base` so caller knobs
    /// (chunk, cache budget, structure thresholds) apply to every tier
    /// alike. The cheapest modelled tier wins; when the model puts
    /// contenders within [`FormatSearch::margin`] of the winner, those
    /// tiers are re-timed on [`NativeCpuBackend`] and the minimum
    /// measured wall time decides instead.
    pub fn tune_format<T: Scalar>(
        &self,
        a: &CsrMatrix<T>,
        strategy: &Strategy,
        base: PlanConfig,
        search: &FormatSearch,
    ) -> TunedFormat {
        let tiers: [(&'static str, PlanConfig); 3] = [
            (
                "u32-floor",
                PlanConfig {
                    index: IndexPolicy::Fixed(IndexKind::U32),
                    specialize: false,
                    ..base
                },
            ),
            (
                "compressed",
                PlanConfig {
                    index: IndexPolicy::Auto,
                    specialize: false,
                    ..base
                },
            ),
            (
                "specialized",
                PlanConfig {
                    specialize: true,
                    ..base
                },
            ),
        ];
        let v = vec![T::ONE; a.n_cols()];
        let mut u = vec![T::ZERO; a.n_rows()];
        let mut candidates: Vec<FormatCandidate> = tiers
            .into_iter()
            .map(|(name, config)| {
                let plan = SpmvPlan::compile_with(
                    a,
                    strategy.clone(),
                    Box::new(SimGpuBackend::new(self.device.clone())),
                    config,
                );
                let cost = plan.execute(a, &v, &mut u).expect("sim execution");
                let stats = cost.stats.expect("sim backend prices every launch");
                FormatCandidate {
                    name,
                    config,
                    modelled_cycles: stats.cycles,
                    modelled_bytes: stats.bytes_read,
                    specialized_bins: plan.specialized_bins(),
                    measured: None,
                }
            })
            .collect();
        let best_cycles = candidates
            .iter()
            .map(|c| c.modelled_cycles)
            .fold(f64::INFINITY, f64::min);
        let near: Vec<usize> = candidates
            .iter()
            .enumerate()
            .filter(|(_, c)| c.modelled_cycles <= best_cycles * (1.0 + search.margin))
            .map(|(i, _)| i)
            .collect();
        let measured_fallback = search.margin > 0.0 && near.len() > 1;
        let winner = if measured_fallback {
            // The model can't separate the contenders: measure them.
            for &i in &near {
                let plan = SpmvPlan::compile_with(
                    a,
                    strategy.clone(),
                    Box::new(NativeCpuBackend::default()),
                    candidates[i].config,
                );
                let mut best = std::time::Duration::MAX;
                for _ in 0..search.measure_iters.max(1) {
                    let cost = plan.execute(a, &v, &mut u).expect("native execution");
                    best = best.min(cost.wall);
                }
                candidates[i].measured = Some(best);
            }
            near.iter()
                .copied()
                .min_by_key(|&i| candidates[i].measured.expect("just measured"))
                .expect("at least one near-margin candidate")
        } else {
            candidates
                .iter()
                .enumerate()
                .min_by(|x, y| {
                    x.1.modelled_cycles
                        .partial_cmp(&y.1.modelled_cycles)
                        .unwrap()
                })
                .map(|(i, _)| i)
                .expect("three candidates")
        };
        TunedFormat {
            name: candidates[winner].name,
            config: candidates[winner].config,
            candidates,
            measured_fallback,
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
    fn format_search_prices_three_tiers_and_specialization_cuts_modelled_bytes() {
        // Band-complete matrix, classified as streaming so every tier's
        // traffic story is live: the banded fast path must model strictly
        // fewer DRAM bytes than delta-compressed packing, which must
        // model strictly fewer than the u32 floor.
        let a = gen::banded::<f64>(3_000, 4, 7);
        let tuner = Tuner::new(GpuDevice::kaveri());
        let strategy = Strategy::single_kernel(KernelId::Serial);
        let base = PlanConfig {
            llc_bytes: 0,
            ..PlanConfig::default()
        };
        let search = FormatSearch {
            margin: 0.0, // model only: fully deterministic
            measure_iters: 1,
        };
        let tf = tuner.tune_format(&a, &strategy, base, &search);
        assert!(!tf.measured_fallback);
        assert_eq!(tf.candidates.len(), 3);
        let by = |n: &str| tf.candidates.iter().find(|c| c.name == n).expect(n);
        let (u32f, comp, spec) = (by("u32-floor"), by("compressed"), by("specialized"));
        assert!(spec.specialized_bins >= 1, "banded matrix not specialized");
        assert_eq!(u32f.specialized_bins, 0);
        assert_eq!(comp.specialized_bins, 0);
        assert!(
            spec.modelled_bytes < comp.modelled_bytes && comp.modelled_bytes < u32f.modelled_bytes,
            "traffic model not monotone across tiers: {} / {} / {}",
            spec.modelled_bytes,
            comp.modelled_bytes,
            u32f.modelled_bytes
        );
        assert!(tf.candidates.iter().all(|c| c.measured.is_none()));
    }

    #[test]
    fn format_search_measured_fallback_times_near_ties() {
        // A structureless matrix: no tier can win on the model, so a
        // generous margin must route the decision through measured
        // native timings.
        let a = gen::random_uniform::<f64>(800, 800, 4, 4, 5);
        let tuner = Tuner::new(GpuDevice::kaveri());
        let strategy = Strategy::single_kernel(KernelId::Serial);
        let search = FormatSearch {
            margin: 10.0,
            measure_iters: 2,
        };
        let tf = tuner.tune_format(&a, &strategy, PlanConfig::default(), &search);
        assert!(tf.measured_fallback, "generous margin must trigger timing");
        let winner = tf
            .candidates
            .iter()
            .find(|c| c.name == tf.name)
            .expect("winner in table");
        assert!(winner.measured.is_some(), "winner decided without timing");
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
