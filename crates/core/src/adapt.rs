//! Online bottleneck classification: the decision half of the
//! measured-feedback loop (the observation half is [`crate::telemetry`]).
//!
//! Offline tuning predicts a plan from static features; this module asks
//! the complementary question *after* the plan has run: is the plan
//! performing the way its own traffic model says it should, and if not,
//! which resource is it actually limited by? The answer — a
//! [`Bottleneck`] — maps directly onto a compile-time knob the
//! refinement layer can turn:
//!
//! | class | evidence | suggested move |
//! |---|---|---|
//! | [`MemoryBound`](Bottleneck::MemoryBound) | full-width index stream with the pack or specialize gate closed, or measured time far above the traffic-model roofline | re-open the pack/specialize gates |
//! | [`OnModel`](Bottleneck::OnModel) | none of the above | leave the plan alone |
//!
//! The *structural* check runs first, deliberately: it is computed from
//! the compiled plan, so a CI gate exercising the refinement loop
//! classifies deterministically — timing noise on a loaded runner
//! cannot flip a forced-CSR plan's verdict.
//! The measured-divergence check is the catch-all for plans whose
//! structure looks fine but whose observed rate says otherwise.
//!
//! The index threshold defaults to the 4-bytes-per-non-zero `u32` stream
//! the CSR fallback is charged — the classifier and the compiler must
//! agree on what "full-width" means, or refinement would oscillate.

use crate::plan::{PlanConfig, TrafficStats};
use crate::telemetry::TelemetrySnapshot;

/// What is limiting a running plan, per the classifier's evidence order
/// (see the module docs).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Bottleneck {
    /// Moving more bytes than it needs to: a full-width index stream
    /// with the pack or specialize gate closed, or measured time far
    /// above the traffic-model roofline.
    MemoryBound,
    /// Performing as the traffic model predicts (or too few samples to
    /// say otherwise); no refinement warranted.
    OnModel,
}

impl Bottleneck {
    /// Stable lower-case name (report keys, bench JSON).
    pub fn as_str(self) -> &'static str {
        match self {
            Bottleneck::MemoryBound => "memory_bound",
            Bottleneck::OnModel => "on_model",
        }
    }
}

impl std::fmt::Display for Bottleneck {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.as_str())
    }
}

/// Classifier thresholds. Defaults inherit the format-gate priors the
/// compiler already uses, so classification agrees with compilation.
#[derive(Clone, Copy, Debug)]
pub struct AdaptConfig {
    /// No verdict before this many completed executes — the hysteresis
    /// floor that keeps one cold-cache launch from triggering a rebuild.
    pub min_executes: u64,
    /// Observed / predicted ns ratio above which a structurally clean
    /// plan is still declared off-model ([`Bottleneck::MemoryBound`]).
    pub divergence_ratio: f64,
    /// Index bytes per non-zero at or above which the stream counts as
    /// full-width (the CSR fallback is charged 4 — a full `u32` per
    /// non-zero).
    pub index_bytes_per_nnz: f64,
    /// Streaming rate (GB/s = bytes/ns) the roofline prediction assumes;
    /// [`predicted_ns`](AdaptConfig::predicted_ns) divides modelled
    /// traffic by it. Deliberately conservative: only plans *far* below
    /// even a modest rate trip the measured-divergence check.
    pub assumed_bandwidth_gbps: f64,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        Self {
            min_executes: 8,
            divergence_ratio: 1.5,
            index_bytes_per_nnz: 3.5,
            assumed_bandwidth_gbps: 10.0,
        }
    }
}

impl AdaptConfig {
    /// Roofline prediction: nanoseconds one execute should take if the
    /// modelled traffic streams at the assumed bandwidth.
    pub fn predicted_ns(&self, traffic: &TrafficStats) -> f64 {
        let bytes = (traffic.value_bytes + traffic.index_bytes + traffic.x_gather_bytes) as f64;
        bytes / self.assumed_bandwidth_gbps.max(1e-9)
    }

    /// Observed / predicted time ratio (0.0 with no samples): > 1 means
    /// slower than the traffic model's roofline.
    pub fn divergence(&self, snapshot: &TelemetrySnapshot, traffic: &TrafficStats) -> f64 {
        if snapshot.ewma_ns_per_column <= 0.0 {
            return 0.0;
        }
        snapshot.ewma_ns_per_column / self.predicted_ns(traffic).max(1e-9)
    }
}

/// Whether `config` still has a structure gate (`pack` or `specialize`)
/// closed that a refinement could open — the precondition for the
/// structural [`Bottleneck::MemoryBound`] verdict. With both gates
/// already open, a fat index stream is the matrix's fault, not the
/// plan's.
fn structure_gates_closed(config: &PlanConfig) -> bool {
    !config.pack || !config.specialize
}

/// Classify what limits a plan, from a telemetry snapshot plus the
/// plan's compile-time facts. Structural checks run before the measured
/// one (see the module docs for the order and why it is deterministic).
pub fn classify(
    snapshot: &TelemetrySnapshot,
    traffic: &TrafficStats,
    config: &PlanConfig,
    cfg: &AdaptConfig,
) -> Bottleneck {
    if snapshot.executes < cfg.min_executes {
        return Bottleneck::OnModel;
    }
    if traffic.index_bytes_per_nnz() >= cfg.index_bytes_per_nnz && structure_gates_closed(config) {
        return Bottleneck::MemoryBound;
    }
    if cfg.divergence(snapshot, traffic) >= cfg.divergence_ratio {
        return Bottleneck::MemoryBound;
    }
    Bottleneck::OnModel
}

/// The compile-time move that addresses `bottleneck`, as a candidate
/// [`PlanConfig`] derived from the incumbent's. `None` when the verdict
/// needs no move ([`Bottleneck::OnModel`]) or every relevant knob is
/// already at its limit — the refinement layer treats `None` as "keep
/// the incumbent".
///
/// The suggestion is a *candidate*, not a decision: the refinement layer
/// compiles it, proves it ([`crate::plan::SpmvPlan::verify`]), A/B-times
/// it against the incumbent on live traffic, and only swaps if it
/// measures faster. A wrong suggestion therefore costs one background
/// compile, never a regression.
pub fn suggest(bottleneck: Bottleneck, incumbent: &PlanConfig) -> Option<PlanConfig> {
    match bottleneck {
        Bottleneck::MemoryBound => {
            if !structure_gates_closed(incumbent) {
                return None;
            }
            Some(PlanConfig {
                pack: true,
                specialize: true,
                cache_block: true,
                ..*incumbent
            })
        }
        Bottleneck::OnModel => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snap(executes: u64, ewma_ns: f64) -> TelemetrySnapshot {
        TelemetrySnapshot {
            executes,
            columns: executes,
            ewma_ns_per_column: ewma_ns,
            last_ns_per_column: ewma_ns,
            flops_per_column: 2_000.0,
            model_bytes: 12_000,
        }
    }

    fn traffic(index_bytes: usize) -> TrafficStats {
        TrafficStats {
            value_bytes: 4_000,
            index_bytes,
            x_gather_bytes: 1_000,
            nnz: 1_000,
        }
    }

    fn forced_csr() -> PlanConfig {
        PlanConfig {
            pack: false,
            cache_block: false,
            specialize: false,
            ..PlanConfig::default()
        }
    }

    #[test]
    fn too_few_samples_is_on_model() {
        let cfg = AdaptConfig::default();
        let b = classify(&snap(3, 1e9), &traffic(4_000), &forced_csr(), &cfg);
        assert_eq!(b, Bottleneck::OnModel);
    }

    #[test]
    fn scatter_heavy_forced_csr_is_memory_bound() {
        // Scatter-heavy rows (≥ 4 lines per row) with every gate closed,
        // cache blocking included, and a full-width index stream: the
        // fat stream decides the verdict, and its move re-opens the
        // closed gates.
        let cfg = AdaptConfig::default();
        let csr = forced_csr();
        let b = classify(&snap(100, 100.0), &traffic(4_000), &csr, &cfg);
        assert_eq!(b, Bottleneck::MemoryBound);
        let s = suggest(b, &csr).expect("pack and specialize are closed");
        assert!(s.pack && s.specialize);
    }

    #[test]
    fn forced_csr_index_stream_is_memory_bound() {
        // 4 index bytes per nnz with pack/specialize off: structural
        // verdict, independent of the measured time.
        let cfg = AdaptConfig::default();
        let b = classify(&snap(100, 1.0), &traffic(4_000), &forced_csr(), &cfg);
        assert_eq!(b, Bottleneck::MemoryBound);
    }

    #[test]
    fn fat_index_without_headroom_is_not_structural() {
        // Every gate already open: the index stream is the matrix's
        // nature, and a fast plan stays on-model.
        let cfg = AdaptConfig::default();
        let open = PlanConfig::default();
        let b = classify(&snap(100, 1.0), &traffic(4_000), &open, &cfg);
        assert_eq!(b, Bottleneck::OnModel);
    }

    #[test]
    fn measured_divergence_is_the_catch_all() {
        let cfg = AdaptConfig::default();
        let open = PlanConfig::default();
        let t = traffic(1_000); // below the index prior
        let predicted = cfg.predicted_ns(&t);
        let slow = snap(100, predicted * 2.0);
        assert_eq!(classify(&slow, &t, &open, &cfg), Bottleneck::MemoryBound);
        let fine = snap(100, predicted * 1.2);
        assert_eq!(classify(&fine, &t, &open, &cfg), Bottleneck::OnModel);
    }

    #[test]
    fn suggestions_open_the_right_gate() {
        let csr = forced_csr();
        let s = suggest(Bottleneck::MemoryBound, &csr).expect("headroom exists");
        assert!(s.pack && s.specialize && s.cache_block);
    }

    #[test]
    fn exhausted_knobs_suggest_nothing() {
        assert!(suggest(Bottleneck::OnModel, &PlanConfig::default()).is_none());
        assert!(suggest(Bottleneck::MemoryBound, &PlanConfig::default()).is_none());
    }

    #[test]
    fn divergence_is_zero_before_first_sample() {
        let cfg = AdaptConfig::default();
        assert_eq!(cfg.divergence(&snap(0, 0.0), &traffic(4_000)), 0.0);
    }
}
