//! Per-plan execution telemetry: the measurement half of the online
//! bottleneck classifier ([`crate::adapt`]).
//!
//! Every [`SpmvPlan`](crate::plan::SpmvPlan) carries one
//! [`PlanTelemetry`], updated by the execute paths after each launch
//! with the wall time the backend already measured — the hot path adds
//! a handful of relaxed atomic loads and stores, no locks, no extra
//! clock reads, no allocation. The EWMA update is deliberately a plain
//! load-compute-store (not a CAS loop): a concurrent racer can drop one
//! sample, which lags the average by one observation — acceptable for a
//! feedback signal, and it keeps the hot path wait-free.
//!
//! What is tracked, and why these three (they are the inputs Elafrou-
//! style bottleneck classification needs):
//!
//! * **EWMA of ns per output column** — the plan's observed speed. Per
//!   *column*, not per launch, so a K-wide SpMM batch and a
//!   single-vector execute feed the same average.
//! * **Model-predicted traffic** ([`TrafficStats`], frozen at compile
//!   time) — dividing it by the observed time yields the *effective
//!   bandwidth*; a plan far below the machine's streaming rate is not
//!   memory-bound no matter what its format gate assumed.
//! * **Execute/column counters** — the refinement layer's hysteresis
//!   inputs (no classification before `min_executes` samples).

use crate::plan::TrafficStats;
use std::sync::atomic::{AtomicU64, Ordering};

/// Smoothing factor for the ns-per-column EWMA: each new sample
/// contributes 1/8. Small enough to ride out one cold-cache execute,
/// large enough that a genuine regime change (value refresh, co-tenant
/// pressure) shows within ~16 executes.
const EWMA_ALPHA: f64 = 0.125;

/// Lock-free execution telemetry attached to every compiled plan.
///
/// All mutation is through `&self` with relaxed atomics, so the struct
/// is `Sync` and recording composes with the concurrent executes a
/// serving process issues. See the module docs for the field rationale.
#[derive(Debug)]
pub struct PlanTelemetry {
    /// Completed launches (an SpMM batch counts once).
    executes: AtomicU64,
    /// Output columns produced (an SpMM batch counts its width `K`).
    columns: AtomicU64,
    /// EWMA of nanoseconds per output column, stored as `f64` bits
    /// (0 until the first sample).
    ewma_ns: AtomicU64,
    /// Most recent ns-per-column sample, stored as `f64` bits.
    last_ns: AtomicU64,
    /// `2 · nnz`: useful flops per output column (frozen at compile).
    flops_per_column: f64,
    /// Modelled bytes one execution moves (frozen at compile).
    model_bytes: u64,
}

impl PlanTelemetry {
    /// Telemetry for a plan covering `nnz` non-zeros with modelled
    /// per-execute `traffic`.
    pub fn new(nnz: usize, traffic: &TrafficStats) -> Self {
        Self {
            executes: AtomicU64::new(0),
            columns: AtomicU64::new(0),
            ewma_ns: AtomicU64::new(0.0f64.to_bits()),
            last_ns: AtomicU64::new(0.0f64.to_bits()),
            flops_per_column: 2.0 * nnz as f64,
            model_bytes: (traffic.value_bytes + traffic.index_bytes + traffic.x_gather_bytes)
                as u64,
        }
    }

    /// Record one completed launch of `wall_ns` producing `k` output
    /// columns. O(1), wait-free, relaxed ordering throughout — a lost
    /// race drops one EWMA sample, never corrupts state.
    #[inline]
    pub fn record(&self, wall_ns: u64, k: usize) {
        if k == 0 {
            return;
        }
        let per_column = wall_ns as f64 / k as f64;
        self.executes.fetch_add(1, Ordering::Relaxed);
        self.columns.fetch_add(k as u64, Ordering::Relaxed);
        self.last_ns.store(per_column.to_bits(), Ordering::Relaxed);
        let prev = f64::from_bits(self.ewma_ns.load(Ordering::Relaxed));
        let next = if prev == 0.0 {
            per_column
        } else {
            prev + EWMA_ALPHA * (per_column - prev)
        };
        self.ewma_ns.store(next.to_bits(), Ordering::Relaxed);
    }

    /// A coherent-enough copy of the counters for classification and
    /// reporting (relaxed loads; exact once concurrent executes
    /// quiesce).
    pub fn snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            executes: self.executes.load(Ordering::Relaxed),
            columns: self.columns.load(Ordering::Relaxed),
            ewma_ns_per_column: f64::from_bits(self.ewma_ns.load(Ordering::Relaxed)),
            last_ns_per_column: f64::from_bits(self.last_ns.load(Ordering::Relaxed)),
            flops_per_column: self.flops_per_column,
            model_bytes: self.model_bytes,
        }
    }

    /// Reset the measured state (counters and EWMA) while keeping the
    /// compile-time constants — used when a refined plan inherits an
    /// incumbent's slot and must earn its own history.
    pub fn reset_measurements(&self) {
        self.executes.store(0, Ordering::Relaxed);
        self.columns.store(0, Ordering::Relaxed);
        self.ewma_ns.store(0.0f64.to_bits(), Ordering::Relaxed);
        self.last_ns.store(0.0f64.to_bits(), Ordering::Relaxed);
    }
}

/// One observation of a plan's [`PlanTelemetry`] — plain values, safe to
/// hold across classification.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct TelemetrySnapshot {
    /// Completed launches.
    pub executes: u64,
    /// Output columns produced across all launches.
    pub columns: u64,
    /// EWMA of ns per output column (0.0 before the first sample).
    pub ewma_ns_per_column: f64,
    /// Most recent ns-per-column sample.
    pub last_ns_per_column: f64,
    /// `2 · nnz` — flops per output column.
    pub flops_per_column: f64,
    /// Modelled bytes one execution moves (compile-time traffic model).
    pub model_bytes: u64,
}

impl TelemetrySnapshot {
    /// Observed GFLOP/s per column from the EWMA (0.0 with no samples).
    pub fn gflops(&self) -> f64 {
        if self.ewma_ns_per_column <= 0.0 {
            return 0.0;
        }
        self.flops_per_column / self.ewma_ns_per_column
    }

    /// Observed effective bandwidth in bytes/ns (= GB/s) against the
    /// *modelled* traffic: what the memory system actually sustained if
    /// the traffic model is right, an overestimate where caches absorb
    /// modelled bytes. 0.0 with no samples.
    pub fn effective_bandwidth(&self) -> f64 {
        if self.ewma_ns_per_column <= 0.0 {
            return 0.0;
        }
        self.model_bytes as f64 / self.ewma_ns_per_column
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn traffic(bytes: usize) -> TrafficStats {
        TrafficStats {
            value_bytes: bytes,
            index_bytes: 0,
            x_gather_bytes: 0,
            nnz: 100,
        }
    }

    #[test]
    fn first_sample_seeds_the_ewma() {
        let t = PlanTelemetry::new(100, &traffic(800));
        t.record(1_000, 1);
        let s = t.snapshot();
        assert_eq!(s.executes, 1);
        assert_eq!(s.columns, 1);
        assert_eq!(s.ewma_ns_per_column, 1_000.0);
        assert_eq!(s.last_ns_per_column, 1_000.0);
    }

    #[test]
    fn ewma_converges_toward_sustained_rate() {
        let t = PlanTelemetry::new(100, &traffic(800));
        t.record(1_000, 1);
        for _ in 0..64 {
            t.record(2_000, 1);
        }
        let s = t.snapshot();
        assert!(
            (s.ewma_ns_per_column - 2_000.0).abs() < 2.0,
            "ewma {} should have converged to 2000",
            s.ewma_ns_per_column
        );
    }

    #[test]
    fn batches_normalise_per_column() {
        let t = PlanTelemetry::new(100, &traffic(800));
        // An 8-wide batch in 8000 ns is 1000 ns/column.
        t.record(8_000, 8);
        let s = t.snapshot();
        assert_eq!(s.executes, 1);
        assert_eq!(s.columns, 8);
        assert_eq!(s.ewma_ns_per_column, 1_000.0);
    }

    #[test]
    fn zero_width_records_are_ignored() {
        let t = PlanTelemetry::new(100, &traffic(800));
        t.record(5_000, 0);
        assert_eq!(t.snapshot().executes, 0);
    }

    #[test]
    fn derived_rates() {
        let t = PlanTelemetry::new(500, &traffic(4_000));
        t.record(1_000, 1);
        let s = t.snapshot();
        // 1000 flops in 1000 ns = 1 GFLOP/s; 4000 bytes in 1000 ns = 4 GB/s.
        assert!((s.gflops() - 1.0).abs() < 1e-12);
        assert!((s.effective_bandwidth() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn reset_keeps_compile_time_constants() {
        let t = PlanTelemetry::new(500, &traffic(4_000));
        t.record(1_000, 4);
        t.reset_measurements();
        let s = t.snapshot();
        assert_eq!((s.executes, s.columns), (0, 0));
        assert_eq!(s.ewma_ns_per_column, 0.0);
        assert_eq!(s.flops_per_column, 1_000.0);
        assert_eq!(s.model_bytes, 4_000);
    }

    #[test]
    fn concurrent_records_never_corrupt_counters() {
        let t = std::sync::Arc::new(PlanTelemetry::new(100, &traffic(800)));
        std::thread::scope(|s| {
            for _ in 0..4 {
                let t = std::sync::Arc::clone(&t);
                s.spawn(move || {
                    for _ in 0..1_000 {
                        t.record(1_000, 1);
                    }
                });
            }
        });
        let s = t.snapshot();
        // Counters are fetch_add: exact. The EWMA may have dropped
        // racing samples but must remain a sane value.
        assert_eq!(s.executes, 4_000);
        assert_eq!(s.columns, 4_000);
        assert!(s.ewma_ns_per_column > 0.0 && s.ewma_ns_per_column <= 1_000.0 + 1e-9);
    }
}
