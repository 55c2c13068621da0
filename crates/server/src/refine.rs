//! Online plan refinement: closing the offline/online loop.
//!
//! The offline pipeline picks a plan from *predicted* behaviour; the
//! serving process then watches how that plan *measures*
//! ([`PlanTelemetry`](spmv_autotune::PlanTelemetry)) and, when the two
//! diverge, spends background time trying to do better:
//!
//! 1. **Classify** — [`classify_plan`] maps the plan's telemetry +
//!    compile-time traffic model onto a bottleneck class
//!    ([`Bottleneck`]) and the compile-time move that addresses it: a
//!    memory-bound plan with the pack or specialize gate closed gets a
//!    candidate with both gates open.
//! 2. **Probe** — [`probe_candidate`] compiles and **verifies** the
//!    suggested configuration, then A/B-times candidate vs incumbent
//!    on the live matrix, best-of-N, asserting bit-for-bit equal
//!    outputs along the way.
//! 3. **Publish** — only a measurably faster candidate (by
//!    [`RefineConfig::min_speedup`]) is swapped into the
//!    [`PlanCache`](crate::cache::PlanCache) under the incumbent's
//!    key. In-flight executes finish on the plan they hold; future
//!    lookups get the refined one. Because both sides carry a
//!    [`VerifiedPlan`] proof for the same structure, responses are
//!    bit-for-bit identical across the swap — refinement is invisible
//!    to tenants except as speed.
//!
//! A wrong classification therefore costs one background compile and
//! probe, never a regression and never a changed answer.
//!
//! The loop is **hysteretic**: [`RefineScheduler`] spaces attempts per
//! plan by [`RefineConfig::hysteresis_ns`] on an injected monotonic
//! clock ([`spmv_parallel::Clock`]), so a plan that keeps measuring
//! slow is retried at a bounded rate and tests can drive the schedule
//! with a [`FakeClock`](spmv_parallel::FakeClock). Each scan prunes the
//! schedule to the plans the cache still holds, so it never outgrows
//! the cache.
//!
//! The mode knob is the `SPMV_REFINE` environment variable:
//! `off` (default) does nothing, `observe` classifies and counts but
//! never builds, `auto` runs the full loop. A malformed value of any
//! `SPMV_REFINE*` variable warns on stderr and reads as unset.

use crate::cache::CacheError;
use spmv_autotune::{
    classify, suggest, AdaptConfig, Bottleneck, NativeCpuBackend, PlanConfig, SpmvPlan,
    VerifiedPlan,
};
use spmv_sparse::{CsrMatrix, Scalar};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// What the background pass is allowed to do (the `SPMV_REFINE` knob).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum RefineMode {
    /// No background pass at all.
    #[default]
    Off,
    /// Classify and count divergent plans; never compile or swap.
    Observe,
    /// Full loop: classify, build, A/B-probe, swap when faster.
    Auto,
}

impl RefineMode {
    /// Read `SPMV_REFINE` (`off` | `observe` | `auto`); unset, blank or
    /// malformed → `Off`, and a malformed value warns on stderr.
    pub fn from_env() -> Self {
        refine_env("SPMV_REFINE", parse_mode).unwrap_or_default()
    }
}

/// Parse an `SPMV_REFINE` value: `off` | `observe` | `auto`. Blank is
/// unset (`Ok(None)`); anything else is an `Err` carrying the warning.
fn parse_mode(var: &str, raw: &str) -> Result<Option<RefineMode>, String> {
    match raw.trim() {
        "" => Ok(None),
        "off" => Ok(Some(RefineMode::Off)),
        "observe" => Ok(Some(RefineMode::Observe)),
        "auto" => Ok(Some(RefineMode::Auto)),
        _ => Err(format!(
            "{var}={raw:?} is not one of off, observe, auto; ignoring it"
        )),
    }
}

/// Parse an `SPMV_REFINE_DIVERGENCE` value: a finite ratio > 0 (`nan`
/// would never arm refinement, a negative ratio would arm every plan).
fn parse_divergence(var: &str, raw: &str) -> Result<Option<f64>, String> {
    let s = raw.trim();
    if s.is_empty() {
        return Ok(None);
    }
    match s.parse::<f64>() {
        Ok(x) if x.is_finite() && x > 0.0 => Ok(Some(x)),
        _ => Err(format!(
            "{var}={raw:?} is not a finite ratio > 0; ignoring it"
        )),
    }
}

/// Parse an `SPMV_REFINE_HYSTERESIS_MS` value: a non-negative integer
/// number of milliseconds.
fn parse_hysteresis_ms(var: &str, raw: &str) -> Result<Option<u64>, String> {
    let s = raw.trim();
    if s.is_empty() {
        return Ok(None);
    }
    s.parse::<u64>().map(Some).map_err(|_| {
        format!("{var}={raw:?} is not a non-negative integer of milliseconds; ignoring it")
    })
}

/// Read `var` through `parse`. A malformed value warns on stderr and
/// reads as unset, so a typo is never silently identical to unset.
fn refine_env<V>(var: &str, parse: fn(&str, &str) -> Result<Option<V>, String>) -> Option<V> {
    let raw = std::env::var(var).ok()?;
    parse(var, &raw).unwrap_or_else(|warning| {
        eprintln!("warning: {warning}");
        None
    })
}

/// Refinement knobs. `Default` is fully off; [`RefineConfig::from_env`]
/// reads the `SPMV_REFINE*` variables.
#[derive(Clone, Copy, Debug)]
pub struct RefineConfig {
    /// What the pass may do (see [`RefineMode`]).
    pub mode: RefineMode,
    /// Classifier thresholds, including the observed/predicted
    /// divergence ratio that arms refinement.
    pub adapt: AdaptConfig,
    /// A/B probe repetitions per side (best-of; small, the probe runs
    /// on live hardware).
    pub probe_iters: usize,
    /// The candidate must be at least this factor faster than the
    /// incumbent (best-of probe times) to be published. > 1.0 so
    /// measurement jitter cannot ping-pong plans.
    pub min_speedup: f64,
    /// Minimum nanoseconds between refinement attempts for one plan —
    /// the hysteresis window [`RefineScheduler`] enforces.
    pub hysteresis_ns: u64,
    /// Background worker pass period.
    pub scan_interval: Duration,
}

impl Default for RefineConfig {
    fn default() -> Self {
        Self {
            mode: RefineMode::Off,
            adapt: AdaptConfig::default(),
            probe_iters: 3,
            min_speedup: 1.05,
            hysteresis_ns: 1_000_000_000,
            scan_interval: Duration::from_millis(20),
        }
    }
}

impl RefineConfig {
    /// Defaults overridden by environment: `SPMV_REFINE` (mode),
    /// `SPMV_REFINE_DIVERGENCE` (observed/predicted ratio, finite > 0),
    /// `SPMV_REFINE_HYSTERESIS_MS` (attempt spacing, integer ms). A
    /// malformed value warns on stderr and keeps the default.
    pub fn from_env() -> Self {
        let mut cfg = Self {
            mode: RefineMode::from_env(),
            ..Self::default()
        };
        if let Some(x) = refine_env("SPMV_REFINE_DIVERGENCE", parse_divergence) {
            cfg.adapt.divergence_ratio = x;
        }
        if let Some(ms) = refine_env("SPMV_REFINE_HYSTERESIS_MS", parse_hysteresis_ms) {
            cfg.hysteresis_ns = ms.saturating_mul(1_000_000);
        }
        cfg
    }
}

/// Per-plan attempt spacing on an injected monotonic clock. Pure state
/// machine — the caller supplies `now_ns` readings (production: a
/// [`spmv_parallel::MonotonicClock`]; tests: a
/// [`FakeClock`](spmv_parallel::FakeClock)), so hysteresis behaviour is
/// deterministic under test.
#[derive(Debug, Default)]
pub struct RefineScheduler<K: std::hash::Hash + Eq> {
    last_attempt: HashMap<K, u64>,
}

impl<K: std::hash::Hash + Eq + Clone> RefineScheduler<K> {
    /// An empty schedule.
    pub fn new() -> Self {
        Self {
            last_attempt: HashMap::new(),
        }
    }

    /// Whether an attempt for `key` is allowed at `now_ns` given the
    /// spacing `hysteresis_ns` (first attempt is always allowed).
    pub fn ready(&self, key: &K, now_ns: u64, hysteresis_ns: u64) -> bool {
        match self.last_attempt.get(key) {
            None => true,
            Some(&last) => now_ns.saturating_sub(last) >= hysteresis_ns,
        }
    }

    /// Record that an attempt for `key` happened at `now_ns`.
    pub fn record(&mut self, key: &K, now_ns: u64) {
        self.last_attempt.insert(key.clone(), now_ns);
    }

    /// Keep only the keys `live` accepts (the rest were evicted); a
    /// dropped key's next attempt is immediately ready.
    pub fn retain(&mut self, mut live: impl FnMut(&K) -> bool) {
        self.last_attempt.retain(|k, _| live(k));
    }
}

/// Classify a running plan and derive the candidate configuration that
/// addresses its bottleneck. `(_, None)` means "leave it alone": on
/// model, too few samples, or every relevant knob already at its limit.
pub fn classify_plan<T: Scalar>(
    plan: &VerifiedPlan<T>,
    adapt: &AdaptConfig,
) -> (Bottleneck, Option<PlanConfig>) {
    let snapshot = plan.telemetry().snapshot();
    let traffic = plan.plan().traffic();
    let config = plan.config();
    let bottleneck = classify(&snapshot, &traffic, config, adapt);
    let suggestion = suggest(bottleneck, config);
    (bottleneck, suggestion)
}

/// Why a probe produced no publishable candidate.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum RefineError {
    /// Candidate compile/verify failed.
    Build(String),
    /// Candidate and incumbent disagreed bitwise on the probe input —
    /// must be impossible for two verified plans over one structure;
    /// treated as fatal for the candidate.
    Mismatch(String),
}

impl std::fmt::Display for RefineError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RefineError::Build(m) => write!(f, "candidate build failed: {m}"),
            RefineError::Mismatch(m) => write!(f, "candidate output mismatch: {m}"),
        }
    }
}

impl std::error::Error for RefineError {}

/// Outcome of one A/B probe: the verified candidate plus the evidence.
pub struct ProbeReport<T: Scalar> {
    /// The candidate, verified against the live matrix — safe to swap.
    pub candidate: Arc<VerifiedPlan<T>>,
    /// Wall time compiling + verifying the candidate (its rebuild cost
    /// for cache eviction scoring).
    pub build_ns: u64,
    /// Best-of-probe incumbent execute, nanoseconds.
    pub incumbent_ns: u64,
    /// Best-of-probe candidate execute, nanoseconds.
    pub candidate_ns: u64,
    /// `candidate_ns × min_speedup ≤ incumbent_ns`: publish-worthy.
    pub improved: bool,
}

/// Compile, verify, and A/B-probe `candidate_cfg` against the incumbent
/// on the live matrix. Returns the verified candidate and best-of-N
/// timings; every probe pair is checked bit-for-bit. `workers > 0` pins
/// the backend's worker count (0 = backend default), mirroring how the
/// serving layer compiles incumbents.
pub fn probe_candidate<T: Scalar>(
    a: &CsrMatrix<T>,
    incumbent: &VerifiedPlan<T>,
    candidate_cfg: PlanConfig,
    workers: usize,
    cfg: &RefineConfig,
) -> Result<ProbeReport<T>, RefineError> {
    let backend = if workers > 0 {
        NativeCpuBackend::new().with_workers(workers)
    } else {
        NativeCpuBackend::new()
    };
    let strategy = incumbent.plan().strategy().clone();
    let started = std::time::Instant::now();
    let candidate = SpmvPlan::compile_with(a, strategy, Box::new(backend), candidate_cfg)
        .verify(a)
        .map_err(|e| RefineError::Build(e.to_string()))?;
    let build_ns = started.elapsed().as_nanos() as u64;

    // Deterministic probe vector: structured enough to exercise every
    // row, fixed so repeated probes are comparable.
    let x: Vec<T> = (0..a.n_cols())
        .map(|i| T::from_f64(((i * 37 + 11) % 101) as f64 / 50.0 - 1.0))
        .collect();
    let mut y_inc = vec![T::ZERO; a.n_rows()];
    let mut y_cand = vec![T::ZERO; a.n_rows()];
    let iters = cfg.probe_iters.max(1);
    let mut incumbent_ns = u64::MAX;
    let mut candidate_ns = u64::MAX;
    for _ in 0..iters {
        let ci = incumbent
            .execute_unchecked(a, &x, &mut y_inc)
            .map_err(|e| RefineError::Build(e.to_string()))?;
        let cc = candidate
            .execute_unchecked(a, &x, &mut y_cand)
            .map_err(|e| RefineError::Build(e.to_string()))?;
        incumbent_ns = incumbent_ns.min(ci.wall.as_nanos() as u64);
        candidate_ns = candidate_ns.min(cc.wall.as_nanos() as u64);
        if y_inc != y_cand {
            // Two verified plans over one structure must agree bitwise;
            // a mismatch means the candidate is unusable, full stop.
            return Err(RefineError::Mismatch(format!(
                "incumbent and candidate outputs differ on the probe input \
                 (config {candidate_cfg:?})"
            )));
        }
    }
    let improved = (candidate_ns as f64) * cfg.min_speedup <= incumbent_ns as f64;
    Ok(ProbeReport {
        candidate: Arc::new(candidate),
        build_ns,
        incumbent_ns,
        candidate_ns,
        improved,
    })
}

/// Monotone counters for the background pass (lives in the server's
/// shared state; the worker thread increments, `stats()` snapshots).
#[derive(Debug, Default)]
pub struct RefineCounters {
    /// Completed scan passes over the cache.
    pub scans: AtomicU64,
    /// Plans whose classification produced an actionable suggestion.
    pub eligible: AtomicU64,
    /// Eligible plans skipped by the hysteresis window.
    pub hysteresis_skips: AtomicU64,
    /// Eligible plans counted in observe mode (no build).
    pub observed: AtomicU64,
    /// Candidates compiled + verified.
    pub built: AtomicU64,
    /// Candidates published over their incumbent.
    pub swapped: AtomicU64,
    /// Candidates measured and rejected (incumbent kept).
    pub kept: AtomicU64,
    /// Candidate builds or probes that failed.
    pub failures: AtomicU64,
}

/// Snapshot of [`RefineCounters`] (see the field docs there).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefineStats {
    /// Completed scan passes over the cache.
    pub scans: u64,
    /// Plans whose classification produced an actionable suggestion.
    pub eligible: u64,
    /// Eligible plans skipped by the hysteresis window.
    pub hysteresis_skips: u64,
    /// Eligible plans counted in observe mode (no build).
    pub observed: u64,
    /// Candidates compiled + verified.
    pub built: u64,
    /// Candidates published over their incumbent.
    pub swapped: u64,
    /// Candidates measured and rejected (incumbent kept).
    pub kept: u64,
    /// Candidate builds or probes that failed.
    pub failures: u64,
}

impl RefineCounters {
    /// Relaxed snapshot (exact once the worker quiesces).
    pub fn snapshot(&self) -> RefineStats {
        RefineStats {
            scans: self.scans.load(Ordering::Relaxed),
            eligible: self.eligible.load(Ordering::Relaxed),
            hysteresis_skips: self.hysteresis_skips.load(Ordering::Relaxed),
            observed: self.observed.load(Ordering::Relaxed),
            built: self.built.load(Ordering::Relaxed),
            swapped: self.swapped.load(Ordering::Relaxed),
            kept: self.kept.load(Ordering::Relaxed),
            failures: self.failures.load(Ordering::Relaxed),
        }
    }
}

/// Map a compile/verify failure into the cache's error type (the
/// refiner builds through the same `Result` plumbing as the server).
pub fn build_error(e: impl std::fmt::Display) -> CacheError {
    CacheError::Build(e.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_autotune::{BinningScheme, KernelId, Strategy};
    use spmv_sparse::gen;

    fn strategy() -> Strategy {
        Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Serial; 8],
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

    fn verified(a: &CsrMatrix<f64>, cfg: PlanConfig) -> VerifiedPlan<f64> {
        SpmvPlan::compile_with(a, strategy(), Box::new(NativeCpuBackend::new()), cfg)
            .verify(a)
            .unwrap()
    }

    #[test]
    fn refine_env_parsers_accept_valid_values_and_flag_the_rest() {
        // The pure parsers behind `from_env`; blank means unset, and
        // every malformed value is an `Err` naming the variable.
        let v = "SPMV_REFINE";
        assert_eq!(RefineMode::default(), RefineMode::Off);
        assert_eq!(parse_mode(v, ""), Ok(None));
        assert_eq!(parse_mode(v, "off"), Ok(Some(RefineMode::Off)));
        assert_eq!(parse_mode(v, "observe"), Ok(Some(RefineMode::Observe)));
        assert_eq!(parse_mode(v, " auto "), Ok(Some(RefineMode::Auto)));
        for bad in ["atuo", "AUTO", "on", "1"] {
            let warning = parse_mode(v, bad).unwrap_err();
            assert!(warning.starts_with(&format!("{v}={bad:?}")), "{warning}");
        }

        let v = "SPMV_REFINE_DIVERGENCE";
        assert_eq!(parse_divergence(v, " "), Ok(None));
        assert_eq!(parse_divergence(v, "1.5"), Ok(Some(1.5)));
        assert_eq!(parse_divergence(v, "3"), Ok(Some(3.0)));
        for bad in ["nan", "inf", "-1", "0", "fast"] {
            let warning = parse_divergence(v, bad).unwrap_err();
            assert!(warning.starts_with(&format!("{v}={bad:?}")), "{warning}");
        }

        let v = "SPMV_REFINE_HYSTERESIS_MS";
        assert_eq!(parse_hysteresis_ms(v, ""), Ok(None));
        assert_eq!(parse_hysteresis_ms(v, "0"), Ok(Some(0)));
        assert_eq!(parse_hysteresis_ms(v, "250"), Ok(Some(250)));
        for bad in ["-5", "1.5", "1s"] {
            let warning = parse_hysteresis_ms(v, bad).unwrap_err();
            assert!(warning.starts_with(&format!("{v}={bad:?}")), "{warning}");
        }
    }

    #[test]
    fn scheduler_hysteresis_is_deterministic_on_a_fake_clock() {
        use spmv_parallel::{Clock, FakeClock};
        let clock = FakeClock::new();
        let mut sched = RefineScheduler::new();
        let key = 7u32;
        let h = 1_000;
        assert!(sched.ready(&key, clock.now_ns(), h), "first attempt free");
        sched.record(&key, clock.now_ns());
        clock.advance_ns(999);
        assert!(!sched.ready(&key, clock.now_ns(), h), "inside the window");
        clock.advance_ns(1);
        assert!(sched.ready(&key, clock.now_ns(), h), "window elapsed");
        sched.record(&key, clock.now_ns());
        clock.advance_ns(10);
        assert!(!sched.ready(&key, clock.now_ns(), h));

        // Pruning drops only the keys the predicate rejects: a pruned
        // key is fresh again, a live one keeps its window.
        let live = 8u32;
        sched.record(&live, clock.now_ns());
        sched.retain(|k| *k == live);
        assert!(sched.ready(&key, clock.now_ns(), h), "pruned = fresh");
        assert!(
            !sched.ready(&live, clock.now_ns(), h),
            "live keeps its window"
        );
        clock.advance_ns(h);
        assert!(sched.ready(&live, clock.now_ns(), h));
    }

    #[test]
    fn classify_plan_arms_on_a_forced_csr_banded_matrix() {
        // A banded matrix compiled with every structure gate closed:
        // pays the full u32 index stream it does not need. After enough
        // executes, the classifier must call it memory-bound and
        // suggest re-opening the gates.
        let a = gen::banded::<f64>(2_000, 3, 2);
        let plan = verified(&a, forced_csr());
        let x = vec![1.0; a.n_cols()];
        let mut y = vec![0.0; a.n_rows()];
        for _ in 0..10 {
            plan.execute_unchecked(&a, &x, &mut y).unwrap();
        }
        let (b, suggestion) = classify_plan(&plan, &AdaptConfig::default());
        assert_eq!(b, Bottleneck::MemoryBound);
        let s = suggestion.expect("gates closed ⇒ headroom");
        assert!(s.pack && s.specialize);
    }

    #[test]
    fn classify_plan_respects_the_sample_floor() {
        let a = gen::banded::<f64>(2_000, 3, 2);
        let plan = verified(&a, forced_csr());
        // No executes at all: no verdict, no suggestion.
        let (b, suggestion) = classify_plan(&plan, &AdaptConfig::default());
        assert_eq!(b, Bottleneck::OnModel);
        assert!(suggestion.is_none());
    }

    #[test]
    fn probe_reports_bitwise_equal_sides_and_timings() {
        let a = gen::banded::<f64>(3_000, 3, 2);
        let incumbent = verified(&a, forced_csr());
        let report = probe_candidate(
            &a,
            &incumbent,
            PlanConfig::default(),
            0,
            &RefineConfig::default(),
        )
        .expect("candidate must build and agree");
        assert!(report.incumbent_ns > 0 && report.incumbent_ns < u64::MAX);
        assert!(report.candidate_ns > 0 && report.candidate_ns < u64::MAX);
        assert!(report.build_ns > 0);
        // The candidate's config really is the suggested one.
        assert!(report.candidate.config().pack);
    }
}
