//! Sharded concurrent plan cache with single-flight builds.
//!
//! Plan compilation is the expensive half of the plan/execute split
//! (~150× an execute for suite-scale matrices), and a serving process
//! replays it for every tenant that names the same matrix. The cache
//! keys verified plans by **structural identity** — a [`PlanKey`] of the
//! [`PatternFingerprint`], an FNV-1a hash of the column indices, and the
//! [`PlanConfigKey`] of the compile configuration — so every request
//! against an already-planned pattern pays one shard read-lock instead
//! of a compile-and-verify. A [`PatternIdentity`] (the key plus an
//! independent confirm checksum) costs O(m + nnz); the serving layer
//! computes it once per registration and hands it to
//! [`PlanCache::get_or_build_keyed`] on every batch, so a lookup never
//! rescans the pattern. Because the identity covers `col_idx`, two
//! matrices that share `row_ptr` but differ in columns (two bands of
//! equal width) get separate entries.
//!
//! Three properties the serving layer leans on:
//!
//! * **Hits never take an exclusive lock.** The read path is a shard
//!   `RwLock` read guard plus one relaxed atomic store for the LRU
//!   stamp; concurrent hits on one shard proceed in parallel, and hits
//!   on different shards share nothing at all.
//! * **Concurrent misses build once.** The first miss installs a
//!   `Flight` slot and compiles outside every map lock; later misses
//!   for the same key block on the flight's condvar and receive the
//!   same `Arc`'d plan (or the same build error). N tenants cold-hitting
//!   one matrix cost one compile, not N.
//! * **A key match is confirmed, never trusted.** The FNV-1a hashes
//!   inside the key are forgeable (two chosen arrays can collide; see
//!   the regression test), so each entry stores the independent
//!   [`PatternFingerprint::confirm_of`] checksum of the pattern it was
//!   built for, and a hit must present the same one. A mismatch is
//!   treated as a miss and counted in [`CacheStats::collisions`]; the
//!   cache never returns a plan for a structurally different matrix, it
//!   only ever rebuilds.
//!
//! Capacity is bounded per shard (`capacity / shards`, min 1): when an
//! insert overflows a shard, eviction is **cost-aware**, not pure LRU.
//! Each Ready entry remembers the wall time its build actually took,
//! and the victim is the entry minimising `build_ns / (age + 1)` (age
//! in LRU ticks) — the one that is cheapest to get back per tick of
//! disuse. Equal-cost entries degrade to exact LRU; an expensive plan
//! (a large matrix's multi-second compile-and-verify) survives a scan
//! of cheap one-shot plans that would have flushed it under pure
//! recency. In-flight builds are never evicted.

use spmv_autotune::{PatternFingerprint, PlanConfig, PlanConfigKey, VerifiedPlan};
use spmv_sparse::{CsrMatrix, Scalar};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, RwLock};

/// The full cache key: what the plan was compiled *for* (the sparsity
/// pattern, row structure and columns) and *with* (the frozen
/// configuration).
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct PlanKey {
    /// Dimensions, NNZ and the row-pointer hash.
    pub pattern: PatternFingerprint,
    /// FNV-1a over the column indices.
    pub columns: u64,
    /// The compile configuration.
    pub config: PlanConfigKey,
}

/// A matrix's identity as the cache sees it: the key it is stored under
/// and the independent [`PatternFingerprint::confirm_of`] checksum a hit
/// must match. Both cover `row_ptr` and `col_idx`; values are not part
/// of it, so a value refresh keeps the identity.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct PatternIdentity {
    /// The cache key.
    pub key: PlanKey,
    /// The confirm checksum.
    pub confirm: u64,
}

impl PatternIdentity {
    /// The identity of `a`'s pattern compiled under `config`. O(m +
    /// nnz): compute it once per matrix, not per lookup.
    pub fn of<T: Scalar>(a: &CsrMatrix<T>, config: &PlanConfig) -> Self {
        let columns = a
            .col_idx()
            .iter()
            .fold(0xcbf2_9ce4_8422_2325, |h: u64, &c| {
                (h ^ u64::from(c)).wrapping_mul(0x0000_0100_0000_01b3)
            });
        Self {
            key: PlanKey {
                pattern: PatternFingerprint::of(a),
                columns,
                config: config.cache_key(),
            },
            confirm: PatternFingerprint::confirm_of(a),
        }
    }
}

/// Why a cache lookup failed: the only failure mode is the builder
/// itself (compile/verify) failing — every waiter of a single-flight
/// build receives the same error.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum CacheError {
    /// Plan compilation or verification failed; the rendered cause.
    Build(String),
}

impl std::fmt::Display for CacheError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CacheError::Build(msg) => write!(f, "plan build failed: {msg}"),
        }
    }
}

impl std::error::Error for CacheError {}

/// Cache sizing knobs.
#[derive(Clone, Copy, Debug)]
pub struct CacheConfig {
    /// Independent `RwLock`-protected map shards (contention domains).
    pub shards: usize,
    /// Total Ready-entry capacity across all shards (bounded per shard
    /// at `capacity / shards`, minimum one entry per shard).
    pub capacity: usize,
}

impl Default for CacheConfig {
    fn default() -> Self {
        Self {
            shards: 8,
            capacity: 64,
        }
    }
}

/// Counter snapshot taken by [`PlanCache::stats`]. Counters are
/// monotone; one of `hits`/`misses` is incremented per resolved lookup.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Lookups served from a Ready entry (confirm checksum matched).
    pub hits: u64,
    /// Lookups that required a build (own or joined).
    pub misses: u64,
    /// Builder invocations (single-flight keeps this below `misses`
    /// under concurrency).
    pub builds: u64,
    /// Misses resolved by joining another thread's in-flight build.
    pub joined_builds: u64,
    /// Ready entries evicted by the cost-aware capacity bound.
    pub evictions: u64,
    /// Fingerprint matches rejected by the confirm checksum — each one
    /// is a would-have-been wrong-plan reuse the secondary hash caught.
    pub collisions: u64,
}

impl CacheStats {
    /// Total resolved lookups.
    pub fn lookups(&self) -> u64 {
        self.hits + self.misses
    }

    /// `hits / lookups` (1.0 for an idle cache, so repeat-traffic gates
    /// read naturally).
    pub fn hit_rate(&self) -> f64 {
        if self.lookups() == 0 {
            1.0
        } else {
            self.hits as f64 / self.lookups() as f64
        }
    }
}

/// A cached verified plan plus the evidence needed to reuse it safely.
struct Entry<T: Scalar> {
    plan: Arc<VerifiedPlan<T>>,
    /// [`PatternFingerprint::confirm_of`] of the matrix the plan was
    /// built against.
    confirm: u64,
    /// LRU stamp: the global tick at last use (relaxed store on hit).
    last_used: AtomicU64,
    /// Rebuild cost of this entry in nanoseconds — the measured wall
    /// time of the build that produced it — which the eviction score
    /// protects.
    build_ns: u64,
}

/// Single-flight rendezvous: the building thread publishes here, every
/// concurrent miss for the same key blocks on `cv` until it does.
struct Flight<T: Scalar> {
    slot: Mutex<Option<Result<Arc<Entry<T>>, CacheError>>>,
    cv: Condvar,
}

impl<T: Scalar> Flight<T> {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, result: Result<Arc<Entry<T>>, CacheError>) {
        let mut slot = self.slot.lock().unwrap();
        *slot = Some(result);
        self.cv.notify_all();
    }

    fn wait(&self) -> Result<Arc<Entry<T>>, CacheError> {
        let mut slot = self.slot.lock().unwrap();
        while slot.is_none() {
            slot = self.cv.wait(slot).unwrap();
        }
        slot.as_ref().unwrap().clone()
    }
}

enum SlotState<T: Scalar> {
    Ready(Arc<Entry<T>>),
    Building(Arc<Flight<T>>),
}

/// Sharded, single-flight, LRU-bounded cache of [`VerifiedPlan`]s. See
/// the module docs for the contract.
pub struct PlanCache<T: Scalar> {
    shards: Vec<RwLock<HashMap<PlanKey, SlotState<T>>>>,
    per_shard_capacity: usize,
    tick: AtomicU64,
    hits: AtomicU64,
    misses: AtomicU64,
    builds: AtomicU64,
    joined_builds: AtomicU64,
    evictions: AtomicU64,
    collisions: AtomicU64,
}

impl<T: Scalar> PlanCache<T> {
    /// An empty cache sized by `config` (shards and capacity clamped to
    /// at least 1).
    pub fn new(config: CacheConfig) -> Self {
        let shards = config.shards.max(1);
        Self {
            shards: (0..shards).map(|_| RwLock::new(HashMap::new())).collect(),
            per_shard_capacity: (config.capacity.max(1) / shards).max(1),
            tick: AtomicU64::new(0),
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            builds: AtomicU64::new(0),
            joined_builds: AtomicU64::new(0),
            evictions: AtomicU64::new(0),
            collisions: AtomicU64::new(0),
        }
    }

    /// The plan for the pattern `id` names: a confirmed hit when cached
    /// (O(1) — the identity was computed once, when the caller first saw
    /// the matrix), else a single-flight `build()`. The builder runs
    /// outside every cache lock; its error (if any) is delivered to every
    /// waiter of the flight. The forged-collision regression test probes
    /// the confirm layer through it: two structurally different matrices
    /// that (adversarially) share a full `PlanKey` must still never share
    /// a plan.
    pub fn get_or_build_keyed(
        &self,
        id: PatternIdentity,
        build: impl FnOnce() -> Result<VerifiedPlan<T>, CacheError>,
    ) -> Result<Arc<VerifiedPlan<T>>, CacheError> {
        self.get_or_build_costed(id, || {
            let started = std::time::Instant::now();
            let plan = build()?;
            Ok((plan, started.elapsed().as_nanos() as u64))
        })
    }

    /// [`get_or_build_keyed`](Self::get_or_build_keyed) with a builder
    /// that reports its plan's rebuild cost in nanoseconds — the figure
    /// the eviction score protects — beside the plan.
    fn get_or_build_costed(
        &self,
        id: PatternIdentity,
        build: impl FnOnce() -> Result<(VerifiedPlan<T>, u64), CacheError>,
    ) -> Result<Arc<VerifiedPlan<T>>, CacheError> {
        let PatternIdentity { key, confirm } = id;
        let mut build = Some(build);
        let shard = &self.shards[self.shard_index(&key)];
        loop {
            // Fast path: shared lock, relaxed LRU stamp, no writes.
            {
                let map = shard.read().unwrap();
                if let Some(SlotState::Ready(e)) = map.get(&key) {
                    if e.confirm == confirm {
                        self.touch(e);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Arc::clone(&e.plan));
                    }
                    // Confirm mismatch: fall through to the slow path,
                    // which replaces the entry under the write lock.
                }
            }

            enum Action<T: Scalar> {
                Build(Arc<Flight<T>>),
                Join(Arc<Flight<T>>),
            }
            let action = {
                let mut map = shard.write().unwrap();
                match map.get(&key) {
                    Some(SlotState::Ready(e)) if e.confirm == confirm => {
                        // Raced another thread's insert between the two
                        // locks — a hit after all.
                        self.touch(e);
                        self.hits.fetch_add(1, Ordering::Relaxed);
                        return Ok(Arc::clone(&e.plan));
                    }
                    Some(SlotState::Ready(_)) => {
                        // Fingerprint collision caught by the confirm
                        // checksum: never reuse; rebuild for the probing
                        // matrix (the slot is replaced, not shared).
                        self.collisions.fetch_add(1, Ordering::Relaxed);
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let flight = Arc::new(Flight::new());
                        map.insert(key, SlotState::Building(Arc::clone(&flight)));
                        Action::Build(flight)
                    }
                    Some(SlotState::Building(f)) => Action::Join(Arc::clone(f)),
                    None => {
                        self.misses.fetch_add(1, Ordering::Relaxed);
                        let flight = Arc::new(Flight::new());
                        map.insert(key, SlotState::Building(Arc::clone(&flight)));
                        Action::Build(flight)
                    }
                }
            };

            match action {
                Action::Build(flight) => {
                    let builder = build.take().expect("builder runs at most once");
                    self.builds.fetch_add(1, Ordering::Relaxed);
                    let result = builder();
                    let mut map = shard.write().unwrap();
                    return match result {
                        Ok((plan, build_ns)) => {
                            let entry = Arc::new(Entry {
                                plan: Arc::new(plan),
                                confirm,
                                last_used: AtomicU64::new(self.next_tick()),
                                build_ns,
                            });
                            map.insert(key, SlotState::Ready(Arc::clone(&entry)));
                            self.evict_over_capacity(&mut map, &key);
                            drop(map);
                            flight.resolve(Ok(Arc::clone(&entry)));
                            Ok(Arc::clone(&entry.plan))
                        }
                        Err(e) => {
                            // Failed builds leave no tombstone: the next
                            // lookup retries from scratch.
                            map.remove(&key);
                            drop(map);
                            flight.resolve(Err(e.clone()));
                            Err(e)
                        }
                    };
                }
                Action::Join(flight) => {
                    match flight.wait() {
                        Ok(e) if e.confirm == confirm => {
                            self.misses.fetch_add(1, Ordering::Relaxed);
                            self.joined_builds.fetch_add(1, Ordering::Relaxed);
                            self.touch(&e);
                            return Ok(Arc::clone(&e.plan));
                        }
                        Ok(_) => {
                            // Joined a build for a colliding (different)
                            // structure: loop — the Ready slot's confirm
                            // mismatch routes us to a fresh build.
                            self.collisions.fetch_add(1, Ordering::Relaxed);
                        }
                        Err(e) => return Err(e),
                    }
                }
            }
        }
    }

    /// Counter snapshot (relaxed loads; exact once concurrent lookups
    /// quiesce).
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            hits: self.hits.load(Ordering::Relaxed),
            misses: self.misses.load(Ordering::Relaxed),
            builds: self.builds.load(Ordering::Relaxed),
            joined_builds: self.joined_builds.load(Ordering::Relaxed),
            evictions: self.evictions.load(Ordering::Relaxed),
            collisions: self.collisions.load(Ordering::Relaxed),
        }
    }

    /// Ready entries currently cached (excludes in-flight builds).
    pub fn len(&self) -> usize {
        self.shards
            .iter()
            .map(|s| {
                s.read()
                    .unwrap()
                    .values()
                    .filter(|v| matches!(v, SlotState::Ready(_)))
                    .count()
            })
            .sum()
    }

    /// No Ready entries cached.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    fn shard_index(&self, key: &PlanKey) -> usize {
        let mut h = DefaultHasher::new();
        key.hash(&mut h);
        (h.finish() as usize) % self.shards.len()
    }

    fn next_tick(&self) -> u64 {
        self.tick.fetch_add(1, Ordering::Relaxed) + 1
    }

    fn touch(&self, e: &Entry<T>) {
        e.last_used.store(self.next_tick(), Ordering::Relaxed);
    }

    /// Evict Ready entries until the shard is back under its capacity,
    /// by lowest **retention score** `build_ns / (age + 1)`: the score
    /// is what a tick of keeping the entry around is worth in avoided
    /// rebuild time, so the victim is the entry cheapest to reacquire
    /// per tick of disuse. Equal costs degrade to exact LRU (oldest
    /// stamp first); ties break on the older stamp, so eviction is
    /// deterministic. `keep` (the just-inserted key) is exempt so an
    /// insert can never evict itself.
    fn evict_over_capacity(&self, map: &mut HashMap<PlanKey, SlotState<T>>, keep: &PlanKey) {
        loop {
            let ready = map
                .iter()
                .filter(|(_, v)| matches!(v, SlotState::Ready(_)))
                .count();
            if ready <= self.per_shard_capacity {
                return;
            }
            let now = self.tick.load(Ordering::Relaxed);
            let victim = map
                .iter()
                .filter_map(|(k, v)| match v {
                    SlotState::Ready(e) if k != keep => {
                        let stamp = e.last_used.load(Ordering::Relaxed);
                        let age = now.saturating_sub(stamp);
                        let score = e.build_ns as f64 / (age + 1) as f64;
                        Some((*k, score, stamp))
                    }
                    _ => None,
                })
                .min_by(|a, b| a.1.total_cmp(&b.1).then(a.2.cmp(&b.2)))
                .map(|(k, _, _)| k);
            match victim {
                Some(k) => {
                    map.remove(&k);
                    self.evictions.fetch_add(1, Ordering::Relaxed);
                }
                // Only the just-inserted entry remains: capacity 1 per
                // shard holds it.
                None => return,
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_autotune::{
        confirm_row_ptr, BinningScheme, KernelId, NativeCpuBackend, PlanConfig, SpmvPlan, Strategy,
    };
    use spmv_sparse::gen;
    use std::sync::atomic::AtomicUsize;

    impl<T: Scalar> PlanCache<T> {
        /// Look `a` up under `config`, computing its identity first.
        fn get_or_build(
            &self,
            a: &CsrMatrix<T>,
            config: &PlanConfig,
            build: impl FnOnce() -> Result<VerifiedPlan<T>, CacheError>,
        ) -> Result<Arc<VerifiedPlan<T>>, CacheError> {
            self.get_or_build_keyed(PatternIdentity::of(a, config), build)
        }

        /// [`get_or_build`](Self::get_or_build) charging a build the
        /// fixed `cost_ns` instead of its wall time, so eviction order
        /// does not depend on how busy the host is.
        fn get_or_build_at_cost(
            &self,
            a: &CsrMatrix<T>,
            config: &PlanConfig,
            cost_ns: u64,
            build: impl FnOnce() -> Result<VerifiedPlan<T>, CacheError>,
        ) -> Result<Arc<VerifiedPlan<T>>, CacheError> {
            let id = PatternIdentity::of(a, config);
            self.get_or_build_costed(id, || build().map(|plan| (plan, cost_ns)))
        }
    }

    fn compile(a: &CsrMatrix<f64>) -> Result<VerifiedPlan<f64>, CacheError> {
        let strategy = Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Serial; 8],
        };
        SpmvPlan::compile_with(
            a,
            strategy,
            Box::new(NativeCpuBackend::new()),
            PlanConfig::default(),
        )
        .verify(a)
        .map_err(|e| CacheError::Build(e.to_string()))
    }

    #[test]
    fn second_lookup_hits_and_shares_the_arc() {
        let cache = PlanCache::new(CacheConfig::default());
        let a = gen::random_uniform::<f64>(300, 300, 1, 5, 1);
        let cfg = PlanConfig::default();
        let p1 = cache.get_or_build(&a, &cfg, || compile(&a)).unwrap();
        let p2 = cache.get_or_build(&a, &cfg, || compile(&a)).unwrap();
        assert!(Arc::ptr_eq(&p1, &p2));
        let s = cache.stats();
        assert_eq!((s.hits, s.misses, s.builds), (1, 1, 1));
        assert_eq!(s.hit_rate(), 0.5);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn different_config_is_a_different_entry() {
        let cache = PlanCache::new(CacheConfig::default());
        let a = gen::random_uniform::<f64>(300, 300, 1, 5, 1);
        let cfg = PlanConfig::default();
        let packed_off = PlanConfig { pack: false, ..cfg };
        let p1 = cache.get_or_build(&a, &cfg, || compile(&a)).unwrap();
        let p2 = cache.get_or_build(&a, &packed_off, || compile(&a)).unwrap();
        assert!(!Arc::ptr_eq(&p1, &p2));
        assert_eq!(cache.len(), 2);
    }

    #[test]
    fn concurrent_misses_build_once() {
        let cache = Arc::new(PlanCache::new(CacheConfig::default()));
        let a = Arc::new(gen::random_uniform::<f64>(500, 500, 2, 8, 3));
        let cfg = PlanConfig::default();
        let built = Arc::new(AtomicUsize::new(0));
        let plans: Vec<_> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|_| {
                    let cache = Arc::clone(&cache);
                    let a = Arc::clone(&a);
                    let built = Arc::clone(&built);
                    s.spawn(move || {
                        cache
                            .get_or_build(&a, &cfg, || {
                                built.fetch_add(1, Ordering::SeqCst);
                                compile(&a)
                            })
                            .unwrap()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        assert_eq!(built.load(Ordering::SeqCst), 1, "single-flight violated");
        assert!(plans.windows(2).all(|w| Arc::ptr_eq(&w[0], &w[1])));
        let s = cache.stats();
        assert_eq!(s.builds, 1);
        assert_eq!(s.lookups(), 8);
    }

    /// The rebuild cost every entry of the LRU test is charged: equal
    /// costs make the cost-aware eviction score exact LRU (oldest stamp
    /// loses).
    const FLAT_COST_NS: u64 = 20_000_000;

    #[test]
    fn capacity_evicts_least_recently_used() {
        let cache = PlanCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
        });
        let cfg = PlanConfig::default();
        let mats: Vec<_> = (1..=3)
            .map(|seed| gen::random_uniform::<f64>(200 + seed, 200, 1, 4, seed as u64))
            .collect();
        let build = |m: &CsrMatrix<f64>| {
            cache
                .get_or_build_at_cost(m, &cfg, FLAT_COST_NS, || compile(m))
                .unwrap();
        };
        build(&mats[0]);
        build(&mats[1]);
        // Touch matrix 0 so matrix 1 is the LRU victim.
        build(&mats[0]);
        build(&mats[2]);
        assert_eq!(cache.len(), 2);
        assert_eq!(cache.stats().evictions, 1);
        // Matrix 0 survived (hit); matrix 1 was evicted (miss + build).
        let before = cache.stats().builds;
        cache
            .get_or_build(&mats[0], &cfg, || compile(&mats[0]))
            .unwrap();
        assert_eq!(cache.stats().builds, before);
        cache
            .get_or_build(&mats[1], &cfg, || compile(&mats[1]))
            .unwrap();
        assert_eq!(cache.stats().builds, before + 1);
    }

    #[test]
    fn build_errors_reach_the_caller_and_leave_no_tombstone() {
        let cache = PlanCache::new(CacheConfig::default());
        let a = gen::random_uniform::<f64>(100, 100, 1, 3, 9);
        let cfg = PlanConfig::default();
        let err = cache
            .get_or_build(&a, &cfg, || Err(CacheError::Build("boom".into())))
            .unwrap_err();
        assert_eq!(err, CacheError::Build("boom".into()));
        assert_eq!(cache.len(), 0);
        // The next lookup retries and can succeed.
        cache.get_or_build(&a, &cfg, || compile(&a)).unwrap();
        assert_eq!(cache.len(), 1);
    }

    /// The satellite regression test: FNV-1a row-pointer collisions are
    /// *forgeable*, and the confirm checksum is what stops a forged (or
    /// astronomically unlucky) collision from reusing the wrong plan.
    #[test]
    fn forged_fnv_collision_cannot_reuse_a_plan() {
        const BASIS: u64 = 0xcbf2_9ce4_8422_2325;
        const PRIME: u64 = 0x0000_0100_0000_01b3;
        let fnv = |xs: &[u64]| xs.iter().fold(BASIS, |h, &x| (h ^ x).wrapping_mul(PRIME));
        // Forge two distinct 4-element "row pointer" arrays with equal
        // FNV-1a: fix positions 0 and 3, pick a1 != b1, solve for b2.
        // One multiply-xor step is a bijection, so the construction is
        // exact, not probabilistic.
        let (a1, a2, b1) = (17u64, 29u64, 40_000u64);
        // h after absorbing position 0 (row_ptr[0] is always 0, and
        // `x ^ 0 == x`).
        let h1 = BASIS.wrapping_mul(PRIME);
        let b2 = a2 ^ (h1 ^ a1).wrapping_mul(PRIME) ^ (h1 ^ b1).wrapping_mul(PRIME);
        let forged_a = [0u64, a1, a2, 1000];
        let forged_b = [0u64, b1, b2, 1000];
        assert_ne!(forged_a, forged_b);
        assert_eq!(fnv(&forged_a), fnv(&forged_b), "forgery must collide");
        // The independent confirm checksum separates them.
        let as_usize = |xs: &[u64]| xs.iter().map(|&x| x as usize).collect::<Vec<_>>();
        let (ca, cb) = (
            confirm_row_ptr(&as_usize(&forged_a)),
            confirm_row_ptr(&as_usize(&forged_b)),
        );
        assert_ne!(ca, cb, "confirm checksum must separate the forgery");

        // Cache layer: two structurally different matrices whose full
        // PlanKey (adversarially) coincides must never share a plan.
        // The keyed entry point injects the forged situation — a real
        // `CsrMatrix` pair with colliding *valid* row pointers cannot be
        // constructed, which is part of the defense in depth, but the
        // cache must not rely on it.
        let cfg = PlanConfig::default();
        let cache = PlanCache::<f64>::new(CacheConfig::default());
        let ma = gen::random_uniform::<f64>(120, 120, 1, 4, 5);
        let mb = gen::random_uniform::<f64>(120, 120, 2, 6, 6);
        let (ida, idb) = (
            PatternIdentity::of(&ma, &cfg),
            PatternIdentity::of(&mb, &cfg),
        );
        assert_ne!(ida.key, idb.key, "distinct test matrices");
        // `mb` presented under `ma`'s key: the forged collision.
        let forged_b = PatternIdentity {
            key: ida.key,
            confirm: idb.confirm,
        };
        let p_a = cache.get_or_build_keyed(ida, || compile(&ma)).unwrap();
        let p_b = cache.get_or_build_keyed(forged_b, || compile(&mb)).unwrap();
        assert!(
            !Arc::ptr_eq(&p_a, &p_b),
            "colliding key reused the wrong plan"
        );
        assert_eq!(
            p_b.fingerprint(),
            &PatternFingerprint::of(&mb),
            "the second lookup must get a plan for its own matrix"
        );
        assert_eq!(cache.stats().collisions, 1);
        // And the replacement is a normal entry: same confirm hits now.
        let p_b2 = cache.get_or_build_keyed(forged_b, || compile(&mb)).unwrap();
        assert!(Arc::ptr_eq(&p_b, &p_b2));

        // The same forgery on a pair that differs only in `col_idx`:
        // circulant bands {-1, 0, +1} and {-7, 0, +7} share `row_ptr`, so
        // every row-pointer hash agrees. The confirm checksum covers the
        // columns and still separates them under a shared key.
        let (b1, b7) = (circulant(64, 1), circulant(64, 7));
        assert_eq!(b1.row_ptr(), b7.row_ptr());
        assert_eq!(PatternFingerprint::of(&b1), PatternFingerprint::of(&b7));
        let (id1, id7) = (
            PatternIdentity::of(&b1, &cfg),
            PatternIdentity::of(&b7, &cfg),
        );
        assert_ne!(id1.confirm, id7.confirm, "confirm must cover col_idx");
        assert_ne!(id1.key.columns, id7.key.columns, "key must cover col_idx");
        let p_1 = cache.get_or_build_keyed(id1, || compile(&b1)).unwrap();
        let p_7 = cache
            .get_or_build_keyed(
                PatternIdentity {
                    key: id1.key,
                    confirm: id7.confirm,
                },
                || compile(&b7),
            )
            .unwrap();
        assert!(
            !Arc::ptr_eq(&p_1, &p_7),
            "columns-only forgery reused a plan"
        );
        assert_eq!(cache.stats().collisions, 2);
        let x: Vec<f64> = (0..64).map(|i| i as f64).collect();
        let (mut got, mut want) = (vec![0.0; 64], vec![0.0; 64]);
        p_7.execute_unchecked(&b7, &x, &mut got).unwrap();
        b7.spmv_seq(&x, &mut want).unwrap();
        assert_eq!(got, want, "the rebuilt plan must serve its own columns");
    }

    /// `n × n` circulant band with offsets `{-d, 0, +d}` (mod `n`): every
    /// row holds three entries, so `row_ptr` is the same for every `d`.
    fn circulant(n: usize, d: usize) -> CsrMatrix<f64> {
        let mut col_idx = Vec::with_capacity(3 * n);
        for i in 0..n {
            let mut cols = [(i + n - d) % n, i, (i + d) % n].map(|c| c as u32);
            cols.sort_unstable();
            col_idx.extend(cols);
        }
        let row_ptr = (0..=n).map(|i| 3 * i).collect();
        let values = (0..3 * n).map(|k| (k % 5) as f64 - 2.0).collect();
        CsrMatrix::from_parts(n, n, row_ptr, col_idx, values).unwrap()
    }

    /// The cost-aware satellite regression: an expensive-to-rebuild plan
    /// must survive a scan of cheap one-shot plans that would have
    /// flushed it under pure LRU.
    #[test]
    fn expensive_plan_survives_a_scan_of_cheap_one_shots() {
        let cache = PlanCache::new(CacheConfig {
            shards: 1,
            capacity: 2,
        });
        let cfg = PlanConfig::default();
        let pricey = gen::random_uniform::<f64>(400, 400, 2, 6, 42);
        // A 100 ms rebuild cost against 0.1 ms ones, charged rather than
        // measured, so no stall of the host can reorder them.
        cache
            .get_or_build_at_cost(&pricey, &cfg, 100_000_000, || compile(&pricey))
            .unwrap();
        // A scan of cheap plans, each requested exactly once and never
        // again. Pure LRU would evict the (now oldest) expensive entry
        // on the second scan insert; cost-aware eviction must keep it
        // and churn the cheap entries among themselves.
        let scan: Vec<_> = (0..5)
            .map(|seed| gen::random_uniform::<f64>(60 + seed, 60, 1, 3, seed as u64))
            .collect();
        for m in &scan {
            cache
                .get_or_build_at_cost(m, &cfg, 100_000, || compile(m))
                .unwrap();
        }
        assert_eq!(cache.len(), 2);
        assert!(cache.stats().evictions >= 4);
        // The expensive plan is still served from cache: no new build.
        let before = cache.stats().builds;
        cache
            .get_or_build(&pricey, &cfg, || compile(&pricey))
            .unwrap();
        assert_eq!(
            cache.stats().builds,
            before,
            "expensive plan was evicted by the cheap scan"
        );
    }
}
