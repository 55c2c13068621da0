//! Admission-queue serving: deficit round-robin fairness and SpMM
//! coalescing over the concurrent plan cache.
//!
//! The server accepts single-vector requests tagged `(tenant, matrix,
//! deadline)` and turns same-matrix requests into one SpMM launch: the
//! plan/execute split makes a `K`-column batch cost barely more than a
//! single `y = Ax` (the pattern walk amortizes across columns), so at
//! saturation a coalesced server clears the queue `~K×` faster than a
//! one-at-a-time loop. Batched results are **bit-for-bit** what the
//! standalone single-vector path produces (a repo-wide invariant of
//! `execute_batch`), so coalescing is invisible to tenants.
//!
//! Scheduling is two-level:
//!
//! 1. **Deficit round-robin across tenants.** Every backlogged tenant
//!    holds a deficit counter; dispatching a request costs one unit.
//!    When no backlogged tenant has deficit left, every backlogged
//!    tenant is topped up by [`ServeConfig::quantum`] — a new round.
//!    Among eligible tenants the dispatcher picks the one whose head
//!    request has the **earliest deadline** (ties: lowest tenant id),
//!    so fairness is long-run per-tenant throughput while short-run
//!    order respects urgency.
//! 2. **Same-matrix coalescing.** The selected request anchors a batch.
//!    The dispatcher then pulls *riders* — queued requests for the same
//!    matrix, from any tenant, each charged one deficit unit (possibly
//!    driving the counter negative, which the next quantum repays) —
//!    until the batch holds [`ServeConfig::max_batch`] columns or the
//!    anchor has waited [`ServeConfig::coalesce_window`] since arrival.
//!    The window bounds the latency cost of coalescing: an anchor never
//!    waits past `enqueued + coalesce_window` for company.
//!
//! The dispatcher's sleep/wake protocol — re-check the queue *after*
//! every dispatch and only then sleep, with the "going to sleep"
//! decision made atomically under the queue lock — is exactly the
//! `AdmissionModel` interleaving exhaustively checked in the analysis
//! crate (`spmv-lint`): an arrival can never slip between "batch
//! dispatched" and "dispatcher asleep" and be stranded.
//!
//! A batch costs the kernel plus one pass over its inputs and one over
//! its outputs; nothing per batch rescans the pattern or allocates a
//! block:
//!
//! * [`SpmvServer::register_matrix`] computes the matrix's
//!   [`PatternIdentity`] — cache key and confirm checksum, both covering
//!   `row_ptr` and `col_idx` — once, outside the registry lock. Every
//!   batch looks its plan up with that stored identity (an O(1) hit).
//! * The dispatcher owns one `x` and one `y` [`DenseBlock`] and reshapes
//!   them for each batch, reusing their storage. Request vectors are
//!   gathered straight into `x` by a width-specialised transpose. `y` is
//!   not zeroed: the plan's verified covering proof guarantees the
//!   kernel writes every `(row, column)` element.
//! * Each output column is scattered back into its request's own input
//!   `Vec` (spent once the gather is done), which becomes the
//!   [`Response`]'s `y`; [`Ticket::wait`] hands the response out by move.
//!
//! Value refreshes ride the `values_id` mechanism: [`SpmvServer::
//! update_values`] swaps the registered matrix for a value-updated
//! clone (same pattern, new id, same identity), and cached plans
//! re-gather their packed value slabs lazily on next execute — no plan
//! rebuild, no cache invalidation. The clone is built outside the
//! registry lock, which is held only for the pointer swap.

use crate::cache::{CacheConfig, CacheError, CacheStats, PatternIdentity, PlanCache};
use spmv_autotune::{NativeCpuBackend, PlanConfig, SpmvPlan, Strategy};
use spmv_sparse::{CsrMatrix, DenseBlock, Scalar};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard, PoisonError, RwLock};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Tenant identity; fairness is accounted per tenant.
pub type TenantId = u32;

/// Registered-matrix identity; coalescing groups by matrix.
pub type MatrixId = u64;

/// Why a request (or a registry call) failed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum ServeError {
    /// The request names a matrix that was never registered.
    UnknownMatrix(MatrixId),
    /// The request vector length does not match the matrix width.
    DimensionMismatch {
        matrix: MatrixId,
        expected: usize,
        got: usize,
    },
    /// Plan compile/verify failed (shared by every request that joined
    /// the build).
    Plan(String),
    /// The batched launch itself failed.
    Exec(String),
    /// The server is shutting down and no longer admits requests.
    ShuttingDown,
}

impl std::fmt::Display for ServeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ServeError::UnknownMatrix(id) => write!(f, "unknown matrix id {id}"),
            ServeError::DimensionMismatch {
                matrix,
                expected,
                got,
            } => write!(
                f,
                "matrix {matrix} expects a length-{expected} vector, got {got}"
            ),
            ServeError::Plan(msg) => write!(f, "plan build failed: {msg}"),
            ServeError::Exec(msg) => write!(f, "batched execute failed: {msg}"),
            ServeError::ShuttingDown => write!(f, "server is shutting down"),
        }
    }
}

impl std::error::Error for ServeError {}

/// Serving knobs. Defaults suit a latency-sensitive multi-tenant mix;
/// `max_batch: 1` plus a zero window degrades to a one-at-a-time
/// baseline server (the bench's control arm).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Maximum SpMM batch width; a full batch dispatches immediately.
    pub max_batch: usize,
    /// How long an anchor request may wait (from its arrival) for
    /// same-matrix riders before the batch dispatches anyway.
    pub coalesce_window: Duration,
    /// Deficit round-robin top-up per round: how many requests a
    /// backlogged tenant may dispatch before yielding the round.
    pub quantum: u32,
    /// Worker threads for the execution backend (0 = backend default).
    pub workers: usize,
    /// Plan cache sizing.
    pub cache: CacheConfig,
    /// Configuration every served plan is compiled with (part of the
    /// cache key).
    pub plan: PlanConfig,
    /// Configures nothing; kept for callers that still set it.
    pub refine: RefineConfig,
}

/// Configures nothing: the server chooses every plan at compile time.
/// The name stays only until a benchmark change drops perfbench's use
/// of it.
#[derive(Clone, Copy, Debug, Default)]
pub struct RefineConfig;

impl Default for ServeConfig {
    fn default() -> Self {
        Self {
            max_batch: 8,
            coalesce_window: Duration::from_micros(200),
            quantum: 4,
            workers: 0,
            cache: CacheConfig::default(),
            plan: PlanConfig::default(),
            refine: Default::default(),
        }
    }
}

/// A completed request: the result column plus how it was served.
#[derive(Clone, Debug)]
pub struct Response<T> {
    /// `y = A x` for this request's vector — bit-for-bit equal to a
    /// standalone single-vector execute through the same plan.
    pub y: Vec<T>,
    /// Width of the SpMM batch this request rode in (1 = unbatched).
    pub batch_k: usize,
    /// When the batch's launch finished.
    pub completed: Instant,
}

struct TicketInner<T> {
    slot: Mutex<Option<Result<Response<T>, ServeError>>>,
    cv: Condvar,
}

impl<T> TicketInner<T> {
    fn new() -> Self {
        Self {
            slot: Mutex::new(None),
            cv: Condvar::new(),
        }
    }

    fn resolve(&self, r: Result<Response<T>, ServeError>) {
        let mut slot = self.slot.lock().unwrap();
        *slot = Some(r);
        self.cv.notify_all();
    }
}

/// Handle for one admitted request; [`wait`](Ticket::wait) blocks until
/// the batch it rides in completes.
pub struct Ticket<T> {
    inner: Arc<TicketInner<T>>,
}

impl<T> Ticket<T> {
    /// Block until the request is served (or failed). The response is
    /// moved out of the ticket, not copied.
    pub fn wait(self) -> Result<Response<T>, ServeError> {
        let mut slot = self.inner.slot.lock().unwrap();
        loop {
            if let Some(result) = slot.take() {
                return result;
            }
            slot = self.inner.cv.wait(slot).unwrap();
        }
    }
}

struct Pending<T> {
    matrix: MatrixId,
    x: Vec<T>,
    deadline: Instant,
    enqueued: Instant,
    ticket: Arc<TicketInner<T>>,
}

struct QueueState<T> {
    queues: BTreeMap<TenantId, VecDeque<Pending<T>>>,
    deficits: HashMap<TenantId, i64>,
    shutdown: bool,
}

impl<T> QueueState<T> {
    fn total_queued(&self) -> usize {
        self.queues.values().map(|q| q.len()).sum()
    }

    /// DRR tenant selection: among backlogged tenants with deficit
    /// remaining, the one whose head request has the earliest deadline
    /// (tie: lowest tenant id). Refills every backlogged tenant's
    /// deficit by `quantum` when none is eligible — a new round.
    fn select_tenant(&mut self, quantum: i64) -> TenantId {
        loop {
            let pick = self
                .queues
                .iter()
                .filter(|(t, q)| !q.is_empty() && self.deficits[*t] > 0)
                .min_by_key(|(t, q)| (q.front().unwrap().deadline, **t))
                .map(|(t, _)| *t);
            if let Some(t) = pick {
                return t;
            }
            debug_assert!(self.total_queued() > 0, "select_tenant on empty queues");
            for (t, q) in &self.queues {
                if !q.is_empty() {
                    *self.deficits.entry(*t).or_insert(0) += quantum;
                }
            }
        }
    }

    /// Pull queued same-matrix requests into `batch` (from any tenant,
    /// any queue position — requests are independent, so out-of-order
    /// completion within a tenant is observable only as lower latency).
    /// Each rider is charged one deficit unit; the counter may go
    /// negative and is repaid by future quanta.
    ///
    /// Tenants are visited in ascending id order (the map's order) and
    /// each queue front to back, so when more riders wait than the batch
    /// has room for, the lowest tenant ids' oldest requests ride. A pull
    /// allocates nothing; each queue gives up its riders in one rotation
    /// pass.
    fn pull_riders(&mut self, matrix: MatrixId, batch: &mut Vec<Pending<T>>, max_batch: usize) {
        for (&t, queue) in self.queues.iter_mut() {
            if batch.len() >= max_batch {
                return;
            }
            let Some(first) = queue.iter().position(|p| p.matrix == matrix) else {
                continue;
            };
            // Requests ahead of the first rider move to the back unchanged;
            // the rest pass the front once, riders into the batch and the
            // others back behind them, so queue order is kept.
            queue.rotate_left(first);
            let before = batch.len();
            for _ in first..queue.len() {
                let p = queue.pop_front().expect("rotation stays in bounds");
                if p.matrix == matrix && batch.len() < max_batch {
                    batch.push(p);
                } else {
                    queue.push_back(p);
                }
            }
            *self.deficits.entry(t).or_insert(0) -= (batch.len() - before) as i64;
        }
    }
}

struct Registered<T: Scalar> {
    matrix: Arc<CsrMatrix<T>>,
    strategy: Strategy,
    /// `matrix`'s pattern identity under the server's plan config,
    /// computed once at registration; value refreshes carry it over.
    identity: PatternIdentity,
}

struct Inner<T: Scalar> {
    config: ServeConfig,
    /// Entries are replaced whole (`Arc` swap), never mutated, so a
    /// batch holds one consistent `(matrix, identity)` pair.
    registry: RwLock<HashMap<MatrixId, Arc<Registered<T>>>>,
    /// Serialises registry replacements: held by a value refresh from
    /// reading its base entry to swapping in the clone, and by a
    /// registration for its insert, so no refresh is lost or applied to
    /// a replaced matrix.
    replace: Mutex<()>,
    cache: PlanCache<T>,
    queue: Mutex<QueueState<T>>,
    arrivals: Condvar,
    submitted: AtomicU64,
    completed: AtomicU64,
    batches: AtomicU64,
    /// `occupancy[k-1]` counts batches dispatched with width `k`.
    occupancy: Vec<AtomicU64>,
}

impl<T: Scalar> Inner<T> {
    /// Take the registry-replacement lock. It guards no data, so a
    /// refresh whose value function panicked leaves nothing to repair.
    fn serialise_replacements(&self) -> MutexGuard<'_, ()> {
        self.replace.lock().unwrap_or_else(PoisonError::into_inner)
    }

    /// The current registry entry for `id`.
    fn entry(&self, id: MatrixId) -> Result<Arc<Registered<T>>, ServeError> {
        let reg = self.registry.read().unwrap();
        reg.get(&id)
            .map(Arc::clone)
            .ok_or(ServeError::UnknownMatrix(id))
    }
}

/// Snapshot of serving counters ([`SpmvServer::stats`]).
#[derive(Clone, Debug)]
pub struct ServeStats {
    /// Requests admitted.
    pub submitted: u64,
    /// Requests served successfully.
    pub completed: u64,
    /// SpMM batches dispatched.
    pub batches: u64,
    /// Batch-width histogram: `occupancy[k-1]` = batches of width `k`.
    pub occupancy: Vec<u64>,
    /// Plan-cache counters.
    pub cache: CacheStats,
}

impl ServeStats {
    /// Mean columns per dispatched batch (1.0 = no coalescing won).
    pub fn mean_occupancy(&self) -> f64 {
        if self.batches == 0 {
            return 0.0;
        }
        let served: u64 = self
            .occupancy
            .iter()
            .enumerate()
            .map(|(i, &c)| (i as u64 + 1) * c)
            .sum();
        served as f64 / self.batches as f64
    }
}

/// Multi-tenant SpMV server: matrix registry, plan cache, admission
/// queue, and one dispatcher thread. See the module docs for the
/// scheduling contract.
pub struct SpmvServer<T: Scalar> {
    inner: Arc<Inner<T>>,
    dispatcher: Option<JoinHandle<()>>,
}

impl<T: Scalar> SpmvServer<T> {
    /// Start a server (spawns the dispatcher thread).
    pub fn start(config: ServeConfig) -> Self {
        let max_batch = config.max_batch.max(1);
        let config = ServeConfig {
            max_batch,
            quantum: config.quantum.max(1),
            ..config
        };
        let cache = PlanCache::new(config.cache);
        let inner = Arc::new(Inner {
            occupancy: (0..max_batch).map(|_| AtomicU64::new(0)).collect(),
            config,
            registry: RwLock::new(HashMap::new()),
            replace: Mutex::new(()),
            cache,
            queue: Mutex::new(QueueState {
                queues: BTreeMap::new(),
                deficits: HashMap::new(),
                shutdown: false,
            }),
            arrivals: Condvar::new(),
            submitted: AtomicU64::new(0),
            completed: AtomicU64::new(0),
            batches: AtomicU64::new(0),
        });
        let worker = Arc::clone(&inner);
        let dispatcher = std::thread::Builder::new()
            .name("spmv-serve-dispatch".into())
            .spawn(move || dispatcher_loop(worker))
            .expect("spawn dispatcher");
        Self {
            inner,
            dispatcher: Some(dispatcher),
        }
    }

    /// Register (or replace) a matrix under `id`. Requests may name it
    /// immediately; its plan is built on first use and cached by
    /// pattern, so replacing a matrix with an identical pattern keeps
    /// the cached plan warm. The pattern identity (O(m + nnz)) is
    /// computed here, before the registry lock is taken.
    pub fn register_matrix(&self, id: MatrixId, a: CsrMatrix<T>, strategy: Strategy) {
        let entry = Arc::new(Registered {
            identity: PatternIdentity::of(&a, &self.inner.config.plan),
            matrix: Arc::new(a),
            strategy,
        });
        let _serial = self.inner.serialise_replacements();
        self.inner.registry.write().unwrap().insert(id, entry);
    }

    /// Refresh the numeric values of a registered matrix (same pattern):
    /// value `k` becomes `f(k)`. Cached plans are *not* invalidated: the
    /// swapped-in clone carries a fresh `values_id` and the same pattern
    /// identity, and packed value slabs re-gather lazily on the next
    /// execute.
    ///
    /// The clone is built outside the registry lock; the write lock
    /// covers only the `Arc` swap, so dispatch never stalls behind a
    /// refresh. Refreshes and registrations replace entries one at a
    /// time, so every served version is one whole refresh, the last
    /// refresh wins, and a refresh never overwrites a newer registration.
    pub fn update_values(&self, id: MatrixId, f: impl FnMut(usize) -> T) -> Result<(), ServeError> {
        let _serial = self.inner.serialise_replacements();
        let base = self.inner.entry(id)?;
        let mut refreshed = (*base.matrix).clone();
        refreshed.fill_values_with(f);
        let entry = Arc::new(Registered {
            matrix: Arc::new(refreshed),
            strategy: base.strategy.clone(),
            identity: base.identity,
        });
        self.inner.registry.write().unwrap().insert(id, entry);
        Ok(())
    }

    /// Admit a request: `y = A_matrix · x` for `tenant`, scheduled no
    /// later than its DRR turn and preferentially by `deadline`.
    /// Validation (matrix known, dimensions right) happens here, so a
    /// ticket always resolves with an execution outcome.
    pub fn submit(
        &self,
        tenant: TenantId,
        matrix: MatrixId,
        x: Vec<T>,
        deadline: Instant,
    ) -> Result<Ticket<T>, ServeError> {
        let expected = self.inner.entry(matrix)?.matrix.n_cols();
        if x.len() != expected {
            return Err(ServeError::DimensionMismatch {
                matrix,
                expected,
                got: x.len(),
            });
        }
        let ticket = Arc::new(TicketInner::new());
        {
            let mut q = self.inner.queue.lock().unwrap();
            if q.shutdown {
                return Err(ServeError::ShuttingDown);
            }
            q.deficits.entry(tenant).or_insert(0);
            q.queues.entry(tenant).or_default().push_back(Pending {
                matrix,
                x,
                deadline,
                enqueued: Instant::now(),
                ticket: Arc::clone(&ticket),
            });
            self.inner.submitted.fetch_add(1, Ordering::Relaxed);
            // Wake the dispatcher: a new arrival can complete a batch
            // or end an idle sleep. (Never lost: the dispatcher only
            // sleeps while holding this lock — the AdmissionModel
            // invariant.)
            self.inner.arrivals.notify_all();
        }
        Ok(Ticket { inner: ticket })
    }

    /// Serving counters (dispatch side quiesced = exact).
    pub fn stats(&self) -> ServeStats {
        ServeStats {
            submitted: self.inner.submitted.load(Ordering::Relaxed),
            completed: self.inner.completed.load(Ordering::Relaxed),
            batches: self.inner.batches.load(Ordering::Relaxed),
            occupancy: self
                .inner
                .occupancy
                .iter()
                .map(|c| c.load(Ordering::Relaxed))
                .collect(),
            cache: self.inner.cache.stats(),
        }
    }

    /// Stop admitting, drain every queued request, and join the
    /// dispatcher thread. Tickets submitted before the call all resolve.
    pub fn shutdown(mut self) {
        self.begin_shutdown();
        self.join_dispatcher();
    }

    fn begin_shutdown(&self) {
        let mut q = self.inner.queue.lock().unwrap();
        q.shutdown = true;
        self.inner.arrivals.notify_all();
    }

    fn join_dispatcher(&mut self) {
        if let Some(h) = self.dispatcher.take() {
            let _ = h.join();
        }
    }
}

impl<T: Scalar> Drop for SpmvServer<T> {
    fn drop(&mut self) {
        if self.dispatcher.is_some() {
            self.begin_shutdown();
            self.join_dispatcher();
        }
    }
}

/// The dispatcher: wait for work → select anchor by DRR/EDF → coalesce
/// riders within the window → execute the batch with no queue lock held
/// → loop (re-checking the queue *before* the next sleep, so a request
/// that arrived during the execute is picked up immediately).
fn dispatcher_loop<T: Scalar>(inner: Arc<Inner<T>>) {
    // The batch blocks, reshaped per batch: their storage grows to the
    // largest batch served and is then reused.
    let mut blocks = (DenseBlock::zeros(0, 0), DenseBlock::zeros(0, 0));
    loop {
        let (matrix, batch) = {
            let mut q = inner.queue.lock().unwrap();
            loop {
                if q.total_queued() > 0 {
                    break;
                }
                if q.shutdown {
                    return;
                }
                // Sleep decision is made while holding the queue lock;
                // submit() can't enqueue-and-notify in the gap. This is
                // the atomicity the AdmissionModel proves necessary.
                q = inner.arrivals.wait(q).unwrap();
            }
            let quantum = i64::from(inner.config.quantum);
            let tenant = q.select_tenant(quantum);
            let anchor = q.queues.get_mut(&tenant).unwrap().pop_front().unwrap();
            *q.deficits.entry(tenant).or_insert(0) -= 1;
            let matrix = anchor.matrix;
            let window_ends = anchor.enqueued + inner.config.coalesce_window;
            let mut batch = vec![anchor];
            loop {
                q.pull_riders(matrix, &mut batch, inner.config.max_batch);
                if batch.len() >= inner.config.max_batch || q.shutdown {
                    break;
                }
                let now = Instant::now();
                if now >= window_ends {
                    break;
                }
                let (guard, _timeout) = inner.arrivals.wait_timeout(q, window_ends - now).unwrap();
                q = guard;
            }
            (matrix, batch)
        };
        serve_batch(&inner, matrix, batch, &mut blocks);
    }
}

fn fail_all<'a, T: 'a>(
    tickets: impl IntoIterator<Item = &'a Arc<TicketInner<T>>>,
    err: ServeError,
) {
    for ticket in tickets {
        ticket.resolve(Err(err.clone()));
    }
}

/// Execute one coalesced batch and resolve its tickets. Runs with no
/// queue lock held; the plan comes from the cache by the identity the
/// registration stored (single-flight cold, wait-free warm). `x` and `y`
/// are the dispatcher's reused blocks; their contents on entry are
/// stale and never read.
fn serve_batch<T: Scalar>(
    inner: &Inner<T>,
    matrix: MatrixId,
    batch: Vec<Pending<T>>,
    (x, y): &mut (DenseBlock<T>, DenseBlock<T>),
) {
    let entry = match inner.entry(matrix) {
        Ok(entry) => entry,
        Err(e) => {
            fail_all(batch.iter().map(|p| &p.ticket), e);
            return;
        }
    };
    let a = entry.matrix.as_ref();

    // Lengths were checked at submit, against the registration current
    // then. A request admitted before `register_matrix` replaced the id
    // with a matrix of another width fails here; the rest are served.
    let mut columns = Vec::with_capacity(batch.len());
    let mut tickets = Vec::with_capacity(batch.len());
    for p in batch {
        if p.x.len() == a.n_cols() {
            columns.push(p.x);
            tickets.push(p.ticket);
        } else {
            p.ticket.resolve(Err(ServeError::DimensionMismatch {
                matrix,
                expected: a.n_cols(),
                got: p.x.len(),
            }));
        }
    }
    let k = columns.len();
    if k == 0 {
        return;
    }
    inner.batches.fetch_add(1, Ordering::Relaxed);
    inner.occupancy[(k - 1).min(inner.occupancy.len() - 1)].fetch_add(1, Ordering::Relaxed);

    let plan = inner.cache.get_or_build_keyed(entry.identity, || {
        let backend = if inner.config.workers > 0 {
            NativeCpuBackend::new().with_workers(inner.config.workers)
        } else {
            NativeCpuBackend::new()
        };
        SpmvPlan::compile_with(
            a,
            entry.strategy.clone(),
            Box::new(backend),
            inner.config.plan,
        )
        .verify(a)
        .map_err(|e| CacheError::Build(e.to_string()))
    });
    let plan = match plan {
        Ok(p) => p,
        Err(e) => {
            fail_all(&tickets, ServeError::Plan(e.to_string()));
            return;
        }
    };

    x.reshape(a.n_cols(), k);
    x.set_columns(&columns);
    // No zeroing: the verified plan writes every element of `y`.
    y.reshape(a.n_rows(), k);
    match plan.execute_batch_unchecked(a, x, y) {
        Ok(_) => {
            let completed = Instant::now();
            // The request vectors are spent: each takes its output column.
            for col in &mut columns {
                col.resize(a.n_rows(), T::ZERO);
            }
            y.copy_columns_to(&mut columns);
            // Count before resolving: a ticket-holder reading stats()
            // right after wait() must see its own completion.
            inner.completed.fetch_add(k as u64, Ordering::Relaxed);
            for (ticket, y) in tickets.iter().zip(columns) {
                ticket.resolve(Ok(Response {
                    y,
                    batch_k: k,
                    completed,
                }));
            }
        }
        Err(e) => fail_all(&tickets, ServeError::Exec(e.to_string())),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use spmv_autotune::{BinningScheme, KernelId};
    use spmv_sparse::gen;

    fn strategy() -> Strategy {
        Strategy {
            binning: BinningScheme::Coarse { u: 10 },
            kernels: vec![KernelId::Serial; 8],
        }
    }

    fn far_deadline() -> Instant {
        Instant::now() + Duration::from_secs(60)
    }

    #[test]
    fn round_trip_matches_direct_execute() {
        let server = SpmvServer::start(ServeConfig::default());
        let a = gen::random_uniform::<f64>(400, 380, 1, 6, 11);
        let x: Vec<f64> = (0..380).map(|i| (i % 13) as f64 * 0.25 - 1.0).collect();
        let mut expect = vec![0.0; 400];
        SpmvPlan::compile_with(
            &a,
            strategy(),
            Box::new(NativeCpuBackend::new()),
            PlanConfig::default(),
        )
        .verify(&a)
        .unwrap()
        .execute(&a, &x, &mut expect)
        .unwrap();

        server.register_matrix(7, a, strategy());
        let resp = server
            .submit(0, 7, x, far_deadline())
            .unwrap()
            .wait()
            .unwrap();
        assert_eq!(resp.y, expect, "served response must be bit-for-bit");
        server.shutdown();
    }

    #[test]
    fn submit_validates_matrix_and_dimensions() {
        let server = SpmvServer::start(ServeConfig::default());
        let a = gen::random_uniform::<f64>(50, 40, 1, 3, 2);
        server.register_matrix(1, a, strategy());
        assert_eq!(
            server
                .submit(0, 99, vec![0.0; 40], far_deadline())
                .err()
                .unwrap(),
            ServeError::UnknownMatrix(99)
        );
        assert_eq!(
            server
                .submit(0, 1, vec![0.0; 41], far_deadline())
                .err()
                .unwrap(),
            ServeError::DimensionMismatch {
                matrix: 1,
                expected: 40,
                got: 41
            }
        );
    }

    #[test]
    fn same_matrix_requests_coalesce_into_one_batch() {
        // A wide window plus exactly max_batch requests: the anchor
        // waits, riders join, and the full batch dispatches early.
        let server = SpmvServer::start(ServeConfig {
            max_batch: 8,
            coalesce_window: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        let a = gen::random_uniform::<f64>(300, 300, 1, 5, 3);
        server.register_matrix(1, a, strategy());
        // Warm the plan so the first dispatch doesn't spend its window
        // compiling.
        server
            .submit(0, 1, vec![1.0; 300], far_deadline())
            .unwrap()
            .wait()
            .unwrap();
        let tickets: Vec<_> = (0..8)
            .map(|t| {
                server
                    .submit(t, 1, vec![t as f64; 300], far_deadline())
                    .unwrap()
            })
            .collect();
        for t in tickets {
            let r = t.wait().unwrap();
            assert!(r.batch_k >= 1);
        }
        let stats = server.stats();
        assert_eq!(stats.completed, 9);
        assert!(
            stats.occupancy.iter().skip(1).any(|&c| c > 0),
            "no coalescing at all under a 5s window: {:?}",
            stats.occupancy
        );
        assert_eq!(stats.cache.builds, 1, "one matrix, one plan build");
        server.shutdown();
    }

    #[test]
    fn drr_prefers_earliest_deadline_and_refills_rounds() {
        let now = Instant::now();
        let pending = |matrix: MatrixId, deadline: Instant| Pending::<f64> {
            matrix,
            x: vec![],
            deadline,
            enqueued: now,
            ticket: Arc::new(TicketInner::new()),
        };
        let mut q = QueueState {
            queues: BTreeMap::new(),
            deficits: HashMap::new(),
            shutdown: false,
        };
        let late = now + Duration::from_millis(50);
        let soon = now + Duration::from_millis(5);
        q.queues.entry(3).or_default().push_back(pending(1, late));
        q.queues.entry(7).or_default().push_back(pending(1, soon));
        q.deficits.insert(3, 0);
        q.deficits.insert(7, 0);
        // Both start exhausted: selection refills both (one round) and
        // picks the earlier deadline.
        assert_eq!(q.select_tenant(2), 7);
        assert_eq!(q.deficits[&3], 2);
        assert_eq!(q.deficits[&7], 2);
        // Exhaust tenant 7's deficit: tenant 3 wins despite the later
        // deadline — that's the fairness half.
        *q.deficits.get_mut(&7).unwrap() = 0;
        assert_eq!(q.select_tenant(2), 3);
        // Equal deadlines tie-break on the lower tenant id.
        q.queues.entry(2).or_default().push_back(pending(1, late));
        q.deficits.insert(2, 1);
        assert_eq!(q.select_tenant(2), 2);
    }

    #[test]
    fn riders_are_charged_deficit_and_capped_at_max_batch() {
        let now = Instant::now();
        let mut q = QueueState {
            queues: BTreeMap::new(),
            deficits: HashMap::new(),
            shutdown: false,
        };
        for t in 0..3u32 {
            for _ in 0..4 {
                q.queues.entry(t).or_default().push_back(Pending::<f64> {
                    matrix: 1,
                    x: vec![],
                    deadline: now,
                    enqueued: now,
                    ticket: Arc::new(TicketInner::new()),
                });
            }
            q.deficits.insert(t, 1);
        }
        let mut batch = Vec::new();
        q.pull_riders(1, &mut batch, 8);
        assert_eq!(batch.len(), 8);
        assert_eq!(q.total_queued(), 4);
        // Tenants 0 and 1 each contributed 4 riders (charged below
        // zero); tenant 2 untouched.
        assert_eq!(q.deficits[&0], -3);
        assert_eq!(q.deficits[&1], -3);
        assert_eq!(q.deficits[&2], 1);
    }

    #[test]
    fn shutdown_drains_queued_requests() {
        let server = SpmvServer::start(ServeConfig {
            coalesce_window: Duration::from_millis(20),
            ..ServeConfig::default()
        });
        let a = gen::random_uniform::<f64>(200, 200, 1, 4, 5);
        server.register_matrix(1, a, strategy());
        let tickets: Vec<_> = (0..12)
            .map(|t| {
                server
                    .submit(t % 3, 1, vec![1.0 + t as f64; 200], far_deadline())
                    .unwrap()
            })
            .collect();
        server.shutdown();
        for t in tickets {
            t.wait().expect("shutdown must drain, not drop, requests");
        }
    }

    /// Two threads refresh one id at once while requests flow: every
    /// response is `A_v x` for exactly one whole version `v`, and the
    /// last refresh wins.
    #[test]
    fn concurrent_refreshes_serve_whole_versions() {
        const PER_THREAD: u64 = 12;
        let values = |v: u64| move |k: usize| ((k as u64 * 13 + v * 7) % 23) as f64 / 8.0 - 1.0;
        let server = SpmvServer::start(ServeConfig {
            coalesce_window: Duration::from_micros(50),
            ..ServeConfig::default()
        });
        let a = gen::random_uniform::<f64>(3_000, 3_000, 2, 10, 21);
        let x: Vec<f64> = (0..a.n_cols()).map(|i| (i % 11) as f64 - 5.0).collect();
        // Version 0 is the registered matrix; thread t writes versions
        // t * PER_THREAD + 1 ..= (t + 1) * PER_THREAD.
        let plan = SpmvPlan::compile_with(
            &a,
            strategy(),
            Box::new(NativeCpuBackend::new()),
            PlanConfig::default(),
        )
        .verify(&a)
        .unwrap();
        let expected: Vec<Vec<f64>> = (0..=2 * PER_THREAD)
            .map(|v| {
                let mut m = a.clone();
                if v > 0 {
                    m.fill_values_with(values(v));
                }
                let mut y = vec![0.0; m.n_rows()];
                plan.execute(&m, &x, &mut y).unwrap();
                y
            })
            .collect();
        server.register_matrix(1, a, strategy());

        let start = std::sync::Barrier::new(3);
        let running = std::sync::atomic::AtomicUsize::new(2);
        std::thread::scope(|s| {
            for t in 0..2u64 {
                let (server, start, running) = (&server, &start, &running);
                s.spawn(move || {
                    start.wait();
                    for v in t * PER_THREAD + 1..=(t + 1) * PER_THREAD {
                        server.update_values(1, values(v)).unwrap();
                    }
                    running.fetch_sub(1, Ordering::SeqCst);
                });
            }
            start.wait();
            let mut served = 0;
            while running.load(Ordering::SeqCst) > 0 || served < 8 {
                let tickets: Vec<_> = (0..4)
                    .map(|t| server.submit(t, 1, x.clone(), far_deadline()).unwrap())
                    .collect();
                for ticket in tickets {
                    let y = ticket.wait().unwrap().y;
                    assert!(
                        expected.contains(&y),
                        "a response matches no whole version of the values"
                    );
                    served += 1;
                }
            }
        });
        let last = server
            .submit(0, 1, x.clone(), far_deadline())
            .unwrap()
            .wait()
            .unwrap()
            .y;
        assert!(
            last == expected[PER_THREAD as usize] || last == expected[2 * PER_THREAD as usize],
            "the final version must be one thread's last refresh"
        );
        assert_eq!(server.stats().cache.builds, 1, "refreshes never rebuild");
        server.shutdown();
    }

    #[test]
    fn request_outlived_by_its_registration_fails_cleanly() {
        // A long window holds the first request as an anchor; a width-2
        // batch dispatches as soon as the second one rides along.
        let server = SpmvServer::start(ServeConfig {
            max_batch: 2,
            coalesce_window: Duration::from_secs(5),
            ..ServeConfig::default()
        });
        let n = 300;
        server.register_matrix(1, gen::random_uniform::<f64>(n, n, 1, 5, 3), strategy());
        let stale = server.submit(0, 1, vec![1.0; n], far_deadline()).unwrap();
        let wider = gen::random_uniform::<f64>(n, n + 5, 1, 5, 4);
        server.register_matrix(1, wider.clone(), strategy());
        let x: Vec<f64> = (0..n + 5).map(|i| (i % 9) as f64 - 4.0).collect();
        let fresh = server.submit(1, 1, x.clone(), far_deadline()).unwrap();
        assert_eq!(
            stale.wait().unwrap_err(),
            ServeError::DimensionMismatch {
                matrix: 1,
                expected: n + 5,
                got: n,
            }
        );
        let mut want = vec![0.0; n];
        wider.spmv_seq(&x, &mut want).unwrap();
        let served = fresh.wait().unwrap();
        assert_eq!(served.y, want);
        assert_eq!(served.batch_k, 1);
        let stats = server.stats();
        assert_eq!((stats.batches, stats.completed), (1, 1));
        server.shutdown();
    }

    #[test]
    fn value_refresh_is_visible_without_plan_rebuild() {
        let server = SpmvServer::start(ServeConfig::default());
        let a = gen::random_uniform::<f64>(250, 250, 1, 5, 8);
        server.register_matrix(1, a.clone(), strategy());
        let x = vec![1.0; 250];
        let before = server
            .submit(0, 1, x.clone(), far_deadline())
            .unwrap()
            .wait()
            .unwrap();
        server.update_values(1, |i| (i % 7) as f64 - 3.0).unwrap();
        let after = server
            .submit(0, 1, x.clone(), far_deadline())
            .unwrap()
            .wait()
            .unwrap();
        assert_ne!(before.y, after.y, "new values must be served");
        // Same pattern ⇒ same plan: no rebuild happened.
        let stats = server.stats();
        assert_eq!(stats.cache.builds, 1);
        // And the refreshed result matches a from-scratch execute on the
        // refreshed matrix.
        let mut refreshed = a;
        refreshed.fill_values_with(|i| (i % 7) as f64 - 3.0);
        let mut expect = vec![0.0; 250];
        SpmvPlan::compile_with(
            &refreshed,
            strategy(),
            Box::new(NativeCpuBackend::new()),
            PlanConfig::default(),
        )
        .verify(&refreshed)
        .unwrap()
        .execute(&refreshed, &x, &mut expect)
        .unwrap();
        assert_eq!(after.y, expect);
        server.shutdown();
    }
}
