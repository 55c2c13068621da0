//! The open serving loop: Poisson arrivals from one generator thread over
//! four tenants, with a fixed share of `update_values` refreshes of the
//! hot matrix, then saturating drain bursts. Every response is checked
//! after its window against a standalone sequential execute of the values
//! it may have been served with. Each window and burst is then replayed on
//! the benchmark's baseline server.

use crate::inputs::{mix, vector, Traffic};
use crate::solve::{same, Case, Prepared};
use crate::trace::{self, span};
use crate::Ops;
use spmv_serve::{RefineConfig, ServeConfig, SpmvServer};
use spmv_sparse::CsrMatrix;
use std::collections::{HashMap, VecDeque};
use std::sync::{Condvar, Mutex};
use std::time::{Duration, Instant};

/// Tenants the requests are spread over.
const TENANTS: u32 = 4;
/// Request vectors per matrix; a request in slot `i` uses vector `i % XS`.
const XS: usize = 4;
/// The hot matrix (index 0) takes this share of the requests.
const HOT_SHARE: f64 = 0.5;
/// One operation in this many is an `update_values` of the hot matrix.
const UPDATE_EVERY: usize = 50;
/// How long before a send the generator stops sleeping and spins.
const SPIN: Duration = Duration::from_micros(200);

/// Server knobs: defaults except one execution worker, so the generator
/// and the dispatcher hold the two cores between them, and refinement
/// pinned off whatever the environment says.
pub fn config() -> ServeConfig {
    ServeConfig {
        workers: 1,
        refine: RefineConfig::default(),
        ..ServeConfig::default()
    }
}

/// Values of the hot matrix after its `v`-th refresh (`v = 0` is the
/// generated matrix). Small integers over 8, so every value is exact.
fn refreshed(v: u64) -> impl FnMut(usize) -> f32 {
    move |k| ((k as u64 * 13 + v * 7) % 23) as f32 / 8.0 - 1.0
}

/// Start a server, register every matrix and wait for one warm response
/// per matrix (each checked). Returns the server and the seconds this
/// took; the matrix copies the server takes are made before the clock
/// starts.
pub fn setup(cases: &[Case], prepared: &[Prepared], ops: &mut Ops) -> (SpmvServer<f32>, f64) {
    let copies: Vec<CsrMatrix<f32>> = cases.iter().map(|c| c.a.clone()).collect();
    let t = Instant::now();
    let server = span("server.start", || SpmvServer::start(config()));
    for (i, (a, p)) in copies.into_iter().zip(prepared).enumerate() {
        span("server.register", || {
            server.register_matrix(i as u64, a, p.strategy.clone())
        });
    }
    let far = Instant::now() + Duration::from_secs(3600);
    for (i, c) in cases.iter().enumerate() {
        let r = span("server.warm", || {
            server
                .submit(0, i as u64, c.x.clone(), far)
                .and_then(|ticket| ticket.wait())
        });
        let ok = matches!(&r, Ok(resp) if same(&resp.y, &c.y_ref));
        ops.record(ok, || format!("warm request on {}: {:?}", c.name, r.err()));
    }
    (server, t.elapsed().as_secs_f64())
}

enum Op {
    Request {
        id: u64,
        tenant: u32,
        matrix: usize,
        xi: usize,
        x: Vec<f32>,
    },
    Update,
}

struct Planned {
    at: Duration,
    op: Op,
}

/// What one window measured.
#[derive(Default)]
pub struct Window {
    /// Scheduled-send → completion latency of each completed request, µs.
    pub latency_us: Vec<f64>,
    /// The same for requests on the hot matrix only.
    pub hot_latency_us: Vec<f64>,
    /// How late the generator sent each operation, µs.
    pub late_us: Vec<f64>,
    /// Duration of each `update_values` call, µs.
    pub update_us: Vec<f64>,
    /// First send → last completion, seconds.
    pub span_s: f64,
    pub requests: usize,
    /// The matrix of each entry of `latency_us`.
    pub matrix: Vec<usize>,
    /// The same requests replayed on the baseline server: scheduled-send
    /// → completion latency, µs, with the matrix of each, and first send
    /// → last completion, s.
    pub base_latency_us: Vec<f64>,
    pub base_matrix: Vec<usize>,
    pub base_span_s: f64,
}

/// Sleep until shortly before `due`, spin the rest; the send instant.
fn pace(due: Instant) -> Instant {
    let now = Instant::now();
    if due > now + SPIN {
        std::thread::sleep(due - now - SPIN);
    }
    while Instant::now() < due {
        std::hint::spin_loop();
    }
    Instant::now()
}

/// Requests waiting in the baseline server: `(matrix, vector, due,
/// enqueued)`, and whether the sender is done.
#[derive(Default)]
struct BaseQueue {
    items: VecDeque<(usize, usize, Instant, Instant)>,
    closed: bool,
}

/// Replay the requests of a window, in order and on the same schedule,
/// on the benchmark's baseline server, and fill the window's `base_`
/// fields. The baseline keeps the serving layer's dispatch pattern and
/// nothing else: one dispatcher thread sleeps on a condvar until a
/// request arrives, holds the oldest one for up to the same coalesce
/// window while requests for the same matrix join it (up to the same
/// batch width), then answers the batch with the plain kernels of
/// [`crate::reference`] on one thread. No tenants, no plan cache.
fn baseline(
    cases: &[Case],
    xs: &[Vec<Vec<f32>>],
    requests: &[(Duration, usize, usize)],
    w: &mut Window,
) {
    let cfg = config();
    let queue = (Mutex::new(BaseQueue::default()), Condvar::new());
    let start = Instant::now() + Duration::from_micros(500);
    let done = std::thread::scope(|scope| {
        let dispatcher = scope.spawn(|| {
            let (lock, arrivals) = &queue;
            let (mut done, mut xb, mut yb) = (Vec::new(), Vec::new(), Vec::new());
            loop {
                let batch = {
                    let mut q = lock.lock().unwrap_or_else(|e| e.into_inner());
                    while q.items.is_empty() {
                        if q.closed {
                            return done;
                        }
                        q = arrivals.wait(q).unwrap_or_else(|e| e.into_inner());
                    }
                    let Some(anchor) = q.items.pop_front() else {
                        continue;
                    };
                    let ends = anchor.3 + cfg.coalesce_window;
                    let mut batch = vec![anchor];
                    loop {
                        let mut i = 0;
                        while i < q.items.len() && batch.len() < cfg.max_batch {
                            if q.items[i].0 == anchor.0 {
                                batch.extend(q.items.remove(i));
                            } else {
                                i += 1;
                            }
                        }
                        let now = Instant::now();
                        if batch.len() >= cfg.max_batch || q.closed || now >= ends {
                            break;
                        }
                        q = arrivals
                            .wait_timeout(q, ends - now)
                            .unwrap_or_else(|e| e.into_inner())
                            .0;
                    }
                    batch
                };
                let a = &cases[batch[0].0].a;
                let (n, k) = (a.n_rows(), batch.len());
                xb.resize(a.n_cols() * k, 0.0);
                for (j, &(m, xi, _, _)) in batch.iter().enumerate() {
                    for (c, &v) in xs[m][xi].iter().enumerate() {
                        xb[c * k + j] = v;
                    }
                }
                yb.resize(n * k, 0.0);
                crate::reference::spmm(a, &[0, n], k, &xb, &mut yb);
                std::hint::black_box(&yb);
                let completed = Instant::now();
                done.extend(batch.iter().map(|b| (b.0, b.2, completed)));
            }
        });
        let (lock, arrivals) = &queue;
        for &(at, m, xi) in requests {
            let due = start + at;
            let sent = pace(due);
            let mut q = lock.lock().unwrap_or_else(|e| e.into_inner());
            q.items.push_back((m, xi, due, sent));
            arrivals.notify_one();
        }
        lock.lock().unwrap_or_else(|e| e.into_inner()).closed = true;
        arrivals.notify_one();
        dispatcher.join().unwrap_or_default()
    });
    let mut last = start;
    for (m, due, completed) in done {
        w.base_matrix.push(m);
        w.base_latency_us
            .push(completed.saturating_duration_since(due).as_secs_f64() * 1e6);
        last = last.max(completed);
    }
    w.base_span_s = last.saturating_duration_since(start).as_secs_f64();
}

/// Generates windows for one run and checks their responses.
pub struct Load {
    seed: u64,
    draws: u64,
    next_id: u64,
    /// Refreshes applied so far (the hot matrix's current version).
    version: u64,
    xs: Vec<Vec<Vec<f32>>>,
    /// Reference outputs by `(matrix, vector, version)`.
    refs: HashMap<(usize, usize, u64), Vec<f32>>,
}

impl Load {
    pub fn new(cases: &[Case], seed: u64) -> Self {
        let xs = cases
            .iter()
            .map(|c| (0..XS).map(|j| vector(c.a.n_cols(), 10 + j)).collect())
            .collect();
        Self {
            seed,
            draws: 0,
            next_id: 0,
            version: 0,
            xs,
            refs: HashMap::new(),
        }
    }

    /// A uniform draw in `[0, 1)` from the run seed and a counter.
    fn uniform(&mut self) -> f64 {
        self.draws += 1;
        (mix(self.seed, self.draws) >> 11) as f64 / (1u64 << 53) as f64
    }

    /// A request for a matrix drawn from the popularity mix.
    fn random_request(&mut self, at: Duration, n_matrices: usize) -> Planned {
        let hot = self.uniform() < HOT_SHARE || n_matrices == 1;
        let matrix = if hot {
            0
        } else {
            1 + ((self.uniform() * (n_matrices - 1) as f64) as usize).min(n_matrices - 2)
        };
        let slot = self.next_id as usize;
        self.request(at, matrix, slot)
    }

    /// A request for `matrix`; `slot` picks its tenant and its vector.
    fn request(&mut self, at: Duration, matrix: usize, slot: usize) -> Planned {
        self.next_id += 1;
        let xi = slot % XS;
        Planned {
            at,
            op: Op::Request {
                id: self.next_id,
                tenant: (slot % TENANTS as usize) as u32,
                matrix,
                xi,
                x: self.xs[matrix][xi].clone(),
            },
        }
    }

    /// Poisson arrivals at `rps` over one window; one operation in
    /// [`UPDATE_EVERY`] is a refresh of the hot matrix.
    fn poisson(&mut self, rps: f64, t: &Traffic, n_matrices: usize) -> Vec<Planned> {
        let mut plan = Vec::new();
        let mut at = 0.0;
        loop {
            at += -(1.0 - self.uniform()).ln() / rps;
            if at >= t.window.as_secs_f64() {
                return plan;
            }
            let at = Duration::from_secs_f64(at);
            if self.uniform() * (UPDATE_EVERY as f64) < 1.0 {
                plan.push(Planned { at, op: Op::Update });
            } else {
                plan.push(self.random_request(at, n_matrices));
            }
        }
    }

    /// `n` requests all due at once, in the popularity mix's exact
    /// proportions (every other one hot, the rest in turn over the other
    /// matrices) and spread evenly over tenants and vectors, so every
    /// burst and every seed drains the same work.
    fn burst(&mut self, n: usize, n_matrices: usize) -> Vec<Planned> {
        let mut cold = (1..n_matrices).cycle();
        (0..n)
            .map(|i| {
                let matrix = if i % 2 == 0 {
                    0
                } else {
                    cold.next().unwrap_or(0)
                };
                self.request(Duration::ZERO, matrix, i / 2)
            })
            .collect()
    }

    pub fn open_window(
        &mut self,
        server: &SpmvServer<f32>,
        cases: &[Case],
        rps: f64,
        t: &Traffic,
        ops: &mut Ops,
    ) -> Window {
        let plan = self.poisson(rps, t, cases.len());
        self.run(server, cases, plan, ops)
    }

    pub fn drain_burst(
        &mut self,
        server: &SpmvServer<f32>,
        cases: &[Case],
        n: usize,
        ops: &mut Ops,
    ) -> Window {
        let plan = self.burst(n, cases.len());
        self.run(server, cases, plan, ops)
    }

    /// Send `plan` on schedule, then wait on every ticket and check every
    /// response. Latency runs to `Response::completed`, which the server
    /// stamps, so waiting after the last send adds nothing to it and no
    /// third thread competes with the generator and the dispatcher. The
    /// generator sleeps until shortly before each send and spins only the
    /// last [`SPIN`], so sleep overshoot does not enter the latencies.
    fn run(
        &mut self,
        server: &SpmvServer<f32>,
        cases: &[Case],
        plan: Vec<Planned>,
        ops: &mut Ops,
    ) -> Window {
        let mut w = Window::default();
        let far = Instant::now() + Duration::from_secs(3600);
        let schedule: Vec<(Duration, usize, usize)> = plan
            .iter()
            .filter_map(|p| match p.op {
                Op::Request { matrix, xi, .. } => Some((p.at, matrix, xi)),
                Op::Update => None,
            })
            .collect();
        let mut sent_requests = Vec::with_capacity(plan.len());
        let start = Instant::now() + Duration::from_micros(500);
        for p in plan {
            let due = start + p.at;
            let sent = pace(due);
            w.late_us
                .push(sent.saturating_duration_since(due).as_secs_f64() * 1e6);
            match p.op {
                Op::Request {
                    id,
                    tenant,
                    matrix,
                    xi,
                    x,
                } => {
                    let ticket = server.submit(tenant, matrix as u64, x, far);
                    sent_requests.push((id, matrix, xi, self.version, due, sent, ticket));
                    w.requests += 1;
                }
                Op::Update => {
                    self.version += 1;
                    let v = self.version;
                    let r = span("server.update_values", || {
                        server.update_values(0, refreshed(v))
                    });
                    w.update_us.push(sent.elapsed().as_secs_f64() * 1e6);
                    ops.record(r.is_ok(), || format!("update_values: {r:?}"));
                }
            }
        }
        let mut last = start;
        for (id, matrix, xi, v_lo, scheduled, sent, ticket) in sent_requests {
            let result = ticket.and_then(|t| t.wait());
            let ok = match &result {
                Ok(resp) => {
                    trace::request(sent, resp.completed, id);
                    let lat = resp.completed.saturating_duration_since(scheduled);
                    w.latency_us.push(lat.as_secs_f64() * 1e6);
                    w.matrix.push(matrix);
                    if matrix == 0 {
                        w.hot_latency_us.push(lat.as_secs_f64() * 1e6);
                    }
                    last = last.max(resp.completed);
                    self.matches(cases, matrix, xi, v_lo, &resp.y)
                }
                Err(_) => false,
            };
            ops.record(ok, || {
                format!(
                    "request on {} (versions {v_lo}..={}): {:?}",
                    cases[matrix].name,
                    self.version,
                    result.err()
                )
            });
        }
        w.span_s = last.saturating_duration_since(start).as_secs_f64();
        // Older hot-matrix versions can no longer be served.
        let current = self.version;
        self.refs.retain(|&(_, _, v), _| v == current || v == 0);
        baseline(cases, &self.xs, &schedule, &mut w);
        w
    }

    /// Does `y` equal a standalone sequential execute of the request's
    /// vector on some version of the matrix current between its send
    /// (`v_lo`) and the end of its window?
    fn matches(&mut self, cases: &[Case], matrix: usize, xi: usize, v_lo: u64, y: &[f32]) -> bool {
        let versions = if matrix == 0 {
            v_lo..=self.version
        } else {
            0..=0
        };
        for v in versions {
            let xs = &self.xs;
            let want = self.refs.entry((matrix, xi, v)).or_insert_with(|| {
                let x = &xs[matrix][xi];
                if v == 0 {
                    cases[matrix].a.spmv_seq_alloc(x).expect("reference spmv")
                } else {
                    let mut a = cases[matrix].a.clone();
                    a.fill_values_with(refreshed(v));
                    a.spmv_seq_alloc(x).expect("reference spmv")
                }
            });
            if same(want, y) {
                return true;
            }
        }
        false
    }
}
