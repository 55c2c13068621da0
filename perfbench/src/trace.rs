//! In-memory spans around calls into the program's layers.
//!
//! A span records name, start, end, the enclosing span on the same
//! thread, and for a served request its request id. Spans are kept in
//! memory while the workload runs and written out when it ends. With
//! tracing off, [`span`] is one relaxed load and a direct call.

use std::cell::RefCell;
use std::collections::BTreeMap;
use std::io::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;

pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    pub request: Option<u64>,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static NEXT_ID: AtomicU64 = AtomicU64::new(1);
static SPANS: Mutex<Vec<Span>> = Mutex::new(Vec::new());
static EPOCH: OnceLock<Instant> = OnceLock::new();

thread_local! {
    static OPEN: RefCell<Vec<u64>> = const { RefCell::new(Vec::new()) };
}

pub fn set_enabled(on: bool) {
    EPOCH.get_or_init(Instant::now);
    ENABLED.store(on, Ordering::Relaxed);
}

fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

fn ns(t: Instant) -> u64 {
    t.saturating_duration_since(*EPOCH.get_or_init(Instant::now))
        .as_nanos() as u64
}

fn push(span: Span) {
    SPANS.lock().expect("span buffer poisoned").push(span);
}

/// Run `f` inside a span named `name`, nested under the innermost span
/// open on this thread.
pub fn span<R>(name: &'static str, f: impl FnOnce() -> R) -> R {
    if !enabled() {
        return f();
    }
    let id = NEXT_ID.fetch_add(1, Ordering::Relaxed);
    let parent = OPEN.with(|s| {
        let mut s = s.borrow_mut();
        let parent = s.last().copied();
        s.push(id);
        parent
    });
    let start = ns(Instant::now());
    let r = f();
    let end_ns = ns(Instant::now());
    OPEN.with(|s| s.borrow_mut().pop());
    push(Span {
        id,
        parent,
        name,
        start_ns: start,
        end_ns,
        request: None,
    });
    r
}

/// Record a served request's span, from submit to the end of its wait;
/// the two ends happen on different threads, so it has no parent.
pub fn request(start: Instant, end: Instant, request: u64) {
    if !enabled() {
        return;
    }
    push(Span {
        id: NEXT_ID.fetch_add(1, Ordering::Relaxed),
        parent: None,
        name: "server.request",
        start_ns: ns(start),
        end_ns: ns(end),
        request: Some(request),
    });
}

/// Take every span recorded so far.
pub fn take() -> Vec<Span> {
    std::mem::take(&mut *SPANS.lock().expect("span buffer poisoned"))
}

/// Per span name: calls, total time and self time (total minus the time
/// covered by its child spans), in ns.
pub fn self_times(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64, u64)> {
    let mut child_ns: BTreeMap<u64, u64> = BTreeMap::new();
    for s in spans {
        if let Some(p) = s.parent {
            *child_ns.entry(p).or_default() += s.end_ns - s.start_ns;
        }
    }
    let mut out: BTreeMap<&'static str, (u64, u64, u64)> = BTreeMap::new();
    for s in spans {
        let total = s.end_ns - s.start_ns;
        let own = total.saturating_sub(child_ns.get(&s.id).copied().unwrap_or(0));
        let e = out.entry(s.name).or_default();
        e.0 += 1;
        e.1 += total;
        e.2 += own;
    }
    out
}

/// Write the spans as JSON lines.
pub fn dump(path: &std::path::Path, spans: &[Span]) -> std::io::Result<()> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir)?;
    }
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"request\":{}}}",
            s.id,
            opt(s.parent),
            s.name,
            s.start_ns,
            s.end_ns,
            opt(s.request)
        )?;
    }
    w.flush()
}
