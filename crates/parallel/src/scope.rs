//! Thread budgets and chunked data-parallel loops over borrowed data.
//!
//! [`parallel_for`] and [`parallel_map_collect`] cut `[0, n)` into
//! chunks of `grain` items and drain them as a flat queue
//! ([`fused_for_each_with`]): workers repeatedly claim the next chunk
//! from a shared atomic cursor until the index space is exhausted. This
//! is the load-balancing discipline the paper's binning is designed
//! around — uneven per-item work (rows of different NNZ) must not
//! serialise on one slow worker.

use crate::drain::fused_for_each_with;
use std::num::NonZeroUsize;
use std::sync::OnceLock;

/// The hardware thread budget: the `SPMV_NUM_THREADS` environment
/// variable if set, otherwise the machine's available parallelism
/// (minimum 1). This is the ceiling [`num_threads`] clamps
/// `SPMV_THREADS` to, and may exceed the machine's core count
/// (`SPMV_NUM_THREADS=4` on a 2-core host forces 4 workers).
///
/// Computed once per process and cached: changing `SPMV_NUM_THREADS`
/// after the first launch has no effect for the rest of the process.
pub fn hardware_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| thread_count_env("SPMV_NUM_THREADS").unwrap_or_else(machine_threads))
}

/// The machine's *actual* available parallelism, with no environment
/// override (minimum 1). This is what bench reports record as
/// `hardware_threads`: a sweep that forced 4 workers via
/// `SPMV_NUM_THREADS=4` on a single-core container is oversubscribed,
/// and downstream comparisons need the honest core count to filter
/// such runs — reporting the overridable budget would hide exactly the
/// condition the field exists to flag.
pub fn machine_threads() -> usize {
    std::thread::available_parallelism()
        .map(NonZeroUsize::get)
        .unwrap_or(1)
}

/// Number of worker threads parallel regions use: `SPMV_THREADS`
/// clamped to [`hardware_threads`] when set, otherwise
/// [`hardware_threads`]. Every layer — the flat loops here, plan
/// execution, servers, benches — observes this one count per process.
///
/// Computed once per process and cached — kernel launches call this on
/// their hot path (per bin, per execute), and re-reading the
/// environment there costs syscalls per call.
pub fn num_threads() -> usize {
    static CACHED: OnceLock<usize> = OnceLock::new();
    *CACHED.get_or_init(|| {
        let budget = hardware_threads();
        thread_count_env("SPMV_THREADS").map_or(budget, |n| n.min(budget))
    })
}

/// Parse the value `raw` of the thread-count variable `var`: a positive
/// integer, surrounding whitespace allowed. A blank value reads as
/// unset (`Ok(None)`); anything else (`four`, `0`, `-3`, `1.5`) is an
/// error naming the variable and the value.
fn parse_thread_count(var: &str, raw: &str) -> Result<Option<usize>, String> {
    let s = raw.trim();
    if s.is_empty() {
        return Ok(None);
    }
    match s.parse::<usize>() {
        Ok(n) if n > 0 => Ok(Some(n)),
        _ => Err(format!(
            "{var}={raw:?} is not a positive thread count; ignoring it"
        )),
    }
}

/// Read the thread-count variable `var` ([`parse_thread_count`]). A
/// malformed value warns on stderr and reads as unset, so a typo is
/// never silently identical to unset. Both callers cache their result,
/// so each variable warns at most once per process.
fn thread_count_env(var: &str) -> Option<usize> {
    let raw = std::env::var(var).ok()?;
    parse_thread_count(var, &raw).unwrap_or_else(|warning| {
        eprintln!("warning: {warning}");
        None
    })
}

/// Run `body(start, end)` over `[0, n)` in dynamically scheduled chunks of
/// `grain` items across [`num_threads`] workers. `body` must be safe to
/// call concurrently on disjoint ranges.
///
/// Runs inline on the caller when `n` fits one chunk or only one thread
/// is available.
pub fn parallel_for<F>(n: usize, grain: usize, body: F)
where
    F: Fn(usize, usize) + Sync,
{
    let grain = grain.max(1);
    fused_for_each_with(0, n.div_ceil(grain), |chunk| {
        let start = chunk * grain;
        body(start, (start + grain).min(n));
    });
}

/// Map every index of `[0, n)` through `f` and collect the results in
/// order. Scheduling is dynamic; each result lands in its own slot of a
/// pre-sized buffer.
pub fn parallel_map_collect<T, F>(n: usize, grain: usize, f: F) -> Vec<T>
where
    T: Send,
    F: Fn(usize) -> T + Sync,
{
    let mut out: Vec<Option<T>> = (0..n).map(|_| None).collect();
    let out_ptr = SendPtr(out.as_mut_ptr());
    parallel_for(n, grain, |start, end| {
        let p = out_ptr;
        for i in start..end {
            // SAFETY: chunks are disjoint, so each index is written by
            // exactly one worker; the buffer outlives the drain.
            unsafe { *p.0.add(i) = Some(f(i)) };
        }
    });
    out.into_iter()
        .map(|x| x.expect("parallel_for covers every index"))
        .collect()
}

struct SendPtr<T>(*mut T);
impl<T> Clone for SendPtr<T> {
    fn clone(&self) -> Self {
        *self
    }
}
impl<T> Copy for SendPtr<T> {}
// SAFETY: the pointer is only used to write disjoint indices inside
// `parallel_for`, which returns only once every worker is done.
unsafe impl<T: Send> Send for SendPtr<T> {}
// SAFETY: same restriction — shared only between workers writing disjoint
// indices, all done before the buffer is read.
unsafe impl<T: Send> Sync for SendPtr<T> {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};

    #[test]
    fn both_thread_variables_share_one_parser() {
        for var in ["SPMV_THREADS", "SPMV_NUM_THREADS"] {
            assert_eq!(parse_thread_count(var, "4"), Ok(Some(4)));
            assert_eq!(parse_thread_count(var, " 4 "), Ok(Some(4)));
            assert_eq!(parse_thread_count(var, ""), Ok(None));
            for bad in ["four", "0"] {
                let warning = parse_thread_count(var, bad).unwrap_err();
                assert!(warning.starts_with(&format!("{var}={bad:?}")), "{warning}");
            }
        }
    }

    #[test]
    fn num_threads_is_capped_by_the_hardware_budget() {
        assert!((1..=hardware_threads()).contains(&num_threads()));
    }

    #[test]
    fn parallel_for_visits_every_index_once() {
        let n = 10_000;
        let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
        parallel_for(n, 64, |s, e| {
            for h in &hits[s..e] {
                h.fetch_add(1, Ordering::Relaxed);
            }
        });
        assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
    }

    #[test]
    fn parallel_for_handles_zero_items() {
        parallel_for(0, 16, |_, _| panic!("must not be called"));
    }

    #[test]
    fn parallel_for_small_n_runs_inline() {
        let count = AtomicUsize::new(0);
        parallel_for(3, 100, |s, e| {
            count.fetch_add(e - s, Ordering::Relaxed);
        });
        assert_eq!(count.load(Ordering::Relaxed), 3);
    }

    #[test]
    fn map_collect_preserves_order() {
        let v = parallel_map_collect(1000, 7, |i| i * i);
        assert_eq!(v.len(), 1000);
        for (i, &x) in v.iter().enumerate() {
            assert_eq!(x, i * i);
        }
    }

    #[test]
    fn map_collect_needs_no_default() {
        struct NoDefault(usize);
        let v = parallel_map_collect(500, 3, NoDefault);
        assert!(v.iter().enumerate().all(|(i, x)| x.0 == i));
    }

    #[test]
    fn nested_parallel_for_does_not_deadlock() {
        let total = AtomicU64::new(0);
        parallel_for(8, 1, |s, e| {
            for _ in s..e {
                parallel_for(100, 10, |s2, e2| {
                    total.fetch_add((e2 - s2) as u64, Ordering::Relaxed);
                });
            }
        });
        assert_eq!(total.load(Ordering::Relaxed), 800);
    }
}
