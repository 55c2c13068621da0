//! Independent-item drains: one flat work queue emptied by the worker
//! team.
//!
//! [`drain_for_each`] runs every item of `[0, n)` exactly once in one
//! [`stepped_for_each`] step: workers claim the next item from a shared
//! atomic cursor until the queue is empty, so a worker that finishes
//! early immediately takes more work and no worker idles while an item
//! is left. Compiled plans hand it their tile queue in LPT order
//! (longest processing time first), so the items still unclaimed when
//! workers run dry are the light ones.
//!
//! Output equality is by construction, not by scheduling: items write
//! disjoint outputs exactly once (the planner proves it), so *which*
//! worker runs an item cannot change a single bit of the result.

use crate::scope::num_threads;
use crate::step::stepped_for_each;
use std::sync::atomic::{AtomicUsize, Ordering};

/// Execute `body(scratch, item)` for every item of `[0, n)`, claimed in
/// order from one shared cursor. Each worker carries a private scratch
/// built once by `init` and handed mutably to each `body` call that
/// worker makes — the cache-blocked SpMV executor keeps its per-row
/// cursor/partial-sum buffers there, so the hot path never allocates.
/// `body` must fully reinitialise whatever scratch state it reads, so
/// results cannot depend on how items map to workers.
///
/// At most `workers` threads participate (`0` means [`num_threads`]),
/// never more than there are items; with one effective worker every
/// item runs inline on the caller in queue order, and the result is
/// bit-for-bit identical to any parallel schedule because items write
/// disjoint outputs exactly once.
pub fn drain_for_each<S, I, F>(workers: usize, n: usize, init: I, body: F)
where
    I: Fn() -> S + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let workers = if workers == 0 {
        num_threads()
    } else {
        workers.min(num_threads())
    }
    .min(n);
    let cursor = AtomicUsize::new(0);
    stepped_for_each(workers, &[true], |_, _, _| {
        let mut scratch = init();
        loop {
            let i = cursor.fetch_add(1, Ordering::Relaxed);
            if i >= n {
                break;
            }
            body(&mut scratch, i);
        }
    });
}

/// Execute `body(item)` for every item of the flat queue `[0, n)`:
/// [`drain_for_each`] with no scratch. At most `workers` threads
/// participate (`0` means [`num_threads`]). The process-wide thread
/// count is frozen at first use, so benches that sweep thread counts
/// within one process cap it here. Degenerates to a sequential loop
/// when `n <= 1` or only one thread is available, so callers never wake
/// the team for trivial queues.
pub fn fused_for_each_with<F>(workers: usize, n: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    drain_for_each(workers, n, || (), |_, item| body(item));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flat_queue_runs_every_item_once() {
        let n = 2_000;
        for workers in [0, 1, 2, 7] {
            let hits: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            fused_for_each_with(workers, n, |t| {
                hits[t].fetch_add(1, Ordering::Relaxed);
            });
            assert!(
                hits.iter().all(|h| h.load(Ordering::Relaxed) == 1),
                "workers = {workers} missed or repeated an item"
            );
        }
    }

    #[test]
    fn zero_and_one_items_run_inline() {
        fused_for_each_with(0, 0, |_| panic!("no items, no calls"));
        drain_for_each::<(), _, _>(4, 0, || (), |_, _| panic!("no items, no calls"));
        let caller = std::thread::current().id();
        fused_for_each_with(4, 1, |t| {
            assert_eq!(t, 0);
            assert_eq!(
                std::thread::current().id(),
                caller,
                "one item left the caller"
            );
        });
    }

    #[test]
    fn disjoint_writes_compose_bit_identical_results() {
        // Items own disjoint output slots; any schedule must produce the
        // same buffer. Compare parallel runs against the sequential one.
        let total = 1_450;
        let run = |workers: usize| {
            let slots: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
            drain_for_each(
                workers,
                total,
                || (),
                |_, i| slots[i].store(i * i + 1, Ordering::Relaxed),
            );
            slots
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect::<Vec<_>>()
        };
        let sequential = run(1);
        for workers in [2, 3, 7] {
            assert_eq!(run(workers), sequential, "workers = {workers}");
        }
    }

    #[test]
    fn scratch_is_private_per_worker() {
        let total = 1_600;
        for workers in [0, 1, 2, 4] {
            let inits = AtomicUsize::new(0);
            let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
            drain_for_each(
                workers,
                total,
                || {
                    inits.fetch_add(1, Ordering::Relaxed);
                    Vec::<usize>::new()
                },
                |scratch, item| {
                    // Reinitialise-then-use, as the blocked executor does.
                    scratch.clear();
                    scratch.push(item);
                    hits[scratch[0]].fetch_add(1, Ordering::Relaxed);
                },
            );
            assert!(hits.iter().all(|h| h.load(Ordering::Relaxed) == 1));
            let built = inits.load(Ordering::Relaxed);
            let cap = if workers == 0 {
                num_threads()
            } else {
                workers.min(num_threads())
            }
            .max(1);
            assert!(
                (1..=cap).contains(&built),
                "workers = {workers} built {built} scratches (cap {cap})"
            );
        }
    }
}
