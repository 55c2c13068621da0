//! Independent-item drains: work queues emptied by one worker team.
//!
//! [`drain_for_each`] runs every item of a set of queues exactly once on
//! a [`stepped_for_each`] team. A flat queue ([`Queues::Flat`]) is one
//! shared atomic cursor: perfect load balance, zero locality. On a
//! machine with worker groups (sockets, core clusters), a worker that
//! claims whatever item is next will happily stream a remote shard's
//! slice of `x` and dirty a remote group's `y` lines, so plans may cut
//! their queue at *compile* time into per-shard sub-queues
//! ([`Queues::Sharded`], NNZ-balanced over disjoint row ranges). The
//! claim order at run time is:
//!
//! 1. a worker's home shard is `role % n_shards` — it drains that queue
//!    first (shard-local stealing: workers sharing a home still balance
//!    among themselves through the shard's cursor);
//! 2. only when its home queue is empty does it move to the next shard
//!    in ring order (`home + 1`, `home + 2`, …) — cross-shard stealing
//!    as a fallback, so imbalance between shards can never idle a
//!    worker while any queue holds work.
//!
//! A flat queue is the one-shard case: every worker is homed on it and
//! the ring is empty. The ring fallback is load-bearing for liveness
//! *and* coverage: every role visits every shard, so the union of
//! drains covers every queue even when there are more shards than
//! workers (a pinned-count plan running on a smaller machine). The
//! protocol — home first, ring fallback, monotone per-shard cursors —
//! is modeled as `ShardModel` in the `spmv-verify` interleaving
//! explorer, where dropping the fallback is proven to strand items.
//!
//! Output equality is by construction, not by scheduling: items write
//! disjoint outputs exactly once (the planner proves it), so *which*
//! worker runs an item cannot change a single bit of the result.

use crate::scope::num_threads;
use crate::step::stepped_for_each;
use std::sync::atomic::{AtomicUsize, Ordering};

/// The work queues of one drain.
#[derive(Clone, Copy, Debug)]
pub enum Queues<'a> {
    /// One queue holding the items `0..n` in order — no id table.
    Flat(usize),
    /// Per-shard queues of item ids.
    Sharded(&'a [Vec<u32>]),
}

impl Queues<'_> {
    fn n_shards(self) -> usize {
        match self {
            Queues::Flat(_) => 1,
            Queues::Sharded(queues) => queues.len(),
        }
    }

    fn len(self, shard: usize) -> usize {
        match self {
            Queues::Flat(n) => n,
            Queues::Sharded(queues) => queues[shard].len(),
        }
    }

    fn item(self, shard: usize, i: usize) -> usize {
        match self {
            Queues::Flat(_) => i,
            Queues::Sharded(queues) => queues[shard][i] as usize,
        }
    }
}

/// Execute `body(scratch, item)` for every item of every queue, claiming
/// shard-locally first and cross-shard (ring order) as fallback. Each
/// worker carries a private scratch built once by `init` and handed
/// mutably to each `body` call that worker makes — the cache-blocked
/// SpMV executor keeps its per-row cursor/partial-sum buffers there, so
/// the hot path never allocates. `body` must fully reinitialise
/// whatever scratch state it reads, so results cannot depend on how
/// items map to workers.
///
/// When `touch` is given, `touch(shard)` runs exactly once per shard
/// index as a leading parallel step, **before any item of any shard
/// runs** (the step barrier separates it from the drain); shards are
/// dealt round-robin over the participating workers. Executors use it
/// for first-touch placement: zeroing the shard's output rows and
/// streaming its `x` working set from the thread that will own them,
/// so pages fault in near their consumer. The barrier is why this is
/// safe to combine with write-once outputs: every touch-zero
/// happens-before every real write.
///
/// At most `workers` threads participate (`0` means [`num_threads`]),
/// never more than there are items; with one effective worker
/// everything runs inline on the caller in deterministic
/// shard-then-queue order, and the result is bit-for-bit identical to
/// any parallel schedule because items write disjoint outputs exactly
/// once.
pub fn drain_for_each<S, I, T, F>(
    workers: usize,
    queues: Queues<'_>,
    touch: Option<T>,
    init: I,
    body: F,
) where
    I: Fn() -> S + Sync,
    T: Fn(usize) + Sync,
    F: Fn(&mut S, usize) + Sync,
{
    let n_shards = queues.n_shards();
    if n_shards == 0 {
        return;
    }
    let total: usize = (0..n_shards).map(|s| queues.len(s)).sum();
    let workers = if workers == 0 {
        num_threads()
    } else {
        workers.min(num_threads())
    }
    .min(total);
    // A flat drain keeps its one cursor on the stack: flat executes pay
    // no allocation here.
    let one = [AtomicUsize::new(0)];
    let many: Vec<AtomicUsize>;
    let cursors: &[AtomicUsize] = if n_shards == 1 {
        &one
    } else {
        many = (0..n_shards).map(|_| AtomicUsize::new(0)).collect();
        &many
    };
    // With a touch phase, step 0 touches and step 1 drains.
    let steps = [true; 2];
    let n_steps = 1 + usize::from(touch.is_some());
    stepped_for_each(workers, &steps[..n_steps], |step, role, team| {
        if let (Some(touch), 0) = (&touch, step) {
            // Shards are dealt round-robin over roles
            // (s % team == role), covering each exactly once.
            for s in (role..n_shards).step_by(team) {
                touch(s);
            }
            return;
        }
        let mut scratch = init();
        let home = role % n_shards;
        for d in 0..n_shards {
            let s = (home + d) % n_shards;
            let len = queues.len(s);
            loop {
                let i = cursors[s].fetch_add(1, Ordering::Relaxed);
                if i >= len {
                    break;
                }
                body(&mut scratch, queues.item(s, i));
            }
        }
    });
}

/// Execute `body(item)` for every item of the flat queue `[0, n)`:
/// [`drain_for_each`] over [`Queues::Flat`] with no scratch and no
/// touch phase. At most `workers` threads participate (`0` means
/// [`num_threads`]). The process-wide thread count is frozen at first
/// use, so benches that sweep thread counts within one process cap it
/// here. Degenerates to a sequential loop when `n <= 1` or only one
/// thread is available, so callers never wake the team for trivial
/// queues.
pub fn fused_for_each_with<F>(workers: usize, n: usize, body: F)
where
    F: Fn(usize) + Sync,
{
    drain_for_each(
        workers,
        Queues::Flat(n),
        None::<fn(usize)>,
        || (),
        |_, item| body(item),
    );
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicBool;

    fn queues_of(sizes: &[usize]) -> (Vec<Vec<u32>>, usize) {
        let mut next = 0u32;
        let queues = sizes
            .iter()
            .map(|&n| {
                (0..n)
                    .map(|_| {
                        let id = next;
                        next += 1;
                        id
                    })
                    .collect()
            })
            .collect();
        (queues, next as usize)
    }

    fn assert_each_item_once(workers: usize, sizes: &[usize]) {
        let (queues, total) = queues_of(sizes);
        let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
        drain_for_each(
            workers,
            Queues::Sharded(&queues),
            None::<fn(usize)>,
            || (),
            |_, item| {
                hits[item].fetch_add(1, Ordering::Relaxed);
            },
        );
        for (i, h) in hits.iter().enumerate() {
            assert_eq!(
                h.load(Ordering::Relaxed),
                1,
                "workers = {workers}, shards = {sizes:?}: item {i} ran wrong number of times"
            );
        }
    }

    #[test]
    fn every_item_runs_exactly_once_across_shard_shapes() {
        for workers in [1, 2, 3, 7] {
            assert_each_item_once(workers, &[500, 500]);
            assert_each_item_once(workers, &[1000, 1, 0, 300]); // one-item and empty shards
            assert_each_item_once(workers, &[0, 0, 0]);
            assert_each_item_once(workers, &[64; 9]); // more shards than workers
            assert_each_item_once(workers, &[2000]); // single shard
        }
    }

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
        drain_for_each::<(), _, _, _>(
            4,
            Queues::Sharded(&[vec![], vec![]]),
            None::<fn(usize)>,
            || (),
            |_, _| panic!("no items, no calls"),
        );
        drain_for_each::<(), _, _, _>(
            4,
            Queues::Sharded(&[]),
            Some(|_| panic!("no shards, no touch")),
            || (),
            |_, _| panic!("no items, no calls"),
        );
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
    fn touch_runs_once_per_shard_before_any_item() {
        for workers in [1, 2, 5] {
            let (queues, _) = queues_of(&[100, 1, 0, 100]);
            let touched: Vec<AtomicUsize> =
                (0..queues.len()).map(|_| AtomicUsize::new(0)).collect();
            let any_item_ran = AtomicBool::new(false);
            let touch_after_item = AtomicBool::new(false);
            drain_for_each(
                workers,
                Queues::Sharded(&queues),
                Some(|s: usize| {
                    if any_item_ran.load(Ordering::SeqCst) {
                        touch_after_item.store(true, Ordering::SeqCst);
                    }
                    touched[s].fetch_add(1, Ordering::SeqCst);
                }),
                || (),
                |_, _| {
                    any_item_ran.store(true, Ordering::SeqCst);
                },
            );
            for (s, t) in touched.iter().enumerate() {
                assert_eq!(
                    t.load(Ordering::SeqCst),
                    1,
                    "workers = {workers}: shard {s} touched wrong number of times"
                );
            }
            assert!(
                !touch_after_item.load(Ordering::SeqCst),
                "workers = {workers}: a touch ran after an item — barrier broken"
            );
        }
    }

    #[test]
    fn disjoint_writes_compose_bit_identical_results() {
        // Items own disjoint output slots; any schedule must produce the
        // same buffer. Compare parallel runs against the sequential one.
        let (queues, total) = queues_of(&[700, 300, 450]);
        let run = |workers: usize, queues: Queues<'_>| {
            let slots: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
            drain_for_each(
                workers,
                queues,
                None::<fn(usize)>,
                || (),
                |_, i| slots[i].store(i * i + 1, Ordering::Relaxed),
            );
            slots
                .iter()
                .map(|s| s.load(Ordering::Relaxed))
                .collect::<Vec<_>>()
        };
        let sequential = run(1, Queues::Flat(total));
        for workers in [1, 2, 3, 7] {
            assert_eq!(
                run(workers, Queues::Sharded(&queues)),
                sequential,
                "workers = {workers}"
            );
            assert_eq!(
                run(workers, Queues::Flat(total)),
                sequential,
                "workers = {workers}"
            );
        }
    }

    #[test]
    fn scratch_is_private_per_worker() {
        let (queues, total) = queues_of(&[800, 800]);
        for workers in [0, 1, 2, 4] {
            for queues in [Queues::Sharded(&queues), Queues::Flat(total)] {
                let inits = AtomicUsize::new(0);
                let hits: Vec<AtomicUsize> = (0..total).map(|_| AtomicUsize::new(0)).collect();
                drain_for_each(
                    workers,
                    queues,
                    None::<fn(usize)>,
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
}
