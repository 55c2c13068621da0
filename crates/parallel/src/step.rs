//! Barrier-stepped execution: the crate's one worker team. A fixed
//! team marches through a sequence of steps, separated by barriers.
//!
//! Every parallel region in this crate runs here. Independent-item work
//! ([`crate::drain`]) is one step, or two when a first-touch phase
//! leads; dependency-carrying work (level-set scheduled triangular
//! solves) is many, where step `s + 1` may read what step `s` wrote, so
//! every worker must finish step `s` before any worker starts `s + 1`.
//! Spawning one scope per step would give that ordering at the cost of
//! a spawn/join per level — hundreds for deep triangular factors.
//! Instead, the team is spawned once and steps are separated by a
//! [`Barrier`].
//!
//! `Barrier::wait` gives the needed happens-before edge: every write
//! made in step `s` (by any worker) is visible to every worker in step
//! `s + 1`, so the step bodies can use plain (non-atomic) disjoint
//! writes, exactly like the SpMV kernels. The last step needs no
//! barrier: the scope join orders its writes before the caller's reads.
//!
//! Steps marked serial run on worker 0 only — the others proceed
//! straight to the barrier. The solve planner uses this for merged
//! runs of tiny levels, where a barrier per level would cost more than
//! the exposed parallelism is worth.

use std::sync::Barrier;

/// March `workers` workers through `parallel.len()` steps in order,
/// with a barrier between consecutive steps. For each step `s`:
///
/// * if `parallel[s]`, every worker calls `body(s, role, workers)`
///   with its own `role` in `0..workers` — the body partitions the
///   step's work by role;
/// * otherwise only role 0 calls `body(s, 0, workers)` — a serial
///   step; the rest wait at the barrier.
///
/// Exactly `workers` roles participate (no clamping to the machine's
/// core count: role-indexed partitions computed at plan time must all
/// run, and oversubscription is merely slow, not wrong). `workers <= 1`
/// runs every step inline on the caller with `role = 0` — the
/// deterministic reference order.
///
/// The body sees steps in strictly increasing order, and all writes of
/// step `s` happen-before all reads of step `s + 1` — the property the
/// dependency-order prover's per-step schedule relies on. All writes of
/// the last step happen-before this function returns.
pub fn stepped_for_each<F>(workers: usize, parallel: &[bool], body: F)
where
    F: Fn(usize, usize, usize) + Sync,
{
    if workers <= 1 {
        for step in 0..parallel.len() {
            body(step, 0, 1);
        }
        return;
    }
    let barrier = Barrier::new(workers);
    let last = parallel.len().saturating_sub(1);
    std::thread::scope(|scope| {
        for role in 0..workers {
            let barrier = &barrier;
            let body = &body;
            scope.spawn(move || {
                for (step, &par) in parallel.iter().enumerate() {
                    if par {
                        body(step, role, workers);
                    } else if role == 0 {
                        body(step, 0, workers);
                    }
                    if step < last {
                        barrier.wait();
                    }
                }
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn steps_run_in_order_with_no_overlap() {
        // Every worker bumps the step counter; a worker observing a
        // counter from a *different* step would prove barrier leakage.
        for workers in [1, 2, 4, 7] {
            let parallel = vec![true; 6];
            let hits: Vec<AtomicUsize> = (0..6).map(|_| AtomicUsize::new(0)).collect();
            let out_of_step = AtomicUsize::new(0);
            stepped_for_each(workers, &parallel, |step, _role, w| {
                assert_eq!(w, workers.max(1));
                for earlier in hits.iter().take(step) {
                    if earlier.load(Ordering::SeqCst) != workers.max(1) {
                        out_of_step.fetch_add(1, Ordering::SeqCst);
                    }
                }
                hits[step].fetch_add(1, Ordering::SeqCst);
            });
            assert_eq!(out_of_step.load(Ordering::SeqCst), 0, "workers={workers}");
            for (s, h) in hits.iter().enumerate() {
                assert_eq!(
                    h.load(Ordering::SeqCst),
                    workers.max(1),
                    "workers={workers}, step {s}"
                );
            }
        }
    }

    #[test]
    fn serial_steps_run_on_role_zero_only() {
        for workers in [1, 3, 5] {
            let parallel = [true, false, true, false];
            let serial_calls = AtomicUsize::new(0);
            stepped_for_each(workers, &parallel, |step, role, _w| {
                if !parallel[step] {
                    assert_eq!(role, 0, "serial step ran on role {role}");
                    serial_calls.fetch_add(1, Ordering::SeqCst);
                }
            });
            assert_eq!(serial_calls.load(Ordering::SeqCst), 2, "workers={workers}");
        }
    }

    #[test]
    fn cross_step_writes_are_visible() {
        // Step 0 writes disjoint slots; step 1 reads them all. The
        // barrier must make every write visible to every role.
        for workers in [2, 4] {
            let n = 64usize;
            let slots: Vec<AtomicUsize> = (0..n).map(|_| AtomicUsize::new(0)).collect();
            let sum = AtomicUsize::new(0);
            stepped_for_each(workers, &[true, true], |step, role, w| {
                if step == 0 {
                    let mut i = role;
                    while i < n {
                        slots[i].store(i + 1, Ordering::Relaxed);
                        i += w;
                    }
                } else if role == 0 {
                    let s: usize = slots.iter().map(|s| s.load(Ordering::Relaxed)).sum();
                    sum.store(s, Ordering::Relaxed);
                }
            });
            assert_eq!(
                sum.load(Ordering::Relaxed),
                n * (n + 1) / 2,
                "workers={workers}"
            );
        }
    }

    #[test]
    fn last_step_writes_are_visible_on_return() {
        // No barrier follows the last step; the scope join must order
        // its writes before the caller reads them.
        for workers in [2, 4] {
            let slots: Vec<AtomicUsize> = (0..workers).map(|_| AtomicUsize::new(0)).collect();
            stepped_for_each(workers, &[false, true], |_, role, _| {
                slots[role].store(role + 1, Ordering::Relaxed);
            });
            for (role, s) in slots.iter().enumerate() {
                assert_eq!(s.load(Ordering::Relaxed), role + 1, "workers={workers}");
            }
        }
    }

    #[test]
    fn zero_steps_is_a_no_op() {
        stepped_for_each(4, &[], |_, _, _| panic!("no steps, no calls"));
    }
}
