//! Barrier-stepped execution on the crate's one worker team. A team
//! marches through a sequence of steps, separated by barriers.
//!
//! Every parallel region in this crate runs here. Independent-item work
//! ([`crate::drain`]) is one step; dependency-carrying work (level-set
//! scheduled triangular solves) is many, where step `s + 1` may read what step `s` wrote, so
//! every worker must finish step `s` before any worker starts `s + 1`.
//!
//! The team is process-wide and persistent: it is created on first use
//! with [`num_threads`]` - 1` helper threads, and the calling thread
//! joins it as team thread 0. Between calls the helpers park on a
//! condition variable, without spinning, so an idle team takes no core
//! from the next caller. A call publishes its schedule under a new job
//! epoch and wakes the sleepers; a helper registers as a sleeper and
//! rechecks the epoch under the lock before it parks, so no wake-up is
//! lost (modelled as `TeamModel` in the `spmv-verify` interleaving
//! explorer). The caller returns once every participating helper has
//! reported done.
//!
//! Steps are separated by the team's own generation barrier: a bounded
//! spin, then a park. It gives the needed happens-before edge: every
//! write made in step `s` (by any worker) is visible to every worker in
//! step `s + 1`, so the step bodies can use plain (non-atomic) disjoint
//! writes, exactly like the SpMV kernels (`LevelModel` in `spmv-verify`
//! models this contract). The last step needs no barrier: the done
//! count orders its writes before the caller's reads.
//!
//! Steps marked serial run on role 0 only — the others proceed
//! straight to the barrier. The solve planner uses this for merged
//! runs of tiny levels, where a barrier per level would cost more than
//! the exposed parallelism is worth.

use crate::scope::num_threads;
use std::any::Any;
use std::panic::{self, AssertUnwindSafe};
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicU64, AtomicUsize, Ordering::SeqCst};
use std::sync::{Condvar, Mutex, MutexGuard, OnceLock, PoisonError};

/// `spin_loop` iterations a thread waiting at a step barrier (or a
/// caller waiting for its helpers) polls before it parks.
const SPIN_LIMIT: u32 = 1 << 12;

/// Low bits of the job ticket hold the job's thread count; the high
/// bits hold its epoch.
const THREAD_BITS: u32 = 16;
const THREAD_MASK: u64 = (1 << THREAD_BITS) - 1;

/// March `workers` roles through `parallel.len()` steps in order,
/// with a barrier between consecutive steps. For each step `s`:
///
/// * if `parallel[s]`, every role in `0..workers` gets one call
///   `body(s, role, workers)` — the body partitions the step's work by
///   role;
/// * otherwise only role 0 calls `body(s, 0, workers)` — a serial
///   step; the rest wait at the barrier.
///
/// Exactly `workers` roles run (no clamping to the machine's core
/// count: role-indexed partitions computed at plan time must all run).
/// They run on at most `workers` threads of the process-wide team, the
/// caller being team thread 0 and always running role 0; when there
/// are more roles than team threads, team thread `t` runs roles `t`,
/// `t + threads`, … of each step, one after another. Hence the
/// contract: **a body must not wait on another role within a step** —
/// two roles may share a thread. `workers <= 1` runs every step inline
/// on the caller with `role = 0` — the deterministic reference order.
/// A caller that finds the team busy (another thread's schedule, or a
/// nested call from inside a step body) runs every role of each step
/// itself, in role order.
///
/// The body sees steps in strictly increasing order, and all writes of
/// step `s` happen-before all reads of step `s + 1` — the property the
/// dependency-order prover's per-step schedule relies on. All writes of
/// the last step happen-before this function returns.
///
/// A panic in a body stops further body calls of this schedule; the
/// team still walks its remaining barriers, and the first panic is
/// re-raised on the caller once every helper is done, leaving the team
/// usable.
pub fn stepped_for_each<F>(workers: usize, parallel: &[bool], body: F)
where
    F: Fn(usize, usize, usize) + Sync,
{
    if workers > 1 && !parallel.is_empty() {
        if let Some(team) = team().filter(|team| team.claim()) {
            team.run(workers, parallel, &body);
            return;
        }
    }
    let workers = workers.max(1);
    for (step, &par) in parallel.iter().enumerate() {
        let roles = if par { workers } else { 1 };
        for role in 0..roles {
            body(step, role, workers);
        }
    }
}

/// The process-wide team, created (helpers spawned) on first use; `None`
/// when the process runs one thread, where every call is inline.
fn team() -> Option<&'static Team> {
    static TEAM: OnceLock<Option<&'static Team>> = OnceLock::new();
    *TEAM.get_or_init(|| {
        let helpers = num_threads()
            .saturating_sub(1)
            .min(THREAD_MASK as usize - 1);
        if helpers == 0 {
            return None;
        }
        let team: &'static Team = Box::leak(Box::new(Team::new(helpers)));
        // Helpers live as long as the process and never unwind (bodies
        // are caught), so their join handles are not kept.
        for me in 1..=helpers {
            std::thread::Builder::new()
                .name(format!("spmv-team-{me}"))
                .spawn(move || team.serve(me))
                .expect("spawn a worker-team thread");
        }
        Some(team)
    })
}

/// One schedule, published to the team for the length of one call. It
/// lives on the caller's stack; the caller does not return before every
/// participating helper has reported done.
struct Job<'a> {
    body: &'a (dyn Fn(usize, usize, usize) + Sync),
    parallel: &'a [bool],
    workers: usize,
    /// Team threads taking part: `min(workers, team size)`.
    threads: usize,
    /// Set once any body has panicked; later bodies are skipped.
    panicked: AtomicBool,
    /// The first panic's payload, re-raised on the caller.
    payload: Mutex<Option<Box<dyn Any + Send>>>,
}

impl Job<'_> {
    fn call(&self, step: usize, role: usize) {
        if self.panicked.load(SeqCst) {
            return;
        }
        // Unwind safety: after a panic no body of this job runs again,
        // and the caller re-raises the payload, so no one observes
        // state a panicking body left half-updated.
        let result = panic::catch_unwind(AssertUnwindSafe(|| {
            (self.body)(step, role, self.workers);
        }));
        if let Err(payload) = result {
            self.panicked.store(true, SeqCst);
            lock(&self.payload).get_or_insert(payload);
        }
    }
}

/// The persistent team: `helpers` parked threads plus whichever caller
/// holds `busy`.
struct Team {
    helpers: usize,
    /// Held by the one caller whose schedule the team is running.
    busy: AtomicBool,
    /// `epoch << THREAD_BITS | threads` of the latest job. Helper `me`
    /// takes part in a job iff `me < threads`.
    ticket: AtomicU64,
    /// The latest job; valid while its caller waits for `done`.
    job: AtomicPtr<Job<'static>>,
    /// Helpers that have finished the current job.
    done: AtomicUsize,
    /// Step-barrier arrivals in the current generation.
    arrived: AtomicUsize,
    /// Step-barrier generation; bumped by the last arrival.
    generation: AtomicUsize,
    /// Where idle helpers park until the ticket changes.
    idle: Gate,
    /// Where barrier waiters, and the caller waiting for `done`, park.
    step: Gate,
}

impl Team {
    fn new(helpers: usize) -> Self {
        Self {
            helpers,
            busy: AtomicBool::new(false),
            ticket: AtomicU64::new(0),
            job: AtomicPtr::new(std::ptr::null_mut()),
            done: AtomicUsize::new(0),
            arrived: AtomicUsize::new(0),
            generation: AtomicUsize::new(0),
            idle: Gate::default(),
            step: Gate::default(),
        }
    }

    /// Try to take the team for one call.
    fn claim(&self) -> bool {
        self.busy
            .compare_exchange(false, true, SeqCst, SeqCst)
            .is_ok()
    }

    /// Run one schedule as team thread 0, then release the team. Nothing
    /// here panics (bodies are caught), so the job outlives every
    /// helper's use of it.
    fn run(&self, workers: usize, parallel: &[bool], body: &(dyn Fn(usize, usize, usize) + Sync)) {
        let threads = workers.min(self.helpers + 1);
        let job = Job {
            body,
            parallel,
            workers,
            threads,
            panicked: AtomicBool::new(false),
            payload: Mutex::new(None),
        };
        self.done.store(0, SeqCst);
        self.job.store(
            (&job as *const Job<'_>).cast::<Job<'static>>().cast_mut(),
            SeqCst,
        );
        // Publish the epoch, then wake the sleepers.
        let epoch = (self.ticket.load(SeqCst) >> THREAD_BITS) + 1;
        self.ticket
            .store(epoch << THREAD_BITS | threads as u64, SeqCst);
        self.idle.wake();
        self.walk(&job, 0);
        self.step
            .wait_until(SPIN_LIMIT, || self.done.load(SeqCst) == threads - 1);
        self.busy.store(false, SeqCst);
        let payload = lock(&job.payload).take();
        if let Some(payload) = payload {
            panic::resume_unwind(payload);
        }
    }

    /// A helper's life: park until a new ticket, run the job if this
    /// helper takes part, report done, repeat.
    fn serve(&self, me: usize) {
        let mut seen = 0;
        loop {
            self.idle
                .wait_until(0, || self.ticket.load(SeqCst) >> THREAD_BITS != seen);
            let ticket = self.ticket.load(SeqCst);
            seen = ticket >> THREAD_BITS;
            let threads = (ticket & THREAD_MASK) as usize;
            if me >= threads {
                continue;
            }
            // SAFETY: this helper takes part in the ticket's job, so the
            // job's caller is blocked in `run` until this helper bumps
            // `done` below, keeping the job alive; and no newer job can
            // be published before then, so the pointer is this ticket's.
            let job = unsafe { &*self.job.load(SeqCst) };
            self.walk(job, me);
            if self.done.fetch_add(1, SeqCst) + 1 == threads - 1 {
                self.step.wake();
            }
        }
    }

    /// Team thread `me`'s share of `job`: its roles of every parallel
    /// step (role 0's serial steps on thread 0), with a barrier after
    /// every step but the last.
    fn walk(&self, job: &Job<'_>, me: usize) {
        let last = job.parallel.len() - 1;
        for (step, &par) in job.parallel.iter().enumerate() {
            if par {
                for role in (me..job.workers).step_by(job.threads) {
                    job.call(step, role);
                }
            } else if me == 0 {
                job.call(step, 0);
            }
            if step < last {
                self.barrier(job.threads);
            }
        }
    }

    /// Generation barrier over `threads` team threads: the last arrival
    /// resets the count and bumps the generation; the rest spin, then
    /// park, until it moves. SeqCst read-modify-writes and the
    /// generation store/load carry every arrival's writes to every
    /// waiter.
    fn barrier(&self, threads: usize) {
        let generation = self.generation.load(SeqCst);
        if self.arrived.fetch_add(1, SeqCst) + 1 == threads {
            self.arrived.store(0, SeqCst);
            self.generation.store(generation.wrapping_add(1), SeqCst);
            self.step.wake();
        } else {
            self.step
                .wait_until(SPIN_LIMIT, || self.generation.load(SeqCst) != generation);
        }
    }
}

/// A place to park until a condition on the team's atomics holds.
/// Waiters register in `sleepers` under the lock and recheck before
/// sleeping; wakers change the condition, then notify only when someone
/// is registered. Both sides use SeqCst, so either the waiter's recheck
/// sees the change or the waker sees the sleeper — no lost wake-up.
#[derive(Default)]
struct Gate {
    lock: Mutex<()>,
    cv: Condvar,
    sleepers: AtomicUsize,
}

impl Gate {
    /// Return once `ready()` holds: poll it `spins` times, then park.
    fn wait_until(&self, spins: u32, ready: impl Fn() -> bool) {
        for _ in 0..spins {
            if ready() {
                return;
            }
            std::hint::spin_loop();
        }
        let mut guard = lock(&self.lock);
        self.sleepers.fetch_add(1, SeqCst);
        while !ready() {
            guard = self.cv.wait(guard).unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, SeqCst);
    }

    /// Wake every parked waiter, after the caller changed the condition.
    fn wake(&self) {
        if self.sleepers.load(SeqCst) > 0 {
            // Taking the lock orders this notify after a registered
            // waiter's recheck: it is either parked or has seen the change.
            drop(lock(&self.lock));
            self.cv.notify_all();
        }
    }
}

/// Lock a mutex whose data stays valid whatever a panicking holder did
/// (`()` and a write-once payload slot), so poisoning is ignored.
fn lock<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(PoisonError::into_inner)
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
        // No barrier follows the last step; the done count must order
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

    #[test]
    fn nested_calls_run_every_role_on_the_caller() {
        // The outer call holds the team, so each inner call runs all of
        // its roles inline, in role order, on the thread that made it.
        let inner_calls = AtomicUsize::new(0);
        stepped_for_each(2, &[true], |_, _, _| {
            let me = std::thread::current().id();
            let next_role = AtomicUsize::new(0);
            stepped_for_each(3, &[true, false], |step, role, w| {
                assert_eq!(w, 3);
                assert_eq!(
                    std::thread::current().id(),
                    me,
                    "nested role left its thread"
                );
                if step == 0 {
                    assert_eq!(role, next_role.fetch_add(1, Ordering::SeqCst));
                }
                inner_calls.fetch_add(1, Ordering::SeqCst);
            });
        });
        // Two outer roles, each running 3 parallel + 1 serial inner calls.
        assert_eq!(inner_calls.load(Ordering::SeqCst), 2 * 4);
    }

    #[test]
    fn panic_in_a_step_propagates_and_the_team_survives() {
        use std::sync::mpsc;
        use std::time::Duration;
        // Role 1 panics in step 0 of three; the others must not hang at
        // the next barrier, and the panic must reach the caller. The
        // call runs on a side thread so a hang fails the test instead
        // of stalling it.
        let (tx, rx) = mpsc::channel();
        std::thread::spawn(move || {
            let later_steps = AtomicUsize::new(0);
            let result = std::panic::catch_unwind(|| {
                stepped_for_each(2, &[true, true, true], |step, role, _| {
                    if step == 0 && role == 1 {
                        panic!("role 1 failed");
                    }
                    if step > 0 {
                        later_steps.fetch_add(1, Ordering::SeqCst);
                    }
                });
            });
            let message = result
                .err()
                .and_then(|p| p.downcast_ref::<&str>().map(|s| s.to_string()));
            let _ = tx.send((message, later_steps.load(Ordering::SeqCst)));
        });
        let (message, later_steps) = rx
            .recv_timeout(Duration::from_secs(10))
            .expect("a panicking step hung the caller");
        assert_eq!(message.as_deref(), Some("role 1 failed"));
        assert_eq!(later_steps, 0, "bodies ran after the panic");

        let roles: Vec<AtomicUsize> = (0..2).map(|_| AtomicUsize::new(0)).collect();
        stepped_for_each(2, &[true], |_, role, _| {
            roles[role].fetch_add(1, Ordering::SeqCst);
        });
        assert!(roles.iter().all(|r| r.load(Ordering::SeqCst) == 1));
    }
}
