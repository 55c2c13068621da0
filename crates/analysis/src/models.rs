//! Small-N state-machine encodings of the `spmv-parallel` concurrency
//! protocols, explorable by [`crate::interleave::explore`].
//!
//! Each model carries a *bug toggle* that re-introduces a classic
//! protocol defect, so the adversarial tests can prove the checker
//! actually detects what it claims to:
//!
//! * [`CursorModel`] — the flat-queue claim behind `parallel_for` and
//!   `fused_for_each_with` (`crates/parallel/src/drain.rs`): workers
//!   claim items with one atomic `fetch_add`. The buggy variant splits
//!   the claim into a read and a write, letting two workers claim — and
//!   write — the same item (detected as a double-write violation).
//! * [`TwoLockModel`] — two threads taking two locks; with a consistent
//!   acquisition order the protocol passes, with opposite orders the
//!   explorer finds the deadlock cycle.
//! * [`AdmissionModel`] — the serving layer's admission-queue protocol
//!   (`SpmvServer` in `crates/server/src/serve.rs`): producers enqueue
//!   requests and notify under the queue lock; one dispatcher drains
//!   coalesced batches of up to `K` requests, executes each batch
//!   *outside* the lock, then **reacquires and rechecks** the queue
//!   before ever waiting — so an arrival that lands while a batch is in
//!   flight is found on the recheck, and the condvar wait itself is an
//!   atomic unlock-and-sleep. The buggy variant splits that wait into
//!   unlock *then* sleep: a producer's notify can land in the window
//!   between them and be lost, stranding the enqueued request with the
//!   dispatcher asleep forever (detected as a deadlock).
//! * [`RefineModel`] — the online-refinement publish protocol
//!   (`refiner_loop` + `PlanCache::swap` in `crates/server`): a
//!   background refiner builds a candidate plan, **verifies** it, and
//!   only then publishes it into the shared cache slot; executors load
//!   whatever the slot holds and run it. Verification happening-before
//!   publication is exactly what makes the swap response-invariant. The
//!   buggy variant publishes first and verifies after — an executor can
//!   load the candidate in the gap and run an unverified plan (detected
//!   as a violation).
//! * [`LevelModel`] — the barrier-stepped level-solve protocol
//!   (`stepped_for_each` in `crates/parallel/src/step.rs`, driving the
//!   `SolvePlan` kernels): workers execute their slice of a level, meet
//!   at a barrier, then execute the next level, whose rows *read* rows
//!   written in the previous one. The buggy variant arrives at the
//!   barrier but does not wait — a worker can then read a dependency
//!   another worker has not written yet (detected as a
//!   read-before-write violation).
//! * [`TeamModel`] — the persistent team's park/wake handoff
//!   (`stepped_for_each` in `crates/parallel/src/step.rs`): the caller
//!   publishes a job epoch, *then* wakes registered sleepers, then waits
//!   for a done count; an idle helper takes the lock, registers as a
//!   sleeper and **rechecks the epoch under the lock** before it parks.
//!   The buggy variant checks for sleepers before publishing: a helper
//!   can register and recheck in between, park on the old epoch, and
//!   never be woken (detected as a deadlock — a lost wake-up).

use crate::interleave::Model;

/// Flat-queue claim protocol of `parallel_for`: `threads` workers
/// repeatedly claim the next item from a shared cursor and write it.
/// Correct claims are one atomic `fetch_add`; the buggy variant splits
/// read and increment, so two workers can claim the same item.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct CursorModel {
    cursor: u8,
    items: u8,
    writes: Vec<u8>,
    pc: Vec<u8>,
    local: Vec<u8>,
    buggy: bool,
}

impl CursorModel {
    /// Correct protocol: atomic claim.
    pub fn atomic_claim(threads: u8, items: u8) -> Self {
        Self::new(threads, items, false)
    }

    /// Buggy protocol: the claim is a separate read and write.
    pub fn racy_claim(threads: u8, items: u8) -> Self {
        Self::new(threads, items, true)
    }

    fn new(threads: u8, items: u8, buggy: bool) -> Self {
        Self {
            cursor: 0,
            items,
            writes: vec![0; items as usize],
            pc: vec![0; threads as usize],
            local: vec![0; threads as usize],
            buggy,
        }
    }
}

// Correct pcs: 0 = fetch_add claim (and exit check); 1 = write; done = 9.
// Buggy pcs: 0 = read cursor; 1 = write cursor+1 (and exit check);
// 2 = write item; done = 9.
impl Model for CursorModel {
    fn n_threads(&self) -> usize {
        self.pc.len()
    }

    fn runnable(&self, t: usize) -> bool {
        self.pc[t] != 9
    }

    fn step(&mut self, t: usize) {
        if self.buggy {
            match self.pc[t] {
                0 => {
                    // BUG (part 1): read the cursor…
                    self.local[t] = self.cursor;
                    self.pc[t] = 1;
                }
                1 => {
                    // BUG (part 2): …then bump it in a separate step —
                    // another thread may have claimed the same value in
                    // between.
                    self.cursor = self.local[t] + 1;
                    self.pc[t] = if self.local[t] >= self.items { 9 } else { 2 };
                }
                2 => {
                    self.writes[self.local[t] as usize] += 1;
                    self.pc[t] = 0;
                }
                _ => unreachable!(),
            }
        } else {
            match self.pc[t] {
                0 => {
                    // cursor.fetch_add(1): claim and bump atomically.
                    self.local[t] = self.cursor;
                    self.cursor += 1;
                    self.pc[t] = if self.local[t] >= self.items { 9 } else { 1 };
                }
                1 => {
                    self.writes[self.local[t] as usize] += 1;
                    self.pc[t] = 0;
                }
                _ => unreachable!(),
            }
        }
    }

    fn done(&self) -> bool {
        self.pc.iter().all(|&pc| pc == 9)
    }

    fn violation(&self) -> Option<String> {
        if let Some(i) = self.writes.iter().position(|&w| w > 1) {
            return Some(format!("item {i} written {} times", self.writes[i]));
        }
        if self.done() {
            if let Some(i) = self.writes.iter().position(|&w| w == 0) {
                return Some(format!("item {i} never written"));
            }
        }
        None
    }
}

/// Two threads, two locks. With `consistent_order` both take lock A
/// before lock B; otherwise thread 1 takes them in the opposite order,
/// and the explorer finds the hold-and-wait cycle.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TwoLockModel {
    lock_a: Option<u8>,
    lock_b: Option<u8>,
    pc: [u8; 2],
    consistent: bool,
}

impl TwoLockModel {
    /// Both threads acquire A then B — deadlock-free.
    pub fn consistent_order() -> Self {
        Self {
            lock_a: None,
            lock_b: None,
            pc: [0, 0],
            consistent: true,
        }
    }

    /// Thread 0 takes A→B, thread 1 takes B→A — the classic cycle.
    pub fn opposite_order() -> Self {
        Self {
            lock_a: None,
            lock_b: None,
            pc: [0, 0],
            consistent: false,
        }
    }

    /// Which lock thread `t` acquires at program counter `pc` (0 = first
    /// acquisition, 1 = second).
    fn wants_a(&self, t: usize, pc: u8) -> bool {
        let first_is_a = t == 0 || self.consistent;
        (pc == 0) == first_is_a
    }
}

// pcs: 0 = acquire first lock; 1 = acquire second; 2 = release both;
// 3 = done.
impl Model for TwoLockModel {
    fn n_threads(&self) -> usize {
        2
    }

    fn runnable(&self, t: usize) -> bool {
        match self.pc[t] {
            0 | 1 => {
                if self.wants_a(t, self.pc[t]) {
                    self.lock_a.is_none()
                } else {
                    self.lock_b.is_none()
                }
            }
            2 => true,
            _ => false,
        }
    }

    fn step(&mut self, t: usize) {
        match self.pc[t] {
            0 | 1 => {
                if self.wants_a(t, self.pc[t]) {
                    self.lock_a = Some(t as u8);
                } else {
                    self.lock_b = Some(t as u8);
                }
                self.pc[t] += 1;
            }
            2 => {
                if self.lock_a == Some(t as u8) {
                    self.lock_a = None;
                }
                if self.lock_b == Some(t as u8) {
                    self.lock_b = None;
                }
                self.pc[t] = 3;
            }
            _ => unreachable!(),
        }
    }

    fn done(&self) -> bool {
        self.pc == [3, 3]
    }

    fn violation(&self) -> Option<String> {
        None
    }
}

/// Admission-queue coalescing protocol of the serving layer:
/// `producers` producer threads each enqueue one request (and mark
/// themselves finished) under the queue lock, notifying the dispatcher
/// before unlocking; one dispatcher thread drains batches of up to
/// `max_batch` requests, executes each batch outside the lock, then
/// reacquires the lock and rechecks the queue before deciding to wait.
/// Thread ids `0..producers` are producers, `producers` is the
/// dispatcher.
///
/// The modelled wait is the *indefinite* empty-queue wait (the
/// coalescing-window `wait_timeout` only runs when a partial batch is
/// already pending, and a timeout would eventually mask a lost wakeup —
/// the protocol must not need that rescue). Partial batches are
/// implicit: the dispatcher takes `min(queued, max_batch)` whenever the
/// queue is non-empty, which covers both the batch-full and the
/// window-expired dispatch triggers.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct AdmissionModel {
    /// Requests enqueued and not yet taken into a batch.
    queued: u8,
    /// Requests whose batch has been dispatched (responses filled).
    served: u8,
    /// Requests currently in the in-flight batch (outside the lock).
    in_flight: u8,
    /// Producers that have finished their enqueue.
    producers_done: u8,
    /// Current queue-lock holder (thread id), if any.
    lock: Option<u8>,
    /// Is the dispatcher asleep on the condition variable?
    sleeping: bool,
    /// Per-producer program counter.
    prod_pc: Vec<u8>,
    /// Dispatcher program counter.
    disp_pc: u8,
    /// Batch-size cap `K`.
    max_batch: u8,
    /// Re-introduce the non-atomic (unlock, then sleep) wait.
    buggy: bool,
}

impl AdmissionModel {
    /// Correct protocol: the dispatcher's cv-wait atomically unlocks and
    /// sleeps, and every wait is preceded by a locked recheck.
    pub fn correct(producers: u8, max_batch: u8) -> Self {
        Self::new(producers, max_batch, false)
    }

    /// Buggy protocol: the dispatcher releases the lock and only then
    /// goes to sleep — a notify landing in between is lost.
    pub fn sleep_after_unlock(producers: u8, max_batch: u8) -> Self {
        Self::new(producers, max_batch, true)
    }

    fn new(producers: u8, max_batch: u8, buggy: bool) -> Self {
        assert!(max_batch >= 1, "batch cap must be at least 1");
        Self {
            queued: 0,
            served: 0,
            in_flight: 0,
            producers_done: 0,
            lock: None,
            sleeping: false,
            prod_pc: vec![0; producers as usize],
            disp_pc: 0,
            max_batch,
            buggy,
        }
    }

    fn dispatcher_id(&self) -> usize {
        self.prod_pc.len()
    }

    /// Wake the dispatcher if (and only if) it is currently asleep; a
    /// notify with nobody sleeping is lost, exactly like a real condvar.
    fn notify(&mut self) {
        if self.sleeping {
            self.sleeping = false;
        }
    }
}

// Producer pcs: 0 = acquire lock; 1 = enqueue + notify + unlock;
// 2 = done.
// Dispatcher pcs: 0 = acquire lock; 1 = locked check (take batch /
// exit / wait); 2 = execute batch outside the lock; 3 = asleep (wake
// reacquires the lock); 4 = sleep without the lock (buggy only, the
// lock was released at pc 1); 6 = done.
impl Model for AdmissionModel {
    fn n_threads(&self) -> usize {
        self.prod_pc.len() + 1
    }

    fn runnable(&self, t: usize) -> bool {
        if t < self.prod_pc.len() {
            match self.prod_pc[t] {
                0 => self.lock.is_none(),
                1 => true,
                _ => false,
            }
        } else {
            match self.disp_pc {
                0 => self.lock.is_none(),
                1 | 2 | 4 => true,
                // Asleep: only a notify makes the dispatcher runnable
                // again (then it must reacquire the lock).
                3 => !self.sleeping && self.lock.is_none(),
                _ => false,
            }
        }
    }

    fn step(&mut self, t: usize) {
        if t < self.prod_pc.len() {
            match self.prod_pc[t] {
                0 => {
                    self.lock = Some(t as u8);
                    self.prod_pc[t] = 1;
                }
                1 => {
                    // Enqueue, mark this producer finished, and notify —
                    // all under the lock — then unlock.
                    self.queued += 1;
                    self.producers_done += 1;
                    self.notify();
                    self.lock = None;
                    self.prod_pc[t] = 2;
                }
                _ => unreachable!(),
            }
        } else {
            let d = self.dispatcher_id() as u8;
            match self.disp_pc {
                0 | 3 => {
                    self.lock = Some(d);
                    self.disp_pc = 1;
                }
                1 => {
                    if self.queued > 0 {
                        // Coalesce up to `max_batch` requests and leave
                        // the lock to execute them.
                        let take = self.queued.min(self.max_batch);
                        self.queued -= take;
                        self.in_flight = take;
                        self.lock = None;
                        self.disp_pc = 2;
                    } else if self.producers_done as usize == self.prod_pc.len() {
                        self.lock = None;
                        self.disp_pc = 6;
                    } else if self.buggy {
                        // BUG (part 1): release the lock first…
                        self.lock = None;
                        self.disp_pc = 4;
                    } else {
                        // cv.wait(): atomically unlock and sleep.
                        self.lock = None;
                        self.sleeping = true;
                        self.disp_pc = 3;
                    }
                }
                2 => {
                    // Execute the batch outside the lock, then loop back
                    // to reacquire and recheck — arrivals that landed
                    // during execution are found there, never waited
                    // past.
                    self.served += self.in_flight;
                    self.in_flight = 0;
                    self.disp_pc = 0;
                }
                4 => {
                    // BUG (part 2): …then sleep in a separate step. A
                    // notify arriving in between found nobody sleeping
                    // and was lost.
                    self.sleeping = true;
                    self.disp_pc = 3;
                }
                _ => unreachable!(),
            }
        }
    }

    fn done(&self) -> bool {
        self.disp_pc == 6 && self.prod_pc.iter().all(|&pc| pc == 2)
    }

    fn violation(&self) -> Option<String> {
        if self.disp_pc == 6 {
            if self.queued > 0 || self.in_flight > 0 {
                return Some(format!(
                    "dispatcher exited with {} queued + {} in-flight requests",
                    self.queued, self.in_flight
                ));
            }
            if self.served != self.producers_done {
                return Some(format!(
                    "{} requests enqueued but {} served",
                    self.producers_done, self.served
                ));
            }
        }
        None
    }
}

/// Online-refinement publish protocol (`refiner_loop` feeding
/// `PlanCache::swap`): version 0 is the incumbent plan (verified before
/// it was ever cached), version 1 the refiner's candidate. The refiner
/// builds the candidate, verifies it, then publishes it by swapping the
/// shared slot; each executor performs two lookup-execute rounds — load
/// the slot's current version (one atomic step, the cache's read-locked
/// hit), then execute what it loaded (so a round that straddles the
/// swap keeps running its own version, like an execute holding its
/// `Arc`). The safety property: **no executor ever runs an unverified
/// version**. The buggy variant swaps publish and verify.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct RefineModel {
    /// The published slot: the version a fresh lookup receives.
    slot: u8,
    /// Has version `v` passed verification? Index 0 = incumbent
    /// (verified from the start), 1 = candidate.
    verified: [bool; 2],
    /// Per-executor pc: even = load the slot, odd = execute the loaded
    /// version; `2 * ROUNDS` = done.
    exec_pc: Vec<u8>,
    /// Per-executor loaded version.
    loaded: Vec<u8>,
    /// Refiner pc: 0 = build, 1..=2 = verify/publish (order is the bug
    /// toggle), 3 = done.
    ref_pc: u8,
    /// First unverified execution observed, as `(executor, version)`.
    bad_exec: Option<(u8, u8)>,
    /// Re-introduce the publish-before-verify bug.
    buggy: bool,
}

/// Lookup-execute rounds per executor: two, so one executor can run the
/// incumbent while another runs the freshly published candidate.
const REFINE_ROUNDS: u8 = 2;

impl RefineModel {
    /// Correct protocol: the candidate is verified before it is
    /// published.
    pub fn correct(executors: u8) -> Self {
        Self::new(executors, false)
    }

    /// Buggy protocol: the candidate is published first and verified
    /// after — executors can run it unverified.
    pub fn publish_before_verify(executors: u8) -> Self {
        Self::new(executors, true)
    }

    fn new(executors: u8, buggy: bool) -> Self {
        assert!((1..=4).contains(&executors), "1..=4 executors");
        Self {
            slot: 0,
            verified: [true, false],
            exec_pc: vec![0; executors as usize],
            loaded: vec![0; executors as usize],
            ref_pc: 0,
            bad_exec: None,
            buggy,
        }
    }
}

impl Model for RefineModel {
    fn n_threads(&self) -> usize {
        self.exec_pc.len() + 1
    }

    fn runnable(&self, t: usize) -> bool {
        if t < self.exec_pc.len() {
            self.exec_pc[t] < 2 * REFINE_ROUNDS
        } else {
            self.ref_pc < 3
        }
    }

    fn step(&mut self, t: usize) {
        if t < self.exec_pc.len() {
            if self.exec_pc[t].is_multiple_of(2) {
                // Lookup: load whatever the slot currently publishes.
                self.loaded[t] = self.slot;
            } else {
                // Execute the version this round loaded.
                let v = self.loaded[t];
                if !self.verified[v as usize] && self.bad_exec.is_none() {
                    self.bad_exec = Some((t as u8, v));
                }
            }
            self.exec_pc[t] += 1;
        } else {
            match (self.ref_pc, self.buggy) {
                // Build the candidate (exists, unverified, unpublished).
                (0, _) => {}
                // Correct: verify, then publish.
                (1, false) => self.verified[1] = true,
                (2, false) => self.slot = 1,
                // BUG: publish first, verify after.
                (1, true) => self.slot = 1,
                (2, true) => self.verified[1] = true,
                _ => unreachable!(),
            }
            self.ref_pc += 1;
        }
    }

    fn done(&self) -> bool {
        self.ref_pc == 3 && self.exec_pc.iter().all(|&pc| pc == 2 * REFINE_ROUNDS)
    }

    fn violation(&self) -> Option<String> {
        if let Some((e, v)) = self.bad_exec {
            return Some(format!(
                "executor {e} ran plan version {v} before it was verified"
            ));
        }
        if self.done() && self.slot == 1 && !self.verified[1] {
            return Some("unverified candidate left published".into());
        }
        None
    }
}

/// Barrier-stepped level-solve protocol of `stepped_for_each`: a fixed
/// two-level schedule over four rows — level 0 is rows {0, 1} (no
/// dependencies), level 1 is rows {2, 3} where row 2 reads row 1 and
/// row 3 reads row 0. Row `i` of a level is owned by worker
/// `i % workers`, so with two or more workers every level-1 row depends
/// on a row *another* worker writes — exactly the cross-worker edge the
/// barrier must order. Each worker writes its level-0 rows, arrives at
/// the barrier, waits for everyone, then executes its level-1 rows
/// (reading the dependency, then writing the row). The buggy variant
/// arrives but does not wait.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LevelModel {
    /// Has row `r` been written yet?
    written: [bool; 4],
    /// Barrier arrival counter.
    arrived: u8,
    /// Per-worker stage: 0 = write level-0 rows, 1 = barrier arrive,
    /// 2 = barrier wait, 3 = execute level-1 rows, 4 = done.
    pc: Vec<u8>,
    /// Per-worker cursor into its owned rows of the current level.
    k: Vec<u8>,
    /// First read of an unwritten dependency, as `(row, dep)`.
    bad_read: Option<(u8, u8)>,
    /// Re-introduce the skipped-barrier bug.
    buggy: bool,
}

/// `(row, dependency)` per level-1 row: row 2 reads row 1, row 3 reads
/// row 0.
const LEVEL1_DEPS: [(u8, u8); 2] = [(2, 1), (3, 0)];

impl LevelModel {
    /// Correct protocol: every worker waits at the barrier between
    /// levels.
    pub fn correct(workers: u8) -> Self {
        Self::new(workers, false)
    }

    /// Buggy protocol: workers arrive at the barrier but proceed
    /// without waiting — level-1 reads can beat level-0 writes.
    pub fn skipped_barrier(workers: u8) -> Self {
        Self::new(workers, true)
    }

    fn new(workers: u8, buggy: bool) -> Self {
        assert!((1..=4).contains(&workers), "1..=4 workers");
        Self {
            written: [false; 4],
            arrived: 0,
            pc: vec![0; workers as usize],
            k: vec![0; workers as usize],
            bad_read: None,
            buggy,
        }
    }

    /// Rows of level `level` owned by worker `t` (row `i % workers`).
    fn owned(&self, t: usize, level: usize) -> Vec<u8> {
        let rows: [u8; 2] = if level == 0 { [0, 1] } else { [2, 3] };
        rows.iter()
            .enumerate()
            .filter(|(i, _)| i % self.pc.len() == t)
            .map(|(_, &r)| r)
            .collect()
    }
}

impl Model for LevelModel {
    fn n_threads(&self) -> usize {
        self.pc.len()
    }

    fn runnable(&self, t: usize) -> bool {
        match self.pc[t] {
            // The barrier wait blocks until everyone has arrived.
            2 => self.arrived as usize == self.pc.len(),
            4 => false,
            _ => true,
        }
    }

    fn step(&mut self, t: usize) {
        match self.pc[t] {
            0 => {
                let owned = self.owned(t, 0);
                if let Some(&r) = owned.get(self.k[t] as usize) {
                    self.written[r as usize] = true;
                    self.k[t] += 1;
                }
                if self.k[t] as usize >= owned.len() {
                    self.pc[t] = 1;
                }
            }
            1 => {
                // Barrier arrival (the atomic part every variant keeps).
                self.arrived += 1;
                self.k[t] = 0;
                // BUG toggle: the buggy worker does not wait for the
                // others before starting the next level.
                self.pc[t] = if self.buggy { 3 } else { 2 };
            }
            2 => {
                self.pc[t] = 3;
            }
            3 => {
                let owned = self.owned(t, 1);
                if let Some(&r) = owned.get(self.k[t] as usize) {
                    let (row, dep) = LEVEL1_DEPS[(r - 2) as usize];
                    if !self.written[dep as usize] && self.bad_read.is_none() {
                        self.bad_read = Some((row, dep));
                    }
                    self.written[r as usize] = true;
                    self.k[t] += 1;
                }
                if self.k[t] as usize >= owned.len() {
                    self.pc[t] = 4;
                }
            }
            _ => unreachable!(),
        }
    }

    fn done(&self) -> bool {
        self.pc.iter().all(|&pc| pc == 4)
    }

    fn violation(&self) -> Option<String> {
        if let Some((row, dep)) = self.bad_read {
            return Some(format!("row {row} read row {dep} before it was written"));
        }
        if self.done() {
            if let Some(r) = self.written.iter().position(|&w| !w) {
                return Some(format!("row {r} never written"));
            }
        }
        None
    }
}

/// Park/wake handoff of the persistent worker team: one caller
/// (thread 0) runs `jobs` jobs on `helpers` helpers (threads
/// `1..=helpers`). Per job the caller resets the done count and
/// publishes the next epoch (one atomic store), loads the sleeper
/// count, and only if it is non-zero takes and drops the lock and
/// notifies every parked helper; it then waits until every helper has
/// reported done. An idle helper takes the lock, registers as a sleeper,
/// and rechecks the epoch: a new one sends it to run the job (after
/// deregistering and unlocking), an old one parks it — a condvar wait
/// that atomically unlocks and sleeps; a notify makes it reacquire the
/// lock and recheck. The buggy variant loads the sleeper count *before*
/// publishing the epoch.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct TeamModel {
    /// Published job epoch (0 = no job yet).
    epoch: u8,
    /// Jobs the caller runs.
    jobs: u8,
    /// Helpers that finished the current job.
    done: u8,
    /// Registered sleepers (the caller's lock-free hint).
    sleepers: u8,
    /// Current lock holder (thread id), if any.
    lock: Option<u8>,
    /// Caller pc: 0, 1 = publish / load sleepers (order is the bug
    /// toggle); 2 = take the lock; 3 = drop it; 4 = notify all;
    /// 5 = wait for done; 9 = finished.
    caller_pc: u8,
    /// What the caller's sleeper load saw (buggy order only).
    saw_sleepers: bool,
    /// Per-helper pc: 0 = take the lock; 1 = register; 2 = recheck the
    /// epoch (run, or park); 3 = parked; 4 = run the job; 9 = exited.
    helper_pc: Vec<u8>,
    /// Per-helper: parked until notified.
    parked: Vec<bool>,
    /// Per-helper: the last epoch it ran.
    seen: Vec<u8>,
    /// Re-introduce the check-sleepers-before-publishing bug.
    buggy: bool,
}

impl TeamModel {
    /// Correct protocol: publish the epoch, then check for sleepers.
    pub fn correct(helpers: u8, jobs: u8) -> Self {
        Self::new(helpers, jobs, false)
    }

    /// Buggy protocol: check for sleepers, then publish the epoch — a
    /// helper that parks in between is never woken.
    pub fn sleepers_checked_before_publish(helpers: u8, jobs: u8) -> Self {
        Self::new(helpers, jobs, true)
    }

    fn new(helpers: u8, jobs: u8, buggy: bool) -> Self {
        assert!((1..=3).contains(&helpers), "1..=3 helpers");
        assert!((1..=3).contains(&jobs), "1..=3 jobs");
        Self {
            epoch: 0,
            jobs,
            done: 0,
            sleepers: 0,
            lock: None,
            caller_pc: 0,
            saw_sleepers: false,
            helper_pc: vec![0; helpers as usize],
            parked: vec![false; helpers as usize],
            seen: vec![0; helpers as usize],
            buggy,
        }
    }

    fn helpers(&self) -> u8 {
        self.helper_pc.len() as u8
    }

    fn publish(&mut self) {
        self.done = 0;
        self.epoch += 1;
    }
}

impl Model for TeamModel {
    fn n_threads(&self) -> usize {
        self.helper_pc.len() + 1
    }

    fn runnable(&self, t: usize) -> bool {
        if t == 0 {
            match self.caller_pc {
                2 => self.lock.is_none(),
                5 => self.done == self.helpers(),
                9 => false,
                _ => true,
            }
        } else {
            let h = t - 1;
            match self.helper_pc[h] {
                0 => self.lock.is_none(),
                // Parked: only a notify makes it runnable, and then it
                // must reacquire the lock.
                3 => !self.parked[h] && self.lock.is_none(),
                9 => false,
                _ => true,
            }
        }
    }

    fn step(&mut self, t: usize) {
        if t == 0 {
            match self.caller_pc {
                0 => {
                    if self.buggy {
                        // BUG (part 1): look for sleepers first…
                        self.saw_sleepers = self.sleepers > 0;
                    } else {
                        self.publish();
                    }
                    self.caller_pc = 1;
                }
                1 => {
                    let wake = if self.buggy {
                        // BUG (part 2): …then publish; a helper that
                        // registered and rechecked in between is parked
                        // on the old epoch, and nobody notifies it.
                        self.publish();
                        self.saw_sleepers
                    } else {
                        self.sleepers > 0
                    };
                    self.caller_pc = if wake { 2 } else { 5 };
                }
                2 => {
                    self.lock = Some(0);
                    self.caller_pc = 3;
                }
                3 => {
                    self.lock = None;
                    self.caller_pc = 4;
                }
                4 => {
                    self.parked.iter_mut().for_each(|p| *p = false);
                    self.caller_pc = 5;
                }
                5 => {
                    self.caller_pc = if self.epoch == self.jobs { 9 } else { 0 };
                }
                _ => unreachable!(),
            }
        } else {
            let h = t - 1;
            let me = t as u8;
            match self.helper_pc[h] {
                0 | 3 => {
                    self.lock = Some(me);
                    self.helper_pc[h] = if self.helper_pc[h] == 0 { 1 } else { 2 };
                }
                1 => {
                    self.sleepers += 1;
                    self.helper_pc[h] = 2;
                }
                2 => {
                    if self.epoch != self.seen[h] {
                        self.sleepers -= 1;
                        self.lock = None;
                        self.helper_pc[h] = 4;
                    } else {
                        // cv.wait(): atomically unlock and park.
                        self.lock = None;
                        self.parked[h] = true;
                        self.helper_pc[h] = 3;
                    }
                }
                4 => {
                    self.seen[h] = self.epoch;
                    self.done += 1;
                    self.helper_pc[h] = if self.epoch == self.jobs { 9 } else { 0 };
                }
                _ => unreachable!(),
            }
        }
    }

    fn done(&self) -> bool {
        self.caller_pc == 9 && self.helper_pc.iter().all(|&pc| pc == 9)
    }

    fn violation(&self) -> Option<String> {
        if self.done > self.helpers() {
            return Some(format!(
                "{} done reports from {} helpers: a job ran twice",
                self.done,
                self.helpers()
            ));
        }
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::interleave::{explore, Verdict};

    const BUDGET: usize = 200_000;

    #[test]
    fn atomic_cursor_claim_is_sound() {
        let v = explore(CursorModel::atomic_claim(2, 3), BUDGET);
        assert!(v.passed(), "got {v}");
    }

    #[test]
    fn racy_cursor_claim_double_writes() {
        let v = explore(CursorModel::racy_claim(2, 2), BUDGET);
        match v {
            Verdict::Violation { message, .. } => {
                assert!(message.contains("written"), "unexpected message {message}");
            }
            other => panic!("expected Violation, got {other}"),
        }
    }

    #[test]
    fn barrier_stepped_levels_are_sound() {
        for workers in 1..=3 {
            let v = explore(LevelModel::correct(workers), BUDGET);
            assert!(v.passed(), "workers={workers}: {v}");
        }
    }

    #[test]
    fn skipping_the_barrier_races_a_dependency_read() {
        let v = explore(LevelModel::skipped_barrier(2), BUDGET);
        match v {
            Verdict::Violation { message, .. } => {
                assert!(
                    message.contains("before it was written"),
                    "unexpected message {message}"
                );
            }
            other => panic!("expected Violation, got {other}"),
        }
    }

    #[test]
    fn one_worker_needs_no_barrier() {
        // A single worker executes levels in program order: even the
        // buggy variant cannot race with itself.
        let v = explore(LevelModel::skipped_barrier(1), BUDGET);
        assert!(v.passed(), "got {v}");
    }

    #[test]
    fn admission_protocol_is_sound() {
        // Producers × batch caps covering: serial admission, coalesced
        // full batches, partial batches (more producers than the cap
        // forces multiple dispatches; a cap above the producer count
        // forces a partial one).
        for producers in 1..=3u8 {
            for max_batch in [1, 2, 8] {
                let v = explore(AdmissionModel::correct(producers, max_batch), BUDGET);
                assert!(v.passed(), "producers={producers}, k={max_batch}: {v}");
            }
        }
    }

    #[test]
    fn sleeping_after_unlock_loses_an_arrival() {
        let v = explore(AdmissionModel::sleep_after_unlock(2, 8), BUDGET);
        assert!(matches!(v, Verdict::Deadlock { .. }), "got {v}");
    }

    #[test]
    fn even_one_producer_can_slip_the_non_atomic_wait() {
        // Dispatcher checks the empty queue, unlocks; the lone producer
        // enqueues and notifies into the gap; the dispatcher then sleeps
        // forever on a request that is already there.
        let v = explore(AdmissionModel::sleep_after_unlock(1, 1), BUDGET);
        assert!(matches!(v, Verdict::Deadlock { .. }), "got {v}");
    }

    #[test]
    fn refine_publish_protocol_is_sound() {
        for executors in 1..=3 {
            let v = explore(RefineModel::correct(executors), BUDGET);
            assert!(v.passed(), "executors={executors}: {v}");
        }
    }

    #[test]
    fn publishing_before_verifying_runs_an_unverified_plan() {
        let v = explore(RefineModel::publish_before_verify(2), BUDGET);
        match v {
            Verdict::Violation { message, .. } => {
                assert!(
                    message.contains("before it was verified"),
                    "unexpected message {message}"
                );
            }
            other => panic!("expected Violation, got {other}"),
        }
    }

    #[test]
    fn even_one_executor_can_catch_the_unverified_publish() {
        let v = explore(RefineModel::publish_before_verify(1), BUDGET);
        assert!(matches!(v, Verdict::Violation { .. }), "got {v}");
    }

    #[test]
    fn team_park_wake_handoff_is_sound() {
        for helpers in 1..=3 {
            for jobs in 1..=2 {
                let v = explore(TeamModel::correct(helpers, jobs), BUDGET);
                assert!(v.passed(), "helpers={helpers}, jobs={jobs}: {v}");
            }
        }
    }

    #[test]
    fn checking_sleepers_before_publishing_loses_a_wake_up() {
        for helpers in 1..=2 {
            let v = explore(
                TeamModel::sleepers_checked_before_publish(helpers, 1),
                BUDGET,
            );
            assert!(
                matches!(v, Verdict::Deadlock { .. }),
                "helpers={helpers}: {v}"
            );
        }
    }

    #[test]
    fn consistent_lock_order_passes() {
        let v = explore(TwoLockModel::consistent_order(), BUDGET);
        assert!(v.passed(), "got {v}");
    }

    #[test]
    fn opposite_lock_order_deadlocks() {
        let v = explore(TwoLockModel::opposite_order(), BUDGET);
        assert!(matches!(v, Verdict::Deadlock { .. }), "got {v}");
    }
}
