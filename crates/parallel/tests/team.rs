//! The persistent worker team behind `stepped_for_each`, in a process of
//! its own so no other test contends for the team. The two tests share
//! it too, so they take turns through `SERIAL`.

use spmv_parallel::{num_threads, stepped_for_each};
use std::collections::HashSet;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Mutex, PoisonError};
use std::thread::{self, ThreadId};

static SERIAL: Mutex<()> = Mutex::new(());

#[test]
fn uncontended_calls_reuse_one_set_of_helper_threads() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    let workers = num_threads();
    if workers < 2 {
        return;
    }
    let caller = thread::current().id();
    let mut helpers: HashSet<ThreadId> = HashSet::new();
    for call in 0..100 {
        let ids: Vec<Mutex<Option<ThreadId>>> = (0..workers).map(|_| Mutex::new(None)).collect();
        stepped_for_each(workers, &[true, true], |step, role, _| {
            if step == 1 {
                *ids[role].lock().unwrap() = Some(thread::current().id());
            }
        });
        let ids: Vec<ThreadId> = ids
            .into_iter()
            .map(|id| id.into_inner().unwrap().expect("every role ran"))
            .collect();
        assert_eq!(ids[0], caller, "call {call}: role 0 left the caller");
        for (role, id) in ids.iter().enumerate().skip(1) {
            assert_ne!(*id, caller, "call {call}: role {role} ran on the caller");
        }
        helpers.extend(&ids[1..]);
    }
    assert_eq!(
        helpers.len(),
        workers - 1,
        "100 calls used {} distinct helper threads",
        helpers.len()
    );
}

#[test]
fn concurrent_callers_all_get_correct_results() {
    let _turn = SERIAL.lock().unwrap_or_else(PoisonError::into_inner);
    // Each caller runs a dependency chain: slot `i` of step `s` reads
    // slot `i + 1` of step `s - 1`, which another role wrote. Whichever
    // caller holds the team and whichever run inline, every caller must
    // see exactly its own chain.
    const STEPS: usize = 24;
    const SLOTS: usize = 16;
    thread::scope(|scope| {
        for caller in 0..4usize {
            scope.spawn(move || {
                for round in 0..50 {
                    let workers = 2 + (caller + round) % 4;
                    let layers: Vec<Vec<AtomicUsize>> = (0..STEPS)
                        .map(|_| (0..SLOTS).map(|_| AtomicUsize::new(usize::MAX)).collect())
                        .collect();
                    let parallel: Vec<bool> = (0..STEPS).map(|s| s % 5 != 4).collect();
                    stepped_for_each(workers, &parallel, |step, role, w| {
                        let mine = if parallel[step] {
                            role..SLOTS
                        } else {
                            0..SLOTS
                        };
                        let stride = if parallel[step] { w } else { 1 };
                        for i in mine.step_by(stride) {
                            let v = match step {
                                0 => i,
                                _ => layers[step - 1][(i + 1) % SLOTS].load(Ordering::Relaxed) + 1,
                            };
                            layers[step][i].store(v, Ordering::Relaxed);
                        }
                    });
                    for (s, layer) in layers.iter().enumerate() {
                        for (i, slot) in layer.iter().enumerate() {
                            assert_eq!(
                                slot.load(Ordering::Relaxed),
                                (i + s) % SLOTS + s,
                                "caller {caller}, round {round}, step {s}, slot {i}"
                            );
                        }
                    }
                }
            });
        }
    });
}
