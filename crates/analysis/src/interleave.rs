//! Exhaustive-interleaving model checker (loom-style, std-only).
//!
//! The real `spmv-parallel` primitives run on OS threads, where a racy
//! interleaving may only surface once in a million runs. This module
//! takes the opposite approach: a concurrent protocol is written as a
//! small deterministic state machine ([`Model`]) whose every thread
//! advances in explicit atomic steps, and [`explore`] enumerates *every*
//! schedule with a depth-first search over the state graph (deduplicated
//! by state equality, so diamonds are visited once).
//!
//! Three verdicts matter:
//!
//! * a state where [`Model::violation`] fires (e.g. a double write) is
//!   reported with the schedule that reached it;
//! * a state where no thread is runnable but the model is not
//!   [`Model::done`] is a **deadlock** — this is exactly how a lost
//!   wakeup manifests (a waiter asleep on a condition variable nobody
//!   will ever signal again);
//! * if every reachable state is clean and terminal states are all
//!   `done`, the protocol passes for this model size.
//!
//! Exhaustiveness is over the model, not the silicon: the models in
//! [`crate::models`] encode the worker-team and serving protocols at
//! small N (2–3 threads), which is where these protocol
//! bugs already show up.

use std::collections::HashSet;
use std::hash::Hash;

/// A concurrent protocol as an explorable state machine.
///
/// `Clone + Eq + Hash` make the state graph explorable: the explorer
/// clones a state to branch on each runnable thread and hashes states to
/// avoid revisiting.
pub trait Model: Clone + Eq + Hash {
    /// Number of threads in the model (thread ids are `0..n_threads()`).
    fn n_threads(&self) -> usize;

    /// Can thread `t` take a step right now? Blocked threads (waiting on
    /// a mutex or condition variable) and finished threads return false.
    fn runnable(&self, t: usize) -> bool;

    /// Advance thread `t` by one atomic step. Only called when
    /// `runnable(t)` is true.
    fn step(&mut self, t: usize);

    /// Has the whole protocol completed successfully?
    fn done(&self) -> bool;

    /// A safety violation visible in this state, if any.
    fn violation(&self) -> Option<String>;
}

/// Result of exhaustively exploring a [`Model`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// Every reachable schedule terminates cleanly.
    Pass {
        /// Number of distinct states visited.
        states: usize,
    },
    /// Some schedule reaches a state with no runnable thread that is not
    /// `done` — a deadlock or lost wakeup.
    Deadlock {
        /// The thread schedule (sequence of thread ids) reaching it.
        trace: Vec<usize>,
    },
    /// Some schedule reaches a state whose `violation` fires.
    Violation {
        /// The thread schedule reaching it.
        trace: Vec<usize>,
        /// The model's description of what went wrong.
        message: String,
    },
    /// The state budget ran out before the graph was exhausted; no
    /// verdict. Raise `max_states` or shrink the model.
    Truncated {
        /// States visited before giving up.
        states: usize,
    },
}

impl Verdict {
    /// True only for [`Verdict::Pass`].
    pub fn passed(&self) -> bool {
        matches!(self, Verdict::Pass { .. })
    }
}

impl std::fmt::Display for Verdict {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Verdict::Pass { states } => write!(f, "pass ({states} states)"),
            Verdict::Deadlock { trace } => {
                write!(f, "deadlock/lost-wakeup via schedule {trace:?}")
            }
            Verdict::Violation { trace, message } => {
                write!(f, "violation via schedule {trace:?}: {message}")
            }
            Verdict::Truncated { states } => {
                write!(f, "inconclusive: state budget exhausted at {states}")
            }
        }
    }
}

/// Exhaustively explore every interleaving of `initial`, visiting at
/// most `max_states` distinct states. Depth-first with a visited set;
/// the first bad state found is reported with its schedule.
pub fn explore<M: Model>(initial: M, max_states: usize) -> Verdict {
    let mut visited: HashSet<M> = HashSet::new();
    let mut stack: Vec<(M, Vec<usize>)> = vec![(initial, Vec::new())];
    while let Some((state, trace)) = stack.pop() {
        if !visited.insert(state.clone()) {
            continue;
        }
        if visited.len() > max_states {
            return Verdict::Truncated {
                states: visited.len(),
            };
        }
        if let Some(message) = state.violation() {
            return Verdict::Violation { trace, message };
        }
        let runnable: Vec<usize> = (0..state.n_threads())
            .filter(|&t| state.runnable(t))
            .collect();
        if runnable.is_empty() {
            if state.done() {
                continue;
            }
            return Verdict::Deadlock { trace };
        }
        for t in runnable {
            let mut next = state.clone();
            next.step(t);
            if !visited.contains(&next) {
                let mut next_trace = trace.clone();
                next_trace.push(t);
                stack.push((next, next_trace));
            }
        }
    }
    Verdict::Pass {
        states: visited.len(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two threads increment a shared counter in two non-atomic steps
    /// (read, then write) — the textbook lost update.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct LostUpdate {
        counter: u8,
        pc: [u8; 2],
        local: [u8; 2],
    }

    impl Model for LostUpdate {
        fn n_threads(&self) -> usize {
            2
        }
        fn runnable(&self, t: usize) -> bool {
            self.pc[t] < 2
        }
        fn step(&mut self, t: usize) {
            match self.pc[t] {
                0 => self.local[t] = self.counter,
                1 => self.counter = self.local[t] + 1,
                _ => unreachable!(),
            }
            self.pc[t] += 1;
        }
        fn done(&self) -> bool {
            self.pc == [2, 2]
        }
        fn violation(&self) -> Option<String> {
            if self.done() && self.counter != 2 {
                Some(format!("lost update: counter = {}", self.counter))
            } else {
                None
            }
        }
    }

    #[test]
    fn finds_the_lost_update() {
        let v = explore(
            LostUpdate {
                counter: 0,
                pc: [0, 0],
                local: [0, 0],
            },
            10_000,
        );
        assert!(matches!(v, Verdict::Violation { .. }), "got {v}");
    }

    /// Same protocol but the increment is one atomic step — must pass.
    #[derive(Clone, PartialEq, Eq, Hash)]
    struct AtomicUpdate {
        counter: u8,
        pc: [u8; 2],
    }

    impl Model for AtomicUpdate {
        fn n_threads(&self) -> usize {
            2
        }
        fn runnable(&self, t: usize) -> bool {
            self.pc[t] < 1
        }
        fn step(&mut self, t: usize) {
            self.counter += 1;
            self.pc[t] += 1;
        }
        fn done(&self) -> bool {
            self.pc == [1, 1]
        }
        fn violation(&self) -> Option<String> {
            if self.done() && self.counter != 2 {
                Some("impossible".into())
            } else {
                None
            }
        }
    }

    #[test]
    fn atomic_version_passes() {
        let v = explore(
            AtomicUpdate {
                counter: 0,
                pc: [0, 0],
            },
            10_000,
        );
        assert!(v.passed(), "got {v}");
    }

    #[test]
    fn truncation_is_reported() {
        let v = explore(
            LostUpdate {
                counter: 0,
                pc: [0, 0],
                local: [0, 0],
            },
            1,
        );
        assert!(matches!(v, Verdict::Truncated { .. }), "got {v}");
    }
}
