//! # spmv-parallel
//!
//! A small, dependency-light data-parallel substrate: the CPU analogue of
//! the paper's OpenCL work-group machinery. The CPU-native SpMV kernels
//! and the level-scheduled solves run on it.
//!
//! Every parallel region runs on one persistent, process-wide team
//! behind [`stepped_for_each`]: created on first use with
//! [`num_threads`]` - 1` helper threads that park between calls, the
//! calling thread joining as team thread 0, and steps separated by a
//! spin-then-park barrier. No call spawns a thread. When a schedule has
//! more roles than the team has threads, the roles are dealt
//! round-robin over the threads within each step, so a body must never
//! wait on another role of the same step; a caller that finds the team
//! busy (another thread's call, or a nested call from inside a step)
//! runs every role itself. Everything else is a schedule handed to that
//! team:
//!
//! * [`drain_for_each`] runs independent items from one flat queue
//!   (a shared atomic cursor, per-worker scratch); [`fused_for_each_with`]
//!   is its scratch-free form, the one parallel region a compiled plan's
//!   whole tile queue runs in;
//! * [`parallel_for`] and [`parallel_map_collect`] are chunked flat
//!   drains over `[0, n)` — the moral equivalent of a
//!   `#pragma omp parallel for schedule(dynamic)`;
//! * level-set triangular solves use the team directly: step `s + 1`
//!   reads what step `s` wrote, with one barrier per level.
//!
//! The worker count is [`num_threads`]: `SPMV_THREADS` clamped to
//! [`hardware_threads`] (`SPMV_NUM_THREADS`, else the machine's
//! available parallelism). A malformed value of either variable warns
//! once and is ignored.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod clock;
pub mod drain;
pub mod scope;
pub mod step;

pub use clock::{Clock, FakeClock, MonotonicClock};
pub use drain::{drain_for_each, fused_for_each_with};
pub use scope::{
    hardware_threads, machine_threads, num_threads, parallel_for, parallel_map_collect,
};
pub use step::stepped_for_each;
