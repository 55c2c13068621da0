//! # spmv-verify
//!
//! Static safety and model-soundness analyzers for the SpMV auto-tuning
//! stack, plus the `spmv-lint` driver binary that runs all of them and
//! fails CI on any violation. Three analyzers:
//!
//! 1. **Write-set disjointness** — proves a compiled [`SpmvPlan`]'s
//!    dispatch table writes every output row exactly once (coverage +
//!    disjointness + in-bounds, including the NNZ-balanced
//!    Subvector/Vector splits). The proof engine lives in
//!    `spmv_autotune::verify` — the core crate owns it because the
//!    [`VerifiedPlan`] token it mints must be unforgeable from outside
//!    (its only constructor is `SpmvPlan::verify`, and core cannot
//!    depend on this crate). This crate re-exports it and adds the
//!    [`driver`] that sweeps every (strategy × backend) combination.
//! 2. **Rule-set linting** — `spmv_ml::lint` checks trained classifiers
//!    for unreachable rules, contradictory conjunctions, out-of-range
//!    class ids, dead-default coverage gaps, and NaN-unsafe thresholds;
//!    `spmv_autotune::model_io` runs it at load time so corrupt models
//!    fail before they can mispredict. Re-exported here for the driver.
//! 3. **Concurrency model checking** — [`interleave`] is a loom-style
//!    (std-only) exhaustive-interleaving explorer; [`models`] encodes
//!    the `spmv-parallel` queue-claim and barrier protocols and the
//!    serving layer's admission and refinement protocols as small-N
//!    state machines, and detects lost wakeups, double writes, and
//!    deadlocks.
//!
//! A fourth, source-level check — [`hygiene`] — enforces the unsafe
//! hygiene rule: every `unsafe` block in the workspace's own crates must
//! carry a `// SAFETY:` comment.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod driver;
pub mod hygiene;
pub mod interleave;
pub mod models;

pub use spmv_autotune::plan::{BinDispatch, BinFormat, BinPayload, SpmvPlan, Tile, VerifiedPlan};
pub use spmv_autotune::verify::{check_dispatch, check_payloads, VerifyError};
pub use spmv_ml::lint::{lint_ruleset, lint_tree, Finding, LintOptions, Severity};
