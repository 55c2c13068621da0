//! # spmv-bench
//!
//! The experiment harness: one binary per table/figure of the paper's
//! evaluation section (see DESIGN.md §5 for the index) and a set of
//! Criterion microbenches.
//!
//! Binaries share the helpers here: an aligned-table printer, suite
//! loading, model training with environment-variable knobs
//! (`SPMV_CORPUS_COUNT`, `SPMV_FIG5_COUNT`, `SPMV_FIG8_ROWS`) so CI can
//! shrink the runs.

#![warn(missing_docs)]

pub mod setup;
pub mod table;

pub use setup::{env_usize, load_suite, train_default_model, train_or_load_model, SuiteCase};
pub use table::Table;

/// Escape `s` for embedding in a JSON string literal: backslashes and
/// double quotes. Bench names and labels carry no control characters.
pub fn json_escape(s: &str) -> String {
    s.replace('\\', "\\\\").replace('"', "\\\"")
}
