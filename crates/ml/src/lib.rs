//! # spmv-ml
//!
//! A from-scratch decision-tree learner in the C4.5/C5.0 family — the
//! stand-in for the proprietary C5.0 tool the paper uses for its
//! two-stage strategy model (§III-C).
//!
//! What is implemented, mirroring the published C4.5/C5.0 algorithm:
//!
//! * gain-ratio splits on numeric attributes (binary `≤ t` thresholds
//!   chosen at class boundaries) and categorical attributes (multiway);
//! * the "gain must be at least average" attribute pre-filter;
//! * pessimistic error-based pruning with the standard confidence-factor
//!   upper bound (CF = 0.25 by default);
//! * rule-set extraction from root-to-leaf paths with greedy condition
//!   dropping (the C5.0 "ruleset" mode the paper consumes);
//! * AdaBoost.M1-style boosting over weighted trees (C5.0's `-b`);
//! * evaluation utilities: confusion matrices, error rates, k-fold
//!   cross-validation, stratified train/test splits.
//!
//! The paper reports ≈5% test error for its stage-1 model (binning
//! granularity) and ≈15% for stage-2 (per-bin kernel); the `mlerr`
//! experiment binary reproduces those numbers with this learner.

#![warn(missing_docs)]

pub mod boost;
pub mod cv;
pub mod dataset;
pub mod entropy;
pub mod io;
pub mod lint;
pub mod metrics;
pub mod prune;
pub mod rules;
pub mod tree;

pub use boost::BoostedTrees;
pub use dataset::{AttrKind, AttrSpec, Dataset};
pub use lint::{lint_ruleset, lint_tree, Finding, LintOptions, Severity};
pub use metrics::ConfusionMatrix;
pub use rules::{Rule, RuleSet};
pub use tree::{DecisionTree, TreeConfig};
