//! # spmv-serve — multi-tenant SpMV serving layer
//!
//! Everything below this crate answers *one* query shape — `y = A x`
//! for a registered sparse matrix — but a serving process answers it
//! for many tenants against a shared pool of matrices, where the two
//! dominant costs are ones a single-shot CLI never sees:
//!
//! * **Plan compilation amortization.** Building and verifying a plan
//!   costs orders of magnitude more than executing it. The
//!   [`cache::PlanCache`] keys verified plans by sparsity pattern (row
//!   structure and columns) + frozen
//!   [`PlanConfig`](spmv_autotune::PlanConfig), dedups concurrent
//!   builds (single-flight), serves hits without an exclusive lock, and
//!   confirms every key match with an independent whole-pattern
//!   checksum so a hash collision can never smuggle the wrong plan to a
//!   tenant. A registered matrix's key and checksum are computed once,
//!   at registration.
//! * **Memory-traffic amortization.** `K` requests against the same
//!   matrix as one SpMM batch walk the pattern once instead of `K`
//!   times. The [`serve::SpmvServer`] admission queue coalesces
//!   same-matrix requests (bounded by `max_batch` and a per-anchor
//!   `coalesce_window`) while a deficit-round-robin scheduler with
//!   earliest-deadline tie-breaks keeps tenants fair. Batched responses
//!   are bit-for-bit identical to standalone single-vector executes.
//!
//! The dispatcher's lost-wakeup-free sleep protocol is exhaustively
//! model-checked by `AdmissionModel` in the analysis crate.

pub mod cache;
pub mod serve;

pub use cache::{CacheConfig, CacheError, CacheStats, PatternIdentity, PlanCache, PlanKey};
pub use serve::{
    MatrixId, RefineConfig, Response, ServeConfig, ServeError, ServeStats, SpmvServer, TenantId,
    Ticket,
};
