//! # spmv-sparse
//!
//! Sparse-matrix substrate for the SpMV auto-tuning reproduction
//! (Hou, Feng, Che — IPDPS Workshops 2017).
//!
//! This crate provides everything the auto-tuning framework consumes as
//! input:
//!
//! * [`CsrMatrix`] — the compressed sparse row format the paper is built
//!   around (Figure 1), with a sequential reference SpMV (Algorithm 1).
//! * [`CooMatrix`] — triplet format used for construction and I/O.
//! * [`mm`] — Matrix Market reader/writer, the interchange format of the
//!   UF (SuiteSparse) collection the paper trains on.
//! * [`gen`] — deterministic synthetic generators standing in for the
//!   application-domain matrices of the paper (road networks, meshes,
//!   FEM/structural blocks, power-law graphs, combinatorial incidence
//!   matrices, …).
//! * [`features`] — the Table I sparsity feature parameters
//!   (`M`, `N`, `NNZ`, `Var_NNZ`, `Avg_NNZ`, `Min_NNZ`, `Max_NNZ`) plus the
//!   extended histogram features the paper's §IV-C proposes.
//! * [`suite`] — synthetic analogues of the 16 representative matrices of
//!   Table II, scaled to laptop size.
//! * [`corpus`] — a sampler producing a UF-like training corpus of
//!   thousands of small matrices spanning the same sparsity regimes.

#![warn(missing_docs)]

pub mod coo;
pub mod corpus;
pub mod csr;
pub mod dense;
pub mod dense_block;
pub mod error;
pub mod features;
pub mod gen;
pub mod histogram;
pub mod mm;
pub mod ops;
pub mod packed;
pub mod reorder;
pub mod scalar;
pub mod solve;
pub mod special;
pub mod suite;

pub use coo::CooMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use dense_block::DenseBlock;
pub use error::{CsrBuildError, SolveBuildError, SparseError};
pub use features::{ColumnLocality, FeatureSet, MatrixFeatures};
pub use histogram::RowHistogram;
pub use packed::{prefetch_read, DefectKind, PackedDefect, PackedSell, SlabTamper, SlabView};
pub use scalar::Scalar;
pub use solve::{
    level_order, level_order_with_offdiag, split_triangular, sptrsv_seq, symgs_seq, SolveDirection,
    TriangularHalves, Triangularity,
};
pub use special::{BandSet, DenseRuns, RowRuns};
