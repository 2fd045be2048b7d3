//! # moa-storage — main-memory kernels under the Moa top-N reproduction
//!
//! This crate is the bottom layer of the reproduction. It holds the three
//! kernels the upper layers call:
//!
//! * [`pack`] — fixed-width bit-packing kernels (the physical substrate of
//!   the block-compressed posting storage in `moa-ir`),
//! * [`index`] — the non-dense (sparse) block index the paper's Step 1
//!   proposes, read over a fragment's sorted term column,
//! * [`stats`] — the equi-width histogram behind the probabilistic top-N
//!   cutoff and the optimizer's learned cost model.
//!
//! Everything is deterministic and allocation-conscious; no I/O — "MM" here
//! follows the paper's substrate, a *main-memory* kernel hosting
//! *multi-media* retrieval structures.

#![warn(missing_docs)]

pub mod error;
pub mod index;
pub mod pack;
pub mod stats;

pub use error::{Result, StorageError};
pub use index::SparseIndex;
pub use stats::EquiWidthHistogram;
