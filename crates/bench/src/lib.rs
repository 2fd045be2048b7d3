//! # moa-bench — the experiment harness
//!
//! Reproduces every quantitative claim of Blok (EDBT 2000). The paper has
//! no numbered tables or figures (it is a PhD-workshop research plan), so
//! each experiment id E1–E10 maps to a claim or worked example; the mapping
//! is recorded in `DESIGN.md`, and each run prints its results as tables.
//!
//! Run everything:
//!
//! ```text
//! cargo run --release -p moa-bench --bin experiments -- all
//! cargo run --release -p moa-bench --bin experiments -- e1 --full
//! ```

pub mod experiments;
pub mod harness;

pub use harness::{time_median, Scale, Table};
