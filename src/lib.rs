//! # moa — Top-N query optimization for multimedia databases
//!
//! Umbrella crate of the reproduction of H.E. Blok, *Top N optimization
//! issues in MM databases* (EDBT 2000). Re-exports the five member crates:
//!
//! * [`moa_core`] (re-exported as `core`) — the Moa structured object algebra, the three-layer
//!   (logical / inter-object / intra-object) optimizer, the cost model, and
//!   the expression language,
//! * [`moa_ir`] (as `ir`) — the set-at-a-time retrieval engine with df-based
//!   horizontal fragmentation, the early quality check, and the
//!   element-at-a-time comparator,
//! * [`moa_topn`] (as `topn`) — bounded-heap top-N, Fagin's FA, TA, NRA,
//!   Carey–Kossmann STOP AFTER, and probabilistic cutoff top-N,
//! * [`moa_storage`] (as `storage`) — the main-memory kernels: bit-packing,
//!   the non-dense index over a sorted column, and equi-width histograms,
//! * [`moa_corpus`] (as `corpus`) — seeded synthetic workloads (Zipf collections,
//!   topical queries and qrels, correlated feature lists),
//! * [`moa_serve`] (as `serve`) — the sharded parallel serving layer:
//!   per-shard planned execution over document partitions, cross-shard
//!   score-threshold propagation, and the batched query service.
//!
//! See `README.md` for a tour and `DESIGN.md` for the paper-to-module
//! mapping; the `experiments` binary of `moa-bench` reproduces every claim.
//!
//! ```
//! use moa::core::{parse_expr, Env, Session};
//!
//! let session = Session::new();
//! let expr = parse_expr("BAG.count(LIST.projecttobag([4, 5, 6]))").unwrap();
//! let report = session.run(&expr, &Env::new()).unwrap();
//! assert_eq!(report.value, moa::core::Value::Int(3));
//! ```

pub use moa_core as core;
pub use moa_corpus as corpus;
pub use moa_ir as ir;
pub use moa_serve as serve;
pub use moa_storage as storage;
pub use moa_topn as topn;
