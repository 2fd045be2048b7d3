//! # moa-ir — a set-at-a-time IR engine with df-based fragmentation
//!
//! The retrieval substrate of the Moa top-N reproduction, modeled on the
//! mi Ror engine the paper's group ran at TREC:
//!
//! * [`blocks`] — block-compressed posting storage: 128-entry blocks,
//!   delta-encoded bit-packed payloads, contiguous per-block headers,
//!   decode-on-demand cursors,
//! * [`index`] — term-major inverted index over the block storage, with
//!   catalog statistics,
//! * [`ranking`] — TF-IDF / Hiemstra LM / BM25 term weighting,
//! * [`scorer`] — the shared scoring kernel: per-term precomputed
//!   constants ([`TermScorer`]) and per-index cached document norms
//!   ([`ScoreKernel`]), bit-exact with [`RankingModel::term_weight`],
//! * [`eval`] — set-at-a-time query evaluation with a reusable epoch
//!   accumulator,
//! * [`daat`] — document-at-a-time evaluation with MaxScore bounds
//!   pruning over skippable [`index::PostingCursor`]s, block-max bounds
//!   colocated with the storage blocks,
//! * [`scratch`] — the reusable per-query execution arena
//!   ([`QueryScratch`]): steady-state queries allocate nothing,
//! * [`deadline`] — per-query deadline budgets ([`DeadlineGate`]) polled
//!   at evaluation-loop boundaries for graceful degradation under
//!   overload (partial-but-exact rankings, honest counters),
//! * [`fragment`] — horizontal df-based fragmentation of the term–document
//!   matrix (Step 1 of the paper): the unsafe fragment-A-only strategy, the
//!   safe switch strategy, and non-dense-index-accelerated fragment-B access,
//! * [`safety`] — the early quality check that triggers the switch,
//! * [`physical`] — the unified physical retrieval layer: every searcher
//!   returns one [`ExecReport`] shape, and [`EngineSet::execute`] runs any
//!   [`PhysicalPlan`] so a cost-driven planner can pick among them,
//! * [`metrics`] — average precision and ranking-overlap metrics.

#![warn(missing_docs)]

pub mod accum;
pub mod blocks;
pub mod daat;
pub mod deadline;
pub mod error;
pub mod eval;
pub mod fragment;
pub mod index;
pub mod metrics;
pub mod physical;
pub mod ranking;
pub mod safety;
pub mod scorer;
pub mod scratch;
pub mod threshold;

pub use accum::EpochAccumulator;
pub use blocks::{BlockHeader, BlockPostingList, CursorBuf, BLOCK_LEN};
pub use daat::DaatSearcher;
pub use deadline::DeadlineGate;
pub use error::{IrError, Result};
pub use eval::Searcher;
pub use fragment::{
    FragSearchReport, FragSearcher, FragmentSpec, FragmentedIndex, ScanStats, Strategy, TdTable,
};
pub use index::{CollectionStats, InvertedIndex, PostingCursor};
pub use metrics::{average_precision, mean_of, overlap_at};
pub use physical::{EngineSet, ExecReport, PhysicalPlan};
pub use ranking::RankingModel;
pub use safety::{SwitchDecision, SwitchPolicy};
pub use scorer::{BlockBound, ScoreBounds, ScoreKernel, TermScorer};
pub use scratch::QueryScratch;
pub use threshold::{BoundGate, SharedThreshold};
