//! Reusable per-query scratch: the zero-allocation execution arena.
//!
//! A pruned DAAT query used to allocate on every execution — a `Vec` of
//! per-term states, the per-cursor decode buffers, the candidate and
//! bound work lists, the top-N heap, and the result vector. None of those
//! allocations carries information across queries; they are pure arena
//! state. [`QueryScratch`] owns all of them as flat, capacity-retaining
//! buffers keyed by position, so after the first query at a given shape
//! (term count, N) **steady-state execution performs zero heap
//! allocations** — pinned by the counting-allocator test in
//! `crates/ir/tests/alloc_steady_state.rs`.
//!
//! One scratch serves one engine at a time: [`crate::physical::EngineSet`]
//! owns one (giving every `moa_serve` shard its own pool, since each shard
//! owns an engine set), and the standalone
//! [`crate::daat::DaatSearcher::search_into`] /
//! [`crate::daat::DaatSearcher::search_exhaustive_into`] entry points take
//! it explicitly, leave the ranking in its `out` buffer, and return an
//! [`crate::physical::ExecReport`] whose `top` is empty.
//!
//! Layout note: per-term cursor state is kept *structure-of-arrays*
//! (`TermMeta` / [`CursorPos`] / [`CursorBuf`] in parallel vectors)
//! rather than as a `Vec` of combined state structs. That is what makes
//! reuse possible at all — the buffers carry no borrows of any index, so
//! they outlive queries against different indexes — and it keeps the hot
//! min-scan over current documents in one dense `u32` array.

use moa_obs::PhaseAgg;
use moa_topn::TopNHeap;

use crate::blocks::{CursorBuf, CursorPos};
use crate::scorer::{BlockBound, ScoreBounds, TermScorer};

/// Which array holds a query term's block bounds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BoundsIn {
    /// The long-run table, [`ScoreBounds`].
    Table,
    /// The query's own short-run bounds, [`ShortRuns::bounds`].
    Query,
}

/// Per-query-term plain data: identity, precomputed scorer, and the
/// MaxScore bound. Cursor position and decode buffers live in the sibling
/// arrays of [`QueryScratch`] under the same position index.
#[derive(Debug, Clone, Copy)]
pub(crate) struct TermMeta {
    /// The term id (block views and bound slices are re-derived from it —
    /// two offset loads — so the scratch holds no index borrows).
    pub term: u32,
    /// Position in the original query (bit-exact summation order).
    pub qpos: u32,
    /// Precomputed per-term scoring constants.
    pub scorer: TermScorer,
    /// Exact per-term posting maximum (MaxScore partition key).
    pub max_weight: f64,
    /// The array that holds this term's block bounds: the table for a long
    /// run, the query's short-run bounds for a short one.
    pub bounds_in: BoundsIn,
    /// Start of this term's range in that array (resolved once per query
    /// so the per-candidate gates index directly).
    pub bounds_start: u32,
    /// Number of block bounds in the range (= number of storage blocks).
    pub bounds_len: u32,
}

impl TermMeta {
    /// This term's block bounds, one per storage block of its run: the
    /// one accessor every pruning site reads them through. `table` is the
    /// long-run table and `query` the query's [`ShortRuns::bounds`].
    #[inline]
    pub fn block_bounds<'b>(
        &self,
        table: &'b ScoreBounds,
        query: &'b [BlockBound],
    ) -> &'b [BlockBound] {
        match self.bounds_in {
            BoundsIn::Table => table.slice(self.bounds_start, self.bounds_len),
            BoundsIn::Query => {
                &query[self.bounds_start as usize..(self.bounds_start + self.bounds_len) as usize]
            }
        }
    }
}

/// One non-essential term's *shallow* bound at the pruned kernel's
/// current candidate: found from the bound records alone, without moving
/// the term's cursor.
#[derive(Debug, Clone, Copy)]
pub(crate) struct NeBound {
    /// The block whose maximum bounds the term's contribution to the
    /// candidate (the first block whose last document reaches it).
    pub block: usize,
    /// The most this term and every weaker non-essential term can add to
    /// the candidate: a prefix sum in ascending bound order.
    pub prefix: f64,
}

/// The query's short runs, decoded and weighed whole in one pass that
/// feeds the short-run merge (the seed pass and the all-short path) and,
/// on the windowed path, the short terms' bounds (see the `daat` module
/// docs).
#[derive(Debug, Default)]
pub(crate) struct ShortRuns {
    /// Every short run's document ids, run after run in query order, each
    /// run closed by a `u32::MAX` sentinel.
    pub docs: Vec<u32>,
    /// The weight of each entry of `docs`, at the same index.
    pub weights: Vec<f64>,
    /// Per short run, its merge head in `docs`.
    pub heads: Vec<usize>,
    /// The windowed path's short-run block bounds, run after run: a short
    /// term's [`TermMeta`] points here ([`BoundsIn::Query`]).
    pub bounds: Vec<BlockBound>,
}

/// The short-run merge's buffers: the decoded runs, and the seed pass's
/// per-document lower bounds.
#[derive(Debug, Default)]
pub(crate) struct SeedLanes {
    /// The short runs the merge walks.
    pub runs: ShortRuns,
    /// One lower bound per distinct document of the short runs.
    pub sums: Vec<f64>,
}

/// The reusable query-execution arena. See the module docs.
#[derive(Debug)]
pub struct QueryScratch {
    /// Per-term metadata, sorted by the kernel per query.
    pub(crate) metas: Vec<TermMeta>,
    /// Per-term cursor positions, parallel to `metas`.
    pub(crate) pos: Vec<CursorPos>,
    /// Per-term block decode buffers, parallel to `metas`. Grows to the
    /// widest query seen and stays.
    pub(crate) bufs: Vec<CursorBuf>,
    /// Dense mirror of each cursor's current document (`u32::MAX` when
    /// exhausted) — the min-scan array.
    pub(crate) cur: Vec<u32>,
    /// Per-query-position contributions (original order, bit-exact sums).
    pub(crate) contrib: Vec<f64>,
    /// `prefix_bound[k]` = sum of the `k` smallest per-term bounds.
    pub(crate) prefix_bound: Vec<f64>,
    /// Per non-essential term, its shallow bound at the current candidate.
    pub(crate) ne: Vec<NeBound>,
    /// Window lanes of the pruned kernel, term-major: term `i`'s term
    /// frequencies for window offset `o` at `i * W + o`. Stale between
    /// windows — only slots whose presence bit is set are ever read.
    pub(crate) lane_tf: Vec<u32>,
    /// Presence bits, one `W`-bit lane per term (`W / 64` words at
    /// `i * W / 64`). All zero between windows: the scoring pass clears
    /// each word once it has walked it.
    pub(crate) lane_bits: Vec<u64>,
    /// Per window offset, the sum of the essential terms' mini-block
    /// bounds. All zero between windows: the scoring pass takes every slot
    /// it reads.
    pub(crate) lane_bound: Vec<f64>,
    /// The short-run pass's buffers; they grow to the largest short-run
    /// volume seen and stay.
    pub(crate) seed: SeedLanes,
    /// The reusable top-N heap ([`TopNHeap::reset`] per query).
    pub(crate) heap: TopNHeap,
    /// The current query's results, best first — filled by the `_into`
    /// search entry points in place of an allocated report.
    pub out: Vec<(u32, f64)>,
    /// Per-phase wall time of the query currently (or last) served out of
    /// this arena: a plain `Copy` aggregate written at *stage boundaries*
    /// (a handful of clock reads per query, nothing per posting), reset by
    /// [`QueryScratch::begin`]. Zero-allocation like the rest of the
    /// arena — the telemetry contract is pinned alongside the execution
    /// one in `crates/ir/tests/alloc_steady_state.rs`.
    pub(crate) phases: PhaseAgg,
    /// Queries this arena has begun serving over its lifetime. Never
    /// reset: a serving worker that truly reuses one arena across a whole
    /// stream shows the stream's length here, which is how the pool
    /// teardown tests prove the scratch hand-off (worker-owned arena in,
    /// same arena back out) rather than assuming it.
    queries_begun: u64,
}

impl QueryScratch {
    /// An empty arena; buffers grow to each query shape's high-water mark
    /// on first use and are retained afterwards.
    pub fn new() -> QueryScratch {
        QueryScratch {
            metas: Vec::new(),
            pos: Vec::new(),
            bufs: Vec::new(),
            cur: Vec::new(),
            contrib: Vec::new(),
            prefix_bound: Vec::new(),
            ne: Vec::new(),
            lane_tf: Vec::new(),
            lane_bits: Vec::new(),
            lane_bound: Vec::new(),
            seed: SeedLanes::default(),
            heap: TopNHeap::new(0),
            out: Vec::new(),
            phases: PhaseAgg::new(),
            queries_begun: 0,
        }
    }

    /// Per-phase wall times of the most recent query served out of this
    /// arena (see [`moa_obs::Phase`] for the vocabulary).
    pub fn phases(&self) -> PhaseAgg {
        self.phases
    }

    /// Lifetime count of queries this arena has begun serving (monotone;
    /// survives across batches and worker hand-offs).
    pub fn queries_begun(&self) -> u64 {
        self.queries_begun
    }

    /// Bytes held by the pruned kernel's window lanes. The lanes grow on
    /// the first window a query shape decodes and never shrink, so this
    /// figure is monotone over the arena's life.
    pub fn lane_bytes(&self) -> usize {
        self.lane_tf.capacity() * std::mem::size_of::<u32>()
            + self.lane_bits.capacity() * std::mem::size_of::<u64>()
            + self.lane_bound.capacity() * std::mem::size_of::<f64>()
    }

    /// Prepare the per-term arrays for a query of `m` terms: clears the
    /// per-query state and grows the decode-buffer pool if this query is
    /// wider than any seen before.
    pub(crate) fn begin(&mut self, m: usize, n: usize) {
        self.queries_begun += 1;
        self.phases.reset();
        self.metas.clear();
        self.pos.clear();
        self.cur.clear();
        self.contrib.clear();
        self.prefix_bound.clear();
        self.ne.clear();
        if self.bufs.len() < m {
            self.bufs.resize_with(m, CursorBuf::new);
        }
        self.metas.reserve(m);
        self.pos.reserve(m);
        self.cur.reserve(m);
        self.prefix_bound.reserve(m + 1);
        self.ne.reserve(m);
        self.heap.reset(n);
    }
}

impl Default for QueryScratch {
    fn default() -> Self {
        QueryScratch::new()
    }
}
