//! Document-at-a-time (element-at-a-time) evaluation, bounds-pruned.
//!
//! The paper's Step 1 observes: *"databases preferably operate set-based in
//! contrast with the element-at-a-time operation of most IR systems, \[so\]
//! IR technology and optimization techniques are not directly applicable in
//! a content based retrieval DBMS."* This module implements that contrasted
//! architecture — per-term posting cursors merged document-at-a-time, as
//! INQUERY-class engines do — so the set-based/element-at-a-time gap can be
//! measured (experiment E13) instead of asserted.
//!
//! [`DaatSearcher::search`] goes further than a plain merge: it applies the
//! same score-upper-bound machinery that powers the TA threshold and the
//! fragmentation safety check *inside* the hot loop, MaxScore-style:
//!
//! 1. query terms are sorted by their maximum possible contribution —
//!    the exact per-term posting maximum (see *Where the bounds come
//!    from* below),
//! 2. terms whose cumulative bound cannot lift any document into the
//!    current top-N ([`moa_topn::TopNHeap::would_enter`]) become
//!    *non-essential*: their cursors are never merged, only `seek`-ed
//!    (header binary search + single-block unpack on the block-compressed
//!    storage of [`crate::blocks`]),
//! 3. a document whose bound cannot enter the heap is abandoned before
//!    any weight of it is computed (`bound_exits`).
//!
//! **Dispatch.** A run is *short* when it holds at most `SEED_RUN_MAX` =
//! 512 postings in the index being searched, which is the shard's own
//! index when sharded. [`DaatSearcher::search_into`] looks at the run
//! lengths alone, before anything builds the bound tables: a query with
//! N > 0, at least one term and only short runs is answered by the
//! **short-run merge**; any other query takes the windowed kernel below,
//! the only path that builds and reads the [`ScoreBounds`].
//!
//! **One merge, two uses.** The short-run pass decodes each short run
//! whole and weighs every posting through the shared
//! [`crate::scorer::ScoreKernel`]; the merge walks the weighed runs in
//! document order, adding each document's weights in query order,
//! starting from 0.0.
//!
//! * *Every run short: the answer.* The merge has then read every posting
//!   of every query term, so each document's sum is its exact score, built
//!   by the same addition sequence as [`DaatSearcher::search_exhaustive`]
//!   (one weight per matching query position, in query order, from 0.0).
//!   That holds for every model, negative weights included. Each
//!   `(doc, sum)` enters the heap in document order, as the exhaustive
//!   merge's do, so ties break the same way. On runs this short a bound
//!   has nothing to prune: this is the paper's set-based side winning
//!   where it should. The deadline is polled before the decode and at
//!   every document; expiry truncates and leaves exact scores. The final
//!   N-th score is published to the gate, so a peer shard still in its
//!   windows prunes on it. Every weight counts in `postings_scanned`, and
//!   `docs_skipped`, `seeks` and `bound_exits` stay 0.
//! * *A run is long: the seed.* The sums are lower bounds, and the N-th
//!   largest of them is the **seed**, a starting threshold so the query
//!   need not start at −∞. This is the paper's No-Random-Access
//!   bookkeeping (a lower bound per object from the lists read so far).
//!   The seed pass runs only when the short runs hold at least N
//!   postings, N > 0, and the model's weights cannot be negative
//!   ([`RankingModel::nonnegative_weights`]). The seed is offered to the
//!   gate ([`BoundGate::publish_score`]), so a peer shard prunes on it
//!   too, and kept as a local *floor* that every bound test requires
//!   (`bound >= floor`), so unsharded runs get it as well. A seeded query
//!   skips phase 1.
//!
//! *Why the seed is sound.* Every weight is ≥ 0, and round-to-nearest
//! addition is monotone in both operands. A document's lower bound is
//! its exact score's addition sequence, in the same query order, with the
//! long terms' weights replaced by 0.0, so it is never above that score.
//! So at least N distinct documents score at least the seed, and the
//! global N-th score is ≥ the seed. A document of the true top-N has an
//! upper bound ≥ its score ≥ the seed, and the floor keeps ties, so no
//! pruning site below can drop it and answers stay bit-identical. The
//! pass reads at most `m × 512` postings, is not deadline-polled, and is
//! timed as part of the gate pass. Its weights are setup work: they are
//! not counted in `postings_scanned`, so the work ledger still balances
//! against the query's postings.
//!
//! **Where the bounds come from.** The windowed kernel reads, per query
//! term, an exact maximum weight and one [`BlockBound`] per storage
//! block. A long run's come from the [`ScoreBounds`] table, which holds
//! the long runs alone and is built once per index, lazily, by the first
//! windowed query; a query finds each long term there by one binary
//! search. A short run has no table entry: the short-run pass builds its
//! bounds per query, from the very weights it computes for the merge,
//! with the table's own builder (`block_bound`), so they are the same
//! bits. One decode pass therefore feeds both the short terms' bounds and
//! the seed. It runs for every windowed query, also when the seed does
//! not apply (a model that can weigh below zero, or fewer than N short
//! postings): then it builds the bounds alone, at most `m × 512` weights.
//! It is setup work like the seed, timed in the gate pass and not counted
//! in `postings_scanned`. Each `TermMeta` says which array holds its
//! bounds, and every pruning site below reads them through one accessor
//! (`TermMeta::block_bounds`).
//!
//! The kernel runs in two phases. **Phase 1** is a plain cursor merge that
//! fills the heap (no bound can prune while it has room). **Phase 2** — the
//! pruned scan — is *window-at-a-time*, the set-based idea applied inside
//! the element-at-a-time engine: it takes [`WINDOW`] document ids at a
//! time, starting at the smallest essential cursor, in four steps:
//!
//! * **sync** — once per window: publish the local N-th score to the
//!   cross-engine gate if it rose, poll the deadline (one clock read), and
//!   grow the non-essential prefix;
//! * **window gate** — the window's bound is, per essential term, the
//!   largest block maximum among the term's blocks overlapping the window,
//!   plus the non-essential prefix bound; if it cannot enter the heap,
//!   every essential cursor seeks past the window and nothing is decoded;
//! * **pass 1** — bulk-decode the essential terms' blocks overlapping the
//!   window into *lanes*: per term a tf lane and a presence-bit lane (so
//!   stale tfs never need zeroing), and one shared lane summing each
//!   document's mini-block bounds;
//! * **pass 2** — walk the set bits in document order: test each
//!   candidate's lane bound plus the *per-block* (shallow) maxima of the
//!   non-essential terms at that document, then compute the exact weights,
//!   probe the non-essential terms strongest-first, re-sum in query order
//!   and offer the heap.
//!
//! Every pruning site above — the non-essential partition, the window
//! gate, the two candidate bound tests and the probe bail-out — asks one
//! question: can a document with this upper bound still enter the heap,
//! reach the seed floor and pass the gate? Each test keeps ties, so the
//! seed argument above holds at every one of them.
//!
//! The pruning metadata is **colocated with the storage**: each
//! 128-posting storage block has one [`BlockBound`] (`last_doc` + exact
//! block-max score + eight 4-bit quantized mini-block maxima) in a
//! contiguous per-term array, so a window gate reads a few
//! 16-byte records per term — and a rejected window's packed payload is
//! never decoded at all. The mini-block maxima become the candidates' lane
//! bounds, which stay discriminating on long runs where whole-block maxima
//! approach the term maxima.
//!
//! Results are **bit-exact** with the exhaustive merge
//! ([`DaatSearcher::search_exhaustive`]) and with the set-at-a-time
//! evaluator: per-document contributions are summed in original query-term
//! order, and all paths share the [`crate::scorer::ScoreKernel`] so every
//! weight is the identical `f64`. Only the work differs — `postings_scanned`
//! (postings whose weight was computed) shrinks, and every other posting of
//! the query's runs is counted in `docs_skipped`.
//!
//! Every entry point returns an [`ExecReport`]. The `_into` entry points
//! ([`DaatSearcher::search_into`], [`DaatSearcher::search_exhaustive_into`])
//! run on a caller-owned [`QueryScratch`] and leave the ranking in
//! `scratch.out`, so the report they return has an empty `top`: after the
//! first query at a given shape they perform **zero heap allocations**
//! (see `crates/ir/tests/alloc_steady_state.rs`); the window lanes grow
//! on the first window a shape decodes and are kept.

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use moa_obs::Phase;
use moa_topn::TopNHeap;

use crate::blocks::{BlockPostingList, CursorBuf, CursorPos, TermView, MINI_LEN};
use crate::error::Result;
use crate::index::InvertedIndex;
use crate::physical::ExecReport;
use crate::ranking::RankingModel;
use crate::scorer::{block_bound, weigh_block, BlockBound, ScoreBounds, ScoreKernel, SEED_RUN_MAX};
use crate::scratch::{BoundsIn, NeBound, QueryScratch, SeedLanes, ShortRuns, TermMeta};
use crate::threshold::BoundGate;

/// Document ids per window of the pruned phase. A window's lanes are
/// `WINDOW` term frequencies (4 bytes each) per query term plus one shared
/// bound lane (8 bytes per id) — about 128 KiB for a six-term query, so
/// they stay in L2 — and 4096 ids span dozens of blocks of a frequent
/// term, so the per-window sync is paid once per hundreds of postings.
pub const WINDOW: usize = 4096;

/// A document-at-a-time evaluator over block-compressed posting cursors,
/// with a per-index scoring kernel built once and reused across queries.
#[derive(Debug)]
pub struct DaatSearcher<'a> {
    index: &'a InvertedIndex,
    kernel: Arc<ScoreKernel>,
    /// The long-run bound table, built lazily by the first windowed
    /// search — other paths never pay its scoring pass. Shared (`Arc`) so
    /// the physical layer can hand out per-query searcher views without
    /// rebuilding it.
    bounds: Arc<OnceLock<ScoreBounds>>,
}

/// The document ids `lo .. end` one phase-2 window covers.
#[derive(Debug, Clone, Copy)]
struct Window {
    lo: u32,
    end: u32,
}

/// One essential term's tf and presence-bit lanes for the current window,
/// and the shared bound lane.
struct TermLanes<'l> {
    tfs: &'l mut [u32],
    bits: &'l mut [u64],
    bound: &'l mut [f64],
}

/// The bit and bound lanes of the current window. Both are all zero
/// between windows — pass 2 clears every word and slot it reads — and if
/// a panic unwinds out of a window (the serving layer catches it and keeps
/// serving from the same scratch), dropping the guard restores that.
struct WindowLanes<'l> {
    bits: &'l mut [u64],
    bound: &'l mut [f64],
}

impl Drop for WindowLanes<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.bits.fill(0);
            self.bound.fill(0.0);
        }
    }
}

/// Whether a document with score upper bound `bound` could still enter
/// the local heap (`doc` breaks ties), reach the query's seed `floor`
/// (−∞ when unseeded) and the global top-N the gate tracks. Ties at the
/// floor are kept: the seed is a lower bound on the N-th score, and a
/// document scoring exactly that may still win the id tie-break.
#[inline]
fn can_enter(heap: &TopNHeap, gate: &BoundGate, floor: f64, bound: f64, doc: u32) -> bool {
    bound >= floor && heap.would_enter(bound, doc) && gate.admits(bound)
}

/// Offer the heap's N-th score to the cross-engine gate if it rose since
/// the last offer, `published`.
fn publish_risen(heap: &TopNHeap, gate: &BoundGate, published: &mut f64) {
    if let Some(t) = heap.threshold() {
        if t > *published {
            gate.publish(heap);
            *published = t;
        }
    }
}

/// Grow a lane to at least `len` zeroed slots; lanes never shrink.
fn grow<T: Copy + Default>(lane: &mut Vec<T>, len: usize) {
    if lane.len() < len {
        lane.resize(len, T::default());
    }
}

/// The largest block maximum among a term's blocks that overlap the window,
/// from the cursor's block `block` on (the caller checked that the cursor
/// is inside the window). Only header and bound records are read; nothing
/// is decoded.
fn window_max(view: &TermView<'_>, bb: &[BlockBound], block: usize, end: u32) -> f64 {
    let headers = view.headers();
    let mut best = bb[block].max_score;
    let mut k = block + 1;
    while k < headers.len() && headers[k].first_doc < end {
        best = best.max(bb[k].max_score);
        k += 1;
    }
    best
}

/// Pass 1 for one essential term: bulk-decode every block of its run that
/// overlaps the window from the cursor on, and record each in-window
/// posting in the lanes — presence bit, tf, and its mini-block bound added
/// to the shared bound lane. Leaves the cursor on the first posting at or
/// past the window's end; the block it stops inside stays decoded (doc
/// ids and every tf mini-block), so the next window reuses it. Returns
/// the postings consumed and a mask of the bit-lane words written (bit
/// `w` for word `w`), so pass 2 visits only those: a sparse window costs
/// its postings, not its width.
fn fill_lanes(
    view: &TermView<'_>,
    bb: &[BlockBound],
    pos: &mut CursorPos,
    buf: &mut CursorBuf,
    win: Window,
    lanes: TermLanes<'_>,
) -> (usize, u64) {
    let headers = view.headers();
    let start = pos.base + pos.idx;
    let mut words = 0u64;
    while let Some(h) = headers.get(pos.block) {
        if pos.idx == 0 && h.first_doc >= win.end {
            break;
        }
        if !pos.docs_ready {
            view.decode_docs(pos.block, buf);
            pos.docs_ready = true;
        }
        if pos.tf_ready != u8::MAX {
            view.decode_tfs(pos.block, buf);
            pos.tf_ready = u8::MAX;
        }
        let len = usize::from(h.len);
        let b = bb[pos.block];
        // A linear walk: a sparse window holds a posting or two of a block.
        let mut k = pos.idx;
        let mut mini = (usize::MAX, 0.0f64);
        while k < len && buf.docs[k] < win.end {
            if k / MINI_LEN != mini.0 {
                mini = (k / MINI_LEN, b.mini_bound(k));
            }
            let o = (buf.docs[k] - win.lo) as usize;
            lanes.bits[o / 64] |= 1 << (o % 64);
            lanes.tfs[o] = buf.tfs[k];
            lanes.bound[o] += mini.1;
            words |= 1 << (o / 64);
            k += 1;
        }
        if k < len {
            pos.idx = k;
            break;
        }
        pos.base += len;
        pos.block += 1;
        pos.idx = 0;
        pos.docs_ready = false;
        pos.tf_ready = 0;
    }
    (pos.base + pos.idx - start, words)
}

/// The short-run pass (see the module docs): decodes every run of `metas`
/// of at most [`SEED_RUN_MAX`] postings whole, weighing each posting
/// through the shared kernel, into `runs` — run after run, each closed by
/// a sentinel no document id reaches (the cursors' own "exhausted" mark),
/// so the merge walk needs no end test. With `bound`, it also builds each
/// short term's bounds into `runs.bounds` from those weights and points
/// the term's meta there: its exact maximum weight and one
/// [`BlockBound`] per storage block, by the builder the table uses.
/// `metas` is in query order. Returns the postings weighed.
fn weigh_short_runs(
    kernel: &ScoreKernel,
    blocks: &BlockPostingList,
    metas: &mut [TermMeta],
    buf: &mut CursorBuf,
    runs: &mut ShortRuns,
    bound: bool,
) -> usize {
    let ShortRuns {
        docs,
        weights,
        heads,
        bounds,
    } = runs;
    docs.clear();
    weights.clear();
    heads.clear();
    bounds.clear();
    let mut weighed = 0usize;
    for meta in metas.iter_mut() {
        let view = blocks.view(meta.term);
        if view.len() > SEED_RUN_MAX {
            continue;
        }
        heads.push(docs.len());
        let start = bounds.len();
        let mut max_weight = 0.0f64;
        for (b, h) in view.headers().iter().enumerate() {
            let at = weights.len();
            weigh_block(kernel, &meta.scorer, &view, b, buf, |doc, w| {
                docs.push(doc);
                weights.push(w);
            });
            if bound {
                let bb = block_bound(h.last_doc, &weights[at..]);
                max_weight = max_weight.max(bb.max_score);
                bounds.push(bb);
            }
        }
        if bound {
            meta.max_weight = max_weight;
            meta.bounds_start = start as u32;
            meta.bounds_len = (bounds.len() - start) as u32;
        }
        weighed += view.len();
        docs.push(u32::MAX);
        weights.push(0.0);
    }
    weighed
}

/// The merge the seed pass and the all-short path share (see the module
/// docs): walks the runs [`weigh_short_runs`] left in `runs` in document
/// order. `visit(doc, sum)` is called once per distinct document,
/// ascending, where `sum` adds the document's weights in query order
/// starting from 0.0. A `visit` that returns `false` stops the walk.
fn merge_short_runs(runs: &mut ShortRuns, mut visit: impl FnMut(u32, f64) -> bool) {
    let ShortRuns {
        docs,
        weights,
        heads,
        ..
    } = runs;
    // Each document's weights are added in query order, starting from
    // 0.0, as its exact score is.
    loop {
        let doc = heads.iter().map(|&h| docs[h]).min().unwrap_or(u32::MAX);
        if doc == u32::MAX {
            break;
        }
        let mut sum = 0.0f64;
        for h in heads.iter_mut() {
            if docs[*h] == doc {
                sum += weights[*h];
                *h += 1;
            }
        }
        if !visit(doc, sum) {
            break;
        }
    }
}

/// The seed pass: a lower bound on the query's N-th score read from its
/// short runs alone (see the module docs), or `None` when the pass does
/// not apply — `n` is 0, the model can produce a negative weight, the
/// query has no run longer than [`SEED_RUN_MAX`], its short runs hold
/// fewer than `n` postings or fewer than `n` distinct documents. Merges
/// the runs [`weigh_short_runs`] left in `lanes`; `metas` is in query
/// order. Not deadline-polled: it reads at most `m × SEED_RUN_MAX`
/// postings.
fn seed_threshold(
    kernel: &ScoreKernel,
    blocks: &BlockPostingList,
    metas: &[TermMeta],
    n: usize,
    lanes: &mut SeedLanes,
) -> Option<f64> {
    if n == 0 || !kernel.model().nonnegative_weights() {
        return None;
    }
    let mut long = false;
    let mut short = 0usize;
    for meta in metas {
        let len = blocks.view(meta.term).len();
        if len > SEED_RUN_MAX {
            long = true;
        } else {
            short += len;
        }
    }
    if !long || short < n {
        return None;
    }
    let SeedLanes { runs, sums } = lanes;
    sums.clear();
    merge_short_runs(runs, |_, sum| {
        sums.push(sum);
        true
    });
    if sums.len() < n {
        return None;
    }
    let (_, &mut nth, _) = sums.select_nth_unstable_by(n - 1, |a, b| b.total_cmp(a));
    // A NaN weight poisons only its own sum; dropping a NaN seed is the
    // sound direction, as at `SharedThreshold::offer`.
    (!nth.is_nan()).then_some(nth)
}

impl<'a> DaatSearcher<'a> {
    /// Create an evaluator with the given ranking model, materializing the
    /// per-document norm table once.
    pub fn new(index: &'a InvertedIndex, model: RankingModel) -> DaatSearcher<'a> {
        DaatSearcher::with_shared(
            index,
            Arc::new(ScoreKernel::new(model, index)),
            Arc::new(OnceLock::new()),
        )
    }

    /// Create an evaluator view over shared per-index state. `kernel` must
    /// have been built for `index` with the desired ranking model; `bounds`
    /// caches the lazily built bound tables across views (pass the same
    /// `Arc` every time so the scoring pass happens at most once).
    pub fn with_shared(
        index: &'a InvertedIndex,
        kernel: Arc<ScoreKernel>,
        bounds: Arc<OnceLock<ScoreBounds>>,
    ) -> DaatSearcher<'a> {
        DaatSearcher {
            index,
            kernel,
            bounds,
        }
    }

    fn bounds(&self) -> &ScoreBounds {
        self.bounds
            .get_or_init(|| ScoreBounds::new(&self.kernel, self.index))
    }

    /// Push one [`TermMeta`] per query term, in query order, its bound
    /// fields zero.
    fn push_metas(&self, terms: &[u32], metas: &mut Vec<TermMeta>) -> Result<()> {
        for (qpos, &t) in terms.iter().enumerate() {
            let df = self.index.df(t)?;
            let cf = self.index.cf(t)?;
            metas.push(TermMeta {
                term: t,
                qpos: qpos as u32,
                scorer: self.kernel.term_scorer(df, cf),
                max_weight: 0.0,
                bounds_in: BoundsIn::Query,
                bounds_start: 0,
                bounds_len: 0,
            });
        }
        Ok(())
    }

    /// Push the windowed kernel's metas, in query order, with their bounds:
    /// a long term's from `table`, found by one binary search, a short
    /// term's built by the short-run pass, which leaves the weighed runs in
    /// `runs` for the seed. No cursor is open yet, so the pass decodes
    /// through the first cursor's buffer.
    fn bounded_metas(
        &self,
        terms: &[u32],
        table: &ScoreBounds,
        metas: &mut Vec<TermMeta>,
        bufs: &mut [CursorBuf],
        runs: &mut ShortRuns,
    ) -> Result<()> {
        self.push_metas(terms, metas)?;
        for meta in metas.iter_mut() {
            if let Some((max_weight, start, len)) = table.term_range(meta.term) {
                meta.max_weight = max_weight;
                meta.bounds_in = BoundsIn::Table;
                meta.bounds_start = start;
                meta.bounds_len = len;
            }
        }
        if let Some(buf) = bufs.first_mut() {
            weigh_short_runs(&self.kernel, self.index.blocks(), metas, buf, runs, true);
        }
        Ok(())
    }

    /// The bounds the windowed kernel reads for each term of `terms`, in
    /// query order, as `(max weight, block bounds)`: a long run's from the
    /// table, a short run's as the short-run pass builds them per query.
    /// Builds the table on first use. Exposed for the bound tests only.
    #[doc(hidden)]
    pub fn term_bounds(
        &self,
        terms: &[u32],
        scratch: &mut QueryScratch,
    ) -> Result<Vec<(f64, Vec<BlockBound>)>> {
        let table = self.bounds();
        scratch.begin(terms.len(), 0);
        let QueryScratch {
            metas, bufs, seed, ..
        } = scratch;
        self.bounded_metas(terms, table, metas, bufs, &mut seed.runs)?;
        Ok(metas
            .iter()
            .map(|meta| {
                let bb = meta.block_bounds(table, &seed.runs.bounds);
                (meta.max_weight, bb.to_vec())
            })
            .collect())
    }

    /// The seed [`DaatSearcher::search_into`] starts `terms` from: a lower
    /// bound on the N-th score, or `None` when the query runs unseeded.
    /// Exposed for the soundness tests only.
    #[doc(hidden)]
    pub fn seed(&self, terms: &[u32], n: usize, scratch: &mut QueryScratch) -> Result<Option<f64>> {
        scratch.begin(terms.len(), n);
        let QueryScratch {
            metas, bufs, seed, ..
        } = scratch;
        self.push_metas(terms, metas)?;
        let blocks = self.index.blocks();
        if let Some(buf) = bufs.first_mut() {
            weigh_short_runs(&self.kernel, blocks, metas, buf, &mut seed.runs, false);
        }
        Ok(seed_threshold(&self.kernel, blocks, metas, n, seed))
    }

    /// Evaluate a query document-at-a-time, returning the top `n`: by the
    /// short-run merge when every run is short, else with MaxScore
    /// pruning. Bit-exact with [`DaatSearcher::search_exhaustive`]; the
    /// pruned kernel does less work whenever the heap threshold
    /// disqualifies low-bound terms. Allocating convenience wrapper over
    /// [`DaatSearcher::search_into`].
    pub fn search(&self, terms: &[u32], n: usize) -> Result<ExecReport> {
        let mut scratch = QueryScratch::new();
        let report = self.search_into(terms, n, &BoundGate::none(), &mut scratch)?;
        Ok(ExecReport {
            top: std::mem::take(&mut scratch.out),
            ..report
        })
    }

    /// The pruned DAAT kernel on a caller-owned [`QueryScratch`]: the top
    /// `n` lands in `scratch.out` (best first) and the counters come back
    /// in a report whose `top` is empty. Steady-state calls (same or
    /// smaller query shape as previously seen by this scratch) perform
    /// zero heap allocations.
    ///
    /// A query with `n > 0`, at least one term and every run short is
    /// answered by the short-run merge (see the module docs), which builds
    /// no bound table, prunes nothing and publishes its final N-th score
    /// to `gate`. Any other query runs the MaxScore + block-max windowed
    /// kernel, where every pruning gate additionally consults `gate`
    /// (documents whose bound falls strictly below the propagated global
    /// threshold are skipped even while the local heap still has room for
    /// them), and the local N-th score is published back through the
    /// gate: the seed (see the module docs) before either phase, after
    /// every heap insertion of the phase-1 warm-up merge, then in phase 2
    /// once per window sync (when it has risen) and once at the end. A
    /// peer that reads between publications sees a lower threshold and
    /// only prunes less. The *local* top-N may therefore lose tail entries
    /// that cannot make the global top-N; the cross-shard merge remains
    /// bit-exact.
    pub fn search_into(
        &self,
        terms: &[u32],
        n: usize,
        gate: &BoundGate,
        scratch: &mut QueryScratch,
    ) -> Result<ExecReport> {
        // Dispatch on the run lengths alone, before anything builds the
        // bound tables: an all-short query never needs them.
        let mut short = n > 0 && !terms.is_empty();
        for &t in terms {
            short &= self.index.run_len(t)? <= SEED_RUN_MAX;
        }
        if short {
            self.search_short(terms, n, gate, scratch)
        } else {
            self.search_windowed::<WINDOW>(terms, n, gate, scratch, || {})
        }
    }

    /// The windowed kernel alone, whatever the query's run lengths: the
    /// entry the tests of its pruning, windows, lanes and probes call,
    /// since [`DaatSearcher::search_into`] answers an all-short query
    /// with the short-run merge. Exposed for the tests only.
    #[doc(hidden)]
    pub fn search_windowed_into(
        &self,
        terms: &[u32],
        n: usize,
        gate: &BoundGate,
        scratch: &mut QueryScratch,
    ) -> Result<ExecReport> {
        self.search_windowed::<WINDOW>(terms, n, gate, scratch, || {})
    }

    /// The all-short path: the short-run merge's sums are exact scores
    /// and enter the heap in document order (see the module docs). The
    /// exhaustive cursor merge computes the same sums, but stepping m
    /// block cursors posting by posting is slower than decoding each run
    /// whole and walking flat arrays (DESIGN.md gives the A/B).
    fn search_short(
        &self,
        terms: &[u32],
        n: usize,
        gate: &BoundGate,
        scratch: &mut QueryScratch,
    ) -> Result<ExecReport> {
        let t_gate_pass = Instant::now();
        let blocks = self.index.blocks();
        scratch.begin(terms.len(), n);
        let QueryScratch {
            metas,
            bufs,
            seed,
            heap,
            out,
            phases,
            ..
        } = scratch;
        self.push_metas(terms, metas)?;
        phases.add(Phase::GatePass, t_gate_pass.elapsed());

        // The merge decodes and scores every posting, so like the
        // exhaustive merge it is one decode span.
        let t_decode = Instant::now();
        let mut partial = gate.expired();
        let postings_scanned = if partial {
            0
        } else {
            let weighed = weigh_short_runs(
                &self.kernel,
                blocks,
                metas,
                &mut bufs[0],
                &mut seed.runs,
                false,
            );
            merge_short_runs(&mut seed.runs, |doc, score| {
                partial = gate.expired();
                if !partial {
                    heap.push(doc, score);
                }
                !partial
            });
            weighed
        };
        phases.add(Phase::Decode, t_decode.elapsed());

        let t_merge = Instant::now();
        gate.publish(heap);
        let stats = ExecReport {
            postings_scanned,
            candidates: heap.pushes(),
            partial,
            short_merged: 1,
            ..ExecReport::default()
        };
        heap.extract_sorted_into(out);
        phases.add(Phase::Merge, t_merge.elapsed());
        Ok(stats)
    }

    /// [`DaatSearcher::search_into`] with the phase-2 window width `W` as a
    /// parameter and a hook called at the start of every window sync. The
    /// production kernel is `W = WINDOW` with an empty hook; the unit tests
    /// run narrow windows so small fixtures cross many window boundaries,
    /// and expire deadlines from the hook.
    fn search_windowed<const W: usize>(
        &self,
        terms: &[u32],
        n: usize,
        gate: &BoundGate,
        scratch: &mut QueryScratch,
        mut on_sync: impl FnMut(),
    ) -> Result<ExecReport> {
        // Stage clocks: one `Instant` read per stage *boundary* — setup
        // (gate pass), warm-up merge (decode), pruned scan (score), heap
        // drain (merge) — never inside the per-posting loops, so the
        // telemetry cost is a few clock reads per query.
        let t_gate_pass = Instant::now();
        let bounds = self.bounds();
        let blocks = self.index.blocks();
        let m = terms.len();
        scratch.begin(m, n);
        let QueryScratch {
            metas,
            pos,
            bufs,
            cur,
            contrib,
            prefix_bound,
            seed,
            heap,
            phases,
            ..
        } = &mut *scratch;

        // The seed reads the metas in query order, before the sort, and
        // merges the runs the bound pass just weighed.
        self.bounded_metas(terms, bounds, metas, bufs, &mut seed.runs)?;
        let floor = seed_threshold(&self.kernel, blocks, metas, n, seed);
        if let Some(s) = floor {
            gate.publish_score(s);
        }
        // Ascending bound order: the cheapest terms come first so a prefix
        // of them can be declared non-essential as the threshold rises.
        // (Unstable sort: the (max_weight, qpos) key is unique per entry.)
        metas.sort_unstable_by(|a, b| {
            a.max_weight
                .total_cmp(&b.max_weight)
                .then(a.qpos.cmp(&b.qpos))
        });
        // prefix_bound[k] = sum of the k smallest per-term bounds: the most
        // any document matching only terms[..k] can score.
        prefix_bound.push(0.0);
        for i in 0..m {
            prefix_bound.push(prefix_bound[i] + metas[i].max_weight);
        }
        // Open one cursor per term; `cur` mirrors each cursor's current doc
        // (u32::MAX when exhausted) so the min-scan and match tests run
        // over a dense array.
        for i in 0..m {
            let view = blocks.view(metas[i].term);
            let p = view.start(&mut bufs[i]);
            cur.push(view.doc_at(&p, &bufs[i]).unwrap_or(u32::MAX));
            pos.push(p);
        }
        // Per-document contributions, indexed by original query position so
        // the final sum replays the exhaustive merge's addition order.
        contrib.resize(m, 0.0);
        phases.add(Phase::GatePass, t_gate_pass.elapsed());

        let mut stats = ExecReport {
            seeded: usize::from(floor.is_some()),
            ..ExecReport::default()
        };
        let t_decode = Instant::now();

        // Phase 1 — warm-up merge: while the heap is not full every
        // candidate enters, so no bound bookkeeping pays off yet (the
        // partition is necessarily empty too). A plain merge fills the
        // heap as fast as possible. With a seed, or a cross-engine gate
        // that already *carries a signal*, the premise fails — a threshold
        // exists that may disqualify early documents wholesale — so the
        // merge is skipped, or stops as soon as the gate lights up, and
        // the bounds-pruned scan takes over (it handles an under-full
        // heap fine: `would_enter` admits everything until capacity, and
        // the floor and the gate prune from the very next window).
        while floor.is_none() && !heap.is_full() && m > 0 && !gate.has_signal() {
            // Deadline poll at the candidate boundary: truncation only —
            // every score already in the heap is exact.
            if gate.expired() {
                stats.partial = true;
                break;
            }
            let next_doc = cur.iter().copied().min().unwrap_or(u32::MAX);
            if next_doc == u32::MAX {
                break; // input exhausted before the heap filled
            }
            for i in 0..m {
                if cur[i] == next_doc {
                    let meta = metas[i];
                    let view = blocks.view(meta.term);
                    let tf = view.tf_at(&mut pos[i], &mut bufs[i]);
                    contrib[meta.qpos as usize] = self.kernel.weight(&meta.scorer, tf, next_doc);
                    view.advance(&mut pos[i], &mut bufs[i]);
                    cur[i] = view.doc_at(&pos[i], &bufs[i]).unwrap_or(u32::MAX);
                    stats.postings_scanned += 1;
                }
            }
            // Sum in original query order (bit-exact with the exhaustive
            // merge).
            let mut score = 0.0f64;
            for &c in contrib.iter() {
                score += c;
            }
            heap.push(next_doc, score);
            gate.publish(heap);
            contrib.fill(0.0);
        }
        phases.add(Phase::Decode, t_decode.elapsed());

        let t_score = Instant::now();
        let floor = floor.unwrap_or(f64::NEG_INFINITY);
        self.pruned_windows::<W>(scratch, gate, floor, &mut stats, &mut on_sync);
        scratch.phases.add(Phase::Score, t_score.elapsed());

        let t_merge = Instant::now();
        stats.candidates = scratch.heap.pushes();
        scratch.heap.extract_sorted_into(&mut scratch.out);
        scratch.phases.add(Phase::Merge, t_merge.elapsed());
        Ok(stats)
    }

    /// Phase 2 — the bounds-pruned scan, one window of `W` document ids at
    /// a time: sync, window gate, pass 1 (lanes), pass 2 (candidates in
    /// document order); see the module docs. Every bound test also
    /// requires `bound >= floor`, the query's seed (−∞ when unseeded).
    /// Deadline expiry is observed only at a sync, so a truncated query
    /// has evaluated whole windows.
    fn pruned_windows<const W: usize>(
        &self,
        scratch: &mut QueryScratch,
        gate: &BoundGate,
        floor: f64,
        stats: &mut ExecReport,
        on_sync: &mut impl FnMut(),
    ) {
        // One u64 summarizes which of the W / 64 bit-lane words are in use.
        const { assert!(W > 0 && W.is_multiple_of(64) && W <= 64 * 64) };
        let words = W / 64;
        let bounds = self.bounds();
        let blocks = self.index.blocks();
        let QueryScratch {
            metas,
            pos,
            bufs,
            cur,
            contrib,
            prefix_bound,
            ne,
            lane_tf,
            lane_bits,
            lane_bound,
            seed,
            heap,
            ..
        } = scratch;
        let query_bounds = &seed.runs.bounds[..];
        let m = metas.len();
        let deadline = gate.deadline();
        // Phase 1 published after every push, and the seed was offered
        // before it, so the larger of the two is already out.
        let mut published = heap.threshold().unwrap_or(f64::NEG_INFINITY).max(floor);
        // Terms [0, first_essential) are non-essential: their cumulative
        // bound cannot enter the heap, so no document found *only* there
        // can make the top-N. Doc id 0 is the most favorable tie-break, so
        // using it keeps the partition conservative for every document.
        let mut first_essential = 0usize;
        loop {
            // Sync. Publishing once per window rather than per push is
            // sound: a peer that reads a stale threshold only prunes less.
            // Expiry truncates between windows (phase 1 may already have
            // observed it).
            on_sync();
            if stats.partial || deadline.is_some_and(|d| d.poll_now()) {
                stats.partial = true;
                break;
            }
            publish_risen(heap, gate, &mut published);
            while first_essential < m
                && !can_enter(heap, gate, floor, prefix_bound[first_essential + 1], 0)
            {
                first_essential += 1;
            }
            let fe = first_essential;
            // The window starts at the smallest essential cursor (no term
            // essential, or all essential cursors exhausted: done).
            let lo = cur[fe..].iter().copied().min().unwrap_or(u32::MAX);
            if lo == u32::MAX {
                break;
            }
            let win = Window {
                lo,
                end: lo.saturating_add(W as u32),
            };

            // Window gate: per essential term the largest block maximum
            // overlapping the window, plus the non-essential prefix bound.
            // A failure moves each essential cursor past the window with
            // one seek, decoding nothing it skips.
            let mut bound = prefix_bound[fe];
            for i in fe..m {
                if cur[i] < win.end {
                    let bb = metas[i].block_bounds(bounds, query_bounds);
                    let view = blocks.view(metas[i].term);
                    bound += window_max(&view, bb, pos[i].block, win.end);
                }
            }
            if !can_enter(heap, gate, floor, bound, win.lo) {
                stats.bound_exits += 1;
                for i in fe..m {
                    if cur[i] < win.end {
                        let view = blocks.view(metas[i].term);
                        stats.seeks += 1;
                        stats.docs_skipped += view.seek(&mut pos[i], &mut bufs[i], win.end);
                        cur[i] = view.doc_at(&pos[i], &bufs[i]).unwrap_or(u32::MAX);
                    }
                }
                continue;
            }

            // Pass 1 — the essential terms' in-window postings into the
            // lanes.
            grow(lane_tf, m * W);
            grow(lane_bits, m * words);
            grow(lane_bound, W);
            let lanes = WindowLanes {
                bits: lane_bits,
                bound: lane_bound,
            };
            let mut consumed = 0usize;
            let mut occupied = 0u64;
            for i in fe..m {
                if cur[i] >= win.end {
                    continue;
                }
                let view = blocks.view(metas[i].term);
                let term_lanes = TermLanes {
                    tfs: &mut lane_tf[i * W..(i + 1) * W],
                    bits: &mut lanes.bits[i * words..(i + 1) * words],
                    bound: &mut *lanes.bound,
                };
                let bb = metas[i].block_bounds(bounds, query_bounds);
                let (postings, words) =
                    fill_lanes(&view, bb, &mut pos[i], &mut bufs[i], win, term_lanes);
                consumed += postings;
                occupied |= words;
                cur[i] = view.doc_at(&pos[i], &bufs[i]).unwrap_or(u32::MAX);
            }

            // Pass 2 — candidates in document order. Each non-essential
            // term keeps a shallow pointer to the block whose maximum
            // bounds its contribution to the current candidate (the cursor
            // itself only moves on a probe).
            ne.clear();
            for j in 0..fe {
                let bb = metas[j].block_bounds(bounds, query_bounds);
                let b = pos[j].block.min(bb.len());
                ne.push(NeBound {
                    block: b + bb[b..].partition_point(|x| x.last_doc < win.lo),
                    prefix: 0.0,
                });
            }
            let mut scanned = 0usize;
            while occupied != 0 {
                let w = occupied.trailing_zeros() as usize;
                occupied &= occupied - 1;
                let mut live = 0u64;
                for i in fe..m {
                    live |= lanes.bits[i * words + w];
                }
                while live != 0 {
                    let bit = live.trailing_zeros() as usize;
                    live &= live - 1;
                    let o = w * 64 + bit;
                    let doc = win.lo + o as u32;
                    let local = std::mem::take(&mut lanes.bound[o]);
                    // The global non-essential bound first: shallow maxima
                    // are never larger, so a document it rejects needs no
                    // shallow search.
                    if fe > 0 && !can_enter(heap, gate, floor, local + prefix_bound[fe], doc) {
                        stats.bound_exits += 1;
                        continue;
                    }
                    let mut ne_total = 0.0f64;
                    for j in 0..fe {
                        let bb = metas[j].block_bounds(bounds, query_bounds);
                        let k = &mut ne[j].block;
                        while *k < bb.len() && bb[*k].last_doc < doc {
                            *k += 1;
                        }
                        ne_total += bb.get(*k).map_or(0.0, |b| b.max_score);
                        ne[j].prefix = ne_total;
                    }
                    if !can_enter(heap, gate, floor, local + ne_total, doc) {
                        stats.bound_exits += 1;
                        continue;
                    }

                    // Exact weights of the essential postings, strongest
                    // bound first: the terms present are gathered into a
                    // mask 64 at a time, so the walk does not branch on
                    // each term's bit.
                    let mut partial = 0.0f64;
                    let mut top = m;
                    while top > fe {
                        let base = top.saturating_sub(64).max(fe);
                        let mut present = 0u64;
                        for i in base..top {
                            present |= ((lanes.bits[i * words + w] >> bit) & 1) << (i - base);
                        }
                        while present != 0 {
                            let at = 63 - present.leading_zeros() as usize;
                            present &= !(1 << at);
                            let i = base + at;
                            let meta = &metas[i];
                            let wt = self.kernel.weight(&meta.scorer, lane_tf[i * W + o], doc);
                            contrib[meta.qpos as usize] = wt;
                            partial += wt;
                            scanned += 1;
                        }
                        top = base;
                    }

                    // Probe the non-essential terms, strongest bound first,
                    // bailing out as soon as the remaining bound cannot
                    // reach the heap.
                    let mut completed = true;
                    for j in (0..fe).rev() {
                        let rest = partial + ne[j].prefix;
                        if !can_enter(heap, gate, floor, rest, doc) {
                            stats.bound_exits += 1;
                            completed = false;
                            break;
                        }
                        let meta = metas[j];
                        let view = blocks.view(meta.term);
                        stats.seeks += 1;
                        stats.docs_skipped += view.seek(&mut pos[j], &mut bufs[j], doc);
                        if view.doc_at(&pos[j], &bufs[j]) == Some(doc) {
                            let tf = view.tf_at(&mut pos[j], &mut bufs[j]);
                            let wt = self.kernel.weight(&meta.scorer, tf, doc);
                            contrib[meta.qpos as usize] = wt;
                            partial += wt;
                            view.advance(&mut pos[j], &mut bufs[j]);
                            stats.postings_scanned += 1;
                        }
                        cur[j] = view.doc_at(&pos[j], &bufs[j]).unwrap_or(u32::MAX);
                    }

                    if completed {
                        // Re-sum in original query order: identical
                        // floating-point addition sequence to the
                        // exhaustive/naive paths. Clearing rides along.
                        let mut score = 0.0f64;
                        for c in contrib.iter_mut() {
                            score += std::mem::take(c);
                        }
                        heap.push(doc, score);
                    } else {
                        contrib.fill(0.0);
                    }
                }
                for i in fe..m {
                    lanes.bits[i * words + w] = 0;
                }
            }
            stats.postings_scanned += scanned;
            stats.docs_skipped += consumed - scanned;
        }
        publish_risen(heap, gate, &mut published);

        // Account for the pruned tails so the work ledger balances.
        for i in 0..m {
            let len = blocks.view(metas[i].term).len();
            stats.docs_skipped += len - (pos[i].base + pos[i].idx).min(len);
        }
    }

    /// Evaluate a query document-at-a-time with the plain exhaustive
    /// cursor merge — every posting of every query term is consumed. The
    /// unpruned baseline `moabench` measures [`Self::search`] against
    /// (`operator.exhaustive_daat_us_p50`), and the element-at-a-time work
    /// reference of E13.
    /// Allocating wrapper over [`DaatSearcher::search_exhaustive_into`].
    pub fn search_exhaustive(&self, terms: &[u32], n: usize) -> Result<ExecReport> {
        let mut scratch = QueryScratch::new();
        let report = self.search_exhaustive_into(terms, n, &BoundGate::none(), &mut scratch)?;
        Ok(ExecReport {
            top: std::mem::take(&mut scratch.out),
            ..report
        })
    }

    /// The exhaustive cursor merge on a caller-owned scratch: the top `n`
    /// lands in `scratch.out` and the report's `top` is empty. Never
    /// triggers the lazy [`ScoreBounds`] build — the plain merge needs no
    /// bound tables. It cannot prune on `gate`'s threshold, but it polls
    /// the gate's per-query deadline at each candidate boundary and
    /// truncates honestly once the budget is spent.
    pub fn search_exhaustive_into(
        &self,
        terms: &[u32],
        n: usize,
        gate: &BoundGate,
        scratch: &mut QueryScratch,
    ) -> Result<ExecReport> {
        let t_gate_pass = Instant::now();
        let blocks = self.index.blocks();
        let m = terms.len();
        scratch.begin(m, n);
        let QueryScratch {
            metas,
            pos,
            bufs,
            cur,
            heap,
            out,
            phases,
            ..
        } = scratch;
        // States stay in query order, so the addition order matches the
        // naive paths.
        self.push_metas(terms, metas)?;
        for i in 0..m {
            let view = blocks.view(metas[i].term);
            let p = view.start(&mut bufs[i]);
            cur.push(view.doc_at(&p, &bufs[i]).unwrap_or(u32::MAX));
            pos.push(p);
        }
        phases.add(Phase::GatePass, t_gate_pass.elapsed());

        let mut stats = ExecReport::default();
        // The exhaustive merge has no pruned-scan stage: every posting is
        // decoded and scored, so the whole loop is one decode span.
        let t_decode = Instant::now();
        loop {
            let next_doc = cur.iter().copied().min().unwrap_or(u32::MAX);
            if next_doc == u32::MAX {
                break; // all cursors exhausted
            }
            // Deadline poll at the candidate boundary — the exhaustive
            // merge degrades to a document-id-prefix evaluation.
            if gate.expired() {
                stats.partial = true;
                break;
            }
            // Accumulate this document's score from every matching cursor
            // and advance those cursors (element-at-a-time).
            let mut score = 0.0f64;
            for i in 0..m {
                if cur[i] == next_doc {
                    let meta = metas[i];
                    let view = blocks.view(meta.term);
                    let tf = view.tf_at(&mut pos[i], &mut bufs[i]);
                    score += self.kernel.weight(&meta.scorer, tf, next_doc);
                    view.advance(&mut pos[i], &mut bufs[i]);
                    cur[i] = view.doc_at(&pos[i], &bufs[i]).unwrap_or(u32::MAX);
                    stats.postings_scanned += 1;
                }
            }
            heap.push(next_doc, score);
        }
        phases.add(Phase::Decode, t_decode.elapsed());

        let t_merge = Instant::now();
        stats.candidates = heap.pushes();
        heap.extract_sorted_into(out);
        phases.add(Phase::Merge, t_merge.elapsed());
        Ok(stats)
    }
}

#[cfg(test)]
mod tests {
    use std::time::Duration;

    use super::*;
    use crate::deadline::DeadlineGate;
    use crate::eval::Searcher;
    use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, QueryConfig};

    fn setup() -> (Collection, InvertedIndex) {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        (c, idx)
    }

    fn models() -> Vec<RankingModel> {
        vec![
            RankingModel::TfIdf,
            RankingModel::HiemstraLm { lambda: 0.15 },
            RankingModel::Bm25 { k1: 1.2, b: 0.75 },
        ]
    }

    /// The windowed kernel at the production width, whatever the run
    /// lengths, with the ranking in the report: `search` without the
    /// dispatch. Every run of the tiny preset is short, so `search` would
    /// answer its queries with the short-run merge.
    fn windowed(daat: &DaatSearcher<'_>, terms: &[u32], n: usize) -> ExecReport {
        let mut scratch = QueryScratch::new();
        let report = daat
            .search_windowed_into(terms, n, &BoundGate::none(), &mut scratch)
            .unwrap();
        ExecReport {
            top: scratch.out,
            ..report
        }
    }

    #[test]
    fn daat_matches_set_at_a_time_exactly() {
        let (c, idx) = setup();
        let model = RankingModel::default();
        let daat = DaatSearcher::new(&idx, model);
        let mut saat = Searcher::new(&idx, model);
        let queries = generate_queries(&c, &QueryConfig::default()).unwrap();
        for q in queries.iter().take(15) {
            let d = daat.search(&q.terms, 20).unwrap();
            let s = saat.search(&q.terms, 20).unwrap();
            assert_eq!(d.top, s.top, "query {:?}", q.terms);
        }
    }

    #[test]
    fn pruned_matches_exhaustive_bit_exactly_for_all_models() {
        let (c, idx) = setup();
        let queries = generate_queries(&c, &QueryConfig::default()).unwrap();
        for model in models() {
            let daat = DaatSearcher::new(&idx, model);
            for q in queries.iter().take(12) {
                for n in [1usize, 5, 20, idx.num_docs()] {
                    let pruned = windowed(&daat, &q.terms, n);
                    let full = daat.search_exhaustive(&q.terms, n).unwrap();
                    assert_eq!(pruned.top, full.top, "{model:?} {:?} n={n}", q.terms);
                }
            }
        }
    }

    #[test]
    fn scratch_reuse_is_bit_identical_to_fresh_scratch() {
        // One scratch reused across queries of varying widths and depths
        // answers exactly as a fresh scratch per query.
        let (c, idx) = setup();
        let daat = DaatSearcher::new(&idx, RankingModel::default());
        let queries = generate_queries(&c, &QueryConfig::default()).unwrap();
        let mut reused = QueryScratch::new();
        for q in queries.iter().take(15) {
            for n in [1usize, 10] {
                let stats = daat
                    .search_windowed_into(&q.terms, n, &BoundGate::none(), &mut reused)
                    .unwrap();
                assert!(stats.top.is_empty(), "the ranking stays in the scratch");
                let fresh = windowed(&daat, &q.terms, n);
                // Every counter, `partial` and the ranking.
                assert_eq!(
                    ExecReport {
                        top: reused.out.clone(),
                        ..stats.clone()
                    },
                    fresh,
                    "query {:?} n={n}",
                    q.terms
                );
                // Exhaustive reuse through the same scratch too.
                let ex = daat
                    .search_exhaustive_into(&q.terms, n, &BoundGate::none(), &mut reused)
                    .unwrap();
                assert_eq!(reused.out, fresh.top);
                assert_eq!(
                    ex.postings_scanned,
                    stats.postings_scanned + stats.docs_skipped
                );
            }
        }
    }

    #[test]
    fn pruning_work_ledger_balances() {
        let (c, idx) = setup();
        let daat = DaatSearcher::new(&idx, RankingModel::default());
        let queries = generate_queries(&c, &QueryConfig::default()).unwrap();
        for q in queries.iter().take(12) {
            let volume: usize = q.terms.iter().map(|&t| idx.df(t).unwrap() as usize).sum();
            let rep = windowed(&daat, &q.terms, 10);
            assert_eq!(
                rep.postings_scanned + rep.docs_skipped,
                volume,
                "query {:?}",
                q.terms
            );
            assert!(rep.postings_scanned <= volume);
        }
    }

    #[test]
    fn pruned_scans_fewer_postings_at_small_n() {
        let (c, idx) = setup();
        // Frequent terms + small n: the regime where bounds pay off.
        let daat = DaatSearcher::new(&idx, RankingModel::default());
        let queries = generate_queries(
            &c,
            &QueryConfig {
                num_queries: 20,
                bias: DfBias::TrecLike { high_df_mix: 0.3 },
                ..QueryConfig::default()
            },
        )
        .unwrap();
        let mut pruned_total = 0usize;
        let mut full_total = 0usize;
        let mut any_pruning = false;
        for q in &queries {
            let pruned = windowed(&daat, &q.terms, 5);
            let full = daat.search_exhaustive(&q.terms, 5).unwrap();
            pruned_total += pruned.postings_scanned;
            full_total += full.postings_scanned;
            if pruned.docs_skipped > 0 {
                any_pruning = true;
                assert!(pruned.seeks > 0 || pruned.bound_exits > 0 || pruned.docs_skipped > 0);
            }
        }
        assert!(any_pruning, "no query pruned anything");
        assert!(
            pruned_total < full_total,
            "pruned {pruned_total} >= exhaustive {full_total}"
        );
    }

    #[test]
    fn exhaustive_work_equals_query_postings() {
        let (_, idx) = setup();
        let daat = DaatSearcher::new(&idx, RankingModel::default());
        let terms = idx.terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() / 2]];
        let expect: usize = q.iter().map(|&t| idx.df(t).unwrap() as usize).sum();
        let rep = daat.search_exhaustive(&q, 10).unwrap();
        assert_eq!(rep.postings_scanned, expect);
        assert_eq!(rep.docs_skipped, 0);
        assert_eq!(rep.seeks, 0);
        assert_eq!(rep.bound_exits, 0);
    }

    #[test]
    fn duplicate_query_terms_accumulate_twice() {
        // Bag-of-words semantics: a term listed twice contributes twice —
        // same as the set-at-a-time evaluator.
        let (_, idx) = setup();
        let model = RankingModel::default();
        let daat = DaatSearcher::new(&idx, model);
        let mut saat = Searcher::new(&idx, model);
        let terms = idx.terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() - 1]];
        let d = daat.search(&q, 5).unwrap();
        let s = saat.search(&q, 5).unwrap();
        assert_eq!(d.top, s.top);
    }

    #[test]
    fn empty_query_and_unknown_term() {
        let (_, idx) = setup();
        let daat = DaatSearcher::new(&idx, RankingModel::default());
        for rep in [
            daat.search(&[], 5).unwrap(),
            daat.search_exhaustive(&[], 5).unwrap(),
        ] {
            assert!(rep.top.is_empty());
            assert_eq!(rep.postings_scanned, 0);
        }
        assert!(daat.search(&[u32::MAX], 5).is_err());
        assert!(daat.search_exhaustive(&[u32::MAX], 5).is_err());
    }

    #[test]
    fn n_zero_prunes_everything() {
        let (_, idx) = setup();
        let daat = DaatSearcher::new(&idx, RankingModel::default());
        let terms = idx.terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() / 2]];
        let rep = daat.search(&q, 0).unwrap();
        assert!(rep.top.is_empty());
        // A zero-capacity heap rejects everything: nothing is ever scored.
        assert_eq!(rep.postings_scanned, 0);
        let volume: usize = q.iter().map(|&t| idx.df(t).unwrap() as usize).sum();
        assert_eq!(rep.docs_skipped, volume);
    }

    /// An index of two terms over 1 000 documents: term 0 holds the first
    /// `long` documents, term 1 every seventh document, tfs 1–3.
    fn two_runs(long: u32) -> InvertedIndex {
        let mut postings: Vec<(u32, u32, u32)> = (0..long).map(|d| (0, d, 1 + d % 3)).collect();
        postings.extend((0..1_000).step_by(7).map(|d| (1, d, 1 + d % 2)));
        InvertedIndex::from_sorted_postings(2, vec![8; 1_000], &postings).unwrap()
    }

    #[test]
    fn all_short_queries_take_the_merge_and_a_513_run_takes_the_windows() {
        for (long, short) in [
            (SEED_RUN_MAX as u32, true),
            (SEED_RUN_MAX as u32 + 1, false),
        ] {
            let idx = two_runs(long);
            for model in models() {
                let daat = DaatSearcher::new(&idx, model);
                for (q, n) in [(vec![0, 1], 10), (vec![1, 0, 1], 1), (vec![0], 1_000)] {
                    let volume: usize = q.iter().map(|&t| idx.run_len(t).unwrap()).sum();
                    let rep = daat.search(&q, n).unwrap();
                    let ctx = format!("run {long} {model:?} {q:?} n={n}");
                    assert_eq!(rep.top, daat.search_exhaustive(&q, n).unwrap().top, "{ctx}");
                    assert_eq!(rep.short_merged, usize::from(short), "{ctx}");
                    if short {
                        assert_eq!(rep.postings_scanned, volume, "{ctx}");
                        assert_eq!(rep.docs_skipped, 0, "{ctx}");
                        assert_eq!(rep.seeks, 0, "{ctx}");
                        assert_eq!(rep.bound_exits, 0, "{ctx}");
                        assert_eq!(rep.seeded, 0, "{ctx}");
                    } else {
                        assert_eq!(rep.postings_scanned + rep.docs_skipped, volume, "{ctx}");
                    }
                }
                // Only the windows build the bound tables.
                assert_eq!(daat.bounds.get().is_none(), short, "run {long} {model:?}");
            }
        }
    }

    #[test]
    fn an_expired_gate_returns_a_partial_empty_top_from_the_merge() {
        let (_, idx) = setup();
        let daat = DaatSearcher::new(&idx, RankingModel::default());
        let terms = idx.terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() / 2]];
        let deadline = Arc::new(DeadlineGate::after(Duration::from_secs(3600)));
        deadline.force_expire();
        let gate = BoundGate::none().with_deadline(deadline);
        let mut scratch = QueryScratch::new();
        let rep = daat.search_into(&q, 10, &gate, &mut scratch).unwrap();
        assert_eq!(rep.short_merged, 1);
        assert!(rep.partial);
        assert!(scratch.out.is_empty());
        assert_eq!(rep.postings_scanned, 0);
        assert_eq!(rep.candidates, 0);
    }

    /// The window width of the multi-window tests: every fixture below
    /// spans many windows of this size, while the production width fits
    /// each of them in one.
    const NARROW: usize = 64;

    /// A collection of short documents, long enough for dozens of narrow
    /// windows, and a query mix with frequent terms so the pruned phase
    /// does real work.
    fn multi_window_fixture() -> (InvertedIndex, Vec<Vec<u32>>) {
        let c = Collection::generate(CollectionConfig {
            num_docs: 1_500,
            vocab_size: 800,
            avg_doc_len: 12,
            zipf_exponent: 1.1,
            num_topics: 12,
            topic_mix: 0.3,
            seed: 0x0057_1D0E,
        })
        .unwrap();
        let idx = InvertedIndex::from_collection(&c);
        let queries = generate_queries(
            &c,
            &QueryConfig {
                num_queries: 10,
                bias: DfBias::TrecLike { high_df_mix: 0.5 },
                seed: 0x3D0E,
                ..QueryConfig::default()
            },
        )
        .unwrap();
        (idx, queries.into_iter().map(|q| q.terms).collect())
    }

    /// Run the pruned kernel at the narrow width, counting window syncs.
    fn narrow(
        daat: &DaatSearcher<'_>,
        terms: &[u32],
        n: usize,
        gate: &BoundGate,
        scratch: &mut QueryScratch,
    ) -> (ExecReport, usize) {
        let mut syncs = 0usize;
        let stats = daat
            .search_windowed::<NARROW>(terms, n, gate, scratch, || syncs += 1)
            .unwrap();
        (stats, syncs)
    }

    #[test]
    fn narrow_windows_match_set_at_a_time_and_the_exhaustive_merge() {
        let (idx, queries) = multi_window_fixture();
        let mut max_syncs = 0usize;
        for model in models() {
            let daat = DaatSearcher::new(&idx, model);
            let mut saat = Searcher::new(&idx, model);
            let mut scratch = QueryScratch::new();
            for terms in &queries {
                let volume: usize = terms.iter().map(|&t| idx.df(t).unwrap() as usize).sum();
                for n in [1usize, 10, 100, 1000] {
                    let (stats, syncs) = narrow(&daat, terms, n, &BoundGate::none(), &mut scratch);
                    max_syncs = max_syncs.max(syncs);
                    let ctx = format!("{model:?} {terms:?} n={n}");
                    assert_eq!(scratch.out, saat.search(terms, n).unwrap().top, "{ctx}");
                    assert_eq!(
                        scratch.out,
                        daat.search_exhaustive(terms, n).unwrap().top,
                        "{ctx}"
                    );
                    assert_eq!(
                        stats.postings_scanned + stats.docs_skipped,
                        volume,
                        "{ctx}: work ledger"
                    );
                    assert!(!stats.partial);
                    // The production width answers the same.
                    assert_eq!(scratch.out, windowed(&daat, terms, n).top, "{ctx}");
                }
            }
        }
        assert!(
            max_syncs >= 10,
            "fixture crossed at most {max_syncs} window syncs"
        );
    }

    #[test]
    fn deadline_at_every_window_sync_yields_exact_partials() {
        let (idx, queries) = multi_window_fixture();
        for model in models() {
            let daat = DaatSearcher::new(&idx, model);
            let mut saat = Searcher::new(&idx, model);
            let mut scratch = QueryScratch::new();
            for terms in queries.iter().take(4) {
                // Every document's exact score, from the set-at-a-time
                // evaluator's full ranking.
                let exact: std::collections::HashMap<u32, f64> = saat
                    .search(terms, idx.num_docs())
                    .unwrap()
                    .top
                    .into_iter()
                    .collect();
                for n in [10usize, 100] {
                    let (full, syncs) = narrow(&daat, terms, n, &BoundGate::none(), &mut scratch);
                    let full_top = scratch.out.clone();
                    for k in 1..=syncs {
                        let deadline = Arc::new(DeadlineGate::after(Duration::from_secs(3600)));
                        let gate = BoundGate::none().with_deadline(Arc::clone(&deadline));
                        let mut seen = 0usize;
                        let stats = daat
                            .search_windowed::<NARROW>(terms, n, &gate, &mut scratch, || {
                                seen += 1;
                                if seen == k {
                                    deadline.force_expire();
                                }
                            })
                            .unwrap();
                        let ctx = format!("{model:?} {terms:?} n={n} expired at sync {k}/{syncs}");
                        assert!(stats.partial, "{ctx}");
                        assert_eq!(seen, k, "{ctx}: no window after the expired sync");
                        assert!(stats.postings_scanned <= full.postings_scanned, "{ctx}");
                        assert!(scratch.out.len() <= full_top.len(), "{ctx}");
                        for &(doc, score) in &scratch.out {
                            assert_eq!(score.to_bits(), exact[&doc].to_bits(), "{ctx}: doc {doc}");
                        }
                        if k == syncs {
                            // The last sync follows the last window.
                            assert_eq!(scratch.out, full_top, "{ctx}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn window_lanes_are_zeroed_when_a_panic_unwinds_out_of_a_window() {
        let mut bits = vec![0u64; 4];
        let mut bound = vec![0.0f64; 8];
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let lanes = WindowLanes {
                bits: &mut bits,
                bound: &mut bound,
            };
            lanes.bits[1] = 0b101;
            lanes.bound[3] = 1.5;
            panic!("a window abandoned mid-way");
        }));
        assert!(unwound.is_err());
        assert!(bits.iter().all(|&w| w == 0));
        assert!(bound.iter().all(|&b| b == 0.0));
    }

    /// A query of the fixture's most frequent term (a run longer than
    /// `SEED_RUN_MAX`) and its short terms of df 50–300 — a query the
    /// seed pass serves whenever the model allows it.
    fn short_plus_long_query(idx: &InvertedIndex) -> Vec<u32> {
        let by_df = idx.terms_by_df_asc();
        let long = by_df[by_df.len() - 1];
        assert!(idx.df(long).unwrap() as usize > SEED_RUN_MAX);
        let mut q: Vec<u32> = by_df
            .iter()
            .copied()
            .filter(|&t| (50..=300).contains(&idx.df(t).unwrap()))
            .take(3)
            .collect();
        assert_eq!(q.len(), 3, "the fixture has short terms");
        q.insert(1, long);
        q
    }

    #[test]
    fn negative_weight_models_get_no_seed() {
        let (idx, _) = multi_window_fixture();
        let q = short_plus_long_query(&idx);
        let mut scratch = QueryScratch::new();
        for model in models() {
            assert!(model.nonnegative_weights(), "{model:?}");
            let daat = DaatSearcher::new(&idx, model);
            assert!(
                daat.seed(&q, 10, &mut scratch).unwrap().is_some(),
                "{model:?}"
            );
            assert_eq!(daat.search(&q, 10).unwrap().seeded, 1, "{model:?}");
        }
        for model in [
            RankingModel::Bm25 { k1: 1.2, b: 3.0 },
            RankingModel::Bm25 { k1: -0.5, b: 0.75 },
        ] {
            assert!(!model.nonnegative_weights(), "{model:?}");
            let daat = DaatSearcher::new(&idx, model);
            for n in [1usize, 10, 100] {
                assert_eq!(daat.seed(&q, n, &mut scratch).unwrap(), None, "{model:?}");
                let pruned = daat.search(&q, n).unwrap();
                assert_eq!(pruned.seeded, 0, "{model:?} n={n}");
                assert_eq!(
                    pruned.top,
                    daat.search_exhaustive(&q, n).unwrap().top,
                    "{model:?} n={n}"
                );
            }
        }
    }

    #[test]
    fn results_are_sorted_descending() {
        let (_, idx) = setup();
        let daat = DaatSearcher::new(&idx, RankingModel::default());
        let terms = idx.terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() - 3]];
        let rep = daat.search(&q, 50).unwrap();
        assert!(rep.top.windows(2).all(|w| w[0].1 >= w[1].1));
    }
}
