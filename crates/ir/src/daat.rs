//! Document-at-a-time (element-at-a-time) evaluation, bounds-pruned.
//!
//! The paper's Step 1 observes: *"databases preferably operate set-based in
//! contrast with the element-at-a-time operation of most IR systems, \[so\]
//! IR technology and optimization techniques are not directly applicable in
//! a content based retrieval DBMS."* This module implements that contrasted
//! architecture — per-term posting runs evaluated document-at-a-time, as
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
//! 512 postings in the index searched (the shard's own when sharded).
//! [`DaatSearcher::search_into`] reads the run lengths alone: a query with
//! N > 0, at least one term and only short runs is answered by the
//! **exact merge**; any other takes the windowed kernel below, the only
//! path that builds and reads the [`ScoreBounds`].
//!
//! **One merge, three uses.** Runs are decoded and weighed through the
//! shared [`crate::scorer::ScoreKernel`] into flat arrays, each closed by
//! a sentinel; the merge walks them in document order, adding each
//! document's weights in query order from 0.0: the addition sequence of
//! every exact path, for every model.
//!
//! * *The exhaustive plan* ([`DaatSearcher::search_exhaustive`]) merges
//!   every run: whole when all are short, else one [`WINDOW`] of document
//!   ids at a time, decoding the blocks that overlap it through each
//!   term's cursor (a block straddling the window's end stays decoded),
//!   so the arrays hold at most `m × WINDOW` postings. Sums enter the heap
//!   in document order. The deadline is polled before every window and at
//!   every document, so expiry leaves exact scores over a document-id
//!   prefix, and the final N-th score is published to the gate.
//!   `postings_scanned` is the volume; skips, seeks and exits stay 0.
//! * *Every run short:* the dispatch sends the pruned query to the same
//!   whole-run merge (`short_merged`). On runs this short a bound has
//!   nothing to prune: the paper's set-based side winning where it should.
//! * *A run is long: the seed.* The windowed kernel merges its short runs
//!   alone. The sums are lower bounds, and the N-th
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
//! block. A long run's come from the [`ScoreBounds`] table of long runs,
//! built once per index by the first windowed query and binary-searched
//! per term. A short run's are built per query by the short-run pass,
//! from the weights it computes for the seed, with the table's own
//! builder (`block_bound`), so they are the same bits. The pass runs for
//! every windowed query, seed or not, and like the seed is setup work:
//! timed in the gate pass, not counted in `postings_scanned`. Every
//! pruning site reads the bounds through `TermMeta::block_bounds`.
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
//! 128-posting block has one 16-byte [`BlockBound`] (`last_doc`, exact
//! block maximum, eight 4-bit mini-block maxima) in a per-term array, so a
//! window gate reads a few records per term and a rejected window's
//! payload is never decoded. The mini-block maxima become the lane bounds,
//! which stay discriminating where block maxima approach term maxima.
//!
//! Results are **bit-exact** with the exact merge and the set-at-a-time
//! evaluator: contributions are summed in query order, and every weight
//! comes from the shared kernel. Only the work differs: `postings_scanned`
//! (weights computed) shrinks, and every other posting of the query's runs
//! counts in `docs_skipped`.
//!
//! Every entry point returns an [`ExecReport`]. The `_into` entry points
//! run on a caller-owned [`QueryScratch`] and leave the ranking in
//! `scratch.out` (the report's `top` is empty): after the first query at
//! a given shape they perform **zero heap allocations**
//! (`crates/ir/tests/alloc_steady_state.rs`).

use std::sync::{Arc, OnceLock};
use std::time::Instant;

use moa_obs::Phase;
use moa_topn::TopNHeap;

use crate::blocks::{BlockPostingList, CursorBuf, CursorPos, TermView, MINI_LEN};
use crate::error::Result;
use crate::index::InvertedIndex;
use crate::physical::ExecReport;
use crate::ranking::RankingModel;
use crate::scorer::{
    block_bound, weigh_block, BlockBound, ScoreBounds, ScoreKernel, TermScorer, SEED_RUN_MAX,
};
use crate::scratch::{BoundsIn, NeBound, QueryScratch, TermMeta, WeighedRuns};
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
/// (in query order) of at most [`SEED_RUN_MAX`] postings whole into
/// `runs`, weighed, each run closed by a sentinel no document id reaches,
/// so the merge walk needs no end test. With `bound`, it also builds each
/// short term's bounds into `runs.bounds` from those weights, by the
/// table's builder, and points the term's meta there. Returns the
/// postings weighed.
fn weigh_short_runs(
    kernel: &ScoreKernel,
    blocks: &BlockPostingList,
    metas: &mut [TermMeta],
    buf: &mut CursorBuf,
    runs: &mut WeighedRuns,
    bound: bool,
) -> usize {
    runs.clear();
    let WeighedRuns {
        docs,
        weights,
        heads,
        bounds,
    } = runs;
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

/// The exact merge's window step for one run: weighs the postings from
/// the cursor up to document `end` (exclusive) into `runs`, then the
/// sentinel, and returns their count. A block is decoded whole on entry,
/// so one straddling `end` is decoded once for both windows.
fn weigh_window(
    kernel: &ScoreKernel,
    scorer: &TermScorer,
    view: &TermView<'_>,
    pos: &mut CursorPos,
    buf: &mut CursorBuf,
    end: u32,
    runs: &mut WeighedRuns,
) -> usize {
    let start = pos.base + pos.idx;
    while let Some(h) = view.headers().get(pos.block) {
        if pos.idx == 0 {
            if h.first_doc >= end {
                break;
            }
            view.decode_docs(pos.block, buf);
            view.decode_tfs(pos.block, buf);
        }
        let len = usize::from(h.len);
        let docs = &buf.docs[pos.idx..len];
        let take = if h.last_doc < end {
            docs.len()
        } else {
            docs.partition_point(|&d| d < end)
        };
        for (&doc, &tf) in docs[..take].iter().zip(&buf.tfs[pos.idx..]) {
            runs.docs.push(doc);
            runs.weights.push(kernel.weight(scorer, tf, doc));
        }
        pos.idx += take;
        if pos.idx < len {
            break;
        }
        pos.base += len;
        pos.block += 1;
        pos.idx = 0;
    }
    runs.docs.push(u32::MAX);
    runs.weights.push(0.0);
    pos.base + pos.idx - start
}

/// The one merge (see the module docs): walks the runs in `runs` in
/// document order. `visit(doc, sum)` is called once per distinct
/// document, ascending, where `sum` adds the document's weights in query
/// order starting from 0.0. A `visit` that returns `false` stops the walk.
fn merge_runs(runs: &mut WeighedRuns, mut visit: impl FnMut(u32, f64) -> bool) {
    let WeighedRuns {
        docs,
        weights,
        heads,
        ..
    } = runs;
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

/// Offers every `(doc, sum)` of `runs` to the heap in document order,
/// polling the deadline at each document; `false` once it expired.
fn merge_exact(runs: &mut WeighedRuns, heap: &mut TopNHeap, gate: &BoundGate) -> bool {
    let mut live = true;
    merge_runs(runs, |doc, sum| {
        live = !gate.expired();
        if live {
            heap.push(doc, sum);
        }
        live
    });
    live
}

/// The seed pass: a lower bound on the query's N-th score read from its
/// short runs alone (see the module docs), or `None` when the pass does
/// not apply — `n` is 0, the model can produce a negative weight, the
/// query has no run longer than [`SEED_RUN_MAX`], its short runs hold
/// fewer than `n` postings or fewer than `n` distinct documents. Merges
/// the runs [`weigh_short_runs`] left in `runs` into `sums`. Not
/// deadline-polled: it reads at most `m × SEED_RUN_MAX` postings.
fn seed_threshold(
    kernel: &ScoreKernel,
    blocks: &BlockPostingList,
    metas: &[TermMeta],
    n: usize,
    runs: &mut WeighedRuns,
    sums: &mut Vec<f64>,
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
    sums.clear();
    merge_runs(runs, |_, sum| {
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
        runs: &mut WeighedRuns,
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
            metas, bufs, runs, ..
        } = scratch;
        self.bounded_metas(terms, table, metas, bufs, runs)?;
        Ok(metas
            .iter()
            .map(|meta| {
                let bb = meta.block_bounds(table, &runs.bounds);
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
            metas,
            bufs,
            runs,
            sums,
            ..
        } = scratch;
        self.push_metas(terms, metas)?;
        let blocks = self.index.blocks();
        if let Some(buf) = bufs.first_mut() {
            weigh_short_runs(&self.kernel, blocks, metas, buf, runs, false);
        }
        Ok(seed_threshold(&self.kernel, blocks, metas, n, runs, sums))
    }

    /// Evaluate a query document-at-a-time, returning the top `n`: by the
    /// exact merge when every run is short, else with MaxScore pruning,
    /// bit-exact with [`DaatSearcher::search_exhaustive`] either way.
    /// Allocating convenience wrapper over [`DaatSearcher::search_into`].
    pub fn search(&self, terms: &[u32], n: usize) -> Result<ExecReport> {
        let mut scratch = QueryScratch::new();
        let report = self.search_into(terms, n, &BoundGate::none(), &mut scratch)?;
        Ok(ExecReport {
            top: std::mem::take(&mut scratch.out),
            ..report
        })
    }

    /// The pruned DAAT kernel on a caller-owned [`QueryScratch`]: the top
    /// `n` lands in `scratch.out` (best first), the report's `top` is
    /// empty, and steady-state calls perform zero heap allocations.
    ///
    /// A query with `n > 0`, at least one term and every run short is
    /// answered by the exact merge (see the module docs), which builds no
    /// bound table. Any other query runs the MaxScore + block-max windowed
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
        if self.all_short(terms)? && n > 0 && !terms.is_empty() {
            let report = self.exact_merge::<WINDOW>(terms, n, gate, scratch, true, || {})?;
            Ok(ExecReport {
                short_merged: 1,
                ..report
            })
        } else {
            self.search_windowed::<WINDOW>(terms, n, gate, scratch, || {})
        }
    }

    /// The windowed kernel alone, whatever the run lengths, for the tests
    /// of its pruning, windows, lanes and probes: [`DaatSearcher::search_into`]
    /// answers an all-short query with the exact merge.
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
            runs,
            sums,
            heap,
            phases,
            ..
        } = &mut *scratch;

        // The seed reads the metas in query order, before the sort, and
        // merges the runs the bound pass just weighed.
        self.bounded_metas(terms, bounds, metas, bufs, runs)?;
        let floor = seed_threshold(&self.kernel, blocks, metas, n, runs, sums);
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
            runs,
            heap,
            ..
        } = scratch;
        let query_bounds = &runs.bounds[..];
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

    /// Evaluate a query with the exact merge, weighing every posting: the
    /// unpruned baseline of `moabench`'s `operator.exhaustive_daat_us_p50`
    /// and E13's element-at-a-time work reference. Allocating wrapper over
    /// [`DaatSearcher::search_exhaustive_into`].
    pub fn search_exhaustive(&self, terms: &[u32], n: usize) -> Result<ExecReport> {
        let mut scratch = QueryScratch::new();
        let report = self.search_exhaustive_into(terms, n, &BoundGate::none(), &mut scratch)?;
        Ok(ExecReport {
            top: std::mem::take(&mut scratch.out),
            ..report
        })
    }

    /// The exact merge (see the module docs) on a caller-owned scratch:
    /// the top `n` lands in `scratch.out` and the report's `top` is empty.
    /// It builds no bound table and cannot prune on `gate`.
    pub fn search_exhaustive_into(
        &self,
        terms: &[u32],
        n: usize,
        gate: &BoundGate,
        scratch: &mut QueryScratch,
    ) -> Result<ExecReport> {
        let short = self.all_short(terms)?;
        self.exact_merge::<WINDOW>(terms, n, gate, scratch, short, || {})
    }

    /// Whether every run of `terms` is short: at most [`SEED_RUN_MAX`]
    /// postings in the index searched.
    fn all_short(&self, terms: &[u32]) -> Result<bool> {
        let mut short = true;
        for &t in terms {
            short &= self.index.run_len(t)? <= SEED_RUN_MAX;
        }
        Ok(short)
    }

    /// The exact merge: with `short` (every run short) one pass over the
    /// whole runs, else windows of `W` ids with `on_window` called before
    /// each window's deadline poll; either body answers any query exactly.
    /// The unit tests run narrow windows and expire deadlines from the hook.
    fn exact_merge<const W: usize>(
        &self,
        terms: &[u32],
        n: usize,
        gate: &BoundGate,
        scratch: &mut QueryScratch,
        short: bool,
        mut on_window: impl FnMut(),
    ) -> Result<ExecReport> {
        let t_gate_pass = Instant::now();
        let blocks = self.index.blocks();
        scratch.begin(terms.len(), n);
        let QueryScratch {
            metas,
            pos,
            bufs,
            cur,
            runs,
            heap,
            out,
            phases,
            ..
        } = scratch;
        // Metas stay in query order: the addition order of every exact path.
        self.push_metas(terms, metas)?;
        phases.add(Phase::GatePass, t_gate_pass.elapsed());

        // Every posting is decoded and weighed: one decode span.
        let t_decode = Instant::now();
        let mut stats = ExecReport::default();
        if gate.expired() {
            stats.partial = true;
        } else if let (true, Some(buf)) = (short, bufs.first_mut()) {
            stats.postings_scanned =
                weigh_short_runs(&self.kernel, blocks, metas, buf, runs, false);
            stats.partial = !merge_exact(runs, heap, gate);
        } else {
            for (meta, buf) in metas.iter().zip(bufs.iter_mut()) {
                let view = blocks.view(meta.term);
                let p = view.start(buf);
                cur.push(view.doc_at(&p, buf).unwrap_or(u32::MAX));
                pos.push(p);
            }
            // From the smallest cursor: the arrays hold at most m × W postings.
            while let Some(lo) = cur.iter().copied().min().filter(|&d| d != u32::MAX) {
                on_window();
                if gate.expired() {
                    stats.partial = true;
                    break;
                }
                let end = lo.saturating_add(W as u32);
                runs.clear();
                for (i, meta) in metas.iter().enumerate() {
                    if cur[i] < end {
                        let view = blocks.view(meta.term);
                        runs.heads.push(runs.docs.len());
                        let (p, buf) = (&mut pos[i], &mut bufs[i]);
                        stats.postings_scanned +=
                            weigh_window(&self.kernel, &meta.scorer, &view, p, buf, end, runs);
                        cur[i] = view.doc_at(p, buf).unwrap_or(u32::MAX);
                    }
                }
                if !merge_exact(runs, heap, gate) {
                    stats.partial = true;
                    break;
                }
            }
        }
        phases.add(Phase::Decode, t_decode.elapsed());

        let t_merge = Instant::now();
        gate.publish(heap);
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
    /// answer its queries with the exact merge.
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

    fn bits(top: &[(u32, f64)]) -> Vec<(u32, u64)> {
        top.iter()
            .map(|&(doc, score)| (doc, score.to_bits()))
            .collect()
    }

    /// Run the exact merge at the narrow width, windows forced, counting
    /// the windows.
    fn narrow_exact(
        daat: &DaatSearcher<'_>,
        terms: &[u32],
        n: usize,
        gate: &BoundGate,
        scratch: &mut QueryScratch,
    ) -> (ExecReport, usize) {
        let mut windows = 0usize;
        let stats = daat
            .exact_merge::<NARROW>(terms, n, gate, scratch, false, || windows += 1)
            .unwrap();
        (stats, windows)
    }

    #[test]
    fn narrow_exact_merge_windows_match_set_at_a_time() {
        let (idx, queries) = multi_window_fixture();
        let mut max_windows = 0usize;
        for model in models() {
            let daat = DaatSearcher::new(&idx, model);
            let mut saat = Searcher::new(&idx, model);
            let mut scratch = QueryScratch::new();
            for terms in &queries {
                let volume: usize = terms.iter().map(|&t| idx.df(t).unwrap() as usize).sum();
                let matched = saat.search(terms, idx.num_docs()).unwrap().top.len();
                for n in [1usize, 10, 100, 1000] {
                    let (stats, windows) =
                        narrow_exact(&daat, terms, n, &BoundGate::none(), &mut scratch);
                    max_windows = max_windows.max(windows);
                    let ctx = format!("{model:?} {terms:?} n={n}");
                    assert_eq!(scratch.out, saat.search(terms, n).unwrap().top, "{ctx}");
                    assert_eq!(stats.postings_scanned, volume, "{ctx}");
                    assert_eq!(stats.docs_skipped + stats.seeks + stats.bound_exits, 0);
                    assert_eq!(stats.candidates, matched, "{ctx}");
                    assert!(!stats.partial);
                }
            }
        }
        assert!(
            max_windows >= 10,
            "fixture crossed at most {max_windows} windows"
        );
    }

    #[test]
    fn deadline_at_every_window_of_the_exact_merge_yields_exact_partials() {
        let (idx, queries) = multi_window_fixture();
        for model in models() {
            let daat = DaatSearcher::new(&idx, model);
            let mut saat = Searcher::new(&idx, model);
            let mut scratch = QueryScratch::new();
            for terms in queries.iter().take(4) {
                // Every matched document with its exact score, ascending
                // by id.
                let mut exact = saat.search(terms, idx.num_docs()).unwrap().top;
                exact.sort_unstable_by_key(|&(doc, _)| doc);
                for n in [10usize, 100] {
                    let (_, windows) =
                        narrow_exact(&daat, terms, n, &BoundGate::none(), &mut scratch);
                    for k in 1..=windows {
                        let deadline = Arc::new(DeadlineGate::after(Duration::from_secs(3600)));
                        let gate = BoundGate::none().with_deadline(Arc::clone(&deadline));
                        let mut seen = 0usize;
                        let stats = daat
                            .exact_merge::<NARROW>(terms, n, &gate, &mut scratch, false, || {
                                seen += 1;
                                if seen == k {
                                    deadline.force_expire();
                                }
                            })
                            .unwrap();
                        let ctx = format!("{model:?} {terms:?} n={n} expired at window {k}");
                        assert!(stats.partial, "{ctx}");
                        assert_eq!(seen, k, "{ctx}: no window after the expired poll");
                        // The heap saw exactly the first `candidates`
                        // documents: its top is theirs, bit for bit.
                        let mut prefix = exact[..stats.candidates].to_vec();
                        prefix.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
                        prefix.truncate(n);
                        assert_eq!(bits(&scratch.out), bits(&prefix), "{ctx}");
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
