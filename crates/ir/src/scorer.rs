//! Precomputed term scorers: the shared scoring kernel of all three
//! engine paths.
//!
//! [`RankingModel::term_weight`] re-derives per-term constants (idf, the
//! Hiemstra λ·|C|/((1−λ)·cf) factor, BM25 norm pieces) and the
//! per-document length normalization on *every posting*. That is fine for
//! a reference implementation, but it is exactly the per-element overhead
//! the paper's bounds-based program wants out of the hot loop. This module
//! splits the computation by variability:
//!
//! * [`TermScorer`] — per *query term* constants, computed once per query,
//! * [`ScoreKernel`] — per *index + model* state: a cached per-document
//!   length-norm table, computed once per searcher,
//!
//! so the per-posting work collapses to a multiply-add (plus one `ln`
//! where the model's formula demands it).
//!
//! **Bit-exactness contract:** [`RankingModel::term_weight`] *delegates*
//! to this module, so the naive paths and the precomputed hot paths
//! execute the identical floating-point operations and produce identical
//! `f64` results — the differential oracle can require exact equality
//! instead of tolerances. A proptest in `crates/ir/tests/proptest_scorer.rs`
//! pins this down.

use crate::blocks::{CursorBuf, TermView, BLOCK_LEN, MINIS_PER_BLOCK, MINI_LEN};
use crate::index::{CollectionStats, InvertedIndex};
use crate::ranking::RankingModel;

/// Per-query-term precomputed scoring constants for one ranking model.
///
/// Construct via [`ScoreKernel::term_scorer`] (hot path, shares the
/// kernel's statistics) or [`TermScorer::new`] (standalone). The weight of
/// a posting is [`TermScorer::weight`] given the document's norm from the
/// model's [`RankingModel::doc_norm`] — precomputed per document by
/// [`ScoreKernel`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TermScorer {
    /// Degenerate term (df = 0): every weight is 0.
    Zero,
    /// TF-IDF: weight = `(1 + ln tf) · idf · norm`, norm = `1/√dl`.
    TfIdf {
        /// Precomputed `ln(N / df)`.
        idf: f64,
    },
    /// Hiemstra LM: weight = `ln(1 + factor · tf · norm)`, norm = `1/dl`.
    Hiemstra {
        /// Precomputed `λ·|C| / ((1−λ)·cf)`.
        factor: f64,
    },
    /// BM25: weight = `idf · tf·(k1+1) / (tf + norm)`,
    /// norm = `k1·(1 − b + b·dl/avgdl)`.
    Bm25 {
        /// Precomputed Robertson/Sparck-Jones idf.
        idf: f64,
        /// Precomputed `k1 + 1`.
        k1_plus_1: f64,
    },
}

impl TermScorer {
    /// Precompute the per-term constants of `model` for a term with the
    /// given document and collection frequencies.
    pub fn new(model: RankingModel, df: u32, cf: u64, stats: &CollectionStats) -> TermScorer {
        if df == 0 {
            return TermScorer::Zero;
        }
        let df = f64::from(df);
        let n = stats.num_docs as f64;
        match model {
            RankingModel::TfIdf => TermScorer::TfIdf { idf: (n / df).ln() },
            RankingModel::HiemstraLm { lambda } => {
                let lambda = lambda.clamp(1e-6, 1.0 - 1e-6);
                let cf = cf.max(1) as f64;
                let c = stats.total_tokens.max(1) as f64;
                TermScorer::Hiemstra {
                    factor: (lambda * c) / ((1.0 - lambda) * cf),
                }
            }
            RankingModel::Bm25 { k1, .. } => TermScorer::Bm25 {
                idf: ((n - df + 0.5) / (df + 0.5) + 1.0).ln(),
                k1_plus_1: k1 + 1.0,
            },
        }
    }

    /// The score contribution of a posting with term frequency `tf` in a
    /// document whose precomputed norm (see [`RankingModel::doc_norm`]) is
    /// `norm`. A multiply-add, plus one `ln` for TF-IDF and Hiemstra.
    #[inline]
    pub fn weight(&self, tf: u32, norm: f64) -> f64 {
        if tf == 0 {
            return 0.0;
        }
        let tf = f64::from(tf);
        match *self {
            TermScorer::Zero => 0.0,
            TermScorer::TfIdf { idf } => (1.0 + tf.ln()) * idf * norm,
            TermScorer::Hiemstra { factor } => (1.0 + factor * tf * norm).ln(),
            TermScorer::Bm25 { idf, k1_plus_1 } => idf * (tf * k1_plus_1) / (tf + norm),
        }
    }
}

/// Per-index, per-model scoring state: the cached per-document length-norm
/// table plus the collection statistics and the dl = 1 norm that upper
/// bounds sit on. Cheap to build — O(num_docs).
///
/// Build once per searcher ([`crate::eval::Searcher`],
/// [`crate::daat::DaatSearcher`], [`crate::fragment::FragSearcher`] all
/// own one); queries then pay only [`ScoreKernel::term_scorer`] per term
/// and [`ScoreKernel::weight`] per posting. The heavier per-term bound
/// tables live in [`ScoreBounds`], built only by the evaluators that
/// prune on them.
#[derive(Debug, Clone)]
pub struct ScoreKernel {
    model: RankingModel,
    stats: CollectionStats,
    /// `norms[doc]` = `model.doc_norm(doc_len(doc), stats)`.
    norms: Vec<f64>,
    /// The norm of the shortest plausible document (dl = 1) — every
    /// model's weight is maximized there, so analytic upper bounds
    /// (`max_tf` at dl = 1, the safety check's estimate) use it.
    norm_dl1: f64,
}

/// One block's skip-decision record: the block's last document id, the
/// exact maximum score contribution of any posting inside it, and eight
/// 4-bit quantized maxima — one per [`MINI_LEN`]-entry **mini-block** —
/// packed into four bytes that ride in the struct's former padding. The
/// record stays exactly 16 bytes, so a block decision still touches one
/// cache line of one contiguous array, and a *passed* block gate can be
/// refined against the candidate's mini-block without any further load.
///
/// Quantization is conservative round-up on the scale `max_score / 15`:
/// nibble `q` dequantizes to `max_score · q / 15`, and the builder bumps
/// `q` until the dequantized value covers the mini-block's exact maximum
/// (at `q = 15` it equals `max_score`, which covers by construction), so
/// `mini_bound(i) ≥` the exact maximum of mini-block `i ∕ 16`
/// **unconditionally** — refinement can only prune documents that provably
/// cannot enter the heap, never change a result.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BlockBound {
    /// Last document id of the block (the horizon this bound covers).
    pub last_doc: u32,
    /// Packed 4-bit mini-block score maxima: nibble `m` (low nibble of
    /// byte `m / 2` for even `m`) covers postings `m·16 .. (m+1)·16` of
    /// the block. Quantized round-up against `max_score`.
    pub minis: [u8; 4],
    /// Exact maximum contribution of any posting in the block.
    pub max_score: f64,
}

/// `QUANT_STEP[q] = q / 15.0`, rounded once at compile time. A lookup
/// keeps the per-candidate dequantization a single multiply — a variable
/// `q / 15.0` at query time would be an fdiv in the gate's hot loop that
/// the compiler cannot strength-reduce.
const QUANT_STEP: [f64; 16] = {
    let mut t = [0.0f64; 16];
    let mut q = 0;
    while q < 16 {
        t[q] = q as f64 / 15.0;
        q += 1;
    }
    t
};

/// Dequantize a mini-block nibble against its block maximum. The one
/// floating-point expression both the builder's soundness guard and the
/// query-time refinement use, so the guard proves exactly the bound the
/// gates consult.
#[inline]
fn dequant(max_score: f64, nibble: u8) -> f64 {
    max_score * QUANT_STEP[usize::from(nibble) & 0xF]
}

/// Conservative round-up quantization of one mini-block maximum: the
/// smallest nibble whose dequantized value covers `mini_max`. The final
/// `while` absorbs any floating-point rounding in the ceil path — at
/// `q = 15` the dequantized bound is exactly `block_max`, which covers
/// every mini-block by construction.
fn quantize_mini(mini_max: f64, block_max: f64) -> u8 {
    if mini_max <= 0.0 {
        return 0;
    }
    let mut q = (((mini_max / block_max) * 15.0).ceil() as u8).min(15);
    while dequant(block_max, q) < mini_max {
        q += 1;
    }
    q
}

impl BlockBound {
    /// Upper bound on the contribution of the posting at offset
    /// `idx_in_block` (0..[`BLOCK_LEN`]) within this block: the
    /// dequantized 4-bit maximum of the posting's 16-entry mini-block.
    /// Always `≤ max_score` and always `≥` the exact maximum weight of
    /// any posting in that mini-block.
    #[inline]
    pub fn mini_bound(&self, idx_in_block: usize) -> f64 {
        let m = idx_in_block / MINI_LEN;
        let nibble = (self.minis[m >> 1] >> ((m & 1) * 4)) & 0xF;
        dequant(self.max_score, nibble)
    }
}

// The skip record must stay one 16-byte load: the nibbles ride in what
// was previously alignment padding.
const _: () = assert!(std::mem::size_of::<BlockBound>() == 16);

/// The longest run, in postings of the index it lives in, that counts as
/// *short*. A short run is weighed whole per query — by the short-run
/// merge (see the `daat` module docs), and for its bounds — so the bound
/// table [`ScoreBounds`] holds only the runs longer than this.
pub(crate) const SEED_RUN_MAX: usize = 512;

/// The one weighing loop: decode block `b` of `view` into `buf` and call
/// `visit(doc, weight)` for each of its postings, in block order. Every
/// path that reads a whole run's weights — the bound table, the per-query
/// short-run bounds and the exact merge of all-short runs — weighs
/// through it.
#[inline]
pub(crate) fn weigh_block(
    kernel: &ScoreKernel,
    scorer: &TermScorer,
    view: &TermView<'_>,
    b: usize,
    buf: &mut CursorBuf,
    mut visit: impl FnMut(u32, f64),
) {
    view.decode_docs(b, buf);
    view.decode_tfs(b, buf);
    let len = usize::from(view.headers()[b].len);
    for (&doc, &tf) in buf.docs[..len].iter().zip(&buf.tfs[..len]) {
        visit(doc, kernel.weight(scorer, tf, doc));
    }
}

/// The one bound builder: the [`BlockBound`] of a block whose last
/// document is `last_doc` and whose postings weigh `weights`, in block
/// order — the exact block maximum and the eight round-up mini-block
/// nibbles. The bound table and the per-query short-run bounds both call
/// it, so a term's bounds are the same bits whichever path built them.
pub(crate) fn block_bound(last_doc: u32, weights: &[f64]) -> BlockBound {
    let mut bmax = 0.0f64;
    let mut mini_max = [0.0f64; MINIS_PER_BLOCK];
    for (i, &w) in weights.iter().enumerate() {
        bmax = bmax.max(w);
        let m = i / MINI_LEN;
        mini_max[m] = mini_max[m].max(w);
    }
    let mut minis = [0u8; 4];
    for (m, &mm) in mini_max.iter().enumerate() {
        minis[m >> 1] |= quantize_mini(mm, bmax) << ((m & 1) * 4);
    }
    BlockBound {
        last_doc,
        minis,
        max_score: bmax,
    }
}

/// Bound one whole run: push one [`BlockBound`] per storage block of
/// `view` to `out` and return the run's exact maximum weight (0.0 for an
/// empty run). `weights` is scratch, reused block by block.
fn bound_run(
    kernel: &ScoreKernel,
    scorer: &TermScorer,
    view: &TermView<'_>,
    buf: &mut CursorBuf,
    weights: &mut Vec<f64>,
    out: &mut Vec<BlockBound>,
) -> f64 {
    let mut tmax = 0.0f64;
    for (b, header) in view.headers().iter().enumerate() {
        weights.clear();
        weigh_block(kernel, scorer, view, b, buf, |_, w| weights.push(w));
        let bb = block_bound(header.last_doc, weights);
        tmax = tmax.max(bb.max_score);
        out.push(bb);
    }
    tmax
}

/// One long run's entry in [`ScoreBounds`]: its exact maximum weight and
/// its range of the table's block bounds.
#[derive(Debug, Clone, Copy)]
struct LongRun {
    term: u32,
    /// First of the run's [`BlockBound`]s in [`ScoreBounds`]' array.
    start: u32,
    /// Number of block bounds (= storage blocks of the run).
    len: u32,
    /// The exact maximum contribution of any posting of the run.
    max_weight: f64,
}

/// Score upper bounds of the **long** runs of one `(index, model)` pair —
/// the runs of more than 512 postings (`SEED_RUN_MAX`) in the index the table
/// is built for: per run its exact maximum contribution, plus per-block
/// maxima **colocated with the storage geometry** — one [`BlockBound`] per
/// [`crate::blocks::BLOCK_LEN`]-posting storage block, in the same order
/// as the block headers, so a failing bound always clears a whole storage
/// block and the gate's data is one load away.
///
/// A short run has no entry: the pruned DAAT kernel and the fragmented
/// bound pass build a short term's bounds per query, with the same
/// builder, from the weights they read anyway. So building the table
/// weighs the long runs' postings only, and it holds one 24-byte record
/// per long run and one 16-byte [`BlockBound`] per long-run block, both
/// sized exactly before the pass.
#[derive(Debug, Clone)]
pub struct ScoreBounds {
    /// One record per long run, ascending by term id.
    runs: Vec<LongRun>,
    /// The long runs' block bounds, run after run.
    blocks: Vec<BlockBound>,
}

impl ScoreBounds {
    /// Postings per block-max block — the storage block length: bounds are
    /// colocated with the physical blocks.
    pub const BLOCK_POSTINGS: usize = BLOCK_LEN;

    /// Build the bound table for `kernel` over `index`: one streaming
    /// scoring pass over the postings of every run longer than
    /// 512 postings, block by block.
    pub fn new(kernel: &ScoreKernel, index: &InvertedIndex) -> ScoreBounds {
        let store = index.blocks();
        let terms = 0..index.vocab_size() as u32;
        let long = |t: &u32| store.run_len(*t) > SEED_RUN_MAX;
        // The block headers give the exact sizes, so neither array grows.
        let (mut runs, mut blocks) = (0usize, 0usize);
        for t in terms.clone().filter(long) {
            runs += 1;
            blocks += store.view(t).num_blocks();
        }
        let mut bounds = ScoreBounds {
            runs: Vec::with_capacity(runs),
            blocks: Vec::with_capacity(blocks),
        };
        let mut buf = CursorBuf::new();
        let mut weights = Vec::with_capacity(BLOCK_LEN);
        for t in terms.filter(long) {
            let scorer = kernel.term_scorer(
                index.df(t).expect("term id in range"),
                index.cf(t).expect("term id in range"),
            );
            let start = bounds.blocks.len();
            let view = store.view(t);
            let max_weight = bound_run(
                kernel,
                &scorer,
                &view,
                &mut buf,
                &mut weights,
                &mut bounds.blocks,
            );
            bounds.runs.push(LongRun {
                term: t,
                start: start as u32,
                len: (bounds.blocks.len() - start) as u32,
                max_weight,
            });
        }
        bounds
    }

    /// A long run's bounds: the exact maximum contribution any posting of
    /// `term` makes under the kernel's model — the per-term bound MaxScore
    /// pruning runs on — and its block bounds, aligned with its storage
    /// blocks (entry `b` covers postings `b * BLOCK_POSTINGS ..`). `None`
    /// for a short run, an unobserved term or an out-of-range id: a short
    /// term's bounds are built per query, never read as 0.0 from here.
    pub fn term(&self, term: u32) -> Option<(f64, &[BlockBound])> {
        let (max_weight, start, len) = self.term_range(term)?;
        Some((max_weight, self.slice(start, len)))
    }

    /// The number of long runs the table bounds.
    pub fn long_runs(&self) -> usize {
        self.runs.len()
    }

    /// Heap bytes the table holds. Exposed for the memory tests only.
    #[doc(hidden)]
    pub fn heap_bytes(&self) -> usize {
        self.runs.capacity() * std::mem::size_of::<LongRun>()
            + self.blocks.capacity() * std::mem::size_of::<BlockBound>()
    }

    /// A long run's `(max weight, start, len)` within the flat bound array
    /// — cached per query term so the hot gates index with
    /// [`ScoreBounds::slice`] instead of searching again.
    #[inline]
    pub(crate) fn term_range(&self, term: u32) -> Option<(f64, u32, u32)> {
        let r = &self.runs[self.runs.binary_search_by_key(&term, |r| r.term).ok()?];
        Some((r.max_weight, r.start, r.len))
    }

    /// A cached range of the flat bound array.
    #[inline]
    pub(crate) fn slice(&self, start: u32, len: u32) -> &[BlockBound] {
        &self.blocks[start as usize..(start + len) as usize]
    }
}

impl ScoreKernel {
    /// Build the kernel for `model` over `index`, materializing the
    /// per-document norm table.
    pub fn new(model: RankingModel, index: &InvertedIndex) -> ScoreKernel {
        let stats = index.stats();
        let norms: Vec<f64> = index
            .doc_lens()
            .iter()
            .map(|&dl| model.doc_norm(dl, &stats))
            .collect();
        ScoreKernel {
            model,
            stats,
            norms,
            norm_dl1: model.doc_norm(1, &stats),
        }
    }

    /// The ranking model this kernel scores with.
    pub fn model(&self) -> RankingModel {
        self.model
    }

    /// The collection statistics the kernel was built from.
    pub fn stats(&self) -> CollectionStats {
        self.stats
    }

    /// Precompute the scorer of one query term.
    pub fn term_scorer(&self, df: u32, cf: u64) -> TermScorer {
        TermScorer::new(self.model, df, cf, &self.stats)
    }

    /// The cached length norm of a document.
    #[inline]
    pub fn norm(&self, doc: u32) -> f64 {
        self.norms[doc as usize]
    }

    /// Score one posting: `scorer`'s weight for `tf` occurrences in `doc`.
    #[inline]
    pub fn weight(&self, scorer: &TermScorer, tf: u32, doc: u32) -> f64 {
        scorer.weight(tf, self.norms[doc as usize])
    }

    /// An upper bound on the contribution any posting of this term can
    /// make, given the term's maximum within-document tf. Identical
    /// floating-point path to [`RankingModel::max_term_weight`].
    pub fn max_weight(&self, scorer: &TermScorer, max_tf: u32) -> f64 {
        scorer.weight(max_tf, self.norm_dl1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_corpus::{Collection, CollectionConfig};

    fn stats() -> CollectionStats {
        CollectionStats {
            num_docs: 1_000,
            avg_doc_len: 100.0,
            total_tokens: 100_000,
        }
    }

    fn models() -> Vec<RankingModel> {
        vec![
            RankingModel::TfIdf,
            RankingModel::HiemstraLm { lambda: 0.15 },
            RankingModel::Bm25 { k1: 1.2, b: 0.75 },
        ]
    }

    #[test]
    fn scorer_is_bit_exact_with_term_weight() {
        let s = stats();
        for m in models() {
            for (tf, df, cf, dl) in [
                (1u32, 1u32, 1u64, 1u32),
                (3, 10, 50, 100),
                (100, 999, 99_999, 10_000),
                (0, 10, 50, 100),
                (5, 0, 0, 100),
            ] {
                let scorer = TermScorer::new(m, df, cf, &s);
                let got = scorer.weight(tf, m.doc_norm(dl, &s));
                let want = m.term_weight(tf, df, cf, dl, &s);
                assert_eq!(got.to_bits(), want.to_bits(), "{m:?} ({tf},{df},{cf},{dl})");
            }
        }
    }

    #[test]
    fn kernel_norm_table_matches_doc_norm() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        for m in models() {
            let kernel = ScoreKernel::new(m, &idx);
            let s = idx.stats();
            for doc in 0..idx.num_docs() as u32 {
                assert_eq!(
                    kernel.norm(doc).to_bits(),
                    m.doc_norm(idx.doc_len(doc), &s).to_bits()
                );
            }
        }
    }

    #[test]
    fn kernel_weight_matches_term_weight_on_real_postings() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        let s = idx.stats();
        for m in models() {
            let kernel = ScoreKernel::new(m, &idx);
            for term in idx.terms_by_df_asc().iter().take(50) {
                let df = idx.df(*term).unwrap();
                let cf = idx.cf(*term).unwrap();
                let scorer = kernel.term_scorer(df, cf);
                let (docs, tfs) = idx.decode_postings(*term).unwrap();
                for (i, &doc) in docs.iter().enumerate() {
                    let got = kernel.weight(&scorer, tfs[i], doc);
                    let want = m.term_weight(tfs[i], df, cf, idx.doc_len(doc), &s);
                    assert_eq!(got.to_bits(), want.to_bits(), "{m:?} term {term} doc {doc}");
                }
            }
        }
    }

    #[test]
    fn max_weight_bounds_every_posting() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        for m in models() {
            let kernel = ScoreKernel::new(m, &idx);
            for term in idx.terms_by_df_asc() {
                let scorer = kernel.term_scorer(idx.df(term).unwrap(), idx.cf(term).unwrap());
                let bound = kernel.max_weight(&scorer, idx.max_tf(term).unwrap());
                let (docs, tfs) = idx.decode_postings(term).unwrap();
                for (i, &doc) in docs.iter().enumerate() {
                    let w = kernel.weight(&scorer, tfs[i], doc);
                    assert!(w <= bound, "{m:?} term {term}: {w} > {bound}");
                }
            }
        }
    }

    /// A term's bounds as the one builder makes them, for the table and
    /// for a query alike: its exact maximum weight and one block bound per
    /// storage block.
    fn run_bounds(kernel: &ScoreKernel, idx: &InvertedIndex, term: u32) -> (f64, Vec<BlockBound>) {
        let scorer = kernel.term_scorer(idx.df(term).unwrap(), idx.cf(term).unwrap());
        let mut out = Vec::new();
        let max = bound_run(
            kernel,
            &scorer,
            &idx.blocks().view(term),
            &mut CursorBuf::new(),
            &mut Vec::new(),
            &mut out,
        );
        (max, out)
    }

    /// A collection whose frequent terms have runs longer than
    /// [`SEED_RUN_MAX`], beside many short ones.
    fn mixed_runs() -> InvertedIndex {
        let c = Collection::generate(CollectionConfig::small()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        let long = (0..idx.vocab_size() as u32).filter(|&t| idx.run_len(t).unwrap() > SEED_RUN_MAX);
        assert!(long.count() >= 4, "the small preset has long runs");
        idx
    }

    #[test]
    fn term_max_weight_is_tight_and_bounded_by_analytic_max() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        for m in models() {
            let kernel = ScoreKernel::new(m, &idx);
            for term in idx.terms_by_df_asc() {
                let scorer = kernel.term_scorer(idx.df(term).unwrap(), idx.cf(term).unwrap());
                let (docs, tfs) = idx.decode_postings(term).unwrap();
                let observed = docs
                    .iter()
                    .enumerate()
                    .map(|(i, &doc)| kernel.weight(&scorer, tfs[i], doc))
                    .fold(0.0f64, f64::max);
                let (max, _) = run_bounds(&kernel, &idx, term);
                // Tight: the bound is exactly the observed maximum...
                assert_eq!(max.to_bits(), observed.to_bits());
                // ...and never looser than the max_tf @ dl=1 analytic bound.
                let analytic = kernel.max_weight(&scorer, idx.max_tf(term).unwrap());
                assert!(max <= analytic);
            }
        }
        // Every run of the tiny preset is short, so the table holds none of
        // them: a short term's bound is never read from it as 0.0.
        let kernel = ScoreKernel::new(RankingModel::default(), &idx);
        let bounds = ScoreBounds::new(&kernel, &idx);
        assert_eq!(bounds.long_runs(), 0);
        for term in idx.terms_by_df_asc() {
            assert!(bounds.term(term).is_none(), "short term {term}");
        }
        assert!(bounds.term(u32::MAX).is_none());
    }

    #[test]
    fn the_table_holds_exactly_the_long_runs_as_the_builder_bounds_them() {
        let idx = mixed_runs();
        for m in models() {
            let kernel = ScoreKernel::new(m, &idx);
            let bounds = ScoreBounds::new(&kernel, &idx);
            let mut long = 0usize;
            let mut blocks = 0usize;
            for term in 0..idx.vocab_size() as u32 {
                let len = idx.run_len(term).unwrap();
                let Some((max, bb)) = bounds.term(term) else {
                    assert!(len <= SEED_RUN_MAX, "{m:?}: long term {term} missing");
                    continue;
                };
                assert!(len > SEED_RUN_MAX, "{m:?}: short term {term} in the table");
                let (want_max, want) = run_bounds(&kernel, &idx, term);
                assert_eq!(max.to_bits(), want_max.to_bits(), "{m:?} term {term}");
                assert_eq!(bb, &want[..], "{m:?} term {term}");
                long += 1;
                blocks += bb.len();
            }
            assert_eq!(bounds.long_runs(), long);
            // Sized exactly: no growth slack.
            assert_eq!(
                bounds.heap_bytes(),
                long * std::mem::size_of::<LongRun>() + blocks * std::mem::size_of::<BlockBound>()
            );
        }
    }

    #[test]
    fn block_bounds_align_with_storage_blocks_and_cover_them() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let tiny = InvertedIndex::from_collection(&c);
        for idx in [tiny, mixed_runs()] {
            for m in models() {
                let kernel = ScoreKernel::new(m, &idx);
                for term in idx.terms_by_df_asc() {
                    let scorer = kernel.term_scorer(idx.df(term).unwrap(), idx.cf(term).unwrap());
                    let (docs, tfs) = idx.decode_postings(term).unwrap();
                    let (max, bb) = run_bounds(&kernel, &idx, term);
                    let headers = idx.blocks().view(term).headers();
                    assert_eq!(bb.len(), docs.len().div_ceil(ScoreBounds::BLOCK_POSTINGS));
                    assert_eq!(bb.len(), headers.len());
                    for (b, chunk) in docs.chunks(ScoreBounds::BLOCK_POSTINGS).enumerate() {
                        // Colocated geometry: the bound's horizon is the
                        // storage block's last document.
                        assert_eq!(bb[b].last_doc, *chunk.last().unwrap());
                        assert_eq!(bb[b].last_doc, headers[b].last_doc);
                        for (i, &doc) in chunk.iter().enumerate() {
                            let w = kernel.weight(
                                &scorer,
                                tfs[b * ScoreBounds::BLOCK_POSTINGS + i],
                                doc,
                            );
                            assert!(w <= bb[b].max_score, "{m:?} term {term} block {b}");
                        }
                        // Every block bound is itself bounded by the term max.
                        assert!(bb[b].max_score <= max);
                    }
                }
            }
        }
    }

    #[test]
    fn mini_block_bounds_cover_postings_and_stay_within_block_max() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let tiny = InvertedIndex::from_collection(&c);
        for idx in [tiny, mixed_runs()] {
            for m in models() {
                let kernel = ScoreKernel::new(m, &idx);
                for term in idx.terms_by_df_asc() {
                    let scorer = kernel.term_scorer(idx.df(term).unwrap(), idx.cf(term).unwrap());
                    let (docs, tfs) = idx.decode_postings(term).unwrap();
                    let (_, bb) = run_bounds(&kernel, &idx, term);
                    for (b, chunk) in docs.chunks(ScoreBounds::BLOCK_POSTINGS).enumerate() {
                        for (i, &doc) in chunk.iter().enumerate() {
                            let w = kernel.weight(
                                &scorer,
                                tfs[b * ScoreBounds::BLOCK_POSTINGS + i],
                                doc,
                            );
                            let mini = bb[b].mini_bound(i);
                            assert!(
                                w <= mini,
                                "{m:?} term {term} block {b} idx {i}: {w} > mini {mini}"
                            );
                            assert!(mini <= bb[b].max_score);
                        }
                    }
                    // Empty mini-blocks of a partial final block bound to 0.
                    if let Some(last) = bb.last() {
                        let tail = docs.len() - (bb.len() - 1) * ScoreBounds::BLOCK_POSTINGS;
                        let first_empty_mini = tail.div_ceil(MINI_LEN);
                        if first_empty_mini < MINIS_PER_BLOCK {
                            assert_eq!(last.mini_bound(first_empty_mini * MINI_LEN), 0.0);
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn quantization_rounds_up_and_is_tight_at_the_top() {
        // The block's own maximum always quantizes to 15 (dequantizes to
        // exactly max_score); a zero mini quantizes to 0.
        assert_eq!(quantize_mini(0.0, 3.7), 0);
        assert_eq!(quantize_mini(3.7, 3.7), 15);
        // Round-up: every dequantized bound covers the input.
        for frac in [1e-9, 0.001, 0.1, 1.0 / 3.0, 0.5, 0.9, 0.999_999] {
            for max in [1e-6, 1.0, std::f64::consts::PI, 1e12] {
                let mini = frac * max;
                let q = quantize_mini(mini, max);
                assert!(
                    dequant(max, q) >= mini,
                    "q={q} dequant {} < mini {mini}",
                    dequant(max, q)
                );
                if q > 0 {
                    // Minimal: the next smaller nibble would not cover.
                    assert!(
                        dequant(max, q - 1) < mini,
                        "q={q} not minimal for {mini}/{max}"
                    );
                }
            }
        }
    }

    #[test]
    fn zero_scorer_for_dead_terms() {
        let s = stats();
        for m in models() {
            let scorer = TermScorer::new(m, 0, 0, &s);
            assert_eq!(scorer, TermScorer::Zero);
            assert_eq!(scorer.weight(5, 1.0), 0.0);
        }
    }
}
