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

use crate::blocks::{CursorBuf, BLOCK_LEN, MINIS_PER_BLOCK, MINI_LEN};
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

/// Per-term score upper bounds for one `(index, model)` pair: exact
/// per-term contribution maxima plus per-block maxima **colocated with
/// the storage geometry** — one [`BlockBound`] per
/// [`crate::blocks::BLOCK_LEN`]-posting storage block, in the same order
/// as the block headers. The earlier two-level (8/64-posting) block-max
/// side tables are folded into this single array: the skip machinery now
/// reasons at exactly the granularity the payload is packed at, so a
/// failing bound always clears a whole storage block (no partially
/// decoded blocks), and the gate's data is one load away.
///
/// Building the tables costs one scoring pass over every posting, so only
/// evaluators that prune on bounds construct them
/// ([`crate::daat::DaatSearcher`], [`crate::fragment::FragSearcher`]);
/// the plain accumulating searchers get by with the cheap [`ScoreKernel`].
#[derive(Debug, Clone)]
pub struct ScoreBounds {
    /// `term_max[t]` = the exact maximum contribution any posting of term
    /// `t` makes — far tighter than the `max_tf`-at-dl-1 analytic bound
    /// while remaining sound: it is a *reachable* maximum of the very
    /// same floating-point evaluation the hot loop performs.
    term_max: Vec<f64>,
    /// All terms' block bounds, term-major, aligned with the storage
    /// blocks of [`InvertedIndex::blocks`].
    blocks: Vec<BlockBound>,
    /// `offsets[t]..offsets[t + 1]` is term `t`'s bound range.
    offsets: Vec<usize>,
}

impl ScoreBounds {
    /// Postings per block-max block — the storage block length: bounds are
    /// colocated with the physical blocks.
    pub const BLOCK_POSTINGS: usize = BLOCK_LEN;

    /// Build the bound tables for `kernel` over `index`: one streaming
    /// scoring pass over every posting, block by block.
    pub fn new(kernel: &ScoreKernel, index: &InvertedIndex) -> ScoreBounds {
        let store = index.blocks();
        let vocab = index.vocab_size();
        let mut bounds = ScoreBounds {
            term_max: Vec::with_capacity(vocab),
            blocks: Vec::new(),
            offsets: Vec::with_capacity(vocab + 1),
        };
        bounds.offsets.push(0);
        let mut buf = CursorBuf::new();
        for t in 0..vocab as u32 {
            let view = store.view(t);
            let mut tmax = 0.0f64;
            if !view.is_empty() {
                let scorer = TermScorer::new(
                    kernel.model,
                    index.df(t).expect("term id in range"),
                    index.cf(t).expect("term id in range"),
                    &kernel.stats,
                );
                for (b, header) in view.headers().iter().enumerate() {
                    view.decode_docs(b, &mut buf);
                    view.decode_tfs(b, &mut buf);
                    let mut bmax = 0.0f64;
                    let mut mini_max = [0.0f64; MINIS_PER_BLOCK];
                    for i in 0..usize::from(header.len) {
                        let w = scorer.weight(buf.tfs[i], kernel.norms[buf.docs[i] as usize]);
                        bmax = bmax.max(w);
                        let m = i / MINI_LEN;
                        mini_max[m] = mini_max[m].max(w);
                    }
                    let mut minis = [0u8; 4];
                    for (m, &mm) in mini_max.iter().enumerate() {
                        minis[m >> 1] |= quantize_mini(mm, bmax) << ((m & 1) * 4);
                    }
                    bounds.blocks.push(BlockBound {
                        last_doc: header.last_doc,
                        minis,
                        max_score: bmax,
                    });
                    tmax = tmax.max(bmax);
                }
            }
            bounds.term_max.push(tmax);
            bounds.offsets.push(bounds.blocks.len());
        }
        bounds
    }

    /// The exact maximum contribution any posting of `term` makes under
    /// the kernel's model — the per-term upper bound MaxScore pruning
    /// runs on. 0.0 for unobserved or out-of-range terms.
    #[inline]
    pub fn term_max_weight(&self, term: u32) -> f64 {
        self.term_max.get(term as usize).copied().unwrap_or(0.0)
    }

    /// The block bounds of a term, aligned with its storage blocks: entry
    /// `b` covers postings `b * BLOCK_POSTINGS ..` of the term's run.
    /// Empty for unobserved or out-of-range terms.
    #[inline]
    pub fn term_blocks(&self, term: u32) -> &[BlockBound] {
        let t = term as usize;
        if t + 1 >= self.offsets.len() {
            return &[];
        }
        &self.blocks[self.offsets[t]..self.offsets[t + 1]]
    }

    /// A term's `(start, len)` range within the flat bound array — cached
    /// per query term so the hot gates index with [`ScoreBounds::slice`]
    /// instead of re-resolving the offsets.
    #[inline]
    pub(crate) fn term_range(&self, term: u32) -> (u32, u32) {
        let t = term as usize;
        if t + 1 >= self.offsets.len() {
            return (0, 0);
        }
        let s = self.offsets[t];
        (s as u32, (self.offsets[t + 1] - s) as u32)
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

    #[test]
    fn term_max_weight_is_tight_and_bounded_by_analytic_max() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        for m in models() {
            let kernel = ScoreKernel::new(m, &idx);
            let bounds = ScoreBounds::new(&kernel, &idx);
            for term in idx.terms_by_df_asc() {
                let scorer = kernel.term_scorer(idx.df(term).unwrap(), idx.cf(term).unwrap());
                let (docs, tfs) = idx.decode_postings(term).unwrap();
                let observed = docs
                    .iter()
                    .enumerate()
                    .map(|(i, &doc)| kernel.weight(&scorer, tfs[i], doc))
                    .fold(0.0f64, f64::max);
                // Tight: the bound is exactly the observed maximum...
                assert_eq!(bounds.term_max_weight(term).to_bits(), observed.to_bits());
                // ...and never looser than the max_tf @ dl=1 analytic bound.
                let analytic = kernel.max_weight(&scorer, idx.max_tf(term).unwrap());
                assert!(bounds.term_max_weight(term) <= analytic);
            }
        }
        let kernel = ScoreKernel::new(RankingModel::default(), &idx);
        let bounds = ScoreBounds::new(&kernel, &idx);
        assert_eq!(bounds.term_max_weight(u32::MAX), 0.0);
        assert!(bounds.term_blocks(u32::MAX).is_empty());
    }

    #[test]
    fn block_bounds_align_with_storage_blocks_and_cover_them() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        for m in models() {
            let kernel = ScoreKernel::new(m, &idx);
            let bounds = ScoreBounds::new(&kernel, &idx);
            for term in idx.terms_by_df_asc() {
                let scorer = kernel.term_scorer(idx.df(term).unwrap(), idx.cf(term).unwrap());
                let (docs, tfs) = idx.decode_postings(term).unwrap();
                let bb = bounds.term_blocks(term);
                let headers = idx.blocks().view(term).headers();
                assert_eq!(bb.len(), docs.len().div_ceil(ScoreBounds::BLOCK_POSTINGS));
                assert_eq!(bb.len(), headers.len());
                for (b, chunk) in docs.chunks(ScoreBounds::BLOCK_POSTINGS).enumerate() {
                    // Colocated geometry: the bound's horizon is the
                    // storage block's last document.
                    assert_eq!(bb[b].last_doc, *chunk.last().unwrap());
                    assert_eq!(bb[b].last_doc, headers[b].last_doc);
                    for (i, &doc) in chunk.iter().enumerate() {
                        let w =
                            kernel.weight(&scorer, tfs[b * ScoreBounds::BLOCK_POSTINGS + i], doc);
                        assert!(w <= bb[b].max_score, "{m:?} term {term} block {b}");
                    }
                    // Every block bound is itself bounded by the term max.
                    assert!(bb[b].max_score <= bounds.term_max_weight(term));
                }
            }
        }
    }

    #[test]
    fn mini_block_bounds_cover_postings_and_stay_within_block_max() {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        for m in models() {
            let kernel = ScoreKernel::new(m, &idx);
            let bounds = ScoreBounds::new(&kernel, &idx);
            for term in idx.terms_by_df_asc() {
                let scorer = kernel.term_scorer(idx.df(term).unwrap(), idx.cf(term).unwrap());
                let (docs, tfs) = idx.decode_postings(term).unwrap();
                let bb = bounds.term_blocks(term);
                for (b, chunk) in docs.chunks(ScoreBounds::BLOCK_POSTINGS).enumerate() {
                    for (i, &doc) in chunk.iter().enumerate() {
                        let w =
                            kernel.weight(&scorer, tfs[b * ScoreBounds::BLOCK_POSTINGS + i], doc);
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
