//! Ranking models.
//!
//! Three probabilistic/vector-space models of the paper's era, all with the
//! property the fragmentation strategy relies on: **rare (low-df) terms
//! contribute the bulk of a document's score**, so evaluating only the
//! "interesting" fragment retains most of the ranking signal.
//!
//! * TF-IDF — `(1 + ln tf) · ln(N / df)`, length-normalized.
//! * Hiemstra's language model (the mi Ror group's own model, used at TREC):
//!   `ln(1 + (λ · tf · |C|) / ((1−λ) · cf · |d|))`.
//! * BM25 — the Robertson/Sparck-Jones baseline.

use crate::index::CollectionStats;
use crate::scorer::TermScorer;

/// A per-term document scoring model. Scores are summed over query terms
/// (bag-of-words, conjunctive-free evaluation).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RankingModel {
    /// Length-normalized TF-IDF.
    TfIdf,
    /// Hiemstra's linearly smoothed language model with mixing weight
    /// `lambda` in (0, 1).
    HiemstraLm {
        /// Probability mass given to the document model (vs collection).
        lambda: f64,
    },
    /// Okapi BM25 with the usual `k1`/`b` parameters.
    Bm25 {
        /// Term-frequency saturation.
        k1: f64,
        /// Length-normalization strength.
        b: f64,
    },
}

impl Default for RankingModel {
    fn default() -> Self {
        RankingModel::HiemstraLm { lambda: 0.15 }
    }
}

impl RankingModel {
    /// The score contribution of one query term occurring `tf` times in a
    /// document of `doc_len` tokens, given the term's document frequency
    /// `df`, collection frequency `cf`, and collection statistics.
    ///
    /// Returns 0.0 for degenerate inputs (`tf == 0` or `df == 0`).
    ///
    /// Delegates to [`TermScorer`] and [`RankingModel::doc_norm`] — the
    /// precomputed hot paths execute the identical floating-point
    /// operations, so naive and bounds-pruned evaluation agree bit-exactly.
    pub fn term_weight(
        &self,
        tf: u32,
        df: u32,
        cf: u64,
        doc_len: u32,
        stats: &CollectionStats,
    ) -> f64 {
        TermScorer::new(*self, df, cf, stats).weight(tf, self.doc_norm(doc_len, stats))
    }

    /// The per-document length-normalization factor of this model:
    /// `1/√dl` for TF-IDF, `1/dl` for Hiemstra, and the BM25 denominator
    /// norm `k1·(1 − b + b·dl/avgdl)`. [`crate::scorer::ScoreKernel`]
    /// caches this per document so the per-posting work is a multiply-add.
    pub fn doc_norm(&self, doc_len: u32, stats: &CollectionStats) -> f64 {
        let dl = f64::from(doc_len.max(1));
        match *self {
            RankingModel::TfIdf => dl.sqrt().recip(),
            RankingModel::HiemstraLm { .. } => dl.recip(),
            RankingModel::Bm25 { k1, b } => k1 * (1.0 - b + b * dl / stats.avg_doc_len.max(1.0)),
        }
    }

    /// Whether every posting weight this model produces is ≥ 0, whatever
    /// the term and document. TF-IDF (`idf = ln(N/df) ≥ 0`) and Hiemstra
    /// (`ln(1 + x)` with `x > 0`) always qualify. BM25 qualifies when
    /// `k1 ≥ 0` and `0 ≤ b ≤ 1`: its norm `k1·(1 − b + b·dl/avgdl)` is
    /// then never negative, so neither is `tf·(k1+1) / (tf + norm)`.
    /// Outside that range the norm goes negative for short documents
    /// (`b > 1`) or for every document (`k1 < 0`), and once it is below
    /// `−tf` the weight is negative. The pruned kernel's seed (a lower
    /// bound built by leaving terms out of a sum) is sound only for
    /// models where this holds.
    pub fn nonnegative_weights(&self) -> bool {
        match *self {
            RankingModel::TfIdf | RankingModel::HiemstraLm { .. } => true,
            RankingModel::Bm25 { k1, b } => k1 >= 0.0 && (0.0..=1.0).contains(&b),
        }
    }

    /// An upper bound on the contribution any single posting of this term
    /// can make, given the term's maximum within-document tf. Used by the
    /// fragmentation safety check to bound what fragment B could add.
    pub fn max_term_weight(&self, max_tf: u32, df: u32, cf: u64, stats: &CollectionStats) -> f64 {
        // Shortest plausible document maximizes all three models' weights.
        let min_dl = 1u32;
        self.term_weight(max_tf, df, cf, min_dl, stats)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

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
    fn zero_tf_or_df_scores_zero() {
        let s = stats();
        for m in models() {
            assert_eq!(m.term_weight(0, 10, 10, 100, &s), 0.0);
            assert_eq!(m.term_weight(5, 0, 10, 100, &s), 0.0);
        }
    }

    #[test]
    fn weight_increases_with_tf() {
        let s = stats();
        for m in models() {
            let w1 = m.term_weight(1, 10, 50, 100, &s);
            let w3 = m.term_weight(3, 10, 50, 100, &s);
            let w9 = m.term_weight(9, 10, 50, 100, &s);
            assert!(w1 < w3 && w3 < w9, "{m:?}: {w1} {w3} {w9}");
        }
    }

    #[test]
    fn rare_terms_outweigh_frequent_terms() {
        // The property the fragmentation rests on: same tf, lower df/cf ⇒
        // larger contribution.
        let s = stats();
        for m in models() {
            let rare = m.term_weight(2, 5, 12, 100, &s);
            let common = m.term_weight(2, 800, 5_000, 100, &s);
            assert!(
                rare > 2.0 * common,
                "{m:?}: rare {rare} not ≫ common {common}"
            );
        }
    }

    #[test]
    fn longer_documents_are_penalized() {
        let s = stats();
        for m in models() {
            let short = m.term_weight(2, 10, 50, 50, &s);
            let long = m.term_weight(2, 10, 50, 500, &s);
            assert!(short > long, "{m:?}: short {short} <= long {long}");
        }
    }

    #[test]
    fn weights_are_finite_and_positive() {
        let s = stats();
        for m in models() {
            for (tf, df, cf, dl) in [(1u32, 1u32, 1u64, 1u32), (100, 999, 99_999, 10_000)] {
                let w = m.term_weight(tf, df, cf, dl, &s);
                assert!(
                    w.is_finite() && w > 0.0,
                    "{m:?} ({tf},{df},{cf},{dl}) => {w}"
                );
            }
        }
    }

    #[test]
    fn max_term_weight_bounds_actual_weights() {
        let s = stats();
        for m in models() {
            let bound = m.max_term_weight(7, 10, 70, &s);
            for tf in 1..=7u32 {
                for dl in [1u32, 10, 100, 1000] {
                    let w = m.term_weight(tf, 10, 70, dl, &s);
                    assert!(w <= bound + 1e-12, "{m:?}: {w} > bound {bound}");
                }
            }
        }
    }

    #[test]
    fn hiemstra_lambda_is_clamped() {
        let s = stats();
        let extreme = RankingModel::HiemstraLm { lambda: 1.0 };
        let w = extreme.term_weight(2, 10, 50, 100, &s);
        assert!(w.is_finite());
        let zero = RankingModel::HiemstraLm { lambda: 0.0 };
        assert!(zero.term_weight(2, 10, 50, 100, &s).is_finite());
    }

    #[test]
    fn default_model_is_hiemstra() {
        assert!(matches!(
            RankingModel::default(),
            RankingModel::HiemstraLm { .. }
        ));
    }
}
