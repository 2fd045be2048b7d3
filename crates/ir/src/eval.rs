//! Set-at-a-time ranked retrieval over the term-major index.
//!
//! [`Searcher`] is the *element-addressable* evaluation path: each query
//! term's posting run is fetched directly (the "recoded" fast layout). The
//! scan-based BAT evaluation the paper's fragmentation experiment measures
//! lives in [`crate::fragment`]; both share the [`crate::scorer`] kernel
//! (precomputed term constants + cached per-document norms) and this
//! module's accumulate-then-top-N shape.
//!
//! The sparse accumulator marks touched slots with a query *epoch* rather
//! than a `score == 0.0` sentinel, so a legitimately-zero partial score
//! (e.g. an idf of exactly zero when `df == N`) can never double-push a
//! document, and no O(num_docs) reset is needed between queries.

use moa_topn::TopNHeap;

use crate::accum::EpochAccumulator;
use crate::error::Result;
use crate::index::InvertedIndex;
use crate::physical::ExecReport;
use crate::ranking::RankingModel;
use crate::scorer::ScoreKernel;
use crate::threshold::BoundGate;

/// A reusable query evaluator with a workhorse score accumulator.
#[derive(Debug)]
pub struct Searcher<'a> {
    index: &'a InvertedIndex,
    kernel: ScoreKernel,
    accum: EpochAccumulator,
}

impl<'a> Searcher<'a> {
    /// Create a searcher over an index with a ranking model.
    pub fn new(index: &'a InvertedIndex, model: RankingModel) -> Searcher<'a> {
        Searcher {
            index,
            kernel: ScoreKernel::new(model, index),
            accum: EpochAccumulator::new(index.num_docs()),
        }
    }

    /// Evaluate a bag-of-terms query, returning the top `n` documents.
    pub fn search(&mut self, terms: &[u32], n: usize) -> Result<ExecReport> {
        set_at_a_time(
            self.index,
            &self.kernel,
            &mut self.accum,
            terms,
            n,
            &BoundGate::none(),
        )
    }

    /// Full ranking of every matching document (reference for metrics).
    pub fn rank_all(&mut self, terms: &[u32]) -> Result<Vec<(u32, f64)>> {
        let n = self.index.num_docs();
        Ok(self.search(terms, n)?.top)
    }
}

/// Set-at-a-time evaluation of a bag-of-terms query: stream every term's
/// run into `accum`, then offer each touched document to a top-`n` heap.
/// `kernel` must have been built for `index`, and `accum` sized to it;
/// [`Searcher`] and [`crate::physical::EngineSet`] each own one
/// accumulator and lend it here.
///
/// The accumulator path cannot prune on `gate`'s threshold, but it polls
/// the gate's per-query deadline at every run boundary *and* every
/// [`crate::fragment::SCAN_POLL_STRIDE`] postings inside a run, so even a
/// single giant run stops within about a thousand postings of expiry. A
/// document's accumulated sum is only exact once *every* run has been
/// consumed, so an expired evaluation is `partial` with an **empty**
/// `top` — partial sums are not exact scores and are never surfaced as a
/// ranking — while the counters stay honest about the work performed.
pub(crate) fn set_at_a_time(
    index: &InvertedIndex,
    kernel: &ScoreKernel,
    accum: &mut EpochAccumulator,
    terms: &[u32],
    n: usize,
    gate: &BoundGate,
) -> Result<ExecReport> {
    // Validate every term before touching the accumulator: a mid-query
    // error must not strand partial scores in a shared accumulator (the
    // physical layer reuses one across queries), or the next query would
    // inherit stale touched documents.
    for &term in terms {
        let _ = index.df(term)?;
    }
    let mut scanned = 0usize;
    let mut partial = false;
    for &term in terms {
        // Deadline poll at the run boundary: an expired query stops
        // consuming runs; the retire below keeps the shared accumulator
        // clean for the next query.
        if gate.expired() {
            partial = true;
            break;
        }
        let df = index.df(term)?;
        let cf = index.cf(term)?;
        let scorer = kernel.term_scorer(df, cf);
        // Stream the run straight off the block-compressed storage
        // (block-by-block decode on a stack buffer, no allocation);
        // document order matches the flat layout, so the accumulation
        // order — and every resulting f64 — is unchanged. The poll
        // re-fires every SCAN_POLL_STRIDE postings *inside* the run, so a
        // giant run stops within a stride of expiry instead of at its end.
        let mut in_run = 0usize;
        let completed = index.for_each_posting_while(term, |doc, tf| {
            if in_run.is_multiple_of(crate::fragment::SCAN_POLL_STRIDE)
                && in_run > 0
                && gate.expired()
            {
                return false;
            }
            in_run += 1;
            let w = kernel.weight(&scorer, tf, doc);
            accum.add(doc, w);
            scanned += 1;
            true
        })?;
        if !completed {
            partial = true;
            break;
        }
    }

    let mut heap = TopNHeap::new(n);
    if !partial {
        for &doc in accum.touched() {
            heap.push(doc, accum.score(doc));
        }
    }
    // Epoch bump retires this query's slots without any reset pass —
    // including the partial sums of an expired query.
    accum.retire();

    Ok(ExecReport {
        candidates: heap.pushes(),
        top: heap.into_sorted_vec(),
        postings_scanned: scanned,
        partial,
        ..ExecReport::default()
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_corpus::{Collection, CollectionConfig};

    fn setup() -> (Collection, InvertedIndex) {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = InvertedIndex::from_collection(&c);
        (c, idx)
    }

    #[test]
    fn search_returns_scored_ranking() {
        let (_, idx) = setup();
        let mut s = Searcher::new(&idx, RankingModel::default());
        let terms = idx.terms_by_df_asc();
        let q = vec![terms[terms.len() / 2], terms[terms.len() - 1]];
        let rep = s.search(&q, 10).unwrap();
        assert!(!rep.top.is_empty());
        assert!(rep.top.len() <= 10);
        assert!(rep.top.windows(2).all(|w| w[0].1 >= w[1].1));
        let volume: usize = q.iter().map(|&t| idx.df(t).unwrap() as usize).sum();
        assert_eq!(rep.postings_scanned, volume, "both terms' runs are read");
    }

    #[test]
    fn scores_are_sums_of_term_weights() {
        let (_, idx) = setup();
        let model = RankingModel::TfIdf;
        let mut s = Searcher::new(&idx, model);
        let terms = idx.terms_by_df_asc();
        let q = vec![terms[0], terms[terms.len() - 1]];
        let rep = s.search(&q, 5).unwrap();
        let stats = idx.stats();
        for &(doc, score) in &rep.top {
            let mut expect = 0.0;
            for &t in &q {
                let (docs, tfs) = idx.decode_postings(t).unwrap();
                if let Some(i) = docs.iter().position(|&d| d == doc) {
                    expect += model.term_weight(
                        tfs[i],
                        idx.df(t).unwrap(),
                        idx.cf(t).unwrap(),
                        idx.doc_len(doc),
                        &stats,
                    );
                }
            }
            assert!((score - expect).abs() < 1e-9, "doc {doc}");
        }
    }

    #[test]
    fn accumulator_resets_between_queries() {
        let (_, idx) = setup();
        let mut s = Searcher::new(&idx, RankingModel::default());
        let terms = idx.terms_by_df_asc();
        let q = vec![terms[terms.len() - 1]];
        let first = s.search(&q, 5).unwrap();
        let second = s.search(&q, 5).unwrap();
        assert_eq!(first, second);
    }

    #[test]
    fn unknown_term_is_error() {
        let (_, idx) = setup();
        let mut s = Searcher::new(&idx, RankingModel::default());
        assert!(s.search(&[u32::MAX], 5).is_err());
    }

    #[test]
    fn failed_query_leaves_the_accumulator_clean() {
        // A query that errors after a valid term must not strand partial
        // scores: the next query on the same (shared) accumulator has to
        // answer exactly as a fresh searcher would.
        let (_, idx) = setup();
        let mut s = Searcher::new(&idx, RankingModel::default());
        let terms = idx.terms_by_df_asc();
        let good = vec![terms[terms.len() - 1]];
        let want = s.search(&good, 5).unwrap();
        assert!(s.search(&[good[0], u32::MAX], 5).is_err());
        let again = s.search(&good, 5).unwrap();
        assert_eq!(want, again, "stale accumulator state leaked");
    }

    #[test]
    fn zero_weight_terms_do_not_double_push() {
        // Term 0 occurs in every document, so its TF-IDF idf is ln(1) = 0
        // and its contributions are legitimately zero. A `score == 0.0`
        // "untouched" sentinel would re-push those docs when a later term
        // touches them; the epoch marker must count each doc exactly once.
        let idx = InvertedIndex::from_sorted_postings(
            2,
            vec![5, 5, 5],
            &[(0, 0, 1), (0, 1, 1), (0, 2, 1), (1, 0, 2), (1, 1, 1)],
        )
        .unwrap();
        let mut s = Searcher::new(&idx, RankingModel::TfIdf);
        let rep = s.search(&[0, 1], 10).unwrap();
        assert_eq!(rep.top.len(), 3, "each doc exactly once: {:?}", rep.top);
        let mut docs: Vec<u32> = rep.top.iter().map(|&(d, _)| d).collect();
        docs.sort_unstable();
        assert_eq!(docs, vec![0, 1, 2]);
        // Doc 2 matched only the zero-idf term: retained with score 0.
        assert_eq!(rep.top.last().map(|&(d, s)| (d, s)), Some((2, 0.0)));
        // And the accumulator stays sound on the next query.
        let again = s.search(&[0, 1], 10).unwrap();
        assert_eq!(rep, again);
    }

    #[test]
    fn empty_query_returns_empty() {
        let (_, idx) = setup();
        let mut s = Searcher::new(&idx, RankingModel::default());
        let rep = s.search(&[], 5).unwrap();
        assert!(rep.top.is_empty());
        assert_eq!(rep.postings_scanned, 0);
    }

    #[test]
    fn term_with_no_postings_contributes_nothing() {
        let (c, idx) = setup();
        // Find a term with df == 0 (vocabulary is larger than observed).
        let dead = (0..c.vocab_size() as u32)
            .find(|&t| c.df()[t as usize] == 0)
            .expect("tiny collection leaves unseen terms");
        let mut s = Searcher::new(&idx, RankingModel::default());
        let rep = s.search(&[dead], 5).unwrap();
        assert!(rep.top.is_empty());
        assert_eq!(rep.postings_scanned, 0);
    }

    #[test]
    fn rank_all_is_consistent_with_topn() {
        let (_, idx) = setup();
        let mut s = Searcher::new(&idx, RankingModel::default());
        let terms = idx.terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() / 2]];
        let all = s.rank_all(&q).unwrap();
        let top5 = s.search(&q, 5).unwrap().top;
        assert_eq!(&all[..top5.len().min(5)], &top5[..]);
    }

    #[test]
    fn models_disagree_but_both_rank() {
        let (_, idx) = setup();
        let terms = idx.terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() / 3]];
        let mut s1 = Searcher::new(&idx, RankingModel::TfIdf);
        let mut s2 = Searcher::new(&idx, RankingModel::Bm25 { k1: 1.2, b: 0.75 });
        let r1 = s1.search(&q, 10).unwrap();
        let r2 = s2.search(&q, 10).unwrap();
        assert_eq!(r1.postings_scanned, r2.postings_scanned);
        assert!(!r1.top.is_empty() && !r2.top.is_empty());
    }
}
