//! Shared retrieval fixture for the fragmentation experiments (E1–E3, E10).

use std::sync::Arc;
use std::time::Duration;

use moa_corpus::{
    generate_qrels, generate_queries, Collection, CollectionConfig, Qrels, QrelsConfig, Query,
    QueryConfig,
};
use moa_ir::{
    average_precision, mean_of, overlap_at, FragSearcher, FragmentSpec, FragmentedIndex,
    InvertedIndex, RankingModel, Strategy, SwitchPolicy,
};

use crate::harness::Scale;

/// Ranking depth used for effectiveness metrics.
pub const METRIC_DEPTH: usize = 1_000;

/// A generated collection with queries, qrels, and the shared index.
pub struct RetrievalFixture {
    /// The synthetic collection.
    pub collection: Collection,
    /// The unfragmented inverted index.
    pub index: Arc<InvertedIndex>,
    /// The query workload.
    pub queries: Vec<Query>,
    /// Synthetic relevance judgments.
    pub qrels: Qrels,
    /// The ranking model all runs share.
    pub model: RankingModel,
}

/// Outcome of running a strategy over the whole workload.
pub struct StrategyOutcome {
    /// Per-query document rankings (truncated to [`METRIC_DEPTH`]).
    pub rankings: Vec<(u32, Vec<u32>)>,
    /// Total postings scanned over all queries.
    pub postings_scanned: usize,
    /// Wall-clock time for the whole batch.
    pub elapsed: Duration,
    /// Number of queries for which fragment B was consulted.
    pub used_b: usize,
}

impl RetrievalFixture {
    /// Build the fixture at the given scale (deterministic).
    pub fn build(scale: Scale) -> RetrievalFixture {
        let config = match scale {
            Scale::Quick => CollectionConfig::small(),
            Scale::Full => CollectionConfig::ft_scale(),
        };
        let collection = Collection::generate(config).expect("valid preset");
        let queries = generate_queries(
            &collection,
            &QueryConfig {
                num_queries: match scale {
                    Scale::Quick => 30,
                    Scale::Full => 50,
                },
                ..QueryConfig::default()
            },
        )
        .expect("valid workload config");
        let qrels =
            generate_qrels(&collection, &queries, &QrelsConfig::topical()).expect("valid qrels");
        let index = Arc::new(InvertedIndex::from_collection(&collection));
        RetrievalFixture {
            collection,
            index,
            queries,
            qrels,
            model: RankingModel::default(),
        }
    }

    /// Fragment the fixture's index.
    pub fn fragment(&self, spec: FragmentSpec) -> Arc<FragmentedIndex> {
        Arc::new(FragmentedIndex::build(Arc::clone(&self.index), spec).expect("non-empty index"))
    }

    /// Run the whole workload under one strategy, measuring work and time.
    pub fn run_strategy(
        &self,
        frag: &Arc<FragmentedIndex>,
        strategy: Strategy,
        policy: SwitchPolicy,
    ) -> StrategyOutcome {
        let mut searcher = FragSearcher::new(Arc::clone(frag), self.model, policy);
        // The fragment tables are built on first use: build them before
        // the clock starts, so the wall time is query work only.
        let _ = (frag.fragment_a(), frag.fragment_b());
        let t0 = std::time::Instant::now();
        let mut rankings = Vec::with_capacity(self.queries.len());
        let mut scanned = 0usize;
        let mut used_b = 0usize;
        for q in &self.queries {
            let rep = searcher
                .search(&q.terms, METRIC_DEPTH, strategy)
                .expect("valid query terms");
            scanned += rep.postings_scanned;
            if rep.used_b {
                used_b += 1;
            }
            rankings.push((q.id, rep.top.iter().map(|&(d, _)| d).collect()));
        }
        StrategyOutcome {
            rankings,
            postings_scanned: scanned,
            elapsed: t0.elapsed(),
            used_b,
        }
    }

    /// Mean average precision of an outcome against the qrels (queries with
    /// no judged-relevant documents are skipped, TREC-style).
    pub fn map(&self, outcome: &StrategyOutcome) -> f64 {
        mean_of(outcome.rankings.iter().map(|(qid, ranking)| {
            let rel = self.qrels.relevant(*qid);
            if rel.is_empty() {
                None
            } else {
                average_precision(ranking, rel)
            }
        }))
        .unwrap_or(0.0)
    }

    /// Mean overlap@k of an outcome against a reference outcome.
    pub fn mean_overlap(
        &self,
        reference: &StrategyOutcome,
        other: &StrategyOutcome,
        k: usize,
    ) -> f64 {
        mean_of(
            reference
                .rankings
                .iter()
                .zip(&other.rankings)
                .map(|((qa, ra), (qb, rb))| {
                    assert_eq!(qa, qb);
                    overlap_at(ra, rb, k)
                }),
        )
        .unwrap_or(0.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixture_is_deterministic_and_consistent() {
        let f1 = RetrievalFixture::build(Scale::Quick);
        let f2 = RetrievalFixture::build(Scale::Quick);
        assert_eq!(f1.queries, f2.queries);
        assert_eq!(f1.collection.num_postings(), f2.collection.num_postings());
        assert!(!f1.queries.is_empty());
    }

    #[test]
    fn full_scan_is_reference_quality() {
        let f = RetrievalFixture::build(Scale::Quick);
        let frag = f.fragment(FragmentSpec::TermFraction(0.95));
        let full = f.run_strategy(&frag, Strategy::FullScan, SwitchPolicy::default());
        let a_only = f.run_strategy(
            &frag,
            Strategy::AOnly { use_a_index: false },
            SwitchPolicy::default(),
        );
        // A-only scans strictly less and can never beat full-scan overlap
        // with itself.
        assert!(a_only.postings_scanned < full.postings_scanned);
        let self_overlap = f.mean_overlap(&full, &full, 20);
        assert!((self_overlap - 1.0).abs() < 1e-9);
        let degraded = f.mean_overlap(&full, &a_only, 20);
        assert!(degraded <= 1.0);
    }
}
