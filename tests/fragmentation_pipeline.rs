//! Integration tests of the fragmentation pipeline across corpus, storage,
//! and IR: the paper's Step 1 invariants at module boundaries.

use std::sync::Arc;

use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, QueryConfig};
use moa_ir::{
    FragSearcher, FragmentSpec, FragmentedIndex, InvertedIndex, RankingModel, Strategy,
    SwitchPolicy,
};

fn build(spec: FragmentSpec) -> (Collection, Arc<FragmentedIndex>) {
    let collection = Collection::generate(CollectionConfig::tiny()).expect("valid preset");
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    let frag = Arc::new(FragmentedIndex::build(index, spec).expect("non-empty"));
    (collection, frag)
}

#[test]
fn fragments_partition_postings_for_every_spec() {
    for spec in [
        FragmentSpec::VolumeFraction(0.05),
        FragmentSpec::VolumeFraction(0.5),
        FragmentSpec::TermFraction(0.5),
        FragmentSpec::TermFraction(0.95),
        FragmentSpec::DfThreshold(2),
        FragmentSpec::DfThreshold(1_000_000),
    ] {
        let (collection, frag) = build(spec);
        assert_eq!(
            frag.fragment_a().volume() + frag.fragment_b().volume(),
            collection.num_postings(),
            "partition violated for {spec:?}"
        );
    }
}

#[test]
fn a_only_results_are_a_subset_of_scoring_signal() {
    // Every document returned by A-only must also appear in the full
    // ranking (it can only lose score mass, not gain docs).
    let (collection, frag) = build(FragmentSpec::TermFraction(0.9));
    let queries = generate_queries(&collection, &QueryConfig::default()).expect("workload");
    let mut searcher = FragSearcher::new(
        Arc::clone(&frag),
        RankingModel::default(),
        SwitchPolicy::default(),
    );
    for q in queries.iter().take(10) {
        let full = searcher
            .search(&q.terms, collection.num_docs(), Strategy::FullScan)
            .expect("query");
        let a_only = searcher
            .search(
                &q.terms,
                collection.num_docs(),
                Strategy::AOnly { use_a_index: false },
            )
            .expect("query");
        let full_docs: std::collections::HashSet<u32> = full.top.iter().map(|&(d, _)| d).collect();
        for &(d, score) in &a_only.top {
            assert!(full_docs.contains(&d), "doc {d} only in A-only result");
            // A-only scores never exceed the full score.
            let full_score = full.top.iter().find(|&&(fd, _)| fd == d).unwrap().1;
            assert!(score <= full_score + 1e-9);
        }
    }
}

#[test]
fn rare_only_queries_never_switch() {
    let (collection, frag) = build(FragmentSpec::TermFraction(0.95));
    let queries = generate_queries(
        &collection,
        &QueryConfig {
            bias: DfBias::RareOnly,
            ..QueryConfig::default()
        },
    )
    .expect("workload");
    let boundary = frag.df_boundary();
    let mut searcher = FragSearcher::new(
        Arc::clone(&frag),
        RankingModel::default(),
        SwitchPolicy::default(),
    );
    let mut ran = 0;
    for q in &queries {
        // Only check queries whose terms all fall inside fragment A.
        if q.terms.iter().all(|&t| frag.term_in_a(t)) {
            let rep = searcher
                .search(&q.terms, 10, Strategy::Switch { use_b_index: false })
                .expect("query");
            assert!(
                !rep.used_b,
                "switched for all-A query (boundary df {boundary})"
            );
            ran += 1;
        }
    }
    assert!(ran > 0, "no all-A queries in the rare-only workload");
}

#[test]
fn frequent_only_queries_always_switch() {
    let (collection, frag) = build(FragmentSpec::VolumeFraction(0.1));
    let queries = generate_queries(
        &collection,
        &QueryConfig {
            bias: DfBias::FrequentOnly,
            ..QueryConfig::default()
        },
    )
    .expect("workload");
    let mut searcher = FragSearcher::new(
        Arc::clone(&frag),
        RankingModel::default(),
        SwitchPolicy::default(),
    );
    for q in queries.iter().take(10) {
        if q.terms.iter().all(|&t| !frag.term_in_a(t)) {
            let rep = searcher
                .search(&q.terms, 10, Strategy::Switch { use_b_index: false })
                .expect("query");
            assert!(rep.used_b, "did not switch for all-B query {:?}", q.terms);
            // And the result matches the full scan exactly.
            let full = searcher
                .search(&q.terms, 10, Strategy::FullScan)
                .expect("query");
            assert_eq!(rep.top, full.top);
        }
    }
}

#[test]
fn sparse_index_on_b_changes_cost_not_results() {
    let collection = Collection::generate(CollectionConfig::tiny()).expect("preset");
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    let mut frag = FragmentedIndex::build(Arc::clone(&index), FragmentSpec::VolumeFraction(0.15))
        .expect("non-empty");
    frag.set_sparse_block_b(128).expect("positive block size");
    let frag = Arc::new(frag);
    let queries = generate_queries(&collection, &QueryConfig::default()).expect("workload");
    let mut searcher = FragSearcher::new(
        Arc::clone(&frag),
        RankingModel::default(),
        SwitchPolicy::default(),
    );
    for q in queries.iter().take(10) {
        let with_index = searcher
            .search(&q.terms, 20, Strategy::Switch { use_b_index: true })
            .expect("query");
        let without = searcher
            .search(&q.terms, 20, Strategy::Switch { use_b_index: false })
            .expect("query");
        assert_eq!(with_index.top, without.top);
        assert!(with_index.postings_scanned <= without.postings_scanned);
    }
}

#[test]
fn determinism_across_searcher_instances() {
    let (collection, frag) = build(FragmentSpec::TermFraction(0.95));
    let queries = generate_queries(&collection, &QueryConfig::default()).expect("workload");
    let q = &queries[0];
    let mut s1 = FragSearcher::new(
        Arc::clone(&frag),
        RankingModel::default(),
        SwitchPolicy::default(),
    );
    let mut s2 = FragSearcher::new(
        Arc::clone(&frag),
        RankingModel::default(),
        SwitchPolicy::default(),
    );
    let a = s1.search(&q.terms, 10, Strategy::FullScan).expect("query");
    let b = s2.search(&q.terms, 10, Strategy::FullScan).expect("query");
    assert_eq!(a.top, b.top);
    assert_eq!(a.postings_scanned, b.postings_scanned);
}
