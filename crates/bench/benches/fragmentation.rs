//! Criterion benchmarks of the fragmentation strategies (E1–E3 in
//! microbenchmark form): per-query latency under full scan, A-only, and the
//! safe switch with and without the non-dense index on fragment B.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use moa_corpus::{generate_queries, Collection, CollectionConfig, Query, QueryConfig};
use moa_ir::{
    FragSearcher, FragmentSpec, FragmentedIndex, InvertedIndex, RankingModel, Strategy,
    SwitchPolicy,
};

struct Fixture {
    frag_plain: Arc<FragmentedIndex>,
    frag_indexed: Arc<FragmentedIndex>,
    queries: Vec<Query>,
}

fn fixture() -> Fixture {
    let collection = Collection::generate(CollectionConfig::small()).expect("preset");
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    let frag_plain = Arc::new(
        FragmentedIndex::build(Arc::clone(&index), FragmentSpec::TermFraction(0.95))
            .expect("non-empty"),
    );
    let mut frag_indexed =
        FragmentedIndex::build(Arc::clone(&index), FragmentSpec::TermFraction(0.95))
            .expect("non-empty");
    frag_indexed
        .set_sparse_block_b(1024)
        .expect("positive block size");
    let queries = generate_queries(&collection, &QueryConfig::default()).expect("workload");
    Fixture {
        frag_plain,
        frag_indexed: Arc::new(frag_indexed),
        queries,
    }
}

fn bench_strategies(c: &mut Criterion) {
    let f = fixture();
    let mut g = c.benchmark_group("fragment_strategies");
    g.sample_size(20);

    let cases: Vec<(&str, Arc<FragmentedIndex>, Strategy)> = vec![
        ("full_scan", Arc::clone(&f.frag_plain), Strategy::FullScan),
        (
            "a_only",
            Arc::clone(&f.frag_plain),
            Strategy::AOnly { use_a_index: false },
        ),
        (
            "switch_scan",
            Arc::clone(&f.frag_plain),
            Strategy::Switch { use_b_index: false },
        ),
        (
            "switch_indexed",
            Arc::clone(&f.frag_indexed),
            Strategy::Switch { use_b_index: true },
        ),
    ];
    for (label, frag, strategy) in cases {
        // Fragment tables are built on first use; keep that out of the
        // measured queries.
        let _ = (frag.fragment_a(), frag.fragment_b());
        let mut searcher = FragSearcher::new(
            Arc::clone(&frag),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        g.bench_function(label, |b| {
            let mut i = 0usize;
            b.iter(|| {
                let q = &f.queries[i % f.queries.len()];
                i += 1;
                searcher
                    .search(black_box(&q.terms), 20, strategy)
                    .expect("query")
            })
        });
    }
    g.finish();
}

criterion_group!(benches, bench_strategies);
criterion_main!(benches);
