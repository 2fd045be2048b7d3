//! Criterion microbenchmarks of the cross-batch result cache in
//! isolation (`moabench` measures the same operations in place as
//! `cache.hit_ns`, `cache.miss_insert_ns` and `cache.invalidate_ns`):
//! the per-operation cost of a warm hit lookup (the path that replaces
//! an entire query execution), a miss followed by an insert (the price
//! of carrying the cache on an all-distinct stream), and an O(1) epoch
//! invalidation.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use moa_ir::{ExecReport, RankingModel};
use moa_serve::{CacheConfig, QueryResponse, ResultCache};

/// A realistic resident answer: a sorted top-100 with empty per-shard
/// detail (what the serving session stores after merging).
fn answer(doc: u32) -> Arc<QueryResponse> {
    Arc::new(QueryResponse {
        top: (0..100).map(|i| (doc + i, 1.0 / (i + 1) as f64)).collect(),
        work: ExecReport::default(),
        partial: false,
        shards: Vec::new(),
    })
}

fn bench_result_cache(c: &mut Criterion) {
    let mut g = c.benchmark_group("result_cache");

    // Warm hit: the steady state of a Zipf head query. 256 resident
    // three-term keys across the default shard count; round-robin over
    // them so the probe mixes hash chains and both LRU segments.
    let cache = ResultCache::new(CacheConfig::default(), RankingModel::default());
    let keys: Vec<Vec<u32>> = (0..256u32).map(|k| vec![k, k + 1_000, k + 2_000]).collect();
    for (i, terms) in keys.iter().enumerate() {
        cache.insert(terms, 100, answer(i as u32));
    }
    g.bench_function("hit_lookup", |b| {
        let mut i = 0usize;
        b.iter(|| {
            i = (i + 1) & 255;
            black_box(cache.get(black_box(&keys[i]), 100)).is_some()
        })
    });

    // Miss + insert: the all-distinct workload. The epoch bump each
    // round forces the resident entry stale, so every get walks the
    // full miss path and every insert replaces a superseded slot.
    let cold = ResultCache::new(CacheConfig::default(), RankingModel::default());
    let value = answer(7);
    g.bench_function("miss_then_insert", |b| {
        let mut i = 0u32;
        b.iter(|| {
            i = (i + 1) & 255;
            cold.invalidate_epoch();
            let terms = [i, i + 1_000, i + 2_000];
            assert!(cold.get(black_box(&terms), 100).is_none());
            cold.insert(&terms, 100, Arc::clone(&value));
            black_box(cold.epoch())
        })
    });

    // Epoch invalidation: one atomic bump, independent of residency.
    let full = ResultCache::new(CacheConfig::default(), RankingModel::default());
    for (i, terms) in keys.iter().enumerate() {
        full.insert(terms, 100, answer(i as u32));
    }
    g.bench_function("invalidate_epoch", |b| {
        b.iter(|| black_box(full.invalidate_epoch()))
    });

    g.finish();
}

criterion_group!(benches, bench_result_cache);
criterion_main!(benches);
