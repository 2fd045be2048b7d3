//! The result-cache differential oracle: a cached serving session,
//! driven through arbitrary interleavings of hits, misses, capacity
//! evictions, and epoch invalidations, must return answers
//! **bit-identical** to an identical session with no cache — position
//! for position, score bit for score bit. The cache may only ever
//! change *where* an answer comes from, never what it is.

use std::sync::Arc;

use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, Query, QueryConfig};
use moa_ir::InvertedIndex;
use moa_serve::{
    approx_entry_bytes, AdmissionPolicy, BatchQuery, CacheConfig, QueryResponse, ServeConfig,
    ServeSession, ShardSpec, CALLER_RUNS_MAX_POSTINGS,
};

fn fixture() -> (Arc<InvertedIndex>, Vec<Query>) {
    let c = Collection::generate(CollectionConfig::tiny()).expect("valid preset");
    let idx = Arc::new(InvertedIndex::from_collection(&c));
    let queries = generate_queries(
        &c,
        &QueryConfig {
            num_queries: 12,
            bias: DfBias::TrecLike { high_df_mix: 0.4 },
            seed: 0xCAC4E,
            ..QueryConfig::default()
        },
    )
    .expect("valid workload");
    (idx, queries)
}

fn session(idx: &Arc<InvertedIndex>, cache: Option<CacheConfig>) -> ServeSession {
    let config = ServeConfig {
        shard_spec: ShardSpec::Range { shards: 2 },
        sparse_block: Some(64),
        cache,
        // Propagation off: the cross-shard threshold changes how many
        // postings a query scans depending on thread timing, and this
        // oracle compares *work counters* between two sessions. Answers
        // are propagation-independent; making the work deterministic
        // keeps the cached-scans-less-than-fresh assertion exact.
        propagate: false,
        ..ServeConfig::planned(2)
    };
    ServeSession::new(Arc::clone(idx), config).expect("tiny index shards cleanly")
}

/// Σ df over the terms: the caller-runs dispatch key.
fn run_length(idx: &InvertedIndex, terms: &[u32]) -> usize {
    terms
        .iter()
        .map(|&t| idx.df(t).expect("in vocabulary") as usize)
        .sum()
}

fn bits(top: &[(u32, f64)]) -> Vec<(u32, u64)> {
    top.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// A deterministic Zipf-flavored repeat schedule over `k` distinct
/// queries: low indices recur constantly, the tail appears rarely —
/// exactly the cross-batch repetition the cache exists for.
fn schedule(len: usize, k: usize) -> Vec<usize> {
    (0..len)
        .map(|i| {
            let r = (i * 2654435761) % 16;
            match r {
                0..=7 => 0,          // the head: half of all traffic
                8..=11 => 1 + i % 2, // warm middle
                _ => 3 + (i * 7) % (k - 3),
            }
        })
        .collect()
}

#[test]
fn cached_answers_are_bit_identical_under_hits_misses_evictions_and_invalidations() {
    let (idx, queries) = fixture();
    // A deliberately tiny cache (one lock shard, room for only a few
    // entries) so capacity evictions actually interleave with the hits.
    let entry = approx_entry_bytes(
        &queries[0].terms,
        &QueryResponse {
            top: vec![(0, 0.0); 10],
            work: Default::default(),
            partial: false,
            shards: Vec::new(),
        },
    );
    let mut cached = session(
        &idx,
        Some(CacheConfig {
            capacity_bytes: entry * 4,
            shards: 1,
        }),
    );
    let mut fresh = session(&idx, None);

    let cache_hits = |s: &ServeSession| s.result_cache().expect("cache configured").stats().hits;
    let plan = schedule(96, queries.len());
    for (round, chunk) in plan.chunks(4).enumerate() {
        // Invalidation storm interleaved with ordinary traffic: every
        // third batch flash-invalidates first.
        let bumped = round % 3 == 2;
        if bumped {
            let epoch = cached.invalidate_epoch().expect("cache configured");
            assert!(epoch > 0);
        }
        let batch: Vec<BatchQuery> = chunk
            .iter()
            .map(|&qi| BatchQuery {
                terms: queries[qi].terms.clone(),
                n: 10,
            })
            .collect();
        let hits_before = cache_hits(&cached);
        let got = cached.submit_many(&batch).expect("admission blocks");
        if bumped {
            // No stale hit: a batch looks every position up at admission,
            // before any of its answers is inserted, so right after a bump
            // each lookup is its key's first since the bump and must miss.
            assert_eq!(
                cache_hits(&cached),
                hits_before,
                "round {round}: a cache hit survived invalidate_epoch()"
            );
        }
        let want = fresh.submit_many(&batch).expect("admission blocks");
        for (pos, (g, w)) in got.responses.iter().zip(&want.responses).enumerate() {
            let g = g.as_ref().expect("no faults in play");
            let w = w.as_ref().expect("no faults in play");
            assert_eq!(
                bits(&g.top),
                bits(&w.top),
                "round {round} position {pos} diverged from fresh execution"
            );
            assert!(!g.partial && !w.partial);
        }
        let stats = cached.result_cache().expect("cache configured").stats();
        assert!(
            stats.bytes <= entry as u64 * 4,
            "round {round}: resident {} bytes exceed the bound",
            stats.bytes
        );
    }

    // The interleaving genuinely exercised every regime.
    let cache_stats = cached.result_cache().expect("cache configured").stats();
    assert!(cache_stats.hits > 0, "schedule produced no hits");
    assert!(cache_stats.misses > 0, "schedule produced no misses");
    assert!(
        cache_stats.evictions > 0,
        "capacity never evicted: the bound was not tight enough to test"
    );
    let stats = cached.stats();
    assert!(stats.queries_cache_hit > 0);
    assert_eq!(
        stats.queries_served,
        plan.len(),
        "every position answered exactly once"
    );
    // The fresh session scanned postings for every position; the cached
    // one skipped the hits entirely.
    assert!(stats.postings_scanned < fresh.stats().postings_scanned);
    // Work counters on a hit replay the original execution's report.
    assert!(stats.plans_memoized > 0, "planned shards memoized nothing");
    assert!(cached.shutdown().is_clean());
    assert!(fresh.shutdown().is_clean());
}

#[test]
fn fully_cached_batches_never_touch_the_pool() {
    let (idx, queries) = fixture();
    let mut s = session(&idx, Some(CacheConfig::default()));
    let batch: Vec<BatchQuery> = queries[..3]
        .iter()
        .map(|q| BatchQuery {
            terms: q.terms.clone(),
            n: 5,
        })
        .collect();
    let first = s.submit_many(&batch).expect("admission blocks");
    let admitted_before = s.metrics().counter("serve.batches").get();
    let second = s.submit_many(&batch).expect("hits bypass admission");
    let admitted_after = s.metrics().counter("serve.batches").get();
    assert_eq!(
        admitted_before, admitted_after,
        "a fully cached batch must submit nothing to the pool"
    );
    for (a, b) in first.responses.iter().zip(&second.responses) {
        let a = a.as_ref().expect("ok");
        let b = b.as_ref().expect("ok");
        assert_eq!(bits(&a.top), bits(&b.top));
    }
    assert_eq!(s.stats().queries_cache_hit, 3);
    // EXPLAIN sees the resident entry without perturbing it.
    let text = s.explain(&queries[0].terms, 5).expect("explain renders");
    assert!(text.contains("cache: HIT(epoch=0)"), "explain: {text}");
    s.invalidate_epoch();
    let text = s.explain(&queries[0].terms, 5).expect("explain renders");
    assert!(text.contains("cache: MISS"), "explain: {text}");
    // ...and names the dispatch a solo miss would take: short queries run
    // in the caller, long ones go to the pool.
    let short = run_length(&idx, &queries[0].terms);
    assert!(short <= CALLER_RUNS_MAX_POSTINGS);
    assert!(
        text.contains(&format!(
            "dispatch: caller-runs (run length {short} ≤ {CALLER_RUNS_MAX_POSTINGS})"
        )),
        "explain: {text}"
    );
    let mut by_df: Vec<u32> = (0..idx.vocab_size() as u32).collect();
    by_df.sort_by_key(|&t| std::cmp::Reverse(idx.df(t).expect("in vocabulary")));
    let mut long = Vec::new();
    while run_length(&idx, &long) <= CALLER_RUNS_MAX_POSTINGS {
        long.push(by_df[long.len()]);
    }
    let text = s.explain(&long, 5).expect("explain renders");
    let needle = format!("dispatch: pool (run length {})", run_length(&idx, &long));
    assert!(text.contains(&needle), "explain: {text}");
    // The solo miss after the bump runs in the caller, counted once; the
    // long one is handed to the pool and not counted.
    assert_eq!(s.metrics().counter("serve.caller_runs").get(), 0);
    let again = s.submit(&queries[0].terms, 5).expect("ok");
    assert_eq!(bits(&again.top), bits(&first.expect_ok()[0].top));
    let _ = s.submit(&long, 5).expect("ok");
    assert_eq!(s.metrics().counter("serve.caller_runs").get(), 1);
}

#[test]
fn partial_responses_are_never_cached() {
    let (idx, queries) = fixture();
    let config = ServeConfig {
        shard_spec: ShardSpec::Range { shards: 2 },
        sparse_block: Some(64),
        cache: Some(CacheConfig::default()),
        deadline: Some(std::time::Duration::from_nanos(1)),
        admission: AdmissionPolicy::Block,
        ..ServeConfig::planned(2)
    };
    let mut s = ServeSession::new(Arc::clone(&idx), config).expect("builds");
    let q = &queries[0];
    assert!(run_length(&idx, &q.terms) <= CALLER_RUNS_MAX_POSTINGS);
    let first = s.submit(&q.terms, 10).expect("ok");
    assert!(first.partial, "a 1ns budget must expire");
    let _second = s.submit(&q.terms, 10).expect("ok");
    assert_eq!(
        s.stats().queries_cache_hit,
        0,
        "a truncated prefix must never be replayed as the full answer"
    );
    assert_eq!(s.result_cache().expect("cache configured").len(), 0);
    // Both calls were short solo misses on an idle pool: the deadline
    // and the no-partial-insert rule held on the caller-runs path.
    assert_eq!(s.metrics().counter("serve.caller_runs").get(), 2);
}
