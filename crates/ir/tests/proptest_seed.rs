//! Property tests for the pruned DAAT kernel's seed: the lower bound on a
//! query's N-th score that the kernel reads from the query's short runs
//! before it scans the long ones.
//!
//! Each case builds a random corpus with one term whose run is longer
//! than the seed pass's 512-posting cap and several short terms, and a
//! query over them that lists one short term twice. For every model and
//! N ∈ {1, 10, 100} the seed must be at most the exhaustive N-th score,
//! at least N documents must score at or above it, and the seeded pruned
//! kernel must answer bit for bit as the exhaustive merge, set-at-a-time
//! evaluation and a 2-shard sequential engine do. Run it alone with
//! `cargo test -p moa-ir --test proptest_seed`.

use std::sync::Arc;

use proptest::prelude::*;

use moa_ir::{
    DaatSearcher, FragmentSpec, InvertedIndex, PhysicalPlan, QueryScratch, RankingModel, Searcher,
    SwitchPolicy,
};
use moa_serve::{BatchQuery, ServeMode, ShardSpec, ShardedEngine};

/// splitmix64: the corpus generator's only source of randomness.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A corpus and a query from `seed`: term 0 has a run of 520 postings or
/// more, terms 1..=k (k = 3–6) have 20–300 each, tfs 1–8. The query holds term 0,
/// every short term, and its first short term a second time, shuffled.
fn corpus(seed: u64) -> (InvertedIndex, Vec<u32>) {
    let mut h = mix(seed);
    let mut next = |bound: u64| {
        h = mix(h);
        h % bound
    };
    let num_docs = 700 + next(900) as u32;
    let short_terms = 3 + next(4) as u32;
    let mut postings = Vec::new();
    let long_df = 520 + next(u64::from(num_docs - 520)) as u32;
    for t in 0..=short_terms {
        // Exactly `need` documents, each subset equally likely (selection
        // sampling).
        let mut need = if t == 0 {
            long_df
        } else {
            20 + next(281) as u32
        };
        for d in 0..num_docs {
            if next(u64::from(num_docs - d)) < u64::from(need) {
                postings.push((t, d, 1 + next(8) as u32));
                need -= 1;
            }
        }
    }
    let mut doc_len = vec![0u32; num_docs as usize];
    for &(_, d, tf) in &postings {
        doc_len[d as usize] += tf;
    }
    for len in &mut doc_len {
        *len += 1 + next(40) as u32;
    }
    let index = InvertedIndex::from_sorted_postings(short_terms as usize + 1, doc_len, &postings)
        .expect("sorted, in-range postings");
    let mut query: Vec<u32> = (0..=short_terms).collect();
    query.push(1);
    for i in (1..query.len()).rev() {
        query.swap(i, next(i as u64 + 1) as usize);
    }
    (index, query)
}

fn bits(top: &[(u32, f64)]) -> Vec<(u32, u64)> {
    top.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn the_seed_never_exceeds_the_nth_score_and_answers_stay_exact(seed in 0u64..=u64::MAX) {
        let (index, query) = corpus(seed);
        assert!(index.df(0).expect("term 0 exists") > 512);
        let index = Arc::new(index);
        let mut scratch = QueryScratch::new();
        for model in [
            RankingModel::TfIdf,
            RankingModel::HiemstraLm { lambda: 0.15 },
            RankingModel::Bm25 { k1: 1.2, b: 0.75 },
        ] {
            let daat = DaatSearcher::new(&index, model);
            let mut saat = Searcher::new(&index, model);
            let mut sharded = ShardedEngine::build(
                Arc::clone(&index),
                ShardSpec::Range { shards: 2 },
                FragmentSpec::TermFraction(0.9),
                model,
                SwitchPolicy::default(),
                None,
            )
            .expect("the corpus shards cleanly");
            let ranked = daat
                .search_exhaustive(&query, index.num_docs())
                .expect("in-vocabulary query")
                .top;
            for n in [1usize, 10, 100] {
                let ctx = format!("seed {seed:#x} {model:?} n={n} q={query:?}");
                let floor = daat.seed(&query, n, &mut scratch).expect("in-vocabulary query");
                // Every short term has 20+ postings, so N ≤ 10 is always
                // seeded.
                prop_assert!(n > 10 || floor.is_some(), "{}: no seed", ctx);
                if let Some(floor) = floor {
                    prop_assert!(ranked.len() >= n, "{}: seeded below N documents", ctx);
                    let nth = ranked[n - 1].1;
                    prop_assert!(floor <= nth, "{}: seed {} > N-th score {}", ctx, floor, nth);
                    let above = ranked.iter().filter(|&&(_, s)| s >= floor).count();
                    prop_assert!(above >= n, "{}: {} documents reach the seed", ctx, above);
                }
                let pruned = daat.search(&query, n).expect("in-vocabulary query");
                prop_assert_eq!(pruned.seeded, usize::from(floor.is_some()), "{}", ctx);
                let want = bits(&ranked[..n.min(ranked.len())]);
                prop_assert_eq!(bits(&pruned.top), want.clone(), "{}: pruned", ctx);
                prop_assert_eq!(
                    bits(&daat.search_exhaustive(&query, n).expect("in-vocabulary query").top),
                    want.clone(),
                    "{}: exhaustive",
                    ctx
                );
                prop_assert_eq!(
                    bits(&saat.search(&query, n).expect("in-vocabulary query").top),
                    want.clone(),
                    "{}: set-at-a-time",
                    ctx
                );
                let batch = [BatchQuery { terms: query.clone(), n }];
                let responses = sharded
                    .execute_batch_sequential(&batch, ServeMode::Fixed(PhysicalPlan::PrunedDaat), true)
                    .expect("in-vocabulary query");
                prop_assert_eq!(bits(&responses[0].top), want, "{}: 2 shards", ctx);
            }
        }
    }
}
