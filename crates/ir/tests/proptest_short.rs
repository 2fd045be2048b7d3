//! Property tests for the pruned DAAT kernel's short-run merge: the path
//! that answers a query whose every run holds at most 512 postings in the
//! index searched, where no bound has anything to prune.
//!
//! Each case builds a random corpus of 2–6 terms and a query over all of
//! them that lists one term twice. In the all-short corpora every run is
//! at most 512 postings; the boundary corpora make the longest run exactly
//! 512 (still merged) and exactly 513 (the windowed kernel). For the three
//! default models, BM25 with `b = 3.0` (whose weights can be negative) and
//! N ∈ {1, 10, 100, num_docs}, the pruned kernel must answer bit for bit
//! as the exhaustive merge, set-at-a-time evaluation and a 2-shard
//! sequential engine do, and its work ledger must balance against the
//! query's postings. Run it alone with
//! `cargo test -p moa-ir --test proptest_short`.

use std::sync::Arc;

use proptest::prelude::*;

use moa_ir::{
    DaatSearcher, FragmentSpec, InvertedIndex, PhysicalPlan, RankingModel, Searcher, SwitchPolicy,
};
use moa_serve::{BatchQuery, ServeMode, ShardSpec, ShardedEngine};

/// The longest run the merge answers.
const SHORT: u32 = 512;

/// splitmix64: the corpus generator's only source of randomness.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A corpus and a query from `seed`: 600–1 599 documents, 2–6 terms with
/// runs of 1–512 postings (a third of them under 20), tfs 1–8. With
/// `longest`, term 0's run has exactly that many postings. The query holds
/// every term, and its first term a second time, shuffled.
fn corpus(seed: u64, longest: Option<u32>) -> (InvertedIndex, Vec<u32>) {
    let mut h = mix(seed);
    let mut next = |bound: u64| {
        h = mix(h);
        h % bound
    };
    let num_docs = 600 + next(1_000) as u32;
    let terms = 2 + next(5) as u32;
    let mut postings = Vec::new();
    for t in 0..terms {
        // Exactly `need` documents, each subset equally likely (selection
        // sampling).
        let mut need = match (t, longest) {
            (0, Some(len)) => len,
            _ if next(3) == 0 => 1 + next(19) as u32,
            _ => 1 + next(u64::from(SHORT)) as u32,
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
    let index = InvertedIndex::from_sorted_postings(terms as usize, doc_len, &postings)
        .expect("sorted, in-range postings");
    let mut query: Vec<u32> = (0..terms).collect();
    query.push(0);
    for i in (1..query.len()).rev() {
        query.swap(i, next(i as u64 + 1) as usize);
    }
    (index, query)
}

fn bits(top: &[(u32, f64)]) -> Vec<(u32, u64)> {
    top.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// Every path answers `query` on `index` bit for bit as the exhaustive
/// merge does, for every model and N, and the pruned kernel's ledger
/// balances. `merged` is whether the unsharded pruned kernel must take
/// the short-run merge.
fn check(index: InvertedIndex, query: &[u32], merged: bool, ctx: &str) {
    let volume: usize = query
        .iter()
        .map(|&t| index.run_len(t).expect("in vocabulary"))
        .sum();
    let index = Arc::new(index);
    for model in [
        RankingModel::TfIdf,
        RankingModel::HiemstraLm { lambda: 0.15 },
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
        RankingModel::Bm25 { k1: 1.2, b: 3.0 },
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
        for n in [1usize, 10, 100, index.num_docs()] {
            let ctx = format!("{ctx} {model:?} n={n} q={query:?}");
            let want = bits(&daat.search_exhaustive(query, n).expect("in vocabulary").top);
            let pruned = daat.search(query, n).expect("in vocabulary");
            prop_assert_eq!(bits(&pruned.top), want.clone(), "{}: pruned", ctx);
            prop_assert_eq!(pruned.short_merged, usize::from(merged), "{}", ctx);
            prop_assert_eq!(
                pruned.postings_scanned + pruned.docs_skipped,
                volume,
                "{}: work ledger",
                ctx
            );
            if merged {
                prop_assert_eq!(pruned.postings_scanned, volume, "{}", ctx);
                prop_assert_eq!(pruned.seeks + pruned.bound_exits, 0, "{}", ctx);
            }
            prop_assert_eq!(
                bits(&saat.search(query, n).expect("in vocabulary").top),
                want.clone(),
                "{}: set-at-a-time",
                ctx
            );
            let batch = [BatchQuery {
                terms: query.to_vec(),
                n,
            }];
            let responses = sharded
                .execute_batch_sequential(&batch, ServeMode::Fixed(PhysicalPlan::PrunedDaat), true)
                .expect("in vocabulary");
            let work = &responses[0].work;
            prop_assert_eq!(bits(&responses[0].top), want, "{}: 2 shards", ctx);
            prop_assert_eq!(
                work.postings_scanned + work.docs_skipped,
                volume,
                "{}: 2-shard work ledger",
                ctx
            );
            if merged {
                // A shard's runs are no longer than the whole index's.
                prop_assert_eq!(work.short_merged, 2, "{}", ctx);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn all_short_queries_answer_exactly_through_the_merge(seed in 0u64..=u64::MAX) {
        let (index, query) = corpus(seed, None);
        check(index, &query, true, &format!("seed {seed:#x}"));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    #[test]
    fn a_512_run_is_merged_and_a_513_run_takes_the_windows(seed in 0u64..=u64::MAX) {
        for longest in [SHORT, SHORT + 1] {
            let (index, query) = corpus(seed, Some(longest));
            prop_assert_eq!(index.run_len(0).expect("term 0 exists"), longest as usize);
            let ctx = format!("seed {seed:#x} longest {longest}");
            check(index, &query, longest <= SHORT, &ctx);
        }
    }
}
