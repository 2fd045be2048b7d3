//! Differential top-N oracle: every algorithm in the family is pinned to a
//! naive full-scan ground truth on seeded workloads.
//!
//! The oracle implementations here are deliberately *independent* of the
//! library code they check — plain exhaustive scans and full sorts written
//! in this file — so a bug in a shared helper (e.g. `TopNHeap` or
//! `InMemoryLists::topk_oracle`) cannot hide itself.
//!
//! Coverage, per the paper's survey of top-N techniques:
//!
//! * bounded-heap top-N and the full-sort baseline (`moa_topn::heap`),
//! * Fagin's FA, TA, and NRA over seeded correlated feature lists
//!   (`moa_corpus::FeatureLists` → `InMemoryLists`),
//! * Carey–Kossmann STOP AFTER policies against a filtered oracle,
//! * Donjerkovic–Ramakrishnan probabilistic cutoff: exactness after
//!   restarts plus the first-pass recall bound,
//! * the full corpus → index → fragmentation → algebra executor path
//!   against a from-scratch posting-scan scorer.

use std::sync::Arc;

use moa_core::{Env, Expr, IrRuntime, Planner, Session, Value};
use moa_corpus::{
    generate_queries, Collection, CollectionConfig, Correlation, DfBias, FeatureConfig,
    FeatureLists, QueryConfig,
};
use moa_ir::{
    BoundGate, DaatSearcher, EngineSet, ExecReport, FragSearcher, FragmentSpec, FragmentedIndex,
    InvertedIndex, PhysicalPlan, QueryScratch, RankingModel, Searcher, Strategy, SwitchPolicy,
};
use moa_storage::EquiWidthHistogram;
use moa_topn::{
    aggressive, conservative, fagin_topn, nra_topn, prob_topn, scan_stop, ta_topn, topn,
    topn_full_sort, Agg, InMemoryLists, SortedAccess,
};

// ---------------------------------------------------------------------------
// The naive oracles.
// ---------------------------------------------------------------------------

/// Full-sort top-n over scored tuples: score descending, object id ascending.
/// This is the ground truth every algorithm must reproduce.
fn oracle_topn(scored: &[(u32, f64)], n: usize) -> Vec<(u32, f64)> {
    let mut all = scored.to_vec();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(n);
    all
}

/// Exhaustive-scan top-n under a monotone aggregate over `grades[list][obj]`.
fn oracle_agg_topn(grades: &[Vec<f64>], n: usize, agg: &Agg) -> Vec<(u32, f64)> {
    let num_objects = grades.first().map_or(0, Vec::len);
    let scored: Vec<(u32, f64)> = (0..num_objects as u32)
        .map(|obj| {
            let per_list: Vec<f64> = grades.iter().map(|l| l[obj as usize]).collect();
            (obj, agg.apply(&per_list))
        })
        .collect();
    oracle_topn(&scored, n)
}

/// Fraction of the oracle's object set that `got` recovered.
fn recall(got: &[(u32, f64)], oracle: &[(u32, f64)]) -> f64 {
    if oracle.is_empty() {
        return 1.0;
    }
    let want: std::collections::HashSet<u32> = oracle.iter().map(|&(o, _)| o).collect();
    let hit = got.iter().filter(|&&(o, _)| want.contains(&o)).count();
    hit as f64 / want.len() as f64
}

/// Asserts two ranked lists agree: same length, identical score sequences,
/// and rank-for-rank score agreement regardless of float-tie ordering.
fn assert_ranking_matches(got: &[(u32, f64)], want: &[(u32, f64)], context: &str) {
    assert_eq!(got.len(), want.len(), "{context}: length mismatch");
    for (rank, (g, w)) in got.iter().zip(want).enumerate() {
        assert!(
            (g.1 - w.1).abs() <= 1e-9,
            "{context}: score mismatch at rank {rank}: got {:?} want {:?}",
            g,
            w
        );
    }
    // Descending order of the candidate.
    for pair in got.windows(2) {
        assert!(
            pair[0].1 >= pair[1].1 - 1e-12,
            "{context}: ranking not descending: {:?} then {:?}",
            pair[0],
            pair[1]
        );
    }
}

// ---------------------------------------------------------------------------
// Seeded workloads.
// ---------------------------------------------------------------------------

/// `(label, objects, lists, correlation, seed)` — the exact-safe middleware
/// configurations the acceptance criteria require (≥ 3, different regimes).
fn middleware_workloads() -> Vec<(&'static str, FeatureConfig)> {
    vec![
        (
            "independent_small",
            FeatureConfig {
                num_objects: 64,
                num_lists: 2,
                correlation: Correlation::Independent,
                seed: 0xA11CE,
            },
        ),
        (
            "correlated_mid",
            FeatureConfig {
                num_objects: 400,
                num_lists: 3,
                correlation: Correlation::Correlated(0.7),
                seed: 0xB0B1,
            },
        ),
        (
            "anticorrelated_wide",
            FeatureConfig {
                num_objects: 250,
                num_lists: 4,
                correlation: Correlation::AntiCorrelated(0.6),
                seed: 0xC4A7,
            },
        ),
        (
            "single_list",
            FeatureConfig {
                num_objects: 150,
                num_lists: 1,
                correlation: Correlation::Independent,
                seed: 0x5EED,
            },
        ),
    ]
}

fn grades_of(fl: &FeatureLists) -> Vec<Vec<f64>> {
    (0..fl.num_lists())
        .map(|i| {
            (0..fl.num_objects() as u32)
                .map(|o| fl.grade(i, o))
                .collect()
        })
        .collect()
}

/// A deterministic scored relation derived from one feature list.
fn scored_relation(config: &FeatureConfig) -> Vec<(u32, f64)> {
    let fl = FeatureLists::generate(config).expect("valid workload config");
    (0..fl.num_objects() as u32)
        .map(|o| (o, fl.grade(0, o)))
        .collect()
}

// ---------------------------------------------------------------------------
// Middleware family: FA / TA / NRA / heap vs the oracle.
// ---------------------------------------------------------------------------

#[test]
fn fa_ta_heap_agree_with_oracle_on_seeded_workloads() {
    for (label, config) in middleware_workloads() {
        let fl = FeatureLists::generate(&config).expect("valid workload config");
        let grades = grades_of(&fl);
        let lists = InMemoryLists::from_grades(grades.clone());
        let aggs: Vec<Agg> = vec![
            Agg::Sum,
            Agg::Min,
            Agg::Max,
            Agg::Weighted((0..config.num_lists).map(|i| 0.5 + i as f64).collect()),
        ];
        for agg in &aggs {
            assert!(agg.validate(lists.num_lists()), "{label}: invalid agg");
            for n in [
                0usize,
                1,
                7,
                config.num_objects / 2,
                config.num_objects,
                config.num_objects + 10,
            ] {
                let oracle = oracle_agg_topn(&grades, n, agg);
                let fa = fagin_topn(&lists, n, agg);
                let ta = ta_topn(&lists, n, agg);
                assert_eq!(
                    fa.items, oracle,
                    "{label}: FA diverged from oracle (n={n}, agg={agg:?})"
                );
                assert_eq!(
                    ta.items, oracle,
                    "{label}: TA diverged from oracle (n={n}, agg={agg:?})"
                );
                // TA never does more sorted accesses than FA's full drain
                // bound: m lists × universe.
                let drain = lists.num_lists() * lists.num_objects();
                assert!(
                    ta.stats.sorted_accesses <= drain,
                    "{label}: TA over-scanned ({} > {drain})",
                    ta.stats.sorted_accesses
                );
            }
        }
    }
}

#[test]
fn nra_matches_oracle_set_with_sound_bounds_and_no_random_access() {
    for (label, config) in middleware_workloads() {
        let fl = FeatureLists::generate(&config).expect("valid workload config");
        let grades = grades_of(&fl);
        let lists = InMemoryLists::from_grades(grades.clone());
        for n in [1usize, 5, 20, config.num_objects] {
            let oracle = oracle_agg_topn(&grades, n, &Agg::Sum);
            let nra = nra_topn(&lists, n, &Agg::Sum);
            let mut got: Vec<u32> = nra.items.iter().map(|&(o, _)| o).collect();
            let mut want: Vec<u32> = oracle.iter().map(|&(o, _)| o).collect();
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want, "{label}: NRA object set diverged (n={n})");
            // NRA reports lower bounds; each must not exceed the exact score.
            for &(obj, reported) in &nra.items {
                let exact: f64 = grades.iter().map(|l| l[obj as usize]).sum();
                assert!(
                    reported <= exact + 1e-9,
                    "{label}: NRA bound unsound for obj {obj}: {reported} > {exact}"
                );
            }
            assert_eq!(
                nra.stats.random_accesses, 0,
                "{label}: NRA did random access"
            );
        }
    }
}

#[test]
fn bounded_heap_matches_full_sort_and_oracle() {
    for (label, config) in middleware_workloads() {
        let scored = scored_relation(&config);
        for n in [
            0usize,
            1,
            13,
            scored.len() / 2,
            scored.len(),
            scored.len() + 5,
        ] {
            let oracle = oracle_topn(&scored, n);
            assert_eq!(
                topn(scored.clone(), n),
                oracle,
                "{label}: heap top-n (n={n})"
            );
            assert_eq!(
                topn_full_sort(scored.clone(), n),
                oracle,
                "{label}: full-sort top-n (n={n})"
            );
        }
    }
}

// ---------------------------------------------------------------------------
// STOP AFTER policies vs the filtered oracle.
// ---------------------------------------------------------------------------

#[test]
fn stop_after_policies_agree_with_filtered_oracle() {
    for (label, config) in middleware_workloads() {
        let scored = scored_relation(&config);
        for modulo in [1u32, 3, 10] {
            let pred = move |obj: u32| obj.is_multiple_of(modulo);
            let filtered: Vec<(u32, f64)> =
                scored.iter().copied().filter(|&(o, _)| pred(o)).collect();
            for n in [1usize, 8, 40, scored.len()] {
                let oracle = oracle_topn(&filtered, n);
                let cons = conservative(&scored, n, pred);
                assert_eq!(
                    cons.items, oracle,
                    "{label}: conservative diverged (n={n}, modulo={modulo})"
                );
                // Conservative never restarts and touches everything.
                assert_eq!(cons.restarts, 0);
                assert_eq!(cons.tuples_processed, scored.len());
                // Aggressive agrees regardless of estimate quality; sweep
                // optimistic and pessimistic pass-rate estimates.
                for est in [0.05f64, 1.0 / f64::from(modulo), 0.95] {
                    let aggr = aggressive(&scored, n, est, 1.2, pred);
                    assert_eq!(
                        aggr.items, oracle,
                        "{label}: aggressive diverged (n={n}, modulo={modulo}, est={est})"
                    );
                }
            }
        }
        // Scan-stop on a best-first input is exactly the oracle prefix.
        let sorted = oracle_topn(&scored, scored.len());
        for n in [0usize, 1, 17, scored.len() + 3] {
            let r = scan_stop(&sorted, n);
            assert_eq!(
                r.items,
                oracle_topn(&scored, n),
                "{label}: scan_stop (n={n})"
            );
            assert_eq!(r.tuples_processed, n.min(sorted.len()));
        }
    }
}

// ---------------------------------------------------------------------------
// Probabilistic cutoff: exact after restarts, recall bound on the first pass.
// ---------------------------------------------------------------------------

#[test]
fn probabilistic_cutoff_is_exact_and_first_pass_recall_is_bounded() {
    for (label, config) in middleware_workloads() {
        let scored = scored_relation(&config);
        let values: Vec<f64> = scored.iter().map(|&(_, s)| s).collect();
        let hist = EquiWidthHistogram::build(&values, 64).expect("non-empty scores");
        let mut prev_cutoff = f64::INFINITY;
        for confidence in [0.5f64, 0.9, 0.99] {
            for n in [1usize, 10, scored.len() / 3] {
                let oracle = oracle_topn(&scored, n);
                let r = prob_topn(&scored, n, &hist, confidence).expect("valid confidence");
                // The restart loop makes the final answer exact — recall 1.0,
                // which trivially satisfies any confidence-level bound.
                assert_eq!(
                    r.items, oracle,
                    "{label}: prob_topn diverged (n={n}, confidence={confidence})"
                );
                assert!((recall(&r.items, &oracle) - 1.0).abs() < f64::EPSILON);
                // First-pass recall bound: when the optimizer's gamble paid
                // off (no restart), the first pass alone must already contain
                // the full top-n — that is exactly the event the confidence
                // level prices.
                let first_pass: Vec<(u32, f64)> = scored
                    .iter()
                    .copied()
                    .filter(|&(_, s)| s >= r.initial_cutoff)
                    .collect();
                assert_eq!(first_pass.len(), r.first_pass_survivors);
                if r.restarts == 0 {
                    let fp_recall = recall(&oracle_topn(&first_pass, n), &oracle);
                    assert!(
                        (fp_recall - 1.0).abs() < f64::EPSILON,
                        "{label}: zero-restart run missed top-n (recall {fp_recall})"
                    );
                } else {
                    // A restart means the first pass was short — the report
                    // must be consistent about that.
                    assert!(
                        r.first_pass_survivors < n,
                        "{label}: restarted with {} ≥ n={n} survivors",
                        r.first_pass_survivors
                    );
                    assert!(r.tuples_scanned > scored.len());
                }
            }
            // Higher confidence can only lower (relax) the initial cutoff.
            let r = prob_topn(&scored, 10, &hist, confidence).expect("valid confidence");
            assert!(
                r.initial_cutoff <= prev_cutoff + 1e-12,
                "{label}: cutoff not monotone in confidence"
            );
            prev_cutoff = r.initial_cutoff;
        }

        // A stale histogram (believes scores are twice as large) forces
        // restarts, yet the answer stays exact: the error of the
        // probabilistic variant is bounded by its restart mechanism.
        let inflated: Vec<f64> = values.iter().map(|v| v * 2.0 + 1.0).collect();
        let stale = EquiWidthHistogram::build(&inflated, 64).expect("non-empty scores");
        let n = 10usize.min(scored.len());
        let r = prob_topn(&scored, n, &stale, 0.9).expect("valid confidence");
        assert_eq!(
            r.items,
            oracle_topn(&scored, n),
            "{label}: stale histogram broke exactness"
        );
        assert!(
            r.restarts >= 1,
            "{label}: expected restarts under stale histogram"
        );
    }
}

// ---------------------------------------------------------------------------
// End to end: corpus → index → fragmentation → executor vs a posting-scan
// oracle that never touches the index.
// ---------------------------------------------------------------------------

/// Scores every document by scanning the *collection's* raw postings —
/// independent of `InvertedIndex`, fragments, accumulators, and heaps.
fn naive_document_scores(
    collection: &Collection,
    model: RankingModel,
    terms: &[u32],
) -> Vec<(u32, f64)> {
    // Rebuild collection statistics from raw postings.
    let stats = moa_ir::CollectionStats {
        num_docs: collection.num_docs(),
        avg_doc_len: collection.total_tokens() as f64 / collection.num_docs().max(1) as f64,
        total_tokens: collection.total_tokens(),
    };
    let mut scores = vec![0.0f64; collection.num_docs()];
    let mut touched = vec![false; collection.num_docs()];
    for &term in terms {
        let df = collection.df()[term as usize];
        let cf = collection.cf()[term as usize];
        for p in collection.postings_for_term(term) {
            let doc_len = collection.doc_len()[p.doc as usize];
            scores[p.doc as usize] += model.term_weight(p.tf, df, cf, doc_len, &stats);
            touched[p.doc as usize] = true;
        }
    }
    (0..collection.num_docs() as u32)
        .filter(|&d| touched[d as usize])
        .map(|d| (d, scores[d as usize]))
        .collect()
}

fn e2e_collections() -> Vec<(&'static str, CollectionConfig)> {
    vec![
        ("tiny_preset", CollectionConfig::tiny()),
        (
            "mid_zipfian",
            CollectionConfig {
                num_docs: 300,
                vocab_size: 900,
                avg_doc_len: 30,
                zipf_exponent: 1.1,
                num_topics: 8,
                topic_mix: 0.4,
                seed: 0xD1FF,
            },
        ),
        (
            "flat_vocabulary",
            CollectionConfig {
                num_docs: 150,
                vocab_size: 200,
                avg_doc_len: 15,
                zipf_exponent: 0.7,
                num_topics: 3,
                topic_mix: 0.2,
                seed: 0x02AC,
            },
        ),
    ]
}

#[test]
fn every_engine_path_matches_the_posting_scan_oracle() {
    for (label, config) in e2e_collections() {
        let collection = Collection::generate(config).expect("valid collection config");
        let model = RankingModel::default();
        let index = Arc::new(InvertedIndex::from_collection(&collection));
        let frag = Arc::new(
            FragmentedIndex::build(Arc::clone(&index), FragmentSpec::TermFraction(0.9))
                .expect("non-empty collection"),
        );
        let queries = generate_queries(
            &collection,
            &QueryConfig {
                num_queries: 8,
                seed: 0x9E2E,
                ..QueryConfig::default()
            },
        )
        .expect("valid workload");

        let mut eaat = Searcher::new(&index, model);
        let daat = DaatSearcher::new(&index, model);
        let mut frag_searcher =
            FragSearcher::new(Arc::clone(&frag), model, SwitchPolicy::default());
        let rt = Arc::new(IrRuntime::new(
            Arc::clone(&frag),
            model,
            SwitchPolicy::default(),
            Strategy::FullScan,
        ));
        let session = Session::with_ir(rt);

        for (qi, q) in queries.iter().enumerate() {
            let n = 1 + (qi % 3) * 7; // 1, 8, 15, 1, ...
            let scored = naive_document_scores(&collection, model, &q.terms);
            let oracle = oracle_topn(&scored, n);
            let context = format!("{label} q{qi} n={n}");

            // Element-addressable set-at-a-time engine.
            let r = eaat.search(&q.terms, n).expect("eaat query");
            assert_ranking_matches(&r.top, &oracle, &format!("{context}: eaat"));

            // Document-at-a-time engine.
            let r = daat.search(&q.terms, n).expect("daat query");
            assert_ranking_matches(&r.top, &oracle, &format!("{context}: daat"));

            // Fragmented scan engine, exact-safe strategies only.
            let r = frag_searcher
                .search(&q.terms, n, Strategy::FullScan)
                .expect("frag full scan");
            assert_ranking_matches(&r.top, &oracle, &format!("{context}: frag full scan"));
            let r = frag_searcher
                .search(&q.terms, n, Strategy::Switch { use_b_index: true })
                .expect("frag switch");
            // The switch strategy is only exact when it consulted B (or when
            // the query never needed B); the early-quality-check regime is
            // bounded, not exact — checked separately below.
            if r.used_b {
                assert_ranking_matches(&r.top, &oracle, &format!("{context}: frag switch"));
            }

            // The full algebra executor path (corpus → index → fragmentation
            // → optimizer → executor).
            let terms: Vec<i64> = q.terms.iter().map(|&t| i64::from(t)).collect();
            let expr = Expr::mm_topn(
                Expr::mm_rank(Expr::constant(Value::int_list(terms))),
                n as i64,
            );
            let report = session.run(&expr, &Env::new()).expect("executor query");
            let ranked = report.value.as_ranked().expect("ranked result");
            assert_ranking_matches(ranked, &oracle, &format!("{context}: executor"));
        }
    }
}

/// The pruned DAAT kernel's windows, whatever the run lengths, with the
/// ranking in the report. Every run of these small collections is at most
/// 512 postings, so `DaatSearcher::search` would answer their queries with
/// the short-run merge instead.
fn windowed(daat: &DaatSearcher<'_>, terms: &[u32], n: usize) -> moa_ir::Result<ExecReport> {
    let mut scratch = QueryScratch::new();
    let report = daat.search_windowed_into(terms, n, &BoundGate::none(), &mut scratch)?;
    Ok(ExecReport {
        top: scratch.out,
        ..report
    })
}

#[test]
fn pruned_daat_is_bit_exact_with_the_naive_oracle_for_every_model_and_n() {
    // The MaxScore-pruned DAAT kernel must reproduce the naive full-scan
    // oracle *exactly* — same documents, same order, same f64 bits — for
    // every ranking model and for N below, at, and beyond the matching-set
    // size. Bit-equality (not tolerance) is possible because
    // `RankingModel::term_weight` delegates to the same `TermScorer` +
    // `doc_norm` floating-point path the pruned kernel executes, and the
    // kernel sums per-document contributions in query-term order.
    let models = [
        RankingModel::TfIdf,
        RankingModel::HiemstraLm { lambda: 0.15 },
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
    ];
    for (label, config) in e2e_collections() {
        let collection = Collection::generate(config).expect("valid collection config");
        let index = Arc::new(InvertedIndex::from_collection(&collection));
        let queries = generate_queries(
            &collection,
            &QueryConfig {
                num_queries: 10,
                seed: 0xDAA7,
                ..QueryConfig::default()
            },
        )
        .expect("valid workload");
        for model in models {
            let daat = DaatSearcher::new(&index, model);
            for (qi, q) in queries.iter().enumerate() {
                let scored = naive_document_scores(&collection, model, &q.terms);
                // N = 1, N = 10, and N >= every match (the full ranking).
                for n in [1usize, 10, scored.len() + 7] {
                    let oracle = oracle_topn(&scored, n);
                    let rep = windowed(&daat, &q.terms, n).expect("pruned daat query");
                    assert_eq!(
                        rep.top, oracle,
                        "{label} q{qi} n={n} {model:?}: pruned DAAT != naive oracle"
                    );
                    // The work ledger must balance: scored + bypassed
                    // postings account for the query's full volume.
                    let volume: usize =
                        q.terms.iter().map(|&t| index.df(t).unwrap() as usize).sum();
                    assert_eq!(
                        rep.postings_scanned + rep.docs_skipped,
                        volume,
                        "{label} q{qi} n={n} {model:?}: work ledger"
                    );
                    // With n beyond every match nothing may be pruned.
                    if n > scored.len() {
                        assert_eq!(rep.postings_scanned, volume);
                        assert_eq!(rep.bound_exits, 0);
                    }
                }
            }
        }
    }
}

#[test]
fn pruned_and_exhaustive_daat_agree_bit_for_bit_on_seeded_workloads() {
    for (label, config) in e2e_collections() {
        let collection = Collection::generate(config).expect("valid collection config");
        let index = Arc::new(InvertedIndex::from_collection(&collection));
        let daat = DaatSearcher::new(&index, RankingModel::default());
        let queries = generate_queries(
            &collection,
            &QueryConfig {
                num_queries: 12,
                seed: 0xB177,
                ..QueryConfig::default()
            },
        )
        .expect("valid workload");
        for q in &queries {
            for n in [1usize, 5, 10, 50] {
                let pruned = windowed(&daat, &q.terms, n).expect("pruned query");
                let full = daat
                    .search_exhaustive(&q.terms, n)
                    .expect("exhaustive query");
                assert_eq!(pruned.top, full.top, "{label} {:?} n={n}", q.terms);
                assert!(pruned.postings_scanned <= full.postings_scanned);
            }
        }
    }
}

#[test]
fn sharded_serving_is_bit_identical_to_single_shard_and_the_naive_oracle() {
    // The serving layer's merged answer is pinned twice: against the
    // from-scratch posting-scan oracle in this file (independent of all
    // library code), and *bit-for-bit* against a single-shard engine —
    // for every ranking model, N below/at/beyond the matching set, and
    // shard counts 2 and 4, with cross-shard threshold propagation on.
    use moa_serve::{ServeConfig, ServeSession, ShardSpec};
    let models = [
        RankingModel::TfIdf,
        RankingModel::HiemstraLm { lambda: 0.15 },
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
    ];
    for (label, config) in e2e_collections() {
        let collection = Collection::generate(config).expect("valid collection config");
        let index = Arc::new(InvertedIndex::from_collection(&collection));
        let queries = generate_queries(
            &collection,
            &QueryConfig {
                num_queries: 6,
                seed: 0x5E11,
                ..QueryConfig::default()
            },
        )
        .expect("valid workload");
        for model in models {
            let session_config = |shards: usize| ServeConfig {
                shard_spec: ShardSpec::Range { shards },
                model,
                ..ServeConfig::planned(shards)
            };
            let mut single = ServeSession::new(Arc::clone(&index), session_config(1))
                .expect("single-shard session");
            for shards in [2usize, 4] {
                let mut sharded = ServeSession::new(Arc::clone(&index), session_config(shards))
                    .expect("sharded session");
                for (qi, q) in queries.iter().enumerate() {
                    let scored = naive_document_scores(&collection, model, &q.terms);
                    for n in [1usize, 10, scored.len() + 3] {
                        let oracle = oracle_topn(&scored, n);
                        let want = single.submit(&q.terms, n).expect("single-shard query");
                        let got = sharded.submit(&q.terms, n).expect("sharded query");
                        assert_eq!(
                            got.top, want.top,
                            "{label} q{qi} n={n} {model:?} x{shards}: sharded != single-shard"
                        );
                        assert_eq!(
                            got.top, oracle,
                            "{label} q{qi} n={n} {model:?} x{shards}: sharded != naive oracle"
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn pruned_daat_across_production_windows_on_two_shards() {
    // The pruned kernel's phase 2 walks WINDOW document ids at a time;
    // the fixtures above fit in one window. This collection of short
    // documents spans more than three windows, and it runs on two range
    // shards, so each shard crosses window boundaries too. Answers must
    // stay bit-identical to the naive oracle, and cross-shard threshold
    // propagation must never scan more than the oblivious run over the
    // workload (shards run one after another, so the counts are
    // reproducible). The check is on the workload's total:
    // query by query a higher threshold can scan more, because it can move
    // a term to the non-essential side, where its bound at a candidate is
    // a block maximum rather than its presence in the window's lanes.
    use moa_ir::daat::WINDOW;
    use moa_serve::{BatchQuery, ServeMode, ShardSpec, ShardedEngine};
    let collection = Collection::generate(CollectionConfig {
        num_docs: 3 * WINDOW + 2_000,
        vocab_size: 1_500,
        avg_doc_len: 8,
        zipf_exponent: 1.1,
        num_topics: 10,
        topic_mix: 0.3,
        seed: 0x3A1D,
    })
    .expect("valid collection config");
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    let queries = generate_queries(
        &collection,
        &QueryConfig {
            num_queries: 8,
            bias: DfBias::TrecLike { high_df_mix: 0.5 },
            seed: 0x3A1E,
            ..QueryConfig::default()
        },
    )
    .expect("valid workload");
    let models = [
        RankingModel::TfIdf,
        RankingModel::HiemstraLm { lambda: 0.15 },
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
    ];
    for model in models {
        let mut engine = ShardedEngine::build(
            Arc::clone(&index),
            ShardSpec::Range { shards: 2 },
            FragmentSpec::TermFraction(0.9),
            model,
            SwitchPolicy::default(),
            None,
        )
        .expect("collection shards cleanly");
        let (mut scanned_on, mut scanned_off) = (0usize, 0usize);
        for (qi, q) in queries.iter().enumerate() {
            let scored = naive_document_scores(&collection, model, &q.terms);
            for n in [1usize, 10, 100] {
                let oracle = oracle_topn(&scored, n);
                let batch = [BatchQuery {
                    terms: q.terms.clone(),
                    n,
                }];
                let mut run = |propagate: bool| {
                    engine
                        .execute_batch_sequential(
                            &batch,
                            ServeMode::Fixed(PhysicalPlan::PrunedDaat),
                            propagate,
                        )
                        .expect("in-vocabulary query")
                        .pop()
                        .expect("one response")
                };
                let on = run(true);
                let off = run(false);
                let context = format!("q{qi} n={n} {model:?}");
                assert_eq!(on.top, oracle, "{context}: propagated != naive oracle");
                assert_eq!(off.top, oracle, "{context}: oblivious != naive oracle");
                scanned_on += on.work.postings_scanned;
                scanned_off += off.work.postings_scanned;
            }
        }
        assert!(
            scanned_on <= scanned_off,
            "{model:?}: propagation scanned {scanned_on} > oblivious {scanned_off}"
        );
    }
}

#[test]
fn planner_executed_topn_is_bit_identical_to_the_oracle_for_every_exact_strategy() {
    // The cost-driven planner may pick any *exact* physical operator: the
    // answer must be bit-identical to the naive full-scan oracle no
    // matter which one wins — same documents, same order, same f64 bits —
    // for every ranking model and for N below, at, and beyond the
    // matching-set size. The rejected exact alternatives are executed
    // too: a plan the planner *could* pick under other weights must be
    // just as exact.
    let models = [
        RankingModel::TfIdf,
        RankingModel::HiemstraLm { lambda: 0.15 },
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
    ];
    for (label, config) in e2e_collections() {
        let collection = Collection::generate(config).expect("valid collection config");
        let index = Arc::new(InvertedIndex::from_collection(&collection));
        let mut frag = FragmentedIndex::build(Arc::clone(&index), FragmentSpec::TermFraction(0.9))
            .expect("non-empty collection");
        frag.set_sparse_block_a(128).expect("positive block size");
        frag.set_sparse_block_b(128).expect("positive block size");
        let frag = Arc::new(frag);
        let queries = generate_queries(
            &collection,
            &QueryConfig {
                num_queries: 6,
                seed: 0x9AB5,
                ..QueryConfig::default()
            },
        )
        .expect("valid workload");
        for model in models {
            let planner = Planner::default();
            let mut engines = EngineSet::new(Arc::clone(&frag), model, SwitchPolicy::default());
            for (qi, q) in queries.iter().enumerate() {
                let scored = naive_document_scores(&collection, model, &q.terms);
                for n in [1usize, 10, scored.len() + 7] {
                    let oracle = oracle_topn(&scored, n);
                    let decision = planner
                        .plan(&q.terms, n, &frag, model, SwitchPolicy::default())
                        .expect("plannable query");
                    let chosen = decision.chosen_alternative();
                    assert!(chosen.exact && chosen.feasible, "{label}: unsafe pick");
                    for alt in &decision.alternatives {
                        if !(alt.exact && alt.feasible) {
                            continue;
                        }
                        let rep = engines
                            .execute(alt.plan, &q.terms, n)
                            .expect("executable plan");
                        assert_eq!(
                            rep.top,
                            oracle,
                            "{label} q{qi} n={n} {model:?}: {} != naive oracle",
                            alt.plan.name()
                        );
                    }
                }
            }
        }
    }
}

#[test]
fn empty_and_duplicate_queries_agree_across_every_engine_path() {
    // Pinned behavior: the empty query returns an empty ranking with zero
    // work on every path, and a duplicated query term contributes once
    // per occurrence (bag-of-words semantics) on every path — both
    // bit-identical to the naive oracle.
    for (label, config) in e2e_collections() {
        let collection = Collection::generate(config).expect("valid collection config");
        let model = RankingModel::default();
        let index = Arc::new(InvertedIndex::from_collection(&collection));
        let frag = Arc::new(
            FragmentedIndex::build(Arc::clone(&index), FragmentSpec::TermFraction(0.9))
                .expect("non-empty collection"),
        );
        let mut engines = EngineSet::new(Arc::clone(&frag), model, SwitchPolicy::default());
        let all_plans = PhysicalPlan::ALL;

        // Empty query: empty answer, nothing inspected, on every plan.
        for plan in all_plans {
            let rep = engines.execute(plan, &[], 10).expect("empty query runs");
            assert!(rep.top.is_empty(), "{label}: {} non-empty", plan.name());
            assert_eq!(
                rep.postings_scanned,
                0,
                "{label}: {} scanned on empty query",
                plan.name()
            );
        }

        // Duplicated term: the oracle scores it once per occurrence.
        let terms = index.terms_by_df_asc();
        let q = vec![
            terms[terms.len() - 1],
            terms[terms.len() - 1],
            terms[terms.len() / 2],
        ];
        let scored = naive_document_scores(&collection, model, &q);
        for n in [1usize, 10, scored.len() + 3] {
            let oracle = oracle_topn(&scored, n);
            for plan in [
                PhysicalPlan::PrunedDaat,
                PhysicalPlan::ExhaustiveDaat,
                PhysicalPlan::SetAtATime,
                PhysicalPlan::Fragmented(Strategy::FullScan),
            ] {
                let rep = engines.execute(plan, &q, n).expect("duplicate query runs");
                assert_eq!(
                    rep.top,
                    oracle,
                    "{label} n={n}: {} mishandles duplicate terms",
                    plan.name()
                );
            }
        }

        // Unknown terms error uniformly.
        for plan in all_plans {
            assert!(
                engines.execute(plan, &[u32::MAX], 5).is_err(),
                "{label}: {} accepted an unknown term",
                plan.name()
            );
        }
    }
}

#[test]
fn unsafe_a_only_strategy_error_is_one_sided_and_bounded() {
    // A-only is the paper's deliberately *unsafe* strategy: it may lose
    // score mass from fragment B but can never invent documents or inflate
    // scores. The differential harness pins that one-sided error down.
    for (label, config) in e2e_collections() {
        let collection = Collection::generate(config).expect("valid collection config");
        let model = RankingModel::default();
        let index = Arc::new(InvertedIndex::from_collection(&collection));
        let frag = Arc::new(
            FragmentedIndex::build(Arc::clone(&index), FragmentSpec::TermFraction(0.9))
                .expect("non-empty collection"),
        );
        let mut searcher = FragSearcher::new(Arc::clone(&frag), model, SwitchPolicy::default());
        let queries = generate_queries(
            &collection,
            &QueryConfig {
                num_queries: 6,
                seed: 0xAB1E,
                ..QueryConfig::default()
            },
        )
        .expect("valid workload");
        for q in &queries {
            let scored = naive_document_scores(&collection, model, &q.terms);
            let full: std::collections::HashMap<u32, f64> = scored.iter().copied().collect();
            let a_only = searcher
                .search(
                    &q.terms,
                    collection.num_docs(),
                    Strategy::AOnly { use_a_index: false },
                )
                .expect("a-only query");
            for &(doc, score) in &a_only.top {
                let exact = full
                    .get(&doc)
                    .copied()
                    .unwrap_or_else(|| panic!("{label}: A-only invented doc {doc}"));
                assert!(
                    score <= exact + 1e-9,
                    "{label}: A-only inflated doc {doc}: {score} > {exact}"
                );
            }
        }
    }
}

// ---------------------------------------------------------------------------
// Float-order ties: bounds are summed in one order, exact scores in another.
// ---------------------------------------------------------------------------

/// splitmix64 finalizer: a self-contained, seedable hash for the tie corpus.
fn mix(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

/// A corpus of exact duplicates, as `(vocab, doc_len, sorted postings)`.
/// Every document but one in 128 copies one of `TEMPLATES` templates —
/// same terms, same tfs, same length — with the copies scattered over
/// three pruning windows, so every template's documents score to the
/// identical `f64` and tie. The rest are one-off documents. Term 0 is in
/// every template with a high tf, so its mean weight sits about 1000×
/// below the rarest terms' under TF-IDF and BM25, and about 40× below
/// under Hiemstra.
fn tie_corpus() -> (usize, Vec<u32>, Vec<(u32, u32, u32)>) {
    const VOCAB: u32 = 48;
    const TEMPLATES: u64 = 40;
    let num_docs = 2 * moa_ir::daat::WINDOW as u64 + 700;
    let template = |k: u64| -> (Vec<(u32, u32)>, u32) {
        let mut terms = vec![(0u32, 6 + (mix(k) % 10) as u32)];
        for t in 1..VOCAB {
            let h = mix(k * u64::from(VOCAB) + u64::from(t) + 1);
            if ((h % 10_000) as f64) < 8_500.0 * 0.9f64.powi(t as i32) {
                terms.push((t, 1 + (h >> 32) as u32 % 6));
            }
        }
        let len = terms.iter().map(|&(_, tf)| tf).sum::<u32>() + (mix(k + 0x1E17) % 20) as u32;
        (terms, len)
    };
    let templates: Vec<(Vec<(u32, u32)>, u32)> = (0..TEMPLATES).map(template).collect();
    let mut doc_len = Vec::with_capacity(num_docs as usize);
    let mut postings = Vec::new();
    for d in 0..num_docs {
        let h = mix(d ^ 0x71E5);
        let (terms, len) = if h.is_multiple_of(128) {
            // A one-off: 2-4 terms other than term 0, random tfs.
            let mut terms: Vec<(u32, u32)> = (0..2 + h % 3)
                .map(|j| {
                    let g = mix(h + j);
                    (
                        1 + (g % u64::from(VOCAB - 1)) as u32,
                        1 + (g >> 32) as u32 % 9,
                    )
                })
                .collect();
            terms.sort_unstable();
            terms.dedup_by_key(|p| p.0);
            let len = terms.iter().map(|&(_, tf)| tf).sum::<u32>() + (h >> 40) as u32 % 30;
            (terms, len)
        } else {
            templates[((h >> 8) % TEMPLATES) as usize].clone()
        };
        doc_len.push(len);
        postings.extend(terms.into_iter().map(|(t, tf)| (t, d as u32, tf)));
    }
    postings.sort_unstable();
    (VOCAB as usize, doc_len, postings)
}

/// Regression guard for the float-order soundness of every bound test.
///
/// The pruned kernels compare bounds — summed strongest-bound-first, with
/// block maxima — against thresholds, while exact scores are summed in
/// query order. f64 addition is not associative, so a bound could land
/// one ulp below its own document's exact score and prune a document
/// that ties the N-th entry at a smaller id. This corpus makes exact ties
/// certain (duplicate documents), the queries mix weights up to three
/// orders of magnitude apart in an order unrelated to their bounds, and
/// every N cuts a tie group in two. Every path must return the naive
/// query-order scan's (score desc, id asc) answer bit for bit: pruned
/// DAAT, the fragmented full scan, and 2- and 3-shard engines with
/// threshold propagation under both partitionings (round-robin puts tie
/// partners with smaller ids on the shard that runs second).
#[test]
fn exact_ties_on_the_n_boundary_survive_every_bound_test() {
    use moa_serve::{ServeMode, ShardSpec, ShardedEngine};
    let (vocab, doc_len, postings) = tie_corpus();
    let index = Arc::new(
        InvertedIndex::from_sorted_postings(vocab, doc_len.clone(), &postings)
            .expect("sorted, in-range postings"),
    );
    // The oracle's inputs come from the raw triples, not the index.
    let mut df = vec![0u32; vocab];
    let mut cf = vec![0u64; vocab];
    let mut runs: Vec<Vec<(u32, u32)>> = vec![Vec::new(); vocab];
    for &(t, d, tf) in &postings {
        df[t as usize] += 1;
        cf[t as usize] += u64::from(tf);
        runs[t as usize].push((d, tf));
    }
    let total_tokens: u64 = doc_len.iter().map(|&l| u64::from(l)).sum();
    let stats = moa_ir::CollectionStats {
        num_docs: doc_len.len(),
        avg_doc_len: total_tokens as f64 / doc_len.len() as f64,
        total_tokens,
    };
    let naive = |model: RankingModel, terms: &[u32]| -> Vec<(u32, f64)> {
        let mut scores = vec![0.0f64; doc_len.len()];
        let mut touched = vec![false; doc_len.len()];
        for &t in terms {
            for &(d, tf) in &runs[t as usize] {
                let (t, d) = (t as usize, d as usize);
                scores[d] += model.term_weight(tf, df[t], cf[t], doc_len[d], &stats);
                touched[d] = true;
            }
        }
        let scored: Vec<(u32, f64)> = (0..doc_len.len())
            .filter(|&d| touched[d])
            .map(|d| (d as u32, scores[d]))
            .collect();
        oracle_topn(&scored, scored.len())
    };

    // Queries of 3-6 distinct terms: always term 0 (the faintest weight)
    // and one of the five rarest terms, the rest drawn at random, then
    // shuffled so query order never follows bound order.
    let mut by_df: Vec<u32> = (1..vocab as u32).filter(|&t| df[t as usize] > 0).collect();
    by_df.sort_by_key(|&t| (df[t as usize], t));
    let queries: Vec<Vec<u32>> = (0..8u64)
        .map(|qi| {
            let len = 3 + (qi % 4) as usize;
            let mut q = vec![0, by_df[(qi % 5) as usize]];
            let mut j = 0;
            while q.len() < len {
                let t = by_df[(mix(qi * 97 + j) % by_df.len() as u64) as usize];
                if !q.contains(&t) {
                    q.push(t);
                }
                j += 1;
            }
            for i in (1..q.len()).rev() {
                q.swap(i, (mix(qi ^ ((i as u64) << 8)) % (i as u64 + 1)) as usize);
            }
            q
        })
        .collect();

    let models = [
        RankingModel::TfIdf,
        RankingModel::HiemstraLm { lambda: 0.15 },
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
    ];
    let plans = [
        PhysicalPlan::PrunedDaat,
        PhysicalPlan::Fragmented(Strategy::FullScan),
    ];
    let specs = [
        ShardSpec::Range { shards: 2 },
        ShardSpec::Range { shards: 3 },
        ShardSpec::RoundRobin { shards: 2 },
        ShardSpec::RoundRobin { shards: 3 },
    ];
    let frag = Arc::new(
        FragmentedIndex::build(Arc::clone(&index), FragmentSpec::TermFraction(0.9))
            .expect("non-empty collection"),
    );
    for model in models {
        let mut engines = EngineSet::new(Arc::clone(&frag), model, SwitchPolicy::default());
        let mut sharded: Vec<ShardedEngine> = specs
            .iter()
            .map(|&spec| {
                ShardedEngine::build(
                    Arc::clone(&index),
                    spec,
                    FragmentSpec::TermFraction(0.9),
                    model,
                    SwitchPolicy::default(),
                    None,
                )
                .expect("collection shards cleanly")
            })
            .collect();
        for (qi, q) in queries.iter().enumerate() {
            let ranked = naive(model, q);
            // N on a tie boundary: the N-th and (N+1)-th entries tie
            // exactly. The first such N, and the first at or past 10 and
            // at or past 100.
            let ties: Vec<usize> = (1..ranked.len())
                .filter(|&i| ranked[i - 1].1.to_bits() == ranked[i].1.to_bits())
                .collect();
            let mut ns: Vec<usize> = [1usize, 10, 100]
                .iter()
                .filter_map(|&from| ties.iter().copied().find(|&i| i >= from))
                .collect();
            ns.dedup();
            assert!(
                !ns.is_empty(),
                "{model:?} q{qi} {q:?}: the corpus built no tie"
            );
            for n in ns {
                let want = &ranked[..n];
                for plan in plans {
                    let got = engines.execute(plan, q, n).expect("in-vocabulary query");
                    assert_eq!(
                        got.top,
                        want,
                        "{model:?} q{qi} {q:?} n={n}: {} != naive oracle",
                        plan.name()
                    );
                }
                for (spec, engine) in specs.iter().zip(sharded.iter_mut()) {
                    let got = engine
                        .execute(q, n, ServeMode::Fixed(PhysicalPlan::PrunedDaat), true)
                        .expect("in-vocabulary query");
                    assert_eq!(
                        got.top, want,
                        "{model:?} q{qi} {q:?} n={n}: pruned DAAT {spec:?} != naive oracle"
                    );
                }
            }
        }
    }

    // A short-plus-long query whose seed is exactly the N-th score. Term
    // 0's run (docs 0..1405) is longer than the seed pass reads; term 1's
    // (docs 1400..1700) is short. Every posting has tf 1 and every
    // document length 4, so all of term 1's postings weigh the same. Docs
    // 1400..1405 hold both terms; at N = 10 the seed is term 1's weight,
    // the 10th score equals it, and so does the 11th. Past doc 1404 term
    // 0 has no block left, so docs 1405..1410 reach the seed with a bound
    // equal to it: a floor test that drops ties loses them.
    let mut postings: Vec<(u32, u32, u32)> = (0..1405).map(|d| (0, d, 1)).collect();
    postings.extend((1400..1700).map(|d| (1, d, 1)));
    let index = Arc::new(
        InvertedIndex::from_sorted_postings(2, vec![4; 1700], &postings)
            .expect("sorted, in-range postings"),
    );
    let frag = Arc::new(
        FragmentedIndex::build(Arc::clone(&index), FragmentSpec::TermFraction(0.9))
            .expect("non-empty collection"),
    );
    let n = 10;
    for model in models {
        let daat = DaatSearcher::new(&index, model);
        let mut engines = EngineSet::new(Arc::clone(&frag), model, SwitchPolicy::default());
        for q in [[0u32, 1], [1, 0]] {
            let want = daat
                .search_exhaustive(&q, n + 1)
                .expect("in-vocabulary query")
                .top;
            let seed = daat
                .seed(&q, n, &mut moa_ir::QueryScratch::new())
                .expect("in-vocabulary query")
                .expect("a short run and a long one: seeded");
            assert_eq!(seed.to_bits(), want[n - 1].1.to_bits(), "{model:?} {q:?}");
            assert_eq!(seed.to_bits(), want[n].1.to_bits(), "{model:?} {q:?}");
            let got = engines
                .execute(PhysicalPlan::PrunedDaat, &q, n)
                .expect("in-vocabulary query");
            assert_eq!(got.seeded, 1, "{model:?} {q:?}");
            assert_eq!(got.top, want[..n], "{model:?} {q:?}: seeded pruned DAAT");
            // Shard 1 (docs 850..1700) holds 555 postings of term 0 and
            // all of term 1, so it is seeded the same way.
            let got = ShardedEngine::build(
                Arc::clone(&index),
                ShardSpec::Range { shards: 2 },
                FragmentSpec::TermFraction(0.9),
                model,
                SwitchPolicy::default(),
                None,
            )
            .expect("collection shards cleanly")
            .execute(&q, n, ServeMode::Fixed(PhysicalPlan::PrunedDaat), true)
            .expect("in-vocabulary query");
            assert_eq!(got.work.seeded, 1, "{model:?} {q:?}");
            assert_eq!(got.top, want[..n], "{model:?} {q:?}: 2 range shards");
        }
    }
}
