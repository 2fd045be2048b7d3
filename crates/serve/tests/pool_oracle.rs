//! The worker-pool differential oracle: the persistent-pool serving
//! runtime is pinned **bit-identical** to the deterministic sequential
//! schedule and to a naive collection-scan oracle across the full matrix
//! — every pinned physical plan × 3 ranking models × shard counts ×
//! propagation on/off, and telemetry on/off — and its drain-on-shutdown
//! contract is proven, not assumed: a batch admitted before teardown is
//! fully answered, and the scratch arenas handed back by `shutdown`
//! carry lifetime query counts equal to the whole stream (one arena per
//! shard served everything; nothing was rebuilt mid-stream).

use std::sync::Arc;
use std::time::Duration;

use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, Query, QueryConfig};
use moa_ir::{InvertedIndex, PhysicalPlan, RankingModel, Strategy, SwitchPolicy};
use moa_obs::Phase;
use moa_serve::{
    BatchQuery, ServeConfig, ServeMode, ServeSession, ShardSpec, WorkerFault,
    CALLER_RUNS_MAX_POSTINGS,
};

fn fixture() -> (Collection, Arc<InvertedIndex>, Vec<Query>) {
    let c = Collection::generate(CollectionConfig::tiny()).expect("valid preset");
    let idx = Arc::new(InvertedIndex::from_collection(&c));
    let queries = generate_queries(
        &c,
        &QueryConfig {
            num_queries: 8,
            bias: DfBias::TrecLike { high_df_mix: 0.4 },
            seed: 0x51A2,
            ..QueryConfig::default()
        },
    )
    .expect("valid workload");
    (c, idx, queries)
}

fn session(
    idx: &Arc<InvertedIndex>,
    shards: usize,
    mode: ServeMode,
    model: RankingModel,
    propagate: bool,
) -> ServeSession {
    let config = ServeConfig {
        shard_spec: ShardSpec::Range { shards },
        model,
        mode,
        propagate,
        sparse_block: Some(64),
        // A strict switch policy: consult fragment B whenever any
        // B-resident query term carries positive score mass. The default
        // 0.2 share threshold is the paper's quality heuristic — under it
        // `frag_switch` may legitimately drop low-mass B terms, which
        // would break this suite's oracle-exactness contract on workloads
        // that happen to produce such queries.
        policy: SwitchPolicy { max_b_share: 0.0 },
        ..ServeConfig::planned(shards)
    };
    ServeSession::new(Arc::clone(idx), config).expect("tiny index shards cleanly")
}

fn models() -> Vec<RankingModel> {
    vec![
        RankingModel::TfIdf,
        RankingModel::HiemstraLm { lambda: 0.15 },
        RankingModel::Bm25 { k1: 1.2, b: 0.75 },
    ]
}

/// Every physical plan the pool must answer identically to the
/// sequential schedule (exact plans *and* the approximate fragmented
/// strategies, which partition consistently).
fn pinned_plans() -> Vec<PhysicalPlan> {
    vec![
        PhysicalPlan::PrunedDaat,
        PhysicalPlan::ExhaustiveDaat,
        PhysicalPlan::SetAtATime,
        PhysicalPlan::Fragmented(Strategy::FullScan),
        PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: false }),
        PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: true }),
        PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: false }),
        PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: true }),
    ]
}

/// The plans whose top-N is guaranteed bit-identical to the naive
/// full-scan oracle (everything but the lossy A-only ranking; the switch
/// strategies are exact under the strict policy [`session`] pins).
fn exact_plans() -> Vec<PhysicalPlan> {
    pinned_plans()
        .into_iter()
        .filter(|p| !matches!(p, PhysicalPlan::Fragmented(Strategy::AOnly { .. })))
        .collect()
}

/// Scores every matching document by scanning the *collection's* raw
/// postings — independent of the index, shards, pool, and merge.
fn naive_topn(
    collection: &Collection,
    model: RankingModel,
    terms: &[u32],
    n: usize,
) -> Vec<(u32, f64)> {
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
    let mut all: Vec<(u32, f64)> = (0..collection.num_docs() as u32)
        .filter(|&d| touched[d as usize])
        .map(|d| (d, scores[d as usize]))
        .collect();
    all.sort_by(|a, b| b.1.total_cmp(&a.1).then(a.0.cmp(&b.0)));
    all.truncate(n);
    all
}

#[test]
fn pooled_batches_match_sequential_and_oracle_for_every_plan_model_and_shard_count() {
    let (c, idx, queries) = fixture();
    let batch: Vec<BatchQuery> = queries
        .iter()
        .take(5)
        .map(|q| BatchQuery {
            terms: q.terms.clone(),
            n: 10,
        })
        .collect();
    for model in models() {
        for shards in [1usize, 2, 4] {
            for propagate in [false, true] {
                for plan in pinned_plans() {
                    let mode = ServeMode::Fixed(plan);
                    let mut pooled = session(&idx, shards, mode, model, propagate);
                    let mut reference = session(&idx, shards, mode, model, propagate);
                    let got = pooled
                        .submit_many(&batch)
                        .expect("blocking admission never sheds");
                    let want = reference.submit_many_sequential(&batch);
                    for (qi, (g, w)) in got
                        .expect_ok()
                        .iter()
                        .zip(want.expect_ok().iter())
                        .enumerate()
                    {
                        assert_eq!(
                            g.top,
                            w.top,
                            "{model:?} {} x{shards} propagate={propagate} q{qi}: pool != sequential",
                            plan.name()
                        );
                    }
                    if exact_plans().contains(&plan) {
                        for (qi, (q, g)) in batch.iter().zip(got.expect_ok().iter()).enumerate() {
                            let oracle = naive_topn(&c, model, &q.terms, q.n);
                            assert_eq!(
                                g.top,
                                oracle,
                                "{model:?} {} x{shards} propagate={propagate} q{qi}: pool != naive oracle",
                                plan.name()
                            );
                        }
                    }
                }
            }
        }
    }
}

/// The top-N as `(doc, score bits)`, so equality is bit-for-bit.
fn bits(top: &[(u32, f64)]) -> Vec<(u32, u64)> {
    top.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// `len` queries with pairwise distinct term lists.
fn distinct_queries(c: &Collection, len: usize) -> Vec<Vec<u32>> {
    let mut out: Vec<Vec<u32>> = Vec::with_capacity(len);
    let generated = generate_queries(
        c,
        &QueryConfig {
            num_queries: 4 * len,
            bias: DfBias::TrecLike { high_df_mix: 0.4 },
            seed: 0x57A6,
            ..QueryConfig::default()
        },
    )
    .expect("valid workload");
    for q in generated {
        if out.len() < len && !out.contains(&q.terms) {
            out.push(q.terms);
        }
    }
    assert_eq!(out.len(), len, "the fixture yields {len} distinct queries");
    out
}

#[test]
fn staggered_batches_match_sequential_and_oracle_for_every_length_and_shard_count() {
    // Worker i of P serves its column from ⌊i·len/P⌋, wrapping round, and
    // rotates it back. Whatever the batch length — shorter than P, a
    // multiple of P or not, with duplicates coalesced to a distinct count
    // that is not a multiple of P — every position must answer exactly
    // as the in-caller sequential schedule and the naive oracle do, and
    // every distinct query must run once on every shard.
    let (c, idx, _) = fixture();
    let pool = distinct_queries(&c, 33);
    let batch_of = |len: usize| -> Vec<BatchQuery> {
        pool[..len]
            .iter()
            .enumerate()
            .map(|(i, terms)| BatchQuery {
                terms: terms.clone(),
                n: [10, 1, 50][i % 3],
            })
            .collect()
    };
    let mut batches: Vec<Vec<BatchQuery>> = [1usize, 2, 3, 5, 32, 33]
        .into_iter()
        .map(batch_of)
        .collect();
    // 12 positions, 7 distinct: not a multiple of 2, 3 or 4.
    let seven = batch_of(7);
    batches.push(
        [0usize, 1, 2, 0, 3, 4, 1, 5, 6, 0, 2, 6]
            .iter()
            .map(|&i| seven[i].clone())
            .collect(),
    );
    let shard_queries = |svc: &ServeSession| svc.metrics().counter("serve.shard_queries").get();
    for model in models() {
        for shards in [2usize, 3, 4] {
            for propagate in [false, true] {
                for mode in [
                    ServeMode::Fixed(PhysicalPlan::PrunedDaat),
                    ServeMode::Planned,
                ] {
                    let mut pooled = session(&idx, shards, mode, model, propagate);
                    let mut reference = session(&idx, shards, mode, model, propagate);
                    for batch in &batches {
                        let len = batch.len();
                        let mut distinct: Vec<(&[u32], usize)> = Vec::new();
                        for q in batch {
                            if !distinct.contains(&(q.terms.as_slice(), q.n)) {
                                distinct.push((q.terms.as_slice(), q.n));
                            }
                        }
                        let before = shard_queries(&pooled);
                        let got = pooled
                            .submit_many(batch)
                            .expect("blocking admission never sheds");
                        assert_eq!(
                            shard_queries(&pooled) - before,
                            (distinct.len() * shards) as u64,
                            "{model:?} {mode:?} x{shards} len={len}: one run per distinct query per shard"
                        );
                        let want = reference.submit_many_sequential(batch);
                        assert_eq!(got.responses.len(), len);
                        for (qi, ((q, g), w)) in batch
                            .iter()
                            .zip(got.expect_ok().iter())
                            .zip(want.expect_ok().iter())
                            .enumerate()
                        {
                            let ctx = format!(
                                "{model:?} {mode:?} x{shards} propagate={propagate} len={len} q{qi}"
                            );
                            assert_eq!(bits(&g.top), bits(&w.top), "{ctx}: pool != sequential");
                            let oracle = naive_topn(&c, model, &q.terms, q.n);
                            assert_eq!(bits(&g.top), bits(&oracle), "{ctx}: pool != naive oracle");
                        }
                    }
                }
            }
        }
    }
}

#[test]
fn planned_pool_matches_the_naive_oracle_across_shard_counts() {
    // The production posture: per-shard planners picking freely,
    // propagation on, pool admission. Whatever operators win, answers
    // must be the oracle's.
    let (c, idx, queries) = fixture();
    for shards in [1usize, 3, 4] {
        let mut svc = session(
            &idx,
            shards,
            ServeMode::Planned,
            RankingModel::default(),
            true,
        );
        for q in queries.iter().take(6) {
            for n in [1usize, 10, c.num_docs()] {
                let got = svc.submit(&q.terms, n).expect("in-vocabulary query");
                let oracle = naive_topn(&c, RankingModel::default(), &q.terms, n);
                assert_eq!(
                    got.top, oracle,
                    "planned x{shards} n={n} terms {:?}",
                    q.terms
                );
            }
        }
    }
}

#[test]
fn telemetry_never_changes_an_answer_and_captures_only_when_on() {
    // Trace capture and slow-log offers run on the workers' hot path. The
    // same multi-batch stream through a session with telemetry and one
    // without must give bit-identical answers; only the instrumented
    // session may hold traces and slow-log entries, and those must be
    // well formed: every trace clocked and spanned, the slow log within
    // its bound and drained worst-first, the lifecycle metrics present.
    let (_, idx, queries) = fixture();
    let stream: Vec<BatchQuery> = (0..24)
        .map(|i| BatchQuery {
            terms: queries[i % queries.len()].terms.clone(),
            n: [10, 1, 50][i % 3],
        })
        .collect();
    for shards in [2usize, 3] {
        let build = |telemetry: bool| {
            let config = ServeConfig {
                shard_spec: ShardSpec::Range { shards },
                sparse_block: Some(64),
                telemetry,
                ..ServeConfig::planned(shards)
            };
            ServeSession::new(Arc::clone(&idx), config).expect("tiny index shards cleanly")
        };
        let mut on = build(true);
        let mut off = build(false);
        for (bi, batch) in stream.chunks(5).enumerate() {
            let got = on
                .submit_many(batch)
                .expect("blocking admission never sheds");
            let want = off
                .submit_many(batch)
                .expect("blocking admission never sheds");
            for (qi, (g, w)) in got
                .expect_ok()
                .iter()
                .zip(want.expect_ok().iter())
                .enumerate()
            {
                assert_eq!(
                    bits(&g.top),
                    bits(&w.top),
                    "x{shards} batch {bi} q{qi}: telemetry changed the answer"
                );
            }
        }

        let traces = on.traces();
        assert!(!traces.is_empty(), "x{shards}: no traces retained");
        for t in &traces {
            assert!(t.wall_ns > 0, "x{shards}: trace without a wall clock");
            assert!(!t.spans().is_empty(), "x{shards}: trace without spans");
        }
        let slow = on.drain_slow_queries();
        assert!(
            slow.len() <= on.config().slow_log,
            "x{shards}: slow log over its bound"
        );
        assert!(
            slow.windows(2).all(|w| w[0].wall >= w[1].wall),
            "x{shards}: slow log must drain worst-first"
        );
        let text = on.metrics_text();
        for needle in [
            "serve.batches",
            "serve.queries_admitted",
            "serve.shard_queries",
            "serve.query_ns",
            "serve.queue_wait_ns",
        ] {
            assert!(
                text.contains(needle),
                "x{shards}: registry missing {needle}"
            );
        }
        assert!(
            off.traces().is_empty(),
            "x{shards}: telemetry off captured traces"
        );
        assert!(
            off.drain_slow_queries().is_empty(),
            "x{shards}: telemetry off filled the slow log"
        );
    }
}

#[test]
fn short_solo_submit_queues_behind_a_busy_pool_and_runs_in_the_caller_once_idle() {
    // Caller-runs dispatch keys on the gauges: a short solo query runs on
    // the submitting thread only when every worker queue is empty. Behind
    // an admitted batch it takes the pool path and queues in admission
    // order; once the batch is collected, the same call runs in the
    // caller — with the same answer, and accounted like a worker's
    // execution minus the queue wait.
    let (c, idx, queries) = fixture();
    let run_length = |q: &Query| -> usize {
        q.terms
            .iter()
            .map(|&t| idx.df(t).expect("in vocabulary") as usize)
            .sum()
    };
    let short = queries
        .iter()
        .find(|q| run_length(q) <= CALLER_RUNS_MAX_POSTINGS)
        .expect("the fixture has a short query");
    let batch: Vec<BatchQuery> = queries
        .iter()
        .filter(|q| q.terms != short.terms)
        .take(4)
        .map(|q| BatchQuery {
            terms: q.terms.clone(),
            n: 10,
        })
        .collect();
    let model = RankingModel::default();
    let mut svc = session(&idx, 2, ServeMode::Planned, model, true);
    let counter = |svc: &ServeSession, name: &str| svc.metrics().counter(name).get();
    let samples = |svc: &ServeSession, name: &str| svc.metrics().histogram(name).count();

    // Stall worker 0 (a stall holds no gauge slot) and admit the batch
    // behind it: the pool is no longer idle.
    svc.pool_mut()
        .inject_fault(0, WorkerFault::Stall(Duration::from_millis(200)));
    let pending = svc.enqueue(&batch).expect("blocking admission");
    assert!(!svc.pool().idle());
    let behind = svc.submit(&short.terms, 10).expect("blocking admission");
    assert_eq!(
        counter(&svc, "serve.caller_runs"),
        0,
        "a busy pool must not run the query in the caller"
    );
    assert_eq!(
        svc.pool().queue_high_water(),
        2,
        "the solo call queued behind the batch on the stalled worker"
    );
    assert!(svc.pool().queue_high_water() <= svc.pool().queue_bound());
    let report = svc.collect(pending);
    for (qi, (q, g)) in batch.iter().zip(report.expect_ok()).enumerate() {
        assert_eq!(g.top, naive_topn(&c, model, &q.terms, q.n), "batch q{qi}");
    }
    assert_eq!(svc.pool().queue_depths(), vec![0, 0]);
    assert!(svc.pool().idle());

    let (queries_before, query_ns_before, waits_before) = (
        counter(&svc, "serve.shard_queries"),
        samples(&svc, "serve.query_ns"),
        samples(&svc, "serve.queue_wait_ns"),
    );
    let idle = svc.submit(&short.terms, 10).expect("caller-runs");
    assert_eq!(
        counter(&svc, "serve.caller_runs"),
        1,
        "only the idle-pool call runs in the caller"
    );
    assert_eq!(svc.pool().queue_depths(), vec![0, 0]);
    assert!(svc.pool().queue_high_water() <= svc.pool().queue_bound());
    let oracle = naive_topn(&c, model, &short.terms, 10);
    assert_eq!(behind.top, oracle, "pool-path solo != naive oracle");
    assert_eq!(idle.top, oracle, "caller-run solo != naive oracle");

    // Telemetry: one execution per shard, counted like a worker's, with
    // no queue-wait sample and no queue-wait span.
    assert_eq!(counter(&svc, "serve.shard_queries"), queries_before + 2);
    assert_eq!(samples(&svc, "serve.query_ns"), query_ns_before + 2);
    assert_eq!(samples(&svc, "serve.queue_wait_ns"), waits_before);
    let traces = svc.traces();
    for shard in 0..2u32 {
        let last = traces
            .iter()
            .rev()
            .find(|t| t.shard == shard)
            .expect("every shard recorded a trace");
        assert!(
            last.spans().iter().all(|s| s.phase != Phase::QueueWait),
            "shard {shard}: a caller-run trace has no queue wait"
        );
    }
    let slow: Vec<_> = svc
        .drain_slow_queries()
        .into_iter()
        .filter(|s| s.terms == short.terms)
        .collect();
    let queued =
        |s: &moa_serve::SlowQuery| s.trace.spans().iter().any(|p| p.phase == Phase::QueueWait);
    assert_eq!(
        slow.len(),
        4,
        "both solo calls reach the slow log per shard"
    );
    assert_eq!(slow.iter().filter(|s| queued(s)).count(), 2);
    assert_eq!(svc.stats().queries_served, batch.len() + 2);
}

#[test]
fn coalesced_duplicates_match_per_position_execution_bit_for_bit() {
    // Admission coalescing: a Zipf-skewed batch carries duplicate
    // queries; the pool executes each distinct (terms, n) once and fans
    // the answer out. Every position's response must equal the
    // non-coalescing sequential schedule executing that position
    // individually — including same-terms queries that differ only in n,
    // which must NOT coalesce with each other.
    let (c, idx, queries) = fixture();
    let hot = &queries[0];
    let warm = &queries[1];
    let batch: Vec<BatchQuery> = vec![
        BatchQuery {
            terms: hot.terms.clone(),
            n: 10,
        },
        BatchQuery {
            terms: warm.terms.clone(),
            n: 10,
        },
        BatchQuery {
            terms: hot.terms.clone(),
            n: 10,
        }, // dup of position 0
        BatchQuery {
            terms: hot.terms.clone(),
            n: 3,
        }, // same terms, different n
        BatchQuery {
            terms: hot.terms.clone(),
            n: 10,
        }, // dup of position 0
        BatchQuery {
            terms: warm.terms.clone(),
            n: 10,
        }, // dup of position 1
    ];
    for shards in [1usize, 3] {
        let mut pooled = session(
            &idx,
            shards,
            ServeMode::Planned,
            RankingModel::default(),
            true,
        );
        let mut reference = session(
            &idx,
            shards,
            ServeMode::Planned,
            RankingModel::default(),
            true,
        );
        let got = pooled
            .submit_many(&batch)
            .expect("blocking admission never sheds");
        let want = reference.submit_many_sequential(&batch);
        assert_eq!(got.responses.len(), batch.len());
        for (qi, (g, w)) in got
            .expect_ok()
            .iter()
            .zip(want.expect_ok().iter())
            .enumerate()
        {
            assert_eq!(g.top, w.top, "x{shards} q{qi}: coalesced != per-position");
            let oracle = naive_topn(&c, RankingModel::default(), &batch[qi].terms, batch[qi].n);
            assert_eq!(g.top, oracle, "x{shards} q{qi}: coalesced != naive oracle");
        }
        // 6 positions, 3 distinct executions (hot n=10, warm n=10, hot n=3).
        assert_eq!(pooled.stats().queries_served, batch.len());
        assert_eq!(pooled.stats().queries_coalesced, 3);
        // The non-coalescing reference executed (and scanned) strictly
        // more than the pool performed.
        assert!(pooled.stats().postings_scanned < reference.stats().postings_scanned);
        assert_eq!(reference.stats().queries_coalesced, 0);
    }
}

#[test]
fn streaming_enqueue_collect_overlap_matches_one_shot_submission() {
    // Two batches in flight at once (a pipelining open-loop driver):
    // admission order is preserved per worker, and each collected batch
    // is identical to an isolated submission of the same queries.
    let (_, idx, queries) = fixture();
    let batches: Vec<Vec<BatchQuery>> = queries
        .chunks(2)
        .map(|qs| {
            qs.iter()
                .map(|q| BatchQuery {
                    terms: q.terms.clone(),
                    n: 10,
                })
                .collect()
        })
        .collect();
    let mut streamed = session(
        &idx,
        4,
        ServeMode::Fixed(PhysicalPlan::PrunedDaat),
        RankingModel::default(),
        true,
    );
    let mut oneshot = session(
        &idx,
        4,
        ServeMode::Fixed(PhysicalPlan::PrunedDaat),
        RankingModel::default(),
        true,
    );
    let mut pending = std::collections::VecDeque::new();
    let mut collected = Vec::new();
    for batch in &batches {
        pending.push_back(streamed.enqueue(batch).expect("blocking admission"));
        // Keep two batches in flight: collect the older one only after
        // the newer is already admitted.
        if pending.len() > 2 {
            let report = streamed.collect(pending.pop_front().expect("non-empty"));
            collected.push(report);
        }
    }
    while let Some(p) = pending.pop_front() {
        collected.push(streamed.collect(p));
    }
    assert_eq!(collected.len(), batches.len());
    for (bi, (batch, report)) in batches.iter().zip(collected.iter()).enumerate() {
        let want = oneshot
            .submit_many(batch)
            .expect("blocking admission never sheds");
        assert_eq!(report.responses.len(), batch.len());
        for (qi, (g, w)) in report
            .expect_ok()
            .iter()
            .zip(want.expect_ok().iter())
            .enumerate()
        {
            assert_eq!(g.top, w.top, "batch {bi} q{qi}: streamed != one-shot");
        }
    }
    let stats = streamed.stats();
    assert_eq!(stats.queries_served, queries.len());
    assert_eq!(stats.batches_served, batches.len());
}

#[test]
fn shutdown_drains_in_flight_batches_and_returns_the_calibrated_shards() {
    // The teardown contract, proven end to end: a batch enqueued before
    // shutdown is still fully answered afterwards (no query dropped),
    // and the shards handed back are the *same* engines that served the
    // stream — their scratch arenas' lifetime query counters equal the
    // total number of DAAT queries each worker saw.
    let (_, idx, queries) = fixture();
    let shards = 3usize;
    // PrunedDaat pins every query through the per-shard scratch arena,
    // so the arenas' lifetime counters account for the whole stream.
    let mut svc = session(
        &idx,
        shards,
        ServeMode::Fixed(PhysicalPlan::PrunedDaat),
        RankingModel::default(),
        true,
    );
    let batch: Vec<BatchQuery> = queries
        .iter()
        .map(|q| BatchQuery {
            terms: q.terms.clone(),
            n: 10,
        })
        .collect();
    // A warm batch through the normal path...
    let warm = svc
        .submit_many(&batch)
        .expect("blocking admission never sheds");
    // ...then one admitted but NOT collected before teardown begins.
    let in_flight = svc.enqueue(&batch).expect("blocking admission");
    let outcome = svc.shutdown();
    assert!(
        outcome.is_clean(),
        "no worker panicked: {:?}",
        outcome.panics
    );
    let engines = outcome.shards;
    // The drained responses match the warm replay answer for answer.
    let drained = in_flight.wait();
    assert_eq!(drained.responses.len(), batch.len());
    for (qi, (g, w)) in drained
        .expect_ok()
        .iter()
        .zip(warm.expect_ok().iter())
        .enumerate()
    {
        assert_eq!(g.top, w.top, "q{qi}: drained batch diverged");
    }
    // Same engines back, in shard order, each having served every query
    // of both batches out of one persistent arena.
    assert_eq!(engines.len(), shards);
    for (s, shard) in engines.iter().enumerate() {
        assert_eq!(shard.id(), s);
        assert_eq!(
            shard.scratch_queries(),
            2 * batch.len() as u64,
            "shard {s}: scratch arena did not serve the whole stream"
        );
    }
}
