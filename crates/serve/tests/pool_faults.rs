//! Fault, overload, and degradation regressions for the serving pool:
//! every failure posture ISSUE 7 introduces is pinned end to end against
//! a healthy reference session.
//!
//! * admission — `Shed` refuses exactly at the configured bound and the
//!   pool recovers after drain; `TryNow` admits only an idle pool;
//!   `Block` backpressures (measurably waits) instead of refusing, and
//!   the queue high-water mark never exceeds the bound, also under a
//!   saturating multi-batch stream, where every arrival is served
//!   exactly or shed;
//! * deadlines — an expired budget degrades to an `Ok` **partial**
//!   response whose every reported score is bit-identical to the full
//!   run's score for that document (exact prefix, honest counters);
//! * isolation — a poison-term panic inside the per-query guard fails
//!   only the poisoned position; a worker crash fails the in-flight
//!   batch with typed errors, the next submission respawns the worker
//!   over the retained shard, and answers return bit-identical, crash
//!   after crash on rotating shards;
//! * teardown — dropping an admitted ticket neither deadlocks workers
//!   nor leaks queue slots, and `shutdown` *reports* worker panics
//!   instead of re-panicking the drain;
//! * caller-runs parity — a short solo `submit` executed on the calling
//!   thread degrades under deadlines and fails under poison exactly as
//!   the workers do;
//! * staggered columns — with every worker starting its column at a
//!   different query, a poisoned position still fails alone, reported
//!   by the first shard in shard order, and deadline partials stay exact;
//! * depth — a top-N deeper than the collection answers the full ranking
//!   and leaves every shard serving, on every engine path.

use std::sync::Arc;
use std::time::{Duration, Instant};

use moa_corpus::{
    generate_queries, generate_query_stream, Collection, CollectionConfig, DfBias, Query,
    QueryConfig, StreamConfig,
};
use moa_ir::{InvertedIndex, PhysicalPlan, Searcher, Strategy};
use moa_serve::{
    silence_worker_panics, AdmissionPolicy, BatchQuery, ServeConfig, ServeError, ServeMode,
    ServeSession, WorkerFault, CALLER_RUNS_MAX_POSTINGS,
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

/// A session with the overload knobs under test; everything else is the
/// default planned posture.
fn session(
    idx: &Arc<InvertedIndex>,
    shards: usize,
    queue_depth: usize,
    admission: AdmissionPolicy,
    deadline: Option<Duration>,
) -> ServeSession {
    let config = ServeConfig {
        mode: ServeMode::Fixed(PhysicalPlan::PrunedDaat),
        sparse_block: Some(64),
        queue_depth,
        admission,
        deadline,
        ..ServeConfig::planned(shards)
    };
    ServeSession::new(Arc::clone(idx), config).expect("tiny index shards cleanly")
}

/// The queries a solo `submit` answers in the caller on an idle pool:
/// total run length (Σ df) within the caller-runs bound.
fn short_queries(idx: &InvertedIndex, queries: &[Query]) -> Vec<Query> {
    let short: Vec<Query> = queries
        .iter()
        .filter(|q| {
            let run: usize = q
                .terms
                .iter()
                .map(|&t| idx.df(t).expect("in vocabulary") as usize)
                .sum();
            run <= CALLER_RUNS_MAX_POSTINGS
        })
        .cloned()
        .collect();
    assert!(!short.is_empty(), "the fixture has a short query");
    short
}

fn caller_runs(svc: &ServeSession) -> u64 {
    svc.metrics().counter("serve.caller_runs").get()
}

fn batch_of(queries: &[Query], n: usize) -> Vec<BatchQuery> {
    queries
        .iter()
        .map(|q| BatchQuery {
            terms: q.terms.clone(),
            n,
        })
        .collect()
}

#[test]
fn dropped_ticket_neither_deadlocks_workers_nor_leaks_queue_slots() {
    // Satellite: a caller that enqueues and walks away abandons its
    // responses, nothing else. The workers still finish the jobs (the
    // queue drains back to zero — no leaked admission slots), and the
    // pool keeps answering correctly afterwards.
    let (_, idx, queries) = fixture();
    let batch = batch_of(&queries, 10);
    let mut svc = session(&idx, 2, 2, AdmissionPolicy::Block, None);
    let mut reference = session(&idx, 2, 2, AdmissionPolicy::Block, None);
    drop(svc.enqueue(&batch).expect("blocking admission"));
    // The abandoned batch's slots must come back without anyone waiting
    // on its ticket.
    let t0 = Instant::now();
    while svc.pool().queue_depths().iter().any(|&d| d > 0) {
        assert!(
            t0.elapsed() < Duration::from_secs(5),
            "queue never drained after the ticket was dropped: depths {:?}",
            svc.pool().queue_depths()
        );
        std::thread::sleep(Duration::from_millis(2));
    }
    // The pool is fully live: a fresh batch admits (two slots exist and
    // both are free again) and answers bit-identically.
    let got = svc.submit_many(&batch).expect("queue drained");
    let want = reference.submit_many(&batch).expect("idle pool admits");
    for (qi, (g, w)) in got
        .expect_ok()
        .iter()
        .zip(want.expect_ok().iter())
        .enumerate()
    {
        assert_eq!(
            g.top, w.top,
            "q{qi}: answers diverged after a dropped ticket"
        );
    }
    let outcome = svc.shutdown();
    assert!(
        outcome.is_clean(),
        "no worker panicked: {:?}",
        outcome.panics
    );
}

#[test]
fn shed_policy_refuses_at_the_bound_and_recovers_after_drain() {
    let (_, idx, queries) = fixture();
    let batch = batch_of(&queries[..4], 10);
    let mut svc = session(&idx, 1, 2, AdmissionPolicy::Shed, None);
    let mut reference = session(&idx, 1, 2, AdmissionPolicy::Shed, None);
    // Hold the single worker busy so saturation is deterministic.
    svc.pool_mut()
        .inject_fault(0, WorkerFault::Stall(Duration::from_millis(300)));
    let p1 = svc.enqueue(&batch).expect("depth 0 of bound 2 admits");
    let p2 = svc.enqueue(&batch).expect("depth 1 of bound 2 admits");
    // Third batch: the queue is exactly at its bound. Shed, typed.
    let refused = svc.enqueue(&batch);
    match refused {
        Err(ServeError::Shed {
            shard,
            depth,
            bound,
        }) => {
            assert_eq!(shard, 0);
            assert_eq!(depth, 2);
            assert_eq!(bound, 2);
        }
        Err(other) => panic!("expected Shed at the bound, got {other:?}"),
        Ok(_) => panic!("expected Shed at the bound, got an admission"),
    }
    assert_eq!(svc.stats().queries_shed, batch.len());
    // Nothing executed for the shed batch, and nothing over-admitted:
    // the high-water mark is exactly the bound.
    assert_eq!(svc.pool().queue_high_water(), 2);
    // The admitted batches were untouched by the refusal (all-or-nothing
    // admission): both drain and answer bit-identically.
    let want = reference.submit_many(&batch).expect("idle pool admits");
    for (bi, pending) in [p1, p2].into_iter().enumerate() {
        let got = svc.collect(pending);
        for (qi, (g, w)) in got
            .expect_ok()
            .iter()
            .zip(want.expect_ok().iter())
            .enumerate()
        {
            assert_eq!(g.top, w.top, "batch {bi} q{qi}: admitted batch diverged");
        }
    }
    // After drain the same batch is retriable verbatim.
    let retried = svc.submit_many(&batch).expect("drained pool admits again");
    for (qi, (g, w)) in retried
        .expect_ok()
        .iter()
        .zip(want.expect_ok().iter())
        .enumerate()
    {
        assert_eq!(g.top, w.top, "q{qi}: retried shed batch diverged");
    }
    assert!(svc.pool().queue_high_water() <= 2);
}

#[test]
fn a_saturating_stream_sheds_at_the_bound_and_serves_the_rest_exactly() {
    // A Zipf stream offered batch after batch without collecting, while a
    // stall holds one worker (a different one each round): the stalled
    // queue fills to its bound and every later batch of the round is
    // shed. Every arrival is served or shed, nothing fails, and what was
    // served matches a session that never had a fault.
    let (c, idx, _) = fixture();
    let stream: Vec<BatchQuery> = generate_query_stream(
        &c,
        &StreamConfig {
            pool: QueryConfig {
                num_queries: 8,
                bias: DfBias::TrecLike { high_df_mix: 0.4 },
                seed: 0x5A7,
                ..QueryConfig::default()
            },
            length: 48,
            exponent: 1.0,
            seed: 0x57E5,
        },
    )
    .expect("valid stream")
    .into_iter()
    .map(|q| BatchQuery {
        terms: q.terms,
        n: 10,
    })
    .collect();
    let (shards, bound) = (2, 2);
    let mut svc = session(&idx, shards, bound, AdmissionPolicy::Shed, None);
    let mut reference = session(&idx, shards, bound, AdmissionPolicy::Block, None);
    let (mut served, mut shed) = (0, 0);
    // Twelve batches of four, offered four batches a round.
    let batches: Vec<&[BatchQuery]> = stream.chunks(4).collect();
    for (round, batches) in batches.chunks(4).enumerate() {
        svc.pool_mut().inject_fault(
            round % shards,
            WorkerFault::Stall(Duration::from_millis(300)),
        );
        let mut admitted = Vec::new();
        let mut round_shed = 0;
        for &batch in batches {
            match svc.enqueue(batch) {
                Ok(pending) => admitted.push((pending, batch)),
                Err(e) => {
                    assert!(
                        e.is_shed(),
                        "round {round}: admission refuses only by shedding: {e}"
                    );
                    round_shed += batch.len();
                }
            }
        }
        assert!(
            round_shed > 0,
            "round {round}: a stalled bound-{bound} queue never shed"
        );
        shed += round_shed;
        for (pending, batch) in admitted {
            let got = svc.collect(pending);
            let want = reference.submit_many(batch).expect("blocking admission");
            for (qi, (g, w)) in got.responses.iter().zip(want.expect_ok()).enumerate() {
                let g = g
                    .as_ref()
                    .unwrap_or_else(|e| panic!("round {round} q{qi} failed: {e}"));
                assert_eq!(
                    bits(&g.top),
                    bits(&w.top),
                    "round {round} q{qi}: served answer diverged"
                );
                served += 1;
            }
        }
        assert!(
            svc.pool().queue_high_water() <= svc.pool().queue_bound(),
            "round {round}: queue high-water {} passed the bound {}",
            svc.pool().queue_high_water(),
            svc.pool().queue_bound()
        );
    }
    assert_eq!(
        served + shed,
        stream.len(),
        "every arrival is served or shed"
    );
    let stats = svc.stats();
    assert_eq!(stats.queries_shed, shed);
    assert_eq!(stats.queries_served, served);
    assert_eq!(stats.queries_failed, 0);
}

#[test]
fn try_now_admits_only_an_idle_pool() {
    let (_, idx, queries) = fixture();
    let batch = batch_of(&queries[..3], 10);
    let mut svc = session(&idx, 2, 4, AdmissionPolicy::TryNow, None);
    for shard in 0..2 {
        svc.pool_mut()
            .inject_fault(shard, WorkerFault::Stall(Duration::from_millis(200)));
    }
    let p1 = svc.enqueue(&batch).expect("idle pool admits");
    // One batch in flight: far below the bound of 4, but not idle.
    let refused = match svc.enqueue(&batch) {
        Ok(_) => panic!("TryNow must refuse a non-idle pool"),
        Err(e) => e,
    };
    assert!(refused.is_shed(), "expected Shed, got {refused:?}");
    let first = svc.collect(p1);
    assert_eq!(first.expect_ok().len(), batch.len());
    // Drained back to idle: admitted again.
    let second = svc.submit_many(&batch).expect("idle pool admits again");
    for (qi, (g, w)) in second
        .expect_ok()
        .iter()
        .zip(first.expect_ok().iter())
        .enumerate()
    {
        assert_eq!(
            g.top, w.top,
            "q{qi}: answers diverged across idle admissions"
        );
    }
}

#[test]
fn block_policy_backpressures_instead_of_refusing() {
    let (_, idx, queries) = fixture();
    let batch = batch_of(&queries[..2], 10);
    let mut svc = session(&idx, 1, 1, AdmissionPolicy::Block, None);
    svc.pool_mut()
        .inject_fault(0, WorkerFault::Stall(Duration::from_millis(250)));
    let p1 = svc.enqueue(&batch).expect("depth 0 of bound 1 admits");
    // The queue is at its bound and the worker is stalled: Block must
    // wait for the slot rather than refuse, so this admission cannot
    // return before the worker finishes the first batch.
    let t0 = Instant::now();
    let p2 = svc.enqueue(&batch).expect("Block never sheds");
    assert!(
        t0.elapsed() >= Duration::from_millis(100),
        "admission returned in {:?} — it cannot have waited for the stalled worker",
        t0.elapsed()
    );
    // Backpressure, not over-admission: the bound held throughout.
    assert_eq!(svc.pool().queue_high_water(), 1);
    let first = svc.collect(p1);
    let second = svc.collect(p2);
    for (qi, (g, w)) in first
        .expect_ok()
        .iter()
        .zip(second.expect_ok().iter())
        .enumerate()
    {
        assert_eq!(g.top, w.top, "q{qi}: backpressured batch diverged");
    }
    assert_eq!(svc.stats().queries_shed, 0);
}

#[test]
fn deadline_expiry_degrades_to_partial_with_honest_exact_scores() {
    let (c, idx, queries) = fixture();
    let batch = batch_of(&queries[..4], 10);
    // A budget of one nanosecond has always expired by the first gate
    // poll: every query degrades instead of erroring.
    let mut svc = session(
        &idx,
        2,
        4,
        AdmissionPolicy::Block,
        Some(Duration::from_nanos(1)),
    );
    let mut full = session(&idx, 2, 4, AdmissionPolicy::Block, None);
    let got = svc.submit_many(&batch).expect("blocking admission");
    // The full-budget reference ranks the entire matching set, giving us
    // every document's exact score to check the partial prefix against.
    let all_docs: Vec<BatchQuery> = batch
        .iter()
        .map(|q| BatchQuery {
            terms: q.terms.clone(),
            n: c.num_docs(),
        })
        .collect();
    let want = full.submit_many(&all_docs).expect("blocking admission");
    for (qi, (g, w)) in got
        .expect_ok()
        .iter()
        .zip(want.expect_ok().iter())
        .enumerate()
    {
        assert!(
            g.partial,
            "q{qi}: expired budget must mark the response partial"
        );
        // Honesty: whatever made it into the heap is exact — each
        // (doc, score) matches the full run bit for bit. The timed-out
        // run performed no more work than the full one.
        for &(doc, score) in &g.top {
            let exact = w
                .top
                .iter()
                .find(|(d, _)| *d == doc)
                .unwrap_or_else(|| panic!("q{qi}: partial doc {doc} not in the full ranking"));
            assert_eq!(
                score.to_bits(),
                exact.1.to_bits(),
                "q{qi} doc {doc}: partial score is not the exact score"
            );
        }
        assert!(
            g.work.postings_scanned <= w.work.postings_scanned,
            "q{qi}: a timed-out query cannot scan more than the full run"
        );
    }
    let stats = svc.stats();
    assert_eq!(stats.queries_partial, batch.len());
    assert_eq!(stats.queries_served, batch.len());
    assert_eq!(stats.queries_failed, 0);
}

#[test]
fn solo_deadline_expiry_in_the_caller_degrades_to_partial_with_honest_exact_scores() {
    // The caller-runs twin of the test above: a short solo `submit` on an
    // idle pool runs on this thread under the same per-query deadline
    // gate, so an expired budget must degrade the same way — partial,
    // exact scores, no more work than the full run.
    let (c, idx, queries) = fixture();
    let short = short_queries(&idx, &queries);
    let mut svc = session(
        &idx,
        2,
        4,
        AdmissionPolicy::Block,
        Some(Duration::from_nanos(1)),
    );
    let mut full = session(&idx, 2, 4, AdmissionPolicy::Block, None);
    for (qi, q) in short.iter().enumerate() {
        let g = svc.submit(&q.terms, 10).expect("caller-runs never sheds");
        let w = full
            .submit(&q.terms, c.num_docs())
            .expect("caller-runs never sheds");
        assert!(
            g.partial,
            "q{qi}: expired budget must mark the response partial"
        );
        for &(doc, score) in &g.top {
            let exact = w
                .top
                .iter()
                .find(|(d, _)| *d == doc)
                .unwrap_or_else(|| panic!("q{qi}: partial doc {doc} not in the full ranking"));
            assert_eq!(
                score.to_bits(),
                exact.1.to_bits(),
                "q{qi} doc {doc}: partial score is not the exact score"
            );
        }
        assert!(
            g.work.postings_scanned <= w.work.postings_scanned,
            "q{qi}: a timed-out query cannot scan more than the full run"
        );
    }
    assert_eq!(caller_runs(&svc), short.len() as u64);
    let stats = svc.stats();
    assert_eq!(stats.queries_partial, short.len());
    assert_eq!(stats.queries_failed, 0);
}

#[test]
fn expired_deadline_overshoot_is_bounded_by_the_poll_stride_not_the_volume() {
    // Satellite: the gather and accumulator loops now poll the deadline
    // every SCAN_POLL_STRIDE postings *inside* a pass, so a query whose
    // budget has already expired stops within one stride per shard — not
    // at the end of the fragment volume, which is what the old
    // boundary-only polling allowed. Pin that tighter bound end to end
    // through the pool, on the full-scan fragmented plan (the widest
    // uninterruptible pass the engine used to have).
    let (_, idx, queries) = fixture();
    let shards = 2usize;
    let overshoot_bound = shards * moa_ir::fragment::SCAN_POLL_STRIDE;
    assert!(
        idx.num_postings() > overshoot_bound,
        "fixture volume {} must exceed the overshoot bound {} for the \
         tightening to be observable",
        idx.num_postings(),
        overshoot_bound
    );
    let batch = batch_of(&queries[..4], 10);
    let config = ServeConfig {
        mode: ServeMode::Fixed(PhysicalPlan::Fragmented(Strategy::FullScan)),
        sparse_block: Some(64),
        queue_depth: 4,
        admission: AdmissionPolicy::Block,
        deadline: Some(Duration::from_nanos(1)),
        ..ServeConfig::planned(shards)
    };
    let mut svc = ServeSession::new(Arc::clone(&idx), config).expect("tiny index shards cleanly");
    let got = svc.submit_many(&batch).expect("blocking admission");
    for (qi, g) in got.expect_ok().iter().enumerate() {
        assert!(g.partial, "q{qi}: expired budget must degrade to partial");
        assert!(
            g.work.postings_scanned <= overshoot_bound,
            "q{qi}: scanned {} postings after expiry — overshoot must stay \
             within one poll stride per shard ({overshoot_bound}), not run \
             to the fragment volume ({})",
            g.work.postings_scanned,
            idx.num_postings()
        );
    }
    assert_eq!(svc.stats().queries_partial, batch.len());
    assert_eq!(svc.stats().queries_failed, 0);
}

#[test]
fn set_at_a_time_deadline_overshoot_is_bounded_by_the_poll_stride() {
    // Satellite (ROADMAP "deadline check granularity"): the set-at-a-time
    // accumulator streams one run per query term and now polls the gate
    // every SCAN_POLL_STRIDE postings *inside* a run as well as at run
    // boundaries — the last uninterruptible pass in the engine. Mirror
    // the FullScan regression above on the accumulator plan: a budget
    // that expired before the first poll must stop within one stride per
    // shard, not at the end of the longest run.
    let (_, idx, queries) = fixture();
    let shards = 2usize;
    let overshoot_bound = shards * moa_ir::fragment::SCAN_POLL_STRIDE;
    assert!(
        idx.num_postings() > overshoot_bound,
        "fixture volume {} must exceed the overshoot bound {} for the \
         tightening to be observable",
        idx.num_postings(),
        overshoot_bound
    );
    let batch = batch_of(&queries[..4], 10);
    let config = ServeConfig {
        mode: ServeMode::Fixed(PhysicalPlan::SetAtATime),
        sparse_block: Some(64),
        queue_depth: 4,
        admission: AdmissionPolicy::Block,
        deadline: Some(Duration::from_nanos(1)),
        ..ServeConfig::planned(shards)
    };
    let mut svc = ServeSession::new(Arc::clone(&idx), config).expect("tiny index shards cleanly");
    let got = svc.submit_many(&batch).expect("blocking admission");
    for (qi, g) in got.expect_ok().iter().enumerate() {
        assert!(g.partial, "q{qi}: expired budget must degrade to partial");
        assert!(
            g.work.postings_scanned <= overshoot_bound,
            "q{qi}: accumulated {} postings after expiry — overshoot must \
             stay within one poll stride per shard ({overshoot_bound}), \
             not run to the end of a term's run ({} postings total)",
            g.work.postings_scanned,
            idx.num_postings()
        );
        // A truncated accumulation holds only inexact partial sums, so
        // the honest answer is an empty prefix — never a ranked guess.
        assert!(g.top.is_empty(), "q{qi}: partial sums must never be ranked");
    }
    assert_eq!(svc.stats().queries_partial, batch.len());
    assert_eq!(svc.stats().queries_failed, 0);
}

#[test]
fn poison_term_fails_only_its_position_and_the_worker_survives() {
    silence_worker_panics();
    let (_, idx, queries) = fixture();
    let poison = queries[0].terms[0];
    let clean: Vec<Query> = queries
        .iter()
        .filter(|q| !q.terms.contains(&poison))
        .take(2)
        .cloned()
        .collect();
    assert!(
        !clean.is_empty(),
        "fixture needs a query free of the poison term"
    );
    let mut batch = batch_of(&clean, 10);
    batch.insert(
        1,
        BatchQuery {
            terms: queries[0].terms.clone(),
            n: 10,
        },
    );
    let poisoned_pos = 1usize;
    let mut svc = session(&idx, 2, 4, AdmissionPolicy::Block, None);
    let mut reference = session(&idx, 2, 4, AdmissionPolicy::Block, None);
    svc.pool_mut()
        .inject_fault(0, WorkerFault::PoisonTerm(poison));
    let got = svc.submit_many(&batch).expect("blocking admission");
    let want = reference.submit_many(&batch).expect("blocking admission");
    for (qi, (g, w)) in got
        .responses
        .iter()
        .zip(want.expect_ok().iter())
        .enumerate()
    {
        if qi == poisoned_pos {
            match g {
                Err(ServeError::ShardFailed { shard, panic }) => {
                    assert_eq!(*shard, 0, "the poison was armed on shard 0");
                    assert!(
                        panic.contains("injected poison term"),
                        "payload must survive to the caller: {panic:?}"
                    );
                }
                other => panic!("poisoned position must fail typed, got {other:?}"),
            }
        } else {
            let g = g.as_ref().expect("clean positions are unaffected");
            assert_eq!(g.top, w.top, "q{qi}: clean position diverged");
        }
    }
    // The panic was caught inside the per-query guard: the worker never
    // died, so nothing respawned.
    assert_eq!(svc.pool().respawns(), 0);
    assert_eq!(svc.stats().queries_failed, 1);
    assert_eq!(svc.stats().queries_served, batch.len() - 1);
    // Disarmed, the same batch fully succeeds and matches the reference.
    svc.pool_mut().inject_fault(0, WorkerFault::ClearPoison);
    let healed = svc.submit_many(&batch).expect("blocking admission");
    for (qi, (g, w)) in healed
        .expect_ok()
        .iter()
        .zip(want.expect_ok().iter())
        .enumerate()
    {
        assert_eq!(g.top, w.top, "q{qi}: disarmed batch diverged");
    }
}

/// The top-N as `(doc, score bits)`, so equality is bit-for-bit.
fn bits(top: &[(u32, f64)]) -> Vec<(u32, u64)> {
    top.iter().map(|&(d, s)| (d, s.to_bits())).collect()
}

/// Position of the poisoned query in [`staggered_batch`].
const POISONED_POS: usize = 4;

/// Seven distinct queries for a 3-shard pool, whose staggered columns
/// start at positions 0, 2 and 4, plus a term that only the query at
/// [`POISONED_POS`] contains. Shard 2 therefore meets the poison first,
/// shard 0 last.
fn staggered_batch(c: &Collection) -> (Vec<BatchQuery>, u32) {
    let mut pool: Vec<Vec<u32>> = Vec::new();
    let generated = generate_queries(
        c,
        &QueryConfig {
            num_queries: 64,
            bias: DfBias::TrecLike { high_df_mix: 0.4 },
            seed: 0x7A99,
            ..QueryConfig::default()
        },
    )
    .expect("valid workload");
    for q in generated {
        if !pool.contains(&q.terms) {
            pool.push(q.terms);
        }
    }
    for (pi, poisoned) in pool.iter().enumerate() {
        for &term in poisoned {
            let mut chosen: Vec<&Vec<u32>> = pool
                .iter()
                .enumerate()
                .filter(|&(i, q)| i != pi && !q.contains(&term))
                .map(|(_, q)| q)
                .take(6)
                .collect();
            if chosen.len() == 6 {
                chosen.insert(POISONED_POS, poisoned);
                let batch = chosen
                    .into_iter()
                    .map(|t| BatchQuery {
                        terms: t.clone(),
                        n: 10,
                    })
                    .collect();
                return (batch, term);
            }
        }
    }
    panic!("the fixture has a query with a term no six others share");
}

#[test]
fn staggered_poison_fails_only_its_position_reported_by_the_first_shard() {
    // Three workers start their columns at 0, 2 and 4: shard 2 runs the
    // poisoned query first, shard 0 fifth. The merge still reports the
    // first failure in *shard* order, and the queries each worker ran
    // right after recovering are untouched.
    silence_worker_panics();
    let (c, idx, _) = fixture();
    let (batch, poison) = staggered_batch(&c);
    let mut svc = session(&idx, 3, 4, AdmissionPolicy::Block, None);
    let mut reference = session(&idx, 3, 4, AdmissionPolicy::Block, None);
    for shard in 0..3 {
        svc.pool_mut()
            .inject_fault(shard, WorkerFault::PoisonTerm(poison));
    }
    let got = svc.submit_many(&batch).expect("blocking admission");
    let want = reference.submit_many(&batch).expect("blocking admission");
    for (qi, (g, w)) in got
        .responses
        .iter()
        .zip(want.expect_ok().iter())
        .enumerate()
    {
        if qi == POISONED_POS {
            match g {
                Err(ServeError::ShardFailed { shard, panic }) => {
                    assert_eq!(*shard, 0, "the first failure in shard order");
                    assert!(panic.contains("injected poison term"), "{panic:?}");
                }
                other => panic!("poisoned position must fail typed, got {other:?}"),
            }
        } else {
            let g = g.as_ref().expect("clean positions are unaffected");
            assert_eq!(bits(&g.top), bits(&w.top), "q{qi}: clean position diverged");
        }
    }
    assert_eq!(svc.pool().respawns(), 0);
    assert_eq!(svc.stats().queries_failed, 1);
    assert_eq!(svc.stats().queries_served, batch.len() - 1);
}

#[test]
fn staggered_deadline_partials_are_exact_and_scan_no_more_than_the_full_run() {
    // The same 3-shard, 7-query shape under deadlines: a budget that has
    // always expired (every position partial) and one that expires
    // somewhere inside the staggered columns. A partial answer holds
    // only exact (doc, score) pairs; a complete one is the full top-N.
    let (c, idx, _) = fixture();
    let (batch, _) = staggered_batch(&c);
    let mut full = session(&idx, 3, 4, AdmissionPolicy::Block, None);
    let all_docs: Vec<BatchQuery> = batch
        .iter()
        .map(|q| BatchQuery {
            terms: q.terms.clone(),
            n: c.num_docs(),
        })
        .collect();
    let want = full.submit_many(&all_docs).expect("blocking admission");
    for budget in [Duration::from_nanos(1), Duration::from_micros(50)] {
        let mut svc = session(&idx, 3, 4, AdmissionPolicy::Block, Some(budget));
        let got = svc.submit_many(&batch).expect("blocking admission");
        for (qi, ((q, g), w)) in batch
            .iter()
            .zip(got.expect_ok().iter())
            .zip(want.expect_ok().iter())
            .enumerate()
        {
            if budget == Duration::from_nanos(1) {
                assert!(
                    g.partial,
                    "q{qi}: expired budget must mark the response partial"
                );
            }
            if g.partial {
                for &(doc, score) in &g.top {
                    let exact = w
                        .top
                        .iter()
                        .find(|(d, _)| *d == doc)
                        .unwrap_or_else(|| panic!("q{qi}: partial doc {doc} not ranked"));
                    assert_eq!(
                        score.to_bits(),
                        exact.1.to_bits(),
                        "{budget:?} q{qi} doc {doc}: partial score is not exact"
                    );
                }
            } else {
                assert_eq!(bits(&g.top), bits(&w.top[..q.n.min(w.top.len())]), "q{qi}");
            }
            assert!(
                g.work.postings_scanned <= w.work.postings_scanned,
                "{budget:?} q{qi}: a timed-out query cannot scan more than the full run"
            );
        }
        assert_eq!(svc.stats().queries_failed, 0);
    }
}

#[test]
fn poisoned_short_solo_submit_fails_typed_in_the_caller_and_recovers() {
    // A caller-run query never passes through the worker's queue, so the
    // armed poison is mirrored pool-side: the in-caller execution must
    // fail exactly as the worker would, inside the same per-query guard.
    silence_worker_panics();
    let (_, idx, queries) = fixture();
    let q = short_queries(&idx, &queries).remove(0);
    let mut svc = session(&idx, 2, 4, AdmissionPolicy::Block, None);
    let mut reference = session(&idx, 2, 4, AdmissionPolicy::Block, None);
    svc.pool_mut()
        .inject_fault(0, WorkerFault::PoisonTerm(q.terms[0]));
    match svc.submit(&q.terms, 10) {
        Err(ServeError::ShardFailed { shard, panic }) => {
            assert_eq!(shard, 0, "the poison was armed on shard 0");
            assert!(
                panic.contains("injected poison term"),
                "payload must survive to the caller: {panic:?}"
            );
        }
        other => panic!("poisoned solo submit must fail typed, got {other:?}"),
    }
    assert_eq!(caller_runs(&svc), 1, "the poisoned call ran in the caller");
    assert_eq!(svc.pool().respawns(), 0, "nothing died");
    assert_eq!(svc.stats().queries_failed, 1);
    svc.pool_mut().inject_fault(0, WorkerFault::ClearPoison);
    let healed = svc.submit(&q.terms, 10).expect("disarmed");
    let want = reference.submit(&q.terms, 10).expect("never faulted");
    assert_eq!(bits(&healed.top), bits(&want.top));
    assert_eq!(caller_runs(&svc), 2);
    assert_eq!(svc.pool().respawns(), 0);
}

#[test]
fn crash_fails_the_in_flight_batch_and_the_respawned_worker_matches() {
    // A crash storm on rotating shards of a 4-shard session, the last
    // crash hitting a worker that was already respawned once.
    silence_worker_panics();
    let (_, idx, queries) = fixture();
    let batch = batch_of(&queries[..3], 10);
    let crashed = [1, 2, 3, 1];
    let mut svc = session(&idx, 4, 4, AdmissionPolicy::Block, None);
    let mut reference = session(&idx, 4, 4, AdmissionPolicy::Block, None);
    let want = reference.submit_many(&batch).expect("blocking admission");
    for (k, &crash) in crashed.iter().enumerate() {
        // The stall keeps the worker demonstrably alive while the crash
        // and the batch queue behind it — the batch is always admitted to
        // a doomed worker, never to one already healed.
        svc.pool_mut()
            .inject_fault(crash, WorkerFault::Stall(Duration::from_millis(100)));
        svc.pool_mut().inject_fault(crash, WorkerFault::Crash);
        let got = svc
            .submit_many(&batch)
            .expect("the worker is alive at admission");
        // The worker died with the batch queued behind the crash: its
        // column is lost, and every position fails typed (the other
        // shards' fine answers cannot stand in for the missing one).
        for (qi, r) in got.responses.iter().enumerate() {
            match r {
                Err(ServeError::ShardFailed { shard, panic }) => {
                    assert_eq!(*shard, crash, "crash {k} q{qi}: the lost column's shard");
                    assert!(
                        panic.contains("worker terminated before answering"),
                        "crash {k} q{qi}: {panic:?}"
                    );
                }
                other => panic!("crash {k} q{qi}: lost column must fail typed, got {other:?}"),
            }
        }
        // The next submission heals: one respawn over the retained shard,
        // and answers bit-identical to a never-faulted session.
        let healed = svc.submit_many(&batch).expect("respawned pool admits");
        for (qi, (g, w)) in healed
            .expect_ok()
            .iter()
            .zip(want.expect_ok().iter())
            .enumerate()
        {
            assert_eq!(
                bits(&g.top),
                bits(&w.top),
                "crash {k} q{qi}: respawned worker diverged"
            );
        }
        assert_eq!(
            svc.pool().respawns(),
            k + 1,
            "crash {k}: one respawn per crash"
        );
    }
    assert_eq!(svc.stats().queries_failed, crashed.len() * batch.len());
    assert_eq!(svc.stats().worker_respawns, crashed.len());
    assert_eq!(svc.pool().recoveries().len(), crashed.len());
    // Each panic payload is preserved in the log, in crash order.
    let log = svc.pool().panic_log();
    assert_eq!(log.len(), crashed.len());
    for (entry, &crash) in log.iter().zip(&crashed) {
        assert_eq!(entry.shard, crash);
        assert!(
            entry.message.contains("injected worker crash"),
            "payload: {:?}",
            entry.message
        );
    }
    let outcome = svc.shutdown();
    assert!(
        !outcome.is_clean(),
        "the healed pool still reports its panic history"
    );
    assert_eq!(outcome.panics.len(), crashed.len());
    assert_eq!(outcome.shards.len(), 4, "every shard comes back");
}

#[test]
fn shutdown_reports_worker_panics_instead_of_repanicking() {
    silence_worker_panics();
    let (_, idx, _) = fixture();
    let mut svc = session(&idx, 2, 4, AdmissionPolicy::Block, None);
    svc.pool_mut().inject_fault(0, WorkerFault::Crash);
    // Teardown joins the dying worker and *captures* its payload — the
    // drain itself must not panic, and the retained shard still comes
    // back for both the dead and the healthy worker.
    let outcome = svc.shutdown();
    assert!(!outcome.is_clean());
    assert_eq!(outcome.panics.len(), 1);
    assert_eq!(outcome.panics[0].shard, 0);
    assert!(
        outcome.panics[0].message.contains("injected worker crash"),
        "payload: {:?}",
        outcome.panics[0].message
    );
    let shards = outcome.into_shards();
    assert_eq!(shards.len(), 2);
    for (s, shard) in shards.iter().enumerate() {
        assert_eq!(shard.id(), s);
    }
}

/// The most frequent terms, as many as it takes for every document to
/// match at least one of them.
fn query_matching_every_doc(idx: &InvertedIndex) -> Vec<u32> {
    let mut matched = vec![false; idx.num_docs()];
    let mut unmatched = idx.num_docs();
    let mut terms = Vec::new();
    for &t in idx.terms_by_df_asc().iter().rev() {
        let (docs, _) = idx.decode_postings(t).expect("in vocabulary");
        for d in docs {
            if !std::mem::replace(&mut matched[d as usize], true) {
                unmatched -= 1;
            }
        }
        terms.push(t);
        if unmatched == 0 {
            return terms;
        }
    }
    panic!("some document has no terms");
}

#[test]
fn a_top_n_deeper_than_the_collection_answers_the_full_ranking_and_the_shards_keep_serving() {
    // `usize::MAX` used to overflow the heap reservation inside a shard;
    // on the set-at-a-time path the unwind also stranded the shard's
    // accumulator, failing every later query there. A depth beyond the
    // collection is its full ranking, and the next queries are unchanged.
    let (_, idx, queries) = fixture();
    let mut terms: Vec<Vec<u32>> = queries.into_iter().map(|q| q.terms).collect();
    terms.push(query_matching_every_doc(&idx));
    let fixed = |plan| ServeConfig {
        mode: ServeMode::Fixed(plan),
        ..ServeConfig::planned(2)
    };
    let configs = [
        fixed(PhysicalPlan::SetAtATime),
        fixed(PhysicalPlan::PrunedDaat),
        fixed(PhysicalPlan::Fragmented(Strategy::FullScan)),
        ServeConfig::cached(2),
    ];
    for config in configs {
        let mut svc =
            ServeSession::new(Arc::clone(&idx), config).expect("tiny index shards cleanly");
        let mut oracle = Searcher::new(&idx, config.model);
        for q in &terms {
            let ctx = format!("{:?} {q:?}", config.mode);
            let before = svc.submit(q, 10).expect("in vocabulary");
            let deepest = svc
                .submit(q, usize::MAX)
                .unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
            let full = oracle.search(q, idx.num_docs()).expect("in vocabulary");
            assert_eq!(bits(&deepest.top), bits(&full.top), "{ctx}");
            let after = svc.submit(q, 10).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
            assert_eq!(bits(&after.top), bits(&before.top), "{ctx}");
            let shallower = svc.submit(q, 7).unwrap_or_else(|e| panic!("{ctx}: {e:?}"));
            assert_eq!(
                bits(&shallower.top),
                bits(&before.top[..before.top.len().min(7)]),
                "{ctx}"
            );
        }
        let every_doc = svc
            .submit(terms.last().expect("pushed above"), usize::MAX)
            .expect("in vocabulary");
        assert_eq!(every_doc.top.len(), idx.num_docs());
        assert_eq!(svc.stats().queries_failed, 0);
    }
}
