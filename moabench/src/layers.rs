//! The traced run: the per-layer metrics.
//!
//! Spans come from this file only, around calls into public functions
//! of the layers; counts are read at the same boundaries. Work counts
//! come from replaying queries on the driver thread through
//! `ShardedEngine::execute_batch_sequential`, where they repeat exactly;
//! what the pooled session counted is reported separately.

use std::hint::black_box;
use std::path::{Path, PathBuf};
use std::sync::Arc;
use std::time::Instant;

use moa_corpus::Collection;
use moa_ir::{InvertedIndex, PhysicalPlan};
use moa_obs::Phase;
use moa_serve::{
    BatchQuery, QueryResponse, ResultCache, ServeConfig, ServeMode, ServeSession, ShardedEngine,
};
use moa_storage::pack::{bits_for, pack_into, unpack_deltas_prefix_sum, unpack_from};
use moa_topn::{kway_merge_sorted, TopNHeap};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use crate::affinity::pin_shard_workers;
use crate::report::{Outcome, Report, PER_LAYER};
use crate::run::{
    busiest_shard, check_expectations, serve_config, set_up, timed_rounds, warm_up, Bench, Oracle,
    Phases, Tally,
};
use crate::stats::{call_percentile, median, percentile, sorted, sorted_samples, spread};
use crate::trace::Tracer;
use crate::workload::{Spec, Stream};

/// Solo arrivals replayed layer by layer on the driver thread.
const LAYER_SAMPLE: usize = 256;
/// Untraced rounds behind `service.sat_spread` and the traced round's
/// overhead ratio.
const UNTRACED_ROUNDS: usize = 3;
/// Postings the decode kernels are timed over, at most.
const DECODE_SAMPLE_POSTINGS: usize = 2_000_000;
/// `sysconf(_SC_CLK_TCK)` on Linux: /proc reports CPU time in these.
const TICKS_PER_S: f64 = 100.0;

const EXACT_PLANS: [(&str, PhysicalPlan); 3] = [
    ("operator.pruned_daat_us_p50", PhysicalPlan::PrunedDaat),
    (
        "operator.exhaustive_daat_us_p50",
        PhysicalPlan::ExhaustiveDaat,
    ),
    ("operator.set_at_a_time_us_p50", PhysicalPlan::SetAtATime),
];

/// Where the traced pass leaves the spans of `workload`, from the
/// directory the benchmark is run in: the root of the checkout.
pub fn trace_path(workload: &str) -> PathBuf {
    Path::new("moabench/out").join(format!("trace-{workload}.jsonl"))
}

/// Median ns per unit of `pass`, which does `units` units of work. Each
/// of five trials repeats the pass until 10 ms have gone by, so that a
/// pass of a few microseconds is still timed over a long interval.
fn ns_per_unit(units: usize, mut pass: impl FnMut()) -> f64 {
    if units == 0 {
        return 0.0;
    }
    pass();
    let trials: Vec<f64> = (0..5)
        .map(|_| {
            let t0 = Instant::now();
            let mut passes = 0u32;
            while passes == 0 || t0.elapsed().as_millis() < 10 {
                pass();
                passes += 1;
            }
            t0.elapsed().as_nanos() as f64 / (f64::from(passes) * units as f64)
        })
        .collect();
    median(&trials)
}

/// CPU ticks and context switches of the whole process so far.
fn process_counters() -> (f64, f64) {
    let ticks = std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| {
            // The command name may hold spaces: fields count from the
            // closing parenthesis. utime and stime are fields 14 and 15.
            let rest = s.rsplit_once(')')?.1.to_string();
            let f: Vec<&str> = rest.split_whitespace().collect();
            Some(f.get(11)?.parse::<f64>().ok()? + f.get(12)?.parse::<f64>().ok()?)
        })
        .unwrap_or(0.0);
    let mut switches = 0.0;
    if let Ok(tasks) = std::fs::read_dir("/proc/self/task") {
        for task in tasks.flatten() {
            let status = std::fs::read_to_string(task.path().join("status")).unwrap_or_default();
            for line in status.lines() {
                if line.starts_with("voluntary_ctxt_switches")
                    || line.starts_with("nonvoluntary_ctxt_switches")
                {
                    switches += line
                        .split_whitespace()
                        .nth(1)
                        .and_then(|v| v.parse::<f64>().ok())
                        .unwrap_or(0.0);
                }
            }
        }
    }
    (ticks, switches)
}

fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            let line = s.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kb| kb / 1e3)
}

/// A registry histogram's median in µs (0 when it saw nothing).
fn registry_p50_us(session: &ServeSession, name: &str) -> f64 {
    session
        .metrics()
        .histogram(name)
        .percentile(50.0)
        .map_or(0.0, |ns| ns as f64 / 1e3)
}

fn in_thread_engine(index: &Arc<InvertedIndex>) -> ShardedEngine {
    let config = serve_config();
    ShardedEngine::build(
        Arc::clone(index),
        config.shard_spec,
        config.frag_spec,
        config.model,
        config.policy,
        config.sparse_block,
    )
    .expect("the corpus shards under the default configuration")
}

/// Run `queries` through the in-thread engine, shard after shard.
fn replay(
    engine: &mut ShardedEngine,
    queries: &[BatchQuery],
    mode: ServeMode,
    propagate: bool,
) -> Vec<QueryResponse> {
    engine
        .execute_batch_sequential(queries, mode, propagate)
        .expect("stream terms are in the vocabulary")
}

fn shard_tops(resp: &QueryResponse) -> Vec<&[(u32, f64)]> {
    resp.shards
        .iter()
        .map(|o| o.report.top.as_slice())
        .collect()
}

fn total_busy_us(resp: &QueryResponse) -> f64 {
    resp.shards.iter().map(|o| o.busy.as_secs_f64() * 1e6).sum()
}

/// Replay `sample` twice over: through the pooled session (a root span
/// `service.submit`), then layer by layer on this thread — `cache.get`,
/// and on a miss `planner.plan` per shard, `operator.execute`,
/// `topn.kway_merge` and `cache.insert` — against a private cache of the
/// session's size that has seen the same arrivals, so hits and misses
/// fall on the same queries. Returns (unattributed share, hand-off p50).
fn layer_replay(
    bench: &mut Bench,
    engine: &mut ShardedEngine,
    sample: &[u32],
    tracer: &mut Tracer,
    tally: &mut Tally,
) -> (f64, f64) {
    let config = bench.session.config();
    let stream = bench.stream;
    let cache = ResultCache::new(config.cache.unwrap_or_default(), config.model);
    let execute = |engine: &mut ShardedEngine, q: &BatchQuery| -> QueryResponse {
        let one = std::slice::from_ref(q);
        replay(engine, one, ServeMode::Planned, config.propagate)
            .pop()
            .expect("one response per query")
    };
    if bench.spec.bump {
        // Both caches start empty and see the same arrivals.
        bench.session.invalidate_epoch();
        bench.bumps += 1;
    } else {
        // The session's cache is warm: warm the private one alike.
        for &k in sample {
            let q = &stream.pool[k as usize];
            if cache.get(&q.terms, q.n).is_none() {
                cache.insert(&q.terms, q.n, Arc::new(execute(engine, q)));
            }
        }
    }
    let (mut solo_us, mut attributed_us) = (0.0, 0.0);
    let mut handoff_us = Vec::new();
    for (i, &k) in sample.iter().enumerate() {
        let q = &stream.pool[k as usize];
        let id = i as u64;
        tally.attempted += 1;
        let root = tracer.start("service.submit", id, None);
        let served = bench.session.submit(&q.terms, q.n);
        tracer.end(root);
        let latency = tracer.micros(root);
        solo_us += latency;

        let replay = tracer.start("replay", id, None);
        let get = tracer.start("cache.get", id, Some(replay));
        let hit = cache.get(&q.terms, q.n);
        tracer.end(get);
        attributed_us += tracer.micros(get);
        let answer = match hit {
            Some(cached) => cached,
            None => {
                for shard in engine.shards() {
                    let plan = tracer.within("planner.plan", id, Some(replay), || {
                        shard.plan(&q.terms, q.n)
                    });
                    let _ = black_box(plan);
                }
                let run = tracer.start("operator.execute", id, Some(replay));
                let resp = execute(engine, q);
                tracer.end(run);
                let merge = tracer.start("topn.kway_merge", id, Some(replay));
                black_box(kway_merge_sorted(&shard_tops(&resp), q.n));
                tracer.end(merge);
                let resp = Arc::new(resp);
                let insert = tracer.start("cache.insert", id, Some(replay));
                cache.insert(&q.terms, q.n, Arc::clone(&resp));
                tracer.end(insert);
                // Shards run side by side in the pool: the busiest one
                // is what a caller waits for.
                let critical = busiest_shard(&resp).as_secs_f64() * 1e6 + tracer.micros(merge);
                attributed_us += critical + tracer.micros(insert);
                handoff_us.push(latency - critical);
                resp
            }
        };
        tracer.end(replay);
        // The in-thread engine is a second oracle for the pooled answer.
        if !served.is_ok_and(|r| !r.partial && r.top == answer.top) {
            tally.failed += 1;
        }
    }
    (1.0 - attributed_us / solo_us, median(&handoff_us))
}

/// Operator, planner and threshold figures from sequential replays of
/// the sample's distinct queries. Returns the planned replay's answers
/// for the merge and cache micro-measurements.
fn operator_pass(
    engine: &mut ShardedEngine,
    queries: &[BatchQuery],
    report: &mut Report,
) -> Vec<QueryResponse> {
    let planned = replay(engine, queries, ServeMode::Planned, true);
    let unpropagated = replay(engine, queries, ServeMode::Planned, false);
    let per_query = queries.len() as f64;
    let sum = |f: &dyn Fn(&QueryResponse) -> usize, rs: &[QueryResponse]| -> f64 {
        rs.iter().map(|r| f(r) as f64).sum()
    };
    let scanned = sum(&|r| r.work.postings_scanned, &planned);
    report.set("operator.postings_scanned_per_query", scanned / per_query);
    report.set(
        "operator.seeks_per_query",
        sum(&|r| r.work.seeks, &planned) / per_query,
    );
    report.set(
        "operator.bound_exits_per_query",
        sum(&|r| r.work.bound_exits, &planned) / per_query,
    );
    report.set(
        "operator.docs_skipped_per_query",
        sum(&|r| r.work.docs_skipped, &planned) / per_query,
    );
    report.set(
        "operator.scan_per_result",
        scanned / sum(&|r| r.top.len(), &planned).max(1.0),
    );
    report.set(
        "threshold.scan_ratio",
        scanned / sum(&|r| r.work.postings_scanned, &unpropagated).max(1.0),
    );

    let outcomes: Vec<_> = planned.iter().flat_map(|r| r.shards.iter()).collect();
    let busy = sorted(
        outcomes
            .iter()
            .map(|o| o.busy.as_secs_f64() * 1e6)
            .collect(),
    );
    report.set("operator.shard_busy_us_p50", percentile(&busy, 50.0));
    report.set("operator.shard_busy_us_p99", percentile(&busy, 99.0));
    let phase_ns = |p: Phase| outcomes.iter().map(|o| o.phases.get(p) as f64).sum::<f64>();
    let stages = [
        ("operator.phase_share.gate_pass", Phase::GatePass),
        ("operator.phase_share.decode", Phase::Decode),
        ("operator.phase_share.score", Phase::Score),
        ("operator.phase_share.merge", Phase::Merge),
    ];
    let engine_ns: f64 = stages.iter().map(|&(_, p)| phase_ns(p)).sum();
    for (name, p) in stages {
        report.set(name, phase_ns(p) / engine_ns.max(1.0));
    }
    let num_shards = planned.first().map_or(1, |r| r.shards.len());
    let shard_busy: Vec<f64> = (0..num_shards)
        .map(|s| planned.iter().map(|r| r.shards[s].busy.as_secs_f64()).sum())
        .collect();
    let mean_busy = shard_busy.iter().sum::<f64>() / num_shards as f64;
    report.set(
        "pool.shard_imbalance",
        shard_busy.iter().copied().fold(0.0, f64::max) / mean_busy,
    );

    let picked = |f: &dyn Fn(PhysicalPlan) -> bool| {
        outcomes.iter().filter(|o| f(o.plan)).count() as f64 / outcomes.len() as f64
    };
    report.set(
        "planner.pick_share.pruned_daat",
        picked(&|p| p == PhysicalPlan::PrunedDaat),
    );
    report.set(
        "planner.pick_share.set_at_a_time",
        picked(&|p| p == PhysicalPlan::SetAtATime),
    );
    report.set(
        "planner.pick_share.exhaustive_daat",
        picked(&|p| p == PhysicalPlan::ExhaustiveDaat),
    );
    report.set(
        "planner.pick_share.fragmented",
        picked(&|p| matches!(p, PhysicalPlan::Fragmented(_))),
    );
    report.set(
        "planner.memo_hit_ratio",
        outcomes.iter().filter(|o| o.memo_hit).count() as f64 / outcomes.len() as f64,
    );
    let memo_us: Vec<f64> = outcomes
        .iter()
        .map(|o| o.phases.get(Phase::Plan) as f64 / 1e3)
        .collect();
    report.set("planner.memo_plan_us_p50", median(&memo_us));
    let mut plan_us = Vec::with_capacity(outcomes.len());
    for q in queries {
        for shard in engine.shards() {
            let t0 = Instant::now();
            let _ = black_box(shard.plan(&q.terms, q.n));
            plan_us.push(t0.elapsed().as_nanos() as f64 / 1e3);
        }
    }
    report.set("planner.plan_us_p50", median(&plan_us));

    // Every exact operator pinned on both shards, against the planner's
    // own choice, on the clock.
    let chosen: Vec<f64> = planned.iter().map(total_busy_us).collect();
    let mut best = vec![f64::INFINITY; queries.len()];
    for (name, plan) in EXACT_PLANS {
        let walls: Vec<f64> = replay(engine, queries, ServeMode::Fixed(plan), true)
            .iter()
            .map(total_busy_us)
            .collect();
        for (b, w) in best.iter_mut().zip(&walls) {
            *b = b.min(*w);
        }
        report.set(name, median(&walls));
    }
    report.set(
        "planner.wall_regret",
        chosen.iter().sum::<f64>() / best.iter().sum::<f64>(),
    );
    planned
}

/// Decode, cursor and seek costs over the posting runs of `terms`, both
/// at the `pack` kernels and through the block store.
fn storage_layers(index: &InvertedIndex, terms: &[u32], report: &mut Report) {
    let blocks = index.blocks();
    let postings: usize = terms.iter().map(|&t| blocks.run_len(t)).sum();

    // The same runs re-packed block by block with the public encoder, so
    // that the kernels are timed on their own.
    struct PackedBlock {
        docs_at: usize,
        tfs_at: usize,
        doc_bits: u8,
        tf_bits: u8,
        len: usize,
        first: u32,
    }
    let mut words: Vec<u64> = Vec::new();
    let mut packed = Vec::new();
    for &t in terms {
        let (docs, tfs) = index.decode_postings(t).expect("sampled terms exist");
        for (d, f) in docs
            .chunks(moa_ir::BLOCK_LEN)
            .zip(tfs.chunks(moa_ir::BLOCK_LEN))
        {
            let gaps: Vec<u32> = std::iter::once(0)
                .chain(d.windows(2).map(|w| w[1] - w[0] - 1))
                .collect();
            let doc_bits = bits_for(gaps.iter().copied().max().unwrap_or(0));
            let tf_bits = bits_for(f.iter().copied().max().unwrap_or(0));
            let docs_at = words.len();
            pack_into(&gaps, doc_bits, &mut words);
            let tfs_at = words.len();
            pack_into(f, tf_bits, &mut words);
            packed.push(PackedBlock {
                docs_at,
                tfs_at,
                doc_bits,
                tf_bits,
                len: d.len(),
                first: d[0],
            });
        }
    }
    report.set(
        "pack.bytes_per_posting",
        (words.len() * 8) as f64 / postings.max(1) as f64,
    );
    words.extend([0, 0]); // the kernels may look one window past a run
    let mut out = [0u32; moa_ir::BLOCK_LEN];
    report.set(
        "pack.decode_ns_per_posting",
        ns_per_unit(postings, || {
            let mut acc = 0u32;
            for b in &packed {
                unpack_deltas_prefix_sum(&words[b.docs_at..], b.doc_bits, b.len, b.first, &mut out);
                acc ^= out[b.len - 1];
                unpack_from(&words[b.tfs_at..], b.tf_bits, b.len, &mut out);
                acc ^= out[b.len - 1];
            }
            black_box(acc);
        }),
    );

    report.set(
        "blocks.bulk_decode_ns_per_posting",
        ns_per_unit(postings, || {
            let mut acc = 0u32;
            for &t in terms {
                blocks.for_each(t, |doc, tf| acc = acc.wrapping_add(doc ^ tf));
            }
            black_box(acc);
        }),
    );
    report.set(
        "blocks.cursor_ns_per_posting",
        ns_per_unit(postings, || {
            let mut acc = 0u32;
            for &t in terms {
                let mut cursor = index.cursor(t).expect("sampled terms exist");
                while let Some(doc) = cursor.doc() {
                    acc = acc.wrapping_add(doc ^ cursor.tf());
                    cursor.advance();
                }
            }
            black_box(acc);
        }),
    );
    // Strided targets: 64 seeks across the document space per run.
    let stride = (index.num_docs() as u32 / 64).max(1);
    let seek_pass = || {
        let mut seeks = 0usize;
        for &t in terms {
            let mut cursor = index.cursor(t).expect("sampled terms exist");
            let mut target = stride;
            while !cursor.is_exhausted() {
                cursor.seek(target);
                seeks += 1;
                target = cursor.doc().map_or(u32::MAX, |d| d.saturating_add(stride));
            }
        }
        seeks
    };
    let seeks = seek_pass();
    report.set(
        "blocks.seek_ns",
        ns_per_unit(seeks, || {
            black_box(seek_pass());
        }),
    );
    report.set(
        "blocks.bytes_per_posting",
        blocks.storage_bytes() as f64 / blocks.num_postings().max(1) as f64,
    );
}

/// The merge, the heap and the result cache, timed alone on the
/// sample's real answers.
fn merge_and_cache_layers(
    queries: &[BatchQuery],
    answers: Vec<QueryResponse>,
    report: &mut Report,
) {
    report.set(
        "topn.kway_merge_ns",
        ns_per_unit(answers.len(), || {
            for (q, r) in queries.iter().zip(&answers) {
                black_box(kway_merge_sorted(&shard_tops(r), q.n));
            }
        }),
    );
    let depth = queries.iter().map(|q| q.n).max().unwrap_or(1);
    let mut rng = StdRng::seed_from_u64(0x70);
    let scores: Vec<f64> = (0..65_536).map(|_| rng.gen::<f64>()).collect();
    report.set(
        "topn.heap_push_ns",
        ns_per_unit(scores.len(), || {
            let mut heap = TopNHeap::new(depth);
            for (doc, &s) in scores.iter().enumerate() {
                heap.push(doc as u32, s);
            }
            black_box(heap.len());
        }),
    );

    let config = serve_config();
    let cache = ResultCache::new(config.cache.unwrap_or_default(), config.model);
    let answers: Vec<Arc<QueryResponse>> = answers.into_iter().map(Arc::new).collect();
    // After a bump every resident key is stale: the miss reclaims it and
    // the insert refills — the write path `zipf_churn` lives on.
    report.set(
        "cache.miss_insert_ns",
        ns_per_unit(queries.len(), || {
            cache.invalidate_epoch();
            for (q, r) in queries.iter().zip(&answers) {
                if cache.get(&q.terms, q.n).is_none() {
                    cache.insert(&q.terms, q.n, Arc::clone(r));
                }
            }
        }),
    );
    report.set(
        "cache.hit_ns",
        ns_per_unit(queries.len(), || {
            for q in queries {
                black_box(cache.get(&q.terms, q.n));
            }
        }),
    );
    report.set(
        "cache.invalidate_ns",
        ns_per_unit(1000, || {
            for _ in 0..1000 {
                black_box(cache.invalidate_epoch());
            }
        }),
    );
}

/// One warm-up and one timed sat replay on a session with worker
/// telemetry off; its qps.
fn telemetry_off_qps(bench: &Bench, tally: &mut Tally) -> f64 {
    let config = ServeConfig {
        telemetry: false,
        ..serve_config()
    };
    let session = ServeSession::new(Arc::clone(&bench.index), config)
        .expect("the corpus shards under the default configuration");
    let mut quiet = Bench {
        spec: bench.spec,
        stream: bench.stream,
        index: Arc::clone(&bench.index),
        session,
        bumps: 0,
        pinned: pin_shard_workers(),
    };
    quiet.sat_replay(tally, None);
    let qps = quiet.sat_replay(tally, None).qps();
    if !quiet.shut_down().1 {
        tally.failed += 1;
    }
    qps
}

/// The traced run of one workload: every per-layer metric.
pub fn run_traced(
    corpus: &Collection,
    generate_s: f64,
    spec: &'static Spec,
    stream: &Stream,
) -> Outcome {
    let mut phases = Phases::default();
    let mut report = Report::new(PER_LAYER);
    report.set("corpus.generate_s", generate_s);
    report.set("corpus.postings", corpus.num_postings() as f64);

    let (mut bench, times) = set_up(corpus, spec, stream, &mut phases.setup);
    report.set("index.build_s", times.build_s);
    report.set("index.session_new_s", times.session_new_s);
    report.set("index.ready_batch_s", times.ready_batch_s);
    let index = Arc::clone(&bench.index);
    let t0 = Instant::now();
    let mut engine = in_thread_engine(&index);
    report.set("index.shard_build_s", t0.elapsed().as_secs_f64());
    // The engine builds its pruning tables on the first query that
    // prunes; pay that here, as the session did in its ready batch.
    for batch in stream.batches.iter().take(2) {
        replay(&mut engine, batch, ServeMode::Planned, true);
    }

    let mut oracle = Oracle::new(&index, stream.pool.len());
    let warm = warm_up(&mut bench, &mut oracle, &mut phases.warmup);

    // Untraced rounds: the reference for the traced one, and the source
    // of everything the session counts itself.
    let (ticks0, switches0) = process_counters();
    let rounds = timed_rounds(&mut bench, &warm, UNTRACED_ROUNDS, &mut phases);
    let (ticks1, switches1) = process_counters();
    let broken = check_expectations(spec, &warm, &rounds);
    let queries_run = (rounds.sat.arrivals + (rounds.count() * spec.solo_len) as u64) as f64;
    let sat = rounds.sat;
    let cache = bench
        .session
        .result_cache()
        .expect("cache configured")
        .stats();
    report.set(
        "process.cpu_us_per_query",
        (ticks1 - ticks0) / TICKS_PER_S * 1e6 / queries_run,
    );
    report.set(
        "process.ctx_switches_per_query",
        (switches1 - switches0) / queries_run,
    );
    report.set("cache.hit_ratio", sat.hits as f64 / sat.arrivals as f64);
    report.set(
        "cache.evictions_per_kq",
        rounds.evictions as f64 / (queries_run / 1e3),
    );
    report.set("cache.entries", cache.entries as f64);
    report.set("cache.bytes_high_water", cache.bytes_high_water as f64);
    report.set(
        "admission.coalesced_ratio",
        sat.coalesced as f64 / sat.arrivals as f64,
    );
    report.set("admission.shed", sat.shed as f64);
    report.set(
        "admission.queue_high_water",
        bench.session.pool().queue_high_water() as f64,
    );
    report.set(
        "pool.postings_scanned_per_query",
        sat.scanned as f64 / sat.arrivals as f64,
    );
    report.set(
        "pool.busy_share",
        sat.busy_ns as f64 / (sat.wall_s * 1e9 * 2.0),
    );
    report.set(
        "pool.queue_wait_us_p50",
        registry_p50_us(&bench.session, "serve.queue_wait_ns"),
    );
    report.set(
        "service.kway_merge_us_p50",
        registry_p50_us(&bench.session, "serve.kway_merge_ns"),
    );
    report.set(
        "service.deliver_us_p50",
        registry_p50_us(&bench.session, "serve.deliver_ns"),
    );
    report.set(
        "service.solo_p99_us",
        call_percentile(&sorted_samples(rounds.solo_us.clone()), 99.0),
    );
    report.set("service.sat_spread", spread(&rounds.qps));

    // The traced round: the same replay and slice with a span around
    // every call into the session.
    let mut tracer = Tracer::new();
    let traced = bench.sat_replay(&mut phases.sat, Some(&mut tracer));
    let mut traced_solo = Vec::with_capacity(stream.solo.len());
    bench.solo_slice(
        &warm.solo_hits,
        &mut phases.solo,
        &mut traced_solo,
        Some(&mut tracer),
    );
    report.set("trace.overhead_ratio", median(&rounds.qps) / traced.qps());
    report.set(
        "cache.stale_reclaimed_per_kq",
        traced.stale_reclaimed as f64 / (traced.arrivals as f64 / 1e3),
    );

    let sample = &stream.solo[..LAYER_SAMPLE.min(stream.solo.len())];
    let (unattributed, handoff_us) = layer_replay(
        &mut bench,
        &mut engine,
        sample,
        &mut tracer,
        &mut phases.layers,
    );
    report.set("service.unattributed_share", unattributed);
    report.set("pool.handoff_us_p50", handoff_us);

    let mut keys = sample.to_vec();
    keys.sort_unstable();
    keys.dedup();
    let distinct: Vec<BatchQuery> = keys
        .iter()
        .map(|&k| stream.pool[k as usize].clone())
        .collect();
    let answers = operator_pass(&mut engine, &distinct, &mut report);
    let mut terms: Vec<u32> = distinct
        .iter()
        .flat_map(|q| q.terms.iter().copied())
        .collect();
    terms.sort_unstable();
    terms.dedup();
    let mut budget = DECODE_SAMPLE_POSTINGS;
    terms.retain(|&t| {
        let run = index.blocks().run_len(t);
        let keep = run <= budget;
        budget = budget.saturating_sub(run);
        keep
    });
    storage_layers(&index, &terms, &mut report);
    merge_and_cache_layers(&distinct, answers, &mut report);
    report.set(
        "obs.telemetry_overhead_ratio",
        telemetry_off_qps(&bench, &mut phases.layers) / median(&rounds.qps),
    );
    report.set(
        "loadgen.clock_ns",
        ns_per_unit(1000, || {
            for _ in 0..1000 {
                black_box(Instant::now());
            }
        }),
    );
    report.set("process.peak_rss_mb", peak_rss_mb());

    if !bench.shut_down().1 {
        phases.layers.failed += 1;
    }
    let path = trace_path(spec.name);
    match tracer.write_jsonl(&path) {
        Ok(()) => println!(
            "{} trace: {} spans in {}",
            spec.name,
            tracer.spans().len(),
            path.display()
        ),
        Err(e) => {
            println!("{} trace: cannot write {}: {e}", spec.name, path.display());
            phases.layers.failed += 1;
        }
    }
    for line in &broken {
        println!("{} CHECK FAILED: {line}", spec.name);
    }
    phases.print(spec.name);
    let total = phases.total();
    Outcome {
        workload: spec.name,
        correct: total.failed == 0 && broken.is_empty(),
        attempted: total.attempted,
        failed: total.failed,
        metrics: report.finish().expect("every per-layer metric is set"),
    }
}
