//! E18 — sustained-load serving: worker pool vs scoped threads vs
//! sequential.
//!
//! The serving question E16 cannot answer: not "how fast is one batch"
//! but "how many queries per second does each runtime sustain, and what
//! latency do queries see, under a realistic arrival process?" An
//! open-loop load generator replays a Zipf-popularity query stream (hot
//! queries repeat per their rank, via `moa_corpus::generate_query_stream`)
//! against three runtimes at every shard count:
//!
//! * **pool** — the persistent shard worker pool behind
//!   `ServeSession::enqueue`/`collect`, driven pipelined: the next
//!   admission batch is enqueued *before* the previous batch is merged,
//!   so merge and bookkeeping overlap shard service. The pool's
//!   admission queue also **coalesces** duplicate in-batch queries
//!   (identical terms and n execute once, the answer fans out — see
//!   `moa_serve::ShardPool::submit`), which under a Zipf stream is its
//!   dominant structural advantage: the hotter the traffic and the
//!   deeper the backlog, the larger the admitted batches and the more
//!   work coalescing removes. Backpressure makes the pool *faster*,
//! * **scoped** — the retired scoped-thread-per-batch path
//!   (`ShardedEngine::execute_batch`): P thread spawns + joins per
//!   admitted batch, kept measurable as the regression baseline,
//! * **sequential** — every admitted batch served on the driver thread
//!   (`ShardedEngine::execute_batch_sequential`): the single-core floor
//!   any parallel runtime must beat to justify itself.
//!
//! The generator is *open-loop*: arrival `i` is due at `i / offered_qps`
//! regardless of how the server is coping — the discipline that exposes
//! queueing (a closed loop would politely slow down and hide it).
//! Arrivals due at the same poll are admitted as one batch, capped at
//! `MAX_BATCH`: the cap is the backpressure knob a real front end has,
//! and it keeps unbounded admission batches from amortizing the scoped
//! path's spawn cost into invisibility. Offered load is calibrated to
//! `OVERLOAD` × the measured single-thread capacity, so the sequential
//! baseline always saturates and the parallel runtimes have queues to
//! eat. Per-query latency is admission-to-merge (arrival timestamp to
//! the completion of the batch that carried the query), summarized by
//! nearest-rank p50/p95/p99/max; each runtime reports its best replay
//! (highest achieved throughput) of `REPLAYS`.
//!
//! Gates (enforced here and by CI's E18 smoke): at **every** shard
//! count, pool throughput ≥ the sequential baseline and ≥ the scoped
//! path, and pool p99 latency no worse than the scoped path's (with
//! tolerance for shared-host noise). The committed figures live in
//! `BENCH_throughput.json`.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moa_corpus::{
    generate_query_stream, Collection, CollectionConfig, DfBias, QueryConfig, StreamConfig,
};
use moa_ir::InvertedIndex;
use moa_serve::{BatchQuery, PendingBatch, ServeConfig, ServeMode, ServeSession, ShardedEngine};

use crate::harness::{fmt_duration, Percentiles, Scale, Table};

/// Ranking depth (matches E16's serving posture).
const TOP_N: usize = 100;

/// Shard counts swept: the unsharded engine plus the sharded
/// configurations where the scoped-thread path measured its 0.44–0.76×
/// regression.
const SHARD_COUNTS: [usize; 4] = [1, 2, 4, 8];

/// Admission batch cap: arrivals due at the same poll are admitted
/// together, at most this many. The front end's backpressure knob — and
/// the honesty knob of the scoped-vs-pool comparison (unbounded batches
/// would amortize the scoped path's per-batch spawn cost toward zero at
/// exactly the loads where it hurts).
const MAX_BATCH: usize = 32;

/// Offered load as a multiple of measured single-thread capacity. Above
/// 1 so the sequential baseline saturates (its achieved throughput is
/// its capacity) and the parallel runtimes face real queueing.
const OVERLOAD: f64 = 1.75;

/// Replays per runtime × shard count; the best replay (highest achieved
/// throughput) is reported — minimum-noise statistic on a shared host.
const REPLAYS: usize = 5;

/// Identifies one measured serving runtime.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Runtime {
    /// Persistent worker pool, pipelined enqueue/collect.
    Pool,
    /// Scoped thread per shard per batch (the retired serving path).
    Scoped,
    /// All shards on the driver thread.
    Sequential,
}

impl Runtime {
    fn name(self) -> &'static str {
        match self {
            Runtime::Pool => "pool",
            Runtime::Scoped => "scoped",
            Runtime::Sequential => "sequential",
        }
    }
}

/// One runtime × shard count measurement (its best replay).
pub struct ThroughputResult {
    /// Shard count.
    pub shards: usize,
    /// The runtime measured.
    pub runtime: Runtime,
    /// Offered arrival rate (queries/sec).
    pub offered_qps: f64,
    /// Achieved completion rate (queries/sec).
    pub achieved_qps: f64,
    /// Arrival-to-merge latency percentiles.
    pub latency: Percentiles,
    /// Queries in the stream.
    pub queries: usize,
    /// Distinct `(terms, n)` keys in the stream — the cross-batch repeat
    /// structure a result cache (E21) can exploit: `1 - distinct/total`
    /// of all arrivals are repeats of an earlier key.
    pub distinct_keys: usize,
    /// Queries answered by admission coalescing during the best replay
    /// (pool only; the per-position baselines always execute everything).
    pub coalesced: usize,
    /// Whether the runtime fell measurably behind the offered rate
    /// (achieved < 95% of offered): its achieved figure is then its
    /// capacity, not an artifact of the arrival schedule.
    pub saturated: bool,
}

/// What one replay of the stream measured.
struct Replay {
    achieved_qps: f64,
    latency: Percentiles,
}

/// A batch in flight on some runtime.
enum Pending {
    /// Pool admission: redeemable later, workers already serving.
    Pool(PendingBatch),
    /// Synchronous runtimes finished before admission returned; the
    /// completion instant was captured then.
    Done(Instant),
}

/// One serving runtime wired for the driver. Sessions/engines persist
/// across replays, so calibration and lazily built structures stay warm.
enum Server<'a> {
    Pool(&'a mut ServeSession),
    Scoped(&'a mut ShardedEngine),
    Sequential(&'a mut ShardedEngine),
}

impl Server<'_> {
    /// Lifetime coalesced-query counter (0 on the per-position runtimes);
    /// replay deltas attribute coalescing to the replay that earned it.
    fn coalesced_total(&self) -> usize {
        match self {
            Server::Pool(s) => s.stats().queries_coalesced,
            Server::Scoped(_) | Server::Sequential(_) => 0,
        }
    }

    fn admit(&mut self, batch: &[BatchQuery]) -> Pending {
        match self {
            Server::Pool(s) => {
                Pending::Pool(s.enqueue(batch).expect("blocking admission never sheds"))
            }
            Server::Scoped(e) => {
                e.execute_batch(batch, ServeMode::Planned, true)
                    .expect("in-vocabulary stream");
                Pending::Done(Instant::now())
            }
            Server::Sequential(e) => {
                e.execute_batch_sequential(batch, ServeMode::Planned, true)
                    .expect("in-vocabulary stream");
                Pending::Done(Instant::now())
            }
        }
    }

    fn finish(&mut self, pending: Pending) -> Instant {
        match pending {
            Pending::Done(at) => at,
            Pending::Pool(p) => {
                let Server::Pool(s) = self else {
                    unreachable!("pool tickets only come from the pool server");
                };
                let _ = s.collect(p);
                Instant::now()
            }
        }
    }
}

/// Drive one open-loop replay of `stream` at `offered_qps` against
/// `server`. At most one batch is left in flight: the driver admits the
/// next batch, *then* collects the previous — on the pool that overlaps
/// merge/bookkeeping with shard service; on the synchronous runtimes
/// collection is free (the work happened at admission).
fn drive(server: &mut Server<'_>, stream: &[BatchQuery], offered_qps: f64) -> Replay {
    let t0 = Instant::now();
    let arrival = |i: usize| t0 + Duration::from_secs_f64(i as f64 / offered_qps);
    let mut latencies: Vec<Duration> = Vec::with_capacity(stream.len());
    let mut in_flight: Option<(Pending, usize, usize)> = None;
    let mut last_done = t0;
    let settle = |done: Instant, from: usize, to: usize, lat: &mut Vec<Duration>| {
        for i in from..to {
            lat.push(done.saturating_duration_since(arrival(i)));
        }
        done
    };
    let mut next = 0usize;
    while next < stream.len() {
        // Open loop: spin until the next arrival is due, whether or not
        // the server has caught up.
        while Instant::now() < arrival(next) {
            std::hint::spin_loop();
        }
        let now = Instant::now();
        let mut end = next + 1;
        while end < stream.len() && end - next < MAX_BATCH && arrival(end) <= now {
            end += 1;
        }
        let pending = server.admit(&stream[next..end]);
        if let Some((prev, from, to)) = in_flight.take() {
            let done = server.finish(prev);
            last_done = settle(done, from, to, &mut latencies);
        }
        in_flight = Some((pending, next, end));
        next = end;
    }
    if let Some((prev, from, to)) = in_flight.take() {
        let done = server.finish(prev);
        last_done = settle(done, from, to, &mut latencies);
    }
    let elapsed = last_done.saturating_duration_since(t0);
    Replay {
        achieved_qps: stream.len() as f64 / elapsed.as_secs_f64().max(1e-9),
        latency: Percentiles::of(&mut latencies).expect("non-empty stream"),
    }
}

/// Distinct `(terms, n)` keys in a stream — the denominator of the
/// cross-batch repeat rate (`1 - distinct/total`). Shared with E21,
/// whose result cache turns exactly those repeats into O(1) hits.
pub(crate) fn distinct_key_count(stream: &[BatchQuery]) -> usize {
    let mut keys: std::collections::HashSet<(&[u32], usize)> = std::collections::HashSet::new();
    for q in stream {
        keys.insert((q.terms.as_slice(), q.n));
    }
    keys.len()
}

fn stream_config(scale: Scale) -> StreamConfig {
    let (pool_size, length) = match scale {
        Scale::Quick => (30, 240),
        Scale::Full => (40, 480),
    };
    StreamConfig {
        pool: QueryConfig {
            num_queries: pool_size,
            bias: DfBias::FrequentOnly,
            seed: 0xE18,
            ..QueryConfig::default()
        },
        length,
        exponent: 1.0,
        seed: 0x57E4,
    }
}

fn build_engine(index: &Arc<InvertedIndex>, shards: usize) -> ShardedEngine {
    let config = ServeConfig::planned(shards);
    ShardedEngine::build(
        Arc::clone(index),
        config.shard_spec,
        config.frag_spec,
        config.model,
        config.policy,
        config.sparse_block,
    )
    .expect("collection shards cleanly")
}

/// Run the sustained-load sweep: calibrate offered load off the
/// single-thread capacity, then measure every runtime at every shard
/// count under the identical stream and arrival schedule.
pub fn measure(scale: Scale) -> Vec<ThroughputResult> {
    let config = match scale {
        Scale::Quick => CollectionConfig::small(),
        Scale::Full => CollectionConfig::ft_scale(),
    };
    let collection = Collection::generate(config).expect("valid preset");
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    let stream: Vec<BatchQuery> = generate_query_stream(&collection, &stream_config(scale))
        .expect("valid stream config")
        .into_iter()
        .map(|q| BatchQuery {
            terms: q.terms,
            n: TOP_N,
        })
        .collect();
    let distinct_keys = distinct_key_count(&stream);

    // Calibration: single-thread capacity on a warmed 1-shard engine,
    // serving the stream in admission-sized chunks. The offered rate —
    // shared by every configuration so the figures are comparable — is
    // OVERLOAD × this.
    let mut calib = build_engine(&index, 1);
    for chunk in stream.chunks(MAX_BATCH) {
        let _ = calib
            .execute_batch_sequential(chunk, ServeMode::Planned, true)
            .expect("in-vocabulary stream");
    }
    let t0 = Instant::now();
    for chunk in stream.chunks(MAX_BATCH) {
        let _ = calib
            .execute_batch_sequential(chunk, ServeMode::Planned, true)
            .expect("in-vocabulary stream");
    }
    let capacity = stream.len() as f64 / t0.elapsed().as_secs_f64().max(1e-9);
    let offered_qps = OVERLOAD * capacity;

    let mut results = Vec::new();
    for &shards in &SHARD_COUNTS {
        for runtime in [Runtime::Sequential, Runtime::Scoped, Runtime::Pool] {
            // Fresh state per runtime; one warm-up replay settles planner
            // calibration and lazily built bound tables before timing.
            let mut session;
            let mut engine;
            let mut server = match runtime {
                Runtime::Pool => {
                    session = ServeSession::new(Arc::clone(&index), ServeConfig::planned(shards))
                        .expect("collection shards cleanly");
                    Server::Pool(&mut session)
                }
                Runtime::Scoped => {
                    engine = build_engine(&index, shards);
                    Server::Scoped(&mut engine)
                }
                Runtime::Sequential => {
                    engine = build_engine(&index, shards);
                    Server::Sequential(&mut engine)
                }
            };
            let _ = drive(&mut server, &stream, offered_qps); // warm-up
            let mut best: Option<(Replay, usize)> = None;
            for _ in 0..REPLAYS {
                let before = server.coalesced_total();
                let replay = drive(&mut server, &stream, offered_qps);
                let coalesced = server.coalesced_total() - before;
                if best
                    .as_ref()
                    .is_none_or(|(b, _)| replay.achieved_qps > b.achieved_qps)
                {
                    best = Some((replay, coalesced));
                }
            }
            let (best, coalesced) = best.expect("at least one replay");
            results.push(ThroughputResult {
                shards,
                runtime,
                offered_qps,
                achieved_qps: best.achieved_qps,
                latency: best.latency,
                queries: stream.len(),
                distinct_keys,
                coalesced,
                saturated: best.achieved_qps < 0.95 * offered_qps,
            });
        }
    }
    results
}

fn find(results: &[ThroughputResult], shards: usize, runtime: Runtime) -> &ThroughputResult {
    results
        .iter()
        .find(|r| r.shards == shards && r.runtime == runtime)
        .expect("every runtime × shard count is measured")
}

/// Render the results as machine-readable JSON.
pub fn to_json(scale: Scale, results: &[ThroughputResult]) -> String {
    let mut out = String::from("{\n");
    let _ = writeln!(out, "  \"experiment\": \"e18\",");
    let _ = writeln!(out, "  \"scale\": \"{scale:?}\",");
    let _ = writeln!(out, "  \"top_n\": {TOP_N},");
    let _ = writeln!(out, "  \"max_batch\": {MAX_BATCH},");
    let _ = writeln!(out, "  \"overload\": {OVERLOAD},");
    let _ = writeln!(out, "  \"replays\": {REPLAYS},");
    let _ = writeln!(
        out,
        "  \"host_parallelism\": {},",
        std::thread::available_parallelism().map_or(0, |p| p.get())
    );
    if let Some(first) = results.first() {
        let _ = writeln!(out, "  \"queries\": {},", first.queries);
        let _ = writeln!(out, "  \"distinct_keys\": {},", first.distinct_keys);
        let _ = writeln!(
            out,
            "  \"repeat_rate\": {:.3},",
            1.0 - first.distinct_keys as f64 / first.queries.max(1) as f64
        );
    }
    let _ = writeln!(out, "  \"configs\": [");
    for (i, r) in results.iter().enumerate() {
        let comma = if i + 1 < results.len() { "," } else { "" };
        let seq = find(results, r.shards, Runtime::Sequential);
        let _ = writeln!(
            out,
            "    {{\"shards\": {}, \"runtime\": \"{}\", \"queries\": {}, \
             \"offered_qps\": {:.0}, \"achieved_qps\": {:.0}, \
             \"qps_vs_sequential\": {:.3}, \"coalesced_pct\": {:.1}, \
             \"p50_us\": {}, \"p95_us\": {}, \
             \"p99_us\": {}, \"max_us\": {}, \"saturated\": {}}}{comma}",
            r.shards,
            r.runtime.name(),
            r.queries,
            r.offered_qps,
            r.achieved_qps,
            r.achieved_qps / seq.achieved_qps.max(1e-9),
            100.0 * r.coalesced as f64 / r.queries.max(1) as f64,
            r.latency.p50.as_micros(),
            r.latency.p95.as_micros(),
            r.latency.p99.as_micros(),
            r.latency.max.as_micros(),
            r.saturated,
        );
    }
    out.push_str("  ]\n}\n");
    out
}

/// Run E18, emit `BENCH_throughput.json`, and enforce the gates.
pub fn run(scale: Scale) -> Table {
    let results = measure(scale);

    let json = to_json(scale, &results);
    let json_path = std::env::var("MOA_BENCH_THROUGHPUT_JSON")
        .unwrap_or_else(|_| "BENCH_throughput.json".to_owned());
    if let Err(e) = std::fs::write(&json_path, &json) {
        eprintln!("e18: could not write {json_path}: {e}");
    }

    let mut t = Table::new(
        "E18: sustained-load serving (pool vs scoped vs sequential)",
        &[
            "shards", "runtime", "offered", "achieved", "vs seq", "coal", "p50", "p95", "p99",
            "sat",
        ],
    );
    for r in &results {
        let seq = find(&results, r.shards, Runtime::Sequential);
        t.row(vec![
            r.shards.to_string(),
            r.runtime.name().to_string(),
            format!("{:.0}/s", r.offered_qps),
            format!("{:.0}/s", r.achieved_qps),
            format!("{:.2}x", r.achieved_qps / seq.achieved_qps.max(1e-9)),
            format!(
                "{:.0}%",
                100.0 * r.coalesced as f64 / r.queries.max(1) as f64
            ),
            fmt_duration(r.latency.p50),
            fmt_duration(r.latency.p95),
            fmt_duration(r.latency.p99),
            if r.saturated { "yes" } else { "no" }.to_string(),
        ]);
    }
    let first = results.first().expect("non-empty sweep");
    t.note(format!(
        "open-loop Zipf stream of {} arrivals, top-{TOP_N}, admission batches capped at \
         {MAX_BATCH}; offered load = {OVERLOAD} x measured single-thread capacity; best of \
         {REPLAYS} replays per cell",
        first.queries
    ));
    t.note(format!(
        "stream repeat structure: {} distinct (terms, n) keys over {} arrivals — a \
         cross-batch repeat rate of {:.0}% (what E21's result cache amortizes)",
        first.distinct_keys,
        first.queries,
        100.0 * (1.0 - first.distinct_keys as f64 / first.queries.max(1) as f64)
    ));
    t.note(
        "latency is arrival-to-merge (queueing included; the open loop keeps arriving on \
         schedule when the server falls behind — 'sat' marks runtimes that did)",
    );
    t.note(
        "'coal' = queries answered by the pool's admission coalescing (duplicate in-batch \
         Zipf repeats execute once, answers bit-identical — pinned by the pool_oracle test); \
         the per-position baselines execute every arrival individually",
    );
    t.note(
        "gate (enforced): pool achieved qps >= sequential and >= scoped at every shard count; \
         pool p99 <= 1.5 x scoped p99",
    );
    t.note(format!("machine-readable copy written to {json_path}"));

    for &shards in &SHARD_COUNTS {
        let pool = find(&results, shards, Runtime::Pool);
        let seq = find(&results, shards, Runtime::Sequential);
        let scoped = find(&results, shards, Runtime::Scoped);
        assert!(
            pool.achieved_qps >= seq.achieved_qps,
            "e18 gate: pool qps {:.0} below sequential {:.0} at {shards} shard(s)",
            pool.achieved_qps,
            seq.achieved_qps
        );
        assert!(
            pool.achieved_qps >= scoped.achieved_qps,
            "e18 gate: pool qps {:.0} below scoped {:.0} at {shards} shard(s)",
            pool.achieved_qps,
            scoped.achieved_qps
        );
        // Latency tripwire, with headroom for shared-host noise: the
        // pool must never buy throughput with a categorically worse
        // tail than the path it replaced.
        assert!(
            pool.latency.p99 <= scoped.latency.p99.mul_f64(1.5),
            "e18 gate: pool p99 {:?} above 1.5 x scoped p99 {:?} at {shards} shard(s)",
            pool.latency.p99,
            scoped.latency.p99
        );
    }
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e18_sweep_shape_and_sanity() {
        let results = measure(Scale::Quick);
        assert_eq!(results.len(), SHARD_COUNTS.len() * 3);
        for r in &results {
            assert!(r.achieved_qps > 0.0, "{:?} x{}", r.runtime, r.shards);
            assert!(r.offered_qps > 0.0);
            assert!(r.latency.p50 <= r.latency.p95);
            assert!(r.latency.p95 <= r.latency.p99);
            assert!(r.latency.p99 <= r.latency.max);
            assert_eq!(r.queries, results[0].queries);
            // A Zipf stream has genuine cross-batch repeats: strictly
            // fewer distinct keys than arrivals, but more than one.
            assert!(r.distinct_keys > 1 && r.distinct_keys < r.queries);
            // Achieved can exceed offered only by scheduling jitter, not
            // structurally (the open loop bounds admission).
            assert!(r.achieved_qps <= r.offered_qps * 1.25);
        }
        // The sequential baseline runs at OVERLOAD x its own capacity:
        // it must be saturated at every shard count.
        for &shards in &SHARD_COUNTS {
            assert!(
                find(&results, shards, Runtime::Sequential).saturated,
                "sequential runtime kept up with {OVERLOAD}x its capacity at {shards} shard(s)"
            );
        }
        // Coalescing belongs to the pool's admission queue alone, and a
        // Zipf stream under pressure always presents duplicates.
        for r in &results {
            match r.runtime {
                Runtime::Pool => assert!(
                    r.coalesced > 0,
                    "pool saw no duplicate arrivals at {} shard(s)",
                    r.shards
                ),
                Runtime::Scoped | Runtime::Sequential => assert_eq!(r.coalesced, 0),
            }
        }
    }

    #[test]
    fn e18_json_is_well_formed() {
        let results = measure(Scale::Quick);
        let json = to_json(Scale::Quick, &results);
        assert!(json.contains("\"experiment\": \"e18\""));
        assert_eq!(json.matches("{\"shards\"").count(), results.len());
        assert_eq!(json.matches('{').count(), json.matches('}').count());
    }
}
