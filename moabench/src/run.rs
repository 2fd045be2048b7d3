//! Driving the serving session: set-up cycles, the verified warm-up,
//! fixed-work sat replays and solo slices, the per-run workload checks,
//! and the untraced run that yields the end-to-end metrics.

use std::sync::Arc;
use std::time::{Duration, Instant};

use moa_corpus::Collection;
use moa_ir::{InvertedIndex, Searcher};
use moa_serve::{
    BatchReport, CacheStats, PendingBatch, QueryResponse, ServeConfig, ServeSession, ServeStats,
};

use crate::affinity::pin_shard_workers;
use crate::alloc::HEAP;
use crate::report::{Outcome, Report, END_TO_END, RUN_SECONDS};
use crate::stats::{
    call_percentile, median, segment_percentile_median, segment_percentiles, sorted_samples, Sample,
};
use crate::trace::Tracer;
use crate::workload::{Evictions, Spec, Stream};

/// Build–drop cycles behind `setup_s`.
pub const SETUP_CYCLES: usize = 5;
/// Timed rounds of a run at the manifest's `run_seconds`. The streams
/// are sized so that on the build host these take about that long.
pub const ROUNDS: usize = 10;
/// Cached answers re-asked after an epoch bump in the warm-up.
const STALE_CHECK: usize = 256;

/// The rounds a run of `--seconds` makes: [`ROUNDS`] at the manifest's
/// `run_seconds`, in proportion otherwise. Set by the command line, never
/// by the clock, so every run of one command does the same work.
pub fn rounds_for(seconds: f64) -> usize {
    ((ROUNDS as f64 * seconds / RUN_SECONDS as f64).round() as usize).max(1)
}

/// The production default: 2 range shards, 8 MiB result cache,
/// telemetry on. The same on every workload.
pub fn serve_config() -> ServeConfig {
    ServeConfig::cached(2)
}

/// Operations attempted and failed in one phase of a run. A shed batch,
/// a partial or failed response and an oracle mismatch all fail.
#[derive(Debug, Clone, Copy, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

/// The per-phase tallies the run prints.
#[derive(Debug, Default)]
pub struct Phases {
    pub setup: Tally,
    pub warmup: Tally,
    pub sat: Tally,
    pub solo: Tally,
    pub layers: Tally,
}

impl Phases {
    pub fn rows(&self) -> [(&'static str, Tally); 5] {
        [
            ("setup", self.setup),
            ("warmup", self.warmup),
            ("sat", self.sat),
            ("solo", self.solo),
            ("layers", self.layers),
        ]
    }

    pub fn total(&self) -> Tally {
        self.rows()
            .iter()
            .fold(Tally::default(), |a, (_, t)| Tally {
                attempted: a.attempted + t.attempted,
                failed: a.failed + t.failed,
            })
    }

    pub fn print(&self, workload: &str) {
        for (phase, t) in self.rows() {
            println!(
                "{workload} phase {phase}: attempted {} succeeded {} failed {}",
                t.attempted,
                t.attempted - t.failed,
                t.failed
            );
        }
    }
}

/// Wall times of one set-up: index build, session start, first answers.
#[derive(Debug, Clone, Copy)]
pub struct SetupTimes {
    pub build_s: f64,
    pub session_new_s: f64,
    pub ready_batch_s: f64,
    /// Live heap once the session stood and before its first query.
    pub heap_live: usize,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.build_s + self.session_new_s + self.ready_batch_s
    }
}

/// A session under test with the inputs it is driven by.
pub struct Bench<'a> {
    pub spec: &'static Spec,
    pub stream: &'a Stream,
    pub index: Arc<InvertedIndex>,
    pub session: ServeSession,
    /// Epoch bumps this harness issued; the cache must count the same.
    pub bumps: u64,
    /// Shard workers given a processor of their own (see `affinity`).
    pub pinned: usize,
}

/// The live heap once it has stopped moving: the workers of a session
/// just built are still starting. Read between the timed steps of a
/// set-up, so the wait is in no metric. From the first query on, what
/// the workers keep depends on how the shards' threshold updates
/// interleave, and no later reading repeats exactly.
fn settled_heap() -> usize {
    let mut live = HEAP.live();
    let mut still = 0;
    while still < 3 {
        std::thread::sleep(Duration::from_millis(1));
        let now = HEAP.live();
        still = if now == live { still + 1 } else { 0 };
        live = now;
    }
    live
}

/// Set up as a user would: build the index, start the session, and have
/// the first 64 queries of the stream answered.
pub fn set_up<'a>(
    corpus: &Collection,
    spec: &'static Spec,
    stream: &'a Stream,
    tally: &mut Tally,
) -> (Bench<'a>, SetupTimes) {
    let t0 = Instant::now();
    let index = Arc::new(InvertedIndex::from_collection(corpus));
    let t1 = Instant::now();
    let session = ServeSession::new(Arc::clone(&index), serve_config())
        .expect("the benchmark corpus shards under the default configuration");
    let t2 = Instant::now();
    let pinned = pin_shard_workers();
    let heap_live = settled_heap();
    let t3 = Instant::now();
    let mut bench = Bench {
        spec,
        stream,
        index,
        session,
        bumps: 0,
        pinned,
    };
    for batch in stream.batches.iter().take(2) {
        tally.attempted += batch.len() as u64;
        match bench.session.submit_many(batch) {
            Ok(report) => {
                settle(&report, tally);
            }
            Err(_) => tally.failed += batch.len() as u64,
        }
    }
    let times = SetupTimes {
        build_s: (t1 - t0).as_secs_f64(),
        session_new_s: (t2 - t1).as_secs_f64(),
        ready_batch_s: t3.elapsed().as_secs_f64(),
        heap_live,
    };
    (bench, times)
}

/// Count a collected batch: failures into `tally`, answer lengths out.
fn settle(report: &BatchReport, tally: &mut Tally) -> u64 {
    let mut top_sum = 0u64;
    for r in &report.responses {
        match r {
            Ok(resp) if !resp.partial => top_sum += resp.top.len() as u64,
            _ => tally.failed += 1,
        }
    }
    top_sum
}

/// Calls in the next stretch of a solo slice to time in one go, from
/// call `at`: one miss, or the hits up to the next miss or up to `room`,
/// what the open group of hits still takes.
fn stretch(hits: &[bool], at: usize, room: usize) -> usize {
    if hits[at] {
        hits[at..].iter().take(room).take_while(|&&h| h).count()
    } else {
        1
    }
}

/// What one solo slice returned and where its time went.
#[derive(Debug, Clone, Copy)]
pub struct Slice {
    /// Summed answer lengths.
    pub top_sum: u64,
    /// Busiest shard's time over solo latency, both summed over the
    /// slice (meaningful where every call misses the cache: a hit
    /// carries the shard times of the run that was cached).
    pub busy_share: f64,
}

/// Counters read at the boundaries of a replay.
struct Snapshot {
    stats: ServeStats,
    cache: CacheStats,
    busy_ns: u64,
}

impl Snapshot {
    fn take(session: &ServeSession) -> Snapshot {
        Snapshot {
            stats: session.stats(),
            cache: session
                .result_cache()
                .expect("the default configuration has a cache")
                .stats(),
            busy_ns: session.metrics().histogram("serve.query_ns").sum(),
        }
    }
}

/// What one sat replay did, from the session's own counters.
#[derive(Debug, Clone, Copy, Default)]
pub struct SatStats {
    pub wall_s: f64,
    pub arrivals: u64,
    pub top_sum: u64,
    pub hits: u64,
    pub coalesced: u64,
    pub shed: u64,
    pub scanned: u64,
    pub evictions: u64,
    /// Evictions counted while a batch was being admitted, where the
    /// cache only looks up: stale entries reclaimed. Traced replays only
    /// (reading the counters costs as much as a few hits).
    pub stale_reclaimed: u64,
    /// Time the shard workers spent on queries, both shards added.
    pub busy_ns: u64,
}

impl SatStats {
    pub fn qps(&self) -> f64 {
        self.arrivals as f64 / self.wall_s
    }

    pub fn absorb(&mut self, o: &SatStats) {
        self.wall_s += o.wall_s;
        self.arrivals += o.arrivals;
        self.top_sum += o.top_sum;
        self.hits += o.hits;
        self.coalesced += o.coalesced;
        self.shed += o.shed;
        self.scanned += o.scanned;
        self.evictions += o.evictions;
        self.stale_reclaimed += o.stale_reclaimed;
        self.busy_ns += o.busy_ns;
    }
}

impl Bench<'_> {
    fn bump(&mut self) {
        self.session.invalidate_epoch();
        self.bumps += 1;
    }

    /// One closed-loop replay of the whole stream: batches of 32 through
    /// `enqueue`/`collect`, the next batch admitted before the previous
    /// one is collected, so two are in flight.
    pub fn sat_replay(&mut self, tally: &mut Tally, mut tracer: Option<&mut Tracer>) -> SatStats {
        let (spec, stream) = (self.spec, self.stream);
        let before = Snapshot::take(&self.session);
        if spec.bump {
            self.bump();
        }
        let cache = Arc::clone(self.session.result_cache().expect("cache configured"));
        let mut stale_reclaimed = 0u64;
        let mut top_sum = 0u64;
        let mut sent = 0usize;
        let mut batch_id = 0u64;
        let mut pending: Option<(u64, PendingBatch)> = None;
        let t0 = Instant::now();
        for _ in 0..spec.passes {
            for batch in &stream.batches {
                if spec
                    .epoch_every
                    .is_some_and(|e| sent > 0 && sent.is_multiple_of(e))
                {
                    self.bump();
                }
                sent += batch.len();
                let session = &mut self.session;
                let admitted = match tracer.as_deref_mut() {
                    Some(t) => {
                        let evicted = cache.stats().evictions;
                        let a =
                            t.within("service.enqueue", batch_id, None, || session.enqueue(batch));
                        stale_reclaimed += cache.stats().evictions - evicted;
                        a
                    }
                    None => session.enqueue(batch),
                };
                match admitted {
                    Ok(p) => {
                        if let Some((id, prev)) = pending.replace((batch_id, p)) {
                            top_sum += self.collect(id, prev, tally, tracer.as_deref_mut());
                        }
                    }
                    Err(_) => tally.failed += batch.len() as u64,
                }
                batch_id += 1;
            }
        }
        if let Some((id, prev)) = pending.take() {
            top_sum += self.collect(id, prev, tally, tracer);
        }
        let wall_s = t0.elapsed().as_secs_f64();
        tally.attempted += sent as u64;
        let after = Snapshot::take(&self.session);
        SatStats {
            wall_s,
            arrivals: sent as u64,
            top_sum,
            hits: (after.stats.queries_cache_hit - before.stats.queries_cache_hit) as u64,
            coalesced: (after.stats.queries_coalesced - before.stats.queries_coalesced) as u64,
            shed: (after.stats.queries_shed - before.stats.queries_shed) as u64,
            scanned: (after.stats.postings_scanned - before.stats.postings_scanned) as u64,
            evictions: after.cache.evictions - before.cache.evictions,
            stale_reclaimed,
            busy_ns: after.busy_ns - before.busy_ns,
        }
    }

    fn collect(
        &mut self,
        id: u64,
        pending: PendingBatch,
        tally: &mut Tally,
        tracer: Option<&mut Tracer>,
    ) -> u64 {
        let session = &mut self.session;
        let report = match tracer {
            Some(t) => t.within("service.collect", id, None, || session.collect(pending)),
            None => session.collect(pending),
        };
        settle(&report, tally)
    }

    /// One solo slice: one `submit` at a time, latencies pushed to
    /// `samples`. `hits[i]` says whether call `i` hit the cache in the
    /// warm-up's identical slice. A call that missed is timed alone.
    /// Hits are timed `solo_group` at a time — the clock stops across the
    /// misses between them — and make one sample, so no sample is the
    /// reading of an interval of a microsecond. Hits left over at the end
    /// of the slice are answered but not sampled.
    pub fn solo_slice(
        &mut self,
        hits: &[bool],
        tally: &mut Tally,
        samples: &mut Vec<Sample>,
        mut tracer: Option<&mut Tracer>,
    ) -> Slice {
        let (spec, stream) = (self.spec, self.stream);
        if spec.bump {
            self.bump();
        }
        let hits_before = self.session.stats().queries_cache_hit;
        let mut top_sum = 0u64;
        let (mut busy, mut timed_ns) = (Duration::ZERO, 0u128);
        let (mut group_ns, mut group_calls) = (0u128, 0usize);
        let mut at = 0usize;
        while at < stream.solo.len() {
            let len = stretch(hits, at, spec.solo_group - group_calls);
            let span = tracer
                .as_deref_mut()
                .map(|t| t.start("service.submit", at as u64, None));
            let t0 = Instant::now();
            for &k in &stream.solo[at..at + len] {
                let q = &stream.pool[k as usize];
                match self.session.submit(&q.terms, q.n) {
                    Ok(resp) if !resp.partial => {
                        top_sum += resp.top.len() as u64;
                        busy += busiest_shard(&resp);
                    }
                    _ => tally.failed += 1,
                }
            }
            let ns = t0.elapsed().as_nanos();
            if let (Some(t), Some(id)) = (tracer.as_deref_mut(), span) {
                t.end(id);
            }
            timed_ns += ns;
            if hits[at] {
                group_ns += ns;
                group_calls += len;
                if group_calls == spec.solo_group {
                    let us = group_ns as f64 / 1e3 / group_calls as f64;
                    samples.push((us, group_calls as u32));
                    (group_ns, group_calls) = (0, 0);
                }
            } else {
                samples.push((ns as f64 / 1e3, 1));
            }
            at += len;
        }
        tally.attempted += stream.solo.len() as u64;
        // The grouping above holds while the slice hits where the
        // warm-up's did. Entries gone stale linger until looked up or
        // evicted, so what a slice finds depends a little on what ran
        // before it: a few calls in ten thousand change sides, and a
        // stray miss in a group of hits or a hit timed alone moves no
        // quantile. More than one call in a hundred is another workload.
        let hit = self.session.stats().queries_cache_hit - hits_before;
        let expected = hits.iter().filter(|&&h| h).count();
        if hit.abs_diff(expected) * 100 > hits.len() {
            tally.failed += 1;
        }
        Slice {
            top_sum,
            busy_share: busy.as_nanos() as f64 / timed_ns as f64,
        }
    }

    /// Stop the session; the bytes of packed postings it held, over the
    /// unsharded index and every shard's. A worker that panicked during
    /// the run fails the shutdown check.
    pub fn shut_down(self) -> (usize, bool) {
        let unsharded = self.index.blocks().storage_bytes();
        let down = self.session.shutdown();
        let clean = down.is_clean();
        let shards: usize = down
            .shards
            .iter()
            .map(|s| s.fragments().index().blocks().storage_bytes())
            .sum();
        (unsharded + shards, clean)
    }
}

/// The reference answers: a set-at-a-time scan of the unsharded index
/// on the driver thread, one digest per pool query, computed on first
/// use. A digest covers documents, score bits and order.
pub struct Oracle<'a> {
    searcher: Searcher<'a>,
    digests: Vec<Option<u64>>,
}

fn digest(top: &[(u32, f64)]) -> u64 {
    let mut h = 0xcbf2_9ce4_8422_2325u64 ^ top.len() as u64;
    for &(doc, score) in top {
        h = (h ^ u64::from(doc)).wrapping_mul(0x0100_0000_01b3);
        h = (h ^ score.to_bits()).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

impl<'a> Oracle<'a> {
    pub fn new(index: &'a InvertedIndex, pool: usize) -> Oracle<'a> {
        Oracle {
            searcher: Searcher::new(index, serve_config().model),
            digests: vec![None; pool],
        }
    }

    /// Whether `got` is bit for bit the reference answer of pool query
    /// `key`.
    pub fn matches(&mut self, stream: &Stream, key: u32, got: &[(u32, f64)]) -> bool {
        let want = *self.digests[key as usize].get_or_insert_with(|| {
            let q = &stream.pool[key as usize];
            let report = self
                .searcher
                .search(&q.terms, q.n)
                .expect("stream terms are in the vocabulary");
            digest(&report.top)
        });
        want == digest(got)
    }
}

/// What the verified warm-up observed.
#[derive(Debug, Clone)]
pub struct Warm {
    pub sat_top_sum: u64,
    pub solo_top_sum: u64,
    /// Which calls of the solo slice the cache answered.
    pub solo_hits: Vec<bool>,
    /// Median postings scanned per solo query.
    pub scanned_median: f64,
    /// Of the re-asked answers, how many were resident before the bump.
    pub stale_checked: usize,
}

/// The time the busiest shard spent on a query: with the shards side by
/// side in the pool, what a caller waits for.
pub fn busiest_shard(resp: &QueryResponse) -> Duration {
    resp.shards.iter().map(|o| o.busy).max().unwrap_or_default()
}

/// One untimed pass that fills the cache, calibrates the shard planners
/// and checks answers: a sat replay, a solo slice whose answers are
/// compared with the oracle, and a stale-hit check after an epoch bump.
pub fn warm_up(bench: &mut Bench, oracle: &mut Oracle, tally: &mut Tally) -> Warm {
    let spec = bench.spec;
    let stream = bench.stream;
    let sat = bench.sat_replay(tally, None);

    if spec.bump {
        bench.bump();
    }
    let mut solo_top_sum = 0u64;
    let mut solo_hits = Vec::with_capacity(stream.solo.len());
    let mut scanned = Vec::with_capacity(stream.solo.len());
    for (i, &k) in stream.solo.iter().enumerate() {
        let q = &stream.pool[k as usize];
        tally.attempted += 1;
        let hits_before = bench.session.stats().queries_cache_hit;
        let answer = bench.session.submit(&q.terms, q.n);
        solo_hits.push(bench.session.stats().queries_cache_hit > hits_before);
        match answer {
            Ok(resp) if !resp.partial => {
                solo_top_sum += resp.top.len() as u64;
                scanned.push(resp.work.postings_scanned as f64);
                if i % spec.verify_stride == 0 && !oracle.matches(stream, k, &resp.top) {
                    tally.failed += 1;
                }
            }
            _ => tally.failed += 1,
        }
    }

    // No stale hit: answers cached a moment ago must be computed again
    // after a bump, and must come out the same.
    let mut recent: Vec<u32> = Vec::with_capacity(STALE_CHECK);
    for &k in stream.solo.iter().rev() {
        if recent.len() == STALE_CHECK {
            break;
        }
        if !recent.contains(&k) {
            recent.push(k);
        }
    }
    let cache = Arc::clone(bench.session.result_cache().expect("cache configured"));
    let stale_checked = recent
        .iter()
        .filter(|&&k| {
            let q = &stream.pool[k as usize];
            cache.peek(&q.terms, q.n).is_some()
        })
        .count();
    bench.bump();
    let hits_before = bench.session.stats().queries_cache_hit;
    for &k in &recent {
        let q = &stream.pool[k as usize];
        tally.attempted += 1;
        match bench.session.submit(&q.terms, q.n) {
            Ok(resp) if !resp.partial && oracle.matches(stream, k, &resp.top) => {}
            _ => tally.failed += 1,
        }
    }
    tally.failed += (bench.session.stats().queries_cache_hit - hits_before) as u64;

    if !spec.bump {
        // The bump emptied a cache this workload never empties: refill.
        bench.sat_replay(tally, None);
    }
    Warm {
        sat_top_sum: sat.top_sum,
        solo_top_sum,
        solo_hits,
        scanned_median: median(&scanned),
        stale_checked,
    }
}

/// Epoch bumps one round (a sat replay and a solo slice) issues.
pub fn bumps_per_round(spec: &Spec) -> u64 {
    let before = 2 * u64::from(spec.bump);
    let inside = spec.epoch_every.map_or(0, |e| (spec.sat_len() - 1) / e);
    before + inside as u64
}

/// The workload checks: a run whose traffic stopped looking like the
/// workload's description is not a measurement of it. Returns one line
/// per broken expectation.
pub fn check_expectations(spec: &Spec, warm: &Warm, rounds: &Rounds) -> Vec<String> {
    let e = &spec.expect;
    let (sat, evictions) = (&rounds.sat, rounds.evictions);
    let mut broken = Vec::new();
    let hit_ratio = sat.hits as f64 / sat.arrivals as f64;
    println!(
        "{} checks: hit ratio {hit_ratio:.4}, coalesced {}, evictions {evictions}, epoch bumps {} issued {} counted",
        spec.name, sat.coalesced, rounds.bumps.0, rounds.bumps.1
    );
    if hit_ratio < e.hit_ratio.0 || hit_ratio > e.hit_ratio.1 {
        broken.push(format!(
            "cache hit ratio {hit_ratio:.4} outside {:?}",
            e.hit_ratio
        ));
    }
    if e.no_coalescing && sat.coalesced != 0 {
        broken.push(format!(
            "{} queries coalesced in an all-distinct stream",
            sat.coalesced
        ));
    }
    match e.evictions {
        Evictions::Zero if evictions != 0 => broken.push(format!("{evictions} evictions, want 0")),
        Evictions::Some if evictions == 0 => broken.push("no evictions, want some".to_string()),
        _ => {}
    }
    if let Some((lo, hi)) = e.median_scanned {
        println!(
            "{} checks: median postings scanned {}",
            spec.name, warm.scanned_median
        );
        if warm.scanned_median < lo as f64 || warm.scanned_median > hi as f64 {
            broken.push(format!(
                "median postings scanned {} outside [{lo}, {hi}]",
                warm.scanned_median
            ));
        }
    }
    if let Some((lo, hi)) = e.busy_share {
        // Interference from the shared host only adds waiting, so the
        // round with the largest share is the least disturbed one.
        let share = rounds.busy_share.iter().copied().fold(0.0, f64::max);
        println!(
            "{} checks: operator busy share by round {:.3?}",
            spec.name, rounds.busy_share
        );
        if share < lo || share > hi {
            broken.push(format!(
                "operator busy share {share:.3} outside [{lo}, {hi}] in every round"
            ));
        }
    }
    let (issued, counted) = rounds.bumps;
    let scheduled = rounds.count() as u64 * bumps_per_round(spec);
    if issued != counted || issued != scheduled {
        broken.push(format!(
            "epoch bumps: issued {issued}, cache counted {counted}, scheduled {scheduled}"
        ));
    }
    if sat.shed != 0 {
        broken.push(format!("{} queries shed", sat.shed));
    }
    if warm.stale_checked == 0 {
        broken.push("stale check re-asked no cached answer".to_string());
    }
    broken
}

/// The timed rounds of one run: each is one sat replay followed by one
/// solo slice over the same fixed stream.
pub struct Rounds {
    pub qps: Vec<f64>,
    /// Solo samples of every round, in order, the same number each.
    pub solo_us: Vec<Sample>,
    /// Each slice's [`Slice::busy_share`].
    pub busy_share: Vec<f64>,
    pub sat: SatStats,
    pub evictions: u64,
    pub bumps: (u64, u64),
}

impl Rounds {
    pub fn count(&self) -> usize {
        self.qps.len()
    }

    pub fn lat_p50_us(&self) -> f64 {
        segment_percentile_median(&self.solo_us, self.count(), 50.0)
    }

    pub fn lat_p95_us(&self) -> f64 {
        segment_percentile_median(&self.solo_us, self.count(), 95.0)
    }
}

pub fn timed_rounds(bench: &mut Bench, warm: &Warm, count: usize, phases: &mut Phases) -> Rounds {
    let hits = warm.solo_hits.iter().filter(|&&h| h).count();
    let per_slice = warm.solo_hits.len() - hits + hits / bench.spec.solo_group;
    let mut rounds = Rounds {
        qps: Vec::with_capacity(count),
        solo_us: Vec::with_capacity(per_slice * count),
        busy_share: Vec::with_capacity(count),
        sat: SatStats::default(),
        evictions: 0,
        bumps: (0, 0),
    };
    let cache = Arc::clone(bench.session.result_cache().expect("cache configured"));
    let (bumps0, epoch0, evict0) = (bench.bumps, cache.epoch(), cache.stats().evictions);
    for _ in 0..count {
        let sat = bench.sat_replay(&mut phases.sat, None);
        if sat.top_sum != warm.sat_top_sum {
            phases.sat.failed += 1;
        }
        rounds.qps.push(sat.qps());
        rounds.sat.absorb(&sat);
        let slice = bench.solo_slice(&warm.solo_hits, &mut phases.solo, &mut rounds.solo_us, None);
        if slice.top_sum != warm.solo_top_sum {
            phases.solo.failed += 1;
        }
        rounds.busy_share.push(slice.busy_share);
    }
    rounds.evictions = cache.stats().evictions - evict0;
    rounds.bumps = (bench.bumps - bumps0, cache.epoch() - epoch0);
    rounds
}

/// The untraced run: set-up cycles, verified warm-up, timed rounds, and
/// the seven end-to-end metrics.
pub fn run_end_to_end(
    corpus: &Collection,
    spec: &'static Spec,
    stream: &Stream,
    seconds: f64,
) -> Outcome {
    let mut phases = Phases::default();
    let postings = corpus.num_postings() as f64;

    // Everything allocated from here on belongs to the system under
    // test (plus the oracle's few megabytes of scratch).
    let heap_base = HEAP.live();
    HEAP.reset_peak();
    let mut setup_s = Vec::with_capacity(SETUP_CYCLES);
    let mut heap_after_setup = 0usize;
    let mut kept = None;
    for cycle in 0..SETUP_CYCLES {
        let (bench, times) = set_up(corpus, spec, stream, &mut phases.setup);
        setup_s.push(times.total_s());
        if cycle == 0 {
            heap_after_setup = times.heap_live.saturating_sub(heap_base);
        }
        if cycle + 1 == SETUP_CYCLES {
            kept = Some(bench);
        } else if !bench.shut_down().1 {
            phases.setup.failed += 1;
        }
    }
    let mut bench = kept.expect("the last cycle's session is kept");

    let index = Arc::clone(&bench.index);
    let mut oracle = Oracle::new(&index, stream.pool.len());
    let warm = warm_up(&mut bench, &mut oracle, &mut phases.warmup);
    let rounds = timed_rounds(&mut bench, &warm, rounds_for(seconds), &mut phases);
    let broken = check_expectations(spec, &warm, &rounds);

    let heap_peak = HEAP.peak().saturating_sub(heap_base);
    let bench_pinned = bench.pinned;
    let (index_bytes, clean) = bench.shut_down();
    if !clean {
        phases.sat.failed += 1;
    }

    let mut report = Report::new(END_TO_END);
    report.set("setup_s", median(&setup_s));
    report.set("qps", median(&rounds.qps));
    report.set("lat_p50_us", rounds.lat_p50_us());
    report.set("lat_p95_us", rounds.lat_p95_us());
    report.set("heap_bytes_per_posting", heap_after_setup as f64 / postings);
    report.set("heap_peak_mb", heap_peak as f64 / 1e6);
    report.set("index_bytes_per_posting", index_bytes as f64 / postings);

    println!("{} sat qps by round: {:.1?}", spec.name, rounds.qps);
    for q in [50.0, 95.0] {
        let by_round = segment_percentiles(&rounds.solo_us, rounds.count(), q);
        println!("{} solo p{q} us by round: {by_round:.3?}", spec.name);
    }
    let solo = sorted_samples(rounds.solo_us.clone());
    let quantiles = [10.0, 25.0, 50.0, 75.0, 90.0, 95.0, 99.0].map(|q| call_percentile(&solo, q));
    println!(
        "{} solo us p10/25/50/75/90/95/99: {quantiles:.3?}",
        spec.name
    );
    println!(
        "{} rounds {} (sat {} arrivals, solo {} calls of which {} hits timed {} at a time), {} shard workers pinned, stale check on {} cached answers",
        spec.name,
        rounds.count(),
        spec.sat_len(),
        stream.solo.len(),
        warm.solo_hits.iter().filter(|&&h| h).count(),
        spec.solo_group,
        bench_pinned,
        warm.stale_checked
    );
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
        metrics: report.finish().expect("every end-to-end metric is set"),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rounds_follow_the_seconds_asked_for_and_nothing_else() {
        assert_eq!(rounds_for(RUN_SECONDS as f64), ROUNDS);
        assert_eq!(rounds_for(RUN_SECONDS as f64 / 2.0), ROUNDS / 2);
        assert_eq!(rounds_for(0.01), 1);
    }

    #[test]
    fn a_stretch_is_one_miss_or_hits_up_to_the_next_miss_or_a_full_group() {
        let hits = [
            true, true, false, true, true, true, true, false, false, true,
        ];
        // Groups of four: two hits, the miss, then two hits fill the
        // group the first two opened; the next group starts afresh.
        assert_eq!(stretch(&hits, 0, 4), 2);
        assert_eq!(stretch(&hits, 2, 2), 1);
        assert_eq!(stretch(&hits, 3, 2), 2);
        assert_eq!(stretch(&hits, 5, 4), 2);
        assert_eq!(stretch(&hits, 7, 2), 1);
        assert_eq!(stretch(&hits, 8, 2), 1);
        assert_eq!(stretch(&hits, 9, 2), 1);
        // The stretches tile the slice.
        let (mut at, mut open) = (0, 0);
        while at < hits.len() {
            let len = stretch(&hits, at, 4 - open);
            open = if hits[at] { (open + len) % 4 } else { open };
            at += len;
        }
        assert_eq!(at, hits.len());
    }
}
