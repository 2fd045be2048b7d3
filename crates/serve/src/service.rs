//! The batch query service: the front end `moa_serve` exposes to callers.
//!
//! [`ServeSession`] stands a persistent [`ShardPool`] up over a sharded
//! engine and wraps it with the ergonomics a serving deployment needs:
//! single-query [`ServeSession::submit`], batched
//! [`ServeSession::submit_many`] with per-query
//! [`ExecReport`](moa_ir::ExecReport) aggregation and batch wall-time,
//! the streaming pair [`ServeSession::enqueue`] /
//! [`ServeSession::collect`] that overlaps merge and admission with shard
//! service, running service counters, and an EXPLAIN
//! ([`ServeSession::explain`]) that prices a query on every shard and
//! renders the per-shard plan table without executing anything.
//!
//! Shard workers are long-lived: batch submission costs two `mpsc` sends
//! per shard, not a thread spawn/join (see [`crate::pool`]). A short solo
//! query skips even that: on an idle pool, [`ServeSession::submit`] runs
//! it on the calling thread (caller-runs; see
//! [`CALLER_RUNS_MAX_POSTINGS`]).
//!
//! Overload and failure semantics ride through from the pool: admission
//! is bounded ([`ServeConfig::queue_depth`], [`ServeConfig::admission`]),
//! a shed batch surfaces as [`ServeError::Shed`] from
//! [`ServeSession::enqueue`] before any work happens, per-query deadline
//! budgets ([`ServeConfig::deadline`]) degrade to `partial` responses
//! instead of erroring, and a worker panic fails only the affected
//! positions ([`ServeError::ShardFailed`]) while the session keeps
//! serving. [`ServeStats`] counts each posture.

use std::fmt::Write as _;
use std::sync::Arc;
use std::time::{Duration, Instant};

use moa_ir::{FragmentSpec, InvertedIndex, RankingModel, SwitchPolicy};
use moa_obs::{Counter, Histogram, MetricsRegistry, QueryTrace};

use crate::admission::AdmissionPolicy;
use crate::cache::{CacheConfig, ResultCache};
use crate::fault::{ServeError, ServeResult};
use crate::pool::{BatchTicket, PoolConfig, PoolEvent, PoolShutdown, ShardPool, SlowQuery};
use crate::shard::{merge_columns, BatchQuery, QueryResponse, ServeMode, ShardSpec, ShardedEngine};

/// The largest total run length (Σ df over the query's terms, from the
/// catalog) for which [`ServeSession::submit`] answers a cache miss on
/// the calling thread ([`ShardPool::run_in_caller`]) instead of handing
/// it to the shard workers. Derived from the `moabench` `point_rare`
/// ledger: the pool hand-off costs ≈ 14.7 µs (`pool.handoff_us_p50`),
/// and in-caller execution runs the shards one after another, so the
/// second shard's share of the run (≈ 512 postings of 1024 under range
/// partitioning) at ≈ 28 ns/posting (shard busy time over postings
/// scanned) costs about what the hand-off saves. Longer queries gain
/// more from the workers running shards side by side than they lose to
/// the hand-off.
pub const CALLER_RUNS_MAX_POSTINGS: usize = 1024;

/// Session configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ServeConfig {
    /// Document partitioning.
    pub shard_spec: ShardSpec,
    /// Per-shard df-fragmentation of the term–document table.
    pub frag_spec: FragmentSpec,
    /// Ranking model (shared by every shard).
    pub model: RankingModel,
    /// Switch policy for the fragmented strategies.
    pub policy: SwitchPolicy,
    /// Operator selection: per-shard planner or one pinned plan.
    pub mode: ServeMode,
    /// Cross-shard threshold propagation (on by default). Turning it off
    /// changes work, never answers (`moabench` reports what it saves as
    /// `threshold.scan_ratio`).
    pub propagate: bool,
    /// Build each shard fragment's non-dense index with this block size.
    pub sparse_block: Option<usize>,
    /// Per-worker queue bound: admitted-but-unfinished batch jobs
    /// (clamped ≥ 1 by the pool).
    pub queue_depth: usize,
    /// What a full worker queue means for a new batch: backpressure
    /// (block), shed, or idle-only admission.
    pub admission: AdmissionPolicy,
    /// Per-query deadline budget, started at admission (queueing counts
    /// against it). Expired queries return `Ok` with
    /// [`QueryResponse::partial`] set. `None` disables deadlines.
    pub deadline: Option<Duration>,
    /// Capture per-query traces and slow-log entries on the shard
    /// workers (registry metrics are always live). Answers are the same
    /// either way (`tests/pool_oracle.rs`); `moabench` reports the cost of
    /// leaving this on as `obs.telemetry_overhead_ratio`.
    pub telemetry: bool,
    /// Per-worker trace ring capacity (recent query traces retained).
    pub trace_ring: usize,
    /// Slow-query log capacity (worst-K by shard wall time).
    pub slow_log: usize,
    /// Cross-batch result cache ([`crate::cache`]). `None` (the
    /// default) disables it: every query executes. `Some` bounds the
    /// cache in bytes; hits are consulted at admission *before* the
    /// queue gauge, so they never occupy a worker slot, never shed, and
    /// are exempt from deadline budgets.
    pub cache: Option<CacheConfig>,
}

impl ServeConfig {
    /// A planned, propagating configuration over `shards` range-partition
    /// shards — the default serving posture: deep blocking queues, no
    /// deadline (closed-loop callers that always collect what they
    /// enqueue neither shed nor time out under these defaults).
    pub fn planned(shards: usize) -> ServeConfig {
        ServeConfig {
            shard_spec: ShardSpec::Range { shards },
            frag_spec: FragmentSpec::TermFraction(0.95),
            model: RankingModel::default(),
            policy: SwitchPolicy::default(),
            mode: ServeMode::Planned,
            propagate: true,
            sparse_block: Some(1024),
            queue_depth: 64,
            admission: AdmissionPolicy::Block,
            deadline: None,
            telemetry: true,
            trace_ring: 128,
            slow_log: 16,
            cache: None,
        }
    }

    /// The planned posture with the cross-batch result cache enabled at
    /// its default sizing.
    pub fn cached(shards: usize) -> ServeConfig {
        ServeConfig {
            cache: Some(CacheConfig::default()),
            ..ServeConfig::planned(shards)
        }
    }
}

/// The outcome of one [`ServeSession::submit_many`] call. Failures are
/// per position: one query's shard panic or engine error leaves its
/// batch-mates' responses intact.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct BatchReport {
    /// Per-query results, in submission order: `Ok` responses (possibly
    /// `partial` under a deadline) or that position's typed failure.
    pub responses: Vec<ServeResult<QueryResponse>>,
    /// Wall-clock time from admission to the last merged response.
    pub wall: Duration,
}

impl BatchReport {
    /// Every response, asserting that no position failed — the
    /// convenience for callers (tests, benchmarks) that submit known-good
    /// batches with no faults in play.
    ///
    /// # Panics
    /// If any position failed.
    pub fn expect_ok(&self) -> Vec<&QueryResponse> {
        self.responses
            .iter()
            .map(|r| r.as_ref().expect("no position of this batch failed"))
            .collect()
    }

    /// Positions that failed, with their errors.
    pub fn failures(&self) -> impl Iterator<Item = (usize, &ServeError)> {
        self.responses
            .iter()
            .enumerate()
            .filter_map(|(i, r)| r.as_ref().err().map(|e| (i, e)))
    }
}

/// Running service counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ServeStats {
    /// Queries answered (`Ok`, full or partial) since the session was
    /// built.
    pub queries_served: usize,
    /// Batches answered.
    pub batches_served: usize,
    /// Queries answered by another in-batch position's execution
    /// (admission-time request coalescing; see [`crate::pool`]).
    pub queries_coalesced: usize,
    /// Total postings scanned across all shards and queries — work
    /// *performed*, so a coalesced query's shared scan counts once.
    pub postings_scanned: usize,
    /// Queries rejected at admission (the whole batch sheds at once;
    /// nothing executed for them).
    pub queries_shed: usize,
    /// Queries that failed in flight (worker panic or engine error).
    pub queries_failed: usize,
    /// Queries answered `Ok` but `partial`: their deadline budget
    /// expired and they returned an exact prefix of the ranking.
    pub queries_partial: usize,
    /// Shard workers respawned over their retained shard after a crash.
    pub worker_respawns: usize,
    /// Queries answered from the cross-batch result cache: no worker
    /// slot occupied, no postings scanned, bit-identical to the fresh
    /// execution that populated the entry.
    pub queries_cache_hit: usize,
    /// Per-shard planned executions whose [`moa_core::PlanDecision`]
    /// came from the planner's plan memo instead of a full alternative
    /// walk (a query that plans on every shard can count once per
    /// shard).
    pub plans_memoized: usize,
}

impl ServeStats {
    /// Fold one successful response into the counters. Every add
    /// saturates — a long-lived session on a 32-bit `usize` pins at the
    /// maximum instead of wrapping back through small values (the same
    /// discipline as `ExecReport::absorb`). `postings` is `Some` only
    /// for first occurrences, so a coalesced clone's shared scan counts
    /// once.
    fn absorb_ok(&mut self, partial: bool, postings: Option<usize>) {
        self.queries_served = self.queries_served.saturating_add(1);
        if partial {
            self.queries_partial = self.queries_partial.saturating_add(1);
        }
        if let Some(p) = postings {
            self.postings_scanned = self.postings_scanned.saturating_add(p);
        }
    }

    /// Fold one cache hit: served, but scanned nothing — the work its
    /// entry carries was performed (and counted) by the execution that
    /// populated it. A cached answer is never partial (partial responses
    /// are not inserted).
    fn absorb_hit(&mut self, cached: &QueryResponse) {
        self.queries_cache_hit = self.queries_cache_hit.saturating_add(1);
        self.absorb_ok(cached.partial, None);
    }
}

/// A batch admitted by [`ServeSession::enqueue`] and not yet collected.
/// Shard workers are already serving it; redeem with
/// [`ServeSession::collect`]. Dropping it abandons the responses (the
/// workers still finish the work).
#[must_use = "collect() the pending batch or its responses are discarded"]
pub struct PendingBatch {
    /// The pool ticket for the positions that missed the result cache.
    /// `None` when every position hit (nothing was submitted: a fully
    /// cached batch costs no worker slot at all).
    ticket: Option<BatchTicket>,
    /// With the cache enabled: one slot per submitted position, `Some`
    /// for cache hits (in submission order), `None` for positions the
    /// ticket answers. Empty when the cache is disabled.
    hits: Vec<Option<Arc<QueryResponse>>>,
    /// The cache epoch observed at admission: fresh results are inserted
    /// stamped with it, so an `invalidate_epoch()` racing the batch can
    /// never be laundered into a fresh-looking entry.
    admit_epoch: u64,
    started: Instant,
}

impl PendingBatch {
    /// Assemble submission-order responses from the cached hits and the
    /// miss responses (which arrive in miss-submission order).
    fn assemble(
        hits: Vec<Option<Arc<QueryResponse>>>,
        misses: Vec<ServeResult<QueryResponse>>,
    ) -> Vec<ServeResult<QueryResponse>> {
        if hits.is_empty() {
            return misses;
        }
        let mut miss_iter = misses.into_iter();
        hits.into_iter()
            .map(|h| match h {
                Some(cached) => Ok(QueryResponse::clone(&cached)),
                None => miss_iter
                    .next()
                    .expect("one miss response per miss position"),
            })
            .collect()
    }

    /// Redeem the batch without a session — the escape hatch for batches
    /// that outlive their session (enqueued before
    /// [`ServeSession::shutdown`], collected after). Responses bypass the
    /// session counters (and nothing is inserted into the result cache);
    /// prefer [`ServeSession::collect`] otherwise.
    pub fn wait(self) -> BatchReport {
        let misses = match self.ticket {
            Some(t) => t.wait(),
            None => Vec::new(),
        };
        let responses = PendingBatch::assemble(self.hits, misses);
        BatchReport {
            responses,
            wall: self.started.elapsed(),
        }
    }
}

/// A sharded serving session over a persistent worker pool.
pub struct ServeSession {
    pool: ShardPool,
    config: ServeConfig,
    stats: ServeStats,
    /// The cross-batch result cache ([`ServeConfig::cache`]); `None`
    /// when disabled.
    cache: Option<Arc<ResultCache>>,
    /// `serve.kway_merge_ns`: the cross-shard k-way merge per batch.
    merge_ns: Arc<Histogram>,
    /// `serve.deliver_ns`: coalesced fan-out + counter accounting per
    /// batch (the session's post-merge delivery work).
    deliver_ns: Arc<Histogram>,
    /// `serve.caller_runs`: solo cache misses [`ServeSession::submit`]
    /// answered on the calling thread instead of the pool.
    caller_runs: Arc<Counter>,
}

impl ServeSession {
    /// Partition `index` per `config`, build one engine per shard, and
    /// move each onto its own long-lived worker thread.
    pub fn new(index: Arc<InvertedIndex>, config: ServeConfig) -> ServeResult<ServeSession> {
        let engine = ShardedEngine::build(
            index,
            config.shard_spec,
            config.frag_spec,
            config.model,
            config.policy,
            config.sparse_block,
        )?;
        let pool_config = PoolConfig {
            queue_depth: config.queue_depth,
            deadline: config.deadline,
            telemetry: config.telemetry,
            trace_ring: config.trace_ring,
            slow_log: config.slow_log,
        };
        let pool = ShardPool::with_config(engine, pool_config);
        // The session's merge/delivery spans land in the same registry
        // as the pool's shard-side metrics: one exposition for the stack.
        let merge_ns = pool.registry().histogram("serve.kway_merge_ns");
        let deliver_ns = pool.registry().histogram("serve.deliver_ns");
        let caller_runs = pool.registry().counter("serve.caller_runs");
        let cache = config
            .cache
            .map(|c| Arc::new(ResultCache::with_registry(c, config.model, pool.registry())));
        Ok(ServeSession {
            pool,
            config,
            stats: ServeStats::default(),
            cache,
            merge_ns,
            deliver_ns,
            caller_runs,
        })
    }

    /// The configuration in force.
    pub fn config(&self) -> ServeConfig {
        self.config
    }

    /// The worker pool the session serves from.
    pub fn pool(&self) -> &ShardPool {
        &self.pool
    }

    /// Mutable pool access — fault injection and healing for tests and
    /// the E19 resilience harness.
    pub fn pool_mut(&mut self) -> &mut ShardPool {
        &mut self.pool
    }

    /// Running service counters (respawns read live off the pool).
    pub fn stats(&self) -> ServeStats {
        let mut stats = self.stats;
        stats.worker_respawns = self.pool.respawns();
        stats
    }

    /// Answer one query.
    ///
    /// The result cache (when enabled) is consulted first; a hit returns
    /// without touching the pool. A miss is dispatched one of two ways:
    ///
    /// * **caller-runs** — when the query's total run length (Σ df over
    ///   its terms) is at most [`CALLER_RUNS_MAX_POSTINGS`] and every
    ///   worker queue is empty ([`ShardPool::idle`]), the shards run on
    ///   this thread ([`ShardPool::run_in_caller`]): no gauge slot, no
    ///   channel, no worker wake, so a few-µs query no longer pays a
    ///   ~15 µs hand-off. It takes no admission slot, so it is never
    ///   shed; deadlines, panic isolation (including injected poison
    ///   terms), telemetry, and cache insertion behave as on the pool
    ///   (no `serve.queue_wait_ns` sample: there was no queue). Counted
    ///   in `serve.caller_runs`.
    /// * **pool** — otherwise, exactly as a one-query
    ///   [`ServeSession::submit_many`]: admitted under
    ///   [`ServeConfig::admission`] (so it may be shed) and queued behind
    ///   any batches already in flight.
    ///
    /// Answers are bit-identical either way. Only solo calls take this
    /// choice: multi-query batches always use the pool, which overlaps
    /// the shards across the whole column. `EXPLAIN` reports the
    /// dispatch a miss would take now.
    pub fn submit(&mut self, terms: &[u32], n: usize) -> ServeResult<QueryResponse> {
        let (hit, insert_epoch) = match &self.cache {
            Some(cache) => {
                let epoch = cache.epoch();
                (cache.get(terms, n), Some(epoch))
            }
            None => (None, None),
        };
        let response = match hit {
            Some(cached) => {
                self.stats.absorb_hit(&cached);
                Ok(QueryResponse::clone(&cached))
            }
            None => {
                let query = [BatchQuery {
                    terms: terms.to_vec(),
                    n,
                }];
                let mut responses = if self.runs_in_caller(terms) {
                    self.caller_runs.incr();
                    let answered =
                        self.pool
                            .run_in_caller(&query, self.config.mode, self.config.propagate);
                    self.deliver(&query, answered, &[0], insert_epoch)
                } else {
                    let ticket = self.submit_to_pool(&query)?;
                    self.merge_ticket(ticket, insert_epoch)
                };
                responses.pop().expect("one result per submitted query")
            }
        };
        self.stats.batches_served = self.stats.batches_served.saturating_add(1);
        response
    }

    /// The query's total run length: Σ df over its terms from the
    /// unsharded catalog. An unknown term counts zero — it fails with
    /// the same engine error on either dispatch path.
    fn run_length(&self, terms: &[u32]) -> usize {
        let index = self.pool.index();
        terms
            .iter()
            .map(|&t| index.df(t).map_or(0, |df| df as usize))
            .sum()
    }

    /// The caller-runs rule of [`ServeSession::submit`]: short, and the
    /// pool has nothing in flight to queue behind.
    fn runs_in_caller(&self, terms: &[u32]) -> bool {
        self.run_length(terms) <= CALLER_RUNS_MAX_POSTINGS && self.pool.idle()
    }

    /// Answer a batch: every shard worker runs its column of the batch
    /// concurrently, results come back in submission order with
    /// per-query aggregated [`ExecReport`](moa_ir::ExecReport)s and the
    /// batch's wall-clock time. Equivalent to [`ServeSession::enqueue`] followed immediately
    /// by [`ServeSession::collect`]. The outer error is admission only
    /// ([`ServeError::Shed`]: nothing executed, retry the batch verbatim);
    /// in-flight failures surface per position inside the report.
    pub fn submit_many(&mut self, queries: &[BatchQuery]) -> ServeResult<BatchReport> {
        let pending = self.enqueue(queries)?;
        Ok(self.collect(pending))
    }

    /// Admit a batch to the shard workers and return without waiting.
    /// The caller may enqueue further batches (they queue per worker, in
    /// admission order, up to [`ServeConfig::queue_depth`]) or do
    /// unrelated work — e.g. merge the previous batch — while the shards
    /// serve this one. Under [`AdmissionPolicy::Shed`] / `TryNow`, a
    /// saturated pool refuses here with [`ServeError::Shed`] before any
    /// work happens.
    ///
    /// With [`ServeConfig::cache`] enabled, the result cache is
    /// consulted here, *before* queue-gauge acquisition: cached
    /// positions never occupy a worker slot, never shed, and are exempt
    /// from deadline budgets; only the residual misses are submitted (a
    /// fully cached batch submits nothing). A shed therefore refuses
    /// only the miss sub-batch — retrying the batch re-answers the
    /// cached positions for free.
    pub fn enqueue(&mut self, queries: &[BatchQuery]) -> ServeResult<PendingBatch> {
        let started = Instant::now();
        let (hits, admit_epoch, misses) = match &self.cache {
            Some(cache) => {
                let epoch = cache.epoch();
                let hits: Vec<Option<Arc<QueryResponse>>> =
                    queries.iter().map(|q| cache.get(&q.terms, q.n)).collect();
                let misses: Vec<BatchQuery> = queries
                    .iter()
                    .zip(&hits)
                    .filter(|(_, h)| h.is_none())
                    .map(|(q, _)| q.clone())
                    .collect();
                (hits, epoch, Some(misses))
            }
            None => (Vec::new(), 0, None),
        };
        let ticket = match &misses {
            // Cache disabled: submit the batch verbatim.
            None => Some(self.submit_to_pool(queries)?),
            // Fully cached: no pool work at all.
            Some(m) if m.is_empty() => None,
            Some(m) => Some(self.submit_to_pool(m)?),
        };
        Ok(PendingBatch {
            ticket,
            hits,
            admit_epoch,
            started,
        })
    }

    fn submit_to_pool(&mut self, queries: &[BatchQuery]) -> ServeResult<BatchTicket> {
        self.pool
            .submit(
                queries,
                self.config.mode,
                self.config.propagate,
                self.config.admission,
            )
            .inspect_err(|e| {
                if e.is_shed() {
                    self.stats.queries_shed += queries.len();
                }
            })
    }

    /// Wait for an admitted batch, fold the shard columns with the
    /// tie-stable merge, and account it to the session counters. `wall`
    /// spans admission to delivery. The k-way merge and the post-merge
    /// delivery (coalesced fan-out + accounting) each record a latency
    /// histogram (`serve.kway_merge_ns`, `serve.deliver_ns`) — the
    /// session-side tail of the query lifecycle the shard workers cannot
    /// see. Never fails: per-position errors stay in the report.
    pub fn collect(&mut self, pending: PendingBatch) -> BatchReport {
        let PendingBatch {
            ticket,
            hits,
            admit_epoch,
            started,
        } = pending;
        self.stats.batches_served = self.stats.batches_served.saturating_add(1);
        let insert_epoch = (!hits.is_empty()).then_some(admit_epoch);
        let misses = match ticket {
            Some(t) => self.merge_ticket(t, insert_epoch),
            None => Vec::new(),
        };
        let responses = if hits.is_empty() {
            misses
        } else {
            let mut miss_iter = misses.into_iter();
            hits.into_iter()
                .map(|h| match h {
                    Some(cached) => {
                        self.stats.absorb_hit(&cached);
                        Ok(QueryResponse::clone(&cached))
                    }
                    None => miss_iter
                        .next()
                        .expect("one miss response per miss position"),
                })
                .collect()
        };
        let wall = started.elapsed();
        BatchReport { responses, wall }
    }

    /// Redeem a pool ticket: merge the shard columns, then
    /// [deliver](ServeSession::deliver) the distinct answers.
    fn merge_ticket(
        &mut self,
        ticket: BatchTicket,
        insert_epoch: Option<u64>,
    ) -> Vec<ServeResult<QueryResponse>> {
        let expand = ticket.expansion().to_vec();
        // Redeem the ticket in two steps so the merge is its own span:
        // waiting for columns is shard service time, folding them is
        // session-side merge time.
        let (queries, columns) = ticket.wait_columns();
        let t_merge = Instant::now();
        let distinct = merge_columns(&queries, columns);
        self.merge_ns.record(t_merge.elapsed().as_nanos() as u64);
        self.deliver(&queries, distinct, &expand, insert_epoch)
    }

    /// Deliver merged answers to the distinct `queries`: expand them to
    /// the admitted positions (`expand[i]` is the distinct query that
    /// answers position `i`), account the session counters, and — when
    /// `insert_epoch` is set — insert every complete distinct answer
    /// into the result cache stamped with the admission-time epoch.
    fn deliver(
        &mut self,
        queries: &[BatchQuery],
        distinct: Vec<ServeResult<QueryResponse>>,
        expand: &[usize],
        insert_epoch: Option<u64>,
    ) -> Vec<ServeResult<QueryResponse>> {
        let coalesced = expand.len() - distinct.len();
        let t_deliver = Instant::now();
        if let (Some(epoch), Some(cache)) = (insert_epoch, self.cache.clone()) {
            // One insertion per *distinct* query: complete (`Ok`,
            // non-partial) answers only — a deadline-truncated prefix
            // must never be replayed as the full ranking.
            for (q, r) in queries.iter().zip(&distinct) {
                if let Ok(resp) = r {
                    if !resp.partial {
                        cache.insert_at(&q.terms, q.n, Arc::new(resp.clone()), epoch);
                    }
                }
            }
        }
        let responses: Vec<ServeResult<QueryResponse>> = if distinct.len() == expand.len() {
            // No duplicates: the expansion is the identity.
            distinct
        } else {
            expand.iter().map(|&u| distinct[u].clone()).collect()
        };
        self.stats.queries_coalesced = self.stats.queries_coalesced.saturating_add(coalesced);
        // Count each *performed* scan once: a position is a first
        // occurrence (a real execution, not a coalesced clone) iff its
        // distinct index equals the number of distinct indices seen so
        // far — they are assigned in first-occurrence order.
        let mut seen = 0usize;
        for (r, &u) in responses.iter().zip(expand) {
            let first_occurrence = u == seen;
            if first_occurrence {
                seen += 1;
            }
            match r {
                Ok(resp) => {
                    let postings = first_occurrence.then_some(resp.work.postings_scanned);
                    self.stats.absorb_ok(resp.partial, postings);
                    if first_occurrence {
                        let memo = resp.shards.iter().filter(|o| o.memo_hit).count();
                        self.stats.plans_memoized = self.stats.plans_memoized.saturating_add(memo);
                    }
                }
                Err(_) => {
                    self.stats.queries_failed = self.stats.queries_failed.saturating_add(1);
                }
            }
        }
        self.deliver_ns
            .record(t_deliver.elapsed().as_nanos() as u64);
        responses
    }

    /// [`ServeSession::submit_many`] in profiling mode: the shards run
    /// one at a time in shard order on the calling thread
    /// ([`ShardPool::run_in_caller`]), so work counters and per-shard
    /// busy times are deterministic and free of scheduler interference.
    /// No coalescing and no result cache: every position executes.
    /// Answers are identical to the concurrent path. Bypasses admission
    /// (never sheds).
    pub fn submit_many_sequential(&mut self, queries: &[BatchQuery]) -> BatchReport {
        let t0 = Instant::now();
        let answered = self
            .pool
            .run_in_caller(queries, self.config.mode, self.config.propagate);
        let wall = t0.elapsed();
        let identity: Vec<usize> = (0..queries.len()).collect();
        let responses = self.deliver(queries, answered, &identity, None);
        self.stats.batches_served = self.stats.batches_served.saturating_add(1);
        BatchReport { responses, wall }
    }

    /// Drain and stop: workers finish everything already admitted, then
    /// hand their shards back (planner calibration and scratch arenas
    /// intact) along with the pool's panic history — teardown never
    /// panics, even if workers did. A [`PendingBatch`] enqueued before
    /// shutdown can still be collected afterwards — no query is dropped
    /// by teardown — though its responses no longer reach the session
    /// counters.
    pub fn shutdown(self) -> PoolShutdown {
        self.pool.shutdown()
    }

    /// Price a query on every shard and render the per-shard plan table —
    /// nothing is executed. Each row is one shard's chosen operator with
    /// its cost and volume estimates from that shard's catalog; the
    /// closing lines summarize partitioning and propagation. Under
    /// [`ServeMode::Fixed`] the pinned operator is shown alongside what
    /// each shard's planner *would* have picked.
    pub fn explain(&mut self, terms: &[u32], n: usize) -> ServeResult<String> {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "== sharded retrieval plan ({} shards, {}) ==",
            self.pool.num_shards(),
            self.pool.spec().describe()
        );
        let pinned = match self.config.mode {
            ServeMode::Fixed(p) => Some(p),
            ServeMode::Planned => None,
        };
        if let Some(p) = pinned {
            let _ = writeln!(
                out,
                "   (operator pinned to {}; planner picks shown for comparison)",
                p.name()
            );
        }
        if let Some(cache) = &self.cache {
            match cache.peek(terms, n) {
                Some(epoch) => {
                    let _ = writeln!(
                        out,
                        "   cache: HIT(epoch={epoch}) — this query would be answered \
                         without touching a worker"
                    );
                }
                None => {
                    let _ = writeln!(out, "   cache: MISS");
                }
            }
        }
        let run_len = self.run_length(terms);
        if self.runs_in_caller(terms) {
            let _ = writeln!(
                out,
                "   dispatch: caller-runs (run length {run_len} ≤ {CALLER_RUNS_MAX_POSTINGS})"
            );
        } else {
            let _ = writeln!(out, "   dispatch: pool (run length {run_len})");
        }
        let _ = writeln!(
            out,
            "{:>5}  {:>10}  {:<20}  {:>12}  {:>14}  {:>6}",
            "shard", "postings", "operator", "est. cost", "est. postings", "memo"
        );
        for row in self.pool.explain_rows(terms, n)? {
            let _ = writeln!(
                out,
                "{:>5}  {:>10}  {:<20}  {:>12.0}  {:>14.0}  {:>6}",
                row.shard,
                row.postings,
                row.plan_name,
                row.cost,
                row.est_postings,
                if row.memo_hit { "HIT" } else { "-" },
            );
        }
        let _ = writeln!(
            out,
            "   threshold propagation: {}",
            if self.config.propagate { "on" } else { "off" }
        );
        let _ = writeln!(
            out,
            "   merge: tie-stable k-way over shard-local top-{n} heaps (score desc, doc asc)"
        );
        Ok(out)
    }

    /// The cross-batch result cache, when [`ServeConfig::cache`] enabled
    /// one — its stats, epoch, and capacity are readable here.
    pub fn result_cache(&self) -> Option<&Arc<ResultCache>> {
        self.cache.as_ref()
    }

    /// Flash-invalidate the result cache (O(1) epoch bump; see
    /// [`ResultCache::invalidate_epoch`]) — the hook an index snapshot
    /// swap calls. Returns the new epoch, or `None` when no cache is
    /// configured. In-flight batches admitted under the old epoch will
    /// *not* insert their answers (the epoch stamp refuses them), so a
    /// caller observing the bump can never read a pre-bump answer back
    /// out of the cache.
    pub fn invalidate_epoch(&self) -> Option<u64> {
        self.cache.as_ref().map(|c| c.invalidate_epoch())
    }

    /// The metrics registry behind the session: every pool and session
    /// metric (`serve.*`) publishes through it.
    pub fn metrics(&self) -> &Arc<MetricsRegistry> {
        self.pool.registry()
    }

    /// Text exposition of every metric, sorted by name (stable,
    /// diffable).
    pub fn metrics_text(&self) -> String {
        self.pool.registry().render_text()
    }

    /// JSON exposition of every metric (hand-rolled; no serializer
    /// dependency).
    pub fn metrics_json(&self) -> String {
        self.pool.registry().render_json()
    }

    /// Recent per-query traces from every shard worker's ring, in shard
    /// order. Empty with [`ServeConfig::telemetry`] off.
    pub fn traces(&self) -> Vec<QueryTrace> {
        self.pool.traces()
    }

    /// Drain the slow-query log: the worst-K queries (by shard wall
    /// time) since the last drain, slowest first, full traces attached.
    pub fn drain_slow_queries(&self) -> Vec<SlowQuery> {
        self.pool.drain_slow_queries()
    }

    /// The pool's structured event history (worker panics, respawns),
    /// oldest first with sequence numbers.
    pub fn events(&self) -> Vec<(u64, PoolEvent)> {
        self.pool.events()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serve_stats_saturate_instead_of_wrapping() {
        // Mirrors ExecReport::absorb: a session that has served near
        // usize::MAX of anything pins at the maximum rather than
        // wrapping back through small values.
        let mut stats = ServeStats {
            queries_served: usize::MAX - 1,
            queries_partial: usize::MAX,
            postings_scanned: usize::MAX - 2,
            ..ServeStats::default()
        };
        stats.absorb_ok(true, Some(100));
        stats.absorb_ok(true, Some(100));
        assert_eq!(stats.queries_served, usize::MAX);
        assert_eq!(stats.queries_partial, usize::MAX);
        assert_eq!(stats.postings_scanned, usize::MAX);
    }
}
