//! The physical retrieval layer: one entry point over all four engine
//! paths.
//!
//! The paper's Step 3 asks for a *centralized* cost model that picks the
//! execution strategy. That is only possible when the strategies are
//! interchangeable — the MaxScore-pruned DAAT kernel, the exhaustive
//! cursor merge, the set-at-a-time [`crate::eval::Searcher`] path, and the
//! fragmented [`FragSearcher`] — and report their work in one shape:
//!
//! * [`PhysicalPlan`] names every physical alternative (the Cascades-style
//!   physical side of the logical `rank` operator),
//! * [`ExecReport`] is the one report every searcher returns, with unified
//!   work counters,
//! * [`EngineSet`] owns the shared per-index state (one [`ScoreKernel`],
//!   one lazily built [`ScoreBounds`], one accumulator, one
//!   [`FragSearcher`]) and [`EngineSet::execute`] runs whichever plan the
//!   `moa_core::planner` — or a caller directly — selects.
//!
//! Every *exact* plan returns a top-N that is bit-identical to the naive
//! full-scan oracle: all paths score through the same kernel and sum
//! per-document contributions in original query-position order.

use std::sync::{Arc, OnceLock};

use crate::accum::EpochAccumulator;
use crate::daat::DaatSearcher;
use crate::error::Result;
use crate::eval::set_at_a_time;
use crate::fragment::{FragSearchReport, FragSearcher, FragmentedIndex, Strategy};
use crate::ranking::RankingModel;
use crate::safety::SwitchPolicy;
use crate::scorer::{ScoreBounds, ScoreKernel};
use crate::scratch::QueryScratch;
use crate::threshold::BoundGate;

/// A physical retrieval alternative — the plan enumeration space of the
/// cost-driven planner.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PhysicalPlan {
    /// MaxScore + block-max pruned document-at-a-time evaluation.
    PrunedDaat,
    /// The plain exhaustive cursor merge.
    ExhaustiveDaat,
    /// Set-at-a-time accumulation over the element-addressable index.
    SetAtATime,
    /// Set-based evaluation over the fragmented term–document table.
    Fragmented(Strategy),
}

impl PhysicalPlan {
    /// Every enumerable plan, in the planner's tie-breaking preference
    /// order (earlier wins on equal cost).
    pub const ALL: [PhysicalPlan; 8] = [
        PhysicalPlan::PrunedDaat,
        PhysicalPlan::SetAtATime,
        PhysicalPlan::ExhaustiveDaat,
        PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: true }),
        PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: false }),
        PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: true }),
        PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: false }),
        PhysicalPlan::Fragmented(Strategy::FullScan),
    ];

    /// The operator's display name (stable, used by EXPLAIN and the
    /// benchmark JSON).
    pub fn name(&self) -> &'static str {
        match self {
            PhysicalPlan::PrunedDaat => "pruned_daat",
            PhysicalPlan::ExhaustiveDaat => "exhaustive_daat",
            PhysicalPlan::SetAtATime => "set_at_a_time",
            PhysicalPlan::Fragmented(Strategy::FullScan) => "frag_full_scan",
            PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: false }) => "frag_a_only",
            PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: true }) => {
                "frag_a_only_indexed"
            }
            PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: false }) => "frag_switch",
            PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: true }) => {
                "frag_switch_indexed"
            }
        }
    }
}

/// Unified execution counters shared by every engine path. The same five
/// work measures mean the same thing everywhere, so the planner's
/// predictions — and the calibration loop feeding measurements back into
/// the cost weights — compare like with like.
#[derive(Debug, Clone, PartialEq, Default)]
#[must_use]
pub struct ExecReport {
    /// Top `(doc, score)` pairs, best first (score desc, doc id asc).
    pub top: Vec<(u32, f64)>,
    /// Elements inspected: postings scored on the cursor/accumulator
    /// paths, table entries inspected on the fragmented paths.
    pub postings_scanned: usize,
    /// Elements bypassed without scoring (galloping skips, pruned tails,
    /// bound-pruned probes).
    pub docs_skipped: usize,
    /// Skip operations issued (galloping cursor seeks, sparse-index range
    /// lookups).
    pub seeks: usize,
    /// Bound tests that pruned work (candidate gates, abandoned documents).
    pub bound_exits: usize,
    /// Documents whose exact score was computed and offered to the top-N
    /// heap.
    pub candidates: usize,
    /// Whether the evaluation was truncated by an expired per-query
    /// deadline ([`crate::deadline::DeadlineGate`]): `top` holds only
    /// exactly scored documents found before expiry, and the counters
    /// describe the work actually performed — never the work skipped by
    /// truncation.
    pub partial: bool,
    /// Evaluations that started from a seeded threshold: 1 when the pruned
    /// DAAT kernel's seed pass found a lower bound on the query's N-th
    /// score before scanning, 0 otherwise. Summed by
    /// [`ExecReport::absorb`], so a sharded or batched aggregate counts
    /// its seeded shard-queries.
    pub seeded: usize,
    /// Evaluations the pruned DAAT kernel answered with its short-run
    /// merge: 1 when every run of the query held at most 512 postings in
    /// the index searched, so no bound could prune, 0 otherwise. Summed
    /// by [`ExecReport::absorb`] like `seeded`.
    pub short_merged: usize,
}

impl ExecReport {
    /// Fold another report's counters into this one (the `top` ranking is
    /// left untouched) — the aggregation primitive the experiments use
    /// instead of copying fields by hand. Partiality is sticky: an
    /// aggregate over any truncated execution is itself partial.
    ///
    /// Saturating: a sustained-load run folds millions of reports into
    /// one ledger, and on a 32-bit `usize` that can genuinely reach the
    /// ceiling — an aggregate that clamps at `usize::MAX` reads as "at
    /// least this much work", where a wrapped one silently reads as
    /// almost none.
    pub fn absorb(&mut self, other: &ExecReport) {
        self.postings_scanned = self.postings_scanned.saturating_add(other.postings_scanned);
        self.docs_skipped = self.docs_skipped.saturating_add(other.docs_skipped);
        self.seeks = self.seeks.saturating_add(other.seeks);
        self.bound_exits = self.bound_exits.saturating_add(other.bound_exits);
        self.candidates = self.candidates.saturating_add(other.candidates);
        self.partial |= other.partial;
        self.seeded = self.seeded.saturating_add(other.seeded);
        self.short_merged = self.short_merged.saturating_add(other.short_merged);
    }
}

impl From<FragSearchReport> for ExecReport {
    fn from(r: FragSearchReport) -> ExecReport {
        ExecReport {
            top: r.top,
            postings_scanned: r.postings_scanned,
            docs_skipped: r.postings_pruned,
            seeks: r.seeks,
            bound_exits: r.bound_exits,
            candidates: r.candidates,
            partial: r.timed_out,
            seeded: 0,
            short_merged: 0,
        }
    }
}

/// All four engine paths behind one dispatcher, sharing one
/// [`ScoreKernel`] (per-document norms), one lazily built [`ScoreBounds`]
/// (pruning tables, paid only when a DAAT plan actually prunes), one
/// epoch accumulator, and one [`FragSearcher`].
#[derive(Debug)]
pub struct EngineSet {
    frag: Arc<FragmentedIndex>,
    policy: SwitchPolicy,
    kernel: Arc<ScoreKernel>,
    daat_bounds: Arc<OnceLock<ScoreBounds>>,
    saat_accum: EpochAccumulator,
    frag_searcher: FragSearcher,
    /// The reusable query-execution arena of this engine's DAAT paths:
    /// cursor decode buffers, bound work lists, heap, and result storage
    /// all persist across queries, so steady-state execution allocates
    /// only the returned report's ranking. One per engine set means one
    /// per `moa_serve` shard — the per-shard scratch pool.
    scratch: QueryScratch,
}

// The serving layer moves engine sets onto long-lived shard workers and
// shares kernels and thresholds across them; pin the thread-safety of the
// whole engine stack at compile time so a non-Send field can never sneak
// in and silently un-thread the shard executor.
const _: () = {
    const fn assert_send_sync<T: Send + Sync>() {}
    assert_send_sync::<EngineSet>();
    assert_send_sync::<QueryScratch>();
    assert_send_sync::<ScoreKernel>();
    assert_send_sync::<ScoreBounds>();
    assert_send_sync::<EpochAccumulator>();
    assert_send_sync::<FragSearcher>();
    assert_send_sync::<crate::threshold::SharedThreshold>();
    assert_send_sync::<BoundGate>();
    assert_send_sync::<crate::deadline::DeadlineGate>();
};

impl EngineSet {
    /// Build the engine set for one `(fragmented index, model, policy)`.
    pub fn new(frag: Arc<FragmentedIndex>, model: RankingModel, policy: SwitchPolicy) -> EngineSet {
        let kernel = Arc::new(ScoreKernel::new(model, frag.index()));
        EngineSet::with_kernel(frag, kernel, policy)
    }

    /// Build the engine set around an existing scoring kernel. The shard
    /// fan-out uses this: document-partition shards carry the *global*
    /// catalog statistics ([`crate::index::InvertedIndex::shard_by_docs`]),
    /// so one kernel (per-document norm table + collection stats) is
    /// bit-identical for every shard and is built once and shared, while
    /// the [`ScoreBounds`] tables stay per-shard (they depend on the
    /// shard-resident postings). `kernel` must have been built for the
    /// same collection statistics, document lengths, and ranking model as
    /// `frag.index()` — an index sharded from the kernel's source index
    /// satisfies this by construction.
    pub fn with_kernel(
        frag: Arc<FragmentedIndex>,
        kernel: Arc<ScoreKernel>,
        policy: SwitchPolicy,
    ) -> EngineSet {
        let daat_bounds: Arc<OnceLock<ScoreBounds>> = Arc::new(OnceLock::new());
        let saat_accum = EpochAccumulator::new(frag.index().num_docs());
        // The fragmented path prunes on the very same bound tables the
        // DAAT kernel skips with — one lazy build serves both.
        let frag_searcher = FragSearcher::with_shared(
            Arc::clone(&frag),
            Arc::clone(&kernel),
            Arc::clone(&daat_bounds),
            policy,
        );
        EngineSet {
            frag,
            policy,
            kernel,
            daat_bounds,
            saat_accum,
            frag_searcher,
            scratch: QueryScratch::new(),
        }
    }

    /// The fragmented index the engines evaluate over.
    pub fn fragments(&self) -> &Arc<FragmentedIndex> {
        &self.frag
    }

    /// The ranking model all engines share.
    pub fn model(&self) -> RankingModel {
        self.kernel.model()
    }

    /// The switch policy the fragmented strategies consult.
    pub fn policy(&self) -> SwitchPolicy {
        self.policy
    }

    /// Lifetime count of DAAT queries served out of this engine's owned
    /// [`QueryScratch`] arena. A persistent serving worker that reuses one
    /// engine set across a whole query stream accumulates the stream here —
    /// the observable the pool hand-off tests pin instead of trusting that
    /// no per-batch arena was silently created.
    pub fn scratch_queries(&self) -> u64 {
        self.scratch.queries_begun()
    }

    /// Heap bytes of this engine's long-run bound table, `None` until a
    /// query with a long run has built it. Exposed for the memory tests
    /// only.
    #[doc(hidden)]
    pub fn bound_table_bytes(&self) -> Option<usize> {
        self.daat_bounds.get().map(ScoreBounds::heap_bytes)
    }

    /// Per-phase wall times of the most recent
    /// [`EngineSet::execute`]/[`EngineSet::execute_gated`] call: gate
    /// pass / decode / score / merge for the DAAT paths, a single score
    /// span for the set-at-a-time and fragmented paths (whose decode and
    /// scoring interleave with no cheap stage boundary). A `Copy`
    /// snapshot — callers fold it into traces without holding the engine.
    pub fn last_phases(&self) -> moa_obs::PhaseAgg {
        self.scratch.phases()
    }

    /// Restore every piece of cross-query execution state to a sound
    /// baseline after an *abandoned* evaluation — one that unwound out of
    /// an engine path mid-query (a panic caught at a serving-worker
    /// boundary). The epoch accumulators retire their current epoch in
    /// O(1), invalidating any partial sums; the scratch arena needs no
    /// action (every entry re-`begin`s it). Index, kernel, and bound
    /// tables are immutable during execution and stay shared.
    pub fn reset_execution_state(&mut self) {
        self.saat_accum.retire();
        self.frag_searcher.reset_scratch();
    }

    /// Execute `plan` for a query and report its work in the unified
    /// [`ExecReport`] shape.
    pub fn execute(&mut self, plan: PhysicalPlan, terms: &[u32], n: usize) -> Result<ExecReport> {
        self.execute_gated(plan, terms, n, &BoundGate::none())
    }

    /// [`EngineSet::execute`] with a cross-engine threshold hook. The
    /// pruning paths (pruned DAAT, the fragmented bound-score pass)
    /// consult and feed `gate` inside their hot loops; the exhaustive
    /// paths cannot skip work on it but still publish their N-th score so
    /// concurrent engines tighten off this one's result.
    ///
    /// A top-N deeper than the collection is its full ranking, so `n` is
    /// clamped to the document count (shard indexes carry the global
    /// one) before any path sizes a heap by it.
    pub fn execute_gated(
        &mut self,
        plan: PhysicalPlan,
        terms: &[u32],
        n: usize,
        gate: &BoundGate,
    ) -> Result<ExecReport> {
        let n = n.min(self.frag.index().num_docs());
        let report: Result<ExecReport> = match plan {
            PhysicalPlan::PrunedDaat => {
                let daat = DaatSearcher::with_shared(
                    self.frag.index(),
                    Arc::clone(&self.kernel),
                    Arc::clone(&self.daat_bounds),
                );
                daat.search_into(terms, n, gate, &mut self.scratch)
                    .map(|report| ExecReport {
                        top: self.scratch.out.clone(),
                        ..report
                    })
            }
            PhysicalPlan::ExhaustiveDaat => {
                let daat = DaatSearcher::with_shared(
                    self.frag.index(),
                    Arc::clone(&self.kernel),
                    Arc::clone(&self.daat_bounds),
                );
                daat.search_exhaustive_into(terms, n, gate, &mut self.scratch)
                    .map(|report| ExecReport {
                        top: self.scratch.out.clone(),
                        ..report
                    })
            }
            PhysicalPlan::SetAtATime => {
                // The long-lived accumulator is lent to the evaluation: no
                // per-query O(num_docs) allocation. Decode and
                // accumulation interleave per term run, so the whole call
                // is one score span (the DAAT paths, which have real stage
                // boundaries, break theirs down further).
                self.scratch.phases.reset();
                let t_score = std::time::Instant::now();
                let report = set_at_a_time(
                    self.frag.index(),
                    &self.kernel,
                    &mut self.saat_accum,
                    terms,
                    n,
                    gate,
                );
                self.scratch
                    .phases
                    .add(moa_obs::Phase::Score, t_score.elapsed());
                report
            }
            PhysicalPlan::Fragmented(strategy) => {
                self.scratch.phases.reset();
                let t_score = std::time::Instant::now();
                let report = self
                    .frag_searcher
                    .search_gated(terms, n, strategy, gate)
                    .map(ExecReport::from);
                self.scratch
                    .phases
                    .add(moa_obs::Phase::Score, t_score.elapsed());
                report
            }
        };
        let report = report?;
        // A complete top-N proves N documents of at least the tail score
        // exist, whichever path produced it.
        if report.top.len() == n {
            if let Some(&(_, tail)) = report.top.last() {
                gate.publish_score(tail);
            }
        }
        Ok(report)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fragment::FragmentSpec;
    use crate::index::InvertedIndex;
    use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, QueryConfig};

    fn engines() -> (Collection, EngineSet) {
        let c = Collection::generate(CollectionConfig::tiny())
            .expect("tiny preset is a valid collection config");
        let idx = Arc::new(InvertedIndex::from_collection(&c));
        let mut frag = FragmentedIndex::build(idx, FragmentSpec::TermFraction(0.9))
            .expect("a generated collection is never empty");
        frag.set_sparse_block_a(64).expect("positive block size");
        frag.set_sparse_block_b(64).expect("positive block size");
        let set = EngineSet::new(
            Arc::new(frag),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        (c, set)
    }

    /// The plans guaranteed to produce the exact (complete-score) top-N.
    fn exact_plans() -> Vec<PhysicalPlan> {
        vec![
            PhysicalPlan::PrunedDaat,
            PhysicalPlan::ExhaustiveDaat,
            PhysicalPlan::SetAtATime,
            PhysicalPlan::Fragmented(Strategy::FullScan),
        ]
    }

    #[test]
    fn every_exact_plan_returns_the_identical_topn() {
        let (c, mut set) = engines();
        let queries = generate_queries(&c, &QueryConfig::default())
            .expect("default query workload fits the tiny collection");
        for q in queries.iter().take(10) {
            for n in [1usize, 10, c.num_docs()] {
                let reference = set
                    .execute(PhysicalPlan::SetAtATime, &q.terms, n)
                    .expect("generated query terms are all in vocabulary");
                for plan in exact_plans() {
                    let rep = set
                        .execute(plan, &q.terms, n)
                        .expect("generated query terms are all in vocabulary");
                    assert_eq!(
                        rep.top,
                        reference.top,
                        "{} diverged (n={n}, q={:?})",
                        plan.name(),
                        q.terms
                    );
                }
            }
        }
    }

    #[test]
    fn unified_counters_are_populated_per_path() {
        let (c, mut set) = engines();
        let queries = generate_queries(&c, &QueryConfig::default())
            .expect("default query workload fits the tiny collection");
        let q = &queries[0];
        let daat = set
            .execute(PhysicalPlan::PrunedDaat, &q.terms, 5)
            .expect("generated query terms are all in vocabulary");
        assert!(daat.postings_scanned > 0);
        assert!(daat.candidates > 0);
        let frag = set
            .execute(PhysicalPlan::Fragmented(Strategy::FullScan), &q.terms, 5)
            .expect("generated query terms are all in vocabulary");
        assert_eq!(
            frag.postings_scanned,
            set.fragments().index().num_postings(),
            "full scan inspects the whole volume"
        );
        let saat = set
            .execute(PhysicalPlan::SetAtATime, &q.terms, 5)
            .expect("generated query terms are all in vocabulary");
        assert_eq!(saat.docs_skipped, 0);
        assert_eq!(saat.seeks, 0);
    }

    #[test]
    fn absorb_aggregates_counters() {
        let mut total = ExecReport::default();
        let a = ExecReport {
            top: vec![(1, 2.0)],
            postings_scanned: 10,
            docs_skipped: 3,
            seeks: 2,
            bound_exits: 1,
            candidates: 4,
            partial: false,
            seeded: 1,
            short_merged: 1,
        };
        total.absorb(&a);
        total.absorb(&a);
        assert_eq!(total.postings_scanned, 20);
        assert_eq!(total.docs_skipped, 6);
        assert_eq!(total.seeks, 4);
        assert_eq!(total.bound_exits, 2);
        assert_eq!(total.candidates, 8);
        assert_eq!(total.seeded, 2);
        assert_eq!(total.short_merged, 2);
        assert!(total.top.is_empty(), "absorb must not merge rankings");
        assert!(!total.partial);
        let p = ExecReport {
            partial: true,
            ..ExecReport::default()
        };
        total.absorb(&p);
        assert!(total.partial, "partiality must be sticky under absorb");
    }

    #[test]
    fn absorb_saturates_instead_of_wrapping() {
        // A sustained-load ledger near the usize ceiling must clamp, not
        // wrap to a tiny figure that reads as "almost no work".
        let mut total = ExecReport {
            postings_scanned: usize::MAX - 5,
            docs_skipped: usize::MAX,
            seeks: usize::MAX - 1,
            bound_exits: 0,
            candidates: usize::MAX / 2 + 1,
            ..ExecReport::default()
        };
        let more = ExecReport {
            postings_scanned: 10,
            docs_skipped: 1,
            seeks: 1,
            bound_exits: usize::MAX,
            candidates: usize::MAX / 2 + 1,
            ..ExecReport::default()
        };
        total.absorb(&more);
        assert_eq!(total.postings_scanned, usize::MAX);
        assert_eq!(total.docs_skipped, usize::MAX);
        assert_eq!(total.seeks, usize::MAX);
        assert_eq!(total.bound_exits, usize::MAX);
        assert_eq!(total.candidates, usize::MAX);
    }

    #[test]
    fn a_top_n_deeper_than_the_collection_is_the_full_ranking() {
        // Every path sizes a heap by `n`; unclamped, `usize::MAX` would
        // overflow that reservation. Clamped, it is the full ranking:
        // identical answers and counters to `n = num_docs`.
        let (c, mut set) = engines();
        let queries = generate_queries(&c, &QueryConfig::default())
            .expect("default query workload fits the tiny collection");
        let num_docs = set.fragments().index().num_docs();
        for q in queries.iter().take(5) {
            for plan in PhysicalPlan::ALL {
                let full = set
                    .execute(plan, &q.terms, num_docs)
                    .expect("generated query terms are all in vocabulary");
                let deeper = set
                    .execute(plan, &q.terms, usize::MAX)
                    .expect("generated query terms are all in vocabulary");
                assert_eq!(deeper, full, "{} (q={:?})", plan.name(), q.terms);
            }
        }
    }

    #[test]
    fn bound_tables_are_built_once_and_only_for_a_long_run() {
        // A 2 000-document corpus: its frequent terms hold runs of more
        // than 512 postings, its rare ones do not.
        let c = Collection::generate(CollectionConfig::small()).expect("valid preset");
        let idx = Arc::new(InvertedIndex::from_collection(&c));
        let frag = FragmentedIndex::build(Arc::clone(&idx), FragmentSpec::TermFraction(0.9))
            .expect("a generated collection is never empty");
        let mut set = EngineSet::new(
            Arc::new(frag),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        let long = |terms: &[u32]| terms.iter().any(|&t| idx.run_len(t).unwrap() > 512);
        let (mut all_short, mut with_long): (Vec<Vec<u32>>, Vec<Vec<u32>>) =
            (Vec::new(), Vec::new());
        for bias in [DfBias::RareOnly, DfBias::TrecLike { high_df_mix: 0.5 }] {
            let config = QueryConfig {
                num_queries: 16,
                bias,
                ..QueryConfig::default()
            };
            for q in generate_queries(&c, &config).expect("valid workload") {
                if long(&q.terms) {
                    with_long.push(q.terms);
                } else {
                    all_short.push(q.terms);
                }
            }
        }
        assert!(all_short.len() >= 16 && with_long.len() >= 4);

        // Any number of all-short queries, on every exact DAAT and
        // accumulator path, builds no bound table.
        for terms in &all_short {
            for n in [1usize, 10, 1000] {
                for plan in [
                    PhysicalPlan::PrunedDaat,
                    PhysicalPlan::ExhaustiveDaat,
                    PhysicalPlan::SetAtATime,
                ] {
                    let rep = set.execute(plan, terms, n).expect("in-vocabulary query");
                    let merged = usize::from(plan == PhysicalPlan::PrunedDaat);
                    assert_eq!(rep.short_merged, merged, "{} {terms:?}", plan.name());
                }
                assert!(set.daat_bounds.get().is_none(), "{terms:?} n={n}");
            }
        }

        // The first query with a long run builds them; later ones reuse
        // that one build, which the fragmented path shares too.
        let first = set
            .execute(PhysicalPlan::PrunedDaat, &with_long[0], 10)
            .expect("in-vocabulary query");
        assert_eq!(first.short_merged, 0);
        let built: *const ScoreBounds = set.daat_bounds.get().expect("built by the long run");
        // The table holds one record per run of more than 512 postings in
        // the index it serves, and nothing else.
        let long_runs = (0..idx.vocab_size() as u32)
            .filter(|&t| idx.run_len(t).unwrap() > 512)
            .count();
        assert_eq!(
            set.daat_bounds.get().map(ScoreBounds::long_runs),
            Some(long_runs)
        );
        for terms in with_long.iter().chain(&all_short) {
            let rep = set
                .execute(PhysicalPlan::PrunedDaat, terms, 10)
                .expect("in-vocabulary query");
            assert_eq!(rep.short_merged, usize::from(!long(terms)), "{terms:?}");
            let now: *const ScoreBounds = set.daat_bounds.get().expect("still built");
            assert_eq!(now, built, "{terms:?} rebuilt the bound tables");
        }
        assert_eq!(Arc::strong_count(&set.daat_bounds), 2);
    }

    #[test]
    fn plan_names_are_unique_and_stable() {
        let mut names: Vec<&str> = PhysicalPlan::ALL.iter().map(PhysicalPlan::name).collect();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), PhysicalPlan::ALL.len());
        assert_eq!(PhysicalPlan::PrunedDaat.name(), "pruned_daat");
    }
}
