//! The cost-driven physical retrieval planner (the paper's Step 3, made
//! executable).
//!
//! Before this layer, the four retrieval paths — MaxScore-pruned DAAT, the
//! exhaustive exact merge, the set-at-a-time engine, and the fragmented
//! scan strategies — were chosen *by hand* in each experiment. The planner
//! makes strategy selection a first-class, cost-driven decision, in the
//! Cascades spirit of separating the logical operator (`rank the
//! collection for these terms, keep N`) from its physical alternatives
//! ([`PhysicalPlan`]):
//!
//! 1. [`QueryProfile::build`] reads the catalog only — per-term document
//!    frequencies, fragment residency and volumes, index availability, N —
//!    exactly the information available "early in the query plan",
//! 2. [`Planner::plan`] prices every alternative with the session's
//!    [`CostWeights`](crate::CostWeights) and returns a [`PlanDecision`]: the chosen operator
//!    next to every rejected alternative and its estimate (EXPLAIN prints
//!    this verbatim),
//! 3. [`Planner::observe`] closes the loop: measured
//!    [`ExecReport`] counters are fed back into the weights through a
//!    [`LearnedDistribution`] (the paper's "learned by the system by means
//!    of profiling"), so the pruned-DAAT volume prediction tracks the
//!    collection actually being served.

use std::collections::{HashMap, VecDeque};

use moa_ir::{
    ExecReport, FragmentedIndex, PhysicalPlan, RankingModel, Strategy, SwitchDecision, SwitchPolicy,
};

use crate::cost::learning::LearnedDistribution;
use crate::cost::{CostModel, IrCostInfo};
use crate::error::Result;

/// Plan-memo capacity: distinct df-band signatures retained. Signatures
/// are a handful of bytes and query classes are few (bands × widths), so
/// a small FIFO-bounded map holds every class a realistic workload
/// produces; overflow evicts the oldest signature.
pub const PLAN_MEMO_CAP: usize = 512;

/// How far [`Planner::observe`] may move the calibrated
/// [`crate::cost::CostWeights::daat_prune`] weight before every memoized
/// decision is flash-invalidated (the memo was priced under the old
/// weight; beyond this drift its costs are stale enough to re-walk the
/// alternatives).
pub const PLAN_MEMO_DRIFT_TOLERANCE: f64 = 0.05;

/// The per-query catalog profile plans are priced against: the df profile
/// of the query terms, the fragment volume fractions, N, and collection
/// statistics.
#[derive(Debug, Clone)]
#[must_use]
pub struct QueryProfile {
    /// Resident posting-run length per query position (duplicated terms
    /// appear once per occurrence — the cursor and accumulator paths scan
    /// a duplicated term's run once per occurrence). Equals the document
    /// frequency on an index built from a whole collection; on a
    /// document-partition shard it is the *shard-local* run, so a
    /// per-shard planner prices the work actually resident on its shard
    /// rather than the collection-wide catalog figure.
    pub dfs: Vec<f64>,
    /// Total query posting volume (Σ dfs).
    pub volume: f64,
    /// The rarest query term's run length (0 for an empty query).
    pub df_min: f64,
    /// Distinct query terms resident in fragment A. The fragmented
    /// gather paths dedup the query's term set, so indexed-access
    /// estimates are sized per *distinct* term, not per position.
    pub a_terms: usize,
    /// Distinct query terms resident in fragment B.
    pub b_terms: usize,
    /// Σ df over distinct A-resident terms.
    pub a_query_postings: f64,
    /// Σ df over distinct B-resident terms.
    pub b_query_postings: f64,
    /// The requested ranking depth.
    pub n: f64,
    /// Collection- and fragment-level catalog figures.
    pub ir: IrCostInfo,
}

impl QueryProfile {
    /// Read the profile from the catalog (no postings are touched).
    pub fn build(terms: &[u32], n: usize, frag: &FragmentedIndex) -> Result<QueryProfile> {
        let index = frag.index();
        let mut dfs = Vec::with_capacity(terms.len());
        let mut volume = 0.0f64;
        let mut df_min = f64::INFINITY;
        let mut a_terms = 0usize;
        let mut b_terms = 0usize;
        let mut a_query_postings = 0.0f64;
        let mut b_query_postings = 0.0f64;
        let mut seen: Vec<u32> = Vec::with_capacity(terms.len());
        for &t in terms {
            // Work is proportional to the postings physically present
            // (`run_len`), not the catalog df — the two only differ on
            // document-partition shards, where df stays collection-wide.
            let df = index.run_len(t)? as f64;
            dfs.push(df);
            volume += df;
            df_min = df_min.min(df);
            if seen.contains(&t) {
                continue; // fragment gathers visit each distinct term once
            }
            seen.push(t);
            if frag.term_in_a(t) {
                a_terms += 1;
                a_query_postings += df;
            } else if df > 0.0 {
                b_terms += 1;
                b_query_postings += df;
            }
        }
        if !df_min.is_finite() {
            df_min = 0.0;
        }
        Ok(QueryProfile {
            dfs,
            volume,
            df_min,
            a_terms,
            b_terms,
            a_query_postings,
            b_query_postings,
            n: n as f64,
            ir: IrCostInfo::from_catalog(frag, volume),
        })
    }
}

/// One priced physical alternative.
#[derive(Debug, Clone)]
#[must_use]
pub struct PlanAlternative {
    /// The physical operator.
    pub plan: PhysicalPlan,
    /// Predicted `postings_scanned` (the unified work counter).
    pub est_postings: f64,
    /// Weighted abstract cost (`rank_posting × est_postings +
    /// materialize × output`, plus `decode_posting × est_postings` on the
    /// cursor/accumulator paths that unpack the block-compressed
    /// storage).
    pub cost: f64,
    /// Whether this plan's top-N is guaranteed bit-identical to the
    /// naive full-scan oracle.
    pub exact: bool,
    /// Whether the plan can run as priced (indexed variants need their
    /// non-dense index built).
    pub feasible: bool,
    /// One-line pricing / rejection rationale.
    pub reason: String,
}

/// The planner's verdict: the chosen operator next to every rejected
/// alternative with its estimate.
#[derive(Debug, Clone)]
#[must_use]
pub struct PlanDecision {
    /// The winning physical operator.
    pub chosen: PhysicalPlan,
    /// Every enumerated alternative, cheapest first.
    pub alternatives: Vec<PlanAlternative>,
    /// The early quality check's verdict (computed at plan time from
    /// catalog statistics only).
    pub switch: SwitchDecision,
    /// The catalog profile the pricing used.
    pub profile: QueryProfile,
}

impl PlanDecision {
    /// The chosen plan's priced alternative entry.
    pub fn chosen_alternative(&self) -> &PlanAlternative {
        self.alternatives
            .iter()
            .find(|a| a.plan == self.chosen)
            .expect("chosen plan is always enumerated")
    }

    /// Render the decision as EXPLAIN text: chosen operator first, then
    /// every rejected alternative with its cost estimate.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for alt in &self.alternatives {
            let marker = if alt.plan == self.chosen { "->" } else { "  " };
            let exact = if alt.exact { "exact" } else { "approx" };
            let feas = if alt.feasible { "" } else { " (infeasible)" };
            out.push_str(&format!(
                "{marker} {:<20} est. cost {:>10.0}, postings {:>10.0}, {exact}{feas}  [{}]\n",
                alt.plan.name(),
                alt.cost,
                alt.est_postings,
                alt.reason
            ));
        }
        out
    }
}

/// Planner configuration.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PlannerConfig {
    /// When set (the default), only plans whose top-N is guaranteed exact
    /// may be chosen; unsafe/approximate plans are still priced and shown.
    pub require_exact: bool,
}

impl Default for PlannerConfig {
    fn default() -> Self {
        PlannerConfig {
            require_exact: true,
        }
    }
}

/// One memoized verdict: the winner and its priced entry, without the
/// seven rejected alternatives (re-synthesized on demand for EXPLAIN).
#[derive(Debug, Clone, Copy)]
struct MemoEntry {
    chosen: PhysicalPlan,
    est_postings: f64,
    cost: f64,
    exact: bool,
    switch: SwitchDecision,
}

/// Memo hit/miss/invalidation counters and residency.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct MemoStats {
    /// Decisions answered from the memo.
    pub hits: u64,
    /// Signatures priced fresh (and inserted).
    pub misses: u64,
    /// Times calibration drift cleared the whole memo.
    pub invalidations: u64,
    /// Signatures currently memoized.
    pub entries: usize,
}

/// The bounded plan memo: df-band-quantized signature → priced verdict.
/// See [`Planner::plan_memoized`].
#[derive(Debug, Clone)]
struct PlanMemo {
    entries: HashMap<Box<[u8]>, MemoEntry>,
    /// Insertion order for FIFO bounding at [`PLAN_MEMO_CAP`].
    order: VecDeque<Box<[u8]>>,
    /// The `daat_prune` weight the resident entries were priced under.
    stamp: f64,
    hits: u64,
    misses: u64,
    invalidations: u64,
    /// Reused signature buffer: a memo *hit* never allocates for its key.
    scratch: Vec<u8>,
}

impl PlanMemo {
    fn new(stamp: f64) -> PlanMemo {
        PlanMemo {
            entries: HashMap::new(),
            order: VecDeque::new(),
            stamp,
            hits: 0,
            misses: 0,
            invalidations: 0,
            scratch: Vec::new(),
        }
    }
}

/// Quantize a catalog figure to its power-of-two band: profiles whose
/// per-position dfs land in the same bands share one memo entry.
fn df_band(v: f64) -> u8 {
    if v < 1.0 {
        0
    } else {
        (v.log2().floor() as i64 + 1).clamp(1, 0x3f) as u8
    }
}

/// The cost-driven physical retrieval planner.
#[derive(Debug, Clone)]
pub struct Planner {
    /// The cost model whose weights price the alternatives (and receive
    /// the calibration feedback).
    pub model: CostModel,
    /// Configuration.
    pub config: PlannerConfig,
    /// Observed pruned-DAAT scan fractions (profiling, per the paper's
    /// learned-distribution proposal).
    observed_prune: LearnedDistribution,
    /// Memoized decisions keyed by df-band signature.
    memo: PlanMemo,
}

impl Default for Planner {
    fn default() -> Self {
        Planner::new(CostModel::default(), PlannerConfig::default())
    }
}

impl Planner {
    /// Create a planner with the given cost model and configuration.
    pub fn new(model: CostModel, config: PlannerConfig) -> Planner {
        let stamp = model.weights.daat_prune;
        Planner {
            model,
            config,
            observed_prune: LearnedDistribution::new(8, 16),
            memo: PlanMemo::new(stamp),
        }
    }

    /// Enumerate and price every physical alternative for one query,
    /// returning the cost-chosen winner next to the rejected plans.
    pub fn plan(
        &self,
        terms: &[u32],
        n: usize,
        frag: &FragmentedIndex,
        model: RankingModel,
        policy: SwitchPolicy,
    ) -> Result<PlanDecision> {
        let profile = QueryProfile::build(terms, n, frag)?;
        let switch = policy.decide(terms, frag, model)?;
        Ok(self.price_profile(profile, switch))
    }

    /// Price every alternative against an already-built profile (the
    /// shared tail of [`Planner::plan`] and a
    /// [`Planner::plan_memoized`] miss).
    fn price_profile(&self, profile: QueryProfile, switch: SwitchDecision) -> PlanDecision {
        let w = self.model.weights;
        let out_rows = profile.n.min(profile.ir.num_docs);
        let price = |est: f64| w.rank_posting * est + w.materialize * out_rows;

        let mut alternatives: Vec<PlanAlternative> = Vec::with_capacity(PhysicalPlan::ALL.len());
        for plan in PhysicalPlan::ALL {
            let ir = profile.ir;
            let (est, exact, feasible, reason) = match plan {
                PhysicalPlan::PrunedDaat => {
                    if profile.n >= ir.num_docs {
                        (
                            profile.volume,
                            true,
                            true,
                            "N admits every document: bounds cannot prune".to_owned(),
                        )
                    } else {
                        let est = profile.df_min
                            + w.daat_prune * (profile.volume - profile.df_min).max(0.0);
                        (
                            est,
                            true,
                            true,
                            format!("df_min + {:.2} x rest (calibrated)", w.daat_prune),
                        )
                    }
                }
                PhysicalPlan::ExhaustiveDaat => (
                    profile.volume,
                    true,
                    true,
                    "every query posting merged".to_owned(),
                ),
                PhysicalPlan::SetAtATime => (
                    profile.volume,
                    true,
                    true,
                    "every query posting accumulated".to_owned(),
                ),
                PhysicalPlan::Fragmented(Strategy::FullScan) => (
                    ir.volume_a + ir.volume_b,
                    true,
                    true,
                    "full table scan".to_owned(),
                ),
                PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index }) => {
                    let (est, feasible, how) = if use_a_index {
                        (
                            profile.a_query_postings + profile.a_terms as f64 * ir.index_block,
                            ir.a_indexed,
                            "A runs via non-dense index",
                        )
                    } else {
                        (ir.volume_a, true, "fragment A scanned")
                    };
                    (
                        est,
                        false,
                        feasible,
                        format!("{how}; drops B-resident score mass"),
                    )
                }
                PhysicalPlan::Fragmented(Strategy::Switch { use_b_index }) => {
                    let b_cost = if !switch.use_b {
                        0.0
                    } else if use_b_index {
                        profile.b_query_postings + profile.b_terms as f64 * ir.index_block
                    } else {
                        ir.volume_b
                    };
                    let feasible = !use_b_index || ir.b_indexed || !switch.use_b;
                    let how = if switch.use_b {
                        "check demands B: complete scores"
                    } else {
                        "check waives B: quality-bounded, not exact"
                    };
                    (ir.volume_a + b_cost, switch.use_b, feasible, how.to_owned())
                }
            };
            // The cursor/accumulator paths run on the block-compressed
            // storage and pay a per-posting unpack; the fragmented table
            // paths scan flat arrays and do not.
            let decodes = matches!(
                plan,
                PhysicalPlan::PrunedDaat | PhysicalPlan::ExhaustiveDaat | PhysicalPlan::SetAtATime
            );
            let decode_cost = if decodes { w.decode_posting * est } else { 0.0 };
            alternatives.push(PlanAlternative {
                plan,
                est_postings: est,
                cost: price(est) + decode_cost,
                exact,
                feasible,
                reason,
            });
        }

        // Choose the cheapest eligible plan; PhysicalPlan::ALL's order
        // breaks exact cost ties (stable sort), and PrunedDaat is always
        // eligible so a winner exists.
        let eligible = |a: &PlanAlternative| a.feasible && (a.exact || !self.config.require_exact);
        let chosen = alternatives
            .iter()
            .filter(|a| eligible(a))
            .min_by(|a, b| a.cost.total_cmp(&b.cost))
            .map(|a| a.plan)
            .expect("PrunedDaat is always eligible");
        alternatives.sort_by(|a, b| a.cost.total_cmp(&b.cost));

        PlanDecision {
            chosen,
            alternatives,
            switch,
            profile,
        }
    }

    /// [`Planner::plan`] through the bounded plan memo: the profile is
    /// still read fresh from the catalog (cheap, and
    /// [`Planner::observe`] needs the real figures), but pricing is
    /// answered from the memo when a df-band-quantized signature of the
    /// query — per-position df band plus fragment-A residency, and the
    /// banded ranking depth — has been priced before. Returns the
    /// decision and whether it was a memo hit. A hit's
    /// [`PlanDecision::alternatives`] holds only the chosen entry
    /// (reason `memo: HIT`); the rejected alternatives were not
    /// re-walked — that is the point.
    ///
    /// Answer-preserving by construction: the memo stores only *which*
    /// exact operator to run, never result state, so a hit executes the
    /// same bit-identical retrieval a fresh pricing would have picked
    /// for that query class.
    pub fn plan_memoized(
        &mut self,
        terms: &[u32],
        n: usize,
        frag: &FragmentedIndex,
        model: RankingModel,
        policy: SwitchPolicy,
    ) -> Result<(PlanDecision, bool)> {
        let profile = QueryProfile::build(terms, n, frag)?;
        // Signature: banded N (with the "N admits every document" pricing
        // cliff folded in explicitly, so banding can never blur across
        // it), then one byte per query position: df band | A-residency.
        self.memo.scratch.clear();
        let mut n_byte = df_band(profile.n);
        if profile.n >= profile.ir.num_docs {
            n_byte |= 0x80;
        }
        self.memo.scratch.push(n_byte);
        for (i, &t) in terms.iter().enumerate() {
            let mut b = df_band(profile.dfs[i]);
            if frag.term_in_a(t) {
                b |= 0x40;
            }
            self.memo.scratch.push(b);
        }
        if let Some(e) = self.memo.entries.get(self.memo.scratch.as_slice()) {
            self.memo.hits += 1;
            let alt = PlanAlternative {
                plan: e.chosen,
                est_postings: e.est_postings,
                cost: e.cost,
                exact: e.exact,
                feasible: true,
                reason: "memo: HIT".to_owned(),
            };
            let decision = PlanDecision {
                chosen: e.chosen,
                alternatives: vec![alt],
                switch: e.switch,
                profile,
            };
            return Ok((decision, true));
        }
        self.memo.misses += 1;
        let switch = policy.decide(terms, frag, model)?;
        let decision = self.price_profile(profile, switch);
        let chosen = decision.chosen_alternative();
        let entry = MemoEntry {
            chosen: decision.chosen,
            est_postings: chosen.est_postings,
            cost: chosen.cost,
            exact: chosen.exact,
            switch: decision.switch,
        };
        if self.memo.entries.len() >= PLAN_MEMO_CAP {
            if let Some(oldest) = self.memo.order.pop_front() {
                self.memo.entries.remove(&oldest);
            }
        }
        let key: Box<[u8]> = self.memo.scratch.as_slice().into();
        self.memo.order.push_back(key.clone());
        self.memo.entries.insert(key, entry);
        Ok((decision, false))
    }

    /// Memo counters and residency.
    pub fn memo_stats(&self) -> MemoStats {
        MemoStats {
            hits: self.memo.hits,
            misses: self.memo.misses,
            invalidations: self.memo.invalidations,
            entries: self.memo.entries.len(),
        }
    }

    /// Feed one measured execution back into the cost weights: the pruned
    /// DAAT kernel's observed scan fraction refits
    /// [`crate::cost::CostWeights::daat_prune`] through the learned
    /// distribution (median of the observed fractions) — profiling-based
    /// calibration exactly as the paper proposes for unknown
    /// distributions.
    pub fn observe(&mut self, plan: PhysicalPlan, profile: &QueryProfile, report: &ExecReport) {
        if plan != PhysicalPlan::PrunedDaat {
            return;
        }
        let rest = profile.volume - profile.df_min;
        if rest <= 0.0 || profile.n >= profile.ir.num_docs {
            return;
        }
        let fraction = ((report.postings_scanned as f64 - profile.df_min) / rest).clamp(0.0, 1.0);
        self.observed_prune.observe(fraction);
        // Median of the learned distribution (sized against the fitted
        // histogram's own total, so it stays a median as observations
        // keep arriving between refits).
        if let Some(m) = self.observed_prune.median() {
            self.model.weights.daat_prune = m.clamp(0.01, 1.0);
        }
        // Memoized decisions were priced under the stamped weight; once
        // calibration has moved it materially, their costs (and possibly
        // their winners) are stale — flash-invalidate and restamp.
        if (self.model.weights.daat_prune - self.memo.stamp).abs() > PLAN_MEMO_DRIFT_TOLERANCE {
            self.memo.entries.clear();
            self.memo.order.clear();
            self.memo.stamp = self.model.weights.daat_prune;
            self.memo.invalidations += 1;
        }
    }

    /// Number of calibration observations absorbed so far.
    pub fn observations(&self) -> usize {
        self.observed_prune.observations()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use moa_corpus::{generate_queries, Collection, CollectionConfig, QueryConfig};
    use moa_ir::{EngineSet, FragmentSpec, InvertedIndex};
    use std::sync::Arc;

    fn fixture(index_fragments: bool) -> (Collection, Arc<FragmentedIndex>) {
        let c = Collection::generate(CollectionConfig::tiny()).unwrap();
        let idx = Arc::new(InvertedIndex::from_collection(&c));
        let mut frag = FragmentedIndex::build(idx, FragmentSpec::TermFraction(0.9)).unwrap();
        if index_fragments {
            frag.set_sparse_block_a(64).unwrap();
            frag.set_sparse_block_b(64).unwrap();
        }
        (c, Arc::new(frag))
    }

    #[test]
    fn profile_reads_catalog_only() {
        let (_, frag) = fixture(true);
        let terms = frag.index().terms_by_df_asc();
        let q = vec![terms[0], terms[terms.len() - 1], terms[0]];
        let p = QueryProfile::build(&q, 10, &frag).unwrap();
        assert_eq!(p.dfs.len(), 3);
        assert_eq!(p.volume, p.dfs.iter().sum::<f64>());
        assert_eq!(
            p.df_min,
            p.dfs.iter().copied().fold(f64::INFINITY, f64::min)
        );
        // q holds 3 positions but only 2 distinct terms: the fragment
        // residency counters are distinct-term-based (the gather paths
        // dedup), so a duplicated term is counted once.
        assert_eq!(p.a_terms + p.b_terms, 2);
        let single = QueryProfile::build(&q[..2], 10, &frag).unwrap();
        assert_eq!(p.a_query_postings, single.a_query_postings);
        assert_eq!(p.b_query_postings, single.b_query_postings);
        assert!(p.ir.a_indexed && p.ir.b_indexed);
        assert_eq!(p.ir.index_block, 64.0);
        assert!(QueryProfile::build(&[u32::MAX], 10, &frag).is_err());
    }

    #[test]
    fn exact_mode_never_chooses_an_unsafe_plan() {
        let (c, frag) = fixture(true);
        let planner = Planner::default();
        let queries = generate_queries(&c, &QueryConfig::default()).unwrap();
        for q in queries.iter().take(12) {
            for n in [1usize, 10, c.num_docs()] {
                let d = planner
                    .plan(
                        &q.terms,
                        n,
                        &frag,
                        RankingModel::default(),
                        SwitchPolicy::default(),
                    )
                    .unwrap();
                let chosen = d.chosen_alternative();
                assert!(
                    chosen.exact,
                    "{:?} chose approximate {}",
                    q.terms,
                    chosen.plan.name()
                );
                assert!(chosen.feasible);
                assert_eq!(d.alternatives.len(), PhysicalPlan::ALL.len());
                // Alternatives are sorted cheapest-first.
                for w in d.alternatives.windows(2) {
                    assert!(w[0].cost <= w[1].cost);
                }
            }
        }
    }

    #[test]
    fn quality_mode_may_choose_the_unsafe_fragment_a_path() {
        let (_, frag) = fixture(true);
        let planner = Planner::new(
            CostModel::default(),
            PlannerConfig {
                require_exact: false,
            },
        );
        // An all-A rare-term query: A-only via the index is the cheapest
        // plan by far, and with exactness waived it may win.
        let terms = frag.index().terms_by_df_asc();
        let q = vec![terms[0], terms[1]];
        let d = planner
            .plan(
                &q,
                10,
                &frag,
                RankingModel::default(),
                SwitchPolicy::default(),
            )
            .unwrap();
        assert!(matches!(
            d.chosen,
            PhysicalPlan::Fragmented(Strategy::AOnly { .. })
                | PhysicalPlan::Fragmented(Strategy::Switch { .. })
                | PhysicalPlan::PrunedDaat
        ));
        // The unsafe plans must at least be priced.
        assert!(d
            .alternatives
            .iter()
            .any(|a| !a.exact && a.cost.is_finite()));
    }

    #[test]
    fn unindexed_fragments_make_indexed_plans_infeasible() {
        let (c, frag) = fixture(false);
        let planner = Planner::default();
        let queries = generate_queries(&c, &QueryConfig::default()).unwrap();
        let d = planner
            .plan(
                &queries[0].terms,
                10,
                &frag,
                RankingModel::default(),
                SwitchPolicy::default(),
            )
            .unwrap();
        for alt in &d.alternatives {
            if alt.plan == PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: true }) {
                assert!(!alt.feasible);
            }
        }
    }

    #[test]
    fn n_beyond_collection_disables_the_pruning_discount() {
        let (c, frag) = fixture(true);
        let planner = Planner::default();
        let terms = frag.index().terms_by_df_asc();
        let q = vec![terms[terms.len() - 1], terms[terms.len() - 2]];
        let small = planner
            .plan(
                &q,
                5,
                &frag,
                RankingModel::default(),
                SwitchPolicy::default(),
            )
            .unwrap();
        let all = planner
            .plan(
                &q,
                c.num_docs(),
                &frag,
                RankingModel::default(),
                SwitchPolicy::default(),
            )
            .unwrap();
        let est = |d: &PlanDecision| {
            d.alternatives
                .iter()
                .find(|a| a.plan == PhysicalPlan::PrunedDaat)
                .unwrap()
                .est_postings
        };
        assert!(est(&small) < est(&all));
        assert_eq!(est(&all), all.profile.volume);
    }

    #[test]
    fn calibration_moves_the_prune_weight_toward_measurements() {
        let (c, frag) = fixture(true);
        let mut planner = Planner::default();
        let mut engines = EngineSet::new(
            Arc::clone(&frag),
            RankingModel::default(),
            SwitchPolicy::default(),
        );
        let queries = generate_queries(&c, &QueryConfig::default()).unwrap();
        let before = planner.model.weights.daat_prune;
        for q in queries.iter().take(20) {
            let d = planner
                .plan(
                    &q.terms,
                    10,
                    &frag,
                    RankingModel::default(),
                    SwitchPolicy::default(),
                )
                .unwrap();
            let rep = engines
                .execute(PhysicalPlan::PrunedDaat, &q.terms, 10)
                .unwrap();
            planner.observe(PhysicalPlan::PrunedDaat, &d.profile, &rep);
        }
        assert!(planner.observations() > 0);
        let after = planner.model.weights.daat_prune;
        assert!(after > 0.0 && after <= 1.0);
        // With 20 observations the learned median has replaced the
        // default prior (equality would be a one-in-a-million fluke).
        assert_ne!(before, after);
    }

    #[test]
    fn memo_answers_repeat_query_classes_without_rewalking() {
        let (c, frag) = fixture(true);
        let mut planner = Planner::default();
        let queries = generate_queries(&c, &QueryConfig::default()).unwrap();
        let q = &queries[0];
        let fresh = planner
            .plan(
                &q.terms,
                10,
                &frag,
                RankingModel::default(),
                SwitchPolicy::default(),
            )
            .unwrap();
        let (first, hit1) = planner
            .plan_memoized(
                &q.terms,
                10,
                &frag,
                RankingModel::default(),
                SwitchPolicy::default(),
            )
            .unwrap();
        assert!(!hit1, "first sighting of a signature is a miss");
        assert_eq!(first.chosen, fresh.chosen);
        assert_eq!(first.alternatives.len(), PhysicalPlan::ALL.len());
        let (second, hit2) = planner
            .plan_memoized(
                &q.terms,
                10,
                &frag,
                RankingModel::default(),
                SwitchPolicy::default(),
            )
            .unwrap();
        assert!(hit2);
        assert_eq!(second.chosen, fresh.chosen, "memo never changes the winner");
        assert_eq!(second.alternatives.len(), 1, "alternatives not re-walked");
        assert!(second.alternatives[0].reason.contains("memo: HIT"));
        assert_eq!(second.chosen_alternative().plan, second.chosen);
        // The profile is still read fresh on a hit (observe() needs it).
        assert_eq!(second.profile.volume, fresh.profile.volume);
        let stats = planner.memo_stats();
        assert_eq!((stats.hits, stats.misses), (1, 1));
        assert!(stats.entries >= 1);
    }

    #[test]
    fn calibration_drift_flash_invalidates_the_memo() {
        let (c, frag) = fixture(true);
        let mut planner = Planner::default();
        let queries = generate_queries(&c, &QueryConfig::default()).unwrap();
        let q = &queries[0];
        let (d, _) = planner
            .plan_memoized(
                &q.terms,
                10,
                &frag,
                RankingModel::default(),
                SwitchPolicy::default(),
            )
            .unwrap();
        assert!(planner.memo_stats().entries > 0);
        // Feed observations claiming the pruned kernel scanned the whole
        // volume: the learned median is driven to 1.0, far beyond the
        // drift tolerance from any default weight.
        let report = ExecReport {
            postings_scanned: d.profile.volume as usize,
            ..ExecReport::default()
        };
        for _ in 0..64 {
            planner.observe(PhysicalPlan::PrunedDaat, &d.profile, &report);
        }
        let stats = planner.memo_stats();
        assert!(stats.invalidations >= 1, "drift must clear the memo");
        assert_eq!(stats.entries, 0);
        let (_, hit) = planner
            .plan_memoized(
                &q.terms,
                10,
                &frag,
                RankingModel::default(),
                SwitchPolicy::default(),
            )
            .unwrap();
        assert!(!hit, "post-invalidation lookups miss and re-price");
    }

    #[test]
    fn render_marks_the_chosen_operator() {
        let (c, frag) = fixture(true);
        let planner = Planner::default();
        let queries = generate_queries(&c, &QueryConfig::default()).unwrap();
        let d = planner
            .plan(
                &queries[0].terms,
                10,
                &frag,
                RankingModel::default(),
                SwitchPolicy::default(),
            )
            .unwrap();
        let text = d.render();
        assert!(text.contains("->"));
        assert!(text.contains(d.chosen.name()));
        for plan in PhysicalPlan::ALL {
            assert!(text.contains(plan.name()), "missing {}", plan.name());
        }
    }
}
