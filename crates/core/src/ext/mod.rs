//! The extension registry (ADTs / data blades, per the paper).
//!
//! Each structure of the algebra is owned by an [`Extension`] that defines
//! its operator set: type checking and evaluation. Operators count the
//! elements they touch into the [`ExecContext`], so experiments can compare
//! *work* across plans; physical operator variants (e.g. `select_ordered`)
//! are ordinary operators that the intra-object optimizer substitutes when
//! their preconditions are proven.

pub mod bag;
pub mod list;
pub mod mmrank;
pub mod set;
pub mod tuple;

use std::collections::HashMap;
use std::sync::Arc;

use moa_ir::{
    EngineSet, ExecReport, FragmentedIndex, PhysicalPlan, RankingModel, Strategy, SwitchPolicy,
};
use moa_obs::PhaseAgg;
use parking_lot::Mutex;

use crate::cost::IrCostInfo;
use crate::error::{CoreError, Result};
use crate::expr::ExtensionId;
use crate::planner::{PlanDecision, Planner};
use crate::types::MoaType;
use crate::value::Value;

/// How the runtime selects the physical retrieval operator per query.
#[derive(Debug)]
pub enum RetrievalMode {
    /// Always execute one fixed physical plan (the pre-planner behavior).
    Fixed(PhysicalPlan),
    /// Let the cost-driven planner pick per query, calibrating its
    /// weights from the measured execution counters as it goes. Boxed:
    /// the planner carries its plan memo, which dwarfs the fixed-plan
    /// variant.
    Planned(Box<Planner>),
}

/// The outcome of one ranked retrieval through the runtime.
#[derive(Debug, Clone, PartialEq)]
#[must_use]
pub struct RankOutcome {
    /// Top `(doc, score)` pairs, best first.
    pub top: Vec<(u32, f64)>,
    /// Unified work counter (elements inspected).
    pub postings_scanned: usize,
    /// The physical operator that executed the query.
    pub operator: &'static str,
    /// The planner's cost estimate for the chosen operator (`None` in
    /// fixed mode).
    pub est_cost: Option<f64>,
}

/// Shared multimedia-retrieval runtime for the MMRANK extension: the
/// unified engine set plus either a fixed physical plan or the
/// cost-driven planner that picks one per query.
#[derive(Debug)]
pub struct IrRuntime {
    frag: Arc<FragmentedIndex>,
    model: RankingModel,
    policy: SwitchPolicy,
    inner: Mutex<RuntimeInner>,
}

#[derive(Debug)]
struct RuntimeInner {
    engines: EngineSet,
    mode: RetrievalMode,
}

impl IrRuntime {
    /// Create a runtime that always executes one fragmented strategy
    /// (backwards-compatible constructor).
    pub fn new(
        frag: Arc<FragmentedIndex>,
        model: RankingModel,
        policy: SwitchPolicy,
        strategy: Strategy,
    ) -> IrRuntime {
        IrRuntime::fixed(frag, model, policy, PhysicalPlan::Fragmented(strategy))
    }

    /// Create a runtime pinned to one physical plan.
    pub fn fixed(
        frag: Arc<FragmentedIndex>,
        model: RankingModel,
        policy: SwitchPolicy,
        plan: PhysicalPlan,
    ) -> IrRuntime {
        IrRuntime::with_mode(frag, model, policy, RetrievalMode::Fixed(plan))
    }

    /// Create a runtime whose physical operator is chosen per query by
    /// the cost-driven planner.
    pub fn planned(
        frag: Arc<FragmentedIndex>,
        model: RankingModel,
        policy: SwitchPolicy,
        planner: Planner,
    ) -> IrRuntime {
        IrRuntime::with_mode(
            frag,
            model,
            policy,
            RetrievalMode::Planned(Box::new(planner)),
        )
    }

    fn with_mode(
        frag: Arc<FragmentedIndex>,
        model: RankingModel,
        policy: SwitchPolicy,
        mode: RetrievalMode,
    ) -> IrRuntime {
        let engines = EngineSet::new(Arc::clone(&frag), model, policy);
        IrRuntime {
            frag,
            model,
            policy,
            inner: Mutex::new(RuntimeInner { engines, mode }),
        }
    }

    /// The fragmented index.
    pub fn fragments(&self) -> &FragmentedIndex {
        &self.frag
    }

    /// Number of documents in the collection.
    pub fn num_docs(&self) -> usize {
        self.frag.index().num_docs()
    }

    /// The ranking model in use.
    pub fn model(&self) -> RankingModel {
        self.model
    }

    /// The physical plan a fixed-mode runtime executes (`None` when the
    /// planner decides per query).
    pub fn fixed_plan(&self) -> Option<PhysicalPlan> {
        match &self.inner.lock().mode {
            RetrievalMode::Fixed(p) => Some(*p),
            RetrievalMode::Planned(_) => None,
        }
    }

    /// Catalog-level cost information for the algebra estimator: the
    /// fragment volumes plus a postings-per-query prior matched to the
    /// runtime's mode.
    pub fn cost_info(&self) -> IrCostInfo {
        let a = self.frag.volume_a() as f64;
        let b = self.frag.volume_b() as f64;
        let prior = match self.fixed_plan() {
            Some(PhysicalPlan::Fragmented(Strategy::FullScan)) => a + b,
            Some(PhysicalPlan::Fragmented(Strategy::AOnly { .. })) => a,
            // The switch strategy scans A always and B sometimes; cost
            // with the pessimistic full volume halved as a coarse prior.
            Some(PhysicalPlan::Fragmented(Strategy::Switch { .. })) => a + 0.5 * b,
            // Cursor/accumulator paths touch only the query terms' runs;
            // without a query in hand, half the volume is the prior.
            Some(PhysicalPlan::PrunedDaat)
            | Some(PhysicalPlan::ExhaustiveDaat)
            | Some(PhysicalPlan::SetAtATime)
            | None => 0.5 * (a + b),
        };
        IrCostInfo::from_catalog(&self.frag, prior)
    }

    /// Enumerate and price the physical alternatives for one query — the
    /// EXPLAIN hook. In planned mode the session's planner prices; in
    /// fixed mode a default planner prices the same alternatives so the
    /// pinned operator can be compared against them.
    pub fn plan_for(&self, terms: &[u32], n: usize) -> Result<PlanDecision> {
        match &self.inner.lock().mode {
            RetrievalMode::Planned(planner) => {
                planner.plan(terms, n, &self.frag, self.model, self.policy)
            }
            RetrievalMode::Fixed(_) => {
                Planner::default().plan(terms, n, &self.frag, self.model, self.policy)
            }
        }
    }

    /// Execute one specific physical plan for `terms`, returning the
    /// full report, the engine's per-stage clocks, and the wall time —
    /// the EXPLAIN ANALYZE hook. Measurement only: the planner is *not*
    /// calibrated here, so analyzing every alternative side by side does
    /// not skew the learned weights toward plans the planner would never
    /// have chosen. The answer is bit-identical to [`IrRuntime::rank`]
    /// executing the same plan — the stage clocks are reads of
    /// already-running wall time, never a change to the evaluation.
    pub fn execute_plan_analyzed(
        &self,
        plan: PhysicalPlan,
        terms: &[u32],
        n: usize,
    ) -> Result<(ExecReport, PhaseAgg, std::time::Duration)> {
        let mut guard = self.inner.lock();
        let t0 = std::time::Instant::now();
        let report = guard
            .engines
            .execute(plan, terms, n)
            .map_err(CoreError::Ir)?;
        let wall = t0.elapsed();
        let phases = guard.engines.last_phases();
        Ok((report, phases, wall))
    }

    /// Rank the collection for `terms`, returning the top `n` with the
    /// executing operator's name and (in planned mode) its cost estimate.
    /// Planned executions feed their measured counters back into the
    /// planner's weights (calibration).
    pub fn rank(&self, terms: &[u32], n: usize) -> Result<RankOutcome> {
        let mut guard = self.inner.lock();
        let inner = &mut *guard;
        match &mut inner.mode {
            RetrievalMode::Fixed(plan) => {
                let plan = *plan;
                let report = inner
                    .engines
                    .execute(plan, terms, n)
                    .map_err(CoreError::Ir)?;
                Ok(RankOutcome {
                    top: report.top,
                    postings_scanned: report.postings_scanned,
                    operator: plan.name(),
                    est_cost: None,
                })
            }
            RetrievalMode::Planned(planner) => {
                let decision = planner.plan(terms, n, &self.frag, self.model, self.policy)?;
                let plan = decision.chosen;
                let report = inner
                    .engines
                    .execute(plan, terms, n)
                    .map_err(CoreError::Ir)?;
                planner.observe(plan, &decision.profile, &report);
                Ok(RankOutcome {
                    top: report.top,
                    postings_scanned: report.postings_scanned,
                    operator: plan.name(),
                    est_cost: Some(decision.chosen_alternative().cost),
                })
            }
        }
    }
}

/// Mutable evaluation context: work counters, physical notes, and the
/// optional MM runtime.
#[derive(Default)]
pub struct ExecContext {
    /// Elements touched by operators (the abstract work measure).
    pub elements_processed: u64,
    /// Physical decisions taken during evaluation (for EXPLAIN output).
    pub notes: Vec<String>,
    /// The MM retrieval runtime, when attached.
    pub ir: Option<Arc<IrRuntime>>,
}

impl ExecContext {
    /// A context without an IR runtime.
    pub fn new() -> ExecContext {
        ExecContext::default()
    }

    /// A context with an IR runtime attached.
    pub fn with_ir(ir: Arc<IrRuntime>) -> ExecContext {
        ExecContext {
            ir: Some(ir),
            ..ExecContext::default()
        }
    }

    /// Record `n` units of work.
    pub fn work(&mut self, n: u64) {
        self.elements_processed += n;
    }

    /// Record a physical note.
    pub fn note(&mut self, s: impl Into<String>) {
        self.notes.push(s.into());
    }
}

/// An algebra extension: a named structure with its operator set.
pub trait Extension: Send + Sync {
    /// The extension's identity.
    fn id(&self) -> ExtensionId;
    /// The operator names this extension defines (logical and physical).
    fn ops(&self) -> &'static [&'static str];
    /// Infer the result type of `op` applied to `args`.
    fn type_check(&self, op: &str, args: &[MoaType]) -> Result<MoaType>;
    /// Evaluate `op` over concrete argument values.
    fn evaluate(&self, op: &str, args: &[Value], ctx: &mut ExecContext) -> Result<Value>;
}

/// The extension registry: one implementation per [`ExtensionId`].
pub struct Registry {
    exts: HashMap<ExtensionId, Box<dyn Extension>>,
}

impl Registry {
    /// The standard registry with all five shipped extensions.
    pub fn standard() -> Registry {
        let mut exts: HashMap<ExtensionId, Box<dyn Extension>> = HashMap::new();
        exts.insert(ExtensionId::List, Box::new(list::ListExt));
        exts.insert(ExtensionId::Bag, Box::new(bag::BagExt));
        exts.insert(ExtensionId::Set, Box::new(set::SetExt));
        exts.insert(ExtensionId::Tuple, Box::new(tuple::TupleExt));
        exts.insert(ExtensionId::MmRank, Box::new(mmrank::MmRankExt));
        Registry { exts }
    }

    /// Look up an extension.
    pub fn get(&self, id: ExtensionId) -> Result<&dyn Extension> {
        self.exts
            .get(&id)
            .map(|b| b.as_ref())
            .ok_or_else(|| CoreError::Runtime(format!("extension {id:?} not registered")))
    }

    /// All registered extension ids.
    pub fn ids(&self) -> Vec<ExtensionId> {
        let mut v: Vec<ExtensionId> = self.exts.keys().copied().collect();
        v.sort_by_key(|id| format!("{id:?}"));
        v
    }
}

impl Default for Registry {
    fn default() -> Self {
        Registry::standard()
    }
}

// ---- shared argument helpers used by the extension implementations ----

pub(crate) fn expect_arity(
    ext: ExtensionId,
    op: &str,
    args_len: usize,
    expected: usize,
) -> Result<()> {
    if args_len != expected {
        return Err(CoreError::Arity {
            ext,
            op: op.to_owned(),
            expected,
            found: args_len,
        });
    }
    Ok(())
}

pub(crate) fn type_err(msg: impl Into<String>) -> CoreError {
    CoreError::Type(msg.into())
}

pub(crate) fn get_int(v: &Value, what: &str) -> Result<i64> {
    v.as_int()
        .ok_or_else(|| type_err(format!("{what} must be INT, got {v}")))
}

pub(crate) fn get_usize(v: &Value, what: &str) -> Result<usize> {
    let i = get_int(v, what)?;
    usize::try_from(i).map_err(|_| type_err(format!("{what} must be non-negative, got {i}")))
}

/// Binary-search the `[lo, hi]` range inside a slice sorted ascending by
/// `Value::total_cmp`, counting the comparisons into `work`.
pub(crate) fn sorted_range(
    items: &[Value],
    lo: &Value,
    hi: &Value,
    work: &mut u64,
) -> (usize, usize) {
    let mut cmps = 0u64;
    let start = partition_by(items, |v| {
        cmps += 1;
        v.total_cmp(lo) == std::cmp::Ordering::Less
    });
    let end = partition_by(items, |v| {
        cmps += 1;
        v.total_cmp(hi) != std::cmp::Ordering::Greater
    });
    *work += cmps;
    (start, end.max(start))
}

fn partition_by(items: &[Value], mut pred: impl FnMut(&Value) -> bool) -> usize {
    let (mut lo, mut hi) = (0usize, items.len());
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if pred(&items[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_has_all_extensions() {
        let r = Registry::standard();
        for id in [
            ExtensionId::List,
            ExtensionId::Bag,
            ExtensionId::Set,
            ExtensionId::Tuple,
            ExtensionId::MmRank,
        ] {
            let ext = r.get(id).unwrap();
            assert_eq!(ext.id(), id);
            assert!(!ext.ops().is_empty());
        }
        assert_eq!(r.ids().len(), 5);
    }

    #[test]
    fn context_counts_work_and_notes() {
        let mut ctx = ExecContext::new();
        ctx.work(10);
        ctx.work(5);
        ctx.note("x");
        assert_eq!(ctx.elements_processed, 15);
        assert_eq!(ctx.notes, vec!["x".to_string()]);
        assert!(ctx.ir.is_none());
    }

    #[test]
    fn arity_helper() {
        assert!(expect_arity(ExtensionId::List, "select", 3, 3).is_ok());
        let e = expect_arity(ExtensionId::List, "select", 1, 3).unwrap_err();
        assert!(matches!(
            e,
            CoreError::Arity {
                expected: 3,
                found: 1,
                ..
            }
        ));
    }

    #[test]
    fn int_helpers() {
        assert_eq!(get_int(&Value::Int(5), "n").unwrap(), 5);
        assert!(get_int(&Value::Bool(true), "n").is_err());
        assert_eq!(get_usize(&Value::Int(5), "n").unwrap(), 5);
        assert!(get_usize(&Value::Int(-1), "n").is_err());
    }

    #[test]
    fn sorted_range_finds_bounds() {
        let items: Vec<Value> = [1, 3, 3, 5, 9].into_iter().map(Value::Int).collect();
        let mut work = 0u64;
        let (s, e) = sorted_range(&items, &Value::Int(3), &Value::Int(5), &mut work);
        assert_eq!((s, e), (1, 4));
        assert!(work > 0 && work < 16, "work={work}");
        let (s, e) = sorted_range(&items, &Value::Int(6), &Value::Int(8), &mut work);
        assert_eq!(s, e);
    }
}
