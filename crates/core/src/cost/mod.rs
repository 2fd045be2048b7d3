//! The cost model (the paper's Step 3).
//!
//! "Using Moa, we have the means to handle all types of data in one algebra
//! … this allows us to keep the cost model much simpler." Because every
//! operator — including content ranking — executes inside the one algebra,
//! a single per-element work model covers the whole plan; no per-subsystem
//! delegation is needed.
//!
//! The model predicts the same abstract unit the executor counts
//! ([`crate::ext::ExecContext::elements_processed`]), so prediction accuracy
//! is directly measurable (experiment E8). Cardinality estimation uses
//! catalog knowledge for constants (value ranges) and defaults for unknowns.
//! For non-text data without a known distribution, [`learning`] provides the
//! paper's proposed profiling-based alternative.

pub mod learning;

use std::collections::HashMap;

use crate::error::{CoreError, Result};
use crate::expr::{Expr, ExtensionId};
use crate::value::Value;

/// Per-operation weight constants (abstract work units per element).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostWeights {
    /// Cost per element scanned.
    pub scan: f64,
    /// Cost per binary-search comparison.
    pub compare: f64,
    /// Cost per output element materialized.
    pub materialize: f64,
    /// Cost per posting scanned during ranking.
    pub rank_posting: f64,
    /// Expected fraction of the non-rarest posting volume the
    /// MaxScore-pruned DAAT kernel still scans at small N. The physical
    /// planner's calibration pass refits this weight from measured
    /// `ExecReport` counters (see `moa_core::planner::Planner::observe`).
    pub daat_prune: f64,
    /// Per-posting surcharge of the cursor/accumulator paths on the
    /// block-compressed storage: postings there are delta-unpacked on
    /// access, while the fragmented table paths scan flat `(term, doc,
    /// tf)` arrays. Priced as `decode_posting × est_postings` on top of
    /// `rank_posting` for the three decode-paying plans, so the planner's
    /// relative pricing of cursor vs fragmented access reflects the
    /// layout. The cursor walk (`moabench`'s
    /// `blocks.cursor_ns_per_posting`: mini-block lazy tf decode over the
    /// word-parallel kernels) puts the per-posting unpack at ~7 ns
    /// against a ~35 ns full per-posting scoring pipeline — about a
    /// fifth of the cost.
    pub decode_posting: f64,
}

impl Default for CostWeights {
    fn default() -> Self {
        // The executor counts every touched element as one unit; the
        // pruning fraction starts at the middle of the still-scanned
        // band the pruned kernel leaves on the block layout with the
        // quantized mini-block refinement and the df-weighted frequent
        // query slots (4.1x–7.3x reduction at the calibration scale,
        // i.e. a 0.14–0.24 residual fraction; the pruned and exhaustive
        // counters per query mix are pinned in `tests/work_ledger.golden`),
        // pending calibration.
        CostWeights {
            scan: 1.0,
            compare: 1.0,
            materialize: 1.0,
            rank_posting: 1.0,
            daat_prune: 0.2,
            decode_posting: 0.2,
        }
    }
}

/// A cost estimate for a (sub)expression.
#[derive(Debug, Clone, Copy, PartialEq)]
#[must_use]
pub struct Estimate {
    /// Estimated output cardinality.
    pub rows: f64,
    /// Estimated total work (including sub-expressions).
    pub cost: f64,
}

/// Catalog information about the attached IR collection, for costing
/// MMRANK operators and pricing physical retrieval alternatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IrCostInfo {
    /// Number of documents.
    pub num_docs: f64,
    /// Postings volume the configured strategy scans per query (e.g. the
    /// full volume for `FullScan`, fragment A's volume for `AOnly`).
    pub postings_per_query: f64,
    /// Fragment A's table volume (entries).
    pub volume_a: f64,
    /// Fragment B's table volume (entries).
    pub volume_b: f64,
    /// Whether fragment A carries a non-dense index.
    pub a_indexed: bool,
    /// Whether fragment B carries a non-dense index.
    pub b_indexed: bool,
    /// The non-dense indexes' block granularity (per-term lookup slack).
    pub index_block: f64,
}

impl IrCostInfo {
    /// Info with only the collection-level figures (no fragment catalog) —
    /// enough for the algebra-level MMRANK estimates.
    pub fn basic(num_docs: f64, postings_per_query: f64) -> IrCostInfo {
        IrCostInfo {
            num_docs,
            postings_per_query,
            volume_a: 0.0,
            volume_b: postings_per_query,
            a_indexed: false,
            b_indexed: false,
            index_block: 0.0,
        }
    }

    /// Read the fragment catalog's figures, with the caller-supplied
    /// postings-per-query prior — the single construction path shared by
    /// the session's algebra estimator and the physical planner, so the
    /// two can never disagree about the catalog snapshot.
    pub fn from_catalog(frag: &moa_ir::FragmentedIndex, postings_per_query: f64) -> IrCostInfo {
        IrCostInfo {
            num_docs: frag.index().num_docs() as f64,
            postings_per_query,
            volume_a: frag.volume_a() as f64,
            volume_b: frag.volume_b() as f64,
            a_indexed: frag.sparse_block_a().is_some(),
            b_indexed: frag.sparse_block_b().is_some(),
            index_block: frag.sparse_block_a().or(frag.sparse_block_b()).unwrap_or(0) as f64,
        }
    }
}

/// Estimation context: variable cardinalities plus optional IR info.
#[derive(Debug, Clone, Default)]
pub struct CostContext {
    /// Known cardinalities of free variables.
    pub var_rows: HashMap<String, f64>,
    /// IR collection info for MMRANK operators.
    pub ir: Option<IrCostInfo>,
    /// Cardinality assumed for unknown variables.
    pub default_rows: f64,
    /// Selectivity assumed for un-estimable range predicates.
    pub default_selectivity: f64,
}

impl CostContext {
    /// A context with sensible defaults (1000-row unknowns, 1/3 selectivity).
    pub fn new() -> CostContext {
        CostContext {
            var_rows: HashMap::new(),
            ir: None,
            default_rows: 1_000.0,
            default_selectivity: 1.0 / 3.0,
        }
    }
}

/// The plan cost model.
#[derive(Debug, Clone, Copy, Default)]
pub struct CostModel {
    /// Weight constants.
    pub weights: CostWeights,
}

impl CostModel {
    /// Estimate output cardinality and total work of `expr`.
    pub fn estimate(&self, expr: &Expr, ctx: &CostContext) -> Result<Estimate> {
        let w = self.weights;
        match expr {
            Expr::Const(v) => Ok(Estimate {
                rows: v.cardinality() as f64,
                cost: 0.0,
            }),
            Expr::Var(name) => Ok(Estimate {
                rows: ctx.var_rows.get(name).copied().unwrap_or(ctx.default_rows),
                cost: 0.0,
            }),
            Expr::Apply { ext, op, args } => {
                let mut child_cost = 0.0;
                let mut child: Vec<Estimate> = Vec::with_capacity(args.len());
                for a in args {
                    let e = self.estimate(a, ctx)?;
                    child_cost += e.cost;
                    child.push(e);
                }
                let input = child.first().copied().unwrap_or(Estimate {
                    rows: 0.0,
                    cost: 0.0,
                });
                let n = input.rows.max(0.0);
                let (rows, op_cost) = match (ext, op.as_str()) {
                    // --- selections ---
                    (_, "select") => {
                        let sel = range_selectivity(args, ctx);
                        (n * sel, w.scan * n)
                    }
                    (_, "select_ordered") => {
                        let sel = range_selectivity(args, ctx);
                        let out = n * sel;
                        (
                            out,
                            w.compare * 2.0 * n.max(2.0).log2() + w.materialize * out,
                        )
                    }
                    // --- list ops ---
                    (ExtensionId::List, "sort") => (n, w.scan * n * n.max(2.0).log2()),
                    (ExtensionId::List, "topn") => {
                        let k = const_int(args.get(1)).unwrap_or(n);
                        (k.min(n), w.scan * n)
                    }
                    (ExtensionId::List, "firstn") => {
                        let k = const_int(args.get(1)).unwrap_or(n);
                        (k.min(n), w.scan * k.min(n))
                    }
                    (ExtensionId::List, "nth") => (1.0, w.scan),
                    (ExtensionId::List, "length") => (1.0, w.scan),
                    (ExtensionId::List, "sum") => (1.0, w.scan * n),
                    (ExtensionId::List, "reverse") => (n, w.scan * n),
                    (ExtensionId::List, "concat") => {
                        let m = child.get(1).map_or(0.0, |e| e.rows);
                        (n + m, w.scan * (n + m))
                    }
                    (ExtensionId::List, "projecttobag") => (n, w.scan * n),
                    // --- bag ops ---
                    (ExtensionId::Bag, "count") => (1.0, w.scan),
                    (ExtensionId::Bag, "sum") => (1.0, w.scan * n),
                    (ExtensionId::Bag, "contains") => (1.0, w.scan * n),
                    (ExtensionId::Bag, "union") => {
                        let m = child.get(1).map_or(0.0, |e| e.rows);
                        (n + m, w.scan * (n + m))
                    }
                    (ExtensionId::Bag, "projecttoset") => (n * 0.9, w.scan * n),
                    (ExtensionId::Bag, "projecttolist") => (n, w.scan * n),
                    // --- set ops ---
                    (ExtensionId::Set, "member") => (1.0, w.scan * n),
                    (ExtensionId::Set, "member_ordered") => {
                        (1.0, w.compare * 2.0 * n.max(2.0).log2())
                    }
                    (ExtensionId::Set, "card") => (1.0, w.scan),
                    (ExtensionId::Set, "union") => {
                        let m = child.get(1).map_or(0.0, |e| e.rows);
                        (n + m, w.scan * (n + m))
                    }
                    (ExtensionId::Set, "projecttolist") => (n, w.scan * n),
                    // --- tuple ops ---
                    (ExtensionId::Tuple, "get" | "arity") => (1.0, w.scan),
                    (ExtensionId::Tuple, "make") => (args.len() as f64, w.scan * args.len() as f64),
                    // --- mmrank ops ---
                    (ExtensionId::MmRank, "rank") => {
                        let ir = ctx.ir.ok_or(CoreError::NoIrRuntime)?;
                        (
                            ir.num_docs,
                            w.rank_posting * ir.postings_per_query + w.materialize * ir.num_docs,
                        )
                    }
                    (ExtensionId::MmRank, "rank_topn") => {
                        let ir = ctx.ir.ok_or(CoreError::NoIrRuntime)?;
                        let k = const_int(args.get(1)).unwrap_or(ir.num_docs);
                        (
                            k.min(ir.num_docs),
                            w.rank_posting * ir.postings_per_query
                                + w.materialize * k.min(ir.num_docs),
                        )
                    }
                    (ExtensionId::MmRank, "topn") => {
                        let k = const_int(args.get(1)).unwrap_or(n);
                        (k.min(n), w.scan * k.min(n))
                    }
                    (ExtensionId::MmRank, "cutoff") => {
                        let out = n * ctx.default_selectivity;
                        (out, w.compare * n.max(2.0).log2() + w.materialize * out)
                    }
                    (ExtensionId::MmRank, "count") => (1.0, w.scan),
                    (ExtensionId::MmRank, "projecttolist" | "scores") => (n, w.scan * n),
                    (ext, op) => {
                        return Err(CoreError::UnknownOp {
                            ext: *ext,
                            op: op.to_owned(),
                        })
                    }
                };
                Ok(Estimate {
                    rows: rows.max(0.0),
                    cost: child_cost + op_cost,
                })
            }
        }
    }

    /// Pick the cheaper of two plans (used by cost-based rewrite choice);
    /// ties favour the first.
    pub fn cheaper<'e>(&self, a: &'e Expr, b: &'e Expr, ctx: &CostContext) -> Result<&'e Expr> {
        let ca = self.estimate(a, ctx)?.cost;
        let cb = self.estimate(b, ctx)?.cost;
        Ok(if cb < ca { b } else { a })
    }
}

/// Selectivity of a `[lo, hi]` range over the first argument, when both
/// the bounds and the input value range are known.
fn range_selectivity(args: &[Expr], ctx: &CostContext) -> f64 {
    let (Some(lo), Some(hi)) = (
        args.get(1).and_then(const_float),
        args.get(2).and_then(const_float),
    ) else {
        return ctx.default_selectivity;
    };
    let Some(Expr::Const(input)) = args.first() else {
        return ctx.default_selectivity;
    };
    let items = match input {
        Value::List(v) | Value::Bag(v) | Value::Set(v) => v,
        _ => return ctx.default_selectivity,
    };
    let floats: Vec<f64> = items.iter().filter_map(Value::as_float).collect();
    if floats.len() < 2 {
        return ctx.default_selectivity;
    }
    let (mut min, mut max) = (f64::INFINITY, f64::NEG_INFINITY);
    for &f in &floats {
        min = min.min(f);
        max = max.max(f);
    }
    if max <= min {
        return if lo <= min && min <= hi { 1.0 } else { 0.0 };
    }
    let covered = (hi.min(max) - lo.max(min)).max(0.0);
    (covered / (max - min)).clamp(0.0, 1.0)
}

fn const_int(e: Option<&Expr>) -> Option<f64> {
    match e {
        Some(Expr::Const(Value::Int(i))) => Some(*i as f64),
        _ => None,
    }
}

fn const_float(e: &Expr) -> Option<f64> {
    match e {
        Expr::Const(v) => v.as_float(),
        _ => None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::{evaluate, Env};
    use crate::ext::{ExecContext, Registry};

    fn ctx() -> CostContext {
        CostContext::new()
    }

    #[test]
    fn const_and_var_cardinalities() {
        let m = CostModel::default();
        let e = m
            .estimate(&Expr::constant(Value::int_list([1, 2, 3])), &ctx())
            .unwrap();
        assert_eq!(e.rows, 3.0);
        assert_eq!(e.cost, 0.0);

        let mut c = ctx();
        c.var_rows.insert("x".into(), 42.0);
        assert_eq!(m.estimate(&Expr::var("x"), &c).unwrap().rows, 42.0);
        assert_eq!(m.estimate(&Expr::var("y"), &c).unwrap().rows, 1000.0);
    }

    #[test]
    fn select_scan_costs_linear_ordered_costs_log() {
        let m = CostModel::default();
        let big: Vec<Value> = (0..1024).map(Value::Int).collect();
        let base = Expr::constant(Value::List(big));
        let scan = Expr::list_select(base.clone(), Value::Int(0), Value::Int(9));
        let ordered = Expr::Apply {
            ext: ExtensionId::List,
            op: "select_ordered".to_owned(),
            args: vec![base, Expr::Const(Value::Int(0)), Expr::Const(Value::Int(9))],
        };
        let cs = m.estimate(&scan, &ctx()).unwrap();
        let co = m.estimate(&ordered, &ctx()).unwrap();
        assert!(
            co.cost * 10.0 < cs.cost,
            "ordered {} vs scan {}",
            co.cost,
            cs.cost
        );
    }

    #[test]
    fn range_selectivity_uses_value_range() {
        let m = CostModel::default();
        let items: Vec<Value> = (0..100).map(Value::Int).collect();
        let e = Expr::list_select(
            Expr::constant(Value::List(items)),
            Value::Int(0),
            Value::Int(49),
        );
        let est = m.estimate(&e, &ctx()).unwrap();
        assert!((est.rows - 50.0).abs() < 5.0, "rows={}", est.rows);
    }

    #[test]
    fn unknown_range_uses_default_selectivity() {
        let m = CostModel::default();
        let e = Expr::list_select(Expr::var("l"), Value::Int(0), Value::Int(9));
        let est = m.estimate(&e, &ctx()).unwrap();
        assert!((est.rows - 1000.0 / 3.0).abs() < 1.0);
    }

    #[test]
    fn rank_requires_ir_info() {
        let m = CostModel::default();
        let e = Expr::mm_rank(Expr::var("q"));
        assert!(m.estimate(&e, &ctx()).is_err());
        let mut c = ctx();
        c.ir = Some(IrCostInfo::basic(10_000.0, 50_000.0));
        let est = m.estimate(&e, &c).unwrap();
        assert_eq!(est.rows, 10_000.0);
        assert!(est.cost >= 50_000.0);
    }

    #[test]
    fn fused_rank_topn_is_cheaper_than_rank_then_topn() {
        let m = CostModel::default();
        let mut c = ctx();
        c.ir = Some(IrCostInfo::basic(10_000.0, 50_000.0));
        let unfused = Expr::mm_topn(Expr::mm_rank(Expr::var("q")), 10);
        let fused = Expr::Apply {
            ext: ExtensionId::MmRank,
            op: "rank_topn".to_owned(),
            args: vec![Expr::var("q"), Expr::Const(Value::Int(10))],
        };
        let cu = m.estimate(&unfused, &c).unwrap();
        let cf = m.estimate(&fused, &c).unwrap();
        assert!(cf.cost < cu.cost);
        assert_eq!(m.cheaper(&unfused, &fused, &c).unwrap(), &fused);
    }

    #[test]
    fn estimates_track_measured_work_for_scans() {
        // The model predicts the executor's work counter within a small
        // factor for scan-shaped plans (the E8 sanity check in miniature).
        let m = CostModel::default();
        let reg = Registry::standard();
        let items: Vec<Value> = (0..500).map(Value::Int).collect();
        let exprs = vec![
            Expr::list_select(
                Expr::constant(Value::List(items.clone())),
                Value::Int(100),
                Value::Int(200),
            ),
            Expr::projecttobag(Expr::constant(Value::List(items.clone()))),
            Expr::list_sum(Expr::constant(Value::List(items))),
        ];
        for e in exprs {
            let est = m.estimate(&e, &ctx()).unwrap();
            let mut xc = ExecContext::new();
            evaluate(&e, &Env::new(), &reg, &mut xc).unwrap();
            let measured = xc.elements_processed as f64;
            assert!(
                est.cost >= measured * 0.3 && est.cost <= measured * 3.0,
                "estimate {} vs measured {measured} for {e}",
                est.cost
            );
        }
    }

    #[test]
    fn unknown_op_is_error() {
        let m = CostModel::default();
        let e = Expr::apply(ExtensionId::List, "nonexistent", vec![Expr::var("x")]);
        assert!(matches!(
            m.estimate(&e, &ctx()),
            Err(CoreError::UnknownOp { .. })
        ));
    }

    #[test]
    fn constant_value_range_degenerate() {
        let m = CostModel::default();
        let e = Expr::list_select(
            Expr::constant(Value::List(vec![Value::Int(5), Value::Int(5)])),
            Value::Int(5),
            Value::Int(5),
        );
        let est = m.estimate(&e, &ctx()).unwrap();
        assert_eq!(est.rows, 2.0);
    }
}
