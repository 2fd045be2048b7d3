//! Work ledger: the exact work counters and answers of every engine path
//! on one seeded workload, pinned in the committed `work_ledger.golden`.
//!
//! Each line is one (query class, ranking model, N, path) cell: the
//! summed `postings_scanned`, `docs_skipped`, `seeks`, `bound_exits` and
//! `candidates` of its 16 queries, how many of them came back partial,
//! and an FNV-1a digest over `(doc, score bits)` of every answer. The
//! paths are `EngineSet::execute` for six physical plans, the pruned
//! kernel started from the exact N-th score (`pruned_daat_oracle`: a gate
//! first offered the exhaustive answer's N-th score), the windowed kernel
//! on every query (`pruned_windowed`: `pruned_daat` answers an all-short
//! query with the exact merge, so only this line sees the windows of
//! such queries), and the in-thread sharded schedule
//! (`ShardedEngine::execute_batch_sequential`, 2 range shards, planned,
//! propagation on), so a change that moves any counter or answer of any
//! of them fails here with the lines that moved. The
//! last lines pin, per N, the pruned kernel's postings against the
//! oracle-started kernel's: the work a better starting threshold could
//! still save.
//! The two `frag_*_indexed` plans read a fragment through its sparse
//! index, built at the serving block size, so their lines pin
//! `SparseIndex` lookups.
//!
//! Pool batches are left out: which shard finishes first, and so how much
//! the others prune, depends on timing. Allocation counts are pinned by
//! `crates/ir/tests/alloc_steady_state.rs`.
//!
//! A change that is meant to move work regenerates the golden file by
//! copying `target/tmp/work_ledger.actual` over it and explains each
//! changed line.

use std::fmt::Write as _;
use std::sync::Arc;

use moa_corpus::{generate_queries, Collection, CollectionConfig, DfBias, Query, QueryConfig};
use moa_ir::{
    BoundGate, DaatSearcher, EngineSet, ExecReport, FragmentSpec, FragmentedIndex, InvertedIndex,
    PhysicalPlan, QueryScratch, RankingModel, SharedThreshold, Strategy, SwitchPolicy,
};
use moa_serve::{BatchQuery, ServeMode, ShardSpec, ShardedEngine};

const GOLDEN: &str = include_str!("work_ledger.golden");

/// The ranking depths: N = 1000 stays below the 2 000-document corpus.
const DEPTHS: [usize; 3] = [1, 10, 1000];

const PLANS: [PhysicalPlan; 6] = [
    PhysicalPlan::PrunedDaat,
    PhysicalPlan::ExhaustiveDaat,
    PhysicalPlan::SetAtATime,
    PhysicalPlan::Fragmented(Strategy::FullScan),
    PhysicalPlan::Fragmented(Strategy::Switch { use_b_index: true }),
    PhysicalPlan::Fragmented(Strategy::AOnly { use_a_index: true }),
];

fn classes() -> [(&'static str, DfBias); 4] {
    [
        ("frequent_only", DfBias::FrequentOnly),
        ("trec_like", DfBias::TrecLike { high_df_mix: 0.5 }),
        ("rare_only", DfBias::RareOnly),
        ("topical", DfBias::Topical { high_df_mix: 0.5 }),
    ]
}

fn models() -> [(&'static str, RankingModel); 3] {
    [
        ("tfidf", RankingModel::TfIdf),
        ("hiemstra", RankingModel::HiemstraLm { lambda: 0.15 }),
        ("bm25", RankingModel::Bm25 { k1: 1.2, b: 0.75 }),
    ]
}

/// One ledger cell: counters summed over the class's queries, partial
/// answers counted, every answer folded into one digest.
struct Cell {
    work: ExecReport,
    partial: usize,
    digest: u64,
}

impl Cell {
    fn new() -> Cell {
        Cell {
            work: ExecReport::default(),
            partial: 0,
            digest: 0xcbf2_9ce4_8422_2325,
        }
    }

    fn fold(&mut self, work: &ExecReport, top: &[(u32, f64)]) {
        self.work.absorb(work);
        self.partial += usize::from(work.partial);
        let mut mix = |v: u64| self.digest = (self.digest ^ v).wrapping_mul(0x0100_0000_01b3);
        mix(top.len() as u64);
        for &(doc, score) in top {
            mix(u64::from(doc));
            mix(score.to_bits());
        }
    }

    /// Append this cell's line under its `(class, model, N, path)` key.
    fn line(&self, out: &mut String, class: &str, model: &str, n: usize, path: &str) {
        let w = &self.work;
        let _ = writeln!(
            out,
            "{class} {model} n={n} {path} postings_scanned={} docs_skipped={} seeks={} \
             bound_exits={} candidates={} partial={} digest={:016x}",
            w.postings_scanned,
            w.docs_skipped,
            w.seeks,
            w.bound_exits,
            w.candidates,
            self.partial,
            self.digest
        );
    }
}

/// The whole ledger, one line per cell, in a fixed order.
fn ledger() -> String {
    let collection = Collection::generate(CollectionConfig::small()).expect("valid preset");
    let index = Arc::new(InvertedIndex::from_collection(&collection));
    let mut frag = FragmentedIndex::build(Arc::clone(&index), FragmentSpec::TermFraction(0.95))
        .expect("non-empty collection");
    // The serving block size, so the `frag_*_indexed` lines pin the
    // sparse index's lookups as the shards issue them.
    frag.set_sparse_block_a(1024).expect("positive block size");
    frag.set_sparse_block_b(1024).expect("positive block size");
    let frag = Arc::new(frag);
    let mut out = String::new();
    // Per depth, postings scanned by `pruned_daat` and `pruned_daat_oracle`.
    let mut regret = [(0usize, 0usize); DEPTHS.len()];
    for (class, bias) in classes() {
        let queries: Vec<Query> = generate_queries(
            &collection,
            &QueryConfig {
                num_queries: 16,
                bias,
                seed: 0x1ED6E7,
                ..QueryConfig::default()
            },
        )
        .expect("valid workload");
        for (model_name, model) in models() {
            let mut engines = EngineSet::new(Arc::clone(&frag), model, SwitchPolicy::default());
            let daat = DaatSearcher::new(&index, model);
            let mut scratch = QueryScratch::new();
            for (d, n) in DEPTHS.into_iter().enumerate() {
                for plan in PLANS {
                    let mut cell = Cell::new();
                    for q in &queries {
                        let report = engines
                            .execute(plan, &q.terms, n)
                            .expect("generated terms are in the vocabulary");
                        cell.fold(&report, &report.top);
                    }
                    if plan == PhysicalPlan::PrunedDaat {
                        regret[d].0 += cell.work.postings_scanned;
                    }
                    cell.line(&mut out, class, model_name, n, plan.name());
                }
                let mut cell = Cell::new();
                for q in &queries {
                    let exact = engines
                        .execute(PhysicalPlan::ExhaustiveDaat, &q.terms, n)
                        .expect("generated terms are in the vocabulary");
                    let threshold = Arc::new(SharedThreshold::new());
                    if let Some(&(_, nth)) = exact.top.get(n - 1) {
                        threshold.offer(nth);
                    }
                    let report = engines
                        .execute_gated(
                            PhysicalPlan::PrunedDaat,
                            &q.terms,
                            n,
                            &BoundGate::shared(threshold),
                        )
                        .expect("generated terms are in the vocabulary");
                    cell.fold(&report, &report.top);
                }
                regret[d].1 += cell.work.postings_scanned;
                cell.line(&mut out, class, model_name, n, "pruned_daat_oracle");
                let mut cell = Cell::new();
                for q in &queries {
                    let report = daat
                        .search_windowed_into(&q.terms, n, &BoundGate::none(), &mut scratch)
                        .expect("generated terms are in the vocabulary");
                    cell.fold(&report, &scratch.out);
                }
                cell.line(&mut out, class, model_name, n, "pruned_windowed");
                // A fresh sharded engine per cell, so planner calibration
                // never carries from one cell into the next.
                let mut sharded = ShardedEngine::build(
                    Arc::clone(&index),
                    ShardSpec::Range { shards: 2 },
                    FragmentSpec::TermFraction(0.95),
                    model,
                    SwitchPolicy::default(),
                    Some(1024),
                )
                .expect("the corpus shards cleanly");
                let batch: Vec<BatchQuery> = queries
                    .iter()
                    .map(|q| BatchQuery {
                        terms: q.terms.clone(),
                        n,
                    })
                    .collect();
                let responses = sharded
                    .execute_batch_sequential(&batch, ServeMode::Planned, true)
                    .expect("generated terms are in the vocabulary");
                let mut cell = Cell::new();
                for r in &responses {
                    cell.fold(&r.work, &r.top);
                }
                cell.line(&mut out, class, model_name, n, "sharded_planned");
            }
        }
    }
    for (n, (pruned, oracle)) in DEPTHS.into_iter().zip(regret) {
        let _ = writeln!(
            out,
            "regret n={n} pruned_daat={pruned} pruned_daat_oracle={oracle} ratio={:.4}",
            pruned as f64 / oracle as f64
        );
    }
    out
}

#[test]
fn work_ledger_matches_the_golden_file() {
    let actual = ledger();
    if actual == GOLDEN {
        return;
    }
    let path = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("work_ledger.actual");
    std::fs::write(&path, &actual).expect("target tmp dir is writable");
    let want: Vec<&str> = GOLDEN.lines().collect();
    let got: Vec<&str> = actual.lines().collect();
    let mut diff = String::new();
    for i in 0..want.len().max(got.len()) {
        let (w, g) = (want.get(i).copied(), got.get(i).copied());
        if w != g {
            let _ = writeln!(
                diff,
                "- {}\n+ {}",
                w.unwrap_or("<none>"),
                g.unwrap_or("<none>")
            );
        }
    }
    panic!(
        "work ledger changed: {} of {} lines differ; the actual ledger is at {}, \
         copy it over tests/work_ledger.golden if the change is intended and \
         explain each changed line\n{diff}",
        diff.lines().count() / 2,
        want.len().max(got.len()),
        path.display()
    );
}
