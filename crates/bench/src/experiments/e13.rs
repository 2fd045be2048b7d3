//! E13 — set-based vs element-at-a-time evaluation (§3 Step 1's premise).
//!
//! *"Since databases preferably operate set-based in contrast with the
//! element-at-a-time operation of most IR systems, IR technology and
//! optimization techniques are not directly applicable in a content based
//! retrieval DBMS."* — this experiment measures the architectural gap the
//! sentence describes, and shows that df-fragmentation is what lets the
//! set-based engine approach element-at-a-time work while staying
//! optimizable as a set algebra.
//!
//! All four configurations produce identical rankings; only the work
//! differs. The element-at-a-time side is the exhaustive DAAT path, the
//! document-ordered merge: it weighs every posting of the query's runs
//! and offers the heap one document at a time, so its postings scanned
//! equal the query terms' posting volume however the runs are decoded.

use moa_ir::{DaatSearcher, ExecReport, FragmentSpec, Strategy, SwitchPolicy};

use crate::experiments::fixture::{RetrievalFixture, METRIC_DEPTH};
use crate::harness::{fmt_duration, Scale, Table};

/// Run E13.
pub fn run(scale: Scale) -> Table {
    let f = RetrievalFixture::build(scale);
    let frag = f.fragment(FragmentSpec::TermFraction(0.95));
    let policy = SwitchPolicy::default();

    // Element-at-a-time: the exhaustive merge walks each query's weighed
    // postings in document order, one document at a time; its work
    // totals are the same `ExecReport` counters every other path reports.
    // (The bounds-pruned DAAT kernel is measured separately by
    // `moabench`'s `operator.*` layer; here the unpruned document-ordered
    // merge is the architectural reference whose work equals the query
    // terms' posting volume.)
    let daat = DaatSearcher::new(&f.index, f.model);
    let t0 = std::time::Instant::now();
    let mut daat_total = ExecReport::default();
    let mut daat_rankings = Vec::new();
    for q in &f.queries {
        let rep = daat
            .search_exhaustive(&q.terms, METRIC_DEPTH)
            .expect("valid query");
        daat_rankings.push((q.id, rep.top.iter().map(|&(d, _)| d).collect::<Vec<u32>>()));
        daat_total.absorb(&rep);
    }
    let daat_scanned = daat_total.postings_scanned;
    let daat_elapsed = t0.elapsed();

    // Set-based configurations.
    let full = f.run_strategy(&frag, Strategy::FullScan, policy);
    let switch = f.run_strategy(&frag, Strategy::Switch { use_b_index: false }, policy);
    let mut frag_indexed = moa_ir::FragmentedIndex::build(
        std::sync::Arc::clone(&f.index),
        FragmentSpec::TermFraction(0.95),
    )
    .expect("non-empty");
    frag_indexed
        .set_sparse_block_b(1024)
        .expect("positive block size");
    let frag_indexed = std::sync::Arc::new(frag_indexed);
    let switch_idx = f.run_strategy(
        &frag_indexed,
        Strategy::Switch { use_b_index: true },
        policy,
    );

    let mut t = Table::new(
        "E13: element-at-a-time (IR engine) vs set-based (BAT) evaluation",
        &["architecture", "postings scanned", "batch time", "MAP"],
    );
    let daat_outcome = crate::experiments::fixture::StrategyOutcome {
        rankings: daat_rankings,
        postings_scanned: daat_scanned,
        elapsed: daat_elapsed,
        used_b: 0,
    };
    t.row(vec![
        "element-at-a-time (document-ordered merge)".into(),
        daat_scanned.to_string(),
        fmt_duration(daat_elapsed),
        format!("{:.4}", f.map(&daat_outcome)),
    ]);
    t.row(vec![
        "set-based, unfragmented".into(),
        full.postings_scanned.to_string(),
        fmt_duration(full.elapsed),
        format!("{:.4}", f.map(&full)),
    ]);
    t.row(vec![
        "set-based, fragmented + switch".into(),
        switch.postings_scanned.to_string(),
        fmt_duration(switch.elapsed),
        format!("{:.4}", f.map(&switch)),
    ]);
    t.row(vec![
        "set-based, fragmented + switch + B index".into(),
        switch_idx.postings_scanned.to_string(),
        fmt_duration(switch_idx.elapsed),
        format!("{:.4}", f.map(&switch_idx)),
    ]);

    let gap = full.postings_scanned as f64 / daat_scanned.max(1) as f64;
    let closed = full.postings_scanned as f64 / switch_idx.postings_scanned.max(1) as f64;
    t.note(format!(
        "the architectural gap: unfragmented set-based scans {gap:.0}x the element-at-a-time work"
    ));
    t.note(format!(
        "fragmentation + non-dense index closes it to {:.1}x of element-at-a-time while staying set-based and algebra-optimizable ({closed:.1}x better than unfragmented)",
        switch_idx.postings_scanned as f64 / daat_scanned.max(1) as f64
    ));
    t.note("rankings are identical across all four configurations (same model, same scores)");
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e13_architectures_agree_on_quality() {
        let t = run(Scale::Quick);
        let maps: Vec<f64> = t.rows.iter().map(|r| r[3].parse().unwrap()).collect();
        // Element-at-a-time, unfragmented set-based, and the safe switch
        // configurations rank (essentially) identically.
        assert!((maps[0] - maps[1]).abs() < 1e-9, "DAAT vs full: {maps:?}");
        assert!(
            (maps[2] - maps[3]).abs() < 1e-9,
            "switch vs indexed: {maps:?}"
        );
    }

    #[test]
    fn e13_fragmentation_closes_the_gap() {
        let t = run(Scale::Quick);
        let daat: f64 = t.rows[0][1].parse().unwrap();
        let full: f64 = t.rows[1][1].parse().unwrap();
        let switch_idx: f64 = t.rows[3][1].parse().unwrap();
        assert!(daat < full, "DAAT {daat} not below full scan {full}");
        assert!(
            switch_idx < full,
            "fragmentation did not reduce set-based work"
        );
    }
}
