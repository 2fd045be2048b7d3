//! E3 — the non-dense index on the large fragment (§3 Step 1).
//!
//! Claim under test: *"… plan to introduce a non-dense index in the system
//! to speed up processing the large fragment. This even will allow for
//! extra computations while still decreasing execution time."*
//!
//! The switch strategy is run twice: fragment B accessed by full scan (the
//! set-at-a-time selection baseline) and through a sparse block index on
//! its sorted term column. Result quality must be identical; scanned
//! volume and time must drop.

use moa_ir::{FragmentSpec, Strategy, SwitchPolicy};

use crate::experiments::fixture::RetrievalFixture;
use crate::harness::{fmt_duration, Scale, Table};

/// Run E3.
pub fn run(scale: Scale) -> Table {
    let f = RetrievalFixture::build(scale);
    let spec = FragmentSpec::TermFraction(0.95);
    let policy = SwitchPolicy::default();

    // Without the index.
    let frag_plain = f.fragment(spec);
    let plain = f.run_strategy(&frag_plain, Strategy::Switch { use_b_index: false }, policy);

    // With the non-dense index on B.
    let mut frag_indexed = moa_ir::FragmentedIndex::build(std::sync::Arc::clone(&f.index), spec)
        .expect("non-empty index");
    frag_indexed
        .fragment_b_mut()
        .build_sparse_index(1024)
        .expect("sorted term column");
    let frag_indexed = std::sync::Arc::new(frag_indexed);
    let indexed = f.run_strategy(
        &frag_indexed,
        Strategy::Switch { use_b_index: true },
        policy,
    );

    let map_plain = f.map(&plain);
    let map_indexed = f.map(&indexed);

    let mut t = Table::new(
        "E3: non-dense index accelerates fragment-B access in the switch strategy",
        &[
            "B access",
            "postings scanned",
            "batch time",
            "MAP",
            "queries using B",
        ],
    );
    t.row(vec![
        "scan (no index)".into(),
        plain.postings_scanned.to_string(),
        fmt_duration(plain.elapsed),
        format!("{map_plain:.4}"),
        format!("{}/{}", plain.used_b, f.queries.len()),
    ]);
    t.row(vec![
        "non-dense index".into(),
        indexed.postings_scanned.to_string(),
        fmt_duration(indexed.elapsed),
        format!("{map_indexed:.4}"),
        format!("{}/{}", indexed.used_b, f.queries.len()),
    ]);

    t.note(format!(
        "claim 'non-dense index … still decreasing execution time': scanned {} -> {} ({:.1}% less) — {}",
        plain.postings_scanned,
        indexed.postings_scanned,
        100.0 * (1.0 - indexed.postings_scanned as f64 / plain.postings_scanned.max(1) as f64),
        if indexed.postings_scanned < plain.postings_scanned { "HOLDS" } else { "DOES NOT HOLD" }
    ));
    t.note(format!(
        "quality unchanged: MAP {map_plain:.4} vs {map_indexed:.4} — {}",
        if (map_plain - map_indexed).abs() < 1e-9 {
            "IDENTICAL"
        } else {
            "DIFFERS"
        }
    ));
    t
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn e3_index_reduces_scanning_without_quality_change() {
        let t = run(Scale::Quick);
        let plain: f64 = t.rows[0][1].parse().unwrap();
        let indexed: f64 = t.rows[1][1].parse().unwrap();
        assert!(indexed <= plain);
        let map_plain: f64 = t.rows[0][3].parse().unwrap();
        let map_indexed: f64 = t.rows[1][3].parse().unwrap();
        assert!((map_plain - map_indexed).abs() < 1e-9);
    }
}
