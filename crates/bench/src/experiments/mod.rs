//! Experiment implementations E1–E13.
//!
//! | id  | paper anchor                                                | module |
//! |-----|-------------------------------------------------------------|--------|
//! | E1  | §3 Step 1: 5%-fragment speedup ≥60%, quality drop >30%      | [`e1`] |
//! | E2  | §3 Step 1: early check + switch restores quality            | [`e2`] |
//! | E3  | §3 Step 1: non-dense index on the large fragment            | [`e3`] |
//! | E4  | §3 Step 2, Example 1: inter-object rewrite                  | [`e4`] |
//! | E5  | §2: FA/TA/NRA bound administration vs naive                 | [`e5`] |
//! | E6  | §2 \[CK98\]: STOP AFTER policies and braking distance         | [`e6`] |
//! | E7  | §2 \[DR99\]: probabilistic top-N confidence sweep             | [`e7`] |
//! | E8  | §3 Step 3: cost-model accuracy and plan choice              | [`e8`] |
//! | E9  | §1/§3: Zipf premise and fragment geometry                   | [`e9`] |
//! | E10 | §3 Step 1 design space: fragment volume sweep               | [`e10`]|
//! | E11 | ablation: switch-policy threshold sweep                     | [`e11`]|
//! | E12 | ablation: ranking-model sensitivity                         | [`e12`]|
//! | E13 | §3 Step 1: set-based vs element-at-a-time architectures     | [`e13`]|
//!
//! The ids E14–E21 are retired and rejected as unknown. The `moabench`
//! workloads measure what E14–E18, E20 and E21 did:
//!
//! * E14, the pruned DAAT kernel against the exhaustive merge:
//!   `operator.pruned_daat_us_p50` vs `operator.exhaustive_daat_us_p50`
//!   and `operator.postings_scanned_per_query`;
//! * E15, the planner's pick against best-in-hindsight:
//!   `planner.wall_regret` and `planner.pick_share.*`;
//! * E17, the block store: `pack.decode_ns_per_posting`, `blocks.*` and
//!   the gated `index_bytes_per_posting`;
//! * E16, E18, E20 and E21, sharded scaling, sustained-load throughput,
//!   telemetry overhead and result caching: the end-to-end figures.
//!
//! E19's resilience gates (the queue high-water mark within its bound,
//! served + shed = offered, deadline partials without errors, one respawn
//! per crash, answers exact under overload and after a crash storm) are
//! deterministic tests in `crates/serve/tests/pool_faults.rs`.
//!
//! Their correctness checks live in the differential oracle, the
//! `moa-serve` oracle suites and the work ledger (`tests/work_ledger.rs`),
//! which pins every engine path's counters per query mix × model × N.

pub mod e1;
pub mod e10;
pub mod e11;
pub mod e12;
pub mod e13;
pub mod e2;
pub mod e3;
pub mod e4;
pub mod e5;
pub mod e6;
pub mod e7;
pub mod e8;
pub mod e9;
pub mod fixture;

use crate::harness::{Scale, Table};

/// One experiment's entry point.
type Experiment = fn(Scale) -> Table;

/// Every experiment by id, in the order "all" runs them.
const EXPERIMENTS: [(&str, Experiment); 13] = [
    ("e1", e1::run),
    ("e2", e2::run),
    ("e3", e3::run),
    ("e4", e4::run),
    ("e5", e5::run),
    ("e6", e6::run),
    ("e7", e7::run),
    ("e8", e8::run),
    ("e9", e9::run),
    ("e10", e10::run),
    ("e11", e11::run),
    ("e12", e12::run),
    ("e13", e13::run),
];

/// Run one experiment by id ("e1" … "e13"), or all of them with "all".
/// `None` for an unknown id — a usage error, so a mistyped id can never
/// pass for a run.
pub fn run(id: &str, scale: Scale) -> Option<Vec<Table>> {
    if id == "all" {
        return Some(EXPERIMENTS.iter().map(|(_, run)| run(scale)).collect());
    }
    EXPERIMENTS
        .iter()
        .find(|(known, _)| *known == id)
        .map(|(_, run)| vec![run(scale)])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn unknown_ids_are_rejected_without_running_anything() {
        for id in [
            "e99", "e0", "", "E1", "e1 ", "al", "e14", "e15", "e16", "e17", "e18", "e19", "e20",
            "e21",
        ] {
            assert!(run(id, Scale::Quick).is_none(), "{id:?} accepted");
        }
    }
}
