//! The span vocabulary: the lifecycle phases a query moves through, and
//! a plain (non-atomic) per-query aggregate of time spent in each.
//!
//! [`PhaseAgg`] is deliberately *not* atomic: it lives inside the
//! per-worker execution scratch and is written under `&mut` at stage
//! boundaries — a few `Instant` reads per query, not per posting — then
//! copied out as part of the query's outcome. Cross-thread aggregation
//! happens on the `Copy` snapshot, never on shared state.

use std::fmt;
use std::time::Duration;

/// One stage of the query lifecycle. The serve layer records the
/// front-of-house phases (admission, queue wait, k-way merge, delivery);
/// the execution engine records the per-shard phases (plan, gate pass,
/// decode, score, merge).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
#[repr(u8)]
pub enum Phase {
    /// Admission control: shed/backpressure decision and coalescing.
    #[default]
    Admission = 0,
    /// Time between admission and a worker picking the job up.
    QueueWait = 1,
    /// Planner invocation (costing the alternatives, picking one).
    Plan = 2,
    /// Per-shard setup: cursor opening, bound-table resolution, MaxScore
    /// partition — everything before the first candidate is scored.
    GatePass = 3,
    /// The unpruned merge: in the pruned DAAT kernel, the warm-up merge
    /// that fills the heap before bounds can prune (postings decoded,
    /// scored and pushed — heap offers included); in the exhaustive merge,
    /// the whole evaluation. Not a decode-only clock.
    Decode = 4,
    /// All of the pruned DAAT kernel's phase 2, window by window: the
    /// per-window sync (threshold publication, deadline poll, partition
    /// growth), window gating and the seeks past rejected windows, lane
    /// decode, candidate bound tests, non-essential probes, exact scoring
    /// and heap offers, until the lists exhaust or the deadline fires. It
    /// does **not** time scoring alone: a large share here says the
    /// pruned scan is the cost, not that computing weights is.
    Score = 5,
    /// Per-shard result extraction: draining the top-N heap in order.
    Merge = 6,
    /// Cross-shard k-way merge of per-shard columns.
    KWayMerge = 7,
    /// Response assembly and delivery back to the caller.
    Deliver = 8,
}

/// Number of phases (the length of [`Phase::ALL`]).
pub const NUM_PHASES: usize = 9;

impl Phase {
    /// Every phase, in lifecycle order.
    pub const ALL: [Phase; NUM_PHASES] = [
        Phase::Admission,
        Phase::QueueWait,
        Phase::Plan,
        Phase::GatePass,
        Phase::Decode,
        Phase::Score,
        Phase::Merge,
        Phase::KWayMerge,
        Phase::Deliver,
    ];

    /// Stable snake_case name (used in exposition and EXPLAIN ANALYZE).
    pub fn name(self) -> &'static str {
        match self {
            Phase::Admission => "admission",
            Phase::QueueWait => "queue_wait",
            Phase::Plan => "plan",
            Phase::GatePass => "gate_pass",
            Phase::Decode => "decode",
            Phase::Score => "score",
            Phase::Merge => "merge",
            Phase::KWayMerge => "kway_merge",
            Phase::Deliver => "deliver",
        }
    }
}

impl fmt::Display for Phase {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Per-query phase timings in nanoseconds: a plain `Copy` array written
/// under `&mut` at stage boundaries. All additions saturate — a stalled
/// clock or a pathological aggregation must never wrap into a tiny
/// figure.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct PhaseAgg {
    nanos: [u64; NUM_PHASES],
}

impl PhaseAgg {
    /// An empty aggregate.
    pub fn new() -> PhaseAgg {
        PhaseAgg::default()
    }

    /// Clear every phase (start of a new query).
    #[inline]
    pub fn reset(&mut self) {
        self.nanos = [0; NUM_PHASES];
    }

    /// Add `d` to `phase`.
    #[inline]
    pub fn add(&mut self, phase: Phase, d: Duration) {
        self.add_ns(phase, d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Add raw nanoseconds to `phase`.
    #[inline]
    pub fn add_ns(&mut self, phase: Phase, ns: u64) {
        let slot = &mut self.nanos[phase as usize];
        *slot = slot.saturating_add(ns);
    }

    /// Nanoseconds recorded against `phase`.
    #[inline]
    pub fn get(&self, phase: Phase) -> u64 {
        self.nanos[phase as usize]
    }

    /// Sum across phases (saturating).
    pub fn total_ns(&self) -> u64 {
        self.nanos.iter().fold(0u64, |a, &n| a.saturating_add(n))
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.nanos.iter().all(|&n| n == 0)
    }

    /// Fold another aggregate into this one (saturating per phase).
    pub fn merge(&mut self, other: &PhaseAgg) {
        for (p, o) in self.nanos.iter_mut().zip(&other.nanos) {
            *p = p.saturating_add(*o);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn phase_names_are_unique_and_ordered() {
        let mut seen = Vec::new();
        for (i, p) in Phase::ALL.iter().enumerate() {
            assert_eq!(*p as usize, i);
            assert!(!seen.contains(&p.name()));
            seen.push(p.name());
        }
    }

    #[test]
    fn agg_accumulates_and_saturates() {
        let mut a = PhaseAgg::new();
        assert!(a.is_empty());
        a.add(Phase::Score, Duration::from_nanos(10));
        a.add_ns(Phase::Score, 5);
        a.add_ns(Phase::Merge, u64::MAX);
        a.add_ns(Phase::Merge, 1);
        assert_eq!(a.get(Phase::Score), 15);
        assert_eq!(a.get(Phase::Merge), u64::MAX);
        assert_eq!(a.total_ns(), u64::MAX);
        let mut b = PhaseAgg::new();
        b.add_ns(Phase::Plan, 7);
        b.merge(&a);
        assert_eq!(b.get(Phase::Plan), 7);
        assert_eq!(b.get(Phase::Score), 15);
        a.reset();
        assert!(a.is_empty());
    }
}
