//! Cross-engine score-threshold propagation.
//!
//! When several evaluators chase the *same* logical top-N — one engine per
//! document-partition shard in `moa_serve` — every heap insertion anywhere
//! raises a lower bound on the final global N-th score: a shard whose heap
//! holds N entries of score ≥ t has proven that N documents of final score
//! ≥ t exist, so the global N-th best is ≥ t. [`SharedThreshold`] carries
//! the tightest such bound as a single monotonically increasing
//! `AtomicU64`, and [`BoundGate`] is the (optional) hook the pruning gates
//! of the DAAT kernel and the fragmented evaluator consult: a document
//! whose score *upper bound* is **strictly below** the propagated
//! threshold cannot enter the global top-N and is skipped mid-flight, even
//! when the local heap would still have admitted it.
//!
//! Soundness: the threshold only ever *under*-estimates the final global
//! N-th score, and gating prunes strictly-below documents only, so every
//! document of the true global top-N survives in its shard's local heap
//! (ties at the threshold are never pruned — the tie-break by document id
//! is left to the final k-way merge). Publication and reads use `Relaxed`
//! ordering: the bound is monotone under `fetch_max`, and no other memory
//! is synchronized through it. NaN scores are rejected at the
//! [`SharedThreshold::offer`] boundary: the order-preserving encoding
//! ranks a positive-sign NaN *above* `+∞`, so one NaN reaching the
//! `fetch_max` would freeze the threshold at an unsound maximum and prune
//! every document on every shard.
//!
//! Effectiveness is a matter of *schedule* and of *seeds*, not of the
//! protocol: a threshold only prunes a shard that starts (or syncs) after
//! a peer has published a good N-th score. A shard whose query has both
//! short and long runs publishes one before it scans: the pruned DAAT
//! kernel's seed, a lower bound on the N-th score read from the short
//! runs (see [`crate::daat`]). Shards that start an unseeded query at
//! the same moment each read −∞ and prune on nothing but their own heaps
//! until a peer's publication lands. Sequential execution (shard 0, then
//! shard 1) hands every later shard a finished threshold; the
//! `moa_serve` worker pool gets the same effect under concurrency by
//! staggering each worker's batch column, so every query has one leader
//! shard that runs first and followers that meet it later. Soundness
//! holds under any interleaving either way.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use moa_topn::TopNHeap;

use crate::deadline::DeadlineGate;

/// Map an `f64` onto a `u64` whose unsigned order matches the float's
/// total order (negatives flipped, positives offset past them) — the
/// standard trick that lets one `fetch_max` maintain a float maximum.
#[inline]
fn encode(score: f64) -> u64 {
    let bits = score.to_bits();
    if bits & (1 << 63) != 0 {
        !bits
    } else {
        bits | (1 << 63)
    }
}

/// Inverse of [`encode`].
#[inline]
fn decode(key: u64) -> f64 {
    f64::from_bits(if key & (1 << 63) != 0 {
        key & !(1 << 63)
    } else {
        !key
    })
}

/// A monotonically increasing score bound shared across evaluators
/// (typically one per query, shared by all shards evaluating it).
#[derive(Debug)]
pub struct SharedThreshold(AtomicU64);

impl SharedThreshold {
    /// A fresh threshold, admitting everything (−∞).
    pub fn new() -> SharedThreshold {
        SharedThreshold(AtomicU64::new(encode(f64::NEG_INFINITY)))
    }

    /// Raise the bound to `score` if it is higher than the current bound
    /// (never lowers it).
    ///
    /// **NaN guard.** A NaN is silently ignored. The order-preserving
    /// encoding maps a positive-sign NaN *above* `+∞` (its exponent and
    /// mantissa bits are all-ones-plus), so a raw `fetch_max` on
    /// `encode(NaN)` would poison the threshold into pruning every
    /// document on every shard — an unsound bound smuggled in through one
    /// bad score. No ranking model in this workspace produces NaN, but the
    /// gate is the serving layer's last line of defense, so the guard is
    /// enforced here rather than assumed upstream. Ignoring is the sound
    /// direction: the threshold only ever under-estimates the global N-th
    /// score, and skipping an offer merely leaves it looser.
    #[inline]
    pub fn offer(&self, score: f64) {
        if score.is_nan() {
            return;
        }
        self.0.fetch_max(encode(score), Ordering::Relaxed);
    }

    /// The current bound (−∞ until the first [`SharedThreshold::offer`]).
    #[inline]
    pub fn get(&self) -> f64 {
        decode(self.0.load(Ordering::Relaxed))
    }
}

impl Default for SharedThreshold {
    fn default() -> Self {
        SharedThreshold::new()
    }
}

/// The pruning-gate hook: either inert (single-engine execution, the
/// default) or backed by a [`SharedThreshold`] that other shards are
/// raising concurrently. Optionally carries a per-query [`DeadlineGate`]
/// the evaluation loops poll at their block boundaries (graceful
/// degradation under overload — see [`crate::deadline`]).
#[derive(Debug, Clone, Default)]
pub struct BoundGate {
    shared: Option<Arc<SharedThreshold>>,
    deadline: Option<Arc<DeadlineGate>>,
}

impl BoundGate {
    /// The inert gate: admits every bound, publishes nothing.
    pub fn none() -> BoundGate {
        BoundGate {
            shared: None,
            deadline: None,
        }
    }

    /// A gate propagating through `threshold`.
    pub fn shared(threshold: Arc<SharedThreshold>) -> BoundGate {
        BoundGate {
            shared: Some(threshold),
            deadline: None,
        }
    }

    /// Attach a per-query deadline: evaluation loops polling this gate
    /// truncate (honestly, with exact partial results) once the budget is
    /// spent. The same `Arc` is shared by every shard serving the query,
    /// so expiry observed anywhere stops the work everywhere.
    pub fn with_deadline(mut self, deadline: Arc<DeadlineGate>) -> BoundGate {
        self.deadline = Some(deadline);
        self
    }

    /// The attached deadline, if any.
    pub fn deadline(&self) -> Option<&Arc<DeadlineGate>> {
        self.deadline.as_ref()
    }

    /// Poll the per-query deadline (always `false` without one). Called
    /// at evaluation-loop boundaries; never changes pruning decisions —
    /// a query that completes without observing expiry is bit-identical
    /// to one executed with no deadline at all.
    #[inline]
    pub fn expired(&self) -> bool {
        match &self.deadline {
            None => false,
            Some(d) => d.poll(),
        }
    }

    /// Whether this gate is backed by a shared threshold.
    pub fn is_active(&self) -> bool {
        self.shared.is_some()
    }

    /// Whether the gate currently carries a finite threshold — i.e. some
    /// engine has already published a full heap's N-th score or a seed (a
    /// proven lower bound on it, offered before that engine scanned).
    /// Until then, bound computations against the gate cannot prune
    /// anything, so evaluators may stay on their cheap warm-up paths.
    #[inline]
    pub fn has_signal(&self) -> bool {
        match &self.shared {
            None => false,
            Some(t) => t.get() > f64::NEG_INFINITY,
        }
    }

    /// Whether a document with score upper bound `bound` could still reach
    /// the *global* top-N. Ties at the threshold are admitted (the bound
    /// is a lower bound on the global N-th score, and equal scores may
    /// still win the id tie-break).
    #[inline]
    pub fn admits(&self, bound: f64) -> bool {
        match &self.shared {
            None => true,
            Some(t) => bound >= t.get(),
        }
    }

    /// Publish `heap`'s current N-th score (if the heap is full): the
    /// caller has proven N documents of at least that score exist.
    #[inline]
    pub fn publish(&self, heap: &TopNHeap) {
        if let Some(t) = &self.shared {
            if let Some(score) = heap.threshold() {
                t.offer(score);
            }
        }
    }

    /// Publish a known N-th score directly (for paths that already hold a
    /// complete top-N rather than a live heap). The same proof obligation
    /// as [`BoundGate::publish`] applies: the caller must have N exact
    /// scores at or above `score`.
    #[inline]
    pub fn publish_score(&self, score: f64) {
        if let Some(t) = &self.shared {
            t.offer(score);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_preserves_float_order() {
        let values = [
            f64::NEG_INFINITY,
            -1.0e300,
            -2.5,
            -0.0,
            0.0,
            1.0e-300,
            2.5,
            1.0e300,
            f64::INFINITY,
        ];
        for w in values.windows(2) {
            assert!(encode(w[0]) <= encode(w[1]), "{} vs {}", w[0], w[1]);
            assert_eq!(decode(encode(w[0])), w[0]);
        }
        // −0.0 and +0.0 round-trip to themselves and order consistently.
        assert!(encode(-0.0) < encode(0.0));
    }

    #[test]
    fn threshold_is_monotone_max() {
        let t = SharedThreshold::new();
        assert_eq!(t.get(), f64::NEG_INFINITY);
        t.offer(1.5);
        assert_eq!(t.get(), 1.5);
        t.offer(0.5); // lower: ignored
        assert_eq!(t.get(), 1.5);
        t.offer(-3.0);
        assert_eq!(t.get(), 1.5);
        t.offer(2.0);
        assert_eq!(t.get(), 2.0);
    }

    #[test]
    fn nan_offers_are_ignored() {
        let t = SharedThreshold::new();
        t.offer(f64::NAN);
        assert_eq!(
            t.get(),
            f64::NEG_INFINITY,
            "a NaN must not move the threshold"
        );
        t.offer(1.25);
        t.offer(f64::NAN);
        assert_eq!(t.get(), 1.25, "a NaN must not poison an existing bound");
        // And the gate built on it keeps admitting correctly.
        let t = Arc::new(SharedThreshold::new());
        let g = BoundGate::shared(Arc::clone(&t));
        t.offer(f64::NAN);
        assert!(g.admits(-1.0e300), "NaN offer must leave the gate open");
        assert!(!g.has_signal());
    }

    #[test]
    fn subnormals_and_signed_zero_order_and_round_trip() {
        let subnormal = f64::from_bits(1); // smallest positive subnormal
        let neg_subnormal = f64::from_bits(1 | (1 << 63));
        let values = [
            -f64::MIN_POSITIVE,
            neg_subnormal,
            -0.0,
            0.0,
            subnormal,
            f64::MIN_POSITIVE,
        ];
        for w in values.windows(2) {
            assert!(encode(w[0]) < encode(w[1]), "{:e} vs {:e}", w[0], w[1]);
        }
        for v in values {
            assert_eq!(
                decode(encode(v)).to_bits(),
                v.to_bits(),
                "{v:e} must round-trip bit-exactly"
            );
        }
        // Monotone max across the subnormal range through the public API.
        let t = SharedThreshold::new();
        t.offer(neg_subnormal);
        assert_eq!(t.get().to_bits(), neg_subnormal.to_bits());
        t.offer(-0.0);
        assert_eq!(t.get().to_bits(), (-0.0f64).to_bits());
        t.offer(0.0);
        assert_eq!(t.get().to_bits(), 0.0f64.to_bits());
        t.offer(subnormal);
        assert_eq!(t.get().to_bits(), subnormal.to_bits());
        t.offer(neg_subnormal); // lower: ignored
        assert_eq!(t.get().to_bits(), subnormal.to_bits());
    }

    #[test]
    fn inert_gate_admits_everything() {
        let g = BoundGate::none();
        assert!(!g.is_active());
        assert!(g.admits(f64::NEG_INFINITY));
        assert!(g.admits(-1.0e300));
    }

    #[test]
    fn active_gate_prunes_strictly_below_and_keeps_ties() {
        let t = Arc::new(SharedThreshold::new());
        let g = BoundGate::shared(Arc::clone(&t));
        assert!(g.is_active());
        assert!(g.admits(-1.0), "everything admitted before any offer");
        t.offer(0.7);
        assert!(!g.admits(0.5));
        assert!(g.admits(0.7), "tie at the threshold must survive");
        assert!(g.admits(0.9));
    }

    #[test]
    fn publish_requires_a_full_heap() {
        let t = Arc::new(SharedThreshold::new());
        let g = BoundGate::shared(Arc::clone(&t));
        let mut heap = TopNHeap::new(2);
        heap.push(1, 0.9);
        g.publish(&heap);
        assert_eq!(t.get(), f64::NEG_INFINITY, "partial heap proves nothing");
        heap.push(2, 0.4);
        g.publish(&heap);
        assert_eq!(t.get(), 0.4);
        heap.push(3, 0.6);
        g.publish(&heap);
        assert_eq!(t.get(), 0.6);
    }

    #[test]
    fn gates_share_one_threshold() {
        let t = Arc::new(SharedThreshold::new());
        let a = BoundGate::shared(Arc::clone(&t));
        let b = a.clone();
        t.offer(1.0);
        assert!(!a.admits(0.9));
        assert!(!b.admits(0.9));
    }
}
