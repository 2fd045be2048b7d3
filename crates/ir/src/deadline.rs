//! Per-query deadline budgets for graceful degradation under overload.
//!
//! A serving deployment cannot let one slow query wedge a shard worker
//! while admitted batches pile up behind it. [`DeadlineGate`] is the
//! cheap, sharable expiry signal the execution paths consult at their
//! loop boundaries — the same hook pattern as
//! [`crate::threshold::SharedThreshold`]: one `Arc` per query, shared by
//! every shard evaluating it, checked inside the hot loops at a cost that
//! vanishes against the work it bounds.
//!
//! **Cost discipline.** `Instant::now()` is a vDSO call but still tens of
//! nanoseconds — too much to pay per candidate document. [`DeadlineGate::
//! poll`] therefore *strides* the clock: only every [`POLL_STRIDE`]-th
//! poll reads the clock; the rest are one relaxed atomic load. Once the
//! deadline is observed past, the expiry latches (an `AtomicBool` that
//! never resets), so every subsequent poll on every shard is a single
//! load.
//!
//! **Soundness.** Expiry never changes *which* documents are admitted,
//! scored, or pruned — it only truncates the evaluation loop early. Every
//! score in the heap at expiry was computed exactly (identical `f64`s to
//! the unbounded run), so a timed-out query returns a *prefix-honest*
//! partial top-N: real documents with their real scores, plus work
//! counters describing exactly what was inspected. A query that completes
//! without observing expiry is bit-identical to one executed with no
//! deadline at all: the poll is read-only.

use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::time::{Duration, Instant};

/// Clock reads are amortized: one `Instant::now()` per this many polls.
/// A power of two so the stride test is a mask. At typical per-candidate
/// loop costs (tens of nanoseconds), 64 bounds the detection lag to a few
/// microseconds — far below any meaningful deadline budget.
pub const POLL_STRIDE: u32 = 64;

/// A latching per-query deadline, shared by every evaluator serving the
/// query (one `Arc<DeadlineGate>` per query, cloned into each shard's
/// [`crate::threshold::BoundGate`]).
#[derive(Debug)]
pub struct DeadlineGate {
    deadline: Instant,
    /// Latched expiry: set once, never cleared. Relaxed everywhere — the
    /// flag orders no other memory, and a late observation only delays
    /// truncation by a stride.
    expired: AtomicBool,
    /// Poll counter driving the clock-read stride.
    polls: AtomicU32,
}

impl DeadlineGate {
    /// A gate expiring `budget` from now — the admission-time constructor
    /// the serving layer uses (queueing time counts against the budget).
    pub fn after(budget: Duration) -> DeadlineGate {
        DeadlineGate::at(Instant::now() + budget)
    }

    /// A gate expiring at an absolute instant.
    pub fn at(deadline: Instant) -> DeadlineGate {
        DeadlineGate {
            deadline,
            expired: AtomicBool::new(false),
            polls: AtomicU32::new(0),
        }
    }

    /// Poll the deadline from an evaluation loop: `true` once the budget
    /// is spent. Cheap by design — a relaxed load on the fast path, one
    /// clock read every [`POLL_STRIDE`] calls until expiry latches.
    #[inline]
    pub fn poll(&self) -> bool {
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        let n = self.polls.fetch_add(1, Ordering::Relaxed);
        if n & (POLL_STRIDE - 1) != 0 {
            return false;
        }
        if Instant::now() >= self.deadline {
            self.expired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Poll with a clock read every time — for loops whose iterations are
    /// long enough (the pruned DAAT kernel's per-window sync) that the
    /// stride would delay expiry by a whole stride of iterations. Latches
    /// like [`DeadlineGate::poll`]; not counted in [`DeadlineGate::polls`].
    #[inline]
    pub fn poll_now(&self) -> bool {
        if self.expired.load(Ordering::Relaxed) {
            return true;
        }
        if Instant::now() >= self.deadline {
            self.expired.store(true, Ordering::Relaxed);
            return true;
        }
        false
    }

    /// Whether expiry has already been observed (no clock read; a `false`
    /// may lag the wall clock by up to a stride of polls).
    #[inline]
    pub fn is_expired(&self) -> bool {
        self.expired.load(Ordering::Relaxed)
    }

    /// Latch the gate expired immediately — the deterministic test hook
    /// (fault-injection suites expire a query without racing a clock).
    pub fn force_expire(&self) {
        self.expired.store(true, Ordering::Relaxed);
    }

    /// Budget remaining on the wall clock (zero once past the deadline).
    pub fn remaining(&self) -> Duration {
        self.deadline.saturating_duration_since(Instant::now())
    }

    /// Lifetime count of [`DeadlineGate::poll`] calls — the telemetry
    /// observable behind the deadline-overhead story: polls ÷
    /// [`POLL_STRIDE`] bounds the clock reads an evaluation paid for its
    /// deadline discipline.
    pub fn polls(&self) -> u32 {
        self.polls.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn far_deadline_never_expires_under_polling() {
        let g = DeadlineGate::after(Duration::from_secs(3600));
        for _ in 0..(POLL_STRIDE * 4) {
            assert!(!g.poll());
        }
        assert!(!g.is_expired());
        assert!(g.remaining() > Duration::from_secs(3000));
        assert_eq!(g.polls(), POLL_STRIDE * 4, "every poll is counted");
    }

    #[test]
    fn past_deadline_expires_and_latches() {
        let g = DeadlineGate::at(Instant::now() - Duration::from_millis(1));
        // The very first poll reads the clock (stride counter starts at 0).
        assert!(g.poll());
        assert!(g.is_expired());
        assert!(g.poll(), "expiry must latch");
        assert_eq!(g.remaining(), Duration::ZERO);
    }

    #[test]
    fn expiry_is_observed_within_a_stride() {
        let g = DeadlineGate::at(Instant::now() - Duration::from_millis(1));
        // Regardless of where the counter sits, at most POLL_STRIDE polls
        // pass before a clock read observes the past deadline.
        let mut seen = false;
        for _ in 0..=POLL_STRIDE {
            if g.poll() {
                seen = true;
                break;
            }
        }
        assert!(seen, "a past deadline must be observed within one stride");
    }

    #[test]
    fn poll_now_reads_the_clock_every_call() {
        let g = DeadlineGate::after(Duration::from_secs(3600));
        assert!(!g.poll_now());
        assert_eq!(g.polls(), 0, "unstrided polls are not stride polls");
        // Move the stride counter off a clock-read slot: a strided poll
        // then misses a past deadline, an unstrided one never does.
        let g = DeadlineGate::at(Instant::now() - Duration::from_millis(1));
        let _ = g.polls.fetch_add(1, Ordering::Relaxed);
        assert!(
            !g.poll(),
            "a strided poll between clock reads misses expiry"
        );
        assert!(g.poll_now());
        assert!(g.is_expired(), "and it latches");
    }

    #[test]
    fn force_expire_is_immediate() {
        let g = DeadlineGate::after(Duration::from_secs(3600));
        assert!(!g.poll());
        g.force_expire();
        assert!(g.poll());
        assert!(g.is_expired());
    }
}
