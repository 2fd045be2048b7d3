//! Bounded admission: per-worker queue gauges and the admission policy.
//!
//! The PR 6 pool queued unboundedly: a saturated deployment grew its job
//! queues (and the memory behind them) without limit, and the caller got
//! no signal that service had fallen behind. Admission now runs against
//! one [`QueueGauge`] per shard worker — a counted semaphore over the
//! worker's `mpsc` queue — and an [`AdmissionPolicy`] decides what a full
//! gauge means:
//!
//! * [`AdmissionPolicy::Block`] — wait for room: classic backpressure,
//!   the submitting thread slows to the service rate. The default.
//! * [`AdmissionPolicy::Shed`] — reject immediately with
//!   [`crate::ServeError::Shed`]: the open-loop posture, trading
//!   completeness for bounded queues and bounded latency (the paper's
//!   top-N machinery made queries cheap; shedding keeps the *queue* in
//!   front of them cheap too).
//! * [`AdmissionPolicy::TryNow`] — admit only into idle workers: the
//!   probe posture for latency-critical traffic that would rather go
//!   elsewhere than wait behind anything.
//!
//! **What the gauge counts.** Depth is *admitted but unfinished batch
//! jobs* on one worker: incremented at admission, decremented when the
//! worker finishes the job (not when it dequeues it), so the in-service
//! job still occupies its slot. Every queued job holds its batch's
//! queries and gates alive, so the gauge bound is the pool's RSS proxy:
//! queue memory is `O(bound × batch size)` by construction. Depth and
//! its high-water mark are published through a [`moa_obs::Gauge`] —
//! typically registered as `serve.queue_depth.shard<i>` in the pool's
//! [`moa_obs::MetricsRegistry`] — rather than ad-hoc fields here; the
//! high-water mark (the deepest any acquisition ever took the gauge) is
//! the observable the `pool_faults` queue-ceiling checks read.

use std::sync::{Arc, Condvar, Mutex};
use std::time::Duration;

use moa_obs::Gauge;

/// What a saturated worker queue means for new work. See module docs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AdmissionPolicy {
    /// Apply backpressure: block the submitter until every worker has
    /// room. Never sheds.
    #[default]
    Block,
    /// Reject with [`crate::ServeError::Shed`] when any worker's queue
    /// is at its bound.
    Shed,
    /// Admit only when every worker is *idle* (depth zero); otherwise
    /// reject with [`crate::ServeError::Shed`].
    TryNow,
}

/// A counted semaphore over one worker's job queue. Cheap on the worker
/// side (one lock + notify per job completed); the submitting side pays
/// the policy's cost.
#[derive(Debug)]
pub struct QueueGauge {
    bound: usize,
    depth: Mutex<usize>,
    room: Condvar,
    /// The exported depth metric: current level mirrors `depth`, and its
    /// built-in high-water mark replaces the ad-hoc `AtomicUsize` this
    /// struct used to carry. Shared with the pool's metrics registry.
    metric: Arc<Gauge>,
}

impl QueueGauge {
    /// A gauge admitting at most `bound` unfinished jobs (clamped ≥ 1:
    /// a zero bound could never admit anything), with a private
    /// (unregistered) depth metric.
    pub fn new(bound: usize) -> QueueGauge {
        QueueGauge::with_metric(bound, Arc::new(Gauge::new()))
    }

    /// A gauge publishing its depth through `metric` — the pool wires a
    /// registry-owned `serve.queue_depth.shard<i>` gauge in here so the
    /// exposition snapshot sees live depths and high-water marks.
    pub fn with_metric(bound: usize, metric: Arc<Gauge>) -> QueueGauge {
        QueueGauge {
            bound: bound.max(1),
            depth: Mutex::new(0),
            room: Condvar::new(),
            metric,
        }
    }

    /// The configured depth bound.
    pub fn bound(&self) -> usize {
        self.bound
    }

    /// Current depth: admitted, unfinished jobs.
    pub fn depth(&self) -> usize {
        *lock_ignore_poison(&self.depth)
    }

    /// The deepest the gauge has ever been right after an admission —
    /// the queue-ceiling observable (never exceeds the bound).
    pub fn high_water(&self) -> usize {
        self.metric.high_water() as usize
    }

    /// Admit one job if the queue has room; on refusal, report the
    /// current depth.
    pub fn try_acquire(&self) -> Result<(), usize> {
        let mut depth = lock_ignore_poison(&self.depth);
        if *depth >= self.bound {
            return Err(*depth);
        }
        *depth += 1;
        self.metric.set(*depth as u64);
        Ok(())
    }

    /// Admit one job only into an *idle* queue (depth zero); on refusal,
    /// report the current depth.
    pub fn try_acquire_idle(&self) -> Result<(), usize> {
        let mut depth = lock_ignore_poison(&self.depth);
        if *depth > 0 {
            return Err(*depth);
        }
        *depth = 1;
        self.metric.set(1);
        Ok(())
    }

    /// Wait up to `timeout` for the queue to have room (no admission —
    /// callers re-`try_acquire` after waking, because only the single
    /// admitting thread raises depth). Returns whether room was seen.
    pub fn wait_for_room(&self, timeout: Duration) -> bool {
        let depth = lock_ignore_poison(&self.depth);
        if *depth < self.bound {
            return true;
        }
        let (depth, _) = self
            .room
            .wait_timeout(depth, timeout)
            .unwrap_or_else(|e| e.into_inner());
        *depth < self.bound
    }

    /// One admitted job finished (the worker's side of the contract).
    pub fn release(&self) {
        let mut depth = lock_ignore_poison(&self.depth);
        *depth = depth.saturating_sub(1);
        self.metric.set(*depth as u64);
        drop(depth);
        self.room.notify_all();
    }

    /// Zero the depth: a dead worker's queue vanished with its channel,
    /// so the jobs it held are gone (their tickets observe disconnect).
    /// Called by the respawn path before the replacement thread starts.
    /// The high-water mark survives — it records history, not state.
    pub fn reset(&self) {
        let mut depth = lock_ignore_poison(&self.depth);
        *depth = 0;
        // `Gauge::set` folds into the high-water mark before storing, so
        // zeroing the level here cannot erase the recorded peak.
        self.metric.set(0);
        drop(depth);
        self.room.notify_all();
    }
}

/// Lock a gauge mutex, recovering the guard from a poisoned lock. The
/// guarded value is a bare counter whose every transition is a complete
/// single assignment, so there is no torn state to fear; refusing to
/// serve after an unrelated panic would turn one fault into a wedge.
fn lock_ignore_poison<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn acquire_release_and_high_water() {
        let g = QueueGauge::new(2);
        assert_eq!(g.bound(), 2);
        assert_eq!(g.depth(), 0);
        g.try_acquire().expect("room at depth 0");
        g.try_acquire().expect("room at depth 1");
        assert_eq!(g.depth(), 2);
        assert_eq!(g.try_acquire(), Err(2), "bound reached");
        g.release();
        assert_eq!(g.depth(), 1);
        g.try_acquire().expect("room again after release");
        assert_eq!(g.high_water(), 2, "high water never exceeded the bound");
    }

    #[test]
    fn idle_acquire_requires_depth_zero() {
        let g = QueueGauge::new(4);
        g.try_acquire_idle().expect("idle at depth 0");
        assert_eq!(g.try_acquire_idle(), Err(1));
        g.release();
        g.try_acquire_idle().expect("idle again");
    }

    #[test]
    fn zero_bound_is_clamped_to_one() {
        let g = QueueGauge::new(0);
        assert_eq!(g.bound(), 1);
        g.try_acquire().expect("a bound of one admits one job");
        assert_eq!(g.try_acquire(), Err(1));
    }

    #[test]
    fn reset_clears_depth_but_keeps_high_water() {
        let g = QueueGauge::new(3);
        g.try_acquire().expect("room");
        g.try_acquire().expect("room");
        g.reset();
        assert_eq!(g.depth(), 0);
        assert_eq!(g.high_water(), 2);
    }

    #[test]
    fn shared_metric_sees_live_depth_and_high_water() {
        let metric = Arc::new(Gauge::new());
        let g = QueueGauge::with_metric(3, Arc::clone(&metric));
        g.try_acquire().expect("room");
        g.try_acquire().expect("room");
        assert_eq!(metric.get(), 2, "registry handle sees the live depth");
        g.release();
        assert_eq!(metric.get(), 1);
        g.reset();
        assert_eq!(metric.get(), 0);
        assert_eq!(metric.high_water(), 2, "peak survives reset");
        assert_eq!(g.high_water(), 2);
    }

    #[test]
    fn wait_for_room_wakes_on_release() {
        use std::sync::Arc;
        let g = Arc::new(QueueGauge::new(1));
        g.try_acquire().expect("room");
        let waiter = {
            let g = Arc::clone(&g);
            std::thread::spawn(move || g.wait_for_room(Duration::from_secs(5)))
        };
        std::thread::sleep(Duration::from_millis(20));
        g.release();
        assert!(waiter.join().expect("waiter thread"), "release must wake");
        assert!(!g.wait_for_room(Duration::ZERO) || g.depth() < g.bound());
    }
}
