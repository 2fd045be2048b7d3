//! Typed serving failures and the fault-injection surface.
//!
//! The serving runtime distinguishes three ways a query can fail to
//! produce a full answer, because callers handle them differently:
//!
//! * [`ServeError::Shed`] — the query never ran: admission rejected it
//!   because the pool was saturated under [`crate::AdmissionPolicy::Shed`]
//!   (or not idle under `TryNow`). Retry later, or against a replica.
//! * [`ServeError::ShardFailed`] — the query (or its whole batch) died
//!   with a worker panic. The pool caught the panic at the worker
//!   boundary, failed only the affected positions, and kept serving;
//!   the payload message is preserved for diagnosis.
//! * [`ServeError::Engine`] — an ordinary engine error (unknown term,
//!   invalid configuration), exactly as the engines raise it.
//!
//! A *fourth* degraded outcome is not an error at all: a query that ran
//! out of its deadline budget returns `Ok` with
//! [`crate::QueryResponse::partial`]` == true` — an exact-prefix ranking
//! plus honest work counters (see `moa_ir::deadline`).
//!
//! [`WorkerFault`] is the injection surface the `pool_faults` suite
//! drives: poison-term panics exercise the per-query `catch_unwind`
//! isolation, `Crash` kills a worker thread outside the per-query guard
//! to exercise ticket synthesis and respawn, and `Stall` holds a worker
//! busy so admission backpressure is deterministic to test.

use std::any::Any;
use std::fmt;
use std::time::Duration;

use moa_core::CoreError;

/// Result alias for serving operations.
pub type ServeResult<T> = std::result::Result<T, ServeError>;

/// A typed serving failure. See the module docs for the taxonomy.
#[derive(Debug, Clone, PartialEq)]
pub enum ServeError {
    /// Admission rejected the work: a worker queue was at its configured
    /// bound (policy [`crate::AdmissionPolicy::Shed`]) or not idle
    /// (policy [`crate::AdmissionPolicy::TryNow`]). Nothing executed.
    Shed {
        /// The shard whose queue refused the work.
        shard: usize,
        /// That queue's depth at rejection (admitted, unfinished jobs).
        depth: usize,
        /// The configured depth bound.
        bound: usize,
    },
    /// A shard worker panicked while this query (or its batch) was in
    /// flight. The pool survived; this position did not.
    ShardFailed {
        /// The shard whose worker panicked.
        shard: usize,
        /// The panic payload, rendered to a string.
        panic: String,
    },
    /// An ordinary engine error, passed through.
    Engine(CoreError),
}

impl ServeError {
    /// Whether this is an admission rejection (nothing executed).
    pub fn is_shed(&self) -> bool {
        matches!(self, ServeError::Shed { .. })
    }

    /// Whether this is a worker-panic failure.
    pub fn is_shard_failed(&self) -> bool {
        matches!(self, ServeError::ShardFailed { .. })
    }
}

impl fmt::Display for ServeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ServeError::Shed {
                shard,
                depth,
                bound,
            } => write!(
                f,
                "admission shed: shard {shard} queue at depth {depth} of bound {bound}"
            ),
            ServeError::ShardFailed { shard, panic } => {
                write!(f, "shard {shard} worker panicked: {panic}")
            }
            ServeError::Engine(e) => write!(f, "engine error: {e}"),
        }
    }
}

impl std::error::Error for ServeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ServeError::Engine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<CoreError> for ServeError {
    fn from(e: CoreError) -> ServeError {
        ServeError::Engine(e)
    }
}

/// Render a caught panic payload to a human-readable message. `panic!`
/// with a literal yields `&str`, with a format string yields `String`;
/// anything else is opaque.
pub fn panic_message(payload: &(dyn Any + Send)) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

/// One worker's recorded panic, reported by
/// [`crate::pool::PoolShutdown`] instead of re-panicking the drain.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPanic {
    /// The shard whose worker died.
    pub shard: usize,
    /// The panic payload, rendered to a string.
    pub message: String,
}

/// A fault to inject into one shard worker
/// ([`crate::pool::ShardPool::inject_fault`]) — the controlled failure
/// surface the resilience harness drives. Faults ride the ordinary job
/// queue, so they take effect in admission order.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WorkerFault {
    /// Arm a poison term: the worker panics *inside* its per-query guard
    /// whenever it executes a query containing this term. Exercises
    /// per-query isolation — only the poisoned position fails.
    PoisonTerm(u32),
    /// Disarm any armed poison term.
    ClearPoison,
    /// Panic at the job boundary, *outside* the per-query guard: the
    /// worker thread dies with everything still queued behind it.
    /// Exercises ticket synthesis ([`ServeError::ShardFailed`] for every
    /// lost column) and the respawn path.
    Crash,
    /// Busy-hold the worker for the duration (it sleeps, completing no
    /// jobs): makes queue saturation deterministic for admission tests.
    Stall(Duration),
}

/// The payload of the panic an armed [`WorkerFault::PoisonTerm`] raises.
pub(crate) const POISON_PANIC: &str = "injected poison term in query";

/// Silence the default panic-hook output for shard worker threads
/// (named `moa-shard-*`) and for injected poison-term panics on any
/// thread (a caller-run query executes on the submitter's thread).
/// Fault-injection runs — the `pool_faults` suite — panic *on purpose*,
/// and every injected fault is already captured, typed, and reported
/// through [`ServeError::ShardFailed`] / [`ShardPanic`]; the default
/// hook's stderr traces would just bury the real output. Every other panic still reaches the previously installed
/// hook. Installs once per process; safe to call repeatedly.
pub fn silence_worker_panics() {
    static INSTALL: std::sync::Once = std::sync::Once::new();
    INSTALL.call_once(|| {
        let previous = std::panic::take_hook();
        std::panic::set_hook(Box::new(move |info| {
            let on_worker = std::thread::current()
                .name()
                .is_some_and(|n| n.starts_with("moa-shard-"));
            let poison = info.payload().downcast_ref::<&str>() == Some(&POISON_PANIC);
            if !on_worker && !poison {
                previous(info);
            }
        }));
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_classification() {
        let shed = ServeError::Shed {
            shard: 1,
            depth: 4,
            bound: 4,
        };
        assert!(shed.is_shed() && !shed.is_shard_failed());
        assert!(shed.to_string().contains("depth 4 of bound 4"));
        let failed = ServeError::ShardFailed {
            shard: 2,
            panic: "boom".into(),
        };
        assert!(failed.is_shard_failed() && !failed.is_shed());
        assert!(failed.to_string().contains("boom"));
        let engine = ServeError::from(CoreError::Type("bad".into()));
        assert!(!engine.is_shed() && !engine.is_shard_failed());
    }

    #[test]
    fn panic_messages_render_for_both_literal_and_formatted() {
        let caught = std::panic::catch_unwind(|| panic!("literal payload")).expect_err("panicked");
        assert_eq!(panic_message(caught.as_ref()), "literal payload");
        let caught = std::panic::catch_unwind(|| panic!("formatted {}", 7)).expect_err("panicked");
        assert_eq!(panic_message(caught.as_ref()), "formatted 7");
    }
}
