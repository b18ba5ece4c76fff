//! Bounded per-thread transaction event traces, compiled out by
//! default.
//!
//! With the `trace` cargo feature enabled, the runtime records a small
//! ring of `TraceEvent`s per thread (begin, lock wait/acquire, undo
//! logging, commit, abort with reason) that tests and debugging
//! sessions can drain with `take_events`, or render into a panic
//! message with `dump`. Without the feature the
//! [`trace_event!`] macro expands to nothing — the event values are
//! never even constructed, so the hot path pays zero cost.
//!
//! [`trace_event!`]: crate::trace_event

#[cfg(feature = "trace")]
mod imp {
    use crate::{AbortReason, TxnId};
    use std::cell::RefCell;
    use std::collections::VecDeque;

    /// Maximum events retained per thread; older events are dropped.
    pub const TRACE_CAPACITY: usize = 1024;

    /// One step in a transaction's life, as seen by this thread.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TraceEvent {
        /// A transaction attempt started.
        Begin {
            /// The new transaction.
            txn: TxnId,
        },
        /// An abstract-lock acquisition found the lock held and began
        /// waiting.
        LockWait {
            /// The blocked transaction.
            txn: TxnId,
        },
        /// An abstract lock was acquired (recorded only when the lock
        /// was newly acquired, not for reentrant re-acquisition).
        LockAcquired {
            /// The acquiring transaction.
            txn: TxnId,
            /// Time spent blocked, in nanoseconds.
            wait_ns: u64,
        },
        /// An entry (an inverse, an install, or both) was pushed onto
        /// the effect log.
        Undo {
            /// The logging transaction.
            txn: TxnId,
            /// Effect-log depth after the push.
            depth: usize,
        },
        /// The transaction committed.
        Commit {
            /// The committing transaction.
            txn: TxnId,
            /// Effect-log depth at commit.
            undo_depth: usize,
        },
        /// The transaction aborted.
        Abort {
            /// The aborting transaction.
            txn: TxnId,
            /// Why it aborted.
            reason: AbortReason,
            /// Effect-log depth replayed during rollback.
            undo_depth: usize,
        },
    }

    thread_local! {
        static RING: RefCell<VecDeque<TraceEvent>> =
            RefCell::new(VecDeque::with_capacity(TRACE_CAPACITY));
    }

    /// Append an event to this thread's ring, evicting the oldest event
    /// once [`TRACE_CAPACITY`] is reached. Prefer the [`trace_event!`]
    /// macro, which disappears entirely when the feature is off.
    ///
    /// [`trace_event!`]: crate::trace_event
    pub fn emit(ev: TraceEvent) {
        RING.with(|r| {
            let mut ring = r.borrow_mut();
            if ring.len() == TRACE_CAPACITY {
                ring.pop_front();
            }
            ring.push_back(ev);
        });
    }

    /// Drain this thread's events, oldest first.
    pub fn take_events() -> Vec<TraceEvent> {
        RING.with(|r| r.borrow_mut().drain(..).collect())
    }

    /// Drain this thread's events into a line-per-event report, for
    /// dumping from a failing test's panic message:
    ///
    /// ```ignore
    /// assert!(serializable, "history not serializable\n{}", trace::dump());
    /// ```
    pub fn dump() -> String {
        use std::fmt::Write as _;
        let mut out = String::new();
        for (i, ev) in take_events().into_iter().enumerate() {
            let _ = writeln!(out, "[{i:4}] {ev:?}");
        }
        if out.is_empty() {
            out.push_str("(no trace events on this thread)\n");
        }
        out
    }
}

#[cfg(feature = "trace")]
pub use imp::{dump, emit, take_events, TraceEvent, TRACE_CAPACITY};

/// Record a [`TraceEvent`] variant on this thread's ring when the
/// `trace` feature is enabled; expands to nothing (arguments are not
/// evaluated) when it is not.
///
/// ```ignore
/// crate::trace_event!(Commit { txn: id, undo_depth: depth });
/// ```
#[cfg(feature = "trace")]
#[macro_export]
macro_rules! trace_event {
    ($($ev:tt)+) => {
        $crate::trace::emit($crate::trace::TraceEvent::$($ev)+)
    };
}

/// Record a [`trace::TraceEvent`](crate::trace) when the `trace`
/// feature is enabled; this no-feature form expands to nothing, so the
/// arguments are never evaluated.
#[cfg(not(feature = "trace"))]
#[macro_export]
macro_rules! trace_event {
    ($($ev:tt)+) => {};
}
