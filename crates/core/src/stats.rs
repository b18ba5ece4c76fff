//! Runtime counters: commits, aborts, lock timeouts and lock waits.
//!
//! The paper's evaluation attributes much of boosting's advantage to a
//! far lower abort rate than read/write-conflict STMs; these counters
//! are what the benchmark harness reads to reproduce that comparison.

use crate::obs::{HistogramSnapshot, LatencyHistogram};
use std::cell::Cell;
use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
use std::time::Duration;

/// Counter stripes per [`TxnStats`]; threads beyond this many share.
const STRIPES: usize = 32;

/// One thread's counters, padded to its own cache lines (128 B covers
/// the adjacent-line prefetcher) so commits on different threads never
/// write the same line.
#[derive(Debug, Default)]
#[repr(align(128))]
struct Stripe {
    committed: AtomicU64,
    aborted: AtomicU64,
    lock_timeouts: AtomicU64,
    explicit_aborts: AtomicU64,
    conflict_aborts: AtomicU64,
    would_block_aborts: AtomicU64,
    lock_waits: AtomicU64,
}

/// Stripe indices are dealt round-robin, one per thread, on a thread's
/// first recorded outcome.
static NEXT_STRIPE: AtomicUsize = AtomicUsize::new(0);

thread_local! {
    static MY_STRIPE: Cell<usize> = const { Cell::new(usize::MAX) };
}

/// Shared, lock-free counters maintained by a [`crate::TxnManager`].
///
/// All counters use relaxed atomics: they are statistics, not
/// synchronization, and must never perturb the measured code paths.
/// Each thread adds to its own `Stripe`; [`TxnStats::snapshot`] sums
/// them, so every total is exact.
#[derive(Debug, Default)]
pub struct TxnStats {
    stripes: [Stripe; STRIPES],
    /// Time blocked on abstract locks, one sample per attempt that
    /// blocked at all. Shared by every thread: an attempt that gets
    /// here has already waited out a spin or a park.
    lock_wait: LatencyHistogram,
}

impl TxnStats {
    /// The calling thread's stripe.
    fn stripe(&self) -> &Stripe {
        let mut mine = MY_STRIPE.get();
        if mine == usize::MAX {
            mine = NEXT_STRIPE.fetch_add(1, Ordering::Relaxed) % STRIPES;
            MY_STRIPE.set(mine);
        }
        &self.stripes[mine]
    }

    /// Count one commit. Public so that sibling runtimes (e.g. the
    /// read/write STM baseline) can reuse these counters.
    pub fn record_commit(&self) {
        self.stripe().committed.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one abort, attributed to `reason`.
    pub fn record_abort(&self, reason: crate::AbortReason) {
        let stripe = self.stripe();
        stripe.aborted.fetch_add(1, Ordering::Relaxed);
        let c = match reason {
            crate::AbortReason::LockTimeout => &stripe.lock_timeouts,
            crate::AbortReason::Explicit => &stripe.explicit_aborts,
            crate::AbortReason::Conflict => &stripe.conflict_aborts,
            crate::AbortReason::WouldBlock => &stripe.would_block_aborts,
            // Read-only violations are program errors surfaced to the
            // caller, not contention, and a too-old snapshot restarts
            // at once; like `Other` they count only in the total (the
            // server tracks violations per-script instead).
            crate::AbortReason::ReadOnlyViolation
            | crate::AbortReason::SnapshotTooOld
            | crate::AbortReason::Other => return,
        };
        c.fetch_add(1, Ordering::Relaxed);
    }

    /// Count one finished attempt's `blocked` lock acquires — each
    /// found the lock held and waited, until granted or timed out —
    /// and the time `waited` on them in all. Every abstract lock in the
    /// process reports here through the waiting [`crate::Txn`]; an
    /// attempt that never blocked is not recorded, so the histogram
    /// reads "given that you waited, for how long".
    pub fn record_lock_waits(&self, blocked: u32, waited: Duration) {
        let blocked_acquires = &self.stripe().lock_waits;
        blocked_acquires.fetch_add(u64::from(blocked), Ordering::Relaxed);
        self.lock_wait.record_duration(waited);
    }

    /// Take a consistent-enough snapshot of all counters. `started` is
    /// derived: an attempt ends in exactly one commit or abort, so
    /// nothing is counted when it begins. (One still running, or
    /// dropped by a panic unwinding through its body, is in no total.)
    pub fn snapshot(&self) -> TxnStatsSnapshot {
        let sum = |counter: fn(&Stripe) -> &AtomicU64| -> u64 {
            let each = self
                .stripes
                .iter()
                .map(|s| counter(s).load(Ordering::Relaxed));
            each.sum()
        };
        let (committed, aborted) = (sum(|s| &s.committed), sum(|s| &s.aborted));
        TxnStatsSnapshot {
            started: committed + aborted,
            committed,
            aborted,
            lock_timeouts: sum(|s| &s.lock_timeouts),
            explicit_aborts: sum(|s| &s.explicit_aborts),
            conflict_aborts: sum(|s| &s.conflict_aborts),
            would_block_aborts: sum(|s| &s.would_block_aborts),
            lock_waits: sum(|s| &s.lock_waits),
            lock_wait: self.lock_wait.snapshot(),
        }
    }
}

/// A point-in-time copy of [`TxnStats`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TxnStatsSnapshot {
    /// Transaction attempts finished, `committed + aborted` (each retry
    /// counts as a new attempt).
    pub started: u64,
    /// Transactions that committed.
    pub committed: u64,
    /// Transaction attempts that aborted (for any reason).
    pub aborted: u64,
    /// Aborts caused by abstract-lock acquisition timeouts.
    pub lock_timeouts: u64,
    /// Aborts requested explicitly by user code.
    pub explicit_aborts: u64,
    /// Aborts caused by read/write conflicts (baseline STM only).
    pub conflict_aborts: u64,
    /// Aborts caused by conditional-synchronization timeouts.
    pub would_block_aborts: u64,
    /// Abstract-lock acquires that found the lock held and waited,
    /// whether granted in the end or timed out.
    pub lock_waits: u64,
    /// Nanoseconds blocked on abstract locks per attempt, over the
    /// attempts that blocked at all (a timed-out one included).
    pub lock_wait: HistogramSnapshot,
}

impl TxnStatsSnapshot {
    /// Aborts per committed transaction — the paper's "wasted work"
    /// indicator. Returns 0.0 when nothing has committed.
    pub fn abort_ratio(&self) -> f64 {
        if self.committed == 0 {
            0.0
        } else {
            self.aborted as f64 / self.committed as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::AbortReason;

    #[test]
    fn counters_accumulate_by_reason() {
        let s = TxnStats::default();
        s.record_commit();
        s.record_abort(AbortReason::LockTimeout);
        s.record_abort(AbortReason::Explicit);
        s.record_abort(AbortReason::Conflict);
        s.record_abort(AbortReason::WouldBlock);
        let snap = s.snapshot();
        assert_eq!(snap.started, 5);
        assert_eq!(snap.committed, 1);
        assert_eq!(snap.aborted, 4);
        assert_eq!(snap.lock_timeouts, 1);
        assert_eq!(snap.explicit_aborts, 1);
        assert_eq!(snap.conflict_aborts, 1);
        assert_eq!(snap.would_block_aborts, 1);
    }

    #[test]
    fn abort_ratio_handles_zero_commits() {
        let snap = TxnStatsSnapshot::default();
        assert_eq!(snap.abort_ratio(), 0.0);
        let snap = TxnStatsSnapshot {
            committed: 4,
            aborted: 6,
            ..Default::default()
        };
        assert!((snap.abort_ratio() - 1.5).abs() < 1e-12);
    }

    #[test]
    fn other_reason_counts_only_in_total() {
        let s = TxnStats::default();
        s.record_abort(AbortReason::Other);
        let snap = s.snapshot();
        assert_eq!(snap.aborted, 1);
        assert_eq!(
            snap.lock_timeouts
                + snap.explicit_aborts
                + snap.conflict_aborts
                + snap.would_block_aborts,
            0
        );
    }
}
