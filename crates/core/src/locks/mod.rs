//! Abstract locks — conflict detection at method-call granularity.
//!
//! Transactional boosting replaces read/write conflict detection with
//! *commutativity*-based conflict detection: before a transaction calls
//! a method on a boosted object, it acquires an **abstract lock** chosen
//! so that two transactions hold conflicting locks only if their method
//! calls do not commute (the paper's Rule 2, *Commutativity Isolation*).
//! Abstract locks are strict two-phase: once acquired they are held
//! until the transaction commits or finishes aborting, at which point
//! the runtime releases them via [`HeldLock::release`].
//!
//! Acquisition blocks with a timeout ([`crate::Txn::lock_timeout`]);
//! timing out aborts the requesting transaction, which is how deadlocks
//! among abstract locks are broken (aborting releases everything, then
//! the transaction retries after backoff).
//!
//! Three disciplines are provided, matching the paper's experiments:
//!
//! | Type | Paper analogue | Granularity |
//! |---|---|---|
//! | [`KeyLockMap`] | `LockKey` (Fig. 3) | one lock per key-hash slot of a fixed table — `add(x)`/`remove(x)`/`contains(x)` conflict on equal `x` (and, safely by Rule 2, on the rare `y` sharing `x`'s slot) |
//! | [`TxRwLock`] | heap's two-phase readers-writer lock (Fig. 5) | `add` = shared, `removeMin` = exclusive |
//! | [`TxMutex`] | "single transactional lock" baselines (Figs. 9, 10, 11) | everything conflicts |
//!
//! The choice of discipline is an engineering trade-off the paper
//! discusses under Rule 2: a maximally precise discipline may cost more
//! to evaluate than it saves; an overly conservative one (e.g.
//! [`TxMutex`]) serializes commuting calls. Figure 10's experiment
//! quantifies exactly this trade-off and is reproduced in
//! `txboost-bench`.

mod abstract_lock;
mod keymap;
mod mutex;
mod rwlock;

pub use abstract_lock::{AbstractLock, AcquireOutcome};
pub use keymap::KeyLockMap;
pub use mutex::TxMutex;
pub use rwlock::TxRwLock;

use crate::TxnId;

/// A two-phase lock registered with a transaction.
///
/// Implementations are registered via
/// [`crate::Txn::register_held_lock`] when first acquired; the runtime
/// calls [`HeldLock::release`] exactly once per registration when the
/// owning transaction commits or finishes aborting. `release` must be
/// idempotent with respect to ownership: if `id` no longer owns the
/// lock, the call must be a no-op.
pub trait HeldLock: Send + Sync {
    /// Release whatever hold transaction `id` has on this lock and wake
    /// waiters.
    fn release(&self, id: TxnId);
}
