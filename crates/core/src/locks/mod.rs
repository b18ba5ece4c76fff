//! Abstract locks — conflict detection at method-call granularity.
//!
//! Transactional boosting replaces read/write conflict detection with
//! *commutativity*-based conflict detection: before a transaction calls
//! a method on a boosted object, it acquires an **abstract lock** chosen
//! so that two transactions hold conflicting locks only if their method
//! calls do not commute (the paper's Rule 2, *Commutativity Isolation*).
//! Abstract locks are strict two-phase: once acquired they are held
//! until the transaction commits or finishes aborting, at which point
//! the runtime releases them.
//!
//! Acquisition blocks with a timeout ([`crate::Txn::lock_timeout`]);
//! timing out aborts the requesting transaction, which is how deadlocks
//! among abstract locks are broken (aborting releases everything, then
//! the transaction retries after backoff).
//!
//! There is one lock — [`AbstractLock`], a lock word held in
//! [`Mode::Shared`] or [`Mode::Exclusive`] — and three handles onto it,
//! matching the paper's experiments:
//!
//! | Handle | Paper analogue | Granularity |
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
mod deadline;
mod keymap;
mod mutex;
mod rwlock;

pub use abstract_lock::{AbstractLock, Mode};
pub use deadline::Deadline;
pub use keymap::KeyLockMap;
pub use mutex::TxMutex;
pub use rwlock::TxRwLock;
