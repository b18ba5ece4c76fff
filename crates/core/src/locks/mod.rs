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
//! timing out aborts the requesting transaction, which is how a library
//! transaction escapes a deadlock (aborting releases everything, then
//! it retries after backoff). The server cannot deadlock — a script
//! takes all its locks up front, in address order — so it never times
//! out: its timeout is `Duration::MAX`.
//!
//! There is one lock — [`AbstractLock`], a lock word held in
//! [`Mode::Shared`] or [`Mode::Exclusive`] — owned alone
//! ([`ObjectLock`]) or in one table ([`KeyLockMap`], whose slot for key
//! `x` is the paper's `LockKey(x)`, Fig. 3). Each boosted type states
//! its *conflict abstraction* once, as one function from a call to the
//! lock word it takes and the mode it takes it in (Proust, arXiv
//! 1702.04866), and every transactional method acquires through that
//! function. The paper's disciplines are rows of those tables:
//!
//! | Discipline | Paper analogue | Table |
//! |---|---|---|
//! | lock per key | `LockKey` (Fig. 3) | every call on `x` → `KeyLockMap` slot of `x`, exclusive (keys sharing a slot conflict too, safely by Rule 2) |
//! | readers-writer | the heap (Fig. 5) | `add` → the object's word, shared; `removeMin` → the same word, exclusive |
//! | single lock | the coarse baselines (Figs. 9, 10, 11) | every call → the object's word, exclusive |
//!
//! A transaction holds the words it took as `&'static AbstractLock`: no
//! table of words is ever freed, and one is reused only once every word
//! in it is free. Figure 10 (`txboost-bench`) measures the discipline
//! trade-off the paper discusses under Rule 2.

mod abstract_lock;
mod deadline;
mod keymap;

pub use abstract_lock::{AbstractLock, Mode};
pub use deadline::Deadline;
pub use keymap::{KeyLockMap, ObjectLock};
