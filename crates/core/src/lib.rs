//! # txboost-core — a transaction runtime for *transactional boosting*
//!
//! This crate implements the runtime machinery described in Herlihy &
//! Koskinen, *Transactional Boosting: A Methodology for Highly-Concurrent
//! Transactional Objects* (PPoPP 2008):
//!
//! * **Transactions** ([`Txn`], [`TxnManager`]) with a retry loop,
//!   randomized exponential backoff, and commit/abort handlers. The
//!   paper relies on DSTM2/SXM for this layer; here it is built from
//!   scratch.
//! * **Abstract locks** ([`locks`]) — two-phase locks acquired at the
//!   granularity of *method calls* and held until the owning transaction
//!   commits or aborts. Acquisition uses timeouts so that deadlocked
//!   transactions abort and retry rather than hang (Section 2 of the
//!   paper). There is one lock ([`locks::AbstractLock`], a lock word
//!   held shared or exclusive) and one table of them
//!   ([`locks::KeyLockMap`], the paper's `LockKey` with a fixed
//!   footprint); each boosted object states once which word a call
//!   takes, and in which [`locks::Mode`].
//! * **Undo logs of inverses** — [`Txn::log_undo`] records the inverse
//!   of each successful method call; on abort the log is replayed in
//!   reverse order (the paper's Rule 3, *Compensating Actions*). No
//!   memory accesses are logged and no shadow copies are made. A call
//!   whose object also keeps committed versions logs both fates in one
//!   entry with [`Txn::log_effect`].
//! * **Disposable deferred actions** — [`Txn::defer_on_commit`] and
//!   [`Txn::defer_on_abort`] postpone *disposable* method calls
//!   (Definition 5.5) until after the transaction commits or finishes
//!   aborting: semaphore releases, ID-pool returns, deferred frees.
//!
//! ## Example
//!
//! ```
//! use std::sync::Arc;
//! use std::sync::atomic::{AtomicI64, Ordering};
//! use txboost_core::{TxnManager, locks::{AbstractLock, Mode}};
//!
//! let tm = TxnManager::default();
//! let lock = Arc::new(AbstractLock::new());
//! let balance = Arc::new(AtomicI64::new(100));
//!
//! let b = balance.clone();
//! let result = tm.run(move |txn| {
//!     lock.acquire(txn, Mode::Exclusive)?;   // abstract lock, held to commit
//!     b.fetch_add(-30, Ordering::SeqCst);    // call on the base object
//!     let b2 = b.clone();
//!     txn.log_undo(move || {                 // inverse, replayed on abort
//!         b2.fetch_add(30, Ordering::SeqCst);
//!     });
//!     Ok(b.load(Ordering::SeqCst))
//! });
//! assert_eq!(result.unwrap(), 70);
//! ```
//!
//! ## Threading model
//!
//! A [`Txn`] lives on the thread that runs it and is neither `Send` nor
//! `Sync`; undo and deferred closures must be `Send + 'static` because
//! they typically capture `Arc` handles to shared base objects and may
//! conceptually run at any point after the call that logged them.

#![warn(missing_docs)]

mod backoff;
pub mod cookbook;
pub mod det;
mod error;
mod inline;
pub mod locks;
pub mod mvcc;
pub mod obs;
mod stats;
mod txn;

pub use backoff::{Backoff, SpinWait};
pub use error::{Abort, AbortReason, TxnError};
pub use mvcc::{
    CommitClock, CommitStamp, DeltaChain, KeyHash, MvccDomain, MvccMetrics, MvccSnapshot,
    ReaderRegistry, Slot, SnapshotGuard, VersionStore,
};
pub use obs::{DurabilityMetrics, DurabilitySnapshot, HistogramSnapshot, LatencyHistogram};
pub use stats::{TxnStats, TxnStatsSnapshot};
pub use txn::{Savepoint, Txn, TxnConfig, TxnId, TxnManager, TxnState};

/// Convenience alias for the result type returned by boosted methods.
///
/// Every method on a boosted object returns `TxResult<T>`; an
/// [`Abort`] propagates with `?` up to [`TxnManager::run`], which rolls
/// the transaction back and retries it.
pub type TxResult<T> = Result<T, Abort>;
