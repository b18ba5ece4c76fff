//! # transactional-boosting
//!
//! A from-scratch Rust implementation of **transactional boosting**
//! (Maurice Herlihy and Eric Koskinen, *Transactional Boosting: A
//! Methodology for Highly-Concurrent Transactional Objects*, PPoPP
//! 2008): a methodology that turns highly-concurrent *linearizable*
//! objects into equally concurrent *transactional* objects using
//! commutativity-based abstract locks and undo logs of method-call
//! inverses — no read/write sets, no shadow copies.
//!
//! This crate is an umbrella re-exporting the workspace:
//!
//! * [`core`] (`txboost-core`) — the transaction runtime: [`core::TxnManager`],
//!   [`core::Txn`], abstract locks, undo log, disposable deferred actions.
//! * [`linearizable`] (`txboost-linearizable`) — the base objects: lazy
//!   skip list, concurrent heap, blocking deque, striped hash map,
//!   red-black tree, lock-coupling list, counters.
//! * [`collections`] (`txboost-collections`) — the boosted objects:
//!   sets, priority queue, blocking queue, semaphore, unique-ID
//!   generator, hash map, counter.
//! * [`rwstm`] (`txboost-rwstm`) — the read/write-conflict STM baseline
//!   (TL2-style) with its transactional red-black tree and list.
//! * [`model`] (`txboost-model`) — Section 5's formal model as
//!   executable checkers: commutativity, inverses, disposability,
//!   strict serializability.
//!
//! ## Quickstart
//!
//! ```
//! use transactional_boosting::prelude::*;
//!
//! let tm = TxnManager::default();
//! let set = BoostedSkipListSet::new();
//!
//! // The paper's opening example: with the set at {1, 3, 5},
//! // transactions adding 2 and 4 have no inherent conflict — under
//! // boosting they run in parallel (distinct keys ⇒ commuting calls
//! // ⇒ disjoint abstract locks).
//! tm.run(|txn| {
//!     for k in [1i64, 3, 5] {
//!         set.add(txn, k)?;
//!     }
//!     Ok(())
//! }).unwrap();
//!
//! let changed = tm.run(|txn| set.add(txn, 2)).unwrap();
//! assert!(changed);
//! assert_eq!(set.snapshot(), vec![1, 2, 3, 5]);
//! ```

pub use txboost_collections as collections;
pub use txboost_core as core;
pub use txboost_linearizable as linearizable;
pub use txboost_model as model;
pub use txboost_rwstm as rwstm;

/// The names most programs need.
pub mod prelude {
    pub use txboost_collections::{
        BoostedBlockingQueue, BoostedCounter, BoostedHashMap, BoostedListSet, BoostedPQueue,
        BoostedRbTreeSet, BoostedSkipListSet, TSemaphore, UniqueIdGen,
    };
    pub use txboost_core::{Abort, AbortReason, TxResult, Txn, TxnConfig, TxnError, TxnManager};
}
