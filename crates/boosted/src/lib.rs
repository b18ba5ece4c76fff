//! # txboost-collections — boosted transactional objects
//!
//! The worked examples of Herlihy & Koskinen's *transactional boosting*
//! (PPoPP 2008, Section 3), each built by wrapping a linearizable base
//! object from `txboost-linearizable` with abstract locks and an undo
//! log from `txboost-core` — never by reimplementing the base object:
//!
//! | Type | Paper example | Base object | Abstract-lock discipline | Inverses |
//! |---|---|---|---|---|
//! | [`BoostedSet`] ([`BoostedSkipListSet`], [`BoostedListSet`], [`BoostedRbTreeSet`]) | `SkipListKey` (Fig. 2); lock-coupling list (Sec. 1); red-black tree (Sec. 4.1) | any `LinearizableSet`: lazy skip list, hand-over-hand locked list, synchronized sequential RB tree | lock per key (`LockKey`, Fig. 3) or one coarse lock (`with_coarse_lock`, Fig. 9's tree) | `add(x)/true ↩ remove(x)`, `remove(x)/true ↩ add(x)` (Fig. 1) |
//! | [`BoostedPQueue`] | boosted heap (Fig. 5) | Hunt-style concurrent heap | readers-writer: `add` shared, `remove_min` exclusive | `add ↩` mark Holder deleted; `remove_min/x ↩ add(x)` (Fig. 4) |
//! | [`BoostedBlockingQueue`] | pipeline `BlockingQueue` (Fig. 7) | bounded deque + 2 [`TSemaphore`]s | semaphore gating (state-dependent commutativity) | `offer ↩ take_last`, `take/x ↩ offer_first(x)` (Fig. 6) |
//! | [`TSemaphore`] | transactional semaphore (Sec. 3.3.1) | counter + condvar | — | `acquire ↩ release`; `release` is **disposable**, deferred to commit |
//! | [`UniqueIdGen`] | unique-ID generator (Fig. 8) | fetch-and-add counter | none needed — `assignID()/x ⇔ assignID()/y` | `assignID ↩ noop`; post-abort **disposable** `releaseID(x)` |
//! | [`BoostedHashMap`] | collection-class methodology | striped hash map | lock per key | `put ↩` restore previous binding, etc. |
//! | [`BoostedCounter`] | commutativity showcase | striped counter | readers-writer: `add` shared, `get` exclusive | `add(n) ↩ add(-n)` |
//! | [`BoostedRefCount`] | Section 2 reference counts | atomic counter | none — see module docs | `incr ↩ decr`; `decr` **disposable**, batched optionally |
//! | [`TxSlabAlloc`] | Section 2 transactional malloc/free | concurrent slab | none — distinct allocations commute | `alloc ↩ free`; `free` **disposable** |
//!
//! Each type that takes abstract locks states its discipline once, as a
//! public `conflict` function from a call ([`SetCall`], [`MapCall`],
//! [`CounterCall`], [`PQueueCall`]) to the lock word it takes and the
//! [`txboost_core::locks::Mode`] it takes it in; every transactional
//! method acquires through that function, so the table is the code.
//!
//! Every method takes a [`txboost_core::Txn`] and returns
//! [`txboost_core::TxResult`]; run them under
//! [`txboost_core::TxnManager::run`]:
//!
//! ```
//! use txboost_core::TxnManager;
//! use txboost_collections::BoostedSkipListSet;
//!
//! let tm = TxnManager::default();
//! let set = BoostedSkipListSet::new();
//! let changed = tm.run(|txn| {
//!     set.add(txn, 2)?;
//!     set.add(txn, 4)
//! }).unwrap();
//! assert!(changed);
//! assert!(tm.run(|txn| set.contains(txn, &2)).unwrap());
//! ```

#![warn(missing_docs)]
// Every boosted method registers commit/abort handlers, and a handler
// must not fail (paper §3): lib code here may not panic, index or
// assert without a function-level `#[expect]` naming its invariant.
#![cfg_attr(
    not(test),
    warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )
)]

mod alloc;
mod counter;
mod idgen;
mod map;
mod pqueue;
mod queue;
mod refcount;
mod semaphore;
mod set;

pub use alloc::TxSlabAlloc;
pub use counter::{BoostedCounter, CounterCall};
pub use idgen::{ReleasePolicy, UniqueIdGen};
pub use map::{BoostedHashMap, MapCall};
pub use pqueue::{BoostedPQueue, PQueueCall};
pub use queue::BoostedBlockingQueue;
pub use refcount::{BoostedRefCount, DecrPolicy};
pub use semaphore::TSemaphore;
pub use set::{BoostedListSet, BoostedRbTreeSet, BoostedSet, BoostedSkipListSet, SetCall};
