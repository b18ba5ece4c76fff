//! # txboost-linearizable — highly-concurrent linearizable base objects
//!
//! Transactional boosting (Herlihy & Koskinen, PPoPP 2008) transforms
//! *linearizable* concurrent objects into transactional ones, treating
//! the base object as a black box. The paper takes its base objects from
//! `java.util.concurrent`; this crate implements the equivalent
//! substrate from scratch in Rust:
//!
//! | Module | Object | Paper analogue |
//! |---|---|---|
//! | [`skiplist`] | lazy skip-list set: per-node locks, lock-free `contains` | `ConcurrentSkipListSet` (Fig. 2) |
//! | [`striped_map`] | lock-striped hash map, the boosted map's base | `ConcurrentHashMap` |
//! | [`heap`] | Hunt-style fine-grained concurrent binary heap | the "concurrent heap implementation due to Hunt" (Fig. 5) |
//! | [`deque`] | bounded double-ended queue (mutex); never blocks | `LinkedBlockingDeque` (Fig. 7) |
//! | [`rbtree`] | red-black tree algorithm over a node store, its sequential set + coarse-locked wrapper | the sequential red-black tree of Section 4.1 |
//! | [`list`] | lock-coupling sorted linked list | the lock-coupling list of Section 1 |
//! | [`slab`] | concurrent slab allocator | free-storage substrate for transactional malloc/free (Sec. 2) |
//! | [`counter`] | striped counter and fetch-and-add counter | `getAndAdd()` unique-ID counter (Section 3.4) |
//!
//! The three sets ([`LazySkipListSet`], [`LockCouplingList`],
//! [`SyncRbTreeSet`]) share one interface, [`LinearizableSet`], so one
//! boosted set wraps any of them.
//!
//! Everything here is **non-transactional**: these types know nothing
//! about transactions, undo logs or abstract locks. The boosted wrappers
//! live in `txboost-collections` and use these objects exactly as the
//! methodology prescribes — relying on them for thread-level
//! synchronization while abstract locks provide transaction-level
//! synchronization.

#![warn(missing_docs)]

pub mod counter;
pub mod deque;
pub mod heap;
pub mod list;
pub mod rbtree;
pub mod skiplist;
pub mod slab;
pub mod striped_map;

pub use counter::{FetchAddCounter, StripedCounter};
pub use deque::BoundedDeque;
pub use heap::ConcurrentHeap;
pub use list::LockCouplingList;
pub use rbtree::{RbTreeSet, SyncRbTreeSet};
pub use skiplist::LazySkipListSet;
pub use slab::{ConcurrentSlab, SlabKey};
pub use striped_map::StripedHashMap;

/// A linearizable set: the base-object interface a boosted set wraps
/// (the paper's `ConcurrentSkipListSet` in Fig. 2). `add` and `remove`
/// report whether the abstract set changed, which is what picks the
/// inverse a boosted call logs.
pub trait LinearizableSet<K> {
    /// Add `key`; returns `true` iff the set changed (the key was
    /// absent).
    fn add(&self, key: K) -> bool;

    /// Remove `key`; returns `true` iff the set changed (the key was
    /// present).
    fn remove(&self, key: &K) -> bool;

    /// Whether `key` is in the set.
    fn contains(&self, key: &K) -> bool;

    /// Number of keys (exact only at quiescence).
    fn len(&self) -> usize;

    /// Whether the set is empty (same caveat as [`LinearizableSet::len`]).
    fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The keys in ascending order (exact only at quiescence).
    fn snapshot(&self) -> Vec<K>;
}
