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
//! | [`skiplist`] | lazy skip-list set: the skip-list map with unit values | `ConcurrentSkipListSet` (Fig. 2) |
//! | [`striped_map`] | lock-striped hash map | `ConcurrentHashMap` (backs `LockKey`, Fig. 3) |
//! | [`heap`] | Hunt-style fine-grained concurrent binary heap | the "concurrent heap implementation due to Hunt" (Fig. 5) |
//! | [`deque`] | bounded blocking double-ended queue | `LinkedBlockingDeque` (Fig. 7) |
//! | [`rbtree`] | red-black tree algorithm over a node store, its sequential set + coarse-locked wrapper | the sequential red-black tree of Section 4.1 |
//! | [`list`] | lock-coupling sorted linked list | the lock-coupling list of Section 1 |
//! | [`skipmap`] | lazy skip-list **map**: per-node locks, lock-free reads | `ConcurrentSkipListMap` |
//! | [`slab`] | concurrent slab allocator | free-storage substrate for transactional malloc/free (Sec. 2) |
//! | [`counter`] | striped counter and fetch-and-add counter | `getAndAdd()` unique-ID counter (Section 3.4) |
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
pub mod skipmap;
pub mod slab;
pub mod striped_map;

pub use counter::{FetchAddCounter, StripedCounter};
pub use deque::BlockingDeque;
pub use heap::ConcurrentHeap;
pub use list::LockCouplingList;
pub use rbtree::{RbTreeSet, SyncRbTreeSet};
pub use skiplist::LazySkipListSet;
pub use skipmap::LazySkipListMap;
pub use slab::{ConcurrentSlab, SlabKey};
pub use striped_map::StripedHashMap;
