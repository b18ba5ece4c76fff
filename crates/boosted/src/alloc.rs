//! Transactional storage management — `malloc`/`free` with boosting
//! (Section 2's "similar disposability tradeoffs apply to transactional
//! malloc() and free()").
//!
//! Over a linearizable slab allocator:
//!
//! * `alloc` takes effect **immediately** (the transaction needs the
//!   storage now); its inverse frees the slot, so an aborted allocation
//!   leaks nothing;
//! * `free` is **disposable**: deferred until commit, because a
//!   concurrent transaction must never be handed storage that a
//!   still-uncommitted transaction might yet keep (if the freeing
//!   transaction aborts, the free simply never happened);
//! * no abstract lock is needed at all — `alloc` calls returning
//!   distinct keys commute, and `free(k)` commutes with everything
//!   except operations on `k` itself, which the owner cannot be racing
//!   by construction (you only free what you own).
//!
//! This is the same reasoning as the unique-ID generator (Figure 8),
//! applied to storage.

use std::sync::Arc;
use txboost_core::{TxResult, Txn};
use txboost_linearizable::{ConcurrentSlab, SlabKey};

/// A transactional slab allocator.
///
/// Clones are handles to the same arena.
///
/// # Example
///
/// ```
/// use txboost_core::TxnManager;
/// use txboost_collections::TxSlabAlloc;
///
/// let tm = TxnManager::default();
/// let arena: TxSlabAlloc<String> = TxSlabAlloc::new();
/// let a = arena.clone();
/// let key = tm.run(move |t| a.alloc(t, "data".into())).unwrap();
/// assert_eq!(arena.get(key), Some("data".to_string()));
/// ```
#[derive(Debug, Clone)]
pub struct TxSlabAlloc<T: Send + 'static> {
    base: Arc<ConcurrentSlab<T>>,
}

impl<T: Send + Sync + 'static> Default for TxSlabAlloc<T> {
    fn default() -> Self {
        TxSlabAlloc::new()
    }
}

impl<T: Send + Sync + 'static> TxSlabAlloc<T> {
    /// An empty arena.
    pub fn new() -> Self {
        TxSlabAlloc {
            base: Arc::new(ConcurrentSlab::new()),
        }
    }

    /// Transactionally allocate a slot holding `value`; returns its
    /// key. If the transaction aborts, the inverse frees the slot.
    pub fn alloc(&self, txn: &Txn, value: T) -> TxResult<SlabKey> {
        // No abstract lock: allocations returning distinct keys always
        // commute, and nobody else can name the fresh key until this
        // transaction publishes it (module docs; paper Section 2).
        let key = self.base.insert(value);
        let base = Arc::clone(&self.base);
        txn.log_undo(move || {
            base.remove(key);
        });
        Ok(key)
    }

    /// Transactionally free `key`. Disposable — the slot is actually
    /// recycled only when the transaction commits, so no concurrent
    /// allocation can reuse storage that might still be kept by an
    /// abort.
    pub fn free(&self, txn: &Txn, key: SlabKey) {
        let base = Arc::clone(&self.base);
        txn.defer_on_commit(move || {
            base.remove(key);
        });
    }

    /// Free `key` immediately, outside any transaction. For use from
    /// *disposable* contexts that already run post-commit/post-abort —
    /// e.g. a [`crate::BoostedRefCount`] reclaimer freeing the object
    /// whose last committed reference just dropped. Inside a
    /// transaction, use [`TxSlabAlloc::free`] instead so an abort can
    /// cancel it.
    pub fn remove_now(&self, key: SlabKey) -> Option<T> {
        self.base.remove(key)
    }

    /// Read a clone of the value at `key` (non-transactional: the
    /// caller owns `key`, so no isolation is needed — this mirrors how
    /// malloc'd memory is used directly, not through the allocator).
    pub fn get(&self, key: SlabKey) -> Option<T>
    where
        T: Clone,
    {
        self.base.get(key)
    }

    /// Mutate the value at `key` in place (same ownership argument).
    pub fn with_value<R>(&self, key: SlabKey, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        self.base.with_value(key, f)
    }

    /// Live allocations (diagnostic).
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether nothing is allocated.
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txboost_core::{Abort, TxnManager};

    #[test]
    fn alloc_and_use_across_transactions() {
        let tm = TxnManager::default();
        let arena: TxSlabAlloc<String> = TxSlabAlloc::new();
        let a2 = arena.clone();
        let key = tm.run(move |t| a2.alloc(t, "payload".to_string())).unwrap();
        assert_eq!(arena.get(key), Some("payload".to_string()));
        let a3 = arena.clone();
        tm.run(move |t| {
            a3.free(t, key);
            Ok(())
        })
        .unwrap();
        assert_eq!(arena.get(key), None);
        assert!(arena.is_empty());
    }

    #[test]
    fn aborted_alloc_leaks_nothing() {
        let tm = TxnManager::default();
        let arena: TxSlabAlloc<u64> = TxSlabAlloc::new();
        let a2 = arena.clone();
        let r: Result<SlabKey, _> = tm.run(move |t| {
            let k = a2.alloc(t, 7)?;
            assert_eq!(a2.get(k), Some(7), "allocation must be immediate");
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert!(arena.is_empty(), "aborted allocation leaked");
    }

    #[test]
    fn aborted_free_keeps_the_storage() {
        let tm = TxnManager::default();
        let arena: TxSlabAlloc<u64> = TxSlabAlloc::new();
        let a2 = arena.clone();
        let key = tm.run(move |t| a2.alloc(t, 7)).unwrap();
        let a3 = arena.clone();
        let r: Result<(), _> = tm.run(move |t| {
            a3.free(t, key);
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(arena.get(key), Some(7), "aborted free actually freed");
    }

    #[test]
    fn freed_storage_is_not_reused_before_commit() {
        let tm = TxnManager::default();
        let arena: TxSlabAlloc<u64> = TxSlabAlloc::new();
        let a2 = arena.clone();
        let key = tm.run(move |t| a2.alloc(t, 1)).unwrap();
        // Free in an open transaction; a concurrent allocation must get
        // a *different* slot while the free is uncommitted.
        let freeing = tm.begin();
        arena.free(&freeing, key);
        let a3 = arena.clone();
        let other = tm.run(move |t| a3.alloc(t, 2)).unwrap();
        assert_ne!(other, key, "uncommitted free's storage was reused");
        tm.commit(freeing);
        // Now the slot is genuinely free and may be recycled.
        let a4 = arena.clone();
        let recycled = tm.run(move |t| a4.alloc(t, 3)).unwrap();
        assert_eq!(recycled, key, "slot not recycled after commit");
    }

    #[test]
    fn concurrent_alloc_free_conserves_slots() {
        let tm = std::sync::Arc::new(TxnManager::default());
        let arena: TxSlabAlloc<usize> = TxSlabAlloc::new();
        std::thread::scope(|s| {
            for th in 0..8usize {
                let tm = std::sync::Arc::clone(&tm);
                let arena = arena.clone();
                s.spawn(move || {
                    use rand::prelude::*;
                    let mut rng = StdRng::seed_from_u64(th as u64);
                    let mut mine = Vec::new();
                    for i in 0..500 {
                        if !mine.is_empty() && rng.random_bool(0.5) {
                            let k = mine.swap_remove(rng.random_range(0..mine.len()));
                            let a = arena.clone();
                            tm.run(move |t| {
                                a.free(t, k);
                                Ok(())
                            })
                            .unwrap();
                        } else {
                            let doomed = rng.random_bool(0.2);
                            let a = arena.clone();
                            let r = tm.run(move |t| {
                                let k = a.alloc(t, th * 1000 + i)?;
                                if doomed {
                                    return Err(Abort::explicit());
                                }
                                Ok(k)
                            });
                            if let Ok(k) = r {
                                mine.push(k);
                            }
                        }
                    }
                    // Free the rest.
                    for k in mine {
                        let a = arena.clone();
                        tm.run(move |t| {
                            a.free(t, k);
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert!(arena.is_empty(), "slots leaked: {}", arena.len());
    }
}
