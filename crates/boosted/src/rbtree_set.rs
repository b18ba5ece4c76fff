//! The boosted red-black tree of the paper's first experiment
//! (Section 4.1, Figure 9).
//!
//! Exactly as the paper constructs it: "we made all the sequential
//! methods synchronized, yielding a linearizable base type with no
//! thread-level concurrency, and we protected the transactional class
//! with a single two-phase lock, yielding no transactional
//! concurrency." Despite having *no concurrency at either level*, this
//! implementation dramatically outperforms the read/write STM tree
//! (`txboost_rwstm::rbtree`) because it acquires one lock per
//! transaction instead of tracking every field access, copies nothing,
//! and almost never aborts.

use crate::SetCall;
use std::sync::Arc;
use txboost_core::locks::{AbstractLock, Mode};
use txboost_core::{TxResult, Txn};
use txboost_linearizable::SyncRbTreeSet;

/// A transactional sorted set: synchronized sequential red-black tree
/// + one two-phase abstract lock + method-level undo log.
#[derive(Debug)]
pub struct BoostedRbTreeSet<K: 'static> {
    base: Arc<SyncRbTreeSet<K>>,
    lock: Arc<AbstractLock>,
}

impl<K: Ord + Clone + Send + Sync + 'static> Default for BoostedRbTreeSet<K> {
    fn default() -> Self {
        BoostedRbTreeSet::new()
    }
}

impl<K: Ord + Clone + Send + Sync + 'static> BoostedRbTreeSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        BoostedRbTreeSet {
            base: Arc::new(SyncRbTreeSet::new()),
            lock: Arc::default(),
        }
    }

    /// The tree's conflict abstraction: every call takes the set's one
    /// word exclusively (the paper's single two-phase lock).
    pub fn conflict(&self, call: SetCall<'_, K>) -> (&Arc<AbstractLock>, Mode) {
        match call {
            SetCall::Add(_) | SetCall::Remove(_) | SetCall::Contains(_) => {
                (&self.lock, Mode::Exclusive)
            }
        }
    }

    /// Transactionally add `key`; logs `remove(key)` as the inverse.
    pub fn add(&self, txn: &Txn, key: K) -> TxResult<bool> {
        let (lock, mode) = self.conflict(SetCall::Add(&key));
        lock.acquire(txn, mode)?;
        let result = self.base.add(key.clone());
        if result {
            let base = Arc::clone(&self.base);
            txn.log_undo(move || {
                base.remove(&key);
            });
        }
        Ok(result)
    }

    /// Transactionally remove `key`; logs `add(key)` as the inverse.
    pub fn remove(&self, txn: &Txn, key: &K) -> TxResult<bool> {
        let (lock, mode) = self.conflict(SetCall::Remove(key));
        lock.acquire(txn, mode)?;
        let result = self.base.remove(key);
        if result {
            let base = Arc::clone(&self.base);
            let key = key.clone();
            txn.log_undo(move || {
                base.add(key);
            });
        }
        Ok(result)
    }

    /// Transactionally test membership (no inverse needed).
    pub fn contains(&self, txn: &Txn, key: &K) -> TxResult<bool> {
        let (lock, mode) = self.conflict(SetCall::Contains(key));
        lock.acquire(txn, mode)?;
        Ok(self.base.contains(key))
    }

    /// Committed-state size (diagnostic; exact at quiescence).
    pub fn len(&self) -> usize {
        self.base.len()
    }

    /// Whether the committed state is empty (same caveat).
    pub fn is_empty(&self) -> bool {
        self.base.is_empty()
    }

    /// Ascending snapshot of the committed state (same caveat).
    pub fn snapshot(&self) -> Vec<K> {
        self.base.to_sorted_vec()
    }

    /// Validate the underlying tree's red-black invariants.
    pub fn check_invariants(&self) -> Result<usize, String> {
        self.base.check_invariants()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txboost_core::{Abort, TxnConfig, TxnManager};

    #[test]
    fn transactional_set_semantics() {
        let tm = TxnManager::default();
        let s = BoostedRbTreeSet::new();
        assert!(tm.run(|t| s.add(t, 3)).unwrap());
        assert!(!tm.run(|t| s.add(t, 3)).unwrap());
        assert!(tm.run(|t| s.contains(t, &3)).unwrap());
        assert!(tm.run(|t| s.remove(t, &3)).unwrap());
        assert!(s.is_empty());
        s.check_invariants().unwrap();
    }

    #[test]
    fn abort_restores_tree() {
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let s = BoostedRbTreeSet::new();
        for i in 0..10 {
            tm.run(|t| s.add(t, i)).unwrap();
        }
        let r: Result<(), _> = tm.run(|t| {
            for i in 10..20 {
                s.add(t, i)?;
            }
            for i in 0..5 {
                s.remove(t, &i)?;
            }
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(s.snapshot(), (0..10).collect::<Vec<_>>());
        s.check_invariants().unwrap();
    }

    #[test]
    fn whole_traversal_costs_one_lock_acquisition() {
        let tm = TxnManager::default();
        let s = BoostedRbTreeSet::new();
        tm.run(|t| {
            for i in 0..50 {
                s.add(t, i)?;
            }
            // The paper's point: 50 method calls, one abstract lock.
            assert_eq!(t.held_lock_count(), 1);
            Ok(())
        })
        .unwrap();
    }

    #[test]
    fn concurrent_transactions_serialize_but_all_commit() {
        let tm = std::sync::Arc::new(TxnManager::default());
        let s = std::sync::Arc::new(BoostedRbTreeSet::new());
        std::thread::scope(|sc| {
            for th in 0..4i64 {
                let (tm, s) = (std::sync::Arc::clone(&tm), std::sync::Arc::clone(&s));
                sc.spawn(move || {
                    for i in 0..200 {
                        tm.run(|t| s.add(t, th * 1000 + i)).unwrap();
                    }
                });
            }
        });
        assert_eq!(s.len(), 800);
        s.check_invariants().unwrap();
    }
}
