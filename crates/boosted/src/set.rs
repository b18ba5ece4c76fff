//! Boosted transactional sets — the paper's `SkipListKey` example
//! (Figure 2) and the lock-coupling list it motivates in Section 1.

use crate::versioned::Versioned;
use std::hash::Hash;
use std::sync::Arc;
use txboost_core::locks::{AbstractLock, KeyLockMap, Mode};
use txboost_core::{TxResult, Txn, VersionStore};
use txboost_linearizable::{LazySkipListSet, LockCouplingList};

/// A call on a boosted set, as its conflict table reads it: the method
/// and the key it names.
#[derive(Debug)]
pub enum SetCall<'a, K> {
    /// `add(x)`
    Add(&'a K),
    /// `remove(x)`
    Remove(&'a K),
    /// `contains(x)`
    Contains(&'a K),
}

/// The abstract-lock discipline for a boosted set.
#[derive(Debug)]
enum SetLocks<K> {
    /// One abstract lock per key — the paper's `LockKey` (Fig. 3):
    /// operations on distinct keys commute and run in parallel.
    PerKey(KeyLockMap<K>),
    /// One lock for the whole set — Figure 10's coarse baseline.
    Coarse(Arc<AbstractLock>),
}

macro_rules! boosted_set {
    ($(#[$meta:meta])* $name:ident, $base:ident, $key_trait:path) => {
        $(#[$meta])*
        #[derive(Debug)]
        pub struct $name<K: 'static> {
            /// The base set and, beside it, the per-key membership
            /// version slots (`Some(())` present, `None` absent)
            /// serving read-only snapshot transactions.
            base: Arc<Versioned<$base<K>, VersionStore<K, ()>>>,
            locks: SetLocks<K>,
        }

        impl<K: $key_trait + Hash + Eq + Clone + Send + Sync + 'static> Default for $name<K> {
            fn default() -> Self {
                Self::new()
            }
        }

        impl<K: $key_trait + Hash + Eq + Clone + Send + Sync + 'static> $name<K> {
            /// An empty set with per-key abstract locking (the paper's
            /// recommended discipline).
            pub fn new() -> Self {
                Self::with_locks(SetLocks::PerKey(KeyLockMap::new()))
            }

            /// An empty set with a single coarse transactional lock
            /// (Figure 10's baseline: correct, but serializes all
            /// transactions touching the set).
            pub fn with_coarse_lock() -> Self {
                Self::with_locks(SetLocks::Coarse(Arc::default()))
            }

            fn with_locks(locks: SetLocks<K>) -> Self {
                let versions = VersionStore::new_global();
                Self {
                    base: Arc::new(Versioned::new($base::new(), versions)),
                    locks,
                }
            }

            /// The set's conflict abstraction: the lock word `call`
            /// takes, and its mode. Every call on `x` takes `x`'s slot
            /// exclusively, or under the coarse lock the set's one word.
            pub fn conflict(&self, call: SetCall<'_, K>) -> (&Arc<AbstractLock>, Mode) {
                let (SetCall::Add(key) | SetCall::Remove(key) | SetCall::Contains(key)) = call;
                match &self.locks {
                    SetLocks::PerKey(map) => (map.slot(key), Mode::Exclusive),
                    SetLocks::Coarse(lock) => (lock, Mode::Exclusive),
                }
            }

            /// Transactionally add `key`; returns `true` iff the set
            /// changed. Logs the inverse (`remove(key)`) for rollback.
            pub fn add(&self, txn: &Txn, key: K) -> TxResult<bool> {
                let (lock, mode) = self.conflict(SetCall::Add(&key));
                lock.acquire(txn, mode)?;
                let result = self.base.add(key.clone());
                if result {
                    txn.log_effect(
                        (Arc::clone(&self.base), key),
                        |(base, key)| {
                            base.remove(&key);
                        },
                        |(base, key), stamp| base.versions.install(key, Some(()), stamp),
                    );
                }
                Ok(result)
            }

            /// Transactionally remove `key`; returns `true` iff the set
            /// changed. Logs the inverse (`add(key)`) for rollback.
            pub fn remove(&self, txn: &Txn, key: &K) -> TxResult<bool> {
                let (lock, mode) = self.conflict(SetCall::Remove(key));
                lock.acquire(txn, mode)?;
                let result = self.base.remove(key);
                if result {
                    txn.log_effect(
                        (Arc::clone(&self.base), key.clone()),
                        |(base, key)| {
                            base.add(key);
                        },
                        |(base, key), stamp| base.versions.install(key, None, stamp),
                    );
                }
                Ok(result)
            }

            /// Transactionally test membership. No inverse is needed
            /// (the abstract state is unchanged), but the key's
            /// abstract lock is still acquired so a non-commuting
            /// `add`/`remove` of the same key cannot run concurrently
            /// (Rule 2).
            pub fn contains(&self, txn: &Txn, key: &K) -> TxResult<bool> {
                // Read-only snapshot transactions consult the version
                // slot at their snapshot timestamp: no lock, no abort.
                if let Some(ts) = txn.snapshot_ts() {
                    return Ok(self.base.versions.read_at(key, ts).is_some());
                }
                let (lock, mode) = self.conflict(SetCall::Contains(key));
                lock.acquire(txn, mode)?;
                Ok(self.base.contains(key))
            }

            /// Committed-state size (non-transactional diagnostic;
            /// exact only at quiescence).
            pub fn len(&self) -> usize {
                self.base.len()
            }

            /// Whether the committed state is empty (same caveat).
            pub fn is_empty(&self) -> bool {
                self.base.is_empty()
            }

            /// Ascending snapshot of the committed state (same caveat).
            pub fn snapshot(&self) -> Vec<K> {
                self.base.snapshot()
            }
        }
    };
}

boosted_set! {
    /// A transactional sorted set boosted from the lazy skip list —
    /// the paper's `SkipListKey` class (Figure 2).
    ///
    /// Thread-level synchronization comes entirely from the
    /// linearizable skip list (treated as a black box); transaction-
    /// level synchronization is per-key two-phase abstract locking, so
    /// transactions operating on disjoint keys neither block nor abort
    /// each other, and within a key the base object's fine-grained
    /// concurrency is preserved.
    BoostedSkipListSet, LazySkipListSet, Ord
}

boosted_set! {
    /// A transactional sorted set boosted from the lock-coupling list
    /// of the paper's introduction — the structure whose hand-over-hand
    /// critical sections "do not correspond naturally to properly-
    /// nested sub-transactions" and therefore defeat open nesting, but
    /// boost cleanly.
    BoostedListSet, LockCouplingList, Ord
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use txboost_core::{Abort, TxnConfig, TxnManager};

    fn tm() -> TxnManager {
        TxnManager::default()
    }

    fn tm_noretry() -> TxnManager {
        TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(5),
            max_retries: Some(0),
        })
    }

    #[test]
    fn committed_ops_are_visible() {
        let tm = tm();
        let s = BoostedSkipListSet::new();
        assert!(tm.run(|t| s.add(t, 5)).unwrap());
        assert!(!tm.run(|t| s.add(t, 5)).unwrap());
        assert!(tm.run(|t| s.contains(t, &5)).unwrap());
        assert!(tm.run(|t| s.remove(t, &5)).unwrap());
        assert!(!tm.run(|t| s.contains(t, &5)).unwrap());
    }

    #[test]
    fn abort_rolls_back_every_prefix() {
        // Failure injection: abort after each prefix of a 4-op
        // transaction; the committed state must be untouched each time.
        let tm = tm_noretry();
        let s = BoostedSkipListSet::new();
        tm.run(|t| s.add(t, 100)).unwrap();
        for abort_after in 0..4 {
            let r: Result<(), _> = tm.run(|t| {
                if abort_after > 0 {
                    s.add(t, 1)?;
                }
                if abort_after > 1 {
                    s.remove(t, &100)?;
                }
                if abort_after > 2 {
                    s.add(t, 2)?;
                }
                Err(Abort::explicit())
            });
            assert!(r.is_err());
            assert_eq!(
                s.snapshot(),
                vec![100],
                "state corrupted after abort at prefix {abort_after}"
            );
        }
    }

    #[test]
    fn undo_runs_in_reverse_order_add_then_remove_same_key() {
        // add(9) then remove(9) in one transaction, then abort:
        // inverses replay as add(9) then remove(9) reversed →
        // remove-inverse (add) first... i.e. final state has no 9.
        let tm = tm_noretry();
        let s = BoostedSkipListSet::new();
        let r: Result<(), _> = tm.run(|t| {
            assert!(s.add(t, 9)?);
            assert!(s.remove(t, &9)?);
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert!(s.snapshot().is_empty(), "LIFO undo order violated");
    }

    #[test]
    fn disjoint_keys_never_conflict() {
        let tm = std::sync::Arc::new(tm());
        let s = std::sync::Arc::new(BoostedSkipListSet::new());
        std::thread::scope(|sc| {
            for th in 0..8i64 {
                let (tm, s) = (std::sync::Arc::clone(&tm), std::sync::Arc::clone(&s));
                sc.spawn(move || {
                    for i in 0..200 {
                        tm.run(|t| s.add(t, th * 1000 + i)).unwrap();
                    }
                });
            }
        });
        let snap = tm.stats().snapshot();
        assert_eq!(snap.committed, 1600);
        assert_eq!(snap.aborted, 0, "disjoint-key transactions aborted");
        assert_eq!(s.len(), 1600);
    }

    #[test]
    fn read_only_contains_sees_committed_membership_without_locks() {
        let tm = tm_noretry();
        let s = BoostedSkipListSet::new();
        tm.run(|t| s.add(t, 3)).unwrap();
        tm.run(|t| s.add(t, 4)).unwrap();
        tm.run(|t| s.remove(t, &4).map(|_| ())).unwrap();
        // A writer holds key 3's abstract lock; the snapshot read
        // neither blocks nor aborts.
        let writer = tm.begin();
        s.remove(&writer, &3).unwrap();
        assert!(tm.run_read_only(|t| s.contains(t, &3)).unwrap());
        assert!(!tm.run_read_only(|t| s.contains(t, &4)).unwrap());
        let r = tm.run_read_only(|t| s.add(t, 9));
        assert!(matches!(r, Err(txboost_core::TxnError::ReadOnlyViolation)));
        tm.commit(writer);
        assert!(!tm.run_read_only(|t| s.contains(t, &3)).unwrap());
    }

    #[test]
    fn same_key_conflicts_are_detected() {
        let tm = tm_noretry();
        let s = BoostedSkipListSet::new();
        let holder = tm.begin();
        s.add(&holder, 7).unwrap();
        // A second transaction touching key 7 times out...
        let t2 = tm.begin();
        assert_eq!(s.contains(&t2, &7).unwrap_err(), Abort::lock_timeout());
        // ...but a different key is free.
        assert!(!s.contains(&t2, &8).unwrap());
        tm.commit(holder);
        tm.commit(t2);
    }

    #[test]
    fn coarse_lock_serializes_even_disjoint_keys() {
        let tm = tm_noretry();
        let s = BoostedSkipListSet::with_coarse_lock();
        let a = tm.begin();
        s.add(&a, 1).unwrap();
        let b = tm.begin();
        assert_eq!(s.add(&b, 2).unwrap_err(), Abort::lock_timeout());
        tm.commit(a);
        assert!(s.add(&b, 2).unwrap());
        tm.commit(b);
        assert_eq!(s.snapshot(), vec![1, 2]);
    }

    #[test]
    fn listset_behaves_identically() {
        let tm = tm();
        let s = BoostedListSet::new();
        assert!(tm.run(|t| s.add(t, 2)).unwrap());
        assert!(tm.run(|t| s.add(t, 4)).unwrap());
        let r: Result<(), _> = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        })
        .run(|t| {
            s.remove(t, &2)?;
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(s.snapshot(), vec![2, 4]);
    }

    #[test]
    fn concurrent_mixed_transactions_preserve_set_semantics() {
        let tm = std::sync::Arc::new(tm());
        let s = std::sync::Arc::new(BoostedSkipListSet::new());
        std::thread::scope(|sc| {
            for th in 0..6u64 {
                let (tm, s) = (std::sync::Arc::clone(&tm), std::sync::Arc::clone(&s));
                sc.spawn(move || {
                    use rand::prelude::*;
                    let mut rng = StdRng::seed_from_u64(th);
                    for _ in 0..300 {
                        let k: i64 = rng.random_range(0..24);
                        if rng.random_bool(0.5) {
                            tm.run(|t| s.add(t, k)).unwrap();
                        } else {
                            tm.run(|t| s.remove(t, &k)).unwrap();
                        }
                    }
                });
            }
        });
        let snap = s.snapshot();
        assert!(snap.windows(2).all(|w| w[0] < w[1]), "set invariant broken");
    }

    #[test]
    fn multi_key_transaction_is_atomic_under_concurrent_readers() {
        // Writers move a token between two keys inside one transaction;
        // readers must always observe exactly one of the keys present.
        let tm = std::sync::Arc::new(tm());
        let s = std::sync::Arc::new(BoostedSkipListSet::new());
        tm.run(|t| s.add(t, 0)).unwrap();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        std::thread::scope(|sc| {
            {
                let (tm, s, stop) = (
                    std::sync::Arc::clone(&tm),
                    std::sync::Arc::clone(&s),
                    std::sync::Arc::clone(&stop),
                );
                sc.spawn(move || {
                    for _ in 0..300 {
                        tm.run(|t| {
                            if s.contains(t, &0)? {
                                s.remove(t, &0)?;
                                s.add(t, 1)?;
                            } else {
                                s.remove(t, &1)?;
                                s.add(t, 0)?;
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                    stop.store(true, std::sync::atomic::Ordering::Relaxed);
                });
            }
            let (tm, s) = (std::sync::Arc::clone(&tm), std::sync::Arc::clone(&s));
            sc.spawn(move || {
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let (a, b) = tm
                        .run(|t| Ok((s.contains(t, &0)?, s.contains(t, &1)?)))
                        .unwrap();
                    assert!(a ^ b, "token observed in both/neither place: {a} {b}");
                }
            });
        });
    }
}
