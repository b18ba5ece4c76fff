//! The boosted transactional set — the paper's `SkipListKey` example
//! (Figure 2), written once over any linearizable set: the lazy skip
//! list, the lock-coupling list the paper's Section 1 motivates, and
//! the synchronized red-black tree of Section 4.1.

use std::hash::Hash;
use std::sync::Arc;
use txboost_core::locks::{AbstractLock, KeyLockMap, Mode, ObjectLock};
use txboost_core::{TxResult, Txn};
use txboost_linearizable::{LazySkipListSet, LinearizableSet, LockCouplingList, SyncRbTreeSet};

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
    /// One lock for the whole set: the paper's single two-phase lock
    /// (Fig. 9's tree) and Fig. 10's coarse baseline.
    Coarse(ObjectLock),
}

/// A transactional set boosted from the linearizable set `B`.
///
/// Thread-level synchronization comes entirely from the base object
/// (treated as a black box); transaction-level synchronization is
/// two-phase abstract locking, per key or coarse. Every call is the
/// paper's recipe: its conflict entry, acquire, the base call, and
/// `log_undo` of its inverse when the set changed.
#[derive(Debug)]
pub struct BoostedSet<K, B> {
    base: Arc<B>,
    locks: SetLocks<K>,
}

/// The paper's `SkipListKey` (Figure 2): the lazy skip list, whose
/// fine-grained concurrency within a key survives boosting.
pub type BoostedSkipListSet<K> = BoostedSet<K, LazySkipListSet<K>>;

/// The lock-coupling list of the paper's introduction — the structure
/// whose hand-over-hand critical sections "do not correspond naturally
/// to properly-nested sub-transactions" and therefore defeat open
/// nesting, but boost cleanly.
pub type BoostedListSet<K> = BoostedSet<K, LockCouplingList<K>>;

/// The red-black tree of the paper's first experiment (Section 4.1,
/// Figure 9): "we made all the sequential methods synchronized, yielding
/// a linearizable base type with no thread-level concurrency". Fig. 9
/// builds it [`with_coarse_lock`](BoostedSet::with_coarse_lock), the
/// paper's single two-phase lock.
pub type BoostedRbTreeSet<K> = BoostedSet<K, SyncRbTreeSet<K>>;

impl<K, B> Default for BoostedSet<K, B>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    B: LinearizableSet<K> + Default + Send + Sync + 'static,
{
    fn default() -> Self {
        Self::new()
    }
}

impl<K, B> BoostedSet<K, B>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    B: LinearizableSet<K> + Default + Send + Sync + 'static,
{
    /// An empty set with per-key abstract locking (the paper's
    /// recommended discipline).
    pub fn new() -> Self {
        Self::with_locks(SetLocks::PerKey(KeyLockMap::new()))
    }

    /// An empty set with a single coarse transactional lock: correct,
    /// but it serializes every transaction touching the set.
    pub fn with_coarse_lock() -> Self {
        Self::with_locks(SetLocks::Coarse(ObjectLock::new()))
    }

    fn with_locks(locks: SetLocks<K>) -> Self {
        Self {
            base: Arc::default(),
            locks,
        }
    }

    /// The set's conflict abstraction: the lock word `call` takes, and
    /// its mode. Every call on `x` takes `x`'s slot exclusively, or
    /// under the coarse lock the set's one word.
    pub fn conflict(&self, call: SetCall<'_, K>) -> (&'static AbstractLock, Mode) {
        let (SetCall::Add(key) | SetCall::Remove(key) | SetCall::Contains(key)) = call;
        match &self.locks {
            SetLocks::PerKey(map) => (map.slot(key), Mode::Exclusive),
            SetLocks::Coarse(lock) => (lock.word(), Mode::Exclusive),
        }
    }

    /// Transactionally add `key`; returns `true` iff the set changed.
    /// Logs the inverse (`remove(key)`) for rollback.
    pub fn add(&self, txn: &Txn, key: K) -> TxResult<bool> {
        let (lock, mode) = self.conflict(SetCall::Add(&key));
        lock.acquire(txn, mode)?;
        let changed = self.base.add(key.clone());
        if changed {
            let base = Arc::clone(&self.base);
            txn.log_undo(move || {
                base.remove(&key);
            });
        }
        Ok(changed)
    }

    /// Transactionally remove `key`; returns `true` iff the set
    /// changed. Logs the inverse (`add(key)`) for rollback.
    pub fn remove(&self, txn: &Txn, key: &K) -> TxResult<bool> {
        let (lock, mode) = self.conflict(SetCall::Remove(key));
        lock.acquire(txn, mode)?;
        let changed = self.base.remove(key);
        if changed {
            let (base, key) = (Arc::clone(&self.base), key.clone());
            txn.log_undo(move || {
                base.add(key);
            });
        }
        Ok(changed)
    }

    /// Transactionally test membership. No inverse is needed (the
    /// abstract state is unchanged), but the key's abstract lock is
    /// still acquired so a non-commuting `add`/`remove` of the same key
    /// cannot run concurrently (Rule 2). A set keeps no versions, so
    /// inside a read-only transaction this fails with
    /// `ReadOnlyViolation`.
    pub fn contains(&self, txn: &Txn, key: &K) -> TxResult<bool> {
        let (lock, mode) = self.conflict(SetCall::Contains(key));
        lock.acquire(txn, mode)?;
        Ok(self.base.contains(key))
    }

    /// Committed-state size (non-transactional diagnostic; exact only
    /// at quiescence).
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

    /// The base object, for diagnostics such as the tree's
    /// `check_invariants`.
    pub fn base(&self) -> &B {
        &self.base
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::any::type_name;
    use std::sync::atomic::{AtomicBool, Ordering};
    use std::time::Duration;
    use txboost_core::{Abort, TxnConfig, TxnError, TxnManager};

    /// A base object the tests below can boost.
    trait Base: LinearizableSet<i64> + Default + Send + Sync + 'static {}
    impl<B: LinearizableSet<i64> + Default + Send + Sync + 'static> Base for B {}

    /// `#[test] fn NAME` running its body once per base object, as `B`.
    macro_rules! on_every_base {
        ($(fn $name:ident() $body:block)*) => {$(
            #[test]
            fn $name() {
                fn on<B: Base>() $body
                on::<LazySkipListSet<i64>>();
                on::<LockCouplingList<i64>>();
                on::<SyncRbTreeSet<i64>>();
            }
        )*};
    }

    fn tm() -> TxnManager {
        TxnManager::default()
    }

    fn tm_noretry() -> TxnManager {
        TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(5),
            max_retries: Some(0),
        })
    }

    on_every_base! {
        fn committed_ops_are_visible() {
            let tm = tm();
            let s = BoostedSet::<i64, B>::new();
            assert!(tm.run(|t| s.add(t, 5)).unwrap());
            assert!(!tm.run(|t| s.add(t, 5)).unwrap());
            assert!(tm.run(|t| s.contains(t, &5)).unwrap());
            assert!(tm.run(|t| s.remove(t, &5)).unwrap());
            assert!(!tm.run(|t| s.contains(t, &5)).unwrap());
            assert!(s.is_empty(), "{}", type_name::<B>());
        }

        fn abort_rolls_back_every_prefix() {
            // Failure injection: abort after each prefix of a 4-op
            // transaction; the committed state must be untouched each time.
            let tm = tm_noretry();
            let s = BoostedSet::<i64, B>::new();
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
                    "{}: state corrupted after abort at prefix {abort_after}",
                    type_name::<B>()
                );
            }
        }

        fn undo_runs_in_reverse_order_add_then_remove_same_key() {
            // add(9) then remove(9), then abort: the inverses run
            // newest-first (add(9), then remove(9)), leaving no 9.
            let tm = tm_noretry();
            let s = BoostedSet::<i64, B>::new();
            let r: Result<(), _> = tm.run(|t| {
                assert!(s.add(t, 9)?);
                assert!(s.remove(t, &9)?);
                Err(Abort::explicit())
            });
            assert!(r.is_err());
            assert!(s.snapshot().is_empty(), "{}: LIFO undo order violated", type_name::<B>());
        }

        fn disjoint_keys_never_conflict() {
            let tm = tm();
            let s = BoostedSet::<i64, B>::new();
            std::thread::scope(|sc| {
                for th in 0..8i64 {
                    let (tm, s) = (&tm, &s);
                    sc.spawn(move || {
                        for i in 0..200 {
                            tm.run(|t| s.add(t, th * 1000 + i)).unwrap();
                        }
                    });
                }
            });
            let snap = tm.stats().snapshot();
            assert_eq!(snap.committed, 1600);
            assert_eq!(snap.aborted, 0, "{}: disjoint-key transactions aborted", type_name::<B>());
            assert_eq!(s.len(), 1600);
        }

        fn same_key_conflicts_are_detected() {
            let tm = tm_noretry();
            let s = BoostedSet::<i64, B>::new();
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

        fn read_only_contains_fails_and_holds_no_lock() {
            // A set keeps no committed versions, so a snapshot read has
            // nothing to read at its timestamp: `contains` needs the
            // key's abstract lock, which a read-only transaction may not
            // take.
            let tm = tm_noretry();
            let s = BoostedSet::<i64, B>::new();
            tm.run(|t| s.add(t, 3)).unwrap();
            let r = tm.run_read_only(|t| s.contains(t, &3));
            assert!(matches!(r, Err(TxnError::ReadOnlyViolation)), "{}", type_name::<B>());
            let (lock, _) = s.conflict(SetCall::Contains(&3));
            assert_eq!(lock.holders(), (None, 0), "a failed snapshot read left a lock");
            assert!(tm.run(|t| s.remove(t, &3)).unwrap());
        }

        fn coarse_lock_serializes_even_disjoint_keys() {
            let tm = tm_noretry();
            let s = BoostedSet::<i64, B>::with_coarse_lock();
            let a = tm.begin();
            s.add(&a, 1).unwrap();
            let b = tm.begin();
            assert_eq!(s.add(&b, 2).unwrap_err(), Abort::lock_timeout());
            tm.commit(a);
            assert!(s.add(&b, 2).unwrap());
            tm.commit(b);
            assert_eq!(s.snapshot(), vec![1, 2]);
        }

        fn whole_traversal_costs_one_lock_acquisition() {
            // The paper's point about the coarse tree: 50 method calls,
            // one abstract lock.
            let tm = tm();
            let s = BoostedSet::<i64, B>::with_coarse_lock();
            tm.run(|t| {
                for i in 0..50 {
                    s.add(t, i)?;
                }
                assert_eq!(t.held_lock_count(), 1, "{}", type_name::<B>());
                Ok(())
            })
            .unwrap();
        }

        fn concurrent_transactions_serialize_but_all_commit() {
            let tm = tm();
            let s = BoostedSet::<i64, B>::with_coarse_lock();
            std::thread::scope(|sc| {
                for th in 0..4i64 {
                    let (tm, s) = (&tm, &s);
                    sc.spawn(move || {
                        for i in 0..200 {
                            tm.run(|t| s.add(t, th * 1000 + i)).unwrap();
                        }
                    });
                }
            });
            assert_eq!(s.len(), 800, "{}", type_name::<B>());
        }

        fn concurrent_mixed_transactions_preserve_set_semantics() {
            let tm = tm();
            let s = BoostedSet::<i64, B>::new();
            std::thread::scope(|sc| {
                for th in 0..6u64 {
                    let (tm, s) = (&tm, &s);
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
            assert!(snap.windows(2).all(|w| w[0] < w[1]), "{}: set invariant broken", type_name::<B>());
        }

        fn multi_key_transaction_is_atomic_under_concurrent_readers() {
            // Writers move a token between two keys inside one
            // transaction; readers must always observe exactly one of
            // the keys present.
            let tm = tm();
            let s = BoostedSet::<i64, B>::new();
            tm.run(|t| s.add(t, 0)).unwrap();
            let stop = AtomicBool::new(false);
            std::thread::scope(|sc| {
                sc.spawn(|| {
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
                    stop.store(true, Ordering::Relaxed);
                });
                sc.spawn(|| {
                    while !stop.load(Ordering::Relaxed) {
                        let (a, b) = tm
                            .run(|t| Ok((s.contains(t, &0)?, s.contains(t, &1)?)))
                            .unwrap();
                        assert!(a ^ b, "token observed in both/neither place: {a} {b}");
                    }
                });
            });
        }
    }

    #[test]
    fn listset_behaves_identically() {
        // One run of adds and removes, every third transaction aborted:
        // the list answers each call as the skip list and the tree do,
        // and ends with the same keys.
        fn replay<B: Base>() -> (Vec<bool>, Vec<i64>) {
            let tm = tm_noretry();
            let s = BoostedSet::<i64, B>::new();
            let mut answers = Vec::new();
            for i in 0..60 {
                let key = i * 5 % 11;
                let r = tm.run(|t| {
                    let changed = if i % 2 == 0 {
                        s.add(t, key)?
                    } else {
                        s.remove(t, &key)?
                    };
                    let present = s.contains(t, &key)?;
                    if i % 3 == 2 {
                        return Err(Abort::explicit());
                    }
                    Ok([changed, present])
                });
                match r {
                    Ok(answer) => answers.extend(answer),
                    Err(_) => assert_eq!(i % 3, 2, "only the explicit aborts fail"),
                }
            }
            (answers, s.snapshot())
        }
        let list = replay::<LockCouplingList<i64>>();
        assert_eq!(list, replay::<LazySkipListSet<i64>>());
        assert_eq!(list, replay::<SyncRbTreeSet<i64>>());
    }

    #[test]
    fn transactional_set_semantics() {
        let tm = tm();
        let s = BoostedRbTreeSet::with_coarse_lock();
        assert!(tm.run(|t| s.add(t, 3)).unwrap());
        assert!(!tm.run(|t| s.add(t, 3)).unwrap());
        assert!(tm.run(|t| s.contains(t, &3)).unwrap());
        assert!(tm.run(|t| s.remove(t, &3)).unwrap());
        assert!(s.is_empty());
        s.base().check_invariants().unwrap();
    }

    #[test]
    fn abort_restores_tree() {
        let tm = tm_noretry();
        let s = BoostedRbTreeSet::with_coarse_lock();
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
        s.base().check_invariants().unwrap();
    }
}
