//! `KeyLockMap` — the paper's `LockKey` (Figure 3) as a fixed table of
//! lock words: a key's abstract lock is the slot its hash selects.

use super::abstract_lock::{AbstractLock, Mode};
use super::deadline::Deadline;
use crate::{Abort, TxResult, Txn, TxnId};
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::marker::PhantomData;
use std::sync::{Arc, OnceLock};
use std::time::Duration;

/// Lock slots per table (a power of two; 64 KiB of empty slots). A
/// transaction falsely conflicts on an acquire with probability ≈
/// (locks held by other live transactions) ÷ `SLOTS`.
const SLOTS: usize = 4096;

/// A fixed table of [`AbstractLock`]s indexed by key hash.
///
/// The key-based conflict discipline of the paper's `SkipListKey`
/// example: before a transaction calls `add(x)`, `remove(x)` or
/// `contains(x)` on a boosted set it acquires the lock for key `x`.
/// Calls on keys in distinct slots proceed in parallel; calls on the
/// same key, or on two keys whose hashes share a slot, serialize. Rule 2
/// only asks that non-commuting calls conflict — conflicting *more* is
/// always safe (Proust, arXiv 1702.04866: a conflict abstraction maps
/// calls onto a *finite* set of conflict locations) — so keys sharing a
/// slot simply behave as one key: exclusive across transactions,
/// reentrant inside one.
///
/// The table never grows: memory is bounded by `SLOTS` locks however
/// many distinct keys are ever locked, there is no per-key entry to
/// create, find or reclaim, and acquiring is one hash, one mask and the
/// slot's own compare-and-swap. Reacquisition is the same path — the
/// CAS fails on a word the transaction itself wrote.
///
/// The hash is **fixed-seed**: which keys share a slot is a property
/// of the keys, not of the process, so a deterministic-scheduler seed
/// replays the same conflicts on every run.
pub struct KeyLockMap<K> {
    /// Locks are created on a slot's first use, so an idle table costs
    /// its slot array and nothing else.
    slots: Box<[OnceLock<Arc<AbstractLock>>]>,
    _key: PhantomData<fn(&K)>,
}

impl<K> fmt::Debug for KeyLockMap<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("KeyLockMap").finish_non_exhaustive()
    }
}

impl<K: Hash> Default for KeyLockMap<K> {
    fn default() -> Self {
        KeyLockMap::new()
    }
}

impl<K: Hash> KeyLockMap<K> {
    /// An empty lock table.
    pub fn new() -> Self {
        KeyLockMap {
            slots: (0..SLOTS).map(|_| OnceLock::new()).collect(),
            _key: PhantomData,
        }
    }

    /// The slot whose lock guards `key` (diagnostics/tests: two keys
    /// conflict iff their slots are equal).
    pub fn slot_of(&self, key: &K) -> usize {
        let hash = BuildHasherDefault::<DefaultHasher>::default().hash_one(key);
        hash as usize & (SLOTS - 1)
    }

    /// The lock word of `key`'s slot — what a conflict table names for
    /// a call on `key`.
    pub fn slot(&self, key: &K) -> &Arc<AbstractLock> {
        self.slots[self.slot_of(key)].get_or_init(Arc::default)
    }

    /// Acquire the abstract lock for `key` on behalf of `txn`, blocking
    /// (up to the transaction's lock timeout) while another transaction
    /// holds it or a key in the same slot. The lock is held until `txn`
    /// commits or aborts; a timed-out acquisition leaves nothing behind.
    pub fn lock(&self, txn: &Txn, key: &K) -> TxResult<()> {
        self.slot(key).acquire(txn, Mode::Exclusive)
    }

    /// Whether any transaction currently holds `key`'s slot
    /// (diagnostics/tests; inherently racy).
    pub fn is_locked(&self, key: &K) -> bool {
        self.slots[self.slot_of(key)]
            .get()
            .is_some_and(|lock| lock.owner().is_some())
    }

    /// Run `f` while holding every slot of the table exclusively, then
    /// release them all: `f` starts once every transaction that held a
    /// slot has committed or aborted, and no transaction takes one
    /// until `f` returns. The slots are taken in address order, the
    /// order every multi-op server script takes its locks in, so this
    /// cannot close a wait cycle with such scripts. The whole pass waits
    /// up to `timeout` in total (`Duration::MAX`: no deadline), on the
    /// wall clock or, under a det scheduler, on virtual time; `Err` is a
    /// lock timeout, with every slot taken so far released and `f` not
    /// run.
    ///
    /// It takes the slots as a transaction of its own that holds
    /// nothing else, with no yield point per slot, so must not be
    /// called from a transaction that holds a slot of this table: it
    /// would wait for itself.
    pub fn with_every_slot<R>(&self, timeout: Duration, f: impl FnOnce() -> R) -> TxResult<R> {
        /// Every slot in address order, the first `taken` of them held
        /// by `id`; those are released on every exit.
        struct Held<'a> {
            id: TxnId,
            slots: Vec<&'a Arc<AbstractLock>>,
            taken: usize,
        }
        impl Drop for Held<'_> {
            fn drop(&mut self) {
                for lock in &self.slots[..self.taken] {
                    lock.release(self.id);
                }
            }
        }
        let mut held = Held {
            id: crate::txn::next_txn_id(),
            slots: self
                .slots
                .iter()
                .map(|slot| slot.get_or_init(Arc::default))
                .collect(),
            taken: 0,
        };
        held.slots.sort_unstable_by_key(|lock| Arc::as_ptr(lock));
        let deadline = Deadline::after(timeout);
        while let Some(lock) = held.slots.get(held.taken) {
            lock.lock_for(held.id, || deadline)
                .map_err(|_| Abort::lock_timeout())?;
            held.taken += 1;
        }
        Ok(f())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Abort, TxnConfig, TxnManager};
    use std::time::Duration;

    fn manager(timeout_ms: u64) -> TxnManager {
        TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(timeout_ms),
            max_retries: Some(0),
        })
    }

    /// The first key above `key` that shares (`true`) or does not share
    /// (`false`) its slot.
    fn next_key(map: &KeyLockMap<i64>, key: i64, sharing: bool) -> i64 {
        (key + 1..1 << 20)
            .find(|k| (map.slot_of(k) == map.slot_of(&key)) == sharing)
            .unwrap()
    }

    #[test]
    fn distinct_keys_do_not_conflict() {
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let other = next_key(&map, 2, false);
        let a = tm.begin();
        let b = tm.begin();
        map.lock(&a, &2).unwrap();
        map.lock(&b, &other).unwrap(); // must not block: add(2) ⇔ add(other)
        assert!(map.is_locked(&2) && map.is_locked(&other));
        tm.commit(a);
        tm.commit(b);
        assert!(!map.is_locked(&2) && !map.is_locked(&other));
    }

    #[test]
    fn same_key_conflicts_until_commit() {
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let a = tm.begin();
        map.lock(&a, &7).unwrap();
        let b = tm.begin();
        assert_eq!(map.lock(&b, &7).unwrap_err(), Abort::lock_timeout());
        assert_eq!(b.held_lock_count(), 0);
        assert!(map.is_locked(&7));
        tm.commit(a);
        assert!(!map.is_locked(&7));
        map.lock(&b, &7).unwrap();
        tm.commit(b);
    }

    #[test]
    fn a_slot_is_reentrant_for_its_owner_and_exclusive_across_keys() {
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let twin = next_key(&map, 1, true);
        let a = tm.begin();
        map.lock(&a, &1).unwrap();
        // Reentrant inside one transaction: one lock, held once.
        map.lock(&a, &1).unwrap();
        map.lock(&a, &twin).unwrap();
        assert_eq!(a.held_lock_count(), 1);
        // Exclusive across transactions.
        let b = tm.begin();
        assert_eq!(map.lock(&b, &twin).unwrap_err(), Abort::lock_timeout());
        assert_eq!(b.held_lock_count(), 0);
        // Released once, for both keys.
        tm.commit(a);
        assert!(!map.is_locked(&1) && !map.is_locked(&twin));
        map.lock(&b, &twin).unwrap();
        map.lock(&b, &1).unwrap();
        assert_eq!(b.held_lock_count(), 1);
        tm.commit(b);
    }

    #[test]
    fn every_slot_waits_at_most_the_timeout_in_total() {
        // Two writers hold two slots and let them go one after the
        // other: the one taken first at 40 ms, within the 50 ms timeout,
        // the other at 70 ms, past it but within 50 ms of the first. The
        // pass must time out at 50 ms; a fresh timeout per slot would
        // wait out both and run `f`.
        const TIMEOUT: Duration = Duration::from_millis(50);
        let tm = manager(5);
        let map = KeyLockMap::<i64>::new();
        let other = next_key(&map, 0, false);
        // The pass takes the slots in address order.
        let (first, second) = if Arc::as_ptr(map.slot(&0)) < Arc::as_ptr(map.slot(&other)) {
            (0, other)
        } else {
            (other, 0)
        };
        let held = std::sync::Barrier::new(3);
        let ran = std::thread::scope(|s| {
            for (key, hold_ms) in [(first, 40), (second, 70)] {
                let (tm, map, held) = (&tm, &map, &held);
                s.spawn(move || {
                    let t = tm.begin();
                    map.lock(&t, &key).unwrap();
                    held.wait();
                    std::thread::sleep(Duration::from_millis(hold_ms));
                    tm.commit(t);
                });
            }
            held.wait();
            map.with_every_slot(TIMEOUT, || ())
        });
        assert_eq!(ran, Err(Abort::lock_timeout()));
        // Nothing taken before the timeout stayed held.
        assert_eq!(map.with_every_slot(Duration::ZERO, || 1), Ok(1));
    }

    #[test]
    fn slots_do_not_depend_on_the_table_or_the_process() {
        // Fixed-seed hashing: every table agrees on every key's slot,
        // so a deterministic sweep's conflicts replay.
        let (a, b) = (KeyLockMap::<i64>::new(), KeyLockMap::<i64>::new());
        for key in 0..1000 {
            assert_eq!(a.slot_of(&key), b.slot_of(&key));
        }
        let hot: std::collections::HashSet<_> = (0..16).map(|k| a.slot_of(&k)).collect();
        assert_eq!(hot.len(), 16, "the benchmark's hot keys share no slot");
    }

    #[test]
    fn works_with_string_keys() {
        let tm = manager(5);
        let map = KeyLockMap::<String>::new();
        let t = tm.begin();
        map.lock(&t, &"alpha".to_string()).unwrap();
        map.lock(&t, &"beta".to_string()).unwrap();
        assert_eq!(t.held_lock_count(), 2);
        tm.commit(t);
    }

    #[test]
    fn parallel_threads_on_disjoint_keys_all_commit() {
        let tm = TxnManager::default();
        let map = KeyLockMap::<usize>::new();
        std::thread::scope(|s| {
            for t in 0..8 {
                let (tm, map) = (&tm, &map);
                s.spawn(move || {
                    for i in 0..100 {
                        tm.run(|txn| map.lock(txn, &(t * 1000 + i))).unwrap();
                    }
                });
            }
        });
        let snap = tm.stats().snapshot();
        assert_eq!((snap.committed, snap.aborted), (800, 0));
    }

    #[test]
    fn parallel_reacquires_on_a_shared_key_lose_no_update() {
        // A non-atomic read-modify-write under the abstract lock loses
        // an update unless every commit genuinely held the key.
        use std::sync::atomic::{AtomicUsize, Ordering::Relaxed};
        let tm = manager(1_000);
        let map = KeyLockMap::<usize>::new();
        let token = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..4 {
                s.spawn(|| {
                    for _ in 0..200 {
                        tm.run(|txn| {
                            map.lock(txn, &3)?;
                            map.lock(txn, &3)?;
                            let v = token.load(Relaxed);
                            token.store(std::hint::black_box(v) + 1, Relaxed);
                            map.lock(txn, &3) // and again
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(token.load(Relaxed), 800);
    }
}
