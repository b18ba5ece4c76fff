//! The tables of lock words: `KeyLockMap`, the paper's `LockKey`
//! (Figure 3), where a key's abstract lock is the word its hash selects,
//! and `ObjectLock`, the one word of an object whose calls all take it.
//!
//! Both hand out their words as `&'static`, and transactions hold them
//! so: a table is allocated once and never returned to the allocator.
//! When its owner drops, it goes onto a free list of its size only if
//! every word reads 0. A held word never does, so a table dropped while
//! held is leaked instead: its holders release into memory nobody else
//! is given.

use super::abstract_lock::{AbstractLock, Mode};
use super::deadline::Deadline;
use crate::{Abort, TxResult, Txn};
use parking_lot::Mutex;
use std::fmt;
use std::hash::{BuildHasher, BuildHasherDefault, DefaultHasher, Hash};
use std::marker::PhantomData;
use std::time::Duration;

/// Lock words per `KeyLockMap` (a power of two; 32 KiB). An acquire
/// falsely conflicts with probability ≈ (locks held by other live
/// transactions) ÷ `SLOTS`.
const SLOTS: usize = 4096;

/// Dropped tables whose words were all free: single words, then
/// `SLOTS`-word tables.
static FREE: [Mutex<Vec<&'static [AbstractLock]>>; 2] = [const { Mutex::new(Vec::new()) }; 2];

/// `len` free lock words: a dropped table's, or new and never freed.
fn take_words(len: usize) -> &'static [AbstractLock] {
    let recycled = FREE[usize::from(len == SLOTS)].lock().pop();
    recycled.unwrap_or_else(|| Box::leak((0..len).map(|_| AbstractLock::new()).collect()))
}

/// Hand a dropped owner's words to the next owner, unless one is held.
fn give_back(words: &'static [AbstractLock]) {
    if words.iter().all(AbstractLock::is_free) {
        FREE[usize::from(words.len() == SLOTS)].lock().push(words);
    }
}

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
/// The table is one array of `SLOTS` words taken whole at
/// construction (slot order is address order) and never grows: there
/// is no per-key entry to create, find or reclaim, and acquiring is one
/// hash, one mask and the slot's own compare-and-swap. The hash is
/// **fixed-seed**: which keys share a slot is a property of the keys,
/// not of the process, so a det-scheduler seed replays its conflicts.
pub struct KeyLockMap<K> {
    words: &'static [AbstractLock],
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

impl<K> Drop for KeyLockMap<K> {
    fn drop(&mut self) {
        give_back(self.words);
    }
}

impl<K: Hash> KeyLockMap<K> {
    /// An unheld lock table.
    pub fn new() -> Self {
        KeyLockMap {
            words: take_words(SLOTS),
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
    /// a call on `key`; this table's only while the table lives.
    pub fn slot(&self, key: &K) -> &'static AbstractLock {
        &self.words[self.slot_of(key)]
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
        self.slot(key).owner().is_some()
    }

    /// Run `f` while holding every slot exclusively, then release them
    /// all: `f` starts once every transaction that held a slot has
    /// committed or aborted, and no transaction takes one until `f`
    /// returns. Slots are taken in address order, as every multi-op
    /// server script takes its locks, so this closes no wait cycle with
    /// one. The pass waits up to `timeout` in all (`Duration::MAX`: no
    /// deadline), on the wall clock or on a det scheduler's virtual
    /// time; `Err` is a lock timeout, with every slot taken released and
    /// `f` not run. It allocates nothing, and takes the slots as a
    /// transaction of its own: a transaction holding a slot of this
    /// table must not call it, or it would wait for itself.
    pub fn with_every_slot<R>(&self, timeout: Duration, f: impl FnOnce() -> R) -> TxResult<R> {
        /// The words a transaction id holds; released on every exit.
        struct Held(crate::TxnId, &'static [AbstractLock]);
        impl Drop for Held {
            fn drop(&mut self) {
                self.1.iter().for_each(|lock| lock.release(self.0));
            }
        }
        let mut held = Held(crate::txn::next_txn_id(), &[]);
        let deadline = Deadline::after(timeout);
        for (taken, lock) in self.words.iter().enumerate() {
            (lock.lock_for(held.0, || deadline)).map_err(|_| Abort::lock_timeout())?;
            held.1 = &self.words[..=taken];
        }
        Ok(f())
    }
}

/// The one lock word of an object whose calls all take it (the
/// readers-writer and single-lock disciplines): a table of one.
#[derive(Debug)]
pub struct ObjectLock(&'static AbstractLock);

impl Default for ObjectLock {
    fn default() -> Self {
        ObjectLock::new()
    }
}

impl Drop for ObjectLock {
    fn drop(&mut self) {
        give_back(std::slice::from_ref(self.0));
    }
}

impl ObjectLock {
    /// An unheld lock.
    pub fn new() -> Self {
        ObjectLock(&take_words(1)[0])
    }

    /// The word — what a conflict table names; this object's only while
    /// the `ObjectLock` lives.
    pub fn word(&self) -> &'static AbstractLock {
        self.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TxnConfig, TxnManager};

    fn manager(timeout_ms: u64) -> TxnManager {
        TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(timeout_ms),
            max_retries: Some(0),
        })
    }

    /// The first key above `key` that shares its slot, or that does not.
    fn next_key(map: &KeyLockMap<i64>, key: i64, sharing: bool) -> i64 {
        (key + 1..1 << 20)
            .find(|k| (map.slot_of(k) == map.slot_of(&key)) == sharing)
            .unwrap()
    }

    const TIMED_OUT: TxResult<()> = Err(Abort::lock_timeout());

    #[test]
    fn distinct_keys_do_not_conflict() {
        let (tm, map) = (manager(5), KeyLockMap::<i64>::new());
        let other = next_key(&map, 2, false);
        let (a, b) = (tm.begin(), tm.begin());
        map.lock(&a, &2).unwrap();
        map.lock(&b, &other).unwrap(); // must not block: add(2) ⇔ add(other)
        assert!(map.is_locked(&2) && map.is_locked(&other));
        tm.commit(a);
        tm.commit(b);
        assert!(!map.is_locked(&2) && !map.is_locked(&other));
    }

    #[test]
    fn same_key_conflicts_until_commit() {
        let (tm, map) = (manager(5), KeyLockMap::<i64>::new());
        let (a, b) = (tm.begin(), tm.begin());
        map.lock(&a, &7).unwrap();
        assert_eq!(map.lock(&b, &7), TIMED_OUT);
        assert_eq!(b.held_lock_count(), 0);
        assert!(map.is_locked(&7));
        tm.commit(a);
        assert!(!map.is_locked(&7));
        map.lock(&b, &7).unwrap();
        tm.commit(b);
    }

    #[test]
    fn a_slot_is_reentrant_for_its_owner_and_exclusive_across_keys() {
        let (tm, map) = (manager(5), KeyLockMap::<i64>::new());
        let twin = next_key(&map, 1, true);
        let (a, b) = (tm.begin(), tm.begin());
        map.lock(&a, &1).unwrap();
        // Reentrant inside one transaction: one lock, held once.
        map.lock(&a, &1).unwrap();
        map.lock(&a, &twin).unwrap();
        assert_eq!(a.held_lock_count(), 1);
        // Exclusive across transactions.
        assert_eq!(map.lock(&b, &twin), TIMED_OUT);
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
        let (tm, map) = (manager(5), KeyLockMap::<i64>::new());
        // The pass takes the slots in slot order.
        let mut keys = [0, next_key(&map, 0, false)];
        keys.sort_by_key(|k| map.slot_of(k));
        let held = std::sync::Barrier::new(3);
        let ran = std::thread::scope(|s| {
            for (key, hold_ms) in keys.into_iter().zip([40, 70]) {
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
            map.with_every_slot(Duration::from_millis(50), || ())
        });
        assert_eq!(ran, TIMED_OUT);
        // Nothing taken before the timeout stayed held.
        assert_eq!(map.with_every_slot(Duration::ZERO, || 1), Ok(1));
    }

    /// Whether no table of `tables` holds `word`.
    fn none_holds(tables: &[KeyLockMap<i64>], word: &AbstractLock) -> bool {
        let word = std::ptr::from_ref(word);
        tables
            .iter()
            .all(|m| !m.words.as_ptr_range().contains(&word))
    }

    #[test]
    fn a_table_dropped_while_held_is_never_reused() {
        let (tm, map) = (manager(5), KeyLockMap::<i64>::new());
        let (t, word) = (tm.begin(), map.slot(&7));
        map.lock(&t, &7).unwrap();
        drop(map);
        let tables = || (0..4).map(|_| KeyLockMap::new()).collect::<Vec<_>>();
        assert!(none_holds(&tables(), word), "handed out while held");
        tm.commit(t);
        assert!(word.is_free(), "the commit released the word");
        assert!(none_holds(&tables(), word), "reused while held");
    }

    #[test]
    fn a_table_dropped_while_free_is_recycled_unheld() {
        // Another test may take the dropped table first: try again.
        let tm = manager(5);
        let recycled = (0..100).any(|_| {
            let map = KeyLockMap::<i64>::new();
            tm.run(|t| map.lock(t, &7)).unwrap();
            let words = map.words.as_ptr();
            drop(map);
            let next = KeyLockMap::<i64>::new();
            assert!(next.words.iter().all(AbstractLock::is_free));
            std::ptr::eq(next.words.as_ptr(), words)
        });
        assert!(recycled, "a free table was not reused");
    }

    #[test]
    fn slots_do_not_depend_on_the_table_or_the_process() {
        // Fixed-seed hashing: every table agrees on every key's slot,
        // so a deterministic sweep's conflicts replay.
        let (a, b) = (KeyLockMap::<i64>::new(), KeyLockMap::<i64>::new());
        assert!((0..1000).all(|key| a.slot_of(&key) == b.slot_of(&key)));
        let hot: std::collections::HashSet<_> = (0..16).map(|k| a.slot_of(&k)).collect();
        assert_eq!(hot.len(), 16, "the benchmark's hot keys share no slot");
    }

    #[test]
    fn works_with_string_keys() {
        let (tm, map) = (manager(5), KeyLockMap::<String>::new());
        let t = tm.begin();
        map.lock(&t, &"alpha".to_string()).unwrap();
        map.lock(&t, &"beta".to_string()).unwrap();
        assert_eq!(t.held_lock_count(), 2);
        tm.commit(t);
    }

    #[test]
    fn parallel_threads_on_disjoint_keys_all_commit() {
        let (tm, map) = (TxnManager::default(), KeyLockMap::<usize>::new());
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
        let (tm, map) = (manager(1_000), KeyLockMap::<usize>::new());
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
