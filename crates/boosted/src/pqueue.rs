//! The boosted priority queue — Figure 5 of the paper.
//!
//! Base object: the Hunt-style fine-grained concurrent heap. Abstract
//! locks: one two-phase lock word used as a readers-writer lock;
//! `add` calls commute with each other and acquire it **shared**
//! (relying on the heap's own thread-level synchronization for their
//! interleaving), while `remove_min` acquires it **exclusive**.
//!
//! Because most heaps provide no inverse for `add`, the paper
//! synthesizes one with a `Holder`: instead of the key itself, the heap
//! stores a holder containing the key and a `deleted` flag. Undoing an
//! `add` just sets the flag; `remove_min` discards deleted holders it
//! encounters. Undoing a `remove_min` that returned `x` is `add(x)`
//! (re-inserting the holder); the heap may re-balance differently, but
//! the *abstract* state is restored, which is all Rule 3 requires.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use txboost_core::locks::{AbstractLock, Mode, ObjectLock};
use txboost_core::{TxResult, Txn};
use txboost_linearizable::ConcurrentHeap;

/// The paper's `Holder`: a key plus a logical-deletion flag, ordered by
/// key alone.
#[derive(Debug)]
struct Holder<K> {
    key: K,
    deleted: AtomicBool,
}

impl<K: Ord> PartialEq for Holder<K> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<K: Ord> Eq for Holder<K> {}
impl<K: Ord> PartialOrd for Holder<K> {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl<K: Ord> Ord for Holder<K> {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.key.cmp(&other.key)
    }
}

/// A call on a [`BoostedPQueue`], as its conflict table reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PQueueCall {
    /// `add(x)`, for any `x`
    Add,
    /// `removeMin()`
    RemoveMin,
    /// `min()`
    Min,
}

/// A transactional min-priority-queue boosted from the concurrent heap.
///
/// Duplicate keys are allowed (it is a multiset of keys, per the
/// paper's PQueue specification).
///
/// # Example
///
/// ```
/// use txboost_core::TxnManager;
/// use txboost_collections::BoostedPQueue;
///
/// let tm = TxnManager::default();
/// let q = BoostedPQueue::new();
/// tm.run(|t| { q.add(t, 5)?; q.add(t, 1)?; q.add(t, 3) }).unwrap();
/// assert_eq!(tm.run(|t| q.remove_min(t)).unwrap(), Some(1));
/// ```
#[derive(Debug)]
pub struct BoostedPQueue<K: 'static> {
    base: Arc<ConcurrentHeap<Arc<Holder<K>>>>,
    lock: ObjectLock,
}

impl<K: Ord + Clone + Send + Sync + 'static> Default for BoostedPQueue<K> {
    fn default() -> Self {
        BoostedPQueue::new()
    }
}

impl<K: Ord + Clone + Send + Sync + 'static> BoostedPQueue<K> {
    /// An empty priority queue.
    pub fn new() -> Self {
        BoostedPQueue {
            base: Arc::new(ConcurrentHeap::new()),
            lock: ObjectLock::new(),
        }
    }

    /// The queue's conflict abstraction: the lock word `call` takes, and
    /// its mode (Figure 5). Adds commute with each other and share the
    /// queue's one word. `removeMin` commutes with nothing, and `min()/x`
    /// not with `add(y)` for `y < x`, which one word cannot express, so
    /// both take it exclusively.
    pub fn conflict(&self, call: PQueueCall) -> (&'static AbstractLock, Mode) {
        match call {
            PQueueCall::Add => (self.lock.word(), Mode::Shared),
            PQueueCall::RemoveMin | PQueueCall::Min => (self.lock.word(), Mode::Exclusive),
        }
    }

    /// Transactionally insert `key`.
    ///
    /// Acquires the abstract lock in **shared** mode — concurrent
    /// transactional `add`s proceed in parallel at the granularity of
    /// the underlying heap (Figure 5, line 46). The inverse marks the
    /// key's holder deleted (Figure 5, lines 48–52).
    pub fn add(&self, txn: &Txn, key: K) -> TxResult<()> {
        let (lock, mode) = self.conflict(PQueueCall::Add);
        lock.acquire(txn, mode)?;
        let holder = Arc::new(Holder {
            key,
            deleted: AtomicBool::new(false),
        });
        self.base.add(Arc::clone(&holder));
        txn.log_undo(move || {
            holder.deleted.store(true, Ordering::Release);
        });
        Ok(())
    }

    /// Transactionally remove and return the least key (`None` if the
    /// committed queue is empty).
    ///
    /// Acquires the abstract lock in **exclusive** mode (`removeMin`
    /// commutes with nothing). Deleted holders left behind by aborted
    /// `add`s are discarded on the way. The inverse re-inserts the
    /// holder.
    pub fn remove_min(&self, txn: &Txn) -> TxResult<Option<K>> {
        let (lock, mode) = self.conflict(PQueueCall::RemoveMin);
        lock.acquire(txn, mode)?;
        loop {
            let Some(holder) = self.base.remove_min() else {
                return Ok(None);
            };
            if holder.deleted.load(Ordering::Acquire) {
                continue; // residue of an aborted add
            }
            let key = holder.key.clone();
            let base = Arc::clone(&self.base);
            txn.log_undo(move || {
                base.add(holder);
            });
            return Ok(Some(key));
        }
    }

    /// Transactionally peek at the least key without removing it.
    ///
    /// Needs no inverse (the abstract state is unchanged) but still
    /// acquires the exclusive lock; see [`Self::conflict`].
    #[cfg_attr(
        not(test),
        expect(
            clippy::expect_used,
            clippy::disallowed_macros,
            reason = "under the exclusive lock the heap cannot empty \
                      between `min` and `remove_min`, and the popped \
                      holder is the deleted one `min` saw (debug_assert!)"
        )
    )]
    pub fn min(&self, txn: &Txn) -> TxResult<Option<K>> {
        let (lock, mode) = self.conflict(PQueueCall::Min);
        lock.acquire(txn, mode)?;
        loop {
            match self.base.min() {
                None => return Ok(None),
                Some(h) if h.deleted.load(Ordering::Acquire) => {
                    // Purge the deleted holder so min() can terminate.
                    // No inverse: the holder was already removed
                    // abstractly, so popping it leaves the abstract
                    // state unchanged.
                    let popped = self.base.remove_min().expect("heap emptied under lock");
                    debug_assert!(popped.deleted.load(Ordering::Acquire));
                }
                Some(h) => return Ok(Some(h.key.clone())),
            }
        }
    }

    /// Number of holders in the base heap, *including* logically
    /// deleted residue (diagnostic only).
    pub fn raw_len(&self) -> usize {
        self.base.len()
    }

    /// Acquire what `remove_min` acquires — the queue's word,
    /// exclusively — without calling a method. Exists for the Figure 11
    /// baseline ("a single mutex"): taking it before `add` turns the
    /// readers-writer discipline into a mutex discipline while keeping
    /// everything else identical.
    pub fn exclusive_lock(&self, txn: &Txn) -> TxResult<()> {
        let (lock, mode) = self.conflict(PQueueCall::RemoveMin);
        lock.acquire(txn, mode)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txboost_core::{Abort, TxnConfig, TxnManager};

    fn tm() -> TxnManager {
        TxnManager::default()
    }

    #[test]
    fn add_and_remove_min_in_order() {
        let tm = tm();
        let q = BoostedPQueue::new();
        tm.run(|t| {
            q.add(t, 5)?;
            q.add(t, 1)?;
            q.add(t, 3)
        })
        .unwrap();
        assert_eq!(tm.run(|t| q.remove_min(t)).unwrap(), Some(1));
        assert_eq!(tm.run(|t| q.remove_min(t)).unwrap(), Some(3));
        assert_eq!(tm.run(|t| q.remove_min(t)).unwrap(), Some(5));
        assert_eq!(tm.run(|t| q.remove_min(t)).unwrap(), None);
    }

    #[test]
    fn duplicates_are_preserved() {
        let tm = tm();
        let q = BoostedPQueue::new();
        tm.run(|t| {
            q.add(t, 7)?;
            q.add(t, 7)
        })
        .unwrap();
        assert_eq!(tm.run(|t| q.remove_min(t)).unwrap(), Some(7));
        assert_eq!(tm.run(|t| q.remove_min(t)).unwrap(), Some(7));
        assert_eq!(tm.run(|t| q.remove_min(t)).unwrap(), None);
    }

    #[test]
    fn aborted_add_leaves_key_invisible() {
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let q = BoostedPQueue::new();
        let r: Result<(), _> = tm.run(|t| {
            q.add(t, 42)?;
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        // The deleted holder is physically present but logically gone.
        assert_eq!(q.raw_len(), 1);
        assert_eq!(tm.run(|t| q.remove_min(t)).unwrap(), None);
        assert_eq!(q.raw_len(), 0, "deleted residue not purged");
    }

    #[test]
    fn aborted_remove_min_restores_key() {
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let q = BoostedPQueue::new();
        tm.run(|t| q.add(t, 10)).unwrap();
        let r: Result<(), _> = tm.run(|t| {
            assert_eq!(q.remove_min(t)?, Some(10));
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(tm.run(|t| q.min(t)).unwrap(), Some(10));
    }

    #[test]
    fn min_skips_and_purges_deleted_residue() {
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let q = BoostedPQueue::new();
        tm.run(|t| q.add(t, 50)).unwrap();
        // Abort an add of a smaller key, leaving deleted residue at the
        // top of the heap.
        let r: Result<(), _> = tm.run(|t| {
            q.add(t, 1)?;
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(tm.run(|t| q.min(t)).unwrap(), Some(50));
    }

    #[test]
    fn concurrent_adders_and_removers_conserve_keys() {
        let tm = std::sync::Arc::new(tm());
        let q = std::sync::Arc::new(BoostedPQueue::new());
        let threads = 6;
        let per = 300i64;
        let removed: std::sync::Mutex<Vec<i64>> = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|sc| {
            for th in 0..threads {
                let (tm, q) = (std::sync::Arc::clone(&tm), std::sync::Arc::clone(&q));
                let removed = &removed;
                sc.spawn(move || {
                    for i in 0..per {
                        if th % 2 == 0 {
                            tm.run(|t| q.add(t, th * per + i)).unwrap();
                        } else if let Some(k) = tm.run(|t| q.remove_min(t)).unwrap() {
                            removed.lock().unwrap().push(k);
                        }
                    }
                });
            }
        });
        let mut drained = Vec::new();
        while let Some(k) = tm.run(|t| q.remove_min(t)).unwrap() {
            drained.push(k);
        }
        let mut all = removed.into_inner().unwrap();
        all.extend(drained);
        all.sort_unstable();
        let mut expected: Vec<i64> = (0..threads)
            .filter(|th| th % 2 == 0)
            .flat_map(|th| (0..per).map(move |i| th * per + i))
            .collect();
        expected.sort_unstable();
        assert_eq!(all, expected, "keys lost or duplicated");
    }

    #[test]
    fn fifty_fifty_workload_commits_everything() {
        // The Fig. 11 workload shape: half adds (shared), half
        // remove_mins (exclusive).
        let tm = std::sync::Arc::new(tm());
        let q = std::sync::Arc::new(BoostedPQueue::new());
        std::thread::scope(|sc| {
            for th in 0..8u64 {
                let (tm, q) = (std::sync::Arc::clone(&tm), std::sync::Arc::clone(&q));
                sc.spawn(move || {
                    use rand::prelude::*;
                    let mut rng = StdRng::seed_from_u64(th);
                    for _ in 0..200 {
                        if rng.random_bool(0.5) {
                            tm.run(|t| q.add(t, rng.random_range(0..1000))).unwrap();
                        } else {
                            tm.run(|t| q.remove_min(t)).unwrap();
                        }
                    }
                });
            }
        });
        assert_eq!(tm.stats().snapshot().committed, 8 * 200);
    }
}
