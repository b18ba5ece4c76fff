//! A boosted transactional hash map.
//!
//! The paper's closing argument against open nesting is that "using
//! open nested transactions to construct a highly-concurrent
//! transactional hash table requires reimplementing the hash table
//! itself, while transactional boosting would treat the hash table as a
//! black box". This module is that construction: the lock-striped
//! [`StripedHashMap`] is used untouched; per-key abstract locks give
//! commutativity isolation (`put(k,·)`, `remove(k)`, `get(k)` commute
//! across distinct keys), and each mutation logs an inverse that
//! restores the key's previous binding.
//!
//! A map keeps committed versions for snapshot reads only from its
//! first snapshot read on. Until then it is *dormant*: a mutation logs
//! a plain inverse, so a transaction over dormant maps takes no commit
//! timestamp and installs nothing. The first snapshot read *arms* the
//! map ([`BoostedHashMap::arm`]): it waits out every writer, copies the
//! bindings into the version store, and from then on every mutation
//! logs its version install beside its inverse.

use std::hash::Hash;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txboost_core::det::{self, Mutation, Point};
use txboost_core::locks::{AbstractLock, KeyLockMap, Mode};
use txboost_core::{Abort, KeyHash, TxResult, Txn, VersionStore};
use txboost_linearizable::StripedHashMap;

/// A call on a [`BoostedHashMap`], as its conflict table reads it: the
/// method and the key it names.
#[derive(Debug)]
pub enum MapCall<'a, K> {
    /// `put(k, v)`
    Put(&'a K),
    /// `remove(k)`
    Remove(&'a K),
    /// `get(k)`
    Get(&'a K),
    /// `contains_key(k)`
    ContainsKey(&'a K),
}

/// A transactional key-value map boosted from the striped hash map.
///
/// # Example
///
/// ```
/// use txboost_core::TxnManager;
/// use txboost_collections::BoostedHashMap;
///
/// let tm = TxnManager::default();
/// let m = BoostedHashMap::new();
/// tm.run(|t| {
///     m.put(t, "alice", 100)?;
///     m.put(t, "bob", 50)
/// }).unwrap();
/// assert_eq!(tm.run(|t| m.get(t, &"alice")).unwrap(), Some(100));
/// ```
#[derive(Debug)]
pub struct BoostedHashMap<K: 'static, V: 'static> {
    base: Arc<Base<K, V>>,
    locks: KeyLockMap<K>,
}

/// The striped map and, beside it, the per-key committed versions that
/// serve read-only snapshot transactions (see `txboost_core::mvcc`),
/// allocated together: `put` and `remove` log one entry capturing one
/// `Arc` of this, whose inverse calls `map` and whose install arm, once
/// the map is armed, feeds `versions`.
#[derive(Debug)]
struct Base<K, V> {
    map: StripedHashMap<K, V>,
    versions: VersionStore<K, V>,
    /// [`DORMANT`] until the first snapshot read arms the map; then the
    /// stable timestamp its versions start at. A writer reads it under
    /// its key's lock: arming holds every lock while it writes this, so
    /// a writer sees the old value only if arming waits for it.
    armed_at: AtomicU64,
}

/// [`Base::armed_at`] of a map no snapshot has read yet.
const DORMANT: u64 = u64::MAX;

impl<K: Hash + Eq, V> Base<K, V> {
    /// The stable timestamp the map's versions start at, `None` while
    /// it is dormant. Whoever reads `Some` also sees the versions
    /// seeded before it was stored.
    fn armed_at(&self) -> Option<u64> {
        let at = self.armed_at.load(Ordering::Acquire);
        (at != DORMANT).then_some(at)
    }

    /// Give `key` back the binding it had: `previous`, or none.
    fn restore(&self, key: K, previous: Option<V>) {
        match previous {
            Some(old) => self.map.insert(key, old),
            None => self.map.remove(&key),
        };
    }
}

impl<K, V> Default for BoostedHashMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    fn default() -> Self {
        BoostedHashMap::new()
    }
}

impl<K, V> BoostedHashMap<K, V>
where
    K: Hash + Eq + Clone + Send + Sync + 'static,
    V: Clone + Send + Sync + 'static,
{
    /// An empty map.
    pub fn new() -> Self {
        BoostedHashMap {
            base: Arc::new(Base {
                map: StripedHashMap::new(),
                versions: VersionStore::new_global(),
                armed_at: AtomicU64::new(DORMANT),
            }),
            locks: KeyLockMap::new(),
        }
    }

    /// The map's conflict abstraction: the lock word `call` takes, and
    /// its mode. Every call on `k` takes `k`'s slot exclusively.
    pub fn conflict(&self, call: MapCall<'_, K>) -> (&'static AbstractLock, Mode) {
        let (MapCall::Put(key)
        | MapCall::Remove(key)
        | MapCall::Get(key)
        | MapCall::ContainsKey(key)) = call;
        (self.locks.slot(key), Mode::Exclusive)
    }

    /// Transactionally bind `key` to `value`, returning the previous
    /// value. Inverse: restore the previous binding (re-insert the old
    /// value, or remove the key if it was absent). An armed map also
    /// installs the new binding as a version when the transaction
    /// commits.
    pub fn put(&self, txn: &Txn, key: K, value: V) -> TxResult<Option<V>> {
        let (lock, mode) = self.conflict(MapCall::Put(&key));
        lock.acquire(txn, mode)?;
        let base = &self.base;
        if base.armed_at().is_none() {
            let previous = base.map.insert(key.clone(), value);
            let undo = (Arc::clone(base), key, previous.clone());
            txn.log_undo(move || {
                let (base, key, previous) = undo;
                base.restore(key, previous);
            });
            return Ok(previous);
        }
        let previous = base.map.insert(key.clone(), value.clone());
        txn.log_effect(
            (Arc::clone(base), key, previous.clone(), value),
            |(base, key, previous, _)| base.restore(key, previous),
            |(base, key, _, value), stamp| base.versions.install(key, Some(value), stamp),
        );
        Ok(previous)
    }

    /// Transactionally remove `key`, returning its value. Inverse:
    /// re-insert the removed binding. An armed map also installs the
    /// key's absence when the transaction commits.
    pub fn remove(&self, txn: &Txn, key: &K) -> TxResult<Option<V>> {
        let (lock, mode) = self.conflict(MapCall::Remove(key));
        lock.acquire(txn, mode)?;
        let base = &self.base;
        // An entry only when something was actually removed: a remove
        // of an absent key changes neither the base nor committed state.
        let Some(old) = base.map.remove(key) else {
            return Ok(None);
        };
        let undo = (Arc::clone(base), key.clone(), Some(old.clone()));
        if base.armed_at().is_none() {
            txn.log_undo(move || {
                let (base, key, old) = undo;
                base.restore(key, old);
            });
        } else {
            txn.log_effect(
                undo,
                |(base, key, old)| base.restore(key, old),
                |(base, key, _), stamp| base.versions.install(key, None, stamp),
            );
        }
        Ok(Some(old))
    }

    /// Transactionally read `key`'s value (no inverse; the key's
    /// abstract lock still serializes against concurrent mutators of
    /// the same key, per Rule 2).
    pub fn get(&self, txn: &Txn, key: &K) -> TxResult<Option<V>> {
        // Read-only snapshot transactions read the version slot at
        // their snapshot timestamp: no lock, no blocking, no abort.
        if let Some(ts) = txn.snapshot_ts() {
            self.versions_cover(txn, ts)?;
            return Ok(self.base.versions.read_at(key, ts));
        }
        let (lock, mode) = self.conflict(MapCall::Get(key));
        lock.acquire(txn, mode)?;
        Ok(self.base.map.get(key))
    }

    /// Transactionally test for `key`.
    pub fn contains_key(&self, txn: &Txn, key: &K) -> TxResult<bool> {
        if let Some(ts) = txn.snapshot_ts() {
            self.versions_cover(txn, ts)?;
            return Ok(self.base.versions.read_at(key, ts).is_some());
        }
        let (lock, mode) = self.conflict(MapCall::ContainsKey(key));
        lock.acquire(txn, mode)?;
        Ok(self.base.map.contains_key(key))
    }

    /// Whether the map's versions cover a snapshot at `ts`: arm it if
    /// it is dormant (waiting up to `txn`'s lock timeout), and answer
    /// [`Abort::snapshot_too_old`] if they start above `ts`.
    fn versions_cover(&self, txn: &Txn, ts: u64) -> TxResult<()> {
        let armed_at = match self.base.armed_at() {
            Some(at) => at,
            None => self.arm(txn.lock_timeout())?,
        };
        if ts < armed_at {
            return Err(Abort::snapshot_too_old());
        }
        Ok(())
    }

    /// Arm the map for snapshot reads, if no snapshot read has yet, and
    /// return the stable timestamp its versions start at. In order:
    /// take every slot of the lock table (in address order, waiting up
    /// to `timeout` in all), so every writer that skipped its install
    /// has finished; copy the bindings into the version store as each key's
    /// first version, at the stable timestamp; mark the map armed with
    /// that timestamp; release the slots. Every later writer installs
    /// versions. A snapshot below the returned timestamp cannot read
    /// the map. `Err` is a lock timeout; the map stays dormant.
    ///
    /// A snapshot read arms on its own, after its snapshot began, and
    /// may then have to restart; a caller that knows which maps a
    /// snapshot will read arms them before it begins. Must not be
    /// called by a thread whose open transaction holds a key of this
    /// map: it would wait for that transaction.
    pub fn arm(&self, timeout: Duration) -> TxResult<u64> {
        if let Some(at) = self.base.armed_at() {
            return Ok(at);
        }
        det::yield_point(Point::Arm);
        let base = &self.base;
        let seed = || {
            // Another first reader may have armed it meanwhile.
            if let Some(at) = base.armed_at() {
                return at;
            }
            let at = base.versions.seed(|bind| base.map.for_each(bind));
            base.armed_at.store(at, Ordering::Release);
            at
        };
        if det::mutated(Mutation::ArmWithoutDraining) {
            return Ok(seed());
        }
        self.locks.with_every_slot(timeout, seed)
    }

    /// Start loading the version slot a snapshot read of `key` will
    /// probe into the cache, and return the key's hash for that read,
    /// [`contains_key_prefetched`](Self::contains_key_prefetched). A
    /// hint: it takes no lock and changes no state. A read-only script
    /// calls it for each of its keys before reading any, so their cache
    /// misses overlap ([`VersionStore::prefetch`]).
    pub fn prefetch_snapshot(&self, key: &K) -> KeyHash {
        self.base.versions.prefetch(key)
    }

    /// [`contains_key`](Self::contains_key) for a key
    /// [`prefetch_snapshot`](Self::prefetch_snapshot) returned `hash`
    /// for: a snapshot read that skips hashing the key again. A locked
    /// transaction takes the lock as `contains_key` does.
    pub fn contains_key_prefetched(&self, txn: &Txn, key: &K, hash: KeyHash) -> TxResult<bool> {
        match txn.snapshot_ts() {
            Some(ts) => {
                self.versions_cover(txn, ts)?;
                Ok(self.base.versions.read_prefetched(key, hash, ts).is_some())
            }
            None => self.contains_key(txn, key),
        }
    }

    /// Committed-state entry count (diagnostic; exact at quiescence).
    pub fn len(&self) -> usize {
        self.base.map.len()
    }

    /// Whether the committed state is empty (same caveat).
    pub fn is_empty(&self) -> bool {
        self.base.map.is_empty()
    }

    /// Committed entries, sorted by key — a quiescent-state digest for
    /// tests and the bench arena's cross-backend conformance check.
    /// Call only when no transactions are in flight.
    pub fn snapshot(&self) -> Vec<(K, V)>
    where
        K: Ord,
    {
        let mut out = Vec::with_capacity(self.base.map.len());
        self.base
            .map
            .for_each(|k, v| out.push((k.clone(), v.clone())));
        out.sort_by(|a, b| a.0.cmp(&b.0));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txboost_core::{AbortReason, TxnConfig, TxnError, TxnManager};

    fn tm_noretry() -> TxnManager {
        TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        })
    }

    #[test]
    fn put_get_remove_round_trip() {
        let tm = TxnManager::default();
        let m = BoostedHashMap::new();
        assert_eq!(tm.run(|t| m.put(t, "a", 1)).unwrap(), None);
        assert_eq!(tm.run(|t| m.put(t, "a", 2)).unwrap(), Some(1));
        assert_eq!(tm.run(|t| m.get(t, &"a")).unwrap(), Some(2));
        assert!(tm.run(|t| m.contains_key(t, &"a")).unwrap());
        assert_eq!(tm.run(|t| m.remove(t, &"a")).unwrap(), Some(2));
        assert_eq!(tm.run(|t| m.get(t, &"a")).unwrap(), None);
    }

    #[test]
    fn abort_restores_previous_bindings() {
        let tm = tm_noretry();
        let m = BoostedHashMap::new();
        tm.run(|t| m.put(t, 1, "original")).unwrap();
        let r: Result<(), _> = tm.run(|t| {
            m.put(t, 1, "overwritten")?; // undo: restore "original"
            m.put(t, 2, "fresh")?; // undo: remove key 2
            m.remove(t, &1)?; // undo: reinsert "overwritten"
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(tm.run(|t| m.get(t, &1)).unwrap(), Some("original"));
        assert_eq!(tm.run(|t| m.get(t, &2)).unwrap(), None);
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn distinct_keys_never_conflict() {
        let tm = std::sync::Arc::new(TxnManager::default());
        let m = std::sync::Arc::new(BoostedHashMap::new());
        std::thread::scope(|sc| {
            for th in 0..8usize {
                let (tm, m) = (std::sync::Arc::clone(&tm), std::sync::Arc::clone(&m));
                sc.spawn(move || {
                    for i in 0..200 {
                        tm.run(|t| m.put(t, th * 1000 + i, i)).unwrap();
                    }
                });
            }
        });
        let snap = tm.stats().snapshot();
        assert_eq!(snap.aborted, 0);
        assert_eq!(m.len(), 1600);
    }

    /// `m` after one snapshot read: armed, so its writers install.
    fn armed<K, V>(m: BoostedHashMap<K, V>) -> BoostedHashMap<K, V>
    where
        K: Hash + Eq + Clone + Send + Sync + Default + 'static,
        V: Clone + Send + Sync + 'static,
    {
        let tm = TxnManager::default();
        tm.run_read_only(|t| m.get(t, &K::default())).unwrap();
        m
    }

    #[test]
    fn read_only_txn_reads_committed_state_without_locks() {
        let tm = tm_noretry();
        let m = armed(BoostedHashMap::new());
        tm.run(|t| m.put(t, "k", 1)).unwrap();
        // A writer holds key "k"'s abstract lock across the read-only
        // transaction; a locked read would time out, a snapshot read
        // must not.
        let writer = tm.begin();
        m.put(&writer, "k", 2).unwrap();
        let seen = tm.run_read_only(|t| m.get(t, &"k")).unwrap();
        assert_eq!(seen, Some(1), "must read the committed version");
        assert!(tm.run_read_only(|t| m.contains_key(t, &"k")).unwrap());
        tm.commit(writer);
        assert_eq!(tm.run_read_only(|t| m.get(t, &"k")).unwrap(), Some(2));
    }

    #[test]
    fn a_first_snapshot_read_waits_out_writers_and_later_ones_never_wait() {
        let tm = TxnManager::new(TxnConfig {
            lock_timeout: std::time::Duration::from_millis(20),
            max_retries: Some(0),
        });
        let m = BoostedHashMap::new();
        tm.run(|t| m.put(t, 1, 10)).unwrap();
        // A writer of the never-read map stays open on this thread
        // across its first snapshot read: arming waits for that writer,
        // so the read times out instead of hanging, and the map stays
        // dormant.
        let writer = tm.begin();
        m.put(&writer, 1, 11).unwrap();
        let started = std::time::Instant::now();
        let first = tm.run_read_only(|t| m.get(t, &1));
        assert_eq!(
            first,
            Err(TxnError::RetriesExhausted(AbortReason::LockTimeout))
        );
        assert!(started.elapsed() >= std::time::Duration::from_millis(20));
        tm.commit(writer);
        // One snapshot read arms it; then the same interleaving reads
        // the committed version without waiting (a wait would time out
        // behind the open writer).
        assert_eq!(tm.run_read_only(|t| m.get(t, &1)).unwrap(), Some(11));
        let writer = tm.begin();
        m.put(&writer, 1, 12).unwrap();
        assert_eq!(tm.run_read_only(|t| m.get(t, &1)).unwrap(), Some(11));
        tm.commit(writer);
        assert_eq!(tm.run_read_only(|t| m.get(t, &1)).unwrap(), Some(12));
    }

    #[test]
    fn a_dormant_map_installs_nothing_and_arming_copies_its_bindings() {
        let tm = TxnManager::default();
        let m = BoostedHashMap::new();
        let clock = &txboost_core::MvccDomain::global().clock;
        tm.run(|t| m.put(t, 2, 2)).unwrap();
        assert_eq!(m.base.armed_at(), None);
        assert_eq!(m.base.versions.versions(&2), 0, "a dormant map installed");
        let at = m.arm(std::time::Duration::MAX).unwrap();
        assert!(at <= clock.stable());
        assert_eq!(m.base.versions.versions(&2), 1, "arming copied the binding");
        assert_eq!(m.arm(std::time::Duration::ZERO).unwrap(), at, "armed once");
        tm.run(|t| m.put(t, 2, 3)).unwrap();
        assert_eq!(m.base.versions.versions(&2), 2, "an armed map installs");
        assert!(clock.stable() > at);
    }

    #[test]
    fn read_only_txn_sees_removes_as_absent() {
        let tm = TxnManager::default();
        let m = BoostedHashMap::new();
        tm.run(|t| m.put(t, 1, "x")).unwrap();
        tm.run(|t| m.remove(t, &1).map(|_| ())).unwrap();
        assert_eq!(tm.run_read_only(|t| m.get(t, &1)).unwrap(), None);
        assert!(!tm.run_read_only(|t| m.contains_key(t, &1)).unwrap());
    }

    #[test]
    fn read_only_txn_rejects_mutations() {
        let tm = TxnManager::default();
        let m = BoostedHashMap::new();
        let r = tm.run_read_only(|t| m.put(t, 1, 1));
        assert!(matches!(r, Err(txboost_core::TxnError::ReadOnlyViolation)));
        let r = tm.run_read_only(|t| m.remove(t, &1));
        assert!(matches!(r, Err(txboost_core::TxnError::ReadOnlyViolation)));
        assert_eq!(m.len(), 0);
    }

    #[test]
    fn same_key_transfers_are_atomic() {
        // Classic bank transfer between two accounts in one map.
        let tm = std::sync::Arc::new(TxnManager::default());
        let m = std::sync::Arc::new(BoostedHashMap::new());
        tm.run(|t| {
            m.put(t, "alice", 100i64)?;
            m.put(t, "bob", 100i64)
        })
        .unwrap();
        std::thread::scope(|sc| {
            for th in 0..4u64 {
                let (tm, m) = (std::sync::Arc::clone(&tm), std::sync::Arc::clone(&m));
                sc.spawn(move || {
                    use rand::prelude::*;
                    let mut rng = StdRng::seed_from_u64(th);
                    for _ in 0..200 {
                        let amt = rng.random_range(1..10i64);
                        let (from, to) = if rng.random_bool(0.5) {
                            ("alice", "bob")
                        } else {
                            ("bob", "alice")
                        };
                        tm.run(|t| {
                            let a = m.get(t, &from)?.unwrap();
                            let b = m.get(t, &to)?.unwrap();
                            m.put(t, from, a - amt)?;
                            m.put(t, to, b + amt)?;
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        let total = tm
            .run(|t| Ok(m.get(t, &"alice")?.unwrap() + m.get(t, &"bob")?.unwrap()))
            .unwrap();
        assert_eq!(total, 200, "money created or destroyed");
    }
}
