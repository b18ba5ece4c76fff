//! A lazy concurrent skip-list map — the crate's one skip list.
//!
//! The Rust stand-in for `java.util.concurrent.ConcurrentSkipListMap`.
//! The algorithm is the *lazy skip list* of Herlihy & Shavit (the same
//! lineage as the JDK class): lookups traverse without taking any
//! locks; `insert` and `remove` lock only the handful of predecessor
//! nodes they relink, so operations on disjoint keys proceed fully in
//! parallel. Logical deletion (a `marked` flag) precedes physical
//! unlinking, and unlinked nodes are reclaimed with epoch-based memory
//! management (`crossbeam::epoch`), playing the role of the JVM's
//! garbage collector. Values are replaced in place under the node's
//! value lock, so `insert` over an existing key is an O(1) update
//! rather than a remove+add.
//!
//! [`crate::skiplist`]'s set is this map with unit values, as the JDK's
//! `ConcurrentSkipListSet` is a `ConcurrentSkipListMap` whose values
//! are all `TRUE`; its `add` is the crate-private `put_if_absent`.
//!
//! Linearization points:
//! * `insert` or `put_if_absent` of an absent key — setting
//!   `fully_linked` after the node is spliced into every level;
//! * `insert` over a present key — the swap under the value lock;
//! * successful `remove` — setting `marked` on the victim;
//! * lookups, `put_if_absent` of a present key and a failed `remove` —
//!   the instant the traversal observed the relevant node (or its
//!   absence).
//!
//! The boosted sorted map wraps this type exactly the way
//! `BoostedSkipListSet` wraps the set: per-key abstract locks, inverses
//! that restore the previous binding.

use crossbeam::epoch::{self, Atomic, Guard, Owned, Shared};
use parking_lot::{Mutex, MutexGuard};
use std::cell::Cell;
use std::cmp::Ordering as CmpOrdering;
use std::sync::atomic::{AtomicBool, Ordering};

/// Tallest tower; supports ~2^32 elements with good expected search
/// cost, which is far beyond anything the benchmarks construct.
const MAX_LEVEL: usize = 32;

/// Key with ±∞ sentinels so traversal needs no null checks.
#[derive(Debug)]
enum Key<K> {
    NegInf,
    Value(K),
    PosInf,
}

impl<K: Ord> Key<K> {
    fn cmp_key(&self, other: &K) -> CmpOrdering {
        match self {
            Key::NegInf => CmpOrdering::Less,
            Key::Value(v) => v.cmp(other),
            Key::PosInf => CmpOrdering::Greater,
        }
    }
}

struct Node<K, V> {
    key: Key<K>,
    /// The mapped value; `None` only for sentinels and for a victim
    /// its remover has emptied. Mutated in place (value replacement)
    /// under this lock.
    value: Mutex<Option<V>>,
    /// Highest level this node occupies; `next.len() == top_level + 1`.
    top_level: usize,
    lock: Mutex<()>,
    /// Logical-deletion flag: set ⇒ the key is no longer in the
    /// abstract map, even while the node is physically linked.
    marked: AtomicBool,
    /// Set once the node is spliced in at every level; an insert of a
    /// present key spins on this so it never reports a half-linked
    /// node as present.
    fully_linked: AtomicBool,
    next: Vec<Atomic<Node<K, V>>>,
}

impl<K, V> Node<K, V> {
    fn sentinel(key: Key<K>) -> Self {
        Node {
            key,
            value: Mutex::new(None),
            top_level: MAX_LEVEL - 1,
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(true),
            next: (0..MAX_LEVEL).map(|_| Atomic::null()).collect(),
        }
    }
}

/// Geometric(1/2) tower height from a per-thread xorshift64* generator
/// (no external RNG dependency; determinism is irrelevant here, only
/// independence across threads).
fn random_level() -> usize {
    thread_local! {
        static RNG: Cell<u64> = const { Cell::new(0) };
    }
    RNG.with(|c| {
        let mut x = c.get();
        if x == 0 {
            // Seed from the TLS slot's address, unique per thread.
            x = (std::ptr::from_ref(c) as u64) | 0x9E37_79B9_7F4A_7C15;
        }
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        c.set(x);
        (x.trailing_ones() as usize).min(MAX_LEVEL - 1)
    })
}

/// A linearizable concurrent sorted map. See the [module docs](self).
pub struct LazySkipListMap<K, V> {
    head: Atomic<Node<K, V>>,
}

impl<K, V> std::fmt::Debug for LazySkipListMap<K, V> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LazySkipListMap")
    }
}

impl<K: Ord, V: Clone> Default for LazySkipListMap<K, V> {
    fn default() -> Self {
        LazySkipListMap::new()
    }
}

impl<K: Ord, V: Clone> LazySkipListMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        // SAFETY: the map is still under construction and visible to no
        // other thread, so an unpinned (unprotected) guard cannot race
        // with epoch reclamation.
        let init_guard = unsafe { epoch::unprotected() };
        let tail = Owned::new(Node::sentinel(Key::PosInf)).into_shared(init_guard);
        let head = Node::sentinel(Key::NegInf);
        for lvl in 0..MAX_LEVEL {
            head.next[lvl].store(tail, Ordering::Relaxed);
        }
        LazySkipListMap {
            head: Atomic::new(head),
        }
    }

    /// Walk the towers, filling `preds`/`succs` per level; returns the
    /// topmost level at which a node with `key` was found.
    fn find<'g>(
        &self,
        key: &K,
        preds: &mut [Shared<'g, Node<K, V>>; MAX_LEVEL],
        succs: &mut [Shared<'g, Node<K, V>>; MAX_LEVEL],
        guard: &'g Guard,
    ) -> Option<usize> {
        let mut found = None;
        let mut pred = self.head.load(Ordering::Acquire, guard);
        for lvl in (0..MAX_LEVEL).rev() {
            // SAFETY: `pred` is the head sentinel or a node reached from
            // it under `guard`; unlinked nodes are freed only via
            // defer_destroy, which cannot run while `guard` is pinned.
            let mut curr = unsafe { pred.deref() }.next[lvl].load(Ordering::Acquire, guard);
            loop {
                // SAFETY: `curr` was loaded from a live node's tower
                // under the same pinned `guard`; the PosInf sentinel
                // bounds the walk, so it is never null.
                let curr_ref = unsafe { curr.deref() };
                match curr_ref.key.cmp_key(key) {
                    CmpOrdering::Less => {
                        pred = curr;
                        curr = curr_ref.next[lvl].load(Ordering::Acquire, guard);
                    }
                    CmpOrdering::Equal => {
                        if found.is_none() {
                            found = Some(lvl);
                        }
                        break;
                    }
                    CmpOrdering::Greater => break,
                }
            }
            preds[lvl] = pred;
            succs[lvl] = curr;
        }
        found
    }

    /// Lock `preds[0..=top]` (deduplicating repeats) and validate that
    /// every `pred` is unmarked and still points to `expected(lvl)` at
    /// its level. Returns the held guards on success.
    #[allow(clippy::needless_range_loop)] // symmetric indexing of preds/succs is clearer
    fn lock_and_validate<'g>(
        preds: &[Shared<'g, Node<K, V>>; MAX_LEVEL],
        expected: impl Fn(usize) -> Shared<'g, Node<K, V>>,
        top: usize,
        guard: &'g Guard,
    ) -> Option<Vec<MutexGuard<'g, ()>>> {
        let mut locks: Vec<MutexGuard<'g, ()>> = Vec::with_capacity(top + 1);
        let mut prev: Option<Shared<'g, Node<K, V>>> = None;
        for lvl in 0..=top {
            let pred = preds[lvl];
            if prev != Some(pred) {
                // SAFETY: every `preds` entry was produced by `find`
                // under `guard` (still pinned here via the `'g` bound),
                // so the node is not yet reclaimed.
                locks.push(unsafe { pred.deref() }.lock.lock());
                prev = Some(pred);
            }
            // SAFETY: as above — same pinned `guard`, same provenance.
            let p = unsafe { pred.deref() };
            if p.marked.load(Ordering::Acquire)
                || p.next[lvl].load(Ordering::Acquire, guard) != expected(lvl)
            {
                return None;
            }
        }
        Some(locks)
    }

    /// Bind `key` to `value`, returning the previous value if the key
    /// was already present.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.link(key, value, true)
    }

    /// Bind `key` to `value` only if `key` is absent; returns `true`
    /// iff it was. Java's `putIfAbsent(k, v) == null`, the call
    /// `ConcurrentSkipListSet::add` makes on its map: a present key's
    /// value is neither replaced nor locked.
    pub(crate) fn put_if_absent(&self, key: K, value: V) -> bool {
        self.link(key, value, false).is_none()
    }

    /// The insert loop of [`insert`](Self::insert) and `put_if_absent`.
    /// `None` ⇔ `key` was absent and is now bound. On a present key,
    /// `replace` swaps `value` in and returns the old value; otherwise
    /// `value` comes back unused.
    #[allow(clippy::needless_range_loop)] // symmetric indexing of preds/succs is clearer
    fn link(&self, key: K, value: V, replace: bool) -> Option<V> {
        let top_level = random_level();
        let guard = epoch::pin();
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        loop {
            if let Some(l_found) = self.find(&key, &mut preds, &mut succs, &guard) {
                // SAFETY: `find` filled `succs` under `guard`, which is
                // pinned for the whole loop; the node cannot be freed.
                let node = unsafe { succs[l_found].deref() };
                if !node.marked.load(Ordering::Acquire) {
                    // Present (or about to be): wait out a concurrent
                    // inserter.
                    while !node.fully_linked.load(Ordering::Acquire) {
                        std::hint::spin_loop();
                    }
                    if !replace {
                        return Some(value);
                    }
                    // Replace the value in place. Re-check `marked`
                    // under the value lock: a remover marks before it
                    // takes the value out, so an unmarked node's value
                    // slot is live.
                    let mut v = node.value.lock();
                    if node.marked.load(Ordering::Acquire) {
                        continue; // lost to a remover; retry as absent
                    }
                    return v.replace(value);
                }
                // Marked ⇒ being removed; retry until it is unlinked.
                continue;
            }
            // Validate each succ is unmarked too (an adjacent victim in
            // mid-removal invalidates the splice).
            let locks = Self::lock_and_validate(&preds, |lvl| succs[lvl], top_level, &guard);
            let Some(locks) = locks else { continue };
            let any_succ_marked = (0..=top_level).any(|lvl| {
                // SAFETY: `succs` was filled by `find` under the still-
                // pinned `guard`; validation holds the predecessor
                // locks, so the successors cannot be unlinked either.
                unsafe { succs[lvl].deref() }.marked.load(Ordering::Acquire)
            });
            if any_succ_marked {
                drop(locks);
                continue;
            }
            let node = Owned::new(Node {
                key: Key::Value(key),
                value: Mutex::new(Some(value)),
                top_level,
                lock: Mutex::new(()),
                marked: AtomicBool::new(false),
                fully_linked: AtomicBool::new(false),
                next: (0..=top_level).map(|_| Atomic::null()).collect(),
            });
            for lvl in 0..=top_level {
                node.next[lvl].store(succs[lvl], Ordering::Relaxed);
            }
            let node_shared = node.into_shared(&guard);
            for lvl in 0..=top_level {
                // SAFETY: `preds` entries are pinned by `guard` and
                // locked+validated above, so each is live and still the
                // correct predecessor at this level.
                unsafe { preds[lvl].deref() }.next[lvl].store(node_shared, Ordering::Release);
            }
            // SAFETY: `node_shared` came from `into_shared` two lines
            // up; the new node is owned by this thread until
            // `fully_linked` is published.
            unsafe { node_shared.deref() }
                .fully_linked
                .store(true, Ordering::Release);
            return None;
        }
    }

    /// Remove `key`, returning its value if it was present.
    pub fn remove(&self, key: &K) -> Option<V> {
        let guard = epoch::pin();
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        let mut victim: Shared<'_, Node<K, V>> = Shared::null();
        let mut victim_lock: Option<MutexGuard<'_, ()>> = None;
        let mut taken: Option<V> = None;
        let mut top_level = 0usize;
        loop {
            let l_found = self.find(key, &mut preds, &mut succs, &guard);
            if victim_lock.is_none() {
                // Not yet marked: decide whether the key is removable.
                let lf = l_found?;
                let v = succs[lf];
                // SAFETY: `find` produced `v` under `guard`, pinned for
                // the whole call — reclamation is deferred past it.
                let v_ref = unsafe { v.deref() };
                if !v_ref.fully_linked.load(Ordering::Acquire)
                    || v_ref.top_level != lf
                    || v_ref.marked.load(Ordering::Acquire)
                {
                    return None;
                }
                let lock = v_ref.lock.lock();
                if v_ref.marked.load(Ordering::Acquire) {
                    return None; // lost the race to another remover
                }
                v_ref.marked.store(true, Ordering::Release); // linearization point
                taken = v_ref.value.lock().take();
                victim = v;
                victim_lock = Some(lock);
                top_level = lf;
            }
            let locks = Self::lock_and_validate(&preds, |_| victim, top_level, &guard);
            let Some(locks) = locks else { continue };
            // SAFETY: the victim is marked and its lock held by this
            // thread; only this remover will unlink and reclaim it, and
            // `guard` keeps it live meanwhile.
            let v_ref = unsafe { victim.deref() };
            for lvl in (0..=top_level).rev() {
                let succ = v_ref.next[lvl].load(Ordering::Acquire, &guard);
                // SAFETY: `preds` entries were locked and validated by
                // `lock_and_validate` under the pinned `guard`.
                unsafe { preds[lvl].deref() }.next[lvl].store(succ, Ordering::Release);
            }
            drop(victim_lock);
            drop(locks);
            // SAFETY: the victim is now unlinked from every level and
            // marked, so no new traversal can reach it; defer_destroy
            // frees it only after all current pins are released.
            unsafe {
                guard.defer_destroy(victim);
            }
            return taken;
        }
    }

    /// Clone of `key`'s value, if present. Takes no traversal locks.
    pub fn get(&self, key: &K) -> Option<V> {
        let guard = epoch::pin();
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        let lf = self.find(key, &mut preds, &mut succs, &guard)?;
        // SAFETY: `succs[lf]` was read under `guard`, still pinned
        // here, so the node has not been reclaimed.
        let node = unsafe { succs[lf].deref() };
        if !node.fully_linked.load(Ordering::Acquire) || node.marked.load(Ordering::Acquire) {
            return None;
        }
        let v = node.value.lock();
        if node.marked.load(Ordering::Acquire) {
            return None;
        }
        v.clone()
    }

    /// Whether `key` is bound. Takes no locks.
    pub fn contains_key(&self, key: &K) -> bool {
        let guard = epoch::pin();
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        match self.find(key, &mut preds, &mut succs, &guard) {
            Some(lf) => {
                // SAFETY: `succs[lf]` was read under `guard`, still
                // pinned here, so the node has not been reclaimed.
                let node = unsafe { succs[lf].deref() };
                node.fully_linked.load(Ordering::Acquire) && !node.marked.load(Ordering::Acquire)
            }
            None => false,
        }
    }

    /// Number of bindings (level-0 walk; exact only at quiescence).
    pub fn len(&self) -> usize {
        let mut n = 0;
        self.walk(|_, _| n += 1);
        n
    }

    /// Whether the map is empty (same caveat as [`LazySkipListMap::len`]).
    pub fn is_empty(&self) -> bool {
        let mut any = false;
        self.walk(|_, _| any = true);
        !any
    }

    /// Ascending `(key, value)` snapshot (exact only at quiescence).
    pub fn snapshot(&self) -> Vec<(K, V)>
    where
        K: Clone,
    {
        let mut out = Vec::new();
        self.walk(|k, v| out.push((k.clone(), v)));
        out
    }

    fn walk(&self, mut f: impl FnMut(&K, V)) {
        let guard = epoch::pin();
        let head = self.head.load(Ordering::Acquire, &guard);
        // SAFETY: the head sentinel lives as long as the map and is
        // never unlinked or reclaimed.
        let mut curr = unsafe { head.deref() }.next[0].load(Ordering::Acquire, &guard);
        loop {
            // SAFETY: level-0 successors read under the pinned `guard`
            // stay live until it is dropped; PosInf terminates the walk
            // before any null.
            let node = unsafe { curr.deref() };
            match &node.key {
                Key::PosInf => break,
                Key::Value(k) => {
                    if node.fully_linked.load(Ordering::Acquire)
                        && !node.marked.load(Ordering::Acquire)
                    {
                        if let Some(v) = node.value.lock().clone() {
                            f(k, v);
                        }
                    }
                }
                Key::NegInf => unreachable!("NegInf is never a successor"),
            }
            curr = node.next[0].load(Ordering::Acquire, &guard);
        }
    }
}

impl<K, V> Drop for LazySkipListMap<K, V> {
    fn drop(&mut self) {
        // SAFETY: `&mut self` ⇒ no concurrent access, so the
        // unprotected guard and immediate `into_owned` frees are sound.
        // Nodes removed earlier went to the epoch collector and are no
        // longer reachable from level 0.
        unsafe {
            let guard = epoch::unprotected();
            let mut curr = self.head.load(Ordering::Relaxed, guard);
            while !curr.is_null() {
                let next = curr.deref().next[0].load(Ordering::Relaxed, guard);
                drop(curr.into_owned());
                curr = next;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use std::collections::BTreeMap;
    use std::sync::Arc;

    #[test]
    fn insert_get_remove_round_trip() {
        let m = LazySkipListMap::new();
        assert_eq!(m.insert(1, "a"), None);
        assert_eq!(m.get(&1), Some("a"));
        assert!(m.contains_key(&1));
        assert_eq!(m.insert(1, "b"), Some("a"), "replace must return old");
        assert_eq!(m.get(&1), Some("b"));
        assert_eq!(m.remove(&1), Some("b"));
        assert_eq!(m.remove(&1), None);
        assert!(!m.contains_key(&1));
    }

    #[test]
    fn snapshot_is_sorted_by_key() {
        let m = LazySkipListMap::new();
        for (k, v) in [(5, "e"), (1, "a"), (3, "c")] {
            m.insert(k, v);
        }
        assert_eq!(m.snapshot(), vec![(1, "a"), (3, "c"), (5, "e")]);
        assert_eq!(m.len(), 3);
        assert!(!m.is_empty());
    }

    #[test]
    fn matches_btreemap_oracle_on_random_sequential_workload() {
        let mut rng = StdRng::seed_from_u64(77);
        let m = LazySkipListMap::new();
        let mut oracle = BTreeMap::new();
        for _ in 0..20_000 {
            let k: i32 = rng.random_range(0..150);
            match rng.random_range(0..4) {
                0 | 1 => {
                    let v: i32 = rng.random_range(0..1000);
                    assert_eq!(m.insert(k, v), oracle.insert(k, v), "insert({k})");
                }
                2 => assert_eq!(m.remove(&k), oracle.remove(&k), "remove({k})"),
                _ => assert_eq!(m.get(&k), oracle.get(&k).copied(), "get({k})"),
            }
        }
        assert_eq!(m.snapshot(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_disjoint_inserts_all_visible() {
        let m = Arc::new(LazySkipListMap::new());
        let threads = 8;
        let per = 1_000i64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    let k = t * per + i;
                    assert_eq!(m.insert(k, k * 10), None);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), (threads * per) as usize);
        for k in 0..threads * per {
            assert_eq!(m.get(&k), Some(k * 10), "key {k}");
        }
    }

    #[test]
    fn concurrent_replace_on_one_key_never_loses_the_binding() {
        let m = Arc::new(LazySkipListMap::new());
        m.insert(0, 0u64);
        let mut handles = Vec::new();
        for t in 1..=8u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..1_000 {
                    m.insert(0, t * 10_000 + i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(m.get(&0).is_some(), "binding lost under replacement race");
        assert_eq!(m.len(), 1);
    }

    #[test]
    fn concurrent_insert_remove_mixed_is_consistent() {
        let m = Arc::new(LazySkipListMap::new());
        let mut handles = Vec::new();
        for t in 0..8u64 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                for _ in 0..3_000 {
                    let k = rng.random_range(0..32i64);
                    if rng.random_bool(0.5) {
                        m.insert(k, t);
                    } else {
                        m.remove(&k);
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        let snap = m.snapshot();
        assert!(
            snap.windows(2).all(|w| w[0].0 < w[1].0),
            "keys not sorted/unique"
        );
        for (k, _) in &snap {
            assert!(m.contains_key(k));
        }
    }

    #[test]
    fn get_never_observes_a_removed_value() {
        // A reader racing a remover must see either the value or None,
        // never a panic or a stale marked node's value.
        let m = Arc::new(LazySkipListMap::new());
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let (m2, stop2) = (Arc::clone(&m), Arc::clone(&stop));
        let reader = std::thread::spawn(move || {
            let mut hits = 0u64;
            while !stop2.load(Ordering::Relaxed) {
                if m2.get(&1).is_some() {
                    hits += 1;
                }
            }
            hits
        });
        for _ in 0..5_000 {
            m.insert(1, 42);
            m.remove(&1);
        }
        stop.store(true, Ordering::Relaxed);
        reader.join().unwrap();
    }
}
