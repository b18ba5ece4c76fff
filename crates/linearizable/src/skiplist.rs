//! A lazy concurrent skip-list set.
//!
//! The Rust stand-in for `java.util.concurrent.ConcurrentSkipListSet`,
//! the base object of the paper's `SkipListKey` example (Figure 2).
//! The algorithm is the *lazy skip list* of Herlihy & Shavit (the same
//! lineage as the JDK class): `contains` traverses without taking any
//! locks; `add` and `remove` lock only the handful of predecessor nodes
//! they relink, so operations on disjoint keys proceed fully in
//! parallel. Logical deletion (a `marked` flag) precedes physical
//! unlinking, and unlinked nodes are reclaimed with epoch-based memory
//! management (`crossbeam::epoch`), playing the role of the JVM's
//! garbage collector. A node holds its key and one lock, which guards
//! the node's links.
//!
//! Linearization points:
//! * `add` of an absent key — setting `fully_linked` after the node is
//!   spliced into every level;
//! * successful `remove` — setting `marked` on the victim;
//! * `contains`, `add` of a present key and a failed `remove` — the
//!   instant the traversal observed the relevant node (or its absence).

use crate::LinearizableSet;
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

struct Node<K> {
    key: Key<K>,
    /// Highest level this node occupies; `next.len() == top_level + 1`.
    top_level: usize,
    lock: Mutex<()>,
    /// Logical-deletion flag: set ⇒ the key is no longer in the
    /// abstract set, even while the node is physically linked.
    marked: AtomicBool,
    /// Set once the node is spliced in at every level; an `add` of a
    /// present key spins on this so it never reports a half-linked
    /// node as present.
    fully_linked: AtomicBool,
    next: Vec<Atomic<Node<K>>>,
}

impl<K> Node<K> {
    fn new(key: Key<K>, top_level: usize, fully_linked: bool) -> Self {
        Node {
            key,
            top_level,
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(fully_linked),
            next: (0..=top_level).map(|_| Atomic::null()).collect(),
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

/// A linearizable concurrent sorted set.
///
/// See the [module docs](self) for the algorithm. The public interface
/// is the paper's base object's, [`LinearizableSet`]: `add`, `remove`
/// and `contains`, each returning whether the abstract set changed /
/// holds the key — the booleans the boosted wrapper uses to select
/// inverses.
pub struct LazySkipListSet<K> {
    head: Atomic<Node<K>>,
}

impl<K> std::fmt::Debug for LazySkipListSet<K> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str("LazySkipListSet")
    }
}

impl<K: Ord> Default for LazySkipListSet<K> {
    fn default() -> Self {
        LazySkipListSet::new()
    }
}

impl<K: Ord> LazySkipListSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        // SAFETY: the set is still under construction and visible to no
        // other thread, so an unpinned (unprotected) guard cannot race
        // with epoch reclamation.
        let init_guard = unsafe { epoch::unprotected() };
        let tail = Owned::new(Node::new(Key::PosInf, MAX_LEVEL - 1, true)).into_shared(init_guard);
        let head = Node::new(Key::NegInf, MAX_LEVEL - 1, true);
        for lvl in 0..MAX_LEVEL {
            head.next[lvl].store(tail, Ordering::Relaxed);
        }
        LazySkipListSet {
            head: Atomic::new(head),
        }
    }

    /// Walk the towers, filling `preds`/`succs` per level; returns the
    /// topmost level at which a node with `key` was found.
    fn find<'g>(
        &self,
        key: &K,
        preds: &mut [Shared<'g, Node<K>>; MAX_LEVEL],
        succs: &mut [Shared<'g, Node<K>>; MAX_LEVEL],
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
        preds: &[Shared<'g, Node<K>>; MAX_LEVEL],
        expected: impl Fn(usize) -> Shared<'g, Node<K>>,
        top: usize,
        guard: &'g Guard,
    ) -> Option<Vec<MutexGuard<'g, ()>>> {
        let mut locks: Vec<MutexGuard<'g, ()>> = Vec::with_capacity(top + 1);
        let mut prev: Option<Shared<'g, Node<K>>> = None;
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

    /// Visit every key in the abstract set, in ascending order (a
    /// level-0 walk; exact only at quiescence).
    fn walk(&self, mut f: impl FnMut(&K)) {
        let guard = epoch::pin();
        let head = self.head.load(Ordering::Acquire, &guard);
        // SAFETY: the head sentinel lives as long as the set and is
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
                        f(k);
                    }
                }
                Key::NegInf => unreachable!("NegInf is never a successor"),
            }
            curr = node.next[0].load(Ordering::Acquire, &guard);
        }
    }
}

impl<K: Ord + Clone> LinearizableSet<K> for LazySkipListSet<K> {
    /// Locks only the new node's predecessors. A present key is left
    /// untouched, once its inserter has finished linking it.
    #[allow(clippy::needless_range_loop)] // symmetric indexing of preds/succs is clearer
    fn add(&self, key: K) -> bool {
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
                    return false;
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
            let node = Owned::new(Node::new(Key::Value(key), top_level, false));
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
            return true;
        }
    }

    /// Locks the victim, then its predecessors.
    fn remove(&self, key: &K) -> bool {
        let guard = epoch::pin();
        let mut preds = [Shared::null(); MAX_LEVEL];
        let mut succs = [Shared::null(); MAX_LEVEL];
        let mut victim: Shared<'_, Node<K>> = Shared::null();
        let mut victim_lock: Option<MutexGuard<'_, ()>> = None;
        let mut top_level = 0usize;
        loop {
            let l_found = self.find(key, &mut preds, &mut succs, &guard);
            if victim_lock.is_none() {
                // Not yet marked: decide whether the key is removable.
                let Some(lf) = l_found else { return false };
                let v = succs[lf];
                // SAFETY: `find` produced `v` under `guard`, pinned for
                // the whole call — reclamation is deferred past it.
                let v_ref = unsafe { v.deref() };
                if !v_ref.fully_linked.load(Ordering::Acquire)
                    || v_ref.top_level != lf
                    || v_ref.marked.load(Ordering::Acquire)
                {
                    return false;
                }
                let lock = v_ref.lock.lock();
                if v_ref.marked.load(Ordering::Acquire) {
                    return false; // lost the race to another remover
                }
                v_ref.marked.store(true, Ordering::Release); // linearization point
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
            return true;
        }
    }

    /// Takes no locks.
    fn contains(&self, key: &K) -> bool {
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

    /// A level-0 walk.
    fn len(&self) -> usize {
        let mut n = 0;
        self.walk(|_| n += 1);
        n
    }

    fn snapshot(&self) -> Vec<K> {
        let mut out = Vec::new();
        self.walk(|k| out.push(k.clone()));
        out
    }
}

impl<K> Drop for LazySkipListSet<K> {
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
    use std::collections::BTreeSet;
    use std::sync::atomic::Ordering;
    use std::sync::Arc;

    #[test]
    fn add_remove_contains_basics() {
        let s = LazySkipListSet::new();
        assert!(!s.contains(&5));
        assert!(s.add(5));
        assert!(!s.add(5), "duplicate add must report unchanged");
        assert!(s.contains(&5));
        assert!(s.remove(&5));
        assert!(!s.remove(&5), "removing absent key must report unchanged");
        assert!(!s.contains(&5));
    }

    #[test]
    fn keeps_sorted_order() {
        let s = LazySkipListSet::new();
        for k in [5i64, 1, 9, 3, 7] {
            s.add(k);
        }
        assert_eq!(s.snapshot(), vec![1, 3, 5, 7, 9]);
        assert_eq!(s.len(), 5);
        assert!(!s.is_empty());
    }

    #[test]
    fn empty_set_properties() {
        let s = LazySkipListSet::<i32>::new();
        assert!(s.is_empty());
        assert_eq!(s.len(), 0);
        assert_eq!(s.snapshot(), Vec::<i32>::new());
    }

    #[test]
    fn add_after_remove_reinserts() {
        let s = LazySkipListSet::new();
        assert!(s.add(1));
        assert!(s.remove(&1));
        assert!(s.add(1));
        assert!(s.contains(&1));
    }

    #[test]
    fn works_with_string_keys() {
        let s = LazySkipListSet::new();
        assert!(s.add("beta".to_string()));
        assert!(s.add("alpha".to_string()));
        assert_eq!(s.snapshot(), vec!["alpha".to_string(), "beta".to_string()]);
    }

    #[test]
    fn matches_btreeset_oracle_on_random_sequential_workload() {
        let mut rng = StdRng::seed_from_u64(42);
        let s = LazySkipListSet::new();
        let mut oracle = BTreeSet::new();
        for _ in 0..20_000 {
            let k: i32 = rng.random_range(0..200);
            match rng.random_range(0..3) {
                0 => assert_eq!(s.add(k), oracle.insert(k), "add({k})"),
                1 => assert_eq!(s.remove(&k), oracle.remove(&k), "remove({k})"),
                _ => assert_eq!(s.contains(&k), oracle.contains(&k), "contains({k})"),
            }
        }
        assert_eq!(s.snapshot(), oracle.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_disjoint_adds_all_visible() {
        let s = Arc::new(LazySkipListSet::new());
        let threads = 8;
        let per = 2_000;
        let mut handles = Vec::new();
        for t in 0..threads {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                for i in 0..per {
                    assert!(s.add((t * per + i) as i64));
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(s.len(), (threads * per) as usize);
        let snap = s.snapshot();
        assert!(snap.windows(2).all(|w| w[0] < w[1]), "snapshot not sorted");
    }

    #[test]
    fn concurrent_add_remove_same_keys_is_consistent() {
        // Adders and removers fight over a small key range; afterwards
        // the set must equal exactly the effect of the committed
        // operations: every key's membership equals (adds won) — we
        // can't predict it, but we *can* check internal consistency and
        // that every remove() == true was preceded by an add() == true.
        let s = Arc::new(LazySkipListSet::new());
        let threads = 8;
        let ops = 5_000;
        let mut handles = Vec::new();
        for t in 0..threads {
            let s = Arc::clone(&s);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                let mut net = std::collections::HashMap::<i64, i64>::new();
                for _ in 0..ops {
                    let k = rng.random_range(0..64i64);
                    if rng.random_bool(0.5) {
                        if s.add(k) {
                            *net.entry(k).or_insert(0) += 1;
                        }
                    } else if s.remove(&k) {
                        *net.entry(k).or_insert(0) -= 1;
                    }
                }
                net
            }));
        }
        let mut net = std::collections::HashMap::<i64, i64>::new();
        for h in handles {
            for (k, d) in h.join().unwrap() {
                *net.entry(k).or_insert(0) += d;
            }
        }
        // Successful adds minus successful removes per key must be 0 or
        // 1, and equal to final membership.
        for k in 0..64i64 {
            let d = net.get(&k).copied().unwrap_or(0);
            assert!(
                d == 0 || d == 1,
                "key {k}: net successful adds {d} impossible for a set"
            );
            assert_eq!(
                s.contains(&k),
                d == 1,
                "key {k}: membership inconsistent with op outcomes"
            );
        }
    }

    #[test]
    fn concurrent_contains_never_blocks_progress() {
        let s = Arc::new(LazySkipListSet::new());
        for k in 0..100i64 {
            s.add(k);
        }
        let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
        let mut handles = Vec::new();
        for _ in 0..4 {
            let (s, stop) = (Arc::clone(&s), Arc::clone(&stop));
            handles.push(std::thread::spawn(move || {
                let mut hits = 0u64;
                // Check `stop` after the lookup, not before: the writer
                // can finish and raise `stop` before this thread is
                // first scheduled, and every reader must prove progress.
                loop {
                    if s.contains(&50) {
                        hits += 1;
                    }
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                }
                hits
            }));
        }
        for i in 0..2_000i64 {
            s.add(1000 + i);
            s.remove(&(1000 + i));
        }
        stop.store(true, Ordering::Relaxed);
        for h in handles {
            assert!(h.join().unwrap() > 0);
        }
        assert!(s.contains(&50));
    }

    #[test]
    fn drop_frees_partially_removed_structures() {
        // Exercise Drop after heavy churn (ASan-style check: just must
        // not crash or leak under normal test harness).
        let s = LazySkipListSet::new();
        for k in 0..1000i64 {
            s.add(k);
        }
        for k in (0..1000i64).step_by(2) {
            s.remove(&k);
        }
        drop(s);
    }
}
