//! A lazy concurrent skip-list set.
//!
//! The Rust stand-in for `java.util.concurrent.ConcurrentSkipListSet`,
//! the base object of the paper's `SkipListKey` example (Figure 2).
//! The algorithm is the *lazy skip list* of Herlihy & Shavit (the same
//! lineage as the JDK class): `contains` traverses without taking any
//! locks; `add` and `remove` lock only the handful of predecessor nodes
//! they relink, so operations on disjoint keys proceed fully in
//! parallel. Logical deletion (a `marked` flag) precedes physical
//! unlinking. A node holds its key and one lock, which guards the
//! node's links.
//!
//! The set reclaims its own nodes, playing the role of the JVM's
//! garbage collector. Every operation pins the set for its duration (a
//! count of live pins), and a remover puts the node it unlinked on the
//! set's retired list. The unpin that brings the count to zero frees
//! that list: at that instant no operation holds a reference into the
//! set, and a later one starts at the head, from which no retired node
//! is reachable. Pins are per set, so a reader of one set never holds
//! back another's garbage; only a set whose operations overlap without
//! a break keeps its retired nodes until they do. `Drop` frees the
//! rest.
//!
//! Linearization points:
//! * `add` of an absent key — setting `fully_linked` after the node is
//!   spliced into every level;
//! * successful `remove` — setting `marked` on the victim;
//! * `contains`, `add` of a present key and a failed `remove` — the
//!   instant the traversal observed the relevant node (or its absence).

use crate::LinearizableSet;
use parking_lot::{Mutex, MutexGuard};
use std::cell::Cell;
use std::cmp::Ordering as CmpOrdering;
use std::marker::PhantomData;
use std::ptr;
use std::sync::atomic::{AtomicBool, AtomicPtr, AtomicUsize, Ordering};
use std::sync::Arc;

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

/// A link holds null (the tail's) or the pointer `Box::into_raw` gave
/// for its node, and a node is freed only through that pointer.
type Link<K> = AtomicPtr<Node<K>>;

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
    next: Vec<Link<K>>,
}

impl<K> Node<K> {
    fn new(key: Key<K>, top_level: usize, fully_linked: bool) -> Self {
        Node {
            key,
            top_level,
            lock: Mutex::new(()),
            marked: AtomicBool::new(false),
            fully_linked: AtomicBool::new(fully_linked),
            next: (0..=top_level)
                .map(|_| AtomicPtr::new(ptr::null_mut()))
                .collect(),
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
            x = (ptr::from_ref(c) as u64) | 0x9E37_79B9_7F4A_7C15;
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
///
/// Every thread that reaches a node shares its key, so the set is
/// `Send` and `Sync` only when `K` is both:
///
/// ```compile_fail
/// fn sync<T: Sync>() {}
/// sync::<txboost_linearizable::LazySkipListSet<std::rc::Rc<i64>>>();
/// ```
pub struct LazySkipListSet<K> {
    /// The `NegInf` sentinel. No link points to it, so it lives inline.
    head: Node<K>,
    /// Operations in progress (see [`Pin`]).
    pins: AtomicUsize,
    /// Unlinked nodes, each as the pointer its links held, waiting for
    /// `pins` to reach zero. (`AtomicPtr` only because a raw pointer
    /// is not `Send`.)
    retired: Mutex<Vec<Link<K>>>,
    /// `retired` may be non-empty: spares an unpin the lock otherwise.
    has_retired: AtomicBool,
    /// Links are `AtomicPtr`s, which are `Send + Sync` whatever they
    /// point to; this restores the bounds of owning shared `K`s.
    _keys: PhantomData<Arc<K>>,
}

const _: () = {
    const fn send_sync<T: Send + Sync>() {}
    send_sync::<LazySkipListSet<i64>>();
};

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

/// One operation's hold on its set: no retired node of the set is freed
/// while a pin is live, so a node reached under a pin outlives it.
struct Pin<'s, K> {
    set: &'s LazySkipListSet<K>,
}

impl<K> Pin<'_, K> {
    /// The node `link` points to. Every caller in this module passes a
    /// link of the head or of a node reached under this pin, and stops
    /// at the tail, whose links are null.
    #[allow(clippy::unused_self)] // the borrow of `self` bounds the result
    fn load<'p>(&'p self, link: &Link<K>) -> &'p Node<K> {
        let node = link.load(Ordering::Acquire);
        debug_assert!(!node.is_null(), "followed a link of the tail");
        // SAFETY: a non-tail link holds a `Box::into_raw` pointer. A
        // node reached from the head under this pin was linked at some
        // instant after the pin was taken (an unlinked node's links
        // still point at nodes that were linked when it was unlinked),
        // so it is retired, if at all, while this pin is live, and
        // retired nodes are freed only once `pins` reads zero, which
        // `self` prevents for `'p`.
        unsafe { &*node }
    }

    /// Hand `node` to the set to free once no pin is live.
    ///
    /// # Safety
    /// `node` is the pointer a link held, and the node is unlinked from
    /// every level (no link of a linked node reaches it) and retired
    /// only this once.
    unsafe fn retire(&self, node: *mut Node<K>) {
        let mut retired = self.set.retired.lock();
        retired.push(AtomicPtr::new(node));
        self.set.has_retired.store(true, Ordering::SeqCst);
    }
}

impl<K> Drop for Pin<'_, K> {
    fn drop(&mut self) {
        let set = self.set;
        if set.pins.fetch_sub(1, Ordering::SeqCst) == 1 && set.has_retired.load(Ordering::SeqCst) {
            set.collect();
        }
    }
}

impl<K: Ord> Pin<'_, K> {
    /// Walk the towers, filling `preds`/`succs` per level; returns the
    /// topmost level at which a node with `key` was found.
    fn find<'p>(
        &'p self,
        key: &K,
        preds: &mut [&'p Node<K>; MAX_LEVEL],
        succs: &mut [&'p Node<K>; MAX_LEVEL],
    ) -> Option<usize> {
        let mut found = None;
        let mut pred = &self.set.head;
        for lvl in (0..MAX_LEVEL).rev() {
            // The PosInf sentinel bounds every level's walk.
            let mut curr = self.load(&pred.next[lvl]);
            loop {
                match curr.key.cmp_key(key) {
                    CmpOrdering::Less => {
                        pred = curr;
                        curr = self.load(&curr.next[lvl]);
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
}

impl<K> LazySkipListSet<K> {
    fn pin(&self) -> Pin<'_, K> {
        self.pins.fetch_add(1, Ordering::SeqCst);
        Pin { set: self }
    }

    /// Free the retired nodes if no operation is in progress.
    fn collect(&self) {
        let mut retired = self.retired.lock();
        // Under the lock: a remover retires while pinned, so a node on
        // the list either has its remover's pin counted here (whose
        // unpin collects it) or is reachable by no live pin. A
        // read-modify-write, not a load, so that the next pin reads its
        // write and sees every unlink before this point.
        if self
            .pins
            .compare_exchange(0, 0, Ordering::SeqCst, Ordering::SeqCst)
            .is_err()
        {
            return;
        }
        let nodes = std::mem::take(&mut *retired);
        self.has_retired.store(false, Ordering::SeqCst);
        drop(retired);
        for node in nodes {
            // SAFETY: `retire`'s contract: `node` is the `Box::into_raw`
            // pointer its links held, unlinked before it was retired,
            // once. No pin is live, and a later pin cannot reach it.
            drop(unsafe { Box::from_raw(node.into_inner()) });
        }
    }
}

impl<K: Ord> LazySkipListSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        let tail = Box::into_raw(Box::new(Node::new(Key::PosInf, MAX_LEVEL - 1, true)));
        let head = Node::new(Key::NegInf, MAX_LEVEL - 1, true);
        for link in &head.next {
            link.store(tail, Ordering::Relaxed);
        }
        LazySkipListSet {
            head,
            pins: AtomicUsize::new(0),
            retired: Mutex::new(Vec::new()),
            has_retired: AtomicBool::new(false),
            _keys: PhantomData,
        }
    }

    /// Lock `preds[0..=top]` (deduplicating repeats) and validate that
    /// every `pred` is unmarked and still points to `expected(lvl)` at
    /// its level. Returns the held guards on success.
    #[allow(clippy::needless_range_loop)] // symmetric indexing of preds/succs is clearer
    fn lock_and_validate<'p>(
        preds: &[&'p Node<K>; MAX_LEVEL],
        expected: impl Fn(usize) -> &'p Node<K>,
        top: usize,
    ) -> Option<Vec<MutexGuard<'p, ()>>> {
        let mut locks: Vec<MutexGuard<'p, ()>> = Vec::with_capacity(top + 1);
        let mut prev: Option<&Node<K>> = None;
        for lvl in 0..=top {
            let pred = preds[lvl];
            if !prev.is_some_and(|p| ptr::eq(p, pred)) {
                locks.push(pred.lock.lock());
                prev = Some(pred);
            }
            if pred.marked.load(Ordering::Acquire)
                || !ptr::eq(pred.next[lvl].load(Ordering::Acquire), expected(lvl))
            {
                return None;
            }
        }
        Some(locks)
    }

    /// Visit every key in the abstract set, in ascending order (a
    /// level-0 walk; exact only at quiescence).
    fn walk(&self, mut f: impl FnMut(&K)) {
        let pin = self.pin();
        let mut node = pin.load(&self.head.next[0]);
        loop {
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
            node = pin.load(&node.next[0]);
        }
    }
}

impl<K: Ord + Clone> LinearizableSet<K> for LazySkipListSet<K> {
    /// Locks only the new node's predecessors. A present key is left
    /// untouched, once its inserter has finished linking it.
    #[allow(clippy::needless_range_loop)] // symmetric indexing of preds/succs is clearer
    fn add(&self, key: K) -> bool {
        let top_level = random_level();
        let pin = self.pin();
        let mut preds = [&self.head; MAX_LEVEL];
        let mut succs = [&self.head; MAX_LEVEL];
        loop {
            if let Some(l_found) = pin.find(&key, &mut preds, &mut succs) {
                let node = succs[l_found];
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
            let locks = Self::lock_and_validate(&preds, |lvl| succs[lvl], top_level);
            let Some(locks) = locks else { continue };
            if (0..=top_level).any(|lvl| succs[lvl].marked.load(Ordering::Acquire)) {
                drop(locks);
                continue;
            }
            let node = Node::new(Key::Value(key), top_level, false);
            for lvl in 0..=top_level {
                // Copy the locked pred's link, which validation found
                // pointing at `succs[lvl]`: links keep `into_raw` pointers.
                node.next[lvl].store(
                    preds[lvl].next[lvl].load(Ordering::Relaxed),
                    Ordering::Relaxed,
                );
            }
            let node = Box::into_raw(Box::new(node));
            for lvl in 0..=top_level {
                preds[lvl].next[lvl].store(node, Ordering::Release);
            }
            // `preds[0]` is still locked, so its level-0 link is `node`.
            pin.load(&preds[0].next[0])
                .fully_linked
                .store(true, Ordering::Release);
            return true;
        }
    }

    /// Locks the victim, then its predecessors.
    fn remove(&self, key: &K) -> bool {
        let pin = self.pin();
        let mut preds = [&self.head; MAX_LEVEL];
        let mut succs = [&self.head; MAX_LEVEL];
        let mut marked: Option<(&Node<K>, MutexGuard<'_, ()>)> = None;
        loop {
            let l_found = pin.find(key, &mut preds, &mut succs);
            let victim = match &marked {
                Some((victim, _)) => *victim,
                None => {
                    // Not yet marked: decide whether the key is removable.
                    let Some(lf) = l_found else { return false };
                    let v = succs[lf];
                    if !v.fully_linked.load(Ordering::Acquire)
                        || v.top_level != lf
                        || v.marked.load(Ordering::Acquire)
                    {
                        return false;
                    }
                    let lock = v.lock.lock();
                    if v.marked.load(Ordering::Acquire) {
                        return false; // lost the race to another remover
                    }
                    v.marked.store(true, Ordering::Release); // linearization point
                    marked = Some((v, lock));
                    v
                }
            };
            let locks = Self::lock_and_validate(&preds, |_| victim, victim.top_level);
            let Some(locks) = locks else { continue };
            let mut unlinked = ptr::null_mut();
            for lvl in (0..=victim.top_level).rev() {
                let succ = victim.next[lvl].load(Ordering::Acquire);
                unlinked = preds[lvl].next[lvl].swap(succ, Ordering::Release);
            }
            drop(marked);
            drop(locks);
            // SAFETY: under the victim's and every pred's lock, each
            // level's swap took out the victim's pointer, which the
            // level-0 swap returned; only the remover that marked the
            // victim gets here, once.
            unsafe { pin.retire(unlinked) };
            return true;
        }
    }

    /// Takes no locks.
    fn contains(&self, key: &K) -> bool {
        let pin = self.pin();
        let mut preds = [&self.head; MAX_LEVEL];
        let mut succs = [&self.head; MAX_LEVEL];
        match pin.find(key, &mut preds, &mut succs) {
            Some(lf) => {
                let node = succs[lf];
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
        self.collect();
        let mut node = *self.head.next[0].get_mut();
        while !node.is_null() {
            // SAFETY: `&mut self`, so no pin is live and the set alone
            // owns each node still linked at level 0, the tail included;
            // `node` is the `Box::into_raw` pointer its link held.
            let owned = unsafe { Box::from_raw(node) };
            node = owned.next[0].load(Ordering::Relaxed);
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
    fn a_set_frees_removed_nodes_while_another_set_is_being_read() {
        static DROPPED: AtomicUsize = AtomicUsize::new(0);
        static ENTERED: AtomicBool = AtomicBool::new(false);
        static GATE: std::sync::Mutex<()> = std::sync::Mutex::new(());

        #[derive(Clone, PartialEq, Eq, PartialOrd, Ord)]
        struct Counted(u64);
        impl Drop for Counted {
            fn drop(&mut self) {
                DROPPED.fetch_add(1, Ordering::SeqCst);
            }
        }

        /// A key whose comparisons wait while `GATE` is held.
        #[derive(Clone, PartialEq, Eq)]
        struct Held(u64);
        impl PartialOrd for Held {
            fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
                Some(self.cmp(other))
            }
        }
        impl Ord for Held {
            fn cmp(&self, other: &Self) -> std::cmp::Ordering {
                ENTERED.store(true, Ordering::SeqCst);
                drop(GATE.lock());
                self.0.cmp(&other.0)
            }
        }

        const KEYS: u64 = 100;
        let a = LazySkipListSet::new();
        std::thread::scope(|scope| {
            let gate = GATE.lock().unwrap();
            let reader = scope.spawn(|| {
                let b = LazySkipListSet::new();
                b.add(Held(1));
                b.contains(&Held(1))
            });
            // B's `contains` is now pinned inside a comparison.
            while !ENTERED.load(Ordering::SeqCst) {
                std::thread::yield_now();
            }
            for k in 0..KEYS {
                assert!(a.add(Counted(k)));
            }
            for k in 0..KEYS {
                assert!(a.remove(&Counted(k)));
            }
            // Each remove drops its argument and, once freed, the node's.
            assert_eq!(
                DROPPED.load(Ordering::SeqCst),
                2 * KEYS as usize,
                "a reader of another set held back this set's removed nodes"
            );
            drop(gate);
            assert!(reader.join().unwrap());
        });
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
