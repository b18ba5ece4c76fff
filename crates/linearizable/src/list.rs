//! A sorted linked-list set with *lock coupling* (hand-over-hand
//! locking).
//!
//! This is the fine-grained list from the paper's introduction: "as a
//! thread traverses the list, it successively locks each node a, then
//! locks its successor b = a.next, and then unlocks a". All critical
//! sections are short-lived and multiple threads traverse the list
//! concurrently — the level of concurrency read/write-conflict STMs
//! cannot express, and the motivating example for boosting.
//!
//! Concretely, each node owns a mutex over its `next` link; a traversal
//! always holds exactly one or two of those mutexes, and acquires them
//! strictly in list order, which rules out deadlock.

use crate::LinearizableSet;
use parking_lot::{Mutex, MutexGuard};
use std::cmp::Ordering as CmpOrdering;
use std::sync::Arc;

type Link<K> = Option<Arc<Node<K>>>;

#[derive(Debug)]
struct Node<K> {
    /// `None` marks the head sentinel, which sorts before every key.
    key: Option<K>,
    next: Mutex<Link<K>>,
}

/// A cursor holding the lock on one node's `next` link.
///
/// `guard` borrows from the allocation kept alive by `_node`; bundling
/// them makes the borrow self-contained so the traversal can walk
/// node-to-node while the borrow checker sees only owned values. The
/// lifetime transmute is sound because (a) `_node` keeps the referent
/// alive for the cursor's whole life and (b) field order makes `guard`
/// drop first.
struct Cursor<K: 'static> {
    guard: MutexGuard<'static, Link<K>>,
    _node: Arc<Node<K>>,
}

impl<K: 'static> Cursor<K> {
    fn lock(node: Arc<Node<K>>) -> Self {
        let guard = node.next.lock();
        // SAFETY: see type docs — the guard never outlives `_node`.
        let guard = unsafe {
            std::mem::transmute::<MutexGuard<'_, Link<K>>, MutexGuard<'static, Link<K>>>(guard)
        };
        Cursor { guard, _node: node }
    }
}

/// A linearizable sorted-set backed by a singly linked list with
/// hand-over-hand locking. See the [module docs](self).
#[derive(Debug)]
pub struct LockCouplingList<K: 'static> {
    head: Arc<Node<K>>,
}

impl<K: Ord + 'static> Default for LockCouplingList<K> {
    fn default() -> Self {
        LockCouplingList::new()
    }
}

impl<K: Ord + 'static> LockCouplingList<K> {
    /// An empty set.
    pub fn new() -> Self {
        LockCouplingList {
            head: Arc::new(Node {
                key: None,
                next: Mutex::new(None),
            }),
        }
    }

    /// Walk with lock coupling until the cursor's successor is the
    /// first node with key ≥ `key` (or the end). Returns the cursor
    /// positioned at the predecessor.
    fn find_pred(&self, key: &K) -> Cursor<K> {
        let mut cur = Cursor::lock(Arc::clone(&self.head));
        loop {
            let advance = match cur.guard.as_ref() {
                Some(succ) => {
                    let sk = succ.key.as_ref().expect("only head lacks a key");
                    sk.cmp(key) == CmpOrdering::Less
                }
                None => false,
            };
            if !advance {
                return cur;
            }
            let succ = Arc::clone(cur.guard.as_ref().unwrap());
            // Coupling: lock the successor *before* releasing the
            // predecessor (the assignment drops the old cursor after
            // the RHS has locked).
            cur = Cursor::lock(succ);
        }
    }
}

impl<K: Ord + Clone + 'static> LinearizableSet<K> for LockCouplingList<K> {
    fn add(&self, key: K) -> bool {
        let mut cur = self.find_pred(&key);
        if let Some(succ) = cur.guard.as_ref() {
            if succ.key.as_ref() == Some(&key) {
                return false;
            }
        }
        let node = Arc::new(Node {
            key: Some(key),
            next: Mutex::new(cur.guard.take()),
        });
        *cur.guard = Some(node);
        true
    }

    fn remove(&self, key: &K) -> bool {
        let mut cur = self.find_pred(key);
        let Some(succ) = cur.guard.as_ref() else {
            return false;
        };
        if succ.key.as_ref() != Some(key) {
            return false;
        }
        let victim = Arc::clone(succ);
        // Lock the victim before unlinking (the second half of the
        // coupling pair), so a traversal paused inside the victim
        // finishes before the node leaves the list.
        let mut victim_next = victim.next.lock();
        *cur.guard = victim_next.take();
        true
    }

    /// Traverses with the same coupling protocol (this list has no
    /// lock-free reads — that is the skip list's job).
    fn contains(&self, key: &K) -> bool {
        let cur = self.find_pred(key);
        matches!(cur.guard.as_ref(), Some(succ) if succ.key.as_ref() == Some(key))
    }

    /// Walks the whole list.
    fn len(&self) -> usize {
        let mut n = 0;
        let mut cur = Cursor::lock(Arc::clone(&self.head));
        while let Some(succ) = cur.guard.as_ref() {
            n += 1;
            let succ = Arc::clone(succ);
            cur = Cursor::lock(succ);
        }
        n
    }

    /// Looks only at the head's link.
    fn is_empty(&self) -> bool {
        self.head.next.lock().is_none()
    }

    fn snapshot(&self) -> Vec<K> {
        let mut out = Vec::new();
        let mut cur = Cursor::lock(Arc::clone(&self.head));
        while let Some(succ) = cur.guard.as_ref() {
            out.push(succ.key.clone().expect("only head lacks a key"));
            let succ = Arc::clone(succ);
            cur = Cursor::lock(succ);
        }
        out
    }
}

impl<K: 'static> Drop for LockCouplingList<K> {
    fn drop(&mut self) {
        // Unlink iteratively so a long list cannot overflow the stack
        // through recursive Arc drops.
        let mut link = self.head.next.lock().take();
        while let Some(node) = link {
            link = node.next.lock().take();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn add_remove_contains_basics() {
        let l = LockCouplingList::new();
        assert!(l.is_empty());
        assert!(l.add(2));
        assert!(l.add(4));
        assert!(!l.add(2));
        assert!(l.contains(&2));
        assert!(!l.contains(&3));
        assert!(l.remove(&2));
        assert!(!l.remove(&2));
        assert_eq!(l.snapshot(), vec![4]);
    }

    #[test]
    fn keeps_sorted_order() {
        let l = LockCouplingList::new();
        for k in [5, 1, 9, 3, 7] {
            l.add(k);
        }
        assert_eq!(l.snapshot(), vec![1, 3, 5, 7, 9]);
        assert_eq!(l.len(), 5);
    }

    #[test]
    fn matches_btreeset_oracle() {
        let mut rng = StdRng::seed_from_u64(11);
        let l = LockCouplingList::new();
        let mut oracle = BTreeSet::new();
        for _ in 0..5_000 {
            let k: i32 = rng.random_range(0..100);
            match rng.random_range(0..3) {
                0 => assert_eq!(l.add(k), oracle.insert(k)),
                1 => assert_eq!(l.remove(&k), oracle.remove(&k)),
                _ => assert_eq!(l.contains(&k), oracle.contains(&k)),
            }
        }
        assert_eq!(l.snapshot(), oracle.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn the_papers_intro_scenario_adds_2_and_4_concurrently() {
        // Set state {1,3,5}; transaction A adds 2, B adds 4 — the
        // operations have no inherent conflict and both succeed.
        let l = std::sync::Arc::new(LockCouplingList::new());
        for k in [1, 3, 5] {
            l.add(k);
        }
        let (l1, l2) = (std::sync::Arc::clone(&l), std::sync::Arc::clone(&l));
        let a = std::thread::spawn(move || l1.add(2));
        let b = std::thread::spawn(move || l2.add(4));
        assert!(a.join().unwrap());
        assert!(b.join().unwrap());
        assert_eq!(l.snapshot(), vec![1, 2, 3, 4, 5]);
    }

    #[test]
    fn concurrent_mixed_workload_is_consistent() {
        let l = std::sync::Arc::new(LockCouplingList::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let l = std::sync::Arc::clone(&l);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t);
                let mut net = std::collections::HashMap::<i32, i32>::new();
                for _ in 0..2_000 {
                    let k = rng.random_range(0..32);
                    if rng.random_bool(0.5) {
                        if l.add(k) {
                            *net.entry(k).or_insert(0) += 1;
                        }
                    } else if l.remove(&k) {
                        *net.entry(k).or_insert(0) -= 1;
                    }
                }
                net
            }));
        }
        let mut net = std::collections::HashMap::<i32, i32>::new();
        for h in handles {
            for (k, d) in h.join().unwrap() {
                *net.entry(k).or_insert(0) += d;
            }
        }
        let snap = l.snapshot();
        assert!(snap.windows(2).all(|w| w[0] < w[1]), "not sorted/unique");
        for k in 0..32 {
            let d = net.get(&k).copied().unwrap_or(0);
            assert!(d == 0 || d == 1, "key {k}: impossible net count {d}");
            assert_eq!(snap.contains(&k), d == 1, "key {k}");
        }
    }

    #[test]
    fn drop_of_long_list_does_not_overflow_stack() {
        // Long enough that naive recursive Arc drops would overflow the
        // stack, short enough that the O(n²) insertion cost stays cheap.
        let l = LockCouplingList::new();
        for k in 0..30_000 {
            l.add(k); // ascending ⇒ each add appends at the tail
        }
        drop(l);
    }
}
