//! A linearizable binary min-heap: one mutex around a sequential heap.
//!
//! The base object of the paper's boosted priority queue (Fig. 5).
//! The paper uses "a linearizable heap implementation due to Hunt";
//! boosting needs only the word *linearizable*, because it treats its
//! base object as a black box (Theorem 5.3 assumes nothing more). Every
//! call here takes one [`parking_lot::Mutex`] around std's
//! [`BinaryHeap`], so each call takes effect inside its critical
//! section, and [`ConcurrentHeap::len`] is always exact.
//!
//! ## Why one mutex is enough
//!
//! The boosted queue's readers-writer abstract lock gives `removeMin`
//! and `min` the whole queue, so the only base calls that ever overlap
//! are `add`s from transactions holding the lock shared. Each of those
//! is a push and a sift-up, a critical section of tens of nanoseconds:
//! thread-level synchronization, under the transaction-level
//! synchronization the abstract lock provides. Hunt's per-slot locks
//! would let those `add`s percolate in parallel, but taking a lock per
//! level costs more than the serialization it avoids.

use parking_lot::Mutex;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// A concurrent binary min-heap behind one mutex.
///
/// `T`'s `Ord` is the priority order; ties break arbitrarily. See the
/// [module docs](self) for why one lock serves the boosted queue.
pub struct ConcurrentHeap<T> {
    items: Mutex<BinaryHeap<Reverse<T>>>,
}

impl<T> std::fmt::Debug for ConcurrentHeap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentHeap")
            .field("len", &self.items.lock().len())
            .finish()
    }
}

impl<T: Ord> Default for ConcurrentHeap<T> {
    fn default() -> Self {
        ConcurrentHeap::new()
    }
}

impl<T: Ord> ConcurrentHeap<T> {
    /// An empty heap. It grows without bound.
    pub fn new() -> Self {
        ConcurrentHeap {
            items: Mutex::new(BinaryHeap::new()),
        }
    }

    /// Number of items.
    pub fn len(&self) -> usize {
        self.items.lock().len()
    }

    /// Whether the heap is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert `item`.
    pub fn add(&self, item: T) {
        self.items.lock().push(Reverse(item));
    }

    /// Remove and return a minimal item, or `None` if the heap is
    /// empty.
    pub fn remove_min(&self) -> Option<T> {
        self.items.lock().pop().map(|Reverse(item)| item)
    }

    /// A clone of a minimal item without removing it, or `None` if
    /// empty.
    pub fn min(&self) -> Option<T>
    where
        T: Clone,
    {
        self.items.lock().peek().map(|Reverse(item)| item.clone())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use std::sync::Arc;

    /// Everything left, popped in ascending order with `remove_min`.
    fn drain<T: Ord>(h: &ConcurrentHeap<T>) -> Vec<T> {
        std::iter::from_fn(|| h.remove_min()).collect()
    }

    #[test]
    fn empty_heap_behaviour() {
        let h = ConcurrentHeap::<i64>::new();
        assert!(h.is_empty());
        assert_eq!(h.len(), 0);
        assert_eq!(h.remove_min(), None);
        assert_eq!(h.min(), None);
    }

    #[test]
    fn single_item_round_trip() {
        let h = ConcurrentHeap::new();
        h.add(42);
        assert_eq!(h.len(), 1);
        assert_eq!(h.min(), Some(42));
        assert_eq!(h.remove_min(), Some(42));
        assert_eq!(h.remove_min(), None);
    }

    #[test]
    fn removes_in_ascending_order() {
        let h = ConcurrentHeap::new();
        for x in [5, 1, 4, 1, 3, 9, 2] {
            h.add(x);
        }
        assert_eq!(drain(&h), vec![1, 1, 2, 3, 4, 5, 9]);
    }

    #[test]
    fn duplicates_are_allowed() {
        let h = ConcurrentHeap::new();
        for _ in 0..5 {
            h.add(7);
        }
        assert_eq!(h.len(), 5);
        assert_eq!(drain(&h), vec![7; 5]);
    }

    #[test]
    fn min_does_not_remove() {
        let h = ConcurrentHeap::new();
        h.add(3);
        h.add(1);
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.min(), Some(1));
        assert_eq!(h.len(), 2);
    }

    #[test]
    fn matches_binaryheap_oracle_on_random_sequential_workload() {
        let mut rng = StdRng::seed_from_u64(7);
        let h = ConcurrentHeap::new();
        let mut oracle = BinaryHeap::new();
        for _ in 0..20_000 {
            if rng.random_bool(0.55) {
                let x: i64 = rng.random_range(0..1_000);
                h.add(x);
                oracle.push(Reverse(x));
            } else {
                assert_eq!(h.remove_min(), oracle.pop().map(|Reverse(x)| x));
            }
        }
        assert_eq!(
            drain(&h),
            oracle
                .into_sorted_vec()
                .into_iter()
                .rev()
                .map(|Reverse(x)| x)
                .collect::<Vec<_>>()
        );
    }

    #[test]
    fn concurrent_adds_then_sequential_drain_is_sorted_and_complete() {
        let h = Arc::new(ConcurrentHeap::new());
        let threads = 8;
        let per = 2_000i64;
        let mut handles = Vec::new();
        for t in 0..threads {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(t as u64);
                let mut mine = Vec::new();
                for _ in 0..per {
                    let x: i64 = rng.random_range(0..10_000);
                    h.add(x);
                    mine.push(x);
                }
                mine
            }));
        }
        let mut expected: Vec<i64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        expected.sort_unstable();
        let drained = drain(&h);
        assert_eq!(drained, expected);
    }

    #[test]
    fn concurrent_adds_and_removes_conserve_items() {
        let h = Arc::new(ConcurrentHeap::new());
        let threads = 8;
        let per = 2_000usize;
        let mut handles = Vec::new();
        for t in 0..threads {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                let mut rng = StdRng::seed_from_u64(100 + t as u64);
                let mut added = 0i64;
                let mut removed = Vec::new();
                for _ in 0..per {
                    if rng.random_bool(0.6) {
                        h.add(rng.random_range(0..1_000i64));
                        added += 1;
                    } else if let Some(x) = h.remove_min() {
                        removed.push(x);
                    }
                }
                (added, removed)
            }));
        }
        let mut total_added = 0i64;
        let mut total_removed = 0i64;
        for handle in handles {
            let (a, r) = handle.join().unwrap();
            total_added += a;
            total_removed += r.len() as i64;
        }
        let remaining = drain(&h).len() as i64;
        assert_eq!(
            total_added,
            total_removed + remaining,
            "items leaked or duplicated"
        );
    }

    #[test]
    fn quiescent_remove_min_is_global_min() {
        // After all adds quiesce, remove_min must return the true
        // minimum — this is the exact discipline the boosted PQueue's
        // readers-writer lock enforces.
        let h = Arc::new(ConcurrentHeap::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let h = Arc::clone(&h);
            handles.push(std::thread::spawn(move || {
                for i in 0..1000i64 {
                    h.add(t * 1000 + i);
                }
            }));
        }
        for handle in handles {
            handle.join().unwrap();
        }
        assert_eq!(h.remove_min(), Some(0));
        assert_eq!(h.remove_min(), Some(1));
    }

    #[test]
    fn heap_grows_across_chunk_boundaries() {
        // Past two 1,024-item boundaries, drained in full.
        let h = ConcurrentHeap::new();
        let n = 2 * 1024 + 10;
        for i in (0..n).rev() {
            h.add(i);
        }
        assert_eq!(h.len(), n as usize);
        assert_eq!(drain(&h), (0..n).collect::<Vec<i64>>());
    }

    #[test]
    fn grows_past_4m_items() {
        // One past 4,096 chunks of 1,024 slots: the heap has no cap.
        let n: i64 = 4096 * 1024 + 1;
        let h = ConcurrentHeap::new();
        for i in (0..n).rev() {
            h.add(i);
        }
        assert_eq!(h.len(), n as usize);
        for want in 0..3 {
            assert_eq!(h.remove_min(), Some(want));
        }
        assert_eq!(h.len(), n as usize - 3);
    }
}
