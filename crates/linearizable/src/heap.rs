//! A fine-grained concurrent binary min-heap.
//!
//! The Rust stand-in for the paper's base priority queue — "a
//! linearizable heap implementation due to Hunt" with fine-grained
//! locks, where `removeMin` removes the root and re-balances while
//! `add` places the value at a leaf and percolates up (Section 3.2).
//!
//! ## Algorithm
//!
//! The heap is a 1-based implicit binary tree of slots, each with its
//! own mutex and a tag:
//!
//! * `Empty` — past the end of the heap;
//! * `Available` — holds a settled item;
//! * `Busy(owner)` — holds an item still percolating up on behalf of
//!   the `add` operation identified by `owner`.
//!
//! `add` reserves the next leaf under a small allocation lock, tags it
//! `Busy`, then repeatedly locks (parent, child) pairs — always in
//! ascending index order, which rules out deadlock — swapping its item
//! up while it beats its parent. `remove_min` waits until the root and
//! the last slot are both `Available` (in-flight `Busy` items are moved
//! only by their owners, never by other operations), moves the last
//! item to the root, then percolates down hand-over-hand. A `Busy`
//! child simply stops the downward pass: its owner re-establishes the
//! heap order on its way up.
//!
//! ## Consistency contract
//!
//! Like Hunt's original, this heap is **quiescently consistent** rather
//! than linearizable: a `remove_min` overlapping an `add` of a smaller
//! item may miss that item. This is exactly the contract the boosted
//! priority queue needs — its readers-writer abstract lock (the paper's
//! Figure 5) runs `add`s concurrently with each other but gives
//! `removeMin` exclusive access, so every `remove_min` executes with no
//! in-flight `add` and observes a true minimum.

use parking_lot::{Mutex, MutexGuard};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::OnceLock;

const ROOT: usize = 1;
const CHUNK: usize = 1024;
const DEFAULT_MAX_CHUNKS: usize = 4096; // 4M items

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Tag {
    Empty,
    Available,
    Busy(u64),
}

#[derive(Debug)]
struct SlotInner<T> {
    tag: Tag,
    item: Option<T>,
}

type Slot<T> = Mutex<SlotInner<T>>;
/// A lazily-allocated, immovable block of slots.
type Chunk<T> = OnceLock<Box<[Slot<T>]>>;

/// A concurrent binary min-heap with per-slot locks.
///
/// `T`'s `Ord` is the priority order; ties break arbitrarily. See the
/// [module docs](self) for the algorithm and the consistency contract.
pub struct ConcurrentHeap<T> {
    /// Index of the next free slot (1-based); doubles as the allocation
    /// lock serializing slot reservation and release.
    next: Mutex<usize>,
    /// Chunked slot directory: chunks are allocated on demand and never
    /// move, so slot references stay valid without a directory lock.
    chunks: Box<[Chunk<T>]>,
    /// Owner-id source for `Busy` tags.
    op_id: AtomicU64,
}

impl<T> std::fmt::Debug for ConcurrentHeap<T> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ConcurrentHeap")
            .field("len", &(*self.next.lock() - ROOT))
            .finish()
    }
}

impl<T: Ord> Default for ConcurrentHeap<T> {
    fn default() -> Self {
        ConcurrentHeap::new()
    }
}

impl<T: Ord> ConcurrentHeap<T> {
    /// An empty heap with the default maximum capacity (~4M items).
    pub fn new() -> Self {
        ConcurrentHeap::with_max_chunks(DEFAULT_MAX_CHUNKS)
    }

    fn with_max_chunks(max_chunks: usize) -> Self {
        ConcurrentHeap {
            next: Mutex::new(ROOT),
            chunks: (0..max_chunks.max(1)).map(|_| OnceLock::new()).collect(),
            op_id: AtomicU64::new(1),
        }
    }

    fn slot(&self, i: usize) -> &Slot<T> {
        let idx = i - 1;
        let chunk = self.chunks[idx / CHUNK]
            .get()
            .expect("slot accessed before its chunk was allocated");
        &chunk[idx % CHUNK]
    }

    /// Whether slot `i`'s chunk exists (slots in unallocated chunks are
    /// implicitly `Empty`).
    fn slot_exists(&self, i: usize) -> bool {
        let idx = i - 1;
        idx / CHUNK < self.chunks.len() && self.chunks[idx / CHUNK].get().is_some()
    }

    fn ensure_chunk(&self, i: usize) {
        let c = (i - 1) / CHUNK;
        assert!(
            c < self.chunks.len(),
            "ConcurrentHeap capacity exceeded ({} slots)",
            self.chunks.len() * CHUNK
        );
        self.chunks[c].get_or_init(|| {
            (0..CHUNK)
                .map(|_| {
                    Mutex::new(SlotInner {
                        tag: Tag::Empty,
                        item: None,
                    })
                })
                .collect()
        });
    }

    /// Number of items (exact only at quiescence).
    pub fn len(&self) -> usize {
        *self.next.lock() - ROOT
    }

    /// Whether the heap is empty (same caveat as [`ConcurrentHeap::len`]).
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Insert `item`. Runs concurrently with other `add`s; disjoint
    /// percolation paths never contend.
    pub fn add(&self, item: T) {
        let me = self.op_id.fetch_add(1, Ordering::Relaxed);
        // Reserve a leaf: allocation lock → slot lock → release
        // allocation lock. The slot is tagged Busy before its mutex is
        // released, so observers never see a reserved-but-untagged slot.
        let mut next = self.next.lock();
        let leaf = *next;
        self.ensure_chunk(leaf);
        let mut slot = self.slot(leaf).lock();
        *next += 1;
        drop(next);
        debug_assert_eq!(slot.tag, Tag::Empty);
        slot.tag = Tag::Busy(me);
        slot.item = Some(item);
        drop(slot);

        // Percolate up. Invariant: our Busy item sits exactly at
        // `child` — nothing else ever moves a Busy item.
        let mut child = leaf;
        while child > ROOT {
            let parent = child / 2;
            let mut pg = self.slot(parent).lock();
            let mut cg = self.slot(child).lock();
            debug_assert_eq!(cg.tag, Tag::Busy(me), "Busy item moved by a non-owner");
            match pg.tag {
                Tag::Available => {
                    if cg.item < pg.item {
                        std::mem::swap(&mut pg.item, &mut cg.item);
                        pg.tag = Tag::Busy(me);
                        cg.tag = Tag::Available;
                        child = parent;
                    } else {
                        cg.tag = Tag::Available;
                        return;
                    }
                }
                // Another add's item is passing through the parent; let
                // it move on and retry.
                Tag::Busy(_) => {}
                Tag::Empty => unreachable!("occupied slot has an empty parent"),
            }
        }
        // Reached the root still Busy: settle there.
        let mut rg = self.slot(ROOT).lock();
        debug_assert_eq!(rg.tag, Tag::Busy(me));
        rg.tag = Tag::Available;
    }

    /// Remove and return a minimal item, or `None` if the heap is
    /// empty. Overlapping `remove_min`s serialize on the root handoff
    /// but percolate down different branches concurrently.
    pub fn remove_min(&self) -> Option<T> {
        let mut next = self.next.lock();
        if *next == ROOT {
            return None;
        }
        let bottom = *next - 1;
        loop {
            if bottom == ROOT {
                let mut rg = self.slot(ROOT).lock();
                if rg.tag == Tag::Available {
                    let item = rg.item.take();
                    rg.tag = Tag::Empty;
                    *next -= 1;
                    return item;
                }
                // An add is finalizing the root; let it finish.
                drop(rg);
                std::hint::spin_loop();
                continue;
            }
            let mut rg = self.slot(ROOT).lock();
            let mut bg = self.slot(bottom).lock();
            if rg.tag == Tag::Available && bg.tag == Tag::Available {
                let min_item = rg.item.take();
                rg.item = bg.item.take();
                bg.tag = Tag::Empty;
                *next -= 1;
                drop(bg);
                drop(next);
                self.percolate_down(rg);
                return min_item;
            }
            // The root or the last slot belongs to an in-flight add;
            // only its owner can settle it, and the owner never needs
            // the allocation lock we hold — so spinning here is safe.
            drop(bg);
            drop(rg);
            std::hint::spin_loop();
        }
    }

    /// Hand-over-hand downward pass starting from a locked root.
    fn percolate_down<'a>(&'a self, mut pg: MutexGuard<'a, SlotInner<T>>) {
        let mut parent = ROOT;
        loop {
            let left = 2 * parent;
            let right = left + 1;
            // Lock existing children in ascending index order.
            let lg = if self.slot_exists(left) {
                Some(self.slot(left).lock())
            } else {
                None
            };
            let rg = if self.slot_exists(right) {
                Some(self.slot(right).lock())
            } else {
                None
            };
            // Candidates are Available children; a Busy child's owner
            // restores heap order on its way up, and Empty means past
            // the end of the heap.
            let l_ok = matches!(lg.as_ref().map(|g| g.tag), Some(Tag::Available));
            let r_ok = matches!(rg.as_ref().map(|g| g.tag), Some(Tag::Available));
            let pick_left = match (l_ok, r_ok) {
                (false, false) => {
                    return; // no settled child to compare against
                }
                (true, false) => true,
                (false, true) => false,
                (true, true) => lg.as_ref().unwrap().item <= rg.as_ref().unwrap().item,
            };
            let (child, mut cg) = if pick_left {
                drop(rg);
                (left, lg.unwrap())
            } else {
                drop(lg);
                (right, rg.unwrap())
            };
            if cg.item < pg.item {
                std::mem::swap(&mut pg.item, &mut cg.item);
                drop(pg);
                parent = child;
                pg = cg;
            } else {
                return;
            }
        }
    }

    /// A clone of a minimal item without removing it, or `None` if
    /// empty.
    pub fn min(&self) -> Option<T>
    where
        T: Clone,
    {
        let next = self.next.lock();
        if *next == ROOT {
            return None;
        }
        loop {
            let rg = self.slot(ROOT).lock();
            match rg.tag {
                Tag::Available => return rg.item.clone(),
                Tag::Busy(_) => {
                    drop(rg);
                    std::hint::spin_loop();
                }
                Tag::Empty => unreachable!("non-empty heap has an empty root"),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::prelude::*;
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
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
    #[should_panic(expected = "capacity exceeded")]
    fn exceeding_capacity_panics_cleanly() {
        let h = ConcurrentHeap::with_max_chunks(1);
        for i in 0..=(CHUNK as i64) {
            h.add(i);
        }
    }

    #[test]
    fn heap_grows_across_chunk_boundaries() {
        let h = ConcurrentHeap::with_max_chunks(3);
        let n = (2 * CHUNK + 10) as i64;
        for i in (0..n).rev() {
            h.add(i);
        }
        assert_eq!(h.len(), n as usize);
        assert_eq!(drain(&h), (0..n).collect::<Vec<_>>());
    }
}
