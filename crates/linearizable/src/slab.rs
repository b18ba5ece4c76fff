//! A concurrent slab allocator.
//!
//! The linearizable substrate for the paper's *free-storage management*
//! discussion (Section 2): transactional `malloc()`/`free()` need an
//! allocator whose allocate/deallocate are linearizable and cheap. A
//! slab hands out stable `usize` handles to stored values; freed handles
//! are recycled through a free list threaded through the vacant slots,
//! its head behind one mutex. The storage grows in immovable chunks of
//! per-slot mutexes: every call takes the chunk directory's read lock
//! and then its slot's mutex, and only growing takes the directory's
//! write lock.

use parking_lot::{Mutex, RwLock};
use std::sync::atomic::{AtomicUsize, Ordering};

const CHUNK: usize = 256;

/// A handle to a slab slot.
pub type SlabKey = usize;

#[derive(Debug)]
enum Slot<T> {
    Vacant { next_free: Option<SlabKey> },
    Occupied(T),
}

/// One immovable chunk of per-slot-locked storage.
type Chunk<T> = Box<[Mutex<Slot<T>>]>;

/// A linearizable slab: `insert` returns a stable key, `remove` frees
/// it for reuse. Individual slots are internally locked; the chunk
/// directory only takes a write lock when growing.
#[derive(Debug)]
pub struct ConcurrentSlab<T> {
    chunks: RwLock<Vec<Chunk<T>>>,
    /// Head of the free list, guarded by a mutex (simple and correct;
    /// allocation is not the hot path for boosted objects).
    free_head: Mutex<Option<SlabKey>>,
    len: AtomicUsize,
}

impl<T> Default for ConcurrentSlab<T> {
    fn default() -> Self {
        ConcurrentSlab::new()
    }
}

impl<T> ConcurrentSlab<T> {
    /// An empty slab.
    pub fn new() -> Self {
        ConcurrentSlab {
            chunks: RwLock::new(Vec::new()),
            free_head: Mutex::new(None),
            len: AtomicUsize::new(0),
        }
    }

    /// Number of occupied slots.
    pub fn len(&self) -> usize {
        self.len.load(Ordering::Relaxed)
    }

    /// Whether no slots are occupied.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Total slots ever created (occupied + recycled-free).
    pub fn capacity(&self) -> usize {
        self.chunks.read().len() * CHUNK
    }

    fn with_slot<R>(&self, key: SlabKey, f: impl FnOnce(&mut Slot<T>) -> R) -> Option<R> {
        let chunks = self.chunks.read();
        let chunk = chunks.get(key / CHUNK)?;
        let mut slot = chunk[key % CHUNK].lock();
        Some(f(&mut slot))
    }

    /// Store `value`, returning its key.
    ///
    /// Lock order (everywhere in this type): `free_head` → `chunks` →
    /// slot mutex. A slot popped from the free list is unreachable by
    /// other threads until this insert publishes the key by returning.
    pub fn insert(&self, value: T) -> SlabKey {
        let key = {
            let mut head = self.free_head.lock();
            match *head {
                Some(key) => {
                    let next = self
                        .with_slot(key, |s| match s {
                            Slot::Vacant { next_free } => *next_free,
                            Slot::Occupied(_) => unreachable!("occupied slot on free list"),
                        })
                        .expect("free-list key out of range");
                    *head = next;
                    key
                }
                None => {
                    // Grow by one chunk. We hold `free_head`, so the
                    // list is empty and stays empty until we splice the
                    // new chunk's tail in — no walk, no races.
                    let mut chunks = self.chunks.write();
                    let base = chunks.len() * CHUNK;
                    let chunk: Box<[Mutex<Slot<T>>]> = (0..CHUNK)
                        .map(|i| {
                            Mutex::new(Slot::Vacant {
                                next_free: if i + 1 < CHUNK {
                                    Some(base + i + 1)
                                } else {
                                    None
                                },
                            })
                        })
                        .collect();
                    chunks.push(chunk);
                    *head = if CHUNK > 1 { Some(base + 1) } else { None };
                    base
                }
            }
        };
        let replaced = self.with_slot(key, |s| {
            let was_vacant = matches!(s, Slot::Vacant { .. });
            *s = Slot::Occupied(value);
            was_vacant
        });
        debug_assert_eq!(replaced, Some(true), "allocated into an occupied slot");
        self.len.fetch_add(1, Ordering::Relaxed);
        key
    }

    /// Remove and return the value at `key` (None if vacant/invalid).
    pub fn remove(&self, key: SlabKey) -> Option<T> {
        let value = self.with_slot(key, |s| {
            match std::mem::replace(s, Slot::Vacant { next_free: None }) {
                Slot::Occupied(v) => Some(v),
                vacant @ Slot::Vacant { .. } => {
                    *s = vacant; // restore: removing a vacant slot is a no-op
                    None
                }
            }
        })??;
        // Link the slot into the free list *before* making it the head,
        // all under the free-list lock, so a concurrent insert can never
        // pop a half-linked slot.
        let mut head = self.free_head.lock();
        let old = *head;
        self.with_slot(key, |s| {
            *s = Slot::Vacant { next_free: old };
        });
        *head = Some(key);
        drop(head);
        self.len.fetch_sub(1, Ordering::Relaxed);
        Some(value)
    }

    /// Clone of the value at `key`.
    pub fn get(&self, key: SlabKey) -> Option<T>
    where
        T: Clone,
    {
        self.with_slot(key, |s| match s {
            Slot::Occupied(v) => Some(v.clone()),
            Slot::Vacant { .. } => None,
        })?
    }

    /// Apply `f` to the value at `key` under its slot lock.
    pub fn with_value<R>(&self, key: SlabKey, f: impl FnOnce(&mut T) -> R) -> Option<R> {
        self.with_slot(key, |s| match s {
            Slot::Occupied(v) => Some(f(v)),
            Slot::Vacant { .. } => None,
        })?
    }

    /// Whether `key` names an occupied slot.
    pub fn contains(&self, key: SlabKey) -> bool {
        self.with_slot(key, |s| matches!(s, Slot::Occupied(_)))
            .unwrap_or(false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn insert_get_remove_round_trip() {
        let slab = ConcurrentSlab::new();
        let k = slab.insert("hello");
        assert_eq!(slab.get(k), Some("hello"));
        assert!(slab.contains(k));
        assert_eq!(slab.len(), 1);
        assert_eq!(slab.remove(k), Some("hello"));
        assert_eq!(slab.get(k), None);
        assert!(!slab.contains(k));
        assert!(slab.is_empty());
    }

    #[test]
    fn removing_twice_is_a_noop() {
        let slab = ConcurrentSlab::new();
        let k = slab.insert(1);
        assert_eq!(slab.remove(k), Some(1));
        assert_eq!(slab.remove(k), None);
        assert_eq!(slab.len(), 0);
    }

    #[test]
    fn keys_are_recycled() {
        let slab = ConcurrentSlab::new();
        let keys: Vec<_> = (0..10).map(|i| slab.insert(i)).collect();
        for &k in &keys {
            slab.remove(k);
        }
        let cap_before = slab.capacity();
        for i in 0..10 {
            slab.insert(100 + i);
        }
        assert_eq!(slab.capacity(), cap_before, "grew instead of recycling");
        assert_eq!(slab.len(), 10);
    }

    #[test]
    fn with_value_mutates_in_place() {
        let slab = ConcurrentSlab::new();
        let k = slab.insert(vec![1]);
        slab.with_value(k, |v| v.push(2)).unwrap();
        assert_eq!(slab.get(k), Some(vec![1, 2]));
        assert_eq!(slab.with_value(999, |_| ()), None);
    }

    #[test]
    fn growth_across_chunks_keeps_all_values() {
        let slab = ConcurrentSlab::new();
        let n = 3 * CHUNK + 17;
        let keys: Vec<_> = (0..n).map(|i| slab.insert(i)).collect();
        assert_eq!(slab.len(), n);
        for (i, &k) in keys.iter().enumerate() {
            assert_eq!(slab.get(k), Some(i), "key {k}");
        }
    }

    #[test]
    fn concurrent_insert_remove_conserves_values() {
        let slab = Arc::new(ConcurrentSlab::new());
        let threads = 8;
        let per = 2_000usize;
        let mut handles = Vec::new();
        for t in 0..threads {
            let slab = Arc::clone(&slab);
            handles.push(std::thread::spawn(move || {
                let mut live = Vec::new();
                let mut kept = Vec::new();
                for i in 0..per {
                    let k = slab.insert(t * per + i);
                    live.push((k, t * per + i));
                    if i % 3 == 0 {
                        let (k, v) = live.swap_remove(0);
                        assert_eq!(slab.remove(k), Some(v));
                    }
                }
                kept.extend(live);
                kept
            }));
        }
        let mut survivors = Vec::new();
        for h in handles {
            survivors.extend(h.join().unwrap());
        }
        assert_eq!(slab.len(), survivors.len());
        for (k, v) in survivors {
            assert_eq!(slab.get(k), Some(v), "key {k}");
        }
    }

    #[test]
    fn concurrent_inserts_never_share_keys() {
        let slab = Arc::new(ConcurrentSlab::new());
        let mut handles = Vec::new();
        for t in 0..8usize {
            let slab = Arc::clone(&slab);
            handles.push(std::thread::spawn(move || {
                (0..1_000)
                    .map(|i| slab.insert(t * 1000 + i))
                    .collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<usize> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        let n = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), n, "two inserts returned the same key");
    }
}
