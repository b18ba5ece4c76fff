//! A lock-striped concurrent hash map.
//!
//! The Rust stand-in for `java.util.concurrent.ConcurrentHashMap` in
//! the paper's `LockKey` class (Figure 3): the abstract-lock table maps
//! each key to its lock object, created on demand with `putIfAbsent`.
//! The map partitions its buckets across independently-locked *stripes*
//! so operations on different stripes never contend.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};

const DEFAULT_STRIPES: usize = 64;

/// A concurrent hash map sharded into independently locked stripes.
///
/// All operations are linearizable: each takes exactly one stripe lock
/// (read or write) for its key, and the linearization point is inside
/// that critical section. Aggregate operations (`len`, `for_each`) are
/// *quiescently* accurate only — they visit stripes one at a time, like
/// their `ConcurrentHashMap` counterparts.
#[derive(Debug)]
pub struct StripedHashMap<K, V, S = RandomState> {
    stripes: Box<[RwLock<HashMap<K, V, S>>]>,
    hasher: S,
}

impl<K: Hash + Eq, V> Default for StripedHashMap<K, V> {
    fn default() -> Self {
        StripedHashMap::new()
    }
}

impl<K: Hash + Eq, V> StripedHashMap<K, V> {
    /// A map with the default stripe count.
    pub fn new() -> Self {
        StripedHashMap::with_stripes(DEFAULT_STRIPES)
    }

    /// A map with `stripes` partitions (rounded up to the next power
    /// of two, and to at least 1, so stripe selection is a bit mask).
    pub fn with_stripes(stripes: usize) -> Self {
        let n = stripes.max(1).next_power_of_two();
        let stripes = (0..n)
            .map(|_| RwLock::new(HashMap::with_hasher(RandomState::new())))
            .collect::<Vec<_>>()
            .into_boxed_slice();
        StripedHashMap {
            stripes,
            hasher: RandomState::new(),
        }
    }
}

impl<K: Hash + Eq, V, S: BuildHasher> StripedHashMap<K, V, S> {
    fn stripe(&self, key: &K) -> &RwLock<HashMap<K, V, S>> {
        // `with_stripes` made the count a power of two.
        let idx = (self.hasher.hash_one(key) as usize) & (self.stripes.len() - 1);
        &self.stripes[idx]
    }

    /// Insert `value` for `key`, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.stripe(&key).write().insert(key, value)
    }

    /// Insert only if absent; returns the previously present value if
    /// the map was not modified (the semantics of Java's
    /// `putIfAbsent`).
    pub fn put_if_absent(&self, key: K, value: V) -> Option<V>
    where
        V: Clone,
    {
        let mut stripe = self.stripe(&key).write();
        match stripe.get(&key) {
            Some(existing) => Some(existing.clone()),
            None => {
                stripe.insert(key, value);
                None
            }
        }
    }

    /// Look up the value for `key` (or construct-and-insert with `make`
    /// if absent) and return a clone. This is the `LockKey` fast path:
    /// `map.get(key)` + `putIfAbsent` collapsed into one stripe
    /// critical section.
    pub fn get_or_insert_with(&self, key: K, make: impl FnOnce() -> V) -> V
    where
        V: Clone,
    {
        // Fast path: read lock only.
        if let Some(v) = self.stripe(&key).read().get(&key) {
            return v.clone();
        }
        let mut stripe = self.stripe(&key).write();
        stripe.entry(key).or_insert_with(make).clone()
    }

    /// Clone of the value for `key`, if present.
    pub fn get(&self, key: &K) -> Option<V>
    where
        V: Clone,
    {
        self.stripe(key).read().get(key).cloned()
    }

    /// Remove `key`, returning its value if present.
    pub fn remove(&self, key: &K) -> Option<V> {
        self.stripe(key).write().remove(key)
    }

    /// Whether `key` is present.
    pub fn contains_key(&self, key: &K) -> bool {
        self.stripe(key).read().contains_key(key)
    }

    /// Apply `f` to the value for `key` under the stripe's write lock;
    /// returns the closure's result, or `None` if the key is absent.
    /// Useful for read-modify-write without cloning.
    pub fn with_mut<R>(&self, key: &K, f: impl FnOnce(&mut V) -> R) -> Option<R> {
        self.stripe(key).write().get_mut(key).map(f)
    }

    /// Total entry count (stripe-at-a-time; exact only at quiescence).
    pub fn len(&self) -> usize {
        self.stripes.iter().map(|s| s.read().len()).sum()
    }

    /// Whether the map is empty (same caveat as [`StripedHashMap::len`]).
    pub fn is_empty(&self) -> bool {
        self.stripes.iter().all(|s| s.read().is_empty())
    }

    /// Visit every entry, one stripe at a time.
    pub fn for_each(&self, mut f: impl FnMut(&K, &V)) {
        for stripe in &self.stripes {
            for (k, v) in stripe.read().iter() {
                f(k, v);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};
    use std::sync::Arc;

    #[test]
    fn insert_get_remove_round_trip() {
        let m = StripedHashMap::new();
        assert_eq!(m.insert("a", 1), None);
        assert_eq!(m.insert("a", 2), Some(1));
        assert_eq!(m.get(&"a"), Some(2));
        assert!(m.contains_key(&"a"));
        assert_eq!(m.remove(&"a"), Some(2));
        assert_eq!(m.get(&"a"), None);
        assert!(!m.contains_key(&"a"));
    }

    #[test]
    fn put_if_absent_matches_java_semantics() {
        let m = StripedHashMap::new();
        assert_eq!(m.put_if_absent(1, "first"), None);
        assert_eq!(m.put_if_absent(1, "second"), Some("first"));
        assert_eq!(m.get(&1), Some("first"));
    }

    #[test]
    fn get_or_insert_with_constructs_once() {
        let m = StripedHashMap::new();
        let calls = AtomicUsize::new(0);
        let v1 = m.get_or_insert_with(7, || {
            calls.fetch_add(1, Ordering::SeqCst);
            "made"
        });
        let v2 = m.get_or_insert_with(7, || {
            calls.fetch_add(1, Ordering::SeqCst);
            "remade"
        });
        assert_eq!((v1, v2), ("made", "made"));
        assert_eq!(calls.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn with_mut_updates_in_place() {
        let m = StripedHashMap::new();
        m.insert("k", vec![1]);
        let r = m.with_mut(&"k", |v| {
            v.push(2);
            v.len()
        });
        assert_eq!(r, Some(2));
        assert_eq!(m.get(&"k"), Some(vec![1, 2]));
        assert_eq!(m.with_mut(&"missing", |_| ()), None);
    }

    #[test]
    fn len_and_for_each_cover_all_stripes() {
        // 3 rounds up to 4: every key must still land on a stripe.
        let m = StripedHashMap::with_stripes(3);
        for i in 0..100 {
            m.insert(i, i * 10);
        }
        assert_eq!(m.len(), 100);
        assert!(!m.is_empty());
        let mut sum = 0;
        m.for_each(|_, v| sum += v);
        assert_eq!(sum, (0..100).map(|i| i * 10).sum::<i32>());
    }

    #[test]
    fn single_stripe_still_works() {
        let m = StripedHashMap::with_stripes(1);
        m.insert(1, "x");
        m.insert(2, "y");
        assert_eq!(m.len(), 2);
    }

    #[test]
    fn concurrent_get_or_insert_creates_exactly_one_value_per_key() {
        let m = Arc::new(StripedHashMap::<u32, Arc<AtomicUsize>>::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for k in 0..64u32 {
                    let cell = m.get_or_insert_with(k, || Arc::new(AtomicUsize::new(0)));
                    cell.fetch_add(1, Ordering::SeqCst);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        // Every thread incremented the *same* cell per key.
        for k in 0..64u32 {
            assert_eq!(m.get(&k).unwrap().load(Ordering::SeqCst), 8, "key {k}");
        }
    }

    #[test]
    fn concurrent_disjoint_inserts_all_land() {
        let m = Arc::new(StripedHashMap::<usize, usize>::new());
        let mut handles = Vec::new();
        for t in 0..8 {
            let m = Arc::clone(&m);
            handles.push(std::thread::spawn(move || {
                for i in 0..500 {
                    m.insert(t * 1000 + i, i);
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(m.len(), 8 * 500);
    }
}
