//! A lock-striped concurrent hash map.
//!
//! The Rust stand-in for `java.util.concurrent.ConcurrentHashMap`, and
//! the base object of the boosted hash map: a boosted `put`, `remove`,
//! `get` or `contains_key` calls the method of the same name here
//! under its key's abstract lock. The map partitions its buckets
//! across independently-locked *stripes*, so operations on different
//! stripes never contend.

use parking_lot::RwLock;
use std::collections::HashMap;
use std::hash::{BuildHasher, Hash, RandomState};

/// Stripe count; a power of two, so stripe selection is a bit mask.
const STRIPES: usize = 64;

/// A concurrent hash map sharded into independently locked stripes.
///
/// All operations are linearizable: each takes exactly one stripe lock
/// (read or write) for its key, and the linearization point is inside
/// that critical section. Aggregate operations (`len`, `for_each`) are
/// *quiescently* accurate only — they visit stripes one at a time, like
/// their `ConcurrentHashMap` counterparts.
#[derive(Debug)]
pub struct StripedHashMap<K, V> {
    stripes: Box<[RwLock<HashMap<K, V>>]>,
    hasher: RandomState,
}

impl<K: Hash + Eq, V> Default for StripedHashMap<K, V> {
    fn default() -> Self {
        StripedHashMap::new()
    }
}

impl<K: Hash + Eq, V> StripedHashMap<K, V> {
    /// An empty map.
    pub fn new() -> Self {
        StripedHashMap {
            stripes: (0..STRIPES).map(|_| RwLock::new(HashMap::new())).collect(),
            hasher: RandomState::new(),
        }
    }

    fn stripe(&self, key: &K) -> &RwLock<HashMap<K, V>> {
        let idx = (self.hasher.hash_one(key) as usize) & (STRIPES - 1);
        &self.stripes[idx]
    }

    /// Insert `value` for `key`, returning the previous value if any.
    pub fn insert(&self, key: K, value: V) -> Option<V> {
        self.stripe(&key).write().insert(key, value)
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
    fn len_and_for_each_cover_all_stripes() {
        let m = StripedHashMap::new();
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
