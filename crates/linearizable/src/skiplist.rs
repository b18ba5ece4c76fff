//! A lazy concurrent skip-list set.
//!
//! The Rust stand-in for `java.util.concurrent.ConcurrentSkipListSet`,
//! the base object of the paper's `SkipListKey` example (Figure 2).
//! Like the JDK class, which keeps its elements as the keys of a
//! `ConcurrentSkipListMap` whose values are all `TRUE`, the set is the
//! [`crate::skipmap`] lazy skip list with unit values: `contains`
//! traverses without taking any locks; `add` and `remove` lock only the
//! handful of predecessor nodes they relink, so operations on disjoint
//! keys proceed fully in parallel. `add` binds an absent key and leaves
//! a present one untouched, without taking its value lock.
//!
//! The algorithm (Herlihy & Shavit's lazy skip list), its epoch-based
//! reclamation and its linearization points are documented where they
//! live, in [`crate::skipmap`].

use crate::skipmap::LazySkipListMap;
use crate::LinearizableSet;

/// A linearizable concurrent sorted-set.
///
/// See the [module docs](self) for the algorithm. The public interface
/// is the paper's base object's, [`LinearizableSet`]: `add`, `remove`
/// and `contains`, each returning whether the abstract set changed /
/// holds the key — the booleans the boosted wrapper uses to select
/// inverses.
pub struct LazySkipListSet<K>(LazySkipListMap<K, ()>);

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
        LazySkipListSet(LazySkipListMap::new())
    }
}

impl<K: Ord + Clone> LinearizableSet<K> for LazySkipListSet<K> {
    fn add(&self, key: K) -> bool {
        self.0.put_if_absent(key, ())
    }

    fn remove(&self, key: &K) -> bool {
        self.0.remove(key).is_some()
    }

    /// Takes no locks.
    fn contains(&self, key: &K) -> bool {
        self.0.contains_key(key)
    }

    /// A level-0 walk.
    fn len(&self) -> usize {
        self.0.len()
    }

    fn snapshot(&self) -> Vec<K> {
        self.0.snapshot().into_iter().map(|(k, ())| k).collect()
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
