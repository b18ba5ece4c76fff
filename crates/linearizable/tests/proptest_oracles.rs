//! Property-based oracle tests for every linearizable base object.
//!
//! Each strategy generates an arbitrary operation script, applies it
//! both to the concurrent structure (sequentially — linearizability
//! under concurrency is covered by the in-module stress tests; here we
//! pin down *sequential* correctness exhaustively) and to a std-library
//! oracle, and requires identical responses and final state.

use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::{BTreeMap, BTreeSet, BinaryHeap, VecDeque};
use txboost_linearizable::*;

#[derive(Debug, Clone, Copy)]
enum SetScriptOp {
    Add(i16),
    Remove(i16),
    Contains(i16),
}

fn set_ops() -> impl Strategy<Value = Vec<SetScriptOp>> {
    proptest::collection::vec(
        (0..40i16, 0..3u8).prop_map(|(k, w)| match w {
            0 => SetScriptOp::Add(k),
            1 => SetScriptOp::Remove(k),
            _ => SetScriptOp::Contains(k),
        }),
        0..200,
    )
}

/// `ops` applied to `set` and to a `BTreeSet` oracle: the same
/// responses, then the same keys.
fn set_matches_btreeset(set: &impl LinearizableSet<i16>, ops: Vec<SetScriptOp>) {
    let mut oracle = BTreeSet::new();
    for op in ops {
        match op {
            SetScriptOp::Add(k) => prop_assert_eq!(set.add(k), oracle.insert(k)),
            SetScriptOp::Remove(k) => prop_assert_eq!(set.remove(&k), oracle.remove(&k)),
            SetScriptOp::Contains(k) => prop_assert_eq!(set.contains(&k), oracle.contains(&k)),
        }
    }
    prop_assert_eq!(set.snapshot(), oracle.iter().copied().collect::<Vec<_>>());
    prop_assert_eq!(set.len(), oracle.len());
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn skiplist_set_matches_btreeset(ops in set_ops()) {
        set_matches_btreeset(&LazySkipListSet::new(), ops);
    }

    #[test]
    fn lock_coupling_list_matches_btreeset(ops in set_ops()) {
        set_matches_btreeset(&LockCouplingList::new(), ops);
    }

    #[test]
    fn sync_rbtree_set_matches_btreeset(ops in set_ops()) {
        set_matches_btreeset(&SyncRbTreeSet::new(), ops);
    }

    #[test]
    fn rbtree_matches_btreeset_with_invariants(ops in set_ops()) {
        let mut s = RbTreeSet::new();
        let mut oracle = BTreeSet::new();
        for op in ops {
            match op {
                SetScriptOp::Add(k) => prop_assert_eq!(s.add(k), oracle.insert(k)),
                SetScriptOp::Remove(k) => prop_assert_eq!(s.remove(&k), oracle.remove(&k)),
                SetScriptOp::Contains(k) => prop_assert_eq!(s.contains(&k), oracle.contains(&k)),
            }
            if let Err(e) = s.check_invariants() {
                prop_assert!(false, "red-black invariant violated: {}", e);
            }
        }
        prop_assert_eq!(s.to_sorted_vec(), oracle.iter().copied().collect::<Vec<_>>());
    }

    #[test]
    fn heap_matches_binaryheap(
        ops in proptest::collection::vec(proptest::option::of(0..1000i32), 0..200)
    ) {
        let h = ConcurrentHeap::new();
        let mut oracle = BinaryHeap::new();
        for op in ops {
            match op {
                Some(x) => {
                    h.add(x);
                    oracle.push(Reverse(x));
                }
                None => prop_assert_eq!(h.remove_min(), oracle.pop().map(|Reverse(x)| x)),
            }
            prop_assert_eq!(h.min(), oracle.peek().map(|&Reverse(x)| x));
            prop_assert_eq!(h.len(), oracle.len());
        }
    }

    #[test]
    fn deque_matches_vecdeque(
        ops in proptest::collection::vec((0..4u8, 0..100i32), 0..200)
    ) {
        let cap = 8;
        let q = BoundedDeque::new(cap);
        let mut oracle: VecDeque<i32> = VecDeque::new();
        for (w, x) in ops {
            match w {
                0 | 1 => {
                    let room = oracle.len() < cap;
                    let offered = if w == 0 { q.try_offer_first(x) } else { q.try_offer_last(x) };
                    prop_assert_eq!(offered, if room { Ok(()) } else { Err(x) });
                    if room && w == 0 { oracle.push_front(x); }
                    if room && w == 1 { oracle.push_back(x); }
                }
                2 => prop_assert_eq!(q.try_take_first(), oracle.pop_front()),
                _ => prop_assert_eq!(q.try_take_last(), oracle.pop_back()),
            }
            prop_assert_eq!(q.len(), oracle.len());
        }
        prop_assert_eq!(q.snapshot(), oracle.into_iter().collect::<Vec<_>>());
    }

    #[test]
    fn slab_matches_reference_map(
        ops in proptest::collection::vec((proptest::bool::ANY, 0..64usize), 0..200)
    ) {
        let slab = ConcurrentSlab::new();
        let mut live: BTreeMap<SlabKey, usize> = BTreeMap::new();
        let mut counter = 0usize;
        for (do_insert, pick) in ops {
            if do_insert || live.is_empty() {
                counter += 1;
                let k = slab.insert(counter);
                prop_assert!(!live.contains_key(&k), "key {} double-allocated", k);
                live.insert(k, counter);
            } else {
                let &k = live.keys().nth(pick % live.len()).unwrap();
                let v = live.remove(&k);
                prop_assert_eq!(slab.remove(k), v);
            }
            prop_assert_eq!(slab.len(), live.len());
        }
        for (k, v) in live {
            prop_assert_eq!(slab.get(k), Some(v));
        }
    }

}
