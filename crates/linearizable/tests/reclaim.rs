//! The lazy skip-list set frees what it removes: the last operation to
//! leave a set frees the nodes removed from it, and its drop frees the
//! rest.

use std::sync::atomic::{AtomicUsize, Ordering::SeqCst};
use std::sync::Arc;
use txboost_linearizable::{LazySkipListSet, LinearizableSet};

static CONSTRUCTED: AtomicUsize = AtomicUsize::new(0);
static DROPPED: AtomicUsize = AtomicUsize::new(0);

/// A key that counts its constructions (clones included) and drops.
#[derive(Debug, PartialEq, Eq, PartialOrd, Ord)]
struct Counted(u64);

impl Counted {
    fn new(k: u64) -> Self {
        CONSTRUCTED.fetch_add(1, SeqCst);
        Counted(k)
    }
}

impl Clone for Counted {
    fn clone(&self) -> Self {
        Counted::new(self.0)
    }
}

impl Drop for Counted {
    fn drop(&mut self) {
        DROPPED.fetch_add(1, SeqCst);
    }
}

fn live() -> usize {
    CONSTRUCTED.load(SeqCst) - DROPPED.load(SeqCst)
}

#[test]
fn removed_nodes_are_freed_at_the_quiescent_point_and_drop_frees_the_rest() {
    const THREADS: u64 = 4;
    const KEYS: u64 = 64;
    let set = Arc::new(LazySkipListSet::new());
    let handles: Vec<_> = (0..THREADS)
        .map(|t| {
            let set = Arc::clone(&set);
            std::thread::spawn(move || {
                let mut x = 0x9E37_79B9_7F4A_7C15_u64 ^ (t + 1);
                let mut removed = 0u64;
                for _ in 0..5_000 {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    let k = x % KEYS;
                    if x & (1 << 40) == 0 {
                        set.add(Counted::new(k));
                    } else {
                        removed += u64::from(set.remove(&Counted::new(k)));
                    }
                }
                removed
            })
        })
        .collect();
    let removed: u64 = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert!(removed > 0, "the churn removed nothing");
    assert_eq!(
        live(),
        set.len(),
        "a removed node outlived the quiescent point"
    );
    drop(set);
    let (constructed, dropped) = (CONSTRUCTED.load(SeqCst), DROPPED.load(SeqCst));
    assert_eq!(constructed, dropped, "leak or double free");
}
