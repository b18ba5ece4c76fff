//! The sorted linked-list set over read/write conflicts — the paper's
//! introductory example of STM over-serialization.
//!
//! Section 1 of the paper: with a set `{1, 3, 5}`, transactions adding
//! 2 and 4 have no inherent conflict, yet in a read/write STM "no
//! matter how A and B's steps are interleaved, one must write to a node
//! read by the other". This module makes that concrete: `add(4)` reads
//! every node up to its insertion point, so a commit of `add(2)`
//! invalidates it. The benchmark ablations use this list against the
//! boosted lock-coupling list.

use crate::stm::{StmTxn, StmVar};
use parking_lot::Mutex;
use txboost_core::TxResult;

const NIL: usize = usize::MAX;

#[derive(Debug, Clone)]
struct NodeData<K> {
    key: Option<K>, // None = head sentinel
    next: usize,
}

/// A transactional sorted-list set with read/write conflict detection
/// (one [`StmVar`] per node). All operations run inside an
/// [`crate::Stm`] transaction.
pub struct StmListSet<K> {
    arena: Mutex<Vec<StmVar<NodeData<K>>>>,
}

const HEAD: usize = 0;

impl<K: Ord + Clone + Send + Sync + 'static> Default for StmListSet<K> {
    fn default() -> Self {
        StmListSet::new()
    }
}

impl<K: Ord + Clone + Send + Sync + 'static> StmListSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        StmListSet {
            arena: Mutex::new(vec![StmVar::new(NodeData {
                key: None,
                next: NIL,
            })]),
        }
    }

    fn var(&self, i: usize) -> StmVar<NodeData<K>> {
        self.arena.lock()[i].clone()
    }

    fn get(&self, txn: &mut StmTxn<'_>, i: usize) -> TxResult<NodeData<K>> {
        self.var(i).read(txn)
    }

    fn alloc(&self, data: NodeData<K>) -> usize {
        let mut arena = self.arena.lock();
        arena.push(StmVar::new(data));
        arena.len() - 1
    }

    /// Find `(pred, curr)` where `curr` is the first node with key ≥
    /// `key` (or NIL).
    fn locate(&self, txn: &mut StmTxn<'_>, key: &K) -> TxResult<(usize, usize)> {
        let mut pred = HEAD;
        let mut curr = self.get(txn, HEAD)?.next;
        while curr != NIL {
            let d = self.get(txn, curr)?;
            let ck = d.key.as_ref().expect("only head lacks a key");
            if ck >= key {
                break;
            }
            pred = curr;
            curr = d.next;
        }
        Ok((pred, curr))
    }

    /// Insert `key`; returns `true` iff the set changed.
    pub fn add(&self, txn: &mut StmTxn<'_>, key: K) -> TxResult<bool> {
        let (pred, curr) = self.locate(txn, &key)?;
        if curr != NIL && self.get(txn, curr)?.key.as_ref() == Some(&key) {
            return Ok(false);
        }
        let node = self.alloc(NodeData {
            key: Some(key),
            next: curr,
        });
        let mut pd = self.get(txn, pred)?;
        pd.next = node;
        self.var(pred).write(txn, pd);
        Ok(true)
    }

    /// Remove `key`; returns `true` iff the set changed.
    pub fn remove(&self, txn: &mut StmTxn<'_>, key: &K) -> TxResult<bool> {
        let (pred, curr) = self.locate(txn, key)?;
        if curr == NIL {
            return Ok(false);
        }
        let cd = self.get(txn, curr)?;
        if cd.key.as_ref() != Some(key) {
            return Ok(false);
        }
        let mut pd = self.get(txn, pred)?;
        pd.next = cd.next;
        self.var(pred).write(txn, pd);
        Ok(true)
    }

    /// Whether `key` is in the set.
    pub fn contains(&self, txn: &mut StmTxn<'_>, key: &K) -> TxResult<bool> {
        let (_, curr) = self.locate(txn, key)?;
        if curr == NIL {
            return Ok(false);
        }
        Ok(self.get(txn, curr)?.key.as_ref() == Some(key))
    }

    /// Ascending snapshot (run inside a transaction for consistency).
    pub fn to_sorted_vec(&self, txn: &mut StmTxn<'_>) -> TxResult<Vec<K>> {
        let mut out = Vec::new();
        let mut curr = self.get(txn, HEAD)?.next;
        while curr != NIL {
            let d = self.get(txn, curr)?;
            out.push(d.key.clone().expect("only head lacks a key"));
            curr = d.next;
        }
        Ok(out)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stm;
    use rand::prelude::*;
    use std::collections::BTreeSet;

    #[test]
    fn basics() {
        let stm = Stm::default();
        let l = StmListSet::new();
        assert!(stm.run(|t| l.add(t, 3)).unwrap());
        assert!(stm.run(|t| l.add(t, 1)).unwrap());
        assert!(!stm.run(|t| l.add(t, 3)).unwrap());
        assert!(stm.run(|t| l.contains(t, &1)).unwrap());
        assert!(stm.run(|t| l.remove(t, &1)).unwrap());
        assert!(!stm.run(|t| l.remove(t, &1)).unwrap());
        assert_eq!(stm.run(|t| l.to_sorted_vec(t)).unwrap(), vec![3]);
    }

    #[test]
    fn matches_btreeset_oracle() {
        let stm = Stm::default();
        let mut rng = StdRng::seed_from_u64(21);
        let l = StmListSet::new();
        let mut oracle = BTreeSet::new();
        for _ in 0..2_000 {
            let k: i32 = rng.random_range(0..60);
            match rng.random_range(0..3) {
                0 => assert_eq!(stm.run(|t| l.add(t, k)).unwrap(), oracle.insert(k)),
                1 => assert_eq!(stm.run(|t| l.remove(t, &k)).unwrap(), oracle.remove(&k)),
                _ => assert_eq!(stm.run(|t| l.contains(t, &k)).unwrap(), oracle.contains(&k)),
            }
        }
        assert_eq!(
            stm.run(|t| l.to_sorted_vec(t)).unwrap(),
            oracle.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn papers_intro_example_produces_false_conflicts() {
        // {1,3,5}; threads adding 2 and 4 repeatedly: both always
        // succeed eventually, but conflict aborts are inevitable even
        // though add(2) ⇔ add(4).
        let stm = std::sync::Arc::new(Stm::default());
        let l = std::sync::Arc::new(StmListSet::new());
        for k in [1, 3, 5] {
            stm.run(|t| l.add(t, k)).unwrap();
        }
        std::thread::scope(|s| {
            for th in 0..2 {
                let (stm, l) = (std::sync::Arc::clone(&stm), std::sync::Arc::clone(&l));
                s.spawn(move || {
                    let k = if th == 0 { 2 } else { 4 };
                    for _ in 0..500 {
                        stm.run(|t| l.add(t, k)).unwrap();
                        stm.run(|t| l.remove(t, &k)).unwrap();
                    }
                });
            }
        });
        let snap = stm.run(|t| l.to_sorted_vec(t)).unwrap();
        assert_eq!(snap, vec![1, 3, 5]);
        // Conflict-abort *counts* are scheduling dependent; the figures
        // harness measures them at benchmark scale. Correctness is what
        // this test pins down.
    }

    #[test]
    fn concurrent_disjoint_keys_all_commit() {
        let stm = std::sync::Arc::new(Stm::default());
        let l = std::sync::Arc::new(StmListSet::new());
        std::thread::scope(|s| {
            for th in 0..4i32 {
                let (stm, l) = (std::sync::Arc::clone(&stm), std::sync::Arc::clone(&l));
                s.spawn(move || {
                    for i in 0..100 {
                        assert!(stm.run(|t| l.add(t, th * 100 + i)).unwrap());
                    }
                });
            }
        });
        let snap = stm.run(|t| l.to_sorted_vec(t)).unwrap();
        assert_eq!(snap.len(), 400);
        assert!(snap.windows(2).all(|w| w[0] < w[1]));
    }
}
