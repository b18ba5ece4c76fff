//! The transactional red-black tree over read/write conflicts —
//! Figure 9's baseline competitor.
//!
//! This is the sequential tree's algorithm over `StmVar` storage: the
//! one CLRS red-black tree of `txboost_linearizable::rbtree`, run
//! through its `NodeStore` trait with every node in its own [`StmVar`].
//! Each node the algorithm reads joins the transaction's read set, and
//! each node it updates buffers a whole-node copy in the write set —
//! precisely DSTM2's per-object shadow-copy discipline, fed the same
//! sequential code the boosted competitor locks. Two transactions
//! conflict whenever their paths touch a common node, even when their
//! *set operations* commute (e.g. `add(2)` and `add(4)` both read the
//! root), which is the false-conflict cost the paper measures against
//! boosting.
//!
//! Nodes are allocated from an append-only arena with a free list.
//! Allocation is non-transactional (an aborted inserter leaks its fresh
//! node until the free list reclaims removed slots); unlinked nodes are
//! returned to the free list by the *committed* remover only, via a
//! transactional free-list head — so a node slot is never reused while
//! any committed tree still references it.

use crate::stm::{StmTxn, StmVar};
use parking_lot::Mutex;
use std::cell::RefCell;
use txboost_core::{Abort, TxResult};
use txboost_linearizable::rbtree::{NodeStore, RbNode};

/// The index that names no node in `NodeStore`'s contract; here also
/// the free list's end.
const NIL: usize = usize::MAX;

/// One arena slot.
#[derive(Debug, Clone)]
struct Slot<K> {
    node: RbNode<K>,
    /// Intrusive free-list link, used only while the slot is free.
    next_free: usize,
}

/// A sorted integer-style set on a red-black tree whose conflict
/// detection is purely read/write-based. All operations must run inside
/// an [`crate::Stm`] transaction.
pub struct StmRbTreeSet<K> {
    root: StmVar<usize>,
    /// Transactional head of the free list (slot indices).
    free_head: StmVar<usize>,
    arena: Mutex<Vec<StmVar<Slot<K>>>>,
}

impl<K: Ord + Clone + Send + Sync + 'static> Default for StmRbTreeSet<K> {
    fn default() -> Self {
        StmRbTreeSet::new()
    }
}

impl<K: Ord + Clone + Send + Sync + 'static> StmRbTreeSet<K> {
    /// An empty set.
    pub fn new() -> Self {
        StmRbTreeSet {
            root: StmVar::new(NIL),
            free_head: StmVar::new(NIL),
            arena: Mutex::new(Vec::new()),
        }
    }

    fn var(&self, i: usize) -> StmVar<Slot<K>> {
        self.arena.lock()[i].clone()
    }

    fn in_txn<'t, 'a>(&self, txn: &'t mut StmTxn<'a>) -> InTxn<'_, 't, 'a, K> {
        InTxn {
            set: self,
            txn: RefCell::new(txn),
        }
    }

    /// Whether `key` is in the set.
    pub fn contains(&self, txn: &mut StmTxn<'_>, key: &K) -> TxResult<bool> {
        self.in_txn(txn).contains(key)
    }

    /// Insert `key`; returns `true` iff the set changed.
    pub fn add(&self, txn: &mut StmTxn<'_>, key: K) -> TxResult<bool> {
        self.in_txn(txn).add(key)
    }

    /// Remove `key`; returns `true` iff the set changed.
    pub fn remove(&self, txn: &mut StmTxn<'_>, key: &K) -> TxResult<bool> {
        self.in_txn(txn).remove(key)
    }

    /// Keys in ascending order (run inside a transaction for a
    /// consistent snapshot).
    pub fn to_sorted_vec(&self, txn: &mut StmTxn<'_>) -> TxResult<Vec<K>> {
        self.in_txn(txn).to_sorted_vec()
    }

    /// Validate every red-black invariant within a transaction; returns
    /// the black height.
    pub fn check_invariants(&self, txn: &mut StmTxn<'_>) -> TxResult<Result<usize, String>> {
        self.in_txn(txn).check_invariants()
    }
}

/// The tree as one transaction sees it. The algorithm reads through
/// `&self`, and a read here records into the transaction's read set,
/// hence the `RefCell`.
struct InTxn<'s, 't, 'a, K> {
    set: &'s StmRbTreeSet<K>,
    txn: RefCell<&'t mut StmTxn<'a>>,
}

impl<K: Ord + Clone + Send + Sync + 'static> NodeStore for InTxn<'_, '_, '_, K> {
    type Key = K;
    type Error = Abort;

    fn root(&self) -> TxResult<usize> {
        self.set.root.read(&mut self.txn.borrow_mut())
    }

    fn set_root(&mut self, x: usize) {
        self.set.root.write(self.txn.get_mut(), x);
    }

    fn node(&self, x: usize) -> TxResult<RbNode<K>> {
        Ok(self.set.var(x).read(&mut self.txn.borrow_mut())?.node)
    }

    fn update(&mut self, x: usize, f: impl FnOnce(&mut RbNode<K>)) -> TxResult<()> {
        let (var, txn) = (self.set.var(x), self.txn.get_mut());
        let mut slot = var.read(txn)?;
        f(&mut slot.node);
        var.write(txn, slot);
        Ok(())
    }

    /// Reuse a slot from the transactional free list if possible, else
    /// push a new `StmVar` (non-transactional append; harmless if the
    /// transaction later aborts — the slot is simply garbage until
    /// process exit).
    fn alloc(&mut self, node: RbNode<K>) -> TxResult<usize> {
        let txn = self.txn.get_mut();
        let slot = Slot {
            node,
            next_free: NIL,
        };
        let head = self.set.free_head.read(txn)?;
        if head != NIL {
            let var = self.set.var(head);
            let next = var.read(txn)?.next_free;
            self.set.free_head.write(txn, next);
            var.write(txn, slot);
            return Ok(head);
        }
        let mut arena = self.set.arena.lock();
        arena.push(StmVar::new(slot));
        Ok(arena.len() - 1)
    }

    fn free(&mut self, x: usize) -> TxResult<()> {
        let (var, txn) = (self.set.var(x), self.txn.get_mut());
        let head = self.set.free_head.read(txn)?;
        let mut slot = var.read(txn)?;
        slot.next_free = head;
        var.write(txn, slot);
        self.set.free_head.write(txn, x);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Stm;
    use rand::prelude::*;
    use std::collections::BTreeSet;
    use txboost_core::TxnConfig;

    #[test]
    fn basic_add_remove_contains_in_transactions() {
        let stm = Stm::default();
        let t = StmRbTreeSet::new();
        assert!(stm.run(|txn| t.add(txn, 5)).unwrap());
        assert!(!stm.run(|txn| t.add(txn, 5)).unwrap());
        assert!(stm.run(|txn| t.contains(txn, &5)).unwrap());
        assert!(stm.run(|txn| t.remove(txn, &5)).unwrap());
        assert!(!stm.run(|txn| t.remove(txn, &5)).unwrap());
        assert!(!stm.run(|txn| t.contains(txn, &5)).unwrap());
    }

    #[test]
    fn multi_op_transaction_is_atomic() {
        let stm = Stm::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let t = StmRbTreeSet::new();
        // Abort after two adds: neither survives.
        let r: Result<(), _> = stm.run(|txn| {
            t.add(txn, 1)?;
            t.add(txn, 2)?;
            Err(txboost_core::Abort::explicit())
        });
        assert!(r.is_err());
        assert!(!stm.run(|txn| t.contains(txn, &1)).unwrap());
        assert!(!stm.run(|txn| t.contains(txn, &2)).unwrap());
    }

    #[test]
    fn matches_btreeset_oracle_with_invariants() {
        let stm = Stm::default();
        let mut rng = StdRng::seed_from_u64(9);
        let t = StmRbTreeSet::new();
        let mut oracle = BTreeSet::new();
        for step in 0..4_000 {
            let k: i32 = rng.random_range(0..150);
            match rng.random_range(0..3) {
                0 => assert_eq!(
                    stm.run(|txn| t.add(txn, k)).unwrap(),
                    oracle.insert(k),
                    "step {step} add({k})"
                ),
                1 => assert_eq!(
                    stm.run(|txn| t.remove(txn, &k)).unwrap(),
                    oracle.remove(&k),
                    "step {step} remove({k})"
                ),
                _ => assert_eq!(
                    stm.run(|txn| t.contains(txn, &k)).unwrap(),
                    oracle.contains(&k),
                    "step {step} contains({k})"
                ),
            }
            if step % 256 == 0 {
                stm.run(|txn| t.check_invariants(txn))
                    .unwrap()
                    .unwrap_or_else(|e| panic!("step {step}: {e}"));
            }
        }
        assert_eq!(
            stm.run(|txn| t.to_sorted_vec(txn)).unwrap(),
            oracle.iter().copied().collect::<Vec<_>>()
        );
    }

    #[test]
    fn concurrent_disjoint_adds_commit_with_false_conflicts() {
        let stm = std::sync::Arc::new(Stm::default());
        let t = std::sync::Arc::new(StmRbTreeSet::new());
        let threads = 4;
        let per = 200i64;
        std::thread::scope(|s| {
            for th in 0..threads {
                let (stm, t) = (std::sync::Arc::clone(&stm), std::sync::Arc::clone(&t));
                s.spawn(move || {
                    for i in 0..per {
                        let k = th * per + i;
                        assert!(stm.run(|txn| t.add(txn, k)).unwrap());
                    }
                });
            }
        });
        let snap = stm.run(|txn| t.to_sorted_vec(txn)).unwrap();
        assert_eq!(snap.len(), (threads * per) as usize);
        stm.run(|txn| t.check_invariants(txn)).unwrap().unwrap();
        // (False-conflict abort rates are measured by the figures
        // harness at benchmark scale; at test scale the counts are
        // scheduling dependent.)
    }

    #[test]
    fn concurrent_mixed_workload_stays_a_set() {
        let stm = std::sync::Arc::new(Stm::default());
        let t = std::sync::Arc::new(StmRbTreeSet::new());
        std::thread::scope(|s| {
            for th in 0..4 {
                let (stm, t) = (std::sync::Arc::clone(&stm), std::sync::Arc::clone(&t));
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(th);
                    for _ in 0..300 {
                        let k: i64 = rng.random_range(0..40);
                        if rng.random_bool(0.5) {
                            stm.run(|txn| t.add(txn, k)).unwrap();
                        } else {
                            stm.run(|txn| t.remove(txn, &k)).unwrap();
                        }
                    }
                });
            }
        });
        let snap = stm.run(|txn| t.to_sorted_vec(txn)).unwrap();
        assert!(snap.windows(2).all(|w| w[0] < w[1]), "duplicates in set");
        stm.run(|txn| t.check_invariants(txn)).unwrap().unwrap();
    }

    #[test]
    fn freed_slots_are_reused() {
        let stm = Stm::default();
        let t = StmRbTreeSet::new();
        for i in 0..50 {
            stm.run(|txn| t.add(txn, i)).unwrap();
        }
        for i in 0..50 {
            stm.run(|txn| t.remove(txn, &i)).unwrap();
        }
        let allocated = t.arena.lock().len();
        for i in 50..100 {
            stm.run(|txn| t.add(txn, i)).unwrap();
        }
        assert_eq!(t.arena.lock().len(), allocated, "free list not reused");
    }

    #[test]
    fn pinned_workload_footprint_and_shape_match_the_sequential_tree() {
        // Fig. 9 measures this competitor's read and write sets: the
        // totals were read at the commit before the STM tree shared the
        // sequential tree's code, and one node read added or dropped
        // anywhere moves them.
        let stm = Stm::default();
        let t = StmRbTreeSet::new();
        let mut seq = txboost_linearizable::RbTreeSet::new();
        for k in (0..512i64).step_by(2) {
            assert!(stm.run(|txn| t.add(txn, k)).unwrap());
            assert!(seq.add(k));
        }
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut next = || {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        };
        // (ops, reads, writes) for add / remove / contains.
        let mut totals = [(0, 0, 0); 3];
        for _ in 0..3_000 {
            let key = (next() % 512) as i64;
            let op = (next() % 3) as usize;
            let (changed, reads, writes) = stm
                .run(|txn| {
                    let r = match op {
                        0 => t.add(txn, key)?,
                        1 => t.remove(txn, &key)?,
                        _ => t.contains(txn, &key)?,
                    };
                    Ok((r, txn.read_set_len(), txn.write_set_len()))
                })
                .unwrap();
            let expected = match op {
                0 => seq.add(key),
                1 => seq.remove(&key),
                _ => seq.contains(&key),
            };
            assert_eq!(changed, expected, "op {op} on key {key}");
            totals[op].0 += 1;
            totals[op].1 += reads;
            totals[op].2 += writes;
        }
        assert_eq!(
            totals,
            [
                (1_017, 12_699, 2_459),
                (976, 14_941, 2_739),
                (1_007, 8_662, 0)
            ]
        );
        assert_eq!(
            stm.run(|txn| t.to_sorted_vec(txn)).unwrap(),
            seq.to_sorted_vec()
        );
        assert_eq!(
            stm.run(|txn| t.check_invariants(txn)).unwrap(),
            seq.check_invariants()
        );
    }
}
