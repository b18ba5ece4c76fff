//! Rule 1 (linearizability of the base objects), fuzz-checked.
//!
//! Boosting's correctness (Theorem 5.3) assumes the base objects are
//! linearizable. These tests drive the `txboost-linearizable`
//! structures from genuinely concurrent threads — *without* any
//! transactional machinery — recording each operation as a single-call
//! transaction with [`HistoryRecorder`], then ask
//! [`search_serialization`] for a witness order consistent with
//! real-time precedence. Histories are kept small (the search is
//! exponential) but the loop repeats many rounds to fuzz different
//! thread timings.

use rand::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use txboost_linearizable::{
    ConcurrentHeap, LazySkipListSet, LinearizableSet, LockCouplingList, SyncRbTreeSet,
};
use txboost_model::spec::{PQueueOp, PQueueResp, SetOp};
use txboost_model::{search_serialization, Event, History, PQueueSpec, SetSpec, TxnLabel};

const THREADS: u64 = 3;
const OPS_PER_THREAD: u64 = 4;
const ROUNDS: u64 = 60;

/// Real-time precedence pairs: `X` precedes `Y` iff `X`'s commit event
/// was recorded before `Y`'s init event. The recorder appends events
/// under one mutex, init strictly before the operation's invocation
/// and commit strictly after its response, so this order is a sound
/// (conservative) happens-before.
fn precedence_pairs<Op, Resp>(history: &History<Op, Resp>) -> Vec<(TxnLabel, TxnLabel)> {
    let mut init_at = std::collections::HashMap::new();
    let mut commit_at = std::collections::HashMap::new();
    for (i, e) in history.events.iter().enumerate() {
        match e {
            Event::Init(t) => {
                init_at.entry(*t).or_insert(i);
            }
            Event::Commit(t) => {
                commit_at.insert(*t, i);
            }
            _ => {}
        }
    }
    let mut pairs = Vec::new();
    for (&x, &cx) in &commit_at {
        for (&y, &iy) in &init_at {
            if x != y && cx < iy {
                pairs.push((x, y));
            }
        }
    }
    pairs
}

/// Fuzz `new()`'s set from `THREADS` threads, `ROUNDS` times, and
/// require a linearization of every history.
fn set_operations_linearize<S: LinearizableSet<i64> + Sync>(new: fn() -> S, seed: u64) {
    for round in 0..ROUNDS {
        let set = new();
        let recorder = txboost_model::HistoryRecorder::<SetOp, bool>::new();
        let labels = AtomicU64::new(1);
        std::thread::scope(|s| {
            for th in 0..THREADS {
                let (set, recorder, labels) = (&set, &recorder, &labels);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(round * seed + th);
                    for _ in 0..OPS_PER_THREAD {
                        let label = TxnLabel(labels.fetch_add(1, Ordering::Relaxed));
                        let k = rng.random_range(0..3i64);
                        let op = match rng.random_range(0..3) {
                            0 => SetOp::Add(k),
                            1 => SetOp::Remove(k),
                            _ => SetOp::Contains(k),
                        };
                        recorder.init(label);
                        let resp = match op {
                            SetOp::Add(k) => set.add(k),
                            SetOp::Remove(k) => set.remove(&k),
                            SetOp::Contains(k) => set.contains(&k),
                        };
                        recorder.call(label, op, resp);
                        recorder.commit(label);
                    }
                });
            }
        });
        let history = recorder.history();
        history.check_well_formed().unwrap();
        let txns = history.committed_calls();
        let precedence = precedence_pairs(&history);
        assert!(
            search_serialization(&SetSpec, &txns, &precedence).is_some(),
            "round {round}: no linearization of {} history exists:\n{:?}",
            std::any::type_name::<S>(),
            history.events
        );
    }
}

#[test]
fn lazy_skiplist_set_operations_linearize() {
    set_operations_linearize(LazySkipListSet::new, 31);
}

#[test]
fn lock_coupling_list_operations_linearize() {
    set_operations_linearize(LockCouplingList::new, 43);
}

#[test]
fn sync_rbtree_set_operations_linearize() {
    set_operations_linearize(SyncRbTreeSet::new, 57);
}

#[test]
fn concurrent_heap_operations_linearize() {
    for round in 0..ROUNDS {
        let heap = Arc::new(ConcurrentHeap::new());
        let recorder = Arc::new(txboost_model::HistoryRecorder::<PQueueOp, PQueueResp>::new());
        let labels = Arc::new(AtomicU64::new(1));
        std::thread::scope(|s| {
            for th in 0..THREADS {
                let heap = Arc::clone(&heap);
                let recorder = Arc::clone(&recorder);
                let labels = Arc::clone(&labels);
                s.spawn(move || {
                    let mut rng = StdRng::seed_from_u64(round * 91 + th);
                    for _ in 0..OPS_PER_THREAD {
                        let label = TxnLabel(labels.fetch_add(1, Ordering::Relaxed));
                        recorder.init(label);
                        if rng.random_bool(0.6) {
                            let k = rng.random_range(0..5i64);
                            heap.add(k);
                            recorder.call(label, PQueueOp::Add(k), PQueueResp::Unit);
                        } else {
                            let got = heap.remove_min();
                            recorder.call(label, PQueueOp::RemoveMin, PQueueResp::Key(got));
                        }
                        recorder.commit(label);
                    }
                });
            }
        });
        let history = recorder.history();
        history.check_well_formed().unwrap();
        let txns = history.committed_calls();
        let precedence = precedence_pairs(&history);
        assert!(
            search_serialization(&PQueueSpec, &txns, &precedence).is_some(),
            "round {round}: no linearization of heap history exists:\n{:?}",
            history.events
        );
    }
}
