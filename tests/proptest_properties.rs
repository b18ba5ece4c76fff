//! Property-based tests (proptest) on the full transactional stack.
//!
//! Strategy-generated workloads exercise the invariants the hand-written
//! tests can only sample:
//!
//! * boosted set == `BTreeSet` oracle under arbitrary sequential
//!   transaction batches (including multi-op transactions);
//! * abort-at-every-prefix leaves the committed state untouched;
//! * the boosted priority queue drains in sorted order whatever the
//!   insertion pattern;
//! * the blocking queue preserves FIFO under arbitrary committed
//!   offer/take sequences;
//! * the Section 5 checkers agree with a brute-force oracle on small
//!   randomly generated histories;
//! * version slots never GC a version a registered snapshot reader
//!   can still read, whatever the install/register/deregister
//!   interleaving, and never keep more than one version at-or-below
//!   the GC floor;
//! * a whole version store, its slot arrays growing under runs of fresh
//!   keys, answers every read a live snapshot may make as a map of
//!   every committed version does.

use proptest::prelude::*;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;
use transactional_boosting::core::{CommitStamp, MvccDomain, SnapshotGuard, VersionStore};
use transactional_boosting::model::spec::SetOp;
use transactional_boosting::model::{check_commit_order_serializable, SetSpec, TxnLabel};
use transactional_boosting::prelude::*;

fn set_op_strategy(key_range: i64) -> impl Strategy<Value = SetOp> {
    (0..key_range, 0..3u8).prop_map(|(k, which)| match which {
        0 => SetOp::Add(k),
        1 => SetOp::Remove(k),
        _ => SetOp::Contains(k),
    })
}

/// A transaction = 1..5 ops + a doomed flag.
fn txn_strategy(key_range: i64) -> impl Strategy<Value = (Vec<SetOp>, bool)> {
    (
        proptest::collection::vec(set_op_strategy(key_range), 1..5),
        proptest::bool::weighted(0.25),
    )
}

fn apply_boosted(set: &BoostedSkipListSet<i64>, t: &Txn, op: SetOp) -> TxResult<bool> {
    match op {
        SetOp::Add(k) => set.add(t, k),
        SetOp::Remove(k) => set.remove(t, &k),
        SetOp::Contains(k) => set.contains(t, &k),
    }
}

fn apply_oracle(oracle: &mut BTreeSet<i64>, op: SetOp) -> bool {
    match op {
        SetOp::Add(k) => oracle.insert(k),
        SetOp::Remove(k) => oracle.remove(&k),
        SetOp::Contains(k) => oracle.contains(&k),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Committed transactions behave exactly like the oracle; doomed
    /// transactions (aborted at the end) change nothing at all.
    #[test]
    fn boosted_set_matches_oracle_under_transaction_batches(
        txns in proptest::collection::vec(txn_strategy(12), 1..40)
    ) {
        let tm = TxnManager::default();
        let set = BoostedSkipListSet::new();
        let mut oracle = BTreeSet::new();
        for (ops, doomed) in txns {
            let r = tm.run(|t| {
                let mut responses = Vec::new();
                for &op in &ops {
                    responses.push(apply_boosted(&set, t, op)?);
                }
                if doomed {
                    return Err(Abort::explicit());
                }
                Ok(responses)
            });
            match (doomed, r) {
                (true, Err(TxnError::ExplicitlyAborted)) => {
                    // Oracle untouched.
                }
                (false, Ok(responses)) => {
                    for (op, expected) in ops.iter().zip(responses) {
                        let oracle_resp = apply_oracle(&mut oracle, *op);
                        prop_assert_eq!(oracle_resp, expected, "response mismatch on {:?}", op);
                    }
                }
                (d, r) => prop_assert!(false, "unexpected outcome doomed={} r={:?}", d, r.is_ok()),
            }
            prop_assert_eq!(
                set.snapshot(),
                oracle.iter().copied().collect::<Vec<_>>(),
                "state diverged after a transaction"
            );
        }
    }

    /// Aborting after any prefix of any transaction restores the state.
    #[test]
    fn abort_at_every_prefix_is_a_noop(
        ops in proptest::collection::vec(set_op_strategy(8), 1..8),
        seed in proptest::collection::vec(0..8i64, 0..8),
    ) {
        let tm = TxnManager::default();
        let set = BoostedSkipListSet::new();
        tm.run(|t| {
            for &k in &seed {
                set.add(t, k)?;
            }
            Ok(())
        }).unwrap();
        let baseline = set.snapshot();
        for prefix in 0..=ops.len() {
            let r: Result<(), _> = tm.run(|t| {
                for &op in &ops[..prefix] {
                    apply_boosted(&set, t, op)?;
                }
                Err(Abort::explicit())
            });
            prop_assert!(r.is_err());
            prop_assert_eq!(&set.snapshot(), &baseline, "prefix {} dirtied state", prefix);
        }
    }

    /// Whatever goes in comes out sorted (multiset semantics).
    #[test]
    fn pqueue_drains_sorted(keys in proptest::collection::vec(0..100i64, 0..64)) {
        let tm = TxnManager::default();
        let q = BoostedPQueue::new();
        tm.run(|t| {
            for &k in &keys {
                q.add(t, k)?;
            }
            Ok(())
        }).unwrap();
        let mut drained = Vec::new();
        while let Some(k) = tm.run(|t| q.remove_min(t)).unwrap() {
            drained.push(k);
        }
        let mut expected = keys.clone();
        expected.sort_unstable();
        prop_assert_eq!(drained, expected);
    }

    /// FIFO order survives arbitrary interleavings of committed offers
    /// and takes (sequential, so the spec order is unambiguous).
    #[test]
    fn blocking_queue_is_fifo(script in proptest::collection::vec(proptest::bool::ANY, 1..80)) {
        let tm = TxnManager::new(TxnConfig {
            lock_timeout: std::time::Duration::from_millis(1),
            max_retries: Some(0),
        });
        let q: BoostedBlockingQueue<i64> = BoostedBlockingQueue::new(16);
        let mut model = std::collections::VecDeque::new();
        let mut next = 0i64;
        for do_offer in script {
            if do_offer {
                let r = tm.run(|t| q.try_offer(t, next));
                if model.len() < 16 {
                    prop_assert!(r.is_ok());
                    model.push_back(next);
                } else {
                    prop_assert!(r.is_err(), "offer into a full queue succeeded");
                }
                next += 1;
            } else {
                let r = tm.run(|t| q.take(t));
                match model.pop_front() {
                    Some(expected) => prop_assert_eq!(r.ok(), Some(expected)),
                    None => prop_assert!(r.is_err(), "take from empty queue succeeded"),
                }
            }
        }
    }

    /// The commit-order checker accepts exactly the histories whose
    /// responses match a sequential replay — cross-validated against a
    /// direct oracle simulation.
    #[test]
    fn serializability_checker_agrees_with_oracle(
        txns in proptest::collection::vec(
            proptest::collection::vec((0..6i64, 0..3u8, proptest::bool::ANY), 1..4),
            1..6
        )
    ) {
        // Build a candidate committed history with possibly-wrong
        // responses (the bool is the *claimed* response).
        let committed: Vec<(TxnLabel, Vec<(SetOp, bool)>)> = txns
            .iter()
            .enumerate()
            .map(|(i, ops)| {
                (
                    TxnLabel(i as u64 + 1),
                    ops.iter()
                        .map(|&(k, which, resp)| {
                            let op = match which {
                                0 => SetOp::Add(k),
                                1 => SetOp::Remove(k),
                                _ => SetOp::Contains(k),
                            };
                            (op, resp)
                        })
                        .collect(),
                )
            })
            .collect();
        // Oracle: replay flat.
        let mut oracle = BTreeSet::new();
        let mut oracle_ok = true;
        'outer: for (_, calls) in &committed {
            for (op, resp) in calls {
                if apply_oracle(&mut oracle, *op) != *resp {
                    oracle_ok = false;
                    break 'outer;
                }
            }
        }
        let checker_ok = check_commit_order_serializable(&SetSpec, &committed).is_ok();
        prop_assert_eq!(checker_ok, oracle_ok);
    }

    /// Floor-driven sweeping must never reclaim a version a registered
    /// reader can still read: after every install of an arbitrary
    /// script — values, tombstones, same-timestamp rewrites, register,
    /// deregister — each live reader's `read_at`
    /// of the key still answers exactly what the GC-free log held at
    /// its registration. And sweeping must actually happen: at most one
    /// of the key's versions at-or-below the floor survives an install,
    /// so with no reader registered it never holds more than two.
    #[test]
    fn slots_never_drop_a_reader_visible_version(
        script in proptest::collection::vec((0..5u8, 0..100i32), 1..80),
    ) {
        let domain = Arc::new(MvccDomain::new());
        let store = VersionStore::new(Arc::clone(&domain));
        // Every committed version, never pruned — the oracle. A map,
        // so a same-timestamp rewrite is last-write-wins here too.
        let mut log: BTreeMap<u64, Option<i32>> = BTreeMap::new();
        let mut readers: Vec<(SnapshotGuard, Option<i32>)> = Vec::new();
        for (op, v) in script {
            let installs: &[Option<i32>] = match op {
                0 => &[Some(v)],
                1 => &[None],
                2 => &[Some(v), Some(v + 1)], // one commit, two writes
                3 => {
                    let guard = domain.begin_snapshot();
                    let expected = log.range(..=guard.ts()).next_back().and_then(|(_, v)| *v);
                    readers.push((guard, expected));
                    &[]
                }
                _ => {
                    if !readers.is_empty() {
                        readers.remove(0);
                    }
                    &[]
                }
            };
            // One commit installs each entry at its timestamp.
            domain.commit(|stamp| {
                let CommitStamp { ts, floor } = stamp;
                for &val in installs {
                    store.install(0, val, stamp);
                    log.insert(ts, val);
                    let versions = store.versions(&0);
                    let above_floor = log.range(floor + 1..).count();
                    prop_assert!(
                        versions <= above_floor + 1,
                        "{} versions kept, only {} above floor {}",
                        versions, above_floor, floor
                    );
                    if readers.is_empty() {
                        prop_assert!(versions <= 2, "unpinned key holds {}", versions);
                    }
                    for (guard, expected) in &readers {
                        prop_assert_eq!(
                            store.read_at(&0, guard.ts()),
                            *expected,
                            "reader pinned at ts {} lost its version",
                            guard.ts()
                        );
                    }
                }
            });
        }
    }

    /// A whole `VersionStore` — keys spread over its shards' slot
    /// arrays, which grow as fresh keys arrive — answers every read a
    /// live snapshot may make exactly as a map of every committed
    /// version does: values, tombstones and same-timestamp rewrites,
    /// across runs of fresh keys that push each shard through several
    /// growths, with readers pinning history meanwhile.
    #[test]
    fn a_version_store_matches_a_map_of_versions_across_growths(
        script in proptest::collection::vec((0..6u8, 0..4096i64, 0..100i32), 1..300),
    ) {
        let domain = Arc::new(MvccDomain::new());
        let store = VersionStore::new(Arc::clone(&domain));
        // Every committed version of every key, never pruned.
        let mut oracle: BTreeMap<i64, BTreeMap<u64, Option<i32>>> = BTreeMap::new();
        let mut readers: Vec<SnapshotGuard> = Vec::new();
        let read = |oracle: &BTreeMap<i64, BTreeMap<u64, Option<i32>>>, key: &i64, ts: u64| {
            oracle.get(key).and_then(|vs| vs.range(..=ts).next_back()).and_then(|(_, v)| *v)
        };
        for (op, key, v) in script {
            let writes: Vec<(i64, Option<i32>)> = match op {
                0 => vec![(key, Some(v))],
                1 => vec![(key, None)],
                2 => vec![(key, Some(v)), (key, Some(v + 1))], // one commit, two writes
                3 => (key..key + 32).map(|k| (k, Some(v))).collect(), // a run of fresh keys
                4 => {
                    readers.push(domain.begin_snapshot());
                    vec![]
                }
                _ => {
                    if !readers.is_empty() {
                        readers.remove(0);
                    }
                    vec![]
                }
            };
            domain.commit(|stamp| {
                for &(k, value) in &writes {
                    store.install(k, value, stamp);
                    oracle.entry(k).or_default().insert(stamp.ts, value);
                }
            });
            // Every snapshot a reader may still take: the live ones and
            // the frontier.
            let stable = domain.clock.stable();
            for (k, _) in &writes {
                for ts in readers.iter().map(SnapshotGuard::ts).chain([stable]) {
                    prop_assert_eq!(store.read_at(k, ts), read(&oracle, k, ts), "key {} at {}", k, ts);
                }
            }
        }
        let stable = domain.clock.stable();
        for k in oracle.keys().chain(&[-1, 4096 + 32]) {
            for ts in readers.iter().map(SnapshotGuard::ts).chain([stable]) {
                prop_assert_eq!(store.read_at(k, ts), read(&oracle, k, ts), "key {} at {}", k, ts);
            }
        }
    }
}
