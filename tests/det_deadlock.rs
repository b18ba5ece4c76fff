//! Deadlock recovery on virtual time, under the deterministic
//! scheduler: the engineered two-key deadlock and the deadlock storm
//! from `tests/deadlock_recovery.rs`, ported onto `txboost-sched`,
//! plus a single-key mutual-exclusion storm. (The regression test for
//! reclaiming a `KeyLockMap` entry after a timed-out acquisition is
//! retired: the table is a fixed array of lock slots, so an
//! acquisition creates no entry and a timeout has nothing to reclaim;
//! `det_hotpath.rs` sweeps the timeout itself.)
//!
//! Under the harness, lock timeouts fire on the scheduler's virtual
//! clock (`txboost_core::det::ticks_for`), so deadlock recovery is
//! exercised identically on every machine and every seed replays.
//! Every seed of the engineered deadlock reaches each lock-path yield
//! point in [`LOCK_PATH`], so a hook removed from the runtime fails it.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use transactional_boosting::model::spec::SetOp;
use transactional_boosting::model::{
    check_commit_order_serializable, HistoryRecorder, SetSpec, TxnLabel,
};
use transactional_boosting::prelude::*;
use txboost_core::locks::KeyLockMap;
use txboost_sched::core_det as det;

/// SplitMix64 finalizer — deterministic workload derivation without
/// `rand` (see `det_serializability.rs`).
fn mix(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The lock-path yield points: acquire, block, release, undo push,
/// commit, abort, and the retry loop's backoff.
const LOCK_PATH: [det::Point; 7] = [
    det::Point::LockAcquire,
    det::Point::LockBlocked,
    det::Point::LockRelease,
    det::Point::UndoPush,
    det::Point::Commit,
    det::Point::Abort,
    det::Point::Backoff,
];

/// Spin at a named yield point until `flag` is set. The deterministic
/// analogue of `std::sync::Barrier`, which must never be used under
/// the harness (a real OS block with no scheduler hook would wedge the
/// single running thread).
fn spin_until(flag: &AtomicBool) {
    while !flag.load(Ordering::SeqCst) {
        det::yield_point(det::Point::User);
    }
}

#[test]
fn opposite_order_deadlock_recovers_on_every_seed() {
    // T0 locks key 1 then 2; T1 locks key 2 then 1, with an atomic-flag
    // crossing so both hold their first key before either requests the
    // second: a guaranteed 2PL deadlock on the first attempt of every
    // seed. Virtual-time timeouts must always break it and both
    // transactions must always commit.
    struct W {
        tm: TxnManager,
        set: BoostedSkipListSet<i64>,
        holding: [AtomicBool; 2],
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(200),
        2,
        || W {
            tm: TxnManager::default(),
            set: BoostedSkipListSet::new(),
            holding: [AtomicBool::new(false), AtomicBool::new(false)],
        },
        |w, tid| {
            let (first, second) = if tid == 0 { (1i64, 2i64) } else { (2, 1) };
            let mut synced = false;
            w.tm.run(|t| {
                w.set.add(t, first)?;
                if !synced {
                    w.holding[tid].store(true, Ordering::SeqCst);
                    spin_until(&w.holding[1 - tid]);
                    synced = true;
                }
                w.set.add(t, second)?;
                Ok(())
            })
            .unwrap();
        },
        |w, report| {
            assert_eq!(w.set.snapshot(), vec![1, 2]);
            let snap = w.tm.stats().snapshot();
            assert_eq!(snap.committed, 2);
            assert!(
                snap.lock_timeouts >= 1,
                "the engineered deadlock never happened"
            );
            // A deadlock, its timeout and the retry cross every hook.
            for point in LOCK_PATH {
                assert!(report.reached(point), "the run never reached {point}");
            }
        },
    );
}

#[test]
fn deadlock_storm_remains_serializable_across_seeds() {
    // The ported storm: every thread repeatedly takes a random key pair
    // in a random order (derived from `mix`, fixed across seeds),
    // holding the first key across a few yields so opposite-order
    // acquirers cross. Only the committed attempt of each logical
    // transaction is recorded; Theorems 5.3/5.4 must survive the
    // recovery churn on every seed.
    const THREADS: usize = 3;
    const TXNS: u64 = 6;
    struct W {
        tm: TxnManager,
        set: BoostedSkipListSet<i64>,
        recorder: HistoryRecorder<SetOp, bool>,
        labels: AtomicU64,
    }
    let total_timeouts = AtomicU64::new(0);
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(200),
        THREADS,
        || W {
            tm: TxnManager::default(),
            set: BoostedSkipListSet::new(),
            recorder: HistoryRecorder::new(),
            labels: AtomicU64::new(1),
        },
        |w, tid| {
            for i in 0..TXNS {
                let h = mix((tid as u64) << 40 | i);
                let a = (h % 5) as i64;
                let mut b = ((h >> 8) % 5) as i64;
                if a == b {
                    b = (b + 1) % 5;
                }
                loop {
                    let label = TxnLabel(w.labels.fetch_add(1, Ordering::Relaxed));
                    let txn = w.tm.begin();
                    let r = (|| -> Result<Vec<(SetOp, bool)>, Abort> {
                        let mut calls = Vec::new();
                        calls.push((SetOp::Add(a), w.set.add(&txn, a)?));
                        // Hold the first key across a few scheduling
                        // points so opposite-order acquirers can cross
                        // (the det analogue of the original's sleep).
                        for _ in 0..4 {
                            det::yield_point(det::Point::User);
                        }
                        calls.push((SetOp::Remove(b), w.set.remove(&txn, &b)?));
                        Ok(calls)
                    })();
                    match r {
                        Ok(calls) => {
                            for (op, resp) in &calls {
                                w.recorder.call(label, *op, *resp);
                            }
                            w.recorder.commit(label);
                            w.tm.commit(txn);
                            break;
                        }
                        Err(abort) => {
                            w.tm.abort(txn, abort.reason());
                        }
                    }
                }
            }
        },
        |w, _report| {
            let snap = w.tm.stats().snapshot();
            assert_eq!(snap.committed, THREADS as u64 * TXNS);
            total_timeouts.fetch_add(snap.lock_timeouts, Ordering::Relaxed);
            let committed = w.recorder.history().committed_calls();
            let replayed = check_commit_order_serializable(&SetSpec, &committed)
                .unwrap_or_else(|e| panic!("deadlock recovery broke serializability: {e}"));
            let actual: std::collections::BTreeSet<i64> = w.set.snapshot().into_iter().collect();
            assert_eq!(actual, replayed, "final state diverged from replay");
        },
    );
    assert!(
        total_timeouts.load(Ordering::Relaxed) > 0,
        "no seed in the sweep produced a deadlock — the storm is toothless"
    );
}

#[test]
fn single_key_mutual_exclusion_storm() {
    // Three threads funnel through one abstract lock; a flag checked
    // inside the critical section proves mutual exclusion holds on
    // every interleaving.
    struct W {
        tm: TxnManager,
        map: KeyLockMap<i64>,
        in_cs: AtomicBool,
        entries: AtomicU64,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(150),
        3,
        || W {
            tm: TxnManager::default(),
            map: KeyLockMap::new(),
            in_cs: AtomicBool::new(false),
            entries: AtomicU64::new(0),
        },
        |w, _tid| {
            for _ in 0..4 {
                w.tm.run(|t| {
                    w.map.lock(t, &0)?;
                    assert!(
                        !w.in_cs.swap(true, Ordering::SeqCst),
                        "two transactions inside the same critical section"
                    );
                    det::yield_point(det::Point::User);
                    det::yield_point(det::Point::User);
                    w.in_cs.store(false, Ordering::SeqCst);
                    w.entries.fetch_add(1, Ordering::Relaxed);
                    Ok(())
                })
                .unwrap();
            }
        },
        |w, _report| {
            assert_eq!(w.entries.load(Ordering::Relaxed), 3 * 4);
        },
    );
}
