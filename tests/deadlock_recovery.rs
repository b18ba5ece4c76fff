//! Deadlock recovery through lock timeouts — the paper's Section 2
//! claim that "timeouts avoid deadlock", exercised for real.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::Duration;
use transactional_boosting::model::spec::SetOp;
use transactional_boosting::model::{check_commit_order_serializable, SetSpec, TxnLabel};
use transactional_boosting::prelude::*;

#[test]
fn opposite_order_key_acquisition_deadlock_is_broken_by_timeouts() {
    // T1 locks key A then B; T2 locks key B then A — a textbook 2PL
    // deadlock. With timeouts, at least one victim aborts, rolls back,
    // backs off, retries, and BOTH eventually commit.
    let tm = Arc::new(TxnManager::new(TxnConfig {
        lock_timeout: Duration::from_millis(5),
        ..TxnConfig::default()
    }));
    let set = Arc::new(BoostedSkipListSet::new());
    let barrier = Arc::new(Barrier::new(2));

    std::thread::scope(|s| {
        for (first, second) in [(1i64, 2i64), (2, 1)] {
            let tm = Arc::clone(&tm);
            let set = Arc::clone(&set);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let mut synced = false;
                tm.run(|t| {
                    set.add(t, first)?;
                    if !synced {
                        // Guarantee the crossing on the first attempt:
                        // both threads hold their first key here.
                        barrier.wait();
                        synced = true;
                    }
                    set.add(t, second)?;
                    Ok(())
                })
                .unwrap();
            });
        }
    });

    // Both transactions committed despite the engineered deadlock.
    assert_eq!(set.snapshot(), vec![1, 2]);
    let snap = tm.stats().snapshot();
    assert_eq!(snap.committed, 2);
    assert!(
        snap.lock_timeouts >= 1,
        "the deadlock never happened — victims: {}",
        snap.lock_timeouts
    );
    // Every timeout the manager counted is accounted for, with its
    // wait: a victim blocked, and its attempt waited out the whole 5 ms
    // window — 2^22 ns and up, in the histogram's buckets.
    assert!(snap.lock_waits >= snap.lock_timeouts);
    let waited_out: u64 = snap.lock_wait.buckets[22..].iter().sum();
    assert!(
        waited_out >= snap.lock_timeouts,
        "{} timeouts, {waited_out} waits of 4.2 ms or more",
        snap.lock_timeouts
    );
    assert!(snap.lock_wait.sum >= snap.lock_timeouts * 5_000_000);
}

#[test]
fn deadlock_storm_remains_serializable() {
    // Many threads acquire random key pairs in random order — constant
    // deadlock pressure. Everything must still commit eventually and
    // the committed history must replay serially.
    let tm = Arc::new(TxnManager::new(TxnConfig {
        lock_timeout: Duration::from_millis(2),
        ..TxnConfig::default()
    }));
    let set = Arc::new(BoostedSkipListSet::new());
    let recorder = Arc::new(transactional_boosting::model::HistoryRecorder::<SetOp, bool>::new());
    let labels = Arc::new(AtomicU64::new(1));

    std::thread::scope(|s| {
        for th in 0..8u64 {
            let tm = Arc::clone(&tm);
            let set = Arc::clone(&set);
            let recorder = Arc::clone(&recorder);
            let labels = Arc::clone(&labels);
            s.spawn(move || {
                use rand::prelude::*;
                let mut rng = StdRng::seed_from_u64(th);
                for _ in 0..40 {
                    let a = rng.random_range(0..6i64);
                    let mut b = rng.random_range(0..6i64);
                    if a == b {
                        b = (b + 1) % 6;
                    }
                    // Manual loop so we can record only the committed
                    // attempt.
                    loop {
                        let label = TxnLabel(labels.fetch_add(1, Ordering::Relaxed));
                        let txn = tm.begin();
                        let r = (|| -> Result<Vec<(SetOp, bool)>, Abort> {
                            let mut calls = Vec::new();
                            calls.push((SetOp::Add(a), set.add(&txn, a)?));
                            // Hold the first key lock long enough that
                            // opposite-order acquirers actually cross;
                            // without this the transactions are so short
                            // the storm can finish deadlock-free.
                            std::thread::sleep(Duration::from_micros(100));
                            calls.push((SetOp::Remove(b), set.remove(&txn, &b)?));
                            Ok(calls)
                        })();
                        match r {
                            Ok(calls) => {
                                for (op, resp) in &calls {
                                    recorder.call(label, *op, *resp);
                                }
                                recorder.commit(label);
                                tm.commit(txn);
                                break;
                            }
                            Err(abort) => {
                                tm.abort(txn, abort.reason());
                            }
                        }
                    }
                }
            });
        }
    });

    let snap = tm.stats().snapshot();
    assert_eq!(snap.committed, 8 * 40);
    assert!(
        snap.lock_timeouts > 0,
        "storm produced no deadlocks/timeouts — not a meaningful test"
    );
    // Theorem 5.3 must survive deadlock recovery.
    let committed = recorder.history().committed_calls();
    let replayed = check_commit_order_serializable(&SetSpec, &committed)
        .unwrap_or_else(|e| panic!("deadlock recovery broke serializability: {e}"));
    let actual: std::collections::BTreeSet<i64> = set.snapshot().into_iter().collect();
    assert_eq!(actual, replayed, "final state diverged from replay");
}

#[test]
fn rwlock_upgrade_deadlock_is_broken_by_timeouts() {
    // Two transactions both read-lock the heap's RW lock (via add) and
    // then both need the exclusive lock (via remove_min): a classic
    // upgrade deadlock, recovered by timeout-abort-retry.
    let tm = Arc::new(TxnManager::new(TxnConfig {
        lock_timeout: Duration::from_millis(5),
        ..TxnConfig::default()
    }));
    let q = Arc::new(BoostedPQueue::new());
    tm.run(|t| {
        q.add(t, 100)?;
        q.add(t, 200)
    })
    .unwrap();
    let barrier = Arc::new(Barrier::new(2));

    std::thread::scope(|s| {
        for th in 0..2i64 {
            let tm = Arc::clone(&tm);
            let q = Arc::clone(&q);
            let barrier = Arc::clone(&barrier);
            s.spawn(move || {
                let mut synced = false;
                tm.run(|t| {
                    q.add(t, th)?; // shared mode
                    if !synced {
                        barrier.wait(); // both now hold shared
                        synced = true;
                    }
                    q.remove_min(t)?; // upgrade to exclusive: deadlock
                    Ok(())
                })
                .unwrap();
            });
        }
    });

    let snap = tm.stats().snapshot();
    assert_eq!(snap.committed, 3); // setup + both workers
    assert!(snap.lock_timeouts >= 1, "upgrade deadlock never happened");
    // Each worker added one key and removed one minimum: two of the
    // four keys remain.
    let mut remaining = Vec::new();
    while let Some(k) = tm.run(|t| q.remove_min(t)).unwrap() {
        remaining.push(k);
    }
    assert_eq!(remaining.len(), 2);
}
