//! Deterministic-harness coverage for the hot-path machinery: the
//! CAS-word `AbstractLock` behind `KeyLockMap`'s fixed slot table and
//! its interaction with virtual-time timeouts.
//!
//! Four behaviours are swept across seeds: reacquisition is reentrant
//! and registers nothing, a CAS loser parks and wakes, a contended
//! acquire times out on virtual time, and two *distinct* keys that
//! share a slot exclude each other exactly like one key.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use transactional_boosting::prelude::*;
use txboost_core::locks::KeyLockMap;
use txboost_sched::core_det as det;

/// Spin at a named yield point until `flag` is set (the deterministic
/// analogue of a barrier; see `det_deadlock.rs`).
fn spin_until(flag: &AtomicBool) {
    while !flag.load(Ordering::SeqCst) {
        det::yield_point(det::Point::User);
    }
}

#[test]
fn reacquire_is_reentrant_on_every_seed() {
    // Each thread locks its own key and reacquires it twice. On every
    // interleaving the reacquisitions must succeed without registering
    // a second held lock, and the commit must release the key.
    struct W {
        tm: TxnManager,
        map: KeyLockMap<i64>,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(100),
        2,
        || W {
            tm: TxnManager::default(),
            map: KeyLockMap::new(),
        },
        |w, tid| {
            let key = tid as i64;
            assert_ne!(w.map.slot_of(&0), w.map.slot_of(&1));
            w.tm.run(|t| {
                w.map.lock(t, &key)?;
                assert_eq!(t.held_lock_count(), 1);
                w.map.lock(t, &key)?;
                w.map.lock(t, &key)?;
                assert_eq!(t.held_lock_count(), 1, "reacquires must be reentrant");
                Ok(())
            })
            .unwrap();
            // A fresh transaction must take the released lock anew.
            assert!(!w.map.is_locked(&key));
            w.tm.run(|t| {
                w.map.lock(t, &key)?;
                assert_eq!(t.held_lock_count(), 1);
                Ok(())
            })
            .unwrap();
        },
        |w, _report| {
            let snap = w.tm.stats().snapshot();
            assert_eq!(snap.committed, 4);
            assert_eq!(snap.aborted, 0);
        },
    );
}

#[test]
fn cas_loser_blocks_then_wakes_when_the_owner_commits() {
    // T1 requests the key while T0 provably holds it, so T1 always
    // loses the CAS and enters the contended path; T0 releases well
    // inside T1's virtual-time timeout window, so T1 must wake and
    // commit without ever aborting.
    struct W {
        tm: TxnManager,
        map: KeyLockMap<i64>,
        held: AtomicBool,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(150),
        2,
        || W {
            tm: TxnManager::default(),
            map: KeyLockMap::new(),
            held: AtomicBool::new(false),
        },
        |w, tid| {
            if tid == 0 {
                w.tm.run(|t| {
                    w.map.lock(t, &7)?;
                    w.held.store(true, Ordering::SeqCst);
                    // Hold across a few scheduling points so the loser
                    // observably blocks before the release.
                    for _ in 0..10 {
                        det::yield_point(det::Point::User);
                    }
                    Ok(())
                })
                .unwrap();
            } else {
                spin_until(&w.held);
                w.tm.run(|t| w.map.lock(t, &7)).unwrap();
            }
        },
        |w, _report| {
            let snap = w.tm.stats().snapshot();
            assert_eq!(snap.committed, 2);
            assert_eq!(
                snap.aborted, 0,
                "the loser must wake on release, not time out"
            );
            assert!(!w.map.is_locked(&7));
        },
    );
}

#[test]
fn contended_acquire_times_out_on_virtual_time() {
    // The owner outlives the waiter's entire virtual-time timeout
    // window, so the waiter's single attempt must abort with
    // `Abort::lock_timeout()` — the CAS-word lock's deadline runs on
    // scheduler ticks, not the wall clock.
    struct W {
        tm: TxnManager,
        tm_once: TxnManager,
        map: KeyLockMap<i64>,
        held: AtomicBool,
    }
    let timeouts = AtomicU64::new(0);
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(100),
        2,
        || W {
            tm: TxnManager::default(),
            tm_once: TxnManager::new(TxnConfig {
                max_retries: Some(0),
                ..TxnConfig::default()
            }),
            map: KeyLockMap::new(),
            held: AtomicBool::new(false),
        },
        |w, tid| {
            if tid == 0 {
                w.tm.run(|t| {
                    w.map.lock(t, &3)?;
                    w.held.store(true, Ordering::SeqCst);
                    // Far past the waiter's ~100 blocked rounds (each
                    // round = one acquire yield + one tick).
                    for _ in 0..400 {
                        det::yield_point(det::Point::User);
                    }
                    Ok(())
                })
                .unwrap();
            } else {
                spin_until(&w.held);
                let err = w.tm_once.run(|t| w.map.lock(t, &3)).unwrap_err();
                assert_eq!(err, TxnError::RetriesExhausted(AbortReason::LockTimeout));
            }
        },
        |w, _report| {
            assert_eq!(w.tm.stats().snapshot().committed, 1);
            let snap = w.tm_once.stats().snapshot();
            assert_eq!(snap.lock_timeouts, 1, "waiter must time out exactly once");
            timeouts.fetch_add(snap.lock_timeouts, Ordering::Relaxed);
            // Recovery: the key is lockable again afterwards.
            w.tm.run(|t| w.map.lock(t, &3)).unwrap();
        },
    );
    assert!(timeouts.load(Ordering::Relaxed) > 0);
}

#[test]
fn keys_sharing_a_slot_exclude_each_other_on_every_seed() {
    // Three threads, two distinct keys that hash to one slot: the flag
    // checked inside the critical section proves the two keys are one
    // conflict location on every interleaving (Rule 2 allows the false
    // conflict; it does not allow two owners).
    struct W {
        tm: TxnManager,
        map: KeyLockMap<i64>,
        keys: [i64; 2],
        in_cs: AtomicBool,
        entries: AtomicU64,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(150),
        3,
        || {
            let map = KeyLockMap::new();
            let twin = (1..1 << 20)
                .find(|k| map.slot_of(k) == map.slot_of(&0))
                .unwrap();
            W {
                tm: TxnManager::default(),
                map,
                keys: [0, twin],
                in_cs: AtomicBool::new(false),
                entries: AtomicU64::new(0),
            }
        },
        |w, tid| {
            for round in 0..4 {
                let key = w.keys[(tid + round) % 2];
                w.tm.run(|t| {
                    w.map.lock(t, &key)?;
                    assert!(
                        !w.in_cs.swap(true, Ordering::SeqCst),
                        "two transactions hold keys of one slot at once"
                    );
                    det::yield_point(det::Point::User);
                    // The other key is the same lock: reentrant here.
                    w.map.lock(t, &w.keys[(tid + round + 1) % 2])?;
                    assert_eq!(t.held_lock_count(), 1);
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
            assert!(w.keys.iter().all(|k| !w.map.is_locked(k)));
        },
    );
}
