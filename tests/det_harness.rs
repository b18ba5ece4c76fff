//! Harness semantics against the real boosting stack: replay identity,
//! virtual-time lock timeouts, and exhaustive DFS over a small bound.
//!
//! These tests exercise `txboost-sched` itself; the ported Theorem
//! 5.3/5.4 and deadlock-storm suites live in `det_serializability.rs`
//! and `det_deadlock.rs`.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use transactional_boosting::model::spec::SetOp;
use transactional_boosting::model::{
    check_commit_order_serializable, HistoryRecorder, SetSpec, TxnLabel,
};
use transactional_boosting::prelude::*;
use txboost_core::locks::KeyLockMap;
use txboost_sched::core_det as det;

/// A small boosted-set workload: thread `tid` adds its own keys, reads
/// a shared one, removes one of its own again.
fn set_workload(tm: &TxnManager, set: &BoostedSkipListSet<i64>, tid: usize) {
    let base = tid as i64 * 10;
    tm.run(|txn| {
        set.add(txn, base)?;
        set.add(txn, base + 1)?;
        Ok(())
    })
    .unwrap();
    tm.run(|txn| {
        let _ = set.contains(txn, &0)?;
        set.remove(txn, &(base + 1))
    })
    .unwrap();
}

#[test]
fn replay_reproduces_identical_schedule_and_outcome() {
    let run = |seed| {
        let tm = TxnManager::default();
        let set = BoostedSkipListSet::new();
        let report = txboost_sched::run_with_seed(seed, 3, |tid| set_workload(&tm, &set, tid));
        (report, set.snapshot())
    };
    for seed in [0, 1, 0xDEAD_BEEF] {
        let (a, state_a) = run(seed);
        let (b, state_b) = run(seed);
        assert!(!a.failed(), "{}", a.render_failure());
        assert_eq!(a.schedule, b.schedule, "seed {seed} did not replay");
        assert_eq!(a.final_clock, b.final_clock);
        assert_eq!(state_a, state_b);
        assert_eq!(state_a, vec![0, 10, 20]);
    }
}

#[test]
fn distinct_seeds_explore_distinct_interleavings() {
    let schedules: Vec<_> = (0..32)
        .map(|seed| {
            let tm = TxnManager::default();
            let set = BoostedSkipListSet::new();
            txboost_sched::run_with_seed(seed, 3, |tid| set_workload(&tm, &set, tid)).schedule
        })
        .collect();
    let distinct: std::collections::HashSet<usize> = schedules
        .iter()
        .map(|s| {
            // Fingerprint: the sequence of (tid, point-discriminant).
            s.iter().fold(0usize, |h, step| {
                h.wrapping_mul(31).wrapping_add(step.tid * 17 + step.choice)
            })
        })
        .collect();
    assert!(
        distinct.len() > 8,
        "32 seeds produced only {} distinct schedules",
        distinct.len()
    );
}

#[test]
fn lock_timeout_runs_on_virtual_time() {
    // t0 takes the key and keeps yielding far past t1's whole timeout
    // window; t1 makes one attempt. On wall clocks this test's outcome
    // would depend on machine speed; under virtual time t1 *always*
    // times out after exactly `ticks_for(lock_timeout)` blocked rounds,
    // on every seed.
    for seed in 0..20 {
        let tm_holder = TxnManager::default();
        let tm_waiter = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let map = Arc::new(KeyLockMap::<i64>::new());
        let held = std::sync::atomic::AtomicBool::new(false);
        let waiter_result = std::sync::Mutex::new(None);
        let report = txboost_sched::run_with_seed(seed, 2, |tid| {
            if tid == 0 {
                tm_holder
                    .run(|txn| {
                        map.lock(txn, &1)?;
                        held.store(true, Ordering::SeqCst);
                        for _ in 0..600 {
                            det::yield_point(det::Point::User);
                        }
                        Ok(())
                    })
                    .unwrap();
            } else {
                // Don't start the attempt until the holder really owns
                // the key, so every seed exercises the timeout path.
                while !held.load(Ordering::SeqCst) {
                    det::yield_point(det::Point::User);
                }
                let r = tm_waiter.run(|txn| map.lock(txn, &1));
                *waiter_result.lock().unwrap() = Some(r);
            }
        });
        assert!(!report.failed(), "{}", report.render_failure());
        let waited = waiter_result.into_inner().unwrap().unwrap();
        assert!(
            matches!(
                waited,
                Err(TxnError::RetriesExhausted(AbortReason::LockTimeout))
            ),
            "seed {seed}: waiter should always time out, got {waited:?}"
        );
        // 10 ms default timeout at 100 µs per tick = 100 ticks.
        assert!(
            report.final_clock >= 100,
            "seed {seed}: clock only reached {}",
            report.final_clock
        );
        assert_eq!(tm_waiter.stats().snapshot().lock_timeouts, 1);
    }
}

#[test]
fn dfs_exhausts_a_two_thread_set_workload() {
    // Disjoint keys (no lock contention, so no blocked-round blowup):
    // the schedule space is small enough to enumerate completely, and
    // every single interleaving must satisfy Theorem 5.3 and leave the
    // same final state.
    type World = Arc<(
        TxnManager,
        BoostedSkipListSet<i64>,
        HistoryRecorder<SetOp, bool>,
    )>;
    let cell: std::sync::Mutex<Option<World>> = std::sync::Mutex::new(None);
    let finished = AtomicUsize::new(0);
    let report = txboost_sched::explore_dfs(2, 100_000, |tid| {
        let world = {
            let mut guard = cell.lock().unwrap();
            guard
                .get_or_insert_with(|| {
                    Arc::new((
                        TxnManager::default(),
                        BoostedSkipListSet::new(),
                        HistoryRecorder::new(),
                    ))
                })
                .clone()
        };
        let (tm, set, recorder) = &*world;
        let label = TxnLabel(tid as u64 + 1);
        let key = tid as i64; // disjoint — the two transactions commute
        let txn = tm.begin();
        recorder.init(label);
        let added = set.add(&txn, key).unwrap();
        recorder.call(label, SetOp::Add(key), added);
        recorder.commit(label);
        tm.commit(txn);
        if finished.fetch_add(1, Ordering::SeqCst) == 1 {
            // Last finisher of this enumerated schedule: check and reset.
            let history = recorder.history();
            history.check_well_formed().unwrap();
            let replayed =
                check_commit_order_serializable(&SetSpec, &history.committed_calls()).unwrap();
            let actual: std::collections::BTreeSet<i64> = set.snapshot().into_iter().collect();
            assert_eq!(actual, replayed);
            assert_eq!(actual.len(), 2);
            *cell.lock().unwrap() = None;
            finished.store(0, Ordering::SeqCst);
        }
    });
    assert!(
        report.failure.is_none(),
        "{}",
        report.failure.unwrap().render_failure()
    );
    assert!(
        report.complete,
        "space not exhausted in {} runs",
        report.runs
    );
    assert!(
        report.runs > 10,
        "suspiciously few interleavings: {}",
        report.runs
    );
}

#[test]
fn stm_conflicts_are_schedule_controlled() {
    // Two STM transactions increment one variable; the deterministic
    // yield before commit-time write-locking lets schedules interleave
    // the committers. Whatever the interleaving, no update is lost, and
    // every run preempts at the STM's read, write-lock and validate
    // hooks.
    use transactional_boosting::rwstm::{Stm, StmVar};
    for seed in 0..50 {
        let stm = Stm::default();
        let v = StmVar::new(0i64);
        let report = txboost_sched::run_with_seed(seed, 2, |_tid| {
            stm.run(|txn| {
                let x = v.read(txn)?;
                v.write(txn, x + 1);
                Ok(())
            })
            .unwrap();
        });
        assert!(!report.failed(), "{}", report.render_failure());
        assert_eq!(v.load(), 2, "lost update under seed {seed}");
        for point in [
            det::Point::StmRead,
            det::Point::StmWrite,
            det::Point::StmValidate,
        ] {
            assert!(report.reached(point), "seed {seed} never reached {point}");
        }
    }
}
