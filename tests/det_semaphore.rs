//! Deterministic-scheduler coverage for conditional synchronization:
//! `TSemaphore::acquire` (and through it the boosted blocking queue)
//! blocks on **virtual** time under the harness, so producer/consumer
//! wake orders are schedulable events and permit-exhaustion timeouts
//! replay identically on every machine.
//!
//! `acquire` is one loop under either clock: it blocks through the
//! `txboost_core::locks::Deadline` seam, which turns each wait into a
//! `block_tick` when a scheduler is installed. This suite proves the
//! hooks actually schedule: an exhausted acquire's runs reach
//! `Point::LockAcquire` and `Point::LockBlocked`.

use std::time::Duration;
use transactional_boosting::prelude::*;

#[test]
fn exhausted_semaphore_times_out_on_virtual_time() {
    // A single thread, zero permits: the acquire can never succeed and
    // must abort with WouldBlock once the *virtual* deadline passes —
    // instantly in wall-clock terms, on every seed.
    struct W {
        tm: TxnManager,
        sem: TSemaphore,
    }
    txboost_sched::sweep_setup(
        0..20u64,
        1,
        || W {
            tm: TxnManager::new(TxnConfig {
                lock_timeout: Duration::from_millis(50),
                max_retries: Some(0),
            }),
            sem: TSemaphore::new(0),
        },
        |w, _tid| {
            let err = w.tm.run(|t| w.sem.acquire(t)).unwrap_err();
            assert!(
                matches!(err, TxnError::RetriesExhausted(AbortReason::WouldBlock)),
                "expected WouldBlock, got {err:?}"
            );
        },
        |w, report| {
            assert_eq!(w.sem.available(), 0, "failed acquire must not leak");
            assert!(report.reached(txboost_sched::core_det::Point::LockAcquire));
            assert!(report.reached(txboost_sched::core_det::Point::LockBlocked));
        },
    );
}

#[test]
fn blocked_acquire_wakes_on_concurrent_commit_under_the_harness() {
    // Thread 1 blocks in acquire (zero permits); thread 0 releases and
    // commits. The waiter's poll loop is made of scheduling rounds, so
    // every seed interleaves the wake differently — but the waiter
    // must always obtain the permit (retrying on timeout as needed).
    struct W {
        tm: TxnManager,
        sem: TSemaphore,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(100),
        2,
        || W {
            tm: TxnManager::new(TxnConfig {
                lock_timeout: Duration::from_millis(20),
                ..TxnConfig::default()
            }),
            sem: TSemaphore::new(0),
        },
        |w, tid| {
            if tid == 0 {
                w.tm.run(|t| {
                    w.sem.release(t);
                    Ok(())
                })
                .unwrap();
            } else {
                w.tm.run(|t| w.sem.acquire(t)).unwrap();
            }
        },
        |w, _report| {
            assert_eq!(
                w.sem.available(),
                0,
                "exactly one permit produced and consumed"
            );
            assert_eq!(w.tm.stats().snapshot().committed, 2);
        },
    );
}

#[test]
fn capacity_one_queue_pipeline_is_fifo_on_every_seed() {
    // The paper's Section 3.3 producer/consumer, squeezed through a
    // capacity-1 queue so *every* offer and take blocks on a
    // semaphore: maximal coverage of the det acquire loop. FIFO order
    // must survive every explored schedule.
    struct W {
        tm: TxnManager,
        q: BoostedBlockingQueue<i64>,
    }
    const N: i64 = 8;
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(100),
        2,
        || W {
            tm: TxnManager::new(TxnConfig {
                lock_timeout: Duration::from_millis(20),
                ..TxnConfig::default()
            }),
            q: BoostedBlockingQueue::new(1),
        },
        |w, tid| {
            if tid == 0 {
                for i in 0..N {
                    w.tm.run(|t| w.q.offer(t, i)).unwrap();
                }
            } else {
                for i in 0..N {
                    let got = w.tm.run(|t| w.q.take(t)).unwrap();
                    assert_eq!(got, i, "queue reordered under the scheduler");
                }
            }
        },
        |w, _report| {
            assert_eq!(w.q.raw_len(), 0);
            assert_eq!(w.q.committed_items(), 0);
            assert_eq!(w.q.committed_free_slots(), 1);
        },
    );
}
