//! The per-thread transaction event trace (requires `--features
//! trace`; this file compiles to nothing without it).
#![cfg(feature = "trace")]

use std::sync::Arc;
use std::time::Duration;
use txboost_core::locks::{AbstractLock, Mode};
use txboost_core::trace::{take_events, TraceEvent, TRACE_CAPACITY};
use txboost_core::{AbortReason, TxnConfig, TxnManager};

fn manager(timeout_ms: u64) -> TxnManager {
    TxnManager::new(TxnConfig {
        lock_timeout: Duration::from_millis(timeout_ms),
        max_retries: Some(0),
        ..TxnConfig::default()
    })
}

#[test]
fn committed_txn_leaves_begin_undo_commit() {
    let _ = take_events(); // drop whatever earlier tests on this thread left
    let tm = manager(50);
    let txn = tm.begin();
    let id = txn.id();
    txn.log_undo(|| {});
    txn.log_undo(|| {});
    tm.commit(txn);

    let events = take_events();
    assert_eq!(
        events,
        vec![
            TraceEvent::Begin { txn: id },
            TraceEvent::Undo { txn: id, depth: 1 },
            TraceEvent::Undo { txn: id, depth: 2 },
            TraceEvent::Commit {
                txn: id,
                undo_depth: 2
            },
        ]
    );
    assert!(take_events().is_empty(), "take_events must drain");
}

#[test]
fn contended_lock_traces_wait_and_timeout_abort() {
    let _ = take_events();
    let tm = manager(5);
    let lock = Arc::new(AbstractLock::new());

    let holder = tm.begin();
    lock.acquire(&holder, Mode::Exclusive).unwrap();
    let waiter = tm.begin();
    let waiter_id = waiter.id();
    let err = lock.acquire(&waiter, Mode::Exclusive).unwrap_err();
    tm.abort(waiter, err.reason());
    tm.commit(holder);

    let events = take_events();
    assert!(
        events.contains(&TraceEvent::LockWait { txn: waiter_id }),
        "no LockWait in {events:?}"
    );
    assert!(
        events.contains(&TraceEvent::Abort {
            txn: waiter_id,
            reason: AbortReason::LockTimeout,
            undo_depth: 0
        }),
        "no timeout Abort in {events:?}"
    );
    // The waiter blocked but never acquired.
    assert!(!events
        .iter()
        .any(|e| matches!(e, TraceEvent::LockAcquired { txn, .. } if *txn == waiter_id)));
}

#[test]
fn contended_acquire_records_nonzero_wait() {
    let _ = take_events();
    let tm = Arc::new(manager(1_000));
    let lock = Arc::new(AbstractLock::new());

    let holder = tm.begin();
    lock.acquire(&holder, Mode::Exclusive).unwrap();
    let (tm2, lock2) = (Arc::clone(&tm), Arc::clone(&lock));
    let handle = std::thread::spawn(move || {
        let txn = tm2.begin();
        let id = txn.id();
        lock2.acquire(&txn, Mode::Exclusive).unwrap();
        tm2.commit(txn);
        // Events live on the waiter's own thread.
        (id, take_events())
    });
    std::thread::sleep(Duration::from_millis(20));
    tm.commit(holder);

    let (waiter_id, events) = handle.join().unwrap();
    let waited = events.iter().find_map(|e| match e {
        TraceEvent::LockAcquired { txn, wait_ns } if *txn == waiter_id => Some(*wait_ns),
        _ => None,
    });
    let waited = waited.expect("waiter never traced LockAcquired");
    assert!(
        waited >= Duration::from_millis(5).as_nanos() as u64,
        "wait_ns implausibly small: {waited}"
    );
}

#[test]
fn dump_renders_one_line_per_event_and_drains() {
    let _ = take_events();
    let tm = manager(50);
    let txn = tm.begin();
    txn.log_undo(|| {});
    tm.commit(txn);

    let report = txboost_core::trace::dump();
    assert_eq!(report.lines().count(), 3, "unexpected report:\n{report}");
    assert!(report.contains("Begin"), "unexpected report:\n{report}");
    assert!(report.contains("Commit"), "unexpected report:\n{report}");
    // dump() drains like take_events(); a second call reports emptiness.
    assert!(txboost_core::trace::dump().contains("no trace events"));
}

#[test]
fn ring_is_bounded_and_keeps_newest() {
    let _ = take_events();
    let tm = manager(50);
    // Each begin+commit emits 2 events; overflow the ring.
    for _ in 0..TRACE_CAPACITY {
        let txn = tm.begin();
        tm.commit(txn);
    }
    let events = take_events();
    assert_eq!(events.len(), TRACE_CAPACITY);
    // The newest event survives; the oldest were evicted.
    assert!(matches!(events.last(), Some(TraceEvent::Commit { .. })));
    assert!(matches!(events.first(), Some(TraceEvent::Begin { .. })));
}
