//! No drift between a boosted type's conflict table and its methods,
//! and no base call outside the discipline the table states. Every
//! transactional call is checked over each outcome it can have (key
//! present or absent, queue empty or not) and two keys or amounts, so a
//! defect on one branch is exercised on both. Three checks per call:
//!
//! - **Exactly its entry.** Made by a fresh transaction, the call holds
//!   one abstract lock: the word the type's `conflict` function names,
//!   in the mode it names. Commit releases it. A lock taken on one
//!   branch only, a second lock, or a lock taken around the table fails
//!   here. One lock per call also means no boosted method orders two
//!   locks, so it cannot be half of a lock-order cycle.
//! - **Blocked, untouched.** While another transaction holds the
//!   entry's word exclusively, the call times out, and the object's
//!   state has not moved. A base call made before the acquire (Rule 2's
//!   order, which the lock count cannot see) fails here.
//! - **Aborted, unchanged.** The call made and then aborted leaves the
//!   abstract state as it found it. A missing inverse, an inverse that
//!   mutates nothing, or one logged on some branches only (Rule 3)
//!   fails here.
//!
//! Each check reads the state outside any transaction with the type's
//! quiescent reader (`snapshot`, `peek`). The priority queue is the
//! exception; [`pqueue_check`] says why.

use std::fmt::Debug;
use std::time::Duration;
use txboost_collections::{
    BoostedCounter, BoostedHashMap, BoostedListSet, BoostedPQueue, BoostedRbTreeSet,
    BoostedSkipListSet, CounterCall, MapCall, PQueueCall, SetCall,
};
use txboost_core::locks::{AbstractLock, Mode};
use txboost_core::{Abort, AbortReason, TxResult, Txn, TxnConfig, TxnManager};

#[derive(Debug, Clone, Copy)]
enum Check {
    ExactlyItsEntry,
    BlockedUntouched,
    AbortedUnchanged,
}

/// Two keys, each absent and present: every outcome of a keyed call.
const OUTCOMES: [(i64, bool); 4] = [(1, false), (1, true), (2, false), (2, true)];

/// Run `check` on `call`, whose table entry is `request`. `state` reads
/// the object's state with no transaction of this check in flight.
fn run_check<S: PartialEq + Debug, R>(
    check: Check,
    what: &str,
    request: (&'static AbstractLock, Mode),
    state: impl Fn() -> S,
    call: impl FnOnce(&Txn) -> TxResult<R>,
) {
    // A blocked call gives up after 1 ms.
    let tm = TxnManager::new(TxnConfig {
        lock_timeout: Duration::from_millis(1),
        max_retries: Some(0),
    });
    let (lock, mode) = request;
    let before = state();
    match check {
        Check::ExactlyItsEntry => {
            let txn = tm.begin();
            call(&txn).unwrap_or_else(|e| panic!("{what}: {e:?}"));
            assert_eq!(txn.held_lock_count(), 1, "{what}: one lock");
            let held = match mode {
                Mode::Exclusive => (Some(txn.id()), 0),
                Mode::Shared => (None, 1),
            };
            assert_eq!(
                lock.holders(),
                held,
                "{what}: the table's word, in its mode"
            );
            tm.commit(txn);
            assert_eq!(lock.holders(), (None, 0), "{what}: released at commit");
        }
        Check::BlockedUntouched => {
            let holder = tm.begin();
            lock.acquire(&holder, Mode::Exclusive).unwrap();
            let blocked = tm.begin();
            assert_eq!(
                call(&blocked).err(),
                Some(Abort::lock_timeout()),
                "{what}: blocks on its entry"
            );
            assert_eq!(state(), before, "{what}: a blocked call touched the base");
            tm.abort(blocked, AbortReason::LockTimeout);
            tm.commit(holder);
        }
        Check::AbortedUnchanged => {
            let txn = tm.begin();
            call(&txn).unwrap_or_else(|e| panic!("{what}: {e:?}"));
            tm.abort(txn, AbortReason::Explicit);
            assert_eq!(state(), before, "{what}: abort left the state changed");
        }
    }
}

fn outcome(what: &str, key: i64, present: bool) -> String {
    let status = if present { "present" } else { "absent" };
    format!("{what}, key {key} {status}")
}

macro_rules! check_set {
    ($check:expr, $what:expr, $new:expr) => {
        for (key, present) in OUTCOMES {
            let fresh = || {
                let s = $new;
                if present {
                    TxnManager::default().run(|t| s.add(t, key)).unwrap();
                }
                s
            };
            let what = outcome($what, key, present);
            let s = fresh();
            run_check(
                $check,
                &format!("{what}: add"),
                s.conflict(SetCall::Add(&key)),
                || s.snapshot(),
                |t| s.add(t, key),
            );
            let s = fresh();
            run_check(
                $check,
                &format!("{what}: contains"),
                s.conflict(SetCall::Contains(&key)),
                || s.snapshot(),
                |t| s.contains(t, &key),
            );
            let s = fresh();
            run_check(
                $check,
                &format!("{what}: remove"),
                s.conflict(SetCall::Remove(&key)),
                || s.snapshot(),
                |t| s.remove(t, &key),
            );
        }
    };
}

fn set_calls(check: Check) {
    check_set!(
        check,
        "skip-list set per key",
        BoostedSkipListSet::<i64>::new()
    );
    check_set!(
        check,
        "skip-list set one lock",
        BoostedSkipListSet::<i64>::with_coarse_lock()
    );
    check_set!(check, "list set per key", BoostedListSet::<i64>::new());
    check_set!(
        check,
        "list set one lock",
        BoostedListSet::<i64>::with_coarse_lock()
    );
    check_set!(
        check,
        "red-black tree set per key",
        BoostedRbTreeSet::<i64>::new()
    );
    check_set!(
        check,
        "red-black tree set one lock",
        BoostedRbTreeSet::<i64>::with_coarse_lock()
    );
}

fn map_calls(check: Check) {
    for (key, present) in OUTCOMES {
        let fresh = || {
            let m = BoostedHashMap::<i64, i64>::new();
            if present {
                TxnManager::default().run(|t| m.put(t, key, 10)).unwrap();
            }
            m
        };
        let what = outcome("map", key, present);
        let m = fresh();
        run_check(
            check,
            &format!("{what}: put"),
            m.conflict(MapCall::Put(&key)),
            || m.snapshot(),
            |t| m.put(t, key, 20),
        );
        let m = fresh();
        run_check(
            check,
            &format!("{what}: get"),
            m.conflict(MapCall::Get(&key)),
            || m.snapshot(),
            |t| m.get(t, &key),
        );
        let m = fresh();
        run_check(
            check,
            &format!("{what}: contains_key"),
            m.conflict(MapCall::ContainsKey(&key)),
            || m.snapshot(),
            |t| m.contains_key(t, &key),
        );
        let m = fresh();
        run_check(
            check,
            &format!("{what}: remove"),
            m.conflict(MapCall::Remove(&key)),
            || m.snapshot(),
            |t| m.remove(t, &key),
        );
    }
}

fn counter_calls(check: Check) {
    for start in [0, 7] {
        let fresh = || {
            let c = BoostedCounter::new();
            TxnManager::default().run(|t| c.add(t, start)).unwrap();
            c
        };
        let c = fresh();
        run_check(
            check,
            &format!("counter at {start}: add"),
            c.conflict(CounterCall::Add),
            || c.peek(),
            |t| c.add(t, 3),
        );
        let c = fresh();
        run_check(
            check,
            &format!("counter at {start}: get"),
            c.conflict(CounterCall::Get),
            || c.peek(),
            |t| c.get(t),
        );
    }
}

/// [`run_check`] for the priority queue, which has no quiescent reader
/// of its abstract state: an aborted `add` leaves its deleted holder in
/// the heap. So a blocked call, which has nothing to purge, is read off
/// the heap's raw length (`min` would wait on the held word), and every
/// other check reads a fresh transaction's `min`.
fn pqueue_check<R>(
    check: Check,
    what: &str,
    q: &BoostedPQueue<i64>,
    call_kind: PQueueCall,
    call: impl FnOnce(&Txn) -> TxResult<R>,
) {
    let entry = q.conflict(call_kind);
    if let Check::BlockedUntouched = check {
        run_check(check, what, entry, || q.raw_len(), call);
    } else {
        let min = || TxnManager::default().run(|t| q.min(t)).unwrap();
        run_check(check, what, entry, min, call);
    }
}

fn pqueue_calls(check: Check) {
    for start in [None, Some(3)] {
        let fresh = || {
            let q = BoostedPQueue::<i64>::new();
            if let Some(k) = start {
                TxnManager::default().run(|t| q.add(t, k)).unwrap();
            }
            q
        };
        let what = format!("pqueue holding {start:?}");
        for key in [1, 5] {
            let q = fresh();
            pqueue_check(
                check,
                &format!("{what}: add {key}"),
                &q,
                PQueueCall::Add,
                |t| q.add(t, key),
            );
        }
        let q = fresh();
        pqueue_check(check, &format!("{what}: min"), &q, PQueueCall::Min, |t| {
            q.min(t)
        });
        let q = fresh();
        pqueue_check(
            check,
            &format!("{what}: remove_min"),
            &q,
            PQueueCall::RemoveMin,
            |t| q.remove_min(t),
        );
        // Fig. 11's mutex baseline takes what `remove_min` takes.
        let q = fresh();
        pqueue_check(
            check,
            &format!("{what}: exclusive_lock"),
            &q,
            PQueueCall::RemoveMin,
            |t| q.exclusive_lock(t),
        );
    }
}

#[test]
fn every_set_call_takes_exactly_its_table_entry() {
    set_calls(Check::ExactlyItsEntry);
}

#[test]
fn a_blocked_set_call_has_not_touched_the_base() {
    set_calls(Check::BlockedUntouched);
}

#[test]
fn an_aborted_set_call_leaves_the_set_unchanged() {
    set_calls(Check::AbortedUnchanged);
}

#[test]
fn every_map_call_takes_exactly_its_table_entry() {
    map_calls(Check::ExactlyItsEntry);
}

#[test]
fn a_blocked_map_call_has_not_touched_the_base() {
    map_calls(Check::BlockedUntouched);
}

#[test]
fn an_aborted_map_call_leaves_the_map_unchanged() {
    map_calls(Check::AbortedUnchanged);
}

#[test]
fn every_counter_call_takes_exactly_its_table_entry() {
    counter_calls(Check::ExactlyItsEntry);
}

#[test]
fn a_blocked_counter_call_has_not_touched_the_base() {
    counter_calls(Check::BlockedUntouched);
}

#[test]
fn an_aborted_counter_call_leaves_the_counter_unchanged() {
    counter_calls(Check::AbortedUnchanged);
}

#[test]
fn every_pqueue_call_takes_exactly_its_table_entry() {
    pqueue_calls(Check::ExactlyItsEntry);
}

#[test]
fn a_blocked_pqueue_call_has_not_touched_the_base() {
    pqueue_calls(Check::BlockedUntouched);
}

#[test]
fn an_aborted_pqueue_call_leaves_the_queue_unchanged() {
    pqueue_calls(Check::AbortedUnchanged);
}
