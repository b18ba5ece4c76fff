//! No drift between a boosted type's conflict table and its methods.
//! Each transactional call, made by a fresh transaction, leaves it
//! holding exactly one abstract lock. That lock is the word the type's
//! `conflict` function names for the call, held in the mode it names.
//! A method that took anything its table does not declare, or
//! acquired around its table, fails here.

use std::sync::Arc;
use txboost_collections::{
    BoostedCounter, BoostedHashMap, BoostedListSet, BoostedPQueue, BoostedRbTreeSet,
    BoostedSkipListSet, CounterCall, MapCall, PQueueCall, SetCall,
};
use txboost_core::locks::{AbstractLock, Mode};
use txboost_core::{TxResult, Txn, TxnManager};

/// Run `call` in a fresh transaction and check that, before it commits,
/// it holds exactly `request`: one lock, the table's word, in the
/// table's mode.
fn takes_exactly<R>(
    what: &str,
    request: (&Arc<AbstractLock>, Mode),
    call: impl FnOnce(&Txn) -> TxResult<R>,
) {
    let tm = TxnManager::default();
    let txn = tm.begin();
    call(&txn).unwrap();
    assert_eq!(txn.held_lock_count(), 1, "{what}: one lock");
    let (lock, mode) = request;
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

macro_rules! check_set {
    ($what:expr, $set:expr) => {{
        let s = $set;
        let what = $what;
        takes_exactly(&format!("{what} add"), s.conflict(SetCall::Add(&1)), |t| {
            s.add(t, 1)
        });
        takes_exactly(
            &format!("{what} contains"),
            s.conflict(SetCall::Contains(&1)),
            |t| s.contains(t, &1),
        );
        takes_exactly(
            &format!("{what} remove"),
            s.conflict(SetCall::Remove(&1)),
            |t| s.remove(t, &1),
        );
    }};
}

#[test]
fn every_set_call_takes_exactly_its_table_entry() {
    check_set!("skip-list set per key", BoostedSkipListSet::<i64>::new());
    check_set!(
        "skip-list set one lock",
        BoostedSkipListSet::<i64>::with_coarse_lock()
    );
    check_set!("list set per key", BoostedListSet::<i64>::new());
    check_set!(
        "list set one lock",
        BoostedListSet::<i64>::with_coarse_lock()
    );
    check_set!("red-black tree set", BoostedRbTreeSet::<i64>::new());
}

#[test]
fn every_map_call_takes_exactly_its_table_entry() {
    let m = BoostedHashMap::<i64, i64>::new();
    takes_exactly("put", m.conflict(MapCall::Put(&1)), |t| m.put(t, 1, 10));
    takes_exactly("get", m.conflict(MapCall::Get(&1)), |t| m.get(t, &1));
    takes_exactly("contains_key", m.conflict(MapCall::ContainsKey(&1)), |t| {
        m.contains_key(t, &1)
    });
    takes_exactly("remove", m.conflict(MapCall::Remove(&1)), |t| {
        m.remove(t, &1)
    });
}

#[test]
fn every_counter_call_takes_exactly_its_table_entry() {
    let c = BoostedCounter::new();
    takes_exactly("add", c.conflict(CounterCall::Add), |t| c.add(t, 1));
    takes_exactly("get", c.conflict(CounterCall::Get), |t| c.get(t));
}

#[test]
fn every_pqueue_call_takes_exactly_its_table_entry() {
    let q = BoostedPQueue::<i64>::new();
    takes_exactly("add", q.conflict(PQueueCall::Add), |t| q.add(t, 1));
    takes_exactly("min", q.conflict(PQueueCall::Min), |t| q.min(t));
    takes_exactly("remove_min", q.conflict(PQueueCall::RemoveMin), |t| {
        q.remove_min(t)
    });
    // Fig. 11's mutex baseline takes what `remove_min` takes.
    takes_exactly("exclusive_lock", q.conflict(PQueueCall::RemoveMin), |t| {
        q.exclusive_lock(t)
    });
}
