//! Rule 2 (Commutativity Isolation), checked against the code's own
//! conflict tables.
//!
//! Each boosted type states once, in its `conflict` function, which
//! lock word a call takes and in which mode. Two requests conflict when
//! they name the same word and are not both `Shared`. Rule 2 demands
//! that every pair of calls that do not commute conflict; conflicting
//! commuting pairs merely cost concurrency. This test enumerates calls
//! over a small state space, decides commutativity from the type's
//! sequential spec, and checks the first direction exhaustively. The
//! count of the second is each table's precision figure: printed, and
//! pinned as a ceiling, so a table that grows coarser fails here. A
//! change that makes a table finer lowers its ceiling with it.

use std::collections::BTreeSet;
use txboost_collections::{
    BoostedCounter, BoostedListSet, BoostedPQueue, BoostedRbTreeSet, BoostedSkipListSet,
    CounterCall, PQueueCall, SetCall,
};
use txboost_core::locks::{AbstractLock, Mode};
use txboost_model::spec::{CounterOp, PQueueOp, PQueueResp, SetOp};
use txboost_model::{calls_commute, Call, CounterSpec, PQueueSpec, SequentialSpec, SetSpec};

/// One row of a conflict table: a lock word and the mode it is taken in.
type Request<'o> = (&'o AbstractLock, Mode);

fn conflicting(a: Request<'_>, b: Request<'_>) -> bool {
    std::ptr::eq(a.0, b.0) && !(a.1 == Mode::Shared && b.1 == Mode::Shared)
}

/// Every ordered pair of `calls`: if it does not commute over `states`,
/// `table` must give it conflicting requests. Returns the number of
/// pairs and of commuting pairs that conflict anyway, prints both, and
/// requires the second to be at most `ceiling`.
fn audit<'o, S: SequentialSpec>(
    what: &str,
    spec: &S,
    states: &[S::State],
    calls: &[Call<S::Op, S::Resp>],
    ceiling: usize,
    table: impl Fn(&S::Op) -> Request<'o>,
) -> (usize, usize) {
    let (mut pairs, mut non_commuting, mut needless) = (0, 0, 0);
    for a in calls {
        for b in calls {
            pairs += 1;
            let conflict = conflicting(table(&a.op), table(&b.op));
            if calls_commute(spec, states.iter().cloned(), a, b) {
                needless += usize::from(conflict);
            } else {
                non_commuting += 1;
                assert!(
                    conflict,
                    "{what}: Rule 2 violated: {a:?} and {b:?} do not commute but do not conflict"
                );
            }
        }
    }
    assert!(non_commuting > 0, "{what}: vacuous audit");
    println!(
        "{what}: {pairs} pairs, {non_commuting} non-commuting (all conflict), \
         {needless} commuting but conflicting"
    );
    assert!(
        needless <= ceiling,
        "{what}: {needless} commuting pairs conflict, above the pinned {ceiling}"
    );
    (pairs, needless)
}

fn set_states() -> Vec<BTreeSet<i64>> {
    (0u32..8)
        .map(|mask| (0..3).filter(|k| mask & (1 << k) != 0).collect())
        .collect()
}

fn set_calls() -> Vec<Call<SetOp, bool>> {
    let mut out = Vec::new();
    for k in 0..3 {
        for resp in [false, true] {
            out.push(Call::new(SetOp::Add(k), resp));
            out.push(Call::new(SetOp::Remove(k), resp));
            out.push(Call::new(SetOp::Contains(k), resp));
        }
    }
    out
}

/// The model's set call as the boosted sets' table reads it.
fn set_call(op: &SetOp) -> SetCall<'_, i64> {
    match op {
        SetOp::Add(k) => SetCall::Add(k),
        SetOp::Remove(k) => SetCall::Remove(k),
        SetOp::Contains(k) => SetCall::Contains(k),
    }
}

#[test]
fn every_set_table_conflicts_on_every_non_commuting_pair() {
    let (states, calls) = (set_states(), set_calls());
    let (skiplist, list) = (BoostedSkipListSet::new(), BoostedListSet::new());
    let per_key = [
        audit(
            "skip-list set, lock per key",
            &SetSpec,
            &states,
            &calls,
            78,
            |op| skiplist.conflict(set_call(op)),
        ),
        audit(
            "list set, lock per key",
            &SetSpec,
            &states,
            &calls,
            78,
            |op| list.conflict(set_call(op)),
        ),
    ];
    for (pairs, needless) in per_key {
        // Per key, most of the universe stays concurrent.
        assert!(
            needless < pairs / 2,
            "lock per key serializes most of the universe: {needless}/{pairs}"
        );
    }
    let skiplist = BoostedSkipListSet::with_coarse_lock();
    let list = BoostedListSet::with_coarse_lock();
    let tree = BoostedRbTreeSet::with_coarse_lock();
    audit(
        "skip-list set, one lock",
        &SetSpec,
        &states,
        &calls,
        294,
        |op| skiplist.conflict(set_call(op)),
    );
    audit("list set, one lock", &SetSpec, &states, &calls, 294, |op| {
        list.conflict(set_call(op))
    });
    audit("red-black tree set", &SetSpec, &states, &calls, 294, |op| {
        tree.conflict(set_call(op))
    });
}

#[test]
fn the_pqueue_table_conflicts_on_every_non_commuting_pair() {
    // Multisets over {0, 1, 2} of at most two keys, as sorted vectors.
    let mut states = vec![vec![]];
    for a in 0..3 {
        states.push(vec![a]);
        for b in a..3 {
            states.push(vec![a, b]);
        }
    }
    let mut calls = Vec::new();
    for resp in [None, Some(0), Some(1), Some(2)] {
        calls.push(Call::new(PQueueOp::RemoveMin, PQueueResp::Key(resp)));
        calls.push(Call::new(PQueueOp::Min, PQueueResp::Key(resp)));
    }
    for k in 0..3 {
        calls.push(Call::new(PQueueOp::Add(k), PQueueResp::Unit));
    }
    let q = BoostedPQueue::<i64>::new();
    audit("pqueue", &PQueueSpec, &states, &calls, 79, |op| {
        q.conflict(match op {
            PQueueOp::Add(_) => PQueueCall::Add,
            PQueueOp::RemoveMin => PQueueCall::RemoveMin,
            PQueueOp::Min => PQueueCall::Min,
        })
    });
}

#[test]
fn the_counter_table_conflicts_on_every_non_commuting_pair() {
    let states: Vec<i64> = (-2..=2).collect();
    let mut calls: Vec<_> = (-1..=1)
        .map(|n| Call::new(CounterOp::Add(n), None))
        .collect();
    calls.extend((-2..=2).map(|v| Call::new(CounterOp::Get, Some(v))));
    let c = BoostedCounter::new();
    audit("counter", &CounterSpec, &states, &calls, 35, |op| {
        c.conflict(match op {
            CounterOp::Add(_) => CounterCall::Add,
            CounterOp::Get => CounterCall::Get,
        })
    });
}
