//! The executor's entry points are one transaction: whichever door a
//! script comes in by — `execute`, a one-request poll tick through
//! `Batcher::run_tick` (the server's own path), or `execute_read_only`
//! — the reply, the effects and the accounting are the same.
//!
//! A seeded stream of random scripts (every opcode, guards,
//! `DebugAbort`, empty semaphores, mutations inside read-only
//! scripts) is fed to two fresh executors: the first always
//! `execute`s, the second takes the other door whenever the script
//! qualifies for one.

use txboost_client::ScriptBuilder;
use txboost_core::TxnConfig;
use txboost_server::{Batcher, Executor, Namespace, ScriptOutcome};
use txboost_wire::{
    op_name, Guard, Op, OpResult, Request, Response, ScriptOp, ScriptStatus, NUM_OPCODES,
};

/// xorshift64*, so the stream needs no rand dependency.
struct Rng(u64);

impl Rng {
    fn below(&mut self, n: u64) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
    }
}

/// A random op with the given opcode (anything past the table is
/// `DebugAbort`) on `obj`, over eight keys.
fn gen_op(rng: &mut Rng, opcode: u64, obj: String) -> Op {
    let key = rng.below(8) as i64;
    match opcode {
        1 => Op::MapInsert {
            obj,
            key,
            val: rng.below(100) as i64,
        },
        2 => Op::MapRemove { obj, key },
        3 => Op::MapContains { obj, key },
        4 => Op::CounterAdd {
            obj,
            delta: key - 3,
        },
        5 => Op::CounterGet { obj },
        6 => Op::SemAcquire { obj },
        7 => Op::SemRelease { obj },
        8 => Op::IdGen { obj },
        9 => Op::PqAdd { obj, key },
        10 => Op::PqRemoveMin { obj },
        _ => Op::DebugAbort,
    }
}

/// One to four random ops over two names per object type, a third of
/// them guarded.
fn gen_script(rng: &mut Rng) -> Vec<ScriptOp> {
    const GUARDS: [Guard; 4] = [
        Guard::ExpectSome,
        Guard::ExpectNone,
        Guard::ExpectTrue,
        Guard::ExpectFalse,
    ];
    let ops = (0..=rng.below(4)).map(|_| {
        let (opcode, obj) = (1 + rng.below(11), format!("o{}", rng.below(2)));
        let op = gen_op(rng, opcode, obj);
        match rng.below(3) {
            0 => ScriptOp::guarded(op, GUARDS[rng.below(4) as usize]),
            _ => ScriptOp::new(op),
        }
    });
    ops.collect()
}

/// The number that follows the first `needle` in a `STATS` document.
fn number_after(json: &str, needle: &str) -> u64 {
    let (_, tail) = json.split_once(needle).expect(needle);
    let digits = tail.find(|c: char| !c.is_ascii_digit()).expect("a number");
    tail[..digits].parse().expect("a number")
}

/// Scripts finished per status, then samples recorded per opcode.
fn counters(e: &Executor) -> Vec<(&'static str, u64)> {
    let json = e.stats_json();
    let (_, scripts) = json.split_once("\"scripts\":{").expect("scripts section");
    let statuses = ScriptStatus::ALL.iter().map(ScriptStatus::name);
    let ops = (1..=NUM_OPCODES as u8).map(|opcode| op_name(opcode).expect("opcode table"));
    statuses
        .map(|name| (name, number_after(scripts, &format!("\"{name}\":"))))
        .chain(ops.map(|name| {
            (
                name,
                number_after(&json, &format!("\"{name}\":{{\"count\":")),
            )
        }))
        .collect()
}

/// Create every object the read-only `ops` name, as the locked door
/// does before op 0 of a script with more than one op: a snapshot read
/// creates its objects in op order, and none past a failed guard.
fn name_every_object(ns: &Namespace, ops: &[ScriptOp]) {
    for sop in ops {
        match &sop.op {
            Op::MapContains { obj, .. } => drop(ns.map(obj)),
            Op::CounterGet { obj } => drop(ns.counter(obj)),
            other => panic!("not a read: {other:?}"),
        }
    }
}

/// What a client is sent for a script's outcome.
fn reply(o: ScriptOutcome) -> Response {
    Response::Script {
        req_id: 0,
        status: o.status,
        attempts: o.attempts,
        failed_op: o.failed_op,
        results: o.results,
    }
}

/// Run `ops` as a poll tick of one request, the way an event loop does.
fn ticked(e: &Executor, ops: &[ScriptOp]) -> Response {
    let req = Request::Script {
        req_id: 0,
        ops: ops.to_vec(),
    };
    let mut replies = Vec::new();
    assert!(Batcher.run_tick(
        e,
        vec![((), req)],
        |other| panic!("a script reached `other`: {other:?}"),
        |(), resp| replies.push(resp),
    ));
    assert_eq!(replies.len(), 1, "one request, one reply");
    replies.remove(0)
}

#[test]
fn entry_points_agree_on_replies_state_and_counters() {
    // Semaphores start empty, so an acquire that no release preceded
    // answers WouldBlock.
    let fresh = || Executor::new(TxnConfig::default(), 0);
    let (a, b) = (fresh(), fresh());
    let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
    let (mut ticks, mut snapshots) = (0, 0);
    for i in 0..4000 {
        let ops = gen_script(&mut rng);
        // The one op a snapshot serves.
        let reads = |sop: &ScriptOp| matches!(sop.op, Op::MapContains { .. });
        let (ra, rb) = if i % 16 == 0 {
            // Declared read-only whatever it holds: a mutation is a
            // violation by this door and a commit by any other, so
            // both executors take it.
            (
                reply(a.execute_read_only(&ops)),
                reply(b.execute_read_only(&ops)),
            )
        } else if ops.iter().all(reads) {
            snapshots += 1;
            let (ra, rb) = (reply(a.execute(&ops)), reply(b.execute_read_only(&ops)));
            name_every_object(b.namespace(), &ops);
            (ra, rb)
        } else if i % 2 == 1 {
            ticks += 1;
            (reply(a.execute(&ops)), ticked(&b, &ops))
        } else {
            (reply(a.execute(&ops)), reply(b.execute(&ops)))
        };
        assert_eq!(ra, rb, "script {i}: {ops:?}");
    }
    assert!(ticks > 1000 && snapshots > 50, "{ticks} / {snapshots}");

    // Same accounting. Every status a lone executor can reach and
    // every opcode occurred (`DebugAbort` aborts before it is
    // sampled), and only the ticks were counted as ticks.
    assert_eq!(counters(&a), counters(&b));
    for (name, count) in counters(&a) {
        let unreachable = ["lock_timeout", "retries_exhausted", "debug_abort"];
        assert!(
            count > 0 || unreachable.contains(&name),
            "{name} never occurred"
        );
    }
    let batches = |e: &Executor| number_after(&e.stats_json(), "\"batch\":{\"batches\":");
    assert_eq!((batches(&a), batches(&b)), (0, ticks));

    // Same final state, read back destructively through one door:
    // maps and counters, the next id, the queues drained.
    let (na, nb) = (a.namespace(), b.namespace());
    assert_eq!(na.object_counts(), nb.object_counts());
    for obj in ["o0", "o1"] {
        assert_eq!(na.sem(obj).available(), nb.sem(obj).available());
        let mut probe = ScriptBuilder::new().counter_get(obj).id_gen(obj);
        for key in 0..8 {
            probe = probe.map_remove(obj, key);
        }
        let probe = probe.build();
        assert_eq!(reply(a.execute(&probe)), reply(b.execute(&probe)));
        loop {
            let pop = ScriptBuilder::new().pq_remove_min(obj).build();
            let (ra, rb) = (a.execute(&pop), b.execute(&pop));
            assert_eq!(ra.results, rb.results);
            if ra.results == [OpResult::Value(None)] {
                break;
            }
        }
    }
}
