//! Server scripts are deadlock-free by construction, swept under the
//! deterministic scheduler.
//!
//! Two logical threads run, through `Executor::execute`, the three
//! script shapes that deadlock when their locks are taken in program
//! order:
//!
//! * opposite-order guarded transfers between two map keys (the AB/BA
//!   cycle);
//! * `pq_add` then `pq_remove_min` on one queue (two shared holders
//!   both upgrading to exclusive);
//! * `counter_add` then `counter_get` on one counter (the same
//!   upgrade).
//!
//! A locked script takes its whole footprint up front, in address
//! order and at the strongest mode any op asks for, so on every seed
//! each script commits or fails its guard in one attempt, no lock wait
//! times out — the executor's waits have no deadline, so a cycle would
//! overrun the harness instead — and tokens are conserved. The staged
//! mutation runs the same scripts in program order through a library
//! `TxnManager` whose lock waits also have no deadline: that must
//! deadlock, and overrun `MAX_STEPS`, on at least one seed.
//!
//! `DET_SEEDS` / `DET_SWEEP_SEED` scale and shift the sweep.

use std::sync::atomic::{AtomicI64, Ordering};
use std::time::Duration;
use transactional_boosting::prelude::*;
use txboost_server::Executor;
use txboost_wire::{Guard, Op, OpResult, ScriptOp, ScriptStatus};

const THREADS: usize = 2;
/// Times each thread runs its three scripts.
const ROUNDS: usize = 2;
/// The two map keys the transfers cross (distinct lock slots).
const KEYS: [i64; 2] = [0, 1];
const TOKEN: i64 = 7;

/// Odd seeds start with both cells occupied, so both transfers pass
/// their first guard: the shape that deadlocks in program order. Even
/// seeds start with one token, so transfers commit.
fn tokens_at_start(seed: u64) -> usize {
    1 + (seed % 2) as usize
}

/// Thread `tid`'s scripts for one round: a transfer from its own key
/// to the other's, then the two upgrade shapes.
fn scripts(tid: usize) -> [Vec<ScriptOp>; 3] {
    let (from, to) = (KEYS[tid], KEYS[1 - tid]);
    let bank = || "bank".to_string();
    [
        vec![
            ScriptOp::guarded(
                Op::MapRemove {
                    obj: bank(),
                    key: from,
                },
                Guard::ExpectSome,
            ),
            ScriptOp::guarded(
                Op::MapInsert {
                    obj: bank(),
                    key: to,
                    val: TOKEN,
                },
                Guard::ExpectNone,
            ),
        ],
        vec![
            ScriptOp::new(Op::PqAdd {
                obj: "q".into(),
                key: tid as i64,
            }),
            ScriptOp::new(Op::PqRemoveMin { obj: "q".into() }),
        ],
        vec![
            ScriptOp::new(Op::CounterAdd {
                obj: "c".into(),
                delta: 1,
            }),
            ScriptOp::new(Op::CounterGet { obj: "c".into() }),
        ],
    ]
}

/// The number that follows `"key":` in a `STATS` document.
fn stat(json: &str, key: &str) -> u64 {
    let needle = format!("\"{key}\":");
    let (_, tail) = json.split_once(&needle).expect(key);
    let digits = tail.find(|c: char| !c.is_ascii_digit()).expect("a number");
    tail[..digits].parse().expect("a number")
}

#[test]
fn footprint_scripts_never_deadlock_or_time_out() {
    struct W {
        exec: Executor,
        /// Counter adds committed.
        adds: AtomicI64,
    }
    for seed in txboost_sched::seeds_from_env(200) {
        let w = W {
            exec: Executor::new(TxnConfig::default(), 4),
            adds: AtomicI64::new(0),
        };
        for &key in &KEYS[..tokens_at_start(seed)] {
            let seeded = w.exec.execute(&[ScriptOp::new(Op::MapInsert {
                obj: "bank".into(),
                key,
                val: TOKEN,
            })]);
            assert_eq!(seeded.status, ScriptStatus::Committed);
        }
        let report = txboost_sched::run_with_seed(seed, THREADS, |tid| {
            for _ in 0..ROUNDS {
                for ops in scripts(tid) {
                    let out = w.exec.execute(&ops);
                    assert_eq!(out.attempts, 1, "{ops:?}");
                    match out.status {
                        ScriptStatus::Committed => {}
                        // Only a transfer is guarded.
                        ScriptStatus::GuardFailed => assert_eq!(ops.len(), 2),
                        other => panic!("{ops:?} answered {other:?}"),
                    }
                    if let Op::PqAdd { .. } = ops[0].op {
                        assert!(
                            matches!(out.results[..], [OpResult::Unit, OpResult::Value(Some(_))]),
                            "{:?}",
                            out.results
                        );
                    }
                    if let Op::CounterAdd { .. } = ops[0].op {
                        w.adds.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });
        assert!(!report.failed(), "{}", report.render_failure());

        let json = w.exec.stats_json();
        assert_eq!(stat(&json, "lock_timeouts"), 0, "seed {seed}: {json}");
        // Conservation: the transfers moved tokens, never made or lost
        // one; every add taken back out of the queue; every counter add
        // counted.
        let probe: Vec<ScriptOp> = KEYS
            .iter()
            .map(|&key| {
                ScriptOp::new(Op::MapContains {
                    obj: "bank".into(),
                    key,
                })
            })
            .chain([
                ScriptOp::new(Op::PqRemoveMin { obj: "q".into() }),
                ScriptOp::new(Op::CounterGet { obj: "c".into() }),
            ])
            .collect();
        let out = w.exec.execute(&probe);
        let occupied = out.results[..2]
            .iter()
            .filter(|r| **r == OpResult::Bool(true))
            .count();
        assert_eq!(occupied, tokens_at_start(seed), "seed {seed}");
        let adds = w.adds.load(Ordering::Relaxed);
        assert_eq!(
            out.results[2..],
            [OpResult::Value(None), OpResult::Value(Some(adds))],
            "seed {seed}"
        );
    }
}

/// The same scripts on library objects, each op taking its own lock
/// when it runs — program order, the paper's discipline — through a
/// manager whose lock waits never time out.
struct ProgramOrder {
    tm: TxnManager,
    bank: BoostedHashMap<i64, i64>,
    q: BoostedPQueue<i64>,
    c: BoostedCounter,
}

impl ProgramOrder {
    fn new(tokens: usize) -> Self {
        let w = ProgramOrder {
            tm: TxnManager::new(TxnConfig {
                lock_timeout: Duration::MAX,
                ..TxnConfig::default()
            }),
            bank: BoostedHashMap::new(),
            q: BoostedPQueue::new(),
            c: BoostedCounter::new(),
        };
        for &key in &KEYS[..tokens] {
            w.tm.run(|t| w.bank.put(t, key, TOKEN)).unwrap();
        }
        w
    }

    fn run(&self, ops: &[ScriptOp]) {
        let txn = self.tm.begin();
        for sop in ops {
            let result = match &sop.op {
                Op::MapRemove { key, .. } => OpResult::Value(self.bank.remove(&txn, key).unwrap()),
                Op::MapInsert { key, val, .. } => {
                    OpResult::Value(self.bank.put(&txn, *key, *val).unwrap())
                }
                Op::PqAdd { key, .. } => {
                    self.q.add(&txn, *key).unwrap();
                    OpResult::Unit
                }
                Op::PqRemoveMin { .. } => OpResult::Value(self.q.remove_min(&txn).unwrap()),
                Op::CounterAdd { delta, .. } => {
                    self.c.add(&txn, *delta).unwrap();
                    OpResult::Unit
                }
                Op::CounterGet { .. } => OpResult::Value(Some(self.c.get(&txn).unwrap())),
                other => panic!("no such op in these scripts: {other:?}"),
            };
            if !sop.guard.admits(&result) {
                self.tm.abort(txn, AbortReason::Explicit);
                return;
            }
        }
        self.tm.commit(txn);
    }
}

#[test]
fn the_same_scripts_in_program_order_deadlock() {
    let deadlocked = txboost_sched::seeds_from_env(200).find(|&seed| {
        let w = ProgramOrder::new(tokens_at_start(seed));
        let report = txboost_sched::run_with_seed(seed, THREADS, |tid| {
            for _ in 0..ROUNDS {
                for ops in scripts(tid) {
                    w.run(&ops);
                }
            }
        });
        report.overran
    });
    assert!(
        deadlocked.is_some(),
        "no seed deadlocked: the sweep above would not notice a lost footprint"
    );
}
