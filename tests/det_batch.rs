//! Deterministic sweep over poll ticks.
//!
//! Two logical event loops share one executor. Each loop pumps poll
//! ticks through [`Batcher::run_tick`] over an interleaved
//! multi-connection request stream — scripts run one transaction each,
//! with a ping between them — and the scheduler interleaves one loop's
//! transactions with the other's at every lock, undo and commit yield
//! point. Per (seed, schedule) the sweep asserts:
//!
//! * **per-connection FIFO** — every connection's replies carry its
//!   request ids in send order;
//! * **exactly one reply per request** — a tick never drops or
//!   duplicates an acknowledgement;
//! * **conservation** — the shared counter equals the number of
//!   committed adds, and `STATS` counts every tick and every script it
//!   ran;
//! * **drain completeness** — a tick queue handed to `run_tick` at
//!   drain time is executed and replied in full: `run_tick` consumes
//!   the whole queue before returning, so a graceful drain cannot
//!   strand a decoded request.
//!
//! `DET_SEEDS` / `DET_SWEEP_SEED` scale the sweep in CI exactly like
//! the other deterministic suites.

use std::sync::atomic::{AtomicU64, Ordering};
use txboost_core::TxnConfig;
use txboost_sched::core_det as det;
use txboost_server::{Batcher, Executor};
use txboost_wire::{Op, OpResult, Request, Response, ScriptOp, ScriptStatus};

/// Logical event loops sharing the executor.
const LOOPS: usize = 2;
/// Connections multiplexed per loop.
const CONNS: usize = 2;
/// Poll ticks each loop runs.
const TICKS: usize = 2;
/// Requests per connection per tick (one of them a ping).
const PER_CONN: usize = 3;
/// Scripts per tick: every request but the one ping.
const SCRIPTS_PER_TICK: u64 = (CONNS * PER_CONN - 1) as u64;

fn exec() -> Executor {
    Executor::new(TxnConfig::default(), 4)
}

fn add_one() -> Vec<ScriptOp> {
    vec![ScriptOp::new(Op::CounterAdd {
        obj: "total".into(),
        delta: 1,
    })]
}

/// Serve one request the way the event loop's `other` closure does.
fn serve_other(exec: &Executor, req: Request) -> Response {
    match req {
        Request::Ping { req_id } => Response::Pong { req_id },
        Request::Script { req_id, ops } => {
            let out = exec.execute(&ops);
            Response::Script {
                req_id,
                status: out.status,
                attempts: out.attempts,
                failed_op: out.failed_op,
                results: out.results,
            }
        }
        _ => Response::Pong { req_id: 0 },
    }
}

/// One loop-tick's interleaved request stream: connections round-robin
/// their pipelines, so consecutive requests usually belong to
/// different connections — the tick must still reply per-connection
/// FIFO. Request ids encode the per-connection sequence number.
fn tick_requests(tick: usize) -> Vec<(usize, Request)> {
    let mut reqs = Vec::new();
    for seq in 0..PER_CONN {
        for conn in 0..CONNS {
            let req_id = (tick * PER_CONN + seq) as u64;
            let req = if seq == 1 && conn == 0 {
                // Served by the caller, between two scripts.
                Request::Ping { req_id }
            } else {
                Request::Script {
                    req_id,
                    ops: add_one(),
                }
            };
            reqs.push((conn, req));
        }
    }
    reqs
}

/// Run one loop's ticks, asserting reply-order invariants locally and
/// accumulating commits into `committed`.
fn pump_loop(exec: &Executor, committed: &AtomicU64) {
    for tick in 0..TICKS {
        det::yield_point(det::Point::User);
        let reqs = tick_requests(tick);
        let expect = reqs.len();
        let mut replies: Vec<(usize, u64)> = Vec::new();
        Batcher.run_tick(
            exec,
            reqs,
            |req| serve_other(exec, req),
            |conn, resp| {
                let req_id = match resp {
                    Response::Script { req_id, status, .. } => {
                        assert_eq!(status, ScriptStatus::Committed, "script must commit");
                        committed.fetch_add(1, Ordering::Relaxed);
                        req_id
                    }
                    Response::Pong { req_id } => req_id,
                    other => panic!("unexpected reply {other:?}"),
                };
                replies.push((conn, req_id));
            },
        );
        assert_eq!(replies.len(), expect, "one reply per request");
        for conn in 0..CONNS {
            let ids: Vec<u64> = replies
                .iter()
                .filter(|(c, _)| *c == conn)
                .map(|&(_, id)| id)
                .collect();
            assert_eq!(ids.len(), PER_CONN, "conn {conn} reply count");
            assert!(
                ids.windows(2).all(|w| w[0] < w[1]),
                "conn {conn} replies out of FIFO order: {ids:?}"
            );
        }
    }
}

#[test]
fn batched_ticks_preserve_fifo_and_conservation() {
    for seed in txboost_sched::seeds_from_env(12) {
        let e = exec();
        let committed = AtomicU64::new(0);
        let report = txboost_sched::run_with_seed(seed, LOOPS, |_tid| {
            pump_loop(&e, &committed);
        });
        assert!(!report.failed(), "seed {seed}: {}", report.render_failure());

        let probe = e.execute(&[ScriptOp::new(Op::CounterGet {
            obj: "total".into(),
        })]);
        let total = i64::try_from(committed.load(Ordering::Relaxed)).expect("fits");
        assert_eq!(
            probe.results,
            vec![OpResult::Value(Some(total))],
            "seed {seed}: counter must equal committed adds"
        );
        // Every tick of both loops ran its scripts.
        let ticks = (LOOPS * TICKS) as u64;
        let batch = format!(
            "\"batch\":{{\"batches\":{ticks},\"scripts\":{},\"fallbacks\":0}}",
            ticks * SCRIPTS_PER_TICK
        );
        let json = e.stats_json();
        assert!(json.contains(&batch), "seed {seed}: {json}");
    }
}

/// Drain: the event loop hands its final decoded tick queue to
/// `run_tick` after the shutdown flag is observed. Everything decoded
/// must execute and reply before the connection closes; the scheduler
/// interleaves the other loop's traffic with the tick's transactions.
#[test]
fn drain_tick_with_sealed_batch_executes_everything() {
    for seed in txboost_sched::seeds_from_env(8) {
        let e = exec();
        let committed = AtomicU64::new(0);
        let drained = AtomicU64::new(0);
        let report = txboost_sched::run_with_seed(seed, LOOPS, |tid| {
            if tid == 0 {
                // The draining loop: its last tick queue (already
                // decoded when shutdown was observed) still runs.
                det::yield_point(det::Point::User);
                let reqs = tick_requests(0);
                let expect = reqs.len();
                let mut got = 0u64;
                Batcher.run_tick(
                    &e,
                    reqs,
                    |req| serve_other(&e, req),
                    |_conn, resp| {
                        if let Response::Script { status, .. } = resp {
                            assert_eq!(status, ScriptStatus::Committed);
                            committed.fetch_add(1, Ordering::Relaxed);
                        }
                        got += 1;
                    },
                );
                assert_eq!(got, expect as u64, "drain stranded replies");
                drained.fetch_add(1, Ordering::Relaxed);
            } else {
                // Background load racing the drain.
                for _ in 0..3 {
                    det::yield_point(det::Point::User);
                    let out = e.execute(&add_one());
                    if out.status == ScriptStatus::Committed {
                        committed.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });
        assert!(!report.failed(), "seed {seed}: {}", report.render_failure());
        assert_eq!(drained.load(Ordering::Relaxed), 1);

        let probe = e.execute(&[ScriptOp::new(Op::CounterGet {
            obj: "total".into(),
        })]);
        let total = i64::try_from(committed.load(Ordering::Relaxed)).expect("fits");
        assert_eq!(probe.results, vec![OpResult::Value(Some(total))]);
        // The drain tick is the one tick; the background load ran
        // outside any.
        let batch = format!("\"batch\":{{\"batches\":1,\"scripts\":{SCRIPTS_PER_TICK},");
        assert!(e.stats_json().contains(&batch), "seed {seed}");
    }
}
