//! The poll tick: one readiness round's requests, run in arrival order,
//! acknowledged after one durability wait.
//!
//! Every request that arrived in one `epoll_wait` round is known before
//! any of them executes. [`Batcher::run_tick`] runs them in arrival
//! order: each `Script` as its own boosted transaction, anything else
//! through the caller. A connection's pipelined requests therefore
//! execute — and reply — in program order.
//!
//! ## One durability wait per tick
//!
//! The tick is also the unit of acknowledgement, and the only thing
//! that waits for the log. No transaction of the tick blocks on its
//! commit record; each seals it into the log's pending buffer, and
//! [`Batcher::run_tick`] waits once, after the last request, until the
//! log covers the newest record enqueued before the wait — the tick's
//! own and any other loop's. A reply can show another loop's commit (a
//! locked read after that loop released its locks, or a snapshot read),
//! so waiting only for the tick's own records could acknowledge a read
//! of a commit a crash then loses. With nobody else flushing, the wait
//! *leads*: the loop thread itself writes the pending records in one
//! `write` and makes them durable with one `fsync`. `run_tick` returns
//! `true` — and only then are replies flushed — once that holds. It
//! returns `false` when the log refused a record of the tick or storage
//! failed: the tick's commits stand in memory but must not be
//! acknowledged, and the server stops (see DESIGN §13).

use crate::exec::{Executor, ScriptOutcome, TickRecords};
use txboost_wire::{Guard, Op, Request, Response, ScriptOp, MAX_OPS_PER_SCRIPT};

/// The tick driver's knobs: there are none. Kept because the
/// `benchmark/` harness still builds a [`Batcher`] from one.
#[derive(Debug, Clone, Default)]
pub struct BatchConfig;

/// Whether a script is non-empty, single-object, guard-free and free of
/// ops that can abort on their own. Nothing on the server asks any
/// more; kept because the `benchmark/` harness still prices it.
#[must_use]
pub fn batch_eligible(ops: &[ScriptOp]) -> bool {
    ops.first().and_then(op_target).is_some_and(|first| {
        ops.len() <= MAX_OPS_PER_SCRIPT as usize
            && ops.iter().all(|sop| {
                matches!(sop.guard, Guard::None)
                    && !matches!(sop.op, Op::SemAcquire { .. })
                    && op_target(sop) == Some(first)
            })
    })
}

/// Which object instance an op addresses: `(type, name)`; `None` for
/// `DebugAbort`.
fn op_target(sop: &ScriptOp) -> Option<(&'static str, &str)> {
    match &sop.op {
        Op::MapInsert { obj, .. } | Op::MapRemove { obj, .. } | Op::MapContains { obj, .. } => {
            Some(("map", obj))
        }
        Op::CounterAdd { obj, .. } | Op::CounterGet { obj } => Some(("counter", obj)),
        Op::SemAcquire { obj } | Op::SemRelease { obj } => Some(("sem", obj)),
        Op::IdGen { obj } => Some(("idgen", obj)),
        Op::PqAdd { obj, .. } | Op::PqRemoveMin { obj } => Some(("pq", obj)),
        Op::DebugAbort => None,
    }
}

/// Shape a [`ScriptOutcome`] into its wire reply.
pub(crate) fn script_response(req_id: u64, out: ScriptOutcome) -> Response {
    Response::Script {
        req_id,
        status: out.status,
        attempts: out.attempts,
        failed_op: out.failed_op,
        results: out.results,
    }
}

/// Runs poll ticks. Stateless: [`Batcher::run_tick`] consumes the whole
/// tick queue before returning, so a graceful drain never strands a
/// decoded request.
#[derive(Debug)]
pub struct Batcher;

impl Batcher {
    /// The tick driver. Kept, with its argument, because the
    /// `benchmark/` harness still calls it; the server uses [`Batcher`].
    #[must_use]
    pub fn new(_cfg: BatchConfig) -> Batcher {
        Batcher
    }

    /// Execute one poll tick's requests in arrival order.
    ///
    /// Every `Script` runs as its own transaction and any other request
    /// is handed to `other`, which computes its reply. All replies flow
    /// through `emit(token, response)` in arrival order — per-connection
    /// FIFO is the caller's invariant to keep, and it follows directly
    /// from emission order here.
    ///
    /// A reply is emitted when its transaction has committed, which
    /// under a WAL is before the commit record is durable; every record
    /// enqueued before the tick's end is awaited once, before this
    /// returns. The caller must not let an emitted reply out before
    /// then (the event loop flushes after the tick) — and not at all
    /// when this returns `false`: some commit the tick's replies may
    /// show is not durable and never will be (the log failed, or was
    /// shut down under the tick).
    pub fn run_tick<T>(
        &self,
        exec: &Executor,
        requests: Vec<(T, Request)>,
        mut other: impl FnMut(Request) -> Response,
        mut emit: impl FnMut(T, Response),
    ) -> bool {
        let mut records = TickRecords::default();
        let mut scripts = 0;
        for (token, req) in requests {
            let resp = match req {
                Request::Script { req_id, ops } => {
                    scripts += 1;
                    script_response(req_id, exec.run_in_tick(&ops, &mut records))
                }
                req => other(req),
            };
            emit(token, resp);
        }
        exec.count_tick(scripts);
        records.wait(exec)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use txboost_client::ScriptBuilder;
    use txboost_core::TxnConfig;
    use txboost_wal::{GroupCommitWal, SimStorage, Storage, WalConfig};
    use txboost_wire::{OpResult, ScriptStatus};

    fn exec() -> Executor {
        Executor::new(TxnConfig::default(), 4)
    }

    fn script() -> ScriptBuilder {
        ScriptBuilder::new()
    }

    fn add(obj: &str, delta: i64) -> Vec<ScriptOp> {
        script().counter_add(obj, delta).build()
    }

    #[test]
    fn eligibility_rules() {
        assert!(batch_eligible(&add("c", 1)));
        assert!(batch_eligible(
            &script().counter_add("c", 1).counter_get("c").build()
        ));
        // Empty, guarded, aborting, multi-object, cross-type: all out.
        assert!(!batch_eligible(&[]));
        let guarded = script().map_remove_guarded("m", 1, Guard::ExpectSome);
        assert!(!batch_eligible(&guarded.build()));
        assert!(!batch_eligible(&script().debug_abort().build()));
        assert!(!batch_eligible(&script().sem_acquire("s").build()));
        let two_objects = script().counter_add("a", 1).counter_add("b", 1);
        assert!(!batch_eligible(&two_objects.build()));
        let two_types = script().counter_add("x", 1).map_insert("x", 1, 1);
        assert!(!batch_eligible(&two_types.build()));
    }

    fn locked(req_id: u64, ops: Vec<ScriptOp>) -> Request {
        Request::Script { req_id, ops }
    }

    /// Serve a tick's non-script requests: pings, and snapshot reads.
    fn other(e: &Executor, req: Request) -> Response {
        match req {
            Request::Ping { req_id } => Response::Pong { req_id },
            Request::ReadOnlyScript { req_id, ops } => {
                script_response(req_id, e.execute_read_only(&ops))
            }
            _ => Response::Pong { req_id: 0 },
        }
    }

    #[test]
    fn run_tick_batches_and_preserves_arrival_order() {
        let e = exec();
        let reqs = vec![
            (0, locked(10, add("c", 1))),
            (1, locked(11, add("c", 2))),
            (0, Request::Ping { req_id: 12 }),
            (1, locked(13, add("c", 4))),
        ];
        let mut replies: Vec<(usize, u64)> = Vec::new();
        Batcher.run_tick(
            &e,
            reqs,
            |req| other(&e, req),
            |token, resp| {
                let id = match resp {
                    Response::Script { req_id, status, .. } => {
                        assert_eq!(status, ScriptStatus::Committed);
                        req_id
                    }
                    Response::Pong { req_id } => req_id,
                    _ => 0,
                };
                replies.push((token, id));
            },
        );
        assert_eq!(replies, vec![(0, 10), (1, 11), (0, 12), (1, 13)]);
        let probe = e.execute(&script().counter_get("c").build());
        assert_eq!(probe.results, vec![OpResult::Value(Some(7))]);
    }

    /// The `batch` object of the `STATS` document, as written.
    fn batch_stats(e: &Executor) -> String {
        let json = e.stats_json();
        let (_, tail) = json.split_once("\"batch\":").expect("batch section");
        tail[..=tail.find('}').expect("closing brace")].to_string()
    }

    #[test]
    fn batch_stats_count_ticks_and_their_locked_scripts() {
        let e = exec();
        let snapshot = |req_id| Request::ReadOnlyScript {
            req_id,
            ops: script().map_contains("m", 1).build(),
        };
        let tick = |reqs: Vec<Request>| {
            let reqs = reqs.into_iter().map(|req| ((), req)).collect();
            assert!(Batcher.run_tick(&e, reqs, |req| other(&e, req), |(), _| {}));
        };
        let counted = |batches: u64, scripts: u64| {
            format!(r#"{{"batches":{batches},"scripts":{scripts},"fallbacks":0}}"#)
        };
        // Two locked scripts, one of which fails its guard; a ping and
        // a snapshot read are not locked scripts.
        let guarded = script().map_remove_guarded("m", 1, Guard::ExpectSome);
        let ping = Request::Ping { req_id: 1 };
        tick(vec![
            locked(0, add("c", 1)),
            ping,
            snapshot(2),
            locked(3, guarded.build()),
        ]);
        assert_eq!(batch_stats(&e), counted(1, 2));
        // A tick without a locked script is not counted at all.
        tick(vec![Request::Ping { req_id: 4 }, snapshot(5)]);
        assert_eq!(batch_stats(&e), counted(1, 2));
        tick(vec![locked(6, add("c", 2))]);
        assert_eq!(batch_stats(&e), counted(2, 3));
        // Scripts run outside a tick are not either.
        e.execute(&add("c", 4));
        assert_eq!(batch_stats(&e), counted(2, 3));
    }

    /// An executor logging to a fresh WAL over simulated storage.
    fn exec_with_wal() -> (Executor, Arc<GroupCommitWal>, Arc<SimStorage>) {
        let storage = Arc::new(SimStorage::new(0));
        let wal = GroupCommitWal::new(
            Arc::clone(&storage) as Arc<dyn Storage>,
            &WalConfig::default(),
            1,
            Arc::new(txboost_core::DurabilityMetrics::new()),
        );
        let (e, wal) = (exec(), Arc::new(wal.unwrap()));
        e.attach_wal(Arc::clone(&wal));
        (e, wal, storage)
    }

    /// Run `scripts` as one tick; `(replies emitted, tick durable)`.
    fn tick(e: &Executor, scripts: Vec<Vec<ScriptOp>>) -> (usize, bool) {
        let reqs = scripts.into_iter().enumerate();
        let reqs = reqs.map(|(i, ops)| (i, locked(i as u64, ops)));
        let mut emitted = 0;
        let durable = Batcher.run_tick(
            e,
            reqs.collect(),
            |_| Response::Pong { req_id: 0 },
            |_, _| emitted += 1,
        );
        (emitted, durable)
    }

    #[test]
    fn a_tick_waits_once_for_all_its_commit_records() {
        // Nobody pumps the log: the tick leads its own flush.
        let (e, wal, _storage) = exec_with_wal();
        let scripts = vec![
            add("c", 1),
            add("c", 2),
            script()
                .map_insert_guarded("m", 1, 1, Guard::ExpectNone)
                .build(),
            script().counter_add("a", 1).counter_add("b", 1).build(),
        ];
        assert_eq!(tick(&e, scripts), (4, true));
        assert_eq!(wal.next_lsn(), 5);
        // One record per script. A transaction that waited on its own
        // record would have paid a write and an fsync each; the tick
        // paid one of either.
        let m = wal.metrics().snapshot();
        assert_eq!((m.records, m.batches, m.append.count()), (4, 1, 1));
    }

    #[test]
    fn a_tick_that_is_not_durable_says_so_and_so_does_the_next() {
        let (e, wal, storage) = exec_with_wal();
        assert_eq!(tick(&e, vec![add("c", 1)]), (1, true));
        // The tick's one write fails. Its scripts ran and its replies
        // were emitted, but the caller is told not to send them.
        storage.arm_kill(storage.op_count() + 1);
        let guarded = script().map_insert_guarded("m", 1, 1, Guard::ExpectNone);
        assert_eq!(tick(&e, vec![add("c", 2), guarded.build()]), (2, false));
        // The log stays failed once storage is back: the next tick's
        // record is refused, and nothing is written past the gap.
        storage.reboot();
        assert_eq!(tick(&e, vec![add("c", 4)]), (1, false));
        assert_eq!(storage.op_count(), 0);
        assert_eq!(wal.metrics().snapshot().wal_errors, 1);
        // A tick that logs nothing still reads commits the log lost, so
        // it is not durable either.
        assert_eq!(
            tick(&e, vec![script().counter_get("c").build()]),
            (1, false)
        );
    }

    #[test]
    fn a_tick_that_logs_nothing_waits_for_what_it_may_have_read() {
        // Another loop's commit sits in the log's pending buffer.
        let (e, wal, _storage) = exec_with_wal();
        e.execute(&script().map_insert("m", 1, 5).build());
        assert_eq!(wal.metrics().snapshot().records, 0);
        // A tick that only reads it (locked, or from a snapshot) writes
        // it before replying.
        let read = script().map_contains("m", 1).build();
        let reqs = vec![
            (0, locked(0, read.clone())),
            (
                1,
                Request::ReadOnlyScript {
                    req_id: 1,
                    ops: read,
                },
            ),
        ];
        let mut seen = Vec::new();
        let durable = Batcher.run_tick(&e, reqs, |req| other(&e, req), |_, resp| seen.push(resp));
        assert!(durable);
        assert_eq!(wal.metrics().snapshot().records, 1);
        for resp in seen {
            let Response::Script { results, .. } = resp else {
                panic!("{resp:?}")
            };
            assert_eq!(results, vec![OpResult::Bool(true)]);
        }
    }
}
