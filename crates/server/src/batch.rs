//! Same-tick commit batching.
//!
//! The paper's constant factor lives in abstract-lock traffic: every
//! script pays a lock-manager entry and a WAL commit record,
//! even when consecutive scripts touch the *same* object with
//! commuting operations. Readiness-driven I/O hands us a natural
//! amortization unit — the poll tick: every script that arrived in one
//! `epoll_wait` round is known before any of them executes. The
//! batcher coalesces eligible runs of those scripts into one joint
//! boosted transaction ([`crate::Executor::execute_batch`]): one pass
//! over the lock manager (re-acquiring a lock the transaction already
//! holds is `AbstractLock::acquire`'s reentrant arm: one failed
//! compare-and-swap on the owned word, ~17 ns), namespace lookups
//! remembered from op to op, one WAL record.
//!
//! ## Why batching cannot merge conflicting scripts
//!
//! A joint transaction commits or aborts as a unit, so a script may
//! only join a batch if it **cannot abort on its own**:
//!
//! * **no guards** — a guard mismatch aborts the whole transaction,
//!   which would wrongly abort the innocent scripts merged with it;
//! * **no `DebugAbort`** — same reason, deliberately;
//! * **no `SemAcquire`** — an exhausted semaphore aborts with
//!   `WouldBlock`;
//! * **single-object** — every op targets one `(type, name)` instance,
//!   so merged scripts are pairwise independent: any serial order of
//!   them produces the same per-script results, and the joint
//!   transaction realizes arrival order.
//!
//! Everything else (guarded transfers, multi-object scripts, reads
//! with expectations) runs one script per transaction.
//!
//! ## Ordering
//!
//! Batches are **maximal runs in arrival order**: walking the tick's
//! requests, eligible scripts accumulate; the pending batch is sealed
//! and executed *before* any non-batchable request runs. A
//! connection's pipelined requests therefore execute — and reply — in
//! program order, batched or not.
//!
//! ## One durability wait per tick
//!
//! The tick is also the unit of acknowledgement: no reply leaves before
//! the tick has been executed in full. So under a WAL no transaction of
//! the tick blocks on its own commit record; each seals its record into
//! the log's pending buffer, and [`Batcher::run_tick`] waits once,
//! after the last request, on the highest LSN the tick was given. With
//! nobody else flushing, that wait *leads*: the loop thread itself
//! writes the tick's records in one `write` and makes them durable with
//! one `fsync` — no hand-off to another thread — and another loop's
//! tick that queued behind it is covered by the same fsync.
//! *Ack-after-durable* is unchanged: `run_tick` returns `true` — and
//! only then are replies flushed — once every record of the tick is
//! durable. It returns `false` when the log refused a record or storage
//! failed: the tick's commits stand in memory but must not be
//! acknowledged, and the server stops (see DESIGN §13).

use crate::exec::{deal_out, op_target, Executor, ScriptOutcome, TickRecords};
#[cfg(feature = "deterministic")]
use txboost_core::det;
use txboost_wire::{Guard, Op, Request, Response, ScriptOp, MAX_OPS_PER_SCRIPT};

/// Commit-batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Most scripts merged into one joint transaction.
    pub max_scripts: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig { max_scripts: 64 }
    }
}

/// Whether a script may join a joint transaction: non-empty,
/// single-object, guard-free, and free of ops that can abort on their
/// own (see the module docs for why each condition is load-bearing).
#[must_use]
pub fn batch_eligible(ops: &[ScriptOp]) -> bool {
    let Some(first) = ops.first() else {
        return false;
    };
    let Some(target) = op_target(&first.op) else {
        return false;
    };
    ops.len() <= MAX_OPS_PER_SCRIPT as usize
        && ops.iter().all(|sop| {
            matches!(sop.guard, Guard::None)
                && !matches!(sop.op, Op::SemAcquire { .. })
                && op_target(&sop.op) == Some(target)
        })
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

/// One tick's worth of request coalescing. Stateless between ticks by
/// construction: [`Batcher::run_tick`] consumes the whole tick queue
/// and seals any pending batch before returning, so a graceful drain
/// never strands a sealed-but-unexecuted batch.
#[derive(Debug)]
pub struct Batcher {
    cfg: BatchConfig,
}

impl Batcher {
    /// A batcher with the given knobs.
    #[must_use]
    pub fn new(cfg: BatchConfig) -> Batcher {
        Batcher { cfg }
    }

    /// Execute one poll tick's requests in arrival order.
    ///
    /// Eligible `Script` requests are coalesced (up to
    /// [`BatchConfig::max_scripts`] scripts / [`MAX_OPS_PER_SCRIPT`]
    /// total ops) and executed jointly, every other `Script` runs as
    /// its own transaction, and any other request is handed to
    /// `other`, which computes its reply. All replies flow through
    /// `emit(token, response)` in arrival order — per-connection FIFO
    /// is the caller's invariant to keep, and it follows directly from
    /// emission order here.
    ///
    /// A reply is emitted when its transaction has committed, which
    /// under a WAL is before the commit record is durable; the records
    /// of the whole tick are awaited once, before this returns. The
    /// caller must not let an emitted reply out before then (the event
    /// loop flushes after the tick) — and not at all when this returns
    /// `false`: some commit of the tick is not durable and never will
    /// be (the log failed, or was shut down under the tick).
    pub fn run_tick<T: Copy>(
        &self,
        exec: &Executor,
        requests: Vec<(T, Request)>,
        mut other: impl FnMut(Request) -> Response,
        mut emit: impl FnMut(T, Response),
    ) -> bool {
        let mut run = Run {
            replies: Vec::new(),
            scripts: Vec::new(),
            ops: 0,
            records: TickRecords::default(),
        };
        for (token, req) in requests {
            match req {
                Request::Script { req_id, ops } if batch_eligible(&ops) => {
                    if run.scripts.len() >= self.cfg.max_scripts
                        || run.ops + ops.len() > MAX_OPS_PER_SCRIPT as usize
                    {
                        run.seal(exec, &mut emit);
                    }
                    run.ops += ops.len();
                    run.replies.push((token, req_id));
                    run.scripts.push(ops);
                }
                req => {
                    // Program order: a connection's earlier batched
                    // scripts must commit before a later non-batchable
                    // request of the same connection executes.
                    run.seal(exec, &mut emit);
                    let resp = match req {
                        Request::Script { req_id, ops } => {
                            let out = exec.run_deferred(&[ops], &mut run.records);
                            script_response(req_id, out)
                        }
                        req => other(req),
                    };
                    emit(token, resp);
                }
            }
        }
        run.seal(exec, &mut emit);
        run.records.wait()
    }
}

/// The pending run of eligible scripts. Reply addresses and scripts
/// sit in parallel vectors so the scripts are lent to the executor as
/// one slice, uncopied.
struct Run<'e, T> {
    /// `(token, req_id)` of each script, in arrival order.
    replies: Vec<(T, u64)>,
    scripts: Vec<Vec<ScriptOp>>,
    /// Ops across `scripts` (one WAL record holds at most
    /// [`MAX_OPS_PER_SCRIPT`]).
    ops: usize,
    /// Commit records of the tick so far, batched or not; awaited once
    /// at the end of the tick.
    records: TickRecords<'e>,
}

impl<'e, T: Copy> Run<'e, T> {
    /// Execute and drain the pending run (no-op when empty).
    fn seal(&mut self, exec: &'e Executor, emit: &mut impl FnMut(T, Response)) {
        self.ops = 0;
        if self.scripts.is_empty() {
            return;
        }
        seal_det();
        let replies = self.replies.drain(..);
        let joint = exec.run_deferred(&self.scripts, &mut self.records);
        match deal_out(joint, &self.scripts) {
            Some(outcomes) => {
                for ((token, req_id), out) in replies.zip(outcomes) {
                    emit(token, script_response(req_id, out));
                }
            }
            None => {
                // The joint transaction lost a conflict race (e.g. a
                // cross-loop lock-order collision). Each script now
                // retries on its own, so no client observes the merge.
                for ((token, req_id), ops) in replies.zip(&self.scripts) {
                    let out = exec.run_deferred(&[ops], &mut self.records);
                    emit(token, script_response(req_id, out));
                }
            }
        }
        self.scripts.clear();
    }
}

/// Deterministic-harness hook: the batcher sealed a run of
/// same-tick scripts into one joint transaction. Fires before the
/// joint execution, so schedule exploration can interleave other
/// loops between seal and commit.
fn seal_det() {
    #[cfg(feature = "deterministic")]
    det::yield_point(det::Point::BatchSeal);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;
    use std::time::Duration;
    use txboost_client::ScriptBuilder;
    use txboost_core::TxnConfig;
    use txboost_wal::{GroupCommitWal, SimStorage, Storage, WalConfig};
    use txboost_wire::{OpResult, ScriptStatus};

    fn exec() -> Executor {
        Executor::new(
            TxnConfig {
                lock_timeout: Duration::from_millis(5),
                max_retries: Some(16),
                ..TxnConfig::default()
            },
            4,
        )
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

    #[test]
    fn run_tick_batches_and_preserves_arrival_order() {
        let e = exec();
        let b = Batcher::new(BatchConfig::default());
        let reqs: Vec<(usize, Request)> = vec![
            (
                0,
                Request::Script {
                    req_id: 10,
                    ops: add("c", 1),
                },
            ),
            (
                1,
                Request::Script {
                    req_id: 11,
                    ops: add("c", 2),
                },
            ),
            (0, Request::Ping { req_id: 12 }),
            (
                1,
                Request::Script {
                    req_id: 13,
                    ops: add("c", 4),
                },
            ),
        ];
        let mut replies: Vec<(usize, u64)> = Vec::new();
        b.run_tick(
            &e,
            reqs,
            |req| match req {
                Request::Ping { req_id } => Response::Pong { req_id },
                _ => Response::Pong { req_id: 0 },
            },
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
        // The first two scripts merged; the post-ping one ran alone.
        assert!(e
            .stats_json()
            .contains("\"batch\":{\"batches\":1,\"scripts\":2"));
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
        let reqs = scripts.into_iter().enumerate().map(|(i, ops)| {
            let req_id = i as u64;
            (i, Request::Script { req_id, ops })
        });
        let mut emitted = 0;
        let durable = Batcher::new(BatchConfig::default()).run_tick(
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
        // Three commit records: a joint run of two, then two scripts
        // the batcher runs on their own (guarded; two objects).
        let scripts = vec![
            add("c", 1),
            add("c", 2),
            script()
                .map_insert_guarded("m", 1, 1, Guard::ExpectNone)
                .build(),
            script().counter_add("a", 1).counter_add("b", 1).build(),
        ];
        assert_eq!(tick(&e, scripts), (4, true));
        assert_eq!(wal.next_lsn(), 4);
        // A transaction that waited on its own record would have paid a
        // write and an fsync each; the tick paid one of either.
        let m = wal.metrics().snapshot();
        assert_eq!((m.records, m.batches, m.append.count()), (3, 1, 1));
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
        // A tick that logs nothing has nothing to lose.
        assert_eq!(tick(&e, vec![script().counter_get("c").build()]), (1, true));
    }

    #[test]
    fn ops_cap_splits_oversized_runs() {
        let e = exec();
        let b = Batcher::new(BatchConfig::default());
        // Scripts of 400 ops each: three of them exceed the 1024-op
        // record cap, so the run must split 2 + 1.
        let big = vec![
            ScriptOp::new(Op::CounterAdd {
                obj: "c".into(),
                delta: 1
            });
            400
        ];
        let reqs: Vec<(usize, Request)> = (0..3)
            .map(|i| {
                let (req_id, ops) = (i as u64, big.clone());
                (i, Request::Script { req_id, ops })
            })
            .collect();
        let mut n = 0;
        b.run_tick(&e, reqs, |_| Response::Pong { req_id: 0 }, |_, _| n += 1);
        assert_eq!(n, 3);
        let probe = e.execute(&script().counter_get("c").build());
        assert_eq!(probe.results, vec![OpResult::Value(Some(1200))]);
    }
}
