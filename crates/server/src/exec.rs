//! Script execution: one wire script → one boosted transaction, run
//! once, and the counters and histograms the `STATS` request exports.
//!
//! **Deadlock-free by construction.** Before its first op, a locked
//! script with more than one op takes every lock its ops will ask for,
//! in address order ([`acquire_footprint`]); scripts that take their
//! locks in one global order never wait for each other in a cycle. So a
//! lock wait has no deadline and nothing is retried. A one-op script
//! waits holding nothing, and an empty semaphore answers `WouldBlock`
//! at once. DESIGN §16 has the argument.
//!
//! **Exact counts, sampled clocks.** Every executed op and every
//! finished script is counted, so what `STATS` reports as `count` is
//! exact; the clock is read only on one run in [`TIMED_EVERY`], and the
//! `mean_ns`/`p50_ns`/`p99_ns` fields describe those runs. A clock read
//! costs about as much as a lock acquisition, and a script should pay
//! for its ops, not for being watched.
//!
//! A script, a script of a poll tick and a snapshot read are one
//! transaction with a different [`TxnManager`] entry, so the entry
//! points wrap one private core, [`Executor::run`]. None of them waits
//! for the log: a poll tick does, once, before its replies leave
//! ([`crate::Batcher::run_tick`]).

use crate::namespace::{Namespace, Resolved};
use std::cell::Cell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, OnceLock};
use std::time::{Duration, Instant};
use txboost_collections::{BoostedHashMap, CounterCall, MapCall, PQueueCall};
use txboost_core::locks::{AbstractLock, Mode as LockMode};
use txboost_core::{
    Abort, AbortReason, HistogramSnapshot, KeyHash, LatencyHistogram, TxResult, Txn, TxnConfig,
    TxnManager,
};
use txboost_wal::{GroupCommitWal, RecoveredRecord};
use txboost_wire::{op_name, Op, OpResult, ScriptOp, ScriptStatus, NUM_OPCODES};

/// Outcome of executing one script server-side.
#[derive(Debug)]
pub struct ScriptOutcome {
    /// Commit/abort classification for the reply status byte.
    pub status: ScriptStatus,
    /// Transaction attempts made: always 1, a script runs once.
    pub attempts: u32,
    /// Which op failed its guard, raised the debug abort, found its
    /// semaphore empty or mutated inside a read-only script.
    pub failed_op: Option<u16>,
    /// Per-op results; empty unless committed.
    pub results: Vec<OpResult>,
}

/// What a poll tick must remember of its commit records before it
/// acknowledges: whether the log refused one of them.
#[derive(Debug, Default)]
pub(crate) struct TickRecords {
    /// The log refused one of the tick's records (it was shut down, or
    /// has failed): that commit is not logged, whatever the log covers.
    refused: bool,
}

impl TickRecords {
    /// The tick's one durability wait: wait — leading the flush — until
    /// the log covers the newest record enqueued before this call, the
    /// tick's own or another loop's. Every reply of the tick, a read's
    /// included, observed only records enqueued before this point, so
    /// none of them shows a commit a crash can still lose. `false` if
    /// one of the tick's records was refused or storage failed; `true`
    /// at once with no log attached.
    pub(crate) fn wait(self, exec: &Executor) -> bool {
        !self.refused && exec.wal.get().is_none_or(|wal| wal.newest().wait())
    }
}

/// Connection-level counters, shared between the event loops and the
/// stats document.
#[derive(Debug, Default)]
pub struct ConnMetrics {
    /// Connections ever accepted.
    pub accepted: AtomicU64,
    /// Connections currently open.
    pub open: AtomicU64,
    /// Protocol errors (each closed one connection).
    pub proto_errors: AtomicU64,
    /// Accepts shed on descriptor exhaustion (`EMFILE`/`ENFILE`) or a
    /// failed epoll registration; each backed its loop's accepting off
    /// instead of spinning.
    pub accept_errors: AtomicU64,
}

/// One run in this many is timed, per thread, starting with the
/// thread's first — so a thread's share of the samples is its share of
/// the runs, and deciding costs no shared line.
const TIMED_EVERY: u32 = 64;

thread_local! {
    /// Runs this thread has begun.
    static RUNS_BEGUN: Cell<u32> = const { Cell::new(0) };
}

/// Whether the run now beginning on this thread is a timed one.
fn begin_run_timed() -> bool {
    let begun = RUNS_BEGUN.get();
    RUNS_BEGUN.set(begun.wrapping_add(1));
    begun.is_multiple_of(TIMED_EVERY)
}

/// Which [`TxnManager`] entry a run goes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// Abstract locks, footprint first, undo log: [`TxnManager::begin`].
    Locked,
    /// Lock-free snapshot, reads only: [`TxnManager::begin_read_only`].
    Snapshot,
}

/// Executes scripts and accumulates the stats the `STATS` request
/// reports.
#[derive(Debug)]
pub struct Executor {
    ns: Namespace,
    tm: TxnManager,
    /// Ops executed per op type, indexed by `opcode - 1`.
    op_calls: [AtomicU64; NUM_OPCODES],
    /// Service time per op type in the timed runs, indexed likewise.
    op_hist: [LatencyHistogram; NUM_OPCODES],
    /// Service time per whole script (execution only, not queueing) in
    /// the timed runs.
    script_hist: LatencyHistogram,
    /// Scripts finished per status, indexed by [`ScriptStatus::index`].
    status_counts: [AtomicU64; ScriptStatus::ALL.len()],
    /// Shared connection counters.
    pub conns: Arc<ConnMetrics>,
    started: Instant,
    /// Group-commit WAL, attached after recovery (never re-attached).
    /// While unset — including for the whole of recovery replay —
    /// commits are not logged.
    wal: OnceLock<Arc<GroupCommitWal>>,
    /// Records replayed from the WAL at startup.
    wal_replayed: AtomicU64,
    /// Replayed records the executor rejected (a recovery bug or a
    /// log/state divergence; counted, surfaced in stats, never fatal).
    wal_replay_failures: AtomicU64,
    /// Poll ticks that ran at least one locked script.
    ticks: AtomicU64,
    /// Locked scripts those ticks ran.
    tick_scripts: AtomicU64,
}

impl Executor {
    /// An executor over a fresh namespace. It ignores the [`TxnConfig`]:
    /// a script waits for its locks and runs once. Kept because the
    /// `benchmark/` harness still passes one.
    pub fn new(_: TxnConfig, default_sem_permits: u64) -> Self {
        Executor {
            ns: Namespace::new(default_sem_permits),
            tm: TxnManager::new(TxnConfig {
                lock_timeout: Duration::MAX,
                ..TxnConfig::default()
            }),
            op_calls: std::array::from_fn(|_| AtomicU64::new(0)),
            op_hist: std::array::from_fn(|_| LatencyHistogram::new()),
            script_hist: LatencyHistogram::new(),
            status_counts: Default::default(),
            conns: Arc::new(ConnMetrics::default()),
            started: Instant::now(),
            wal: OnceLock::new(),
            wal_replayed: AtomicU64::new(0),
            wal_replay_failures: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
            tick_scripts: AtomicU64::new(0),
        }
    }

    /// Attach the group-commit WAL. Call once, *after* recovery
    /// replay, so replaying old records does not re-log them.
    pub fn attach_wal(&self, wal: Arc<GroupCommitWal>) {
        let _ = self.wal.set(wal);
    }

    /// Close the WAL and flush what is pending (`true`, and a no-op,
    /// when WAL is off). Call after the event loops have drained.
    /// `false` if the log hit a storage error at any point: some
    /// committed script was never made durable.
    pub fn shutdown_wal(&self) -> bool {
        self.wal.get().is_none_or(|wal| wal.shutdown())
    }

    /// Re-execute one recovered WAL record; `true` if it committed
    /// again. Recovery replays the committed prefix single-threaded
    /// through this before the WAL is attached.
    pub fn replay_record(&self, record: &RecoveredRecord) -> bool {
        let ok = self.execute(&record.ops).status == ScriptStatus::Committed;
        self.wal_replayed.fetch_add(1, Ordering::Relaxed);
        if !ok {
            self.wal_replay_failures.fetch_add(1, Ordering::Relaxed);
        }
        ok
    }

    /// The object namespace (tests seed state through it).
    pub fn namespace(&self) -> &Namespace {
        &self.ns
    }

    /// Run `ops` as one boosted transaction. Never panics on behalf of
    /// the script: every abort path is mapped to a [`ScriptStatus`].
    /// Under a WAL the commit record is enqueued, not awaited: the next
    /// poll tick's wait or [`shutdown_wal`](Self::shutdown_wal) makes it
    /// durable, so the outcome is not an acknowledgement.
    pub fn execute(&self, ops: &[ScriptOp]) -> ScriptOutcome {
        self.run(Mode::Locked, ops).0
    }

    /// [`execute`](Self::execute) for a script of a poll tick, which
    /// must learn if the log refused the script's record.
    pub(crate) fn run_in_tick(&self, ops: &[ScriptOp], tick: &mut TickRecords) -> ScriptOutcome {
        let (outcome, refused) = self.run(Mode::Locked, ops);
        tick.refused |= refused;
        outcome
    }

    /// Count a poll tick that ran `scripts` locked scripts (none: not a
    /// tick `STATS` counts).
    pub(crate) fn count_tick(&self, scripts: u64) {
        if scripts > 0 {
            self.ticks.fetch_add(1, Ordering::Relaxed);
            self.tick_scripts.fetch_add(scripts, Ordering::Relaxed);
        }
    }

    /// Run `ops` as one **read-only snapshot transaction**: no abstract
    /// locks, no undo log, no WAL record. A map's first snapshot read
    /// arms it before the snapshot begins, waiting with no deadline for
    /// the map's in-flight writers; later reads never wait. Only
    /// `map_contains` is served,
    /// the one op with committed versions to read: a script holding any
    /// other op, `counter_get` included, is rejected with
    /// [`ScriptStatus::ReadOnlyViolation`] naming the first such op,
    /// before that op touches any object.
    pub fn execute_read_only(&self, ops: &[ScriptOp]) -> ScriptOutcome {
        self.run(Mode::Snapshot, ops).0
    }

    /// [`execute`](Self::execute) each script, in order; always `Some`.
    /// Kept, with its signature, because the `benchmark/` harness still
    /// calls it.
    pub fn execute_batch(&self, scripts: &[Vec<ScriptOp>]) -> Option<Vec<ScriptOutcome>> {
        Some(scripts.iter().map(|ops| self.execute(ops)).collect())
    }

    /// The one run: begin `mode`'s transaction, run the body, then
    /// commit or abort — one attempt — and account for it. The flag is
    /// whether the log refused the commit record.
    ///
    /// Ops and scripts are counted on every run; the clock is read only
    /// on a timed one ([`TIMED_EVERY`]). There, per-op service times use
    /// **chained stamps**: one clock read per op boundary, each op's
    /// sample being the gap to the previous stamp, and the script's
    /// service time is the whole run, commit included.
    fn run(&self, mode: Mode, ops: &[ScriptOp]) -> (ScriptOutcome, bool) {
        let t0 = begin_run_timed().then(Instant::now);
        let mut results: Vec<OpResult> = Vec::with_capacity(ops.len());
        let objects = self.ns.resolved();
        // Before the snapshot begins: the lookahead arms every map it
        // finds, so the snapshot is not older than their versions.
        let ahead = match mode {
            Mode::Snapshot => prefetch_reads(ops, objects),
            Mode::Locked => [None; LOOKAHEAD],
        };
        let txn = match mode {
            Mode::Locked => self.tm.begin(),
            Mode::Snapshot => self.tm.begin_read_only(),
        };
        // `Ok`: whether the log refused the commit record. `Err`: the
        // abort to roll back with, the status it earns, the op to name.
        let mut body = || -> Result<bool, (Abort, ScriptStatus, Option<u16>)> {
            if mode == Mode::Locked && ops.len() > 1 {
                // Cannot fail: the wait has no deadline.
                acquire_footprint(&txn, ops, objects)
                    .map_err(|abort| (abort, ScriptStatus::WouldBlock, None))?;
            }
            // The previous op boundary of a timed run.
            let mut last = t0;
            for (i, sop) in ops.iter().enumerate() {
                let give_up = |status, abort| Err((abort, status, Some(i as u16)));
                // A map key is the one thing a snapshot has versions of.
                if mode == Mode::Snapshot && !matches!(sop.op, Op::MapContains { .. }) {
                    return give_up(
                        ScriptStatus::ReadOnlyViolation,
                        Abort::read_only_violation(),
                    );
                }
                if matches!(sop.op, Op::DebugAbort) {
                    return give_up(ScriptStatus::DebugAborted, Abort::explicit());
                }
                // Lock waits have no deadline: the one abort an op raises
                // is an empty semaphore's.
                let r = match (&sop.op, ahead.get(i).copied().flatten()) {
                    (Op::MapContains { key, .. }, Some((map, hash))) => map
                        .contains_key_prefetched(&txn, key, hash)
                        .map(OpResult::Bool),
                    (op, _) => Self::run_op(&txn, op, objects),
                };
                let r = match r {
                    Ok(r) => r,
                    Err(abort) => return give_up(ScriptStatus::WouldBlock, abort),
                };
                // An out-of-range opcode must degrade to an uncounted op,
                // never a panic that kills the connection.
                let opcode = (sop.op.opcode() - 1) as usize;
                if let Some(calls) = self.op_calls.get(opcode) {
                    calls.fetch_add(1, Ordering::Relaxed);
                }
                if let (Some(prev), Some(hist)) = (last, self.op_hist.get(opcode)) {
                    let now = Instant::now();
                    hist.record_duration(now.duration_since(prev));
                    last = Some(now);
                }
                if !sop.guard.admits(&r) {
                    return give_up(ScriptStatus::GuardFailed, Abort::explicit());
                }
                results.push(r);
            }
            // Enqueued while the locks are held, so LSN order is the
            // serialization order; a boosted commit cannot fail after its
            // body, so every record is a real commit. Nobody here waits
            // for it: the poll tick does, before any reply leaves.
            let wal = self.wal.get();
            let wal = wal.filter(|_| ops.iter().any(|sop| op_mutates(&sop.op)));
            Ok(wal.is_some_and(|wal| wal.enqueue(ops).lsn().is_none()))
        };
        let (status, failed_op, refused) = match body() {
            Ok(refused) => {
                self.tm.commit(txn);
                (ScriptStatus::Committed, None, refused)
            }
            Err((abort, status, failed_op)) => {
                self.tm.abort(txn, abort.reason());
                // A snapshot that armed a map the lookahead could not
                // find (its script created it) and began below the
                // map's versions: run it again, once per such map.
                if abort.reason() == AbortReason::SnapshotTooOld {
                    return self.run(mode, ops);
                }
                results.clear();
                (status, failed_op, false)
            }
        };
        if let Some(t0) = t0 {
            self.script_hist.record_duration(t0.elapsed());
        }
        self.status_counts[status.index()].fetch_add(1, Ordering::Relaxed);
        let outcome = ScriptOutcome {
            status,
            attempts: 1,
            failed_op,
            results,
        };
        (outcome, refused)
    }

    /// Execute one op on the object it names, borrowed from the namespace.
    fn run_op(txn: &Txn, op: &Op, objects: Resolved<'_>) -> TxResult<OpResult> {
        Ok(match op {
            Op::MapInsert { obj, key, val } => {
                OpResult::Value(objects.map(obj).put(txn, *key, *val)?)
            }
            Op::MapRemove { obj, key } => OpResult::Value(objects.map(obj).remove(txn, key)?),
            Op::MapContains { obj, key } => {
                OpResult::Bool(objects.map(obj).contains_key(txn, key)?)
            }
            Op::CounterAdd { obj, delta } => {
                objects.counter(obj).add(txn, *delta)?;
                OpResult::Unit
            }
            Op::CounterGet { obj } => OpResult::Value(Some(objects.counter(obj).get(txn)?)),
            Op::SemAcquire { obj } => {
                objects.sem(obj).try_acquire(txn)?;
                OpResult::Unit
            }
            Op::SemRelease { obj } => {
                objects.sem(obj).release(txn);
                OpResult::Unit
            }
            Op::IdGen { obj } => OpResult::Id(objects.idgen(obj).assign_id(txn)?),
            Op::PqAdd { obj, key } => {
                objects.pq(obj).add(txn, *key)?;
                OpResult::Unit
            }
            Op::PqRemoveMin { obj } => OpResult::Value(objects.pq(obj).remove_min(txn)?),
            // `body` raises this one before dispatch.
            Op::DebugAbort => return Err(Abort::explicit()),
        })
    }

    /// Render the `STATS` document: transaction counters, per-op-type
    /// call counts and service times (count/mean/p50/p99), script
    /// service time, connection counters, and object census. Under
    /// `ops` and `script_service`, `count` is exact and the latency
    /// fields come from the timed runs, one in 64 per thread.
    pub fn stats_json(&self) -> String {
        let load = |counter: &AtomicU64| counter.load(Ordering::Relaxed);
        let mut out = String::with_capacity(2048);
        JsonObj::write(&mut out, |doc| {
            let uptime = self.started.elapsed().as_millis();
            doc.num("uptime_ms", uptime.min(u128::from(u64::MAX)) as u64);
            let txn = self.tm.stats().snapshot();
            doc.obj("txn", |o| {
                o.num("started", txn.started)
                    .num("committed", txn.committed)
                    .num("aborted", txn.aborted)
                    .num("lock_timeouts", txn.lock_timeouts)
                    .num("would_block", txn.would_block_aborts)
                    .num("explicit", txn.explicit_aborts)
                    .num("lock_waits", txn.lock_waits)
                    .hist("lock_wait", &txn.lock_wait);
            });
            doc.obj("scripts", |o| {
                for (status, count) in ScriptStatus::ALL.iter().zip(&self.status_counts) {
                    o.num(status.name(), load(count));
                }
            });
            doc.obj("ops", |o| {
                for (i, (calls, hist)) in self.op_calls.iter().zip(&self.op_hist).enumerate() {
                    let name = op_name(i as u8 + 1).expect("opcode table covers histogram range");
                    o.sampled_hist(name, load(calls), &hist.snapshot());
                }
            });
            // A finished script is counted under exactly one status.
            let scripts = self.status_counts.iter().map(load).sum();
            doc.sampled_hist("script_service", scripts, &self.script_hist.snapshot());
            // Poll ticks, under the keys scrapers read: a tick is a
            // "batch", and no tick has a fallback.
            doc.obj("batch", |o| {
                o.num("batches", load(&self.ticks))
                    .num("scripts", load(&self.tick_scripts))
                    .num("fallbacks", 0);
            });
            doc.obj("connections", |o| {
                o.num("accepted", load(&self.conns.accepted))
                    .num("open", load(&self.conns.open))
                    .num("proto_errors", load(&self.conns.proto_errors))
                    .num("accept_errors", load(&self.conns.accept_errors));
            });
            if let Some(wal) = self.wal.get() {
                let d = wal.metrics().snapshot();
                doc.obj("wal", |o| {
                    o.num("records", d.records)
                        .num("batches", d.batches)
                        .num("bytes", d.bytes)
                        .num("segments_rolled", d.segments_rolled)
                        .num("errors", d.wal_errors)
                        .num("replayed", load(&self.wal_replayed))
                        .num("replay_failures", load(&self.wal_replay_failures))
                        .hist("append", &d.append)
                        .hist("fsync", &d.fsync);
                });
            }
            let mv = txboost_core::MvccDomain::global();
            let mv_snap = mv.metrics.snapshot();
            doc.obj("mvcc", |o| {
                o.num("installs", mv_snap.installs)
                    .num("snapshot_reads", mv_snap.snapshot_reads)
                    .num("gc_reclaimed", mv_snap.gc_reclaimed)
                    .num("stable_ts", mv.clock.stable())
                    .num("live_readers", mv.readers.live_readers() as u64)
                    .num("versioned_maps", mv_snap.versioned_stores)
                    .hist("chain_len", &mv_snap.chain_len)
                    .hist("snapshot_age", &mv_snap.snapshot_age);
            });
            let (maps, counters, sems, idgens, pqs) = self.ns.object_counts();
            doc.obj("objects", |o| {
                o.num("maps", maps as u64)
                    .num("counters", counters as u64)
                    .num("sems", sems as u64)
                    .num("idgens", idgens as u64)
                    .num("pqs", pqs as u64);
            });
        });
        out
    }
}

/// Ops a snapshot script's lookahead covers: about as many cache misses
/// as a core keeps in flight.
const LOOKAHEAD: usize = 16;

/// What the lookahead found for one op: the map a `map_contains` reads
/// and its key's hash there.
type Prefetched<'s> = Option<(&'s Arc<BoostedHashMap<i64, i64>>, KeyHash)>;

/// A snapshot script's lookahead, run before its snapshot begins: arm
/// every map its `map_contains` ops read ([`BoostedHashMap::arm`],
/// waiting with no deadline, like a script's lock wait), so the
/// snapshot is never older than their versions; start the cache miss
/// of every `map_contains` among its first [`LOOKAHEAD`] ops before
/// the first read needs its own, so the misses overlap instead of
/// queueing; and hand each of those ops its map and hash so the read
/// repeats neither lookup. Only maps that exist are armed and
/// prefetched ([`Resolved::existing_map`]): creating an object stays
/// the op's job, and a script rejected before it reaches an op must not
/// create that op's map.
fn prefetch_reads<'s>(ops: &[ScriptOp], objects: Resolved<'s>) -> [Prefetched<'s>; LOOKAHEAD] {
    let mut ahead = [None; LOOKAHEAD];
    // Scripts read one map several times: look each name up once.
    let mut last = None;
    for (i, sop) in ops.iter().enumerate() {
        if let Op::MapContains { obj, key } = &sop.op {
            let map = match last {
                Some((name, map)) if name == obj => map,
                _ => {
                    let map = objects.existing_map(obj);
                    if let Some(map) = map {
                        // Cannot fail: the wait has no deadline.
                        let _ = map.arm(Duration::MAX);
                    }
                    map
                }
            };
            last = Some((obj, map));
            if let Some(found) = ahead.get_mut(i) {
                *found = map.map(|map| (map, map.prefetch_snapshot(key)));
            }
        }
    }
    ahead
}

/// Footprint entries kept on the stack; a longer script allocates.
const FOOTPRINT_INLINE: usize = 16;

/// Take every lock `ops` will ask for before the first of them runs:
/// each distinct lock word once, in the strongest mode any op asks of
/// it, in address order — the one order every multi-op script takes
/// its locks in. Resolves, and so creates, every object whose op takes
/// a lock.
fn acquire_footprint(txn: &Txn, ops: &[ScriptOp], objects: Resolved<'_>) -> TxResult<()> {
    let mut inline = [None; FOOTPRINT_INLINE];
    let mut spill = Vec::new();
    let entries = match inline.get_mut(..ops.len()) {
        Some(entries) => entries,
        None => {
            spill.resize(ops.len(), None);
            &mut spill[..]
        }
    };
    for (entry, sop) in entries.iter_mut().zip(ops) {
        *entry = conflict(&sop.op, objects);
    }
    // By address, and at one address `Exclusive` first: the first entry
    // of each word carries its strongest mode.
    entries.sort_unstable_by_key(|entry| {
        entry.map(|(lock, mode)| (std::ptr::from_ref(lock), mode == LockMode::Shared))
    });
    let mut taken = None;
    for &(lock, mode) in entries.iter().flatten() {
        if taken != Some(std::ptr::from_ref(lock)) {
            lock.acquire(txn, mode)?;
            taken = Some(std::ptr::from_ref(lock));
        }
    }
    Ok(())
}

/// The lock word `op` takes and its mode, from its object's conflict
/// table; `None` for the ops that take no abstract lock (the
/// semaphore's, the id generator's, `DebugAbort`).
fn conflict(op: &Op, objects: Resolved<'_>) -> Option<(&'static AbstractLock, LockMode)> {
    Some(match op {
        Op::MapInsert { obj, key, .. } => objects.map(obj).conflict(MapCall::Put(key)),
        Op::MapRemove { obj, key } => objects.map(obj).conflict(MapCall::Remove(key)),
        Op::MapContains { obj, key } => objects.map(obj).conflict(MapCall::ContainsKey(key)),
        Op::CounterAdd { obj, .. } => objects.counter(obj).conflict(CounterCall::Add),
        Op::CounterGet { obj } => objects.counter(obj).conflict(CounterCall::Get),
        Op::PqAdd { obj, .. } => objects.pq(obj).conflict(PQueueCall::Add),
        Op::PqRemoveMin { obj } => objects.pq(obj).conflict(PQueueCall::RemoveMin),
        Op::SemAcquire { .. } | Op::SemRelease { .. } | Op::IdGen { .. } | Op::DebugAbort => {
            return None
        }
    })
}

/// Whether an op changes object state — only scripts containing at
/// least one of these earn a WAL record. `DebugAbort` never commits,
/// so it does not count.
fn op_mutates(op: &Op) -> bool {
    !matches!(
        op,
        Op::MapContains { .. } | Op::CounterGet { .. } | Op::DebugAbort
    )
}

/// A JSON object being written: escaping keys, placing commas and
/// closing the brace are its business, so `stats_json` only names what
/// it reports. Values are numbers, histograms and nested objects —
/// all the `STATS` document holds.
struct JsonObj<'a> {
    out: &'a mut String,
    empty: bool,
}

impl JsonObj<'_> {
    /// Append `{`, whatever members `fill` adds, and `}` to `out`.
    fn write(out: &mut String, fill: impl FnOnce(&mut JsonObj<'_>)) {
        out.push('{');
        fill(&mut JsonObj {
            out: &mut *out,
            empty: true,
        });
        out.push('}');
    }

    /// Start a member: separator, escaped key, colon.
    fn key(&mut self, key: &str) -> &mut String {
        if !std::mem::replace(&mut self.empty, false) {
            self.out.push(',');
        }
        self.out.push('"');
        for c in key.chars() {
            match c {
                '"' => self.out.push_str("\\\""),
                '\\' => self.out.push_str("\\\\"),
                c if (c as u32) < 0x20 => {
                    let _ = write!(self.out, "\\u{:04x}", c as u32);
                }
                c => self.out.push(c),
            }
        }
        self.out.push_str("\":");
        self.out
    }

    fn num(&mut self, key: &str, value: u64) -> &mut Self {
        let _ = write!(self.key(key), "{value}");
        self
    }

    fn obj(&mut self, key: &str, fill: impl FnOnce(&mut JsonObj<'_>)) -> &mut Self {
        JsonObj::write(self.key(key), fill);
        self
    }

    fn hist(&mut self, key: &str, h: &HistogramSnapshot) -> &mut Self {
        self.sampled_hist(key, h.count(), h)
    }

    /// A histogram fed by a sample of `count` events.
    fn sampled_hist(&mut self, key: &str, count: u64, h: &HistogramSnapshot) -> &mut Self {
        self.obj(key, |o| {
            o.num("count", count)
                .num("mean_ns", h.mean())
                .num("p50_ns", h.p50())
                .num("p99_ns", h.p99());
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txboost_client::ScriptBuilder;
    use txboost_wal::{recover, SimStorage, Storage, WalConfig};
    use txboost_wire::Guard;

    fn exec() -> Executor {
        Executor::new(TxnConfig::default(), 4)
    }

    /// Scripts are spelled the way clients spell them.
    fn script() -> ScriptBuilder {
        ScriptBuilder::new()
    }

    /// Run `f` on a thread that has begun no run yet, so its first run
    /// is a timed one whatever the test harness ran on this thread.
    fn on_fresh_thread<R: Send>(f: impl FnOnce() -> R + Send) -> R {
        std::thread::scope(|s| s.spawn(f).join().expect("test thread panicked"))
    }

    /// Attach a group-commit WAL over simulated storage; the storage
    /// is returned for recovery.
    fn attach_sim_wal(e: &Executor) -> Arc<SimStorage> {
        let storage = Arc::new(SimStorage::new(0));
        let wal = GroupCommitWal::new(
            Arc::clone(&storage) as Arc<dyn Storage>,
            &WalConfig::default(),
            1,
            Arc::new(txboost_core::DurabilityMetrics::new()),
        );
        e.attach_wal(Arc::new(wal.unwrap()));
        storage
    }

    /// Every leaf of a `STATS` document as `(dotted key path, value)`,
    /// in document order. The document holds only objects and numbers.
    fn leaves(json: &str) -> Vec<(String, u64)> {
        let mut out = Vec::new();
        let mut path: Vec<&str> = Vec::new();
        let mut rest = json;
        while let Some(at) = rest.find(['"', '}']) {
            if rest.as_bytes()[at] == b'}' {
                path.pop();
                rest = &rest[at + 1..];
                continue;
            }
            let (key, after) = rest[at + 1..].split_once("\":").expect("key then colon");
            if let Some(inner) = after.strip_prefix('{') {
                path.push(key);
                rest = inner;
            } else {
                let digits = after.find(|c: char| !c.is_ascii_digit()).unwrap();
                let leaf: Vec<&str> = path.iter().chain([&key]).copied().collect();
                out.push((leaf.join("."), after[..digits].parse().unwrap()));
                rest = &after[digits..];
            }
        }
        out
    }

    #[test]
    fn script_commits_and_returns_per_op_results() {
        let e = exec();
        let every_type = script()
            .map_insert("m", 1, 10)
            .map_insert("m", 1, 20)
            .map_contains("m", 1)
            .counter_add("c", 5)
            .counter_get("c")
            .id_gen("g")
            .pq_add("q", 3)
            .pq_remove_min("q");
        let out = e.execute(&every_type.build());
        assert_eq!(out.status, ScriptStatus::Committed);
        assert_eq!(out.attempts, 1);
        assert_eq!(
            out.results,
            vec![
                OpResult::Value(None),
                OpResult::Value(Some(10)),
                OpResult::Bool(true),
                OpResult::Unit,
                OpResult::Value(Some(5)),
                OpResult::Id(0),
                OpResult::Unit,
                OpResult::Value(Some(3)),
            ]
        );
    }

    #[test]
    fn debug_abort_rolls_back_everything() {
        let e = exec();
        let doomed = script()
            .map_insert("m", 7, 1)
            .counter_add("c", 100)
            .debug_abort();
        let out = e.execute(&doomed.build());
        assert_eq!(out.status, ScriptStatus::DebugAborted);
        assert_eq!(out.failed_op, Some(2));
        assert!(out.results.is_empty());
        // No partial effects.
        let check = e.execute(&script().map_contains("m", 7).counter_get("c").build());
        assert_eq!(
            check.results,
            vec![OpResult::Bool(false), OpResult::Value(Some(0))]
        );
    }

    #[test]
    fn guard_failure_aborts_atomically_and_names_the_op() {
        let e = exec();
        // Key 2 is absent: the ExpectSome guard must fail.
        let guarded = script()
            .map_insert("m", 1, 1)
            .map_remove_guarded("m", 2, Guard::ExpectSome);
        let out = e.execute(&guarded.build());
        assert_eq!(out.status, ScriptStatus::GuardFailed);
        assert_eq!(out.failed_op, Some(1));
        // The first op was rolled back too.
        let check = e.execute(&script().map_contains("m", 1).build());
        assert_eq!(check.results, vec![OpResult::Bool(false)]);
    }

    #[test]
    fn exhausted_semaphore_reports_would_block() {
        // Semaphores start empty: the acquire cannot wait for a release
        // while its script may hold locks, so it answers at once.
        let e = Executor::new(TxnConfig::default(), 0);
        let out = e.execute(&script().sem_acquire("s").build());
        assert_eq!(out.status, ScriptStatus::WouldBlock);
        assert_eq!((out.attempts, out.failed_op), (1, Some(0)));
        let insert_then_acquire = script().map_insert("m", 1, 1).sem_acquire("s");
        let out = e.execute(&insert_then_acquire.build());
        assert_eq!(out.status, ScriptStatus::WouldBlock);
        assert_eq!((out.attempts, out.failed_op), (1, Some(1)));
        // The insert before it was rolled back.
        let check = e.execute(&script().map_contains("m", 1).build());
        assert_eq!(check.results, vec![OpResult::Bool(false)]);
    }

    #[test]
    fn read_only_script_reads_a_committed_snapshot_without_locks() {
        let e = exec();
        let seeded = e.execute(&script().map_insert("m", 1, 10).build());
        assert_eq!(seeded.status, ScriptStatus::Committed);
        let expect_present = ScriptOp::guarded(
            Op::MapContains {
                obj: "m".into(),
                key: 1,
            },
            Guard::ExpectTrue,
        );
        let reads = script().push(expect_present).map_contains("m", 2);
        let out = e.execute_read_only(&reads.build());
        assert_eq!(out.status, ScriptStatus::Committed);
        assert_eq!(out.attempts, 1, "snapshot reads never retry");
        assert_eq!(
            out.results,
            vec![OpResult::Bool(true), OpResult::Bool(false)]
        );
    }

    #[test]
    fn a_snapshot_script_arms_its_map_once_and_never_restarts() {
        let e = exec();
        let stat = |e: &Executor, path: &str| {
            let json = e.stats_json();
            let found = leaves(&json).into_iter().find(|(p, _)| p == path);
            found.unwrap_or_else(|| panic!("{path} missing")).1
        };
        let seeded = e.execute(&script().map_insert("m", 1, 10).build());
        assert_eq!(seeded.status, ScriptStatus::Committed);
        let before = stat(&e, "mvcc.versioned_maps");
        // A writer of key 1 stays open: the first snapshot read waits
        // for it before its snapshot begins, and then reads its commit.
        let map = e.namespace().map("m");
        let holder = TxnManager::default();
        let read = script().map_contains("m", 1).map_contains("m", 2).build();
        let out = std::thread::scope(|s| {
            let txn = holder.begin();
            map.remove(&txn, &1).unwrap();
            let script = s.spawn(|| e.execute_read_only(&read));
            std::thread::sleep(Duration::from_millis(50));
            holder.commit(txn);
            script.join().unwrap()
        });
        assert_eq!(out.status, ScriptStatus::Committed);
        assert_eq!(out.results, vec![OpResult::Bool(false); 2]);
        // Other tests arm maps of their own meanwhile: at least this one.
        assert!(stat(&e, "mvcc.versioned_maps") > before);
        // Armed before its snapshot, the read never restarted.
        let txn = e.tm.stats().snapshot();
        assert_eq!((txn.committed, txn.aborted), (2, 0));
        let out = e.execute_read_only(&read);
        assert_eq!(out.results, vec![OpResult::Bool(false); 2]);
    }

    #[test]
    fn read_only_script_rejects_mutations_with_a_typed_status() {
        let e = exec();
        for mutation in [
            script().map_insert("m", 1, 1),
            script().map_remove("m", 1),
            script().counter_add("c", 1),
            // A counter keeps no versions: a snapshot has nothing to read.
            script().counter_get("c"),
            script().sem_acquire("s"),
            script().sem_release("s"),
            script().id_gen("g"),
            script().pq_add("q", 1),
            script().pq_remove_min("q"),
            script().debug_abort(),
        ] {
            let mut ops = script().map_contains("m", 1).build();
            ops.extend(mutation.build());
            let out = e.execute_read_only(&ops);
            assert_eq!(out.status, ScriptStatus::ReadOnlyViolation, "{ops:?}");
            assert_eq!(out.failed_op, Some(1));
            assert!(out.results.is_empty());
        }
        // Nothing leaked into committed state.
        let probe = e.execute(&script().counter_get("c").build());
        assert_eq!(probe.results, vec![OpResult::Value(Some(0))]);
    }

    #[test]
    fn read_only_guard_failures_name_the_op() {
        let e = exec();
        let out = e.execute_read_only(&[ScriptOp::guarded(
            Op::MapContains {
                obj: "m".into(),
                key: 99,
            },
            Guard::ExpectTrue,
        )]);
        assert_eq!(out.status, ScriptStatus::GuardFailed);
        assert_eq!(out.failed_op, Some(0));
    }

    #[test]
    fn stats_json_reports_per_op_histograms() {
        let e = exec();
        e.execute(&script().map_insert("m", 1, 1).build());
        e.execute_read_only(&script().map_contains("m", 1).build());
        e.execute_read_only(&script().counter_add("c", 1).build());
        let json = e.stats_json();
        assert!(json.contains("\"map_insert\":{\"count\":1"), "{json}");
        assert!(json.contains("\"committed\":2"), "{json}");
        assert!(json.contains("\"read_only_violation\":1"), "{json}");
        assert!(json.contains("\"script_service\":{\"count\":3"), "{json}");
        assert!(json.contains("\"maps\":1"), "{json}");
        assert!(json.contains("\"live_readers\":0"), "{json}");
    }

    #[test]
    fn wal_round_trip_logs_commits_and_replay_rebuilds_state() {
        let e = exec();
        let storage = attach_sim_wal(&e);

        let committed = e.execute(&script().map_insert("m", 1, 10).build());
        assert_eq!(committed.status, ScriptStatus::Committed);
        // Read-only scripts and failed scripts earn no record.
        e.execute(&script().map_contains("m", 1).build());
        let aborted = e.execute(&script().map_insert("m", 2, 2).debug_abort().build());
        assert_eq!(aborted.status, ScriptStatus::DebugAborted);

        // `execute` waits for nothing: the record is written by the
        // next tick's wait or, here, by closing the log.
        assert!(e.stats_json().contains("\"wal\":{\"records\":0"));
        assert!(e.shutdown_wal());
        assert!(e.stats_json().contains("\"wal\":{\"records\":1"));

        let log = recover(storage.as_ref()).unwrap();
        assert_eq!(log.records.len(), 1, "exactly the committed script");
        let e2 = exec();
        assert_eq!(log.replay(|record| e2.replay_record(record)), 0);
        let probe = e2.execute(&script().map_contains("m", 1).build());
        assert_eq!(probe.results, vec![OpResult::Bool(true)]);
    }

    #[test]
    fn one_name_under_three_types_is_three_objects() {
        let e = exec();
        let same_name = script()
            .map_insert("x", 1, 10)
            .counter_add("x", 5)
            .pq_add("x", 3)
            .map_insert("x", 1, 20)
            .counter_get("x")
            .pq_remove_min("x")
            .map_contains("x", 1);
        let out = e.execute(&same_name.build());
        assert_eq!(out.status, ScriptStatus::Committed);
        assert_eq!(
            out.results,
            vec![
                OpResult::Value(None),
                OpResult::Unit,
                OpResult::Unit,
                OpResult::Value(Some(10)),
                OpResult::Value(Some(5)),
                OpResult::Value(Some(3)),
                OpResult::Bool(true),
            ]
        );
        assert_eq!(e.namespace().object_counts(), (1, 1, 0, 0, 1));
    }

    #[test]
    fn a_script_waits_out_a_held_lock_and_runs_once() {
        let e = exec();
        let map = e.namespace().map("m");
        let holder = TxnManager::default();
        let transfer = script()
            .map_insert("m", 1, 8)
            .counter_add("c", 1)
            .map_contains("m", 1)
            .counter_get("c");
        let out = std::thread::scope(|s| {
            let txn = holder.begin();
            map.put(&txn, 1, 7).unwrap();
            let script = s.spawn(|| e.execute(&transfer.build()));
            // Hold key 1 for ten times the library's default lock
            // timeout: the script's wait has no deadline.
            std::thread::sleep(Duration::from_millis(100));
            holder.commit(txn);
            script.join().unwrap()
        });
        assert_eq!((out.status, out.attempts), (ScriptStatus::Committed, 1));
        assert_eq!(
            out.results,
            vec![
                OpResult::Value(Some(7)),
                OpResult::Unit,
                OpResult::Bool(true),
                OpResult::Value(Some(1)),
            ]
        );
        let txn = e.tm.stats().snapshot();
        assert_eq!((txn.lock_timeouts, txn.lock_waits, txn.aborted), (0, 1, 0));
        // The run being its thread's first, it stamped every op once.
        assert_eq!(e.namespace().object_counts(), (1, 1, 0, 0, 0));
        for opcode in [0, 2, 3, 4] {
            assert_eq!(e.op_calls[opcode].load(Ordering::Relaxed), 1);
            assert_eq!(e.op_hist[opcode].snapshot().count(), 1);
        }
        assert_eq!(e.script_hist.snapshot().count(), 1);
    }

    /// xorshift64*, so the test needs no rand dependency.
    struct Rng(u64);

    impl Rng {
        fn below(&mut self, n: u64) -> u64 {
            self.0 ^= self.0 << 13;
            self.0 ^= self.0 >> 7;
            self.0 ^= self.0 << 17;
            self.0.wrapping_mul(0x2545_F491_4F6C_DD1D) % n
        }
    }

    /// An op with the given opcode (1–11) over two names and four keys.
    fn random_op(rng: &mut Rng, opcode: u8) -> Op {
        let obj = format!("o{}", rng.below(2));
        let key = rng.below(4) as i64;
        match opcode {
            1 => Op::MapInsert { obj, key, val: 1 },
            2 => Op::MapRemove { obj, key },
            3 => Op::MapContains { obj, key },
            4 => Op::CounterAdd { obj, delta: 1 },
            5 => Op::CounterGet { obj },
            6 => Op::SemAcquire { obj },
            7 => Op::SemRelease { obj },
            8 => Op::IdGen { obj },
            9 => Op::PqAdd { obj, key },
            10 => Op::PqRemoveMin { obj },
            _ => Op::DebugAbort,
        }
    }

    #[test]
    fn a_footprint_covers_every_lock_its_ops_take() {
        let e = exec();
        let objects = e.ns.resolved();
        let mut rng = Rng(0x9E37_79B9_7F4A_7C15);
        // Every opcode twice beside an insert, then 1,000 random scripts.
        let per_opcode = (1..=NUM_OPCODES as u8).map(|opcode| {
            let mut ops = vec![random_op(&mut rng, 1)];
            ops.extend([0, 1].map(|_| random_op(&mut rng, opcode)));
            ops
        });
        let per_opcode: Vec<Vec<Op>> = per_opcode.collect();
        let random = (0..1000).map(|_| {
            let len = 2 + rng.below(5);
            let ops = (0..len).map(|_| {
                let opcode = 1 + rng.below(11) as u8;
                random_op(&mut rng, opcode)
            });
            ops.collect::<Vec<_>>()
        });
        let random: Vec<Vec<Op>> = random.collect();
        for ops in per_opcode.iter().chain(&random) {
            let script: Vec<ScriptOp> = ops.iter().cloned().map(ScriptOp::new).collect();
            let txn = e.tm.begin();
            acquire_footprint(&txn, &script, objects).unwrap();
            let held = txn.held_lock_count();
            // Held in a mode at least as strong as each op's own.
            for op in ops {
                if let Some((lock, mode)) = conflict(op, objects) {
                    let (owner, readers) = lock.holders();
                    let covered = owner == Some(txn.id())
                        || (mode == LockMode::Shared && owner.is_none() && readers > 0);
                    assert!(covered, "{op:?} not covered by the footprint of {ops:?}");
                }
            }
            for op in ops {
                let _ = Executor::run_op(&txn, op, objects);
                assert_eq!(txn.held_lock_count(), held, "{op:?} took a lock: {ops:?}");
            }
            e.tm.commit(txn);
        }
        let txn = e.tm.stats().snapshot();
        assert_eq!((txn.lock_waits, txn.lock_wait.count()), (0, 0));
    }

    #[test]
    fn a_read_only_violation_creates_only_the_objects_before_it() {
        let e = exec();
        // A counter keeps no versions: its read is the violation.
        let reads_then_write = script()
            .map_contains("a", 1)
            .counter_get("b")
            .pq_add("c", 1)
            .map_contains("d", 1);
        let out = e.execute_read_only(&reads_then_write.build());
        assert_eq!(out.status, ScriptStatus::ReadOnlyViolation);
        assert_eq!(out.failed_op, Some(1));
        assert_eq!(e.namespace().object_counts(), (1, 0, 0, 0, 0));
    }

    #[test]
    fn a_snapshot_lookahead_creates_no_map_a_rejected_script_never_reached() {
        // The lookahead sees `map_contains("d", ..)` before op 0 runs;
        // the script is rejected at op 0, so nothing may be created.
        let e = exec();
        let write_then_read = script().counter_add("c", 1).map_contains("d", 1);
        let out = e.execute_read_only(&write_then_read.build());
        assert_eq!(out.status, ScriptStatus::ReadOnlyViolation);
        assert_eq!(out.failed_op, Some(0));
        assert_eq!(e.namespace().object_counts(), (0, 0, 0, 0, 0));
    }

    #[test]
    fn a_snapshot_read_of_an_unknown_map_creates_it_and_reads_it_empty() {
        let e = exec();
        let reads = script()
            .map_contains("fresh", 1)
            .map_contains("fresh", 2)
            .build();
        let out = e.execute_read_only(&reads);
        assert_eq!(out.status, ScriptStatus::Committed);
        assert_eq!(out.results, vec![OpResult::Bool(false); 2]);
        assert_eq!(e.namespace().object_counts(), (1, 0, 0, 0, 0));
        // Created once: a later locked write and snapshot read share it.
        let seeded = e.execute(&script().map_insert("fresh", 2, 20).build());
        assert_eq!(seeded.status, ScriptStatus::Committed);
        let out = e.execute_read_only(&reads);
        assert_eq!(
            out.results,
            vec![OpResult::Bool(false), OpResult::Bool(true)]
        );
        assert_eq!(e.namespace().object_counts(), (1, 0, 0, 0, 0));
    }

    #[test]
    fn json_writer_escapes_hostile_keys_and_places_commas() {
        let mut s = String::new();
        JsonObj::write(&mut s, |o| {
            o.num("a\"b\\c\nd", 1).obj("empty", |_| {}).num("z", 2);
        });
        assert_eq!(s, "{\"a\\\"b\\\\c\\u000ad\":1,\"empty\":{},\"z\":2}");
    }

    /// Every leaf key path of the `STATS` document, in order; `#` stands
    /// for a histogram's four leaves, and the `wal.` rows appear only
    /// with a WAL attached. `benchmark/` and operators scrape these.
    const STATS_KEYS: &str = "\
        uptime_ms txn.started txn.committed txn.aborted txn.lock_timeouts txn.would_block \
        txn.explicit txn.lock_waits txn.lock_wait.# scripts.committed scripts.lock_timeout \
        scripts.would_block scripts.guard_failed scripts.debug_aborted scripts.retries_exhausted \
        scripts.read_only_violation ops.map_insert.# ops.map_remove.# ops.map_contains.# \
        ops.counter_add.# ops.counter_get.# ops.sem_acquire.# ops.sem_release.# ops.id_gen.# \
        ops.pq_add.# ops.pq_remove_min.# ops.debug_abort.# script_service.# batch.batches \
        batch.scripts batch.fallbacks connections.accepted connections.open \
        connections.proto_errors connections.accept_errors wal.records wal.batches wal.bytes \
        wal.segments_rolled wal.errors wal.replayed wal.replay_failures wal.append.# \
        wal.fsync.# mvcc.installs mvcc.snapshot_reads mvcc.gc_reclaimed mvcc.stable_ts \
        mvcc.live_readers mvcc.versioned_maps mvcc.chain_len.# mvcc.snapshot_age.# objects.maps \
        objects.counters objects.sems objects.idgens objects.pqs";

    #[test]
    fn stats_document_keeps_every_key_path_in_order() {
        let golden = |with_wal: bool| -> Vec<String> {
            let rows = STATS_KEYS.split_whitespace();
            let rows = rows.filter(|row| with_wal || !row.starts_with("wal."));
            rows.flat_map(|row| match row.strip_suffix('#') {
                Some(hist) => ["count", "mean_ns", "p50_ns", "p99_ns"]
                    .map(|leaf| format!("{hist}{leaf}"))
                    .to_vec(),
                None => vec![row.to_string()],
            })
            .collect()
        };
        let paths = |e: &Executor| -> Vec<String> {
            let json = e.stats_json();
            leaves(&json).into_iter().map(|(path, _)| path).collect()
        };
        let e = exec();
        assert_eq!(paths(&e), golden(false));
        attach_sim_wal(&e);
        assert_eq!(paths(&e), golden(true));
        e.shutdown_wal();
    }

    #[test]
    fn counts_are_exact_and_one_run_in_64_is_timed() {
        const RUNS: u32 = 200;
        let e = exec();
        let locked = script().map_insert("m", 1, 1).counter_add("c", 1).build();
        let snapshot = script().map_contains("m", 1).build();
        let adds = script()
            .counter_add("c", 1)
            .counter_add("c", 1)
            .counter_add("c", 1)
            .build();
        let doomed = script().counter_get("c").debug_abort().build();
        // Ops executed by opcode index and scripts finished, over
        // [every run, the timed runs]; the timed ones — 0, 64, 128, 192
        // — are a locked, a snapshot, a poll tick's and a locked run.
        let mut ops = [[0u64; NUM_OPCODES]; 2];
        let mut scripts = [0u64; 2];
        let mut aborted = 0;
        on_fresh_thread(|| {
            for run in 0..RUNS {
                let ran: &[usize] = if run % 10 == 9 {
                    assert_eq!(e.execute(&doomed).status, ScriptStatus::DebugAborted);
                    aborted += 1;
                    &[4]
                } else if run % 3 == 0 {
                    assert_eq!(e.execute(&locked).status, ScriptStatus::Committed);
                    &[0, 3]
                } else if run % 3 == 1 {
                    let out = e.execute_read_only(&snapshot);
                    assert_eq!(out.status, ScriptStatus::Committed);
                    &[2]
                } else {
                    let mut tick = TickRecords::default();
                    let out = e.run_in_tick(&adds, &mut tick);
                    assert!(out.status == ScriptStatus::Committed && tick.wait(&e));
                    &[3, 3, 3]
                };
                for which in 0..=usize::from(run.is_multiple_of(TIMED_EVERY)) {
                    for &opcode in ran {
                        ops[which][opcode] += 1;
                    }
                    scripts[which] += 1;
                }
            }
        });
        assert_eq!(scripts[1], 4);
        let json = e.stats_json();
        let stat = |path: &str| -> u64 {
            let found = leaves(&json).into_iter().find(|(p, _)| p == path);
            found
                .unwrap_or_else(|| panic!("{path} missing from {json}"))
                .1
        };
        for (i, (all, timed)) in ops[0].iter().zip(&ops[1]).enumerate() {
            let name = op_name(i as u8 + 1).unwrap();
            assert_eq!(stat(&format!("ops.{name}.count")), *all, "{name}");
            assert_eq!(e.op_hist[i].snapshot().count(), *timed, "{name} samples");
        }
        assert_eq!(stat("script_service.count"), scripts[0]);
        assert_eq!(e.script_hist.snapshot().count(), scripts[1]);
        assert_eq!(stat("scripts.debug_aborted"), aborted);
        assert_eq!(stat("scripts.committed"), scripts[0] - aborted);
        assert!(stat("ops.map_insert.mean_ns") > 0 && stat("script_service.mean_ns") > 0);
    }
}
