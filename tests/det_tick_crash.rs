//! Crash-at-every-tick sweep over the server's acknowledgement path.
//!
//! Two logical event loops pump poll ticks through
//! [`Batcher::run_tick`] over one [`Executor`] whose commits go to a
//! [`GroupCommitWal`] over [`SimStorage`] — the path every server reply
//! takes. Each loop multiplexes two connections, and a tick mixes what
//! the event loop serves: a guarded token transfer, counter adds (each
//! also inserting its loop's next sequence key into a map), a locked
//! read of the counters, a [`Request::ReadOnlyScript`] of the sequence
//! keys served through the `other` closure as `eventloop.rs` serves it,
//! and a ping. The scheduler interleaves the loops at every lock, undo,
//! commit and WAL yield point.
//!
//! Every storage operation is one *storage tick*. A baseline run counts
//! them; the same seeded schedule then re-runs once per storage tick
//! with the kill armed there. A reply is *seen* only if its poll tick
//! returned `true` while storage had not yet crashed: that is when the
//! event loop would have flushed it. After each run the storage is
//! rebooted, recovered and replayed into a fresh executor, and:
//!
//! * **per-connection FIFO, one reply per request** — on every tick,
//!   each loop's last (its drain tick) included;
//! * **no lost seen commit** — per loop, the recovered log holds at
//!   least the loop's seen transfers and adds (a loop's commits are in
//!   LSN order and its seen ticks are a prefix, so counts are exact);
//! * **no resurrected non-commit** — nor more than the loop committed;
//! * **no read ahead of recovery** — no seen locked read shows a
//!   counter above its recovered value, and no seen snapshot read finds
//!   more of a loop's sequence keys than the loop's recovered adds;
//! * **replay re-commits every record, tokens are conserved** — the
//!   bank holds exactly the recovered seed tokens, and each counter
//!   equals its recovered records;
//! * **recovery is idempotent**;
//! * with no crash: every tick acknowledges what it served, every
//!   commit is recovered, the in-memory counters equal the committed
//!   scripts, and `STATS` counts every tick and every locked script —
//!   also when one loop runs only its drain tick.
//!
//! Segments are 256 bytes, so a committing run rolls one, and the sweep
//! asserts that its scheduled runs reach every point in [`WAL_POINTS`].
//! `DET_SEEDS` / `DET_SWEEP_SEED` scale it like the other det suites.

use std::sync::{Arc, Mutex};

use txboost_core::{DurabilityMetrics, TxnConfig};
use txboost_sched::core_det as det;
use txboost_server::{Batcher, Executor};
use txboost_wal::{recover, GroupCommitWal, RecoveredLog, SimStorage, Storage, WalConfig};
use txboost_wire::{Guard, Op, OpResult, Request, Response, ScriptOp, ScriptStatus};

/// Tokens the first tick seeds into the bank (LSNs 1..=SEEDED).
const SEEDED: u64 = 5;
/// Key space for transfers, wider than the token count, so guards
/// exercise both outcomes.
const KEYS: u64 = 8;
/// Logical event loops sharing the executor.
const LOOPS: usize = 2;
/// Connections multiplexed per loop.
const CONNS: usize = 2;
/// Poll ticks each loop runs after the seeding tick.
const TICKS: [usize; LOOPS] = [2, 2];
/// One tick's requests, shuffled with the mutating scripts kept first:
/// a read after the tick's last record can show another loop's commit
/// that the tick's own records do not cover.
const TICK_MIX: [Kind; 6] = [
    Kind::Transfer,
    Kind::Add,
    Kind::Add,
    Kind::LockedRead,
    Kind::SnapshotRead,
    Kind::Ping,
];
/// Sequence keys a snapshot read probes per loop: every add one loop
/// can send (the longest loop's ticks times a tick's adds).
const SEQ_KEYS: u64 = 4;
/// Records per fsync in the sweep: the seeding spans three fsyncs, and
/// a tick's records often more than one, so a crash can split either.
const SPLIT_BATCHES: usize = 2;
/// Records per fsync in the ack-before-sync check: the server's
/// default, so a leader takes everything pending and a loop waiting
/// behind it is covered by the leader's early watermark.
const WHOLE_BATCHES: usize = 64;
/// The WAL's yield points. The sweep must reach each one, the segment
/// roll included, so a hook removed from the log fails it.
const WAL_POINTS: [det::Point; 4] = [
    det::Point::WalAppend,
    det::Point::WalLead,
    det::Point::WalFsync,
    det::Point::WalSegmentRoll,
];

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    /// One of the first tick's token inserts.
    Seed,
    Transfer,
    Add,
    LockedRead,
    SnapshotRead,
    Ping,
}

/// Commits by kind: `[transfers, adds]` (seeds count as adds).
type Counts = [u64; 2];

/// The counter loop `l`'s transfers (`kind` 0) or adds (1) bump.
fn counter(kind: usize, l: usize) -> String {
    format!("{}{l}", ["applied", "hits"][kind])
}

/// The map loop `l`'s adds insert their sequence keys into.
fn seq_map(l: usize) -> String {
    format!("seq{l}")
}

fn exec() -> Executor {
    Executor::new(TxnConfig::default(), 4)
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The request a `kind` sends from loop `l`; an add inserts sequence
/// key `seq`.
fn request(kind: Kind, l: usize, req_id: u64, seq: u64, rng: &mut u64) -> Request {
    let bank = |key: u64, op: fn(String, i64) -> Op, guard| {
        ScriptOp::guarded(op("bank".into(), key as i64), guard)
    };
    let insert = |obj, key| Op::MapInsert { obj, key, val: 1 };
    let remove = |obj, key| Op::MapRemove { obj, key };
    let add = |kind| {
        let obj = counter(kind, l);
        ScriptOp::new(Op::CounterAdd { obj, delta: 1 })
    };
    let ops = match kind {
        Kind::Seed => vec![bank(req_id, insert, Guard::ExpectNone)],
        Kind::Transfer => {
            let from = splitmix64(rng) % KEYS;
            let to = (from + 1 + splitmix64(rng) % (KEYS - 1)) % KEYS;
            let take = bank(from, remove, Guard::ExpectSome);
            vec![take, bank(to, insert, Guard::ExpectNone), add(0)]
        }
        Kind::Add => {
            assert!(seq < SEQ_KEYS, "a snapshot read would miss key {seq}");
            let key = seq as i64;
            vec![add(1), ScriptOp::new(insert(seq_map(l), key))]
        }
        Kind::LockedRead => (0..LOOPS)
            .map(|l| ScriptOp::new(Op::CounterGet { obj: counter(1, l) }))
            .collect(),
        Kind::SnapshotRead => (0..LOOPS)
            .flat_map(|l| (0..SEQ_KEYS as i64).map(move |key| (seq_map(l), key)))
            .map(|(obj, key)| ScriptOp::new(Op::MapContains { obj, key }))
            .collect(),
        Kind::Ping => return Request::Ping { req_id },
    };
    if kind == Kind::SnapshotRead {
        Request::ReadOnlyScript { req_id, ops }
    } else {
        Request::Script { req_id, ops }
    }
}

/// What a request was, so its reply can be accounted for.
#[derive(Debug, Clone, Copy)]
struct Sent {
    kind: Kind,
    conn: usize,
    req_id: u64,
}

/// Loop `l`'s `tick`-th request stream: [`TICK_MIX`] shuffled, dealt
/// to the connections in turn, so consecutive requests usually belong
/// to different connections. Request ids count per connection, and
/// the loop's adds number its sequence keys from `tick` times a tick's
/// adds.
fn tick_requests(l: usize, tick: usize, rng: &mut u64) -> Vec<(Sent, Request)> {
    let mut kinds = TICK_MIX;
    for i in (1..kinds.len()).rev() {
        kinds.swap(i, (splitmix64(rng) % (i as u64 + 1)) as usize);
    }
    kinds.sort_by_key(|&kind| !matches!(kind, Kind::Transfer | Kind::Add));
    let per_conn = TICK_MIX.len() / CONNS;
    let sends = kinds.into_iter().enumerate().map(|(i, kind)| Sent {
        kind,
        conn: i % CONNS,
        req_id: (tick * per_conn + i / CONNS) as u64,
    });
    let adds = TICK_MIX.iter().filter(|&&kind| kind == Kind::Add).count();
    let mut seq = (tick * adds) as u64;
    sends
        .map(|sent| {
            let req = request(sent.kind, l, sent.req_id, seq, rng);
            seq += u64::from(sent.kind == Kind::Add);
            (sent, req)
        })
        .collect()
}

/// Serve a non-script request the way the event loop's `other`
/// closure does.
fn serve_other(exec: &Executor, req: Request) -> Response {
    let reply = |req_id, out: txboost_server::ScriptOutcome| Response::Script {
        req_id,
        status: out.status,
        attempts: out.attempts,
        failed_op: out.failed_op,
        results: out.results,
    };
    match req {
        Request::Ping { req_id } => Response::Pong { req_id },
        Request::ReadOnlyScript { req_id, ops } => reply(req_id, exec.execute_read_only(&ops)),
        Request::Script { req_id, ops } => reply(req_id, exec.execute(&ops)),
        other => panic!("the sweep sends no {other:?}"),
    }
}

/// What one loop (or the seeding tick) committed and its clients saw.
#[derive(Debug, Default, Clone)]
struct LoopLog {
    committed: Counts,
    seen: Counts,
    /// Every seen read, per loop — a locked read's `hits` values, a
    /// snapshot's count of present sequence keys — and whether it was
    /// a snapshot.
    reads: Vec<(Vec<i64>, bool)>,
}

/// Run one tick, check its replies and account for them in `log`.
fn pump_tick(
    exec: &Executor,
    storage: &SimStorage,
    requests: Vec<(Sent, Request)>,
    log: &mut LoopLog,
) {
    let expect = requests.len();
    let mut replies: Vec<(Sent, Response)> = Vec::new();
    let durable = Batcher.run_tick(
        exec,
        requests,
        |req| serve_other(exec, req),
        |sent, resp| replies.push((sent, resp)),
    );
    let seen = durable && !storage.crashed();
    assert_eq!(replies.len(), expect, "one reply per request");
    for conn in 0..CONNS {
        let ids = replies.iter().filter(|(sent, _)| sent.conn == conn);
        let ids: Vec<u64> = ids.map(|(sent, _)| sent.req_id).collect();
        let fifo = ids.windows(2).all(|w| w[0] < w[1]);
        assert!(fifo, "conn {conn}: replies out of FIFO order: {ids:?}");
    }
    for (sent, resp) in replies {
        let (req_id, status, results) = match resp {
            Response::Script {
                req_id,
                status,
                results,
                ..
            } => (req_id, status, results),
            Response::Pong { req_id } if sent.kind == Kind::Ping => {
                (req_id, ScriptStatus::Committed, Vec::new())
            }
            other => panic!("{sent:?}: unexpected reply {other:?}"),
        };
        assert_eq!(req_id, sent.req_id, "a reply to the wrong request");
        let committed = status == ScriptStatus::Committed;
        match sent.kind {
            Kind::Ping => {}
            // A transfer's guards may fail; nothing else may.
            Kind::Transfer if !committed => assert_eq!(status, ScriptStatus::GuardFailed),
            Kind::LockedRead | Kind::SnapshotRead => {
                assert!(committed, "{status:?}");
                let snapshot = sent.kind == Kind::SnapshotRead;
                let read = if snapshot {
                    let present = |keys: &[OpResult]| {
                        let present = keys.iter().filter(|&r| *r == OpResult::Bool(true));
                        present.count() as i64
                    };
                    results.chunks(SEQ_KEYS as usize).map(present).collect()
                } else {
                    let value = |r: &OpResult| match r {
                        OpResult::Value(Some(v)) => *v,
                        other => panic!("a counter read {other:?}"),
                    };
                    results.iter().map(value).collect()
                };
                if seen {
                    log.reads.push((read, snapshot));
                }
            }
            kind => {
                assert!(committed, "{kind:?}: {status:?}");
                let i = usize::from(kind != Kind::Transfer);
                log.committed[i] += 1;
                log.seen[i] += u64::from(seen);
            }
        }
    }
}

/// The bank's tokens, and each loop's `[applied, hits]` counters.
fn census(exec: &Executor) -> (u64, [[i64; LOOPS]; 2]) {
    let read = |op| match exec.execute(&[ScriptOp::new(op)]).results[..] {
        [OpResult::Value(Some(v))] => v,
        [OpResult::Bool(present)] => i64::from(present),
        ref other => panic!("a census read {other:?}"),
    };
    let tokens = (0..KEYS as i64).map(|key| {
        let obj = "bank".into();
        read(Op::MapContains { obj, key }) as u64
    });
    let counters =
        [0, 1].map(|i| std::array::from_fn(|l| read(Op::CounterGet { obj: counter(i, l) })));
    (tokens.sum(), counters)
}

/// Everything one (seed, kill tick) run leaves behind for checking.
struct RunResult {
    storage: Arc<SimStorage>,
    seeding: LoopLog,
    /// Per loop, in loop order.
    loops: Vec<LoopLog>,
    ticks: u64,
    /// The scheduled run's report; `None` if the log never opened.
    report: Option<txboost_sched::RunReport>,
}

impl RunResult {
    fn committed(&self) -> u64 {
        let loops = self.loops.iter().flat_map(|log| log.committed);
        self.seeding.committed[1] + loops.sum::<u64>()
    }
}

/// One run: open the log, seed the bank in one tick (un-scheduled),
/// run the loops under the seeded scheduler, close the log. `kill_at`
/// arms the storage kill switch at that 1-based storage tick; `staged`
/// holds the mutations the scheduled run starts with (the seeding runs
/// before it, so it is always honest). A run with no kill also checks
/// the in-memory state and `STATS`.
fn run_once(
    seed: u64,
    kill_at: Option<u64>,
    staged: &[det::Mutation],
    batch_max: usize,
    ticks: [usize; LOOPS],
) -> RunResult {
    let storage = Arc::new(SimStorage::new(seed));
    if let Some(tick) = kill_at {
        storage.arm_kill(tick);
    }
    let mut run = RunResult {
        storage: Arc::clone(&storage),
        seeding: LoopLog::default(),
        loops: vec![LoopLog::default(); LOOPS],
        ticks: 0,
        report: None,
    };
    // The writer's floor: the seeding fits one segment, and a run that
    // commits a transfer rolls it under the scheduler.
    let cfg = WalConfig {
        batch_max,
        segment_bytes: 256,
    };
    let metrics = Arc::new(DurabilityMetrics::new());
    // The log fails to open if the kill lands in segment creation: that
    // run crashed before the server came up.
    let wal = GroupCommitWal::new(Arc::clone(&storage) as Arc<dyn Storage>, &cfg, 1, metrics);
    if let Ok(wal) = wal {
        let exec = exec();
        exec.attach_wal(Arc::new(wal));
        let seeding = (0..SEEDED).map(|req_id| {
            let sent = Sent {
                kind: Kind::Seed,
                conn: 0,
                req_id,
            };
            (sent, request(Kind::Seed, 0, req_id, 0, &mut 0))
        });
        pump_tick(&exec, &storage, seeding.collect(), &mut run.seeding);

        let logs = Mutex::new(vec![LoopLog::default(); LOOPS]);
        let report = txboost_sched::run_staged(seed, LOOPS, staged, |l| {
            let mut rng = seed ^ (l as u64 + 1).wrapping_mul(0x9E37_79B9);
            let mut log = LoopLog::default();
            for tick in 0..ticks[l] {
                det::yield_point(det::Point::User);
                let requests = tick_requests(l, tick, &mut rng);
                pump_tick(&exec, &storage, requests, &mut log);
            }
            logs.lock().unwrap()[l] = log;
        });
        let ctx = format!("seed {seed} kill {kill_at:?}");
        assert!(!report.failed(), "{ctx}: {}", report.render_failure());
        run.loops = logs.into_inner().unwrap();
        run.report = Some(report);
        // The loops are gone: close the log, as `Server::join` does.
        exec.shutdown_wal();
        if kill_at.is_none() {
            let (tokens, counters) = census(&exec);
            assert_eq!(tokens, SEEDED, "{ctx}: tokens in memory");
            for (l, log) in run.loops.iter().enumerate() {
                let kept = counters.map(|c| c[l] as u64);
                assert_eq!(kept, log.committed, "{ctx}: loop {l}'s counters");
            }
            // The seeding tick and every loop tick, with their locked
            // scripts: all but the ping and the snapshot read.
            let loop_ticks: usize = ticks.iter().sum();
            let scripts = SEEDED as usize + loop_ticks * (TICK_MIX.len() - 2);
            let batches = 1 + loop_ticks;
            let batch = format!("\"batch\":{{\"batches\":{batches},\"scripts\":{scripts},");
            assert!(exec.stats_json().contains(&batch), "{ctx}: STATS batch");
        }
    }
    run.ticks = storage.op_count();
    run
}

/// What recovery rebuilt, counted by who sent it.
struct Recovered {
    log: RecoveredLog,
    seeds: u64,
    /// Per loop.
    counts: [Counts; LOOPS],
}

/// Reboot, recover and sort the recovered records by who sent them.
fn recover_run(run: &RunResult, ctx: &str) -> Recovered {
    run.storage.reboot();
    let log = recover(run.storage.as_ref())
        .unwrap_or_else(|e| panic!("{ctx}: recovery must not fail on healthy storage: {e}"));
    let (mut seeds, mut counts) = (0, [[0; 2]; LOOPS]);
    for record in &log.records {
        let bumped = record.ops.iter().find_map(|sop| match &sop.op {
            Op::CounterAdd { obj, .. } => Some(obj),
            _ => None,
        });
        let Some(name) = bumped else {
            seeds += 1;
            continue;
        };
        let mut owners = (0..LOOPS).flat_map(|l| [(l, 0), (l, 1)]);
        let (l, i) = owners
            .find(|&(l, i)| *name == counter(i, l))
            .unwrap_or_else(|| panic!("{ctx}: a record bumps {name}"));
        counts[l][i] += 1;
    }
    Recovered { log, seeds, counts }
}

/// What recovery lost of the replies clients saw, if anything: a seen
/// commit, or a commit that a seen read showed.
fn lost_a_seen_reply(run: &RunResult, rec: &Recovered) -> Option<String> {
    if rec.seeds < run.seeding.seen[1] {
        return Some(format!(
            "{} seen seeds, {} recovered",
            run.seeding.seen[1], rec.seeds
        ));
    }
    let hits: Vec<i64> = rec.counts.iter().map(|c| c[1] as i64).collect();
    for (l, (log, kept)) in run.loops.iter().zip(&rec.counts).enumerate() {
        if log.seen.iter().zip(kept).any(|(seen, kept)| seen > kept) {
            let seen = log.seen;
            return Some(format!(
                "loop {l} saw {seen:?} [transfers, adds], recovered {kept:?}"
            ));
        }
        let ahead = |(read, _): &&(Vec<i64>, bool)| read.iter().zip(&hits).any(|(r, h)| r > h);
        if let Some((read, snapshot)) = log.reads.iter().find(ahead) {
            let kind = if *snapshot { "snapshot" } else { "locked" };
            return Some(format!(
                "loop {l} saw a {kind} read {read:?}, recovered {hits:?}"
            ));
        }
    }
    None
}

/// Reboot, recover, replay, and check every invariant in the module
/// docs. Returns the recovered records.
fn check_recovery(run: &RunResult, ctx: &str) -> Recovered {
    let rec = recover_run(run, ctx);
    if let Some(loss) = lost_a_seen_reply(run, &rec) {
        panic!("{ctx}: {loss}");
    }
    assert!(
        rec.seeds <= run.seeding.committed[1],
        "{ctx}: a seed resurrected"
    );
    for (l, (log, kept)) in run.loops.iter().zip(&rec.counts).enumerate() {
        let invented = log.committed.iter().zip(kept).any(|(c, k)| k > c);
        assert!(
            !invented,
            "{ctx}: loop {l} recovered more than it committed"
        );
    }
    // Seeding ran first, so its records are the log's head.
    let records = rec.log.records.len() as u64;
    assert_eq!(rec.seeds, records.min(SEEDED), "{ctx}: seed records");

    let replayed = exec();
    let failures = rec.log.replay(|record| replayed.replay_record(record));
    assert_eq!(failures, 0, "{ctx}: replay must re-commit every record");
    let (tokens, counters) = census(&replayed);
    assert_eq!(tokens, rec.seeds, "{ctx}: token conservation violated");
    for (l, kept) in rec.counts.iter().enumerate() {
        let rebuilt = counters.map(|c| c[l] as u64);
        assert_eq!(
            &rebuilt, kept,
            "{ctx}: loop {l}'s counters must equal its records"
        );
    }

    // Idempotence: a second recovery finds a clean log, same records.
    let again = recover(run.storage.as_ref())
        .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
    assert_eq!(
        again.records, rec.log.records,
        "{ctx}: recovery not idempotent"
    );
    assert_eq!(
        again.report.truncated_at, None,
        "{ctx}: a dirty first recovery"
    );
    rec
}

/// The checks of a run with no crash: recovery holds every commit, and
/// every tick, the seeding tick included, acknowledged what it served.
fn check_clean_run(run: &RunResult, ctx: &str) -> Recovered {
    let rec = check_recovery(run, ctx);
    let records = rec.log.records.len() as u64;
    assert_eq!(records, run.committed(), "{ctx}: a clean run lost a commit");
    let logs = std::iter::once(&run.seeding).chain(&run.loops);
    for (i, log) in logs.enumerate() {
        assert_eq!(
            log.seen, log.committed,
            "{ctx}: log {i} left a tick unacked"
        );
    }
    rec
}

/// With no crash, batched ticks keep each connection's replies in FIFO
/// order with one reply per request (`pump_tick`), the counters and
/// `STATS` count every commit, tick and locked script (`run_once`),
/// and the log recovers every commit.
#[test]
fn batched_ticks_preserve_fifo_and_conservation() {
    for seed in txboost_sched::seeds_from_env(12) {
        let run = run_once(seed, None, &[], SPLIT_BATCHES, TICKS);
        check_clean_run(&run, &format!("seed {seed}"));
    }
}

/// Drain completeness: loop 0 runs only its last tick, the one that
/// serves what it decoded before shutdown, racing the other loop's
/// ticks. It must execute, answer and acknowledge every request before
/// the log closes.
#[test]
fn drain_tick_with_sealed_batch_executes_everything() {
    let reads = TICK_MIX
        .iter()
        .filter(|&&kind| matches!(kind, Kind::LockedRead | Kind::SnapshotRead));
    let adds = TICK_MIX.iter().filter(|&&kind| kind == Kind::Add);
    let (reads, adds) = (reads.count(), adds.count() as u64);
    for seed in txboost_sched::seeds_from_env(8) {
        let run = run_once(seed, None, &[], SPLIT_BATCHES, [1, TICKS[1]]);
        let ctx = format!("seed {seed}");
        let rec = check_clean_run(&run, &ctx);
        let drain = &run.loops[0];
        assert_eq!(drain.committed[1], adds, "{ctx}: the drain tick's adds");
        assert_eq!(drain.reads.len(), reads, "{ctx}: the drain tick's reads");
        assert_eq!(rec.counts[0], drain.committed, "{ctx}: drain records");
    }
}

/// The crash sweep: every storage tick of every seed's schedule is
/// killed in turn, and each run must recover a prefix that holds every
/// reply a client saw and nothing that never committed.
#[test]
fn crash_at_every_tick_recovers_a_committed_prefix() {
    // The sweep must visit the interesting regimes, or the invariants
    // above are vacuous.
    let (mut saw_seen_commit, mut saw_volatile_loss, mut saw_partial_seed) = (false, false, false);
    // A seen [locked, snapshot] read that showed the other loop's adds.
    let mut saw_cross_read = [false; 2];
    let mut unreached = WAL_POINTS.to_vec();

    for seed in txboost_sched::seeds_from_env(3) {
        let baseline = run_once(seed, None, &[], SPLIT_BATCHES, TICKS);
        let ticks = baseline.ticks;
        if let Some(report) = &baseline.report {
            unreached.retain(|&point| !report.reached(point));
        }
        // Opening the log is three ops; seeding leads three batches of
        // an append and an fsync each. The loops' commits add theirs.
        assert!(
            ticks >= 9,
            "seed {seed}: workload too small ({ticks} ticks)"
        );
        check_clean_run(&baseline, &format!("seed {seed} (no crash)"));

        for kill in 1..=ticks {
            let run = run_once(seed, Some(kill), &[], SPLIT_BATCHES, TICKS);
            let rec = check_recovery(&run, &format!("seed {seed} kill tick {kill}/{ticks}"));
            let records = rec.log.records.len() as u64;
            saw_seen_commit |= run.loops.iter().any(|log| log.seen != [0, 0]);
            saw_volatile_loss |= records < run.committed();
            saw_partial_seed |= records < SEEDED;
            for (l, log) in run.loops.iter().enumerate() {
                for (read, snapshot) in &log.reads {
                    let other = read.iter().enumerate().any(|(o, &v)| o != l && v > 0);
                    saw_cross_read[usize::from(*snapshot)] |= other;
                }
            }
        }
    }

    assert!(saw_seen_commit, "no killed run saw a commit: no teeth");
    assert!(
        saw_volatile_loss,
        "no crash lost a commit: kill switch inert?"
    );
    assert!(saw_partial_seed, "no crash landed inside the seeding");
    assert_eq!(
        saw_cross_read, [true; 2],
        "[locked, snapshot] reads of another loop"
    );
    assert!(
        unreached.is_empty(),
        "no scheduled run reached {unreached:?}"
    );
}

/// Teeth check: the invariant machinery must *fail* when storage lies.
/// Delete the oldest segment after a healthy run, dropping committed
/// records, and require the recovery checks to reject the result.
#[test]
fn mutation_losing_the_log_head_is_caught() {
    let run = run_once(1, None, &[], SPLIT_BATCHES, TICKS);
    run.storage.reboot();
    let ids = run.storage.list_segments().expect("list");
    run.storage.delete_segment(ids[0]).expect("delete head");
    let check = std::panic::AssertUnwindSafe(|| check_recovery(&run, "head deleted").seeds);
    let caught = std::panic::catch_unwind(check);
    assert!(caught.is_err(), "destroying the log head must be detected");
}

/// Teeth check for ack-after-durable: with the log's watermark staged
/// to move *before* the fsync that covers it, a loop whose tick waits
/// behind the leader returns `true` while the records its replies show
/// sit in the page cache, and some kill tick must lose a reply a client
/// saw.
#[test]
fn mutation_acking_before_the_fsync_is_caught() {
    let staged = [det::Mutation::AckBeforeSync];
    let caught = txboost_sched::seeds_from_env(16).any(|seed| {
        let ticks = run_once(seed, None, &staged, WHOLE_BATCHES, TICKS).ticks;
        (1..=ticks).any(|kill| {
            let run = run_once(seed, Some(kill), &staged, WHOLE_BATCHES, TICKS);
            lost_a_seen_reply(&run, &recover_run(&run, "ack before sync")).is_some()
        })
    });
    assert!(caught, "an ack before the fsync must lose a seen reply");
}
