//! Crash-at-every-tick WAL recovery sweep.
//!
//! The deterministic scheduler makes "does recovery work after a crash
//! at *any* point?" an enumerable question. One run = guarded token
//! transfers through a WAL-attached server executor over
//! [`SimStorage`]; whichever logical thread waits on a pending record
//! leads the group-commit flush, and the others queue behind it.
//! Every storage operation (create/append/sync/truncate/delete) is one
//! *tick*; a baseline run counts the ticks, then the same seeded
//! schedule is re-run once per tick with the kill switch armed there.
//! After each simulated crash the storage is rebooted, recovered, and
//! replayed into a fresh executor, which must satisfy:
//!
//! * **no lost acked commit** — every script acknowledged as durable
//!   is in the recovered prefix;
//! * **no resurrected non-commit** — the prefix holds only scripts
//!   that actually committed;
//! * **committed-prefix consistency** — replaying the prefix in LSN
//!   order re-commits every record (guards hold), and the rebuilt
//!   state obeys token conservation exactly:
//!   `tokens = min(records, SEEDED)`, `transfers = records - SEEDED`;
//! * **idempotence** — recovering again changes nothing.
//!
//! Segments are 256 bytes, so a run that commits a transfer rolls one
//! under the scheduler, and the sweep asserts that its scheduled runs
//! reach every WAL yield point in [`WAL_POINTS`].
//!
//! `DET_SEEDS` / `DET_SWEEP_SEED` scale the sweep in CI exactly like
//! the other deterministic suites.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use txboost_core::{DurabilityMetrics, TxnConfig};
use txboost_sched::core_det as det;
use txboost_server::Executor;
use txboost_wal::{recover, GroupCommitWal, SimStorage, Storage, WalConfig};
use txboost_wire::{Guard, Op, OpResult, ScriptOp, ScriptStatus};

/// Tokens seeded into the bank (records with LSN 1..=SEEDED).
const SEEDED: u64 = 5;
/// Key space for transfers (wider than the token count, so guards
/// exercise both outcomes).
const KEYS: i64 = 8;
/// Transfer-issuing logical threads.
const WORKERS: usize = 2;
/// Transfers each worker attempts per run.
const TRANSFERS: usize = 3;
/// The WAL's yield points. The concurrent sweep must reach each one,
/// the segment roll included, so a hook removed from the log fails it.
const WAL_POINTS: [det::Point; 4] = [
    det::Point::WalAppend,
    det::Point::WalLead,
    det::Point::WalFsync,
    det::Point::WalSegmentRoll,
];

fn exec() -> Executor {
    Executor::new(TxnConfig::default(), 4)
}

fn op(op: Op) -> ScriptOp {
    ScriptOp::new(op)
}

fn seed_script(key: i64) -> Vec<ScriptOp> {
    vec![ScriptOp::guarded(
        Op::MapInsert {
            obj: "bank".into(),
            key,
            val: 1,
        },
        Guard::ExpectNone,
    )]
}

fn transfer_script(from: i64, to: i64) -> Vec<ScriptOp> {
    vec![
        ScriptOp::guarded(
            Op::MapRemove {
                obj: "bank".into(),
                key: from,
            },
            Guard::ExpectSome,
        ),
        ScriptOp::guarded(
            Op::MapInsert {
                obj: "bank".into(),
                key: to,
                val: 1,
            },
            Guard::ExpectNone,
        ),
        op(Op::CounterAdd {
            obj: "applied".into(),
            delta: 1,
        }),
    ]
}

fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

struct Shared {
    exec: Executor,
    /// Scripts whose reply carried `wal_durable == Some(true)`.
    acked: AtomicU64,
    /// Mutating scripts that committed (durably or not).
    committed: AtomicU64,
}

/// Everything one (seed, kill tick) run leaves behind for checking.
struct RunResult {
    storage: Arc<SimStorage>,
    acked: u64,
    committed: u64,
    ticks: u64,
    /// The scheduled run's report; `None` if the log never opened.
    report: Option<txboost_sched::RunReport>,
}

/// One deterministic run: seed the bank (setup, un-scheduled), then
/// WORKERS transfer threads under the seeded scheduler. `kill_at` arms
/// the storage kill switch at that 1-based tick; `None` runs to
/// completion. `staged` holds the mutations the scheduled run starts
/// with (the seeding runs before it, so it is always honest).
fn run_once(seed: u64, kill_at: Option<u64>, staged: &[det::Mutation]) -> RunResult {
    let storage = Arc::new(SimStorage::new(seed));
    if let Some(tick) = kill_at {
        storage.arm_kill(tick);
    }
    let exec = exec();
    let mut acked = 0u64;
    let mut committed = 0u64;
    let mut scheduled = None;

    // The WAL itself may fail to open if the kill tick lands inside
    // segment creation — that run is "crashed before the server came
    // up" and goes straight to the recovery check.
    let wal = GroupCommitWal::new(
        Arc::clone(&storage) as Arc<dyn Storage>,
        &WalConfig {
            batch_max: 2,
            // The writer's floor: the seeding fits one segment, and a
            // run that commits a transfer rolls it under the scheduler.
            segment_bytes: 256,
        },
        1,
        Arc::new(DurabilityMetrics::new()),
    );
    if let Ok(wal) = wal {
        let wal = Arc::new(wal);
        // Seed deterministically, single-threaded, before the
        // scheduler: in-memory commit via the executor (WAL not yet
        // attached), matching log record enqueued by hand.
        let mut tickets = Vec::new();
        for key in 0..i64::try_from(SEEDED).unwrap_or(i64::MAX) {
            let ops = seed_script(key);
            if exec.execute(&ops).status == ScriptStatus::Committed {
                committed += 1;
                tickets.push(wal.enqueue(&ops));
            }
        }
        acked += tickets.iter().filter(|t| t.wait()).count() as u64;
        exec.attach_wal(Arc::clone(&wal));

        let shared = Shared {
            exec,
            acked: AtomicU64::new(0),
            committed: AtomicU64::new(0),
        };
        let report = txboost_sched::run_staged(seed, WORKERS, staged, |tid| {
            let mut rng = seed ^ (tid as u64).wrapping_mul(0x9E37_79B9);
            for _ in 0..TRANSFERS {
                det::yield_point(det::Point::User);
                let from = (splitmix64(&mut rng) % KEYS as u64) as i64;
                let mut to = (splitmix64(&mut rng) % KEYS as u64) as i64;
                if to == from {
                    to = (to + 1) % KEYS;
                }
                let out = shared.exec.execute(&transfer_script(from, to));
                if out.status == ScriptStatus::Committed {
                    shared.committed.fetch_add(1, Ordering::Relaxed);
                    if out.wal_durable == Some(true) {
                        shared.acked.fetch_add(1, Ordering::Relaxed);
                    }
                }
            }
        });
        assert!(
            !report.failed(),
            "seed {seed} kill {kill_at:?}: {}",
            report.render_failure()
        );
        acked += shared.acked.load(Ordering::Relaxed);
        committed += shared.committed.load(Ordering::Relaxed);
        // Every worker waited for its own records: nothing is pending.
        wal.shutdown();
        scheduled = Some(report);
    }

    RunResult {
        ticks: storage.op_count(),
        storage,
        acked,
        committed,
        report: scheduled,
    }
}

/// Reboot, recover, replay, and check every invariant in the module
/// docs. Returns the recovered record count.
fn check_recovery(run: &RunResult, ctx: &str) -> u64 {
    run.storage.reboot();
    let log = recover(run.storage.as_ref())
        .unwrap_or_else(|e| panic!("{ctx}: recovery must not fail on healthy storage: {e}"));
    let records = log.records.len() as u64;

    assert!(
        run.acked <= records,
        "{ctx}: lost acked commits: acked {} > recovered {records}",
        run.acked
    );
    assert!(
        records <= run.committed,
        "{ctx}: recovered {records} records but only {} scripts committed",
        run.committed
    );

    let replayed = exec();
    let failures = log.replay(|record| replayed.replay_record(record));
    assert_eq!(
        failures, 0,
        "{ctx}: replaying the committed prefix must re-commit every record"
    );

    // Token conservation over the rebuilt state.
    let mut tokens = 0u64;
    for key in 0..KEYS {
        let probe = replayed.execute(&[op(Op::MapContains {
            obj: "bank".into(),
            key,
        })]);
        assert_eq!(probe.status, ScriptStatus::Committed, "{ctx}");
        if probe.results == vec![OpResult::Bool(true)] {
            tokens += 1;
        }
    }
    assert_eq!(
        tokens,
        records.min(SEEDED),
        "{ctx}: token conservation violated ({records} records)"
    );
    let applied = replayed.execute(&[op(Op::CounterGet {
        obj: "applied".into(),
    })]);
    assert_eq!(
        applied.results,
        vec![OpResult::Value(Some(
            i64::try_from(records.saturating_sub(SEEDED)).unwrap_or(i64::MAX)
        ))],
        "{ctx}: transfer counter must equal recovered transfer records"
    );

    // Idempotence: a second recovery finds a clean log and the same
    // records.
    let again = recover(run.storage.as_ref())
        .unwrap_or_else(|e| panic!("{ctx}: second recovery failed: {e}"));
    assert_eq!(again.records, log.records, "{ctx}: recovery not idempotent");
    assert_eq!(
        again.report.truncated_at, None,
        "{ctx}: first recovery left a dirty log"
    );
    records
}

#[test]
fn crash_at_every_tick_recovers_a_committed_prefix() {
    // Aggregate coverage counters: the sweep must actually visit the
    // interesting regimes, or the invariants above are vacuous.
    let mut saw_ack = false;
    let mut saw_volatile_loss = false;
    let mut saw_partial_seed = false;
    let mut unreached = WAL_POINTS.to_vec();

    for seed in txboost_sched::seeds_from_env(4) {
        let baseline = run_once(seed, None, &[]);
        let ticks = baseline.ticks;
        if let Some(report) = &baseline.report {
            unreached.retain(|&point| !report.reached(point));
        }
        // Opening the log is three ops; seeding leads three batches of
        // an append and an fsync each. The workers' commits add theirs.
        assert!(
            ticks >= 9,
            "seed {seed}: workload too small ({ticks} ticks)"
        );
        let recovered = check_recovery(&baseline, &format!("seed {seed} (no crash)"));
        assert_eq!(
            recovered, baseline.committed,
            "seed {seed}: a clean shutdown must recover every commit"
        );

        for kill in 1..=ticks {
            let run = run_once(seed, Some(kill), &[]);
            let ctx = format!("seed {seed} kill tick {kill}/{ticks}");
            let records = check_recovery(&run, &ctx);
            saw_ack |= run.acked > 0;
            saw_volatile_loss |= records < run.committed;
            saw_partial_seed |= records < SEEDED;
        }
    }

    assert!(saw_ack, "no killed run acked anything — sweep has no teeth");
    assert!(
        saw_volatile_loss,
        "no crash ever lost volatile records — kill switch inert?"
    );
    assert!(
        saw_partial_seed,
        "no crash landed inside seeding — tick space not covered"
    );
    assert!(
        unreached.is_empty(),
        "no scheduled run reached {unreached:?}"
    );
}

/// Teeth check: the invariant machinery must *fail* when storage lies.
/// Delete the oldest segment after a healthy run (dropping committed
/// records below the watermark without a snapshot) and assert the
/// committed-prefix checks reject the result.
#[test]
fn mutation_losing_the_log_head_is_caught() {
    let run = run_once(1, None, &[]);
    run.storage.reboot();
    let ids = run.storage.list_segments().expect("list");
    assert!(!ids.is_empty());
    run.storage.delete_segment(ids[0]).expect("delete head");
    let log = recover(run.storage.as_ref()).expect("recover");
    let caught = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let replayed = exec();
        let failures = log.replay(|record| replayed.replay_record(record));
        assert_eq!(failures, 0);
        assert!(log.records.len() as u64 >= run.acked);
    }))
    .is_err();
    let lost_everything = log.records.is_empty() && run.acked > 0;
    assert!(
        caught || lost_everything,
        "destroying the log head must be detected"
    );
}

/// Teeth check for ack-after-durable: with the log's watermark staged
/// to move *before* the fsync that covers it, a thread queued behind
/// the leader is acknowledged while its record sits in the page cache,
/// and some kill tick must lose it — the sweep's first invariant
/// (`acked <= recovered`) has to notice.
#[test]
fn mutation_acking_before_the_fsync_is_caught() {
    // About three seeds in five stage the race; `any` stops at the first.
    let caught = txboost_sched::seeds_from_env(16).any(|seed| {
        let ticks = run_once(seed, None, &[det::Mutation::AckBeforeSync]).ticks;
        (1..=ticks).any(|kill| {
            let run = run_once(seed, Some(kill), &[det::Mutation::AckBeforeSync]);
            run.storage.reboot();
            let log = recover(run.storage.as_ref()).expect("recover");
            (log.records.len() as u64) < run.acked
        })
    });
    assert!(caught, "an ack before the fsync must lose an acked commit");
}
