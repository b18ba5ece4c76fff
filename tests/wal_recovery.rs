//! Recovery idempotence and crash-*during*-recovery determinism.
//!
//! Recovery is itself a sequence of storage operations (reads,
//! truncates, deletes), any of which the machine can die under. These
//! tests build a log with a torn tail (a flush killed mid-batch), then:
//!
//! * recover twice — record lists, segment bytes, and replayed object
//!   state must be identical;
//! * re-run the scenario once per recovery tick with the kill switch
//!   armed there — the interrupted recovery must never panic, and a
//!   follow-up recovery must converge to exactly the baseline records.
//!
//! `SimStorage` is deterministic per seed, so "re-run the scenario" is
//! exact: same crash, same torn tail, same recovery op sequence.

use std::sync::Arc;

use txboost_core::{DurabilityMetrics, TxnConfig};
use txboost_server::Executor;
use txboost_wal::{recover, GroupCommitWal, RecoveredLog, SimStorage, Storage, WalConfig};
use txboost_wire::{Guard, Op, OpResult, ScriptOp, ScriptStatus};

const DURABLE_RECORDS: i64 = 12;
const TORN_RECORDS: i64 = 5;

fn script(k: i64) -> Vec<ScriptOp> {
    vec![ScriptOp::guarded(
        Op::MapInsert {
            obj: "bank".into(),
            key: k,
            val: 1,
        },
        Guard::ExpectNone,
    )]
}

/// Build a log, then kill the machine mid-flush of a final batch so
/// the last segment ends in a torn tail. Returns rebooted storage —
/// deterministic per `seed`.
fn crashed_storage(seed: u64) -> Arc<SimStorage> {
    let storage = Arc::new(SimStorage::new(seed));
    let wal = GroupCommitWal::new(
        Arc::clone(&storage) as Arc<dyn Storage>,
        &WalConfig {
            batch_max: 3,
            segment_bytes: 256,
        },
        1,
        Arc::new(DurabilityMetrics::new()),
    )
    .expect("create wal");
    let tickets: Vec<_> = (0..DURABLE_RECORDS)
        .map(|k| wal.enqueue(&script(k)))
        .collect();
    assert!(
        tickets.into_iter().all(txboost_wal::Ticket::wait),
        "durable prefix acked"
    );

    let torn: Vec<_> = (0..TORN_RECORDS)
        .map(|k| wal.enqueue(&script(DURABLE_RECORDS + k)))
        .collect();
    // Die two ops into the flush: the batch's append hits the page
    // cache but the fsync never completes.
    storage.arm_kill(storage.op_count() + 2);
    assert!(
        !torn.into_iter().any(txboost_wal::Ticket::wait),
        "nothing torn is acked"
    );
    assert!(storage.crashed(), "the kill switch must have fired");
    storage.reboot();
    storage
}

/// Replay a recovered log into a fresh executor and fingerprint the
/// resulting object state (occupancy of every key that could exist).
fn state_fingerprint(log: &RecoveredLog) -> Vec<OpResult> {
    let exec = Executor::new(TxnConfig::default(), 4);
    assert_eq!(
        log.replay(|r| exec.replay_record(r)),
        0,
        "replay must re-commit"
    );
    let mut probes = Vec::new();
    for key in 0..DURABLE_RECORDS + TORN_RECORDS {
        let out = exec.execute(&[ScriptOp::new(Op::MapContains {
            obj: "bank".into(),
            key,
        })]);
        assert_eq!(out.status, ScriptStatus::Committed);
        probes.extend(out.results);
    }
    probes
}

#[test]
fn recovering_twice_yields_identical_records_bytes_and_state() {
    let storage = crashed_storage(3);
    let first = recover(storage.as_ref()).expect("first recovery");
    assert!(
        first.records.len() as i64 >= DURABLE_RECORDS,
        "acked records lost: {}",
        first.records.len()
    );
    let bytes_after_first: Vec<_> = storage
        .list_segments()
        .unwrap()
        .into_iter()
        .map(|id| (id, storage.dump_segment(id)))
        .collect();

    let second = recover(storage.as_ref()).expect("second recovery");
    assert_eq!(first.records, second.records);
    assert_eq!(second.report.truncated_at, None);
    assert_eq!(second.report.dropped_bytes, 0);
    let bytes_after_second: Vec<_> = storage
        .list_segments()
        .unwrap()
        .into_iter()
        .map(|id| (id, storage.dump_segment(id)))
        .collect();
    assert_eq!(
        bytes_after_first, bytes_after_second,
        "second recovery rewrote storage"
    );
    assert_eq!(
        state_fingerprint(&first),
        state_fingerprint(&second),
        "replayed object state differs between recoveries"
    );
}

#[test]
fn crash_during_recovery_at_every_tick_converges_to_the_baseline() {
    let mut saw_torn_tail = false;
    for seed in 0..6u64 {
        // Baseline: recover the crashed log to completion and count
        // the storage ops recovery itself needed.
        let baseline_storage = crashed_storage(seed);
        let baseline = recover(baseline_storage.as_ref()).expect("baseline recovery");
        let recovery_ticks = baseline_storage.op_count();
        assert!(recovery_ticks > 3, "recovery did no work?");
        saw_torn_tail |= baseline.report.truncated_at.is_some();
        assert!(
            baseline.records.len() as i64 >= DURABLE_RECORDS,
            "seed {seed}: baseline lost acked records"
        );
        let baseline_state = state_fingerprint(&baseline);

        for kill in 1..=recovery_ticks {
            let storage = crashed_storage(seed);
            storage.arm_kill(kill);
            // The interrupted recovery may fail with an I/O error —
            // that is the crash — but must never panic.
            let interrupted = recover(storage.as_ref());
            if kill < recovery_ticks {
                assert!(
                    interrupted.is_err(),
                    "seed {seed}: kill at {kill}/{recovery_ticks} did not interrupt"
                );
            }
            storage.reboot();
            let after = recover(storage.as_ref()).unwrap_or_else(|e| {
                panic!("seed {seed} kill {kill}: post-crash recovery errored: {e}")
            });
            assert_eq!(
                after.records, baseline.records,
                "seed {seed} kill {kill}: records diverged from baseline"
            );
            assert_eq!(
                state_fingerprint(&after),
                baseline_state,
                "seed {seed} kill {kill}: replayed state diverged"
            );
            // And recovery stays idempotent from here.
            let again = recover(storage.as_ref()).expect("follow-up recovery");
            assert_eq!(again.records, baseline.records);
            assert_eq!(again.report.truncated_at, None);
        }
    }
    assert!(
        saw_torn_tail,
        "no seed produced a torn tail — the sweep never exercised truncation"
    );
}
