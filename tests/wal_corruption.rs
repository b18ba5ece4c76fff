//! Torn-write / corruption fuzz for WAL recovery, on real files.
//!
//! A pristine multi-segment log is built once; each case then lays the
//! pristine bytes back out in a scratch directory, damages the *last*
//! segment in one specific way — truncate to every possible length,
//! flip a bit at every byte offset, extend with several flavours of
//! garbage — and runs recovery. The contract under all damage:
//!
//! * recovery returns `Ok` and never panics;
//! * the recovered records are exactly a prefix of the pristine ones
//!   (truncation at the first invalid record, nothing reordered or
//!   invented);
//! * damage that cuts the log is reported (`truncated_at`,
//!   `corrupt_reason`, `dropped_bytes`);
//! * the cut is durable: a second recovery is clean and identical.

use std::fs;
use std::path::{Path, PathBuf};

use txboost_wal::{recover, FileStorage, RecoveredRecord, Storage, RECORD_HEADER_LEN};
use txboost_wire::{encode_ops, Guard, Op, ScriptOp};

const RECORDS: i64 = 20;
const SEGMENT_BYTES: u64 = 256;

fn script(k: i64) -> Vec<ScriptOp> {
    // Vary the payload size so record boundaries fall at odd offsets.
    if k % 3 == 0 {
        vec![ScriptOp::new(Op::CounterAdd {
            obj: format!("counter-{k:04}"),
            delta: k,
        })]
    } else {
        vec![ScriptOp::guarded(
            Op::MapInsert {
                obj: "bank".into(),
                key: k,
                val: 1,
            },
            Guard::ExpectNone,
        )]
    }
}

/// The pristine on-disk state: every segment's bytes plus the record
/// list recovery yields from them.
struct Pristine {
    files: Vec<(u64, Vec<u8>)>,
    records: Vec<RecoveredRecord>,
}

fn scratch_dir(case: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("txboost-walfuzz-{}-{case}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    dir
}

fn seg_path(dir: &Path, id: u64) -> PathBuf {
    dir.join(format!("{id:020}.wal"))
}

fn build_pristine(dir: &Path) -> Pristine {
    let storage = std::sync::Arc::new(FileStorage::open(dir).expect("open scratch dir"));
    let wal = txboost_wal::GroupCommitWal::new(
        std::sync::Arc::clone(&storage) as std::sync::Arc<dyn Storage>,
        &txboost_wal::WalConfig {
            batch_max: 4,
            segment_bytes: SEGMENT_BYTES,
        },
        1,
        std::sync::Arc::new(txboost_core::DurabilityMetrics::new()),
    )
    .expect("create wal");
    let tickets: Vec<_> = (0..RECORDS).map(|k| wal.enqueue(&script(k))).collect();
    assert!(
        tickets.into_iter().all(txboost_wal::Ticket::wait),
        "pristine build acked"
    );

    let ids = storage.list_segments().expect("list");
    assert!(ids.len() >= 3, "want a multi-segment log, got {ids:?}");
    let files = ids
        .iter()
        .map(|&id| (id, storage.read_segment(id).expect("read")))
        .collect();
    let records = recover(storage.as_ref())
        .expect("pristine recovery")
        .records;
    assert_eq!(records.len() as i64, RECORDS);
    Pristine { files, records }
}

/// Re-lay the pristine files, with `mutate` applied to the last
/// segment's bytes first.
fn lay_out(dir: &Path, pristine: &Pristine, mutate: impl FnOnce(&mut Vec<u8>)) {
    let _ = fs::remove_dir_all(dir);
    fs::create_dir_all(dir).expect("create scratch dir");
    let (intact, last) = pristine.files.split_at(pristine.files.len() - 1);
    for (id, bytes) in intact {
        fs::write(seg_path(dir, *id), bytes).expect("write segment");
    }
    let (last_id, last_bytes) = &last[0];
    let mut bytes = last_bytes.clone();
    mutate(&mut bytes);
    fs::write(seg_path(dir, *last_id), bytes).expect("write last segment");
}

/// Recover (must not error), assert the records are a prefix of the
/// pristine history and that a second recovery is clean and identical.
/// Returns the first recovery's log.
fn recover_and_check(dir: &Path, pristine: &Pristine, ctx: &str) -> txboost_wal::RecoveredLog {
    let storage = FileStorage::open(dir).expect("reopen");
    let log = recover(&storage).unwrap_or_else(|e| panic!("{ctx}: recovery errored: {e}"));
    assert!(
        pristine.records.starts_with(&log.records),
        "{ctx}: recovered records are not a pristine prefix (got {} records)",
        log.records.len()
    );
    let again = recover(&storage).unwrap_or_else(|e| panic!("{ctx}: second recovery errored: {e}"));
    assert_eq!(again.records, log.records, "{ctx}: recovery not idempotent");
    assert_eq!(
        again.report.truncated_at, None,
        "{ctx}: the cut was not made durable"
    );
    assert_eq!(
        again.report.dropped_bytes, 0,
        "{ctx}: second recovery dropped bytes"
    );
    log
}

/// Byte offsets within the last segment at which a truncation leaves a
/// *valid* (just shorter) log: the header boundary and every record
/// boundary. Anywhere else, recovery must report a cut.
fn clean_boundaries(pristine: &Pristine) -> Vec<usize> {
    let (last_id, _) = *pristine.files.last().unwrap();
    let mut offsets = vec![txboost_wal::SEGMENT_HEADER_LEN];
    let mut at = txboost_wal::SEGMENT_HEADER_LEN;
    for record in pristine.records.iter().filter(|r| r.lsn >= last_id) {
        let mut payload = Vec::new();
        encode_ops(&mut payload, &record.ops);
        at += RECORD_HEADER_LEN + 8 + payload.len();
        offsets.push(at);
    }
    offsets
}

#[test]
fn truncation_at_every_offset_yields_a_clean_prefix() {
    let dir = scratch_dir("truncate");
    let pristine = build_pristine(&dir);
    let last_len = pristine.files.last().unwrap().1.len();
    let boundaries = clean_boundaries(&pristine);
    assert_eq!(
        *boundaries.last().unwrap(),
        last_len,
        "boundary math is off"
    );

    for cut in 0..last_len {
        let ctx = format!("truncate last segment to {cut}/{last_len} bytes");
        lay_out(&dir, &pristine, |bytes| bytes.truncate(cut));
        let log = recover_and_check(&dir, &pristine, &ctx);
        if boundaries.contains(&cut) {
            // A record-aligned cut is indistinguishable from a shorter
            // committed history: nothing to report.
            assert_eq!(log.report.truncated_at, None, "{ctx}");
        } else {
            assert!(log.report.truncated_at.is_some(), "{ctx}: cut not reported");
            assert!(log.report.corrupt_reason.is_some(), "{ctx}");
            assert!(log.records.len() < pristine.records.len(), "{ctx}");
        }
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn single_bit_flips_at_every_offset_are_detected() {
    let dir = scratch_dir("bitflip");
    let pristine = build_pristine(&dir);
    let last_len = pristine.files.last().unwrap().1.len();
    let (last_id, _) = *pristine.files.last().unwrap();
    let records_in_last = pristine.records.iter().filter(|r| r.lsn >= last_id).count();
    assert!(records_in_last >= 2, "want >=2 records in the last segment");

    for offset in 0..last_len {
        // Rotate which bit is flipped so all eight positions get
        // exercised across the sweep.
        let bit = 1u8 << (offset % 8);
        let ctx = format!("flip bit {bit:#04x} at byte {offset}/{last_len}");
        lay_out(&dir, &pristine, |bytes| bytes[offset] ^= bit);
        let log = recover_and_check(&dir, &pristine, &ctx);
        // CRC-32 catches every single-bit error; header damage drops
        // the whole segment. Either way the log must shrink and the
        // damage must be reported.
        assert!(
            log.records.len() < pristine.records.len(),
            "{ctx}: corruption went unnoticed"
        );
        assert!(log.report.truncated_at.is_some(), "{ctx}: cut not reported");
        assert!(
            log.report.dropped_bytes > 0,
            "{ctx}: dropped bytes not counted"
        );
        assert!(log.report.corrupt_reason.is_some(), "{ctx}");
    }
    let _ = fs::remove_dir_all(&dir);
}

#[test]
fn garbage_extension_is_cut_at_the_exact_old_end() {
    let dir = scratch_dir("extend");
    let pristine = build_pristine(&dir);
    let (last_id, last_bytes) = pristine.files.last().unwrap();
    let old_len = last_bytes.len() as u64;

    let mut patterned = Vec::new();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..128 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        patterned.push(x as u8);
    }
    let cases: Vec<(&str, Vec<u8>)> = vec![
        ("0xFF run (absurd length prefix)", vec![0xFF; 64]),
        ("zero run (length below an LSN)", vec![0x00; 64]),
        (
            "short tail (torn header)",
            vec![0xAB; RECORD_HEADER_LEN - 1],
        ),
        ("patterned noise", patterned),
    ];

    for (name, garbage) in cases {
        let ctx = format!("extend last segment with {name}");
        let garbage_len = garbage.len() as u64;
        lay_out(&dir, &pristine, |bytes| bytes.extend_from_slice(&garbage));
        let log = recover_and_check(&dir, &pristine, &ctx);
        // Every committed record survives; only the garbage goes.
        assert_eq!(
            log.records, pristine.records,
            "{ctx}: lost committed records"
        );
        assert_eq!(
            log.report.truncated_at,
            Some((*last_id, old_len)),
            "{ctx}: cut not at the old end"
        );
        assert_eq!(log.report.dropped_bytes, garbage_len, "{ctx}");
        let on_disk = fs::metadata(seg_path(&dir, *last_id)).expect("stat").len();
        assert_eq!(on_disk, old_len, "{ctx}: file not truncated back");
    }
    let _ = fs::remove_dir_all(&dir);
}
