//! Recovery: scan the segment directory in LSN order, stop at the
//! first torn or corrupt record, chop everything from there on, and
//! hand back the committed prefix for single-threaded replay.
//!
//! The contract, enforced by the corruption fuzz suite and the
//! crash-at-every-tick sweep:
//!
//! * recovery never panics, whatever bytes it finds;
//! * the recovered records are exactly a prefix of the committed
//!   history (LSNs strictly contiguous from the first segment's base);
//! * every record whose fsync batch completed before the crash — i.e.
//!   every *acknowledged* commit — is in that prefix;
//! * recovery is idempotent: running it twice (with any crash in
//!   between) recovers the identical record list.

use std::io;

use txboost_wire::ScriptOp;

use crate::record::{parse_record, parse_segment_header, Parsed, SEGMENT_HEADER_LEN};
use crate::storage::Storage;

/// One committed script recovered from the log.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RecoveredRecord {
    /// Log sequence number (contiguous within a recovery).
    pub lsn: u64,
    /// The forward method calls to replay.
    pub ops: Vec<ScriptOp>,
}

/// What recovery found, kept, and threw away.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveryReport {
    /// Segments opened and scanned (including a final corrupt one).
    pub segments_scanned: usize,
    /// Records recovered.
    pub records: u64,
    /// LSN the writer must continue at.
    pub next_lsn: u64,
    /// Where the log was cut: `(segment id, byte offset)` of the first
    /// invalid record, if any.
    pub truncated_at: Option<(u64, u64)>,
    /// Bytes discarded from the truncated segment.
    pub dropped_bytes: u64,
    /// Whole segments deleted (bad header, or after the truncation
    /// point).
    pub dropped_segments: usize,
    /// Why the log was cut, when it was.
    pub corrupt_reason: Option<&'static str>,
}

/// The committed prefix recovery salvaged, plus the report.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct RecoveredLog {
    /// Committed records in LSN order.
    pub records: Vec<RecoveredRecord>,
    /// What was kept and what was dropped.
    pub report: RecoveryReport,
}

impl RecoveredLog {
    /// Replay the recovered records in LSN order through `apply`
    /// (single-threaded — the records are already serialized). Returns
    /// how many records `apply` rejected. `apply` is handler code:
    /// replay is the recovery path and must not panic.
    pub fn replay(&self, mut apply: impl FnMut(&RecoveredRecord) -> bool) -> u64 {
        let mut failures = 0;
        for record in &self.records {
            if !apply(record) {
                failures += 1;
            }
        }
        failures
    }
}

/// How scanning one segment ended.
enum SegmentEnd {
    /// Every byte parsed; continue with the next segment.
    Clean,
    /// The segment was cut at an invalid record (or dropped whole);
    /// nothing after it is trustworthy.
    Cut,
}

/// Scan every segment and salvage the longest valid committed prefix,
/// truncating storage at the first torn or corrupt record and deleting
/// everything beyond it. Errors are I/O errors from `storage` only —
/// corruption is handled, not propagated.
pub fn recover(storage: &dyn Storage) -> io::Result<RecoveredLog> {
    let ids = storage.list_segments()?;
    let mut log = RecoveredLog {
        records: Vec::new(),
        report: RecoveryReport {
            next_lsn: ids.first().copied().unwrap_or(1).max(1),
            ..RecoveryReport::default()
        },
    };
    let mut expected: Option<u64> = None;

    for (index, &id) in ids.iter().enumerate() {
        let end = scan_segment(storage, id, &mut expected, &mut log)?;
        if matches!(end, SegmentEnd::Cut) {
            for &later in &ids[index + 1..] {
                storage.delete_segment(later)?;
                log.report.dropped_segments += 1;
            }
            break;
        }
    }
    if let Some(next) = expected {
        log.report.next_lsn = next;
    }
    log.report.records = log.records.len() as u64;
    Ok(log)
}

fn scan_segment(
    storage: &dyn Storage,
    id: u64,
    expected: &mut Option<u64>,
    log: &mut RecoveredLog,
) -> io::Result<SegmentEnd> {
    let data = storage.read_segment(id)?;
    log.report.segments_scanned += 1;

    let header_ok = match parse_segment_header(&data) {
        Some(first) if first == id => true,
        Some(_) => false,
        None => false,
    };
    let continuous = match (*expected, header_ok) {
        (_, false) => false,
        (Some(next), true) => id == next,
        (None, true) => true,
    };
    if !continuous {
        // Torn header (a roll that died mid-way), mismatched header,
        // or an LSN gap: the whole segment is unusable.
        let reason = if header_ok {
            "segment breaks LSN continuity"
        } else {
            "torn or corrupt segment header"
        };
        log.report.truncated_at = Some((id, 0));
        log.report.dropped_bytes += data.len() as u64;
        log.report.corrupt_reason = Some(reason);
        storage.delete_segment(id)?;
        log.report.dropped_segments += 1;
        return Ok(SegmentEnd::Cut);
    }
    if expected.is_none() {
        // First (oldest surviving) segment: older ones were rotated
        // away below a snapshot watermark; LSNs resume at its base.
        *expected = Some(id);
    }

    let mut offset = SEGMENT_HEADER_LEN;
    while offset < data.len() {
        let verdict = match parse_record(&data[offset..]) {
            Parsed::Record { lsn, ops, consumed } => {
                if Some(lsn) == *expected {
                    log.records.push(RecoveredRecord { lsn, ops });
                    *expected = Some(lsn + 1);
                    offset += consumed;
                    continue;
                }
                "record breaks LSN continuity"
            }
            Parsed::Torn => "torn record at segment tail",
            Parsed::Corrupt(reason) => reason,
        };
        log.report.truncated_at = Some((id, offset as u64));
        log.report.dropped_bytes += (data.len() - offset) as u64;
        log.report.corrupt_reason = Some(verdict);
        storage.truncate_segment(id, offset as u64)?;
        return Ok(SegmentEnd::Cut);
    }
    Ok(SegmentEnd::Clean)
}

/// Rotate: durably delete every segment whose records all have LSN
/// below `watermark` (i.e. whose successor segment starts at or below
/// it). The newest segment is never deleted. Returns how many
/// segments were removed. The caller owns the correctness argument
/// that state up to `watermark` is snapshotted elsewhere.
pub fn rotate_below(storage: &dyn Storage, watermark: u64) -> io::Result<usize> {
    let ids = storage.list_segments()?;
    let mut deleted = 0;
    for pair in ids.windows(2) {
        if pair[1] <= watermark {
            storage.delete_segment(pair[0])?;
            deleted += 1;
        }
    }
    Ok(deleted)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::group::{GroupCommitWal, WalConfig};
    use crate::storage::SimStorage;
    use std::sync::Arc;
    use txboost_core::DurabilityMetrics;
    use txboost_wire::{Guard, Op};

    fn script(key: i64) -> Vec<ScriptOp> {
        vec![ScriptOp {
            op: Op::MapInsert {
                obj: "bank".into(),
                key,
                val: 7,
            },
            guard: Guard::ExpectNone,
        }]
    }

    /// Build a multi-segment log of `n` records on fresh SimStorage.
    fn build_log(n: i64, segment_bytes: u64) -> Arc<SimStorage> {
        let storage = Arc::new(SimStorage::new(11));
        let wal = GroupCommitWal::new(
            Arc::clone(&storage) as Arc<dyn crate::storage::Storage>,
            &WalConfig {
                batch_max: 4,
                segment_bytes,
            },
            1,
            Arc::new(DurabilityMetrics::new()),
        )
        .unwrap();
        let tickets: Vec<_> = (0..n).map(|k| wal.enqueue(&script(k))).collect();
        assert!(tickets.into_iter().all(crate::Ticket::wait));
        storage
    }

    #[test]
    fn empty_storage_recovers_empty() {
        let storage = SimStorage::new(0);
        let log = recover(&storage).unwrap();
        assert!(log.records.is_empty());
        assert_eq!(log.report.next_lsn, 1);
        assert_eq!(log.report.truncated_at, None);
    }

    #[test]
    fn recover_is_idempotent() {
        let storage = build_log(40, 512);
        let first = recover(storage.as_ref()).unwrap();
        assert_eq!(first.records.len(), 40);
        assert!(first.report.segments_scanned >= 1);
        let second = recover(storage.as_ref()).unwrap();
        assert_eq!(first.records, second.records);
        assert_eq!(second.report.truncated_at, None);
        assert_eq!(second.report.dropped_bytes, 0);
    }

    #[test]
    fn replay_visits_every_record_in_order() {
        let storage = build_log(10, 1 << 20);
        let log = recover(storage.as_ref()).unwrap();
        let mut seen = Vec::new();
        let failures = log.replay(|record| {
            seen.push(record.lsn);
            record.lsn != 4
        });
        assert_eq!(seen, (1..=10).collect::<Vec<u64>>());
        assert_eq!(failures, 1);
    }

    #[test]
    fn rotation_deletes_only_fully_covered_segments() {
        let storage = build_log(40, 512);
        let ids = storage.list_segments().unwrap();
        assert!(ids.len() >= 2, "want several segments, got {ids:?}");
        let watermark = ids[1];
        assert_eq!(rotate_below(storage.as_ref(), watermark).unwrap(), 1);
        let log = recover(storage.as_ref()).unwrap();
        assert_eq!(log.records.first().map(|r| r.lsn), Some(watermark));
        assert_eq!(log.records.last().map(|r| r.lsn), Some(40));
        assert_eq!(log.report.next_lsn, 41);
        // Rotating everything still keeps the newest segment.
        assert!(rotate_below(storage.as_ref(), u64::MAX).unwrap() >= 1);
        assert_eq!(storage.list_segments().unwrap().len(), 1);
    }

    #[test]
    fn lsn_gap_between_segments_cuts_the_log() {
        let storage = build_log(40, 512);
        let ids = storage.list_segments().unwrap();
        assert!(ids.len() >= 3, "want >= 3 segments, got {ids:?}");
        // Delete a middle segment: the records after the gap must not
        // be replayed even though they are individually valid.
        storage.delete_segment(ids[1]).unwrap();
        let log = recover(storage.as_ref()).unwrap();
        assert_eq!(log.records.last().map(|r| r.lsn), Some(ids[1] - 1));
        assert_eq!(
            log.report.corrupt_reason,
            Some("segment breaks LSN continuity")
        );
        assert!(log.report.dropped_segments >= 1);
        // And the cut is durable: a second recovery is clean.
        let again = recover(storage.as_ref()).unwrap();
        assert_eq!(again.records, log.records);
        assert_eq!(again.report.truncated_at, None);
    }
}
