//! The single-writer append path: one active segment, size-based
//! rolling, fsync on demand. Owned by whichever waiter currently leads
//! the group commit (it holds the writer mutex). `append_frames`,
//! `roll_segment` and `sync` yield to a deterministic scheduler (the
//! `WalAppend`, `WalSegmentRoll` and `WalFsync` points), and
//! `tests/det_tick_crash.rs` asserts that its runs reach each of them.

use std::io;
use std::sync::Arc;
use std::time::Instant;

use txboost_core::{det, DurabilityMetrics};

use crate::record::{frame_len, segment_header, SEGMENT_HEADER_LEN};
use crate::storage::Storage;

/// Floor on the segment size cap. A record larger than the cap still
/// fits — rolling only happens when the active segment already holds
/// at least one record — so the floor exists only to keep pathological
/// configs from making a segment per record header.
pub(crate) const MIN_SEGMENT_BYTES: u64 = 256;

/// Appends framed records to the active segment, rolling to a fresh
/// segment when the size cap is reached. Exactly one writer exists
/// per log, behind the group commit's writer mutex.
pub(crate) struct Wal {
    storage: Arc<dyn Storage>,
    segment_bytes: u64,
    active: u64,
    active_len: u64,
    metrics: Arc<DurabilityMetrics>,
}

impl std::fmt::Debug for Wal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Wal")
            .field("segment_bytes", &self.segment_bytes)
            .field("active", &self.active)
            .field("active_len", &self.active_len)
            .finish_non_exhaustive()
    }
}

impl Wal {
    /// Start writing at `first_lsn`: opens a brand-new active segment
    /// named after it. Run [`recover`](crate::recover) first and pass
    /// `report.next_lsn`; the writer never appends to a recovered
    /// segment, so recovery's truncation decisions stay immutable.
    pub fn create(
        storage: Arc<dyn Storage>,
        segment_bytes: u64,
        first_lsn: u64,
        metrics: Arc<DurabilityMetrics>,
    ) -> io::Result<Wal> {
        let mut wal = Wal {
            storage,
            segment_bytes: segment_bytes.max(MIN_SEGMENT_BYTES),
            active: first_lsn,
            active_len: 0,
            metrics,
        };
        wal.open_segment(first_lsn)?;
        Ok(wal)
    }

    /// Create the segment, write its header, and make both durable
    /// before any record lands in it.
    fn open_segment(&mut self, id: u64) -> io::Result<()> {
        self.storage.create_segment(id)?;
        let header = segment_header(id);
        self.storage.append(id, &header)?;
        self.storage.sync(id)?;
        self.active = id;
        self.active_len = header.len() as u64;
        Ok(())
    }

    /// Append a run of sealed frames laid back to back, the first
    /// carrying `first_lsn`, in one write — or one per segment where the
    /// cap falls inside the run: a frame that would push the active
    /// segment past the cap (and is not the segment's first record)
    /// opens a fresh segment named by its LSN. Does **not** sync.
    pub fn append_frames(&mut self, first_lsn: u64, frames: &[u8]) -> io::Result<()> {
        det::yield_point(det::Point::WalAppend);
        // `frames[start..at]` holds the `records` frames that go to the
        // active segment next; `lsn` is the frame at `at`.
        let (mut start, mut at, mut records, mut lsn) = (0, 0, 0, first_lsn);
        while at < frames.len() {
            let len = frame_len(&frames[at..]);
            let filled = self.active_len + (at - start) as u64;
            if filled + len as u64 > self.segment_bytes && filled > SEGMENT_HEADER_LEN as u64 {
                self.write(&frames[start..at], records)?;
                self.roll_segment(lsn)?;
                (start, records) = (at, 0);
            }
            at += len;
            records += 1;
            lsn += 1;
        }
        self.write(&frames[start..], records)
    }

    /// One `append` of `records` whole frames to the active segment.
    fn write(&mut self, bytes: &[u8], records: u64) -> io::Result<()> {
        if bytes.is_empty() {
            return Ok(());
        }
        let start = Instant::now();
        self.storage.append(self.active, bytes)?;
        self.active_len += bytes.len() as u64;
        self.metrics
            .record_append(records, bytes.len() as u64, start.elapsed());
        Ok(())
    }

    /// Seal the active segment (final sync) and open a fresh one whose
    /// first record will carry `first_lsn`.
    pub fn roll_segment(&mut self, first_lsn: u64) -> io::Result<()> {
        det::yield_point(det::Point::WalSegmentRoll);
        self.storage.sync(self.active)?;
        self.open_segment(first_lsn)?;
        self.metrics.record_segment_roll();
        Ok(())
    }

    /// Fsync the active segment: everything appended so far is durable
    /// when this returns.
    pub fn sync(&mut self) -> io::Result<()> {
        det::yield_point(det::Point::WalFsync);
        let start = Instant::now();
        self.storage.sync(self.active)?;
        self.metrics.record_batch(start.elapsed());
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::frame_record;
    use crate::recover::recover;
    use crate::storage::SimStorage;

    fn new_wal(segment_bytes: u64) -> (Arc<SimStorage>, Arc<DurabilityMetrics>, Wal) {
        let storage = Arc::new(SimStorage::new(0));
        let metrics = Arc::new(DurabilityMetrics::new());
        let dyn_storage = Arc::clone(&storage) as Arc<dyn Storage>;
        let wal = Wal::create(dyn_storage, segment_bytes, 1, Arc::clone(&metrics)).unwrap();
        (storage, metrics, wal)
    }

    #[test]
    fn rolls_when_the_cap_is_reached() {
        let (storage, metrics, mut wal) = new_wal(MIN_SEGMENT_BYTES);
        let payload = vec![0xAB; 800];
        for lsn in 1..=10u64 {
            let frame = frame_record(lsn, &payload);
            wal.append_frames(lsn, &frame).unwrap();
        }
        wal.sync().unwrap();
        let segs = storage.list_segments().unwrap();
        assert!(segs.len() >= 2, "expected a roll, got {segs:?}");
        assert_eq!(segs[0], 1);
        assert!(wal.active > 1);
        assert_eq!(metrics.snapshot().segments_rolled, segs.len() as u64 - 1);
    }

    #[test]
    fn a_run_crossing_the_cap_splits_at_a_frame_boundary() {
        use txboost_wire::{Op, ScriptOp};
        let add = ScriptOp::new(Op::CounterAdd {
            obj: "c".into(),
            delta: 1,
        });
        // Eight ops a record, so four records clear `MIN_SEGMENT_BYTES`.
        let mut ops = Vec::new();
        txboost_wire::encode_ops(&mut ops, &vec![add; 8]);
        let frame = frame_record(1, &ops).len();
        // Room for the header, four frames and half a fifth.
        let header = SEGMENT_HEADER_LEN;
        let (storage, metrics, mut wal) = new_wal((header + 4 * frame + frame / 2) as u64);
        let run: Vec<u8> = (1..=10).flat_map(|lsn| frame_record(lsn, &ops)).collect();
        wal.append_frames(1, &run).unwrap();
        wal.sync().unwrap();
        // Each new segment is named by the first LSN it holds.
        assert_eq!(storage.list_segments().unwrap(), vec![1, 5, 9]);
        let lens = [1, 5, 9].map(|id| storage.dump_segment(id).unwrap().len());
        assert_eq!(lens, [4, 4, 2].map(|frames| header + frames * frame));
        // Three writes for ten records.
        let m = metrics.snapshot();
        assert_eq!((m.records, m.append.count(), m.segments_rolled), (10, 3, 2));
        let log = recover(storage.as_ref()).unwrap();
        let lsns: Vec<u64> = log.records.iter().map(|r| r.lsn).collect();
        assert_eq!(lsns, (1..=10).collect::<Vec<_>>());
    }
}
