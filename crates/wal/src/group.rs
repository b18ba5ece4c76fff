//! Group commit, leader-based: one shared buffer of sealed frames, one
//! durable watermark, and no thread of its own.
//!
//! [`GroupCommitWal::enqueue`] assigns the LSN and encodes the record in
//! place at the tail of the pending buffer, under the log mutex, and
//! wakes nobody. The caller enqueues *inside* the transaction, while its
//! abstract locks are still held, so log order equals serialization
//! order. [`Ticket::wait`] returns at once when the watermark already
//! covers its LSN; otherwise it takes the writer mutex — which *is* the
//! wait queue — and, if still not covered, **leads**: it swaps the
//! pending buffer for the writer's spare, appends the whole run of
//! frames in one write, fsyncs once, and only then moves the watermark.
//! Everyone who queued behind it finds their record covered.
//!
//! No record is stranded: the event loop waits once per tick on
//! [`GroupCommitWal::newest`], a waiter that finds its record pending
//! writes it, and [`GroupCommitWal::shutdown`] flushes what is left.
//!
//! A storage error is **sticky**: after the first failed append or
//! fsync nothing more is appended — a later record past the gap would
//! be acknowledged and then cut off by recovery's LSN-continuity check
//! — and every later `enqueue` / `wait` answers `false`.

use std::io;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use parking_lot::{Mutex, MutexGuard};

use txboost_core::{det, DurabilityMetrics};
use txboost_wire::ScriptOp;

use crate::record::{frame_len, seal_record, RECORD_PREFIX_LEN};
use crate::storage::Storage;
use crate::writer::Wal;

/// Group-commit tuning knobs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Most records made durable by one fsync.
    pub batch_max: usize,
    /// Segment size cap; the writer rolls past it.
    pub segment_bytes: u64,
}

impl Default for WalConfig {
    fn default() -> WalConfig {
        WalConfig {
            batch_max: 64,
            segment_bytes: 16 * 1024 * 1024,
        }
    }
}

/// One enqueued commit record's claim on durability: the log and the
/// LSN it was given, nothing to allocate or complete.
#[derive(Debug, Clone, Copy)]
pub struct Ticket<'w> {
    wal: &'w GroupCommitWal,
    lsn: Option<u64>,
}

impl Ticket<'_> {
    /// The record's LSN; `None` if the log refused it (shut down, or
    /// failed).
    pub fn lsn(self) -> Option<u64> {
        self.lsn
    }

    /// Block until the record is durable, leading the flush if nobody
    /// else has: `true` once an fsync covers it, `false` if the log
    /// refused it or hit a storage error. Under a deterministic
    /// scheduler the wait spins on `block_tick`, so it is itself
    /// schedulable and advances virtual time.
    pub fn wait(self) -> bool {
        self.lsn.is_some_and(|lsn| self.wal.wait_durable(lsn))
    }
}

/// Sealed frames nobody has written yet, and the LSN counter.
struct Pending {
    /// `frames` sealed frames back to back, carrying LSNs
    /// `next_lsn - frames .. next_lsn`.
    buf: Vec<u8>,
    frames: usize,
    next_lsn: u64,
    /// No further records: shut down, or storage failed.
    closed: bool,
}

/// What the current leader owns.
struct Writer {
    wal: Wal,
    /// Swapped for `Pending::buf` by each leader; empty between flushes.
    spare: Vec<u8>,
    /// An append or fsync failed (sticky).
    failed: bool,
}

/// The group-commit front end. Lock order: `pending` is only ever taken
/// alone or inside `writer`, never the reverse.
pub struct GroupCommitWal {
    pending: Mutex<Pending>,
    writer: Mutex<Writer>,
    /// Every LSN below this is durable. Moves only forward, only under
    /// `writer`, only after the `sync` that covers it returned.
    durable: AtomicU64,
    metrics: Arc<DurabilityMetrics>,
    batch_max: usize,
}

impl std::fmt::Debug for GroupCommitWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let p = self.pending.lock();
        f.debug_struct("GroupCommitWal")
            .field("pending", &p.frames)
            .field("next_lsn", &p.next_lsn)
            .field("closed", &p.closed)
            .field("durable", &self.durable.load(Ordering::Relaxed))
            .field("batch_max", &self.batch_max)
            .finish_non_exhaustive()
    }
}

impl GroupCommitWal {
    /// Open a group-commit log writing at `next_lsn` (pass
    /// `RecoveryReport::next_lsn`). Creates the first segment durably
    /// before returning.
    pub fn new(
        storage: Arc<dyn Storage>,
        cfg: &WalConfig,
        next_lsn: u64,
        metrics: Arc<DurabilityMetrics>,
    ) -> io::Result<GroupCommitWal> {
        let wal = Wal::create(storage, cfg.segment_bytes, next_lsn, Arc::clone(&metrics))?;
        Ok(GroupCommitWal {
            pending: Mutex::new(Pending {
                buf: Vec::new(),
                frames: 0,
                next_lsn,
                closed: false,
            }),
            writer: Mutex::new(Writer {
                wal,
                spare: Vec::new(),
                failed: false,
            }),
            durable: AtomicU64::new(next_lsn),
            metrics,
            batch_max: cfg.batch_max.max(1),
        })
    }

    /// The shared durability metrics (append/fsync histograms and
    /// counters).
    pub fn metrics(&self) -> &Arc<DurabilityMetrics> {
        &self.metrics
    }

    /// LSN the next enqueued record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.pending.lock().next_lsn
    }

    /// Log a committed script's forward calls: assign the next LSN and
    /// seal the record's frame at the tail of the pending buffer. Must
    /// be called while the transaction's abstract locks are still held
    /// (i.e. inside the transaction body, immediately before it
    /// returns `Ok`): the LSN assigned here fixes the replay order, and
    /// the locks guarantee it matches the serialization order. Await
    /// the ticket *after* commit, with the locks released.
    pub fn enqueue(&self, ops: &[ScriptOp]) -> Ticket<'_> {
        let mut p = self.pending.lock();
        if p.closed {
            return Ticket {
                wal: self,
                lsn: None,
            };
        }
        let lsn = p.next_lsn;
        let start = p.buf.len();
        p.buf.resize(start + RECORD_PREFIX_LEN, 0);
        txboost_wire::encode_ops(&mut p.buf, ops);
        seal_record(&mut p.buf[start..], lsn);
        p.next_lsn += 1;
        p.frames += 1;
        Ticket {
            wal: self,
            lsn: Some(lsn),
        }
    }

    /// A ticket for the newest record enqueued so far, whoever enqueued
    /// it: waiting on it waits for every record enqueued before this
    /// call. A poll tick waits on it, because any reply of the tick may
    /// have observed any of those records.
    pub fn newest(&self) -> Ticket<'_> {
        let next_lsn = self.pending.lock().next_lsn;
        Ticket {
            wal: self,
            lsn: Some(next_lsn.saturating_sub(1)),
        }
    }

    fn covers(&self, lsn: u64) -> bool {
        lsn < self.durable.load(Ordering::Acquire)
    }

    /// Take the writer mutex. Under a deterministic scheduler a logical
    /// thread never blocks on the real mutex (its holder may be parked
    /// at a yield point): it polls, one scheduling round per miss.
    fn lock_writer(&self) -> MutexGuard<'_, Writer> {
        while det::active() {
            if let Some(writer) = self.writer.try_lock() {
                return writer;
            }
            det::block_tick();
        }
        self.writer.lock()
    }

    fn wait_durable(&self, lsn: u64) -> bool {
        if self.covers(lsn) {
            return true;
        }
        // Queue behind the current leader; whoever gets the mutex with
        // its record still pending leads the next flush itself.
        let mut writer = self.lock_writer();
        while !self.covers(lsn) {
            if !self.lead(&mut writer) {
                return false;
            }
        }
        true
    }

    /// Make the oldest pending records — at most `batch_max` — durable:
    /// one append for the whole run of frames, one fsync, then the
    /// watermark. `false` when nothing was pending or the log has
    /// failed, now or earlier.
    fn lead(&self, writer: &mut Writer) -> bool {
        if writer.failed {
            return false;
        }
        let (first_lsn, records) = {
            let mut p = self.pending.lock();
            let records = p.frames.min(self.batch_max);
            if records == 0 {
                return false;
            }
            let first_lsn = p.next_lsn - p.frames as u64;
            if records == p.frames {
                std::mem::swap(&mut p.buf, &mut writer.spare);
            } else {
                let cut = (0..records).fold(0, |at, _| at + frame_len(&p.buf[at..]));
                writer.spare.extend_from_slice(&p.buf[..cut]);
                p.buf.drain(..cut);
            }
            p.frames -= records;
            (first_lsn, records as u64)
        };
        // The yield point fires after the pending lock is released —
        // `enqueue` blocks on it for real, and a deterministic
        // scheduler must never switch away from the holder of such a
        // lock.
        det::yield_point(det::Point::WalLead);
        if det::mutated(det::Mutation::AckBeforeSync) {
            self.durable.store(first_lsn + records, Ordering::Release);
        }
        let written = writer.wal.append_frames(first_lsn, &writer.spare);
        let synced = written.and_then(|()| writer.wal.sync());
        writer.spare.clear();
        if synced.is_ok() {
            self.durable.store(first_lsn + records, Ordering::Release);
            return true;
        }
        writer.failed = true;
        self.pending.lock().closed = true;
        self.metrics.record_error();
        false
    }

    /// Refuse further records, then flush what is pending. `false` if
    /// the log hit a storage error, now or earlier: not every accepted
    /// record is durable.
    pub fn shutdown(&self) -> bool {
        self.pending.lock().closed = true;
        let mut writer = self.lock_writer();
        while self.lead(&mut writer) {}
        !writer.failed
    }

    /// Nothing to spawn: a waiter leads its own flush. Kept only for
    /// the frozen `benchmark/`, which still calls it; goes with
    /// `--io epoll` (ROADMAP item 9).
    pub fn spawn_flusher(self: &Arc<Self>) -> io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::recover::recover;
    use crate::storage::SimStorage;
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

    fn new_wal(storage: &Arc<SimStorage>, batch_max: usize) -> GroupCommitWal {
        GroupCommitWal::new(
            Arc::clone(storage) as Arc<dyn Storage>,
            &WalConfig {
                batch_max,
                segment_bytes: 4096,
            },
            1,
            Arc::new(DurabilityMetrics::new()),
        )
        .unwrap()
    }

    fn recovered_lsns(storage: &SimStorage) -> Vec<u64> {
        let log = recover(storage).unwrap();
        log.records.iter().map(|r| r.lsn).collect()
    }

    #[test]
    fn a_waiter_leads_and_acks_only_what_its_fsync_covered() {
        let storage = Arc::new(SimStorage::new(3));
        let wal = new_wal(&storage, 4);
        let tickets: Vec<Ticket> = (0..10).map(|k| wal.enqueue(&script(k))).collect();
        assert_eq!(wal.next_lsn(), 11);
        // Nobody has waited, so nothing was written.
        assert!(!wal.covers(1));
        assert_eq!(wal.metrics().snapshot().records, 0);
        // The first waiter writes its batch — and only that.
        assert!(tickets[0].wait());
        assert!(wal.covers(4) && !wal.covers(5));
        let m = wal.metrics().snapshot();
        assert_eq!((m.records, m.batches, m.append.count()), (4, 1, 1));
        // Its followers are covered without another write.
        assert!(tickets[1..4].iter().all(|t| t.wait()));
        assert_eq!(wal.metrics().snapshot().batches, 1);
        assert_eq!(recovered_lsns(&storage), (1..=4).collect::<Vec<_>>());
    }

    #[test]
    fn batch_max_bounds_the_records_of_one_fsync() {
        let storage = Arc::new(SimStorage::new(3));
        let wal = new_wal(&storage, 4);
        let tickets: Vec<Ticket> = (0..10).map(|k| wal.enqueue(&script(k))).collect();
        // Waiting for the last leads 4 + 4 + 2.
        assert!(tickets[9].wait());
        let m = wal.metrics().snapshot();
        assert_eq!((m.records, m.batches), (10, 3));
        assert!(tickets.iter().all(|t| t.wait()));
        assert_eq!(recovered_lsns(&storage), (1..=10).collect::<Vec<_>>());
    }

    #[test]
    fn concurrent_waiters_leave_one_gapless_log() {
        const THREADS: i64 = 8;
        const EACH: i64 = 500;
        let storage = Arc::new(SimStorage::new(5));
        let wal = new_wal(&storage, 8);
        std::thread::scope(|s| {
            for t in 0..THREADS {
                let wal = &wal;
                s.spawn(move || {
                    for k in 0..EACH {
                        assert!(wal.enqueue(&script(t * EACH + k)).wait());
                    }
                });
            }
        });
        let m = wal.metrics().snapshot();
        assert_eq!(m.records, (THREADS * EACH) as u64);
        assert!(m.batches <= m.records);
        assert_eq!(
            recovered_lsns(&storage),
            (1..=(THREADS * EACH) as u64).collect::<Vec<_>>()
        );
    }

    #[test]
    fn the_newest_ticket_covers_every_record_enqueued_before_it() {
        let storage = Arc::new(SimStorage::new(3));
        let wal = new_wal(&storage, 1);
        // Nothing enqueued: nothing to wait for, and nothing written.
        assert!(wal.newest().wait());
        assert_eq!(storage.op_count(), 3);
        // Records enqueued by anyone are covered, one batch each here;
        // a record enqueued after the call is not.
        let _ = [1, 2, 3].map(|k| wal.enqueue(&script(k)));
        let newest = wal.newest();
        let later = wal.enqueue(&script(4));
        assert!(newest.wait());
        assert!(wal.covers(3) && !wal.covers(later.lsn().unwrap()));
        // Once storage fails, nothing is covered that was not already.
        storage.arm_kill(storage.op_count() + 1);
        assert!(!wal.newest().wait());
        assert!(!wal.newest().wait());
    }

    #[test]
    fn shutdown_flushes_what_nobody_waited_for_and_refuses_the_rest() {
        let storage = Arc::new(SimStorage::new(5));
        let wal = new_wal(&storage, 2);
        let tickets: Vec<Ticket> = (0..5).map(|k| wal.enqueue(&script(k))).collect();
        assert!(wal.shutdown());
        assert!(tickets.iter().all(|t| t.wait()));
        assert_eq!(recovered_lsns(&storage), (1..=5).collect::<Vec<_>>());
        // Enqueue after shutdown fails fast instead of hanging.
        let late = wal.enqueue(&script(99));
        assert_eq!(late.lsn(), None);
        assert!(!late.wait());
    }

    #[test]
    fn a_storage_error_is_sticky() {
        let storage = Arc::new(SimStorage::new(1));
        let wal = new_wal(&storage, 1);
        assert!(wal.enqueue(&script(1)).wait());
        // The next storage op fails: the append of record 2. Record 3
        // is pending behind it.
        storage.arm_kill(storage.op_count() + 1);
        let t2 = wal.enqueue(&script(2));
        let t3 = wal.enqueue(&script(3));
        assert!(!t2.wait());
        assert!(!t3.wait());
        assert_eq!(wal.metrics().snapshot().wal_errors, 1);
        // Storage works again, but the log stays failed: it refuses new
        // records and appends nothing past the gap, whoever asks.
        storage.reboot();
        let t4 = wal.enqueue(&script(4));
        assert_eq!(t4.lsn(), None);
        assert!(!t4.wait() && !t3.wait());
        assert!(!wal.shutdown());
        assert_eq!(storage.op_count(), 0);
        assert_eq!(wal.metrics().snapshot().wal_errors, 1);
        // Exactly the records acknowledged before the error survive.
        assert_eq!(recovered_lsns(&storage), vec![1]);
    }

    /// Segment 7 as the per-record-`Vec`, flusher-thread log wrote it
    /// (the commit before the leader protocol) for the two records
    /// below: header, then one frame each.
    const SEGMENT_BEFORE: &str = "\
        54584257414c310a0700000000000000\
        21000000cddbd6830700000000000000010001020462616e6bfdffffffffffffff0700000000000000\
        2b00000060d7c55c0800000000000000020002010462616e6b05000000000000000400076170706c6965640100000000000000";

    #[test]
    fn the_on_disk_format_did_not_change() {
        let insert = ScriptOp::guarded(
            Op::MapInsert {
                obj: "bank".into(),
                key: -3,
                val: 7,
            },
            Guard::ExpectNone,
        );
        let remove = ScriptOp::guarded(
            Op::MapRemove {
                obj: "bank".into(),
                key: 5,
            },
            Guard::ExpectSome,
        );
        let add = ScriptOp::new(Op::CounterAdd {
            obj: "applied".into(),
            delta: 1,
        });
        let records = [vec![insert], vec![remove, add]];
        let before: Vec<u8> = (0..SEGMENT_BEFORE.len())
            .step_by(2)
            .map(|i| u8::from_str_radix(&SEGMENT_BEFORE[i..i + 2], 16).unwrap())
            .collect();
        // This log writes the same bytes, so the old code reads it...
        let storage = Arc::new(SimStorage::new(0));
        let wal = GroupCommitWal::new(
            Arc::clone(&storage) as Arc<dyn Storage>,
            &WalConfig::default(),
            7,
            Arc::new(DurabilityMetrics::new()),
        )
        .unwrap();
        let tickets = records.each_ref().map(|ops| wal.enqueue(ops));
        assert!(tickets.iter().all(|t| t.wait()));
        assert_eq!(storage.dump_segment(7).unwrap(), before);
        // ...and recovery reads the old code's bytes.
        let old = SimStorage::new(0);
        old.create_segment(7).unwrap();
        old.append(7, &before).unwrap();
        let log = recover(&old).unwrap();
        let got: Vec<_> = log.records.iter().map(|r| (r.lsn, r.ops.clone())).collect();
        assert_eq!(got, [7, 8].into_iter().zip(records).collect::<Vec<_>>());
    }
}
