//! Group commit: workers enqueue commit records and block on a
//! [`Ticket`]; a dedicated flusher drains the queue in batches, writes
//! and fsyncs once per batch, and completes the tickets only after the
//! batch is durable. LSNs are assigned at enqueue time — the caller
//! enqueues *inside* the transaction, while its abstract locks are
//! still held, so log order equals serialization order.

use std::collections::VecDeque;
use std::io;
use std::sync::Arc;
use std::thread::JoinHandle;

use parking_lot::{Condvar, Mutex};

use txboost_core::DurabilityMetrics;
use txboost_wire::ScriptOp;

use crate::record::{seal_record, RECORD_PREFIX_LEN};
use crate::storage::Storage;
use crate::writer::Wal;

#[cfg(feature = "deterministic")]
use txboost_core::det;

/// Group-commit tuning knobs.
#[derive(Debug, Clone)]
pub struct WalConfig {
    /// Most records sealed into one fsync batch.
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

/// A worker's handle to one enqueued commit record; resolves to
/// `true` once the record is durable, `false` if the flusher hit an
/// I/O error (or the log was already shut down).
#[derive(Clone)]
pub struct Ticket {
    inner: Arc<TicketInner>,
}

struct TicketInner {
    state: Mutex<Option<bool>>,
    cv: Condvar,
}

impl std::fmt::Debug for Ticket {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_tuple("Ticket").field(&self.try_done()).finish()
    }
}

impl Ticket {
    fn new() -> Ticket {
        Ticket {
            inner: Arc::new(TicketInner {
                state: Mutex::new(None),
                cv: Condvar::new(),
            }),
        }
    }

    fn complete(&self, ok: bool) {
        *self.inner.state.lock() = Some(ok);
        self.inner.cv.notify_all();
    }

    /// Outcome if already decided, without blocking.
    pub fn try_done(&self) -> Option<bool> {
        *self.inner.state.lock()
    }

    /// Block until the record's batch has been fsynced (or failed).
    /// Under a deterministic scheduler this spins on `block_tick`, so
    /// the wait is itself schedulable and advances virtual time.
    pub fn wait(&self) -> bool {
        #[cfg(feature = "deterministic")]
        if det::active() {
            loop {
                if let Some(ok) = *self.inner.state.lock() {
                    return ok;
                }
                det::block_tick();
            }
        }
        let mut state = self.inner.state.lock();
        loop {
            if let Some(ok) = *state {
                return ok;
            }
            self.inner.cv.wait(&mut state);
        }
    }
}

struct Pending {
    lsn: u64,
    frame: Vec<u8>,
    ticket: Ticket,
}

struct Queue {
    pending: VecDeque<Pending>,
    next_lsn: u64,
    stopped: bool,
}

/// The group-commit front end: a pending queue shared by workers, a
/// single-writer [`Wal`] owned by the flusher, and the ticket
/// plumbing between them.
pub struct GroupCommitWal {
    queue: Mutex<Queue>,
    work: Condvar,
    writer: Mutex<Wal>,
    metrics: Arc<DurabilityMetrics>,
    batch_max: usize,
    flusher: Mutex<Option<JoinHandle<()>>>,
}

impl std::fmt::Debug for GroupCommitWal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let q = self.queue.lock();
        f.debug_struct("GroupCommitWal")
            .field("pending", &q.pending.len())
            .field("next_lsn", &q.next_lsn)
            .field("stopped", &q.stopped)
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
        let writer = Wal::create(storage, cfg.segment_bytes, next_lsn, Arc::clone(&metrics))?;
        Ok(GroupCommitWal {
            queue: Mutex::new(Queue {
                pending: VecDeque::new(),
                next_lsn,
                stopped: false,
            }),
            work: Condvar::new(),
            writer: Mutex::new(writer),
            metrics,
            batch_max: cfg.batch_max.max(1),
            flusher: Mutex::new(None),
        })
    }

    /// The shared durability metrics (append/fsync histograms and
    /// counters).
    pub fn metrics(&self) -> &Arc<DurabilityMetrics> {
        &self.metrics
    }

    /// LSN the next enqueued record will receive.
    pub fn next_lsn(&self) -> u64 {
        self.queue.lock().next_lsn
    }

    /// Hand a committed script's forward calls to the flusher. Must be
    /// called while the transaction's abstract locks are still held
    /// (i.e. inside the transaction body, immediately before it
    /// returns `Ok`): the LSN assigned here fixes the replay order, and
    /// the locks guarantee it matches the serialization order. Await
    /// the ticket *after* commit, with the locks released.
    pub fn enqueue(&self, ops: &[ScriptOp]) -> Ticket {
        // One buffer per record: the ops are encoded straight into the
        // frame, behind the bytes the LSN assigned below seals. Sized
        // so a script of a few ops never regrows it.
        let mut frame = Vec::with_capacity(128);
        frame.resize(RECORD_PREFIX_LEN, 0);
        txboost_wire::encode_ops(&mut frame, ops);
        let ticket = Ticket::new();
        let mut q = self.queue.lock();
        if q.stopped {
            drop(q);
            ticket.complete(false);
            return ticket;
        }
        let lsn = q.next_lsn;
        q.next_lsn += 1;
        seal_record(&mut frame, lsn);
        q.pending.push_back(Pending {
            lsn,
            frame,
            ticket: ticket.clone(),
        });
        drop(q);
        self.work.notify_one();
        ticket
    }

    /// Seal up to `batch_max` pending records into a batch. The yield
    /// point fires after the queue lock is released — a deterministic
    /// scheduler must never context-switch a lock-holder.
    fn seal_batch_det(&self) -> Vec<Pending> {
        let batch: Vec<Pending> = {
            let mut q = self.queue.lock();
            let n = q.pending.len().min(self.batch_max);
            q.pending.drain(..n).collect()
        };
        if !batch.is_empty() {
            #[cfg(feature = "deterministic")]
            det::yield_point(det::Point::WalBatchSeal);
        }
        batch
    }

    /// Drain and durably write one batch; returns whether any work was
    /// done. On an I/O error the whole batch's tickets resolve `false`
    /// — the in-memory commit stands, but the caller knows the record
    /// is not durable.
    pub fn flush_once(&self) -> bool {
        let batch = self.seal_batch_det();
        if batch.is_empty() {
            return false;
        }
        let ok = {
            let mut writer = self.writer.lock();
            let mut ok = true;
            for p in &batch {
                if writer.append_record_det(p.lsn, &p.frame).is_err() {
                    ok = false;
                    break;
                }
            }
            ok && writer.sync_det().is_ok()
        };
        if !ok {
            self.metrics.record_error();
        }
        for p in batch {
            p.ticket.complete(ok);
        }
        true
    }

    /// Start the dedicated flusher thread. Call once, after recovery.
    pub fn spawn_flusher(self: &Arc<Self>) -> io::Result<()> {
        let me = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("txboost-wal-flusher".into())
            .spawn(move || loop {
                if me.flush_once() {
                    continue;
                }
                let mut q = me.queue.lock();
                if q.pending.is_empty() {
                    if q.stopped {
                        break;
                    }
                    me.work.wait(&mut q);
                }
            })?;
        *self.flusher.lock() = Some(handle);
        Ok(())
    }

    /// Ask the flusher to drain the queue and exit. Does not join;
    /// see [`shutdown`](GroupCommitWal::shutdown).
    pub fn request_stop(&self) {
        self.queue.lock().stopped = true;
        self.work.notify_all();
    }

    /// Stop and join the flusher thread (if one was spawned), flushing
    /// everything still pending first.
    pub fn shutdown(&self) {
        self.request_stop();
        let handle = self.flusher.lock().take();
        if let Some(handle) = handle {
            let _ = handle.join();
        }
    }

    /// Flusher loop for deterministic tests: run it on a *logical*
    /// thread instead of spawning a real one. Exits once
    /// [`request_stop`](GroupCommitWal::request_stop) was called and
    /// the queue is drained. Exactly one thread may pump at a time
    /// (the writer lock is held across yield points on purpose — the
    /// flusher is single by design).
    pub fn pump_until_stopped(&self) {
        loop {
            if self.flush_once() {
                continue;
            }
            {
                let q = self.queue.lock();
                if q.stopped && q.pending.is_empty() {
                    return;
                }
            }
            #[cfg(feature = "deterministic")]
            if det::active() {
                det::block_tick();
                continue;
            }
            std::thread::yield_now();
        }
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

    #[test]
    fn manual_pump_acks_after_durability() {
        let storage = Arc::new(SimStorage::new(3));
        let wal = new_wal(&storage, 4);
        let tickets: Vec<Ticket> = (0..10).map(|k| wal.enqueue(&script(k))).collect();
        assert!(tickets.iter().all(|t| t.try_done().is_none()));
        while wal.flush_once() {}
        assert!(tickets.iter().all(super::Ticket::wait));
        let metrics = wal.metrics().snapshot();
        assert_eq!(metrics.records, 10);
        assert!(metrics.batches >= 3, "batch_max 4 over 10 records");
        let log = recover(storage.as_ref()).unwrap();
        assert_eq!(log.records.len(), 10);
        assert_eq!(
            log.records.iter().map(|r| r.lsn).collect::<Vec<_>>(),
            (1..=10).collect::<Vec<_>>()
        );
        assert_eq!(log.report.next_lsn, 11);
    }

    #[test]
    fn spawned_flusher_round_trip() {
        let storage = Arc::new(SimStorage::new(5));
        let wal = Arc::new(new_wal(&storage, 8));
        wal.spawn_flusher().unwrap();
        let mut tickets = Vec::new();
        for k in 0..50 {
            tickets.push(wal.enqueue(&script(k)));
        }
        assert!(tickets.into_iter().all(|t| t.wait()));
        wal.shutdown();
        let log = recover(storage.as_ref()).unwrap();
        assert_eq!(log.records.len(), 50);
        // Enqueue after shutdown fails fast instead of hanging.
        assert!(!wal.enqueue(&script(99)).wait());
    }

    #[test]
    fn io_errors_fail_the_batch_tickets() {
        let storage = Arc::new(SimStorage::new(1));
        let wal = new_wal(&storage, 4);
        let t1 = wal.enqueue(&script(1));
        while wal.flush_once() {}
        assert!(t1.wait());
        storage.arm_kill(storage.op_count() + 1);
        let t2 = wal.enqueue(&script(2));
        while wal.flush_once() {}
        assert!(!t2.wait());
        assert_eq!(wal.metrics().snapshot().wal_errors, 1);
    }
}
