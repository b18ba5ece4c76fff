//! # txboost-wal — a durable *logical* log of boosted method calls
//!
//! Transactional boosting already maintains a logical log: the undo log
//! records the *inverse* of every successful method call. This crate
//! persists the *forward* calls of committed transactions, at the same
//! abstract-method granularity — one compact record per committed
//! script, not a page of dirty words.
//!
//! The moving parts:
//!
//! * **Record format** ([`record`](crate::MAGIC)) — a WAL record is a
//!   length, a CRC32, a log sequence number, and the script's op list
//!   in the `txboost-wire` encoding. Segments are append-only files
//!   named by the first LSN they contain.
//! * **Group commit** ([`GroupCommitWal`]) — a committing thread seals
//!   its record into one shared pending buffer and receives a `Copy`
//!   [`Ticket`] (the log and an LSN). Whoever waits first on a record
//!   still pending *leads*: one write for every pending frame, one
//!   fsync, then the durable watermark moves and everyone queued
//!   behind the leader is covered. There is no flusher thread; a
//!   server poll tick waits on [`GroupCommitWal::newest`] before it
//!   replies, and a storage error stops the log for good.
//! * **Recovery** ([`recover`]) — scans the segment directory in LSN
//!   order, truncates at the first torn or corrupt record, deletes
//!   everything after the truncation point, and hands back the
//!   committed prefix for single-threaded replay through the boosted
//!   objects.
//! * **Simulated storage** ([`SimStorage`]) — an in-memory [`Storage`]
//!   with a kill switch that fails the Nth storage operation and
//!   discards un-synced bytes (keeping a seed-derived torn prefix),
//!   so the `txboost-sched` harness can crash the process image at
//!   every tick and re-run recovery.
//!
//! Every decision point on the durability path (append, a leader
//! taking its run of records, `fsync`, segment roll) is a
//! `det::yield_point`. Recovery runs single-threaded, outside any
//! scheduled run, and has none.

#![warn(missing_docs)]

mod crc;
mod group;
mod record;
mod recover;
mod storage;
mod writer;

pub use crc::crc32;
pub use group::{GroupCommitWal, Ticket, WalConfig};
pub use record::{MAGIC, MAX_PAYLOAD_LEN, RECORD_HEADER_LEN, SEGMENT_HEADER_LEN};
pub use recover::{recover, rotate_below, RecoveredLog, RecoveredRecord, RecoveryReport};
pub use storage::{FileStorage, SimStorage, Storage};
