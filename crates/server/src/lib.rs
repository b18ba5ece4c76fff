//! # txboost-server — a networked transactional-object service
//!
//! Serves the `txboost-wire` protocol over TCP: each request frame is
//! a **transaction script** that the server executes atomically, once,
//! as one boosted transaction (abstract locks taken up front in one
//! global order, so no deadlock and no timeout; undo logs), replying
//! with per-op results or an abort code.
//!
//! ## The I/O plane
//!
//! No async runtime: `std::net` + threads + raw Linux `epoll`
//! (`sys.rs`). One event loop per core, connections pinned to the loop
//! that accepted them, edge-triggered reads into per-connection
//! resumable frame decoders, batched reply flushes with EAGAIN-aware
//! write interest. The scripts that arrive in one poll tick run one
//! transaction each, in arrival order (see [`batch`]), and the tick's
//! WAL records are made durable by one write and one fsync issued by
//! the loop thread itself.
//!
//! The *server* is Linux-only: on any other target [`Server::bind`]
//! returns [`io::ErrorKind::Unsupported`]. [`Executor`], [`Batcher`]
//! and [`Namespace`] are portable.
//!
//! * **Bounded in-flight window** — each connection holds
//!   [`ServerConfig::window`] slots; when a client pipelines faster
//!   than its scripts execute (or stops reading replies), the server
//!   stops reading that connection and TCP backpressure reaches the
//!   client. Other connections are unaffected.
//! * **Graceful drain** — a wire `Shutdown` frame or SIGTERM stops
//!   accepting and reading; decoded scripts still execute and get
//!   replies before sockets close.
//!   [`Server::join`] returns once the drain is complete.

#![warn(missing_docs)]

pub mod batch;
#[cfg(target_os = "linux")]
mod eventloop;
mod exec;
mod namespace;
#[cfg(unix)]
pub mod signal;
#[cfg(target_os = "linux")]
mod sys;

pub use batch::{batch_eligible, BatchConfig, Batcher};
pub use exec::{Executor, ScriptOutcome};
pub use namespace::Namespace;

use std::io;
use std::net::SocketAddr;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txboost_core::TxnConfig;
use txboost_wire::{ProtoErrorCode, WireError};

/// Server tuning knobs.
#[derive(Debug, Clone)]
pub struct ServerConfig {
    /// Listen address, e.g. `"127.0.0.1:7411"`. Use port 0 to let the
    /// OS pick (tests).
    pub addr: String,
    /// Event loops (default: one per core; at least one runs).
    pub event_loops: usize,
    /// Per-connection in-flight request window (backpressure bound).
    pub window: usize,
    /// Permits a semaphore is created with on first reference.
    pub default_sem_permits: u64,
    /// Ignored: a script's lock waits have no deadline and it runs
    /// once, so the server has no lock timeout, retry budget or backoff
    /// to configure. Kept because the `benchmark/` harness still passes
    /// it to [`Executor::new`].
    pub txn: TxnConfig,
    /// Durable write-ahead logging; `None` (the default) runs the
    /// classic in-memory server, byte-for-byte unchanged behaviour.
    pub wal: Option<WalServerConfig>,
}

/// Write-ahead-log settings (the `--wal-dir` family of flags).
#[derive(Debug, Clone)]
pub struct WalServerConfig {
    /// Segment directory. Recovered on bind; created if missing.
    pub dir: std::path::PathBuf,
    /// Group-commit batch cap (records per fsync). Segments roll at
    /// the log's default size.
    pub batch_max: usize,
}

impl WalServerConfig {
    /// The default batch (64) for `dir`.
    pub fn new(dir: impl Into<std::path::PathBuf>) -> WalServerConfig {
        WalServerConfig {
            dir: dir.into(),
            batch_max: txboost_wal::WalConfig::default().batch_max,
        }
    }
}

/// How long a poll tick may block before re-checking for shutdown.
pub(crate) const POLL_INTERVAL: Duration = Duration::from_millis(25);

impl Default for ServerConfig {
    fn default() -> Self {
        let cores = std::thread::available_parallelism()
            .map(std::num::NonZero::get)
            .unwrap_or(4);
        ServerConfig {
            addr: "127.0.0.1:7411".to_string(),
            event_loops: cores,
            window: 32,
            default_sem_permits: 1024,
            txn: TxnConfig::default(),
            wal: None,
        }
    }
}

/// State shared by every event loop: the executor, the shutdown
/// latch, and the configuration.
pub(crate) struct Shared {
    pub(crate) exec: Executor,
    pub(crate) shutdown: AtomicBool,
    pub(crate) cfg: ServerConfig,
}

/// Map a wire decode failure to its protocol-error reply code.
pub(crate) fn proto_error_code(err: &WireError) -> ProtoErrorCode {
    match err {
        WireError::FrameTooLarge { .. } => ProtoErrorCode::FrameTooLarge,
        WireError::UnknownKind(_) => ProtoErrorCode::UnknownKind,
        WireError::TooManyOps(_) => ProtoErrorCode::TooManyOps,
        _ => ProtoErrorCode::Malformed,
    }
}

/// A running server. Dropping the handle does **not** stop the server;
/// call [`Server::shutdown`] + [`Server::join`] (or [`Server::wait`]).
pub struct Server {
    shared: Arc<Shared>,
    addr: SocketAddr,
    #[cfg(target_os = "linux")]
    loops: eventloop::Loops,
}

impl Server {
    /// Bind and start serving. `Ok` means every event loop holds the
    /// listener in its epoll instance; exhaustion here is an `Err`.
    /// The WAL `replay` closure is handler code: it rebuilds the
    /// committed prefix and must not panic.
    #[cfg(target_os = "linux")]
    #[warn(
        clippy::unwrap_used,
        clippy::expect_used,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::indexing_slicing,
        clippy::disallowed_macros
    )]
    pub fn bind(cfg: ServerConfig) -> io::Result<Server> {
        let listener = std::net::TcpListener::bind(&cfg.addr)?;
        listener.set_nonblocking(true)?;
        let addr = listener.local_addr()?;

        let shared = Arc::new(Shared {
            exec: Executor::new(TxnConfig::default(), cfg.default_sem_permits),
            shutdown: AtomicBool::new(false),
            cfg: cfg.clone(),
        });

        // Durability: recover + replay the committed prefix before any
        // loop runs, then attach the group-commit WAL so new commits
        // are logged (replay itself must not be).
        if let Some(wal_cfg) = &cfg.wal {
            let storage: Arc<dyn txboost_wal::Storage> =
                Arc::new(txboost_wal::FileStorage::open(&wal_cfg.dir)?);
            let recovered = txboost_wal::recover(storage.as_ref())?;
            recovered.replay(|record| shared.exec.replay_record(record));
            let wal = Arc::new(txboost_wal::GroupCommitWal::new(
                storage,
                &txboost_wal::WalConfig {
                    batch_max: wal_cfg.batch_max,
                    ..txboost_wal::WalConfig::default()
                },
                recovered.report.next_lsn,
                Arc::new(txboost_core::DurabilityMetrics::new()),
            )?);
            shared.exec.attach_wal(wal);
        }

        let loops = eventloop::spawn_loops(&shared, &listener)?;
        Ok(Server {
            shared,
            addr,
            loops,
        })
    }

    /// The I/O plane is Linux `epoll`; there is no server elsewhere.
    #[cfg(not(target_os = "linux"))]
    pub fn bind(_cfg: ServerConfig) -> io::Result<Server> {
        Err(io::Error::new(
            io::ErrorKind::Unsupported,
            "txboost-server needs Linux epoll",
        ))
    }

    /// The bound address (resolves port 0).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Request a graceful drain: accepting and reading stop, decoded
    /// scripts finish and get replies. Idempotent; returns immediately
    /// (pair with [`Server::join`]).
    pub fn shutdown(&self) {
        self.shared.shutdown.store(true, Ordering::SeqCst);
        #[cfg(target_os = "linux")]
        self.loops.wake();
    }

    /// Whether a drain has been requested (wire `Shutdown`, SIGTERM
    /// monitor, or [`Server::shutdown`]).
    pub fn shutdown_requested(&self) -> bool {
        self.shared.shutdown.load(Ordering::SeqCst)
    }

    /// Drain and join every thread. Requests shutdown if nobody has
    /// yet. In-flight requests get their replies before this returns.
    /// `false` if the write-ahead log hit a storage error: the server
    /// stopped itself, and the scripts of the failing tick (and any
    /// after it) were committed in memory but never acknowledged.
    pub fn join(self) -> bool {
        self.shutdown();
        #[cfg(target_os = "linux")]
        self.loops.join();
        // The loops are gone, so nothing enqueues anymore; close the
        // log. (Every acknowledged request was already durable before
        // its reply was written.)
        self.shared.exec.shutdown_wal()
    }

    /// Block until a shutdown is requested (by a wire `Shutdown`
    /// frame, [`Server::shutdown`] from another thread, or — when
    /// `sigterm` is true — SIGTERM), then drain and [`join`](Self::join).
    pub fn wait(self, sigterm: bool) -> bool {
        loop {
            if self.shutdown_requested() {
                break;
            }
            #[cfg(unix)]
            if sigterm && signal::term_requested() {
                self.shutdown();
                break;
            }
            #[cfg(not(unix))]
            let _ = sigterm;
            std::thread::sleep(POLL_INTERVAL);
        }
        self.join()
    }
}

#[cfg(all(test, target_os = "linux"))]
mod tests {
    use super::*;

    #[test]
    fn bind_on_ephemeral_port_and_drain_immediately() {
        let server = Server::bind(ServerConfig {
            addr: "127.0.0.1:0".into(),
            ..ServerConfig::default()
        })
        .unwrap();
        assert_ne!(server.local_addr().port(), 0);
        server.shutdown();
        server.join(); // must not hang with zero connections
    }
}
