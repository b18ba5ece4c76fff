//! The I/O plane: raw `epoll`, one loop per core.
//!
//! Readiness-based nonblocking multiplexing: each loop owns an
//! [`sys::Epoll`] instance, a clone of the listening socket, and every
//! connection it accepted (connections are pinned to their accepting
//! loop — no cross-loop handoff, no shared connection state). One
//! iteration is a **poll tick**:
//!
//! 1. block in `epoll_wait` (bounded by the shutdown poll interval);
//! 2. accept new connections (descriptor exhaustion backs the
//!    acceptor off and sheds load instead of spinning — see
//!    [`fd_exhausted`]);
//! 3. drain readable sockets edge-triggered into per-connection
//!    resumable [`FrameDecoder`]s, decoding complete frames into the
//!    tick's request queue — stopping per connection once its
//!    in-flight window fills (backpressure: an unread socket
//!    eventually stalls the peer through TCP);
//! 4. execute the tick's requests through the [`Batcher`], one
//!    transaction per script, appending replies to per-connection write
//!    buffers in arrival order — per-connection FIFO falls out; under a
//!    WAL the batcher returns once every commit record of the tick is
//!    durable (one wait per tick, which writes and fsyncs the tick's
//!    records itself), and a tick that cannot be made durable sends no
//!    reply at all: its connections close unflushed and the server
//!    stops;
//! 5. flush write buffers until `EAGAIN`, arming `EPOLLOUT` interest
//!    for whatever remains.
//!
//! A graceful drain stops accepting, stops reading each connection at
//! its next frame boundary — on the first draining tick for one that
//! is already at one, so an idle connection closes at once; a mid-frame
//! connection gets [`DRAIN_GRACE`] to finish —
//! executes every decoded script, and closes once replies are flushed.

use crate::batch::{script_response, Batcher};
use crate::sys::{self, EpollEvent, EPOLLERR, EPOLLET, EPOLLHUP, EPOLLIN, EPOLLOUT, EPOLLRDHUP};
use crate::{proto_error_code, Shared, POLL_INTERVAL};
use std::collections::VecDeque;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::AsRawFd;
use std::sync::atomic::Ordering;
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use txboost_wire as wire;
use txboost_wire::{FrameDecoder, Request, Response, WireError};

/// How long a drain waits for a half-received frame before giving up
/// on that connection.
const DRAIN_GRACE: Duration = Duration::from_secs(2);

/// Epoll token of the listening socket.
const TOK_LISTENER: u64 = 0;
/// Epoll token of the cross-thread wakeup eventfd.
const TOK_WAKEUP: u64 = 1;
/// First token usable for connections (token = slot + this).
const TOK_CONN0: u64 = 2;

/// Read/condition interest for every connection.
const CONN_EVENTS: u32 = EPOLLIN | EPOLLRDHUP | EPOLLET;

/// The running loops: join handles plus each loop's shutdown wakeup.
#[derive(Default)]
pub(crate) struct Loops {
    handles: Vec<JoinHandle<()>>,
    wakeups: Vec<Arc<sys::EventFd>>,
}

impl Loops {
    /// Interrupt every loop's `epoll_wait`, so a drain does not wait
    /// out the poll interval.
    pub(crate) fn wake(&self) {
        for wake in &self.wakeups {
            wake.fire();
        }
    }

    /// Join every loop (shutdown must already be requested).
    pub(crate) fn join(self) {
        for handle in self.handles {
            let _ = handle.join();
        }
    }

    /// Start one loop. Its epoll instance is created, and the listener
    /// and wakeup registered in it, *before* the thread exists: a loop
    /// that cannot accept is an error here, not a silent thread exit.
    fn spawn_one(&mut self, shared: &Arc<Shared>, listener: &TcpListener) -> io::Result<()> {
        let listener = listener.try_clone()?;
        let wake = Arc::new(sys::EventFd::new()?);
        let epoll = sys::Epoll::new()?;
        epoll.add(listener.as_raw_fd(), EPOLLIN, TOK_LISTENER)?;
        epoll.add(wake.raw(), EPOLLIN, TOK_WAKEUP)?;
        let (shared, wake2) = (Arc::clone(shared), Arc::clone(&wake));
        self.handles.push(
            std::thread::Builder::new()
                .name(format!("txboost-eloop-{}", self.handles.len()))
                .spawn(move || event_loop(&shared, &epoll, &listener, &wake2))?,
        );
        self.wakeups.push(wake);
        Ok(())
    }
}

/// Spawn `cfg.event_loops` loops (at least one) over clones of the
/// bound listener. An `Err` leaves nothing running.
pub(crate) fn spawn_loops(shared: &Arc<Shared>, listener: &TcpListener) -> io::Result<Loops> {
    let mut loops = Loops::default();
    for _ in 0..shared.cfg.event_loops.max(1) {
        if let Err(e) = loops.spawn_one(shared, listener) {
            shared.shutdown.store(true, Ordering::SeqCst);
            loops.wake();
            loops.join();
            return Err(e);
        }
    }
    Ok(loops)
}

/// Whether an accept failure means descriptor exhaustion
/// (`EMFILE` = 24, `ENFILE` = 23 on Linux).
fn fd_exhausted(e: &io::Error) -> bool {
    matches!(e.raw_os_error(), Some(23 | 24))
}

/// Per-connection state owned by exactly one event loop.
struct EConn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Encoded replies awaiting the socket; `out_pos` is the flushed
    /// prefix. Bounded: the window parks reading before this can hold
    /// more than `window` replies.
    out: Vec<u8>,
    out_pos: usize,
    /// End offset (into `out`) of each pending reply, for window
    /// accounting across partial flushes.
    reply_ends: VecDeque<usize>,
    /// Decoded requests whose replies are not yet fully flushed.
    inflight: usize,
    /// `EPOLLOUT` interest is currently armed.
    want_write: bool,
    /// Socket may hold unread bytes (edge seen, `EAGAIN` not yet).
    readable: bool,
    /// No more socket reads (shutdown ack sent, protocol error, EOF,
    /// or drain boundary); close once replies flush.
    stop_reading: bool,
    /// Peer closed its write side.
    peer_eof: bool,
    /// Unrecoverable transport error: close without flushing.
    dead: bool,
}

impl EConn {
    fn new(stream: TcpStream) -> EConn {
        EConn {
            stream,
            dec: FrameDecoder::new(wire::MAX_FRAME_LEN),
            out: Vec::new(),
            out_pos: 0,
            reply_ends: VecDeque::new(),
            inflight: 0,
            want_write: false,
            readable: true,
            stop_reading: false,
            peer_eof: false,
            dead: false,
        }
    }

    /// Append one encoded reply to the write buffer.
    fn push_reply(&mut self, resp: &Response) {
        // Writing into a Vec cannot fail; the result is plumbed
        // through because the encoder is generic over `io::Write`.
        let _ = wire::send_response(&mut self.out, resp);
        self.reply_ends.push_back(self.out.len());
    }

    /// Bytes still owed to the socket.
    fn has_unsent(&self) -> bool {
        self.out_pos < self.out.len()
    }
}

/// One event loop: accept, read, execute the tick, flush, repeat.
/// `epoll` arrives with the listener and `wake` already registered.
/// Its `run_tick` dispatch closure is handler code: a panic here kills
/// every connection on the loop.
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
fn event_loop(
    shared: &Arc<Shared>,
    epoll: &sys::Epoll,
    listener: &TcpListener,
    wake: &sys::EventFd,
) {
    let mut listener_registered = true;

    let mut conns: Vec<Option<EConn>> = Vec::new();
    let mut free: Vec<usize> = Vec::new();
    let mut events = vec![EpollEvent::zeroed(); 1024];
    let mut tickq: Vec<(usize, Request)> = Vec::new();
    // One read buffer for every connection of the loop: a stack array
    // would be zeroed on every `service_read`.
    let mut read_buf = vec![0u8; 16 * 1024];
    let mut accept_cooldown: Option<Instant> = None;
    let mut accept_backoff = POLL_INTERVAL;
    let mut draining = false;
    let mut drain_deadline = Instant::now();

    loop {
        if !draining && shared.shutdown.load(Ordering::SeqCst) {
            draining = true;
            drain_deadline = Instant::now() + DRAIN_GRACE;
            if listener_registered {
                let _ = epoll.delete(listener.as_raw_fd());
                listener_registered = false;
            }
            // Visit every connection this tick, not at its next
            // readable edge: `service_read` stops one that sits at a
            // frame boundary, and the sweep closes it once nothing is
            // in flight or unsent — an idle client does not hold the
            // drain for the grace period.
            for conn in conns.iter_mut().flatten() {
                conn.readable = true;
            }
        }
        if draining {
            let open = conns.iter().filter(|c| c.is_some()).count();
            if open == 0 {
                break;
            }
            if Instant::now() >= drain_deadline {
                // Grace expired: drop the stragglers (mid-frame
                // stalls, unread replies) unflushed.
                for slot in &mut conns {
                    if let Some(conn) = slot.take() {
                        let _ = epoll.delete(conn.stream.as_raw_fd());
                        shared.exec.conns.open.fetch_sub(1, Ordering::Relaxed);
                    }
                }
                break;
            }
        }

        // Re-arm accepting after a descriptor-exhaustion cooldown.
        if let Some(until) = accept_cooldown {
            if Instant::now() >= until && !draining {
                accept_cooldown = None;
                listener_registered = epoll
                    .add(listener.as_raw_fd(), EPOLLIN, TOK_LISTENER)
                    .is_ok();
            }
        }

        let n = epoll
            .wait(&mut events, Some(POLL_INTERVAL))
            .unwrap_or_default();

        let mut accept_ready = false;
        for ev in events.iter().take(n) {
            let (flags, token) = (ev.events, ev.data);
            match token {
                TOK_LISTENER => accept_ready = true,
                TOK_WAKEUP => wake.drain(),
                tok => {
                    let idx = (tok - TOK_CONN0) as usize;
                    if let Some(Some(conn)) = conns.get_mut(idx) {
                        if flags & (EPOLLIN | EPOLLRDHUP | EPOLLHUP) != 0 {
                            conn.readable = true;
                        }
                        if flags & EPOLLERR != 0 {
                            conn.dead = true;
                        }
                        // EPOLLOUT needs no flag: every tick retries
                        // pending flushes below; the event's only job
                        // was waking the loop.
                    }
                }
            }
        }

        if accept_ready && !draining && accept_cooldown.is_none() {
            accept_loop(
                shared,
                listener,
                epoll,
                &mut conns,
                &mut free,
                &mut accept_cooldown,
                &mut accept_backoff,
                &mut listener_registered,
            );
        }

        // Service reads: every connection that may hold undecoded
        // bytes (a fresh edge, or frames parked behind a full window).
        for idx in 0..conns.len() {
            if let Some(Some(conn)) = conns.get_mut(idx) {
                if !conn.stop_reading && !conn.dead && (conn.readable || conn.dec.buffered() > 0) {
                    service_read(conn, idx, shared, &mut tickq, &mut read_buf, draining);
                }
            }
        }

        // Execute the tick's requests in arrival order. Replies land in
        // each connection's write buffer in emission order, so
        // per-connection FIFO holds.
        if !tickq.is_empty() {
            let requests = std::mem::take(&mut tickq);
            let durable = Batcher.run_tick(
                &shared.exec,
                requests,
                |req| match req {
                    // `run_tick` runs every mutating script itself;
                    // this arm keeps the match total.
                    Request::Script { req_id, ops } => {
                        script_response(req_id, shared.exec.execute(&ops))
                    }
                    Request::ReadOnlyScript { req_id, ops } => {
                        // Snapshot reads skip the lock manager and
                        // the WAL.
                        script_response(req_id, shared.exec.execute_read_only(&ops))
                    }
                    Request::Stats { req_id } => Response::Stats {
                        req_id,
                        json: shared.exec.stats_json(),
                    },
                    Request::Ping { req_id } => Response::Pong { req_id },
                    Request::Shutdown { req_id } => {
                        shared.shutdown.store(true, Ordering::SeqCst);
                        Response::ShutdownAck { req_id }
                    }
                },
                |idx, resp| {
                    if let Some(Some(conn)) = conns.get_mut(idx) {
                        if matches!(resp, Response::ShutdownAck { .. }) {
                            conn.stop_reading = true;
                        }
                        conn.push_reply(&resp);
                    }
                },
            );
            if !durable {
                // Fail-stop: the log lost a record of this tick, so no
                // reply of this loop may leave. Every connection closes
                // unflushed and the whole server drains; `Server::join`
                // reports the failure.
                shared.shutdown.store(true, Ordering::SeqCst);
                for conn in conns.iter_mut().flatten() {
                    conn.dead = true;
                }
            }
        }

        // Flush and sweep.
        for idx in 0..conns.len() {
            let Some(Some(conn)) = conns.get_mut(idx) else {
                continue;
            };
            let mut drained = !conn.has_unsent();
            if !drained && !conn.dead {
                drained = flush_conn(conn);
            }
            let tok = TOK_CONN0 + idx as u64;
            if !conn.dead {
                if !drained && !conn.want_write {
                    conn.want_write = epoll
                        .modify(conn.stream.as_raw_fd(), CONN_EVENTS | EPOLLOUT, tok)
                        .is_ok();
                } else if drained && conn.want_write {
                    let _ = epoll.modify(conn.stream.as_raw_fd(), CONN_EVENTS, tok);
                    conn.want_write = false;
                }
            }
            let close = conn.dead
                || (conn.stop_reading && drained && conn.inflight == 0 && !conn.dec.has_frame());
            if close {
                let _ = epoll.delete(conn.stream.as_raw_fd());
                shared.exec.conns.open.fetch_sub(1, Ordering::Relaxed);
                if let Some(slot) = conns.get_mut(idx) {
                    *slot = None;
                }
                free.push(idx);
            }
        }
    }
}

/// Accept until `EAGAIN`. Descriptor exhaustion (`EMFILE`/`ENFILE`)
/// sheds the connection, logs + counts it, deregisters the listener
/// and backs off exponentially — accepting resumes after the cooldown.
#[allow(clippy::too_many_arguments)]
fn accept_loop(
    shared: &Arc<Shared>,
    listener: &TcpListener,
    epoll: &sys::Epoll,
    conns: &mut Vec<Option<EConn>>,
    free: &mut Vec<usize>,
    accept_cooldown: &mut Option<Instant>,
    accept_backoff: &mut Duration,
    listener_registered: &mut bool,
) {
    loop {
        match listener.accept() {
            Ok((stream, _peer)) => {
                *accept_backoff = POLL_INTERVAL;
                if stream.set_nonblocking(true).is_err() || stream.set_nodelay(true).is_err() {
                    continue;
                }
                let metrics = &shared.exec.conns;
                metrics.accepted.fetch_add(1, Ordering::Relaxed);
                metrics.open.fetch_add(1, Ordering::Relaxed);
                let conn = EConn::new(stream);
                let idx = match free.pop() {
                    Some(idx) => idx,
                    None => {
                        conns.push(None);
                        conns.len() - 1
                    }
                };
                let tok = TOK_CONN0 + idx as u64;
                if epoll
                    .add(conn.stream.as_raw_fd(), CONN_EVENTS, tok)
                    .is_err()
                {
                    metrics.open.fetch_sub(1, Ordering::Relaxed);
                    metrics.accept_errors.fetch_add(1, Ordering::Relaxed);
                    free.push(idx);
                    continue;
                }
                if let Some(slot) = conns.get_mut(idx) {
                    *slot = Some(conn);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return,
            Err(e) if fd_exhausted(&e) => {
                shared
                    .exec
                    .conns
                    .accept_errors
                    .fetch_add(1, Ordering::Relaxed);
                eprintln!("txboost-server: accept failed ({e}); backing off {accept_backoff:?}");
                *accept_cooldown = Some(Instant::now() + *accept_backoff);
                *accept_backoff = (*accept_backoff * 2).min(Duration::from_secs(1));
                // Deregister so the level-triggered, always-ready
                // listener cannot spin the loop during the cooldown.
                if *listener_registered {
                    let _ = epoll.delete(listener.as_raw_fd());
                    *listener_registered = false;
                }
                return;
            }
            // Transient per-connection failures (ECONNABORTED and
            // friends): skip this one, keep accepting.
            Err(_) => return,
        }
    }
}

/// Drain `conn`'s socket and decoder into the tick queue, stopping at
/// `EAGAIN`, a full in-flight window (parked: revisited next tick), a
/// protocol error, EOF, or a drain-time frame boundary.
fn service_read(
    conn: &mut EConn,
    idx: usize,
    shared: &Arc<Shared>,
    tickq: &mut Vec<(usize, Request)>,
    buf: &mut [u8],
    draining: bool,
) {
    let window = shared.cfg.window.max(1);
    loop {
        // Decode complete frames while the window allows.
        while conn.inflight < window && !conn.stop_reading {
            match conn.dec.next_frame() {
                Ok(Some(payload)) => match wire::decode_request(&payload) {
                    Ok(req) => {
                        if matches!(req, Request::Shutdown { .. }) {
                            // Nothing is read past a shutdown request
                            // (the sender has told the server to stop).
                            conn.stop_reading = true;
                        }
                        conn.inflight += 1;
                        tickq.push((idx, req));
                    }
                    Err(e) => proto_error(conn, shared, &e),
                },
                Ok(None) => break,
                Err(e) => proto_error(conn, shared, &e),
            }
        }
        if conn.stop_reading || conn.dead {
            return;
        }
        if conn.inflight >= window {
            // Parked: bytes may remain buffered (and the socket
            // unread); the per-tick sweep revisits once replies flush
            // and free window slots. Through TCP, a peer that keeps
            // pipelining into a full window eventually blocks — the
            // backpressure contract.
            return;
        }
        if conn.peer_eof {
            // All complete frames are decoded; a partial tail is a
            // truncated frame no reply could answer, so it is dropped.
            conn.stop_reading = true;
            return;
        }
        if draining && !conn.dec.mid_frame() {
            // Drain stops reading at a frame boundary.
            conn.stop_reading = true;
            return;
        }
        match conn.stream.read(buf) {
            Ok(0) => conn.peer_eof = true,
            Ok(n) => conn.dec.feed(&buf[..n]),
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => {
                conn.readable = false;
                return;
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
    }
}

/// Reply with a protocol error and stop reading — after a framing
/// violation the byte stream can no longer be trusted to be
/// frame-aligned. The connection closes once the error is flushed.
fn proto_error(conn: &mut EConn, shared: &Arc<Shared>, err: &WireError) {
    shared
        .exec
        .conns
        .proto_errors
        .fetch_add(1, Ordering::Relaxed);
    conn.push_reply(&Response::Error {
        req_id: 0,
        code: proto_error_code(err),
        message: err.to_string(),
    });
    conn.stop_reading = true;
}

/// Write the pending reply bytes until done or `EAGAIN`; returns
/// whether the buffer fully drained. Partial flushes keep the window
/// accounting exact via the per-reply end offsets.
fn flush_conn(conn: &mut EConn) -> bool {
    loop {
        if conn.out_pos >= conn.out.len() {
            conn.out.clear();
            conn.out_pos = 0;
            while conn.reply_ends.pop_front().is_some() {
                conn.inflight = conn.inflight.saturating_sub(1);
            }
            return true;
        }
        match conn.stream.write(&conn.out[conn.out_pos..]) {
            Ok(0) => {
                conn.dead = true;
                return false;
            }
            Ok(n) => {
                conn.out_pos += n;
                while conn
                    .reply_ends
                    .front()
                    .is_some_and(|&end| end <= conn.out_pos)
                {
                    conn.reply_ends.pop_front();
                    conn.inflight = conn.inflight.saturating_sub(1);
                }
            }
            Err(e) if e.kind() == io::ErrorKind::WouldBlock => return false,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return false;
            }
        }
    }
}
