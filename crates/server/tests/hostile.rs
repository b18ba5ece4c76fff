//! Slow and hostile clients against the event-driven plane.
//!
//! The epoll loop multiplexes every connection through one thread, so
//! a single misbehaving peer — trickling bytes, never reading replies,
//! vanishing mid-frame — must cost only itself: no panic, no stall of
//! the loop, no effect on well-behaved connections sharing it.

#![cfg(target_os = "linux")]

use std::io::{BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::time::Duration;
use txboost_client::{Connection, ScriptBuilder};
use txboost_server::{Server, ServerConfig};
use txboost_wire::{recv_response, Request, Response, ScriptStatus, MAX_FRAME_LEN};

fn start_server(window: usize) -> Server {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        window,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

/// Length-prefix one encoded request.
fn framed(req: &Request) -> Vec<u8> {
    let payload = txboost_wire::encode_request(req);
    let mut bytes = u32::try_from(payload.len())
        .expect("payload fits a frame")
        .to_le_bytes()
        .to_vec();
    bytes.extend_from_slice(&payload);
    bytes
}

/// Shrink a socket's kernel buffers so backpressure bites at test
/// scale instead of megabytes.
fn shrink_buffers(stream: &TcpStream) {
    const SOL_SOCKET: i32 = 1;
    const SO_SNDBUF: i32 = 7;
    const SO_RCVBUF: i32 = 8;
    extern "C" {
        fn setsockopt(fd: i32, level: i32, optname: i32, optval: *const i32, optlen: u32) -> i32;
    }
    let size: i32 = 4096;
    for opt in [SO_SNDBUF, SO_RCVBUF] {
        // SAFETY: fd is a live socket owned by `stream`; optval points
        // at a valid i32 whose size is passed as optlen.
        let rc = unsafe {
            setsockopt(
                stream.as_raw_fd(),
                SOL_SOCKET,
                opt,
                &raw const size,
                u32::try_from(std::mem::size_of::<i32>()).expect("size fits"),
            )
        };
        assert_eq!(rc, 0, "setsockopt failed");
    }
}

/// A peer that dribbles each frame one byte at a time still gets every
/// script committed, in order: the resumable decoder reassembles
/// frames across arbitrarily many poll ticks.
#[test]
fn one_byte_at_a_time_frames_still_commit() {
    let server = start_server(16);
    let addr = server.local_addr().to_string();

    let stream = TcpStream::connect(&addr).unwrap();
    stream
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let mut wr = stream.try_clone().unwrap();
    let mut rd = BufReader::new(stream);

    for req_id in 1..=3u64 {
        let req = Request::Script {
            req_id,
            ops: ScriptBuilder::new().counter_add("trickle", 1).build(),
        };
        for (i, byte) in framed(&req).iter().enumerate() {
            wr.write_all(&[*byte]).unwrap();
            wr.flush().unwrap();
            if i % 7 == 0 {
                // Space the dribble across poll ticks, not just TCP
                // segments.
                std::thread::sleep(Duration::from_millis(1));
            }
        }
        match recv_response(&mut rd, MAX_FRAME_LEN).unwrap() {
            Some(Response::Script {
                req_id: got,
                status,
                results,
                ..
            }) => {
                assert_eq!(got, req_id);
                assert_eq!(status, ScriptStatus::Committed);
                assert_eq!(results.len(), 1);
            }
            other => panic!("expected script reply, got {other:?}"),
        }
    }

    let mut probe = Connection::connect(&addr).unwrap();
    let out = probe
        .execute(ScriptBuilder::new().counter_get("trickle").build())
        .unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);
    server.join();
}

/// A client that pipelines hard and never reads replies gets parked by
/// the in-flight window (and, with shrunken kernel buffers, by
/// write-side `EAGAIN`), while a healthy connection on the same event
/// loop keeps committing. When the staller finally reads, every reply
/// is there, in send order.
#[test]
fn stalled_reader_is_parked_without_stalling_others() {
    const SCRIPTS: u64 = 300;
    const OPS_PER: usize = 64;

    let server = start_server(4);
    let addr = server.local_addr().to_string();

    let staller = TcpStream::connect(&addr).unwrap();
    shrink_buffers(&staller);
    staller
        .set_write_timeout(Some(Duration::from_millis(100)))
        .unwrap();

    let mut pending = Vec::new();
    for req_id in 0..SCRIPTS {
        let mut b = ScriptBuilder::new();
        for _ in 0..OPS_PER {
            b = b.counter_add("hoard", 1);
        }
        pending.extend_from_slice(&framed(&Request::Script {
            req_id,
            ops: b.build(),
        }));
    }

    // Push until the pipe jams (tiny buffers + a window of 4 + replies
    // nobody reads guarantee it jams long before the end).
    let mut wr = staller.try_clone().unwrap();
    let mut off = 0;
    while off < pending.len() {
        match wr.write(&pending[off..]) {
            Ok(n) => off += n,
            Err(e)
                if e.kind() == std::io::ErrorKind::WouldBlock
                    || e.kind() == std::io::ErrorKind::TimedOut =>
            {
                break;
            }
            Err(e) => panic!("staller write failed: {e}"),
        }
    }

    // The loop is wedged on this peer's window — a healthy connection
    // multiplexed by the same loop must not notice.
    let mut healthy = Connection::connect(&addr).unwrap();
    healthy
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    for _ in 0..20 {
        let out = healthy
            .execute(ScriptBuilder::new().counter_add("healthy", 1).build())
            .unwrap();
        assert_eq!(out.status, ScriptStatus::Committed);
    }

    // Unstall: finish the writes from a helper thread (they unblock as
    // the reads below drain the window) and read every reply back.
    wr.set_write_timeout(None).unwrap();
    let writer = std::thread::spawn(move || {
        wr.write_all(&pending[off..]).unwrap();
    });
    staller
        .set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    let mut rd = BufReader::new(staller);
    for expect in 0..SCRIPTS {
        match recv_response(&mut rd, MAX_FRAME_LEN).unwrap() {
            Some(Response::Script { req_id, status, .. }) => {
                assert_eq!(req_id, expect, "replies out of FIFO order");
                assert_eq!(status, ScriptStatus::Committed);
            }
            other => panic!("expected reply {expect}, got {other:?}"),
        }
    }
    writer.join().unwrap();

    let out = healthy
        .execute(ScriptBuilder::new().counter_get("hoard").build())
        .unwrap();
    assert_eq!(
        out.results,
        vec![txboost_wire::OpResult::Value(Some(
            (SCRIPTS * OPS_PER as u64) as i64
        ))]
    );
    server.join();
}

/// Connections that vanish mid-frame — abruptly or with a half-close —
/// are shed without a panic and without disturbing their neighbours.
/// Complete frames received before the cut still get replies.
#[test]
fn mid_frame_disconnect_is_shed_quietly() {
    let server = start_server(16);
    let addr = server.local_addr().to_string();

    let mut healthy = Connection::connect(&addr).unwrap();
    healthy.ping().unwrap();

    // Half-close after one complete ping and a lying partial frame:
    // the ping must be answered, then the connection must close
    // without a reply to the phantom.
    {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let mut bytes = framed(&Request::Ping { req_id: 9 });
        bytes.extend_from_slice(&50u32.to_le_bytes());
        bytes.extend_from_slice(&[7u8; 3]);
        stream.write_all(&bytes).unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        stream
            .set_read_timeout(Some(Duration::from_secs(5)))
            .unwrap();
        let mut rd = BufReader::new(stream);
        match recv_response(&mut rd, MAX_FRAME_LEN).unwrap() {
            Some(Response::Pong { req_id }) => assert_eq!(req_id, 9),
            other => panic!("expected pong before close, got {other:?}"),
        }
        let mut rest = Vec::new();
        let n = rd.read_to_end(&mut rest).unwrap_or(0);
        assert_eq!(n, 0, "server replied to a frame that never completed");
    }

    // A rotating cast of abrupt disconnectors: partial header, partial
    // payload, instant drop.
    for i in 0..12u32 {
        let mut stream = TcpStream::connect(&addr).unwrap();
        let cut = match i % 3 {
            0 => vec![0x10, 0x00],
            1 => {
                let mut b = 64u32.to_le_bytes().to_vec();
                b.extend_from_slice(&[0xAB; 9]);
                b
            }
            _ => Vec::new(),
        };
        if !cut.is_empty() {
            let _ = stream.write_all(&cut);
        }
        drop(stream);
        // The survivor keeps working between every disconnect.
        healthy.ping().unwrap();
    }

    let out = healthy
        .execute(ScriptBuilder::new().counter_add("survivor", 1).build())
        .unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);
    server.join();
}
