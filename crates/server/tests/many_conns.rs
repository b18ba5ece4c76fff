//! Ten thousand connections on one event loop: every one is accepted,
//! served and answered, and a wire `Shutdown` then drains them all to
//! exit status 0.
//!
//! The server is the *binary*, one process per side: both ends of
//! 10,000 sockets do not fit under one process's descriptor limit
//! (20,000 on the reference host). The client side is plain blocking
//! `TcpStream`s — one descriptor each, where a `Connection` holds two.
//! One test; nothing else runs in this binary: the raised rlimit is
//! process-wide (and inherited by the server child, which needs it).

#![cfg(target_os = "linux")]

mod common;

use common::{get_nofile, set_nofile, ServerProc};
use std::net::{SocketAddr, TcpStream};
use std::time::{Duration, Instant};
use txboost_client::ScriptBuilder;
use txboost_wire::{self as wire, OpResult, Request, Response, ScriptStatus, MAX_FRAME_LEN};

const WANTED: u64 = 10_000;
/// Descriptors kept back on each side: stdio, the listener, epoll, the
/// test harness's own files.
const HEADROOM: u64 = 64;

/// The next reply on `stream`, which must be a committed script's.
fn committed_results(mut stream: &TcpStream, i: usize) -> Vec<OpResult> {
    match wire::recv_response(&mut stream, MAX_FRAME_LEN) {
        Ok(Some(Response::Script {
            status: ScriptStatus::Committed,
            results,
            ..
        })) => results,
        other => panic!("connection {i}: expected a committed reply, got {other:?}"),
    }
}

#[test]
fn ten_thousand_connections_are_each_served_then_drained() {
    // Soft limit up to the hard one, before the server is spawned:
    // the child inherits it.
    let mut lim = get_nofile();
    lim.cur = lim.max;
    set_nofile(lim);
    let conns = WANTED.min(lim.max.saturating_sub(HEADROOM)) as usize;
    assert!(conns > 0, "no descriptors to spare");

    let server = ServerProc::spawn(&["--event-loops", "1"]);
    let addr: SocketAddr = server.addr().parse().expect("server address");

    // A single-threaded connect loop outruns the acceptor, and a full
    // listen backlog costs a SYN retransmit (or the timeout below) per
    // overflow. So the ramp paces itself: every `PACE` connects it
    // pings on the newest connection, and the pong says the server has
    // accepted everything up to it. The timeout and the deadline stay
    // as the net under that: a server that cannot absorb the connects
    // fails the test, it does not wedge it.
    const PACE: usize = 64;
    let started = Instant::now();
    let ramp_deadline = started + Duration::from_secs(30);
    let mut streams: Vec<TcpStream> = Vec::with_capacity(conns);
    for i in 0..conns {
        let stream = loop {
            match TcpStream::connect_timeout(&addr, Duration::from_millis(500)) {
                Ok(stream) => break stream,
                Err(e) => {
                    assert!(
                        Instant::now() < ramp_deadline,
                        "ramp stalled at connection {i}/{conns}: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        };
        stream
            .set_read_timeout(Some(Duration::from_secs(30)))
            .expect("read timeout");
        if i % PACE == PACE - 1 {
            let req_id = i as u64;
            wire::send_request(&mut &stream, &Request::Ping { req_id }).expect("send");
            match wire::recv_response(&mut &stream, MAX_FRAME_LEN) {
                Ok(Some(Response::Pong { req_id: got })) if got == req_id => {}
                other => panic!("connection {i}: expected a pong, got {other:?}"),
            }
        }
        streams.push(stream);
    }

    // One script on every connection before any reply is read, so all
    // of them are live at once.
    let add = ScriptBuilder::new().counter_add("storm", 1).build();
    for (i, mut stream) in streams.iter().enumerate() {
        let (req_id, ops) = (i as u64, add.clone());
        wire::send_request(&mut stream, &Request::Script { req_id, ops }).expect("send");
    }
    for (i, stream) in streams.iter().enumerate() {
        committed_results(stream, i);
    }

    let mut last = &streams[conns - 1];
    let ops = ScriptBuilder::new().counter_get("storm").build();
    wire::send_request(&mut last, &Request::Script { req_id: 0, ops }).expect("send");
    assert_eq!(
        committed_results(last, conns - 1),
        vec![OpResult::Value(Some(conns as i64))],
        "one add per connection"
    );
    println!(
        "many_conns: {conns} connections served in {:.1} s",
        started.elapsed().as_secs_f64()
    );

    // Every stream but `last` is idle across the drain: each sits at a
    // frame boundary with nothing in flight, so none of them holds the
    // server for the 2 s grace.
    let asked = Instant::now();
    wire::send_request(&mut last, &Request::Shutdown { req_id: 1 }).expect("send");
    match wire::recv_response(&mut last, MAX_FRAME_LEN) {
        Ok(Some(Response::ShutdownAck { req_id: 1 })) => {}
        other => panic!("expected the shutdown ack, got {other:?}"),
    }
    server.wait_drained();
    let took = asked.elapsed();
    println!("many_conns: drained in {:.2} s", took.as_secs_f64());
    assert!(
        took < Duration::from_secs(1),
        "{conns} idle connections held the drain for {took:?}"
    );
}
