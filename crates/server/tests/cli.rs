//! Command-line contract of the `txboost-server` binary: a usage
//! error is one line on stderr and exit status 2 — never a panic with
//! a backtrace — the `--io epoll` the benchmark harness passes still
//! starts a server, and SIGTERM drains it to exit status 0.

#![cfg(target_os = "linux")]

mod common;

use common::ServerProc;
use std::process::Command;
use std::time::{Duration, Instant};
use txboost_client::{Connection, ScriptBuilder};

const BIN: &str = env!("CARGO_BIN_EXE_txboost-server");

#[test]
fn usage_errors_print_one_line_and_exit_2() {
    let cases: [&[&str]; 9] = [
        &["--window", "x"],   // unparsable value
        &["--io", "threads"], // the removed plane
        &["--workers", "4"],  // a removed flag
        &["--no-batch"],      // another: batching has no off switch
        // Scripts cannot deadlock, so there is no timeout or retry cap.
        &["--lock-timeout-us", "10000"],
        &["--max-retries", "64"],
        // Settings nobody changed are constants now.
        &["--max-frame", "1048576"],
        &["--wal-segment-bytes", "8192"],
        &["--addr"], // trailing flag without its value
    ];
    for args in cases {
        let out = Command::new(BIN).args(args).output().expect("run server");
        let stderr = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {stderr}");
        assert!(!stderr.contains("panicked at"), "{args:?}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
        assert!(out.stdout.is_empty(), "{args:?} must not start a server");
    }
}

#[test]
fn io_epoll_is_accepted_and_the_server_starts() {
    let mut server = ServerProc::spawn(&["--io", "epoll"]);
    let _ = server.child.kill();
    let _ = server.child.wait();
    // `addr` panics on anything but the listening banner.
    assert!(server.addr().starts_with("127.0.0.1:"), "{}", server.banner);
}

#[test]
fn sigterm_drains_and_exits_0() {
    const SIGTERM: i32 = 15;
    extern "C" {
        fn kill(pid: i32, sig: i32) -> i32;
    }

    let server = ServerProc::spawn(&[]);
    // The connection stays open across the signal: an idle client sits
    // at a frame boundary with nothing in flight, so the drain closes
    // it on its first tick and does not wait out the 2 s grace.
    let mut conn = Connection::connect(server.addr()).expect("connect");
    let out = conn
        .execute(ScriptBuilder::new().counter_add("c", 1).build())
        .expect("execute");
    assert!(out.committed(), "{out:?}");

    let signalled = Instant::now();
    // SAFETY: signals one process, the child this test spawned and has
    // not yet waited for, so the pid cannot have been reused.
    let rc = unsafe { kill(server.child.id() as i32, SIGTERM) };
    assert_eq!(rc, 0, "kill failed");
    // Without the handler SIGTERM kills the process: no exit code.
    server.wait_drained();
    let took = signalled.elapsed();
    assert!(
        took < Duration::from_secs(1),
        "an idle client held the drain for {took:?}"
    );
}
