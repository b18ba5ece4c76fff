//! Descriptor-exhaustion regression: when `accept` hits `EMFILE` /
//! `ENFILE`, the server must shed the connection gracefully — log it,
//! count it in `STATS`, back off — and resume accepting once
//! descriptors free up. It must never busy-spin the accept loop or
//! die.
//!
//! The test caps `RLIMIT_NOFILE` just above the process's current
//! usage, provokes the failure, watches the `accept_errors` counter
//! through an already-open connection, then restores the limit and
//! proves new connections work again. Under the same kind of limit a
//! second `Server::bind` must fail outright, not hand back a server
//! whose event loop got no epoll descriptor and accepts nothing. One
//! test; nothing else runs in this binary: the rlimit is process-wide.

#![cfg(target_os = "linux")]

mod common;

use common::{get_nofile, set_nofile, RLimit};
use std::net::TcpStream;
use std::time::{Duration, Instant};
use txboost_client::{Connection, ScriptBuilder};
use txboost_server::{Server, ServerConfig};
use txboost_wire::ScriptStatus;

extern "C" {
    fn fcntl(fd: i32, cmd: i32, ...) -> i32;
}

/// Highest file descriptor currently open in this process.
fn max_open_fd() -> u64 {
    std::fs::read_dir("/proc/self/fd")
        .expect("proc fd dir")
        .filter_map(|e| e.ok()?.file_name().into_string().ok()?.parse::<u64>().ok())
        .max()
        .unwrap_or(0)
}

/// The soft limit under which exactly `free` descriptor numbers are
/// still unused (the limit bounds the *number* a new descriptor gets).
/// Probes with `fcntl`, which — unlike listing `/proc/self/fd` — takes
/// no descriptor of its own.
fn limit_leaving(free: usize) -> u64 {
    const F_GETFD: i32 = 1;
    // SAFETY: F_GETFD reads one descriptor's flags and touches no
    // memory; on a closed descriptor it fails with EBADF.
    let unused = |fd: &i32| unsafe { fcntl(*fd, F_GETFD) } == -1;
    let last = (0..).filter(unused).nth(free - 1);
    last.expect("descriptor numbers do not run out") as u64 + 1
}

/// Pull the `accept_errors` counter out of the stats document.
fn accept_errors(stats: &str) -> u64 {
    let tail = stats
        .split("\"accept_errors\":")
        .nth(1)
        .expect("stats should report accept_errors");
    tail.chars()
        .take_while(char::is_ascii_digit)
        .collect::<String>()
        .parse()
        .expect("accept_errors should be a number")
}

#[test]
fn emfile_on_accept_sheds_and_recovers() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    })
    .expect("bind test server");
    let addr = server.local_addr().to_string();

    // A scout connection opened while descriptors are plentiful; it is
    // the stats channel for the whole episode.
    let mut scout = Connection::connect(&addr).unwrap();
    scout
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    scout.ping().unwrap();
    let baseline = accept_errors(&scout.stats_json().unwrap());

    let saved = get_nofile();
    // Binding a second server without room for its epoll instance must
    // fail, not hand back a server that accepts nothing. Three free
    // descriptors cover the listener, its per-loop clone and the
    // loop's wakeup eventfd — the epoll instance is the one that does
    // not fit.
    set_nofile(RLimit {
        cur: limit_leaving(3),
        max: saved.max,
    });
    let second = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        event_loops: 1,
        ..ServerConfig::default()
    });
    set_nofile(saved);
    match second {
        Err(e) => assert_eq!(e.raw_os_error(), Some(24), "expected EMFILE, got {e}"),
        Ok(_) => panic!("bind reported success without an epoll instance"),
    }

    // Leave room for roughly one more descriptor: the victim's client
    // socket fits, the server-side accept does not.
    set_nofile(RLimit {
        cur: max_open_fd() + 3,
        max: saved.max,
    });

    // Provoke: connects land in the backlog; the accepts hit EMFILE.
    // Client-side EMFILE (our own connect running out) is fine too —
    // at least one attempt must reach a failing accept.
    let mut victims = Vec::new();
    for _ in 0..4 {
        if let Ok(s) = TcpStream::connect(&addr) {
            victims.push(s);
        }
    }

    // The server records the shed accepts and stays responsive.
    let deadline = Instant::now() + Duration::from_secs(10);
    loop {
        scout.ping().unwrap();
        if accept_errors(&scout.stats_json().unwrap()) > baseline {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "accept_errors never incremented under EMFILE"
        );
        std::thread::sleep(Duration::from_millis(20));
    }

    // Recover: free descriptors, restore the limit, and prove fresh
    // connections are served again once the backoff expires.
    drop(victims);
    set_nofile(saved);
    let deadline = Instant::now() + Duration::from_secs(10);
    let mut fresh = loop {
        match Connection::connect(&addr) {
            Ok(conn) => break conn,
            Err(e) => {
                assert!(
                    Instant::now() < deadline,
                    "server never resumed accepting after EMFILE: {e}"
                );
                std::thread::sleep(Duration::from_millis(50));
            }
        }
    };
    fresh
        .set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    let out = fresh
        .execute(ScriptBuilder::new().counter_add("post-emfile", 1).build())
        .unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);

    drop(fresh);
    drop(scout);
    server.join();
}
