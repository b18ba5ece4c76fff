//! Command-line contract of the `txboost-server` binary: a usage
//! error is one line on stderr and exit status 2 — never a panic with
//! a backtrace — and the `--io epoll` the benchmark harness passes
//! still starts a server.

#![cfg(target_os = "linux")]

use std::io::{BufRead, BufReader};
use std::process::{Command, Stdio};

const BIN: &str = env!("CARGO_BIN_EXE_txboost-server");

#[test]
fn usage_errors_print_one_line_and_exit_2() {
    let cases: [&[&str]; 4] = [
        &["--window", "x"],   // unparsable value
        &["--io", "threads"], // the removed plane
        &["--workers", "4"],  // a removed flag
        &["--addr"],          // trailing flag without its value
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
    let mut child = Command::new(BIN)
        .args(["--addr", "127.0.0.1:0", "--io", "epoll"])
        .stdout(Stdio::piped())
        .spawn()
        .expect("spawn server");
    let mut banner = String::new();
    BufReader::new(child.stdout.take().expect("piped stdout"))
        .read_line(&mut banner)
        .expect("read banner");
    let _ = child.kill();
    let _ = child.wait();
    assert!(
        banner.starts_with("txboost-server listening on 127.0.0.1:"),
        "unexpected banner: {banner:?}"
    );
}
