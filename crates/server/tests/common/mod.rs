//! Shared by the suites that drive the `txboost-server` *binary* or
//! move the process's descriptor limit. Every test binary uses its own
//! subset, hence the blanket `dead_code`.

#![allow(dead_code)]

use std::io::{BufRead, BufReader, Read};
use std::process::{Child, ChildStdout, Command, Stdio};

/// A running server binary on an ephemeral port.
pub struct ServerProc {
    pub child: Child,
    /// Stdout past the banner. Held open so the server's shutdown line
    /// does not hit a broken pipe.
    pub stdout: BufReader<ChildStdout>,
    /// The first line the server printed.
    pub banner: String,
}

impl ServerProc {
    /// Start the binary with `--addr 127.0.0.1:0` plus `extra` and
    /// wait for its banner.
    pub fn spawn(extra: &[&str]) -> ServerProc {
        let mut child = Command::new(env!("CARGO_BIN_EXE_txboost-server"))
            .args(["--addr", "127.0.0.1:0"])
            .args(extra)
            .stdout(Stdio::piped())
            .spawn()
            .expect("spawn txboost-server");
        let mut stdout = BufReader::new(child.stdout.take().expect("piped stdout"));
        let mut banner = String::new();
        stdout.read_line(&mut banner).expect("read banner");
        ServerProc {
            child,
            stdout,
            banner,
        }
    }

    /// The address the banner announced.
    pub fn addr(&self) -> &str {
        self.banner
            .trim()
            .strip_prefix("txboost-server listening on ")
            .unwrap_or_else(|| panic!("unexpected banner: {:?}", self.banner))
    }

    /// Wait for the server to exit; it must have drained: status 0
    /// after printing "drained cleanly".
    pub fn wait_drained(mut self) {
        let status = self.child.wait().expect("wait for server");
        let mut rest = String::new();
        self.stdout.read_to_string(&mut rest).expect("read stdout");
        // A process a signal killed has no exit code at all.
        assert_eq!(status.code(), Some(0), "{status:?}; stdout: {rest:?}");
        assert!(rest.contains("drained cleanly"), "stdout: {rest:?}");
    }
}

const RLIMIT_NOFILE: i32 = 7;

/// The kernel's `struct rlimit`.
#[repr(C)]
#[derive(Clone, Copy)]
pub struct RLimit {
    pub cur: u64,
    pub max: u64,
}

extern "C" {
    fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
    fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
}

pub fn get_nofile() -> RLimit {
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable rlimit struct matching the
    // kernel's layout for RLIMIT_NOFILE.
    let rc = unsafe { getrlimit(RLIMIT_NOFILE, &raw mut lim) };
    assert_eq!(rc, 0, "getrlimit failed");
    lim
}

/// Callers keep `lim.cur <= lim.max` and never raise `max`.
pub fn set_nofile(lim: RLimit) {
    // SAFETY: `lim` is a valid rlimit value; the kernel rejects one
    // that exceeds the hard bound.
    let rc = unsafe { setrlimit(RLIMIT_NOFILE, &raw const lim) };
    assert_eq!(rc, 0, "setrlimit failed");
}
