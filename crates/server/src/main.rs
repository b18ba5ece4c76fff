//! The `txboost-server` binary (Linux: the I/O plane is `epoll`).
//!
//! `--help` lists the flags. All connections are multiplexed over
//! `--event-loops` readiness loops; each script runs once, as its own
//! transaction, and a poll tick's replies leave after one durability
//! wait. There is no lock timeout or retry budget to set: a script
//! takes its locks in one global order, so it waits for them and
//! never deadlocks.
//! `--io epoll` is accepted and ignored — epoll is the only plane, and
//! the repo's benchmark harness still passes the flag; any other `--io`
//! value is a usage error.
//!
//! With `--wal-dir` the server recovers and replays the write-ahead
//! log in PATH before accepting connections, then logs every
//! committed mutating script (group commit, 16 MiB segments). A poll
//! tick's replies are sent only after an fsync covers every record
//! enqueued before the tick's end, so no reply shows a commit a crash
//! can lose. Without it the server is the classic in-memory one.
//! Frames are capped at 1 MiB.
//!
//! Runs until a wire `Shutdown` frame, SIGTERM, or SIGINT, then drains
//! gracefully: in-flight transactions finish and get replies before
//! the process exits 0. A write-ahead-log storage error stops the
//! server at once, unacknowledged replies unsent, with exit status 1.
//! A usage error prints one line and exits 2.

use std::str::FromStr;
use txboost_server::{Server, ServerConfig, WalServerConfig};

const USAGE: &str = "usage: txboost-server [--addr HOST:PORT] [--event-loops N] \
                     [--window N] [--default-sem-permits N] \
                     [--wal-dir PATH] [--wal-batch N] \
                     [--io epoll (accepted and ignored: epoll is the only I/O plane)]";

/// Every command-line mistake ends here: one line, exit status 2.
fn usage_error(msg: &str) -> ! {
    eprintln!("txboost-server: {msg} (try --help)");
    std::process::exit(2);
}

fn parsed<T: FromStr>(flag: &str, raw: String) -> T {
    raw.parse()
        .unwrap_or_else(|_| usage_error(&format!("bad value {raw:?} for {flag}")))
}

/// The WAL settings, switched on (directory `wal`) by the first
/// `--wal-*` flag.
fn wal(cfg: &mut ServerConfig) -> &mut WalServerConfig {
    cfg.wal.get_or_insert_with(|| WalServerConfig::new("wal"))
}

fn main() {
    let mut cfg = ServerConfig::default();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| usage_error(&format!("missing value for {flag}")))
        };
        match flag.as_str() {
            "--addr" => cfg.addr = val(),
            "--io" => {
                let plane = val();
                if plane != "epoll" {
                    usage_error(&format!("bad --io {plane}: epoll is the only I/O plane"));
                }
            }
            "--event-loops" => cfg.event_loops = parsed(&flag, val()),
            "--window" => cfg.window = parsed(&flag, val()),
            "--default-sem-permits" => cfg.default_sem_permits = parsed(&flag, val()),
            "--wal-dir" => wal(&mut cfg).dir = val().into(),
            "--wal-batch" => wal(&mut cfg).batch_max = parsed(&flag, val()),
            "--help" | "-h" => {
                println!("{USAGE}");
                return;
            }
            other => usage_error(&format!("unknown flag {other}")),
        }
    }

    #[cfg(unix)]
    txboost_server::signal::install();

    let server = match Server::bind(cfg) {
        Ok(s) => s,
        Err(e) => {
            eprintln!("txboost-server: bind failed: {e}");
            std::process::exit(1);
        }
    };
    println!("txboost-server listening on {}", server.local_addr());

    if !server.wait(true) {
        eprintln!("txboost-server: write-ahead log storage failed; stopped without acknowledging what was not durable");
        std::process::exit(1);
    }
    println!("txboost-server: drained cleanly");
}
