//! conn_storm — massive-concurrency bench of the server's event loop,
//! with and without commit batching.
//!
//! ```text
//! conn_storm [--conns-small 64] [--conns-large 10000]
//!            [--duration-ms 2000] [--out-dir bench_results | --no-json]
//!            [--small-only]
//! ```
//!
//! Four configurations: the server as shipped and the server with
//! commit batching disabled — each at a small (`--conns-small`) and a
//! large (`--conns-large`) connection count. Every connection runs a
//! closed loop with one outstanding single-op counter script, so
//! throughput measures how well one event loop multiplexes many
//! mostly-idle connections, and the no-batch ablation isolates what
//! same-tick commit coalescing contributes.
//!
//! The server runs in a **separate process** (this binary re-executes
//! itself with `--serve`): 10k connections cost 10k descriptors on
//! each side, and one process would need both sides' under a 20k
//! `RLIMIT_NOFILE`. The client side is itself epoll-driven (reusing
//! [`txboost_server::sys`]) — ten thousand blocking client threads
//! would drown the measurement in scheduler noise.
//!
//! Results go to `BENCH_server_conns.json` (labels `epoll_small`,
//! `epoll_nobatch_small`, `epoll_large`, `epoll_nobatch_large`;
//! `threads` carries the connection count).
//! `scripts/check_bench_json.py server_conns` validates it in CI.

use std::io::{BufRead, BufReader, Read, Write};
use std::net::TcpStream;
use std::os::unix::io::AsRawFd;
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};
use txboost_bench::report::{BenchReport, SeriesPoint};
use txboost_core::LatencyHistogram;
use txboost_server::sys::{Epoll, EpollEvent, EPOLLIN, EPOLLOUT};
use txboost_server::{Server, ServerConfig};
use txboost_wire as wire;
use txboost_wire::{FrameDecoder, Request, Response, ScriptStatus, MAX_FRAME_LEN};

#[derive(Debug, Clone)]
struct Args {
    conns_small: usize,
    conns_large: usize,
    duration: Duration,
    out_dir: Option<String>,
    small_only: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        conns_small: 64,
        conns_large: 10_000,
        duration: Duration::from_secs(2),
        out_dir: Some("bench_results".to_string()),
        small_only: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--conns-small" => args.conns_small = val().parse().expect("bad --conns-small"),
            "--conns-large" => args.conns_large = val().parse().expect("bad --conns-large"),
            "--duration-ms" => {
                args.duration = Duration::from_millis(val().parse().expect("bad --duration-ms"));
            }
            "--out-dir" => args.out_dir = Some(val()),
            "--no-json" => args.out_dir = None,
            "--small-only" => args.small_only = true,
            "--help" | "-h" => {
                println!(
                    "usage: conn_storm [--conns-small N] [--conns-large N] [--duration-ms N] \
                     [--out-dir DIR | --no-json] [--small-only]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// Raise the soft `RLIMIT_NOFILE` to the hard bound, so descriptor
/// headroom — not a conservative default — caps the storm.
fn raise_nofile() {
    const RLIMIT_NOFILE: i32 = 7;
    #[repr(C)]
    struct RLimit {
        cur: u64,
        max: u64,
    }
    extern "C" {
        fn getrlimit(resource: i32, rlim: *mut RLimit) -> i32;
        fn setrlimit(resource: i32, rlim: *const RLimit) -> i32;
    }
    let mut lim = RLimit { cur: 0, max: 0 };
    // SAFETY: `lim` is a valid, writable rlimit struct matching the
    // kernel layout; raising cur to max never exceeds the hard bound.
    unsafe {
        if getrlimit(RLIMIT_NOFILE, &raw mut lim) == 0 {
            lim.cur = lim.max;
            let _ = setrlimit(RLIMIT_NOFILE, &raw const lim);
        }
    }
}

// ---------------------------------------------------------------------------
// Server child process (`--serve` mode)
// ---------------------------------------------------------------------------

/// Run as the server until killed. Prints `LISTENING <addr>` once the
/// socket is bound so the parent can connect.
fn serve(batch: bool) -> ! {
    raise_nofile();
    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        event_loops: 1,
        window: 64,
        ..ServerConfig::default()
    };
    cfg.batch.enabled = batch;
    let server = Server::bind(cfg).expect("bind bench server");
    println!("LISTENING {}", server.local_addr());
    let _ = std::io::stdout().flush();
    server.wait(false);
    std::process::exit(0);
}

/// Spawn this binary as the server child; returns the child and the
/// address it listens on.
fn spawn_server(batch: bool) -> (Child, String) {
    let exe = std::env::current_exe().expect("own path");
    let mut cmd = Command::new(exe);
    cmd.arg("--serve");
    if !batch {
        cmd.arg("--no-batch");
    }
    cmd.stdout(Stdio::piped()).stderr(Stdio::inherit());
    let mut child = cmd.spawn().expect("spawn server child");
    let stdout = child.stdout.take().expect("child stdout");
    let mut line = String::new();
    BufReader::new(stdout)
        .read_line(&mut line)
        .expect("read child banner");
    let addr = line
        .trim()
        .strip_prefix("LISTENING ")
        .expect("child banner")
        .to_string();
    (child, addr)
}

// ---------------------------------------------------------------------------
// Epoll client
// ---------------------------------------------------------------------------

/// One closed-loop connection: a request on the wire or a reply being
/// awaited, never both.
struct CConn {
    stream: TcpStream,
    dec: FrameDecoder,
    /// Unsent tail of the current request frame.
    pending: usize,
    sent_at: Instant,
    want_write: bool,
    dead: bool,
}

struct Tally {
    committed: u64,
    aborted: u64,
    hist: LatencyHistogram,
}

/// Drive `n` connections against `addr` for `duration`; every reply
/// immediately triggers the next request.
fn run_client(addr: &str, n: usize, duration: Duration) -> Tally {
    // One canonical frame, reused by every send: a single eligible
    // counter op (the batching ablation's unit of work).
    let frame = {
        let payload = wire::encode_request(&Request::Script {
            req_id: 0,
            ops: vec![wire::ScriptOp::new(wire::Op::CounterAdd {
                obj: "storm".into(),
                delta: 1,
            })],
        });
        let mut bytes = u32::try_from(payload.len())
            .expect("frame fits")
            .to_le_bytes()
            .to_vec();
        bytes.extend_from_slice(&payload);
        bytes
    };

    // Ramp with a bounded per-attempt timeout and a global deadline:
    // a server that cannot absorb the connect storm should fail the
    // bench loudly, not wedge it behind kernel SYN-retry backoff.
    let sock_addr: std::net::SocketAddr = addr.parse().expect("server addr");
    let ramp_deadline = Instant::now() + Duration::from_secs(90);
    let connect = |i: usize| -> TcpStream {
        loop {
            match TcpStream::connect_timeout(&sock_addr, Duration::from_millis(500)) {
                Ok(s) => return s,
                Err(e) => {
                    assert!(
                        Instant::now() < ramp_deadline,
                        "ramp deadline exceeded at conn {i}/{n}: {e}"
                    );
                    std::thread::sleep(Duration::from_millis(10));
                }
            }
        }
    };

    let epoll = Epoll::new().expect("client epoll");
    let mut conns: Vec<CConn> = Vec::with_capacity(n);
    for i in 0..n {
        let stream = connect(i);
        stream.set_nodelay(true).expect("nodelay");
        stream.set_nonblocking(true).expect("nonblocking");
        epoll
            .add(stream.as_raw_fd(), EPOLLIN, i as u64)
            .expect("register storm conn");
        conns.push(CConn {
            stream,
            dec: FrameDecoder::new(MAX_FRAME_LEN),
            pending: 0,
            sent_at: Instant::now(),
            want_write: false,
            dead: false,
        });
        if (i + 1) % 2_000 == 0 {
            eprintln!("  connected {}/{n}", i + 1);
        }
    }

    let mut tally = Tally {
        committed: 0,
        aborted: 0,
        hist: LatencyHistogram::new(),
    };

    // Prime: first request on every connection.
    for (i, conn) in conns.iter_mut().enumerate() {
        start_send(conn, &frame);
        pump(&epoll, conn, i, &frame, &mut tally);
    }

    let started = Instant::now();
    let mut events = vec![EpollEvent::zeroed(); 4096];
    while started.elapsed() < duration {
        let left = duration.saturating_sub(started.elapsed());
        let got = epoll
            .wait(&mut events, Some(left.min(Duration::from_millis(50))))
            .unwrap_or(0);
        for ev in events.iter().take(got) {
            let idx = ev.data as usize;
            if idx < conns.len() {
                pump(&epoll, &mut conns[idx], idx, &frame, &mut tally);
            }
        }
    }
    tally
}

/// Begin writing the canonical frame on `conn`.
fn start_send(conn: &mut CConn, frame: &[u8]) {
    conn.pending = frame.len();
    conn.sent_at = Instant::now();
}

/// Advance one connection: finish writes, drain replies, issue the
/// next request after each reply. Level-triggered, so partial progress
/// is always safe.
fn pump(epoll: &Epoll, conn: &mut CConn, idx: usize, frame: &[u8], tally: &mut Tally) {
    if conn.dead {
        return;
    }
    loop {
        // Finish the outbound frame first.
        while conn.pending > 0 {
            let off = frame.len() - conn.pending;
            match conn.stream.write(&frame[off..]) {
                Ok(0) => {
                    conn.dead = true;
                    return;
                }
                Ok(written) => conn.pending -= written,
                Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                    if !conn.want_write {
                        conn.want_write = epoll
                            .modify(conn.stream.as_raw_fd(), EPOLLIN | EPOLLOUT, idx as u64)
                            .is_ok();
                    }
                    return;
                }
                Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
                Err(_) => {
                    conn.dead = true;
                    return;
                }
            }
        }
        if conn.want_write {
            let _ = epoll.modify(conn.stream.as_raw_fd(), EPOLLIN, idx as u64);
            conn.want_write = false;
        }

        // Await the reply.
        let mut buf = [0u8; 4096];
        match conn.stream.read(&mut buf) {
            Ok(0) => {
                conn.dead = true;
                return;
            }
            Ok(got) => conn.dec.feed(&buf[..got]),
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => return,
            Err(e) if e.kind() == std::io::ErrorKind::Interrupted => {}
            Err(_) => {
                conn.dead = true;
                return;
            }
        }
        while let Ok(Some(payload)) = conn.dec.next_frame() {
            tally
                .hist
                .record(u64::try_from(conn.sent_at.elapsed().as_nanos()).unwrap_or(u64::MAX));
            match wire::decode_response(&payload) {
                Ok(Response::Script {
                    status: ScriptStatus::Committed,
                    ..
                }) => tally.committed += 1,
                _ => tally.aborted += 1,
            }
            start_send(conn, frame);
        }
    }
}

// ---------------------------------------------------------------------------
// Orchestration
// ---------------------------------------------------------------------------

fn run_config(label: &str, batch: bool, conns: usize, args: &Args) -> SeriesPoint {
    eprintln!("config {label}: batch={batch} conns={conns}");
    let (mut child, addr) = spawn_server(batch);
    let tally = run_client(&addr, conns, args.duration);
    let _ = child.kill();
    let _ = child.wait();

    let secs = args.duration.as_secs_f64();
    let lat = tally.hist.snapshot();
    let point = SeriesPoint {
        label: label.to_string(),
        threads: conns,
        throughput: tally.committed as f64 / secs,
        committed: tally.committed,
        aborted: tally.aborted,
        p50_us: lat.p50() as f64 / 1_000.0,
        p99_us: lat.p99() as f64 / 1_000.0,
    };
    eprintln!(
        "  {label}: {:.0} req/s  p50 {:.0}us  p99 {:.0}us  ({} committed, {} aborted)",
        point.throughput, point.p50_us, point.p99_us, point.committed, point.aborted
    );
    point
}

fn main() {
    // `--serve` turns this binary into the server child; everything
    // else is the orchestrating client.
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.iter().any(|a| a == "--serve") {
        serve(!argv.iter().any(|a| a == "--no-batch"));
    }

    let args = parse_args();
    raise_nofile();

    let mut report = BenchReport::new("server_conns");
    report
        .meta("duration_ms", args.duration.as_millis().to_string())
        .meta("conns_small", args.conns_small.to_string())
        .meta("conns_large", args.conns_large.to_string())
        .meta("event_loops", "1")
        .meta("script", "counter_add x1 (batch-eligible)");

    let mut plan: Vec<(&str, bool, usize)> = vec![
        ("epoll_small", true, args.conns_small),
        ("epoll_nobatch_small", false, args.conns_small),
    ];
    if !args.small_only {
        plan.push(("epoll_large", true, args.conns_large));
        plan.push(("epoll_nobatch_large", false, args.conns_large));
    }
    for (label, batch, conns) in plan {
        report.push(run_config(label, batch, conns, &args));
    }

    if let Some(dir) = &args.out_dir {
        let path = report.write(dir).expect("write report");
        eprintln!("wrote {path}");
    }
}
