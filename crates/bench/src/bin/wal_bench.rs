//! Durability overhead benchmark: the same closed-loop transfer load
//! against in-process servers with the WAL off and with group-commit
//! batch caps of 1, 8, and 64.
//!
//! ```text
//! wal_bench [--threads 64] [--duration-ms 1000] [--keys 512] [--seed N]
//!           [--out-dir bench_results | --no-json] [--assert-gate RATIO]
//! ```
//!
//! Every script is mutating (two-key transfer plus a counter bump), so
//! with the WAL on each commit waits for its fsync batch — the numbers
//! measure exactly what group commit buys back. Each configuration gets
//! a fresh scratch WAL directory and its own server, torn down between
//! runs. Results go to `BENCH_wal.json` (labels `wal_off`, `wal_b1`,
//! `wal_b8`, `wal_b64`). `--assert-gate R` exits nonzero if `wal_b64`
//! throughput falls below `wal_off / R` — the CI regression gate.

use rand::prelude::*;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txboost_bench::report::{BenchReport, SeriesPoint};
use txboost_client::{Connection, ScriptBuilder};
use txboost_core::LatencyHistogram;
use txboost_server::{Server, ServerConfig, WalServerConfig};

/// (label, group-commit batch cap; None = WAL off).
const CONFIGS: [(&str, Option<usize>); 4] = [
    ("wal_off", None),
    ("wal_b1", Some(1)),
    ("wal_b8", Some(8)),
    ("wal_b64", Some(64)),
];

#[derive(Debug)]
struct Args {
    threads: usize,
    duration: Duration,
    keys: i64,
    seed: u64,
    out_dir: Option<String>,
    /// Max allowed `wal_off / wal_b64` throughput ratio, if gating.
    gate: Option<f64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        threads: 64,
        duration: Duration::from_secs(1),
        keys: 512,
        seed: 0x57A1,
        out_dir: Some("bench_results".to_string()),
        gate: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--threads" => args.threads = val().parse().expect("bad --threads"),
            "--duration-ms" => {
                args.duration = Duration::from_millis(val().parse().expect("bad --duration-ms"));
            }
            "--keys" => args.keys = val().parse().expect("bad --keys"),
            "--seed" => args.seed = val().parse().expect("bad --seed"),
            "--out-dir" => args.out_dir = Some(val()),
            "--no-json" => args.out_dir = None,
            "--assert-gate" => args.gate = Some(val().parse().expect("bad --assert-gate")),
            "--help" | "-h" => {
                println!(
                    "usage: wal_bench [--threads N] [--duration-ms N] [--keys N] [--seed N] \
                     [--out-dir DIR | --no-json] [--assert-gate RATIO]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn run_config(label: &str, batch: Option<usize>, args: &Args) -> SeriesPoint {
    let wal_dir =
        std::env::temp_dir().join(format!("txboost-walbench-{}-{label}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    let mut cfg = ServerConfig {
        addr: "127.0.0.1:0".into(),
        ..ServerConfig::default()
    };
    if let Some(batch_max) = batch {
        let mut wal = WalServerConfig::new(&wal_dir);
        wal.batch_max = batch_max;
        cfg.wal = Some(wal);
    }
    let server = Server::bind(cfg).expect("bind bench server");
    let addr = server.local_addr().to_string();

    let committed = Arc::new(AtomicU64::new(0));
    let aborted = Arc::new(AtomicU64::new(0));
    let hist = Arc::new(LatencyHistogram::default());
    let stop = Arc::new(AtomicBool::new(false));
    let started = Instant::now();
    let mut handles = Vec::new();
    for t in 0..args.threads {
        let addr = addr.clone();
        let committed = Arc::clone(&committed);
        let aborted = Arc::clone(&aborted);
        let hist = Arc::clone(&hist);
        let stop = Arc::clone(&stop);
        let (keys, seed) = (args.keys, args.seed);
        handles.push(std::thread::spawn(move || {
            let mut conn = Connection::connect(&addr).expect("connect");
            let mut rng = StdRng::seed_from_u64(seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            while !stop.load(Ordering::Relaxed) {
                let a = rng.random_range(0..keys);
                let b = rng.random_range(0..keys);
                let script = ScriptBuilder::new()
                    .map_remove("accounts", a)
                    .map_insert("accounts", b, a)
                    .counter_add("moves", 1)
                    .build();
                let t0 = Instant::now();
                let outcome = conn.execute(script).expect("execute");
                hist.record_duration(t0.elapsed());
                if outcome.committed() {
                    committed.fetch_add(1, Ordering::Relaxed);
                } else {
                    aborted.fetch_add(1, Ordering::Relaxed);
                }
            }
        }));
    }
    std::thread::sleep(args.duration);
    stop.store(true, Ordering::Relaxed);
    for h in handles {
        h.join().expect("bench worker");
    }
    let elapsed = started.elapsed();

    Connection::connect(&addr)
        .expect("shutdown connect")
        .shutdown_server()
        .expect("shutdown");
    server.join();
    let _ = std::fs::remove_dir_all(&wal_dir);

    let snap = hist.snapshot();
    SeriesPoint {
        label: label.to_string(),
        threads: args.threads,
        throughput: committed.load(Ordering::Relaxed) as f64 / elapsed.as_secs_f64(),
        committed: committed.load(Ordering::Relaxed),
        aborted: aborted.load(Ordering::Relaxed),
        p50_us: snap.p50() as f64 / 1_000.0,
        p99_us: snap.p99() as f64 / 1_000.0,
    }
}

fn main() {
    let args = parse_args();
    println!(
        "wal_bench: threads={} duration={:?} keys={}",
        args.threads, args.duration, args.keys
    );

    let mut report = BenchReport::new("wal");
    report
        .meta("duration_ms", args.duration.as_millis().to_string())
        .meta("threads", args.threads.to_string())
        .meta("keys", args.keys.to_string())
        .meta("workload", "transfer+counter (all-mutating, closed loop)");

    println!("\nconfig    committed   aborted   txn/s      p50_us     p99_us");
    let mut points = Vec::new();
    for (label, batch) in CONFIGS {
        let point = run_config(label, batch, &args);
        println!(
            "{:<9} {:<11} {:<9} {:<10.0} {:<10.1} {:<10.1}",
            point.label,
            point.committed,
            point.aborted,
            point.throughput,
            point.p50_us,
            point.p99_us
        );
        points.push(point.clone());
        report.push(point);
    }

    let off = points[0].throughput;
    let b64 = points[3].throughput;
    let ratio = if b64 > 0.0 { off / b64 } else { f64::INFINITY };
    println!("\nwal_off / wal_b64 throughput ratio: {ratio:.2}x");

    if let Some(dir) = &args.out_dir {
        let path = report.write(dir).expect("write BENCH_wal.json");
        println!("  -> {path}");
    }

    if points.iter().any(|p| p.committed == 0) {
        eprintln!("wal_bench: a configuration made no progress");
        std::process::exit(1);
    }
    if let Some(gate) = args.gate {
        if ratio > gate {
            eprintln!(
                "wal_bench: GATE FAILED — group commit at batch 64 is {ratio:.2}x slower than \
                 WAL-off (allowed: {gate:.2}x)"
            );
            std::process::exit(1);
        }
        println!("wal_bench: gate ok ({ratio:.2}x <= {gate:.2}x)");
    }
}
