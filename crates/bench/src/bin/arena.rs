//! The competitive bench arena: boosted objects vs the TL2 read/write
//! STM baseline on identical workloads.
//!
//! ```text
//! arena [--smoke] [--assert-gate]
//!       [--backends boosted,rwstm] [--workloads counter,map,transfer,pqueue]
//!       [--threads 1,2,4] [--key-ranges 16,256,4096]
//!       [--duration-ms 500] [--think-us 2000] [--seed 42]
//!       [--out-dir bench_results | --no-json]
//! ```
//!
//! Each row is one (backend, workload, threads, key-range) cell:
//! committed-transactions/second, abort rate, and p50/p99 end-to-end
//! transaction latency. `--smoke` shrinks the ladders to the two
//! corners CI needs (lowest and highest contention); `--assert-gate`
//! exits non-zero unless boosted throughput beats the rwstm baseline
//! at the highest-contention cell — the paper's Figures 9–11 claim,
//! enforced on every push.

use std::time::Duration;
use txboost_bench::arena::{
    check_gate, default_thread_ladder, report_from_cells, run_cell, ArenaCell, ArenaWorkload,
    BackendKind, CellConfig,
};

#[derive(Debug)]
struct Args {
    backends: Vec<BackendKind>,
    workloads: Vec<ArenaWorkload>,
    threads: Vec<usize>,
    key_ranges: Vec<i64>,
    duration: Duration,
    think: Duration,
    seed: u64,
    out_dir: Option<String>,
    assert_gate: bool,
}

fn parse_args() -> Args {
    let mut args = Args {
        backends: BackendKind::ALL.to_vec(),
        workloads: ArenaWorkload::ALL.to_vec(),
        threads: default_thread_ladder(),
        key_ranges: vec![16, 256, 4096],
        duration: Duration::from_millis(500),
        think: Duration::from_millis(2),
        seed: 42,
        out_dir: Some("bench_results".into()),
        assert_gate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--smoke" => {
                // The reduced CI ladder: just the contention corners,
                // short windows, think time still long enough that
                // overlap-vs-serialize dominates instrumentation noise.
                let top = *default_thread_ladder().last().unwrap();
                args.threads = vec![1, top];
                args.threads.dedup();
                args.key_ranges = vec![16, 1024];
                args.duration = Duration::from_millis(200);
                args.think = Duration::from_millis(1);
            }
            "--assert-gate" => args.assert_gate = true,
            "--backends" => {
                args.backends = val()
                    .split(',')
                    .map(|s| BackendKind::parse(s).unwrap_or_else(|| panic!("bad backend {s}")))
                    .collect();
            }
            "--workloads" => {
                args.workloads = val()
                    .split(',')
                    .map(|s| ArenaWorkload::parse(s).unwrap_or_else(|| panic!("bad workload {s}")))
                    .collect();
            }
            "--threads" => {
                args.threads = val()
                    .split(',')
                    .map(|s| s.parse().expect("bad thread count"))
                    .collect();
            }
            "--key-ranges" => {
                args.key_ranges = val()
                    .split(',')
                    .map(|s| s.parse().expect("bad key range"))
                    .collect();
            }
            "--duration-ms" => {
                args.duration = Duration::from_millis(val().parse().expect("bad duration"));
            }
            "--think-us" => {
                args.think = Duration::from_micros(val().parse().expect("bad think"));
            }
            "--seed" => args.seed = val().parse().expect("bad seed"),
            "--out-dir" => args.out_dir = Some(val()),
            "--no-json" => args.out_dir = None,
            "--help" | "-h" => {
                println!(
                    "usage: arena [--smoke] [--assert-gate] \
                     [--backends boosted,rwstm] \
                     [--workloads counter,map,transfer,pqueue] \
                     [--threads 1,2,4] [--key-ranges 16,256,4096] \
                     [--duration-ms 500] [--think-us 2000] [--seed 42] \
                     [--out-dir DIR | --no-json]"
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut cells: Vec<ArenaCell> = Vec::new();
    println!(
        "{:<8} {:<9} {:>7} {:>9} {:>12} {:>7} {:>10} {:>10}",
        "backend", "workload", "threads", "keyrange", "txn/s", "abort%", "p50(us)", "p99(us)"
    );
    for &key_range in &args.key_ranges {
        for &threads in &args.threads {
            for &workload in &args.workloads {
                for &backend in &args.backends {
                    let cfg = CellConfig {
                        threads,
                        key_range,
                        duration: args.duration,
                        think: args.think,
                        seed: args.seed,
                    };
                    let cell = run_cell(backend, workload, &cfg);
                    let r = &cell.result;
                    println!(
                        "{:<8} {:<9} {:>7} {:>9} {:>12.1} {:>6.1}% {:>10.1} {:>10.1}",
                        backend.name(),
                        workload.name(),
                        threads,
                        key_range,
                        r.throughput,
                        r.abort_rate * 100.0,
                        r.p50_us,
                        r.p99_us,
                    );
                    cells.push(cell);
                }
            }
        }
    }

    if let Some(dir) = &args.out_dir {
        let meta = [
            ("duration_ms", format!("{}", args.duration.as_millis())),
            ("think_us", format!("{}", args.think.as_micros())),
            ("seed", format!("{}", args.seed)),
            (
                "threads",
                args.threads
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            (
                "key_ranges",
                args.key_ranges
                    .iter()
                    .map(ToString::to_string)
                    .collect::<Vec<_>>()
                    .join(","),
            ),
            (
                "host_threads",
                format!(
                    "{}",
                    std::thread::available_parallelism().map_or(0, std::num::NonZeroUsize::get)
                ),
            ),
        ]
        .into_iter()
        .map(|(k, v)| (k.to_string(), v))
        .collect::<Vec<_>>();
        let path = report_from_cells(&cells, &meta)
            .write(dir)
            .expect("write BENCH_arena.json");
        println!("\nwrote {path}");
    }

    if args.assert_gate {
        match check_gate(&cells) {
            Ok(out) => println!(
                "perf gate OK: boosted {:.0} txn/s > rwstm {:.0} txn/s \
                 at threads={} key_range={}",
                out.boosted, out.rwstm, out.threads, out.key_range
            ),
            Err(msg) => {
                eprintln!("{msg}");
                std::process::exit(1);
            }
        }
    }
}
