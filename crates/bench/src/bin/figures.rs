//! Regenerate the paper's evaluation figures as console tables + CSV.
//!
//! ```text
//! figures [--fig NAME[,NAME...]|all] [--threads 1,2,4,8]
//!         [--duration-ms 500] [--think-us N] [--key-range 512]
//!         [--csv-dir bench_results | --no-csv] [--assert-gate]
//! ```
//!
//! `NAME` is one entry of [`FIGURES`] (`--help` lists them); an unknown
//! name exits 2 before anything runs. Each row reports
//! committed-transactions/second, aborts-per-commit, p50/p99
//! *contended* abstract-lock wait (µs), and the abort attribution
//! (`object=count` for boosted lock timeouts, `0xaddr=count` for STM
//! conflicts) for one (implementation, thread-count) cell of the
//! corresponding figure. Shapes to expect (Section 4 of the paper):
//! boosting beats the read/write STM tree by a growing factor (Fig. 9);
//! per-key locks scale while the single lock stays flat (Fig. 10); the
//! readers-writer heap beats the mutex heap on the 50/50 mix (Fig. 11).
//!
//! `--assert-gate` exits 1 unless, in the arena figure, boosted
//! throughput summed over its workloads beats the rwstm baseline's at
//! the highest-contention cell (maximum threads, minimum key range).

use std::fmt::Write as _;
use std::time::Duration;
use txboost_bench::arena::{arena_label, arena_run, check_gate, ArenaWorkload, BackendKind};
use txboost_bench::report::{BenchReport, SeriesPoint};
use txboost_bench::{
    fig10_run, fig11_run, fig9_run, idgen_run, intro_list_run, overhead_run, pipeline_run,
    Fig10Lock, Fig11Lock, Fig9Impl, IdGenImpl, IntroListImpl, RunConfig, RunResult,
};

/// One figure: its `--fig` name, output files, default think time and
/// the fixed sweep that fills its table.
struct Figure {
    /// The `--fig` name.
    name: &'static str,
    /// Output stem: `<file>.csv` and `BENCH_<file>.json`.
    file: &'static str,
    title: &'static str,
    /// In-transaction think time unless `--think-us` overrides it.
    ///
    /// The paper ran everything with a 100 ms sleep on a 32-core
    /// machine. On few-core hosts one setting cannot expose both
    /// phenomena, so the defaults split by what each figure measures:
    /// Figures 10, 11 and the pipeline measure **transaction-level
    /// parallelism** and need a think time threads can overlap (2 ms);
    /// Figure 9, the list/idgen ablations and the arena measure
    /// **synchronization granularity and overhead**, so they default
    /// to 0.
    think_us: u64,
    /// Runs the sweep: `base` carries the duration, think, key range
    /// and seed, `threads` the `--threads` ladder.
    series: fn(&mut Table, &RunConfig, &[usize]),
}

/// `base` at `threads` worker threads.
fn at(base: &RunConfig, threads: usize) -> RunConfig {
    RunConfig {
        threads,
        ..base.clone()
    }
}

/// Every figure, in `--fig all` order.
const FIGURES: [Figure; 10] = [
    Figure {
        name: "9",
        file: "fig9_rbtree",
        title: "Figure 9: red-black tree — shadow copies (rwstm) vs boosting",
        think_us: 0,
        series: |t, base, threads| {
            for &n in threads {
                let cfg = at(base, n);
                t.result_row("boosted", &cfg, fig9_run(Fig9Impl::Boosted, &cfg));
                t.result_row("rwstm", &cfg, fig9_run(Fig9Impl::RwStm, &cfg));
            }
        },
    },
    Figure {
        name: "10",
        file: "fig10_skiplist",
        title: "Figure 10: skip list — single transactional lock vs lock per key",
        think_us: 2_000,
        series: |t, base, threads| {
            for &n in threads {
                let cfg = at(base, n);
                t.result_row("single-lock", &cfg, fig10_run(Fig10Lock::Single, &cfg));
                t.result_row("lock-per-key", &cfg, fig10_run(Fig10Lock::PerKey, &cfg));
            }
        },
    },
    Figure {
        name: "11",
        file: "fig11_heap",
        title: "Figure 11: heap — mutex vs readers-writer lock (50/50 add/removeMin)",
        think_us: 2_000,
        series: |t, base, threads| {
            for &n in threads {
                let cfg = at(base, n);
                t.result_row("mutex", &cfg, fig11_run(Fig11Lock::Mutex, &cfg));
                t.result_row("rw-lock", &cfg, fig11_run(Fig11Lock::RwLock, &cfg));
            }
        },
    },
    Figure {
        name: "list",
        file: "ablation_list",
        title: "Ablation: Section 1 sorted list — boosted lock-coupling vs rwstm",
        think_us: 0,
        series: |t, base, threads| {
            for &n in threads {
                // Lists are O(n): keep them short enough that a
                // traversal is not the whole benchmark.
                let cfg = RunConfig {
                    key_range: base.key_range.min(128),
                    ..at(base, n)
                };
                t.result_row(
                    "boosted",
                    &cfg,
                    intro_list_run(IntroListImpl::Boosted, &cfg),
                );
                t.result_row("rwstm", &cfg, intro_list_run(IntroListImpl::RwStm, &cfg));
            }
        },
    },
    Figure {
        name: "idgen",
        file: "ablation_idgen",
        title: "Ablation: Section 3.4 unique IDs — boosted fetch-and-add vs rwstm counter",
        think_us: 0,
        series: |t, base, threads| {
            for &n in threads {
                let cfg = at(base, n);
                t.result_row("boosted", &cfg, idgen_run(IdGenImpl::Boosted, &cfg));
                t.result_row("rwstm", &cfg, idgen_run(IdGenImpl::RwStm, &cfg));
            }
        },
    },
    Figure {
        name: "pipeline",
        file: "ablation_pipeline",
        title:
            "Ablation: Section 3.3 pipeline — throughput vs buffer capacity (stages = max threads)",
        think_us: 2_000,
        series: |t, base, threads| {
            let cfg = at(base, threads.iter().copied().max().unwrap_or(4).max(2));
            for cap in [1usize, 4, 16, 64] {
                t.result_row(&format!("capacity-{cap}"), &cfg, pipeline_run(cap, &cfg));
            }
        },
    },
    Figure {
        // How the Figure 10 comparison depends on the think time: at 0
        // the base-object cost dominates and the disciplines converge;
        // as think grows, lock-hold time dominates and per-key wins by
        // ~threads×.
        name: "sens-think",
        file: "sensitivity_think",
        title: "Sensitivity: Fig. 10 vs think time (4 threads)",
        think_us: 0,
        series: |t, base, _| {
            for think_us in [0u64, 200, 1_000, 5_000] {
                let cfg = RunConfig {
                    think: Duration::from_micros(think_us),
                    ..at(base, 4)
                };
                let single = fig10_run(Fig10Lock::Single, &cfg);
                t.result_row(&format!("single-lock/think={think_us}us"), &cfg, single);
                let per_key = fig10_run(Fig10Lock::PerKey, &cfg);
                t.result_row(&format!("lock-per-key/think={think_us}us"), &cfg, per_key);
            }
        },
    },
    Figure {
        // How per-key locking degrades as the key universe shrinks
        // (more transactions collide on the same key): at key_range=1
        // it IS a single lock.
        name: "sens-keys",
        file: "sensitivity_keys",
        title: "Sensitivity: Fig. 10 lock-per-key vs key range (4 threads)",
        think_us: 2_000,
        series: |t, base, _| {
            for key_range in [1i64, 4, 16, 64, 512] {
                let cfg = RunConfig {
                    key_range,
                    ..at(base, 4)
                };
                let r = fig10_run(Fig10Lock::PerKey, &cfg);
                t.result_row(&format!("lock-per-key/keys={key_range}"), &cfg, r);
            }
        },
    },
    Figure {
        // The boosting tax at zero contention: one thread, no think
        // time, raw base object vs boosted wrappers.
        name: "overhead",
        file: "ablation_overhead",
        title: "Ablation: boosting overhead (1 thread, think 0)",
        think_us: 0,
        series: |t, base, _| {
            t.header = &["impl", "ops/s"];
            let cfg = RunConfig {
                think: Duration::ZERO,
                ..at(base, 1)
            };
            t.ran(&cfg);
            for (name, ops) in overhead_run(&cfg) {
                t.rows.push(vec![name.to_string(), format!("{ops:.0}")]);
                t.points.push(SeriesPoint {
                    label: name.to_string(),
                    threads: 1,
                    throughput: ops,
                    committed: 0,
                    aborted: 0,
                    p50_us: 0.0,
                    p99_us: 0.0,
                });
            }
        },
    },
    Figure {
        // Boosted objects vs the read/write STM on identical one-op
        // scripts, hottest key range first.
        name: "arena",
        file: "arena",
        title: "Arena: boosted vs rwstm — counter, map, transfer, pqueue by key range",
        think_us: 0,
        series: |t, base, threads| {
            for key_range in [16i64, 256, 4096] {
                for &n in threads {
                    let cfg = RunConfig {
                        key_range,
                        ..at(base, n)
                    };
                    for workload in ArenaWorkload::ALL {
                        for kind in BackendKind::ALL {
                            let label = arena_label(kind, workload, key_range);
                            t.result_row(&label, &cfg, arena_run(kind, workload, &cfg));
                        }
                    }
                }
            }
        },
    },
];

struct Args {
    figs: Vec<&'static Figure>,
    threads: Vec<usize>,
    duration: Duration,
    /// Global think-time override; when absent each figure uses its
    /// own default (`Figure::think_us`).
    think: Option<Duration>,
    key_range: i64,
    csv_dir: Option<String>,
    assert_gate: bool,
}

fn figure_names() -> String {
    FIGURES.iter().map(|f| f.name).collect::<Vec<_>>().join("|")
}

fn parse_args() -> Args {
    let mut args = Args {
        figs: FIGURES.iter().collect(),
        threads: vec![1, 2, 4, 8],
        duration: Duration::from_millis(500),
        think: None,
        key_range: 512,
        csv_dir: Some("bench_results".into()),
        assert_gate: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--fig" => {
                let names = val();
                args.figs = Vec::new();
                for name in names.split(',') {
                    if name == "all" {
                        args.figs.extend(FIGURES.iter());
                    } else if let Some(fig) = FIGURES.iter().find(|f| f.name == name) {
                        args.figs.push(fig);
                    } else {
                        eprintln!("unknown figure: {name} (one of {}|all)", figure_names());
                        std::process::exit(2);
                    }
                }
            }
            "--threads" => {
                args.threads = val()
                    .split(',')
                    .map(|s| s.parse().expect("bad thread count"))
                    .collect();
            }
            "--duration-ms" => {
                args.duration = Duration::from_millis(val().parse().expect("bad duration"));
            }
            "--think-us" => {
                args.think = Some(Duration::from_micros(val().parse().expect("bad think")));
            }
            "--key-range" => args.key_range = val().parse().expect("bad key range"),
            "--csv-dir" => args.csv_dir = Some(val()),
            "--no-csv" => args.csv_dir = None,
            "--assert-gate" => args.assert_gate = true,
            "--help" | "-h" => {
                println!(
                    "usage: figures [--fig {}|all] \
                     [--threads 1,2,4,8] [--duration-ms 500] [--think-us N] \
                     [--key-range 512] [--csv-dir DIR | --no-csv] [--assert-gate]",
                    figure_names()
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

struct Table {
    title: &'static str,
    header: &'static [&'static str],
    rows: Vec<Vec<String>>,
    /// Machine-readable twin of `rows`, for `BENCH_<name>.json`.
    points: Vec<SeriesPoint>,
    /// Think times (µs) and key ranges the rows ran with, in first-run
    /// order.
    thinks_us: Vec<u128>,
    key_ranges: Vec<i64>,
}

impl Table {
    fn new(title: &'static str) -> Self {
        Table {
            title,
            header: &HDR,
            rows: Vec::new(),
            points: Vec::new(),
            thinks_us: Vec::new(),
            key_ranges: Vec::new(),
        }
    }

    /// Note that a run used `cfg`'s think time and key range.
    fn ran(&mut self, cfg: &RunConfig) {
        let think_us = cfg.think.as_micros();
        if !self.thinks_us.contains(&think_us) {
            self.thinks_us.push(think_us);
        }
        if !self.key_ranges.contains(&cfg.key_range) {
            self.key_ranges.push(cfg.key_range);
        }
    }

    /// Record one experiment result, run with `cfg`, as both a
    /// console/CSV row and a JSON series point.
    fn result_row(&mut self, imp: &str, cfg: &RunConfig, r: RunResult) {
        self.ran(cfg);
        self.points
            .push(SeriesPoint::from_result(imp, cfg.threads, &r));
        self.rows.push(result_cells(imp, cfg.threads, r));
    }

    fn print(&self) {
        println!("\n=== {} ===", self.title);
        let mut widths: Vec<usize> = self.header.iter().map(|h| h.len()).collect();
        for r in &self.rows {
            for (i, c) in r.iter().enumerate() {
                widths[i] = widths[i].max(c.len());
            }
        }
        let fmt_row = |cells: &[&str]| {
            let mut line = String::new();
            for (c, width) in cells.iter().zip(&widths) {
                let _ = write!(line, "{c:<width$}  ");
            }
            line
        };
        println!("{}", fmt_row(self.header));
        println!(
            "{}",
            "-".repeat(widths.iter().sum::<usize>() + 2 * widths.len())
        );
        for r in &self.rows {
            println!(
                "{}",
                fmt_row(&r.iter().map(String::as_str).collect::<Vec<_>>())
            );
        }
    }

    /// The `BENCH_<file>.json` report: every point, plus the duration
    /// and the think times and key ranges the points actually ran with.
    fn report(&self, file: &str, duration: Duration) -> BenchReport {
        let join = |v: Vec<String>| v.join(",");
        let mut report = BenchReport::new(file);
        report
            .meta("title", self.title)
            .meta("duration_ms", duration.as_millis().to_string())
            .meta(
                "think_us",
                join(self.thinks_us.iter().map(u128::to_string).collect()),
            )
            .meta(
                "key_range",
                join(self.key_ranges.iter().map(i64::to_string).collect()),
            );
        for p in &self.points {
            report.push(p.clone());
        }
        report
    }

    /// Write `<file>.csv` and its `BENCH_<file>.json` twin under `dir`.
    fn write_outputs(&self, dir: &str, file: &str, duration: Duration) {
        std::fs::create_dir_all(dir).expect("create csv dir");
        let mut out = self.header.join(",");
        out.push('\n');
        for r in &self.rows {
            out.push_str(&r.join(","));
            out.push('\n');
        }
        let path = format!("{dir}/{file}.csv");
        std::fs::write(&path, out).expect("write csv");
        println!("  -> {path}");
        let json_path = self
            .report(file, duration)
            .write(dir)
            .expect("write bench json");
        println!("  -> {json_path}");
    }
}

fn result_cells(imp: &str, threads: usize, r: RunResult) -> Vec<String> {
    vec![
        imp.to_string(),
        threads.to_string(),
        format!("{:.0}", r.throughput),
        r.committed.to_string(),
        r.aborted.to_string(),
        format!("{:.3}", r.abort_ratio),
        format!("{:.1}", r.lock_wait_p50_ns as f64 / 1_000.0),
        format!("{:.1}", r.lock_wait_p99_ns as f64 / 1_000.0),
        r.abort_attribution,
    ]
}

const HDR: [&str; 9] = [
    "impl",
    "threads",
    "txn/s",
    "committed",
    "aborted",
    "aborts/commit",
    "wait_p50_us",
    "wait_p99_us",
    "abort_attribution",
];

/// Run `fig`'s sweep under `args` into a fresh table.
fn run(fig: &Figure, args: &Args) -> Table {
    let base = RunConfig {
        threads: 1,
        duration: args.duration,
        think: args.think.unwrap_or(Duration::from_micros(fig.think_us)),
        key_range: args.key_range,
        seed: 0xB005,
    };
    let mut t = Table::new(fig.title);
    (fig.series)(&mut t, &base, &args.threads);
    t
}

fn main() {
    let args = parse_args();
    println!(
        "transactional boosting figures: duration={:?} think={} key_range={} threads={:?}",
        args.duration,
        args.think
            .map(|t| format!("{t:?}"))
            .unwrap_or_else(|| "per-figure default".into()),
        args.key_range,
        args.threads
    );

    let mut arena = Vec::new();
    for fig in &args.figs {
        let t = run(fig, &args);
        t.print();
        if let Some(dir) = &args.csv_dir {
            t.write_outputs(dir, fig.file, args.duration);
        }
        if fig.name == "arena" {
            arena = t.points;
        }
    }

    if args.assert_gate {
        match check_gate(&arena) {
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

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSON `fig` emits after a 10 ms-per-point, one-thread run
    /// with no `--think-us` or `--key-range` given.
    fn emitted(name: &str) -> String {
        let fig = FIGURES.iter().find(|f| f.name == name).unwrap();
        let args = Args {
            figs: vec![fig],
            threads: vec![1],
            duration: Duration::from_millis(10),
            think: None,
            key_range: 512,
            csv_dir: None,
            assert_gate: false,
        };
        run(fig, &args).report(fig.file, args.duration).to_json()
    }

    #[test]
    fn meta_records_the_think_and_key_range_a_figure_ran_with() {
        let fig10 = emitted("10");
        assert!(fig10.contains("\"think_us\": \"2000\""), "{fig10}");
        assert!(fig10.contains("\"key_range\": \"512\""), "{fig10}");
        let list = emitted("list");
        assert!(list.contains("\"think_us\": \"0\""), "{list}");
        assert!(list.contains("\"key_range\": \"128\""), "{list}");
        let keys = emitted("sens-keys");
        assert!(keys.contains("\"key_range\": \"1,4,16,64,512\""), "{keys}");
    }
}
