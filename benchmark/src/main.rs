//! `txboost-benchmark` — the repo's one benchmark.
//!
//! ```text
//! txboost-benchmark [--workload NAME] [--seed N] [--seconds S] [--trace 0|1]
//!                   [--smoke] [--out DIR]
//! txboost-benchmark compare <a.jsonl> <b.jsonl>
//! ```
//!
//! `--trace 0` (the default) measures the end-to-end metrics of one
//! workload (`--workload`) or of all four; `--trace 1` produces the
//! per-layer numbers instead. `--smoke` runs everything, both ways, on
//! 2 s windows. Every run checks the outputs of the system
//! under test, prints each metric by name with its unit, and ends with
//! one JSON result line; see README.md and ../BENCHMARK.json for what
//! the metrics mean and what each should move.

mod alloc_count;
mod compare;
mod exec_run;
mod gen;
mod json;
mod latency;
mod layers;
mod run;
mod server;
mod spec;
mod trace;
mod wire_run;

use gen::Workload;
use run::{Measured, Metrics, RunConfig, PIPELINE_DEPTH, TRACED_SCRIPTS, WARMUP};
use spec::{MetricSpec, Spec};
use std::io::Write;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str = "usage: txboost-benchmark [--workload NAME] [--seed N] [--seconds S] \
[--trace 0|1] [--smoke] [--out DIR]\n       \
txboost-benchmark compare <a.jsonl> <b.jsonl>";

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_args(argv: Vec<String>) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 20,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = argv.into_iter();
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("missing value for {flag}"));
        let number = |v: String| v.parse::<u64>().map_err(|_| format!("bad number {v:?}"));
        match flag.as_str() {
            "--workload" => {
                let name = value()?;
                args.workload =
                    Some(Workload::from_name(&name).ok_or(format!("unknown workload {name:?}"))?);
            }
            "--seed" => args.seed = number(value()?)?,
            "--seconds" => args.seconds = number(value()?)?,
            "--trace" => args.trace = number(value()?)? != 0,
            "--out" => args.out = Some(value()?.into()),
            "--smoke" => args.smoke = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if args.seconds == 0 {
        return Err("--seconds must be at least 1".into());
    }
    Ok(args)
}

fn command_line(program: &str, args: &[&str]) -> String {
    Command::new(program)
        .args(args)
        .output()
        .ok()
        .filter(|out| out.status.success())
        .map(|out| String::from_utf8_lossy(&out.stdout).trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".into())
}

/// Filesystem type under `dir`: the mount with the longest mount point
/// that is a prefix of it.
fn filesystem_type(dir: &Path) -> String {
    let dir = dir.canonicalize().unwrap_or_else(|_| dir.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mountinfo").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|line| {
            // "... <mount point> <options> ... - <fstype> <source> ..."
            let (left, right) = line.split_once(" - ")?;
            let point = left.split(' ').nth(4)?;
            dir.starts_with(point)
                .then(|| (point.len(), right.split(' ').next().unwrap_or("?")))
        })
        .max_by_key(|(len, _)| *len)
        .map_or_else(|| "unknown".into(), |(_, fstype)| fstype.to_string())
}

/// What a reader needs to know about where and how a result was made.
fn header_json(cfg: &RunConfig) -> String {
    let repo = Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let wal_dir = cfg
        .workload
        .durable()
        .then(|| cfg.out_dir.join("wal-<pid>"));
    let fields = [
        ("nproc", cfg.nproc.to_string()),
        (
            "kernel",
            json::quote(
                std::fs::read_to_string("/proc/sys/kernel/osrelease")
                    .unwrap_or_default()
                    .trim(),
            ),
        ),
        ("rustc", json::quote(&command_line("rustc", &["-V"]))),
        (
            "git_commit",
            json::quote(&command_line(
                "git",
                &["-C", &repo.display().to_string(), "rev-parse", "HEAD"],
            )),
        ),
        (
            "system_under_test",
            json::quote(&if cfg.workload.is_wire() {
                format!(
                    "txboost-server {}",
                    server::server_flags(wal_dir.as_deref()).join(" ")
                )
            } else {
                "in-process Executor::new(ServerConfig::default().txn, 1024)".into()
            }),
        ),
        (
            "server_cpu",
            cfg.server_cpu()
                .filter(|_| cfg.workload.is_wire())
                .map_or("null".into(), |cpu| cpu.to_string()),
        ),
        // Load thread i is pinned to CPU i, or nothing is pinned.
        ("load_threads_pinned", cfg.pinning.to_string()),
        (
            "load_threads",
            if cfg.workload.is_wire() {
                cfg.wire_load_threads()
            } else {
                cfg.streams()
            }
            .to_string(),
        ),
        (
            "connections",
            if cfg.workload.is_wire() {
                cfg.streams()
            } else {
                0
            }
            .to_string(),
        ),
        (
            "pipeline_depth",
            if cfg.workload.is_wire() {
                PIPELINE_DEPTH
            } else {
                1
            }
            .to_string(),
        ),
        (
            "scratch_filesystem",
            json::quote(&filesystem_type(&cfg.out_dir)),
        ),
        ("seed", cfg.seed.to_string()),
        ("warmup_s", json::number(cfg.warmup.as_secs_f64())),
        ("window_s", json::number(cfg.window.as_secs_f64())),
        ("setup_rounds", cfg.setup_rounds.to_string()),
        ("traced_scripts", cfg.traced_scripts.to_string()),
    ];
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::quote(k)))
        .collect();
    format!("{{{}}}", body.join(","))
}

/// Everything one workload run reports.
struct Report {
    correct: bool,
    attempted: u64,
    failed: u64,
    /// In the contract's order, with the contract's units.
    metrics: Vec<(MetricSpec, f64)>,
    problems: Vec<String>,
    notes: Vec<String>,
}

impl Report {
    /// The contract's result line.
    fn result_json(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|(m, v)| {
                format!(
                    "{}:{{\"value\":{},\"unit\":{}}}",
                    json::quote(&m.name),
                    json::number(*v),
                    json::quote(&m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\":{},\"attempted\":{},\"failed\":{},\"metrics\":{{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(",")
        )
    }
}

/// Line the produced values up with the contract: every metric it
/// lists for this kind of run, each exactly once, nothing else.
fn conform(
    wanted: &[MetricSpec],
    produced: Metrics,
    problems: &mut Vec<String>,
) -> Vec<(MetricSpec, f64)> {
    for (name, _) in &produced {
        if !wanted.iter().any(|m| m.name == *name) {
            problems.push(format!("metric {name} is not in BENCHMARK.json"));
        }
    }
    wanted
        .iter()
        .map(|m| {
            let mut values = produced.iter().filter(|(name, _)| *name == m.name);
            let value = match (values.next(), values.next()) {
                (Some((_, v)), None) if v.is_finite() => *v,
                _ => {
                    problems.push(format!("metric {} was not produced exactly once", m.name));
                    0.0
                }
            };
            (m.clone(), value)
        })
        .collect()
}

fn run_workload(cfg: &RunConfig, spec: &Spec, server_bin: &Path) -> Result<Report, String> {
    let mut m: Measured = if cfg.workload.is_wire() {
        wire_run::run(cfg, server_bin)?
    } else {
        exec_run::run(cfg)?
    };
    let (wanted, produced) = if cfg.trace {
        let mut produced = run::window_layers(&m);
        produced.extend(layers::measure(cfg)?);
        match m.rtt_us {
            Some((_, script_rtt)) => {
                produced.extend(trace::measure(
                    cfg,
                    script_rtt,
                    &mut m.problems,
                    &mut m.notes,
                )?);
            }
            // No wire, so no request to trace and no socket to blame.
            None => produced.extend([
                ("trace.stage_sum_us", 0.0),
                ("eventloop.residual_us", 0.0),
                ("trace.overhead_pct", 0.0),
            ]),
        }
        (&spec.per_layer, produced)
    } else {
        (&spec.end_to_end, run::end_to_end(&mut m))
    };
    let metrics = conform(wanted, produced, &mut m.problems);
    if m.counts.attempted == 0 {
        return Err("no script completed inside the measured window".into());
    }
    Ok(Report {
        correct: m.problems.is_empty(),
        attempted: m.counts.attempted,
        failed: m.counts.attempted - m.counts.committed,
        metrics,
        problems: m.problems,
        notes: m.notes,
    })
}

fn print_report(cfg: &RunConfig, header: &str, report: &Report) -> std::io::Result<()> {
    let out = std::io::stdout();
    let mut out = out.lock();
    writeln!(
        out,
        "== {} (seed {}, window {} s, {}) ==",
        cfg.workload.name(),
        cfg.seed,
        cfg.window.as_secs_f64(),
        if cfg.trace { "per-layer" } else { "end-to-end" }
    )?;
    writeln!(out, "header {header}")?;
    for note in &report.notes {
        writeln!(out, "note: {note}")?;
    }
    for (m, v) in &report.metrics {
        writeln!(out, "{:<40} {:>16.4} {}", m.name, v, m.unit)?;
    }
    for problem in &report.problems {
        writeln!(out, "INCORRECT: {problem}")?;
    }
    if !report.correct {
        writeln!(out, "metric set INVALID: a correctness check failed")?;
    }
    writeln!(out, "{}", report.result_json())?;
    out.flush()
}

/// Append the run to `<out>/runs.jsonl`, the input of `compare`.
fn append_run(cfg: &RunConfig, header: &str, report: &Report) -> std::io::Result<()> {
    let result = report.result_json();
    let problems: Vec<String> = report.problems.iter().map(|p| json::quote(p)).collect();
    let line = format!(
        "{{\"workload\":{},\"trace\":{},\"header\":{header},\"problems\":[{}],{}\n",
        json::quote(cfg.workload.name()),
        u8::from(cfg.trace),
        problems.join(","),
        &result[1..]
    );
    std::fs::OpenOptions::new()
        .create(true)
        .append(true)
        .open(cfg.out_dir.join("runs.jsonl"))?
        .write_all(line.as_bytes())
}

fn real_main() -> Result<bool, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().is_some_and(|a| a == "compare") {
        return match &argv[1..] {
            [a, b] => compare::run(a, b),
            _ => Err(USAGE.into()),
        };
    }
    if argv.iter().any(|a| a == "--help" || a == "-h") {
        println!("{USAGE}");
        return Ok(true);
    }
    let args = parse_args(argv).map_err(|e| format!("{e}\n{USAGE}"))?;

    let nproc = std::thread::available_parallelism().map_or(1, std::num::NonZero::get);

    let spec = Spec::load();
    let server_bin = server::build_server().map_err(|e| e.to_string())?;
    // Write back what a build (or anything else) left dirty, so the
    // fsyncs of the durable workload carry only the log's own bytes.
    let _ = Command::new("sync").status();
    let out_dir = match args.out {
        Some(dir) => dir,
        // <target>/<profile>/txboost-server -> <target>/txboost-benchmark
        None => server_bin
            .parent()
            .and_then(Path::parent)
            .ok_or("no target directory")?
            .join("txboost-benchmark"),
    };
    std::fs::create_dir_all(&out_dir).map_err(|e| format!("{}: {e}", out_dir.display()))?;

    // Who runs where is `RunConfig`'s business; without `taskset` (or
    // a second CPU) nothing is pinned and the header says so.
    let pinning = nproc >= 2
        && Command::new("taskset")
            .args(["-c", &(nproc - 1).to_string(), "true"])
            .status()
            .is_ok_and(|status| status.success());

    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    // `--smoke` exercises every path quickly: both kinds of run.
    let kinds = if args.smoke {
        vec![false, true]
    } else {
        vec![args.trace]
    };
    let mut all_correct = true;
    for trace in kinds {
        for &workload in &workloads {
            let cfg = RunConfig {
                workload,
                seed: args.seed,
                window: Duration::from_secs(if args.smoke { 2 } else { args.seconds }),
                warmup: if args.smoke {
                    Duration::from_millis(500)
                } else {
                    WARMUP
                },
                // `setup_s` is only reported by end-to-end runs.
                setup_rounds: if args.smoke || trace { 1 } else { 3 },
                trace,
                traced_scripts: if args.smoke {
                    TRACED_SCRIPTS / 10
                } else {
                    TRACED_SCRIPTS
                },
                out_dir: out_dir.clone(),
                nproc,
                pinning,
            };
            let header = header_json(&cfg);
            let report = run_workload(&cfg, &spec, &server_bin)?;
            print_report(&cfg, &header, &report).map_err(|e| format!("stdout: {e}"))?;
            append_run(&cfg, &header, &report).map_err(|e| format!("runs.jsonl: {e}"))?;
            all_correct &= report.correct;
        }
    }
    Ok(all_correct)
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("txboost-benchmark: {e}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> Result<Args, String> {
        parse_args(list.iter().map(ToString::to_string).collect())
    }

    #[test]
    fn the_contract_command_line_parses() {
        let a = args(&[
            "--workload",
            "wire_durable",
            "--seed",
            "42",
            "--seconds",
            "10",
            "--trace",
            "1",
        ])
        .unwrap();
        assert_eq!(a.workload, Some(Workload::WireDurable));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (42, 10, true, false));
        assert!(!args(&["--trace", "0"]).unwrap().trace);
        assert!(args(&["trace"]).is_err());
        assert!(args(&["--workload", "nope"]).is_err());
        assert!(args(&["--seconds", "0"]).is_err());
        assert!(args(&["--seed"]).is_err());
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let spec = Spec::load();
        let produced: Metrics = vec![("setup_s", 1.5), ("user_cpu_us_per_txn", 2.0)];
        let mut problems = Vec::new();
        let metrics = conform(&spec.end_to_end[..2], produced, &mut problems);
        assert!(problems.is_empty(), "{problems:?}");
        let report = Report {
            correct: true,
            attempted: 10,
            failed: 0,
            metrics,
            problems,
            notes: Vec::new(),
        };
        let line = json::Json::parse(&report.result_json()).unwrap();
        let json::Json::Obj(map) = &line else {
            panic!("not an object")
        };
        let keys: Vec<&str> = map.keys().map(String::as_str).collect();
        assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
        assert_eq!(line.num(&["metrics", "setup_s", "value"]), 1.5);
        assert_eq!(
            line.at(&["metrics", "user_cpu_us_per_txn", "unit"])
                .and_then(json::Json::as_str),
            Some("us")
        );
    }

    #[test]
    fn conform_flags_missing_duplicate_and_unknown_metrics() {
        let spec = Spec::load();
        let mut problems = Vec::new();
        let produced: Metrics = vec![("setup_s", 1.0), ("setup_s", 2.0), ("made_up", 3.0)];
        conform(&spec.end_to_end[..2], produced, &mut problems);
        assert_eq!(problems.len(), 3, "{problems:?}");
    }
}
