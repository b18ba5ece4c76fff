//! What every workload run shares: its configuration, the phase flag
//! the load threads follow, the raw measurements a run produces, and
//! the arithmetic that turns those into the contract's metrics.

use crate::gen::Workload;
use crate::json::Json;
use crate::latency::{self, Sample};
use crate::server::{hist_delta_mean, ratio, ProcSample};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU8, Ordering};
use std::time::{Duration, Instant};

/// Requests each wire connection keeps in flight — half the server's
/// default window of 32, so the window never parks a connection.
pub const PIPELINE_DEPTH: usize = 16;
/// Warm-up before every measured window.
pub const WARMUP: Duration = Duration::from_secs(3);
/// Scripts of each wire workload's stream the traced replay covers.
pub const TRACED_SCRIPTS: usize = 20_000;

/// One workload run's knobs. Only `seed`, `window` and `trace` come
/// from the contract's command line; the rest is fixed by the mode
/// (full or `--smoke`) and the host.
#[derive(Debug, Clone)]
pub struct RunConfig {
    pub workload: Workload,
    pub seed: u64,
    pub window: Duration,
    pub warmup: Duration,
    /// How many times the system is built and populated; `setup_s`
    /// takes the median.
    pub setup_rounds: usize,
    /// Also produce the per-layer numbers (window deltas,
    /// microbenchmarks, probes, traced replay).
    pub trace: bool,
    pub traced_scripts: usize,
    /// Scratch and output directory (WAL segments, `trace.jsonl`).
    pub out_dir: PathBuf,
    /// CPUs of the host.
    pub nproc: usize,
    /// Whether threads can be confined to a CPU here: the host has at
    /// least two, and `taskset` works.
    pub pinning: bool,
}

impl RunConfig {
    /// Script streams: the connections of a wire workload, the threads
    /// of `exec_contended`. The workloads are sized for two, and load
    /// never uses more threads or connections than the host has CPUs.
    pub fn streams(&self) -> usize {
        self.nproc.min(2)
    }

    /// The server child (its event loop and its WAL flusher) gets the
    /// last CPU to itself, so its CPU time is its own and a saving on
    /// its side is not diluted by a client sharing the core.
    pub fn server_cpu(&self) -> Option<usize> {
        self.pinning.then(|| self.nproc - 1)
    }

    /// Threads that drive a wire workload's connections: one per
    /// connection where the CPUs the server leaves allow it, so on a
    /// two-CPU host one thread drives both connections. (Two load
    /// threads time-slicing one CPU made the latency tail a measure of
    /// the scheduler's quantum, ~3 ms.)
    pub fn wire_load_threads(&self) -> usize {
        match self.server_cpu() {
            Some(server_cpu) => self.streams().min(server_cpu),
            None => self.streams(),
        }
    }

    /// Where load thread `thread` runs. Thread `i` gets CPU `i`: beside
    /// the server for a wire workload, one executor thread per CPU for
    /// `exec_contended` — real parallel conflicts, which is what its
    /// per-layer run (`--trace 1`: throughput, latency, lock timeouts,
    /// attempts) reports. Its end-to-end run keeps all threads on CPU 0
    /// instead: two threads contending across this host's two vCPUs
    /// cost 3.7 or 6.2 CPU µs per script depending on where the
    /// hypervisor has put the vCPUs that quarter of an hour, and a
    /// bounded metric has to repeat (README, "Who runs where").
    pub fn load_cpu(&self, thread: usize) -> Option<usize> {
        let parallel = self.workload.is_wire() || self.trace;
        self.pinning.then_some(if parallel { thread } else { 0 })
    }
}

/// Confine the calling thread to `cpu`, through `taskset` (the
/// workspace has no libc binding for `sched_setaffinity`). Unpinned,
/// the kernel moves three busy threads around two CPUs and every
/// number follows where they happen to land.
pub fn pin_current_thread(cpu: usize) -> bool {
    let Some(tid) = std::fs::read_link("/proc/thread-self")
        .ok()
        .and_then(|link| Some(link.file_name()?.to_str()?.to_string()))
    else {
        return false;
    };
    std::process::Command::new("taskset")
        .args(["-pc", &cpu.to_string(), &tid])
        .stdout(std::process::Stdio::null())
        .stderr(std::process::Stdio::null())
        .status()
        .is_ok_and(|status| status.success())
}

/// Load is on but replies are not counted: the warm-up, and the
/// moment after the window while the closing scrapes are taken (like
/// the opening ones, under load) and `wire_durable`'s server is killed.
pub const PHASE_UNCOUNTED: u8 = 0;
/// The measured window.
pub const PHASE_MEASURE: u8 = 1;
/// Stop sending; collect what is in flight and return.
pub const PHASE_DRAIN: u8 = 2;

/// Shared between the coordinator and the load threads.
pub struct Control {
    /// Time zero of every [`Sample::done_us`].
    pub epoch: Instant,
    pub phase: AtomicU8,
    /// Set before the durability check kills the server, so the load
    /// threads know the broken connection is the harness's doing.
    pub killed: AtomicBool,
}

impl Control {
    pub fn new() -> Control {
        Control {
            epoch: Instant::now(),
            phase: AtomicU8::new(PHASE_UNCOUNTED),
            killed: AtomicBool::new(false),
        }
    }

    pub fn phase(&self) -> u8 {
        // A plain flag: it publishes no data, the threads only branch
        // on it.
        self.phase.load(Ordering::Relaxed)
    }

    pub fn micros_since_epoch(&self, t: Instant) -> u64 {
        t.duration_since(self.epoch).as_micros() as u64
    }

    pub fn sample(&self, sent: Instant, done: Instant) -> Sample {
        Sample {
            done_us: u32::try_from(self.micros_since_epoch(done)).unwrap_or(u32::MAX),
            lat_ns: u32::try_from(done.duration_since(sent).as_nanos()).unwrap_or(u32::MAX),
        }
    }
}

/// When the measured window opened and how long the warm-up before it
/// really lasted, and where its one-second slices were cut (µs since
/// the control epoch): at the opening, wherever the coordinator
/// actually woke up after each second, and at the close.
#[derive(Debug, Clone)]
pub struct WindowTiming {
    pub warmup_s: f64,
    pub slice_bounds_us: Vec<u64>,
}

/// The coordinator's side of a run whose load threads have just been
/// started: sleep through the warm-up, scrape, open the window, mark
/// every second of it, close it, scrape again. Both scrapes happen
/// under load, outside the window. Returns the two scrapes around the
/// timing.
pub fn timed_window<S>(
    ctl: &Control,
    cfg: &RunConfig,
    mut scrape: impl FnMut() -> Result<S, String>,
) -> Result<(WindowTiming, S, S), String> {
    let warm = Instant::now();
    std::thread::sleep(cfg.warmup);
    let before = scrape()?;
    ctl.phase.store(PHASE_MEASURE, Ordering::SeqCst);
    let opened = Instant::now();
    let mut slice_bounds_us = vec![ctl.micros_since_epoch(opened)];
    let slices = cfg.window.as_secs().max(1) as u32;
    for slice in 1..=slices {
        let due = opened + cfg.window * slice / slices;
        std::thread::sleep(due.saturating_duration_since(Instant::now()));
        if slice == slices {
            ctl.phase.store(PHASE_UNCOUNTED, Ordering::SeqCst);
        }
        slice_bounds_us.push(ctl.micros_since_epoch(Instant::now()));
    }
    let timing = WindowTiming {
        warmup_s: opened.duration_since(warm).as_secs_f64(),
        slice_bounds_us,
    };
    Ok((timing, before, scrape()?))
}

/// What one load thread counted inside the measured window.
#[derive(Debug, Default)]
pub struct WindowCounts {
    pub samples: Vec<Sample>,
    /// Replies (or transport failures) that arrived in the window.
    pub attempted: u64,
    pub committed: u64,
    /// Sum of the replies' transaction attempt counts.
    pub attempts_sum: u64,
    /// Request bytes put on the wire in the window.
    pub request_bytes: u64,
}

impl WindowCounts {
    pub fn absorb(&mut self, other: WindowCounts) {
        self.samples.extend(other.samples);
        self.attempted += other.attempted;
        self.committed += other.committed;
        self.attempts_sum += other.attempts_sum;
        self.request_bytes += other.request_bytes;
    }
}

/// Everything a run measured, before it is turned into metrics.
pub struct Measured {
    pub setup_s: f64,
    /// Where the window's slices were cut (see [`WindowTiming`]).
    pub slice_bounds_us: Vec<u64>,
    pub counts: WindowCounts,
    /// `/proc` accounting of the system under test around the window
    /// (the server child; the whole process for `exec_contended`).
    pub proc_before: ProcSample,
    pub proc_after: ProcSample,
    /// `STATS` documents around the window.
    pub stats_before: Json,
    pub stats_after: Json,
    /// Idle-server round trips, when probed: `(ping µs, script µs)`.
    pub rtt_us: Option<(f64, f64)>,
    /// The crash-restart of `wire_durable`: `(restart→first Ping µs,
    /// records replayed)`.
    pub recovery: Option<(f64, f64)>,
    /// Every correctness check that failed; empty means correct.
    pub problems: Vec<String>,
    /// Context for the human-readable report.
    pub notes: Vec<String>,
}

/// A named value on its way to the result line.
pub type Metrics = Vec<(&'static str, f64)>;

/// What the callers saw in the window, by the definitions of ISSUE 11:
/// whole-window throughput and median, and the median of the
/// one-second slices' p99s — one scheduler hiccup moves one slice, not
/// the figure.
pub struct CallerView {
    pub throughput_txn_s: f64,
    pub p50_us: f64,
    pub p99_us: f64,
    /// Latency samples behind the two quantiles.
    pub samples: usize,
    /// The lowest quantile a slice's "p99" had to settle for so that
    /// ten samples lie beyond it (0.99 unless a slice was thin).
    pub tail_quantile: f64,
}

pub fn caller_view(m: &Measured) -> CallerView {
    let mut all: Vec<u64> = m
        .counts
        .samples
        .iter()
        .map(|s| u64::from(s.lat_ns))
        .collect();
    all.sort_unstable();
    let bounds = &m.slice_bounds_us;
    let window_s = (bounds.last().unwrap_or(&0) - bounds.first().unwrap_or(&0)) as f64 / 1e6;
    let tails = latency::slice_tails(&m.counts.samples, bounds, 0.99, 10);
    let p99s: Vec<f64> = tails.iter().map(|(_, ns)| *ns as f64 / 1e3).collect();
    CallerView {
        throughput_txn_s: ratio(m.counts.committed as f64, window_s),
        p50_us: latency::median(&all).unwrap_or(0.0) / 1e3,
        p99_us: latency::median_f64(&p99s).unwrap_or(0.0),
        samples: all.len(),
        tail_quantile: tails.iter().map(|(q, _)| *q).fold(0.99, f64::min),
    }
}

/// Scripts the system itself counted as committed between the two
/// scrapes: what `/proc` and `STATS` deltas are divided by, so both
/// ends of such a ratio come from the same two instants.
fn committed_by_system(m: &Measured) -> f64 {
    m.stats_after.num(&["scripts", "committed"]) - m.stats_before.num(&["scripts", "committed"])
}

/// The end-to-end metrics: what the contract bounds. Throughput,
/// latency and total CPU per script are measured in every run too, but
/// this host cannot repeat them within any bound the contract allows
/// (README, "What is bounded"), so they are reported with the per-layer
/// numbers and printed here as a note.
pub fn end_to_end(m: &mut Measured) -> Metrics {
    let view = caller_view(m);
    let committed = committed_by_system(m);
    m.notes.push(format!(
        "callers saw {:.0} scripts/s, p50 {:.3} us, slice-median p{:.2} {:.3} us over {} samples, \
         at {:.3} CPU us/script user+system (not bounded: reported under --trace 1)",
        view.throughput_txn_s,
        view.p50_us,
        view.tail_quantile * 100.0,
        view.p99_us,
        view.samples,
        ratio(m.proc_after.cpu_us - m.proc_before.cpu_us, committed),
    ));
    if committed == 0.0 {
        m.problems
            .push("the system committed nothing between the two scrapes".into());
    }
    vec![
        ("setup_s", m.setup_s),
        (
            "user_cpu_us_per_txn",
            ratio(
                m.proc_after.user_cpu_us - m.proc_before.user_cpu_us,
                committed,
            ),
        ),
        (
            "committed_share",
            ratio(m.counts.committed as f64, m.counts.attempted as f64),
        ),
        ("peak_rss_mb", m.proc_after.peak_rss_mb),
    ]
}

/// The per-layer metrics that come from the measured window itself:
/// what the callers saw (R, timed), `STATS` deltas (S) and `/proc`
/// deltas (P).
pub fn window_layers(m: &Measured) -> Metrics {
    let (s0, s1) = (&m.stats_before, &m.stats_after);
    let delta = |path: &[&str]| s1.num(path) - s0.num(path);
    let scripts: f64 = [
        "committed",
        "lock_timeout",
        "would_block",
        "guard_failed",
        "debug_aborted",
        "retries_exhausted",
        "read_only_violation",
    ]
    .iter()
    .map(|status| delta(&["scripts", status]))
    .sum();
    let (p0, p1) = (&m.proc_before, &m.proc_after);
    let view = caller_view(m);
    let batches = delta(&["batch", "batches"]);
    let fallbacks = delta(&["batch", "fallbacks"]);
    let installs = delta(&["mvcc", "installs"]);
    let (wal_batches, wal_records, wal_bytes) = (
        delta(&["wal", "batches"]),
        delta(&["wal", "records"]),
        delta(&["wal", "bytes"]),
    );
    let (restart_us, replayed) = m.recovery.unwrap_or((0.0, 0.0));
    vec![
        ("throughput_txn_s", view.throughput_txn_s),
        ("latency_p50_us", view.p50_us),
        ("latency_p99_us", view.p99_us),
        (
            "cpu_us_per_txn",
            ratio(p1.cpu_us - p0.cpu_us, committed_by_system(m)),
        ),
        (
            "failed_share",
            ratio(
                (m.counts.attempted - m.counts.committed) as f64,
                m.counts.attempted as f64,
            ),
        ),
        // What `peak_rss_mb` owes to how far the run got.
        (
            "rss_growth_bytes_per_script",
            ratio(p1.rss_bytes - p0.rss_bytes, scripts),
        ),
        ("client.ping_rtt_us", m.rtt_us.map_or(0.0, |r| r.0)),
        ("client.script_rtt_depth1_us", m.rtt_us.map_or(0.0, |r| r.1)),
        (
            "eventloop.ctx_switches_per_script",
            ratio(p1.ctx_switches - p0.ctx_switches, scripts),
        ),
        (
            "batch.scripts_per_batch",
            ratio(delta(&["batch", "scripts"]), batches),
        ),
        (
            "batch.batched_share",
            ratio(delta(&["batch", "scripts"]), scripts),
        ),
        (
            "batch.fallback_share",
            ratio(fallbacks, batches + fallbacks),
        ),
        (
            "exec.attempts_per_script",
            ratio(m.counts.attempts_sum as f64, m.counts.attempted as f64),
        ),
        (
            "exec.script_service_mean_us",
            hist_delta_mean(s0, s1, &["script_service"]) / 1e3,
        ),
        (
            "core.lock_timeouts_per_kscript",
            ratio(delta(&["txn", "lock_timeouts"]) * 1e3, scripts),
        ),
        (
            "core.aborts_per_commit",
            ratio(delta(&["txn", "aborted"]), delta(&["txn", "committed"])),
        ),
        (
            "mvcc.installs_per_commit",
            ratio(installs, delta(&["txn", "committed"])),
        ),
        (
            "mvcc.chain_len_mean",
            hist_delta_mean(s0, s1, &["mvcc", "chain_len"]),
        ),
        (
            "mvcc.gc_reclaimed_per_install",
            ratio(delta(&["mvcc", "gc_reclaimed"]), installs),
        ),
        (
            "mvcc.snapshot_age_mean_commits",
            hist_delta_mean(s0, s1, &["mvcc", "snapshot_age"]),
        ),
        (
            "wal.fsyncs_per_commit",
            ratio(wal_batches, delta(&["scripts", "committed"])),
        ),
        ("wal.records_per_fsync", ratio(wal_records, wal_batches)),
        ("wal.bytes_per_record", ratio(wal_bytes, wal_records)),
        (
            "wal.bytes_per_request_byte",
            ratio(wal_bytes, m.counts.request_bytes as f64),
        ),
        (
            "wal.append_mean_us",
            hist_delta_mean(s0, s1, &["wal", "append"]) / 1e3,
        ),
        (
            "wal.fsync_mean_us",
            hist_delta_mean(s0, s1, &["wal", "fsync"]) / 1e3,
        ),
        ("wal.errors", s1.num(&["wal", "errors"])),
        ("wal.recover_us_per_record", ratio(restart_us, replayed)),
    ]
}
