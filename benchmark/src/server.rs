//! The system under test as seen from outside: the `txboost-server`
//! child process, its `/proc/<pid>` accounting, and its `STATS` reply.

use crate::json::Json;
use std::io::{self, BufRead, BufReader, Read};
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};
use txboost_client::Connection;

/// A running `txboost-server` child. Dropping it kills the child, so
/// no exit path of the harness leaves a server behind.
pub struct ServerProc {
    child: Child,
    stdout: BufReader<ChildStdout>,
    pub addr: String,
}

/// The flags every wire workload's server runs with. `--event-loops 1`
/// is deliberate: the listener is shared level-triggered, so with two
/// connections and two loops it is a coin-flip whether both land on
/// one loop, which makes runs bimodal. Everything else is the default
/// (batching on, lock timeout 10 ms, 64 retries, window 32).
pub fn server_flags(wal_dir: Option<&Path>) -> Vec<String> {
    let mut flags: Vec<String> = [
        "--addr",
        "127.0.0.1:0",
        "--io",
        "epoll",
        "--event-loops",
        "1",
    ]
    .map(String::from)
    .to_vec();
    if let Some(dir) = wal_dir {
        flags.extend([
            "--wal-dir".into(),
            dir.display().to_string(),
            "--wal-batch".into(),
            "64".into(),
        ]);
    }
    flags
}

impl ServerProc {
    /// Spawn the server and wait for its "listening on" line, which
    /// carries the port the OS picked. With a WAL directory that line
    /// comes after recovery and replay. With `pin`, the server (all its
    /// threads) is confined to that CPU through `taskset`.
    pub fn spawn(bin: &Path, wal_dir: Option<&Path>, pin: Option<usize>) -> io::Result<ServerProc> {
        let mut command = match pin {
            Some(cpu) => {
                let mut taskset = Command::new("taskset");
                taskset.args(["-c", &cpu.to_string()]).arg(bin);
                taskset
            }
            None => Command::new(bin),
        };
        let mut child = command
            .args(server_flags(wal_dir))
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .spawn()?;
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let mut line = String::new();
        stdout.read_line(&mut line)?;
        let Some(addr) = line.trim().strip_prefix("txboost-server listening on ") else {
            let _ = child.kill();
            let _ = child.wait();
            return Err(io::Error::other(format!(
                "unexpected first line from the server: {line:?}"
            )));
        };
        Ok(ServerProc {
            child,
            stdout,
            addr: addr.to_string(),
        })
    }

    pub fn pid(&self) -> u32 {
        self.child.id()
    }

    pub fn connect(&self) -> io::Result<Connection> {
        Connection::connect(&self.addr)
    }

    /// `SIGKILL` the server and reap it: the crash of the durability
    /// check. Nothing in user space gets to flush.
    pub fn kill(mut self) -> io::Result<()> {
        self.child.kill()?;
        self.child.wait()?;
        Ok(())
    }

    /// Send the wire `Shutdown` frame and require a clean drain: the
    /// ack, the "drained cleanly" line, and exit status 0.
    pub fn shutdown(mut self, conn: &mut Connection) -> Result<(), String> {
        conn.shutdown_server()
            .map_err(|e| format!("shutdown frame: {e}"))?;
        let mut rest = String::new();
        self.stdout
            .read_to_string(&mut rest)
            .map_err(|e| format!("reading server stdout: {e}"))?;
        let status = self
            .child
            .wait()
            .map_err(|e| format!("waiting for the server: {e}"))?;
        if !status.success() {
            return Err(format!("server exited with {status}"));
        }
        if !rest.contains("drained cleanly") {
            return Err(format!("server did not report a clean drain: {rest:?}"));
        }
        Ok(())
    }
}

impl Drop for ServerProc {
    fn drop(&mut self) {
        // After `kill`/`shutdown` the child is already reaped and both
        // calls fail harmlessly.
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

/// Path of the server binary: it is built into the same target
/// directory as this executable, so it sits beside it.
pub fn server_binary() -> io::Result<PathBuf> {
    let exe = std::env::current_exe()?;
    let dir = exe
        .parent()
        .ok_or_else(|| io::Error::other("executable has no parent directory"))?;
    Ok(dir.join("txboost-server"))
}

/// Build `txboost-server` from the root workspace into the target
/// directory this executable runs from. A no-op when it is fresh; run
/// every time so a changed server is never measured stale.
pub fn build_server() -> io::Result<PathBuf> {
    let bin = server_binary()?;
    let target_dir = bin
        .parent()
        .and_then(Path::parent)
        .ok_or_else(|| io::Error::other("executable is not inside <target>/<profile>/"))?;
    let root_manifest = Path::new(env!("CARGO_MANIFEST_DIR")).join("../Cargo.toml");
    let status = Command::new(std::env::var_os("CARGO").unwrap_or_else(|| "cargo".into()))
        .args(["build", "--release", "--offline", "--quiet"])
        .args(["-p", "txboost-server", "--bin", "txboost-server"])
        .arg("--manifest-path")
        .arg(&root_manifest)
        .env("CARGO_TARGET_DIR", target_dir)
        .stdin(Stdio::null())
        // The last stdout line belongs to the result; cargo's own
        // chatter goes to stderr either way.
        .stdout(Stdio::null())
        .status()?;
    if !status.success() || !bin.is_file() {
        return Err(io::Error::other(format!(
            "building txboost-server failed ({status})"
        )));
    }
    Ok(bin)
}

/// Cumulative per-process accounting read from `/proc/<pid>`.
#[derive(Debug, Clone, Copy, Default)]
pub struct ProcSample {
    /// Time on a CPU, user and system, µs: the run time the scheduler
    /// has booked for each living task, to the nanosecond (`schedstat`;
    /// `stat` reports hundredths of a second).
    pub cpu_us: f64,
    /// The user-mode part of it, µs: the process's `utime` in `stat`.
    /// The kernel splits the exact run time between user and system by
    /// what it finds running at its 250 Hz tick and reports hundredths
    /// of a second, so this is good to a few percent over a 20 s
    /// window — and, unlike the total, does not move with what a
    /// syscall, an `fsync` or a wake-up costs on the hypervisor that
    /// hour.
    pub user_cpu_us: f64,
    /// Voluntary + involuntary context switches, summed over threads.
    pub ctx_switches: f64,
    /// Peak resident set (`VmHWM`), MiB.
    pub peak_rss_mb: f64,
    /// Resident set right now (`VmRSS`), bytes.
    pub rss_bytes: f64,
}

impl ProcSample {
    pub fn read(pid: u32) -> io::Result<ProcSample> {
        let proc_dir = PathBuf::from(format!("/proc/{pid}"));
        let keyed = |text: &str, key: &str| -> f64 {
            text.lines()
                .find_map(|l| l.strip_prefix(key))
                .and_then(|rest| rest.split_whitespace().next())
                .and_then(|v| v.parse().ok())
                .unwrap_or(0.0)
        };
        let status = std::fs::read_to_string(proc_dir.join("status"))?;

        // `status` of the process shows only the main thread's
        // switches; the event loop and the WAL flusher are their own
        // tasks.
        let (mut ctx_switches, mut cpu_ns) = (0.0, 0.0);
        for task in std::fs::read_dir(proc_dir.join("task"))? {
            // A thread may exit between listing and reading.
            let task = task?.path();
            if let Ok(text) = std::fs::read_to_string(task.join("status")) {
                ctx_switches += keyed(&text, "voluntary_ctxt_switches:")
                    + keyed(&text, "nonvoluntary_ctxt_switches:");
            }
            if let Ok(text) = std::fs::read_to_string(task.join("schedstat")) {
                cpu_ns += text
                    .split(' ')
                    .next()
                    .and_then(|ns| ns.parse::<f64>().ok())
                    .unwrap_or(0.0);
            }
        }
        // "pid (comm) state ppid ... utime stime ...": `utime` is the
        // 14th field, the 12th after the command's closing parenthesis,
        // in clock ticks of 1/100 s (USER_HZ, fixed on Linux).
        let stat = std::fs::read_to_string(proc_dir.join("stat"))?;
        let utime_ticks: f64 = stat
            .rsplit(')')
            .next()
            .and_then(|rest| rest.split_whitespace().nth(11))
            .and_then(|v| v.parse().ok())
            .unwrap_or(0.0);
        Ok(ProcSample {
            user_cpu_us: utime_ticks * 1e4,
            cpu_us: cpu_ns / 1e3,
            ctx_switches,
            peak_rss_mb: keyed(&status, "VmHWM:") / 1024.0,
            rss_bytes: keyed(&status, "VmRSS:") * 1024.0,
        })
    }
}

/// Fetch and parse the `STATS` document over `conn`.
pub fn scrape_stats(conn: &mut Connection) -> Result<Json, String> {
    let text = conn.stats_json().map_err(|e| format!("STATS: {e}"))?;
    Json::parse(&text).map_err(|e| format!("STATS reply is not JSON: {e}"))
}

/// Mean, in the histogram's own unit, of the samples a `STATS`
/// histogram gained between two scrapes. `STATS` exposes only count
/// and (integer) mean, so the sums are rebuilt as count × mean; with
/// ~10^5 samples the truncation is far below one unit.
pub fn hist_delta_mean(before: &Json, after: &Json, path: &[&str]) -> f64 {
    let part = |doc: &Json, leaf: &str| -> f64 {
        let mut full = path.to_vec();
        full.push(leaf);
        doc.num(&full)
    };
    let (c0, c1) = (part(before, "count"), part(after, "count"));
    let (s0, s1) = (c0 * part(before, "mean_ns"), c1 * part(after, "mean_ns"));
    ratio(s1 - s0, c1 - c0)
}

/// `num / den`, or 0 when nothing was counted (a layer the workload
/// bypasses).
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn own_process_accounting_is_readable() {
        let sample = ProcSample::read(std::process::id()).unwrap();
        assert!(sample.peak_rss_mb > 0.0);
        assert!(sample.ctx_switches > 0.0);
        assert!(sample.cpu_us > 0.0);
        // A test binary has spent far less than an hour in user mode.
        assert!(sample.user_cpu_us < 3.6e9);
    }

    #[test]
    fn histogram_deltas_rebuild_the_window_mean() {
        let before = Json::parse(r#"{"h":{"count":10,"mean_ns":100}}"#).unwrap();
        let after = Json::parse(r#"{"h":{"count":30,"mean_ns":300}}"#).unwrap();
        // (30*300 - 10*100) / 20 = 400
        assert_eq!(hist_delta_mean(&before, &after, &["h"]), 400.0);
        assert_eq!(hist_delta_mean(&before, &before, &["h"]), 0.0);
        assert_eq!(hist_delta_mean(&before, &after, &["absent"]), 0.0);
    }

    #[test]
    fn durable_servers_get_the_wal_flags() {
        let flags = server_flags(Some(Path::new("/x/wal")));
        assert!(flags.windows(2).any(|w| w == ["--event-loops", "1"]));
        assert!(flags.windows(2).any(|w| w == ["--wal-dir", "/x/wal"]));
        assert!(flags.windows(2).any(|w| w == ["--wal-batch", "64"]));
        assert!(!server_flags(None).contains(&"--wal-dir".to_string()));
    }
}
