//! `exec_contended`: the paper's own setting. No socket, no WAL —
//! threads call `Executor::execute` on one shared executor and
//! conflict on a small hot set of keys.

use crate::gen::{self, Expect, Gen, Workload};
use crate::json::Json;
use crate::latency::{self, Sample};
use crate::run::{
    pin_current_thread, timed_window, Control, Measured, RunConfig, WindowCounts, PHASE_DRAIN,
    PHASE_MEASURE,
};
use crate::server::ProcSample;
use std::sync::atomic::Ordering;
use std::time::Instant;
use txboost_server::{Executor, ServerConfig};
use txboost_wire::{Op, OpResult, ScriptStatus};

/// Latency samples each thread has room for per second of window. The
/// buffers are sized and touched before the load starts: recording a
/// sample then never allocates, and the process's peak RSS — this
/// workload's `peak_rss_mb` — holds a constant for them (3 MiB per
/// thread and window second) instead of growing with throughput.
const SAMPLES_PER_THREAD_SECOND: usize = 400_000;

/// An executor configured as the server configures its own, populated
/// to the state the streams start from.
pub fn populated_executor(workload: Workload) -> Result<Executor, String> {
    let defaults = ServerConfig::default();
    let exec = Executor::new(defaults.txn, defaults.default_sem_permits);
    for ops in gen::populate(workload) {
        let status = exec.execute(&ops).status;
        if status != ScriptStatus::Committed {
            return Err(format!("populate script answered {}", status.name()));
        }
    }
    Ok(exec)
}

/// What one load thread brings back.
#[derive(Default)]
struct ThreadReport {
    window: WindowCounts,
    /// Transfers committed over the whole run (the `moves` counter
    /// must equal their number).
    moves: u64,
    /// Every id drawn, to be checked for duplicates.
    ids: Vec<u64>,
    wrong_replies: u64,
    failed_outside_window: u64,
}

fn load_thread(exec: &Executor, mut gen: Gen, ctl: &Control, reserve: usize) -> ThreadReport {
    let mut report = ThreadReport::default();
    let untouched = Sample {
        done_us: 0,
        lat_ns: 0,
    };
    report.window.samples.resize(reserve, untouched);
    report.window.samples.clear();
    while ctl.phase() != PHASE_DRAIN {
        let script = gen.next_script();
        let sent = Instant::now();
        let outcome = exec.execute(&script.ops);
        let done = Instant::now();
        let committed = outcome.status == ScriptStatus::Committed;
        if ctl.phase() == PHASE_MEASURE {
            report.window.attempted += 1;
            report.window.committed += u64::from(committed);
            report.window.attempts_sum += u64::from(outcome.attempts);
            report.window.samples.push(ctl.sample(sent, done));
        } else if !committed {
            report.failed_outside_window += 1;
        }
        if !committed {
            continue;
        }
        report.wrong_replies += u64::from(!script.expect.admits(&outcome.results));
        match (script.expect, outcome.results.first()) {
            (Expect::TransferShape, _) => report.moves += 1,
            (Expect::Id, Some(OpResult::Id(id))) => report.ids.push(*id),
            _ => {}
        }
    }
    report
}

pub fn run(cfg: &RunConfig) -> Result<Measured, String> {
    let workload = cfg.workload;
    let mut problems = Vec::new();

    let mut setup_s = Vec::with_capacity(cfg.setup_rounds);
    let mut exec = None;
    for _ in 0..cfg.setup_rounds {
        let t = Instant::now();
        exec = Some(populated_executor(workload)?);
        setup_s.push(t.elapsed().as_secs_f64());
    }
    let exec = exec.ok_or("no set-up round ran")?;

    let pid = std::process::id();
    let scrape = || -> Result<(Json, ProcSample), String> {
        Ok((
            Json::parse(&exec.stats_json()).map_err(|e| format!("stats document: {e}"))?,
            ProcSample::read(pid).map_err(|e| format!("reading /proc/self: {e}"))?,
        ))
    };
    let ctl = Control::new();
    let (reports, timing, before, after) = std::thread::scope(|scope| -> Result<_, String> {
        let handles: Vec<_> = (0..cfg.streams())
            .map(|i| {
                let gen = Gen::new(workload, cfg.seed, i, cfg.streams());
                let (exec, ctl) = (&exec, &ctl);
                let reserve = SAMPLES_PER_THREAD_SECOND * cfg.window.as_secs().max(1) as usize;
                scope.spawn(move || {
                    if let Some(cpu) = cfg.load_cpu(i) {
                        pin_current_thread(cpu);
                    }
                    load_thread(exec, gen, ctl, reserve)
                })
            })
            .collect();
        let measured = timed_window(&ctl, cfg, scrape);
        ctl.phase.store(PHASE_DRAIN, Ordering::SeqCst);
        let mut reports = Vec::with_capacity(cfg.streams());
        for handle in handles {
            reports.push(handle.join().map_err(|_| "a load thread panicked")?);
        }
        let (timing, before, after) = measured?;
        Ok((reports, timing, before, after))
    })?;

    // What the objects hold, against what the threads were told.
    let mut counts = WindowCounts::default();
    let (mut moves, mut ids, mut wrong, mut failed_outside) = (0, Vec::new(), 0, 0);
    for report in reports {
        counts.absorb(report.window);
        moves += report.moves;
        ids.extend(report.ids);
        wrong += report.wrong_replies;
        failed_outside += report.failed_outside_window;
    }
    if wrong > 0 {
        problems.push(format!("{wrong} replies have the wrong shape"));
    }
    if failed_outside > 0 {
        problems.push(format!(
            "{failed_outside} scripts failed to commit outside the measured window"
        ));
    }
    let read_moves = exec.execute(&[gen::op(Op::CounterGet {
        obj: gen::COUNTER_MOVES.into(),
    })]);
    if read_moves.results != [OpResult::Value(Some(moves as i64))] {
        problems.push(format!(
            "{moves} transfers committed but the moves counter reads {:?}",
            read_moves.results
        ));
    }
    let drawn = ids.len();
    ids.sort_unstable();
    ids.dedup();
    if ids.len() != drawn {
        problems.push(format!("{} ids were handed out twice", drawn - ids.len()));
    }
    // Every script added one key and removed one, so the queue must
    // hold as many keys as it was seeded with: that many removals find
    // one, the next finds none. (`raw_len` would also count the
    // residue aborted adds leave in the heap.)
    let remove_min = gen::op(Op::PqRemoveMin {
        obj: gen::PQ.into(),
    });
    let drained = exec.execute(&vec![remove_min; gen::PQ_SEED_KEYS as usize + 1]);
    let found = drained
        .results
        .iter()
        .filter(|r| matches!(r, OpResult::Value(Some(_))))
        .count() as u64;
    if found != gen::PQ_SEED_KEYS {
        problems.push(format!(
            "the queue holds {found} keys (or more), seeded with {}",
            gen::PQ_SEED_KEYS
        ));
    }

    Ok(Measured {
        setup_s: latency::median_f64(&setup_s).unwrap_or(0.0) + timing.warmup_s,
        slice_bounds_us: timing.slice_bounds_us,
        counts,
        proc_before: before.1,
        proc_after: after.1,
        stats_before: before.0,
        stats_after: after.0,
        rtt_us: None,
        recovery: None,
        problems,
        notes: vec![format!(
            "{} threads on one in-process Executor, {}; CPU and RSS are the whole process's",
            cfg.streams(),
            match cfg.load_cpu(0) {
                None => "unpinned",
                Some(_) if cfg.trace => "one per CPU",
                Some(_) => "all on CPU 0",
            }
        )],
    })
}
