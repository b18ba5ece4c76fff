//! The three wire workloads: a real `txboost-server` child, pipelined
//! closed-loop clients, and the checks on what the server answered and
//! on what it holds afterwards.

use crate::gen::{self, Expect, Gen, Script, Workload, COUNTERS};
use crate::latency;
use crate::run::{
    pin_current_thread, timed_window, Control, Measured, RunConfig, WindowCounts, PHASE_DRAIN,
    PHASE_MEASURE, PIPELINE_DEPTH,
};
use crate::server::{scrape_stats, ProcSample, ServerProc};
use std::collections::VecDeque;
use std::path::Path;
use std::sync::atomic::Ordering;
use std::time::Instant;
use txboost_client::{ClientError, Connection, Outcome};
use txboost_wire::{Op, OpResult, ScriptOp};

/// Scripts kept in flight while populating and verifying — well under
/// the server window, and the replies are read as they come, so
/// neither side's socket buffer can fill.
const BULK_DEPTH: usize = 8;
/// Most mismatches spelled out per client before only counting them.
const MAX_PROBLEMS: usize = 5;

/// One load connection with the stream it sends and what it has had
/// acknowledged.
struct Client {
    conn: Connection,
    gen: Gen,
    /// Scripts sent and not yet answered: when each left, and the reply
    /// it must get. Replies come back in send order.
    inflight: VecDeque<(Instant, Expect)>,
    acked_adds: [u64; COUNTERS],
    acked_moves: u64,
    window: WindowCounts,
    problems: Vec<String>,
    wrong_replies: u64,
}

impl Client {
    fn send(&mut self, script: Script) -> Result<Expect, ClientError> {
        if script.read_only {
            self.conn.send_read_only_script(script.ops)?;
        } else {
            self.conn.send_script(script.ops)?;
        }
        Ok(script.expect)
    }

    /// Check one reply against what the model says it must be and
    /// book its acknowledgement.
    fn settle(&mut self, expect: Expect, outcome: &Outcome) {
        if !outcome.committed() {
            self.note(format!("script answered {}", outcome.status.name()));
            return;
        }
        match expect {
            Expect::CounterAdd(i) => self.acked_adds[usize::from(i)] += 1,
            Expect::Move { counted: true, .. } => self.acked_moves += 1,
            _ => {}
        }
        if !expect.admits(&outcome.results) {
            self.wrong_replies += 1;
            self.note(format!(
                "expected {expect:?}, server answered {:?}",
                outcome.results
            ));
        }
    }

    fn note(&mut self, problem: String) {
        if self.problems.len() < MAX_PROBLEMS {
            self.problems.push(problem);
        }
    }

    /// One step of the closed loop: send the next script while fewer
    /// than `PIPELINE_DEPTH` are in flight, otherwise wait for one
    /// reply. Once the coordinator says drain nothing more is sent;
    /// `Ok(false)` when nothing is outstanding either. A reply belongs
    /// to the measured window when it arrives while the phase flag
    /// says so.
    fn step(&mut self, ctl: &Control) -> Result<bool, ClientError> {
        let phase = ctl.phase();
        if phase != PHASE_DRAIN && self.inflight.len() < PIPELINE_DEPTH {
            let script = self.gen.next_script();
            if phase == PHASE_MEASURE {
                self.window.request_bytes += gen::request_frame_len(&script.ops) as u64;
            }
            let sent = Instant::now();
            let expect = self.send(script)?;
            self.inflight.push_back((sent, expect));
            return Ok(true);
        }
        if self.inflight.is_empty() {
            return Ok(false);
        }
        let (_, outcome) = self.conn.recv_script()?;
        let done = Instant::now();
        let (sent, expect) = self.inflight.pop_front().expect("a reply has a request");
        if ctl.phase() == PHASE_MEASURE {
            self.window.attempted += 1;
            self.window.committed += u64::from(outcome.committed());
            self.window.attempts_sum += u64::from(outcome.attempts);
            self.window.samples.push(ctl.sample(sent, done));
        }
        self.settle(expect, &outcome);
        Ok(true)
    }
}

/// One load thread: the closed loop over the connections it drives,
/// one step on each in turn, until all have drained (or lost their
/// server).
fn drive(clients: &mut [Client], ctl: &Control, cpu: Option<usize>) {
    if let Some(cpu) = cpu {
        pin_current_thread(cpu);
    }
    let mut live: Vec<&mut Client> = clients.iter_mut().collect();
    while !live.is_empty() {
        live.retain_mut(|client| match client.step(ctl) {
            Ok(more) => more,
            Err(e) => {
                if !ctl.killed.load(Ordering::SeqCst) {
                    // Transport errors and refused frames count as
                    // failed scripts: everything in flight is lost.
                    client.window.attempted += client.inflight.len() as u64;
                    client.note(format!("connection failed: {e}"));
                }
                false
            }
        });
    }
}

/// Depth-1 round trips over `conn` against an idle server, through the
/// real client crate: pings, then the head of `client`'s own stream
/// (settled against its model, so the stream simply continues on the
/// load connection afterwards). Returns the two means in µs.
fn rtt_probe(
    conn: &mut Connection,
    client: &mut Client,
    probes: usize,
) -> Result<(f64, f64), ClientError> {
    let mut ping_ns = Vec::with_capacity(probes);
    for _ in 0..probes {
        let t = Instant::now();
        conn.ping()?;
        ping_ns.push(t.elapsed().as_nanos() as u64);
    }
    let mut script_ns = Vec::with_capacity(probes);
    for _ in 0..probes {
        let script = client.gen.next_script();
        let t = Instant::now();
        let outcome = if script.read_only {
            conn.execute_read_only(script.ops)?
        } else {
            conn.execute(script.ops)?
        };
        script_ns.push(t.elapsed().as_nanos() as u64);
        client.settle(script.expect, &outcome);
    }
    // Means, like the stage means they are set against.
    let mean_us = |ns: &[u64]| ns.iter().sum::<u64>() as f64 / ns.len() as f64 / 1e3;
    Ok((mean_us(&ping_ns), mean_us(&script_ns)))
}

/// Run `scripts` over `conn`, a few in flight, and hand each outcome
/// to `each`.
fn run_bulk(
    conn: &mut Connection,
    scripts: Vec<(bool, Vec<ScriptOp>)>,
    mut each: impl FnMut(usize, Outcome),
) -> Result<(), ClientError> {
    let total = scripts.len();
    let mut scripts = scripts.into_iter();
    let (mut sent, mut received) = (0, 0);
    while received < total {
        if sent < total && sent - received < BULK_DEPTH {
            let (read_only, ops) = scripts.next().expect("sent < total");
            if read_only {
                conn.send_read_only_script(ops)?;
            } else {
                conn.send_script(ops)?;
            }
            sent += 1;
        } else {
            let (_, outcome) = conn.recv_script()?;
            each(received, outcome);
            received += 1;
        }
    }
    Ok(())
}

/// Spawn a server and bring it to the state every stream's model
/// starts from.
fn spawn_and_populate(
    bin: &Path,
    wal_dir: Option<&Path>,
    pin: Option<usize>,
    workload: Workload,
) -> Result<(ServerProc, Connection), String> {
    if let Some(dir) = wal_dir {
        // A fresh log: recovery must find nothing.
        let _ = std::fs::remove_dir_all(dir);
    }
    let server =
        ServerProc::spawn(bin, wal_dir, pin).map_err(|e| format!("spawning server: {e}"))?;
    let mut conn = server.connect().map_err(|e| format!("connecting: {e}"))?;
    let mut uncommitted = 0;
    let scripts = gen::populate(workload)
        .into_iter()
        .chain(gen::pretouch(workload))
        .map(|ops| (false, ops))
        .collect();
    run_bulk(&mut conn, scripts, |_, outcome| {
        uncommitted += u64::from(!outcome.committed());
    })
    .map_err(|e| format!("populating: {e}"))?;
    if uncommitted > 0 {
        return Err(format!("{uncommitted} populate scripts did not commit"));
    }
    Ok((server, conn))
}

fn contains(map: &str, key: i64) -> ScriptOp {
    gen::op(Op::MapContains {
        obj: map.into(),
        key,
    })
}

/// Read every pair of `map` and require exactly one bound key per
/// pair; when `present` is given (no crash in between), it must be
/// that key.
fn verify_pairs(
    conn: &mut Connection,
    map: &str,
    pairs: u64,
    present: Option<&[bool]>,
    problems: &mut Vec<String>,
) -> Result<(), ClientError> {
    let chunk = u64::from(txboost_wire::MAX_OPS_PER_SCRIPT) / 2;
    let scripts = (0..pairs.div_ceil(chunk))
        .map(|c| {
            let ops = (c * chunk..((c + 1) * chunk).min(pairs))
                .flat_map(|p| [contains(map, 2 * p as i64), contains(map, 2 * p as i64 + 1)])
                .collect();
            (true, ops)
        })
        .collect();
    let mut broken = 0u64;
    let mut misplaced = 0u64;
    run_bulk(conn, scripts, |index, outcome| {
        for (i, pair) in outcome.results.chunks(2).enumerate() {
            let p = index as u64 * chunk + i as u64;
            match pair {
                [OpResult::Bool(even), OpResult::Bool(odd)] if even != odd => {
                    if present.is_some_and(|model| model[p as usize] != *odd) {
                        misplaced += 1;
                    }
                }
                _ => broken += 1,
            }
        }
        if !outcome.committed() {
            broken += chunk;
        }
    })?;
    if broken > 0 {
        problems.push(format!(
            "{broken} pairs of {map} do not have exactly one key bound"
        ));
    }
    if misplaced > 0 {
        problems.push(format!(
            "{misplaced} pairs of {map} have the other key bound than the acknowledged moves leave"
        ));
    }
    Ok(())
}

/// Compare the server's final state with what was acknowledged.
/// `crashed`: the server was killed with scripts in flight, so a
/// counter may hold anything between acknowledged and sent.
fn verify_state(
    conn: &mut Connection,
    workload: Workload,
    clients: &[Client],
    crashed: bool,
    problems: &mut Vec<String>,
) -> Result<(), ClientError> {
    // Counters: c0..c63, plus `moves` where transfers bump it.
    let mut names: Vec<String> = (0..COUNTERS).map(gen::counter_name).collect();
    let mut acked: Vec<u64> = (0..COUNTERS)
        .map(|i| clients.iter().map(|c| c.acked_adds[i]).sum())
        .collect();
    let mut sent: Vec<u64> = (0..COUNTERS)
        .map(|i| clients.iter().map(|c| c.gen.sent_adds[i]).sum())
        .collect();
    if workload == Workload::WireDurable {
        names.push(gen::COUNTER_MOVES.into());
        acked.push(clients.iter().map(|c| c.acked_moves).sum());
        sent.push(clients.iter().map(|c| c.gen.sent_moves).sum());
    }
    if workload != Workload::WireReadmostly {
        let ops = names
            .iter()
            .map(|obj| gen::op(Op::CounterGet { obj: obj.clone() }))
            .collect();
        let outcome = conn.execute(ops)?;
        if outcome.results.len() != names.len() {
            problems.push(format!(
                "reading the counters answered {}",
                outcome.status.name()
            ));
        }
        for (i, result) in outcome.results.iter().enumerate() {
            let OpResult::Value(Some(value)) = *result else {
                problems.push(format!("counter {} read as {result:?}", names[i]));
                continue;
            };
            let (lo, hi) = (
                acked[i] as i64,
                if crashed { sent[i] } else { acked[i] } as i64,
            );
            if value < lo || value > hi {
                problems.push(format!(
                    "counter {} holds {value}, acknowledged {lo}, sent {}",
                    names[i], sent[i]
                ));
            }
        }
    }

    match workload {
        Workload::WireSmall => {
            let model: Vec<(i64, Option<i64>)> = clients
                .iter()
                .flat_map(|c| c.gen.small_bindings())
                .collect();
            let ops = model.iter().map(|(key, _)| contains("m", *key)).collect();
            let outcome = conn.execute_read_only(ops)?;
            let wrong = model
                .iter()
                .zip(&outcome.results)
                .filter(|((_, bound), got)| **got != OpResult::Bool(bound.is_some()))
                .count();
            if wrong > 0 || outcome.results.len() != model.len() {
                problems.push(format!("{wrong} keys of m differ from the model"));
            }
        }
        Workload::WireDurable | Workload::WireReadmostly => {
            let (map, pairs) = if workload == Workload::WireDurable {
                ("accounts", gen::ACCOUNT_PAIRS)
            } else {
                ("pairs", gen::READMOSTLY_PAIRS)
            };
            let mut odd_present = vec![false; pairs as usize];
            for key in clients.iter().flat_map(|c| c.gen.present_pair_keys()) {
                odd_present[(key / 2) as usize] = key % 2 == 1;
            }
            verify_pairs(
                conn,
                map,
                pairs,
                (!crashed).then_some(&odd_present[..]),
                problems,
            )?;
        }
        Workload::ExecContended => unreachable!("not a wire workload"),
    }
    Ok(())
}

/// Run one wire workload end to end.
pub fn run(cfg: &RunConfig, server_bin: &Path) -> Result<Measured, String> {
    let workload = cfg.workload;
    let wal_dir = workload
        .durable()
        .then(|| cfg.out_dir.join(format!("wal-{}", std::process::id())));
    let wal_dir = wal_dir.as_deref();
    let mut problems = Vec::new();
    let mut notes = Vec::new();

    // Set-up, several times over; the last server stays up for the run.
    let mut setup_s = Vec::with_capacity(cfg.setup_rounds);
    let mut live = None;
    for round in 0..cfg.setup_rounds {
        let t = Instant::now();
        let (server, mut conn) =
            spawn_and_populate(server_bin, wal_dir, cfg.server_cpu(), workload)?;
        setup_s.push(t.elapsed().as_secs_f64());
        if round + 1 < cfg.setup_rounds {
            server.shutdown(&mut conn)?;
        } else {
            live = Some((server, conn));
        }
    }
    let (server, mut ctl_conn) = live.ok_or("no set-up round ran")?;

    let mut clients = Vec::with_capacity(cfg.streams());
    for i in 0..cfg.streams() {
        clients.push(Client {
            conn: server.connect().map_err(|e| format!("connecting: {e}"))?,
            gen: Gen::new(workload, cfg.seed, i, cfg.streams()),
            inflight: VecDeque::with_capacity(PIPELINE_DEPTH),
            acked_adds: [0; COUNTERS],
            acked_moves: 0,
            window: WindowCounts::default(),
            problems: Vec::new(),
            wrong_replies: 0,
        });
    }
    let rtt_us = if cfg.trace {
        // On a thread of its own so that it, too, runs where the load
        // will.
        let probe = std::thread::scope(|scope| {
            scope
                .spawn(|| {
                    if let Some(cpu) = cfg.load_cpu(0) {
                        pin_current_thread(cpu);
                    }
                    // A tenth of the traced replay: 2,000 round trips
                    // of each kind, 200 under `--smoke`.
                    rtt_probe(&mut ctl_conn, &mut clients[0], cfg.traced_scripts / 10)
                })
                .join()
        });
        Some(
            probe
                .map_err(|_| "the round-trip probe panicked")?
                .map_err(|e| format!("round-trip probe: {e}"))?,
        )
    } else {
        None
    };

    // Warm-up, window, drain. The load threads run through all three
    // without a pause; the phase flag decides what is counted.
    let ctl = Control::new();
    let pid = server.pid();
    let mut server = Some(server);
    let window_result = std::thread::scope(|scope| -> Result<_, String> {
        let per_thread = cfg.streams().div_ceil(cfg.wire_load_threads());
        let ctl = &ctl;
        let handles: Vec<_> = clients
            .chunks_mut(per_thread)
            .enumerate()
            .map(|(i, mine)| scope.spawn(move || drive(mine, ctl, cfg.load_cpu(i))))
            .collect();
        let measured = timed_window(ctl, cfg, || {
            let stats = scrape_stats(&mut ctl_conn)?;
            let accounting =
                ProcSample::read(pid).map_err(|e| format!("reading /proc/{pid}: {e}"))?;
            Ok((stats, accounting))
        });
        if workload.durable() || measured.is_err() {
            // The crash of the durability check: the window is closed
            // but the load is still on, writes are in flight, nothing
            // gets to flush. (On an error, killing the server is also
            // what unblocks threads waiting for replies.)
            ctl.killed.store(true, Ordering::SeqCst);
            if let Some(server) = server.take() {
                server.kill().map_err(|e| format!("killing server: {e}"))?;
            }
        }
        ctl.phase.store(PHASE_DRAIN, Ordering::SeqCst);
        for handle in handles {
            handle.join().map_err(|_| "a load thread panicked")?;
        }
        measured
    });
    let (timing, (stats_before, proc_before), (stats_after, proc_after)) = window_result?;

    // The state left behind, against what was acknowledged.
    let mut recovery = None;
    let server = match server {
        Some(server) => server,
        None => {
            let wal_dir = wal_dir.ok_or("only the durable workload crashes its server")?;
            let t = Instant::now();
            let restarted = ServerProc::spawn(server_bin, Some(wal_dir), cfg.server_cpu())
                .map_err(|e| format!("restarting server: {e}"))?;
            ctl_conn = restarted
                .connect()
                .map_err(|e| format!("reconnecting: {e}"))?;
            ctl_conn.ping().map_err(|e| format!("first ping: {e}"))?;
            let restart_us = t.elapsed().as_secs_f64() * 1e6;
            let stats = scrape_stats(&mut ctl_conn)?;
            recovery = Some((restart_us, stats.num(&["wal", "replayed"])));
            notes.push(format!(
                "crash-restart: {:.0} records replayed in {:.1} ms",
                stats.num(&["wal", "replayed"]),
                restart_us / 1e3
            ));
            restarted
        }
    };
    verify_state(
        &mut ctl_conn,
        workload,
        &clients,
        recovery.is_some(),
        &mut problems,
    )
    .map_err(|e| format!("verifying state: {e}"))?;
    let final_stats = scrape_stats(&mut ctl_conn)?;
    for (path, what) in [
        (&["connections", "proto_errors"][..], "protocol errors"),
        (&["wal", "errors"][..], "WAL errors"),
        (&["wal", "replay_failures"][..], "WAL replay failures"),
    ] {
        // The crashed server's own counters were scraped at the end of
        // the window; the restarted one's cover recovery.
        let n = final_stats.num(path).max(stats_after.num(path));
        if n != 0.0 {
            problems.push(format!("server reports {n} {what}"));
        }
    }
    if let Err(e) = server.shutdown(&mut ctl_conn) {
        problems.push(e);
    }
    if let Some(dir) = wal_dir {
        let _ = std::fs::remove_dir_all(dir);
    }

    let mut counts = WindowCounts::default();
    for client in &mut clients {
        counts.absorb(std::mem::take(&mut client.window));
        problems.append(&mut client.problems);
        if client.wrong_replies > 0 {
            problems.push(format!(
                "{} replies differ from the model",
                client.wrong_replies
            ));
        }
    }
    notes.push(format!(
        "{} connections x depth {PIPELINE_DEPTH} driven by {} load thread(s), server pid {pid}",
        cfg.streams(),
        cfg.wire_load_threads()
    ));
    Ok(Measured {
        setup_s: latency::median_f64(&setup_s).unwrap_or(0.0) + timing.warmup_s,
        slice_bounds_us: timing.slice_bounds_us,
        counts,
        proc_before,
        proc_after,
        stats_before,
        stats_after,
        rtt_us,
        recovery,
        problems,
        notes,
    })
}
