//! End-to-end loopback tests: concurrent clients running multi-op
//! transfer scripts against a real server over TCP, with an invariant
//! checker asserting the scripts were atomic — no partial effects,
//! including across guard failures and forced aborts.

#![cfg(target_os = "linux")]

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;
use txboost_client::{Connection, ScriptBuilder};
use txboost_server::{Server, ServerConfig};
use txboost_wire::{Guard, OpResult, ScriptStatus};

fn start_server() -> Server {
    Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        window: 16,
        ..ServerConfig::default()
    })
    .expect("bind test server")
}

/// Deterministic per-thread RNG (xorshift64*), so the tests need no
/// rand dependency.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        let mut x = self.0;
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        self.0 = x;
        x.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// The atomicity invariant: transfer scripts move a token from one map
/// cell to another, guarded so they commit only when the source is
/// occupied and the destination vacant. Whatever interleaving the
/// server picks, the number of occupied cells must never change.
#[test]
fn concurrent_transfers_preserve_token_count() {
    const KEYS: i64 = 24;
    const TOKENS: i64 = 12;
    const CLIENTS: u64 = 6;
    const ITERS: u64 = 150;

    let server = start_server();
    let addr = server.local_addr().to_string();

    // Seed the bank over the wire: TOKENS tokens in the first cells.
    let mut setup = Connection::connect(&addr).unwrap();
    for k in 0..TOKENS {
        let out = setup
            .execute(
                ScriptBuilder::new()
                    .map_insert_guarded("bank", k, 7, Guard::ExpectNone)
                    .build(),
            )
            .unwrap();
        assert_eq!(out.status, ScriptStatus::Committed, "seeding key {k}");
    }

    let commits = Arc::new(AtomicU64::new(0));
    let guard_fails = Arc::new(AtomicU64::new(0));
    let debug_aborts = Arc::new(AtomicU64::new(0));
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let addr = addr.clone();
            let commits = Arc::clone(&commits);
            let guard_fails = Arc::clone(&guard_fails);
            let debug_aborts = Arc::clone(&debug_aborts);
            s.spawn(move || {
                let mut conn = Connection::connect(&addr).unwrap();
                let mut rng = Rng(0x5EED ^ ((t + 1) * 0x9E37_79B9));
                for i in 0..ITERS {
                    let from = rng.below(KEYS as u64) as i64;
                    let to = (from + 1 + rng.below(KEYS as u64 - 1) as i64) % KEYS;
                    if i % 10 == 9 {
                        // Forced abort: the insert must be rolled back.
                        let out = conn
                            .execute(
                                ScriptBuilder::new()
                                    .map_insert("bank", to, 99)
                                    .debug_abort()
                                    .build(),
                            )
                            .unwrap();
                        assert_eq!(out.status, ScriptStatus::DebugAborted);
                        assert_eq!(out.failed_op, Some(1));
                        assert!(out.results.is_empty(), "aborted script leaked results");
                        debug_aborts.fetch_add(1, Ordering::Relaxed);
                        continue;
                    }
                    let out = conn
                        .execute(
                            ScriptBuilder::new()
                                .map_remove_guarded("bank", from, Guard::ExpectSome)
                                .map_insert_guarded("bank", to, 7, Guard::ExpectNone)
                                .build(),
                        )
                        .unwrap();
                    match out.status {
                        ScriptStatus::Committed => {
                            assert_eq!(out.results.len(), 2);
                            assert_eq!(out.results[0], OpResult::Value(Some(7)));
                            assert_eq!(out.results[1], OpResult::Value(None));
                            commits.fetch_add(1, Ordering::Relaxed);
                        }
                        ScriptStatus::GuardFailed => {
                            assert!(out.failed_op.is_some(), "guard failure must name the op");
                            assert!(out.results.is_empty());
                            guard_fails.fetch_add(1, Ordering::Relaxed);
                        }
                        // No lock timeout or retry exhaustion: a script
                        // takes both keys up front, in one global order,
                        // and waits for them.
                        other => panic!("unexpected status {other:?}"),
                    }
                    assert_eq!(out.attempts, 1, "a script runs once");
                }
            });
        }
    });

    assert!(commits.load(Ordering::Relaxed) > 0, "no transfer committed");
    assert!(
        guard_fails.load(Ordering::Relaxed) > 0,
        "expected some guard failures under contention"
    );
    assert_eq!(debug_aborts.load(Ordering::Relaxed), CLIENTS * ITERS / 10);

    // Invariant check over the wire: exactly TOKENS cells occupied, and
    // every occupied cell holds the token value (never the rolled-back
    // 99 or a duplicate).
    let mut probe = ScriptBuilder::new();
    for k in 0..KEYS {
        probe = probe.map_contains("bank", k);
    }
    let out = setup.execute(probe.build()).unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);
    let occupied = out
        .results
        .iter()
        .filter(|r| matches!(r, OpResult::Bool(true)))
        .count() as i64;
    assert_eq!(
        occupied, TOKENS,
        "atomicity violated: token count changed under concurrent transfers"
    );
    for k in 0..KEYS {
        let out = setup
            .execute(ScriptBuilder::new().map_remove("bank", k).build())
            .unwrap();
        assert_eq!(out.status, ScriptStatus::Committed);
        match &out.results[0] {
            OpResult::Value(None) => {}
            OpResult::Value(Some(7)) => {}
            other => panic!("cell {k} holds partial-effect value {other:?}"),
        }
    }

    server.join();
}

#[test]
fn pipelined_replies_arrive_in_request_order() {
    let server = start_server();
    let mut conn = Connection::connect(server.local_addr().to_string()).unwrap();

    let mut sent = Vec::new();
    for i in 0..100i64 {
        let id = conn
            .send_script(
                ScriptBuilder::new()
                    .counter_add("pipeline", 1)
                    .map_insert("order", i, i)
                    .build(),
            )
            .unwrap();
        sent.push(id);
    }
    for expected in sent {
        let (req_id, out) = conn.recv_script().unwrap();
        assert_eq!(req_id, expected, "replies out of order");
        assert_eq!(out.status, ScriptStatus::Committed);
    }

    let out = conn
        .execute(ScriptBuilder::new().counter_get("pipeline").build())
        .unwrap();
    assert_eq!(out.results[0], OpResult::Value(Some(100)));
    server.join();
}

#[test]
fn stats_reports_per_op_histograms_and_counters() {
    let server = start_server();
    let mut conn = Connection::connect(server.local_addr().to_string()).unwrap();

    for k in 0..20 {
        let out = conn
            .execute(
                ScriptBuilder::new()
                    .map_insert("stats_map", k, k)
                    .counter_add("stats_ctr", 1)
                    .id_gen("stats_ids")
                    .build(),
            )
            .unwrap();
        assert_eq!(out.status, ScriptStatus::Committed);
    }
    // One forced abort so the abort counters are exercised too.
    let out = conn
        .execute(ScriptBuilder::new().debug_abort().build())
        .unwrap();
    assert_eq!(out.status, ScriptStatus::DebugAborted);

    let json = conn.stats_json().unwrap();
    assert!(!json.contains("abort_attribution"), "{json}");
    for needle in [
        "\"uptime_ms\"",
        "\"txn\"",
        "\"scripts\"",
        "\"committed\":20", // the 20 mixed scripts; STATS itself is not a txn
        "\"debug_aborted\":1",
        "\"ops\"",
        // Per-op histograms recorded every call of each op kind.
        "\"map_insert\":{\"count\":20,",
        "\"counter_add\":{\"count\":20,",
        "\"id_gen\":{\"count\":20,",
        "\"p50_ns\"",
        "\"p99_ns\"",
        "\"script_service\":{\"count\":21,",
        "\"connections\"",
        "\"accepted\":1",
        "\"objects\"",
        "\"maps\":1",
        "\"counters\":1",
        "\"idgens\":1",
    ] {
        assert!(json.contains(needle), "stats missing {needle}: {json}");
    }
    server.join();
}

#[test]
fn read_only_scripts_snapshot_without_locks_across_the_wire() {
    let server = start_server();
    let addr = server.local_addr().to_string();
    let mut conn = Connection::connect(&addr).unwrap();

    // Seed committed state.
    let out = conn
        .execute(
            ScriptBuilder::new()
                .map_insert("ro_map", 1, 10)
                .counter_add("ro_ctr", 5)
                .build(),
        )
        .unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);

    // A read-only script routed through ScriptBuilder::read_only():
    // commits in exactly one attempt with a consistent snapshot.
    let out = conn
        .run(
            ScriptBuilder::new()
                .read_only()
                .map_contains("ro_map", 1)
                .map_contains("ro_map", 2),
        )
        .unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);
    assert_eq!(out.attempts, 1, "snapshot reads never retry");
    assert_eq!(
        out.results,
        vec![OpResult::Bool(true), OpResult::Bool(false)]
    );

    // A counter keeps no versions, so a snapshot cannot read one.
    let out = conn
        .run(ScriptBuilder::new().read_only().counter_get("ro_ctr"))
        .unwrap();
    assert_eq!(out.status, ScriptStatus::ReadOnlyViolation);
    assert_eq!(out.failed_op, Some(0));
    assert!(out.results.is_empty());

    // A mutating op in a read-only script is a typed rejection.
    let out = conn
        .run(
            ScriptBuilder::new()
                .read_only()
                .map_contains("ro_map", 1)
                .map_insert("ro_map", 2, 2),
        )
        .unwrap();
    assert_eq!(out.status, ScriptStatus::ReadOnlyViolation);
    assert_eq!(out.failed_op, Some(1));
    assert!(out.results.is_empty());

    // Nothing leaked; and the stats document exposes the MVCC section
    // plus the per-status counter.
    let out = conn
        .run(ScriptBuilder::new().read_only().map_contains("ro_map", 2))
        .unwrap();
    assert_eq!(out.results, vec![OpResult::Bool(false)]);
    let json = conn.stats_json().unwrap();
    for needle in [
        "\"read_only_violation\":2",
        "\"mvcc\":{\"installs\":",
        "\"snapshot_reads\":",
        "\"gc_reclaimed\":",
        "\"chain_len\":{",
        "\"snapshot_age\":{",
    ] {
        assert!(json.contains(needle), "stats missing {needle}: {json}");
    }
    server.join();
}

#[test]
fn read_only_scripts_interleave_with_writers_and_stay_consistent() {
    // Writers transfer between two map cells (sum preserved per
    // commit); concurrent read-only scripts must observe both cells
    // from ONE committed snapshot — the transfer invariant must hold
    // inside every read-only reply even while writers hold locks.
    let server = start_server();
    let addr = server.local_addr().to_string();

    let mut setup = Connection::connect(&addr).unwrap();
    let out = setup
        .execute(
            ScriptBuilder::new()
                .map_insert("pair", 0, 100)
                .map_insert("pair", 1, 100)
                .build(),
        )
        .unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);

    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    std::thread::scope(|s| {
        for t in 0..2u64 {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut conn = Connection::connect(&addr).unwrap();
                let mut rng = Rng(0xF00D ^ (t + 1));
                for _ in 0..200 {
                    if stop.load(Ordering::Relaxed) {
                        break;
                    }
                    let amt = (rng.below(9) + 1) as i64;
                    let (from, to) = if rng.below(2) == 0 { (0, 1) } else { (1, 0) };
                    // Remove both, re-insert shifted: keeps the pair's
                    // sum at 200 in every committed state.
                    let out = conn
                        .execute(
                            ScriptBuilder::new()
                                .map_remove_guarded("pair", from, Guard::ExpectSome)
                                .map_remove_guarded("pair", to, Guard::ExpectSome)
                                .build(),
                        )
                        .unwrap();
                    if out.status != ScriptStatus::Committed {
                        continue;
                    }
                    let (OpResult::Value(Some(a)), OpResult::Value(Some(b))) =
                        (&out.results[0], &out.results[1])
                    else {
                        panic!("guarded removes returned {:?}", out.results);
                    };
                    let out = conn
                        .execute(
                            ScriptBuilder::new()
                                .map_insert("pair", from, a - amt)
                                .map_insert("pair", to, b + amt)
                                .build(),
                        )
                        .unwrap();
                    assert_eq!(out.status, ScriptStatus::Committed);
                }
            });
        }
        {
            let addr = addr.clone();
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut conn = Connection::connect(&addr).unwrap();
                for _ in 0..300 {
                    let out = conn
                        .run(
                            ScriptBuilder::new()
                                .read_only()
                                .map_contains("pair", 0)
                                .map_contains("pair", 1),
                        )
                        .unwrap();
                    assert_eq!(out.status, ScriptStatus::Committed, "read-only aborted");
                    assert_eq!(out.attempts, 1);
                    // Snapshot consistency: the two-step writer removes
                    // both cells before re-inserting, so a snapshot can
                    // show both present or both absent — never one.
                    let (OpResult::Bool(a), OpResult::Bool(b)) = (&out.results[0], &out.results[1])
                    else {
                        panic!("unexpected results {:?}", out.results);
                    };
                    assert_eq!(a, b, "read-only script straddled a commit");
                }
                stop.store(true, Ordering::Relaxed);
            });
        }
    });
    server.join();
}

#[test]
fn semaphore_scripts_block_and_release_across_the_wire() {
    let server = Server::bind(ServerConfig {
        addr: "127.0.0.1:0".into(),
        default_sem_permits: 1,
        ..ServerConfig::default()
    })
    .unwrap();
    let mut conn = Connection::connect(server.local_addr().to_string()).unwrap();

    // Take the only permit, then try to take it again: the second
    // acquire answers WouldBlock at once, in one attempt, naming the op
    // — no event loop parks on an empty semaphore.
    let out = conn
        .execute(ScriptBuilder::new().sem_acquire("gate").build())
        .unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);
    let out = conn
        .execute(ScriptBuilder::new().sem_acquire("gate").build())
        .unwrap();
    assert_eq!(out.status, ScriptStatus::WouldBlock);
    assert_eq!((out.attempts, out.failed_op), (1, Some(0)));

    // Release (disposable: applies at commit), then acquire succeeds.
    let out = conn
        .execute(ScriptBuilder::new().sem_release("gate").build())
        .unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);
    let out = conn
        .execute(ScriptBuilder::new().sem_acquire("gate").build())
        .unwrap();
    assert_eq!(out.status, ScriptStatus::Committed);
    server.join();
}

#[test]
fn graceful_drain_answers_in_flight_then_closes() {
    let server = start_server();
    let addr = server.local_addr().to_string();

    let mut conn = Connection::connect(&addr).unwrap();
    conn.ping().unwrap();

    // Pipeline work, then a shutdown frame behind it: every queued
    // script must still get its reply (in order) before the ack.
    let mut sent = Vec::new();
    for _ in 0..10 {
        sent.push(
            conn.send_script(ScriptBuilder::new().counter_add("drain", 1).build())
                .unwrap(),
        );
    }
    for expected in sent {
        let (req_id, out) = conn.recv_script().unwrap();
        assert_eq!(req_id, expected);
        assert_eq!(out.status, ScriptStatus::Committed);
    }
    conn.shutdown_server().unwrap();

    server.join();
    // Listener is gone: a fresh connect must fail (or be torn down
    // before answering a ping).
    match Connection::connect(&addr) {
        Err(_) => {}
        Ok(mut c) => {
            c.set_read_timeout(Some(Duration::from_millis(500)))
                .unwrap();
            assert!(c.ping().is_err(), "server still serving after join()");
        }
    }
}
