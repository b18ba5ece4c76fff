//! Kill -9 the server mid-load, restart it on the same WAL directory,
//! and check over the wire that no acknowledged commit was lost and
//! token conservation holds.
//!
//! This is the end-to-end durability contract: a client that got a
//! `Committed` reply from a `--wal-dir` server holds a durable commit,
//! whatever happens to the process afterwards.

#![cfg(target_os = "linux")]

mod common;

use common::ServerProc;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use txboost_client::{Connection, ScriptBuilder};
use txboost_wire::{Guard, OpResult, ScriptStatus};

const KEYS: i64 = 16;
const TOKENS: i64 = 8;
const CLIENTS: u64 = 6;
/// Commits to wait for before pulling the trigger.
const KILL_AFTER_COMMITS: u64 = 60;

fn spawn_server(wal_dir: &std::path::Path) -> ServerProc {
    let wal_dir = wal_dir.to_str().expect("utf8 wal dir");
    ServerProc::spawn(&["--wal-dir", wal_dir, "--wal-batch", "8"])
}

fn connect(addr: &str) -> Connection {
    let mut conn = Connection::connect(addr).expect("connect");
    conn.set_read_timeout(Some(Duration::from_secs(10)))
        .unwrap();
    conn
}

/// Occupied cells and the transfer counter, read in one atomic script.
fn probe(conn: &mut Connection) -> (i64, i64) {
    let mut script = ScriptBuilder::new();
    for k in 0..KEYS {
        script = script.map_contains("bank", k);
    }
    script = script.counter_get("applied");
    let out = conn.execute(script.build()).expect("probe");
    assert_eq!(out.status, ScriptStatus::Committed);
    let occupied = out.results[..KEYS as usize]
        .iter()
        .filter(|r| matches!(r, OpResult::Bool(true)))
        .count() as i64;
    let applied = match out.results[KEYS as usize] {
        OpResult::Value(v) => v.unwrap_or(0),
        ref other => panic!("counter probe returned {other:?}"),
    };
    (occupied, applied)
}

#[test]
fn sigkill_mid_load_loses_no_acked_commit() {
    let wal_dir = std::env::temp_dir().join(format!("txboost-restart-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&wal_dir);

    // --- First life: seed, hammer, die. ---
    let mut server = spawn_server(&wal_dir);
    let mut setup = connect(server.addr());
    for k in 0..TOKENS {
        let out = setup
            .execute(
                ScriptBuilder::new()
                    .map_insert_guarded("bank", k, 7, Guard::ExpectNone)
                    .build(),
            )
            .expect("seed");
        assert_eq!(out.status, ScriptStatus::Committed, "seeding key {k}");
    }

    let acked = Arc::new(AtomicU64::new(0));
    let stop = Arc::new(AtomicBool::new(false));
    std::thread::scope(|s| {
        for t in 0..CLIENTS {
            let addr = server.addr().to_string();
            let acked = Arc::clone(&acked);
            let stop = Arc::clone(&stop);
            s.spawn(move || {
                let mut conn = connect(&addr);
                let mut x = 0x5EED ^ ((t + 1) * 0x9E37_79B9);
                let mut rng = move || {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x
                };
                while !stop.load(Ordering::Relaxed) {
                    let from = (rng() % KEYS as u64) as i64;
                    let to = (from + 1 + (rng() % (KEYS as u64 - 1)) as i64) % KEYS;
                    let script = ScriptBuilder::new()
                        .map_remove_guarded("bank", from, Guard::ExpectSome)
                        .map_insert_guarded("bank", to, 7, Guard::ExpectNone)
                        .counter_add("applied", 1)
                        .build();
                    match conn.execute(script) {
                        // A reply in hand means the record's fsync
                        // batch completed: this commit must survive.
                        Ok(out) if out.status == ScriptStatus::Committed => {
                            acked.fetch_add(1, Ordering::Relaxed);
                        }
                        Ok(_) => {}
                        // The server just died under us.
                        Err(_) => break,
                    }
                }
            });
        }

        // Let the load build, then SIGKILL — no drain, no fsync help.
        let deadline = Instant::now() + Duration::from_secs(30);
        while acked.load(Ordering::Relaxed) < KILL_AFTER_COMMITS {
            assert!(
                Instant::now() < deadline,
                "load never reached kill threshold"
            );
            std::thread::sleep(Duration::from_millis(2));
        }
        server.child.kill().expect("SIGKILL");
        stop.store(true, Ordering::Relaxed);
    });
    server.child.wait().expect("reap killed server");
    let acked_before_kill = acked.load(Ordering::Relaxed);
    assert!(acked_before_kill >= KILL_AFTER_COMMITS);

    // --- Second life: recover and audit over the wire. ---
    let server = spawn_server(&wal_dir);
    let mut conn = connect(server.addr());
    let (occupied, applied) = probe(&mut conn);
    assert_eq!(
        occupied, TOKENS,
        "token conservation violated across SIGKILL + recovery"
    );
    assert!(
        applied as u64 >= acked_before_kill,
        "lost acked commits: counter {applied} < acked {acked_before_kill}"
    );

    // The recovered server keeps logging: a few more transfers, a clean
    // shutdown, and a third life must see them too.
    let mut extra = 0;
    for i in 0..20 {
        let from = i % KEYS;
        let to = (from + 3) % KEYS;
        let out = conn
            .execute(
                ScriptBuilder::new()
                    .map_remove_guarded("bank", from, Guard::ExpectSome)
                    .map_insert_guarded("bank", to, 7, Guard::ExpectNone)
                    .counter_add("applied", 1)
                    .build(),
            )
            .expect("post-recovery transfer");
        if out.status == ScriptStatus::Committed {
            extra += 1;
        }
    }
    let (_, applied_second) = probe(&mut conn);
    assert_eq!(applied_second, applied + extra);
    conn.shutdown_server().expect("graceful shutdown");
    server.wait_drained();

    let server = spawn_server(&wal_dir);
    let mut conn = connect(server.addr());
    let (occupied, applied_third) = probe(&mut conn);
    assert_eq!(occupied, TOKENS, "tokens lost across clean restart");
    assert_eq!(
        applied_third, applied_second,
        "clean shutdown + restart changed history"
    );
    conn.shutdown_server().expect("final shutdown");
    server.wait_drained();
    let _ = std::fs::remove_dir_all(&wal_dir);
}
