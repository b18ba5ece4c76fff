//! Deterministic-harness coverage for the multi-version read path:
//! read-only snapshot transactions racing committing writers.
//!
//! Eight behaviours are swept across seeds, plus three *mutation
//! checks*, evidence these tests have teeth. With the reader-registry
//! GC floor staged away (`Mutation::IgnoreReaderFloor`), install-time
//! GC must prune a version a registered snapshot reader is still
//! pinning, and the sweep must observe the resulting torn read. With a
//! committer's locks released as soon as it enters its install window
//! (`Mutation::LocksReleasedBeforeInstall`), a locked reader must see a
//! value no snapshot begun after it holds yet, and the locked-read
//! sweep must notice. With a map armed without first taking its lock
//! table's slots (`Mutation::ArmWithoutDraining`), a first snapshot read
//! must copy a write still uncommitted, or miss one committed without
//! an install, and the arming sweep must notice. A mutation lives only
//! inside the runs that stage it.
//!
//! Every seed of the transfer sweep reaches the version store's three
//! yield points (install, GC, snapshot read), so a hook removed from
//! the read path fails it. A mutation check stops at the first seed
//! that catches its mutation.
//!
//! The map is the one versioned type, and only from its first snapshot
//! read on: a counter-only commit takes no commit timestamp at all,
//! which a plain test checks on the clock, and a sweep whose map has no
//! snapshot reader before its writers arms the map in setup.
//!
//! Every boosted collection shares the process-global `MvccDomain`, so
//! the tests in this binary serialize on a file-level mutex: a setup
//! that reads the global clock must not see another test's commits.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use transactional_boosting::collections::MapCall;
use transactional_boosting::prelude::*;
use txboost_core::locks::Mode;
use txboost_core::MvccDomain;
use txboost_sched::core_det as det;

/// Spin at a named yield point until `flag` is set (the deterministic
/// analogue of a barrier; see `det_deadlock.rs`).
fn spin_until(flag: &AtomicBool) {
    while !flag.load(Ordering::SeqCst) {
        det::yield_point(det::Point::User);
    }
}

/// `map` after one snapshot read: armed, so every commit that writes it
/// takes a timestamp and installs. A sweep whose map has no snapshot
/// reader early enough arms it in setup.
fn armed(map: BoostedHashMap<i64, i64>) -> BoostedHashMap<i64, i64> {
    let tm = TxnManager::default();
    tm.run_read_only(|t| map.get(t, &0)).unwrap();
    map
}

/// Serializes the tests in this binary: they all read the process-wide
/// `MvccDomain`, and a setup reads its clock between runs.
/// `unwrap_or_else` keeps a panicking test from cascading poison into
/// the others.
static DOMAIN_LOCK: Mutex<()> = Mutex::new(());

fn domain_guard() -> std::sync::MutexGuard<'static, ()> {
    DOMAIN_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

#[test]
fn read_only_snapshots_hold_the_transfer_invariant_on_every_seed() {
    // Two writers transfer between the same two map cells (sum always
    // 200) while a read-only thread snapshots both. Every snapshot
    // must be all-or-nothing: the two reads come from one commit
    // frontier, so their sum is exactly 200 on every interleaving —
    // and the read-only transactions must never abort.
    let _g = domain_guard();
    struct W {
        tm: TxnManager,
        map: BoostedHashMap<i64, i64>,
        seeded: AtomicBool,
        ro_ok: AtomicU64,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(60),
        3,
        || W {
            tm: TxnManager::default(),
            map: armed(BoostedHashMap::new()),
            seeded: AtomicBool::new(false),
            ro_ok: AtomicU64::new(0),
        },
        |w, tid| {
            if tid == 0 {
                // Seed both cells in one commit so every later
                // snapshot sees either the pair or (never) half of it.
                w.tm.run(|t| {
                    w.map.put(t, 0, 100)?;
                    w.map.put(t, 1, 100)?;
                    Ok(())
                })
                .unwrap();
                w.seeded.store(true, Ordering::SeqCst);
            } else {
                spin_until(&w.seeded);
            }
            if tid == 2 {
                // Reader: six snapshots, each internally consistent.
                for _ in 0..6 {
                    let got = w.tm.run_read_only(|t| {
                        let a = w.map.get(t, &0)?;
                        let b = w.map.get(t, &1)?;
                        Ok((a, b))
                    });
                    let (a, b) = got.expect("a read-only txn can never abort");
                    let a = a.expect("snapshot postdates the seeding commit");
                    let b = b.expect("snapshot postdates the seeding commit");
                    assert_eq!(a + b, 200, "torn snapshot: saw a={a}, b={b}");
                    w.ro_ok.fetch_add(1, Ordering::SeqCst);
                }
            } else {
                // Writers: move tid+1 units from cell 0 to cell 1,
                // three times each. Both lock cell 0 first, so the
                // writers block (virtual time) rather than deadlock.
                let amt = i64::try_from(tid).unwrap() + 1;
                for _ in 0..3 {
                    w.tm.run(|t| {
                        let a = w.map.get(t, &0)?.unwrap();
                        let b = w.map.get(t, &1)?.unwrap();
                        w.map.put(t, 0, a - amt)?;
                        w.map.put(t, 1, b + amt)?;
                        Ok(())
                    })
                    .unwrap();
                }
            }
        },
        |w, report| {
            assert_eq!(w.ro_ok.load(Ordering::SeqCst), 6);
            for point in [
                det::Point::VersionInstall,
                det::Point::VersionGc,
                det::Point::SnapshotRead,
            ] {
                assert!(report.reached(point), "the run never reached {point}");
            }
            // 3 transfers each of 1 and 2 units: the final split is
            // deterministic even though the interleaving is not.
            let (a, b) =
                w.tm.run(|t| Ok((w.map.get(t, &0)?.unwrap(), w.map.get(t, &1)?.unwrap())))
                    .unwrap();
            assert_eq!((a, b), (91, 109));
        },
    );
}

#[test]
fn counter_snapshots_are_stable_and_monotonic_on_every_seed() {
    // Two writers bump a count kept under one map key while a reader
    // snapshots it. Within one read-only transaction the two reads
    // must agree (the snapshot is immutable), and across successive
    // transactions the count can only grow.
    let _g = domain_guard();
    struct W {
        tm: TxnManager,
        map: BoostedHashMap<i64, i64>,
    }
    let count = |t: &Txn, w: &W| Ok(w.map.get(t, &0)?.unwrap_or(0));
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(60),
        3,
        || W {
            tm: TxnManager::default(),
            map: BoostedHashMap::new(),
        },
        |w, tid| {
            if tid == 2 {
                let mut last = 0;
                for _ in 0..5 {
                    let (x, y) =
                        w.tm.run_read_only(|t| Ok((count(t, w)?, count(t, w)?)))
                            .expect("a read-only txn can never abort");
                    assert_eq!(x, y, "snapshot changed under a reader");
                    assert!(x >= last, "committed total went backwards: {last} -> {x}");
                    assert!((0..=9).contains(&x));
                    last = x;
                }
            } else {
                let amt = i64::try_from(tid).unwrap() + 1;
                for _ in 0..3 {
                    w.tm.run(|t| w.map.put(t, 0, count(t, w)? + amt).map(|_| ()))
                        .unwrap();
                }
            }
        },
        |w, _report| {
            let total = w.tm.run(|t| count(t, &w)).unwrap();
            assert_eq!(total, 9);
        },
    );
}

#[test]
fn a_counter_only_commit_takes_no_timestamp() {
    // The counter keeps no versions, so a transaction that only adds
    // logs no install and never opens a commit window: the global
    // clock does not move, and nor does a locked read move it.
    let _g = domain_guard();
    let tm = TxnManager::default();
    let ctr = BoostedCounter::new();
    let clock = &MvccDomain::global().clock;
    let before = clock.stable();
    tm.run(|t| {
        ctr.add(t, 2)?;
        ctr.add(t, -5)
    })
    .unwrap();
    assert_eq!(tm.run(|t| ctr.get(t)).unwrap(), -3);
    assert_eq!(
        clock.stable(),
        before,
        "a counter-only commit took a timestamp"
    );
}

/// One writer rewrites each of `keys` keys `PUTS` times — one commit
/// per round, every key in it — while a reader pins a snapshot from
/// before the churn and reads every key before and after it. Returns
/// whether the run under `seed` saw the reader's second reads disagree
/// with its first.
fn pinned_reader_vs_chain_gc(keys: i64, seed: u64, staged: &[det::Mutation]) -> bool {
    const PUTS: i64 = 14;
    struct W {
        tm: TxnManager,
        map: BoostedHashMap<i64, i64>,
        seeded: AtomicBool,
        pinned: AtomicBool,
        churned: AtomicBool,
    }
    let torn = AtomicBool::new(false);
    txboost_sched::sweep_staged(
        [seed],
        2,
        staged,
        || W {
            tm: TxnManager::default(),
            map: BoostedHashMap::new(),
            seeded: AtomicBool::new(false),
            pinned: AtomicBool::new(false),
            churned: AtomicBool::new(false),
        },
        |w, tid| {
            let put_all = |value: i64| {
                w.tm.run(|t| (0..keys).try_for_each(|k| w.map.put(t, k, value).map(|_| ())))
                    .unwrap();
            };
            if tid == 0 {
                put_all(-1);
                w.seeded.store(true, Ordering::SeqCst);
                spin_until(&w.pinned);
                // Each commit supersedes one version per key and sweeps
                // by its floor, so GC is exercised on every one of them:
                // the pinned versions must outlive all `PUTS` sweeps,
                // and under the mutation the second one already drops
                // them.
                for i in 0..PUTS {
                    put_all(i);
                }
                w.churned.store(true, Ordering::SeqCst);
            } else {
                // Snapshot only after the seed committed, so the pin
                // lands at-or-after the seed versions' timestamp and
                // the `before` reads are provably `Some`.
                spin_until(&w.seeded);
                let outcome = w.tm.run_read_only(|t| {
                    let read_all = || {
                        (0..keys)
                            .map(|k| w.map.get(t, &k))
                            .collect::<Result<Vec<_>, _>>()
                    };
                    let before = read_all()?;
                    assert!(
                        before.iter().all(Option::is_some),
                        "snapshot postdates the seeding commit"
                    );
                    w.pinned.store(true, Ordering::SeqCst);
                    spin_until(&w.churned);
                    Ok(before == read_all()?)
                });
                if !outcome.expect("a read-only txn can never abort") {
                    torn.store(true, Ordering::SeqCst);
                }
            }
        },
        |_w, _report| {},
    );
    torn.load(Ordering::SeqCst)
}

/// More keys than a version store has shards: some shard holds two
/// keys' pinned history at once, more than its fixed buffer, so the
/// history spills to the shard's keyed store.
const SPILLING_KEYS: i64 = 65;

#[test]
fn pinned_snapshots_survive_chain_gc_on_every_seed() {
    // With the reader registry honoured, GC must never reclaim the
    // version a registered snapshot still reads: the reader's two
    // reads agree on every seed even though the key's versions were
    // swept around its pin.
    let _g = domain_guard();
    for seed in txboost_sched::seeds_from_env(60) {
        let torn = pinned_reader_vs_chain_gc(1, seed, &[]);
        assert!(
            !torn,
            "seed {seed}: GC reclaimed a version a live reader was pinning"
        );
    }
}

#[test]
fn pinned_snapshots_survive_spilled_history_gc_on_every_seed() {
    let _g = domain_guard();
    for seed in txboost_sched::seeds_from_env(60) {
        let torn = pinned_reader_vs_chain_gc(SPILLING_KEYS, seed, &[]);
        assert!(
            !torn,
            "seed {seed}: GC reclaimed spilled history a live reader was pinning"
        );
    }
}

#[test]
fn skipping_the_reader_registry_floor_is_caught_by_the_sweep() {
    // Mutation check: stage away the reader-registry contribution to
    // the GC floor and the *same* workload must tear — GC sweeps up to
    // the stable frontier, dropping the pinned version, and the
    // reader's second read comes back different (absent). If this
    // stopped firing, the honest tests above would be vacuous.
    let _g = domain_guard();
    let staged = [det::Mutation::IgnoreReaderFloor];
    for keys in [1, SPILLING_KEYS] {
        let mut seeds = txboost_sched::seeds_from_env(60);
        let torn = seeds.any(|seed| pinned_reader_vs_chain_gc(keys, seed, &staged));
        assert!(
            torn,
            "sweep over {keys} keys failed to notice GC ignoring registered \
             readers — the pinned-snapshot test has no teeth"
        );
    }
}

/// Two writers whose transactions do not conflict — each counts its
/// commits under both keys of a map of its own, so they share no lock
/// word — and a reader snapshotting all four keys.
///
/// The first round is staged: the older writer parks *inside* its
/// install window (one key installed, one not) until the reader lets
/// it go, and the younger writer commits meanwhile, so it has to wait
/// at the window word. The reader snapshots while it waits — a blocked
/// wait is the only thing that moves virtual time while the older
/// writer is parked — and checks that it has not returned. After that
/// everyone runs free.
///
/// Every commit on the global domain during a run adds exactly 1 to
/// both keys of one map, so a snapshot at timestamp `S` holds every
/// commit up to `S`, whole, iff each map's keys agree and the maps sum
/// to `S` minus the clock's reading when the run began.
#[test]
fn commits_publish_in_timestamp_order_on_every_seed() {
    const COMMITS: i64 = 3;
    const SNAPSHOTS: usize = 8;
    #[derive(Default)]
    struct Stage {
        older_parked: AtomicBool,
        older_released: AtomicBool,
        younger_returned: AtomicBool,
    }
    struct W {
        tm: TxnManager,
        pairs: [BoostedHashMap<i64, i64>; 2],
        /// The stable timestamp before the run's first commit.
        base: u64,
        stage: Arc<Stage>,
        /// Snapshots that were torn or had a hole (half of a commit, or
        /// timestamp `t + 1` without `t`), plus one if the younger
        /// commit returned while the older one was still installing.
        broken: AtomicU64,
    }
    let _g = domain_guard();
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(60),
        3,
        || W {
            tm: TxnManager::default(),
            pairs: std::array::from_fn(|_| armed(BoostedHashMap::new())),
            base: MvccDomain::global().clock.stable(),
            stage: Arc::default(),
            broken: AtomicU64::new(0),
        },
        |w, tid| {
            let stage = &w.stage;
            if let Some(pair) = w.pairs.get(tid) {
                for done in 1..=COMMITS {
                    let staged = done == 1;
                    if staged && tid == 1 {
                        // A later timestamp: the older window is open.
                        spin_until(&stage.older_parked);
                    }
                    w.tm.run(|t| {
                        pair.put(t, 0, done)?;
                        // Version installs run in the order logged: the
                        // older writer parks between its two.
                        if staged && tid == 0 {
                            t.log_effect(
                                Arc::clone(stage),
                                |_| {},
                                |st, _| {
                                    st.older_parked.store(true, Ordering::SeqCst);
                                    spin_until(&st.older_released);
                                },
                            );
                        }
                        pair.put(t, 1, done)?;
                        Ok(())
                    })
                    .unwrap();
                    if staged && tid == 1 {
                        stage.younger_returned.store(true, Ordering::SeqCst);
                    }
                    // The commit has returned, so `stable` covers it:
                    // a snapshot begun now contains it.
                    let seen = w.tm.run_read_only(|t| pair.get(t, &0));
                    let seen = seen.expect("a read-only txn can never abort");
                    assert_eq!(
                        seen,
                        Some(done),
                        "a returned commit is missing from a snapshot"
                    );
                }
            } else {
                let snapshots = || {
                    for _ in 0..SNAPSHOTS {
                        let got = w.tm.run_read_only(|t| {
                            let mut sums = [0; 2];
                            let mut whole = true;
                            for (pair, sum) in w.pairs.iter().zip(&mut sums) {
                                *sum = pair.get(t, &0)?.unwrap_or(0);
                                whole &= *sum == pair.get(t, &1)?.unwrap_or(0);
                            }
                            let commits = t.snapshot_ts().expect("read-only") - w.base;
                            Ok(whole && u64::try_from(sums[0] + sums[1]) == Ok(commits))
                        });
                        if !got.expect("a read-only txn can never abort") {
                            w.broken.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                };
                // The younger commit is waiting at the window word.
                while det::virtual_now() == 0 {
                    det::yield_point(det::Point::User);
                }
                snapshots();
                // The older commit is still parked in its window, so the
                // younger one cannot have entered its own, let alone
                // returned.
                if stage.younger_returned.load(Ordering::SeqCst) {
                    w.broken.fetch_add(1, Ordering::SeqCst);
                }
                stage.older_released.store(true, Ordering::SeqCst);
                snapshots();
            }
        },
        |w, report| {
            assert_eq!(
                w.broken.load(Ordering::SeqCst),
                0,
                "t + 1 became visible, or returned, ahead of t"
            );
            // The writers' maps share no lock word and the reader takes
            // no lock: a blocked tick is a commit waiting at the window.
            let blocked = |s: &txboost_sched::Step| s.point == det::Point::LockBlocked;
            assert!(
                report.schedule.iter().any(blocked),
                "the younger commit did not wait at the window word"
            );
        },
    );
}

/// Real-time order through the locks. An older writer sits inside its
/// install window for `HOLD` yields; a younger one, with no conflict
/// with it, puts key 0 of `map` and waits at the window word; a third
/// thread reads key 0 under its abstract lock — a transaction with no
/// installs, so it never enters the window — and then snapshots it,
/// `ROUNDS` times. A writer keeps its locks until it has left its
/// window, so the locked read sees its value only once every snapshot
/// does too: no snapshot may be older than the locked read before it.
fn locked_reads_then_snapshots(seed: u64, staged: &[det::Mutation]) -> Result<(), String> {
    const ROUNDS: usize = 6;
    const HOLD: usize = 40;
    let tm = TxnManager::default();
    let map = armed(BoostedHashMap::new());
    let other = armed(BoostedHashMap::new());
    tm.run(|t| map.put(t, 0, 0).map(|_| ())).unwrap();
    let older_parked = Arc::new(AtomicBool::new(false));
    let went_back: Mutex<Option<String>> = Mutex::default();
    let report = txboost_sched::run_staged(seed, 3, staged, |tid| match tid {
        0 => {
            tm.run(|t| {
                other.put(t, 0, 1)?;
                t.log_effect(
                    Arc::clone(&older_parked),
                    |_| {},
                    |parked, _| {
                        parked.store(true, Ordering::SeqCst);
                        for _ in 0..HOLD {
                            det::yield_point(det::Point::User);
                        }
                    },
                );
                Ok(())
            })
            .unwrap();
        }
        1 => {
            spin_until(&older_parked);
            tm.run(|t| map.put(t, 0, 1).map(|_| ())).unwrap();
        }
        _ => {
            spin_until(&older_parked);
            for _ in 0..ROUNDS {
                let locked = tm.run(|t| map.get(t, &0)).unwrap();
                let snapshot = tm.run_read_only(|t| map.get(t, &0));
                let snapshot = snapshot.expect("a read-only txn can never abort");
                if snapshot < locked {
                    let mut first = went_back.lock().unwrap();
                    first.get_or_insert(format!(
                        "reads went back in time: {locked:?} under the lock, \
                         then {snapshot:?} from a snapshot"
                    ));
                }
            }
        }
    });
    if report.failed() {
        return Err(report.render_failure());
    }
    let fail = |what: String| Err(format!("{what}\n{}", report.render_schedule()));
    if let Some(what) = went_back.lock().unwrap().take() {
        return fail(what);
    }
    let last = tm.run_read_only(|t| map.get(t, &0)).unwrap();
    if last != Some(1) {
        return fail(format!("the key holds {last:?} after the run"));
    }
    Ok(())
}

#[test]
fn a_snapshot_after_a_locked_read_is_at_least_as_new_on_every_seed() {
    let _g = domain_guard();
    for seed in txboost_sched::seeds_from_env(60) {
        if let Err(failure) = locked_reads_then_snapshots(seed, &[]) {
            panic!("seed {seed}: {failure}");
        }
    }
}

#[test]
fn releasing_locks_before_the_installs_is_caught_by_the_sweep() {
    // Mutation check: a committer that lets its locks go as soon as it
    // has entered its window lets the locked reader see its value while
    // the commit is not yet stable, so the snapshot that follows is
    // older than that read. If no seed showed that, the honest sweep
    // above would be vacuous.
    let _g = domain_guard();
    let staged = [det::Mutation::LocksReleasedBeforeInstall];
    let caught = txboost_sched::seeds_from_env(60)
        .any(|seed| locked_reads_then_snapshots(seed, &staged).is_err());
    assert!(
        caught,
        "sweep failed to notice locks released before the installs — \
         the locked-read test has no teeth"
    );
}

/// Two writers rewrite one map key — three commits each, every one
/// recording its timestamp and value from an install arm logged ahead
/// of its put — while a reader pins snapshots of the key and reads it
/// twice in each. Checks the run against the commit-order oracle:
/// the key's installs arrive in non-decreasing timestamp order, every
/// snapshot read is the value of the newest commit at-or-below its
/// snapshot, and a locked read afterwards is the newest commit's.
fn one_key_rewrites(seed: u64) -> Result<(), String> {
    const COMMITS: i64 = 3;
    const SNAPSHOTS: usize = 4;
    type Installs = Arc<Mutex<Vec<(u64, i64)>>>;
    /// A snapshot's timestamp and its two reads of the key.
    type Seen = (u64, Option<i64>, Option<i64>);
    /// Log, ahead of the put it announces, an install arm that records
    /// the commit's timestamp and `value`.
    fn record(t: &Txn, installs: &Installs, value: i64) {
        t.log_effect(
            Arc::clone(installs),
            |_| {},
            move |installs, stamp| installs.lock().unwrap().push((stamp.ts, value)),
        );
    }
    let tm = TxnManager::default();
    let map = armed(BoostedHashMap::new());
    let installs = Installs::default();
    tm.run(|t| {
        record(t, &installs, -1);
        map.put(t, 0, -1).map(|_| ())
    })
    .unwrap();
    let seen: Mutex<Vec<Seen>> = Mutex::default();
    let report = txboost_sched::run_with_seed(seed, 3, |tid| {
        if tid == 2 {
            for _ in 0..SNAPSHOTS {
                let read = tm.run_read_only(|t| {
                    let first = map.get(t, &0)?;
                    det::yield_point(det::Point::User);
                    let again = map.get(t, &0)?;
                    Ok((t.snapshot_ts().expect("read-only"), first, again))
                });
                seen.lock()
                    .unwrap()
                    .push(read.expect("a read-only txn can never abort"));
            }
        } else {
            for i in 0..COMMITS {
                let value = i64::try_from(tid).unwrap() * 100 + i;
                tm.run(|t| {
                    record(t, &installs, value);
                    map.put(t, 0, value).map(|_| ())
                })
                .unwrap();
            }
        }
    });
    if report.failed() {
        return Err(report.render_failure());
    }
    let installs = installs.lock().unwrap().clone();
    let fail = |what: String| Err(format!("{what}\n{}", report.render_schedule()));
    let back = installs.windows(2).find(|w| w[1].0 < w[0].0);
    if let Some([before, after]) = back {
        return fail(format!(
            "installs went back in time: {before:?} then {after:?}"
        ));
    }
    let at = |ts: u64| {
        installs
            .iter()
            .rev()
            .find(|(t, _)| *t <= ts)
            .map(|&(_, v)| v)
    };
    for &(ts, first, again) in seen.lock().unwrap().iter() {
        if (first, again) != (at(ts), at(ts)) {
            return fail(format!(
                "snapshot at {ts} read {first:?} then {again:?}, the oracle says {:?}",
                at(ts)
            ));
        }
    }
    let last = tm.run(|t| map.get(t, &0)).unwrap();
    if last != installs.last().map(|&(_, v)| v) {
        return fail(format!("the key holds {last:?} after {installs:?}"));
    }
    Ok(())
}

#[test]
fn one_key_rewrites_match_the_commit_order_oracle_on_every_seed() {
    // Installs run only inside the install window, one commit at a
    // time, each stamped above the one before: on every seed the
    // installs arrive in timestamp order and every snapshot reads what
    // the commit order says it should.
    let _g = domain_guard();
    for seed in txboost_sched::seeds_from_env(60) {
        if let Err(failure) = one_key_rewrites(seed) {
            panic!("seed {seed}: {failure}");
        }
    }
}

/// A map's first snapshot read arms it while two writers rewrite its
/// keys 0 and 1. Writer 0's transactions also write key 0 of a map
/// armed in setup; every other round of each writer aborts after its
/// puts. Each writer takes its keys' locks in address order first, as
/// a server script does, so the arming cannot deadlock with it. The
/// reader waits until a writer is inside its first transaction, then
/// snapshots both maps; its first read waits out the writers with no
/// deadline, as a server's does (the lock word does not hand off, so
/// two writers taking turns can outlast any finite one).
///
/// Checks the run against the commit-order oracle: the writers' locks
/// serialize every commit, and each committing transaction records its
/// value in `history` before it commits. A snapshot must show, for
/// some prefix of that history at least as long as the number of
/// commits returned before it began and no shorter than the previous
/// snapshot's, the last value the prefix wrote to each key — so never
/// an aborted value, an uncommitted one, or half a commit.
fn arming_races_writers(seed: u64, staged: &[det::Mutation]) -> Result<(), String> {
    const ROUNDS: i64 = 4;
    const SNAPSHOTS: usize = 3;
    /// `(committed-before, dormant key 0, dormant key 1, armed key 0)`.
    type Seen = (usize, Option<i64>, Option<i64>, Option<i64>);
    let tm = TxnManager::default();
    let reader = TxnManager::new(TxnConfig {
        lock_timeout: std::time::Duration::MAX,
        ..TxnConfig::default()
    });
    let dormant = BoostedHashMap::new();
    let armed = armed(BoostedHashMap::new());
    tm.run(|t| {
        dormant.put(t, 0, 0)?;
        dormant.put(t, 1, 0)?;
        armed.put(t, 0, 0).map(|_| ())
    })
    .unwrap();
    // Each commit's value and whether it wrote `armed` too.
    let history: Mutex<Vec<(i64, bool)>> = Mutex::default();
    let returned = AtomicU64::new(0);
    let started = AtomicBool::new(false);
    let seen: Mutex<Vec<Seen>> = Mutex::default();
    let report = txboost_sched::run_staged(seed, 3, staged, |tid| {
        if tid == 2 {
            spin_until(&started);
            for _ in 0..SNAPSHOTS {
                let before = returned.load(Ordering::SeqCst) as usize;
                let read = reader.run_read_only(|t| {
                    let d0 = dormant.get(t, &0)?;
                    let d1 = dormant.get(t, &1)?;
                    Ok((before, d0, d1, armed.get(t, &0)?))
                });
                seen.lock()
                    .unwrap()
                    .push(read.expect("a read-only txn can never abort"));
            }
            return;
        }
        let both = tid == 0;
        for round in 0..ROUNDS {
            let value = i64::try_from(tid).unwrap() * 100 + round + 1;
            let commits = round % 2 == 0;
            let outcome = tm.run(|t| {
                let mut footprint = vec![dormant.conflict(MapCall::Put(&0)).0];
                footprint.push(dormant.conflict(MapCall::Put(&1)).0);
                if both {
                    footprint.push(armed.conflict(MapCall::Put(&0)).0);
                }
                footprint.sort_by_key(|lock| std::ptr::from_ref(*lock));
                for lock in footprint {
                    lock.acquire(t, Mode::Exclusive)?;
                }
                dormant.put(t, 0, value)?;
                started.store(true, Ordering::SeqCst);
                dormant.put(t, 1, value)?;
                if both {
                    armed.put(t, 0, value)?;
                }
                if !commits {
                    return Err(Abort::explicit());
                }
                history.lock().unwrap().push((value, both));
                Ok(())
            });
            if commits {
                outcome.unwrap();
                returned.fetch_add(1, Ordering::SeqCst);
            }
        }
    });
    if report.failed() {
        return Err(report.render_failure());
    }
    let fail = |what: String| Err(format!("{what}\n{}", report.render_schedule()));
    if !report.reached(det::Point::Arm) {
        return fail("the first snapshot read never armed the map".into());
    }
    let history = history.lock().unwrap().clone();
    // The three keys after the first `j` commits.
    let state = |j: usize| {
        let dormant = j.checked_sub(1).map_or(0, |last| history[last].0);
        let armed = history[..j].iter().rev().find(|(_, both)| *both);
        (
            Some(dormant),
            Some(dormant),
            Some(armed.map_or(0, |&(v, _)| v)),
        )
    };
    let mut floor = 0;
    for &(before, d0, d1, a0) in seen.lock().unwrap().iter() {
        let prefix =
            (0..=history.len()).find(|&j| j >= floor.max(before) && state(j) == (d0, d1, a0));
        let Some(j) = prefix else {
            return fail(format!(
                "a snapshot read ({d0:?}, {d1:?}, {a0:?}) after {before} returned commits \
                 and a snapshot of {floor}; commits in order: {history:?}"
            ));
        };
        floor = j;
    }
    let last = tm
        .run(|t| Ok((dormant.get(t, &0)?, dormant.get(t, &1)?, armed.get(t, &0)?)))
        .unwrap();
    if last != state(history.len()) {
        return fail(format!("the maps hold {last:?} after {history:?}"));
    }
    Ok(())
}

#[test]
fn arming_a_map_under_its_writers_matches_the_commit_order_oracle_on_every_seed() {
    // Arming takes every slot of the map's lock table before it copies
    // the bindings, so it waits out each writer that skipped its
    // install: on every seed the snapshots match the commit order.
    let _g = domain_guard();
    for seed in txboost_sched::seeds_from_env(60) {
        if let Err(failure) = arming_races_writers(seed, &[]) {
            panic!("seed {seed}: {failure}");
        }
    }
}

#[test]
fn arming_without_draining_the_writers_is_caught_by_the_sweep() {
    // Mutation check: an arming that copies the bindings without first
    // taking the slots copies a write that is still uncommitted, or
    // misses one a writer commits without an install. If no seed showed
    // that, the honest sweep above would be vacuous.
    let _g = domain_guard();
    let staged = [det::Mutation::ArmWithoutDraining];
    let caught =
        txboost_sched::seeds_from_env(60).any(|seed| arming_races_writers(seed, &staged).is_err());
    assert!(
        caught,
        "sweep failed to notice an arming that did not wait out the writers — \
         the arming oracle test has no teeth"
    );
}
