//! Deterministic-harness coverage for the multi-version read path:
//! read-only snapshot transactions racing committing writers.
//!
//! Five behaviours are swept across seeds, plus two *mutation checks*,
//! evidence these tests have teeth. With the reader-registry GC floor
//! staged away (`Mutation::IgnoreReaderFloor`), install-time GC must
//! prune a version a registered snapshot reader is still pinning, and
//! the sweep must observe the resulting torn read. With in-order
//! publish staged away (`Mutation::PublishOutOfOrder`), a commit must
//! become visible ahead of an older one still installing, and the
//! sweep must observe a snapshot with a hole in it. A mutation lives
//! only inside the runs that stage it.
//!
//! Every seed of the transfer sweep reaches the version store's three
//! yield points (install, GC, snapshot read), so a hook removed from
//! the read path fails it.
//!
//! Every boosted collection shares the process-global `MvccDomain`, so
//! the tests in this binary serialize on a file-level mutex: a setup
//! that reads the global clock must not see another test's commits.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use transactional_boosting::prelude::*;
use txboost_core::MvccDomain;
use txboost_sched::core_det as det;

/// Spin at a named yield point until `flag` is set (the deterministic
/// analogue of a barrier; see `det_deadlock.rs`).
fn spin_until(flag: &AtomicBool) {
    while !flag.load(Ordering::SeqCst) {
        det::yield_point(det::Point::User);
    }
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
            map: BoostedHashMap::new(),
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
    // Two writers bump a counter through shared-mode adds while a
    // reader snapshots it. Within one read-only transaction the two
    // reads must agree (the snapshot is immutable), and across
    // successive transactions the value can only grow.
    let _g = domain_guard();
    struct W {
        tm: TxnManager,
        ctr: BoostedCounter,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(60),
        3,
        || W {
            tm: TxnManager::default(),
            ctr: BoostedCounter::new(),
        },
        |w, tid| {
            if tid == 2 {
                let mut last = 0;
                for _ in 0..5 {
                    let (x, y) =
                        w.tm.run_read_only(|t| Ok((w.ctr.get(t)?, w.ctr.get(t)?)))
                            .expect("a read-only txn can never abort");
                    assert_eq!(x, y, "snapshot changed under a reader");
                    assert!(x >= last, "committed total went backwards: {last} -> {x}");
                    assert!((0..=9).contains(&x));
                    last = x;
                }
            } else {
                let amt = i64::try_from(tid).unwrap() + 1;
                for _ in 0..3 {
                    w.tm.run(|t| w.ctr.add(t, amt)).unwrap();
                }
            }
        },
        |w, _report| {
            let total = w.tm.run(|t| w.ctr.get(t)).unwrap();
            assert_eq!(total, 9);
        },
    );
}

/// One writer commits `PUTS` versions of a single key while a reader
/// pins a snapshot from before the churn. Returns how many runs saw
/// the reader's second read disagree with its first.
fn pinned_reader_vs_chain_gc(seeds: std::ops::Range<u64>, staged: &[det::Mutation]) -> u64 {
    const PUTS: i64 = 14;
    struct W {
        tm: TxnManager,
        map: BoostedHashMap<i64, i64>,
        seeded: AtomicBool,
        pinned: AtomicBool,
        churned: AtomicBool,
    }
    let torn = AtomicU64::new(0);
    txboost_sched::sweep_staged(
        seeds,
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
            if tid == 0 {
                w.tm.run(|t| w.map.put(t, 0, -1).map(|_| ())).unwrap();
                w.seeded.store(true, Ordering::SeqCst);
                spin_until(&w.pinned);
                // Each commit installs one version and prunes by its
                // floor, so GC is exercised on every one of them: the
                // pinned version must outlive all `PUTS` prunes, and
                // under the mutation the second one already drops it.
                for i in 0..PUTS {
                    w.tm.run(|t| w.map.put(t, 0, i).map(|_| ())).unwrap();
                }
                w.churned.store(true, Ordering::SeqCst);
            } else {
                // Snapshot only after the seed committed, so the pin
                // lands at-or-after the seed version's timestamp and
                // the `before` read is provably `Some`.
                spin_until(&w.seeded);
                let outcome = w.tm.run_read_only(|t| {
                    let before = w.map.get(t, &0)?;
                    assert!(before.is_some(), "snapshot postdates the seeding commit");
                    w.pinned.store(true, Ordering::SeqCst);
                    spin_until(&w.churned);
                    let after = w.map.get(t, &0)?;
                    Ok(before == after)
                });
                if !outcome.expect("a read-only txn can never abort") {
                    torn.fetch_add(1, Ordering::SeqCst);
                }
            }
        },
        |_w, _report| {},
    );
    torn.load(Ordering::SeqCst)
}

#[test]
fn pinned_snapshots_survive_chain_gc_on_every_seed() {
    // With the reader registry honoured, GC must never reclaim the
    // version a registered snapshot still reads: the reader's two
    // reads agree on every seed even though the slot was pruned
    // around its pin.
    let _g = domain_guard();
    let torn = pinned_reader_vs_chain_gc(txboost_sched::seeds_from_env(60), &[]);
    assert_eq!(torn, 0, "GC reclaimed a version a live reader was pinning");
}

#[test]
fn skipping_the_reader_registry_floor_is_caught_by_the_sweep() {
    // Mutation check: stage away the reader-registry contribution to
    // the GC floor and the *same* workload must tear — GC prunes up to
    // the stable frontier, dropping the pinned version, and the
    // reader's second read comes back different (absent). If this
    // stopped firing, the honest test above would be vacuous.
    let _g = domain_guard();
    let seeds = txboost_sched::seeds_from_env(60);
    let torn = pinned_reader_vs_chain_gc(seeds, &[det::Mutation::IgnoreReaderFloor]);
    assert!(
        torn > 0,
        "sweep failed to notice GC ignoring registered readers — the \
         pinned-snapshot test has no teeth"
    );
}

/// What `overlapping_install_windows` saw over a sweep.
struct Overlaps {
    /// Snapshots that were torn or had a hole (half of a commit, or
    /// timestamp `t + 1` without `t`), plus runs in which the younger
    /// commit returned while the older one was still installing.
    broken: u64,
    /// Runs in which a publisher had to wait for its predecessor.
    waited: u64,
}

/// Two writers whose transactions do not conflict — each bumps its own
/// pair of counters in shared mode, so both can be inside their install
/// windows at once — and a reader snapshotting all four counters.
///
/// The first round is staged: the older writer parks *inside* its
/// install window (one counter installed, one not) until the reader
/// lets it go, the younger writer commits meanwhile, and the reader
/// snapshots across the moment the younger one has finished its
/// installs. After that everyone runs free.
///
/// Every commit on the global domain during a run adds exactly 1 to
/// both counters of one pair, so a snapshot at timestamp `S` holds
/// every commit up to `S`, whole, iff each pair agrees and the pairs
/// sum to `S` minus the clock's reading when the run began.
fn overlapping_install_windows(seeds: std::ops::Range<u64>, staged: &[det::Mutation]) -> Overlaps {
    const COMMITS: i64 = 3;
    const SNAPSHOTS: usize = 8;
    #[derive(Default)]
    struct Stage {
        older_parked: AtomicBool,
        older_released: AtomicBool,
        younger_installed: AtomicBool,
        younger_returned: AtomicBool,
    }
    struct W {
        tm: TxnManager,
        pairs: [[BoostedCounter; 2]; 2],
        /// The stable timestamp before the run's first commit.
        base: u64,
        stage: Arc<Stage>,
    }
    let (broken, waited) = (AtomicU64::new(0), AtomicU64::new(0));
    txboost_sched::sweep_staged(
        seeds,
        3,
        staged,
        || W {
            tm: TxnManager::default(),
            pairs: std::array::from_fn(|_| std::array::from_fn(|_| BoostedCounter::new())),
            base: MvccDomain::global().clock.stable(),
            stage: Arc::default(),
        },
        |w, tid| {
            let stage = &w.stage;
            if let Some([a, b]) = w.pairs.get(tid) {
                for done in 1..=COMMITS {
                    let staged = done == 1;
                    if staged && tid == 1 {
                        // A later timestamp: the older window is open.
                        spin_until(&stage.older_parked);
                    }
                    w.tm.run(|t| {
                        a.add(t, 1)?;
                        // Version installs run in the order logged: the
                        // older writer parks between its two, the
                        // younger one signals after both of its own.
                        if staged && tid == 0 {
                            let st = Arc::clone(stage);
                            t.log_version_install(move |_| {
                                st.older_parked.store(true, Ordering::SeqCst);
                                spin_until(&st.older_released);
                            });
                        }
                        b.add(t, 1)?;
                        if staged && tid == 1 {
                            let st = Arc::clone(stage);
                            t.log_version_install(move |_| {
                                st.younger_installed.store(true, Ordering::SeqCst);
                            });
                        }
                        Ok(())
                    })
                    .unwrap();
                    if staged && tid == 1 {
                        stage.younger_returned.store(true, Ordering::SeqCst);
                    }
                    // The commit has returned, so `stable` covers it:
                    // a snapshot begun now contains it.
                    let seen = w.tm.run_read_only(|t| a.get(t));
                    let seen = seen.expect("a read-only txn can never abort");
                    assert_eq!(seen, done, "a returned commit is missing from a snapshot");
                }
            } else {
                let snapshots = || {
                    for _ in 0..SNAPSHOTS {
                        let got = w.tm.run_read_only(|t| {
                            let mut sums = [0; 2];
                            let mut whole = true;
                            for ([a, b], sum) in w.pairs.iter().zip(&mut sums) {
                                *sum = a.get(t)?;
                                whole &= *sum == b.get(t)?;
                            }
                            let commits = t.snapshot_ts().expect("read-only") - w.base;
                            Ok(whole && u64::try_from(sums[0] + sums[1]) == Ok(commits))
                        });
                        if !got.expect("a read-only txn can never abort") {
                            broken.fetch_add(1, Ordering::SeqCst);
                        }
                    }
                };
                spin_until(&stage.younger_installed);
                snapshots();
                // The older commit is still parked in its window, so the
                // younger one cannot be stable, so it cannot have returned.
                if stage.younger_returned.load(Ordering::SeqCst) {
                    broken.fetch_add(1, Ordering::SeqCst);
                }
                stage.older_released.store(true, Ordering::SeqCst);
                snapshots();
            }
        },
        |_w, report| {
            // Shared-mode adds never block each other and the reader
            // takes no lock: a blocked tick here is a publisher waiting.
            let blocked = |s: &txboost_sched::Step| s.point == det::Point::LockBlocked;
            if report.schedule.iter().any(blocked) {
                waited.fetch_add(1, Ordering::SeqCst);
            }
        },
    );
    Overlaps {
        broken: broken.load(Ordering::SeqCst),
        waited: waited.load(Ordering::SeqCst),
    }
}

#[test]
fn commits_publish_in_timestamp_order_on_every_seed() {
    // A writer descheduled inside its install window holds back the
    // later-timestamp writer's `commit`, not the snapshots: on every
    // seed the younger commit waits, no snapshot has a hole or half a
    // commit, a returned commit is in the next snapshot, and read-only
    // transactions still never abort.
    let _g = domain_guard();
    let seeds = txboost_sched::seeds_from_env(60);
    let runs = seeds.end - seeds.start;
    let seen = overlapping_install_windows(seeds, &[]);
    assert_eq!(
        seen.broken, 0,
        "t + 1 became visible, or returned, ahead of t"
    );
    assert_eq!(seen.waited, runs, "the younger commit did not have to wait");
}

#[test]
fn a_snapshot_after_a_locked_read_is_at_least_as_new_on_every_seed() {
    // Real-time order through the locks: an older writer sits inside
    // its install window, a younger one (no conflict with it) finishes
    // installing key 0 and must wait to become stable, and a third
    // thread reads key 0 under its abstract lock — a transaction with no
    // installs, so it waits for nobody's timestamp — and then snapshots
    // it. The younger writer keeps its lock until it is stable, so the
    // locked read sees its value only once every snapshot does too: no
    // snapshot may be older than the locked read before it.
    const ROUNDS: usize = 6;
    const HOLD: usize = 40;
    #[derive(Default)]
    struct Stage {
        older_parked: AtomicBool,
        younger_installed: AtomicBool,
    }
    struct W {
        tm: TxnManager,
        map: BoostedHashMap<i64, i64>,
        other: BoostedCounter,
        stage: Arc<Stage>,
    }
    let _g = domain_guard();
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(60),
        3,
        || {
            let w = W {
                tm: TxnManager::default(),
                map: BoostedHashMap::new(),
                other: BoostedCounter::new(),
                stage: Arc::default(),
            };
            w.tm.run(|t| w.map.put(t, 0, 0).map(|_| ())).unwrap();
            w
        },
        |w, tid| match tid {
            0 => {
                w.tm.run(|t| {
                    w.other.add(t, 1)?;
                    // Stay mid-install until the younger writer has
                    // finished its own installs, and a while longer.
                    let st = Arc::clone(&w.stage);
                    t.log_version_install(move |_| {
                        st.older_parked.store(true, Ordering::SeqCst);
                        spin_until(&st.younger_installed);
                        for _ in 0..HOLD {
                            det::yield_point(det::Point::User);
                        }
                    });
                    Ok(())
                })
                .unwrap();
            }
            1 => {
                spin_until(&w.stage.older_parked);
                w.tm.run(|t| {
                    w.map.put(t, 0, 1)?;
                    let st = Arc::clone(&w.stage);
                    t.log_version_install(move |_| {
                        st.younger_installed.store(true, Ordering::SeqCst);
                    });
                    Ok(())
                })
                .unwrap();
            }
            _ => {
                spin_until(&w.stage.older_parked);
                for _ in 0..ROUNDS {
                    let locked = w.tm.run(|t| w.map.get(t, &0)).unwrap();
                    let snapshot = w.tm.run_read_only(|t| w.map.get(t, &0));
                    let snapshot = snapshot.expect("a read-only txn can never abort");
                    assert!(
                        snapshot >= locked,
                        "reads went back in time: {locked:?} under the lock, \
                         then {snapshot:?} from a snapshot"
                    );
                }
            }
        },
        |w, _report| {
            let last = w.tm.run_read_only(|t| w.map.get(t, &0)).unwrap();
            assert_eq!(last, Some(1));
        },
    );
}

#[test]
fn publishing_out_of_order_is_caught_by_the_sweep() {
    // Mutation check: let `publish` go ahead of an older commit still
    // installing and the *same* workload must show a snapshot with half
    // of the older commit in it (or the younger one returning early).
    // If this stopped firing, the honest test above would be vacuous.
    let _g = domain_guard();
    let seeds = txboost_sched::seeds_from_env(60);
    let seen = overlapping_install_windows(seeds, &[det::Mutation::PublishOutOfOrder]);
    assert!(
        seen.broken > 0,
        "sweep failed to notice commits publishing out of timestamp order — \
         the in-order test has no teeth"
    );
}
