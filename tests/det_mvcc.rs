//! Deterministic-harness coverage for the multi-version read path:
//! read-only snapshot transactions racing committing writers.
//!
//! Three behaviours are swept across seeds, plus one *mutation check*:
//! with the reader-registry GC floor deliberately disabled (via a
//! test-only hook on `MvccDomain`), install-time GC must prune a version
//! a registered snapshot reader is still pinning, and the sweep must
//! observe the resulting torn read — evidence these tests have teeth.
//!
//! Every boosted collection shares the process-global `MvccDomain`, so
//! the tests in this binary serialize on a file-level mutex: the
//! mutation check flips a global flag the honest tests must never see.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Mutex;
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
/// `MvccDomain`, and the mutation check temporarily breaks its GC
/// floor. `unwrap_or_else` keeps a panicking test from cascading
/// poison into the others.
static DOMAIN_LOCK: Mutex<()> = Mutex::new(());

fn domain_guard() -> std::sync::MutexGuard<'static, ()> {
    DOMAIN_LOCK
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

/// Restores the reader-registry floor even if the sweep panics, so a
/// failing mutation check cannot corrupt the honest tests.
struct FloorRestore;

impl Drop for FloorRestore {
    fn drop(&mut self) {
        MvccDomain::global().ignore_reader_floor_for_test(false);
    }
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
        |w, _report| {
            assert_eq!(w.ro_ok.load(Ordering::SeqCst), 6);
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
fn pinned_reader_vs_chain_gc(seeds: std::ops::Range<u64>) -> u64 {
    const PUTS: i64 = 14;
    struct W {
        tm: TxnManager,
        map: BoostedHashMap<i64, i64>,
        seeded: AtomicBool,
        pinned: AtomicBool,
        churned: AtomicBool,
    }
    let torn = AtomicU64::new(0);
    txboost_sched::sweep_setup(
        seeds,
        2,
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
    let torn = pinned_reader_vs_chain_gc(txboost_sched::seeds_from_env(60));
    assert_eq!(torn, 0, "GC reclaimed a version a live reader was pinning");
}

#[test]
fn skipping_the_reader_registry_floor_is_caught_by_the_sweep() {
    // Mutation check: disable the reader-registry contribution to the
    // GC floor and the *same* workload must tear — GC prunes up to the
    // stable frontier, dropping the pinned version, and the reader's
    // second read comes back different (absent). If this stopped
    // firing, the honest test above would be vacuous.
    let _g = domain_guard();
    let _restore = FloorRestore;
    MvccDomain::global().ignore_reader_floor_for_test(true);
    let torn = pinned_reader_vs_chain_gc(txboost_sched::seeds_from_env(60));
    assert!(
        torn > 0,
        "sweep failed to notice GC ignoring registered readers — the \
         pinned-snapshot test has no teeth"
    );
}
