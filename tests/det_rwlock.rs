//! Deterministic-harness coverage for the abstract lock's two modes,
//! `AbstractLock::acquire` with `Mode::Shared` and `Mode::Exclusive`. Under the harness the lock runs the
//! loop it ships with — spin, set `WAITERS`, wait through the
//! `Deadline` seam, re-check, last-chance claim — on virtual time, so
//! every blocked round below is a scheduling decision and every
//! timeout replays.
//!
//! Three behaviours are swept across seeds: the mode compatibility
//! matrix (checked from inside the critical section), the
//! two-upgrader deadlock and its resolution by one timeout, and the
//! hand-off from the last departing reader to a blocked writer.
//!
//! Mutation-checked by hand the way `det_hotpath.rs`'s slot-sharing
//! sweep was: with `try_claim` letting a `Shared` request join an
//! exclusively held word, the "reader saw a writer" assertion fires on
//! the first seed; with `release` dropping the whole `SHARED` word on
//! any reader's departure, "writer saw readers" does.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::Duration;
use transactional_boosting::prelude::*;
use txboost_core::locks::{Mode, ObjectLock};
use txboost_sched::core_det as det;

/// Yield (without advancing virtual time) until `cond` holds — the
/// deterministic analogue of a barrier; see `det_deadlock.rs`.
fn spin_until(cond: impl Fn() -> bool) {
    while !cond() {
        det::yield_point(det::Point::User);
    }
}

/// The in-critical-section witnesses of who is inside, in which mode.
#[derive(Default)]
struct Inside {
    readers: AtomicU64,
    writer: AtomicBool,
}

impl Inside {
    /// A shared holder's stay: no writer may be inside with it.
    fn as_reader(&self, stay: impl FnOnce()) {
        assert!(!self.writer.load(Ordering::SeqCst), "reader saw a writer");
        self.readers.fetch_add(1, Ordering::SeqCst);
        stay();
        assert!(
            !self.writer.load(Ordering::SeqCst),
            "writer joined a reader"
        );
        self.readers.fetch_sub(1, Ordering::SeqCst);
    }

    /// An exclusive holder's stay: nobody else may be inside at all.
    fn as_writer(&self, stay: impl FnOnce()) {
        assert!(!self.writer.swap(true, Ordering::SeqCst), "two writers");
        assert_eq!(self.readers.load(Ordering::SeqCst), 0, "writer saw readers");
        stay();
        assert_eq!(
            self.readers.load(Ordering::SeqCst),
            0,
            "reader joined a writer"
        );
        self.writer.store(false, Ordering::SeqCst);
    }
}

fn yields(n: usize) {
    for _ in 0..n {
        det::yield_point(det::Point::User);
    }
}

#[test]
fn shared_holders_overlap_and_an_exclusive_holder_excludes_both_modes_on_every_seed() {
    // Threads 0 and 1 each take the lock shared and refuse to leave
    // until the other is inside too: if shared holders excluded each
    // other this would deadlock and time out, on every seed. Thread 2,
    // and then all three in mixed rounds, check exclusion from inside.
    struct W {
        tm: TxnManager,
        lock: ObjectLock,
        inside: Inside,
        met: AtomicBool,
        reader_timeouts: AtomicU64,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(150),
        3,
        || W {
            tm: TxnManager::default(),
            lock: ObjectLock::new(),
            inside: Inside::default(),
            met: AtomicBool::new(false),
            reader_timeouts: AtomicU64::new(0),
        },
        |w, tid| {
            if tid < 2 {
                w.tm.run(|t| {
                    if let Err(abort) = w.lock.word().acquire(t, Mode::Shared) {
                        // Only thread 2 holding exclusive can cause this.
                        w.reader_timeouts.fetch_add(1, Ordering::Relaxed);
                        return Err(abort);
                    }
                    w.inside.as_reader(|| {
                        spin_until(|| {
                            w.met.load(Ordering::SeqCst)
                                || w.inside.readers.load(Ordering::SeqCst) == 2
                        });
                        w.met.store(true, Ordering::SeqCst);
                    });
                    Ok(())
                })
                .unwrap();
            }
            for round in 0..4 {
                w.tm.run(|t| {
                    if (tid + round) % 3 == 2 {
                        w.lock.word().acquire(t, Mode::Exclusive)?;
                        w.inside.as_writer(|| yields(2));
                    } else {
                        w.lock.word().acquire(t, Mode::Shared)?;
                        w.inside.as_reader(|| yields(2));
                        if round == 3 {
                            // Write implies read, and the other way round
                            // is an upgrade: same lock, still held once.
                            w.lock.word().acquire(t, Mode::Exclusive)?;
                            assert_eq!(t.held_lock_count(), 1);
                            w.inside.as_writer(|| yields(1));
                            w.lock.word().acquire(t, Mode::Shared)?;
                        }
                    }
                    Ok(())
                })
                .unwrap();
            }
        },
        |w, _report| {
            assert!(
                w.met.load(Ordering::SeqCst),
                "the two readers never overlapped"
            );
            assert_eq!(w.reader_timeouts.load(Ordering::Relaxed), 0);
            assert_eq!(w.tm.stats().snapshot().committed, 2 + 3 * 4);
            assert_eq!(w.lock.word().holders(), (None, 0));
        },
    );
}

#[test]
fn two_upgraders_resolve_by_exactly_one_timeout_and_the_survivor_upgrades() {
    // Both threads hold shared before either asks for exclusive: each
    // waits for the other to leave. Thread 0's timeout is 100 ticks and
    // it gets one attempt; thread 1's is 10,000 ticks. On every seed
    // thread 0 must abort with a lock timeout, its abort must release
    // its shared hold, and thread 1 must then upgrade without aborting.
    struct W {
        tm: [TxnManager; 2],
        lock: ObjectLock,
        shared: AtomicU64,
        upgrades: AtomicU64,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(150),
        2,
        || W {
            tm: [
                TxnManager::new(TxnConfig {
                    max_retries: Some(0),
                    ..TxnConfig::default()
                }),
                TxnManager::new(TxnConfig {
                    lock_timeout: Duration::from_secs(1),
                    ..TxnConfig::default()
                }),
            ],
            lock: ObjectLock::new(),
            shared: AtomicU64::new(0),
            upgrades: AtomicU64::new(0),
        },
        |w, tid| {
            let upgrade = |t: &Txn| {
                w.lock.word().acquire(t, Mode::Shared)?;
                w.shared.fetch_add(1, Ordering::SeqCst);
                spin_until(|| w.shared.load(Ordering::SeqCst) >= 2);
                w.lock.word().acquire(t, Mode::Exclusive)?;
                assert_eq!(w.lock.word().holders(), (Some(t.id()), 0));
                assert_eq!(t.held_lock_count(), 1, "an upgrade is not a second hold");
                w.upgrades.fetch_add(1, Ordering::SeqCst);
                Ok(())
            };
            let outcome = w.tm[tid].run(upgrade);
            if tid == 0 {
                assert_eq!(
                    outcome.unwrap_err(),
                    TxnError::RetriesExhausted(AbortReason::LockTimeout)
                );
                // Once the survivor is through, the loser's retry is an
                // ordinary sole-reader upgrade.
                spin_until(|| w.upgrades.load(Ordering::SeqCst) == 1);
                w.tm[0].run(upgrade).unwrap();
            } else {
                outcome.unwrap();
            }
        },
        |w, _report| {
            let (loser, survivor) = (w.tm[0].stats().snapshot(), w.tm[1].stats().snapshot());
            assert_eq!((loser.lock_timeouts, loser.committed), (1, 1));
            assert_eq!((survivor.aborted, survivor.committed), (0, 1));
            assert_eq!(w.upgrades.load(Ordering::SeqCst), 2);
            assert_eq!(w.lock.word().holders(), (None, 0));
        },
    );
}

#[test]
fn a_blocked_writer_gets_the_lock_from_the_last_departing_reader() {
    // Both readers stay inside until the writer is about to ask, then
    // leave at different times, well inside its timeout; so the writer
    // blocks behind two, then one, then no reader on nearly every seed.
    // It has one attempt: a wakeup lost on the first or on the last
    // reader's release would surface as a timeout abort.
    struct W {
        tm: TxnManager,
        writer_tm: TxnManager,
        lock: ObjectLock,
        inside: Inside,
        asking: AtomicBool,
    }
    txboost_sched::sweep_setup(
        txboost_sched::seeds_from_env(150),
        3,
        || W {
            tm: TxnManager::default(),
            writer_tm: TxnManager::new(TxnConfig {
                max_retries: Some(0),
                ..TxnConfig::default()
            }),
            lock: ObjectLock::new(),
            inside: Inside::default(),
            asking: AtomicBool::new(false),
        },
        |w, tid| {
            if tid < 2 {
                w.tm.run(|t| {
                    w.lock.word().acquire(t, Mode::Shared)?;
                    w.inside.as_reader(|| {
                        spin_until(|| w.asking.load(Ordering::SeqCst));
                        yields(3 + 7 * tid);
                    });
                    Ok(())
                })
                .unwrap();
            } else {
                spin_until(|| w.inside.readers.load(Ordering::SeqCst) == 2);
                w.asking.store(true, Ordering::SeqCst);
                w.writer_tm
                    .run(|t| {
                        w.lock.word().acquire(t, Mode::Exclusive)?;
                        w.inside.as_writer(|| yields(1));
                        Ok(())
                    })
                    .unwrap();
            }
        },
        |w, _report| {
            assert_eq!(w.tm.stats().snapshot().committed, 2);
            let writer = w.writer_tm.stats().snapshot();
            assert_eq!((writer.committed, writer.aborted), (1, 0));
            assert_eq!(w.lock.word().holders(), (None, 0));
        },
    );
}
