//! The abstract lock: one owner-tracked, transaction-reentrant,
//! two-mode, timeout lock. Every discipline in [`super`] is a choice of
//! these words and modes.
//!
//! # Lock-word state encoding
//!
//! The whole lock state is a single `AtomicU64`:
//!
//! ```text
//! ┌─────────┬────────┬──────────────────────────────────────┐
//! │ bit 63  │ bit 62 │ bits 61..0                           │
//! │ WAITERS │ SHARED │ owner TxnId, or reader count         │
//! └─────────┴────────┴──────────────────────────────────────┘
//! ```
//!
//! * `0` — free. An uncontended acquire in either mode is one
//!   `compare_exchange` (`0 → id` or `0 → SHARED | 1`): no mutex, no
//!   condvar, no clock read.
//! * `id` — held exclusively by transaction `id`.
//! * `SHARED | n` — held in shared mode by `n ≥ 1` transactions. The
//!   word counts them, it does not name them: a transaction learns "I
//!   am one of the `n`" from its own held-lock list, consulted only
//!   when the word is already `SHARED`.
//! * `… | WAITERS` — at least one transaction is parked (or about to
//!   park) on the condvar; the release that makes progress possible
//!   must take the park mutex and `notify_all`.
//!
//! Exclusive mode implies shared mode, and the only reader may upgrade
//! (`SHARED | 1 → id`). Readers join a `SHARED` word whether or not a
//! writer is parked — there is no writer preference.
//!
//! A contended acquire spins briefly ([`crate::backoff::SpinWait`]) and
//! then parks: under the park mutex it tries to claim, sets `WAITERS`
//! on the word it found busy, and waits ([`Deadline::wait`]). Setting
//! `WAITERS` by `compare_exchange` against the exact word that was
//! found busy, under the mutex every notifier must take, is the
//! no-lost-wakeup protocol: either that CAS lands before the holder's
//! releasing CAS — which then sees the bit and notifies, after the
//! waiter is in `wait` — or it fails because the word changed, and the
//! waiter re-reads instead of parking. Every release with the bit set
//! notifies, a reader leaving included: the departure that leaves one
//! reader wakes a parked upgrader, the last one wakes parked writers.
//!
//! The lock itself counts nothing. An acquire that had to wait, granted
//! or timed out, charges the time to the waiting [`Txn`] — thread-
//! confined, so a plain cell — off the [`Deadline`] the timeout reads
//! anyway; the manager folds it into [`crate::TxnStats`] when the
//! attempt ends. An acquire that never blocks reads no clock.

use super::deadline::Deadline;
use crate::backoff::SpinWait;
use crate::{Abort, TxResult, Txn, TxnId};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Waiters-parked flag in the lock word.
const WAITERS: u64 = 1 << 63;

/// Shared-mode flag: the low bits count readers instead of naming an
/// owner.
const SHARED: u64 = 1 << 62;

/// Mask selecting the owner id, or the reader count, from the lock
/// word. Transaction ids are drawn from a counter starting at 1, so an
/// id cannot reach the flag bits within the lifetime of any conceivable
/// process.
const OWNER_MASK: u64 = SHARED - 1;

/// The two ways to hold an [`AbstractLock`]. Calls that commute with
/// each other take `Shared`; a call that commutes with nothing else on
/// the object takes `Exclusive`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Compatible with other `Shared` holders.
    Shared,
    /// Compatible with no other holder.
    Exclusive,
}

impl Mode {
    /// The word a free lock takes when transaction `me` claims it.
    fn fresh(self, me: u64) -> u64 {
        match self {
            Mode::Exclusive => me,
            Mode::Shared => SHARED | 1,
        }
    }
}

/// What a successful claim changed for the claiming transaction.
enum Claim {
    /// It holds the lock now and did not before: register for release.
    New,
    /// Its shared hold became exclusive; already registered.
    Upgrade,
    /// It already held the lock in a sufficient mode.
    Reentrant,
}

/// A two-phase abstract lock held by one transaction exclusively or by
/// several in shared mode.
///
/// A boosted object owns one of these, or a [`super::KeyLockMap`] (the
/// paper's `LockKey`) of them, and its conflict table says which word a
/// call takes in which [`Mode`]. Unlike an OS lock it is:
///
/// * **transaction-owned** — the holder is a [`TxnId`], not a thread, so
///   a transaction may re-acquire a lock it already holds no matter how
///   its code paths are composed;
/// * **two-phase** — acquiring registers the lock with the transaction;
///   release happens only at commit/abort;
/// * **timeout-based** — a blocked acquisition gives up after
///   [`Txn::lock_timeout`] and aborts the transaction, breaking any
///   deadlock cycle (two concurrent upgraders are one). `Duration::MAX`
///   never passes: the acquisition waits until granted.
#[derive(Debug, Default)]
pub struct AbstractLock {
    /// The lock word; see the module docs.
    state: AtomicU64,
    /// Number of waiters parked (or committed to parking) on `cv`.
    /// Serves as the condvar's guarded state and tells a claimer
    /// whether to keep [`WAITERS`] set.
    park: Mutex<usize>,
    cv: Condvar,
}

impl AbstractLock {
    /// A fresh, unheld lock.
    pub fn new() -> Self {
        AbstractLock::default()
    }

    /// Acquire in `mode` for `txn`, registering with the transaction so
    /// that release happens automatically at commit/abort. A no-op if
    /// `txn` already holds the lock in a sufficient mode; upgrades a
    /// shared hold when `mode` is exclusive.
    ///
    /// Returns `Err(Abort::lock_timeout())` if conflicting holders kept
    /// the lock for the entire timeout window.
    pub fn acquire(self: &Arc<Self>, txn: &Txn, mode: Mode) -> TxResult<()> {
        // Read-only snapshot transactions hold no abstract locks, in
        // either mode — that structural guarantee (not a convention) is
        // what makes them abort-free. Any locking call funnels through
        // here and is rejected with a typed, non-retried error.
        if txn.is_read_only() {
            return Err(Abort::read_only_violation());
        }
        crate::det::yield_point(crate::det::Point::LockAcquire);
        let me = txn.id().raw();
        debug_assert_eq!(me & !OWNER_MASK, 0, "transaction id reaches the flag bits");
        let (claim, waited) = match self.state.compare_exchange(
            0,
            mode.fresh(me),
            Ordering::Acquire,
            Ordering::Relaxed,
        ) {
            Ok(_) => (Claim::New, None),
            // The failure load may be Relaxed: observing our own id
            // is only possible if *this* transaction wrote it earlier
            // on this same thread (transactions are thread-confined).
            Err(cur) if cur & !WAITERS == me => return Ok(()),
            Err(cur) => self.acquire_slow(txn, mode, cur)?,
        };
        if matches!(claim, Claim::Reentrant) {
            return Ok(());
        }
        // No clock was read unless the acquire actually waited.
        if let Some(waited) = waited {
            txn.charge_lock_wait(waited);
        }
        if matches!(claim, Claim::New) {
            txn.register_held_lock(Arc::clone(self));
        }
        Ok(())
    }

    /// Everything past the first compare-and-swap — joining readers,
    /// upgrading, and the one blocking loop (spin briefly, then park
    /// until a release notifies or the deadline passes) — kept out of
    /// line so the two hot outcomes inline into the callers. `cur` is
    /// the word that compare-and-swap found. Returns the claim and how
    /// long it waited, if it did.
    #[inline(never)]
    fn acquire_slow(
        self: &Arc<Self>,
        txn: &Txn,
        mode: Mode,
        cur: u64,
    ) -> TxResult<(Claim, Option<Duration>)> {
        let me = txn.id().raw();
        // Whether `txn` is one of a `SHARED` word's readers. Settled
        // here for the whole call: if it is, the word stays `SHARED`
        // until it leaves; if the word is not `SHARED` now, it is not.
        let mine = cur & SHARED != 0 && txn.holds_lock(self);
        if let Ok(claim) = self.try_claim(me, mode, mine, false) {
            return Ok((claim, None));
        }
        let deadline = Deadline::after(txn.lock_timeout());

        // Phase 1: bounded spin — abstract locks are often released
        // within the holder's commit, a few hundred cycles away.
        let mut spin = SpinWait::new();
        while spin.spin() {
            if let Ok(claim) = self.try_claim(me, mode, mine, false) {
                return Ok((claim, Some(deadline.elapsed())));
            }
        }

        // Phase 2: park. All waiter bookkeeping happens under the park
        // mutex; see the module docs for the lost-wakeup argument.
        let mut parked = self.park.lock();
        let mut timed_out = false;
        loop {
            // After a timeout this is the last chance: the release may
            // have raced the deadline.
            let busy = match self.try_claim(me, mode, mine, *parked > 0) {
                Ok(claim) => return Ok((claim, Some(deadline.elapsed()))),
                Err(busy) => busy,
            };
            if timed_out {
                drop(parked);
                txn.charge_lock_wait(deadline.elapsed());
                return Err(Abort::lock_timeout());
            }
            // Make sure the release we are waiting for will notify.
            if busy & WAITERS == 0
                && self
                    .state
                    .compare_exchange(busy, busy | WAITERS, Ordering::Relaxed, Ordering::Relaxed)
                    .is_err()
            {
                continue; // the word changed under us; re-read
            }
            *parked += 1;
            timed_out = deadline.wait(&self.cv, &mut parked);
            *parked -= 1;
        }
    }

    /// One attempt to move the word to a state in which transaction
    /// `me` holds the lock in `mode`, retrying only when the CAS loses a
    /// race; `Err` carries the word that makes the claim impossible for
    /// now. `mine`: `me` is one of a `SHARED` word's readers.
    /// `parked_others`: keep [`WAITERS`] set for them.
    fn try_claim(
        &self,
        me: u64,
        mode: Mode,
        mine: bool,
        parked_others: bool,
    ) -> Result<Claim, u64> {
        let mut cur = self.state.load(Ordering::Relaxed);
        loop {
            let held = cur & !WAITERS;
            let (next, claim) = if held == 0 {
                (mode.fresh(me), Claim::New)
            } else if held & SHARED == 0 {
                // Another transaction's: `acquire` answered "mine" itself.
                return Err(cur);
            } else {
                match mode {
                    Mode::Shared if mine => return Ok(Claim::Reentrant),
                    Mode::Shared => (held + 1, Claim::New),
                    Mode::Exclusive if mine && held == SHARED | 1 => (me, Claim::Upgrade),
                    Mode::Exclusive => return Err(cur),
                }
            };
            let flag = if parked_others {
                WAITERS
            } else {
                cur & WAITERS
            };
            match self.state.compare_exchange(
                cur,
                next | flag,
                Ordering::Acquire,
                Ordering::Relaxed,
            ) {
                Ok(_) => return Ok(claim),
                Err(changed) => cur = changed,
            }
        }
    }

    /// Give up `id`'s hold at commit/abort. Only [`Txn`] calls this, for
    /// locks on its held list: a `SHARED` word cannot tell whether `id`
    /// is among its readers, so the caller must know. An exclusive word
    /// naming another owner is left alone.
    pub(crate) fn release(&self, id: TxnId) {
        let mut cur = self.state.load(Ordering::Relaxed);
        let prev = loop {
            let held = cur & !WAITERS;
            let next = if held == id.raw() || held == SHARED | 1 {
                0 // the exclusive holder, or the last reader, leaves
            } else if held & SHARED == 0 {
                return; // exclusively someone else's, or free
            } else {
                cur - 1 // one reader fewer; WAITERS stays for the rest
            };
            match self
                .state
                .compare_exchange(cur, next, Ordering::Release, Ordering::Relaxed)
            {
                Ok(prev) => break prev,
                Err(changed) => cur = changed,
            }
        };
        if prev & WAITERS != 0 {
            // Take and drop the park mutex before notifying: a waiter
            // that set WAITERS but has not yet reached `wait` still
            // holds the mutex, and this acquisition orders the notify
            // after its registration — no wakeup can be lost.
            drop(self.park.lock());
            // Several transactions may be parked; they race for the
            // lock when woken, losers go back to sleep.
            self.cv.notify_all();
        }
    }

    /// Snapshot of (exclusive holder, shared-holder count) for
    /// diagnostics/tests; at most one of the two is set.
    pub fn holders(&self) -> (Option<TxnId>, usize) {
        let held = self.state.load(Ordering::Acquire) & !WAITERS;
        if held & SHARED == 0 {
            (TxnId::from_raw(held), 0)
        } else {
            (None, (held & OWNER_MASK) as usize)
        }
    }

    /// The transaction holding the lock exclusively, if any.
    pub fn owner(&self) -> Option<TxnId> {
        self.holders().0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{TxnConfig, TxnManager};
    use std::time::Duration;

    fn manager(timeout_ms: u64) -> TxnManager {
        TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(timeout_ms),
            max_retries: Some(0),
            ..TxnConfig::default()
        })
    }

    #[test]
    fn acquire_registers_and_releases_on_commit() {
        let tm = manager(50);
        let lock = Arc::new(AbstractLock::new());
        let txn = tm.begin();
        lock.acquire(&txn, Mode::Exclusive).unwrap();
        assert_eq!(lock.owner(), Some(txn.id()));
        assert_eq!(txn.held_lock_count(), 1);
        tm.commit(txn);
        assert_eq!(lock.owner(), None);
    }

    #[test]
    fn reentrant_acquire_registers_once() {
        let tm = manager(50);
        let lock = Arc::new(AbstractLock::new());
        let txn = tm.begin();
        lock.acquire(&txn, Mode::Exclusive).unwrap();
        lock.acquire(&txn, Mode::Exclusive).unwrap();
        assert_eq!(txn.held_lock_count(), 1);
        tm.commit(txn);
        assert_eq!(lock.owner(), None);
    }

    #[test]
    fn contended_acquire_times_out_with_abort() {
        let tm = manager(5);
        let lock = Arc::new(AbstractLock::new());
        let holder = tm.begin();
        lock.acquire(&holder, Mode::Exclusive).unwrap();

        let waiter = tm.begin();
        let err = lock.acquire(&waiter, Mode::Exclusive).unwrap_err();
        assert_eq!(err, Abort::lock_timeout());
        // The loser holds nothing new.
        assert_eq!(waiter.held_lock_count(), 0);
        tm.commit(holder);
        tm.abort(waiter, crate::AbortReason::LockTimeout);
    }

    /// The exclusive case only: a shared word counts its holders without
    /// naming them, so a shared release trusts its caller — and the one
    /// caller, `Txn::release_locks`, walks its own held list.
    #[test]
    fn release_is_noop_for_non_owner() {
        let tm = manager(50);
        let lock = Arc::new(AbstractLock::new());
        let a = tm.begin();
        let b = tm.begin();
        lock.acquire(&a, Mode::Exclusive).unwrap();
        // b never acquired; releasing on b's behalf must not free a's lock.
        lock.release(b.id());
        assert_eq!(lock.owner(), Some(a.id()));
        tm.commit(a);
        tm.commit(b);
    }

    #[test]
    fn waiter_wakes_when_owner_commits() {
        let tm = Arc::new(manager(1_000));
        let lock = Arc::new(AbstractLock::new());
        let holder = tm.begin();
        lock.acquire(&holder, Mode::Exclusive).unwrap();

        let (tm2, lock2) = (Arc::clone(&tm), Arc::clone(&lock));
        let waiter = std::thread::spawn(move || {
            let txn = tm2.begin();
            let r = lock2.acquire(&txn, Mode::Exclusive);
            tm2.commit(txn);
            r
        });
        std::thread::sleep(Duration::from_millis(20));
        tm.commit(holder); // releases the lock, wakes the waiter
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn abort_releases_lock_too() {
        let tm = manager(50);
        let lock = Arc::new(AbstractLock::new());
        let txn = tm.begin();
        lock.acquire(&txn, Mode::Exclusive).unwrap();
        tm.abort(txn, crate::AbortReason::Explicit);
        assert_eq!(lock.owner(), None);
    }

    #[test]
    fn lockword_timeout_clears_stale_waiters_path() {
        // A waiter that parks and times out leaves; the owner's later
        // release must still work (possibly notifying nobody).
        let tm = manager(5);
        let lock = Arc::new(AbstractLock::new());
        let holder = tm.begin();
        lock.acquire(&holder, Mode::Exclusive).unwrap();
        let loser = tm.begin();
        assert_eq!(
            lock.acquire(&loser, Mode::Exclusive).unwrap_err(),
            Abort::lock_timeout()
        );
        tm.commit(holder); // release with WAITERS still set
        assert_eq!(lock.owner(), None);
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
        // The word is fully free again: a fresh acquire takes the fast path.
        let next = tm.begin();
        lock.acquire(&next, Mode::Exclusive).unwrap();
        assert_eq!(lock.state.load(Ordering::Relaxed), next.id().raw());
        tm.commit(next);
        tm.abort(loser, crate::AbortReason::LockTimeout);
    }

    #[test]
    fn lockword_two_parked_waiters_both_eventually_acquire() {
        let tm = Arc::new(manager(2_000));
        let lock = Arc::new(AbstractLock::new());
        let holder = tm.begin();
        lock.acquire(&holder, Mode::Exclusive).unwrap();

        let spawn_waiter = || {
            let (tm2, lock2) = (Arc::clone(&tm), Arc::clone(&lock));
            std::thread::spawn(move || {
                let txn = tm2.begin();
                let r = lock2.acquire(&txn, Mode::Exclusive);
                tm2.commit(txn);
                r.is_ok()
            })
        };
        let w1 = spawn_waiter();
        let w2 = spawn_waiter();
        std::thread::sleep(Duration::from_millis(20));
        tm.commit(holder);
        assert!(w1.join().unwrap());
        assert!(w2.join().unwrap());
        assert_eq!(lock.owner(), None);
    }

    #[test]
    fn an_exclusive_holder_excludes_both_modes_until_it_commits() {
        let tm = manager(5);
        let lock = Arc::new(AbstractLock::new());
        let w = tm.begin();
        lock.acquire(&w, Mode::Exclusive).unwrap();
        let r = tm.begin();
        assert_eq!(
            lock.acquire(&r, Mode::Shared).unwrap_err(),
            Abort::lock_timeout()
        );
        let w2 = tm.begin();
        assert_eq!(
            lock.acquire(&w2, Mode::Exclusive).unwrap_err(),
            Abort::lock_timeout()
        );
        tm.commit(w);
        lock.acquire(&r, Mode::Shared).unwrap();
        tm.commit(r);
        tm.abort(w2, crate::AbortReason::LockTimeout);
    }

    #[test]
    fn exclusive_implies_shared() {
        let tm = manager(5);
        let lock = Arc::new(AbstractLock::new());
        let t = tm.begin();
        lock.acquire(&t, Mode::Exclusive).unwrap();
        lock.acquire(&t, Mode::Shared).unwrap(); // free, no extra registration
        assert_eq!(lock.holders(), (Some(t.id()), 0));
        assert_eq!(t.held_lock_count(), 1);
        tm.commit(t);
    }

    #[test]
    fn a_shared_waiter_wakes_when_the_exclusive_holder_commits() {
        // The timeout is far beyond the test: a lost wakeup is a stall.
        let tm = Arc::new(manager(20_000));
        let lock = Arc::new(AbstractLock::new());
        let w = tm.begin();
        lock.acquire(&w, Mode::Exclusive).unwrap();
        let start = std::time::Instant::now();
        let (tm2, lock2) = (Arc::clone(&tm), Arc::clone(&lock));
        let reader = std::thread::spawn(move || {
            let t = tm2.begin();
            let r = lock2.acquire(&t, Mode::Shared);
            tm2.commit(t);
            r
        });
        until_parked(&lock);
        tm.commit(w);
        assert!(reader.join().unwrap().is_ok());
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn a_sole_reader_upgrades_at_once_and_holds_once() {
        let tm = manager(5);
        let lock = Arc::new(AbstractLock::new());
        let t = tm.begin();
        lock.acquire(&t, Mode::Shared).unwrap();
        lock.acquire(&t, Mode::Exclusive).unwrap();
        // An upgrade is not a second hold.
        assert_eq!(lock.holders(), (Some(t.id()), 0));
        assert_eq!(t.held_lock_count(), 1);
        tm.commit(t);
        assert_eq!(lock.holders(), (None, 0));
    }

    #[test]
    fn an_upgrade_blocked_by_a_second_reader_times_out() {
        let tm = manager(5);
        let lock = Arc::new(AbstractLock::new());
        let (a, b) = (tm.begin(), tm.begin());
        lock.acquire(&a, Mode::Shared).unwrap();
        lock.acquire(&b, Mode::Shared).unwrap();
        // a cannot upgrade while b reads: the upgrade deadlock, broken
        // by the timeout.
        assert_eq!(
            lock.acquire(&a, Mode::Exclusive).unwrap_err(),
            Abort::lock_timeout()
        );
        tm.abort(a, crate::AbortReason::LockTimeout);
        // a's abort released its shared hold; now b can upgrade.
        lock.acquire(&b, Mode::Exclusive).unwrap();
        assert_eq!(lock.holders(), (Some(b.id()), 0));
        tm.commit(b);
        assert_eq!(lock.holders(), (None, 0));
    }

    #[test]
    fn stress_shared_holders_never_overlap_an_exclusive_holder() {
        // The Fig. 11 heap's shape: shared adds never co-exist with an
        // exclusive remove, and two exclusive holders never co-exist.
        use std::sync::atomic::AtomicU64;
        let tm = TxnManager::default();
        let lock = Arc::new(AbstractLock::new());
        let writers_inside = AtomicU64::new(0);
        std::thread::scope(|s| {
            for i in 0..8 {
                let (tm, lock, wi) = (&tm, &lock, &writers_inside);
                s.spawn(move || {
                    for _ in 0..100 {
                        tm.run(|txn| {
                            if i % 2 == 0 {
                                lock.acquire(txn, Mode::Shared)?;
                                assert_eq!(wi.load(Ordering::SeqCst), 0, "reader saw a writer");
                            } else {
                                lock.acquire(txn, Mode::Exclusive)?;
                                assert_eq!(wi.fetch_add(1, Ordering::SeqCst), 0, "two writers");
                                wi.fetch_sub(1, Ordering::SeqCst);
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(tm.stats().snapshot().committed, 800);
    }

    #[test]
    fn the_lock_stays_one_word_a_park_mutex_and_a_condvar() {
        // 4,096 of these per `KeyLockMap`: the shared mode must not
        // have grown the slot.
        assert!(std::mem::size_of::<AbstractLock>() <= 32);
    }

    #[test]
    fn lockword_counts_readers_and_keeps_waiters_until_the_last_leaves() {
        let tm = manager(5);
        let lock = Arc::new(AbstractLock::new());
        let (a, b) = (tm.begin(), tm.begin());
        lock.acquire(&a, Mode::Shared).unwrap();
        lock.acquire(&b, Mode::Shared).unwrap();
        lock.acquire(&a, Mode::Shared).unwrap(); // reentrant: not counted twice
        assert_eq!(lock.state.load(Ordering::Relaxed), SHARED | 2);
        assert_eq!((a.held_lock_count(), b.held_lock_count()), (1, 1));
        // A writer parks, times out and leaves its WAITERS bit behind.
        let w = tm.begin();
        assert_eq!(
            lock.acquire(&w, Mode::Exclusive).unwrap_err(),
            Abort::lock_timeout()
        );
        assert_eq!(lock.state.load(Ordering::Relaxed), SHARED | 2 | WAITERS);
        // A reader joining or leaving keeps the bit; the last one clears it.
        let c = tm.begin();
        lock.acquire(&c, Mode::Shared).unwrap();
        assert_eq!(lock.state.load(Ordering::Relaxed), SHARED | 3 | WAITERS);
        tm.commit(c);
        tm.commit(a);
        assert_eq!(lock.state.load(Ordering::Relaxed), SHARED | 1 | WAITERS);
        tm.commit(b);
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
        tm.abort(w, crate::AbortReason::LockTimeout);
    }

    /// Spin until a waiter has registered itself on `lock`'s word.
    fn until_parked(lock: &AbstractLock) {
        while lock.state.load(Ordering::Relaxed) & WAITERS == 0 {
            std::thread::yield_now();
        }
    }

    #[test]
    fn a_timeout_is_one_wait_and_an_acquire_that_never_blocked_is_none() {
        let tm = manager(5);
        let lock = Arc::new(AbstractLock::new());
        let holder = tm.begin();
        lock.acquire(&holder, Mode::Exclusive).unwrap();
        lock.acquire(&holder, Mode::Shared).unwrap();
        tm.commit(holder);
        // Nothing charged means no clock read: the one `Instant::now`
        // on this path is the `Deadline` a charge is taken from.
        let idle = tm.stats().snapshot();
        assert_eq!((idle.lock_waits, idle.lock_wait.count()), (0, 0));

        let holder = tm.begin();
        lock.acquire(&holder, Mode::Exclusive).unwrap();
        let waiter = tm.begin();
        assert!(lock.acquire(&waiter, Mode::Exclusive).is_err());
        // The waiter keeps the time until its attempt ends.
        assert_eq!(tm.stats().snapshot().lock_waits, 0);
        tm.abort(waiter, crate::AbortReason::LockTimeout);
        tm.commit(holder);
        let snap = tm.stats().snapshot();
        assert_eq!((snap.lock_timeouts, snap.lock_waits), (1, 1));
        assert_eq!(snap.lock_wait.count(), 1);
        assert!(snap.lock_wait.sum >= 5_000_000, "waited out the 5 ms");
    }

    #[test]
    fn a_blocked_then_granted_acquire_is_one_wait_of_the_time_it_blocked() {
        let tm = Arc::new(manager(20_000));
        let lock = Arc::new(AbstractLock::new());
        let holder = tm.begin();
        lock.acquire(&holder, Mode::Exclusive).unwrap();
        let (tm2, lock2) = (Arc::clone(&tm), Arc::clone(&lock));
        let waiter = std::thread::spawn(move || {
            let txn = tm2.begin();
            lock2.acquire(&txn, Mode::Exclusive).unwrap();
            lock2.acquire(&txn, Mode::Exclusive).unwrap(); // reentrant: no wait
            tm2.commit(txn);
        });
        until_parked(&lock);
        std::thread::sleep(Duration::from_millis(3));
        tm.commit(holder);
        waiter.join().unwrap();
        let snap = tm.stats().snapshot();
        assert_eq!((snap.lock_timeouts, snap.lock_waits), (0, 1));
        assert_eq!(snap.lock_wait.count(), 1);
        assert!(snap.lock_wait.sum >= 3_000_000, "parked across the sleep");
    }

    // In the two tests below the timeout is far beyond the test: a lost
    // wakeup shows as a stall that trips the elapsed-time bound.

    #[test]
    fn lockword_parked_writer_wakes_on_the_last_shared_release() {
        let tm = Arc::new(manager(20_000));
        let lock = Arc::new(AbstractLock::new());
        let (r1, r2) = (tm.begin(), tm.begin());
        lock.acquire(&r1, Mode::Shared).unwrap();
        lock.acquire(&r2, Mode::Shared).unwrap();
        let start = std::time::Instant::now();
        let (tm2, lock2) = (Arc::clone(&tm), Arc::clone(&lock));
        let writer = std::thread::spawn(move || {
            let txn = tm2.begin();
            let r = lock2.acquire(&txn, Mode::Exclusive);
            let inside = lock2.holders();
            tm2.commit(txn);
            r.map(|()| inside)
        });
        until_parked(&lock);
        tm.commit(r1); // one reader left: still nothing for the writer
        assert_eq!(lock.holders(), (None, 1));
        tm.commit(r2);
        let (owner, readers) = writer.join().unwrap().unwrap();
        assert!(owner.is_some() && readers == 0);
        assert!(start.elapsed() < Duration::from_secs(10));
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn lockword_parked_upgrader_wakes_when_it_becomes_the_only_reader() {
        let tm = Arc::new(manager(20_000));
        let lock = Arc::new(AbstractLock::new());
        let other = tm.begin();
        lock.acquire(&other, Mode::Shared).unwrap();
        let start = std::time::Instant::now();
        let (tm2, lock2) = (Arc::clone(&tm), Arc::clone(&lock));
        let upgrader = std::thread::spawn(move || {
            let txn = tm2.begin();
            lock2.acquire(&txn, Mode::Shared).unwrap();
            let r = lock2.acquire(&txn, Mode::Exclusive);
            let inside = (lock2.owner(), txn.held_lock_count());
            tm2.commit(txn);
            r.map(|()| inside)
        });
        until_parked(&lock);
        assert_eq!(lock.holders(), (None, 2));
        tm.commit(other);
        let (owner, held) = upgrader.join().unwrap().unwrap();
        assert!(owner.is_some());
        assert_eq!(held, 1, "an upgrade is not a second hold");
        assert!(start.elapsed() < Duration::from_secs(10));
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
    }
}
