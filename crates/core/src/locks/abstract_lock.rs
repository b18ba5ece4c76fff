//! The abstract lock: one owner-tracked, transaction-reentrant,
//! two-mode, timeout lock, and the one table its waiters park in. Every
//! discipline in [`super`] is a choice of these words and modes.
//!
//! The whole lock is one `AtomicU64` (DESIGN.md §11, "The lock word"):
//! bit 63 `WAITERS`, bit 62 `SHARED`, bits 61..0 the owner's `TxnId` or
//! the reader count. `0` is free, and an uncontended acquire in either
//! mode is one `compare_exchange` (`0 → id` or `0 → SHARED | 1`): no
//! mutex, no clock read. A `SHARED` word counts its readers without
//! naming them, so a transaction learns it is one of them from its own
//! held-lock list. The only reader may upgrade (`SHARED | 1 → id`);
//! readers join whether or not a writer waits (no writer preference).
//!
//! A contended acquire spins ([`crate::backoff::SpinWait`]), then parks
//! in the bucket of the process-wide park table that its word's address
//! selects, as `parking_lot_core` does: under the bucket mutex it tries
//! to claim, sets `WAITERS` by `compare_exchange` against the exact word
//! it found busy, and waits ([`Deadline::wait`]). A release that
//! replaced a word carrying `WAITERS` locks and drops that bucket's
//! mutex before `notify_all`. Either the waiter's CAS came first, and
//! the notify finds it waiting, or the release came first, and the
//! waiter's CAS fails and it re-reads: no wakeup is lost. Every release
//! with the bit set notifies, a reader leaving included (it may leave an
//! upgrader the only reader). Words that share a bucket share its count
//! and condvar, which can only keep `WAITERS` set longer or wake a
//! waiter spuriously; the wait loop re-checks either way.
//!
//! The lock counts nothing: a blocked acquire, granted or timed out,
//! charges its wait to the waiting [`Txn`], off the [`Deadline`] its
//! timeout reads anyway. An acquire that never blocks reads no clock.

use super::deadline::Deadline;
use crate::backoff::SpinWait;
use crate::{Abort, TxResult, Txn, TxnId};
use parking_lot::{Condvar, Mutex};
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Duration;

/// Waiters-parked flag in the lock word.
const WAITERS: u64 = 1 << 63;

/// Shared-mode flag: the low bits count readers, not name an owner.
const SHARED: u64 = 1 << 62;

/// The owner id, or the reader count. Ids count up from 1, so none
/// reaches the flag bits in any conceivable process lifetime.
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

/// Buckets in the park table (a power of two).
const BUCKETS: usize = 256;

/// One bucket of the park table, on cache lines of its own: the count
/// of waiters parked (or committed to parking) on its condvar, for every
/// word whose address selects it — the condvar's guarded state, and
/// whether a claimer keeps [`WAITERS`] set.
#[repr(align(128))]
struct Bucket(Mutex<usize>, Condvar);

/// The park table: every lock word's waiters.
static PARK: [Bucket; BUCKETS] = [const { Bucket(Mutex::new(0), Condvar::new()) }; BUCKETS];

/// A two-phase abstract lock held by one transaction exclusively or by
/// several in shared mode: one 64-bit word. A boosted object owns one
/// ([`super::ObjectLock`]) or a [`super::KeyLockMap`] of them, and its
/// conflict table says which word a call takes in which [`Mode`].
/// Unlike an OS lock it is:
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
}

impl AbstractLock {
    /// A fresh, unheld lock.
    pub const fn new() -> Self {
        AbstractLock {
            state: AtomicU64::new(0),
        }
    }

    /// The park bucket of this word's waiters: its address, hashed.
    fn bucket(&self) -> &'static Bucket {
        let hash =
            (std::ptr::from_ref(self).addr() as u64 >> 3).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &PARK[(hash >> (64 - BUCKETS.ilog2())) as usize]
    }

    /// Whether the word reads 0 (`Acquire`). Every hold makes it
    /// non-zero, so no transaction holds a word that is free.
    pub(crate) fn is_free(&self) -> bool {
        self.state.load(Ordering::Acquire) == 0
    }

    /// Acquire in `mode` for `txn`, registering with the transaction so
    /// that release happens automatically at commit/abort. A no-op if
    /// `txn` already holds the lock in a sufficient mode; upgrades a
    /// shared hold when `mode` is exclusive.
    ///
    /// Returns `Err(Abort::lock_timeout())` if conflicting holders kept
    /// the lock for the entire timeout window.
    pub fn acquire(&'static self, txn: &Txn, mode: Mode) -> TxResult<()> {
        // Read-only snapshot transactions hold no abstract locks: that
        // structural guarantee is what makes them abort-free.
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
            txn.register_held_lock(self);
        }
        Ok(())
    }

    /// Take the lock exclusively for `id`, a transaction id minted for
    /// this and holding nothing else here, waiting until the deadline
    /// that `deadline` returns (called only if the word is busy): no
    /// [`Txn`], no yield point, no held-list entry — the caller releases
    /// it with [`release`](Self::release). `Err` carries how long it
    /// waited before timing out.
    pub(crate) fn lock_for(
        &self,
        id: TxnId,
        deadline: impl FnOnce() -> Deadline,
    ) -> Result<(), Duration> {
        self.claim_or_wait(id.raw(), Mode::Exclusive, false, deadline)
            .map(|_| ())
    }

    /// Everything past the first compare-and-swap, kept out of line so
    /// the two hot outcomes inline into the callers. `cur` is the word
    /// that compare-and-swap found. Returns the claim and how long it
    /// waited, if it did.
    #[inline(never)]
    fn acquire_slow(&self, txn: &Txn, mode: Mode, cur: u64) -> TxResult<(Claim, Option<Duration>)> {
        // Whether `txn` is one of a `SHARED` word's readers. Settled
        // here for the whole call: if it is, the word stays `SHARED`
        // until it leaves; if the word is not `SHARED` now, it is not.
        let mine = cur & SHARED != 0 && txn.holds_lock(self);
        let deadline = || Deadline::after(txn.lock_timeout());
        self.claim_or_wait(txn.id().raw(), mode, mine, deadline)
            .map_err(|waited| {
                txn.charge_lock_wait(waited);
                Abort::lock_timeout()
            })
    }

    /// Joining readers, upgrading, and the one blocking loop: spin
    /// briefly, then park until a release notifies or the deadline
    /// passes — built by `deadline` once the first claim fails. `mine`:
    /// `me` is one of a `SHARED` word's readers. Returns the claim and
    /// how long it waited, if it did; `Err`, how long it waited before
    /// the deadline passed.
    fn claim_or_wait(
        &self,
        me: u64,
        mode: Mode,
        mine: bool,
        deadline: impl FnOnce() -> Deadline,
    ) -> Result<(Claim, Option<Duration>), Duration> {
        if let Ok(claim) = self.try_claim(me, mode, mine, false) {
            return Ok((claim, None));
        }
        let deadline = deadline();

        // Phase 1: bounded spin — abstract locks are often released
        // within the holder's commit, a few hundred cycles away.
        let mut spin = SpinWait::new();
        while spin.spin() {
            if let Ok(claim) = self.try_claim(me, mode, mine, false) {
                return Ok((claim, Some(deadline.elapsed())));
            }
        }

        // Phase 2: park. All waiter bookkeeping happens under the
        // bucket mutex; see the module docs for the lost-wakeup argument.
        let bucket = self.bucket();
        let mut parked = bucket.0.lock();
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
                return Err(deadline.elapsed());
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
            timed_out = deadline.wait(&bucket.1, &mut parked);
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
            let flag = cur & WAITERS | u64::from(parked_others) << 63;
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
            // Take and drop the bucket mutex before notifying: a waiter
            // that set WAITERS but has not yet reached `wait` still
            // holds the mutex, and this acquisition orders the notify
            // after its registration — no wakeup can be lost.
            let bucket = self.bucket();
            drop(bucket.0.lock());
            // Wake the whole bucket: each waiter re-checks its own word,
            // and losers go back to sleep.
            bucket.1.notify_all();
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

    /// Whether a waiter is parked (or about to park) on the word.
    #[cfg(test)]
    pub(crate) fn has_waiters(&self) -> bool {
        self.state.load(Ordering::Relaxed) & WAITERS != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{AbortReason, TxnConfig, TxnManager};
    use std::sync::Arc;
    use std::thread::JoinHandle;
    use std::time::Instant;

    /// A lock word for one test, never freed.
    fn word() -> &'static AbstractLock {
        Box::leak(Box::default())
    }

    fn manager(timeout_ms: u64) -> Arc<TxnManager> {
        Arc::new(TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(timeout_ms),
            max_retries: Some(0),
        }))
    }

    /// A transaction of `tm` holding `lock` in `mode`.
    fn holding(tm: &TxnManager, lock: &'static AbstractLock, mode: Mode) -> Txn {
        let txn = tm.begin();
        lock.acquire(&txn, mode).unwrap();
        txn
    }

    /// On a new thread: acquire `lock` in `mode`, run `inside`, commit.
    fn spawn_acquire<R: Send + 'static>(
        tm: &Arc<TxnManager>,
        lock: &'static AbstractLock,
        mode: Mode,
        inside: impl FnOnce(&Txn) -> R + Send + 'static,
    ) -> JoinHandle<TxResult<R>> {
        let tm = Arc::clone(tm);
        std::thread::spawn(move || {
            let txn = tm.begin();
            let r = lock.acquire(&txn, mode).map(|()| inside(&txn));
            tm.commit(txn);
            r
        })
    }

    /// Spin until a waiter has registered itself on `lock`'s word.
    fn until_parked(lock: &AbstractLock) {
        while !lock.has_waiters() {
            std::thread::yield_now();
        }
    }

    const TIMED_OUT: TxResult<()> = Err(Abort::lock_timeout());

    #[test]
    fn acquire_registers_and_releases_on_commit() {
        let (tm, lock) = (manager(50), word());
        let txn = holding(&tm, lock, Mode::Exclusive);
        assert_eq!((lock.owner(), txn.held_lock_count()), (Some(txn.id()), 1));
        tm.commit(txn);
        assert_eq!(lock.owner(), None);
    }

    #[test]
    fn reentrant_acquire_registers_once() {
        let (tm, lock) = (manager(50), word());
        let txn = holding(&tm, lock, Mode::Exclusive);
        lock.acquire(&txn, Mode::Exclusive).unwrap();
        assert_eq!(txn.held_lock_count(), 1);
        tm.commit(txn);
        assert_eq!(lock.owner(), None);
    }

    #[test]
    fn contended_acquire_times_out_with_abort() {
        let (tm, lock) = (manager(5), word());
        let holder = holding(&tm, lock, Mode::Exclusive);
        let waiter = tm.begin();
        assert_eq!(lock.acquire(&waiter, Mode::Exclusive), TIMED_OUT);
        // The loser holds nothing new.
        assert_eq!(waiter.held_lock_count(), 0);
        tm.commit(holder);
        tm.abort(waiter, AbortReason::LockTimeout);
    }

    /// The exclusive case only: a shared word counts its holders without
    /// naming them, so a shared release trusts its caller — and the one
    /// caller, `Txn::release_locks`, walks its own held list.
    #[test]
    fn release_is_noop_for_non_owner() {
        let (tm, lock) = (manager(50), word());
        let a = holding(&tm, lock, Mode::Exclusive);
        let b = tm.begin();
        // b never acquired; releasing on b's behalf must not free a's lock.
        lock.release(b.id());
        assert_eq!(lock.owner(), Some(a.id()));
        tm.commit(a);
        tm.commit(b);
    }

    #[test]
    fn waiter_wakes_when_owner_commits() {
        let (tm, lock) = (manager(1_000), word());
        let holder = holding(&tm, lock, Mode::Exclusive);
        let waiter = spawn_acquire(&tm, lock, Mode::Exclusive, |_| ());
        std::thread::sleep(Duration::from_millis(20));
        tm.commit(holder); // releases the lock, wakes the waiter
        assert!(waiter.join().unwrap().is_ok());
    }

    #[test]
    fn abort_releases_lock_too() {
        let (tm, lock) = (manager(50), word());
        let txn = holding(&tm, lock, Mode::Exclusive);
        tm.abort(txn, AbortReason::Explicit);
        assert_eq!(lock.owner(), None);
    }

    #[test]
    fn lockword_timeout_clears_stale_waiters_path() {
        // A waiter that parks and times out leaves; the owner's later
        // release must still work (possibly notifying nobody).
        let (tm, lock) = (manager(5), word());
        let holder = holding(&tm, lock, Mode::Exclusive);
        let loser = tm.begin();
        assert_eq!(lock.acquire(&loser, Mode::Exclusive), TIMED_OUT);
        tm.commit(holder); // release with WAITERS still set
        assert!(lock.is_free());
        // The word is fully free again: a fresh acquire takes the fast path.
        let next = holding(&tm, lock, Mode::Exclusive);
        assert_eq!(lock.state.load(Ordering::Relaxed), next.id().raw());
        tm.commit(next);
        tm.abort(loser, AbortReason::LockTimeout);
    }

    #[test]
    fn lockword_two_parked_waiters_both_eventually_acquire() {
        let (tm, lock) = (manager(2_000), word());
        let holder = holding(&tm, lock, Mode::Exclusive);
        let w1 = spawn_acquire(&tm, lock, Mode::Exclusive, |_| ());
        let w2 = spawn_acquire(&tm, lock, Mode::Exclusive, |_| ());
        std::thread::sleep(Duration::from_millis(20));
        tm.commit(holder);
        assert!(w1.join().unwrap().is_ok() && w2.join().unwrap().is_ok());
        assert_eq!(lock.owner(), None);
    }

    #[test]
    fn an_exclusive_holder_excludes_both_modes_until_it_commits() {
        let (tm, lock) = (manager(5), word());
        let w = holding(&tm, lock, Mode::Exclusive);
        let (r, w2) = (tm.begin(), tm.begin());
        assert_eq!(lock.acquire(&r, Mode::Shared), TIMED_OUT);
        assert_eq!(lock.acquire(&w2, Mode::Exclusive), TIMED_OUT);
        tm.commit(w);
        lock.acquire(&r, Mode::Shared).unwrap();
        tm.commit(r);
        tm.abort(w2, AbortReason::LockTimeout);
    }

    #[test]
    fn exclusive_implies_shared() {
        let (tm, lock) = (manager(5), word());
        let t = holding(&tm, lock, Mode::Exclusive);
        lock.acquire(&t, Mode::Shared).unwrap(); // free, no extra registration
        assert_eq!(lock.holders(), (Some(t.id()), 0));
        assert_eq!(t.held_lock_count(), 1);
        tm.commit(t);
    }

    // In the wake-up tests below the timeout is far beyond the test: a
    // lost wakeup shows as a stall that trips the elapsed-time bound.

    #[test]
    fn a_shared_waiter_wakes_when_the_exclusive_holder_commits() {
        let (tm, lock) = (manager(20_000), word());
        let w = holding(&tm, lock, Mode::Exclusive);
        let start = Instant::now();
        let reader = spawn_acquire(&tm, lock, Mode::Shared, |_| ());
        until_parked(lock);
        tm.commit(w);
        assert!(reader.join().unwrap().is_ok());
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn a_sole_reader_upgrades_at_once_and_holds_once() {
        let (tm, lock) = (manager(5), word());
        let t = holding(&tm, lock, Mode::Shared);
        lock.acquire(&t, Mode::Exclusive).unwrap();
        // An upgrade is not a second hold.
        assert_eq!(lock.holders(), (Some(t.id()), 0));
        assert_eq!(t.held_lock_count(), 1);
        tm.commit(t);
        assert_eq!(lock.holders(), (None, 0));
    }

    #[test]
    fn an_upgrade_blocked_by_a_second_reader_times_out() {
        let (tm, lock) = (manager(5), word());
        let a = holding(&tm, lock, Mode::Shared);
        let b = holding(&tm, lock, Mode::Shared);
        // a cannot upgrade while b reads: the upgrade deadlock, broken
        // by the timeout.
        assert_eq!(lock.acquire(&a, Mode::Exclusive), TIMED_OUT);
        tm.abort(a, AbortReason::LockTimeout);
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
        let (tm, lock) = (TxnManager::default(), word());
        let writers_inside = AtomicU64::new(0);
        std::thread::scope(|s| {
            for i in 0..8 {
                let (tm, wi) = (&tm, &writers_inside);
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
    fn the_lock_is_its_word() {
        // 4,096 of these per `KeyLockMap`: the park state lives in the
        // bucket table, not beside the word.
        assert_eq!(std::mem::size_of::<AbstractLock>(), 8);
    }

    #[test]
    fn lockword_counts_readers_and_keeps_waiters_until_the_last_leaves() {
        let (tm, lock) = (manager(5), word());
        let a = holding(&tm, lock, Mode::Shared);
        let b = holding(&tm, lock, Mode::Shared);
        lock.acquire(&a, Mode::Shared).unwrap(); // reentrant: not counted twice
        assert_eq!(lock.state.load(Ordering::Relaxed), SHARED | 2);
        assert_eq!((a.held_lock_count(), b.held_lock_count()), (1, 1));
        // A writer parks, times out and leaves its WAITERS bit behind.
        let w = tm.begin();
        assert_eq!(lock.acquire(&w, Mode::Exclusive), TIMED_OUT);
        assert_eq!(lock.state.load(Ordering::Relaxed), SHARED | 2 | WAITERS);
        // A reader joining or leaving keeps the bit; the last one clears it.
        let c = holding(&tm, lock, Mode::Shared);
        assert_eq!(lock.state.load(Ordering::Relaxed), SHARED | 3 | WAITERS);
        tm.commit(c);
        tm.commit(a);
        assert_eq!(lock.state.load(Ordering::Relaxed), SHARED | 1 | WAITERS);
        tm.commit(b);
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
        tm.abort(w, AbortReason::LockTimeout);
    }

    #[test]
    fn a_timeout_is_one_wait_and_an_acquire_that_never_blocked_is_none() {
        let (tm, lock) = (manager(5), word());
        let holder = holding(&tm, lock, Mode::Exclusive);
        lock.acquire(&holder, Mode::Shared).unwrap();
        tm.commit(holder);
        // Nothing charged means no clock read: the one `Instant::now`
        // on this path is the `Deadline` a charge is taken from.
        let idle = tm.stats().snapshot();
        assert_eq!((idle.lock_waits, idle.lock_wait.count()), (0, 0));
        let holder = holding(&tm, lock, Mode::Exclusive);
        let waiter = tm.begin();
        assert!(lock.acquire(&waiter, Mode::Exclusive).is_err());
        // The waiter keeps the time until its attempt ends.
        assert_eq!(tm.stats().snapshot().lock_waits, 0);
        tm.abort(waiter, AbortReason::LockTimeout);
        tm.commit(holder);
        let snap = tm.stats().snapshot();
        assert_eq!((snap.lock_timeouts, snap.lock_waits), (1, 1));
        assert_eq!(snap.lock_wait.count(), 1);
        assert!(snap.lock_wait.sum >= 5_000_000, "waited out the 5 ms");
    }

    #[test]
    fn a_blocked_then_granted_acquire_is_one_wait_of_the_time_it_blocked() {
        let (tm, lock) = (manager(20_000), word());
        let holder = holding(&tm, lock, Mode::Exclusive);
        let waiter = spawn_acquire(&tm, lock, Mode::Exclusive, move |txn| {
            lock.acquire(txn, Mode::Exclusive) // reentrant: no wait
        });
        until_parked(lock);
        std::thread::sleep(Duration::from_millis(3));
        tm.commit(holder);
        assert_eq!(waiter.join().unwrap(), Ok(Ok(())));
        let snap = tm.stats().snapshot();
        assert_eq!((snap.lock_timeouts, snap.lock_waits), (0, 1));
        assert_eq!(snap.lock_wait.count(), 1);
        assert!(snap.lock_wait.sum >= 3_000_000, "parked across the sleep");
    }

    #[test]
    fn lockword_parked_writer_wakes_on_the_last_shared_release() {
        let (tm, lock) = (manager(20_000), word());
        let r1 = holding(&tm, lock, Mode::Shared);
        let r2 = holding(&tm, lock, Mode::Shared);
        let start = Instant::now();
        let writer = spawn_acquire(&tm, lock, Mode::Exclusive, move |_| lock.holders());
        until_parked(lock);
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
        let (tm, lock) = (manager(20_000), word());
        let other = holding(&tm, lock, Mode::Shared);
        let start = Instant::now();
        let upgrader = spawn_acquire(&tm, lock, Mode::Shared, move |txn| {
            let r = lock.acquire(txn, Mode::Exclusive);
            r.map(|()| (lock.owner(), txn.held_lock_count()))
        });
        until_parked(lock);
        assert_eq!(lock.holders(), (None, 2));
        tm.commit(other);
        let (owner, held) = upgrader.join().unwrap().unwrap().unwrap();
        assert!(owner.is_some());
        assert_eq!(held, 1, "an upgrade is not a second hold");
        assert!(start.elapsed() < Duration::from_secs(10));
        assert_eq!(lock.state.load(Ordering::Relaxed), 0);
    }

    #[test]
    fn a_parked_waiter_wakes_on_its_word_while_a_bucket_mate_churns() {
        // Two words in one park bucket: a waiter parked on `a` must wake
        // on `a`'s release while `b`'s holders park, notify and keep
        // `WAITERS` in the same bucket.
        let a = word();
        let b = std::iter::repeat_with(word)
            .find(|b| std::ptr::eq(b.bucket(), a.bucket()))
            .unwrap();
        let tm = manager(20_000);
        let (holder, start) = (holding(&tm, a, Mode::Exclusive), Instant::now());
        let done = AtomicU64::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    while done.load(Ordering::Relaxed) == 0 {
                        let churn = |()| std::thread::sleep(Duration::from_millis(1));
                        tm.run(|t| b.acquire(t, Mode::Exclusive).map(churn))
                            .unwrap();
                    }
                });
            }
            let waiter = spawn_acquire(&tm, a, Mode::Exclusive, |_| ());
            until_parked(a);
            until_parked(b);
            tm.commit(holder);
            assert!(waiter.join().unwrap().is_ok());
            assert!(start.elapsed() < Duration::from_secs(10));
            done.store(1, Ordering::Relaxed);
        });
        assert!(a.is_free() && b.is_free());
    }
}
