//! Transactions and the transaction manager.

use crate::error::{Abort, AbortReason, TxnError};
use crate::inline::{ActionLog, Effect, Entry, LoggedAction, Run};
use crate::locks::AbstractLock;
use crate::mvcc::{CommitStamp, MvccDomain};
use crate::stats::TxnStats;
use crate::{retry, TxResult};
use std::cell::{Cell, RefCell};
use std::fmt;
use std::marker::PhantomData;
use std::num::NonZeroU64;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Globally unique transaction identifier.
///
/// Abstract locks record the `TxnId` of their owner, which is how
/// per-transaction reentrancy (as opposed to per-thread reentrancy) is
/// implemented.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct TxnId(NonZeroU64);

impl TxnId {
    /// The raw id, for packing into a lock word. Ids are minted from a
    /// counter starting at 1, so the value is nonzero and far below the
    /// lock word's flag bit.
    pub(crate) fn raw(self) -> u64 {
        self.0.get()
    }

    /// Reconstruct an id from a lock word's owner field (`None` for the
    /// free state, 0).
    pub(crate) fn from_raw(raw: u64) -> Option<TxnId> {
        NonZeroU64::new(raw).map(TxnId)
    }
}

impl fmt::Display for TxnId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "T{}", self.0)
    }
}

/// Lifecycle state of a transaction.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnState {
    /// Executing user code; may still log inverses and acquire locks.
    Active,
    /// Committed: undo log discarded, locks released, on-commit
    /// disposables executed.
    Committed,
    /// Aborted: undo log replayed in reverse, locks released, on-abort
    /// disposables executed.
    Aborted,
}

/// Tuning knobs for a [`TxnManager`].
#[derive(Debug, Clone)]
pub struct TxnConfig {
    /// How long an abstract-lock acquisition may block before the
    /// requesting transaction aborts (the paper's `LOCK_TIMEOUT`).
    /// Timeouts are the deadlock-recovery mechanism for two-phase
    /// abstract locking.
    pub lock_timeout: Duration,
    /// Retry budget for [`TxnManager::run`]. `None` retries forever,
    /// which matches the paper's experimental setup. Retries back off
    /// by [`crate::Backoff::default`].
    pub max_retries: Option<u64>,
}

impl Default for TxnConfig {
    fn default() -> Self {
        TxnConfig {
            lock_timeout: Duration::from_millis(10),
            max_retries: None,
        }
    }
}

/// Inline capacity of the effect log: deep enough for every in-tree
/// transaction script (the busiest, the server's guarded transfer,
/// logs 4 effects). Deeper logs spill to the heap, which only costs
/// the allocation the old `Vec<Box<dyn FnOnce>>` paid on *every* push.
const EFFECTS_INLINE: usize = 12;

/// Inline capacity of each deferred-action (on-commit / on-abort) log.
const DEFER_INLINE: usize = 4;

/// Inline capacity of the held-locks list.
const LOCKS_INLINE: usize = 8;

/// A vector with `N` inline slots; the spill `Vec` is touched only by
/// transactions holding unusually many locks. (The effect and deferred
/// logs use the type-erasing [`ActionLog`] instead; this plain safe
/// variant is for the already-`Sized` lock handles.)
#[derive(Debug)]
struct InlineVec<T, const N: usize> {
    inline: [Option<T>; N],
    spill: Vec<T>,
    len: usize,
}

impl<T, const N: usize> Default for InlineVec<T, N> {
    fn default() -> Self {
        InlineVec {
            inline: [const { None }; N],
            spill: Vec::new(),
            len: 0,
        }
    }
}

impl<T, const N: usize> InlineVec<T, N> {
    fn len(&self) -> usize {
        self.len
    }

    fn push(&mut self, value: T) {
        if self.len < N {
            self.inline[self.len] = Some(value);
        } else {
            self.spill.push(value);
        }
        self.len += 1;
    }

    fn pop(&mut self) -> Option<T> {
        if self.len == 0 {
            return None;
        }
        self.len -= 1;
        if self.len >= N {
            self.spill.pop()
        } else {
            self.inline[self.len].take()
        }
    }

    fn iter(&self) -> impl Iterator<Item = &T> {
        self.inline.iter().flatten().chain(&self.spill)
    }
}

/// A running transaction.
///
/// A `Txn` is handed to the closure passed to [`TxnManager::run`] (or
/// created manually with [`TxnManager::begin`]). Boosted objects use it
/// to:
///
/// * acquire **abstract locks** (via [`crate::locks`]), which are held
///   until the transaction commits or aborts (strict two-phase locking);
/// * log **inverses** with [`Txn::log_undo`] (or, beside the version
///   the call commits, [`Txn::log_effect`]) — on abort these run in
///   reverse (LIFO) order, per the paper's Rule 3;
/// * defer **disposable** calls with [`Txn::defer_on_commit`] /
///   [`Txn::defer_on_abort`] — these run after the transaction's fate is
///   decided, per Rule 4.
///
/// A `Txn` is deliberately neither `Send` nor `Sync`: it belongs to the
/// thread executing the transaction. The closures it stores must be
/// `Send + 'static` because they capture shared base objects (`Arc`s)
/// and logged values by move.
pub struct Txn {
    id: TxnId,
    state: Cell<TxnState>,
    /// One entry per logged call, holding both its fates: the inverse
    /// (run newest-first on abort) and the version install (run
    /// oldest-first at commit, stamped with the commit timestamp; see
    /// [`crate::mvcc`]).
    effects: RefCell<ActionLog<EFFECTS_INLINE>>,
    on_commit: RefCell<ActionLog<DEFER_INLINE>>,
    on_abort: RefCell<ActionLog<DEFER_INLINE>>,
    /// `Some` for read-only snapshot transactions: the registered
    /// reader guard pinning the GC floor at the snapshot timestamp.
    snapshot: Option<crate::mvcc::SnapshotGuard<'static>>,
    held_locks: RefCell<InlineVec<&'static AbstractLock, LOCKS_INLINE>>,
    lock_timeout: Duration,
    /// This attempt's blocked lock acquires and the time they took in
    /// all. Written only by an acquire that had to wait; the manager
    /// folds it into [`TxnStats`] when the attempt ends.
    lock_waits: Cell<(u32, Duration)>,
    /// Opt out of Send/Sync: a transaction is thread-confined.
    _not_send: PhantomData<*const ()>,
}

impl fmt::Debug for Txn {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Txn")
            .field("id", &self.id)
            .field("state", &self.state.get())
            .field("effects", &self.effects.borrow().len())
            .field("held_locks", &self.held_locks.borrow().len())
            .finish()
    }
}

impl Txn {
    fn new(
        id: TxnId,
        lock_timeout: Duration,
        snapshot: Option<crate::mvcc::SnapshotGuard<'static>>,
    ) -> Self {
        Txn {
            id,
            state: Cell::new(TxnState::Active),
            effects: RefCell::new(ActionLog::new()),
            on_commit: RefCell::new(ActionLog::new()),
            on_abort: RefCell::new(ActionLog::new()),
            snapshot,
            held_locks: RefCell::new(InlineVec::default()),
            lock_timeout,
            lock_waits: Cell::new((0, Duration::ZERO)),
            _not_send: PhantomData,
        }
    }

    /// Whether this is a read-only snapshot transaction
    /// ([`TxnManager::begin_read_only`]): no abstract locks, no undo
    /// logging, cannot abort on conflicts. Boosted calls that need an
    /// abstract lock fail with [`AbortReason::ReadOnlyViolation`].
    pub fn is_read_only(&self) -> bool {
        self.snapshot.is_some()
    }

    /// The snapshot timestamp a read-only transaction reads at
    /// (`None` for a normal read-write transaction). Boosted read
    /// methods route through their version slots when this is set.
    pub fn snapshot_ts(&self) -> Option<u64> {
        self.snapshot.as_ref().map(crate::mvcc::SnapshotGuard::ts)
    }

    /// This transaction's globally unique id.
    pub fn id(&self) -> TxnId {
        self.id
    }

    /// Current lifecycle state.
    pub fn state(&self) -> TxnState {
        self.state.get()
    }

    /// The lock-acquisition timeout this transaction was configured
    /// with; abstract locks consult it when blocking.
    pub fn lock_timeout(&self) -> Duration {
        self.lock_timeout
    }

    /// Log the inverse of a method call that just completed.
    ///
    /// If the transaction aborts, logged inverses run in reverse order
    /// of logging while the transaction still holds its abstract locks
    /// (no *new* locks are required to abort — Lemma 5.2 in the paper
    /// guarantees inverses commute with all live operations).
    ///
    /// Heap-allocation-free for closures capturing at most
    /// `INLINE_WORDS` (6) machine words while the log is at most
    /// `EFFECTS_INLINE` deep; see `core/src/inline.rs`. This is the
    /// one-armed form of [`Txn::log_effect`], for objects that keep no
    /// committed versions.
    ///
    /// # Panics
    /// Panics if the transaction is no longer active.
    // `inline`: with its yield point this is past the inliner's default
    // threshold, and a call copies the capture instead of building it in
    // place (`hotpath` `log-undo inline`).
    #[inline]
    pub fn log_undo(&self, inverse: impl FnOnce() + Send + 'static) {
        crate::det::yield_point(crate::det::Point::UndoPush);
        self.push_effect("log_undo", Run(inverse));
    }

    /// Log a call that just completed, once, with both its fates:
    /// `captured` is moved into the transaction's effect log — one
    /// handle to the object plus whatever of the call's arguments and
    /// result the arms need — and exactly one arm consumes it. `undo`
    /// is the inverse, run as [`Txn::log_undo`]'s would be; `install`
    /// is the version install, run only if the transaction commits:
    /// inside the commit's [`crate::MvccDomain::commit`] window, while
    /// abstract locks are still held, in the order logged, handed the
    /// commit's stamp (it typically calls [`crate::VersionStore::install`]
    /// with it).
    ///
    /// Heap-allocation-free under [`Txn::log_undo`]'s conditions, the
    /// sizes of `captured` and whatever the arms capture taken together
    /// (arms written as non-capturing closures add nothing).
    ///
    /// # Panics
    /// Panics if the transaction is no longer active.
    #[inline]
    pub fn log_effect<H: Send + 'static>(
        &self,
        captured: H,
        undo: impl FnOnce(H) + Send + 'static,
        install: impl FnOnce(H, CommitStamp) + Send + 'static,
    ) {
        crate::det::yield_point(crate::det::Point::UndoPush);
        self.push_effect("log_effect", Effect(captured, undo, install));
    }

    fn push_effect(&self, op: &str, entry: impl Entry) {
        self.assert_active(op);
        debug_assert!(
            !self.is_read_only(),
            "read-only transactions log no effects (the lock guards reject mutations first)"
        );
        self.effects.borrow_mut().push(entry);
    }

    /// Defer a *disposable* method call until after commit.
    ///
    /// Disposable calls (Definition 5.5) commute with everything that
    /// can legally follow, so they may be postponed arbitrarily — e.g. a
    /// transactional semaphore's `release`, or returning an ID to a
    /// pool. Actions run in the order they were deferred, after the
    /// transaction's locks are released.
    ///
    /// # Panics
    /// Panics if the transaction is no longer active.
    pub fn defer_on_commit(&self, action: impl FnOnce() + Send + 'static) {
        self.assert_active("defer_on_commit");
        self.on_commit.borrow_mut().push(Run(action));
    }

    /// Defer a *disposable* method call until after the transaction has
    /// finished aborting (e.g. `releaseID(x)` after an abort in the
    /// unique-ID-generator example). Runs after inverses have been
    /// replayed and locks released; never runs if the transaction
    /// commits.
    ///
    /// # Panics
    /// Panics if the transaction is no longer active.
    pub fn defer_on_abort(&self, action: impl FnOnce() + Send + 'static) {
        self.assert_active("defer_on_abort");
        self.on_abort.borrow_mut().push(Run(action));
    }

    /// Request an explicit abort. Returns the [`Abort`] token to
    /// propagate with `?` (or `return Err(...)`).
    pub fn abort(&self) -> Abort {
        Abort::explicit()
    }

    /// Number of entries currently in the effect log: one per logged
    /// inverse, install or two-armed effect (diagnostics/tests).
    pub fn undo_log_len(&self) -> usize {
        self.effects.borrow().len()
    }

    /// Number of logged entries (across all three logs) that were too
    /// large for inline storage and fell back to a heap allocation.
    /// Every in-tree effect stays inline; the `hotpath` bench asserts
    /// this is 0 for its inline undo pushes.
    pub fn boxed_action_count(&self) -> usize {
        self.effects.borrow().boxed_count()
            + self.on_commit.borrow().boxed_count()
            + self.on_abort.borrow().boxed_count()
    }

    /// Number of abstract locks currently registered (diagnostics/tests).
    pub fn held_lock_count(&self) -> usize {
        self.held_locks.borrow().len()
    }

    /// Register a lock this transaction now holds and did not before;
    /// it is released exactly once, when the transaction commits or
    /// finishes aborting.
    ///
    /// # Panics
    /// Panics if the transaction is no longer active.
    pub(crate) fn register_held_lock(&self, lock: &'static AbstractLock) {
        self.assert_active("register_held_lock");
        self.held_locks.borrow_mut().push(lock);
    }

    /// Charge one blocked lock acquire to this attempt: `waited` until
    /// it was granted, or until it timed out.
    pub(crate) fn charge_lock_wait(&self, waited: Duration) {
        let (blocked, total) = self.lock_waits.get();
        self.lock_waits.set((blocked + 1, total + waited));
    }

    /// Whether `lock` is on this transaction's held list. A lock word in
    /// shared mode counts its holders without naming them, so this list
    /// is how a transaction recognises its own shared hold.
    pub(crate) fn holds_lock(&self, lock: &AbstractLock) -> bool {
        self.held_locks
            .borrow()
            .iter()
            .any(|held| std::ptr::eq(*held, lock))
    }

    fn assert_active(&self, op: &str) {
        assert_eq!(
            self.state.get(),
            TxnState::Active,
            "{op} called on a transaction that is no longer active"
        );
    }

    /// Commit protocol: run the effect log's install arms (discarding
    /// the inverses with them), release abstract locks, then run
    /// deferred on-commit disposables.
    fn do_commit(&self) {
        debug_assert_eq!(self.state.get(), TxnState::Active);
        self.state.set(TxnState::Committed);
        self.on_abort.borrow_mut().clear();
        // Stamp and install versions while abstract locks are still
        // held: the timestamp is taken inside the locked window, so
        // timestamp order extends the lock-serialization order. The
        // locks stay held until the commit is stable too (`commit`
        // returns, having left the install window), so whoever takes one
        // next — a locked reader included — saw nothing a snapshot begun
        // afterwards could miss. A transaction that logged no install
        // takes no timestamp.
        if self.effects.borrow().has_installs() {
            MvccDomain::global().commit(|stamp| {
                if crate::det::mutated(crate::det::Mutation::LocksReleasedBeforeInstall) {
                    self.release_locks();
                }
                drain(&self.effects, ActionLog::pop_front, |effect| {
                    effect.install(stamp);
                });
            });
        } else {
            self.effects.borrow_mut().clear();
        }
        self.release_locks();
        drain(&self.on_commit, ActionLog::pop_front, LoggedAction::invoke);
    }

    /// Abort protocol: replay inverses LIFO *while still holding locks*
    /// (the paper's discipline — "when every inverse has been executed,
    /// the transaction releases its locks"), then release locks, then
    /// run deferred on-abort disposables.
    fn do_rollback(&self) {
        debug_assert_eq!(self.state.get(), TxnState::Active);
        self.state.set(TxnState::Aborted);
        self.on_commit.borrow_mut().clear();
        drain(&self.effects, ActionLog::pop, LoggedAction::invoke);
        self.release_locks();
        drain(&self.on_abort, ActionLog::pop_front, LoggedAction::invoke);
    }

    fn release_locks(&self) {
        // Release in reverse acquisition order (not required for
        // correctness — two-phase locking permits any release order at
        // end of transaction — but it keeps lock hand-off FIFO-ish).
        loop {
            let lock = self.held_locks.borrow_mut().pop();
            let Some(lock) = lock else { break };
            crate::det::yield_point(crate::det::Point::LockRelease);
            lock.release(self.id);
        }
    }
}

/// Hand `run` every entry `next` takes from `log`, where it lies
/// ([`ActionLog::pop_front`] oldest-first, [`ActionLog::pop`]
/// newest-first). The borrow is released around each call: an arm may
/// log nothing, but must not alias the borrow.
fn drain<const N: usize>(
    log: &RefCell<ActionLog<N>>,
    next: impl Fn(&mut ActionLog<N>) -> Option<LoggedAction>,
    run: impl Fn(LoggedAction),
) {
    loop {
        let action = next(&mut log.borrow_mut());
        let Some(action) = action else { break };
        run(action);
    }
}

impl Drop for Txn {
    /// Panic safety: if user code unwinds out of a transaction closure,
    /// the transaction still replays its undo log and releases its
    /// locks, so shared objects are never left inconsistent or
    /// permanently locked.
    fn drop(&mut self) {
        if self.state.get() == TxnState::Active {
            self.do_rollback();
        }
        // A commit or rollback that unwound part-way (a panicking
        // install or inverse) never reached its release.
        self.release_locks();
    }
}

/// Creates, retries, commits and aborts transactions.
///
/// One `TxnManager` is shared by all threads participating in a
/// transactional computation (it is `Send + Sync`); each call to
/// [`TxnManager::run`] executes one transaction on the calling thread.
#[derive(Debug)]
pub struct TxnManager {
    config: TxnConfig,
    stats: Arc<TxnStats>,
}

/// Transaction ids are drawn from one process-wide counter so that ids
/// are unique even across multiple managers — abstract-lock ownership
/// is keyed by [`TxnId`], and objects may be shared by transactions
/// from different managers. Threads carve [`ID_BLOCK`] ids at a time
/// off it, so `begin` writes no shared cache line.
static NEXT_TXN_ID: AtomicU64 = AtomicU64::new(1);

/// Ids a thread takes from [`NEXT_TXN_ID`] at once. A thread that exits
/// mid-block leaks the rest: ids are never reused.
const ID_BLOCK: u64 = 1024;

thread_local! {
    /// This thread's unminted ids, `next..end` (empty until first use).
    static MY_IDS: Cell<(u64, u64)> = const { Cell::new((0, 0)) };
}

/// Mint a fresh id from this thread's block, refilling it when empty.
pub(crate) fn next_txn_id() -> TxnId {
    let (mut next, mut end) = MY_IDS.get();
    if next == end {
        next = NEXT_TXN_ID.fetch_add(ID_BLOCK, Ordering::Relaxed);
        end = next + ID_BLOCK;
    }
    MY_IDS.set((next + 1, end));
    TxnId(NonZeroU64::new(next).expect("transaction id counter overflowed"))
}

impl Default for TxnManager {
    fn default() -> Self {
        TxnManager::new(TxnConfig::default())
    }
}

impl TxnManager {
    /// Create a manager with the given configuration.
    pub fn new(config: TxnConfig) -> Self {
        TxnManager {
            config,
            stats: Arc::new(TxnStats::default()),
        }
    }

    /// Shared handle to the manager's counters.
    pub fn stats(&self) -> Arc<TxnStats> {
        Arc::clone(&self.stats)
    }

    /// Run `body` as a transaction, retrying on abort with randomized
    /// exponential backoff ([`retry`]).
    ///
    /// The closure may be executed several times; it observes committed
    /// state only through boosted objects, whose abstract locks and undo
    /// logs guarantee each attempt starts from a consistent state.
    ///
    /// Returns `Ok` with the closure's result once an attempt commits,
    /// or `Err(TxnError::RetriesExhausted)` if
    /// [`TxnConfig::max_retries`] is set and exceeded.
    pub fn run<R>(&self, mut body: impl FnMut(&Txn) -> TxResult<R>) -> Result<R, TxnError> {
        retry(self.config.max_retries, || {
            let txn = self.begin();
            let outcome = body(&txn);
            match &outcome {
                Ok(_) => self.commit(txn),
                Err(abort) => self.abort(txn, abort.reason()),
            }
            outcome
        })
    }

    /// Begin a transaction without the retry loop. Useful for tests,
    /// history recording, and integrating with external control flow;
    /// most code should prefer [`TxnManager::run`].
    pub fn begin(&self) -> Txn {
        Txn::new(next_txn_id(), self.config.lock_timeout, None)
    }

    /// Begin a **read-only snapshot transaction**: it registers as a
    /// reader at the global [`crate::MvccDomain`]'s stable timestamp
    /// and reads boosted objects from their version slots at that
    /// snapshot. It acquires no abstract locks, logs no inverses, and
    /// cannot abort on conflicts — a call that needs an abstract lock
    /// (a mutation, or a read of an object that keeps no versions) fails
    /// with [`AbortReason::ReadOnlyViolation`] instead. Most callers should
    /// prefer [`TxnManager::run_read_only`].
    pub fn begin_read_only(&self) -> Txn {
        let id = next_txn_id();
        let snapshot = MvccDomain::global().begin_snapshot();
        Txn::new(id, self.config.lock_timeout, Some(snapshot))
    }

    /// Run `body` as a read-only snapshot transaction. There is no
    /// conflict to retry: the snapshot is immutable for the
    /// transaction's lifetime, so the error paths are program decisions
    /// (an explicit abort, or a call that needs an abstract lock,
    /// answered with [`TxnError::ReadOnlyViolation`]) and a map's first
    /// snapshot read. That read arms the map, waiting up to the lock
    /// timeout for the map's writers (a timeout is
    /// `RetriesExhausted(LockTimeout)`); if the snapshot is older than
    /// the map's versions, `body` runs again on a fresh snapshot — once
    /// per map it arms, so at most once for a body that reads one.
    pub fn run_read_only<R>(
        &self,
        mut body: impl FnMut(&Txn) -> TxResult<R>,
    ) -> Result<R, TxnError> {
        loop {
            let txn = self.begin_read_only();
            match body(&txn) {
                Ok(value) => {
                    self.commit(txn);
                    return Ok(value);
                }
                Err(abort) => {
                    let reason = abort.reason();
                    self.abort(txn, reason);
                    if reason == AbortReason::SnapshotTooOld {
                        continue;
                    }
                    return Err(match reason {
                        AbortReason::Explicit => TxnError::ExplicitlyAborted,
                        AbortReason::ReadOnlyViolation => TxnError::ReadOnlyViolation,
                        // A lock timeout is an arming that waited too
                        // long; user closures may return any abort.
                        // Never retried.
                        other => TxnError::RetriesExhausted(other),
                    });
                }
            }
        }
    }

    /// Commit a transaction begun with [`TxnManager::begin`].
    pub fn commit(&self, txn: Txn) {
        crate::det::yield_point(crate::det::Point::Commit);
        txn.do_commit();
        self.stats.record_commit();
        self.fold_lock_waits(&txn);
    }

    /// Abort a transaction begun with [`TxnManager::begin`]: replay its
    /// undo log, release its locks, run its on-abort disposables.
    pub fn abort(&self, txn: Txn, reason: AbortReason) {
        crate::det::yield_point(crate::det::Point::Abort);
        txn.do_rollback();
        self.stats.record_abort(reason);
        self.fold_lock_waits(&txn);
    }

    /// Count what the finished attempt's blocked acquires cost it.
    /// One that never blocked — nearly all of them — adds nothing.
    fn fold_lock_waits(&self, txn: &Txn) {
        let (blocked, waited) = txn.lock_waits.get();
        if blocked > 0 {
            self.stats.record_lock_waits(blocked, waited);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicI64;
    use std::sync::Mutex;

    #[test]
    fn commit_runs_on_commit_actions_in_order() {
        let tm = TxnManager::default();
        let order = Arc::new(Mutex::new(Vec::new()));
        let (o1, o2) = (order.clone(), order.clone());
        tm.run(move |txn| {
            let (o1, o2) = (o1.clone(), o2.clone());
            txn.defer_on_commit(move || o1.lock().unwrap().push(1));
            txn.defer_on_commit(move || o2.lock().unwrap().push(2));
            Ok(())
        })
        .unwrap();
        assert_eq!(*order.lock().unwrap(), vec![1, 2]);
    }

    #[test]
    fn abort_replays_undo_log_in_reverse() {
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let order = Arc::new(Mutex::new(Vec::new()));
        let o = order.clone();
        let res: Result<(), TxnError> = tm.run(move |txn| {
            let (a, b) = (o.clone(), o.clone());
            txn.log_undo(move || a.lock().unwrap().push("first-logged"));
            txn.log_undo(move || b.lock().unwrap().push("second-logged"));
            Err(Abort::explicit())
        });
        assert!(matches!(res, Err(TxnError::ExplicitlyAborted)));
        assert_eq!(
            *order.lock().unwrap(),
            vec!["second-logged", "first-logged"]
        );
    }

    #[test]
    fn abort_runs_on_abort_but_not_on_commit() {
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let count = Arc::new(AtomicI64::new(0));
        let c = count.clone();
        let _ = tm.run(move |txn| {
            let inc = c.clone();
            txn.defer_on_abort(move || {
                inc.fetch_add(1, Ordering::SeqCst);
            });
            let dec = c.clone();
            txn.defer_on_commit(move || {
                dec.fetch_add(-100, Ordering::SeqCst);
            });
            Err::<(), _>(Abort::explicit())
        });
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn commit_discards_undo_log_and_on_abort() {
        let tm = TxnManager::default();
        let count = Arc::new(AtomicI64::new(0));
        let c = count.clone();
        tm.run(move |txn| {
            let u = c.clone();
            txn.log_undo(move || {
                u.fetch_add(1, Ordering::SeqCst);
            });
            let a = c.clone();
            txn.defer_on_abort(move || {
                a.fetch_add(1, Ordering::SeqCst);
            });
            Ok(())
        })
        .unwrap();
        assert_eq!(count.load(Ordering::SeqCst), 0);
    }

    #[test]
    fn retry_reexecutes_closure_until_success() {
        let tm = TxnManager::default();
        let tries = Cell::new(0);
        let v = tm
            .run(|_txn| {
                tries.set(tries.get() + 1);
                if tries.get() < 3 {
                    Err(Abort::conflict())
                } else {
                    Ok(tries.get())
                }
            })
            .unwrap();
        assert_eq!(v, 3);
        let snap = tm.stats().snapshot();
        assert_eq!(snap.started, 3);
        assert_eq!(snap.committed, 1);
        assert_eq!(snap.aborted, 2);
        assert_eq!(snap.conflict_aborts, 2);
    }

    #[test]
    fn txn_ids_are_unique_and_increasing() {
        let tm = TxnManager::default();
        let a = tm.begin();
        let b = tm.begin();
        assert_ne!(a.id(), b.id());
        assert!(a.id() < b.id());
        tm.commit(a);
        tm.abort(b, AbortReason::Explicit);
    }

    #[test]
    fn txn_ids_are_unique_across_managers() {
        // Abstract-lock ownership is keyed by TxnId; two managers
        // sharing boosted objects must never mint the same id.
        let tm1 = TxnManager::default();
        let tm2 = TxnManager::default();
        let a = tm1.begin();
        let b = tm2.begin();
        assert_ne!(a.id(), b.id());
        tm1.commit(a);
        tm2.commit(b);
    }

    #[test]
    fn txn_ids_are_unique_across_threads_and_managers() {
        const THREADS: usize = 8;
        const BEGINS: usize = 5_000; // several ID_BLOCKs per thread
        let managers = [TxnManager::default(), TxnManager::default()];
        let per_thread: Vec<Vec<TxnId>> = std::thread::scope(|s| {
            let handles: Vec<_> = (0..THREADS)
                .map(|_| {
                    s.spawn(|| {
                        let begin = |i: usize| {
                            let tm = &managers[i % 2];
                            let txn = tm.begin();
                            let id = txn.id();
                            tm.commit(txn);
                            id
                        };
                        (0..BEGINS).map(begin).collect()
                    })
                })
                .collect();
            handles.into_iter().map(|h| h.join().unwrap()).collect()
        });
        for ids in &per_thread {
            assert!(ids.windows(2).all(|w| w[0] < w[1]), "not increasing");
        }
        let distinct: std::collections::HashSet<_> = per_thread.iter().flatten().collect();
        assert_eq!(distinct.len(), THREADS * BEGINS, "an id was minted twice");
    }

    #[test]
    fn a_thread_that_exits_mid_block_leaks_its_ids() {
        let tm = TxnManager::default();
        let one_begin = || std::thread::scope(|s| s.spawn(|| tm.begin().id()).join().unwrap());
        let block_of = |id: TxnId| (id.raw() - 1) / ID_BLOCK;
        let first = one_begin();
        let second = one_begin();
        // The first thread used one id of its block; the rest are gone
        // for good, not handed to the next thread.
        assert!(block_of(second) > block_of(first), "{first} then {second}");
    }

    #[test]
    fn snapshot_is_exact_after_a_concurrent_outcome_mix() {
        const THREADS: u64 = 4;
        const ROUNDS: u64 = 500;
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        std::thread::scope(|s| {
            for _ in 0..THREADS {
                s.spawn(|| {
                    for _ in 0..ROUNDS {
                        tm.run(|_| Ok(())).unwrap();
                        tm.run(|_| Ok(())).unwrap();
                        let _ = tm.run(|t| Err::<(), _>(t.abort()));
                        let _ = tm.run(|_| Err::<(), _>(Abort::conflict()));
                        tm.abort(tm.begin(), AbortReason::Other);
                    }
                });
            }
        });
        let n = THREADS * ROUNDS;
        let snap = tm.stats().snapshot();
        assert_eq!((snap.committed, snap.aborted), (2 * n, 3 * n));
        assert_eq!(snap.started, snap.committed + snap.aborted);
        assert_eq!((snap.explicit_aborts, snap.conflict_aborts), (n, n));
        assert_eq!((snap.lock_timeouts, snap.would_block_aborts), (0, 0));
    }

    #[test]
    fn drop_of_active_txn_rolls_back() {
        let tm = TxnManager::default();
        let count = Arc::new(AtomicI64::new(0));
        {
            let txn = tm.begin();
            let c = count.clone();
            txn.log_undo(move || {
                c.fetch_add(1, Ordering::SeqCst);
            });
            // txn dropped here while still active (simulates a panic
            // unwinding through the transaction closure).
        }
        assert_eq!(count.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn a_panicking_version_install_still_releases_locks() {
        let tm = TxnManager::default();
        let owner = crate::locks::ObjectLock::new();
        let (lock, txn) = (owner.word(), tm.begin());
        lock.acquire(&txn, crate::locks::Mode::Exclusive).unwrap();
        txn.log_effect((), |()| {}, |(), _| panic!("install failed"));
        let unwound = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| tm.commit(txn)));
        assert!(unwound.is_err());
        assert_eq!(lock.owner(), None, "lock outlived its transaction");
        // The global commit window closed too: the next commit returns.
        tm.run(|t| {
            t.log_effect((), |()| {}, |(), _| {});
            Ok(())
        })
        .unwrap();
    }

    #[test]
    #[should_panic(expected = "no longer active")]
    fn logging_after_commit_panics() {
        let tm = TxnManager::default();
        let txn = tm.begin();
        // Commit via the internal protocol, keeping the value alive.
        txn.do_commit();
        txn.log_undo(|| {});
    }

    #[test]
    fn state_transitions_are_observable() {
        let tm = TxnManager::default();
        let txn = tm.begin();
        assert_eq!(txn.state(), TxnState::Active);
        txn.do_commit();
        assert_eq!(txn.state(), TxnState::Committed);

        let txn = tm.begin();
        txn.do_rollback();
        assert_eq!(txn.state(), TxnState::Aborted);
    }

    #[test]
    fn max_retries_zero_means_single_attempt() {
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let mut attempts = 0;
        let res: Result<(), TxnError> = tm.run(|_| {
            attempts += 1;
            Err(Abort::conflict())
        });
        assert!(matches!(
            res,
            Err(TxnError::RetriesExhausted(AbortReason::Conflict))
        ));
        assert_eq!(attempts, 1);
    }

    #[test]
    fn explicit_abort_is_never_retried() {
        // Even with an unlimited retry budget.
        let tm = TxnManager::default();
        let mut attempts = 0;
        let res: Result<(), TxnError> = tm.run(|_| {
            attempts += 1;
            Err(Abort::explicit())
        });
        assert!(matches!(res, Err(TxnError::ExplicitlyAborted)));
        assert_eq!(attempts, 1);
    }
}
