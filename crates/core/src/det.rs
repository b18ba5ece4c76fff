//! Deterministic-scheduling hooks, compiled into every build.
//!
//! Shuttle-style schedule exploration needs every interleaving-relevant
//! decision in the runtime to flow through a single choice point. This
//! module is that funnel: the lock, undo-log, commit/abort and backoff
//! paths call [`yield_point`] / [`block_tick`], and a test harness (the
//! `txboost-sched` crate) installs a [`DetScheduler`] per logical
//! thread that serializes execution and picks who runs next.
//!
//! Everything here is **runtime-gated**: each hook first reads one
//! process-wide count of installed schedulers, relaxed, and returns at
//! once when it is 0; with schedulers installed elsewhere in the
//! process, a thread without one finds none in its thread-local and
//! behaves as if the count were 0. So the tests run the program that
//! ships. Timeouts under a scheduler use **virtual time**: a tick clock
//! advanced by blocked threads (see [`block_tick`]) replaces
//! `Instant::now()`, so deadlock recovery is reproducible instead of
//! wall-clock dependent. A run may also stage a [`Mutation`] — a
//! deliberate defect its sweep must catch — which [`mutated`] reports
//! on that run's threads only.

use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Real-time value of one virtual tick. A blocked acquisition advances
/// the clock one tick per scheduling round, so the default 10 ms
/// `lock_timeout` becomes 100 rounds of waiting — long enough that an
/// unlucky schedule does not time out spuriously, short enough that an
/// engineered deadlock resolves within a few hundred steps.
pub const TICK: Duration = Duration::from_micros(100);

/// Labels for the instrumented decision points, recorded into the
/// schedule so a failing run can be read back step by step.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Point {
    /// A thread was handed its first time slice.
    Start,
    /// An abstract-lock acquisition attempt (any lock discipline).
    LockAcquire,
    /// A blocked acquisition burned one virtual tick while waiting.
    LockBlocked,
    /// A two-phase lock is about to be released at commit/abort.
    LockRelease,
    /// An inverse was pushed onto the undo log.
    UndoPush,
    /// A transaction is about to commit.
    Commit,
    /// A transaction is about to roll back.
    Abort,
    /// The retry loop backed off after an abort.
    Backoff,
    /// An STM transactional read.
    StmRead,
    /// An STM commit is about to lock its write set.
    StmWrite,
    /// An STM commit-time validation step.
    StmValidate,
    /// A WAL commit record is about to be appended to a segment.
    WalAppend,
    /// A WAL leader took the run of pending commit records it will
    /// write and fsync.
    WalLead,
    /// A WAL leader is about to fsync the active segment.
    WalFsync,
    /// The active WAL segment reached its size cap and is rolling.
    WalSegmentRoll,
    /// A committed write is about to install a new version into an
    /// object's version chain.
    VersionInstall,
    /// A read-only transaction is about to read a version at its
    /// snapshot timestamp.
    SnapshotRead,
    /// A version chain is about to garbage-collect versions below the
    /// oldest-live-reader floor.
    VersionGc,
    /// A thread's body returned (recorded by the harness itself).
    Finish,
    /// A test-inserted yield (via [`yield_point`] from test code).
    User,
}

impl std::fmt::Display for Point {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{self:?}")
    }
}

/// The scheduler interface the instrumented runtime calls into. One
/// implementation lives in the `txboost-sched` crate; the trait is
/// defined here so `txboost-core` needs no dependency on the harness.
pub trait DetScheduler: Send + Sync {
    /// Logical thread `tid` reached decision point `point`; the
    /// scheduler may suspend it here and run another thread.
    fn yield_point(&self, tid: usize, point: Point);

    /// Logical thread `tid` is blocked (e.g. waiting for an abstract
    /// lock). Must advance the virtual clock by one tick and yield, so
    /// that an all-threads-blocked deadlock makes progress toward the
    /// lock-timeout deadline instead of hanging.
    fn block_tick(&self, tid: usize);

    /// Current virtual time, in ticks.
    fn virtual_now(&self) -> u64;

    /// Whether the run this scheduler drives was started with `m`.
    fn mutated(&self, m: Mutation) -> bool;
}

/// A defect a det suite stages for one scheduled run, to prove that its
/// sweep notices it. Read through [`mutated`]; there is no other switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mutation {
    /// `MvccDomain::gc_floor` ignores the registered snapshot readers.
    IgnoreReaderFloor,
    /// `CommitClock::publish` makes its timestamp stable without waiting
    /// for older ones still installing.
    PublishOutOfOrder,
    /// The WAL's group-commit leader moves the durable watermark before
    /// the fsync that covers it.
    AckBeforeSync,
}

thread_local! {
    static CURRENT: RefCell<Option<(Arc<dyn DetScheduler>, usize)>> =
        const { RefCell::new(None) };
}

/// Threads of this process with a scheduler installed. Every hook reads
/// it first, relaxed, and returns at once when it is 0 — the whole cost
/// of the hooks in a process that never runs the harness. A thread with
/// a scheduler always reads at least its own count (it wrote it, and
/// only its own [`uninstall`] takes it back); a thread without one may
/// read anything and then finds nothing in its thread-local.
static INSTALLED: AtomicUsize = AtomicUsize::new(0);

/// Install `sched` as this thread's scheduler, with logical thread id
/// `tid`. Until [`uninstall`] the thread's instrumented runtime calls
/// route through the scheduler. Harness-internal; tests use the
/// `txboost-sched` entry points instead of calling this directly.
pub fn install(sched: Arc<dyn DetScheduler>, tid: usize) {
    if CURRENT
        .with(|c| c.borrow_mut().replace((sched, tid)))
        .is_none()
    {
        INSTALLED.fetch_add(1, Ordering::Relaxed);
    }
}

/// Remove this thread's scheduler; instrumented paths revert to their
/// wall-clock behaviour.
pub fn uninstall() {
    if CURRENT.with(|c| c.borrow_mut().take()).is_some() {
        INSTALLED.fetch_sub(1, Ordering::Relaxed);
    }
}

/// How many threads of the process have a scheduler installed.
#[inline]
pub fn installed() -> usize {
    INSTALLED.load(Ordering::Relaxed)
}

/// Whether a deterministic scheduler is installed on this thread.
#[inline]
pub fn active() -> bool {
    installed() != 0 && CURRENT.with(|c| c.borrow().is_some())
}

#[inline]
fn with_sched<R>(f: impl FnOnce(&Arc<dyn DetScheduler>, usize) -> R) -> Option<R> {
    if installed() == 0 {
        return None;
    }
    with_installed(f)
}

#[cold]
fn with_installed<R>(f: impl FnOnce(&Arc<dyn DetScheduler>, usize) -> R) -> Option<R> {
    // Clone the handle out of the thread-local before calling into the
    // scheduler: yields block for a long time and must not hold the
    // RefCell borrow.
    let entry = CURRENT.with(|c| c.borrow().clone());
    entry.map(|(sched, tid)| f(&sched, tid))
}

/// Offer the scheduler a chance to switch threads at `point`. No-op
/// without an installed scheduler, and while a panic is unwinding (so
/// rollback-during-unwind never context-switches).
#[inline]
pub fn yield_point(point: Point) {
    if installed() != 0 {
        yield_installed(point);
    }
}

/// [`yield_point`]'s slow path, kept out of line and monomorphic so the
/// inlined gate at each hook is a load, a test and a call.
#[cold]
#[inline(never)]
fn yield_installed(point: Point) {
    with_installed(|s, tid| {
        if !std::thread::panicking() {
            s.yield_point(tid, point);
        }
    });
}

/// Report that this thread is blocked: advance virtual time one tick
/// and yield. No-op without an installed scheduler, and while a panic
/// is unwinding.
#[inline]
pub fn block_tick() {
    with_sched(|s, tid| {
        if !std::thread::panicking() {
            s.block_tick(tid);
        }
    });
}

/// Current virtual time in ticks (0 without an installed scheduler).
#[inline]
pub fn virtual_now() -> u64 {
    with_sched(|s, _| s.virtual_now()).unwrap_or(0)
}

/// Whether `m` is staged for this thread: its installed scheduler drives
/// a run started with `m`. Always `false` on a thread with no
/// scheduler, so a mutation is inert outside the run that staged it.
#[inline]
pub fn mutated(m: Mutation) -> bool {
    with_sched(|s, _| s.mutated(m)).unwrap_or(false)
}

/// Convert a wall-clock timeout to virtual ticks (1 to `u64::MAX`).
pub fn ticks_for(timeout: Duration) -> u64 {
    (timeout.as_nanos() / TICK.as_nanos()).clamp(1, u64::MAX.into()) as u64
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64;

    struct CountingSched {
        yields: AtomicU64,
        ticks: AtomicU64,
    }

    impl DetScheduler for CountingSched {
        fn yield_point(&self, _tid: usize, _point: Point) {
            self.yields.fetch_add(1, Ordering::SeqCst);
        }
        fn block_tick(&self, _tid: usize) {
            self.ticks.fetch_add(1, Ordering::SeqCst);
        }
        fn virtual_now(&self) -> u64 {
            self.ticks.load(Ordering::SeqCst)
        }
        fn mutated(&self, m: Mutation) -> bool {
            m == Mutation::AckBeforeSync
        }
    }

    #[test]
    fn hooks_are_noops_without_scheduler() {
        assert!(!active());
        yield_point(Point::User);
        block_tick();
        assert_eq!(virtual_now(), 0);
        assert!(!mutated(Mutation::AckBeforeSync));
    }

    #[test]
    fn installed_scheduler_sees_every_hook() {
        let sched = Arc::new(CountingSched {
            yields: AtomicU64::new(0),
            ticks: AtomicU64::new(0),
        });
        install(sched.clone(), 7);
        assert!(active());
        yield_point(Point::LockAcquire);
        yield_point(Point::Commit);
        block_tick();
        assert_eq!(virtual_now(), 1);
        assert!(mutated(Mutation::AckBeforeSync));
        assert!(!mutated(Mutation::PublishOutOfOrder));
        uninstall();
        assert!(!active());
        assert!(!mutated(Mutation::AckBeforeSync));
        yield_point(Point::User); // must not reach the scheduler
        assert_eq!(sched.yields.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn tick_conversion_rounds_up_to_one() {
        assert_eq!(ticks_for(Duration::from_nanos(1)), 1);
        assert_eq!(ticks_for(Duration::from_millis(10)), 100);
    }

    #[test]
    fn tick_conversion_saturates_instead_of_wrapping() {
        assert_eq!(ticks_for(Duration::MAX), u64::MAX);
    }
}
