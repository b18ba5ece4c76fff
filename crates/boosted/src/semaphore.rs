//! The transactional semaphore — Section 3.3.1 of the paper.
//!
//! `acquire()` decrements the counter immediately, blocking while the
//! *committed* count is zero; its inverse (replayed if the transaction
//! aborts) is an increment. `release()` is **disposable** (Definition
//! 5.5): it takes effect only when the transaction commits, via a
//! deferred action. As the paper notes, a transactional semaphore
//! cannot be built from read/write synchronization — a transaction
//! blocked in `acquire` must be able to observe a *concurrent,
//! uncommitted* transaction's committed `release`, which conventional
//! STM isolation forbids — "they require boosting to avoid deadlock".

use parking_lot::{Condvar, Mutex};
use std::sync::Arc;
use txboost_core::locks::Deadline;
use txboost_core::{Abort, TxResult, Txn};

#[derive(Debug)]
struct SemInner {
    count: Mutex<u64>,
    cv: Condvar,
}

impl SemInner {
    fn increment(&self) {
        let mut c = self.count.lock();
        *c += 1;
        self.cv.notify_one();
    }
}

/// A counting semaphore whose operations are transactional.
///
/// Cloning yields another handle to the same semaphore (handles are
/// what undo/deferred closures capture).
///
/// # Example
///
/// ```
/// use txboost_core::TxnManager;
/// use txboost_collections::TSemaphore;
///
/// let tm = TxnManager::default();
/// let sem = TSemaphore::new(1);
/// let s = sem.clone();
/// tm.run(move |t| {
///     s.acquire(t)?;            // immediate
///     assert_eq!(s.available(), 0);
///     s.release(t);             // disposable: applied at commit
///     assert_eq!(s.available(), 0);
///     Ok(())
/// }).unwrap();
/// assert_eq!(sem.available(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct TSemaphore {
    inner: Arc<SemInner>,
}

impl TSemaphore {
    /// A semaphore with `permits` initial permits.
    pub fn new(permits: u64) -> Self {
        TSemaphore {
            inner: Arc::new(SemInner {
                count: Mutex::new(permits),
                cv: Condvar::new(),
            }),
        }
    }

    /// Transactionally take a permit.
    ///
    /// Takes effect immediately: blocks (up to the transaction's lock
    /// timeout) while the committed count is zero, then decrements. On
    /// abort the undo log re-increments. A timeout aborts the
    /// transaction with [`Abort::would_block`] — the conditional-
    /// synchronization analogue of deadlock recovery. The wait goes
    /// through [`Deadline`], so under a deterministic scheduler every
    /// blocked round is a schedulable event and the harness explores
    /// wake orders between blocked consumers and committing producers.
    pub fn acquire(&self, txn: &Txn) -> TxResult<()> {
        // Taking a permit mutates abstract state; read-only snapshot
        // transactions are rejected with a typed, non-retried error.
        if txn.is_read_only() {
            return Err(Abort::read_only_violation());
        }
        txboost_core::det::yield_point(txboost_core::det::Point::LockAcquire);
        let deadline = Deadline::after(txn.lock_timeout());
        let mut count = self.inner.count.lock();
        while *count == 0 {
            if deadline.wait(&self.inner.cv, &mut count) && *count == 0 {
                return Err(Abort::would_block());
            }
        }
        *count -= 1;
        drop(count);
        let inner = Arc::clone(&self.inner);
        txn.log_undo(move || inner.increment());
        Ok(())
    }

    /// Transactionally return a permit.
    ///
    /// **Disposable**: deferred until the transaction commits, so no
    /// concurrent transaction can consume a permit released by a
    /// transaction that later aborts. Never runs if the transaction
    /// aborts.
    pub fn release(&self, txn: &Txn) {
        let inner = Arc::clone(&self.inner);
        txn.defer_on_commit(move || inner.increment());
    }

    /// Non-blocking variant of [`TSemaphore::acquire`]: aborts the
    /// transaction immediately if no permit is available. The server's
    /// `SemAcquire` is this: a script that may hold locks must not wait
    /// for a releaser, who might be waiting for one of them.
    pub fn try_acquire(&self, txn: &Txn) -> TxResult<()> {
        if txn.is_read_only() {
            return Err(Abort::read_only_violation());
        }
        let mut count = self.inner.count.lock();
        if *count == 0 {
            return Err(Abort::would_block());
        }
        *count -= 1;
        drop(count);
        let inner = Arc::clone(&self.inner);
        txn.log_undo(move || inner.increment());
        Ok(())
    }

    /// Current committed permit count (diagnostic; racy).
    pub fn available(&self) -> u64 {
        *self.inner.count.lock()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use txboost_core::{AbortReason, TxnConfig, TxnManager};

    fn tm_fast() -> TxnManager {
        TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(10),
            max_retries: Some(0),
            ..TxnConfig::default()
        })
    }

    #[test]
    fn acquire_decrements_immediately_release_waits_for_commit() {
        let tm = TxnManager::default();
        let sem = TSemaphore::new(2);
        let sem2 = sem.clone();
        tm.run(move |txn| {
            sem2.acquire(txn)?;
            assert_eq!(sem2.available(), 1, "acquire must take effect immediately");
            sem2.release(txn);
            assert_eq!(
                sem2.available(),
                1,
                "release must be deferred until commit (disposable)"
            );
            Ok(())
        })
        .unwrap();
        assert_eq!(sem.available(), 2);
    }

    #[test]
    fn aborted_acquire_returns_the_permit() {
        let tm = tm_fast();
        let sem = TSemaphore::new(1);
        let sem2 = sem.clone();
        let r: Result<(), _> = tm.run(move |txn| {
            sem2.acquire(txn)?;
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(sem.available(), 1, "undo must re-increment");
    }

    #[test]
    fn aborted_release_never_happens() {
        let tm = tm_fast();
        let sem = TSemaphore::new(0);
        let sem2 = sem.clone();
        let r: Result<(), _> = tm.run(move |txn| {
            sem2.release(txn);
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(sem.available(), 0, "aborted release leaked a permit");
    }

    #[test]
    fn exhausted_semaphore_aborts_with_would_block() {
        let tm = tm_fast();
        let sem = TSemaphore::new(1);
        let t1 = tm.begin();
        sem.acquire(&t1).unwrap();
        let t2 = tm.begin();
        assert_eq!(
            sem.acquire(&t2).unwrap_err().reason(),
            AbortReason::WouldBlock
        );
        assert_eq!(
            sem.try_acquire(&t2).unwrap_err().reason(),
            AbortReason::WouldBlock
        );
        tm.commit(t1);
        tm.commit(t2);
    }

    #[test]
    fn blocked_acquire_wakes_on_concurrent_commit() {
        let tm = std::sync::Arc::new(TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_secs(2),
            ..TxnConfig::default()
        }));
        let sem = TSemaphore::new(0);
        let (tm2, sem2) = (std::sync::Arc::clone(&tm), sem.clone());
        let waiter = std::thread::spawn(move || tm2.run(|txn| sem2.acquire(txn)));
        std::thread::sleep(Duration::from_millis(30));
        // A committing releaser unblocks the waiter.
        tm.run(|txn| {
            sem.release(txn);
            Ok(())
        })
        .unwrap();
        waiter.join().unwrap().unwrap();
        assert_eq!(sem.available(), 0);
    }

    #[test]
    fn permits_conserved_under_concurrent_acquire_release() {
        let tm = std::sync::Arc::new(TxnManager::default());
        let sem = TSemaphore::new(4);
        crossbeam::scope(|sc| {
            for _ in 0..8 {
                let tm = std::sync::Arc::clone(&tm);
                let sem = sem.clone();
                sc.spawn(move |_| {
                    for _ in 0..200 {
                        tm.run(|txn| {
                            sem.acquire(txn)?;
                            sem.release(txn);
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(sem.available(), 4, "permits leaked or lost");
    }
}
