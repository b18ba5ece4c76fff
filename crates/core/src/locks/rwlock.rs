//! `TxRwLock` — a two-phase transactional readers-writer lock.

use super::abstract_lock::{AbstractLock, Mode};
use crate::{TxResult, Txn, TxnId};
use std::sync::Arc;

/// A two-phase readers-writer abstract lock: an [`AbstractLock`] whose
/// callers pick the mode per method.
///
/// This is the conflict discipline of the paper's boosted heap
/// (Figure 5): `add(x)` calls commute with each other (the base heap's
/// fine-grained thread-level synchronization handles their
/// interleaving), so they acquire the lock in **shared** mode, while
/// `removeMin()` does not commute with `add` or with another
/// `removeMin`, so it acquires **exclusive** mode.
///
/// Semantics:
/// * many transactions may hold shared mode concurrently;
/// * exclusive mode excludes everyone else (shared and exclusive);
/// * a transaction already holding exclusive mode gets shared requests
///   for free;
/// * a shared holder asking for exclusive mode **upgrades**, waiting for
///   the other readers to finish. Two concurrent upgraders deadlock and
///   are broken by the acquisition timeout, aborting one of them.
/// * all holds are released together when the transaction commits or
///   aborts (strict two-phase locking).
#[derive(Debug, Clone, Default)]
pub struct TxRwLock {
    inner: Arc<AbstractLock>,
}

impl TxRwLock {
    /// A fresh lock with no holders.
    pub fn new() -> Self {
        TxRwLock::default()
    }

    /// Acquire in shared (read) mode for `txn`.
    pub fn read_lock(&self, txn: &Txn) -> TxResult<()> {
        self.inner.acquire(txn, Mode::Shared)
    }

    /// Acquire in exclusive (write) mode for `txn`, upgrading from
    /// shared mode if necessary.
    pub fn write_lock(&self, txn: &Txn) -> TxResult<()> {
        self.inner.acquire(txn, Mode::Exclusive)
    }

    /// Snapshot of (writer, reader-count) for diagnostics/tests.
    pub fn holders(&self) -> (Option<TxnId>, usize) {
        self.inner.holders()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Abort, TxnConfig, TxnManager};
    use std::time::Duration;

    fn manager(timeout_ms: u64) -> TxnManager {
        TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(timeout_ms),
            max_retries: Some(0),
            ..TxnConfig::default()
        })
    }

    #[test]
    fn many_readers_share() {
        let tm = manager(5);
        let lock = Arc::new(TxRwLock::new());
        let a = tm.begin();
        let b = tm.begin();
        let c = tm.begin();
        lock.read_lock(&a).unwrap();
        lock.read_lock(&b).unwrap();
        lock.read_lock(&c).unwrap();
        assert_eq!(lock.holders(), (None, 3));
        tm.commit(a);
        tm.commit(b);
        tm.commit(c);
        assert_eq!(lock.holders(), (None, 0));
    }

    #[test]
    fn writer_excludes_readers_and_writers() {
        let tm = manager(5);
        let lock = Arc::new(TxRwLock::new());
        let w = tm.begin();
        lock.write_lock(&w).unwrap();
        let r = tm.begin();
        assert_eq!(lock.read_lock(&r).unwrap_err(), Abort::lock_timeout());
        let w2 = tm.begin();
        assert_eq!(lock.write_lock(&w2).unwrap_err(), Abort::lock_timeout());
        tm.commit(w);
        lock.read_lock(&r).unwrap();
        tm.commit(r);
        tm.abort(w2, crate::AbortReason::LockTimeout);
    }

    #[test]
    fn readers_block_writer_until_commit() {
        let tm = manager(5);
        let lock = Arc::new(TxRwLock::new());
        let r = tm.begin();
        lock.read_lock(&r).unwrap();
        let w = tm.begin();
        assert_eq!(lock.write_lock(&w).unwrap_err(), Abort::lock_timeout());
        tm.commit(r);
        lock.write_lock(&w).unwrap();
        assert_eq!(lock.holders(), (Some(w.id()), 0));
        tm.commit(w);
    }

    #[test]
    fn upgrade_from_read_to_write() {
        let tm = manager(5);
        let lock = Arc::new(TxRwLock::new());
        let t = tm.begin();
        lock.read_lock(&t).unwrap();
        lock.write_lock(&t).unwrap(); // sole reader upgrades immediately
        assert_eq!(lock.holders(), (Some(t.id()), 0));
        assert_eq!(t.held_lock_count(), 1); // registered once
        tm.commit(t);
        assert_eq!(lock.holders(), (None, 0));
    }

    #[test]
    fn upgrade_blocked_by_other_reader_times_out() {
        let tm = manager(5);
        let lock = Arc::new(TxRwLock::new());
        let a = tm.begin();
        let b = tm.begin();
        lock.read_lock(&a).unwrap();
        lock.read_lock(&b).unwrap();
        // a cannot upgrade while b reads: simulated upgrade deadlock,
        // broken by the timeout.
        assert_eq!(lock.write_lock(&a).unwrap_err(), Abort::lock_timeout());
        tm.abort(a, crate::AbortReason::LockTimeout);
        // a's abort released its read hold; now b can upgrade.
        lock.write_lock(&b).unwrap();
        tm.commit(b);
    }

    #[test]
    fn write_implies_read() {
        let tm = manager(5);
        let lock = Arc::new(TxRwLock::new());
        let t = tm.begin();
        lock.write_lock(&t).unwrap();
        lock.read_lock(&t).unwrap(); // free, no extra registration
        assert_eq!(t.held_lock_count(), 1);
        tm.commit(t);
    }

    #[test]
    fn reader_wakes_when_writer_releases() {
        let tm = Arc::new(manager(1_000));
        let lock = Arc::new(TxRwLock::new());
        let w = tm.begin();
        lock.write_lock(&w).unwrap();
        let (tm2, lock2) = (Arc::clone(&tm), Arc::clone(&lock));
        let h = std::thread::spawn(move || {
            let t = tm2.begin();
            let r = lock2.read_lock(&t);
            tm2.commit(t);
            r
        });
        std::thread::sleep(Duration::from_millis(20));
        tm.commit(w);
        assert!(h.join().unwrap().is_ok());
    }

    #[test]
    fn concurrent_shared_adds_exclusive_removes() {
        // Shape of the Fig. 11 heap discipline: shared adds never
        // co-exist with an exclusive remove.
        let tm = Arc::new(TxnManager::default());
        let lock = Arc::new(TxRwLock::new());
        let writers_inside = Arc::new(std::sync::atomic::AtomicU64::new(0));
        crossbeam::scope(|s| {
            for i in 0..8 {
                let (tm, lock, wi) = (
                    Arc::clone(&tm),
                    Arc::clone(&lock),
                    Arc::clone(&writers_inside),
                );
                s.spawn(move |_| {
                    for _ in 0..100 {
                        tm.run(|txn| {
                            if i % 2 == 0 {
                                lock.read_lock(txn)?;
                                assert_eq!(
                                    wi.load(std::sync::atomic::Ordering::SeqCst),
                                    0,
                                    "reader saw an active writer"
                                );
                            } else {
                                lock.write_lock(txn)?;
                                assert_eq!(
                                    wi.fetch_add(1, std::sync::atomic::Ordering::SeqCst),
                                    0,
                                    "two writers inside"
                                );
                                wi.fetch_sub(1, std::sync::atomic::Ordering::SeqCst);
                            }
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(tm.stats().snapshot().committed, 800);
    }
}
