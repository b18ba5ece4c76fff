//! `TxMutex` — a single transactional two-phase lock.

use super::abstract_lock::{AbstractLock, Mode};
use crate::{TxResult, Txn, TxnId};
use std::sync::Arc;

/// A single two-phase abstract lock protecting an entire object.
///
/// This is the coarsest conflict discipline: *every* pair of method
/// calls is treated as non-commuting. The paper uses it as the
/// transactional-granularity baseline in all three experiments (the
/// "single two-phase lock" red-black tree of Fig. 9, the "single
/// transactional lock" skip list of Fig. 10, and the mutex heap of
/// Fig. 11). It is still a correct boosting discipline — Rule 2 only
/// requires that non-commuting calls conflict, and over-approximating
/// conflicts is always safe — it just forfeits transaction-level
/// parallelism.
#[derive(Debug, Clone, Default)]
pub struct TxMutex {
    inner: Arc<AbstractLock>,
}

impl TxMutex {
    /// A fresh, unowned transactional mutex.
    pub fn new() -> Self {
        TxMutex::default()
    }

    /// Acquire for `txn` (reentrant; held until commit/abort). Aborts
    /// the transaction with a lock timeout if another transaction holds
    /// it too long.
    pub fn lock(&self, txn: &Txn) -> TxResult<()> {
        self.inner.acquire(txn, Mode::Exclusive)
    }

    /// The current owner, if any (diagnostics/tests).
    pub fn owner(&self) -> Option<TxnId> {
        self.inner.owner()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Abort, TxnConfig, TxnManager};
    use std::sync::atomic::{AtomicU64, Ordering};
    use std::time::Duration;

    #[test]
    fn serializes_two_transactions() {
        let tm = TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(5),
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let m = TxMutex::new();
        let a = tm.begin();
        m.lock(&a).unwrap();
        let b = tm.begin();
        assert_eq!(m.lock(&b).unwrap_err(), Abort::lock_timeout());
        tm.commit(a);
        m.lock(&b).unwrap();
        tm.commit(b);
        assert_eq!(m.owner(), None);
    }

    #[test]
    fn clone_shares_the_same_lock() {
        let tm = TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(5),
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let m1 = TxMutex::new();
        let m2 = m1.clone();
        let a = tm.begin();
        m1.lock(&a).unwrap();
        assert_eq!(m2.owner(), Some(a.id()));
        tm.commit(a);
    }

    #[test]
    fn mutual_exclusion_under_contention() {
        let tm = std::sync::Arc::new(TxnManager::default());
        let m = TxMutex::new();
        let counter = std::sync::Arc::new(AtomicU64::new(0));
        let in_cs = std::sync::Arc::new(AtomicU64::new(0));
        crossbeam::scope(|s| {
            for _ in 0..4 {
                let (tm, m, counter, in_cs) = (
                    std::sync::Arc::clone(&tm),
                    m.clone(),
                    std::sync::Arc::clone(&counter),
                    std::sync::Arc::clone(&in_cs),
                );
                s.spawn(move |_| {
                    for _ in 0..200 {
                        tm.run(|txn| {
                            m.lock(txn)?;
                            // At most one transaction may be inside.
                            assert_eq!(in_cs.fetch_add(1, Ordering::SeqCst), 0);
                            counter.fetch_add(1, Ordering::SeqCst);
                            in_cs.fetch_sub(1, Ordering::SeqCst);
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        })
        .unwrap();
        assert_eq!(counter.load(Ordering::SeqCst), 800);
    }
}
