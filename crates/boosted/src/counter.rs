//! A boosted transactional counter — a minimal showcase of
//! commutativity-driven lock-mode selection.
//!
//! `add(n) ⇔ add(m)` for all `n, m` (addition commutes), but `get()/v`
//! does not commute with any `add(n)` for `n ≠ 0`. The induced
//! discipline mirrors the boosted heap's: increments acquire the
//! counter's abstract lock **shared** (the striped base counter
//! handles their thread-level interleaving), reads acquire it
//! **exclusive**. Under read/write STM every increment pair would
//! conflict; here increment-only workloads never abort.
//!
//! The counter keeps no committed versions: `add` logs a plain inverse,
//! so a transaction that only adds takes no commit timestamp, and `get`
//! inside a read-only transaction fails with `ReadOnlyViolation`, as a
//! set read does.

use std::sync::Arc;
use txboost_core::locks::{AbstractLock, Mode, ObjectLock};
use txboost_core::{TxResult, Txn};
use txboost_linearizable::StripedCounter;

/// A call on a [`BoostedCounter`], as its conflict table reads it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CounterCall {
    /// `add(n)`, for any `n`
    Add,
    /// `get()`
    Get,
}

/// A transactional signed counter boosted from the striped counter.
#[derive(Debug)]
pub struct BoostedCounter {
    base: Arc<StripedCounter>,
    lock: ObjectLock,
}

impl Default for BoostedCounter {
    fn default() -> Self {
        BoostedCounter::new()
    }
}

impl BoostedCounter {
    /// A counter starting at zero.
    pub fn new() -> Self {
        BoostedCounter {
            base: Arc::default(),
            lock: ObjectLock::new(),
        }
    }

    /// The counter's conflict abstraction: the lock word `call` takes,
    /// and its mode. Adds commute with each other and share the
    /// counter's one word; a read commutes with no add and takes it
    /// exclusively.
    pub fn conflict(&self, call: CounterCall) -> (&'static AbstractLock, Mode) {
        match call {
            CounterCall::Add => (self.lock.word(), Mode::Shared),
            CounterCall::Get => (self.lock.word(), Mode::Exclusive),
        }
    }

    /// Transactionally add `n` (may be negative). Shared-mode lock;
    /// inverse is `add(-n)`.
    pub fn add(&self, txn: &Txn, n: i64) -> TxResult<()> {
        let (lock, mode) = self.conflict(CounterCall::Add);
        lock.acquire(txn, mode)?;
        self.base.add(n);
        let base = Arc::clone(&self.base);
        txn.log_undo(move || base.add(-n));
        Ok(())
    }

    /// Transactionally read the value. Exclusive-mode lock (a read
    /// does not commute with concurrent increments); no inverse. The
    /// counter keeps no versions, so inside a read-only transaction
    /// this fails with `ReadOnlyViolation`.
    pub fn get(&self, txn: &Txn) -> TxResult<i64> {
        let (lock, mode) = self.conflict(CounterCall::Get);
        lock.acquire(txn, mode)?;
        Ok(self.base.sum())
    }

    /// Committed value without transactional isolation (diagnostic).
    pub fn peek(&self) -> i64 {
        self.base.sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use txboost_core::{Abort, TxnConfig, TxnError, TxnManager};

    #[test]
    fn add_and_get() {
        let tm = TxnManager::default();
        let c = BoostedCounter::new();
        tm.run(|t| {
            c.add(t, 5)?;
            c.add(t, -2)
        })
        .unwrap();
        assert_eq!(tm.run(|t| c.get(t)).unwrap(), 3);
    }

    #[test]
    fn abort_undoes_increments() {
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let c = BoostedCounter::new();
        tm.run(|t| c.add(t, 10)).unwrap();
        let r: Result<(), _> = tm.run(|t| {
            c.add(t, 7)?;
            c.add(t, 3)?;
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(c.peek(), 10);
    }

    #[test]
    fn increment_only_workload_never_aborts() {
        let (tm, c) = (TxnManager::default(), BoostedCounter::new());
        std::thread::scope(|sc| {
            for _ in 0..8 {
                sc.spawn(|| {
                    for _ in 0..500 {
                        tm.run(|t| c.add(t, 1)).unwrap();
                    }
                });
            }
        });
        assert_eq!(c.peek(), 4000);
        assert_eq!(tm.stats().snapshot().aborted, 0);
    }

    #[test]
    fn read_only_get_fails_and_holds_no_lock() {
        // The counter keeps no committed versions, so a snapshot read
        // has nothing to read at its timestamp: `get` needs the
        // counter's exclusive lock, which a read-only transaction may
        // not take. Adds are refused as every mutation is.
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let c = BoostedCounter::new();
        tm.run(|t| c.add(t, 5)).unwrap();
        let r = tm.run_read_only(|t| c.get(t));
        assert!(matches!(r, Err(TxnError::ReadOnlyViolation)));
        let r = tm.run_read_only(|t| c.add(t, 1));
        assert!(matches!(r, Err(TxnError::ReadOnlyViolation)));
        let (lock, _) = c.conflict(CounterCall::Get);
        assert_eq!(
            lock.holders(),
            (None, 0),
            "a failed snapshot read left a lock"
        );
        assert_eq!(tm.run(|t| c.get(t)).unwrap(), 5);
    }

    #[test]
    fn get_serializes_against_adds() {
        // A transaction holding the shared lock (via add) blocks a
        // reader until it finishes; the reader then observes a
        // committed value.
        let tm = TxnManager::new(TxnConfig {
            lock_timeout: std::time::Duration::from_millis(5),
            max_retries: Some(0),
        });
        let c = BoostedCounter::new();
        let adder = tm.begin();
        c.add(&adder, 5).unwrap();
        let reader = tm.begin();
        assert!(c.get(&reader).is_err(), "reader must wait for adder");
        tm.commit(adder);
        assert_eq!(c.get(&reader).unwrap(), 5);
        tm.commit(reader);
    }
}
