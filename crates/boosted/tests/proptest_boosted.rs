//! Property-based tests on the boosted collections: arbitrary
//! transaction scripts with aborts injected at arbitrary points must
//! leave exactly the committed effects.

use proptest::prelude::*;
use std::collections::BTreeMap;
use txboost_collections::*;
use txboost_core::{Abort, TxnManager};

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Map transactions of 1..4 put/remove ops, each transaction
    /// possibly aborting; final state equals committed-only oracle.
    #[test]
    fn hashmap_with_aborts_matches_committed_oracle(
        txns in proptest::collection::vec(
            (proptest::collection::vec((0..16u8, 0..100i32, proptest::bool::ANY), 1..4),
             proptest::bool::weighted(0.3)),
            0..40
        )
    ) {
        let tm = TxnManager::default();
        let m: BoostedHashMap<u8, i32> = BoostedHashMap::new();
        let mut oracle: BTreeMap<u8, i32> = BTreeMap::new();
        for (ops, doomed) in txns {
            let mut staged = oracle.clone();
            let r = tm.run(|t| {
                for &(k, v, is_put) in &ops {
                    if is_put {
                        m.put(t, k, v)?;
                    } else {
                        m.remove(t, &k)?;
                    }
                }
                if doomed {
                    return Err(Abort::explicit());
                }
                Ok(())
            });
            if r.is_ok() {
                for &(k, v, is_put) in &ops {
                    if is_put {
                        staged.insert(k, v);
                    } else {
                        staged.remove(&k);
                    }
                }
                oracle = staged;
            }
            prop_assert_eq!(r.is_ok(), !doomed);
        }
        prop_assert_eq!(m.len(), oracle.len());
        for (k, v) in &oracle {
            prop_assert_eq!(tm.run(|t| m.get(t, k)).unwrap(), Some(*v));
        }
    }

    /// Semaphore permits are conserved under arbitrary commit/abort
    /// scripts of acquire/release transactions.
    #[test]
    fn semaphore_conserves_permits(
        script in proptest::collection::vec((0..3u8, proptest::bool::ANY), 0..60)
    ) {
        let tm = TxnManager::new(txboost_core::TxnConfig {
            lock_timeout: std::time::Duration::from_millis(1),
            max_retries: Some(0),
        });
        let initial = 3u64;
        let sem = TSemaphore::new(initial);
        let mut outstanding = 0u64; // committed acquires minus releases
        for (kind, doomed) in script {
            match kind {
                // acquire one
                0 => {
                    let sem2 = sem.clone();
                    let r = tm.run(move |t| {
                        sem2.try_acquire(t)?;
                        if doomed { return Err(Abort::explicit()); }
                        Ok(())
                    });
                    if r.is_ok() {
                        outstanding += 1;
                    }
                }
                // release one we hold
                1 if outstanding > 0 => {
                    let sem2 = sem.clone();
                    let r = tm.run(move |t| {
                        sem2.release(t);
                        if doomed { return Err(Abort::explicit()); }
                        Ok(())
                    });
                    if r.is_ok() {
                        outstanding -= 1;
                    }
                }
                // acquire-release pair in one transaction
                _ => {
                    let sem2 = sem.clone();
                    let _ = tm.run(move |t| {
                        sem2.try_acquire(t)?;
                        sem2.release(t);
                        if doomed { return Err(Abort::explicit()); }
                        Ok(())
                    });
                }
            }
            prop_assert_eq!(
                sem.available(),
                initial - outstanding,
                "permit accounting diverged"
            );
        }
    }

    /// The boosted PQueue with aborts at arbitrary prefixes drains to
    /// exactly the committed multiset.
    #[test]
    fn pqueue_with_aborts_matches_committed_multiset(
        txns in proptest::collection::vec(
            (proptest::collection::vec(0..50i64, 1..4), proptest::bool::weighted(0.3)),
            0..30
        )
    ) {
        let tm = TxnManager::default();
        let q = BoostedPQueue::new();
        let mut oracle: Vec<i64> = Vec::new();
        for (keys, doomed) in txns {
            let r = tm.run(|t| {
                for &k in &keys {
                    q.add(t, k)?;
                }
                if doomed { return Err(Abort::explicit()); }
                Ok(())
            });
            if r.is_ok() {
                oracle.extend(&keys);
            }
        }
        oracle.sort_unstable();
        let mut drained = Vec::new();
        while let Some(k) = tm.run(|t| q.remove_min(t)).unwrap() {
            drained.push(k);
        }
        prop_assert_eq!(drained, oracle);
    }

    /// Refcount: arbitrary incr/decr scripts with aborts; effective
    /// count always equals committed balance and never goes negative.
    #[test]
    fn refcount_balance_is_exact(
        script in proptest::collection::vec((proptest::bool::ANY, proptest::bool::weighted(0.25)), 0..60)
    ) {
        let tm = TxnManager::default();
        let rc = BoostedRefCount::new(1);
        let mut balance = 1i64;
        for (is_incr, doomed) in script {
            if is_incr {
                let rc2 = rc.clone();
                let r = tm.run(move |t| {
                    rc2.incr(t)?;
                    if doomed { return Err(Abort::explicit()); }
                    Ok(())
                });
                if r.is_ok() { balance += 1; }
            } else if balance > 1 {
                // never drop the last reference in this property
                let rc2 = rc.clone();
                let r = tm.run(move |t| {
                    rc2.decr(t);
                    if doomed { return Err(Abort::explicit()); }
                    Ok(())
                });
                if r.is_ok() { balance -= 1; }
            }
            prop_assert_eq!(rc.effective_count(), balance);
            prop_assert_eq!(rc.reclaim_count(), 0);
        }
    }
}
