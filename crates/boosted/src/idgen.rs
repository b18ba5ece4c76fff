//! The transactional unique-ID generator — Section 3.4 / Figure 8 of
//! the paper.
//!
//! `assign_id()` must return an ID distinct from every ID in use.
//! Under read/write STM the obvious shared-counter implementation
//! serializes *every pair* of transactions (a false conflict); under
//! boosting, `assignID()/x ⇔ assignID()/y` for `x ≠ y`, so **no lock is
//! needed at all** — a fetch-and-add counter is already a correct
//! transactional unique-ID generator.
//!
//! Rollback is where Figure 8 gets interesting:
//! * the *inverse* of `assign_id` is `noop()` — an assigned-but-aborted
//!   ID violates nothing, because no transaction can observe whether an
//!   unused ID is "in the pool";
//! * returning the ID (`releaseID(x)`) is **disposable** (Rule 4): it
//!   may run arbitrarily long after the abort, or never. This type
//!   implements both policies.

use parking_lot::Mutex;
use std::sync::Arc;
use txboost_core::{TxResult, Txn};
use txboost_linearizable::FetchAddCounter;

/// What to do with the IDs of aborted transactions.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ReleasePolicy {
    /// Never return aborted IDs to the pool — the paper's observation
    /// that for a counter-backed generator "it is sensible never to
    /// return x to the pool". IDs stay unique; some are simply skipped.
    #[default]
    Leak,
    /// Run `releaseID(x)` as a post-abort disposable action; released
    /// IDs are preferred by later `assign_id` calls.
    Recycle,
}

#[derive(Debug, Default)]
struct Pool {
    released: Mutex<Vec<u64>>,
}

/// A transactional unique-ID generator boosted from a fetch-and-add
/// counter.
///
/// # Example
///
/// ```
/// use txboost_core::TxnManager;
/// use txboost_collections::UniqueIdGen;
///
/// let tm = TxnManager::default();
/// let gen = UniqueIdGen::default();
/// let a = tm.run(|t| gen.assign_id(t)).unwrap();
/// let b = tm.run(|t| gen.assign_id(t)).unwrap();
/// assert_ne!(a, b);
/// ```
#[derive(Debug, Clone)]
pub struct UniqueIdGen {
    counter: Arc<FetchAddCounter>,
    pool: Arc<Pool>,
    policy: ReleasePolicy,
}

impl Default for UniqueIdGen {
    fn default() -> Self {
        UniqueIdGen::new(ReleasePolicy::Leak)
    }
}

impl UniqueIdGen {
    /// A generator starting at ID 0 with the given release policy.
    pub fn new(policy: ReleasePolicy) -> Self {
        UniqueIdGen {
            counter: Arc::new(FetchAddCounter::new()),
            pool: Arc::new(Pool::default()),
            policy,
        }
    }

    /// Transactionally obtain an ID distinct from every ID currently in
    /// use. Acquires **no abstract lock** — distinct-result calls
    /// commute — and logs **no inverse** (`noop()` per Figure 8); under
    /// [`ReleasePolicy::Recycle`] it defers a disposable
    /// `release_id` to run after abort.
    pub fn assign_id(&self, txn: &Txn) -> TxResult<u64> {
        let id = match self.policy {
            ReleasePolicy::Leak => None,
            ReleasePolicy::Recycle => self.pool.released.lock().pop(),
        }
        .unwrap_or_else(|| self.counter.get_and_add(1));
        if self.policy == ReleasePolicy::Recycle {
            let pool = Arc::clone(&self.pool);
            txn.defer_on_abort(move || pool.released.lock().push(id));
        }
        Ok(id)
    }

    /// Transactionally return an ID whose protected resource the
    /// transaction no longer needs. Disposable: deferred until commit
    /// (never runs on abort — the undo log's job is done by the
    /// assign's own bookkeeping).
    pub fn release_id(&self, txn: &Txn, id: u64) {
        if self.policy == ReleasePolicy::Recycle {
            let pool = Arc::clone(&self.pool);
            txn.defer_on_commit(move || pool.released.lock().push(id));
        }
    }

    /// Highest ID ever minted from the counter (diagnostic).
    pub fn high_water_mark(&self) -> u64 {
        self.counter.get()
    }

    /// Number of IDs currently waiting in the recycle pool
    /// (diagnostic; always 0 under [`ReleasePolicy::Leak`]).
    pub fn pool_len(&self) -> usize {
        self.pool.released.lock().len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;
    use txboost_core::{Abort, TxnConfig, TxnManager};

    #[test]
    fn ids_are_unique_across_transactions() {
        let tm = TxnManager::default();
        let gen = UniqueIdGen::default();
        let mut seen = HashSet::new();
        for _ in 0..100 {
            let id = tm.run(|t| gen.assign_id(t)).unwrap();
            assert!(seen.insert(id), "duplicate id {id}");
        }
    }

    #[test]
    fn leak_policy_skips_aborted_ids() {
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let gen = UniqueIdGen::new(ReleasePolicy::Leak);
        let first = tm.run(|t| gen.assign_id(t)).unwrap();
        let r: Result<u64, _> = tm.run(|t| {
            let _ = gen.assign_id(t)?;
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        let next = tm.run(|t| gen.assign_id(t)).unwrap();
        assert_eq!(next, first + 2, "leaked id should be skipped, not reused");
        assert_eq!(gen.pool_len(), 0);
    }

    #[test]
    fn recycle_policy_returns_aborted_ids_post_abort() {
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let gen = UniqueIdGen::new(ReleasePolicy::Recycle);
        let r: Result<u64, _> = tm.run(|t| {
            let id = gen.assign_id(t)?;
            assert_eq!(id, 0);
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(gen.pool_len(), 1, "post-abort releaseID did not run");
        // The recycled ID is handed out again.
        assert_eq!(tm.run(|t| gen.assign_id(t)).unwrap(), 0);
    }

    #[test]
    fn committed_release_recycles() {
        let tm = TxnManager::default();
        let gen = UniqueIdGen::new(ReleasePolicy::Recycle);
        let id = tm.run(|t| gen.assign_id(t)).unwrap();
        tm.run(|t| {
            gen.release_id(t, id);
            Ok(())
        })
        .unwrap();
        assert_eq!(tm.run(|t| gen.assign_id(t)).unwrap(), id);
    }

    #[test]
    fn aborted_release_does_not_recycle() {
        let tm = TxnManager::new(TxnConfig {
            max_retries: Some(0),
            ..TxnConfig::default()
        });
        let gen = UniqueIdGen::new(ReleasePolicy::Recycle);
        let id = tm.run(|t| gen.assign_id(t)).unwrap();
        let r: Result<(), _> = tm.run(|t| {
            gen.release_id(t, id);
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(gen.pool_len(), 0, "aborted releaseID must not run");
    }

    #[test]
    fn concurrent_assignment_never_duplicates_with_aborts_mixed_in() {
        let tm = std::sync::Arc::new(TxnManager::default());
        let gen = UniqueIdGen::new(ReleasePolicy::Recycle);
        let all = std::sync::Mutex::new(Vec::new());
        std::thread::scope(|sc| {
            for th in 0..8u64 {
                let tm = std::sync::Arc::clone(&tm);
                let gen = gen.clone();
                let all = &all;
                sc.spawn(move || {
                    use rand::prelude::*;
                    let mut rng = StdRng::seed_from_u64(th);
                    let mut mine = Vec::new();
                    for _ in 0..300 {
                        let abort_this = rng.random_bool(0.3);
                        let got = tm.run(|t| {
                            let id = gen.assign_id(t)?;
                            if abort_this {
                                // Explicit abort path exercises the
                                // post-abort disposable.
                                return Err(Abort::explicit());
                            }
                            Ok(id)
                        });
                        if let Ok(id) = got {
                            mine.push(id);
                        }
                    }
                    all.lock().unwrap().extend(mine);
                });
            }
        });
        let mut ids = all.into_inner().unwrap();
        let n = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(ids.len(), n, "two committed transactions share an ID");
    }

    #[test]
    fn transactions_assigning_ids_never_conflict() {
        let tm = std::sync::Arc::new(TxnManager::default());
        let gen = UniqueIdGen::default();
        std::thread::scope(|sc| {
            for _ in 0..8 {
                let tm = std::sync::Arc::clone(&tm);
                let gen = gen.clone();
                sc.spawn(move || {
                    for _ in 0..500 {
                        tm.run(|t| gen.assign_id(t)).unwrap();
                    }
                });
            }
        });
        let snap = tm.stats().snapshot();
        assert_eq!(snap.committed, 4000);
        assert_eq!(snap.aborted, 0, "id assignment must be conflict-free");
    }
}
