//! A transactional reference counter — the Section 2 disposability
//! example.
//!
//! The paper: "Reference counts would follow a dual strategy: the
//! reference count is incremented immediately, but decremented lazily
//! after the transaction commits. (When an object's reference count is
//! zero, its space can be freed.) Reference counter decrements can also
//! be postponed, allowing deallocation to be done in batches."
//!
//! The asymmetry is the whole point:
//!
//! * `incr` must take effect **immediately** — the transaction is about
//!   to use the object, so no concurrent decrement may drop the count
//!   to zero and free it out from under us. Its inverse (on abort) is a
//!   decrement.
//! * `decr` is **disposable** — it runs only after commit. A transaction
//!   that aborts after `decr` therefore never actually decremented, and
//!   no compensation is needed; a committed decrement that reaches zero
//!   triggers the reclaimer.
//!
//! [`DecrPolicy::Batched`] additionally demonstrates the "deallocation
//! in batches" refinement: committed decrements accumulate and are
//! applied in one swoop when the batch fills.

use parking_lot::Mutex;
use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};
use std::sync::Arc;
use txboost_core::{TxResult, Txn};

/// When committed decrements are applied.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum DecrPolicy {
    /// Apply each committed decrement at its transaction's commit.
    #[default]
    Eager,
    /// Accumulate committed decrements and apply them (and any
    /// resulting reclamation) once `batch_size` have piled up — the
    /// paper's batched deallocation.
    Batched {
        /// Decrements per flush.
        batch_size: u64,
    },
}

struct Inner {
    count: AtomicI64,
    pending_decrs: AtomicU64,
    policy: DecrPolicy,
    /// Called (outside any transaction) when the count reaches zero.
    reclaimer: Mutex<Option<Box<dyn FnMut() + Send>>>,
    reclaimed: AtomicU64,
}

impl std::fmt::Debug for Inner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("BoostedRefCount")
            .field("count", &self.count.load(Ordering::Relaxed))
            .field("pending_decrs", &self.pending_decrs.load(Ordering::Relaxed))
            .field("policy", &self.policy)
            .finish()
    }
}

impl Inner {
    #[cfg_attr(
        not(test),
        expect(
            clippy::disallowed_macros,
            reason = "debug_assert! only: a commit never decrements below \
                      the references its `incr`s took"
        )
    )]
    fn apply_decrs(&self, n: i64) {
        let now = self.count.fetch_sub(n, Ordering::SeqCst) - n;
        debug_assert!(now >= 0, "reference count went negative: {now}");
        if now == 0 {
            if let Some(reclaim) = self.reclaimer.lock().as_mut() {
                reclaim();
            }
            self.reclaimed.fetch_add(1, Ordering::Relaxed);
        }
    }

    fn flush_pending(&self) {
        let n = self.pending_decrs.swap(0, Ordering::SeqCst);
        if n > 0 {
            self.apply_decrs(n as i64);
        }
    }
}

/// A transactional reference count for one logical object.
///
/// Clones are handles to the same counter.
///
/// # Example
///
/// ```
/// use txboost_core::TxnManager;
/// use txboost_collections::BoostedRefCount;
///
/// let tm = TxnManager::default();
/// let rc = BoostedRefCount::new(1);
/// let rc2 = rc.clone();
/// tm.run(move |t| {
///     rc2.incr(t)?;  // immediate: protects the object
///     rc2.decr(t);   // disposable: applied at commit
///     Ok(())
/// }).unwrap();
/// assert_eq!(rc.effective_count(), 1);
/// ```
#[derive(Debug, Clone)]
pub struct BoostedRefCount {
    inner: Arc<Inner>,
}

impl BoostedRefCount {
    /// A counter with `initial` outstanding references.
    pub fn new(initial: i64) -> Self {
        BoostedRefCount::with_policy(initial, DecrPolicy::Eager)
    }

    /// A counter with the given decrement policy.
    #[cfg_attr(
        not(test),
        expect(
            clippy::disallowed_macros,
            reason = "checks the caller's argument before any transaction \
                      or handler exists"
        )
    )]
    pub fn with_policy(initial: i64, policy: DecrPolicy) -> Self {
        assert!(initial >= 0, "initial reference count must be non-negative");
        BoostedRefCount {
            inner: Arc::new(Inner {
                count: AtomicI64::new(initial),
                pending_decrs: AtomicU64::new(0),
                policy,
                reclaimer: Mutex::new(None),
                reclaimed: AtomicU64::new(0),
            }),
        }
    }

    /// Register the action to run when the count reaches zero (e.g.
    /// freeing the guarded object). Runs outside any transaction, after
    /// the decrementing transaction committed.
    pub fn on_zero(&self, reclaim: impl FnMut() + Send + 'static) {
        *self.inner.reclaimer.lock() = Some(Box::new(reclaim));
    }

    /// Transactionally take a reference. Applied **immediately**
    /// (protecting the object for the rest of the transaction); the
    /// inverse decrements — and even a zero-crossing by an aborting
    /// transaction's inverse triggers reclamation, since the increment
    /// being undone was the last reference.
    pub fn incr(&self, txn: &Txn) -> TxResult<()> {
        self.inner.count.fetch_add(1, Ordering::SeqCst);
        let inner = Arc::clone(&self.inner);
        txn.log_undo(move || inner.apply_decrs(1));
        Ok(())
    }

    /// Transactionally drop a reference. **Disposable**: nothing
    /// happens until the transaction commits; an abort forgets the
    /// decrement entirely (no inverse needed, per Rule 4).
    pub fn decr(&self, txn: &Txn) {
        let inner = Arc::clone(&self.inner);
        txn.defer_on_commit(move || match inner.policy {
            DecrPolicy::Eager => inner.apply_decrs(1),
            DecrPolicy::Batched { batch_size } => {
                let pending = inner.pending_decrs.fetch_add(1, Ordering::SeqCst) + 1;
                if pending >= batch_size {
                    inner.flush_pending();
                }
            }
        });
    }

    /// Force any batched decrements through (e.g. at shutdown).
    pub fn flush(&self) {
        self.inner.flush_pending();
    }

    /// Committed count **minus** not-yet-flushed batched decrements —
    /// the true number of outstanding references.
    pub fn effective_count(&self) -> i64 {
        self.inner.count.load(Ordering::SeqCst)
            - self.inner.pending_decrs.load(Ordering::SeqCst) as i64
    }

    /// How many times the reclaimer has fired.
    pub fn reclaim_count(&self) -> u64 {
        self.inner.reclaimed.load(Ordering::Relaxed)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicU64 as TestCounter;
    use txboost_core::{Abort, TxnManager};

    #[test]
    fn incr_is_immediate_decr_waits_for_commit() {
        let tm = TxnManager::default();
        let rc = BoostedRefCount::new(1);
        let rc2 = rc.clone();
        tm.run(move |t| {
            rc2.incr(t)?;
            assert_eq!(rc2.effective_count(), 2, "incr must be immediate");
            rc2.decr(t);
            assert_eq!(rc2.effective_count(), 2, "decr must wait for commit");
            Ok(())
        })
        .unwrap();
        assert_eq!(rc.effective_count(), 1);
    }

    #[test]
    fn aborted_incr_is_compensated() {
        let tm = TxnManager::default();
        let rc = BoostedRefCount::new(1);
        let rc2 = rc.clone();
        let r: Result<(), _> = tm.run(move |t| {
            rc2.incr(t)?;
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(rc.effective_count(), 1);
        assert_eq!(rc.reclaim_count(), 0);
    }

    #[test]
    fn aborted_decr_never_happens() {
        let tm = TxnManager::default();
        let rc = BoostedRefCount::new(1);
        let fired = Arc::new(TestCounter::new(0));
        let f = Arc::clone(&fired);
        rc.on_zero(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        let rc2 = rc.clone();
        let r: Result<(), _> = tm.run(move |t| {
            rc2.decr(t);
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(rc.effective_count(), 1, "aborted decr leaked");
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "reclaimed while referenced"
        );
    }

    #[test]
    fn committed_final_decr_reclaims_exactly_once() {
        let tm = TxnManager::default();
        let rc = BoostedRefCount::new(2);
        let fired = Arc::new(TestCounter::new(0));
        let f = Arc::clone(&fired);
        rc.on_zero(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        for _ in 0..2 {
            let rc2 = rc.clone();
            tm.run(move |t| {
                rc2.decr(t);
                Ok(())
            })
            .unwrap();
        }
        assert_eq!(rc.effective_count(), 0);
        assert_eq!(fired.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn batched_decrements_flush_at_batch_size() {
        let tm = TxnManager::default();
        let rc = BoostedRefCount::with_policy(4, DecrPolicy::Batched { batch_size: 3 });
        for i in 1..=2u64 {
            let rc2 = rc.clone();
            tm.run(move |t| {
                rc2.decr(t);
                Ok(())
            })
            .unwrap();
            // Not yet applied to the committed count...
            assert_eq!(rc.inner.count.load(Ordering::SeqCst), 4);
            // ...but visible in the effective count.
            assert_eq!(rc.effective_count(), 4 - i as i64);
        }
        let rc2 = rc.clone();
        tm.run(move |t| {
            rc2.decr(t);
            Ok(())
        })
        .unwrap();
        // Third decrement hit the batch size: all applied at once.
        assert_eq!(rc.inner.count.load(Ordering::SeqCst), 1);
        assert_eq!(rc.effective_count(), 1);
    }

    #[test]
    fn flush_forces_batched_decrements() {
        let tm = TxnManager::default();
        let rc = BoostedRefCount::with_policy(1, DecrPolicy::Batched { batch_size: 100 });
        let fired = Arc::new(TestCounter::new(0));
        let f = Arc::clone(&fired);
        rc.on_zero(move || {
            f.fetch_add(1, Ordering::SeqCst);
        });
        let rc2 = rc.clone();
        tm.run(move |t| {
            rc2.decr(t);
            Ok(())
        })
        .unwrap();
        assert_eq!(
            fired.load(Ordering::SeqCst),
            0,
            "batched decr applied early"
        );
        rc.flush();
        assert_eq!(fired.load(Ordering::SeqCst), 1);
        assert_eq!(rc.effective_count(), 0);
    }

    #[test]
    fn concurrent_incr_decr_pairs_balance() {
        let tm = Arc::new(TxnManager::default());
        let rc = BoostedRefCount::new(1);
        std::thread::scope(|s| {
            for _ in 0..8 {
                let tm = Arc::clone(&tm);
                let rc = rc.clone();
                s.spawn(move || {
                    for _ in 0..500 {
                        let rc2 = rc.clone();
                        tm.run(move |t| {
                            rc2.incr(t)?;
                            rc2.decr(t);
                            Ok(())
                        })
                        .unwrap();
                    }
                });
            }
        });
        assert_eq!(rc.effective_count(), 1);
        assert_eq!(rc.reclaim_count(), 0, "count transiently hit zero");
    }
}
