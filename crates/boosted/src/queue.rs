//! The boosted blocking queue for pipelined transactions — Figure 7 of
//! the paper.
//!
//! Base object: a bounded **deque** rather than a FIFO queue, because
//! the deque's end-specific methods supply inverses (Figure 6):
//! a transactional `offer` is `offer_last` with inverse `take_last`,
//! and a transactional `take` is `take_first` with inverse
//! `offer_first`.
//!
//! Conditional synchronization — block when full / when empty — comes
//! from two [`TSemaphore`]s mirroring the queue's *committed* state:
//! `full` counts free slots (acquired by `offer`, released by `take`),
//! `empty` counts committed items (released by `offer`, acquired by
//! `take`). Because a semaphore release is disposable (commit-time), an
//! item enqueued by transaction A becomes `take`-able only after A
//! commits, which is exactly the commutativity condition: `offer ⇔
//! take` iff the committed buffer is non-empty.

use crate::TSemaphore;
use std::sync::Arc;
use txboost_core::{TxResult, Txn};
use txboost_linearizable::BoundedDeque;

/// A bounded transactional FIFO queue for pipeline stages.
///
/// # Example
///
/// ```
/// use txboost_core::TxnManager;
/// use txboost_collections::BoostedBlockingQueue;
///
/// let tm = TxnManager::default();
/// let q = BoostedBlockingQueue::new(8);
/// tm.run(|t| q.offer(t, "job-1")).unwrap();
/// assert_eq!(tm.run(|t| q.take(t)).unwrap(), "job-1");
/// ```
#[derive(Debug, Clone)]
pub struct BoostedBlockingQueue<T: Send + 'static> {
    base: Arc<BoundedDeque<T>>,
    /// Counts free slots in the committed state; blocks `offer` at
    /// capacity.
    full: TSemaphore,
    /// Counts committed items; blocks `take` on empty.
    empty: TSemaphore,
}

impl<T: Send + 'static> BoostedBlockingQueue<T> {
    /// A queue holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        BoostedBlockingQueue {
            base: Arc::new(BoundedDeque::new(capacity)),
            full: TSemaphore::new(capacity as u64),
            empty: TSemaphore::new(0),
        }
    }

    /// Transactionally enqueue `value` (Figure 7, lines 79–87).
    ///
    /// Blocks (up to the transaction's timeout, then aborts) while the
    /// committed queue is full. The item becomes visible to consumers
    /// when the transaction commits.
    #[cfg_attr(
        not(test),
        expect(
            clippy::panic,
            clippy::disallowed_macros,
            reason = "a `full` permit is a free slot in the base deque, and \
                      the inverse's item is still there: only a broken \
                      semaphore invariant fails, and the inverse checks it \
                      with debug_assert! alone"
        )
    )]
    pub fn offer(&self, txn: &Txn, value: T) -> TxResult<()> {
        // Gate on committed free slots; undo re-increments.
        self.full.acquire(txn)?;
        // The semaphore guarantees room in the base deque.
        self.base
            .try_offer_last(value)
            .unwrap_or_else(|_| panic!("full-semaphore invariant violated"));
        // Publish one committed item — disposable, deferred to commit.
        self.empty.release(txn);
        let base = Arc::clone(&self.base);
        txn.log_undo(move || {
            // A panic inside abort replay would poison the rollback, so
            // assert the invariant with debug_assert! (release-safe):
            // the inverse runs while the transaction still holds its
            // semaphore bookkeeping, so the item must still be present.
            let taken = base.try_take_last();
            debug_assert!(taken.is_some(), "inverse take_last found an empty deque");
        });
        Ok(())
    }

    /// Transactionally dequeue the oldest item (Figure 7, lines 89–99).
    ///
    /// Blocks (up to the transaction's timeout, then aborts) while the
    /// committed queue is empty. The freed slot becomes available to
    /// producers when the transaction commits.
    #[cfg_attr(
        not(test),
        expect(
            clippy::expect_used,
            clippy::disallowed_macros,
            reason = "an `empty` permit is a committed item in the base \
                      deque, and the inverse's slot is still free: only a \
                      broken semaphore invariant fails, and the inverse \
                      checks it with debug_assert! alone"
        )
    )]
    pub fn take(&self, txn: &Txn) -> TxResult<T>
    where
        T: Clone,
    {
        self.empty.acquire(txn)?;
        let value = self
            .base
            .try_take_first()
            .expect("empty-semaphore invariant violated");
        self.full.release(txn);
        let base = Arc::clone(&self.base);
        let undo_value = value.clone();
        txn.log_undo(move || {
            // Same reasoning as offer's inverse: the slot this take
            // freed has not been published (the semaphore release is
            // commit-deferred), so room is guaranteed; never panic in
            // abort replay.
            let restored = base.try_offer_first(undo_value);
            debug_assert!(restored.is_ok(), "inverse offer_first found a full deque");
        });
        Ok(value)
    }

    /// Committed + in-flight item count in the base deque (diagnostic).
    pub fn raw_len(&self) -> usize {
        self.base.len()
    }

    /// Committed item count as seen by consumers (diagnostic; racy).
    pub fn committed_items(&self) -> u64 {
        self.empty.available()
    }

    /// Committed free slots as seen by producers (diagnostic; racy).
    pub fn committed_free_slots(&self) -> u64 {
        self.full.available()
    }

    /// The queue's capacity.
    pub fn capacity(&self) -> usize {
        self.base.capacity()
    }

    /// Offer that never blocks the calling thread: aborts the
    /// transaction right away if the committed queue is full.
    #[cfg_attr(
        not(test),
        expect(
            clippy::panic,
            clippy::disallowed_macros,
            reason = "the same semaphore invariant as `offer`"
        )
    )]
    pub fn try_offer(&self, txn: &Txn, value: T) -> TxResult<()> {
        self.full.try_acquire(txn)?;
        self.base
            .try_offer_last(value)
            .unwrap_or_else(|_| panic!("full-semaphore invariant violated"));
        self.empty.release(txn);
        let base = Arc::clone(&self.base);
        txn.log_undo(move || {
            // See `offer`: abort replay must not panic.
            let taken = base.try_take_last();
            debug_assert!(taken.is_some(), "inverse take_last found an empty deque");
        });
        Ok(())
    }

    // Internal: used by tests to assert inverse bookkeeping.
    #[cfg(test)]
    fn deque_snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.base.snapshot()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::time::Duration;
    use txboost_core::{Abort, AbortReason, TxnConfig, TxnManager};

    fn tm_fast() -> TxnManager {
        TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_millis(10),
            max_retries: Some(0),
        })
    }

    #[test]
    fn offer_then_take_round_trips_after_commit() {
        let tm = TxnManager::default();
        let q = BoostedBlockingQueue::new(4);
        tm.run(|t| q.offer(t, 41)).unwrap();
        tm.run(|t| q.offer(t, 42)).unwrap();
        assert_eq!(tm.run(|t| q.take(t)).unwrap(), 41);
        assert_eq!(tm.run(|t| q.take(t)).unwrap(), 42);
    }

    #[test]
    fn uncommitted_item_is_invisible_to_consumers() {
        let tm = tm_fast();
        let q = BoostedBlockingQueue::new(4);
        let producer = tm.begin();
        q.offer(&producer, 1).unwrap();
        assert_eq!(q.raw_len(), 1, "item physically enqueued");
        assert_eq!(q.committed_items(), 0, "but not committed");
        // A consumer cannot take it yet.
        let consumer = tm.begin();
        assert_eq!(
            q.take(&consumer).unwrap_err().reason(),
            AbortReason::WouldBlock
        );
        tm.commit(producer);
        assert_eq!(q.take(&consumer).unwrap(), 1);
        tm.commit(consumer);
    }

    #[test]
    fn aborted_offer_removes_the_item() {
        let tm = tm_fast();
        let q = BoostedBlockingQueue::new(4);
        let r: Result<(), _> = tm.run(|t| {
            q.offer(t, 9)?;
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(q.raw_len(), 0);
        assert_eq!(q.committed_items(), 0);
        assert_eq!(q.committed_free_slots(), 4);
    }

    #[test]
    fn aborted_take_puts_the_item_back_at_the_front() {
        let tm = tm_fast();
        let q = BoostedBlockingQueue::new(4);
        tm.run(|t| q.offer(t, 1)).unwrap();
        tm.run(|t| q.offer(t, 2)).unwrap();
        let r: Result<(), _> = tm.run(|t| {
            assert_eq!(q.take(t)?, 1);
            Err(Abort::explicit())
        });
        assert!(r.is_err());
        assert_eq!(q.deque_snapshot(), vec![1, 2], "FIFO order not restored");
        assert_eq!(tm.run(|t| q.take(t)).unwrap(), 1);
    }

    #[test]
    fn capacity_counts_uncommitted_offers() {
        let tm = tm_fast();
        let q = BoostedBlockingQueue::new(2);
        let a = tm.begin();
        q.offer(&a, 1).unwrap();
        q.offer(&a, 2).unwrap();
        // Queue full with uncommitted items: another producer blocks.
        let b = tm.begin();
        assert_eq!(
            q.offer(&b, 3).unwrap_err().reason(),
            AbortReason::WouldBlock
        );
        tm.abort(a, AbortReason::Explicit);
        // Abort freed the slots immediately (undo re-increments full).
        q.offer(&b, 3).unwrap();
        tm.commit(b);
        assert_eq!(tm.run(|t| q.take(t)).unwrap(), 3);
    }

    #[test]
    fn multiple_offers_in_one_transaction_commit_atomically() {
        let tm = TxnManager::default();
        let q = BoostedBlockingQueue::new(8);
        tm.run(|t| {
            q.offer(t, 1)?;
            q.offer(t, 2)?;
            q.offer(t, 3)
        })
        .unwrap();
        assert_eq!(q.committed_items(), 3);
        assert_eq!(tm.run(|t| q.take(t)).unwrap(), 1);
        assert_eq!(tm.run(|t| q.take(t)).unwrap(), 2);
        assert_eq!(tm.run(|t| q.take(t)).unwrap(), 3);
    }

    #[test]
    fn pipeline_stage_to_stage_transfer() {
        // Two-stage pipeline: producer → q1 → relay → q2 → consumer,
        // each hop a transaction (the paper's Section 3.3 scenario).
        let tm = std::sync::Arc::new(TxnManager::new(TxnConfig {
            lock_timeout: Duration::from_secs(5),
            ..TxnConfig::default()
        }));
        let q1 = BoostedBlockingQueue::new(3);
        let q2 = BoostedBlockingQueue::new(3);
        let n = 200;
        std::thread::scope(|sc| {
            {
                let (tm, q1) = (std::sync::Arc::clone(&tm), q1.clone());
                sc.spawn(move || {
                    for i in 0..n {
                        tm.run(|t| q1.offer(t, i)).unwrap();
                    }
                });
            }
            {
                let (tm, q1, q2) = (std::sync::Arc::clone(&tm), q1.clone(), q2.clone());
                sc.spawn(move || {
                    for _ in 0..n {
                        tm.run(|t| {
                            let v = q1.take(t)?;
                            q2.offer(t, v * 10)
                        })
                        .unwrap();
                    }
                });
            }
            let (tm, q2) = (std::sync::Arc::clone(&tm), q2.clone());
            let consumer = sc.spawn(move || {
                (0..n)
                    .map(|_| tm.run(|t| q2.take(t)).unwrap())
                    .collect::<Vec<i64>>()
            });
            let got = consumer.join().unwrap();
            assert_eq!(got, (0..n).map(|i| i * 10).collect::<Vec<_>>());
        });
    }
}
