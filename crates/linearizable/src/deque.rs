//! A bounded double-ended queue that never blocks.
//!
//! The Rust stand-in for `java.util.concurrent.LinkedBlockingDeque`,
//! the base object of the paper's pipeline example (Figure 7). The
//! boosted `BlockingQueue` wraps this deque because a deque's four
//! end-specific methods supply the *inverses* a FIFO queue lacks: a
//! transactional `offer` maps to `offer_last` with inverse `take_last`,
//! and a transactional `take` maps to `take_first` with inverse
//! `offer_first`. The boosted queue does all its waiting in its two
//! transactional semaphores, as Figure 7 does, and calls an end method
//! only once a semaphore has said it succeeds; so the deque itself has
//! no blocking methods and no condition variables.

use parking_lot::Mutex;
use std::collections::VecDeque;

/// A linearizable bounded deque: a mutex over a `VecDeque`.
///
/// Every method is linearizable at the point where it holds the
/// internal mutex. An offer to a full deque hands its item back, and a
/// take from an empty one returns `None`, at once.
#[derive(Debug)]
pub struct BoundedDeque<T> {
    inner: Mutex<VecDeque<T>>,
    capacity: usize,
}

impl<T> BoundedDeque<T> {
    /// A deque holding at most `capacity` items.
    ///
    /// # Panics
    /// Panics if `capacity` is zero (a zero-capacity pipeline buffer
    /// can never transfer an item under two-phase boosting).
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "BoundedDeque capacity must be positive");
        BoundedDeque {
            inner: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity,
        }
    }

    /// Maximum number of items.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Current number of items (racy outside a quiescent state).
    pub fn len(&self) -> usize {
        self.inner.lock().len()
    }

    /// Whether the deque is empty (same caveat as [`BoundedDeque::len`]).
    pub fn is_empty(&self) -> bool {
        self.inner.lock().is_empty()
    }

    fn offer_end(&self, item: T, front: bool) -> Result<(), T> {
        let mut q = self.inner.lock();
        if q.len() == self.capacity {
            return Err(item);
        }
        if front {
            q.push_front(item);
        } else {
            q.push_back(item);
        }
        Ok(())
    }

    /// Enqueue at the front; a full deque hands the item back in `Err`.
    pub fn try_offer_first(&self, item: T) -> Result<(), T> {
        self.offer_end(item, true)
    }

    /// Enqueue at the back; a full deque hands the item back in `Err`.
    pub fn try_offer_last(&self, item: T) -> Result<(), T> {
        self.offer_end(item, false)
    }

    /// Dequeue from the front; `None` if the deque is empty.
    pub fn try_take_first(&self) -> Option<T> {
        self.inner.lock().pop_front()
    }

    /// Dequeue from the back; `None` if the deque is empty.
    pub fn try_take_last(&self) -> Option<T> {
        self.inner.lock().pop_back()
    }

    /// Snapshot of the contents front-to-back (testing/diagnostics).
    pub fn snapshot(&self) -> Vec<T>
    where
        T: Clone,
    {
        self.inner.lock().iter().cloned().collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn fifo_through_opposite_ends() {
        let q = BoundedDeque::new(4);
        q.try_offer_last(1).unwrap();
        q.try_offer_last(2).unwrap();
        assert_eq!(q.try_take_first(), Some(1));
        assert_eq!(q.try_take_first(), Some(2));
    }

    #[test]
    fn lifo_through_same_end() {
        let q = BoundedDeque::new(4);
        q.try_offer_last(1).unwrap();
        q.try_offer_last(2).unwrap();
        assert_eq!(q.try_take_last(), Some(2));
        assert_eq!(q.try_take_last(), Some(1));
    }

    #[test]
    fn undo_shape_offer_last_then_take_last_restores_state() {
        // The boosted queue's inverse pairing relies on this property.
        let q = BoundedDeque::new(4);
        q.try_offer_last(1).unwrap();
        q.try_offer_last(2).unwrap();
        q.try_offer_last(99).unwrap(); // the transactional offer
        assert_eq!(q.try_take_last(), Some(99)); // its inverse
        assert_eq!(q.snapshot(), vec![1, 2]);
    }

    #[test]
    fn undo_shape_take_first_then_offer_first_restores_state() {
        let q = BoundedDeque::new(4);
        q.try_offer_last(1).unwrap();
        q.try_offer_last(2).unwrap();
        let taken = q.try_take_first().unwrap(); // the transactional take
        q.try_offer_first(taken).unwrap(); // its inverse
        assert_eq!(q.snapshot(), vec![1, 2]);
    }

    #[test]
    fn offer_to_full_deque_returns_item() {
        let q = BoundedDeque::new(1);
        q.try_offer_last("a").unwrap();
        assert_eq!(q.try_offer_last("b"), Err("b"));
        assert_eq!(q.try_offer_first("c"), Err("c"));
        assert_eq!(q.snapshot(), vec!["a"]);
    }

    #[test]
    fn take_from_empty_deque_returns_none() {
        let q = BoundedDeque::<u8>::new(1);
        assert_eq!(q.try_take_first(), None);
        assert_eq!(q.try_take_last(), None);
        assert!(q.is_empty());
    }

    #[test]
    #[should_panic(expected = "capacity must be positive")]
    fn zero_capacity_rejected() {
        let _ = BoundedDeque::<u8>::new(0);
    }

    #[test]
    fn producer_consumer_transfers_everything_in_order() {
        let q = Arc::new(BoundedDeque::new(4));
        let q2 = Arc::clone(&q);
        let producer = std::thread::spawn(move || {
            for mut i in 0..1000 {
                while let Err(back) = q2.try_offer_last(i) {
                    i = back;
                    std::thread::yield_now();
                }
            }
        });
        let q3 = Arc::clone(&q);
        let consumer = std::thread::spawn(move || {
            (0..1000)
                .map(|_| loop {
                    match q3.try_take_first() {
                        Some(i) => break i,
                        None => std::thread::yield_now(),
                    }
                })
                .collect::<Vec<i32>>()
        });
        producer.join().unwrap();
        let received = consumer.join().unwrap();
        assert_eq!(received, (0..1000).collect::<Vec<_>>());
    }

    #[test]
    fn capacity_is_respected_under_concurrency() {
        let q = Arc::new(BoundedDeque::new(3));
        let mut handles = Vec::new();
        for t in 0..4 {
            let q = Arc::clone(&q);
            handles.push(std::thread::spawn(move || {
                for i in 0..200 {
                    while q.try_offer_last(t * 1000 + i).is_err() {
                        std::thread::yield_now();
                    }
                    assert!(q.len() <= 3);
                    while q.try_take_first().is_none() {
                        std::thread::yield_now();
                    }
                }
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert!(q.len() <= 3);
    }
}
