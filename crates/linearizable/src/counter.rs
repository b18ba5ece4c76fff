//! Linearizable counters.
//!
//! [`FetchAddCounter`] is the `getAndAdd()` counter of the paper's
//! unique-ID-generator example (Section 3.4): under boosting, a plain
//! fetch-and-add counter *is* a correct transactional unique-ID
//! generator, because `releaseID` is disposable and may be postponed
//! forever. [`StripedCounter`] spreads increments across cache lines for
//! write-heavy statistics.

use std::sync::atomic::{AtomicI64, AtomicU64, Ordering};

/// A linearizable fetch-and-add counter.
#[derive(Debug, Default)]
pub struct FetchAddCounter {
    value: AtomicU64,
}

impl FetchAddCounter {
    /// A counter starting at 0.
    pub fn new() -> Self {
        FetchAddCounter::default()
    }

    /// Atomically add `n`, returning the value *before* the addition
    /// (Java's `getAndAdd`).
    pub fn get_and_add(&self, n: u64) -> u64 {
        self.value.fetch_add(n, Ordering::Relaxed)
    }

    /// Current value.
    pub fn get(&self) -> u64 {
        self.value.load(Ordering::Relaxed)
    }
}

/// Pad each slot to its own cache line to prevent false sharing.
#[repr(align(128))]
#[derive(Debug, Default)]
struct PaddedI64(AtomicI64);

/// A striped counter: increments scatter over per-stripe cells,
/// `sum()` folds them.
///
/// Increments on different stripes never touch the same cache line, so
/// heavily concurrent updates scale linearly; `sum` is only quiescently
/// accurate, which is the usual contract for statistical counters (and
/// exactly how `LongAdder` behaves in the `java.util.concurrent`
/// library the paper builds on).
#[derive(Debug)]
pub struct StripedCounter {
    stripes: Box<[PaddedI64]>,
}

/// Cells in a [`StripedCounter`]: more than the threads of any host the
/// counter runs on, so two threads rarely share a cell.
const STRIPES: usize = 64;

impl Default for StripedCounter {
    fn default() -> Self {
        StripedCounter::new()
    }
}

impl StripedCounter {
    /// A counter starting at 0, over 64 cells.
    pub fn new() -> Self {
        StripedCounter {
            stripes: (0..STRIPES).map(|_| PaddedI64::default()).collect(),
        }
    }

    fn stripe_for_thread(&self) -> &AtomicI64 {
        // Derive a stable per-thread stripe from the thread id hash.
        use std::hash::{BuildHasher, RandomState};
        thread_local! {
            static STRIPE: std::cell::Cell<Option<usize>> = const { std::cell::Cell::new(None) };
        }
        let idx = STRIPE.with(|s| match s.get() {
            Some(i) => i,
            None => {
                let h = RandomState::new().hash_one(std::thread::current().id());
                let i = h as usize;
                s.set(Some(i));
                i
            }
        });
        &self.stripes[idx % self.stripes.len()].0
    }

    /// Add `n` to the calling thread's stripe.
    pub fn add(&self, n: i64) {
        self.stripe_for_thread().fetch_add(n, Ordering::Relaxed);
    }

    /// Fold all stripes (quiescently accurate).
    pub fn sum(&self) -> i64 {
        self.stripes
            .iter()
            .map(|s| s.0.load(Ordering::Relaxed))
            .sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::Arc;

    #[test]
    fn get_and_add_returns_previous_value() {
        let c = FetchAddCounter::new();
        assert_eq!(c.get_and_add(10), 0);
        assert_eq!(c.get_and_add(1), 10);
        assert_eq!(c.get_and_add(5), 11);
        assert_eq!(c.get(), 16);
    }

    #[test]
    fn fetch_add_counter_yields_unique_ids_concurrently() {
        let c = Arc::new(FetchAddCounter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                (0..1000).map(|_| c.get_and_add(1)).collect::<Vec<_>>()
            }));
        }
        let mut all: Vec<u64> = handles
            .into_iter()
            .flat_map(|h| h.join().unwrap())
            .collect();
        all.sort_unstable();
        all.dedup();
        assert_eq!(all.len(), 8000, "duplicate IDs were assigned");
    }

    #[test]
    fn striped_counter_sums_across_threads() {
        let c = Arc::new(StripedCounter::new());
        let mut handles = Vec::new();
        for _ in 0..8 {
            let c = Arc::clone(&c);
            handles.push(std::thread::spawn(move || {
                for _ in 0..1000 {
                    c.add(2);
                }
                c.add(-1);
            }));
        }
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(c.sum(), 8 * (2000 - 1));
    }
}
