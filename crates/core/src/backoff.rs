//! Randomized exponential backoff between transaction retries, and the
//! bounded [`SpinWait`] used before parking on a contended lock.

use rand::Rng;
use std::time::Duration;

/// A bounded exponential spinner: the "wait briefly before parking"
/// phase of a contended lock acquisition.
///
/// Abstract locks are held for the remainder of a transaction, so most
/// contended waits are short (the owner is about to commit); spinning a
/// few hundred cycles first avoids the syscall-weight park/unpark round
/// trip. Each [`SpinWait::spin`] call busy-waits twice as long as the
/// last, and after a fixed budget returns `false`, telling the caller
/// to fall back to parking.
#[derive(Debug, Default)]
pub struct SpinWait {
    rounds: u32,
}

/// `2^MAX_SPIN_ROUNDS - 2` total `spin_loop` hints (~126) before
/// [`SpinWait::spin`] gives up — a few hundred nanoseconds, comparable
/// to one park/unpark round trip.
const MAX_SPIN_ROUNDS: u32 = 6;

impl SpinWait {
    /// A fresh spinner with its full budget.
    pub fn new() -> Self {
        SpinWait::default()
    }

    /// Busy-wait for one (exponentially growing) round. Returns `false`
    /// once the budget is exhausted, after which the caller should park.
    pub fn spin(&mut self) -> bool {
        if self.rounds >= MAX_SPIN_ROUNDS {
            return false;
        }
        self.rounds += 1;
        for _ in 0..(1u32 << self.rounds) {
            std::hint::spin_loop();
        }
        true
    }

    /// Restore the full budget (e.g. after a successful acquisition,
    /// for reuse on the next contended lock).
    pub fn reset(&mut self) {
        self.rounds = 0;
    }
}

/// Randomized exponential backoff.
///
/// After an abort, the paper's runtime delays the retry to reduce the
/// chance that the same transactions collide on the same abstract locks
/// again. Each failure doubles the ceiling (up to `max`), and the actual
/// sleep is drawn uniformly from `[0, ceiling)` to break symmetry
/// between identical competitors.
#[derive(Debug, Clone)]
pub struct Backoff {
    ceiling: Duration,
    max: Duration,
}

impl Backoff {
    /// Create a backoff whose first ceiling is `min` and which never
    /// exceeds `max`.
    pub fn new(min: Duration, max: Duration) -> Self {
        assert!(!min.is_zero(), "backoff minimum must be non-zero");
        assert!(min <= max, "backoff minimum must not exceed maximum");
        Backoff { ceiling: min, max }
    }

    /// Sleep for a random duration below the current ceiling, then
    /// double the ceiling (saturating at the maximum).
    ///
    /// Under a deterministic scheduler the sleep collapses to a single
    /// scheduling yield: wall-clock delays and PRNG jitter would not
    /// influence which interleavings the harness explores, they would
    /// only stall the serialized run.
    pub fn backoff(&mut self) {
        if crate::det::active() {
            crate::det::yield_point(crate::det::Point::Backoff);
            self.ceiling = (self.ceiling * 2).min(self.max);
            return;
        }
        let nanos = self.ceiling.as_nanos() as u64;
        let jittered = rand::rng().random_range(0..nanos.max(1));
        let sleep = Duration::from_nanos(jittered);
        if !sleep.is_zero() {
            // For very short waits, spinning is cheaper and more precise
            // than descheduling the thread.
            if sleep < Duration::from_micros(50) {
                let start = std::time::Instant::now();
                while start.elapsed() < sleep {
                    std::hint::spin_loop();
                }
            } else {
                std::thread::sleep(sleep);
            }
        }
        self.ceiling = (self.ceiling * 2).min(self.max);
    }

    /// The current ceiling (mostly useful for tests and telemetry).
    pub fn ceiling(&self) -> Duration {
        self.ceiling
    }
}

impl Default for Backoff {
    /// A default suitable for in-memory transactions: 5 µs initial
    /// ceiling, 1 ms maximum.
    fn default() -> Self {
        Backoff::new(Duration::from_micros(5), Duration::from_millis(1))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_doubles_and_saturates() {
        let mut b = Backoff::new(Duration::from_nanos(100), Duration::from_nanos(350));
        assert_eq!(b.ceiling(), Duration::from_nanos(100));
        b.backoff();
        assert_eq!(b.ceiling(), Duration::from_nanos(200));
        b.backoff();
        assert_eq!(b.ceiling(), Duration::from_nanos(350));
        b.backoff();
        assert_eq!(b.ceiling(), Duration::from_nanos(350));
    }

    #[test]
    #[should_panic(expected = "non-zero")]
    fn zero_minimum_rejected() {
        let _ = Backoff::new(Duration::ZERO, Duration::from_millis(1));
    }

    #[test]
    #[should_panic(expected = "must not exceed")]
    fn inverted_bounds_rejected() {
        let _ = Backoff::new(Duration::from_millis(2), Duration::from_millis(1));
    }

    #[test]
    fn spinwait_budget_is_bounded_and_resettable() {
        let mut s = SpinWait::new();
        let mut rounds = 0;
        while s.spin() {
            rounds += 1;
            assert!(rounds <= 64, "spin budget must be finite");
        }
        assert_eq!(rounds, 6);
        assert!(!s.spin(), "an exhausted spinner stays exhausted");
        s.reset();
        assert!(s.spin(), "reset restores the budget");
    }
}
