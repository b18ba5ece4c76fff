//! The retry loop every transaction runtime here shares, the
//! randomized exponential backoff it runs between attempts, and the
//! bounded [`SpinWait`] used before parking on a contended lock.

use crate::{AbortReason, TxResult, TxnError};
use rand::Rng;
use std::time::Duration;

/// Run `attempt` until it commits, with a [`Backoff`] between
/// attempts. `attempt` runs one whole attempt — begin, body, commit or
/// abort — and returns the value it committed or the abort that ended
/// it. An explicit abort is a decision, not a conflict, so it is never
/// retried ([`TxnError::ExplicitlyAborted`]); once `max_retries`
/// retries (`None`: no bound) have also aborted, the last abort's
/// reason is returned as [`TxnError::RetriesExhausted`].
pub fn retry<R>(
    max_retries: Option<u64>,
    mut attempt: impl FnMut() -> TxResult<R>,
) -> Result<R, TxnError> {
    let mut backoff = Backoff::default();
    let mut retries: u64 = 0;
    loop {
        let reason = match attempt() {
            Ok(value) => return Ok(value),
            Err(abort) => abort.reason(),
        };
        if reason == AbortReason::Explicit {
            return Err(TxnError::ExplicitlyAborted);
        }
        if max_retries.is_some_and(|max| retries >= max) {
            return Err(TxnError::RetriesExhausted(reason));
        }
        retries += 1;
        backoff.backoff();
    }
}

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
}

/// First ceiling of a [`Backoff`]: suits in-memory transactions.
const BACKOFF_MIN: Duration = Duration::from_micros(5);

/// The ceiling a [`Backoff`] never exceeds.
const BACKOFF_MAX: Duration = Duration::from_millis(1);

/// Randomized exponential backoff.
///
/// After an abort, the paper's runtime delays the retry to reduce the
/// chance that the same transactions collide on the same abstract locks
/// again. Each failure doubles the ceiling, from 5 µs up to 1 ms, and
/// the actual sleep is drawn uniformly from `[0, ceiling)` to break
/// symmetry between identical competitors.
#[derive(Debug, Clone)]
pub struct Backoff {
    ceiling: Duration,
}

impl Backoff {
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
            self.ceiling = (self.ceiling * 2).min(BACKOFF_MAX);
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
        self.ceiling = (self.ceiling * 2).min(BACKOFF_MAX);
    }
}

impl Default for Backoff {
    fn default() -> Self {
        Backoff {
            ceiling: BACKOFF_MIN,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceiling_doubles_and_saturates() {
        let mut b = Backoff::default();
        let mut ceilings = vec![b.ceiling];
        for _ in 0..9 {
            b.backoff();
            ceilings.push(b.ceiling);
        }
        let micros: Vec<u128> = ceilings.iter().map(Duration::as_micros).collect();
        assert_eq!(micros, [5, 10, 20, 40, 80, 160, 320, 640, 1000, 1000]);
    }

    #[test]
    fn spinwait_budget_is_bounded() {
        let mut s = SpinWait::new();
        let mut rounds = 0;
        while s.spin() {
            rounds += 1;
            assert!(rounds <= 64, "spin budget must be finite");
        }
        assert_eq!(rounds, 6);
        assert!(!s.spin(), "an exhausted spinner stays exhausted");
    }
}
