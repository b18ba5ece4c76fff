//! The seam through which every blocking wait reaches the clock and
//! the condvar.
//!
//! A wait loop builds one [`Deadline`] and calls [`Deadline::wait`]
//! each time it has to block. Normally that is the wall clock and a
//! timed condvar wait. With a deterministic scheduler installed on the
//! thread the same calls run on virtual time: a wait is one
//! [`crate::det::block_tick`] — a scheduling round that advances the
//! virtual clock — and the loop's own re-check after it stands in for
//! the notification. So the harness executes the loops that ship, not
//! a twin of them. A timeout too large to reach, such as
//! `Duration::MAX`, never passes.

use parking_lot::{Condvar, MutexGuard};
use std::time::{Duration, Instant};

/// When a blocking wait gives up, fixed at the moment the wait began.
#[derive(Debug)]
pub struct Deadline {
    start: Instant,
    /// `None`: past what an `Instant` can hold, so never.
    end: Option<Instant>,
    /// The virtual tick at which the wait times out; `Some` iff a
    /// deterministic scheduler was installed when the wait began.
    virtual_end: Option<u64>,
}

impl Deadline {
    /// A deadline `timeout` from now.
    pub fn after(timeout: Duration) -> Deadline {
        let start = Instant::now();
        Deadline {
            start,
            end: start.checked_add(timeout),
            virtual_end: crate::det::active()
                .then(|| crate::det::virtual_now().saturating_add(crate::det::ticks_for(timeout))),
        }
    }

    /// Block on `cv` until notified or the deadline passes, releasing
    /// `guard`'s mutex meanwhile; `true` means the deadline passed.
    /// Wake-ups may be spurious — the caller re-checks its condition
    /// either way, and once more after a timeout.
    pub fn wait<T>(&self, cv: &Condvar, guard: &mut MutexGuard<'_, T>) -> bool {
        if let Some(end) = self.virtual_end {
            // The guard must be released across the tick: a logical
            // thread that yields while holding the mutex wedges the
            // harness as soon as the thread it yields to wants it.
            MutexGuard::unlocked(guard, crate::det::block_tick);
            return crate::det::virtual_now() >= end;
        }
        let Some(end) = self.end else {
            cv.wait(guard);
            return false;
        };
        cv.wait_until(guard, end).timed_out()
    }

    /// Wall-clock time since the wait began (what the contention
    /// histograms record, under either clock).
    pub fn elapsed(&self) -> Duration {
        self.start.elapsed()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parking_lot::Mutex;
    use std::sync::Arc;

    #[test]
    fn a_wait_with_no_deadline_parks_until_notified() {
        let pair = Arc::new((Mutex::new(false), Condvar::new()));
        let waiter = {
            let pair = Arc::clone(&pair);
            std::thread::spawn(move || {
                let deadline = Deadline::after(Duration::MAX);
                let mut woken = pair.0.lock();
                while !*woken {
                    assert!(!deadline.wait(&pair.1, &mut woken), "Duration::MAX passed");
                }
            })
        };
        std::thread::sleep(Duration::from_millis(20));
        *pair.0.lock() = true;
        pair.1.notify_all();
        waiter.join().expect("waiter panicked");
    }
}
