//! The gate in front of every deterministic-scheduling hook: one
//! process-wide count of threads with a scheduler installed, read
//! relaxed before anything else. A hook returns at once when the count
//! is 0, and a thread without a scheduler must behave normally while a
//! run is going on other threads.
//!
//! The tests read that count, so they serialize on a file-level mutex
//! and nothing else in this binary installs a scheduler.

use std::sync::mpsc;
use std::sync::{Arc, Mutex, MutexGuard, PoisonError};
use std::time::{Duration, Instant};

use txboost_core::locks::Deadline;
use txboost_sched::core_det as det;

static GATE: Mutex<()> = Mutex::new(());

fn gate() -> MutexGuard<'static, ()> {
    GATE.lock().unwrap_or_else(PoisonError::into_inner)
}

#[test]
fn the_count_is_back_to_zero_after_a_panicking_run_and_after_a_replay() {
    let _g = gate();
    assert_eq!(det::installed(), 0);
    let body = |tid: usize| {
        assert!(det::installed() > 0, "a running body has its own scheduler");
        det::yield_point(det::Point::User);
        assert!(tid != 1, "t1 panics");
    };
    let report = txboost_sched::run_with_seed(3, 2, body);
    assert_eq!(report.panics.len(), 1, "{}", report.render_failure());
    assert_eq!(det::installed(), 0, "after a run whose body panicked");
    assert_eq!(txboost_sched::replay(3, 2, body), report);
    assert_eq!(det::installed(), 0, "after a replay");
}

/// Schedules nothing: every hook returns at once.
struct Idle;

impl det::DetScheduler for Idle {
    fn yield_point(&self, _tid: usize, _point: det::Point) {}
    fn block_tick(&self, _tid: usize) {}
    fn virtual_now(&self) -> u64 {
        0
    }
    fn mutated(&self, _m: det::Mutation) -> bool {
        false
    }
}

#[test]
fn installing_twice_on_one_thread_counts_once() {
    let _g = gate();
    let sched: Arc<dyn det::DetScheduler> = Arc::new(Idle);
    det::install(Arc::clone(&sched), 0);
    det::install(sched, 1);
    assert_eq!(det::installed(), 1);
    det::uninstall();
    assert_eq!(det::installed(), 0);
    det::uninstall();
    assert_eq!(det::installed(), 0, "a second uninstall takes nothing back");
}

#[test]
fn a_plain_thread_times_out_on_the_wall_clock_while_a_run_is_going() {
    let _g = gate();
    let timeout = Duration::from_millis(5);
    let (started_tx, started) = mpsc::channel();
    let (done, done_rx) = mpsc::channel::<()>();
    let done_rx = Mutex::new(done_rx);
    let (installed, waited, report) = std::thread::scope(|s| {
        // One logical thread, so it may block on a real channel while
        // holding the token: nobody else is waiting for it.
        let run = s.spawn(|| {
            txboost_sched::run_with_seed(0, 1, |_| {
                let _ = started_tx.send(());
                let _ = done_rx.lock().map(|rx| rx.recv());
            })
        });
        let _ = started.recv();
        let installed = det::installed();
        let (mutex, cv) = (parking_lot::Mutex::new(()), parking_lot::Condvar::new());
        let begun = Instant::now();
        let deadline = Deadline::after(timeout);
        let mut guard = mutex.lock();
        while !deadline.wait(&cv, &mut guard) {}
        let waited = begun.elapsed();
        drop(guard);
        let _ = done.send(());
        (installed, waited, run.join())
    });
    assert_eq!(
        installed, 1,
        "the run's thread was installed during the wait"
    );
    assert!(
        waited >= timeout,
        "timed out after {waited:?}, before {timeout:?}"
    );
    let report = report.expect("run thread panicked");
    assert!(!report.failed(), "{}", report.render_failure());
    assert_eq!(
        report.final_clock, 0,
        "the plain wait burned no virtual tick"
    );
}
