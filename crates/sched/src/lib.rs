//! # txboost-sched — deterministic schedule exploration for the boosting stack
//!
//! A shuttle-style concurrency testing harness: N logical threads run
//! as real OS threads but are **serialized** — exactly one holds the
//! scheduler token at any instant — and every context switch happens at
//! an instrumented decision point of the transactional runtime
//! (`txboost_core::det`): lock acquire/release, undo-log push,
//! commit/abort, backoff, and the STM's read/validate phases. The next
//! runnable thread is picked by a seeded PRNG, so:
//!
//! * a run is a pure function of `(seed, thread bodies)` — re-running
//!   the same seed replays the identical interleaving ([`replay`]);
//! * sweeping seeds explores thousands of distinct interleavings per
//!   CI run ([`sweep`]), and a failure report prints the seed plus the
//!   full schedule;
//! * for small bounds, [`explore_dfs`] enumerates *every* schedule by
//!   depth-first search over the recorded branching structure.
//!
//! Runs are themselves serialized, process-wide: two tests of one
//! binary take turns, because a commit in one could otherwise wait on
//! the other's (the commit clock is process-global) and the wait would
//! leak into its schedule.
//!
//! Lock timeouts run on **virtual time**: a blocked thread burns one
//! tick per scheduling round instead of waiting on a wall clock, so
//! deadlock recovery (the paper's timeout-abort discipline) resolves
//! the same way on every replay.
//!
//! The hooks are compiled into every build and cost one relaxed load
//! while no run is going, so a run tests the program that ships. A
//! run started with [`run_staged`] or [`sweep_staged`] also stages
//! [`Mutation`]s — deliberate defects its sweep must catch — that only
//! its own threads see.
//!
//! ```
//! use std::sync::Arc;
//! use txboost_core::{locks::KeyLockMap, TxnManager};
//!
//! let report = txboost_sched::run_with_seed(42, 2, |tid| {
//!     let tm = TxnManager::default();
//!     let map = Arc::new(KeyLockMap::<i64>::new());
//!     tm.run(|txn| map.lock(txn, &(tid as i64))).unwrap();
//! });
//! assert!(!report.failed());
//! assert_eq!(report, txboost_sched::replay(42, 2, |tid| {
//!     let tm = TxnManager::default();
//!     let map = Arc::new(KeyLockMap::<i64>::new());
//!     tm.run(|txn| map.lock(txn, &(tid as i64))).unwrap();
//! }));
//! ```
//!
//! ## What not to run under the harness
//!
//! Only code whose blocking flows through the instrumented points
//! (`txboost_core::locks::Deadline::wait`, a yield point) may run on
//! harness threads. A wait on a real condvar, mutex or channel would
//! sleep while holding the scheduler token and stall the whole run.

#![warn(missing_docs)]

use parking_lot::{Condvar, Mutex};
use std::fmt::Write as _;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::sync::Arc;
use txboost_core::det::{self, DetScheduler, Mutation, Point};

pub use txboost_core::det as core_det;

/// Hard ceiling on scheduling steps per run; exceeding it fails the
/// run with a livelock diagnosis instead of hanging the test suite.
pub const MAX_STEPS: usize = 200_000;

/// One recorded scheduling decision.
///
/// `choice` indexes the ascending list of threads that could run next
/// (`alternatives` long: the threads alive at decision time, less the
/// deciding thread itself at a blocked tick); together they reconstruct
/// both *who ran* and *how wide* the decision was, which is exactly
/// what the DFS mode needs to enumerate sibling schedules.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Step {
    /// The thread that reached the decision point (for
    /// [`Point::Start`], the thread chosen to run first).
    pub tid: usize,
    /// Which instrumented point was reached.
    pub point: Point,
    /// Index of the chosen thread among the candidates, ascending.
    pub choice: usize,
    /// Number of candidate threads the choice was made over.
    pub alternatives: usize,
    /// Virtual clock (ticks) when the decision was taken.
    pub clock: u64,
}

/// How the scheduler picks the next thread.
enum Mode {
    /// Seeded PRNG choice at every step.
    Random(SplitMix64),
    /// Follow a forced prefix of choice indices, then always pick the
    /// lowest-numbered alive thread (DFS canonical completion).
    Forced { choices: Vec<usize>, pos: usize },
}

/// xorshift-free splittable generator (SplitMix64): tiny, seedable,
/// and with no dependency on the `rand` shim so harness determinism
/// cannot drift with it.
struct SplitMix64(u64);

impl SplitMix64 {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

struct Inner {
    /// Thread currently holding the token.
    current: usize,
    alive: Vec<bool>,
    mode: Mode,
    clock: u64,
    schedule: Vec<Step>,
    panics: Vec<(usize, String)>,
    /// Set when a run had to bail (max-steps livelock guard).
    overran: bool,
}

impl Inner {
    fn alive_tids(&self) -> Vec<usize> {
        (0..self.alive.len()).filter(|&t| self.alive[t]).collect()
    }

    /// Record a decision at `point` reached by `tid` and return the
    /// next thread to run. Never panics — the step-budget check lives
    /// in `switch`, so the hand-off paths (`kickoff`, `finish`) stay
    /// panic-free even on an overrunning schedule.
    ///
    /// A thread that reports itself blocked is not a candidate at that
    /// decision while another thread is alive: it cannot move until
    /// someone else has, and a wait with no timeout (a commit waiting
    /// at the install window's word) would otherwise let the DFS mode's
    /// lowest-thread-first completion re-run the waiter for ever.
    fn decide(&mut self, tid: usize, point: Point) -> usize {
        let mut candidates = self.alive_tids();
        if point == Point::LockBlocked && candidates.len() > 1 {
            candidates.retain(|&t| t != tid);
        }
        debug_assert!(!candidates.is_empty());
        let alternatives = candidates.len();
        let choice = match &mut self.mode {
            Mode::Random(rng) => (rng.next() % alternatives as u64) as usize,
            Mode::Forced { choices, pos } => {
                let c = choices.get(*pos).copied().unwrap_or(0);
                *pos += 1;
                assert!(
                    c < alternatives,
                    "forced schedule diverged: choice {c} of {alternatives} at step {}",
                    self.schedule.len()
                );
                c
            }
        };
        self.schedule.push(Step {
            tid,
            point,
            choice,
            alternatives,
            clock: self.clock,
        });
        candidates[choice]
    }
}

/// The serializing scheduler. Tests never construct one directly; use
/// [`run_with_seed`], [`replay`], [`sweep`] or [`explore_dfs`].
struct Scheduler {
    inner: Mutex<Inner>,
    cv: Condvar,
    /// The mutations this run was started with.
    staged: Vec<Mutation>,
}

impl Scheduler {
    fn new(threads: usize, mode: Mode, staged: &[Mutation]) -> Self {
        Scheduler {
            staged: staged.to_vec(),
            inner: Mutex::new(Inner {
                current: usize::MAX, // nobody until kickoff
                alive: vec![true; threads],
                mode,
                clock: 0,
                schedule: Vec::new(),
                panics: Vec::new(),
                overran: false,
            }),
            cv: Condvar::new(),
        }
    }

    /// Choose and seat the first thread.
    fn kickoff(&self) {
        let mut inner = self.inner.lock();
        let first = inner.decide(0, Point::Start);
        // Rewrite the Start step's tid to the chosen thread: the
        // decision wasn't reached *by* any thread, it selects one.
        let last = inner.schedule.len() - 1;
        inner.schedule[last].tid = first;
        inner.current = first;
        self.cv.notify_all();
    }

    fn wait_for_token(&self, tid: usize) {
        let mut inner = self.inner.lock();
        while inner.current != tid {
            self.cv.wait(&mut inner);
        }
    }

    /// Thread `tid` finished (normally or by caught panic): release
    /// the token to some still-alive thread.
    fn finish(&self, tid: usize) {
        let mut inner = self.inner.lock();
        inner.alive[tid] = false;
        if inner.alive.iter().any(|&a| a) {
            let next = inner.decide(tid, Point::Finish);
            inner.current = next;
        } else {
            let clock = inner.clock;
            inner.schedule.push(Step {
                tid,
                point: Point::Finish,
                choice: 0,
                alternatives: 0,
                clock,
            });
            inner.current = usize::MAX;
        }
        self.cv.notify_all();
    }

    fn record_panic(&self, tid: usize, msg: String) {
        self.inner.lock().panics.push((tid, msg));
    }

    fn switch(&self, tid: usize, point: Point, tick: bool) {
        let mut inner = self.inner.lock();
        debug_assert_eq!(inner.current, tid, "yield from a thread without the token");
        if inner.schedule.len() >= MAX_STEPS {
            // Every thread that reaches any yield point after the
            // budget unwinds here; its panic is caught by the worker
            // wrapper and the run is reported as overrun rather than
            // hanging the suite on a livelocked schedule.
            inner.overran = true;
            panic!("deterministic scheduler exceeded {MAX_STEPS} steps (livelock?)");
        }
        if tick {
            inner.clock += 1;
        }
        let next = inner.decide(tid, point);
        if next != tid {
            inner.current = next;
            self.cv.notify_all();
            while inner.current != tid {
                self.cv.wait(&mut inner);
            }
        }
    }
}

impl DetScheduler for Scheduler {
    fn yield_point(&self, tid: usize, point: Point) {
        self.switch(tid, point, false);
    }

    fn block_tick(&self, tid: usize) {
        self.switch(tid, Point::LockBlocked, true);
    }

    fn virtual_now(&self) -> u64 {
        self.inner.lock().clock
    }

    fn mutated(&self, m: Mutation) -> bool {
        self.staged.contains(&m)
    }
}

/// Everything observed during one serialized run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunReport {
    /// The seed that produced the run (0 for forced/DFS runs).
    pub seed: u64,
    /// Number of logical threads.
    pub threads: usize,
    /// Every scheduling decision, in order.
    pub schedule: Vec<Step>,
    /// Virtual clock at the end of the run.
    pub final_clock: u64,
    /// Panics caught on harness threads: `(tid, message)`.
    pub panics: Vec<(usize, String)>,
    /// The run hit [`MAX_STEPS`] and was cut short.
    pub overran: bool,
}

impl RunReport {
    /// Whether any harness thread panicked or the run overran.
    pub fn failed(&self) -> bool {
        !self.panics.is_empty() || self.overran
    }

    /// Whether some thread reached `point` during the run: the hook is
    /// compiled in and the scheduler really preempted there.
    pub fn reached(&self, point: Point) -> bool {
        self.schedule.iter().any(|s| s.point == point)
    }

    /// Render the schedule, one line per step (the tail only, for very
    /// long runs), for inclusion in a failure message.
    pub fn render_schedule(&self) -> String {
        const TAIL: usize = 250;
        let mut out = String::new();
        let skip = self.schedule.len().saturating_sub(TAIL);
        if skip > 0 {
            let _ = writeln!(out, "... ({skip} earlier steps elided)");
        }
        for (i, s) in self.schedule.iter().enumerate().skip(skip) {
            let _ = writeln!(
                out,
                "[{i:5}] t{} {:<12} choice {}/{} clock={}",
                s.tid, s.point, s.choice, s.alternatives, s.clock
            );
        }
        out
    }

    /// Render a complete failure report: seed, replay instructions,
    /// caught panics, schedule.
    pub fn render_failure(&self) -> String {
        let mut out = String::new();
        let _ = writeln!(
            out,
            "deterministic run FAILED: seed={} threads={}",
            self.seed, self.threads
        );
        let _ = writeln!(
            out,
            "reproduce with txboost_sched::replay({}, {}, body)",
            self.seed, self.threads
        );
        if self.overran {
            let _ = writeln!(out, "run overran {MAX_STEPS} steps (livelock?)");
        }
        for (tid, msg) in &self.panics {
            let _ = writeln!(out, "--- panic on t{tid} ---\n{msg}");
        }
        let _ = writeln!(out, "--- schedule ---\n{}", self.render_schedule());
        out
    }
}

fn panic_message(payload: Box<dyn std::any::Any + Send>) -> String {
    if let Some(s) = payload.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = payload.downcast_ref::<String>() {
        s.clone()
    } else {
        "(non-string panic payload)".to_string()
    }
}

/// Held for the length of a run: one run at a time, process-wide. The
/// runtime has process-global state a run can block on — a commit
/// waits at the install window of `MvccDomain::global()`'s clock while
/// another commit is inside it — so a second run in the same process
/// (another `#[test]` of the binary) parked inside its install window
/// would show up in this one's schedule as blocked ticks, and the run
/// would no longer be a function of its seed.
static ONE_RUN: Mutex<()> = Mutex::new(());

fn run_mode(
    seed: u64,
    threads: usize,
    mode: Mode,
    staged: &[Mutation],
    body: &(impl Fn(usize) + Sync),
) -> RunReport {
    assert!(threads > 0, "need at least one logical thread");
    let _one_run = ONE_RUN.lock();
    let sched = Arc::new(Scheduler::new(threads, mode, staged));
    std::thread::scope(|scope| {
        for tid in 0..threads {
            let sched = Arc::clone(&sched);
            scope.spawn(move || {
                sched.wait_for_token(tid);
                det::install(Arc::clone(&sched) as Arc<dyn DetScheduler>, tid);
                let result = catch_unwind(AssertUnwindSafe(|| body(tid)));
                det::uninstall();
                if let Err(payload) = result {
                    sched.record_panic(tid, panic_message(payload));
                }
                sched.finish(tid);
            });
        }
        sched.kickoff();
    });
    let inner = sched.inner.lock();
    RunReport {
        seed,
        threads,
        schedule: inner.schedule.clone(),
        final_clock: inner.clock,
        panics: inner.panics.clone(),
        overran: inner.overran,
    }
}

/// Run `body(tid)` on `threads` serialized logical threads, with every
/// scheduling decision drawn from a PRNG seeded with `seed`. The run
/// is deterministic: same seed, same bodies ⇒ same interleaving, same
/// [`RunReport`].
pub fn run_with_seed(seed: u64, threads: usize, body: impl Fn(usize) + Sync) -> RunReport {
    run_staged(seed, threads, &[], body)
}

/// [`run_with_seed`] with `staged` mutations: for this run's threads,
/// and no other, `det::mutated(m)` is `true` for each `m` in `staged`.
pub fn run_staged(
    seed: u64,
    threads: usize,
    staged: &[Mutation],
    body: impl Fn(usize) + Sync,
) -> RunReport {
    run_mode(seed, threads, Mode::Random(SplitMix64(seed)), staged, &body)
}

/// Reproduce the exact interleaving of a previous [`run_with_seed`]
/// with the same `seed`, `threads` and `body`. This *is*
/// `run_with_seed` — determinism makes replay a re-run — under the
/// name failure reports tell you to call.
pub fn replay(seed: u64, threads: usize, body: impl Fn(usize) + Sync) -> RunReport {
    run_with_seed(seed, threads, body)
}

/// Run `body` under every seed in `seeds`; on the first failing seed,
/// replay it, assert the failure reproduces with an identical
/// schedule, and panic with the full failure report (seed, schedule,
/// caught panics — see [`RunReport::render_failure`]).
pub fn sweep(seeds: impl IntoIterator<Item = u64>, threads: usize, body: impl Fn(usize) + Sync) {
    for seed in seeds {
        let report = run_with_seed(seed, threads, &body);
        if report.failed() {
            let again = replay(seed, threads, &body);
            assert_eq!(
                report.schedule, again.schedule,
                "replay of seed {seed} diverged from the failing run — \
                 a thread body is nondeterministic (wall clock? rand? \
                 uninstrumented shared state?)"
            );
            panic!("{}", report.render_failure());
        }
    }
}

/// Like [`sweep`], for workloads that need fresh shared state per
/// seed: `setup()` builds the state, every logical thread runs
/// `body(&state, tid)`, and `check(state, &report)` validates the
/// outcome (final-state invariants, recorded-history serializability,
/// …) after the run. Failures — harness panics *and* check panics —
/// report the seed and the schedule; harness failures are
/// replay-verified first, exactly as in [`sweep`].
pub fn sweep_setup<S: Sync>(
    seeds: impl IntoIterator<Item = u64>,
    threads: usize,
    setup: impl Fn() -> S,
    body: impl Fn(&S, usize) + Sync,
    check: impl Fn(S, &RunReport),
) {
    sweep_staged(seeds, threads, &[], setup, body, check);
}

/// [`sweep_setup`] with every run started with `staged` mutations (see
/// [`run_staged`]).
pub fn sweep_staged<S: Sync>(
    seeds: impl IntoIterator<Item = u64>,
    threads: usize,
    staged: &[Mutation],
    setup: impl Fn() -> S,
    body: impl Fn(&S, usize) + Sync,
    check: impl Fn(S, &RunReport),
) {
    for seed in seeds {
        let state = setup();
        let report = run_staged(seed, threads, staged, |tid| body(&state, tid));
        if report.failed() {
            let state2 = setup();
            let again = run_staged(seed, threads, staged, |tid| body(&state2, tid));
            assert_eq!(
                report.schedule, again.schedule,
                "replay of seed {seed} diverged from the failing run — \
                 a thread body is nondeterministic (wall clock? rand? \
                 uninstrumented shared state?)"
            );
            panic!("{}", report.render_failure());
        }
        if let Err(payload) = catch_unwind(AssertUnwindSafe(|| check(state, &report))) {
            panic!(
                "post-run check FAILED for seed {seed} (threads={threads}): {}\n\
                 reproduce with txboost_sched::replay({seed}, {threads}, body)\n\
                 --- schedule ---\n{}",
                panic_message(payload),
                report.render_schedule()
            );
        }
    }
}

/// The seed range for randomized sweeps, honouring the environment:
/// `DET_SEEDS` overrides the number of seeds (default `default_count`)
/// and `DET_SWEEP_SEED` sets the first seed (default 0) — CI echoes a
/// random base so failures log a reproducible starting point.
pub fn seeds_from_env(default_count: u64) -> std::ops::Range<u64> {
    let count = std::env::var("DET_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default_count);
    let base: u64 = std::env::var("DET_SWEEP_SEED")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(0);
    base..base.saturating_add(count)
}

/// Result of a [`explore_dfs`] enumeration.
#[derive(Debug)]
pub struct DfsReport {
    /// Number of schedules executed.
    pub runs: usize,
    /// Whether the whole schedule space was exhausted within the run
    /// budget.
    pub complete: bool,
    /// The first failing run, if any (enumeration stops there).
    pub failure: Option<RunReport>,
}

/// Compute the next forced-choice prefix in DFS order, or `None` once
/// the space is exhausted: increment the last decision that still has
/// an unexplored sibling, drop everything after it.
fn next_prefix(decisions: &[(usize, usize)]) -> Option<Vec<usize>> {
    for i in (0..decisions.len()).rev() {
        let (choice, alternatives) = decisions[i];
        if choice + 1 < alternatives {
            let mut prefix: Vec<usize> = decisions[..i].iter().map(|d| d.0).collect();
            prefix.push(choice + 1);
            return Some(prefix);
        }
    }
    None
}

/// Exhaustively enumerate schedules by depth-first search, up to
/// `max_runs` executions. Each run follows a forced prefix of choices
/// and completes canonically (always the lowest-numbered alive
/// thread); the recorded branching factors then yield the next
/// unexplored prefix. Suitable only for small bounds — the space is
/// exponential in schedule length — but within those bounds it proves
/// a property over *every* interleaving rather than sampling.
///
/// Stops at the first failing schedule and returns it in
/// [`DfsReport::failure`].
pub fn explore_dfs(threads: usize, max_runs: usize, body: impl Fn(usize) + Sync) -> DfsReport {
    let mut prefix: Vec<usize> = Vec::new();
    let mut runs = 0;
    loop {
        let report = run_mode(
            0,
            threads,
            Mode::Forced {
                choices: std::mem::take(&mut prefix),
                pos: 0,
            },
            &[],
            &body,
        );
        runs += 1;
        if report.failed() {
            return DfsReport {
                runs,
                complete: false,
                failure: Some(report),
            };
        }
        let decisions: Vec<(usize, usize)> = report
            .schedule
            .iter()
            .map(|s| (s.choice, s.alternatives))
            .collect();
        match next_prefix(&decisions) {
            Some(p) if runs < max_runs => prefix = p,
            Some(_) => {
                return DfsReport {
                    runs,
                    complete: false,
                    failure: None,
                }
            }
            None => {
                return DfsReport {
                    runs,
                    complete: true,
                    failure: None,
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicUsize, Ordering};

    #[test]
    fn same_seed_same_schedule() {
        let body = |tid: usize| {
            for _ in 0..3 {
                det::yield_point(Point::User);
            }
            let _ = tid;
        };
        let a = run_with_seed(7, 3, body);
        let b = replay(7, 3, body);
        assert_eq!(a, b);
        assert!(!a.failed());
    }

    #[test]
    fn different_seeds_differ_somewhere() {
        let body = |_tid: usize| {
            for _ in 0..5 {
                det::yield_point(Point::User);
            }
        };
        let schedules: Vec<_> = (0..20)
            .map(|s| run_with_seed(s, 3, body).schedule)
            .collect();
        assert!(
            schedules.iter().any(|s| *s != schedules[0]),
            "20 seeds all produced one interleaving"
        );
    }

    #[test]
    fn exactly_one_thread_runs_at_a_time() {
        let inside = AtomicUsize::new(0);
        let report = run_with_seed(3, 4, |_tid| {
            for _ in 0..10 {
                assert_eq!(inside.fetch_add(1, Ordering::SeqCst), 0, "overlap");
                inside.fetch_sub(1, Ordering::SeqCst);
                det::yield_point(Point::User);
            }
        });
        assert!(!report.failed(), "{}", report.render_failure());
    }

    #[test]
    fn panics_are_caught_and_reported() {
        let report = run_with_seed(1, 2, |tid| {
            det::yield_point(Point::User);
            assert!(tid != 1, "boom on t1");
        });
        assert!(report.failed());
        assert_eq!(report.panics.len(), 1);
        assert_eq!(report.panics[0].0, 1);
        assert!(report.panics[0].1.contains("boom on t1"));
        assert!(report.render_failure().contains("seed=1"));
    }

    #[test]
    #[should_panic(expected = "deterministic run FAILED")]
    fn sweep_panics_with_report_on_failure() {
        sweep(0..10, 2, |tid| {
            det::yield_point(Point::User);
            assert!(tid != 1, "t1 always fails");
        });
    }

    #[test]
    fn dfs_enumerates_the_two_thread_space() {
        // Two threads, one user yield each: every decision has ≤ 2
        // alternatives and the space is tiny; DFS must terminate and
        // report completeness.
        let report = explore_dfs(2, 1_000, |_tid| {
            det::yield_point(Point::User);
        });
        assert!(report.complete, "ran {} schedules", report.runs);
        assert!(report.failure.is_none());
        assert!(
            report.runs >= 2,
            "must explore more than one interleaving, got {}",
            report.runs
        );
    }

    #[test]
    fn dfs_finds_a_schedule_dependent_bug() {
        // Classic lost-update shape: unsynchronized read-yield-write
        // on a shared counter. Some interleavings lose an increment;
        // DFS over the full space must encounter at least one (and at
        // least one correct one).
        use std::sync::atomic::AtomicBool;
        let counter = AtomicUsize::new(0);
        let finished = AtomicUsize::new(0);
        let saw_lost_update = AtomicBool::new(false);
        let saw_correct = AtomicBool::new(false);
        let report = explore_dfs(2, 10_000, |_tid| {
            let v = counter.load(Ordering::SeqCst);
            det::yield_point(Point::User);
            counter.store(v + 1, Ordering::SeqCst);
            if finished.fetch_add(1, Ordering::SeqCst) == 1 {
                // Both threads of this run are done: classify and
                // reset for the next enumerated schedule.
                match counter.load(Ordering::SeqCst) {
                    2 => saw_correct.store(true, Ordering::SeqCst),
                    _ => saw_lost_update.store(true, Ordering::SeqCst),
                }
                counter.store(0, Ordering::SeqCst);
                finished.store(0, Ordering::SeqCst);
            }
        });
        assert!(
            report.complete,
            "space not exhausted in {} runs",
            report.runs
        );
        assert!(
            saw_lost_update.load(Ordering::SeqCst),
            "DFS never produced a lost-update interleaving"
        );
        assert!(saw_correct.load(Ordering::SeqCst));
    }

    #[test]
    fn virtual_clock_advances_on_block_ticks() {
        let report = run_with_seed(5, 2, |_tid| {
            det::block_tick();
            det::block_tick();
        });
        assert_eq!(report.final_clock, 4);
        assert!(report.reached(Point::LockBlocked));
        assert!(!report.reached(Point::User));
    }

    #[test]
    fn seeds_from_env_defaults() {
        // Runs without the env vars set in the normal test environment.
        let r = seeds_from_env(17);
        assert_eq!(r.end - r.start, 17);
    }

    #[test]
    fn next_prefix_increments_rightmost_open_decision() {
        assert_eq!(next_prefix(&[(0, 2), (1, 2)]), Some(vec![1]));
        assert_eq!(next_prefix(&[(0, 2), (0, 2)]), Some(vec![0, 1]));
        assert_eq!(next_prefix(&[(1, 2), (1, 2)]), None);
        assert_eq!(next_prefix(&[(0, 1), (0, 1)]), None);
    }
}
