//! # txboost-bench — the paper's evaluation, regenerated
//!
//! Section 4 of the paper measures three experiments on a 32-core Sun
//! T2000; this crate reproduces each of them (and several ablations) on
//! whatever machine it runs on. The experimental loop is the paper's,
//! verbatim: "each thread repeatedly starts a transaction, calls a
//! method, and then sleeps for 100 milliseconds (simulating work on
//! other objects), and then tries to commit the transaction" — note the
//! sleep is **inside** the transaction, while abstract locks (or STM
//! read/write sets) are held. That placement is what the experiments
//! measure: coarse transactional synchronization serializes entire
//! think times, fine-grained synchronization overlaps them. Because the
//! think time is a sleep, the comparison works even on a single-core
//! host: threads overlap their sleeps exactly to the extent the
//! synchronization discipline allows.
//!
//! | Paper figure | Runner | Competitors |
//! |---|---|---|
//! | Fig. 9 — red-black tree | [`fig9_run`] | boosted (synchronized seq. tree + one 2-phase lock) vs read/write STM (TL2, per-node shadow objects) |
//! | Fig. 10 — skip list | [`fig10_run`] | boosted with one coarse lock vs boosted with a lock per key (same base object) |
//! | Fig. 11 — heap | [`fig11_run`] | boosted heap behind a mutex vs behind a readers-writer lock, 50/50 add/removeMin |
//!
//! Ablations beyond the paper: [`intro_list_run`] (the introduction's
//! sorted-list example: boosted lock-coupling list vs STM list),
//! [`pipeline_run`] (Section 3.3's pipeline vs buffer capacity), and
//! [`idgen_run`] (Section 3.4's unique-ID generator vs a read/write STM
//! counter). Beyond the paper: [`arena::arena_run`] (four workloads on
//! boosted objects vs the read/write STM, across key ranges).
//!
//! The `figures` binary sweeps thread counts and prints the series
//! (`--fig N` regenerates one figure). The paper's 100 ms think time
//! is scaled down (default 2 ms) so a full sweep finishes in minutes;
//! pass `--think-us 100000` to `figures` for the paper's regime.

pub mod arena;
pub mod report;

use rand::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txboost_collections::{
    BoostedBlockingQueue, BoostedListSet, BoostedPQueue, BoostedRbTreeSet, BoostedSet,
    BoostedSkipListSet, UniqueIdGen,
};
use txboost_core::{TxResult, TxnConfig, TxnManager, TxnStats, TxnStatsSnapshot};
use txboost_linearizable::{LazySkipListSet, LinearizableSet};
use txboost_rwstm::listset::StmListSet;
use txboost_rwstm::rbtree::StmRbTreeSet;
use txboost_rwstm::{Stm, StmTxn, StmVar};

/// Parameters shared by all experiment runners.
#[derive(Debug, Clone)]
pub struct RunConfig {
    /// Concurrent worker threads.
    pub threads: usize,
    /// Measurement window.
    pub duration: Duration,
    /// Per-transaction simulated "work on other objects", slept
    /// **inside** the transaction exactly as in the paper (which uses
    /// 100 ms; the default here is 2 ms).
    pub think: Duration,
    /// Keys are drawn uniformly from `0..key_range`.
    pub key_range: i64,
    /// Base RNG seed (each thread derives its own stream).
    pub seed: u64,
}

impl Default for RunConfig {
    fn default() -> Self {
        RunConfig {
            threads: 4,
            duration: Duration::from_millis(500),
            think: Duration::from_millis(2),
            key_range: 512,
            seed: 0xB005,
        }
    }
}

/// Outcome of one experiment run.
#[derive(Debug, Clone)]
pub struct RunResult {
    /// Committed transactions across all threads.
    pub committed: u64,
    /// Aborted transaction attempts.
    pub aborted: u64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// Aborts per commit ("wasted work").
    pub abort_ratio: f64,
    /// Median time a transaction attempt spent blocked on abstract
    /// locks during the run, in nanoseconds (bucket upper bound;
    /// attempts that never blocked are excluded, so this reads "given
    /// that a transaction blocked, for how long"). 0 when nothing
    /// blocked — STM competitors block only inside `parking_lot`, not
    /// on abstract locks.
    pub lock_wait_p50_ns: u64,
    /// 99th-percentile blocked time, same conventions.
    pub lock_wait_p99_ns: u64,
    /// Where aborts were charged, as CSV-safe `name=count` entries
    /// joined by `;` (most-blamed first), or `-` when nothing was
    /// blamed. Boosted workloads blame objects (lock timeouts); STM
    /// workloads blame variable addresses (read/write conflicts).
    pub abort_attribution: String,
}

impl RunResult {
    fn from_stats(snap: &TxnStatsSnapshot, elapsed: Duration) -> RunResult {
        RunResult {
            committed: snap.committed,
            aborted: snap.aborted,
            throughput: snap.committed as f64 / elapsed.as_secs_f64(),
            abort_ratio: snap.abort_ratio(),
            lock_wait_p50_ns: snap.lock_wait.p50(),
            lock_wait_p99_ns: snap.lock_wait.p99(),
            abort_attribution: "-".to_string(),
        }
    }
}

/// Wait for `d`: sleep for OS-schedulable durations, spin below that.
pub fn think_wait(d: Duration) {
    if d.is_zero() {
        return;
    }
    if d >= Duration::from_micros(200) {
        std::thread::sleep(d);
    } else {
        let start = Instant::now();
        while start.elapsed() < d {
            std::hint::spin_loop();
        }
    }
}

/// What a workload's aborts are blamed on.
enum Blame {
    /// Boosted: the one object the workload runs on. Every abstract
    /// lock a transaction can time out on is that object's.
    Object(&'static str),
    /// STM: the `Stm` instance's per-variable conflict counts.
    Stm(Arc<Stm>),
}

/// How many `name=count` entries an attribution string keeps.
const ATTRIBUTION_TOP: usize = 4;

/// A ready-to-run transaction body (one whole transaction, including
/// its retry loop and in-transaction think time) plus the stats source
/// that observes it and what its aborts are blamed on.
pub struct Workload {
    run_one: Box<dyn Fn(&mut StdRng) + Send + Sync>,
    stats: Arc<TxnStats>,
    blame: Blame,
}

impl Workload {
    /// Execute one transaction.
    pub fn run_one(&self, rng: &mut StdRng) {
        (self.run_one)(rng);
    }

    /// Snapshot the runtime counters.
    pub fn stats(&self) -> TxnStatsSnapshot {
        self.stats.snapshot()
    }

    /// STM conflicts per variable so far; none for a boosted workload.
    fn conflicts(&self) -> Vec<(usize, u64)> {
        match &self.blame {
            Blame::Object(_) => Vec::new(),
            Blame::Stm(stm) => stm.conflict_breakdown(),
        }
    }

    /// Abort attribution of a run that timed out on locks
    /// `lock_timeouts` times and began with `conflicts_before`, in
    /// [`RunResult`] conventions.
    fn attribution(&self, lock_timeouts: u64, conflicts_before: &[(usize, u64)]) -> String {
        match &self.blame {
            Blame::Object(name) => format_attribution(
                (lock_timeouts > 0)
                    .then(|| (name.to_string(), lock_timeouts))
                    .into_iter(),
            ),
            Blame::Stm(stm) => {
                let earlier: std::collections::HashMap<usize, u64> =
                    conflicts_before.iter().copied().collect();
                let mut delta: Vec<(usize, u64)> = stm
                    .conflict_breakdown()
                    .into_iter()
                    .map(|(addr, n)| (addr, n - earlier.get(&addr).copied().unwrap_or(0)))
                    .filter(|&(_, n)| n > 0)
                    .collect();
                delta.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(&b.0)));
                format_attribution(delta.into_iter().map(|(addr, n)| (format!("{addr:#x}"), n)))
            }
        }
    }
}

/// Join `name=count` pairs with `;` (CSV-safe), keeping at most
/// [`ATTRIBUTION_TOP`] entries; `-` when there is nothing to blame.
fn format_attribution(entries: impl Iterator<Item = (String, u64)>) -> String {
    let s = entries
        .take(ATTRIBUTION_TOP)
        .map(|(name, n)| format!("{name}={n}"))
        .collect::<Vec<_>>()
        .join(";");
    if s.is_empty() {
        "-".to_string()
    } else {
        s
    }
}

/// Drive a workload from `cfg.threads` threads for `cfg.duration`.
pub fn drive(cfg: &RunConfig, w: &Workload) -> RunResult {
    let before = w.stats();
    let conflicts_before = w.conflicts();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let stop = &stop;
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            s.spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    w.run_one(&mut rng);
                }
            });
        }
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    let after = w.stats();
    let diff = TxnStatsSnapshot {
        started: after.started - before.started,
        committed: after.committed - before.committed,
        aborted: after.aborted - before.aborted,
        lock_timeouts: after.lock_timeouts - before.lock_timeouts,
        explicit_aborts: after.explicit_aborts - before.explicit_aborts,
        conflict_aborts: after.conflict_aborts - before.conflict_aborts,
        would_block_aborts: after.would_block_aborts - before.would_block_aborts,
        lock_waits: after.lock_waits - before.lock_waits,
        lock_wait: after.lock_wait.since(&before.lock_wait),
    };
    let mut result = RunResult::from_stats(&diff, elapsed);
    result.abort_attribution = w.attribution(diff.lock_timeouts, &conflicts_before);
    result
}

fn bench_txn_config(think: Duration) -> TxnConfig {
    TxnConfig {
        // The lock timeout must comfortably exceed the in-transaction
        // think time, or coarse-lock competitors would livelock on
        // timeouts instead of waiting their turn.
        lock_timeout: think.max(Duration::from_millis(1)) * 20,
        max_retries: None,
    }
}

/// One uniformly random set operation (⅓ add, ⅓ remove, ⅓ contains) —
/// the method-call mix used by Figures 9 and 10.
#[derive(Debug, Clone, Copy)]
pub enum SetOpKind {
    /// `add(k)`
    Add(i64),
    /// `remove(k)`
    Remove(i64),
    /// `contains(k)`
    Contains(i64),
}

fn random_set_op(rng: &mut StdRng, key_range: i64) -> SetOpKind {
    let k = rng.random_range(0..key_range);
    match rng.random_range(0..3) {
        0 => SetOpKind::Add(k),
        1 => SetOpKind::Remove(k),
        _ => SetOpKind::Contains(k),
    }
}

/// A boosted set under the Figures 9/10 mix, one method call and the
/// think time per transaction, prefilled to 50% occupancy. Its aborts
/// are blamed on `name`.
fn boosted_set_workload<B>(
    set: BoostedSet<i64, B>,
    name: &'static str,
    key_range: i64,
    think: Duration,
) -> Workload
where
    B: LinearizableSet<i64> + Default + Send + Sync + 'static,
{
    let tm = TxnManager::new(bench_txn_config(think));
    for k in (0..key_range).step_by(2) {
        tm.run(|t| set.add(t, k)).unwrap();
    }
    let stats = tm.stats();
    Workload {
        run_one: Box::new(move |rng| {
            let op = random_set_op(rng, key_range);
            tm.run(|t| {
                match op {
                    SetOpKind::Add(k) => set.add(t, k).map(|_| ())?,
                    SetOpKind::Remove(k) => set.remove(t, &k).map(|_| ())?,
                    SetOpKind::Contains(k) => set.contains(t, &k).map(|_| ())?,
                }
                think_wait(think); // paper: sleep inside the txn
                Ok(())
            })
            .unwrap();
        }),
        stats,
        blame: Blame::Object(name),
    }
}

/// A read/write STM set's `add`, `remove` and `contains`.
type StmSetMethods<S> = (
    fn(&S, &mut StmTxn<'_>, i64) -> TxResult<bool>,
    fn(&S, &mut StmTxn<'_>, &i64) -> TxResult<bool>,
    fn(&S, &mut StmTxn<'_>, &i64) -> TxResult<bool>,
);

/// A read/write STM set under the same mix as [`boosted_set_workload`].
fn stm_set_workload<S: Send + Sync + 'static>(
    set: S,
    (add, remove, contains): StmSetMethods<S>,
    key_range: i64,
    think: Duration,
) -> Workload {
    let stm = Arc::new(Stm::new(bench_txn_config(think)));
    for k in (0..key_range).step_by(2) {
        stm.run(|t| add(&set, t, k)).unwrap();
    }
    let stats = stm.stats();
    let blame = Blame::Stm(Arc::clone(&stm));
    Workload {
        run_one: Box::new(move |rng| {
            let op = random_set_op(rng, key_range);
            stm.run(|t| {
                match op {
                    SetOpKind::Add(k) => add(&set, t, k)?,
                    SetOpKind::Remove(k) => remove(&set, t, &k)?,
                    SetOpKind::Contains(k) => contains(&set, t, &k)?,
                };
                think_wait(think);
                Ok(())
            })
            .unwrap();
        }),
        stats,
        blame,
    }
}

// ---------------------------------------------------------------------
// Figure 9 — red-black tree: boosting vs read/write STM
// ---------------------------------------------------------------------

/// Which red-black tree competitor to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig9Impl {
    /// Transactional boosting: synchronized sequential tree + a single
    /// two-phase abstract lock.
    Boosted,
    /// Read/write-conflict STM (per-node shadow objects) — the DSTM2
    /// shadow-factory analogue.
    RwStm,
}

/// Build a Figure 9 workload (competitor pre-filled to 50% occupancy).
pub fn fig9_workload(which: Fig9Impl, key_range: i64, think: Duration) -> Workload {
    match which {
        Fig9Impl::Boosted => boosted_set_workload(
            BoostedRbTreeSet::with_coarse_lock(),
            "rbtree",
            key_range,
            think,
        ),
        Fig9Impl::RwStm => stm_set_workload(
            StmRbTreeSet::new(),
            (
                StmRbTreeSet::add,
                StmRbTreeSet::remove,
                StmRbTreeSet::contains,
            ),
            key_range,
            think,
        ),
    }
}

/// Run one Figure 9 configuration.
pub fn fig9_run(which: Fig9Impl, cfg: &RunConfig) -> RunResult {
    let w = fig9_workload(which, cfg.key_range, cfg.think);
    drive(cfg, &w)
}

// ---------------------------------------------------------------------
// Figure 10 — skip list: single lock vs lock per key
// ---------------------------------------------------------------------

/// Which abstract-lock discipline to use for the boosted skip list.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig10Lock {
    /// One transactional lock for all method calls.
    Single,
    /// A lock per key (the paper's `LockKey`).
    PerKey,
}

/// Build a Figure 10 workload. Both competitors share the *same* base
/// object type, so any throughput difference "can be attributed
/// entirely to differences in parallelism".
pub fn fig10_workload(which: Fig10Lock, key_range: i64, think: Duration) -> Workload {
    let set = match which {
        Fig10Lock::Single => BoostedSkipListSet::with_coarse_lock(),
        Fig10Lock::PerKey => BoostedSkipListSet::new(),
    };
    boosted_set_workload(set, "skiplist", key_range, think)
}

/// Run one Figure 10 configuration.
pub fn fig10_run(which: Fig10Lock, cfg: &RunConfig) -> RunResult {
    let w = fig10_workload(which, cfg.key_range, cfg.think);
    drive(cfg, &w)
}

// ---------------------------------------------------------------------
// Figure 11 — heap: mutex vs readers-writer abstract lock
// ---------------------------------------------------------------------

/// Which abstract-lock discipline to use for the boosted heap.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fig11Lock {
    /// Every call takes the lock exclusively (a transactional mutex).
    Mutex,
    /// `add` shared, `remove_min` exclusive — Figure 5's discipline.
    RwLock,
}

/// Build a Figure 11 workload: half `add`, half `remove_min`.
///
/// The `Mutex` variant uses the same readers-writer lock but acquires
/// it exclusively for `add` too, so the only difference between the
/// competitors is the *discipline*, not the lock implementation.
pub fn fig11_workload(which: Fig11Lock, key_range: i64, think: Duration) -> Workload {
    let tm = TxnManager::new(bench_txn_config(think));
    let q = BoostedPQueue::new();
    let mut rng = StdRng::seed_from_u64(11);
    for _ in 0..key_range {
        let k = rng.random_range(0..key_range);
        tm.run(|t| q.add(t, k)).unwrap();
    }
    let stats = tm.stats();
    Workload {
        run_one: Box::new(move |rng| {
            let add = rng.random_bool(0.5);
            let k = rng.random_range(0..key_range);
            tm.run(|t| {
                if add {
                    match which {
                        Fig11Lock::RwLock => q.add(t, k)?,
                        Fig11Lock::Mutex => {
                            q.exclusive_lock(t)?;
                            q.add(t, k)?;
                        }
                    }
                } else {
                    q.remove_min(t).map(|_| ())?;
                }
                think_wait(think);
                Ok(())
            })
            .unwrap();
        }),
        stats,
        blame: Blame::Object("heap"),
    }
}

/// Run one Figure 11 configuration.
pub fn fig11_run(which: Fig11Lock, cfg: &RunConfig) -> RunResult {
    let w = fig11_workload(which, cfg.key_range, cfg.think);
    drive(cfg, &w)
}

// ---------------------------------------------------------------------
// Ablations
// ---------------------------------------------------------------------

/// Which sorted-list competitor to run in the introduction's example.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IntroListImpl {
    /// Boosted lock-coupling list with per-key abstract locks.
    Boosted,
    /// Read/write STM sorted list.
    RwStm,
}

/// Ablation: the paper's Section 1 example at benchmark scale — the
/// boosted lock-coupling list (fine thread- and transaction-level
/// concurrency) against the read/write STM list (false conflicts on
/// every traversal prefix).
pub fn intro_list_run(which: IntroListImpl, cfg: &RunConfig) -> RunResult {
    let w = match which {
        IntroListImpl::Boosted => {
            boosted_set_workload(BoostedListSet::new(), "list", cfg.key_range, cfg.think)
        }
        IntroListImpl::RwStm => stm_set_workload(
            StmListSet::new(),
            (StmListSet::add, StmListSet::remove, StmListSet::contains),
            cfg.key_range,
            cfg.think,
        ),
    };
    drive(cfg, &w)
}

/// Ablation: Section 3.3's pipeline. `cfg.threads` is interpreted as
/// the number of *stages* (≥ 2); items flow source → stage₁ → … →
/// sink through boosted blocking queues of the given capacity. Returns
/// end-to-end committed-transaction throughput.
pub fn pipeline_run(capacity: usize, cfg: &RunConfig) -> RunResult {
    let stages = cfg.threads.max(2);
    // Single-attempt transactions with a short conditional-wait window:
    // a stage blocked on an empty/full neighbour aborts, re-checks the
    // stop flag, and retries from its own loop — so shutdown is clean.
    let tm = Arc::new(TxnManager::new(TxnConfig {
        lock_timeout: Duration::from_millis(20),
        max_retries: Some(0),
    }));
    let queues: Vec<BoostedBlockingQueue<i64>> = (0..stages - 1)
        .map(|_| BoostedBlockingQueue::new(capacity))
        .collect();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    std::thread::scope(|s| {
        for stage in 0..stages {
            let tm = Arc::clone(&tm);
            let queues = &queues;
            let stop = &stop;
            let think = cfg.think;
            s.spawn(move || {
                let mut x = 0i64;
                while !stop.load(Ordering::Relaxed) {
                    let r = if stage == 0 {
                        x += 1;
                        // The source waits for a free slot as every
                        // producer does, so the `aborted` column counts
                        // conflicts between stages, not a polling loop.
                        tm.run(|t| {
                            queues[0].offer(t, x)?;
                            think_wait(think);
                            Ok(())
                        })
                    } else if stage == stages - 1 {
                        tm.run(|t| {
                            queues[stage - 1].take(t)?;
                            think_wait(think);
                            Ok(())
                        })
                    } else {
                        tm.run(|t| {
                            let v = queues[stage - 1].take(t)?;
                            queues[stage].offer(t, v + 1)?;
                            think_wait(think);
                            Ok(())
                        })
                    };
                    let _ = r; // timeouts surface as aborts in stats
                }
            });
        }
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    RunResult::from_stats(&tm.stats().snapshot(), elapsed)
}

/// Which unique-ID competitor to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IdGenImpl {
    /// Boosted generator: plain fetch-and-add, no abstract lock.
    Boosted,
    /// Read/write STM shared counter — every pair of transactions
    /// conflicts (the "well-known problem" of Section 3.4).
    RwStm,
}

/// Ablation: Section 3.4's unique-ID generator.
pub fn idgen_run(which: IdGenImpl, cfg: &RunConfig) -> RunResult {
    let think = cfg.think;
    let w = match which {
        IdGenImpl::Boosted => {
            let tm = TxnManager::new(bench_txn_config(think));
            let gen = UniqueIdGen::default();
            let stats = tm.stats();
            Workload {
                run_one: Box::new(move |_| {
                    tm.run(|t| {
                        let _ = gen.assign_id(t)?;
                        think_wait(think);
                        Ok(())
                    })
                    .unwrap();
                }),
                stats,
                // The boosted generator takes no abstract lock at all
                // (that is its whole point), so nothing is ever blamed.
                blame: Blame::Object("idgen"),
            }
        }
        IdGenImpl::RwStm => {
            let stm = Arc::new(Stm::new(bench_txn_config(think)));
            let counter = StmVar::new(0u64);
            let stats = stm.stats();
            let blame = Blame::Stm(Arc::clone(&stm));
            Workload {
                run_one: Box::new(move |_| {
                    stm.run(|t| {
                        let v = counter.read(t)?;
                        counter.write(t, v + 1);
                        think_wait(think);
                        Ok(v)
                    })
                    .unwrap();
                }),
                stats,
                blame,
            }
        }
    };
    drive(cfg, &w)
}

/// Ablation: the cost of the boosting wrapper itself. Runs the same
/// single-threaded, zero-think set workload three ways — raw base
/// object (no transactions at all), boosted with per-key locks, boosted
/// with a coarse lock — and reports ops/second for each. The paper
/// claims "the additional run-time burden of transactional boosting is
/// far offset by the performance gain of eliminating memory access
/// logging"; this measures the burden half of that sentence.
pub fn overhead_run(cfg: &RunConfig) -> Vec<(&'static str, f64)> {
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut out = Vec::new();

    // Raw linearizable base object.
    {
        let set = LazySkipListSet::new();
        for k in (0..cfg.key_range).step_by(2) {
            set.add(k);
        }
        let started = Instant::now();
        let mut ops = 0u64;
        while started.elapsed() < cfg.duration {
            match random_set_op(&mut rng, cfg.key_range) {
                SetOpKind::Add(k) => {
                    set.add(k);
                }
                SetOpKind::Remove(k) => {
                    set.remove(&k);
                }
                SetOpKind::Contains(k) => {
                    set.contains(&k);
                }
            }
            ops += 1;
        }
        out.push(("raw-base", ops as f64 / started.elapsed().as_secs_f64()));
    }

    // Boosted variants (one transaction per op).
    for (name, which) in [
        ("boosted-per-key", Fig10Lock::PerKey),
        ("boosted-coarse", Fig10Lock::Single),
    ] {
        let w = fig10_workload(which, cfg.key_range, Duration::ZERO);
        let started = Instant::now();
        let mut ops = 0u64;
        while started.elapsed() < cfg.duration {
            w.run_one(&mut rng);
            ops += 1;
        }
        out.push((name, ops as f64 / started.elapsed().as_secs_f64()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> RunConfig {
        RunConfig {
            threads: 2,
            duration: Duration::from_millis(80),
            think: Duration::from_micros(300),
            key_range: 64,
            seed: 7,
        }
    }

    #[test]
    fn fig9_both_competitors_make_progress() {
        for which in [Fig9Impl::Boosted, Fig9Impl::RwStm] {
            let r = fig9_run(which, &tiny());
            assert!(r.committed > 0, "{which:?} committed nothing");
            assert!(r.throughput > 0.0);
        }
    }

    #[test]
    fn fig10_both_disciplines_make_progress() {
        for which in [Fig10Lock::Single, Fig10Lock::PerKey] {
            let r = fig10_run(which, &tiny());
            assert!(r.committed > 0, "{which:?} committed nothing");
        }
    }

    #[test]
    fn fig11_both_disciplines_make_progress() {
        for which in [Fig11Lock::Mutex, Fig11Lock::RwLock] {
            let r = fig11_run(which, &tiny());
            assert!(r.committed > 0, "{which:?} committed nothing");
        }
    }

    #[test]
    fn ablations_make_progress() {
        for which in [IntroListImpl::Boosted, IntroListImpl::RwStm] {
            assert!(intro_list_run(which, &tiny()).committed > 0);
        }
        for which in [IdGenImpl::Boosted, IdGenImpl::RwStm] {
            assert!(idgen_run(which, &tiny()).committed > 0);
        }
        assert!(pipeline_run(4, &tiny()).committed > 0);
    }

    #[test]
    fn boosted_runs_report_lock_wait_percentiles() {
        // Two threads hammering one coarse lock with think time held
        // inside the transaction: contended waits are certain, and the
        // typical wait is about a whole think time (the other thread's
        // lock-hold window).
        let r = fig10_run(Fig10Lock::Single, &tiny());
        assert!(r.committed > 0);
        assert!(r.lock_wait_p50_ns >= 1);
        assert!(r.lock_wait_p99_ns >= r.lock_wait_p50_ns);
        // Attribution is either `-` or `name=count` entries.
        assert!(r.abort_attribution == "-" || r.abort_attribution.contains('='));
    }

    #[test]
    fn stm_runs_attribute_conflicts_to_variables() {
        // Two threads incrementing one STM counter with think time held
        // inside the transaction conflict constantly; the single
        // variable must surface in the breakdown.
        let mut cfg = tiny();
        cfg.duration = Duration::from_millis(150);
        let r = idgen_run(IdGenImpl::RwStm, &cfg);
        assert!(r.committed > 0);
        if r.aborted > 0 {
            assert!(
                r.abort_attribution.starts_with("0x") && r.abort_attribution.contains('='),
                "conflicts happened but were not attributed: {:?}",
                r.abort_attribution
            );
        }
        // STM has no abstract locks to wait on.
        assert_eq!(r.lock_wait_p50_ns, 0);
    }

    #[test]
    fn overhead_run_emits_the_committed_rows() {
        let rows = overhead_run(&RunConfig {
            duration: Duration::from_millis(40),
            ..tiny()
        });
        let names: Vec<&str> = rows.iter().map(|(n, _)| *n).collect();
        let committed = include_str!("../../../bench_results/ablation_overhead.csv");
        let baseline: Vec<&str> = committed
            .lines()
            .skip(1)
            .filter_map(|row| row.split(',').next())
            .collect();
        assert_eq!(names, ["raw-base", "boosted-per-key", "boosted-coarse"]);
        assert_eq!(names, baseline, "bench_results/ablation_overhead.csv");
        for (name, ops) in rows {
            assert!(ops > 0.0, "{name} made no progress");
        }
    }
}
