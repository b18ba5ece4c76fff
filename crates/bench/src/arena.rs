//! # Competitive bench arena — boosted vs the TL2 read/write STM
//!
//! The paper's central empirical claim (Figures 9–11) is that boosted
//! objects beat read/write-conflict STM under contention. This module
//! turns that claim into a *continuously enforced* harness: one
//! [`Backend`] trait, two implementations (boosted objects and the
//! TL2-style [`txboost_rwstm::Stm`] baseline), four workloads, and a
//! thread × contention ladder driver that emits one JSON cell per
//! (backend, workload, threads, key-range) coordinate — the shape CI's
//! `arena-smoke` gate asserts on.
//!
//! Both backends execute the *same* [`ArenaOp`] scripts, so a
//! throughput difference is attributable entirely to the
//! synchronization discipline — commutativity-aware abstract locks vs
//! read/write conflict detection — in the spirit of the
//! object-vs-word-granularity comparisons of Peri/Singh/Somani
//! (arXiv 1709.00681) and the multi-version OSTM evaluations of Juyal
//! et al. (arXiv 1712.09803). The identical-script property is itself
//! tested: the cross-backend conformance suite replays one seeded
//! script through every backend single-threaded and requires identical
//! final [`ArenaState`]s.

use crate::report::{ArenaCellPoint, ArenaReport};
use crate::think_wait;
use rand::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::time::{Duration, Instant};
use txboost_collections::{BoostedCounter, BoostedHashMap, BoostedPQueue};
use txboost_core::{LatencyHistogram, TxnConfig, TxnManager, TxnStatsSnapshot};
use txboost_rwstm::{Stm, StmVar};

/// Buckets backing the STM backend's hash map. One transactional
/// variable per bucket — word/object granularity: two transactions
/// touching the same bucket conflict even when their keys differ.
const MAP_BUCKETS: usize = 1024;

/// Ops per prefill transaction (bounds boosted undo-log depth).
const PREFILL_CHUNK: usize = 64;

/// Sizing shared by every backend of one arena cell.
#[derive(Debug, Clone, Copy)]
pub struct ArenaParams {
    /// Map and pqueue keys are drawn from `0..key_range` — the
    /// contention ladder's knob.
    pub key_range: i64,
    /// Bank accounts for the transfer workload.
    pub accounts: usize,
    /// Initial balance deposited into every account.
    pub initial_balance: i64,
    /// Elements seeded into the priority queue.
    pub pq_prefill: usize,
}

impl ArenaParams {
    /// Derive every knob from the contention ladder's `key_range`.
    pub fn for_key_range(key_range: i64) -> ArenaParams {
        ArenaParams {
            key_range: key_range.max(1),
            accounts: usize::try_from(key_range).unwrap_or(2).clamp(2, 512),
            initial_balance: 1_000,
            pq_prefill: 128,
        }
    }
}

/// One abstract operation — the vocabulary every backend must execute
/// atomically (a script of these is one transaction).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaOp {
    /// `map.insert(key, value)`.
    MapInsert(i64, i64),
    /// `map.get(key)` (result discarded).
    MapLookup(i64),
    /// `map.remove(key)`.
    MapDelete(i64),
    /// `counter += n`.
    CounterAdd(i64),
    /// Move `amount` from one account to another (balances may go
    /// negative; the invariant is conservation of the total).
    Transfer {
        /// Source account index.
        from: usize,
        /// Destination account index.
        to: usize,
        /// Units moved.
        amount: i64,
    },
    /// Credit one account (prefill only).
    Deposit {
        /// Account index.
        account: usize,
        /// Units credited.
        amount: i64,
    },
    /// `pqueue.push(key)`.
    PqPush(i64),
    /// `pqueue.pop_min()` (result discarded).
    PqPopMin,
}

/// Canonical quiescent state of one backend's objects — the
/// cross-backend conformance digest. Two backends that executed the
/// same scripts must produce equal states.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ArenaState {
    /// Map entries, sorted by key.
    pub map: Vec<(i64, i64)>,
    /// Counter value.
    pub counter: i64,
    /// Per-account balances.
    pub accounts: Vec<i64>,
    /// Priority-queue contents in ascending pop order.
    pub pq: Vec<i64>,
}

/// One competitor: executes [`ArenaOp`] scripts atomically and exposes
/// commit/abort counters plus a final-state digest.
pub trait Backend: Send + Sync {
    /// Which competitor this is.
    fn kind(&self) -> BackendKind;
    /// Execute `ops` as one atomic transaction, retrying internally
    /// until it commits. `think` is slept **inside** the transaction
    /// (the paper's regime: synchronization is held across simulated
    /// work on other objects).
    fn exec(&self, ops: &[ArenaOp], think: Duration);
    /// Runtime counters so far (attempts, commits, aborts).
    fn stats(&self) -> TxnStatsSnapshot;
    /// Final-state digest. Drains the priority queue; call only at
    /// quiescence, after the measurement.
    fn state(&self) -> ArenaState;
}

/// The two competitors.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BackendKind {
    /// Boosted objects: commutativity-aware abstract locks + undo log.
    Boosted,
    /// The TL2-style read/write STM baseline (`txboost_rwstm::Stm`).
    RwStm,
}

impl BackendKind {
    /// Every competitor, boosted first.
    pub const ALL: [BackendKind; 2] = [BackendKind::Boosted, BackendKind::RwStm];

    /// Stable JSON/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Boosted => "boosted",
            BackendKind::RwStm => "rwstm",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<BackendKind> {
        BackendKind::ALL.into_iter().find(|k| k.name() == s)
    }
}

/// The four workloads of the arena.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArenaWorkload {
    /// Pure counter increments — commutativity's best case: boosted
    /// adds take a shared lock, STM increments all conflict.
    Counter,
    /// ⅓ insert / ⅓ delete / ⅓ lookup over `0..key_range`.
    MapSweep,
    /// Bank transfers between random account pairs.
    Transfer,
    /// 50/50 push / pop-min on a shared priority queue.
    PqPipeline,
}

impl ArenaWorkload {
    /// Every workload.
    pub const ALL: [ArenaWorkload; 4] = [
        ArenaWorkload::Counter,
        ArenaWorkload::MapSweep,
        ArenaWorkload::Transfer,
        ArenaWorkload::PqPipeline,
    ];

    /// Stable JSON/CLI name.
    pub fn name(self) -> &'static str {
        match self {
            ArenaWorkload::Counter => "counter",
            ArenaWorkload::MapSweep => "map",
            ArenaWorkload::Transfer => "transfer",
            ArenaWorkload::PqPipeline => "pqueue",
        }
    }

    /// Parse a CLI name.
    pub fn parse(s: &str) -> Option<ArenaWorkload> {
        ArenaWorkload::ALL.into_iter().find(|w| w.name() == s)
    }

    /// Generate the next transaction's script into `out`.
    pub fn fill_ops(self, rng: &mut StdRng, params: &ArenaParams, out: &mut Vec<ArenaOp>) {
        out.clear();
        match self {
            ArenaWorkload::Counter => out.push(ArenaOp::CounterAdd(1)),
            ArenaWorkload::MapSweep => {
                let k = rng.random_range(0..params.key_range);
                out.push(match rng.random_range(0..3) {
                    0 => ArenaOp::MapInsert(k, rng.random_range(0..1_000)),
                    1 => ArenaOp::MapDelete(k),
                    _ => ArenaOp::MapLookup(k),
                });
            }
            ArenaWorkload::Transfer => {
                let from = rng.random_range(0..params.accounts);
                let mut to = rng.random_range(0..params.accounts);
                if to == from {
                    to = (to + 1) % params.accounts;
                }
                let amount = rng.random_range(1..8);
                out.push(ArenaOp::Transfer { from, to, amount });
            }
            ArenaWorkload::PqPipeline => {
                if rng.random_bool(0.5) {
                    out.push(ArenaOp::PqPush(rng.random_range(0..params.key_range)));
                } else {
                    out.push(ArenaOp::PqPopMin);
                }
            }
        }
    }
}

/// The seed scripts every backend replays before measurement: map at
/// 50% occupancy, every account at `initial_balance`, `pq_prefill`
/// queued keys. Chunked so no single transaction grows an unbounded
/// undo log.
pub fn prefill_scripts(params: &ArenaParams) -> Vec<Vec<ArenaOp>> {
    let mut ops: Vec<ArenaOp> = Vec::new();
    for k in (0..params.key_range).step_by(2) {
        ops.push(ArenaOp::MapInsert(k, k * 3));
    }
    for account in 0..params.accounts {
        ops.push(ArenaOp::Deposit {
            account,
            amount: params.initial_balance,
        });
    }
    for i in 0..params.pq_prefill {
        ops.push(ArenaOp::PqPush((i as i64 * 7) % params.key_range));
    }
    ops.chunks(PREFILL_CHUNK).map(<[ArenaOp]>::to_vec).collect()
}

/// Build a fresh, prefilled backend. `think_hint` sizes the boosted
/// lock timeout (it must comfortably exceed the in-transaction think
/// time, or coarse competitors livelock on timeouts instead of waiting
/// their turn — same rule as the figure runners).
pub fn build_backend(
    kind: BackendKind,
    params: &ArenaParams,
    think_hint: Duration,
) -> Box<dyn Backend> {
    let config = TxnConfig {
        lock_timeout: think_hint.max(Duration::from_millis(1)) * 20,
        max_retries: None,
        ..TxnConfig::default()
    };
    let backend: Box<dyn Backend> = match kind {
        BackendKind::Boosted => Box::new(BoostedBackend::new(params, config)),
        BackendKind::RwStm => Box::new(RwStmBackend::new(params, config)),
    };
    for script in prefill_scripts(params) {
        backend.exec(&script, Duration::ZERO);
    }
    backend
}

// ---------------------------------------------------------------------
// Backend: boosted objects
// ---------------------------------------------------------------------

struct BoostedBackend {
    tm: TxnManager,
    map: BoostedHashMap<i64, i64>,
    counter: BoostedCounter,
    accounts: Vec<BoostedCounter>,
    pq: BoostedPQueue<i64>,
}

impl BoostedBackend {
    fn new(params: &ArenaParams, config: TxnConfig) -> BoostedBackend {
        BoostedBackend {
            tm: TxnManager::new(config),
            map: BoostedHashMap::new(),
            counter: BoostedCounter::new(),
            accounts: (0..params.accounts)
                .map(|_| BoostedCounter::new())
                .collect(),
            pq: BoostedPQueue::new(),
        }
    }
}

impl Backend for BoostedBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::Boosted
    }

    fn exec(&self, ops: &[ArenaOp], think: Duration) {
        self.tm
            .run(|t| {
                for op in ops {
                    match *op {
                        ArenaOp::MapInsert(k, v) => {
                            self.map.put(t, k, v)?;
                        }
                        ArenaOp::MapLookup(k) => {
                            self.map.get(t, &k)?;
                        }
                        ArenaOp::MapDelete(k) => {
                            self.map.remove(t, &k)?;
                        }
                        ArenaOp::CounterAdd(n) => self.counter.add(t, n)?,
                        ArenaOp::Transfer { from, to, amount } => {
                            // Counter adds commute: both legs take
                            // shared abstract locks, so disjoint
                            // transfers run fully in parallel.
                            self.accounts[from].add(t, -amount)?;
                            self.accounts[to].add(t, amount)?;
                        }
                        ArenaOp::Deposit { account, amount } => {
                            self.accounts[account].add(t, amount)?;
                        }
                        ArenaOp::PqPush(k) => self.pq.add(t, k)?,
                        ArenaOp::PqPopMin => {
                            self.pq.remove_min(t)?;
                        }
                    }
                }
                think_wait(think);
                Ok(())
            })
            .unwrap();
    }

    fn stats(&self) -> TxnStatsSnapshot {
        self.tm.stats().snapshot()
    }

    fn state(&self) -> ArenaState {
        let mut pq = Vec::new();
        while let Some(k) = self.tm.run(|t| self.pq.remove_min(t)).unwrap() {
            pq.push(k);
        }
        ArenaState {
            map: self.map.snapshot(),
            counter: self.counter.peek(),
            accounts: self.accounts.iter().map(BoostedCounter::peek).collect(),
            pq,
        }
    }
}

// ---------------------------------------------------------------------
// Backend: the word-granularity STM
// ---------------------------------------------------------------------

/// Bucket index for the STM backend's map (identity hash: adjacent
/// keys land in distinct buckets, so the *key range* is what controls
/// bucket contention — the same knob the boosted map's per-key locks
/// respond to).
fn bucket_of(key: i64) -> usize {
    key.unsigned_abs() as usize % MAP_BUCKETS
}

/// Insert/update `key` in a bucket vector, returning the new vector.
fn bucket_insert(mut bucket: Vec<(i64, i64)>, key: i64, value: i64) -> Vec<(i64, i64)> {
    match bucket.iter_mut().find(|(k, _)| *k == key) {
        Some(slot) => slot.1 = value,
        None => bucket.push((key, value)),
    }
    bucket
}

/// Remove `key` from a bucket vector, returning the new vector.
fn bucket_remove(mut bucket: Vec<(i64, i64)>, key: i64) -> Vec<(i64, i64)> {
    bucket.retain(|(k, _)| *k != key);
    bucket
}

type MinHeap = BinaryHeap<Reverse<i64>>;

/// Drain a min-heap copy into ascending order.
fn heap_to_sorted(mut heap: MinHeap) -> Vec<i64> {
    let mut out = Vec::with_capacity(heap.len());
    while let Some(Reverse(k)) = heap.pop() {
        out.push(k);
    }
    out
}

struct RwStmBackend {
    stm: Stm,
    map: Vec<StmVar<Vec<(i64, i64)>>>,
    counter: StmVar<i64>,
    accounts: Vec<StmVar<i64>>,
    pq: StmVar<MinHeap>,
}

impl RwStmBackend {
    fn new(params: &ArenaParams, config: TxnConfig) -> RwStmBackend {
        RwStmBackend {
            stm: Stm::new(config),
            map: (0..MAP_BUCKETS).map(|_| StmVar::new(Vec::new())).collect(),
            counter: StmVar::new(0),
            accounts: (0..params.accounts).map(|_| StmVar::new(0)).collect(),
            pq: StmVar::new(MinHeap::new()),
        }
    }
}

impl Backend for RwStmBackend {
    fn kind(&self) -> BackendKind {
        BackendKind::RwStm
    }

    fn exec(&self, ops: &[ArenaOp], think: Duration) {
        self.stm
            .run(|t| {
                for op in ops {
                    match *op {
                        ArenaOp::MapInsert(k, v) => {
                            let var = &self.map[bucket_of(k)];
                            let bucket = var.read(t)?;
                            var.write(t, bucket_insert(bucket, k, v));
                        }
                        ArenaOp::MapLookup(k) => {
                            let bucket = self.map[bucket_of(k)].read(t)?;
                            let _ = bucket.iter().find(|(key, _)| *key == k);
                        }
                        ArenaOp::MapDelete(k) => {
                            let var = &self.map[bucket_of(k)];
                            let bucket = var.read(t)?;
                            var.write(t, bucket_remove(bucket, k));
                        }
                        ArenaOp::CounterAdd(n) => {
                            let x = self.counter.read(t)?;
                            self.counter.write(t, x + n);
                        }
                        ArenaOp::Transfer { from, to, amount } => {
                            let a = self.accounts[from].read(t)?;
                            self.accounts[from].write(t, a - amount);
                            let b = self.accounts[to].read(t)?;
                            self.accounts[to].write(t, b + amount);
                        }
                        ArenaOp::Deposit { account, amount } => {
                            let a = self.accounts[account].read(t)?;
                            self.accounts[account].write(t, a + amount);
                        }
                        ArenaOp::PqPush(k) => {
                            let mut heap = self.pq.read(t)?;
                            heap.push(Reverse(k));
                            self.pq.write(t, heap);
                        }
                        ArenaOp::PqPopMin => {
                            let mut heap = self.pq.read(t)?;
                            heap.pop();
                            self.pq.write(t, heap);
                        }
                    }
                }
                think_wait(think);
                Ok(())
            })
            .unwrap();
    }

    fn stats(&self) -> TxnStatsSnapshot {
        self.stm.stats().snapshot()
    }

    fn state(&self) -> ArenaState {
        let mut map: Vec<(i64, i64)> = self.map.iter().flat_map(StmVar::load).collect();
        map.sort_by_key(|&(k, _)| k);
        ArenaState {
            map,
            counter: self.counter.load(),
            accounts: self.accounts.iter().map(StmVar::load).collect(),
            pq: heap_to_sorted(self.pq.load()),
        }
    }
}

// ---------------------------------------------------------------------
// Driver
// ---------------------------------------------------------------------

/// One cell's run parameters.
#[derive(Debug, Clone)]
pub struct CellConfig {
    /// Concurrent worker threads.
    pub threads: usize,
    /// Contention knob (keys drawn from `0..key_range`).
    pub key_range: i64,
    /// Measurement window.
    pub duration: Duration,
    /// In-transaction think time (slept while synchronization is
    /// held — the paper's regime).
    pub think: Duration,
    /// Base RNG seed (each thread derives its own stream).
    pub seed: u64,
}

/// One cell's measurements.
#[derive(Debug, Clone, Copy)]
pub struct CellResult {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted attempts.
    pub aborted: u64,
    /// Committed transactions per second.
    pub throughput: f64,
    /// `aborted / (committed + aborted)` — wasted-attempt fraction in
    /// `[0, 1]`.
    pub abort_rate: f64,
    /// Median end-to-end transaction latency (µs), retries included.
    pub p50_us: f64,
    /// 99th-percentile latency (µs).
    pub p99_us: f64,
}

/// One (backend, workload, threads, key-range) coordinate plus its
/// measurements — a row of `BENCH_arena.json`.
#[derive(Debug, Clone)]
pub struct ArenaCell {
    /// Which competitor ran.
    pub backend: BackendKind,
    /// Which workload it ran.
    pub workload: ArenaWorkload,
    /// Worker threads.
    pub threads: usize,
    /// Contention knob.
    pub key_range: i64,
    /// The measurements.
    pub result: CellResult,
}

/// Run one arena cell: build a fresh prefilled backend, drive it from
/// `cfg.threads` closed-loop workers for `cfg.duration`, and report
/// throughput, abort rate and end-to-end latency percentiles.
pub fn run_cell(kind: BackendKind, workload: ArenaWorkload, cfg: &CellConfig) -> ArenaCell {
    let params = ArenaParams::for_key_range(cfg.key_range);
    let backend = build_backend(kind, &params, cfg.think);
    let hist = LatencyHistogram::new();
    let before = backend.stats();
    let stop = AtomicBool::new(false);
    let started = Instant::now();
    std::thread::scope(|s| {
        for t in 0..cfg.threads {
            let backend = &*backend;
            let hist = &hist;
            let stop = &stop;
            let params = &params;
            let mut rng = StdRng::seed_from_u64(cfg.seed ^ (t as u64).wrapping_mul(0x9E37_79B9));
            s.spawn(move || {
                let mut ops = Vec::with_capacity(4);
                while !stop.load(Ordering::Relaxed) {
                    workload.fill_ops(&mut rng, params, &mut ops);
                    let t0 = Instant::now();
                    backend.exec(&ops, cfg.think);
                    hist.record_duration(t0.elapsed());
                }
            });
        }
        std::thread::sleep(cfg.duration);
        stop.store(true, Ordering::Relaxed);
    });
    let elapsed = started.elapsed();
    let after = backend.stats();
    let committed = after.committed - before.committed;
    let aborted = after.aborted - before.aborted;
    let attempts = committed + aborted;
    let latency = hist.snapshot();
    ArenaCell {
        backend: kind,
        workload,
        threads: cfg.threads,
        key_range: cfg.key_range,
        result: CellResult {
            committed,
            aborted,
            throughput: committed as f64 / elapsed.as_secs_f64(),
            abort_rate: if attempts == 0 {
                0.0
            } else {
                aborted as f64 / attempts as f64
            },
            p50_us: latency.p50() as f64 / 1_000.0,
            p99_us: latency.p99() as f64 / 1_000.0,
        },
    }
}

/// The default thread ladder: powers of two from 1 up to and including
/// 2×available cores.
pub fn default_thread_ladder() -> Vec<usize> {
    let cores = std::thread::available_parallelism().map_or(2, std::num::NonZeroUsize::get);
    let top = 2 * cores;
    let mut ladder = Vec::new();
    let mut t = 1;
    while t < top {
        ladder.push(t);
        t *= 2;
    }
    ladder.push(top);
    ladder.dedup();
    ladder
}

/// Assemble cells into the `BENCH_arena.json` report.
pub fn report_from_cells(cells: &[ArenaCell], meta: &[(String, String)]) -> ArenaReport {
    let mut report = ArenaReport::new();
    for (k, v) in meta {
        report.meta(k.clone(), v.clone());
    }
    for cell in cells {
        report.push(ArenaCellPoint {
            backend: cell.backend.name().to_string(),
            workload: cell.workload.name().to_string(),
            threads: cell.threads,
            key_range: cell.key_range,
            throughput: cell.result.throughput,
            abort_rate: cell.result.abort_rate,
            committed: cell.result.committed,
            aborted: cell.result.aborted,
            p50_us: cell.result.p50_us,
            p99_us: cell.result.p99_us,
        });
    }
    report
}

// ---------------------------------------------------------------------
// The perf gate
// ---------------------------------------------------------------------

/// Outcome of the "boosting beats read/write STM under contention"
/// gate — the paper's Figures 9–11 claim as an assertion.
#[derive(Debug, Clone)]
pub struct GateOutcome {
    /// Thread count of the gated cell (the ladder's maximum).
    pub threads: usize,
    /// Key range of the gated cell (the ladder's minimum — highest
    /// contention).
    pub key_range: i64,
    /// Boosted throughput summed across workloads at that cell.
    pub boosted: f64,
    /// TL2 baseline throughput summed across workloads at that cell.
    pub rwstm: f64,
}

/// Check the gate on a finished grid: at the **highest-contention
/// cell** (maximum threads, minimum key range), boosted throughput
/// summed across workloads must exceed the read/write-conflict
/// baseline's. Errors describe what is missing or by how much the
/// claim failed.
pub fn check_gate(cells: &[ArenaCell]) -> Result<GateOutcome, String> {
    let threads = cells
        .iter()
        .map(|c| c.threads)
        .max()
        .ok_or("no cells to gate on")?;
    let key_range = cells
        .iter()
        .map(|c| c.key_range)
        .min()
        .ok_or("no cells to gate on")?;
    let total = |kind: BackendKind| -> Option<f64> {
        let at: Vec<f64> = cells
            .iter()
            .filter(|c| c.backend == kind && c.threads == threads && c.key_range == key_range)
            .map(|c| c.result.throughput)
            .collect();
        if at.is_empty() {
            None
        } else {
            Some(at.iter().sum())
        }
    };
    let boosted = total(BackendKind::Boosted)
        .ok_or_else(|| format!("no boosted cells at threads={threads} key_range={key_range}"))?;
    let rwstm = total(BackendKind::RwStm)
        .ok_or_else(|| format!("no rwstm cells at threads={threads} key_range={key_range}"))?;
    let outcome = GateOutcome {
        threads,
        key_range,
        boosted,
        rwstm,
    };
    if boosted > rwstm {
        Ok(outcome)
    } else {
        Err(format!(
            "perf gate FAILED: boosted {boosted:.0} txn/s ≤ rwstm {rwstm:.0} txn/s \
             at threads={threads} key_range={key_range}"
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> CellConfig {
        CellConfig {
            threads: 2,
            key_range: 32,
            duration: Duration::from_millis(60),
            think: Duration::from_micros(200),
            seed: 7,
        }
    }

    #[test]
    fn every_backend_runs_every_workload() {
        for kind in BackendKind::ALL {
            for workload in ArenaWorkload::ALL {
                let cell = run_cell(kind, workload, &tiny());
                assert!(
                    cell.result.committed > 0,
                    "{}/{} committed nothing",
                    kind.name(),
                    workload.name()
                );
                assert!(cell.result.throughput > 0.0);
                assert!((0.0..=1.0).contains(&cell.result.abort_rate));
                assert!(cell.result.p99_us >= cell.result.p50_us);
            }
        }
    }

    #[test]
    fn prefill_produces_identical_initial_state() {
        let params = ArenaParams::for_key_range(64);
        let states: Vec<ArenaState> = BackendKind::ALL
            .iter()
            .map(|&k| build_backend(k, &params, Duration::ZERO).state())
            .collect();
        assert_eq!(states[0], states[1], "boosted vs rwstm prefill drift");
        assert_eq!(states[0].accounts.len(), params.accounts);
        assert!(states[0]
            .accounts
            .iter()
            .all(|&b| b == params.initial_balance));
        assert_eq!(states[0].pq.len(), params.pq_prefill);
        assert_eq!(states[0].map.len(), 32);
    }

    #[test]
    fn gate_prefers_highest_contention_cell() {
        let cell = |backend, threads, key_range, throughput| ArenaCell {
            backend,
            workload: ArenaWorkload::Counter,
            threads,
            key_range,
            result: CellResult {
                committed: 1,
                aborted: 0,
                throughput,
                abort_rate: 0.0,
                p50_us: 1.0,
                p99_us: 2.0,
            },
        };
        // Boosted wins at high contention, loses at low — the gate
        // must look only at (max threads, min key range).
        let cells = vec![
            cell(BackendKind::Boosted, 4, 16, 900.0),
            cell(BackendKind::RwStm, 4, 16, 300.0),
            cell(BackendKind::Boosted, 4, 4096, 100.0),
            cell(BackendKind::RwStm, 4, 4096, 500.0),
        ];
        // min key_range among cells is 16.
        let out = check_gate(&cells).unwrap();
        assert_eq!((out.threads, out.key_range), (4, 16));
        assert!(out.boosted > out.rwstm);

        // Flip the high-contention cell: the gate must fail.
        let cells = vec![
            cell(BackendKind::Boosted, 4, 16, 200.0),
            cell(BackendKind::RwStm, 4, 16, 300.0),
        ];
        assert!(check_gate(&cells).is_err());

        // Missing baseline: a descriptive error, not a panic.
        let cells = vec![cell(BackendKind::Boosted, 4, 16, 200.0)];
        assert!(check_gate(&cells).unwrap_err().contains("rwstm"));
    }

    #[test]
    fn thread_ladder_is_sane() {
        let ladder = default_thread_ladder();
        assert_eq!(ladder[0], 1);
        assert!(ladder.windows(2).all(|w| w[0] < w[1]), "{ladder:?}");
        let cores = std::thread::available_parallelism().unwrap().get();
        assert_eq!(*ladder.last().unwrap(), 2 * cores);
    }
}
