//! # The arena figure — boosted objects vs the TL2 read/write STM
//!
//! The paper's central empirical claim (Figures 9–11) is that boosted
//! objects beat read/write-conflict STM under contention. This module
//! runs that comparison as one more figure of the `figures` binary
//! (`--fig arena`): one [`Backend`] trait, two implementations (boosted
//! objects and the TL2-style [`txboost_rwstm::Stm`] baseline), and four
//! workloads, each driven by the crate's one closed loop
//! ([`crate::drive`]) across a thread and key-range sweep.
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

use crate::report::SeriesPoint;
use crate::{bench_txn_config, drive, think_wait, Blame, RunConfig, RunResult, Workload};
use rand::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::sync::Arc;
use std::time::Duration;
use txboost_collections::{BoostedCounter, BoostedHashMap, BoostedPQueue};
use txboost_core::{TxnConfig, TxnManager, TxnStats};
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
    /// Execute `ops` as one atomic transaction, retrying internally
    /// until it commits. `think` is slept **inside** the transaction
    /// (the paper's regime: synchronization is held across simulated
    /// work on other objects).
    fn exec(&self, ops: &[ArenaOp], think: Duration);
    /// The runtime counters that observe this backend.
    fn stats(&self) -> Arc<TxnStats>;
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

    /// Stable series-label name.
    pub fn name(self) -> &'static str {
        match self {
            BackendKind::Boosted => "boosted",
            BackendKind::RwStm => "rwstm",
        }
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

    /// Stable series-label name.
    pub fn name(self) -> &'static str {
        match self {
            ArenaWorkload::Counter => "counter",
            ArenaWorkload::MapSweep => "map",
            ArenaWorkload::Transfer => "transfer",
            ArenaWorkload::PqPipeline => "pqueue",
        }
    }

    /// Draw the next transaction's one operation.
    pub fn next_op(self, rng: &mut StdRng, params: &ArenaParams) -> ArenaOp {
        match self {
            ArenaWorkload::Counter => ArenaOp::CounterAdd(1),
            ArenaWorkload::MapSweep => {
                let k = rng.random_range(0..params.key_range);
                match rng.random_range(0..3) {
                    0 => ArenaOp::MapInsert(k, rng.random_range(0..1_000)),
                    1 => ArenaOp::MapDelete(k),
                    _ => ArenaOp::MapLookup(k),
                }
            }
            ArenaWorkload::Transfer => {
                let from = rng.random_range(0..params.accounts);
                let mut to = rng.random_range(0..params.accounts);
                if to == from {
                    to = (to + 1) % params.accounts;
                }
                let amount = rng.random_range(1..8);
                ArenaOp::Transfer { from, to, amount }
            }
            ArenaWorkload::PqPipeline => {
                if rng.random_bool(0.5) {
                    ArenaOp::PqPush(rng.random_range(0..params.key_range))
                } else {
                    ArenaOp::PqPopMin
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

/// Build a fresh, prefilled backend whose lock timeout is sized for
/// `think` by the rule every figure's workloads use.
pub fn build_backend(kind: BackendKind, params: &ArenaParams, think: Duration) -> Box<dyn Backend> {
    build(kind, params, think).0
}

/// [`build_backend`], plus the STM whose conflicts its aborts are
/// blamed on (none for boosted).
fn build(
    kind: BackendKind,
    params: &ArenaParams,
    think: Duration,
) -> (Box<dyn Backend>, Option<Arc<Stm>>) {
    let config = bench_txn_config(think);
    let (backend, stm): (Box<dyn Backend>, _) = match kind {
        BackendKind::Boosted => (Box::new(BoostedBackend::new(params, config)), None),
        BackendKind::RwStm => {
            let backend = RwStmBackend::new(params, config);
            let stm = Arc::clone(&backend.stm);
            (Box::new(backend), Some(stm))
        }
    };
    for script in prefill_scripts(params) {
        backend.exec(&script, Duration::ZERO);
    }
    (backend, stm)
}

/// Run one arena series point: a fresh backend prefilled for
/// `cfg.key_range`, driven by [`drive`] with `workload`'s one-op
/// transactions and `cfg.think` slept inside each.
pub fn arena_run(kind: BackendKind, workload: ArenaWorkload, cfg: &RunConfig) -> RunResult {
    let params = ArenaParams::for_key_range(cfg.key_range);
    let (backend, stm) = build(kind, &params, cfg.think);
    let think = cfg.think;
    let w = Workload {
        stats: backend.stats(),
        run_one: Box::new(move |rng| backend.exec(&[workload.next_op(rng, &params)], think)),
        blame: stm.map_or(Blame::Object(workload.name()), Blame::Stm),
    };
    drive(cfg, &w)
}

/// The arena figure's series label: `boosted/counter/keys=16`.
pub fn arena_label(kind: BackendKind, workload: ArenaWorkload, key_range: i64) -> String {
    format!("{}/{}/keys={key_range}", kind.name(), workload.name())
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

    fn stats(&self) -> Arc<TxnStats> {
        self.tm.stats()
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
    stm: Arc<Stm>,
    map: Vec<StmVar<Vec<(i64, i64)>>>,
    counter: StmVar<i64>,
    accounts: Vec<StmVar<i64>>,
    pq: StmVar<MinHeap>,
}

impl RwStmBackend {
    fn new(params: &ArenaParams, config: TxnConfig) -> RwStmBackend {
        RwStmBackend {
            stm: Arc::new(Stm::new(config)),
            map: (0..MAP_BUCKETS).map(|_| StmVar::new(Vec::new())).collect(),
            counter: StmVar::new(0),
            accounts: (0..params.accounts).map(|_| StmVar::new(0)).collect(),
            pq: StmVar::new(MinHeap::new()),
        }
    }
}

impl Backend for RwStmBackend {
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

    fn stats(&self) -> Arc<TxnStats> {
        self.stm.stats()
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

/// Check the gate on the arena figure's points: at the
/// **highest-contention cell** (maximum threads, minimum key range),
/// boosted throughput summed across workloads must exceed the
/// read/write-conflict baseline's. Points whose label is not an
/// [`arena_label`] are ignored. Errors describe what is missing or by
/// how much the claim failed.
pub fn check_gate(points: &[SeriesPoint]) -> Result<GateOutcome, String> {
    // (backend, key range, threads, throughput) of every arena point.
    let cells: Vec<(&str, i64, usize, f64)> = points
        .iter()
        .filter_map(|p| {
            let (backend, rest) = p.label.split_once('/')?;
            let keys = rest.rsplit_once("/keys=")?.1.parse().ok()?;
            Some((backend, keys, p.threads, p.throughput))
        })
        .collect();
    let threads = cells
        .iter()
        .map(|c| c.2)
        .max()
        .ok_or("no arena points to gate on")?;
    let key_range = cells
        .iter()
        .map(|c| c.1)
        .min()
        .ok_or("no arena points to gate on")?;
    let total = |kind: BackendKind| -> Option<f64> {
        let at: Vec<f64> = cells
            .iter()
            .filter(|c| c.0 == kind.name() && c.2 == threads && c.1 == key_range)
            .map(|c| c.3)
            .collect();
        if at.is_empty() {
            None
        } else {
            Some(at.iter().sum())
        }
    };
    let boosted = total(BackendKind::Boosted)
        .ok_or_else(|| format!("no boosted points at threads={threads} key_range={key_range}"))?;
    let rwstm = total(BackendKind::RwStm)
        .ok_or_else(|| format!("no rwstm points at threads={threads} key_range={key_range}"))?;
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

    #[test]
    fn every_backend_runs_every_workload() {
        let cfg = RunConfig {
            threads: 2,
            duration: Duration::from_millis(60),
            think: Duration::from_micros(200),
            key_range: 32,
            seed: 7,
        };
        for kind in BackendKind::ALL {
            for workload in ArenaWorkload::ALL {
                let r = arena_run(kind, workload, &cfg);
                let label = arena_label(kind, workload, cfg.key_range);
                assert!(r.committed > 0, "{label} committed nothing");
                assert!(r.throughput > 0.0);
                assert!(r.lock_wait_p99_ns >= r.lock_wait_p50_ns);
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
        let point = |kind, threads, key_range, throughput| SeriesPoint {
            label: arena_label(kind, ArenaWorkload::Counter, key_range),
            threads,
            throughput,
            committed: 1,
            aborted: 0,
            p50_us: 1.0,
            p99_us: 2.0,
        };
        // Boosted wins at high contention, loses at low — the gate
        // must look only at (max threads, min key range).
        let points = vec![
            point(BackendKind::Boosted, 4, 16, 900.0),
            point(BackendKind::RwStm, 4, 16, 300.0),
            point(BackendKind::Boosted, 4, 4096, 100.0),
            point(BackendKind::RwStm, 4, 4096, 500.0),
        ];
        // min key_range among points is 16.
        let out = check_gate(&points).unwrap();
        assert_eq!((out.threads, out.key_range), (4, 16));
        assert!(out.boosted > out.rwstm);

        // Flip the high-contention cell: the gate must fail.
        let points = vec![
            point(BackendKind::Boosted, 4, 16, 200.0),
            point(BackendKind::RwStm, 4, 16, 300.0),
        ];
        assert!(check_gate(&points).is_err());

        // Missing baseline: a descriptive error, not a panic.
        let points = vec![point(BackendKind::Boosted, 4, 16, 200.0)];
        assert!(check_gate(&points).unwrap_err().contains("rwstm"));
    }
}
