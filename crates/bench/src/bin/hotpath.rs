//! Microbenchmark for the transaction hot path: CAS-word abstract-lock
//! acquisition and reacquisition through the fixed lock-slot table, and
//! the inline (allocation-free) undo log.
//!
//! ```text
//! hotpath [--out-dir bench_results] [--no-json] [--iters N]
//! ```
//!
//! Unlike the figure runners (throughput under contention), this bench
//! prices the *uncontended* single-thread costs the paper's overhead
//! claim rests on, and proves the structural invariants CI asserts:
//!
//! * reacquiring a held key lock (a failed CAS on a word the
//!   transaction owns) is strictly cheaper than first acquisition;
//! * first acquisition costs the same whether the keys come from a
//!   universe of 8 or of 262,144 (the table does not grow), and a
//!   transaction that locks 8 keys allocates nothing. Every 64
//!   transactions a pass reads every slot's lock word through keys
//!   outside the walk, so the row prices the table rather than whether
//!   the host kept 4,096 slots in L2, and a key's first touch stays in
//!   the timed window;
//! * taking a lock in shared mode and giving it back at commit costs at
//!   most twice a first (exclusive) acquisition — both modes are one
//!   compare-and-swap on the same word — and a one-`add` counter
//!   transaction, which takes its lock shared, allocates nothing;
//! * a 3-operation boosted-map transaction performs **zero** heap
//!   allocations end to end (measured by a counting global allocator),
//!   on a map no snapshot reads and on a versioned one; the versioned
//!   transaction on two threads over disjoint keys of one map is
//!   reported beside them, ungated;
//! * a 4-lookup read-only snapshot script over a 262,144-key map (one
//!   version-slot probe per lookup, each a cache miss) allocates
//!   nothing either;
//! * begin + commit of an empty transaction costs at most three first
//!   acquisitions (no clock read, no histogram, no shared counter
//!   line), and costs each of two threads sharing one manager about
//!   what it costs one;
//! * the `exec_contended` transfer script through the server's executor
//!   allocates exactly once (its `results` vector); the same script on
//!   two threads over disjoint objects is reported beside it, ungated;
//! * the executor's accounting costs less than the transaction it
//!   accounts for: a four-lookup snapshot script through
//!   `Executor::execute_read_only` costs at most twice the same four
//!   lookups as a bare read-only transaction (exact counts, a clock
//!   read on one run in 64); the same script over 262,144 keys is
//!   reported beside it, ungated;
//! * each gate's two sides are timed in alternating passes, so a slow
//!   stretch of the host reaches both;
//! * small undo closures stay inline in the log; oversized ones are
//!   boxed and *counted* (the sanity check that the allocator
//!   instrumentation actually observes boxing).
//!
//! Results go to the console and to `BENCH_hotpath.json` (the meta
//! block carries the scalars `scripts/check_bench_json.py hotpath`
//! re-asserts; the series carries ops/sec per measurement).

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet};
use std::hint::black_box;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};
use txboost_bench::report::{BenchReport, SeriesPoint};
use txboost_client::ScriptBuilder;
use txboost_collections::{BoostedCounter, BoostedHashMap, MapCall};
use txboost_core::locks::{KeyLockMap, Mode, ObjectLock};
use txboost_core::{Txn, TxnConfig, TxnManager};
use txboost_server::Executor;
use txboost_wire::{ScriptOp, ScriptStatus};

/// Heap allocations observed process-wide (frees are not tracked; the
/// zero-allocation claim is about *allocating*, and dealloc-only
/// transactions do not exist).
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

/// A pass-through allocator that counts every allocation. Installed as
/// the global allocator so transaction bodies cannot hide allocations
/// behind any abstraction.
struct CountingAlloc;

// SAFETY: every method forwards verbatim to `System`, which upholds the
// `GlobalAlloc` contract; the added counter is a relaxed atomic with no
// effect on the returned memory.
unsafe impl GlobalAlloc for CountingAlloc {
    // SAFETY: inherits `GlobalAlloc::alloc`'s contract verbatim; the
    // counter does not touch the returned memory.
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc(layout) }
    }

    // SAFETY: inherits `GlobalAlloc::alloc_zeroed`'s contract verbatim.
    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: same layout contract as our own caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    // SAFETY: inherits `GlobalAlloc::dealloc`'s contract verbatim.
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr`/`layout` come from a successful alloc above.
        unsafe { System.dealloc(ptr, layout) }
    }

    // SAFETY: inherits `GlobalAlloc::realloc`'s contract verbatim.
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        // SAFETY: `ptr`/`layout` come from a successful alloc above.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

fn allocations() -> u64 {
    ALLOCATIONS.load(Ordering::Relaxed)
}

/// Keys per transaction in the acquire measurements.
const ACQUIRE_KEYS: i64 = 8;
/// Step between the keys a transaction locks: odd, so consecutive keys
/// are distinct in any power-of-two universe and scatter over a large
/// one.
const KEY_STRIDE: i64 = 40_503;
/// Transactions between two reads of the whole lock table in an
/// acquire pass.
const WARM_EVERY: u64 = 64;
/// Reacquire rounds per transaction (amortizes the timers).
const REACQUIRE_ROUNDS: usize = 32;
/// Undo-log pushes per transaction — within the inline capacity, so the
/// inline measurement never spills.
const LOG_PUSHES: u64 = 8;
/// Measurement passes (odd); the median is reported.
const REPS: usize = 7;

struct Args {
    out_dir: Option<String>,
    iters: u64,
}

fn parse_args() -> Args {
    let mut args = Args {
        out_dir: Some("bench_results".into()),
        iters: 20_000,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut val = || {
            it.next()
                .unwrap_or_else(|| panic!("missing value for {flag}"))
        };
        match flag.as_str() {
            "--out-dir" => args.out_dir = Some(val()),
            "--no-json" => args.out_dir = None,
            "--iters" => args.iters = val().parse().expect("bad iteration count"),
            "--help" | "-h" => {
                println!("usage: hotpath [--out-dir DIR | --no-json] [--iters N]");
                std::process::exit(0);
            }
            other => panic!("unknown flag {other}"),
        }
    }
    args
}

/// One measurement: a label, per-operation nanoseconds, and the exact
/// number of heap allocations per transaction.
struct Measurement {
    label: &'static str,
    threads: usize,
    ns_per_op: f64,
    ops: u64,
    allocs_per_txn: u64,
}

impl Measurement {
    fn print(&self) {
        println!(
            "  {:<30} {:>10.1} ns/op {:>12.0} ops/s   {} allocs/txn",
            self.label,
            self.ns_per_op,
            1e9 / self.ns_per_op,
            self.allocs_per_txn
        );
    }
}

/// One measurement to take: a label, the transactions and timed
/// operations in one pass, and the pass (which runs those transactions
/// and reports its timed window).
type Probe<'a> = (&'static str, u64, u64, &'a mut dyn FnMut() -> Duration);

/// `REPS` rounds, each running one pass of every probe: the passes a
/// gate compares alternate, so a slow stretch of the host, or the cache
/// one pass leaves behind, reaches every side alike. Each measurement
/// is its median pass, with the fewest allocations per transaction any
/// pass made (an early pass may pay one-time lazy init).
fn measure_together<const N: usize>(mut probes: [Probe<'_>; N]) -> [Measurement; N] {
    let mut rounds = [[Duration::ZERO; N]; REPS];
    let mut allocs_per_txn = [u64::MAX; N];
    for round in &mut rounds {
        for (i, (_, txns, _, body)) in probes.iter_mut().enumerate() {
            let allocs_before = allocations();
            round[i] = body();
            // Round up: 7 allocations across 4 transactions is "2/txn"
            // for the purpose of a zero-allocation claim.
            let allocs = allocations() - allocs_before;
            allocs_per_txn[i] = allocs_per_txn[i].min(allocs.div_ceil(*txns));
        }
    }
    std::array::from_fn(|i| {
        let (label, _, ops, _) = probes[i];
        let mut windows = rounds.map(|round| round[i]);
        windows.sort_unstable();
        Measurement {
            label,
            threads: 1,
            ns_per_op: windows[REPS / 2].as_nanos() as f64 / ops as f64,
            ops,
            allocs_per_txn: allocs_per_txn[i],
        }
    })
}

/// One probe's measurement; see [`measure_together`].
fn measure(
    label: &'static str,
    txns: u64,
    ops: u64,
    mut body: impl FnMut() -> Duration,
) -> Measurement {
    let [m] = measure_together([(label, txns, ops, &mut body)]);
    m
}

/// How long `iters` empty transactions (begin + commit) take on `tm`.
fn time_empty_txns(tm: &TxnManager, iters: u64) -> Duration {
    let start = Instant::now();
    for _ in 0..iters {
        tm.run(|_| Ok(())).unwrap();
    }
    start.elapsed()
}

/// A pass of `timed(0)` and `timed(1)` on two threads released
/// together: the sum of the two threads' windows.
fn x2_pass(timed: impl Fn(usize) -> Duration + Sync) -> impl FnMut() -> Duration {
    move || {
        let go = Barrier::new(2);
        let one_thread = |i| {
            go.wait();
            timed(i)
        };
        std::thread::scope(|s| {
            let other = s.spawn(|| one_thread(1));
            one_thread(0) + other.join().expect("bench thread panicked")
        })
    }
}

/// `timed(0)` and `timed(1)` on two threads released together, `iters`
/// operations each, as the mean nanoseconds each thread paid per
/// operation.
fn measure_x2(
    label: &'static str,
    iters: u64,
    timed: impl Fn(usize) -> Duration + Sync,
) -> Measurement {
    let mut m = measure(label, 2 * iters, 2 * iters, x2_pass(timed));
    m.threads = 2;
    m
}

/// Two threads running empty transactions on one shared manager: what
/// `begin` and `commit` cost when another core is doing the same (id
/// blocks and counter stripes keep them off each other's cache lines).
fn bench_empty_txn_x2(iters: u64) -> Measurement {
    let tm = TxnManager::default();
    measure_x2("empty-txn x2 threads", iters, |_| {
        time_empty_txns(&tm, iters)
    })
}

/// First acquisition vs reacquisition of key locks, timed inside the
/// same transaction so per-transaction overhead cancels out. Each
/// transaction locks the next `ACQUIRE_KEYS` keys of a walk over
/// `universe` keys: at 8 every transaction locks the same keys, at
/// 262,144 almost every key is new to the table. One pass runs `iters`
/// transactions and returns the first-acquire and reacquire windows;
/// before every `WARM_EVERY`th it reads the lock word of every slot,
/// untimed, through negative keys the walk never takes.
fn acquire_pass(universe: i64, iters: u64) -> impl FnMut() -> (Duration, Duration) {
    let tm = TxnManager::default();
    let map = KeyLockMap::<i64>::new();
    // One key per slot: 65,536 candidates leave none of 4,096 slots out.
    let warm: Vec<i64> = (-(1 << 16)..0)
        .map(|k| (map.slot_of(&k), k))
        .collect::<BTreeMap<_, _>>()
        .into_values()
        .collect();
    let mut next = 0i64;
    move || {
        let (mut first_total, mut re_total) = (Duration::ZERO, Duration::ZERO);
        for i in 0..iters {
            if i % WARM_EVERY == 0 {
                for k in &warm {
                    black_box(map.is_locked(k));
                }
            }
            let keys: [i64; ACQUIRE_KEYS as usize] =
                std::array::from_fn(|j| (next + j as i64 * KEY_STRIDE) % universe);
            next = (keys[keys.len() - 1] + KEY_STRIDE) % universe;
            tm.run(|t| {
                let start = Instant::now();
                for k in &keys {
                    map.lock(t, k)?;
                }
                let after_first = Instant::now();
                for _ in 0..REACQUIRE_ROUNDS {
                    for k in &keys {
                        map.lock(t, k)?;
                    }
                }
                first_total += after_first - start;
                re_total += after_first.elapsed();
                Ok(())
            })
            .unwrap();
        }
        (first_total, re_total)
    }
}

/// A shared-mode acquisition and its release at commit: transactions
/// that each take `ACQUIRE_KEYS` distinct locks shared, minus as many
/// empty transactions timed in the same window, per lock. One pass runs
/// `iters` of each.
fn shared_acquire_pass(iters: u64) -> impl FnMut() -> Duration {
    let tm = TxnManager::default();
    let locks: [ObjectLock; ACQUIRE_KEYS as usize] = std::array::from_fn(|_| ObjectLock::new());
    move || {
        let words = locks.each_ref().map(ObjectLock::word);
        let empty = time_empty_txns(&tm, iters);
        let start = Instant::now();
        for _ in 0..iters {
            tm.run(|t| words.iter().try_for_each(|w| w.acquire(t, Mode::Shared)))
                .unwrap();
        }
        start.elapsed().saturating_sub(empty)
    }
}

/// The rows the lock gates compare, in alternating passes: empty
/// transactions, first acquisition over 8 keys and over 262,144,
/// reacquisition over 8 (from the same passes as first acquisition)
/// and shared acquisition. The acquire rows run `iters / 4`
/// transactions a pass.
fn bench_locks(iters: u64) -> [Measurement; 5] {
    let tm = TxnManager::default();
    let acquires = iters / 4;
    let first_ops = acquires * ACQUIRE_KEYS as u64;
    let mut narrow = acquire_pass(ACQUIRE_KEYS, acquires);
    let mut wide = acquire_pass(262_144, acquires);
    let re_window = Cell::new(Duration::ZERO);
    let [empty, first, first_wide, mut re, shared] = measure_together([
        ("empty-txn", iters, iters, &mut || {
            time_empty_txns(&tm, iters)
        }),
        ("first-acquire", acquires, first_ops, &mut || {
            let (first, re) = narrow();
            re_window.set(re);
            first
        }),
        (
            "first-acquire @262144 keys",
            acquires,
            first_ops,
            &mut || wide().0,
        ),
        (
            "reacquire",
            acquires,
            first_ops * REACQUIRE_ROUNDS as u64,
            &mut || re_window.get(),
        ),
        (
            "shared-acquire",
            iters,
            iters * ACQUIRE_KEYS as u64,
            &mut shared_acquire_pass(iters),
        ),
    ]);
    // Reacquisition runs inside the first-acquire row's transactions.
    re.allocs_per_txn = first.allocs_per_txn;
    [empty, first, first_wide, re, shared]
}

/// The wire benchmark's commonest script: one `add` on a boosted
/// counter (shared lock, one inverse, no commit timestamp).
fn bench_counter_add(iters: u64) -> Measurement {
    let tm = TxnManager::default();
    let counter = BoostedCounter::new();
    measure("counter-add 1-op txn", iters, iters, || {
        let start = Instant::now();
        for _ in 0..iters {
            tm.run(|t| counter.add(t, 1)).unwrap();
        }
        start.elapsed()
    })
}

/// Log `LOG_PUSHES` undo closures, each capturing an `Arc` and `N`
/// words: `N = 1` (16 bytes) fits the inline slots, `N = 8` (72 bytes)
/// is boxed. The closures are abort handlers, so this function keeps
/// the handler lints.
#[warn(
    clippy::unwrap_used,
    clippy::expect_used,
    clippy::panic,
    clippy::unreachable,
    clippy::todo,
    clippy::unimplemented,
    clippy::indexing_slicing,
    clippy::disallowed_macros
)]
fn log_undos<const N: usize>(t: &Txn, sink: &Arc<AtomicU64>) {
    for i in 0..LOG_PUSHES {
        let s = Arc::clone(sink);
        let words = [i; N];
        t.log_undo(move || {
            s.fetch_add(words.iter().sum::<u64>(), Ordering::Relaxed);
        });
    }
}

/// Undo-log pushes whose closures fit the inline slots: no allocation.
fn bench_log_inline(iters: u64) -> Measurement {
    let tm = TxnManager::default();
    let sink = Arc::new(AtomicU64::new(0));
    measure("log-undo inline", iters, iters * LOG_PUSHES, || {
        let start = Instant::now();
        for _ in 0..iters {
            tm.run(|t| {
                log_undos::<1>(t, &sink);
                assert_eq!(t.boxed_action_count(), 0, "inline capture was boxed");
                Ok(())
            })
            .unwrap();
        }
        start.elapsed()
    })
}

/// Undo-log pushes whose closures exceed the inline slots: one boxing
/// allocation each — the sanity check that the counting allocator and
/// `Txn::boxed_action_count` both observe what the log does.
fn bench_log_boxed(iters: u64) -> Measurement {
    let tm = TxnManager::default();
    let sink = Arc::new(AtomicU64::new(0));
    measure("log-undo boxed", iters, iters * LOG_PUSHES, || {
        let start = Instant::now();
        for _ in 0..iters {
            tm.run(|t| {
                log_undos::<8>(t, &sink);
                assert_eq!(
                    t.boxed_action_count(),
                    LOG_PUSHES as usize,
                    "oversized captures must be boxed and counted"
                );
                Ok(())
            })
            .unwrap();
        }
        start.elapsed()
    })
}

/// A 3-operation boosted-map transaction (two puts over existing keys
/// and one get), on a map no snapshot has read — its commits take no
/// timestamp and install nothing — and on one armed by a snapshot
/// read, whose two puts install versions: the two rows' gap is what
/// the installs cost. Neither allocates. Beside them, in the same
/// rounds and ungated, the versioned transaction on two threads over
/// keys of one armed map in distinct lock slots: its cost above the
/// one-thread row is what the two threads' commits share — the install
/// window, the reader registry's floor pass, the metrics lines.
fn bench_map3(iters: u64) -> [Measurement; 3] {
    let tm = TxnManager::default();
    // A map holding keys `0..keys`, armed if `versioned`.
    let map_of = |versioned: bool, keys: i64| {
        let map = BoostedHashMap::<i64, i64>::new();
        if versioned {
            tm.run_read_only(|t| map.get(t, &0)).unwrap();
        }
        tm.run(|t| (0..keys).try_for_each(|k| map.put(t, k, k).map(|_| ())))
            .unwrap();
        map
    };
    // `iters` transactions over keys `first..first + 3` of `map`.
    let timed = |map: &BoostedHashMap<i64, i64>, first: i64| {
        let start = Instant::now();
        for i in 0..iters {
            tm.run(|t| {
                map.put(t, first, i as i64)?;
                map.put(t, first + 1, i as i64)?;
                let _ = map.get(t, &(first + 2))?;
                Ok(())
            })
            .unwrap();
        }
        start.elapsed()
    };
    let (plain, versioned, shared) = (map_of(false, 3), map_of(true, 3), map_of(true, 6));
    let slots: BTreeSet<_> = (0..6)
        .map(|k| std::ptr::from_ref(shared.conflict(MapCall::Put(&k)).0))
        .collect();
    assert_eq!(slots.len(), 6, "the two threads' keys share a lock slot");
    let [map3, map3_versioned, mut map3_versioned_x2] = measure_together([
        ("map 3-op txn", iters, iters * 3, &mut || timed(&plain, 0)),
        ("map 3-op txn, versioned", iters, iters * 3, &mut || {
            timed(&versioned, 0)
        }),
        (
            "map 3-op txn, versioned x2 threads, disjoint keys",
            2 * iters,
            2 * iters * 3,
            &mut x2_pass(|i| timed(&shared, 3 * i as i64)),
        ),
    ]);
    map3_versioned_x2.threads = 2;
    [map3, map3_versioned, map3_versioned_x2]
}

/// A read-only snapshot script of four lookups scattered over `keys`
/// keys: what one version-slot probe per lookup costs — cache-resident
/// at 1,024 keys, a real miss each at 262,144 (the benchmark's
/// read-mostly map) — and that the whole snapshot path (register, four
/// reads, deregister) allocates nothing. One pass runs `iters` scripts.
fn snapshot4_pass(keys: i64, iters: u64) -> impl FnMut() -> Duration {
    let tm = TxnManager::default();
    let map = BoostedHashMap::<i64, i64>::new();
    for k in 0..keys {
        tm.run(|t| map.put(t, k, k)).unwrap();
    }
    // The first snapshot read arms the map: not a pass's to pay.
    tm.run_read_only(|t| map.get(t, &0)).unwrap();
    move || {
        let start = Instant::now();
        let mut key = 0i64;
        for _ in 0..iters {
            tm.run_read_only(|t| {
                for _ in 0..4 {
                    key = (key + 40_503) % keys;
                    let _ = map.get(t, &key)?;
                }
                Ok(())
            })
            .unwrap();
        }
        start.elapsed()
    }
}

/// An executor with map `"accounts"` holding keys `0..keys`.
fn seeded_executor(keys: i64) -> Executor {
    let exec = Executor::new(TxnConfig::default(), 1024);
    let accounts = exec.namespace().map("accounts");
    let tm = TxnManager::default();
    for k in 0..keys {
        tm.run(|t| accounts.put(t, k, k)).unwrap();
    }
    exec
}

/// The `exec_contended` benchmark's script: move a binding (`map_remove`
/// then `map_insert` on map `accounts`) there and back, counting each
/// move (`counter_add` on `moves`) — two objects, three ops, one
/// transaction.
fn transfer_scripts(accounts: &str, moves: &str) -> [Vec<ScriptOp>; 2] {
    let transfer = |from: i64, to: i64| {
        let moved = ScriptBuilder::new()
            .map_remove(accounts, from)
            .map_insert(accounts, to, from);
        moved.counter_add(moves, 1).build()
    };
    [transfer(0, 1), transfer(1, 0)]
}

/// How long `iters` of `there_and_back`, alternating, take through
/// `Executor::execute`.
fn time_transfers(exec: &Executor, there_and_back: &[Vec<ScriptOp>; 2], iters: u64) -> Duration {
    let start = Instant::now();
    for script in there_and_back.iter().cycle().take(iters as usize) {
        let out = exec.execute(script);
        assert_eq!(out.status, ScriptStatus::Committed);
    }
    start.elapsed()
}

/// The transfer script on one thread.
fn bench_exec_transfer3(iters: u64) -> Measurement {
    let exec = seeded_executor(1);
    let there_and_back = transfer_scripts("accounts", "moves");
    measure("executor transfer 3-op script", iters, iters, || {
        time_transfers(&exec, &there_and_back, iters)
    })
}

/// The transfer script on two threads sharing one executor, each over a
/// map and a counter of its own. No lock, key or object is shared, so
/// whatever this costs above the one-thread row is what commits share
/// globally: the commit clock, the reader registry's floor pass, the
/// metrics lines.
fn bench_exec_transfer3_x2(iters: u64) -> Measurement {
    let exec = Executor::new(TxnConfig::default(), 1024);
    let scripts = [("accounts0", "moves0"), ("accounts1", "moves1")].map(|(accounts, moves)| {
        let seed = ScriptBuilder::new().map_insert(accounts, 0, 0).build();
        assert_eq!(exec.execute(&seed).status, ScriptStatus::Committed);
        transfer_scripts(accounts, moves)
    });
    let label = "executor transfer x2 threads, disjoint keys";
    measure_x2(label, iters, |i| time_transfers(&exec, &scripts[i], iters))
}

/// The shape of `wire_readmostly`'s read — four `map_contains` on one
/// map of `keys` keys through `Executor::execute_read_only` (one
/// snapshot, no locks, the lookahead's prefetches) — cycling through
/// `keys / 16` scripts, so a quarter of the keys are read. At 1,024
/// keys every entry stays cached; at 262,144, the workload's key count,
/// the loop still revisits its keys far more often than the server's
/// random ones, so this row shows the executor's path, not the
/// server's misses. One pass runs `iters` scripts.
fn exec_rscan4_pass(keys: i64, iters: u64) -> impl FnMut() -> Duration {
    let exec = seeded_executor(keys);
    // The first snapshot read arms the map: not a pass's to pay.
    let arm = ScriptBuilder::new().map_contains("accounts", 0).build();
    assert_eq!(exec.execute_read_only(&arm).status, ScriptStatus::Committed);
    let scans: Vec<_> = (0..keys / 16)
        .map(|i| {
            let script = (0..4).map(|j| (i * 4 + j) * KEY_STRIDE % keys);
            script
                .fold(ScriptBuilder::new(), |s, k| s.map_contains("accounts", k))
                .build()
        })
        .collect();
    move || {
        let start = Instant::now();
        for script in scans.iter().cycle().take(iters as usize) {
            let out = exec.execute_read_only(script);
            assert_eq!(out.status, ScriptStatus::Committed);
        }
        start.elapsed()
    }
}

fn main() {
    let args = parse_args();
    println!("hotpath microbench ({} txns per measurement)", args.iters);

    let [empty, first, first_wide, re, shared] = bench_locks(args.iters);
    let empty_x2 = bench_empty_txn_x2(args.iters);
    let counter_add = bench_counter_add(args.iters);
    let log_inline = bench_log_inline(args.iters);
    let log_boxed = bench_log_boxed(args.iters / 4);
    let [map3, map3_versioned, map3_versioned_x2] = bench_map3(args.iters);
    let iters = args.iters;
    let snapshot4 = measure(
        "snapshot scan4 @262144 keys",
        iters,
        iters,
        snapshot4_pass(262_144, iters),
    );
    let exec_transfer3 = bench_exec_transfer3(iters);
    let exec_transfer3_x2 = bench_exec_transfer3_x2(iters);
    let [snapshot4_small, exec_rscan4] = measure_together([
        (
            "snapshot scan4 @1024 keys",
            iters,
            iters,
            &mut snapshot4_pass(1024, iters),
        ),
        (
            "executor rscan4 script",
            iters,
            iters,
            &mut exec_rscan4_pass(1024, iters),
        ),
    ]);
    let exec_rscan4_wide = measure(
        "executor rscan4 script @262144 keys",
        iters,
        iters,
        exec_rscan4_pass(262_144, iters),
    );

    let all = [
        &empty,
        &empty_x2,
        &first,
        &first_wide,
        &re,
        &shared,
        &counter_add,
        &log_inline,
        &log_boxed,
        &map3,
        &map3_versioned,
        &map3_versioned_x2,
        &snapshot4_small,
        &snapshot4,
        &exec_transfer3,
        &exec_transfer3_x2,
        &exec_rscan4,
        &exec_rscan4_wide,
    ];
    for m in all {
        m.print();
    }

    // Structural invariants (the same ones `check_bench_json.py hotpath`
    // asserts from the JSON).
    assert!(
        re.ns_per_op < first.ns_per_op,
        "reacquire ({:.1} ns) must be strictly below first acquire ({:.1} ns)",
        re.ns_per_op,
        first.ns_per_op
    );
    assert!(
        first_wide.ns_per_op <= 2.0 * first.ns_per_op,
        "first acquire over 262,144 keys ({:.1} ns) must stay within 2x of 8 keys ({:.1} ns)",
        first_wide.ns_per_op,
        first.ns_per_op
    );
    assert!(
        shared.ns_per_op <= 2.0 * first.ns_per_op,
        "a shared acquire + release ({:.1} ns) must stay within 2x of a first acquire ({:.1} ns)",
        shared.ns_per_op,
        first.ns_per_op
    );
    assert!(
        empty.ns_per_op <= 3.0 * first.ns_per_op,
        "an empty transaction ({:.1} ns) must stay within 3x of a first acquire ({:.1} ns)",
        empty.ns_per_op,
        first.ns_per_op
    );
    assert!(
        exec_rscan4.ns_per_op <= 2.0 * snapshot4_small.ns_per_op,
        "an executor rscan4 script ({:.1} ns) must stay within 2x of the bare snapshot scan ({:.1} ns)",
        exec_rscan4.ns_per_op,
        snapshot4_small.ns_per_op
    );
    assert_eq!(
        exec_transfer3.allocs_per_txn, 1,
        "an executor transfer script allocates its results vector and nothing else"
    );
    assert_eq!(
        first.allocs_per_txn, 0,
        "a transaction locking {ACQUIRE_KEYS} keys must not allocate"
    );
    assert_eq!(
        counter_add.allocs_per_txn, 0,
        "a one-add counter transaction must not allocate"
    );
    assert_eq!(
        map3.allocs_per_txn, 0,
        "a 3-op boosted-map transaction must not allocate"
    );
    assert_eq!(
        map3_versioned.allocs_per_txn, 0,
        "a 3-op transaction on a versioned map must not allocate"
    );
    assert_eq!(
        snapshot4.allocs_per_txn, 0,
        "a 4-lookup snapshot script must not allocate"
    );
    assert_eq!(log_inline.allocs_per_txn, 0, "inline undo pushes allocated");
    assert!(
        log_boxed.allocs_per_txn >= LOG_PUSHES,
        "boxed pushes must be visible to the counting allocator"
    );
    println!(
        "invariants: reacquire < first-acquire; first-acquire independent of the key universe; \
         shared-acquire <= 2x first-acquire; empty-txn <= 3x first-acquire; executor rscan4 <= 2x \
         snapshot scan4; 8-lock txn, counter-add txn, map 3-op txns and 4-lookup snapshot \
         allocation-free; executor transfer script 1 alloc"
    );

    if let Some(dir) = args.out_dir {
        let mut report = BenchReport::new("hotpath");
        report
            .meta("iters", args.iters.to_string())
            .meta("first_acquire_ns", format!("{:.1}", first.ns_per_op))
            .meta(
                "first_acquire_262144_ns",
                format!("{:.1}", first_wide.ns_per_op),
            )
            .meta("reacquire_ns", format!("{:.1}", re.ns_per_op))
            .meta("shared_acquire_ns", format!("{:.1}", shared.ns_per_op))
            .meta(
                "counter_add_txn_ns",
                format!("{:.1}", counter_add.ns_per_op),
            )
            .meta("empty_txn_ns", format!("{:.1}", empty.ns_per_op))
            .meta(
                "empty_txn_2threads_ns",
                format!("{:.1}", empty_x2.ns_per_op),
            )
            .meta(
                "executor_transfer3_ns",
                format!("{:.1}", exec_transfer3.ns_per_op),
            )
            .meta(
                "executor_transfer3_2threads_ns",
                format!("{:.1}", exec_transfer3_x2.ns_per_op),
            )
            .meta(
                "executor_rscan4_ns",
                format!("{:.1}", exec_rscan4.ns_per_op),
            )
            .meta(
                "executor_rscan4_262144_ns",
                format!("{:.1}", exec_rscan4_wide.ns_per_op),
            )
            .meta(
                "snapshot4_1024_ns",
                format!("{:.1}", snapshot4_small.ns_per_op),
            )
            .meta("log_push_inline_ns", format!("{:.1}", log_inline.ns_per_op))
            .meta("allocs_per_txn_lock8", first.allocs_per_txn.to_string())
            .meta(
                "allocs_per_txn_counter_add",
                counter_add.allocs_per_txn.to_string(),
            )
            .meta("allocs_per_txn_map3", map3.allocs_per_txn.to_string())
            .meta(
                "allocs_per_txn_map3_versioned",
                map3_versioned.allocs_per_txn.to_string(),
            )
            .meta(
                "allocs_per_txn_snapshot4",
                snapshot4.allocs_per_txn.to_string(),
            )
            .meta(
                "allocs_per_script_transfer3",
                exec_transfer3.allocs_per_txn.to_string(),
            )
            .meta(
                "allocs_per_txn_log_inline",
                log_inline.allocs_per_txn.to_string(),
            )
            .meta(
                "allocs_per_txn_log_boxed",
                log_boxed.allocs_per_txn.to_string(),
            )
            .meta(
                "profile",
                if cfg!(debug_assertions) {
                    "dev"
                } else {
                    "release"
                },
            );
        for m in all {
            report.push(SeriesPoint {
                label: m.label.to_string(),
                threads: m.threads,
                throughput: 1e9 / m.ns_per_op,
                committed: m.ops,
                aborted: 0,
                p50_us: m.ns_per_op / 1_000.0,
                p99_us: m.ns_per_op / 1_000.0,
            });
        }
        let path = report.write(&dir).expect("write bench json");
        println!("wrote {path}");
    }
}
