//! Per-layer costs measured from outside: each number times calls into
//! one module's public functions, on the workload's own script stream
//! where the cost depends on the script's shape, and on a fixed
//! micro-workload where it does not.
//!
//! Single-threaded and in-process. These are counts and nanoseconds
//! that compare two versions of one layer; they leave out waiting,
//! which the measured window and the traced replay cover.

use crate::alloc_count::allocations;
use crate::exec_run::populated_executor;
use crate::gen::{mutates, Gen, Script, Workload};
use crate::latency::median_f64;
use crate::run::{Metrics, RunConfig, PIPELINE_DEPTH};
use std::hint::black_box;
use std::path::Path;
use std::sync::Arc;
use std::time::{Duration, Instant};
use txboost_core::locks::KeyLockMap;
use txboost_core::{Abort, DurabilityMetrics, TxnManager};
use txboost_linearizable::StripedHashMap;
use txboost_server::{batch_eligible, BatchConfig, Batcher, Executor, ScriptOutcome};
use txboost_wal::{FileStorage, GroupCommitWal, Storage, WalConfig};
use txboost_wire::{
    decode_request, encode_request, encode_response, write_frame, FrameDecoder, Request, Response,
    ScriptOp, MAX_FRAME_LEN,
};

/// Scripts of the stream each stream-shaped measurement covers.
const STREAM_SCRIPTS: usize = 8192;
/// Repetitions of each measurement; the median is reported.
const REPS: usize = 5;
/// Transactions per repetition of the fixed micro-workloads.
const MICRO_ITERS: u64 = 20_000;
/// Keys locked per transaction in the lock measurements — fits the
/// per-transaction lock-handle cache, as in `crates/bench`'s hotpath.
const LOCK_KEYS: i64 = 8;
const RELOCK_ROUNDS: u64 = 32;
/// Records in the group-commit probe (each waits for its own fsync).
const WAL_PROBES: usize = 200;

/// Median over `REPS` rounds of ns per operation; a round reports the
/// time it spent and how many operations that covered.
fn ns_per_op(mut round: impl FnMut() -> (Duration, u64)) -> f64 {
    let per_op: Vec<f64> = (0..REPS)
        .map(|_| {
            let (elapsed, ops) = round();
            elapsed.as_nanos() as f64 / ops.max(1) as f64
        })
        .collect();
    median_f64(&per_op).unwrap_or(0.0)
}

/// Time `body` over every item, once per round.
fn ns_per_item<T>(items: &[T], mut body: impl FnMut(&T)) -> f64 {
    if items.is_empty() {
        return 0.0;
    }
    ns_per_op(|| {
        let t = Instant::now();
        for item in items {
            body(item);
        }
        (t.elapsed(), items.len() as u64)
    })
}

pub fn as_request(req_id: u64, script: &Script) -> Request {
    if script.read_only {
        Request::ReadOnlyScript {
            req_id,
            ops: script.ops.clone(),
        }
    } else {
        Request::Script {
            req_id,
            ops: script.ops.clone(),
        }
    }
}

pub fn as_response(req_id: u64, out: ScriptOutcome) -> Response {
    Response::Script {
        req_id,
        status: out.status,
        attempts: out.attempts,
        failed_op: out.failed_op,
        results: out.results,
    }
}

/// Execute a script the way the server's event loop dispatches it.
pub fn dispatch(exec: &Executor, script: &Script) -> ScriptOutcome {
    if script.read_only {
        exec.execute_read_only(&script.ops)
    } else {
        exec.execute(&script.ops)
    }
}

/// The first `n` scripts of stream 0.
pub fn stream_head(cfg: &RunConfig, n: usize) -> Vec<Script> {
    let mut gen = Gen::new(cfg.workload, cfg.seed, 0, cfg.streams());
    (0..n).map(|_| gen.next_script()).collect()
}

/// `wire.*`: encode, decode and frame the stream's own messages.
fn wire_layer(stream: &[Script], responses: &[Response], out: &mut Metrics) {
    let requests: Vec<Request> = stream
        .iter()
        .enumerate()
        .map(|(i, s)| as_request(i as u64, s))
        .collect();
    let payloads: Vec<Vec<u8>> = requests.iter().map(encode_request).collect();
    out.push((
        "wire.encode_request_ns",
        ns_per_item(&requests, |r| {
            black_box(encode_request(black_box(r)));
        }),
    ));
    out.push((
        "wire.decode_request_ns",
        ns_per_item(&payloads, |p| {
            let _ = black_box(decode_request(black_box(p)));
        }),
    ));
    out.push((
        "wire.encode_response_ns",
        ns_per_item(responses, |r| {
            black_box(encode_response(black_box(r)));
        }),
    ));

    let before = allocations();
    for p in &payloads {
        let _ = black_box(decode_request(black_box(p)));
    }
    out.push((
        "wire.allocs_per_decode",
        (allocations() - before) as f64 / payloads.len() as f64,
    ));

    // What one socket read hands the decoder under a full pipeline:
    // `PIPELINE_DEPTH` frames at once.
    let reads: Vec<Vec<u8>> = payloads
        .chunks(PIPELINE_DEPTH)
        .map(|chunk| {
            let mut bytes = Vec::new();
            for p in chunk {
                write_frame(&mut bytes, p).expect("writing to a Vec");
            }
            bytes
        })
        .collect();
    let mut decoder = FrameDecoder::new(MAX_FRAME_LEN);
    out.push((
        "wire.frame_decoder_ns_per_frame",
        ns_per_op(|| {
            let t = Instant::now();
            let mut frames = 0;
            for read in &reads {
                decoder.feed(read);
                while let Ok(Some(frame)) = decoder.next_frame() {
                    black_box(frame);
                    frames += 1;
                }
            }
            (t.elapsed(), frames)
        }),
    ));

    let mean_frame = |lens: &mut dyn Iterator<Item = usize>, n: usize| -> f64 {
        lens.map(|len| 4 + len).sum::<usize>() as f64 / n.max(1) as f64
    };
    out.push((
        "wire.request_bytes_per_script",
        mean_frame(&mut payloads.iter().map(Vec::len), payloads.len()),
    ));
    out.push((
        "wire.response_bytes_per_script",
        mean_frame(
            &mut responses.iter().map(|r| encode_response(r).len()),
            responses.len(),
        ),
    ));
}

/// `exec.*` over the stream, plus the responses the stream earns (the
/// input of `wire.encode_response_ns`). Each round runs the stream on
/// a fresh executor, WAL detached, so every round sees the same state.
fn exec_layer(
    cfg: &RunConfig,
    stream: &[Script],
    out: &mut Metrics,
) -> Result<Vec<Response>, String> {
    let workload = cfg.workload;
    // Sized up front, so keeping the responses for the wire layer adds
    // no allocation to the executor's count.
    let mut responses = Vec::with_capacity(stream.len());
    let mut allocs = 0;
    let mut rounds = Vec::with_capacity(REPS);
    for _ in 0..REPS {
        let exec = populated_executor(workload)?;
        responses.clear();
        let (mut spent, mut ran) = (Duration::ZERO, 0u64);
        let before = allocations();
        for (i, script) in stream.iter().enumerate() {
            let t = Instant::now();
            let outcome = dispatch(&exec, script);
            if !script.read_only {
                spent += t.elapsed();
                ran += 1;
            }
            responses.push(as_response(i as u64, outcome));
        }
        allocs = allocations() - before;
        rounds.push(spent.as_nanos() as f64 / ran.max(1) as f64);
    }
    out.push(("exec.execute_ns", median_f64(&rounds).unwrap_or(0.0)));
    out.push((
        "exec.allocs_per_script",
        allocs as f64 / stream.len() as f64,
    ));

    // The snapshot path, on the scripts it can run: those that only
    // read. They change nothing, so one executor serves every round.
    let readers: Vec<&Script> = stream
        .iter()
        .filter(|s| s.ops.iter().all(|sop| !mutates(&sop.op)))
        .collect();
    let exec = populated_executor(workload)?;
    out.push((
        "exec.execute_read_only_ns",
        ns_per_item(&readers, |s| {
            black_box(exec.execute_read_only(&s.ops));
        }),
    ));
    Ok(responses)
}

/// `batch.*`: what classifying costs, and what `run_tick` adds on top
/// of the joint transaction it ends up running.
fn batch_layer(workload: Workload, stream: &[Script], out: &mut Metrics) -> Result<(), String> {
    out.push((
        "batch.eligible_ns",
        ns_per_item(stream, |s| {
            black_box(batch_eligible(black_box(&s.ops)));
        }),
    ));

    // Full ticks of eligible scripts: what one connection's pipeline
    // delivers in one poll tick.
    let eligible: Vec<&Script> = stream
        .iter()
        .filter(|s| !s.read_only && batch_eligible(&s.ops))
        .collect();
    let ticks: Vec<Vec<Vec<ScriptOp>>> = eligible
        .chunks_exact(PIPELINE_DEPTH)
        .map(|tick| tick.iter().map(|s| s.ops.clone()).collect())
        .collect();
    if ticks.is_empty() {
        out.push(("exec.execute_batch_ns_per_script", 0.0));
        out.push(("batch.run_tick_overhead_ns", 0.0));
        return Ok(());
    }
    let scripts = (ticks.len() * PIPELINE_DEPTH) as u64;
    let batcher = Batcher::new(BatchConfig::default());
    let (mut joint, mut ticked) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let exec = populated_executor(workload)?;
        let t = Instant::now();
        for tick in &ticks {
            black_box(exec.execute_batch(tick));
        }
        joint.push(t.elapsed().as_nanos() as f64 / scripts as f64);

        // Same scripts, same starting state, through the batcher. The
        // request vectors are built before the clock starts.
        let exec = populated_executor(workload)?;
        let requests: Vec<Vec<(usize, Request)>> = ticks
            .iter()
            .map(|tick| {
                tick.iter()
                    .enumerate()
                    .map(|(i, ops)| {
                        let req = Request::Script {
                            req_id: i as u64,
                            ops: ops.clone(),
                        };
                        (i, req)
                    })
                    .collect()
            })
            .collect();
        let t = Instant::now();
        for tick in requests {
            batcher.run_tick(
                &exec,
                tick,
                // Never called: every request of these ticks is eligible.
                |_| Response::Pong { req_id: 0 },
                |token, response| {
                    black_box((token, response));
                },
            );
        }
        ticked.push(t.elapsed().as_nanos() as f64 / scripts as f64);
    }
    let joint = median_f64(&joint).unwrap_or(0.0);
    out.push(("exec.execute_batch_ns_per_script", joint));
    out.push((
        "batch.run_tick_overhead_ns",
        median_f64(&ticked).unwrap_or(0.0) - joint,
    ));
    Ok(())
}

/// `core.*`: the transaction runtime with nothing in it, its lock
/// table, and its undo path.
fn core_layer(out: &mut Metrics) {
    let tm = TxnManager::default();
    out.push((
        "core.empty_txn_ns",
        ns_per_op(|| {
            let t = Instant::now();
            for _ in 0..MICRO_ITERS {
                let _ = black_box(tm.run(|_| Ok(())));
            }
            (t.elapsed(), MICRO_ITERS)
        }),
    ));

    // First acquisition and reacquisition are timed inside the same
    // transactions, so the per-transaction overhead cancels out.
    let locks = KeyLockMap::<i64>::new();
    let txns = MICRO_ITERS / 4;
    let (mut first, mut again) = (Vec::new(), Vec::new());
    for _ in 0..REPS {
        let (mut first_spent, mut again_spent) = (Duration::ZERO, Duration::ZERO);
        for _ in 0..txns {
            let _ = tm.run(|txn| {
                let t = Instant::now();
                for key in 0..LOCK_KEYS {
                    locks.lock(txn, &key)?;
                }
                let mid = Instant::now();
                for _ in 0..RELOCK_ROUNDS {
                    for key in 0..LOCK_KEYS {
                        locks.lock(txn, &key)?;
                    }
                }
                first_spent += mid - t;
                again_spent += mid.elapsed();
                Ok(())
            });
        }
        let acquisitions = (txns * LOCK_KEYS as u64) as f64;
        first.push(first_spent.as_nanos() as f64 / acquisitions);
        again.push(again_spent.as_nanos() as f64 / (acquisitions * RELOCK_ROUNDS as f64));
    }
    out.push((
        "core.lock_first_acquire_ns",
        median_f64(&first).unwrap_or(0.0),
    ));
    out.push(("core.lock_reacquire_ns", median_f64(&again).unwrap_or(0.0)));

    // Three map operations, then an explicit abort: the undo log is
    // replayed and the locks released.
    let map = txboost_collections::BoostedHashMap::<i64, i64>::new();
    let _ = tm.run(|txn| {
        for key in 0..3 {
            map.put(txn, key, key)?;
        }
        Ok(())
    });
    out.push((
        "core.abort_3op_ns",
        ns_per_op(|| {
            let t = Instant::now();
            for i in 0..MICRO_ITERS as i64 {
                let _ = black_box(tm.run(|txn| -> Result<(), Abort> {
                    map.put(txn, 0, i)?;
                    map.put(txn, 1, i)?;
                    map.remove(txn, &2)?;
                    Err(Abort::explicit())
                }));
            }
            (t.elapsed(), MICRO_ITERS)
        }),
    ));
}

/// `boosted.*`, `mvcc.run_read_only_ns` and the un-boosted base map:
/// one transaction per call on the objects the server's namespace
/// hands out.
fn object_layer(out: &mut Metrics) -> Result<(), String> {
    let exec = populated_executor(Workload::ExecContended)?;
    let ns = exec.namespace();
    let tm = TxnManager::default();
    let map = ns.map("layers");
    let _ = tm.run(|txn| {
        for key in 0..1024 {
            map.put(txn, key, key)?;
        }
        Ok(())
    });
    let per_txn = |body: &mut dyn FnMut(i64)| -> f64 {
        ns_per_op(|| {
            let t = Instant::now();
            for i in 0..MICRO_ITERS as i64 {
                body(i);
            }
            (t.elapsed(), MICRO_ITERS)
        })
    };

    let mut txn3 = |i: i64| {
        let _ = black_box(tm.run(|txn| {
            map.put(txn, 0, i)?;
            map.put(txn, 1, i)?;
            map.get(txn, &2)
        }));
    };
    out.push(("boosted.map_txn3_ns", per_txn(&mut txn3)));
    let before = allocations();
    for i in 0..MICRO_ITERS as i64 {
        txn3(i);
    }
    out.push((
        "boosted.allocs_per_txn3",
        (allocations() - before) as f64 / MICRO_ITERS as f64,
    ));
    out.push((
        "boosted.map_insert_ns",
        per_txn(&mut |i| {
            let _ = black_box(tm.run(|txn| map.put(txn, i & 1023, i)));
        }),
    ));
    out.push((
        "boosted.map_contains_ns",
        per_txn(&mut |i| {
            let _ = black_box(tm.run(|txn| map.contains_key(txn, &(i & 1023))));
        }),
    ));
    let counter = ns.counter("layers");
    out.push((
        "boosted.counter_add_ns",
        per_txn(&mut |_| {
            let _ = black_box(tm.run(|txn| counter.add(txn, 1)));
        }),
    ));
    let queue = ns.pq(crate::gen::PQ);
    out.push((
        "boosted.pq_add_remove_ns",
        per_txn(&mut |i| {
            let _ = black_box(tm.run(|txn| {
                queue.add(txn, i)?;
                queue.remove_min(txn)
            }));
        }),
    ));
    let ids = ns.idgen("layers");
    out.push((
        "boosted.idgen_ns",
        per_txn(&mut |_| {
            let _ = black_box(tm.run(|txn| ids.assign_id(txn)));
        }),
    ));
    out.push((
        "mvcc.run_read_only_ns",
        per_txn(&mut |i| {
            let _ = black_box(tm.run_read_only(|txn| {
                let mut found = 0;
                for key in [i, i + 256, i + 512, i + 768] {
                    found += u32::from(map.contains_key(txn, &(key & 1023))?);
                }
                Ok(found)
            }));
        }),
    ));

    // The base object with no transaction around it: the boosted
    // insert minus this is the paper's boosting overhead.
    let base = StripedHashMap::<i64, i64>::new();
    for key in 0..1024 {
        base.insert(key, key);
    }
    out.push((
        "linearizable.map_insert_ns",
        per_txn(&mut |i| {
            black_box(base.insert(i & 1023, i));
        }),
    ));
    Ok(())
}

/// `wal.enqueue_ns` and `wal.durable_wait_us`: one writer logging a
/// three-op transfer, the flusher thread running, real files and real
/// `fsync` under `scratch`.
fn wal_layer(scratch: &Path, out: &mut Metrics) -> Result<(), String> {
    let dir = scratch.join(format!("wal-probe-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let io = |e: std::io::Error| format!("WAL probe in {}: {e}", dir.display());
    let storage: Arc<dyn Storage> = Arc::new(FileStorage::open(&dir).map_err(io)?);
    let wal = Arc::new(
        GroupCommitWal::new(
            storage,
            &WalConfig::default(),
            1,
            Arc::new(DurabilityMetrics::new()),
        )
        .map_err(io)?,
    );
    wal.spawn_flusher().map_err(io)?;
    // Any seed: only the shape of the record matters here.
    let mut gen = Gen::new(Workload::ExecContended, 0, 0, 1);
    let transfers: Vec<Script> = std::iter::repeat_with(|| gen.next_script())
        .filter(|s| s.ops.len() == 3)
        .take(WAL_PROBES)
        .collect();
    let (mut enqueue_ns, mut wait_us) = (Vec::new(), Vec::new());
    let mut lost = 0;
    for script in &transfers {
        let t = Instant::now();
        let ticket = wal.enqueue(&script.ops);
        let queued = Instant::now();
        lost += u32::from(!ticket.wait());
        enqueue_ns.push((queued - t).as_nanos() as f64);
        wait_us.push(queued.elapsed().as_nanos() as f64 / 1e3);
    }
    wal.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
    if lost > 0 {
        return Err(format!("{lost} WAL probe records were not made durable"));
    }
    out.push(("wal.enqueue_ns", median_f64(&enqueue_ns).unwrap_or(0.0)));
    out.push(("wal.durable_wait_us", median_f64(&wait_us).unwrap_or(0.0)));
    Ok(())
}

/// Every `T`-sourced per-layer metric for `cfg.workload`.
pub fn measure(cfg: &RunConfig) -> Result<Metrics, String> {
    let stream = stream_head(cfg, STREAM_SCRIPTS);
    let mut out = Metrics::new();
    let responses = exec_layer(cfg, &stream, &mut out)?;
    wire_layer(&stream, &responses, &mut out);
    batch_layer(cfg.workload, &stream, &mut out)?;
    core_layer(&mut out);
    object_layer(&mut out)?;
    wal_layer(&cfg.out_dir, &mut out)?;
    Ok(out)
}
