//! The traced replay: the outside view of one request's latency
//! budget.
//!
//! The head of a wire workload's stream is replayed in-process, one
//! script at a time — what the
//! server does for a connection at depth 1 — with a span around each
//! call into a layer: frame decoding,
//! request decoding, batch classification, execution (WAL detached),
//! the group-commit enqueue and durable wait of a mutating script
//! under WAL, and response encoding. The spans are recorded by this
//! file, around the calls; spans inside the program are a later change
//! that this one will be compared with.
//!
//! The stage means sum to the mean time the replay spends per script.
//! A depth-1 round trip over a real socket, minus that sum, is what
//! the socket, `epoll`, the reply flush and the client cost: the
//! residual.

use crate::exec_run::populated_executor;
use crate::gen::mutates;
use crate::layers::{as_request, as_response, stream_head};
use crate::run::{Metrics, RunConfig};
use std::collections::BTreeMap;
use std::io::{BufWriter, Write};
use std::sync::Arc;
use std::time::{Duration, Instant};
use txboost_core::DurabilityMetrics;
use txboost_server::batch_eligible;
use txboost_wal::{FileStorage, GroupCommitWal, Storage, WalConfig};
use txboost_wire::{
    decode_request, encode_request, send_response, write_frame, FrameDecoder, Request,
    ScriptStatus, MAX_FRAME_LEN,
};

/// The replay stops early when a slow disk would make it run longer
/// than this; both replays then cover the scripts the first one
/// reached.
const REPLAY_BUDGET: Duration = Duration::from_secs(4);
/// Spans one script can produce: the root and seven stages.
const SPANS_PER_SCRIPT: usize = 8;

const ROOT: &str = "script";

/// One timed interval. `parent` is the index of the span that caused
/// it (`None` for a root); spans of one script share `script`.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<u32>,
    pub script: u32,
    pub start_ns: u64,
    pub end_ns: u64,
}

/// Spans live in one pre-sized vector until the replay is over.
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    recording: bool,
}

impl Tracer {
    pub fn new(scripts: usize, recording: bool) -> Tracer {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(if recording {
                scripts * SPANS_PER_SCRIPT
            } else {
                0
            }),
            recording,
        }
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Open a span; with recording off this reads no clock and stores
    /// nothing, so the same replay measures what tracing costs.
    pub fn begin(&mut self, name: &'static str, parent: Option<u32>, script: u32) -> Option<u32> {
        if !self.recording {
            return None;
        }
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent,
            script,
            start_ns,
            end_ns: start_ns,
        });
        Some(self.spans.len() as u32 - 1)
    }

    pub fn end(&mut self, span: Option<u32>) {
        if let Some(i) = span {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// One JSON object per span.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        let mut out = BufWriter::new(std::fs::File::create(path)?);
        for (id, s) in self.spans.iter().enumerate() {
            let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"parent\":{parent},\"script\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
                s.script, s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }

    /// Mean self time per script of every span name, in µs: a span's
    /// duration minus the part its children cover. Summed over names
    /// this is the mean root duration, by construction.
    pub fn stage_means_us(&self, scripts: usize) -> BTreeMap<&'static str, f64> {
        let mut self_ns: Vec<i64> = self
            .spans
            .iter()
            .map(|s| (s.end_ns - s.start_ns) as i64)
            .collect();
        for s in &self.spans {
            if let Some(parent) = s.parent {
                self_ns[parent as usize] -= (s.end_ns - s.start_ns) as i64;
            }
        }
        let mut totals = BTreeMap::new();
        for (s, ns) in self.spans.iter().zip(self_ns) {
            *totals.entry(s.name).or_insert(0.0) += ns as f64;
        }
        for total in totals.values_mut() {
            *total /= scripts.max(1) as f64 * 1e3;
        }
        totals
    }
}

/// Replay the first `limit` scripts of the stream; returns how many
/// ran and how long the whole replay took.
fn replay(
    cfg: &RunConfig,
    tracer: &mut Tracer,
    limit: usize,
    budget: Option<Duration>,
    problems: &mut Vec<String>,
) -> Result<(usize, Duration), String> {
    let workload = cfg.workload;
    let stream = stream_head(cfg, limit);
    // The bytes as they would arrive from the socket, built before the
    // clock starts.
    let frames: Vec<Vec<u8>> = stream
        .iter()
        .enumerate()
        .map(|(i, script)| {
            let mut frame = Vec::new();
            write_frame(&mut frame, &encode_request(&as_request(i as u64, script)))
                .expect("writing to a Vec");
            frame
        })
        .collect();
    let exec = populated_executor(workload)?;
    let wal_dir = cfg
        .out_dir
        .join(format!("wal-trace-{}", std::process::id()));
    let wal = if workload.durable() {
        let _ = std::fs::remove_dir_all(&wal_dir);
        let io = |e: std::io::Error| format!("trace WAL in {}: {e}", wal_dir.display());
        let storage: Arc<dyn Storage> = Arc::new(FileStorage::open(&wal_dir).map_err(io)?);
        let wal = Arc::new(
            GroupCommitWal::new(
                storage,
                &WalConfig {
                    batch_max: 64,
                    ..WalConfig::default()
                },
                1,
                Arc::new(DurabilityMetrics::new()),
            )
            .map_err(io)?,
        );
        wal.spawn_flusher().map_err(io)?;
        Some(wal)
    } else {
        None
    };

    let mut decoder = FrameDecoder::new(MAX_FRAME_LEN);
    let mut reply = Vec::with_capacity(256);
    let (mut wrong, mut lost) = (0u64, 0u64);
    let started = Instant::now();
    let mut ran = 0;
    for (i, (script, frame)) in stream.iter().zip(&frames).enumerate() {
        if budget.is_some_and(|b| i % 64 == 0 && started.elapsed() > b) {
            break;
        }
        let id = i as u32;
        let root = tracer.begin(ROOT, None, id);

        let span = tracer.begin("wire.frame_decode", root, id);
        decoder.feed(frame);
        let payload = decoder.next_frame();
        tracer.end(span);
        let Ok(Some(payload)) = payload else {
            return Err(format!("frame {i} did not decode"));
        };

        let span = tracer.begin("wire.decode_request", root, id);
        let request = decode_request(&payload);
        tracer.end(span);

        let (req_id, ops, read_only) = match request {
            Ok(Request::Script { req_id, ops }) => (req_id, ops, false),
            Ok(Request::ReadOnlyScript { req_id, ops }) => (req_id, ops, true),
            _ => return Err(format!("request {i} did not decode to a script")),
        };

        let span = tracer.begin("batch.classify", root, id);
        // The batcher asks this of every `Script`; a run of one then
        // takes the classic path, as it does here.
        let _eligible = !read_only && std::hint::black_box(batch_eligible(&ops));
        tracer.end(span);

        let outcome = if read_only {
            let span = tracer.begin("exec.execute_read_only", root, id);
            let outcome = exec.execute_read_only(&ops);
            tracer.end(span);
            outcome
        } else {
            let span = tracer.begin("exec.execute", root, id);
            let outcome = exec.execute(&ops);
            tracer.end(span);
            outcome
        };
        let committed = outcome.status == ScriptStatus::Committed;
        wrong += u64::from(!committed || !script.expect.admits(&outcome.results));

        if let Some(wal) = &wal {
            if committed && ops.iter().any(|sop| mutates(&sop.op)) {
                let span = tracer.begin("wal.enqueue", root, id);
                let ticket = wal.enqueue(&ops);
                tracer.end(span);
                let span = tracer.begin("wal.durable_wait", root, id);
                lost += u64::from(!ticket.wait());
                tracer.end(span);
            }
        }

        let span = tracer.begin("wire.encode_response", root, id);
        reply.clear();
        send_response(&mut reply, &as_response(req_id, outcome)).expect("writing to a Vec");
        std::hint::black_box(&reply);
        tracer.end(span);

        tracer.end(root);
        ran += 1;
    }
    let elapsed = started.elapsed();
    if let Some(wal) = wal {
        wal.shutdown();
        let _ = std::fs::remove_dir_all(&wal_dir);
    }
    if wrong > 0 {
        problems.push(format!("{wrong} replayed scripts got a wrong reply"));
    }
    if lost > 0 {
        problems.push(format!("{lost} replayed records were not made durable"));
    }
    Ok((ran, elapsed))
}

/// Run the traced replay and its untraced twin. `rtt_us` is the
/// depth-1 script round trip measured against the real server.
pub fn measure(
    cfg: &RunConfig,
    rtt_us: f64,
    problems: &mut Vec<String>,
    notes: &mut Vec<String>,
) -> Result<Metrics, String> {
    let mut tracer = Tracer::new(cfg.traced_scripts, true);
    let (scripts, traced) = replay(
        cfg,
        &mut tracer,
        cfg.traced_scripts,
        Some(REPLAY_BUDGET),
        problems,
    )?;
    let mut silent = Tracer::new(0, false);
    let (_, untraced) = replay(cfg, &mut silent, scripts, None, problems)?;

    let path = cfg.out_dir.join("trace.jsonl");
    tracer
        .write_jsonl(&path)
        .map_err(|e| format!("writing {}: {e}", path.display()))?;

    let stages = tracer.stage_means_us(scripts);
    let stage_sum: f64 = stages.values().sum();
    let residual = rtt_us - stage_sum;
    let overhead = (traced.as_secs_f64() / untraced.as_secs_f64() - 1.0) * 100.0;
    notes.push(format!(
        "traced replay: {scripts} scripts, {} spans in {}",
        tracer.spans.len(),
        path.display()
    ));
    for (name, mean) in &stages {
        let label = if *name == ROOT { "script (self)" } else { name };
        notes.push(format!("  stage {label:<26} {mean:>10.3} us"));
    }
    notes.push(format!("  {:<32} {stage_sum:>10.3} us", "sum of stages"));
    notes.push(format!(
        "  {:<32} {rtt_us:>10.3} us",
        "client.script_rtt_depth1_us"
    ));
    notes.push(format!(
        "  {:<32} {residual:>10.3} us",
        "eventloop.residual_us"
    ));
    notes.push(format!(
        "  tracing overhead {overhead:.2}% ({:.1} ms traced, {:.1} ms untraced)",
        traced.as_secs_f64() * 1e3,
        untraced.as_secs_f64() * 1e3
    ));
    Ok(vec![
        ("trace.stage_sum_us", stage_sum),
        ("eventloop.residual_us", residual),
        ("trace.overhead_pct", overhead),
    ])
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_times_sum_to_the_root_duration() {
        let mut t = Tracer::new(2, true);
        for script in 0..2 {
            let root = t.begin(ROOT, None, script);
            let a = t.begin("a", root, script);
            std::thread::sleep(Duration::from_millis(2));
            t.end(a);
            let b = t.begin("b", root, script);
            t.end(b);
            t.end(root);
        }
        let roots: u64 = t
            .spans
            .iter()
            .filter(|s| s.parent.is_none())
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        let stages = t.stage_means_us(2);
        let sum: f64 = stages.values().sum();
        assert!((sum - roots as f64 / 2e3).abs() < 1e-6, "{sum} vs {roots}");
        assert!(stages["a"] >= 2000.0);
        assert_eq!(t.spans[1].parent, Some(0));
        assert_eq!(t.spans[4].script, 1);
    }

    #[test]
    fn a_silent_tracer_records_nothing() {
        let mut t = Tracer::new(10, false);
        let root = t.begin(ROOT, None, 0);
        t.end(root);
        assert!(root.is_none() && t.spans.is_empty());
    }
}
