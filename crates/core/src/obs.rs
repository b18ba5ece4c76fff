//! Low-overhead observability: latency histograms and per-lock
//! contention attribution.
//!
//! The paper's evaluation explains boosting's advantage in terms of
//! *where* transactions spend their time (blocked on abstract locks)
//! and *why* they abort (lock timeouts on particular objects). This
//! module provides the measurement substrate for that analysis:
//!
//! * [`LatencyHistogram`] — a fixed-size, lock-free power-of-two-bucket
//!   histogram. All updates are single relaxed `fetch_add`s, so it can
//!   sit on the hot path of lock acquisition without perturbing the
//!   measured code.
//! * [`LockSiteStats`] — per-lock-site counters plus a wait-time
//!   histogram, shared by every [`crate::locks::AbstractLock`] (or lock
//!   stripe) attributed to one site.
//! * [`ContentionRegistry`] — the per-run collection of lock sites,
//!   snapshotted before/after a benchmark run to attribute waits and
//!   timeouts to the boosted object (and key stripe) that caused them.
//!
//! Instrumentation is strictly opt-in: locks constructed without a site
//! (`AbstractLock::new`, `KeyLockMap::new`, ...) skip every recording
//! branch, so un-instrumented runs measure the bare algorithm.

use parking_lot::Mutex;
use std::fmt;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::Duration;

/// Number of power-of-two buckets; covers the full `u64` range.
pub const HISTOGRAM_BUCKETS: usize = 64;

/// A lock-free histogram with power-of-two bucket boundaries.
///
/// Bucket `0` counts values `{0, 1}`; bucket `i > 0` counts values in
/// `[2^i, 2^(i+1))`. Values are typically nanoseconds (lock wait,
/// transaction attempt duration) or small integers (undo-log depth).
/// Recording is one relaxed `fetch_add` per value — safe for hot paths
/// and for concurrent recorders.
#[derive(Debug)]
pub struct LatencyHistogram {
    buckets: [AtomicU64; HISTOGRAM_BUCKETS],
    /// Sum of recorded values, for mean estimates (relaxed, like the
    /// buckets: statistics, not synchronization).
    sum: AtomicU64,
}

impl Default for LatencyHistogram {
    fn default() -> Self {
        LatencyHistogram::new()
    }
}

/// Index of the bucket covering `value`.
#[inline]
fn bucket_of(value: u64) -> usize {
    (64 - value.leading_zeros() as usize).saturating_sub(1)
}

/// Largest value the bucket at `index` can hold (its inclusive upper
/// boundary). Percentile estimates report this bound, so they err on
/// the pessimistic side — the honest direction for latency numbers.
#[inline]
fn bucket_ceiling(index: usize) -> u64 {
    if index >= 63 {
        u64::MAX
    } else {
        (1u64 << (index + 1)) - 1
    }
}

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        LatencyHistogram {
            buckets: [const { AtomicU64::new(0) }; HISTOGRAM_BUCKETS],
            sum: AtomicU64::new(0),
        }
    }

    /// Record one value.
    #[inline]
    pub fn record(&self, value: u64) {
        self.buckets[bucket_of(value)].fetch_add(1, Ordering::Relaxed);
        // Adding zero is a no-op; skipping it spares the hot
        // uncontended-lock path (which records wait 0) an atomic.
        if value != 0 {
            self.sum.fetch_add(value, Ordering::Relaxed);
        }
    }

    /// Record a duration, in nanoseconds.
    #[inline]
    pub fn record_duration(&self, d: Duration) {
        self.record(d.as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Take a point-in-time copy (consistent enough: each bucket is
    /// read once with relaxed ordering).
    pub fn snapshot(&self) -> HistogramSnapshot {
        let mut buckets = [0u64; HISTOGRAM_BUCKETS];
        for (b, src) in buckets.iter_mut().zip(&self.buckets) {
            *b = src.load(Ordering::Relaxed);
        }
        HistogramSnapshot {
            buckets,
            sum: self.sum.load(Ordering::Relaxed),
        }
    }
}

/// A point-in-time copy of a [`LatencyHistogram`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HistogramSnapshot {
    /// Per-bucket counts; bucket `i` covers `[2^i, 2^(i+1))` (bucket 0
    /// also covers value 0).
    pub buckets: [u64; HISTOGRAM_BUCKETS],
    /// Sum of all recorded values.
    pub sum: u64,
}

impl Default for HistogramSnapshot {
    fn default() -> Self {
        HistogramSnapshot {
            buckets: [0; HISTOGRAM_BUCKETS],
            sum: 0,
        }
    }
}

impl HistogramSnapshot {
    /// Total number of recorded values.
    pub fn count(&self) -> u64 {
        self.buckets.iter().sum()
    }

    /// Mean recorded value, or 0 when empty.
    pub fn mean(&self) -> u64 {
        self.sum.checked_div(self.count()).unwrap_or(0)
    }

    /// Upper bound of the bucket containing the `p`-quantile
    /// (`0.0 < p <= 1.0`), or 0 when empty. Resolution is one
    /// power-of-two bucket; the estimate never under-reports.
    pub fn percentile(&self, p: f64) -> u64 {
        let n = self.count();
        if n == 0 {
            return 0;
        }
        let rank = ((p * n as f64).ceil() as u64).clamp(1, n);
        let mut seen = 0u64;
        for (i, &c) in self.buckets.iter().enumerate() {
            seen += c;
            if seen >= rank {
                return bucket_ceiling(i);
            }
        }
        bucket_ceiling(HISTOGRAM_BUCKETS - 1)
    }

    /// Median estimate (bucket upper bound).
    pub fn p50(&self) -> u64 {
        self.percentile(0.50)
    }

    /// 99th-percentile estimate (bucket upper bound).
    pub fn p99(&self) -> u64 {
        self.percentile(0.99)
    }

    /// Counts recorded since `earlier` (per-bucket saturating
    /// difference) — the per-run view of a long-lived histogram.
    pub fn since(&self, earlier: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        for (b, e) in out.buckets.iter_mut().zip(&earlier.buckets) {
            *b = b.saturating_sub(*e);
        }
        out.sum = self.sum.saturating_sub(earlier.sum);
        out
    }

    /// Combine two snapshots (per-bucket sum), e.g. to aggregate the
    /// wait histograms of every stripe of one object.
    pub fn merge(&self, other: &HistogramSnapshot) -> HistogramSnapshot {
        let mut out = *self;
        for (b, o) in out.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        out.sum += other.sum;
        out
    }
}

/// Identifies the lock site contention is attributed to: a boosted
/// object, optionally narrowed to one key stripe of its lock table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct LockLabel {
    /// The boosted object (e.g. `"skiplist"`, `"heap"`).
    pub object: &'static str,
    /// Key stripe within the object's [`crate::locks::KeyLockMap`], if
    /// the object uses per-key locking.
    pub stripe: Option<usize>,
}

impl LockLabel {
    /// A label for a whole object (coarse or RW lock disciplines).
    pub fn object(object: &'static str) -> Self {
        LockLabel {
            object,
            stripe: None,
        }
    }

    /// A label for one key stripe of an object's lock table.
    pub fn stripe(object: &'static str, stripe: usize) -> Self {
        LockLabel {
            object,
            stripe: Some(stripe),
        }
    }
}

impl fmt::Display for LockLabel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.stripe {
            Some(s) => write!(f, "{}/s{}", self.object, s),
            None => write!(f, "{}", self.object),
        }
    }
}

/// Shared contention counters for one lock site (one abstract lock, or
/// one stripe of a key-lock table). All updates are relaxed atomics.
#[derive(Debug)]
pub struct LockSiteStats {
    label: LockLabel,
    acquisitions: AtomicU64,
    contended: AtomicU64,
    timeouts: AtomicU64,
    wait_hist: LatencyHistogram,
}

impl LockSiteStats {
    /// Fresh counters for `label`.
    pub fn new(label: LockLabel) -> Self {
        LockSiteStats {
            label,
            acquisitions: AtomicU64::new(0),
            contended: AtomicU64::new(0),
            timeouts: AtomicU64::new(0),
            wait_hist: LatencyHistogram::new(),
        }
    }

    /// The site's label.
    pub fn label(&self) -> LockLabel {
        self.label
    }

    /// Record a successful acquisition that waited `wait`;
    /// `contended` is true when another transaction held the lock at
    /// any point during the attempt. Only contended waits enter the
    /// histogram — uncontended acquisitions wait ~0 by definition, and
    /// keeping them out leaves the hot path at a single relaxed
    /// `fetch_add` (the <5% overhead budget) while making the
    /// percentiles mean "given that you waited, for how long".
    #[inline]
    pub fn record_acquired(&self, wait: Duration, contended: bool) {
        self.acquisitions.fetch_add(1, Ordering::Relaxed);
        if contended {
            self.contended.fetch_add(1, Ordering::Relaxed);
            self.wait_hist.record_duration(wait);
        }
    }

    /// Record an acquisition that timed out after waiting `wait` (the
    /// full timeout window) — the deadlock-recovery abort path.
    #[inline]
    pub fn record_timeout(&self, wait: Duration) {
        self.timeouts.fetch_add(1, Ordering::Relaxed);
        self.wait_hist.record_duration(wait);
    }

    /// Point-in-time copy of the counters.
    pub fn snapshot(&self) -> LockSiteSnapshot {
        LockSiteSnapshot {
            label: self.label,
            acquisitions: self.acquisitions.load(Ordering::Relaxed),
            contended: self.contended.load(Ordering::Relaxed),
            timeouts: self.timeouts.load(Ordering::Relaxed),
            wait: self.wait_hist.snapshot(),
        }
    }
}

/// A point-in-time copy of one [`LockSiteStats`].
#[derive(Debug, Clone)]
pub struct LockSiteSnapshot {
    /// Which site these counters describe.
    pub label: LockLabel,
    /// Successful acquisitions (contended or not).
    pub acquisitions: u64,
    /// Acquisitions that found the lock held and had to wait.
    pub contended: u64,
    /// Acquisitions that timed out (each one aborts a transaction).
    pub timeouts: u64,
    /// Wait-time histogram (nanoseconds) of contended acquisitions and
    /// timed-out waits; uncontended acquisitions (wait ~0) are counted
    /// in `acquisitions` but not recorded here.
    pub wait: HistogramSnapshot,
}

impl LockSiteSnapshot {
    /// Counters accumulated since `earlier` (same site).
    pub fn since(&self, earlier: &LockSiteSnapshot) -> LockSiteSnapshot {
        debug_assert_eq!(self.label, earlier.label, "diffing unrelated sites");
        LockSiteSnapshot {
            label: self.label,
            acquisitions: self.acquisitions.saturating_sub(earlier.acquisitions),
            contended: self.contended.saturating_sub(earlier.contended),
            timeouts: self.timeouts.saturating_sub(earlier.timeouts),
            wait: self.wait.since(&earlier.wait),
        }
    }
}

/// The set of lock sites participating in one measured run.
///
/// Boosted objects built with a `labeled`/`with_registry` constructor
/// register their lock sites here; the benchmark harness snapshots the
/// registry around a run and attributes waits and timeouts per object.
#[derive(Debug, Default)]
pub struct ContentionRegistry {
    sites: Mutex<Vec<Arc<LockSiteStats>>>,
}

impl ContentionRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        ContentionRegistry::default()
    }

    /// Create and track a new lock site. Called at object construction
    /// time, never on the transactional hot path.
    pub fn register(&self, label: LockLabel) -> Arc<LockSiteStats> {
        let site = Arc::new(LockSiteStats::new(label));
        self.sites.lock().push(Arc::clone(&site));
        site
    }

    /// Snapshot every registered site.
    pub fn snapshot(&self) -> ContentionSnapshot {
        ContentionSnapshot {
            sites: self.sites.lock().iter().map(|s| s.snapshot()).collect(),
        }
    }
}

/// A point-in-time copy of every site in a [`ContentionRegistry`].
#[derive(Debug, Clone, Default)]
pub struct ContentionSnapshot {
    /// Per-site snapshots, in registration order.
    pub sites: Vec<LockSiteSnapshot>,
}

impl ContentionSnapshot {
    /// Counters accumulated since `earlier`. Sites registered after
    /// `earlier` was taken are kept whole (their counters started at
    /// zero); registration order makes positional matching exact.
    pub fn since(&self, earlier: &ContentionSnapshot) -> ContentionSnapshot {
        let sites = self
            .sites
            .iter()
            .enumerate()
            .map(|(i, s)| match earlier.sites.get(i) {
                Some(e) => s.since(e),
                None => s.clone(),
            })
            .collect();
        ContentionSnapshot { sites }
    }

    /// All sites' wait histograms merged into one.
    pub fn wait_hist(&self) -> HistogramSnapshot {
        self.sites
            .iter()
            .fold(HistogramSnapshot::default(), |acc, s| acc.merge(&s.wait))
    }

    /// Timeout-aborts charged to each object (stripes of one object
    /// summed), sorted most-blamed first. Objects with zero timeouts
    /// are omitted.
    pub fn timeouts_by_object(&self) -> Vec<(&'static str, u64)> {
        let mut by_object: Vec<(&'static str, u64)> = Vec::new();
        for s in &self.sites {
            if s.timeouts == 0 {
                continue;
            }
            match by_object.iter_mut().find(|(o, _)| *o == s.label.object) {
                Some((_, n)) => *n += s.timeouts,
                None => by_object.push((s.label.object, s.timeouts)),
            }
        }
        by_object.sort_by(|a, b| b.1.cmp(&a.1).then(a.0.cmp(b.0)));
        by_object
    }

    /// Total timeout-aborts across all sites.
    pub fn total_timeouts(&self) -> u64 {
        self.sites.iter().map(|s| s.timeouts).sum()
    }
}

/// Durability (write-ahead-log) observability: append/fsync latency
/// histograms plus throughput counters, fed by whichever thread leads
/// a group-commit flush. Like every other surface in this module, all updates are
/// relaxed atomics — cheap enough to live on the commit path.
#[derive(Debug, Default)]
pub struct DurabilityMetrics {
    /// Latency of one append to the active segment (a leader's whole
    /// run of commit records).
    pub append_hist: LatencyHistogram,
    /// Latency of one batched fsync (the group-commit stall).
    pub fsync_hist: LatencyHistogram,
    records: AtomicU64,
    batches: AtomicU64,
    bytes: AtomicU64,
    segments_rolled: AtomicU64,
    wal_errors: AtomicU64,
}

impl DurabilityMetrics {
    /// Fresh, all-zero metrics.
    pub fn new() -> Self {
        DurabilityMetrics::default()
    }

    /// Record one append of `records` commit records, `bytes` encoded
    /// bytes in all: one latency sample per write, while `records`
    /// stays a count of records.
    #[inline]
    pub fn record_append(&self, records: u64, bytes: u64, latency: Duration) {
        self.records.fetch_add(records, Ordering::Relaxed);
        self.bytes.fetch_add(bytes, Ordering::Relaxed);
        self.append_hist.record_duration(latency);
    }

    /// Record one group-commit batch made durable by a single fsync.
    #[inline]
    pub fn record_batch(&self, latency: Duration) {
        self.batches.fetch_add(1, Ordering::Relaxed);
        self.fsync_hist.record_duration(latency);
    }

    /// Record a segment roll (the active segment hit its size cap).
    #[inline]
    pub fn record_segment_roll(&self) {
        self.segments_rolled.fetch_add(1, Ordering::Relaxed);
    }

    /// Record a WAL storage error (the commit stays visible in memory;
    /// the error is surfaced through stats rather than un-committing).
    #[inline]
    pub fn record_error(&self) {
        self.wal_errors.fetch_add(1, Ordering::Relaxed);
    }

    /// Point-in-time copy of the counters and histograms.
    pub fn snapshot(&self) -> DurabilitySnapshot {
        DurabilitySnapshot {
            records: self.records.load(Ordering::Relaxed),
            batches: self.batches.load(Ordering::Relaxed),
            bytes: self.bytes.load(Ordering::Relaxed),
            segments_rolled: self.segments_rolled.load(Ordering::Relaxed),
            wal_errors: self.wal_errors.load(Ordering::Relaxed),
            append: self.append_hist.snapshot(),
            fsync: self.fsync_hist.snapshot(),
        }
    }
}

/// A point-in-time copy of [`DurabilityMetrics`].
#[derive(Debug, Clone)]
pub struct DurabilitySnapshot {
    /// Commit records appended.
    pub records: u64,
    /// Group-commit batches fsynced.
    pub batches: u64,
    /// Encoded record bytes appended.
    pub bytes: u64,
    /// Segment rolls.
    pub segments_rolled: u64,
    /// Storage errors on the append/fsync path.
    pub wal_errors: u64,
    /// Append-latency histogram (nanoseconds).
    pub append: HistogramSnapshot,
    /// Fsync-latency histogram (nanoseconds).
    pub fsync: HistogramSnapshot,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_boundaries_are_powers_of_two() {
        // Values on either side of each power of two land in the
        // expected bucket.
        assert_eq!(bucket_of(0), 0);
        assert_eq!(bucket_of(1), 0);
        assert_eq!(bucket_of(2), 1);
        assert_eq!(bucket_of(3), 1);
        assert_eq!(bucket_of(4), 2);
        assert_eq!(bucket_of(7), 2);
        assert_eq!(bucket_of(8), 3);
        assert_eq!(bucket_of(1023), 9);
        assert_eq!(bucket_of(1024), 10);
        assert_eq!(bucket_of(u64::MAX), 63);
        for i in 0..63 {
            // The ceiling of bucket i is the last value before bucket
            // i+1 starts.
            assert_eq!(bucket_of(bucket_ceiling(i)), i);
            assert_eq!(bucket_of(bucket_ceiling(i) + 1), i + 1);
        }
        assert_eq!(bucket_ceiling(63), u64::MAX);
    }

    #[test]
    fn percentiles_walk_the_buckets() {
        let h = LatencyHistogram::new();
        // 90 values of ~100ns, 9 of ~10_000ns, 1 of ~1_000_000ns.
        for _ in 0..90 {
            h.record(100);
        }
        for _ in 0..9 {
            h.record(10_000);
        }
        h.record(1_000_000);
        let s = h.snapshot();
        assert_eq!(s.count(), 100);
        assert_eq!(s.p50(), bucket_ceiling(bucket_of(100)));
        assert_eq!(s.p99(), bucket_ceiling(bucket_of(10_000)));
        assert_eq!(s.percentile(1.0), bucket_ceiling(bucket_of(1_000_000)));
        assert_eq!(s.mean(), (90 * 100 + 9 * 10_000 + 1_000_000) / 100);
    }

    #[test]
    fn empty_histogram_reports_zero() {
        let s = LatencyHistogram::new().snapshot();
        assert_eq!(s.count(), 0);
        assert_eq!(s.p50(), 0);
        assert_eq!(s.p99(), 0);
        assert_eq!(s.mean(), 0);
    }

    #[test]
    fn snapshot_since_and_merge() {
        let h = LatencyHistogram::new();
        h.record(5);
        let before = h.snapshot();
        h.record(5);
        h.record(700);
        let after = h.snapshot();
        let delta = after.since(&before);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum, 705);

        let merged = delta.merge(&before);
        assert_eq!(merged, after);
    }

    #[test]
    fn concurrent_recording_loses_nothing() {
        let h = Arc::new(LatencyHistogram::new());
        let threads = 8;
        let per_thread = 10_000u64;
        std::thread::scope(|s| {
            for t in 0..threads {
                let h = Arc::clone(&h);
                s.spawn(move || {
                    for i in 0..per_thread {
                        // Spread across many buckets.
                        h.record((i << (t % 8)) | 1);
                    }
                });
            }
        });
        assert_eq!(h.snapshot().count(), threads as u64 * per_thread);
    }

    #[test]
    fn registry_attributes_timeouts_per_object() {
        let reg = ContentionRegistry::new();
        let a0 = reg.register(LockLabel::stripe("set", 0));
        let a1 = reg.register(LockLabel::stripe("set", 1));
        let b = reg.register(LockLabel::object("heap"));

        let before = reg.snapshot();
        a0.record_acquired(Duration::from_nanos(50), false);
        a0.record_timeout(Duration::from_micros(100));
        a1.record_timeout(Duration::from_micros(100));
        a1.record_timeout(Duration::from_micros(100));
        b.record_acquired(Duration::from_micros(3), true);
        let delta = reg.snapshot().since(&before);

        assert_eq!(delta.total_timeouts(), 3);
        assert_eq!(delta.timeouts_by_object(), vec![("set", 3)]);
        // 3 timeouts + 1 contended acquisition; a0's uncontended
        // acquisition stays out of the wait histogram.
        assert_eq!(delta.wait_hist().count(), 4);
        assert_eq!(delta.sites[0].label, LockLabel::stripe("set", 0));
        assert_eq!(delta.sites[0].acquisitions, 1);
        assert_eq!(delta.sites[0].contended, 0);
        assert_eq!(delta.sites[2].contended, 1);
    }

    #[test]
    fn since_keeps_sites_registered_later() {
        let reg = ContentionRegistry::new();
        reg.register(LockLabel::object("early"));
        let before = reg.snapshot();
        let late = reg.register(LockLabel::object("late"));
        late.record_timeout(Duration::from_micros(1));
        let delta = reg.snapshot().since(&before);
        assert_eq!(delta.timeouts_by_object(), vec![("late", 1)]);
    }

    #[test]
    fn labels_display_compactly() {
        assert_eq!(LockLabel::object("heap").to_string(), "heap");
        assert_eq!(LockLabel::stripe("set", 17).to_string(), "set/s17");
    }
}
