//! Low-overhead observability: latency histograms and the
//! write-ahead log's counters.
//!
//! * [`LatencyHistogram`] — a fixed-size, lock-free power-of-two-bucket
//!   histogram. All updates are single relaxed `fetch_add`s. The time
//!   transactions spend blocked on abstract locks is one of these, in
//!   [`crate::TxnStats`]: the waiting transaction keeps the time and
//!   its manager records it when the attempt ends.
//! * [`DurabilityMetrics`] — append and fsync latency plus throughput
//!   counters for the write-ahead log.

use std::sync::atomic::{AtomicU64, Ordering};
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
    use std::sync::Arc;

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
    fn snapshot_since() {
        let h = LatencyHistogram::new();
        h.record(5);
        let before = h.snapshot();
        h.record(5);
        h.record(700);
        let delta = h.snapshot().since(&before);
        assert_eq!(delta.count(), 2);
        assert_eq!(delta.sum, 705);
        assert_eq!(delta.p99(), bucket_ceiling(bucket_of(700)));
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
}
