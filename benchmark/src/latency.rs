//! Exact latency statistics over raw samples.
//!
//! Every reported quantile comes from sorting the samples themselves.
//! `obs::LatencyHistogram` is never used here: its power-of-two
//! buckets are what made the old baselines report `p50 == p99`.

/// One completed script: when its reply arrived (µs since the run's
/// epoch) and how long it took (ns, saturating at ~4.29 s).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Sample {
    pub done_us: u32,
    pub lat_ns: u32,
}

/// Median of an ascending slice (mean of the two middle samples when
/// the count is even); `None` when empty.
pub fn median(sorted: &[u64]) -> Option<f64> {
    let n = sorted.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(sorted[n / 2] as f64),
        _ => Some((sorted[n / 2 - 1] as f64 + sorted[n / 2] as f64) / 2.0),
    }
}

/// Median of unsorted floats; `None` when empty.
pub fn median_f64(values: &[f64]) -> Option<f64> {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    match n {
        0 => None,
        _ if n % 2 == 1 => Some(v[n / 2]),
        _ => Some((v[n / 2 - 1] + v[n / 2]) / 2.0),
    }
}

/// The `p`-quantile (nearest rank) of an ascending slice, lowered as
/// far as needed so that at least `beyond` samples lie above it. A
/// quantile with fewer samples beyond it is set by a handful of
/// outliers and does not repeat. Returns the quantile actually used
/// and its value; `None` when the slice has no rank with `beyond`
/// samples above it.
pub fn percentile_with_beyond(sorted: &[u64], p: f64, beyond: usize) -> Option<(f64, u64)> {
    let n = sorted.len();
    if n <= beyond {
        return None;
    }
    let wanted = ((p * n as f64).ceil() as usize).clamp(1, n);
    let rank = wanted.min(n - beyond);
    Some((rank as f64 / n as f64, sorted[rank - 1]))
}

/// Cut the window at `bounds_us` (slice `i` is `[bounds[i],
/// bounds[i+1])`, µs since the epoch) and give each slice's
/// `p`-quantile with at least `beyond` samples above it, as
/// [`percentile_with_beyond`] does. Samples outside the bounds are
/// ignored; a slice too thin for any such quantile is left out.
pub fn slice_tails(
    samples: &[Sample],
    bounds_us: &[u64],
    p: f64,
    beyond: usize,
) -> Vec<(f64, u64)> {
    let slices = bounds_us.len().saturating_sub(1);
    let mut per_slice: Vec<Vec<u64>> = vec![Vec::new(); slices];
    for s in samples {
        let done = u64::from(s.done_us);
        // The first bound past `done` closes its slice.
        let after = bounds_us.partition_point(|b| *b <= done);
        if (1..=slices).contains(&after) {
            per_slice[after - 1].push(u64::from(s.lat_ns));
        }
    }
    per_slice
        .iter_mut()
        .filter_map(|lat| {
            lat.sort_unstable();
            percentile_with_beyond(lat, p, beyond)
        })
        .collect()
}

/// First and third quartile as Python's
/// `statistics.quantiles(values, n=4)` gives them (exclusive method),
/// so the spread this crate reports is the one the acceptance check
/// computes. Needs at least two values.
pub fn quartiles(values: &[f64]) -> Option<(f64, f64)> {
    let n = values.len();
    if n < 2 {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let at = |i: usize| {
        // Cut point i of 4: position i*(n+1)/4 in 1-based ranks,
        // clamped to the data and linearly interpolated.
        let j = (i * (n + 1) / 4).clamp(1, n - 1);
        let delta = (i * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta
    };
    Some((at(1), at(3)))
}

/// Interquartile range as a share of the median — the run-to-run
/// spread. `None` with fewer than two values or a zero median.
pub fn spread(values: &[f64]) -> Option<f64> {
    let (q1, q3) = quartiles(values)?;
    let med = median_f64(values)?;
    (med != 0.0).then(|| (q3 - q1) / med.abs())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_known_vectors() {
        assert_eq!(median(&[]), None);
        assert_eq!(median(&[7]), Some(7.0));
        assert_eq!(median(&[1, 2, 3, 4]), Some(2.5));
        assert_eq!(median(&[1, 2, 100]), Some(2.0));
        assert_eq!(median_f64(&[3.0, 1.0, 2.0]), Some(2.0));
    }

    #[test]
    fn p99_needs_ten_samples_beyond_it() {
        // 2,000 samples: rank ceil(0.99 * 2000) = 1980 leaves 20 beyond.
        let v: Vec<u64> = (1..=2000).collect();
        assert_eq!(percentile_with_beyond(&v, 0.99, 10), Some((0.99, 1980)));
        // 100 samples: p99 would leave 1 beyond; settle for rank 90.
        let v: Vec<u64> = (1..=100).collect();
        assert_eq!(percentile_with_beyond(&v, 0.99, 10), Some((0.9, 90)));
        // 10 samples: no rank has 10 beyond it.
        let v: Vec<u64> = (1..=10).collect();
        assert_eq!(percentile_with_beyond(&v, 0.99, 10), None);
    }

    #[test]
    fn slice_tails_are_cut_at_the_bounds_and_their_median_ignores_one_bad_slice() {
        // Three slices of unequal length: 1,000 samples in the first,
        // 20 in the second, none in the third.
        let bounds = [5_000_000, 6_000_000, 6_500_000, 7_000_000];
        let mut samples = Vec::new();
        for i in 0..1000u32 {
            samples.push(Sample {
                done_us: 5_000_000 + i * 1000,
                lat_ns: 100 + i,
            });
        }
        for i in 0..20u32 {
            samples.push(Sample {
                done_us: 6_000_000 + i,
                lat_ns: 1 + i,
            });
        }
        // Before the first bound, and at the last one: ignored.
        samples.push(Sample {
            done_us: 4_999_999,
            lat_ns: 9_999_999,
        });
        samples.push(Sample {
            done_us: 7_000_000,
            lat_ns: 9_999_999,
        });
        // Rank 990 of 100..=1099 is 1089; of 20 samples rank 10 is the
        // highest with 10 beyond it; the empty slice has no tail.
        assert_eq!(
            slice_tails(&samples, &bounds, 0.99, 10),
            [(0.99, 1089), (0.5, 10)]
        );

        // Five one-second slices of 2,000 samples, one of them hit by a
        // hiccup: the median of the slice p99s does not move.
        let bounds: Vec<u64> = (0..=5).map(|s| s * 1_000_000).collect();
        let mut samples = Vec::new();
        for slice in 0..5u32 {
            for i in 0..2000u32 {
                let hiccup = slice == 3 && i % 10 == 0;
                samples.push(Sample {
                    done_us: slice * 1_000_000 + i * 500,
                    lat_ns: if hiccup { 5_000_000 } else { 1000 + i },
                });
            }
        }
        let p99s: Vec<f64> = slice_tails(&samples, &bounds, 0.99, 10)
            .iter()
            .map(|(_, ns)| *ns as f64)
            .collect();
        assert_eq!(p99s.len(), 5);
        assert_eq!(p99s[3], 5_000_000.0);
        assert_eq!(median_f64(&p99s), Some(2979.0));
    }

    #[test]
    fn quartiles_match_python_statistics_quantiles() {
        // statistics.quantiles([1..10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), Some((2.75, 8.25)));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]
        assert_eq!(quartiles(&[1.0, 2.0]), Some((0.75, 2.25)));
        assert_eq!(spread(&v), Some(1.0));
        assert_eq!(quartiles(&[1.0]), None);
    }
}
