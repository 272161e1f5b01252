//! Medians, quartile spreads and a constant-memory latency histogram.

/// Median of a sample (mean of the middle pair for even counts).
///
/// # Panics
/// Panics on an empty sample: every caller times at least one operation.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of an empty sample");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// [`median`], or 0 for a sample nothing contributed to (a per-layer metric
/// of a layer that took no part).
pub fn median_or_zero(values: &[f64]) -> f64 {
    if values.is_empty() {
        0.0
    } else {
        median(values)
    }
}

/// Percentile levels a tail may be reported at.
const TAIL_LEVELS: [f64; 2] = [0.9, 0.99];

/// The highest level of [`TAIL_LEVELS`] that still leaves at least ten of
/// `samples` beyond it, or `None` when even the lowest does not (the caller
/// then reports the slowest sample). The cap at p99 keeps the metric's
/// meaning fixed while a faster program collects more samples per window.
pub fn tail_level(samples: u64) -> Option<f64> {
    TAIL_LEVELS
        .iter()
        .copied()
        .rfind(|p| samples as f64 * (1.0 - p) >= 10.0 - 1e-9)
}

/// Sub-buckets per power of two: bucket width is 1/128 of the value.
const SUB: u64 = 128;
/// Values below this are counted exactly, one bucket per nanosecond.
const EXACT: u64 = 2 * SUB;
const BUCKETS: usize = (EXACT + (64 - 8) * SUB) as usize;

/// Log-linear histogram of nanosecond latencies. Memory is constant, so a
/// faster program that completes more requests does not grow the
/// benchmark's own footprint (which `peak_rss_mb` would charge to it).
/// Quantiles interpolate inside the bucket, so they keep all their digits.
#[derive(Clone)]
pub struct Histogram {
    counts: Vec<u64>,
    total: u64,
    max: u64,
}

fn bucket_of(v: u64) -> usize {
    if v < EXACT {
        return v as usize;
    }
    let exp = 63 - u64::from(v.leading_zeros());
    let mantissa = (v >> (exp - 7)) & (SUB - 1);
    (EXACT + (exp - 8) * SUB + mantissa) as usize
}

/// Inclusive lower bound and width of a bucket.
fn bucket_range(idx: usize) -> (u64, u64) {
    let idx = idx as u64;
    if idx < EXACT {
        return (idx, 1);
    }
    let exp = (idx - EXACT) / SUB + 8;
    let mantissa = (idx - EXACT) % SUB;
    let width = 1u64 << (exp - 7);
    ((SUB + mantissa) * width, width)
}

impl Histogram {
    pub fn new() -> Histogram {
        Histogram {
            counts: vec![0; BUCKETS],
            total: 0,
            max: 0,
        }
    }

    pub fn record(&mut self, nanos: u64) {
        self.counts[bucket_of(nanos)] += 1;
        self.total += 1;
        self.max = self.max.max(nanos);
    }

    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
        self.total += other.total;
        self.max = self.max.max(other.max);
    }

    pub fn count(&self) -> u64 {
        self.total
    }

    /// The `p`-quantile in nanoseconds (0 for an empty histogram).
    pub fn quantile(&self, p: f64) -> f64 {
        if self.total == 0 {
            return 0.0;
        }
        let rank = p.clamp(0.0, 1.0) * self.total as f64;
        let mut seen = 0u64;
        for (idx, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if (seen + c) as f64 >= rank {
                let (lo, width) = bucket_range(idx);
                let inside = ((rank - seen as f64) / c as f64).clamp(0.0, 1.0);
                return (lo as f64 + inside * width as f64).min(self.max as f64);
            }
            seen += c;
        }
        self.max as f64
    }

    /// The tail the sample supports (see [`tail_level`]): its level and its
    /// value in nanoseconds; the slowest sample at level 1.0 when too few.
    pub fn tail(&self) -> (f64, f64) {
        match tail_level(self.total) {
            Some(p) => (p, self.quantile(p)),
            None => (1.0, self.max as f64),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_of_odd_and_even_samples() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
    }

    #[test]
    fn tail_level_needs_ten_samples_beyond_it() {
        assert_eq!(tail_level(19), None);
        assert_eq!(tail_level(99), None);
        assert_eq!(tail_level(100), Some(0.9));
        assert_eq!(tail_level(999), Some(0.9));
        assert_eq!(tail_level(1000), Some(0.99));
        // Capped: more samples never move the reported level.
        assert_eq!(tail_level(10_000_000), Some(0.99));
    }

    #[test]
    fn buckets_tile_the_range_without_gaps() {
        let mut next = 0u64;
        for idx in 0..BUCKETS {
            let (lo, width) = bucket_range(idx);
            assert_eq!(lo, next, "bucket {idx} starts where the last ended");
            assert_eq!(bucket_of(lo), idx);
            assert_eq!(bucket_of(lo + width - 1), idx);
            next = lo.saturating_add(width);
        }
        assert_eq!(bucket_of(u64::MAX), BUCKETS - 1);
    }

    #[test]
    fn quantiles_are_within_a_bucket_of_exact() {
        let mut h = Histogram::new();
        for v in 1..=100_000u64 {
            h.record(v * 10);
        }
        for p in [0.5, 0.9, 0.99] {
            let exact = p * 1_000_000.0;
            let got = h.quantile(p);
            assert!((got - exact).abs() / exact < 0.01, "p{p}: {got} vs {exact}");
        }
        assert_eq!(h.count(), 100_000);
        assert_eq!(h.max, 1_000_000);
        assert_eq!(h.tail().0, 0.99);
    }

    #[test]
    fn small_samples_report_their_maximum_as_tail() {
        let mut h = Histogram::new();
        for v in [5_000u64, 7_000, 6_000] {
            h.record(v);
        }
        assert_eq!(h.tail(), (1.0, 7_000.0));
    }
}
