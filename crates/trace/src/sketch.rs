//! The workspace's one quantile structure: a deterministic, mergeable
//! log-bucket sketch (HDR-histogram style).
//!
//! Every power-of-two octave between `2^-20` and `2^40` is split into
//! [`SUB_BUCKETS`] linear sub-buckets, so any reported quantile is within
//! `1/32` (≈ 3.1 %) of the exact nearest-rank value — for dollar costs down
//! to a micro-dollar and latencies down to a fraction of a microsecond
//! alike. Buckets are `(lower, upper]` — a value exactly on an edge belongs
//! to the bucket it closes — which makes every integer up to 64 its own
//! bucket edge (small integer latencies are exact) and lets Prometheus
//! `le="2^k"` lines read straight off the counters. Zero, negative and
//! sub-`2^-20` values share one underflow bucket; values above `2^40` share
//! one open-ended top bucket.
//!
//! Sketches merge by counter addition, so a merged sketch equals the sketch
//! of the concatenated stream and per-interval sketches (the SLO windows)
//! fold into whole-window quantiles without keeping samples.

use serde::{Deserialize, Serialize};

/// Linear sub-buckets per octave; bounds the relative error at `1/32`.
pub const SUB_BUCKETS: usize = 1 << SUB_BITS;
const SUB_BITS: u32 = 5;
const MIN_EXP: i32 = -20;
const MAX_EXP: i32 = 40;
const OCTAVES: usize = (MAX_EXP - MIN_EXP) as usize;
/// Counter slots of a sketch: the underflow bucket, every sub-bucket of
/// every octave, and the open-ended top bucket.
const BUCKETS: usize = OCTAVES * SUB_BUCKETS + 2;

fn pow2(exp: i32) -> f64 {
    f64::from_bits(((exp + 1023) as u64) << 52)
}

/// The bucket a (non-NaN) value counts into.
fn bucket_index(value: f64) -> usize {
    if value.is_nan() || value <= pow2(MIN_EXP) {
        return 0;
    }
    if value > pow2(MAX_EXP) {
        return BUCKETS - 1;
    }
    // The float just below `value` lies in `[edge(j), edge(j+1))`, so
    // `value` itself lies in `(edge(j), edge(j+1)]`: bucket `j + 1`.
    let bits = value.to_bits() - 1;
    let exp = (bits >> 52) as i32 - 1023;
    let sub = ((bits >> (52 - SUB_BITS)) as usize) & (SUB_BUCKETS - 1);
    (exp - MIN_EXP) as usize * SUB_BUCKETS + sub + 1
}

/// Inclusive upper edge of bucket `index` — its deterministic
/// representative value. `+∞` for the top bucket.
fn bucket_upper(index: usize) -> f64 {
    if index >= BUCKETS - 1 {
        return f64::INFINITY;
    }
    let octave = (index / SUB_BUCKETS) as i32;
    let sub = (index % SUB_BUCKETS) as f64;
    pow2(MIN_EXP + octave) * (1.0 + sub / SUB_BUCKETS as f64)
}

/// A deterministic, mergeable quantile sketch over `f64` observations
/// (integer microseconds and nanoseconds are observed as `f64`).
#[derive(Debug, Clone)]
pub struct QuantileSketch {
    /// A boxed slice, not a `Vec`: the sketch is 48 bytes, so it shares one
    /// cache line with the counters its owner bumps next to it.
    counts: Box<[u64]>,
    count: u64,
    sum: f64,
    min: f64,
    max: f64,
}

impl Default for QuantileSketch {
    fn default() -> Self {
        QuantileSketch::new()
    }
}

impl QuantileSketch {
    pub fn new() -> QuantileSketch {
        QuantileSketch {
            counts: vec![0; BUCKETS].into_boxed_slice(),
            count: 0,
            sum: 0.0,
            min: f64::INFINITY,
            max: f64::NEG_INFINITY,
        }
    }

    /// Record one observation. NaN is rejected (returns `false`) instead of
    /// landing in a bucket and corrupting `sum`.
    pub fn observe(&mut self, value: f64) -> bool {
        if value.is_nan() {
            return false;
        }
        self.counts[bucket_index(value)] += 1;
        self.count += 1;
        self.sum += value;
        self.min = self.min.min(value);
        self.max = self.max.max(value);
        true
    }

    pub fn count(&self) -> u64 {
        self.count
    }

    pub fn sum(&self) -> f64 {
        self.sum
    }

    pub fn mean(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    /// The `q`-quantile (`0.0..=1.0`) by nearest rank: the upper edge of
    /// the bucket holding rank `ceil(q·count)`, clamped to the observed
    /// `[min, max]`. Ranks 1 and `count` are the observed minimum and
    /// maximum exactly. Deterministic — the same counters always yield the
    /// same value — so merged sketches agree with a sketch built from the
    /// concatenated stream. Returns `None` on an empty sketch or `q`
    /// outside `[0, 1]` — including NaN, spelled out so a refactor of the
    /// range check cannot start treating NaN as a valid rank.
    pub fn quantile(&self, q: f64) -> Option<f64> {
        if self.count == 0 || q.is_nan() || !(0.0..=1.0).contains(&q) {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        if rank == 1 {
            return Some(self.min);
        }
        if rank == self.count {
            return Some(self.max);
        }
        let mut cum = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            cum += c;
            if cum >= rank {
                return Some(bucket_upper(i).clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Fold `other` in: counter addition, so merge order is irrelevant and
    /// the result equals a sketch of the concatenated observations.
    pub fn merge(&mut self, other: &QuantileSketch) {
        for (a, b) in self.counts.iter_mut().zip(other.counts.iter()) {
            *a += b;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Forget every observation (window rotation reuses the allocation).
    pub fn clear(&mut self) {
        self.counts.fill(0);
        self.count = 0;
        self.sum = 0.0;
        self.min = f64::INFINITY;
        self.max = f64::NEG_INFINITY;
    }

    /// Serializable summary with the counters folded to power-of-two
    /// edges: one entry per non-empty octave, `upper` its inclusive upper
    /// bound. The top bucket exports `f64::MAX` (JSON has no +Inf literal).
    pub fn snapshot(&self) -> SketchSnapshot {
        let mut buckets: Vec<BucketSnapshot> = Vec::new();
        for (i, &c) in self.counts.iter().enumerate().filter(|(_, &c)| c > 0) {
            let upper = if i == BUCKETS - 1 {
                f64::MAX
            } else {
                // Bucket 0 closes at 2^MIN_EXP; buckets `o*32+1 ..= (o+1)*32`
                // close octave `o` at 2^(MIN_EXP+o+1).
                pow2(MIN_EXP + i.div_ceil(SUB_BUCKETS) as i32)
            };
            match buckets.last_mut() {
                Some(last) if last.upper == upper => last.count += c,
                _ => buckets.push(BucketSnapshot { upper, count: c }),
            }
        }
        SketchSnapshot {
            count: self.count,
            sum: self.sum,
            min: if self.count == 0 { 0.0 } else { self.min },
            max: if self.count == 0 { 0.0 } else { self.max },
            mean: self.mean(),
            buckets,
        }
    }
}

/// Serializable form of one sketch (see [`QuantileSketch::snapshot`]).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct SketchSnapshot {
    pub count: u64,
    pub sum: f64,
    pub min: f64,
    pub max: f64,
    pub mean: f64,
    pub buckets: Vec<BucketSnapshot>,
}

#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BucketSnapshot {
    pub upper: f64,
    pub count: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sketch_of(values: impl IntoIterator<Item = f64>) -> QuantileSketch {
        let mut s = QuantileSketch::new();
        for v in values {
            assert!(s.observe(v));
        }
        s
    }

    /// splitmix64 — a seeded stream without a dev-dependency.
    fn stream(mut state: u64) -> impl FnMut() -> u64 {
        move || {
            state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
            z ^ (z >> 31)
        }
    }

    /// Observations in the bucket whose inclusive upper edge is `upper`
    /// (`f64::INFINITY` addresses the top bucket).
    fn count_at(s: &QuantileSketch, upper: f64) -> u64 {
        let i = bucket_index(upper);
        assert_eq!(bucket_upper(i), upper, "{upper} is not a bucket edge");
        s.counts[i]
    }

    fn exact_nearest_rank(sorted: &[f64], q: f64) -> f64 {
        let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
        sorted[rank - 1]
    }

    #[test]
    fn quantile_estimates_respect_bounds_and_order() {
        // 100 observations spread across two decades: 90 in (1e-3, 1e-2],
        // 10 in (1e-2, 1e-1].
        let s = sketch_of(
            (0..90)
                .map(|i| 2e-3 + i as f64 * 1e-5)
                .chain((0..10).map(|i| 2e-2 + i as f64 * 1e-4)),
        );
        assert_eq!(s.quantile(-0.1), None);
        assert_eq!(s.quantile(1.5), None);
        let p0 = s.quantile(0.0).expect("some");
        let p50 = s.quantile(0.5).expect("some");
        let p95 = s.quantile(0.95).expect("some");
        let p100 = s.quantile(1.0).expect("some");
        assert_eq!(p0, 2e-3, "q=0 is the observed min");
        assert!((p100 - (2e-2 + 9.0 * 1e-4)).abs() < 1e-12, "q=1 is the max");
        assert!(p0 <= p50 && p50 <= p95 && p95 <= p100, "monotone in q");
        assert!(p50 > 1e-3 && p50 <= 1e-2, "p50={p50}");
        assert!(p95 > 1e-2 && p95 <= 1e-1, "p95={p95}");
        assert_eq!(QuantileSketch::new().quantile(0.5), None, "empty is None");
    }

    #[test]
    fn quantile_rejects_nan_rank_and_observe_rejects_nan_values() {
        let mut s = sketch_of([1.0]);
        assert_eq!(s.quantile(f64::NAN), None, "NaN q must not pick a bucket");
        assert_eq!(s.quantile(0.5), Some(1.0), "valid q still works");
        assert!(!s.observe(f64::NAN));
        assert_eq!(s.count(), 1, "NaN must not be counted");
        assert_eq!(s.sum(), 1.0, "NaN must not corrupt sum");
    }

    #[test]
    fn quantile_single_bucket_stays_within_observed_range() {
        // All mass in one sub-bucket: every quantile lands in [min, max]
        // with the endpoints exact.
        let s = sketch_of([3.00e-3, 3.01e-3, 3.02e-3]);
        assert_eq!(s.quantile(0.0), Some(3.00e-3));
        assert_eq!(s.quantile(1.0), Some(3.02e-3));
        for q in [0.25, 0.5, 0.75, 0.95] {
            let est = s.quantile(q).expect("some");
            assert!((3.00e-3..=3.02e-3).contains(&est), "q={q} escaped: {est}");
        }
    }

    #[test]
    fn quantile_all_mass_in_top_bucket() {
        // Observations above 2^40 have no upper edge; the estimate falls
        // back to the observed max and stays finite and within [min, max].
        let s = sketch_of([5e12, 6e12, 7e12, 8e12]);
        assert_eq!(count_at(&s, f64::INFINITY), 4);
        assert_eq!(s.quantile(0.0), Some(5e12));
        assert_eq!(s.quantile(1.0), Some(8e12));
        for q in [0.5, 0.7] {
            let est = s.quantile(q).expect("some");
            assert!(est.is_finite());
            assert!((5e12..=8e12).contains(&est), "q={q} escaped: {est}");
        }
        // Outliers clamp at the top instead of indexing out of range.
        let s = sketch_of([u64::MAX as f64, 5.0]);
        assert_eq!(s.count(), 2);
        assert!(s.quantile(0.99).expect("some") >= pow2(MAX_EXP));
    }

    #[test]
    fn values_exactly_on_bucket_edges() {
        // A value equal to an edge lands in THAT bucket (edges are
        // inclusive upper limits); one ulp above rolls into the next.
        let mut s = QuantileSketch::new();
        let edges: Vec<f64> = (MIN_EXP..=MAX_EXP).map(pow2).collect();
        for &e in &edges {
            s.observe(e);
        }
        for &e in &edges {
            assert_eq!(count_at(&s, e), 1, "value {e} must land in its own bucket");
        }
        assert_eq!(count_at(&s, f64::INFINITY), 0);
        s.observe(f64::from_bits(1024f64.to_bits() + 1));
        assert_eq!(count_at(&s, 1024.0), 1);
        assert_eq!(
            count_at(&s, 1024.0 + 32.0),
            1,
            "one ulp above 1024 rolls over"
        );
        s.observe(pow2(MAX_EXP) * 1.0001);
        assert_eq!(count_at(&s, f64::INFINITY), 1);
        // Zero and negatives share the underflow bucket; sub-µs values get
        // fractional buckets of their own, not a catch-all.
        let s = sketch_of([0.0, -3.0, 0.25]);
        assert_eq!(count_at(&s, pow2(MIN_EXP)), 2);
        assert_eq!(count_at(&s, 0.25), 1);
        // Integers up to 64 are their own edges: small latencies are exact.
        for n in 1..=64u32 {
            assert_eq!(bucket_upper(bucket_index(n as f64)), n as f64);
        }
        // Power-of-two snapshot edges: cumulative, inclusive.
        let snap = sketch_of([0.5, 2.0, 2.0, 3.0]).snapshot();
        let folded: Vec<(f64, u64)> = snap.buckets.iter().map(|b| (b.upper, b.count)).collect();
        assert_eq!(folded, vec![(0.5, 1), (2.0, 2), (4.0, 1)]);
    }

    #[test]
    fn merge_equals_concatenated_stream() {
        let mut a = QuantileSketch::new();
        let mut b = QuantileSketch::new();
        let mut both = QuantileSketch::new();
        for v in 0..500u64 {
            a.observe((v * 3 + 1) as f64);
            both.observe((v * 3 + 1) as f64);
            b.observe((v * 7 + 2) as f64 * 1e-4);
            both.observe((v * 7 + 2) as f64 * 1e-4);
        }
        a.merge(&b);
        assert_eq!(a.count(), both.count());
        assert!((a.sum() - both.sum()).abs() < 1e-6);
        for q in [0.0, 0.1, 0.5, 0.9, 0.99, 1.0] {
            assert_eq!(a.quantile(q), both.quantile(q), "q={q}");
        }
        a.clear();
        assert_eq!(a.quantile(0.5), None, "clear forgets everything");
    }

    #[test]
    fn quantiles_are_within_one_thirty_second_of_exact_nearest_rank() {
        let mut next = stream(42);
        // f64: log-uniform dollar costs over 1e-6 .. 1e3.
        let mut costs: Vec<f64> = (0..5000)
            .map(|_| 10f64.powf(-6.0 + 9.0 * (next() >> 11) as f64 / (1u64 << 53) as f64))
            .collect();
        // u64: microsecond latencies with a heavy tail.
        let mut lats: Vec<f64> = (0..5000)
            .map(|_| {
                let r = next();
                ((r % 2000)
                    + if r.is_multiple_of(50) {
                        (r >> 20) % 5_000_000
                    } else {
                        0
                    }) as f64
            })
            .collect();
        for data in [&mut costs, &mut lats] {
            let s = sketch_of(data.iter().copied());
            data.sort_by(f64::total_cmp);
            for q in [0.0, 0.01, 0.25, 0.5, 0.75, 0.9, 0.95, 0.99, 0.999, 1.0] {
                let exact = exact_nearest_rank(data, q);
                let got = s.quantile(q).expect("some");
                assert!(
                    (got - exact).abs() <= exact.abs() / SUB_BUCKETS as f64 + 1e-12,
                    "q={q}: sketch {got} vs exact {exact}"
                );
            }
        }
    }
}
