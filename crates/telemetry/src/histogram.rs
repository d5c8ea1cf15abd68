//! Log-bucketed latency histogram with percentile summaries.
//!
//! Buckets are geometric with ratio 2^(1/4) (four buckets per doubling),
//! starting at 1µs, which keeps relative quantile error under ~19% across
//! the full range while using a few hundred fixed-size buckets. Everything
//! below 1µs lands in an exact underflow bucket.

/// Number of geometric buckets per power of two.
const BUCKETS_PER_DOUBLING: u32 = 4;
/// Total geometric buckets: covers 1µs .. 2^40µs (~12.7 days).
const NUM_BUCKETS: usize = (40 * BUCKETS_PER_DOUBLING) as usize;

/// A fixed-size, log-bucketed histogram of microsecond durations.
#[derive(Debug, Clone)]
pub struct Histogram {
    /// counts[0] is the underflow bucket (< 1µs); counts[i] for i ≥ 1 is
    /// the geometric bucket with upper bound `bucket_upper_us(i)`.
    counts: Vec<u64>,
    count: u64,
    sum_us: u64,
    min_us: u64,
    max_us: u64,
}

impl Default for Histogram {
    fn default() -> Self {
        Self::new()
    }
}

/// Upper bound (inclusive) in µs for geometric bucket `i ≥ 1`.
fn bucket_upper_us(i: usize) -> u64 {
    let exp = i as f64 / BUCKETS_PER_DOUBLING as f64;
    2f64.powf(exp).ceil() as u64
}

/// Bucket index for a duration in µs. Index 0 is underflow (< 1µs) and
/// `NUM_BUCKETS` is overflow.
fn bucket_index(us: u64) -> usize {
    if us < 1 {
        return 0;
    }
    // First geometric bucket whose upper bound covers `us`. The log2
    // estimate lands within a step or two; ceil-rounding of the bounds
    // makes an exact closed form awkward, so nudge to the tight bucket.
    let approx = ((us as f64).log2() * BUCKETS_PER_DOUBLING as f64).floor() as usize;
    let mut i = approx.clamp(1, NUM_BUCKETS - 1);
    while i > 1 && bucket_upper_us(i - 1) >= us {
        i -= 1;
    }
    while i < NUM_BUCKETS && bucket_upper_us(i) < us {
        i += 1;
    }
    i
}

impl Histogram {
    /// Creates an empty histogram.
    pub fn new() -> Self {
        Histogram {
            counts: vec![0; NUM_BUCKETS + 1],
            count: 0,
            sum_us: 0,
            min_us: u64::MAX,
            max_us: 0,
        }
    }

    /// Records one duration in microseconds.
    pub fn record_us(&mut self, us: u64) {
        let idx = bucket_index(us).min(NUM_BUCKETS);
        self.counts[idx] += 1;
        self.count += 1;
        self.sum_us = self.sum_us.saturating_add(us);
        self.min_us = self.min_us.min(us);
        self.max_us = self.max_us.max(us);
    }

    /// Records one duration given in seconds.
    pub fn record_secs(&mut self, secs: f64) {
        if secs.is_finite() && secs >= 0.0 {
            self.record_us((secs * 1e6).round() as u64);
        }
    }

    /// Number of recorded samples.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all recorded durations in µs (saturating).
    pub fn sum_us(&self) -> u64 {
        self.sum_us
    }

    /// Smallest recorded value in µs (0 when empty).
    pub fn min_us(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min_us
        }
    }

    /// Largest recorded value in µs.
    pub fn max_us(&self) -> u64 {
        self.max_us
    }

    /// Mean recorded value in µs (0 when empty).
    pub fn mean_us(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum_us as f64 / self.count as f64
        }
    }

    /// Value at quantile `q` ∈ [0, 1], linearly interpolated *within* the
    /// bucket containing that rank. The log-bucketed grid is ~19% wide
    /// above 100 ms, so without interpolation a heavily-queued latency
    /// distribution collapses p50 through p99 onto one bucket bound;
    /// spreading the bucket's samples uniformly across its span keeps the
    /// quantiles distinct wherever the rank counts are. Exact min/max are
    /// substituted at the extremes and the result never leaves the
    /// observed range.
    pub fn percentile_us(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        let q = q.clamp(0.0, 1.0);
        // Rank of the q-th sample, 1-based ceil — p50 of 4 samples is the
        // 2nd, p99 of 100 samples the 99th.
        let rank = ((q * self.count as f64).ceil() as u64).max(1);
        let mut seen = 0u64;
        for (i, &c) in self.counts.iter().enumerate() {
            if c == 0 {
                continue;
            }
            if seen.saturating_add(c) >= rank {
                let value = if i == 0 {
                    0 // underflow bucket: < 1µs
                } else if i >= NUM_BUCKETS {
                    self.max_us // overflow: only exact value we have
                } else {
                    // Bucket i covers (upper(i-1), upper(i)]; place the
                    // rank's sample at its uniform position in the span.
                    // Narrow the span to the observed range first, so data
                    // occupying only part of its extreme buckets doesn't
                    // pin every high quantile to the clamp at max_us.
                    let lo = if i == 1 { 1 } else { bucket_upper_us(i - 1) };
                    let hi = bucket_upper_us(i);
                    let lo = lo.max(self.min_us);
                    let hi = hi.min(self.max_us).max(lo);
                    let into = (rank - seen) as f64 / c as f64;
                    lo + ((hi - lo) as f64 * into).round() as u64
                };
                // Never report outside the observed range.
                return value.clamp(self.min_us, self.max_us);
            }
            seen = seen.saturating_add(c);
        }
        self.max_us
    }

    /// Computes the standard p50/p90/p99 summary.
    pub fn summary(&self) -> Summary {
        Summary {
            count: self.count,
            min_us: self.min_us(),
            max_us: self.max_us(),
            mean_us: self.mean_us(),
            p50_us: self.percentile_us(0.50),
            p90_us: self.percentile_us(0.90),
            p99_us: self.percentile_us(0.99),
        }
    }

    /// Clears every sample while keeping the allocated bucket array, so a
    /// slot in a sliding-window ring can be recycled without reallocating.
    pub fn reset(&mut self) {
        self.counts.iter_mut().for_each(|c| *c = 0);
        self.count = 0;
        self.sum_us = 0;
        self.min_us = u64::MAX;
        self.max_us = 0;
    }

    /// Merges another histogram into this one. Counts saturate: a
    /// shard's reply may carry any value.
    pub fn merge(&mut self, other: &Histogram) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a = a.saturating_add(*b);
        }
        self.count = self.count.saturating_add(other.count);
        self.sum_us = self.sum_us.saturating_add(other.sum_us);
        self.min_us = self.min_us.min(other.min_us);
        self.max_us = self.max_us.max(other.max_us);
    }

    /// Serializes to a JSON object with *sparse* bucket encoding —
    /// `{"count":..,"sum_us":..,"min_us":..,"max_us":..,
    ///   "buckets":[[index,count],..]}` — so histograms can cross process
    /// boundaries (shard → router) and be re-merged losslessly with
    /// [`Histogram::merge`]. Only non-empty buckets are listed; the fixed
    /// grid means indices line up across any two histograms.
    pub fn to_json(&self) -> crate::json::JsonValue {
        use crate::json::JsonValue;
        let buckets: Vec<JsonValue> = self
            .counts
            .iter()
            .enumerate()
            .filter(|(_, &c)| c > 0)
            .map(|(i, &c)| JsonValue::Array(vec![JsonValue::from(i), JsonValue::from(c)]))
            .collect();
        JsonValue::object([
            ("count", JsonValue::from(self.count)),
            ("sum_us", JsonValue::from(self.sum_us)),
            ("min_us", JsonValue::from(self.min_us())),
            ("max_us", JsonValue::from(self.max_us)),
            ("buckets", JsonValue::Array(buckets)),
        ])
    }

    /// Reconstructs a histogram from [`Histogram::to_json`] output.
    /// Returns `None` on shape mismatches (missing keys, bucket indices
    /// outside the grid) rather than guessing.
    pub fn from_json(v: &crate::json::JsonValue) -> Option<Histogram> {
        use crate::json::JsonValue;
        let mut h = Histogram::new();
        h.count = v.get("count")?.as_u64()?;
        h.sum_us = v.get("sum_us")?.as_u64()?;
        let min = v.get("min_us")?.as_u64()?;
        h.min_us = if h.count == 0 { u64::MAX } else { min };
        h.max_us = v.get("max_us")?.as_u64()?;
        let JsonValue::Array(buckets) = v.get("buckets")? else {
            return None;
        };
        for pair in buckets {
            let JsonValue::Array(kv) = pair else {
                return None;
            };
            let (idx, c) = match kv.as_slice() {
                [i, c] => (i.as_u64()? as usize, c.as_u64()?),
                _ => return None,
            };
            if idx > NUM_BUCKETS {
                return None;
            }
            h.counts[idx] = c;
        }
        Some(h)
    }
}

/// Percentile summary of a [`Histogram`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Sample count.
    pub count: u64,
    /// Exact minimum, µs.
    pub min_us: u64,
    /// Exact maximum, µs.
    pub max_us: u64,
    /// Exact mean, µs.
    pub mean_us: f64,
    /// 50th percentile (bucket upper bound), µs.
    pub p50_us: u64,
    /// 90th percentile, µs.
    pub p90_us: u64,
    /// 99th percentile, µs.
    pub p99_us: u64,
}

impl Summary {
    /// Formats a duration in µs with an adaptive unit.
    pub fn fmt_us(us: u64) -> String {
        if us >= 1_000_000 {
            format!("{:.3} s", us as f64 / 1e6)
        } else if us >= 1_000 {
            format!("{:.3} ms", us as f64 / 1e3)
        } else {
            format!("{us} µs")
        }
    }
}

impl std::fmt::Display for Summary {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "n={} min={} p50={} p90={} p99={} max={}",
            self.count,
            Summary::fmt_us(self.min_us),
            Summary::fmt_us(self.p50_us),
            Summary::fmt_us(self.p90_us),
            Summary::fmt_us(self.p99_us),
            Summary::fmt_us(self.max_us),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_bounds_are_monotonic_and_cover() {
        let mut prev = 0;
        for i in 1..NUM_BUCKETS {
            let b = bucket_upper_us(i);
            assert!(b >= prev, "bucket {i} bound {b} < previous {prev}");
            prev = b;
        }
        // Four buckets per doubling: bound at i+4 is ~2x bound at i.
        for i in 8..NUM_BUCKETS - 4 {
            let lo = bucket_upper_us(i);
            let hi = bucket_upper_us(i + 4);
            let ratio = hi as f64 / lo as f64;
            assert!((1.8..=2.2).contains(&ratio), "ratio {ratio} at {i}");
        }
    }

    #[test]
    fn bucket_index_respects_bounds() {
        for us in [0u64, 1, 2, 3, 5, 17, 100, 999, 1000, 123_456, 9_999_999] {
            let i = bucket_index(us).min(NUM_BUCKETS);
            if us < 1 {
                assert_eq!(i, 0);
            } else if i < NUM_BUCKETS {
                assert!(bucket_upper_us(i) >= us, "us={us} i={i}");
                if i > 1 {
                    assert!(bucket_upper_us(i - 1) < us, "us={us} i={i} not tight");
                }
            }
        }
    }

    #[test]
    fn empty_histogram_summary_is_zeroed() {
        let h = Histogram::new();
        let s = h.summary();
        assert_eq!(s.count, 0);
        assert_eq!(s.p50_us, 0);
        assert_eq!(s.min_us, 0);
        assert_eq!(s.max_us, 0);
    }

    #[test]
    fn single_sample_percentiles_are_exactish() {
        let mut h = Histogram::new();
        h.record_us(1000);
        let s = h.summary();
        assert_eq!(s.count, 1);
        assert_eq!(s.min_us, 1000);
        assert_eq!(s.max_us, 1000);
        // Clamped to observed range → exact.
        assert_eq!(s.p50_us, 1000);
        assert_eq!(s.p99_us, 1000);
    }

    #[test]
    fn percentiles_order_and_bound_error() {
        let mut h = Histogram::new();
        // 1..=1000 µs uniformly.
        for us in 1..=1000u64 {
            h.record_us(us);
        }
        let s = h.summary();
        assert_eq!(s.count, 1000);
        assert!(s.p50_us <= s.p90_us && s.p90_us <= s.p99_us);
        // Bucket upper bounds overestimate by at most the bucket ratio
        // (2^(1/4) ≈ 1.19) plus integer-ceil slack on small values.
        assert!((450..=650).contains(&s.p50_us), "p50 {}", s.p50_us);
        assert!((850..=1000).contains(&s.p90_us), "p90 {}", s.p90_us);
        assert!((950..=1000).contains(&s.p99_us), "p99 {}", s.p99_us);
    }

    #[test]
    fn merge_equals_combined_recording() {
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for us in [5u64, 50, 500, 5000] {
            a.record_us(us);
            both.record_us(us);
        }
        for us in [7u64, 70, 700, 7000] {
            b.record_us(us);
            both.record_us(us);
        }
        a.merge(&b);
        assert_eq!(a.summary(), both.summary());
    }

    #[test]
    fn merge_preserves_count_sum_and_extremes() {
        // Per-worker histograms of very different magnitudes — merge must
        // keep exact count/sum/min/max bookkeeping, not just bucket counts.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for us in [3u64, 9, 27] {
            a.record_us(us);
        }
        for us in [1_000_000u64, 2_000_000] {
            b.record_us(us);
        }
        let (ca, sa) = (a.count(), a.sum_us());
        a.merge(&b);
        assert_eq!(a.count(), ca + b.count());
        assert_eq!(a.sum_us(), sa + b.sum_us());
        assert_eq!(a.min_us(), 3);
        assert_eq!(a.max_us(), 2_000_000);
    }

    #[test]
    fn merge_aligns_buckets_exactly() {
        // Both histograms use the same fixed bucket grid, so merging must
        // be indistinguishable from recording every sample into one
        // histogram — bucket by bucket, at every quantile, across the whole
        // range including the underflow (0µs) and values near bucket edges.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        let mut both = Histogram::new();
        for i in 0..400u64 {
            let us = i * i; // 0, 1, 4, … crosses many bucket boundaries
            if i % 2 == 0 {
                a.record_us(us);
            } else {
                b.record_us(us);
            }
            both.record_us(us);
        }
        a.merge(&b);
        assert_eq!(a.counts, both.counts, "per-bucket counts must align");
        for q in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 1.0] {
            assert_eq!(
                a.percentile_us(q),
                both.percentile_us(q),
                "quantile {q} diverged after merge"
            );
        }
        assert_eq!(a.summary(), both.summary());
    }

    #[test]
    fn merge_with_empty_is_identity_both_ways() {
        let mut h = Histogram::new();
        for us in [10u64, 100, 1000] {
            h.record_us(us);
        }
        let reference = h.summary();
        h.merge(&Histogram::new());
        assert_eq!(h.summary(), reference, "merging an empty histogram");
        let mut empty = Histogram::new();
        empty.merge(&h);
        assert_eq!(empty.summary(), reference, "merging into an empty one");
        assert_eq!(empty.counts, h.counts);
    }

    #[test]
    fn merge_preserves_overflow_bucket() {
        // Durations beyond the last geometric bucket (≥ 2^40 µs) land in
        // the overflow slot; merge must carry them across.
        let huge = 1u64 << 50;
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        b.record_us(huge);
        b.record_us(7);
        a.merge(&b);
        assert_eq!(a.counts[NUM_BUCKETS], 1);
        assert_eq!(a.max_us(), huge);
        assert_eq!(a.percentile_us(1.0), huge);
    }

    #[test]
    fn reset_returns_to_the_empty_state() {
        let mut h = Histogram::new();
        for us in [3u64, 3000, 3_000_000] {
            h.record_us(us);
        }
        h.reset();
        assert_eq!(h.summary(), Histogram::new().summary());
        assert_eq!(h.counts, Histogram::new().counts);
        // A reset histogram records fresh samples exactly like a new one.
        h.record_us(42);
        assert_eq!((h.count(), h.min_us(), h.max_us()), (1, 42, 42));
    }

    #[test]
    fn high_range_quantiles_do_not_collapse() {
        // Regression for the 256-connection bench artifact where
        // p50=p90=p95=p99=507935µs: hundreds of queued-request latencies
        // land in one ~19%-wide bucket near 500ms, and bucket-bound
        // reporting made every quantile identical. Interpolation must keep
        // them strictly ordered.
        let mut h = Histogram::new();
        for i in 0..400u64 {
            h.record_us(430_000 + i * 170); // 430ms..498ms: 1-2 buckets
        }
        let p50 = h.percentile_us(0.50);
        let p90 = h.percentile_us(0.90);
        let p99 = h.percentile_us(0.99);
        assert!(p50 < p90 && p90 < p99, "collapsed: {p50} {p90} {p99}");
        // And still inside the observed range.
        assert!(p50 >= h.min_us() && p99 <= h.max_us());
    }

    #[test]
    fn interpolation_tracks_rank_within_one_bucket() {
        // All samples in a single bucket: quantiles should spread across
        // the bucket span proportionally to rank, not snap to one bound.
        let mut h = Histogram::new();
        for _ in 0..100 {
            h.record_us(450_000);
        }
        // Identical samples: clamp to the exact observed value.
        assert_eq!(h.percentile_us(0.5), 450_000);
        assert_eq!(h.percentile_us(0.99), 450_000);
    }

    #[test]
    fn json_round_trip_is_lossless() {
        let mut h = Histogram::new();
        for i in 0..300u64 {
            h.record_us(i * i);
        }
        h.record_us(1u64 << 50); // overflow bucket
        let v = h.to_json();
        let restored = Histogram::from_json(&v).expect("round trip");
        assert_eq!(restored.counts, h.counts);
        assert_eq!(restored.summary(), h.summary());
        // Also survives a text round trip through the parser.
        let reparsed = crate::json::parse(&v.to_string()).unwrap();
        let h2 = Histogram::from_json(&reparsed).expect("text round trip");
        assert_eq!(h2.summary(), h.summary());
    }

    #[test]
    fn json_round_trip_empty_histogram() {
        let h = Histogram::new();
        let restored = Histogram::from_json(&h.to_json()).expect("empty round trip");
        assert_eq!(restored.summary(), h.summary());
        // min sentinel restored so later merges keep working.
        let mut merged = restored;
        merged.record_us(42);
        assert_eq!(merged.min_us(), 42);
    }

    #[test]
    fn merge_saturates_counts_at_u64_max() {
        let mut a = Histogram::new();
        a.record_us(50);
        a.count = u64::MAX;
        a.counts[bucket_index(50)] = u64::MAX;
        let mut b = Histogram::new();
        b.record_us(50);
        b.record_us(5000);
        a.merge(&b);
        assert_eq!(a.count(), u64::MAX);
        assert_eq!(a.counts[bucket_index(50)], u64::MAX);
        // Quantiles over the saturated counts stay in the observed range.
        let p = a.percentile_us(1.0);
        assert!((a.min_us()..=a.max_us()).contains(&p), "{p}");
    }

    #[test]
    fn from_json_rejects_malformed_shapes() {
        use crate::json::{parse, JsonValue};
        assert!(Histogram::from_json(&JsonValue::Null).is_none());
        assert!(Histogram::from_json(&parse(r#"{"count":1}"#).unwrap()).is_none());
        let bad_idx =
            parse(r#"{"count":1,"sum_us":5,"min_us":5,"max_us":5,"buckets":[[99999,1]]}"#).unwrap();
        assert!(Histogram::from_json(&bad_idx).is_none());
    }

    #[test]
    fn merged_json_histograms_equal_merged_originals() {
        // The router path: two shards serialize, the router parses and
        // merges. Result must match merging the live histograms.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for us in [10u64, 400, 90_000, 430_000] {
            a.record_us(us);
        }
        for us in [25u64, 500_000, 1_500_000] {
            b.record_us(us);
        }
        let mut via_json = Histogram::from_json(&a.to_json()).unwrap();
        via_json.merge(&Histogram::from_json(&b.to_json()).unwrap());
        let mut direct = a.clone();
        direct.merge(&b);
        assert_eq!(via_json.counts, direct.counts);
        assert_eq!(via_json.summary(), direct.summary());
    }

    #[test]
    fn record_secs_converts() {
        let mut h = Histogram::new();
        h.record_secs(0.001); // 1ms
        assert_eq!(h.count(), 1);
        assert_eq!(h.min_us(), 1000);
        h.record_secs(f64::NAN); // ignored
        h.record_secs(-1.0); // ignored
        assert_eq!(h.count(), 1);
    }
}
