//! Log-linear (HDR-style) latency histograms with exact associative merge.
//!
//! A [`LatencyHistogram`] buckets non-negative integer values (typically
//! nanoseconds) into log-linear bins: values below 2·2^P are recorded
//! exactly, and each higher octave is split into 2^P linear sub-buckets,
//! bounding the relative quantization error at 2^-P regardless of
//! magnitude. With `P = 5` that is ≈ 3% worst-case error over the full
//! `u64` range, in at most ~1.9k buckets.
//!
//! The crucial property for this workspace is that **merge is exact**:
//! two histograms merge by element-wise bucket addition, which is
//! associative and commutative, so per-shard histograms folded in any
//! order — or a histogram of the concatenated stream recorded whole —
//! produce bit-identical bucket vectors and therefore identical
//! quantiles. That is why this is the workspace's one response-time tail
//! estimator: the DES (`eirs_sim::SimReport`'s tails), the multi-class
//! DES and the serve shards all read their P50/P95/P99 from it, and an
//! empty histogram reports `NaN` in seconds. The `obs_layer` tests
//! property-check associativity, shard-order invariance, and
//! merged-equals-whole against a sorted reference.

/// Sub-bucket precision: each octave splits into `2^PRECISION_BITS`
/// linear bins, giving relative error ≤ `2^-PRECISION_BITS` ≈ 3.1%.
const PRECISION_BITS: u32 = 5;
const SUB_BUCKETS: u64 = 1 << PRECISION_BITS;

/// A mergeable log-linear histogram over `u64` values.
///
/// Buckets grow on demand, so an empty histogram is a few machine words.
/// Equality compares full recorded state (bucket vector, count, sum,
/// min/max); because buckets only grow when a value lands in them, equal
/// contents imply equal vectors.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LatencyHistogram {
    /// Bucket counts, indexed by [`bucket_index`]. The vector always ends
    /// at the highest non-empty bucket.
    buckets: Vec<u64>,
    /// Total recorded observations.
    count: u64,
    /// Exact sum of recorded values (u128: 10^7 observations of 10^11 ns
    /// would overflow u64).
    sum: u128,
    /// Exact minimum recorded value (`u64::MAX` when empty).
    min: u64,
    /// Exact maximum recorded value (0 when empty).
    max: u64,
}

/// The bucket index for value `v`: identity below `2·2^P`, log-linear
/// above.
#[inline]
fn bucket_index(v: u64) -> usize {
    if v < 2 * SUB_BUCKETS {
        v as usize
    } else {
        let msb = 63 - v.leading_zeros();
        let shift = msb - PRECISION_BITS;
        ((shift as u64 * SUB_BUCKETS) + (v >> shift)) as usize
    }
}

/// Inclusive lower bound of bucket `index` (inverse of [`bucket_index`]).
#[inline]
fn bucket_lower(index: usize) -> u64 {
    let index = index as u64;
    if index < 2 * SUB_BUCKETS {
        index
    } else {
        let group = index >> PRECISION_BITS;
        let sub = index & (SUB_BUCKETS - 1);
        (SUB_BUCKETS + sub) << (group - 1)
    }
}

/// Scale for recording seconds as integer ticks (nanosecond resolution).
const SECONDS_SCALE: f64 = 1e9;

impl LatencyHistogram {
    /// An empty histogram.
    pub fn new() -> Self {
        Self {
            buckets: Vec::new(),
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    /// Records one observation of `v`.
    #[inline]
    pub fn record(&mut self, v: u64) {
        self.record_n(v, 1);
    }

    /// Records `n` observations of `v`.
    pub fn record_n(&mut self, v: u64, n: u64) {
        if n == 0 {
            return;
        }
        let idx = bucket_index(v);
        if idx >= self.buckets.len() {
            self.buckets.resize(idx + 1, 0);
        }
        self.buckets[idx] += n;
        self.count += n;
        self.sum += v as u128 * n as u128;
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Records a non-negative duration in seconds at nanosecond
    /// resolution (negative, NaN, or infinite inputs clamp to the range
    /// ends — telemetry never panics).
    #[inline]
    pub fn record_seconds(&mut self, seconds: f64) {
        // `as u64` saturates: NaN → 0, +inf → u64::MAX.
        self.record((seconds * SECONDS_SCALE).round() as u64);
    }

    /// Total observations recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact sum of recorded values.
    pub fn sum(&self) -> u128 {
        self.sum
    }

    /// True when nothing has been recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// Exact minimum recorded value, or `None` when empty.
    pub fn min(&self) -> Option<u64> {
        (self.count > 0).then_some(self.min)
    }

    /// Exact maximum recorded value, or `None` when empty.
    pub fn max(&self) -> Option<u64> {
        (self.count > 0).then_some(self.max)
    }

    /// Exact mean of recorded values (`NaN` when empty).
    pub fn mean(&self) -> f64 {
        self.sum as f64 / self.count as f64
    }

    /// Mean in seconds for histograms recorded via [`record_seconds`].
    ///
    /// [`record_seconds`]: LatencyHistogram::record_seconds
    pub fn mean_seconds(&self) -> f64 {
        self.mean() / SECONDS_SCALE
    }

    /// The value at quantile `q ∈ [0, 1]`: the midpoint of the bucket
    /// holding the `⌈q·count⌉`-th smallest observation, clamped to the
    /// exact observed `[min, max]`. Relative error is bounded by the
    /// bucket width (≈ 3%). Returns `None` when empty.
    pub fn quantile(&self, q: f64) -> Option<u64> {
        if self.count == 0 {
            return None;
        }
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (idx, &n) in self.buckets.iter().enumerate() {
            seen += n;
            if seen >= rank {
                let lo = bucket_lower(idx);
                let hi = bucket_lower(idx + 1);
                let mid = lo + (hi - lo) / 2;
                return Some(mid.clamp(self.min, self.max));
            }
        }
        Some(self.max)
    }

    /// Quantile in seconds for histograms recorded via
    /// [`record_seconds`](LatencyHistogram::record_seconds); `NaN` when
    /// empty.
    pub fn quantile_seconds(&self, q: f64) -> f64 {
        self.quantile(q)
            .map_or(f64::NAN, |v| v as f64 / SECONDS_SCALE)
    }

    /// Folds `other` into `self` by element-wise bucket addition. Exact:
    /// associative, commutative, and equal to having recorded both
    /// streams into one histogram.
    pub fn merge(&mut self, other: &LatencyHistogram) {
        if other.buckets.len() > self.buckets.len() {
            self.buckets.resize(other.buckets.len(), 0);
        }
        for (mine, theirs) in self.buckets.iter_mut().zip(&other.buckets) {
            *mine += theirs;
        }
        self.count += other.count;
        self.sum += other.sum;
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Non-empty buckets as `(lower, upper_exclusive, count)` triples,
    /// lowest first — the export surface for Prometheus and JSON.
    pub fn nonzero_buckets(&self) -> impl Iterator<Item = (u64, u64, u64)> + '_ {
        self.buckets
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .map(|(idx, &n)| (bucket_lower(idx), bucket_lower(idx + 1), n))
    }

    /// Serializes to one line of text (`count sum min max i:n i:n ...`) —
    /// the snapshot-file round-trip format used by `eirs-serve`.
    pub fn encode(&self) -> String {
        let mut out = format!("{} {} {} {}", self.count, self.sum, self.min, self.max);
        for (idx, &n) in self.buckets.iter().enumerate() {
            if n > 0 {
                out.push_str(&format!(" {idx}:{n}"));
            }
        }
        out
    }

    /// Parses the [`encode`](LatencyHistogram::encode) format.
    pub fn decode(s: &str) -> Result<Self, String> {
        let mut fields = s.split_whitespace();
        let mut scalar = |name: &str| -> Result<u128, String> {
            fields
                .next()
                .ok_or_else(|| format!("histogram: missing {name}"))?
                .parse::<u128>()
                .map_err(|e| format!("histogram {name}: {e}"))
        };
        let count = scalar("count")? as u64;
        let sum = scalar("sum")?;
        let min = scalar("min")? as u64;
        let max = scalar("max")? as u64;
        let mut h = LatencyHistogram::new();
        for pair in fields {
            let (idx, n) = pair
                .split_once(':')
                .ok_or_else(|| format!("histogram: malformed bucket '{pair}'"))?;
            let idx: usize = idx
                .parse()
                .map_err(|e| format!("histogram bucket index: {e}"))?;
            let n: u64 = n
                .parse()
                .map_err(|e| format!("histogram bucket count: {e}"))?;
            if n == 0 {
                return Err("histogram: zero bucket in encoding".into());
            }
            if idx >= h.buckets.len() {
                h.buckets.resize(idx + 1, 0);
            }
            h.buckets[idx] += n;
        }
        let bucket_total: u64 = h.buckets.iter().sum();
        if bucket_total != count {
            return Err(format!(
                "histogram: bucket total {bucket_total} != count {count}"
            ));
        }
        h.count = count;
        h.sum = sum;
        h.min = if count == 0 { u64::MAX } else { min };
        h.max = max;
        Ok(h)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_index_is_monotone_and_continuous() {
        // Lower bounds must invert the index map and indices must never
        // decrease as values grow.
        let mut prev = 0usize;
        for v in 0..4096u64 {
            let idx = bucket_index(v);
            assert!(idx >= prev, "index decreased at {v}");
            assert!(bucket_lower(idx) <= v && v < bucket_lower(idx + 1), "{v}");
            prev = idx;
        }
        for &v in &[u64::MAX, u64::MAX / 2, 1 << 40, (1 << 40) + 12345] {
            let idx = bucket_index(v);
            assert!(bucket_lower(idx) <= v);
        }
    }

    #[test]
    fn small_values_are_exact() {
        let mut h = LatencyHistogram::new();
        for v in 0..64 {
            h.record(v);
        }
        for q in [0.0, 0.25, 0.5, 0.99, 1.0] {
            let got = h.quantile(q).unwrap();
            let exact = ((q * 64.0).ceil() as u64).clamp(1, 64) - 1;
            assert_eq!(got, exact, "q={q}");
        }
    }

    #[test]
    fn quantile_relative_error_is_bounded() {
        let mut h = LatencyHistogram::new();
        let mut all: Vec<u64> = Vec::new();
        let mut x = 17u64;
        for _ in 0..10_000 {
            // Cheap LCG spread over several octaves.
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let v = (x >> 33) % 1_000_000;
            h.record(v);
            all.push(v);
        }
        all.sort_unstable();
        for q in [0.5, 0.9, 0.99, 0.999] {
            let exact =
                all[(((q * all.len() as f64).ceil() as usize).max(1) - 1).min(all.len() - 1)];
            let got = h.quantile(q).unwrap();
            let rel = (got as f64 - exact as f64).abs() / (exact as f64).max(1.0);
            assert!(rel < 0.04, "q={q}: {got} vs {exact} (rel {rel})");
        }
    }

    #[test]
    fn merge_equals_recording_the_whole_stream() {
        let mut whole = LatencyHistogram::new();
        let mut a = LatencyHistogram::new();
        let mut b = LatencyHistogram::new();
        for v in [0u64, 1, 63, 64, 65, 1000, 123456, 1 << 40] {
            whole.record(v);
            if v % 2 == 0 {
                a.record(v);
            } else {
                b.record(v);
            }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b;
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
    }

    #[test]
    fn encode_decode_round_trips() {
        let mut h = LatencyHistogram::new();
        for v in [5u64, 5, 900, 12345678, 1 << 50] {
            h.record(v);
        }
        let restored = LatencyHistogram::decode(&h.encode()).unwrap();
        assert_eq!(restored, h);
        let empty = LatencyHistogram::new();
        assert_eq!(LatencyHistogram::decode(&empty.encode()).unwrap(), empty);
        assert!(LatencyHistogram::decode("1 0 0 0 0:2").is_err());
        assert!(LatencyHistogram::decode("not a histogram").is_err());
    }

    #[test]
    fn seconds_round_trip_through_nanosecond_ticks() {
        let mut h = LatencyHistogram::new();
        h.record_seconds(0.5);
        h.record_seconds(1.5);
        assert_eq!(h.count(), 2);
        assert!((h.mean_seconds() - 1.0).abs() < 1e-6);
        let p100 = h.quantile_seconds(1.0);
        assert!((p100 - 1.5).abs() / 1.5 < 0.04, "{p100}");
    }

    #[test]
    fn empty_histogram_reports_none() {
        let h = LatencyHistogram::new();
        assert!(h.is_empty());
        assert_eq!(h.quantile(0.5), None);
        assert!(h.quantile_seconds(0.5).is_nan());
        assert_eq!(h.min(), None);
        assert_eq!(h.max(), None);
    }
}
