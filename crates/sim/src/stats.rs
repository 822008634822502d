//! Simulation statistics: streaming moments, time averages, response-time
//! tails and replication confidence intervals.

use eirs_numerics::NeumaierSum;
use eirs_obs::LatencyHistogram;

/// `(P50, P95, P99)` in seconds of a histogram recorded with
/// [`LatencyHistogram::record_seconds`]: each is the midpoint of the
/// bucket holding that rank, within 2⁻⁵ relative of the exact
/// nearest-rank quantile, clamped to the observed min/max, and `NaN`
/// when the histogram is empty.
pub fn tail_quantiles(h: &LatencyHistogram) -> (f64, f64, f64) {
    let q = |p| h.quantile_seconds(p);
    (q(0.5), q(0.95), q(0.99))
}

/// Streaming mean/variance via Welford's algorithm.
#[derive(Debug, Clone, Default)]
pub struct Welford {
    n: u64,
    mean: f64,
    m2: f64,
}

impl Welford {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.n += 1;
        let delta = x - self.mean;
        self.mean += delta / self.n as f64;
        self.m2 += delta * (x - self.mean);
    }

    /// Number of observations.
    pub fn count(&self) -> u64 {
        self.n
    }

    /// Sample mean (0 when empty).
    pub fn mean(&self) -> f64 {
        self.mean
    }

    /// Unbiased sample variance (0 with fewer than two observations).
    pub fn variance(&self) -> f64 {
        if self.n < 2 {
            0.0
        } else {
            self.m2 / (self.n - 1) as f64
        }
    }
}

/// A time-weighted average: accumulates `∫ value dt` and divides by elapsed
/// time. Used for `E[N]`, `E[W]`, utilization, etc.
#[derive(Debug, Clone, Default)]
pub struct TimeAverage {
    integral: NeumaierSum,
    elapsed: f64,
}

impl TimeAverage {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records that the tracked quantity held `value` for `dt` time units.
    pub fn add(&mut self, value: f64, dt: f64) {
        debug_assert!(dt >= 0.0, "negative dt {dt}");
        self.integral.add(value * dt);
        self.elapsed += dt;
    }

    /// The accumulated integral `∫ value dt`.
    pub fn integral(&self) -> f64 {
        self.integral.value()
    }

    /// Total observed time.
    pub fn elapsed(&self) -> f64 {
        self.elapsed
    }

    /// The time average (0 when no time has elapsed).
    pub fn average(&self) -> f64 {
        if self.elapsed > 0.0 {
            self.integral.value() / self.elapsed
        } else {
            0.0
        }
    }
}

/// A symmetric confidence interval around a point estimate.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ConfidenceInterval {
    /// Point estimate (mean of replication means).
    pub mean: f64,
    /// Half-width of the interval.
    pub half_width: f64,
}

impl ConfidenceInterval {
    /// `true` when `value` lies inside the interval.
    pub fn contains(&self, value: f64) -> bool {
        (value - self.mean).abs() <= self.half_width
    }

    /// Relative half-width `half_width / mean` (precision of the estimate).
    pub fn relative_precision(&self) -> f64 {
        self.half_width / self.mean.abs().max(f64::MIN_POSITIVE)
    }
}

/// Aggregates independent replication estimates into a 95% CI.
///
/// Uses Student-t critical values for small replication counts (the usual
/// simulation-methodology practice) and the normal 1.96 beyond 30.
#[derive(Debug, Clone, Default)]
pub struct ReplicationStats {
    w: Welford,
}

impl ReplicationStats {
    /// Fresh accumulator.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds one replication's point estimate.
    pub fn push(&mut self, estimate: f64) {
        self.w.push(estimate);
    }

    /// Number of replications so far.
    pub fn count(&self) -> u64 {
        self.w.count()
    }

    /// Mean across replications.
    pub fn mean(&self) -> f64 {
        self.w.mean()
    }

    /// 95% confidence interval for the mean. Requires ≥ 2 replications.
    pub fn confidence_interval(&self) -> ConfidenceInterval {
        let n = self.w.count();
        assert!(n >= 2, "confidence interval needs at least 2 replications");
        let t = t_critical_95(n - 1);
        let se = (self.w.variance() / n as f64).sqrt();
        ConfidenceInterval {
            mean: self.w.mean(),
            half_width: t * se,
        }
    }
}

impl FromIterator<f64> for ReplicationStats {
    /// Collects replication point estimates, so callers of the
    /// replication drivers can go straight from reports to a CI:
    /// `reports.iter().map(|r| r.mean_response).collect()`.
    fn from_iter<I: IntoIterator<Item = f64>>(iter: I) -> Self {
        let mut stats = Self::new();
        for estimate in iter {
            stats.push(estimate);
        }
        stats
    }
}

/// Batch-means confidence intervals from a *single* long run.
///
/// Consecutive observations from a steady-state simulation are
/// autocorrelated, so the naive sample variance understates the error.
/// Batch means groups the stream into `batch_size`-observation batches;
/// batch averages are approximately independent once batches span several
/// autocorrelation times, and a replication-style CI applies to them.
#[derive(Debug, Clone)]
pub struct BatchMeans {
    batch_size: u64,
    current_sum: f64,
    current_count: u64,
    batches: ReplicationStats,
}

impl BatchMeans {
    /// Batches of `batch_size` observations each.
    pub fn new(batch_size: u64) -> Self {
        assert!(batch_size >= 1);
        Self {
            batch_size,
            current_sum: 0.0,
            current_count: 0,
            batches: ReplicationStats::new(),
        }
    }

    /// Adds one observation.
    pub fn push(&mut self, x: f64) {
        self.current_sum += x;
        self.current_count += 1;
        if self.current_count == self.batch_size {
            self.batches.push(self.current_sum / self.batch_size as f64);
            self.current_sum = 0.0;
            self.current_count = 0;
        }
    }

    /// Completed batches so far.
    pub fn batch_count(&self) -> u64 {
        self.batches.count()
    }

    /// Mean over completed batches.
    pub fn mean(&self) -> f64 {
        self.batches.mean()
    }

    /// 95% CI over completed batches (requires ≥ 2 complete batches).
    pub fn confidence_interval(&self) -> ConfidenceInterval {
        self.batches.confidence_interval()
    }
}

/// Two-sided 95% Student-t critical values by degrees of freedom.
fn t_critical_95(df: u64) -> f64 {
    const TABLE: [f64; 30] = [
        12.706, 4.303, 3.182, 2.776, 2.571, 2.447, 2.365, 2.306, 2.262, 2.228, 2.201, 2.179, 2.160,
        2.145, 2.131, 2.120, 2.110, 2.101, 2.093, 2.086, 2.080, 2.074, 2.069, 2.064, 2.060, 2.056,
        2.052, 2.048, 2.045, 2.042,
    ];
    if df == 0 {
        f64::INFINITY
    } else if (df as usize) <= TABLE.len() {
        TABLE[df as usize - 1]
    } else {
        1.96
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn welford_matches_closed_form() {
        let mut w = Welford::new();
        for x in [2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0] {
            w.push(x);
        }
        assert!((w.mean() - 5.0).abs() < 1e-12);
        // Population variance is 4 → sample variance is 4 * 8/7.
        assert!((w.variance() - 32.0 / 7.0).abs() < 1e-12);
    }

    #[test]
    fn time_average_weights_by_duration() {
        let mut ta = TimeAverage::new();
        ta.add(1.0, 3.0);
        ta.add(5.0, 1.0);
        assert!((ta.average() - 2.0).abs() < 1e-12);
        assert!((ta.integral() - 8.0).abs() < 1e-12);
        assert!((ta.elapsed() - 4.0).abs() < 1e-12);
    }

    #[test]
    fn empty_time_average_is_zero() {
        assert_eq!(TimeAverage::new().average(), 0.0);
    }

    #[test]
    fn replication_ci_covers_true_mean() {
        // Deterministic pseudo-replications around 10.
        let mut rs = ReplicationStats::new();
        for d in [-0.3, 0.1, 0.4, -0.2, 0.05, -0.1, 0.2, -0.15] {
            rs.push(10.0 + d);
        }
        let ci = rs.confidence_interval();
        assert!(ci.contains(10.0), "{ci:?}");
        assert!(ci.half_width > 0.0);
    }

    #[test]
    fn batch_means_groups_observations() {
        let mut bm = BatchMeans::new(3);
        for x in [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0] {
            bm.push(x);
        }
        // Two complete batches: means 2 and 5; the 7.0 is still pending.
        assert_eq!(bm.batch_count(), 2);
        assert!((bm.mean() - 3.5).abs() < 1e-12);
    }

    #[test]
    fn batch_means_ci_covers_the_mean_of_an_iid_stream() {
        use rand::rngs::StdRng;
        use rand::{Rng, SeedableRng};
        let mut rng = StdRng::seed_from_u64(17);
        let mut bm = BatchMeans::new(500);
        for _ in 0..50_000 {
            bm.push(rng.random::<f64>()); // Uniform(0,1), mean 0.5
        }
        let ci = bm.confidence_interval();
        assert!(ci.contains(0.5), "{ci:?}");
        assert!(ci.half_width < 0.01);
    }

    #[test]
    fn t_critical_decreases_with_df() {
        assert!(t_critical_95(1) > t_critical_95(5));
        assert!(t_critical_95(5) > t_critical_95(29));
        assert!((t_critical_95(1000) - 1.96).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "at least 2 replications")]
    fn ci_requires_two_replications() {
        let mut rs = ReplicationStats::new();
        rs.push(1.0);
        let _ = rs.confidence_interval();
    }
}
