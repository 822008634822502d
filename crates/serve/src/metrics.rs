//! Per-shard operational metrics: the ops surface of the serving engine.
//!
//! Every [`ClusterShard`](crate::engine::ServeEngine) keeps running
//! counters as it ingests events; nothing here samples or averages over
//! wall time — rates like decisions/sec are a driver concern (divide by
//! the wall clock around the run), so the counters stay exact and the
//! engine stays deterministic.

use eirs_obs::LatencyHistogram;
use eirs_sim::policy::ClassAllocation;
use eirs_sim::stats::tail_quantiles;

/// Running counters for one cluster shard.
#[derive(Debug, Clone, PartialEq)]
pub struct ShardMetrics {
    /// Jobs routed to this shard.
    pub arrivals: u64,
    /// Inelastic share of `arrivals` (shed arrivals included). The
    /// per-class split is what re-optimization needs to estimate the
    /// observed `(λ_I, λ_E)` from a live engine.
    pub arrivals_inelastic: u64,
    /// Elastic share of `arrivals` (shed arrivals included).
    pub arrivals_elastic: u64,
    /// Jobs completed by this shard.
    pub completions: u64,
    /// Allocation decisions made (one per event-loop step).
    pub decisions: u64,
    /// Decisions that fell outside the compiled grid (clamp-region
    /// delegations to the source policy). Overflow is exact but slow;
    /// a nonzero rate means the table grid is undersized for the load.
    pub overflow_lookups: u64,
    /// Decisions made while the shard was below full capacity
    /// (capacity-capped source-policy calls or zero-capacity idles).
    pub degraded_decisions: u64,
    /// Arrivals rejected by degraded-mode admission shedding. Rejected
    /// arrivals still count in `arrivals`, so
    /// `admitted = arrivals - rejections` and after a drain
    /// `completions + rejections = arrivals`.
    pub rejections: u64,
    /// Inelastic jobs preempt-restarted by capacity-loss events.
    pub preemptions: u64,
    /// Deepest inelastic queue observed.
    pub peak_inelastic: usize,
    /// Deepest elastic queue observed.
    pub peak_elastic: usize,
    /// Decision histogram over rounded busy-server counts: bucket `b`
    /// counts decisions whose total allocation rounded to `b` servers
    /// (`k + 1` buckets).
    pub busy_histogram: Vec<u64>,
    /// Sum of response times over completed jobs (mean response =
    /// `total_response / completions`).
    pub total_response: f64,
    /// Log-linear response-time histogram (seconds of simulated time, so
    /// fully deterministic): quantiles within 2⁻⁵ relative error, and an
    /// exact merge across shards, so per-shard and cluster-wide tails
    /// (including P99.9) both come from here.
    pub response_hist: LatencyHistogram,
    /// The shard's simulated clock.
    pub sim_time: f64,
}

impl ShardMetrics {
    /// Fresh counters for a `k`-server shard.
    pub fn new(k: u32) -> Self {
        Self {
            arrivals: 0,
            arrivals_inelastic: 0,
            arrivals_elastic: 0,
            completions: 0,
            decisions: 0,
            overflow_lookups: 0,
            degraded_decisions: 0,
            rejections: 0,
            preemptions: 0,
            peak_inelastic: 0,
            peak_elastic: 0,
            busy_histogram: vec![0; k as usize + 1],
            total_response: 0.0,
            response_hist: LatencyHistogram::new(),
            sim_time: 0.0,
        }
    }

    /// Records one job completion with response time `rt` (simulated
    /// seconds), feeding the mean and the histogram together so the two
    /// can never drift apart.
    pub(crate) fn record_response(&mut self, rt: f64) {
        self.completions += 1;
        self.total_response += rt;
        self.response_hist.record_seconds(rt);
    }

    /// Records one decision at occupancy `(i, j)`.
    pub(crate) fn record_decision(
        &mut self,
        i: usize,
        j: usize,
        a: ClassAllocation,
        in_grid: bool,
    ) {
        self.decisions += 1;
        if !in_grid {
            self.overflow_lookups += 1;
        }
        self.peak_inelastic = self.peak_inelastic.max(i);
        self.peak_elastic = self.peak_elastic.max(j);
        let bucket = (a.total().round() as usize).min(self.busy_histogram.len() - 1);
        self.busy_histogram[bucket] += 1;
    }

    /// Mean response time of completed jobs (`NaN` before any complete).
    pub fn mean_response(&self) -> f64 {
        self.total_response / self.completions as f64
    }

    /// Total events ingested or produced (arrivals + completions).
    pub fn events(&self) -> u64 {
        self.arrivals + self.completions
    }

    /// Arrivals actually admitted (arrivals minus shed rejections).
    pub fn admitted(&self) -> u64 {
        self.arrivals - self.rejections
    }

    /// Response-time quantiles `(P50, P95, P99)` in simulated seconds,
    /// read from [`response_hist`](Self::response_hist): within 2⁻⁵
    /// relative error, `NaN` before any completion. After
    /// [`merge`](Self::merge) they cover every merged shard.
    pub fn response_quantiles(&self) -> (f64, f64, f64) {
        tail_quantiles(&self.response_hist)
    }

    /// Folds `other` into `self` (histogram buckets must agree — all
    /// shards of one engine share `k`). Peaks take the max, `sim_time`
    /// the furthest shard clock, counters add. Panicking wrapper over
    /// [`try_merge`](Self::try_merge).
    pub fn merge(&mut self, other: &ShardMetrics) {
        self.try_merge(other)
            .expect("merging metrics of different k");
    }

    /// Fallible [`merge`](Self::merge): rejects metrics whose busy
    /// histograms were sized for a different server count `k` instead of
    /// silently truncating the fold, leaving `self` untouched on error.
    /// The response histograms merge exactly, in any order.
    pub fn try_merge(&mut self, other: &ShardMetrics) -> Result<(), String> {
        if self.busy_histogram.len() != other.busy_histogram.len() {
            return Err(format!(
                "cannot merge shard metrics for k = {} into metrics for k = {}",
                other.busy_histogram.len() - 1,
                self.busy_histogram.len() - 1,
            ));
        }
        self.arrivals += other.arrivals;
        self.arrivals_inelastic += other.arrivals_inelastic;
        self.arrivals_elastic += other.arrivals_elastic;
        self.completions += other.completions;
        self.decisions += other.decisions;
        self.overflow_lookups += other.overflow_lookups;
        self.degraded_decisions += other.degraded_decisions;
        self.rejections += other.rejections;
        self.preemptions += other.preemptions;
        self.peak_inelastic = self.peak_inelastic.max(other.peak_inelastic);
        self.peak_elastic = self.peak_elastic.max(other.peak_elastic);
        for (mine, theirs) in self.busy_histogram.iter_mut().zip(&other.busy_histogram) {
            *mine += theirs;
        }
        self.total_response += other.total_response;
        self.response_hist.merge(&other.response_hist);
        self.sim_time = self.sim_time.max(other.sim_time);
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn decision_recording_tracks_peaks_overflow_and_histogram() {
        let mut m = ShardMetrics::new(4);
        let a = ClassAllocation {
            inelastic: 2.0,
            elastic: 1.6,
        };
        m.record_decision(3, 1, a, true);
        m.record_decision(5, 2, ClassAllocation::IDLE, false);
        assert_eq!(m.decisions, 2);
        assert_eq!(m.overflow_lookups, 1);
        assert_eq!((m.peak_inelastic, m.peak_elastic), (5, 2));
        // 3.6 rounds to bucket 4; idle lands in bucket 0.
        assert_eq!(m.busy_histogram, vec![1, 0, 0, 0, 1]);
    }

    #[test]
    fn merge_adds_counters_and_maxes_peaks() {
        let mut a = ShardMetrics::new(2);
        a.arrivals = 3;
        a.arrivals_inelastic = 2;
        a.arrivals_elastic = 1;
        a.completions = 2;
        a.total_response = 1.5;
        a.peak_elastic = 4;
        a.sim_time = 10.0;
        let mut b = ShardMetrics::new(2);
        b.arrivals = 1;
        b.arrivals_inelastic = 0;
        b.arrivals_elastic = 1;
        b.completions = 1;
        b.total_response = 0.5;
        b.peak_inelastic = 7;
        b.sim_time = 8.0;
        b.rejections = 1;
        b.degraded_decisions = 3;
        b.preemptions = 2;
        a.merge(&b);
        assert_eq!(a.arrivals, 4);
        assert_eq!((a.arrivals_inelastic, a.arrivals_elastic), (2, 2));
        assert_eq!(a.completions, 3);
        assert_eq!(a.events(), 7);
        assert_eq!(a.rejections, 1);
        assert_eq!(a.admitted(), 3);
        assert_eq!(a.degraded_decisions, 3);
        assert_eq!(a.preemptions, 2);
        assert!((a.mean_response() - 2.0 / 3.0).abs() < 1e-12);
        assert_eq!((a.peak_inelastic, a.peak_elastic), (7, 4));
        assert_eq!(a.sim_time, 10.0);
    }

    #[test]
    fn record_response_feeds_mean_tails_and_histogram_together() {
        let mut m = ShardMetrics::new(2);
        assert!(m.response_quantiles().0.is_nan(), "no completion yet");
        for i in 1..=100 {
            m.record_response(i as f64 * 0.01);
        }
        assert_eq!(m.completions, 100);
        assert!((m.mean_response() - 0.505).abs() < 1e-12);
        assert_eq!(m.response_hist.count(), 100);
        // The quantiles read the histogram, within its bucket precision
        // of the exact nearest-rank values 0.50, 0.95 and 0.99.
        let (p50, p95, p99) = m.response_quantiles();
        for (got, exact) in [(p50, 0.5), (p95, 0.95), (p99, 0.99)] {
            assert!(
                (got - exact).abs() / exact <= 1.0 / 32.0,
                "{got} vs {exact}"
            );
        }
        assert_eq!(p50, m.response_hist.quantile_seconds(0.5));
    }

    #[test]
    fn try_merge_rejects_mismatched_k_without_mutating() {
        let mut a = ShardMetrics::new(2);
        a.arrivals = 5;
        let before = a.clone();
        let b = ShardMetrics::new(3);
        let err = a.try_merge(&b).expect_err("k mismatch must be rejected");
        assert!(err.contains("k = 3") && err.contains("k = 2"), "{err}");
        assert_eq!(a, before, "failed merge must leave self untouched");
    }

    #[test]
    #[should_panic(expected = "merging metrics of different k")]
    fn merge_panics_on_mismatched_k() {
        let mut a = ShardMetrics::new(2);
        a.merge(&ShardMetrics::new(3));
    }

    #[test]
    fn merge_folds_histograms_in_any_order() {
        let mut a = ShardMetrics::new(2);
        let mut b = ShardMetrics::new(2);
        for i in 0..50 {
            a.record_response(0.1 + i as f64 * 0.001);
            b.record_response(0.5 + i as f64 * 0.001);
        }
        let mut ba = b.clone();
        ba.merge(&a);
        a.merge(&b);
        assert_eq!(a.completions, 100);
        assert_eq!(a.response_hist.count(), 100);
        // The fold is exact, so its order does not matter, and the
        // merged quantiles span both shards.
        assert_eq!(a.response_hist, ba.response_hist);
        let (p50, _, p99) = a.response_quantiles();
        assert!(p50 < 0.16 && p99 > 0.5, "({p50}, {p99})");
    }
}
