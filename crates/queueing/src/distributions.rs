//! Job-size distributions for analysis and simulation.
//!
//! The optimality proofs of the paper assume exponential sizes, but the
//! Theorem 3 sample-path argument is distribution-free; the simulator
//! therefore accepts any [`SizeDistribution`]. All samplers draw from a
//! caller-supplied RNG so that coupled experiments can replay identical
//! randomness across policies.

use crate::moments::Moments;
use rand::RngCore;

/// A nonnegative job-size distribution: sampling plus closed-form moments.
pub trait SizeDistribution: Send + Sync + std::fmt::Debug {
    /// Draws one size.
    fn sample(&self, rng: &mut dyn RngCore) -> f64;

    /// Mean size `E[S]`.
    fn mean(&self) -> f64;

    /// First three raw moments.
    fn moments(&self) -> Moments;

    /// Short human-readable name for reports.
    fn label(&self) -> String;
}

/// Uniform draw in the open interval `(0, 1)`, safe for `-ln(u)`.
#[inline]
pub fn uniform_open01(rng: &mut dyn RngCore) -> f64 {
    // `random::<f64>()` yields values in [0, 1); reflect to (0, 1].. then the
    // complement keeps us away from both endpoints in practice.
    let u: f64 = rand::Rng::random(&mut *rng);
    // Map 0.0 (possible) to a tiny positive value instead of -inf logs.
    if u <= 0.0 {
        f64::MIN_POSITIVE
    } else {
        u
    }
}

/// The exponential inverse CDF `F⁻¹(1−u) = −ln(u)/rate` for `u ∈ (0, 1]`.
///
/// Every exponential sampler in the workspace — job sizes, Poisson and MAP
/// interarrival times, phase-type and Coxian holding times, the state-level
/// CTMC's jump times and the multi-class DES's interarrival times —
/// funnels through this one helper so the trace, MAP, and Poisson paths
/// stay numerically consistent (callers choose how they map raw uniforms
/// into `(0, 1]`, which keeps their historical bit-exact streams intact).
/// One sampler does not: the fault schedules of
/// `eirs_sim::availability` draw `−mean·ln(1 − u)`, a multiplication where
/// this helper divides, so routing them here would move every fault
/// schedule and every digest computed under churn.
#[inline]
pub fn exp_inverse_cdf(u: f64, rate: f64) -> f64 {
    debug_assert!(u > 0.0 && u <= 1.0, "u = {u} outside (0, 1]");
    debug_assert!(rate > 0.0, "rate = {rate} must be positive");
    -u.ln() / rate
}

/// Exponential distribution with the given rate (mean `1/rate`).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Exponential {
    rate: f64,
}

impl Exponential {
    /// Exponential with rate `rate > 0`.
    pub fn new(rate: f64) -> Self {
        assert!(
            rate > 0.0 && rate.is_finite(),
            "rate must be positive, got {rate}"
        );
        Self { rate }
    }

    /// Exponential with mean `mean > 0`.
    pub fn with_mean(mean: f64) -> Self {
        Self::new(1.0 / mean)
    }

    /// The rate parameter.
    pub fn rate(&self) -> f64 {
        self.rate
    }
}

impl SizeDistribution for Exponential {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        exp_inverse_cdf(uniform_open01(rng), self.rate)
    }

    fn mean(&self) -> f64 {
        1.0 / self.rate
    }

    fn moments(&self) -> Moments {
        let m = 1.0 / self.rate;
        Moments::new(m, 2.0 * m * m, 6.0 * m * m * m)
    }

    fn label(&self) -> String {
        format!("Exp(rate={})", self.rate)
    }
}

/// Deterministic (point-mass) size.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Deterministic {
    value: f64,
}

impl Deterministic {
    /// Point mass at `value ≥ 0`.
    pub fn new(value: f64) -> Self {
        assert!(value >= 0.0 && value.is_finite());
        Self { value }
    }
}

impl SizeDistribution for Deterministic {
    fn sample(&self, _rng: &mut dyn RngCore) -> f64 {
        self.value
    }

    fn mean(&self) -> f64 {
        self.value
    }

    fn moments(&self) -> Moments {
        Moments::new(self.value, self.value.powi(2), self.value.powi(3))
    }

    fn label(&self) -> String {
        format!("Det({})", self.value)
    }
}

/// Continuous uniform on `[lo, hi]`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UniformSize {
    lo: f64,
    hi: f64,
}

impl UniformSize {
    /// Uniform on `[lo, hi]`, `0 ≤ lo < hi`.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo >= 0.0 && hi > lo && hi.is_finite());
        Self { lo, hi }
    }
}

impl SizeDistribution for UniformSize {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rand::Rng::random(&mut *rng);
        self.lo + u * (self.hi - self.lo)
    }

    fn mean(&self) -> f64 {
        0.5 * (self.lo + self.hi)
    }

    fn moments(&self) -> Moments {
        // E[X^n] = (hi^{n+1} - lo^{n+1}) / ((n+1)(hi - lo)).
        let span = self.hi - self.lo;
        let p = |n: i32| (self.hi.powi(n + 1) - self.lo.powi(n + 1)) / ((n + 1) as f64 * span);
        Moments::new(p(1), p(2), p(3))
    }

    fn label(&self) -> String {
        format!("Uniform[{}, {}]", self.lo, self.hi)
    }
}

/// Erlang distribution: sum of `shape` i.i.d. exponentials with rate `rate`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Erlang {
    shape: u32,
    rate: f64,
}

impl Erlang {
    /// Erlang with integer shape `shape ≥ 1` and rate `rate > 0`.
    pub fn new(shape: u32, rate: f64) -> Self {
        assert!(shape >= 1);
        assert!(rate > 0.0 && rate.is_finite());
        Self { shape, rate }
    }
}

impl SizeDistribution for Erlang {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Product-of-uniforms form: -ln(Π u_i)/rate needs one log.
        let mut prod = 1.0;
        for _ in 0..self.shape {
            prod *= uniform_open01(rng);
        }
        exp_inverse_cdf(prod.max(f64::MIN_POSITIVE), self.rate)
    }

    fn mean(&self) -> f64 {
        self.shape as f64 / self.rate
    }

    fn moments(&self) -> Moments {
        let n = self.shape as f64;
        let r = self.rate;
        Moments::new(
            n / r,
            n * (n + 1.0) / (r * r),
            n * (n + 1.0) * (n + 2.0) / (r * r * r),
        )
    }

    fn label(&self) -> String {
        format!("Erlang(shape={}, rate={})", self.shape, self.rate)
    }
}

/// Hyperexponential: a probabilistic mixture of exponentials (CV² ≥ 1).
#[derive(Debug, Clone, PartialEq)]
pub struct HyperExponential {
    probs: Vec<f64>,
    rates: Vec<f64>,
}

impl HyperExponential {
    /// Mixture with branch probabilities `probs` (summing to 1) and branch
    /// rates `rates`.
    pub fn new(probs: Vec<f64>, rates: Vec<f64>) -> Self {
        assert_eq!(probs.len(), rates.len());
        assert!(!probs.is_empty());
        let total: f64 = probs.iter().sum();
        assert!(
            (total - 1.0).abs() < 1e-9,
            "probabilities must sum to 1, got {total}"
        );
        assert!(probs.iter().all(|&p| p >= 0.0));
        assert!(rates.iter().all(|&r| r > 0.0));
        Self { probs, rates }
    }

    /// Balanced two-branch hyperexponential with the given mean and CV² ≥ 1
    /// ("balanced means" parameterization: `p1/µ1 = p2/µ2`).
    pub fn balanced(mean: f64, cv2: f64) -> Self {
        assert!(mean > 0.0);
        assert!(cv2 >= 1.0, "hyperexponential needs CV^2 >= 1, got {cv2}");
        if (cv2 - 1.0).abs() < 1e-12 {
            return Self::new(vec![1.0], vec![1.0 / mean]);
        }
        let p1 = 0.5 * (1.0 + ((cv2 - 1.0) / (cv2 + 1.0)).sqrt());
        let p2 = 1.0 - p1;
        let r1 = 2.0 * p1 / mean;
        let r2 = 2.0 * p2 / mean;
        Self::new(vec![p1, p2], vec![r1, r2])
    }
}

impl SizeDistribution for HyperExponential {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u: f64 = rand::Rng::random(&mut *rng);
        let mut acc = 0.0;
        for (p, r) in self.probs.iter().zip(&self.rates) {
            acc += p;
            if u < acc {
                return exp_inverse_cdf(uniform_open01(rng), *r);
            }
        }
        let r = *self.rates.last().expect("non-empty");
        exp_inverse_cdf(uniform_open01(rng), r)
    }

    fn mean(&self) -> f64 {
        self.probs.iter().zip(&self.rates).map(|(p, r)| p / r).sum()
    }

    fn moments(&self) -> Moments {
        let mut m = [0.0; 3];
        for (p, r) in self.probs.iter().zip(&self.rates) {
            let mean = 1.0 / r;
            m[0] += p * mean;
            m[1] += p * 2.0 * mean * mean;
            m[2] += p * 6.0 * mean * mean * mean;
        }
        Moments::new(m[0], m[1], m[2])
    }

    fn label(&self) -> String {
        format!("H{}(mean={:.3})", self.probs.len(), self.mean())
    }
}

/// Bounded Pareto on `[lo, hi]` with tail index `alpha` — the classic
/// high-variability workload model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BoundedPareto {
    alpha: f64,
    lo: f64,
    hi: f64,
}

impl BoundedPareto {
    /// Bounded Pareto with shape `alpha > 0` on `[lo, hi]`, `0 < lo < hi`.
    pub fn new(alpha: f64, lo: f64, hi: f64) -> Self {
        assert!(alpha > 0.0 && lo > 0.0 && hi > lo);
        Self { alpha, lo, hi }
    }

    fn raw_moment(&self, n: f64) -> f64 {
        let a = self.alpha;
        let (l, h) = (self.lo, self.hi);
        let norm = 1.0 - (l / h).powf(a);
        if (n - a).abs() < 1e-12 {
            // Degenerate n == alpha: the integral is logarithmic.
            a * l.powf(a) * (h / l).ln() / norm
        } else {
            a * l.powf(a) / norm * (h.powf(n - a) - l.powf(n - a)) / (n - a)
        }
    }
}

impl SizeDistribution for BoundedPareto {
    fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        // Inverse CDF: F(x) = (1 - (lo/x)^a) / (1 - (lo/hi)^a).
        let u: f64 = rand::Rng::random(&mut *rng);
        let a = self.alpha;
        let tail = (self.lo / self.hi).powf(a);
        let base = 1.0 - u * (1.0 - tail);
        self.lo / base.powf(1.0 / a)
    }

    fn mean(&self) -> f64 {
        self.raw_moment(1.0)
    }

    fn moments(&self) -> Moments {
        Moments::new(
            self.raw_moment(1.0),
            self.raw_moment(2.0),
            self.raw_moment(3.0),
        )
    }

    fn label(&self) -> String {
        format!("BP(alpha={}, [{}, {}])", self.alpha, self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    const N: usize = 200_000;

    fn empirical_mean(dist: &dyn SizeDistribution, seed: u64) -> f64 {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut acc = 0.0;
        for _ in 0..N {
            acc += dist.sample(&mut rng);
        }
        acc / N as f64
    }

    #[test]
    fn exponential_sample_mean_matches() {
        let d = Exponential::new(2.5);
        let m = empirical_mean(&d, 1);
        assert!((m - 0.4).abs() < 0.01, "got {m}");
    }

    #[test]
    fn exponential_moments_formulae() {
        let d = Exponential::with_mean(2.0);
        let m = d.moments();
        assert!((m.m1 - 2.0).abs() < 1e-12);
        assert!((m.m2 - 8.0).abs() < 1e-12);
        assert!((m.m3 - 48.0).abs() < 1e-12);
        assert!((m.cv2() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn deterministic_is_constant() {
        let d = Deterministic::new(3.0);
        let mut rng = StdRng::seed_from_u64(0);
        assert_eq!(d.sample(&mut rng), 3.0);
        assert_eq!(d.moments().variance(), 0.0);
    }

    #[test]
    fn uniform_moments_and_samples() {
        let d = UniformSize::new(1.0, 3.0);
        let m = d.moments();
        assert!((m.m1 - 2.0).abs() < 1e-12);
        assert!((m.m2 - 13.0 / 3.0).abs() < 1e-12);
        assert!((m.m3 - 10.0).abs() < 1e-12);
        let emp = empirical_mean(&d, 2);
        assert!((emp - 2.0).abs() < 0.01);
    }

    #[test]
    fn erlang_moments_and_samples() {
        let d = Erlang::new(3, 1.5);
        let m = d.moments();
        assert!((m.m1 - 2.0).abs() < 1e-12);
        assert!((m.m2 - 12.0 / 2.25).abs() < 1e-12);
        let emp = empirical_mean(&d, 3);
        assert!((emp - 2.0).abs() < 0.02);
        // Erlang(3) has CV^2 = 1/3.
        assert!((m.cv2() - 1.0 / 3.0).abs() < 1e-12);
    }

    #[test]
    fn hyperexponential_balanced_hits_target_mean_and_cv2() {
        for cv2 in [1.0, 2.0, 5.0, 20.0] {
            let d = HyperExponential::balanced(3.0, cv2);
            let m = d.moments();
            assert!((m.m1 - 3.0).abs() < 1e-9, "mean for cv2={cv2}");
            assert!(
                (m.cv2() - cv2).abs() < 1e-9,
                "cv2 for cv2={cv2}: got {}",
                m.cv2()
            );
        }
    }

    #[test]
    fn hyperexponential_sampling_matches_mean() {
        let d = HyperExponential::balanced(1.0, 4.0);
        let emp = empirical_mean(&d, 4);
        assert!((emp - 1.0).abs() < 0.03, "got {emp}");
    }

    #[test]
    fn bounded_pareto_moments_match_samples() {
        let d = BoundedPareto::new(1.5, 1.0, 1000.0);
        let m = d.moments();
        let emp = empirical_mean(&d, 5);
        assert!(
            (emp - m.m1).abs() / m.m1 < 0.05,
            "emp {emp} vs analytic {}",
            m.m1
        );
        assert!(m.cv2() > 1.0);
    }

    #[test]
    fn bounded_pareto_samples_respect_bounds() {
        let d = BoundedPareto::new(2.0, 0.5, 10.0);
        let mut rng = StdRng::seed_from_u64(6);
        for _ in 0..10_000 {
            let x = d.sample(&mut rng);
            assert!((0.5..=10.0).contains(&x), "sample {x} out of bounds");
        }
    }

    #[test]
    fn bounded_pareto_alpha_equal_moment_degenerate_case() {
        // alpha == 2 makes the second raw moment logarithmic.
        let d = BoundedPareto::new(2.0, 1.0, 100.0);
        let m2 = d.moments().m2;
        // Hand computation: a L^a ln(H/L) / (1 - (L/H)^a) = 2 ln(100)/(1-1e-4).
        let expect = 2.0 * (100.0f64).ln() / (1.0 - 1e-4);
        assert!((m2 - expect).abs() < 1e-9);
    }

    #[test]
    fn all_moments_feasible() {
        let dists: Vec<Box<dyn SizeDistribution>> = vec![
            Box::new(Exponential::new(1.0)),
            Box::new(UniformSize::new(0.0, 2.0)),
            Box::new(Erlang::new(4, 2.0)),
            Box::new(HyperExponential::balanced(1.0, 9.0)),
            Box::new(BoundedPareto::new(1.2, 0.1, 50.0)),
        ];
        for d in &dists {
            assert!(
                d.moments().is_feasible(),
                "{} produced infeasible moments",
                d.label()
            );
        }
    }
}
