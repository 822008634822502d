//! Two-phase Coxian distributions and closed-form three-moment fitting.
//!
//! The busy-period transformation (paper Section 5.2, Observation 3) replaces
//! the special "busy period" transitions of the collapsed Markov chain with a
//! two-phase Coxian whose first three moments match the M/M/1 busy period,
//! following the moment-matching approach of Osogami & Harchol-Balter
//! (Performance Evaluation 2006).
//!
//! A Coxian-2 starts in phase 1 (rate `µ1`); on phase-1 completion it either
//! finishes (probability `1 − q`) or continues into phase 2 (rate `µ2`) and
//! finishes there. Eliminating `q` from the three raw-moment equations leaves
//! a quadratic in `a = 1/µ1`:
//!
//! ```text
//! (m1² − m2/2)·a² + (m3/6 − m1·m2/2)·a + (m2²/4 − m1·m3/6) = 0
//! b = (m2/2 − a·m1) / (m1 − a),    q = (m1 − a)/b,
//! ```
//!
//! with the feasible root satisfying `0 < a ≤ m1`, `b > 0`, `0 ≤ q ≤ 1`.
//! M/M/1 busy periods always admit such a root (their `CV² = (1+ρ)/(1−ρ) ≥ 1`
//! and `m1·m3 ≥ (3/2)·m2²`), degenerating to a single exponential as `ρ → 0`.

use crate::distributions::{exp_inverse_cdf, uniform_open01};
use crate::moments::Moments;
use eirs_numerics::roots::solve_quadratic;
use rand::RngCore;

/// A two-phase Coxian distribution.
///
/// Phase 1 has rate `mu1`; with probability `q` the job continues into phase
/// 2 (rate `mu2`), otherwise it completes. `q = 0` degenerates to
/// `Exp(mu1)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coxian2 {
    mu1: f64,
    mu2: f64,
    q: f64,
}

/// Why a three-moment Coxian-2 fit failed.
#[derive(Debug, Clone, PartialEq)]
pub enum CoxianFitError {
    /// Moments violate nonnegativity/Jensen/Cauchy–Schwarz feasibility.
    InfeasibleMoments(Moments),
    /// Moments are feasible for *some* distribution but not representable by
    /// a two-phase Coxian (e.g. `CV²` below 1/2).
    NotRepresentable(Moments),
}

impl std::fmt::Display for CoxianFitError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CoxianFitError::InfeasibleMoments(m) => {
                write!(
                    f,
                    "moments {m:?} are not moments of a nonnegative random variable"
                )
            }
            CoxianFitError::NotRepresentable(m) => {
                write!(f, "moments {m:?} are not representable by a 2-phase Coxian")
            }
        }
    }
}

impl std::error::Error for CoxianFitError {}

impl Coxian2 {
    /// Builds a Coxian-2 from raw parameters.
    pub fn new(mu1: f64, mu2: f64, q: f64) -> Self {
        assert!(mu1 > 0.0 && mu1.is_finite(), "mu1 must be positive");
        assert!(mu2 > 0.0 && mu2.is_finite(), "mu2 must be positive");
        assert!((0.0..=1.0).contains(&q), "q must lie in [0,1], got {q}");
        Self { mu1, mu2, q }
    }

    /// A degenerate single-phase Coxian: `Exp(rate)`.
    pub fn exponential(rate: f64) -> Self {
        Self::new(rate, rate, 0.0)
    }

    /// Phase-1 rate.
    pub fn mu1(&self) -> f64 {
        self.mu1
    }

    /// Phase-2 rate.
    pub fn mu2(&self) -> f64 {
        self.mu2
    }

    /// Continuation probability from phase 1 into phase 2.
    pub fn q(&self) -> f64 {
        self.q
    }

    /// `true` when the distribution is a bare exponential (`q == 0`).
    pub fn is_exponential(&self) -> bool {
        self.q == 0.0
    }

    /// Transition rates `(γ1, γ2, γ3)` used in the transformed Markov chains
    /// (Figures 3c and 7c): `γ1 = (1−q)µ1` (phase 1 → done),
    /// `γ2 = q·µ1` (phase 1 → phase 2), `γ3 = µ2` (phase 2 → done).
    pub fn gamma_rates(&self) -> (f64, f64, f64) {
        ((1.0 - self.q) * self.mu1, self.q * self.mu1, self.mu2)
    }

    /// Mean `1/µ1 + q/µ2`.
    pub fn mean(&self) -> f64 {
        1.0 / self.mu1 + self.q / self.mu2
    }

    /// First three raw moments, in closed form.
    pub fn moments(&self) -> Moments {
        let a = 1.0 / self.mu1;
        let b = 1.0 / self.mu2;
        let q = self.q;
        let m1 = a + q * b;
        let m2 = 2.0 * (a * a + q * a * b + q * b * b);
        let m3 = 6.0 * (a * a * a + q * a * a * b + q * a * b * b + q * b * b * b);
        Moments::new(m1, m2, m3)
    }

    /// Draws one value.
    pub fn sample(&self, rng: &mut dyn RngCore) -> f64 {
        let u = uniform_open01(rng);
        let mut x = exp_inverse_cdf(u, self.mu1);
        let cont: f64 = rand::Rng::random(&mut *rng);
        if cont < self.q {
            x += exp_inverse_cdf(uniform_open01(rng), self.mu2);
        }
        x
    }
}

/// Relative tolerance below which `CV²` is treated as exactly 1 and the fit
/// degenerates to a single exponential.
const EXP_DEGENERACY_TOL: f64 = 1e-9;

/// Fits a two-phase Coxian to the given first three raw moments.
///
/// Returns the matched [`Coxian2`]; moments of the result reproduce the
/// inputs to floating-point accuracy whenever a representation exists. For
/// `CV² = 1` (and the matching exponential third moment) the fit returns the
/// degenerate `Exp(1/m1)`.
pub fn fit_coxian2(target: Moments) -> Result<Coxian2, CoxianFitError> {
    if !target.is_feasible() {
        return Err(CoxianFitError::InfeasibleMoments(target));
    }
    let Moments { m1, m2, m3 } = target;

    // Exponential degeneracy: CV² == 1 forces q = 0 (with m3 then pinned to
    // 6 m1³; anything else is not Coxian-2-representable at CV² = 1).
    if (target.cv2() - 1.0).abs() < EXP_DEGENERACY_TOL {
        if (m3 - 6.0 * m1 * m1 * m1).abs() / (6.0 * m1 * m1 * m1) < 1e-6 {
            return Ok(Coxian2::exponential(1.0 / m1));
        }
        return Err(CoxianFitError::NotRepresentable(target));
    }

    let ca = m1 * m1 - m2 / 2.0;
    let cb = m3 / 6.0 - m1 * m2 / 2.0;
    let cc = m2 * m2 / 4.0 - m1 * m3 / 6.0;

    for a in solve_quadratic(ca, cb, cc) {
        if !(a > 0.0 && a.is_finite()) {
            continue;
        }
        if a >= m1 {
            // q·b = m1 − a ≤ 0: only the exact boundary a == m1 (pure
            // exponential) is usable, and that case was handled above.
            continue;
        }
        let b = (m2 / 2.0 - a * m1) / (m1 - a);
        if !(b > 0.0 && b.is_finite()) {
            continue;
        }
        let q = (m1 - a) / b;
        if !(0.0..=1.0 + 1e-12).contains(&q) {
            continue;
        }
        let cox = Coxian2::new(1.0 / a, 1.0 / b, q.min(1.0));
        return Ok(cox);
    }
    Err(CoxianFitError::NotRepresentable(target))
}

/// Fits a Coxian-2 to the busy period of the given M/M/1 queue — the exact
/// operation used by the busy-period transformation.
pub fn fit_busy_period(queue: &crate::mm1::MM1) -> Result<Coxian2, CoxianFitError> {
    fit_coxian2(queue.busy_period_moments())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::mm1::MM1;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn assert_moments_match(cox: &Coxian2, target: &Moments, tol: f64) {
        let got = cox.moments();
        assert!(
            (got.m1 - target.m1).abs() / target.m1 < tol,
            "m1 {} vs {}",
            got.m1,
            target.m1
        );
        assert!(
            (got.m2 - target.m2).abs() / target.m2 < tol,
            "m2 {} vs {}",
            got.m2,
            target.m2
        );
        assert!(
            (got.m3 - target.m3).abs() / target.m3 < tol,
            "m3 {} vs {}",
            got.m3,
            target.m3
        );
    }

    #[test]
    fn busy_period_fit_round_trips_across_loads() {
        for rho in [0.05, 0.1, 0.25, 0.5, 0.7, 0.9, 0.95, 0.99] {
            let q = MM1::new(rho, 1.0);
            let target = q.busy_period_moments();
            let cox = fit_busy_period(&q).unwrap_or_else(|e| panic!("rho={rho}: {e}"));
            assert_moments_match(&cox, &target, 1e-8);
            assert!((0.0..=1.0).contains(&cox.q()));
        }
    }

    #[test]
    fn busy_period_fit_with_nonunit_service_rates() {
        // Both transformations use scaled queues (kµ service rates).
        for (lam, mu) in [(0.5, 4.0), (3.0, 4.0), (0.2, 16.0), (10.0, 12.0)] {
            let q = MM1::new(lam, mu);
            let cox = fit_busy_period(&q).unwrap();
            assert_moments_match(&cox, &q.busy_period_moments(), 1e-8);
        }
    }

    #[test]
    fn zero_arrival_rate_degenerates_to_exponential() {
        let q = MM1::new(0.0, 5.0);
        let cox = fit_busy_period(&q).unwrap();
        assert!(cox.is_exponential());
        assert!((cox.mu1() - 5.0).abs() < 1e-9);
    }

    #[test]
    fn erlang2_is_recovered_exactly() {
        // Erlang(2, rate 1) = Coxian-2 with µ1 = µ2 = 1, q = 1.
        let target = Moments::new(2.0, 6.0, 24.0);
        let cox = fit_coxian2(target).unwrap();
        assert!((cox.mu1() - 1.0).abs() < 1e-9, "mu1 {}", cox.mu1());
        assert!((cox.mu2() - 1.0).abs() < 1e-9, "mu2 {}", cox.mu2());
        assert!((cox.q() - 1.0).abs() < 1e-9, "q {}", cox.q());
    }

    #[test]
    fn hyperexponential_moments_are_matched() {
        let h = crate::distributions::HyperExponential::balanced(1.0, 5.0);
        let target = crate::distributions::SizeDistribution::moments(&h);
        let cox = fit_coxian2(target).unwrap();
        assert_moments_match(&cox, &target, 1e-8);
    }

    #[test]
    fn infeasible_moments_are_rejected() {
        // Violates Jensen: m2 < m1².
        let err = fit_coxian2(Moments::new(1.0, 0.5, 1.0)).unwrap_err();
        assert!(matches!(err, CoxianFitError::InfeasibleMoments(_)));
    }

    #[test]
    fn low_variability_is_not_representable() {
        // Erlang(10) has CV² = 0.1 < 1/2: no Coxian-2 representation.
        let e = crate::distributions::Erlang::new(10, 1.0);
        let target = crate::distributions::SizeDistribution::moments(&e);
        let err = fit_coxian2(target).unwrap_err();
        assert!(matches!(err, CoxianFitError::NotRepresentable(_)));
    }

    #[test]
    fn gamma_rates_partition_mu1() {
        let cox = Coxian2::new(2.0, 3.0, 0.25);
        let (g1, g2, g3) = cox.gamma_rates();
        assert!((g1 + g2 - 2.0).abs() < 1e-12);
        assert!((g1 - 1.5).abs() < 1e-12);
        assert!((g2 - 0.5).abs() < 1e-12);
        assert!((g3 - 3.0).abs() < 1e-12);
    }

    #[test]
    fn sampling_mean_matches_analytic() {
        let q = MM1::new(0.6, 1.0);
        let cox = fit_busy_period(&q).unwrap();
        let mut rng = StdRng::seed_from_u64(42);
        let n = 400_000;
        let mut acc = 0.0;
        for _ in 0..n {
            acc += cox.sample(&mut rng);
        }
        let emp = acc / n as f64;
        let want = cox.mean();
        assert!((emp - want).abs() / want < 0.02, "emp {emp} vs {want}");
    }

    #[test]
    fn mean_is_first_moment() {
        let cox = Coxian2::new(1.5, 0.7, 0.4);
        assert!((cox.mean() - cox.moments().m1).abs() < 1e-12);
    }

    #[test]
    fn exponential_constructor_has_exponential_moments() {
        let cox = Coxian2::exponential(2.0);
        let m = cox.moments();
        assert!((m.m1 - 0.5).abs() < 1e-12);
        assert!((m.cv2() - 1.0).abs() < 1e-12);
    }
}
