//! Relative value iteration on the uniformized, truncated chain.

use eirs_sim::policy::{AllocationPolicy, TabularPolicy};

/// Configuration of the truncated MDP.
#[derive(Debug, Clone, Copy)]
pub struct MdpConfig {
    /// Number of servers `k`.
    pub k: u32,
    /// Inelastic arrival rate.
    pub lambda_i: f64,
    /// Elastic arrival rate.
    pub lambda_e: f64,
    /// Inelastic size rate.
    pub mu_i: f64,
    /// Elastic size rate.
    pub mu_e: f64,
    /// Truncation: `i ≤ max_i` (arrivals beyond are rejected).
    pub max_i: usize,
    /// Truncation: `j ≤ max_j`.
    pub max_j: usize,
    /// Include idling vertices in the action set (Appendix B ablation).
    pub allow_idling: bool,
}

impl MdpConfig {
    /// Uniformization constant `Λ`.
    pub fn uniformization_rate(&self) -> f64 {
        self.lambda_i + self.lambda_e + self.k as f64 * self.mu_i.max(self.mu_e)
    }

    fn states(&self) -> usize {
        (self.max_i + 1) * (self.max_j + 1)
    }

    #[inline]
    fn index(&self, i: usize, j: usize) -> usize {
        i * (self.max_j + 1) + j
    }

    fn validate(&self) {
        assert!(self.k >= 1);
        assert!(self.lambda_i >= 0.0 && self.lambda_e >= 0.0);
        assert!(self.mu_i > 0.0 && self.mu_e > 0.0);
        assert!(self.max_i >= 1 && self.max_j >= 1);
    }
}

/// Failures of the value iteration.
#[derive(Debug, Clone, PartialEq)]
pub enum MdpError {
    /// Span did not contract below tolerance within the iteration budget.
    NotConverged {
        /// Iterations performed.
        iterations: usize,
        /// Final span of the value difference, times the uniformization
        /// rate `Λ` (the scale of the average cost and of `tol`).
        span: f64,
    },
}

impl std::fmt::Display for MdpError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            MdpError::NotConverged { iterations, span } => write!(
                f,
                "relative value iteration did not converge in {iterations} iterations (span {span:.3e})"
            ),
        }
    }
}

impl std::error::Error for MdpError {}

/// A fixed stationary policy for evaluation: maps `(i, j)` to the
/// (possibly fractional) allocation `(servers_to_inelastic,
/// servers_to_elastic)`.
pub type PolicyFn<'a> = &'a dyn Fn(usize, usize) -> (f64, f64);

/// Solution of the truncated average-cost MDP.
#[derive(Debug, Clone)]
pub struct MdpSolution {
    /// Optimal long-run average number of jobs in system `g = E[N]`.
    pub average_cost: f64,
    /// Optimal integer inelastic allocation per state (row-major over
    /// `(i, j)`), paired with the elastic allocation actually used.
    actions: Vec<(u32, u32)>,
    k: u32,
    max_i: usize,
    max_j: usize,
    /// Iterations used.
    pub iterations: usize,
}

impl MdpSolution {
    /// The optimal action `(a, e)` in state `(i, j)`.
    pub fn action(&self, i: usize, j: usize) -> (u32, u32) {
        self.actions[i * (self.max_j + 1) + j]
    }

    /// Packs the optimal actions into a [`TabularPolicy`] — the bridge that
    /// turns solver output into an [`AllocationPolicy`] every substrate
    /// understands. States beyond the truncation grid clamp to the grid
    /// edge (the standard extension; boundary actions there react to
    /// rejected arrivals, so downstream analyses should use a grid
    /// comfortably larger than the region that carries probability mass).
    pub fn tabular_policy(&self) -> TabularPolicy {
        TabularPolicy::from_fn(
            format!("MdpOptimal(k={})", self.k),
            self.k,
            self.max_i,
            self.max_j,
            |i, j| {
                let (a, e) = self.action(i, j);
                (a as f64, e as f64)
            },
        )
    }

    /// `true` when the extracted policy allocates like Inelastic-First on
    /// the interior region `i ≤ i_max, j ≤ j_max`.
    ///
    /// Two caveats make a whole-grid check meaningless: actions at the
    /// truncation boundary react to rejected arrivals (an artifact of the
    /// finite grid), and in deep, rarely-visited states with `µ_I = µ_E`
    /// all work-conserving allocations are optimal to within the value-
    /// iteration tolerance, so ties are broken arbitrarily. Callers should
    /// pass a region well inside the grid.
    pub fn matches_inelastic_first(&self, k: u32, i_max: usize, j_max: usize) -> bool {
        assert!(j_max <= self.max_j);
        for i in 0..=i_max {
            for j in 0..=j_max {
                let (a, _) = self.action(i, j);
                if i > 0 || j > 0 {
                    let want = (i as u32).min(k);
                    if a != want {
                        return false;
                    }
                }
            }
        }
        true
    }

    /// Mean response time via Little's law, `E[T] = g / (λ_I + λ_E)`.
    pub fn mean_response(&self, lambda_total: f64) -> f64 {
        self.average_cost / lambda_total
    }
}

/// Per-state candidate actions: vertices of the allocation polytope.
fn candidate_actions(cfg: &MdpConfig, i: usize, j: usize, out: &mut Vec<(u32, u32)>) {
    out.clear();
    let k = cfg.k;
    let cap = (i as u32).min(k);
    if j == 0 {
        if cfg.allow_idling {
            for a in 0..=cap {
                out.push((a, 0));
            }
        } else {
            out.push((cap, 0));
        }
        return;
    }
    for a in 0..=cap {
        out.push((a, k - a));
        if cfg.allow_idling {
            out.push((a, 0));
        }
    }
}

/// Solves the truncated average-cost MDP by relative value iteration.
///
/// Ties in the Bellman minimization are broken toward *larger* inelastic
/// allocations, so in the `µ_I = µ_E` regime (where many allocations are
/// optimal) the extracted policy is IF itself.
pub fn solve_optimal(cfg: &MdpConfig, tol: f64, max_iter: usize) -> Result<MdpSolution, MdpError> {
    cfg.validate();
    let n = cfg.states();
    let lam = cfg.uniformization_rate();
    let mut h = vec![0.0f64; n];
    let mut h_next = vec![0.0f64; n];
    let mut actions = vec![(0u32, 0u32); n];
    let mut candidates: Vec<(u32, u32)> = Vec::with_capacity(2 * (cfg.k as usize + 1));

    let mut span = f64::INFINITY;
    for it in 0..max_iter {
        let mut min_delta = f64::INFINITY;
        let mut max_delta = f64::NEG_INFINITY;
        for i in 0..=cfg.max_i {
            for j in 0..=cfg.max_j {
                let s = cfg.index(i, j);
                let cost = (i + j) as f64;
                // Arrival terms are action-independent.
                let up_i = if i < cfg.max_i {
                    h[cfg.index(i + 1, j)]
                } else {
                    h[s]
                };
                let up_j = if j < cfg.max_j {
                    h[cfg.index(i, j + 1)]
                } else {
                    h[s]
                };
                let base = cost + cfg.lambda_i * up_i + cfg.lambda_e * up_j;

                candidate_actions(cfg, i, j, &mut candidates);
                let mut best = f64::INFINITY;
                let mut best_action = (0u32, 0u32);
                for &(a, e) in &candidates {
                    let d_i = a as f64 * cfg.mu_i;
                    let d_e = e as f64 * cfg.mu_e;
                    let down_i = if a > 0 { h[cfg.index(i - 1, j)] } else { 0.0 };
                    let down_j = if e > 0 { h[cfg.index(i, j - 1)] } else { 0.0 };
                    let stay = lam - cfg.lambda_i - cfg.lambda_e - d_i - d_e;
                    debug_assert!(stay >= -1e-9);
                    let v = base + d_i * down_i + d_e * down_j + stay * h[s];
                    // Strictly-better or tie-with-larger-a wins.
                    if v < best - 1e-12 || (v < best + 1e-12 && (a, e) > best_action) {
                        if v < best {
                            best = v;
                        }
                        best_action = (a, e);
                    }
                }
                let value = best / lam;
                h_next[s] = value;
                actions[s] = best_action;
                let delta = value - h[s];
                min_delta = min_delta.min(delta);
                max_delta = max_delta.max(delta);
            }
        }
        // Average cost per unit time: deltas converge to g/Λ. The span
        // is scaled by Λ alike, as in `evaluate_policy`.
        let g_estimate = 0.5 * (min_delta + max_delta) * lam;
        span = (max_delta - min_delta) * lam;
        // Renormalize (relative VI) to keep h bounded.
        let offset = h_next[0];
        for (dst, src) in h.iter_mut().zip(&h_next) {
            *dst = src - offset;
        }
        if span < tol {
            return Ok(MdpSolution {
                average_cost: g_estimate,
                actions,
                k: cfg.k,
                max_i: cfg.max_i,
                max_j: cfg.max_j,
                iterations: it + 1,
            });
        }
    }
    Err(MdpError::NotConverged {
        iterations: max_iter,
        span,
    })
}

/// Evaluates a *fixed* stationary policy on the truncated chain, returning
/// its long-run average number in system `E[N]`.
///
/// Allocations may be fractional; they are clamped to the feasible polytope.
pub fn evaluate_policy(
    cfg: &MdpConfig,
    policy: PolicyFn<'_>,
    tol: f64,
    max_iter: usize,
) -> Result<f64, MdpError> {
    cfg.validate();
    let n = cfg.states();
    let lam = cfg.uniformization_rate();
    let kf = cfg.k as f64;
    // Precompute per-state rates.
    let mut rate_i = vec![0.0f64; n];
    let mut rate_e = vec![0.0f64; n];
    for i in 0..=cfg.max_i {
        for j in 0..=cfg.max_j {
            let (a, e) = policy(i, j);
            let a = a.clamp(0.0, (i as f64).min(kf));
            let e = if j > 0 { e.clamp(0.0, kf - a) } else { 0.0 };
            let s = cfg.index(i, j);
            rate_i[s] = a * cfg.mu_i;
            rate_e[s] = e * cfg.mu_e;
        }
    }
    let mut h = vec![0.0f64; n];
    let mut h_next = vec![0.0f64; n];
    for it in 0..max_iter {
        let mut min_delta = f64::INFINITY;
        let mut max_delta = f64::NEG_INFINITY;
        for i in 0..=cfg.max_i {
            for j in 0..=cfg.max_j {
                let s = cfg.index(i, j);
                let up_i = if i < cfg.max_i {
                    h[cfg.index(i + 1, j)]
                } else {
                    h[s]
                };
                let up_j = if j < cfg.max_j {
                    h[cfg.index(i, j + 1)]
                } else {
                    h[s]
                };
                let down_i = if i > 0 { h[cfg.index(i - 1, j)] } else { 0.0 };
                let down_j = if j > 0 { h[cfg.index(i, j - 1)] } else { 0.0 };
                let d_i = rate_i[s];
                let d_e = rate_e[s];
                let stay = lam - cfg.lambda_i - cfg.lambda_e - d_i - d_e;
                let v = ((i + j) as f64
                    + cfg.lambda_i * up_i
                    + cfg.lambda_e * up_j
                    + d_i * down_i
                    + d_e * down_j
                    + stay * h[s])
                    / lam;
                h_next[s] = v;
                let delta = v - h[s];
                min_delta = min_delta.min(delta);
                max_delta = max_delta.max(delta);
            }
        }
        let g = 0.5 * (min_delta + max_delta) * lam;
        let span = max_delta - min_delta;
        let offset = h_next[0];
        for (dst, src) in h.iter_mut().zip(&h_next) {
            *dst = src - offset;
        }
        if span * lam < tol {
            return Ok(g);
        }
        if it == max_iter - 1 {
            return Err(MdpError::NotConverged {
                iterations: max_iter,
                span: span * lam,
            });
        }
    }
    unreachable!("loop returns");
}

/// [`evaluate_policy`] for a shared-layer [`AllocationPolicy`]: evaluates
/// the policy's allocation map on the truncated grid, returning its
/// long-run average number in system `E[N]`. This is the third substrate
/// (after the QBD analysis and the simulators) on which any policy from
/// the shared registry can be scored.
pub fn evaluate_allocation_policy(
    cfg: &MdpConfig,
    policy: &dyn AllocationPolicy,
    tol: f64,
    max_iter: usize,
) -> Result<f64, MdpError> {
    let k = cfg.k;
    evaluate_policy(
        cfg,
        &move |i, j| {
            let a = policy.allocate(i, j, k);
            (a.inelastic, a.elastic)
        },
        tol,
        max_iter,
    )
}

/// The IF allocation as a [`PolicyFn`]-compatible closure target.
pub fn if_allocation(k: u32) -> impl Fn(usize, usize) -> (f64, f64) {
    move |i, j| {
        let kf = k as f64;
        let a = (i as f64).min(kf);
        let e = if j > 0 { kf - a } else { 0.0 };
        (a, e)
    }
}

/// The EF allocation as a [`PolicyFn`]-compatible closure target.
pub fn ef_allocation(k: u32) -> impl Fn(usize, usize) -> (f64, f64) {
    move |i, j| {
        let kf = k as f64;
        if j > 0 {
            (0.0, kf)
        } else {
            ((i as f64).min(kf), 0.0)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cfg(k: u32, li: f64, le: f64, mi: f64, me: f64, n: usize) -> MdpConfig {
        MdpConfig {
            k,
            lambda_i: li,
            lambda_e: le,
            mu_i: mi,
            mu_e: me,
            max_i: n,
            max_j: n,
            allow_idling: false,
        }
    }

    #[test]
    fn policy_evaluation_recovers_mm1() {
        // Pure inelastic M/M/1: E[N] = ρ/(1−ρ) = 1 at ρ = 0.5.
        let c = cfg(1, 0.5, 0.0, 1.0, 1.0, 80);
        let g = evaluate_policy(&c, &if_allocation(1), 1e-10, 200_000).unwrap();
        assert!((g - 1.0).abs() < 1e-6, "E[N] {g}");
    }

    #[test]
    fn policy_evaluation_recovers_mmk() {
        let c = cfg(4, 3.0, 0.0, 1.0, 1.0, 80);
        let g = evaluate_policy(&c, &if_allocation(4), 1e-10, 200_000).unwrap();
        let want = eirs_queueing::MMk::new(3.0, 1.0, 4).mean_number_in_system();
        assert!((g - want).abs() / want < 1e-6, "E[N] {g} vs {want}");
    }

    #[test]
    fn optimal_cost_is_no_worse_than_if_and_ef() {
        let c = cfg(2, 0.4, 0.4, 1.0, 1.2, 40);
        let opt = solve_optimal(&c, 1e-9, 200_000).unwrap();
        let g_if = evaluate_policy(&c, &if_allocation(2), 1e-9, 200_000).unwrap();
        let g_ef = evaluate_policy(&c, &ef_allocation(2), 1e-9, 200_000).unwrap();
        assert!(opt.average_cost <= g_if + 1e-6);
        assert!(opt.average_cost <= g_ef + 1e-6);
    }

    #[test]
    fn if_is_optimal_when_mu_i_geq_mu_e() {
        // Theorem 5 numerically: the optimal average cost equals IF's.
        for (mi, me) in [(1.0, 1.0), (1.5, 1.0), (2.0, 0.5)] {
            let c = cfg(2, 0.5, 0.3, mi, me, 50);
            let opt = solve_optimal(&c, 1e-9, 400_000).unwrap();
            let g_if = evaluate_policy(&c, &if_allocation(2), 1e-9, 400_000).unwrap();
            assert!(
                (opt.average_cost - g_if).abs() < 1e-5,
                "(µI={mi}, µE={me}): opt {} vs IF {g_if}",
                opt.average_cost
            );
        }
    }

    #[test]
    fn if_is_strictly_suboptimal_for_small_mu_i_at_load() {
        // µ_I < µ_E with enough load: the optimal policy beats IF.
        let c = cfg(2, 0.5, 0.5, 0.25, 1.0, 60);
        let opt = solve_optimal(&c, 1e-9, 400_000).unwrap();
        let g_if = evaluate_policy(&c, &if_allocation(2), 1e-9, 400_000).unwrap();
        assert!(
            opt.average_cost < g_if - 1e-3,
            "opt {} vs IF {g_if}",
            opt.average_cost
        );
    }

    #[test]
    fn extracted_policy_is_if_in_the_optimal_regime() {
        let c = cfg(2, 0.5, 0.3, 2.0, 1.0, 30);
        let opt = solve_optimal(&c, 1e-9, 400_000).unwrap();
        assert!(opt.matches_inelastic_first(2, 12, 12));
    }

    #[test]
    fn idling_never_helps() {
        // Appendix B / Theorem 12 numerically: expanding the action space
        // with idling vertices does not lower the optimal cost.
        for (mi, me) in [(1.0, 1.0), (0.5, 1.0), (2.0, 1.0)] {
            let base = cfg(2, 0.4, 0.4, mi, me, 30);
            let idling = MdpConfig {
                allow_idling: true,
                ..base
            };
            let g_base = solve_optimal(&base, 1e-9, 400_000).unwrap().average_cost;
            let g_idle = solve_optimal(&idling, 1e-9, 400_000).unwrap().average_cost;
            assert!(
                (g_base - g_idle).abs() < 1e-5,
                "(µI={mi}, µE={me}): non-idling {g_base} vs idling {g_idle}"
            );
        }
    }

    #[test]
    fn tabular_bridge_reproduces_the_optimal_average_cost() {
        // Re-evaluating the solver's own policy through the TabularPolicy
        // bridge must return the optimal average cost: solver → policy →
        // evaluator closes the loop.
        let c = cfg(2, 0.5, 0.5, 0.25, 1.0, 40);
        let opt = solve_optimal(&c, 1e-9, 400_000).unwrap();
        let policy = opt.tabular_policy();
        assert_eq!(policy.k(), 2);
        assert_eq!((policy.max_i(), policy.max_j()), (40, 40));
        let g = evaluate_allocation_policy(&c, &policy, 1e-9, 400_000).unwrap();
        assert!(
            (g - opt.average_cost).abs() < 1e-6,
            "bridge {g} vs optimal {}",
            opt.average_cost
        );
    }

    #[test]
    fn allocation_policy_evaluation_matches_closure_evaluation() {
        let c = cfg(2, 0.4, 0.4, 1.0, 1.2, 40);
        let g_closure = evaluate_policy(&c, &if_allocation(2), 1e-9, 200_000).unwrap();
        let g_policy =
            evaluate_allocation_policy(&c, &eirs_sim::policy::InelasticFirst, 1e-9, 200_000)
                .unwrap();
        assert_eq!(g_closure.to_bits(), g_policy.to_bits());
    }

    #[test]
    fn mean_response_uses_littles_law() {
        let c = cfg(2, 0.4, 0.4, 1.0, 1.0, 40);
        let opt = solve_optimal(&c, 1e-9, 200_000).unwrap();
        assert!((opt.mean_response(0.8) - opt.average_cost / 0.8).abs() < 1e-12);
    }

    #[test]
    fn unconverged_solve_reports_its_span_like_policy_evaluation() {
        let c = MdpConfig {
            max_j: 12,
            ..cfg(2, 0.5, 0.5, 1.0, 1.0, 10)
        };
        let eval = evaluate_policy(&c, &if_allocation(2), 1e-9, 1).unwrap_err();
        let MdpError::NotConverged { iterations, span } = eval.clone();
        assert_eq!(iterations, 1);
        // One sweep from h = 0: the span is the largest cost, 10 + 12.
        assert!((span - 22.0).abs() < 1e-12, "span {span}");
        assert_eq!(solve_optimal(&c, 1e-9, 1).unwrap_err(), eval);
    }

    #[test]
    fn truncation_error_shrinks_with_grid() {
        let coarse = cfg(1, 0.5, 0.0, 1.0, 1.0, 10);
        let fine = cfg(1, 0.5, 0.0, 1.0, 1.0, 60);
        let g_coarse = evaluate_policy(&coarse, &if_allocation(1), 1e-10, 100_000).unwrap();
        let g_fine = evaluate_policy(&fine, &if_allocation(1), 1e-10, 100_000).unwrap();
        assert!((g_fine - 1.0).abs() < (g_coarse - 1.0).abs());
    }
}
