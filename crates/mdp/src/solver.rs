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

/// The action-independent terms of one state's one-step value on the
/// uniformized chain.
struct Step {
    /// Cost rate plus the arrival terms.
    base: f64,
    /// `h` one inelastic departure down (0 at `i = 0`).
    down_i: f64,
    /// `h` one elastic departure down (0 at `j = 0`).
    down_j: f64,
    /// `h` in this state.
    here: f64,
    /// `Λ − λ_I − λ_E`: the rate left to departures and self-loops.
    spare: f64,
}

impl Step {
    /// The one-step value, times `Λ`, of serving at departure rates
    /// `(d_i, d_e)`.
    fn value(&self, d_i: f64, d_e: f64) -> f64 {
        let stay = self.spare - d_i - d_e;
        debug_assert!(stay >= -1e-9);
        self.base + d_i * self.down_i + d_e * self.down_j + stay * self.here
    }
}

/// Relative value iteration on the uniformized chain: in every sweep,
/// `choose(s, step)` returns state `s`'s chosen one-step value. Returns
/// the average cost and the sweeps used.
fn relative_value_iteration(
    cfg: &MdpConfig,
    tol: f64,
    max_iter: usize,
    mut choose: impl FnMut(usize, &Step) -> f64,
) -> Result<(f64, usize), MdpError> {
    let n = cfg.states();
    let lam = cfg.uniformization_rate();
    let spare = lam - cfg.lambda_i - cfg.lambda_e;
    let mut h = vec![0.0f64; n];
    let mut h_next = vec![0.0f64; n];

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
                let step = Step {
                    base: cost + cfg.lambda_i * up_i + cfg.lambda_e * up_j,
                    down_i: if i > 0 { h[cfg.index(i - 1, j)] } else { 0.0 },
                    down_j: if j > 0 { h[cfg.index(i, j - 1)] } else { 0.0 },
                    here: h[s],
                    spare,
                };
                let value = choose(s, &step) / lam;
                h_next[s] = value;
                let delta = value - h[s];
                min_delta = min_delta.min(delta);
                max_delta = max_delta.max(delta);
            }
        }
        // Average cost per unit time: deltas converge to g/Λ; the span is
        // scaled by Λ alike.
        let g_estimate = 0.5 * (min_delta + max_delta) * lam;
        span = (max_delta - min_delta) * lam;
        // Renormalize (relative VI) to keep h bounded.
        let offset = h_next[0];
        for (dst, src) in h.iter_mut().zip(&h_next) {
            *dst = src - offset;
        }
        if span < tol {
            return Ok((g_estimate, it + 1));
        }
    }
    Err(MdpError::NotConverged {
        iterations: max_iter,
        span,
    })
}

/// Solves the truncated average-cost MDP by relative value iteration over
/// the vertices of each state's allocation polytope.
///
/// Ties in the Bellman minimization are broken toward *larger* inelastic
/// allocations, so in the `µ_I = µ_E` regime (where many allocations are
/// optimal) the extracted policy is IF itself.
pub fn solve_optimal(cfg: &MdpConfig, tol: f64, max_iter: usize) -> Result<MdpSolution, MdpError> {
    cfg.validate();
    let k = cfg.k;
    // Every state's vertices `(a, e)` with their departure rates, built
    // once, row-major in one flat list: state `s` owns
    // `vertices[starts[s]..starts[s + 1]]`.
    let mut vertices = Vec::new();
    let mut starts = vec![0];
    for i in 0..=cfg.max_i {
        for j in 0..=cfg.max_j {
            let cap = (i as u32).min(k);
            let mut vertex = |a: u32, e: u32| {
                vertices.push(((a, e), a as f64 * cfg.mu_i, e as f64 * cfg.mu_e));
            };
            if j == 0 && !cfg.allow_idling {
                vertex(cap, 0);
            } else if j == 0 {
                for a in 0..=cap {
                    vertex(a, 0);
                }
            } else {
                for a in 0..=cap {
                    vertex(a, k - a);
                    if cfg.allow_idling {
                        vertex(a, 0);
                    }
                }
            }
            starts.push(vertices.len());
        }
    }
    let mut actions = vec![(0u32, 0u32); cfg.states()];
    let (average_cost, iterations) = relative_value_iteration(cfg, tol, max_iter, |s, step| {
        let mut best = f64::INFINITY;
        let mut best_action = (0u32, 0u32);
        for &(action, d_i, d_e) in &vertices[starts[s]..starts[s + 1]] {
            let v = step.value(d_i, d_e);
            // Strictly-better or tie-with-larger-a wins.
            if v < best - 1e-12 || (v < best + 1e-12 && action > best_action) {
                if v < best {
                    best = v;
                }
                best_action = action;
            }
        }
        actions[s] = best_action;
        best
    })?;
    Ok(MdpSolution {
        average_cost,
        actions,
        k: cfg.k,
        max_i: cfg.max_i,
        max_j: cfg.max_j,
        iterations,
    })
}

/// Evaluates a fixed stationary [`AllocationPolicy`] on the truncated
/// chain, returning its long-run average number in system `E[N]`. This is
/// the third substrate (after the QBD analysis and the simulators) on
/// which any policy from the shared registry can be scored.
///
/// Allocations may be fractional; each state's allocation is clamped to
/// the feasible polytope once, and the value iteration runs with it as
/// the state's one action.
pub fn evaluate_policy(
    cfg: &MdpConfig,
    policy: &dyn AllocationPolicy,
    tol: f64,
    max_iter: usize,
) -> Result<f64, MdpError> {
    cfg.validate();
    let kf = cfg.k as f64;
    // Per-state departure rates, row-major over (i, j).
    let mut rate_i = Vec::with_capacity(cfg.states());
    let mut rate_e = Vec::with_capacity(cfg.states());
    for i in 0..=cfg.max_i {
        for j in 0..=cfg.max_j {
            let alloc = policy.allocate(i, j, cfg.k);
            let a = alloc.inelastic.clamp(0.0, (i as f64).min(kf));
            let e = if j > 0 {
                alloc.elastic.clamp(0.0, kf - a)
            } else {
                0.0
            };
            rate_i.push(a * cfg.mu_i);
            rate_e.push(e * cfg.mu_e);
        }
    }
    let (average_cost, _) = relative_value_iteration(cfg, tol, max_iter, |s, step| {
        step.value(rate_i[s], rate_e[s])
    })?;
    Ok(average_cost)
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_sim::policy::{ElasticFirst, InelasticFirst};

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
        let g = evaluate_policy(&c, &InelasticFirst, 1e-10, 200_000).unwrap();
        assert!((g - 1.0).abs() < 1e-6, "E[N] {g}");
    }

    #[test]
    fn policy_evaluation_recovers_mmk() {
        let c = cfg(4, 3.0, 0.0, 1.0, 1.0, 80);
        let g = evaluate_policy(&c, &InelasticFirst, 1e-10, 200_000).unwrap();
        let want = eirs_queueing::MMk::new(3.0, 1.0, 4).mean_number_in_system();
        assert!((g - want).abs() / want < 1e-6, "E[N] {g} vs {want}");
    }

    #[test]
    fn optimal_cost_is_no_worse_than_if_and_ef() {
        let c = cfg(2, 0.4, 0.4, 1.0, 1.2, 40);
        let opt = solve_optimal(&c, 1e-9, 200_000).unwrap();
        let g_if = evaluate_policy(&c, &InelasticFirst, 1e-9, 200_000).unwrap();
        let g_ef = evaluate_policy(&c, &ElasticFirst, 1e-9, 200_000).unwrap();
        assert!(opt.average_cost <= g_if + 1e-6);
        assert!(opt.average_cost <= g_ef + 1e-6);
    }

    #[test]
    fn if_is_optimal_when_mu_i_geq_mu_e() {
        // Theorem 5 numerically: the optimal average cost equals IF's.
        for (mi, me) in [(1.0, 1.0), (1.5, 1.0), (2.0, 0.5)] {
            let c = cfg(2, 0.5, 0.3, mi, me, 50);
            let opt = solve_optimal(&c, 1e-9, 400_000).unwrap();
            let g_if = evaluate_policy(&c, &InelasticFirst, 1e-9, 400_000).unwrap();
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
        let g_if = evaluate_policy(&c, &InelasticFirst, 1e-9, 400_000).unwrap();
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
        let g = evaluate_policy(&c, &policy, 1e-9, 400_000).unwrap();
        assert!(
            (g - opt.average_cost).abs() < 1e-6,
            "bridge {g} vs optimal {}",
            opt.average_cost
        );
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
        let eval = evaluate_policy(&c, &InelasticFirst, 1e-9, 1).unwrap_err();
        let MdpError::NotConverged { iterations, span } = eval.clone();
        assert_eq!(iterations, 1);
        // One sweep from h = 0: the span is the largest cost, 10 + 12.
        assert!((span - 22.0).abs() < 1e-12, "span {span}");
        assert_eq!(solve_optimal(&c, 1e-9, 1).unwrap_err(), eval);
    }

    /// No sweep at all: nothing has contracted, so the span is infinite.
    const NO_SWEEP: MdpError = MdpError::NotConverged {
        iterations: 0,
        span: f64::INFINITY,
    };

    #[test]
    fn policy_evaluation_without_iterations_reports_not_converged() {
        let c = cfg(2, 0.5, 0.5, 1.0, 1.0, 10);
        assert_eq!(
            evaluate_policy(&c, &InelasticFirst, 1e-9, 0).unwrap_err(),
            NO_SWEEP
        );
    }

    #[test]
    fn solve_without_iterations_reports_not_converged() {
        let c = cfg(2, 0.5, 0.5, 1.0, 1.0, 10);
        assert_eq!(solve_optimal(&c, 1e-9, 0).unwrap_err(), NO_SWEEP);
    }

    #[test]
    fn truncation_error_shrinks_with_grid() {
        let coarse = cfg(1, 0.5, 0.0, 1.0, 1.0, 10);
        let fine = cfg(1, 0.5, 0.0, 1.0, 1.0, 60);
        let g_coarse = evaluate_policy(&coarse, &InelasticFirst, 1e-10, 100_000).unwrap();
        let g_fine = evaluate_policy(&fine, &InelasticFirst, 1e-10, 100_000).unwrap();
        assert!((g_fine - 1.0).abs() < (g_coarse - 1.0).abs());
    }
}
