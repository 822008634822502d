//! Quasi-birth–death (QBD) chains and matrix-analytic solvers.
//!
//! A QBD is a CTMC whose states are organized into *levels* `ℓ = 0, 1, 2, …`
//! each holding `p` *phases*, where transitions only reach neighboring
//! levels. After a finite level-dependent boundary (levels `0..m-1`), the
//! transition blocks repeat:
//!
//! ```text
//! A0: level ℓ → ℓ+1     A1: within level (off-diagonal)     A2: level ℓ → ℓ−1
//! ```
//!
//! The stationary distribution then has a matrix-geometric tail
//! `π_{m+j} = π_m R^j`, where `R` is the minimal nonnegative solution of
//!
//! ```text
//! A0 + R Â1 + R² A2 = 0,       Â1 = A1 − diag(rowsums(A0 + A1 + A2)).
//! ```
//!
//! This module implements both the classical linear fixed-point iteration
//! and Latouche–Ramaswami logarithmic reduction (quadratically convergent,
//! the default), plus the boundary solve and level-distribution moments.
//! The busy-period-transformed EF and IF chains of the paper (Figures 3c
//! and 7c) are solved exactly through this interface.

use std::cell::RefCell;

use eirs_numerics::lu::{LinAlgError, LuDecomposition};
use eirs_numerics::Matrix;
use eirs_obs::LazyCounter;

/// Telemetry counter names reported by the QBD solvers (see
/// `docs/OBSERVABILITY.md` for the full catalog). Counters are recorded
/// through `eirs_obs` and only when the observability layer is enabled;
/// they never influence what a solve computes or returns.
pub mod telemetry {
    /// `R` solves.
    pub const COLD_SOLVES: &str = "markov.solve.cold";
    /// Inner iterations spent in the `R` solvers (fixed-point steps or
    /// logarithmic-reduction rounds).
    pub const COLD_ITERATIONS: &str = "markov.solve.cold_iterations";
}

static C_COLD_SOLVES: LazyCounter = LazyCounter::new(telemetry::COLD_SOLVES);
static C_COLD_ITER: LazyCounter = LazyCounter::new(telemetry::COLD_ITERATIONS);

/// Which algorithm computes the rate matrix `R`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RSolver {
    /// Latouche–Ramaswami logarithmic reduction (quadratic convergence).
    #[default]
    LogarithmicReduction,
    /// Classical fixed-point iteration `R ← −(A0 + R²A2)Â1^{-1}`
    /// (linear convergence; kept as an independent reference).
    FixedPoint,
}

/// Errors from QBD construction or solution.
#[derive(Debug, Clone, PartialEq)]
pub enum QbdError {
    /// Block shapes are inconsistent.
    Dimension(String),
    /// The chain is not positive recurrent: `sp(R) ≥ 1`.
    Unstable {
        /// Estimated spectral radius of `R`.
        spectral_radius: f64,
    },
    /// The R iteration failed to converge.
    NotConverged {
        /// Iterations performed before giving up.
        iterations: usize,
        /// Residual `‖A0 + RÂ1 + R²A2‖_max` at exit.
        residual: f64,
    },
    /// A linear solve failed (singular boundary system, etc.).
    LinAlg(LinAlgError),
}

impl std::fmt::Display for QbdError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            QbdError::Dimension(msg) => write!(f, "QBD dimension error: {msg}"),
            QbdError::Unstable { spectral_radius } => {
                write!(f, "QBD is unstable: sp(R) = {spectral_radius:.6} >= 1")
            }
            QbdError::NotConverged {
                iterations,
                residual,
            } => {
                write!(f, "R iteration did not converge after {iterations} iterations (residual {residual:.3e})")
            }
            QbdError::LinAlg(e) => write!(f, "QBD linear algebra failure: {e}"),
        }
    }
}

impl std::error::Error for QbdError {}

impl From<LinAlgError> for QbdError {
    fn from(e: LinAlgError) -> Self {
        QbdError::LinAlg(e)
    }
}

/// A level-dependent-boundary QBD.
///
/// Levels `0..m-1` are the boundary (`m = boundary_local.len() ≥ 1`), level
/// `m` and beyond repeat with blocks `(a0, a1, a2)`. Off-diagonal rates
/// only; diagonals are derived.
#[derive(Debug, Clone)]
pub struct Qbd {
    /// `U_ℓ` for `ℓ = 0..m-1`: level `ℓ → ℓ+1` (the last one feeds level `m`).
    boundary_up: Vec<Matrix>,
    /// `L_ℓ` for `ℓ = 0..m-1`: within-level off-diagonal blocks.
    boundary_local: Vec<Matrix>,
    /// `D_ℓ` for `ℓ = 1..m-1` (indexed `boundary_down[ℓ-1]`): level `ℓ → ℓ−1`.
    boundary_down: Vec<Matrix>,
    a0: Matrix,
    a1: Matrix,
    a2: Matrix,
}

impl Qbd {
    /// Builds and validates a QBD. See type-level docs for block layout.
    pub fn new(
        boundary_up: Vec<Matrix>,
        boundary_local: Vec<Matrix>,
        boundary_down: Vec<Matrix>,
        a0: Matrix,
        a1: Matrix,
        a2: Matrix,
    ) -> Result<Self, QbdError> {
        let p = a0.rows();
        let m = boundary_local.len();
        if m == 0 {
            return Err(QbdError::Dimension(
                "need at least one boundary level".into(),
            ));
        }
        if boundary_up.len() != m {
            return Err(QbdError::Dimension(format!(
                "boundary_up has {} blocks, expected {m}",
                boundary_up.len()
            )));
        }
        if boundary_down.len() + 1 != m {
            return Err(QbdError::Dimension(format!(
                "boundary_down has {} blocks, expected {}",
                boundary_down.len(),
                m - 1
            )));
        }
        let all_blocks = boundary_up
            .iter()
            .chain(&boundary_local)
            .chain(&boundary_down)
            .chain([&a0, &a1, &a2]);
        for b in all_blocks {
            if b.rows() != p || b.cols() != p {
                return Err(QbdError::Dimension(format!(
                    "block is {}x{}, expected {p}x{p}",
                    b.rows(),
                    b.cols()
                )));
            }
            if b.as_slice().iter().any(|&v| v < 0.0 || !v.is_finite()) {
                return Err(QbdError::Dimension(
                    "blocks must be nonnegative and finite".into(),
                ));
            }
        }
        Ok(Self {
            boundary_up,
            boundary_local,
            boundary_down,
            a0,
            a1,
            a2,
        })
    }

    /// Builds a QBD from a **level-homogeneous rate map**: three closures
    /// giving the off-diagonal transition rates out of `(level, phase)`
    /// states, queried as `(level, from_phase, to_phase)`.
    ///
    /// * `up(ℓ, a, b)` — rate from `(ℓ, a)` to `(ℓ+1, b)`;
    /// * `local(ℓ, a, b)` — rate from `(ℓ, a)` to `(ℓ, b)` (`a ≠ b`);
    /// * `down(ℓ, a, b)` — rate from `(ℓ, a)` to `(ℓ−1, b)` (unused at
    ///   `ℓ = 0`).
    ///
    /// Levels `0..boundary_levels-1` form the level-dependent boundary; the
    /// repeating blocks `(A0, A1, A2)` are sampled at
    /// `level = boundary_levels`, so the closures **must** be
    /// level-independent from there on (this is what "level-homogeneous"
    /// means; [`Qbd::new`] still validates shapes and nonnegativity, and a
    /// debug assertion cross-checks homogeneity one level deeper). This is
    /// the generator behind the policy-generic analysis in `eirs-core`:
    /// an allocation policy's `(π_I, π_E)` map becomes service rates, and
    /// this builder turns them into QBD blocks.
    pub fn from_rate_fns(
        phases: usize,
        boundary_levels: usize,
        up: impl Fn(usize, usize, usize) -> f64,
        local: impl Fn(usize, usize, usize) -> f64,
        down: impl Fn(usize, usize, usize) -> f64,
    ) -> Result<Self, QbdError> {
        if phases == 0 {
            return Err(QbdError::Dimension("need at least one phase".into()));
        }
        if boundary_levels == 0 {
            return Err(QbdError::Dimension(
                "need at least one boundary level".into(),
            ));
        }
        let fill = |f: &dyn Fn(usize, usize, usize) -> f64, level: usize| {
            let mut m = Matrix::zeros(phases, phases);
            for a in 0..phases {
                for b in 0..phases {
                    let v = f(level, a, b);
                    if v != 0.0 {
                        m[(a, b)] = v;
                    }
                }
            }
            m
        };
        let boundary_up: Vec<Matrix> = (0..boundary_levels).map(|l| fill(&up, l)).collect();
        let boundary_local: Vec<Matrix> = (0..boundary_levels).map(|l| fill(&local, l)).collect();
        let boundary_down: Vec<Matrix> = (1..boundary_levels).map(|l| fill(&down, l)).collect();
        let m = boundary_levels;
        let a0 = fill(&up, m);
        let a1 = fill(&local, m);
        let a2 = fill(&down, m);
        debug_assert!(
            {
                let next = m + 1;
                fill(&up, next) == a0 && fill(&local, next) == a1 && fill(&down, next) == a2
            },
            "rate map is not level-homogeneous beyond the boundary"
        );
        Self::new(boundary_up, boundary_local, boundary_down, a0, a1, a2)
    }

    /// Assembles the classical **MAP/PH/1** queue as a QBD: arrivals from a
    /// Markovian arrival process `(d0, d1)` on `p_a` phases, service times
    /// phase-type `PH(alpha, s)` on `p_s` phases, one server.
    ///
    /// Level `n` is the number of jobs in system; the phase is the pair
    /// (arrival phase `m`, service phase `j`), indexed `m·p_s + j`:
    ///
    /// * **up** — an arrival transition `d1[m][m']` (service phase kept);
    /// * **local** — a silent arrival-phase change `d0[m][m']` or an
    ///   internal service transition `s[j][j']` (at level 0 nothing is in
    ///   service, so only the arrival part runs);
    /// * **down** — a service completion `s⁰[j]·alpha[j']`, pre-drawing
    ///   the next job's initial service phase from `alpha`.
    ///
    /// The chain is level-homogeneous from level 1, so the boundary is a
    /// single level. Takes raw matrices (this crate is deliberately
    /// independent of `eirs_queueing`); `eirs_core::scenario` wires
    /// `MapProcess` and `PhaseType` values into it for the analytically
    /// tractable workload scenarios.
    pub fn map_ph1(d0: &Matrix, d1: &Matrix, alpha: &[f64], s: &Matrix) -> Result<Self, QbdError> {
        let p_a = d0.rows();
        let p_s = alpha.len();
        if !d0.is_square() || !d1.is_square() || d1.rows() != p_a {
            return Err(QbdError::Dimension("D0/D1 must be square and equal".into()));
        }
        if !s.is_square() || s.rows() != p_s {
            return Err(QbdError::Dimension(
                "service sub-generator must be p_s x p_s".into(),
            ));
        }
        if p_a == 0 || p_s == 0 {
            return Err(QbdError::Dimension("need at least one phase".into()));
        }
        let alpha_sum: f64 = alpha.iter().sum();
        if (alpha_sum - 1.0).abs() > 1e-9 || alpha.iter().any(|&a| a < 0.0) {
            return Err(QbdError::Dimension(
                "alpha must be a probability distribution".into(),
            ));
        }
        // Absorption (completion) rate out of each service phase.
        let exit: Vec<f64> = (0..p_s)
            .map(|j| -(0..p_s).map(|l| s[(j, l)]).sum::<f64>())
            .collect();
        if exit.iter().any(|&e| e < -1e-9) {
            return Err(QbdError::Dimension(
                "service sub-generator rows must sum <= 0".into(),
            ));
        }
        let phases = p_a * p_s;
        let split = |idx: usize| (idx / p_s, idx % p_s);
        Self::from_rate_fns(
            phases,
            1,
            |_, a, b| {
                let ((m, j), (m2, j2)) = (split(a), split(b));
                if j == j2 {
                    d1[(m, m2)]
                } else {
                    0.0
                }
            },
            |level, a, b| {
                if a == b {
                    return 0.0;
                }
                let ((m, j), (m2, j2)) = (split(a), split(b));
                if j == j2 && m != m2 {
                    d0[(m, m2)]
                } else if m == m2 && level >= 1 {
                    // Internal service transition; frozen below level 1.
                    s[(j, j2)]
                } else {
                    0.0
                }
            },
            |_, a, b| {
                let ((m, j), (m2, j2)) = (split(a), split(b));
                if m == m2 {
                    exit[j].max(0.0) * alpha[j2]
                } else {
                    0.0
                }
            },
        )
    }

    /// Phase dimension `p`.
    pub fn phases(&self) -> usize {
        self.a0.rows()
    }

    /// Number of boundary levels `m` (levels `0..m-1`; level `m` repeats).
    pub fn boundary_levels(&self) -> usize {
        self.boundary_local.len()
    }

    /// The repeating local block with its diagonal filled in:
    /// `Â1 = A1 − diag(rowsums(A0 + A1 + A2))`.
    fn a1_hat(&self) -> Matrix {
        let p = self.phases();
        let mut a1h = self.a1.clone();
        for i in 0..p {
            let exit: f64 = self.a0.row(i).iter().sum::<f64>()
                + self.a1.row(i).iter().sum::<f64>()
                + self.a2.row(i).iter().sum::<f64>();
            a1h[(i, i)] -= exit;
        }
        a1h
    }

    /// Computes the rate matrix `R` with the requested algorithm, using a
    /// thread-local pooled workspace: sweep workers that solve thousands
    /// of same-shaped chains through this entry point allocate nothing
    /// per solve after the first.
    pub fn solve_r(&self, solver: RSolver) -> Result<Matrix, QbdError> {
        with_pooled_workspace(self.phases(), |ws| self.solve_r_with_workspace(solver, ws))
    }

    /// Computes the rate matrix `R`, reusing `ws` as scratch storage so
    /// that the iteration allocates nothing per step. This is the hot path
    /// behind every figure sweep; callers solving many QBDs of the same
    /// phase dimension should reuse one workspace across solves.
    pub fn solve_r_with_workspace(
        &self,
        solver: RSolver,
        ws: &mut QbdWorkspace,
    ) -> Result<Matrix, QbdError> {
        C_COLD_SOLVES.inc();
        let a1h = self.a1_hat();
        ws.reset(self.phases());
        let r = match solver {
            RSolver::FixedPoint => self.r_fixed_point(&a1h, ws)?,
            RSolver::LogarithmicReduction => self.r_logarithmic_reduction(&a1h, ws)?,
        };
        // Positive recurrence check: sp(R) < 1.
        if let Err(sp) = certify_stable_r(&r, &mut ws.pv, &mut ws.pw) {
            return Err(QbdError::Unstable {
                spectral_radius: sp,
            });
        }
        Ok(r)
    }

    /// Computes `R` with the original allocation-per-step implementation.
    ///
    /// Kept as an independent reference for differential tests (the
    /// workspace path must reproduce it bit for bit) and for the
    /// `sweep_speedup` benchmark that records the speedup of the
    /// allocation-free path. Not for production use.
    pub fn solve_r_reference(&self, solver: RSolver) -> Result<Matrix, QbdError> {
        let a1h = self.a1_hat();
        let r = match solver {
            RSolver::FixedPoint => self.r_fixed_point_reference(&a1h)?,
            RSolver::LogarithmicReduction => self.r_logarithmic_reduction_reference(&a1h)?,
        };
        let sp = spectral_radius_estimate(&r);
        if sp >= 1.0 - 1e-10 {
            return Err(QbdError::Unstable {
                spectral_radius: sp,
            });
        }
        Ok(r)
    }

    /// Fixed point `R ← C0 + R² C2` with `C0 = −A0 Â1^{-1}`,
    /// `C2 = −A2 Â1^{-1}`. The constant `Â1` is LU-factored exactly once,
    /// before the loop; each iteration then runs entirely in workspace
    /// buffers (two `mul_into`, one copy, one AXPY — zero allocations).
    fn r_fixed_point(&self, a1h: &Matrix, ws: &mut QbdWorkspace) -> Result<Matrix, QbdError> {
        // One-time factorization of the constant Â1, done before the loop.
        ws.lu.refactor(a1h)?;
        ws.lu.inverse_into(&mut ws.w, &mut ws.col)?;
        // C0 = −A0 Â1^{-1}, C2 = −A2 Â1^{-1}: the loop constants.
        self.a0.mul_into(&ws.w, &mut ws.c0);
        ws.c0.scale_mut(-1.0);
        self.a2.mul_into(&ws.w, &mut ws.c2);
        ws.c2.scale_mut(-1.0);

        ws.r.fill(0.0);
        let max_iter = 500_000;
        for it in 0..max_iter {
            C_COLD_ITER.inc();
            // R² into m0, then (R²)C2 into m2, then next = C0 + R²C2.
            Matrix::mul_into(&ws.r, &ws.r, &mut ws.m0);
            ws.m0.mul_into(&ws.c2, &mut ws.m2);
            ws.next.copy_from(&ws.c0);
            ws.next.add_assign(&ws.m2);
            let diff = ws.next.max_abs_diff(&ws.r);
            std::mem::swap(&mut ws.r, &mut ws.next);
            if diff < 1e-14 {
                return Ok(ws.r.clone());
            }
            if !ws.r.is_finite() {
                return Err(QbdError::NotConverged {
                    iterations: it,
                    residual: f64::INFINITY,
                });
            }
        }
        let residual = self.r_residual_with(a1h, ws);
        // Accept a slightly loose fixed point only if the defining equation
        // is satisfied tightly.
        if residual < 1e-9 {
            Ok(ws.r.clone())
        } else {
            Err(QbdError::NotConverged {
                iterations: max_iter,
                residual,
            })
        }
    }

    /// Reference implementation of [`Qbd::r_fixed_point`] (allocating).
    fn r_fixed_point_reference(&self, a1h: &Matrix) -> Result<Matrix, QbdError> {
        let p = self.phases();
        let a1h_inv = LuDecomposition::new(a1h)?.inverse()?;
        // R ← C0 + R² C2 with C0 = −A0 Â1^{-1}, C2 = −A2 Â1^{-1}.
        let c0 = -&self.a0.matmul(&a1h_inv);
        let c2 = -&self.a2.matmul(&a1h_inv);
        let mut r = Matrix::zeros(p, p);
        let max_iter = 500_000;
        for it in 0..max_iter {
            let r2 = r.matmul(&r);
            let next = &c0 + &r2.matmul(&c2);
            let diff = next.max_abs_diff(&r);
            r = next;
            if diff < 1e-14 {
                return Ok(r);
            }
            if !r.is_finite() {
                return Err(QbdError::NotConverged {
                    iterations: it,
                    residual: f64::INFINITY,
                });
            }
        }
        let residual = self.r_residual(&r, a1h);
        if residual < 1e-9 {
            Ok(r)
        } else {
            Err(QbdError::NotConverged {
                iterations: max_iter,
                residual,
            })
        }
    }

    /// Latouche–Ramaswami logarithmic reduction in workspace buffers: each
    /// of the ~`log₂(1/ε)` iterations performs six `mul_into`, one LU
    /// refactorization into reused storage, and one in-place inverse —
    /// zero allocations per step.
    fn r_logarithmic_reduction(
        &self,
        a1h: &Matrix,
        ws: &mut QbdWorkspace,
    ) -> Result<Matrix, QbdError> {
        // (−Â1)^{-1}, factored into the workspace decomposition.
        ws.scratch.copy_from(a1h);
        ws.scratch.scale_mut(-1.0);
        ws.lu.refactor(&ws.scratch)?;
        ws.lu.inverse_into(&mut ws.w, &mut ws.col)?;
        // Probabilistic blocks: B0 = (−Â1)^{-1} A0, B2 = (−Â1)^{-1} A2.
        ws.w.mul_into(&self.a0, &mut ws.b0);
        ws.w.mul_into(&self.a2, &mut ws.b2);
        ws.g.copy_from(&ws.b2);
        ws.t.copy_from(&ws.b0);
        ws.identity.set_identity();
        let max_iter = 200;
        for _ in 0..max_iter {
            C_COLD_ITER.inc();
            // U = B0 B2 + B2 B0.
            ws.b0.mul_into(&ws.b2, &mut ws.u);
            ws.b2.mul_into(&ws.b0, &mut ws.tmp);
            ws.u.add_assign(&ws.tmp);
            // M0 = B0², M2 = B2².
            ws.b0.mul_into(&ws.b0, &mut ws.m0);
            ws.b2.mul_into(&ws.b2, &mut ws.m2);
            // W = (I − U)^{-1}, then B0 ← W M0, B2 ← W M2. (Explicit
            // inverse + matmul beats direct LU solves here: at these block
            // sizes the vectorized matmul outruns sequential substitution,
            // and it keeps the path bit-identical to the reference.)
            ws.identity.sub_into(&ws.u, &mut ws.scratch);
            ws.lu.refactor(&ws.scratch)?;
            ws.lu.inverse_into(&mut ws.w, &mut ws.col)?;
            ws.w.mul_into(&ws.m0, &mut ws.b0);
            ws.w.mul_into(&ws.m2, &mut ws.b2);
            // G ← G + T B2,  T ← T B0.
            ws.t.mul_into(&ws.b2, &mut ws.tmp);
            ws.g.add_assign(&ws.tmp);
            let increment_max = ws.tmp.max_abs();
            ws.t.mul_into(&ws.b0, &mut ws.next);
            std::mem::swap(&mut ws.t, &mut ws.next);
            if ws.t.max_abs() < 1e-15 || increment_max < 1e-15 {
                break;
            }
            // For nearly-unstable chains logarithmic reduction can stall;
            // the residual check below catches a bad G either way.
        }
        // R = A0 · (−(Â1 + A0 G))^{-1}.
        self.a0.mul_into(&ws.g, &mut ws.tmp);
        ws.scratch.copy_from(a1h);
        ws.scratch.add_assign(&ws.tmp);
        ws.scratch.scale_mut(-1.0);
        ws.lu.refactor(&ws.scratch)?;
        ws.lu.inverse_into(&mut ws.w, &mut ws.col)?;
        self.a0.mul_into(&ws.w, &mut ws.r);
        let residual = self.r_residual_with(a1h, ws);
        if residual > 1e-8 * (1.0 + a1h.max_abs()) {
            return Err(QbdError::NotConverged {
                iterations: max_iter,
                residual,
            });
        }
        Ok(ws.r.clone())
    }

    /// Reference implementation of [`Qbd::r_logarithmic_reduction`]
    /// (allocating).
    fn r_logarithmic_reduction_reference(&self, a1h: &Matrix) -> Result<Matrix, QbdError> {
        let p = self.phases();
        let neg_a1h_inv = LuDecomposition::new(&(-a1h))?.inverse()?;
        // Probabilistic blocks: B0 = (−Â1)^{-1} A0, B2 = (−Â1)^{-1} A2.
        let mut b0 = neg_a1h_inv.matmul(&self.a0);
        let mut b2 = neg_a1h_inv.matmul(&self.a2);
        let mut g = b2.clone();
        let mut t = b0.clone();
        let identity = Matrix::identity(p);
        let max_iter = 200;
        for _ in 0..max_iter {
            let u = &b0.matmul(&b2) + &b2.matmul(&b0);
            let m0 = b0.matmul(&b0);
            let m2 = b2.matmul(&b2);
            let w = LuDecomposition::new(&(&identity - &u))?.inverse()?;
            b0 = w.matmul(&m0);
            b2 = w.matmul(&m2);
            let increment = t.matmul(&b2);
            g = &g + &increment;
            t = t.matmul(&b0);
            if t.max_abs() < 1e-15 || increment.max_abs() < 1e-15 {
                break;
            }
        }
        // R = A0 · (−(Â1 + A0 G))^{-1}.
        let inner = -&(a1h + &self.a0.matmul(&g));
        let inner_inv = LuDecomposition::new(&inner)?.inverse()?;
        let r = self.a0.matmul(&inner_inv);
        let residual = self.r_residual(&r, a1h);
        if residual > 1e-8 * (1.0 + a1h.max_abs()) {
            return Err(QbdError::NotConverged {
                iterations: max_iter,
                residual,
            });
        }
        Ok(r)
    }

    /// `‖A0 + RÂ1 + R²A2‖_max`, the defect of the R equation.
    fn r_residual(&self, r: &Matrix, a1h: &Matrix) -> f64 {
        let lhs = &(&self.a0 + &r.matmul(a1h)) + &r.matmul(r).matmul(&self.a2);
        lhs.max_abs()
    }

    /// [`Qbd::r_residual`] on `ws.r`, evaluated entirely in workspace
    /// buffers (same operations, same order, zero allocations).
    fn r_residual_with(&self, a1h: &Matrix, ws: &mut QbdWorkspace) -> f64 {
        ws.r.mul_into(a1h, &mut ws.m0); // R Â1
        Matrix::mul_into(&ws.r, &ws.r, &mut ws.m2); // R²
        ws.m2.mul_into(&self.a2, &mut ws.next); // R² A2
        ws.scratch.copy_from(&self.a0);
        ws.scratch.add_assign(&ws.m0);
        ws.scratch.add_assign(&ws.next);
        ws.scratch.max_abs()
    }

    /// Solves the QBD: computes `R`, the boundary probabilities, and wraps
    /// them in a [`QbdSolution`]. Runs on a thread-local pooled workspace,
    /// so repeated solves of same-shaped chains allocate only the returned
    /// solution.
    pub fn solve(&self) -> Result<QbdSolution, QbdError> {
        self.solve_with(RSolver::default())
    }

    /// Like [`Qbd::solve`] but with an explicit choice of R algorithm.
    pub fn solve_with(&self, solver: RSolver) -> Result<QbdSolution, QbdError> {
        with_pooled_workspace(self.phases(), |ws| self.solve_with_workspace(solver, ws))
    }

    /// Like [`Qbd::solve_with`], reusing `ws` for the R iteration and
    /// boundary-system scratch — the path for sweeps that solve many
    /// same-dimension chains.
    pub fn solve_with_workspace(
        &self,
        solver: RSolver,
        ws: &mut QbdWorkspace,
    ) -> Result<QbdSolution, QbdError> {
        let r = self.solve_r_with_workspace(solver, ws)?;
        self.boundary_solution(r, ws)
    }

    /// Boundary balance solve for a computed `R`: assembles the transposed
    /// balance system directly into the workspace's boundary scratch (same
    /// accumulation order per entry as the historical row-major build, so
    /// the solution is bit-identical to it) and solves it through the
    /// workspace LU storage — zero allocations beyond the returned
    /// [`QbdSolution`].
    fn boundary_solution(&self, r: Matrix, ws: &mut QbdWorkspace) -> Result<QbdSolution, QbdError> {
        let p = self.phases();
        let m = self.boundary_levels();
        let a1h = self.a1_hat();

        // (I − R)^{-1}, factored through the workspace LU storage.
        ws.identity.set_identity();
        ws.identity.sub_into(&r, &mut ws.scratch);
        ws.lu.refactor(&ws.scratch)?;
        let mut i_minus_r_inv = Matrix::zeros(p, p);
        ws.lu.inverse_into(&mut i_minus_r_inv, &mut ws.col)?;

        // Assemble the boundary balance system over levels 0..=m:
        // unknown row vector x = (π_0, …, π_m), one balance column per
        // state, with column 0 replaced by the normalization equation.
        // Built directly as the transpose Bᵀ (entry (row, col) of the
        // balance matrix lands at (col, row)) since that is the matrix the
        // linear solve factors.
        let n = (m + 1) * p;
        ws.boundary.reset(n);
        let bt = &mut ws.boundary.bt;
        let idx = |level: usize, phase: usize| level * p + phase;

        // Boundary levels 0..m-1.
        for level in 0..m {
            let up = &self.boundary_up[level];
            let local = &self.boundary_local[level];
            let down = if level >= 1 {
                Some(&self.boundary_down[level - 1])
            } else {
                None
            };
            for i in 0..p {
                let mut exit = 0.0;
                for j in 0..p {
                    let u = up[(i, j)];
                    if u != 0.0 {
                        bt[(idx(level + 1, j), idx(level, i))] += u;
                        exit += u;
                    }
                    let l = local[(i, j)];
                    if l != 0.0 && i != j {
                        bt[(idx(level, j), idx(level, i))] += l;
                        exit += l;
                    }
                    if let Some(d) = down {
                        let dv = d[(i, j)];
                        if dv != 0.0 {
                            bt[(idx(level - 1, j), idx(level, i))] += dv;
                            exit += dv;
                        }
                    }
                }
                bt[(idx(level, i), idx(level, i))] -= exit;
            }
        }
        // Level m: local part Â1 + R·A2 (the R closure of π_{m+1} A2), plus
        // the physical A2 flow down into level m-1.
        r.mul_into(&self.a2, &mut ws.tmp);
        for i in 0..p {
            for j in 0..p {
                let v = a1h[(i, j)] + ws.tmp[(i, j)];
                if v != 0.0 {
                    bt[(idx(m, j), idx(m, i))] += v;
                }
                let d = self.a2[(i, j)];
                if d != 0.0 {
                    bt[(idx(m - 1, j), idx(m, i))] += d;
                }
            }
        }

        // Replace the column of state (0,0) — row 0 of Bᵀ — with
        // normalization coefficients:
        // Σ_{ℓ<m} π_ℓ·1 + π_m (I−R)^{-1}·1 = 1.
        let tail_weights = i_minus_r_inv.row_sums();
        for level in 0..m {
            for i in 0..p {
                bt[(0, idx(level, i))] = 1.0;
            }
        }
        for i in 0..p {
            bt[(0, idx(m, i))] = tail_weights[i];
        }

        // Solve xᵀ from Bᵀ xᵀ = e_0.
        let boundary = &mut ws.boundary;
        boundary.lu.refactor(&boundary.bt)?;
        boundary.rhs.fill(0.0);
        boundary.rhs[0] = 1.0;
        boundary.lu.solve_into(&boundary.rhs, &mut boundary.x)?;
        let mut x = boundary.x.clone();
        // Numerical noise can leave tiny negative entries; clamp them.
        for v in &mut x {
            if *v < 0.0 {
                debug_assert!(
                    *v > -1e-8,
                    "boundary solve produced negative probability {v}"
                );
                *v = 0.0;
            }
        }
        Ok(QbdSolution {
            p,
            m,
            boundary: x,
            r,
            i_minus_r_inv,
        })
    }
}

/// Reusable scratch storage for the QBD `R`-matrix iterations.
///
/// Holds every intermediate the fixed-point and logarithmic-reduction
/// algorithms need — matrices, an LU factorization with reusable storage,
/// and a substitution column — so that a solve performs **zero heap
/// allocations per iteration**. Construct once and pass to
/// [`Qbd::solve_r_with_workspace`] (or let [`Qbd::solve_r`] build a
/// throwaway one); a workspace automatically regrows when handed a chain
/// with a different phase dimension.
#[derive(Debug, Clone)]
pub struct QbdWorkspace {
    p: usize,
    lu: LuDecomposition,
    col: Vec<f64>,
    pv: Vec<f64>,
    pw: Vec<f64>,
    r: Matrix,
    next: Matrix,
    c0: Matrix,
    c2: Matrix,
    b0: Matrix,
    b2: Matrix,
    g: Matrix,
    t: Matrix,
    u: Matrix,
    tmp: Matrix,
    m0: Matrix,
    m2: Matrix,
    w: Matrix,
    scratch: Matrix,
    identity: Matrix,
    boundary: BoundaryScratch,
}

/// Scratch for the boundary balance solve: the transposed balance matrix,
/// an LU with reusable storage, and solve vectors. Sized by the boundary
/// state count `n = (m + 1) · p`, which is independent of the phase
/// dimension the rest of the workspace is keyed on — so it carries its own
/// size and survives [`QbdWorkspace::reset`].
#[derive(Debug, Clone)]
struct BoundaryScratch {
    n: usize,
    bt: Matrix,
    lu: LuDecomposition,
    rhs: Vec<f64>,
    x: Vec<f64>,
}

impl Default for BoundaryScratch {
    fn default() -> Self {
        Self {
            n: 0,
            bt: Matrix::zeros(1, 1),
            lu: LuDecomposition::identity(1),
            rhs: Vec::new(),
            x: Vec::new(),
        }
    }
}

impl BoundaryScratch {
    /// Sizes the scratch for an `n`-state boundary system and zeroes the
    /// assembly matrix (its entries are accumulated with `+=`).
    fn reset(&mut self, n: usize) {
        if self.n != n {
            self.bt = Matrix::zeros(n, n);
            self.lu = LuDecomposition::identity(n);
            self.rhs = vec![0.0; n];
            self.x = vec![0.0; n];
            self.n = n;
        } else {
            self.bt.fill(0.0);
        }
    }
}

thread_local! {
    /// Per-thread pool of workspaces, keyed by phase dimension. Sweep
    /// cells alternate between chain shapes (the figure-4 grid interleaves
    /// p = 3 elastic-first and p = k + 2 inelastic-first chains), so the
    /// pool keeps one workspace per recently seen dimension instead of
    /// thrashing a single workspace's buffers on every cell.
    static WORKSPACE_POOL: RefCell<Vec<QbdWorkspace>> = const { RefCell::new(Vec::new()) };
}

/// Upper bound on pooled workspaces per thread: enough for every chain
/// shape a mixed sweep touches, small enough to bound retained memory.
const POOL_MAX: usize = 8;

/// Runs `f` with a thread-local pooled [`QbdWorkspace`] sized for `p`
/// phases. The workspace is checked **out** of the pool for the duration
/// of `f` — nested solves each get their own — and offered back after; if
/// no pooled workspace matches the dimension, a fresh one is built rather
/// than resizing one of a dimension other sweep cells still need.
fn with_pooled_workspace<T>(p: usize, f: impl FnOnce(&mut QbdWorkspace) -> T) -> T {
    let pooled = WORKSPACE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        pool.iter()
            .position(|w| w.phases() == p)
            .map(|i| pool.swap_remove(i))
    });
    let mut ws = pooled.unwrap_or_else(|| QbdWorkspace::new(p));
    let out = f(&mut ws);
    WORKSPACE_POOL.with(|pool| {
        let mut pool = pool.borrow_mut();
        if pool.len() < POOL_MAX {
            pool.push(ws);
        }
    });
    out
}

impl QbdWorkspace {
    /// A workspace for chains with phase dimension `p`.
    pub fn new(p: usize) -> Self {
        let z = || Matrix::zeros(p, p);
        Self {
            p,
            lu: LuDecomposition::identity(p.max(1)),
            col: vec![0.0; p],
            pv: vec![0.0; p],
            pw: vec![0.0; p],
            r: z(),
            next: z(),
            c0: z(),
            c2: z(),
            b0: z(),
            b2: z(),
            g: z(),
            t: z(),
            u: z(),
            tmp: z(),
            m0: z(),
            m2: z(),
            w: z(),
            scratch: z(),
            identity: Matrix::identity(p.max(1)),
            boundary: BoundaryScratch::default(),
        }
    }

    /// Phase dimension the buffers are currently sized for.
    pub fn phases(&self) -> usize {
        self.p
    }

    /// Regrows the phase-dimension buffers when the dimension changes.
    /// The boundary scratch is sized separately (by boundary state count)
    /// and is preserved across regrows.
    fn reset(&mut self, p: usize) {
        if self.p != p || self.identity.rows() != p {
            let boundary = std::mem::take(&mut self.boundary);
            *self = Self::new(p);
            self.boundary = boundary;
        }
    }
}

/// Spectral radius estimate by power iteration on |R|.
fn spectral_radius_estimate(r: &Matrix) -> f64 {
    let p = r.rows();
    spectral_radius_estimate_into(r, &mut vec![1.0; p], &mut vec![0.0; p])
}

/// Positive-recurrence certificate for a solved rate matrix: `Ok(())` when
/// `sp(R) < 1 − 1e-10`, `Err(sp_estimate)` otherwise.
///
/// Runs the cheap norm bound first: `sp(R) ≤ ‖R‖∞`, so a maximum absolute
/// row sum under the threshold certifies stability without touching the
/// power iteration — on typical sweep grids this skips 45–140 power steps
/// per solve, a quarter of the whole R-solve cost. The bound is only
/// sufficient (a stable chain can still have `‖R‖∞ ≥ 1`); inconclusive
/// cases fall through to [`spectral_radius_estimate_into`], so the
/// `Unstable` error and its reported estimate are unchanged. `R` itself is
/// never modified, which keeps solve outputs bit-identical to the
/// always-power-iterate history.
fn certify_stable_r(r: &Matrix, v: &mut [f64], w: &mut [f64]) -> Result<(), f64> {
    let norm_inf = (0..r.rows())
        .map(|i| r.row(i).iter().map(|x| x.abs()).sum::<f64>())
        .fold(0.0, f64::max);
    if norm_inf < 1.0 - 1e-10 {
        return Ok(());
    }
    // Collatz–Wielandt early accept: a rate matrix is entrywise
    // nonnegative, and for nonnegative `R` and any strictly positive `v`,
    // `sp(R) ≤ max_i (vᵀR)_i / v_i`. A handful of power steps tighten this
    // rigorous bound far faster than the eigenvector itself converges, so
    // sweep cells whose `R` fails the row-sum shortcut certify in a few
    // mat-vec products instead of O(100) full power steps. Inconclusive
    // after the budget (or an iterate touching zero, where the bound is
    // invalid): fall through to the full estimate, so rejections — and the
    // spectral-radius value they report — are exactly as before.
    if r.as_slice().iter().all(|&x| x >= 0.0) {
        v.fill(1.0);
        for _ in 0..CW_CERT_STEPS {
            r.vecmat_into(v, w);
            let norm = w.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
            if norm == 0.0 {
                // vᵀR = 0 with v > 0 means R = 0: trivially stable.
                return Ok(());
            }
            let mut bound = 0.0f64;
            let mut positive = true;
            for (wi, vi) in w.iter().zip(v.iter()) {
                // NaN iterates count as non-positive: inconclusive, fall
                // through to the power-iteration estimate.
                if vi.is_nan() || *vi <= 0.0 {
                    positive = false;
                    break;
                }
                bound = bound.max(wi / vi);
            }
            if !positive {
                break;
            }
            if bound < 1.0 - 1e-10 {
                return Ok(());
            }
            for (vi, wi) in v.iter_mut().zip(w.iter()) {
                *vi = wi / norm;
            }
        }
    }
    let sp = spectral_radius_estimate_into(r, v, w);
    if sp < 1.0 - 1e-10 {
        Ok(())
    } else {
        Err(sp)
    }
}

/// Power-step budget for the Collatz–Wielandt early accept in
/// [`certify_stable_r`]. On sweep grids the bound certifies in 2–5 steps;
/// anything still inconclusive here is near the stability boundary and
/// falls through to the full power iteration.
const CW_CERT_STEPS: usize = 12;

/// Hard cap on power-iteration steps in the spectral-radius estimate.
/// Together with the stagnation guard below this bounds the work per
/// estimate even on defective or rotation-dominated inputs, where the
/// eigenvector test alone never fires.
const SP_MAX_ITERS: usize = 500;

/// [`spectral_radius_estimate`] into caller-provided buffers: `v` and `w`
/// must have length `r.rows()`; no allocation per power-iteration step.
/// Performs the same floating-point operations in the same order as
/// allocating afresh.
///
/// Termination: the eigenvector converging (`delta < 1e-13`), the
/// eigenvalue estimate stagnating to 12 relative digits for three
/// consecutive steps (matrices with complex subdominant pairs rotate the
/// iterate forever while the norm estimate settles almost immediately),
/// or the [`SP_MAX_ITERS`] cap. Defective matrices (a Jordan block)
/// converge only harmonically and are the cap's clientele: the estimate is
/// still within O(sp/Iters) of the true radius when the cap fires.
fn spectral_radius_estimate_into(r: &Matrix, v: &mut [f64], w: &mut [f64]) -> f64 {
    v.fill(1.0);
    let mut lambda = 0.0;
    let mut stagnant = 0u32;
    for _ in 0..SP_MAX_ITERS {
        r.vecmat_into(v, w);
        let norm = w.iter().fold(0.0f64, |a, &x| a.max(x.abs()));
        if norm == 0.0 {
            return 0.0;
        }
        let mut delta: f64 = 0.0;
        for (wi, vi) in w.iter().zip(v.iter()) {
            delta = delta.max((wi / norm - vi).abs());
        }
        for (vi, wi) in v.iter_mut().zip(w.iter()) {
            *vi = wi / norm;
        }
        if (norm - lambda).abs() <= 1e-12 * norm.max(1.0) {
            stagnant += 1;
        } else {
            stagnant = 0;
        }
        lambda = norm;
        if delta < 1e-13 || stagnant >= 3 {
            break;
        }
    }
    lambda
}

/// The solved stationary distribution of a [`Qbd`].
#[derive(Debug, Clone)]
pub struct QbdSolution {
    p: usize,
    m: usize,
    /// π_0, …, π_m concatenated.
    boundary: Vec<f64>,
    r: Matrix,
    i_minus_r_inv: Matrix,
}

impl QbdSolution {
    /// Phase dimension.
    pub fn phases(&self) -> usize {
        self.p
    }

    /// First repeating level `m`.
    pub fn repeating_level(&self) -> usize {
        self.m
    }

    /// The rate matrix `R`.
    pub fn r(&self) -> &Matrix {
        &self.r
    }

    /// Stationary probability vector of level `ℓ` (phase-indexed).
    pub fn level(&self, level: usize) -> Vec<f64> {
        if level <= self.m {
            self.boundary[level * self.p..(level + 1) * self.p].to_vec()
        } else {
            let mut v = self.boundary[self.m * self.p..(self.m + 1) * self.p].to_vec();
            for _ in self.m..level {
                v = self.r.vecmat(&v);
            }
            v
        }
    }

    /// Total probability mass (should be 1; useful as a diagnostic).
    pub fn total_probability(&self) -> f64 {
        let head: f64 = self.boundary[..self.m * self.p].iter().sum();
        let pim = &self.boundary[self.m * self.p..];
        let tail: f64 = self
            .i_minus_r_inv
            .row_sums()
            .iter()
            .zip(pim)
            .map(|(w, pi)| w * pi)
            .sum();
        head + tail
    }

    /// Marginal phase distribution `Σ_ℓ π_ℓ` (sums to 1).
    pub fn marginal_phases(&self) -> Vec<f64> {
        let mut acc = vec![0.0; self.p];
        for level in 0..self.m {
            let slice = &self.boundary[level * self.p..(level + 1) * self.p];
            for (a, pi) in acc.iter_mut().zip(slice) {
                *a += pi;
            }
        }
        // Geometric tail: π_m (I−R)^{-1}, a row vector times a matrix.
        let pim = &self.boundary[self.m * self.p..];
        let tail = self.i_minus_r_inv.vecmat(pim);
        for (a, t) in acc.iter_mut().zip(&tail) {
            *a += t;
        }
        acc
    }

    /// Mean level `E[L] = Σ_ℓ ℓ · π_ℓ·1`, using the closed-form geometric
    /// tail `Σ_{j≥0} (m+j) π_m R^j = m·π_m(I−R)^{-1} + π_m R (I−R)^{-2}`.
    pub fn mean_level(&self) -> f64 {
        let mut acc = 0.0;
        for level in 1..self.m {
            let slice = &self.boundary[level * self.p..(level + 1) * self.p];
            acc += level as f64 * slice.iter().sum::<f64>();
        }
        let pim = &self.boundary[self.m * self.p..];
        // m · π_m (I−R)^{-1} 1
        let w1 = self.i_minus_r_inv.row_sums();
        let s0: f64 = pim.iter().zip(&w1).map(|(pi, w)| pi * w).sum();
        // π_m R (I−R)^{-2} 1
        let inv2 = self.i_minus_r_inv.matmul(&self.i_minus_r_inv);
        let rw = self.r.matmul(&inv2).row_sums();
        let s1: f64 = pim.iter().zip(&rw).map(|(pi, w)| pi * w).sum();
        acc + self.m as f64 * s0 + s1
    }

    /// Second moment of the level, `E[L²]`, via
    /// `Σ j² R^j = R(I+R)(I−R)^{-3}`.
    pub fn second_moment_level(&self) -> f64 {
        let mut acc = 0.0;
        for level in 1..self.m {
            let slice = &self.boundary[level * self.p..(level + 1) * self.p];
            acc += (level * level) as f64 * slice.iter().sum::<f64>();
        }
        let pim = &self.boundary[self.m * self.p..];
        let m = self.m as f64;
        let inv = &self.i_minus_r_inv;
        let inv2 = inv.matmul(inv);
        let inv3 = inv2.matmul(inv);
        let identity = Matrix::identity(self.p);
        let s0w = inv.row_sums();
        let s1w = self.r.matmul(&inv2).row_sums();
        let s2w = self
            .r
            .matmul(&(&identity + &self.r))
            .matmul(&inv3)
            .row_sums();
        let s0: f64 = pim.iter().zip(&s0w).map(|(pi, w)| pi * w).sum();
        let s1: f64 = pim.iter().zip(&s1w).map(|(pi, w)| pi * w).sum();
        let s2: f64 = pim.iter().zip(&s2w).map(|(pi, w)| pi * w).sum();
        acc + m * m * s0 + 2.0 * m * s1 + s2
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// M/M/1 as a trivial QBD: one phase, one boundary level.
    fn mm1_qbd(lambda: f64, mu: f64) -> Qbd {
        Qbd::new(
            vec![Matrix::from_rows(&[&[lambda]])],
            vec![Matrix::zeros(1, 1)],
            vec![],
            Matrix::from_rows(&[&[lambda]]),
            Matrix::zeros(1, 1),
            Matrix::from_rows(&[&[mu]]),
        )
        .unwrap()
    }

    #[test]
    fn mm1_r_is_rho() {
        let qbd = mm1_qbd(0.5, 1.0);
        for solver in [RSolver::FixedPoint, RSolver::LogarithmicReduction] {
            let r = qbd.solve_r(solver).unwrap();
            assert!((r[(0, 0)] - 0.5).abs() < 1e-12, "{solver:?}: {}", r[(0, 0)]);
        }
    }

    #[test]
    fn mm1_levels_are_geometric() {
        let (lambda, mu) = (0.7, 1.0);
        let sol = mm1_qbd(lambda, mu).solve().unwrap();
        let rho: f64 = lambda / mu;
        for level in 0..20 {
            let got = sol.level(level)[0];
            let want = (1.0 - rho) * rho.powi(level as i32);
            assert!((got - want).abs() < 1e-12, "level {level}: {got} vs {want}");
        }
        assert!((sol.total_probability() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn mm1_mean_and_second_moment() {
        let (lambda, mu) = (0.8, 1.0);
        let sol = mm1_qbd(lambda, mu).solve().unwrap();
        let rho: f64 = lambda / mu;
        let mean = rho / (1.0 - rho);
        let second = rho * (1.0 + rho) / ((1.0 - rho) * (1.0 - rho));
        assert!(
            (sol.mean_level() - mean).abs() < 1e-10,
            "mean {}",
            sol.mean_level()
        );
        assert!(
            (sol.second_moment_level() - second).abs() < 1e-9,
            "second {}",
            sol.second_moment_level()
        );
    }

    /// M/M/k as a QBD with k boundary levels (level = number in system).
    fn mmk_qbd(lambda: f64, mu: f64, k: usize) -> Qbd {
        let up = vec![Matrix::from_rows(&[&[lambda]]); k];
        let local = vec![Matrix::zeros(1, 1); k];
        let down = (1..k)
            .map(|l| Matrix::from_rows(&[&[l as f64 * mu]]))
            .collect();
        Qbd::new(
            up,
            local,
            down,
            Matrix::from_rows(&[&[lambda]]),
            Matrix::zeros(1, 1),
            Matrix::from_rows(&[&[k as f64 * mu]]),
        )
        .unwrap()
    }

    #[test]
    fn mmk_mean_number_matches_erlang_c() {
        for (lambda, mu, k) in [(3.0, 1.0, 4u32), (1.0, 1.0, 2), (13.0, 1.0, 16)] {
            let sol = mmk_qbd(lambda, mu, k as usize).solve().unwrap();
            let reference = eirs_queueing::MMk::new(lambda, mu, k).mean_number_in_system();
            assert!(
                (sol.mean_level() - reference).abs() / reference < 1e-9,
                "k={k}: {} vs {reference}",
                sol.mean_level()
            );
            assert!((sol.total_probability() - 1.0).abs() < 1e-10);
        }
    }

    /// M/Cox2/1: service is a two-phase Coxian; phase tracks service stage.
    /// Validated against Pollaczek–Khinchine.
    fn mcox1_qbd(lambda: f64, cox: (f64, f64, f64)) -> Qbd {
        let (mu1, mu2, q) = cox;
        // Phase 0 = service stage 1, phase 1 = service stage 2.
        let a0 = Matrix::from_rows(&[&[lambda, 0.0], &[0.0, lambda]]);
        let a1 = Matrix::from_rows(&[&[0.0, q * mu1], &[0.0, 0.0]]);
        // Completion hands the server to the next job, which starts stage 1.
        let a2 = Matrix::from_rows(&[&[(1.0 - q) * mu1, 0.0], &[mu2, 0.0]]);
        // Boundary: level 0 = empty system; arrivals start in stage 1.
        let u0 = Matrix::from_rows(&[&[lambda, 0.0], &[lambda, 0.0]]);
        let l0 = Matrix::zeros(2, 2);
        Qbd::new(vec![u0], vec![l0], vec![], a0, a1, a2).unwrap()
    }

    #[test]
    fn mcox1_matches_pollaczek_khinchine() {
        let (mu1, mu2, q) = (2.0, 0.5, 0.3);
        let cox = eirs_queueing::Coxian2::new(mu1, mu2, q);
        let moments = cox.moments();
        let lambda = 0.6 / moments.m1; // target rho = 0.6
        let sol = mcox1_qbd(lambda, (mu1, mu2, q)).solve().unwrap();
        let rho = lambda * moments.m1;
        let pk = rho + rho * rho * (1.0 + moments.cv2()) / (2.0 * (1.0 - rho));
        assert!(
            (sol.mean_level() - pk).abs() / pk < 1e-9,
            "QBD {} vs P-K {pk}",
            sol.mean_level()
        );
    }

    #[test]
    fn solvers_agree_on_multiphase_chain() {
        let qbd = mcox1_qbd(0.4, (2.0, 0.5, 0.3));
        let r_lr = qbd.solve_r(RSolver::LogarithmicReduction).unwrap();
        let r_fp = qbd.solve_r(RSolver::FixedPoint).unwrap();
        assert!(r_lr.max_abs_diff(&r_fp) < 1e-9);
    }

    #[test]
    fn workspace_path_reproduces_reference_bit_for_bit() {
        // The allocation-free iterations perform the same floating-point
        // operations in the same order as the reference, so R must match
        // exactly — not just to tolerance.
        let chains = [
            mcox1_qbd(0.4, (2.0, 0.5, 0.3)),
            mcox1_qbd(0.7, (1.5, 0.8, 0.6)),
        ];
        for qbd in &chains {
            for solver in [RSolver::FixedPoint, RSolver::LogarithmicReduction] {
                let fast = qbd.solve_r(solver).unwrap();
                let reference = qbd.solve_r_reference(solver).unwrap();
                assert_eq!(
                    fast.as_slice(),
                    reference.as_slice(),
                    "{solver:?} diverged from reference"
                );
            }
        }
    }

    #[test]
    fn workspace_is_reusable_across_solves_and_dimensions() {
        let mut ws = QbdWorkspace::new(2);
        let cox = mcox1_qbd(0.4, (2.0, 0.5, 0.3));
        let first = cox
            .solve_r_with_workspace(RSolver::LogarithmicReduction, &mut ws)
            .unwrap();
        // Same chain again through the dirty workspace: identical result.
        let second = cox
            .solve_r_with_workspace(RSolver::LogarithmicReduction, &mut ws)
            .unwrap();
        assert_eq!(first.as_slice(), second.as_slice());
        // A 1-phase chain through the same workspace: buffers regrow.
        let mm1 = mm1_qbd(0.5, 1.0);
        let r = mm1
            .solve_r_with_workspace(RSolver::FixedPoint, &mut ws)
            .unwrap();
        assert!((r[(0, 0)] - 0.5).abs() < 1e-12);
        assert_eq!(ws.phases(), 1);
    }

    #[test]
    fn unstable_chain_is_detected() {
        let qbd = mm1_qbd(1.5, 1.0);
        match qbd.solve() {
            Err(QbdError::Unstable { spectral_radius }) => {
                assert!(spectral_radius >= 1.0 - 1e-9);
            }
            other => panic!("expected Unstable, got {other:?}"),
        }
    }

    #[test]
    fn critically_loaded_chain_is_detected() {
        let qbd = mm1_qbd(1.0, 1.0);
        assert!(matches!(qbd.solve(), Err(QbdError::Unstable { .. })));
    }

    #[test]
    fn rate_fn_builder_reproduces_handwritten_mmk_blocks() {
        // M/M/k via the closure builder must match the handwritten QBD
        // bit for bit: same blocks in, same solver, same numbers out.
        let (lambda, mu, k) = (3.0, 1.0, 4usize);
        let built = Qbd::from_rate_fns(
            1,
            k,
            |_, _, _| lambda,
            |_, _, _| 0.0,
            |level, _, _| (level.min(k)) as f64 * mu,
        )
        .unwrap();
        let handwritten = mmk_qbd(lambda, mu, k);
        let a = built.solve().unwrap();
        let b = handwritten.solve().unwrap();
        assert_eq!(a.mean_level().to_bits(), b.mean_level().to_bits());
        assert_eq!(a.r().as_slice(), b.r().as_slice());
    }

    #[test]
    fn rate_fn_builder_supports_multiphase_chains() {
        // The M/Cox2/1 chain through the closure builder.
        let (mu1, mu2, q) = (2.0, 0.5, 0.3);
        let lambda = 0.4;
        let built = Qbd::from_rate_fns(
            2,
            1,
            |level, a, b| {
                // Arrivals: from an empty system (level 0) the next job
                // starts in stage 1; otherwise the phase is unchanged.
                if (level == 0 && b == 0) || (level > 0 && a == b) {
                    lambda
                } else {
                    0.0
                }
            },
            |level, a, b| {
                if level >= 1 && a == 0 && b == 1 {
                    q * mu1
                } else {
                    0.0
                }
            },
            |level, a, b| {
                if level == 0 || b != 0 {
                    0.0
                } else if a == 0 {
                    (1.0 - q) * mu1
                } else {
                    mu2
                }
            },
        )
        .unwrap();
        let reference = mcox1_qbd(lambda, (mu1, mu2, q));
        let a = built.solve().unwrap();
        let b = reference.solve().unwrap();
        assert_eq!(a.mean_level().to_bits(), b.mean_level().to_bits());
    }

    #[test]
    fn rate_fn_builder_validates_inputs() {
        assert!(matches!(
            Qbd::from_rate_fns(0, 1, |_, _, _| 0.0, |_, _, _| 0.0, |_, _, _| 0.0),
            Err(QbdError::Dimension(_))
        ));
        assert!(matches!(
            Qbd::from_rate_fns(1, 0, |_, _, _| 0.0, |_, _, _| 0.0, |_, _, _| 0.0),
            Err(QbdError::Dimension(_))
        ));
        // Negative rates are rejected by block validation.
        assert!(matches!(
            Qbd::from_rate_fns(1, 1, |_, _, _| -1.0, |_, _, _| 0.0, |_, _, _| 1.0),
            Err(QbdError::Dimension(_))
        ));
    }

    #[test]
    fn dimension_validation() {
        // Mismatched block size.
        let err = Qbd::new(
            vec![Matrix::zeros(2, 2)],
            vec![Matrix::zeros(2, 2)],
            vec![],
            Matrix::zeros(1, 1),
            Matrix::zeros(1, 1),
            Matrix::zeros(1, 1),
        );
        assert!(matches!(err, Err(QbdError::Dimension(_))));
        // Negative rate.
        let err = Qbd::new(
            vec![Matrix::from_rows(&[&[-1.0]])],
            vec![Matrix::zeros(1, 1)],
            vec![],
            Matrix::from_rows(&[&[0.5]]),
            Matrix::zeros(1, 1),
            Matrix::from_rows(&[&[1.0]]),
        );
        assert!(matches!(err, Err(QbdError::Dimension(_))));
    }

    #[test]
    fn marginal_phases_sum_to_one() {
        let sol = mcox1_qbd(0.4, (2.0, 0.5, 0.3)).solve().unwrap();
        let phases = sol.marginal_phases();
        let total: f64 = phases.iter().sum();
        assert!((total - 1.0).abs() < 1e-10, "total {total}");
    }

    #[test]
    fn deep_levels_decay_geometrically() {
        let sol = mm1_qbd(0.5, 1.0).solve().unwrap();
        let l10 = sol.level(10)[0];
        let l11 = sol.level(11)[0];
        assert!((l11 / l10 - 0.5).abs() < 1e-9);
    }

    #[test]
    fn high_load_still_solves_accurately() {
        let (lambda, mu) = (0.99, 1.0);
        let sol = mm1_qbd(lambda, mu).solve().unwrap();
        let rho: f64 = lambda / mu;
        let mean = rho / (1.0 - rho);
        assert!(
            (sol.mean_level() - mean).abs() / mean < 1e-8,
            "{} vs {mean}",
            sol.mean_level()
        );
    }

    #[test]
    fn map_ph1_with_poisson_and_exp_is_mm1() {
        let (lambda, mu) = (0.6, 1.0);
        let qbd = Qbd::map_ph1(
            &Matrix::from_rows(&[&[-lambda]]),
            &Matrix::from_rows(&[&[lambda]]),
            &[1.0],
            &Matrix::from_rows(&[&[-mu]]),
        )
        .unwrap();
        let sol = qbd.solve().unwrap();
        let rho: f64 = lambda / mu;
        let mean = rho / (1.0 - rho);
        assert!(
            (sol.mean_level() - mean).abs() < 1e-9,
            "{} vs {mean}",
            sol.mean_level()
        );
    }

    #[test]
    fn map_ph1_with_erlang_service_matches_pollaczek_khinchine() {
        // M/E2/1: E[N] = rho + rho^2 (1 + cv^2) / (2 (1 - rho)), cv^2 = 1/2.
        let lambda = 0.5;
        // Erlang(2) with total rate 2 per stage: mean 1, cv^2 = 1/2.
        let s = Matrix::from_rows(&[&[-2.0, 2.0], &[0.0, -2.0]]);
        let qbd = Qbd::map_ph1(
            &Matrix::from_rows(&[&[-lambda]]),
            &Matrix::from_rows(&[&[lambda]]),
            &[1.0, 0.0],
            &s,
        )
        .unwrap();
        let sol = qbd.solve().unwrap();
        let rho: f64 = 0.5;
        let pk = rho + rho * rho * (1.0 + 0.5) / (2.0 * (1.0 - rho));
        assert!(
            (sol.mean_level() - pk).abs() / pk < 1e-8,
            "{} vs {pk}",
            sol.mean_level()
        );
    }

    #[test]
    fn map_ph1_mmpp_arrivals_congest_more_than_poisson() {
        // MMPP-2 with the same stationary rate as a Poisson reference: the
        // bursty arrivals must increase the mean queue length.
        let (r01, r10, a0, a1) = (0.5, 0.5, 1.08, 0.12);
        let rate = 0.5 * a0 + 0.5 * a1; // pi = (1/2, 1/2)
        let d0 = Matrix::from_rows(&[&[-(r01 + a0), r01], &[r10, -(r10 + a1)]]);
        let d1 = Matrix::from_rows(&[&[a0, 0.0], &[0.0, a1]]);
        let sol = Qbd::map_ph1(&d0, &d1, &[1.0], &Matrix::from_rows(&[&[-1.0]]))
            .unwrap()
            .solve()
            .unwrap();
        let rho: f64 = rate / 1.0;
        let mm1_mean = rho / (1.0 - rho);
        assert!(
            sol.mean_level() > mm1_mean * 1.05,
            "bursty {} vs poisson {mm1_mean}",
            sol.mean_level()
        );
    }

    #[test]
    fn pooled_solves_are_bit_stable_across_dimension_churn() {
        // Interleave chains of different phase dimensions through the
        // thread-local pool: every repeat must reproduce the first solve
        // exactly, proving pooled buffers carry no state across solves.
        let cox = mcox1_qbd(0.4, (2.0, 0.5, 0.3)); // p = 2
        let mm1 = mm1_qbd(0.5, 1.0); // p = 1
        let first_cox = cox.solve().unwrap();
        let first_mm1 = mm1.solve().unwrap();
        for _ in 0..3 {
            let again_cox = cox.solve().unwrap();
            let again_mm1 = mm1.solve().unwrap();
            assert_eq!(again_cox.r().as_slice(), first_cox.r().as_slice());
            assert_eq!(
                again_cox.mean_level().to_bits(),
                first_cox.mean_level().to_bits()
            );
            assert_eq!(again_mm1.r().as_slice(), first_mm1.r().as_slice());
            assert_eq!(
                again_mm1.mean_level().to_bits(),
                first_mm1.mean_level().to_bits()
            );
        }
    }

    #[test]
    fn spectral_radius_estimate_terminates_on_defective_matrix() {
        // Jordan block: defective (one eigenvector), power iteration
        // converges only harmonically, so neither the eigenvector test nor
        // the stagnation guard fires — the estimate must still terminate
        // at the iteration cap with an answer close to the true radius.
        let defective = Matrix::from_rows(&[&[0.9, 1.0], &[0.0, 0.9]]);
        let est = spectral_radius_estimate(&defective);
        assert!(
            (est - 0.9).abs() < 0.01,
            "estimate {est} too far from sp = 0.9"
        );
    }

    #[test]
    fn map_ph1_rejects_malformed_inputs() {
        let one = Matrix::from_rows(&[&[-1.0]]);
        let pos = Matrix::from_rows(&[&[1.0]]);
        // alpha not a distribution.
        assert!(matches!(
            Qbd::map_ph1(&one, &pos, &[0.5], &one),
            Err(QbdError::Dimension(_))
        ));
        // shape mismatch between D0 and D1.
        assert!(matches!(
            Qbd::map_ph1(&Matrix::zeros(2, 2), &pos, &[1.0], &one),
            Err(QbdError::Dimension(_))
        ));
        // service rows must sum <= 0.
        assert!(matches!(
            Qbd::map_ph1(&one, &pos, &[1.0], &pos),
            Err(QbdError::Dimension(_))
        ));
    }
}
