//! Average-cost MDP solver for the elastic/inelastic allocation problem.
//!
//! The paper proves Inelastic-First optimal for `µ_I ≥ µ_E` (Theorems 1
//! and 5) and leaves the optimal policy for `µ_I < µ_E` open (Section 6).
//! This crate attacks both numerically, in the style of the MDP analysis of
//! Berg, Dorsman & Harchol-Balter (2018) that the paper cites:
//!
//! 1. **Uniformize** the CTMC on a truncated grid `(i, j) ∈ [0, N_I] ×
//!    [0, N_E]` (arrivals at the boundary are rejected) with constant
//!    `Λ = λ_I + λ_E + k·max(µ_I, µ_E)`.
//! 2. Run **relative value iteration** on the cost rate `c(i,j) = i + j`
//!    (by Little's law, minimizing `E[N]` minimizes `E[T]`).
//! 3. Extract the optimal stationary allocation and its average cost.
//!
//! Because the uniformized Bellman operator is *linear* in the allocation
//! pair `(a, e)`, the optimum over the allocation polytope
//! `{0 ≤ a ≤ min(i,k), 0 ≤ e ≤ (k−a)·1{j>0}}` is attained at a vertex, so
//! integer actions suffice. The `allow_idling` switch adds the idle vertices
//! `e = 0` (and free `a` at `j = 0`), which lets the tests verify
//! Appendix B (there is always a non-idling optimal policy) numerically.
//!
//! One value-iteration loop serves both entry points: [`solve_optimal`]
//! gives every state its polytope vertices as actions, and
//! [`evaluate_policy`] gives every state one action, the fixed policy's
//! clamped allocation, so a policy's evaluated cost and the optimum come
//! from the same arithmetic.
//!
//! The solved policy is not a dead end: [`MdpSolution::tabular_policy`]
//! packs the optimal actions into an
//! [`eirs_sim::policy::TabularPolicy`], so the numerically-optimal policy
//! can be run through the DES, the state-level CTMC simulator, and the
//! policy-generic QBD analysis in `eirs-core` like any hand-written
//! policy; [`evaluate_policy`] goes the other way and scores any
//! shared-layer [`eirs_sim::policy::AllocationPolicy`] (IF and EF are
//! `InelasticFirst` and `ElasticFirst`) on this crate's truncated grid.

mod solver;

pub use solver::{evaluate_policy, solve_optimal, MdpConfig, MdpError, MdpSolution};
