//! The workload scenario engine: arrival processes × service
//! distributions, beyond the paper's Poisson/exponential model.
//!
//! The paper's stochastic model (Section 2) fixes Poisson arrivals and
//! exponential sizes. Its optimality proofs for IF are sample-path
//! arguments that never use those assumptions, and real clusters see
//! bursty, correlated, trace-driven traffic — so this module turns
//! "arrivals" and "service" into first-class, swappable axes:
//!
//! * [`ArrivalSpec`] — Poisson, Markov-modulated (MAP/MMPP-2), batch
//!   ("bursty"), self-recorded trace replay, or a trace file on disk;
//! * [`ServiceSpec`] — exponential, Erlang, balanced hyperexponential
//!   (phase-type shapes), or deterministic, normalized to the mean sizes
//!   `1/µ_I`, `1/µ_E` of a [`SystemParams`];
//! * [`Workload`] — one arrival process plus per-class service shapes,
//!   with everything scaled so the offered load matches `params` exactly —
//!   optionally composed with a **capacity-churn axis**
//!   ([`Workload::churned`], the CLI's `--churn`): a seeded
//!   [`FaultSpec`] availability process (crash/repair, maintenance
//!   drains, MMPP-modulated reclamations) the DES replays as
//!   capacity-change events, orthogonal to every arrival × service
//!   combination. Churned workloads are simulation-only (no analytic
//!   chain models the time-varying capacity).
//!
//! A workload runs on **every substrate** the policy layer reaches:
//! [`Workload::build_source`] feeds the discrete-event simulator, and
//! [`Workload::analyze`] routes analytically tractable combinations to the
//! matching chain — the policy-generic QBD for Poisson×exponential
//! ([`crate::analysis::analyze_policy_with`]), the MAP-phase-extended QBD
//! for MAP×exponential ([`crate::analysis::analyze_policy_map`]), and the
//! classical MAP/PH/1 chain (`eirs_markov::Qbd::map_ph1`) for elastic-only
//! traffic with phase-type service. [`Workload::tractability`] reports
//! which route applies; everything else is simulation-only.
//!
//! The module mirrors the policy layer's ergonomics: a [`registry`] of
//! shipped scenario families, spec parsers ([`parse_arrivals`],
//! [`parse_service`], [`parse_workload`]) for the `eirs scenario` CLI
//! subcommand, and the `experiments::scenario_sweep` parallel driver plus
//! the `workload_scenarios` bench that records analysis-vs-DES agreement
//! into `BENCH_workload_scenarios.json`.

use crate::analysis::{
    analyze_policy_map, analyze_policy_with, AnalysisError, AnalyzeOptions, PolicyAnalysis,
};
use crate::params::SystemParams;
use eirs_markov::Qbd;
use eirs_queueing::{
    Deterministic, Erlang, Exponential, HyperExponential, MapProcess, PhaseType, SizeDistribution,
};
use eirs_sim::arrivals::{ArrivalSource, ArrivalTrace, BurstyStream, MapStream, PoissonStream};
use eirs_sim::availability::FaultSpec;
use eirs_sim::des::{DesConfig, SimReport, Simulation};
use eirs_sim::policy::AllocationPolicy;
use eirs_sim::replicate::run_replications_with_threads;

/// The arrival-process axis of a workload, as a *shape*: every variant is
/// rescaled at build time so its stationary job rate is `λ_I + λ_E`.
#[derive(Debug, Clone, PartialEq)]
pub enum ArrivalSpec {
    /// Two independent Poisson streams — the paper's model.
    Poisson,
    /// Markov-modulated Poisson (a 2-phase MAP): the phase flips
    /// `0 ↔ 1` at rates `r01`/`r10` and arrivals are Poisson at the
    /// *relative* intensities `a0`/`a1` (rescaled to the target rate).
    Mmpp {
        /// Phase `0 → 1` modulation rate.
        r01: f64,
        /// Phase `1 → 0` modulation rate.
        r10: f64,
        /// Relative arrival intensity in phase 0.
        a0: f64,
        /// Relative arrival intensity in phase 1.
        a1: f64,
    },
    /// Batch-Poisson bursts: geometric burst sizes with this mean.
    Bursty {
        /// Mean jobs per burst (`> 1`).
        mean_burst: f64,
    },
    /// Record a Poisson stream to the trace **file format**, parse it
    /// back, and replay it — exercises the whole trace path while staying
    /// statistically Poisson (and therefore analytically tractable).
    ReplayedPoisson,
    /// Replay a trace file from disk verbatim (rates and sizes come from
    /// the file; `params` rates are ignored).
    TraceFile {
        /// Path to a `time class size` trace file.
        path: std::path::PathBuf,
    },
}

impl ArrivalSpec {
    /// Short spec string (inverse of [`parse_arrivals`]).
    pub fn label(&self) -> String {
        match self {
            ArrivalSpec::Poisson => "poisson".into(),
            ArrivalSpec::Mmpp { r01, r10, a0, a1 } => format!("map:{r01}x{r10}x{a0}x{a1}"),
            ArrivalSpec::Bursty { mean_burst } => format!("bursty:{mean_burst}"),
            ArrivalSpec::ReplayedPoisson => "trace".into(),
            ArrivalSpec::TraceFile { path } => format!("trace:{}", path.display()),
        }
    }
}

/// The service-distribution axis of a workload: a *shape* whose mean is
/// pinned to `1/µ` when built against a [`SystemParams`].
#[derive(Debug, Clone, PartialEq)]
pub enum ServiceSpec {
    /// Exponential — the paper's model (CV² = 1).
    Exponential,
    /// Erlang with this many stages (CV² = 1/stages < 1).
    Erlang {
        /// Number of stages (`≥ 1`).
        stages: u32,
    },
    /// Balanced two-branch hyperexponential with this CV² (`≥ 1`).
    HyperExp {
        /// Squared coefficient of variation.
        cv2: f64,
    },
    /// Deterministic (point mass; CV² = 0, not phase-type).
    Deterministic,
}

impl ServiceSpec {
    /// Builds the size distribution with mean `1/mu`.
    pub fn build(&self, mu: f64) -> Box<dyn SizeDistribution> {
        assert!(mu > 0.0 && mu.is_finite());
        match self {
            ServiceSpec::Exponential => Box::new(Exponential::new(mu)),
            ServiceSpec::Erlang { stages } => Box::new(Erlang::new(*stages, *stages as f64 * mu)),
            ServiceSpec::HyperExp { cv2 } => Box::new(HyperExponential::balanced(1.0 / mu, *cv2)),
            ServiceSpec::Deterministic => Box::new(Deterministic::new(1.0 / mu)),
        }
    }

    /// The same shape as a phase-type distribution (mean `1/mu`), when it
    /// is one. `None` for deterministic service.
    pub fn phase_type(&self, mu: f64) -> Option<PhaseType> {
        match self {
            ServiceSpec::Exponential => Some(PhaseType::exponential(mu)),
            ServiceSpec::Erlang { stages } => {
                Some(PhaseType::erlang(*stages as usize, *stages as f64 * mu))
            }
            ServiceSpec::HyperExp { cv2 } => {
                let h = HyperExponential::balanced(1.0 / mu, *cv2);
                Some(ph_from_hyper(&h))
            }
            ServiceSpec::Deterministic => None,
        }
    }

    /// Short spec string (inverse of [`parse_service`]).
    pub fn label(&self) -> String {
        match self {
            ServiceSpec::Exponential => "exp".into(),
            ServiceSpec::Erlang { stages } => format!("erlang:{stages}"),
            ServiceSpec::HyperExp { cv2 } => format!("hyper:{cv2}"),
            ServiceSpec::Deterministic => "det".into(),
        }
    }
}

fn ph_from_hyper(h: &HyperExponential) -> PhaseType {
    // A balanced hyperexponential is a parallel PH; rebuild it from the
    // mixture parameters rather than adding accessors to the distribution.
    let m = h.moments();
    // Invert the balanced-means parameterization from (mean, cv2).
    let cv2 = m.cv2();
    let mean = m.m1;
    if (cv2 - 1.0).abs() < 1e-12 {
        return PhaseType::exponential(1.0 / mean);
    }
    let p1 = 0.5 * (1.0 + ((cv2 - 1.0) / (cv2 + 1.0)).sqrt());
    let p2 = 1.0 - p1;
    PhaseType::hyperexponential(&[p1, p2], &[2.0 * p1 / mean, 2.0 * p2 / mean])
}

/// One workload: an arrival process shape plus per-class service shapes.
#[derive(Debug, Clone, PartialEq)]
pub struct Workload {
    /// Display name (registry name or derived from the specs).
    pub name: String,
    /// Arrival-process shape.
    pub arrivals: ArrivalSpec,
    /// Inelastic service shape (mean pinned to `1/µ_I`).
    pub service_i: ServiceSpec,
    /// Elastic service shape (mean pinned to `1/µ_E`).
    pub service_e: ServiceSpec,
    /// Capacity-churn shape, if any. Seeded per run in
    /// [`Workload::simulate_each`] (decorrelated replications get
    /// different fault sample paths, like arrivals).
    pub churn: Option<FaultSpec>,
}

/// Which analytic route evaluates a `(workload, policy)` pair exactly
/// (up to the documented truncations); see [`Workload::tractability`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tractability {
    /// Poisson × exponential: the policy-generic QBD analysis
    /// ([`crate::analysis::analyze_policy_with`]).
    PoissonExp,
    /// MAP × exponential: the MAP-phase-extended QBD
    /// ([`crate::analysis::analyze_policy_map`]).
    MapExp,
    /// Elastic-only traffic with phase-type service under a policy that
    /// devotes the whole cluster to the elastic head-of-line job: the
    /// classical MAP/PH/1 chain at service speed `k`.
    MapPh1,
    /// No analytic route — simulation only.
    Intractable,
}

impl Workload {
    /// A workload from explicit parts, named after its specs.
    pub fn new(arrivals: ArrivalSpec, service_i: ServiceSpec, service_e: ServiceSpec) -> Self {
        let name = format!(
            "{}/{}+{}",
            arrivals.label(),
            service_i.label(),
            service_e.label()
        );
        Self {
            name,
            arrivals,
            service_i,
            service_e,
            churn: None,
        }
    }

    /// The same workload under a registry name.
    pub fn named(mut self, name: &str) -> Self {
        self.name = name.into();
        self
    }

    /// Composes a capacity-churn axis onto this workload: the DES will
    /// replay a seeded availability process for `spec` alongside the
    /// arrivals. The name gains a `+<churn label>` suffix.
    pub fn churned(mut self, spec: FaultSpec) -> Self {
        self.name = format!("{}+{}", self.name, spec.label());
        self.churn = Some(spec);
        self
    }

    /// Builds the arrival source feeding the DES. `horizon_hint` bounds
    /// how much simulated time the caller will consume (recorded-trace
    /// variants must pre-generate at least that much; live streams ignore
    /// it).
    pub fn build_source(
        &self,
        params: &SystemParams,
        seed: u64,
        horizon_hint: f64,
    ) -> Result<Box<dyn ArrivalSource>, String> {
        let total = params.total_lambda();
        let frac_i = params.lambda_i / total;
        let size_i = || self.service_i.build(params.mu_i);
        let size_e = || self.service_e.build(params.mu_e);
        match &self.arrivals {
            ArrivalSpec::Poisson => Ok(Box::new(PoissonStream::new(
                params.lambda_i,
                params.lambda_e,
                size_i(),
                size_e(),
                seed,
            ))),
            ArrivalSpec::Mmpp { r01, r10, a0, a1 } => {
                let map = MapProcess::mmpp2(*r01, *r10, *a0, *a1).scaled_to_rate(total);
                Ok(Box::new(MapStream::new(
                    map,
                    frac_i,
                    size_i(),
                    size_e(),
                    seed,
                )))
            }
            ArrivalSpec::Bursty { mean_burst } => Ok(Box::new(BurstyStream::new(
                total / mean_burst,
                1.0 - 1.0 / mean_burst,
                frac_i,
                size_i(),
                size_e(),
                seed,
            ))),
            ArrivalSpec::ReplayedPoisson => {
                // Record → serialize → parse → replay, so the production
                // trace file format sits in the loop.
                let trace = ArrivalTrace::record_poisson(
                    params.lambda_i,
                    params.lambda_e,
                    size_i(),
                    size_e(),
                    seed,
                    horizon_hint,
                );
                let mut buf = Vec::new();
                trace.to_writer(&mut buf).map_err(|e| e.to_string())?;
                let parsed = ArrivalTrace::from_reader(&mut std::io::Cursor::new(buf))
                    .map_err(|e| e.to_string())?;
                debug_assert_eq!(parsed, trace, "trace file round trip must be lossless");
                Ok(Box::new(parsed.into_stream()))
            }
            ArrivalSpec::TraceFile { path } => {
                eirs_sim::trace::open_trace_source(path).map_err(|e| e.to_string())
            }
        }
    }

    /// The effective MAP driving this workload's arrivals, when there is
    /// one (Poisson is the one-phase case; bursty and trace replay are not
    /// MAPs).
    fn effective_map(&self, params: &SystemParams) -> Option<MapProcess> {
        let total = params.total_lambda();
        match &self.arrivals {
            ArrivalSpec::Poisson | ArrivalSpec::ReplayedPoisson => Some(MapProcess::poisson(total)),
            ArrivalSpec::Mmpp { r01, r10, a0, a1 } => {
                Some(MapProcess::mmpp2(*r01, *r10, *a0, *a1).scaled_to_rate(total))
            }
            ArrivalSpec::Bursty { .. } | ArrivalSpec::TraceFile { .. } => None,
        }
    }

    /// `true` when the workload replays a fixed external trace: every
    /// simulation of it is the same sample path regardless of the seed,
    /// so replication confidence intervals are meaningless for it. A
    /// churn axis makes even a fixed trace seed-dependent again (the
    /// fault schedule is seeded).
    pub fn is_deterministic(&self) -> bool {
        matches!(self.arrivals, ArrivalSpec::TraceFile { .. }) && self.churn.is_none()
    }

    /// Classifies which analytic route evaluates this workload under
    /// `policy` (see [`Tractability`]). Anything not recognized as
    /// tractable reports [`Tractability::Intractable`]. Like the policy
    /// structure detection in `analysis`, the elastic-only check *probes*
    /// the allocation map on a finite window — a policy that hands the
    /// whole cluster to the elastic class inside the window but throttles
    /// it beyond is misclassified; such policies should be evaluated by
    /// simulation (ignore the analysis column).
    pub fn tractability(
        &self,
        policy: &dyn AllocationPolicy,
        params: &SystemParams,
    ) -> Tractability {
        if self.churn.is_some() {
            // Time-varying capacity: none of the fixed-k chains apply.
            return Tractability::Intractable;
        }
        let exp_service = |spec: &ServiceSpec| matches!(spec, ServiceSpec::Exponential);
        let both_exp = (params.lambda_i == 0.0 || exp_service(&self.service_i))
            && (params.lambda_e == 0.0 || exp_service(&self.service_e));
        match &self.arrivals {
            ArrivalSpec::Poisson | ArrivalSpec::ReplayedPoisson => {
                if both_exp {
                    return Tractability::PoissonExp;
                }
            }
            ArrivalSpec::Mmpp { .. } => {
                if both_exp {
                    return Tractability::MapExp;
                }
            }
            ArrivalSpec::Bursty { .. } | ArrivalSpec::TraceFile { .. } => {
                return Tractability::Intractable;
            }
        }
        // Elastic-only phase-type service: MAP/PH/1 at speed k, provided
        // the policy gives the whole cluster to the elastic class.
        if params.lambda_i == 0.0
            && self.service_e.phase_type(params.mu_e).is_some()
            && self.effective_map(params).is_some()
            && elastic_gets_everything(policy, params.k)
        {
            return Tractability::MapPh1;
        }
        Tractability::Intractable
    }

    /// Analytic mean response times for this workload under `policy`, or
    /// `None` when no exact chain applies (see [`Workload::tractability`]).
    pub fn analyze(
        &self,
        policy: &dyn AllocationPolicy,
        params: &SystemParams,
        opts: &AnalyzeOptions,
    ) -> Result<Option<PolicyAnalysis>, AnalysisError> {
        match self.tractability(policy, params) {
            Tractability::PoissonExp => analyze_policy_with(policy, params, opts).map(Some),
            Tractability::MapExp => {
                let map = self
                    .effective_map(params)
                    .expect("MapExp implies an effective MAP");
                analyze_policy_map(policy, params, &map, opts).map(Some)
            }
            Tractability::MapPh1 => {
                let map = self
                    .effective_map(params)
                    .expect("MapPh1 implies an effective MAP");
                let ph = self
                    .service_e
                    .phase_type(params.mu_e)
                    .expect("MapPh1 implies phase-type service")
                    .time_scaled(params.k as f64);
                let qbd = Qbd::map_ph1(
                    map.d0(),
                    map.d1(),
                    ph.initial_distribution(),
                    ph.sub_generator(),
                )
                .map_err(AnalysisError::Qbd)?;
                let sol = qbd.solve().map_err(AnalysisError::Qbd)?;
                Ok(Some(PolicyAnalysis::from_class_means(
                    params,
                    0.0,
                    sol.mean_level(),
                )))
            }
            Tractability::Intractable => Ok(None),
        }
    }

    /// Simulated-time horizon an arrival source must cover for a
    /// steady-state run of `warmup + departures` departures: 1.4× the
    /// expected duration plus slack, so exhaustion of a recorded trace is
    /// a rare tail event. [`Workload::simulate_each`] sizes its sources
    /// and fault schedules with this; other drivers that build a source
    /// for such a run must use the same formula or their sources run dry
    /// where plain simulation would not.
    pub fn horizon_hint(&self, params: &SystemParams, warmup: u64, departures: u64) -> f64 {
        1.4 * (warmup + departures) as f64 / params.total_lambda() + 100.0
    }

    /// One steady-state DES run of this workload under `policy`: the
    /// one-policy case of [`Workload::simulate_each`]. Errors when the
    /// arrival source is exhausted before delivering the requested
    /// measurement window (a trace file that is too short), so a
    /// truncated run is never silently reported as a full one.
    pub fn simulate(
        &self,
        policy: &dyn AllocationPolicy,
        params: &SystemParams,
        seed: u64,
        warmup: u64,
        departures: u64,
    ) -> Result<SimReport, String> {
        self.simulate_each(&[policy], params, seed, warmup, departures)
            .pop()
            .expect("one result per policy")
    }

    /// Steady-state DES runs of every policy in `policies` on one sample
    /// path: the arrival source and the fault schedule are built once from
    /// `seed` and shared through [`Simulation::run_each`]. Entry `n` is
    /// bit-identical to [`Workload::simulate`] of `policies[n]` with the
    /// same arguments, its error included: a policy whose measurement
    /// window the source cannot fill fails alone, and an error building
    /// the source fails every policy.
    pub fn simulate_each(
        &self,
        policies: &[&dyn AllocationPolicy],
        params: &SystemParams,
        seed: u64,
        warmup: u64,
        departures: u64,
    ) -> Vec<Result<SimReport, String>> {
        let horizon = self.horizon_hint(params, warmup, departures);
        let mut source = match self.build_source(params, seed, horizon) {
            Ok(source) => source,
            Err(e) => return vec![Err(e); policies.len()],
        };
        let mut sim = Simulation::new(DesConfig::steady_state(params.k, warmup, departures));
        if let Some(spec) = &self.churn {
            // The fault schedule shares the run seed, so replications
            // decorrelate faults exactly like arrivals; it covers the
            // same horizon the source is sized for.
            sim = sim.with_faults(&spec.schedule(params.k, seed, horizon));
        }
        sim.run_each(policies, source.as_mut())
            .into_iter()
            .map(|report| {
                let measured = report.completed[0] + report.completed[1];
                if measured < departures {
                    return Err(format!(
                        "arrival source exhausted after {measured} of {departures} measured \
                         departures (trace too short for warmup {warmup} + departures \
                         {departures}?)"
                    ));
                }
                Ok(report)
            })
            .collect()
    }

    /// `n` independent replications on decorrelated seed streams
    /// (serially — the scenario sweep parallelizes across `(workload,
    /// policy)` pairs instead). Deterministic workloads (external trace
    /// replay, where every seed produces the same sample path) run a
    /// **single** simulation and return one report: averaging identical
    /// replays would waste work and dress the result up with a
    /// zero-width "confidence interval".
    pub fn replications(
        &self,
        policy: &dyn AllocationPolicy,
        params: &SystemParams,
        base_seed: u64,
        n: usize,
        warmup: u64,
        departures: u64,
    ) -> Result<Vec<SimReport>, String> {
        let n = if self.is_deterministic() { 1 } else { n };
        let reports = run_replications_with_threads(base_seed, n, 1, |seed| {
            self.simulate(policy, params, seed, warmup, departures)
        });
        reports.into_iter().collect()
    }
}

/// How deep the elastic-only probe looks (`j = 1..=PROBE_J`) when
/// checking that a policy hands the whole cluster to the elastic class;
/// matches the deepest phase cap the analysis chains use in practice.
const PROBE_J: usize = 256;

/// Probes whether `policy` hands the entire cluster to the elastic class
/// whenever only elastic jobs are present (`i = 0`, `j ≥ 1`) — the
/// precondition for the MAP/PH/1 elastic-only reduction. Finite-window
/// probe (see [`Workload::tractability`] for the caveat).
fn elastic_gets_everything(policy: &dyn AllocationPolicy, k: u32) -> bool {
    (1..=PROBE_J).all(|j| policy.allocate(0, j, k).elastic == k as f64)
}

/// Every shipped workload scenario family, mirroring
/// [`crate::policy::registry`]: the paper's Poisson baseline, a bursty
/// MMPP, batch arrivals, trace-file replay, and two non-exponential
/// service shapes.
pub fn registry() -> Vec<Workload> {
    vec![
        Workload::new(
            ArrivalSpec::Poisson,
            ServiceSpec::Exponential,
            ServiceSpec::Exponential,
        )
        .named("poisson"),
        Workload::new(
            ArrivalSpec::Mmpp {
                r01: 1.0,
                r10: 1.0,
                a0: 9.0,
                a1: 1.0,
            },
            ServiceSpec::Exponential,
            ServiceSpec::Exponential,
        )
        .named("map"),
        Workload::new(
            ArrivalSpec::Bursty { mean_burst: 4.0 },
            ServiceSpec::Exponential,
            ServiceSpec::Exponential,
        )
        .named("bursty"),
        Workload::new(
            ArrivalSpec::ReplayedPoisson,
            ServiceSpec::Exponential,
            ServiceSpec::Exponential,
        )
        .named("trace"),
        Workload::new(
            ArrivalSpec::Poisson,
            ServiceSpec::Erlang { stages: 3 },
            ServiceSpec::Erlang { stages: 3 },
        )
        .named("smooth-service"),
        Workload::new(
            ArrivalSpec::Poisson,
            ServiceSpec::HyperExp { cv2: 4.0 },
            ServiceSpec::HyperExp { cv2: 4.0 },
        )
        .named("heavytail-service"),
    ]
}

/// Parses an arrival spec: `poisson`, `map` (default MMPP-2 shape),
/// `map:<r01>x<r10>x<a0>x<a1>`, `bursty`, `bursty:<mean_jobs_per_burst>`,
/// `trace` (self-recorded Poisson replay), or `trace:<path>`.
pub fn parse_arrivals(spec: &str) -> Result<ArrivalSpec, String> {
    match spec {
        "poisson" => return Ok(ArrivalSpec::Poisson),
        "map" => {
            return Ok(ArrivalSpec::Mmpp {
                r01: 1.0,
                r10: 1.0,
                a0: 9.0,
                a1: 1.0,
            })
        }
        "bursty" => return Ok(ArrivalSpec::Bursty { mean_burst: 4.0 }),
        "trace" => return Ok(ArrivalSpec::ReplayedPoisson),
        _ => {}
    }
    if let Some(raw) = spec.strip_prefix("map:") {
        let form = "map:<r01>x<r10>x<a0>x<a1>";
        let parts: Vec<&str> = raw.split('x').collect();
        if parts.len() != 4 {
            return Err(bad(spec, form));
        }
        let mut vals = [0.0f64; 4];
        for (slot, part) in vals.iter_mut().zip(&parts) {
            *slot = part.parse().map_err(|_| bad(spec, form))?;
        }
        let [r01, r10, a0, a1] = vals;
        if !(r01 > 0.0 && r10 > 0.0 && a0 >= 0.0 && a1 >= 0.0 && a0 + a1 > 0.0) {
            return Err(bad(spec, form));
        }
        return Ok(ArrivalSpec::Mmpp { r01, r10, a0, a1 });
    }
    if let Some(raw) = spec.strip_prefix("bursty:") {
        let mean_burst: f64 = raw
            .parse()
            .map_err(|_| bad(spec, "bursty:<mean_jobs_per_burst>"))?;
        if !(mean_burst > 1.0 && mean_burst.is_finite()) {
            return Err(bad(spec, "bursty:<mean_jobs_per_burst> (> 1)"));
        }
        return Ok(ArrivalSpec::Bursty { mean_burst });
    }
    if let Some(raw) = spec.strip_prefix("trace:") {
        if raw.is_empty() {
            return Err(bad(spec, "trace:<path>"));
        }
        return Ok(ArrivalSpec::TraceFile { path: raw.into() });
    }
    Err(format!(
        "unknown arrival spec '{spec}' (expected poisson, map[:r01xr10xa0xa1], \
         bursty[:<mean>], trace[:<path>])"
    ))
}

/// Parses a service spec: `exp`, `erlang:<stages>`, `hyper:<cv2>`, `det`.
pub fn parse_service(spec: &str) -> Result<ServiceSpec, String> {
    match spec {
        "exp" => return Ok(ServiceSpec::Exponential),
        "det" => return Ok(ServiceSpec::Deterministic),
        _ => {}
    }
    if let Some(raw) = spec.strip_prefix("erlang:") {
        let stages: u32 = raw.parse().map_err(|_| bad(spec, "erlang:<stages>"))?;
        if stages == 0 {
            return Err(bad(spec, "erlang:<stages> (>= 1)"));
        }
        return Ok(ServiceSpec::Erlang { stages });
    }
    if let Some(raw) = spec.strip_prefix("hyper:") {
        let cv2: f64 = raw.parse().map_err(|_| bad(spec, "hyper:<cv2>"))?;
        if !(cv2 >= 1.0 && cv2.is_finite()) {
            return Err(bad(spec, "hyper:<cv2> (cv2 >= 1)"));
        }
        return Ok(ServiceSpec::HyperExp { cv2 });
    }
    Err(format!(
        "unknown service spec '{spec}' (expected exp, erlang:<stages>, hyper:<cv2>, det)"
    ))
}

/// Parses a full workload: a registry name (`poisson`, `map`, `bursty`,
/// `trace`, …) or an explicit arrival spec, with optional service
/// overrides and a capacity-churn axis ([`FaultSpec::parse`]) applied on
/// top.
pub fn parse_workload(
    spec: &str,
    service_i: Option<&str>,
    service_e: Option<&str>,
    churn: Option<&str>,
) -> Result<Workload, String> {
    let base = registry()
        .into_iter()
        .find(|w| w.name == spec)
        .map(Ok)
        .unwrap_or_else(|| {
            parse_arrivals(spec)
                .map(|a| Workload::new(a, ServiceSpec::Exponential, ServiceSpec::Exponential))
        })?;
    let mut w = base;
    if let Some(spec_i) = service_i {
        w.service_i = parse_service(spec_i)?;
    }
    if let Some(spec_e) = service_e {
        w.service_e = parse_service(spec_e)?;
    }
    if service_i.is_some() || service_e.is_some() {
        w = Workload::new(w.arrivals, w.service_i, w.service_e);
    }
    if let Some(c) = churn {
        w = w.churned(FaultSpec::parse(c)?);
    }
    Ok(w)
}

fn bad(spec: &str, form: &str) -> String {
    format!("cannot parse '{spec}' (expected {form})")
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_sim::policy::{ElasticFirst, FairShare, InelasticFirst};

    fn params() -> SystemParams {
        SystemParams::with_equal_lambdas(3, 0.5, 1.0, 0.5).unwrap()
    }

    #[test]
    fn registry_names_are_unique_and_cover_the_four_families() {
        let reg = registry();
        let mut names: Vec<&str> = reg.iter().map(|w| w.name.as_str()).collect();
        for want in ["poisson", "map", "bursty", "trace"] {
            assert!(names.contains(&want), "registry missing '{want}'");
        }
        names.sort();
        let n = names.len();
        names.dedup();
        assert_eq!(names.len(), n, "duplicate workload names");
    }

    #[test]
    fn parser_round_trips_registry_and_explicit_specs() {
        for (spec, want) in [
            ("poisson", ArrivalSpec::Poisson),
            (
                "map:2x0.5x8x1",
                ArrivalSpec::Mmpp {
                    r01: 2.0,
                    r10: 0.5,
                    a0: 8.0,
                    a1: 1.0,
                },
            ),
            ("bursty:6", ArrivalSpec::Bursty { mean_burst: 6.0 }),
            ("trace", ArrivalSpec::ReplayedPoisson),
            (
                "trace:/tmp/foo.trace",
                ArrivalSpec::TraceFile {
                    path: "/tmp/foo.trace".into(),
                },
            ),
        ] {
            assert_eq!(parse_arrivals(spec).unwrap(), want, "spec '{spec}'");
        }
        for (spec, want) in [
            ("exp", ServiceSpec::Exponential),
            ("erlang:4", ServiceSpec::Erlang { stages: 4 }),
            ("hyper:2.5", ServiceSpec::HyperExp { cv2: 2.5 }),
            ("det", ServiceSpec::Deterministic),
        ] {
            assert_eq!(parse_service(spec).unwrap(), want, "spec '{spec}'");
        }
    }

    #[test]
    fn parser_rejects_malformed_specs() {
        for spec in [
            "nope",
            "map:1x2x3",
            "map:axbxcxd",
            "map:0x1x1x1",
            "bursty:1",
            "bursty:x",
            "trace:",
        ] {
            assert!(parse_arrivals(spec).is_err(), "'{spec}' should fail");
        }
        for spec in ["nope", "erlang:0", "erlang:x", "hyper:0.5", "hyper:x"] {
            assert!(parse_service(spec).is_err(), "'{spec}' should fail");
        }
    }

    #[test]
    fn workload_parser_layers_service_overrides() {
        let w = parse_workload("map", None, Some("erlang:2"), None).unwrap();
        assert!(matches!(w.arrivals, ArrivalSpec::Mmpp { .. }));
        assert_eq!(w.service_i, ServiceSpec::Exponential);
        assert_eq!(w.service_e, ServiceSpec::Erlang { stages: 2 });
        // Registry names resolve with their canned service shapes.
        let t = parse_workload("heavytail-service", None, None, None).unwrap();
        assert_eq!(t.service_i, ServiceSpec::HyperExp { cv2: 4.0 });
    }

    #[test]
    fn service_specs_hit_the_target_mean() {
        use rand::rngs::StdRng;
        use rand::SeedableRng;
        let mu = 2.0;
        for spec in [
            ServiceSpec::Exponential,
            ServiceSpec::Erlang { stages: 3 },
            ServiceSpec::HyperExp { cv2: 4.0 },
            ServiceSpec::Deterministic,
        ] {
            let d = spec.build(mu);
            assert!(
                (d.mean() - 0.5).abs() < 1e-9,
                "{}: mean {}",
                spec.label(),
                d.mean()
            );
            let mut rng = StdRng::seed_from_u64(7);
            let n = 20_000;
            let emp: f64 = (0..n).map(|_| d.sample(&mut rng)).sum::<f64>() / n as f64;
            assert!((emp - 0.5).abs() < 0.02, "{}: emp {emp}", spec.label());
            // Phase-type view (when it exists) has the same moments.
            if let Some(ph) = spec.phase_type(mu) {
                let (a, b) = (ph.moments(), d.moments());
                assert!((a.m1 - b.m1).abs() < 1e-9, "{}", spec.label());
                assert!((a.m2 - b.m2).abs() < 1e-9, "{}", spec.label());
            }
        }
    }

    #[test]
    fn every_registry_workload_feeds_the_des() {
        let p = params();
        for w in registry() {
            let r = w
                .simulate(&FairShare, &p, 11, 200, 2_000)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(
                r.completed[0] + r.completed[1] >= 1_000,
                "{}: too few departures",
                w.name
            );
            assert!(r.mean_response.is_finite() && r.mean_response > 0.0);
        }
    }

    #[test]
    fn tractability_classification_matches_the_design() {
        let p = params();
        let reg = registry();
        let by_name = |n: &str| reg.iter().find(|w| w.name == n).unwrap();
        assert_eq!(
            by_name("poisson").tractability(&InelasticFirst, &p),
            Tractability::PoissonExp
        );
        assert_eq!(
            by_name("trace").tractability(&InelasticFirst, &p),
            Tractability::PoissonExp
        );
        assert_eq!(
            by_name("map").tractability(&FairShare, &p),
            Tractability::MapExp
        );
        assert_eq!(
            by_name("bursty").tractability(&InelasticFirst, &p),
            Tractability::Intractable
        );
        assert_eq!(
            by_name("heavytail-service").tractability(&InelasticFirst, &p),
            Tractability::Intractable
        );
        // Elastic-only phase-type service: MAP/PH/1.
        let p_e = SystemParams::new(3, 0.0, 1.0, 1.0, 1.0).unwrap();
        assert_eq!(
            by_name("heavytail-service").tractability(&ElasticFirst, &p_e),
            Tractability::MapPh1
        );
    }

    #[test]
    fn churn_axis_composes_with_every_workload_family() {
        let p = params();
        let spec = FaultSpec::parse("crash:mtbf=60,mttr=10").unwrap();
        for base in registry() {
            let w = base.churned(spec);
            assert!(w.name.ends_with("+crash:mtbf=60,mttr=10"), "{}", w.name);
            // Churn kills every analytic route — simulation only.
            assert_eq!(w.tractability(&FairShare, &p), Tractability::Intractable);
            let r = w
                .simulate(&FairShare, &p, 17, 100, 1_000)
                .unwrap_or_else(|e| panic!("{}: {e}", w.name));
            assert!(r.completed[0] + r.completed[1] >= 1_000, "{}", w.name);
            assert!(r.mean_response.is_finite() && r.mean_response > 0.0);
        }
    }

    #[test]
    fn churned_trace_replay_is_seed_dependent_again() {
        let base = registry().into_iter().find(|w| w.name == "trace").unwrap();
        assert!(!base.is_deterministic(), "self-recorded replay reseeds");
        let spec = FaultSpec::parse("drain:period=40,down=5").unwrap();
        let w = base.churned(spec);
        assert!(!w.is_deterministic());
        assert!(w.churn.is_some());
    }

    #[test]
    fn workload_parser_layers_the_churn_axis() {
        let w = parse_workload("map", None, None, Some("crash:mtbf=50,mttr=5")).unwrap();
        assert_eq!(
            w.churn,
            Some(FaultSpec::parse("crash:mtbf=50,mttr=5").unwrap())
        );
        assert_eq!(w.name, "map+crash:mtbf=50,mttr=5");
        // Malformed churn specs surface the FaultSpec parser's message.
        let err = parse_workload("poisson", None, None, Some("crash:mtbf=-1")).unwrap_err();
        assert!(err.contains("cannot parse"), "{err}");
        assert!(parse_workload("poisson", None, None, Some("nuke")).is_err());
    }

    #[test]
    fn poisson_workload_analysis_matches_analyze_policy_bitwise() {
        let p = params();
        let opts = AnalyzeOptions::default();
        let w = Workload::new(
            ArrivalSpec::Poisson,
            ServiceSpec::Exponential,
            ServiceSpec::Exponential,
        );
        let via_workload = w.analyze(&InelasticFirst, &p, &opts).unwrap().unwrap();
        let direct = analyze_policy_with(&InelasticFirst, &p, &opts).unwrap();
        assert_eq!(
            via_workload.mean_response.to_bits(),
            direct.mean_response.to_bits()
        );
    }

    #[test]
    fn elastic_only_ph_service_analysis_matches_des() {
        // M/PH/1 at speed k: hyperexponential service, elastic-only.
        let p = SystemParams::new(2, 0.0, 1.2, 1.0, 1.0).unwrap();
        let w = Workload::new(
            ArrivalSpec::Poisson,
            ServiceSpec::Exponential,
            ServiceSpec::HyperExp { cv2: 3.0 },
        );
        let a = w
            .analyze(&ElasticFirst, &p, &AnalyzeOptions::default())
            .unwrap()
            .expect("tractable");
        let reports = w
            .replications(&ElasticFirst, &p, 5, 6, 3_000, 30_000)
            .unwrap();
        let mean: f64 = reports.iter().map(|r| r.mean_response).sum::<f64>() / reports.len() as f64;
        assert!(
            (a.mean_response - mean).abs() / mean < 0.05,
            "analysis {} vs DES {mean}",
            a.mean_response
        );
    }
}
