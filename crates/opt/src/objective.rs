//! Objective backends: how a candidate policy is scored.
//!
//! Both backends return the stationary mean response time `E[T]` (lower
//! is better) and evaluate whole candidate batches through the
//! [`eirs_core::sweep`] parallel engine, so every optimizer generation
//! fans out over the sweep workers:
//!
//! * [`AnalyticObjective`] — exact evaluation via the scenario engine's
//!   tractability dispatcher ([`Workload::analyze`]): the policy-generic
//!   QBD for Poisson×exp, the MAP-phase-extended QBD for MAP×exp, or the
//!   MAP/PH/1 chain for elastic-only phase-type traffic. Errors when no
//!   analytic route applies.
//! * [`DesObjective`] — simulation fallback for intractable workloads
//!   (bursty batches, trace replay, non-exponential service under
//!   two-class traffic). Every candidate is scored on the **same**
//!   fixed replication seed set, so all randomness is common across
//!   candidates (the batch form of `eirs_sim::coupling`'s paired
//!   comparisons): candidate differences are variance-reduced and the
//!   whole search is deterministic under a fixed base seed. Because the
//!   candidates share each seed's sample path, a batch builds that path
//!   once per seed and candidate group: [`Workload::simulate_each`] runs
//!   the group in lockstep on one arrival source and one fault schedule,
//!   and every score is bit-identical to averaging the candidate's own
//!   [`Workload::simulate`] runs. The number of groups per seed weighs
//!   the sweep workers' balance against how many runs share one path.
//!
//! [`objective_for`] picks the backend by probing tractability with a
//! representative policy of the family under search.

use eirs_core::analysis::AnalyzeOptions;
use eirs_core::scenario::{Tractability, Workload};
use eirs_core::{sweep, SystemParams};
use eirs_sim::policy::AllocationPolicy;
use eirs_sim::replicate::replication_seeds;
use std::ops::Range;

/// Scores batches of candidate policies; lower values are better.
pub trait Objective: Sync {
    /// Backend name for reports (`analysis` or `des`).
    fn name(&self) -> String;

    /// Mean response time of each candidate, fanned out in parallel over
    /// the sweep workers. One `Err` fails the whole batch (optimizers
    /// propagate it), so a search never silently continues on garbage.
    fn evaluate_batch(&self, policies: &[Box<dyn AllocationPolicy>]) -> Vec<Result<f64, String>>;
}

/// Exact analytic evaluation via the tractability dispatcher.
#[derive(Debug, Clone)]
pub struct AnalyticObjective {
    workload: Workload,
    params: SystemParams,
    opts: AnalyzeOptions,
}

impl AnalyticObjective {
    /// Analytic objective for `workload` at `params`.
    pub fn new(workload: Workload, params: SystemParams, opts: AnalyzeOptions) -> Self {
        Self {
            workload,
            params,
            opts,
        }
    }

    /// Convenience constructor for the paper's Poisson×exponential model.
    pub fn poisson_exp(params: SystemParams, opts: AnalyzeOptions) -> Self {
        use eirs_core::scenario::{ArrivalSpec, ServiceSpec};
        Self::new(
            Workload::new(
                ArrivalSpec::Poisson,
                ServiceSpec::Exponential,
                ServiceSpec::Exponential,
            ),
            params,
            opts,
        )
    }
}

impl Objective for AnalyticObjective {
    fn name(&self) -> String {
        "analysis".into()
    }

    fn evaluate_batch(&self, policies: &[Box<dyn AllocationPolicy>]) -> Vec<Result<f64, String>> {
        sweep::sweep(policies, |policy| {
            match self
                .workload
                .analyze(policy.as_ref(), &self.params, &self.opts)
            {
                Ok(Some(a)) => Ok(a.mean_response),
                Ok(None) => Err(format!(
                    "workload '{}' has no analytic route for policy '{}'",
                    self.workload.name,
                    policy.name()
                )),
                Err(e) => Err(format!("{}: {e}", policy.name())),
            }
        })
    }
}

/// Common-random-numbers DES evaluation: every candidate runs the same
/// fixed seed set, so candidate comparisons are paired, and each seed's
/// sample path is built once per candidate group (see the [module
/// docs](self)).
#[derive(Debug, Clone)]
pub struct DesObjective {
    workload: Workload,
    params: SystemParams,
    seeds: Vec<u64>,
    warmup: u64,
    departures: u64,
}

impl DesObjective {
    /// DES objective with `replications` runs of `departures` measured
    /// departures each (warm-up `departures / 10`), on seed streams
    /// derived once from `base_seed` and shared by every candidate.
    /// Deterministic trace-replay workloads collapse to one replication —
    /// every seed replays the same path.
    pub fn new(
        workload: Workload,
        params: SystemParams,
        base_seed: u64,
        replications: usize,
        departures: u64,
    ) -> Self {
        let n = if workload.is_deterministic() {
            1
        } else {
            replications.max(1)
        };
        Self {
            workload,
            params,
            seeds: replication_seeds(base_seed, n),
            warmup: departures / 10,
            departures,
        }
    }

    /// The shared replication seed set (one entry per replication).
    pub fn seeds(&self) -> &[u64] {
        &self.seeds
    }
}

impl Objective for DesObjective {
    fn name(&self) -> String {
        "des".into()
    }

    fn evaluate_batch(&self, policies: &[Box<dyn AllocationPolicy>]) -> Vec<Result<f64, String>> {
        // Fan (seed, candidate group) items out: each item builds its
        // seed's sample path once and runs the group on it in lockstep,
        // and a worker holds one group's runs at a time. Ordered sweep +
        // fixed-order averaging keeps the result bit-identical across
        // thread counts.
        let n = policies.len();
        let groups = group_count(n, self.seeds.len(), sweep::threads());
        let items: Vec<(u64, Range<usize>)> = self
            .seeds
            .iter()
            .flat_map(|&seed| {
                (0..groups).map(move |g| (seed, g * n / groups..(g + 1) * n / groups))
            })
            .collect();
        let runs = sweep::sweep(&items, |(seed, group)| {
            let group: Vec<&dyn AllocationPolicy> =
                policies[group.clone()].iter().map(|p| p.as_ref()).collect();
            self.workload
                .simulate_each(&group, &self.params, *seed, self.warmup, self.departures)
                .into_iter()
                .map(|r| r.map(|r| r.mean_response))
                .collect::<Vec<_>>()
        });
        // by_seed[s][c]: candidate c's mean response on seed s.
        let mut runs = runs.into_iter();
        let by_seed: Vec<Vec<Result<f64, String>>> = self
            .seeds
            .iter()
            .map(|_| runs.by_ref().take(groups).flatten().collect())
            .collect();
        (0..n)
            .map(|c| {
                let mut sum = 0.0;
                for runs in &by_seed {
                    match &runs[c] {
                        Ok(m) => sum += m,
                        Err(e) => return Err(format!("{}: {e}", policies[c].name())),
                    }
                }
                Ok(sum / by_seed.len() as f64)
            })
            .collect()
    }
}

/// How many contiguous groups each seed's `n` candidates split into when
/// the `seeds · groups` (seed, group) items are swept over `threads`
/// workers: the count that leaves the busiest worker the least work,
/// fewer and larger groups winning ties. A group of `m` lockstep runs is
/// weighed as `(1 + 4m) / 5` runs, because the arrival stream and fault
/// schedule its runs share are a fifth to a quarter of a replication on
/// bursty, churned workloads (docs/ARCHITECTURE.md). `groups = n` is one
/// run per item, as scoring each (candidate, seed) pair on its own would
/// be.
fn group_count(n: usize, seeds: usize, threads: usize) -> usize {
    (1..=n.max(1))
        .min_by_key(|&g| sweep::busiest_worker_items(seeds * g, threads) * (1 + 4 * n.div_ceil(g)))
        .expect("at least one group")
}

/// Configuration of the DES fallback used by [`objective_for`].
#[derive(Debug, Clone, Copy)]
pub struct DesBudget {
    /// Base seed for the shared replication streams.
    pub base_seed: u64,
    /// Replications per candidate evaluation.
    pub replications: usize,
    /// Measured departures per replication.
    pub departures: u64,
}

impl Default for DesBudget {
    fn default() -> Self {
        Self {
            base_seed: 42,
            replications: 6,
            departures: 50_000,
        }
    }
}

/// Picks the scoring backend for `(workload, params)`: the exact analytic
/// chain when the tractability dispatcher finds a route for `probe` (a
/// representative policy of the family under search — tractability can
/// depend on the policy's shape), otherwise the CRN-paired DES.
pub fn objective_for(
    workload: &Workload,
    params: &SystemParams,
    probe: &dyn AllocationPolicy,
    opts: &AnalyzeOptions,
    des: &DesBudget,
) -> Box<dyn Objective> {
    match workload.tractability(probe, params) {
        Tractability::Intractable => Box::new(DesObjective::new(
            workload.clone(),
            *params,
            des.base_seed,
            des.replications,
            des.departures,
        )),
        _ => Box::new(AnalyticObjective::new(workload.clone(), *params, *opts)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_core::analysis::analyze_policy_with;
    use eirs_core::policy::{ElasticThresholdPolicy, InelasticFirst};
    use eirs_core::scenario::{ArrivalSpec, ServiceSpec};

    fn params() -> SystemParams {
        SystemParams::with_equal_lambdas(3, 0.5, 1.0, 0.5).unwrap()
    }

    fn opts() -> AnalyzeOptions {
        AnalyzeOptions {
            phase_cap: 24,
            ..AnalyzeOptions::default()
        }
    }

    #[test]
    fn analytic_objective_matches_direct_analysis_bitwise() {
        let obj = AnalyticObjective::poisson_exp(params(), opts());
        let policies: Vec<Box<dyn AllocationPolicy>> = vec![
            Box::new(InelasticFirst),
            Box::new(ElasticThresholdPolicy { threshold: 3 }),
        ];
        let got = obj.evaluate_batch(&policies);
        for (policy, value) in policies.iter().zip(&got) {
            let direct = analyze_policy_with(policy.as_ref(), &params(), &opts()).unwrap();
            assert_eq!(
                value.as_ref().unwrap().to_bits(),
                direct.mean_response.to_bits()
            );
        }
    }

    #[test]
    fn analytic_objective_reports_intractable_workloads() {
        let bursty = Workload::new(
            ArrivalSpec::Bursty { mean_burst: 4.0 },
            ServiceSpec::Exponential,
            ServiceSpec::Exponential,
        );
        let obj = AnalyticObjective::new(bursty, params(), opts());
        let policies: Vec<Box<dyn AllocationPolicy>> = vec![Box::new(InelasticFirst)];
        assert!(obj.evaluate_batch(&policies)[0].is_err());
    }

    #[test]
    fn des_objective_is_deterministic_and_paired() {
        let w = Workload::new(
            ArrivalSpec::Bursty { mean_burst: 3.0 },
            ServiceSpec::Exponential,
            ServiceSpec::Exponential,
        );
        let obj = DesObjective::new(w, params(), 7, 3, 4_000);
        let policies: Vec<Box<dyn AllocationPolicy>> = vec![
            Box::new(InelasticFirst),
            Box::new(InelasticFirst), // identical candidate
        ];
        let a = obj.evaluate_batch(&policies);
        let b = obj.evaluate_batch(&policies);
        let v0 = *a[0].as_ref().unwrap();
        // Same candidate, same shared seeds: identical scores (CRN), and
        // re-evaluation is bit-stable.
        assert_eq!(v0.to_bits(), a[1].as_ref().unwrap().to_bits());
        assert_eq!(v0.to_bits(), b[0].as_ref().unwrap().to_bits());
        assert!(v0.is_finite() && v0 > 0.0);
    }

    #[test]
    fn group_count_weighs_idle_workers_against_shared_paths() {
        // group_count(n candidates, seeds, threads). The des-search
        // setting keeps one group per seed, and so do 5 seeds on 2
        // workers: 10 half groups would be claimed in 5 two-item chunks.
        // A one-seed workload and 3 seeds on 2 workers split; so do 6
        // seeds on 4, 8 or 16 workers, and 7 seeds on 8 do not.
        for (n, seeds, threads, want) in [
            (8, 2, 2, 1),
            (8, 5, 2, 1),
            (8, 6, 2, 1),
            (8, 1, 2, 2),
            (8, 3, 2, 2),
            (8, 6, 4, 2),
            (8, 6, 8, 4),
            (8, 6, 16, 8),
            (8, 7, 8, 1),
            (0, 2, 4, 1),
        ] {
            assert_eq!(
                group_count(n, seeds, threads),
                want,
                "{n} × {seeds} on {threads}"
            );
        }
    }

    #[test]
    fn objective_dispatch_follows_tractability() {
        let poisson = Workload::new(
            ArrivalSpec::Poisson,
            ServiceSpec::Exponential,
            ServiceSpec::Exponential,
        );
        let bursty = Workload::new(
            ArrivalSpec::Bursty { mean_burst: 4.0 },
            ServiceSpec::Exponential,
            ServiceSpec::Exponential,
        );
        let p = params();
        let des = DesBudget::default();
        assert_eq!(
            objective_for(&poisson, &p, &InelasticFirst, &opts(), &des).name(),
            "analysis"
        );
        assert_eq!(
            objective_for(&bursty, &p, &InelasticFirst, &opts(), &des).name(),
            "des"
        );
    }
}
