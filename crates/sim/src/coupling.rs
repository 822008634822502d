//! Coupled sample-path experiments (the experimental face of Theorem 3)
//! and common-random-numbers paired comparisons.
//!
//! Theorem 3 couples Inelastic-First with an arbitrary class-P policy on a
//! *fixed arrival sequence* and shows the total work `W(t)` and inelastic
//! work `W_I(t)` are pointwise smaller under IF. This module runs policies
//! through the [cluster kernel](crate::kernel) — the event loop the DES
//! runs too — samples those trajectories and checks dominance.
//!
//! The same coupling idea powers variance reduction for *steady-state
//! policy comparisons*: [`paired_comparison`] runs two policies on the
//! identical arrival sample path per replication (one source per seed,
//! read by both runs in lockstep through
//! [`Simulation::run_each`](crate::des::Simulation::run_each); every
//! random quantity — interarrival times, classes, and job sizes — lives
//! in the source), so the difference estimator `E[T_A] − E[T_B]` keeps
//! only the policy effect and sheds the common arrival noise. The
//! `eirs_opt` DES objective is built on this: candidates in a policy
//! search are scored on one fixed seed set, making every pairwise
//! comparison a paired one.
//!
//! Work trajectories are piecewise linear between events (service drains
//! work at the constant allocated rate) with upward jumps at arrivals, so a
//! trajectory is stored as the sequence of event-epoch samples, recording
//! *both* the pre-jump and post-jump value at arrival instants. Evaluation
//! between samples is exact linear interpolation, and dominance over all
//! `t ≥ 0` reduces to dominance at the merged epochs of the two
//! trajectories.

use crate::arrivals::{ArrivalSource, ArrivalTrace};
use crate::des::{DesConfig, SimReport, Simulation};
use crate::job::JobClass;
use crate::kernel::{Cluster, Hooks, Step};
use crate::policy::{AllocationPolicy, ClassAllocation};
use crate::replicate::replication_seeds;
use crate::stats::ReplicationStats;
use eirs_numerics::parallel;

/// One sampled point of a work trajectory.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct WorkSample {
    /// Event epoch.
    pub time: f64,
    /// Total remaining work in system.
    pub total: f64,
    /// Remaining inelastic work in system.
    pub inelastic: f64,
}

impl WorkSample {
    fn of(cluster: &Cluster) -> Self {
        let work = |class| -> f64 { cluster.queue(class).map(|j| j.remaining).sum() };
        let (wi, we) = (work(JobClass::Inelastic), work(JobClass::Elastic));
        Self {
            time: cluster.now(),
            total: wi + we,
            inelastic: wi,
        }
    }
}

/// The coupling's only hook: the policy under test.
struct Policy<'p>(&'p dyn AllocationPolicy, String);

impl Hooks for Policy<'_> {
    fn allocate(&mut self, i: usize, j: usize, servers: u32) -> ClassAllocation {
        self.0.allocate(i, j, servers)
    }

    fn name(&self) -> &str {
        &self.1
    }
}

/// A recorded piecewise-linear work trajectory.
#[derive(Debug, Clone, Default)]
pub struct WorkTrajectory {
    samples: Vec<WorkSample>,
}

impl WorkTrajectory {
    /// Runs `policy` on `trace` (drain-to-empty) with `k` servers and
    /// records `(W(t), W_I(t))` at every event epoch.
    pub fn record(policy: &dyn AllocationPolicy, trace: &ArrivalTrace, k: u32) -> Self {
        let mut stream = trace.stream();
        Self::record_from_source(policy, &mut stream, k)
    }

    fn record_from_source(
        policy: &dyn AllocationPolicy,
        source: &mut dyn ArrivalSource,
        k: u32,
    ) -> Self {
        let mut hooks = Policy(policy, policy.name());
        let mut cluster = Cluster::new(k);
        let mut pending = source.next_arrival();
        let mut samples = vec![WorkSample::of(&cluster)];
        while pending.is_some() || !cluster.is_empty() {
            let step = cluster.step(&mut hooks, pending.map(|a| a.time), f64::INFINITY);
            let due = pending.filter(|_| step == Step::ArrivalDue);
            if let Some(a) = due {
                // Snap exactly onto the trace's arrival epoch: the
                // accumulated clock can overshoot `a.time` by an ulp, and
                // coupled trajectories must place the identical arrival
                // jump at the identical epoch or the merged comparison
                // reads one of them pre-jump.
                cluster.snap_clock(a.time);
            }
            // Pre-jump sample at this epoch.
            samples.push(WorkSample::of(&cluster));
            if let Some(a) = due {
                cluster.admit(&mut hooks, &a);
                pending = source.next_arrival();
                // Post-jump sample (same epoch, larger work).
                samples.push(WorkSample::of(&cluster));
            }
        }
        Self { samples }
    }

    /// The recorded samples.
    pub fn samples(&self) -> &[WorkSample] {
        &self.samples
    }

    /// Final epoch of the trajectory (system empty afterwards).
    pub fn end_time(&self) -> f64 {
        self.samples.last().map_or(0.0, |s| s.time)
    }

    /// Exact `(W(t), W_I(t))` by linear interpolation. At an arrival epoch
    /// the post-jump value is returned; beyond the final sample the system
    /// stays as recorded there (empty, for drained traces).
    pub fn value_at(&self, t: f64) -> (f64, f64) {
        if self.samples.is_empty() {
            return (0.0, 0.0);
        }
        let first = self.samples[0];
        if t < first.time {
            return (first.total, first.inelastic);
        }
        let last_idx = self.samples.len() - 1;
        if self.samples[last_idx].time <= t {
            let last = self.samples[last_idx];
            return (last.total, last.inelastic);
        }
        // Maximal index with time <= t (rightmost among equal epochs, i.e.
        // the post-jump twin); invariant samples[lo].time <= t < samples[hi].time.
        let mut lo = 0usize;
        let mut hi = last_idx;
        while lo + 1 < hi {
            let mid = (lo + hi) / 2;
            if self.samples[mid].time <= t {
                lo = mid;
            } else {
                hi = mid;
            }
        }
        let a = self.samples[lo];
        if a.time == t {
            return (a.total, a.inelastic);
        }
        let b = self.samples[hi];
        let frac = (t - a.time) / (b.time - a.time);
        (
            a.total + frac * (b.total - a.total),
            a.inelastic + frac * (b.inelastic - a.inelastic),
        )
    }

    /// All distinct epochs in the trajectory.
    pub fn epochs(&self) -> Vec<f64> {
        let mut e: Vec<f64> = self.samples.iter().map(|s| s.time).collect();
        e.dedup();
        e
    }
}

/// Checks `a.W(t) ≤ b.W(t) + tol` and `a.W_I(t) ≤ b.W_I(t) + tol` at every
/// merged event epoch of the two trajectories (sufficient for all `t` since
/// both are linear between merged epochs). Returns the first violating
/// epoch, or `None` when dominance holds throughout.
pub fn dominates_throughout(a: &WorkTrajectory, b: &WorkTrajectory, tol: f64) -> Option<f64> {
    let mut epochs: Vec<f64> = a.epochs();
    epochs.extend(b.epochs());
    epochs.sort_by(|x, y| x.partial_cmp(y).expect("finite epochs"));
    epochs.dedup();
    for &t in &epochs {
        let (wa, wia) = a.value_at(t);
        let (wb, wib) = b.value_at(t);
        if wa > wb + tol || wia > wib + tol {
            return Some(t);
        }
    }
    None
}

/// Runs `policy_a` and `policy_b` on the **same** arrival sample path for
/// each of `n` replications (common random numbers): replication `r`
/// derives its seed from `base_seed` via the SplitMix64 stream, builds the
/// arrival source from that seed once through `make_source`, and runs
/// both policies on it in lockstep ([`Simulation::run_each`]). Because
/// every random quantity of the model — interarrival times, job classes,
/// and job sizes — is drawn inside the source, the two runs see
/// bit-identical traffic and differ only in the allocation decisions;
/// each report is bit-identical to a separate run on its own copy of the
/// source.
///
/// Returns the per-replication report pairs in seed order (parallel over
/// the sweep workers, bit-identical to serial). Feed them to
/// [`paired_diff`] for the variance-reduced difference CI.
#[allow(clippy::too_many_arguments)]
pub fn paired_comparison<S>(
    policy_a: &dyn AllocationPolicy,
    policy_b: &dyn AllocationPolicy,
    k: u32,
    base_seed: u64,
    n: usize,
    warmup: u64,
    departures: u64,
    make_source: S,
) -> Vec<(SimReport, SimReport)>
where
    S: Fn(u64) -> Box<dyn ArrivalSource> + Sync,
{
    let seeds = replication_seeds(base_seed, n);
    parallel::par_map_ordered(&seeds, parallel::num_threads(), |&seed| {
        let mut source = make_source(seed);
        let [a, b]: [SimReport; 2] =
            Simulation::new(DesConfig::steady_state(k, warmup, departures))
                .run_each(&[policy_a, policy_b], source.as_mut())
                .try_into()
                .expect("one report per policy");
        (a, b)
    })
}

/// Collapses [`paired_comparison`] output into replication statistics of
/// the per-replication mean-response **difference** `E[T_A] − E[T_B]`.
/// The resulting CI is the paired-t interval: strictly tighter than the
/// independent-seeds interval whenever the two runs are positively
/// correlated, which common random numbers guarantee in practice (the
/// module tests assert the reduction on an EF-vs-IF comparison).
pub fn paired_diff(pairs: &[(SimReport, SimReport)]) -> ReplicationStats {
    pairs
        .iter()
        .map(|(a, b)| a.mean_response - b.mean_response)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::arrivals::{Arrival, PoissonStream};
    use crate::policy::{ElasticFirst, FairShare, InelasticFirst, TablePolicy};
    use eirs_queueing::Exponential;

    fn sample_trace(seed: u64, horizon: f64) -> ArrivalTrace {
        ArrivalTrace::record_poisson(
            1.0,
            0.8,
            Box::new(Exponential::new(1.0)),
            Box::new(Exponential::new(0.5)),
            seed,
            horizon,
        )
    }

    #[test]
    fn trajectory_starts_at_zero_and_ends_empty() {
        let tr = sample_trace(1, 30.0);
        let w = WorkTrajectory::record(&InelasticFirst, &tr, 4);
        assert_eq!(w.samples()[0].total, 0.0);
        let last = w.samples().last().unwrap();
        assert!(last.total < 1e-9);
        assert!(last.inelastic < 1e-9);
    }

    #[test]
    fn interpolation_is_exact_on_a_single_job() {
        // One inelastic job of size 2, k=1: W(t) = 2 − t on [0, 2].
        let tr = ArrivalTrace::new(vec![Arrival {
            time: 0.0,
            class: JobClass::Inelastic,
            size: 2.0,
        }]);
        let w = WorkTrajectory::record(&InelasticFirst, &tr, 1);
        for t in [0.0, 0.5, 1.0, 1.5, 2.0, 3.0] {
            let (total, inelastic) = w.value_at(t);
            let want = (2.0 - t).max(0.0);
            assert!((total - want).abs() < 1e-12, "t={t}: {total} vs {want}");
            assert!((inelastic - want).abs() < 1e-12);
        }
    }

    #[test]
    fn arrival_jumps_are_recorded_pre_and_post() {
        let tr = ArrivalTrace::new(vec![
            Arrival {
                time: 0.0,
                class: JobClass::Inelastic,
                size: 1.0,
            },
            Arrival {
                time: 0.5,
                class: JobClass::Inelastic,
                size: 1.0,
            },
        ]);
        let w = WorkTrajectory::record(&InelasticFirst, &tr, 1);
        // Just after t=0.5 the work is 0.5 (old job) + 1.0 (new) = 1.5.
        let (total, _) = w.value_at(0.5);
        assert!((total - 1.5).abs() < 1e-12, "post-jump {total}");
        // Just before: 0.5 + ε of work. Interpolating at 0.499 ≈ 0.501.
        let (just_before, _) = w.value_at(0.499);
        assert!((just_before - 0.501).abs() < 1e-9, "pre-jump {just_before}");
    }

    #[test]
    fn if_dominates_ef_in_work_on_random_traces() {
        // Theorem 3: IF has pointwise-minimal W and W_I among class-P
        // policies (EF is in class P).
        for seed in 0..8 {
            let tr = sample_trace(seed, 60.0);
            let wif = WorkTrajectory::record(&InelasticFirst, &tr, 4);
            let wef = WorkTrajectory::record(&ElasticFirst, &tr, 4);
            let violation = dominates_throughout(&wif, &wef, 1e-7);
            assert!(
                violation.is_none(),
                "seed {seed}: violation at {violation:?}"
            );
        }
    }

    #[test]
    fn if_dominates_random_class_p_policies() {
        for seed in 0..6 {
            let tr = sample_trace(100 + seed, 40.0);
            let wif = WorkTrajectory::record(&InelasticFirst, &tr, 4);
            let pol = TablePolicy::random_class_p(seed);
            let wp = WorkTrajectory::record(&pol, &tr, 4);
            let violation = dominates_throughout(&wif, &wp, 1e-7);
            assert!(
                violation.is_none(),
                "seed {seed}: violation at {violation:?}"
            );
        }
    }

    #[test]
    fn if_dominates_fair_share() {
        let tr = sample_trace(55, 50.0);
        let wif = WorkTrajectory::record(&InelasticFirst, &tr, 8);
        let wfs = WorkTrajectory::record(&FairShare, &tr, 8);
        assert!(dominates_throughout(&wif, &wfs, 1e-7).is_none());
    }

    /// An open-regime (µ_I < µ_E) Poisson source at load 0.6 on 4 servers;
    /// everything random is drawn inside the source, so two sources built
    /// from the same seed replay the identical sample path.
    fn crn_source(seed: u64) -> Box<dyn ArrivalSource> {
        Box::new(PoissonStream::new(
            0.8,
            0.8,
            Box::new(Exponential::new(0.5)),
            Box::new(Exponential::new(1.0)),
            seed,
        ))
    }

    #[test]
    fn paired_runs_share_the_exact_sample_path() {
        // Same policy on both sides of the pairing: with common random
        // numbers the two runs are bit-identical, so every difference is 0.
        let pairs = paired_comparison(
            &InelasticFirst,
            &InelasticFirst,
            4,
            11,
            4,
            500,
            5_000,
            crn_source,
        );
        for (a, b) in &pairs {
            assert_eq!(a.mean_response.to_bits(), b.mean_response.to_bits());
            assert_eq!(a.completed, b.completed);
        }
        let diff = paired_diff(&pairs);
        assert_eq!(diff.mean(), 0.0);
    }

    #[test]
    fn paired_variance_is_strictly_below_independent_seed_variance() {
        // EF vs IF in the open regime: the policies genuinely differ, so
        // the difference is nonzero, and common random numbers must shrink
        // its replication CI strictly below the independent-seeds CI.
        let n = 8;
        let (warmup, departures) = (2_000, 20_000);
        let pairs = paired_comparison(
            &ElasticFirst,
            &InelasticFirst,
            4,
            7,
            n,
            warmup,
            departures,
            crn_source,
        );
        let paired = paired_diff(&pairs);

        let run_one = |policy: &dyn AllocationPolicy, seed: u64| {
            let mut src = crn_source(seed);
            Simulation::new(DesConfig::steady_state(4, warmup, departures))
                .run(policy, src.as_mut())
        };
        let seeds_a = replication_seeds(7, n);
        let seeds_b = replication_seeds(1_007, n);
        let independent: ReplicationStats = seeds_a
            .iter()
            .zip(&seeds_b)
            .map(|(&sa, &sb)| {
                run_one(&ElasticFirst, sa).mean_response
                    - run_one(&InelasticFirst, sb).mean_response
            })
            .collect();

        let hw_paired = paired.confidence_interval().half_width;
        let hw_independent = independent.confidence_interval().half_width;
        assert!(
            hw_paired < hw_independent,
            "paired CI {hw_paired} should beat independent CI {hw_independent}"
        );
        // The comparison itself is real, and the paired CI is tight
        // enough to resolve it: at µ_I < µ_E this operating point is in
        // the regime where EF beats IF (Theorem 6's direction), and the
        // interval must exclude zero.
        let ci = paired.confidence_interval();
        assert!(
            ci.mean + ci.half_width < 0.0,
            "paired EF - IF CI should resolve the winner: {ci:?}"
        );
    }

    #[test]
    fn dominance_detects_real_violations() {
        // EF does NOT dominate IF in inelastic work: inelastic work piles up
        // while EF serves elastic jobs.
        let tr = ArrivalTrace::new(vec![
            Arrival {
                time: 0.0,
                class: JobClass::Inelastic,
                size: 1.0,
            },
            Arrival {
                time: 0.0,
                class: JobClass::Elastic,
                size: 4.0,
            },
        ]);
        let wif = WorkTrajectory::record(&InelasticFirst, &tr, 2);
        let wef = WorkTrajectory::record(&ElasticFirst, &tr, 2);
        // IF should dominate EF…
        assert!(dominates_throughout(&wif, &wef, 1e-9).is_none());
        // …and EF must NOT dominate IF here (inelastic work ordering breaks).
        assert!(dominates_throughout(&wef, &wif, 1e-9).is_some());
    }
}
