//! Job-level discrete-event simulation of the multi-class model.
//!
//! Same exact event-driven core as the two-class simulator in `eirs-sim`:
//! allocations are constant between events, so completions are
//! `remaining / rate`. Within a class, service is FCFS with per-job caps:
//! the class's server total is handed out job by job, each receiving up to
//! `c_m` servers.

use crate::policy::{assert_feasible, MultiPolicy};
use crate::spec::MultiSystem;
use eirs_obs::LatencyHistogram;
use eirs_queueing::distributions::exp_inverse_cdf;
use eirs_sim::stats::{tail_quantiles, TimeAverage, Welford};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::VecDeque;

/// Configuration of one multi-class run.
#[derive(Debug, Clone, Copy)]
pub struct MultiSimConfig {
    /// RNG seed.
    pub seed: u64,
    /// Departures discarded as warm-up.
    pub warmup_departures: u64,
    /// Measured departures after warm-up.
    pub departures: u64,
}

/// Per-class simulation results.
#[derive(Debug, Clone)]
pub struct ClassReport {
    /// Class name (copied from the spec).
    pub name: String,
    /// Measured departures.
    pub completed: u64,
    /// Mean response time.
    pub mean_response: f64,
    /// `(P50, P95, P99)` response times from a log-linear histogram:
    /// within 2⁻⁵ relative of the exact quantiles, `NaN` with no
    /// measured departures (see `eirs_sim::SimReport::tail_response`).
    pub tail_response: (f64, f64, f64),
    /// Time-average number in system.
    pub mean_in_system: f64,
}

/// Results of one multi-class run.
#[derive(Debug, Clone)]
pub struct MultiReport {
    /// Per-class metrics, in spec order.
    pub per_class: Vec<ClassReport>,
    /// Mean response time across all measured jobs; `NaN` with no
    /// measured departures, like each class's mean.
    pub mean_response: f64,
    /// Time-average fraction of busy servers.
    pub utilization: f64,
    /// Measured time span.
    pub measured_time: f64,
}

struct MJob {
    class: usize,
    remaining: f64,
    size: f64,
    arrival: f64,
}

impl MJob {
    fn is_done(&self) -> bool {
        self.remaining <= 1e-12 * self.size.max(1.0)
    }
}

/// Runs the multi-class DES under `policy`.
pub fn simulate_multiclass(
    system: &MultiSystem,
    policy: &dyn MultiPolicy,
    cfg: MultiSimConfig,
) -> MultiReport {
    let m = system.num_classes();
    let kf = system.k as f64;
    let name = policy.name();
    let mut rng = StdRng::seed_from_u64(cfg.seed);
    let mut queues: Vec<VecDeque<MJob>> = (0..m).map(|_| VecDeque::new()).collect();
    let mut next_arrival: Vec<f64> = system
        .classes
        .iter()
        .map(|c| sample_exp(&mut rng, c.lambda))
        .collect();
    let mut time = 0.0f64;
    let mut total_departures = 0u64;
    let mut measuring = cfg.warmup_departures == 0;
    let mut measured = 0u64;

    let mut resp: Vec<Welford> = (0..m).map(|_| Welford::new()).collect();
    let mut hists: Vec<LatencyHistogram> = (0..m).map(|_| LatencyHistogram::new()).collect();
    let mut resp_all = Welford::new();
    let mut in_system: Vec<TimeAverage> = (0..m).map(|_| TimeAverage::new()).collect();
    let mut busy = TimeAverage::new();
    let mut counts = vec![0usize; m];
    let mut completed = vec![0u64; m];

    while measured < cfg.departures {
        for (c, q) in counts.iter_mut().zip(&queues) {
            *c = q.len();
        }
        let alloc = policy.allocate(&counts, system);
        assert_feasible(&alloc, &counts, system, &name);

        // Earliest completion across all classes, FCFS-with-caps inside.
        let mut dt_completion = f64::INFINITY;
        for (class_idx, q) in queues.iter().enumerate() {
            let mut left = alloc[class_idx];
            let cap = system.classes[class_idx].cap as f64;
            for job in q {
                if left <= 1e-15 {
                    break;
                }
                let rate = cap.min(left);
                left -= rate;
                if rate > 0.0 {
                    dt_completion = dt_completion.min(job.remaining / rate);
                }
            }
        }
        let (arr_class, dt_arrival) = next_arrival
            .iter()
            .enumerate()
            .map(|(idx, &t)| (idx, t - time))
            .min_by(|a, b| a.1.partial_cmp(&b.1).expect("finite times"))
            .expect("at least one class");
        let dt = dt_completion.min(dt_arrival.max(0.0));
        assert!(
            dt.is_finite(),
            "policy {name} makes no progress in state {counts:?}"
        );

        if measuring && dt > 0.0 {
            let total_alloc: f64 = alloc.iter().sum();
            for (acc, &c) in in_system.iter_mut().zip(&counts) {
                acc.add(c as f64, dt);
            }
            busy.add(total_alloc / kf, dt);
        }

        // Advance work.
        if dt > 0.0 {
            for (class_idx, q) in queues.iter_mut().enumerate() {
                let mut left = alloc[class_idx];
                let cap = system.classes[class_idx].cap as f64;
                for job in q.iter_mut() {
                    if left <= 1e-15 {
                        break;
                    }
                    let rate = cap.min(left);
                    left -= rate;
                    if rate > 0.0 {
                        job.remaining = (job.remaining - rate * dt).max(0.0);
                    }
                }
            }
            time += dt;
        }

        // Departures.
        for (class_idx, q) in queues.iter_mut().enumerate() {
            let mut idx = 0;
            while idx < q.len() {
                if q[idx].is_done() {
                    let job = q.remove(idx).expect("index in range");
                    total_departures += 1;
                    if !measuring && total_departures >= cfg.warmup_departures {
                        measuring = true;
                    } else if measuring {
                        let t = time - job.arrival;
                        resp[class_idx].push(t);
                        hists[class_idx].record_seconds(t);
                        resp_all.push(t);
                        completed[class_idx] += 1;
                        measured += 1;
                    }
                } else {
                    idx += 1;
                }
            }
        }

        // Arrival, when this event is one.
        if dt_arrival.max(0.0) <= dt_completion {
            let class = &system.classes[arr_class];
            time = time.max(next_arrival[arr_class]);
            let size = class.size.sample(&mut rng);
            queues[arr_class].push_back(MJob {
                class: arr_class,
                remaining: size,
                size,
                arrival: time,
            });
            debug_assert_eq!(
                queues[arr_class].back().expect("just pushed").class,
                arr_class
            );
            next_arrival[arr_class] = time + sample_exp(&mut rng, class.lambda);
        }
    }

    MultiReport {
        per_class: (0..m)
            .map(|idx| ClassReport {
                name: system.classes[idx].name.clone(),
                completed: completed[idx],
                mean_response: if resp[idx].count() > 0 {
                    resp[idx].mean()
                } else {
                    f64::NAN
                },
                tail_response: tail_quantiles(&hists[idx]),
                mean_in_system: in_system[idx].average(),
            })
            .collect(),
        mean_response: if resp_all.count() > 0 {
            resp_all.mean()
        } else {
            f64::NAN
        },
        utilization: busy.average(),
        measured_time: in_system[0].elapsed(),
    }
}

fn sample_exp(rng: &mut StdRng, rate: f64) -> f64 {
    if rate == 0.0 {
        f64::INFINITY
    } else {
        exp_inverse_cdf(1.0 - rng.random::<f64>(), rate)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::{least_flexible_first, most_flexible_first, WaterFilling};
    use crate::spec::{ClassSpec, MultiSystem};

    fn cfg(seed: u64) -> MultiSimConfig {
        MultiSimConfig {
            seed,
            warmup_departures: 20_000,
            departures: 200_000,
        }
    }

    #[test]
    fn single_inelastic_class_is_mmk() {
        let s = MultiSystem::new(4, vec![ClassSpec::exponential("only", 3.0, 1.0, 1)]);
        let p = least_flexible_first(&s);
        let r = simulate_multiclass(&s, &p, cfg(1));
        let want = eirs_queueing::MMk::new(3.0, 1.0, 4).mean_response_time();
        let got = r.per_class[0].mean_response;
        assert!((got - want).abs() / want < 0.03, "{got} vs {want}");
    }

    #[test]
    fn single_fully_elastic_class_is_mm1_at_rate_k_mu() {
        let s = MultiSystem::new(4, vec![ClassSpec::exponential("fluid", 2.0, 1.0, 4)]);
        let p = least_flexible_first(&s);
        let r = simulate_multiclass(&s, &p, cfg(2));
        let want = eirs_queueing::MM1::new(2.0, 4.0).mean_response_time();
        let got = r.per_class[0].mean_response;
        assert!((got - want).abs() / want < 0.03, "{got} vs {want}");
    }

    #[test]
    fn two_class_reduction_matches_the_paper_simulator() {
        // Same model through eirs-sim's two-class DES and this engine.
        let (k, li, le, mi, me) = (4u32, 1.2, 0.9, 1.0, 0.7);
        let s = MultiSystem::two_class(k, li, le, mi, me);
        let p = least_flexible_first(&s);
        let r_multi = simulate_multiclass(&s, &p, cfg(3));
        let r_two = eirs_sim::des::run_markovian(
            &eirs_sim::policy::InelasticFirst,
            k,
            li,
            le,
            mi,
            me,
            4,
            20_000,
            200_000,
        );
        let rel = (r_multi.mean_response - r_two.mean_response).abs() / r_two.mean_response;
        assert!(
            rel < 0.05,
            "multi {} vs two-class {}",
            r_multi.mean_response,
            r_two.mean_response
        );
    }

    #[test]
    fn bounded_elasticity_caps_the_speedup() {
        // One job class with cap 2 on k=8: a lone job of size 2 takes 1s,
        // never less, no matter how idle the cluster is. Use a drain-style
        // check through the steady-state engine: mean response of a nearly
        // idle system approaches E[S]/cap.
        let s = MultiSystem::new(8, vec![ClassSpec::exponential("semi", 0.01, 0.5, 2)]);
        let p = least_flexible_first(&s);
        let r = simulate_multiclass(
            &s,
            &p,
            MultiSimConfig {
                seed: 5,
                warmup_departures: 100,
                departures: 20_000,
            },
        );
        // Mean size 2, cap 2 → service time 1 at negligible load.
        let got = r.per_class[0].mean_response;
        assert!((got - 1.0).abs() < 0.05, "{got}");
    }

    #[test]
    fn least_flexible_first_beats_most_flexible_when_rigid_jobs_are_small() {
        // Theorem 5's message, generalized: small rigid jobs first.
        let s = MultiSystem::new(
            8,
            vec![
                ClassSpec::exponential("rigid-small", 2.0, 2.0, 1),
                ClassSpec::exponential("semi", 1.0, 1.0, 4),
                ClassSpec::exponential("fluid-big", 0.5, 0.25, 8),
            ],
        );
        assert!(s.is_stable());
        let r_lff = simulate_multiclass(&s, &least_flexible_first(&s), cfg(6));
        let r_mff = simulate_multiclass(&s, &most_flexible_first(&s), cfg(6));
        assert!(
            r_lff.mean_response < r_mff.mean_response,
            "LFF {} vs MFF {}",
            r_lff.mean_response,
            r_mff.mean_response
        );
    }

    #[test]
    fn water_filling_runs_and_reports_consistently() {
        let s = MultiSystem::new(
            4,
            vec![
                ClassSpec::exponential("a", 1.0, 1.0, 1),
                ClassSpec::exponential("b", 0.5, 0.5, 4),
            ],
        );
        let r = simulate_multiclass(&s, &WaterFilling, cfg(7));
        // Little's law, internally: E[N_m] ≈ λ_m E[T_m].
        for (class, report) in s.classes.iter().zip(&r.per_class) {
            let expect = class.lambda * report.mean_response;
            assert!(
                (report.mean_in_system - expect).abs() / expect < 0.05,
                "{}: N {} vs λT {expect}",
                class.name,
                report.mean_in_system
            );
        }
        assert!(r.utilization > 0.0 && r.utilization <= 1.0);
    }

    #[test]
    fn no_measured_departures_report_nan_means() {
        let s = MultiSystem::two_class(2, 0.5, 0.5, 1.0, 1.0);
        let r = simulate_multiclass(
            &s,
            &least_flexible_first(&s),
            MultiSimConfig {
                seed: 3,
                warmup_departures: 100,
                departures: 0,
            },
        );
        assert!(r.mean_response.is_nan(), "{}", r.mean_response);
        for class in &r.per_class {
            assert!(class.mean_response.is_nan(), "{}", class.mean_response);
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let s = MultiSystem::two_class(2, 0.5, 0.5, 1.0, 1.0);
        let p = least_flexible_first(&s);
        let small = MultiSimConfig {
            seed: 9,
            warmup_departures: 100,
            departures: 5_000,
        };
        let a = simulate_multiclass(&s, &p, small);
        let b = simulate_multiclass(&s, &p, small);
        assert_eq!(a.mean_response, b.mean_response);
    }
}
