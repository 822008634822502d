//! PERF — micro-benchmarks of the substrates: how fast are the pieces
//! that every figure harness leans on? Print only; each line is one arm
//! of the `eirs_bench::harness` timer, and a run of an arm repeats its
//! operation the `xN` times its label names.
//!
//! Run: `cargo bench -p eirs-bench --bench perf_substrates`

use eirs_bench::harness::{arm, repeat, rounds};
use eirs_bench::section;
use eirs_core::params::SystemParams;
use eirs_core::{analyze_elastic_first, analyze_inelastic_first};
use eirs_queueing::coxian::fit_busy_period;
use eirs_queueing::MM1;
use eirs_sim::ctmc::{simulate_state_level, CtmcSimConfig};
use eirs_sim::des::run_markovian;
use eirs_sim::policy::InelasticFirst;
use eirs_srpt::{srpt_k_schedule, BatchInstance};

/// Timed rounds per measurement.
const ROUNDS: usize = 7;

fn main() {
    section("analysis (busy-period transformation + QBD solve)");
    let params: Vec<SystemParams> = [4u32, 16, 64]
        .map(|k| SystemParams::with_equal_lambdas(k, 0.5, 1.0, 0.8).unwrap())
        .into();
    let mut arms = Vec::new();
    for p in &params {
        let k = p.k;
        arms.push(arm(
            format!("analyze_if_k{k} x10"),
            repeat(10, || analyze_inelastic_first(p).unwrap()),
        ));
        arms.push(arm(
            format!("analyze_ef_k{k} x10"),
            repeat(10, || analyze_elastic_first(p).unwrap()),
        ));
    }
    rounds(ROUNDS, arms);

    section("coxian busy-period fit");
    let q = MM1::new(0.9, 1.0);
    let fit = repeat(1000, || fit_busy_period(&q).unwrap());
    rounds(ROUNDS, vec![arm("coxian_busy_period_fit x1000", fit)]);

    section("simulators");
    let ctmc = CtmcSimConfig {
        k: 4,
        lambda_i: 1.0,
        lambda_e: 0.8,
        mu_i: 1.0,
        mu_e: 0.8,
        jumps: 1_000_000,
        warmup_jumps: 0,
        seed: 1,
    };
    rounds(
        3,
        vec![
            arm("state_level_1M_jumps", || {
                simulate_state_level(&InelasticFirst, ctmc)
            }),
            arm("job_level_100k_departures", || {
                run_markovian(&InelasticFirst, 4, 1.0, 0.8, 1.0, 0.8, 1, 0, 100_000)
            }),
        ],
    );

    section("srpt batch schedules");
    let instances = [100usize, 1000].map(|n| (n, BatchInstance::random_uniform(n, 8, 10.0, 7)));
    let arms = instances
        .iter()
        .map(|(n, inst)| {
            arm(
                format!("schedule_n{n} x20"),
                repeat(20, || srpt_k_schedule(inst, 1.0)),
            )
        })
        .collect();
    rounds(ROUNDS, arms);
}
