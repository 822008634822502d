//! Differential testing against the discrete-event simulator.
//!
//! The server's correctness claim is *exactness*: replaying a recorded
//! trace through a single-shard engine makes the same allocation
//! decisions, in the same order, as [`eirs_sim::des::Simulation`] running
//! the raw policy. Both drive the same event loop
//! ([`eirs_sim::kernel::Cluster`]), so the mechanics agree by
//! construction; what the comparison checks is the two drivers'
//! wrappers — the compiled-table lookup against the raw `allocate` call,
//! and the engine's routed, batched admission against the DES's arrival
//! loop. This module provides the reference side: [`RecordingPolicy`]
//! taps every `allocate` call the simulator makes, and
//! [`des_decision_log`] packages a full drain-mode DES run into a
//! [`Decision`] sequence.

use crate::engine::Decision;
use eirs_sim::arrivals::ArrivalTrace;
use eirs_sim::des::{DesConfig, Simulation};
use eirs_sim::policy::{AllocationPolicy, ClassAllocation};
use std::sync::Mutex;

/// Wraps a policy and records every decision made through it. The
/// simulator queries its policy exactly once per event-loop step, so the
/// recorded sequence *is* the DES decision stream.
pub struct RecordingPolicy<'a> {
    inner: &'a dyn AllocationPolicy,
    log: Mutex<Vec<Decision>>,
}

impl<'a> RecordingPolicy<'a> {
    /// Starts recording decisions of `inner`.
    pub fn new(inner: &'a dyn AllocationPolicy) -> Self {
        Self {
            inner,
            log: Mutex::new(Vec::new()),
        }
    }

    /// The decisions recorded so far, in call order.
    pub fn log(&self) -> Vec<Decision> {
        self.log.lock().expect("no poisoned log").clone()
    }

    /// Consumes the recorder, returning the decision sequence.
    pub fn into_log(self) -> Vec<Decision> {
        self.log.into_inner().expect("no poisoned log")
    }
}

impl AllocationPolicy for RecordingPolicy<'_> {
    fn allocate(&self, i: usize, j: usize, k: u32) -> ClassAllocation {
        let allocation = self.inner.allocate(i, j, k);
        self.log
            .lock()
            .expect("no poisoned log")
            .push(Decision { i, j, allocation });
        allocation
    }

    fn name(&self) -> String {
        self.inner.name()
    }
}

/// The decision sequence of a drain-mode DES run of `policy` over
/// `trace` on `k` servers — the reference the engine replay tests (and
/// the `serve_throughput` bench) compare against.
pub fn des_decision_log(
    policy: &dyn AllocationPolicy,
    k: u32,
    trace: &ArrivalTrace,
) -> Vec<Decision> {
    let recorder = RecordingPolicy::new(policy);
    let mut source = trace.stream();
    Simulation::new(DesConfig::drain(k)).run(&recorder, &mut source);
    recorder.into_log()
}

#[cfg(test)]
mod tests {
    use super::*;
    use eirs_sim::arrivals::Arrival;
    use eirs_sim::job::JobClass;
    use eirs_sim::policy::InelasticFirst;

    #[test]
    fn des_decision_log_covers_every_event_step() {
        let trace = ArrivalTrace::new(vec![
            Arrival {
                time: 0.0,
                class: JobClass::Inelastic,
                size: 1.0,
            },
            Arrival {
                time: 0.5,
                class: JobClass::Elastic,
                size: 2.0,
            },
        ]);
        let log = des_decision_log(&InelasticFirst, 2, &trace);
        // First decision sees the empty system.
        assert_eq!((log[0].i, log[0].j), (0, 0));
        assert_eq!(log[0].allocation, ClassAllocation::IDLE);
        // Every subsequent decision is feasible-by-construction IF.
        assert!(
            log.len() >= 4,
            "one decision per event step, got {}",
            log.len()
        );
        assert!(log.iter().all(|d| d.allocation.total() <= 2.0 + 1e-9));
    }
}
