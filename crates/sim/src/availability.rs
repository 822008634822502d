//! Deterministic server-availability processes: the fault layer's source
//! of truth.
//!
//! The paper's model keeps all `k` servers up forever; a production fleet
//! does not. This module turns a seeded fault model ([`FaultSpec`]) into
//! an explicit, finite schedule of capacity-change events
//! ([`FaultSchedule`]) that the discrete-event simulator and the serving
//! engine consume identically. Three fault families cover the common
//! operating conditions:
//!
//! * **`crash`** — every server independently alternates exponential
//!   up-times (mean `mtbf`) and repair times (mean `mttr`): the classic
//!   machine-repair availability model.
//! * **`drain`** — scheduled maintenance: every `period` time units,
//!   `servers` servers drain for `down` time units. Fully deterministic
//!   (no randomness consumed), so it composes with trace replays without
//!   perturbing any seed.
//! * **`mmpp`** — spot-reclamation bursts: reclamation events arrive from
//!   an MMPP-2 (the same modulated process the arrival layer uses), each
//!   taking one server down for an exponential `mttr`; overlapping
//!   reclamations stack, flooring available capacity at zero.
//!
//! # Determinism contract
//!
//! Generation draws all randomness from `StdRng::seed_from_u64`: the same
//! `(spec, k, seed, horizon)` always yields the same event list, on every
//! platform. Sharded consumers derive per-shard schedules with
//! [`FaultSpec::schedule_for_shard`], which mixes the shard *index* (the
//! routing position — never the worker id) into the seed, so worker
//! parallelism cannot change what fails when.
//!
//! Every generated schedule ends with a full-recovery event at the
//! horizon: capacity past the horizon is `k` again, so drain phases
//! always terminate even when a fault interval straddles the horizon.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// One capacity change: at `time`, the number of available servers
/// becomes `available` (an absolute level, not a delta — consumers never
/// have to track which individual server failed).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CapacityEvent {
    /// Epoch of the change.
    pub time: f64,
    /// Servers available from `time` on (`0 ..= k`).
    pub available: u32,
}

/// A fault model: how capacity is lost and recovered. Parsed from the
/// `churn` workload axis (see [`FaultSpec::parse`]) and expanded into a
/// concrete [`FaultSchedule`] per run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum FaultSpec {
    /// Independent per-server crash/repair: exponential up-times with
    /// mean `mtbf`, exponential repairs with mean `mttr`.
    Crash {
        /// Mean time between failures of one server.
        mtbf: f64,
        /// Mean time to repair one server.
        mttr: f64,
    },
    /// Scheduled maintenance: every `period`, `servers` servers drain for
    /// `down` time units. Deterministic — consumes no randomness.
    Drain {
        /// Time between drain starts.
        period: f64,
        /// Length of each drain (must be `< period`).
        down: f64,
        /// Servers taken down per drain (capped at `k`).
        servers: u32,
    },
    /// MMPP-2-modulated reclamation bursts: reclamations arrive at rate
    /// `a0` (phase 0) / `a1` (phase 1) with phase-switch rates `r01` and
    /// `r10`; each takes one server for an exponential `mttr`.
    Mmpp {
        /// Phase 0 → 1 switch rate.
        r01: f64,
        /// Phase 1 → 0 switch rate.
        r10: f64,
        /// Reclamation rate in phase 0.
        a0: f64,
        /// Reclamation rate in phase 1.
        a1: f64,
        /// Mean repair time per reclaimed server.
        mttr: f64,
    },
}

/// The forms [`FaultSpec::parse`] accepts, quoted in its error message.
pub const FAULT_SPEC_FORMS: &str = "churn spec: crash:mtbf=<t>,mttr=<t> | \
     drain:period=<t>,down=<t>[,servers=<n>] | \
     mmpp:r01=<r>,r10=<r>,a0=<r>,a1=<r>[,mttr=<t>]";

impl FaultSpec {
    /// Parses a churn spec string: `crash:mtbf=50,mttr=5`,
    /// `drain:period=100,down=10,servers=1`, or
    /// `mmpp:r01=0.05,r10=0.5,a0=0.01,a1=1,mttr=5`. The canonical form
    /// printed by [`FaultSpec::label`] round-trips.
    pub fn parse(spec: &str) -> Result<Self, String> {
        let bad = || format!("cannot parse '{spec}' (expected {FAULT_SPEC_FORMS})");
        let (family, rest) = spec.split_once(':').ok_or_else(bad)?;
        let mut fields = std::collections::BTreeMap::new();
        for pair in rest.split(',') {
            let (key, value) = pair.split_once('=').ok_or_else(bad)?;
            let value: f64 = value.parse().map_err(|_| bad())?;
            if !value.is_finite() {
                return Err(bad());
            }
            if fields.insert(key.trim(), value).is_some() {
                return Err(bad());
            }
        }
        let mut take = |key: &str| fields.remove(key).ok_or_else(bad);
        let parsed = match family {
            "crash" => {
                let (mtbf, mttr) = (take("mtbf")?, take("mttr")?);
                if mtbf <= 0.0 || mttr <= 0.0 {
                    return Err(bad());
                }
                FaultSpec::Crash { mtbf, mttr }
            }
            "drain" => {
                let (period, down) = (take("period")?, take("down")?);
                let servers = fields.remove("servers").unwrap_or(1.0);
                if period <= 0.0 || down <= 0.0 || down >= period {
                    return Err(bad());
                }
                if servers < 1.0 || servers.fract() != 0.0 || servers > u32::MAX as f64 {
                    return Err(bad());
                }
                FaultSpec::Drain {
                    period,
                    down,
                    servers: servers as u32,
                }
            }
            "mmpp" => {
                let (r01, r10) = (take("r01")?, take("r10")?);
                let (a0, a1) = (take("a0")?, take("a1")?);
                let mttr = fields.remove("mttr").unwrap_or(1.0);
                if r01 <= 0.0 || r10 <= 0.0 || a0 < 0.0 || a1 < 0.0 || mttr <= 0.0 {
                    return Err(bad());
                }
                if a0 + a1 <= 0.0 {
                    return Err(bad());
                }
                FaultSpec::Mmpp {
                    r01,
                    r10,
                    a0,
                    a1,
                    mttr,
                }
            }
            _ => return Err(bad()),
        };
        if fields.is_empty() {
            Ok(parsed)
        } else {
            Err(bad())
        }
    }

    /// Canonical spec string; [`FaultSpec::parse`] of the label yields an
    /// equal spec (used as the churn identity in snapshots and journals).
    pub fn label(&self) -> String {
        match *self {
            FaultSpec::Crash { mtbf, mttr } => format!("crash:mtbf={mtbf},mttr={mttr}"),
            FaultSpec::Drain {
                period,
                down,
                servers,
            } => format!("drain:period={period},down={down},servers={servers}"),
            FaultSpec::Mmpp {
                r01,
                r10,
                a0,
                a1,
                mttr,
            } => format!("mmpp:r01={r01},r10={r10},a0={a0},a1={a1},mttr={mttr}"),
        }
    }

    /// Expands the spec into the concrete event schedule for a `k`-server
    /// cluster over `[0, horizon]`.
    pub fn schedule(&self, k: u32, seed: u64, horizon: f64) -> FaultSchedule {
        assert!(k >= 1, "need at least one server");
        assert!(
            horizon.is_finite() && horizon > 0.0,
            "fault horizon must be a finite positive time (got {horizon})"
        );
        let deltas = match *self {
            FaultSpec::Crash { mtbf, mttr } => crash_deltas(k, seed, horizon, mtbf, mttr),
            FaultSpec::Drain {
                period,
                down,
                servers,
            } => drain_deltas(k, horizon, period, down, servers),
            FaultSpec::Mmpp {
                r01,
                r10,
                a0,
                a1,
                mttr,
            } => mmpp_deltas(seed, horizon, r01, r10, a0, a1, mttr),
        };
        FaultSchedule {
            k,
            events: fold_deltas(k, horizon, deltas).into(),
        }
    }

    /// The schedule for routing shard `shard` of a sharded consumer:
    /// [`FaultSpec::schedule`] under a seed mixed from `(seed, shard)`.
    /// Keyed on the shard *index* so faults are a pure function of the
    /// routing partition, invariant to worker parallelism.
    pub fn schedule_for_shard(
        &self,
        k: u32,
        seed: u64,
        shard: usize,
        horizon: f64,
    ) -> FaultSchedule {
        self.schedule(k, shard_seed(seed, shard as u64), horizon)
    }
}

/// SplitMix64-style mix of the base fault seed and a shard index.
fn shard_seed(seed: u64, shard: u64) -> u64 {
    let mut x = seed ^ shard.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    x = (x ^ (x >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    x ^ (x >> 31)
}

fn sample_exp(rng: &mut StdRng, mean: f64) -> f64 {
    // Same inverse-CDF discipline as the arrival layer: -mean·ln(1-u).
    let u: f64 = rng.random();
    -mean * (1.0 - u).ln()
}

/// Per-server alternating renewal: up Exp(mtbf), down Exp(mttr).
fn crash_deltas(k: u32, seed: u64, horizon: f64, mtbf: f64, mttr: f64) -> Vec<(f64, i64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deltas = Vec::new();
    for _server in 0..k {
        let mut t = 0.0;
        loop {
            t += sample_exp(&mut rng, mtbf);
            if t >= horizon {
                break;
            }
            deltas.push((t, 1));
            t += sample_exp(&mut rng, mttr);
            if t >= horizon {
                break;
            }
            deltas.push((t, -1));
        }
    }
    deltas
}

/// Deterministic periodic drains (no randomness consumed).
fn drain_deltas(k: u32, horizon: f64, period: f64, down: f64, servers: u32) -> Vec<(f64, i64)> {
    let lost = servers.min(k) as i64;
    let mut deltas = Vec::new();
    let mut m = 1u64;
    loop {
        let start = m as f64 * period;
        if start >= horizon {
            break;
        }
        deltas.push((start, lost));
        let end = start + down;
        if end < horizon {
            deltas.push((end, -lost));
        }
        m += 1;
    }
    deltas
}

/// Reclamation events from a simulated MMPP-2, each holding one server
/// for Exp(mttr).
#[allow(clippy::too_many_arguments)]
fn mmpp_deltas(
    seed: u64,
    horizon: f64,
    r01: f64,
    r10: f64,
    a0: f64,
    a1: f64,
    mttr: f64,
) -> Vec<(f64, i64)> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut deltas = Vec::new();
    let mut phase = 0u8;
    let mut t = 0.0;
    loop {
        let (arrive, switch) = if phase == 0 { (a0, r01) } else { (a1, r10) };
        let total = arrive + switch;
        if total <= 0.0 {
            break;
        }
        t += sample_exp(&mut rng, 1.0 / total);
        if t >= horizon {
            break;
        }
        let pick: f64 = rng.random();
        if pick * total < arrive {
            deltas.push((t, 1));
            let repair = t + sample_exp(&mut rng, mttr);
            if repair < horizon {
                deltas.push((repair, -1));
            }
        } else {
            phase = 1 - phase;
        }
    }
    deltas
}

/// Sorts `(time, down-delta)` pairs and folds them into absolute
/// capacity levels, capping concurrent outages at `k` and appending the
/// full-recovery event at the horizon.
fn fold_deltas(k: u32, horizon: f64, mut deltas: Vec<(f64, i64)>) -> Vec<CapacityEvent> {
    deltas.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
    let mut events: Vec<CapacityEvent> = Vec::new();
    let mut down = 0i64;
    for (time, delta) in deltas {
        down += delta;
        debug_assert!(down >= 0, "repair without a preceding failure");
        let available = k.saturating_sub(down.clamp(0, k as i64) as u32);
        match events.last_mut() {
            // Same-instant changes collapse to the final level.
            Some(last) if last.time == time => last.available = available,
            Some(last) if last.available == available => {}
            None if available == k => {}
            _ => events.push(CapacityEvent { time, available }),
        }
    }
    if events.last().is_some_and(|e| e.available != k) {
        events.push(CapacityEvent {
            time: horizon,
            available: k,
        });
    }
    events
}

/// A concrete, finite capacity-change schedule for one `k`-server
/// cluster (or cluster shard). Time-ordered; ends at full capacity. The
/// events sit behind an `Arc`: clones of the schedule, and every
/// [`Cluster`](crate::kernel::Cluster) it is attached to, share them.
#[derive(Debug, Clone, PartialEq)]
pub struct FaultSchedule {
    k: u32,
    events: Arc<[CapacityEvent]>,
}

impl FaultSchedule {
    /// A schedule with no faults: capacity is `k` forever.
    pub fn none(k: u32) -> Self {
        assert!(k >= 1, "need at least one server");
        Self {
            k,
            events: Arc::default(),
        }
    }

    /// A schedule from an explicit event list (hand-written fault
    /// scripts in tests, or events deserialized by a consumer). Events
    /// must be time-ordered with capacities in `0 ..= k`.
    pub fn from_events(k: u32, events: Vec<CapacityEvent>) -> Self {
        assert!(k >= 1, "need at least one server");
        for pair in events.windows(2) {
            assert!(pair[0].time <= pair[1].time, "events must be time-ordered");
        }
        for e in &events {
            assert!(e.available <= k, "capacity {} above k={k}", e.available);
            assert!(e.time >= 0.0, "negative event time");
        }
        Self {
            k,
            events: events.into(),
        }
    }

    /// The nominal cluster size the schedule was generated for.
    pub fn k(&self) -> u32 {
        self.k
    }

    /// The time-ordered capacity events.
    pub fn events(&self) -> &[CapacityEvent] {
        &self.events
    }

    /// The events, shared rather than copied.
    pub(crate) fn shared_events(&self) -> Arc<[CapacityEvent]> {
        Arc::clone(&self.events)
    }

    /// Available servers at time `t` (capacity changes take effect at
    /// their timestamp).
    pub fn available_at(&self, t: f64) -> u32 {
        match self.events.partition_point(|e| e.time <= t) {
            0 => self.k,
            n => self.events[n - 1].available,
        }
    }

    /// The deepest capacity loss anywhere in the schedule.
    pub fn min_available(&self) -> u32 {
        self.events
            .iter()
            .map(|e| e.available)
            .min()
            .unwrap_or(self.k)
    }

    /// Fraction of server-time lost over `[0, horizon]`: the integral of
    /// `(k - available)` divided by `k·horizon`. The x-axis of the
    /// degradation-curve bench.
    pub fn capacity_loss(&self, horizon: f64) -> f64 {
        assert!(horizon > 0.0, "need a positive horizon");
        let mut lost = 0.0;
        let mut level = self.k;
        let mut at = 0.0;
        for e in self.events.iter() {
            let until = e.time.min(horizon);
            if until > at {
                lost += (self.k - level) as f64 * (until - at);
                at = until;
            }
            level = e.available;
        }
        if horizon > at {
            lost += (self.k - level) as f64 * (horizon - at);
        }
        lost / (self.k as f64 * horizon)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_round_trips_through_label() {
        for spec in [
            "crash:mtbf=50,mttr=5",
            "drain:period=100,down=10,servers=2",
            "mmpp:r01=0.05,r10=0.5,a0=0.01,a1=1,mttr=5",
        ] {
            let parsed = FaultSpec::parse(spec).expect(spec);
            let relabeled = FaultSpec::parse(&parsed.label()).expect("label parses");
            assert_eq!(parsed, relabeled, "{spec}");
        }
        // Defaults fill in and appear in the canonical label.
        let drain = FaultSpec::parse("drain:period=10,down=1").unwrap();
        assert_eq!(drain.label(), "drain:period=10,down=1,servers=1");
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        for bad in [
            "",
            "crash",
            "crash:",
            "crash:mtbf=50",
            "crash:mtbf=50,mttr=0",
            "crash:mtbf=-1,mttr=5",
            "crash:mtbf=50,mttr=5,extra=1",
            "crash:mtbf=50,mtbf=60,mttr=5",
            "drain:period=10,down=10",
            "drain:period=10,down=1,servers=0",
            "drain:period=10,down=1,servers=1.5",
            "mmpp:r01=0,r10=0.5,a0=0.1,a1=1",
            "mmpp:r01=0.1,r10=0.5,a0=0,a1=0",
            "meteor:strike=1",
            "crash:mtbf=inf,mttr=5",
        ] {
            let err = FaultSpec::parse(bad).expect_err(bad);
            assert!(err.contains("cannot parse"), "{bad}: {err}");
            assert!(err.contains("expected"), "{bad}: {err}");
        }
    }

    #[test]
    fn same_seed_same_schedule_different_seed_different() {
        let spec = FaultSpec::parse("crash:mtbf=20,mttr=4").unwrap();
        let a = spec.schedule(4, 7, 500.0);
        let b = spec.schedule(4, 7, 500.0);
        assert_eq!(a, b);
        let c = spec.schedule(4, 8, 500.0);
        assert_ne!(a, c, "different seeds should fault differently");
    }

    #[test]
    fn shard_schedules_differ_by_shard_index() {
        let spec = FaultSpec::parse("crash:mtbf=20,mttr=4").unwrap();
        let s0 = spec.schedule_for_shard(4, 7, 0, 500.0);
        let s1 = spec.schedule_for_shard(4, 7, 1, 500.0);
        assert_ne!(s0, s1);
        assert_eq!(s0, spec.schedule_for_shard(4, 7, 0, 500.0));
    }

    #[test]
    fn drain_schedule_is_exactly_periodic() {
        let spec = FaultSpec::Drain {
            period: 10.0,
            down: 2.0,
            servers: 1,
        };
        let sched = spec.schedule(3, 0, 31.0);
        let events = sched.events();
        // Drains at 10 and 20 complete; the drain at 30 is cut by the
        // horizon's full-recovery event.
        assert_eq!(
            events,
            &[
                CapacityEvent {
                    time: 10.0,
                    available: 2
                },
                CapacityEvent {
                    time: 12.0,
                    available: 3
                },
                CapacityEvent {
                    time: 20.0,
                    available: 2
                },
                CapacityEvent {
                    time: 22.0,
                    available: 3
                },
                CapacityEvent {
                    time: 30.0,
                    available: 2
                },
                CapacityEvent {
                    time: 31.0,
                    available: 3
                },
            ]
        );
        assert_eq!(sched.available_at(11.0), 2);
        assert_eq!(sched.available_at(15.0), 3);
        assert_eq!(sched.available_at(0.0), 3);
        assert_eq!(sched.min_available(), 2);
        // Lost server-time: 2+2+1 = 5 of 3·31.
        assert!((sched.capacity_loss(31.0) - 5.0 / 93.0).abs() < 1e-12);
    }

    #[test]
    fn schedules_end_recovered_and_stay_in_range() {
        for spec in [
            FaultSpec::parse("crash:mtbf=5,mttr=5").unwrap(),
            FaultSpec::parse("mmpp:r01=0.2,r10=0.5,a0=0.05,a1=2,mttr=3").unwrap(),
            FaultSpec::parse("drain:period=7,down=3,servers=9").unwrap(),
        ] {
            for seed in 0..5u64 {
                let sched = spec.schedule(3, seed, 200.0);
                let events = sched.events();
                for pair in events.windows(2) {
                    assert!(pair[0].time <= pair[1].time, "{spec:?} unordered");
                }
                for e in events {
                    assert!(e.available <= 3, "{spec:?} capacity above k");
                    assert!(e.time <= 200.0, "{spec:?} event past horizon");
                }
                assert_eq!(
                    events.last().map_or(3, |e| e.available),
                    3,
                    "{spec:?} must end fully recovered"
                );
                assert_eq!(sched.available_at(1e18), 3);
            }
        }
    }

    #[test]
    fn crash_downtime_matches_the_availability_formula() {
        // Steady-state per-server unavailability = mttr/(mtbf+mttr) = 1/6.
        let spec = FaultSpec::Crash {
            mtbf: 50.0,
            mttr: 10.0,
        };
        let mut loss = 0.0;
        let n = 40;
        for seed in 0..n {
            loss += spec.schedule(8, seed, 5_000.0).capacity_loss(5_000.0);
        }
        let mean = loss / n as f64;
        assert!(
            (mean - 1.0 / 6.0).abs() < 0.02,
            "mean capacity loss {mean} vs theory {}",
            1.0 / 6.0
        );
    }

    #[test]
    fn mmpp_reclamations_stack_and_floor_at_zero() {
        // Ferocious reclamation rate on a tiny cluster: capacity must
        // floor at zero, never wrap.
        let spec = FaultSpec::Mmpp {
            r01: 0.5,
            r10: 0.5,
            a0: 2.0,
            a1: 2.0,
            mttr: 10.0,
        };
        let sched = spec.schedule(2, 3, 100.0);
        assert_eq!(sched.min_available(), 0);
        for e in sched.events() {
            assert!(e.available <= 2);
        }
    }

    #[test]
    fn none_schedule_never_changes_capacity() {
        let sched = FaultSchedule::none(4);
        assert!(sched.events().is_empty());
        assert_eq!(sched.available_at(123.0), 4);
        assert_eq!(sched.min_available(), 4);
        assert_eq!(sched.capacity_loss(10.0), 0.0);
    }
}
