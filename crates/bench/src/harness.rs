//! The one bench timer (criterion is unavailable offline).
//!
//! Methodology: a measurement is a set of [`Arm`]s run in [`rounds`].
//! Every arm first runs once untimed (warm-up), then in each of `R`
//! rounds every arm runs once, each round starting one arm later than
//! the last (A, B; B, A; …), so a slow stretch of a shared host lands on
//! every arm alike. A timing is the median and quartiles of an arm's
//! `R` run times; a ratio between two arms is taken inside each round
//! and reported as the median and quartiles of the `R` per-round
//! ratios ([`Rounds::ratio`]). One arm alone is plain repeated sampling.
//! The clock covers each call and the drop of its result (dropping a
//! serve engine joins its pool threads).

use std::fmt;
use std::hint::black_box;
use std::time::Instant;

/// One arm of a measurement: a label and the work one run performs.
pub struct Arm<'a> {
    label: String,
    run: Box<dyn FnMut() + 'a>,
}

/// An arm whose run is one call of `f`, including the drop of its
/// result (passed through [`black_box`] so the work cannot be elided).
pub fn arm<'a, R>(label: impl Into<String>, mut f: impl FnMut() -> R + 'a) -> Arm<'a> {
    Arm {
        label: label.into(),
        run: Box::new(move || drop(black_box(f()))),
    }
}

/// Calls `f` `times` times per run, each result through [`black_box`]:
/// `arm(label, repeat(n, f))` keeps a short operation's run well above
/// the clock's resolution.
pub fn repeat<R>(times: u64, mut f: impl FnMut() -> R) -> impl FnMut() {
    move || {
        for _ in 0..times {
            black_box(f());
        }
    }
}

/// Runs `arms` once each untimed, then `n` timed rounds in rotating
/// order, and prints one line per arm.
pub fn rounds(n: usize, mut arms: Vec<Arm<'_>>) -> Rounds {
    assert!(
        n >= 1 && !arms.is_empty(),
        "a measurement needs a round and an arm"
    );
    for a in &mut arms {
        (a.run)();
    }
    let mut secs = vec![Vec::with_capacity(n); arms.len()];
    for round in 0..n {
        for i in 0..arms.len() {
            let a = (round + i) % arms.len();
            let start = Instant::now();
            (arms[a].run)();
            secs[a].push(start.elapsed().as_secs_f64());
        }
    }
    let rounds = Rounds {
        labels: arms.into_iter().map(|a| a.label).collect(),
        secs,
    };
    for i in 0..rounds.labels.len() {
        let t = rounds.timing(i);
        println!(
            "  {:<44} {:>12}   (q1 {}, q3 {}, {} rounds)",
            t.label,
            pretty_seconds(t.median_s),
            pretty_seconds(t.q1_s),
            pretty_seconds(t.q3_s),
            t.runs,
        );
    }
    rounds
}

/// The run times of one measurement, per arm and round.
#[derive(Debug, Clone)]
pub struct Rounds {
    labels: Vec<String>,
    /// `secs[arm][round]`: seconds one run of the arm took in the round.
    secs: Vec<Vec<f64>>,
}

impl Rounds {
    /// Median and quartiles of arm `i`'s run times.
    pub fn timing(&self, i: usize) -> Timing {
        let [q1_s, median_s, q3_s] = quartiles(self.secs[i].clone());
        Timing {
            label: self.labels[i].clone(),
            median_s,
            q1_s,
            q3_s,
            runs: self.secs[i].len(),
        }
    }

    /// Arm `num`'s time over arm `den`'s, taken inside each round (so
    /// `ratio(serial, parallel)` is a speedup).
    pub fn ratio(&self, num: usize, den: usize) -> Ratio {
        let per_round = self.secs[num]
            .iter()
            .zip(&self.secs[den])
            .map(|(a, b)| a / b)
            .collect();
        let [q1, median, q3] = quartiles(per_round);
        Ratio { median, q1, q3 }
    }
}

/// One arm's run time: median and quartiles over its rounds.
#[derive(Debug, Clone)]
pub struct Timing {
    /// Arm label.
    pub label: String,
    /// Median seconds per run.
    pub median_s: f64,
    /// First quartile of seconds per run.
    pub q1_s: f64,
    /// Third quartile of seconds per run.
    pub q3_s: f64,
    /// Timed runs (rounds).
    pub runs: usize,
}

/// A per-round ratio between two arms: median and quartiles.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Ratio {
    /// Median of the per-round ratios.
    pub median: f64,
    /// First quartile.
    pub q1: f64,
    /// Third quartile.
    pub q3: f64,
}

impl Ratio {
    /// The ratio times `factor > 0`, a change of units (order statistics
    /// scale with it).
    pub fn scaled(self, factor: f64) -> Ratio {
        assert!(factor > 0.0, "a unit change keeps the order");
        Ratio {
            median: self.median * factor,
            q1: self.q1 * factor,
            q3: self.q3 * factor,
        }
    }
}

impl fmt::Display for Ratio {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{:.2}x (q1 {:.2}x, q3 {:.2}x)",
            self.median, self.q1, self.q3
        )
    }
}

/// Nearest-rank first quartile, median and third quartile.
fn quartiles(mut xs: Vec<f64>) -> [f64; 3] {
    xs.sort_by(f64::total_cmp);
    [0.25, 0.5, 0.75].map(|p| {
        let rank = ((p * xs.len() as f64).ceil() as usize).clamp(1, xs.len());
        xs[rank - 1]
    })
}

/// Formats seconds adaptively (s / ms / µs / ns).
pub fn pretty_seconds(s: f64) -> String {
    if s >= 1.0 {
        format!("{s:.3} s")
    } else if s >= 1e-3 {
        format!("{:.3} ms", s * 1e3)
    } else if s >= 1e-6 {
        format!("{:.3} µs", s * 1e6)
    } else {
        format!("{:.1} ns", s * 1e9)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::RefCell;

    #[test]
    fn rounds_rotate_the_arm_order_and_ratios_are_taken_per_round() {
        let calls = RefCell::new(Vec::new());
        let log = &calls;
        let r = rounds(
            4,
            (0..3)
                .map(|i| arm(format!("arm{i}"), move || log.borrow_mut().push(i)))
                .collect(),
        );
        // One untimed run each, then rounds starting at arm 0, 1, 2, 0.
        assert_eq!(
            calls.into_inner(),
            [0, 1, 2, 0, 1, 2, 1, 2, 0, 2, 0, 1, 0, 1, 2]
        );
        assert_eq!(r.timing(1).runs, 4);
        assert_eq!(r.timing(2).label, "arm2");

        // Per-round ratios are [1/3, 2, 3/2], so their median is 3/2,
        // while the arms' median times are equal (2 and 2).
        let r = Rounds {
            labels: vec!["a".into(), "b".into()],
            secs: vec![vec![1.0, 2.0, 3.0], vec![3.0, 1.0, 2.0]],
        };
        assert_eq!(r.timing(0).median_s, r.timing(1).median_s);
        assert_eq!(
            r.ratio(0, 1),
            Ratio {
                median: 1.5,
                q1: 1.0 / 3.0,
                q3: 2.0
            }
        );
        assert_eq!(r.ratio(0, 1).scaled(2.0).median, 3.0);
    }

    #[test]
    fn pretty_formatting_picks_units() {
        assert!(pretty_seconds(2.0).ends_with(" s"));
        assert!(pretty_seconds(2e-3).ends_with("ms"));
        assert!(pretty_seconds(2e-6).ends_with("µs"));
        assert!(pretty_seconds(2e-9).ends_with("ns"));
    }
}
