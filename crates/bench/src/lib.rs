//! Shared infrastructure for the figure/table regeneration harnesses.
//!
//! Each bench target in this crate regenerates one table or figure of
//! Berg et al. (SPAA 2020) and prints the same rows/series the paper
//! reports (as aligned text, since the original artifacts are MATLAB
//! plots). `cargo bench -p eirs-bench` therefore *is* the reproduction run;
//! see `docs/BENCHMARKS.md` for the targets and their artifacts.
//!
//! Also here: [`harness`], the dependency-free timer every timed bench
//! uses (the offline build environment rules out criterion); [`json`],
//! the hardware block and the one writer of the `BENCH_*.json`
//! artifacts (each an `eirs_obs::Json`, the workspace's one JSON
//! writer); [`serving`], the serve-engine fixture the serving benches
//! share; and [`smoke`], the one switch that shrinks a bench to an
//! assert-only pass.

pub mod harness;
pub mod json;
pub mod serving;

/// Renders one row of an aligned text table.
pub fn row(cells: &[String], widths: &[usize]) -> String {
    let mut out = String::new();
    for (cell, w) in cells.iter().zip(widths) {
        out.push_str(&format!("{cell:<width$}", width = w + 2));
    }
    out.trim_end().to_string()
}

/// Prints a titled section separator.
pub fn section(title: &str) {
    println!();
    println!("==== {title} ====");
}

/// Whether `EIRS_BENCH_SMOKE` is set (to anything but empty or `0`).
/// Under it a bench is an assert-only pass: every correctness gate still
/// runs, timed measurements run one round, some benches shrink their
/// inputs, and [`json::write_artifact`] writes nothing.
pub fn smoke() -> bool {
    std::env::var_os("EIRS_BENCH_SMOKE").is_some_and(|v| !v.is_empty() && v != "0")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 3]);
        assert_eq!(r, "a    bb");
    }
}
