//! Shared infrastructure for the figure/table regeneration harnesses.
//!
//! Each bench target in this crate regenerates one table or figure of
//! Berg et al. (SPAA 2020) and prints the same rows/series the paper
//! reports (as aligned text, since the original artifacts are MATLAB
//! plots). `cargo bench -p eirs-bench` therefore *is* the reproduction run;
//! see `EXPERIMENTS.md` at the workspace root for the recorded outputs.
//!
//! Also here: [`harness`], the dependency-free micro-benchmark timer used
//! by `perf_substrates` and `sweep_speedup` (the offline build environment
//! rules out criterion), and [`json`], the hardware/threading block the
//! `BENCH_*.json` perf-trajectory artifacts embed. The artifacts are
//! written with `eirs_obs::Json`, the workspace's one JSON writer.

use eirs_numerics::parallel;

pub mod harness;
pub mod json;

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

/// Maps `f` over `items` on `threads` scoped worker threads, preserving
/// input order. Delegates to the workspace's sweep substrate
/// (`eirs_numerics::parallel`), which the figure sweeps share.
pub fn parallel_map<T, R, F>(items: Vec<T>, threads: usize, f: F) -> Vec<R>
where
    T: Send + Sync,
    R: Send,
    F: Fn(&T) -> R + Sync,
{
    assert!(threads >= 1);
    parallel::par_map_ordered(&items, threads, f)
}

/// Number of worker threads to use for sweeps on this machine
/// (`EIRS_THREADS` or all available cores).
pub fn default_threads() -> usize {
    parallel::num_threads()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parallel_map_preserves_order() {
        let items: Vec<u64> = (0..100).collect();
        let doubled = parallel_map(items, 4, |&x| x * 2);
        for (i, v) in doubled.iter().enumerate() {
            assert_eq!(*v, 2 * i as u64);
        }
    }

    #[test]
    fn parallel_map_single_thread_works() {
        let out = parallel_map(vec![1, 2, 3], 1, |&x| x + 1);
        assert_eq!(out, vec![2, 3, 4]);
    }

    #[test]
    fn row_alignment() {
        let r = row(&["a".into(), "bb".into()], &[3, 3]);
        assert_eq!(r, "a    bb");
    }
}
