//! FIG4 — Figure 4(a–c): heat maps of the relative performance of IF vs EF
//! over the (µ_I, µ_E) grid at k = 4 and ρ ∈ {0.5, 0.7, 0.9}, λ_I = λ_E.
//!
//! Paper rendering: red circles where IF dominates, blue + where EF
//! dominates. Here: `o` = IF wins, `+` = EF wins, `=` = tie. The expected
//! shape: IF wins everywhere on and right of the µ_I = µ_E diagonal (its
//! optimality region, Theorem 5); an EF-winning region appears left of the
//! diagonal and *grows with load*.
//!
//! Run: `cargo bench -p eirs-bench --bench fig4_heatmaps`

use eirs_bench::section;
use eirs_core::experiments::{figure4_heatmap, figure4_mu_grid, Winner};
use eirs_core::sweep::{sweep_with_threads, threads};

fn main() {
    let k = 4;
    let rhos = [0.5, 0.7, 0.9];
    let grid = figure4_mu_grid();

    let maps = sweep_with_threads(&rhos, threads().min(3), |&rho| {
        (rho, figure4_heatmap(k, rho).expect("analysis succeeds"))
    });

    for (rho, cells) in &maps {
        section(&format!(
            "Figure 4: winner heat map, k = {k}, rho = {rho} (o = IF, + = EF)"
        ));
        // Rows: µ_E from high to low (paper's y axis); columns: µ_I ascending.
        print!("  µ_E\\µ_I |");
        for mu_i in &grid {
            print!("{mu_i:>5.2}");
        }
        println!();
        println!("  --------+{}", "-".repeat(5 * grid.len()));
        for mu_e in grid.iter().rev() {
            print!("  {mu_e:>7.2} |");
            for mu_i in &grid {
                let cell = cells
                    .iter()
                    .find(|c| (c.mu_i - mu_i).abs() < 1e-9 && (c.mu_e - mu_e).abs() < 1e-9)
                    .expect("cell computed");
                print!("{:>5}", cell.comparison.winner.cell());
            }
            println!();
        }
        let ef_cells = cells
            .iter()
            .filter(|c| c.comparison.winner == Winner::ElasticFirst)
            .count();
        println!(
            "  EF-dominant cells: {ef_cells}/{} ({:.1}%)",
            cells.len(),
            100.0 * ef_cells as f64 / cells.len() as f64
        );
        // Theorem 5 sanity inside the harness: no EF win at µ_I ≥ µ_E.
        let violations = cells
            .iter()
            .filter(|c| c.mu_i >= c.mu_e && c.comparison.winner == Winner::ElasticFirst)
            .count();
        assert_eq!(violations, 0, "EF won in the IF-optimal region");
    }

    println!();
    println!(
        "Expected from the paper: the EF region (+) lies strictly left of the\n\
         µ_I = µ_E diagonal and grows as rho increases from 0.5 to 0.9."
    );
}
