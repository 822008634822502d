//! FIG6 — Figure 6(a, b): mean response time under IF and EF as the number
//! of servers k grows at constant load ρ = 0.9, for the two extreme rate
//! pairs of Figure 5(c): (µ_I, µ_E) = (0.25, 1) and (3.25, 1).
//!
//! Expected shape (paper): E[T] falls with k for both policies, but the
//! *gap between the policies stays large even at k = 16* — in panel (a)
//! (µ_I = 0.25) EF wins throughout, in panel (b) (µ_I = 3.25) IF wins
//! throughout.
//!
//! Run: `cargo bench -p eirs-bench --bench fig6_servers`

use eirs_bench::section;
use eirs_core::experiments::figure6_server_scaling;

fn main() {
    let rho = 0.9;
    let ks: Vec<u32> = (2..=16).collect();
    for (panel, mu_i, mu_e, expect) in [('a', 0.25, 1.0, "EF"), ('b', 3.25, 1.0, "IF")] {
        section(&format!(
            "Figure 6({panel}): E[T] vs k at rho = {rho}, µ_I = {mu_i}, µ_E = {mu_e}"
        ));
        let curve = figure6_server_scaling(&ks, rho, mu_i, mu_e).expect("analysis succeeds");
        println!("  k      E[T] IF      E[T] EF      gap (worse/better)");
        for p in &curve {
            let (lo, hi) = if p.mrt_if < p.mrt_ef {
                (p.mrt_if, p.mrt_ef)
            } else {
                (p.mrt_ef, p.mrt_if)
            };
            println!(
                "  {:<6} {:<12.4} {:<12.4} {:.2}x",
                p.k,
                p.mrt_if,
                p.mrt_ef,
                hi / lo
            );
        }
        let last = curve.last().expect("non-empty");
        let winner = if last.mrt_if < last.mrt_ef {
            "IF"
        } else {
            "EF"
        };
        println!("  winner at k = 16: {winner} (paper: {expect})");
        assert_eq!(winner, expect, "Figure 6({panel}) winner changed");
        let (lo, hi) = if last.mrt_if < last.mrt_ef {
            (last.mrt_if, last.mrt_ef)
        } else {
            (last.mrt_ef, last.mrt_if)
        };
        println!(
            "  gap at k = 16 remains {:.2}x — the paper's point that scale does\n\
             not substitute for the right allocation policy.",
            hi / lo
        );
    }
}
