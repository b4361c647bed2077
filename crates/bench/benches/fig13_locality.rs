//! **Figure 13** — the locality allowance `k` (§4.4): gains and the
//! fraction of data-local input tasks as `k` sweeps.
//!
//! The paper: a small k (≈3%) buys an appreciable locality increase;
//! gains hold for a while and drop past k ≈ 7% as the deviation from the
//! virtual-size order outweighs locality.

use hopper_central::{run, Policy};
use hopper_metrics::{reduction_pct, RunSummary, Table};

fn main() {
    hopper_bench::banner(
        "Figure 13",
        "locality allowance k: gains and local fraction",
    );
    let seeds = hopper_bench::seeds();

    for (name, interactive) in [("Spark-style", true), ("Hadoop-style", false)] {
        let mut spec = hopper_bench::central_spec("hopper", interactive, 0.8);
        spec.single_phase = true;
        let mut table = Table::new(
            &format!("{name} profile, 80% utilization"),
            &["k", "reduction vs SRPT", "% data-local tasks"],
        );
        for k in [0.0, 1.0, 3.0, 5.0, 7.0, 10.0, 15.0, 20.0] {
            let mut base = 0.0;
            let mut hop = 0.0;
            let mut local = 0.0;
            for seed in 0..seeds {
                let (mut hopper, cfg) = spec.central_config(seed).expect("fig13 spec");
                if let Policy::Hopper(h) = &mut hopper {
                    h.locality_relax_pct = k;
                }
                let trace = spec.trace(seed);
                base += run(&trace, &Policy::Srpt, &cfg).mean_duration_ms();
                let out = run(&trace, &hopper, &cfg);
                hop += out.mean_duration_ms();
                local += out.stats.locality_fraction.unwrap_or(0.0);
            }
            table.row(&[
                format!("{k:.0}%"),
                format!("{:.1}%", reduction_pct(base, hop)),
                format!("{:.1}%", local / seeds as f64 * 100.0),
            ]);
        }
        table.print();
    }
}
