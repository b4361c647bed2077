//! **Figure 10** — the fairness knob ε: (a) gains vs ε, (b) fraction of
//! jobs slowed versus a perfectly fair allocation, (c) the magnitude of
//! those slowdowns.
//!
//! The paper: gains rise quickly with ε and flatten past ~15%; at
//! ε = 10% fewer than 4% of jobs slow down, with bounded magnitudes.

use hopper_decentral::{run, DecPolicy};
use hopper_metrics::{reduction_pct, GainCdf, RunSummary, Table};

fn main() {
    hopper_bench::banner("Figure 10", "ε-fairness: gains, slowdowns, magnitudes");
    let seeds = hopper_bench::seeds();
    let spec = hopper_bench::decentral_spec("hopper", "facebook", 0.6);

    let mut table = Table::new(
        "decentralized Hopper at 60% utilization (baseline: ε = 0)",
        &[
            "ε",
            "gain vs SparrowSRPT",
            "jobs slowed vs ε=0",
            "avg slowdown",
            "worst",
        ],
    );
    for eps in [0.0, 0.05, 0.10, 0.15, 0.20, 0.30] {
        let mut srpt = 0.0;
        let mut hop = 0.0;
        let mut slowed = 0.0;
        let mut avg_slow = 0.0;
        let mut worst_slow = 0.0f64;
        for seed in 0..seeds {
            let (_, mut cfg) = spec.decentral_config(seed).expect("fig10 spec");
            let trace = spec.trace(seed);
            srpt += run(&trace, DecPolicy::SparrowSrpt, &cfg).mean_duration_ms();
            cfg.fairness_eps = Some(0.0);
            let fair = run(&trace, DecPolicy::Hopper, &cfg);
            cfg.fairness_eps = Some(eps);
            let out = run(&trace, DecPolicy::Hopper, &cfg);
            hop += out.mean_duration_ms();
            let cdf = GainCdf::between(&fair.jobs, &out.jobs);
            slowed += cdf.fraction_slowed();
            let (a, w) = cdf.slowdown_magnitude();
            avg_slow += a;
            worst_slow = worst_slow.max(w);
        }
        table.row(&[
            format!("{:.0}%", eps * 100.0),
            format!("{:.1}%", reduction_pct(srpt, hop)),
            format!("{:.1}%", slowed / seeds as f64 * 100.0),
            format!("{:.1}%", avg_slow / seeds as f64),
            format!("{worst_slow:.1}%"),
        ]);
    }
    table.print();
}
