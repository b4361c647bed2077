//! **Ablation** (beyond the paper's figures) — which pieces of Hopper's
//! design carry the gains?
//!
//! Compares the default centralized Hopper against variants with one
//! mechanism removed: no √α DAG weighting, no online β learning, no
//! online α learning, no locality relaxation — plus the §3 budgeted
//! strawman and the Fair baseline for calibration.

use hopper_central::{run, HopperConfig, Policy};
use hopper_metrics::{reduction_pct, RunSummary, Table};

fn main() {
    hopper_bench::banner("Ablation", "centralized Hopper variants vs SRPT, 80% util");
    let seeds = hopper_bench::seeds();
    let mut spec = hopper_bench::central_spec("srpt", false, 0.8);
    spec.single_phase = true;

    let variants: Vec<(&str, Policy)> = vec![
        ("Fair", Policy::Fair),
        (
            "Budgeted-SRPT 20%",
            Policy::BudgetedSrpt {
                budget_fraction: 0.2,
            },
        ),
        ("Hopper (default)", Policy::Hopper(HopperConfig::default())),
        (
            "Hopper w/o alpha",
            Policy::Hopper(HopperConfig {
                use_alpha: false,
                ..Default::default()
            }),
        ),
        (
            "Hopper w/o learned beta",
            Policy::Hopper(HopperConfig {
                learn_beta: false,
                ..Default::default()
            }),
        ),
        (
            "Hopper w/o learned alpha",
            Policy::Hopper(HopperConfig {
                learn_alpha: false,
                ..Default::default()
            }),
        ),
        (
            "Hopper w/o locality relax",
            Policy::Hopper(HopperConfig {
                locality_relax_pct: 0.0,
                ..Default::default()
            }),
        ),
    ];

    let mut table = Table::new(
        "reduction in mean JCT vs SRPT (positive = better than SRPT)",
        &["variant", "reduction", "spec launched", "spec won"],
    );
    for (name, policy) in variants {
        let mut base = 0.0;
        let mut var = 0.0;
        let mut launched = 0;
        let mut won = 0;
        for seed in 0..seeds {
            let (srpt, cfg) = spec.central_config(seed).expect("ablation spec");
            let trace = spec.trace(seed);
            base += run(&trace, &srpt, &cfg).mean_duration_ms();
            let out = run(&trace, &policy, &cfg);
            var += out.mean_duration_ms();
            launched += out.stats.spec_launched;
            won += out.stats.spec_won;
        }
        table.row(&[
            name.to_string(),
            format!("{:+.1}%", reduction_pct(base, var)),
            (launched / seeds).to_string(),
            (won / seeds).to_string(),
        ]);
    }
    table.print();
}
