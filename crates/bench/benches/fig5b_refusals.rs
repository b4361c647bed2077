//! **Figure 5b** — impact of the refusal threshold on decentralized
//! Hopper (ratio over centralized Hopper).
//!
//! The paper: two or three refusals bring performance within 10–15% of
//! the centralized scheduler; more refusals give a better view but cost
//! messages and idle time.

use hopper_decentral::run;
use hopper_experiment::{mean_jct, run_seeds};
use hopper_metrics::{RunSummary, Table};

fn main() {
    hopper_bench::banner(
        "Figure 5b",
        "JCT ratio over centralized Hopper vs refusal count",
    );
    let seeds = hopper_bench::seeds();

    for util in [0.6, 0.8] {
        let mut spec = hopper_bench::decentral_spec("hopper", "facebook", util);
        spec.fixed_beta = Some(1.5);

        // Centralized Hopper reference on the same cluster and traces.
        let central = hopper_bench::centralized_reference(&spec);
        let central_mean = mean_jct(&run_seeds(&central).expect("central reference"));

        let mut table = Table::new(
            &format!(
                "utilization {:.0}% (centralized Hopper = 1.0)",
                util * 100.0
            ),
            &["refusal threshold", "Hopper(dec) ratio", "G3 switches/run"],
        );
        for threshold in [0usize, 1, 2, 3, 5, 10] {
            let mut h = 0.0;
            let mut g3 = 0u64;
            for seed in 0..seeds {
                let (policy, mut cfg) = spec.decentral_config(seed).expect("fig5b spec");
                cfg.refusal_threshold = threshold;
                let out = run(&spec.trace(seed), policy, &cfg);
                h += out.mean_duration_ms();
                g3 += out.stats.guideline3_switches;
            }
            table.row(&[
                threshold.to_string(),
                format!("{:.2}", h / seeds as f64 / central_mean),
                (g3 / seeds).to_string(),
            ]);
        }
        table.print();
    }
}
