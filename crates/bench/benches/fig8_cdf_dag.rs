//! **Figure 8** — (a) the CDF of per-job gains at 60% utilization and
//! (b) gains as the job's DAG length varies.
//!
//! The paper: median gains just above the average, >70% at high
//! percentiles, and 10–15% even at the 10th percentile; gains hold
//! across DAG lengths.

use hopper_decentral::{run, DecPolicy};
use hopper_metrics::{mean_duration_for_dag, reduction_pct, GainCdf, Table};

fn main() {
    hopper_bench::banner("Figure 8", "gain CDF and gains by DAG length, 60% util");
    let seeds = hopper_bench::seeds();
    let spec = hopper_bench::decentral_spec("hopper", "facebook", 0.6);

    // (a) CDF of per-job gains.
    let mut gains: Vec<f64> = Vec::new();
    for seed in 0..seeds {
        let (_, cfg) = spec.decentral_config(seed).expect("fig8 spec");
        let trace = spec.trace(seed);
        let base = run(&trace, DecPolicy::SparrowSrpt, &cfg);
        let hop = run(&trace, DecPolicy::Hopper, &cfg);
        gains.extend(GainCdf::between(&base.jobs, &hop.jobs).gains);
    }
    gains.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let cdf = GainCdf { gains };
    let mut ta = Table::new(
        "(a) CDF of per-job gains vs Sparrow-SRPT",
        &["percentile", "gain"],
    );
    for p in [0.10, 0.25, 0.50, 0.75, 0.90] {
        ta.row(&[
            format!("P{:.0}", p * 100.0),
            format!("{:.1}%", cdf.value_at(p)),
        ]);
    }
    ta.print();

    // (b) Gains by DAG length (force a mix of lengths 1..=6).
    let mut tb = Table::new("(b) gains by DAG length", &["phases", "reduction"]);
    for len in 1..=6usize {
        let mut dag_spec = spec.clone();
        dag_spec.jobs = hopper_bench::jobs() / 2;
        dag_spec.fixed_dag_len = Some(len);
        let (mut b, mut h) = (0.0, 0.0);
        let mut have = true;
        for seed in 0..seeds {
            let (_, cfg) = dag_spec.decentral_config(seed).expect("fig8 spec");
            let trace = dag_spec.trace(seed);
            let base = run(&trace, DecPolicy::SparrowSrpt, &cfg);
            let hop = run(&trace, DecPolicy::Hopper, &cfg);
            match (
                mean_duration_for_dag(&base.jobs, len),
                mean_duration_for_dag(&hop.jobs, len),
            ) {
                (Some(x), Some(y)) => {
                    b += x;
                    h += y;
                }
                _ => have = false,
            }
        }
        tb.row(&[
            len.to_string(),
            if have {
                format!("{:.1}%", reduction_pct(b, h))
            } else {
                "n/a".into()
            },
        ]);
    }
    tb.print();
}
