//! **Figure 12** — centralized Hopper vs centralized SRPT (+LATE), on
//! Hadoop-style (batch, disk-fed) and Spark-style (interactive,
//! in-memory) workload profiles: overall, by job-size bin, and by DAG
//! length.
//!
//! The paper: ~50% overall, with Spark modestly higher than Hadoop
//! (short tasks are more sensitive to stragglers and to speculative-copy
//! placement). This bench regenerates where the reproduction lands
//! (`cargo bench --bench fig12_centralized`): our idealized
//! zero-latency SRPT baseline narrows the gap. Each policy's seed
//! repetitions run in parallel via `run_seeds`.

use hopper_experiment::{run_seeds, ExperimentSpec, Trial};
use hopper_metrics::{
    mean_duration_for_dag, mean_duration_in_bin, reduction_pct, RunSummary, SizeBin, Table,
};

fn seed_sum(trials: &[Trial], f: impl Fn(&Trial) -> Option<f64>) -> f64 {
    trials.iter().filter_map(&f).sum()
}

fn run(spec: &ExperimentSpec) -> Vec<Trial> {
    run_seeds(spec).expect("fig12 trials")
}

fn main() {
    hopper_bench::banner(
        "Figure 12",
        "centralized Hopper vs SRPT: bins and DAG lengths",
    );

    for (name, interactive) in [("Hadoop-style", false), ("Spark-style", true)] {
        let mk = |policy: &str| {
            let mut s = hopper_bench::central_spec(policy, interactive, 0.8);
            s.single_phase = true;
            s
        };
        let base = run(&mk("srpt"));
        let hop = run(&mk("hopper"));

        let overall = (
            seed_sum(&base, |t| Some(t.mean_duration_ms())),
            seed_sum(&hop, |t| Some(t.mean_duration_ms())),
        );
        let mut table = Table::new(
            &format!("(a) {name} profile, 80% utilization, single-phase jobs"),
            &["job bin", "reduction vs SRPT"],
        );
        table.row(&[
            "Overall".into(),
            format!("{:.1}%", reduction_pct(overall.0, overall.1)),
        ]);
        for bin in SizeBin::all() {
            // Sum a bin's mean across seeds only where both runs have
            // jobs in the bin (the original pairwise accumulation).
            let (mut b, mut h) = (0.0, 0.0);
            for (tb, th) in base.iter().zip(&hop) {
                if let (Some(x), Some(y)) = (
                    mean_duration_in_bin(&tb.jobs, bin),
                    mean_duration_in_bin(&th.jobs, bin),
                ) {
                    b += x;
                    h += y;
                }
            }
            let cell = if b == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.1}%", reduction_pct(b, h))
            };
            table.row(&[bin.label().into(), cell]);
        }
        table.print();
    }

    // (b) by DAG length, Spark-style profile.
    let mut tb = Table::new(
        "(b) gains by DAG length (Spark-style, 70% util)",
        &["phases", "reduction vs SRPT"],
    );
    for len in 2..=8usize {
        let mk = |policy: &str| {
            let mut s = hopper_bench::central_spec(policy, true, 0.7);
            s.fixed_dag_len = Some(len);
            s.jobs = hopper_bench::jobs() / 2;
            s
        };
        let b = seed_sum(&run(&mk("srpt")), |t| mean_duration_for_dag(&t.jobs, len));
        let h = seed_sum(&run(&mk("hopper")), |t| mean_duration_for_dag(&t.jobs, len));
        tb.row(&[len.to_string(), format!("{:.1}%", reduction_pct(b, h))]);
    }
    tb.print();
}
