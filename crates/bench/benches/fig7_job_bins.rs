//! **Figure 7** — decentralized Hopper's gains over Sparrow-SRPT, binned
//! by job size (number of tasks), at 60% utilization.
//!
//! The paper: small jobs gain 18–32% (the SRPT baseline already favors
//! them); large jobs gain >50% — the value of coordinating speculation
//! grows with the number of tasks.

use hopper_decentral::{run, DecPolicy};
use hopper_metrics::{mean_duration_in_bin, reduction_pct, RunSummary, SizeBin, Table};

fn main() {
    hopper_bench::banner(
        "Figure 7",
        "gains over Sparrow-SRPT by job-size bin, 60% util",
    );
    let seeds = hopper_bench::seeds();

    for workload in ["facebook", "bing"] {
        let spec = hopper_bench::decentral_spec("hopper", workload, 0.6);
        let mut table = Table::new(
            &format!("{workload} workload"),
            &["job bin (tasks)", "jobs", "reduction vs Sparrow-SRPT"],
        );
        // Accumulate bin means across seeds.
        let mut bin_base = [0.0f64; 4];
        let mut bin_hopper = [0.0f64; 4];
        let mut bin_count = [0usize; 4];
        let mut overall_base = 0.0;
        let mut overall_hopper = 0.0;
        for seed in 0..seeds {
            let (_, cfg) = spec.decentral_config(seed).expect("fig7 spec");
            let trace = spec.trace(seed);
            let base = run(&trace, DecPolicy::SparrowSrpt, &cfg);
            let hop = run(&trace, DecPolicy::Hopper, &cfg);
            overall_base += base.mean_duration_ms();
            overall_hopper += hop.mean_duration_ms();
            for (i, bin) in SizeBin::all().into_iter().enumerate() {
                if let (Some(b), Some(h)) = (
                    mean_duration_in_bin(&base.jobs, bin),
                    mean_duration_in_bin(&hop.jobs, bin),
                ) {
                    bin_base[i] += b;
                    bin_hopper[i] += h;
                    bin_count[i] += base
                        .jobs
                        .iter()
                        .filter(|r| SizeBin::of(r.size_tasks) == bin)
                        .count();
                }
            }
        }
        table.row(&[
            "Overall".into(),
            "all".into(),
            format!("{:.1}%", reduction_pct(overall_base, overall_hopper)),
        ]);
        for (i, bin) in SizeBin::all().into_iter().enumerate() {
            if bin_count[i] == 0 {
                table.row(&[bin.label().into(), "0".into(), "n/a".into()]);
            } else {
                table.row(&[
                    bin.label().into(),
                    bin_count[i].to_string(),
                    format!("{:.1}%", reduction_pct(bin_base[i], bin_hopper[i])),
                ]);
            }
        }
        table.print();
    }
}
