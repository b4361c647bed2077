//! **Figure 9** — Hopper's gains are independent of the straggler-
//! mitigation algorithm: LATE, Mantri, and GRASS each paired with
//! Hopper vs with Sparrow-SRPT.
//!
//! The paper: remarkably similar gains across all three — resource
//! allocation across jobs matters more than the mitigation rule within
//! a job.

use hopper_decentral::{run, DecPolicy};
use hopper_metrics::{mean_duration_in_bin, reduction_pct, RunSummary, SizeBin, Table};
use hopper_sim::SimTime;
use hopper_spec::{SpecConfig, Speculator};

fn main() {
    hopper_bench::banner("Figure 9", "gains by speculation algorithm, 60% util");
    let seeds = hopper_bench::seeds();
    let spec = hopper_bench::decentral_spec("hopper", "facebook", 0.6);
    let spec_cfg = SpecConfig {
        min_elapsed: SimTime::from_millis(300),
        ..Default::default()
    };
    let algos: Vec<(&str, Speculator)> = vec![
        ("LATE", Speculator::Late(spec_cfg.clone())),
        ("Mantri", Speculator::Mantri(spec_cfg.clone())),
        ("GRASS", Speculator::Grass(spec_cfg.clone())),
    ];

    let mut table = Table::new(
        "reduction vs Sparrow-SRPT with the same speculation algorithm",
        &["algorithm", "overall", "<50", "51-150", "151-500", ">500"],
    );
    for (name, speculator) in algos {
        let mut overall = (0.0, 0.0);
        let mut bins = [(0.0, 0.0); 4];
        for seed in 0..seeds {
            let (_, mut cfg) = spec.decentral_config(seed).expect("fig9 spec");
            cfg.speculator = speculator.clone();
            let trace = spec.trace(seed);
            let base = run(&trace, DecPolicy::SparrowSrpt, &cfg);
            let hop = run(&trace, DecPolicy::Hopper, &cfg);
            overall.0 += base.mean_duration_ms();
            overall.1 += hop.mean_duration_ms();
            for (i, bin) in SizeBin::all().into_iter().enumerate() {
                if let (Some(b), Some(h)) = (
                    mean_duration_in_bin(&base.jobs, bin),
                    mean_duration_in_bin(&hop.jobs, bin),
                ) {
                    bins[i].0 += b;
                    bins[i].1 += h;
                }
            }
        }
        let fmt = |pair: (f64, f64)| {
            if pair.0 == 0.0 {
                "n/a".to_string()
            } else {
                format!("{:.1}%", reduction_pct(pair.0, pair.1))
            }
        };
        table.row(&[
            name.to_string(),
            fmt(overall),
            fmt(bins[0]),
            fmt(bins[1]),
            fmt(bins[2]),
            fmt(bins[3]),
        ]);
    }
    table.print();
}
