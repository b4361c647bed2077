//! Decentralized scheduling for interactive analytics — the paper's
//! headline setting (§5, §7.2).
//!
//! Spark-like sub-second-to-seconds tasks are scheduled by ten autonomous
//! schedulers over probe-based late binding. Compare stock Sparrow,
//! Sparrow-SRPT (the paper's aggressive baseline), and decentralized
//! Hopper.
//!
//! ```text
//! cargo run --release --example interactive_analytics
//! ```

use hopper::decentral::{run, DecConfig, DecPolicy};
use hopper::metrics::{reduction_pct, RunSummary, Table};
use hopper::workload::{TraceGenerator, WorkloadProfile};

fn main() {
    let cfg = DecConfig {
        seed: 7,
        ..Default::default()
    };
    let slots = cfg.cluster.total_slots();
    let profile = WorkloadProfile::facebook().interactive();
    let trace = TraceGenerator::new(profile, 150, 7).generate_with_utilization(slots, 0.8);
    println!(
        "cluster: {} workers × {} slots, {} schedulers, probe ratio {}, 80% utilization",
        cfg.cluster.machines, cfg.cluster.slots_per_machine, cfg.num_schedulers, cfg.probe_ratio,
    );

    let mut table = Table::new(
        "decentralized schedulers (mean JCT, messaging)",
        &[
            "policy",
            "mean JCT (ms)",
            "p90 JCT (ms)",
            "reservations",
            "responses",
            "refusals",
            "vs Sparrow-SRPT",
        ],
    );
    let baseline = run(&trace, DecPolicy::SparrowSrpt, &cfg).mean_duration_ms();
    for policy in [
        DecPolicy::Sparrow,
        DecPolicy::SparrowSrpt,
        DecPolicy::Hopper,
    ] {
        let out = run(&trace, policy, &cfg);
        let durs: Vec<f64> = out.jobs.iter().map(|j| j.duration_ms() as f64).collect();
        table.row(&[
            policy.name().to_string(),
            format!("{:.0}", out.mean_duration_ms()),
            format!("{:.0}", hopper::metrics::percentile(&durs, 0.9)),
            out.stats.reservations.to_string(),
            out.stats.responses.to_string(),
            out.stats.refusals.to_string(),
            format!("{:+.1}%", reduction_pct(baseline, out.mean_duration_ms())),
        ]);
    }
    table.print();
    println!("\nHopper's refusal protocol spends a few extra messages to place");
    println!("speculative copies where the virtual-size allocation wants them.");
}
