//! Quickstart: synthesize a workload, run two schedulers, compare.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use hopper::central::{run, HopperConfig, Policy, SimConfig};
use hopper::metrics::{reduction_pct, RunSummary, Table};
use hopper::workload::{TraceGenerator, WorkloadProfile};

fn main() {
    // A Facebook-like interactive workload: 100 jobs, heavy-tailed sizes,
    // Pareto task durations, arrivals calibrated to 70% of a 100-slot
    // cluster.
    let profile = WorkloadProfile::facebook().interactive();
    let trace = TraceGenerator::new(profile, 100, 42).generate_with_utilization(100, 0.7);
    println!(
        "trace: {} jobs, {} tasks total, offered utilization {:.2}",
        trace.len(),
        trace.jobs.iter().map(|j| j.num_tasks()).sum::<usize>(),
        trace.offered_utilization(100),
    );

    let mut cfg = SimConfig::default();
    cfg.cluster.machines = 25;
    cfg.cluster.slots_per_machine = 4;

    let mut table = Table::new(
        "centralized schedulers on the same trace",
        &[
            "policy",
            "mean JCT (ms)",
            "spec copies",
            "spec wins",
            "vs SRPT",
        ],
    );
    let srpt = run(&trace, &Policy::Srpt, &cfg);
    let base = srpt.mean_duration_ms();
    for policy in [
        Policy::Fifo,
        Policy::Fair,
        Policy::Srpt,
        Policy::Hopper(HopperConfig::default()),
    ] {
        let out = run(&trace, &policy, &cfg);
        table.row(&[
            policy.name().to_string(),
            format!("{:.0}", out.mean_duration_ms()),
            out.stats.spec_launched.to_string(),
            out.stats.spec_won.to_string(),
            format!("{:+.1}%", reduction_pct(base, out.mean_duration_ms())),
        ]);
    }
    table.print();
    println!("\nPositive \"vs SRPT\" = faster than the SRPT baseline.");
}
