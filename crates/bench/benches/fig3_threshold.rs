//! **Figure 3** — the sharp threshold (knee) in the marginal value of
//! slots for a single job.
//!
//! One job with 200 Pareto tasks under LATE speculation, allocated a
//! varying number of slots (x-axis normalized by job size). The paper
//! observes a knee at `max(2/β, 1)`: 1.43 for β = 1.4 and 1.25 for
//! β = 1.6. This reproduction measures the knee at 1.1–1.2 slots/task
//! for both β = 1.4 and β = 1.6: the reactive-speculation model places
//! it earlier.

use hopper_central::{run, HopperConfig, Policy, SimConfig};
use hopper_cluster::ClusterConfig;
use hopper_metrics::{RunSummary, Table};
use hopper_sim::SimTime;
use hopper_spec::{SpecConfig, Speculator};
use hopper_workload::{single_phase_job, Trace};

fn main() {
    hopper_bench::banner("Figure 3", "single-job completion time vs normalized slots");
    let reps = (hopper_bench::seeds() * 10).max(10);
    let tasks = 200usize;
    let work_ms = 10_000u64;

    for beta in [1.4f64, 1.6] {
        let mut table = Table::new(
            &format!("β = {beta} (paper's knee at 2/β = {:.2})", 2.0 / beta),
            &["slots/size", "completion (×nominal)", "slope marker"],
        );
        let mut last: Option<f64> = None;
        for frac in [0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.25, 1.43, 1.6, 2.0, 2.5] {
            let slots = (tasks as f64 * frac).round() as usize;
            let mut mean = 0.0;
            for seed in 0..reps {
                let trace = Trace::new(vec![single_phase_job(
                    0,
                    SimTime::ZERO,
                    vec![SimTime::from_millis(work_ms); tasks],
                    beta,
                )]);
                let cfg = SimConfig {
                    cluster: ClusterConfig {
                        machines: slots,
                        slots_per_machine: 1,
                        dfs_replicas: 0,
                        handoff_ms: 0,
                    },
                    speculator: Speculator::Late(SpecConfig {
                        min_elapsed: SimTime::from_millis(500),
                        spec_cap_fraction: 0.6,
                    }),
                    scan_interval: SimTime::from_millis(500),
                    seed,
                    ..Default::default()
                };
                mean += run(&trace, &Policy::Hopper(HopperConfig::pure()), &cfg).mean_duration_ms();
            }
            let norm = mean / reps as f64 / work_ms as f64;
            let marker = match last {
                Some(prev) if prev - norm > 0.02 => "v improving",
                Some(_) => "- flat",
                None => "",
            };
            table.row(&[
                format!("{frac:.2}"),
                format!("{norm:.3}"),
                marker.to_string(),
            ]);
            last = Some(norm);
        }
        table.print();
    }
}
