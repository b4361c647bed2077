//! Anatomy of a straggler: watch one job's tasks race their speculative
//! copies under the Pareto duration model (§2.2, §4.1).
//!
//! ```text
//! cargo run --release --example straggler_anatomy
//! ```

use hopper::central::{run, HopperConfig, Policy, SimConfig};
use hopper::cluster::ClusterConfig;
use hopper::metrics::RunSummary;
use hopper::sim::SimTime;
use hopper::spec::{SpecConfig, Speculator};
use hopper::workload::{single_phase_job, Trace};

fn main() {
    // One job, 50 identical 10-second tasks, heavy-tailed β = 1.3 — some
    // copies will straggle badly.
    let beta = 1.3;
    let trace = Trace::new(vec![single_phase_job(
        0,
        SimTime::ZERO,
        vec![SimTime::from_millis(10_000); 50],
        beta,
    )]);
    let cfg = SimConfig {
        cluster: ClusterConfig {
            machines: 75, // 1.5× the task count: room for prompt speculation
            slots_per_machine: 1,
            dfs_replicas: 0,
            handoff_ms: 0,
        },
        speculator: Speculator::Late(SpecConfig {
            min_elapsed: SimTime::from_millis(1_000),
            ..Default::default()
        }),
        scan_interval: SimTime::from_millis(500),
        seed: 99,
        ..Default::default()
    };

    println!(
        "β = {beta}: P(task runs >2× nominal) = {:.1}%",
        tail_prob(beta, 2.0) * 100.0
    );
    println!(
        "          P(task runs >8× nominal) = {:.2}%\n",
        tail_prob(beta, 8.0) * 100.0
    );

    for (name, policy) in [
        ("no speculation", Policy::Srpt),
        ("SRPT + LATE", Policy::Srpt),
        ("Hopper + LATE", Policy::Hopper(HopperConfig::pure())),
    ] {
        let mut c = cfg.clone();
        if name == "no speculation" {
            c.speculator = Speculator::None;
        }
        let out = run(&trace, &policy, &c);
        println!(
            "{name:>16}: completion {:>6.1}s  (spec launched {}, won {}, killed {})",
            out.mean_duration_ms() / 1000.0,
            out.stats.spec_launched,
            out.stats.spec_won,
            out.stats.killed,
        );
    }
    println!("\nWithout speculation the job waits for the slowest Pareto draw;");
    println!("with it, stragglers race fresh copies and the winner's time counts.");
}

/// P(X > m) for the unit-mean Pareto(β) duration multiplier.
fn tail_prob(beta: f64, m: f64) -> f64 {
    let x_min = (beta - 1.0) / beta;
    if m <= x_min {
        1.0
    } else {
        (x_min / m).powf(beta)
    }
}
