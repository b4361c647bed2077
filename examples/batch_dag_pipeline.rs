//! Batch DAG pipelines: multi-phase jobs with shuffles, α weighting, and
//! online intermediate-data estimation (§4.2, §6.3).
//!
//! ```text
//! cargo run --release --example batch_dag_pipeline
//! ```

use hopper::central::{run, HopperConfig, Policy, SimConfig};
use hopper::cluster::{ClusterConfig, JobRun};
use hopper::metrics::{RunSummary, Table};
use hopper::sim::rng_from_seed;
use hopper::workload::{TraceGenerator, WorkloadProfile};

fn main() {
    // A Hadoop-style batch workload where every job is a 3-phase chain
    // (map → shuffle/reduce → aggregate).
    let profile = WorkloadProfile::facebook().fixed_dag_len(3);
    let trace = TraceGenerator::new(profile.clone(), 60, 11).generate_with_utilization(200, 0.7);

    // Peek at one job's phase structure and its DAG weight α.
    let cluster = ClusterConfig {
        machines: 50,
        slots_per_machine: 4,
        ..Default::default()
    };
    let sample = JobRun::new(trace.jobs[0].clone(), &cluster, &mut rng_from_seed(1));
    println!("sample job {}:", sample.id);
    for (i, (p, spec)) in sample.phases().iter().zip(&sample.spec.phases).enumerate() {
        println!(
            "  phase {i}: {} tasks, {:.1} MB out/task, shuffle-in {:.0} ms/task",
            p.num_tasks(),
            spec.output_mb_per_task,
            p.transfer_ms_per_task,
        );
    }
    println!(
        "  α (remaining transfer / remaining compute) = {:.2}\n",
        sample.alpha()
    );

    let cfg = SimConfig {
        cluster,
        ..Default::default()
    };
    let mut table = Table::new(
        "3-phase DAG pipelines, centralized scheduling",
        &["policy", "mean JCT (s)", "spec wins", "α accuracy"],
    );
    for policy in [Policy::Srpt, Policy::Hopper(HopperConfig::default())] {
        let out = run(&trace, &policy, &cfg);
        table.row(&[
            policy.name().to_string(),
            format!("{:.1}", out.mean_duration_ms() / 1000.0),
            out.stats.spec_won.to_string(),
            out.stats
                .alpha_accuracy
                .map_or("n/a".into(), |a| format!("{:.0}%", a * 100.0)),
        ]);
    }
    table.print();
    println!("\nHopper predicts intermediate-data volumes from recurring job");
    println!("templates (paper §6.3 reports ~92% accuracy; see the α column).");
}
