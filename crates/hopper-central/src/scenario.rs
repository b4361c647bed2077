//! Canned scenarios from the paper, shared by tests, benches, and examples.

use hopper_cluster::ClusterConfig;
use hopper_sim::SimTime;
use hopper_spec::Speculator;
use hopper_workload::{single_phase_job, Trace};

use crate::driver::SimConfig;

/// The §3 motivating example (Table 1): two jobs on a 7-slot cluster.
///
/// Job A has 4 tasks with original durations 10/10/10/30 s and speculative
/// duration 10 s; job B has 5 tasks with originals 20/20/20/40/10 s and
/// speculative 10 s. Stragglers are detectable after a copy has run 2 s.
/// β is set to 1.6 so that `2/β = 1.25` gives Hopper's virtual sizes
/// V_A = 5 and V_B = 6.25 — the allocation drawn in Figure 2.
pub fn motivating_trace() -> (Trace, Vec<Vec<(u64, u64)>>) {
    const S: u64 = 1000; // the paper's "time units" are seconds here
    let a: Vec<(u64, u64)> = vec![
        (10 * S, 10 * S),
        (10 * S, 10 * S),
        (10 * S, 10 * S),
        (30 * S, 10 * S),
    ];
    let b: Vec<(u64, u64)> = vec![
        (20 * S, 10 * S),
        (20 * S, 10 * S),
        (20 * S, 10 * S),
        (40 * S, 10 * S),
        (10 * S, 10 * S),
    ];
    let jobs = vec![
        single_phase_job(
            0,
            SimTime::ZERO,
            a.iter().map(|&(o, _)| SimTime::from_millis(o)).collect(),
            1.6,
        ),
        single_phase_job(
            1,
            SimTime::ZERO,
            b.iter().map(|&(o, _)| SimTime::from_millis(o)).collect(),
            1.6,
        ),
    ];
    (Trace::new(jobs), vec![a, b])
}

/// Simulation config for the motivating example: 7 machines × 1 slot,
/// the simple `t_rem > t_new` rule with 2 s detection, 1 s scan period.
pub fn motivating_sim_config() -> SimConfig {
    let (_, scripted) = motivating_trace();
    SimConfig {
        cluster: ClusterConfig {
            machines: 7,
            slots_per_machine: 1,
            dfs_replicas: 0,
            handoff_ms: 0, // the paper's example has no container set-up cost
        },
        speculator: Speculator::SimpleThreshold {
            detect_after: SimTime::from_millis(2_000),
        },
        scan_interval: SimTime::from_millis(1_000),
        seed: 42,
        max_events: 10_000,
        scripted: Some(scripted),
        dynamics: hopper_cluster::DynamicsConfig::off(),
        telemetry_window_ms: 0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn trace_matches_table_1() {
        let (trace, scripted) = motivating_trace();
        assert_eq!(trace.len(), 2);
        assert_eq!(trace.jobs[0].num_tasks(), 4);
        assert_eq!(trace.jobs[1].num_tasks(), 5);
        assert_eq!(scripted[0][3], (30_000, 10_000));
        assert_eq!(scripted[1][3], (40_000, 10_000));
        // All speculative copies take 10 s (Table 1's t_new row).
        for job in &scripted {
            for &(_, tnew) in job {
                assert_eq!(tnew, 10_000);
            }
        }
    }

    #[test]
    fn config_is_seven_singleslot_machines() {
        let cfg = motivating_sim_config();
        assert_eq!(cfg.cluster.total_slots(), 7);
        assert!(cfg.scripted.is_some());
    }
}
