//! End-to-end integration tests across the whole workspace: trace
//! synthesis → centralized and decentralized simulation → metrics.

use hopper::central;
use hopper::cluster::ClusterConfig;
use hopper::decentral;
use hopper::metrics::{GainCdf, RunSummary};
use hopper::sim::SimTime;
use hopper::workload::{TraceGenerator, WorkloadProfile};

fn fb_trace(seed: u64, n: usize, slots: usize, util: f64) -> hopper::workload::Trace {
    let profile = WorkloadProfile::facebook().interactive();
    TraceGenerator::new(profile, n, seed).generate_with_utilization(slots, util)
}

#[test]
fn centralized_policies_complete_same_trace() {
    let trace = fb_trace(1, 40, 100, 0.7);
    let cfg = central::SimConfig {
        cluster: ClusterConfig {
            machines: 25,
            slots_per_machine: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    for policy in [
        central::Policy::Fifo,
        central::Policy::Fair,
        central::Policy::Srpt,
        central::Policy::Hopper(central::HopperConfig::default()),
    ] {
        let out = central::run(&trace, &policy, &cfg);
        assert_eq!(out.jobs.len(), trace.len(), "{}", policy.name());
        // Every job completes after it arrives.
        for r in &out.jobs {
            assert!(r.completed >= r.arrival);
        }
    }
}

#[test]
fn decentralized_policies_complete_same_trace() {
    let trace = fb_trace(2, 40, 200, 0.7);
    let cfg = decentral::DecConfig {
        cluster: ClusterConfig {
            machines: 100,
            slots_per_machine: 2,
            handoff_ms: 0,
            ..Default::default()
        },
        seed: 2,
        ..Default::default()
    };
    for policy in [
        decentral::DecPolicy::Sparrow,
        decentral::DecPolicy::SparrowSrpt,
        decentral::DecPolicy::Hopper,
    ] {
        let out = decentral::run(&trace, policy, &cfg);
        assert_eq!(out.jobs.len(), trace.len(), "{}", policy.name());
    }
}

#[test]
fn same_seed_same_results_everywhere() {
    let trace = fb_trace(3, 30, 100, 0.7);
    let mut ccfg = central::SimConfig::default();
    ccfg.cluster.machines = 25;
    ccfg.cluster.slots_per_machine = 4;
    let a = central::run(
        &trace,
        &central::Policy::Hopper(central::HopperConfig::default()),
        &ccfg,
    );
    let b = central::run(
        &trace,
        &central::Policy::Hopper(central::HopperConfig::default()),
        &ccfg,
    );
    assert_eq!(a.stats.events, b.stats.events);
    assert_eq!(a.stats.spec_launched, b.stats.spec_launched);
    for (x, y) in a.jobs.iter().zip(&b.jobs) {
        assert_eq!(x.completed, y.completed);
    }

    let dcfg = decentral::DecConfig {
        cluster: ClusterConfig {
            machines: 100,
            slots_per_machine: 2,
            handoff_ms: 0,
            ..Default::default()
        },
        seed: 3,
        ..Default::default()
    };
    let c = decentral::run(&trace, decentral::DecPolicy::Hopper, &dcfg);
    let d = decentral::run(&trace, decentral::DecPolicy::Hopper, &dcfg);
    assert_eq!(c.stats.events, d.stats.events);
    for (x, y) in c.jobs.iter().zip(&d.jobs) {
        assert_eq!(x.completed, y.completed);
    }
}

#[test]
fn decentralized_hopper_beats_sparrow_on_contended_cluster() {
    // The headline claim, at small scale: coordinated speculation beats
    // stock Sparrow on a heavy-tailed interactive workload.
    let mut sparrow = 0.0;
    let mut hopper = 0.0;
    for seed in 0..3 {
        let trace = fb_trace(seed + 10, 80, 400, 0.8);
        let cfg = decentral::DecConfig {
            cluster: ClusterConfig {
                machines: 200,
                slots_per_machine: 2,
                handoff_ms: 0,
                ..Default::default()
            },
            seed,
            ..Default::default()
        };
        sparrow += decentral::run(&trace, decentral::DecPolicy::Sparrow, &cfg).mean_duration_ms();
        hopper += decentral::run(&trace, decentral::DecPolicy::Hopper, &cfg).mean_duration_ms();
    }
    assert!(
        hopper < sparrow,
        "hopper {hopper:.0} must beat sparrow {sparrow:.0}"
    );
}

#[test]
fn speculation_disabled_is_much_slower_on_heavy_tails() {
    // Sanity for the straggler model: turning speculation off leaves the
    // job at the mercy of the slowest Pareto draw.
    let trace = fb_trace(7, 40, 100, 0.6);
    let mut cfg = central::SimConfig::default();
    cfg.cluster.machines = 25;
    cfg.cluster.slots_per_machine = 4;
    let with_spec = central::run(&trace, &central::Policy::Srpt, &cfg).mean_duration_ms();
    cfg.speculator = hopper::spec::Speculator::None;
    let without = central::run(&trace, &central::Policy::Srpt, &cfg).mean_duration_ms();
    assert!(
        without > with_spec * 1.2,
        "speculation should matter: with {with_spec:.0}, without {without:.0}"
    );
}

#[test]
fn gain_cdf_between_real_runs_is_well_formed() {
    let trace = fb_trace(9, 50, 100, 0.7);
    let mut cfg = central::SimConfig::default();
    cfg.cluster.machines = 25;
    cfg.cluster.slots_per_machine = 4;
    let base = central::run(&trace, &central::Policy::Srpt, &cfg);
    let hop = central::run(
        &trace,
        &central::Policy::Hopper(central::HopperConfig::default()),
        &cfg,
    );
    let cdf = GainCdf::between(&base.jobs, &hop.jobs);
    assert_eq!(cdf.gains.len(), trace.len());
    assert!(cdf.value_at(0.0) <= cdf.value_at(0.5));
    assert!(cdf.value_at(0.5) <= cdf.value_at(1.0));
    assert!((0.0..=1.0).contains(&cdf.fraction_slowed()));
}

#[test]
fn makespan_bounds_hold() {
    let trace = fb_trace(11, 30, 100, 0.7);
    let mut cfg = central::SimConfig::default();
    cfg.cluster.machines = 25;
    cfg.cluster.slots_per_machine = 4;
    let out = central::run(&trace, &central::Policy::Srpt, &cfg);
    // Makespan is at least the serial-work lower bound / slots and at
    // least the latest arrival.
    assert!(out.stats.makespan >= trace.makespan_lower_bound());
    let serial_ms = trace.total_work_ms() / cfg.cluster.total_slots() as u64;
    assert!(out.stats.makespan >= SimTime::from_millis(serial_ms / 4));
}

#[test]
fn bushy_dags_run_to_completion_in_both_drivers() {
    // §4.2's "wide and bushy" DAGs: two input branches joining downstream.
    let profile = WorkloadProfile::facebook()
        .interactive()
        .fixed_dag_len(3)
        .with_bushy(1.0);
    let trace = TraceGenerator::new(profile, 15, 21).generate_with_utilization(200, 0.6);
    assert!(trace.jobs.iter().all(|j| j.dag_len() == 4));

    let ccfg = central::SimConfig {
        cluster: ClusterConfig {
            machines: 50,
            slots_per_machine: 4,
            ..Default::default()
        },
        ..Default::default()
    };
    let out = central::run(
        &trace,
        &central::Policy::Hopper(central::HopperConfig::default()),
        &ccfg,
    );
    assert_eq!(out.jobs.len(), trace.len());

    let dcfg = decentral::DecConfig {
        cluster: ClusterConfig {
            machines: 100,
            slots_per_machine: 2,
            handoff_ms: 0,
            ..Default::default()
        },
        seed: 21,
        ..Default::default()
    };
    let dout = decentral::run(&trace, decentral::DecPolicy::Hopper, &dcfg);
    assert_eq!(dout.jobs.len(), trace.len());
}

#[test]
fn weighted_jobs_get_larger_fair_floors() {
    // A weight-3 job must get a visibly larger share than a weight-1 job
    // under tight fairness, all else equal.
    use hopper::core::{allocate, AllocConfig, JobDemand};
    let mut heavy = JobDemand::simple(0, 1000.0, 1.5);
    heavy.weight = 3.0;
    let light = JobDemand::simple(1, 1000.0, 1.5);
    let cfg = AllocConfig { fairness_eps: 0.0 };
    let allocs = allocate(&[heavy, light], 120, &cfg);
    assert_eq!(allocs[0].slots, 90);
    assert_eq!(allocs[1].slots, 30);
}
