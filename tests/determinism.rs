//! Determinism regression tests: the `rng_from_seed` / `SeedSequence`
//! contract says a single `u64` seed reproduces an entire experiment
//! bit-for-bit, in both drivers. These tests guard that contract end to
//! end — same seed ⇒ identical `RunStats` / `DecStats` and per-job
//! results; different seeds ⇒ observably different runs.
//!
//! `tests/golden_stats.rs` extends the suite across *versions*: fixed
//! seeds must reproduce the stats captured before the incremental-index
//! refactor, for every policy in both drivers.

mod common;

use common::{central_cfg, decentral_cfg, trace};
use hopper::central;
use hopper::cluster::DynamicsConfig;
use hopper::decentral;

#[test]
fn central_run_is_bit_identical_for_same_seed() {
    let t = trace(5);
    let policy = central::Policy::Hopper(central::HopperConfig::default());
    let a = central::run(&t, &policy, &central_cfg(5, DynamicsConfig::off()));
    let b = central::run(&t, &policy, &central_cfg(5, DynamicsConfig::off()));
    assert_eq!(a.stats, b.stats, "RunStats must be bit-identical");
    assert_eq!(a.jobs, b.jobs, "per-job results must be bit-identical");
}

#[test]
fn central_runs_differ_across_seeds() {
    // Same trace, different simulation seed: the straggler draws differ,
    // so some observable output must differ.
    let t = trace(5);
    let policy = central::Policy::Hopper(central::HopperConfig::default());
    let a = central::run(&t, &policy, &central_cfg(5, DynamicsConfig::off()));
    let b = central::run(&t, &policy, &central_cfg(6, DynamicsConfig::off()));
    assert!(
        a.stats != b.stats || a.jobs != b.jobs,
        "different seeds produced identical central runs"
    );
}

#[test]
fn central_traces_differ_across_workload_seeds() {
    let a = trace(5);
    let b = trace(6);
    assert_ne!(
        a.total_work_ms(),
        b.total_work_ms(),
        "different workload seeds produced identical traces"
    );
}

#[test]
fn decentral_run_is_bit_identical_for_same_seed() {
    let t = trace(7);
    for policy in [decentral::DecPolicy::Sparrow, decentral::DecPolicy::Hopper] {
        let a = decentral::run(&t, policy, &decentral_cfg(7, DynamicsConfig::off()));
        let b = decentral::run(&t, policy, &decentral_cfg(7, DynamicsConfig::off()));
        assert_eq!(
            a.stats,
            b.stats,
            "DecStats must be bit-identical ({})",
            policy.name()
        );
        assert_eq!(
            a.jobs,
            b.jobs,
            "per-job results must be bit-identical ({})",
            policy.name()
        );
    }
}

#[test]
fn decentral_runs_differ_across_seeds() {
    let t = trace(7);
    let a = decentral::run(
        &t,
        decentral::DecPolicy::Hopper,
        &decentral_cfg(7, DynamicsConfig::off()),
    );
    let b = decentral::run(
        &t,
        decentral::DecPolicy::Hopper,
        &decentral_cfg(8, DynamicsConfig::off()),
    );
    assert!(
        a.stats != b.stats || a.jobs != b.jobs,
        "different seeds produced identical decentralized runs"
    );
}
