//! Streaming-pipeline equivalence and retirement tests.
//!
//! The streaming pipeline (lazy `TraceStream` arrivals, job retirement,
//! digest-only metrics) must change *memory*, never *results*:
//!
//! - same seed ⇒ identical `CoreStats` and identical digests (the mean
//!   is an exact integer sum, so it matches bit-for-bit) on both
//!   engines;
//! - streaming percentiles come from the ε-approximate sketch and must
//!   sit within ε of the exact order statistics of the materialized run;
//! - retirement keeps the live-job high-water mark a small fraction of
//!   total jobs on a long arrival stream.
//!
//! The million-job scale point runs in release mode (`cargo bench
//! --bench fig_scale`, asserted there and in the CI streaming smoke);
//! these tests pin the same invariants at dev-profile-feasible sizes
//! with every `debug_assert!` oracle live.

use hopper::experiment::{EngineKind, ExperimentSpec};
use hopper::workload::{ArrivalSource, Dist, TraceGenerator, WorkloadProfile};

/// A small spec that exercises DAGs, speculation, and both regimes.
fn spec(kind: EngineKind, policy: &str, jobs: usize) -> ExperimentSpec {
    let mut s = match kind {
        EngineKind::Central => {
            let mut s = ExperimentSpec::central();
            s.machines = 25;
            s.slots = 4;
            s
        }
        EngineKind::Decentral => {
            let mut s = ExperimentSpec::decentral();
            s.machines = 50;
            s
        }
    };
    s.policy = policy.into();
    s.interactive = true;
    s.jobs = jobs;
    s.util = 0.7;
    s
}

/// Exact order statistic at the sketch's rank rule (⌈p·(n−1)⌉).
fn exact_rank_ms(mut durs: Vec<u64>, p: f64) -> f64 {
    durs.sort_unstable();
    let rank = (p * (durs.len() - 1) as f64).ceil() as usize;
    durs[rank] as f64
}

fn assert_stream_matches_materialized(kind: EngineKind, policy: &str, seed: u64) {
    let mut s = spec(kind, policy, 40);
    s.stream = false;
    let mat = s.run_one(seed).unwrap();
    s.stream = true;
    let str = s.run_one(seed).unwrap();
    let ctx = format!("{}/{policy}/seed{seed}", s.engine.as_str());

    // Identical simulation: counters and digests match exactly (the
    // digest's mean is integer math, so "identical mean" is bit-level).
    assert_eq!(
        mat.report().core,
        str.report().core,
        "CoreStats drifted: {ctx}"
    );
    assert_eq!(
        mat.report().digest,
        str.report().digest,
        "digest drifted: {ctx}"
    );
    assert_eq!(
        mat.report().digest.mean_ms().to_bits(),
        str.report().digest.mean_ms().to_bits(),
        "mean drifted: {ctx}"
    );
    assert!(str.jobs().is_empty(), "streaming retained jobs: {ctx}");
    assert_eq!(
        mat.jobs().len() as u64,
        str.report().digest.count(),
        "job count drifted: {ctx}"
    );

    // Sketch percentiles within ε of the exact order statistics.
    let durs: Vec<u64> = mat.jobs().iter().map(|r| r.duration_ms()).collect();
    let eps = str.report().digest.eps();
    for p in [0.1, 0.5, 0.9, 1.0] {
        let exact = exact_rank_ms(durs.clone(), p);
        let approx = str.percentile_duration_ms(p);
        assert!(
            (approx - exact).abs() <= eps * exact + 1e-9,
            "{ctx}: p{p} sketch {approx} vs exact {exact} (ε={eps})"
        );
    }

    // Retirement ran: the high-water mark never reached the whole trace.
    assert!(
        str.report().live_high_water <= mat.jobs().len(),
        "high-water above total: {ctx}"
    );
    assert!(
        str.report().live_high_water >= 1,
        "nothing was ever live: {ctx}"
    );
}

#[test]
fn streaming_equals_materialized_central() {
    for policy in ["hopper", "srpt"] {
        for seed in [5u64, 11] {
            assert_stream_matches_materialized(EngineKind::Central, policy, seed);
        }
    }
}

#[test]
fn streaming_equals_materialized_decentral() {
    for policy in ["hopper", "sparrow", "sparrow-srpt"] {
        for seed in [5u64, 11] {
            assert_stream_matches_materialized(EngineKind::Decentral, policy, seed);
        }
    }
}

#[test]
fn streaming_equals_materialized_under_dynamics() {
    // Machine failures and slowdowns are the paths most likely to touch
    // a retired job (stale in-flight messages, incarnation mismatches):
    // the equivalence must survive them, with the slab's
    // touch-a-retired-job panic live the whole run.
    for kind in [EngineKind::Central, EngineKind::Decentral] {
        let mut s = spec(kind, "hopper", 30);
        s.hetero = "bimodal".into();
        s.slow_frac = 0.25;
        s.slow_factor = 0.4;
        s.slowdown_rate = 20.0;
        s.fail_rate = 10.0;
        s.mttr_ms = 5_000;
        s.stream = false;
        let mat = s.run_one(7).unwrap();
        s.stream = true;
        let str = s.run_one(7).unwrap();
        assert_eq!(mat.report().core, str.report().core, "{:?}", kind);
        assert_eq!(mat.report().digest, str.report().digest, "{:?}", kind);
    }
}

#[test]
fn max_jobs_caps_the_stream_identically_in_both_modes() {
    let mut s = spec(EngineKind::Decentral, "hopper", 60);
    s.max_jobs = Some(20);
    s.stream = false;
    let mat = s.run_one(3).unwrap();
    assert_eq!(mat.jobs().len(), 20);
    s.stream = true;
    let str = s.run_one(3).unwrap();
    assert_eq!(str.report().digest.count(), 20);
    assert_eq!(mat.report().core, str.report().core);
    assert_eq!(mat.report().digest, str.report().digest);
}

/// Long-run retirement: the live-job high-water mark stays a small
/// fraction of total jobs. Small jobs keep the dev-profile run fast
/// while making the stream long relative to the active set — the same
/// shape `fig_scale` pushes to a million jobs in release mode (where
/// the bound asserted is the acceptance criterion's 5%).
#[test]
fn retirement_bounds_live_jobs_on_a_long_run() {
    let mut profile = WorkloadProfile::facebook().interactive().single_phase();
    profile.job_size = Dist::Uniform { lo: 2.0, hi: 6.0 };
    let total = 1_200;
    let stream = TraceGenerator::new(profile, total, 1).stream_with_utilization(200, 0.7);
    let cfg = hopper::decentral::DecConfig {
        cluster: hopper::cluster::ClusterConfig {
            machines: 100,
            slots_per_machine: 2,
            handoff_ms: 0,
            ..Default::default()
        },
        seed: 1,
        ..Default::default()
    };
    let out = hopper::decentral::run_source(
        ArrivalSource::from_stream(stream),
        hopper::decentral::DecPolicy::Hopper,
        &cfg,
        false,
    );
    assert_eq!(
        out.report.digest.count() as usize,
        total,
        "all jobs completed"
    );
    assert!(
        out.report.live_high_water * 10 < total,
        "live-job high-water {} is not ≪ {total} total jobs",
        out.report.live_high_water
    );
}

/// Same bound on the centralized engine's streaming path.
#[test]
fn central_streaming_also_retires() {
    let mut profile = WorkloadProfile::facebook().interactive().single_phase();
    profile.job_size = Dist::Uniform { lo: 2.0, hi: 6.0 };
    let total = 600;
    let stream = TraceGenerator::new(profile, total, 2).stream_with_utilization(100, 0.7);
    let cfg = hopper::central::SimConfig {
        cluster: hopper::cluster::ClusterConfig {
            machines: 25,
            slots_per_machine: 4,
            ..Default::default()
        },
        seed: 2,
        ..Default::default()
    };
    let out = hopper::central::run_source(
        ArrivalSource::from_stream(stream),
        &hopper::central::Policy::Hopper(hopper::central::HopperConfig::default()),
        &cfg,
        false,
    );
    assert_eq!(out.report.digest.count() as usize, total);
    assert!(
        out.report.live_high_water * 5 < total,
        "live-job high-water {} is not ≪ {total} total jobs",
        out.report.live_high_water
    );
}
