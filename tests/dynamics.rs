//! Integration tests for the cluster-dynamics plane (machine speed
//! heterogeneity, transient slowdowns, failures).
//!
//! Three invariants, mirroring DESIGN.md "Cluster dynamics":
//!
//! 1. **Neutral-enabled equivalence.** With the dynamics plane *enabled
//!    but degenerate* (every speed 1.0, no incidents), every golden
//!    scenario reproduces `tests/goldens/stats.txt` bit-identically —
//!    the speed-scaled launch path and reschedule-staleness checks must
//!    be exact no-ops at speed 1.0. (Dynamics *off* is covered by the
//!    unchanged `tests/golden_stats.rs`; both suites share the renderer
//!    in `tests/common/mod.rs`, so they cannot drift apart.)
//! 2. **Parallel determinism.** A dynamics-enabled sweep is bit-identical
//!    across 1, 2, and 4 worker threads: each machine's incident stream
//!    lives in its own seed-derived RNG, so trials stay pure functions of
//!    `(spec, seed)`.
//! 3. **The paper's thesis under machine-level stragglers.** Raising the
//!    slow-node fraction degrades every policy monotonically, and the
//!    speculation-coordinating policy (Hopper) degrades *less* than the
//!    speculation-unaware baseline (Sparrow).

mod common;

use hopper::cluster::{DynamicsConfig, HeteroProfile};
use hopper::experiment::{sweep_serial, sweep_with_threads, ExperimentSpec, SweepAxis};

/// A dynamics plane that is enabled (so every speed lookup, launch-time
/// division, and staleness check runs) yet numerically neutral: all base
/// speeds are the degenerate draw 1.0 and both incident rates are zero.
fn neutral_enabled() -> DynamicsConfig {
    let d = DynamicsConfig {
        hetero: HeteroProfile::Uniform { lo: 1.0, hi: 1.0 },
        ..DynamicsConfig::off()
    };
    assert!(d.enabled());
    d
}

/// `hetero` enabled at the degenerate speed-1.0 point must reproduce the
/// pinned goldens bit-for-bit, for every pinned policy of both engines.
#[test]
fn neutral_enabled_dynamics_reproduce_goldens_bit_identically() {
    let actual = common::render_goldens(&neutral_enabled());
    common::assert_matches_goldens(&actual, "under neutral-enabled dynamics");
}

// ---- parallel determinism of a dynamics-enabled sweep ----

fn dynamic_spec(engine_decentral: bool) -> ExperimentSpec {
    let mut s = if engine_decentral {
        let mut s = ExperimentSpec::decentral();
        s.machines = 40;
        s
    } else {
        let mut s = ExperimentSpec::central();
        s.machines = 12;
        s.slots = 4;
        s
    };
    s.jobs = 10;
    s.interactive = true;
    s.single_phase = true;
    s.util = 0.6;
    s.hetero = "bimodal".into();
    s.slow_factor = 0.4;
    s.slowdown_rate = 30.0; // aggressive, so slowdowns actually fire
    s.fail_rate = 10.0; // and so do failures
    s.mttr_ms = 5_000;
    s.seeds = vec![1, 2, 3];
    s
}

/// Sweeping the new `slow_frac` axis with slowdowns *and* failures active
/// is bit-identical across 1, 2, and 4 worker threads.
#[test]
fn dynamics_enabled_sweep_is_identical_across_thread_counts() {
    for engine_decentral in [false, true] {
        let spec = dynamic_spec(engine_decentral);
        let axis = SweepAxis::new("slow_frac", &[0.0, 0.3]);
        let serial = sweep_serial(&spec, &axis).expect("serial sweep");
        for threads in [1, 2, 4] {
            let parallel = sweep_with_threads(&spec, &axis, threads).expect("parallel sweep");
            assert_eq!(
                serial, parallel,
                "dynamics sweep diverged at {threads} threads (decentral={engine_decentral})"
            );
        }
        assert_eq!(serial.trials.len(), 6, "2 axis values × 3 seeds");
    }
}

/// Failures actually fire, requeue work, and every job still completes —
/// on both engines, and under the central priority policies (FIFO, SRPT,
/// budgeted SRPT) with multi-phase DAG jobs, where failure requeues,
/// phase eligibility and straggler scans all feed the driver's ready
/// index and its debug-build shadow check. Re-dispatched originals
/// relaunch, so the original launch counter exceeds the task count; a
/// seed replays bit-identically.
#[test]
fn machine_failures_requeue_work_and_all_jobs_complete() {
    let cases = [
        (false, "hopper", true),
        (true, "hopper", true),
        (false, "fifo", false),
        (false, "srpt", false),
        (false, "budgeted", false),
    ];
    for (engine_decentral, policy, single_phase) in cases {
        let mut spec = dynamic_spec(engine_decentral);
        spec.policy = policy.into();
        spec.single_phase = single_phase;
        spec.slowdown_rate = 0.0;
        spec.fail_rate = 60.0; // ~one failure per machine-minute
        let case = format!("decentral={engine_decentral} {policy}");
        let mut saw_relaunch = false;
        for &seed in &spec.seeds.clone() {
            let t = spec.trace(seed);
            assert!(
                single_phase || t.jobs.iter().any(|j| j.dag_len() > 1),
                "no multi-phase job ({case}, seed {seed})"
            );
            let tasks: u64 = t.jobs.iter().map(|j| j.num_tasks() as u64).sum();
            let out = spec.run_one(seed).expect("run");
            assert_eq!(out.jobs().len(), t.len(), "jobs lost ({case}, seed {seed})");
            if out.report().core.orig_launched > tasks {
                saw_relaunch = true;
            }
            let again = spec.run_one(seed).expect("rerun");
            assert_eq!(out.jobs(), again.jobs(), "{case}, seed {seed}");
            assert_eq!(
                out.report().core,
                again.report().core,
                "{case}, seed {seed}"
            );
        }
        assert!(
            saw_relaunch,
            "no failure ever forced a re-dispatch ({case})"
        );
    }
}

// ---- the thesis: machine-level stragglers, speculation absorbs them ----

fn mean_jct_at(policy: &str, slow_frac: f64) -> f64 {
    let mut s = ExperimentSpec::decentral();
    s.policy = policy.into();
    s.jobs = 40;
    s.machines = 60;
    s.interactive = true;
    s.single_phase = true;
    s.util = 0.7;
    s.hetero = "bimodal".into();
    s.slow_factor = 0.3;
    s.slow_frac = slow_frac;
    s.seeds = vec![1, 2, 3, 4];
    let axis = SweepAxis::new("policy", &[policy]);
    sweep_with_threads(&s, &axis, 2)
        .expect("sweep")
        .mean_for(policy)
}

/// Raising the slow-node fraction degrades the speculation-unaware
/// baseline (Sparrow) monotonically; Hopper, which coordinates
/// speculation with scheduling, degrades strictly less in relative
/// terms. Deterministic: fixed seeds, fixed grid.
#[test]
fn slow_nodes_degrade_sparrow_monotonically_and_hopper_less() {
    let fracs = [0.0, 0.2, 0.4];
    let sparrow: Vec<f64> = fracs.iter().map(|&f| mean_jct_at("sparrow", f)).collect();
    let hopper: Vec<f64> = fracs.iter().map(|&f| mean_jct_at("hopper", f)).collect();
    // Monotone degradation for the speculation-unaware baseline.
    assert!(
        sparrow[0] < sparrow[1] && sparrow[1] < sparrow[2],
        "sparrow not monotone over slow_frac: {sparrow:?}"
    );
    // Hopper also suffers (machine stragglers hit everyone) ...
    assert!(
        hopper[2] > hopper[0],
        "hopper unaffected by slow nodes? {hopper:?}"
    );
    // ... but absorbs them better: smaller relative degradation and a
    // better absolute JCT at the worst point.
    let sparrow_blowup = sparrow[2] / sparrow[0];
    let hopper_blowup = hopper[2] / hopper[0];
    assert!(
        hopper_blowup < sparrow_blowup,
        "hopper blowup {hopper_blowup:.2}x should beat sparrow {sparrow_blowup:.2}x"
    );
    assert!(
        hopper[2] < sparrow[2],
        "hopper {:.0} should beat sparrow {:.0} at slow_frac=0.4",
        hopper[2],
        sparrow[2]
    );
}

/// Transient slowdowns alone (no failures, no static heterogeneity)
/// stretch in-flight work deterministically: two runs are identical, and
/// the run is slower than the undisturbed cluster.
#[test]
fn transient_slowdowns_are_deterministic_and_costly() {
    let mut spec = dynamic_spec(true);
    spec.hetero = "off".into();
    spec.fail_rate = 0.0;
    spec.slowdown_rate = 60.0;
    spec.seeds = vec![7];
    let a = spec.run_one(7).expect("run a");
    let b = spec.run_one(7).expect("run b");
    assert_eq!(a.jobs(), b.jobs());
    assert_eq!(a.report().core, b.report().core);

    let mut calm = spec.clone();
    calm.slowdown_rate = 0.0;
    assert!(!calm.dynamics().enabled());
    let c = calm.run_one(7).expect("calm run");
    assert!(
        a.mean_duration_ms() > c.mean_duration_ms(),
        "slowdowns should cost JCT: {} vs calm {}",
        a.mean_duration_ms(),
        c.mean_duration_ms()
    );
}
