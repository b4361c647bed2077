//! Shared scaffolding for the paper-reproduction bench targets.
//!
//! Every bench target regenerates one table or figure of the paper. The
//! defaults are sized so the whole suite completes in tens of minutes on a
//! laptop; set `HOPPER_BENCH_JOBS` / `HOPPER_BENCH_SEEDS` to trade
//! precision for time.
//!
//! A figure's cell is an [`ExperimentSpec`] ([`decentral_spec`],
//! [`central_spec`], [`centralized_reference`]). A bench either runs it
//! whole (`hopper_experiment::run_seeds` / `sweep`) or takes the
//! engine configuration from [`ExperimentSpec::central_config`] /
//! [`ExperimentSpec::decentral_config`] and the trace from
//! [`ExperimentSpec::trace`], then changes only the field its figure
//! varies, so every figure that starts from these cells shares the
//! spec's one mapping. This crate builds no `SimConfig` or `DecConfig`
//! itself; CI checks that.

use hopper_experiment::{EngineKind, ExperimentSpec};

/// Number of jobs per experiment run (`HOPPER_BENCH_JOBS`, default 150).
pub fn jobs() -> usize {
    std::env::var("HOPPER_BENCH_JOBS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(150)
}

/// Seeds (repetitions) per data point (`HOPPER_BENCH_SEEDS`, default 2).
pub fn seeds() -> u64 {
    std::env::var("HOPPER_BENCH_SEEDS")
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(2)
}

/// The bench seed list: `0..seeds()`, one trial per seed. The sweep
/// runner fans these out over worker threads.
pub fn seed_list() -> Vec<u64> {
    (0..seeds()).collect()
}

/// Decentralized experiment cell: the paper's deployment shape
/// ([`ExperimentSpec::decentral`]: 300×2 slots with long-lived
/// executors, 10 schedulers, probe ratio 4, refusal threshold 2, ε = 10%,
/// LATE speculation) on an interactive ("in-memory Spark jobs", §7.1)
/// trace, sized by [`jobs`] and [`seed_list`]. Benches take the
/// engine configuration from [`ExperimentSpec::decentral_config`] and
/// the trace from [`ExperimentSpec::trace`].
pub fn decentral_spec(policy: &str, workload: &str, util: f64) -> ExperimentSpec {
    let mut s = ExperimentSpec::decentral();
    s.policy = policy.to_string();
    s.workload = workload.to_string();
    s.interactive = true;
    s.jobs = jobs();
    s.util = util;
    s.seeds = seed_list();
    s
}

/// Centralized experiment cell: the Figure 12/13 cluster (50×4 slots,
/// 800 ms container hand-off) with a task-scale-appropriate scan period
/// and LATE warm-up, on the Facebook profile. β is taken per job from
/// the trace rather than from the global online MLE: the paper's
/// recurring jobs make per-job β learnable from history, and the global
/// estimator's blend across heterogeneous jobs costs a few percent
/// (quantified by the `ablation_guidelines` bench). Benches take the
/// engine configuration from [`ExperimentSpec::central_config`].
pub fn central_spec(policy: &str, interactive: bool, util: f64) -> ExperimentSpec {
    let mut s = ExperimentSpec::central();
    s.policy = policy.to_string();
    s.interactive = interactive;
    s.learn_beta = false;
    s.machines = 50;
    s.slots = 4;
    s.handoff_ms = 800;
    s.scan_ms = Some(if interactive { 200 } else { 500 });
    s.spec_min_elapsed_ms = Some(if interactive { 300 } else { 1000 });
    s.jobs = jobs();
    s.util = util;
    s.seeds = seed_list();
    s
}

/// Flip a decentralized spec into the centralized engine on the *same*
/// cluster, scan period, and speculation warm-up — the
/// centralized-reference point of Figures 5a and 5b (seeds and traces
/// shared with the decentralized cells, so ratios compare like with
/// like).
pub fn centralized_reference(spec: &ExperimentSpec) -> ExperimentSpec {
    let mut s = spec.clone();
    s.engine = EngineKind::Central;
    s.policy = "hopper".to_string();
    s.scan_ms = Some(s.scan_ms.unwrap_or(200));
    s.spec_min_elapsed_ms = Some(s.spec_min_elapsed_ms.unwrap_or(300));
    s
}

/// Paper-style header printed by every bench target.
pub fn banner(figure: &str, what: &str) {
    println!("\n=== {figure} — {what} ===");
    println!(
        "(jobs/run: {}, seeds: {}; override via HOPPER_BENCH_JOBS / HOPPER_BENCH_SEEDS)",
        jobs(),
        seeds()
    );
}
