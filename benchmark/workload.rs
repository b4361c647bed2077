//! The named workloads: their specs, the timed set-up, and the call into
//! the engine.
//!
//! Set-up builds the concrete `SimConfig`/`DecConfig` instead of going
//! through `ExperimentSpec::engine`, because the boxed `RunSummary` that
//! path returns hides the per-layer counters (`RunOutput::stats`,
//! `alloc_counters`, `DecOutput::shard`). [`build_config`] is therefore a
//! second copy of that mapping; the drift test in `main.rs` pins it to
//! `ExperimentSpec::run_one`.

use std::sync::Arc;

use hopper_central::{HopperConfig, Policy, RunOutput, SimConfig};
use hopper_cluster::ClusterConfig;
use hopper_core::AllocConfig;
use hopper_decentral::{DecConfig, DecOutput, DecPolicy};
use hopper_experiment::{EngineKind, ExperimentSpec, SpecError};
use hopper_metrics::{JobResult, RunReport};
use hopper_sim::SimTime;
use hopper_spec::{SpecConfig, Speculator};
use hopper_workload::{ArrivalSource, Trace};

use crate::spans::Spans;

/// Workload name and spec text. Why each one exists is written at the
/// top of its spec file.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "central-hopper",
        include_str!("workloads/central-hopper.spec"),
    ),
    ("central-srpt", include_str!("workloads/central-srpt.spec")),
    (
        "decentral-hopper",
        include_str!("workloads/decentral-hopper.spec"),
    ),
    (
        "sharded-storm",
        include_str!("workloads/sharded-storm.spec"),
    ),
];

/// The spec text of a named workload.
pub fn spec_text(name: &str) -> Option<&'static str> {
    WORKLOADS.iter().find(|(n, _)| *n == name).map(|(_, t)| *t)
}

/// How much of a workload to run: the spec's jobs and machines divided
/// by these factors (at least one of each is kept).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Size {
    pub jobs_divisor: usize,
    pub machines_divisor: usize,
}

impl Size {
    /// The spec as written.
    pub const FULL: Size = Size {
        jobs_divisor: 1,
        machines_divisor: 1,
    };
    /// A fiftieth of the jobs and machines: `--smoke` and the tests.
    pub const SMOKE: Size = Size {
        jobs_divisor: 50,
        machines_divisor: 50,
    };

    /// A tenth of the jobs on the same cluster: the untimed warm-up.
    pub fn warm_up(self) -> Size {
        Size {
            jobs_divisor: self.jobs_divisor * 10,
            ..self
        }
    }

    fn apply(self, spec: &mut ExperimentSpec) {
        spec.jobs = (spec.jobs / self.jobs_divisor).max(1);
        spec.machines = (spec.machines / self.machines_divisor).max(1);
    }
}

/// A concrete engine configuration.
#[derive(Debug, Clone)]
pub enum Config {
    Central(Policy, SimConfig),
    Decentral(DecPolicy, DecConfig),
}

impl Config {
    /// The same configuration at another shard count (decentralized only).
    pub fn with_shards(&self, shards: usize) -> Config {
        let mut c = self.clone();
        if let Config::Decentral(_, cfg) = &mut c {
            cfg.shards = shards;
        }
        c
    }

    /// The same configuration with telemetry switched off.
    pub fn without_telemetry(&self) -> Config {
        let mut c = self.clone();
        match &mut c {
            Config::Central(_, cfg) => cfg.telemetry_window_ms = 0,
            Config::Decentral(_, cfg) => cfg.telemetry_window_ms = 0,
        }
        c
    }

    /// The cluster shape the engine simulates.
    pub fn cluster(&self) -> &ClusterConfig {
        match self {
            Config::Central(_, cfg) => &cfg.cluster,
            Config::Decentral(_, cfg) => &cfg.cluster,
        }
    }

    /// Threads one run uses.
    pub fn threads(&self) -> usize {
        match self {
            Config::Decentral(_, cfg) => cfg.shards.max(1),
            Config::Central(..) => 1,
        }
    }
}

/// The engine configuration `spec` describes for `seed` — the same
/// mapping as `ExperimentSpec::engine`, for the policies the workloads
/// use (central `hopper`/`srpt`, decentral `hopper`) and no others, so
/// that the drift test covers all of it.
pub fn build_config(spec: &ExperimentSpec, seed: u64) -> Result<Config, SpecError> {
    spec.validate()?;
    let unmapped = || {
        SpecError(format!(
            "the benchmark maps only central hopper/srpt and decentral hopper, not {} {}",
            spec.engine.as_str(),
            spec.policy
        ))
    };
    let cluster = ClusterConfig {
        machines: spec.machines,
        slots_per_machine: spec.slots,
        handoff_ms: spec.handoff_ms,
        ..Default::default()
    };
    let speculator = spec.spec_min_elapsed_ms.map(|ms| {
        Speculator::Late(SpecConfig {
            min_elapsed: SimTime::from_millis(ms),
            ..Default::default()
        })
    });
    Ok(match spec.engine {
        EngineKind::Central => {
            let policy = match spec.policy.as_str() {
                "srpt" => Policy::Srpt,
                "hopper" => Policy::Hopper(HopperConfig {
                    alloc: AllocConfig {
                        fairness_eps: spec.eps,
                        ..Default::default()
                    },
                    learn_beta: spec.learn_beta,
                    realloc_drift: spec.realloc_drift,
                    ..Default::default()
                }),
                _ => return Err(unmapped()),
            };
            let mut cfg = SimConfig {
                cluster,
                dynamics: spec.dynamics(),
                seed,
                telemetry_window_ms: spec.telemetry_window_ms,
                ..Default::default()
            };
            if let Some(ms) = spec.scan_ms {
                cfg.scan_interval = SimTime::from_millis(ms);
            }
            if let Some(s) = speculator {
                cfg.speculator = s;
            }
            Config::Central(policy, cfg)
        }
        EngineKind::Decentral => {
            if spec.policy != "hopper" {
                return Err(unmapped());
            }
            let policy = DecPolicy::Hopper;
            let mut cfg = DecConfig {
                cluster,
                num_schedulers: spec.schedulers,
                probe_ratio: spec.probe_ratio,
                refusal_threshold: spec.refusals,
                fairness_eps: Some(spec.eps),
                dynamics: spec.dynamics(),
                faults: spec.faults(),
                shards: spec.shards,
                seed,
                telemetry_window_ms: spec.telemetry_window_ms,
                ..Default::default()
            };
            if let Some(ms) = spec.scan_ms {
                cfg.scan_interval = SimTime::from_millis(ms);
            }
            if let Some(s) = speculator {
                cfg.speculator = s;
            }
            Config::Decentral(policy, cfg)
        }
    })
}

/// Everything set-up produces, and what each step took.
pub struct Setup {
    pub trace: Arc<Trace>,
    pub config: Config,
    /// Tasks over all phases of all jobs in the trace.
    pub tasks: u64,
    /// Spec parse + validate + config build, seconds.
    pub build_s: f64,
    /// Trace materialization (with the calibration pre-pass), seconds.
    pub gen_s: f64,
}

/// Parse and validate `text` at `size`. `max_shards` caps the spec's
/// shard count at the host's cores; the sharded engine's results are
/// identical at every shard count, so the cap changes only timing.
pub fn spec(text: &str, size: Size, max_shards: usize) -> Result<ExperimentSpec, SpecError> {
    let mut spec = ExperimentSpec::parse(text)?;
    size.apply(&mut spec);
    spec.shards = spec.shards.min(max_shards.max(1));
    Ok(spec)
}

/// [`spec`], then materialize the trace for `seed` and build the engine
/// configuration, recording one span per step.
pub fn setup(
    text: &str,
    seed: u64,
    size: Size,
    max_shards: usize,
    spans: &mut Spans,
) -> Result<Setup, SpecError> {
    let (spec, spec_s) = spans.scope("setup.spec", |_| spec(text, size, max_shards));
    let spec = spec?;
    let (trace, gen_s) = spans.scope("setup.trace", |_| Arc::new(spec.trace(seed)));
    let (config, config_s) = spans.scope("setup.config", |_| build_config(&spec, seed));
    let tasks = trace.jobs.iter().map(|j| j.num_tasks() as u64).sum();
    Ok(Setup {
        config: config?,
        trace,
        tasks,
        build_s: spec_s + config_s,
        gen_s,
    })
}

/// One engine run's output.
pub enum Output {
    Central(RunOutput),
    Decentral(DecOutput),
}

impl Output {
    pub fn report(&self) -> &RunReport {
        match self {
            Output::Central(o) => &o.report,
            Output::Decentral(o) => &o.report,
        }
    }

    /// Per-job results, sorted by job id.
    pub fn jobs(&self) -> &[JobResult] {
        match self {
            Output::Central(o) => &o.jobs,
            Output::Decentral(o) => &o.jobs,
        }
    }
}

/// Simulate `trace`, reading arrivals from the shared, already
/// materialized trace so that arrival generation stays out of the timed
/// call. Completed jobs retire their state as on the streaming path;
/// `retain_jobs` keeps only each job's small `JobResult`, so that JCT
/// percentiles are exact instead of the digest's 1%-wide sketch bins.
pub fn run(config: &Config, trace: &Arc<Trace>) -> Output {
    let source = ArrivalSource::from_shared(Arc::clone(trace));
    match config {
        Config::Central(policy, cfg) => {
            Output::Central(hopper_central::run_source(source, policy, cfg, true))
        }
        Config::Decentral(policy, cfg) => {
            Output::Decentral(hopper_decentral::run_source(source, *policy, cfg, true))
        }
    }
}
