//! The [`Engine`] abstraction: both drivers behind one `run_source`
//! surface.
//!
//! The centralized and decentralized simulators keep their concrete
//! output types (`RunOutput` / `DecOutput` — the golden tests pin those
//! bit-for-bit); this module unifies *access*, not representation. A
//! [`RunSummary`] exposes what every consumer of either driver actually
//! reads: the per-job [`JobResult`]s, duration aggregates, and the
//! [`RunReport`] both outputs embed (counter core, streaming digest,
//! live high-water, optional telemetry series). The report *is* the
//! unified surface — the former per-field `core()` / `digest()` /
//! `live_high_water()` accessors were deleted in its favor.

use hopper_central::{Policy, RunOutput, SimConfig};
use hopper_decentral::{DecConfig, DecOutput, DecPolicy};
use hopper_metrics::{mean_duration, percentile, JobResult, RunReport};
use hopper_workload::ArrivalSource;

/// Unified read surface over one scheduler run, regardless of driver.
///
/// `Send` is a supertrait so summaries can be produced on sweep worker
/// threads and collected by the caller.
pub trait RunSummary: Send {
    /// Per-job outcomes. Empty for streaming runs, whose per-job
    /// statistics are folded into the report's digest instead.
    fn jobs(&self) -> &[JobResult];

    /// The unified run-output surface: driver-agnostic counter core,
    /// constant-memory duration digest, live-jobs high-water mark, and
    /// — when `telemetry_window_ms > 0` — the windowed time-series.
    fn report(&self) -> &RunReport;

    /// Mean job duration in milliseconds (exact in both modes — the
    /// digest's mean is an integer-millisecond sum).
    fn mean_duration_ms(&self) -> f64 {
        if self.jobs().is_empty() {
            self.report().digest.mean_ms()
        } else {
            mean_duration(self.jobs())
        }
    }

    /// Duration percentile (`p` ∈ [0, 1]) in ms: linear-interpolated
    /// and exact when per-job results are retained, the sketch's
    /// ε-approximate quantile on streaming runs. 0.0 on a run with no
    /// jobs (see `hopper_metrics::percentile`).
    fn percentile_duration_ms(&self, p: f64) -> f64 {
        if self.jobs().is_empty() {
            return self.report().digest.quantile_ms(p);
        }
        let durs: Vec<f64> = self.jobs().iter().map(|r| r.duration_ms() as f64).collect();
        percentile(&durs, p)
    }
}

impl RunSummary for RunOutput {
    fn jobs(&self) -> &[JobResult] {
        &self.jobs
    }

    fn report(&self) -> &RunReport {
        &self.report
    }
}

impl RunSummary for DecOutput {
    fn jobs(&self) -> &[JobResult] {
        &self.jobs
    }

    fn report(&self) -> &RunReport {
        &self.report
    }
}

/// Anything that can run an arrival source and summarize the result.
///
/// `Sync` so a configured engine can be shared by sweep worker threads.
/// Engines must be deterministic functions of their configuration: two
/// runs of the same source must return identical summaries — the sweep
/// runner's parallel-equals-serial guarantee rests on it.
pub trait Engine: Sync {
    /// Display name for tables ("Hopper", "Sparrow-SRPT", …).
    fn name(&self) -> String;

    /// Simulate `source` — a materialized trace, a lazy stream, or a
    /// replayed CSV trace — to completion. `retain_jobs` keeps per-job
    /// results; without it the run retires completed jobs and folds
    /// their results into the report's digest, with O(active jobs) job
    /// state. The scheduling decisions are identical either way.
    fn run_source(&self, source: ArrivalSource<'_>, retain_jobs: bool) -> Box<dyn RunSummary>;
}

/// The centralized driver as an [`Engine`].
#[derive(Debug, Clone)]
pub struct CentralEngine {
    /// Scheduling policy.
    pub policy: Policy,
    /// Simulator configuration (cluster, speculator, scan period, seed).
    pub cfg: SimConfig,
}

impl Engine for CentralEngine {
    fn name(&self) -> String {
        self.policy.name().to_string()
    }

    fn run_source(&self, source: ArrivalSource<'_>, retain_jobs: bool) -> Box<dyn RunSummary> {
        Box::new(hopper_central::run_source(
            source,
            &self.policy,
            &self.cfg,
            retain_jobs,
        ))
    }
}

/// The decentralized (Sparrow-style) driver as an [`Engine`].
#[derive(Debug, Clone)]
pub struct DecentralEngine {
    /// Worker/scheduler policy.
    pub policy: DecPolicy,
    /// Simulator configuration (cluster, probe ratio, refusals, seed).
    pub cfg: DecConfig,
}

impl Engine for DecentralEngine {
    fn name(&self) -> String {
        self.policy.name().to_string()
    }

    fn run_source(&self, source: ArrivalSource<'_>, retain_jobs: bool) -> Box<dyn RunSummary> {
        Box::new(hopper_decentral::run_source(
            source,
            self.policy,
            &self.cfg,
            retain_jobs,
        ))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopper_workload::{Trace, TraceGenerator, WorkloadProfile};

    fn tiny_trace(seed: u64, slots: usize) -> Trace {
        let profile = WorkloadProfile::facebook().interactive();
        TraceGenerator::new(profile, 10, seed).generate_with_utilization(slots, 0.6)
    }

    #[test]
    fn both_engines_run_behind_the_trait() {
        let mut ccfg = SimConfig::default();
        ccfg.cluster.machines = 10;
        ccfg.cluster.slots_per_machine = 4;
        let central = CentralEngine {
            policy: Policy::Srpt,
            cfg: ccfg,
        };
        let dcfg = DecConfig {
            cluster: hopper_cluster::ClusterConfig {
                machines: 20,
                slots_per_machine: 2,
                handoff_ms: 0,
                ..Default::default()
            },
            ..Default::default()
        };
        let decentral = DecentralEngine {
            policy: DecPolicy::Sparrow,
            cfg: dcfg,
        };

        let engines: Vec<Box<dyn Engine>> = vec![Box::new(central), Box::new(decentral)];
        for e in &engines {
            let trace = tiny_trace(5, 40);
            let out = e.run_source(ArrivalSource::from_trace(&trace), true);
            assert_eq!(out.jobs().len(), trace.len(), "{}", e.name());
            assert!(out.mean_duration_ms() > 0.0);
            assert!(out.report().core.events > 0);
            // Telemetry is off by default: the report carries no series.
            assert!(out.report().telemetry.is_none());
            // Percentiles bracket the mean's order of magnitude.
            assert!(out.percentile_duration_ms(0.0) <= out.percentile_duration_ms(1.0));
        }
    }

    #[test]
    fn summary_report_matches_driver_stats() {
        let trace = tiny_trace(9, 40);
        let mut cfg = SimConfig::default();
        cfg.cluster.machines = 10;
        cfg.cluster.slots_per_machine = 4;
        let raw = hopper_central::run(&trace, &Policy::Srpt, &cfg);
        let core = &RunSummary::report(&raw).core;
        assert_eq!(core.events, raw.stats.events);
        assert_eq!(core.spec_launched, raw.stats.spec_launched);
        assert_eq!(core.makespan, raw.stats.makespan);
        assert_eq!(core.messages, 0, "central driver has no network");
        assert_eq!(raw.report.digest.count() as usize, trace.len());
    }
}
