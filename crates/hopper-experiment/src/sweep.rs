//! Deterministic parallel sweep runner.
//!
//! [`sweep`] expands an [`ExperimentSpec`] along one axis (any spec key)
//! into a seed × axis-value grid and runs every trial, fanning out over
//! `std::thread::scope` worker threads — the first use of more than one
//! core in this repository.
//!
//! **Parallel-determinism invariant.** Every trial is a pure function of
//! `(spec variant, seed)`: the trace generator and both drivers derive
//! all of their RNG streams from the trial's own seed, and no state is
//! shared between trials. Workers claim grid indices from an atomic
//! counter and write results into the trial's own slot, so the collected
//! [`SweepTable`] is in grid order (axis-major, seeds inner) regardless
//! of thread count or completion interleaving — bit-identical to the
//! serial fold [`sweep_serial`] runs. A test in `tests/experiment.rs`
//! pins this for both engines.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;

use hopper_metrics::{percentile, JobResult, RunReport, RunSummary, Table};

use crate::spec::{ExperimentSpec, SpecError};

/// One sweep dimension: a spec key and the values it takes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SweepAxis {
    /// Spec key to vary (`util`, `probe_ratio`, `policy`, …).
    pub key: String,
    /// Values, in grid order, in their `key=value` spelling.
    pub values: Vec<String>,
}

impl SweepAxis {
    /// Axis from any displayable values (`SweepAxis::new("util", &[0.6, 0.8])`).
    pub fn new<T: ToString>(key: &str, values: &[T]) -> Self {
        SweepAxis {
            key: key.to_string(),
            values: values.iter().map(|v| v.to_string()).collect(),
        }
    }

    /// Parse the CLI spelling `key=v1,v2,...`.
    pub fn parse(s: &str) -> Result<Self, SpecError> {
        let Some((key, values)) = s.split_once('=') else {
            return Err(SpecError(format!("axis must be key=v1,v2,..., got `{s}`")));
        };
        let values: Vec<String> = values
            .split(',')
            .map(|v| v.trim().to_string())
            .filter(|v| !v.is_empty())
            .collect();
        if values.is_empty() {
            return Err(SpecError(format!("axis `{key}` has no values")));
        }
        Ok(SweepAxis {
            key: key.trim().to_string(),
            values,
        })
    }
}

/// Outcome of one (axis value, seed) trial, flattened off the driver's
/// summary so it can cross threads and be compared bit-for-bit.
#[derive(Debug, Clone, PartialEq)]
pub struct Trial {
    /// The axis value this trial ran under (the policy name for
    /// [`run_seeds`], which has no axis).
    pub axis_value: String,
    /// The trial's seed.
    pub seed: u64,
    /// Per-job outcomes (empty for `stream=on` trials — the report's
    /// digest is then the only per-job record).
    pub jobs: Vec<JobResult>,
    /// The unified run-output surface: counters, duration digest, live
    /// high-water, and — when `telemetry_window_ms > 0` — the windowed
    /// time-series (see `--series-dir`).
    pub report: RunReport,
}

impl RunSummary for Trial {
    fn jobs(&self) -> &[JobResult] {
        &self.jobs
    }

    fn report(&self) -> &RunReport {
        &self.report
    }
}

/// Results of a sweep, in grid order (axis-major, seeds inner).
#[derive(Debug, Clone, PartialEq)]
pub struct SweepTable {
    /// The swept key.
    pub axis_key: String,
    /// One entry per (axis value, seed), grid order.
    pub trials: Vec<Trial>,
}

impl SweepTable {
    /// Axis values in grid order (deduplicated, order-preserving).
    pub fn axis_values(&self) -> Vec<String> {
        let mut out: Vec<String> = Vec::new();
        for t in &self.trials {
            if out.last() != Some(&t.axis_value) {
                out.push(t.axis_value.clone());
            }
        }
        out
    }

    /// Trials under one axis value.
    pub fn trials_for(&self, value: &str) -> Vec<&Trial> {
        self.trials
            .iter()
            .filter(|t| t.axis_value == value)
            .collect()
    }

    /// Mean JCT (ms) for an axis value: [`mean_jct`] over the value's
    /// trials — the aggregation every figure bench uses.
    pub fn mean_for(&self, value: &str) -> f64 {
        mean_jct(self.trials_for(value))
    }

    /// Duration percentile (ms) for an axis value, pooled over every
    /// job of every seed's trial. Streaming trials (no retained jobs)
    /// pool through digest merges instead — exact pooling of the
    /// sketches, ε-approximate quantile out.
    pub fn percentile_for(&self, value: &str, p: f64) -> f64 {
        let trials = self.trials_for(value);
        if trials.iter().all(|t| t.jobs.is_empty()) {
            let mut pooled = hopper_metrics::JobDigest::new();
            for t in &trials {
                pooled.merge(&t.report.digest);
            }
            return pooled.quantile_ms(p);
        }
        let durs: Vec<f64> = trials
            .iter()
            .flat_map(|t| t.jobs.iter().map(|r| r.duration_ms() as f64))
            .collect();
        percentile(&durs, p)
    }

    /// Render one row per axis value (seed-aggregated) as an ASCII table.
    pub fn to_table(&self, title: &str) -> Table {
        let mut t = Table::new(
            title,
            &[
                self.axis_key.as_str(),
                "seeds",
                "mean JCT (ms)",
                "p50 (ms)",
                "p90 (ms)",
                "spec won/launched",
                "events",
                "messages",
            ],
        );
        for value in self.axis_values() {
            let trials = self.trials_for(&value);
            let (mut won, mut launched, mut events, mut messages) = (0u64, 0u64, 0u64, 0u64);
            for tr in &trials {
                won += tr.report.core.spec_won;
                launched += tr.report.core.spec_launched;
                events += tr.report.core.events;
                messages += tr.report.core.messages;
            }
            t.row(&[
                value.clone(),
                trials.len().to_string(),
                format!("{:.0}", self.mean_for(&value)),
                format!("{:.0}", self.percentile_for(&value, 0.5)),
                format!("{:.0}", self.percentile_for(&value, 0.9)),
                format!("{won}/{launched}"),
                events.to_string(),
                messages.to_string(),
            ]);
        }
        t
    }

    /// Per-trial CSV (one row per axis value × seed) for external
    /// plotting, same dialect as `hopper_metrics::export`.
    pub fn to_csv(&self) -> String {
        let mut out = format!(
            "{},seed,jobs,mean_jct_ms,p50_ms,p90_ms,orig_launched,spec_launched,spec_won,events,messages,makespan_ms\n",
            self.axis_key
        );
        for t in &self.trials {
            out.push_str(&format!(
                "{},{},{},{:.3},{:.3},{:.3},{},{},{},{},{},{}\n",
                t.axis_value,
                t.seed,
                t.report.digest.count(),
                t.mean_duration_ms(),
                t.percentile_duration_ms(0.5),
                t.percentile_duration_ms(0.9),
                t.report.core.orig_launched,
                t.report.core.spec_launched,
                t.report.core.spec_won,
                t.report.core.events,
                t.report.core.messages,
                t.report.core.makespan.as_millis(),
            ));
        }
        out
    }
}

/// Expand `spec` × `axis` into the trial grid (axis-major, seeds inner),
/// validating every variant up front so workers cannot fail mid-flight.
fn grid(
    spec: &ExperimentSpec,
    axis: &SweepAxis,
) -> Result<Vec<(ExperimentSpec, String, u64)>, SpecError> {
    if axis.key == "seeds" {
        return Err(SpecError(
            "`seeds` is the implicit inner grid dimension; sweep a different key".into(),
        ));
    }
    if axis.key == "engine" {
        // `set("engine", ..)` flips only the enum — engine-specific
        // *defaults* (schedulers, handoff, cluster shape) are chosen by
        // the spec constructors / `parse`, so an engine axis would run
        // the second engine with the first engine's field values and
        // compare unlike with unlike. Run one sweep per engine instead.
        return Err(SpecError(
            "`engine` cannot be a sweep axis (each engine has its own defaults); \
             run one sweep per engine"
                .into(),
        ));
    }
    if axis.key == "telemetry_window_ms" {
        // The telemetry window is an observation knob with no effect on
        // simulation results (the observer invariant) — every axis value
        // would produce identical rows. Set it on the spec instead.
        return Err(SpecError(
            "`telemetry_window_ms` cannot be a sweep axis: it only changes what is \
             observed, never the simulation — every value would produce identical \
             rows. Set telemetry_window_ms= on the spec instead"
                .into(),
        ));
    }
    if axis.values.is_empty() {
        return Err(SpecError(format!("axis `{}` has no values", axis.key)));
    }
    let mut cells = Vec::new();
    for value in &axis.values {
        let mut variant = spec.clone();
        variant
            .set(&axis.key, value)
            .map_err(|e| SpecError(format!("axis {}={value}: {}", axis.key, e.0)))?;
        variant.validate()?;
        for &seed in &variant.seeds {
            cells.push((variant.clone(), value.clone(), seed));
        }
    }
    Ok(cells)
}

/// Run a pre-validated trial grid over `threads` scoped workers,
/// collecting results in grid order.
fn run_cells(cells: Vec<(ExperimentSpec, String, u64)>, threads: usize) -> Vec<Trial> {
    fan_out(&cells, threads, |(spec, value, seed)| {
        let summary = spec
            .run_one(*seed)
            .expect("grid variants are validated before workers start");
        Trial {
            axis_value: value.clone(),
            seed: *seed,
            jobs: summary.jobs().to_vec(),
            report: summary.report().clone(),
        }
    })
}

/// `f` applied to every item over `threads` scoped workers (at least
/// one, at most one per item). Workers claim items by index, and the
/// results come back in item order, so they are identical at every
/// thread count.
pub(crate) fn fan_out<T: Sync, R: Send>(
    items: &[T],
    threads: usize,
    f: impl Fn(&T) -> R + Sync,
) -> Vec<R> {
    let threads = threads.max(1).min(items.len().max(1));
    let next = AtomicUsize::new(0);
    let slots: Vec<Mutex<Option<R>>> = items.iter().map(|_| Mutex::new(None)).collect();
    std::thread::scope(|s| {
        for _ in 0..threads {
            s.spawn(|| loop {
                let i = next.fetch_add(1, Ordering::Relaxed);
                let Some(item) = items.get(i) else {
                    break;
                };
                *slots[i].lock().expect("no worker panics holding a slot") = Some(f(item));
            });
        }
    });
    slots
        .into_iter()
        .map(|m| {
            m.into_inner()
                .expect("no worker panics holding a slot")
                .expect("every index was claimed by a worker")
        })
        .collect()
}

/// Default worker count: the host's available parallelism.
pub fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Clamp a sweep's worker count so `workers × shards-per-trial` does not
/// oversubscribe `parallelism` hardware threads: a `shards=N` spec runs
/// every trial on `N` engine threads of its own, so the sweep pool must
/// shrink accordingly. Pure so the arithmetic is testable on any host;
/// always at least 1 (a single trial may legitimately want more shards
/// than the host has cores — it just won't also run trials in parallel).
pub fn clamp_threads(requested: usize, shards: usize, parallelism: usize) -> usize {
    let per_trial = shards.max(1);
    requested.max(1).min((parallelism / per_trial).max(1))
}

/// Parallel sweep with the default worker count. See the module docs
/// for the determinism invariant.
pub fn sweep(spec: &ExperimentSpec, axis: &SweepAxis) -> Result<SweepTable, SpecError> {
    sweep_with_threads(spec, axis, default_threads())
}

/// Parallel sweep with an explicit worker count (1 = sequential worker,
/// still through the same claiming loop). The count is clamped by
/// [`clamp_threads`] when the spec runs sharded trials — results are
/// bit-identical at any worker count, so clamping only changes pacing.
pub fn sweep_with_threads(
    spec: &ExperimentSpec,
    axis: &SweepAxis,
    threads: usize,
) -> Result<SweepTable, SpecError> {
    let cells = grid(spec, axis)?;
    let threads = clamp_threads(threads, spec.shards, default_threads());
    Ok(SweepTable {
        axis_key: axis.key.clone(),
        trials: run_cells(cells, threads),
    })
}

/// Serial reference implementation: a plain fold over the same grid, no
/// threads, no atomics. Exists so tests can pin that the parallel path
/// is bit-identical; not the fast path.
pub fn sweep_serial(spec: &ExperimentSpec, axis: &SweepAxis) -> Result<SweepTable, SpecError> {
    let cells = grid(spec, axis)?;
    let mut trials = Vec::with_capacity(cells.len());
    for (variant, value, seed) in cells {
        let summary = variant.run_one(seed)?;
        trials.push(Trial {
            axis_value: value,
            seed,
            jobs: summary.jobs().to_vec(),
            report: summary.report().clone(),
        });
    }
    Ok(SweepTable {
        axis_key: axis.key.clone(),
        trials,
    })
}

/// The seed-aggregation rule every figure bench and
/// [`SweepTable::mean_for`] share: per-trial mean JCTs (ms) averaged
/// across trials. 0.0 on empty input.
pub fn mean_jct<'a, I: IntoIterator<Item = &'a Trial>>(trials: I) -> f64 {
    let means: Vec<f64> = trials.into_iter().map(|t| t.mean_duration_ms()).collect();
    hopper_metrics::mean(&means)
}

/// Run a spec's seed list in parallel with no axis — the repeated-trial
/// primitive figure benches use for their reference points. Trials are
/// labelled with the spec's policy name.
pub fn run_seeds(spec: &ExperimentSpec) -> Result<Vec<Trial>, SpecError> {
    spec.validate()?;
    let cells: Vec<(ExperimentSpec, String, u64)> = spec
        .seeds
        .iter()
        .map(|&seed| (spec.clone(), spec.policy.clone(), seed))
        .collect();
    let threads = clamp_threads(default_threads(), spec.shards, default_threads());
    Ok(run_cells(cells, threads))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny_decentral() -> ExperimentSpec {
        let mut s = ExperimentSpec::decentral();
        s.jobs = 8;
        s.machines = 30;
        s.util = 0.6;
        s.seeds = vec![1, 2];
        s
    }

    #[test]
    fn clamp_threads_keeps_workers_times_shards_within_parallelism() {
        // Serial specs (shards=0) are untouched.
        assert_eq!(clamp_threads(8, 0, 8), 8);
        assert_eq!(clamp_threads(8, 1, 8), 8);
        // Each trial runs `shards` engine threads: the pool shrinks so
        // the product stays within the host budget.
        assert_eq!(clamp_threads(8, 4, 8), 2);
        assert_eq!(clamp_threads(8, 3, 8), 2);
        // A single trial may exceed the budget on its own; the sweep
        // then degrades to one trial at a time, never zero workers.
        assert_eq!(clamp_threads(8, 16, 8), 1);
        assert_eq!(clamp_threads(0, 1, 8), 1);
        assert_eq!(clamp_threads(4, 2, 1), 1);
        for shards in [0usize, 1, 2, 5, 9] {
            for avail in [1usize, 2, 8] {
                let got = clamp_threads(8, shards, avail);
                assert!(got >= 1);
                assert!(got == 1 || got * shards.max(1) <= avail);
            }
        }
    }

    #[test]
    fn sharded_sweep_matches_serial_reference() {
        let mut spec = tiny_decentral();
        spec.shards = 2;
        let axis = SweepAxis::new("policy", &["sparrow", "hopper"]);
        // The parallel path (clamped workers, each trial on 2 engine
        // threads) must be bit-identical to the serial fold.
        let par = sweep_with_threads(&spec, &axis, 4).unwrap();
        let ser = sweep_serial(&spec, &axis).unwrap();
        assert_eq!(par.trials.len(), ser.trials.len());
        for (p, s) in par.trials.iter().zip(&ser.trials) {
            assert_eq!(p.axis_value, s.axis_value);
            assert_eq!(p.seed, s.seed);
            assert_eq!(p.report.core, s.report.core);
            assert_eq!(p.jobs, s.jobs);
        }
    }

    #[test]
    fn axis_parse_and_new_agree() {
        let a = SweepAxis::parse("util=0.6, 0.8").unwrap();
        let b = SweepAxis::new("util", &[0.6, 0.8]);
        assert_eq!(a, b);
        assert!(SweepAxis::parse("util").is_err());
        assert!(SweepAxis::parse("util=").is_err());
    }

    #[test]
    fn grid_is_axis_major_seeds_inner() {
        let spec = tiny_decentral();
        let axis = SweepAxis::new("util", &[0.6, 0.7]);
        let cells = grid(&spec, &axis).unwrap();
        let shape: Vec<(String, u64)> = cells.iter().map(|(_, v, s)| (v.clone(), *s)).collect();
        assert_eq!(
            shape,
            vec![
                ("0.6".into(), 1),
                ("0.6".into(), 2),
                ("0.7".into(), 1),
                ("0.7".into(), 2)
            ]
        );
    }

    #[test]
    fn seeds_axis_is_rejected() {
        let spec = tiny_decentral();
        let axis = SweepAxis::new("seeds", &[1, 2]);
        assert!(grid(&spec, &axis).is_err());
    }

    #[test]
    fn telemetry_window_axis_is_rejected() {
        // Observer invariant: every axis value runs the same simulation,
        // so a telemetry_window_ms sweep is rejected rather than run.
        let spec = tiny_decentral();
        let axis = SweepAxis::new("telemetry_window_ms", &[0u64, 1000]);
        let e = grid(&spec, &axis).unwrap_err();
        assert!(e.0.contains("telemetry_window_ms"), "{e}");
        assert!(e.0.contains("observed"), "{e}");
    }

    #[test]
    fn engine_axis_is_rejected() {
        // set("engine") flips only the enum, not the engine's default
        // field-set — an engine axis would compare unlike with unlike.
        let spec = tiny_decentral();
        let axis = SweepAxis::new("engine", &["central", "decentral"]);
        let e = grid(&spec, &axis).unwrap_err();
        assert!(e.0.contains("one sweep per engine"), "{e}");
    }

    #[test]
    fn mean_jct_is_the_shared_aggregation() {
        let spec = tiny_decentral();
        let axis = SweepAxis::new("policy", &["hopper"]);
        let table = sweep_with_threads(&spec, &axis, 2).unwrap();
        assert_eq!(table.mean_for("hopper"), mean_jct(&table.trials));
        assert_eq!(mean_jct(&[]), 0.0);
    }

    #[test]
    fn invalid_axis_value_fails_before_running() {
        let spec = tiny_decentral();
        let axis = SweepAxis::new("policy", &["sparrow", "fifo"]);
        let e = sweep_with_threads(&spec, &axis, 2).unwrap_err();
        assert!(e.0.contains("sparrow|sparrow-srpt|hopper"), "{e}");
    }

    #[test]
    fn sweep_runs_and_orders_results() {
        let spec = tiny_decentral();
        let axis = SweepAxis::new("policy", &["sparrow", "hopper"]);
        let table = sweep_with_threads(&spec, &axis, 3).unwrap();
        assert_eq!(table.trials.len(), 4);
        assert_eq!(table.axis_values(), vec!["sparrow", "hopper"]);
        assert_eq!(table.trials_for("sparrow").len(), 2);
        assert!(table.mean_for("sparrow") > 0.0);
        // CSV has a header plus one row per trial.
        assert_eq!(table.to_csv().lines().count(), 5);
        // The ASCII table has one row per axis value.
        assert_eq!(table.to_table("t").len(), 2);
    }

    #[test]
    fn run_seeds_matches_run_one() {
        let spec = tiny_decentral();
        let trials = run_seeds(&spec).unwrap();
        assert_eq!(trials.len(), 2);
        let direct = spec.run_one(1).unwrap();
        assert_eq!(trials[0].jobs, direct.jobs());
        assert_eq!(trials[0].report.core, direct.report().core);
        assert_eq!(trials[0].axis_value, "hopper");
    }
}
