//! Experiment layer for the Hopper reproduction.
//!
//! The paper's evaluation is a grid of sweeps — policy × workload ×
//! utilization × probe-ratio × seeds. This crate makes "one scheduler
//! run" a first-class value so the grid is assembled declaratively
//! instead of hand-wired per figure:
//!
//! - [`ExperimentSpec`] — a serializable description of one experiment
//!   cell: workload source, cluster shape, engine + policy, utilization,
//!   seed list. Round-trips through a `key=value` text form, so specs
//!   can live in files; [`KEYS`] declares each key once, and the
//!   `hopper` CLI derives one flag per key from it.
//!   [`ExperimentSpec::central_config`] and
//!   [`ExperimentSpec::decentral_config`] are the one mapping from a
//!   spec to `hopper-central`'s `(Policy, SimConfig)` or
//!   `hopper-decentral`'s `(DecPolicy, DecConfig)`;
//!   [`ExperimentSpec::run_one`] feeds the seed's arrivals to that
//!   engine's `run_source` and returns a boxed
//!   [`RunSummary`](hopper_metrics::RunSummary).
//! - [`sweep()`] — fans a seed × axis grid out over scoped worker threads
//!   and collects a [`SweepTable`] in grid order. Each trial owns its
//!   seed-derived RNGs, so the parallel result is bit-identical to a
//!   serial fold ([`sweep_serial`] exists to pin that in tests).
//! - [`find_frontier`] — bisects a spec's maximum sustainable
//!   utilization (its *stability frontier*) using a streaming
//!   unbounded-queue detector; [`frontier_grid`] fans cells out over
//!   threads with deterministic results.

pub mod spec;
pub mod stability;
pub mod sweep;

pub use spec::{EngineKind, ExperimentSpec, Key, SpecError, KEYS};
pub use stability::{
    find_frontier, frontier_csv, frontier_grid, probe, saturated, FrontierConfig, FrontierResult,
};
pub use sweep::{
    clamp_threads, default_threads, mean_jct, run_seeds, sweep, sweep_serial, sweep_with_threads,
    SweepAxis, SweepTable, Trial,
};
