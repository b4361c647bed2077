//! Experiment layer for the Hopper reproduction.
//!
//! The paper's evaluation is a grid of sweeps — policy × workload ×
//! utilization × probe-ratio × seeds. This crate makes "one scheduler
//! run" a first-class value so the grid is assembled declaratively
//! instead of hand-wired per figure:
//!
//! - [`Engine`] — one trait over both drivers: anything that can run an
//!   [`ArrivalSource`](hopper_workload::ArrivalSource) and yield a
//!   [`RunSummary`].
//!   [`CentralEngine`] and [`DecentralEngine`] wrap the existing
//!   `hopper-central` / `hopper-decentral` entry points without touching
//!   their concrete `RunStats` / `DecStats` types.
//! - [`ExperimentSpec`] — a serializable description of one experiment
//!   cell: workload source, cluster shape, engine + policy, utilization,
//!   seed list. Round-trips through a `key=value` text form, so specs
//!   can live in files; [`KEYS`] declares each key once, and the
//!   `hopper` CLI derives one flag per key from it.
//! - [`sweep()`] — fans a seed × axis grid out over scoped worker threads
//!   and collects a [`SweepTable`] in grid order. Each trial owns its
//!   seed-derived RNGs, so the parallel result is bit-identical to a
//!   serial fold ([`sweep_serial`] exists to pin that in tests).
//! - [`find_frontier`] — bisects a spec's maximum sustainable
//!   utilization (its *stability frontier*) using a streaming
//!   unbounded-queue detector; [`frontier_grid`] fans cells out over
//!   threads with deterministic results.

pub mod engine;
pub mod spec;
pub mod stability;
pub mod sweep;

pub use engine::{CentralEngine, DecentralEngine, Engine, RunSummary};
pub use spec::{EngineKind, ExperimentSpec, Key, SpecError, KEYS};
pub use stability::{
    find_frontier, frontier_csv, frontier_grid, probe, saturated, FrontierConfig, FrontierResult,
};
pub use sweep::{
    clamp_threads, default_threads, mean_jct, run_seeds, sweep, sweep_serial, sweep_with_threads,
    SweepAxis, SweepTable, Trial,
};
