//! Workload synthesis for the Hopper reproduction.
//!
//! The paper evaluates on proprietary Facebook-Hadoop and Bing-Dryad traces
//! (Oct–Dec 2012). This crate provides the synthetic equivalent: heavy-tailed
//! distributions ([`dist`]), a trace data model ([`trace`]), published-
//! statistics workload profiles ([`profile`]), and a deterministic generator
//! ([`generator`]) that calibrates Poisson arrivals to a target average
//! cluster utilization (the 60–90% sweep of the paper's Figure 6).
//! Arrivals can be modulated by a non-stationary [`rate::RateProfile`]
//! (diurnal curves, seeded bursts) whose time-average is pinned to 1 so
//! the calibrated target stays honest, and external traces replay from
//! CSV through [`replay`] into the same [`source::ArrivalSource`] seam
//! both engines consume.

pub mod dist;
pub mod generator;
pub mod profile;
pub mod rate;
pub mod replay;
pub mod source;
pub mod trace;

pub use dist::Dist;
pub use generator::{TraceGenerator, TraceStream};
pub use profile::WorkloadProfile;
pub use rate::RateProfile;
pub use replay::{export_replay_csv, parse_replay_csv, ReplayError};
pub use source::ArrivalSource;
pub use trace::{single_phase_job, Trace, TraceJob, TracePhase};
