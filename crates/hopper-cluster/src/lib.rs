//! Cluster substrate for the Hopper reproduction.
//!
//! The paper's prototypes run inside Hadoop/Spark/Sparrow on a 200-node
//! cluster; this crate is the simulated equivalent: machines with slots
//! ([`machine`]), and jobs whose tasks execute as racing copies with
//! heavy-tailed durations, data locality, DAG phases, and shuffle transfer
//! ([`job`]). Both the centralized (`hopper-central`) and decentralized
//! (`hopper-decentral`) drivers share these execution semantics, so policy
//! comparisons are apples-to-apples.

pub mod dynamics;
mod flat;
pub mod ids;
pub mod job;
pub mod machine;
pub mod slab;

pub use dynamics::{
    exp_incident_delay_ms, uniform_duration_ms, DynEvent, DynOutcome, DynamicsConfig,
    HeteroProfile, MachineDynamics,
};
pub use ids::{CopyRef, MachineId, TaskRef};
pub use job::{
    duration_at_speed, rescaled_finish, Copy, CopyLoss, CopyObservation, CopyStatus, FailOutcome,
    FinishOutcome, JobRun, PhaseRun, TaskRun, MAX_RUNNING_COPIES,
};
pub use machine::{ClusterConfig, Machines, PrewarmCounters, SlotTemp};
pub use slab::JobSlab;
