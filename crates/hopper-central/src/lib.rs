//! Centralized scheduling simulator for the Hopper reproduction.
//!
//! Implements the paper's centralized prototypes (§6.2) and baselines
//! (§3, §7.4) over the shared cluster substrate: FIFO, Fair, SRPT,
//! budgeted-speculation SRPT, and centralized Hopper (virtual-size
//! allocation with slot-holding, ε-fairness, DAG α-weighting, online β/α
//! learning, and the k% locality relaxation).
//!
//! The entry point is [`run`]; see [`scenario`] for canned setups,
//! including the §3 motivating example that Figures 1–2 and Table 1 are
//! built on.

pub mod driver;
pub mod policy;
mod rows;
pub mod scenario;

pub use driver::{run, run_source, RunOutput, RunStats, SimConfig};
pub use hopper_cluster::PrewarmCounters;
pub use policy::{HopperConfig, Policy};
pub use rows::RowCounters;
