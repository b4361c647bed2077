//! Decentralized (Sparrow-style) scheduling simulator for the Hopper
//! reproduction.
//!
//! Implements the paper's §5–§6.1: autonomous schedulers placing
//! reservation probes at workers, late binding with per-message network
//! latency, and three worker/scheduler policies — stock Sparrow,
//! Sparrow-SRPT (+ best-effort speculation, the paper's aggressive
//! baseline), and decentralized Hopper with the refusal protocol
//! (Pseudocodes 2 & 3) and piggybacked virtual-size updates.

pub mod audit;
mod book;
pub mod driver;
pub mod faults;
pub mod shard;

pub use driver::{run, run_source, DecConfig, DecOutput, DecPolicy, DecStats};
pub use faults::FaultConfig;
pub use shard::ShardStats;
