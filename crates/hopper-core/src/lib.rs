//! # hopper-core — speculation-aware scheduling, sans I/O
//!
//! This crate is the paper's primary contribution ("Hopper: Decentralized
//! Speculation-aware Cluster Scheduling at Scale", Ren et al., SIGCOMM
//! 2015) expressed as pure decision logic:
//!
//! - [`vsize`] — virtual job sizes `V = max(2/β,1)·T·√α` and the
//!   Guideline-2 priority key (paper §4.1–4.2);
//! - [`allocate()`] — the two-regime slot allocator (Pseudocode 1) with
//!   ε-fairness (§4.3);
//! - [`incremental`] — the same allocation maintained incrementally
//!   (sorted Guideline-2 order, an exhaustion-point fill) for per-event
//!   use, with [`threshold`] naming the sizes a shared-β move can change;
//! - [`estimate`] — online β (Pareto MLE) and α (recurring-job history)
//!   estimation (§5.3, §6.3);
//! - [`protocol`] — the decentralized worker/scheduler decision rules
//!   (Pseudocodes 2 and 3, §5).
//!
//! Nothing here knows about simulated time, machines, or messages: the
//! centralized driver (`hopper-central`), the decentralized driver
//! (`hopper-decentral`), or a real RPC embedding all reuse the same logic.
//! This mirrors the event-driven, no-hidden-I/O design of production
//! network stacks.

#![warn(missing_docs)]

pub mod allocate;
pub mod estimate;
pub mod incremental;
pub mod protocol;
pub mod shard;
pub mod threshold;
pub mod vsize;

pub use allocate::{
    allocate, cmp_priority, AllocConfig, Allocation, JobDemand, Regime, MAX_USEFUL_FACTOR,
};
pub use estimate::{alpha_from_work, AlphaEstimator, BetaEstimator};
pub use incremental::{AllocCounters, IncrementalAlloc, OrderEdit};
pub use protocol::{
    pick_fcfs, pick_srpt, scheduler_accepts, FreeSlotEpisode, PickScratch, Reservation,
    ResponseKind, UnsatisfiedJob, WorkerAction,
};
pub use shard::{safe_horizon, EventKey, Mailbox, SyncBarrier};
pub use threshold::{level_interval, Interval};
pub use vsize::{ceil_usize, priority_key, speculation_multiplier, virtual_size};
