//! # hopper — speculation-aware cluster scheduling
//!
//! A from-scratch Rust reproduction of **"Hopper: Decentralized
//! Speculation-aware Cluster Scheduling at Scale"** (Ren, Ananthanarayanan,
//! Wierman, Yu — ACM SIGCOMM 2015).
//!
//! Hopper is a job scheduler that coordinates *speculative execution*
//! (racing extra copies of straggling tasks) with *job-level resource
//! allocation*: every job's desired allocation is its **virtual size**
//! `max(2/β, 1) · T_remaining · √α`, and slots are divided by an
//! SRPT-style rule when the cluster is capacity constrained or
//! proportionally to virtual sizes when it is not.
//!
//! This facade crate re-exports the whole workspace under one roof:
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sim`] | `hopper-sim` | deterministic discrete-event engine |
//! | [`workload`] | `hopper-workload` | heavy-tailed distributions, synthetic Facebook/Bing traces |
//! | [`core`] | `hopper-core` | the paper's algorithms, sans I/O (Pseudocode 1–3, estimators) |
//! | [`cluster`] | `hopper-cluster` | machines, jobs, racing task copies, locality, shuffles |
//! | [`spec`] | `hopper-spec` | LATE / Mantri / GRASS speculation policies |
//! | [`central`] | `hopper-central` | centralized simulator: FIFO/Fair/SRPT/Budgeted/Hopper |
//! | [`decentral`] | `hopper-decentral` | Sparrow-style decentralized simulator |
//! | [`metrics`] | `hopper-metrics` | completion-time statistics, paper-style tables |
//! | [`experiment`] | `hopper-experiment` | engine-agnostic experiment specs + deterministic parallel sweeps |
//!
//! ## Quickstart
//!
//! ```
//! use hopper::central::{run, HopperConfig, Policy, SimConfig};
//! use hopper::metrics::RunSummary;
//! use hopper::workload::{TraceGenerator, WorkloadProfile};
//!
//! // Synthesize a small Facebook-like trace at 70% cluster utilization.
//! let profile = WorkloadProfile::facebook().interactive();
//! let trace = TraceGenerator::new(profile, 50, 42).generate_with_utilization(100, 0.7);
//!
//! let mut cfg = SimConfig::default();
//! cfg.cluster.machines = 25;
//! cfg.cluster.slots_per_machine = 4;
//!
//! let srpt = run(&trace, &Policy::Srpt, &cfg);
//! let hopper = run(&trace, &Policy::Hopper(HopperConfig::default()), &cfg);
//! println!(
//!     "SRPT {:.0} ms vs Hopper {:.0} ms",
//!     srpt.mean_duration_ms(),
//!     hopper.mean_duration_ms()
//! );
//! ```

pub use hopper_central as central;
pub use hopper_cluster as cluster;
pub use hopper_core as core;
pub use hopper_decentral as decentral;
pub use hopper_experiment as experiment;
pub use hopper_metrics as metrics;
pub use hopper_sim as sim;
pub use hopper_spec as spec;
pub use hopper_workload as workload;
