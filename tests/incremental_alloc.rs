//! Driver-level tests for the incremental central allocator (ISSUE 6):
//! cache behaviour under machine fail/recover dynamics, and the bounded-
//! staleness (`realloc_drift`) mode.
//!
//! These run in the dev profile, where the central driver shadow-checks
//! every reallocation against the eager `hopper_core::allocate` — so any
//! scenario exercised here *also* re-proves incremental ≡ eager along its
//! whole event sequence, including the fail/recover paths.

use hopper::central::{self, HopperConfig, Policy, SimConfig};
use hopper::cluster::{ClusterConfig, DynamicsConfig};
use hopper::experiment::{EngineKind, ExperimentSpec};
use hopper::metrics::RunSummary;
use hopper::sim::SimTime;
use hopper::workload::{Trace, TraceGenerator, WorkloadProfile};

fn trace(seed: u64, jobs: usize) -> Trace {
    let profile = WorkloadProfile::facebook().interactive();
    TraceGenerator::new(profile, jobs, seed).generate_with_utilization(100, 0.7)
}

fn cfg(seed: u64, dynamics: DynamicsConfig) -> SimConfig {
    SimConfig {
        cluster: ClusterConfig {
            machines: 25,
            slots_per_machine: 4,
            ..Default::default()
        },
        scan_interval: SimTime::from_millis(1000),
        seed,
        dynamics,
        ..Default::default()
    }
}

/// Fail/recover-heavy dynamics with neutral speeds: the only incidents
/// are machine failures and recoveries.
fn failures() -> DynamicsConfig {
    DynamicsConfig {
        fail_rate_per_hour: 40.0,
        recovery_ms: (2_000, 10_000),
        ..DynamicsConfig::off()
    }
}

/// `DynEvent::Fail` / `DynEvent::Recover` change no input of `allocate`
/// (killed tasks return to *pending*; capacity is the configured total),
/// so they must not trash the allocation cache: even on a run dense with
/// failures and recoveries, some dispatches still reuse the previous
/// allocation outright, and reallocations stay well below the event
/// count. Before the epoch-invalidation fix, every incident bumped the
/// demand epoch and cache reuse collapsed to zero on runs like this one.
#[test]
fn fail_recover_events_do_not_trash_the_alloc_cache() {
    let t = trace(9, 40);
    let out = central::run(
        &t,
        &Policy::Hopper(HopperConfig::default()),
        &cfg(9, failures()),
    );
    assert_eq!(out.jobs.len(), 40, "all jobs completed under failures");
    assert!(
        out.stats.killed > 0,
        "scenario too tame: no copy ever died with a machine"
    );
    let c = out.alloc_counters;
    assert!(
        c.reuses > 0,
        "no dispatch ever reused the cached allocation: {c:?}"
    );
    assert!(
        c.recomputes < out.stats.events,
        "allocation recomputed on (at least) every event: {c:?} vs {} events",
        out.stats.events
    );
    assert_eq!(c.stale_skips, 0, "exact mode must never skip stale");
}

/// Bounded staleness: with `realloc_drift > 0` the driver keeps a stale
/// allocation while the total virtual size stays within the budget.
/// The schedule may differ from the eager one, but every job still
/// completes, skips actually happen, and reallocation count drops
/// strictly below the exact run's.
#[test]
fn bounded_staleness_skips_reallocations_and_still_completes() {
    let t = trace(3, 60);
    let exact = central::run(
        &t,
        &Policy::Hopper(HopperConfig::default()),
        &cfg(3, DynamicsConfig::off()),
    );
    let drifty = central::run(
        &t,
        &Policy::Hopper(HopperConfig {
            realloc_drift: 0.05,
            ..Default::default()
        }),
        &cfg(3, DynamicsConfig::off()),
    );
    assert_eq!(drifty.jobs.len(), 60, "all jobs completed under drift");
    assert!(
        drifty.alloc_counters.stale_skips > 0,
        "drift mode never skipped: {:?}",
        drifty.alloc_counters
    );
    assert!(
        drifty.alloc_counters.recomputes < exact.alloc_counters.recomputes,
        "drift did not reduce reallocations: {:?} vs exact {:?}",
        drifty.alloc_counters,
        exact.alloc_counters
    );
    // Staleness trades exactness for speed, not for a broken schedule:
    // mean job duration stays in the same regime as the eager run.
    let (me, md) = (exact.mean_duration_ms(), drifty.mean_duration_ms());
    assert!(
        md <= 1.5 * me,
        "drift wrecked mean duration: {md} vs exact {me}"
    );
}

/// `realloc_drift = 0` must be the exact eager path: byte-identical
/// per-job outcomes and stats to a run with the default config (which is
/// drift 0), and zero stale skips — pinning that the drift machinery is
/// inert unless explicitly enabled.
#[test]
fn drift_zero_is_inert() {
    let t = trace(5, 30);
    let base = central::run(
        &t,
        &Policy::Hopper(HopperConfig::default()),
        &cfg(5, DynamicsConfig::off()),
    );
    let zero = central::run(
        &t,
        &Policy::Hopper(HopperConfig {
            realloc_drift: 0.0,
            ..Default::default()
        }),
        &cfg(5, DynamicsConfig::off()),
    );
    assert_eq!(base.jobs, zero.jobs);
    assert_eq!(base.stats, zero.stats);
    assert_eq!(base.alloc_counters, zero.alloc_counters);
    assert_eq!(zero.alloc_counters.stale_skips, 0);
}

/// The spec key `realloc_drift=` is sweepable and streaming-safe: a
/// drift-enabled run gives bit-identical counters and digests between
/// the materialized and streaming pipelines (staleness changes *which*
/// schedule is computed, never the equivalence of the two pipelines).
#[test]
fn streaming_equals_materialized_with_drift() {
    let mut s = ExperimentSpec::central();
    s.machines = 25;
    s.slots = 4;
    s.policy = "hopper".into();
    s.interactive = true;
    s.jobs = 40;
    s.util = 0.7;
    s.set("realloc_drift", "0.05").unwrap();
    assert_eq!(s.engine, EngineKind::Central);
    for seed in [5u64, 11] {
        s.stream = false;
        let mat = s.run_one(seed).unwrap();
        s.stream = true;
        let str = s.run_one(seed).unwrap();
        assert_eq!(
            mat.report().core,
            str.report().core,
            "CoreStats drifted: seed{seed}"
        );
        assert_eq!(
            mat.report().digest,
            str.report().digest,
            "digest drifted: seed{seed}"
        );
        assert_eq!(mat.jobs().len() as u64, str.report().digest.count());
    }
}

/// Exact work counters of the threshold intervals, the persistent
/// launch-loop row table and the pre-warm passes on one seeded learned-β
/// run (they are kept out of `RunReport.core`). A shared-β move re-checks only the `⌈V⌉` whose
/// interval it left, and a launch-loop pass recomputes only the rows
/// that changed: both stay far below one full sweep per pass, and the
/// table is built from scratch once (no β refresh re-sorted the order).
/// Dev-profile runs also replay every pass against a from-scratch
/// rebuild of the table (`assert_rows_match_rebuild`).
#[test]
fn threshold_and_row_table_counters_are_pinned() {
    let t = trace(4, 80);
    let out = central::run(
        &t,
        &Policy::Hopper(HopperConfig::default()),
        &cfg(4, DynamicsConfig::off()),
    );
    let (a, r, p) = (out.alloc_counters, out.row_counters, out.prewarm_counters);
    assert_eq!(out.jobs.len(), 80);
    assert_eq!((a.recomputes, a.index_rechecks), (1524, 521));
    assert_eq!((r.refreshed, r.rebuilds), (3541, 1));
    assert_eq!(
        (p.passes, p.rows_scanned, p.reset_rows, p.rows_replayed),
        (1565, 25076, 7379, 1416)
    );
    assert_eq!(p.machines_painted, 3889);
    // Fewer rows recomputed over the run than rows the pre-warm passes
    // scanned once their unbound slots ran out, fewer rows replayed
    // through the run stack than reset rows, and fewer ⌈V⌉ re-checks
    // than allocations.
    assert!(r.refreshed < p.rows_scanned, "{r:?} vs {p:?}");
    assert!(p.rows_replayed < p.reset_rows, "{p:?}");
    assert!(a.index_rechecks < a.recomputes, "{a:?}");
}
