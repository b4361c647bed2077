//! Sharded conservative-PDES engine: the partition-independence suite.
//!
//! The contract under test (DESIGN.md, "Sharded execution"): for a fixed
//! `DecConfig`, every shard count `>= 1` is **bit-identical** — same
//! `DecStats`, same per-job results, same digest — because window
//! boundaries, event order (`EventKey`), and every RNG stream are
//! independent of how entities were partitioned. The suite pins that
//! across policies × seeds × dynamics storms × message-fault storms ×
//! streaming, with the dev-profile conservation auditor live inside
//! every run (so "passed" also means "no slot leaked and every counter
//! reconciled on every shard").
//!
//! `shards = 0` stays the serial driver (its goldens are pinned
//! elsewhere); it is a *different* documented equivalence family, so no
//! test here compares shards=0 against shards>=1 outputs.

use hopper::cluster::{ClusterConfig, DynamicsConfig, HeteroProfile};
use hopper::decentral::{self, DecConfig, DecPolicy, FaultConfig};
use hopper::workload::{ArrivalSource, Trace, TraceGenerator, WorkloadProfile};

fn trace(seed: u64, jobs: usize) -> Trace {
    let profile = WorkloadProfile::facebook().interactive();
    TraceGenerator::new(profile, jobs, seed).generate_with_utilization(100, 0.7)
}

fn cfg(seed: u64, shards: usize) -> DecConfig {
    DecConfig {
        cluster: ClusterConfig {
            machines: 50,
            slots_per_machine: 2,
            handoff_ms: 0,
            ..Default::default()
        },
        num_schedulers: 5,
        seed,
        shards,
        ..Default::default()
    }
}

/// A message and scheduler-crash storm: loss, duplication, jitter,
/// crashes with recovery, and RPC timeouts with retries.
fn storm() -> FaultConfig {
    FaultConfig {
        msg_loss: 0.05,
        msg_jitter_ms: 5,
        msg_dup: 0.02,
        sched_fail_rate_per_hour: 400.0,
        sched_mttr_ms: 1_500,
        rpc_timeout_ms: 1_000,
        rpc_retries: 3,
    }
}

const POLICIES: [DecPolicy; 3] = [
    DecPolicy::Sparrow,
    DecPolicy::SparrowSrpt,
    DecPolicy::Hopper,
];

/// Assert two sharded outputs are bit-identical in everything the
/// determinism contract covers.
fn assert_same(a: &decentral::DecOutput, b: &decentral::DecOutput, ctx: &str) {
    assert_eq!(a.stats, b.stats, "DecStats drifted: {ctx}");
    assert_eq!(a.jobs, b.jobs, "per-job results drifted: {ctx}");
    assert_eq!(a.report.digest, b.report.digest, "digest drifted: {ctx}");
    assert_eq!(
        a.report.live_high_water, b.report.live_high_water,
        "live high-water drifted: {ctx}"
    );
    // Window boundaries are partition-independent, so the window count
    // is too (stalls and the cross/local message split are not).
    let (sa, sb) = (a.shard.as_ref().unwrap(), b.shard.as_ref().unwrap());
    assert_eq!(sa.windows, sb.windows, "window count drifted: {ctx}");
    assert_eq!(
        sa.cross_msgs + sa.local_msgs,
        sb.cross_msgs + sb.local_msgs,
        "total message count drifted: {ctx}"
    );
    assert_eq!(
        a.queue_counters, b.queue_counters,
        "queue counters drifted: {ctx}"
    );
}

/// Every shard count ≥ 1 must produce the same bits, for every policy
/// and seed, on the plain (dynamics-off, faults-off) configuration.
#[test]
fn shard_counts_are_bit_identical_plain() {
    for policy in POLICIES {
        for seed in [1, 7] {
            let t = trace(seed, 30);
            let base = decentral::run(&t, policy, &cfg(seed, 1));
            assert_eq!(
                base.jobs.len(),
                30,
                "not all jobs completed: {}/seed{seed}",
                policy.name()
            );
            for shards in [2, 4] {
                let got = decentral::run(&t, policy, &cfg(seed, shards));
                let ctx = format!("{}/seed{seed}/shards{shards}", policy.name());
                assert_same(&base, &got, &ctx);
                assert_eq!(got.shard.as_ref().unwrap().shards, shards, "{ctx}");
            }
        }
    }
}

/// Same-seed sharded runs are reproducible (trivially implied by the
/// cross-count test, but this is the cheap canary when that one fails).
#[test]
fn sharded_run_is_deterministic_for_same_seed() {
    let t = trace(3, 30);
    let a = decentral::run(&t, DecPolicy::Hopper, &cfg(3, 2));
    let b = decentral::run(&t, DecPolicy::Hopper, &cfg(3, 2));
    assert_same(&a, &b, "Hopper/seed3/shards2 repeat");
}

/// Partition independence must survive the full dynamics plane:
/// heterogeneous base speeds, transient slowdowns, and machine failures
/// (each machine's incident chain is replicated deterministically on
/// every shard, but applied only by its owner).
#[test]
fn shard_counts_are_bit_identical_under_dynamics() {
    let dynamics = DynamicsConfig {
        hetero: HeteroProfile::Bimodal {
            slow_frac: 0.2,
            slow_factor: 0.5,
        },
        slowdown_rate_per_hour: 30.0,
        fail_rate_per_hour: 10.0,
        recovery_ms: (5_000, 15_000),
        ..DynamicsConfig::off()
    };
    for policy in [DecPolicy::Hopper, DecPolicy::Sparrow] {
        for seed in [2, 5] {
            let t = trace(seed, 25);
            let mut c = cfg(seed, 1);
            c.dynamics = dynamics.clone();
            let base = decentral::run(&t, policy, &c);
            assert_eq!(base.jobs.len(), 25, "job lost under dynamics");
            for shards in [2, 4] {
                let mut c = cfg(seed, shards);
                c.dynamics = dynamics.clone();
                let got = decentral::run(&t, policy, &c);
                let ctx = format!("dyn/{}/seed{seed}/shards{shards}", policy.name());
                assert_same(&base, &got, &ctx);
            }
        }
    }
}

/// The acceptance-rate message-fault storm (loss, jitter, duplication,
/// and scheduler crash/recover), sharded: still bit-identical across
/// shard counts, still completes every job, and the storm is not
/// vacuous. The dev-profile auditor rides inside every run, so this is
/// also the "chaos stays auditor-silent under sharding" gate.
#[test]
fn shard_counts_are_bit_identical_under_fault_storm() {
    let storm = storm();
    for policy in POLICIES {
        let seed = 11;
        let t = trace(seed, 25);
        let mut c = cfg(seed, 1);
        c.faults = storm;
        let base = decentral::run(&t, policy, &c);
        assert_eq!(base.jobs.len(), 25, "job lost in storm: {}", policy.name());
        assert!(
            base.stats.msgs_lost > 0 && base.stats.msgs_duplicated > 0,
            "storm was vacuous: {}",
            policy.name()
        );
        for shards in [2, 4] {
            let mut c = cfg(seed, shards);
            c.faults = storm;
            let got = decentral::run(&t, policy, &c);
            let ctx = format!("storm/{}/shards{shards}", policy.name());
            assert_same(&base, &got, &ctx);
        }
    }
}

/// Dynamics *and* the message storm at once — the worst case the serial
/// chaos suite exercises, across shard counts.
#[test]
fn shard_counts_survive_combined_chaos() {
    let mut base_cfg = cfg(13, 1);
    base_cfg.dynamics = DynamicsConfig {
        hetero: HeteroProfile::Uniform { lo: 0.5, hi: 2.0 },
        fail_rate_per_hour: 20.0,
        recovery_ms: (2_000, 8_000),
        ..DynamicsConfig::off()
    };
    base_cfg.faults = FaultConfig {
        msg_loss: 0.03,
        msg_jitter_ms: 3,
        msg_dup: 0.02,
        sched_fail_rate_per_hour: 200.0,
        sched_mttr_ms: 1_000,
        rpc_timeout_ms: 800,
        rpc_retries: 3,
    };
    let t = trace(13, 20);
    let base = decentral::run(&t, DecPolicy::Hopper, &base_cfg);
    assert_eq!(base.jobs.len(), 20, "job lost in combined chaos");
    for shards in [2, 4] {
        let mut c = base_cfg.clone();
        c.shards = shards;
        let got = decentral::run(&t, DecPolicy::Hopper, &c);
        assert_same(&base, &got, &format!("chaos/shards{shards}"));
    }
}

/// Streaming (lazy arrivals + job retirement + `max_jobs` truncation)
/// under sharding: bit-identical to the materialized run of the same
/// stream at the same shard count, and across shard counts.
#[test]
fn sharded_streaming_matches_materialized_and_shard_counts() {
    let profile = WorkloadProfile::facebook().interactive();
    let generator = TraceGenerator::new(profile, 60, 9);
    let stream = generator.stream_with_utilization(100, 0.7).truncated(40);
    let materialized = hopper::workload::Trace::new(stream.clone().collect());

    let base = decentral::run(&materialized, DecPolicy::Hopper, &cfg(9, 1));
    assert_eq!(base.jobs.len(), 40, "truncated stream job count");
    for shards in [1, 2, 4] {
        let got = decentral::run_source(
            ArrivalSource::from_stream(stream.clone()),
            DecPolicy::Hopper,
            &cfg(9, shards),
            false,
        );
        let ctx = format!("stream/shards{shards}");
        assert!(got.jobs.is_empty(), "streaming retained jobs: {ctx}");
        assert_eq!(base.stats, got.stats, "DecStats drifted: {ctx}");
        assert_eq!(
            base.report.digest, got.report.digest,
            "digest drifted: {ctx}"
        );
    }
}

/// Every queued event is popped exactly once and the queues drain, so
/// heap pushes + lane pushes + arrivals == events, for the serial driver
/// (`shards = 0`) and the sharded engine alike. The sharded engine
/// pushes each event into exactly one shard's keyed queue and has no
/// FIFO lane, so its counters are the same for every shard count.
#[test]
fn queue_counters_account_for_every_event() {
    for (name, faults) in [("calm", FaultConfig::off()), ("storm", storm())] {
        let t = trace(3, 25);
        let mut sharded = None;
        for shards in [0, 1, 2, 3] {
            let mut c = cfg(3, shards);
            c.faults = faults;
            let out = decentral::run(&t, DecPolicy::Hopper, &c);
            let q = out.queue_counters;
            let ctx = format!("{name}/shards{shards}: {q:?}");
            assert_eq!(
                q.heap_pushes + q.lane_pushes + t.jobs.len() as u64,
                out.stats.events,
                "a queued event was not popped exactly once: {ctx}"
            );
            if shards == 0 {
                assert!(q.lane_pushes > 0, "serial lane unused: {ctx}");
                continue;
            }
            assert_eq!(q.lane_pushes, 0, "sharded queues have no lane: {ctx}");
            match sharded {
                None => sharded = Some(q),
                Some(base) => assert_eq!(base, q, "counters drifted: {ctx}"),
            }
        }
    }
}

/// `shards = 0` keeps the untouched serial driver (no `ShardStats`);
/// `shards >= 1` reports engine counters that actually moved.
#[test]
fn shard_stats_reported_only_when_sharded() {
    let t = trace(1, 10);
    let serial = decentral::run(&t, DecPolicy::Hopper, &cfg(1, 0));
    assert!(serial.shard.is_none(), "serial driver grew ShardStats");
    let sharded = decentral::run(&t, DecPolicy::Hopper, &cfg(1, 2));
    let s = sharded.shard.expect("sharded run must report ShardStats");
    assert_eq!(s.shards, 2);
    assert!(s.windows > 0, "no conservative windows executed");
    assert!(s.cross_msgs > 0, "two shards never exchanged a message");
}

/// The conservative lookahead is the message latency; a zero-latency
/// config has no lookahead and must be rejected loudly, not silently
/// mis-simulated.
#[test]
#[should_panic(expected = "lookahead")]
fn zero_msg_latency_is_rejected_when_sharded() {
    let t = trace(1, 5);
    let mut c = cfg(1, 2);
    c.msg_latency = hopper::sim::SimTime::ZERO;
    decentral::run(&t, DecPolicy::Hopper, &c);
}
