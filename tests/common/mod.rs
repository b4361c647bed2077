//! Scaffolding shared by the golden suites (`tests/golden_stats.rs`,
//! `tests/dynamics.rs` and the ones that render golden rows) and by
//! `tests/determinism.rs`: the golden cell as an [`ExperimentSpec`],
//! whose trace and engine configs come from the spec's own builders,
//! the pinned scenario grid, the per-job digest, and the stats renderer.
//! One definition, so the dynamics-equivalence check can never drift
//! from the writer that produced `tests/goldens/stats.txt`.

// Each suite uses its own subset of this module.
#![allow(dead_code)]

use std::fmt::Write as _;

use hopper::central;
use hopper::cluster::DynamicsConfig;
use hopper::decentral;
use hopper::experiment::{EngineKind, ExperimentSpec};
use hopper::workload::Trace;

pub const GOLDEN_PATH: &str = "tests/goldens/stats.txt";

/// The golden cell on `engine`: a 30-job multi-phase interactive
/// Facebook trace at 70% of 100 slots, which exercises DAG eligibility,
/// shuffle transfers (α), locality, and speculation in one workload.
/// Each engine keeps its default machine size (4 slots central, 2
/// decentral), so both clusters have 100 slots and share one trace.
pub fn spec(engine: EngineKind) -> ExperimentSpec {
    let base = match engine {
        EngineKind::Central => ExperimentSpec::central(),
        EngineKind::Decentral => ExperimentSpec::decentral(),
    };
    ExperimentSpec {
        interactive: true,
        jobs: 30,
        machines: 100 / base.slots,
        ..base
    }
}

/// The pinned golden trace for `seed`.
pub fn trace(seed: u64) -> Trace {
    spec(EngineKind::Central).trace(seed)
}

pub fn central_cfg(seed: u64, dynamics: DynamicsConfig) -> central::SimConfig {
    let (_, mut cfg) = spec(EngineKind::Central).central_config(seed).unwrap();
    cfg.dynamics = dynamics;
    cfg
}

pub fn decentral_cfg(seed: u64, dynamics: DynamicsConfig) -> decentral::DecConfig {
    let (_, mut cfg) = spec(EngineKind::Decentral).decentral_config(seed).unwrap();
    cfg.dynamics = dynamics;
    cfg
}

/// FNV-1a over the full per-job outcome tuple: any bit of drift in any
/// job's completion time changes the digest.
pub fn jobs_digest(jobs: &[hopper::metrics::JobResult]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut mix = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for j in jobs {
        mix(j.job as u64);
        mix(j.size_tasks as u64);
        mix(j.dag_len as u64);
        mix(j.arrival.as_millis());
        mix(j.completed.as_millis());
    }
    h
}

/// Render every golden scenario's stats as stable text under the given
/// dynamics plane. `Debug` for the stats structs prints f64 fields with
/// shortest-roundtrip formatting, so two renders are equal iff the stats
/// are bit-identical.
pub fn render_goldens(dynamics: &DynamicsConfig) -> String {
    let mut out = String::new();
    let central_policies: Vec<(&str, central::Policy)> = vec![
        ("fifo", central::Policy::Fifo),
        ("fair", central::Policy::Fair),
        ("srpt", central::Policy::Srpt),
        (
            "budgeted",
            central::Policy::BudgetedSrpt {
                budget_fraction: 0.2,
            },
        ),
        (
            "hopper",
            central::Policy::Hopper(central::HopperConfig::default()),
        ),
    ];
    for seed in [5u64, 11] {
        let t = trace(seed);
        for (name, policy) in &central_policies {
            let r = central::run(&t, policy, &central_cfg(seed, dynamics.clone()));
            writeln!(
                out,
                "central/{name}/seed{seed}: jobs_digest={:#018x} stats={:?}",
                jobs_digest(&r.jobs),
                r.stats
            )
            .unwrap();
        }
        for policy in [
            decentral::DecPolicy::Sparrow,
            decentral::DecPolicy::SparrowSrpt,
            decentral::DecPolicy::Hopper,
        ] {
            let r = decentral::run(&t, policy, &decentral_cfg(seed, dynamics.clone()));
            writeln!(
                out,
                "decentral/{}/seed{seed}: jobs_digest={:#018x} stats={:?}",
                policy.name(),
                jobs_digest(&r.jobs),
                r.stats
            )
            .unwrap();
        }
    }
    out.push_str(&render_engine_rows(dynamics, |_| {}));
    out
}

/// The message storm of the `storm/` rows: loss, duplication, jitter and
/// scheduler crash/recover chains (with the hardening that keeps every
/// job completing).
pub fn storm_faults() -> decentral::FaultConfig {
    decentral::FaultConfig {
        msg_loss: 0.05,
        msg_jitter_ms: 5,
        msg_dup: 0.02,
        sched_fail_rate_per_hour: 400.0,
        sched_mttr_ms: 1_500,
        rpc_timeout_ms: 1_000,
        rpc_retries: 3,
    }
}

/// The golden rows beyond the serial, faults-off decentralized family:
/// `sharded/<policy>/seed<N>` (the sharded engine at `shards=1`) and
/// `storm/{serial,sharded}/hopper/seed<N>` (both engines under
/// [`storm_faults`]). They pin the sharded family's absolute values and
/// the fault and crash paths. `mutate` adjusts every config after the
/// row's own settings (the telemetry suite turns windows on with it).
/// The prefixes differ from `decentral/` so [`golden_decentral_lines`]
/// does not pick them up.
pub fn render_engine_rows(
    dynamics: &DynamicsConfig,
    mutate: impl Fn(&mut decentral::DecConfig),
) -> String {
    let mut out = String::new();
    let mut row = |label: String, t: &Trace, policy, cfg: &mut decentral::DecConfig| {
        mutate(cfg);
        let r = decentral::run(t, policy, cfg);
        writeln!(
            out,
            "{label}: jobs_digest={:#018x} stats={:?}",
            jobs_digest(&r.jobs),
            r.stats
        )
        .unwrap();
    };
    for seed in [5u64, 11] {
        let t = trace(seed);
        for policy in [
            decentral::DecPolicy::Sparrow,
            decentral::DecPolicy::SparrowSrpt,
            decentral::DecPolicy::Hopper,
        ] {
            let mut cfg = decentral_cfg(seed, dynamics.clone());
            cfg.shards = 1;
            row(
                format!("sharded/{}/seed{seed}", policy.name()),
                &t,
                policy,
                &mut cfg,
            );
        }
        for (engine, shards) in [("serial", 0), ("sharded", 1)] {
            let mut cfg = decentral_cfg(seed, dynamics.clone());
            cfg.shards = shards;
            cfg.faults = storm_faults();
            let policy = decentral::DecPolicy::Hopper;
            row(
                format!("storm/{engine}/hopper/seed{seed}"),
                &t,
                policy,
                &mut cfg,
            );
        }
    }
    out
}

/// Render only the decentralized golden scenarios, with a caller hook to
/// adjust the config. The chaos suite uses this to prove that fault-plane
/// *hardening* knobs alone (timeouts, retry budgets) leave runs
/// bit-identical — only enabled fault sources may change a run.
pub fn render_decentral_goldens(mutate: impl Fn(&mut decentral::DecConfig)) -> String {
    let mut out = String::new();
    for seed in [5u64, 11] {
        let t = trace(seed);
        for policy in [
            decentral::DecPolicy::Sparrow,
            decentral::DecPolicy::SparrowSrpt,
            decentral::DecPolicy::Hopper,
        ] {
            let mut cfg = decentral_cfg(seed, DynamicsConfig::off());
            mutate(&mut cfg);
            let r = decentral::run(&t, policy, &cfg);
            writeln!(
                out,
                "decentral/{}/seed{seed}: jobs_digest={:#018x} stats={:?}",
                policy.name(),
                jobs_digest(&r.jobs),
                r.stats
            )
            .unwrap();
        }
    }
    out
}

/// The decentralized lines of the pinned golden file, in file order.
pub fn golden_decentral_lines() -> Vec<String> {
    std::fs::read_to_string(GOLDEN_PATH)
        .expect(
            "missing tests/goldens/stats.txt — run \
            `HOPPER_UPDATE_GOLDENS=1 cargo test --test golden_stats` once",
        )
        .lines()
        .filter(|l| l.starts_with("decentral/"))
        .map(str::to_owned)
        .collect()
}

/// Line-by-line comparison against the pinned golden file, with a
/// caller-supplied context string in the failure message.
pub fn assert_matches_goldens(actual: &str, context: &str) {
    let expected = std::fs::read_to_string(GOLDEN_PATH).expect(
        "missing tests/goldens/stats.txt — run \
        `HOPPER_UPDATE_GOLDENS=1 cargo test --test golden_stats` once",
    );
    for (i, (e, a)) in expected.lines().zip(actual.lines()).enumerate() {
        assert_eq!(e, a, "golden line {} drifted ({context})", i + 1);
    }
    assert_eq!(
        expected.lines().count(),
        actual.lines().count(),
        "golden scenario count changed ({context})"
    );
}
