//! Telemetry-plane contract tests.
//!
//! The windowed series is an *observer*: collecting it must never change
//! simulation results. These tests pin that invariant against the golden
//! file (every pinned policy, both engines), across shard counts, and
//! under the harshest fault planes; window sums must conserve the run's
//! totals (every completion, launch, kill, message, and event lands in
//! exactly one window).

mod common;

use std::fmt::Write as _;

use common::{assert_matches_goldens, central_cfg, decentral_cfg, jobs_digest, trace};
use hopper::central;
use hopper::cluster::DynamicsConfig;
use hopper::decentral;
use hopper::experiment::{EngineKind, ExperimentSpec};
use hopper::metrics::{RunReport, TelemetrySeries};

/// An odd window width so boundaries never align with scan periods,
/// handoffs, or round-number task durations.
const WINDOW_MS: u64 = 7_777;

/// Assert the series accounts for every countable the report totals:
/// each completion, launch, win, kill, message, and event falls in
/// exactly one window.
fn assert_conserves(series: &TelemetrySeries, report: &RunReport, events: u64, ctx: &str) {
    assert_eq!(
        series.total_completed(),
        report.digest.count(),
        "completions leaked across windows: {ctx}"
    );
    assert_eq!(series.total_events(), events, "events leaked: {ctx}");
    let sum = |f: fn(&hopper::metrics::TelemetryWindow) -> u64| -> u64 {
        series.windows.iter().map(f).sum()
    };
    assert_eq!(
        sum(|w| w.orig_launched),
        report.core.orig_launched,
        "orig launches leaked: {ctx}"
    );
    assert_eq!(
        sum(|w| w.spec_launched),
        report.core.spec_launched,
        "spec launches leaked: {ctx}"
    );
    assert_eq!(
        sum(|w| w.spec_won),
        report.core.spec_won,
        "spec wins leaked: {ctx}"
    );
    assert_eq!(
        sum(|w| w.messages),
        report.core.messages,
        "messages leaked: {ctx}"
    );
    // Per-window JCT digests partition the run's digest: counts and
    // total mass sum exactly.
    let jct_count: u64 = series.windows.iter().map(|w| w.jct.count()).sum();
    assert_eq!(jct_count, report.digest.count(), "JCT digest split: {ctx}");
    // Window indices are contiguous from 0.
    for (i, w) in series.windows.iter().enumerate() {
        assert_eq!(w.index, i as u64, "window index gap: {ctx}");
    }
}

/// Observer invariance, pinned against the golden file: re-render every
/// golden scenario with telemetry *enabled* and require the stats and
/// per-job digests to match `tests/goldens/stats.txt` line for line.
/// (The telemetry-off side is the golden suite itself — window 0 is the
/// default every golden run uses.)
#[test]
fn telemetry_on_matches_the_pinned_goldens() {
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
            let mut cfg = central_cfg(seed, DynamicsConfig::off());
            cfg.telemetry_window_ms = WINDOW_MS;
            let r = central::run(&t, policy, &cfg);
            let series = r.report.telemetry.as_ref().expect("series collected");
            assert_conserves(series, &r.report, r.stats.events, name);
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
            let mut cfg = decentral_cfg(seed, DynamicsConfig::off());
            cfg.telemetry_window_ms = WINDOW_MS;
            let r = decentral::run(&t, policy, &cfg);
            let series = r.report.telemetry.as_ref().expect("series collected");
            assert_conserves(series, &r.report, r.stats.events, policy.name());
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
    out.push_str(&common::render_engine_rows(&DynamicsConfig::off(), |cfg| {
        cfg.telemetry_window_ms = WINDOW_MS;
    }));
    assert_matches_goldens(&out, "telemetry_window_ms > 0");
}

/// Window 0 (the default) collects nothing; any positive width attaches
/// a series whose shape matches the run.
#[test]
fn window_zero_collects_nothing_and_positive_widths_attach_a_series() {
    let t = trace(5);
    let cfg = central_cfg(5, DynamicsConfig::off());
    let off = central::run(&t, &central::Policy::Srpt, &cfg);
    assert!(off.report.telemetry.is_none(), "window 0 must be inert");

    let mut cfg_on = central_cfg(5, DynamicsConfig::off());
    cfg_on.telemetry_window_ms = WINDOW_MS;
    let on = central::run(&t, &central::Policy::Srpt, &cfg_on);
    let series = on.report.telemetry.as_ref().expect("series collected");
    assert_eq!(series.window_ms, WINDOW_MS);
    assert_eq!(series.total_slots, 100, "25 machines x 4 slots");
    // The series spans at least the makespan (trailing scan-timer
    // events may extend it): finish() closes the last partial window,
    // so there are at least floor(makespan / W) + 1 windows.
    assert!(series.windows.len() as u64 > on.stats.core().makespan.as_millis() / WINDOW_MS);
    // Observer invariance, directly: everything but the series matches.
    assert_eq!(off.stats, on.stats);
    assert_eq!(off.jobs, on.jobs);
    assert_eq!(off.report.digest, on.report.digest);
    assert_eq!(off.report.live_high_water, on.report.live_high_water);
}

/// Sharded runs with telemetry on: stats stay bit-identical across shard
/// counts, and the *merged series* is too — counters and gauges sum over
/// disjoint shard-owned entities, JCT sketches union exactly.
#[test]
fn merged_series_is_bit_identical_across_shard_counts() {
    let t = trace(5);
    let mk = |shards: usize| {
        let mut cfg = decentral_cfg(5, DynamicsConfig::off());
        cfg.shards = shards;
        cfg.telemetry_window_ms = WINDOW_MS;
        decentral::run(&t, decentral::DecPolicy::Hopper, &cfg)
    };
    let one = mk(1);
    let four = mk(4);
    assert_eq!(one.stats, four.stats, "shard count changed the run");
    assert_eq!(one.jobs, four.jobs);
    let (s1, s4) = (
        one.report.telemetry.as_ref().expect("series @ shards=1"),
        four.report.telemetry.as_ref().expect("series @ shards=4"),
    );
    assert_eq!(s1, s4, "shard merge is not partition-invariant");
    assert_conserves(s1, &one.report, one.stats.events, "shards=1");
    // Merged capacity is the whole cluster, not one shard's slice.
    assert_eq!(s1.total_slots, 100, "50 machines x 2 slots");
}

/// Conservation under the dynamics plane: machine failures and
/// slowdowns relaunch tasks and kill copies mid-flight; every one of
/// those perturbed counters still lands in exactly one window.
#[test]
fn window_sums_conserve_under_failures() {
    for kind in [EngineKind::Central, EngineKind::Decentral] {
        let mut s = match kind {
            EngineKind::Central => ExperimentSpec::central(),
            EngineKind::Decentral => ExperimentSpec::decentral(),
        };
        s.jobs = 25;
        s.machines = 30;
        s.util = 0.7;
        s.hetero = "bimodal".into();
        s.slow_frac = 0.25;
        s.slow_factor = 0.4;
        s.slowdown_rate = 20.0;
        s.fail_rate = 10.0;
        s.mttr_ms = 5_000;
        s.telemetry_window_ms = WINDOW_MS;
        s.seeds = vec![7];
        let out = s.run_one(7).unwrap();
        let report = out.report();
        let series = report.telemetry.as_ref().expect("series collected");
        let ctx = format!("{}/failures", s.engine.as_str());
        assert_conserves(series, report, report.core.events, &ctx);
        assert_eq!(report.digest.count(), 25, "jobs lost under failures");
    }
}

/// Conservation through a 5% message-loss storm with jitter and
/// duplication: retries, lease expiries, and duplicate deliveries all
/// reshuffle the event stream, but window sums still account for every
/// message and completion.
#[test]
fn window_sums_conserve_under_a_message_loss_storm() {
    let mut s = ExperimentSpec::decentral();
    s.jobs = 25;
    s.machines = 30;
    s.util = 0.7;
    s.msg_loss = 0.05;
    s.msg_jitter_ms = 20;
    s.msg_dup = 0.02;
    s.telemetry_window_ms = WINDOW_MS;
    s.seeds = vec![3];
    let out = s.run_one(3).unwrap();
    let report = out.report();
    let series = report.telemetry.as_ref().expect("series collected");
    assert_conserves(series, report, report.core.events, "msg-loss storm");
    assert_eq!(report.digest.count(), 25, "jobs lost in the storm");
    assert!(
        report.core.messages > 0 && series.windows.iter().any(|w| w.messages > 0),
        "storm run sent no messages?"
    );
}

/// The streaming pipeline drives the same simulation through the same
/// collector: its series is bit-identical to the materialized run's.
#[test]
fn streaming_series_matches_materialized() {
    for kind in [EngineKind::Central, EngineKind::Decentral] {
        let mut s = match kind {
            EngineKind::Central => ExperimentSpec::central(),
            EngineKind::Decentral => ExperimentSpec::decentral(),
        };
        s.jobs = 20;
        s.machines = 30;
        s.util = 0.6;
        s.telemetry_window_ms = WINDOW_MS;
        s.seeds = vec![9];
        s.stream = false;
        let mat = s.run_one(9).unwrap();
        s.stream = true;
        let str = s.run_one(9).unwrap();
        assert_eq!(
            mat.report().telemetry,
            str.report().telemetry,
            "streaming changed the series: {}",
            s.engine.as_str()
        );
    }
}

/// Sweep CSVs are byte-identical with telemetry on or off: the series
/// rides on the trial's report and never reaches the CSV surface.
#[test]
fn sweep_csv_is_byte_identical_with_telemetry_on() {
    use hopper::experiment::{sweep_with_threads, SweepAxis};
    let mut s = ExperimentSpec::decentral();
    s.jobs = 10;
    s.machines = 30;
    s.util = 0.6;
    s.seeds = vec![1, 2];
    let axis = SweepAxis::new("policy", &["sparrow", "hopper"]);
    let off = sweep_with_threads(&s, &axis, 2).unwrap();
    s.telemetry_window_ms = WINDOW_MS;
    let on = sweep_with_threads(&s, &axis, 2).unwrap();
    assert_eq!(off.to_csv(), on.to_csv(), "telemetry leaked into the CSV");
    // And the telemetry-on sweep actually carried series on every trial.
    assert!(on.trials.iter().all(|t| t.report.telemetry.is_some()));
    assert!(off.trials.iter().all(|t| t.report.telemetry.is_none()));
}

/// Large-scale conservation: a long stream sliced into over a million
/// 1 ms windows still conserves every completion and event. Ignored by
/// default (hundreds of MB of window state in debug builds); CI runs it
/// in release via `cargo test --release --test telemetry -- --ignored`.
#[test]
#[ignore = "large; run in release via -- --ignored"]
fn million_window_sums_conserve() {
    let mut s = ExperimentSpec::decentral();
    s.jobs = 400;
    s.machines = 30;
    s.util = 0.7;
    s.stream = true;
    s.telemetry_window_ms = 1; // 1 ms windows: one per makespan millisecond
    s.seeds = vec![1];
    let out = s.run_one(1).unwrap();
    let report = out.report();
    let series = report.telemetry.as_ref().expect("series collected");
    assert!(
        series.windows.len() > 1_000_000,
        "stream too short for the 1M-window criterion: {} windows",
        series.windows.len()
    );
    assert_conserves(series, report, report.core.events, "1M windows");
    assert_eq!(report.digest.count(), 400);
}
