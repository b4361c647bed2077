//! Streaming-pipeline scale bench (`cargo bench --bench fig_scale`).
//!
//! Not a paper figure: the paper simulates tens of thousands of jobs,
//! while the ROADMAP's north star is sustained arrival streams from
//! millions of users. This target walks the decentralized engine up the
//! job-count axis **through the streaming pipeline** (lazy arrivals,
//! retired jobs, digest-only metrics) and reports, per size:
//!
//! - events/sec (throughput must not degrade with stream length),
//! - the live-job high-water mark (the O(active) memory invariant —
//!   a small, roughly size-independent count, so its *fraction* of
//!   total jobs shrinks as the stream grows),
//! - peak RSS (`VmHWM`, Linux; 0 elsewhere). Sizes run ascending and
//!   `VmHWM` is process-monotonic, so each reading is the peak up to
//!   and including that size.
//!
//! One machine-parseable JSON line per size, like `throughput`.
//!
//! Sizing knobs:
//!
//! - `HOPPER_BENCH_SCALE_JOBS` — comma-separated job counts for the
//!   decentralized engine (default `10000,100000,1000000`; CI smoke
//!   passes a small list)
//! - `HOPPER_BENCH_SCALE_JOBS_CENTRAL` — job counts for the centralized
//!   engine (default `100000`: the incremental-allocator scale point;
//!   the central engine is ~2 orders slower per event than decentral,
//!   so it gets its own, smaller default axis)
//! - `HOPPER_BENCH_SCALE_ENGINES` — comma-separated engine filter,
//!   `decentral` / `central` (default both)
//! - `HOPPER_BENCH_MACHINES`   — cluster size (default 2 000)
//! - `HOPPER_BENCH_DRIFT`     — `realloc_drift` for the central run
//!   (default 0 = exact eager-equivalent reallocation)

use std::time::Instant;

use hopper_central::{self as central, HopperConfig, Policy, SimConfig};
use hopper_decentral::{self as decentral, DecConfig, DecPolicy};
use hopper_sim::SimTime;
use hopper_workload::{ArrivalSource, TraceGenerator, WorkloadProfile};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_f64(name: &str, default: f64) -> f64 {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn env_list(name: &str, default: &[usize]) -> Vec<usize> {
    std::env::var(name)
        .ok()
        .map(|v| {
            v.split(',')
                .filter_map(|s| s.trim().parse().ok())
                .collect::<Vec<usize>>()
        })
        .filter(|v| !v.is_empty())
        .unwrap_or_else(|| default.to_vec())
}

fn job_counts() -> Vec<usize> {
    env_list("HOPPER_BENCH_SCALE_JOBS", &[10_000, 100_000, 1_000_000])
}

/// Peak resident set size in KiB (`VmHWM` from /proc; 0 off Linux).
fn peak_rss_kb() -> u64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|v| v.parse().ok())
        })
        .unwrap_or(0)
}

/// One JSON result line (shared by both engines).
#[allow(clippy::too_many_arguments)]
fn report(
    driver: &str,
    policy: &str,
    jobs: usize,
    machines: usize,
    total_slots: usize,
    events: u64,
    wall_ms: f64,
    live_high_water: usize,
    mean_jct_ms: f64,
    p99_jct_ms: f64,
    makespan_ms: u64,
) {
    let eps = if wall_ms > 0.0 {
        events as f64 / (wall_ms / 1000.0)
    } else {
        f64::INFINITY
    };
    let hw_pct = 100.0 * live_high_water as f64 / jobs.max(1) as f64;
    println!(
        "{{\"bench\":\"fig_scale\",\"driver\":\"{driver}\",\"policy\":\"{policy}\",\
         \"jobs\":{jobs},\"machines\":{machines},\"total_slots\":{total_slots},\
         \"events\":{events},\"wall_ms\":{wall_ms:.1},\"events_per_sec\":{eps:.0},\
         \"live_high_water\":{live_high_water},\"live_high_water_pct\":{hw_pct:.3},\
         \"peak_rss_kb\":{},\"mean_jct_ms\":{mean_jct_ms:.1},\"p99_jct_ms\":{p99_jct_ms:.1},\
         \"makespan_ms\":{makespan_ms}}}",
        peak_rss_kb(),
    );
    // The floor covers short smoke runs: the natural active set scales
    // with cluster capacity, not stream length, so small job counts sit
    // under `~slots/4` live jobs regardless of retirement. At the
    // default sizes (≥100k jobs) the 5% criterion dominates unchanged.
    assert!(
        live_high_water as f64
            <= (jobs as f64 * 0.05)
                .max(500.0)
                .max(total_slots as f64 / 4.0),
        "live-job high-water {live_high_water} exceeds 5% of {jobs} — retirement is not keeping up"
    );
}

fn main() {
    let machines = env_usize("HOPPER_BENCH_MACHINES", 2_000);
    let sizes = job_counts();
    let central_sizes = env_list("HOPPER_BENCH_SCALE_JOBS_CENTRAL", &[100_000]);
    let engines =
        std::env::var("HOPPER_BENCH_SCALE_ENGINES").unwrap_or_else(|_| "decentral,central".into());
    let engines: Vec<&str> = engines.split(',').map(str::trim).collect();
    let drift = env_f64("HOPPER_BENCH_DRIFT", 0.0);
    eprintln!(
        "fig_scale bench: streaming pipeline, {machines} machines, engines {engines:?}, \
         decentral sizes {sizes:?}, central sizes {central_sizes:?}, realloc_drift {drift} \
         (HOPPER_BENCH_SCALE_JOBS / HOPPER_BENCH_SCALE_JOBS_CENTRAL / \
         HOPPER_BENCH_SCALE_ENGINES / HOPPER_BENCH_MACHINES / HOPPER_BENCH_DRIFT)"
    );
    // The throughput bench's workload shape: interactive single-phase
    // Facebook jobs, the one that stresses per-event dispatch and the
    // arrival/retirement machinery rather than straggler modelling.
    let profile = WorkloadProfile::facebook().interactive().single_phase();
    let base_cfg = DecConfig {
        cluster: hopper_cluster::ClusterConfig {
            machines,
            slots_per_machine: 2,
            handoff_ms: 0,
            ..Default::default()
        },
        num_schedulers: 20,
        scan_interval: SimTime::from_millis(1000),
        seed: 1,
        ..Default::default()
    };
    let total_slots = base_cfg.cluster.total_slots();
    if engines.contains(&"decentral") {
        for &jobs in &sizes {
            // The livelock valve defaults to a budget sized for ≤100k-job
            // runs; a million-job stream legitimately processes ~700M
            // events (~700 per job at this shape), so scale it with size.
            let cfg = DecConfig {
                max_events: (jobs as u64).saturating_mul(2_000).max(500_000_000),
                ..base_cfg.clone()
            };
            let stream = TraceGenerator::new(profile.clone(), jobs, 1)
                .stream_with_utilization(total_slots, 0.7);
            let start = Instant::now();
            let out = decentral::run_source(
                ArrivalSource::from_stream(stream),
                DecPolicy::Hopper,
                &cfg,
                false,
            );
            let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
            report(
                "decentral",
                "Hopper(dec)",
                jobs,
                machines,
                total_slots,
                out.stats.events,
                wall_ms,
                out.report.live_high_water,
                out.report.digest.mean_ms(),
                out.report.digest.quantile_ms(0.99),
                out.stats.makespan.as_millis(),
            );
        }
    }
    // The centralized engine's streaming scale point: the incremental
    // allocator (ISSUE 6) is what makes ≥100k-job central streams
    // reachable at all — the eager O(active)-per-event allocator sat
    // ~500× below decentral throughput. `HOPPER_BENCH_DRIFT > 0`
    // additionally exercises the bounded-staleness mode at scale.
    if engines.contains(&"central") {
        let central_cluster = hopper_cluster::ClusterConfig {
            machines,
            slots_per_machine: 4,
            ..Default::default()
        };
        let central_slots = central_cluster.total_slots();
        for &jobs in &central_sizes {
            let cfg = SimConfig {
                cluster: central_cluster.clone(),
                scan_interval: SimTime::from_millis(1000),
                seed: 1,
                max_events: (jobs as u64).saturating_mul(2_000).max(200_000_000),
                ..Default::default()
            };
            let policy = Policy::Hopper(HopperConfig {
                realloc_drift: drift,
                ..Default::default()
            });
            let stream = TraceGenerator::new(profile.clone(), jobs, 1)
                .stream_with_utilization(central_slots, 0.7);
            let start = Instant::now();
            let out = central::run_source(ArrivalSource::from_stream(stream), &policy, &cfg, false);
            let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
            report(
                "central",
                policy.name(),
                jobs,
                machines,
                central_slots,
                out.stats.events,
                wall_ms,
                out.report.live_high_water,
                out.report.digest.mean_ms(),
                out.report.digest.quantile_ms(0.99),
                out.stats.makespan.as_millis(),
            );
            eprintln!(
                "central alloc counters: recomputes {} suffix_fills {} reuses {} stale_skips {}",
                out.alloc_counters.recomputes,
                out.alloc_counters.suffix_fills,
                out.alloc_counters.reuses,
                out.alloc_counters.stale_skips
            );
        }
    }
}
