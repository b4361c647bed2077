//! Sharded-engine scaling bench (`cargo bench --bench fig_shard`).
//!
//! Not a paper figure: it measures the conservative-PDES engine's
//! events/sec as a function of shard count on one large decentralized
//! scenario, with and without the message-fault storm (faults shrink the
//! conservative windows' useful work per barrier, so they are the
//! pessimistic case for shard scaling). Because every shard count `>= 1`
//! is bit-identical, the bench also doubles as a large-scale equivalence
//! check: it asserts the event count and makespan match the shards=1
//! reference in every cell before reporting a number.
//!
//! The serial driver (`shards=0`) is reported once per fault mode as
//! context — it runs a *different* (documented) equivalence family with
//! its own event count, so its line carries `engine:"serial"` and is not
//! comparable event-for-event with the sharded rows.
//!
//! Every run covers both fault modes, off then on. One machine-parseable
//! JSON line per cell. Sizing knobs (the `events_per_sec_vs_shards`
//! rows of `docs/perf-history.tsv` record a run at the defaults):
//!
//! - `HOPPER_BENCH_JOBS`         — jobs per trace (default 100 000)
//! - `HOPPER_BENCH_MACHINES`     — cluster size (default 2 000)
//! - `HOPPER_BENCH_SHARD_COUNTS` — comma-separated shard counts
//!   (default `1,2,4`)

use std::time::Instant;

use hopper_cluster::ClusterConfig;
use hopper_decentral::{self as decentral, DecConfig, DecPolicy, FaultConfig};
use hopper_metrics::RunSummary;
use hopper_sim::SimTime;
use hopper_workload::{Trace, TraceGenerator, WorkloadProfile};

fn env_usize(name: &str, default: usize) -> usize {
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

fn trace(seed: u64, jobs: usize, total_slots: usize) -> Trace {
    let profile = WorkloadProfile::facebook().interactive().single_phase();
    TraceGenerator::new(profile, jobs, seed).generate_with_utilization(total_slots, 0.7)
}

/// The storm used for the faults-on axis: the acceptance loss rate with
/// jitter and duplication (scheduler crashes excluded so the faulted
/// cells finish in bench-budget time at 100k jobs).
fn storm() -> FaultConfig {
    FaultConfig {
        msg_loss: 0.02,
        msg_jitter_ms: 5,
        msg_dup: 0.02,
        ..FaultConfig::off()
    }
}

struct Cell {
    events: u64,
    wall_ms: f64,
    makespan: SimTime,
    mean_ms: f64,
    jobs_done: usize,
    shard: Option<decentral::ShardStats>,
}

fn run_cell(t: &Trace, machines: usize, faults: bool, shards: usize, seed: u64) -> Cell {
    let cfg = DecConfig {
        cluster: ClusterConfig {
            machines,
            slots_per_machine: 2,
            handoff_ms: 0,
            ..Default::default()
        },
        num_schedulers: 20,
        scan_interval: SimTime::from_millis(1000),
        seed,
        shards,
        faults: if faults { storm() } else { FaultConfig::off() },
        ..Default::default()
    };
    let start = Instant::now();
    let out = decentral::run(t, DecPolicy::Hopper, &cfg);
    let wall_ms = start.elapsed().as_secs_f64() * 1000.0;
    Cell {
        events: out.stats.events,
        wall_ms,
        makespan: out.stats.makespan,
        mean_ms: out.mean_duration_ms(),
        jobs_done: out.jobs.len(),
        shard: out.shard,
    }
}

fn report(engine: &str, faults: bool, shards: usize, jobs: usize, machines: usize, c: &Cell) {
    let eps = if c.wall_ms > 0.0 {
        c.events as f64 / (c.wall_ms / 1000.0)
    } else {
        f64::INFINITY
    };
    let (windows, stalls, cross) = c
        .shard
        .as_ref()
        .map_or((0, 0, 0), |s| (s.windows, s.horizon_stalls, s.cross_msgs));
    println!(
        "{{\"bench\":\"fig_shard\",\"engine\":\"{engine}\",\"faults\":{faults},\
         \"shards\":{shards},\"jobs\":{jobs},\"machines\":{machines},\
         \"events\":{},\"wall_ms\":{:.1},\"events_per_sec\":{eps:.0},\
         \"mean_job_duration_ms\":{:.1},\"makespan_ms\":{},\
         \"windows\":{windows},\"horizon_stalls\":{stalls},\"cross_msgs\":{cross}}}",
        c.events,
        c.wall_ms,
        c.mean_ms,
        c.makespan.as_millis()
    );
}

fn main() {
    let jobs = env_usize("HOPPER_BENCH_JOBS", 100_000);
    let machines = env_usize("HOPPER_BENCH_MACHINES", 2_000);
    let shard_counts = env_list("HOPPER_BENCH_SHARD_COUNTS", &[1, 2, 4]);
    let seed = 1;
    eprintln!(
        "fig_shard bench: {jobs} jobs, {machines} machines, shard counts {shard_counts:?}, \
         faults off and on (HOPPER_BENCH_JOBS / HOPPER_BENCH_MACHINES / \
         HOPPER_BENCH_SHARD_COUNTS)"
    );
    let t = trace(seed, jobs, machines * 2);
    for faults in [false, true] {
        // Serial-driver context line (its own equivalence family).
        let serial = run_cell(&t, machines, faults, 0, seed);
        assert_eq!(serial.jobs_done, jobs, "serial run lost jobs");
        report("serial", faults, 0, jobs, machines, &serial);

        let mut reference: Option<Cell> = None;
        for &shards in &shard_counts {
            let cell = run_cell(&t, machines, faults, shards.max(1), seed);
            assert_eq!(cell.jobs_done, jobs, "sharded run lost jobs");
            if let Some(r) = &reference {
                // Large-scale partition-independence: same events, same
                // makespan, same mean, at every shard count.
                assert_eq!(r.events, cell.events, "event count drifted");
                assert_eq!(r.makespan, cell.makespan, "makespan drifted");
                assert_eq!(r.mean_ms.to_bits(), cell.mean_ms.to_bits(), "mean drifted");
            }
            report("sharded", faults, shards.max(1), jobs, machines, &cell);
            reference.get_or_insert(cell);
        }
    }
}
