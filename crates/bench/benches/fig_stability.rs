//! Stability-frontier figure (`cargo bench --bench fig_stability`).
//!
//! Not a paper figure: it maps each policy's *stability frontier* — the
//! maximum sustainable target utilization, found by bisection on the
//! unbounded-queue detector (`hopper_experiment::find_frontier`) — and
//! compares stationary (constant-rate) against diurnal arrivals at the
//! same time-average load. The paper's Figure 6 sweeps utilization up
//! to 90% and shows Hopper's gains growing with load; this bench asks
//! the complementary question: *where does each scheduler stop keeping
//! up, and does a non-stationary arrival pattern move that point?*
//!
//! Cells: {Hopper, Sparrow} on the decentralized deployment and SRPT on
//! the centralized one, × {constant, diurnal} rate profiles. Every cell
//! is one deterministic bisection (first seed only — the detector reads
//! one streaming run per probe), fanned across worker threads by
//! `frontier_grid`, so output is identical at every thread count.
//!
//! The probe workload is the *low-variance reference* (single phase,
//! fixed job size, fixed β) rather than the raw Facebook profile: under
//! a BoundedPareto(1.1) job-size tail a finite run's saturation
//! transition is smeared across ±20% of utilization (one elephant
//! dominates every gauge), so frontier deltas between policies would be
//! seed noise. With near-iid jobs the transition is sharp and the
//! detected frontier is a property of the *scheduler*, not of one
//! elephant draw. The diurnal period is shortened so each probe spans
//! several cycles (a single partial cycle would let the final trough
//! drain the backlog and mask saturation).
//!
//! Output: the `frontier_csv` table
//! (`policy,rate_profile,frontier_lo,frontier_hi,probes`). Each cell
//! takes `FrontierConfig::default()`'s 7 bisection steps after the
//! endpoint probes (brackets to ≈ 0.007 in utilization). Sizing knob:
//!
//! - `HOPPER_BENCH_JOBS` — jobs per probe run (default 600: the
//!   live-jobs fraction signal needs enough jobs that a draining
//!   heavy-tailed run's elephants stay below it)

use hopper_bench::{central_spec, decentral_spec};
use hopper_experiment::{default_threads, frontier_csv, frontier_grid, FrontierConfig};

fn env_usize(name: &str, default: usize) -> usize {
    std::env::var(name)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn main() {
    println!(
        "\n=== fig_stability — stability frontiers: \
         max sustainable utilization per policy, stationary vs diurnal ==="
    );
    let cfg = FrontierConfig::default();

    // The probe utilization in these constructors is a placeholder —
    // bisection overwrites `util` on every probe. Probe runs need more
    // jobs than the figure benches' default 150 for the saturation
    // detector's fractions to be meaningful.
    let jobs = env_usize("HOPPER_BENCH_JOBS", 600);
    println!(
        "(jobs/probe: {jobs}, override via HOPPER_BENCH_JOBS; bisection steps: {})",
        cfg.iters
    );
    let reference = |s: &mut hopper_experiment::ExperimentSpec, profile: &str| {
        s.jobs = jobs;
        s.single_phase = true;
        s.fixed_tasks = Some(40);
        s.fixed_beta = Some(1.5);
        s.rate_profile = profile.to_string();
        s.rate_period_ms = 20_000;
    };
    let mut cells = Vec::new();
    for profile in ["constant", "diurnal"] {
        for policy in ["hopper", "sparrow"] {
            let mut s = decentral_spec(policy, "facebook", 0.8);
            reference(&mut s, profile);
            cells.push(s);
        }
        let mut s = central_spec("srpt", true, 0.8);
        reference(&mut s, profile);
        cells.push(s);
    }

    let results = frontier_grid(&cells, &cfg, default_threads())
        .expect("bench specs validate and probes run");
    println!("\n{}", frontier_csv(&results));
    println!(
        "(frontier in [lo, hi]; lo == hi at a bound means at/beyond it; \
         bisection bounds [{}, {}], {} steps)",
        cfg.lo, cfg.hi, cfg.iters
    );
}
