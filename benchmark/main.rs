//! `benchmark` — the repository benchmark.
//!
//! ```text
//! benchmark run   --workload NAME --seed N [--seconds S] [--reps N] [--smoke]
//! benchmark trace --workload NAME --seed N [--seconds S] [--reps N] [--smoke] [--out DIR]
//! benchmark --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! One workload per process. A run times set-up (spec parse, trace
//! materialization, config build) several times, runs an untimed warm-up
//! at a tenth of the jobs, then repeats the engine call on the same trace
//! until at least `--reps` runs and `--seconds` seconds are done. It
//! checks every output, prints one record of named metrics with units,
//! and ends with a one-line JSON result: the end-to-end metrics for
//! `run`, the per-layer metrics for `trace`. `trace` records spans
//! around the timed runs and one more warm-up run (the recorder's
//! overhead), adds the per-layer kernels and, for sharded or
//! telemetry-on workloads, the shard-count and telemetry comparisons,
//! and writes its spans to `<out>/spans-<workload>.jsonl`. The exit code is 0 when
//! every check passed, 1 when one failed and 2 on a usage error.

mod baseline;
mod kernels;
mod record;
mod spans;
mod stats;
mod workload;

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::path::PathBuf;
use std::process::exit;
use std::time::Instant;

use hopper_central::{HopperConfig, Policy};
use hopper_decentral::DecPolicy;
use hopper_metrics::{percentile, RunReport};

use record::{ratio, Record, END_TO_END, PER_LAYER};
use spans::Spans;
use stats::{median, Bound, Summary};
use workload::{Config, Output, Setup, Size};

const USAGE: &str = "usage: benchmark [run|trace] --workload NAME --seed N \
                     [--seconds S] [--reps N] [--trace 0|1] [--out DIR] [--smoke]";

/// Set-ups timed per run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Window of the β-estimator kernel: `BetaEstimator::with_prior`'s.
const BETA_WINDOW: usize = 2000;

/// No job may fail: jobs not completed ÷ jobs offered must stay at 0.
/// (It is not in `BENCHMARK.json`, whose metrics must never read 0; the
/// result line carries it as `attempted`/`failed`.)
const FAILED_JOB_FRAC_BOUND: Bound = Bound::Absolute(0.0);

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    /// Time budget of the timed runs: after `reps` of them, another one
    /// starts only if it should end within this many seconds.
    seconds: f64,
    /// Minimum number of timed runs.
    reps: usize,
    trace: bool,
    out: PathBuf,
    smoke: bool,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let mut rest = args;
    let mut trace = false;
    match args.first().map(String::as_str) {
        Some("run") => rest = &args[1..],
        Some("trace") => {
            trace = true;
            rest = &args[1..];
        }
        _ => {}
    }
    let mut workload = None;
    let mut seed = None;
    let mut seconds = 0.0;
    let mut reps = 1;
    let mut out = PathBuf::from("target/benchmark-trace");
    let mut smoke = false;
    let mut it = rest.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: expected {what}, got `{value}`");
        match flag.as_str() {
            "--workload" => workload = Some(value.clone()),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| bad("seconds >= 0"))?
            }
            "--reps" => {
                reps = value
                    .parse()
                    .ok()
                    .filter(|&r| r >= 1)
                    .ok_or_else(|| bad("a count >= 1"))?
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            "--out" => out = PathBuf::from(value),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if workload::spec_text(&workload).is_none() {
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|(n, _)| *n).collect();
        return Err(format!(
            "unknown workload `{workload}`; known: {}",
            names.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        reps,
        trace,
        out,
        smoke,
    })
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            exit(2);
        }
    };
    let outcome = match execute(&args) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("benchmark: {e}");
            exit(2);
        }
    };
    outcome.print(&args);
    exit(if outcome.correct() { 0 } else { 1 });
}

/// Jobs offered and completed, and the named correctness checks.
#[derive(Debug, Default)]
struct Tally {
    attempted: u64,
    completed: u64,
    checks: Vec<(String, bool)>,
}

impl Tally {
    /// Record a check; a repeated name passes only if every instance did.
    fn check(&mut self, name: &str, ok: bool) {
        match self.checks.iter_mut().find(|(n, _)| n == name) {
            Some(c) => c.1 &= ok,
            None => self.checks.push((name.to_string(), ok)),
        }
    }

    fn passed(&self) -> bool {
        self.checks.iter().all(|(_, ok)| *ok)
    }

    /// Run the engine once, catching a panic (a failed invariant or an
    /// exhausted `max_events` budget), and check every offered job
    /// completed.
    fn run(&mut self, what: &str, setup: &Setup, config: &Config) -> Option<Output> {
        let jobs = setup.trace.len() as u64;
        self.attempted += jobs;
        let out = catch_unwind(AssertUnwindSafe(|| workload::run(config, &setup.trace))).ok();
        self.check(&format!("{what}: no panic"), out.is_some());
        let done = out.as_ref().map_or(0, |o| o.report().digest.count());
        self.completed += done;
        self.check(&format!("{what}: every job completes"), done == jobs);
        out
    }
}

/// Same simulation: identical counter core and JCT digest.
fn same_simulation(a: &RunReport, b: &RunReport) -> bool {
    a.core == b.core && a.digest == b.digest
}

/// Hash of the run's `CoreStats` and JCT digest.
fn fingerprint(report: &RunReport) -> String {
    format!(
        "{:016x}",
        record::fnv1a(&format!("{:?}{:?}", report.core, report.digest))
    )
}

/// The §3 motivating example still gives Table 1: job durations of
/// 20/30 s best-effort, 12/32 s budgeted, 12/22 s under Hopper.
fn table1_reproduces() -> bool {
    use hopper_central::scenario::{motivating_sim_config, motivating_trace};
    let (trace, _) = motivating_trace();
    let cfg = motivating_sim_config();
    let durations = |policy: Policy| {
        let out = hopper_central::run(&trace, &policy, &cfg);
        let of = |job| {
            out.jobs
                .iter()
                .find(|r| r.job == job)
                .map(|r| r.duration_ms())
        };
        (of(0), of(1))
    };
    let budgeted = Policy::BudgetedSrpt {
        budget_fraction: 3.0 / 7.0,
    };
    durations(Policy::Srpt) == (Some(20_000), Some(30_000))
        && durations(budgeted) == (Some(12_000), Some(32_000))
        && durations(Policy::Hopper(HopperConfig::pure())) == (Some(12_000), Some(22_000))
}

/// Peak resident set of this process (`VmHWM`), MB.
fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("peak RSS needs /proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map(|kb| kb / 1024.0)
        .ok_or_else(|| "no VmHWM line in /proc/self/status".to_string())
}

/// What one invocation measured.
struct Outcome {
    record: Record,
    tally: Tally,
    /// Timed samples printed with the record: name, unit, values.
    samples: Vec<(&'static str, &'static str, Vec<f64>)>,
    threads: usize,
    fingerprint: Option<String>,
    /// Simulation results printed but not gated: they vary too much
    /// between seeds for a bound (see the README).
    ungated: String,
    spans_file: Option<PathBuf>,
}

impl Outcome {
    fn correct(&self) -> bool {
        self.tally.passed() && self.fingerprint.is_some()
    }

    fn failed(&self) -> u64 {
        if self.correct() {
            self.tally.attempted - self.tally.completed
        } else {
            self.tally.attempted
        }
    }

    fn print(&self, args: &Args) {
        let size = if args.smoke { "smoke" } else { "full" };
        let mode = if args.trace { "trace" } else { "run" };
        println!(
            "benchmark {mode} workload={} seed={} size={size} threads={} nproc={}",
            args.workload,
            args.seed,
            self.threads,
            nproc()
        );
        if same_release_profile() {
            println!("release profile: the repository's");
        } else {
            println!(
                "release profile: DIFFERS from the repository's Cargo.toml; \
                 copy it into benchmark/Cargo.toml"
            );
        }
        for (name, ok) in &self.tally.checks {
            println!("check {:<40} {}", name, if *ok { "ok" } else { "FAILED" });
        }
        let failed_frac = ratio(self.failed() as f64, self.tally.attempted as f64);
        let verdict = if stats::regressed(0.0, failed_frac, FAILED_JOB_FRAC_BOUND, false) {
            "FAILED"
        } else {
            "ok"
        };
        println!(
            "failed_job_frac {failed_frac} ({} of {} jobs) {verdict}",
            self.failed(),
            self.tally.attempted
        );
        if let Some(fp) = &self.fingerprint {
            let pinned = baseline::fingerprint(&args.workload)
                .filter(|_| args.seed == baseline::SEED && !args.smoke);
            let changed = match pinned {
                Some(p) if p == fp => "no",
                Some(_) => "yes",
                None => "unpinned (pinned for the full size at the baseline seed)",
            };
            println!("sim_fingerprint {fp} sim_changed {changed}");
            println!("ungated {}", self.ungated);
        }
        for (name, unit, values) in &self.samples {
            if let Some(s) = Summary::of(values) {
                println!(
                    "samples {name}: median {} min {} max {} q1 {} q3 {} n {} {unit}",
                    s.median, s.min, s.max, s.q1, s.q3, s.n
                );
            }
        }
        println!("metrics:");
        for line in self.record.lines() {
            println!("{line}");
        }
        if args.seed == baseline::SEED && !args.smoke {
            for m in END_TO_END {
                let (Some(base), Some(v)) = (
                    baseline::median(&args.workload, m.name),
                    self.record.get(m.name),
                ) else {
                    continue;
                };
                let verdict = if stats::regressed(base, v, m.bound(), m.higher_is_better) {
                    "WORSE than bound"
                } else {
                    "within bound"
                };
                println!(
                    "baseline {:<14} {base} -> {v} {verdict} ({})",
                    m.name, m.bound
                );
            }
        }
        if let Some(path) = &self.spans_file {
            println!("spans {}", path.display());
        }
        let names: Vec<&str> = if args.trace {
            PER_LAYER.iter().map(|(n, _, _)| *n).collect()
        } else {
            END_TO_END.iter().map(|m| m.name).collect()
        };
        let complete = names.iter().all(|n| self.record.get(n).is_some());
        let line = if complete {
            self.record
                .json_line(names, self.correct(), self.tally.attempted, self.failed())
        } else {
            format!(
                "{{\"correct\":false,\"attempted\":{},\"failed\":{},\"metrics\":{{}}}}",
                self.tally.attempted.max(1),
                self.tally.attempted.max(1)
            )
        };
        println!("{line}");
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The settings of a manifest's `[profile.release]` table, one per line,
/// without comments and blank lines.
fn release_profile(manifest: &str) -> Vec<&str> {
    manifest
        .lines()
        .map(str::trim)
        .skip_while(|l| *l != "[profile.release]")
        .skip(1)
        .take_while(|l| !l.starts_with('['))
        .filter(|l| !l.is_empty() && !l.starts_with('#'))
        .collect()
}

/// Whether this package is built with the repository workspace's release
/// profile, of which its own manifest keeps a copy.
fn same_release_profile() -> bool {
    let ours = release_profile(include_str!("Cargo.toml"));
    !ours.is_empty() && ours == release_profile(include_str!("../Cargo.toml"))
}

fn execute(args: &Args) -> Result<Outcome, String> {
    let text = workload::spec_text(&args.workload).expect("parse_args checked the name");
    let (size, setups, reps, seconds) = if args.smoke {
        (Size::SMOKE, 1, 1, 0.0)
    } else {
        (Size::FULL, SETUPS, args.reps, args.seconds)
    };
    let mut spans = Spans::new(&args.workload, args.trace);
    let mut tally = Tally::default();
    tally.check("section 3 example reproduces Table 1", table1_reproduces());

    // Set-up, timed several times; the last one is used.
    let (mut setup_s, mut build_s, mut gen_s) = (vec![], vec![], vec![]);
    let mut setup = None;
    for _ in 0..setups {
        drop(setup.take());
        let (s, secs) = spans.scope("setup", |sp| {
            workload::setup(text, args.seed, size, nproc(), sp)
        });
        let s = s.map_err(|e| e.to_string())?;
        setup_s.push(secs);
        build_s.push(s.build_s);
        gen_s.push(s.gen_s);
        setup = Some(s);
    }
    let setup = setup.expect("at least one set-up");
    let threads = setup.config.threads();
    assert!(threads <= nproc(), "set-up caps shards at the core count");

    // Untimed warm-up at a tenth of the jobs, run twice: the pair checks
    // determinism, and the second, unrecorded run is the base the trace's
    // overhead and variant runs are compared with.
    spans.set_recording(false);
    let warm = workload::setup(text, args.seed, size.warm_up(), nproc(), &mut spans)
        .map_err(|e| e.to_string())?;
    let warm_first = tally.run("warm-up", &warm, &warm.config);
    let (warm_out, warm_s) = spans.scope("run", |_| tally.run("warm-up", &warm, &warm.config));
    let repeatable = match (&warm_first, &warm_out) {
        (Some(a), Some(b)) => a.report() == b.report(),
        _ => false,
    };
    tally.check("warm-up runs are bit-identical", repeatable);

    // `trace` records from here on, the timed runs included: the same
    // warm-up once more, now recorded, gives the recorder's overhead.
    let mut trace_overhead = None;
    if args.trace {
        spans.set_recording(true);
        let (again, secs) =
            spans.scope("run.warm_up", |_| tally.run("warm-up", &warm, &warm.config));
        let same =
            again.is_some_and(|a| warm_out.as_ref().is_some_and(|w| a.report() == w.report()));
        tally.check("warm-up runs are bit-identical", same);
        trace_overhead = Some(ratio(secs, warm_s));
    }

    // Timed runs of the full trace: at least `reps`, then more while
    // another one still fits in `seconds`.
    let started = Instant::now();
    let mut walls: Vec<f64> = vec![];
    let mut first: Option<Output> = None;
    let mut identical = true;
    while walls.len() < reps
        || walls
            .last()
            .is_some_and(|w| started.elapsed().as_secs_f64() + w <= seconds)
    {
        let (out, secs) = spans.scope("run", |_| tally.run("timed run", &setup, &setup.config));
        let Some(out) = out else { break };
        walls.push(secs);
        match &first {
            None => first = Some(out),
            Some(f) => identical &= f.report() == out.report(),
        }
    }
    tally.check("timed runs are bit-identical", identical);
    let Some(out) = first else {
        return Ok(Outcome {
            record: Record::default(),
            tally,
            samples: vec![],
            threads,
            fingerprint: None,
            ungated: String::new(),
            spans_file: None,
        });
    };
    let run_s = median(&walls);
    let tasks_per_s: Vec<f64> = walls.iter().map(|w| setup.tasks as f64 / w).collect();

    let mut r = Record::default();
    let report = out.report();
    r.set("tasks_per_s", median(&tasks_per_s));
    r.set("setup_s", median(&setup_s));
    r.set("jct_mean_ms", report.digest.mean_ms());
    let durations: Vec<f64> = out.jobs().iter().map(|j| j.duration_ms() as f64).collect();
    r.set("jct_p50_ms", percentile(&durations, 0.50));
    r.set("jct_p95_ms", percentile(&durations, 0.95));
    counters(&mut r, &setup, &out, run_s, &build_s, &gen_s);

    let mut spans_file = None;
    if let Some(overhead) = trace_overhead {
        r.set("benchmark.trace_overhead", overhead);
        kernel_metrics(&mut r, &mut spans, &setup, &out, run_s);
        if let Some(w) = &warm_out {
            variants(&mut r, &mut spans, &mut tally, &warm, w.report(), warm_s);
        }
        spans_file = Some(
            spans
                .write_jsonl(&args.out)
                .map_err(|e| format!("writing spans to {}: {e}", args.out.display()))?,
        );
    }
    r.set("peak_rss_mb", peak_rss_mb()?);

    let ungated = format!(
        "makespan_s {} jct_p99_ms {} jct_max_ms {}",
        report.core.makespan.as_secs_f64(),
        percentile(&durations, 0.99),
        report.digest.max_ms()
    );
    Ok(Outcome {
        fingerprint: Some(fingerprint(report)),
        ungated,
        record: r,
        tally,
        samples: vec![
            ("tasks_per_s", "tasks/s", tasks_per_s),
            ("run_s", "s", walls),
            ("setup_s", "s", setup_s),
        ],
        threads,
        spans_file,
    })
}

/// Per-layer metrics read from the engine's own counters (exact per
/// seed), plus the set-up step times and the run's event rate.
fn counters(
    r: &mut Record,
    setup: &Setup,
    out: &Output,
    run_s: f64,
    build_s: &[f64],
    gen_s: &[f64],
) {
    let report = out.report();
    let core = &report.core;
    let tasks = setup.tasks as f64;
    let jobs = setup.trace.len() as f64;
    let events = core.events as f64;
    r.set("experiment.build_ms", median(build_s) * 1e3);
    r.set("workload.gen_ms", median(gen_s) * 1e3);
    r.set("workload.tasks", tasks);
    r.set(
        "workload.gen_ns_per_task",
        ratio(median(gen_s) * 1e9, tasks),
    );
    r.set("sim.events", events);
    r.set("sim.events_per_s", ratio(events, run_s));
    r.set("sim.ns_per_event", ratio(run_s * 1e9, events));
    r.set("cluster.live_high_water", report.live_high_water as f64);
    let (launched, won) = (core.spec_launched as f64, core.spec_won as f64);
    r.set("spec.spec_launched", launched);
    r.set("spec.spec_won", won);
    r.set("spec.spec_win_frac", ratio(won, launched));
    r.set("spec.spec_per_task", ratio(launched, tasks));
    r.set(
        "metrics.telemetry_windows",
        report.telemetry.as_ref().map_or(0, |t| t.windows.len()) as f64,
    );

    let (alloc, central) = match out {
        Output::Central(o) => (Some(o.alloc_counters), Some(&o.stats)),
        Output::Decentral(_) => (None, None),
    };
    let alloc = alloc.unwrap_or_default();
    r.set("core.alloc_recomputes", alloc.recomputes as f64);
    r.set("core.alloc_suffix_fills", alloc.suffix_fills as f64);
    r.set("core.alloc_reuses", alloc.reuses as f64);
    r.set("core.alloc_stale_skips", alloc.stale_skips as f64);
    let c = central.cloned().unwrap_or_default();
    r.set("central.killed", c.killed as f64);
    r.set(
        "central.spec_warm_frac",
        ratio(c.spec_warm as f64, c.spec_launched as f64),
    );
    r.set(
        "central.constrained_frac",
        ratio(
            c.constrained_jobs as f64,
            (c.constrained_jobs + c.proportional_jobs) as f64,
        ),
    );

    let (d, shard) = match out {
        Output::Decentral(o) => (o.stats.clone(), o.shard.clone().unwrap_or_default()),
        Output::Central(_) => Default::default(),
    };
    r.set("decentral.reservations", d.reservations as f64);
    r.set("decentral.responses", d.responses as f64);
    r.set("decentral.refusals", d.refusals as f64);
    r.set(
        "decentral.guideline3_switches",
        d.guideline3_switches as f64,
    );
    r.set("decentral.msgs_per_job", ratio(core.messages as f64, jobs));
    r.set(
        "decentral.launches_per_reservation",
        ratio(
            (d.orig_launched + d.spec_launched) as f64,
            d.reservations as f64,
        ),
    );
    r.set("decentral.msgs_lost", d.msgs_lost as f64);
    r.set("decentral.msgs_duplicated", d.msgs_duplicated as f64);
    r.set("decentral.msgs_retried", d.msgs_retried as f64);
    r.set("decentral.timeouts_fired", d.timeouts_fired as f64);
    r.set("decentral.orphan_reclaimed", d.orphan_reclaimed as f64);
    r.set("decentral.shard_windows", shard.windows as f64);
    r.set("decentral.horizon_stalls", shard.horizon_stalls as f64);
    r.set("decentral.cross_msgs", shard.cross_msgs as f64);
    r.set("decentral.local_msgs", shard.local_msgs as f64);
    r.set(
        "decentral.cross_frac",
        ratio(
            shard.cross_msgs as f64,
            (shard.cross_msgs + shard.local_msgs) as f64,
        ),
    );
    r.set(
        "decentral.events_per_window",
        ratio(events, shard.windows as f64),
    );
}

/// Per-layer kernel costs, each in its own `kernel.<layer>.<name>` span,
/// and the shares they imply for a run of `run_s` seconds.
fn kernel_metrics(r: &mut Record, spans: &mut Spans, setup: &Setup, out: &Output, run_s: f64) {
    let cluster = setup.config.cluster().clone();
    let slots = cluster.total_slots();
    let live = out.report().live_high_water;
    let mut kernel = |name: &str, f: &dyn Fn() -> f64| spans.scope(name, |_| f()).0;
    let queue = kernel("kernel.sim.queue", &|| kernels::queue_hold(slots));
    let floor = kernel("kernel.sim.floor", &|| kernels::heap_floor(slots));
    let alloc = kernel("kernel.core.alloc", &|| kernels::alloc_update(live, slots));
    let beta = kernel("kernel.core.beta", &|| kernels::beta_observe(BETA_WINDOW));
    let mailbox = kernel("kernel.core.mailbox", &kernels::mailbox_round_trip);
    let barrier = kernel("kernel.core.barrier", &kernels::barrier_wait);
    let bind = kernel("kernel.cluster.bind", &|| {
        kernels::bind_idle(&cluster, live)
    });
    let occupy = kernel("kernel.cluster.occupy", &|| {
        kernels::occupy_release(&cluster, live)
    });
    let sketch = kernel("kernel.metrics.sketch", &kernels::sketch_observe);

    let run_ns = run_s * 1e9;
    let ns_per_event = r.get("sim.ns_per_event").expect("counters() ran first");
    r.set("sim.queue_ns_per_op", queue);
    r.set("sim.floor_ns_per_op", floor);
    r.set("sim.engine_over_floor", ratio(ns_per_event, floor));
    r.set("core.alloc_ns_per_call", alloc);
    let recomputes = r
        .get("core.alloc_recomputes")
        .expect("counters() ran first");
    r.set("core.alloc_share", ratio(recomputes * alloc, run_ns));
    // A learning Hopper scheduler observes one duration multiplier and
    // re-sweeps its window about once per completed task.
    let learns_beta = match &setup.config {
        Config::Central(Policy::Hopper(h), _) => h.learn_beta,
        Config::Decentral(p, _) => *p == DecPolicy::Hopper,
        Config::Central(..) => false,
    };
    let sweeps = if learns_beta { setup.tasks as f64 } else { 0.0 };
    r.set("core.beta_ns_per_call", beta);
    r.set("core.beta_share", ratio(sweeps * beta, run_ns));
    r.set("core.mailbox_ns_per_msg", mailbox);
    r.set("core.barrier_ns_per_wait", barrier);
    r.set("cluster.bind_ns_per_call", bind);
    r.set("cluster.occupy_release_ns", occupy);
    r.set("metrics.sketch_ns_per_obs", sketch);
}

/// For a sharded workload, the warm-up trace again at one shard; for a
/// telemetry-on workload, again with telemetry off. Each must simulate
/// exactly what the warm-up did (`base`, in `base_s` seconds); the
/// wall-time ratios are the shard and telemetry overheads. Each variant
/// run is followed by a configured one, and the configured side is the
/// mean of that run and `base_s`, so host-speed drift lands on both
/// sides. One variant run each keeps a traced storm under 30 s.
fn variants(
    r: &mut Record,
    spans: &mut Spans,
    tally: &mut Tally,
    warm: &Setup,
    base: &RunReport,
    base_s: f64,
) {
    let mut overhead = |name: &str, label: &str, config: Config, tally: &mut Tally| {
        let (alt, alt_s) = spans.scope(name, |_| tally.run(label, warm, &config));
        let same = alt.is_some_and(|a| same_simulation(a.report(), base));
        tally.check(&format!("{label}: same simulation"), same);
        let (again, again_s) =
            spans.scope("run.warm_up", |_| tally.run("warm-up", warm, &warm.config));
        let same = again.is_some_and(|a| a.report() == base);
        tally.check("warm-up runs are bit-identical", same);
        ratio(median(&[base_s, again_s]), alt_s)
    };
    let (shards, telemetry) = match &warm.config {
        Config::Decentral(_, cfg) => (cfg.shards, cfg.telemetry_window_ms),
        Config::Central(_, cfg) => (0, cfg.telemetry_window_ms),
    };
    let shard_overhead = if shards >= 1 {
        overhead(
            "run.shards1",
            "one shard",
            warm.config.with_shards(1),
            tally,
        )
    } else {
        0.0
    };
    let telemetry_overhead = if telemetry > 0 {
        let config = warm.config.without_telemetry();
        overhead("run.telemetry_off", "telemetry off", config, tally)
    } else {
        0.0
    };
    r.set("decentral.shard_overhead", shard_overhead);
    r.set("metrics.telemetry_overhead", telemetry_overhead);
}

#[cfg(test)]
mod tests {
    use super::*;

    const BENCHMARK_JSON: &str = include_str!("../BENCHMARK.json");

    fn argv(args: &[&str]) -> Vec<String> {
        args.iter().map(|s| s.to_string()).collect()
    }

    /// Smoke-size arguments; `test` keeps concurrent tests' span
    /// directories apart.
    fn smoke(workload: &str, trace: bool, test: &str) -> Args {
        let dir = format!("hopper-benchmark-{}-{test}-{workload}", std::process::id());
        Args {
            workload: workload.to_string(),
            seed: 3,
            seconds: 0.0,
            reps: 1,
            trace,
            out: std::env::temp_dir().join(dir),
            smoke: true,
        }
    }

    /// `build_config` is a second copy of `ExperimentSpec::engine`: the
    /// benchmark's run must simulate exactly what `run_one` does.
    #[test]
    fn benchmark_config_matches_spec_run_one() {
        for (name, text) in workload::WORKLOADS {
            let spec = workload::spec(text, Size::SMOKE, usize::MAX).unwrap();
            let mut spans = Spans::new(name, false);
            let setup = workload::setup(text, 3, Size::SMOKE, usize::MAX, &mut spans).unwrap();
            let ours = workload::run(&setup.config, &setup.trace);
            let theirs = spec.run_one(3).unwrap();
            assert_eq!(ours.report(), theirs.report(), "{name}");
        }
    }

    /// Checks common to every smoke outcome; returns it for more.
    fn smoke_outcome(args: &Args) -> Outcome {
        let o = execute(args).unwrap();
        let name = &args.workload;
        assert!(o.correct(), "{name}: {:?}", o.tally.checks);
        assert!(o.tally.attempted > 0 && o.failed() == 0, "{name}");
        for m in END_TO_END {
            let v = o.record.get(m.name);
            assert!(v.is_some_and(|v| v > 0.0), "{name} {}: {v:?}", m.name);
        }
        // `run` leaves out the kernels; `trace` has every per-layer metric.
        let present = PER_LAYER
            .iter()
            .filter(|(n, _, _)| o.record.get(n).is_some());
        assert_eq!(present.count() == PER_LAYER.len(), args.trace, "{name}");
        o
    }

    #[test]
    fn smoke_runs_pass_every_check_on_every_workload() {
        for (name, _) in workload::WORKLOADS {
            smoke_outcome(&smoke(name, false, "run"));
        }
    }

    #[test]
    fn smoke_trace_writes_spans_and_every_per_layer_metric() {
        let args = smoke("central-hopper", true, "trace");
        let o = smoke_outcome(&args);
        let spans = std::fs::read_to_string(o.spans_file.expect("trace writes spans")).unwrap();
        for span in [
            "setup.spec",
            "setup.trace",
            "setup.config",
            "run",
            "kernel.sim.queue",
        ] {
            let needle = format!("\"name\":\"{span}\"");
            assert!(spans.contains(&needle), "no {span} span");
        }
        assert!(spans
            .lines()
            .all(|l| l.contains("\"workload\":\"central-hopper\"")));
        assert!(o.record.get("core.alloc_share").unwrap() > 0.0);
        std::fs::remove_dir_all(&args.out).unwrap();
    }

    #[test]
    fn sharded_and_telemetry_workloads_compare_against_their_variants() {
        let args = smoke("sharded-storm", true, "variants");
        let o = smoke_outcome(&args);
        let names: Vec<&str> = o.tally.checks.iter().map(|(n, _)| n.as_str()).collect();
        assert!(names.contains(&"one shard: same simulation"), "{names:?}");
        assert!(
            names.contains(&"telemetry off: same simulation"),
            "{names:?}"
        );
        assert!(o.record.get("decentral.shard_overhead").unwrap() > 0.0);
        assert!(o.record.get("metrics.telemetry_overhead").unwrap() > 0.0);
        std::fs::remove_dir_all(&args.out).unwrap();
    }

    #[test]
    fn driver_and_subcommand_forms_parse() {
        let a = parse_args(&argv(&[
            "--workload",
            "central-srpt",
            "--seed",
            "4",
            "--seconds",
            "12",
            "--trace",
            "1",
        ]))
        .unwrap();
        assert!(a.trace && a.seconds == 12.0 && a.seed == 4 && a.reps == 1 && !a.smoke);
        let b = parse_args(&argv(&[
            "run",
            "--workload",
            "central-srpt",
            "--seed",
            "4",
            "--reps",
            "5",
            "--smoke",
        ]))
        .unwrap();
        assert!(!b.trace && b.reps == 5 && b.smoke);
        let c = parse_args(&argv(&[
            "trace",
            "--workload",
            "sharded-storm",
            "--seed",
            "1",
            "--out",
            "x",
        ]))
        .unwrap();
        assert!(c.trace && c.out == std::path::Path::new("x"));
        for bad in [
            &[][..],
            &["--seed", "1"],
            &["--workload", "nope", "--seed", "1"],
            &["--workload", "central-srpt", "--seed", "x"],
            &["--workload", "central-srpt", "--seed", "1", "--trace", "2"],
            &["--workload", "central-srpt", "--seed", "1", "--reps", "0"],
            &[
                "--workload",
                "central-srpt",
                "--seed",
                "1",
                "--seconds",
                "-1",
            ],
            &["--workload", "central-srpt", "--seed", "1", "--bogus", "1"],
            &["--workload", "central-srpt", "--seed"],
        ] {
            assert!(parse_args(&argv(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn release_profile_is_the_repositorys() {
        assert!(same_release_profile());
        let manifest = "[package]\nname = \"x\"\n[profile.release]\n# note\nlto = true\n\n[profile.bench]\nlto = false\n";
        assert_eq!(release_profile(manifest), ["lto = true"]);
        assert!(release_profile("[package]\n").is_empty());
    }

    #[test]
    fn table1_check_passes_and_fingerprint_is_stable() {
        assert!(table1_reproduces());
        let report = RunReport::default();
        assert_eq!(fingerprint(&report), fingerprint(&report.clone()));
        assert_eq!(fingerprint(&report).len(), 16);
    }

    /// The text of `"key": [ ... ]` in `BENCHMARK.json`.
    fn section(key: &str) -> &'static str {
        let start = BENCHMARK_JSON
            .find(&format!("\"{key}\":"))
            .unwrap_or_else(|| panic!("BENCHMARK.json has no {key}"));
        let rest = &BENCHMARK_JSON[start..];
        &rest[..rest.find(']').expect("list closes")]
    }

    /// The raw values of `"key": value` in `text`, in order (strings
    /// without their quotes).
    fn values(text: &str, key: &str) -> Vec<String> {
        let pat = format!("\"{key}\":");
        text.match_indices(&pat)
            .map(|(i, _)| {
                let rest = text[i + pat.len()..].trim_start();
                match rest.strip_prefix('"') {
                    Some(s) => s[..s.find('"').expect("string closes")].to_string(),
                    None => rest[..rest.find([',', '}', '\n']).expect("value ends")]
                        .trim()
                        .to_string(),
                }
            })
            .collect()
    }

    #[test]
    fn benchmark_json_agrees_with_the_catalogue_and_specs() {
        let workloads = section("workloads");
        let names: Vec<&str> = workload::WORKLOADS.iter().map(|(n, _)| *n).collect();
        assert_eq!(values(workloads, "name"), names);
        assert!(values(workloads, "why")
            .iter()
            .all(|w| !w.is_empty() && w.len() <= 200));

        let e2e = section("end_to_end");
        assert_eq!(
            values(e2e, "name"),
            END_TO_END.iter().map(|m| m.name).collect::<Vec<_>>()
        );
        assert_eq!(
            values(e2e, "unit"),
            END_TO_END.iter().map(|m| m.unit).collect::<Vec<_>>()
        );
        let better: Vec<&str> = END_TO_END
            .iter()
            .map(|m| {
                if m.higher_is_better {
                    "higher"
                } else {
                    "lower"
                }
            })
            .collect();
        assert_eq!(values(e2e, "better"), better);
        let bounds: Vec<f64> = values(e2e, "bound")
            .iter()
            .map(|b| b.parse().unwrap())
            .collect();
        assert_eq!(
            bounds,
            END_TO_END.iter().map(|m| m.bound).collect::<Vec<_>>()
        );

        let layer = section("per_layer");
        assert_eq!(
            values(layer, "name"),
            PER_LAYER.iter().map(|(n, _, _)| *n).collect::<Vec<_>>()
        );
        assert_eq!(
            values(layer, "unit"),
            PER_LAYER.iter().map(|(_, u, _)| *u).collect::<Vec<_>>()
        );
        let better: Vec<&str> = PER_LAYER
            .iter()
            .map(|(_, _, higher)| if *higher { "higher" } else { "lower" })
            .collect();
        assert_eq!(values(layer, "better"), better);

        let all = values(e2e, "name").into_iter().chain(values(layer, "name"));
        for name in all {
            let ok = name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c));
            assert!(ok && name.len() <= 64, "bad metric name {name}");
        }
        assert!(values(e2e, "name").len() <= 16);
        assert!(values(layer, "name").len() <= 128);
        assert!(section("paths").contains("\"benchmark\""));
        assert!(section("command").contains("\"benchmark/Cargo.toml\""));
        let secs: u64 = values(BENCHMARK_JSON, "run_seconds")[0].parse().unwrap();
        assert!((1..=60).contains(&secs));
    }

    #[test]
    fn every_spec_parses_validates_and_caps_shards_at_the_cores() {
        for (name, text) in workload::WORKLOADS {
            let spec = workload::spec(text, Size::FULL, usize::MAX).unwrap();
            workload::build_config(&spec, 1).unwrap();
            assert!(spec.shards <= 2, "{name}: the benchmark host has 2 cores");
            let capped = workload::spec(text, Size::FULL, 1).unwrap();
            assert!(capped.shards <= 1, "{name}");
            assert_eq!(
                capped.shards == 1,
                spec.shards >= 1,
                "{name}: capping keeps the engine"
            );
        }
    }

    #[test]
    fn policies_no_workload_uses_are_refused() {
        for text in [
            "engine=central\npolicy=fifo\n",
            "engine=decentral\npolicy=sparrow\n",
        ] {
            let spec = workload::spec(text, Size::SMOKE, 1).unwrap();
            let err = workload::build_config(&spec, 1).unwrap_err();
            assert!(err.0.contains("maps only"), "{err}");
        }
    }
}
