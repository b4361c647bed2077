//! `hopper` — command-line experiment runner over the experiment layer.
//! `hopper help` prints the modes and every spec key.
//!
//! `central`, `decentral`, `sweep` and `stability` read their arguments
//! the same way, into one [`hopper::experiment::ExperimentSpec`]: a
//! `--spec FILE`, `key=value` pairs, and every spec key as a flag with
//! dashes for underscores (`--probe-ratio 2` is `probe_ratio=2`; a bare
//! `--interactive` or `--stream` means true/on). Two aliases remain:
//! `--workers N` sets `machines`, and `--seed N` a one-seed list.
//! Command-line pairs override the file. `central` and `decentral` run
//! one seed on their own engine; `sweep` expands one axis × the seed
//! list over worker threads, bit-identical to a serial run; `stability`
//! bisects each policy's frontier on its home engine. Unknown flags or
//! keys exit with code 2.

use hopper::experiment::spec::pairs;
use hopper::experiment::{
    frontier_csv, frontier_grid, sweep_with_threads, EngineKind, ExperimentSpec, FrontierConfig,
    Key, SpecError, SweepAxis, SweepTable, KEYS,
};
use hopper::metrics::{mean_duration_in_bin, JobResult, SizeBin, Table};
use std::iter::Peekable;
use std::process::exit;
use std::slice::Iter;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(mode) = args.first() else {
        usage();
        exit(2);
    };
    match mode.as_str() {
        "central" => run_single(EngineKind::Central, &args[1..]),
        "decentral" => run_single(EngineKind::Decentral, &args[1..]),
        "sweep" => run_sweep(&args[1..]),
        "stability" => run_stability(&args[1..]),
        "report" => run_report(&args[1..]),
        "example" => run_example(),
        "--help" | "-h" | "help" => usage(),
        other => {
            eprintln!("unknown mode: {other}");
            usage();
            exit(2);
        }
    }
}

/// `print!` to stdout, where a reader that stopped reading
/// (`hopper … | head`) ends the run normally: `EPIPE` exits with code 0
/// instead of panicking.
macro_rules! out {
    ($($arg:tt)*) => {
        emit(format_args!($($arg)*))
    };
}

/// `println!` through [`out!`].
macro_rules! outln {
    ($($arg:tt)*) => {
        out!("{}\n", format_args!($($arg)*))
    };
}

fn emit(args: std::fmt::Arguments) {
    use std::io::{ErrorKind, Write};
    if let Err(e) = std::io::stdout().write_fmt(args) {
        if e.kind() == ErrorKind::BrokenPipe {
            exit(0);
        }
        eprintln!("cannot write to stdout: {e}");
        exit(1);
    }
}

/// Print `msg` and exit with code 2.
fn bail(msg: impl std::fmt::Display) -> ! {
    eprintln!("{msg}");
    exit(2);
}

/// The command-line arguments after the mode.
struct Args<'a>(Peekable<Iter<'a, String>>);

impl Args<'_> {
    /// The value after `flag`; exits with code 2 if there is none.
    fn value(&mut self, flag: &str) -> String {
        self.0
            .next()
            .cloned()
            .unwrap_or_else(|| bail(format!("flag {flag} needs a value")))
    }

    /// The value after `flag` as a number; exits with code 2 otherwise.
    fn number<T: std::str::FromStr>(&mut self, flag: &str) -> T {
        let v = self.value(flag);
        v.parse()
            .unwrap_or_else(|_| bail(format!("{flag} needs a number, got `{v}`")))
    }
}

/// Read a spec-taking mode's arguments into spec text: the `--spec`
/// files first, then every `key=value`, derived `--key-name V` flag and
/// alias in command-line order, so the command line overrides the file
/// (the parser takes the last occurrence of a key). `mode_flag` is
/// offered every other argument first, and returns whether it was one
/// of the mode's own flags.
fn read_spec_args(rest: &[String], mut mode_flag: impl FnMut(&str, &mut Args) -> bool) -> String {
    let mut file_text = String::new();
    let mut arg_text = String::new();
    let mut args = Args(rest.iter().peekable());
    while let Some(arg) = args.0.next() {
        if arg == "--spec" {
            let path = args.value("--spec");
            let text = std::fs::read_to_string(&path)
                .unwrap_or_else(|e| bail(format!("could not read spec file {path}: {e}")));
            // A file whose last line lacks '\n' must not merge with the
            // next pair.
            file_text.push_str(&text);
            file_text.push('\n');
            continue;
        }
        if arg.contains('=') && !arg.starts_with("--") {
            arg_text.push_str(arg);
            arg_text.push('\n');
            continue;
        }
        if mode_flag(arg, &mut args) {
            continue;
        }
        let key = match arg.as_str() {
            "--workers" => Key::named("machines"),
            "--seed" => Key::named("seeds"),
            _ => KEYS.iter().find(|k| k.flag() == *arg),
        };
        let Some(key) = key else {
            eprintln!("unknown argument: {arg} (expected key=value, --spec FILE, or a flag)");
            usage();
            exit(2);
        };
        let value = match (key.switch, args.0.peek()) {
            ([on, _], next) if !next.is_some_and(|v| key.switch.contains(&v.as_str())) => {
                on.to_string()
            }
            _ => args.value(arg),
        };
        arg_text.push_str(&format!("{}={value}\n", key.name));
    }
    file_text + &arg_text
}

/// The spec a single-run mode describes: `kind`'s defaults refined by
/// `text`. Rejects text that names the other engine, or more than one
/// seed (a list would silently run only its first seed).
fn single_spec(kind: EngineKind, text: &str) -> Result<ExperimentSpec, SpecError> {
    let spec = ExperimentSpec::parse(&format!("engine={}\n{text}", kind.as_str()))?;
    if spec.engine != kind {
        return Err(SpecError(format!(
            "`hopper {0}` runs the {0} engine, but the spec names engine={1} \
             (use `hopper {1}`)",
            kind.as_str(),
            spec.engine.as_str()
        )));
    }
    if spec.seeds.len() > 1 {
        return Err(SpecError(format!(
            "a single run takes one seed, got {} (use `hopper sweep` with seeds=... for lists)",
            spec.seeds.len()
        )));
    }
    Ok(spec)
}

fn run_single(kind: EngineKind, rest: &[String]) {
    let mut series_out: Option<String> = None;
    let text = read_spec_args(rest, |arg, args| match arg {
        "--series-out" => {
            series_out = Some(args.value(arg));
            true
        }
        _ => false,
    });
    let spec = single_spec(kind, &text).unwrap_or_else(|e| bail(e));
    if series_out.is_some() && spec.telemetry_window_ms == 0 {
        bail("--series-out needs --telemetry-window-ms N (N > 0) to collect a series");
    }
    let seed = spec.seeds[0];
    let out = spec.run_one(seed).unwrap_or_else(|e| bail(e));
    let report = out.report();
    let core = &report.core;
    outln!(
        "{}/{} on {} jobs ({} workload, util {:.0}%, seed {}): mean JCT {:.0} ms, p90 {:.0} ms, \
         makespan {:.1} s, spec {}/{} won, events {}, msgs {}",
        spec.engine.as_str(),
        spec.policy,
        report.digest.count(),
        spec.workload,
        spec.util * 100.0,
        seed,
        out.mean_duration_ms(),
        out.percentile_duration_ms(0.9),
        core.makespan.as_secs_f64(),
        core.spec_won,
        core.spec_launched,
        core.events,
        core.messages,
    );
    if spec.stream {
        // Streaming runs retire per-job results; report the memory
        // yardstick instead of the per-bin table.
        outln!(
            "streaming: live-job high-water {} of {} total ({:.2}%), p50 ~{:.0} ms (sketch ε={})",
            report.live_high_water,
            report.digest.count(),
            100.0 * report.live_high_water as f64 / report.digest.count().max(1) as f64,
            out.percentile_duration_ms(0.5),
            report.digest.eps(),
        );
    } else {
        print_bins(out.jobs());
    }
    if let Some(path) = series_out {
        let series = report
            .telemetry
            .as_ref()
            .expect("telemetry_window_ms > 0 was checked before the run");
        let label = format!("{}/{}", spec.engine.as_str(), spec.policy);
        std::fs::write(&path, series.to_jsonl(&label, seed))
            .unwrap_or_else(|e| bail(format!("could not write series to {path}: {e}")));
        outln!(
            "telemetry: {} windows of {} ms written to {path}",
            series.windows.len(),
            series.window_ms,
        );
    }
}

fn run_sweep(rest: &[String]) {
    let mut axis: Option<SweepAxis> = None;
    let mut threads: Option<usize> = None;
    let mut csv = false;
    let mut series_dir: Option<String> = None;
    let text = read_spec_args(rest, |arg, args| {
        match arg {
            "--axis" => axis = Some(SweepAxis::parse(&args.value(arg)).unwrap_or_else(|e| bail(e))),
            "--threads" => threads = Some(args.number(arg)),
            "--csv" => csv = true,
            "--series-dir" => series_dir = Some(args.value(arg)),
            _ => return false,
        }
        true
    });
    let axis = axis.unwrap_or_else(|| bail("sweep needs --axis KEY=V1,V2[,...]"));
    let spec = ExperimentSpec::parse(&text).unwrap_or_else(|e| bail(e));
    if series_dir.is_some() && spec.telemetry_window_ms == 0 {
        bail("--series-dir needs telemetry_window_ms=N (N > 0) on the spec to collect series");
    }
    let threads = threads.unwrap_or_else(hopper::experiment::default_threads);
    let table = sweep_with_threads(&spec, &axis, threads).unwrap_or_else(|e| bail(e));
    if let Some(dir) = series_dir {
        write_series_dir(&dir, &axis.key, &spec, &table);
    }
    if csv {
        out!("{}", table.to_csv());
    } else {
        let title = format!(
            "{}/{} sweep over {} ({} trials, {} threads)",
            spec.engine.as_str(),
            spec.policy,
            axis.key,
            table.trials.len(),
            threads,
        );
        out!("{}", table.to_table(&title).render());
    }
}

/// The stability grid's cells: one spec per (profile, policy), each on
/// the policy's home engine — `fifo|fair|srpt|budgeted` run centralized,
/// `sparrow|sparrow-srpt` decentralized, and `hopper` the paper's
/// decentralized deployment — refined by the shared `text`. The engine
/// follows the policy, so `text` may not name one.
fn stability_cells(
    text: &str,
    policies: &str,
    profiles: &str,
) -> Result<Vec<ExperimentSpec>, SpecError> {
    if pairs(text)?.iter().any(|&(_, key, _)| key == "engine") {
        return Err(SpecError(
            "stability picks each policy's engine itself (fifo|fair|srpt|budgeted central, \
             others decentral); drop engine= from the spec"
                .into(),
        ));
    }
    let mut cells = Vec::new();
    for profile in profiles.split(',').map(str::trim).filter(|s| !s.is_empty()) {
        for policy in policies.split(',').map(str::trim).filter(|s| !s.is_empty()) {
            let engine = match policy {
                "fifo" | "fair" | "srpt" | "budgeted" => EngineKind::Central,
                _ => EngineKind::Decentral,
            };
            let mut cell =
                ExperimentSpec::parse_unvalidated(&format!("engine={}\n{text}", engine.as_str()))?;
            cell.policy = policy.to_string();
            cell.rate_profile = profile.to_string();
            cell.validate()?;
            cells.push(cell);
        }
    }
    Ok(cells)
}

/// `hopper stability`: bisect each policy's maximum sustainable
/// utilization (its stability frontier) under each rate profile, each
/// policy in its own home configuration (see [`stability_cells`]).
fn run_stability(rest: &[String]) {
    let mut policies = "hopper,sparrow,srpt".to_string();
    let mut profiles = "constant".to_string();
    let mut cfg = FrontierConfig::default();
    let mut threads: Option<usize> = None;
    let mut csv = false;
    let text = read_spec_args(rest, |arg, args| {
        match arg {
            "--policies" => policies = args.value(arg),
            "--profiles" => profiles = args.value(arg),
            "--lo" => cfg.lo = args.number(arg),
            "--hi" => cfg.hi = args.number(arg),
            "--iters" => cfg.iters = args.number(arg),
            "--threads" => threads = Some(args.number(arg)),
            "--csv" => csv = true,
            _ => return false,
        }
        true
    });
    let cells = stability_cells(&text, &policies, &profiles).unwrap_or_else(|e| bail(e));
    if cells.is_empty() {
        bail("stability needs at least one policy and one profile");
    }
    let threads = threads.unwrap_or_else(hopper::experiment::default_threads);
    let results = frontier_grid(&cells, &cfg, threads).unwrap_or_else(|e| bail(e));
    if csv {
        out!("{}", frontier_csv(&results));
    } else {
        let mut t = Table::new(
            "stability frontier (max sustainable utilization)",
            &["policy", "rate profile", "frontier", "probes"],
        );
        for r in &results {
            let frontier = if r.lo == r.hi {
                format!("at/beyond {:.2}", r.lo)
            } else {
                format!("[{:.3}, {:.3}]", r.lo, r.hi)
            };
            t.row(&[
                r.policy.clone(),
                r.rate_profile.clone(),
                frontier,
                r.probes.len().to_string(),
            ]);
        }
        out!("{}", t.render());
    }
}

/// Deterministic per-trial series file name: `{axis_key}-{value}-seed{N}.jsonl`
/// with every character outside `[A-Za-z0-9._-]` of the value mapped to `-`.
/// The contract lets the nightly diff (and any external tooling) address a
/// trial's series from the grid cell alone, with no directory listing.
fn series_file_name(axis_key: &str, axis_value: &str, seed: u64) -> String {
    let sanitize = |s: &str| -> String {
        s.chars()
            .map(|c| {
                if c.is_ascii_alphanumeric() || matches!(c, '.' | '_' | '-') {
                    c
                } else {
                    '-'
                }
            })
            .collect()
    };
    format!(
        "{}-{}-seed{}.jsonl",
        sanitize(axis_key),
        sanitize(axis_value),
        seed
    )
}

/// Write one JSON-lines telemetry file per trial into `dir` (created if
/// missing), named by [`series_file_name`].
fn write_series_dir(dir: &str, axis_key: &str, spec: &ExperimentSpec, table: &SweepTable) {
    std::fs::create_dir_all(dir)
        .unwrap_or_else(|e| bail(format!("could not create series dir {dir}: {e}")));
    let mut written = 0usize;
    for trial in &table.trials {
        let Some(series) = &trial.report.telemetry else {
            continue;
        };
        let name = series_file_name(axis_key, &trial.axis_value, trial.seed);
        let path = format!("{dir}/{name}");
        let label = format!(
            "{}/{} {}={}",
            spec.engine.as_str(),
            spec.policy,
            axis_key,
            trial.axis_value
        );
        std::fs::write(&path, series.to_jsonl(&label, trial.seed))
            .unwrap_or_else(|e| bail(format!("could not write series to {path}: {e}")));
        written += 1;
    }
    eprintln!("telemetry: wrote {written} series files to {dir}/");
}

/// `hopper report`: render one or two JSON-lines telemetry series into a
/// self-contained HTML page (and optionally a standalone SVG).
fn run_report(rest: &[String]) {
    let mut out_path = "report.html".to_string();
    let mut svg_path: Option<String> = None;
    let mut inputs: Vec<String> = Vec::new();
    let mut args = Args(rest.iter().peekable());
    while let Some(arg) = args.0.next() {
        match arg.as_str() {
            "--out" => out_path = args.value(arg),
            "--svg-out" => svg_path = Some(args.value(arg)),
            flag if flag.starts_with("--") => {
                eprintln!("unknown report flag: {flag}");
                usage();
                exit(2);
            }
            path => inputs.push(path.to_string()),
        }
    }
    if inputs.is_empty() || inputs.len() > 2 {
        let n = inputs.len();
        bail(format!(
            "report takes one series file (single run) or two (A/B), got {n}"
        ));
    }
    let mut runs = Vec::with_capacity(inputs.len());
    for path in &inputs {
        let text = std::fs::read_to_string(path)
            .unwrap_or_else(|e| bail(format!("could not read series file {path}: {e}")));
        runs.push(
            hopper::metrics::parse_jsonl(&text).unwrap_or_else(|e| bail(format!("{path}: {e}"))),
        );
    }
    std::fs::write(&out_path, hopper::metrics::render_html(&runs))
        .unwrap_or_else(|e| bail(format!("could not write report to {out_path}: {e}")));
    outln!(
        "report: {} run{} -> {out_path}",
        runs.len(),
        if runs.len() == 1 { "" } else { "s (A/B)" },
    );
    if let Some(path) = svg_path {
        std::fs::write(&path, hopper::metrics::render_svg(&runs))
            .unwrap_or_else(|e| bail(format!("could not write SVG to {path}: {e}")));
        outln!("report: SVG panel -> {path}");
    }
}

fn print_bins(jobs: &[JobResult]) {
    let mut t = Table::new("mean JCT by job size", &["bin", "jobs", "mean JCT (ms)"]);
    for bin in SizeBin::all() {
        let n = jobs
            .iter()
            .filter(|r| SizeBin::of(r.size_tasks) == bin)
            .count();
        let cell = mean_duration_in_bin(jobs, bin).map_or("n/a".to_string(), |m| format!("{m:.0}"));
        t.row(&[bin.label().into(), n.to_string(), cell]);
    }
    out!("{}", t.render());
}

fn run_example() {
    use hopper::central::{self, scenario::motivating_sim_config, scenario::motivating_trace};
    let (trace, _) = motivating_trace();
    let cfg = motivating_sim_config();
    let mut t = Table::new(
        "§3 motivating example (paper: 20/30, 12/32, 12/22 s)",
        &["strategy", "A (s)", "B (s)"],
    );
    let cases: Vec<(&str, central::Policy)> = vec![
        ("best-effort", central::Policy::Srpt),
        (
            "budgeted",
            central::Policy::BudgetedSrpt {
                budget_fraction: 3.0 / 7.0,
            },
        ),
        (
            "hopper",
            central::Policy::Hopper(central::HopperConfig::pure()),
        ),
    ];
    for (name, policy) in cases {
        let out = central::run(&trace, &policy, &cfg);
        let a = out.jobs.iter().find(|r| r.job == 0).unwrap().duration_ms() / 1000;
        let b = out.jobs.iter().find(|r| r.job == 1).unwrap().duration_ms() / 1000;
        t.row(&[name.into(), a.to_string(), b.to_string()]);
    }
    out!("{}", t.render());
}

const USAGE: &str = "\
usage:
  hopper central   [--spec FILE] [KEY=V | --KEY V ...] [--series-out FILE]
  hopper decentral [--spec FILE] [KEY=V | --KEY V ...] [--series-out FILE]
  hopper sweep     [--spec FILE] [KEY=V | --KEY V ...] --axis KEY=V1,V2[,...] \\
                   [--threads N] [--csv] [--series-dir DIR]
  hopper stability [--spec FILE] [KEY=V | --KEY V ...] [--policies P1,P2,...] \\
                   [--profiles constant,diurnal] [--lo F] [--hi F] [--iters N] \\
                   [--threads N] [--csv]
  hopper report    [--out FILE] [--svg-out FILE] A.jsonl [B.jsonl]
  hopper example   the §3 motivating example (Table 1)

Every spec key below is also a flag, with dashes for underscores
(--probe-ratio 2 is probe_ratio=2); a true|false or on|off key given bare
means true/on. Aliases: --workers N sets machines, --seed N a one-seed list.
Command-line pairs override --spec FILE. central/decentral run one seed on
their own engine; stability picks each policy's engine itself.

mode flags:
  --series-out FILE single runs: write the telemetry series as JSON lines
  --series-dir DIR  sweeps: one AXIS-VALUE-seedN.jsonl series per trial
  --policies P,...  policies to bisect (default hopper,sparrow,srpt)
  --profiles ...    rate profiles per policy (default constant)
  --lo F / --hi F   utilization bracket (default 0.5 / 1.4)
  --iters N         bisection steps after the endpoint probes (default 7)
  hopper report renders series files into a self-contained HTML page
  (one file = single run, two = A/B overlay).

spec keys:
";

/// [`USAGE`] followed by one line per spec key.
fn usage_text() -> String {
    let mut text = USAGE.to_string();
    for key in KEYS {
        let flag = format!("{} {}", key.flag(), key.meta);
        text += &format!("  {flag:<25} {}\n", key.help);
    }
    text
}

fn usage() {
    eprint!("{}", usage_text());
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every `--flag` the usage text shows is a spec key's derived flag,
    /// one of the two aliases, or a mode's own flag.
    #[test]
    fn usage_names_only_real_flags() {
        let mode_flags = [
            "--spec",
            "--series-out",
            "--axis",
            "--threads",
            "--csv",
            "--series-dir",
            "--policies",
            "--profiles",
            "--lo",
            "--hi",
            "--iters",
            "--out",
            "--svg-out",
        ];
        let mut flags = 0;
        let usage = usage_text();
        for (i, _) in usage.match_indices("--") {
            let flag: String = usage[i..]
                .chars()
                .take_while(|c| *c == '-' || c.is_ascii_alphanumeric())
                .collect();
            flags += 1;
            let known = ["--workers", "--seed", "--KEY"].contains(&flag.as_str())
                || mode_flags.contains(&flag.as_str())
                || KEYS
                    .iter()
                    .any(|k| flag == format!("--{}", k.name.replace('_', "-")));
            assert!(known, "usage names `{flag}`, which no mode accepts");
        }
        assert!(flags > 40, "scanned only {flags} flags");
    }

    #[test]
    fn stability_rejects_an_engine_key() {
        for text in ["engine=central\n", "jobs=50\nengine=decentral\n"] {
            let e = stability_cells(text, "hopper", "constant").unwrap_err();
            assert!(e.0.contains("engine itself"), "{e}");
        }
        let cells = stability_cells("jobs=50\n", "hopper,srpt", "constant,diurnal").unwrap();
        let engines: Vec<EngineKind> = cells.iter().map(|c| c.engine).collect();
        use EngineKind::{Central, Decentral};
        assert_eq!(engines, [Decentral, Central, Decentral, Central]);
        assert!(cells.iter().all(|c| c.jobs == 50));
        assert_eq!(cells[3].policy, "srpt");
        assert_eq!(cells[3].rate_profile, "diurnal");
    }

    /// The mode's own policy and profile override the shared text.
    #[test]
    fn stability_cells_override_policy_and_profile() {
        let cells =
            stability_cells("policy=fifo\nrate_profile=diurnal\n", "sparrow", "constant").unwrap();
        assert_eq!(cells[0].policy, "sparrow");
        assert_eq!(cells[0].rate_profile, "constant");
    }

    #[test]
    fn single_runs_reject_seed_lists_and_the_other_engine() {
        let e = single_spec(EngineKind::Decentral, "seeds=1,2\n").unwrap_err();
        assert!(e.0.contains("hopper sweep"), "{e}");
        let e = single_spec(EngineKind::Central, "engine=decentral\n").unwrap_err();
        assert!(e.0.contains("hopper decentral"), "{e}");
        let s = single_spec(EngineKind::Decentral, "engine=decentral\nseeds=4\n").unwrap();
        assert_eq!(
            (s.engine, s.seeds.as_slice()),
            (EngineKind::Decentral, &[4][..])
        );
    }
}
