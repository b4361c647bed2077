//! Stability-frontier experiment: the maximum sustainable utilization
//! per policy, found by bisection.
//!
//! A scheduler's *stability frontier* is the largest target utilization
//! at which its queue still drains — offered load above it accumulates
//! an unbounded backlog (in a finite run: a backlog that grows for as
//! long as arrivals keep coming). [`find_frontier`] brackets that point
//! by probing a spec at candidate `util` values and bisecting on the
//! verdict of a [`saturated`] detector.
//!
//! **Detector invariants** (pinned by `tests/stability.rs`):
//!
//! - A run that drains — live jobs stay bounded well below the job
//!   count — is never flagged, at any utilization that actually drains.
//! - A run that ends its arrival phase with a many-job task backlog the
//!   cluster never caught up on is flagged.
//! - The verdict reads only the run's [`RunReport`] (live-jobs
//!   high-water mark and the windowed telemetry series), so it works on
//!   streaming runs with retired job state, which is how probes run.
//!
//! **Determinism.** A probe is `run_one` on a derived spec — a pure
//! function of `(spec, util, seed)` — and bisection visits a fixed
//! probe sequence, so the frontier is deterministic; [`frontier_grid`]
//! fans whole cells (never probes) out over worker threads and writes
//! results by index, so the output is identical at every thread count.

use hopper_metrics::RunReport;

use crate::spec::{ExperimentSpec, SpecError};
use crate::sweep::{clamp_threads, default_threads, fan_out};

/// Live high-water fraction of delivered jobs that flags saturation on
/// its own: a draining run keeps live jobs near the steady-state level,
/// an overloaded one accumulates a constant fraction of everything that
/// arrives.
const LIVE_FRAC: f64 = 0.2;

/// Telemetry path: task backlog still queued *when the last job
/// arrives*, as a multiple of the cluster's slot capacity. A draining
/// run is at its steady-state queue level at that instant (a few slot-
/// waves at most); past the frontier the backlog there is the whole
/// accumulated arrival excess, Θ((1 − 1/u) · total work). Measured at
/// the end of the arrival phase — not as a climb over the run — so
/// periodic dips under a diurnal profile and idle windows trailing the
/// last completion cannot mask or dilute it.
const BACKLOG_SLOTS: f64 = 2.0;

/// Telemetry path: fraction of delivered jobs that must still be live
/// when the last job arrives, alongside the backlog test. One elephant
/// can queue thousands of tasks at that instant in a perfectly stable
/// heavy-tailed run; a backlog that outlives the arrival phase because
/// the cluster *cannot keep up* spans many jobs.
const LIVE_AT_END_FRAC: f64 = 0.05;

/// Absolute live-jobs floor for both signals — tiny runs never flag,
/// whatever the fractions say.
const MIN_LIVE: f64 = 10.0;

/// Windows averaged (ending at the last-arrival window) for the
/// backlog gauge, so a single-window spike or dip is not decisive.
const BACKLOG_SMOOTH: usize = 3;

/// Telemetry window width (ms) forced onto probe runs that did not set
/// one — the queue-climb test needs a time-series to read.
const PROBE_WINDOW_MS: u64 = 2_000;

/// Saturation verdict for one finished run.
///
/// `delivered_jobs` is the number of jobs the run actually delivered
/// (`max_jobs` if set, else `jobs`); the thresholds scale with it.
/// Flags when either:
///
/// - the live-jobs high-water mark reached `LIVE_FRAC` of the
///   delivered jobs (a large constant fraction of the workload was in
///   flight at once), or
/// - at the *end of the arrival phase* — the first telemetry window
///   where live + cumulatively-completed jobs account for every
///   delivered job — the queued-task backlog (smoothed over
///   `BACKLOG_SMOOTH` windows) is at least `BACKLOG_SLOTS` times
///   the cluster's slot capacity *and* at least `LIVE_AT_END_FRAC` of
///   the delivered jobs are still live. A draining run sits at its
///   steady-state queue there; past the frontier the whole accumulated
///   arrival excess — spanning many jobs — is still waiting. Requiring
///   both keeps one late elephant (huge queue, few live jobs) from
///   flagging a stable heavy-tailed run, and measuring at a fixed
///   instant keeps diurnal troughs and post-completion idle windows
///   from masking real saturation.
///
/// Without a telemetry series only the first signal is available.
pub fn saturated(report: &RunReport, delivered_jobs: usize) -> bool {
    let n = delivered_jobs.max(1) as f64;
    if report.live_high_water as f64 >= (LIVE_FRAC * n).max(MIN_LIVE) {
        return true;
    }
    let Some(series) = &report.telemetry else {
        return false;
    };
    // End of the arrival phase: every delivered job is accounted for
    // (still live or already completed). Synthetic series that never
    // account for all jobs yield no arrival end and cannot flag.
    let mut cum_completed = 0u64;
    let mut arrival_end = None;
    for (i, w) in series.windows.iter().enumerate() {
        cum_completed += w.completed;
        if w.live_jobs as f64 + cum_completed as f64 >= n {
            arrival_end = Some(i);
            break;
        }
    }
    let Some(a_end) = arrival_end else {
        return false;
    };
    let live_at_end = series.windows[a_end].live_jobs as f64;
    if live_at_end < (LIVE_AT_END_FRAC * n).max(MIN_LIVE) {
        return false;
    }
    let from = (a_end + 1).saturating_sub(BACKLOG_SMOOTH);
    let window = &series.windows[from..=a_end];
    let backlog = window.iter().map(|w| w.queue_depth as f64).sum::<f64>() / window.len() as f64;
    backlog >= BACKLOG_SLOTS * series.total_slots as f64
}

/// Bisection bounds for [`find_frontier`].
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierConfig {
    /// Lower utilization bound (assumed — and verified — to drain).
    pub lo: f64,
    /// Upper utilization bound (assumed — and verified — to saturate).
    pub hi: f64,
    /// Bisection iterations after the two endpoint probes. 7 narrows
    /// `[0.5, 1.4]` to ≈ 0.007 — well inside detector accuracy.
    pub iters: usize,
}

impl Default for FrontierConfig {
    fn default() -> Self {
        FrontierConfig {
            lo: 0.5,
            hi: 1.4,
            iters: 7,
        }
    }
}

/// One policy's detected stability frontier.
#[derive(Debug, Clone, PartialEq)]
pub struct FrontierResult {
    /// The probed spec's policy name.
    pub policy: String,
    /// The probed spec's `rate_profile` key.
    pub rate_profile: String,
    /// Highest utilization observed to drain.
    pub lo: f64,
    /// Lowest utilization observed to saturate. The frontier lies in
    /// `[lo, hi]`; `lo == hi` at a config bound means the frontier sits
    /// at or beyond that bound.
    pub hi: f64,
    /// Every probe in order: `(util, saturated)`.
    pub probes: Vec<(f64, bool)>,
}

/// Probe one utilization: run the spec's first seed at `util` through
/// the streaming pipeline (with telemetry forced on so the queue-climb test
/// has a series) and report the [`saturated`] verdict.
pub fn probe(spec: &ExperimentSpec, util: f64) -> Result<bool, SpecError> {
    let mut s = spec.clone();
    s.util = util;
    s.stream = true;
    s.replay = None;
    if s.telemetry_window_ms == 0 {
        s.telemetry_window_ms = PROBE_WINDOW_MS;
    }
    let seed = *s
        .seeds
        .first()
        .ok_or_else(|| SpecError("stability probe needs at least one seed".into()))?;
    let out = s.run_one(seed)?;
    let delivered = s.max_jobs.unwrap_or(s.jobs);
    Ok(saturated(out.report(), delivered))
}

/// Bisect the stability frontier of one spec.
///
/// Probes both endpoints first: if `cfg.hi` already drains the frontier
/// is at or above the cap (`lo == hi == cfg.hi`); if `cfg.lo` already
/// saturates it is at or below the floor (`lo == hi == cfg.lo`).
/// Otherwise `cfg.iters` bisection steps maintain the invariant
/// *drains at `lo`, saturates at `hi`* and shrink the bracket by half
/// each step.
pub fn find_frontier(
    spec: &ExperimentSpec,
    cfg: &FrontierConfig,
) -> Result<FrontierResult, SpecError> {
    if !(cfg.lo > 0.0 && cfg.hi > cfg.lo && cfg.hi <= 1.5) {
        return Err(SpecError(format!(
            "frontier bounds must satisfy 0 < lo < hi <= 1.5, got [{}, {}]",
            cfg.lo, cfg.hi
        )));
    }
    let mut probes = Vec::new();
    let run = |util: f64, probes: &mut Vec<(f64, bool)>| -> Result<bool, SpecError> {
        let sat = probe(spec, util)?;
        probes.push((util, sat));
        Ok(sat)
    };
    let result = |lo: f64, hi: f64, probes: Vec<(f64, bool)>| FrontierResult {
        policy: spec.policy.clone(),
        rate_profile: spec.rate_profile.clone(),
        lo,
        hi,
        probes,
    };
    if !run(cfg.hi, &mut probes)? {
        return Ok(result(cfg.hi, cfg.hi, probes));
    }
    if run(cfg.lo, &mut probes)? {
        return Ok(result(cfg.lo, cfg.lo, probes));
    }
    let (mut lo, mut hi) = (cfg.lo, cfg.hi);
    for _ in 0..cfg.iters {
        let mid = 0.5 * (lo + hi);
        if run(mid, &mut probes)? {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    Ok(result(lo, hi, probes))
}

/// Bisect every cell's frontier over `threads` scoped workers.
///
/// Each cell is one sequential [`find_frontier`] (bisection cannot be
/// parallelized — each probe depends on the last verdict), so the fan-
/// out is across cells; results land in input order and are identical
/// at every thread count.
pub fn frontier_grid(
    cells: &[ExperimentSpec],
    cfg: &FrontierConfig,
    threads: usize,
) -> Result<Vec<FrontierResult>, SpecError> {
    for c in cells {
        c.validate()?;
    }
    let max_shards = cells.iter().map(|c| c.shards).max().unwrap_or(0);
    let threads = clamp_threads(threads, max_shards, default_threads());
    fan_out(cells, threads, |cell| find_frontier(cell, cfg))
        .into_iter()
        .collect()
}

/// CSV rendering of frontier results: one row per cell,
/// `policy,rate_profile,frontier_lo,frontier_hi,probes`.
pub fn frontier_csv(results: &[FrontierResult]) -> String {
    let mut out = String::from("policy,rate_profile,frontier_lo,frontier_hi,probes\n");
    for r in results {
        out.push_str(&format!(
            "{},{},{:.4},{:.4},{}\n",
            r.policy,
            r.rate_profile,
            r.lo,
            r.hi,
            r.probes.len()
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopper_metrics::{TelemetrySeries, TelemetryWindow};

    /// Series on a 100-slot cluster from `(queue, live, completed)`
    /// window triples.
    fn report_with_series(high_water: usize, windows: &[(u64, u64, u64)]) -> RunReport {
        RunReport {
            live_high_water: high_water,
            telemetry: Some(TelemetrySeries {
                window_ms: 1_000,
                total_slots: 100,
                windows: windows
                    .iter()
                    .enumerate()
                    .map(|(i, &(q, live, done))| TelemetryWindow {
                        index: i as u64,
                        queue_depth: q,
                        live_jobs: live,
                        completed: done,
                        ..TelemetryWindow::default()
                    })
                    .collect(),
            }),
            ..RunReport::default()
        }
    }

    #[test]
    fn high_water_fraction_flags() {
        let r = report_with_series(90, &[]);
        assert!(saturated(&r, 400));
        assert!(!saturated(&r, 10_000), "same high-water, much bigger run");
    }

    #[test]
    fn arrival_end_backlog_flags_but_late_elephant_does_not() {
        // 400 jobs arriving 40 per window, 10 completing per window:
        // by the last-arrival window (9), 300 jobs are live and the
        // task backlog has climbed to 18× slot capacity — the cluster
        // never caught up on the arrival phase.
        let overloaded: Vec<(u64, u64, u64)> =
            (0..10).map(|i| (200 * (i + 1), 30 * (i + 1), 10)).collect();
        let r = report_with_series(60, &overloaded);
        assert!(saturated(&r, 400));
        // Same queue trajectory, but almost every job already finished:
        // the backlog is one late elephant's task pile, not saturation.
        let elephant: Vec<(u64, u64, u64)> = (0..10).map(|i| (200 * (i + 1), 15, 38)).collect();
        let r = report_with_series(60, &elephant);
        assert!(!saturated(&r, 400));
    }

    #[test]
    fn draining_run_never_flags() {
        // Arrival phase ends with plenty of live jobs but only a
        // steady-state queue (1.5× slots, under the 2× threshold).
        let steady: Vec<(u64, u64, u64)> = (0..10).map(|i| (150, 30 * (i + 1), 10)).collect();
        let r = report_with_series(60, &steady);
        assert!(!saturated(&r, 400));
    }

    #[test]
    fn tiny_runs_never_flag() {
        // Live jobs below the absolute floor: any backlog shape stays
        // unflagged, as does an empty report.
        let tiny: Vec<(u64, u64, u64)> = vec![(900, 5, 1); 10];
        let r = report_with_series(8, &tiny);
        assert!(!saturated(&r, 15), "live jobs below the absolute floor");
        assert!(!saturated(&RunReport::default(), 0));
    }

    #[test]
    fn frontier_config_bounds_are_validated() {
        let spec = ExperimentSpec::central();
        let bad = FrontierConfig {
            lo: 0.9,
            hi: 0.6,
            iters: 3,
        };
        assert!(find_frontier(&spec, &bad).is_err());
    }
}
