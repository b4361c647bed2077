//! Job-completion statistics and paper-style aggregations.

use hopper_sim::SimTime;

/// Outcome of one job in a simulation run.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct JobResult {
    /// Trace job id (stable across compared runs of the same trace).
    pub job: usize,
    /// Job size = input-phase task count (Figure 7 binning).
    pub size_tasks: usize,
    /// DAG length in phases (Figure 8b / 12b binning).
    pub dag_len: usize,
    /// Arrival time.
    pub arrival: SimTime,
    /// Completion time.
    pub completed: SimTime,
}

impl JobResult {
    /// Job duration (completion − arrival) in milliseconds.
    pub fn duration_ms(&self) -> u64 {
        self.completed.saturating_sub(self.arrival).as_millis()
    }
}

/// The counters every simulator run exposes, regardless of driver.
///
/// `hopper-central`'s `RunStats` and `hopper-decentral`'s `DecStats` keep
/// their driver-specific fields (refusal counts, locality fractions, …)
/// but both flatten into this core, which is what the experiment layer's
/// unified `RunSummary` surface reports. Counters a driver does not have
/// are zero (`messages` for the centralized driver).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CoreStats {
    /// Original copies launched.
    pub orig_launched: u64,
    /// Speculative copies launched.
    pub spec_launched: u64,
    /// Tasks whose winning copy was speculative.
    pub spec_won: u64,
    /// Events processed by the simulator.
    pub events: u64,
    /// Scheduler↔worker protocol messages (reservations + responses +
    /// refusals; kill notifications are not counted); zero for the
    /// centralized driver, which has no network.
    pub messages: u64,
    /// Completion time of the last job.
    pub makespan: SimTime,
}

/// The paper's job-size bins (Figure 7 / 9 / 12).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum SizeBin {
    /// Fewer than 50 tasks.
    Lt50,
    /// 51 to 150 tasks (the paper's label; we place 50 here too).
    B51to150,
    /// 151 to 500 tasks.
    B151to500,
    /// More than 500 tasks.
    Gt500,
}

impl SizeBin {
    /// Bin for a given task count.
    pub fn of(tasks: usize) -> SizeBin {
        match tasks {
            0..=49 => SizeBin::Lt50,
            50..=150 => SizeBin::B51to150,
            151..=500 => SizeBin::B151to500,
            _ => SizeBin::Gt500,
        }
    }

    /// All bins in display order.
    pub fn all() -> [SizeBin; 4] {
        [
            SizeBin::Lt50,
            SizeBin::B51to150,
            SizeBin::B151to500,
            SizeBin::Gt500,
        ]
    }

    /// The paper's column label.
    pub fn label(&self) -> &'static str {
        match self {
            SizeBin::Lt50 => "<50",
            SizeBin::B51to150 => "51-150",
            SizeBin::B151to500 => "151-500",
            SizeBin::Gt500 => ">500",
        }
    }
}

/// Mean of a slice (0 for empty — callers print "n/a" on empty bins).
pub fn mean(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        xs.iter().sum::<f64>() / xs.len() as f64
    }
}

/// Linear-interpolated percentile (`p` in \[0, 1\]) of unsorted data.
///
/// Empty input returns 0.0 (not NaN): durations and gains are
/// non-negative quantities, so 0 is the natural "no data" value and lets
/// callers render empty sweep cells without special-casing. Panics only
/// on `p` outside \[0, 1\] — a caller bug, not a data condition.
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    assert!((0.0..=1.0).contains(&p), "percentile {p} out of range");
    if xs.is_empty() {
        return 0.0;
    }
    let mut v = xs.to_vec();
    v.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
    if v.len() == 1 {
        return v[0];
    }
    let rank = p * (v.len() - 1) as f64;
    let lo = rank.floor() as usize;
    let hi = rank.ceil() as usize;
    let frac = rank - lo as f64;
    v[lo] * (1.0 - frac) + v[hi] * frac
}

/// The paper's headline metric: percentage reduction in average job
/// duration going from `baseline` to `improved`.
/// Positive = improvement.
pub fn reduction_pct(baseline_mean: f64, improved_mean: f64) -> f64 {
    if baseline_mean <= 0.0 {
        return 0.0;
    }
    (baseline_mean - improved_mean) / baseline_mean * 100.0
}

/// Per-job gain distribution between two runs of the *same trace*
/// (Figure 8a): gain of job j = reduction in its duration.
#[derive(Debug, Clone)]
pub struct GainCdf {
    /// Sorted per-job gains (%).
    pub gains: Vec<f64>,
}

impl GainCdf {
    /// Match jobs by id and compute per-job percentage gains.
    ///
    /// If either run is empty the result is the empty CDF (no gains) —
    /// an empty comparison is well-defined, and sweep cells with no
    /// completed jobs must not bring a whole table down. Panics only
    /// when both runs are non-empty and a job id of `improved` is
    /// missing from `baseline` — genuinely mismatched traces.
    pub fn between(baseline: &[JobResult], improved: &[JobResult]) -> GainCdf {
        if baseline.is_empty() || improved.is_empty() {
            return GainCdf { gains: Vec::new() };
        }
        let mut base: std::collections::HashMap<usize, u64> = std::collections::HashMap::new();
        for r in baseline {
            base.insert(r.job, r.duration_ms());
        }
        let mut gains: Vec<f64> = improved
            .iter()
            .map(|r| {
                let b = *base
                    .get(&r.job)
                    .unwrap_or_else(|| panic!("job {} missing from baseline run", r.job));
                reduction_pct(b as f64, r.duration_ms() as f64)
            })
            .collect();
        gains.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
        GainCdf { gains }
    }

    /// Gain at CDF level `p` ∈ \[0,1\] (e.g. `value_at(0.5)` = median gain).
    pub fn value_at(&self, p: f64) -> f64 {
        percentile(&self.gains, p)
    }

    /// Fraction of jobs with negative gain (slowed down) — Figure 10b.
    pub fn fraction_slowed(&self) -> f64 {
        if self.gains.is_empty() {
            return 0.0;
        }
        self.gains.iter().filter(|&&g| g < 0.0).count() as f64 / self.gains.len() as f64
    }

    /// Average and worst slowdown (%) among slowed jobs — Figure 10c.
    /// Returns (avg, worst), both ≥ 0; (0, 0) when nothing slowed.
    pub fn slowdown_magnitude(&self) -> (f64, f64) {
        let slowed: Vec<f64> = self
            .gains
            .iter()
            .filter(|&&g| g < 0.0)
            .map(|g| -g)
            .collect();
        if slowed.is_empty() {
            (0.0, 0.0)
        } else {
            (mean(&slowed), slowed.iter().copied().fold(0.0, f64::max))
        }
    }
}

/// Mean duration (ms) of the jobs in a bin-filtered subset.
pub fn mean_duration_in_bin(results: &[JobResult], bin: SizeBin) -> Option<f64> {
    let durs: Vec<f64> = results
        .iter()
        .filter(|r| SizeBin::of(r.size_tasks) == bin)
        .map(|r| r.duration_ms() as f64)
        .collect();
    (!durs.is_empty()).then(|| mean(&durs))
}

/// Mean duration (ms) of jobs with the given DAG length.
pub fn mean_duration_for_dag(results: &[JobResult], dag_len: usize) -> Option<f64> {
    let durs: Vec<f64> = results
        .iter()
        .filter(|r| r.dag_len == dag_len)
        .map(|r| r.duration_ms() as f64)
        .collect();
    (!durs.is_empty()).then(|| mean(&durs))
}

/// Mean duration over all jobs.
pub fn mean_duration(results: &[JobResult]) -> f64 {
    mean(
        &results
            .iter()
            .map(|r| r.duration_ms() as f64)
            .collect::<Vec<_>>(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(id: usize, size: usize, dur_ms: u64) -> JobResult {
        JobResult {
            job: id,
            size_tasks: size,
            dag_len: 1,
            arrival: SimTime::ZERO,
            completed: SimTime::from_millis(dur_ms),
        }
    }

    #[test]
    fn bins_match_paper_labels() {
        assert_eq!(SizeBin::of(1), SizeBin::Lt50);
        assert_eq!(SizeBin::of(49), SizeBin::Lt50);
        assert_eq!(SizeBin::of(50), SizeBin::B51to150);
        assert_eq!(SizeBin::of(150), SizeBin::B51to150);
        assert_eq!(SizeBin::of(151), SizeBin::B151to500);
        assert_eq!(SizeBin::of(500), SizeBin::B151to500);
        assert_eq!(SizeBin::of(501), SizeBin::Gt500);
        assert_eq!(SizeBin::all()[0].label(), "<50");
    }

    #[test]
    fn percentile_interpolates() {
        let xs = vec![1.0, 2.0, 3.0, 4.0];
        assert!((percentile(&xs, 0.0) - 1.0).abs() < 1e-12);
        assert!((percentile(&xs, 1.0) - 4.0).abs() < 1e-12);
        assert!((percentile(&xs, 0.5) - 2.5).abs() < 1e-12);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }

    #[test]
    fn reduction_math() {
        assert!((reduction_pct(100.0, 50.0) - 50.0).abs() < 1e-12);
        assert!((reduction_pct(100.0, 120.0) + 20.0).abs() < 1e-12);
        assert_eq!(reduction_pct(0.0, 10.0), 0.0);
    }

    #[test]
    fn gain_cdf_between_runs() {
        let base = vec![job(0, 10, 100), job(1, 10, 200), job(2, 10, 400)];
        let better = vec![job(0, 10, 50), job(1, 10, 220), job(2, 10, 100)];
        let cdf = GainCdf::between(&base, &better);
        assert_eq!(cdf.gains.len(), 3);
        // Gains: 50%, -10%, 75% → sorted [-10, 50, 75].
        assert!((cdf.value_at(0.0) + 10.0).abs() < 1e-9);
        assert!((cdf.value_at(1.0) - 75.0).abs() < 1e-9);
        assert!((cdf.fraction_slowed() - 1.0 / 3.0).abs() < 1e-9);
        let (avg, worst) = cdf.slowdown_magnitude();
        assert!((avg - 10.0).abs() < 1e-9);
        assert!((worst - 10.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "missing from baseline")]
    fn gain_cdf_requires_matching_traces() {
        let base = vec![job(0, 10, 100)];
        let other = vec![job(5, 10, 100)];
        let _ = GainCdf::between(&base, &other);
    }

    #[test]
    fn no_slowdowns_is_zero_magnitude() {
        let base = vec![job(0, 10, 100)];
        let better = vec![job(0, 10, 50)];
        let cdf = GainCdf::between(&base, &better);
        assert_eq!(cdf.fraction_slowed(), 0.0);
        assert_eq!(cdf.slowdown_magnitude(), (0.0, 0.0));
    }

    #[test]
    fn bin_and_dag_means() {
        let rs = vec![job(0, 10, 100), job(1, 60, 300), job(2, 10, 200)];
        assert!((mean_duration_in_bin(&rs, SizeBin::Lt50).unwrap() - 150.0).abs() < 1e-9);
        assert!((mean_duration_in_bin(&rs, SizeBin::B51to150).unwrap() - 300.0).abs() < 1e-9);
        assert!(mean_duration_in_bin(&rs, SizeBin::Gt500).is_none());
        assert!((mean_duration(&rs) - 200.0).abs() < 1e-9);
        assert!((mean_duration_for_dag(&rs, 1).unwrap() - 200.0).abs() < 1e-9);
        assert!(mean_duration_for_dag(&rs, 3).is_none());
    }

    #[test]
    fn empty_inputs_have_defined_values() {
        // percentile: 0.0, never NaN.
        assert_eq!(percentile(&[], 0.0), 0.0);
        assert_eq!(percentile(&[], 0.5), 0.0);
        assert_eq!(percentile(&[], 1.0), 0.0);
        // mean: 0.0 on empty.
        assert_eq!(mean(&[]), 0.0);
    }

    #[test]
    fn gain_cdf_empty_sides_yield_empty_cdf() {
        let some = [job(0, 10, 100)];
        for (b, i) in [
            (&[][..], &[][..]),
            (&some[..], &[][..]),
            (&[][..], &some[..]),
        ] {
            let cdf = GainCdf::between(b, i);
            assert!(cdf.gains.is_empty());
            assert_eq!(cdf.value_at(0.5), 0.0);
            assert_eq!(cdf.fraction_slowed(), 0.0);
            assert_eq!(cdf.slowdown_magnitude(), (0.0, 0.0));
        }
    }

    #[test]
    fn core_stats_default_is_zero() {
        let c = CoreStats::default();
        assert_eq!(c.orig_launched, 0);
        assert_eq!(c.messages, 0);
        assert_eq!(c.makespan, SimTime::ZERO);
    }

    #[test]
    fn duration_uses_arrival() {
        let r = JobResult {
            job: 0,
            size_tasks: 1,
            dag_len: 1,
            arrival: SimTime::from_millis(100),
            completed: SimTime::from_millis(350),
        };
        assert_eq!(r.duration_ms(), 250);
    }
}
