//! Non-stationary arrival-rate profiles: diurnal curves and burst
//! injection over the generator's calibrated Poisson base rate.
//!
//! A [`RateProfile`] describes the *relative* arrival rate over time —
//! a dimensionless modulation `r(t)` applied to the stream's calibrated
//! base rate. Every profile is normalized so its time-average is 1:
//! the calibration pre-pass (`window = total_work / (slots · util)`)
//! keeps meaning "the target utilization is the time-average over the
//! arrival window", stationary or not. The diurnal curve averages 1 by
//! construction; burst injection divides by its expected inflation
//! factor `1 + (mult − 1) · f` where `f` is the expected fraction of
//! time spent inside a burst window.
//!
//! Sampling uses exact inversion of the inhomogeneous Poisson process:
//! the stream draws the same exponential gap `g` it would draw under
//! [`RateProfile::Constant`] (one uniform per arrival, so RNG streams
//! never diverge between profiles) and then advances time to the `t'`
//! with `∫_t^{t'} r(s) ds = g` via `RateClock::advance`. The relative
//! rate is piecewise linear (linear diurnal segments × piecewise-
//! constant burst multiplier), so each segment's integral is a
//! quadratic solved in closed form — no step-size error, fully
//! deterministic.

use hopper_sim::SeedSequence;
use rand::rngs::StdRng;

use crate::dist::Dist;

/// Child-seed tag for the burst-window process (disjoint from the
/// per-job and arrival tags, so adding bursts never perturbs job
/// bodies or the exponential gap draws).
const BURST_SEED_TAG: u64 = 0xB0057;

/// The built-in diurnal day: a piecewise-linear relative-rate curve
/// through (phase, rate) knots, one period long. Morning peak at 1.6×,
/// midday dip, evening peak at 1.4×, overnight trough at 0.4×. The
/// trapezoid time-average is exactly 1.0, which is what keeps the
/// calibrated utilization target honest.
const DIURNAL_KNOTS: [f64; 5] = [0.4, 1.6, 0.6, 1.4, 0.4];

/// A relative arrival-rate profile (time-average 1 by construction).
///
/// Built with [`RateProfile::constant`] / [`RateProfile::diurnal`] and
/// optionally layered with [`RateProfile::with_bursts`]; consumed by
/// `TraceGenerator::stream_with_profile`.
#[derive(Debug, Clone, PartialEq)]
pub enum RateProfile {
    /// Stationary arrivals — exactly the historical generator: the
    /// stream's time-advance is byte-identical to builds that predate
    /// rate profiles.
    Constant,
    /// The built-in piecewise-linear diurnal curve with the given
    /// period. `period_ms = 0` means "auto": a quarter of the
    /// calibrated arrival window, so every run sees four full days and
    /// the window average stays exactly 1.
    Diurnal {
        /// Curve period in simulated milliseconds (0 = auto).
        period_ms: u64,
    },
    /// Seeded burst injection layered on a base profile: Poisson-placed
    /// windows of `len_ms` during which the base rate is multiplied by
    /// `mult`, renormalized so the time-average stays 1.
    Bursty {
        /// The profile the bursts modulate (constant or diurnal — the
        /// burst layer does not nest).
        base: Box<RateProfile>,
        /// Expected burst windows per simulated hour (> 0).
        per_hour: f64,
        /// Rate multiplier inside a burst window (≥ 1).
        mult: f64,
        /// Burst window length in ms (> 0).
        len_ms: u64,
    },
}

impl RateProfile {
    /// The stationary profile (the default everywhere).
    ///
    /// ```
    /// use hopper_workload::RateProfile;
    /// let p = RateProfile::constant();
    /// p.check().unwrap();
    /// ```
    pub fn constant() -> Self {
        RateProfile::Constant
    }

    /// The built-in diurnal curve with period `period_ms`
    /// (0 = auto: a quarter of the calibrated arrival window).
    ///
    /// ```
    /// use hopper_workload::RateProfile;
    /// let day = RateProfile::diurnal(3_600_000); // 1-hour "day"
    /// day.check().unwrap();
    /// ```
    pub fn diurnal(period_ms: u64) -> Self {
        RateProfile::Diurnal { period_ms }
    }

    /// Layer seeded burst windows on this profile: `per_hour` expected
    /// windows per simulated hour, each `len_ms` long, multiplying the
    /// rate by `mult` (the whole curve is renormalized to time-average
    /// 1, so the calibrated utilization target is unchanged).
    ///
    /// ```
    /// use hopper_workload::RateProfile;
    /// let p = RateProfile::constant().with_bursts(6.0, 4.0, 60_000);
    /// p.check().unwrap();
    /// // Expected burst fraction f = 6 * 60_000 / 3_600_000 = 10%.
    /// ```
    pub fn with_bursts(self, per_hour: f64, mult: f64, len_ms: u64) -> Self {
        RateProfile::Bursty {
            base: Box::new(self),
            per_hour,
            mult,
            len_ms,
        }
    }

    /// Validate parameters. The burst layer needs `per_hour > 0`,
    /// `mult ≥ 1`, `len_ms > 0`, an expected in-burst time fraction
    /// below 1 (`per_hour · len_ms < 1 hour`), and a non-burst base.
    pub fn check(&self) -> Result<(), String> {
        match self {
            RateProfile::Constant | RateProfile::Diurnal { .. } => Ok(()),
            RateProfile::Bursty {
                base,
                per_hour,
                mult,
                len_ms,
            } => {
                if matches!(**base, RateProfile::Bursty { .. }) {
                    return Err("burst profiles do not nest".into());
                }
                base.check()?;
                if !(per_hour.is_finite() && *per_hour > 0.0) {
                    return Err(format!("burst per_hour must be > 0, got {per_hour}"));
                }
                if !(mult.is_finite() && *mult >= 1.0) {
                    return Err(format!("burst mult must be >= 1, got {mult}"));
                }
                if *len_ms == 0 {
                    return Err("burst len_ms must be positive".into());
                }
                if per_hour * *len_ms as f64 >= 3_600_000.0 {
                    return Err(format!(
                        "bursts would cover the whole timeline: per_hour ({per_hour}) x \
                         len_ms ({len_ms}) must stay under one hour"
                    ));
                }
                Ok(())
            }
        }
    }
}

/// Poisson-placed burst windows and their renormalized multiplier.
#[derive(Debug, Clone)]
struct BurstState {
    /// In-window rate multiplier (before the global renormalization).
    mult: f64,
    /// Window length, ms.
    len_ms: f64,
    /// Mean gap between a window's end and the next window's start,
    /// chosen so the expected window count matches `per_hour`.
    mean_gap_ms: f64,
    /// Dedicated child RNG — window placement is a function of the
    /// trace seed alone, independent of `mult` (so sweeping the
    /// multiplier moves *how hard* each burst hits, never *when*).
    rng: StdRng,
    /// Windows generated so far, disjoint and sorted by start.
    windows: Vec<(f64, f64)>,
}

impl BurstState {
    /// Extend the lazily generated window list until the last window
    /// starts strictly after `t` (every edge at or before `t`, and the
    /// next edge after it, is then known).
    fn ensure(&mut self, t: f64) {
        while self.windows.last().is_none_or(|w| w.0 <= t) {
            let cursor = self.windows.last().map_or(0.0, |w| w.1);
            let gap = Dist::Exp {
                mean: self.mean_gap_ms,
            }
            .sample(&mut self.rng);
            let start = cursor + gap;
            self.windows.push((start, start + self.len_ms));
        }
    }

    /// `(multiplier at t, first window edge strictly after t)`.
    fn at(&mut self, t: f64) -> (f64, f64) {
        self.ensure(t);
        let i = self.windows.partition_point(|w| w.1 <= t);
        let (start, end) = self.windows[i];
        if t >= start {
            (self.mult, end)
        } else {
            (1.0, start)
        }
    }
}

/// Runtime evaluator for a non-constant [`RateProfile`]: holds the
/// resolved diurnal period, the lazily generated burst windows, and the
/// normalization constant, and converts exponential gap draws into
/// arrival-time advances by exact inversion.
#[derive(Debug, Clone)]
pub(crate) struct RateClock {
    /// Resolved diurnal period in ms (`None` for a constant base).
    diurnal_period_ms: Option<f64>,
    /// Burst layer, if any.
    burst: Option<BurstState>,
    /// Divisor restoring time-average 1 (the burst layer's expected
    /// inflation factor; 1 without bursts).
    norm: f64,
}

impl RateClock {
    /// Build the evaluator for `profile`. `window_ms` is the calibrated
    /// arrival window (resolves `period_ms = 0`); `seed` is the trace
    /// seed the burst-window process derives its child RNG from.
    /// Returns `None` for [`RateProfile::Constant`] — the stream then
    /// takes the historical constant-rate path, byte for byte.
    pub fn new(profile: &RateProfile, window_ms: f64, seed: u64) -> Option<RateClock> {
        profile.check().expect("invalid rate profile");
        let resolve_period = |period_ms: u64| -> f64 {
            if period_ms > 0 {
                period_ms as f64
            } else {
                (window_ms / 4.0).max(1.0)
            }
        };
        let (diurnal_period_ms, burst_cfg) = match profile {
            RateProfile::Constant => return None,
            RateProfile::Diurnal { period_ms } => (Some(resolve_period(*period_ms)), None),
            RateProfile::Bursty {
                base,
                per_hour,
                mult,
                len_ms,
            } => {
                let base_period = match **base {
                    RateProfile::Diurnal { period_ms } => Some(resolve_period(period_ms)),
                    _ => None,
                };
                (base_period, Some((*per_hour, *mult, *len_ms as f64)))
            }
        };
        let (burst, norm) = match burst_cfg {
            None => (None, 1.0),
            Some((per_hour, mult, len_ms)) => {
                // Expected fraction of time inside a burst window.
                let f = per_hour * len_ms / 3_600_000.0;
                let burst = BurstState {
                    mult,
                    len_ms,
                    mean_gap_ms: 3_600_000.0 / per_hour - len_ms,
                    rng: SeedSequence::new(seed).child_rng(BURST_SEED_TAG),
                    windows: Vec::new(),
                };
                (Some(burst), 1.0 + (mult - 1.0) * f)
            }
        };
        Some(RateClock {
            diurnal_period_ms,
            burst,
            norm,
        })
    }

    /// Diurnal base value and slope (per ms) at `t`; `(1, 0)` for a
    /// constant base.
    fn base_at(&self, t: f64) -> (f64, f64) {
        let Some(p) = self.diurnal_period_ms else {
            return (1.0, 0.0);
        };
        let u = (t / p).rem_euclid(1.0);
        let k = ((u * 4.0).floor() as usize).min(3);
        let seg_u = (u * 4.0 - k as f64).clamp(0.0, 1.0);
        let (lo, hi) = (DIURNAL_KNOTS[k], DIURNAL_KNOTS[k + 1]);
        (lo + (hi - lo) * seg_u, (hi - lo) / (p / 4.0))
    }

    /// First diurnal knot time strictly after `t` (infinite for a
    /// constant base).
    fn next_base_break(&self, t: f64) -> f64 {
        let Some(p) = self.diurnal_period_ms else {
            return f64::INFINITY;
        };
        let q = p / 4.0;
        let mut k = (t / q).floor() + 1.0;
        while k * q <= t {
            k += 1.0;
        }
        k * q
    }

    /// Advance from `t` by an exponential gap `g` drawn at relative
    /// rate 1: returns the `t'` with `∫_t^{t'} rel(s) ds = g`. Walks
    /// the piecewise-linear segments (diurnal knots × burst edges) and
    /// solves the final quadratic segment in closed form.
    pub fn advance(&mut self, t0: f64, g: f64) -> f64 {
        let mut t = t0;
        let mut rem = g;
        loop {
            let (mult, burst_edge) = match self.burst.as_mut() {
                Some(b) => b.at(t),
                None => (1.0, f64::INFINITY),
            };
            let (base, base_slope) = self.base_at(t);
            let scale = mult / self.norm;
            let a = base * scale; // rel rate at t (always > 0)
            let b = base_slope * scale; // d rel / dt on this segment
            let seg_end = burst_edge.min(self.next_base_break(t));
            if seg_end.is_finite() {
                let w = seg_end - t;
                let area = w * (a + 0.5 * b * w);
                if area < rem {
                    rem -= area;
                    t = seg_end;
                    continue;
                }
            }
            // Solve a·x + (b/2)·x² = rem inside the segment. The
            // discriminant cannot go negative: the segment's full area
            // covers `rem` and the rate stays strictly positive.
            let x = if b.abs() < 1e-12 {
                rem / a
            } else {
                ((a * a + 2.0 * b * rem).max(0.0).sqrt() - a) / b
            };
            return t + x;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    impl RateClock {
        /// Relative rate at `t` (time-average 1), for the calibration
        /// tests; arrival sampling goes through [`RateClock::advance`].
        fn rel_rate(&mut self, t: f64) -> f64 {
            let (mult, _) = match self.burst.as_mut() {
                Some(b) => b.at(t),
                None => (1.0, f64::INFINITY),
            };
            self.base_at(t).0 * mult / self.norm
        }
    }

    #[test]
    fn diurnal_knots_average_to_one() {
        // Trapezoid rule over the four equal-width segments.
        let avg: f64 = DIURNAL_KNOTS
            .windows(2)
            .map(|w| 0.25 * 0.5 * (w[0] + w[1]))
            .sum();
        assert!((avg - 1.0).abs() < 1e-12, "diurnal mean {avg}");
    }

    #[test]
    fn constant_profile_has_no_clock() {
        assert!(RateClock::new(&RateProfile::constant(), 1e6, 1).is_none());
    }

    #[test]
    fn check_rejects_bad_burst_parameters() {
        assert!(RateProfile::constant()
            .with_bursts(0.0, 2.0, 1000)
            .check()
            .is_err());
        assert!(RateProfile::constant()
            .with_bursts(2.0, 0.5, 1000)
            .check()
            .is_err());
        assert!(RateProfile::constant()
            .with_bursts(2.0, 2.0, 0)
            .check()
            .is_err());
        // Bursts covering the whole hour leave no off-burst time.
        assert!(RateProfile::constant()
            .with_bursts(60.0, 2.0, 60_000)
            .check()
            .is_err());
        // Nesting is rejected.
        assert!(RateProfile::constant()
            .with_bursts(2.0, 2.0, 1000)
            .with_bursts(2.0, 2.0, 1000)
            .check()
            .is_err());
    }

    #[test]
    fn diurnal_rel_rate_tracks_the_curve() {
        let day = 1_000_000.0;
        let mut c = RateClock::new(&RateProfile::diurnal(1_000_000), 4.0 * day, 7).unwrap();
        assert!((c.rel_rate(0.0) - 0.4).abs() < 1e-9);
        assert!((c.rel_rate(0.25 * day) - 1.6).abs() < 1e-9);
        assert!((c.rel_rate(0.5 * day) - 0.6).abs() < 1e-9);
        assert!((c.rel_rate(0.75 * day) - 1.4).abs() < 1e-9);
        // Periodic.
        assert!((c.rel_rate(2.25 * day) - 1.6).abs() < 1e-9);
        // Midpoint of the first ramp.
        assert!((c.rel_rate(0.125 * day) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn advance_inverts_the_rate_integral() {
        let profile = RateProfile::diurnal(800_000).with_bursts(4.0, 3.0, 120_000);
        let mut c = RateClock::new(&profile, 3_200_000.0, 11).unwrap();
        // ∫ rel over [t, advance(t, g)] must equal g: re-integrate
        // numerically with a fine grid and compare.
        let mut t = 0.0;
        for i in 0..200 {
            let g = 500.0 + (i as f64) * 37.0;
            let t2 = c.advance(t, g);
            assert!(t2 > t);
            let steps = 4000;
            let h = (t2 - t) / steps as f64;
            let mut area = 0.0;
            for s in 0..steps {
                let mid = t + (s as f64 + 0.5) * h;
                area += c.rel_rate(mid) * h;
            }
            assert!(
                (area - g).abs() / g < 1e-3,
                "step {i}: wanted area {g}, re-integrated {area}"
            );
            t = t2;
        }
    }

    #[test]
    fn diurnal_time_average_is_one_over_whole_periods() {
        let mut c = RateClock::new(&RateProfile::diurnal(400_000), 1_600_000.0, 3).unwrap();
        let steps = 40_000;
        let h = 400_000.0 / steps as f64;
        let avg: f64 = (0..steps)
            .map(|s| c.rel_rate((s as f64 + 0.5) * h) * h)
            .sum::<f64>()
            / 400_000.0;
        assert!((avg - 1.0).abs() < 1e-6, "period average {avg}");
    }

    #[test]
    fn burst_windows_depend_on_seed_not_mult() {
        let win = |mult: f64, seed: u64| -> Vec<(u64, u64)> {
            let p = RateProfile::constant().with_bursts(6.0, mult, 60_000);
            let mut c = RateClock::new(&p, 7_200_000.0, seed).unwrap();
            let b = c.burst.as_mut().unwrap();
            b.ensure(7_200_000.0);
            b.windows
                .iter()
                .map(|&(s, e)| (s as u64, e as u64))
                .collect()
        };
        assert_eq!(win(2.0, 5), win(8.0, 5), "mult must not move windows");
        assert_ne!(win(2.0, 5), win(2.0, 6), "seed must move windows");
    }

    #[test]
    fn bursty_long_run_average_stays_one() {
        // Time-average of the renormalized bursty curve over a long
        // horizon approaches 1 (law of large numbers over windows).
        let p = RateProfile::constant().with_bursts(12.0, 5.0, 30_000);
        let mut c = RateClock::new(&p, 1e8, 9).unwrap();
        let horizon = 2.0e8;
        let steps = 200_000;
        let h = horizon / steps as f64;
        let avg: f64 = (0..steps)
            .map(|s| c.rel_rate((s as f64 + 0.5) * h) * h)
            .sum::<f64>()
            / horizon;
        assert!((avg - 1.0).abs() < 0.05, "long-run average {avg}");
    }
}
