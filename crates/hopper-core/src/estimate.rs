//! Online estimation of the workload parameters Hopper depends on.
//!
//! - **β** (Pareto tail index of task durations): learned continuously from
//!   completed task copies (§7.2: "we continually fit the parameter β of
//!   task durations based on the completed tasks (including stragglers);
//!   the error in β's estimate falls to ≤ 5% after just 6% of the jobs").
//!   [`BetaEstimator`] keeps a sliding window of duration *multipliers*
//!   (observed duration over nominal work — the same normalization
//!   production systems get from input-size-based duration predictors
//!   \[16\]) and applies the standard Pareto maximum-likelihood estimator.
//!
//! - **α** (per-job DAG communication weight): predicted from recurring
//!   jobs (§6.3: "we predict intermediate data sizes based on similar jobs
//!   in the past", reporting 92% average accuracy). [`AlphaEstimator`]
//!   learns each template's intermediate output per task and serves
//!   predictions for newly-arrived jobs of the same template.

use std::collections::HashMap;
use std::collections::VecDeque;

/// Online Pareto tail-index (β) estimator over a sliding window.
///
/// A read sums one cached log term per sample instead of taking a fresh
/// `ln()` of each: the estimate depends on the window only through its
/// minimum `x_min` and the terms `ln(x_i / x_min)`, and the minimum
/// rarely moves. The cache is bit-exact — every term is the expression
/// the full sweep evaluates, on the same operands, summed in the same
/// order.
#[derive(Debug, Clone)]
pub struct BetaEstimator {
    /// The window, oldest first: each sample with its cached log term.
    window: VecDeque<Sample>,
    /// Monotone-minimum deque: the window's samples that are no larger
    /// than any later sample, oldest first (equal values are all kept).
    /// Its front is the window minimum.
    mins: VecDeque<f64>,
    /// The minimum every cached `ln_ratio` was computed against. The
    /// terms are valid iff this equals the window minimum; `observe`
    /// rebuilds them as soon as the minimum moves.
    term_min: f64,
    /// Times `observe` recomputed every cached term because the window
    /// minimum moved (a work counter; each rebuild costs one `ln()` per
    /// sample, every other observation costs one).
    term_rebuilds: u64,
    capacity: usize,
    min_samples: usize,
    prior: f64,
    /// Memoized estimate of the current window; invalidated by
    /// `observe`. The estimate is a pure function of the window, so
    /// serving the memo between observations is exact.
    cached: std::cell::Cell<Option<f64>>,
}

/// One window entry: a duration multiplier and its `ln(x / term_min)`.
#[derive(Debug, Clone, Copy)]
struct Sample {
    x: f64,
    ln_ratio: f64,
}

impl BetaEstimator {
    /// `prior` is returned until `min_samples` observations accumulate;
    /// `capacity` bounds the sliding window (older samples are dropped so
    /// the estimate tracks time-varying straggler behaviour).
    pub fn new(prior: f64, capacity: usize, min_samples: usize) -> Self {
        assert!(prior > 1.0, "prior β must be > 1");
        assert!(capacity >= min_samples && min_samples >= 2);
        BetaEstimator {
            window: VecDeque::with_capacity(capacity),
            mins: VecDeque::new(),
            term_min: f64::NAN,
            term_rebuilds: 0,
            capacity,
            min_samples,
            prior,
            cached: std::cell::Cell::new(None),
        }
    }

    /// Default configuration: prior β = 1.5 (mid-range of production
    /// traces), window of 2000 samples, estimates after 20.
    pub fn with_prior(prior: f64) -> Self {
        Self::new(prior, 2000, 20)
    }

    /// Record one completed copy's duration multiplier
    /// (`observed duration / nominal work`; > 0).
    pub fn observe(&mut self, multiplier: f64) {
        if !(multiplier.is_finite() && multiplier > 0.0) {
            return; // defensive: ignore garbage observations
        }
        if self.window.len() == self.capacity {
            let evicted = self.window.pop_front().map(|s| s.x);
            // The oldest sample, if still a candidate, heads the deque.
            if self.mins.front().copied() == evicted {
                self.mins.pop_front();
            }
        }
        while self.mins.back().is_some_and(|&b| b > multiplier) {
            self.mins.pop_back();
        }
        self.mins.push_back(multiplier);
        let x_min = self.mins[0];
        self.window.push_back(Sample {
            x: multiplier,
            ln_ratio: (multiplier / x_min).ln(),
        });
        if x_min != self.term_min {
            self.term_min = x_min;
            self.term_rebuilds += 1;
            for s in &mut self.window {
                s.ln_ratio = (s.x / x_min).ln();
            }
        }
        self.cached.set(None);
    }

    /// The learned estimate, or `None` while fewer than `min_samples`
    /// observations back it (when [`BetaEstimator::beta`] serves the
    /// prior).
    pub fn learned(&self) -> Option<f64> {
        (self.window.len() >= self.min_samples).then(|| self.beta())
    }

    /// Current β estimate.
    ///
    /// Pareto MLE with `x_min` taken as the window minimum and the
    /// small-sample correction: `β̂ = (n − 2) / Σ ln(x_i / x_min)`,
    /// clamped to `[1.05, 4.0]` so downstream math (2/β, mean factors)
    /// stays sane even on degenerate windows. The prior is served below
    /// `min_samples` samples and when every sample equals the minimum.
    pub fn beta(&self) -> f64 {
        if let Some(v) = self.cached.get() {
            return v;
        }
        let v = self.compute_beta();
        self.cached.set(Some(v));
        v
    }

    /// The MLE over the cached terms (memoized by [`BetaEstimator::beta`]).
    fn compute_beta(&self) -> f64 {
        if self.window.len() < self.min_samples {
            return self.prior;
        }
        let log_sum: f64 = self.window.iter().map(|s| s.ln_ratio).sum();
        #[cfg(debug_assertions)]
        self.debug_check_terms(log_sum);
        if log_sum <= 0.0 {
            return self.prior; // all samples identical: no tail information
        }
        let n = self.window.len() as f64;
        // The plain MLE is biased by the x_min plug-in; the standard
        // small-sample correction is (n-2)/n · n/Σln = (n-2)/Σln.
        let beta = (n - 2.0) / log_sum;
        beta.clamp(1.05, 4.0)
    }

    /// Debug-build oracle: the deque's minimum and the cached log sum
    /// must equal a full sweep of the window, bit for bit. Sampled
    /// (every 64th read) — the sweep is the O(window) `ln()` pass the
    /// cache removes.
    #[cfg(debug_assertions)]
    fn debug_check_terms(&self, log_sum: f64) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICK: AtomicU64 = AtomicU64::new(0);
        if !TICK.fetch_add(1, Ordering::Relaxed).is_multiple_of(64) {
            return;
        }
        let x_min = self
            .window
            .iter()
            .map(|s| s.x)
            .fold(f64::INFINITY, f64::min);
        let swept: f64 = self.window.iter().map(|s| (s.x / x_min).ln()).sum();
        debug_assert_eq!(self.mins[0].to_bits(), x_min.to_bits(), "β minimum drifted");
        debug_assert_eq!(self.term_min.to_bits(), x_min.to_bits(), "β terms stale");
        debug_assert_eq!(log_sum.to_bits(), swept.to_bits(), "β log sum drifted");
    }
}

/// Per-template α (intermediate-data) predictor.
///
/// A job's α is the ratio of remaining downstream network-transfer work to
/// remaining upstream compute work (§4.2). The part that is *unknown*
/// upfront is the intermediate output volume; this estimator learns the
/// per-task output (MB) of each recurring template from completed phases
/// and predicts it for new jobs, exactly the §6.3 strategy.
#[derive(Debug, Clone, Default)]
pub struct AlphaEstimator {
    /// Template → (sum of observed per-task output MB, count).
    history: HashMap<u32, (f64, u64)>,
    /// Running global mean as a cold-start fallback.
    global: (f64, u64),
    /// Accuracy tracking: Σ(1 − relative error), count.
    accuracy: (f64, u64),
}

impl AlphaEstimator {
    /// Fresh estimator with no history.
    pub fn new() -> Self {
        Self::default()
    }

    /// Record an observed per-task intermediate output (MB) for `template`
    /// (or `None` for a one-off job, which still feeds the global mean).
    pub fn observe(&mut self, template: Option<u32>, output_mb_per_task: f64) {
        if !(output_mb_per_task.is_finite() && output_mb_per_task >= 0.0) {
            return;
        }
        if let Some(t) = template {
            let e = self.history.entry(t).or_insert((0.0, 0));
            e.0 += output_mb_per_task;
            e.1 += 1;
        }
        self.global.0 += output_mb_per_task;
        self.global.1 += 1;
    }

    /// Predict per-task output MB for a job of `template`; `None` if there
    /// is no history at all yet.
    pub fn predict(&self, template: Option<u32>) -> Option<f64> {
        if let Some(t) = template {
            if let Some(&(sum, n)) = self.history.get(&t) {
                if n > 0 {
                    return Some(sum / n as f64);
                }
            }
        }
        (self.global.1 > 0).then(|| self.global.0 / self.global.1 as f64)
    }

    /// Score a resolved prediction against the actual value (drives the
    /// "92% accuracy on average" statistic of §6.3 / §7.2).
    pub fn record_outcome(&mut self, predicted: f64, actual: f64) {
        if actual <= 0.0 || !predicted.is_finite() {
            return;
        }
        let rel_err = ((predicted - actual).abs() / actual).min(1.0);
        self.accuracy.0 += 1.0 - rel_err;
        self.accuracy.1 += 1;
    }

    /// Mean prediction accuracy in \[0, 1\] (`None` before any outcome).
    pub fn accuracy(&self) -> Option<f64> {
        (self.accuracy.1 > 0).then(|| self.accuracy.0 / self.accuracy.1 as f64)
    }
}

/// Compute α from its ingredients (pure helper; `hopper-cluster`'s
/// `JobRun` α methods call it).
///
/// `remaining_transfer_ms` is the time to move the job's pending
/// intermediate data at the given per-slot bandwidth; `remaining_compute_ms`
/// is the nominal compute remaining in the current (upstream) phase. The
/// result is clamped to keep `√α` scaling within a sane band.
pub fn alpha_from_work(remaining_transfer_ms: f64, remaining_compute_ms: f64) -> f64 {
    if remaining_compute_ms <= 0.0 {
        return 1.0;
    }
    (remaining_transfer_ms / remaining_compute_ms).clamp(0.05, 20.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopper_sim::rng_from_seed;
    use proptest::prelude::*;
    use rand::Rng;

    /// The full-window sweep the incremental estimator replaces, kept
    /// verbatim as the oracle: one `f64::min` fold, then one divide and
    /// `ln()` per sample.
    fn reference_beta(window: &[f64], prior: f64, min_samples: usize) -> f64 {
        if window.len() < min_samples {
            return prior;
        }
        let x_min = window.iter().copied().fold(f64::INFINITY, f64::min);
        if !(x_min.is_finite() && x_min > 0.0) {
            return prior;
        }
        let log_sum: f64 = window.iter().map(|x| (x / x_min).ln()).sum();
        if log_sum <= 0.0 {
            return prior;
        }
        let n = window.len() as f64;
        let beta = (n - 2.0) / log_sum;
        beta.clamp(1.05, 4.0)
    }

    proptest! {
        /// The cached terms and the minimum deque reproduce the full
        /// sweep bit for bit. Small windows evict the minimum often;
        /// the step kinds mix fresh values, repeats of the current
        /// minimum (so one of several equal minima gets evicted), new
        /// record lows, near-identical samples (the clamp and the
        /// `log_sum <= 0` prior fallback), and garbage. Reads are
        /// skipped for stretches longer than the window.
        #[test]
        fn incremental_beta_matches_full_sweep_bit_for_bit(
            capacity in 3usize..=8,
            min_samples in 2usize..=8,
            flat in 0u8..4,
            read_gap in 1usize..=12,
            steps in prop::collection::vec((0u8..10, 0.5f64..4.0), 1..200),
        ) {
            let min_samples = min_samples.min(capacity);
            let mut est = BetaEstimator::new(1.5, capacity, min_samples);
            let mut window: Vec<f64> = Vec::new();
            let mut low = 0.5;
            for (i, &(kind, v)) in steps.iter().enumerate() {
                // One case in four only repeats 1.0 or samples just above it.
                let kind = if flat == 0 { 3 + kind % 2 } else { kind };
                let x = match kind {
                    0..=2 => v,
                    3 => 1.0,
                    4 => 1.0 + (v * 4.0).floor() * 1e-9,
                    5 => {
                        low *= 0.5;
                        low
                    }
                    6 => [f64::NAN, -v, 0.0, f64::INFINITY][(v as usize) % 4],
                    _ => window.iter().copied().fold(v, f64::min),
                };
                est.observe(x);
                if x.is_finite() && x > 0.0 {
                    if window.len() == capacity {
                        window.remove(0);
                    }
                    window.push(x);
                }
                if i % read_gap == 0 || kind == 9 {
                    let want = reference_beta(&window, 1.5, min_samples);
                    prop_assert_eq!(est.beta().to_bits(), want.to_bits(), "step {i}: {window:?}");
                    let learned = (window.len() >= min_samples).then_some(want.to_bits());
                    prop_assert_eq!(est.learned().map(f64::to_bits), learned);
                }
            }
        }
    }

    /// The speed-up, pinned by an exact counter instead of wall time: on
    /// an i.i.d. Pareto stream the window minimum moves (a record low,
    /// or the minimum ages out) on well under 1% of observations, so
    /// nearly every read is one add pass over cached terms.
    #[test]
    fn beta_terms_rebuild_on_under_one_percent_of_reads() {
        let mut rng = rng_from_seed(5);
        let mut est = BetaEstimator::with_prior(1.5);
        let reads = 20_000u64;
        for _ in 0..reads {
            let u: f64 = 1.0 - rng.gen::<f64>();
            est.observe(1.0 / u.powf(1.0 / 1.5));
            est.beta();
        }
        let rebuilds = est.term_rebuilds;
        assert!(rebuilds > 0, "the minimum must move at least once");
        assert!(
            rebuilds * 100 < reads,
            "{rebuilds} rebuilds over {reads} reads"
        );
    }

    #[test]
    fn learned_is_none_below_min_samples() {
        let mut est = BetaEstimator::new(1.7, 10, 3);
        est.observe(1.0);
        est.observe(2.0);
        assert_eq!(est.learned(), None);
        assert_eq!(est.beta(), 1.7);
        est.observe(f64::NAN);
        assert_eq!(est.learned(), None, "garbage does not count");
        est.observe(3.0);
        assert_eq!(est.learned(), Some(est.beta()));
    }

    /// Draw Pareto(β, x_min=1) samples and check the estimator recovers β.
    fn pareto_recovery(beta_true: f64) -> f64 {
        let mut rng = rng_from_seed(99);
        let mut est = BetaEstimator::new(1.5, 4000, 20);
        for _ in 0..4000 {
            let u: f64 = 1.0 - rng.gen::<f64>();
            est.observe(1.0 / u.powf(1.0 / beta_true));
        }
        est.beta()
    }

    #[test]
    fn beta_mle_recovers_shape() {
        for beta in [1.2, 1.5, 1.8] {
            let hat = pareto_recovery(beta);
            assert!((hat - beta).abs() / beta < 0.08, "β={beta} estimated {hat}");
        }
    }

    #[test]
    fn beta_mle_recovery_is_scale_invariant() {
        // The MLE plugs in the window minimum as x_min, so the estimate
        // must not depend on the multiplier scale (nominal-work units).
        for scale in [0.25, 1.0, 7.5] {
            let mut rng = rng_from_seed(42);
            let mut est = BetaEstimator::new(1.5, 4000, 20);
            let beta_true = 1.4;
            for _ in 0..4000 {
                let u: f64 = 1.0 - rng.gen::<f64>();
                est.observe(scale / u.powf(1.0 / beta_true));
            }
            let hat = est.beta();
            assert!(
                (hat - beta_true).abs() / beta_true < 0.08,
                "scale {scale}: β={beta_true} estimated {hat}"
            );
        }
    }

    #[test]
    fn beta_mle_recovery_holds_across_seeds() {
        // Guard against a lucky-seed pass: recovery tolerance must hold
        // for several independent sample streams.
        let beta_true = 1.6;
        for seed in [7, 21, 303, 9999] {
            let mut rng = rng_from_seed(seed);
            let mut est = BetaEstimator::new(1.5, 4000, 20);
            for _ in 0..4000 {
                let u: f64 = 1.0 - rng.gen::<f64>();
                est.observe(1.0 / u.powf(1.0 / beta_true));
            }
            let hat = est.beta();
            assert!(
                (hat - beta_true).abs() / beta_true < 0.10,
                "seed {seed}: β={beta_true} estimated {hat}"
            );
        }
    }

    #[test]
    fn beta_prior_before_min_samples() {
        let mut est = BetaEstimator::with_prior(1.4);
        assert_eq!(est.beta(), 1.4);
        for _ in 0..5 {
            est.observe(1.0);
        }
        assert_eq!(est.beta(), 1.4, "still under min_samples");
    }

    #[test]
    fn beta_identical_samples_fall_back_to_prior() {
        let mut est = BetaEstimator::new(1.6, 100, 2);
        for _ in 0..50 {
            est.observe(2.0);
        }
        assert_eq!(est.beta(), 1.6);
    }

    #[test]
    fn beta_window_slides() {
        let mut est = BetaEstimator::new(1.5, 100, 2);
        // Fill with a light tail, then flood with a heavy tail; the window
        // must forget the old regime.
        let mut rng = rng_from_seed(3);
        for _ in 0..100 {
            let u: f64 = 1.0 - rng.gen::<f64>();
            est.observe(1.0 / u.powf(1.0 / 3.0)); // β = 3
        }
        let light = est.beta();
        for _ in 0..100 {
            let u: f64 = 1.0 - rng.gen::<f64>();
            est.observe(1.0 / u.powf(1.0 / 1.2)); // β = 1.2
        }
        let heavy = est.beta();
        assert!(heavy < light, "window did not adapt: {light} → {heavy}");
        assert!(heavy < 1.6, "heavy-tail estimate {heavy}");
    }

    #[test]
    fn beta_ignores_garbage() {
        let mut est = BetaEstimator::new(1.5, 100, 2);
        est.observe(f64::NAN);
        est.observe(-1.0);
        est.observe(0.0);
        est.observe(f64::INFINITY);
        // One real sample: with min_samples = 2, any counted garbage
        // value would make the estimate learned.
        est.observe(1.0);
        assert_eq!(est.learned(), None, "garbage is not a sample");
        assert_eq!(est.window.len(), 1);
    }

    #[test]
    fn beta_clamped_to_sane_band() {
        let mut est = BetaEstimator::new(1.5, 100, 2);
        // Nearly identical samples → enormous raw MLE → clamped to 4.
        for i in 0..100 {
            est.observe(1.0 + (i as f64) * 1e-9);
        }
        assert!(est.beta() <= 4.0);
    }

    #[test]
    fn alpha_predicts_per_template() {
        let mut est = AlphaEstimator::new();
        est.observe(Some(1), 10.0);
        est.observe(Some(1), 12.0);
        est.observe(Some(2), 100.0);
        assert!((est.predict(Some(1)).unwrap() - 11.0).abs() < 1e-9);
        assert!((est.predict(Some(2)).unwrap() - 100.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_falls_back_to_global_mean() {
        let mut est = AlphaEstimator::new();
        assert_eq!(est.predict(Some(5)), None);
        est.observe(Some(1), 10.0);
        est.observe(None, 20.0);
        // Unknown template → global mean of all observations.
        assert!((est.predict(Some(5)).unwrap() - 15.0).abs() < 1e-9);
        assert!((est.predict(None).unwrap() - 15.0).abs() < 1e-9);
    }

    #[test]
    fn alpha_accuracy_tracking() {
        let mut est = AlphaEstimator::new();
        assert_eq!(est.accuracy(), None);
        est.record_outcome(9.0, 10.0); // 10% error → 0.9
        est.record_outcome(10.0, 10.0); // exact → 1.0
        assert!((est.accuracy().unwrap() - 0.95).abs() < 1e-9);
        // Catastrophic mispredictions floor at 0 accuracy, not negative.
        est.record_outcome(1000.0, 1.0);
        assert!(est.accuracy().unwrap() > 0.6);
    }

    #[test]
    fn alpha_from_work_ratio_and_clamps() {
        assert!((alpha_from_work(500.0, 1000.0) - 0.5).abs() < 1e-12);
        assert_eq!(alpha_from_work(1.0, 0.0), 1.0);
        assert_eq!(alpha_from_work(1e9, 1.0), 20.0);
        assert_eq!(alpha_from_work(0.0, 100.0), 0.05);
    }

    #[test]
    fn alpha_from_work_degenerate_inputs_stay_in_band() {
        // Negative compute means "no upstream work left": neutral α = 1.
        assert_eq!(alpha_from_work(100.0, -5.0), 1.0);
        // Negative transfer clamps to the band floor rather than going
        // negative (√α is taken downstream).
        assert_eq!(alpha_from_work(-100.0, 50.0), 0.05);
        let a = alpha_from_work(f64::INFINITY, 1.0);
        assert!((0.05..=20.0).contains(&a));
    }
}
