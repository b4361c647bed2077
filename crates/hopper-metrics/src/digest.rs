//! Constant-memory statistics for streaming (million-job) runs.
//!
//! A materialized run keeps every [`JobResult`](crate::JobResult) and
//! computes percentiles by sorting all durations — O(total jobs) memory,
//! the wall between 10k-job benches and sustained million-job arrival
//! streams. This module is the streaming replacement: an online
//! [`JobDigest`] folds each completed job into O(1) counters plus a
//! deterministic ε-approximate [`QuantileSketch`], so a driver can retire
//! a job's state the moment it completes and still report the paper's
//! duration statistics at the end.
//!
//! Two contracts matter (see DESIGN.md, "Streaming pipeline"):
//!
//! - **Determinism.** Both structures are pure functions of the observed
//!   *multiset* — observation order, thread count, and retirement timing
//!   cannot change any reported value. The digest's mean is an exact
//!   integer-millisecond sum divided at the end, so a streaming run and a
//!   materialized run of the same seed report bit-identical means.
//! - **Bounded error.** [`QuantileSketch::quantile`] returns a value
//!   within relative error ε of the true order statistic at the queried
//!   rank, using O(log(max/min)/ε) memory independent of the sample count.

use std::collections::BTreeMap;

/// A deterministic quantile sketch with bounded *relative* error.
///
/// Values are folded into logarithmically sized bins (a fixed-resolution
/// variant of the DDSketch/HDR-histogram family): bin `i` covers
/// `(γ^(i-1), γ^i]` with `γ = (1+ε)/(1-ε)`, and a query answers with the
/// bin's relative-error midpoint `2γ^i/(γ+1)`. Any value `x` in a bin is
/// therefore reported as some `v` with `|v − x| ≤ ε·x`.
///
/// Unlike sampling-based sketches (KLL, random GK variants) there is no
/// randomness anywhere: the sketch is a pure function of the observed
/// multiset, which is what lets streaming runs stay exactly reproducible
/// across observation orders and thread counts.
///
/// ```
/// use hopper_metrics::QuantileSketch;
///
/// let mut s = QuantileSketch::new(0.01); // ε = 1% relative error
/// for x in 1..=10_000u64 {
///     s.observe(x as f64);
/// }
/// let p50 = s.quantile(0.5);
/// assert!((p50 - 5_000.0).abs() <= 0.01 * 5_000.0 + 1.0);
/// let p99 = s.quantile(0.99);
/// assert!((p99 - 9_901.0).abs() <= 0.01 * 9_901.0 + 1.0);
/// // Memory is O(bins), not O(samples): 10k observations, < 2k bins.
/// assert!(s.num_bins() < 2_000);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct QuantileSketch {
    /// Relative-error bound ε.
    eps: f64,
    /// Bin growth factor `γ = (1+ε)/(1-ε)`.
    gamma: f64,
    /// Cached `ln γ` (the per-observe index divisor).
    ln_gamma: f64,
    /// Observations equal to zero (log-binning excludes exactly 0; every
    /// positive value, however small, gets a real bin).
    zeros: u64,
    /// Bin index → count. A `BTreeMap` so rank walks are in ascending
    /// value order without a sort.
    bins: BTreeMap<i32, u64>,
    /// Total observations.
    count: u64,
}

impl QuantileSketch {
    /// Create a sketch with relative-error bound `eps` (e.g. `0.01` for
    /// 1%). Panics unless `0 < eps < 1`.
    pub fn new(eps: f64) -> Self {
        assert!(eps > 0.0 && eps < 1.0, "eps must be in (0, 1), got {eps}");
        let gamma = (1.0 + eps) / (1.0 - eps);
        QuantileSketch {
            eps,
            gamma,
            ln_gamma: gamma.ln(),
            zeros: 0,
            bins: BTreeMap::new(),
            count: 0,
        }
    }

    /// The ε this sketch guarantees.
    pub fn eps(&self) -> f64 {
        self.eps
    }

    /// Total observations folded in.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Number of occupied bins (the memory footprint driver).
    pub fn num_bins(&self) -> usize {
        self.bins.len()
    }

    /// Fold one non-negative, finite value into the sketch.
    ///
    /// Zero is exact (its own bucket); every positive value — however
    /// small — lands in a real logarithmic bin, so the relative-error
    /// contract holds across the full non-negative range.
    pub fn observe(&mut self, x: f64) {
        assert!(
            x >= 0.0 && x.is_finite(),
            "sketch values must be finite ≥ 0"
        );
        self.count += 1;
        if x == 0.0 {
            self.zeros += 1;
            return;
        }
        let idx = (x.ln() / self.ln_gamma).ceil() as i32;
        *self.bins.entry(idx).or_insert(0) += 1;
    }

    /// Fold another sketch in. Because bin boundaries are a pure
    /// function of ε, the merge is exact: the result equals the sketch
    /// of the pooled multiset. Panics if the ε values differ.
    pub fn merge(&mut self, other: &QuantileSketch) {
        assert_eq!(
            self.eps.to_bits(),
            other.eps.to_bits(),
            "merging sketches with different ε"
        );
        self.zeros += other.zeros;
        self.count += other.count;
        for (&idx, &c) in &other.bins {
            *self.bins.entry(idx).or_insert(0) += c;
        }
    }

    /// The ε-approximate quantile at `p` ∈ \[0, 1\]: a value within
    /// relative error ε of the order statistic at rank `⌈p·(n−1)⌉`.
    /// Returns 0.0 on an empty sketch (mirroring
    /// [`percentile`](crate::percentile) on empty input).
    pub fn quantile(&self, p: f64) -> f64 {
        assert!((0.0..=1.0).contains(&p), "quantile {p} out of range");
        if self.count == 0 {
            return 0.0;
        }
        let rank = (p * (self.count - 1) as f64).ceil() as u64;
        if rank < self.zeros {
            return 0.0;
        }
        let mut cum = self.zeros;
        for (&idx, &c) in &self.bins {
            cum += c;
            if cum > rank {
                // Relative-error midpoint of bin (γ^(i−1), γ^i].
                return 2.0 * self.gamma.powi(idx) / (self.gamma + 1.0);
            }
        }
        // rank == count − 1 lands here only through float round-up; the
        // maximum bin answers it.
        let (&idx, _) = self.bins.iter().next_back().expect("count > zeros");
        2.0 * self.gamma.powi(idx) / (self.gamma + 1.0)
    }
}

/// Online per-job duration statistics: the constant-memory replacement
/// for keeping every `JobResult` alive to the end of a run.
///
/// The mean is exact (an integer millisecond sum — observation order
/// cannot perturb it, so streaming and materialized runs of the same
/// seed report the same mean bit-for-bit); percentiles come from the
/// embedded [`QuantileSketch`] with its ε relative-error contract.
///
/// ```
/// use hopper_metrics::JobDigest;
///
/// let mut d = JobDigest::new();
/// for ms in [100u64, 200, 300] {
///     d.observe_ms(ms);
/// }
/// assert_eq!(d.count(), 3);
/// assert_eq!(d.mean_ms(), 200.0); // exact: (100+200+300)/3
/// assert_eq!(d.max_ms(), 300);
/// let p50 = d.quantile_ms(0.5);
/// assert!((p50 - 200.0).abs() <= 0.01 * 200.0);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct JobDigest {
    /// Jobs observed.
    count: u64,
    /// Exact sum of durations in integer milliseconds.
    total_ms: u64,
    /// Largest observed duration (exact).
    max_ms: u64,
    /// ε-approximate duration quantiles.
    sketch: QuantileSketch,
}

/// The default relative-error bound of a [`JobDigest`]'s sketch (1%).
pub const DIGEST_EPS: f64 = 0.01;

impl Default for JobDigest {
    fn default() -> Self {
        Self::new()
    }
}

impl JobDigest {
    /// An empty digest with the default ε ([`DIGEST_EPS`]).
    pub fn new() -> Self {
        JobDigest {
            count: 0,
            total_ms: 0,
            max_ms: 0,
            sketch: QuantileSketch::new(DIGEST_EPS),
        }
    }

    /// Fold one job's duration (ms) in.
    pub fn observe_ms(&mut self, duration_ms: u64) {
        self.count += 1;
        self.total_ms += duration_ms;
        self.max_ms = self.max_ms.max(duration_ms);
        self.sketch.observe(duration_ms as f64);
    }

    /// Fold another digest in (exact for count/total/max; the sketch
    /// merge equals the pooled multiset's sketch).
    pub fn merge(&mut self, other: &JobDigest) {
        self.count += other.count;
        self.total_ms += other.total_ms;
        self.max_ms = self.max_ms.max(other.max_ms);
        self.sketch.merge(&other.sketch);
    }

    /// Jobs observed.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Exact maximum observed duration (ms); 0 when empty.
    pub fn max_ms(&self) -> u64 {
        self.max_ms
    }

    /// Exact mean duration (ms); 0.0 when empty (matching
    /// [`mean_duration`](crate::mean_duration) on an empty run).
    pub fn mean_ms(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.total_ms as f64 / self.count as f64
        }
    }

    /// ε-approximate duration quantile (ms) at `p` ∈ \[0, 1\].
    pub fn quantile_ms(&self, p: f64) -> f64 {
        self.sketch.quantile(p)
    }

    /// The sketch's relative-error bound ε.
    pub fn eps(&self) -> f64 {
        self.sketch.eps()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Exact order statistic at the sketch's rank rule, for comparison.
    fn exact_rank(sorted: &[f64], p: f64) -> f64 {
        let rank = (p * (sorted.len() - 1) as f64).ceil() as usize;
        sorted[rank]
    }

    #[test]
    fn sketch_meets_relative_error_on_uniform_data() {
        let mut s = QuantileSketch::new(0.01);
        let data: Vec<f64> = (1..=50_000u64).map(|x| x as f64).collect();
        for &x in &data {
            s.observe(x);
        }
        for p in [0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 0.99, 0.999, 1.0] {
            let exact = exact_rank(&data, p);
            let approx = s.quantile(p);
            assert!(
                (approx - exact).abs() <= 0.01 * exact + 1e-9,
                "p={p}: approx {approx} vs exact {exact}"
            );
        }
    }

    #[test]
    fn sketch_meets_relative_error_on_heavy_tail() {
        // Pareto-ish data spanning 6 orders of magnitude.
        let mut s = QuantileSketch::new(0.01);
        let data: Vec<f64> = (0..20_000)
            .map(|i| 10.0 * (1.0 - (i as f64 + 0.5) / 20_000.0).powf(-1.5))
            .collect();
        let mut sorted = data.clone();
        sorted.sort_by(|a, b| a.partial_cmp(b).unwrap());
        for &x in &data {
            s.observe(x);
        }
        for p in [0.01, 0.5, 0.9, 0.99, 0.9999] {
            let exact = exact_rank(&sorted, p);
            let approx = s.quantile(p);
            assert!(
                (approx - exact).abs() <= 0.01 * exact,
                "p={p}: approx {approx} vs exact {exact}"
            );
        }
        // Memory stays bounded: 6 decades at ε=1% is ~700 bins.
        assert!(s.num_bins() < 1_000, "bins: {}", s.num_bins());
    }

    #[test]
    fn sketch_is_order_independent() {
        let data: Vec<f64> = (1..=5_000u64).map(|x| (x * 7 % 9_001) as f64).collect();
        let mut fwd = QuantileSketch::new(0.02);
        let mut rev = QuantileSketch::new(0.02);
        for &x in &data {
            fwd.observe(x);
        }
        for &x in data.iter().rev() {
            rev.observe(x);
        }
        assert_eq!(fwd, rev);
        for p in [0.0, 0.3, 0.5, 0.97, 1.0] {
            assert_eq!(fwd.quantile(p).to_bits(), rev.quantile(p).to_bits());
        }
    }

    #[test]
    fn sketch_handles_zeros_and_empty() {
        let mut s = QuantileSketch::new(0.01);
        assert_eq!(s.quantile(0.5), 0.0);
        assert_eq!(s.count(), 0);
        for _ in 0..10 {
            s.observe(0.0);
        }
        s.observe(100.0);
        assert_eq!(s.quantile(0.5), 0.0, "majority zeros ⇒ median 0");
        let p100 = s.quantile(1.0);
        assert!((p100 - 100.0).abs() <= 1.0);
    }

    #[test]
    fn sketch_keeps_relative_error_below_one() {
        // Positive sub-1.0 values must not collapse into the zero
        // bucket: the contract is relative error for *all* x > 0.
        let mut s = QuantileSketch::new(0.01);
        for &x in &[0.001, 0.02, 0.3, 0.4, 0.45] {
            s.observe(x);
        }
        for (p, exact) in [(0.0, 0.001), (0.5, 0.3), (1.0, 0.45)] {
            let approx = s.quantile(p);
            assert!(
                (approx - exact).abs() <= 0.01 * exact,
                "p={p}: {approx} vs {exact}"
            );
        }
    }

    #[test]
    fn sketch_singleton_and_endpoints() {
        let mut s = QuantileSketch::new(0.01);
        s.observe(42.0);
        for p in [0.0, 0.5, 1.0] {
            assert!((s.quantile(p) - 42.0).abs() <= 0.42 + 1e-9);
        }
    }

    #[test]
    #[should_panic(expected = "finite")]
    fn sketch_rejects_negative() {
        QuantileSketch::new(0.01).observe(-1.0);
    }

    #[test]
    fn digest_mean_is_exact_integer_math() {
        let mut d = JobDigest::new();
        let durations: Vec<u64> = (0..10_000).map(|i| (i * 31) % 100_000).collect();
        for &ms in &durations {
            d.observe_ms(ms);
        }
        let total: u64 = durations.iter().sum();
        assert_eq!(d.mean_ms().to_bits(), (total as f64 / 10_000.0).to_bits());
        assert_eq!(d.max_ms(), *durations.iter().max().unwrap());
        assert_eq!(d.count(), 10_000);
    }

    #[test]
    fn digest_empty_is_zero() {
        let d = JobDigest::new();
        assert_eq!(d.mean_ms(), 0.0);
        assert_eq!(d.quantile_ms(0.5), 0.0);
        assert_eq!(d.max_ms(), 0);
        assert_eq!(d, JobDigest::default());
    }

    #[test]
    fn digest_quantiles_track_exact_percentiles() {
        let mut d = JobDigest::new();
        let durations: Vec<f64> = (1..=20_000u64).map(|i| i as f64).collect();
        for &ms in &durations {
            d.observe_ms(ms as u64);
        }
        for p in [0.1, 0.5, 0.9, 0.99] {
            let exact = crate::percentile(&durations, p);
            let approx = d.quantile_ms(p);
            // ε on the order statistic, plus one rank of interpolation
            // slack versus the linear-interpolated exact percentile.
            assert!(
                (approx - exact).abs() <= d.eps() * exact + 1.0,
                "p={p}: {approx} vs {exact}"
            );
        }
    }
}
