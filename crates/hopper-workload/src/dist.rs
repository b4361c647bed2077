//! Probability distributions used by workload synthesis and the straggler
//! model.
//!
//! The paper's key distributional facts (its §4, citing the Facebook and
//! Bing traces) are:
//!
//! - task durations are heavy-tailed **Pareto** with shape `1 < β < 2`
//!   (smaller β ⇒ worse stragglers);
//! - job sizes (task counts) are heavy-tailed as well;
//! - job arrivals are well modelled as Poisson (exponential inter-arrivals).
//!
//! Everything is sampled by inverse-CDF from a caller-provided RNG so the
//! whole workspace stays deterministic under a fixed seed.

use rand::Rng;

/// A one-dimensional distribution, sampled by inverse transform.
///
/// Kept as an enum (not a trait object) so workload profiles stay `Clone +
/// Debug` and comparisons in tests are straightforward.
#[derive(Debug, Clone, PartialEq)]
pub enum Dist {
    /// Pareto with tail index `shape` (β) and minimum value `scale` (x_m):
    /// `P(X > x) = (scale/x)^shape` for `x ≥ scale`.
    Pareto {
        /// Tail index β; heavier tail for smaller values. Must be > 0.
        shape: f64,
        /// Minimum value x_m (> 0).
        scale: f64,
    },
    /// Pareto truncated to `[min, max]` (inclusive); avoids unbounded draws
    /// when sampling job sizes.
    BoundedPareto {
        /// Tail index.
        shape: f64,
        /// Lower bound (> 0).
        min: f64,
        /// Upper bound (> min).
        max: f64,
    },
    /// Exponential with the given mean (rate = 1/mean).
    Exp {
        /// Mean of the distribution (> 0).
        mean: f64,
    },
    /// Log-normal given the mean/σ of the underlying normal.
    LogNormal {
        /// Mean of `ln X`.
        mu: f64,
        /// Standard deviation of `ln X` (≥ 0).
        sigma: f64,
    },
    /// Uniform on `[lo, hi)`.
    Uniform {
        /// Inclusive lower bound.
        lo: f64,
        /// Exclusive upper bound.
        hi: f64,
    },
    /// A point mass.
    Constant(
        /// The constant value returned by every sample.
        f64,
    ),
}

impl Dist {
    /// A Pareto distribution with tail index `beta`, rescaled to unit mean.
    ///
    /// This is the canonical per-copy duration *multiplier* in the straggler
    /// model: a task of nominal work `w` takes `w · X` with `E[X] = 1`, so
    /// nominal work is directly the expected duration. Requires `beta > 1`
    /// (infinite mean otherwise).
    pub fn unit_mean_pareto(beta: f64) -> Dist {
        assert!(beta > 1.0, "unit-mean Pareto needs shape > 1, got {beta}");
        Dist::Pareto {
            shape: beta,
            scale: (beta - 1.0) / beta,
        }
    }

    /// Draw one sample.
    pub fn sample<R: Rng + ?Sized>(&self, rng: &mut R) -> f64 {
        // `u` in (0, 1]: avoid u == 0 which maps to +inf for Pareto.
        let u: f64 = 1.0 - rng.gen::<f64>();
        match *self {
            Dist::Pareto { shape, scale } => scale / u.powf(1.0 / shape),
            Dist::BoundedPareto { shape, min, max } => {
                // Inverse CDF of the truncated Pareto.
                let ratio = (min / max).powf(shape);
                let x = min / (1.0 - (1.0 - u) * (1.0 - ratio)).powf(1.0 / shape);
                x.clamp(min, max)
            }
            Dist::Exp { mean } => -mean * u.ln(),
            Dist::LogNormal { mu, sigma } => {
                let z = standard_normal(rng);
                (mu + sigma * z).exp()
            }
            Dist::Uniform { lo, hi } => lo + (hi - lo) * rng.gen::<f64>(),
            Dist::Constant(v) => v,
        }
    }

    /// Complementary CDF `P(X > x)` (used in tests to validate samplers).
    pub fn ccdf(&self, x: f64) -> f64 {
        match *self {
            Dist::Pareto { shape, scale } => {
                if x < scale {
                    1.0
                } else {
                    (scale / x).powf(shape)
                }
            }
            Dist::BoundedPareto { shape, min, max } => {
                if x < min {
                    1.0
                } else if x >= max {
                    0.0
                } else {
                    let ratio = (min / max).powf(shape);
                    ((min / x).powf(shape) - ratio) / (1.0 - ratio)
                }
            }
            Dist::Exp { mean } => (-x / mean).exp(),
            Dist::Uniform { lo, hi } => {
                if x < lo {
                    1.0
                } else if x >= hi {
                    0.0
                } else {
                    (hi - x) / (hi - lo)
                }
            }
            Dist::Constant(v) => {
                if x < v {
                    1.0
                } else {
                    0.0
                }
            }
            Dist::LogNormal { .. } => unimplemented!("ccdf not needed for LogNormal"),
        }
    }
}

/// One draw from N(0, 1) via Box–Muller (only the cosine branch; simple and
/// deterministic given the RNG stream).
fn standard_normal<R: Rng + ?Sized>(rng: &mut R) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>(); // (0, 1]
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
pub(crate) mod tests {
    use super::*;
    use rand::SeedableRng;

    /// The analytic mean of `d`, where finite; `None` for a Pareto with
    /// shape ≤ 1 (the oracle for the samplers).
    pub(crate) fn mean(d: &Dist) -> Option<f64> {
        match *d {
            Dist::Pareto { shape, scale } => (shape > 1.0).then(|| scale * shape / (shape - 1.0)),
            Dist::BoundedPareto { shape, min, max } => Some(bounded_pareto_mean(shape, min, max)),
            Dist::Exp { mean } => Some(mean),
            Dist::LogNormal { mu, sigma } => Some((mu + sigma * sigma / 2.0).exp()),
            Dist::Uniform { lo, hi } => Some((lo + hi) / 2.0),
            Dist::Constant(v) => Some(v),
        }
    }

    /// Mean of a Pareto truncated to `[min, max]`.
    fn bounded_pareto_mean(shape: f64, min: f64, max: f64) -> f64 {
        let ratio = (min / max).powf(shape);
        if (shape - 1.0).abs() < 1e-9 {
            // shape == 1 limit: a·L/(1-(L/H)) · ln(H/L) with a = 1
            (min / (1.0 - ratio)) * (max / min).ln()
        } else {
            (shape * min.powf(shape) / (1.0 - ratio))
                * ((min.powf(1.0 - shape) - max.powf(1.0 - shape)) / (shape - 1.0))
        }
    }

    fn rng() -> rand::rngs::StdRng {
        rand::rngs::StdRng::seed_from_u64(12345)
    }

    fn sample_mean(d: &Dist, n: usize) -> f64 {
        let mut r = rng();
        (0..n).map(|_| d.sample(&mut r)).sum::<f64>() / n as f64
    }

    #[test]
    fn pareto_respects_scale_floor() {
        let d = Dist::Pareto {
            shape: 1.5,
            scale: 2.0,
        };
        let mut r = rng();
        for _ in 0..10_000 {
            assert!(d.sample(&mut r) >= 2.0);
        }
    }

    #[test]
    fn unit_mean_pareto_has_unit_mean() {
        // β = 1.5 has finite mean but infinite variance, so the empirical
        // mean converges slowly; use a generous tolerance and many samples.
        let d = Dist::unit_mean_pareto(1.8);
        let m = sample_mean(&d, 400_000);
        assert!((m - 1.0).abs() < 0.05, "mean was {m}");
        let a = mean(&d).unwrap();
        assert!((a - 1.0).abs() < 1e-12);
    }

    #[test]
    #[should_panic(expected = "shape > 1")]
    fn unit_mean_pareto_rejects_heavy_shape() {
        let _ = Dist::unit_mean_pareto(1.0);
    }

    #[test]
    fn pareto_tail_matches_ccdf() {
        let d = Dist::Pareto {
            shape: 1.5,
            scale: 1.0,
        };
        let mut r = rng();
        let n = 200_000;
        let x = 8.0;
        let hits = (0..n).filter(|_| d.sample(&mut r) > x).count() as f64 / n as f64;
        let expect = d.ccdf(x);
        assert!(
            (hits - expect).abs() < 0.01,
            "empirical {hits} vs analytic {expect}"
        );
    }

    #[test]
    fn bounded_pareto_stays_in_bounds() {
        let d = Dist::BoundedPareto {
            shape: 1.1,
            min: 1.0,
            max: 3000.0,
        };
        let mut r = rng();
        for _ in 0..50_000 {
            let x = d.sample(&mut r);
            assert!((1.0..=3000.0).contains(&x), "out of range: {x}");
        }
    }

    #[test]
    fn bounded_pareto_mean_matches_analytic() {
        let d = Dist::BoundedPareto {
            shape: 1.3,
            min: 1.0,
            max: 500.0,
        };
        let emp = sample_mean(&d, 300_000);
        let ana = mean(&d).unwrap();
        assert!(
            (emp - ana).abs() / ana < 0.03,
            "empirical {emp} vs analytic {ana}"
        );
    }

    #[test]
    fn bounded_pareto_shape_one_mean_is_finite() {
        let d = Dist::BoundedPareto {
            shape: 1.0,
            min: 1.0,
            max: 100.0,
        };
        let ana = mean(&d).unwrap();
        assert!(ana.is_finite() && ana > 1.0 && ana < 100.0);
        let emp = sample_mean(&d, 300_000);
        assert!(
            (emp - ana).abs() / ana < 0.03,
            "empirical {emp} vs analytic {ana}"
        );
    }

    #[test]
    fn exponential_mean() {
        let d = Dist::Exp { mean: 7.0 };
        let m = sample_mean(&d, 200_000);
        assert!((m - 7.0).abs() < 0.1, "mean was {m}");
    }

    #[test]
    fn lognormal_mean() {
        let d = Dist::LogNormal {
            mu: 0.0,
            sigma: 0.5,
        };
        let m = sample_mean(&d, 200_000);
        let ana = mean(&d).unwrap();
        assert!((m - ana).abs() / ana < 0.02, "empirical {m} analytic {ana}");
    }

    #[test]
    fn uniform_and_constant() {
        let mut r = rng();
        let u = Dist::Uniform { lo: 2.0, hi: 4.0 };
        for _ in 0..10_000 {
            let x = u.sample(&mut r);
            assert!((2.0..4.0).contains(&x));
        }
        assert_eq!(Dist::Constant(3.5).sample(&mut r), 3.5);
        assert_eq!(mean(&Dist::Constant(3.5)), Some(3.5));
    }

    #[test]
    fn pareto_infinite_mean_is_none() {
        let d = Dist::Pareto {
            shape: 0.9,
            scale: 1.0,
        };
        assert_eq!(mean(&d), None);
    }

    #[test]
    fn samples_are_deterministic_per_seed() {
        let d = Dist::Pareto {
            shape: 1.5,
            scale: 1.0,
        };
        let mut a = rng();
        let mut b = rng();
        for _ in 0..100 {
            assert_eq!(d.sample(&mut a), d.sample(&mut b));
        }
    }
}
