//! Threshold intervals: which cached step values a move of one shared
//! parameter can change.
//!
//! Online β learning moves one multiplier `m = max(2/β, 1)` that every
//! job's integer quantities depend on: the allocator's `⌈V⌉` with
//! `V = fl(fl(m·T)·√α)`, the central driver's anticipation
//! `⌈(m−1)·usage⌉`. Each is a monotone non-decreasing step function of
//! `m` — IEEE-754 rounding is monotone, so products by non-negative
//! constants and subtraction of a constant keep the order — and so it
//! is constant on an interval of `m` around any point. [`level_interval`]
//! computes such an interval and *proves* it by evaluating the exact
//! function at both ends. A holder caches one [`Interval`] per value
//! next to the value; when `m` moves, the values whose interval still
//! [`contains`](Interval::contains) it are unchanged, and only the rest
//! are re-evaluated.
//!
//! The intervals live flat, beside the rows a caller already walks (the
//! allocator's order, the driver's launch-loop rows): two compares per
//! row in a pass that visits every row anyway is cheaper than a tree
//! keyed by the interval ends, whose removal and re-insertion cost more
//! per re-checked value than the whole walk does per row.

/// Relative margin by which a candidate jump point is pulled inwards
/// before it is verified. Candidates come from one or two correctly
/// rounded divisions, a few ulps (≈ 1e-16 relative) from the true jump,
/// so the margin leaves room for them; the verification makes the
/// interval exact whatever the margin.
const MARGIN: f64 = 1e-12;

/// The interval `[lo, hi]` of `m` around `m0` on which `min(f(m), cap)`
/// equals `level = min(f(m0), cap)`, for a monotone non-decreasing `f`.
/// Returns the level and the interval; `lo = −∞` or `hi = +∞` mean
/// unbounded.
///
/// `jump_above(k)` estimates the largest `m` with `f(m) ≤ k` (for
/// `⌈c·m⌉` that is `k / c`). The estimate is pulled inwards by a
/// relative margin and then checked with `f` itself: `hi` is kept only
/// if `f(hi) ≤ k`, `lo` only if `f(lo) ≥ level`, else the bound falls
/// back to `m0`. With monotonicity that proves, for every `m` in
/// `[lo, hi]`, `level ≤ min(f(m), cap) ≤ level`. A level at the cap
/// holds for every larger `m` (`hi = +∞`), a level of 0 for every
/// smaller one (`lo = −∞`). Estimates must be non-negative or NaN (a
/// NaN estimate falls back to `m0`).
pub fn level_interval(
    m0: f64,
    cap: usize,
    f: impl Fn(f64) -> usize,
    jump_above: impl Fn(usize) -> f64,
) -> (usize, Interval) {
    let k = f(m0);
    let level = k.min(cap);
    let hi = if k >= cap {
        f64::INFINITY
    } else {
        let h = jump_above(k) * (1.0 - MARGIN);
        if h >= m0 && f(h) <= k {
            h
        } else {
            m0
        }
    };
    let lo = if level == 0 {
        f64::NEG_INFINITY
    } else {
        let l = jump_above(level - 1) * (1.0 + MARGIN);
        if l <= m0 && f(l) >= level {
            l
        } else {
            m0
        }
    };
    (level, Interval { lo, hi })
}

/// A closed interval of the shared multiplier.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Interval {
    /// Lower end (`−∞`: unbounded).
    pub lo: f64,
    /// Upper end (`+∞`: unbounded).
    pub hi: f64,
}

impl Interval {
    /// Every `m`: the value never needs a re-check.
    pub const ALL: Interval = Interval {
        lo: f64::NEG_INFINITY,
        hi: f64::INFINITY,
    };

    /// Whether `m` lies in the interval (both ends included).
    #[inline]
    pub fn contains(&self, m: f64) -> bool {
        self.lo <= m && m <= self.hi
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vsize::ceil_usize;

    /// `⌈fl(fl(m·t)·s)⌉` — the allocator's `⌈V⌉` — and its jump estimate.
    fn vc(t: f64, s: f64) -> (impl Fn(f64) -> usize, impl Fn(usize) -> f64) {
        (
            move |m: f64| ceil_usize((m * t) * s),
            move |k: usize| k as f64 / t / s,
        )
    }

    #[test]
    fn interval_holds_on_a_grid_and_ends_are_tight() {
        for &(t, s) in &[(4.0, 1.0), (7.0, 1.5), (3.0, 2.0f64.sqrt()), (1000.0, 1.0)] {
            let (f, jump) = vc(t, s);
            for i in 0..200 {
                let m0 = 1.0 + i as f64 / 199.0;
                let (level, iv) = level_interval(m0, usize::MAX, &f, &jump);
                assert_eq!(level, f(m0));
                assert!(iv.contains(m0), "{iv:?} misses {m0}");
                // Both proven ends and a grid between them keep the level.
                assert_eq!(f(iv.lo), level, "t={t} s={s} m0={m0}");
                assert_eq!(f(iv.hi), level, "t={t} s={s} m0={m0}");
                for q in 0..=16 {
                    let m = iv.lo + (iv.hi - iv.lo) * q as f64 / 16.0;
                    assert_eq!(f(m), level);
                }
                // The ends sit within the margin of the true jumps.
                assert!(f(iv.hi * (1.0 + 4e-12)) > level, "hi not tight at m0={m0}");
                if level > 0 {
                    assert!(f(iv.lo * (1.0 - 4e-12)) < level, "lo not tight at m0={m0}");
                }
            }
        }
    }

    #[test]
    fn boundary_values_fall_back_to_the_evaluated_point() {
        // m0 exactly on a jump: V = 1.25·4 = 5 is an integer, so ⌈V⌉ = 5
        // there and 6 one ulp above — the interval must end at m0.
        let (f, jump) = vc(4.0, 1.0);
        let m0 = 1.25f64;
        let up = f64::from_bits(m0.to_bits() + 1);
        let (level, iv) = level_interval(m0, usize::MAX, &f, &jump);
        assert_eq!((level, iv.hi), (5, m0));
        assert!(iv.lo < m0 && !iv.contains(up));
        assert_eq!(f(up), 6);
        // One ulp above the jump: the level is 6 and the interval starts
        // there (the candidate `lo` rounds onto the jump itself).
        let (level, iv) = level_interval(up, usize::MAX, &f, &jump);
        assert_eq!((level, iv.lo), (6, up));
        assert!(iv.hi > up && !iv.contains(m0));
        // Level 0 holds for every smaller m, a level at the cap for every
        // larger one: both at once cover the whole line.
        let (level, iv) = level_interval(1.3, 0, &f, |_| f64::NAN);
        assert_eq!((level, iv), (0, Interval::ALL));
        let (level, iv) = level_interval(1.5, 5, &f, &jump);
        assert_eq!((level, iv.hi), (5, f64::INFINITY));
        assert_eq!(f(iv.lo), 5);
        assert!(f(iv.lo * (1.0 - 4e-12)) < 5);
        // A NaN estimate is never trusted, nor one that the check at the
        // candidate end refutes (here both ends are 50% too far out).
        let (_, iv) = level_interval(1.5, usize::MAX, &f, |_| f64::NAN);
        assert_eq!(iv, Interval { lo: 1.5, hi: 1.5 });
        let (level, iv) = level_interval(1.3, usize::MAX, &f, |k| {
            let j = jump(k);
            if j > 1.3 {
                j * 1.5
            } else {
                j / 1.5
            }
        });
        assert_eq!((level, iv), (6, Interval { lo: 1.3, hi: 1.3 }));
    }

    #[test]
    fn anticipation_intervals_cross_the_clamp() {
        // The driver's ⌈(m−1)·u⌉ near m = 1, where β crosses 2: at m = 1
        // the value is 0 for any usage, one ulp above it is 1.
        for u in [1.0, 3.0, 7.0, 1000.0] {
            let f = |m: f64| ceil_usize((m - 1.0) * u);
            let jump = |k: usize| 1.0 + k as f64 / u;
            let (level, iv) = level_interval(1.0, usize::MAX, f, jump);
            assert_eq!((level, iv.hi), (0, 1.0));
            let up = f64::from_bits(1f64.to_bits() + 1);
            assert_eq!(f(up), 1);
            assert!(!iv.contains(up));
            let (level, iv) = level_interval(up, usize::MAX, f, jump);
            assert_eq!(level, 1);
            assert!(iv.contains(up) && !iv.contains(1.0));
            assert_eq!((f(iv.lo), f(iv.hi)), (1, 1));
        }
    }

    #[test]
    fn contains_is_closed_at_both_ends() {
        let iv = Interval { lo: 1.25, hi: 1.5 };
        assert!(iv.contains(1.25) && iv.contains(1.5) && iv.contains(1.3));
        assert!(!iv.contains(f64::from_bits(1.25f64.to_bits() - 1)));
        assert!(!iv.contains(f64::from_bits(1.5f64.to_bits() + 1)));
        assert!(!iv.contains(f64::NAN));
        assert!(Interval::ALL.contains(1.0) && Interval::ALL.contains(f64::MAX));
    }
}
