//! Virtual job sizes — the paper's central quantity.
//!
//! §4.1 of the paper observes that, with Pareto(β) task durations, the
//! marginal value of giving a job one more slot has a sharp knee at
//! `max(2/β, 1) × T_rem` slots (`T_rem` = remaining tasks): below the knee
//! an extra slot buys prompt speculation and large gains, above it the
//! return is small and decreasing. The knee is the job's *desired minimum
//! allocation*, a.k.a. **virtual size**:
//!
//! ```text
//! V_i(t) = max(2/β, 1) · T_i(t) · sqrt(α_i)      (§4.1–§4.2)
//! ```
//!
//! where `α_i` weighs remaining downstream network transfer against
//! remaining upstream compute for DAGs (√-proportionality, §4.2).

/// The speculation multiplier `max(2/β, 1)`.
///
/// For β ≥ 2 stragglers are mild enough that no slack beyond one slot per
/// task is worth reserving; for 1 < β < 2 (all production traces in the
/// paper) the multiplier is 2/β ∈ (1, 2).
pub fn speculation_multiplier(beta: f64) -> f64 {
    debug_assert!(beta > 0.0, "beta must be positive, got {beta}");
    (2.0 / beta).max(1.0)
}

/// Virtual size of a job: `max(2/β,1) · remaining_tasks · √α`.
///
/// `alpha` is the DAG communication weight (1.0 for single-phase jobs);
/// see [`crate::estimate::AlphaEstimator`]. The result is a float; the
/// allocator quantizes to integer slots.
///
/// The paper's formula (§4.1, extended to DAGs by §4.2's √α weighting):
///
/// ```
/// use hopper_core::virtual_size;
///
/// // 200 remaining tasks at β = 1.6: V = (2/1.6) · 200 = 250 slots.
/// assert_eq!(virtual_size(200.0, 1.6, 1.0), 250.0);
/// // A communication-heavy DAG (α = 4) wants √4 = 2× the slots.
/// assert_eq!(virtual_size(200.0, 1.6, 4.0), 500.0);
/// // Light tails (β ≥ 2) floor the multiplier at 1 — no speculation slack.
/// assert_eq!(virtual_size(200.0, 2.5, 1.0), 200.0);
/// ```
pub fn virtual_size(remaining_tasks: f64, beta: f64, alpha: f64) -> f64 {
    debug_assert!(remaining_tasks >= 0.0);
    debug_assert!(alpha >= 0.0);
    speculation_multiplier(beta) * remaining_tasks * alpha.sqrt()
}

/// The priority key used to order jobs under Guideline 2.
///
/// For DAGs the paper (§4.2) replaces plain virtual-size ordering with
/// `max{V_i(t), V'_i(t)}` where `V'` is the virtual remaining communication
/// work of the downstream phase — a job is "small" only if both its current
/// phase and its downstream transfer are small (2-speed optimality, their
/// footnote 6 citing \[31\]).
pub fn priority_key(v_current: f64, v_downstream: f64) -> f64 {
    v_current.max(v_downstream)
}

/// `⌈v⌉` as a slot count: exactly `v.ceil() as usize` for every `f64`
/// (NaN and everything at or below zero give 0, everything beyond
/// `usize::MAX` saturates), without `f64::ceil`, which compiles to an
/// out-of-line libm call on baseline x86-64. The truncating cast is
/// exact: below 2⁵³ `t` converts back to `f64` exactly, and from 2⁵³ on
/// every `f64` is an integer, so `t < v` holds exactly when `v` has a
/// fractional part.
#[inline]
pub fn ceil_usize(v: f64) -> usize {
    let t = v as usize;
    if (t as f64) < v {
        t.saturating_add(1)
    } else {
        t
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ceil_usize_is_ceil_as_usize() {
        let two52 = 2f64.powi(52);
        let two53 = 2f64.powi(53);
        let fixed = [
            0.0,
            -0.0,
            -0.5,
            -1.0,
            -1.5,
            -1e300,
            0.5,
            1.0,
            1.0 + f64::EPSILON,
            2.5,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::MIN_POSITIVE / 4.0, // subnormal
            -f64::MIN_POSITIVE / 4.0,
            f64::from_bits(1),
            two52 - 1.0,
            two52 - 0.5,
            two52,
            two52 + 0.5,
            two52 + 1.0,
            two53 - 1.0,
            two53,
            two53 + 2.0,
            2f64.powi(63),
            2f64.powi(64) - 2048.0,
            2f64.powi(64),
            2f64.powi(64) + 4096.0,
            f64::MAX,
        ];
        for v in fixed {
            assert_eq!(
                ceil_usize(v),
                v.ceil() as usize,
                "{v:e} ({:#x})",
                v.to_bits()
            );
        }
        // 10⁶ random bit patterns (splitmix64), plus the same values
        // scaled into the slot range, where fractions are common.
        let mut x = 0x9E37_79B9_7F4A_7C15u64;
        for _ in 0..1_000_000 {
            x = x.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = x;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^= z >> 31;
            let v = f64::from_bits(z);
            assert_eq!(ceil_usize(v), v.ceil() as usize, "{v:e} ({z:#x})");
            let w = (z >> 11) as f64 / 2f64.powi(40);
            assert_eq!(ceil_usize(w), w.ceil() as usize, "{w:e}");
        }
    }

    #[test]
    fn multiplier_is_two_over_beta_in_trace_range() {
        assert!((speculation_multiplier(1.4) - 2.0 / 1.4).abs() < 1e-12);
        assert!((speculation_multiplier(1.6) - 1.25).abs() < 1e-12);
        assert!((speculation_multiplier(1.0) - 2.0).abs() < 1e-12);
    }

    #[test]
    fn multiplier_floors_at_one_for_light_tails() {
        assert_eq!(speculation_multiplier(2.0), 1.0);
        assert_eq!(speculation_multiplier(3.5), 1.0);
    }

    #[test]
    fn virtual_size_matches_paper_formula() {
        // Job with 200 remaining tasks, β = 1.6: V = 1.25 × 200 = 250.
        assert!((virtual_size(200.0, 1.6, 1.0) - 250.0).abs() < 1e-9);
        // β = 1.4: V = (2/1.4) × 200 ≈ 285.7.
        assert!((virtual_size(200.0, 1.4, 1.0) - 2.0 / 1.4 * 200.0).abs() < 1e-9);
    }

    #[test]
    fn sqrt_alpha_scaling() {
        let base = virtual_size(100.0, 1.5, 1.0);
        let heavy_comm = virtual_size(100.0, 1.5, 4.0);
        assert!((heavy_comm - 2.0 * base).abs() < 1e-9, "√4 = 2× scaling");
        let light_comm = virtual_size(100.0, 1.5, 0.25);
        assert!((light_comm - 0.5 * base).abs() < 1e-9);
    }

    #[test]
    fn zero_tasks_zero_size() {
        assert_eq!(virtual_size(0.0, 1.5, 1.0), 0.0);
    }

    #[test]
    fn priority_key_takes_max() {
        assert_eq!(priority_key(10.0, 25.0), 25.0);
        assert_eq!(priority_key(30.0, 25.0), 30.0);
    }
}
