//! Slot allocation across jobs — Pseudocode 1 of the paper, extended with
//! ε-fairness (§4.3) and DAG priorities (§4.2).
//!
//! Given the set of active jobs (each with remaining tasks, β, α, and
//! fairness weight) and the cluster capacity `S`, [`allocate`] returns an
//! integral number of slots per job such that:
//!
//! 1. every job first receives its ε-fair floor
//!    `min((1−ε)·S·w_i/Σw, ⌈V_i⌉)` — fairness never forces slots beyond a
//!    job's desired allocation;
//! 2. if `ΣV > S` (capacity constrained — **Guideline 2**), remaining slots
//!    go to jobs in ascending `max(V, V′)` order, each filled up to its
//!    virtual size;
//! 3. otherwise (**Guideline 3**) remaining slots are split proportionally
//!    to virtual sizes, capped at [`MAX_USEFUL_FACTOR`] slots per
//!    remaining task, with overflow redistributed.

use crate::vsize::{ceil_usize, priority_key, virtual_size};

/// Per-job input to the allocator.
#[derive(Debug, Clone, PartialEq)]
pub struct JobDemand {
    /// Caller-chosen identifier, echoed back in [`Allocation::job`].
    pub job: usize,
    /// Remaining (unfinished) tasks of the job's current phase(s): `T_i(t)`.
    pub remaining_tasks: f64,
    /// Remaining tasks of the downstream phase whose transfers are pending,
    /// `T'_i(t)`; 0 when the job has no downstream phase.
    pub downstream_tasks: f64,
    /// DAG communication weight α (1.0 for single-phase jobs).
    pub alpha: f64,
    /// Pareto tail index of the job's task durations.
    pub beta: f64,
    /// Fairness weight (1.0 = equal share).
    pub weight: f64,
}

impl JobDemand {
    /// Convenience constructor for a single-phase job with weight 1.
    pub fn simple(job: usize, remaining_tasks: f64, beta: f64) -> Self {
        JobDemand {
            job,
            remaining_tasks,
            downstream_tasks: 0.0,
            alpha: 1.0,
            beta,
            weight: 1.0,
        }
    }

    /// This job's virtual size `V_i(t)`.
    pub fn virtual_size(&self) -> f64 {
        virtual_size(self.remaining_tasks, self.beta, self.alpha)
    }

    /// Guideline-2 ordering key `max{V, V'}` (§4.2).
    pub fn priority(&self) -> f64 {
        priority_key(
            self.virtual_size(),
            virtual_size(self.downstream_tasks, self.beta, self.alpha),
        )
    }
}

/// Which regime Pseudocode 1 used for a job (reported for diagnostics; the
/// paper notes e.g. "53% of jobs allocated using Guideline 2" at 80% util).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Regime {
    /// Capacity constrained: SRPT-by-virtual-size fill (Guideline 2).
    Constrained,
    /// Capacity rich: proportional sharing (Guideline 3).
    Proportional,
}

/// Allocator knobs.
#[derive(Debug, Clone)]
pub struct AllocConfig {
    /// Fairness allowance ε ∈ \[0, 1\]: every job is guaranteed at least
    /// `(1−ε)` of its fair share (§4.3). `1.0` disables the floor entirely;
    /// `0.0` is perfectly fair scheduling. The paper's default is 0.1.
    pub fairness_eps: f64,
}

impl Default for AllocConfig {
    fn default() -> Self {
        AllocConfig { fairness_eps: 0.1 }
    }
}

impl AllocConfig {
    /// Config with fairness disabled (pure Guidelines 2/3).
    pub fn no_fairness() -> Self {
        AllocConfig { fairness_eps: 1.0 }
    }
}

/// Result row: slots granted to one job.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Allocation {
    /// The caller's job identifier.
    pub job: usize,
    /// Integral slots granted.
    pub slots: usize,
    /// Regime the cluster was in when this allocation was computed.
    pub regime: Regime,
}

/// Allocate `capacity` slots among `demands` per Pseudocode 1 + ε-fairness.
///
/// Returns one [`Allocation`] per demand, in the same order as the input.
/// The total never exceeds `capacity`; it can be less only when every job
/// is saturated at its useful cap (lightly loaded cluster).
///
/// The two regimes of Pseudocode 1, on the paper's own numbers (§4.1:
/// β = 1.5 gives every job a virtual size of `2/β = 4/3` slots per
/// remaining task):
///
/// ```
/// use hopper_core::{allocate, AllocConfig, JobDemand, Regime};
///
/// let cfg = AllocConfig::no_fairness();
/// // ΣV = (30 + 60)·4/3 = 120 > 100 slots ⇒ capacity constrained
/// // (Guideline 2): the small job fills to ⌈its V⌉ first, the big job
/// // takes what remains.
/// let demands = [JobDemand::simple(0, 30.0, 1.5), JobDemand::simple(1, 60.0, 1.5)];
/// let a = allocate(&demands, 100, &cfg);
/// assert_eq!(a[0].regime, Regime::Constrained);
/// assert_eq!(a[0].slots, 40); // ⌈30 · 4/3⌉
/// assert_eq!(a[1].slots, 60); // the remainder
///
/// // ΣV = 120 ≤ 200 slots ⇒ capacity rich (Guideline 3): slots divide
/// // proportionally to virtual sizes (1:2 here, quantized to integers).
/// let a = allocate(&demands, 200, &cfg);
/// assert_eq!(a[0].regime, Regime::Proportional);
/// assert_eq!((a[0].slots, a[1].slots), (67, 133));
/// ```
pub fn allocate(demands: &[JobDemand], capacity: usize, cfg: &AllocConfig) -> Vec<Allocation> {
    assert!(
        (0.0..=1.0).contains(&cfg.fairness_eps),
        "fairness_eps must be within [0,1]"
    );
    let n = demands.len();
    if n == 0 {
        return vec![];
    }
    let v: Vec<f64> = demands.iter().map(|d| d.virtual_size()).collect();
    let total_virtual: f64 = v.iter().sum();
    let regime = if total_virtual > capacity as f64 {
        Regime::Constrained
    } else {
        Regime::Proportional
    };

    let cap: Vec<usize> = demands
        .iter()
        .map(|d| useful_cap(d.remaining_tasks))
        .collect();
    // ε-fair floors. Weighted fair share of job i is S·w_i/Σw; the floor is
    // (1−ε) of that, but never more than the job's own desired allocation
    // ⌈V⌉ (fairness should not force wasted slots) nor its useful cap.
    let total_weight: f64 = demands.iter().map(|d| d.weight.max(0.0)).sum();
    let mut floors = vec![0usize; n];
    if cfg.fairness_eps < 1.0 && total_weight > 0.0 {
        for (i, d) in demands.iter().enumerate() {
            floors[i] = fair_floor(d.weight, v[i], cap[i], capacity, total_weight, cfg);
        }
    }
    // Floors must never oversubscribe (possible only via rounding).
    let floor_sum: usize = floors.iter().sum();
    let floor_sum = apply_floor_trim(&mut floors, floor_sum, capacity);

    let spare = capacity - floor_sum;
    let extra = match regime {
        Regime::Constrained => {
            let mut order: Vec<usize> = (0..n).collect();
            // Total order: NaN-safe key comparison with a deterministic
            // job-id tie-break (see [`cmp_priority`]) — equal-priority jobs
            // can never flip across platforms or refactors.
            let prio: Vec<f64> = demands.iter().map(|d| d.priority()).collect();
            order.sort_by(|&a, &b| {
                cmp_priority((prio[a], demands[a].job), (prio[b], demands[b].job))
            });
            let want: Vec<usize> = (0..n).map(|i| want_slots(v[i], cap[i])).collect();
            fill_srpt_ordered(&order, &want, &floors, spare)
        }
        Regime::Proportional => {
            let headroom: Vec<usize> = (0..n).map(|i| cap[i].saturating_sub(floors[i])).collect();
            fill_proportional(&v, &headroom, spare, total_virtual)
        }
    };

    demands
        .iter()
        .enumerate()
        .map(|(i, d)| Allocation {
            job: d.job,
            slots: floors[i] + extra[i],
            regime,
        })
        .collect()
}

/// Total-order comparator for Guideline-2 fill position: ascending
/// priority key (`f64::total_cmp`, so NaN and signed zeros order
/// deterministically instead of collapsing to `Equal`), then ascending
/// job id. Both the eager [`allocate`] and the incremental allocator
/// ([`crate::IncrementalAlloc`]) order by exactly this function — the
/// single definition is what makes their fills bit-identical.
pub fn cmp_priority(a: (f64, usize), b: (f64, usize)) -> std::cmp::Ordering {
    a.0.total_cmp(&b.0).then(a.1.cmp(&b.1))
}

/// Cap on useful slots per job, as a multiple of remaining tasks. Beyond
/// ~3× there is nothing left to speculate on (Figure 3's x-axis tops out
/// at 2.5×); overflow is redistributed.
pub const MAX_USEFUL_FACTOR: f64 = 3.0;

/// Hard cap on slots a job with `remaining_tasks` can use productively.
pub(crate) fn useful_cap(remaining_tasks: f64) -> usize {
    ceil_usize(remaining_tasks * MAX_USEFUL_FACTOR)
}

/// Desired slots under Guideline 2: fill up to ⌈V(t)⌉ — Pseudocode 2's
/// acceptance rule is the strict float comparison `occupied < V`, so a
/// job with V = 1.25 may hold 2 slots; flooring here would deny the last
/// stragglers of a phase their speculative slot exactly when it matters
/// most. The useful cap only binds at extreme β·α values.
pub(crate) fn want_slots(v: f64, cap: usize) -> usize {
    (v.ceil() as usize).min(cap)
}

/// The ε-fair floor of one job: `(1−ε)` of its weighted fair share,
/// never beyond its own desired allocation ⌈V⌉ or its useful cap.
pub(crate) fn fair_floor(
    weight: f64,
    v: f64,
    cap: usize,
    capacity: usize,
    total_weight: f64,
    cfg: &AllocConfig,
) -> usize {
    fair_share_floor(weight, capacity, total_weight, cfg)
        .min(v.ceil() as usize)
        .min(cap)
}

/// The share component of [`fair_floor`]: `⌊(1−ε)·S·w/Σw⌋`, before the
/// `⌈V⌉`/cap clamps. Depends only on the weight set, capacity, and ε —
/// not on β or task counts — so the incremental allocator caches it per
/// entry across β-only refreshes.
pub(crate) fn fair_share_floor(
    weight: f64,
    capacity: usize,
    total_weight: f64,
    cfg: &AllocConfig,
) -> usize {
    let fair = capacity as f64 * weight.max(0.0) / total_weight;
    ((1.0 - cfg.fairness_eps) * fair).floor() as usize
}

/// Trim floors down to `capacity` (largest floor first, input index as
/// the deterministic tie-break); returns the trimmed sum. Floor rounding
/// makes oversubscription impossible in practice, but the guard is kept
/// so the fill below can never underflow.
pub(crate) fn apply_floor_trim(
    floors: &mut [usize],
    mut floor_sum: usize,
    capacity: usize,
) -> usize {
    while floor_sum > capacity {
        let i = (0..floors.len()).max_by_key(|&i| (floors[i], i)).unwrap();
        floors[i] -= 1;
        floor_sum -= 1;
    }
    floor_sum
}

/// Guideline 2: walk `order` (ascending `max(V, V')` positions into the
/// parallel `want`/`floors` arrays), filling each job up to its desired
/// slots on top of its floor until the spare pool runs out.
pub(crate) fn fill_srpt_ordered(
    order: &[usize],
    want: &[usize],
    floors: &[usize],
    mut spare: usize,
) -> Vec<usize> {
    let mut extra = vec![0usize; order.len()];
    for &i in order {
        if spare == 0 {
            break;
        }
        let grant = want[i].saturating_sub(floors[i]).min(spare);
        extra[i] = grant;
        spare -= grant;
    }
    extra
}

/// Guideline 3: split spare slots proportionally to virtual sizes, capped
/// at the useful headroom, redistributing overflow until fixed point.
/// `v` and `headroom` are parallel arrays in the caller's input order.
pub(crate) fn fill_proportional(
    v: &[f64],
    headroom: &[usize],
    spare: usize,
    total_virtual: f64,
) -> Vec<usize> {
    let n = v.len();
    let mut extra = vec![0usize; n];
    if total_virtual <= 0.0 || spare == 0 {
        return extra;
    }
    let mut remaining = spare;
    let mut active: Vec<usize> = (0..n).filter(|&i| headroom[i] > 0).collect();
    // Iteratively hand out proportional shares; jobs hitting their cap drop
    // out and their share is re-split. Terminates: each round either
    // assigns everything or removes ≥1 job.
    while remaining > 0 && !active.is_empty() {
        let v_active: f64 = active.iter().map(|&i| v[i]).sum();
        if v_active <= 0.0 {
            break;
        }
        // Real-valued proportional targets for this round.
        let mut granted_this_round = 0usize;
        let mut fracs: Vec<(f64, usize)> = Vec::with_capacity(active.len());
        let mut round_grant = vec![0usize; n];
        for &i in &active {
            let share = remaining as f64 * v[i] / v_active;
            let whole = share.floor() as usize;
            let capped = whole.min(headroom[i] - extra[i]);
            round_grant[i] = capped;
            granted_this_round += capped;
            if capped == whole {
                fracs.push((share - whole as f64, i));
            }
        }
        // Largest-remainder distribution of the leftover integer slots
        // (descending fraction, ascending input index on exact ties).
        let mut leftover = remaining - granted_this_round;
        fracs.sort_by(|a, b| b.0.total_cmp(&a.0).then(a.1.cmp(&b.1)));
        for &(_, i) in &fracs {
            if leftover == 0 {
                break;
            }
            if extra[i] + round_grant[i] < headroom[i] {
                round_grant[i] += 1;
                leftover -= 1;
            }
        }
        let assigned: usize = round_grant.iter().sum();
        for i in 0..n {
            extra[i] += round_grant[i];
        }
        remaining -= assigned;
        let before = active.len();
        active.retain(|&i| extra[i] < headroom[i]);
        if assigned == 0 && active.len() == before {
            break; // nothing assignable (all capped)
        }
    }
    extra
}

#[cfg(test)]
mod tests {
    use super::*;

    fn total(allocs: &[Allocation]) -> usize {
        allocs.iter().map(|a| a.slots).sum()
    }

    #[test]
    fn empty_input() {
        assert!(allocate(&[], 100, &AllocConfig::default()).is_empty());
    }

    #[test]
    fn motivating_example_regime_and_split() {
        // §3: jobs A (4 tasks) and B (5 tasks) on 7 slots. With β = 1.6
        // (2/β = 1.25): V_A = 5, V_B = 6.25, ΣV = 11.25 > 7 ⇒ Guideline 2.
        // A (smaller) gets its full virtual size 5, B the remaining 2 —
        // exactly Figure 2's opening allocation.
        let demands = vec![
            JobDemand::simple(0, 4.0, 1.6),
            JobDemand::simple(1, 5.0, 1.6),
        ];
        let allocs = allocate(&demands, 7, &AllocConfig::no_fairness());
        assert_eq!(allocs[0].regime, Regime::Constrained);
        assert_eq!(allocs[0].slots, 5);
        assert_eq!(allocs[1].slots, 2);
    }

    #[test]
    fn capacity_never_exceeded() {
        let demands: Vec<JobDemand> = (0..10)
            .map(|i| JobDemand::simple(i, (i as f64 + 1.0) * 7.0, 1.4))
            .collect();
        for cap in [0, 1, 5, 37, 100, 1000] {
            let allocs = allocate(&demands, cap, &AllocConfig::default());
            assert!(
                total(&allocs) <= cap,
                "cap {cap} exceeded: {}",
                total(&allocs)
            );
        }
    }

    #[test]
    fn constrained_regime_is_srpt_by_virtual_size() {
        // Small job must be fully satisfied before the big one gets extras.
        let demands = vec![
            JobDemand::simple(7, 100.0, 1.5), // V ≈ 133
            JobDemand::simple(3, 10.0, 1.5),  // V ≈ 13.3
        ];
        let allocs = allocate(&demands, 50, &AllocConfig::no_fairness());
        assert_eq!(allocs[0].regime, Regime::Constrained);
        // job 3 (small) gets ⌈13.3⌉ = 14 (the strict `occupied < V` rule
        // of Pseudocode 2), job 7 the rest.
        assert_eq!(allocs[1].slots, 14);
        assert_eq!(allocs[0].slots, 36);
    }

    #[test]
    fn proportional_regime_shares_by_virtual_size() {
        // Two jobs, plenty of capacity: allocation proportional to V.
        let demands = vec![
            JobDemand::simple(0, 10.0, 1.6), // V = 12.5
            JobDemand::simple(1, 30.0, 1.6), // V = 37.5
        ];
        let allocs = allocate(&demands, 100, &AllocConfig::no_fairness());
        assert_eq!(allocs[0].regime, Regime::Proportional);
        // Proportional shares are 25 and 75, but the small job caps at
        // 3× remaining = 30; overflow goes to the big one (cap 90).
        assert_eq!(allocs[0].slots, 25);
        assert!(allocs[1].slots >= 70, "big job got {}", allocs[1].slots);
        assert!(total(&allocs) <= 100);
    }

    #[test]
    fn proportional_caps_at_useful_factor() {
        let demands = vec![JobDemand::simple(0, 4.0, 1.5)];
        let allocs = allocate(&demands, 1000, &AllocConfig::no_fairness());
        assert_eq!(allocs[0].slots, 12, "3× remaining tasks");
    }

    #[test]
    fn fairness_floor_guarantees_share() {
        // 10 jobs, one tiny and nine huge; with ε = 0.1 every job gets at
        // least ⌊0.9 × S/N⌋ slots (unless its own demand is smaller).
        let mut demands: Vec<JobDemand> =
            (0..9).map(|i| JobDemand::simple(i, 500.0, 1.4)).collect();
        demands.push(JobDemand::simple(9, 400.0, 1.4));
        let cap = 200;
        let cfg = AllocConfig { fairness_eps: 0.1 };
        let allocs = allocate(&demands, cap, &cfg);
        let floor = ((1.0 - 0.1) * cap as f64 / 10.0).floor() as usize;
        for a in &allocs {
            assert!(
                a.slots >= floor,
                "job {} below ε-fair floor: {}",
                a.job,
                a.slots
            );
        }
        assert!(total(&allocs) <= cap);
    }

    #[test]
    fn fairness_never_forces_wasted_slots() {
        // A 1-task job's fair share is 50, but it can use at most 3 slots.
        let demands = vec![
            JobDemand::simple(0, 1.0, 1.5),
            JobDemand::simple(1, 1000.0, 1.5),
        ];
        let cfg = AllocConfig { fairness_eps: 0.0 };
        let allocs = allocate(&demands, 100, &cfg);
        assert!(allocs[0].slots <= 3);
        // The big job receives what the small one cannot use.
        assert!(allocs[1].slots >= 95);
    }

    #[test]
    fn eps_zero_is_perfectly_fair_between_equal_jobs() {
        let demands = vec![
            JobDemand::simple(0, 100.0, 1.5),
            JobDemand::simple(1, 100.0, 1.5),
        ];
        let cfg = AllocConfig { fairness_eps: 0.0 };
        let allocs = allocate(&demands, 80, &cfg);
        assert_eq!(allocs[0].slots, 40);
        assert_eq!(allocs[1].slots, 40);
    }

    #[test]
    fn weights_shift_fair_floors() {
        let mut a = JobDemand::simple(0, 1000.0, 1.5);
        let mut b = JobDemand::simple(1, 1000.0, 1.5);
        a.weight = 3.0;
        b.weight = 1.0;
        let cfg = AllocConfig { fairness_eps: 0.0 };
        let allocs = allocate(&[a, b], 100, &cfg);
        assert_eq!(allocs[0].slots, 75);
        assert_eq!(allocs[1].slots, 25);
    }

    #[test]
    fn dag_priority_uses_downstream_size() {
        // Job 0: few current tasks but a huge downstream phase → its
        // priority key is large, so job 1 (moderate both) wins the SRPT fill.
        let d0 = JobDemand {
            job: 0,
            remaining_tasks: 5.0,
            downstream_tasks: 500.0,
            alpha: 1.0,
            beta: 1.5,
            weight: 1.0,
        };
        let d1 = JobDemand {
            job: 1,
            remaining_tasks: 50.0,
            downstream_tasks: 20.0,
            alpha: 1.0,
            beta: 1.5,
            weight: 1.0,
        };
        // ΣV must exceed capacity for Guideline 2: V0 ≈ 6.7, V1 ≈ 66.7.
        let allocs = allocate(&[d0.clone(), d1.clone()], 40, &AllocConfig::no_fairness());
        assert_eq!(allocs[0].regime, Regime::Constrained);
        // Job 1 has smaller max(V, V') (66.7 vs 666.7) → filled first.
        assert!(allocs[1].slots > allocs[0].slots);
    }

    #[test]
    fn alpha_scales_allocation() {
        // Same remaining tasks; the shuffle-heavy job (α = 4) has twice the
        // virtual size and receives twice the proportional share.
        let mut heavy = JobDemand::simple(0, 20.0, 1.6);
        heavy.alpha = 4.0;
        let light = JobDemand::simple(1, 20.0, 1.6);
        let allocs = allocate(&[heavy, light], 75, &AllocConfig::no_fairness());
        assert_eq!(allocs[0].regime, Regime::Proportional);
        let ratio = allocs[0].slots as f64 / allocs[1].slots as f64;
        assert!((ratio - 2.0).abs() < 0.2, "ratio {ratio}");
    }

    #[test]
    fn zero_capacity() {
        let demands = vec![JobDemand::simple(0, 10.0, 1.5)];
        let allocs = allocate(&demands, 0, &AllocConfig::default());
        assert_eq!(allocs[0].slots, 0);
    }

    #[test]
    fn single_job_takes_what_it_can_use() {
        let demands = vec![JobDemand::simple(0, 100.0, 1.6)];
        // Constrained: capacity below V = 125.
        let a = allocate(&demands, 80, &AllocConfig::no_fairness());
        assert_eq!(a[0].slots, 80);
        // Rich: gets proportional = all, capped at 300.
        let b = allocate(&demands, 1000, &AllocConfig::no_fairness());
        assert_eq!(b[0].slots, 300);
    }

    #[test]
    fn output_order_matches_input_order() {
        let demands = vec![
            JobDemand::simple(42, 50.0, 1.5),
            JobDemand::simple(7, 10.0, 1.5),
            JobDemand::simple(99, 30.0, 1.5),
        ];
        let allocs = allocate(&demands, 60, &AllocConfig::default());
        assert_eq!(allocs[0].job, 42);
        assert_eq!(allocs[1].job, 7);
        assert_eq!(allocs[2].job, 99);
    }

    #[test]
    fn done_jobs_get_nothing_beyond_floor_zero() {
        let demands = vec![
            JobDemand::simple(0, 0.0, 1.5),
            JobDemand::simple(1, 10.0, 1.5),
        ];
        let allocs = allocate(&demands, 50, &AllocConfig::no_fairness());
        assert_eq!(allocs[0].slots, 0);
        assert!(allocs[1].slots > 0);
    }
}
