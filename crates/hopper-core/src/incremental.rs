//! Incremental Pseudocode-1 allocator — the same allocation as
//! [`allocate`](crate::allocate()), maintained across calls instead of
//! recomputed from scratch.
//!
//! The central driver calls the allocator after nearly every event; at
//! ten thousand active jobs the eager path (rebuild demands, two
//! `O(n log n)` sorts with `sqrt`-heavy comparators, full fill) is what
//! separates central Hopper from central SRPT by two orders of
//! magnitude. This structure keeps every allocator input cached per job
//! and maintains the Guideline-2 fill order (`max(V, V′)` ascending,
//! job id tie-break — [`cmp_priority`]) as a sorted vector, so that:
//!
//! * a single job's demand change repositions one entry (two binary
//!   searches) and re-runs the fill only from the first affected
//!   position (**sorted-suffix recompute**);
//! * a shared-β change (online learning re-estimates one global β)
//!   rescales every key by the same positive factor, so the refresh pass
//!   checks that the order still holds and re-sorts only when float
//!   rounding moved a near-tie;
//! * an unchanged input set reuses the previous fill outright.
//!
//! **Exactness contract**: after any sequence of `upsert` / `remove` /
//! `set_shared_beta` calls, [`IncrementalAlloc::allocate`] returns slot
//! grants bit-identical to eager [`allocate`](crate::allocate()) over
//! the same demands in ascending-id order. Every derived quantity is
//! either recomputed with the exact same expression over the same cached
//! bits (virtual sizes, `ΣV`, fair floors) or maintained in integer
//! arithmetic (floor sums, fill spare), so no float re-association can
//! drift. The property tests in this module and the golden suites pin
//! the contract.

use crate::allocate::{
    apply_floor_trim, cmp_priority, fair_floor, fair_share_floor, fill_proportional, want_slots,
    AllocConfig, Regime,
};
use crate::vsize::{ceil_usize, priority_key, speculation_multiplier, virtual_size};

const NO_SLOT: u32 = u32::MAX;

/// Cached allocator inputs and outputs of one job.
#[derive(Debug, Clone)]
struct Entry {
    remaining: f64,
    downstream: f64,
    alpha: f64,
    beta: f64,
    weight: f64,
    /// Cached `α.sqrt()` — `virtual_size` is the left-associated product
    /// `(m·T)·√α`, so a shared-β refresh can recompute every key with two
    /// multiplies per term, bit-identical to calling `virtual_size`
    /// (IEEE-754 `sqrt` is correctly rounded, hence deterministic).
    sqrt_alpha: f64,
    /// Cached `V = virtual_size(remaining, beta, alpha)`.
    v: f64,
    /// Cached Guideline-2 key `max(V, V′)`.
    prio: f64,
    /// Useful cap `⌈remaining · max_useful_factor⌉` (valid for `params`).
    cap: usize,
    /// Desired slots `min(⌈V⌉, cap)` (valid for `params`).
    want: usize,
    /// ε-fair floor (valid for `params` + current weight total).
    floor: usize,
    /// Cached [`fair_share_floor`] — the `⌊(1−ε)·S·w/Σw⌋` part of the
    /// floor, which does not move with β (valid for `params` + current
    /// weight total).
    share_floor: usize,
    /// Slots granted by the last [`IncrementalAlloc::allocate`].
    granted: usize,
    /// Inputs changed since the last allocate (floor/want stale).
    dirty: bool,
}

/// Allocation-churn counters — how often the incremental allocator
/// recomputed, reused, or suffix-filled. Surfaced on the central
/// driver's `RunOutput` (not on the golden-pinned `RunStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounters {
    /// Full or suffix recomputations of the allocation.
    pub recomputes: u64,
    /// Recomputations that refilled only a sorted suffix of the order.
    pub suffix_fills: u64,
    /// Dispatches that reused the previous allocation unchanged.
    pub reuses: u64,
    /// Dispatches that kept a stale allocation under bounded staleness
    /// (`realloc_drift > 0`) even though inputs had changed.
    pub stale_skips: u64,
}

/// Incrementally maintained Pseudocode-1 allocation over a mutable job
/// set. See the module docs for the invariants; see
/// [`allocate`](crate::allocate()) for the allocation semantics.
#[derive(Debug, Clone, Default)]
pub struct IncrementalAlloc {
    slab: Vec<Entry>,
    free: Vec<u32>,
    /// Dense job-id → slab slot map (`NO_SLOT` when absent).
    slot_of: Vec<u32>,
    /// `(job, slot)` ascending by job id — the eager input order.
    ids: Vec<(usize, u32)>,
    /// `(prio, job)` ascending by [`cmp_priority`] — the Guideline-2 fill
    /// order. Keys are the entries' cached priorities.
    order: Vec<(f64, usize)>,
    /// Spare slots remaining *after* filling `order[pos]`, from the last
    /// constrained fill (the suffix-recompute resume points).
    spare_after: Vec<usize>,
    /// Shared β (online learning mode): `Some` ⇒ every entry uses this β
    /// and [`Self::set_shared_beta`] marks a lazy full refresh.
    shared_beta: Option<f64>,
    beta_dirty: bool,
    /// Insert/remove since last allocate: total weight (hence every fair
    /// floor) is stale.
    structure_dirty: bool,
    /// Slots with entry-level dirt since the last allocate.
    dirty: Vec<u32>,
    /// Smallest order position whose key/want/floor changed since the
    /// last fill (`usize::MAX` = none).
    first_dirty_pos: usize,
    /// `Σ weight.max(0)` in id order, refreshed on structure changes.
    total_weight: f64,
    /// Integer floor sum, maintained exactly.
    floor_sum: usize,
    /// `(capacity, eps bits, max_useful_factor bits)` the cached
    /// floors/caps were computed for.
    params: Option<(usize, u64, u64)>,
    last_regime: Option<Regime>,
    last_spare: usize,
    /// Incremental `Σ remaining·√α` (drift metric, shared-β mode).
    norm_sum: f64,
    /// Incremental `Σ V` (drift metric, per-job-β mode). Approximate
    /// (float re-association) — never used for regime decisions.
    v_sum: f64,
    counters: AllocCounters,
}

impl IncrementalAlloc {
    /// Empty allocator. `shared_beta` puts it in shared-β mode (β
    /// learning): per-entry β is ignored in favor of one global value
    /// updated via [`Self::set_shared_beta`].
    pub fn new(shared_beta: Option<f64>) -> Self {
        IncrementalAlloc {
            shared_beta,
            first_dirty_pos: usize::MAX,
            ..Default::default()
        }
    }

    /// Number of jobs currently in the allocator.
    pub fn len(&self) -> usize {
        self.ids.len()
    }

    /// Whether the allocator holds no jobs.
    pub fn is_empty(&self) -> bool {
        self.ids.is_empty()
    }

    /// Whether any allocate input changed since the last [`Self::allocate`].
    pub fn is_dirty(&self) -> bool {
        self.beta_dirty || self.structure_dirty || !self.dirty.is_empty()
    }

    /// Churn counters (see [`AllocCounters`]).
    pub fn counters(&self) -> AllocCounters {
        self.counters
    }

    /// Record a dispatch that reused the cache because nothing changed.
    pub fn note_reuse(&mut self) {
        self.counters.reuses += 1;
    }

    /// Record a dispatch that kept a stale allocation under bounded
    /// staleness.
    pub fn note_stale_skip(&mut self) {
        self.counters.stale_skips += 1;
    }

    /// Approximate `ΣV` under the *current* β (pending shared-β updates
    /// included) — the bounded-staleness drift metric. Maintained
    /// incrementally; float re-association makes it approximate, which
    /// is fine for a threshold heuristic but why the exact regime test
    /// in [`Self::allocate`] re-sums fresh.
    pub fn approx_total_virtual(&self) -> f64 {
        match self.shared_beta {
            Some(b) => speculation_multiplier(b) * self.norm_sum,
            None => self.v_sum,
        }
    }

    /// Slots granted to `job` by the last allocate (0 if absent).
    pub fn granted(&self, job: usize) -> usize {
        match self.slot(job) {
            Some(s) => self.slab[s as usize].granted,
            None => 0,
        }
    }

    /// The maintained Guideline-2 fill order: `(priority key, job id)`
    /// ascending by [`cmp_priority`].
    pub fn order(&self) -> &[(f64, usize)] {
        &self.order
    }

    fn slot(&self, job: usize) -> Option<u32> {
        match self.slot_of.get(job) {
            Some(&s) if s != NO_SLOT => Some(s),
            _ => None,
        }
    }

    /// β used for a (new) entry right now.
    fn beta_now(&self, per_job: f64) -> f64 {
        self.shared_beta.unwrap_or(per_job)
    }

    /// Update the global β (shared-β mode). A no-op when the value is
    /// bit-identical; otherwise every key rescales by the same positive
    /// factor and a lazy full refresh is scheduled for the next allocate.
    pub fn set_shared_beta(&mut self, beta: f64) {
        let cur = self
            .shared_beta
            .expect("set_shared_beta requires shared-β mode");
        if beta.to_bits() != cur.to_bits() {
            self.shared_beta = Some(beta);
            self.beta_dirty = true;
        }
    }

    /// Insert `job` or update its demand inputs. `beta` is the per-job
    /// tail index (ignored for existing entries, and in shared-β mode
    /// superseded by the shared value); `weight` the fairness weight.
    pub fn upsert(
        &mut self,
        job: usize,
        remaining: f64,
        downstream: f64,
        alpha: f64,
        beta: f64,
        weight: f64,
    ) {
        match self.slot(job) {
            Some(s) => {
                let si = s as usize;
                let e = &self.slab[si];
                if e.remaining.to_bits() == remaining.to_bits()
                    && e.downstream.to_bits() == downstream.to_bits()
                    && e.alpha.to_bits() == alpha.to_bits()
                {
                    return; // no allocate input changed
                }
                let b = self.slab[si].beta;
                let sqrt_alpha = alpha.sqrt();
                let v = virtual_size(remaining, b, alpha);
                let prio = priority_key(v, virtual_size(downstream, b, alpha));
                let old_prio = self.slab[si].prio;
                self.norm_sum +=
                    remaining * sqrt_alpha - self.slab[si].remaining * self.slab[si].sqrt_alpha;
                self.v_sum += v - self.slab[si].v;
                {
                    let e = &mut self.slab[si];
                    e.remaining = remaining;
                    e.downstream = downstream;
                    e.alpha = alpha;
                    e.sqrt_alpha = sqrt_alpha;
                    e.v = v;
                    e.prio = prio;
                    if !e.dirty {
                        e.dirty = true;
                        self.dirty.push(s);
                    }
                }
                self.reposition(job, old_prio, prio);
            }
            None => {
                let b = self.beta_now(beta);
                let sqrt_alpha = alpha.sqrt();
                let v = virtual_size(remaining, b, alpha);
                let prio = priority_key(v, virtual_size(downstream, b, alpha));
                let entry = Entry {
                    remaining,
                    downstream,
                    alpha,
                    beta: b,
                    weight,
                    sqrt_alpha,
                    v,
                    prio,
                    cap: 0,
                    want: 0,
                    floor: 0,
                    share_floor: 0,
                    granted: 0,
                    dirty: false,
                };
                let s = match self.free.pop() {
                    Some(s) => {
                        self.slab[s as usize] = entry;
                        s
                    }
                    None => {
                        self.slab.push(entry);
                        (self.slab.len() - 1) as u32
                    }
                };
                if self.slot_of.len() <= job {
                    self.slot_of.resize(job + 1, NO_SLOT);
                }
                self.slot_of[job] = s;
                let idp = self.ids.partition_point(|&(j, _)| j < job);
                self.ids.insert(idp, (job, s));
                let op = self
                    .order
                    .partition_point(|&k| cmp_priority(k, (prio, job)).is_lt());
                self.order.insert(op, (prio, job));
                self.first_dirty_pos = self.first_dirty_pos.min(op);
                self.structure_dirty = true;
                self.norm_sum += remaining * sqrt_alpha;
                self.v_sum += v;
            }
        }
    }

    /// Remove a completed job. No-op if absent.
    pub fn remove(&mut self, job: usize) {
        let Some(s) = self.slot(job) else { return };
        let si = s as usize;
        let prio = self.slab[si].prio;
        self.norm_sum -= self.slab[si].remaining * self.slab[si].sqrt_alpha;
        self.v_sum -= self.slab[si].v;
        // Entry-level dirt is subsumed by the structural refresh.
        if self.slab[si].dirty {
            self.dirty.retain(|&d| d != s);
        }
        let idp = self
            .ids
            .binary_search_by(|&(j, _)| j.cmp(&job))
            .expect("present job is indexed");
        self.ids.remove(idp);
        let op = self.order_pos(prio, job);
        self.order.remove(op);
        self.first_dirty_pos = self.first_dirty_pos.min(op);
        self.slot_of[job] = NO_SLOT;
        self.free.push(s);
        self.structure_dirty = true;
    }

    /// Position of `(prio, job)` in the maintained order.
    fn order_pos(&self, prio: f64, job: usize) -> usize {
        let p = self
            .order
            .partition_point(|&k| cmp_priority(k, (prio, job)).is_lt());
        debug_assert!(self.order[p] == (prio, job), "order key out of sync");
        p
    }

    /// Move `job`'s order entry from its old key position to the new one.
    fn reposition(&mut self, job: usize, old_prio: f64, new_prio: f64) {
        if old_prio.to_bits() == new_prio.to_bits() {
            let p = self.order_pos(old_prio, job);
            self.first_dirty_pos = self.first_dirty_pos.min(p);
            return;
        }
        let old_pos = self.order_pos(old_prio, job);
        self.order.remove(old_pos);
        let new_pos = self
            .order
            .partition_point(|&k| cmp_priority(k, (new_prio, job)).is_lt());
        self.order.insert(new_pos, (new_prio, job));
        self.first_dirty_pos = self.first_dirty_pos.min(old_pos.min(new_pos));
    }

    /// Recompute (or suffix-recompute) the allocation. Returns the
    /// regime used. Requires at least one job.
    ///
    /// The result is bit-identical to eager
    /// [`allocate`](crate::allocate()) over the same demands in
    /// ascending-id order (see the module docs for why).
    pub fn allocate(&mut self, capacity: usize, cfg: &AllocConfig) -> Regime {
        assert!(
            (0.0..=1.0).contains(&cfg.fairness_eps),
            "fairness_eps must be within [0,1]"
        );
        assert!(!self.ids.is_empty(), "allocate over an empty job set");
        self.counters.recomputes += 1;
        let params = (
            capacity,
            cfg.fairness_eps.to_bits(),
            cfg.max_useful_factor.to_bits(),
        );
        let params_changed = self.params != Some(params);
        let structural = self.structure_dirty || params_changed;
        let full = self.beta_dirty || structural;

        // Shared-β refresh: rescale every cached size/key, then restore
        // the order (a positive rescale preserves the mathematical order;
        // only float-rounding near-ties can move). The keys are
        // recomputed from the cached `√α` with two multiplies each:
        // `virtual_size` is the left-associated product `(m·T)·√α`, so
        // `(m·T)·s` with `s = α.sqrt()` cached produces the exact same
        // bits without the per-entry division and square root
        // (debug-asserted below).
        if self.beta_dirty {
            let b = self.shared_beta.expect("beta_dirty implies shared mode");
            let m = speculation_multiplier(b);
            for &(_, s) in &self.ids {
                let e = &mut self.slab[s as usize];
                e.beta = b;
                e.v = (m * e.remaining) * e.sqrt_alpha;
                e.prio = e.v.max((m * e.downstream) * e.sqrt_alpha);
                debug_assert_eq!(
                    e.v.to_bits(),
                    virtual_size(e.remaining, b, e.alpha).to_bits(),
                    "fast β rescale drifted from virtual_size"
                );
                debug_assert_eq!(
                    e.prio.to_bits(),
                    priority_key(e.v, virtual_size(e.downstream, b, e.alpha)).to_bits(),
                    "fast β rescale drifted from priority_key"
                );
            }
            // Keys are unique (job-id tie-break), so a strictly ascending
            // refresh is already the sorted order; almost every refresh
            // is, and then the sort (and its buffer) is skipped.
            let mut sorted = true;
            let mut prev: Option<(f64, usize)> = None;
            for k in self.order.iter_mut() {
                k.0 = self.slab[self.slot_of[k.1] as usize].prio;
                sorted &= prev.is_none_or(|p| cmp_priority(p, *k).is_lt());
                prev = Some(*k);
            }
            if !sorted {
                self.order.sort_by(|&a, &b| cmp_priority(a, b));
            }
        }

        // Exact regime input: ΣV freshly summed over the cached per-job
        // values in id order — the same adds, in the same order, over the
        // same bits as the eager path.
        let mut total_virtual = 0.0f64;
        for &(_, s) in &self.ids {
            total_virtual += self.slab[s as usize].v;
        }
        let regime = if total_virtual > capacity as f64 {
            Regime::Constrained
        } else {
            Regime::Proportional
        };

        // Floors, caps, and wants — three tiers:
        //  * structural/param change: the weight total moved, so every
        //    fair share (and the cached share floor) is recomputed;
        //  * β-only change: weights, caps, and share floors are all still
        //    valid — only `⌈V⌉` moved, so the pass is integer-only
        //    (one ceil and two mins per entry, no division);
        //  * otherwise entry-local, with an exact integer floor-sum delta.
        if structural {
            self.total_weight = 0.0;
            for &(_, s) in &self.ids {
                self.total_weight += self.slab[s as usize].weight.max(0.0);
            }
            let with_floors = cfg.fairness_eps < 1.0 && self.total_weight > 0.0;
            self.floor_sum = 0;
            for &(_, s) in &self.ids {
                let e = &mut self.slab[s as usize];
                e.cap = (e.remaining * cfg.max_useful_factor).ceil() as usize;
                e.want = want_slots(e.v, e.cap);
                if with_floors {
                    e.share_floor = fair_share_floor(e.weight, capacity, self.total_weight, cfg);
                    e.floor = e.share_floor.min(e.v.ceil() as usize).min(e.cap);
                } else {
                    e.share_floor = 0;
                    e.floor = 0;
                }
                self.floor_sum += e.floor;
                e.dirty = false;
            }
            self.dirty.clear();
        } else if self.beta_dirty {
            let with_floors = cfg.fairness_eps < 1.0 && self.total_weight > 0.0;
            self.floor_sum = 0;
            for &(_, s) in &self.ids {
                let e = &mut self.slab[s as usize];
                if e.dirty {
                    // A demand change rode along with the β update: its
                    // useful cap (remaining-task dependent) is stale too.
                    e.cap = ceil_usize(e.remaining * cfg.max_useful_factor);
                    e.dirty = false;
                }
                let vc = ceil_usize(e.v);
                e.want = vc.min(e.cap);
                e.floor = if with_floors {
                    e.share_floor.min(vc).min(e.cap)
                } else {
                    0
                };
                self.floor_sum += e.floor;
            }
            self.dirty.clear();
        } else {
            let with_floors = cfg.fairness_eps < 1.0 && self.total_weight > 0.0;
            for &s in &self.dirty {
                let e = &mut self.slab[s as usize];
                e.cap = (e.remaining * cfg.max_useful_factor).ceil() as usize;
                e.want = want_slots(e.v, e.cap);
                let floor = if with_floors {
                    fair_floor(e.weight, e.v, e.cap, capacity, self.total_weight, cfg)
                } else {
                    0
                };
                self.floor_sum = self.floor_sum + floor - e.floor;
                e.floor = floor;
                e.dirty = false;
            }
            self.dirty.clear();
        }

        // Oversubscribed floors are impossible with `floor()` rounding
        // (Σ⌊xᵢ⌋ ≤ ⌊Σxᵢ⌋ ≤ capacity) but the eager path keeps a trim
        // guard; mirror it exactly on the rare-to-impossible branch and
        // fall back to a full refresh next round (trimmed floors are
        // transient in the eager path, so they must not linger here).
        let mut floor_sum = self.floor_sum;
        if floor_sum > capacity {
            let mut floors: Vec<usize> = self
                .ids
                .iter()
                .map(|&(_, s)| self.slab[s as usize].floor)
                .collect();
            floor_sum = apply_floor_trim(&mut floors, floor_sum, capacity);
            for (i, &(_, s)) in self.ids.iter().enumerate() {
                self.slab[s as usize].floor = floors[i];
            }
            self.structure_dirty = true; // force full floor rebuild next time
        }
        let spare = capacity - floor_sum;

        let n = self.order.len();
        match regime {
            Regime::Constrained => {
                // Sorted-suffix recompute: when nothing structural moved,
                // the fill prefix before the first dirty order position is
                // untouched — resume from its recorded spare.
                let suffix_ok = !full
                    && self.last_regime == Some(Regime::Constrained)
                    && spare == self.last_spare
                    && self.spare_after.len() == n
                    && self.first_dirty_pos > 0
                    && self.first_dirty_pos < n;
                let start = if suffix_ok {
                    self.counters.suffix_fills += 1;
                    self.first_dirty_pos
                } else {
                    0
                };
                self.spare_after.resize(n, 0);
                let mut left = if start == 0 {
                    spare
                } else {
                    self.spare_after[start - 1]
                };
                for pos in start..n {
                    let job = self.order[pos].1;
                    let e = &mut self.slab[self.slot_of[job] as usize];
                    let grant = e.want.saturating_sub(e.floor).min(left);
                    e.granted = e.floor + grant;
                    left -= grant;
                    self.spare_after[pos] = left;
                }
            }
            Regime::Proportional => {
                let v: Vec<f64> = self
                    .ids
                    .iter()
                    .map(|&(_, s)| self.slab[s as usize].v)
                    .collect();
                let headroom: Vec<usize> = self
                    .ids
                    .iter()
                    .map(|&(_, s)| {
                        let e = &self.slab[s as usize];
                        e.cap.saturating_sub(e.floor)
                    })
                    .collect();
                let extra = fill_proportional(&v, &headroom, spare, total_virtual);
                for (i, &(_, s)) in self.ids.iter().enumerate() {
                    let e = &mut self.slab[s as usize];
                    e.granted = e.floor + extra[i];
                }
                // A proportional fill leaves no valid suffix bookkeeping.
                self.spare_after.clear();
            }
        }

        self.last_regime = Some(regime);
        self.last_spare = spare;
        self.first_dirty_pos = usize::MAX;
        self.beta_dirty = false;
        self.structure_dirty &= floor_sum != self.floor_sum; // keep only the trim fallback
        self.params = Some(params);
        regime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::allocate::{allocate, JobDemand};

    /// Deterministic splitmix64 — keeps the tests dependency-free.
    struct Rng(u64);
    impl Rng {
        fn next(&mut self) -> u64 {
            self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = self.0;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        }
        fn below(&mut self, n: u64) -> u64 {
            self.next() % n
        }
        fn f64(&mut self) -> f64 {
            (self.next() >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// Mirror of the driver's demand set: the reference eager input.
    #[derive(Clone)]
    struct Model {
        demands: Vec<JobDemand>,
        shared_beta: Option<f64>,
    }

    impl Model {
        fn eager(&self, capacity: usize, cfg: &AllocConfig) -> Vec<crate::allocate::Allocation> {
            let mut ds = self.demands.clone();
            if let Some(b) = self.shared_beta {
                for d in &mut ds {
                    d.beta = b;
                }
            }
            allocate(&ds, capacity, cfg)
        }
    }

    fn check_equiv(inc: &mut IncrementalAlloc, model: &Model, capacity: usize, cfg: &AllocConfig) {
        if model.demands.is_empty() {
            assert!(inc.is_empty());
            return;
        }
        let regime = inc.allocate(capacity, cfg);
        let eager = model.eager(capacity, cfg);
        for a in &eager {
            assert_eq!(
                inc.granted(a.job),
                a.slots,
                "job {} slots drifted from eager (regime {:?})",
                a.job,
                a.regime
            );
            assert_eq!(regime, a.regime, "regime drifted from eager");
        }
    }

    /// Randomized sequences of upserts / removes / β updates, checked
    /// against the eager allocator after every step, across capacities
    /// that exercise both regimes.
    fn equivalence_run(seed: u64, shared: bool, capacity: usize) {
        let mut rng = Rng(seed);
        let cfgs = [
            AllocConfig::default(),
            AllocConfig::no_fairness(),
            AllocConfig {
                fairness_eps: 0.0,
                ..Default::default()
            },
        ];
        let cfg = &cfgs[(seed % 3) as usize];
        let mut inc = IncrementalAlloc::new(shared.then_some(1.5));
        let mut model = Model {
            demands: vec![],
            shared_beta: shared.then_some(1.5),
        };
        let mut next_job = 0usize;
        for _ in 0..400 {
            match rng.below(10) {
                // Arrival.
                0..=2 => {
                    let d = JobDemand {
                        job: next_job,
                        remaining_tasks: (1 + rng.below(200)) as f64,
                        downstream_tasks: rng.below(100) as f64,
                        alpha: 1.0 + rng.f64() * 3.0,
                        beta: 1.1 + rng.f64(),
                        weight: 1.0,
                    };
                    next_job += 1;
                    inc.upsert(
                        d.job,
                        d.remaining_tasks,
                        d.downstream_tasks,
                        d.alpha,
                        d.beta,
                        d.weight,
                    );
                    model.demands.push(d);
                }
                // Completion.
                3 => {
                    if !model.demands.is_empty() {
                        let i = rng.below(model.demands.len() as u64) as usize;
                        let d = model.demands.remove(i);
                        inc.remove(d.job);
                    }
                }
                // Task finishes / phase transitions / α refresh.
                4..=7 => {
                    if !model.demands.is_empty() {
                        let i = rng.below(model.demands.len() as u64) as usize;
                        let d = &mut model.demands[i];
                        d.remaining_tasks = (d.remaining_tasks - 1.0).max(0.0);
                        if rng.below(4) == 0 {
                            d.downstream_tasks = rng.below(100) as f64;
                        }
                        if rng.below(5) == 0 {
                            d.alpha = 1.0 + rng.f64() * 3.0;
                        }
                        inc.upsert(
                            d.job,
                            d.remaining_tasks,
                            d.downstream_tasks,
                            d.alpha,
                            d.beta,
                            d.weight,
                        );
                    }
                }
                // Shared-β update (no-op in per-job mode, like a run
                // without β learning).
                8 => {
                    if shared {
                        let b = 1.1 + rng.f64();
                        inc.set_shared_beta(b);
                        model.shared_beta = Some(b);
                    }
                }
                // Machine fail/recover: capacity and demands unchanged —
                // must not dirty the allocator at all (satellite: no
                // over-invalidation).
                _ => {
                    let was_dirty = inc.is_dirty();
                    // ... nothing to apply: the allocator has no machine
                    // state by construction; assert dirt did not appear.
                    assert_eq!(inc.is_dirty(), was_dirty);
                }
            }
            check_equiv(&mut inc, &model, capacity, cfg);
        }
    }

    #[test]
    fn equivalent_to_eager_constrained_regime() {
        // Tight capacity ⇒ mostly Guideline 2.
        for seed in 0..6 {
            equivalence_run(seed, seed % 2 == 0, 50);
        }
    }

    #[test]
    fn equivalent_to_eager_proportional_regime() {
        // Plentiful capacity ⇒ mostly Guideline 3.
        for seed in 0..6 {
            equivalence_run(seed, seed % 2 == 0, 100_000);
        }
    }

    #[test]
    fn equivalent_to_eager_mixed_regime() {
        // Mid capacity: ΣV crosses the threshold back and forth.
        for seed in 0..6 {
            equivalence_run(seed, seed % 2 == 0, 2_000);
        }
    }

    #[test]
    fn suffix_fills_actually_happen() {
        // Per-job β (no global rescale), no fairness floors: single-job
        // updates must hit the sorted-suffix path, not full refills.
        let cfg = AllocConfig::no_fairness();
        let mut inc = IncrementalAlloc::new(None);
        for j in 0..64 {
            inc.upsert(j, 10.0 + j as f64, 0.0, 1.0, 1.5, 1.0);
        }
        inc.allocate(100, &cfg);
        for step in 0..32 {
            let j = 40 + (step % 8);
            inc.upsert(j, 80.0 - step as f64, 0.0, 1.0, 1.5, 1.0);
            inc.allocate(100, &cfg);
        }
        let c = inc.counters();
        assert!(
            c.suffix_fills > 0,
            "no suffix recompute in {} recomputes",
            c.recomputes
        );
    }

    #[test]
    fn duplicate_priority_keys_keep_id_order() {
        // Satellite regression: many jobs with the exact same max(V, V′)
        // key must order by job id, and the incremental order must match
        // the eager sort bit-for-bit.
        let cfg = AllocConfig::no_fairness();
        let mut inc = IncrementalAlloc::new(None);
        let mut model = Model {
            demands: vec![],
            shared_beta: None,
        };
        // Insert in a scrambled id order to exercise the tie-break.
        for &j in &[7usize, 2, 9, 0, 5, 1, 8, 3, 6, 4] {
            let d = JobDemand::simple(j, 12.0, 1.6); // identical V for all
            inc.upsert(j, 12.0, 0.0, 1.0, 1.6, 1.0);
            model.demands.push(d);
        }
        model.demands.sort_by_key(|d| d.job);
        check_equiv(&mut inc, &model, 40, &cfg);
        let order: Vec<usize> = inc.order().iter().map(|&(_, j)| j).collect();
        assert_eq!(order, (0..10).collect::<Vec<_>>(), "ties must break by id");
    }

    /// A positive β rescale keeps the mathematical order, but rounding
    /// can flip a near-tie: these two keys are 147.38754445643133 vs
    /// 147.3875444564313 at β = 1.5 and 124.06483327724557 vs
    /// 124.06483327724558 at the second β. The refresh must see the
    /// flip and re-sort, or the constrained fill serves the wrong job
    /// first.
    #[test]
    fn shared_beta_refresh_resorts_a_rounding_flip() {
        let cfg = AllocConfig::no_fairness();
        let mut inc = IncrementalAlloc::new(Some(1.5));
        let mut model = Model {
            demands: vec![],
            shared_beta: Some(1.5),
        };
        for (job, rem, alpha) in [(0, 56.0, 3.8964404166946087), (1, 67.0, 2.722039907942591)] {
            inc.upsert(job, rem, 0.0, alpha, 1.5, 1.0);
            model.demands.push(JobDemand {
                job,
                remaining_tasks: rem,
                downstream_tasks: 0.0,
                alpha,
                beta: 1.5,
                weight: 1.0,
            });
        }
        let ids = |inc: &IncrementalAlloc| inc.order().iter().map(|&(_, j)| j).collect::<Vec<_>>();
        check_equiv(&mut inc, &model, 150, &cfg);
        assert_eq!(ids(&inc), [1, 0]);
        let b = 1.7819821366349666;
        inc.set_shared_beta(b);
        model.shared_beta = Some(b);
        check_equiv(&mut inc, &model, 150, &cfg);
        assert_eq!(ids(&inc), [0, 1], "the refresh kept a stale order");
    }

    #[test]
    fn comparator_is_a_total_order_with_nan() {
        use std::cmp::Ordering::*;
        // NaN keys order deterministically (total_cmp puts positive NaN
        // after every finite key) instead of collapsing to Equal the way
        // `partial_cmp(..).unwrap_or(Equal)` did — a NaN can no longer
        // scramble the fill order.
        assert_eq!(cmp_priority((f64::NAN, 0), (1.0e300, 1)), Greater);
        assert_eq!(cmp_priority((1.0e300, 1), (f64::NAN, 0)), Less);
        assert_eq!(cmp_priority((f64::NAN, 0), (f64::NAN, 1)), Less);
        // Exact duplicate keys break by job id, antisymmetrically.
        assert_eq!(cmp_priority((2.5, 3), (2.5, 7)), Less);
        assert_eq!(cmp_priority((2.5, 7), (2.5, 3)), Greater);
        assert_eq!(cmp_priority((2.5, 3), (2.5, 3)), Equal);
        // Signed zeros are distinct but deterministic (−0 < +0).
        assert_eq!(cmp_priority((-0.0, 9), (0.0, 1)), Less);
    }

    #[test]
    fn upsert_with_unchanged_inputs_keeps_cache_clean() {
        let cfg = AllocConfig::default();
        let mut inc = IncrementalAlloc::new(None);
        inc.upsert(0, 10.0, 0.0, 1.0, 1.5, 1.0);
        inc.upsert(1, 20.0, 5.0, 2.0, 1.4, 1.0);
        inc.allocate(100, &cfg);
        assert!(!inc.is_dirty());
        inc.upsert(0, 10.0, 0.0, 1.0, 1.5, 1.0); // bit-identical inputs
        assert!(!inc.is_dirty(), "no-op upsert must not invalidate");
        inc.upsert(0, 9.0, 0.0, 1.0, 1.5, 1.0);
        assert!(inc.is_dirty());
    }

    #[test]
    fn shared_beta_noop_keeps_cache_clean() {
        let mut inc = IncrementalAlloc::new(Some(1.5));
        inc.upsert(0, 10.0, 0.0, 1.0, 9.9, 1.0); // per-job β superseded
        inc.allocate(100, &AllocConfig::default());
        inc.set_shared_beta(1.5);
        assert!(!inc.is_dirty(), "bit-identical β must not invalidate");
        inc.set_shared_beta(1.50000001);
        assert!(inc.is_dirty());
    }
}
