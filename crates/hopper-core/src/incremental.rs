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
//! * a single job's demand change repositions one entry (a binary
//!   search and a rotation);
//! * the constrained fill is kept as an **exhaustion point** `x`:
//!   positions before it get their full want, `x` gets the remainder,
//!   later positions their floor. A changed want or floor, a moved entry
//!   or a moved spare shifts `x` from where it was, and only the grants
//!   between its old and new place (plus the changed entries) are
//!   rewritten;
//! * a shared-β change (online learning re-estimates one global β)
//!   rescales every size by the same multiplier `m = max(2/β, 1)`: the
//!   refresh re-sums `ΣV` and re-checks the order over contiguous arrays.
//!   Each order row also carries an [`Interval`] of `m` on which its
//!   `⌈V⌉` provably holds (see [`crate::threshold`]); the same pass hands
//!   back the few rows whose interval the move left, and only those are
//!   re-evaluated;
//! * an unchanged input set reuses the previous fill outright.
//!
//! **Exactness contract**: after any sequence of `upsert` / `remove` /
//! `set_shared_beta` calls, [`IncrementalAlloc::allocate`] returns slot
//! grants bit-identical to eager [`allocate`](crate::allocate()) over
//! the same demands in ascending-id order. Every derived quantity is
//! either recomputed with the exact same expression over the same cached
//! bits (virtual sizes, `ΣV`, fair floors) or maintained in integer
//! arithmetic (floor sums, fill prefix, spare), so no float
//! re-association can drift. The property tests in this module and the
//! golden suites pin the contract.

use crate::allocate::{
    apply_floor_trim, cmp_priority, fair_share_floor, fill_proportional, useful_cap, AllocConfig,
    Regime,
};
use crate::threshold::{level_interval, Interval};
use crate::vsize::{ceil_usize, speculation_multiplier};

const NO_SLOT: u32 = u32::MAX;

/// Cached allocator inputs and outputs of one job.
#[derive(Debug, Clone)]
struct Entry {
    job: usize,
    remaining: f64,
    downstream: f64,
    alpha: f64,
    weight: f64,
    /// Cached `α.sqrt()` — `virtual_size` is the left-associated product
    /// `(m·T)·√α`, so every size and key is recomputed from it with two
    /// multiplies, bit-identical to calling `virtual_size` (IEEE-754
    /// `sqrt` is correctly rounded, hence deterministic).
    sqrt_alpha: f64,
    /// Multiplier of this entry's key in the order while `epoch` equals
    /// the allocator's; from the next shared-β refresh on, the
    /// allocator's `key_m` (see [`IncrementalAlloc::mult_of`]).
    mult: f64,
    epoch: u64,
    /// Useful cap `⌈remaining · MAX_USEFUL_FACTOR⌉`.
    cap: usize,
    /// Desired slots `min(⌈V⌉, cap)` (valid for `params`).
    want: usize,
    /// ε-fair floor `min(share_floor, ⌈V⌉, cap)` — never above `want`.
    floor: usize,
    /// Cached [`fair_share_floor`] — the `⌊(1−ε)·S·w/Σw⌋` part of the
    /// floor, which does not move with β or task counts (valid for
    /// `params` + current weight total; 0 without floors).
    share_floor: usize,
    /// Slots granted by the last [`IncrementalAlloc::allocate`].
    granted: usize,
    /// Queued for re-evaluation at the next allocate (inputs changed,
    /// new, or its `⌈V⌉` interval went stale).
    dirty: bool,
}

impl Entry {
    /// The constrained fill's per-entry increment above the floor.
    fn delta(&self) -> usize {
        self.want.saturating_sub(self.floor)
    }
}

/// One job in ascending-id order — the eager input order, which `ΣV`
/// and the proportional fill follow.
#[derive(Debug, Clone, Copy)]
struct IdRow {
    job: usize,
    slot: u32,
    remaining: f64,
    sqrt_alpha: f64,
    /// Current `V`.
    v: f64,
}

/// One job in Guideline-2 fill order: its key and the inputs a shared-β
/// refresh recomputes the key from.
#[derive(Debug, Clone, Copy)]
struct OrderRow {
    key: f64,
    job: usize,
    remaining: f64,
    downstream: f64,
    sqrt_alpha: f64,
    /// Shared-β mode: multipliers on which the entry's cached `⌈V⌉`
    /// provably holds ([`Interval::ALL`] for a dirty or per-job entry).
    valid: Interval,
}

/// One edit of the fill order, reported in the order it was made by
/// [`IncrementalAlloc::take_changes`]. Positions are indices into the
/// order as it stood right after the edit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum OrderEdit {
    /// `job` was inserted at `at`.
    Insert {
        /// Its position.
        at: usize,
        /// The inserted job.
        job: usize,
    },
    /// The entry at `at` was removed.
    Remove {
        /// Its former position.
        at: usize,
    },
    /// The entry at `from` moved to `to`; the entries between shift by one.
    Move {
        /// Former position.
        from: usize,
        /// New position.
        to: usize,
    },
}

/// Allocation-churn counters — how often the incremental allocator
/// recomputed, reused, or walked its exhaustion point. Surfaced on the
/// central driver's `RunOutput` (not on the golden-pinned `RunStats`).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AllocCounters {
    /// Full or incremental recomputations of the allocation.
    pub recomputes: u64,
    /// Constrained recomputations that moved the exhaustion point from
    /// its previous place instead of refilling from position 0.
    pub suffix_fills: u64,
    /// Dispatches that reused the previous allocation unchanged.
    pub reuses: u64,
    /// Dispatches that kept a stale allocation under bounded staleness
    /// (`realloc_drift > 0`) even though inputs had changed.
    pub stale_skips: u64,
    /// Entries the threshold index handed back for an exact `⌈V⌉`
    /// re-check after a shared-β move (the rest provably kept theirs).
    pub index_rechecks: u64,
}

/// Incrementally maintained Pseudocode-1 allocation over a mutable job
/// set. See the module docs for the invariants; see
/// [`allocate`](crate::allocate()) for the allocation semantics.
#[derive(Debug, Clone)]
pub struct IncrementalAlloc {
    slab: Vec<Entry>,
    free: Vec<u32>,
    /// Dense job-id → slab slot map (`NO_SLOT` when absent).
    slot_of: Vec<u32>,
    /// Jobs ascending by id.
    ids: Vec<IdRow>,
    /// Jobs ascending by [`cmp_priority`] — the Guideline-2 fill order.
    order: Vec<OrderRow>,
    /// Latest shared β (online learning mode): `Some` ⇒ every entry uses
    /// it, through `shared_m`.
    shared_beta: Option<f64>,
    /// `speculation_multiplier` of the latest shared β.
    shared_m: f64,
    /// `shared_m` moved since the last allocate.
    m_dirty: bool,
    /// Multiplier of every size and key refreshed at the last shared-β
    /// refresh, which bumped `epoch`.
    key_m: f64,
    epoch: u64,
    /// Insert/remove since last allocate: total weight (hence every fair
    /// floor) is stale.
    structure_dirty: bool,
    /// Slots to re-evaluate at the next allocate.
    dirty: Vec<u32>,
    /// `Σ weight.max(0)` in id order, refreshed on structure changes.
    total_weight: f64,
    /// Integer floor sum, maintained exactly.
    floor_sum: usize,
    /// `(capacity, eps bits)` the cached floors were computed for.
    params: Option<(usize, u64)>,
    /// The constrained fill as an exhaustion point: `fill_x` is the first
    /// order position that does not get its full want (`order.len()`
    /// when every job does), `fill_used` the sum of the increments
    /// (`want − floor`) before it, `fill_spare` the spare it was walked
    /// against. Valid while `fill_valid`; kept current across
    /// repositions.
    fill_valid: bool,
    fill_x: usize,
    fill_used: usize,
    fill_spare: usize,
    /// Incremental `Σ remaining·√α` (drift metric, shared-β mode).
    norm_sum: f64,
    /// Incremental `Σ V` (drift metric, per-job-β mode). Approximate
    /// (float re-association) — never used for regime decisions.
    v_sum: f64,
    counters: AllocCounters,
    /// Change feed for a consumer that mirrors the order (see
    /// [`Self::take_changes`]): order edits and jobs whose grant moved,
    /// or `resync` when the consumer must rebuild from scratch.
    edits: Vec<OrderEdit>,
    moved: Vec<usize>,
    resync: bool,
    /// Scratch: order positions whose `⌈V⌉` interval a shared-β move
    /// left, and order positions re-evaluated outside a structural refresh.
    stale: Vec<usize>,
    changed: Vec<usize>,
}

impl IncrementalAlloc {
    /// Empty allocator. `shared_beta` puts it in shared-β mode (β
    /// learning): per-entry β is ignored in favor of one global value
    /// updated via [`Self::set_shared_beta`].
    pub fn new(shared_beta: Option<f64>) -> Self {
        let m = shared_beta.map_or(1.0, speculation_multiplier);
        IncrementalAlloc {
            slab: Vec::new(),
            free: Vec::new(),
            slot_of: Vec::new(),
            ids: Vec::new(),
            order: Vec::new(),
            shared_beta,
            shared_m: m,
            m_dirty: false,
            key_m: m,
            epoch: 0,
            structure_dirty: false,
            dirty: Vec::new(),
            total_weight: 0.0,
            floor_sum: 0,
            params: None,
            fill_valid: false,
            fill_x: 0,
            fill_used: 0,
            fill_spare: 0,
            norm_sum: 0.0,
            v_sum: 0.0,
            counters: AllocCounters::default(),
            edits: Vec::new(),
            moved: Vec::new(),
            resync: true,
            stale: Vec::new(),
            changed: Vec::new(),
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
        self.m_dirty || self.structure_dirty || !self.dirty.is_empty()
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
            Some(_) => self.shared_m * self.norm_sum,
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
    pub fn order(&self) -> impl ExactSizeIterator<Item = (f64, usize)> + '_ {
        self.order.iter().map(|o| (o.key, o.job))
    }

    /// Position of `job` in [`Self::order`] (`None` if absent).
    pub fn position(&self, job: usize) -> Option<usize> {
        let s = self.slot(job)?;
        let e = &self.slab[s as usize];
        let m = self.mult_of(e);
        Some(self.order_pos(key(m, e.remaining, e.downstream, e.sqrt_alpha), job))
    }

    /// Hand the order edits and the jobs whose grant moved since the last
    /// call to a consumer that mirrors the order (the caller's buffers are
    /// cleared and swapped in). Returns `true` instead when the consumer
    /// must rebuild from [`Self::order`] and [`Self::granted`]: on the
    /// first call, after a re-sort, and when the feed outgrew the order
    /// (an unconsumed feed stops growing at that point).
    pub fn take_changes(&mut self, edits: &mut Vec<OrderEdit>, moved: &mut Vec<usize>) -> bool {
        edits.clear();
        moved.clear();
        std::mem::swap(edits, &mut self.edits);
        std::mem::swap(moved, &mut self.moved);
        std::mem::take(&mut self.resync)
    }

    fn note_edit(&mut self, edit: OrderEdit) {
        if self.resync {
            return;
        }
        if self.edits.len() > self.order.len() + 64 {
            self.request_resync();
        } else {
            self.edits.push(edit);
        }
    }

    fn note_moved(&mut self, job: usize) {
        if self.resync {
            return;
        }
        if self.moved.len() > 2 * self.order.len() + 64 {
            self.request_resync();
        } else {
            self.moved.push(job);
        }
    }

    fn request_resync(&mut self) {
        self.resync = true;
        self.edits.clear();
        self.moved.clear();
    }

    fn slot(&self, job: usize) -> Option<u32> {
        match self.slot_of.get(job) {
            Some(&s) if s != NO_SLOT => Some(s),
            _ => None,
        }
    }

    /// Multiplier of `e`'s current size and key.
    fn mult_of(&self, e: &Entry) -> f64 {
        if e.epoch == self.epoch {
            e.mult
        } else {
            self.key_m
        }
    }

    /// Queue slot `s` for re-evaluation at the next allocate.
    fn mark_dirty(&mut self, s: u32) {
        let e = &mut self.slab[s as usize];
        if !e.dirty {
            e.dirty = true;
            self.dirty.push(s);
        }
    }

    /// Update the global β (shared-β mode). Only a change of the
    /// multiplier `max(2/β, 1)` changes a size: every size rescales by
    /// the same factor and a lazy refresh is scheduled for the next
    /// allocate. A move within β ≥ 2 (multiplier 1) changes nothing.
    pub fn set_shared_beta(&mut self, beta: f64) {
        assert!(
            self.shared_beta.is_some(),
            "set_shared_beta requires shared-β mode"
        );
        self.shared_beta = Some(beta);
        let m = speculation_multiplier(beta);
        if m.to_bits() != self.shared_m.to_bits() {
            self.shared_m = m;
            self.m_dirty = true;
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
                let sqrt_alpha = alpha.sqrt();
                let m = self.mult_of(e);
                let old_key = key(m, e.remaining, e.downstream, e.sqrt_alpha);
                let old_v = (m * e.remaining) * e.sqrt_alpha;
                let v = (m * remaining) * sqrt_alpha;
                self.norm_sum += remaining * sqrt_alpha - e.remaining * e.sqrt_alpha;
                self.v_sum += v - old_v;
                let e = &mut self.slab[si];
                e.remaining = remaining;
                e.downstream = downstream;
                e.alpha = alpha;
                e.sqrt_alpha = sqrt_alpha;
                e.mult = m;
                e.epoch = self.epoch;
                let delta = e.delta();
                self.mark_dirty(s);
                let idp = self.id_pos(job);
                self.ids[idp] = IdRow {
                    job,
                    slot: s,
                    remaining,
                    sqrt_alpha,
                    v,
                };
                let row = OrderRow {
                    key: key(m, remaining, downstream, sqrt_alpha),
                    job,
                    remaining,
                    downstream,
                    sqrt_alpha,
                    valid: Interval::ALL,
                };
                self.reposition(old_key, row, delta);
            }
            None => {
                let sqrt_alpha = alpha.sqrt();
                let m = match self.shared_beta {
                    Some(_) => self.shared_m,
                    None => speculation_multiplier(beta),
                };
                let v = (m * remaining) * sqrt_alpha;
                let entry = Entry {
                    job,
                    remaining,
                    downstream,
                    alpha,
                    weight,
                    sqrt_alpha,
                    mult: m,
                    epoch: self.epoch,
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
                self.mark_dirty(s);
                let idp = self.ids.partition_point(|r| r.job < job);
                self.ids.insert(
                    idp,
                    IdRow {
                        job,
                        slot: s,
                        remaining,
                        sqrt_alpha,
                        v,
                    },
                );
                let k = key(m, remaining, downstream, sqrt_alpha);
                let at = self
                    .order
                    .partition_point(|o| cmp_priority((o.key, o.job), (k, job)).is_lt());
                self.order.insert(
                    at,
                    OrderRow {
                        key: k,
                        job,
                        remaining,
                        downstream,
                        sqrt_alpha,
                        valid: Interval::ALL,
                    },
                );
                self.note_edit(OrderEdit::Insert { at, job });
                self.structure_dirty = true;
                self.fill_valid = false;
                self.norm_sum += remaining * sqrt_alpha;
                self.v_sum += v;
            }
        }
    }

    /// Remove a completed job. No-op if absent.
    pub fn remove(&mut self, job: usize) {
        let Some(s) = self.slot(job) else { return };
        let si = s as usize;
        let e = &self.slab[si];
        let m = self.mult_of(e);
        let k = key(m, e.remaining, e.downstream, e.sqrt_alpha);
        self.norm_sum -= e.remaining * e.sqrt_alpha;
        self.v_sum -= (m * e.remaining) * e.sqrt_alpha;
        // Entry-level dirt is subsumed by the structural refresh.
        if e.dirty {
            self.dirty.retain(|&d| d != s);
        }
        let idp = self.id_pos(job);
        self.ids.remove(idp);
        let at = self.order_pos(k, job);
        self.order.remove(at);
        self.note_edit(OrderEdit::Remove { at });
        self.slot_of[job] = NO_SLOT;
        self.free.push(s);
        self.structure_dirty = true;
        self.fill_valid = false;
    }

    /// Position of `job` in `ids`.
    fn id_pos(&self, job: usize) -> usize {
        self.ids
            .binary_search_by(|r| r.job.cmp(&job))
            .expect("present job is indexed")
    }

    /// Position of `(key, job)` in the maintained order.
    fn order_pos(&self, k: f64, job: usize) -> usize {
        let p = self
            .order
            .partition_point(|o| cmp_priority((o.key, o.job), (k, job)).is_lt());
        debug_assert!(
            self.order[p].key.to_bits() == k.to_bits() && self.order[p].job == job,
            "order key out of sync"
        );
        p
    }

    /// Order position of slot `s`'s entry.
    fn slot_pos(&self, s: u32) -> usize {
        let e = &self.slab[s as usize];
        self.order_pos(
            key(self.mult_of(e), e.remaining, e.downstream, e.sqrt_alpha),
            e.job,
        )
    }

    /// Recompute the cap, want and floor of slot `s` (at order position
    /// `pos`) after its inputs or its `⌈V⌉` moved, outside a structural
    /// refresh: the floor sum and the fill prefix take the exact integer
    /// differences, the grant is rewritten by the fill, and the `⌈V⌉`
    /// interval is cached anew.
    fn reevaluate(&mut self, s: u32, pos: usize) {
        let e = &self.slab[s as usize];
        let vc = ceil_usize((self.mult_of(e) * e.remaining) * e.sqrt_alpha);
        let cap = useful_cap(e.remaining);
        let (old_delta, old_floor) = (e.delta(), e.floor);
        let e = &mut self.slab[s as usize];
        e.cap = cap;
        e.want = vc.min(cap);
        e.floor = e.share_floor.min(vc).min(cap);
        e.dirty = false;
        self.floor_sum = self.floor_sum + e.floor - old_floor;
        if self.fill_valid && pos < self.fill_x {
            self.fill_used = self.fill_used + e.delta() - old_delta;
        }
        self.changed.push(pos);
        self.reindex(pos);
    }

    /// Move `row.job`'s order entry from its old key's position to its
    /// new one, rotating only the entries between, and keep the fill's
    /// exhaustion point on the same entries: `delta` is the entry's
    /// cached increment, counted in `fill_used` exactly when the entry
    /// sits before `fill_x`.
    fn reposition(&mut self, old_key: f64, row: OrderRow, delta: usize) {
        let from = self.order_pos(old_key, row.job);
        if old_key.to_bits() == row.key.to_bits() {
            self.order[from] = row;
            return;
        }
        let p = self
            .order
            .partition_point(|o| cmp_priority((o.key, o.job), (row.key, row.job)).is_lt());
        // `p` counts the entry itself when it sorts before its new key.
        let to = if p > from { p - 1 } else { p };
        if to < from {
            self.order[to..=from].rotate_right(1);
        } else {
            self.order[from..=to].rotate_left(1);
        }
        self.order[to] = row;
        if self.fill_valid {
            if from < self.fill_x {
                self.fill_used -= delta;
                self.fill_x -= 1;
            }
            if to <= self.fill_x {
                self.fill_used += delta;
                self.fill_x += 1;
            }
        }
        if from != to {
            self.note_edit(OrderEdit::Move { from, to });
        }
    }

    /// Cache the interval of multipliers around `key_m` on which the
    /// `⌈V⌉` of the entry at order position `pos` holds (shared-β mode).
    fn reindex(&mut self, pos: usize) {
        if self.shared_beta.is_none() {
            return;
        }
        let o = &self.order[pos];
        let (t, sa) = (o.remaining, o.sqrt_alpha);
        let valid = if t == 0.0 || sa == 0.0 {
            Interval::ALL // V = 0 whatever the multiplier
        } else {
            level_interval(
                self.key_m,
                usize::MAX,
                |m| ceil_usize((m * t) * sa),
                |k| k as f64 / t / sa,
            )
            .1
        };
        self.order[pos].valid = valid;
    }

    /// Recompute (or incrementally update) the allocation. Returns the
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
        let params = (capacity, cfg.fairness_eps.to_bits());
        let structural = self.structure_dirty || self.params != Some(params);

        // Exact regime input: ΣV summed over the current per-job sizes in
        // id order — the same adds, in the same order, over the same bits
        // as the eager path. After a shared-β move every size is first
        // recomputed from the cached `√α` (`virtual_size` is the
        // left-associated product `(m·T)·√α`, so `(m·T)·s` gives its exact
        // bits without the division and square root), and every key too;
        // a positive rescale keeps the mathematical order, so the order is
        // only checked for float-rounding flips and re-sorted if one
        // happened. Both passes read contiguous rows, not the slab.
        let mut total_virtual = 0.0f64;
        if self.m_dirty {
            let m = self.shared_m;
            self.m_dirty = false;
            self.key_m = m;
            self.epoch += 1;
            for r in &mut self.ids {
                r.v = (m * r.remaining) * r.sqrt_alpha;
                total_virtual += r.v;
            }
            #[cfg(debug_assertions)]
            for r in &self.ids {
                let e = &self.slab[r.slot as usize];
                let b = self
                    .shared_beta
                    .expect("a moved multiplier implies shared mode");
                debug_assert_eq!(
                    r.v.to_bits(),
                    crate::vsize::virtual_size(e.remaining, b, e.alpha).to_bits(),
                    "fast β rescale drifted from virtual_size"
                );
            }
            // Keys are unique (job-id tie-break), so a strictly ascending
            // refresh is already the sorted order; almost every refresh is.
            // The same pass collects the rows whose ⌈V⌉ the move may have
            // changed: every other row's interval proves its ⌈V⌉ unchanged.
            let mut sorted = true;
            let mut prev = 0u128;
            for (pos, o) in self.order.iter_mut().enumerate() {
                o.key = key(m, o.remaining, o.downstream, o.sqrt_alpha);
                let cur = rank(o.key, o.job);
                sorted &= pos == 0 || prev < cur;
                prev = cur;
                if !o.valid.contains(m) {
                    self.stale.push(pos);
                }
            }
            self.counters.index_rechecks += self.stale.len() as u64;
            #[cfg(debug_assertions)]
            for o in &self.order {
                let e = &self.slab[self.slot_of[o.job] as usize];
                let b = self.shared_beta.expect("shared mode");
                let v = |t| crate::vsize::virtual_size(t, b, e.alpha);
                debug_assert_eq!(
                    o.key.to_bits(),
                    crate::vsize::priority_key(v(e.remaining), v(e.downstream)).to_bits(),
                    "fast β rescale drifted from priority_key"
                );
            }
            if !sorted {
                // Positions do not survive the sort: queue the stale rows
                // by slot instead.
                for i in 0..self.stale.len() {
                    let s = self.slot_of[self.order[self.stale[i]].job];
                    self.mark_dirty(s);
                }
                self.stale.clear();
                self.order
                    .sort_by(|a, b| cmp_priority((a.key, a.job), (b.key, b.job)));
                self.fill_valid = false;
                self.request_resync();
            }
        } else {
            for r in &self.ids {
                total_virtual += r.v;
            }
        }
        let regime = if total_virtual > capacity as f64 {
            Regime::Constrained
        } else {
            Regime::Proportional
        };

        // Caps, wants and floors. A structural or parameter change moves
        // the weight total, hence every fair share: recompute all. Else
        // only the dirty entries (changed inputs) and the stale rows (a
        // ⌈V⌉ interval the multiplier left) can have moved; the cached
        // share floor is still valid, so each is integer work, and its
        // want/floor change is folded into the floor sum and the fill
        // prefix exactly.
        self.changed.clear();
        let mut stale = std::mem::take(&mut self.stale);
        let dirty = std::mem::take(&mut self.dirty);
        if structural {
            self.total_weight = 0.0;
            for r in &self.ids {
                self.total_weight += self.slab[r.slot as usize].weight.max(0.0);
            }
            let with_floors = cfg.fairness_eps < 1.0 && self.total_weight > 0.0;
            self.floor_sum = 0;
            // The share floor is a function of the weight alone here:
            // reuse it while the weight bits repeat (equal weights are
            // the common case) instead of dividing and flooring again.
            let mut last_share: Option<(u64, usize)> = None;
            for r in &self.ids {
                let e = &mut self.slab[r.slot as usize];
                e.cap = useful_cap(e.remaining);
                let vc = ceil_usize(r.v);
                e.want = vc.min(e.cap);
                e.share_floor = match last_share {
                    _ if !with_floors => 0,
                    Some((w, sf)) if w == e.weight.to_bits() => sf,
                    _ => {
                        let sf = fair_share_floor(e.weight, capacity, self.total_weight, cfg);
                        last_share = Some((e.weight.to_bits(), sf));
                        sf
                    }
                };
                e.floor = e.share_floor.min(vc).min(e.cap);
                self.floor_sum += e.floor;
                e.dirty = false;
            }
            for &pos in &stale {
                self.reindex(pos);
            }
            for &s in &dirty {
                let pos = self.slot_pos(s);
                self.reindex(pos);
            }
        } else {
            // Dirty rows carry `Interval::ALL`, so no row is in both lists.
            for &pos in &stale {
                let s = self.slot_of[self.order[pos].job];
                debug_assert!(!self.slab[s as usize].dirty);
                self.reevaluate(s, pos);
            }
            for &s in &dirty {
                let pos = self.slot_pos(s);
                self.reevaluate(s, pos);
            }
        }
        stale.clear();
        self.stale = stale;
        self.dirty = dirty;
        self.dirty.clear();

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
                .map(|r| self.slab[r.slot as usize].floor)
                .collect();
            floor_sum = apply_floor_trim(&mut floors, floor_sum, capacity);
            for (r, &f) in self.ids.iter().zip(&floors) {
                self.slab[r.slot as usize].floor = f;
            }
            self.fill_valid = false;
            self.structure_dirty = true; // force full floor rebuild next time
        }
        let spare = capacity - floor_sum;

        match regime {
            Regime::Constrained => {
                if !structural && self.fill_valid {
                    self.counters.suffix_fills += 1;
                    self.walk_fill(spare);
                } else {
                    self.full_fill(spare);
                }
            }
            Regime::Proportional => {
                let v: Vec<f64> = self.ids.iter().map(|r| r.v).collect();
                let headroom: Vec<usize> = self
                    .ids
                    .iter()
                    .map(|r| {
                        let e = &self.slab[r.slot as usize];
                        e.cap.saturating_sub(e.floor)
                    })
                    .collect();
                let extra = fill_proportional(&v, &headroom, spare, total_virtual);
                for (i, add) in extra.into_iter().enumerate() {
                    let r = self.ids[i];
                    let s = r.slot as usize;
                    self.grant(s, r.job, self.slab[s].floor + add);
                }
                // A proportional fill has no exhaustion point.
                self.fill_valid = false;
            }
        }

        self.structure_dirty &= floor_sum != self.floor_sum; // keep only the trim fallback
        self.params = Some(params);
        regime
    }

    /// Set slot `s`'s grant, reporting `job` to the change feed if it moved.
    fn grant(&mut self, s: usize, job: usize, g: usize) {
        if self.slab[s].granted != g {
            self.slab[s].granted = g;
            self.note_moved(job);
        }
    }

    /// Guideline 2 from position 0: each job in order gets its floor plus
    /// its increment while the spare lasts. Records the exhaustion point.
    fn full_fill(&mut self, spare: usize) {
        let n = self.order.len();
        let mut left = spare;
        let mut x = n;
        for pos in 0..n {
            let job = self.order[pos].job;
            let s = self.slot_of[job] as usize;
            let (floor, delta) = (self.slab[s].floor, self.slab[s].delta());
            if x == n && delta > left {
                x = pos;
                self.fill_used = spare - left;
            }
            let grant = delta.min(left);
            left -= grant;
            self.grant(s, job, floor + grant);
        }
        if x == n {
            self.fill_used = spare - left;
        }
        self.fill_x = x;
        self.fill_spare = spare;
        self.fill_valid = true;
    }

    /// Move the exhaustion point from its current place to where the
    /// changed increments and spare put it, then rewrite the grants that
    /// can have moved: positions between the old and new point, and the
    /// re-evaluated entries. Exact: with `P(p)` the sum of increments
    /// before `p` (non-decreasing), the sequential fill gives position `p`
    /// its full want iff `P(p + 1) ≤ spare`, so the point is the unique
    /// `x` with `P(x) ≤ spare < P(x + 1)` (or `n`).
    fn walk_fill(&mut self, spare: usize) {
        let n = self.order.len();
        let old_x = self.fill_x;
        let (mut x, mut used) = (self.fill_x, self.fill_used);
        let delta_at =
            |this: &Self, p: usize| this.slab[this.slot_of[this.order[p].job] as usize].delta();
        while used > spare {
            x -= 1;
            used -= delta_at(self, x);
        }
        while x < n {
            let d = delta_at(self, x);
            if used + d > spare {
                break;
            }
            used += d;
            x += 1;
        }
        self.fill_x = x;
        self.fill_used = used;
        self.fill_spare = spare;
        for pos in old_x.min(x)..(old_x.max(x) + 1).min(n) {
            self.regrant(pos);
        }
        let changed = std::mem::take(&mut self.changed);
        for &pos in &changed {
            self.regrant(pos);
        }
        self.changed = changed;
    }

    /// Grant of order position `pos` under the current exhaustion point.
    fn regrant(&mut self, pos: usize) {
        let job = self.order[pos].job;
        let s = self.slot_of[job] as usize;
        let e = &self.slab[s];
        let g = match pos.cmp(&self.fill_x) {
            std::cmp::Ordering::Less => e.want,
            std::cmp::Ordering::Equal => e.floor + (self.fill_spare - self.fill_used),
            std::cmp::Ordering::Greater => e.floor,
        };
        self.grant(s, job, g);
    }
}

/// An integer ordered exactly like [`cmp_priority`]: the key's
/// `total_cmp` order as an unsigned integer (the bit pattern with the
/// magnitude bits flipped for negatives and the sign bit flipped), then
/// the job id. One branch-free compare per row in the refresh pass.
fn rank(key: f64, job: usize) -> u128 {
    let b = key.to_bits();
    let ordered = if b >> 63 == 1 { !b } else { b | 1 << 63 };
    (u128::from(ordered) << 64) | job as u128
}

/// Guideline-2 key `max(V, V′)` of sizes `(m·T)·s` and `(m·T′)·s` — the
/// bits of `priority_key(virtual_size(T, β, α), virtual_size(T′, β, α))`
/// for `m = speculation_multiplier(β)`, `s = α.sqrt()`.
fn key(m: f64, remaining: f64, downstream: f64, sqrt_alpha: f64) -> f64 {
    ((m * remaining) * sqrt_alpha).max((m * downstream) * sqrt_alpha)
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
            AllocConfig { fairness_eps: 0.0 },
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
        let order: Vec<usize> = inc.order().map(|(_, j)| j).collect();
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
        let ids = |inc: &IncrementalAlloc| inc.order().map(|(_, j)| j).collect::<Vec<_>>();
        check_equiv(&mut inc, &model, 150, &cfg);
        assert_eq!(ids(&inc), [1, 0]);
        let b = 1.7819821366349666;
        inc.set_shared_beta(b);
        model.shared_beta = Some(b);
        check_equiv(&mut inc, &model, 150, &cfg);
        assert_eq!(ids(&inc), [0, 1], "the refresh kept a stale order");
    }

    #[test]
    fn rank_orders_like_the_comparator() {
        let mut rng = Rng(11);
        let mut keys = vec![
            0.0,
            -0.0,
            1.0,
            -1.0,
            f64::NAN,
            -f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            f64::MIN_POSITIVE,
            f64::from_bits(1),
            147.38754445643133,
            147.3875444564313,
        ];
        for _ in 0..200 {
            keys.push(f64::from_bits(rng.next()));
            keys.push(rng.f64() * 100.0);
        }
        for &a in &keys {
            for &b in &keys {
                for (ja, jb) in [(0, 1), (1, 0), (3, 3)] {
                    assert_eq!(
                        rank(a, ja).cmp(&rank(b, jb)),
                        cmp_priority((a, ja), (b, jb)),
                        "{a:e}/{ja} vs {b:e}/{jb}"
                    );
                }
            }
        }
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

    #[test]
    fn light_tail_beta_moves_leave_the_cache_clean() {
        // For β ≥ 2 the multiplier is 1: a β move changes no size.
        let cfg = AllocConfig::default();
        let mut inc = IncrementalAlloc::new(Some(2.5));
        let mut model = Model {
            demands: vec![],
            shared_beta: Some(2.5),
        };
        for (j, rem) in [(0, 7.0), (1, 30.0), (2, 12.0)] {
            inc.upsert(j, rem, 0.0, 1.0, 2.5, 1.0);
            model.demands.push(JobDemand::simple(j, rem, 2.5));
        }
        check_equiv(&mut inc, &model, 40, &cfg);
        let before: Vec<usize> = (0..3).map(|j| inc.granted(j)).collect();
        inc.set_shared_beta(3.0);
        assert!(
            !inc.is_dirty(),
            "a β move at multiplier 1 must not invalidate"
        );
        model.shared_beta = Some(3.0);
        check_equiv(&mut inc, &model, 40, &cfg);
        assert_eq!((0..3).map(|j| inc.granted(j)).collect::<Vec<_>>(), before);
        assert_eq!(inc.counters().index_rechecks, 0);
    }

    /// `β` values whose multiplier `2/β` is (within an ulp of) a dyadic
    /// rational, so that `V = m·T·√α` of the entries below lands exactly
    /// on an integer there — plus β = 2, where the multiplier clamps to 1.
    const SNAP_MULTS: [f64; 6] = [1.125, 1.25, 1.5, 1.75, 1.0, 1.0 + 1.0 / 64.0];

    /// Many small shared-β steps (relative 1e-6 to 1e-3, both directions,
    /// across β = 2), snaps onto β values where sizes sit exactly on an
    /// integer or an ulp either side, and occasional demand changes,
    /// arrivals and completions — checked against eager `allocate` after
    /// every step.
    fn beta_drift_run(seed: u64, steps: usize) {
        let mut rng = Rng(seed);
        let cfgs = [
            AllocConfig::default(),
            AllocConfig::no_fairness(),
            AllocConfig { fairness_eps: 0.0 },
        ];
        let cfg = &cfgs[(seed % 3) as usize];
        let mut beta = 1.6;
        let mut inc = IncrementalAlloc::new(Some(beta));
        let mut model = Model {
            demands: vec![],
            shared_beta: Some(beta),
        };
        let mut next_job = 0usize;
        let mut arrive = |rng: &mut Rng, inc: &mut IncrementalAlloc, model: &mut Model| {
            // T a multiple of 8 half the time and √α ∈ {1, 1.5, 2}: then
            // m·T·√α is an integer at every snap multiplier.
            let t = if rng.below(2) == 0 {
                8.0 * (1 + rng.below(6)) as f64
            } else {
                (1 + rng.below(40)) as f64
            };
            let alpha = [1.0, 2.25, 4.0, 1.0 + rng.f64() * 3.0][rng.below(4) as usize];
            let d = JobDemand {
                job: next_job,
                remaining_tasks: t,
                downstream_tasks: [0.0, 0.0, 8.0, (rng.below(60)) as f64][rng.below(4) as usize],
                alpha,
                beta: 9.9,
                weight: 1.0,
            };
            next_job += 1;
            inc.upsert(d.job, t, d.downstream_tasks, alpha, d.beta, d.weight);
            model.demands.push(d);
        };
        for _ in 0..48 {
            arrive(&mut rng, &mut inc, &mut model);
        }
        let sizes: f64 = model.demands.iter().map(|d| d.virtual_size()).sum();
        let capacity = (sizes * [0.5, 0.9, 1.1][(seed / 3 % 3) as usize]) as usize;
        check_equiv(&mut inc, &model, capacity, cfg);
        for _ in 0..steps {
            match rng.below(32) {
                0..=2 => {
                    // Snap onto (or one or two ulps beside) a β whose
                    // multiplier makes sizes integral.
                    let m = SNAP_MULTS[rng.below(SNAP_MULTS.len() as u64) as usize];
                    let b = 2.0 / m;
                    let ulps = rng.below(5) as i64 - 2;
                    beta = f64::from_bits((b.to_bits() as i64 + ulps) as u64);
                }
                3 => {
                    // A task finish: one job's remaining work drops.
                    let i = rng.below(model.demands.len() as u64) as usize;
                    let d = &mut model.demands[i];
                    d.remaining_tasks = (d.remaining_tasks - 1.0).max(0.0);
                    inc.upsert(
                        d.job,
                        d.remaining_tasks,
                        d.downstream_tasks,
                        d.alpha,
                        d.beta,
                        d.weight,
                    );
                }
                4 if model.demands.len() > 8 => {
                    let i = rng.below(model.demands.len() as u64) as usize;
                    inc.remove(model.demands.remove(i).job);
                }
                5 => arrive(&mut rng, &mut inc, &mut model),
                _ => {
                    // Log-uniform relative step in [1e-6, 1e-3], either
                    // way, kept inside [1.05, 2.6] (so it crosses β = 2).
                    let r = 10f64.powf(-6.0 + 3.0 * rng.f64());
                    let up = rng.below(2) == 0;
                    let next = if up {
                        beta * (1.0 + r)
                    } else {
                        beta * (1.0 - r)
                    };
                    beta = if (1.05..=2.6).contains(&next) {
                        next
                    } else {
                        beta / (1.0 + r)
                    };
                    if rng.below(64) == 0 {
                        beta = 2.0; // straddle the clamp often
                    }
                }
            }
            inc.set_shared_beta(beta);
            model.shared_beta = Some(beta);
            check_equiv(&mut inc, &model, capacity, cfg);
        }
        assert!(
            inc.counters().index_rechecks > 0,
            "the walk never moved a ⌈V⌉"
        );
    }

    #[test]
    fn beta_drift_matches_eager_at_every_step() {
        for seed in 0..9 {
            beta_drift_run(seed, 1_500);
        }
    }

    /// The 10⁵-step variant, run in release by CI.
    #[test]
    #[ignore]
    fn beta_drift_matches_eager_at_scale() {
        for seed in 0..9 {
            beta_drift_run(seed, 100_000);
        }
    }

    #[test]
    fn exhaustion_point_walk_matches_a_full_fill() {
        // Per-job β, no fairness: single-job updates move the exhaustion
        // point without a refill from position 0.
        let cfg = AllocConfig::no_fairness();
        let mut inc = IncrementalAlloc::new(None);
        let mut model = Model {
            demands: vec![],
            shared_beta: None,
        };
        for j in 0..64 {
            let d = JobDemand::simple(j, 10.0 + j as f64, 1.5);
            inc.upsert(j, d.remaining_tasks, 0.0, 1.0, 1.5, 1.0);
            model.demands.push(d);
        }
        check_equiv(&mut inc, &model, 400, &cfg);
        for step in 0..200 {
            let j = (step * 37) % 64;
            let d = &mut model.demands[j];
            d.remaining_tasks = if step % 5 == 0 {
                70.0
            } else {
                (d.remaining_tasks - 3.0).max(0.0)
            };
            inc.upsert(j, d.remaining_tasks, 0.0, 1.0, 1.5, 1.0);
            check_equiv(&mut inc, &model, 400, &cfg);
        }
        assert!(inc.counters().suffix_fills >= 200, "{:?}", inc.counters());
    }

    #[test]
    fn change_feed_replays_onto_a_mirror() {
        // A consumer that mirrors the order from the feed ends up with the
        // allocator's order and grants, whatever the mix of edits.
        let cfg = AllocConfig::default();
        let mut rng = Rng(7);
        let mut inc = IncrementalAlloc::new(Some(1.5));
        let (mut edits, mut moved) = (vec![], vec![]);
        let mut mirror: Vec<(usize, usize)> = vec![];
        let mut next = 0usize;
        for step in 0..3_000 {
            match rng.below(8) {
                0 => {
                    inc.upsert(next, (1 + rng.below(50)) as f64, 0.0, 1.0, 1.5, 1.0);
                    next += 1;
                }
                1 if inc.len() > 4 => {
                    let (_, j) = inc
                        .order()
                        .nth(rng.below(inc.len() as u64) as usize)
                        .unwrap();
                    inc.remove(j);
                }
                2 => inc.set_shared_beta(1.2 + rng.f64()),
                _ if !inc.is_empty() => {
                    let (_, j) = inc
                        .order()
                        .nth(rng.below(inc.len() as u64) as usize)
                        .unwrap();
                    inc.upsert(j, rng.below(50) as f64, 0.0, 1.0, 1.5, 1.0);
                }
                _ => {}
            }
            if inc.is_empty() || step % 3 != 0 {
                continue;
            }
            inc.allocate(300, &cfg);
            if inc.take_changes(&mut edits, &mut moved) {
                mirror = inc.order().map(|(_, j)| (j, inc.granted(j))).collect();
                continue;
            }
            for e in &edits {
                match *e {
                    OrderEdit::Insert { at, job } => mirror.insert(at, (job, 0)),
                    OrderEdit::Remove { at } => {
                        mirror.remove(at);
                    }
                    OrderEdit::Move { from, to } => {
                        let r = mirror.remove(from);
                        mirror.insert(to, r);
                    }
                }
            }
            for &j in &moved {
                if let Some(p) = inc.position(j) {
                    mirror[p].1 = inc.granted(j);
                }
            }
            for (p, &(j, g)) in mirror.iter().enumerate() {
                assert_eq!(inc.position(j), Some(p), "step {step}: order drifted");
                assert_eq!(g, inc.granted(j), "step {step}: grant of job {j} drifted");
            }
            assert_eq!(mirror.len(), inc.len());
        }
    }
}
