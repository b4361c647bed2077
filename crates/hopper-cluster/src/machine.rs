//! The physical cluster: machines with compute slots, and slot↔job
//! affinity ("warm" slots).
//!
//! Mirrors the paper's testbed shape (§7.1: 200 machines, multiple slots
//! each). Slots are fungible within a machine; machine identity matters
//! for data locality and for the decentralized per-worker queues.
//!
//! **Warm slots.** Handing a slot from one job to another costs a
//! scheduling round-trip plus container/executor setup (YARN heartbeat +
//! container launch; Spark executor hand-off). A slot freed by a job stays
//! *bound* (warm) to it: relaunching within the same job is instant, while
//! taking over a foreign slot pays [`ClusterConfig::handoff_ms`]. This is
//! the mechanism that makes slot *reservation* (Hopper's held slots,
//! Figure 2) physically meaningful: binding happens while the slot idles,
//! so the job's next speculative copy starts immediately.

use crate::ids::MachineId;
use crate::inline::InlineVec;

/// Static cluster and execution-model parameters.
#[derive(Debug, Clone)]
pub struct ClusterConfig {
    /// Number of machines.
    pub machines: usize,
    /// Compute slots per machine.
    pub slots_per_machine: usize,
    /// DFS replication factor: input tasks may run locally on this many
    /// machines (3 in HDFS and in the paper's setup).
    pub dfs_replicas: usize,
    /// Cost (ms) of handing a slot to a *different* job: scheduler
    /// round-trip plus container/executor start. Zero for long-lived
    /// shared executors (the Sparrow/decentralized setting).
    pub handoff_ms: u64,
}

impl Default for ClusterConfig {
    fn default() -> Self {
        ClusterConfig {
            machines: 200,
            slots_per_machine: 16,
            dfs_replicas: 3,
            handoff_ms: 1000,
        }
    }
}

impl ClusterConfig {
    /// Total slot count.
    pub fn total_slots(&self) -> usize {
        self.machines * self.slots_per_machine
    }
}

/// Per-slot network bandwidth in MB/s: 1 Gbps, as in the paper's cluster
/// (§7.1).
const BANDWIDTH_MBPS: f64 = 125.0;

/// Convert an intermediate data volume (MB) into transfer milliseconds at
/// per-slot bandwidth (drives α and shuffle durations).
pub(crate) fn transfer_ms(mb: f64) -> f64 {
    if mb <= 0.0 {
        0.0
    } else {
        mb / BANDWIDTH_MBPS * 1000.0
    }
}

/// Whether an occupied slot was already warm for the job.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SlotTemp {
    /// Slot was bound to the launching job: no handoff cost.
    Warm,
    /// Slot was unbound or bound to another job: pays the handoff cost.
    Cold,
}

/// Ascending set of machine ids as a fixed-width bitset. The slot-holding
/// bind/steal churn hits these sets on nearly every dispatch; a bitset
/// makes membership flips branchless O(1) and `first`/`next_after` a short
/// word scan (32 words for a 2 000-machine cluster), where the `BTreeSet`
/// this replaces paid a node allocation and a pointer chase per flip.
/// Iteration order is ascending machine id — identical to the tree's.
#[derive(Debug, Clone, Default)]
struct MachineSet {
    words: Vec<u64>,
}

impl MachineSet {
    fn empty(n: usize) -> Self {
        MachineSet {
            words: vec![0; n.div_ceil(64)],
        }
    }

    fn full(n: usize) -> Self {
        let mut s = Self::empty(n);
        for m in 0..n {
            s.words[m / 64] |= 1 << (m % 64);
        }
        s
    }

    #[inline]
    fn insert(&mut self, m: usize) {
        self.words[m / 64] |= 1 << (m % 64);
    }

    /// Remove `m`; a no-op beyond the set's words (a freed per-job warm
    /// set has none).
    #[inline]
    fn remove(&mut self, m: usize) {
        if let Some(w) = self.words.get_mut(m / 64) {
            *w &= !(1 << (m % 64));
        }
    }

    /// Smallest member, if any.
    fn first(&self) -> Option<usize> {
        self.scan(0, self.words.first().copied().unwrap_or(0))
    }

    /// Smallest member `>= m`, if any.
    fn next_from(&self, m: usize) -> Option<usize> {
        let wi = m / 64;
        let cur = *self.words.get(wi)? & (!0u64 << (m % 64));
        self.scan(wi, cur)
    }

    /// Word `i` of the set, with missing words read as zero.
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    fn scan(&self, mut wi: usize, mut cur: u64) -> Option<usize> {
        loop {
            if cur != 0 {
                return Some(wi * 64 + cur.trailing_zeros() as usize);
            }
            wi += 1;
            cur = *self.words.get(wi)?;
        }
    }

    /// Insert, growing the word array on demand. The per-job warm sets
    /// start as empty (zero-word) sets and only ever pay for the highest
    /// machine id they have seen, so a dense job-indexed table of them
    /// stays cheap for jobs that never hold warmth.
    #[inline]
    fn insert_grow(&mut self, m: usize) {
        let wi = m / 64;
        if self.words.len() <= wi {
            self.words.resize(wi + 1, 0);
        }
        self.words[wi] |= 1 << (m % 64);
    }

    /// Members in ascending order.
    fn iter(&self) -> MachineSetIter<'_> {
        MachineSetIter {
            words: &self.words,
            wi: 0,
            cur: self.words.first().copied().unwrap_or(0),
        }
    }
}

/// Set equality: the word array only ever grows, so two sets with the
/// same members may differ in trailing zero words.
impl PartialEq for MachineSet {
    fn eq(&self, other: &Self) -> bool {
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| self.word(i) == other.word(i))
    }
}

struct MachineSetIter<'a> {
    words: &'a [u64],
    wi: usize,
    cur: u64,
}

impl Iterator for MachineSetIter<'_> {
    type Item = usize;
    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(self.wi * 64 + b);
            }
            self.wi += 1;
            self.cur = *self.words.get(self.wi)?;
        }
    }
}

/// Distinct warm jobs a machine keeps inline before its counts spill to
/// the heap. A machine has at most one warm job per free slot, so on the
/// benchmark clusters (4 slots per machine) the counts never spill.
const WARM_INLINE: usize = 4;

/// One machine's warm-slot counts: `(job, count)` ascending by job id.
/// A machine has at most `slots_per_machine` warm entries (each counts a
/// *free* slot), so linear probes over a short inline vector beat the
/// `BTreeMap` this replaced, and keeping the entries inline makes a copy
/// of a machine's counts (the repaint's mixed runs) allocation-free. The
/// smallest-id reads (`first_job`, `first_other`) that the deterministic
/// victim picks rely on are the leading elements of the sorted entries.
#[derive(Debug, Clone, Default, PartialEq)]
struct WarmCounts {
    e: InlineVec<(usize, usize), WARM_INLINE>,
}

impl WarmCounts {
    fn is_empty(&self) -> bool {
        self.e.is_empty()
    }

    fn get(&self, job: usize) -> usize {
        self.e
            .iter()
            .find(|&&(j, _)| j == job)
            .map_or(0, |&(_, c)| c)
    }

    fn contains(&self, job: usize) -> bool {
        self.e.iter().any(|&(j, _)| j == job)
    }

    /// Number of distinct jobs with warm slots here.
    fn distinct(&self) -> usize {
        self.e.len()
    }

    /// Smallest job id with a warm slot here.
    fn first_job(&self) -> Option<usize> {
        self.e.first().map(|&(j, _)| j)
    }

    /// Smallest job id with a warm slot here, excluding `job`.
    fn first_other(&self, job: usize) -> Option<usize> {
        self.e.iter().map(|&(j, _)| j).find(|&j| j != job)
    }

    /// Add `k` warm slots for `job`; returns whether the job was absent
    /// before (0 → k transition).
    fn inc_by(&mut self, job: usize, k: usize) -> bool {
        let i = self.e.partition_point(|&(j, _)| j < job);
        if self.e.get(i).is_some_and(|&(j, _)| j == job) {
            self.e[i].1 += k;
            false
        } else {
            self.e.insert(i, (job, k));
            true
        }
    }

    /// Drop `k` warm slots of `job` (entry removed at zero); returns the
    /// new count. Panics if the job has fewer than `k`.
    fn dec_by(&mut self, job: usize, k: usize) -> usize {
        let i = self
            .e
            .iter()
            .position(|&(j, _)| j == job)
            .expect("warm slot to consume");
        self.e[i].1 -= k;
        let c = self.e[i].1;
        if c == 0 {
            self.e.remove(i);
        }
        c
    }

    /// Entries in ascending job order.
    fn iter(&self) -> impl Iterator<Item = (usize, usize)> + '_ {
        self.e.iter().copied()
    }
}

/// One painted run of [`Machines::bind_holds`]'s prefix repaint.
#[derive(Debug, Clone)]
enum Run {
    /// Machines `start..end`, every free slot warm for `owner`.
    Whole {
        start: usize,
        end: usize,
        owner: usize,
    },
    /// One machine whose free slots are split between jobs.
    Mixed { m: usize, warm: WarmCounts },
}

/// Deterministic work counters of the slot pre-warm pass
/// ([`Machines::bind_holds`]): exact per seed, independent of wall time.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PrewarmCounters {
    /// Pre-warm passes (one per Hopper launch loop).
    pub passes: u64,
    /// Rows whose hold exceeded the job's warm total when their turn came.
    pub deficit_rows: u64,
    /// Machines the passes walked one at a time: those `bind_idle`
    /// drained of unbound slots or stole from, and those a repaint painted
    /// for the first time. A repaint's steps on machines it already
    /// painted (a mixed machine, or the machine where a row splits a whole
    /// run) are not counted again: a row stops once and leaves at most one
    /// mixed machine, so they number at most twice `deficit_rows`.
    pub machines_visited: u64,
}

impl std::ops::AddAssign for PrewarmCounters {
    fn add_assign(&mut self, o: Self) {
        self.passes += o.passes;
        self.deficit_rows += o.deficit_rows;
        self.machines_visited += o.machines_visited;
    }
}

/// Dynamic slot occupancy across machines, with per-job slot affinity.
///
/// Beyond the per-machine arrays, the struct maintains deterministic
/// indices — ascending-ordered sets of machines with free / unbound /
/// bound slots, plus per-job warm-machine sets and warm totals — so that
/// the hot queries (`machines_with_free`, `preferred_free_machine`,
/// `warm_total`, `bind_idle`) cost O(1)-ish instead of O(M) /
/// O(M·jobs) scans. Every index iterates in ascending machine id, the
/// exact order the replaced scans used, so placement tie-breaking is
/// bit-identical (see DESIGN.md, "Index invariants").
#[derive(Debug, Clone)]
pub struct Machines {
    /// Per machine: free slots bound (warm) per job, ascending job id (the
    /// deterministic smallest-id victim pick is a leading read).
    bound: Vec<WarmCounts>,
    /// Per machine: free slots bound to no job.
    unbound: Vec<usize>,
    /// Per machine: total free (cache of unbound + Σ bound).
    free: Vec<usize>,
    slots_per_machine: usize,
    total_free: usize,
    /// Machines with at least one free slot, ascending.
    free_set: MachineSet,
    /// Machines with at least one unbound free slot, ascending.
    unbound_set: MachineSet,
    /// Machines with at least one warm (bound) slot, ascending.
    bound_set: MachineSet,
    /// Machines whose warm slots span ≥ 2 distinct jobs, ascending. Lets
    /// the steal walk of [`Machines::bind_idle`] compute "machines with
    /// warmth foreign to job j" with pure word ops:
    /// `(bound & !warm_machines[j]) | (multi & warm_machines[j])` — a
    /// machine has foreign warmth iff someone is warm there and j is not,
    /// or j is warm there alongside at least one other job.
    multi_set: MachineSet,
    /// job → machines where the job has ≥ 1 warm slot, as an ascending
    /// bitset (dense by job id, grown on demand; empty set = no warmth).
    /// A bitset instead of a sorted vector because the steal churn of
    /// `bind_idle` flips one machine in and one out per transfer — O(1)
    /// word ops, where the vector paid a binary search plus a memmove.
    /// A retired job's set is freed (zero words) as soon as it holds no
    /// warm slot, so the sets' storage follows the live and still-warm
    /// jobs, not every job ever seen; a live job keeps its words while
    /// its warmth comes and goes.
    warm_machines: Vec<MachineSet>,
    /// job → total free slots bound to it (dense by job id, grown on
    /// demand; 0 = no warmth).
    warm_totals: Vec<usize>,
    /// job → whether the driver retired it ([`Machines::retire_job`]).
    retired: Vec<bool>,
    /// Total bound (warm) slots across the cluster (Σ warm_totals).
    total_bound: usize,
    /// Machines currently failed (dynamics plane). A down machine has no
    /// free, unbound, or bound slots, so every index skips it naturally;
    /// the flag guards against accidental occupy/release while down.
    down: Vec<bool>,
    /// [`Machines::bind_holds`] scratch, empty between calls: the run
    /// stack (top = lowest machines) and prefix sums of `free` over the
    /// painted machines.
    runs: Vec<Run>,
    prefix: Vec<usize>,
}

/// State equality: two values are equal when they describe the same
/// cluster (per-machine counts and every index, by membership), whatever
/// the capacity of their grown-on-demand job tables or scratch.
impl PartialEq for Machines {
    fn eq(&self, o: &Self) -> bool {
        let jobs = self.warm_totals.len().max(o.warm_totals.len());
        let empty = MachineSet::default();
        self.bound == o.bound
            && self.unbound == o.unbound
            && self.free == o.free
            && self.slots_per_machine == o.slots_per_machine
            && self.total_free == o.total_free
            && self.free_set == o.free_set
            && self.unbound_set == o.unbound_set
            && self.bound_set == o.bound_set
            && self.multi_set == o.multi_set
            && self.total_bound == o.total_bound
            && self.down == o.down
            && (0..jobs).all(|j| {
                self.warm_totals.get(j).unwrap_or(&0) == o.warm_totals.get(j).unwrap_or(&0)
                    && self.warm_machines.get(j).unwrap_or(&empty)
                        == o.warm_machines.get(j).unwrap_or(&empty)
                    && self.retired.get(j).unwrap_or(&false) == o.retired.get(j).unwrap_or(&false)
            })
    }
}

impl Machines {
    /// All slots free and unbound.
    pub fn new(cfg: &ClusterConfig) -> Self {
        let all = if cfg.slots_per_machine > 0 {
            MachineSet::full(cfg.machines)
        } else {
            MachineSet::empty(cfg.machines)
        };
        Machines {
            bound: vec![WarmCounts::default(); cfg.machines],
            unbound: vec![cfg.slots_per_machine; cfg.machines],
            free: vec![cfg.slots_per_machine; cfg.machines],
            slots_per_machine: cfg.slots_per_machine,
            total_free: cfg.total_slots(),
            free_set: all.clone(),
            unbound_set: all,
            bound_set: MachineSet::empty(cfg.machines),
            multi_set: MachineSet::empty(cfg.machines),
            warm_machines: Vec::new(),
            warm_totals: Vec::new(),
            retired: Vec::new(),
            total_bound: 0,
            down: vec![false; cfg.machines],
            runs: Vec::new(),
            prefix: Vec::new(),
        }
    }

    /// Grow the dense per-job indices to cover `job`.
    #[inline]
    fn ensure_job(&mut self, job: usize) {
        if self.warm_totals.len() <= job {
            self.warm_totals.resize(job + 1, 0);
            self.warm_machines.resize(job + 1, MachineSet::default());
            self.retired.resize(job + 1, false);
        }
    }

    /// The driver is done with `job` (it completed): from now on its
    /// warm-set storage is freed whenever it holds no warm slot. Its
    /// remaining warm slots stay bound until other jobs take them.
    pub fn retire_job(&mut self, job: usize) {
        self.ensure_job(job);
        self.retired[job] = true;
        self.release_if_cold(job);
        #[cfg(debug_assertions)]
        self.debug_check_index();
    }

    /// Free `job`'s warm-set storage if it is retired and holds no warm
    /// slot. Called wherever a job's warm total can reach zero.
    #[inline]
    fn release_if_cold(&mut self, job: usize) {
        if self.warm_totals[job] == 0 && self.retired[job] {
            self.warm_machines[job] = MachineSet::default();
        }
    }

    /// Take machine `m` out of the cluster (machine failure). Its free
    /// slots leave every pool and its warm bindings are forgotten; slots
    /// occupied by (now killed) copies are simply gone — the machine
    /// rejoins fully reset via [`Machines::set_up`]. Panics on double
    /// failure.
    pub fn set_down(&mut self, m: MachineId) {
        let m = m.0;
        assert!(!self.down[m], "machine {m} failed while already down");
        self.down[m] = true;
        self.total_free -= self.free[m];
        self.free[m] = 0;
        self.free_set.remove(m);
        self.unbound[m] = 0;
        self.unbound_set.remove(m);
        for (job, c) in std::mem::take(&mut self.bound[m]).iter() {
            self.total_bound -= c;
            self.warm_totals[job] -= c;
            self.warm_machines[job].remove(m);
            self.release_if_cold(job);
        }
        self.bound_set.remove(m);
        self.multi_set.remove(m);
        #[cfg(debug_assertions)]
        self.debug_check_index();
    }

    /// Return a failed machine to service with every slot free and
    /// unbound (the reboot lost all executor warmth). Panics if `m` is
    /// not down.
    pub fn set_up(&mut self, m: MachineId) {
        let m = m.0;
        assert!(self.down[m], "machine {m} recovered while up");
        self.down[m] = false;
        self.free[m] = self.slots_per_machine;
        self.unbound[m] = self.slots_per_machine;
        self.total_free += self.slots_per_machine;
        if self.slots_per_machine > 0 {
            self.free_set.insert(m);
            self.unbound_set.insert(m);
        }
        #[cfg(debug_assertions)]
        self.debug_check_index();
    }

    /// One free slot disappears on `m`.
    fn free_dec(&mut self, m: usize) {
        self.free[m] -= 1;
        self.total_free -= 1;
        if self.free[m] == 0 {
            self.free_set.remove(m);
        }
    }

    /// One free slot appears on `m`.
    fn free_inc(&mut self, m: usize) {
        if self.free[m] == 0 {
            self.free_set.insert(m);
        }
        self.free[m] += 1;
        self.total_free += 1;
    }

    /// One unbound free slot disappears on `m`.
    fn unbound_dec(&mut self, m: usize) {
        self.unbound[m] -= 1;
        if self.unbound[m] == 0 {
            self.unbound_set.remove(m);
        }
    }

    /// Bind one free slot on `m` to `job` (warm count +1).
    fn bound_inc(&mut self, m: usize, job: usize) {
        self.bound_inc_by(m, job, 1);
    }

    /// Bind `k` free slots on `m` to `job` in one index update — the
    /// bind/steal loops transfer whole per-machine holdings at once, so
    /// batching turns per-slot index churn into per-(machine, job) churn.
    fn bound_inc_by(&mut self, m: usize, job: usize, k: usize) {
        if k == 0 {
            return;
        }
        self.ensure_job(job);
        if self.bound[m].inc_by(job, k) {
            self.warm_machines[job].insert_grow(m);
            self.bound_set.insert(m);
            self.refresh_multi(m);
        }
        self.warm_totals[job] += k;
        self.total_bound += k;
    }

    /// Keep `multi_set` consistent with the distinct-job count of `m`'s
    /// warm map after a membership change.
    #[inline]
    fn refresh_multi(&mut self, m: usize) {
        if self.bound[m].distinct() >= 2 {
            self.multi_set.insert(m);
        } else {
            self.multi_set.remove(m);
        }
    }

    /// Unbind one of `job`'s warm slots on `m` (warm count −1).
    fn bound_dec(&mut self, m: usize, job: usize) {
        self.bound_dec_by(m, job, 1);
    }

    /// Unbind `k` of `job`'s warm slots on `m` in one index update.
    fn bound_dec_by(&mut self, m: usize, job: usize, k: usize) {
        if k == 0 {
            return;
        }
        if self.bound[m].dec_by(job, k) == 0 {
            self.warm_machines[job].remove(m);
            if self.bound[m].is_empty() {
                self.bound_set.remove(m);
            }
            self.refresh_multi(m);
        }
        self.warm_totals[job] -= k;
        self.total_bound -= k;
        self.release_if_cold(job);
    }

    /// Move `k` warm slots on `m` from job `from` to job `to` in one index
    /// update — the steal path of [`Machines::bind_idle`]. Equivalent to
    /// `bound_dec_by(m, from, k); bound_inc_by(m, to, k)` but skips the
    /// updates that cancel: `total_bound` is unchanged and `m` stays in
    /// `bound_set` throughout (it holds `to`'s slots the moment it loses
    /// `from`'s).
    fn bound_transfer(&mut self, m: usize, from: usize, to: usize, k: usize) {
        self.ensure_job(to);
        let mut changed = self.bound[m].dec_by(from, k) == 0;
        if changed {
            self.warm_machines[from].remove(m);
        }
        if self.bound[m].inc_by(to, k) {
            self.warm_machines[to].insert_grow(m);
            changed = true;
        }
        if changed {
            self.refresh_multi(m);
        }
        self.warm_totals[from] -= k;
        self.warm_totals[to] += k;
        self.release_if_cold(from);
    }

    /// Debug-build oracle: every index must match the per-machine arrays.
    /// Sampled (every 64th mutation) — the reconciliation is O(M) and
    /// would otherwise dominate dev-profile test time on large clusters.
    #[cfg(debug_assertions)]
    fn debug_check_index(&self) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICK: AtomicU64 = AtomicU64::new(0);
        if !TICK.fetch_add(1, Ordering::Relaxed).is_multiple_of(64) {
            return;
        }
        let free_set: Vec<usize> = (0..self.free.len()).filter(|&m| self.free[m] > 0).collect();
        assert_eq!(
            free_set,
            self.free_set.iter().collect::<Vec<_>>(),
            "free_set drifted"
        );
        let unbound_set: Vec<usize> = (0..self.unbound.len())
            .filter(|&m| self.unbound[m] > 0)
            .collect();
        assert_eq!(
            unbound_set,
            self.unbound_set.iter().collect::<Vec<_>>(),
            "unbound_set drifted"
        );
        let bound_set: Vec<usize> = (0..self.bound.len())
            .filter(|&m| !self.bound[m].is_empty())
            .collect();
        assert_eq!(
            bound_set,
            self.bound_set.iter().collect::<Vec<_>>(),
            "bound_set drifted"
        );
        let multi_set: Vec<usize> = (0..self.bound.len())
            .filter(|&m| self.bound[m].distinct() >= 2)
            .collect();
        assert_eq!(
            multi_set,
            self.multi_set.iter().collect::<Vec<_>>(),
            "multi_set drifted"
        );
        let jobs = self.warm_totals.len();
        let mut warm_machines: Vec<Vec<usize>> = vec![Vec::new(); jobs];
        let mut warm_totals: Vec<usize> = vec![0; jobs];
        for (m, b) in self.bound.iter().enumerate() {
            for (job, c) in b.iter() {
                assert!(c > 0, "zero-count bound entry survived");
                assert!(job < jobs, "bound entry beyond the dense job index");
                warm_machines[job].push(m);
                warm_totals[job] += c;
            }
        }
        for wm in &mut warm_machines {
            wm.sort_unstable();
        }
        let indexed: Vec<Vec<usize>> = self
            .warm_machines
            .iter()
            .map(|s| s.iter().collect())
            .collect();
        assert_eq!(warm_machines, indexed, "warm_machines drifted");
        assert_eq!(
            warm_totals.iter().sum::<usize>(),
            self.total_bound,
            "total_bound drifted"
        );
        assert_eq!(warm_totals, self.warm_totals, "warm_totals drifted");
        let sets = self.warm_machines.iter().zip(&self.retired);
        for (j, (set, &retired)) in sets.enumerate() {
            assert!(
                !(retired && warm_totals[j] == 0 && set.words.capacity() > 0),
                "retired job {j} holds no warm slot but still owns warm-set storage"
            );
        }
        for m in 0..self.free.len() {
            let bound_sum: usize = self.bound[m].iter().map(|(_, c)| c).sum();
            assert_eq!(
                self.free[m],
                self.unbound[m] + bound_sum,
                "free/unbound/bound accounting broke on machine {m}"
            );
        }
    }

    /// Number of machines.
    pub fn len(&self) -> usize {
        self.free.len()
    }

    /// True when the cluster has no machines (degenerate configs in tests).
    pub fn is_empty(&self) -> bool {
        self.free.is_empty()
    }

    /// Total free slots across the cluster.
    pub fn total_free(&self) -> usize {
        self.total_free
    }

    /// Free slots on one machine.
    pub fn free_on(&self, m: MachineId) -> usize {
        self.free[m.0]
    }

    /// Free slots on `m` already bound to `job` (the debug oracle of
    /// [`Machines::preferred_free_machine`]).
    #[cfg(any(test, debug_assertions))]
    fn warm_on(&self, m: MachineId, job: usize) -> usize {
        self.bound[m.0].get(job)
    }

    /// Total free slots bound to `job` across the cluster. O(1).
    pub fn warm_total(&self, job: usize) -> usize {
        let total = self.warm_totals.get(job).copied().unwrap_or(0);
        debug_assert_eq!(total, self.bound.iter().map(|b| b.get(job)).sum::<usize>());
        total
    }

    /// Occupy one slot on `m` for `job`, consuming a warm slot when
    /// available. Returns whether the slot was warm. Panics if `m` has no
    /// free slot (callers check first).
    pub fn occupy_for(&mut self, m: MachineId, job: usize) -> SlotTemp {
        assert!(!self.down[m.0], "occupy on down machine {}", m.0);
        assert!(self.free[m.0] > 0, "occupy on full machine {}", m.0);
        self.free_dec(m.0);
        let temp = if self.bound[m.0].contains(job) {
            self.bound_dec(m.0, job);
            SlotTemp::Warm
        } else if self.unbound[m.0] > 0 {
            self.unbound_dec(m.0);
            SlotTemp::Cold
        } else {
            // Steal a slot bound to some other job (deterministic:
            // smallest id = the sorted vector's first entry).
            let victim = self.bound[m.0]
                .first_job()
                .expect("free slot must exist somewhere");
            self.bound_dec(m.0, victim);
            SlotTemp::Cold
        };
        #[cfg(debug_assertions)]
        self.debug_check_index();
        temp
    }

    /// Release one slot on `m`, leaving it warm (bound) for `job`.
    /// Panics on double release.
    pub fn release_to(&mut self, m: MachineId, job: usize) {
        assert!(!self.down[m.0], "release to down machine {}", m.0);
        assert!(
            self.free[m.0] < self.slots_per_machine,
            "double release on machine {}",
            m.0
        );
        self.free_inc(m.0);
        self.bound_inc(m.0, job);
        #[cfg(debug_assertions)]
        self.debug_check_index();
    }

    /// Re-bind up to `want` currently-free slots to `job` (Hopper's slot
    /// holding: prepare containers while the slot idles). Unbound slots are
    /// consumed first, then slots warm for other jobs. Returns how many
    /// were bound (beyond those already warm for `job`).
    ///
    /// Both passes walk machines in ascending id, exactly like the O(M)
    /// scans they replace — but only over machines that actually hold an
    /// unbound (pass 1) or foreign-warm (pass 2) slot.
    pub fn bind_idle(&mut self, job: usize, want: usize) -> usize {
        self.bind_idle_visits(job, want).0
    }

    /// [`Machines::bind_idle`], also returning how many machines it
    /// visited (drained of unbound slots or stolen from).
    fn bind_idle_visits(&mut self, job: usize, want: usize) -> (usize, u64) {
        let mut bound = 0;
        let mut visited = 0;
        // Pass 1: unbound slots, smallest machine first. Draining the set
        // head either consumes the machine's last unbound slot (removing
        // it from the set) or satisfies `want`, so this makes progress
        // every step without materializing the whole set.
        while bound < want {
            let Some(m) = self.unbound_set.first() else {
                break;
            };
            visited += 1;
            let take = (want - bound).min(self.unbound[m]);
            self.unbound[m] -= take;
            if self.unbound[m] == 0 {
                self.unbound_set.remove(m);
            }
            self.bound_inc_by(m, job, take);
            bound += take;
        }
        // Pass 2: steal from other jobs' warm slots (ascending machine,
        // smallest victim job id first on each machine). `foreign` bounds
        // the walk: once every remaining warm slot belongs to `job`
        // itself — the common steady state after a high-priority job has
        // absorbed the cluster's idle warmth — there is nothing to steal.
        // Candidate machines are found word-parallel: a machine has
        // warmth foreign to `job` iff it is bound and `job` is not warm
        // there, or `job` is warm there alongside ≥ 2 distinct jobs
        // (`multi_set`) — so whole words of `job`'s own warm machines are
        // skipped without per-machine probes. Draining a machine clears
        // its candidate bit (all its foreign warmth now belongs to
        // `job`), so re-deriving the word after each machine terminates.
        let mut foreign = self.total_bound - self.warm_totals.get(job).copied().unwrap_or(0);
        let nwords = self.bound_set.words.len();
        'words: for wi in 0..nwords {
            loop {
                if bound >= want || foreign == 0 {
                    break 'words;
                }
                let mine = self
                    .warm_machines
                    .get(job)
                    .and_then(|s| s.words.get(wi))
                    .copied()
                    .unwrap_or(0);
                let cand = (self.bound_set.words[wi] & !mine) | (self.multi_set.words[wi] & mine);
                if cand == 0 {
                    continue 'words;
                }
                let m = wi * 64 + cand.trailing_zeros() as usize;
                visited += 1;
                while bound < want {
                    let Some(v) = self.bound[m].first_other(job) else {
                        break;
                    };
                    let take = (want - bound).min(self.bound[m].get(v));
                    self.bound_transfer(m, v, job, take);
                    bound += take;
                    foreign -= take;
                }
            }
        }
        #[cfg(debug_assertions)]
        self.debug_check_index();
        (bound, visited)
    }

    /// Pre-warm one pass of holds (Hopper's slot holding, Figure 2): for
    /// each `(job, hold)` row in order, bind idle slots to `job` until it
    /// has `hold` warm ones. Leaves exactly the state of the per-row loop
    /// `for (j, hold) in rows { if hold > warm_total(j) {
    /// bind_idle(j, hold - warm_total(j)) } }`, at a cost that follows
    /// the machines the pass changes rather than the machines it walks.
    ///
    /// While unbound slots remain, each row is that `bind_idle` call. Once
    /// they are gone they cannot come back within the pass, and every
    /// row's steal walk drains the foreign-warm machines in ascending id
    /// until its deficit is met: afterwards every free machine below its
    /// stop machine is wholly the row's, and at most the stop machine is
    /// split. The rest of the pass is a sequence of *prefix repaints*,
    /// replayed over a stack of painted runs: a row takes a whole run in
    /// O(1) through prefix sums of `free`, applies `bind_idle`'s
    /// smallest-foreign-id rule only on the machine where it stops, and
    /// reads machines one at a time only past the painted frontier.
    /// Returns the pass's work counters.
    pub fn bind_holds(&mut self, rows: &[(usize, usize)]) -> PrewarmCounters {
        let mut work = PrewarmCounters {
            passes: 1,
            ..Default::default()
        };
        let mut rest = rows;
        while let Some((&(job, hold), tail)) = rest.split_first() {
            if self.unbound_set.first().is_none() {
                break;
            }
            rest = tail;
            let have = self.warm_total(job);
            if hold > have {
                work.deficit_rows += 1;
                work.machines_visited += self.bind_idle_visits(job, hold - have).1;
            }
        }
        if !rest.is_empty() {
            self.repaint_holds(rest, &mut work);
        }
        work
    }

    /// The steal-only rest of [`Machines::bind_holds`], with no unbound
    /// slot left. The run stack covers the painted machines
    /// `0..frontier`, lowest machines on top. `warm_totals` stays live
    /// (each row's deficit reads it); the per-machine counts and the
    /// other indices are written back at the end, for the machines whose
    /// composition changed.
    fn repaint_holds(&mut self, rows: &[(usize, usize)], work: &mut PrewarmCounters) {
        debug_assert!(self.unbound_set.first().is_none());
        let mut runs = std::mem::take(&mut self.runs);
        let mut pre = std::mem::take(&mut self.prefix);
        pre.push(0); // pre[m] = Σ free[..m] for m ≤ frontier = pre.len() − 1
        for &(job, hold) in rows {
            let have = self.warm_totals.get(job).copied().unwrap_or(0);
            if hold <= have {
                continue;
            }
            work.deficit_rows += 1;
            let mut want = hold - have;
            self.ensure_job(job);
            // The row walks up from machine 0 (the stack top) and makes
            // `0..end` wholly its own.
            let mut end = 0;
            while want > 0 && self.warm_totals[job] < self.total_bound {
                let (m, split) = match runs.pop() {
                    Some(Run::Whole {
                        start,
                        end: e,
                        owner,
                    }) => {
                        let slots = pre[e] - pre[start];
                        if owner == job || slots <= want {
                            if owner != job {
                                self.warm_totals[owner] -= slots;
                                self.warm_totals[job] += slots;
                                want -= slots;
                            }
                            end = e;
                            continue;
                        }
                        // The row stops inside the run, on the first
                        // machine whose running slot sum covers `want`.
                        let m =
                            start + pre[start + 1..=e].partition_point(|&p| p - pre[start] < want);
                        let taken = want - (pre[m] - pre[start]);
                        self.warm_totals[owner] -= want;
                        self.warm_totals[job] += want;
                        want = 0;
                        if m + 1 < e {
                            runs.push(Run::Whole {
                                start: m + 1,
                                end: e,
                                owner,
                            });
                        }
                        let split = (taken < self.free[m]).then(|| {
                            let mut warm = WarmCounts::default();
                            warm.inc_by(owner, self.free[m] - taken);
                            warm.inc_by(job, taken);
                            warm
                        });
                        (m, split)
                    }
                    Some(Run::Mixed { m, warm }) => (
                        m,
                        steal_on(&mut self.warm_totals, &warm, self.free[m], job, &mut want),
                    ),
                    None => {
                        // Past the frontier: paint the next fresh machine.
                        let f = pre.len() - 1;
                        let Some(m) = self.free_set.next_from(f) else {
                            break;
                        };
                        work.machines_visited += 1;
                        pre.resize(m + 1, pre[f]);
                        pre.push(pre[m] + self.free[m]);
                        let warm = &self.bound[m];
                        (
                            m,
                            steal_on(&mut self.warm_totals, warm, self.free[m], job, &mut want),
                        )
                    }
                };
                end = match split {
                    None => m + 1,
                    Some(warm) => {
                        runs.push(Run::Mixed { m, warm });
                        m
                    }
                };
            }
            if end > 0 {
                runs.push(Run::Whole {
                    start: 0,
                    end,
                    owner: job,
                });
            }
        }
        for run in runs.drain(..) {
            match run {
                Run::Whole { start, end, owner } => {
                    let mut m = start;
                    while let Some(x) = self.free_set.next_from(m).filter(|&x| x < end) {
                        self.rewrite_warmth(x, &[(owner, self.free[x])]);
                        m = x + 1;
                    }
                }
                Run::Mixed { m, warm } => self.rewrite_warmth(m, &warm.e),
            }
        }
        pre.clear();
        self.runs = runs;
        self.prefix = pre;
        #[cfg(debug_assertions)]
        self.debug_check_index();
    }

    /// Set machine `m`'s warm counts to `new` (same free total) and bring
    /// `warm_machines` and `multi_set` along; `warm_totals` is the
    /// caller's to keep, and already final, so a retired job that lost
    /// its last warm slot here has its set freed (its bits on machines
    /// rewritten later are gone with it). A no-op when the composition
    /// did not change.
    fn rewrite_warmth(&mut self, m: usize, new: &[(usize, usize)]) {
        if *self.bound[m].e == *new {
            return;
        }
        let old = std::mem::take(&mut self.bound[m]);
        for (j, _) in old.iter() {
            if !new.iter().any(|&(k, _)| k == j) {
                self.warm_machines[j].remove(m);
                self.release_if_cold(j);
            }
        }
        for &(j, _) in new {
            if !old.contains(j) {
                self.warm_machines[j].insert_grow(m);
            }
        }
        let mut e = old.e;
        e.clear();
        for &x in new {
            e.push(x);
        }
        self.bound[m].e = e;
        self.refresh_multi(m);
    }

    /// Iterate machines that currently have at least one free slot, in
    /// ascending id order. O(free machines), not O(M).
    pub fn machines_with_free(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.free_set.iter().map(MachineId)
    }

    /// A free machine for `job`, preferring one where the job has a warm
    /// slot, skipping `exclude`; falls back to the first free machine
    /// (even an excluded one) when every candidate is excluded — the
    /// historical contract of the O(M) `max_by_key` scan this replaces.
    /// `exclude` is at most a couple of busy machines, so the membership
    /// probe is a small-vec early-out, not the old full rescan.
    pub fn preferred_free_machine(&self, job: usize, exclude: &[MachineId]) -> Option<MachineId> {
        let picked = self.pick_preferred(job, exclude);
        #[cfg(debug_assertions)]
        {
            let scanned = self
                .machines_with_free()
                .filter(|m| !exclude.contains(m))
                .max_by_key(|&m| (self.warm_on(m, job).min(1), usize::MAX - m.0))
                .or_else(|| self.machines_with_free().next());
            assert_eq!(picked, scanned, "preferred_free_machine drifted");
        }
        picked
    }

    fn pick_preferred(&self, job: usize, exclude: &[MachineId]) -> Option<MachineId> {
        // Warm machines hold ≥ 1 free slot by construction (`bound` only
        // counts free slots), so the first non-excluded one wins.
        if let Some(warm) = self.warm_machines.get(job) {
            for m in warm.iter() {
                if !exclude.contains(&MachineId(m)) {
                    debug_assert!(self.free[m] > 0, "warm machine without a free slot");
                    return Some(MachineId(m));
                }
            }
        }
        self.free_set
            .iter()
            .find(|&m| !exclude.contains(&MachineId(m)))
            .or(self.free_set.first())
            .map(MachineId)
    }
}

/// `bind_idle`'s steal on one machine with `free` slots, replayed on its
/// current counts `warm`: take up to `*want` slots foreign to `job`,
/// smallest victim id first, moving them in `totals`. Returns the new
/// counts if the machine stays split, `None` once it is wholly `job`'s.
fn steal_on(
    totals: &mut [usize],
    warm: &WarmCounts,
    free: usize,
    job: usize,
    want: &mut usize,
) -> Option<WarmCounts> {
    let foreign = free - warm.get(job);
    if foreign <= *want {
        for &(v, c) in &warm.e {
            if v != job {
                totals[v] -= c;
            }
        }
        totals[job] += foreign;
        *want -= foreign;
        return None;
    }
    let mut split = warm.clone();
    while *want > 0 {
        let v = split
            .first_other(job)
            .expect("a split machine keeps foreign slots");
        let take = (*want).min(split.get(v));
        split.dec_by(v, take);
        split.inc_by(job, take);
        totals[v] -= take;
        totals[job] += take;
        *want -= take;
    }
    Some(split)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};
    use std::collections::HashSet;

    fn small() -> (ClusterConfig, Machines) {
        let cfg = ClusterConfig {
            machines: 3,
            slots_per_machine: 2,
            ..Default::default()
        };
        let m = Machines::new(&cfg);
        (cfg, m)
    }

    #[test]
    fn totals() {
        let (cfg, m) = small();
        assert_eq!(cfg.total_slots(), 6);
        assert_eq!(m.total_free(), 6);
        assert_eq!(m.len(), 3);
    }

    #[test]
    fn occupy_release_roundtrip_with_warmth() {
        let (_, mut m) = small();
        // Fresh slots are cold.
        assert_eq!(m.occupy_for(MachineId(1), 7), SlotTemp::Cold);
        assert_eq!(m.occupy_for(MachineId(1), 7), SlotTemp::Cold);
        assert_eq!(m.total_free(), 4);
        assert_eq!(m.free_on(MachineId(1)), 0);
        // Released slots are warm for the releasing job.
        m.release_to(MachineId(1), 7);
        assert_eq!(m.warm_on(MachineId(1), 7), 1);
        assert_eq!(m.occupy_for(MachineId(1), 7), SlotTemp::Warm);
        // ... but cold for another job.
        m.release_to(MachineId(1), 7);
        assert_eq!(m.occupy_for(MachineId(1), 9), SlotTemp::Cold);
        assert_eq!(m.warm_on(MachineId(1), 7), 0, "stolen by job 9");
    }

    #[test]
    #[should_panic(expected = "double release")]
    fn double_release_panics() {
        let (_, mut m) = small();
        m.release_to(MachineId(0), 0);
        m.release_to(MachineId(0), 0);
        m.release_to(MachineId(0), 0);
    }

    #[test]
    fn free_iteration_and_preference() {
        let (_, mut m) = small();
        m.occupy_for(MachineId(0), 1);
        m.occupy_for(MachineId(0), 1);
        let free: Vec<usize> = m.machines_with_free().map(|x| x.0).collect();
        assert_eq!(free, vec![1, 2]);
    }

    #[test]
    fn bind_idle_prewarns_slots() {
        let (_, mut m) = small();
        assert_eq!(m.bind_idle(3, 4), 4);
        assert_eq!(m.warm_total(3), 4);
        // Warm slots are consumed warm.
        let mm = m.preferred_free_machine(3, &[]).unwrap();
        assert_eq!(m.occupy_for(mm, 3), SlotTemp::Warm);
        // Binding beyond free capacity binds only what exists.
        assert_eq!(m.bind_idle(4, 100), 5);
        assert_eq!(m.warm_total(4), 5);
        assert_eq!(m.warm_total(3), 0, "job 4 stole job 3's idle warmth");
    }

    #[test]
    fn preferred_machine_prefers_warmth() {
        let (_, mut m) = small();
        m.occupy_for(MachineId(2), 5);
        m.release_to(MachineId(2), 5);
        assert_eq!(m.preferred_free_machine(5, &[]), Some(MachineId(2)));
        assert_eq!(
            m.preferred_free_machine(5, &[MachineId(2)]),
            Some(MachineId(0))
        );
    }

    #[test]
    fn set_down_parks_every_slot_and_forgets_warmth() {
        let (_, mut m) = small();
        m.occupy_for(MachineId(1), 7);
        m.release_to(MachineId(1), 7); // warm slot for job 7 on machine 1
        m.occupy_for(MachineId(1), 9); // one slot occupied (steals warmth)
        m.set_down(MachineId(1));
        assert_eq!(m.free_on(MachineId(1)), 0);
        assert_eq!(m.warm_on(MachineId(1), 7), 0);
        assert_eq!(m.total_free(), 4, "only machines 0 and 2 contribute");
        assert!(m.machines_with_free().all(|x| x != MachineId(1)));
        // Recovery restores a fully free, fully cold machine.
        m.set_up(MachineId(1));
        assert_eq!(m.free_on(MachineId(1)), 2);
        assert_eq!(m.total_free(), 6);
        assert_eq!(m.occupy_for(MachineId(1), 7), SlotTemp::Cold);
    }

    #[test]
    fn bind_idle_skips_down_machines() {
        let (_, mut m) = small();
        m.set_down(MachineId(0));
        assert_eq!(m.bind_idle(3, 10), 4, "only machines 1 and 2 bind");
        assert!(m.warm_on(MachineId(0), 3) == 0);
    }

    #[test]
    #[should_panic(expected = "occupy on down machine")]
    fn occupy_on_down_machine_panics() {
        let (_, mut m) = small();
        m.set_down(MachineId(2));
        m.occupy_for(MachineId(2), 1);
    }

    #[test]
    #[should_panic(expected = "release to down machine")]
    fn release_to_down_machine_panics() {
        let (_, mut m) = small();
        m.occupy_for(MachineId(2), 1);
        m.set_down(MachineId(2));
        m.release_to(MachineId(2), 1);
    }

    #[test]
    fn bind_holds_repaints_the_low_prefix() {
        let cfg = ClusterConfig {
            machines: 4,
            slots_per_machine: 2,
            ..Default::default()
        };
        let mut m = Machines::new(&cfg);
        assert_eq!(m.bind_idle(1, 8), 8, "every slot warm for job 1");
        let work = m.bind_holds(&[(2, 3), (3, 4), (1, 8)]);
        // Job 2 paints machines 0..2 (splitting machine 1), job 3 repaints
        // 0..2 wholly, and job 1 takes everything back.
        assert_eq!(m.warm_total(1), 8);
        assert_eq!(work.deficit_rows, 3);
        let mut m2 = Machines::new(&cfg);
        m2.bind_idle(1, 8);
        m2.bind_holds(&[(2, 3), (3, 4)]);
        assert_eq!(m2.warm_on(MachineId(0), 3), 2);
        assert_eq!(m2.warm_on(MachineId(1), 3), 2);
        assert_eq!(m2.warm_total(2), 0, "job 3 stole job 2's repainted prefix");
        assert_eq!(m2.warm_on(MachineId(2), 1), 2);
    }

    /// A random state for the `bind_holds` differential: machines holding
    /// 2–4 warm jobs drawn from `0..jobs`, and (in half the states) some
    /// unbound slots, and some down machines.
    fn random_state(rng: &mut StdRng, machines: usize, slots: usize, jobs: usize) -> Machines {
        let cfg = ClusterConfig {
            machines,
            slots_per_machine: slots,
            ..Default::default()
        };
        let mut ms = Machines::new(&cfg);
        let unbound_p = if rng.gen_bool(0.5) { 0.0 } else { 0.2 };
        for m in (0..machines).map(MachineId) {
            if rng.gen_bool(0.1) {
                ms.set_down(m);
                continue;
            }
            let unbound = if rng.gen_bool(unbound_p) {
                rng.gen_range(1..=slots)
            } else {
                0
            };
            for _ in unbound..slots {
                ms.occupy_for(m, 0);
            }
            let owners: Vec<usize> = (0..rng.gen_range(2..=4usize))
                .map(|_| rng.gen_range(0..jobs))
                .collect();
            for _ in 0..rng.gen_range(0..=slots - unbound) {
                ms.release_to(m, owners[rng.gen_range(0..owners.len())]);
            }
        }
        ms
    }

    /// Rows with holds at or below the warm total, beyond all foreign
    /// warmth, or a few slots short; job ids past `jobs` were never warm.
    fn random_rows(
        rng: &mut StdRng,
        ms: &Machines,
        jobs: usize,
        max: usize,
    ) -> Vec<(usize, usize)> {
        (0..rng.gen_range(1..=max))
            .map(|_| {
                let job = rng.gen_range(0..jobs + 4);
                let have = ms.warm_total(job);
                let hold = match rng.gen_range(0..4) {
                    0 => rng.gen_range(0..=have),
                    1 => ms.total_free() + rng.gen_range(0..3usize),
                    _ => have + rng.gen_range(1..=6usize),
                };
                (job, hold)
            })
            .collect()
    }

    /// Three passes of `bind_holds` against the per-row `bind_idle` loop
    /// on a clone, with occupancy churn between passes.
    fn differential(seed: u64, machines: usize, slots: usize, jobs: usize, max_rows: usize) {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut ms = random_state(&mut rng, machines, slots, jobs);
        for pass in 0..3 {
            let rows = random_rows(&mut rng, &ms, jobs, max_rows);
            let mut oracle = ms.clone();
            let mut deficits = 0;
            for &(j, hold) in &rows {
                let have = oracle.warm_total(j);
                if hold > have {
                    deficits += 1;
                    oracle.bind_idle(j, hold - have);
                }
            }
            let work = ms.bind_holds(&rows);
            assert!(
                ms == oracle,
                "seed {seed} pass {pass}: state drifted, rows {rows:?}"
            );
            assert_eq!(work.deficit_rows, deficits, "seed {seed} pass {pass}");
            for _ in 0..rng.gen_range(0..=machines) {
                let m = MachineId(rng.gen_range(0..machines));
                if ms.down[m.0] {
                    continue;
                }
                if ms.free_on(m) > 0 && rng.gen_bool(0.5) {
                    ms.occupy_for(m, rng.gen_range(0..jobs));
                } else if ms.free_on(m) < slots {
                    ms.release_to(m, rng.gen_range(0..jobs));
                }
            }
        }
    }

    #[test]
    fn bind_holds_matches_the_per_row_bind_idle_loop() {
        for seed in 0..400 {
            differential(seed, 3 + seed as usize % 40, 1 + seed as usize % 4, 10, 12);
        }
    }

    /// Benchmark-sized states (run in release by CI).
    #[test]
    #[ignore]
    fn bind_holds_matches_the_per_row_bind_idle_loop_at_scale() {
        for seed in 0..200 {
            differential(seed, 2000, 4, 400, 250);
        }
    }

    /// Jobs owning warm-set storage, and the words they own.
    fn warm_set_storage(ms: &Machines) -> (usize, usize) {
        let owning = ms.warm_machines.iter().filter(|s| s.words.capacity() > 0);
        (
            owning.clone().count(),
            owning.map(|s| s.words.capacity()).sum(),
        )
    }

    /// A stream of thousands of short-lived jobs: each occupies and
    /// releases slots (leaving them warm), pre-warms through `bind_idle`
    /// and `bind_holds` (whose repaint steals retired jobs' warmth), rides
    /// out machine failures, and retires a few jobs later. The warm sets
    /// that keep storage must be those of live or still-warm jobs, never
    /// one per job seen.
    #[test]
    fn retired_jobs_release_their_warm_sets() {
        const JOBS: usize = 3000;
        const LIVE: usize = 16;
        let cfg = ClusterConfig {
            machines: 300,
            slots_per_machine: 2,
            ..Default::default()
        };
        let mut ms = Machines::new(&cfg);
        let mut rng = StdRng::seed_from_u64(33);
        let mut running: Vec<(MachineId, usize)> = Vec::new();
        let mut peak_owning = 0;
        for j in 0..JOBS {
            for _ in 0..rng.gen_range(1..=6usize) {
                if let Some(m) = ms.preferred_free_machine(j, &[]) {
                    ms.occupy_for(m, j);
                    running.push((m, j));
                }
            }
            // Finish a random half of the running copies, each leaving its
            // slot warm for its job.
            for _ in 0..running.len() / 2 {
                let (m, job) = running.swap_remove(rng.gen_range(0..running.len()));
                if !ms.down[m.0] {
                    ms.release_to(m, job);
                }
            }
            let live: Vec<usize> = (j.saturating_sub(LIVE - 1)..=j).collect();
            if rng.gen_bool(0.5) {
                ms.bind_idle(j, rng.gen_range(1..8usize));
            } else {
                let rows: Vec<(usize, usize)> = live
                    .iter()
                    .map(|&k| (k, ms.warm_total(k) + rng.gen_range(0..4usize)))
                    .collect();
                ms.bind_holds(&rows);
            }
            if rng.gen_bool(0.05) {
                let m = MachineId(rng.gen_range(0..cfg.machines));
                if ms.down[m.0] {
                    ms.set_up(m);
                } else {
                    ms.set_down(m);
                    running.retain(|&(r, _)| r != m);
                }
            }
            // A job retires once it leaves the live window and has no
            // running copy.
            if let Some(old) = j.checked_sub(LIVE) {
                if running.iter().all(|&(_, k)| k != old) {
                    ms.retire_job(old);
                }
            }
            let warm_jobs: HashSet<usize> = ms
                .bound
                .iter()
                .flat_map(|b| b.iter().map(|(k, _)| k))
                .collect();
            for (k, set) in ms.warm_machines.iter().enumerate() {
                if ms.retired[k] && !warm_jobs.contains(&k) {
                    assert_eq!(set.words.capacity(), 0, "job {k} retired and cold");
                }
            }
            let (owning, _) = warm_set_storage(&ms);
            let unretired = ms.retired.iter().filter(|&&r| !r).count();
            assert!(owning <= unretired + warm_jobs.len(), "job {j}");
            peak_owning = peak_owning.max(owning);
        }
        // Still-warm jobs are bounded by the free slots, live ones by the
        // window plus the few retirements held back by running copies.
        let (_, words) = warm_set_storage(&ms);
        let bound = LIVE + cfg.total_slots() / 2;
        assert!(peak_owning < bound, "{peak_owning} sets kept at peak");
        assert!(
            words <= bound * cfg.machines.div_ceil(64),
            "{words} words kept"
        );
        assert!(
            peak_owning * 5 < JOBS,
            "storage follows live work, not jobs seen"
        );
    }

    #[test]
    fn transfer_time_math() {
        assert_eq!(transfer_ms(0.0), 0.0);
        assert!((transfer_ms(62.5) - 500.0).abs() < 1e-9);
    }
}
