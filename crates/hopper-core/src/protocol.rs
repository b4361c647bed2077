//! Decentralized Hopper protocol logic — Pseudocodes 2 and 3 of the paper,
//! expressed as pure decision functions over explicit state.
//!
//! In the decentralized architecture (§5, Figure 4) schedulers push
//! *reservation requests* for their tasks to workers; a worker with a free
//! slot chooses which job to serve and asks that job's scheduler for a task
//! ("late binding"). Hopper changes three things relative to Sparrow:
//!
//! 1. the worker orders its queue by **virtual size** (SRPT per
//!    Guideline 2), not FCFS;
//! 2. a **refusal protocol** lets a fully-satisfied job decline the slot;
//!    several consecutive refusals with no unsatisfied job reported tell
//!    the worker the cluster is *not* capacity constrained, at which point
//!    it switches to Guideline 3 (virtual-size-weighted random choice);
//! 3. responses can be **non-refusable** to force placement on the
//!    smallest *unsatisfied* job discovered during the refusal round.
//!
//! Nothing here performs I/O or owns a clock; the simulation driver (or a
//! real RPC layer) supplies queue contents and delivers decisions.

use rand::Rng;

/// The engines' one ownership rule: job `job` belongs to scheduler
/// `job % schedulers` and sits at dense index `job / schedulers` of that
/// scheduler's book. Messages and parked reservations carry only the
/// job; its scheduler is derived here wherever it is needed.
#[inline]
pub fn owner(job: usize, schedulers: usize) -> (usize, usize) {
    (job % schedulers, job / schedulers)
}

/// `value` as a 32-bit message field. Job and worker ids, task indices
/// and the incarnation/epoch stamps travel as `u32`; a value that does
/// not fit panics where it is created, naming the field.
#[inline]
#[track_caller]
pub fn wire_u32(value: usize, what: &str) -> u32 {
    match u32::try_from(value) {
        Ok(v) => v,
        Err(_) => past_u32(value as u64, what),
    }
}

/// Advance a 32-bit stamp by one, panicking (naming it) instead of
/// wrapping: a wrapped stamp would make a stale reply look current.
#[inline]
#[track_caller]
pub fn bump_stamp(stamp: &mut u32, what: &str) {
    *stamp = match stamp.checked_add(1) {
        Some(v) => v,
        None => past_u32(u64::from(*stamp) + 1, what),
    };
}

#[cold]
#[inline(never)]
#[track_caller]
fn past_u32(value: u64, what: &str) -> ! {
    panic!("{what} {value} does not fit in a u32 message field")
}

/// A reservation request parked in a worker's queue: 16 bytes, because
/// both decentralized engines park millions of them.
///
/// `virtual_size` and `remaining_tasks` are the values last *piggybacked*
/// by the scheduler (§5.3) — possibly stale, which is part of the protocol
/// being modelled. The owning scheduler is not stored: it is
/// [`owner`]`(job, K)`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reservation {
    /// Global job identifier.
    pub job: u32,
    /// Last known remaining task count (used by the Sparrow-SRPT
    /// baseline). A task count, so an integer.
    pub remaining_tasks: u32,
    /// Last known virtual size of the job (see [`crate::vsize`]).
    pub virtual_size: f64,
}

const _: () = assert!(std::mem::size_of::<Reservation>() == 16);

impl Reservation {
    /// The scheduler owning this reservation's job, among `schedulers`.
    #[inline]
    pub fn scheduler(&self, schedulers: usize) -> usize {
        owner(self.job as usize, schedulers).0
    }
}

/// Whether a worker→scheduler response may be refused (Pseudocode 3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ResponseKind {
    /// The scheduler may refuse if the job is already at its desired
    /// speculation level.
    Refusable,
    /// The scheduler must take the slot (used for unsatisfied jobs after
    /// the refusal round).
    NonRefusable,
}

/// An unsatisfied job advertised inside a refusal (the refusing scheduler's
/// smallest job that still has unscheduled work). 16 bytes: its scheduler
/// is [`owner`]`(job, K)`, the refusing scheduler itself.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct UnsatisfiedJob {
    /// The job.
    pub job: u32,
    /// Its virtual size at refusal time.
    pub virtual_size: f64,
}

const _: () = assert!(std::mem::size_of::<UnsatisfiedJob>() == 16);

/// What a worker decides to do with its free slot (one protocol step).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum WorkerAction {
    /// Send a response for `job` to `scheduler`.
    Respond {
        /// Target scheduler (`owner(job, K)`).
        scheduler: usize,
        /// Job whose reservation is being served.
        job: u32,
        /// Refusable during the probing round, non-refusable afterwards.
        kind: ResponseKind,
    },
    /// Queue exhausted (or empty): leave the slot idle until new
    /// reservations arrive.
    Idle,
}

/// Ids an episode holds inline before [`IdSet`] spills to the heap. An
/// episode adds at most one id per response it sends, and it sends at
/// most `refusal_threshold + 3`, so thresholds up to 5 never spill.
const INLINE_IDS: usize = 8;

/// A small set of `u32` ids: the first [`INLINE_IDS`] inline, any more in
/// a vector kept across [`IdSet::clear`].
#[derive(Debug, Clone, Default)]
struct IdSet {
    len: usize,
    inline: [u32; INLINE_IDS],
    spill: Vec<u32>,
}

impl IdSet {
    fn contains(&self, id: u32) -> bool {
        match self.inline.get(..self.len) {
            Some(ids) => ids.contains(&id),
            None => self.inline.contains(&id) || self.spill.contains(&id),
        }
    }

    fn insert(&mut self, id: u32) {
        if self.contains(id) {
            return;
        }
        match self.inline.get_mut(self.len) {
            Some(slot) => *slot = id,
            None => self.spill.push(id),
        }
        self.len += 1;
    }

    fn clear(&mut self) {
        self.len = 0;
        self.spill.clear();
    }
}

/// Schedulers probed in one episode: one bit per scheduler below 128,
/// and the rest (only runs of more schedulers have any) in a vector.
#[derive(Debug, Clone, Default)]
struct SchedulerSet {
    bits: [u64; 2],
    high: Vec<usize>,
}

impl SchedulerSet {
    fn is_empty(&self) -> bool {
        self.bits == [0; 2] && self.high.is_empty()
    }

    fn contains(&self, s: usize) -> bool {
        match self.bits.get(s / 64) {
            Some(word) => (word >> (s % 64)) & 1 == 1,
            None => self.high.contains(&s),
        }
    }

    fn insert(&mut self, s: usize) {
        match self.bits.get_mut(s / 64) {
            Some(word) => *word |= 1 << (s % 64),
            None if !self.high.contains(&s) => self.high.push(s),
            None => {}
        }
    }

    fn clear(&mut self) {
        self.bits = [0; 2];
        self.high.clear();
    }
}

/// Per-free-slot episode state of the worker side of Pseudocode 3.
///
/// Create one when a slot frees, feed it refusals as they come back, and
/// ask [`FreeSlotEpisode::next_action`] for the next protocol step. Its
/// two sets live inline, so an episode restarted in place never
/// allocates at the default refusal threshold.
#[derive(Debug, Clone)]
pub struct FreeSlotEpisode {
    /// Schedulers already probed this episode (the paper: "the worker
    /// avoids probing the same scheduler more than once").
    probed_schedulers: SchedulerSet,
    /// Jobs already refused this episode.
    refused_jobs: IdSet,
    /// Number of refusals received.
    refusal_count: usize,
    /// Threshold after which the worker concludes the system is not
    /// capacity constrained (Figure 5b studies this knob; 2–3 suffice).
    refusal_threshold: usize,
    /// Smallest-virtual-size unsatisfied job reported by any refusal.
    best_unsatisfied: Option<UnsatisfiedJob>,
    /// Responses issued so far this episode.
    responses_sent: usize,
}

/// Reusable buffer of the Guideline-3 pick: each eligible job's first
/// reservation, as `(job, weight, queue index)` in queue order. An engine
/// keeps one and lends it to every worker step
/// ([`FreeSlotEpisode::next_action_with`]), so the pick allocates nothing
/// once warm and no worker holds a buffer of its own.
#[derive(Debug, Clone, Default)]
pub struct PickScratch(Vec<(u32, f64, usize)>);

impl FreeSlotEpisode {
    /// Start an episode with the given refusal threshold.
    pub fn new(refusal_threshold: usize) -> Self {
        FreeSlotEpisode {
            probed_schedulers: SchedulerSet::default(),
            refused_jobs: IdSet::default(),
            refusal_count: 0,
            refusal_threshold,
            best_unsatisfied: None,
            responses_sent: 0,
        }
    }

    /// Start a fresh episode in place: the state of
    /// [`FreeSlotEpisode::new`].
    pub fn restart(&mut self, refusal_threshold: usize) {
        self.probed_schedulers.clear();
        self.refused_jobs.clear();
        self.refusal_count = 0;
        self.refusal_threshold = refusal_threshold;
        self.best_unsatisfied = None;
        self.responses_sent = 0;
    }

    /// Hard bound on responses per episode: the probing round costs at
    /// most `refusal_threshold` round-trips, plus a couple of Guideline-3
    /// attempts. Without this bound a worker could walk its entire queue
    /// over the network while its free slot idles — with long queues that
    /// serialization collapses cluster throughput.
    fn max_responses(&self) -> usize {
        self.refusal_threshold + 3
    }

    /// Record a refusal for `job`, with its scheduler's advertised
    /// smallest unsatisfied job (if any).
    pub fn record_refusal(&mut self, job: u32, unsatisfied: Option<UnsatisfiedJob>) {
        self.refusal_count += 1;
        self.refused_jobs.insert(job);
        if let Some(u) = unsatisfied {
            let better = match self.best_unsatisfied {
                None => true,
                Some(cur) => {
                    u.virtual_size < cur.virtual_size
                        || (u.virtual_size == cur.virtual_size && u.job < cur.job)
                }
            };
            if better {
                self.best_unsatisfied = Some(u);
            }
        }
    }

    /// Note that a response was sent to `scheduler` (so it is not probed
    /// again this episode).
    pub fn mark_probed(&mut self, scheduler: usize) {
        self.probed_schedulers.insert(scheduler);
    }

    /// Refusals received so far.
    pub fn refusals(&self) -> usize {
        self.refusal_count
    }

    /// The worker's next protocol step, per Pseudocode 3.
    ///
    /// `queue` is the worker's pending reservations, whose jobs belong to
    /// `schedulers` schedulers ([`owner`]); `rng` drives the Guideline-3
    /// weighted-random pick. Mutates the episode: each issued response
    /// counts toward the per-episode bound.
    pub fn next_action<R: Rng + ?Sized>(
        &mut self,
        queue: &[Reservation],
        schedulers: usize,
        rng: &mut R,
    ) -> WorkerAction {
        self.next_action_with(queue, schedulers, &mut PickScratch::default(), rng)
    }

    /// [`FreeSlotEpisode::next_action`] with a caller-kept pick buffer:
    /// the same action and RNG draws, and no allocation once `picks` is
    /// warm.
    pub fn next_action_with<R: Rng + ?Sized>(
        &mut self,
        queue: &[Reservation],
        schedulers: usize,
        picks: &mut PickScratch,
        rng: &mut R,
    ) -> WorkerAction {
        if self.responses_sent >= self.max_responses() {
            return WorkerAction::Idle;
        }
        // This step runs once per worker protocol step and must not
        // allocate: the filter is applied in place, and the Guideline-3
        // pick fills the caller's buffer. The filter runs on every
        // parked reservation, so it derives a reservation's scheduler
        // only once a scheduler is probed, and in 32-bit arithmetic (the
        // `job % K` of `owner`).
        let k = wire_u32(schedulers, "scheduler count");
        let none_probed = self.probed_schedulers.is_empty();
        let eligible = |r: &Reservation| {
            !self.refused_jobs.contains(r.job)
                && (none_probed || !self.probed_schedulers.contains((r.job % k) as usize))
        };
        let respond = |job: u32, kind| WorkerAction::Respond {
            scheduler: owner(job as usize, schedulers).0,
            job,
            kind,
        };

        // An advertised unsatisfied job that has not itself refused is the
        // best possible target once probing is over.
        let unsatisfied = self
            .best_unsatisfied
            .filter(|u| !self.refused_jobs.contains(u.job));

        let action = if self.refusal_count >= self.refusal_threshold {
            // Enough refusals without resolution: the system is not
            // capacity constrained → Guideline 3.
            if let Some(u) = unsatisfied {
                respond(u.job, ResponseKind::NonRefusable)
            } else {
                match pick_weighted_by_virtual_size(queue, eligible, picks, rng) {
                    Some(r) => respond(r.job, ResponseKind::NonRefusable),
                    None => WorkerAction::Idle,
                }
            }
        } else {
            // Probing round: smallest virtual size first (Guideline 2).
            match pick_min_virtual_size(queue.iter().filter(|r| eligible(r))) {
                Some(r) => respond(r.job, ResponseKind::Refusable),
                None => {
                    // Queue exhausted before the threshold: fall back to
                    // the best unsatisfied job if one was advertised.
                    match unsatisfied {
                        Some(u) => respond(u.job, ResponseKind::NonRefusable),
                        None => WorkerAction::Idle,
                    }
                }
            }
        };
        if matches!(action, WorkerAction::Respond { .. }) {
            self.responses_sent += 1;
        }
        action
    }
}

/// Smallest virtual size; ties broken by job for determinism (a job
/// determines its scheduler, so no further key is needed).
fn pick_min_virtual_size<'a>(
    eligible: impl Iterator<Item = &'a Reservation>,
) -> Option<&'a Reservation> {
    eligible.min_by(|a, b| {
        a.virtual_size
            .partial_cmp(&b.virtual_size)
            .unwrap_or(std::cmp::Ordering::Equal)
            .then(a.job.cmp(&b.job))
    })
}

/// Guideline-3 pick: random, weighted by virtual size ("the worker randomly
/// picks a job from the waiting queue based on the distribution of job
/// virtual sizes", §5.2), over the reservations of `queue` that pass
/// `eligible`. Dedups by job — only a job's first eligible reservation
/// counts — so a job with many queued reservations is not double-counted.
///
/// One pass over `queue` collects the jobs into `picks` (cleared first);
/// the weights are then summed and walked in that order, with one RNG
/// draw when their total is positive.
fn pick_weighted_by_virtual_size<'a, R: Rng + ?Sized>(
    queue: &'a [Reservation],
    eligible: impl Fn(&Reservation) -> bool,
    picks: &mut PickScratch,
    rng: &mut R,
) -> Option<&'a Reservation> {
    let picks = &mut picks.0;
    picks.clear();
    for (i, r) in queue.iter().enumerate() {
        if eligible(r) && !picks.iter().any(|&(job, ..)| job == r.job) {
            picks.push((r.job, r.virtual_size.max(0.0), i));
        }
    }
    let &(_, _, first) = picks.first()?;
    let total: f64 = picks.iter().map(|&(_, w, _)| w).sum();
    if total <= 0.0 {
        return Some(&queue[first]);
    }
    let mut x = rng.gen::<f64>() * total;
    for &(_, w, i) in picks.iter() {
        x -= w;
        if x <= 0.0 {
            return Some(&queue[i]);
        }
    }
    picks.last().map(|&(_, _, i)| &queue[i])
}

/// FCFS pick (stock Sparrow): the earliest queued reservation.
pub fn pick_fcfs(queue: &[Reservation]) -> Option<&Reservation> {
    queue.first()
}

/// SRPT pick (Sparrow-SRPT baseline of §7.1): the job with the fewest
/// remaining tasks ("when a worker has a slot free, it picks the task of
/// the job that has the least unfinished tasks").
pub fn pick_srpt(queue: &[Reservation]) -> Option<&Reservation> {
    queue.iter().min_by(|a, b| {
        a.remaining_tasks
            .cmp(&b.remaining_tasks)
            .then(a.job.cmp(&b.job))
    })
}

/// Retry pacing for the hardened RPC layer: capped exponential backoff
/// with a bounded retry budget and graceful degradation.
///
/// The decentralized drivers arm per-job watchdogs with
/// `delay_ms(attempt)`; after each unproductive firing the attempt
/// counter advances through [`BackoffPolicy::next_attempt`]. Exhausting
/// the budget does **not** give up — the counter wraps to zero, modelling
/// the paper-era practice of falling back to a *fresh probe round* at
/// base pacing instead of deadlocking (a lost message must never strand
/// a job; see DESIGN.md "Message-fault plane"). Pure arithmetic, no
/// clock: the caller owns time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BackoffPolicy {
    /// Base delay (the RPC timeout), ms.
    pub base_ms: u64,
    /// Cap: delays grow as `base · 2^min(attempt, max_exponent)`.
    pub max_exponent: u32,
    /// Attempts before wrapping back to a fresh round at base pacing.
    pub retry_budget: u32,
}

impl BackoffPolicy {
    /// Policy with the conventional cap of 2⁵ = 32× base.
    pub fn new(base_ms: u64, retry_budget: u32) -> Self {
        BackoffPolicy {
            base_ms: base_ms.max(1),
            max_exponent: 5,
            retry_budget: retry_budget.max(1),
        }
    }

    /// Delay before the retry numbered `attempt` (0-based), ms:
    /// `base · 2^min(attempt, max_exponent)` — saturating, never zero.
    pub fn delay_ms(&self, attempt: u32) -> u64 {
        let exp = attempt.min(self.max_exponent);
        self.base_ms.saturating_mul(1u64 << exp.min(63))
    }

    /// The attempt counter after one more unproductive retry: advances
    /// until the budget is spent, then wraps to 0 (graceful degradation —
    /// a fresh round at base pacing, not a deadlock).
    pub fn next_attempt(&self, attempt: u32) -> u32 {
        if attempt + 1 >= self.retry_budget {
            0
        } else {
            attempt + 1
        }
    }
}

/// Scheduler-side acceptance rule — Pseudocode 2.
///
/// A refusable response is accepted only while the job still occupies
/// fewer slots than its virtual size; non-refusable responses are always
/// accepted.
pub fn scheduler_accepts(kind: ResponseKind, occupied: f64, virtual_size: f64) -> bool {
    match kind {
        ResponseKind::NonRefusable => true,
        ResponseKind::Refusable => occupied < virtual_size,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopper_sim::rng_from_seed;

    /// Schedulers in the hand-written cases: job `j` belongs to scheduler
    /// `j % 10`, its last digit.
    const K: usize = 10;

    fn res(job: u32, vsize: f64, rem: u32) -> Reservation {
        Reservation {
            job,
            virtual_size: vsize,
            remaining_tasks: rem,
        }
    }

    fn unsat(job: u32, virtual_size: f64) -> Option<UnsatisfiedJob> {
        Some(UnsatisfiedJob { job, virtual_size })
    }

    #[test]
    fn first_action_targets_smallest_virtual_size() {
        let q = vec![res(10, 50.0, 40), res(21, 10.0, 8), res(32, 30.0, 25)];
        let mut ep = FreeSlotEpisode::new(2);
        let mut rng = rng_from_seed(1);
        match ep.next_action(&q, K, &mut rng) {
            WorkerAction::Respond {
                scheduler,
                job,
                kind,
            } => {
                assert_eq!((scheduler, job), (1, 21));
                assert_eq!(kind, ResponseKind::Refusable);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn refusal_moves_to_second_smallest() {
        let q = vec![res(10, 50.0, 40), res(21, 10.0, 8), res(32, 30.0, 25)];
        let mut ep = FreeSlotEpisode::new(5);
        let mut rng = rng_from_seed(1);
        ep.mark_probed(1);
        ep.record_refusal(21, None);
        match ep.next_action(&q, K, &mut rng) {
            WorkerAction::Respond { job, kind, .. } => {
                assert_eq!(job, 32, "second smallest virtual size");
                assert_eq!(kind, ResponseKind::Refusable);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn same_scheduler_not_probed_twice() {
        // Jobs 21 and 31 share scheduler 1; after job 21's refusal, job 31
        // is skipped even though it is next by virtual size.
        let q = vec![res(21, 10.0, 8), res(31, 20.0, 15), res(90, 90.0, 80)];
        let mut ep = FreeSlotEpisode::new(5);
        let mut rng = rng_from_seed(1);
        ep.mark_probed(1);
        ep.record_refusal(21, None);
        match ep.next_action(&q, K, &mut rng) {
            WorkerAction::Respond { scheduler, job, .. } => {
                assert_eq!(scheduler, 0);
                assert_eq!(job, 90);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn threshold_reached_with_unsatisfied_goes_nonrefusable() {
        let q = vec![res(10, 50.0, 40), res(21, 10.0, 8)];
        let mut ep = FreeSlotEpisode::new(2);
        let mut rng = rng_from_seed(1);
        ep.record_refusal(21, unsat(71, 12.0));
        ep.record_refusal(10, unsat(80, 5.0));
        match ep.next_action(&q, K, &mut rng) {
            WorkerAction::Respond {
                scheduler,
                job,
                kind,
            } => {
                assert_eq!((scheduler, job), (0, 80), "smallest unsatisfied wins");
                assert_eq!(kind, ResponseKind::NonRefusable);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn threshold_reached_without_unsatisfied_uses_weighted_random() {
        let q = vec![res(10, 1.0, 1), res(21, 1000.0, 900)];
        // With virtual sizes 1 vs 1000, the pick should almost always be
        // job 21; verify over many draws the weighting holds. A fresh
        // episode per draw (episodes are bounded in responses).
        let mut hits = 0;
        for seed in 0..200 {
            let mut ep = FreeSlotEpisode::new(1);
            ep.record_refusal(92, None);
            let mut rng = rng_from_seed(seed);
            match ep.next_action(&q, K, &mut rng) {
                WorkerAction::Respond { job, kind, .. } => {
                    assert_eq!(kind, ResponseKind::NonRefusable);
                    if job == 21 {
                        hits += 1;
                    }
                }
                other => panic!("unexpected action {other:?}"),
            }
        }
        assert!(hits > 190, "weighting broken: {hits}/200");
    }

    #[test]
    fn exhausted_queue_falls_back_to_unsatisfied_then_idle() {
        let q = vec![res(10, 5.0, 5)];
        let mut ep = FreeSlotEpisode::new(10);
        let mut rng = rng_from_seed(1);
        ep.mark_probed(0);
        ep.record_refusal(10, None);
        assert_eq!(ep.next_action(&q, K, &mut rng), WorkerAction::Idle);
        ep.record_refusal(10, unsat(43, 2.0));
        match ep.next_action(&q, K, &mut rng) {
            WorkerAction::Respond {
                scheduler,
                job,
                kind,
            } => {
                assert_eq!((scheduler, job), (3, 43));
                assert_eq!(kind, ResponseKind::NonRefusable);
            }
            other => panic!("unexpected action {other:?}"),
        }
    }

    #[test]
    fn empty_queue_is_idle() {
        let mut ep = FreeSlotEpisode::new(2);
        let mut rng = rng_from_seed(1);
        assert_eq!(ep.next_action(&[], K, &mut rng), WorkerAction::Idle);
    }

    #[test]
    fn refusal_counter_and_accessor() {
        let mut ep = FreeSlotEpisode::new(3);
        assert_eq!(ep.refusals(), 0);
        ep.record_refusal(10, None);
        ep.record_refusal(21, None);
        assert_eq!(ep.refusals(), 2);
    }

    #[test]
    fn fcfs_and_srpt_picks() {
        // Jobs 5, 6 and 7 belong to schedulers 0, 1 and 2 of 5.
        let q = vec![res(5, 50.0, 40), res(6, 10.0, 3), res(7, 30.0, 25)];
        assert_eq!(pick_fcfs(&q).unwrap().job, 5);
        assert_eq!(pick_srpt(&q).unwrap().job, 6);
        assert!(pick_fcfs(&[]).is_none());
        assert!(pick_srpt(&[]).is_none());
    }

    #[test]
    fn scheduler_acceptance_rule() {
        assert!(scheduler_accepts(ResponseKind::Refusable, 3.0, 5.0));
        assert!(!scheduler_accepts(ResponseKind::Refusable, 5.0, 5.0));
        assert!(!scheduler_accepts(ResponseKind::Refusable, 8.0, 5.0));
        assert!(scheduler_accepts(ResponseKind::NonRefusable, 8.0, 5.0));
    }

    #[test]
    fn weighted_pick_dedups_jobs_with_many_reservations() {
        // Job 1 has 100 reservations of vsize 1 each; job 2 has one of
        // vsize 100. Without dedup job 1 would dominate; with dedup the
        // odds are ~100:1 for job 2.
        let mut q: Vec<Reservation> = (0..100).map(|_| res(1, 1.0, 1)).collect();
        q.push(res(2, 100.0, 90));
        let mut hits2 = 0;
        for seed in 0..300 {
            let mut rng = rng_from_seed(seed);
            let pick =
                pick_weighted_by_virtual_size(&q, |_| true, &mut PickScratch::default(), &mut rng)
                    .unwrap();
            if pick.job == 2 {
                hits2 += 1;
            }
        }
        assert!(hits2 > 270, "dedup failed: {hits2}/300");
    }

    /// The worker step as first written: collect the eligible
    /// reservations, then dedup jobs into two more vectors for the
    /// Guideline-3 pick. The oracle for the allocation-free step; it
    /// takes the refused jobs and probed schedulers as plain vectors,
    /// kept by the caller, so the episode's own sets are checked too.
    fn reference_next_action<R: Rng + ?Sized>(
        ep: &mut FreeSlotEpisode,
        queue: &[Reservation],
        k: usize,
        (refused, probed): (&[u32], &[usize]),
        rng: &mut R,
    ) -> WorkerAction {
        if ep.responses_sent >= ep.max_responses() {
            return WorkerAction::Idle;
        }
        let eligible: Vec<&Reservation> = queue
            .iter()
            .filter(|r| !refused.contains(&r.job) && !probed.contains(&r.scheduler(k)))
            .collect();
        let unsatisfied = ep.best_unsatisfied.filter(|u| !refused.contains(&u.job));
        let respond = |r: &Reservation, kind| WorkerAction::Respond {
            scheduler: r.scheduler(k),
            job: r.job,
            kind,
        };
        let fallback = |kind| match unsatisfied {
            Some(u) => WorkerAction::Respond {
                scheduler: owner(u.job as usize, k).0,
                job: u.job,
                kind,
            },
            None => WorkerAction::Idle,
        };
        let action = if ep.refusal_count >= ep.refusal_threshold {
            if unsatisfied.is_some() {
                fallback(ResponseKind::NonRefusable)
            } else {
                let mut seen: Vec<u32> = Vec::new();
                let mut jobs: Vec<&Reservation> = Vec::new();
                for r in &eligible {
                    if !seen.contains(&r.job) {
                        seen.push(r.job);
                        jobs.push(r);
                    }
                }
                let total: f64 = jobs.iter().map(|r| r.virtual_size.max(0.0)).sum();
                let pick = if jobs.is_empty() {
                    None
                } else if total <= 0.0 {
                    Some(jobs[0])
                } else {
                    let mut x = rng.gen::<f64>() * total;
                    let mut hit = None;
                    for r in &jobs {
                        x -= r.virtual_size.max(0.0);
                        if x <= 0.0 {
                            hit = Some(*r);
                            break;
                        }
                    }
                    hit.or(jobs.last().copied())
                };
                pick.map_or(WorkerAction::Idle, |r| {
                    respond(r, ResponseKind::NonRefusable)
                })
            }
        } else {
            let min = eligible.iter().min_by(|a, b| {
                a.virtual_size
                    .partial_cmp(&b.virtual_size)
                    .unwrap_or(std::cmp::Ordering::Equal)
                    .then(a.job.cmp(&b.job))
                    .then(a.scheduler(k).cmp(&b.scheduler(k)))
            });
            match min {
                Some(r) => respond(r, ResponseKind::Refusable),
                None => fallback(ResponseKind::NonRefusable),
            }
        };
        if matches!(action, WorkerAction::Respond { .. }) {
            ep.responses_sent += 1;
        }
        action
    }

    /// Drive the worker step and its reference through `cases` random
    /// episodes: queues of jobs drawn from `jobs`, owned by `k` schedulers
    /// (duplicate jobs, tied and zero virtual sizes), thresholds from
    /// `thresholds`, and random refusal/probe histories of `rounds`
    /// steps. Returns the Refusable and NonRefusable response counts.
    fn check_against_reference(
        k: usize,
        jobs: &[u32],
        thresholds: std::ops::Range<usize>,
        rounds: usize,
        cases: u64,
    ) -> [usize; 2] {
        let mut gen = rng_from_seed(23);
        let vsizes = [0.0, 1.0, 1.0, 2.5, 7.0, 40.0];
        let mut responds = [0usize; 2];
        for case in 0..cases {
            let len = gen.gen_range(0..24);
            let queue: Vec<Reservation> = (0..len)
                .map(|_| {
                    let v = if gen.gen_bool(0.5) {
                        vsizes[gen.gen_range(0..vsizes.len())]
                    } else {
                        gen.gen_range(0.0..50.0)
                    };
                    res(jobs[gen.gen_range(0..jobs.len())], v, v as u32)
                })
                .collect();
            let mut ep = FreeSlotEpisode::new(gen.gen_range(thresholds.clone()));
            let mut reference = ep.clone();
            let (mut refused, mut probed) = (Vec::new(), Vec::new());
            let mut rng = rng_from_seed(case);
            let mut ref_rng = rng_from_seed(case);
            for _ in 0..rounds {
                let action = ep.next_action(&queue, k, &mut rng);
                let sets = (&refused[..], &probed[..]);
                assert_eq!(
                    action,
                    reference_next_action(&mut reference, &queue, k, sets, &mut ref_rng),
                    "case {case}"
                );
                if let WorkerAction::Respond { kind, .. } = action {
                    responds[(kind == ResponseKind::NonRefusable) as usize] += 1;
                }
                // Refuse the offered job (or a random one), sometimes
                // advertising an unsatisfied job.
                let (s, j) = match action {
                    WorkerAction::Respond { scheduler, job, .. } => (scheduler, job),
                    WorkerAction::Idle => {
                        let j = jobs[gen.gen_range(0..jobs.len())];
                        (owner(j as usize, k).0, j)
                    }
                };
                let unsatisfied = gen.gen_bool(0.2).then(|| UnsatisfiedJob {
                    job: jobs[gen.gen_range(0..jobs.len())],
                    virtual_size: vsizes[gen.gen_range(0..vsizes.len())],
                });
                for e in [&mut ep, &mut reference] {
                    e.mark_probed(s);
                    e.record_refusal(j, unsatisfied);
                }
                probed.push(s);
                refused.push(j);
            }
            assert_eq!(rng.gen::<u64>(), ref_rng.gen::<u64>(), "case {case}");
        }
        responds
    }

    /// The allocation-free worker step makes the reference's picks and
    /// RNG draws, over random queues (duplicate jobs, tied and zero
    /// virtual sizes) and random refusal/probe histories. Each job's
    /// scheduler is `job % 5`, as in the engines.
    #[test]
    fn next_action_matches_collecting_reference() {
        let jobs: Vec<u32> = (0..10).collect();
        let responds = check_against_reference(5, &jobs, 0..4, 8, 3000);
        assert!(
            responds.iter().all(|&n| n > 1000),
            "both rounds exercised: {responds:?}"
        );
    }

    /// Past their inline capacity the episode's sets spill and still
    /// agree with the reference: thresholds up to 12 refuse more jobs
    /// than fit inline, and four jobs each of schedulers 124–133 (of 300)
    /// probe ids on both sides of the 128-bit scheduler bitset.
    #[test]
    fn episode_sets_spill_past_their_inline_capacity() {
        let jobs: Vec<u32> = (124..134)
            .flat_map(|s| (0..4).map(move |m| s + 300 * m))
            .collect();
        let responds = check_against_reference(300, &jobs, 6..13, 16, 600);
        assert!(
            responds.iter().all(|&n| n > 200),
            "both rounds exercised: {responds:?}"
        );
    }

    #[test]
    #[should_panic(expected = "job id 4294967296 does not fit")]
    fn a_job_id_past_u32_panics_naming_it() {
        wire_u32(u32::MAX as usize + 1, "job id");
    }

    #[test]
    #[should_panic(expected = "worker incarnation 4294967296 does not fit")]
    fn a_stamp_past_u32_panics_naming_it() {
        let mut stamp = u32::MAX - 1;
        bump_stamp(&mut stamp, "worker incarnation");
        assert_eq!(stamp, u32::MAX);
        bump_stamp(&mut stamp, "worker incarnation");
    }

    #[test]
    fn backoff_grows_caps_and_wraps() {
        let p = BackoffPolicy::new(1000, 4);
        // Exponential growth from base.
        assert_eq!(p.delay_ms(0), 1000);
        assert_eq!(p.delay_ms(1), 2000);
        assert_eq!(p.delay_ms(2), 4000);
        // Capped at 2^max_exponent.
        assert_eq!(p.delay_ms(5), 32_000);
        assert_eq!(p.delay_ms(40), 32_000);
        // Budget of 4: attempts walk 0→1→2→3→0 (fresh round, no give-up).
        assert_eq!(p.next_attempt(0), 1);
        assert_eq!(p.next_attempt(2), 3);
        assert_eq!(p.next_attempt(3), 0);
    }

    #[test]
    fn backoff_degenerate_inputs_are_floored() {
        // Zero base / zero budget are floored, never a zero delay or a
        // divide-by-zero wrap.
        let p = BackoffPolicy::new(0, 0);
        assert!(p.delay_ms(0) >= 1);
        assert_eq!(p.next_attempt(0), 0, "budget 1 wraps immediately");
        // Saturation instead of overflow at absurd bases.
        let big = BackoffPolicy::new(u64::MAX / 2, 3);
        assert_eq!(big.delay_ms(5), u64::MAX);
    }

    #[test]
    fn zero_virtual_sizes_still_pick_something() {
        let q = [res(1, 0.0, 0), res(2, 0.0, 0)];
        let mut rng = rng_from_seed(4);
        assert!(
            pick_weighted_by_virtual_size(&q, |_| true, &mut PickScratch::default(), &mut rng)
                .is_some()
        );
    }
}
