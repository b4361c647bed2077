//! The protocol's two sides, written once for both engines: one
//! scheduler's book (the per-job state a decentralized scheduler keeps
//! and every scheduler-side rule, §4–5) and one worker's state machine.
//!
//! Job `j` belongs to scheduler `j % K` and sits at the book's dense
//! local index `lj = j / K` ([`owner`]). Neither side owns an RNG or
//! sends a message: callers pass the randomness they own (the serial
//! driver's global streams, or a shard's per-entity children) and turn
//! the returned decisions into direct calls or messages. How a decision
//! is *embedded* is all that differs between `driver.rs` and `shard.rs`.
//!
//! The rules that live here:
//!
//! - the virtual size ([`SchedBook::vsize`]), the ε-fair floor
//!   ([`fair_share`]) and the Pseudocode-2 accept test, inside
//!   [`SchedBook::serve`];
//! - what an accepted offer launches: an unclaimed original (local
//!   preferred), else a flagged speculation candidate, else (Hopper) a
//!   Guideline-3 extra copy;
//! - the Pseudocode-3 refusal advertisement
//!   ([`SchedBook::best_unsatisfied`]);
//! - arrival admission, probe targets and re-probe counts;
//! - the straggler scan, crash scratch-wipe, recovery, the watchdog's
//!   reconciliation and retirement;
//! - the worker's side, in one [`Worker`] per machine: its free-slot
//!   episode and the step it takes, the incarnation/epoch stamps that
//!   tell a current reply from a stale one, the response lease, refusal
//!   handling, accepting an assignment, the §5.3 piggyback, and machine
//!   failure and recovery.

use std::collections::{HashSet, VecDeque};

use crate::driver::DecPolicy;
use hopper_cluster::{
    CopyRef, CopyStatus, InlineVec, JobRun, JobSlab, MachineId, TaskRef, MAX_RUNNING_COPIES,
};
pub(crate) use hopper_core::protocol::owner;
use hopper_core::protocol::{
    bump_stamp, pick_fcfs, pick_srpt, scheduler_accepts, wire_u32, BackoffPolicy, FreeSlotEpisode,
    PickScratch, Reservation, ResponseKind, UnsatisfiedJob, WorkerAction,
};
use hopper_core::{virtual_size, BetaEstimator};
use hopper_metrics::JobResult;
use hopper_sim::SimTime;
use hopper_spec::{Candidate, ScanScratch, Speculator};
use rand::Rng;

/// A task as the `(phase, task)` pair of `u32`s its messages carry.
pub(crate) fn task_pair(t: TaskRef) -> (u32, u32) {
    (
        wire_u32(t.phase, "phase index"),
        wire_u32(t.task, "task index"),
    )
}

/// The task a message's `(phase, task)` pair names.
pub(crate) fn task_ref((phase, task): (u32, u32)) -> TaskRef {
    TaskRef::new(phase as usize, task as usize)
}

/// Reservations to place for `tasks` tasks: `⌈tasks × probe_ratio⌉`,
/// at least one.
pub(crate) fn probe_count(tasks: usize, probe_ratio: f64) -> usize {
    ((tasks as f64 * probe_ratio).ceil() as usize).max(1)
}

/// The ε-fair floor `⌊(1−ε)·S/N⌋` slots per job (§4.3) for `active`
/// jobs on `total_slots` slots; `None` when ε-fairness is off or no job
/// is active. [`SchedBook::serve`] caps it at the job's virtual size,
/// exactly like the centralized projection: fairness never forces slots
/// a job cannot use.
pub(crate) fn fair_share(eps: Option<f64>, total_slots: usize, active: usize) -> Option<f64> {
    let eps = eps?;
    if active == 0 {
        return None;
    }
    let fair = total_slots as f64 / active as f64;
    Some(((1.0 - eps) * fair).floor())
}

/// A worker's slot offer, as its current episode step made it. The
/// embedding sends it to `job`'s scheduler stamped with `inc`/`ep` (which
/// the reply echoes) and arms a response lease on `lease`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct Offer {
    pub scheduler: usize,
    pub job: u32,
    pub kind: ResponseKind,
    pub inc: u32,
    pub ep: u32,
    pub lease: u64,
}

/// One worker's side of the protocol: its reservation queue, its free
/// slots and at most one free-slot episode (Pseudocode 3), plus the
/// stamps that keep replies honest. Like [`SchedBook`] it owns no RNG:
/// the Guideline-3 pick draws from the caller's stream.
#[derive(Debug, Clone)]
pub(crate) struct Worker {
    /// Parked reservations, in arrival order.
    pub queue: Vec<Reservation>,
    /// Slots neither running a copy nor promised to the episode; never
    /// above `slots`.
    free: usize,
    /// The machine's slot count.
    slots: usize,
    /// Whether a late-binding episode is in flight (it holds one
    /// promised slot).
    in_episode: bool,
    /// The episode in flight, or the last one: restarted in place by
    /// each [`Worker::open_episode`], so opening one does not allocate.
    episode: FreeSlotEpisode,
    /// Machine incarnation, bumped on failure: a reply to an offer from
    /// an earlier incarnation references a slot that died with the
    /// machine (always 0 while dynamics are off).
    pub inc: u32,
    /// Episode epoch, bumped at every episode end: a reply echoing an
    /// older epoch answers an episode that is already over (a duplicated
    /// or lease-superseded reply).
    ep: u32,
    /// RPC sequence, bumped on every offer sent, every reply processed
    /// and at episode end. A lease snapshots it at the offer; if it has
    /// not moved when the lease fires, the reply was lost.
    rpc: u64,
}

impl Worker {
    /// An idle worker with `slots` free slots.
    pub fn new(slots: usize) -> Self {
        Worker {
            queue: Vec::new(),
            free: slots,
            slots,
            in_episode: false,
            episode: FreeSlotEpisode::new(0),
            inc: 0,
            ep: 0,
            rpc: 0,
        }
    }

    /// Slots neither running a copy nor promised to the episode.
    pub fn free(&self) -> usize {
        self.free
    }

    /// Whether an episode is in flight.
    pub fn has_episode(&self) -> bool {
        self.in_episode
    }

    /// A copy stopped or a promised slot came back: return one slot to
    /// the free pool. Callers first check that the slot is still this
    /// incarnation's (a slot on a failed machine died with it). Panics,
    /// in release builds too, on a return past the machine's slot count:
    /// a double release.
    pub fn release_slot(&mut self) {
        assert!(
            self.free < self.slots,
            "slot released twice: {} of {} already free",
            self.free,
            self.slots
        );
        self.free += 1;
    }

    /// Promise a free slot to a new episode, if there is a free slot, no
    /// episode in flight and a reservation to offer it to. Returns
    /// whether one opened (the caller then takes its first [`step`]).
    ///
    /// [`step`]: Worker::step
    pub fn open_episode(&mut self, refusal_threshold: usize) -> bool {
        if self.free == 0 || self.in_episode || self.queue.is_empty() {
            return false;
        }
        self.free -= 1;
        self.in_episode = true;
        self.episode.restart(refusal_threshold);
        true
    }

    /// Take one episode step. Sparrow offers its FCFS pick and
    /// Sparrow-SRPT its fewest-remaining pick, both non-refusable;
    /// Hopper runs Pseudocode 3, which after `refusal_threshold`
    /// refusals switches to the Guideline-3 weighted pick drawn from
    /// `rng`. An offer goes to its job's owner among `schedulers`
    /// ([`owner`]) and marks that scheduler probed for the rest of the
    /// episode; with nothing to offer the episode ends and its slot
    /// returns to the free pool. Returns the offer (`None`: idle, or no
    /// episode in flight) and whether this step was taken past the
    /// refusal threshold (a Guideline-3 switch). `picks` is the engine's
    /// buffer for the Guideline-3 pick, lent to every worker.
    pub fn step(
        &mut self,
        policy: DecPolicy,
        refusal_threshold: usize,
        schedulers: usize,
        picks: &mut PickScratch,
        rng: &mut impl Rng,
    ) -> (Option<Offer>, bool) {
        if !self.in_episode {
            return (None, false); // defensive: stray reply after the episode resolved
        }
        let ep = &mut self.episode;
        let respond = |r: &Reservation| WorkerAction::Respond {
            scheduler: r.scheduler(schedulers),
            job: r.job,
            kind: ResponseKind::NonRefusable,
        };
        let (action, switched) = match policy {
            DecPolicy::Sparrow => (
                pick_fcfs(&self.queue).map_or(WorkerAction::Idle, respond),
                false,
            ),
            DecPolicy::SparrowSrpt => (
                pick_srpt(&self.queue).map_or(WorkerAction::Idle, respond),
                false,
            ),
            DecPolicy::Hopper => {
                let switched = ep.refusals() >= refusal_threshold;
                let action = ep.next_action_with(&self.queue, schedulers, picks, rng);
                (action, switched)
            }
        };
        let offer = match action {
            WorkerAction::Respond {
                scheduler,
                job,
                kind,
            } => {
                ep.mark_probed(scheduler);
                self.rpc += 1;
                Some(Offer {
                    scheduler,
                    job,
                    kind,
                    inc: self.inc,
                    ep: self.ep,
                    lease: self.rpc,
                })
            }
            WorkerAction::Idle => {
                self.end_episode();
                self.release_slot();
                None
            }
        };
        (offer, switched)
    }

    /// The episode is over (its slot consumed, reclaimed or dead):
    /// replies echoing its epoch are stale and any armed lease is void.
    /// Callers settle `free` themselves.
    fn end_episode(&mut self) {
        self.in_episode = false;
        bump_stamp(&mut self.ep, "worker episode epoch");
        self.rpc += 1;
    }

    /// Whether a reply stamped `(inc, ep)` answers the live episode of
    /// this incarnation. Faults off, a mismatch only follows a machine
    /// failure (the one mid-flight teardown), where both stamps move.
    fn is_current(&self, inc: u32, ep: u32) -> bool {
        inc == self.inc && ep == self.ep
    }

    /// A reply (refusal) stamped `(inc, ep)` reached the worker:
    /// whether it answers the live episode. A current reply voids the
    /// armed lease; a stale one touches nothing.
    pub fn take_reply(&mut self, inc: u32, ep: u32) -> bool {
        let current = self.is_current(inc, ep);
        if current {
            self.rpc += 1;
        }
        current
    }

    /// The episode's offer for `job` was refused, advertising
    /// `unsatisfied`. Sparrow's no-task consumes one of the job's parked
    /// reservations and returns whether one was there; Hopper keeps them
    /// — the job may want Guideline-3 extras later — and records the
    /// refusal and its advertisement.
    pub fn refused(
        &mut self,
        policy: DecPolicy,
        job: u32,
        unsatisfied: Option<UnsatisfiedJob>,
    ) -> bool {
        match policy {
            DecPolicy::Sparrow | DecPolicy::SparrowSrpt => self.consume_reservation(job),
            DecPolicy::Hopper => {
                if self.in_episode {
                    self.episode.record_refusal(job, unsatisfied);
                }
                false
            }
        }
    }

    /// An assignment for `job` stamped `(inc, ep)` reached the worker.
    /// `None` when its promised slot is gone (stale stamps), which
    /// touches nothing. Otherwise the episode ends with its slot consumed
    /// by the assignment, which eats one of the job's parked
    /// reservations if there is one: returns whether it did.
    pub fn assigned(&mut self, inc: u32, ep: u32, job: u32) -> Option<bool> {
        if !self.is_current(inc, ep) {
            return None;
        }
        self.end_episode();
        Some(self.consume_reservation(job))
    }

    /// Remove the first of `job`'s parked reservations; returns whether
    /// there was one.
    fn consume_reservation(&mut self, job: u32) -> bool {
        let pos = self.queue.iter().position(|r| r.job == job);
        pos.map(|pos| self.queue.remove(pos)).is_some()
    }

    /// The response lease armed on `seq` fired: if no reply reached the
    /// episode since (the RPC sequence has not moved) the reply was lost
    /// or stale-dropped, so the episode ends and its promised slot
    /// returns to the free pool. Returns whether the slot was reclaimed.
    pub fn lease_expired(&mut self, seq: u64) -> bool {
        if seq != self.rpc || !self.in_episode {
            return false;
        }
        self.end_episode();
        self.release_slot();
        true
    }

    /// The §5.3 piggyback: an assignment refreshes the virtual size and
    /// remaining count of every reservation its job has parked here.
    pub fn piggyback(&mut self, job: u32, vsize: f64, remaining: u32) {
        for r in self.queue.iter_mut().filter(|r| r.job == job) {
            r.virtual_size = vsize;
            r.remaining_tasks = remaining;
        }
    }

    /// The machine failed: the incarnation moves on (every reply in
    /// flight is stale), the episode and every slot die, and the parked
    /// reservations are handed back for their schedulers to write off.
    pub fn fail(&mut self) -> Vec<Reservation> {
        bump_stamp(&mut self.inc, "worker incarnation");
        let queue = std::mem::take(&mut self.queue);
        self.end_episode();
        self.free = 0;
        queue
    }

    /// The machine rejoins with every slot free and an empty queue.
    pub fn recover(&mut self) {
        self.free = self.slots;
    }
}

/// What a copy's completion did to its job, as its scheduler sees it.
pub(crate) struct Finished {
    /// The winner's running siblings, which lost the race, and their
    /// machines (the kill targets).
    pub losers: InlineVec<(CopyRef, MachineId), 4>,
    /// Whether the winner was a speculative copy.
    pub spec_won: bool,
    /// Probe count for each phase the completion made eligible, in
    /// phase order (their originals are already counted pending).
    pub phase_probes: InlineVec<usize, 2>,
    /// Whether the whole job completed (the caller retires it).
    pub job_done: bool,
}

/// One scheduler's per-job state, indexed by local job index.
pub(crate) struct SchedBook {
    /// Global scheduler id.
    pub s: usize,
    /// Scheduler count (the job→owner modulus).
    k: usize,
    /// Reservations per task.
    probe_ratio: f64,
    /// Worker count (random probes draw from `0..workers`).
    workers: usize,
    /// Whether the scheduler is up (false from a crash to its recovery;
    /// always true while scheduler faults are off).
    pub up: bool,
    /// Live jobs' runtime state; a completed job is retired, after which
    /// indexing it panics.
    pub jobs: JobSlab,
    /// Scheduler-side occupancy (running + in-flight assignments).
    occupied: Vec<usize>,
    /// Originals not yet assigned, as the scheduler counts them.
    pending_orig: Vec<usize>,
    /// Originals with an assignment in flight (guards against two
    /// concurrent slot offers claiming the same task).
    claimed: Vec<HashSet<TaskRef>>,
    /// Live (unconsumed) reservations: a job with launchable work but no
    /// reservation left is re-probed at the next scan.
    live_res: Vec<usize>,
    /// Speculation candidates, consumed front-first.
    candidates: Vec<VecDeque<Candidate>>,
    /// The speculator's scan buffer, reused by every job's scan.
    scan_scratch: ScanScratch,
    /// Watchdog progress clock: bumped on every launch and finish.
    pub wd_progress: Vec<u64>,
    wd_seen: Vec<u64>,
    wd_attempt: Vec<u32>,
    /// Live jobs' local indices, ascending (= ascending global id).
    pub live: Vec<usize>,
    /// Owned jobs that have not arrived yet.
    pub arrivals_pending: usize,
    /// β learned from this scheduler's own completions.
    beta: BetaEstimator,
    /// Retired jobs' launches that left more than `MAX_RUNNING_COPIES`
    /// copies of their task running (`JobRun::over_limit_launches`).
    pub over_limit_launches: u64,
}

impl SchedBook {
    /// The book of scheduler `s` of `k`, for a run of `total_jobs` jobs
    /// on `workers` workers.
    pub fn new(s: usize, k: usize, total_jobs: usize, probe_ratio: f64, workers: usize) -> Self {
        let n = if total_jobs > s {
            (total_jobs - s).div_ceil(k)
        } else {
            0
        };
        SchedBook {
            s,
            k,
            probe_ratio,
            workers,
            up: true,
            jobs: JobSlab::new(n),
            occupied: vec![0; n],
            pending_orig: vec![0; n],
            claimed: vec![HashSet::new(); n],
            live_res: vec![0; n],
            candidates: vec![VecDeque::new(); n],
            scan_scratch: ScanScratch::default(),
            wd_progress: vec![0; n],
            wd_seen: vec![0; n],
            wd_attempt: vec![0; n],
            live: Vec::new(),
            arrivals_pending: n,
            beta: BetaEstimator::with_prior(1.5),
            over_limit_launches: 0,
        }
    }

    /// Global id of local job `lj`.
    #[inline]
    pub fn job_id(&self, lj: usize) -> usize {
        lj * self.k + self.s
    }

    /// Whether job `lj` has arrived and not completed.
    #[inline]
    pub fn is_live(&self, lj: usize) -> bool {
        self.jobs.is_live(lj)
    }

    /// A live job's occupancy as the scheduler counts it and as ground
    /// truth has it (the two agree whenever no message is in flight and
    /// faults are off; see `Auditor::check_job`).
    pub fn occupancy(&self, lj: usize) -> Option<(u64, u64)> {
        self.is_live(lj).then(|| {
            (
                self.occupied[lj] as u64,
                self.jobs[lj].occupied_slots() as u64,
            )
        })
    }

    /// Whether the job has work an offer could launch right now.
    fn launchable(&self, lj: usize) -> bool {
        self.pending_orig[lj] > 0 || !self.candidates[lj].is_empty()
    }

    /// The scheduler's current view of a job's virtual size (Pseudocode
    /// 1 inputs, all local): its learned β once the estimator has
    /// enough samples, else the job's own.
    pub fn vsize(&self, lj: usize) -> f64 {
        let job = &self.jobs[lj];
        let beta = self.beta.learned().unwrap_or(job.spec.beta);
        virtual_size(job.current_remaining() as f64, beta, job.alpha().max(1.0))
    }

    /// Global id of local job `lj` as its messages carry it.
    pub fn wire_job(&self, lj: usize) -> u32 {
        wire_u32(self.job_id(lj), "job id")
    }

    /// A reservation for job `lj` carrying the scheduler's current
    /// virtual size and remaining count (the §5.3 piggyback).
    pub fn reservation(&self, lj: usize) -> Reservation {
        Reservation {
            job: self.wire_job(lj),
            remaining_tasks: wire_u32(self.jobs[lj].current_remaining(), "remaining task count"),
            virtual_size: self.vsize(lj),
        }
    }

    /// Admit an arriving job: its eligible phases' tasks are pending.
    pub fn admit(&mut self, lj: usize, job: JobRun) {
        self.pending_orig[lj] = job
            .phases()
            .iter()
            .filter(|p| p.eligible)
            .map(|p| p.num_tasks())
            .sum();
        self.jobs.insert(lj, job);
        self.arrivals_pending -= 1;
        debug_assert!(self.live.last().is_none_or(|&last| last < lj));
        self.live.push(lj);
    }

    /// An arriving job's probe targets: `probe_ratio × tasks`
    /// reservations, the replica machines of its first phase's input
    /// tasks first (§6.1), the rest drawn from `rng`. All count as live
    /// reservations. None while the scheduler is down: its recovery
    /// (and the job's watchdog) probe from ground truth instead.
    pub fn arrival_probes(&mut self, lj: usize, rng: &mut impl Rng) -> Vec<u32> {
        if !self.up {
            return Vec::new();
        }
        let job = &self.jobs[lj];
        let probes = probe_count(job.spec.size_tasks().max(1), self.probe_ratio);
        let mut targets: Vec<u32> = Vec::with_capacity(probes);
        for ti in 0..job.phases()[0].num_tasks() {
            for r in job.replicas(TaskRef::new(0, ti)) {
                if targets.len() < probes {
                    targets.push(wire_u32(r.0, "worker id"));
                }
            }
        }
        while targets.len() < probes {
            targets.push(wire_u32(rng.gen_range(0..self.workers), "worker id"));
        }
        self.live_res[lj] += probes;
        targets
    }

    /// `count` fresh probe targets for job `lj`, drawn from `rng` and
    /// counted as live reservations. None while the scheduler is down.
    pub fn random_probes(&mut self, lj: usize, count: usize, rng: &mut impl Rng) -> Vec<u32> {
        if !self.up {
            return Vec::new();
        }
        self.live_res[lj] += count;
        (0..count)
            .map(|_| wire_u32(rng.gen_range(0..self.workers), "worker id"))
            .collect()
    }

    /// Decide a worker's slot offer for live job `lj` (Pseudocode 2).
    /// Sparrow variants never refuse: they answer task-or-no-task.
    /// Hopper accepts a refusable offer only below the job's virtual
    /// size, or below its ε-fair floor `share` (see [`fair_share`]);
    /// non-refusable offers are always accepted. An accepted Hopper
    /// offer always places work when it can: the virtual size *is* the
    /// speculation budget, so with no pending original or flagged
    /// candidate it sends an extra copy of the longest-remaining running
    /// task ("faster clearing of tasks is overall beneficial", §4.1).
    /// Returns the task and whether the copy is speculative, with the
    /// book updated as for an assignment in flight; `None` is a refusal.
    pub fn serve(
        &mut self,
        lj: usize,
        kind: ResponseKind,
        worker: MachineId,
        policy: DecPolicy,
        share: Option<f64>,
        now: SimTime,
    ) -> Option<(TaskRef, bool)> {
        let hopper = policy == DecPolicy::Hopper;
        if hopper {
            let v = self.vsize(lj);
            let occupied = self.occupied[lj] as f64;
            let below_floor = share.is_some_and(|f| occupied < f.min(v));
            if !scheduler_accepts(kind, occupied, v) && !below_floor {
                return None;
            }
        }
        let (task, speculative) = self.pick_work(lj, worker, hopper, now)?;
        self.occupied[lj] += 1;
        if speculative {
            // Consume the candidate so the next offer goes to the next
            // straggler.
            self.candidates[lj].retain(|c| c.task != task);
        } else {
            self.pending_orig[lj] -= 1;
        }
        Some((task, speculative))
    }

    /// The next work item for job `lj` on `worker`: a pending original
    /// (preferring data-local, skipping tasks claimed by an in-flight
    /// assignment), else the first still-valid speculation candidate,
    /// else — only with `allow_extra_spec` — an extra copy of the
    /// longest-estimated-remaining running task, where a fresh copy
    /// could plausibly finish first (t_rem > t_new, the §3 benefit rule).
    fn pick_work(
        &mut self,
        lj: usize,
        worker: MachineId,
        allow_extra_spec: bool,
        now: SimTime,
    ) -> Option<(TaskRef, bool)> {
        if self.pending_orig[lj] > 0 {
            if let Some(task) = self.next_unclaimed_original(lj, worker) {
                self.claimed[lj].insert(task);
                return Some((task, false));
            }
        }
        while let Some(cand) = self.candidates[lj].front().copied() {
            let t = &self.jobs[lj].phases()[cand.task.phase].tasks[cand.task.task];
            let running = t.running_copies();
            if t.is_finished() || running == 0 || running >= MAX_RUNNING_COPIES {
                self.candidates[lj].pop_front();
                continue;
            }
            return Some((cand.task, true));
        }
        if allow_extra_spec {
            return self.jobs[lj].best_extra_speculation(now).map(|t| (t, true));
        }
        None
    }

    /// First unlaunched, unclaimed original in eligible phases,
    /// preferring one whose input is local to `m`.
    ///
    /// Walks the job's pending-task indices instead of every task: the
    /// preferred pick is the minimum of the first unclaimed replica-free
    /// task and the first unclaimed task local to `m` (a task scan
    /// returns whichever comes first in `(phase, task)` order), and the
    /// fallback is the first unclaimed pending task overall. The claimed
    /// set only holds in-flight assignments, so the skip is a handful of
    /// probes, not a rescan.
    fn next_unclaimed_original(&self, lj: usize, m: MachineId) -> Option<TaskRef> {
        let jr = &self.jobs[lj];
        let claimed = &self.claimed[lj];
        let no_pref = jr.pending_no_replica_tasks().find(|t| !claimed.contains(t));
        let local = jr.pending_local_tasks(m).find(|t| !claimed.contains(t));
        let picked = match (no_pref, local) {
            (Some(a), Some(b)) => Some(a.min(b)),
            (a, None) => a,
            (None, b) => b,
        }
        .or_else(|| jr.pending_tasks().find(|t| !claimed.contains(t)));
        #[cfg(debug_assertions)]
        assert_eq!(
            picked,
            self.scan_next_unclaimed_original(lj, m),
            "pending index disagrees with the task scan"
        );
        picked
    }

    /// The O(tasks) task scan, kept as the debug oracle of
    /// [`SchedBook::next_unclaimed_original`]. "Pending" is
    /// `needs_original` (no running copy, unfinished) rather than "never
    /// launched", so tasks requeued by a machine failure are assignable
    /// again.
    #[cfg(debug_assertions)]
    fn scan_next_unclaimed_original(&self, lj: usize, m: MachineId) -> Option<TaskRef> {
        let mut fallback = None;
        for (pi, p) in self.jobs[lj].phases().iter().enumerate() {
            if !p.eligible || p.is_complete() {
                continue;
            }
            for (ti, t) in p.tasks.iter().enumerate() {
                let tr = TaskRef::new(pi, ti);
                if !t.needs_original() || self.claimed[lj].contains(&tr) {
                    continue;
                }
                let replicas = self.jobs[lj].replicas(tr);
                if replicas.is_empty() || replicas.contains(&m) {
                    return Some(tr);
                }
                if fallback.is_none() {
                    fallback = Some(tr);
                }
            }
        }
        fallback
    }

    /// The refusal payload (Pseudocode 3): this scheduler's smallest
    /// unsatisfied live job other than `asking` — below its virtual size
    /// with launchable work. Ties go to the lowest id. ε-fairness does
    /// not reorder this channel: a hard priority inversion (large
    /// deficient jobs pre-empting every small job) costs far more than
    /// the guarantee is worth, so ε acts only through the accept test
    /// (see DESIGN.md, deviations).
    pub fn best_unsatisfied(&self, asking: usize) -> Option<UnsatisfiedJob> {
        let mut best: Option<UnsatisfiedJob> = None;
        for &lj in &self.live {
            if lj == asking || !self.launchable(lj) {
                continue;
            }
            let v = self.vsize(lj);
            if (self.occupied[lj] as f64) < v && best.is_none_or(|b| v < b.virtual_size) {
                best = Some(UnsatisfiedJob {
                    job: self.wire_job(lj),
                    virtual_size: v,
                });
            }
        }
        best
    }

    /// An assignment reached no slot (its machine failed, or the episode
    /// ended first): release its claim and undo the send-side books.
    pub fn assign_failed(&mut self, lj: usize, task: TaskRef, speculative: bool) {
        if !speculative {
            self.claimed[lj].remove(&task);
        }
        self.undo_assign(lj, task, speculative);
    }

    /// An assignment reached its promised slot (`consumed`: it ate one
    /// of the job's reservations parked there). Releases its claim and
    /// re-validates it against ground truth: the job may have completed
    /// (and been retired), or the task may have finished, lost the copy
    /// a speculative assignment was meant to race, or already got its
    /// original (`needs_original` also covers tasks a machine failure
    /// requeued). Returns whether the copy may run; a stale assignment
    /// has its accounting undone.
    pub fn assign_landed(
        &mut self,
        lj: usize,
        task: TaskRef,
        speculative: bool,
        consumed: bool,
    ) -> bool {
        if !speculative {
            self.claimed[lj].remove(&task);
        }
        if consumed {
            self.reservations_gone(lj, 1);
        }
        let stale = !self.is_live(lj) || {
            let t = &self.jobs[lj].phases()[task.phase].tasks[task.task];
            t.is_finished()
                || (speculative && t.running_copies() == 0)
                || (!speculative && !t.needs_original())
        };
        if stale {
            self.undo_assign(lj, task, speculative);
        }
        !stale
    }

    /// Undo an unlaunched assignment: it leaves the occupancy, and its
    /// original returns to the pending pool if it truly is still
    /// pending. A retired job is never dereferenced (all its tasks
    /// finished, so nothing is pending).
    fn undo_assign(&mut self, lj: usize, task: TaskRef, speculative: bool) {
        self.vacate(lj, 1);
        if !speculative
            && self.is_live(lj)
            && self.jobs[lj].phases()[task.phase].tasks[task.task].needs_original()
        {
            self.pending_orig[lj] += 1;
        }
    }

    /// Resolve a copy's completion at `now`: the race is won, running
    /// siblings become losers, β learns the copy's straggler multiplier
    /// (from `measured` when the caller timed the copy itself, else from
    /// the copy's own duration; skipped while the scheduler is down), and
    /// newly eligible phases' originals turn pending. `None` when the
    /// completion is stale (the copy was killed or its task already
    /// finished).
    pub fn copy_finished(
        &mut self,
        lj: usize,
        copy: CopyRef,
        now: SimTime,
        measured: Option<SimTime>,
    ) -> Option<Finished> {
        let job = &mut self.jobs[lj];
        // Collect running siblings *before* resolving the race.
        let mut losers = InlineVec::new();
        for (i, c) in job.copies(copy.task).enumerate() {
            if i != copy.copy && c.status == CopyStatus::Running {
                losers.push((CopyRef::new(copy.task.phase, copy.task.task, i), c.machine));
            }
        }
        let out = job.finish_copy(copy, now)?;
        let spec_won = job.copy(copy).speculative;
        let mut phase_probes = InlineVec::new();
        for &pi in &out.newly_eligible {
            let tasks = job.phases()[pi].num_tasks();
            self.pending_orig[lj] += tasks;
            phase_probes.push(probe_count(tasks, self.probe_ratio));
        }
        self.wd_progress[lj] += 1;
        self.vacate(lj, 1);
        if out.nominal.as_millis() > 0 && self.up {
            let duration = measured.unwrap_or(out.duration);
            self.beta
                .observe(duration.as_millis() as f64 / out.nominal.as_millis() as f64);
        }
        Some(Finished {
            losers,
            spec_won,
            phase_probes,
            job_done: out.job_done,
        })
    }

    /// `n` of job `lj`'s copies left the scheduler's occupancy count
    /// (killed, lost, or never launched).
    pub fn vacate(&mut self, lj: usize, n: usize) {
        self.occupied[lj] = self.occupied[lj].saturating_sub(n);
    }

    /// `n` of job `lj`'s reservations were consumed or evaporated.
    pub fn reservations_gone(&mut self, lj: usize, n: usize) {
        self.live_res[lj] = self.live_res[lj].saturating_sub(n);
    }

    /// `n` of job `lj`'s originals went back to pending (their last
    /// running copy died with a machine). Returns the re-probe count.
    pub fn requeue(&mut self, lj: usize, n: usize) -> usize {
        self.pending_orig[lj] += n;
        probe_count(n, self.probe_ratio)
    }

    /// Scan pass one for job `lj`: refresh the speculation candidates of
    /// a job with running copies. A crashed scheduler scans nothing.
    pub fn refresh_candidates(&mut self, lj: usize, speculator: &Speculator, now: SimTime) {
        if self.up && self.jobs[lj].occupied_slots() > 0 {
            speculator.candidates_into(
                &self.jobs[lj],
                now,
                &mut self.scan_scratch,
                &mut self.candidates[lj],
            );
        }
    }

    /// Scan pass two for job `lj`: a job whose reservations were all
    /// consumed while launchable work remains would starve, so it is
    /// re-probed for its current phase. Returns the probe count.
    pub fn starved(&self, lj: usize) -> Option<usize> {
        (self.up && self.live_res[lj] == 0 && self.launchable(lj))
            .then(|| probe_count(self.jobs[lj].current_remaining(), self.probe_ratio))
    }

    /// Both scan passes over every live job of this book: returns the
    /// `(lj, probes)` re-probes, ascending.
    pub fn scan(&mut self, speculator: &Speculator, now: SimTime) -> Vec<(usize, usize)> {
        for idx in 0..self.live.len() {
            self.refresh_candidates(self.live[idx], speculator, now);
        }
        self.live
            .iter()
            .filter_map(|&lj| self.starved(lj).map(|p| (lj, p)))
            .collect()
    }

    /// A crash loses all scheduler-side scratch: claims, candidate
    /// lists, the learned β. Ground truth (running copies) lives on the
    /// workers and survives.
    pub fn crash(&mut self) {
        self.up = false;
        for &lj in &self.live {
            self.candidates[lj] = VecDeque::new();
            self.claimed[lj] = HashSet::new();
        }
        self.beta = BetaEstimator::with_prior(1.5);
    }

    /// Recovery rebuilds every live job's counters from ground truth.
    /// Returns `(lj, probes)` re-probes for the jobs with pending
    /// originals; candidates regrow at the next scan, β re-learns from
    /// scratch.
    pub fn recover(&mut self) -> Vec<(usize, usize)> {
        self.up = true;
        let mut reprobe = Vec::new();
        for idx in 0..self.live.len() {
            let lj = self.live[idx];
            self.resync(lj);
            if self.pending_orig[lj] > 0 {
                reprobe.push((lj, probe_count(self.pending_orig[lj], self.probe_ratio)));
            }
        }
        reprobe
    }

    /// Reset job `lj`'s occupancy and pending counts to ground truth.
    fn resync(&mut self, lj: usize) {
        self.occupied[lj] = self.jobs[lj].occupied_slots();
        self.pending_orig[lj] = self.jobs[lj].pending_count();
    }

    /// One watchdog check of job `lj` (faults only). `None` once the job
    /// completed: the watchdog dies with it. Otherwise the delay to the
    /// next check and, for a stall, `Some(probes)`. Progress since the
    /// last check resets the backoff; an owner that is down only keeps
    /// the clock running (its recovery reconciles). A genuine stall —
    /// every probe/reply chain died — drops claims stuck on lost assigns,
    /// resyncs the counters to ground truth and asks for a fresh probe
    /// round (0 probes if nothing is launchable), with capped exponential
    /// backoff and a retry budget that wraps around, so a job can degrade
    /// but never deadlock.
    pub fn watchdog(&mut self, lj: usize, backoff: &BackoffPolicy) -> Option<(u64, Option<usize>)> {
        if !self.is_live(lj) {
            return None;
        }
        if self.wd_progress[lj] != self.wd_seen[lj] {
            self.wd_seen[lj] = self.wd_progress[lj];
            self.wd_attempt[lj] = 0;
            return Some((backoff.delay_ms(0), None));
        }
        if !self.up {
            return Some((backoff.delay_ms(0), None));
        }
        self.claimed[lj] = HashSet::new();
        self.resync(lj);
        let probes = if self.launchable(lj) {
            probe_count(self.jobs[lj].current_remaining(), self.probe_ratio)
        } else {
            0
        };
        let attempt = self.wd_attempt[lj];
        self.wd_attempt[lj] = backoff.next_attempt(attempt);
        Some((backoff.delay_ms(attempt), Some(probes)))
    }

    /// Complete and **retire** job `lj` at `now`: drop its task/copy
    /// state and scratch, and remove it from the live list. From this
    /// instant the job is observationally gone — indexing it panics (the
    /// retirement invariant, DESIGN.md).
    pub fn retire(&mut self, lj: usize, now: SimTime) -> JobResult {
        // Replace (not clear): `clear` keeps capacity alive forever.
        self.candidates[lj] = VecDeque::new();
        self.claimed[lj] = HashSet::new();
        let pos = self.live.binary_search(&lj).expect("completed job is live");
        self.live.remove(pos);
        let retired = self.jobs.retire(lj);
        self.over_limit_launches += retired.over_limit_launches as u64;
        JobResult {
            job: retired.id,
            size_tasks: retired.spec.size_tasks(),
            dag_len: retired.spec.dag_len(),
            arrival: retired.spec.arrival,
            completed: now,
        }
    }

    /// A job's stuck-state summary for the event-budget panic.
    pub fn describe(&self, lj: usize) -> String {
        let job = &self.jobs[lj];
        format!(
            "job {}: pending={} claimed={} occupied={} live_res={} cands={} running={} total_rem={} current_rem={} vsize={:.1}",
            self.job_id(lj),
            self.pending_orig[lj],
            self.claimed[lj].len(),
            self.occupied[lj],
            self.live_res[lj],
            self.candidates[lj].len(),
            job.occupied_slots(),
            job.total_remaining(),
            job.current_remaining(),
            self.vsize(lj),
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A one-scheduler book holding one single-phase job per entry of
    /// `sizes` (that many tasks each, scripted 10 s originals and 100 ms
    /// speculative copies, no replicas).
    fn book(sizes: &[usize]) -> SchedBook {
        let mut b = SchedBook::new(0, 1, sizes.len(), 2.0, 8);
        for (j, &n) in sizes.iter().enumerate() {
            b.admit(
                j,
                JobRun::scripted(j, SimTime::ZERO, &vec![(10_000, 100); n]),
            );
        }
        b
    }

    fn launch(b: &mut SchedBook, lj: usize, task: TaskRef, m: usize) {
        let mut rng = hopper_sim::rng_from_seed(0);
        b.jobs[lj].launch_copy(
            task,
            MachineId(m),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &mut rng,
        );
    }

    #[test]
    fn advertisement_skips_asking_satisfied_and_unlaunchable_jobs() {
        // Job 0 is the smallest and asks; job 1 is at its virtual size;
        // job 2 has nothing launchable; only job 3 qualifies.
        let mut b = book(&[1, 2, 3, 8]);
        b.occupied[1] = b.vsize(1).ceil() as usize;
        b.pending_orig[2] = 0;
        let adv = b.best_unsatisfied(0).expect("job 3 is unsatisfied");
        assert_eq!(adv.job, 3);
        assert_eq!(adv.virtual_size, b.vsize(3));
        // Asked by job 3, the smallest unsatisfied job is job 0.
        assert_eq!(b.best_unsatisfied(3).map(|u| u.job), Some(0));
        // With job 3 satisfied too, nothing is advertised to job 0.
        b.occupied[3] = b.vsize(3).ceil() as usize;
        assert_eq!(b.best_unsatisfied(0), None);
    }

    #[test]
    fn advertisement_prefers_smallest_virtual_size_then_lowest_id() {
        let b = book(&[5, 3, 3, 7]);
        assert_eq!(b.vsize(1), b.vsize(2));
        assert!(b.vsize(1) < b.vsize(0));
        let adv = b.best_unsatisfied(usize::MAX).expect("all unsatisfied");
        assert_eq!(adv.job, 1, "tie between jobs 1 and 2 goes to the lower id");
        // Global ids: scheduler 1 of 3 owns jobs 1, 4, 7, ...
        let mut b = SchedBook::new(1, 3, 9, 2.0, 8);
        for (lj, n) in [(0, 4), (1, 2), (2, 2)] {
            let j = b.job_id(lj);
            b.admit(
                lj,
                JobRun::scripted(j, SimTime::ZERO, &vec![(10_000, 100); n]),
            );
        }
        assert_eq!(
            b.best_unsatisfied(usize::MAX)
                .map(|u| (owner(u.job as usize, 3).0, u.job)),
            Some((1, 4))
        );
    }

    #[test]
    fn pick_order_is_original_then_candidate_then_extra_copy() {
        let mut b = book(&[3]);
        let t = |i| TaskRef::new(0, i);
        b.jobs[0].set_replicas(t(0), &[MachineId(5)]);
        b.jobs[0].set_replicas(t(1), &[MachineId(7)]);
        b.jobs[0].set_replicas(t(2), &[MachineId(5)]);
        let now = SimTime::from_millis(1_000);
        // Originals first, local to the offering worker preferred; a
        // claimed original is never handed out twice.
        assert_eq!(b.pick_work(0, MachineId(7), true, now), Some((t(1), false)));
        assert_eq!(b.pick_work(0, MachineId(7), true, now), Some((t(0), false)));
        assert_eq!(b.pick_work(0, MachineId(5), true, now), Some((t(2), false)));
        assert_eq!(b.next_unclaimed_original(0, MachineId(5)), None);
        // All three run; flagged candidates come next, skipping any that
        // is no longer a valid straggler (its task has no running copy).
        for i in 0..3 {
            launch(&mut b, 0, t(i), 1 + i);
        }
        b.pending_orig[0] = 0;
        let flag = |task| Candidate {
            task,
            est_remaining: SimTime::from_millis(9_000),
        };
        b.candidates[0] = VecDeque::from([flag(t(2))]);
        assert_eq!(b.pick_work(0, MachineId(4), false, now), Some((t(2), true)));
        // No candidate left: a Guideline-3 extra copy of the
        // longest-remaining solo task, and only when allowed.
        b.candidates[0].clear();
        assert_eq!(b.pick_work(0, MachineId(4), false, now), None);
        assert_eq!(b.pick_work(0, MachineId(4), true, now), Some((t(0), true)));
    }

    /// Pins a known overshoot of the copy limit (DESIGN.md, "Deviations
    /// from the paper"): the extra-copy pick sees only launched copies,
    /// and `assign_landed` does not re-check the limit, so two offers
    /// inside one round trip both send an extra copy of the same solo
    /// task and three copies run. A fix changes results; until then this
    /// test records today's behaviour.
    #[test]
    fn in_flight_extra_copies_overshoot_the_copy_limit() {
        let mut b = book(&[4]);
        for i in 0..4 {
            launch(&mut b, 0, TaskRef::new(0, i), 1 + i);
        }
        b.pending_orig[0] = 0;
        b.occupied[0] = 4;
        let now = SimTime::from_millis(1_000);
        let hopper = DecPolicy::Hopper;
        // V = 4 · 2/1.5 ≈ 5.33: both offers land below it, and both pick
        // the same longest-remaining solo task.
        let straggler = TaskRef::new(0, 0);
        for m in [5, 6] {
            let served = b.serve(0, ResponseKind::Refusable, MachineId(m), hopper, None, now);
            assert_eq!(served, Some((straggler, true)));
        }
        let mut rng = hopper_sim::rng_from_seed(0);
        for m in [5, 6] {
            assert!(b.assign_landed(0, straggler, true, false));
            b.jobs[0].launch_copy(straggler, MachineId(m), true, now, SimTime::ZERO, &mut rng);
        }
        let running = b.jobs[0].phases()[0].tasks[0].running_copies();
        assert_eq!(running, 3);
        assert!(running > MAX_RUNNING_COPIES);
    }

    #[test]
    fn serve_refuses_at_virtual_size_unless_non_refusable() {
        let mut b = book(&[2]);
        let now = SimTime::ZERO;
        let full = b.vsize(0).ceil() as usize;
        b.occupied[0] = full;
        let m = MachineId(0);
        let hopper = DecPolicy::Hopper;
        assert_eq!(
            b.serve(0, ResponseKind::Refusable, m, hopper, None, now),
            None
        );
        // Sparrow never refuses.
        let sparrow = b.serve(0, ResponseKind::Refusable, m, DecPolicy::Sparrow, None, now);
        assert_eq!(sparrow, Some((TaskRef::new(0, 0), false)));
        assert_eq!((b.occupied[0], b.pending_orig[0]), (full + 1, 1));
        // Non-refusable offers are always taken.
        let taken = b.serve(0, ResponseKind::NonRefusable, m, hopper, None, now);
        assert_eq!(taken, Some((TaskRef::new(0, 1), false)));
        // The ε-fair floor is capped at the virtual size: a job at its
        // virtual size is refused even far below its fair share.
        let floor = fair_share(Some(0.1), 100, 1);
        assert_eq!(floor, Some(90.0));
        assert_eq!(
            b.serve(0, ResponseKind::Refusable, m, hopper, floor, now),
            None
        );
    }

    /// A two-slot worker with one reservation for each of `jobs` parked,
    /// its episode opened and its first offer made (Sparrow: FCFS, no
    /// randomness).
    fn offering(jobs: &[u32]) -> (Worker, Offer) {
        let mut w = Worker::new(2);
        for &job in jobs {
            w.queue.push(Reservation {
                job,
                remaining_tasks: 1,
                virtual_size: 1.0,
            });
        }
        assert!(w.open_episode(2));
        assert!(!w.open_episode(2), "one episode at a time");
        let mut rng = hopper_sim::rng_from_seed(0);
        let (offer, switched) = w.step(
            DecPolicy::Sparrow,
            2,
            1,
            &mut PickScratch::default(),
            &mut rng,
        );
        assert!(!switched);
        (w, offer.expect("a parked reservation is offered"))
    }

    #[test]
    fn worker_drops_stale_replies_untouched() {
        let (mut w, o) = offering(&[3, 4]);
        assert_eq!((o.job, o.inc, o.ep), (3, 0, 0));
        let before = format!("{w:?}");
        // Wrong incarnation or wrong epoch: refusal and assign alike are
        // dropped without a trace.
        for (inc, ep) in [(o.inc + 1, o.ep), (o.inc, o.ep + 1)] {
            assert!(!w.take_reply(inc, ep));
            assert_eq!(w.assigned(inc, ep, 3), None);
            assert_eq!(format!("{w:?}"), before);
        }
        // The current assign ends the episode and eats the reservation;
        // a duplicate of it is then stale.
        assert_eq!(w.assigned(o.inc, o.ep, 3), Some(true));
        assert!(!w.has_episode());
        assert_eq!(w.queue.len(), 1);
        assert_eq!(w.free, 1, "the promised slot went to the copy");
        assert_eq!(w.assigned(o.inc, o.ep, 4), None);
    }

    #[test]
    fn lease_reclaims_only_when_no_reply_moved_the_sequence() {
        let (mut w, o) = offering(&[3]);
        // A refusal reached the episode: the lease armed on the offer is
        // void, and the episode carries on.
        assert!(w.take_reply(o.inc, o.ep));
        assert!(!w.lease_expired(o.lease));
        assert!(w.has_episode());
        assert_eq!(w.free, 1);
        // The next offer's reply never comes: its lease reclaims the slot.
        let mut rng = hopper_sim::rng_from_seed(0);
        let o2 = w
            .step(
                DecPolicy::Sparrow,
                2,
                1,
                &mut PickScratch::default(),
                &mut rng,
            )
            .0
            .expect("offer");
        assert!(w.lease_expired(o2.lease));
        assert!(!w.has_episode());
        assert_eq!(w.free, 2);
        // Once, and the late reply is stale.
        assert!(!w.lease_expired(o2.lease));
        assert!(!w.take_reply(o2.inc, o2.ep));
    }

    #[test]
    fn worker_failure_hands_back_reservations_and_slots() {
        let (mut w, o) = offering(&[3, 4, 3]);
        let lost: Vec<u32> = w.fail().iter().map(|r| r.job).collect();
        assert_eq!(lost, vec![3, 4, 3]);
        assert!(w.queue.is_empty());
        assert_eq!(w.free, 0);
        assert!(!w.has_episode());
        assert_eq!(w.assigned(o.inc, o.ep, 3), None, "the slot died");
        assert!(!w.lease_expired(o.lease));
        assert!(!w.open_episode(2));
        w.recover();
        assert_eq!(w.free, 2);
    }

    /// A stamp past `u32::MAX` panics, naming it, instead of wrapping
    /// into a value a stale reply could echo.
    #[test]
    #[should_panic(expected = "worker incarnation 4294967296 does not fit")]
    fn worker_incarnation_past_u32_panics() {
        let mut w = Worker::new(2);
        w.inc = u32::MAX;
        w.fail();
    }

    #[test]
    #[should_panic(expected = "slot released twice")]
    fn double_slot_release_panics() {
        let mut w = Worker::new(2);
        w.release_slot();
    }

    #[test]
    fn idle_step_returns_the_promised_slot() {
        let (mut w, o) = offering(&[3]);
        assert_eq!(w.free, 1);
        // Sparrow's no-task eats the only reservation; the next step
        // finds nothing to offer, so the episode ends idle.
        assert!(w.take_reply(o.inc, o.ep));
        assert!(w.refused(DecPolicy::Sparrow, 3, None));
        let mut rng = hopper_sim::rng_from_seed(0);
        assert_eq!(
            w.step(
                DecPolicy::Sparrow,
                2,
                1,
                &mut PickScratch::default(),
                &mut rng
            ),
            (None, false)
        );
        assert_eq!(w.free, 2);
        assert!(!w.has_episode());
        assert!(!w.take_reply(o.inc, o.ep), "the idle end moved the epoch");
    }
}
