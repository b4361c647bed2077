//! Event-driven decentralized (Sparrow-style) scheduling simulator.
//!
//! Architecture per the paper's §5 / Figure 4: multiple autonomous
//! schedulers each own a subset of jobs; every scheduler pushes
//! *reservation requests* ("probes") for its tasks to randomly chosen
//! workers; a worker with a free slot runs a *late-binding* exchange —
//! it asks a chosen reservation's scheduler for a task, and the scheduler
//! answers with a concrete task (original or speculative) or a refusal.
//! Every message pays [`DecConfig::msg_latency`].
//!
//! Three policies share the machinery:
//!
//! - **Sparrow** (baseline): probe ratio 2, FCFS worker queues, and
//!   task-or-no-task responses (a no-task consumes the reservation);
//! - **Sparrow-SRPT** (the paper's aggressive baseline, §7.1): worker
//!   picks the queued job with the fewest remaining tasks, plus
//!   best-effort speculation;
//! - **Hopper**: worker picks by smallest *virtual size*, schedulers may
//!   *refuse* when a job is already at its desired speculation level
//!   (Pseudocode 2), refusals advertise the smallest unsatisfied job, and
//!   after `refusal_threshold` refusals the worker concludes the system is
//!   not slot-constrained and switches to Guideline 3 — a virtual-size-
//!   weighted random pick served with a non-refusable response
//!   (Pseudocode 3). Virtual-size updates are piggybacked on every
//!   scheduler→worker message (§5.3).

use std::collections::{HashMap, VecDeque};

use crate::audit::{Auditor, MsgKind};
use crate::faults::{FaultConfig, MsgFaults, SchedEv, SchedulerChain};
use hopper_cluster::{
    ClusterConfig, CopyRef, DynEvent, DynamicsConfig, JobRun, JobSlab, MachineDynamics, MachineId,
    Machines, TaskRef,
};
use hopper_core::protocol::{
    pick_fcfs, pick_srpt, scheduler_accepts, BackoffPolicy, FreeSlotEpisode, Reservation,
    ResponseKind, UnsatisfiedJob, WorkerAction,
};
use hopper_core::{virtual_size, BetaEstimator};
use hopper_metrics::{JobDigest, JobResult, RunReport, SeriesCollector, TelemetrySnapshot};
use hopper_sim::{EventQueue, SeedSequence, SimTime};
use hopper_spec::{Candidate, Speculator};
use hopper_workload::{ArrivalSource, Trace, TraceJob};
use rand::rngs::StdRng;
use rand::Rng;

/// Which decentralized scheduler to simulate.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DecPolicy {
    /// Stock Sparrow: FCFS queues, batched power-of-two probes.
    Sparrow,
    /// Sparrow + SRPT worker queues + best-effort speculation (§7.1's
    /// aggressive baseline).
    SparrowSrpt,
    /// Decentralized Hopper (Pseudocodes 2 & 3).
    Hopper,
}

impl DecPolicy {
    /// Display name for experiment tables.
    pub fn name(&self) -> &'static str {
        match self {
            DecPolicy::Sparrow => "Sparrow",
            DecPolicy::SparrowSrpt => "Sparrow-SRPT",
            DecPolicy::Hopper => "Hopper(dec)",
        }
    }
}

/// Decentralized simulation configuration.
#[derive(Debug, Clone)]
pub struct DecConfig {
    /// Cluster shape. `handoff_ms` should be 0: Sparrow talks to
    /// long-lived executors shared across jobs (§6.1).
    pub cluster: ClusterConfig,
    /// Number of autonomous schedulers (10 in the paper's deployment, 50
    /// in its scaling simulations).
    pub num_schedulers: usize,
    /// Reservations per task (the probe ratio; 2 for Sparrow, 4 for
    /// Hopper, swept in Figures 5a and 11).
    pub probe_ratio: f64,
    /// One-way message latency between schedulers and workers.
    pub msg_latency: SimTime,
    /// Refusals before a worker concludes the system is not capacity
    /// constrained (Figure 5b; 2–3 suffice).
    pub refusal_threshold: usize,
    /// Straggler-scan period at each scheduler.
    pub scan_interval: SimTime,
    /// Speculation policy (shared by all jobs).
    pub speculator: Speculator,
    /// ε-fairness knob (§4.3): `Some(0.1)` guarantees every job at least
    /// `(1−ε)·S/N` slots via the unsatisfied-job channel; `None` disables.
    pub fairness_eps: Option<f64>,
    /// Root seed.
    pub seed: u64,
    /// Safety valve on total processed events.
    pub max_events: u64,
    /// Cluster-dynamics plane: machine speed heterogeneity, transient
    /// slowdowns, failures. The default ([`DynamicsConfig::off`]) is
    /// bit-identical to a dynamics-free build.
    pub dynamics: DynamicsConfig,
    /// Message-fault plane: RPC loss/jitter/duplication, scheduler
    /// crash/recover chains, and the timeout/lease hardening knobs. The
    /// default ([`FaultConfig::off`]) is bit-identical to a fault-free
    /// build.
    pub faults: FaultConfig,
    /// Execution shards for the conservative-PDES engine
    /// (`crates/hopper-decentral/src/shard.rs`). `0` (the default) runs
    /// the serial driver in this file; any value `>= 1` partitions
    /// schedulers and workers across that many shards and runs them on
    /// threads in lockstep conservative windows. Sharded results are
    /// bit-identical across *all* shard counts `>= 1` for a fixed
    /// config, but are a distinct (documented) equivalence family from
    /// the serial driver — see DESIGN.md, "Sharded execution".
    pub shards: usize,
    /// Telemetry window width (simulation ms). `0` (the default)
    /// disables the windowed time-series entirely; any value `> 0`
    /// records per-window series as a pure observer — simulation
    /// results are bit-identical either way (see DESIGN.md,
    /// "Telemetry plane").
    pub telemetry_window_ms: u64,
}

impl Default for DecConfig {
    fn default() -> Self {
        DecConfig {
            cluster: ClusterConfig {
                machines: 500,
                slots_per_machine: 2,
                handoff_ms: 0,
                ..Default::default()
            },
            num_schedulers: 10,
            probe_ratio: 4.0,
            msg_latency: SimTime::from_millis(1),
            refusal_threshold: 2,
            scan_interval: SimTime::from_millis(200),
            speculator: Speculator::Late(hopper_spec::SpecConfig {
                min_elapsed: SimTime::from_millis(300),
                ..Default::default()
            }),
            fairness_eps: Some(0.1),
            seed: 1,
            max_events: 500_000_000,
            dynamics: DynamicsConfig::off(),
            faults: FaultConfig::off(),
            shards: 0,
            telemetry_window_ms: 0,
        }
    }
}

/// Aggregate counters of one decentralized run.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct DecStats {
    /// Original copies launched.
    pub orig_launched: u64,
    /// Speculative copies launched.
    pub spec_launched: u64,
    /// Tasks won by a speculative copy.
    pub spec_won: u64,
    /// Reservation messages sent.
    pub reservations: u64,
    /// Worker→scheduler responses sent.
    pub responses: u64,
    /// Scheduler refusals sent.
    pub refusals: u64,
    /// Episodes that switched to Guideline 3 (refusal threshold reached).
    pub guideline3_switches: u64,
    /// Messages dropped by the fault plane (always 0 faults-off).
    pub msgs_lost: u64,
    /// Duplicate deliveries generated by the fault plane.
    pub msgs_duplicated: u64,
    /// Probe messages re-sent by watchdog retries and scheduler
    /// recoveries.
    pub msgs_retried: u64,
    /// Per-job watchdog timeouts that fired on a stalled job.
    pub timeouts_fired: u64,
    /// Promised slots reclaimed by the response lease after a lost or
    /// stale-dropped reply.
    pub orphan_reclaimed: u64,
    /// Scheduler crash incidents applied.
    pub sched_failovers: u64,
    /// Events processed.
    pub events: u64,
    /// Completion time of the last job.
    pub makespan: SimTime,
}

impl DecStats {
    /// Flatten into the driver-agnostic stats core shared with the
    /// centralized driver. `messages` sums the *protocol* messages —
    /// reservations, worker responses, and refusals (the counters the
    /// paper's overhead discussion is about). Kill notifications to
    /// losing sibling copies also cross the wire but are not counted
    /// anywhere in `DecStats`, so they are not included here.
    pub fn core(&self) -> hopper_metrics::CoreStats {
        hopper_metrics::CoreStats {
            orig_launched: self.orig_launched,
            spec_launched: self.spec_launched,
            spec_won: self.spec_won,
            events: self.events,
            messages: self.reservations + self.responses + self.refusals,
            makespan: self.makespan,
        }
    }
}

/// Result of a decentralized run.
#[derive(Debug, Clone)]
pub struct DecOutput {
    /// Per-job outcomes (sorted by job id). Empty for runs that do not
    /// retain jobs ([`run_source`]); their per-job statistics live in
    /// the report's digest.
    pub jobs: Vec<JobResult>,
    /// Aggregate counters.
    pub stats: DecStats,
    /// The unified run-output surface: driver-agnostic core counters,
    /// streaming JCT digest, live-jobs high-water mark (for sharded
    /// runs, the sum of per-scheduler slab high-waters — an upper
    /// bound on the serial driver's global high-water), and (when
    /// `telemetry_window_ms > 0`) the windowed time-series.
    pub report: RunReport,
    /// Sharded-engine counters (`None` for the serial driver). These
    /// are observability only — never part of the determinism contract
    /// beyond `ShardStats`'s own documented fields.
    pub shard: Option<crate::shard::ShardStats>,
}

impl DecOutput {
    /// Mean job duration in milliseconds (exact in both modes).
    pub fn mean_duration_ms(&self) -> f64 {
        if self.jobs.is_empty() {
            self.report.digest.mean_ms()
        } else {
            hopper_metrics::mean_duration(&self.jobs)
        }
    }
}

/// Run `trace` under decentralized `policy`, retaining per-job results.
pub fn run(trace: &Trace, policy: DecPolicy, cfg: &DecConfig) -> DecOutput {
    run_source(ArrivalSource::from_trace(trace), policy, cfg, true)
}

/// Run any [`ArrivalSource`] under `policy`: a materialized trace, a
/// lazy stream (`ArrivalSource::from_stream`), or a replayed CSV trace
/// (`ArrivalSource::from_shared`). `retain_jobs` keeps per-job results;
/// without it the run has O(active jobs) job state — completed jobs
/// retire their task/copy state and per-job results fold into the
/// output's digest (`DecOutput::jobs` is empty). Simulation decisions do
/// not depend on the source variant or on `retain_jobs`.
/// `cfg.shards >= 1` selects the sharded conservative-PDES engine
/// (which clones the source per shard).
pub fn run_source(
    source: ArrivalSource<'_>,
    policy: DecPolicy,
    cfg: &DecConfig,
    retain_jobs: bool,
) -> DecOutput {
    if cfg.shards >= 1 {
        return crate::shard::run_sharded(source, policy, cfg, retain_jobs);
    }
    Decentral::new(source, policy, cfg, retain_jobs).run()
}

#[derive(Debug, Clone)]
enum Ev {
    /// Reservation lands in a worker queue.
    Reservation { worker: usize, res: Reservation },
    /// Worker offers its free slot to `job`'s scheduler. `inc` is the
    /// worker's incarnation at offer time: a machine failure bumps it, so
    /// replies referencing a slot that died with the machine are
    /// recognizably stale (always 0 while dynamics are off). `ep` is the
    /// worker's episode epoch at offer time (dedup key for the reply: a
    /// duplicated or lease-superseded reply echoes a dead epoch). `sinc`
    /// is the owning scheduler's incarnation at offer time — a scheduler
    /// crash bumps it, so offers addressed to the pre-crash scheduler
    /// are recognizably stale (always 0 while scheduler faults are off).
    Response {
        worker: usize,
        job: usize,
        kind: ResponseKind,
        inc: u64,
        ep: u64,
        sinc: u64,
    },
    /// Scheduler assigns a task to the worker's promised slot (echoes the
    /// offer's incarnation and episode epoch).
    Assign {
        worker: usize,
        job: usize,
        task: TaskRef,
        speculative: bool,
        inc: u64,
        ep: u64,
    },
    /// Scheduler declines the offer (with optional unsatisfied-job info;
    /// echoes the offer's incarnation and episode epoch).
    Refusal {
        worker: usize,
        job: usize,
        unsatisfied: Option<UnsatisfiedJob>,
        inc: u64,
        ep: u64,
    },
    /// A copy finished on `worker`.
    Finish {
        job: usize,
        copy: CopyRef,
        worker: usize,
    },
    /// Kill notification reaches the worker running a lost sibling
    /// (stamped with the worker's incarnation at race-resolution time —
    /// the slot return is dropped if the machine failed in flight).
    /// `copy` identifies the doomed copy: with faults on it keys the
    /// pending-kill ledger, making duplicated kills idempotent and lost
    /// kills recoverable at the copy's natural finish.
    Kill {
        worker: usize,
        job: usize,
        copy: CopyRef,
        inc: u64,
    },
    /// Periodic straggler scan (all schedulers).
    Scan,
    /// Machine-dynamics incident (slowdown / failure / recovery). Only
    /// ever queued when `DecConfig::dynamics` is enabled.
    Dyn(DynEvent),
    /// Scheduler crash/recover incident. Only ever queued when the
    /// fault plane's scheduler chains are enabled.
    SchedDyn(SchedEv),
    /// Response lease: fires `rpc_timeout_ms` after a worker's offer; if
    /// the worker's RPC sequence has not moved since (no reply of any
    /// kind was processed), the promised slot is reclaimed. Only ever
    /// queued when faults are enabled.
    Lease { worker: usize, seq: u64 },
    /// Per-job watchdog: fires on a backoff schedule; a job with no
    /// launch/finish progress since the last check is reconciled against
    /// ground truth and re-probed. Only ever queued when faults are
    /// enabled.
    JobTimeout { job: usize },
}

/// Conservation-ledger kind of a scheduler↔worker RPC — the five
/// message kinds the fault plane applies to. `None` for local events:
/// finishes (the executing worker observes its own copy), scans, and
/// dynamics/timer events never cross the simulated network.
fn msg_kind(ev: &Ev) -> Option<MsgKind> {
    match ev {
        Ev::Reservation { .. } => Some(MsgKind::Reservation),
        Ev::Response { .. } => Some(MsgKind::Response),
        Ev::Assign { .. } => Some(MsgKind::Assign),
        Ev::Refusal { .. } => Some(MsgKind::Refusal),
        Ev::Kill { .. } => Some(MsgKind::Kill),
        Ev::Finish { .. }
        | Ev::Scan
        | Ev::Dyn(_)
        | Ev::SchedDyn(_)
        | Ev::Lease { .. }
        | Ev::JobTimeout { .. } => None,
    }
}

struct WorkerState {
    queue: Vec<Reservation>,
    /// Slots neither running a copy nor promised to an in-flight episode.
    free: usize,
    /// Active late-binding episode (at most one in flight per worker).
    episode: Option<FreeSlotEpisode>,
    /// Value of the driver's completed-job counter when this queue last
    /// purged finished jobs' reservations. While no further job has
    /// completed, the queue provably holds only live reservations and the
    /// per-touch O(queue) purge scan is skipped.
    purged_at: u64,
}

struct Decentral<'a> {
    policy: DecPolicy,
    cfg: &'a DecConfig,
    queue: EventQueue<Ev>,
    machines: Machines,
    workers: Vec<WorkerState>,
    /// Undelivered arrivals, merged with `queue` by the run loop (an
    /// arrival precedes any queued event at the same instant — the
    /// order the historical pre-loaded arrival events produced).
    arrivals: ArrivalSource<'a>,
    /// Live jobs' runtime state; completed jobs are retired (their
    /// task/copy state dropped, stats folded into accumulators).
    jobs: JobSlab,
    /// Total jobs of the run (`jobs` only holds the live ones).
    num_jobs: usize,
    /// Placement randomness for lazily constructed `JobRun`s; consumed
    /// in arrival (= id) order, exactly as the eager constructor did.
    placement_rng: StdRng,
    /// Whether per-job `JobResult`s are retained (false for streaming).
    retain_jobs: bool,
    done: Vec<bool>,
    /// Whether the job's arrival has been processed; jobs are invisible
    /// to the scan rescue path until then.
    arrived: Vec<bool>,
    /// Live job ids in ascending order (arrivals come in id order, so a
    /// push maintains it; completion removes by binary search). Scans
    /// and dynamics walk this instead of every job id ever issued —
    /// identical iteration to the old `0..n` loops with their
    /// done/arrived guards, but O(live), and structurally incapable of
    /// touching a retired job.
    live: Vec<usize>,
    active_count: usize,
    arrivals_pending: usize,
    /// Scheduler-side occupancy (running + in-flight assignments) per job.
    occupied: Vec<usize>,
    pending_orig: Vec<usize>,
    /// Originals with an assignment in flight (guards against two
    /// concurrent slot offers claiming the same task).
    claimed: Vec<std::collections::HashSet<TaskRef>>,
    /// Live (unconsumed) reservations per job; when a job still has
    /// launchable work but its probes were all consumed (e.g. by stale
    /// speculative assignments), the scheduler re-probes at the next scan.
    live_res: Vec<usize>,
    /// Speculation candidates per job, consumed front-first (deque — the
    /// old `Vec::remove(0)` shifted the whole list per pop).
    candidates: Vec<VecDeque<Candidate>>,
    /// job → owning scheduler (round-robin).
    owner: Vec<usize>,
    /// scheduler → its *live* jobs in ascending id order (round-robin
    /// partition; insert at arrival, remove at retirement). The refusal
    /// path walks this instead of every job — and, per the retirement
    /// invariant, can never advertise a retired job.
    sched_jobs: Vec<Vec<usize>>,
    /// Jobs completed so far (the epoch for worker-queue purges).
    done_count: u64,
    /// Per-scheduler β estimator (learned from its own jobs' completions).
    beta_est: Vec<BetaEstimator>,
    scan_armed: bool,
    /// Machine speed/availability state; `None` when dynamics are off.
    dynamics: Option<MachineDynamics>,
    /// Per-worker incarnation, bumped on machine failure. In-flight
    /// messages that reference a worker slot carry the incarnation they
    /// were stamped with; a mismatch on delivery means the slot died with
    /// the machine.
    dyn_inc: Vec<u64>,
    /// Per-message fault sampler; `None` when faults are off (in which
    /// case `send_msg` degenerates to the historical exactly-once push).
    faults: Option<MsgFaults>,
    /// Scheduler crash chains; `None` unless faults with a nonzero
    /// scheduler crash rate are enabled.
    sched_chain: Option<SchedulerChain>,
    /// Per-scheduler liveness (all true while scheduler faults are off).
    sched_up: Vec<bool>,
    /// Per-scheduler incarnation, bumped on crash — the scheduler-side
    /// mirror of `dyn_inc` (always 0 while scheduler faults are off).
    sched_inc: Vec<u64>,
    /// Per-worker episode epoch, bumped at every episode termination
    /// (assignment consumed, idle teardown, lease reclaim, machine
    /// failure). Replies echo the epoch of the offer they answer; a
    /// mismatch means the episode they belong to is already over —
    /// the dedup key that makes duplicated assigns/refusals no-ops.
    ep_epoch: Vec<u64>,
    /// Per-worker RPC sequence, bumped on every offer sent and every
    /// reply processed (and at episode teardown). A response lease
    /// snapshots it at send; if it has not moved when the lease fires,
    /// the reply was lost and the promised slot is reclaimed.
    rpc_seq: Vec<u64>,
    /// Watchdog pacing (from `faults.rpc_timeout_ms`/`rpc_retries`).
    backoff: BackoffPolicy,
    /// Per-job progress clock: bumped on every launch and finish. The
    /// watchdog compares it against `wd_seen` to detect stalls.
    wd_progress: Vec<u64>,
    wd_seen: Vec<u64>,
    wd_attempt: Vec<u32>,
    /// Kill messages in flight, keyed by the doomed copy and stamped
    /// with the worker incarnation at send. Maintained only when faults
    /// are enabled: a duplicate kill finds no entry (idempotent), and a
    /// lost kill's entry lets the copy's natural finish return the slot
    /// instead of leaking it.
    pending_kill: HashMap<(usize, CopyRef), u64>,
    /// Dev-profile conservation auditor (`None` in release/bench — the
    /// whole dev test suite re-proves the protocol invariants).
    audit: Option<Box<Auditor>>,
    rng: StdRng,
    results: Vec<JobResult>,
    stats: DecStats,
    /// Online duration statistics, folded at each retirement.
    digest: JobDigest,
    /// Event-type counters (diagnostics): arrive, reservation, response,
    /// assign, refusal, finish, kill, scan, dyn, sched-dyn, lease,
    /// job-timeout.
    ev_counts: [u64; 12],
    /// Windowed time-series observer (inert when
    /// `telemetry_window_ms == 0`). Never feeds back into the
    /// simulation — see DESIGN.md, "Telemetry plane".
    tele: SeriesCollector,
    /// Cumulative kill RPCs sent (telemetry only; deliberately not a
    /// `DecStats` field — goldens pin that struct's `Debug` output).
    tele_kills: u64,
}

impl<'a> Decentral<'a> {
    fn new(
        arrivals: ArrivalSource<'a>,
        policy: DecPolicy,
        cfg: &'a DecConfig,
        retain_jobs: bool,
    ) -> Self {
        let seq = SeedSequence::new(cfg.seed);
        let n = arrivals.total_jobs();
        let mut queue = EventQueue::new();
        let mut dynamics = cfg
            .dynamics
            .enabled()
            .then(|| MachineDynamics::new(cfg.dynamics.clone(), cfg.cluster.machines, &seq));
        if let Some(d) = dynamics.as_mut() {
            for (at, ev) in d.initial_incidents() {
                queue.push(at, Ev::Dyn(ev));
            }
        }
        // Faults-off nothing below constructs: no RNG child is drawn and
        // no event is queued, keeping runs bit-identical to a fault-free
        // build (the same contract the dynamics plane honors).
        let faults_on = cfg.faults.enabled();
        let mut sched_chain = (faults_on && cfg.faults.sched_fail_rate_per_hour > 0.0)
            .then(|| SchedulerChain::new(&cfg.faults, cfg.num_schedulers.max(1), &seq));
        if let Some(c) = sched_chain.as_mut() {
            for (at, ev) in c.initial_incidents() {
                queue.push(at, Ev::SchedDyn(ev));
            }
        }
        Decentral {
            policy,
            cfg,
            queue,
            machines: Machines::new(&cfg.cluster),
            workers: (0..cfg.cluster.machines)
                .map(|_| WorkerState {
                    queue: Vec::new(),
                    free: cfg.cluster.slots_per_machine,
                    episode: None,
                    purged_at: 0,
                })
                .collect(),
            arrivals,
            num_jobs: n,
            placement_rng: seq.child_rng(0xB10C),
            retain_jobs,
            done: vec![false; n],
            arrived: vec![false; n],
            live: Vec::new(),
            active_count: 0,
            arrivals_pending: n,
            occupied: vec![0; n],
            pending_orig: vec![0; n],
            claimed: vec![std::collections::HashSet::new(); n],
            live_res: vec![0; n],
            candidates: vec![VecDeque::new(); n],
            owner: (0..n).map(|j| j % cfg.num_schedulers.max(1)).collect(),
            sched_jobs: vec![Vec::new(); cfg.num_schedulers.max(1)],
            done_count: 0,
            beta_est: (0..cfg.num_schedulers.max(1))
                .map(|_| BetaEstimator::with_prior(1.5))
                .collect(),
            scan_armed: false,
            dynamics,
            dyn_inc: vec![0; cfg.cluster.machines],
            faults: faults_on.then(|| MsgFaults::new(cfg.faults, &seq)),
            sched_chain,
            sched_up: vec![true; cfg.num_schedulers.max(1)],
            sched_inc: vec![0; cfg.num_schedulers.max(1)],
            ep_epoch: vec![0; cfg.cluster.machines],
            rpc_seq: vec![0; cfg.cluster.machines],
            backoff: BackoffPolicy::new(cfg.faults.rpc_timeout_ms, cfg.faults.rpc_retries),
            wd_progress: vec![0; n],
            wd_seen: vec![0; n],
            wd_attempt: vec![0; n],
            pending_kill: HashMap::new(),
            audit: cfg!(debug_assertions).then(|| Auditor::new(cfg.cluster.machines)),
            rng: seq.child_rng(0xDEC),
            results: Vec::with_capacity(if retain_jobs { n } else { 0 }),
            stats: DecStats::default(),
            digest: JobDigest::new(),
            ev_counts: [0; 12],
            tele: SeriesCollector::new(cfg.telemetry_window_ms, cfg.cluster.total_slots() as u64),
            tele_kills: 0,
            jobs: JobSlab::new(n),
        }
    }

    /// Effective speed of worker `w`'s machine (1.0 when dynamics are off).
    fn machine_speed(&self, w: usize) -> f64 {
        self.dynamics
            .as_ref()
            .map_or(1.0, |d| d.speed(MachineId(w)))
    }

    /// Whether worker `w`'s machine is currently up.
    fn worker_up(&self, w: usize) -> bool {
        self.dynamics.as_ref().is_none_or(|d| d.is_up(MachineId(w)))
    }

    /// The scheduler's current view of a job's virtual size (Pseudocode 1
    /// inputs, computed locally from the scheduler's own state).
    fn vsize(&self, j: usize) -> f64 {
        let beta = {
            let est = &self.beta_est[self.owner[j]];
            if est.observations() >= 20 {
                est.beta()
            } else {
                self.jobs[j].spec.beta
            }
        };
        virtual_size(
            self.jobs[j].current_remaining() as f64,
            beta,
            self.jobs[j].alpha().max(1.0),
        )
    }

    /// Send one scheduler↔worker RPC through the message plane. Faults
    /// off this is *exactly* the historical send — one push after the
    /// fixed message latency, no RNG consumed. Faults on, the message
    /// may be lost, jittered (so deliveries reorder), or duplicated.
    fn send_msg(&mut self, ev: Ev) {
        let faults_off = self.faults.is_none();
        if let Some(a) = self.audit.as_mut() {
            let k = msg_kind(&ev).expect("send_msg only carries scheduler↔worker RPCs");
            a.note_sent(k);
            if faults_off {
                match &ev {
                    Ev::Assign { job, .. } | Ev::Kill { job, .. } => a.note_occ_sent(*job),
                    _ => {}
                }
            }
        }
        let Some(f) = self.faults.as_mut() else {
            self.queue.push_after(self.cfg.msg_latency, ev);
            return;
        };
        let out = f.send();
        if out.lost {
            self.stats.msgs_lost += 1;
            if let Some(a) = self.audit.as_mut() {
                a.note_lost(msg_kind(&ev).expect("rpc"));
            }
            return;
        }
        if out.duplicated {
            self.stats.msgs_duplicated += 1;
            if let Some(a) = self.audit.as_mut() {
                a.note_dup(msg_kind(&ev).expect("rpc"));
            }
        }
        let latency = self.cfg.msg_latency;
        let mut deliveries = out.deliveries.into_iter();
        let first = deliveries.next().expect("surviving message delivers");
        for d in deliveries {
            self.queue.push_after(latency + d.extra, ev.clone());
        }
        self.queue.push_after(latency + first.extra, ev);
    }

    /// Terminate worker `w`'s episode bookkeeping: the episode slot is
    /// gone (consumed, reclaimed, or dead), replies echoing the old
    /// epoch are stale, and any armed lease is void. Callers settle the
    /// `free` count themselves (a consumed promise frees nothing; a
    /// reclaimed one returns to the pool).
    fn end_episode(&mut self, w: usize) {
        self.workers[w].episode = None;
        self.ep_epoch[w] += 1;
        self.rpc_seq[w] += 1;
    }

    /// Dev-profile invariant re-check after an event touched a worker
    /// and/or a job (see `crate::audit`).
    fn audit_event(&self, ev: &Ev) {
        let Some(a) = self.audit.as_ref() else { return };
        let check_w = |w: usize| {
            a.check_worker(
                w,
                self.worker_up(w),
                self.workers[w].free as u64,
                self.workers[w].episode.is_some(),
                self.cfg.cluster.slots_per_machine as u64,
            );
        };
        // Per-job occupancy only reconciles exactly while faults are off
        // (see `Auditor::check_job`), and a retired job has no ground
        // truth left to compare.
        let check_j = |j: usize| {
            if self.faults.is_none() && !self.done[j] {
                a.check_job(
                    j,
                    self.occupied[j] as u64,
                    self.jobs[j].occupied_slots() as u64,
                );
            }
        };
        match *ev {
            Ev::Reservation { worker, ref res } => {
                check_w(worker);
                check_j(res.job as usize);
            }
            Ev::Response { worker, job, .. }
            | Ev::Assign { worker, job, .. }
            | Ev::Refusal { worker, job, .. }
            | Ev::Kill { worker, job, .. }
            | Ev::Finish { worker, job, .. } => {
                check_w(worker);
                check_j(job);
            }
            Ev::Lease { worker, .. } => check_w(worker),
            Ev::Dyn(d) => check_w(d.machine().0),
            Ev::Scan | Ev::SchedDyn(_) | Ev::JobTimeout { .. } => {}
        }
    }

    fn run(mut self) -> DecOutput {
        loop {
            // Merge the arrival source with the event queue; at equal
            // instants the arrival is delivered first (see
            // `ArrivalSource`'s ordering contract).
            let arrival_due = match self.arrivals.peek_arrival() {
                Some(at) => match self.queue.peek_time() {
                    Some(qt) => at <= qt,
                    None => true,
                },
                None => false,
            };
            if arrival_due {
                let spec = self.arrivals.pop().expect("peeked arrival exists");
                let now = spec.arrival;
                self.queue.advance_to(now);
                self.tele_tick(now);
                self.stats.events += 1;
                self.ev_counts[0] += 1;
                self.on_job_arrive(spec, now);
                continue;
            }
            let Some((now, ev)) = self.queue.pop() else {
                break;
            };
            self.tele_tick(now);
            self.stats.events += 1;
            if self.stats.events > self.cfg.max_events {
                let stuck: Vec<String> = self
                    .live
                    .iter()
                    .copied()
                    .take(5)
                    .map(|j| {
                        format!(
                            "job {j}: pending={} claimed={} occupied={} live_res={} cands={} running={} total_rem={} current_rem={} vsize={:.1}",
                            self.pending_orig[j],
                            self.claimed[j].len(),
                            self.occupied[j],
                            self.live_res[j],
                            self.candidates[j].len(),
                            self.jobs[j].occupied_slots(),
                            self.jobs[j].total_remaining(),
                            self.jobs[j].current_remaining(),
                            self.vsize(j),
                        )
                    })
                    .collect();
                let active_eps = self.workers.iter().filter(|w| w.episode.is_some()).count();
                let queued_res: usize = self.workers.iter().map(|w| w.queue.len()).sum();
                panic!(
                    "event budget exceeded ({}) at t={now}; active_count={} pending_events={} worker_episodes={} queued_reservations={} ev_counts(arr/res/resp/asgn/ref/fin/kill/scan/dyn/sdyn/lease/wd)={:?} unfinished: {stuck:#?}",
                    self.policy.name(),
                    self.active_count,
                    self.queue.len(),
                    active_eps,
                    queued_res,
                    self.ev_counts,
                );
            }
            self.ev_counts[match &ev {
                Ev::Reservation { .. } => 1,
                Ev::Response { .. } => 2,
                Ev::Assign { .. } => 3,
                Ev::Refusal { .. } => 4,
                Ev::Finish { .. } => 5,
                Ev::Kill { .. } => 6,
                Ev::Scan => 7,
                Ev::Dyn(_) => 8,
                Ev::SchedDyn(_) => 9,
                Ev::Lease { .. } => 10,
                Ev::JobTimeout { .. } => 11,
            }] += 1;
            // Dev-profile auditing: conserve every RPC delivery, then —
            // after the handler runs — re-check the touched worker/job
            // invariants (the clone is auditor-gated, so release pays
            // nothing).
            let audit_ev = self.audit.is_some().then(|| ev.clone());
            if let Some(a) = self.audit.as_mut() {
                if let Some(k) = msg_kind(&ev) {
                    a.note_delivered(k);
                    if self.faults.is_none() {
                        match &ev {
                            Ev::Assign { job, .. } | Ev::Kill { job, .. } => {
                                a.note_occ_delivered(*job)
                            }
                            _ => {}
                        }
                    }
                }
            }
            match ev {
                Ev::Reservation { worker, res } => {
                    // A job can complete while its reservation is still in
                    // flight. The pre-epoch code parked it and purged it in
                    // the very next statement (the unconditional queue
                    // purge); dropping it on delivery is the same behavior,
                    // and keeps the epoch-gated purge skip sound — a parked
                    // reservation is always live at park time.
                    //
                    // A reservation reaching a down machine is lost with
                    // it (the scheduler re-probes at the next scan).
                    if !self.worker_up(worker) {
                        self.live_res[res.job as usize] =
                            self.live_res[res.job as usize].saturating_sub(1);
                    } else if !self.done[res.job as usize] {
                        self.workers[worker].queue.push(res);
                    }
                    self.maybe_start_episode(worker, now);
                }
                Ev::Response {
                    worker,
                    job,
                    kind,
                    inc,
                    ep,
                    sinc,
                } => self.on_response(worker, job, kind, inc, ep, sinc, now),
                Ev::Assign {
                    worker,
                    job,
                    task,
                    speculative,
                    inc,
                    ep,
                } => self.on_assign(worker, job, task, speculative, inc, ep, now),
                Ev::Refusal {
                    worker,
                    job,
                    unsatisfied,
                    inc,
                    ep,
                } => self.on_refusal(worker, job, unsatisfied, inc, ep, now),
                Ev::Finish { job, copy, worker } => self.on_finish(job, copy, worker, now),
                Ev::Kill {
                    worker,
                    job,
                    copy,
                    inc,
                } => self.on_kill(worker, job, copy, inc, now),
                Ev::SchedDyn(sev) => {
                    // Same drain rule as machine dynamics: the crash
                    // chain dies with the workload.
                    if self.active_count == 0 && self.arrivals_pending == 0 {
                        continue;
                    }
                    self.on_sched_dyn(sev, now);
                }
                Ev::Lease { worker, seq } => self.on_lease(worker, seq, now),
                Ev::JobTimeout { job } => self.on_job_timeout(job, now),
                Ev::Dyn(ev) => {
                    // The incident chain dies with the workload (see the
                    // centralized driver): drop unapplied once all jobs
                    // completed so the queue drains.
                    if self.active_count == 0 && self.arrivals_pending == 0 {
                        continue;
                    }
                    self.on_dyn(ev, now);
                }
                Ev::Scan => {
                    self.scan_armed = false;
                    // Both scan passes walk the live list (ascending id —
                    // the order the old `0..n` loops visited live jobs
                    // in), so scan cost is O(live jobs), not O(all jobs
                    // ever arrived).
                    for idx in 0..self.live.len() {
                        let j = self.live[idx];
                        // A crashed scheduler scans nothing (its scratch
                        // is rebuilt at recovery); never taken while
                        // scheduler faults are off.
                        if !self.sched_up[self.owner[j]] {
                            continue;
                        }
                        if self.jobs[j].occupied_slots() > 0 {
                            self.candidates[j] =
                                self.cfg.speculator.candidates(&self.jobs[j], now).into();
                        }
                    }
                    // Re-probe jobs whose reservations were all consumed
                    // while launchable work remains (otherwise they starve).
                    for idx in 0..self.live.len() {
                        let j = self.live[idx];
                        if !self.sched_up[self.owner[j]] || self.live_res[j] > 0 {
                            continue;
                        }
                        let launchable = self.pending_orig[j] > 0 || !self.candidates[j].is_empty();
                        if launchable {
                            let want = ((self.jobs[j].current_remaining() as f64
                                * self.cfg.probe_ratio)
                                .ceil() as usize)
                                .max(1);
                            self.send_probes(j, want);
                        }
                    }
                    self.arm_scan();
                    // Re-poll dormant workers: new candidates may make
                    // previously-refusing jobs worth offering again.
                    for w in 0..self.workers.len() {
                        self.maybe_start_episode(w, now);
                    }
                }
            }
            if let Some(ev) = audit_ev {
                self.audit_event(&ev);
            }
        }
        assert!(
            self.done_count as usize == self.num_jobs && self.arrivals_pending == 0,
            "decentralized run drained with {} of {} jobs finished",
            self.done_count,
            self.num_jobs
        );
        if let Some(a) = self.audit.as_ref() {
            for w in 0..self.workers.len() {
                a.check_worker(
                    w,
                    self.worker_up(w),
                    self.workers[w].free as u64,
                    self.workers[w].episode.is_some(),
                    self.cfg.cluster.slots_per_machine as u64,
                );
            }
            a.check_end(self.pending_kill.len());
        }
        let telemetry = {
            let snap = self.tele_snapshot();
            self.tele.finish(snap)
        };
        let mut jobs = self.results;
        jobs.sort_by_key(|r| r.job);
        let report = RunReport {
            core: self.stats.core(),
            digest: self.digest,
            live_high_water: self.jobs.high_water(),
            telemetry,
        };
        DecOutput {
            jobs,
            stats: self.stats,
            report,
            shard: None,
        }
    }

    /// Close any telemetry windows that end before the event about to
    /// be processed at `now` (pre-event state is exactly the state at
    /// the crossed boundary). One branch when disabled.
    #[inline]
    fn tele_tick(&mut self, now: SimTime) {
        let now_ms = now.as_millis();
        if self.tele.boundary_due(now_ms) {
            let snap = self.tele_snapshot();
            self.tele.close_to(now_ms, snap);
        }
    }

    /// Gauges + cumulative counters for the telemetry plane: running
    /// copies across live jobs, parked worker-queue reservations, and
    /// the protocol counters. O(live jobs + workers), and only ever
    /// evaluated at window boundaries and at the end of the run.
    fn tele_snapshot(&self) -> TelemetrySnapshot {
        let busy_slots = self
            .live
            .iter()
            .map(|&j| self.jobs[j].occupied_slots() as u64)
            .sum();
        let queue_depth = self.workers.iter().map(|w| w.queue.len() as u64).sum();
        TelemetrySnapshot {
            busy_slots,
            queue_depth,
            live_jobs: self.live.len() as u64,
            completed: self.done_count,
            orig_launched: self.stats.orig_launched,
            spec_launched: self.stats.spec_launched,
            spec_won: self.stats.spec_won,
            killed: self.tele_kills,
            messages: self.stats.reservations + self.stats.responses + self.stats.refusals,
            events: self.stats.events,
        }
    }

    fn arm_scan(&mut self) {
        if !self.scan_armed && (self.active_count > 0 || self.arrivals_pending > 0) {
            self.queue.push_after(self.cfg.scan_interval, Ev::Scan);
            self.scan_armed = true;
        }
    }

    /// Build job `j`'s runtime state and probe for its tasks. Lazy
    /// construction consumes `placement_rng` in arrival (= id) order —
    /// the same draw sequence the historical build-everything-up-front
    /// constructor used, so results are bit-identical.
    fn on_job_arrive(&mut self, spec: TraceJob, now: SimTime) {
        let j = spec.id;
        debug_assert_eq!(spec.arrival, now);
        let _ = now;
        let job = JobRun::new(spec, &self.cfg.cluster, &mut self.placement_rng);
        self.pending_orig[j] = job
            .phases()
            .iter()
            .filter(|p| p.eligible)
            .map(|p| p.num_tasks())
            .sum();
        self.jobs.insert(j, job);
        self.arrivals_pending -= 1;
        self.active_count += 1;
        self.arrived[j] = true;
        debug_assert!(self.live.last().is_none_or(|&last| last < j));
        self.live.push(j);
        self.sched_jobs[self.owner[j]].push(j);
        self.arm_scan();
        // A job arriving at a crashed scheduler places no probes — the
        // scheduler's recovery (and the job's watchdog) re-probe from
        // ground truth. Never taken while scheduler faults are off.
        if self.sched_up[self.owner[j]] {
            // Place probe_ratio × tasks reservations. Input tasks probe
            // their replica machines first (§6.1), the remainder go to
            // random workers.
            let tasks = self.jobs[j].spec.size_tasks().max(1);
            let probes = ((tasks as f64 * self.cfg.probe_ratio).ceil() as usize).max(1);
            let vsize = self.vsize(j);
            let remaining = self.jobs[j].current_remaining() as f64;
            let mut targets: Vec<usize> = Vec::with_capacity(probes);
            for t in &self.jobs[j].phases()[0].tasks {
                for r in &t.replicas {
                    if targets.len() < probes {
                        targets.push(r.0);
                    }
                }
            }
            while targets.len() < probes {
                targets.push(self.rng.gen_range(0..self.workers.len()));
            }
            for w in targets {
                self.stats.reservations += 1;
                self.live_res[j] += 1;
                self.send_msg(Ev::Reservation {
                    worker: w,
                    res: Reservation {
                        scheduler: self.owner[j],
                        job: j as u64,
                        virtual_size: vsize,
                        remaining_tasks: remaining,
                    },
                });
            }
        }
        // Watchdog (faults only): first check one timeout out; resets
        // whenever the job makes progress, backs off while it does not.
        if self.faults.is_some() {
            self.queue.push_after(
                SimTime::from_millis(self.backoff.delay_ms(0)),
                Ev::JobTimeout { job: j },
            );
        }
    }

    /// Send `count` fresh reservations for `job` to random workers.
    fn send_probes(&mut self, job: usize, count: usize) {
        // A crashed scheduler sends nothing (its recovery re-probes);
        // never taken while scheduler faults are off.
        if !self.sched_up[self.owner[job]] {
            return;
        }
        let vsize = self.vsize(job);
        let rem = self.jobs[job].current_remaining() as f64;
        for _ in 0..count {
            let w = self.rng.gen_range(0..self.workers.len());
            self.stats.reservations += 1;
            self.live_res[job] += 1;
            self.send_msg(Ev::Reservation {
                worker: w,
                res: Reservation {
                    scheduler: self.owner[job],
                    job: job as u64,
                    virtual_size: vsize,
                    remaining_tasks: rem,
                },
            });
        }
    }

    /// Start a late-binding episode if the worker is up and has a free
    /// slot, no episode in flight, and a non-empty queue.
    fn maybe_start_episode(&mut self, w: usize, now: SimTime) {
        if !self.worker_up(w) {
            return;
        }
        // Purge reservations of finished jobs first (piggybacked
        // completion notifications). Skipped while no job has completed
        // since this worker's last purge — every queued reservation was
        // live then and only live jobs enqueue new ones, so the scan would
        // remove nothing.
        if self.workers[w].purged_at != self.done_count {
            let done = &self.done;
            self.workers[w].queue.retain(|r| !done[r.job as usize]);
            self.workers[w].purged_at = self.done_count;
        }
        #[cfg(debug_assertions)]
        assert!(
            !self.workers[w]
                .queue
                .iter()
                .any(|r| self.done[r.job as usize]),
            "stale reservation survived the epoch-gated purge"
        );
        if self.workers[w].free == 0
            || self.workers[w].episode.is_some()
            || self.workers[w].queue.is_empty()
        {
            return;
        }
        self.workers[w].free -= 1; // promise the slot to this episode
        self.workers[w].episode = Some(FreeSlotEpisode::new(self.cfg.refusal_threshold));
        self.episode_step(w, now);
    }

    /// Advance the worker's episode by one protocol step.
    fn episode_step(&mut self, w: usize, _now: SimTime) {
        if self.workers[w].episode.is_none() {
            return; // defensive: stray refusal after the episode resolved
        }
        let action = match self.policy {
            DecPolicy::Sparrow => match pick_fcfs(&self.workers[w].queue) {
                Some(r) => WorkerAction::Respond {
                    scheduler: r.scheduler,
                    job: r.job,
                    kind: ResponseKind::NonRefusable,
                },
                None => WorkerAction::Idle,
            },
            DecPolicy::SparrowSrpt => match pick_srpt(&self.workers[w].queue) {
                Some(r) => WorkerAction::Respond {
                    scheduler: r.scheduler,
                    job: r.job,
                    kind: ResponseKind::NonRefusable,
                },
                None => WorkerAction::Idle,
            },
            DecPolicy::Hopper => {
                let mut ep = self.workers[w].episode.take().expect("episode in flight");
                if ep.refusals() >= self.cfg.refusal_threshold {
                    self.stats.guideline3_switches += 1;
                }
                let action = ep.next_action(&self.workers[w].queue, &mut self.rng);
                self.workers[w].episode = Some(ep);
                action
            }
        };
        match action {
            WorkerAction::Respond {
                scheduler,
                job,
                kind,
            } => {
                if let Some(ep) = self.workers[w].episode.as_mut() {
                    ep.mark_probed(scheduler);
                }
                self.stats.responses += 1;
                self.rpc_seq[w] += 1;
                self.send_msg(Ev::Response {
                    worker: w,
                    job: job as usize,
                    kind,
                    inc: self.dyn_inc[w],
                    ep: self.ep_epoch[w],
                    sinc: self.sched_inc[scheduler],
                });
                // Lease the promised slot (faults only): if no reply of
                // any kind is processed within the RPC timeout, the
                // episode is reclaimed instead of hanging forever.
                if self.faults.is_some() {
                    self.queue.push_after(
                        SimTime::from_millis(self.cfg.faults.rpc_timeout_ms),
                        Ev::Lease {
                            worker: w,
                            seq: self.rpc_seq[w],
                        },
                    );
                }
            }
            WorkerAction::Idle => {
                // Episode dies; slot returns to the free pool.
                self.end_episode(w);
                self.workers[w].free += 1;
            }
        }
    }

    /// Scheduler-side handling of a worker's slot offer (Pseudocode 2).
    /// `inc`/`ep` are the offer's worker incarnation and episode epoch,
    /// echoed into the reply; `sinc` is the scheduler incarnation the
    /// offer was addressed to.
    #[allow(clippy::too_many_arguments)]
    fn on_response(
        &mut self,
        worker: usize,
        job: usize,
        kind: ResponseKind,
        inc: u64,
        ep: u64,
        sinc: u64,
        now: SimTime,
    ) {
        // Offer addressed to a crashed scheduler (down, or a pre-crash
        // incarnation): the reply is effectively lost — the worker's
        // lease reclaims the promised slot. `owner` is indexed by a
        // message-carried id, but reservations are only ever created for
        // real jobs, so `job < owner.len()` holds by construction; the
        // `get` is belt-and-braces for the degenerate 0-scheduler cap.
        // Never taken while scheduler faults are off (all up, all inc 0).
        let sched = self.owner.get(job).copied().unwrap_or(0);
        if !self.sched_up[sched] || sinc != self.sched_inc[sched] {
            return;
        }
        if self.done[job] {
            self.send_refusal(worker, job, inc, ep, now);
            return;
        }
        let accepts = match self.policy {
            // Sparrow variants never refuse; they answer task-or-no-task.
            DecPolicy::Sparrow | DecPolicy::SparrowSrpt => true,
            DecPolicy::Hopper => {
                let below_fair_floor = self.below_fair_floor(job);
                scheduler_accepts(kind, self.occupied[job] as f64, self.vsize(job))
                    || below_fair_floor
            }
        };
        // Under Hopper an accepted offer always places work: the virtual
        // size *is* the speculation budget, so when no pending original or
        // flagged candidate exists the scheduler sends an extra speculative
        // copy of its longest-remaining running task ("faster clearing of
        // tasks is overall beneficial", §4.1 footnote; non-refusable offers
        // are Guideline-3 extra slots beyond the virtual size).
        let allow_extra_spec = matches!(self.policy, DecPolicy::Hopper);
        let launch = if accepts {
            self.pick_work(job, worker, allow_extra_spec, now)
        } else {
            None
        };
        match launch {
            Some((task, speculative)) => {
                self.occupied[job] += 1;
                if speculative {
                    // Consume the candidate so the next offer goes to the
                    // next straggler.
                    self.candidates[job].retain(|c| c.task != task);
                } else {
                    self.pending_orig[job] -= 1;
                }
                self.send_msg(Ev::Assign {
                    worker,
                    job,
                    task,
                    speculative,
                    inc,
                    ep,
                });
            }
            None => self.send_refusal(worker, job, inc, ep, now),
        }
    }

    /// Whether `job` is below its ε-fair share `(1−ε)·S/N` (§4.3). The
    /// active-job count is piggybacked on scheduler↔worker traffic, so
    /// every scheduler tracks it without extra messages.
    fn below_fair_floor(&self, job: usize) -> bool {
        let Some(eps) = self.cfg.fairness_eps else {
            return false;
        };
        if self.active_count == 0 {
            return false;
        }
        let fair = self.cfg.cluster.total_slots() as f64 / self.active_count as f64;
        // Capped at the job's virtual size, exactly like the centralized
        // projection: fairness never forces slots a job cannot use.
        let floor = ((1.0 - eps) * fair).floor().min(self.vsize(job));
        (self.occupied[job] as f64) < floor
    }

    /// Choose the next work item for `job` on `worker`: pending original
    /// (preferring data-local, skipping tasks already claimed by an
    /// in-flight assignment) first, then the best speculation candidate.
    fn pick_work(
        &mut self,
        job: usize,
        worker: usize,
        allow_extra_spec: bool,
        now: SimTime,
    ) -> Option<(TaskRef, bool)> {
        if self.pending_orig[job] > 0 {
            if let Some(task) = self.next_unclaimed_original(job, MachineId(worker)) {
                self.claimed[job].insert(task);
                return Some((task, false));
            }
        }
        while let Some(cand) = self.candidates[job].front().copied() {
            let t = &self.jobs[job].phases()[cand.task.phase].tasks[cand.task.task];
            if t.is_finished() || t.running_copies() == 0 || t.running_copies() >= 2 {
                self.candidates[job].pop_front();
                continue;
            }
            return Some((cand.task, true));
        }
        if allow_extra_spec {
            // Longest-estimated-remaining running task with copy headroom,
            // but only where a fresh copy could plausibly finish first
            // (t_rem > t_new — the same benefit rule the §3 example uses).
            // O(log) off the job's solo-running index instead of a full
            // `observe_running` sweep.
            if let Some(task) = self.jobs[job].best_extra_speculation(now) {
                return Some((task, true));
            }
        }
        None
    }

    /// First unlaunched, unclaimed original in eligible phases, preferring
    /// one whose input is local to `m`.
    ///
    /// Walks the job's pending-task indices instead of every task: the
    /// preferred pick is the minimum of the first unclaimed replica-free
    /// task and the first unclaimed task local to `m` (the old scan
    /// returned whichever came first in `(phase, task)` order), and the
    /// fallback is the first unclaimed pending task overall. The claimed
    /// set only holds in-flight assignments, so the skip is a handful of
    /// probes, not a rescan.
    fn next_unclaimed_original(&self, job: usize, m: MachineId) -> Option<TaskRef> {
        let jr = &self.jobs[job];
        let claimed = &self.claimed[job];
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
            self.scan_next_unclaimed_original(job, m),
            "pending index disagrees with the task scan"
        );
        picked
    }

    /// The pre-index O(tasks) implementation, kept as the debug oracle.
    /// "Pending" is `needs_original` (no running copy, unfinished) rather
    /// than "never launched", so tasks requeued by a machine failure are
    /// assignable again.
    #[cfg(debug_assertions)]
    fn scan_next_unclaimed_original(&self, job: usize, m: MachineId) -> Option<TaskRef> {
        let mut fallback = None;
        for (pi, p) in self.jobs[job].phases().iter().enumerate() {
            if !p.eligible || p.is_complete() {
                continue;
            }
            for (ti, t) in p.tasks.iter().enumerate() {
                let tr = TaskRef::new(pi, ti);
                if !t.needs_original() || self.claimed[job].contains(&tr) {
                    continue;
                }
                if t.replicas.is_empty() || t.replicas.contains(&m) {
                    return Some(tr);
                }
                if fallback.is_none() {
                    fallback = Some(tr);
                }
            }
        }
        fallback
    }

    fn send_refusal(&mut self, worker: usize, job: usize, inc: u64, ep: u64, now: SimTime) {
        let _ = now;
        self.stats.refusals += 1;
        // Advertise this scheduler's smallest unsatisfied job (Pseudocode
        // 3's refusal payload): below its virtual size with launchable
        // work.
        let sched = self.owner.get(job).copied().unwrap_or(0);
        let mut best: Option<UnsatisfiedJob> = None;
        // Only this scheduler's own *live* jobs are candidates — walk its
        // live partition (ascending id, the order the old all-jobs scan
        // visited them in; membership = arrived ∧ not retired) instead of
        // the whole cluster.
        for &j in &self.sched_jobs[sched] {
            debug_assert_eq!(self.owner[j], sched);
            debug_assert!(self.arrived[j] && !self.done[j]);
            if j == job {
                continue;
            }
            let v = self.vsize(j);
            let launchable = self.pending_orig[j] > 0 || !self.candidates[j].is_empty();
            if !launchable {
                continue;
            }
            // ε-fairness (§4.3), decentralized approximation: a job below
            // its (1−ε) fair-share floor is advertised as unsatisfied even
            // when it is at its virtual size, so the refusal channel tops
            // it up. Deficient jobs keep their virtual-size order — the
            // serial refusal channel delivers one slot per round, and a
            // hard priority inversion (large deficient jobs pre-empting
            // every small job) costs far more than the guarantee is worth
            // (see DESIGN.md, deviations).
            // Fairness floors are capped at the job's own virtual size
            // (exactly like the centralized projection), so the advertised
            // set is simply the unsatisfied jobs; ε's remaining effect is
            // the acceptance forcing in `on_response`. See DESIGN.md —
            // the decentralized ε enforcement is deliberately conservative.
            let advertised = ((self.occupied[j] as f64) < v).then_some(v);
            if let Some(adv) = advertised {
                let better = best.is_none_or(|b| adv < b.virtual_size);
                if better {
                    best = Some(UnsatisfiedJob {
                        scheduler: sched,
                        job: j as u64,
                        virtual_size: adv,
                    });
                }
            }
        }
        self.send_msg(Ev::Refusal {
            worker,
            job,
            unsatisfied: best,
            inc,
            ep,
        });
    }

    fn on_refusal(
        &mut self,
        worker: usize,
        job: usize,
        unsatisfied: Option<UnsatisfiedJob>,
        inc: u64,
        ep: u64,
        now: SimTime,
    ) {
        // The offer this refusal answers referenced a slot that died with
        // the machine (incarnation mismatch: everything about the episode
        // is already torn down), or an episode that already ended (epoch
        // mismatch: a duplicated or lease-superseded reply). Faults-off
        // the two conditions coincide — a machine failure is the only
        // mid-flight teardown — so behavior is unchanged.
        if inc != self.dyn_inc[worker] || ep != self.ep_epoch[worker] {
            return;
        }
        // A reply reached the episode: any armed lease is void.
        self.rpc_seq[worker] += 1;
        match self.policy {
            DecPolicy::Sparrow | DecPolicy::SparrowSrpt => {
                // Sparrow consumes the reservation on no-task and moves on.
                if let Some(pos) = self.workers[worker]
                    .queue
                    .iter()
                    .position(|r| r.job as usize == job)
                {
                    self.workers[worker].queue.remove(pos);
                    self.live_res[job] = self.live_res[job].saturating_sub(1);
                }
                self.episode_step(worker, now);
            }
            DecPolicy::Hopper => {
                // Reservations stay (the job may want Guideline-3 extras
                // later); the episode just records the refusal.
                let sched = self.owner.get(job).copied().unwrap_or(0);
                if let Some(ep) = self.workers[worker].episode.as_mut() {
                    ep.record_refusal(sched, job as u64, unsatisfied);
                }
                self.episode_step(worker, now);
            }
        }
    }

    /// A task assignment arrives at the worker: consume a reservation and
    /// start executing.
    #[allow(clippy::too_many_arguments)]
    fn on_assign(
        &mut self,
        worker: usize,
        job: usize,
        task: TaskRef,
        speculative: bool,
        inc: u64,
        ep: u64,
        now: SimTime,
    ) {
        if !speculative {
            self.claimed[job].remove(&task);
        }
        // The promised slot is gone: the machine failed while the
        // assignment was in flight (incarnation mismatch), or the episode
        // already ended (epoch mismatch — a duplicated assign whose first
        // delivery consumed the episode, or a lease reclaim after this
        // reply was presumed lost). Undo the scheduler-side accounting
        // and return the original to the pending pool if it still needs
        // one — but touch no worker state, the episode and slot are gone.
        // Faults-off the two mismatches coincide (a machine failure is
        // the only mid-flight teardown), so behavior is unchanged. A
        // completed (retired) job's tasks are all finished, so the
        // done-guard preserves the old `needs_original()` answer without
        // dereferencing retired state.
        if inc != self.dyn_inc[worker] || ep != self.ep_epoch[worker] {
            self.occupied[job] = self.occupied[job].saturating_sub(1);
            if !speculative
                && !self.done[job]
                && self.jobs[job].phases()[task.phase].tasks[task.task].needs_original()
            {
                self.pending_orig[job] += 1;
            }
            return;
        }
        // Episode resolved successfully; the promised slot is consumed
        // (and later replies echoing this epoch are stale).
        self.end_episode(worker);
        // Consume one reservation of this job at this worker (if present).
        if let Some(pos) = self.workers[worker]
            .queue
            .iter()
            .position(|r| r.job as usize == job)
        {
            self.workers[worker].queue.remove(pos);
            self.live_res[job] = self.live_res[job].saturating_sub(1);
        }
        // Validate against races: the job may have completed — and been
        // retired — or the task may have finished while the assignment
        // was in flight. (An original is live exactly when the task still
        // needs one — `needs_original` also covers tasks a machine
        // failure requeued, whose earlier copies were all killed.) A
        // retired job is never dereferenced: done ⇒ every task finished ⇒
        // stale, and the old needs_original() re-check answered false.
        let stale = self.done[job] || {
            let t = &self.jobs[job].phases()[task.phase].tasks[task.task];
            t.is_finished()
                || (speculative && t.running_copies() == 0)
                || (!speculative && !t.needs_original())
        };
        if stale {
            self.occupied[job] = self.occupied[job].saturating_sub(1);
            if !speculative && !self.done[job] {
                // Return the unlaunched original to the pending pool only
                // if it truly is still pending.
                let t = &self.jobs[job].phases()[task.phase].tasks[task.task];
                if t.needs_original() {
                    self.pending_orig[job] += 1;
                }
            }
            self.workers[worker].free += 1;
            self.maybe_start_episode(worker, now);
            return;
        }
        if let Some(a) = self.audit.as_mut() {
            let t = &self.jobs[job].phases()[task.phase].tasks[task.task];
            a.note_launch(
                worker,
                !speculative,
                t.running_copies() as u64,
                t.is_finished(),
            );
        }
        self.wd_progress[job] += 1;
        self.machines.occupy_for(MachineId(worker), job);
        let speed = self.machine_speed(worker);
        let (copy, dur) = self.jobs[job].launch_copy_at_speed(
            task,
            MachineId(worker),
            speculative,
            now,
            SimTime::ZERO,
            &self.cfg.cluster,
            &mut self.rng,
            speed,
        );
        if speculative {
            self.stats.spec_launched += 1;
        } else {
            self.stats.orig_launched += 1;
        }
        self.queue.push(now + dur, Ev::Finish { job, copy, worker });
        // Piggyback a virtual-size update on this assignment for all of
        // the job's reservations parked at this worker (§5.3).
        let v = self.vsize(job);
        let rem = self.jobs[job].current_remaining() as f64;
        for r in self.workers[worker].queue.iter_mut() {
            if r.job as usize == job {
                r.virtual_size = v;
                r.remaining_tasks = rem;
            }
        }
        self.maybe_start_episode(worker, now);
    }

    /// Apply one machine-dynamics incident.
    fn on_dyn(&mut self, ev: DynEvent, now: SimTime) {
        let out = self
            .dynamics
            .as_mut()
            .expect("dyn event without dynamics plane")
            .apply(ev);
        for (delay, next) in out.next {
            self.queue.push(now + delay, Ev::Dyn(next));
        }
        let m = ev.machine();
        let w = m.0;
        match ev {
            DynEvent::SlowdownStart(_) | DynEvent::SlowdownEnd(_) => {
                let ratio = out.rescale_ratio.expect("speed change carries a ratio");
                // Only live jobs can have running copies; the live list
                // keeps the per-incident cost proportional to the live
                // workload, not the whole stream.
                for idx in 0..self.live.len() {
                    let j = self.live[idx];
                    for (copy, finish) in self.jobs[j].rescale_machine(m, now, ratio) {
                        self.queue.push(
                            finish,
                            Ev::Finish {
                                job: j,
                                copy,
                                worker: w,
                            },
                        );
                    }
                }
            }
            DynEvent::Fail(_) => {
                // Worker-side teardown: parked reservations, the in-flight
                // episode, and every slot die with the machine. Replies to
                // messages already in flight are invalidated by the
                // incarnation bump.
                self.dyn_inc[w] += 1;
                for r in std::mem::take(&mut self.workers[w].queue) {
                    self.live_res[r.job as usize] = self.live_res[r.job as usize].saturating_sub(1);
                }
                self.end_episode(w);
                self.workers[w].free = 0;
                if let Some(a) = self.audit.as_mut() {
                    a.note_machine_failed(w);
                }
                // Scheduler-side: killed copies leave the occupancy
                // accounting; requeued tasks get fresh probes immediately
                // (their old reservations may be anywhere, but the pending
                // original needs the re-dispatch advertised).
                for idx in 0..self.live.len() {
                    let j = self.live[idx];
                    let fo = self.jobs[j].fail_machine(m);
                    if fo.killed == 0 {
                        continue;
                    }
                    self.occupied[j] = self.occupied[j].saturating_sub(fo.killed);
                    if !fo.requeued.is_empty() {
                        self.pending_orig[j] += fo.requeued.len();
                        let probes = ((fo.requeued.len() as f64 * self.cfg.probe_ratio).ceil()
                            as usize)
                            .max(1);
                        self.send_probes(j, probes);
                    }
                }
                self.machines.set_down(m);
            }
            DynEvent::Recover(_) => {
                // The machine rejoins with every slot free and an empty
                // queue; probes find it again through random placement.
                self.machines.set_up(m);
                self.workers[w].free = self.cfg.cluster.slots_per_machine;
            }
        }
    }

    fn on_finish(&mut self, job: usize, copy: CopyRef, worker: usize, now: SimTime) {
        // Lost or still-in-flight kill (faults only): the kill ledger
        // still holds this copy, so the worker never heard the race was
        // lost and ran the copy to this scheduled finish — it discovers
        // the result is moot and returns the slot itself (lease-style
        // orphan reclamation at task granularity). If the machine failed
        // since the kill was stamped, the slot died with it. The job may
        // already be retired; nothing here dereferences `jobs[job]`.
        if self.faults.is_some() {
            if let Some(kill_inc) = self.pending_kill.remove(&(job, copy)) {
                self.occupied[job] = self.occupied[job].saturating_sub(1);
                if kill_inc == self.dyn_inc[worker] {
                    if let Some(a) = self.audit.as_mut() {
                        a.note_copy_stopped(worker);
                    }
                    self.workers[worker].free += 1;
                    self.machines.release_to(MachineId(worker), job);
                    self.maybe_start_episode(worker, now);
                }
                return;
            }
        }
        // Completions queued for copies that lost their race pop after
        // the job completed and retired; they are stale by definition
        // and must not touch its (gone) state.
        if self.done[job] {
            return;
        }
        // A machine-speed change rescheduled this copy: its superseded
        // completion event pops at a time that no longer matches the
        // copy's finish instant. A no-op without dynamics.
        {
            let c =
                &self.jobs[job].phases()[copy.task.phase].tasks[copy.task.task].copies[copy.copy];
            if c.status == hopper_cluster::CopyStatus::Running && c.finish_time() != now {
                return;
            }
        }
        // Collect running siblings *before* resolving the race: their
        // kill notifications travel over the network (keyed by copy so
        // the kill ledger can recognize each one individually).
        let siblings: Vec<(CopyRef, MachineId)> = self.jobs[job].phases()[copy.task.phase].tasks
            [copy.task.task]
            .copies
            .iter()
            .enumerate()
            .filter(|(i, c)| *i != copy.copy && c.status == hopper_cluster::CopyStatus::Running)
            .map(|(i, c)| (CopyRef::new(copy.task.phase, copy.task.task, i), c.machine))
            .collect();
        let Some(out) = self.jobs[job].finish_copy(copy, now) else {
            return; // stale (copy killed earlier)
        };
        let was_spec = self.jobs[job].phases()[copy.task.phase].tasks[copy.task.task].copies
            [copy.copy]
            .speculative;
        if was_spec {
            self.stats.spec_won += 1;
        }
        // The winner's slot frees immediately.
        if let Some(a) = self.audit.as_mut() {
            a.note_copy_stopped(worker);
        }
        self.wd_progress[job] += 1;
        self.workers[worker].free += 1;
        self.machines.release_to(MachineId(worker), job);
        self.occupied[job] = self.occupied[job].saturating_sub(1);
        // β learning at the owning scheduler (skipped while it is down —
        // a crash loses the estimator; never taken faults-off).
        if out.nominal.as_millis() > 0 && self.sched_up[self.owner[job]] {
            self.beta_est[self.owner[job]]
                .observe(out.duration.as_millis() as f64 / out.nominal.as_millis() as f64);
        }
        // Kill messages to losing siblings, stamped with the sibling
        // machine's current incarnation. With faults on, each kill is
        // also entered into the pending ledger so duplicates are
        // idempotent and losses are recovered at the copy's scheduled
        // finish.
        for (c, m) in siblings {
            if self.faults.is_some() {
                self.pending_kill.insert((job, c), self.dyn_inc[m.0]);
            }
            self.tele_kills += 1;
            self.send_msg(Ev::Kill {
                worker: m.0,
                job,
                copy: c,
                inc: self.dyn_inc[m.0],
            });
        }
        // New phases: their tasks need reservations too.
        for &pi in &out.newly_eligible {
            let tasks = self.jobs[job].phases()[pi].num_tasks();
            self.pending_orig[job] += tasks;
            let probes = ((tasks as f64 * self.cfg.probe_ratio).ceil() as usize).max(1);
            self.send_probes(job, probes);
        }
        if out.job_done {
            self.complete_job(job, now);
        }
        self.maybe_start_episode(worker, now);
    }

    /// Kill notification reaches the worker running a lost sibling.
    fn on_kill(&mut self, worker: usize, job: usize, copy: CopyRef, inc: u64, now: SimTime) {
        // Idempotence (faults only): only the kill still present in the
        // pending ledger settles accounting — a duplicate, or a kill
        // whose copy already returned its slot at its scheduled finish,
        // is a complete no-op. The job may be retired; nothing here
        // dereferences `jobs[job]` (the copy was marked killed in job
        // state at race-resolution time, before any retirement).
        if self.faults.is_some() && self.pending_kill.remove(&(job, copy)).is_none() {
            return;
        }
        // The lost sibling's copy is accounted gone either way; its slot
        // only returns if the machine has not failed since the kill was
        // sent (incarnation match).
        self.occupied[job] = self.occupied[job].saturating_sub(1);
        if inc == self.dyn_inc[worker] {
            if let Some(a) = self.audit.as_mut() {
                a.note_copy_stopped(worker);
            }
            self.workers[worker].free += 1;
            self.machines.release_to(MachineId(worker), job);
            self.maybe_start_episode(worker, now);
        }
    }

    /// Apply one scheduler crash/recover incident (never reached while
    /// scheduler faults are off).
    fn on_sched_dyn(&mut self, ev: SchedEv, now: SimTime) {
        if let Some((delay, next)) = self
            .sched_chain
            .as_mut()
            .expect("scheduler event without a crash chain")
            .apply(ev)
        {
            self.queue.push(now + delay, Ev::SchedDyn(next));
        }
        match ev {
            SchedEv::Fail(s) => {
                // The crash loses every piece of scheduler-side scratch:
                // claims, candidate lists, the learned β prior. Ground
                // truth (running copies) lives on the workers and
                // survives; in-flight replies to this scheduler are
                // invalidated by the incarnation bump, and in-flight
                // assigns it already sent stay valid — their delivery-
                // time re-validation makes re-dispatch after recovery
                // safe.
                self.sched_up[s] = false;
                self.sched_inc[s] += 1;
                self.stats.sched_failovers += 1;
                for idx in 0..self.sched_jobs[s].len() {
                    let j = self.sched_jobs[s][idx];
                    self.candidates[j] = VecDeque::new();
                    self.claimed[j] = std::collections::HashSet::new();
                }
                self.beta_est[s] = BetaEstimator::with_prior(1.5);
            }
            SchedEv::Recover(s) => {
                // Recovery rebuilds the counters from ground truth (the
                // workers' running copies) and re-probes every owned job
                // with launchable work. Candidates regrow at the next
                // scan; β re-learns from scratch.
                self.sched_up[s] = true;
                let owned: Vec<usize> = self.sched_jobs[s].clone();
                for j in owned {
                    self.occupied[j] = self.jobs[j].occupied_slots();
                    self.pending_orig[j] = self.jobs[j].pending_tasks().count();
                    if self.pending_orig[j] > 0 {
                        let probes = ((self.pending_orig[j] as f64 * self.cfg.probe_ratio).ceil()
                            as usize)
                            .max(1);
                        self.stats.msgs_retried += probes as u64;
                        self.send_probes(j, probes);
                    }
                }
            }
        }
    }

    /// A response lease fired (faults only): if the worker processed any
    /// reply since the lease was armed its RPC sequence moved on and the
    /// lease is void; otherwise the reply was lost (or stale-dropped)
    /// and the promised slot is reclaimed instead of leaking.
    fn on_lease(&mut self, worker: usize, seq: u64, now: SimTime) {
        if seq != self.rpc_seq[worker] || self.workers[worker].episode.is_none() {
            return;
        }
        self.stats.orphan_reclaimed += 1;
        self.end_episode(worker);
        self.workers[worker].free += 1;
        self.maybe_start_episode(worker, now);
    }

    /// The per-job watchdog fired (faults only). Progress resets the
    /// backoff; a genuine stall reconciles the scheduler's counters
    /// against ground truth and sends a fresh probe round, with capped
    /// exponential backoff and a retry budget that wraps around — after
    /// exhaustion the job simply gets another fresh round at base pace,
    /// so a job can degrade but never deadlock.
    fn on_job_timeout(&mut self, job: usize, now: SimTime) {
        if self.done[job] {
            return; // no re-arm: the watchdog dies with the job
        }
        let delay_ms = if self.wd_progress[job] != self.wd_seen[job] {
            // Progress since the last check: reset and keep watching.
            self.wd_seen[job] = self.wd_progress[job];
            self.wd_attempt[job] = 0;
            self.backoff.delay_ms(0)
        } else if !self.sched_up[self.owner[job]] {
            // Owner down: its recovery will reconcile and re-probe; the
            // watchdog only keeps the clock running.
            self.backoff.delay_ms(0)
        } else {
            // Stalled: every probe/reply chain for this job died (lost
            // messages, reclaimed episodes, crashed schedulers). Drop
            // any claims stuck on lost assigns, resync the counters to
            // ground truth, and re-probe. In-flight assigns briefly
            // de-sync `occupied` again — delivery-time re-validation
            // keeps that safe (no task double-launches).
            self.stats.timeouts_fired += 1;
            self.claimed[job] = std::collections::HashSet::new();
            self.occupied[job] = self.jobs[job].occupied_slots();
            self.pending_orig[job] = self.jobs[job].pending_tasks().count();
            if self.pending_orig[job] > 0 || !self.candidates[job].is_empty() {
                let probes = ((self.jobs[job].current_remaining() as f64 * self.cfg.probe_ratio)
                    .ceil() as usize)
                    .max(1);
                self.stats.msgs_retried += probes as u64;
                self.send_probes(job, probes);
            }
            let attempt = self.wd_attempt[job];
            self.wd_attempt[job] = self.backoff.next_attempt(attempt);
            self.backoff.delay_ms(attempt)
        };
        let _ = now;
        self.queue
            .push_after(SimTime::from_millis(delay_ms), Ev::JobTimeout { job });
    }

    /// Complete and **retire** `job`: fold its outcome into the digest
    /// and accumulators (plus a `JobResult` in materialized mode), drop
    /// its task/copy state and scheduler-side scratch, and remove it from
    /// every live index. From this instant the job is observationally
    /// gone — any path touching `jobs[job]` panics (the retirement
    /// invariant, DESIGN.md).
    fn complete_job(&mut self, job: usize, now: SimTime) {
        self.done[job] = true;
        self.done_count += 1;
        self.active_count -= 1;
        // Replace (not clear): `clear` keeps capacity alive forever.
        self.candidates[job] = VecDeque::new();
        self.claimed[job] = std::collections::HashSet::new();
        let pos = self
            .live
            .binary_search(&job)
            .expect("completed job is live");
        self.live.remove(pos);
        let part = &mut self.sched_jobs[self.owner[job]];
        let pos = part
            .binary_search(&job)
            .expect("completed job is in its partition");
        part.remove(pos);
        let retired = self.jobs.retire(job);
        let result = JobResult {
            job: retired.id,
            size_tasks: retired.spec.size_tasks(),
            dag_len: retired.spec.dag_len(),
            arrival: retired.spec.arrival,
            completed: now,
        };
        self.digest.observe_ms(result.duration_ms());
        self.tele.observe_jct(result.duration_ms());
        if self.retain_jobs {
            self.results.push(result);
        }
        self.stats.makespan = self.stats.makespan.max(now);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopper_workload::{TraceGenerator, WorkloadProfile};

    fn small_cfg(seed: u64) -> DecConfig {
        DecConfig {
            cluster: ClusterConfig {
                machines: 100,
                slots_per_machine: 2,
                handoff_ms: 0,
                ..Default::default()
            },
            num_schedulers: 5,
            seed,
            ..Default::default()
        }
    }

    fn trace(seed: u64, n: usize, util: f64) -> Trace {
        let profile = WorkloadProfile::facebook()
            .interactive()
            .single_phase()
            .fixed_beta(1.5);
        TraceGenerator::new(profile, n, seed).generate_with_utilization(200, util)
    }

    #[test]
    fn all_jobs_complete_under_every_policy() {
        let t = trace(1, 40, 0.7);
        for policy in [
            DecPolicy::Sparrow,
            DecPolicy::SparrowSrpt,
            DecPolicy::Hopper,
        ] {
            let out = run(&t, policy, &small_cfg(1));
            assert_eq!(out.jobs.len(), t.len(), "{}", policy.name());
            assert!(out.stats.makespan > SimTime::ZERO);
        }
    }

    #[test]
    fn runs_are_deterministic() {
        let t = trace(2, 30, 0.7);
        let a = run(&t, DecPolicy::Hopper, &small_cfg(7));
        let b = run(&t, DecPolicy::Hopper, &small_cfg(7));
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.completed, y.completed);
        }
        assert_eq!(a.stats.events, b.stats.events);
        assert_eq!(a.stats.responses, b.stats.responses);
    }

    #[test]
    fn hopper_beats_sparrow_baselines() {
        // The paper's headline (Figure 6): decentralized Hopper reduces
        // average job duration versus both Sparrow and Sparrow-SRPT.
        // Uses the calibrated operating point (600 slots, 75% util,
        // heterogeneous β) — see EXPERIMENTS.md for the full sweep.
        let mut sparrow = 0.0;
        let mut srpt = 0.0;
        let mut hopper = 0.0;
        for seed in 0..3 {
            let profile = WorkloadProfile::facebook().interactive().single_phase();
            let t = TraceGenerator::new(profile, 150, seed).generate_with_utilization(600, 0.75);
            let cfg = DecConfig {
                cluster: ClusterConfig {
                    machines: 300,
                    slots_per_machine: 2,
                    handoff_ms: 0,
                    ..Default::default()
                },
                seed,
                ..Default::default()
            };
            sparrow += run(&t, DecPolicy::Sparrow, &cfg).mean_duration_ms();
            srpt += run(&t, DecPolicy::SparrowSrpt, &cfg).mean_duration_ms();
            hopper += run(&t, DecPolicy::Hopper, &cfg).mean_duration_ms();
        }
        assert!(
            hopper < srpt && hopper < sparrow,
            "hopper {hopper:.0} vs sparrow-srpt {srpt:.0} vs sparrow {sparrow:.0}"
        );
    }

    #[test]
    fn speculation_happens_and_wins() {
        let t = trace(5, 60, 0.7);
        let out = run(&t, DecPolicy::Hopper, &small_cfg(5));
        assert!(out.stats.spec_launched > 0);
        assert!(out.stats.spec_won > 0);
        assert!(out.stats.spec_won <= out.stats.spec_launched);
    }

    #[test]
    fn protocol_counters_are_consistent() {
        let t = trace(6, 50, 0.7);
        let out = run(&t, DecPolicy::Hopper, &small_cfg(6));
        let total_tasks: u64 = t.jobs.iter().map(|j| j.num_tasks() as u64).sum();
        assert_eq!(
            out.stats.orig_launched, total_tasks,
            "every original ran once"
        );
        assert!(out.stats.reservations >= total_tasks * 2);
        assert!(out.stats.responses > 0);
    }

    #[test]
    fn more_probes_help_hopper_under_load() {
        let mut d2 = 0.0;
        let mut d4 = 0.0;
        for seed in 0..3 {
            let t = trace(seed + 20, 120, 0.85);
            let mut cfg = small_cfg(seed);
            cfg.probe_ratio = 2.0;
            d2 += run(&t, DecPolicy::Hopper, &cfg).mean_duration_ms();
            cfg.probe_ratio = 4.0;
            d4 += run(&t, DecPolicy::Hopper, &cfg).mean_duration_ms();
        }
        // The power of many choices (§5.1): d=4 should not be worse by
        // more than noise, and typically clearly better.
        assert!(d4 < d2 * 1.05, "d=4 {d4:.0} vs d=2 {d2:.0}");
    }

    #[test]
    fn empty_trace() {
        let out = run(&Trace::default(), DecPolicy::Hopper, &small_cfg(1));
        assert!(out.jobs.is_empty());
    }

    /// Reservations delivered after their job completed (the message was
    /// in flight when the last task finished) must be dropped on arrival,
    /// exactly as the old unconditional queue purge did. The race needs a
    /// scan-rescue probe followed by the job's last straggler finishing
    /// inside the message latency, so this test stresses the widest
    /// window (long latency, fast scans, high load) and leans on the
    /// purge-invariant assert in `maybe_start_episode` — live across the
    /// whole dev-profile suite — as the oracle.
    #[test]
    fn stale_inflight_reservations_are_dropped() {
        for seed in [3u64, 7] {
            for policy in [DecPolicy::Sparrow, DecPolicy::Hopper] {
                let t = trace(seed, 60, 0.9);
                let mut cfg = small_cfg(seed);
                cfg.msg_latency = SimTime::from_millis(400);
                cfg.scan_interval = SimTime::from_millis(50);
                let out = run(&t, policy, &cfg);
                assert_eq!(out.jobs.len(), t.len(), "{} seed {seed}", policy.name());
            }
        }
    }

    #[test]
    fn dag_jobs_complete() {
        let profile = WorkloadProfile::facebook().interactive().fixed_dag_len(3);
        let t = TraceGenerator::new(profile, 25, 9).generate_with_utilization(200, 0.6);
        let out = run(&t, DecPolicy::Hopper, &small_cfg(9));
        assert_eq!(out.jobs.len(), t.len());
        assert!(out.jobs.iter().all(|r| r.dag_len == 3));
    }
}
