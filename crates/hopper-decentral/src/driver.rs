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

use std::collections::HashMap;

use crate::audit::{Auditor, MsgKind};
use crate::book::{fair_share, owner, task_pair, task_ref, SchedBook, Worker};
use crate::faults::{FaultConfig, MsgFaults, SchedEv, SchedulerChain};
use hopper_cluster::{
    ClusterConfig, CopyRef, DynEvent, DynamicsConfig, JobRun, MachineDynamics, MachineId, TaskRef,
};
use hopper_core::protocol::{
    bump_stamp, wire_u32, BackoffPolicy, PickScratch, Reservation, ResponseKind, UnsatisfiedJob,
};
use hopper_metrics::{
    JobDigest, JobResult, RunReport, RunSummary, SeriesCollector, TelemetrySnapshot,
};
use hopper_sim::{EventQueue, QueueCounters, SeedSequence, SimTime};
use hopper_spec::Speculator;
use hopper_workload::{ArrivalSource, Trace, TraceJob};
use rand::rngs::StdRng;

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

impl DecConfig {
    /// An empty event queue with the delay lanes both decentralized
    /// engines use, most traffic first: the message latency (every
    /// unjittered RPC and ack), the scan period (scans and the sharded
    /// engine's self-polls), the RPC timeout (leases and first
    /// watchdogs, faults on only), then each jitter class
    /// `msg_latency + 1..=msg_jitter_ms` until the queue's lane cap.
    pub(crate) fn event_queue<E>(&self) -> EventQueue<E> {
        let faults_on = self.faults.enabled();
        let timeout = faults_on.then(|| SimTime::from_millis(self.faults.rpc_timeout_ms));
        let jitter =
            (1..=self.faults.msg_jitter_ms).map(|j| self.msg_latency + SimTime::from_millis(j));
        EventQueue::with_lanes(
            [self.msg_latency, self.scan_interval]
                .into_iter()
                .chain(timeout)
                .chain(jitter),
        )
    }
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
    /// Heap and delay-lane pushes of the engine's event queue (lanes
    /// from `DecConfig::event_queue`). The sharded engine sums its
    /// shards' queues, and the sums are the same for every shard count.
    /// Every event, job arrivals included, is pushed once and popped
    /// once, so heap pushes + lane pushes = `stats.events`; each arrival
    /// is one heap push. Not in `report.core`: they count work, not
    /// outcomes.
    pub queue_counters: QueueCounters,
    /// Launches that left more than `MAX_RUNNING_COPIES` copies of their
    /// task running, summed over retired jobs (and over shards; the same
    /// for every shard count). Observational: offers inside one message
    /// round trip can pick the same task for an extra copy (DESIGN.md,
    /// "Deviations"). Not in `stats`, whose `Debug` form the goldens pin.
    pub over_limit_launches: u64,
}

impl RunSummary for DecOutput {
    fn jobs(&self) -> &[JobResult] {
        &self.jobs
    }

    fn report(&self) -> &RunReport {
        &self.report
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
    assert!(
        cfg.num_schedulers >= 1,
        "decentralized run needs a scheduler"
    );
    if cfg.shards >= 1 {
        assert!(
            cfg.msg_latency >= SimTime::from_millis(1),
            "sharded engine needs msg_latency >= 1ms (it is the conservative lookahead)"
        );
        return crate::shard::run_sharded(source, policy, cfg, retain_jobs);
    }
    Decentral::new(source, policy, cfg, retain_jobs).run()
}

/// One event of the serial driver. Worker and job ids, the task pair
/// and the incarnation/epoch stamps are `u32` (checked where each is
/// created, `hopper_core::protocol::wire_u32`), so an event is at most
/// 48 bytes.
#[derive(Debug, Clone)]
enum Ev {
    /// The arrival of `Decentral::next_job`, queued by `push_arrival`
    /// ahead of every other event at its instant.
    Arrival,
    /// Reservation lands in a worker queue.
    Reservation { worker: u32, res: Reservation },
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
        worker: u32,
        job: u32,
        kind: ResponseKind,
        inc: u32,
        ep: u32,
        sinc: u32,
    },
    /// Scheduler assigns a task (`(phase, task)`) to the worker's
    /// promised slot (echoes the offer's incarnation and episode epoch).
    Assign {
        worker: u32,
        job: u32,
        task: (u32, u32),
        speculative: bool,
        inc: u32,
        ep: u32,
    },
    /// Scheduler declines the offer (with optional unsatisfied-job info;
    /// echoes the offer's incarnation and episode epoch).
    Refusal {
        worker: u32,
        job: u32,
        unsatisfied: Option<UnsatisfiedJob>,
        inc: u32,
        ep: u32,
    },
    /// A copy finished on `worker`.
    Finish {
        job: u32,
        copy: CopyRef,
        worker: u32,
    },
    /// Kill notification reaches the worker running a lost sibling
    /// (stamped with the worker's incarnation at race-resolution time —
    /// the slot return is dropped if the machine failed in flight).
    /// `copy` identifies the doomed copy: with faults on it keys the
    /// pending-kill ledger, making duplicated kills idempotent and lost
    /// kills recoverable at the copy's natural finish.
    Kill {
        worker: u32,
        job: u32,
        copy: CopyRef,
        inc: u32,
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
    Lease { worker: u32, seq: u64 },
    /// Per-job watchdog: fires on a backoff schedule; a job with no
    /// launch/finish progress since the last check is reconciled against
    /// ground truth and re-probed. Only ever queued when faults are
    /// enabled.
    JobTimeout { job: u32 },
}

const _: () = assert!(std::mem::size_of::<Ev>() <= 48);

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
        Ev::Arrival
        | Ev::Finish { .. }
        | Ev::Scan
        | Ev::Dyn(_)
        | Ev::SchedDyn(_)
        | Ev::Lease { .. }
        | Ev::JobTimeout { .. } => None,
    }
}

struct Decentral<'a> {
    policy: DecPolicy,
    cfg: &'a DecConfig,
    queue: EventQueue<Ev>,
    /// One worker per machine (`crate::book`): its queue, slots,
    /// episode, and the incarnation/epoch/lease stamps.
    workers: Vec<Worker>,
    /// Per worker, the value of the completed-job counter when its queue
    /// last purged finished jobs' reservations. While no further job has
    /// completed, the queue provably holds only live reservations and the
    /// per-touch O(queue) purge scan is skipped.
    purged_at: Vec<u64>,
    /// Undelivered arrivals after `next_job`.
    arrivals: ArrivalSource<'a>,
    /// The job whose [`Ev::Arrival`] is queued (`None` once the source
    /// is exhausted).
    next_job: Option<TraceJob>,
    /// One book per scheduler (`crate::book`): every live job's runtime
    /// state, the scheduler-side counters and scratch, and the learned
    /// β. Job `j` lives in book `j % K` at local index `j / K`.
    books: Vec<SchedBook>,
    /// Total jobs of the run.
    num_jobs: usize,
    /// Placement randomness for lazily constructed `JobRun`s; consumed
    /// in arrival (= id) order, exactly as the eager constructor did.
    placement_rng: StdRng,
    /// Whether per-job `JobResult`s are retained (false for streaming).
    retain_jobs: bool,
    /// Live job ids in ascending order (arrivals come in id order, so a
    /// push maintains it; completion removes by binary search). Scans
    /// and dynamics walk this instead of every job id ever issued —
    /// identical iteration to the old `0..n` loops with their
    /// done/arrived guards, but O(live), and structurally incapable of
    /// touching a retired job.
    live: Vec<u32>,
    /// Most jobs simultaneously live over the run.
    live_high_water: usize,
    /// Jobs completed so far (the epoch for worker-queue purges).
    done_count: u64,
    scan_armed: bool,
    /// Machine speed/availability state; `None` when dynamics are off.
    dynamics: Option<MachineDynamics>,
    /// Per-message fault sampler; `None` when faults are off (in which
    /// case `send_msg` degenerates to the historical exactly-once push).
    faults: Option<MsgFaults>,
    /// Scheduler crash chains; `None` unless faults with a nonzero
    /// scheduler crash rate are enabled.
    sched_chain: Option<SchedulerChain>,
    /// Per-scheduler incarnation, bumped on crash — the scheduler-side
    /// mirror of `Worker::inc` (always 0 while scheduler faults are off).
    sched_inc: Vec<u32>,
    /// Watchdog pacing (from `faults.rpc_timeout_ms`/`rpc_retries`).
    backoff: BackoffPolicy,
    /// Kill messages in flight, keyed by the doomed copy and stamped
    /// with the worker incarnation at send. Maintained only when faults
    /// are enabled: a duplicate kill finds no entry (idempotent), and a
    /// lost kill's entry lets the copy's natural finish return the slot
    /// instead of leaking it.
    pending_kill: HashMap<(u32, CopyRef), u32>,
    /// Dev-profile conservation auditor (`None` in release/bench — the
    /// whole dev test suite re-proves the protocol invariants).
    audit: Option<Box<Auditor>>,
    rng: StdRng,
    /// The Guideline-3 pick buffer every worker step borrows.
    picks: PickScratch,
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
        let k = cfg.num_schedulers;
        let mut queue = cfg.event_queue();
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
            .then(|| SchedulerChain::new(&cfg.faults, k, &seq));
        if let Some(c) = sched_chain.as_mut() {
            for (at, ev) in c.initial_incidents() {
                queue.push(at, Ev::SchedDyn(ev));
            }
        }
        let mut sim = Decentral {
            policy,
            cfg,
            queue,
            workers: vec![Worker::new(cfg.cluster.slots_per_machine); cfg.cluster.machines],
            purged_at: vec![0; cfg.cluster.machines],
            arrivals,
            next_job: None,
            books: (0..k)
                .map(|s| SchedBook::new(s, k, n, cfg.probe_ratio, cfg.cluster.machines))
                .collect(),
            num_jobs: n,
            placement_rng: seq.child_rng(0xB10C),
            retain_jobs,
            live: Vec::new(),
            live_high_water: 0,
            done_count: 0,
            scan_armed: false,
            dynamics,
            faults: faults_on.then(|| MsgFaults::new(cfg.faults, &seq)),
            sched_chain,
            sched_inc: vec![0; k],
            backoff: BackoffPolicy::new(cfg.faults.rpc_timeout_ms, cfg.faults.rpc_retries),
            pending_kill: HashMap::new(),
            audit: cfg!(debug_assertions).then(|| Auditor::new(cfg.cluster.machines)),
            rng: seq.child_rng(0xDEC),
            picks: PickScratch::default(),
            results: Vec::with_capacity(if retain_jobs { n } else { 0 }),
            stats: DecStats::default(),
            digest: JobDigest::new(),
            ev_counts: [0; 12],
            tele: SeriesCollector::new(cfg.telemetry_window_ms, cfg.cluster.total_slots() as u64),
            tele_kills: 0,
        };
        sim.queue_next_arrival();
        sim
    }

    /// Take the source's next job and queue its arrival.
    fn queue_next_arrival(&mut self) {
        self.next_job = self.arrivals.pop();
        if let Some(job) = &self.next_job {
            self.queue.push_arrival(job.arrival, Ev::Arrival);
        }
    }

    /// Owning book and local index of job `j`.
    #[inline]
    fn at(&self, j: u32) -> (usize, usize) {
        owner(j as usize, self.books.len())
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
                match ev {
                    Ev::Assign { job, .. } | Ev::Kill { job, .. } => a.note_occ_sent(job),
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
        let (first, dups) = out
            .deliveries
            .split_first()
            .expect("surviving message delivers");
        for d in dups {
            self.queue.push_after(latency + d.extra, ev.clone());
        }
        self.queue.push_after(latency + first.extra, ev);
    }

    /// Dev-profile invariant re-check after an event touched a worker
    /// and/or a job (see `crate::audit`).
    fn audit_event(&self, ev: &Ev) {
        let Some(a) = self.audit.as_ref() else { return };
        let check_w = |w: u32| {
            let w = w as usize;
            a.check_worker(
                w,
                self.worker_up(w),
                self.workers[w].free() as u64,
                self.workers[w].has_episode(),
                self.cfg.cluster.slots_per_machine as u64,
            );
        };
        // Per-job occupancy only reconciles exactly while faults are off
        // (see `Auditor::check_job`), and a retired job has no ground
        // truth left to compare.
        let check_j = |j: u32| {
            if self.faults.is_some() {
                return;
            }
            let (s, lj) = self.at(j);
            if let Some((count, truth)) = self.books[s].occupancy(lj) {
                a.check_job(j, count, truth);
            }
        };
        match *ev {
            Ev::Reservation { worker, ref res } => {
                check_w(worker);
                check_j(res.job);
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
            Ev::Dyn(d) => check_w(wire_u32(d.machine().0, "worker id")),
            Ev::Arrival | Ev::Scan | Ev::SchedDyn(_) | Ev::JobTimeout { .. } => {}
        }
    }

    fn run(mut self) -> DecOutput {
        self.drain();
        self.finish()
    }

    /// Deliver queued events, arrivals included, until none is left.
    fn drain(&mut self) {
        while let Some((now, ev)) = self.queue.pop() {
            self.tele_tick(now);
            self.stats.events += 1;
            if self.stats.events > self.cfg.max_events {
                let stuck: Vec<String> = self
                    .live
                    .iter()
                    .take(5)
                    .map(|&j| {
                        let (s, lj) = self.at(j);
                        self.books[s].describe(lj)
                    })
                    .collect();
                let active_eps = self.workers.iter().filter(|w| w.has_episode()).count();
                let queued_res: usize = self.workers.iter().map(|w| w.queue.len()).sum();
                panic!(
                    "event budget exceeded ({}) at t={now}; live_jobs={} pending_events={} worker_episodes={} queued_reservations={} ev_counts(arr/res/resp/asgn/ref/fin/kill/scan/dyn/sdyn/lease/wd)={:?} unfinished: {stuck:#?}",
                    self.policy.name(),
                    self.live.len(),
                    self.queue.len(),
                    active_eps,
                    queued_res,
                    self.ev_counts,
                );
            }
            self.ev_counts[match &ev {
                Ev::Arrival => 0,
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
                        match ev {
                            Ev::Assign { job, .. } | Ev::Kill { job, .. } => {
                                a.note_occ_delivered(job)
                            }
                            _ => {}
                        }
                    }
                }
            }
            match ev {
                Ev::Arrival => {
                    let spec = self.next_job.take().expect("a queued arrival has its job");
                    self.queue_next_arrival();
                    self.on_job_arrive(spec, now);
                }
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
                    let (s, lj) = self.at(res.job);
                    let worker = worker as usize;
                    if !self.worker_up(worker) {
                        self.books[s].reservations_gone(lj, 1);
                    } else if self.books[s].is_live(lj) {
                        self.workers[worker].queue.push(res);
                    }
                    self.maybe_start_episode(worker);
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
                } => self.on_assign(worker, job, task_ref(task), speculative, inc, ep, now),
                Ev::Refusal {
                    worker,
                    job,
                    unsatisfied,
                    inc,
                    ep,
                } => self.on_refusal(worker, job, unsatisfied, inc, ep),
                Ev::Finish { job, copy, worker } => self.on_finish(job, copy, worker, now),
                Ev::Kill {
                    worker,
                    job,
                    copy,
                    inc,
                } => self.on_kill(worker, job, copy, inc),
                Ev::SchedDyn(sev) => {
                    // Same drain rule as machine dynamics: the crash
                    // chain dies with the workload.
                    if self.live.is_empty() && self.next_job.is_none() {
                        continue;
                    }
                    self.on_sched_dyn(sev, now);
                }
                Ev::Lease { worker, seq } => self.on_lease(worker as usize, seq),
                Ev::JobTimeout { job } => self.on_job_timeout(job),
                Ev::Dyn(ev) => {
                    // The incident chain dies with the workload (see the
                    // centralized driver): drop unapplied once all jobs
                    // completed so the queue drains.
                    if self.live.is_empty() && self.next_job.is_none() {
                        continue;
                    }
                    self.on_dyn(ev, now);
                }
                Ev::Scan => {
                    self.scan_armed = false;
                    // Both scan passes walk the global live list (ascending
                    // id — the order the old `0..n` loops visited live jobs
                    // in, and the order re-probes draw from `rng`), so scan
                    // cost is O(live jobs), not O(all jobs ever arrived).
                    let speculator = &self.cfg.speculator;
                    for &j in &self.live {
                        let (s, lj) = owner(j as usize, self.books.len());
                        self.books[s].refresh_candidates(lj, speculator, now);
                    }
                    for idx in 0..self.live.len() {
                        let (s, lj) = self.at(self.live[idx]);
                        if let Some(probes) = self.books[s].starved(lj) {
                            self.send_probes(s, lj, probes);
                        }
                    }
                    self.arm_scan();
                    // Re-poll dormant workers: new candidates may make
                    // previously-refusing jobs worth offering again.
                    for w in 0..self.workers.len() {
                        self.maybe_start_episode(w);
                    }
                }
            }
            if let Some(ev) = audit_ev {
                self.audit_event(&ev);
            }
        }
    }

    /// Check the drained run's end state and assemble its output.
    fn finish(mut self) -> DecOutput {
        assert!(
            self.done_count as usize == self.num_jobs && self.next_job.is_none(),
            "decentralized run drained with {} of {} jobs finished",
            self.done_count,
            self.num_jobs
        );
        if let Some(a) = self.audit.as_ref() {
            for w in 0..self.workers.len() {
                a.check_worker(
                    w,
                    self.worker_up(w),
                    self.workers[w].free() as u64,
                    self.workers[w].has_episode(),
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
            live_high_water: self.live_high_water,
            telemetry,
        };
        DecOutput {
            jobs,
            stats: self.stats,
            report,
            shard: None,
            queue_counters: self.queue.counters(),
            over_limit_launches: self.books.iter().map(|b| b.over_limit_launches).sum(),
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
            .books
            .iter()
            .flat_map(|b| b.live.iter().map(|&lj| b.jobs[lj].occupied_slots() as u64))
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
        if !self.scan_armed && (!self.live.is_empty() || self.next_job.is_some()) {
            self.queue.push_after(self.cfg.scan_interval, Ev::Scan);
            self.scan_armed = true;
        }
    }

    /// Build job `j`'s runtime state and probe for its tasks. Lazy
    /// construction consumes `placement_rng` in arrival (= id) order —
    /// the same draw sequence the historical build-everything-up-front
    /// constructor used, so results are bit-identical.
    fn on_job_arrive(&mut self, spec: TraceJob, now: SimTime) {
        let j = wire_u32(spec.id, "job id");
        debug_assert_eq!(spec.arrival, now);
        let (s, lj) = self.at(j);
        let job = JobRun::new(spec, &self.cfg.cluster, &mut self.placement_rng);
        self.books[s].admit(lj, job);
        debug_assert!(self.live.last().is_none_or(|&last| last < j));
        self.live.push(j);
        self.live_high_water = self.live_high_water.max(self.live.len());
        self.arm_scan();
        let targets = self.books[s].arrival_probes(lj, &mut self.rng);
        self.send_reservations(s, lj, targets);
        // Watchdog (faults only): first check one timeout out; resets
        // whenever the job makes progress, backs off while it does not.
        if self.faults.is_some() {
            self.queue.push_after(
                SimTime::from_millis(self.backoff.delay_ms(0)),
                Ev::JobTimeout { job: j },
            );
        }
    }

    /// Send `count` fresh reservations for book `s`'s job `lj` to random
    /// workers (none while the scheduler is down: its recovery
    /// re-probes).
    fn send_probes(&mut self, s: usize, lj: usize, count: usize) {
        let targets = self.books[s].random_probes(lj, count, &mut self.rng);
        self.send_reservations(s, lj, targets);
    }

    /// Send a reservation for book `s`'s job `lj` to each of `targets`.
    fn send_reservations(&mut self, s: usize, lj: usize, targets: Vec<u32>) {
        if targets.is_empty() {
            return;
        }
        let res = self.books[s].reservation(lj);
        for worker in targets {
            self.stats.reservations += 1;
            self.send_msg(Ev::Reservation { worker, res });
        }
    }

    /// Start a late-binding episode if the worker is up and has a free
    /// slot, no episode in flight, and a non-empty queue.
    fn maybe_start_episode(&mut self, w: usize) {
        if !self.worker_up(w) {
            return;
        }
        // Purge reservations of finished jobs first (piggybacked
        // completion notifications). Skipped while no job has completed
        // since this worker's last purge — every queued reservation was
        // live then and only live jobs enqueue new ones, so the scan would
        // remove nothing.
        let books = &self.books;
        let live = |r: &Reservation| {
            let (s, lj) = owner(r.job as usize, books.len());
            books[s].is_live(lj)
        };
        if self.purged_at[w] != self.done_count {
            self.workers[w].queue.retain(live);
            self.purged_at[w] = self.done_count;
        }
        debug_assert!(
            self.workers[w].queue.iter().all(live),
            "stale reservation survived the epoch-gated purge"
        );
        if self.workers[w].open_episode(self.cfg.refusal_threshold) {
            self.episode_step(w);
        }
    }

    /// Advance the worker's episode by one protocol step: send its offer
    /// and lease the promised slot (faults only: if no reply of any kind
    /// is processed within the RPC timeout, the episode is reclaimed
    /// instead of hanging forever).
    fn episode_step(&mut self, w: usize) {
        let thr = self.cfg.refusal_threshold;
        let k = self.books.len();
        let (offer, switched) =
            self.workers[w].step(self.policy, thr, k, &mut self.picks, &mut self.rng);
        if switched {
            self.stats.guideline3_switches += 1;
        }
        let Some(o) = offer else { return };
        self.stats.responses += 1;
        let worker = wire_u32(w, "worker id");
        self.send_msg(Ev::Response {
            worker,
            job: o.job,
            kind: o.kind,
            inc: o.inc,
            ep: o.ep,
            sinc: self.sched_inc[o.scheduler],
        });
        if self.faults.is_some() {
            self.queue.push_after(
                SimTime::from_millis(self.cfg.faults.rpc_timeout_ms),
                Ev::Lease {
                    worker,
                    seq: o.lease,
                },
            );
        }
    }

    /// Scheduler-side handling of a worker's slot offer (Pseudocode 2,
    /// decided by the owning book). `inc`/`ep` are the offer's worker
    /// incarnation and episode epoch, echoed into the reply; `sinc` is
    /// the scheduler incarnation the offer was addressed to.
    #[allow(clippy::too_many_arguments)]
    fn on_response(
        &mut self,
        worker: u32,
        job: u32,
        kind: ResponseKind,
        inc: u32,
        ep: u32,
        sinc: u32,
        now: SimTime,
    ) {
        // Offer addressed to a crashed scheduler (down, or a pre-crash
        // incarnation): the reply is effectively lost — the worker's
        // lease reclaims the promised slot. Never taken while scheduler
        // faults are off (all up, all incarnations 0).
        let (s, lj) = self.at(job);
        if !self.books[s].up || sinc != self.sched_inc[s] {
            return;
        }
        if !self.books[s].is_live(lj) {
            self.send_refusal(worker, s, lj, inc, ep);
            return;
        }
        // The active-job count is piggybacked on scheduler↔worker
        // traffic, so every scheduler knows it without extra messages.
        let share = fair_share(
            self.cfg.fairness_eps,
            self.cfg.cluster.total_slots(),
            self.live.len(),
        );
        let m = MachineId(worker as usize);
        match self.books[s].serve(lj, kind, m, self.policy, share, now) {
            Some((task, speculative)) => self.send_msg(Ev::Assign {
                worker,
                job,
                task: task_pair(task),
                speculative,
                inc,
                ep,
            }),
            None => self.send_refusal(worker, s, lj, inc, ep),
        }
    }

    /// Refuse an offer for book `s`'s job `lj`, advertising the
    /// scheduler's smallest unsatisfied job (Pseudocode 3).
    fn send_refusal(&mut self, worker: u32, s: usize, lj: usize, inc: u32, ep: u32) {
        self.stats.refusals += 1;
        let book = &self.books[s];
        let ev = Ev::Refusal {
            worker,
            job: book.wire_job(lj),
            unsatisfied: book.best_unsatisfied(lj),
            inc,
            ep,
        };
        self.send_msg(ev);
    }

    fn on_refusal(
        &mut self,
        worker: u32,
        job: u32,
        unsatisfied: Option<UnsatisfiedJob>,
        inc: u32,
        ep: u32,
    ) {
        let worker = worker as usize;
        // A stale refusal answers a slot that died with the machine or an
        // episode that already ended (see `Worker::take_reply`).
        if !self.workers[worker].take_reply(inc, ep) {
            return;
        }
        let (s, lj) = self.at(job);
        if self.workers[worker].refused(self.policy, job, unsatisfied) {
            self.books[s].reservations_gone(lj, 1);
        }
        self.episode_step(worker);
    }

    /// A task assignment arrives at the worker: consume a reservation and
    /// start executing.
    #[allow(clippy::too_many_arguments)]
    fn on_assign(
        &mut self,
        worker: u32,
        job: u32,
        task: TaskRef,
        speculative: bool,
        inc: u32,
        ep: u32,
        now: SimTime,
    ) {
        let (s, lj) = self.at(job);
        let w = worker as usize;
        // The promised slot is gone: the machine failed while the
        // assignment was in flight, or the episode already ended (a
        // duplicated assign whose first delivery consumed the episode,
        // or a lease reclaim after this reply was presumed lost). Undo
        // the scheduler-side accounting; the worker is untouched.
        let Some(consumed) = self.workers[w].assigned(inc, ep, job) else {
            self.books[s].assign_failed(lj, task, speculative);
            return;
        };
        // Validate against races: the job may have completed — and been
        // retired — or the task may have finished while the assignment
        // was in flight.
        if !self.books[s].assign_landed(lj, task, speculative, consumed) {
            self.workers[w].release_slot();
            self.maybe_start_episode(w);
            return;
        }
        let speed = self.machine_speed(w);
        let book = &mut self.books[s];
        if let Some(a) = self.audit.as_mut() {
            let t = &book.jobs[lj].phases()[task.phase].tasks[task.task];
            a.note_launch(w, !speculative, t.running_copies() as u64, t.is_finished());
        }
        book.wd_progress[lj] += 1;
        let (copy, dur) = book.jobs[lj].launch_copy_at_speed(
            task,
            MachineId(w),
            speculative,
            now,
            SimTime::ZERO,
            &mut self.rng,
            speed,
        );
        if speculative {
            self.stats.spec_launched += 1;
        } else {
            self.stats.orig_launched += 1;
        }
        self.queue.push(now + dur, Ev::Finish { job, copy, worker });
        let fresh = self.books[s].reservation(lj);
        self.workers[w].piggyback(job, fresh.virtual_size, fresh.remaining_tasks);
        self.maybe_start_episode(w);
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
        let worker = wire_u32(w, "worker id");
        match ev {
            DynEvent::SlowdownStart(_) | DynEvent::SlowdownEnd(_) => {
                let ratio = out.rescale_ratio.expect("speed change carries a ratio");
                // Only live jobs can have running copies; the live list
                // keeps the per-incident cost proportional to the live
                // workload, not the whole stream.
                for idx in 0..self.live.len() {
                    let j = self.live[idx];
                    let (s, lj) = self.at(j);
                    for (copy, finish) in self.books[s].jobs[lj].rescale_machine(m, now, ratio) {
                        self.queue.push(
                            finish,
                            Ev::Finish {
                                job: j,
                                copy,
                                worker,
                            },
                        );
                    }
                }
            }
            DynEvent::Fail(_) => {
                // Worker-side teardown (`Worker::fail`): the parked
                // reservations are written off at their schedulers.
                for r in self.workers[w].fail() {
                    let (s, lj) = self.at(r.job);
                    self.books[s].reservations_gone(lj, 1);
                }
                if let Some(a) = self.audit.as_mut() {
                    a.note_machine_failed(w);
                }
                // Scheduler-side: killed copies leave the occupancy
                // accounting; requeued tasks get fresh probes immediately
                // (their old reservations may be anywhere, but the pending
                // original needs the re-dispatch advertised).
                for idx in 0..self.live.len() {
                    let (s, lj) = self.at(self.live[idx]);
                    let book = &mut self.books[s];
                    let fo = book.jobs[lj].fail_machine(m);
                    if fo.killed == 0 {
                        continue;
                    }
                    book.vacate(lj, fo.killed);
                    if !fo.requeued.is_empty() {
                        let probes = book.requeue(lj, fo.requeued.len());
                        self.send_probes(s, lj, probes);
                    }
                }
            }
            DynEvent::Recover(_) => {
                // The machine rejoins with every slot free and an empty
                // queue; probes find it again through random placement.
                self.workers[w].recover();
            }
        }
    }

    fn on_finish(&mut self, job: u32, copy: CopyRef, worker: u32, now: SimTime) {
        let (s, lj) = self.at(job);
        let worker = worker as usize;
        // Lost or still-in-flight kill (faults only): the kill ledger
        // still holds this copy, so the worker never heard the race was
        // lost and ran the copy to this scheduled finish — it discovers
        // the result is moot and returns the slot itself (lease-style
        // orphan reclamation at task granularity). If the machine failed
        // since the kill was stamped, the slot died with it. The job may
        // already be retired; nothing here dereferences its state.
        if self.faults.is_some() {
            if let Some(kill_inc) = self.pending_kill.remove(&(job, copy)) {
                self.books[s].vacate(lj, 1);
                if kill_inc == self.workers[worker].inc {
                    if let Some(a) = self.audit.as_mut() {
                        a.note_copy_stopped(worker);
                    }
                    self.workers[worker].release_slot();
                    self.maybe_start_episode(worker);
                }
                return;
            }
        }
        // Completions queued for copies that lost their race pop after
        // the job completed and retired; they are stale by definition
        // and must not touch its (gone) state.
        if !self.books[s].is_live(lj) {
            return;
        }
        // A machine-speed change rescheduled this copy: its superseded
        // completion event pops at a time that no longer matches the
        // copy's finish instant. A no-op without dynamics.
        {
            let c = self.books[s].jobs[lj].copy(copy);
            if c.status == hopper_cluster::CopyStatus::Running && c.finish_time() != now {
                return;
            }
        }
        let Some(done) = self.books[s].copy_finished(lj, copy, now, None) else {
            return; // stale (copy killed earlier)
        };
        if done.spec_won {
            self.stats.spec_won += 1;
        }
        // The winner's slot frees immediately.
        if let Some(a) = self.audit.as_mut() {
            a.note_copy_stopped(worker);
        }
        self.workers[worker].release_slot();
        // Kill messages to losing siblings, stamped with the sibling
        // machine's current incarnation. With faults on, each kill is
        // also entered into the pending ledger so duplicates are
        // idempotent and losses are recovered at the copy's scheduled
        // finish.
        for &(c, m) in &done.losers {
            if self.faults.is_some() {
                self.pending_kill.insert((job, c), self.workers[m.0].inc);
            }
            self.tele_kills += 1;
            self.send_msg(Ev::Kill {
                worker: wire_u32(m.0, "worker id"),
                job,
                copy: c,
                inc: self.workers[m.0].inc,
            });
        }
        // New phases: their tasks need reservations too.
        for &probes in &done.phase_probes {
            self.send_probes(s, lj, probes);
        }
        if done.job_done {
            self.complete_job(s, lj, now);
        }
        self.maybe_start_episode(worker);
    }

    /// Kill notification reaches the worker running a lost sibling.
    fn on_kill(&mut self, worker: u32, job: u32, copy: CopyRef, inc: u32) {
        // Idempotence (faults only): only the kill still present in the
        // pending ledger settles accounting — a duplicate, or a kill
        // whose copy already returned its slot at its scheduled finish,
        // is a complete no-op. The job may be retired; nothing here
        // dereferences its state (the copy was marked killed in job
        // state at race-resolution time, before any retirement).
        if self.faults.is_some() && self.pending_kill.remove(&(job, copy)).is_none() {
            return;
        }
        // The lost sibling's copy is accounted gone either way; its slot
        // only returns if the machine has not failed since the kill was
        // sent (incarnation match).
        let (s, lj) = self.at(job);
        let worker = worker as usize;
        self.books[s].vacate(lj, 1);
        if inc == self.workers[worker].inc {
            if let Some(a) = self.audit.as_mut() {
                a.note_copy_stopped(worker);
            }
            self.workers[worker].release_slot();
            self.maybe_start_episode(worker);
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
                // In-flight replies to this scheduler are invalidated by
                // the incarnation bump; in-flight assigns it already sent
                // stay valid — their delivery-time re-validation makes
                // re-dispatch after recovery safe.
                self.books[s].crash();
                bump_stamp(&mut self.sched_inc[s], "scheduler incarnation");
                self.stats.sched_failovers += 1;
            }
            SchedEv::Recover(s) => {
                for (lj, probes) in self.books[s].recover() {
                    self.stats.msgs_retried += probes as u64;
                    self.send_probes(s, lj, probes);
                }
            }
        }
    }

    /// A response lease fired (faults only): if the worker processed any
    /// reply since the lease was armed its RPC sequence moved on and the
    /// lease is void; otherwise the reply was lost (or stale-dropped)
    /// and the promised slot is reclaimed instead of leaking.
    fn on_lease(&mut self, worker: usize, seq: u64) {
        if self.workers[worker].lease_expired(seq) {
            self.stats.orphan_reclaimed += 1;
            self.maybe_start_episode(worker);
        }
    }

    /// The per-job watchdog fired (faults only); the owning book decides
    /// (see `SchedBook::watchdog`).
    fn on_job_timeout(&mut self, job: u32) {
        let (s, lj) = self.at(job);
        let Some((delay_ms, stall)) = self.books[s].watchdog(lj, &self.backoff) else {
            return; // no re-arm: the watchdog dies with the job
        };
        if let Some(probes) = stall {
            self.stats.timeouts_fired += 1;
            if probes > 0 {
                self.stats.msgs_retried += probes as u64;
                self.send_probes(s, lj, probes);
            }
        }
        self.queue
            .push_after(SimTime::from_millis(delay_ms), Ev::JobTimeout { job });
    }

    /// Complete and **retire** book `s`'s job `lj`: fold its outcome
    /// into the digest and accumulators (plus a `JobResult` in
    /// materialized mode) and remove it from every live index (see
    /// `SchedBook::retire`).
    fn complete_job(&mut self, s: usize, lj: usize, now: SimTime) {
        let j = self.books[s].wire_job(lj);
        let result = self.books[s].retire(lj, now);
        self.done_count += 1;
        let pos = self.live.binary_search(&j).expect("completed job is live");
        self.live.remove(pos);
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
        // heterogeneous β); the `fig6_utilization` bench regenerates the
        // full utilization sweep.
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

    /// The queue counters repeat exactly per seed, and with faults off
    /// every RPC delivery (reservation, response, assign, refusal, kill)
    /// took the message-latency lane and every `Scan` the scan-period
    /// lane, while only arrivals and `Finish` used the heap; every event
    /// was pushed once.
    #[test]
    fn queue_counters_are_exact_and_split_rpcs_from_timers() {
        let t = trace(4, 60, 0.8);
        let cfg = small_cfg(4);
        let mut sim = Decentral::new(ArrivalSource::from_trace(&t), DecPolicy::Hopper, &cfg, true);
        sim.drain();
        let e = sim.ev_counts;
        let c = sim.queue.counters();
        assert_eq!(c, run(&t, DecPolicy::Hopper, &cfg).queue_counters);
        assert_eq!(
            c.lane_pushes,
            e[1] + e[2] + e[3] + e[4] + e[6] + e[7],
            "{e:?}"
        );
        assert_eq!(c.heap_pushes, e[0] + e[5], "{e:?}");
        assert_eq!(c.heap_pushes + c.lane_pushes, sim.stats.events);
        assert!(e[4] > 0 && e[6] > 0, "refusals and kills exercised: {e:?}");
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
