//! Sharded decentralized engine: one run, many cores, bit-identical
//! results for every shard count.
//!
//! `run_sharded` (crate-internal; reached through [`crate::run`] when
//! `DecConfig::shards >= 1`) partitions the decentralized simulation's
//! *entities*
//! — schedulers and workers — across `DecConfig::shards` shards.
//! Scheduler `s` lives on shard `s % S`; worker `w` on `w % S`; job `j`
//! belongs to scheduler `j % K` and therefore to its shard. Each shard
//! owns a private event queue (a `hopper_sim::EventQueue` ordered by
//! [`EventKey`]), per-entity RNG children, and the complete runtime
//! state of its entities (worker queues and running-copy records;
//! scheduler job slabs, counters, and estimators). Shards
//! advance in lockstep *conservative windows* (classic conservative
//! PDES): at each window rendezvous every shard publishes its earliest
//! pending event; the next window executes everything strictly before
//! `min(next event) + lookahead`, where the lookahead is the one-way
//! message latency (asserted ≥ 1 ms). Every cross-entity interaction is
//! a message paying at least that latency, so nothing a peer shard has
//! not yet executed can land inside the current window — no rollbacks,
//! no speculation, no locks on simulation state.
//!
//! **Why the result is independent of the shard count.** Three facts
//! compose (pinned by `tests/shard.rs`, spelled out in DESIGN.md,
//! "Sharded execution"):
//!
//! 1. every entity's state is touched only by its own handler, and all
//!    inter-entity interaction rides on messages with ≥ lookahead
//!    latency;
//! 2. every event carries an [`EventKey`] `(time, origin, seq)` whose
//!    per-origin sequence is assigned by the *emitting* entity in its
//!    own deterministic order, so each shard's queue pops in a total
//!    order that restricts the same global order regardless of the
//!    partition;
//! 3. every stream of randomness is owned by a single entity
//!    (per-scheduler decision/placement/fault children, per-worker
//!    Guideline-3/fault children, the per-machine and per-scheduler
//!    incident chains), so draws depend only on that entity's own
//!    event history.
//!
//! Global quantities a handler reads — the ε-fairness active-job count,
//! the drain flag that retires idle incident chains, the event-budget
//! check — are computed from the window-start barrier snapshot, which
//! is itself shard-count-independent because window boundaries are.
//!
//! **Relation to the serial driver.** `shards = 0` (the default) is the
//! serial [`crate::driver`] path. Both engines run every protocol rule
//! through the same code — one `SchedBook` per scheduler and one
//! `Worker` per machine (`crate::book`) — and every copy's lifecycle
//! through the same `JobRun` paths (a launch is `sample_unit_duration`,
//! `duration_at_speed`, `launch_copy_prepared`; a loss is `lose_copy`;
//! a speed change is `rescaled_finish`), so the rules agree by
//! construction. What differs is how a decision is embedded: this
//! engine is message-complete (launch durations are pre-drawn by the
//! owning scheduler and committed at the worker with an explicit ack;
//! kill/loss notifications are per-copy messages; workers self-poll
//! instead of being poked by a global scan) and every entity owns its
//! RNG streams. Its trajectories therefore differ from `shards = 0`, but
//! are identical to *each other* for every shard count ≥ 1. DESIGN.md
//! lists the embedding differences ("Known deviations").

use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::Ordering::Relaxed;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};

use crate::audit::{Auditor, MsgKind};
use crate::book::{fair_share, SchedBook, Worker};
use crate::driver::{DecConfig, DecOutput, DecPolicy, DecStats};
use crate::faults::{MsgFaults, SchedEv, SchedulerChain};
use hopper_cluster::{
    duration_at_speed, rescaled_finish, CopyRef, DynEvent, JobRun, MachineDynamics, MachineId,
    TaskRef,
};
use hopper_core::protocol::{
    BackoffPolicy, PickScratch, Reservation, ResponseKind, UnsatisfiedJob,
};
use hopper_core::{safe_horizon, EventKey, Mailbox, SyncBarrier};
use hopper_metrics::{
    JobDigest, JobResult, RunReport, SeriesCollector, TelemetrySeries, TelemetrySnapshot,
};
use hopper_sim::{EventQueue, QueueCounters, SeedSequence, SimTime};
use hopper_workload::{ArrivalSource, TraceJob};
use rand::rngs::StdRng;

/// Child-seed namespaces for the sharded engine's per-entity RNGs.
/// Disjoint from every legacy child: placement `0xB10C`, decisions
/// `0xDEC`, message faults `0xFA_0175`, scheduler chains
/// `0x5C_4ED0_0000 + s`, machine dynamics `0xD1_CE00_0000 + m`.
const SHARD_SCHED_RNG: u64 = 0xDEC0_0000;
const SHARD_SCHED_PLACE: u64 = 0xB10C_0000;
const SHARD_WORKER_RNG: u64 = 0xE9_0000_0000;
const SHARD_SCHED_FAULT: u64 = 0xFA_1000_0000;
const SHARD_WORKER_FAULT: u64 = 0xFA_2000_0000;

/// Non-golden observability counters of one sharded run. These describe
/// the *engine* (how the conservative windows behaved), not the
/// simulation: every field except `shards` may vary with the shard
/// count even though the simulation results do not, so none of them
/// belong in goldens or equivalence checks.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct ShardStats {
    /// Shard count the run executed with.
    pub shards: usize,
    /// Conservative windows advanced (identical on every shard).
    pub windows: u64,
    /// Window rendezvous each shard made (identical on every shard):
    /// one per window, plus the last, which finds nothing pending.
    pub barrier_waits: u64,
    /// Window slots in which a shard had nothing to execute — it
    /// advanced only because the safe horizon was bounded by a peer
    /// (summed over shards; the load-imbalance signal).
    pub horizon_stalls: u64,
    /// Messages that crossed a shard boundary (through a mailbox).
    pub cross_msgs: u64,
    /// Messages whose sender and receiver shared a shard (queue-local).
    pub local_msgs: u64,
}

/// One simulation event of the sharded engine. Worker-addressed events
/// carry a global worker id; scheduler-addressed events are routed by
/// the job's owner (`job % K`) or an explicit scheduler id.
///
/// Five kinds are scheduler↔worker RPCs subject to the message-fault
/// plane (`Reservation`, `Response`, `Assign`, `Refusal`, `Kill` — the
/// same five the conservation auditor ledgers). The launch-protocol
/// acks (`Launched`, `AssignFailed`, `TaskDone`, `CopyLost`, `ResGone`)
/// are *reliable* internal messages at fixed latency: they replace
/// state the serial driver mutated directly across the scheduler/worker
/// boundary, so faulting them would invent failure modes the modeled
/// system does not have.
#[derive(Debug, Clone)]
enum SEv {
    /// The arrival of the shard's `next_job`, queued by `push_arrival`
    /// ahead of every other event at its instant.
    Arrival,
    /// Reservation lands in a worker queue.
    Reservation { worker: usize, res: Reservation },
    /// Scheduler assigns a task to the worker's promised slot. Carries
    /// the scheduler-pre-drawn unit-speed duration (the worker scales
    /// it by its local machine speed and commits), plus the job's
    /// virtual-size/remaining snapshot for the §5.3 piggyback.
    Assign {
        worker: usize,
        job: usize,
        task: TaskRef,
        speculative: bool,
        unit_dur: SimTime,
        vsize: f64,
        remaining: f64,
        inc: u64,
        ep: u64,
    },
    /// Scheduler declines the offer. `job_done` doubles as the
    /// completion notification that purges the job's parked
    /// reservations from the worker's queue.
    Refusal {
        worker: usize,
        job: usize,
        job_done: bool,
        unsatisfied: Option<UnsatisfiedJob>,
        inc: u64,
        ep: u64,
    },
    /// Kill the copy behind `wtoken` (race lost). Idempotent at the
    /// worker: no record, no effect.
    Kill { worker: usize, wtoken: u64 },
    /// Local copy-completion timer at the executing worker.
    Finish { worker: usize, wtoken: u64 },
    /// Worker self-poll: re-examine the queue for a startable episode
    /// (replaces the serial driver's global-scan worker poke).
    Poll { worker: usize },
    /// Response lease (faults only), as in the serial driver.
    Lease { worker: usize, seq: u64 },
    /// Machine-dynamics incident for the owning worker's machine.
    Dyn(DynEvent),
    /// Worker offers its free slot to `job`'s scheduler.
    Response {
        worker: usize,
        job: usize,
        kind: ResponseKind,
        inc: u64,
        ep: u64,
    },
    /// Worker committed an assigned copy: the launch ack. `consumed`
    /// reports whether a parked reservation was eaten by the assign.
    Launched {
        job: usize,
        worker: usize,
        wtoken: u64,
        task: TaskRef,
        speculative: bool,
        start: SimTime,
        dur: SimTime,
        consumed: bool,
    },
    /// The assign reached a dead episode (machine failed or episode
    /// ended first): nothing was committed, undo the send-side books.
    AssignFailed {
        job: usize,
        task: TaskRef,
        speculative: bool,
    },
    /// A committed copy ran to completion on `worker`.
    TaskDone {
        job: usize,
        worker: usize,
        wtoken: u64,
        dur: SimTime,
    },
    /// A committed copy died with its machine.
    CopyLost {
        job: usize,
        worker: usize,
        wtoken: u64,
    },
    /// `count` of the job's reservations evaporated at a worker (down
    /// machine, failure wipe, or a Sparrow no-task consume).
    ResGone { job: usize, count: usize },
    /// Per-scheduler straggler scan.
    Scan { sched: usize },
    /// Scheduler crash/recover incident for an owned scheduler.
    SchedDyn(SchedEv),
    /// Per-job watchdog (faults only), armed by the owning scheduler.
    JobTimeout { job: usize },
}

/// Conservation-ledger kind of a scheduler↔worker RPC (`None` for the
/// reliable internal messages and local timers).
fn rpc_kind(ev: &SEv) -> Option<MsgKind> {
    match ev {
        SEv::Reservation { .. } => Some(MsgKind::Reservation),
        SEv::Response { .. } => Some(MsgKind::Response),
        SEv::Assign { .. } => Some(MsgKind::Assign),
        SEv::Refusal { .. } => Some(MsgKind::Refusal),
        SEv::Kill { .. } => Some(MsgKind::Kill),
        _ => None,
    }
}

/// What a shard publishes at each window rendezvous. The owner stores
/// before the barrier and every shard loads after it; the barrier orders
/// the two, so the fields are relaxed atomics and nobody takes a lock.
/// One cache line per slot, so a shard publishing does not invalidate
/// the line its peers are reading.
#[derive(Debug, Default)]
#[repr(align(64))]
struct SlotPub {
    /// Earliest pending event this shard accounts for, as `SimTime`
    /// bits (`u64::MAX`: none): its queue head (the next owned arrival
    /// included), or the earliest key it posted to a peer's mailbox in
    /// the window just run, whichever is earlier.
    next: AtomicU64,
    /// Live (arrived, unfinished) jobs owned by this shard.
    live: AtomicUsize,
    /// Whether this shard still owes the simulation an arrival.
    owes_arrival: AtomicBool,
    /// Events executed so far (for the global budget check).
    events: AtomicU64,
}

impl SlotPub {
    fn next(&self) -> Option<SimTime> {
        let t = self.next.load(Relaxed);
        (t != u64::MAX).then_some(SimTime(t))
    }
}

/// Shared coordination state: the window barrier, the publish slots and
/// one inter-shard mailbox per shard. `slots[p][shard]` is double-
/// buffered by window parity `p`: a shard that finishes its window
/// early writes the other parity, never the snapshot a slower peer may
/// still be reading, and it cannot come back to this parity before that
/// peer has reached the next barrier.
struct Coord {
    barrier: SyncBarrier,
    slots: [Vec<SlotPub>; 2],
    /// Cross-shard messages, each with the delay it was sent with (its
    /// receiver's queue picks the lane by it).
    mailboxes: Vec<Mailbox<(SimTime, SEv)>>,
}

/// Poisons the window barrier if its shard unwinds, so peers blocked at
/// the barrier panic instead of deadlocking (see [`SyncBarrier`]).
struct PoisonGuard<'b> {
    barrier: &'b SyncBarrier,
}

impl Drop for PoisonGuard<'_> {
    fn drop(&mut self) {
        if std::thread::panicking() {
            self.barrier.poison();
        }
    }
}

/// A committed running copy as the executing worker sees it: which job
/// it serves and when it started / will finish (rescaled in place by
/// machine-speed changes).
#[derive(Debug, Clone, Copy)]
struct CopyRec {
    job: usize,
    start: SimTime,
    finish: SimTime,
}

/// One scheduler's complete runtime state: its book (every owned job's
/// state and the scheduler-side scratch, `crate::book`) plus what only
/// the sharded embedding needs.
struct SchedSt {
    /// Event-emission counter (the `seq` of every key this scheduler
    /// stamps; from 1, as `EventKey::arrival` owns 0).
    seq: u64,
    book: SchedBook,
    scan_armed: bool,
    rng: StdRng,
    placement_rng: StdRng,
    faults: Option<MsgFaults>,
    /// (job, copy) → (worker, wtoken): the scheduler's handle on every
    /// committed copy, for kill addressing. Lookup/remove only — never
    /// iterated, so HashMap nondeterminism cannot leak into events.
    copy_tok: HashMap<(usize, CopyRef), (usize, u64)>,
    /// (worker, wtoken) → (job, copy): resolves acks from workers.
    tok_copy: HashMap<(usize, u64), (usize, CopyRef)>,
}

/// One worker's complete runtime state: its protocol side
/// (`crate::book`'s `Worker`) plus what only the sharded embedding needs.
struct WorkSt {
    /// Global worker id (= machine id).
    w: usize,
    /// Event-emission counter.
    seq: u64,
    state: Worker,
    /// Committed running copies by worker-local token. A BTreeMap
    /// because machine failure *iterates* it to emit loss
    /// notifications — iteration order must be deterministic.
    records: BTreeMap<u64, CopyRec>,
    next_wtoken: u64,
    poll_armed: bool,
    rng: StdRng,
    faults: Option<MsgFaults>,
}

/// Capacity, in messages, that a shard's mailbox buffer keeps between
/// windows: enough that a typical window (`sharded-storm` averages ~16
/// cross-shard messages per window) allocates nothing, small enough
/// that buffers grown by an arrival burst do not stay resident.
const INBOX_KEEP: usize = 256;

/// Event-type diagnostic counters (for the budget-exceeded panic):
/// arrive, reservation, response, assign, refusal, kill, finish, poll,
/// lease, dyn, launched, assign-failed, task-done, copy-lost, res-gone,
/// scan, sched-dyn, job-timeout.
const EV_KINDS: usize = 18;

struct Shard<'a> {
    id: usize,
    nshards: usize,
    /// Scheduler count (the job→owner modulus).
    k: usize,
    policy: DecPolicy,
    cfg: &'a DecConfig,
    faults_on: bool,
    retain_jobs: bool,
    lookahead: SimTime,
    backoff: BackoffPolicy,
    /// This shard's events, fed only by keyed pushes: they pop in
    /// [`EventKey`] order, the global order restricted to this shard.
    /// Every event sent at a lane's delay joins that lane, on whichever
    /// shard it lands, so the queue counters do not depend on the
    /// shard count.
    queue: EventQueue<SEv>,
    /// Cross-shard sends buffered during a window, with their send
    /// delays, flushed to the destination mailboxes once at its end.
    outboxes: Vec<Vec<(EventKey, (SimTime, SEv))>>,
    /// The earliest key put in an outbox since the last rendezvous: in
    /// flight, the message is this shard's to publish (see `run_loop`).
    posted: Option<SimTime>,
    /// Reused buffer for this shard's mailbox drain.
    inbox: Vec<(EventKey, (SimTime, SEv))>,
    /// The whole source, replayed: foreign jobs are popped and dropped.
    arrivals: ArrivalSource<'a>,
    /// The owned job whose [`SEv::Arrival`] is queued (`None` once the
    /// source holds no more owned jobs).
    next_job: Option<TraceJob>,
    scheds: Vec<SchedSt>,
    workers: Vec<WorkSt>,
    /// The Guideline-3 pick buffer this shard's worker steps borrow.
    picks: PickScratch,
    dynamics: Option<MachineDynamics>,
    sched_chain: Option<SchedulerChain>,
    audit: Option<Box<Auditor>>,
    /// Live jobs owned by this shard (Σ over its schedulers).
    live_count: usize,
    /// Window-start snapshot of the global live-job count (ε-fairness
    /// input; shard-count-independent because window boundaries are).
    active_global: usize,
    /// Window-start flag: the workload is globally complete, idle
    /// incident chains stop re-arming (monotone once set).
    drained: bool,
    stats: DecStats,
    results: Vec<JobResult>,
    ev_counts: [u64; EV_KINDS],
    windows: u64,
    barrier_waits: u64,
    stalls: u64,
    cross_msgs: u64,
    local_msgs: u64,
    /// Windowed time-series observer over this shard's own entities
    /// (inert when `telemetry_window_ms == 0`). Per-shard series merge
    /// commutatively in [`merge`] — see DESIGN.md, "Telemetry plane".
    tele: SeriesCollector,
    /// Cumulative kill RPCs sent (telemetry only; deliberately not a
    /// `DecStats` field — goldens pin that struct's `Debug` output).
    tele_kills: u64,
    /// Online duration statistics of the jobs this shard's schedulers
    /// completed. `JobDigest::merge` is exact and order-free, so the
    /// merged digest is the same for every partition.
    digest: JobDigest,
}

/// Run one decentralized simulation sharded across `cfg.shards` shards.
/// Private engine behind [`crate::driver::run_source`], which enters it
/// only when `cfg.shards >= 1`.
pub(crate) fn run_sharded(
    source: ArrivalSource<'_>,
    policy: DecPolicy,
    cfg: &DecConfig,
    retain_jobs: bool,
) -> DecOutput {
    let nshards = cfg.shards;
    let n = source.total_jobs();
    let mut shards: Vec<Shard<'_>> = (0..nshards)
        // Every shard replays the whole source from the start (a clone
        // of the undelivered source — borrowed trace, generator stream,
        // or shared replay — is position zero) and keeps only its own
        // entities' jobs.
        .map(|id| Shard::new(id, nshards, source.clone(), policy, cfg, retain_jobs))
        .collect();
    let coord = Coord {
        barrier: SyncBarrier::new(nshards),
        slots: [0, 1].map(|_| (0..nshards).map(|_| SlotPub::default()).collect()),
        mailboxes: (0..nshards).map(|_| Mailbox::new()).collect(),
    };
    if nshards == 1 {
        shards[0].run_loop(&coord);
    } else {
        std::thread::scope(|scope| {
            let coord = &coord;
            let handles: Vec<_> = shards
                .iter_mut()
                .map(|sh| scope.spawn(move || sh.run_loop(coord)))
                .collect();
            for h in handles {
                if let Err(e) = h.join() {
                    std::panic::resume_unwind(e);
                }
            }
        });
    }
    merge(shards, n, nshards)
}

/// Fold per-shard state into one [`DecOutput`], exactly as the serial
/// driver would have reported it: counters sum, makespan maxes, the
/// digests merge, per-job results sort by id, and the merged
/// conservation auditor proves the end-of-run laws globally.
fn merge(mut shards: Vec<Shard<'_>>, n: usize, nshards: usize) -> DecOutput {
    // Per-shard telemetry series merge window-by-window: counters and
    // gauges sum (disjoint entities), digests union exactly, shorter
    // series pad with frozen last gauges — commutative, so the result
    // is bit-identical across shard counts.
    let mut telemetry: Option<TelemetrySeries> = None;
    for sh in shards.iter_mut() {
        let snap = sh.tele_snapshot();
        if let Some(series) = sh.tele.finish(snap) {
            match telemetry.as_mut() {
                None => telemetry = Some(series),
                Some(t) => t.merge(&series),
            }
        }
    }
    let mut stats = DecStats::default();
    let mut digest = JobDigest::new();
    let mut results: Vec<JobResult> = Vec::new();
    let mut live_high_water = 0usize;
    let mut done_total = 0usize;
    let mut audit: Option<Box<Auditor>> = None;
    // Every event is pushed into exactly one shard's queue, so the sums
    // are the same for every shard count.
    let mut queue_counters = QueueCounters::default();
    let mut over_limit_launches = 0u64;
    let mut shard_stats = ShardStats {
        shards: nshards,
        windows: shards.first().map_or(0, |sh| sh.windows),
        barrier_waits: shards.first().map_or(0, |sh| sh.barrier_waits),
        ..ShardStats::default()
    };
    for sh in shards {
        assert!(
            (sh.windows, sh.barrier_waits) == (shard_stats.windows, shard_stats.barrier_waits),
            "shard {} saw a different window sequence",
            sh.id
        );
        digest.merge(&sh.digest);
        let st = sh.stats;
        stats.orig_launched += st.orig_launched;
        stats.spec_launched += st.spec_launched;
        stats.spec_won += st.spec_won;
        stats.reservations += st.reservations;
        stats.responses += st.responses;
        stats.refusals += st.refusals;
        stats.guideline3_switches += st.guideline3_switches;
        stats.msgs_lost += st.msgs_lost;
        stats.msgs_duplicated += st.msgs_duplicated;
        stats.msgs_retried += st.msgs_retried;
        stats.timeouts_fired += st.timeouts_fired;
        stats.orphan_reclaimed += st.orphan_reclaimed;
        stats.sched_failovers += st.sched_failovers;
        stats.events += st.events;
        stats.makespan = stats.makespan.max(st.makespan);
        shard_stats.horizon_stalls += sh.stalls;
        shard_stats.cross_msgs += sh.cross_msgs;
        shard_stats.local_msgs += sh.local_msgs;
        let qc = sh.queue.counters();
        queue_counters.heap_pushes += qc.heap_pushes;
        queue_counters.lane_pushes += qc.lane_pushes;
        results.extend(sh.results);
        for sched in &sh.scheds {
            live_high_water += sched.book.jobs.high_water();
            done_total += sched.book.jobs.retired();
            over_limit_launches += sched.book.over_limit_launches;
        }
        match audit.as_mut() {
            None => audit = sh.audit,
            Some(a) => {
                if let Some(b) = sh.audit.as_ref() {
                    a.merge(b);
                }
            }
        }
    }
    assert!(
        done_total == n,
        "sharded run drained with {done_total} of {n} jobs finished"
    );
    if let Some(a) = audit.as_ref() {
        a.check_end(0);
    }
    results.sort_by_key(|r| r.job);
    let report = RunReport {
        core: stats.core(),
        digest,
        live_high_water,
        telemetry,
    };
    DecOutput {
        jobs: results,
        stats,
        report,
        shard: Some(shard_stats),
        queue_counters,
        over_limit_launches,
    }
}

/// Global scheduler id of a [`SchedEv`].
fn sched_of(ev: &SchedEv) -> usize {
    match *ev {
        SchedEv::Fail(s) | SchedEv::Recover(s) => s,
    }
}

/// Diagnostic counter slot of an event (see [`EV_KINDS`]).
fn ev_idx(ev: &SEv) -> usize {
    match ev {
        SEv::Arrival => 0,
        SEv::Reservation { .. } => 1,
        SEv::Response { .. } => 2,
        SEv::Assign { .. } => 3,
        SEv::Refusal { .. } => 4,
        SEv::Kill { .. } => 5,
        SEv::Finish { .. } => 6,
        SEv::Poll { .. } => 7,
        SEv::Lease { .. } => 8,
        SEv::Dyn(_) => 9,
        SEv::Launched { .. } => 10,
        SEv::AssignFailed { .. } => 11,
        SEv::TaskDone { .. } => 12,
        SEv::CopyLost { .. } => 13,
        SEv::ResGone { .. } => 14,
        SEv::Scan { .. } => 15,
        SEv::SchedDyn(_) => 16,
        SEv::JobTimeout { .. } => 17,
    }
}

impl<'a> Shard<'a> {
    fn new(
        id: usize,
        nshards: usize,
        arrivals: ArrivalSource<'a>,
        policy: DecPolicy,
        cfg: &'a DecConfig,
        retain_jobs: bool,
    ) -> Self {
        let seq = SeedSequence::new(cfg.seed);
        let k = cfg.num_schedulers;
        let n = arrivals.total_jobs();
        let nworkers = cfg.cluster.machines;
        let faults_on = cfg.faults.enabled();
        let scheds: Vec<SchedSt> = (id..k)
            .step_by(nshards)
            .map(|s| SchedSt {
                seq: 1,
                book: SchedBook::new(s, k, n, cfg.probe_ratio, nworkers),
                scan_armed: false,
                rng: seq.child_rng(SHARD_SCHED_RNG + s as u64),
                placement_rng: seq.child_rng(SHARD_SCHED_PLACE + s as u64),
                faults: faults_on
                    .then(|| MsgFaults::with_seed(cfg.faults, &seq, SHARD_SCHED_FAULT + s as u64)),
                copy_tok: HashMap::new(),
                tok_copy: HashMap::new(),
            })
            .collect();
        let mut workers: Vec<WorkSt> = (id..nworkers)
            .step_by(nshards)
            .map(|w| WorkSt {
                w,
                seq: 1,
                state: Worker::new(cfg.cluster.slots_per_machine),
                records: BTreeMap::new(),
                next_wtoken: 0,
                poll_armed: false,
                rng: seq.child_rng(SHARD_WORKER_RNG + w as u64),
                faults: faults_on
                    .then(|| MsgFaults::with_seed(cfg.faults, &seq, SHARD_WORKER_FAULT + w as u64)),
            })
            .collect();
        let mut queue = cfg.event_queue();
        // Every shard constructs the *full* dynamics plane and scheduler
        // chain — identical RNG draws everywhere, because both keep
        // strictly per-entity generators — then seeds its queue with only
        // its own entities' incidents. Applying an incident consumes only
        // the owning entity's generator, so the replicas never diverge.
        let mut dynamics = cfg
            .dynamics
            .enabled()
            .then(|| MachineDynamics::new(cfg.dynamics.clone(), nworkers, &seq));
        if let Some(d) = dynamics.as_mut() {
            for (at, ev) in d.initial_incidents() {
                let m = ev.machine().0;
                if m % nshards != id {
                    continue;
                }
                let wk = &mut workers[m / nshards];
                let key = EventKey {
                    time: at,
                    origin: (k + m) as u64,
                    seq: wk.seq,
                };
                wk.seq += 1;
                queue.push_keyed(key, SEv::Dyn(ev));
            }
        }
        let mut sched_chain = (faults_on && cfg.faults.sched_fail_rate_per_hour > 0.0)
            .then(|| SchedulerChain::new(&cfg.faults, k, &seq));
        let mut sched_seqs: Vec<u64> = vec![1; scheds.len()];
        if let Some(c) = sched_chain.as_mut() {
            for (at, ev) in c.initial_incidents() {
                let s = sched_of(&ev);
                if s % nshards != id {
                    continue;
                }
                let si = s / nshards;
                let key = EventKey {
                    time: at,
                    origin: s as u64,
                    seq: sched_seqs[si],
                };
                sched_seqs[si] += 1;
                queue.push_keyed(key, SEv::SchedDyn(ev));
            }
        }
        let mut scheds = scheds;
        for (st, sq) in scheds.iter_mut().zip(sched_seqs) {
            st.seq = sq;
        }
        // This shard's slice of the slot capacity: owned workers only,
        // so merged per-window capacities sum to the global cluster.
        let owned_slots = workers.len() as u64 * cfg.cluster.slots_per_machine as u64;
        Shard {
            id,
            nshards,
            k,
            policy,
            cfg,
            faults_on,
            retain_jobs,
            lookahead: cfg.msg_latency,
            backoff: BackoffPolicy::new(cfg.faults.rpc_timeout_ms, cfg.faults.rpc_retries),
            queue,
            outboxes: (0..nshards).map(|_| Vec::new()).collect(),
            posted: None,
            inbox: Vec::new(),
            arrivals,
            next_job: None,
            scheds,
            workers,
            picks: PickScratch::default(),
            dynamics,
            sched_chain,
            audit: cfg!(debug_assertions).then(|| Auditor::new(nworkers)),
            live_count: 0,
            active_global: 0,
            drained: false,
            stats: DecStats::default(),
            results: Vec::new(),
            ev_counts: [0; EV_KINDS],
            windows: 0,
            barrier_waits: 0,
            stalls: 0,
            cross_msgs: 0,
            local_msgs: 0,
            tele: SeriesCollector::new(cfg.telemetry_window_ms, owned_slots),
            tele_kills: 0,
            digest: JobDigest::new(),
        }
    }

    /// Drive this shard through conservative windows until global
    /// termination (no shard has a pending event or arrival).
    ///
    /// One rendezvous per window. Before it, the shard publishes the
    /// earliest event it accounts for: its queue head, or the earliest
    /// message it posted to a peer in the window just run. A message is
    /// counted by its sender for the one rendezvous after it was posted,
    /// and by its receiver (queued) from then on, so the minimum over all
    /// slots is the minimum over every pending event, exactly as if every
    /// mailbox had been drained first (DESIGN.md, "Sharded execution").
    /// After it, every shard reads the same snapshot, drains its mailbox
    /// and runs to `T_min + lookahead`.
    fn run_loop(&mut self, coord: &Coord) {
        let _guard = PoisonGuard {
            barrier: &coord.barrier,
        };
        // Queued here, on the shard's own thread: this first push
        // allocates the queue's heap, and the allocator grows a block in
        // the arena of the thread that made it (queued in `Shard::new`,
        // on the caller's thread, `sharded-storm` peaked 3.5 MB higher).
        self.queue_next_arrival();
        for parity in [0, 1].into_iter().cycle() {
            let slots = &coord.slots[parity];
            let mine = &slots[self.id];
            let next = [self.queue.peek_time(), self.posted.take()]
                .into_iter()
                .flatten()
                .min();
            mine.next.store(next.map_or(u64::MAX, |t| t.0), Relaxed);
            mine.live.store(self.live_count, Relaxed);
            mine.owes_arrival.store(self.next_job.is_some(), Relaxed);
            mine.events.store(self.stats.events, Relaxed);
            coord.barrier.wait();
            self.barrier_waits += 1;
            // Every shard reads the same snapshot, so the horizon, the
            // drain flag, and the budget verdict agree everywhere — and
            // are the same for every shard count, because window
            // boundaries are.
            let Some(window_end) = safe_horizon(slots.iter().map(SlotPub::next), self.lookahead)
            else {
                break;
            };
            let live: usize = slots.iter().map(|sl| sl.live.load(Relaxed)).sum();
            let owes_arrival = slots.iter().any(|sl| sl.owes_arrival.load(Relaxed));
            let events: u64 = slots.iter().map(|sl| sl.events.load(Relaxed)).sum();
            if events > self.cfg.max_events {
                self.panic_event_budget(events);
            }
            self.active_global = live;
            if live == 0 && !owes_arrival {
                self.drained = true;
            }
            self.windows += 1;
            // Everything a peer posted before this rendezvous is here; a
            // peer already past its window may have added messages from
            // this window too, and those lie at or beyond `window_end`.
            coord.mailboxes[self.id].drain_into(&mut self.inbox);
            for (key, (delay, ev)) in self.inbox.drain(..) {
                self.queue.push_keyed_after(delay, key, ev);
            }
            // The mailboxes pass buffers around (`post_all` and
            // `drain_into` swap); a burst's buffer is cut back here, so
            // the ones in circulation stay small.
            self.inbox.shrink_to(INBOX_KEEP);
            let before = self.stats.events;
            self.exec_window(window_end);
            if self.stats.events == before {
                self.stalls += 1;
            }
            for (d, outbox) in self.outboxes.iter_mut().enumerate() {
                if d != self.id {
                    coord.mailboxes[d].post_all(outbox);
                }
            }
        }
        if let Some(a) = self.audit.as_ref() {
            for wk in &self.workers {
                a.check_worker(
                    wk.w,
                    self.dynamics
                        .as_ref()
                        .is_none_or(|d| d.is_up(MachineId(wk.w))),
                    wk.state.free() as u64,
                    wk.state.has_episode(),
                    self.cfg.cluster.slots_per_machine as u64,
                );
            }
        }
    }

    /// Execute everything this shard owns strictly before `end`.
    fn exec_window(&mut self, end: SimTime) {
        while let Some((now, ev)) = self.queue.pop_before(end) {
            self.tele_tick(now);
            self.stats.events += 1;
            self.ev_counts[ev_idx(&ev)] += 1;
            if let Some(a) = self.audit.as_mut() {
                if let Some(kind) = rpc_kind(&ev) {
                    a.note_delivered(kind);
                }
            }
            let audit_ev = self.audit.is_some().then(|| ev.clone());
            self.handle(ev, now);
            if let Some(ev) = audit_ev {
                self.audit_after(&ev);
            }
        }
    }

    fn handle(&mut self, ev: SEv, now: SimTime) {
        match ev {
            SEv::Arrival => {
                let spec = self.next_job.take().expect("a queued arrival has its job");
                self.queue_next_arrival();
                self.on_job_arrive(spec, now);
            }
            SEv::Reservation { worker, res } => self.on_reservation(worker, res, now),
            SEv::Assign {
                worker,
                job,
                task,
                speculative,
                unit_dur,
                vsize,
                remaining,
                inc,
                ep,
            } => self.on_assign(
                worker,
                job,
                task,
                speculative,
                unit_dur,
                vsize,
                remaining,
                inc,
                ep,
                now,
            ),
            SEv::Refusal {
                worker,
                job,
                job_done,
                unsatisfied,
                inc,
                ep,
            } => self.on_refusal(worker, job, job_done, unsatisfied, inc, ep, now),
            SEv::Kill { worker, wtoken } => self.on_kill(worker, wtoken, now),
            SEv::Finish { worker, wtoken } => self.on_finish(worker, wtoken, now),
            SEv::Poll { worker } => self.on_poll(worker, now),
            SEv::Lease { worker, seq } => self.on_lease(worker, seq, now),
            SEv::Dyn(ev) => self.on_dyn(ev, now),
            SEv::Response {
                worker,
                job,
                kind,
                inc,
                ep,
            } => self.on_response(worker, job, kind, inc, ep, now),
            SEv::Launched {
                job,
                worker,
                wtoken,
                task,
                speculative,
                start,
                dur,
                consumed,
            } => self.on_launched(
                job,
                worker,
                wtoken,
                task,
                speculative,
                start,
                dur,
                consumed,
                now,
            ),
            SEv::AssignFailed {
                job,
                task,
                speculative,
            } => self.on_assign_failed(job, task, speculative),
            SEv::TaskDone {
                job,
                worker,
                wtoken,
                dur,
            } => self.on_task_done(job, worker, wtoken, dur, now),
            SEv::CopyLost {
                job,
                worker,
                wtoken,
            } => self.on_copy_lost(job, worker, wtoken, now),
            SEv::ResGone { job, count } => self.on_res_gone(job, count),
            SEv::Scan { sched } => self.on_scan(sched, now),
            SEv::SchedDyn(ev) => self.on_sched_dyn(ev, now),
            SEv::JobTimeout { job } => self.on_job_timeout(job, now),
        }
    }

    /// Take the source's next job owned by this shard and queue its
    /// arrival. Foreign jobs are dropped: each lives on its owner shard,
    /// which skips this shard's jobs in its own replica of the source.
    fn queue_next_arrival(&mut self) {
        self.next_job = std::iter::from_fn(|| self.arrivals.pop())
            .find(|j| (j.id % self.k) % self.nshards == self.id);
        if let Some(job) = &self.next_job {
            self.queue.push_arrival(job.arrival, SEv::Arrival);
        }
    }

    // ---- entity lookups and routing ----

    /// Shard-local index of global scheduler `s` (must be owned here).
    fn si_of(&self, s: usize) -> usize {
        debug_assert_eq!(
            s % self.nshards,
            self.id,
            "scheduler {s} not on shard {}",
            self.id
        );
        s / self.nshards
    }

    /// Shard-local index of global worker `w` (must be owned here).
    fn wi_of(&self, w: usize) -> usize {
        debug_assert_eq!(
            w % self.nshards,
            self.id,
            "worker {w} not on shard {}",
            self.id
        );
        w / self.nshards
    }

    /// Owner scheduler of job `j` and its scheduler-local dense index.
    fn owner_of(&self, j: usize) -> (usize, usize) {
        (j % self.k, j / self.k)
    }

    fn machine_speed(&self, w: usize) -> f64 {
        self.dynamics
            .as_ref()
            .map_or(1.0, |d| d.speed(MachineId(w)))
    }

    fn worker_up(&self, w: usize) -> bool {
        self.dynamics.as_ref().is_none_or(|d| d.is_up(MachineId(w)))
    }

    /// Shard that owns the destination entity of an event.
    fn dest_shard(&self, ev: &SEv) -> usize {
        match ev {
            SEv::Reservation { worker, .. }
            | SEv::Assign { worker, .. }
            | SEv::Refusal { worker, .. }
            | SEv::Kill { worker, .. }
            | SEv::Finish { worker, .. }
            | SEv::Poll { worker }
            | SEv::Lease { worker, .. } => worker % self.nshards,
            SEv::Dyn(ev) => ev.machine().0 % self.nshards,
            SEv::Response { job, .. }
            | SEv::Launched { job, .. }
            | SEv::AssignFailed { job, .. }
            | SEv::TaskDone { job, .. }
            | SEv::CopyLost { job, .. }
            | SEv::ResGone { job, .. }
            | SEv::JobTimeout { job } => (job % self.k) % self.nshards,
            SEv::Scan { sched } => sched % self.nshards,
            SEv::SchedDyn(ev) => sched_of(ev) % self.nshards,
            SEv::Arrival => unreachable!("an arrival is queued only by its owner shard"),
        }
    }

    /// Deliver a keyed message sent `delay` before `key.time`: own queue
    /// if the destination entity lives here, else the destination
    /// shard's outbox (flushed at the end of the window).
    fn route(&mut self, key: EventKey, delay: SimTime, ev: SEv) {
        let dest = self.dest_shard(&ev);
        if dest == self.id {
            self.local_msgs += 1;
            self.queue.push_keyed_after(delay, key, ev);
        } else {
            self.cross_msgs += 1;
            self.posted = Some(self.posted.map_or(key.time, |t| t.min(key.time)));
            self.outboxes[dest].push((key, (delay, ev)));
        }
    }

    /// Queue a scheduler-local timer/self event `delay` after `now` (no
    /// latency floor needed — it never crosses an entity boundary).
    fn push_local_sched(&mut self, si: usize, now: SimTime, delay: SimTime, ev: SEv) {
        let st = &mut self.scheds[si];
        let key = EventKey {
            time: now + delay,
            origin: st.book.s as u64,
            seq: st.seq,
        };
        st.seq += 1;
        self.queue.push_keyed_after(delay, key, ev);
    }

    /// Queue a worker-local timer/self event `delay` after `now`.
    fn push_local_worker(&mut self, wi: usize, now: SimTime, delay: SimTime, ev: SEv) {
        let wk = &mut self.workers[wi];
        let key = EventKey {
            time: now + delay,
            origin: (self.k + wk.w) as u64,
            seq: wk.seq,
        };
        wk.seq += 1;
        self.queue.push_keyed_after(delay, key, ev);
    }

    /// Reliable internal message from worker `wi` at fixed latency.
    /// (Schedulers have no reliable channel: everything they send is
    /// one of the five faultable RPC kinds, via [`Shard::sched_rpc`].)
    fn worker_msg(&mut self, wi: usize, now: SimTime, ev: SEv) {
        let wk = &mut self.workers[wi];
        let key = EventKey {
            time: now + self.lookahead,
            origin: (self.k + wk.w) as u64,
            seq: wk.seq,
        };
        wk.seq += 1;
        self.route(key, self.lookahead, ev);
    }

    /// Scheduler→worker RPC through scheduler `si`'s fault sampler.
    /// Faults off this is exactly one delivery after the fixed latency
    /// and no RNG is consumed.
    fn sched_rpc(&mut self, si: usize, now: SimTime, ev: SEv) {
        let kind = rpc_kind(&ev).expect("sched_rpc carries scheduler→worker RPCs");
        if let Some(a) = self.audit.as_mut() {
            a.note_sent(kind);
            if !self.faults_on {
                if let SEv::Assign { job, .. } = &ev {
                    a.note_occ_sent(*job);
                }
            }
        }
        let outcome = self.scheds[si].faults.as_mut().map(|f| f.send());
        let origin = self.scheds[si].book.s as u64;
        self.rpc_deliver(ev, kind, outcome, origin, now, |sh| {
            let st = &mut sh.scheds[si];
            let q = st.seq;
            st.seq += 1;
            q
        });
    }

    /// Worker→scheduler RPC through worker `wi`'s fault sampler.
    fn worker_rpc(&mut self, wi: usize, now: SimTime, ev: SEv) {
        let kind = rpc_kind(&ev).expect("worker_rpc carries worker→scheduler RPCs");
        if let Some(a) = self.audit.as_mut() {
            a.note_sent(kind);
        }
        let outcome = self.workers[wi].faults.as_mut().map(|f| f.send());
        let origin = (self.k + self.workers[wi].w) as u64;
        self.rpc_deliver(ev, kind, outcome, origin, now, |sh| {
            let wk = &mut sh.workers[wi];
            let q = wk.seq;
            wk.seq += 1;
            q
        });
    }

    /// Shared delivery tail of the two RPC directions: apply the fault
    /// outcome (loss, duplication, per-delivery jitter) and route every
    /// surviving delivery with a fresh emission key.
    fn rpc_deliver(
        &mut self,
        ev: SEv,
        kind: MsgKind,
        outcome: Option<crate::faults::SendOutcome>,
        origin: u64,
        now: SimTime,
        mut next_seq: impl FnMut(&mut Self) -> u64,
    ) {
        let latency = self.lookahead;
        let Some(out) = outcome else {
            let key = EventKey {
                time: now + latency,
                origin,
                seq: next_seq(self),
            };
            self.route(key, latency, ev);
            return;
        };
        if out.lost {
            self.stats.msgs_lost += 1;
            if let Some(a) = self.audit.as_mut() {
                a.note_lost(kind);
            }
            return;
        }
        if out.duplicated {
            self.stats.msgs_duplicated += 1;
            if let Some(a) = self.audit.as_mut() {
                a.note_dup(kind);
            }
        }
        // Seqs are stamped in delivery order; the last delivery takes
        // the event itself.
        let (last, dups) = out
            .deliveries
            .split_last()
            .expect("surviving message delivers");
        for d in dups {
            let delay = latency + d.extra;
            let key = EventKey {
                time: now + delay,
                origin,
                seq: next_seq(self),
            };
            self.route(key, delay, ev.clone());
        }
        let delay = latency + last.extra;
        let key = EventKey {
            time: now + delay,
            origin,
            seq: next_seq(self),
        };
        self.route(key, delay, ev);
    }

    fn panic_event_budget(&self, total: u64) -> ! {
        panic!(
            "decentralized sharded run exceeded event budget: policy={} events={total} \
             (budget {}) windows={} shard={}/{} live={} next_arrival={:?} ev_counts={:?}",
            self.policy.name(),
            self.cfg.max_events,
            self.windows,
            self.id,
            self.nshards,
            self.live_count,
            self.next_job.as_ref().map(|j| j.arrival),
            self.ev_counts
        );
    }

    /// Dev-profile invariant re-check after an event (see `crate::audit`).
    /// Worker-addressed events re-prove the slot equation for the worker
    /// they touched; scheduler-addressed events reconcile the job's
    /// occupancy counter against ground truth (faults off, job live).
    fn audit_after(&self, ev: &SEv) {
        let Some(a) = self.audit.as_ref() else { return };
        let check_w = |w: usize| {
            let wk = &self.workers[self.wi_of(w)];
            a.check_worker(
                w,
                self.worker_up(w),
                wk.state.free() as u64,
                wk.state.has_episode(),
                self.cfg.cluster.slots_per_machine as u64,
            );
        };
        let check_j = |j: usize| {
            if self.faults_on {
                return;
            }
            let (s, lj) = self.owner_of(j);
            if let Some((count, truth)) = self.scheds[self.si_of(s)].book.occupancy(lj) {
                a.check_job(j, count, truth);
            }
        };
        match ev {
            SEv::Reservation { worker, .. }
            | SEv::Assign { worker, .. }
            | SEv::Refusal { worker, .. }
            | SEv::Kill { worker, .. }
            | SEv::Finish { worker, .. }
            | SEv::Poll { worker }
            | SEv::Lease { worker, .. } => check_w(*worker),
            SEv::Dyn(ev) => check_w(ev.machine().0),
            SEv::Response { job, .. }
            | SEv::Launched { job, .. }
            | SEv::AssignFailed { job, .. }
            | SEv::TaskDone { job, .. }
            | SEv::CopyLost { job, .. }
            | SEv::ResGone { job, .. }
            | SEv::JobTimeout { job } => check_j(*job),
            SEv::Arrival | SEv::Scan { .. } | SEv::SchedDyn(_) => {}
        }
    }
}

// ---- worker-side handlers ----
impl<'a> Shard<'a> {
    fn on_reservation(&mut self, worker: usize, res: Reservation, now: SimTime) {
        let wi = self.wi_of(worker);
        if !self.worker_up(worker) {
            // The machine is down: the reservation evaporates and the
            // owning scheduler's live-reservation count must learn it
            // by message (the serial driver decremented it in place).
            let job = res.job as usize;
            self.worker_msg(wi, now, SEv::ResGone { job, count: 1 });
            return;
        }
        // Parked unconditionally — the worker cannot see job completion
        // here; `job_done` refusals purge stale parks later.
        self.workers[wi].state.queue.push(res);
        self.maybe_start_episode(worker, now);
    }

    /// Start a late-binding episode if the worker is up and has a free
    /// slot, no episode in flight, and a non-empty queue; then arm the
    /// self-poll that replaces the serial driver's global-scan poke.
    fn maybe_start_episode(&mut self, worker: usize, now: SimTime) {
        if !self.worker_up(worker) {
            return;
        }
        let wi = self.wi_of(worker);
        let thr = self.cfg.refusal_threshold;
        if self.workers[wi].state.open_episode(thr) {
            self.episode_step(wi, now);
        }
        let wk = &mut self.workers[wi];
        if !wk.poll_armed && !wk.state.queue.is_empty() {
            wk.poll_armed = true;
            let scan = self.cfg.scan_interval;
            self.push_local_worker(wi, now, scan, SEv::Poll { worker });
        }
    }

    /// Advance the worker's episode by one protocol step: send its offer
    /// and lease the promised slot (faults only), as in the serial
    /// driver. Guideline-3 randomness draws from the *worker's own* RNG
    /// child — the draw sequence depends only on this worker's event
    /// history, never on how entities interleave globally.
    fn episode_step(&mut self, wi: usize, now: SimTime) {
        let wk = &mut self.workers[wi];
        let worker = wk.w;
        let thr = self.cfg.refusal_threshold;
        let (offer, switched) = wk
            .state
            .step(self.policy, thr, &mut self.picks, &mut wk.rng);
        if switched {
            self.stats.guideline3_switches += 1;
        }
        let Some(o) = offer else { return };
        self.stats.responses += 1;
        let response = SEv::Response {
            worker,
            job: o.job,
            kind: o.kind,
            inc: o.inc,
            ep: o.ep,
        };
        self.worker_rpc(wi, now, response);
        if self.faults_on {
            let timeout = SimTime::from_millis(self.cfg.faults.rpc_timeout_ms);
            let lease = SEv::Lease {
                worker,
                seq: o.lease,
            };
            self.push_local_worker(wi, now, timeout, lease);
        }
    }

    #[allow(clippy::too_many_arguments)]
    fn on_refusal(
        &mut self,
        worker: usize,
        job: usize,
        job_done: bool,
        unsatisfied: Option<UnsatisfiedJob>,
        inc: u64,
        ep: u64,
        now: SimTime,
    ) {
        let wi = self.wi_of(worker);
        // A done-job refusal doubles as the completion notification: it
        // purges every reservation the finished job still has parked
        // here — *before* the staleness check, because even a stale
        // refusal carries fresh completion news. (The serial driver
        // purges against the schedulers' books, which its workers can see
        // directly.)
        if job_done {
            let queue = &mut self.workers[wi].state.queue;
            let before = queue.len();
            queue.retain(|r| r.job as usize != job);
            let gone = before - queue.len();
            if gone > 0 {
                self.worker_msg(wi, now, SEv::ResGone { job, count: gone });
            }
        }
        let wk = &mut self.workers[wi].state;
        if !wk.take_reply(inc, ep) {
            return;
        }
        if !job_done && wk.refused(self.policy, job % self.k, job, unsatisfied) {
            self.worker_msg(wi, now, SEv::ResGone { job, count: 1 });
        }
        self.episode_step(wi, now);
    }

    /// A task assignment arrives: commit the copy against local machine
    /// state (speed-scaling the scheduler-pre-drawn unit duration by the
    /// *current* local speed) and ack the launch. The scheduler's ground
    /// truth moves only when the `Launched` ack lands.
    #[allow(clippy::too_many_arguments)]
    fn on_assign(
        &mut self,
        worker: usize,
        job: usize,
        task: TaskRef,
        speculative: bool,
        unit_dur: SimTime,
        vsize: f64,
        remaining: f64,
        inc: u64,
        ep: u64,
        now: SimTime,
    ) {
        let wi = self.wi_of(worker);
        // The promised slot is gone (machine failed mid-flight, or the
        // episode ended first): nothing commits, and the sender must undo
        // its send-side accounting — by message here, where the serial
        // driver undid it in place.
        let Some(consumed) = self.workers[wi].state.assigned(inc, ep, job) else {
            let failed = SEv::AssignFailed {
                job,
                task,
                speculative,
            };
            self.worker_msg(wi, now, failed);
            return;
        };
        let dur = duration_at_speed(unit_dur, self.machine_speed(worker));
        let wk = &mut self.workers[wi];
        let wtoken = wk.next_wtoken;
        wk.next_wtoken += 1;
        wk.records.insert(
            wtoken,
            CopyRec {
                job,
                start: now,
                finish: now + dur,
            },
        );
        // The piggyback carries the Assign-time snapshot, where the
        // serial driver reads the scheduler's post-launch state directly.
        wk.state.piggyback(job, vsize, remaining);
        if let Some(a) = self.audit.as_mut() {
            a.note_copy_started(worker);
        }
        self.push_local_worker(wi, now, dur, SEv::Finish { worker, wtoken });
        self.worker_msg(
            wi,
            now,
            SEv::Launched {
                job,
                worker,
                wtoken,
                task,
                speculative,
                start: now,
                dur,
                consumed,
            },
        );
        self.maybe_start_episode(worker, now);
    }

    /// A copy's local completion timer fired: free the slot and notify
    /// the owning scheduler. If a kill beat the timer the record is
    /// gone and this is a no-op; if a rescale moved the finish, the
    /// superseded timer misses the recorded instant and dies here.
    fn on_finish(&mut self, worker: usize, wtoken: u64, now: SimTime) {
        let wi = self.wi_of(worker);
        let Some(rec) = self.workers[wi].records.get(&wtoken).copied() else {
            return;
        };
        if rec.finish != now {
            return;
        }
        self.workers[wi].records.remove(&wtoken);
        if let Some(a) = self.audit.as_mut() {
            a.note_copy_stopped(worker);
        }
        self.workers[wi].state.release_slot();
        self.worker_msg(
            wi,
            now,
            SEv::TaskDone {
                job: rec.job,
                worker,
                wtoken,
                dur: now.saturating_sub(rec.start),
            },
        );
        self.maybe_start_episode(worker, now);
    }

    /// Kill notification for a lost race. Idempotent against every
    /// interleaving by construction: the record is the single source of
    /// truth, and whoever removes it first (kill, natural finish,
    /// machine failure) settles the slot exactly once.
    fn on_kill(&mut self, worker: usize, wtoken: u64, now: SimTime) {
        let wi = self.wi_of(worker);
        if self.workers[wi].records.remove(&wtoken).is_none() {
            return;
        }
        if let Some(a) = self.audit.as_mut() {
            a.note_copy_stopped(worker);
        }
        self.workers[wi].state.release_slot();
        self.maybe_start_episode(worker, now);
    }

    fn on_poll(&mut self, worker: usize, now: SimTime) {
        let wi = self.wi_of(worker);
        self.workers[wi].poll_armed = false;
        self.maybe_start_episode(worker, now);
    }

    /// A response lease fired (faults only), as in the serial driver.
    fn on_lease(&mut self, worker: usize, seq: u64, now: SimTime) {
        let wi = self.wi_of(worker);
        if self.workers[wi].state.lease_expired(seq) {
            self.stats.orphan_reclaimed += 1;
            self.maybe_start_episode(worker, now);
        }
    }

    /// Apply one machine-dynamics incident to the owning worker. A speed
    /// change moves the finish of the worker's own copy records
    /// (`rescaled_finish`); failure turns parked reservations and running
    /// copies into loss notifications toward their owning schedulers.
    fn on_dyn(&mut self, ev: DynEvent, now: SimTime) {
        if self.drained {
            // The workload is globally complete (window-start snapshot):
            // the chain retires by not applying, so no successor spawns.
            return;
        }
        let out = self
            .dynamics
            .as_mut()
            .expect("dyn event without dynamics plane")
            .apply(ev);
        let m = ev.machine();
        let w = m.0;
        let wi = self.wi_of(w);
        for (delay, next) in out.next {
            self.push_local_worker(wi, now, delay, SEv::Dyn(next));
        }
        match ev {
            DynEvent::SlowdownStart(_) | DynEvent::SlowdownEnd(_) => {
                let ratio = out.rescale_ratio.expect("speed change carries a ratio");
                let mut resched: Vec<(u64, SimTime)> = Vec::new();
                {
                    let wk = &mut self.workers[wi];
                    for (&tok, rec) in wk.records.iter_mut() {
                        if let Some(finish) = rescaled_finish(rec.start, rec.finish, now, ratio) {
                            rec.finish = finish;
                            resched.push((tok, finish));
                        }
                    }
                }
                for (tok, finish) in resched {
                    self.push_local_worker(
                        wi,
                        now,
                        finish - now,
                        SEv::Finish {
                            worker: w,
                            wtoken: tok,
                        },
                    );
                }
            }
            DynEvent::Fail(_) => {
                // Worker-side teardown: parked reservations, the episode,
                // every slot, and every running copy die with the machine.
                // Each casualty becomes a message to its owning scheduler
                // (the serial driver swept scheduler state in place).
                let wk = &mut self.workers[wi];
                let queue = wk.state.fail();
                let records = std::mem::take(&mut wk.records);
                if let Some(a) = self.audit.as_mut() {
                    a.note_machine_failed(w);
                }
                // Aggregate reservation losses per job; BTreeMap iteration
                // keeps the emission order deterministic.
                let mut gone: BTreeMap<usize, usize> = BTreeMap::new();
                for r in queue {
                    *gone.entry(r.job as usize).or_insert(0) += 1;
                }
                for (job, count) in gone {
                    self.worker_msg(wi, now, SEv::ResGone { job, count });
                }
                for (wtoken, rec) in records {
                    self.worker_msg(
                        wi,
                        now,
                        SEv::CopyLost {
                            job: rec.job,
                            worker: w,
                            wtoken,
                        },
                    );
                }
            }
            DynEvent::Recover(_) => {
                self.workers[wi].state.recover();
            }
        }
    }
}

// ---- scheduler-side handlers ----
impl<'a> Shard<'a> {
    /// Build job `j`'s runtime state and probe for its tasks. The
    /// owner's placement RNG is consumed in its own arrival order
    /// (ascending job id within the scheduler), and random probe
    /// targets come from the owner's own RNG, so the draw sequences are
    /// partition-independent.
    fn on_job_arrive(&mut self, spec: TraceJob, now: SimTime) {
        let j = spec.id;
        debug_assert_eq!(spec.arrival, now);
        let (s, lj) = self.owner_of(j);
        let si = self.si_of(s);
        let st = &mut self.scheds[si];
        let job = JobRun::new(spec, &self.cfg.cluster, &mut st.placement_rng);
        st.book.admit(lj, job);
        let targets = st.book.arrival_probes(lj, &mut st.rng);
        self.live_count += 1;
        self.arm_scan(si, now);
        self.send_reservations(si, lj, targets, now);
        // Watchdog (faults only), as in the serial driver.
        if self.faults_on {
            let delay = SimTime::from_millis(self.backoff.delay_ms(0));
            self.push_local_sched(si, now, delay, SEv::JobTimeout { job: j });
        }
    }

    /// Send `count` fresh reservations for job `lj` of scheduler `si` to
    /// random workers drawn from the owner's own RNG.
    fn send_probes(&mut self, si: usize, lj: usize, count: usize, now: SimTime) {
        let st = &mut self.scheds[si];
        let targets = st.book.random_probes(lj, count, &mut st.rng);
        self.send_reservations(si, lj, targets, now);
    }

    /// Send a reservation for job `lj` of scheduler `si` to each of
    /// `targets`.
    fn send_reservations(&mut self, si: usize, lj: usize, targets: Vec<usize>, now: SimTime) {
        if targets.is_empty() {
            return;
        }
        let res = self.scheds[si].book.reservation(lj);
        for worker in targets {
            self.stats.reservations += 1;
            let res = res.clone();
            self.sched_rpc(si, now, SEv::Reservation { worker, res });
        }
    }

    /// Scheduler-side handling of a worker's slot offer (Pseudocode 2,
    /// decided by the owning book). The ε-fair floor uses the
    /// *window-start snapshot* of the global live-job count — the barrier
    /// makes it identical on every shard and for every shard count.
    fn on_response(
        &mut self,
        worker: usize,
        job: usize,
        kind: ResponseKind,
        inc: u64,
        ep: u64,
        now: SimTime,
    ) {
        let (s, lj) = self.owner_of(job);
        let si = self.si_of(s);
        // Offer addressed to a crashed scheduler: effectively lost — the
        // worker's lease reclaims the promised slot. (Faults only.)
        if !self.scheds[si].book.up {
            return;
        }
        if !self.scheds[si].book.is_live(lj) {
            self.send_refusal(si, worker, lj, true, inc, ep, now);
            return;
        }
        let share = fair_share(
            self.cfg.fairness_eps,
            self.cfg.cluster.total_slots(),
            self.active_global,
        );
        let st = &mut self.scheds[si];
        let Some((task, speculative)) =
            st.book
                .serve(lj, kind, MachineId(worker), self.policy, share, now)
        else {
            self.send_refusal(si, worker, lj, false, inc, ep, now);
            return;
        };
        // Pre-draw the unit-speed duration from the owner's own RNG; the
        // worker speed-scales and commits.
        let unit_dur = st.book.jobs[lj].sample_unit_duration(
            task,
            MachineId(worker),
            speculative,
            &mut st.rng,
        );
        let fresh = st.book.reservation(lj);
        self.sched_rpc(
            si,
            now,
            SEv::Assign {
                worker,
                job,
                task,
                speculative,
                unit_dur,
                vsize: fresh.virtual_size,
                remaining: fresh.remaining_tasks,
                inc,
                ep,
            },
        );
    }

    /// Refuse an offer for job `lj`, advertising this scheduler's
    /// smallest unsatisfied job (Pseudocode 3). `job_done` makes the
    /// refusal double as the job's completion notification at the worker.
    #[allow(clippy::too_many_arguments)]
    fn send_refusal(
        &mut self,
        si: usize,
        worker: usize,
        lj: usize,
        job_done: bool,
        inc: u64,
        ep: u64,
        now: SimTime,
    ) {
        self.stats.refusals += 1;
        let book = &self.scheds[si].book;
        let ev = SEv::Refusal {
            worker,
            job: book.job_id(lj),
            job_done,
            unsatisfied: book.best_unsatisfied(lj),
            inc,
            ep,
        };
        self.sched_rpc(si, now, ev);
    }

    /// The worker's launch ack: commit the copy into scheduler ground
    /// truth, or detect that the assignment went stale in flight (task
    /// finished, race resolved, job completed) and reclaim the
    /// already-running copy with a kill.
    #[allow(clippy::too_many_arguments)]
    fn on_launched(
        &mut self,
        job: usize,
        worker: usize,
        wtoken: u64,
        task: TaskRef,
        speculative: bool,
        start: SimTime,
        dur: SimTime,
        consumed: bool,
        now: SimTime,
    ) {
        let (s, lj) = self.owner_of(job);
        let si = self.si_of(s);
        if !self.faults_on {
            if let Some(a) = self.audit.as_mut() {
                a.note_occ_delivered(job);
            }
        }
        // The serial driver's delivery-time re-validation, moved to ack
        // time.
        let st = &mut self.scheds[si];
        if !st.book.assign_landed(lj, task, speculative, consumed) {
            // Unlike the serial driver, the copy is already running at
            // the worker: reclaim it. (A lost kill is recovered by the
            // copy freeing itself at its natural finish.)
            self.tele_kills += 1;
            self.sched_rpc(si, now, SEv::Kill { worker, wtoken });
            return;
        }
        st.book.wd_progress[lj] += 1;
        let copy =
            st.book.jobs[lj].launch_copy_prepared(task, MachineId(worker), speculative, start, dur);
        st.copy_tok.insert((job, copy), (worker, wtoken));
        st.tok_copy.insert((worker, wtoken), (job, copy));
        if speculative {
            self.stats.spec_launched += 1;
        } else {
            self.stats.orig_launched += 1;
        }
    }

    /// The assign found no promised slot (machine failed or episode
    /// ended in flight): undo the send-side accounting, as the serial
    /// driver's delivery-time mismatch branch does in place.
    fn on_assign_failed(&mut self, job: usize, task: TaskRef, speculative: bool) {
        let (s, lj) = self.owner_of(job);
        let si = self.si_of(s);
        if !self.faults_on {
            if let Some(a) = self.audit.as_mut() {
                a.note_occ_delivered(job);
            }
        }
        self.scheds[si].book.assign_failed(lj, task, speculative);
    }

    /// A committed copy ran to completion: resolve the race (the book
    /// learns β from the worker's measured wall-clock duration — equal
    /// to the serial driver's rescale-adjusted copy duration), kill the
    /// running siblings, probe newly eligible phases, complete the job.
    fn on_task_done(&mut self, job: usize, worker: usize, wtoken: u64, dur: SimTime, now: SimTime) {
        let (s, lj) = self.owner_of(job);
        let si = self.si_of(s);
        let st = &mut self.scheds[si];
        let Some((gjob, copy)) = st.tok_copy.remove(&(worker, wtoken)) else {
            return; // lost its race (or machine) before this ack landed
        };
        debug_assert_eq!(gjob, job);
        st.copy_tok.remove(&(job, copy));
        let Some(done) = st.book.copy_finished(lj, copy, now, Some(dur)) else {
            return; // stale (copy killed earlier)
        };
        if done.spec_won {
            self.stats.spec_won += 1;
        }
        for &(c, _) in &done.losers {
            // The sibling leaves the occupancy counter at its kill's
            // *send* (ground truth dropped it in `finish_copy` at this
            // same event), keeping counter and truth in lockstep.
            let st = &mut self.scheds[si];
            st.book.vacate(lj, 1);
            if let Some((w2, tok2)) = st.copy_tok.remove(&(job, c)) {
                st.tok_copy.remove(&(w2, tok2));
                self.tele_kills += 1;
                let kill = SEv::Kill {
                    worker: w2,
                    wtoken: tok2,
                };
                self.sched_rpc(si, now, kill);
            }
        }
        for &probes in &done.phase_probes {
            self.send_probes(si, lj, probes, now);
        }
        if done.job_done {
            self.complete_job(si, lj, now);
        }
    }

    /// A committed copy died with its machine: the per-copy half of the
    /// serial driver's `fail_machine` sweep.
    fn on_copy_lost(&mut self, job: usize, worker: usize, wtoken: u64, now: SimTime) {
        let (s, lj) = self.owner_of(job);
        let si = self.si_of(s);
        let st = &mut self.scheds[si];
        let Some((_, copy)) = st.tok_copy.remove(&(worker, wtoken)) else {
            return;
        };
        st.copy_tok.remove(&(job, copy));
        st.book.vacate(lj, 1);
        if st.book.jobs[lj].lose_copy(copy).is_some_and(|l| l.requeued) {
            let probes = st.book.requeue(lj, 1);
            self.send_probes(si, lj, probes, now);
        }
    }

    /// Reservations for the job evaporated at a worker.
    fn on_res_gone(&mut self, job: usize, count: usize) {
        let (s, lj) = self.owner_of(job);
        let si = self.si_of(s);
        self.scheds[si].book.reservations_gone(lj, count);
    }

    /// Per-scheduler straggler scan: refresh speculation candidates and
    /// re-probe jobs whose reservations all evaporated. Unlike the
    /// serial driver's global scan, there is no worker poke — workers
    /// self-poll (`SEv::Poll`).
    fn on_scan(&mut self, sched: usize, now: SimTime) {
        let si = self.si_of(sched);
        let st = &mut self.scheds[si];
        st.scan_armed = false;
        for (lj, probes) in st.book.scan(&self.cfg.speculator, now) {
            self.send_probes(si, lj, probes, now);
        }
        self.arm_scan(si, now);
    }

    /// Re-arm the scheduler's scan while it has live jobs or owed
    /// arrivals (the self-limiting equivalent of the serial driver's
    /// global-activity check).
    fn arm_scan(&mut self, si: usize, now: SimTime) {
        let st = &mut self.scheds[si];
        if !st.scan_armed && (!st.book.live.is_empty() || st.book.arrivals_pending > 0) {
            st.scan_armed = true;
            let scan = SEv::Scan { sched: st.book.s };
            self.push_local_sched(si, now, self.cfg.scan_interval, scan);
        }
    }

    /// Apply one scheduler crash/recover incident (faults only).
    fn on_sched_dyn(&mut self, ev: SchedEv, now: SimTime) {
        let s = sched_of(&ev);
        let si = self.si_of(s);
        if self.drained {
            // The chain retires, as the dynamics chains do — but a
            // scheduler that is down at that point still recovers.
            // Workers learn that its jobs completed only from its
            // refusals; left down, it would leave their reservations
            // parked and re-offered forever. No job is live, so
            // recovery has nothing to reconcile.
            if let SchedEv::Recover(_) = ev {
                self.scheds[si].book.up = true;
            }
            return;
        }
        if let Some((delay, next)) = self
            .sched_chain
            .as_mut()
            .expect("scheduler event without a crash chain")
            .apply(ev)
        {
            self.push_local_sched(si, now, delay, SEv::SchedDyn(next));
        }
        match ev {
            SchedEv::Fail(_) => {
                self.stats.sched_failovers += 1;
                self.scheds[si].book.crash();
            }
            SchedEv::Recover(_) => {
                for (lj, probes) in self.scheds[si].book.recover() {
                    self.stats.msgs_retried += probes as u64;
                    self.send_probes(si, lj, probes, now);
                }
            }
        }
    }

    /// The per-job watchdog fired (faults only); the owning book decides
    /// (see `SchedBook::watchdog`).
    fn on_job_timeout(&mut self, job: usize, now: SimTime) {
        let (s, lj) = self.owner_of(job);
        let si = self.si_of(s);
        let Some((delay_ms, stall)) = self.scheds[si].book.watchdog(lj, &self.backoff) else {
            return; // no re-arm: the watchdog dies with the job
        };
        if let Some(probes) = stall {
            self.stats.timeouts_fired += 1;
            if probes > 0 {
                self.stats.msgs_retried += probes as u64;
                self.send_probes(si, lj, probes, now);
            }
        }
        let delay = SimTime::from_millis(delay_ms);
        self.push_local_sched(si, now, delay, SEv::JobTimeout { job });
    }

    /// Complete and **retire** job `lj` of scheduler `si` (see
    /// `SchedBook::retire`), folding its outcome into the shard's digest
    /// and accumulators.
    fn complete_job(&mut self, si: usize, lj: usize, now: SimTime) {
        let result = self.scheds[si].book.retire(lj, now);
        self.digest.observe_ms(result.duration_ms());
        self.live_count -= 1;
        self.tele.observe_jct(result.duration_ms());
        if self.retain_jobs {
            self.results.push(result);
        }
        self.stats.makespan = self.stats.makespan.max(now);
    }

    /// Close any telemetry windows that end before the event about to
    /// be processed at `now`. Boundaries are global simulation time, so
    /// every shard count closes the same windows — which is what makes
    /// the merged series bit-identical across shard counts.
    #[inline]
    fn tele_tick(&mut self, now: SimTime) {
        let now_ms = now.as_millis();
        if self.tele.boundary_due(now_ms) {
            let snap = self.tele_snapshot();
            self.tele.close_to(now_ms, snap);
        }
    }

    /// Gauges + cumulative counters over this shard's own entities
    /// (disjoint across shards, so merged values sum to the global
    /// state). O(owned workers + schedulers), only evaluated at window
    /// boundaries and at the end of the run.
    fn tele_snapshot(&self) -> TelemetrySnapshot {
        TelemetrySnapshot {
            busy_slots: self.workers.iter().map(|wk| wk.records.len() as u64).sum(),
            queue_depth: self
                .workers
                .iter()
                .map(|wk| wk.state.queue.len() as u64)
                .sum(),
            live_jobs: self.live_count as u64,
            completed: self
                .scheds
                .iter()
                .map(|st| st.book.jobs.retired() as u64)
                .sum(),
            orig_launched: self.stats.orig_launched,
            spec_launched: self.stats.spec_launched,
            spec_won: self.stats.spec_won,
            killed: self.tele_kills,
            messages: self.stats.reservations + self.stats.responses + self.stats.refusals,
            events: self.stats.events,
        }
    }
}
