//! Event-driven centralized scheduling simulator.
//!
//! One event loop serves every [`Policy`]: job arrivals, copy completions,
//! and periodic straggler scans (the monitoring period of real
//! frameworks). After each event, freed slots are (re-)assigned by the
//! policy's dispatch rule. Speculation is *advisory* — the [`Speculator`]
//! proposes candidates at scan time and the policy decides whether a slot
//! is spent on them — which is exactly the coordination gap the paper
//! closes with Hopper.

use std::collections::{BTreeSet, VecDeque};
use std::ops::Bound;

use hopper_cluster::{
    ClusterConfig, CopyRef, DynEvent, DynamicsConfig, JobRun, JobSlab, MachineDynamics, MachineId,
    Machines, PrewarmCounters, TaskRef, MAX_RUNNING_COPIES,
};
use hopper_core::{
    AllocCounters, AlphaEstimator, BetaEstimator, IncrementalAlloc, Interval, Regime,
};
use hopper_metrics::{
    JobDigest, JobResult, RunReport, RunSummary, SeriesCollector, TelemetrySnapshot,
};
use hopper_sim::{EventQueue, SeedSequence, SimTime};
use hopper_spec::{Candidate, ScanScratch, Speculator};
use hopper_workload::{ArrivalSource, Trace, TraceJob};
use rand::rngs::StdRng;

use crate::policy::{HopperConfig, Policy};
use crate::rows::{RowCounters, RowTable};

/// Simulation-wide configuration (cluster + execution model + seed).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Cluster shape and execution-model parameters.
    pub cluster: ClusterConfig,
    /// Straggler-mitigation policy paired with the scheduler.
    pub speculator: Speculator,
    /// Period of the straggler scan (progress-monitoring interval).
    pub scan_interval: SimTime,
    /// Root seed for all randomness in the run.
    pub seed: u64,
    /// Safety valve: abort if more events than this are processed.
    pub max_events: u64,
    /// Optional scripted `(original_ms, speculative_ms)` durations, per job
    /// then per task, for single-phase scenario jobs (the §3 example /
    /// Table 1 bench). Indexed by trace job id.
    pub scripted: Option<Vec<Vec<(u64, u64)>>>,
    /// Cluster-dynamics plane: machine speed heterogeneity, transient
    /// slowdowns, failures. The default ([`DynamicsConfig::off`]) is
    /// bit-identical to a dynamics-free build.
    pub dynamics: DynamicsConfig,
    /// Telemetry window width (simulation ms). `0` (the default)
    /// disables the windowed time-series entirely; any value `> 0`
    /// records per-window series as a pure observer — simulation
    /// results are bit-identical either way (see DESIGN.md,
    /// "Telemetry plane").
    pub telemetry_window_ms: u64,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            cluster: ClusterConfig::default(),
            speculator: Speculator::Late(hopper_spec::SpecConfig::default()),
            scan_interval: SimTime::from_millis(1000),
            seed: 1,
            max_events: 200_000_000,
            scripted: None,
            dynamics: DynamicsConfig::off(),
            telemetry_window_ms: 0,
        }
    }
}

/// Aggregate counters of one run.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RunStats {
    /// Original copies launched.
    pub orig_launched: u64,
    /// Speculative copies launched.
    pub spec_launched: u64,
    /// Tasks whose winning copy was speculative.
    pub spec_won: u64,
    /// Copies killed (lost races, or died with a failed machine).
    pub killed: u64,
    /// Speculative copies launched on a warm (pre-bound) slot.
    pub spec_warm: u64,
    /// Cumulative hand-off delay paid by speculative copies (ms).
    pub spec_handoff_ms: u64,
    /// Jobs whose first allocation used Guideline 2 (capacity constrained).
    pub constrained_jobs: u64,
    /// Jobs whose first allocation used Guideline 3 (proportional).
    pub proportional_jobs: u64,
    /// Events processed.
    pub events: u64,
    /// Completion time of the last job.
    pub makespan: SimTime,
    /// Fraction of input-phase launches that were data-local.
    pub locality_fraction: Option<f64>,
    /// Final online β estimate (when learning was on).
    pub final_beta: Option<f64>,
    /// α prediction accuracy (when learning was on).
    pub alpha_accuracy: Option<f64>,
}

impl RunStats {
    /// Flatten into the driver-agnostic stats core shared with the
    /// decentralized driver (`messages` is 0: no network here).
    pub fn core(&self) -> hopper_metrics::CoreStats {
        hopper_metrics::CoreStats {
            orig_launched: self.orig_launched,
            spec_launched: self.spec_launched,
            spec_won: self.spec_won,
            events: self.events,
            messages: 0,
            makespan: self.makespan,
        }
    }
}

/// Result of a centralized run: per-job outcomes plus counters.
#[derive(Debug, Clone)]
pub struct RunOutput {
    /// One entry per trace job, sorted by job id. Empty for runs that
    /// do not retain jobs ([`run_source`]), whose per-job statistics
    /// live in the report's digest.
    pub jobs: Vec<JobResult>,
    /// Aggregate counters.
    pub stats: RunStats,
    /// The unified run-output surface: driver-agnostic core counters,
    /// streaming JCT digest, live-jobs high-water mark, and (when
    /// `telemetry_window_ms > 0`) the windowed time-series.
    pub report: RunReport,
    /// Allocation-churn counters of the incremental Hopper allocator
    /// (all zero for non-Hopper policies).
    pub alloc_counters: AllocCounters,
    /// Work counters of Hopper's slot pre-warm pass (all zero for
    /// non-Hopper policies). Not in `report.core`: they count work, not
    /// outcomes.
    pub prewarm_counters: PrewarmCounters,
    /// Work counters of Hopper's persistent launch-loop row table (all
    /// zero for non-Hopper policies). Not in `report.core` either.
    pub row_counters: RowCounters,
    /// Launches that left more than `MAX_RUNNING_COPIES` copies of their
    /// task running, summed over retired jobs. Observational; zero, since
    /// the central launch path checks the limit before every copy.
    pub over_limit_launches: u64,
}

impl RunSummary for RunOutput {
    fn jobs(&self) -> &[JobResult] {
        &self.jobs
    }

    fn report(&self) -> &RunReport {
        &self.report
    }
}

/// Run `trace` under `policy`, retaining per-job results.
pub fn run(trace: &Trace, policy: &Policy, cfg: &SimConfig) -> RunOutput {
    Central::new(ArrivalSource::from_trace(trace), policy, cfg, true).run()
}

/// Run any [`ArrivalSource`] under `policy`: a materialized trace, a
/// lazy stream (`ArrivalSource::from_stream`), or a replayed CSV trace
/// (`ArrivalSource::from_shared`). `retain_jobs` keeps per-job results;
/// without it the run has O(active jobs) job state — arrivals are
/// injected as simulation time advances, completed jobs are retired, and
/// per-job results fold into the output's digest (`RunOutput::jobs` is
/// empty). Simulation decisions do not depend on the source variant or
/// on `retain_jobs`: `RunStats` and the digest match exactly.
pub fn run_source(
    source: ArrivalSource<'_>,
    policy: &Policy,
    cfg: &SimConfig,
    retain_jobs: bool,
) -> RunOutput {
    Central::new(source, policy, cfg, retain_jobs).run()
}

#[derive(Debug, Clone)]
enum Event {
    /// The arrival of `Central::next_job`, queued by `push_arrival`
    /// ahead of every other event at its instant.
    Arrival,
    Finish {
        job: usize,
        copy: CopyRef,
    },
    Scan,
    /// Machine-dynamics incident (slowdown / failure / recovery). Only
    /// ever queued when `SimConfig::dynamics` is enabled.
    Dyn(DynEvent),
}

/// Ordered ready index for the priority policies (FIFO, SRPT, budgeted
/// SRPT): `(key, job)` for every active job with runnable work. The key
/// is `total_remaining` under SRPT and budgeted SRPT and 0 under FIFO,
/// so ties — and all of FIFO — fall back to ascending id. The set is a
/// superset: a job that runs out of runnable work keeps its entry until
/// the dispatch walk passes and prunes it. Keys are always current: the
/// only key change, a task finish, removes the entry first and re-marks
/// the job after. See DESIGN.md, "Index invariants".
struct ReadyIndex {
    by_remaining: bool,
    set: BTreeSet<(usize, usize)>,
}

impl ReadyIndex {
    fn for_policy(policy: &Policy) -> Option<Self> {
        let by_remaining = match policy {
            Policy::Fifo => false,
            Policy::Srpt | Policy::BudgetedSrpt { .. } => true,
            Policy::Hopper(_) | Policy::Fair => return None,
        };
        Some(ReadyIndex {
            by_remaining,
            set: BTreeSet::new(),
        })
    }

    fn key(&self, job: &JobRun) -> usize {
        if self.by_remaining {
            job.total_remaining()
        } else {
            0
        }
    }
}

struct Central<'a> {
    policy: &'a Policy,
    cfg: &'a SimConfig,
    queue: EventQueue<Event>,
    machines: Machines,
    /// Undelivered arrivals after `next_job`.
    arrivals: ArrivalSource<'a>,
    /// The job whose [`Event::Arrival`] is queued (`None` once the
    /// source is exhausted).
    next_job: Option<TraceJob>,
    /// Live jobs' runtime state; completed jobs are retired (their
    /// task/copy state dropped, stats folded into accumulators).
    jobs: JobSlab,
    /// Placement randomness for lazily constructed `JobRun`s; consumed
    /// in arrival (= id) order, exactly as the eager constructor did.
    placement_rng: StdRng,
    /// Whether per-job `JobResult`s are retained (false for streaming).
    retain_jobs: bool,
    /// Driver-maintained running-copy count per job. Equals
    /// `JobRun::occupied_slots()` at every read, but that accessor
    /// re-runs an O(tasks) cross-check in debug builds, which at every
    /// `runnable()` would more than double the test suite's run time.
    usage: Vec<usize>,
    /// Driver-maintained unlaunched-original count per job. Equals
    /// `JobRun::pending_originals()` at every read; kept for the same
    /// debug-build cost as `usage`.
    pending_orig: Vec<usize>,
    /// Cached speculation candidates per job (refreshed at scans);
    /// consumed front-first, so a deque instead of a `Vec::remove(0)`.
    candidates: Vec<VecDeque<Candidate>>,
    /// The speculator's scan buffer, reused by every job's scan.
    scan_scratch: ScanScratch,
    /// Cached α per job (refreshed at scans / phase transitions).
    alpha_cache: Vec<f64>,
    /// Whether a job's first allocation regime has been recorded.
    regime_counted: Vec<bool>,
    /// Active job ids in ascending id order (binary-search insert and
    /// remove). The per-job sweeps — scan refresh, machine incidents,
    /// telemetry — visit jobs in id order, which fixes the order of the
    /// events they queue.
    active: Vec<usize>,
    /// Priority order of the jobs with runnable work, for FIFO, SRPT and
    /// budgeted SRPT (`None` under Hopper and Fair) — see [`ReadyIndex`].
    ready: Option<ReadyIndex>,
    scan_armed: bool,
    /// Incrementally maintained Hopper allocation (empty for non-Hopper
    /// policies). Every `allocate` input change is pushed into it at the
    /// point the input changes — arrivals, task finishes, completions,
    /// α/β updates — so dispatch recomputes exactly when something
    /// actually moved (machine fail/recover and stale finishes change no
    /// allocator input and leave the cache intact).
    alloc: IncrementalAlloc,
    /// Jobs whose first-allocation regime is not yet recorded; drained
    /// into the regime counters at the next fresh allocation, exactly
    /// when the eager path would have first included them.
    uncounted: Vec<usize>,
    /// Bounded staleness must not skip the next reallocation (a job
    /// arrived or completed since the last one).
    force_realloc: bool,
    /// `approx_total_virtual` at the last fresh allocation — the
    /// bounded-staleness drift base.
    v_at_last_alloc: f64,
    /// Defer dispatch until all same-instant events are processed
    /// (Hopper with `realloc_drift > 0`: one allocation pass per
    /// instant instead of per event).
    defer_dispatch: bool,
    pending_dispatch: bool,
    /// Instant of the most recently delivered event (the deferred
    /// dispatch runs at this time once the instant's batch drains).
    last_now: SimTime,
    /// Hopper's launch-loop rows, kept across dispatches and patched
    /// where something changed (`None` for the other policies) — see
    /// [`RowTable`].
    table: Option<RowTable>,
    /// Work counters of the launch loop's pre-warm passes.
    prewarm: PrewarmCounters,
    /// Cluster-wide running original copies (BudgetedSrpt's cap input).
    orig_running: usize,
    /// Machine speed/availability state; `None` when dynamics are off
    /// (the common case — every lookup then short-circuits to 1.0/up).
    dynamics: Option<MachineDynamics>,
    rng: StdRng,
    beta_est: BetaEstimator,
    alpha_est: AlphaEstimator,
    predicted_mb: Vec<Option<f64>>,
    results: Vec<JobResult>,
    stats: RunStats,
    /// Online duration statistics, folded at each retirement.
    digest: JobDigest,
    /// Windowed time-series observer (inert when
    /// `telemetry_window_ms == 0`). Never feeds back into the
    /// simulation — see DESIGN.md, "Telemetry plane".
    tele: SeriesCollector,
    /// Input-phase launch counters folded out of retired jobs (the
    /// end-of-run locality fraction no longer walks every job).
    local_launches: usize,
    nonlocal_launches: usize,
    /// Retired jobs' launches past the copy limit (see
    /// `RunOutput::over_limit_launches`).
    over_limit_launches: u64,
}

impl<'a> Central<'a> {
    fn new(
        arrivals: ArrivalSource<'a>,
        policy: &'a Policy,
        cfg: &'a SimConfig,
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
                queue.push(at, Event::Dyn(ev));
            }
        }
        let beta_est = BetaEstimator::with_prior(1.5);
        // Shared-β mode mirrors `beta_for`: with learning on, every job's
        // virtual size uses the one global estimate.
        let alloc = IncrementalAlloc::new(
            matches!(policy, Policy::Hopper(h) if h.learn_beta).then(|| beta_est.beta()),
        );
        let defer_dispatch = matches!(policy, Policy::Hopper(h) if h.realloc_drift > 0.0);
        let mut central = Central {
            policy,
            cfg,
            queue,
            machines: Machines::new(&cfg.cluster),
            arrivals,
            next_job: None,
            placement_rng: seq.child_rng(0xB10C),
            retain_jobs,
            usage: vec![0; n],
            pending_orig: vec![0; n],
            candidates: vec![VecDeque::new(); n],
            scan_scratch: ScanScratch::default(),
            alpha_cache: vec![1.0; n],
            regime_counted: vec![false; n],
            active: Vec::new(),
            ready: ReadyIndex::for_policy(policy),
            scan_armed: false,
            alloc,
            uncounted: Vec::new(),
            force_realloc: false,
            v_at_last_alloc: 0.0,
            defer_dispatch,
            pending_dispatch: false,
            last_now: SimTime::ZERO,
            table: matches!(policy, Policy::Hopper(_)).then(|| RowTable::new(n)),
            prewarm: PrewarmCounters::default(),
            orig_running: 0,
            dynamics,
            rng: seq.child_rng(0xD00D),
            beta_est,
            alpha_est: AlphaEstimator::new(),
            predicted_mb: vec![None; n],
            results: Vec::with_capacity(if retain_jobs { n } else { 0 }),
            stats: RunStats::default(),
            digest: JobDigest::new(),
            tele: SeriesCollector::new(cfg.telemetry_window_ms, cfg.cluster.total_slots() as u64),
            local_launches: 0,
            nonlocal_launches: 0,
            over_limit_launches: 0,
            jobs: JobSlab::new(n),
        };
        central.queue_next_arrival();
        central
    }

    /// Take the source's next job and queue its arrival.
    fn queue_next_arrival(&mut self) {
        self.next_job = self.arrivals.pop();
        if let Some(job) = &self.next_job {
            self.queue.push_arrival(job.arrival, Event::Arrival);
        }
    }

    /// Build job `j`'s runtime state and make it schedulable. Lazy
    /// construction consumes `placement_rng` in arrival (= id) order —
    /// the same draw sequence the historical build-everything-up-front
    /// constructor used, so results are bit-identical.
    fn on_arrival(&mut self, spec: TraceJob, now: SimTime) {
        let j = spec.id;
        debug_assert_eq!(spec.arrival, now);
        let mut job = JobRun::new(spec, &self.cfg.cluster, &mut self.placement_rng);
        if let Some(scripts) = &self.cfg.scripted {
            if let Some(tasks) = scripts.get(j) {
                job.script_single_phase(tasks);
            }
        }
        self.pending_orig[j] = job
            .phases()
            .iter()
            .filter(|p| p.eligible)
            .map(|p| p.num_tasks())
            .sum();
        self.jobs.insert(j, job);
        let pos = self.active.binary_search(&j).unwrap_err();
        self.active.insert(pos, j);
        self.mark_ready(j);
        self.predicted_mb[j] = self.alpha_est.predict(self.jobs[j].spec.template);
        self.refresh_alpha(j);
        // Enter the allocator (refresh_alpha only upserts on α change).
        self.alloc_upsert(j);
        self.uncounted.push(j);
        self.force_realloc = true;
        self.arm_scan();
        self.dispatch_or_defer(now);
    }

    /// Push job `j`'s current demand inputs into the incremental
    /// allocator (insert or update; a bit-identical update is a no-op
    /// and keeps the allocation cache clean). Non-Hopper policies do not
    /// allocate, so the allocator stays empty for them.
    fn alloc_upsert(&mut self, j: usize) {
        let Policy::Hopper(h) = self.policy else {
            return;
        };
        // Allocation is sized by the *runnable* (current-phase) work; the
        // priority key max(V, V') additionally sees all downstream work so
        // a deep DAG is not mistaken for a small job (ordering stays
        // SRPT-consistent).
        let remaining = self.jobs[j].current_remaining() as f64;
        let downstream = (self.jobs[j].total_remaining() - self.jobs[j].current_remaining()) as f64;
        // α *amplifies* the virtual size of communication-heavy jobs
        // (§4.2); flooring at 1 keeps map-heavy jobs from being allocated
        // fewer slots than their running phase can use (√α < 1 would
        // starve the upstream phase into extra waves — see DESIGN.md,
        // deviations).
        let alpha = if h.use_alpha {
            self.alpha_cache[j].max(1.0)
        } else {
            1.0
        };
        self.alloc.upsert(
            j,
            remaining,
            downstream,
            alpha,
            self.jobs[j].spec.beta,
            self.jobs[j].spec.weight,
        );
    }

    /// Dispatch now, or — in batching mode — once the current instant's
    /// event batch has drained (the run loop flushes the pending flag
    /// before delivering an event at a later instant).
    fn dispatch_or_defer(&mut self, now: SimTime) {
        if self.defer_dispatch {
            self.pending_dispatch = true;
        } else {
            self.dispatch(now);
        }
    }

    fn run(mut self) -> RunOutput {
        loop {
            // Batching mode: all events of one instant are processed
            // before the single dispatch for that instant runs. Flushing
            // here — before delivering an event at a *later* instant (or
            // none) — is what makes the batch boundary exact.
            if self.pending_dispatch && self.queue.peek_time() != Some(self.last_now) {
                self.pending_dispatch = false;
                self.dispatch(self.last_now);
            }
            let Some((now, ev)) = self.queue.pop() else {
                break;
            };
            self.tele_tick(now);
            self.stats.events += 1;
            self.last_now = now;
            assert!(
                self.stats.events <= self.cfg.max_events,
                "event budget exceeded: likely a livelock (policy {})",
                self.policy.name()
            );
            match ev {
                Event::Arrival => {
                    let spec = self.next_job.take().expect("a queued arrival has its job");
                    self.queue_next_arrival();
                    self.on_arrival(spec, now);
                }
                Event::Finish { job, copy } => {
                    // Completions queued for copies that lost their race
                    // pop after the job completed and retired; they are
                    // stale by definition and must not touch its state.
                    if !self.jobs.is_live(job) {
                        continue;
                    }
                    // A machine-speed change reschedules in-flight copies:
                    // the superseded completion event pops at a time that
                    // no longer matches the copy's finish instant. A no-op
                    // without dynamics (events always pop on time).
                    {
                        let c = self.jobs[job].copy(copy);
                        if c.status == hopper_cluster::CopyStatus::Running && c.finish_time() != now
                        {
                            continue;
                        }
                    }
                    // Originals leaving the running set with this finish:
                    // every non-speculative copy still Running at this
                    // instant (winner included) is resolved by the race.
                    // Captured *before* finish_copy so copies a machine
                    // failure killed earlier — already deducted from
                    // `orig_running` at failure time — are not recounted.
                    let running_orig_delta = self.jobs[job]
                        .copies(copy.task)
                        .filter(|c| {
                            !c.speculative && c.status == hopper_cluster::CopyStatus::Running
                        })
                        .count();
                    // A winning finish moves the SRPT key: drop the entry
                    // under the old key (re-marked below unless the job
                    // completes).
                    self.unmark_ready(job);
                    let Some(out) = self.jobs[job].finish_copy(copy, now) else {
                        // Stale: the copy lost its race earlier and
                        // nothing moved.
                        self.mark_ready(job);
                        continue;
                    };
                    // Slot bookkeeping for winner + killed siblings.
                    for &m in &out.freed {
                        self.machines.release_to(m, job);
                    }
                    let was_spec = self.jobs[job].copy(copy).speculative;
                    let freed_of_job = out.freed.len();
                    self.usage[job] -= freed_of_job;
                    let killed = freed_of_job - 1;
                    self.stats.killed += killed as u64;
                    self.orig_running -= running_orig_delta.min(self.orig_running);
                    if was_spec {
                        self.stats.spec_won += 1;
                    }
                    // β learning: observed duration multiplier. A moved
                    // estimate rescales every virtual size — pushed into
                    // the allocator as one lazy shared-β refresh.
                    if out.nominal.as_millis() > 0 {
                        self.beta_est.observe(
                            out.duration.as_millis() as f64 / out.nominal.as_millis() as f64,
                        );
                        if matches!(self.policy, Policy::Hopper(h) if h.learn_beta) {
                            self.alloc.set_shared_beta(self.beta_est.beta());
                        }
                    }
                    // α learning at phase completion.
                    if out.phase_done {
                        let actual = self.jobs[job].spec.phases[copy.task.phase].output_mb_per_task;
                        if actual > 0.0 {
                            self.alpha_est.observe(self.jobs[job].spec.template, actual);
                            if let Some(pred) = self.predicted_mb[job] {
                                self.alpha_est.record_outcome(pred, actual);
                            }
                        }
                    }
                    if !out.newly_eligible.is_empty() {
                        for &pi in &out.newly_eligible {
                            self.pending_orig[job] += self.jobs[job].phases()[pi].num_tasks();
                        }
                        self.refresh_alpha(job);
                    }
                    if out.job_done {
                        self.complete_job(job, now);
                    } else {
                        // Remaining-task counts changed: push the fresh
                        // demand into the allocator (a no-op if α/remaining
                        // bits happen to be unchanged).
                        self.alloc_upsert(job);
                        self.mark_ready(job);
                    }
                    self.dispatch_or_defer(now);
                }
                Event::Scan => {
                    self.scan_armed = false;
                    for idx in 0..self.active.len() {
                        let j = self.active[idx];
                        self.cfg.speculator.candidates_into(
                            &self.jobs[j],
                            now,
                            &mut self.scan_scratch,
                            &mut self.candidates[j],
                        );
                        self.mark_ready(j);
                        self.refresh_alpha(j);
                    }
                    self.arm_scan();
                    self.dispatch_or_defer(now);
                }
                Event::Dyn(ev) => {
                    // The incident chain dies with the workload: once every
                    // job has completed, incidents are dropped unapplied and
                    // no follow-up is scheduled, so the queue drains.
                    if self.active.is_empty() && self.next_job.is_none() {
                        continue;
                    }
                    self.on_dyn(ev, now);
                }
            }
        }
        assert!(
            self.active.is_empty() && self.next_job.is_none(),
            "simulation drained with unfinished jobs (deadlock?)"
        );
        self.stats.locality_fraction = {
            let total = self.local_launches + self.nonlocal_launches;
            (total > 0).then(|| self.local_launches as f64 / total as f64)
        };
        if let Policy::Hopper(h) = self.policy {
            if h.learn_beta {
                self.stats.final_beta = Some(self.beta_est.beta());
            }
            if h.learn_alpha {
                self.stats.alpha_accuracy = self.alpha_est.accuracy();
            }
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
        RunOutput {
            jobs,
            stats: self.stats,
            report,
            alloc_counters: self.alloc.counters(),
            prewarm_counters: self.prewarm,
            row_counters: self
                .table
                .as_ref()
                .map_or_else(RowCounters::default, |t| t.counters),
            over_limit_launches: self.over_limit_launches,
        }
    }

    /// Close any telemetry windows that end before the event about to
    /// be processed at `now`. Called with every event's timestamp
    /// *before* the event mutates state, so the snapshot is exactly
    /// the state at the crossed boundary. One branch when disabled.
    #[inline]
    fn tele_tick(&mut self, now: SimTime) {
        let now_ms = now.as_millis();
        if self.tele.boundary_due(now_ms) {
            let snap = self.tele_snapshot();
            self.tele.close_to(now_ms, snap);
        }
    }

    /// Gauges + cumulative counters for the telemetry plane. O(active
    /// jobs), and only ever evaluated at window boundaries and at the
    /// end of the run.
    fn tele_snapshot(&self) -> TelemetrySnapshot {
        let mut busy_slots = 0u64;
        let mut queue_depth = 0u64;
        for &j in &self.active {
            busy_slots += self.usage[j] as u64;
            queue_depth += self.pending_orig[j] as u64;
        }
        TelemetrySnapshot {
            busy_slots,
            queue_depth,
            live_jobs: self.active.len() as u64,
            completed: self.digest.count(),
            orig_launched: self.stats.orig_launched,
            spec_launched: self.stats.spec_launched,
            spec_won: self.stats.spec_won,
            killed: self.stats.killed,
            messages: 0,
            events: self.stats.events,
        }
    }

    /// Complete and **retire** job `j`: its per-job outcome is folded
    /// into the digest/accumulators (and, in materialized mode, pushed
    /// as a `JobResult`), then its task/copy state is dropped. From this
    /// instant the job is observationally gone — any path touching
    /// `jobs[j]` panics (the retirement invariant, DESIGN.md).
    fn complete_job(&mut self, j: usize, now: SimTime) {
        if let Ok(pos) = self.active.binary_search(&j) {
            self.active.remove(pos);
        }
        self.alloc.remove(j);
        self.force_realloc = true;
        self.candidates[j] = VecDeque::new();
        self.machines.retire_job(j);
        let job = self.jobs.retire(j);
        self.local_launches += job.local_launches;
        self.nonlocal_launches += job.nonlocal_launches;
        self.over_limit_launches += job.over_limit_launches as u64;
        let result = JobResult {
            job: job.id,
            size_tasks: job.spec.size_tasks(),
            dag_len: job.spec.dag_len(),
            arrival: job.spec.arrival,
            completed: now,
        };
        self.digest.observe_ms(result.duration_ms());
        self.tele.observe_jct(result.duration_ms());
        if self.retain_jobs {
            self.results.push(result);
        }
        self.stats.makespan = self.stats.makespan.max(now);
    }

    fn arm_scan(&mut self) {
        if !self.scan_armed && (!self.active.is_empty() || self.next_job.is_some()) {
            self.queue.push_after(self.cfg.scan_interval, Event::Scan);
            self.scan_armed = true;
        }
    }

    /// Effective speed of machine `m` (1.0 when dynamics are off).
    fn machine_speed(&self, m: MachineId) -> f64 {
        self.dynamics.as_ref().map_or(1.0, |d| d.speed(m))
    }

    /// Apply one machine-dynamics incident.
    fn on_dyn(&mut self, ev: DynEvent, now: SimTime) {
        let out = self
            .dynamics
            .as_mut()
            .expect("dyn event without dynamics plane")
            .apply(ev);
        for (delay, next) in out.next {
            self.queue.push(now + delay, Event::Dyn(next));
        }
        let m = ev.machine();
        match ev {
            DynEvent::SlowdownStart(_) | DynEvent::SlowdownEnd(_) => {
                // In-flight copies on `m` stretch (or shrink) their
                // remaining time; their old completion events go stale and
                // fresh ones are queued at the rescaled finish instants.
                let ratio = out.rescale_ratio.expect("speed change carries a ratio");
                for idx in 0..self.active.len() {
                    let j = self.active[idx];
                    for (copy, finish) in self.jobs[j].rescale_machine(m, now, ratio) {
                        self.queue.push(finish, Event::Finish { job: j, copy });
                    }
                }
            }
            DynEvent::Fail(_) => {
                // Every running copy on the machine dies with it; tasks
                // whose last copy died return to the pending pool for
                // re-dispatch. The machine's slots leave the cluster.
                for idx in 0..self.active.len() {
                    let j = self.active[idx];
                    let fo = self.jobs[j].fail_machine(m);
                    if fo.killed == 0 {
                        continue;
                    }
                    self.usage[j] -= fo.killed;
                    let orig = fo.killed - fo.killed_spec;
                    self.orig_running -= orig.min(self.orig_running);
                    self.pending_orig[j] += fo.requeued.len();
                    self.stats.killed += fo.killed as u64;
                    self.mark_ready(j);
                }
                self.machines.set_down(m);
                // No allocate input moved: killed tasks return to
                // *pending* (remaining counts are unchanged) and the
                // capacity input is the static configured slot total —
                // the cached allocation stays valid.
                self.dispatch_or_defer(now);
            }
            DynEvent::Recover(_) => {
                // Pure capacity-return event; like `Fail`, it changes no
                // allocator input and must not trash the cache.
                self.machines.set_up(m);
                self.dispatch_or_defer(now);
            }
        }
    }

    fn refresh_alpha(&mut self, j: usize) {
        let learn = matches!(self.policy, Policy::Hopper(h) if h.learn_alpha);
        let fresh = if learn {
            match self.predicted_mb[j] {
                Some(mb) => self.jobs[j].alpha_with_predicted_output(mb),
                None => self.jobs[j].alpha(), // cold start: ground truth
            }
        } else {
            self.jobs[j].alpha()
        };
        // Only an actual α change invalidates the cached allocation — a
        // no-op scan refresh keeps the cache intact.
        if fresh.to_bits() != self.alpha_cache[j].to_bits() {
            self.alpha_cache[j] = fresh;
            self.alloc_upsert(j);
        }
    }

    /// Effective β used for a job's virtual size. The hot paths inline
    /// this choice (`alloc_upsert` pushes β at input-change time and the
    /// launch loop hoists the shared multiplier), so the method itself
    /// only backs the debug-build eager shadow check.
    #[cfg(debug_assertions)]
    fn beta_for(&self, j: usize) -> f64 {
        match self.policy {
            Policy::Hopper(h) if h.learn_beta => self.beta_est.beta(),
            _ => self.jobs[j].spec.beta,
        }
    }

    /// Number of runnable work items for a job right now (validated lazily
    /// at launch).
    fn runnable(&self, j: usize) -> usize {
        self.pending_orig[j] + self.candidates[j].len()
    }

    /// Insert job `j` into the ready index under its current key if it
    /// has runnable work. Called wherever runnable work can appear or the
    /// key can move: arrival, task finish (phase eligibility included),
    /// scan refresh and failure requeue — the same points where a job's
    /// usage or runnable work moves outside the launch loop, so under
    /// Hopper (no ready index) it queues the job's launch-loop row for
    /// recomputation instead.
    fn mark_ready(&mut self, j: usize) {
        if let Some(ready) = self.ready.as_mut() {
            if self.pending_orig[j] + self.candidates[j].len() == 0 {
                return;
            }
            let key = ready.key(&self.jobs[j]);
            ready.set.insert((key, j));
        } else if let Some(table) = self.table.as_mut() {
            table.touch(j);
        }
    }

    /// Remove job `j`'s entry under its current key, if any.
    fn unmark_ready(&mut self, j: usize) {
        if let Some(ready) = self.ready.as_mut() {
            let key = ready.key(&self.jobs[j]);
            ready.set.remove(&(key, j));
        }
    }

    /// Assign free slots according to the policy. Runs after every
    /// event, or once per instant when Hopper batches dispatch
    /// (`realloc_drift > 0`).
    fn dispatch(&mut self, now: SimTime) {
        match self.policy {
            Policy::Hopper(h) => self.dispatch_hopper(now, h),
            Policy::Fifo | Policy::Srpt => self.dispatch_priority(now, None),
            Policy::BudgetedSrpt { budget_fraction } => {
                let budget =
                    (self.cfg.cluster.total_slots() as f64 * budget_fraction).ceil() as usize;
                let orig_cap = self.cfg.cluster.total_slots().saturating_sub(budget);
                self.dispatch_priority(now, Some(orig_cap));
            }
            Policy::Fair => self.dispatch_fair(now),
        }
    }

    /// Launch loop for priority-ordered policies (FIFO, SRPT, budgeted):
    /// each job in priority order exhausts its runnable work — originals
    /// first, then speculation best-effort. `orig_cap` bounds
    /// cluster-wide original copies (the §3 budgeted strawman).
    ///
    /// A cursor walks the ready index, so it visits only jobs with
    /// runnable work, in the order of `active` sorted by
    /// `(total_remaining, id)` (id alone under FIFO); a job without
    /// runnable work has nothing to launch. A launch moves no key
    /// (`total_remaining` counts unfinished tasks) and makes no other job
    /// runnable, so the order is fixed for the whole walk. Jobs the walk
    /// leaves without runnable work are pruned.
    fn dispatch_priority(&mut self, now: SimTime, orig_cap: Option<usize>) {
        let mut ready = self
            .ready
            .take()
            .expect("priority policies keep a ready index");
        #[cfg(debug_assertions)]
        self.assert_ready_matches_sort(&ready);
        let mut cursor = Bound::Unbounded;
        'walk: while let Some(&(key, j)) = ready.set.range((cursor, Bound::Unbounded)).next() {
            cursor = Bound::Excluded((key, j));
            loop {
                if self.machines.total_free() == 0 {
                    break 'walk;
                }
                let can_orig = orig_cap.is_none_or(|cap| self.orig_running < cap);
                let launched = if can_orig && self.pending_orig[j] > 0 {
                    self.launch_original(j, now)
                } else {
                    // Originals exhausted (or capped): best-effort
                    // speculation with whatever slots this job can win.
                    self.try_speculative(j, now)
                };
                if !launched {
                    break; // move on to the next job in priority order
                }
            }
            if self.runnable(j) == 0 {
                ready.set.remove(&(key, j));
            }
        }
        self.ready = Some(ready);
    }

    /// Debug-only shadow check: the ready index, filtered to jobs with
    /// runnable work, must equal `active` sorted by `(key, id)` and
    /// filtered the same way, keys included.
    #[cfg(debug_assertions)]
    fn assert_ready_matches_sort(&self, ready: &ReadyIndex) {
        let mut sorted: Vec<(usize, usize)> = self
            .active
            .iter()
            .filter(|&&j| self.runnable(j) > 0)
            .map(|&j| (ready.key(&self.jobs[j]), j))
            .collect();
        sorted.sort_unstable();
        let indexed: Vec<(usize, usize)> = ready
            .set
            .iter()
            .filter(|&&(_, j)| self.runnable(j) > 0)
            .copied()
            .collect();
        assert_eq!(
            indexed, sorted,
            "ready index drifted from the priority sort"
        );
    }

    /// Fair sharing: each job is entitled to S/N; grant slots to the most
    /// deficient jobs first (best-effort speculation within the share).
    fn dispatch_fair(&mut self, now: SimTime) {
        loop {
            if self.machines.total_free() == 0 || self.active.is_empty() {
                return;
            }
            let n = self.active.len();
            let share = (self.cfg.cluster.total_slots() / n).max(1);
            // Most-deficient job with runnable work and usage below share;
            // if everyone hit their share but slots remain, spill over to
            // any runnable job (work conservation, like Hadoop Fair). One
            // scan finds both minima, keyed (usage, job).
            let mut under: Option<(usize, usize)> = None;
            let mut any: Option<(usize, usize)> = None;
            for &j in &self.active {
                if self.runnable(j) > 0 {
                    let key = (self.usage[j], j);
                    if any.is_none_or(|b| key < b) {
                        any = Some(key);
                    }
                    if key.0 < share && under.is_none_or(|b| key < b) {
                        under = Some(key);
                    }
                }
            }
            let Some((_, j)) = under.or(any) else { return };
            if self.pending_orig[j] > 0 {
                if !self.launch_original(j, now) {
                    return;
                }
            } else if !self.try_speculative(j, now) {
                return;
            }
        }
    }

    /// Hopper dispatch: targets from Pseudocode 1 (incrementally
    /// maintained — see `hopper_core::incremental`), slot-holding, and
    /// the k% locality relaxation.
    fn dispatch_hopper(&mut self, now: SimTime, hcfg: &HopperConfig) {
        if self.active.is_empty() || self.machines.total_free() == 0 {
            return;
        }
        let capacity = self.cfg.cluster.total_slots();
        // Reuse the previous allocation outright when no input changed
        // (exact, not an approximation — `allocate` is a pure function of
        // the demands). With `realloc_drift > 0`, additionally keep a
        // *stale* allocation while the approximate total virtual size
        // stays within the drift budget; arrivals and completions always
        // force a fresh pass (the job set itself changed).
        let stale = if !self.alloc.is_dirty() {
            if !self.force_realloc {
                self.alloc.note_reuse();
            }
            !self.force_realloc
        } else if hcfg.realloc_drift > 0.0 && !self.force_realloc {
            let base = self.v_at_last_alloc;
            let within =
                (self.alloc.approx_total_virtual() - base).abs() <= hcfg.realloc_drift * base.abs();
            if within {
                self.alloc.note_stale_skip();
            }
            within
        } else {
            false
        };
        if !stale {
            self.realloc(capacity, hcfg);
        }
        let launched = self.hopper_launch_loop(now, hcfg);
        // Work conservation under staleness: if a stale pass stranded
        // free slots that runnable work could use, pay for one fresh
        // allocation instead of idling capacity until the next forced
        // reallocation.
        if stale
            && !launched
            && self.alloc.is_dirty()
            && self.machines.total_free() > 0
            && self.active.iter().any(|&j| self.runnable(j) > 0)
        {
            self.realloc(capacity, hcfg);
            self.hopper_launch_loop(now, hcfg);
        }
    }

    /// One fresh (full or sorted-suffix) allocation pass; refreshes the
    /// bounded-staleness drift base and the first-allocation regime
    /// counters.
    fn realloc(&mut self, capacity: usize, hcfg: &HopperConfig) {
        // Allocation is over *all* slots; a job's target includes its
        // currently running copies.
        let regime = self.alloc.allocate(capacity, &hcfg.alloc);
        self.v_at_last_alloc = self.alloc.approx_total_virtual();
        self.force_realloc = false;
        // Jobs first included in this allocation get their regime
        // recorded — exactly when the eager path first saw them (a job
        // cannot run, hence cannot complete, before its first fresh
        // allocation: its own arrival forces one).
        for j in self.uncounted.drain(..) {
            if !self.regime_counted[j] {
                self.regime_counted[j] = true;
                match regime {
                    Regime::Constrained => self.stats.constrained_jobs += 1,
                    Regime::Proportional => self.stats.proportional_jobs += 1,
                }
            }
        }
        #[cfg(debug_assertions)]
        self.assert_alloc_matches_eager(capacity, hcfg, regime);
    }

    /// Debug-only shadow check: the incremental allocation must be
    /// bit-identical to eager [`hopper_core::allocate`] over the same
    /// demands (the exactness contract of `hopper_core::incremental`).
    #[cfg(debug_assertions)]
    fn assert_alloc_matches_eager(&self, capacity: usize, hcfg: &HopperConfig, regime: Regime) {
        use hopper_core::{allocate, JobDemand};
        let demands: Vec<JobDemand> = self
            .active
            .iter()
            .map(|&j| JobDemand {
                job: j,
                remaining_tasks: self.jobs[j].current_remaining() as f64,
                downstream_tasks: (self.jobs[j].total_remaining()
                    - self.jobs[j].current_remaining()) as f64,
                alpha: if hcfg.use_alpha {
                    self.alpha_cache[j].max(1.0)
                } else {
                    1.0
                },
                beta: self.beta_for(j),
                weight: self.jobs[j].spec.weight,
            })
            .collect();
        for a in allocate(&demands, capacity, &hcfg.alloc) {
            assert_eq!(
                self.alloc.granted(a.job),
                a.slots,
                "incremental grant for job {} drifted from eager",
                a.job
            );
            assert_eq!(a.regime, regime, "regime drifted from eager");
        }
    }

    /// The launch loop over the current allocation: priority-ordered
    /// launches with slot-holding and the k% locality relaxation.
    ///
    /// The rows — `(job, hold)`, target and eligibility in allocation
    /// order, and the held total — persist in the [`RowTable`]; a pass
    /// first patches the rows that changed since the last one
    /// ([`Self::sync_rows`]). Within a pass one launch attempt moves
    /// usage/runnable state for exactly the chosen job (a failed
    /// speculative attempt still prunes its candidates), so only that
    /// row is recomputed. Eligibility is monotone within one pass —
    /// usage only grows and runnable work only shrinks — so a row that
    /// drops out never re-enters. Returns whether any copy launched.
    fn hopper_launch_loop(&mut self, now: SimTime, hcfg: &HopperConfig) -> bool {
        // Under a learned β every job shares one speculation multiplier;
        // hoist it so the per-row quota below is pure integer work.
        let shared_mult = if hcfg.learn_beta {
            Some(hopper_core::speculation_multiplier(self.beta_est.beta()))
        } else {
            None
        };
        let mut t = self.table.take().expect("Hopper keeps a row table");
        self.sync_rows(&mut t, shared_mult);
        #[cfg(debug_assertions)]
        self.assert_rows_match_rebuild(&t, shared_mult);
        // Holds are slots kept idle for jobs whose allocation exceeds
        // both their usage and their immediately runnable work
        // (anticipated speculation — Figure 2's "budgeted slot 5 until
        // time 2"); eligible rows have headroom and runnable work.
        let n = t.rows.len();
        let bracket = ((hcfg.locality_relax_pct / 100.0 * n as f64).ceil() as usize).min(n);
        let mut launched_any = false;
        loop {
            let free = self.machines.total_free();
            if free == 0 || free <= t.held {
                break;
            }
            // Head: first eligible row.
            let Some(head) = t.elig.next_set(0) else {
                break;
            };
            let mut chosen = head;
            // k% locality relaxation (§4.4): if the head job's next launch
            // would be non-local, any of the smallest k% of eligible jobs
            // with a data-local task on a free machine may take the slot.
            if bracket > 0 && !self.would_launch_local(t.rows[head].0) {
                let mut seen = 0usize;
                let mut next = Some(head);
                while let Some(ri) = next {
                    if seen == bracket {
                        break;
                    }
                    seen += 1;
                    if self.would_launch_local(t.rows[ri].0) {
                        chosen = ri;
                        break;
                    }
                    next = t.elig.next_set(ri + 1);
                }
            }
            let j = t.rows[chosen].0;
            let launched = if self.pending_orig[j] > 0 {
                self.launch_original(j, now)
            } else {
                self.try_speculative(j, now)
            };
            // Recompute the chosen row (even on failure: pruned
            // candidates shrink runnable work) so the held total, the
            // eligible set and the bind phase below see current values.
            self.refresh_row(&mut t, chosen, shared_mult);
            if !launched {
                break;
            }
            launched_any = true;
        }
        // Pre-warm held slots: bind idle slots to their holders now so the
        // anticipated speculative copy starts without the hand-off cost —
        // the physical payoff of reservation (Figure 2).
        #[cfg(debug_assertions)]
        let before = {
            let p = self.prewarm.passes;
            (p < 64 || p.is_multiple_of(64)).then(|| self.machines.clone())
        };
        self.prewarm += self.machines.bind_holds(&t.rows);
        #[cfg(debug_assertions)]
        if let Some(before) = before {
            self.assert_holds_match_per_row(before, &t.rows);
        }
        self.table = Some(t);
        launched_any
    }

    /// Bring the row table up to date for a pass: replay the allocator's
    /// order edits, then recompute the rows of the jobs whose grant moved
    /// (allocator feed), whose usage or runnable work moved
    /// ([`Self::mark_ready`]), or whose anticipation can have changed
    /// with the shared multiplier (threshold index). A first pass, or an
    /// allocator re-sort, rebuilds every row instead.
    fn sync_rows(&mut self, t: &mut RowTable, shared_mult: Option<f64>) {
        if self.alloc.take_changes(&mut t.edits, &mut t.moved) || !t.built {
            self.rebuild_rows(t, shared_mult);
            return;
        }
        for i in 0..t.edits.len() {
            t.apply(t.edits[i]);
        }
        for i in 0..t.moved.len() {
            t.touch(t.moved[i]);
        }
        // A moved multiplier: recompute the rows whose hold interval it
        // left (queued rows are recomputed below anyway).
        if let Some(m) = shared_mult {
            if t.mult.map(f64::to_bits) != Some(m.to_bits()) {
                for pos in 0..t.rows.len() {
                    if !t.valid[pos].contains(m) && !t.is_touched(t.rows[pos].0) {
                        self.refresh_row(t, pos, shared_mult);
                        t.counters.refreshed += 1;
                    }
                }
            }
        }
        t.mult = shared_mult;
        t.take_dirty();
        for i in 0..t.taken.len() {
            // Completed jobs left the order (their row with them).
            if let Some(pos) = self.alloc.position(t.taken[i]) {
                self.refresh_row(t, pos, shared_mult);
                t.counters.refreshed += 1;
            }
        }
    }

    /// Rebuild every row from the allocation order — the from-scratch
    /// table the incremental sync must reproduce.
    fn rebuild_rows(&mut self, t: &mut RowTable, shared_mult: Option<f64>) {
        t.take_dirty();
        t.rows.clear();
        t.targets.clear();
        t.valid.clear();
        t.elig.clear();
        t.held = 0;
        for (_, j) in self.alloc.order() {
            t.rows.push((j, 0));
            t.targets.push(0);
            t.valid.push(Interval::ALL);
            t.elig.push(false);
        }
        for pos in 0..t.rows.len() {
            self.refresh_row(t, pos, shared_mult);
        }
        t.mult = shared_mult;
        t.built = true;
        t.counters.rebuilds += 1;
        t.counters.refreshed += t.rows.len() as u64;
    }

    /// Recompute row `pos` from the job's current grant, usage and
    /// runnable work, keeping the held total, the eligible set and the
    /// row's hold interval in step.
    fn refresh_row(&self, t: &mut RowTable, pos: usize, shared_mult: Option<f64>) {
        let j = t.rows[pos].0;
        let target = self.alloc.granted(j);
        let hold = self.hold_quota(j, target, shared_mult);
        t.held = t.held - t.rows[pos].1 + hold;
        t.rows[pos].1 = hold;
        t.targets[pos] = target;
        let usage = self.usage[j];
        let runnable = self.runnable(j);
        t.elig.set(pos, usage < target && runnable > 0);
        // The hold is min(headroom, ⌈(m−1)·usage⌉) when headroom > 0,
        // else 0: it moves with m only with headroom and running copies.
        let headroom = target.saturating_sub(usage).saturating_sub(runnable);
        t.valid[pos] = match shared_mult {
            Some(m) if headroom > 0 && usage > 0 => {
                let u = usage as f64;
                let (level, valid) = hopper_core::level_interval(
                    m,
                    headroom,
                    |m| hopper_core::ceil_usize((m - 1.0) * u),
                    |k| 1.0 + k as f64 / u,
                );
                debug_assert_eq!(level, hold);
                valid
            }
            _ => Interval::ALL,
        };
    }

    /// Debug-only shadow check of the persistent row table: the rows,
    /// targets, eligible set and held total must equal a from-scratch
    /// build over the allocation order.
    #[cfg(debug_assertions)]
    fn assert_rows_match_rebuild(&self, t: &RowTable, shared_mult: Option<f64>) {
        let mut held = 0usize;
        let mut rows = Vec::new();
        let mut targets = Vec::new();
        let mut elig = crate::rows::RowBits::default();
        for (_, j) in self.alloc.order() {
            let target = self.alloc.granted(j);
            let hold = self.hold_quota(j, target, shared_mult);
            held += hold;
            elig.push(self.usage[j] < target && self.runnable(j) > 0);
            rows.push((j, hold));
            targets.push(target);
        }
        assert_eq!(t.rows, rows, "row table drifted from a rebuild");
        assert_eq!(t.targets, targets, "row targets drifted from a rebuild");
        assert_eq!(t.held, held, "held total drifted from a rebuild");
        assert_eq!(t.elig, elig, "eligible rows drifted from a rebuild");
    }

    /// Debug-build shadow check of the batched pre-warm: replay the
    /// per-row `bind_idle` loop it replaces on `before` (the machines as
    /// the pass found them) and require the same state. Sampled — every
    /// pass of a run's first 64, then every 64th — because the clone and
    /// the replay are O(machines).
    #[cfg(debug_assertions)]
    fn assert_holds_match_per_row(&self, mut before: Machines, rows: &[(usize, usize)]) {
        for &(j, hold) in rows {
            let have = before.warm_total(j);
            if hold > have {
                before.bind_idle(j, hold - have);
            }
        }
        assert!(
            before == self.machines,
            "batched pre-warm drifted from the per-row bind_idle loop"
        );
    }

    /// Slots job `j` may hold idle in anticipation of speculation: the
    /// allocation headroom beyond usage and immediately-runnable work,
    /// capped at `(2/β − 1) ×` its running copies — the share of the
    /// virtual size that exists *for* speculation (in Figure 2 job A holds
    /// exactly ⌈0.25 × 4⌉ = 1 slot). Unbounded holding would idle capacity
    /// other jobs could use, costing more than prompt speculation saves.
    /// `shared_mult` is the hoisted learned-β multiplier (identical for
    /// every job when β is learned); `None` falls back to the job's own
    /// spec β.
    fn hold_quota(&self, j: usize, target: usize, shared_mult: Option<f64>) -> usize {
        let headroom = target
            .saturating_sub(self.usage[j])
            .saturating_sub(self.runnable(j));
        if headroom == 0 {
            return 0;
        }
        let mult = shared_mult
            .unwrap_or_else(|| hopper_core::speculation_multiplier(self.jobs[j].spec.beta));
        let anticipation = hopper_core::ceil_usize((mult - 1.0) * self.usage[j] as f64);
        headroom.min(anticipation)
    }

    /// Whether `j`'s next original launch would be data-local on some
    /// currently free machine. O(replica machines with pending work), via
    /// the job's inverted replica index, instead of O(free machines ×
    /// tasks).
    fn would_launch_local(&self, j: usize) -> bool {
        if self.pending_orig[j] == 0 {
            return false; // speculative copies have no locality preference
        }
        let indexed = self.jobs[j]
            .machines_with_local_pending()
            .any(|m| self.machines.free_on(m) > 0);
        debug_assert_eq!(
            indexed,
            self.machines
                .machines_with_free()
                .any(|m| self.jobs[j].has_local_task_for(m)),
            "locality index disagrees with the free-machine scan"
        );
        indexed
    }

    /// Hand-off delay for a cold slot.
    fn handoff_delay(&self, temp: hopper_cluster::machine::SlotTemp) -> SimTime {
        match temp {
            hopper_cluster::machine::SlotTemp::Warm => SimTime::ZERO,
            hopper_cluster::machine::SlotTemp::Cold => {
                SimTime::from_millis(self.cfg.cluster.handoff_ms)
            }
        }
    }

    /// Launch the next pending original of job `j`, preferring a machine
    /// that makes it data-local. Returns false when nothing could launch.
    ///
    /// The locality probe replaces the old "every free machine ×
    /// `next_task_for`" sweep: when the job has a replica-free pending
    /// task the first free machine already wins (the old scan returned
    /// `local = true` there), otherwise the smallest-id machine that is
    /// both free and in the job's replica index is exactly the machine the
    /// ascending free-machine scan would have stopped at.
    fn launch_original(&mut self, j: usize, now: SimTime) -> bool {
        let mut pick: Option<(TaskRef, MachineId)> = None;
        if self.jobs[j].has_pending_no_replica() {
            if let Some(m) = self.machines.machines_with_free().next() {
                if let Some((task, true)) = self.jobs[j].next_task_for(Some(m)) {
                    pick = Some((task, m));
                }
            }
        } else if let Some(m) = self.jobs[j]
            .machines_with_local_pending()
            .find(|&m| self.machines.free_on(m) > 0)
        {
            let task = self.jobs[j]
                .first_local_pending(m)
                .expect("indexed machine has pending local work");
            pick = Some((task, m));
        }
        #[cfg(debug_assertions)]
        {
            let mut scanned: Option<(TaskRef, MachineId)> = None;
            for m in self.machines.machines_with_free() {
                if let Some((task, true)) = self.jobs[j].next_task_for(Some(m)) {
                    scanned = Some((task, m));
                    break;
                }
            }
            assert_eq!(pick, scanned, "local launch pick drifted from scan");
        }
        if pick.is_none() {
            if let Some(m) = self.machines.preferred_free_machine(j, &[]) {
                if let Some((task, _)) = self.jobs[j].next_task_for(Some(m)) {
                    pick = Some((task, m));
                }
            }
        }
        let Some((task, m)) = pick else { return false };
        let temp = self.machines.occupy_for(m, j);
        let delay = self.handoff_delay(temp);
        let speed = self.machine_speed(m);
        let (copy, dur) =
            self.jobs[j].launch_copy_at_speed(task, m, false, now, delay, &mut self.rng, speed);
        self.queue
            .push(now + delay + dur, Event::Finish { job: j, copy });
        self.usage[j] += 1;
        self.pending_orig[j] -= 1;
        self.orig_running += 1;
        self.stats.orig_launched += 1;
        true
    }

    /// Launch the best valid speculation candidate of job `j`.
    /// Returns false when no valid candidate (stale entries are pruned —
    /// `pop_front` on the deque, not a `Vec::remove(0)` shift).
    fn try_speculative(&mut self, j: usize, now: SimTime) -> bool {
        while let Some(cand) = self.candidates[j].front().copied() {
            let t = &self.jobs[j].phases()[cand.task.phase].tasks[cand.task.task];
            let running = t.running_copies();
            if t.is_finished() || running == 0 || running >= MAX_RUNNING_COPIES {
                self.candidates[j].pop_front();
                continue;
            }
            // Prefer a machine not already running a copy of this task;
            // the guard above leaves fewer than MAX_RUNNING_COPIES.
            let mut busy = [MachineId(0); MAX_RUNNING_COPIES - 1];
            for (b, c) in busy.iter_mut().zip(
                self.jobs[j]
                    .copies(cand.task)
                    .filter(|c| c.status == hopper_cluster::CopyStatus::Running),
            ) {
                *b = c.machine;
            }
            let Some(m) = self.machines.preferred_free_machine(j, &busy[..running]) else {
                return false;
            };
            let temp = self.machines.occupy_for(m, j);
            let delay = self.handoff_delay(temp);
            let speed = self.machine_speed(m);
            let (copy, dur) = self.jobs[j].launch_copy_at_speed(
                cand.task,
                m,
                true,
                now,
                delay,
                &mut self.rng,
                speed,
            );
            if delay == SimTime::ZERO {
                self.stats.spec_warm += 1;
            }
            self.stats.spec_handoff_ms += delay.as_millis();
            self.queue
                .push(now + delay + dur, Event::Finish { job: j, copy });
            self.usage[j] += 1;
            self.stats.spec_launched += 1;
            self.candidates[j].pop_front();
            return true;
        }
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::policy::HopperConfig;
    use crate::scenario::{motivating_sim_config, motivating_trace};
    use hopper_workload::{TraceGenerator, WorkloadProfile};

    fn dur(out: &RunOutput, job: usize) -> u64 {
        out.jobs
            .iter()
            .find(|r| r.job == job)
            .unwrap()
            .duration_ms()
    }

    /// Figure 1a: SRPT + best-effort speculation → A = 20 s, B = 30 s.
    #[test]
    fn motivating_example_best_effort_srpt() {
        let (trace, _) = motivating_trace();
        let out = run(&trace, &Policy::Srpt, &motivating_sim_config());
        assert_eq!(dur(&out, 0), 20_000, "job A (Figure 1a)");
        assert_eq!(dur(&out, 1), 30_000, "job B (Figure 1a)");
    }

    /// Figure 1b: SRPT + a 3-slot speculation budget → A = 12 s, B = 32 s.
    #[test]
    fn motivating_example_budgeted() {
        let (trace, _) = motivating_trace();
        let out = run(
            &trace,
            &Policy::BudgetedSrpt {
                budget_fraction: 3.0 / 7.0,
            },
            &motivating_sim_config(),
        );
        assert_eq!(dur(&out, 0), 12_000, "job A (Figure 1b)");
        assert_eq!(dur(&out, 1), 32_000, "job B (Figure 1b)");
    }

    /// Figure 2: Hopper's coordinated allocation → A = 12 s, B = 22 s.
    #[test]
    fn motivating_example_hopper() {
        let (trace, _) = motivating_trace();
        let out = run(
            &trace,
            &Policy::Hopper(HopperConfig::pure()),
            &motivating_sim_config(),
        );
        assert_eq!(dur(&out, 0), 12_000, "job A (Figure 2)");
        assert_eq!(dur(&out, 1), 22_000, "job B (Figure 2)");
    }

    /// Hopper's average beats both strawmen on the example (25 and 22 vs 17).
    #[test]
    fn motivating_example_hopper_wins_on_average() {
        let (trace, _) = motivating_trace();
        let cfg = motivating_sim_config();
        let srpt = run(&trace, &Policy::Srpt, &cfg).mean_duration_ms();
        let budgeted = run(
            &trace,
            &Policy::BudgetedSrpt {
                budget_fraction: 3.0 / 7.0,
            },
            &cfg,
        )
        .mean_duration_ms();
        let hopper = run(&trace, &Policy::Hopper(HopperConfig::pure()), &cfg).mean_duration_ms();
        assert!(hopper < srpt && hopper < budgeted);
        assert_eq!(hopper, 17_000.0);
    }

    fn small_trace(seed: u64, n: usize, util: f64, slots: usize) -> Trace {
        let profile = WorkloadProfile::facebook().single_phase();
        TraceGenerator::new(profile, n, seed).generate_with_utilization(slots, util)
    }

    fn small_cfg(seed: u64) -> SimConfig {
        SimConfig {
            cluster: ClusterConfig {
                machines: 25,
                slots_per_machine: 4,
                ..Default::default()
            },
            scan_interval: SimTime::from_millis(2_000),
            seed,
            ..Default::default()
        }
    }

    #[test]
    fn stochastic_run_is_deterministic() {
        let trace = small_trace(3, 40, 0.7, 100);
        let cfg = small_cfg(9);
        let a = run(&trace, &Policy::Hopper(HopperConfig::default()), &cfg);
        let b = run(&trace, &Policy::Hopper(HopperConfig::default()), &cfg);
        assert_eq!(a.jobs.len(), b.jobs.len());
        for (x, y) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(x.completed, y.completed);
        }
        assert_eq!(a.stats.spec_launched, b.stats.spec_launched);
        assert_eq!(a.stats.events, b.stats.events);
    }

    #[test]
    fn all_jobs_complete_under_every_policy() {
        let trace = small_trace(5, 30, 0.8, 100);
        let cfg = small_cfg(5);
        for policy in [
            Policy::Fifo,
            Policy::Fair,
            Policy::Srpt,
            Policy::BudgetedSrpt {
                budget_fraction: 0.2,
            },
            Policy::Hopper(HopperConfig::default()),
        ] {
            let out = run(&trace, &policy, &cfg);
            assert_eq!(out.jobs.len(), trace.len(), "policy {}", policy.name());
            assert!(out.stats.makespan > SimTime::ZERO);
        }
    }

    /// The pre-warm work counters are exact per seed, count real work
    /// under Hopper, and stay zero for policies that hold no slots.
    #[test]
    fn prewarm_counters_are_deterministic_and_hopper_only() {
        let trace = small_trace(5, 30, 0.8, 100);
        let cfg = small_cfg(5);
        let hopper = Policy::Hopper(HopperConfig::default());
        let a = run(&trace, &hopper, &cfg).prewarm_counters;
        assert_eq!(a, run(&trace, &hopper, &cfg).prewarm_counters);
        assert!(
            a.passes > 0 && a.deficit_rows > 0 && a.machines_visited > 0,
            "{a:?}"
        );
        for policy in [Policy::Fifo, Policy::Fair, Policy::Srpt] {
            let out = run(&trace, &policy, &cfg);
            assert_eq!(
                out.prewarm_counters,
                PrewarmCounters::default(),
                "policy {}",
                policy.name()
            );
        }
    }

    #[test]
    fn hopper_beats_srpt_on_heavy_tailed_load() {
        // The paper's headline: coordinating speculation with scheduling
        // beats SRPT + best-effort LATE. High utilization, heavy tails,
        // averaged over seeds (single runs are noisy on small clusters).
        let mut srpt = 0.0;
        let mut hopper = 0.0;
        for seed in 0..3u64 {
            let mut profile = WorkloadProfile::facebook().single_phase();
            profile.beta_range = (1.2, 1.4);
            let trace = TraceGenerator::new(profile, 200, seed).generate_with_utilization(200, 0.8);
            let cfg = SimConfig {
                cluster: ClusterConfig {
                    machines: 50,
                    slots_per_machine: 4,
                    ..Default::default()
                },
                scan_interval: SimTime::from_millis(500),
                seed,
                ..Default::default()
            };
            srpt += run(&trace, &Policy::Srpt, &cfg).mean_duration_ms();
            hopper +=
                run(&trace, &Policy::Hopper(HopperConfig::default()), &cfg).mean_duration_ms();
        }
        assert!(
            hopper < srpt,
            "hopper {hopper:.0} should beat srpt {srpt:.0} on average"
        );
    }

    #[test]
    fn speculation_actually_happens_and_wins_sometimes() {
        let trace = small_trace(13, 40, 0.6, 100);
        let cfg = small_cfg(13);
        let out = run(&trace, &Policy::Hopper(HopperConfig::default()), &cfg);
        assert!(out.stats.spec_launched > 0, "no speculation at all");
        assert!(out.stats.spec_won > 0, "speculation never won a race");
        assert!(out.stats.spec_won <= out.stats.spec_launched);
    }

    /// A lone 30 s straggler (10 s copies) on four free slots that all
    /// run at quarter speed: Hopper grants the job spare slots, and the
    /// speculative copy (40 s wall) still leaves more than a fresh copy's
    /// 10 s to go at every later scan, so only the copy limit keeps a
    /// third copy out. The one speculative copy wins at 2 + 40 s.
    #[test]
    fn lone_straggler_gets_one_speculative_copy() {
        let trace = Trace::new(vec![hopper_workload::single_phase_job(
            0,
            SimTime::ZERO,
            vec![SimTime::from_millis(30_000)],
            1.6,
        )]);
        let cfg = SimConfig {
            cluster: ClusterConfig {
                machines: 4,
                slots_per_machine: 1,
                dfs_replicas: 0,
                handoff_ms: 0,
            },
            scripted: Some(vec![vec![(30_000, 10_000)]]),
            dynamics: DynamicsConfig {
                hetero: hopper_cluster::HeteroProfile::Uniform { lo: 0.25, hi: 0.25 },
                ..DynamicsConfig::off()
            },
            ..motivating_sim_config()
        };
        let out = run(&trace, &Policy::Hopper(HopperConfig::pure()), &cfg);
        assert_eq!(out.stats.spec_launched, 1);
        assert_eq!(out.stats.spec_won, 1);
        assert_eq!(dur(&out, 0), 42_000);
    }

    #[test]
    fn regime_accounting_covers_all_jobs_once() {
        let trace = small_trace(17, 50, 0.8, 100);
        let cfg = small_cfg(17);
        let out = run(&trace, &Policy::Hopper(HopperConfig::default()), &cfg);
        assert_eq!(
            out.stats.constrained_jobs + out.stats.proportional_jobs,
            trace.len() as u64
        );
    }

    #[test]
    fn learning_stats_populated() {
        let trace = small_trace(19, 40, 0.7, 100);
        let cfg = small_cfg(19);
        let out = run(&trace, &Policy::Hopper(HopperConfig::default()), &cfg);
        let beta = out.stats.final_beta.expect("beta learned");
        assert!(beta > 1.0 && beta < 2.5, "beta {beta}");
        assert!(out.stats.locality_fraction.is_some());
    }

    #[test]
    fn fair_policy_is_fair_between_identical_jobs() {
        // Two identical jobs arriving together under Fair should finish
        // within a small factor of each other.
        use hopper_workload::single_phase_job;
        let works: Vec<SimTime> = vec![SimTime::from_millis(5_000); 40];
        let trace = Trace::new(vec![
            single_phase_job(0, SimTime::ZERO, works.clone(), 1.5),
            single_phase_job(1, SimTime::ZERO, works, 1.5),
        ]);
        let cfg = small_cfg(23);
        let out = run(&trace, &Policy::Fair, &cfg);
        let d0 = dur(&out, 0) as f64;
        let d1 = dur(&out, 1) as f64;
        assert!((d0 / d1 - 1.0).abs() < 0.35, "unfair: {d0} vs {d1}");
    }

    #[test]
    fn fifo_strictly_prefers_earlier_jobs() {
        use hopper_workload::single_phase_job;
        // Big job arrives first and hogs the cluster; FIFO must finish it
        // no later than the later small job would allow under SRPT.
        let trace = Trace::new(vec![
            single_phase_job(
                0,
                SimTime::ZERO,
                vec![SimTime::from_millis(20_000); 200],
                1.5,
            ),
            single_phase_job(
                1,
                SimTime::from_millis(1),
                vec![SimTime::from_millis(20_000); 4],
                1.5,
            ),
        ]);
        let cfg = small_cfg(29);
        let fifo = run(&trace, &Policy::Fifo, &cfg);
        let srpt = run(&trace, &Policy::Srpt, &cfg);
        // Under SRPT the small job preempts the queue and finishes earlier
        // than under FIFO.
        assert!(dur(&srpt, 1) <= dur(&fifo, 1));
    }

    #[test]
    fn empty_trace_runs() {
        let out = run(&Trace::default(), &Policy::Srpt, &small_cfg(1));
        assert!(out.jobs.is_empty());
        assert_eq!(out.stats.events, 0);
    }

    #[test]
    fn epsilon_fairness_bounds_slowdowns() {
        // Versus a perfectly fair Hopper (ε = 0), ε = 0.1 should slow only
        // a small fraction of jobs (Figure 10b: ≤ ~4%); we allow slack for
        // the small sample.
        let trace = small_trace(31, 60, 0.7, 100);
        let cfg = small_cfg(31);
        let fair = run(
            &trace,
            &Policy::Hopper(HopperConfig {
                alloc: hopper_core::AllocConfig { fairness_eps: 0.0 },
                ..Default::default()
            }),
            &cfg,
        );
        let eps10 = run(&trace, &Policy::Hopper(HopperConfig::default()), &cfg);
        let cdf = hopper_metrics::GainCdf::between(&fair.jobs, &eps10.jobs);
        // Divergent event interleavings make small per-job deltas noisy;
        // the meaningful claim is that *severe* slowdowns stay rare and
        // the average does not regress.
        let severely_slowed =
            cdf.gains.iter().filter(|&&g| g < -30.0).count() as f64 / cdf.gains.len() as f64;
        assert!(
            severely_slowed < 0.25,
            "too many severely slowed jobs: {severely_slowed}"
        );
        assert!(
            eps10.mean_duration_ms() < fair.mean_duration_ms() * 1.15,
            "ε=10% should not regress the mean materially"
        );
    }
}
