//! Runtime state of jobs: phases, tasks, and execution copies.
//!
//! This module owns the execution semantics shared by both schedulers:
//!
//! - **Straggler model.** Each launched copy draws an i.i.d. duration
//!   `work × X`, `X ~` unit-mean Pareto(β of the job) — the paper's own
//!   analytic model (\[8\]); heavy-tail draws *are* the stragglers. A
//!   speculative copy redraws `X` (different machine, fresh conditions),
//!   which is why speculation helps.
//! - **Race semantics.** The first copy of a task to finish wins; all
//!   other running copies are killed at that instant and their slots
//!   freed (paper §2.2, footnote 1: both run "until the first completes").
//! - **Locality.** Input-phase tasks carry a replica set; running
//!   elsewhere multiplies the duration by the remote-read penalty.
//! - **DAG + shuffle.** A downstream phase becomes eligible when every
//!   task of its upstream phases has finished (a strict barrier); its
//!   tasks' durations include the per-task intermediate-data transfer
//!   time, which also feeds the job's α (remaining transfer vs remaining
//!   compute, §4.2).

use std::collections::{BTreeMap, BTreeSet};

use hopper_core::alpha_from_work;
use hopper_sim::SimTime;
use hopper_workload::{Dist, TraceJob, TracePhase};
use rand::rngs::StdRng;
use rand::Rng;

use crate::ids::{CopyRef, MachineId, TaskRef};
use crate::machine::ClusterConfig;

/// Lifecycle of one execution copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CopyStatus {
    /// Occupying a slot.
    Running,
    /// Finished first and won the race.
    Finished,
    /// Killed because a sibling finished first.
    Killed,
}

/// One execution copy of a task.
#[derive(Debug, Clone)]
pub struct Copy {
    /// Machine the copy runs on.
    pub machine: MachineId,
    /// Launch time.
    pub start: SimTime,
    /// Total duration the copy would take if never killed. Schedulers and
    /// speculation policies must not read this directly; they see elapsed
    /// time and progress through [`CopyObservation`].
    pub duration: SimTime,
    /// Current status.
    pub status: CopyStatus,
    /// True if this is a speculative (non-first) copy.
    pub speculative: bool,
    /// Whether the copy reads its input locally.
    pub local: bool,
}

impl Copy {
    /// Completion instant if the copy runs to completion.
    pub fn finish_time(&self) -> SimTime {
        self.start + self.duration
    }
}

/// Fixed durations for scripted scenarios (the §3 motivating example):
/// originals take `original`, every speculative copy takes `speculative`.
#[derive(Debug, Clone, Copy)]
pub struct ScriptedTask {
    /// Duration of the original copy.
    pub original: SimTime,
    /// Duration of any speculative copy.
    pub speculative: SimTime,
}

/// Runtime state of one task.
#[derive(Debug, Clone)]
pub struct TaskRun {
    /// Nominal compute work (expected duration net of transfer/locality).
    pub work: SimTime,
    /// Machines holding this task's input (empty = no preference).
    pub replicas: Vec<MachineId>,
    /// Scripted durations override the stochastic model when present.
    pub scripted: Option<ScriptedTask>,
    /// All copies launched so far (index = copy id).
    pub copies: Vec<Copy>,
    /// When the task finished (first copy completion).
    pub finished_at: Option<SimTime>,
    /// Maintained count of copies in [`CopyStatus::Running`] (kept in sync
    /// by [`JobRun::launch_copy`] / [`JobRun::finish_copy`]).
    running: u32,
}

impl TaskRun {
    /// Whether the task has finished.
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Whether any copy has been launched.
    pub fn is_launched(&self) -> bool {
        !self.copies.is_empty()
    }

    /// Whether the task needs an original (re-)dispatched: unfinished
    /// with nothing currently running. True before the first launch and
    /// again after a machine failure killed its last running copy —
    /// without failures this is exactly `!is_launched() && !is_finished()`
    /// (a launched, unfinished task always has a running copy, since race
    /// kills only happen at task completion).
    pub fn needs_original(&self) -> bool {
        self.finished_at.is_none() && self.running == 0
    }

    /// Ground-truth form of [`TaskRun::needs_original`] by copy-status
    /// scan (the `scan_*` oracle family).
    fn scan_needs_original(&self) -> bool {
        self.finished_at.is_none() && self.scan_running_copies() == 0
    }

    /// Number of currently running copies (O(1); counter maintained by the
    /// launch / finish transitions).
    pub fn running_copies(&self) -> usize {
        debug_assert_eq!(self.running as usize, self.scan_running_copies());
        self.running as usize
    }

    /// Ground-truth running-copy count by scanning copy statuses (the
    /// pre-index implementation; retained as the cross-check oracle).
    fn scan_running_copies(&self) -> usize {
        self.copies
            .iter()
            .filter(|c| c.status == CopyStatus::Running)
            .count()
    }
}

/// Runtime state of one phase.
#[derive(Debug, Clone)]
pub struct PhaseRun {
    /// The static description this phase was built from.
    pub spec: TracePhase,
    /// Task states (same length as `spec.task_works`).
    pub tasks: Vec<TaskRun>,
    /// Finished task count.
    pub finished: usize,
    /// Whether tasks of this phase may be launched yet.
    pub eligible: bool,
    /// Shuffle transfer time included in every task of this phase
    /// (upstream output volume divided over this phase's tasks), ms.
    pub transfer_ms_per_task: f64,
    /// Sum of completed copy durations (for observed-duration stats).
    pub completed_duration_sum_ms: u64,
    /// Count of completed copies.
    pub completed_duration_count: u64,
}

impl PhaseRun {
    /// Number of tasks.
    pub fn num_tasks(&self) -> usize {
        self.tasks.len()
    }

    /// Whether all tasks have finished.
    pub fn is_complete(&self) -> bool {
        self.finished == self.tasks.len()
    }

    /// Unfinished task count.
    pub fn remaining(&self) -> usize {
        self.tasks.len() - self.finished
    }

    /// Mean duration of completed copies in this phase, if any completed.
    pub fn mean_completed_duration(&self) -> Option<SimTime> {
        (self.completed_duration_count > 0).then(|| {
            SimTime::from_millis(self.completed_duration_sum_ms / self.completed_duration_count)
        })
    }

    /// Effective nominal duration of task `i` (compute + transfer), before
    /// the straggler multiplier.
    pub fn effective_work(&self, i: usize) -> SimTime {
        self.tasks[i].work + SimTime::from_millis(self.transfer_ms_per_task as u64)
    }
}

/// What a finished copy did to the job (returned by [`JobRun::finish_copy`]).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishOutcome {
    /// Machines whose slots freed: the finishing copy's machine plus one
    /// entry per killed sibling copy.
    pub freed: Vec<MachineId>,
    /// The completed copy's total duration (for β estimation: duration
    /// divided by nominal work is the straggler multiplier).
    pub duration: SimTime,
    /// Nominal (effective) work of the task, for duration normalization.
    pub nominal: SimTime,
    /// Whether the whole phase completed with this task.
    pub phase_done: bool,
    /// Phases that just became eligible (every upstream task finished).
    pub newly_eligible: Vec<usize>,
    /// Whether the whole job completed.
    pub job_done: bool,
}

/// What a machine failure did to one job (returned by
/// [`JobRun::fail_machine`]): how many running copies died with the
/// machine and which tasks went back to the pending pool.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FailOutcome {
    /// Running copies killed on the failed machine.
    pub killed: usize,
    /// Of those, speculative copies.
    pub killed_spec: usize,
    /// Tasks whose last running copy died: pending again, in
    /// `(phase, task)` order.
    pub requeued: Vec<TaskRef>,
}

/// What losing one running copy did to its task (returned by
/// [`JobRun::lose_copy`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CopyLoss {
    /// The task's last running copy died: it is pending again.
    pub requeued: bool,
    /// The lost copy was speculative.
    pub speculative: bool,
}

/// The wall-clock duration of a unit-speed `duration` on a machine
/// running at `speed`: divided by the speed, at least 1 ms. Speed 1.0
/// returns `duration` untouched (`scale` re-rounds even at factor 1.0),
/// which keeps the homogeneous path bit-identical.
pub fn duration_at_speed(duration: SimTime, speed: f64) -> SimTime {
    debug_assert!(speed > 0.0 && speed.is_finite(), "bad machine speed");
    if speed == 1.0 {
        duration
    } else {
        duration.scale(1.0 / speed).max(SimTime::from_millis(1))
    }
}

/// A running copy's new finish instant after its machine's speed changed
/// at `now` by `ratio` (old speed / new speed). The remaining time
/// stretches by `ratio`, re-anchored at `now`; a copy that has not
/// started yet (`start >= now`) stretches its whole duration. Every
/// stretched span is at least 1 ms. `None` when the finish stays: the
/// copy is due at this very instant (it lands unchanged), or rounding
/// left it where it was.
pub fn rescaled_finish(
    start: SimTime,
    finish: SimTime,
    now: SimTime,
    ratio: f64,
) -> Option<SimTime> {
    debug_assert!(ratio > 0.0 && ratio.is_finite(), "bad rescale ratio");
    let stretch = |span: SimTime| {
        SimTime::from_millis(((span.as_millis() as f64 * ratio).round() as u64).max(1))
    };
    let new = if start >= now {
        start + stretch(finish - start)
    } else {
        let rem = finish.saturating_sub(now);
        if rem == SimTime::ZERO {
            return None;
        }
        now + stretch(rem)
    };
    (new != finish).then_some(new)
}

/// A scheduler-visible view of one running copy (progress observation).
///
/// `est_remaining_ms` is derived from the copy's progress rate the way
/// LATE does it (progress / elapsed extrapolated to 1.0) — in this
/// execution model progress is linear in time, so the estimate equals
/// duration − elapsed.
#[derive(Debug, Clone, Copy)]
pub struct CopyObservation {
    /// Which copy.
    pub copy: CopyRef,
    /// Machine it runs on.
    pub machine: MachineId,
    /// Time since launch.
    pub elapsed: SimTime,
    /// Progress fraction in [0, 1).
    pub progress: f64,
    /// Progress-rate-extrapolated remaining time.
    pub est_remaining: SimTime,
    /// Whether this copy is speculative.
    pub speculative: bool,
}

/// Incremental indices over a job's phase/task state.
///
/// Pure caches: every field is derivable by a full scan (the `scan_*`
/// methods on [`JobRun`]), and `debug_assert!` cross-checks re-run those
/// scans after every state transition in debug builds (all of `cargo
/// test`). The counters turn the per-event O(tasks) queries of both
/// drivers into O(1) reads; the `BTreeMap`/`BTreeSet` structures iterate
/// in ascending `(phase, task)` / machine order, which is exactly the
/// order the replaced scans visited, so tie-breaking is bit-identical.
/// See DESIGN.md, "Index invariants".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct JobIndex {
    /// Remaining tasks in eligible phases — `current_remaining()`.
    current_remaining: usize,
    /// Remaining tasks across all phases — `total_remaining()`.
    total_remaining: usize,
    /// Unlaunched originals in eligible phases — `pending_originals()`.
    pending_originals: usize,
    /// Running copies across the job — `occupied_slots()`.
    running_copies: usize,
    /// Exact integer sum of unfinished tasks' nominal work (ms) in
    /// eligible phases — the compute term of `alpha()`. Integer so that
    /// incremental updates reproduce the old f64 scan bit-for-bit (task
    /// works are integral millis and job totals stay far below 2^53).
    remaining_compute_ms: u64,
    /// Index of the first not-yet-eligible phase — `downstream_remaining()`
    /// and the transfer term of `alpha()`.
    first_ineligible: Option<usize>,
    /// Pending (unlaunched, unfinished, eligible-phase) tasks.
    pending: BTreeSet<TaskRef>,
    /// Pending tasks with an empty replica set (no locality preference).
    pending_no_replica: BTreeSet<TaskRef>,
    /// Inverted replica index: machine → pending tasks with a replica
    /// there. Sets are non-empty by invariant (emptied entries removed).
    pending_local: BTreeMap<MachineId, BTreeSet<TaskRef>>,
    /// Running copies on tasks with *exactly one* running copy, keyed by
    /// the copy's completion instant — the candidate set of
    /// `best_extra_speculation`.
    solo_running: BTreeSet<(SimTime, TaskRef)>,
}

/// Runtime state of a job.
#[derive(Debug, Clone)]
pub struct JobRun {
    /// Trace identifier.
    pub id: usize,
    /// The static job description.
    pub spec: TraceJob,
    /// Phase states (same order as `spec.phases`). Crate-private: every
    /// index in [`JobIndex`] is a pure cache over this state, so outside
    /// mutation must flow through the maintained transitions
    /// ([`JobRun::launch_copy`] / [`JobRun::finish_copy`]) or through the
    /// rebuild-on-write mutators ([`JobRun::script_single_phase`],
    /// [`JobRun::set_replicas`]). Read access is [`JobRun::phases`].
    pub(crate) phases: Vec<PhaseRun>,
    /// Completion time, set when the last phase finishes.
    pub completed_at: Option<SimTime>,
    /// Scheduler-estimated α (set by drivers from the online estimator);
    /// when `None`, [`JobRun::alpha`] computes the ground-truth value.
    pub alpha_override: Option<f64>,
    /// Scheduler-estimated β (defaults to the spec value; drivers may
    /// substitute the online estimate).
    pub beta_estimate: f64,
    /// Local / non-local launch counters for input-phase tasks (Figure 13).
    pub local_launches: usize,
    /// Non-local input-phase launches.
    pub nonlocal_launches: usize,
    /// Incremental indices (pure caches; see [`JobIndex`]).
    idx: JobIndex,
}

impl JobRun {
    /// Instantiate runtime state for `spec` on a cluster, assigning DFS
    /// replicas for input-phase tasks from `rng`.
    pub fn new(spec: TraceJob, cfg: &ClusterConfig, rng: &mut StdRng) -> Self {
        let mut phases: Vec<PhaseRun> = Vec::with_capacity(spec.phases.len());
        for (pi, p) in spec.phases.iter().enumerate() {
            // Shuffle volume arriving at this phase: every upstream task's
            // output, divided across this phase's tasks.
            let upstream_mb: f64 = p
                .upstream
                .iter()
                .map(|&u| spec.phases[u].output_mb_per_task * spec.phases[u].num_tasks() as f64)
                .sum();
            let transfer_ms_per_task = if p.num_tasks() > 0 {
                cfg.transfer_ms(upstream_mb / p.num_tasks() as f64)
            } else {
                0.0
            };
            let tasks = p
                .task_works
                .iter()
                .map(|&w| TaskRun {
                    work: w,
                    replicas: if p.reads_dfs_input && cfg.machines > 0 {
                        sample_replicas(cfg, rng)
                    } else {
                        Vec::new()
                    },
                    scripted: None,
                    copies: Vec::new(),
                    finished_at: None,
                    running: 0,
                })
                .collect();
            phases.push(PhaseRun {
                spec: p.clone(),
                tasks,
                finished: 0,
                eligible: pi == 0 || p.upstream.is_empty(),
                transfer_ms_per_task,
                completed_duration_sum_ms: 0,
                completed_duration_count: 0,
            });
        }
        let beta = spec.beta;
        let mut job = JobRun {
            id: spec.id,
            spec,
            phases,
            completed_at: None,
            alpha_override: None,
            beta_estimate: beta,
            local_launches: 0,
            nonlocal_launches: 0,
            idx: JobIndex::default(),
        };
        job.rebuild_index();
        job
    }

    /// Recompute every incremental index from scratch. Called at
    /// construction and by the rebuild-on-write mutators below. Public as
    /// an escape hatch for in-crate tests that reach into task state;
    /// out-of-crate code cannot mutate `phases` directly and should not
    /// need this.
    pub fn rebuild_index(&mut self) {
        self.idx = self.scan_index();
    }

    /// Read-only view of the per-phase runtime state.
    pub fn phases(&self) -> &[PhaseRun] {
        &self.phases
    }

    /// Install scripted `(original_ms, speculative_ms)` durations for the
    /// leading tasks of the input phase — the §3 motivating example and
    /// the scripted scenario benches. Rebuilds the incremental indices
    /// afterwards (scripts are index-neutral today, but this keeps the
    /// "mutation ⇒ rebuild" invariant mechanical rather than argued).
    ///
    /// Panics if there are more scripts than input-phase tasks.
    pub fn script_single_phase(&mut self, scripts: &[(u64, u64)]) {
        for (t, &(orig, spec)) in scripts.iter().enumerate() {
            self.phases[0].tasks[t].scripted = Some(ScriptedTask {
                original: SimTime::from_millis(orig),
                speculative: SimTime::from_millis(spec),
            });
        }
        self.rebuild_index();
    }

    /// Replace the DFS replica set of `task`, rebuilding the locality
    /// indices (`pending_no_replica`, `pending_local`) that depend on it.
    /// The sanctioned form of the replica rewrites scenario tests do.
    pub fn set_replicas(&mut self, task: TaskRef, replicas: Vec<MachineId>) {
        self.phases[task.phase].tasks[task.task].replicas = replicas;
        self.rebuild_index();
    }

    /// Ground-truth index state by full scan — the pre-index query code,
    /// retained as the oracle for `debug_assert!` cross-checks.
    fn scan_index(&self) -> JobIndex {
        let mut idx = JobIndex {
            current_remaining: self.scan_current_remaining(),
            total_remaining: self.scan_total_remaining(),
            pending_originals: self.scan_pending_originals(),
            running_copies: self.scan_occupied_slots(),
            remaining_compute_ms: 0,
            first_ineligible: self.phases.iter().position(|p| !p.eligible),
            pending: BTreeSet::new(),
            pending_no_replica: BTreeSet::new(),
            pending_local: BTreeMap::new(),
            solo_running: BTreeSet::new(),
        };
        for (pi, p) in self.phases.iter().enumerate() {
            if !p.eligible {
                continue;
            }
            for (ti, t) in p.tasks.iter().enumerate() {
                if !t.is_finished() {
                    idx.remaining_compute_ms += t.work.as_millis();
                }
                let tr = TaskRef::new(pi, ti);
                if t.scan_needs_original() {
                    idx.pending.insert(tr);
                    if t.replicas.is_empty() {
                        idx.pending_no_replica.insert(tr);
                    }
                    for &r in &t.replicas {
                        idx.pending_local.entry(r).or_default().insert(tr);
                    }
                }
                if t.scan_running_copies() == 1 {
                    let c = t
                        .copies
                        .iter()
                        .find(|c| c.status == CopyStatus::Running)
                        .expect("one running copy");
                    idx.solo_running.insert((c.finish_time(), tr));
                }
            }
        }
        idx
    }

    /// Debug-build oracle: the maintained index must equal a fresh scan.
    /// Sampled (every 16th transition) — the full scan is O(tasks), and
    /// running it on every event would make the dev-profile test suite
    /// quadratic again; the always-on per-accessor asserts plus the golden
    /// and determinism suites close the gap between samples.
    #[cfg(debug_assertions)]
    fn debug_check_index(&self) {
        use std::sync::atomic::{AtomicU64, Ordering};
        static TICK: AtomicU64 = AtomicU64::new(0);
        if !TICK.fetch_add(1, Ordering::Relaxed).is_multiple_of(16) {
            return;
        }
        let fresh = self.scan_index();
        assert_eq!(
            fresh, self.idx,
            "incremental job index drifted from scan ground truth (job {})",
            self.id
        );
    }

    /// Remove a newly-launched or no-longer-pending task from the pending
    /// index structures.
    fn index_remove_pending(&mut self, tr: TaskRef) {
        if !self.idx.pending.remove(&tr) {
            return;
        }
        let t = &self.phases[tr.phase].tasks[tr.task];
        if t.replicas.is_empty() {
            self.idx.pending_no_replica.remove(&tr);
        }
        for r in &t.replicas {
            if let Some(set) = self.idx.pending_local.get_mut(r) {
                set.remove(&tr);
                if set.is_empty() {
                    self.idx.pending_local.remove(r);
                }
            }
        }
    }

    /// Re-insert a task into the pending index structures (machine
    /// failure requeued it for re-dispatch).
    fn index_insert_pending(&mut self, tr: TaskRef) {
        if !self.idx.pending.insert(tr) {
            return;
        }
        let t = &self.phases[tr.phase].tasks[tr.task];
        if t.replicas.is_empty() {
            self.idx.pending_no_replica.insert(tr);
        }
        for &r in &t.replicas {
            self.idx.pending_local.entry(r).or_default().insert(tr);
        }
    }

    /// Build a single-phase job with *scripted* per-task durations — used
    /// by the §3 motivating example (Table 1) and in tests.
    pub fn scripted(id: usize, arrival: SimTime, tasks: &[(u64, u64)]) -> Self {
        let spec = hopper_workload::single_phase_job(
            id,
            arrival,
            tasks
                .iter()
                .map(|&(orig, _)| SimTime::from_millis(orig))
                .collect(),
            1.5,
        );
        let cfg = ClusterConfig {
            machines: 0,
            ..Default::default()
        };
        let mut rng = hopper_sim::rng_from_seed(0);
        let mut job = JobRun::new(spec, &cfg, &mut rng);
        job.script_single_phase(tasks);
        job
    }

    /// Launch a copy of `task` on `machine` at `now`; the copy starts
    /// running at `now + delay` (slot hand-off / container setup cost).
    /// Returns the copy id and its (hidden) duration so the driver can
    /// schedule the completion event at `now + delay + duration`. Panics if the task already finished or its phase is not
    /// eligible — drivers must not launch dead work.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_copy(
        &mut self,
        task: TaskRef,
        machine: MachineId,
        speculative: bool,
        now: SimTime,
        delay: SimTime,
        cfg: &ClusterConfig,
        rng: &mut StdRng,
    ) -> (CopyRef, SimTime) {
        self.launch_copy_at_speed(task, machine, speculative, now, delay, cfg, rng, 1.0)
    }

    /// [`JobRun::launch_copy`] on a machine running at `speed` (the
    /// cluster-dynamics plane): the copy's wall-clock duration is the
    /// unit-speed duration divided by the speed ([`duration_at_speed`]).
    /// `speed == 1.0` is bit-identical to `launch_copy` — the
    /// dynamics-off invariant.
    #[allow(clippy::too_many_arguments)]
    pub fn launch_copy_at_speed(
        &mut self,
        task: TaskRef,
        machine: MachineId,
        speculative: bool,
        now: SimTime,
        delay: SimTime,
        cfg: &ClusterConfig,
        rng: &mut StdRng,
        speed: f64,
    ) -> (CopyRef, SimTime) {
        let unit = self.sample_unit_duration(task, machine, speculative, cfg, rng);
        let duration = duration_at_speed(unit, speed);
        let copy = self.launch_copy_prepared(task, machine, speculative, now + delay, duration);
        (copy, duration)
    }

    /// Draw the unit-speed duration a copy of `task` would run for on
    /// `machine`, *without* launching it: the first half of every launch
    /// ([`JobRun::launch_copy_prepared`] is the second). The sharded
    /// engine calls the halves apart — the owning scheduler samples the
    /// duration from its own RNG child and ships it inside the
    /// assignment; the worker scales it by its local machine speed and
    /// commits. Scripted tasks consume no randomness.
    pub fn sample_unit_duration(
        &self,
        task: TaskRef,
        machine: MachineId,
        speculative: bool,
        cfg: &ClusterConfig,
        rng: &mut StdRng,
    ) -> SimTime {
        let phase = &self.phases[task.phase];
        let effective = phase.effective_work(task.task);
        let t = &phase.tasks[task.task];
        let local = t.replicas.is_empty() || t.replicas.contains(&machine);
        match t.scripted {
            Some(s) => {
                if speculative {
                    s.speculative
                } else {
                    s.original
                }
            }
            None => {
                let mult = Dist::unit_mean_pareto(self.spec.beta)
                    .sample(rng)
                    .min(cfg.max_straggle_factor);
                let penalty = if local { 1.0 } else { cfg.remote_read_penalty };
                effective.scale(mult * penalty)
            }
        }
    }

    /// Commit a copy whose start instant and (already speed-scaled)
    /// duration are fixed: the second half of every launch, and the only
    /// place a copy enters the task and the job's indices. No RNG is
    /// consumed. `start` may lie in the past relative to the caller's
    /// clock (the sharded engine's launch acknowledgment travelled over
    /// the simulated network); all consumers of copy finish times
    /// saturate.
    pub fn launch_copy_prepared(
        &mut self,
        task: TaskRef,
        machine: MachineId,
        speculative: bool,
        start: SimTime,
        duration: SimTime,
    ) -> CopyRef {
        let phase = &mut self.phases[task.phase];
        assert!(phase.eligible, "launching into ineligible phase");
        let t = &mut phase.tasks[task.task];
        assert!(t.finished_at.is_none(), "launching a finished task");
        debug_assert!(
            !speculative || t.running > 0,
            "speculating on a task with no running copy"
        );
        let local = t.replicas.is_empty() || t.replicas.contains(&machine);
        if !t.replicas.is_empty() {
            if local {
                self.local_launches += 1;
            } else {
                self.nonlocal_launches += 1;
            }
        }
        // The task leaves the pending pool when it had no running copy —
        // on its very first launch, or on a re-dispatch after a machine
        // failure requeued it.
        let was_pending = t.running == 0;
        let copy_idx = t.copies.len();
        t.copies.push(Copy {
            machine,
            start,
            duration,
            status: CopyStatus::Running,
            speculative,
            local,
        });
        t.running += 1;
        // Index maintenance: running totals, the solo-running set, and (on
        // the first copy) the pending-original structures.
        self.idx.running_copies += 1;
        let running_now = self.phases[task.phase].tasks[task.task].running;
        match running_now {
            1 => {
                self.idx.solo_running.insert((start + duration, task));
            }
            2 => {
                // The task just gained a second copy: its previously solo
                // copy leaves the candidate set.
                let prev = self.phases[task.phase].tasks[task.task]
                    .copies
                    .iter()
                    .enumerate()
                    .find(|(i, c)| *i != copy_idx && c.status == CopyStatus::Running)
                    .map(|(_, c)| c.finish_time())
                    .expect("second running copy implies a first");
                self.idx.solo_running.remove(&(prev, task));
            }
            _ => {}
        }
        if was_pending {
            self.idx.pending_originals -= 1;
            self.index_remove_pending(task);
        }
        #[cfg(debug_assertions)]
        self.debug_check_index();
        CopyRef {
            task,
            copy: copy_idx,
        }
    }

    /// Kill one running copy — its machine died under it. The slot
    /// freed nothing (it died with the machine); a task whose last
    /// running copy was lost becomes pending again (it re-enters
    /// `pending_originals` and the locality indices), while its recorded
    /// copies stay (`Killed`), so duration statistics are untouched.
    /// [`JobRun::fail_machine`] applies it to a whole machine; the
    /// sharded engine applies it per loss notification. `None` when the
    /// copy is no longer running (its race resolved while the loss
    /// notification was in flight).
    pub fn lose_copy(&mut self, c: CopyRef) -> Option<CopyLoss> {
        let t = &mut self.phases[c.task.phase].tasks[c.task.task];
        if t.finished_at.is_some() || t.copies[c.copy].status != CopyStatus::Running {
            return None;
        }
        let speculative = t.copies[c.copy].speculative;
        let prev_running = t.running;
        let killed_finish = t.copies[c.copy].finish_time();
        t.copies[c.copy].status = CopyStatus::Killed;
        t.running -= 1;
        let now_running = t.running;
        let survivor_finish = t
            .copies
            .iter()
            .find(|cp| cp.status == CopyStatus::Running)
            .map(|cp| cp.finish_time());
        self.idx.running_copies -= 1;
        if prev_running == 1 {
            let removed = self.idx.solo_running.remove(&(killed_finish, c.task));
            debug_assert!(removed, "solo-running entry missing at copy loss");
        }
        if now_running == 1 {
            self.idx
                .solo_running
                .insert((survivor_finish.expect("one running copy"), c.task));
        }
        let requeued = now_running == 0;
        if requeued {
            self.idx.pending_originals += 1;
            self.index_insert_pending(c.task);
        }
        #[cfg(debug_assertions)]
        self.debug_check_index();
        Some(CopyLoss {
            requeued,
            speculative,
        })
    }

    /// Handle a copy-completion event. Returns `None` when the event is
    /// stale (the copy was killed or its task already finished) — drivers
    /// simply drop such events.
    pub fn finish_copy(&mut self, c: CopyRef, now: SimTime) -> Option<FinishOutcome> {
        let nominal = self.phases[c.task.phase].effective_work(c.task.task);
        let phase = &mut self.phases[c.task.phase];
        let t = &mut phase.tasks[c.task.task];
        if t.copies[c.copy].status != CopyStatus::Running || t.finished_at.is_some() {
            return None;
        }
        let prev_running = t.running;
        t.copies[c.copy].status = CopyStatus::Finished;
        t.finished_at = Some(now);
        let duration = t.copies[c.copy].duration;
        let winner_finish = t.copies[c.copy].finish_time();
        let mut freed = vec![t.copies[c.copy].machine];
        for sibling in t.copies.iter_mut() {
            if sibling.status == CopyStatus::Running {
                sibling.status = CopyStatus::Killed;
                freed.push(sibling.machine);
            }
        }
        t.running = 0;
        let work_ms = t.work.as_millis();
        phase.finished += 1;
        phase.completed_duration_sum_ms += duration.as_millis();
        phase.completed_duration_count += 1;
        let phase_done = phase.is_complete();

        // Index maintenance: the finished task leaves every remaining
        // count, and its running copies (winner + killed) leave the
        // running totals and the solo-running set.
        if prev_running == 1 {
            self.idx.solo_running.remove(&(winner_finish, c.task));
        }
        self.idx.running_copies -= prev_running as usize;
        self.idx.current_remaining -= 1;
        self.idx.total_remaining -= 1;
        self.idx.remaining_compute_ms -= work_ms;

        // Strict barrier: re-evaluate eligibility of downstream phases.
        let mut newly_eligible = Vec::new();
        for pi in 0..self.phases.len() {
            if self.phases[pi].eligible {
                continue;
            }
            let ready = self.phases[pi].spec.upstream.iter().all(|&u| {
                let up = &self.phases[u];
                up.finished >= up.num_tasks().max(1)
            });
            if ready {
                self.phases[pi].eligible = true;
                newly_eligible.push(pi);
                self.index_phase_eligible(pi);
            }
        }
        if !newly_eligible.is_empty() {
            self.idx.first_ineligible = self.phases.iter().position(|p| !p.eligible);
        }

        let job_done = self.phases.iter().all(|p| p.is_complete());
        if job_done && self.completed_at.is_none() {
            self.completed_at = Some(now);
        }
        #[cfg(debug_assertions)]
        self.debug_check_index();
        Some(FinishOutcome {
            freed,
            duration,
            nominal,
            phase_done,
            newly_eligible,
            job_done,
        })
    }

    /// Kill every running copy of this job on `machine` (the machine
    /// failed): [`JobRun::lose_copy`] for each, in `(phase, task, copy)`
    /// order.
    pub fn fail_machine(&mut self, machine: MachineId) -> FailOutcome {
        let mut doomed = Vec::new();
        for (pi, p) in self.phases.iter().enumerate().filter(|(_, p)| p.eligible) {
            for (ti, t) in p.tasks.iter().enumerate().filter(|(_, t)| t.running > 0) {
                for (ci, c) in t.copies.iter().enumerate() {
                    if c.status == CopyStatus::Running && c.machine == machine {
                        doomed.push(CopyRef::new(pi, ti, ci));
                    }
                }
            }
        }
        let mut out = FailOutcome::default();
        for c in doomed {
            let loss = self.lose_copy(c).expect("a doomed copy is running");
            out.killed += 1;
            out.killed_spec += loss.speculative as usize;
            if loss.requeued {
                out.requeued.push(c.task);
            }
        }
        out
    }

    /// Stretch (or shrink) the remaining wall-clock time of every running
    /// copy on `machine` by `ratio` = old speed / new speed, re-anchoring
    /// at `now` (the machine's speed just changed — the cluster-dynamics
    /// transient-slowdown hook). A copy whose hand-off delay has not
    /// elapsed yet (`start > now`) rescales its whole duration instead.
    /// Returns `(copy, new finish instant)` for every rescheduled copy so
    /// the driver can push fresh completion events; the previously queued
    /// events become stale (their pop time no longer matches the copy's
    /// finish time). Maintains the solo-running index, whose keys embed
    /// the finish instant.
    pub fn rescale_machine(
        &mut self,
        machine: MachineId,
        now: SimTime,
        ratio: f64,
    ) -> Vec<(CopyRef, SimTime)> {
        debug_assert!(ratio > 0.0 && ratio.is_finite(), "bad rescale ratio");
        let mut resched: Vec<(CopyRef, SimTime)> = Vec::new();
        let mut solo_moves: Vec<(SimTime, SimTime, TaskRef)> = Vec::new();
        for pi in 0..self.phases.len() {
            if !self.phases[pi].eligible {
                continue;
            }
            for ti in 0..self.phases[pi].tasks.len() {
                let t = &mut self.phases[pi].tasks[ti];
                if t.finished_at.is_some() || t.running == 0 {
                    continue;
                }
                let solo = t.running == 1;
                for (ci, c) in t.copies.iter_mut().enumerate() {
                    if c.status != CopyStatus::Running || c.machine != machine {
                        continue;
                    }
                    let old_finish = c.finish_time();
                    let Some(new_finish) = rescaled_finish(c.start, old_finish, now, ratio) else {
                        continue;
                    };
                    c.duration = new_finish - c.start;
                    if solo {
                        solo_moves.push((old_finish, new_finish, TaskRef::new(pi, ti)));
                    }
                    resched.push((CopyRef::new(pi, ti, ci), new_finish));
                }
            }
        }
        for (old, new, tr) in solo_moves {
            let removed = self.idx.solo_running.remove(&(old, tr));
            debug_assert!(removed, "solo-running entry missing at rescale");
            self.idx.solo_running.insert((new, tr));
        }
        #[cfg(debug_assertions)]
        self.debug_check_index();
        resched
    }

    /// Insert a newly-eligible phase's tasks into the counters and pending
    /// index structures (tasks of a fresh phase are all unlaunched).
    fn index_phase_eligible(&mut self, pi: usize) {
        let p = &self.phases[pi];
        self.idx.current_remaining += p.remaining();
        self.idx.pending_originals += p.remaining();
        for (ti, t) in p.tasks.iter().enumerate() {
            debug_assert!(!t.is_launched() && !t.is_finished());
            self.idx.remaining_compute_ms += t.work.as_millis();
            let tr = TaskRef::new(pi, ti);
            self.idx.pending.insert(tr);
            if t.replicas.is_empty() {
                self.idx.pending_no_replica.insert(tr);
            }
        }
        // Second pass for the replica map (split to appease the borrow
        // checker: `entry` needs `&mut self.idx` while `p` borrows phases).
        for (ti, t) in self.phases[pi].tasks.iter().enumerate() {
            for &r in &t.replicas {
                self.idx
                    .pending_local
                    .entry(r)
                    .or_default()
                    .insert(TaskRef::new(pi, ti));
            }
        }
    }

    /// Remaining tasks in eligible, incomplete phases — the paper's
    /// `T_i(t)` (current-phase remaining tasks). O(1).
    pub fn current_remaining(&self) -> usize {
        debug_assert_eq!(self.idx.current_remaining, self.scan_current_remaining());
        self.idx.current_remaining
    }

    fn scan_current_remaining(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| p.eligible && !p.is_complete())
            .map(|p| p.remaining())
            .sum()
    }

    /// Remaining tasks across the entire job. O(1).
    pub fn total_remaining(&self) -> usize {
        debug_assert_eq!(self.idx.total_remaining, self.scan_total_remaining());
        self.idx.total_remaining
    }

    fn scan_total_remaining(&self) -> usize {
        self.phases.iter().map(|p| p.remaining()).sum()
    }

    /// Tasks of the next not-yet-eligible phase — the paper's `T'_i(t)`
    /// used in the `max{V, V'}` DAG priority. O(1) via the cached
    /// first-ineligible phase index.
    pub fn downstream_remaining(&self) -> usize {
        let indexed = self
            .idx
            .first_ineligible
            .map_or(0, |pi| self.phases[pi].remaining());
        debug_assert_eq!(
            indexed,
            self.phases
                .iter()
                .find(|p| !p.eligible)
                .map_or(0, |p| p.remaining())
        );
        indexed
    }

    /// Unlaunched original tasks in eligible phases. O(1).
    pub fn pending_originals(&self) -> usize {
        debug_assert_eq!(self.idx.pending_originals, self.scan_pending_originals());
        self.idx.pending_originals
    }

    fn scan_pending_originals(&self) -> usize {
        self.phases
            .iter()
            .filter(|p| p.eligible)
            .flat_map(|p| &p.tasks)
            .filter(|t| t.scan_needs_original())
            .count()
    }

    /// Currently running copies (slot occupancy of this job). O(1).
    pub fn occupied_slots(&self) -> usize {
        debug_assert_eq!(self.idx.running_copies, self.scan_occupied_slots());
        self.idx.running_copies
    }

    fn scan_occupied_slots(&self) -> usize {
        self.phases
            .iter()
            .flat_map(|p| &p.tasks)
            .map(|t| t.scan_running_copies())
            .sum()
    }

    /// Pick the next original task to launch, preferring one whose input
    /// is local to `machine`. Returns the task and whether it is local.
    ///
    /// O(log tasks) via the pending index. The replaced scan visited tasks
    /// in `(phase, task)` order and returned at the first task that was
    /// either replica-free or local to `machine`; the index reproduces
    /// that by taking the minimum of the two ordered sets' heads.
    pub fn next_task_for(&self, machine: Option<MachineId>) -> Option<(TaskRef, bool)> {
        let picked = match machine {
            Some(m) => {
                let no_pref = self.idx.pending_no_replica.first().copied();
                let local = self
                    .idx
                    .pending_local
                    .get(&m)
                    .and_then(|s| s.first())
                    .copied();
                match (no_pref, local) {
                    (Some(a), Some(b)) => Some((a.min(b), true)),
                    (Some(a), None) => Some((a, true)),
                    (None, Some(b)) => Some((b, true)),
                    (None, None) => self.idx.pending.first().map(|&t| (t, false)),
                }
            }
            None => self
                .idx
                .pending
                .first()
                .map(|&t| (t, self.phases[t.phase].tasks[t.task].replicas.is_empty())),
        };
        debug_assert_eq!(picked, self.scan_next_task_for(machine));
        picked
    }

    fn scan_next_task_for(&self, machine: Option<MachineId>) -> Option<(TaskRef, bool)> {
        let mut fallback: Option<TaskRef> = None;
        for (pi, p) in self.phases.iter().enumerate() {
            if !p.eligible || p.is_complete() {
                continue;
            }
            for (ti, t) in p.tasks.iter().enumerate() {
                if !t.scan_needs_original() {
                    continue;
                }
                let tr = TaskRef::new(pi, ti);
                match machine {
                    Some(m) if !t.replicas.is_empty() => {
                        if t.replicas.contains(&m) {
                            return Some((tr, true));
                        }
                        if fallback.is_none() {
                            fallback = Some(tr);
                        }
                    }
                    _ => return Some((tr, t.replicas.is_empty())),
                }
            }
        }
        fallback.map(|tr| (tr, false))
    }

    /// Whether the job has a task that would be data-local on `machine`.
    /// O(log machines) via the inverted replica index.
    pub fn has_local_task_for(&self, machine: MachineId) -> bool {
        let indexed = self.idx.pending_local.contains_key(&machine);
        debug_assert_eq!(indexed, self.scan_has_local_task_for(machine));
        indexed
    }

    fn scan_has_local_task_for(&self, machine: MachineId) -> bool {
        self.phases.iter().any(|p| {
            p.eligible
                && !p.is_complete()
                && p.tasks
                    .iter()
                    .any(|t| t.scan_needs_original() && t.replicas.contains(&machine))
        })
    }

    /// Machines holding a replica of at least one pending task, in
    /// ascending id order (the free-machine probe of the centralized
    /// driver's `launch_original` walks this instead of every machine).
    pub fn machines_with_local_pending(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.idx.pending_local.keys().copied()
    }

    /// First pending task with a replica on `machine`, if any.
    pub fn first_local_pending(&self, machine: MachineId) -> Option<TaskRef> {
        self.idx
            .pending_local
            .get(&machine)
            .and_then(|s| s.first())
            .copied()
    }

    /// Whether any pending task has no replica set (such a task launches
    /// "locally" anywhere, so locality probes can stop at the first free
    /// machine).
    pub fn has_pending_no_replica(&self) -> bool {
        !self.idx.pending_no_replica.is_empty()
    }

    /// Pending (unlaunched, eligible-phase) tasks in `(phase, task)` order.
    pub fn pending_tasks(&self) -> impl Iterator<Item = TaskRef> + '_ {
        self.idx.pending.iter().copied()
    }

    /// Pending tasks with no replica preference, in `(phase, task)` order.
    pub fn pending_no_replica_tasks(&self) -> impl Iterator<Item = TaskRef> + '_ {
        self.idx.pending_no_replica.iter().copied()
    }

    /// Pending tasks with a replica on `machine`, in `(phase, task)` order.
    pub fn pending_local_tasks(&self, machine: MachineId) -> impl Iterator<Item = TaskRef> + '_ {
        self.idx
            .pending_local
            .get(&machine)
            .into_iter()
            .flat_map(|s| s.iter().copied())
    }

    /// Observations of all running copies, for speculation policies.
    pub fn observe_running(&self, now: SimTime) -> Vec<(TaskRef, Vec<CopyObservation>)> {
        let mut out = Vec::new();
        for (pi, p) in self.phases.iter().enumerate() {
            if !p.eligible {
                continue;
            }
            for (ti, t) in p.tasks.iter().enumerate() {
                if t.is_finished() || t.running == 0 {
                    continue;
                }
                let obs: Vec<CopyObservation> = t
                    .copies
                    .iter()
                    .enumerate()
                    .filter(|(_, c)| c.status == CopyStatus::Running)
                    .map(|(ci, c)| {
                        let elapsed = now.saturating_sub(c.start);
                        let progress = if c.duration.as_millis() == 0 {
                            1.0
                        } else {
                            (elapsed.as_millis() as f64 / c.duration.as_millis() as f64).min(1.0)
                        };
                        CopyObservation {
                            copy: CopyRef::new(pi, ti, ci),
                            machine: c.machine,
                            elapsed,
                            progress,
                            est_remaining: c.duration.saturating_sub(elapsed),
                            speculative: c.speculative,
                        }
                    })
                    .collect();
                if !obs.is_empty() {
                    out.push((TaskRef::new(pi, ti), obs));
                }
            }
        }
        out
    }

    /// Mean completed-copy duration across eligible phases (the scheduler's
    /// `t_new` estimate for a fresh copy), falling back to the phase's
    /// nominal work when nothing has completed yet. Scripted tasks report
    /// their scripted speculative duration (the §3 example's known `t_new`).
    pub fn estimated_new_copy_duration(&self, task: TaskRef) -> SimTime {
        let p = &self.phases[task.phase];
        if let Some(s) = p.tasks[task.task].scripted {
            return s.speculative;
        }
        p.mean_completed_duration()
            .unwrap_or_else(|| p.effective_work(task.task))
    }

    /// The best target for an *unsolicited* extra speculative copy: the
    /// running task with the longest estimated remaining time among tasks
    /// with exactly one running copy, provided a fresh copy could
    /// plausibly win the race (`t_rem > t_new`); ties prefer the earliest
    /// `(phase, task)`. O(log) via the solo-running set instead of an
    /// O(tasks) `observe_running` sweep.
    ///
    /// Contract: copies must have started at or before `now` (true for
    /// the zero-launch-delay decentralized driver, the only caller) — the
    /// remaining time is read off the copy's completion instant.
    pub fn best_extra_speculation(&self, now: SimTime) -> Option<TaskRef> {
        let mut best: Option<(SimTime, TaskRef)> = None;
        for &(finish, task) in self.idx.solo_running.iter().rev() {
            // Descending (finish, task): once below the best finish (or
            // out of positive-remaining entries) nothing later can win.
            if finish <= now {
                break;
            }
            if let Some((best_finish, _)) = best {
                if finish < best_finish {
                    break;
                }
            }
            let rem = finish.saturating_sub(now);
            if rem > self.estimated_new_copy_duration(task) {
                best = match best {
                    // Equal-finish entries iterate in descending TaskRef,
                    // so keep the minimum to match the scan's tie-break.
                    Some((_, prev)) => Some((finish, task.min(prev))),
                    None => Some((finish, task)),
                };
            }
        }
        #[cfg(debug_assertions)]
        {
            let mut scan_best: Option<(SimTime, TaskRef)> = None;
            for (task, obs) in self.observe_running(now) {
                if obs.len() >= 2 {
                    continue;
                }
                let rem = obs.iter().map(|o| o.est_remaining).min().unwrap();
                if rem <= self.estimated_new_copy_duration(task) {
                    continue;
                }
                if scan_best.is_none_or(|(b, _)| rem > b) {
                    scan_best = Some((rem, task));
                }
            }
            assert_eq!(
                best.map(|(_, t)| t),
                scan_best.map(|(_, t)| t),
                "solo-running index disagrees with the observe_running scan"
            );
        }
        best.map(|(_, t)| t)
    }

    /// Exact remaining compute work (ms) in eligible phases, as the f64
    /// the pre-index scan produced. The incremental counter is integral,
    /// and every partial sum of the old task-order f64 accumulation was an
    /// exact integer (task works are integral millis, totals ≪ 2^53), so
    /// the two are bit-identical.
    fn remaining_compute_ms_f64(&self) -> f64 {
        #[cfg(debug_assertions)]
        {
            let scanned: f64 = self
                .phases
                .iter()
                .filter(|p| p.eligible && !p.is_complete())
                .flat_map(|p| &p.tasks)
                .filter(|t| !t.is_finished())
                .map(|t| t.work.as_millis() as f64)
                .sum();
            assert_eq!(
                scanned, self.idx.remaining_compute_ms as f64,
                "incremental compute-ms counter diverged from the f64 scan"
            );
        }
        self.idx.remaining_compute_ms as f64
    }

    /// The job's DAG weight α: remaining downstream transfer work over
    /// remaining current-phase compute work (§4.2), or the override the
    /// driver installed from the online estimator. O(1) via the compute
    /// counter and cached first-ineligible phase.
    pub fn alpha(&self) -> f64 {
        if let Some(a) = self.alpha_override {
            return a;
        }
        let compute_ms = self.remaining_compute_ms_f64();
        let transfer_ms: f64 = self
            .idx
            .first_ineligible
            .map(|pi| {
                let p = &self.phases[pi];
                p.transfer_ms_per_task * p.remaining() as f64
            })
            .unwrap_or(0.0);
        if transfer_ms <= 0.0 {
            1.0
        } else {
            alpha_from_work(transfer_ms, compute_ms)
        }
    }

    /// α computed with a *predicted* per-task intermediate output for the
    /// current upstream phase(s), instead of the ground-truth spec value.
    ///
    /// This is what a scheduler using the online α estimator (§6.3) sees:
    /// intermediate data sizes are unknown until the phase runs, so the
    /// transfer term is built from the recurring-job prediction.
    pub fn alpha_with_predicted_output(&self, mb_per_task: f64, cfg: &ClusterConfig) -> f64 {
        let compute_ms = self.remaining_compute_ms_f64();
        let Some(next) = self.idx.first_ineligible.map(|pi| &self.phases[pi]) else {
            return 1.0;
        };
        let upstream_tasks: usize = next
            .spec
            .upstream
            .iter()
            .map(|&u| self.phases[u].num_tasks())
            .sum();
        if next.num_tasks() == 0 {
            return 1.0;
        }
        let per_task_mb = mb_per_task.max(0.0) * upstream_tasks as f64 / next.num_tasks() as f64;
        let transfer_ms = cfg.transfer_ms(per_task_mb) * next.remaining() as f64;
        if transfer_ms <= 0.0 {
            1.0
        } else {
            alpha_from_work(transfer_ms, compute_ms)
        }
    }

    /// Fraction of input-phase launches that were data-local.
    pub fn locality_fraction(&self) -> Option<f64> {
        let total = self.local_launches + self.nonlocal_launches;
        (total > 0).then(|| self.local_launches as f64 / total as f64)
    }
}

/// Sample `dfs_replicas` distinct machines.
fn sample_replicas(cfg: &ClusterConfig, rng: &mut StdRng) -> Vec<MachineId> {
    let k = cfg.dfs_replicas.min(cfg.machines);
    let mut picked: Vec<MachineId> = Vec::with_capacity(k);
    while picked.len() < k {
        let m = MachineId(rng.gen_range(0..cfg.machines));
        if !picked.contains(&m) {
            picked.push(m);
        }
    }
    picked
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopper_sim::rng_from_seed;
    use hopper_workload::{single_phase_job, CommPattern};

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            machines: 10,
            slots_per_machine: 2,
            ..Default::default()
        }
    }

    fn simple_job(n_tasks: usize, work_ms: u64) -> JobRun {
        let spec = single_phase_job(
            0,
            SimTime::ZERO,
            vec![SimTime::from_millis(work_ms); n_tasks],
            1.5,
        );
        JobRun::new(spec, &cfg(), &mut rng_from_seed(7))
    }

    fn two_phase_job() -> JobRun {
        let mut spec = single_phase_job(0, SimTime::ZERO, vec![SimTime::from_millis(1000); 4], 1.5);
        spec.phases[0].output_mb_per_task = 50.0;
        spec.phases.push(hopper_workload::TracePhase {
            task_works: vec![SimTime::from_millis(500); 2],
            upstream: vec![0],
            output_mb_per_task: 0.0,
            comm: CommPattern::AllToAll,
            reads_dfs_input: false,
        });
        JobRun::new(spec, &cfg(), &mut rng_from_seed(3))
    }

    #[test]
    fn replicas_assigned_to_input_phase_only() {
        let j = two_phase_job();
        for t in &j.phases[0].tasks {
            assert_eq!(t.replicas.len(), 3);
            let mut sorted = t.replicas.clone();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct");
        }
        for t in &j.phases[1].tasks {
            assert!(t.replicas.is_empty());
        }
    }

    #[test]
    fn downstream_phase_ineligible_until_upstream_done() {
        let mut j = two_phase_job();
        assert!(j.phases[0].eligible);
        assert!(!j.phases[1].eligible);
        assert_eq!(j.current_remaining(), 4);
        assert_eq!(j.downstream_remaining(), 2);

        let mut rng = rng_from_seed(1);
        let c = cfg();
        // Run all 4 upstream tasks to completion.
        let mut finish_times = Vec::new();
        for ti in 0..4 {
            let (cr, d) = j.launch_copy(
                TaskRef::new(0, ti),
                MachineId(0),
                false,
                SimTime::ZERO,
                SimTime::ZERO,
                &c,
                &mut rng,
            );
            finish_times.push((cr, d));
        }
        let mut eligible_seen = false;
        for (i, (cr, d)) in finish_times.into_iter().enumerate() {
            let out = j.finish_copy(cr, d).unwrap();
            if i < 3 {
                assert!(out.newly_eligible.is_empty());
            } else {
                assert_eq!(out.newly_eligible, vec![1]);
                assert!(out.phase_done);
                eligible_seen = true;
            }
        }
        assert!(eligible_seen);
        assert!(j.phases[1].eligible);
        assert_eq!(j.current_remaining(), 2);
        assert_eq!(j.downstream_remaining(), 0);
    }

    #[test]
    fn shuffle_transfer_is_in_downstream_duration() {
        let j = two_phase_job();
        // 4 upstream tasks × 50 MB = 200 MB over 2 downstream tasks =
        // 100 MB each at 125 MB/s = 800 ms per task.
        assert!((j.phases[1].transfer_ms_per_task - 800.0).abs() < 1.0);
        assert_eq!(
            j.phases[1].effective_work(0),
            SimTime::from_millis(500 + 800)
        );
    }

    #[test]
    fn set_replicas_rebuilds_locality_indices() {
        let mut j = simple_job(3, 1000);
        let t0 = TaskRef::new(0, 0);
        // Point task 0's replicas at a known machine and verify every
        // locality query agrees — the mutator must rebuild the
        // pending/locality indices, not just the raw field.
        j.set_replicas(t0, vec![MachineId(7)]);
        assert!(j.has_local_task_for(MachineId(7)));
        assert_eq!(j.first_local_pending(MachineId(7)), Some(t0));
        assert_eq!(j.phases()[0].tasks[0].replicas, vec![MachineId(7)]);
        // Strip the replicas: the task must move to the no-replica set.
        j.set_replicas(t0, Vec::new());
        assert_eq!(j.first_local_pending(MachineId(7)), None);
        assert!(j.pending_no_replica_tasks().any(|t| t == t0));
        // The external read surface is the accessor; the oracle re-scan
        // (dev profile) double-checks the rebuilt index on access.
        assert_eq!(j.phases().len(), 1);
    }

    #[test]
    fn script_single_phase_installs_and_keeps_index() {
        let mut j = simple_job(2, 1000);
        j.script_single_phase(&[(123, 45), (678, 90)]);
        assert_eq!(
            j.phases()[0].tasks[0].scripted.unwrap().original,
            SimTime::from_millis(123)
        );
        assert_eq!(
            j.phases()[0].tasks[1].scripted.unwrap().speculative,
            SimTime::from_millis(90)
        );
        // Scripts are index-neutral: pending counts unchanged.
        assert_eq!(j.current_remaining(), 2);
        assert_eq!(j.pending_originals(), 2);
    }

    #[test]
    fn race_kills_siblings_and_frees_slots() {
        let mut j = simple_job(1, 1000);
        let mut rng = rng_from_seed(2);
        let c = cfg();
        let task = TaskRef::new(0, 0);
        let (orig, _) = j.launch_copy(
            task,
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        let (spec, _) = j.launch_copy(
            task,
            MachineId(1),
            true,
            SimTime::from_millis(100),
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        assert_eq!(j.occupied_slots(), 2);

        let out = j.finish_copy(spec, SimTime::from_millis(600)).unwrap();
        assert_eq!(out.freed.len(), 2, "winner + killed sibling");
        assert!(out.freed.contains(&MachineId(0)));
        assert!(out.freed.contains(&MachineId(1)));
        assert!(out.job_done);
        assert_eq!(j.occupied_slots(), 0);

        // The original's own completion event is now stale.
        assert!(j.finish_copy(orig, SimTime::from_millis(1000)).is_none());
    }

    #[test]
    fn stale_finish_for_killed_copy_is_ignored() {
        let mut j = simple_job(2, 1000);
        let mut rng = rng_from_seed(2);
        let c = cfg();
        let t0 = TaskRef::new(0, 0);
        let (c0, _) = j.launch_copy(
            t0,
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        let out = j.finish_copy(c0, SimTime::from_millis(500)).unwrap();
        assert!(!out.job_done);
        assert!(!out.phase_done);
        assert_eq!(j.current_remaining(), 1);
        assert!(j.finish_copy(c0, SimTime::from_millis(900)).is_none());
    }

    #[test]
    fn scripted_durations_are_exact() {
        let mut j = JobRun::scripted(0, SimTime::ZERO, &[(30_000, 10_000), (10_000, 10_000)]);
        let mut rng = rng_from_seed(5);
        let c = cfg();
        let (_, d0) = j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        assert_eq!(d0, SimTime::from_millis(30_000));
        let (_, d0s) = j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(1),
            true,
            SimTime::from_millis(2000),
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        assert_eq!(d0s, SimTime::from_millis(10_000));
    }

    #[test]
    fn observation_progress_and_estimates() {
        let mut j = JobRun::scripted(0, SimTime::ZERO, &[(10_000, 5_000)]);
        let mut rng = rng_from_seed(5);
        let c = cfg();
        j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        let obs = j.observe_running(SimTime::from_millis(2_500));
        assert_eq!(obs.len(), 1);
        let (task, copies) = &obs[0];
        assert_eq!(*task, TaskRef::new(0, 0));
        assert_eq!(copies.len(), 1);
        assert!((copies[0].progress - 0.25).abs() < 1e-9);
        assert_eq!(copies[0].est_remaining, SimTime::from_millis(7_500));
        assert_eq!(copies[0].elapsed, SimTime::from_millis(2_500));
    }

    #[test]
    fn next_task_prefers_local() {
        let mut j = simple_job(5, 1000);
        // Make task 3 local to machine 9, others not.
        for (i, t) in j.phases[0].tasks.iter_mut().enumerate() {
            t.replicas = if i == 3 {
                vec![MachineId(9)]
            } else {
                vec![MachineId(0)]
            };
        }
        j.rebuild_index();
        let (tr, local) = j.next_task_for(Some(MachineId(9))).unwrap();
        assert_eq!(tr, TaskRef::new(0, 3));
        assert!(local);
        assert!(j.has_local_task_for(MachineId(9)));
        assert!(!j.has_local_task_for(MachineId(5)));
        // A machine with no local tasks falls back to the first unlaunched.
        let (tr2, local2) = j.next_task_for(Some(MachineId(5))).unwrap();
        assert_eq!(tr2, TaskRef::new(0, 0));
        assert!(!local2);
    }

    #[test]
    fn locality_counters() {
        let mut j = simple_job(2, 1000);
        for t in j.phases[0].tasks.iter_mut() {
            t.replicas = vec![MachineId(1)];
        }
        j.rebuild_index();
        let mut rng = rng_from_seed(2);
        let c = cfg();
        j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(1),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        j.launch_copy(
            TaskRef::new(0, 1),
            MachineId(2),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        assert_eq!(j.local_launches, 1);
        assert_eq!(j.nonlocal_launches, 1);
        assert!((j.locality_fraction().unwrap() - 0.5).abs() < 1e-9);
    }

    #[test]
    fn alpha_reflects_transfer_vs_compute() {
        let j = two_phase_job();
        // transfer = 800 ms × 2 tasks = 1600; compute = 4 × 1000 = 4000.
        let a = j.alpha();
        assert!((a - 0.4).abs() < 0.01, "alpha {a}");
        // Single-phase job: no downstream → α = 1.
        assert_eq!(simple_job(3, 500).alpha(), 1.0);
        // Override wins.
        let mut j2 = two_phase_job();
        j2.alpha_override = Some(2.5);
        assert_eq!(j2.alpha(), 2.5);
    }

    #[test]
    fn pending_and_remaining_counts() {
        let mut j = simple_job(3, 1000);
        assert_eq!(j.pending_originals(), 3);
        let mut rng = rng_from_seed(2);
        let c = cfg();
        j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        assert_eq!(j.pending_originals(), 2);
        assert_eq!(j.current_remaining(), 3);
        assert_eq!(j.total_remaining(), 3);
        assert_eq!(j.occupied_slots(), 1);
    }

    #[test]
    fn estimated_new_copy_duration_uses_completed_stats() {
        let mut j = simple_job(3, 1000);
        let task = TaskRef::new(0, 0);
        // Before anything completes: nominal work.
        assert_eq!(
            j.estimated_new_copy_duration(task),
            SimTime::from_millis(1000)
        );
        let mut rng = rng_from_seed(2);
        let c = cfg();
        let (c0, d0) = j.launch_copy(
            task,
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        j.finish_copy(c0, d0).unwrap();
        assert_eq!(j.estimated_new_copy_duration(TaskRef::new(0, 1)), d0);
    }

    #[test]
    #[should_panic(expected = "ineligible phase")]
    fn launching_into_ineligible_phase_panics() {
        let mut j = two_phase_job();
        let mut rng = rng_from_seed(2);
        let c = cfg();
        j.launch_copy(
            TaskRef::new(1, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
        );
    }

    #[test]
    fn fail_machine_requeues_sole_copy_tasks() {
        let mut j = simple_job(3, 1000);
        let mut rng = rng_from_seed(2);
        let c = cfg();
        // Task 0 runs on machine 4, task 1 on machine 5.
        for (ti, m) in [(0usize, 4usize), (1, 5)] {
            j.launch_copy(
                TaskRef::new(0, ti),
                MachineId(m),
                false,
                SimTime::ZERO,
                SimTime::ZERO,
                &c,
                &mut rng,
            );
        }
        assert_eq!(j.pending_originals(), 1);
        let out = j.fail_machine(MachineId(4));
        assert_eq!(out.killed, 1);
        assert_eq!(out.killed_spec, 0);
        assert_eq!(out.requeued, vec![TaskRef::new(0, 0)]);
        // The task is pending again and relaunchable.
        assert_eq!(j.pending_originals(), 2);
        assert_eq!(j.occupied_slots(), 1);
        assert!(j.pending_tasks().any(|t| t == TaskRef::new(0, 0)));
        let (copy, _) = j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(6),
            false,
            SimTime::from_millis(10),
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        assert_eq!(copy.copy, 1, "relaunch is a fresh copy of the same task");
        assert_eq!(j.pending_originals(), 1);
        // Unrelated machines are untouched.
        let none = j.fail_machine(MachineId(9));
        assert_eq!(none.killed, 0);
        assert!(none.requeued.is_empty());
    }

    #[test]
    fn fail_machine_with_speculative_sibling_keeps_task_running() {
        let mut j = simple_job(1, 1000);
        let mut rng = rng_from_seed(2);
        let c = cfg();
        let task = TaskRef::new(0, 0);
        j.launch_copy(
            task,
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        let (spec, _) = j.launch_copy(
            task,
            MachineId(1),
            true,
            SimTime::from_millis(100),
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        // The original's machine dies; the speculative copy survives and
        // the task is NOT requeued.
        let out = j.fail_machine(MachineId(0));
        assert_eq!(out.killed, 1);
        assert!(out.requeued.is_empty());
        assert_eq!(j.occupied_slots(), 1);
        assert_eq!(j.pending_originals(), 0);
        // The surviving speculative copy can finish the task.
        let fin = j
            .finish_copy(spec, SimTime::from_millis(50_000))
            .expect("survivor finishes");
        assert!(fin.job_done);
        assert_eq!(fin.freed.len(), 1, "only the survivor frees a slot");

        // Two of task 0's three copies die with the machine, and both of
        // task 1's: task 0 keeps running on its one survivor, which
        // becomes solo; task 1 passes through solo (one copy left after
        // the first loss) and is requeued by the second.
        let mut j = simple_job(2, 1000);
        let (t0, t1) = (TaskRef::new(0, 0), TaskRef::new(0, 1));
        for (task, m, speculative) in [
            (t0, 0, false),
            (t0, 1, true),
            (t0, 0, true),
            (t1, 0, false),
            (t1, 0, true),
        ] {
            j.launch_copy(
                task,
                MachineId(m),
                speculative,
                SimTime::ZERO,
                SimTime::ZERO,
                &c,
                &mut rng,
            );
        }
        let out = j.fail_machine(MachineId(0));
        let expected = FailOutcome {
            killed: 4,
            killed_spec: 2,
            requeued: vec![t1],
        };
        assert_eq!(out, expected);
        let survivor = j.phases()[0].tasks[0].copies[1].finish_time();
        let solo: Vec<_> = j.idx.solo_running.iter().copied().collect();
        assert_eq!(solo, vec![(survivor, t0)]);
        assert_eq!(j.pending_tasks().collect::<Vec<_>>(), vec![t1]);
        assert_eq!(j.pending_originals(), 1);
        assert_eq!(j.occupied_slots(), 1);
    }

    #[test]
    fn rescale_machine_stretches_remaining_time_only() {
        let mut j = JobRun::scripted(0, SimTime::ZERO, &[(10_000, 5_000)]);
        let mut rng = rng_from_seed(5);
        let c = cfg();
        j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
        );
        // At t = 4 s the machine halves its speed: 6 s remaining → 12 s.
        let now = SimTime::from_millis(4_000);
        let resched = j.rescale_machine(MachineId(0), now, 2.0);
        assert_eq!(resched.len(), 1);
        assert_eq!(resched[0].1, SimTime::from_millis(16_000));
        let cp = &j.phases()[0].tasks[0].copies[0];
        assert_eq!(cp.finish_time(), SimTime::from_millis(16_000));
        // Speed restored at t = 10 s: 6 s remaining → 3 s.
        let back = j.rescale_machine(MachineId(0), SimTime::from_millis(10_000), 0.5);
        assert_eq!(back[0].1, SimTime::from_millis(13_000));
        // Other machines are untouched.
        assert!(j
            .rescale_machine(MachineId(3), SimTime::from_millis(11_000), 2.0)
            .is_empty());
    }

    #[test]
    fn rescale_keeps_best_extra_speculation_consistent() {
        // Two solo-running tasks; rescaling one must move it within the
        // solo-running index (pinned by the debug oracle in
        // best_extra_speculation).
        let mut j = JobRun::scripted(0, SimTime::ZERO, &[(10_000, 1_000), (8_000, 1_000)]);
        let mut rng = rng_from_seed(5);
        let c = cfg();
        for ti in 0..2 {
            j.launch_copy(
                TaskRef::new(0, ti),
                MachineId(ti),
                false,
                SimTime::ZERO,
                SimTime::ZERO,
                &c,
                &mut rng,
            );
        }
        assert_eq!(
            j.best_extra_speculation(SimTime::from_millis(100)),
            Some(TaskRef::new(0, 0))
        );
        // Machine 1 slows 4×: task 1's finish moves to 32 s — past task 0.
        j.rescale_machine(MachineId(1), SimTime::ZERO, 4.0);
        assert_eq!(
            j.best_extra_speculation(SimTime::from_millis(100)),
            Some(TaskRef::new(0, 1))
        );
    }

    #[test]
    fn launch_at_speed_divides_duration() {
        let mut j = JobRun::scripted(0, SimTime::ZERO, &[(10_000, 5_000), (10_000, 5_000)]);
        let mut rng = rng_from_seed(5);
        let c = cfg();
        let (_, d_slow) = j.launch_copy_at_speed(
            TaskRef::new(0, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
            0.5,
        );
        assert_eq!(d_slow, SimTime::from_millis(20_000));
        let (_, d_fast) = j.launch_copy_at_speed(
            TaskRef::new(0, 1),
            MachineId(1),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &c,
            &mut rng,
            2.0,
        );
        assert_eq!(d_fast, SimTime::from_millis(5_000));
    }

    #[test]
    fn beta_drives_duration_variance() {
        // Heavier tail (β=1.1) must produce more extreme max multipliers
        // than a light tail (β=1.9) over many draws.
        let c = cfg();
        let max_mult = |beta: f64, seed: u64| -> f64 {
            let spec = single_phase_job(
                0,
                SimTime::ZERO,
                vec![SimTime::from_millis(1000); 400],
                beta,
            );
            let mut j = JobRun::new(spec, &c, &mut rng_from_seed(seed));
            let mut rng = rng_from_seed(seed + 1);
            let mut max = 0.0f64;
            for ti in 0..400 {
                let (_, d) = j.launch_copy(
                    TaskRef::new(0, ti),
                    MachineId(0),
                    false,
                    SimTime::ZERO,
                    SimTime::ZERO,
                    &c,
                    &mut rng,
                );
                max = max.max(d.as_millis() as f64 / 1000.0);
            }
            max
        };
        assert!(max_mult(1.1, 10) > max_mult(1.9, 10));
    }
}
