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

use std::collections::BTreeSet;

use hopper_core::alpha_from_work;
use hopper_sim::SimTime;
use hopper_workload::{Dist, TraceJob};
use rand::rngs::StdRng;
use rand::Rng;

use crate::flat::{ReplicaSets, TaskIndex};
use crate::ids::{CopyRef, MachineId, TaskRef};
use crate::inline::InlineVec;
use crate::machine::{transfer_ms, ClusterConfig};

/// The most copies of one task that may run at once, original included.
/// Every speculation guard reads this one value: both engines' launch
/// paths, the decentralized extra-copy pick and every speculator in
/// `hopper-spec`.
pub const MAX_RUNNING_COPIES: usize = 2;

// `JobIndex::solo_running` holds the tasks one running copy short of the
// limit, so it is the extra-copy candidate set only while the limit is 2.
// Raising the limit means re-keying that index by running-copy count.
const _: () = assert!(
    MAX_RUNNING_COPIES == 2,
    "JobIndex::solo_running assumes a two-copy limit"
);

/// Upper clamp on the per-copy Pareto duration multiplier, bounding
/// pathological tail draws (production stragglers reach ~8×; the clamp
/// only guards simulation time).
const MAX_STRAGGLE_FACTOR: f64 = 40.0;

/// Duration multiplier for an input task reading its data remotely
/// (non-local placement); ~1.1–1.3 in measurement studies.
const REMOTE_READ_PENALTY: f64 = 1.2;

/// The end of a task's copy list in its job's copy arena.
const NO_COPY: u32 = u32::MAX;

/// Freed slots a [`FinishOutcome`] keeps inline: the winner's plus one per
/// running sibling. The central engine never runs more than
/// [`MAX_RUNNING_COPIES`]; the decentralized engines can overshoot the
/// limit (DESIGN.md, "Deviations from the paper"), and a longer list
/// spills to the heap.
const FREED_INLINE: usize = 2 * MAX_RUNNING_COPIES;

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

/// One execution copy of a task, an entry of its job's copy arena.
#[derive(Debug, Clone)]
pub struct Copy {
    /// Machine the copy runs on.
    pub machine: MachineId,
    /// Launch time.
    pub(crate) start: SimTime,
    /// Total duration the copy would take if never killed. Schedulers and
    /// speculation policies must not read this directly; they see elapsed
    /// time and progress through [`CopyObservation`].
    pub duration: SimTime,
    /// Current status.
    pub status: CopyStatus,
    /// True if this is a speculative (non-first) copy.
    pub speculative: bool,
    /// Arena position of the task's next copy in launch order
    /// ([`NO_COPY`] for its latest).
    next: u32,
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
pub(crate) struct ScriptedTask {
    /// Duration of the original copy.
    pub(crate) original: SimTime,
    /// Duration of any speculative copy.
    pub(crate) speculative: SimTime,
}

/// Runtime state of one task. Its replica set, copies and scripted
/// durations live in per-job tables ([`JobRun::replicas`],
/// [`JobRun::copies`]), so a task is 32 bytes with no heap storage.
#[derive(Debug, Clone)]
pub struct TaskRun {
    /// Nominal compute work (expected duration net of transfer/locality).
    pub(crate) work: SimTime,
    /// When the task finished (first copy completion).
    pub(crate) finished_at: Option<SimTime>,
    /// Maintained count of copies in [`CopyStatus::Running`] (kept in sync
    /// by [`JobRun::launch_copy`] / [`JobRun::finish_copy`]).
    running: u32,
    /// Arena position of the task's first copy ([`NO_COPY`] before its
    /// first launch); the rest follow through [`Copy::next`].
    first_copy: u32,
}

// The arenas keep a task at four words, with no heap storage of its own.
const _: () = assert!(std::mem::size_of::<TaskRun>() == 32);

impl TaskRun {
    /// Whether the task has finished.
    pub fn is_finished(&self) -> bool {
        self.finished_at.is_some()
    }

    /// Whether any copy has been launched.
    pub(crate) fn is_launched(&self) -> bool {
        self.first_copy != NO_COPY
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

    /// Number of currently running copies (O(1); counter maintained by the
    /// launch / finish transitions, checked against a copy-status scan by
    /// the job's sampled index oracle).
    pub fn running_copies(&self) -> usize {
        self.running as usize
    }
}

/// Runtime state of one phase (its static description is the job's
/// `spec.phases[i]`).
#[derive(Debug, Clone)]
pub struct PhaseRun {
    /// Task states (same length as the phase's `task_works`).
    pub tasks: Vec<TaskRun>,
    /// Finished task count.
    pub(crate) finished: usize,
    /// Whether tasks of this phase may be launched yet.
    pub eligible: bool,
    /// Shuffle transfer time included in every task of this phase
    /// (upstream output volume divided over this phase's tasks), ms.
    pub transfer_ms_per_task: f64,
    /// Sum of completed copy durations (for observed-duration stats).
    pub(crate) completed_duration_sum_ms: u64,
    /// Count of completed copies.
    pub(crate) completed_duration_count: u64,
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
    pub(crate) fn remaining(&self) -> usize {
        self.tasks.len() - self.finished
    }

    /// Mean duration of completed copies in this phase, if any completed.
    pub(crate) fn mean_completed_duration(&self) -> Option<SimTime> {
        (self.completed_duration_count > 0).then(|| {
            SimTime::from_millis(self.completed_duration_sum_ms / self.completed_duration_count)
        })
    }

    /// Effective nominal duration of task `i` (compute + transfer), before
    /// the straggler multiplier.
    pub(crate) fn effective_work(&self, i: usize) -> SimTime {
        self.tasks[i].work + SimTime::from_millis(self.transfer_ms_per_task as u64)
    }
}

/// What a finished copy did to the job (returned by [`JobRun::finish_copy`]).
/// Its lists are inline, so a finish allocates nothing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FinishOutcome {
    /// Machines whose slots freed: the finishing copy's machine plus one
    /// entry per killed sibling copy.
    pub freed: InlineVec<MachineId, FREED_INLINE>,
    /// The completed copy's total duration (for β estimation: duration
    /// divided by nominal work is the straggler multiplier).
    pub duration: SimTime,
    /// Nominal (effective) work of the task, for duration normalization.
    pub nominal: SimTime,
    /// Whether the whole phase completed with this task.
    pub phase_done: bool,
    /// Phases that just became eligible (every upstream task finished).
    pub newly_eligible: InlineVec<usize, 2>,
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
/// drivers into O(1) reads; the flat [`TaskIndex`] and the solo-running
/// set iterate in ascending `(phase, task)` / machine order, which is
/// exactly the order the replaced scans visited, so tie-breaking is
/// bit-identical. See DESIGN.md, "Index invariants".
#[derive(Debug, Clone, Default, PartialEq, Eq)]
struct JobIndex {
    /// Remaining tasks in eligible phases — `current_remaining()`.
    current_remaining: usize,
    /// Remaining tasks across all phases — `total_remaining()`.
    total_remaining: usize,
    /// Running copies across the job — `occupied_slots()`.
    running_copies: usize,
    /// Running speculative copies across the job —
    /// `running_speculative_copies()`.
    running_speculative: usize,
    /// Exact integer sum of unfinished tasks' nominal work (ms) in
    /// eligible phases — the compute term of `alpha()`. Integer so that
    /// incremental updates reproduce the old f64 scan bit-for-bit (task
    /// works are integral millis and job totals stay far below 2^53).
    remaining_compute_ms: u64,
    /// Index of the first not-yet-eligible phase — the transfer term of
    /// `alpha()`.
    first_ineligible: Option<usize>,
    /// Pending, replica-local and running tasks.
    tasks: TaskIndex,
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
    pub(crate) completed_at: Option<SimTime>,
    /// Local / non-local launch counters for input-phase tasks (Figure 13).
    pub local_launches: usize,
    /// Non-local input-phase launches.
    pub nonlocal_launches: usize,
    /// Launches that left more than [`MAX_RUNNING_COPIES`] copies of
    /// their task running. Observational only: no decision reads it.
    pub over_limit_launches: usize,
    /// Every copy the job launched, in launch order. Each task's copies
    /// form a list through [`Copy::next`] from [`TaskRun`]'s first one,
    /// so copy `i` of a task (its [`CopyRef::copy`]) is the `i`-th of its
    /// list.
    arena: Vec<Copy>,
    /// Each task's DFS replica machines, by the task numbering of the
    /// flat index.
    replica_sets: ReplicaSets,
    /// Scripted durations of the leading input-phase tasks (the §3
    /// motivating example); they override the stochastic model. Empty
    /// for every generated job.
    scripted: Vec<ScriptedTask>,
    /// Incremental indices (pure caches; see [`JobIndex`]).
    idx: JobIndex,
}

impl JobRun {
    /// Instantiate runtime state for `spec` on a cluster, assigning DFS
    /// replicas for input-phase tasks from `rng`.
    pub fn new(spec: TraceJob, cfg: &ClusterConfig, rng: &mut StdRng) -> Self {
        let sampled = |p: &hopper_workload::TracePhase| p.reads_dfs_input && cfg.machines > 0;
        let n_tasks: usize = spec.phases.iter().map(|p| p.num_tasks()).sum();
        let replicated: usize = spec
            .phases
            .iter()
            .filter(|p| sampled(p))
            .map(|p| p.num_tasks())
            .sum();
        let mut replica_sets =
            ReplicaSets::with_capacity(n_tasks, replicated * cfg.dfs_replicas.min(cfg.machines));
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
                transfer_ms(upstream_mb / p.num_tasks() as f64)
            } else {
                0.0
            };
            let tasks = p
                .task_works
                .iter()
                .map(|&w| {
                    replica_sets.push_task(|machines| {
                        if sampled(p) {
                            sample_replicas(cfg, rng, machines);
                        }
                    });
                    TaskRun {
                        work: w,
                        finished_at: None,
                        running: 0,
                        first_copy: NO_COPY,
                    }
                })
                .collect();
            phases.push(PhaseRun {
                tasks,
                finished: 0,
                eligible: pi == 0 || p.upstream.is_empty(),
                transfer_ms_per_task,
                completed_duration_sum_ms: 0,
                completed_duration_count: 0,
            });
        }
        let mut job = JobRun {
            id: spec.id,
            spec,
            phases,
            completed_at: None,
            local_launches: 0,
            nonlocal_launches: 0,
            over_limit_launches: 0,
            arena: Vec::with_capacity(n_tasks),
            replica_sets,
            scripted: Vec::new(),
            idx: JobIndex::default(),
        };
        job.rebuild_index();
        job
    }

    /// Recompute every incremental index from scratch. Called at
    /// construction, by the rebuild-on-write mutators below, and by
    /// in-crate tests that reach into task state.
    pub(crate) fn rebuild_index(&mut self) {
        self.idx = self.scan_index();
    }

    /// Read-only view of the per-phase runtime state.
    pub fn phases(&self) -> &[PhaseRun] {
        &self.phases
    }

    /// Install scripted `(original_ms, speculative_ms)` durations for the
    /// leading tasks of the input phase — the §3 motivating example and
    /// the scripted scenario benches — replacing any earlier script. The
    /// scripts live in a side table no index reads.
    ///
    /// Panics if there are more scripts than input-phase tasks.
    pub fn script_single_phase(&mut self, scripts: &[(u64, u64)]) {
        assert!(
            scripts.len() <= self.phases.first().map_or(0, |p| p.num_tasks()),
            "more scripts than input-phase tasks"
        );
        self.scripted = scripts
            .iter()
            .map(|&(orig, spec)| ScriptedTask {
                original: SimTime::from_millis(orig),
                speculative: SimTime::from_millis(spec),
            })
            .collect();
    }

    /// The scripted durations of `task`, if it has any.
    fn scripted_task(&self, task: TaskRef) -> Option<ScriptedTask> {
        (task.phase == 0)
            .then(|| self.scripted.get(task.task).copied())
            .flatten()
    }

    /// Replace the DFS replica set of `task`, rebuilding the locality
    /// index (the machine → task CSR of `TaskIndex`) that depends on it.
    /// The sanctioned form of the replica rewrites scenario tests do.
    pub fn set_replicas(&mut self, task: TaskRef, replicas: &[MachineId]) {
        let g = self.idx.tasks.number(task);
        self.replica_sets.set(g, replicas);
        self.rebuild_index();
    }

    /// Machines holding `task`'s input (empty = no preference).
    pub fn replicas(&self, task: TaskRef) -> &[MachineId] {
        self.replica_sets.get(self.idx.tasks.number(task))
    }

    /// Arena positions of `task`'s copies, in launch order.
    fn copy_slots(&self, task: TaskRef) -> impl Iterator<Item = usize> + '_ {
        let mut k = self.phases[task.phase].tasks[task.task].first_copy;
        std::iter::from_fn(move || {
            (k != NO_COPY).then(|| {
                let at = k as usize;
                k = self.arena[at].next;
                at
            })
        })
    }

    /// Arena position of copy `c`. Panics if it was never launched.
    fn slot(&self, c: CopyRef) -> usize {
        self.copy_slots(c.task)
            .nth(c.copy)
            .expect("copy was launched")
    }

    /// One launched copy.
    pub fn copy(&self, c: CopyRef) -> &Copy {
        &self.arena[self.slot(c)]
    }

    /// Every copy of `task` launched so far, in launch order: the `i`-th
    /// is copy `i` of the task.
    pub fn copies(&self, task: TaskRef) -> impl Iterator<Item = &Copy> + '_ {
        self.copy_slots(task).map(|k| &self.arena[k])
    }

    /// Running copies of `task` by copy-status scan (the oracle of
    /// [`TaskRun::running_copies`]).
    fn scan_running_copies(&self, task: TaskRef) -> usize {
        self.copies(task)
            .filter(|c| c.status == CopyStatus::Running)
            .count()
    }

    /// Ground-truth form of [`TaskRun::needs_original`] by copy-status
    /// scan (the `scan_*` oracle family).
    fn scan_needs_original(&self, task: TaskRef) -> bool {
        !self.phases[task.phase].tasks[task.task].is_finished()
            && self.scan_running_copies(task) == 0
    }

    /// Ground-truth index state by full scan — the pre-index query code,
    /// retained as the oracle for `debug_assert!` cross-checks.
    fn scan_index(&self) -> JobIndex {
        let mut idx = JobIndex {
            current_remaining: self.scan_current_remaining(),
            total_remaining: self.scan_total_remaining(),
            running_copies: self.scan_occupied_slots(),
            running_speculative: self.scan_running_speculative_copies(),
            remaining_compute_ms: 0,
            first_ineligible: self.phases.iter().position(|p| !p.eligible),
            tasks: TaskIndex::scan(&self.phases, &self.replica_sets, |tr| {
                self.scan_running_copies(tr)
            }),
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
                if self.scan_running_copies(tr) == 1 {
                    let c = self
                        .copies(tr)
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
        for (pi, p) in self.phases.iter().enumerate() {
            for (ti, t) in p.tasks.iter().enumerate() {
                assert_eq!(
                    t.running_copies(),
                    self.scan_running_copies(TaskRef::new(pi, ti)),
                    "running-copy counter drifted (job {}, task {pi}.{ti})",
                    self.id
                );
            }
        }
    }

    /// Move `tr` into (`on`) or out of the pending index: at phase
    /// eligibility, first launch, and when a lost copy requeues it.
    fn index_set_pending(&mut self, tr: TaskRef, on: bool) {
        let g = self.idx.tasks.number(tr);
        self.idx.tasks.set_pending(g, self.replica_sets.get(g), on);
    }

    /// Mark `tr` running (it has a running copy) or not in the index.
    fn index_set_running(&mut self, tr: TaskRef, on: bool) {
        let g = self.idx.tasks.number(tr);
        self.idx.tasks.set_running(g, on);
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
    pub fn launch_copy(
        &mut self,
        task: TaskRef,
        machine: MachineId,
        speculative: bool,
        now: SimTime,
        delay: SimTime,
        rng: &mut StdRng,
    ) -> (CopyRef, SimTime) {
        self.launch_copy_at_speed(task, machine, speculative, now, delay, rng, 1.0)
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
        rng: &mut StdRng,
        speed: f64,
    ) -> (CopyRef, SimTime) {
        let unit = self.sample_unit_duration(task, machine, speculative, rng);
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
        rng: &mut StdRng,
    ) -> SimTime {
        let effective = self.phases[task.phase].effective_work(task.task);
        let replicas = self.replicas(task);
        let local = replicas.is_empty() || replicas.contains(&machine);
        match self.scripted_task(task) {
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
                    .min(MAX_STRAGGLE_FACTOR);
                let penalty = if local { 1.0 } else { REMOTE_READ_PENALTY };
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
        let phase = &self.phases[task.phase];
        assert!(phase.eligible, "launching into ineligible phase");
        let t = &phase.tasks[task.task];
        assert!(t.finished_at.is_none(), "launching a finished task");
        debug_assert!(
            !speculative || t.running > 0,
            "speculating on a task with no running copy"
        );
        // The task leaves the pending pool when it had no running copy —
        // on its very first launch, or on a re-dispatch after a machine
        // failure requeued it.
        let was_pending = t.running == 0;
        let replicas = self.replicas(task);
        if !replicas.is_empty() {
            if replicas.contains(&machine) {
                self.local_launches += 1;
            } else {
                self.nonlocal_launches += 1;
            }
        }
        // The previously solo running copy, which leaves the candidate
        // set if this launch makes the task's second running copy.
        let solo_finish = self
            .copies(task)
            .find(|c| c.status == CopyStatus::Running)
            .map(Copy::finish_time);
        // Append the copy to the arena and to the tail of its task's list.
        let (copy_idx, tail) = self
            .copy_slots(task)
            .fold((0, None), |(n, _), k| (n + 1, Some(k)));
        let at = u32::try_from(self.arena.len())
            .ok()
            .filter(|&at| at != NO_COPY)
            .expect("job copy count fits u32");
        self.arena.push(Copy {
            machine,
            start,
            duration,
            status: CopyStatus::Running,
            speculative,
            next: NO_COPY,
        });
        let t = &mut self.phases[task.phase].tasks[task.task];
        match tail {
            Some(k) => self.arena[k].next = at,
            None => t.first_copy = at,
        }
        t.running += 1;
        let running_now = t.running as usize;
        // Index maintenance: running totals, the solo-running set, and (on
        // the first copy) the running and pending-original structures.
        self.idx.running_copies += 1;
        self.idx.running_speculative += speculative as usize;
        if running_now > MAX_RUNNING_COPIES {
            self.over_limit_launches += 1;
        }
        match running_now {
            1 => {
                self.index_set_running(task, true);
                self.idx.solo_running.insert((start + duration, task));
            }
            2 => {
                let prev = solo_finish.expect("second running copy implies a first");
                self.idx.solo_running.remove(&(prev, task));
            }
            _ => {}
        }
        if was_pending {
            self.index_set_pending(task, false);
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
    /// running copy was lost becomes pending again (it re-enters the
    /// pending index and the locality indices), while its recorded
    /// copies stay (`Killed`), so duration statistics are untouched.
    /// [`JobRun::fail_machine`] applies it to a whole machine; the
    /// sharded engine applies it per loss notification. `None` when the
    /// copy is no longer running (its race resolved while the loss
    /// notification was in flight).
    pub fn lose_copy(&mut self, c: CopyRef) -> Option<CopyLoss> {
        if self.phases[c.task.phase].tasks[c.task.task].is_finished() {
            return None;
        }
        let k = self.slot(c);
        let lost = &mut self.arena[k];
        if lost.status != CopyStatus::Running {
            return None;
        }
        lost.status = CopyStatus::Killed;
        let speculative = lost.speculative;
        let killed_finish = lost.finish_time();
        let t = &mut self.phases[c.task.phase].tasks[c.task.task];
        let prev_running = t.running;
        t.running -= 1;
        let now_running = t.running;
        let survivor_finish = self
            .copies(c.task)
            .find(|cp| cp.status == CopyStatus::Running)
            .map(Copy::finish_time);
        self.idx.running_copies -= 1;
        self.idx.running_speculative -= speculative as usize;
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
            self.index_set_running(c.task, false);
            self.index_set_pending(c.task, true);
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
        let k = self.slot(c);
        let first = {
            let t = &self.phases[c.task.phase].tasks[c.task.task];
            if self.arena[k].status != CopyStatus::Running || t.finished_at.is_some() {
                return None;
            }
            t.first_copy
        };
        let winner = &mut self.arena[k];
        winner.status = CopyStatus::Finished;
        let duration = winner.duration;
        let winner_finish = winner.finish_time();
        let mut freed = InlineVec::new();
        freed.push(winner.machine);
        let mut speculative_stopped = winner.speculative as usize;
        let mut at = first;
        while at != NO_COPY {
            let sibling = &mut self.arena[at as usize];
            if sibling.status == CopyStatus::Running {
                sibling.status = CopyStatus::Killed;
                freed.push(sibling.machine);
                speculative_stopped += sibling.speculative as usize;
            }
            at = sibling.next;
        }
        let phase = &mut self.phases[c.task.phase];
        let t = &mut phase.tasks[c.task.task];
        let prev_running = t.running;
        t.finished_at = Some(now);
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
        self.idx.running_speculative -= speculative_stopped;
        self.index_set_running(c.task, false);
        self.idx.current_remaining -= 1;
        self.idx.total_remaining -= 1;
        self.idx.remaining_compute_ms -= work_ms;

        // Strict barrier: re-evaluate eligibility of downstream phases.
        let mut newly_eligible = InlineVec::new();
        for pi in 0..self.phases.len() {
            if self.phases[pi].eligible {
                continue;
            }
            let ready = self.spec.phases[pi].upstream.iter().all(|&u| {
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
            for (ti, _) in p.tasks.iter().enumerate().filter(|(_, t)| t.running > 0) {
                for (ci, c) in self.copies(TaskRef::new(pi, ti)).enumerate() {
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
            for (ti, t) in self.phases[pi].tasks.iter().enumerate() {
                if t.finished_at.is_some() || t.running == 0 {
                    continue;
                }
                let solo = t.running == 1;
                let (mut at, mut ci) = (t.first_copy, 0);
                while at != NO_COPY {
                    let c = &mut self.arena[at as usize];
                    at = c.next;
                    ci += 1;
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
                    resched.push((CopyRef::new(pi, ti, ci - 1), new_finish));
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
        let first = self.idx.tasks.number(TaskRef::new(pi, 0));
        for (ti, t) in p.tasks.iter().enumerate() {
            debug_assert!(!t.is_launched() && !t.is_finished());
            self.idx.remaining_compute_ms += t.work.as_millis();
            let g = first + ti;
            self.idx
                .tasks
                .set_pending(g, self.replica_sets.get(g), true);
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

    /// Currently running copies (slot occupancy of this job). O(1).
    pub fn occupied_slots(&self) -> usize {
        debug_assert_eq!(self.idx.running_copies, self.scan_occupied_slots());
        self.idx.running_copies
    }

    fn scan_occupied_slots(&self) -> usize {
        self.arena
            .iter()
            .filter(|c| c.status == CopyStatus::Running)
            .count()
    }

    /// Running speculative copies across the job (the in-flight count of
    /// speculation caps). O(1).
    pub fn running_speculative_copies(&self) -> usize {
        debug_assert_eq!(
            self.idx.running_speculative,
            self.scan_running_speculative_copies()
        );
        self.idx.running_speculative
    }

    fn scan_running_speculative_copies(&self) -> usize {
        self.arena
            .iter()
            .filter(|c| c.speculative && c.status == CopyStatus::Running)
            .count()
    }

    /// Pick the next original task to launch, preferring one whose input
    /// is local to `machine`. Returns the task and whether it is local.
    ///
    /// Via the flat pending index. The replaced scan visited tasks in
    /// `(phase, task)` order and returned at the first task that was
    /// either replica-free or local to `machine`; the index reproduces
    /// that by taking the minimum of the two ascending walks' heads.
    pub fn next_task_for(&self, machine: Option<MachineId>) -> Option<(TaskRef, bool)> {
        let tasks = &self.idx.tasks;
        let picked = match machine {
            Some(m) => {
                let no_pref = tasks.pending_no_replica().next();
                let local = tasks.pending_local(m).next();
                match (no_pref, local) {
                    (Some(a), Some(b)) => Some((a.min(b), true)),
                    (Some(a), None) => Some((a, true)),
                    (None, Some(b)) => Some((b, true)),
                    (None, None) => tasks.pending().next().map(|t| (t, false)),
                }
            }
            None => tasks
                .pending()
                .next()
                .map(|t| (t, self.replicas(t).is_empty())),
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
            for ti in 0..p.tasks.len() {
                let tr = TaskRef::new(pi, ti);
                if !self.scan_needs_original(tr) {
                    continue;
                }
                let replicas = self.replicas(tr);
                match machine {
                    Some(m) if !replicas.is_empty() => {
                        if replicas.contains(&m) {
                            return Some((tr, true));
                        }
                        if fallback.is_none() {
                            fallback = Some(tr);
                        }
                    }
                    _ => return Some((tr, replicas.is_empty())),
                }
            }
        }
        fallback.map(|tr| (tr, false))
    }

    /// Whether the job has a task that would be data-local on `machine`.
    /// O(log replica machines) via the replica CSR.
    pub fn has_local_task_for(&self, machine: MachineId) -> bool {
        let indexed = self.idx.tasks.has_local(machine);
        debug_assert_eq!(indexed, self.scan_has_local_task_for(machine));
        indexed
    }

    fn scan_has_local_task_for(&self, machine: MachineId) -> bool {
        self.phases.iter().enumerate().any(|(pi, p)| {
            p.eligible
                && !p.is_complete()
                && (0..p.tasks.len()).any(|ti| {
                    let tr = TaskRef::new(pi, ti);
                    self.scan_needs_original(tr) && self.replicas(tr).contains(&machine)
                })
        })
    }

    /// Machines holding a replica of at least one pending task, in
    /// ascending id order (the free-machine probe of the centralized
    /// driver's `launch_original` walks this instead of every machine).
    pub fn machines_with_local_pending(&self) -> impl Iterator<Item = MachineId> + '_ {
        self.idx.tasks.machines_with_local_pending()
    }

    /// First pending task with a replica on `machine`, if any.
    pub fn first_local_pending(&self, machine: MachineId) -> Option<TaskRef> {
        self.idx.tasks.pending_local(machine).next()
    }

    /// Whether any pending task has no replica set (such a task launches
    /// "locally" anywhere, so locality probes can stop at the first free
    /// machine).
    pub fn has_pending_no_replica(&self) -> bool {
        self.idx.tasks.has_pending_no_replica()
    }

    /// Number of pending tasks. O(1).
    pub fn pending_count(&self) -> usize {
        self.idx.tasks.pending_len()
    }

    /// Pending (unlaunched, eligible-phase) tasks in `(phase, task)` order.
    pub fn pending_tasks(&self) -> impl Iterator<Item = TaskRef> + '_ {
        self.idx.tasks.pending()
    }

    /// Pending tasks with no replica preference, in `(phase, task)` order.
    pub fn pending_no_replica_tasks(&self) -> impl Iterator<Item = TaskRef> + '_ {
        self.idx.tasks.pending_no_replica()
    }

    /// Pending tasks with a replica on `machine`, in `(phase, task)` order.
    pub fn pending_local_tasks(&self, machine: MachineId) -> impl Iterator<Item = TaskRef> + '_ {
        self.idx.tasks.pending_local(machine)
    }

    /// Observations of all running copies, for speculation policies, in
    /// `(phase, task, copy)` order, so each task's copies are adjacent.
    /// Walks the running-task bitset, not every task, and allocates
    /// nothing: the observations are computed as the caller iterates.
    pub fn observe_running(&self, now: SimTime) -> impl Iterator<Item = CopyObservation> + '_ {
        self.idx.tasks.running().flat_map(move |tr| {
            self.copies(tr)
                .enumerate()
                .filter(|(_, c)| c.status == CopyStatus::Running)
                .map(move |(ci, c)| {
                    let elapsed = now.saturating_sub(c.start);
                    CopyObservation {
                        copy: CopyRef::new(tr.phase, tr.task, ci),
                        machine: c.machine,
                        elapsed,
                        est_remaining: c.duration.saturating_sub(elapsed),
                        speculative: c.speculative,
                    }
                })
        })
    }

    /// Mean completed-copy duration across eligible phases (the scheduler's
    /// `t_new` estimate for a fresh copy), falling back to the phase's
    /// nominal work when nothing has completed yet. Scripted tasks report
    /// their scripted speculative duration (the §3 example's known `t_new`).
    pub fn estimated_new_copy_duration(&self, task: TaskRef) -> SimTime {
        if let Some(s) = self.scripted_task(task) {
            return s.speculative;
        }
        let p = &self.phases[task.phase];
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
            let running: Vec<CopyObservation> = self.observe_running(now).collect();
            for obs in running.chunk_by(|a, b| a.copy.task == b.copy.task) {
                let task = obs[0].copy.task;
                if obs.len() >= MAX_RUNNING_COPIES {
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
    /// remaining current-phase compute work (§4.2). O(1) via the compute
    /// counter and cached first-ineligible phase.
    pub fn alpha(&self) -> f64 {
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
    pub fn alpha_with_predicted_output(&self, mb_per_task: f64) -> f64 {
        let compute_ms = self.remaining_compute_ms_f64();
        let Some(pi) = self.idx.first_ineligible else {
            return 1.0;
        };
        let next = &self.phases[pi];
        let upstream_tasks: usize = self.spec.phases[pi]
            .upstream
            .iter()
            .map(|&u| self.phases[u].num_tasks())
            .sum();
        if next.num_tasks() == 0 {
            return 1.0;
        }
        let per_task_mb = mb_per_task.max(0.0) * upstream_tasks as f64 / next.num_tasks() as f64;
        let transfer = transfer_ms(per_task_mb) * next.remaining() as f64;
        if transfer <= 0.0 {
            1.0
        } else {
            alpha_from_work(transfer, compute_ms)
        }
    }
}

/// Sample `dfs_replicas` distinct machines onto the end of `machines`.
fn sample_replicas(cfg: &ClusterConfig, rng: &mut StdRng, machines: &mut Vec<MachineId>) {
    let k = cfg.dfs_replicas.min(cfg.machines);
    let base = machines.len();
    while machines.len() - base < k {
        let m = MachineId(rng.gen_range(0..cfg.machines));
        if !machines[base..].contains(&m) {
            machines.push(m);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopper_sim::rng_from_seed;
    use hopper_workload::single_phase_job;

    fn cfg() -> ClusterConfig {
        ClusterConfig {
            machines: 10,
            slots_per_machine: 2,
            ..Default::default()
        }
    }

    /// Unlaunched original tasks in eligible phases, by scan, checked
    /// against the pending index.
    fn pending_originals(j: &JobRun) -> usize {
        let scanned = all_tasks(j)
            .into_iter()
            .filter(|t| j.phases[t.phase].eligible && j.scan_needs_original(*t))
            .count();
        assert_eq!(j.pending_count(), scanned);
        scanned
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
            reads_dfs_input: false,
        });
        JobRun::new(spec, &cfg(), &mut rng_from_seed(3))
    }

    #[test]
    fn replicas_assigned_to_input_phase_only() {
        let j = two_phase_job();
        for ti in 0..j.phases[0].num_tasks() {
            let replicas = j.replicas(TaskRef::new(0, ti));
            assert_eq!(replicas.len(), 3);
            let mut sorted = replicas.to_vec();
            sorted.sort();
            sorted.dedup();
            assert_eq!(sorted.len(), 3, "replicas must be distinct");
        }
        for ti in 0..j.phases[1].num_tasks() {
            assert!(j.replicas(TaskRef::new(1, ti)).is_empty());
        }
    }

    #[test]
    fn downstream_phase_ineligible_until_upstream_done() {
        let mut j = two_phase_job();
        assert!(j.phases[0].eligible);
        assert!(!j.phases[1].eligible);
        assert_eq!(j.current_remaining(), 4);
        assert_eq!(j.total_remaining() - j.current_remaining(), 2);

        let mut rng = rng_from_seed(1);
        // Run all 4 upstream tasks to completion.
        let mut finish_times = Vec::new();
        for ti in 0..4 {
            let (cr, d) = j.launch_copy(
                TaskRef::new(0, ti),
                MachineId(0),
                false,
                SimTime::ZERO,
                SimTime::ZERO,
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
                assert_eq!(out.newly_eligible[..], [1]);
                assert!(out.phase_done);
                eligible_seen = true;
            }
        }
        assert!(eligible_seen);
        assert!(j.phases[1].eligible);
        assert_eq!(j.current_remaining(), 2);
        assert_eq!(j.total_remaining(), j.current_remaining());
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
        j.set_replicas(t0, &[MachineId(7)]);
        assert!(j.has_local_task_for(MachineId(7)));
        assert_eq!(j.first_local_pending(MachineId(7)), Some(t0));
        assert_eq!(j.replicas(t0), [MachineId(7)]);
        // Strip the replicas: the task must move to the no-replica set.
        j.set_replicas(t0, &[]);
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
            j.scripted_task(TaskRef::new(0, 0)).unwrap().original,
            SimTime::from_millis(123)
        );
        assert_eq!(
            j.scripted_task(TaskRef::new(0, 1)).unwrap().speculative,
            SimTime::from_millis(90)
        );
        // Scripts are index-neutral: pending counts unchanged.
        assert_eq!(j.current_remaining(), 2);
        assert_eq!(pending_originals(&j), 2);
    }

    #[test]
    fn race_kills_siblings_and_frees_slots() {
        let mut j = simple_job(1, 1000);
        let mut rng = rng_from_seed(2);
        let task = TaskRef::new(0, 0);
        let (orig, _) = j.launch_copy(
            task,
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &mut rng,
        );
        let (spec, _) = j.launch_copy(
            task,
            MachineId(1),
            true,
            SimTime::from_millis(100),
            SimTime::ZERO,
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
        let t0 = TaskRef::new(0, 0);
        let (c0, _) = j.launch_copy(
            t0,
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
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
        let (_, d0) = j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(d0, SimTime::from_millis(30_000));
        let (_, d0s) = j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(1),
            true,
            SimTime::from_millis(2000),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(d0s, SimTime::from_millis(10_000));
    }

    #[test]
    fn observation_progress_and_estimates() {
        let mut j = JobRun::scripted(0, SimTime::ZERO, &[(10_000, 5_000)]);
        let mut rng = rng_from_seed(5);
        j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &mut rng,
        );
        let copies: Vec<_> = j.observe_running(SimTime::from_millis(2_500)).collect();
        assert_eq!(copies.len(), 1);
        assert_eq!(copies[0].copy, CopyRef::new(0, 0, 0));
        assert_eq!(copies[0].est_remaining, SimTime::from_millis(7_500));
        assert_eq!(copies[0].elapsed, SimTime::from_millis(2_500));
    }

    #[test]
    fn next_task_prefers_local() {
        let mut j = simple_job(5, 1000);
        // Make task 3 local to machine 9, others not.
        for i in 0..5 {
            let m = if i == 3 { 9 } else { 0 };
            j.set_replicas(TaskRef::new(0, i), &[MachineId(m)]);
        }
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
        for i in 0..2 {
            j.set_replicas(TaskRef::new(0, i), &[MachineId(1)]);
        }
        let mut rng = rng_from_seed(2);
        j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(1),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &mut rng,
        );
        j.launch_copy(
            TaskRef::new(0, 1),
            MachineId(2),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(j.local_launches, 1);
        assert_eq!(j.nonlocal_launches, 1);
    }

    #[test]
    fn alpha_reflects_transfer_vs_compute() {
        let j = two_phase_job();
        // transfer = 800 ms × 2 tasks = 1600; compute = 4 × 1000 = 4000.
        let a = j.alpha();
        assert!((a - 0.4).abs() < 0.01, "alpha {a}");
        // Single-phase job: no downstream → α = 1.
        assert_eq!(simple_job(3, 500).alpha(), 1.0);
    }

    #[test]
    fn pending_and_remaining_counts() {
        let mut j = simple_job(3, 1000);
        assert_eq!(pending_originals(&j), 3);
        let mut rng = rng_from_seed(2);
        j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(pending_originals(&j), 2);
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
        let (c0, d0) = j.launch_copy(
            task,
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
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
        j.launch_copy(
            TaskRef::new(1, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &mut rng,
        );
    }

    #[test]
    fn fail_machine_requeues_sole_copy_tasks() {
        let mut j = simple_job(3, 1000);
        let mut rng = rng_from_seed(2);
        // Task 0 runs on machine 4, task 1 on machine 5.
        for (ti, m) in [(0usize, 4usize), (1, 5)] {
            j.launch_copy(
                TaskRef::new(0, ti),
                MachineId(m),
                false,
                SimTime::ZERO,
                SimTime::ZERO,
                &mut rng,
            );
        }
        assert_eq!(pending_originals(&j), 1);
        let out = j.fail_machine(MachineId(4));
        assert_eq!(out.killed, 1);
        assert_eq!(out.killed_spec, 0);
        assert_eq!(out.requeued, vec![TaskRef::new(0, 0)]);
        // The task is pending again and relaunchable.
        assert_eq!(pending_originals(&j), 2);
        assert_eq!(j.occupied_slots(), 1);
        assert!(j.pending_tasks().any(|t| t == TaskRef::new(0, 0)));
        let (copy, _) = j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(6),
            false,
            SimTime::from_millis(10),
            SimTime::ZERO,
            &mut rng,
        );
        assert_eq!(copy.copy, 1, "relaunch is a fresh copy of the same task");
        assert_eq!(pending_originals(&j), 1);
        // Unrelated machines are untouched.
        let none = j.fail_machine(MachineId(9));
        assert_eq!(none.killed, 0);
        assert!(none.requeued.is_empty());
    }

    #[test]
    fn fail_machine_with_speculative_sibling_keeps_task_running() {
        let mut j = simple_job(1, 1000);
        let mut rng = rng_from_seed(2);
        let task = TaskRef::new(0, 0);
        j.launch_copy(
            task,
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &mut rng,
        );
        let (spec, _) = j.launch_copy(
            task,
            MachineId(1),
            true,
            SimTime::from_millis(100),
            SimTime::ZERO,
            &mut rng,
        );
        // The original's machine dies; the speculative copy survives and
        // the task is NOT requeued.
        let out = j.fail_machine(MachineId(0));
        assert_eq!(out.killed, 1);
        assert!(out.requeued.is_empty());
        assert_eq!(j.occupied_slots(), 1);
        assert_eq!(pending_originals(&j), 0);
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
        let survivor = j.copy(CopyRef::new(0, 0, 1)).finish_time();
        let solo: Vec<_> = j.idx.solo_running.iter().copied().collect();
        assert_eq!(solo, vec![(survivor, t0)]);
        assert_eq!(j.pending_tasks().collect::<Vec<_>>(), vec![t1]);
        assert_eq!(pending_originals(&j), 1);
        assert_eq!(j.occupied_slots(), 1);
    }

    #[test]
    fn rescale_machine_stretches_remaining_time_only() {
        let mut j = JobRun::scripted(0, SimTime::ZERO, &[(10_000, 5_000)]);
        let mut rng = rng_from_seed(5);
        j.launch_copy(
            TaskRef::new(0, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
            &mut rng,
        );
        // At t = 4 s the machine halves its speed: 6 s remaining → 12 s.
        let now = SimTime::from_millis(4_000);
        let resched = j.rescale_machine(MachineId(0), now, 2.0);
        assert_eq!(resched.len(), 1);
        assert_eq!(resched[0].1, SimTime::from_millis(16_000));
        let cp = j.copy(CopyRef::new(0, 0, 0));
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
        for ti in 0..2 {
            j.launch_copy(
                TaskRef::new(0, ti),
                MachineId(ti),
                false,
                SimTime::ZERO,
                SimTime::ZERO,
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
        let (_, d_slow) = j.launch_copy_at_speed(
            TaskRef::new(0, 0),
            MachineId(0),
            false,
            SimTime::ZERO,
            SimTime::ZERO,
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
                    &mut rng,
                );
                max = max.max(d.as_millis() as f64 / 1000.0);
            }
            max
        };
        assert!(max_mult(1.1, 10) > max_mult(1.9, 10));
    }

    /// A random multi-phase job on `machines` machines: up to four
    /// phases of up to `max_tasks` tasks (zero-task phases included),
    /// each downstream phase reading a random subset of earlier ones, and
    /// replica sets drawn from a small shared pool that holds an empty
    /// set.
    fn random_job(rng: &mut StdRng, machines: usize, max_tasks: usize) -> JobRun {
        let n_phases = rng.gen_range(1..=4usize);
        let phases = (0..n_phases)
            .map(|pi| hopper_workload::TracePhase {
                task_works: vec![SimTime::from_millis(1000); rng.gen_range(0..=max_tasks)],
                upstream: (0..pi).filter(|_| rng.gen_bool(0.5)).collect(),
                output_mb_per_task: 1.0,
                reads_dfs_input: rng.gen_bool(0.7),
            })
            .collect();
        let spec = TraceJob {
            phases,
            ..single_phase_job(0, SimTime::ZERO, Vec::new(), 1.5)
        };
        let c = ClusterConfig {
            machines,
            ..Default::default()
        };
        let mut j = JobRun::new(spec, &c, rng);
        let pool: Vec<Vec<MachineId>> = (0..4)
            .map(|k| {
                (0..k)
                    .map(|_| MachineId(rng.gen_range(0..machines)))
                    .collect()
            })
            .collect();
        for tr in all_tasks(&j) {
            if rng.gen_bool(0.3) {
                j.set_replicas(tr, &pool[rng.gen_range(0..pool.len())]);
            }
        }
        j
    }

    fn all_tasks(j: &JobRun) -> Vec<TaskRef> {
        let phases = j.phases.iter().enumerate();
        phases
            .flat_map(|(pi, p)| (0..p.tasks.len()).map(move |ti| TaskRef::new(pi, ti)))
            .collect()
    }

    fn running_copies(j: &JobRun) -> Vec<CopyRef> {
        let mut out = Vec::new();
        for tr in all_tasks(j) {
            for (ci, c) in j.copies(tr).enumerate() {
                if c.status == CopyStatus::Running {
                    out.push(CopyRef::new(tr.phase, tr.task, ci));
                }
            }
        }
        out
    }

    /// Every flat-index query against its scan: the two `next_task_for`
    /// forms, the pending iterators, the locality queries on `probe`
    /// machines, `observe_running`'s order and the speculative count.
    fn check_queries(j: &JobRun, probe: &[MachineId], now: SimTime) {
        assert!(j.idx == j.scan_index(), "index drifted from its scan");
        let pending: Vec<TaskRef> = all_tasks(j)
            .into_iter()
            .filter(|t| j.phases[t.phase].eligible)
            .filter(|t| j.scan_needs_original(*t))
            .collect();
        let replicas = |t: &TaskRef| j.replicas(*t);
        assert_eq!(j.pending_tasks().collect::<Vec<_>>(), pending);
        assert_eq!(j.pending_count(), pending.len());
        let no_replica: Vec<TaskRef> = pending
            .iter()
            .copied()
            .filter(|t| replicas(t).is_empty())
            .collect();
        assert_eq!(j.pending_no_replica_tasks().collect::<Vec<_>>(), no_replica);
        assert_eq!(j.has_pending_no_replica(), !no_replica.is_empty());
        let mut with_local: Vec<MachineId> = pending
            .iter()
            .flat_map(|t| replicas(t).iter().copied())
            .collect();
        with_local.sort();
        with_local.dedup();
        assert_eq!(
            j.machines_with_local_pending().collect::<Vec<_>>(),
            with_local
        );
        assert_eq!(j.next_task_for(None), j.scan_next_task_for(None));
        for &m in probe {
            let local: Vec<TaskRef> = pending
                .iter()
                .copied()
                .filter(|t| replicas(t).contains(&m))
                .collect();
            assert_eq!(j.pending_local_tasks(m).collect::<Vec<_>>(), local);
            assert_eq!(j.first_local_pending(m), local.first().copied());
            assert_eq!(j.has_local_task_for(m), j.scan_has_local_task_for(m));
            assert_eq!(j.next_task_for(Some(m)), j.scan_next_task_for(Some(m)));
        }
        let observed: Vec<CopyRef> = j.observe_running(now).map(|o| o.copy).collect();
        assert_eq!(observed, running_copies(j));
        assert_eq!(
            j.running_speculative_copies(),
            j.scan_running_speculative_copies()
        );
    }

    /// Random launch / finish / loss / machine-failure / rescale /
    /// replica-rewrite sequences on one random job, every query checked
    /// against its scan after every step.
    fn flat_index_differential(seed: u64, machines: usize, max_tasks: usize, steps: usize) {
        let mut rng = rng_from_seed(seed);
        let mut j = random_job(&mut rng, machines, max_tasks);
        let mut now = SimTime::ZERO;
        let all_machines: Vec<MachineId> = (0..machines).map(MachineId).collect();
        for _ in 0..steps {
            now += SimTime::from_millis(rng.gen_range(1..100));
            let m = MachineId(rng.gen_range(0..machines));
            let running = running_copies(&j);
            let pick = |rng: &mut StdRng| running[rng.gen_range(0..running.len())];
            match rng.gen_range(0..10) {
                0..=3 => {
                    let open: Vec<TaskRef> = all_tasks(&j)
                        .into_iter()
                        .filter(|t| j.phases[t.phase].eligible)
                        .filter(|t| !j.phases[t.phase].tasks[t.task].is_finished())
                        .collect();
                    if let Some(&t) = open.get(rng.gen_range(0..open.len().max(1))) {
                        let speculative = j.phases[t.phase].tasks[t.task].running > 0;
                        let d = SimTime::from_millis(rng.gen_range(1..5000));
                        j.launch_copy_prepared(t, m, speculative, now, d);
                    }
                }
                4 | 5 if !running.is_empty() => {
                    j.finish_copy(pick(&mut rng), now).expect("running copy");
                }
                6 if !running.is_empty() => {
                    j.lose_copy(pick(&mut rng)).expect("running copy");
                }
                7 => {
                    j.fail_machine(m);
                }
                8 => {
                    let tasks = all_tasks(&j);
                    if !tasks.is_empty() {
                        let t = tasks[rng.gen_range(0..tasks.len())];
                        let k = rng.gen_range(0..=3usize);
                        let replicas: Vec<MachineId> = (0..k)
                            .map(|_| MachineId(rng.gen_range(0..machines)))
                            .collect();
                        j.set_replicas(t, &replicas);
                    }
                }
                9 => {
                    j.rescale_machine(m, now, if rng.gen_bool(0.5) { 0.5 } else { 2.0 });
                }
                _ => {}
            }
            if machines <= 16 {
                check_queries(&j, &all_machines, now);
            } else {
                let probe: Vec<MachineId> = (0..8)
                    .map(|_| MachineId(rng.gen_range(0..machines)))
                    .chain([m])
                    .collect();
                check_queries(&j, &probe, now);
            }
        }
    }

    proptest::proptest! {
        #[test]
        fn flat_index_matches_the_scans(seed in 0u64..u64::MAX) {
            flat_index_differential(seed, 6, 12, 120);
        }
    }

    /// Benchmark-sized jobs on 2,000 machines (run in release by CI).
    #[test]
    #[ignore]
    fn flat_index_matches_the_scans_at_scale() {
        for seed in 0..40 {
            flat_index_differential(seed, 2000, 400, 1500);
        }
    }
}
