//! Trace data model: the jobs a simulation will replay.
//!
//! A [`Trace`] is an ordered list of [`TraceJob`]s, each with an arrival
//! time and a DAG of [`TracePhase`]s. The model mirrors what the paper
//! retains from the Facebook/Bing production traces (§7.1): "the
//! inter-arrival times of jobs, their input sizes and number of tasks,
//! resource demands, and job DAGs of tasks".

use hopper_sim::SimTime;

/// Identifier of a job within a trace (its index in [`Trace::jobs`]).
pub(crate) type JobId = usize;

/// One phase (stage) of a job: a set of parallel tasks plus how the phase
/// connects upstream.
#[derive(Debug, Clone)]
pub struct TracePhase {
    /// Nominal work (expected duration) of each task in this phase.
    pub task_works: Vec<SimTime>,
    /// Indices (into the job's `phases`) of the phases this one reads from.
    /// Empty for input phases. Phases must be topologically ordered: every
    /// upstream index is smaller than this phase's own index.
    pub upstream: Vec<usize>,
    /// Intermediate data produced per task, in MB, consumed by downstream
    /// phases (0 for leaf phases).
    pub output_mb_per_task: f64,
    /// Whether this phase's tasks read distributed-filesystem input and thus
    /// have placement (locality) preferences. Typically true only for phase
    /// 0 (map/input phases).
    pub reads_dfs_input: bool,
}

impl TracePhase {
    /// Number of tasks in the phase.
    pub fn num_tasks(&self) -> usize {
        self.task_works.len()
    }

    /// Total nominal work of the phase in milliseconds.
    pub fn total_work_ms(&self) -> u64 {
        self.task_works.iter().map(|w| w.as_millis()).sum()
    }
}

/// A job: arrival time plus a DAG of phases.
#[derive(Debug, Clone)]
pub struct TraceJob {
    /// Identifier (index within the trace).
    pub id: JobId,
    /// Arrival (submission) time.
    pub arrival: SimTime,
    /// Phases in topological order; `phases[0]` is the input phase.
    pub phases: Vec<TracePhase>,
    /// Pareto tail index of this job's task-duration multiplier. The paper
    /// notes jobs from different applications have heterogeneous β.
    pub beta: f64,
    /// Recurring-job template: jobs with the same template produce similar
    /// intermediate data volumes; the α estimator learns per template
    /// (paper §6.3). `None` for one-off jobs.
    pub template: Option<u32>,
    /// Scheduling weight (1.0 unless weighted fairness is being exercised).
    pub weight: f64,
}

impl TraceJob {
    /// Total number of tasks across all phases.
    pub fn num_tasks(&self) -> usize {
        self.phases.iter().map(|p| p.num_tasks()).sum()
    }

    /// Number of tasks in the input phase — the paper's "job size" used for
    /// binning (Figure 7).
    pub fn size_tasks(&self) -> usize {
        self.phases.first().map_or(0, |p| p.num_tasks())
    }

    /// Total nominal work in milliseconds (sum over all tasks).
    pub fn total_work_ms(&self) -> u64 {
        self.phases.iter().map(|p| p.total_work_ms()).sum()
    }

    /// Number of phases — the paper's "DAG length" (Figures 8b, 12b).
    pub fn dag_len(&self) -> usize {
        self.phases.len()
    }

    /// Validate topological ordering of phases; panics on violation.
    /// Used by generators and scripted-scenario builders in tests.
    pub(crate) fn assert_well_formed(&self) {
        assert!(!self.phases.is_empty(), "job {} has no phases", self.id);
        assert!(self.beta > 1.0, "job {} beta must be > 1", self.id);
        for (i, p) in self.phases.iter().enumerate() {
            assert!(!p.task_works.is_empty(), "job {} phase {i} empty", self.id);
            for &u in &p.upstream {
                assert!(
                    u < i,
                    "job {} phase {i} upstream {u} not topological",
                    self.id
                );
            }
        }
    }
}

/// An entire workload: jobs sorted by arrival time.
#[derive(Debug, Clone, Default)]
pub struct Trace {
    /// The jobs, sorted by nondecreasing arrival time; `jobs[i].id == i`.
    pub jobs: Vec<TraceJob>,
}

impl Trace {
    /// Build a trace from jobs, sorting by arrival and re-assigning ids to
    /// match positions.
    pub fn new(mut jobs: Vec<TraceJob>) -> Self {
        jobs.sort_by_key(|j| j.arrival);
        for (i, j) in jobs.iter_mut().enumerate() {
            j.id = i;
        }
        Trace { jobs }
    }

    /// Number of jobs.
    pub fn len(&self) -> usize {
        self.jobs.len()
    }

    /// Whether the trace is empty.
    pub fn is_empty(&self) -> bool {
        self.jobs.is_empty()
    }

    /// Sum of nominal work across all jobs, in slot-milliseconds.
    pub fn total_work_ms(&self) -> u64 {
        self.jobs.iter().map(|j| j.total_work_ms()).sum()
    }

    /// Time of the last arrival.
    pub fn makespan_lower_bound(&self) -> SimTime {
        self.jobs.last().map_or(SimTime::ZERO, |j| j.arrival)
    }

    /// The average offered load against `total_slots` over the arrival
    /// window, i.e. `total work / (slots × window)`. This is the
    /// "utilization" knob of the paper's §7 (60–90%).
    pub fn offered_utilization(&self, total_slots: usize) -> f64 {
        let window = self.makespan_lower_bound().as_millis().max(1);
        self.total_work_ms() as f64 / (total_slots as f64 * window as f64)
    }
}

/// Convenience builder for single-phase jobs, used widely in tests and in
/// the motivating-example bench.
pub fn single_phase_job(
    id: JobId,
    arrival: SimTime,
    task_works: Vec<SimTime>,
    beta: f64,
) -> TraceJob {
    TraceJob {
        id,
        arrival,
        phases: vec![TracePhase {
            task_works,
            upstream: vec![],
            output_mb_per_task: 0.0,
            reads_dfs_input: true,
        }],
        beta,
        template: None,
        weight: 1.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn job(arrival_ms: u64, works: &[u64]) -> TraceJob {
        single_phase_job(
            0,
            SimTime::from_millis(arrival_ms),
            works.iter().map(|&w| SimTime::from_millis(w)).collect(),
            1.5,
        )
    }

    #[test]
    fn trace_sorts_and_reassigns_ids() {
        let t = Trace::new(vec![job(50, &[10]), job(10, &[20]), job(30, &[5])]);
        let arrivals: Vec<u64> = t.jobs.iter().map(|j| j.arrival.as_millis()).collect();
        assert_eq!(arrivals, vec![10, 30, 50]);
        let ids: Vec<usize> = t.jobs.iter().map(|j| j.id).collect();
        assert_eq!(ids, vec![0, 1, 2]);
    }

    #[test]
    fn job_accessors() {
        let j = job(0, &[10, 20, 30]);
        assert_eq!(j.num_tasks(), 3);
        assert_eq!(j.size_tasks(), 3);
        assert_eq!(j.total_work_ms(), 60);
        assert_eq!(j.dag_len(), 1);
        j.assert_well_formed();
    }

    #[test]
    fn offered_utilization_math() {
        // 2 jobs, 100ms work each, arrivals at 0 and 100ms, 2 slots:
        // window = 100ms, work = 200 slot-ms, util = 200/(2*100) = 1.0.
        let t = Trace::new(vec![job(0, &[100]), job(100, &[100])]);
        assert!((t.offered_utilization(2) - 1.0).abs() < 1e-9);
    }

    #[test]
    #[should_panic(expected = "not topological")]
    fn bad_topology_panics() {
        let mut j = job(0, &[10]);
        j.phases.push(TracePhase {
            task_works: vec![SimTime::from_millis(5)],
            upstream: vec![5],
            output_mb_per_task: 0.0,
            reads_dfs_input: false,
        });
        j.assert_well_formed();
    }

    #[test]
    fn multi_phase_totals() {
        let mut j = job(0, &[10, 10]);
        j.phases.push(TracePhase {
            task_works: vec![SimTime::from_millis(7); 4],
            upstream: vec![0],
            output_mb_per_task: 1.0,
            reads_dfs_input: false,
        });
        assert_eq!(j.num_tasks(), 6);
        assert_eq!(j.size_tasks(), 2);
        assert_eq!(j.total_work_ms(), 48);
        assert_eq!(j.dag_len(), 2);
    }

    #[test]
    fn empty_trace() {
        let t = Trace::default();
        assert!(t.is_empty());
        assert_eq!(t.len(), 0);
        assert_eq!(t.makespan_lower_bound(), SimTime::ZERO);
    }
}
