//! Straggler-mitigation (speculation) policies.
//!
//! The paper evaluates Hopper paired with three published speculation
//! algorithms (§7.2, Figure 9) and stresses that its gains come from
//! *coordinating* scheduling with speculation, not from improving the
//! algorithms themselves. This crate implements the decision rules of all
//! three, plus the simple threshold rule of the §3 motivating example:
//!
//! - [`Speculator::Late`] — LATE (Zaharia et al., OSDI '08): speculate the
//!   task with the Longest Approximate Time to End, among tasks whose
//!   progress rate falls below a slow-task percentile, subject to a cap on
//!   concurrent speculative copies.
//! - [`Speculator::Mantri`] — Mantri (Ananthanarayanan et al., OSDI '10):
//!   resource-aware restarts — clone only when the remaining time is large
//!   against *two* new-copy durations (`t_rem > 2·t_new`), so a copy saves
//!   both time and resources.
//! - [`Speculator::Grass`] — GRASS (NSDI '14): adaptively switches between
//!   resource-aware (Mantri-like) speculation early in a job and greedy
//!   (`t_rem > t_new`) speculation near the end, where trimming the last
//!   stragglers dominates completion time.
//! - [`Speculator::SimpleThreshold`] — the §3 example rule: after a copy
//!   has run `detect_after`, speculate iff `t_rem > t_new`.
//! - [`Speculator::None`] — never speculates (pure-scheduling baselines).
//!
//! Policies are *advisory*: they return a prioritized candidate list; the
//! job scheduler decides whether slots exist to act on it. That split is
//! exactly the paper's architecture (speculation proposes, scheduling
//! disposes).

use hopper_cluster::{CopyObservation, JobRun, TaskRef, MAX_RUNNING_COPIES};
use hopper_sim::SimTime;

/// LATE's slow-task threshold: a task is "slow" if its best running
/// copy's progress rate is below this percentile of the job's running
/// copies' rates (LATE's SlowTaskThreshold, 25th percentile).
const SLOW_PERCENTILE: f64 = 0.25;

/// GRASS switches from resource-aware to greedy speculation once the
/// remaining fraction of the job's tasks is at most this value.
const GRASS_SWITCH_FRACTION: f64 = 0.2;

/// Shared knobs for the speculation policies. The per-task copy limit
/// is [`MAX_RUNNING_COPIES`] for every policy.
#[derive(Debug, Clone)]
pub struct SpecConfig {
    /// Minimum elapsed time before a copy's progress is judged (LATE's
    /// warm-up; the §3 example uses 2 time units).
    pub min_elapsed: SimTime,
    /// Cap on concurrently running speculative copies, as a fraction of
    /// the job's total tasks (LATE's speculativeCap).
    pub spec_cap_fraction: f64,
}

impl Default for SpecConfig {
    fn default() -> Self {
        SpecConfig {
            min_elapsed: SimTime::from_millis(500),
            spec_cap_fraction: 0.15,
        }
    }
}

/// A task the policy wants to speculate, with its urgency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Candidate {
    /// The straggling task.
    pub task: TaskRef,
    /// Estimated remaining time of its best current copy (priority:
    /// longest first).
    pub est_remaining: SimTime,
}

/// A speculation policy instance.
#[derive(Debug, Clone)]
pub enum Speculator {
    /// LATE: slow-percentile gate + longest-time-to-end priority.
    Late(SpecConfig),
    /// Mantri: resource-aware `t_rem > 2·t_new`.
    Mantri(SpecConfig),
    /// GRASS: Mantri-like early, LATE-greedy near job completion.
    Grass(SpecConfig),
    /// Fixed-threshold rule of the §3 example (`detect_after` warm-up,
    /// speculate iff `t_rem > t_new`).
    SimpleThreshold {
        /// Warm-up before judging a copy.
        detect_after: SimTime,
    },
    /// Never speculate.
    None,
}

impl Speculator {
    /// Human-readable policy name (appears in experiment tables).
    pub fn name(&self) -> &'static str {
        match self {
            Speculator::Late(_) => "LATE",
            Speculator::Mantri(_) => "Mantri",
            Speculator::Grass(_) => "GRASS",
            Speculator::SimpleThreshold { .. } => "SimpleThreshold",
            Speculator::None => "None",
        }
    }

    /// Prioritized speculation candidates for `job` at `now` (best first).
    ///
    /// A task qualifies only if it has fewer than [`MAX_RUNNING_COPIES`]
    /// running copies and its estimated benefit satisfies the policy's rule;
    /// the returned order is descending estimated remaining time.
    pub fn candidates(&self, job: &JobRun, now: SimTime) -> Vec<Candidate> {
        match self {
            Speculator::None => Vec::new(),
            Speculator::SimpleThreshold { detect_after } => {
                let mut out = base_candidates(job, now, *detect_after, |rem, new| rem > new);
                sort_desc(&mut out);
                out
            }
            Speculator::Mantri(cfg) => {
                let mut out = base_candidates(job, now, cfg.min_elapsed, |rem, new| {
                    rem.as_millis() > 2 * new.as_millis()
                });
                sort_desc(&mut out);
                cap(out, job, cfg)
            }
            Speculator::Grass(cfg) => {
                let total = job.spec.num_tasks().max(1);
                let remaining_frac = job.total_remaining() as f64 / total as f64;
                let greedy = remaining_frac <= GRASS_SWITCH_FRACTION;
                let mut out = base_candidates(job, now, cfg.min_elapsed, |rem, new| {
                    if greedy {
                        rem > new
                    } else {
                        rem.as_millis() > 2 * new.as_millis()
                    }
                });
                sort_desc(&mut out);
                cap(out, job, cfg)
            }
            Speculator::Late(cfg) => {
                let running = job.observe_running(now);
                // Progress rates (1/est-total-duration) of every running
                // original copy, for the slow-task percentile.
                let mut rates: Vec<f64> = running
                    .iter()
                    .filter(|o| !o.speculative && o.elapsed >= cfg.min_elapsed)
                    .map(rate_of)
                    .collect();
                rates.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let slow_threshold = if rates.len() >= 4 {
                    Some(
                        rates[((rates.len() as f64 * SLOW_PERCENTILE) as usize)
                            .min(rates.len() - 1)],
                    )
                } else {
                    Option::None // too few samples: rely on the benefit test
                };

                let mut out = Vec::new();
                for obs in by_task(&running) {
                    if obs.len() >= MAX_RUNNING_COPIES {
                        continue;
                    }
                    let task = obs[0].copy.task;
                    let best = best_observation(obs);
                    if best.elapsed < cfg.min_elapsed {
                        continue;
                    }
                    if let Some(thr) = slow_threshold {
                        // Strictly-below keeps ties (uniform durations) out.
                        if rate_of(best) >= thr * (1.0 + 1e-12) {
                            continue;
                        }
                    }
                    let t_new = job.estimated_new_copy_duration(task);
                    if best.est_remaining > t_new {
                        out.push(Candidate {
                            task,
                            est_remaining: best.est_remaining,
                        });
                    }
                }
                sort_desc(&mut out);
                cap(out, job, cfg)
            }
        }
    }
}

/// Progress rate of a copy observation (fraction per ms).
fn rate_of(o: &CopyObservation) -> f64 {
    let total = o.elapsed.as_millis() + o.est_remaining.as_millis();
    if total == 0 {
        f64::INFINITY
    } else {
        1.0 / total as f64
    }
}

/// `observe_running`'s observations split into one slice per task.
fn by_task(running: &[CopyObservation]) -> impl Iterator<Item = &[CopyObservation]> {
    running.chunk_by(|a, b| a.copy.task == b.copy.task)
}

/// The copy that will finish soonest (the task's best hope).
fn best_observation(obs: &[CopyObservation]) -> &CopyObservation {
    obs.iter()
        .min_by_key(|o| o.est_remaining)
        .expect("by_task never yields an empty slice")
}

/// Candidates satisfying `benefit(t_rem, t_new)` after `min_elapsed`.
fn base_candidates(
    job: &JobRun,
    now: SimTime,
    min_elapsed: SimTime,
    benefit: impl Fn(SimTime, SimTime) -> bool,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for obs in by_task(&job.observe_running(now)) {
        if obs.len() >= MAX_RUNNING_COPIES {
            continue;
        }
        let task = obs[0].copy.task;
        let best = best_observation(obs);
        if best.elapsed < min_elapsed {
            continue;
        }
        let t_new = job.estimated_new_copy_duration(task);
        if benefit(best.est_remaining, t_new) {
            out.push(Candidate {
                task,
                est_remaining: best.est_remaining,
            });
        }
    }
    out
}

/// Sort candidates by descending estimated remaining time (ties by task id
/// for determinism).
fn sort_desc(out: &mut [Candidate]) {
    out.sort_by(|a, b| {
        b.est_remaining
            .cmp(&a.est_remaining)
            .then(a.task.cmp(&b.task))
    });
}

/// Apply the concurrent-speculation cap: at most
/// `ceil(spec_cap_fraction × job tasks)` speculative copies in flight.
fn cap(out: Vec<Candidate>, job: &JobRun, cfg: &SpecConfig) -> Vec<Candidate> {
    let cap = ((job.spec.num_tasks() as f64 * cfg.spec_cap_fraction).ceil() as usize).max(1);
    let budget = cap.saturating_sub(job.running_speculative_copies());
    out.into_iter().take(budget).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use hopper_cluster::{ClusterConfig, MachineId};
    use hopper_sim::rng_from_seed;
    use hopper_workload::single_phase_job;

    fn cluster_cfg() -> ClusterConfig {
        ClusterConfig {
            machines: 20,
            slots_per_machine: 4,
            ..Default::default()
        }
    }

    /// Job with scripted tasks: durations (orig, new) per task.
    fn scripted(tasks: &[(u64, u64)]) -> JobRun {
        JobRun::scripted(0, SimTime::ZERO, tasks)
    }

    /// Launch originals for every task at t=0 on distinct machines.
    fn launch_all(job: &mut JobRun) {
        let cfg = cluster_cfg();
        let mut rng = rng_from_seed(1);
        for ti in 0..job.phases()[0].tasks.len() {
            job.launch_copy(
                TaskRef::new(0, ti),
                MachineId(ti % cfg.machines),
                false,
                SimTime::ZERO,
                SimTime::ZERO,
                &mut rng,
            );
        }
    }

    #[test]
    fn none_policy_never_speculates() {
        let mut job = scripted(&[(10_000, 1_000); 4]);
        launch_all(&mut job);
        assert!(Speculator::None
            .candidates(&job, SimTime::from_millis(9_000))
            .is_empty());
    }

    #[test]
    fn simple_threshold_matches_motivating_example() {
        // Job A of §3: tasks (10,10), (10,10), (10,10), (30,10) — time
        // units are seconds there, ms here. At t=2s, A4 has
        // t_rem = 28 > t_new = 10 → candidate; A1–A3 have t_rem = 8 < 10.
        let mut job = scripted(&[
            (10_000, 10_000),
            (10_000, 10_000),
            (10_000, 10_000),
            (30_000, 10_000),
        ]);
        launch_all(&mut job);
        let pol = Speculator::SimpleThreshold {
            detect_after: SimTime::from_millis(2_000),
        };
        // Before the detection delay: nothing.
        assert!(pol.candidates(&job, SimTime::from_millis(1_000)).is_empty());
        let cands = pol.candidates(&job, SimTime::from_millis(2_000));
        assert_eq!(cands.len(), 1);
        assert_eq!(cands[0].task, TaskRef::new(0, 3));
        assert_eq!(cands[0].est_remaining, SimTime::from_millis(28_000));
    }

    #[test]
    fn mantri_requires_double_benefit() {
        // t_new = 10s. At t = 10s: task 0 has t_rem 15s (< 2×10 → no),
        // task 1 has 25s (yes), task 2 already finished.
        let mut job = scripted(&[(25_000, 10_000), (35_000, 10_000), (10_000, 10_000)]);
        launch_all(&mut job);
        let pol = Speculator::Mantri(SpecConfig::default());
        let cands = pol.candidates(&job, SimTime::from_millis(10_000));
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].task, TaskRef::new(0, 1));
    }

    #[test]
    fn grass_switches_to_greedy_near_the_end() {
        // 5 tasks: all unfinished → remaining fraction 1.0 > 0.2 →
        // resource-aware mode → task 0's t_rem 15s < 2×10s: no candidates.
        let mut job = scripted(&[
            (25_000, 10_000),
            (11_000, 10_000),
            (11_000, 10_000),
            (11_000, 10_000),
            (11_000, 10_000),
        ]);
        launch_all(&mut job);
        let pol = Speculator::Grass(SpecConfig::default());
        assert!(pol
            .candidates(&job, SimTime::from_millis(10_000))
            .is_empty());

        // Finish tasks 1–3 → remaining fraction 0.4 > 0.2: still
        // resource-aware, task 0's t_rem 14s < 20s.
        let t = SimTime::from_millis(11_000);
        for ti in 1..4 {
            assert!(job
                .finish_copy(hopper_cluster::CopyRef::new(0, ti, 0), t)
                .is_some());
        }
        assert!(pol.candidates(&job, t).is_empty());

        // Finish task 4 → remaining fraction 0.2 ≤ GRASS_SWITCH_FRACTION →
        // greedy mode → task 0's t_rem 14s > 10s: candidate.
        assert!(job
            .finish_copy(hopper_cluster::CopyRef::new(0, 4, 0), t)
            .is_some());
        let cands = pol.candidates(&job, t);
        assert_eq!(cands.len(), 1, "{cands:?}");
        assert_eq!(cands[0].task, TaskRef::new(0, 0));
    }

    #[test]
    fn late_gates_on_slow_percentile_and_orders_by_time_left() {
        // 8 tasks of 10s and two stragglers (60s, 40s). At t=5s the
        // stragglers' rates are far below the 25th percentile.
        let mut tasks = vec![(10_000u64, 10_000u64); 8];
        tasks.push((60_000, 10_000));
        tasks.push((40_000, 10_000));
        let mut job = scripted(&tasks);
        launch_all(&mut job);
        let pol = Speculator::Late(SpecConfig {
            min_elapsed: SimTime::from_millis(1_000),
            ..Default::default()
        });
        let cands = pol.candidates(&job, SimTime::from_millis(5_000));
        assert_eq!(cands.len(), 2, "{cands:?}");
        // Longest time-to-end first.
        assert_eq!(cands[0].task, TaskRef::new(0, 8));
        assert_eq!(cands[1].task, TaskRef::new(0, 9));
    }

    #[test]
    fn late_respects_spec_cap() {
        let mut tasks = vec![(10_000u64, 10_000u64); 10];
        tasks.extend([(90_000, 10_000); 10]);
        let mut job = scripted(&tasks);
        launch_all(&mut job);
        let pol = Speculator::Late(SpecConfig {
            spec_cap_fraction: 0.1, // cap = ceil(20×0.1) = 2
            min_elapsed: SimTime::from_millis(1_000),
        });
        let cands = pol.candidates(&job, SimTime::from_millis(5_000));
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn max_copies_per_task_blocks_respeculation() {
        // A wide speculation cap, so that only the per-task copy limit can
        // keep task 0 out once it runs MAX_RUNNING_COPIES copies.
        let cfg = SpecConfig {
            spec_cap_fraction: 1.0,
            ..Default::default()
        };
        let policies = [
            Speculator::SimpleThreshold {
                detect_after: SimTime::from_millis(1_000),
            },
            Speculator::Late(cfg.clone()),
            Speculator::Mantri(cfg.clone()),
            Speculator::Grass(cfg),
        ];
        let straggler = TaskRef::new(0, 0);
        let now = SimTime::from_millis(5_000);
        for pol in &policies {
            let mut job = scripted(&[
                (60_000, 10_000),
                (10_000, 10_000),
                (10_000, 10_000),
                (10_000, 10_000),
                (10_000, 10_000),
            ]);
            launch_all(&mut job);
            // Below the limit, task 0 (t_rem 55s, t_new 10s) passes every
            // policy's benefit rule.
            assert!(
                pol.candidates(&job, now)
                    .iter()
                    .any(|c| c.task == straggler),
                "{} skipped a solo straggler",
                pol.name()
            );
            // Extra copies as slow as the original, so the benefit rules
            // keep passing and only the limit decides.
            for _ in 1..MAX_RUNNING_COPIES {
                job.launch_copy_prepared(
                    straggler,
                    MachineId(11),
                    true,
                    SimTime::from_millis(3_000),
                    SimTime::from_millis(60_000),
                );
            }
            assert_eq!(
                job.phases()[0].tasks[0].running_copies(),
                MAX_RUNNING_COPIES
            );
            let cands = pol.candidates(&job, now);
            assert!(
                cands.iter().all(|c| c.task != straggler),
                "{}: a task at the copy limit was re-speculated: {cands:?}",
                pol.name()
            );
        }
    }

    #[test]
    fn warmup_prevents_judging_fresh_copies() {
        let mut job = scripted(&[(60_000, 1_000); 3]);
        launch_all(&mut job);
        for pol in [
            Speculator::Late(SpecConfig::default()),
            Speculator::Mantri(SpecConfig::default()),
            Speculator::Grass(SpecConfig::default()),
        ] {
            assert!(
                pol.candidates(&job, SimTime::from_millis(100)).is_empty(),
                "{} speculated before warm-up",
                pol.name()
            );
        }
    }

    #[test]
    fn best_candidate_is_first() {
        let mut job = scripted(&[
            (30_000, 10_000),
            (50_000, 10_000),
            (10_000, 10_000),
            (10_000, 10_000),
        ]);
        launch_all(&mut job);
        let pol = Speculator::SimpleThreshold {
            detect_after: SimTime::from_millis(1_000),
        };
        let best = &pol.candidates(&job, SimTime::from_millis(2_000))[0];
        assert_eq!(best.task, TaskRef::new(0, 1));
    }

    #[test]
    fn names() {
        assert_eq!(Speculator::Late(SpecConfig::default()).name(), "LATE");
        assert_eq!(Speculator::Mantri(SpecConfig::default()).name(), "Mantri");
        assert_eq!(Speculator::Grass(SpecConfig::default()).name(), "GRASS");
        assert_eq!(Speculator::None.name(), "None");
    }

    #[test]
    fn stochastic_job_straggler_is_eventually_flagged() {
        // With real Pareto durations, run long enough and the slowest task
        // should become a LATE candidate.
        let spec = single_phase_job(0, SimTime::ZERO, vec![SimTime::from_millis(1_000); 50], 1.3);
        let ccfg = cluster_cfg();
        let mut job = JobRun::new(spec, &ccfg, &mut rng_from_seed(11));
        let mut rng = rng_from_seed(16);
        for ti in 0..50 {
            job.launch_copy(
                TaskRef::new(0, ti),
                MachineId(ti % ccfg.machines),
                false,
                SimTime::ZERO,
                SimTime::ZERO,
                &mut rng,
            );
        }
        let pol = Speculator::Late(SpecConfig::default());
        // Observe at 3× the mean duration: the heavy tail guarantees some
        // task is still running way behind (with this seed).
        let cands = pol.candidates(&job, SimTime::from_millis(3_000));
        assert!(!cands.is_empty(), "no stragglers flagged");
    }
}
