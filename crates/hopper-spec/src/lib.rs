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

use hopper_cluster::{CopyObservation, JobRun, TaskRef};
use hopper_sim::SimTime;

/// Shared knobs for the speculation policies.
#[derive(Debug, Clone)]
pub struct SpecConfig {
    /// Minimum elapsed time before a copy's progress is judged (LATE's
    /// warm-up; the §3 example uses 2 time units).
    pub min_elapsed: SimTime,
    /// Maximum concurrent copies per task (original + speculative).
    pub max_copies_per_task: usize,
    /// LATE's slow-task threshold: a task is "slow" if its best running
    /// copy's progress rate is below this percentile of the job's running
    /// copies' rates.
    pub slow_percentile: f64,
    /// Cap on concurrently running speculative copies, as a fraction of
    /// the job's total tasks (LATE's speculativeCap).
    pub spec_cap_fraction: f64,
    /// GRASS: switch from resource-aware to greedy speculation when the
    /// remaining fraction of job tasks drops below this value.
    pub grass_switch_fraction: f64,
}

impl Default for SpecConfig {
    fn default() -> Self {
        SpecConfig {
            min_elapsed: SimTime::from_millis(500),
            max_copies_per_task: 2,
            slow_percentile: 0.25,
            spec_cap_fraction: 0.15,
            grass_switch_fraction: 0.2,
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
    /// A task qualifies only if it has fewer running copies than the
    /// per-task cap and its estimated benefit satisfies the policy's rule;
    /// the returned order is descending estimated remaining time.
    pub fn candidates(&self, job: &JobRun, now: SimTime) -> Vec<Candidate> {
        match self {
            Speculator::None => Vec::new(),
            Speculator::SimpleThreshold { detect_after } => {
                let mut out = base_candidates(job, now, *detect_after, 2, |rem, new| rem > new);
                sort_desc(&mut out);
                out
            }
            Speculator::Mantri(cfg) => {
                let mut out = base_candidates(
                    job,
                    now,
                    cfg.min_elapsed,
                    cfg.max_copies_per_task,
                    |rem, new| rem.as_millis() > 2 * new.as_millis(),
                );
                sort_desc(&mut out);
                cap(out, job, cfg)
            }
            Speculator::Grass(cfg) => {
                let total = job.spec.num_tasks().max(1);
                let remaining_frac = job.total_remaining() as f64 / total as f64;
                let greedy = remaining_frac <= cfg.grass_switch_fraction;
                let mut out = base_candidates(
                    job,
                    now,
                    cfg.min_elapsed,
                    cfg.max_copies_per_task,
                    |rem, new| {
                        if greedy {
                            rem > new
                        } else {
                            rem.as_millis() > 2 * new.as_millis()
                        }
                    },
                );
                sort_desc(&mut out);
                cap(out, job, cfg)
            }
            Speculator::Late(cfg) => {
                let running = job.observe_running(now);
                // Progress rates (1/est-total-duration) of every running
                // original copy, for the slow-task percentile.
                let mut rates: Vec<f64> = running
                    .iter()
                    .flat_map(|(_, obs)| obs.iter())
                    .filter(|o| !o.speculative && o.elapsed >= cfg.min_elapsed)
                    .map(rate_of)
                    .collect();
                rates.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
                let slow_threshold = if rates.len() >= 4 {
                    Some(
                        rates[((rates.len() as f64 * cfg.slow_percentile) as usize)
                            .min(rates.len() - 1)],
                    )
                } else {
                    Option::None // too few samples: rely on the benefit test
                };

                let mut out = Vec::new();
                for (task, obs) in &running {
                    if obs.len() >= cfg.max_copies_per_task {
                        continue;
                    }
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
                    let t_new = job.estimated_new_copy_duration(*task);
                    if best.est_remaining > t_new {
                        out.push(Candidate {
                            task: *task,
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

/// The copy that will finish soonest (the task's best hope).
fn best_observation(obs: &[CopyObservation]) -> &CopyObservation {
    obs.iter()
        .min_by_key(|o| o.est_remaining)
        .expect("observe_running never yields empty copy lists")
}

/// Candidates satisfying `benefit(t_rem, t_new)` after `min_elapsed`.
fn base_candidates(
    job: &JobRun,
    now: SimTime,
    min_elapsed: SimTime,
    max_copies: usize,
    benefit: impl Fn(SimTime, SimTime) -> bool,
) -> Vec<Candidate> {
    let mut out = Vec::new();
    for (task, obs) in job.observe_running(now) {
        if obs.len() >= max_copies {
            continue;
        }
        let best = best_observation(&obs);
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
    let in_flight: usize = job
        .phases()
        .iter()
        .flat_map(|p| &p.tasks)
        .flat_map(|t| &t.copies)
        .filter(|c| c.speculative && c.status == hopper_cluster::CopyStatus::Running)
        .count();
    let budget = cap.saturating_sub(in_flight);
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
                &cfg,
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
        let cfg = SpecConfig {
            grass_switch_fraction: 0.5,
            ..Default::default()
        };
        // 2 tasks: both unfinished → remaining fraction 1.0 > 0.5 →
        // resource-aware mode → t_rem 15s < 2×10s: no candidates.
        let mut job = scripted(&[(25_000, 10_000), (11_000, 10_000)]);
        launch_all(&mut job);
        let pol = Speculator::Grass(cfg);
        let t = SimTime::from_millis(10_000);
        assert!(pol.candidates(&job, t).is_empty());

        // Finish task 1 → remaining fraction 0.5 ≤ 0.5 → greedy mode →
        // task 0's t_rem 14s > 10s: candidate.
        let out = job.finish_copy(
            hopper_cluster::CopyRef::new(0, 1, 0),
            SimTime::from_millis(11_000),
        );
        assert!(out.is_some());
        let cands = pol.candidates(&job, SimTime::from_millis(11_000));
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
            ..Default::default()
        });
        let cands = pol.candidates(&job, SimTime::from_millis(5_000));
        assert_eq!(cands.len(), 2);
    }

    #[test]
    fn max_copies_per_task_blocks_respeculation() {
        let mut job = scripted(&[
            (60_000, 10_000),
            (10_000, 10_000),
            (10_000, 10_000),
            (10_000, 10_000),
            (10_000, 10_000),
        ]);
        launch_all(&mut job);
        let mut rng = rng_from_seed(3);
        let ccfg = cluster_cfg();
        // Speculate task 0 once.
        job.launch_copy(
            TaskRef::new(0, 0),
            MachineId(11),
            true,
            SimTime::from_millis(3_000),
            SimTime::ZERO,
            &ccfg,
            &mut rng,
        );
        let pol = Speculator::SimpleThreshold {
            detect_after: SimTime::from_millis(1_000),
        };
        let cands = pol.candidates(&job, SimTime::from_millis(5_000));
        assert!(
            cands.iter().all(|c| c.task != TaskRef::new(0, 0)),
            "task with 2 running copies must not be re-speculated: {cands:?}"
        );
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
                &ccfg,
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
