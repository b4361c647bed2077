//! Trace synthesis: turn a [`WorkloadProfile`] into a concrete [`Trace`].
//!
//! The generator is deterministic given a seed, and arrival times are
//! calibrated *after* the jobs are drawn so that the offered load matches a
//! requested average utilization (the paper's 60–90% sweep): with total
//! nominal work `W` over `n` jobs on `S` slots, the arrival window is
//! `W / (S · u)` and inter-arrivals are exponential with mean `window / n`.

use hopper_sim::{SeedSequence, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

use crate::dist::Dist;
use crate::profile::WorkloadProfile;
use crate::rate::{RateClock, RateProfile};
use crate::trace::{CommPattern, Trace, TraceJob, TracePhase};

/// Deterministic trace generator.
#[derive(Debug, Clone)]
pub struct TraceGenerator {
    /// The workload statistics to draw from.
    pub profile: WorkloadProfile,
    /// Number of jobs to synthesize.
    pub num_jobs: usize,
    /// Root seed; child seeds are derived per concern so that e.g. changing
    /// DAG synthesis does not perturb job sizes.
    pub seed: u64,
}

impl TraceGenerator {
    /// Create a generator.
    pub fn new(profile: WorkloadProfile, num_jobs: usize, seed: u64) -> Self {
        Self {
            profile,
            num_jobs,
            seed,
        }
    }

    /// Generate the jobs *without* arrival times (all at t = 0).
    ///
    /// The unit tests' view of the job population, arrival-free.
    #[cfg(test)]
    fn generate_jobs(&self) -> Vec<TraceJob> {
        let seq = SeedSequence::new(self.seed);
        (0..self.num_jobs)
            .map(|i| self.generate_job(i, &mut seq.child_rng(i as u64)))
            .collect()
    }

    /// Generate a full trace whose offered load against `total_slots` slots
    /// averages `target_util` (0 < u ≤ 1) over the arrival window.
    ///
    /// This is exactly a [`collect`](Iterator::collect) of
    /// [`TraceGenerator::stream_with_utilization`] — the lazy stream is
    /// the single source of truth, so the two paths cannot drift: any job
    /// the materialized trace contains, the stream yields bit-identically.
    /// The single-path guarantee costs the stream's calibration pre-pass
    /// (jobs are drawn twice); trace synthesis is a rounding error next
    /// to simulating the trace, so structural safety wins here.
    pub fn generate_with_utilization(&self, total_slots: usize, target_util: f64) -> Trace {
        Trace::new(
            self.stream_with_utilization(total_slots, target_util)
                .collect(),
        )
    }

    /// Lazy counterpart of [`TraceGenerator::generate_with_utilization`]:
    /// a seeded iterator that yields the *same jobs with the same arrival
    /// times in the same order*, one at a time, without materializing the
    /// trace — O(1) memory however long the stream is.
    ///
    /// Arrival calibration needs the workload's total nominal work, which
    /// is only known after drawing every job; the stream pays for laziness
    /// with a calibration pre-pass that generates and discards each job
    /// once (2× generation time, O(1) memory) before yielding begins.
    pub fn stream_with_utilization(&self, total_slots: usize, target_util: f64) -> TraceStream {
        self.stream_with_profile(total_slots, target_util, &RateProfile::Constant)
    }

    /// [`TraceGenerator::generate_with_utilization`] under a
    /// non-stationary [`RateProfile`] — a `collect()` of
    /// [`TraceGenerator::stream_with_profile`], same single-path
    /// guarantee.
    pub fn generate_with_profile(
        &self,
        total_slots: usize,
        target_util: f64,
        rate: &RateProfile,
    ) -> Trace {
        Trace::new(
            self.stream_with_profile(total_slots, target_util, rate)
                .collect(),
        )
    }

    /// [`TraceGenerator::stream_with_utilization`] with arrivals
    /// modulated by a [`RateProfile`].
    ///
    /// Calibration is unchanged — the arrival window is still
    /// `total_work / (slots · util)` — and every profile has
    /// time-average relative rate 1, so `target_util` stays the honest
    /// time-average of the modulated curve. Job bodies and the
    /// exponential gap draws are identical across profiles (one
    /// uniform per arrival from the same child RNG); only the mapping
    /// from gap to arrival time changes. With
    /// [`RateProfile::Constant`] the stream is byte-identical to the
    /// historical generator.
    pub fn stream_with_profile(
        &self,
        total_slots: usize,
        target_util: f64,
        rate: &RateProfile,
    ) -> TraceStream {
        assert!(
            target_util > 0.0 && target_util <= 1.5,
            "unreasonable utilization"
        );
        assert!(total_slots > 0);
        let seq = SeedSequence::new(self.seed);
        // Calibration pre-pass: total nominal work over the whole stream.
        let total_work: f64 = (0..self.num_jobs)
            .map(|i| {
                self.generate_job(i, &mut seq.child_rng(i as u64))
                    .total_work_ms() as f64
            })
            .sum();
        let window_ms = total_work / (total_slots as f64 * target_util);
        let mean_gap = window_ms / self.num_jobs.max(1) as f64;
        TraceStream {
            gen: self.clone(),
            total: self.num_jobs,
            next: 0,
            arr_rng: seq.child_rng(0xA11A),
            gap: Dist::Exp { mean: mean_gap },
            t: 0.0,
            clock: RateClock::new(rate, window_ms, self.seed),
        }
    }

    /// Generate one job (deterministic per `(seed, index)`).
    fn generate_job(&self, id: usize, rng: &mut StdRng) -> TraceJob {
        let p = &self.profile;

        let size = (p.job_size.sample(rng).round() as usize).max(1);
        let beta = if p.beta_range.0 == p.beta_range.1 {
            p.beta_range.0
        } else {
            rng.gen_range(p.beta_range.0..p.beta_range.1)
        };
        let mean_task = p.mean_task_ms.sample(rng).max(50.0);
        let dag_len = sample_weighted(&p.dag_len_weights, rng) + 1;

        // Recurring template: id-stable so the α estimator can learn.
        let template = if rng.gen::<f64>() < p.recurring_fraction {
            Some(rng.gen_range(0..p.num_templates))
        } else {
            None
        };

        // Template-consistent output volume: jobs of the same template
        // produce similar intermediate data (±10%), which is what makes the
        // paper's history-based α prediction ~92% accurate.
        let base_output = match template {
            Some(t) => {
                // Deterministic per-template center, independent of job rng.
                let mut trng = SeedSequence::new(self.seed ^ 0x7E3A_11CE).child_rng(t as u64);
                p.output_mb_per_task.sample(&mut trng)
            }
            None => p.output_mb_per_task.sample(rng),
        };
        let output_jitter = Dist::LogNormal {
            mu: 0.0,
            sigma: 0.08,
        };

        // Bushy DAGs: a second input branch is generated alongside the
        // first phase and the next phase joins both. Decided only when the
        // profile enables it, so chain-only generation stays byte-stable.
        let bushy = dag_len >= 2 && p.bushy_fraction > 0.0 && rng.gen::<f64>() < p.bushy_fraction;

        let mut phases = Vec::with_capacity(dag_len + usize::from(bushy));
        let mut phase_tasks = size;
        let mut phase_mean = mean_task;
        for d in 0..dag_len {
            let work_dist = Dist::LogNormal {
                mu: phase_mean.ln(),
                sigma: p.task_work_sigma,
            };
            let task_works = (0..phase_tasks)
                .map(|_| SimTime::from_millis(work_dist.sample(rng).max(20.0) as u64))
                .collect();
            let is_last = d + 1 == dag_len;
            let output = if is_last {
                0.0
            } else {
                (base_output * output_jitter.sample(rng)).max(0.1)
            };
            let comm = if d == 0 {
                CommPattern::OneToOne
            } else if phase_tasks == 1 {
                CommPattern::ManyToOne
            } else {
                CommPattern::AllToAll
            };
            // In a bushy job the branch phase is inserted at index 1, so
            // downstream indices shift by one and the join reads both roots.
            let idx_shift = usize::from(bushy && d >= 1);
            phases.push(TracePhase {
                task_works,
                upstream: if d == 0 {
                    vec![]
                } else if bushy && d == 1 {
                    vec![0, 1] // join of the two input branches
                } else {
                    vec![d - 1 + idx_shift]
                },
                output_mb_per_task: output,
                comm,
                reads_dfs_input: d == 0,
            });
            if bushy && d == 0 {
                // The second input branch: similar size, DFS-fed, its
                // output joins the same downstream phase.
                let branch_tasks = ((size as f64 * 0.5).ceil() as usize).max(1);
                let work_dist = Dist::LogNormal {
                    mu: phase_mean.ln(),
                    sigma: p.task_work_sigma,
                };
                phases.push(TracePhase {
                    task_works: (0..branch_tasks)
                        .map(|_| SimTime::from_millis(work_dist.sample(rng).max(20.0) as u64))
                        .collect(),
                    upstream: vec![],
                    output_mb_per_task: (base_output * output_jitter.sample(rng)).max(0.1),
                    comm: CommPattern::OneToOne,
                    reads_dfs_input: true,
                });
            }
            if !is_last {
                let ratio = p.downstream_ratio.sample(rng).clamp(0.02, 1.0);
                phase_tasks = ((phase_tasks as f64 * ratio).round() as usize).max(1);
                phase_mean = (phase_mean * p.downstream_work_factor.sample(rng)).max(50.0);
            }
        }

        let job = TraceJob {
            id,
            arrival: SimTime::ZERO,
            phases,
            beta,
            template,
            weight: 1.0,
        };
        job.assert_well_formed();
        job
    }
}

/// A lazy, seeded stream of trace jobs in arrival order.
///
/// Produced by [`TraceGenerator::stream_with_utilization`]; yields
/// exactly the jobs of the materialized trace (`Trace::jobs[i]` ==
/// the stream's `i`-th item, bit for bit — pinned by
/// `generate_with_utilization` being a `collect()` of this stream).
/// Arrivals are nondecreasing and ids equal stream positions, so a
/// driver can inject arrivals as simulation time advances and keep
/// memory proportional to the jobs currently *live*, not the stream
/// length.
#[derive(Debug, Clone)]
pub struct TraceStream {
    gen: TraceGenerator,
    total: usize,
    next: usize,
    arr_rng: StdRng,
    gap: Dist,
    t: f64,
    /// Non-stationary rate evaluator; `None` under
    /// [`RateProfile::Constant`], where time advances by the raw
    /// exponential gap exactly as it always has.
    clock: Option<RateClock>,
}

impl TraceStream {
    /// Jobs the stream will yield in total (after any truncation).
    pub fn total_jobs(&self) -> usize {
        self.total
    }

    /// Jobs not yet yielded.
    pub fn remaining(&self) -> usize {
        self.total - self.next
    }

    /// Cap the stream at `max_jobs` total jobs (the `max_jobs=` spec
    /// key): arrival calibration keeps the full-stream window — the
    /// yielded prefix is bit-identical to the untruncated stream's — but
    /// iteration stops early. A cap at or above the current total is a
    /// no-op.
    pub fn truncated(mut self, max_jobs: usize) -> Self {
        self.total = self.total.min(max_jobs.max(self.next));
        self
    }
}

impl Iterator for TraceStream {
    type Item = TraceJob;

    fn next(&mut self) -> Option<TraceJob> {
        if self.next >= self.total {
            return None;
        }
        let id = self.next;
        let seq = SeedSequence::new(self.gen.seed);
        let mut job = self.gen.generate_job(id, &mut seq.child_rng(id as u64));
        job.arrival = SimTime::from_millis(self.t as u64);
        let g = self.gap.sample(&mut self.arr_rng);
        self.t = match self.clock.as_mut() {
            // Stationary path: advance by the raw gap (byte-identical
            // to the pre-profile generator).
            None => self.t + g,
            // Non-stationary: the same draw, mapped through the exact
            // inverse of the relative-rate integral.
            Some(clock) => clock.advance(self.t, g),
        };
        self.next += 1;
        Some(job)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        (self.remaining(), Some(self.remaining()))
    }
}

impl ExactSizeIterator for TraceStream {}

/// Sample an index from unnormalized weights.
fn sample_weighted(weights: &[f64], rng: &mut StdRng) -> usize {
    let total: f64 = weights.iter().sum();
    debug_assert!(total > 0.0);
    let mut x = rng.gen::<f64>() * total;
    for (i, w) in weights.iter().enumerate() {
        x -= w;
        if x <= 0.0 {
            return i;
        }
    }
    weights.len() - 1
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::profile::WorkloadProfile;

    fn generator(n: usize) -> TraceGenerator {
        TraceGenerator::new(WorkloadProfile::facebook(), n, 42)
    }

    #[test]
    fn generation_is_deterministic() {
        let a = generator(50).generate_with_utilization(400, 0.6);
        let b = generator(50).generate_with_utilization(400, 0.6);
        assert_eq!(a.len(), b.len());
        for (ja, jb) in a.jobs.iter().zip(&b.jobs) {
            assert_eq!(ja.arrival, jb.arrival);
            assert_eq!(ja.num_tasks(), jb.num_tasks());
            assert_eq!(ja.total_work_ms(), jb.total_work_ms());
            assert_eq!(ja.beta, jb.beta);
            assert_eq!(ja.template, jb.template);
        }
    }

    #[test]
    fn different_seeds_give_different_traces() {
        let a = TraceGenerator::new(WorkloadProfile::facebook(), 30, 1).generate_jobs();
        let b = TraceGenerator::new(WorkloadProfile::facebook(), 30, 2).generate_jobs();
        let sizes_a: Vec<usize> = a.iter().map(|j| j.num_tasks()).collect();
        let sizes_b: Vec<usize> = b.iter().map(|j| j.num_tasks()).collect();
        assert_ne!(sizes_a, sizes_b);
    }

    #[test]
    fn utilization_targeting_is_close() {
        for util in [0.6, 0.8, 0.9] {
            let t = generator(300).generate_with_utilization(400, util);
            let measured = t.offered_utilization(400);
            // Exponential gaps add noise; the *offered* load should be in
            // the right ballpark (final arrival time is itself random).
            assert!(
                (measured - util).abs() / util < 0.35,
                "target {util} measured {measured}"
            );
        }
    }

    #[test]
    fn job_sizes_are_heavy_tailed() {
        let jobs = generator(2000).generate_jobs();
        let small = jobs.iter().filter(|j| j.size_tasks() <= 50).count();
        let huge = jobs.iter().filter(|j| j.size_tasks() > 500).count();
        // Most jobs small, but a real tail of big ones (paper Figure 7 bins).
        assert!(small > jobs.len() / 2, "small jobs: {small}");
        assert!(huge > 0, "no huge jobs generated");
    }

    #[test]
    fn betas_are_in_declared_range() {
        let jobs = generator(200).generate_jobs();
        for j in &jobs {
            assert!(j.beta >= 1.3 && j.beta <= 1.7, "beta {}", j.beta);
        }
    }

    #[test]
    fn dag_structure_is_chain_with_shrinking_phases() {
        let jobs = TraceGenerator::new(WorkloadProfile::bing(), 300, 7).generate_jobs();
        let mut saw_multiphase = false;
        for j in &jobs {
            j.assert_well_formed();
            if j.dag_len() > 1 {
                saw_multiphase = true;
                for (i, ph) in j.phases.iter().enumerate().skip(1) {
                    assert_eq!(ph.upstream, vec![i - 1]);
                    assert!(!ph.reads_dfs_input);
                }
                // Non-terminal phases must produce output.
                for ph in &j.phases[..j.dag_len() - 1] {
                    assert!(ph.output_mb_per_task > 0.0);
                }
                assert_eq!(j.phases.last().unwrap().output_mb_per_task, 0.0);
            }
        }
        assert!(saw_multiphase);
    }

    #[test]
    fn recurring_templates_share_output_volumes() {
        let jobs = generator(2000).generate_jobs();
        let mut by_template: std::collections::HashMap<u32, Vec<f64>> = Default::default();
        for j in &jobs {
            if let (Some(t), true) = (j.template, j.dag_len() > 1) {
                by_template
                    .entry(t)
                    .or_default()
                    .push(j.phases[0].output_mb_per_task);
            }
        }
        let mut checked = 0;
        for (_, v) in by_template.iter().filter(|(_, v)| v.len() >= 5) {
            let mean = v.iter().sum::<f64>() / v.len() as f64;
            let max_dev = v
                .iter()
                .map(|x| (x - mean).abs() / mean)
                .fold(0.0f64, f64::max);
            assert!(max_dev < 0.5, "template outputs too dispersed: {max_dev}");
            checked += 1;
        }
        assert!(checked > 3, "not enough recurring templates to check");
    }

    #[test]
    fn fixed_dag_profile_produces_fixed_lengths() {
        let p = WorkloadProfile::facebook().fixed_dag_len(4);
        let jobs = TraceGenerator::new(p, 50, 3).generate_jobs();
        assert!(jobs.iter().all(|j| j.dag_len() == 4));
    }

    #[test]
    fn arrivals_are_sorted_and_start_at_zero() {
        let t = generator(100).generate_with_utilization(200, 0.7);
        assert_eq!(t.jobs[0].arrival, SimTime::ZERO);
        for w in t.jobs.windows(2) {
            assert!(w[0].arrival <= w[1].arrival);
        }
    }

    #[test]
    fn bushy_dags_join_two_branches() {
        let p = WorkloadProfile::facebook().fixed_dag_len(3).with_bushy(1.0);
        let jobs = TraceGenerator::new(p, 20, 5).generate_jobs();
        for j in &jobs {
            j.assert_well_formed();
            assert_eq!(j.dag_len(), 4, "3 logical phases + 1 branch");
            // Phase 1 is the extra input branch; phase 2 joins 0 and 1.
            assert!(j.phases[1].reads_dfs_input);
            assert!(j.phases[1].upstream.is_empty());
            assert_eq!(j.phases[2].upstream, vec![0, 1]);
        }
    }

    #[test]
    fn bushy_disabled_by_default_keeps_chains() {
        let jobs = TraceGenerator::new(WorkloadProfile::facebook(), 100, 5).generate_jobs();
        for j in &jobs {
            for (i, ph) in j.phases.iter().enumerate().skip(1) {
                assert_eq!(ph.upstream, vec![i - 1], "chain expected by default");
            }
        }
    }

    #[test]
    fn stream_is_bit_identical_to_materialized_trace() {
        let g = generator(120);
        let trace = g.generate_with_utilization(300, 0.75);
        let streamed: Vec<TraceJob> = g.stream_with_utilization(300, 0.75).collect();
        assert_eq!(trace.len(), streamed.len());
        for (a, b) in trace.jobs.iter().zip(&streamed) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.beta.to_bits(), b.beta.to_bits());
            assert_eq!(a.template, b.template);
            assert_eq!(a.dag_len(), b.dag_len());
            for (pa, pb) in a.phases.iter().zip(&b.phases) {
                assert_eq!(pa.task_works, pb.task_works);
                assert_eq!(pa.upstream, pb.upstream);
                assert_eq!(
                    pa.output_mb_per_task.to_bits(),
                    pb.output_mb_per_task.to_bits()
                );
            }
        }
    }

    #[test]
    fn stream_is_lazy_and_resumable() {
        let g = generator(50);
        let mut s = g.stream_with_utilization(200, 0.7);
        assert_eq!(s.total_jobs(), 50);
        assert_eq!(s.len(), 50);
        let first = s.next().unwrap();
        assert_eq!(first.id, 0);
        assert_eq!(s.remaining(), 49);
        // Consuming the rest yields ids 1..50 with nondecreasing arrivals.
        let mut last_arrival = first.arrival;
        for (i, j) in s.enumerate() {
            assert_eq!(j.id, i + 1);
            assert!(j.arrival >= last_arrival);
            last_arrival = j.arrival;
        }
    }

    #[test]
    fn truncated_stream_is_a_prefix_of_the_full_stream() {
        let g = generator(80);
        let full: Vec<TraceJob> = g.stream_with_utilization(200, 0.7).collect();
        let cut: Vec<TraceJob> = g.stream_with_utilization(200, 0.7).truncated(25).collect();
        assert_eq!(cut.len(), 25);
        for (a, b) in full.iter().zip(&cut) {
            assert_eq!(a.id, b.id);
            assert_eq!(a.arrival, b.arrival);
            assert_eq!(a.total_work_ms(), b.total_work_ms());
        }
        // Truncating above the total is a no-op.
        let same: Vec<TraceJob> = g
            .stream_with_utilization(200, 0.7)
            .truncated(10_000)
            .collect();
        assert_eq!(same.len(), 80);
    }

    #[test]
    fn weighted_sampling_respects_mass() {
        let mut rng = hopper_sim::rng_from_seed(5);
        let w = vec![0.0, 1.0, 0.0];
        for _ in 0..100 {
            assert_eq!(sample_weighted(&w, &mut rng), 1);
        }
    }
}
