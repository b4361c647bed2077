//! Workload profiles: synthetic stand-ins for the Facebook-Hadoop and
//! Bing-Dryad production traces used in the paper's evaluation (§7.1).
//!
//! The real traces are proprietary; the paper publishes their relevant
//! statistics, which these profiles reproduce:
//!
//! - heavy-tailed job sizes (task counts), binned in the paper as
//!   `<50 / 51–150 / 151–500 / >500` tasks;
//! - Pareto task-duration tail with per-job shape `1 < β < 2`;
//! - DAG depths between 1 and 8 phases with pipelined shuffles;
//! - a large share of recurring jobs (the basis of α prediction, §6.3);
//! - Poisson arrivals whose rate is scaled to hit a target average cluster
//!   utilization (the x-axis of Figure 6), optionally modulated by a
//!   non-stationary [`RateProfile`](crate::RateProfile) with the same
//!   time-average.
//!
//! A profile never materializes jobs itself: the generator turns it into
//! a lazy, seeded [`TraceStream`](crate::TraceStream), and the drivers
//! consume that through the [`ArrivalSource`](crate::ArrivalSource)
//! peek/pop seam — arrivals are *delivered* as simulation time advances
//! (an arrival precedes any queued event at the same instant), not
//! pre-loaded into a FIFO of arrival events. Materialized traces are
//! just a `collect()` of the same stream.

use crate::dist::Dist;

/// Statistical description of a workload, sufficient to synthesize traces.
#[derive(Debug, Clone)]
pub struct WorkloadProfile {
    /// Human-readable name ("facebook", "bing", ...).
    pub name: &'static str,
    /// Distribution of job sizes = input-phase task counts (continuous,
    /// rounded to ≥ 1).
    pub job_size: Dist,
    /// Per-job Pareto tail index β drawn uniformly from this range.
    /// The paper's traces have 1 < β < 2.
    pub beta_range: (f64, f64),
    /// Distribution of each job's *mean* task duration in milliseconds
    /// (across jobs; within a job tasks are similar).
    pub mean_task_ms: Dist,
    /// Log-normal σ of within-job task-work variation (0 = identical
    /// nominal work for all tasks of a phase).
    pub task_work_sigma: f64,
    /// Probability mass over DAG lengths; index `i` is the weight of a job
    /// having `i + 1` phases.
    pub dag_len_weights: Vec<f64>,
    /// Downstream phase task count as a fraction of the upstream phase's.
    pub downstream_ratio: Dist,
    /// Downstream phase mean-task-work multiplier relative to the input
    /// phase (reduce tasks are usually shorter in aggregate).
    pub downstream_work_factor: Dist,
    /// Intermediate output per input-phase task, in MB. Drives α: larger
    /// outputs ⇒ heavier downstream network transfer.
    pub output_mb_per_task: Dist,
    /// Fraction of jobs that belong to a recurring template (the paper's
    /// clusters are dominated by recurring jobs).
    pub recurring_fraction: f64,
    /// Number of distinct recurring templates.
    pub num_templates: u32,
    /// Fraction of multi-phase jobs whose DAG is "bushy" (§4.2: two
    /// parallel input branches joining into the downstream phase) rather
    /// than a chain. 0 (the default) leaves generation byte-identical to
    /// chain-only profiles; enable with [`WorkloadProfile::with_bushy`].
    pub bushy_fraction: f64,
}

impl WorkloadProfile {
    /// Synthetic stand-in for the Facebook Hadoop trace: batch jobs, most
    /// DAGs short (1–3 phases), map-heavy (modest intermediate data), task
    /// durations tens of seconds.
    pub fn facebook() -> Self {
        WorkloadProfile {
            name: "facebook",
            job_size: Dist::BoundedPareto {
                shape: 1.1,
                min: 4.0,
                max: 2000.0,
            },
            beta_range: (1.3, 1.7),
            mean_task_ms: Dist::LogNormal {
                mu: (20_000.0f64).ln(), // ~20 s median task
                sigma: 0.55,
            },
            task_work_sigma: 0.25,
            // lengths 1..=8; mass concentrated at 1-3 but tail out to 8
            dag_len_weights: vec![0.30, 0.28, 0.18, 0.09, 0.06, 0.04, 0.03, 0.02],
            downstream_ratio: Dist::Uniform { lo: 0.15, hi: 0.7 },
            downstream_work_factor: Dist::Uniform { lo: 0.4, hi: 1.0 },
            // Hadoop jobs are less bottlenecked on intermediate transfer
            // (paper §7.4): α mostly < 1.
            output_mb_per_task: Dist::LogNormal {
                mu: (8.0f64).ln(),
                sigma: 0.8,
            },
            recurring_fraction: 0.7,
            num_templates: 40,
            bushy_fraction: 0.0,
        }
    }

    /// Synthetic stand-in for the Bing Dryad trace: wider spread between
    /// small and large jobs (the paper notes this gives Hopper slightly more
    /// room, Fig. 6b), deeper DAGs, shuffle-heavier.
    pub fn bing() -> Self {
        WorkloadProfile {
            name: "bing",
            job_size: Dist::BoundedPareto {
                shape: 0.95, // heavier tail: bigger big jobs
                min: 2.0,
                max: 4000.0,
            },
            beta_range: (1.2, 1.8),
            mean_task_ms: Dist::LogNormal {
                mu: (15_000.0f64).ln(),
                sigma: 0.6,
            },
            task_work_sigma: 0.3,
            dag_len_weights: vec![0.22, 0.24, 0.18, 0.12, 0.09, 0.07, 0.05, 0.03],
            downstream_ratio: Dist::Uniform { lo: 0.2, hi: 0.8 },
            downstream_work_factor: Dist::Uniform { lo: 0.4, hi: 1.1 },
            output_mb_per_task: Dist::LogNormal {
                mu: (20.0f64).ln(),
                sigma: 0.9,
            },
            recurring_fraction: 0.65,
            num_templates: 60,
            bushy_fraction: 0.0,
        }
    }

    /// Rescale task durations by `factor` (keeping everything else).
    ///
    /// Used to turn a batch profile into an interactive, Spark-like one
    /// ("tasks vary from sub-second durations to a few seconds", §7.1):
    /// `facebook().scaled_tasks(0.1)` gives ~2 s mean tasks.
    pub fn scaled_tasks(mut self, factor: f64) -> Self {
        assert!(factor > 0.0);
        self.mean_task_ms = match self.mean_task_ms {
            Dist::LogNormal { mu, sigma } => Dist::LogNormal {
                mu: mu + factor.ln(),
                sigma,
            },
            Dist::Constant(v) => Dist::Constant(v * factor),
            // Exhaustive on purpose: silently returning the distribution
            // unscaled (the old `other => other` arm) made this a no-op
            // for every other variant — a profile bug that surfaced as a
            // mysteriously wrong utilization target.
            other @ (Dist::Pareto { .. }
            | Dist::BoundedPareto { .. }
            | Dist::Exp { .. }
            | Dist::Uniform { .. }) => {
                panic!("scaled_tasks: unsupported mean-task-duration dist {other:?}")
            }
        };
        self
    }

    /// Spark-style interactive variant of this profile: sub-second to
    /// few-second tasks and shuffle-heavy DAGs (α ≥ 1 more common).
    pub fn interactive(mut self) -> Self {
        self = self.scaled_tasks(0.1);
        // In-memory map phases make the network transfer the bottleneck.
        // Exhaustive for the same reason as `scaled_tasks`: a silently
        // unscaled output distribution would understate α.
        self.output_mb_per_task = match self.output_mb_per_task {
            Dist::LogNormal { mu, sigma } => Dist::LogNormal {
                mu: mu + 2.0f64.ln(),
                sigma,
            },
            Dist::Constant(v) => Dist::Constant(v * 2.0),
            other @ (Dist::Pareto { .. }
            | Dist::BoundedPareto { .. }
            | Dist::Exp { .. }
            | Dist::Uniform { .. }) => {
                panic!("interactive: unsupported output-mb dist {other:?}")
            }
        };
        self
    }

    /// Force every job to a single phase (used in experiments isolating the
    /// non-DAG mechanisms, e.g. Figure 3 / Figure 5).
    pub fn single_phase(mut self) -> Self {
        self.dag_len_weights = vec![1.0];
        self
    }

    /// Force every job's DAG length to exactly `len` phases.
    pub fn fixed_dag_len(mut self, len: usize) -> Self {
        assert!(len >= 1);
        let mut w = vec![0.0; len];
        w[len - 1] = 1.0;
        self.dag_len_weights = w;
        self
    }

    /// Fix the β range to a point (used by Figure 3 / Figure 5 which state a
    /// specific β).
    pub fn fixed_beta(mut self, beta: f64) -> Self {
        self.beta_range = (beta, beta);
        self
    }

    /// Force every job to exactly `tasks` input-phase tasks, removing the
    /// heavy-tailed job-size dimension. With [`WorkloadProfile::single_phase`]
    /// and [`WorkloadProfile::fixed_beta`] this yields near-iid per-job work —
    /// the workload whose saturation point is analytically pinned at target
    /// utilization 1 (the stability-frontier reference case).
    pub fn fixed_job_size(mut self, tasks: usize) -> Self {
        assert!(tasks >= 1);
        self.job_size = Dist::Constant(tasks as f64);
        self
    }

    /// Enable bushy DAGs for the given fraction of multi-phase jobs
    /// (§4.2's "wide and bushy" DAGs: α then sums over all running
    /// branches).
    pub fn with_bushy(mut self, fraction: f64) -> Self {
        assert!((0.0..=1.0).contains(&fraction));
        self.bushy_fraction = fraction;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn facebook_profile_is_sane() {
        let p = WorkloadProfile::facebook();
        assert_eq!(p.name, "facebook");
        assert!(p.beta_range.0 > 1.0 && p.beta_range.1 < 2.0);
        assert!((0.0..=1.0).contains(&p.recurring_fraction));
    }

    #[test]
    fn bing_has_heavier_job_size_tail_than_facebook() {
        let fb = WorkloadProfile::facebook();
        let bing = WorkloadProfile::bing();
        let (Dist::BoundedPareto { shape: s_fb, .. }, Dist::BoundedPareto { shape: s_b, .. }) =
            (&fb.job_size, &bing.job_size)
        else {
            panic!("expected bounded pareto job sizes");
        };
        assert!(s_b < s_fb, "bing tail should be heavier");
    }

    #[test]
    fn scaled_tasks_scales_the_mean() {
        let p = WorkloadProfile::facebook();
        let scaled = p.clone().scaled_tasks(0.1);
        let m0 = p.mean_task_ms.mean().unwrap();
        let m1 = scaled.mean_task_ms.mean().unwrap();
        assert!((m1 / m0 - 0.1).abs() < 1e-9);
    }

    #[test]
    fn interactive_is_subsecond_to_seconds() {
        let p = WorkloadProfile::facebook().interactive();
        let m = p.mean_task_ms.mean().unwrap();
        assert!(m > 200.0 && m < 5000.0, "interactive mean task {m} ms");
    }

    #[test]
    fn fixed_dag_len_masses_one_length() {
        let p = WorkloadProfile::facebook().fixed_dag_len(5);
        assert_eq!(p.dag_len_weights, [0.0, 0.0, 0.0, 0.0, 1.0]);
        let q = WorkloadProfile::facebook().single_phase();
        assert_eq!(q.dag_len_weights, [1.0]);
    }

    #[test]
    fn fixed_beta_pins_range() {
        let p = WorkloadProfile::facebook().fixed_beta(1.5);
        assert_eq!(p.beta_range, (1.5, 1.5));
    }

    #[test]
    fn scaled_tasks_scales_constant_means() {
        let mut p = WorkloadProfile::facebook();
        p.mean_task_ms = Dist::Constant(10_000.0);
        let scaled = p.scaled_tasks(0.5);
        assert_eq!(scaled.mean_task_ms, Dist::Constant(5_000.0));
    }

    #[test]
    #[should_panic(expected = "unsupported mean-task-duration dist")]
    fn scaled_tasks_rejects_unsupported_dists_loudly() {
        // Regression: this used to be a silent no-op (`other => other`),
        // leaving the profile unscaled.
        let mut p = WorkloadProfile::facebook();
        p.mean_task_ms = Dist::Uniform {
            lo: 1_000.0,
            hi: 2_000.0,
        };
        let _ = p.scaled_tasks(0.1);
    }

    #[test]
    #[should_panic(expected = "unsupported output-mb dist")]
    fn interactive_rejects_unsupported_output_dists_loudly() {
        let mut p = WorkloadProfile::facebook();
        p.output_mb_per_task = Dist::Exp { mean: 10.0 };
        let _ = p.interactive();
    }
}
