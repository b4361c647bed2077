//! Machine-level cluster dynamics: heterogeneous speeds, transient
//! slowdowns, and machine failures.
//!
//! The straggler model of [`crate::job`] is *task*-level: every copy draws
//! an i.i.d. Pareto duration multiplier. Production stragglers, however,
//! are dominated by the *machine* — contended, degraded, or failing nodes
//! slow (or kill) everything placed on them. This module supplies that
//! plane:
//!
//! - **Static heterogeneity** ([`HeteroProfile`]): each machine draws a
//!   base speed factor at cluster construction (uniform band, bimodal
//!   slow-node fraction, or lognormal spread). A copy on machine `m` runs
//!   at `speed(m)`: its wall-clock duration is the unit-speed duration
//!   divided by the speed.
//! - **Transient slowdowns**: a machine degrades by a sampled factor for a
//!   sampled interval (background load, I/O contention). In-flight copies
//!   have their *remaining* work stretched — see
//!   [`crate::JobRun::rescale_machine`].
//! - **Failures**: a machine goes down for a sampled recovery interval;
//!   every running copy on it is killed and its tasks become pending again
//!   ([`crate::JobRun::fail_machine`]).
//!
//! **Determinism.** Every machine owns its own seed-derived RNG
//! ([`SeedSequence::child_rng`] at a dedicated index namespace), and a
//! machine's incident chain consumes only that RNG. Drivers schedule the
//! returned [`DynEvent`]s through their ordinary event queues, so dynamics
//! interleave with scheduling deterministically and parallel sweeps stay
//! bit-identical. With the config [`DynamicsConfig::off`] (the default)
//! nothing is drawn and nothing is scheduled: runs are bit-identical to a
//! dynamics-free build.
//!
//! **Incident chain.** Per machine, incidents never overlap: a healthy
//! machine waits an exponential time (total incident rate = the sum of
//! the slowdown and failure rates, per machine-hour), suffers *either* a
//! slowdown *or* a failure (chosen proportionally to the rates), runs
//! through it, and only then draws its next incident. This keeps the
//! per-machine state a simple `(base speed, transient factor, up)` triple.

use hopper_sim::{SeedSequence, SimTime};
use hopper_workload::Dist;
use rand::rngs::StdRng;
use rand::Rng;

use crate::ids::MachineId;

/// Child-seed namespace for per-machine dynamics RNGs (machine `m` uses
/// child index `DYN_SEED_BASE + m`). Disjoint from the drivers' placement
/// (`0xB10C`) and duration (`0xD00D` / `0xDEC`) children.
const DYN_SEED_BASE: u64 = 0xD1_CE00_0000;

/// How per-machine base speed factors are drawn (1.0 = nominal).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum HeteroProfile {
    /// Homogeneous cluster: every machine runs at speed 1.0.
    Off,
    /// Speeds uniform in `[lo, hi]`.
    Uniform {
        /// Slowest base speed.
        lo: f64,
        /// Fastest base speed.
        hi: f64,
    },
    /// A `slow_frac` fraction of machines run at `slow_factor`, the rest
    /// at 1.0 — the "few bad nodes" shape production studies report.
    Bimodal {
        /// Fraction of slow machines, in `[0, 1]`.
        slow_frac: f64,
        /// Speed of a slow machine, in `(0, 1]`.
        slow_factor: f64,
    },
    /// Speeds `exp(N(0, σ))`, clamped to `[0.1, 10]` — a long-tailed
    /// spread around nominal.
    LogNormal {
        /// σ of the underlying normal.
        sigma: f64,
    },
}

impl HeteroProfile {
    /// Draw one machine's base speed from its own RNG.
    fn sample(&self, rng: &mut StdRng) -> f64 {
        match *self {
            HeteroProfile::Off => 1.0,
            HeteroProfile::Uniform { lo, hi } => Dist::Uniform { lo, hi }.sample(rng),
            HeteroProfile::Bimodal {
                slow_frac,
                slow_factor,
            } => {
                if rng.gen::<f64>() < slow_frac {
                    slow_factor
                } else {
                    1.0
                }
            }
            HeteroProfile::LogNormal { sigma } => Dist::LogNormal { mu: 0.0, sigma }
                .sample(rng)
                .clamp(0.1, 10.0),
        }
    }
}

/// Uniform range of a transient slowdown's speed multiplier, applied on
/// top of the base speed (`< 1` = degradation).
const SLOWDOWN_FACTOR: (f64, f64) = (0.3, 0.7);

/// Uniform range of a transient slowdown's duration, ms.
const SLOWDOWN_MS: (u64, u64) = (5_000, 60_000);

/// Full description of a cluster's dynamics plane. The default is
/// [`DynamicsConfig::off`]: no heterogeneity, no slowdowns, no failures —
/// and, by contract, zero effect on any run.
#[derive(Debug, Clone, PartialEq)]
pub struct DynamicsConfig {
    /// Base speed heterogeneity.
    pub hetero: HeteroProfile,
    /// Transient slowdowns per machine per hour (0 disables); each one
    /// draws its speed factor from 0.3–0.7 and its length from 5–60 s
    /// (`SLOWDOWN_FACTOR`, `SLOWDOWN_MS`).
    pub slowdown_rate_per_hour: f64,
    /// Machine failures per machine per hour (0 disables).
    pub fail_rate_per_hour: f64,
    /// Uniform range of a failed machine's recovery time, ms.
    pub recovery_ms: (u64, u64),
}

impl Default for DynamicsConfig {
    fn default() -> Self {
        DynamicsConfig::off()
    }
}

impl DynamicsConfig {
    /// The neutral config: perfectly homogeneous, always-healthy cluster.
    pub fn off() -> Self {
        DynamicsConfig {
            hetero: HeteroProfile::Off,
            slowdown_rate_per_hour: 0.0,
            fail_rate_per_hour: 0.0,
            recovery_ms: (15_000, 45_000),
        }
    }

    /// Whether any dynamics mechanism is active. Drivers skip the whole
    /// plane (no state, no events, no speed lookups) when this is false.
    pub fn enabled(&self) -> bool {
        self.hetero != HeteroProfile::Off
            || self.slowdown_rate_per_hour > 0.0
            || self.fail_rate_per_hour > 0.0
    }
}

/// Exponential inter-incident delay (ms, floored at 1) for a Poisson
/// process of `rate_per_hour` events, drawn from `rng`. `None` when the
/// rate is zero or negative — the chain never starts.
///
/// This is the draw every incident chain in the system shares: machine
/// slowdown/failure chains here, and the scheduler crash chains of the
/// decentralized message-fault plane (`hopper-decentral`). One
/// definition, so "incidents per hour" means the same thing everywhere.
pub fn exp_incident_delay_ms(rng: &mut StdRng, rate_per_hour: f64) -> Option<u64> {
    if rate_per_hour <= 0.0 {
        return None;
    }
    let mean_ms = 3_600_000.0 / rate_per_hour;
    Some((Dist::Exp { mean: mean_ms }.sample(rng).round() as u64).max(1))
}

/// Uniform duration draw in `[lo, hi]` ms, floored at 1 ms (shared by
/// recovery and slowdown intervals, machine and scheduler chains alike).
/// A degenerate range (`hi <= lo`) returns `lo` (floored) without
/// consuming the RNG.
pub fn uniform_duration_ms(rng: &mut StdRng, (lo, hi): (u64, u64)) -> u64 {
    if hi <= lo {
        return lo.max(1);
    }
    (Dist::Uniform {
        lo: lo as f64,
        hi: hi as f64,
    }
    .sample(rng)
    .round() as u64)
        .clamp(lo.max(1), hi)
}

/// A machine-dynamics incident, scheduled through the driver's event
/// queue. Slowdown and failure intervals are bracketed: every `Start`/
/// `Fail` schedules its matching `End`/`Recover`, and only the closing
/// event draws the machine's next incident.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DynEvent {
    /// Machine degrades by a sampled transient factor.
    SlowdownStart(MachineId),
    /// The transient degradation ends.
    SlowdownEnd(MachineId),
    /// Machine dies: running copies are killed, slots leave the pool.
    Fail(MachineId),
    /// Machine rejoins with all slots free (and warmth lost).
    Recover(MachineId),
}

impl DynEvent {
    /// The machine this incident concerns.
    pub fn machine(&self) -> MachineId {
        match *self {
            DynEvent::SlowdownStart(m)
            | DynEvent::SlowdownEnd(m)
            | DynEvent::Fail(m)
            | DynEvent::Recover(m) => m,
        }
    }
}

/// What applying a [`DynEvent`] asks the driver to do.
#[derive(Debug, Clone, PartialEq)]
pub struct DynOutcome {
    /// `old_speed / new_speed` when the machine's speed changed while up —
    /// the factor by which in-flight copies' remaining wall-clock time
    /// stretches (pass to [`crate::JobRun::rescale_machine`]). `None` for
    /// fail/recover (failures kill copies instead of rescaling them).
    pub rescale_ratio: Option<f64>,
    /// Follow-up incidents to schedule, as delays from now.
    pub next: Vec<(SimTime, DynEvent)>,
}

/// Per-machine dynamics state: base speeds, transient factors,
/// availability, and each machine's private incident RNG.
#[derive(Debug, Clone)]
pub struct MachineDynamics {
    cfg: DynamicsConfig,
    base: Vec<f64>,
    transient: Vec<f64>,
    up: Vec<bool>,
    rngs: Vec<StdRng>,
}

impl MachineDynamics {
    /// Build the dynamics plane for `machines` machines, deriving one RNG
    /// per machine from `seq` (the run's root seed sequence). Base speeds
    /// are drawn immediately, from each machine's own RNG.
    pub fn new(cfg: DynamicsConfig, machines: usize, seq: &SeedSequence) -> Self {
        let mut rngs: Vec<StdRng> = (0..machines)
            .map(|m| seq.child_rng(DYN_SEED_BASE + m as u64))
            .collect();
        let base: Vec<f64> = rngs.iter_mut().map(|r| cfg.hetero.sample(r)).collect();
        MachineDynamics {
            cfg,
            base,
            transient: vec![1.0; machines],
            up: vec![true; machines],
            rngs,
        }
    }

    /// Current effective speed of `m` (base × transient). Only meaningful
    /// while the machine is up; a down machine runs nothing.
    pub fn speed(&self, m: MachineId) -> f64 {
        self.base[m.0] * self.transient[m.0]
    }

    /// Whether `m` is currently up.
    pub fn is_up(&self, m: MachineId) -> bool {
        self.up[m.0]
    }

    /// First incident per machine, as absolute times from simulation
    /// start. Empty when both rates are zero (pure static heterogeneity).
    pub fn initial_incidents(&mut self) -> Vec<(SimTime, DynEvent)> {
        (0..self.base.len())
            .filter_map(|m| self.next_incident(m))
            .collect()
    }

    /// Exponential inter-incident draw + proportional type choice for
    /// machine `m`, consuming only `m`'s RNG.
    fn next_incident(&mut self, m: usize) -> Option<(SimTime, DynEvent)> {
        let total = self.cfg.slowdown_rate_per_hour + self.cfg.fail_rate_per_hour;
        let rng = &mut self.rngs[m];
        let delay_ms = exp_incident_delay_ms(rng, total)?;
        let fail = rng.gen::<f64>() * total < self.cfg.fail_rate_per_hour;
        let ev = if fail {
            DynEvent::Fail(MachineId(m))
        } else {
            DynEvent::SlowdownStart(MachineId(m))
        };
        Some((SimTime::from_millis(delay_ms), ev))
    }

    /// Apply one incident to the machine's state. The caller (driver) is
    /// responsible for the cluster-side effects: rescaling in-flight
    /// copies on a speed change, killing copies and parking the machine's
    /// slots on failure, restoring them on recovery — and for scheduling
    /// the returned follow-up events.
    pub fn apply(&mut self, ev: DynEvent) -> DynOutcome {
        let m = ev.machine().0;
        match ev {
            DynEvent::SlowdownStart(_) => {
                let old = self.base[m] * self.transient[m];
                let (lo, hi) = SLOWDOWN_FACTOR;
                let factor = Dist::Uniform { lo, hi }.sample(&mut self.rngs[m]).max(0.01);
                let dur = uniform_duration_ms(&mut self.rngs[m], SLOWDOWN_MS);
                self.transient[m] = factor;
                let new = self.base[m] * self.transient[m];
                DynOutcome {
                    rescale_ratio: Some(old / new),
                    next: vec![(
                        SimTime::from_millis(dur),
                        DynEvent::SlowdownEnd(MachineId(m)),
                    )],
                }
            }
            DynEvent::SlowdownEnd(_) => {
                let old = self.base[m] * self.transient[m];
                self.transient[m] = 1.0;
                let new = self.base[m];
                DynOutcome {
                    rescale_ratio: Some(old / new),
                    next: self.next_incident(m).into_iter().collect(),
                }
            }
            DynEvent::Fail(_) => {
                self.up[m] = false;
                self.transient[m] = 1.0;
                let rec = uniform_duration_ms(&mut self.rngs[m], self.cfg.recovery_ms);
                DynOutcome {
                    rescale_ratio: None,
                    next: vec![(SimTime::from_millis(rec), DynEvent::Recover(MachineId(m)))],
                }
            }
            DynEvent::Recover(_) => {
                self.up[m] = true;
                DynOutcome {
                    rescale_ratio: None,
                    next: self.next_incident(m).into_iter().collect(),
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq() -> SeedSequence {
        SeedSequence::new(42)
    }

    #[test]
    fn off_config_is_disabled_and_neutral() {
        let cfg = DynamicsConfig::off();
        assert!(!cfg.enabled());
        let mut d = MachineDynamics::new(cfg, 8, &seq());
        for m in 0..8 {
            assert_eq!(d.speed(MachineId(m)), 1.0);
            assert!(d.is_up(MachineId(m)));
        }
        assert!(d.initial_incidents().is_empty());
    }

    #[test]
    fn uniform_point_mass_keeps_all_speeds_at_one() {
        // The "enabled but neutral" config the golden-equivalence test
        // uses: heterogeneity on, but degenerate at speed 1.0.
        let cfg = DynamicsConfig {
            hetero: HeteroProfile::Uniform { lo: 1.0, hi: 1.0 },
            ..DynamicsConfig::off()
        };
        assert!(cfg.enabled());
        let d = MachineDynamics::new(cfg, 16, &seq());
        for m in 0..16 {
            assert_eq!(d.speed(MachineId(m)), 1.0);
        }
    }

    #[test]
    fn bimodal_matches_fraction_roughly() {
        let cfg = DynamicsConfig {
            hetero: HeteroProfile::Bimodal {
                slow_frac: 0.25,
                slow_factor: 0.5,
            },
            ..DynamicsConfig::off()
        };
        let d = MachineDynamics::new(cfg, 2000, &seq());
        let slow = (0..2000).filter(|&m| d.speed(MachineId(m)) < 1.0).count() as f64 / 2000.0;
        assert!((slow - 0.25).abs() < 0.05, "slow fraction {slow}");
        for m in 0..2000 {
            let s = d.speed(MachineId(m));
            assert!(s == 0.5 || s == 1.0, "bimodal speed {s}");
        }
    }

    #[test]
    fn lognormal_speeds_are_clamped_and_spread() {
        let cfg = DynamicsConfig {
            hetero: HeteroProfile::LogNormal { sigma: 0.5 },
            ..DynamicsConfig::off()
        };
        let d = MachineDynamics::new(cfg, 500, &seq());
        let speeds: Vec<f64> = (0..500).map(|m| d.speed(MachineId(m))).collect();
        assert!(speeds.iter().all(|&s| (0.1..=10.0).contains(&s)));
        let distinct = speeds.iter().filter(|&&s| s != speeds[0]).count();
        assert!(distinct > 0, "lognormal should spread speeds");
    }

    #[test]
    fn per_machine_rngs_are_independent_of_construction_order() {
        // Machine 3's base speed must not depend on how many machines
        // exist — each machine's stream is its own seed child.
        let cfg = DynamicsConfig {
            hetero: HeteroProfile::LogNormal { sigma: 0.4 },
            ..DynamicsConfig::off()
        };
        let small = MachineDynamics::new(cfg.clone(), 4, &seq());
        let big = MachineDynamics::new(cfg, 64, &seq());
        assert_eq!(small.speed(MachineId(3)), big.speed(MachineId(3)));
    }

    #[test]
    fn slowdown_brackets_and_ratio() {
        let cfg = DynamicsConfig {
            slowdown_rate_per_hour: 1.0,
            ..DynamicsConfig::off()
        };
        let mut d = MachineDynamics::new(cfg, 2, &seq());
        let init = d.initial_incidents();
        assert_eq!(init.len(), 2);
        assert!(matches!(init[0].1, DynEvent::SlowdownStart(_)));
        let m = init[0].1.machine();
        let out = d.apply(DynEvent::SlowdownStart(m));
        let slow = d.speed(m);
        assert!(
            (SLOWDOWN_FACTOR.0..=SLOWDOWN_FACTOR.1).contains(&slow),
            "speed {slow}"
        );
        // old/new = 1.0/slow: remaining work stretches by 1/slow.
        assert!((out.rescale_ratio.unwrap() - 1.0 / slow).abs() < 1e-12);
        assert_eq!(out.next.len(), 1);
        let (after, end) = out.next[0];
        assert_eq!(end, DynEvent::SlowdownEnd(m));
        assert!((SLOWDOWN_MS.0..=SLOWDOWN_MS.1).contains(&after.as_millis()));
        let back = d.apply(DynEvent::SlowdownEnd(m));
        assert_eq!(d.speed(m), 1.0);
        assert!((back.rescale_ratio.unwrap() - slow).abs() < 1e-12);
        // The chain continues: the end draws the next incident.
        assert_eq!(back.next.len(), 1);
    }

    #[test]
    fn failure_brackets_recovery_and_chain_continues() {
        let cfg = DynamicsConfig {
            fail_rate_per_hour: 2.0,
            recovery_ms: (7_000, 7_000),
            ..DynamicsConfig::off()
        };
        let mut d = MachineDynamics::new(cfg, 1, &seq());
        let m = MachineId(0);
        let out = d.apply(DynEvent::Fail(m));
        assert!(!d.is_up(m));
        assert_eq!(out.rescale_ratio, None);
        assert_eq!(
            out.next,
            vec![(SimTime::from_millis(7_000), DynEvent::Recover(m))]
        );
        let rec = d.apply(DynEvent::Recover(m));
        assert!(d.is_up(m));
        assert_eq!(rec.next.len(), 1, "recovery draws the next incident");
    }

    #[test]
    fn incident_type_split_follows_rates() {
        let cfg = DynamicsConfig {
            slowdown_rate_per_hour: 3.0,
            fail_rate_per_hour: 1.0,
            ..DynamicsConfig::off()
        };
        let mut d = MachineDynamics::new(cfg, 400, &seq());
        let init = d.initial_incidents();
        let fails = init
            .iter()
            .filter(|(_, e)| matches!(e, DynEvent::Fail(_)))
            .count() as f64
            / init.len() as f64;
        assert!((fails - 0.25).abs() < 0.1, "fail share {fails}");
    }
}
