//! The message-fault plane: seeded RPC loss / jitter / duplication and
//! scheduler crash/recover chains for the decentralized engine.
//!
//! Hopper's decentralized claim is that probe-based speculation-aware
//! scheduling survives *at scale* — which means surviving the network.
//! This module supplies the adversary: every scheduler↔worker RPC
//! (reservation, response, assign, refusal, kill) can be **lost** with a
//! per-message probability, **delayed** by a per-message jitter draw (so
//! deliveries reorder), or **duplicated**; and schedulers themselves
//! crash and recover on seeded incident chains exactly like the PR 4
//! machine chains (one chain per scheduler, each consuming only its own
//! seed-derived RNG, so parallel sweeps stay bit-identical).
//!
//! **Faults-off contract.** With [`FaultConfig::off`] (the default)
//! nothing here is constructed, no RNG is drawn, and no timer event is
//! scheduled: runs are bit-identical to a fault-free build, enforced the
//! same way dynamics-off is (golden suites + chaos tests).
//!
//! The protocol-hardening counterpart (timeout watchdogs, lease-based
//! orphan-slot reclamation, dedup stamps) lives in the driver; the
//! invariants it maintains are audited by [`crate::audit`].

use hopper_cluster::{exp_incident_delay_ms, uniform_duration_ms};
use hopper_sim::{SeedSequence, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// Child-seed namespace of the per-message fault RNG. Disjoint from the
/// driver's placement (`0xB10C`), decision (`0xDEC`), and per-machine
/// dynamics (`0xD1_CE00_0000 + m`) children.
const MSG_FAULT_SEED: u64 = 0xFA_0175;

/// Child-seed namespace for per-scheduler crash chains (scheduler `s`
/// uses child `SCHED_SEED_BASE + s`). Far from the machine-dynamics
/// range so the two incident planes can never share a stream.
const SCHED_SEED_BASE: u64 = 0x5C_4ED0_0000;

/// Message-fault and RPC-hardening knobs for the decentralized engine.
///
/// The first four fields *inject* faults; the last two *harden* against
/// them (watchdog pacing). Hardening knobs alone do not enable the
/// plane: with no fault source the timers would only fire on stalls
/// that cannot happen, so they are not armed at all — see
/// [`FaultConfig::enabled`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FaultConfig {
    /// Per-message loss probability, in `[0, 1]`.
    pub msg_loss: f64,
    /// Max extra per-message delivery delay, ms (uniform in `[0, j]`,
    /// drawn per message — deliveries can reorder).
    pub msg_jitter_ms: u64,
    /// Per-message duplication probability, in `[0, 1]` (the duplicate
    /// takes its own jitter draw).
    pub msg_dup: f64,
    /// Scheduler crashes per scheduler per hour (0 disables the chains).
    pub sched_fail_rate_per_hour: f64,
    /// Mean scheduler recovery time, ms (uniform in `[0.5, 1.5] × mttr`,
    /// mirroring the machine-failure convention).
    pub sched_mttr_ms: u64,
    /// RPC timeout: the per-job watchdog and per-response lease horizon,
    /// ms. Must be positive (spec validation rejects 0).
    pub rpc_timeout_ms: u64,
    /// Watchdog retries before the backoff wraps to a fresh probe round
    /// (capped exponential pacing via `hopper_core::protocol::BackoffPolicy`).
    pub rpc_retries: u32,
}

impl Default for FaultConfig {
    fn default() -> Self {
        FaultConfig::off()
    }
}

impl FaultConfig {
    /// The neutral config: a perfect network, immortal schedulers —
    /// and, by contract, zero effect on any run.
    pub fn off() -> Self {
        FaultConfig {
            msg_loss: 0.0,
            msg_jitter_ms: 0,
            msg_dup: 0.0,
            sched_fail_rate_per_hour: 0.0,
            sched_mttr_ms: 10_000,
            rpc_timeout_ms: 2_000,
            rpc_retries: 3,
        }
    }

    /// Whether any fault *source* is active. The driver builds the whole
    /// plane (fault RNG, crash chains, watchdogs, leases) iff this is
    /// true; hardening knobs alone leave runs bit-identical to a
    /// fault-free build.
    pub fn enabled(&self) -> bool {
        self.msg_loss > 0.0
            || self.msg_jitter_ms > 0
            || self.msg_dup > 0.0
            || self.sched_fail_rate_per_hour > 0.0
    }
}

/// One delivery of a faulted message: the extra delay on top of the
/// configured message latency.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// Extra delay beyond `msg_latency` (the jitter draw; zero without
    /// jitter).
    pub extra: SimTime,
}

/// The deliveries of one message, held inline: none (lost), one, or two
/// (duplicated), in draw order. Derefs to a slice.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Deliveries {
    buf: [Delivery; 2],
    len: usize,
}

impl Deliveries {
    const NONE: Deliveries = Deliveries {
        buf: [Delivery {
            extra: SimTime::ZERO,
        }; 2],
        len: 0,
    };

    fn push(&mut self, d: Delivery) {
        self.buf[self.len] = d;
        self.len += 1;
    }
}

impl std::ops::Deref for Deliveries {
    type Target = [Delivery];
    fn deref(&self) -> &[Delivery] {
        &self.buf[..self.len]
    }
}

/// Outcome of pushing one message through the fault plane.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SendOutcome {
    /// Deliveries to schedule: empty (lost), one, or two (duplicated).
    pub deliveries: Deliveries,
    /// Whether the primary copy was dropped.
    pub lost: bool,
    /// Whether a duplicate delivery was generated.
    pub duplicated: bool,
}

/// The per-message fault sampler: one RNG, consumed in a fixed draw
/// order per send (loss, then jitter, then duplication, then the
/// duplicate's jitter), so a seed fully determines every network fate.
#[derive(Debug, Clone)]
pub struct MsgFaults {
    cfg: FaultConfig,
    rng: StdRng,
}

impl MsgFaults {
    /// Build the sampler from the run's root seed sequence.
    pub fn new(cfg: FaultConfig, seq: &SeedSequence) -> Self {
        MsgFaults {
            cfg,
            rng: seq.child_rng(MSG_FAULT_SEED),
        }
    }

    /// Build a sampler on an explicit seed label — the sharded engine
    /// gives every entity (scheduler, worker) its own sampler so each
    /// consumes fault randomness in its own send order, independent of
    /// how entities are partitioned across shards. Labels live in
    /// namespaces disjoint from every existing child (see the constants
    /// at the top of this module and `shard.rs`).
    pub fn with_seed(cfg: FaultConfig, seq: &SeedSequence, label: u64) -> Self {
        MsgFaults {
            cfg,
            rng: seq.child_rng(label),
        }
    }

    fn jitter(&mut self) -> SimTime {
        if self.cfg.msg_jitter_ms == 0 {
            return SimTime::ZERO;
        }
        SimTime::from_millis(self.rng.gen_range(0..=self.cfg.msg_jitter_ms))
    }

    /// Draw one message's fate. A lost message generates no deliveries
    /// (and no duplicate — the loss models the send never leaving the
    /// host); a surviving one is delivered once with its jitter, plus
    /// possibly a duplicate with an independent jitter draw.
    pub fn send(&mut self) -> SendOutcome {
        if self.cfg.msg_loss > 0.0 && self.rng.gen::<f64>() < self.cfg.msg_loss {
            return SendOutcome {
                deliveries: Deliveries::NONE,
                lost: true,
                duplicated: false,
            };
        }
        let mut deliveries = Deliveries::NONE;
        deliveries.push(Delivery {
            extra: self.jitter(),
        });
        let duplicated = self.cfg.msg_dup > 0.0 && self.rng.gen::<f64>() < self.cfg.msg_dup;
        if duplicated {
            deliveries.push(Delivery {
                extra: self.jitter(),
            });
        }
        SendOutcome {
            deliveries,
            lost: false,
            duplicated,
        }
    }
}

/// A scheduler crash/recover incident, scheduled through the driver's
/// event queue like a machine [`hopper_cluster::DynEvent`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SchedEv {
    /// Scheduler `s` crashes: its queue state (candidates, claims,
    /// learned β) is lost and in-flight replies to it become stale.
    Fail(usize),
    /// Scheduler `s` recovers and rebuilds its view from ground truth.
    Recover(usize),
}

/// Per-scheduler seeded crash chains, mirroring the machine incident
/// chains: a live scheduler waits an exponential time, crashes, stays
/// down for a uniform `[0.5, 1.5] × mttr` interval, recovers, and only
/// then draws its next crash — never overlapping, one private RNG per
/// scheduler.
#[derive(Debug, Clone)]
pub struct SchedulerChain {
    rate_per_hour: f64,
    recovery_ms: (u64, u64),
    rngs: Vec<StdRng>,
}

impl SchedulerChain {
    /// Build chains for `schedulers` schedulers off the run's root seed.
    pub fn new(cfg: &FaultConfig, schedulers: usize, seq: &SeedSequence) -> Self {
        SchedulerChain {
            rate_per_hour: cfg.sched_fail_rate_per_hour,
            recovery_ms: (
                cfg.sched_mttr_ms / 2,
                cfg.sched_mttr_ms + cfg.sched_mttr_ms / 2,
            ),
            rngs: (0..schedulers)
                .map(|s| seq.child_rng(SCHED_SEED_BASE + s as u64))
                .collect(),
        }
    }

    /// First crash per scheduler, as delays from simulation start. Empty
    /// when the crash rate is zero.
    pub fn initial_incidents(&mut self) -> Vec<(SimTime, SchedEv)> {
        (0..self.rngs.len())
            .filter_map(|s| {
                exp_incident_delay_ms(&mut self.rngs[s], self.rate_per_hour)
                    .map(|d| (SimTime::from_millis(d), SchedEv::Fail(s)))
            })
            .collect()
    }

    /// Apply one incident, returning the follow-up to schedule (a crash
    /// brackets its recovery; a recovery draws the next crash).
    pub fn apply(&mut self, ev: SchedEv) -> Option<(SimTime, SchedEv)> {
        match ev {
            SchedEv::Fail(s) => {
                let rec = uniform_duration_ms(&mut self.rngs[s], self.recovery_ms);
                Some((SimTime::from_millis(rec), SchedEv::Recover(s)))
            }
            SchedEv::Recover(s) => exp_incident_delay_ms(&mut self.rngs[s], self.rate_per_hour)
                .map(|d| (SimTime::from_millis(d), SchedEv::Fail(s))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seq() -> SeedSequence {
        SeedSequence::new(7)
    }

    #[test]
    fn off_is_disabled_and_hardening_knobs_alone_do_not_enable() {
        let cfg = FaultConfig::off();
        assert!(!cfg.enabled());
        let hardened = FaultConfig {
            rpc_timeout_ms: 500,
            rpc_retries: 9,
            sched_mttr_ms: 1,
            ..FaultConfig::off()
        };
        assert!(
            !hardened.enabled(),
            "hardening knobs are not a fault source"
        );
        for on in [
            FaultConfig {
                msg_loss: 0.01,
                ..FaultConfig::off()
            },
            FaultConfig {
                msg_jitter_ms: 1,
                ..FaultConfig::off()
            },
            FaultConfig {
                msg_dup: 0.01,
                ..FaultConfig::off()
            },
            FaultConfig {
                sched_fail_rate_per_hour: 0.5,
                ..FaultConfig::off()
            },
        ] {
            assert!(on.enabled(), "{on:?}");
        }
    }

    #[test]
    fn loss_rate_is_roughly_honored_and_deterministic() {
        let cfg = FaultConfig {
            msg_loss: 0.25,
            ..FaultConfig::off()
        };
        let mut f = MsgFaults::new(cfg, &seq());
        let lost = (0..4000).filter(|_| f.send().lost).count() as f64 / 4000.0;
        assert!((lost - 0.25).abs() < 0.03, "loss rate {lost}");
        // Same seed ⇒ same fates, message for message.
        let mut a = MsgFaults::new(cfg, &seq());
        let mut b = MsgFaults::new(cfg, &seq());
        for _ in 0..200 {
            assert_eq!(a.send(), b.send());
        }
    }

    #[test]
    fn lost_messages_produce_no_deliveries_and_no_duplicates() {
        let cfg = FaultConfig {
            msg_loss: 1.0,
            msg_dup: 1.0,
            msg_jitter_ms: 50,
            ..FaultConfig::off()
        };
        let mut f = MsgFaults::new(cfg, &seq());
        for _ in 0..50 {
            let out = f.send();
            assert!(out.lost && !out.duplicated && out.deliveries.is_empty());
        }
    }

    #[test]
    fn duplication_yields_two_deliveries_with_independent_jitter() {
        let cfg = FaultConfig {
            msg_dup: 1.0,
            msg_jitter_ms: 1000,
            ..FaultConfig::off()
        };
        let mut f = MsgFaults::new(cfg, &seq());
        let mut differed = false;
        for _ in 0..50 {
            let out = f.send();
            assert!(out.duplicated);
            assert_eq!(out.deliveries.len(), 2);
            if out.deliveries[0] != out.deliveries[1] {
                differed = true;
            }
        }
        assert!(differed, "duplicate jitter draws should be independent");
    }

    #[test]
    fn jitter_is_bounded_by_the_config() {
        let cfg = FaultConfig {
            msg_jitter_ms: 7,
            ..FaultConfig::off()
        };
        let mut f = MsgFaults::new(cfg, &seq());
        for _ in 0..500 {
            for d in f.send().deliveries.iter() {
                assert!(d.extra <= SimTime::from_millis(7));
            }
        }
    }

    #[test]
    fn scheduler_chain_brackets_and_continues() {
        let cfg = FaultConfig {
            sched_fail_rate_per_hour: 2.0,
            sched_mttr_ms: 10_000,
            ..FaultConfig::off()
        };
        let mut chain = SchedulerChain::new(&cfg, 3, &seq());
        let init = chain.initial_incidents();
        assert_eq!(init.len(), 3);
        assert!(init.iter().all(|(_, e)| matches!(e, SchedEv::Fail(_))));
        let (rec_delay, rec) = chain
            .apply(SchedEv::Fail(1))
            .expect("crash brackets recovery");
        assert_eq!(rec, SchedEv::Recover(1));
        assert!(
            rec_delay >= SimTime::from_millis(5_000) && rec_delay <= SimTime::from_millis(15_000),
            "recovery in [0.5, 1.5]×mttr, got {rec_delay}"
        );
        let next = chain.apply(rec).expect("recovery draws the next crash");
        assert!(matches!(next.1, SchedEv::Fail(1)));
    }

    #[test]
    fn scheduler_chains_are_per_scheduler_seed_children() {
        // Scheduler 2's chain must not depend on how many schedulers
        // exist — same independence the machine chains guarantee.
        let cfg = FaultConfig {
            sched_fail_rate_per_hour: 1.0,
            sched_mttr_ms: 5_000,
            ..FaultConfig::off()
        };
        let mut small = SchedulerChain::new(&cfg, 3, &seq());
        let mut big = SchedulerChain::new(&cfg, 12, &seq());
        assert_eq!(small.initial_incidents()[2], big.initial_incidents()[2]);
    }

    #[test]
    fn zero_rate_chain_never_fires() {
        let mut chain = SchedulerChain::new(&FaultConfig::off(), 4, &seq());
        assert!(chain.initial_incidents().is_empty());
        assert!(chain.apply(SchedEv::Recover(0)).is_none());
    }
}
