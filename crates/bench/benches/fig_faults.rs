//! Message-fault figure: mean JCT and recovery-machinery counters vs
//! RPC loss rate, Hopper vs Sparrow, decentralized engine.
//!
//! Not a figure of the paper — its testbed network is reliable. This
//! target probes the robustness claim behind §5's decentralized design:
//! the probe/assign protocol, hardened with dedup stamps, leases, and
//! watchdog re-probing, should degrade gracefully as messages are lost
//! (with jitter and duplication riding along at fixed rates), not fall
//! over. The counters make the recovery machinery visible: how many
//! messages the storm destroyed, how many watchdog rounds and fresh
//! probe waves answered, and how many orphaned slots the leases
//! reclaimed.
//!
//! ```sh
//! cargo bench --bench fig_faults
//! ```

use hopper_bench::{banner, decentral_spec, seed_list};
use hopper_decentral::{self as decentral, DecPolicy};
use hopper_experiment::ExperimentSpec;
use hopper_metrics::Table;

const LOSS_RATES: [f64; 4] = [0.0, 0.01, 0.02, 0.05];

/// The cell at one loss rate. Jitter and duplication ride along at fixed
/// rates so the loss axis is swept through a realistically messy
/// network, except at the loss=0 reference point, which stays the
/// pristine (golden-identical) run.
fn storm(msg_loss: f64) -> ExperimentSpec {
    let mut spec = decentral_spec("hopper", "facebook", 0.7);
    spec.single_phase = true;
    spec.msg_loss = msg_loss;
    spec.msg_jitter_ms = if msg_loss > 0.0 { 5 } else { 0 };
    spec.msg_dup = if msg_loss > 0.0 { 0.02 } else { 0.0 };
    spec
}

fn main() {
    banner(
        "Message faults",
        "mean JCT + recovery counters vs RPC loss rate",
    );
    let mut table = Table::new(
        "loss axis, +5ms jitter +2% duplication when loss > 0",
        &[
            "policy", "msg_loss", "mean JCT", "blowup", "lost", "dup", "retried", "timeouts",
            "orphans",
        ],
    );
    for policy in [DecPolicy::Sparrow, DecPolicy::Hopper] {
        let mut base_jct = 0.0;
        for loss in LOSS_RATES {
            let spec = storm(loss);
            let (mut jct, mut n) = (0.0, 0usize);
            let mut lost = 0u64;
            let mut dup = 0u64;
            let mut retried = 0u64;
            let mut timeouts = 0u64;
            let mut orphans = 0u64;
            for seed in seed_list() {
                let (_, cfg) = spec.decentral_config(seed).expect("storm spec");
                let t = spec.trace(seed);
                let out = decentral::run(&t, policy, &cfg);
                assert_eq!(out.jobs.len(), t.len(), "a storm run lost a job");
                jct += out.jobs.iter().map(|j| j.duration_ms() as f64).sum::<f64>();
                n += out.jobs.len();
                lost += out.stats.msgs_lost;
                dup += out.stats.msgs_duplicated;
                retried += out.stats.msgs_retried;
                timeouts += out.stats.timeouts_fired;
                orphans += out.stats.orphan_reclaimed;
            }
            let mean = jct / n as f64;
            if loss == 0.0 {
                base_jct = mean;
            }
            table.row(&[
                policy.name().to_string(),
                format!("{loss}"),
                format!("{mean:.0}"),
                format!("{:.2}x", mean / base_jct),
                lost.to_string(),
                dup.to_string(),
                retried.to_string(),
                timeouts.to_string(),
                orphans.to_string(),
            ]);
        }
    }
    table.print();
    println!(
        "(expect: JCT grows smoothly with loss — every job completes at every rate; the retry \
         and orphan columns show the watchdog/lease machinery doing the recovering, and \
         loss=0 rows match the fault-free goldens bit-for-bit)"
    );
}
