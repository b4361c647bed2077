//! Cluster-dynamics figure: mean JCT vs slow-node fraction, Hopper vs
//! Sparrow vs Sparrow-SRPT(+LATE), decentralized engine.
//!
//! Not a figure of the paper — the paper's testbed is homogeneous and its
//! stragglers are task-level draws. This target probes the thesis under
//! *machine-level* stragglers (the dominant production cause): a bimodal
//! cluster where a `slow_frac` fraction of machines runs at 0.3× of
//! nominal speed. The speculation-unaware baseline degrades fastest;
//! coordinated speculation absorbs slow machines the same way it absorbs
//! slow tasks.
//!
//! ```sh
//! cargo bench --bench fig_hetero
//! ```

use hopper_bench::{banner, decentral_spec, seed_list};
use hopper_experiment::{sweep, SweepAxis};
use hopper_metrics::Table;

/// Speed of a slow machine, as a fraction of nominal.
const SLOW_FACTOR: f64 = 0.3;

fn main() {
    banner(
        "Cluster dynamics",
        "mean JCT vs slow-node fraction (bimodal heterogeneity)",
    );
    let fracs = ["0.0", "0.1", "0.2", "0.3"];
    let axis = SweepAxis {
        key: "slow_frac".into(),
        values: fracs.iter().map(|f| f.to_string()).collect(),
    };
    let mut table = Table::new(
        &format!("slow machines run at {SLOW_FACTOR}x nominal"),
        &["policy", "slow_frac=0", "0.1", "0.2", "0.3", "blowup"],
    );
    for policy in ["sparrow", "sparrow-srpt", "hopper"] {
        let mut spec = decentral_spec(policy, "facebook", 0.7);
        spec.single_phase = true;
        spec.hetero = "bimodal".into();
        spec.slow_factor = SLOW_FACTOR;
        spec.seeds = seed_list();
        let table_out = sweep(&spec, &axis).expect("sweep");
        let means: Vec<f64> = fracs.iter().map(|f| table_out.mean_for(f)).collect();
        table.row(&[
            policy.to_string(),
            format!("{:.0}", means[0]),
            format!("{:.0}", means[1]),
            format!("{:.0}", means[2]),
            format!("{:.0}", means[3]),
            format!("{:.2}x", means[3] / means[0]),
        ]);
    }
    table.print();
    println!(
        "(expect: every policy degrades as slow_frac grows; speculation-unaware Sparrow blows \
         up fastest while Hopper keeps the best absolute JCT — coordinated speculation absorbs \
         machine-level stragglers)"
    );
}
