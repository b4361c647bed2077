//! Per-layer kernels: each calls one crate's public hot-path functions in
//! a loop, sized from the workload, and returns nanoseconds per
//! operation. They measure a layer from outside the engines; a kernel's
//! cost times an engine counter is an estimate of that layer's share,
//! not a measurement of it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

use hopper_cluster::{ClusterConfig, MachineId, Machines};
use hopper_core::{AllocConfig, BetaEstimator, EventKey, IncrementalAlloc, Mailbox, SyncBarrier};
use hopper_metrics::QuantileSketch;
use hopper_sim::{EventQueue, SimTime};

use crate::stats::median;

/// Deterministic SplitMix64 stream for kernel inputs.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    /// Uniform in (0, 1].
    fn unit(&mut self) -> f64 {
        ((self.next() >> 11) + 1) as f64 / (1u64 << 53) as f64
    }

    /// Pareto(β = 1.5) draw ≥ 1: the shape of task-duration multipliers.
    fn pareto(&mut self) -> f64 {
        self.unit().powf(-1.0 / 1.5)
    }
}

/// Median over three timed batches (after one untimed batch) of the
/// nanoseconds per operation; `batch` performs `ops` operations.
fn ns_per_op(ops: u64, mut batch: impl FnMut()) -> f64 {
    batch();
    let samples: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            batch();
            start.elapsed().as_nanos() as f64 / ops as f64
        })
        .collect();
    median(&samples)
}

/// `EventQueue` hold loop (pop the earliest event, push one later) at a
/// fixed occupancy; ns per pop + push.
pub fn queue_hold(occupancy: usize) -> f64 {
    const OPS: u64 = 200_000;
    let mut rng = Rng(1);
    let mut q = EventQueue::new();
    for i in 0..occupancy.max(1) {
        q.push(SimTime::from_millis(rng.below(1000)), i as u64);
    }
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let (_, e) = q.pop().expect("occupancy is constant");
            q.push_after(SimTime::from_millis(1 + rng.below(1000)), black_box(e));
        }
    })
}

/// The same hold loop on a bare `std::collections::BinaryHeap` of
/// `(time, id)` keys: the floor any event heap pays.
pub fn heap_floor(occupancy: usize) -> f64 {
    const OPS: u64 = 200_000;
    let mut rng = Rng(1);
    let mut heap = BinaryHeap::new();
    for i in 0..occupancy.max(1) as u64 {
        heap.push(Reverse((rng.below(1000), i)));
    }
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            let Reverse((t, e)) = heap.pop().expect("occupancy is constant");
            heap.push(Reverse((t + 1 + rng.below(1000), black_box(e))));
        }
    })
}

/// `IncrementalAlloc::upsert` of one job's new remaining work followed by
/// `allocate`, over `jobs` live jobs in shared-β mode (the `learn_beta`
/// configuration); ns per upsert + allocate.
pub fn alloc_update(jobs: usize, capacity: usize) -> f64 {
    const OPS: u64 = 2_000;
    let jobs = jobs.max(1);
    let mut rng = Rng(2);
    let mut alloc = IncrementalAlloc::new(Some(1.5));
    let remaining = |rng: &mut Rng| 1.0 + rng.below(500) as f64;
    for j in 0..jobs {
        alloc.upsert(j, remaining(&mut rng), 0.0, 1.0, 1.5, 1.0);
    }
    let cfg = AllocConfig::default();
    alloc.allocate(capacity.max(1), &cfg);
    let mut j = 0;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            j = (j + 1) % jobs;
            alloc.upsert(j, remaining(&mut rng), 0.0, 1.0, 1.5, 1.0);
            black_box(alloc.allocate(capacity.max(1), &cfg));
        }
    })
}

/// `BetaEstimator::observe` followed by `beta` on a full window (the
/// default 2000 samples): one ln-sweep per call.
pub fn beta_observe(window: usize) -> f64 {
    const OPS: u64 = 2_000;
    let mut rng = Rng(3);
    let mut est = BetaEstimator::with_prior(1.5);
    for _ in 0..window {
        est.observe(rng.pareto());
    }
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            est.observe(rng.pareto());
            black_box(est.beta());
        }
    })
}

/// `Mailbox::post_many` of a batch followed by `drain`; ns per message.
pub fn mailbox_round_trip() -> f64 {
    const BATCH: u64 = 256;
    const ROUNDS: u64 = 2_000;
    let mailbox = Mailbox::new();
    let mut seq = 0;
    ns_per_op(BATCH * ROUNDS, || {
        for _ in 0..ROUNDS {
            let batch: Vec<(EventKey, u64)> = (0..BATCH)
                .map(|i| {
                    seq += 1;
                    let key = EventKey {
                        time: SimTime::from_millis(seq),
                        origin: i,
                        seq,
                    };
                    (key, seq)
                })
                .collect();
            mailbox.post_many(batch);
            black_box(mailbox.drain());
        }
    })
}

/// Two-party `SyncBarrier::wait` (one peer thread); ns per wait.
pub fn barrier_wait() -> f64 {
    const WAITS: u64 = 20_000;
    let barrier = SyncBarrier::new(2);
    ns_per_op(WAITS, || {
        std::thread::scope(|s| {
            s.spawn(|| (0..WAITS).for_each(|_| barrier.wait()));
            (0..WAITS).for_each(|_| barrier.wait());
        })
    })
}

/// A cluster whose free slots are all warm for one of `jobs` jobs, spread
/// round-robin: every `bind_idle` has to steal.
fn warm_cluster(cluster: &ClusterConfig, jobs: usize) -> Machines {
    let mut machines = Machines::new(cluster);
    let mut slot = 0;
    for m in (0..cluster.machines).map(MachineId) {
        // Occupy every slot first so each release binds a fresh one.
        for _ in 0..cluster.slots_per_machine {
            machines.occupy_for(m, 0);
        }
        for _ in 0..cluster.slots_per_machine {
            machines.release_to(m, slot % jobs);
            slot += 1;
        }
    }
    machines
}

/// `Machines::bind_idle` on the workload's cluster, cycling over `jobs`
/// jobs that each want an even share of the slots; ns per call.
pub fn bind_idle(cluster: &ClusterConfig, jobs: usize) -> f64 {
    const OPS: u64 = 2_000;
    let jobs = jobs.max(2);
    let want = (cluster.total_slots() / jobs).max(1);
    let mut machines = warm_cluster(cluster, jobs);
    let mut j = 0;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            j = (j + 1) % jobs;
            black_box(machines.bind_idle(j, want));
        }
    })
}

/// `Machines::occupy_for` then `release_to` on the workload's cluster,
/// walking machines in order; ns per pair.
pub fn occupy_release(cluster: &ClusterConfig, jobs: usize) -> f64 {
    const OPS: u64 = 200_000;
    let jobs = jobs.max(2);
    let mut machines = warm_cluster(cluster, jobs);
    let mut i = 0;
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            i += 1;
            let m = MachineId(i % cluster.machines.max(1));
            black_box(machines.occupy_for(m, i % jobs));
            machines.release_to(m, (i + 1) % jobs);
        }
    })
}

/// `QuantileSketch::observe` of heavy-tailed job durations (ms) at the
/// digest's ε = 1%; ns per observation.
pub fn sketch_observe() -> f64 {
    const OPS: u64 = 200_000;
    let mut rng = Rng(4);
    let mut sketch = QuantileSketch::new(0.01);
    ns_per_op(OPS, || {
        for _ in 0..OPS {
            sketch.observe(black_box(1000.0 * rng.pareto()));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernels_report_positive_costs() {
        let cluster = ClusterConfig {
            machines: 8,
            slots_per_machine: 2,
            ..Default::default()
        };
        for (name, ns) in [
            ("queue", queue_hold(16)),
            ("floor", heap_floor(16)),
            ("alloc", alloc_update(4, 16)),
            ("beta", beta_observe(64)),
            ("bind", bind_idle(&cluster, 3)),
            ("occupy", occupy_release(&cluster, 3)),
            ("sketch", sketch_observe()),
        ] {
            assert!(ns.is_finite() && ns > 0.0, "{name}: {ns}");
        }
    }

    #[test]
    fn warm_cluster_binds_every_slot() {
        let cluster = ClusterConfig {
            machines: 5,
            slots_per_machine: 3,
            ..Default::default()
        };
        let machines = warm_cluster(&cluster, 4);
        assert_eq!(machines.total_free(), 15);
        assert_eq!((0..4).map(|j| machines.warm_total(j)).sum::<usize>(), 15);
    }
}
