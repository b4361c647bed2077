//! Property-based tests (proptest) on the core invariants.

use hopper::core::{
    allocate, AllocConfig, FreeSlotEpisode, JobDemand, Reservation, WorkerAction, MAX_USEFUL_FACTOR,
};
use hopper::metrics::percentile;
use hopper::sim::{rng_from_seed, EventKey, EventQueue, SimTime};
use hopper::workload::Dist;
use proptest::prelude::*;
use rand::Rng;

fn demand_strategy() -> impl Strategy<Value = JobDemand> {
    (
        0usize..50,
        0.0f64..2000.0,
        0.0f64..500.0,
        0.05f64..20.0,
        1.05f64..2.5,
        0.1f64..4.0,
    )
        .prop_map(|(job, rem, down, alpha, beta, weight)| JobDemand {
            job,
            remaining_tasks: rem,
            downstream_tasks: down,
            alpha,
            beta,
            weight,
        })
}

/// Delay of the lane in the lane-vs-heap differential.
const LANE_MS: u64 = 2;

/// Drive a heap-only queue and a queue with a delay lane at [`LANE_MS`]
/// through the same operations, and assert that every observation —
/// popped `(time, event)`, `peek_time`, `len`, `is_empty` — agrees after
/// each one, then that both drain identically. An op is `(kind, arg)`:
///
/// - 0: `push` at `now + arg % 4` (absolute; same-instant ties galore);
/// - 1: `push_after` at the lane delay;
/// - 2: `push_after` at another delay (0, 1, 3 or 5);
/// - 3: `push_arrival` at `now + arg % 3`, unless an arrival is queued
///   already (an engine queues one at a time);
/// - 4, 5: `pop`. While an arrival is queued at the head's instant, the
///   pop must return it, however many entries were pushed there first.
fn assert_lane_matches_heap(ops: impl IntoIterator<Item = (u8, u64)>) {
    let ms = SimTime::from_millis;
    let mut heap = EventQueue::new();
    let mut lane = EventQueue::with_lanes([ms(LANE_MS)]);
    let mut arrival: Option<(SimTime, usize)> = None;
    for (i, (kind, arg)) in ops.into_iter().enumerate() {
        match kind {
            0 => {
                let at = heap.now() + ms(arg % 4);
                heap.push(at, i);
                lane.push(at, i);
            }
            1 => {
                heap.push_after(ms(LANE_MS), i);
                lane.push_after(ms(LANE_MS), i);
            }
            2 => {
                let d = ms([0, 1, 3, 5][arg as usize % 4]);
                heap.push_after(d, i);
                lane.push_after(d, i);
            }
            3 if arrival.is_none() => {
                let at = heap.now() + ms(arg % 3);
                heap.push_arrival(at, i);
                lane.push_arrival(at, i);
                arrival = Some((at, i));
            }
            3 => {}
            _ => {
                let popped = heap.pop();
                if let Some((at, id)) = arrival {
                    if popped.is_some_and(|(t, _)| t == at) {
                        assert_eq!(popped, Some((at, id)), "op {i}: arrival not first");
                        arrival = None;
                    }
                }
                assert_eq!(popped, lane.pop(), "op {i}");
            }
        }
        assert_eq!(heap.peek_time(), lane.peek_time(), "op {i}");
        assert_eq!(heap.len(), lane.len(), "op {i}");
        assert_eq!(heap.is_empty(), lane.is_empty(), "op {i}");
        assert_eq!(heap.now(), lane.now(), "op {i}");
    }
    while let Some(ev) = heap.pop() {
        assert_eq!(Some(ev), lane.pop());
    }
    assert!(lane.is_empty());
    let (h, l) = (heap.counters(), lane.counters());
    assert_eq!(h.lane_pushes, 0);
    assert_eq!(h.heap_pushes, l.heap_pushes + l.lane_pushes);
}

/// Drive a queue fed by `push_keyed` and `push_arrival` and a reference
/// `BinaryHeap` through the same operations and assert that they pop the
/// same events in the same order. The reference orders by `(time, not an
/// arrival, origin, seq)`: it states the arrival rule on its own instead
/// of trusting [`EventKey::arrival`]'s values. An op is
/// `(kind, offset, origin)`:
///
/// - 0–2: push at `now + offset % 3` from `origin`, stamped with that
///   origin's next sequence number, from 1 (few instants, few origins:
///   ties at one instant are the common case);
/// - 3: `push_arrival` at `now + offset % 3`, unless one is queued;
/// - 4: pop from both.
fn assert_keyed_matches_reference(ops: impl IntoIterator<Item = (u8, u64, u64)>) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut q = EventQueue::new();
    let mut reference = BinaryHeap::new();
    let mut seqs = [1u64; 4];
    let mut arrival_queued = false;
    for (i, (kind, offset, origin)) in ops.into_iter().enumerate() {
        let at = q.now() + SimTime::from_millis(offset % 3);
        if kind < 3 {
            let origin = origin % seqs.len() as u64;
            let seq = seqs[origin as usize];
            seqs[origin as usize] += 1;
            q.push_keyed(
                EventKey {
                    time: at,
                    origin,
                    seq,
                },
                i,
            );
            reference.push(Reverse(((at, true, origin, seq), i)));
        } else if kind == 3 {
            if !arrival_queued {
                q.push_arrival(at, i);
                reference.push(Reverse(((at, false, 0, 0), i)));
                arrival_queued = true;
            }
        } else {
            let want = reference.pop().map(|Reverse(entry)| entry);
            if matches!(want, Some(((_, false, ..), _))) {
                arrival_queued = false;
            }
            assert_eq!(q.pop(), want.map(|(k, id)| (k.0, id)), "op {i}");
        }
        let next = reference.peek().map(|Reverse((k, _))| k.0);
        assert_eq!(q.peek_time(), next, "op {i}");
        assert_eq!(q.len(), reference.len(), "op {i}");
    }
    while let Some(Reverse((k, id))) = reference.pop() {
        assert_eq!(q.pop(), Some((k.0, id)));
    }
    assert!(q.is_empty());
}

/// Lane delays of the keyed-lane differential; its other delays (0, 4
/// and 7 ms) go to the heap.
const KEYED_LANES_MS: [u64; 3] = [1, 2, 3];

/// Drive a queue with the lanes of [`KEYED_LANES_MS`], fed by keyed
/// pushes as the sharded engine feeds its queues, and a reference
/// `BinaryHeap` through the same operations; assert after each one that
/// they agree on the popped `(time, event)`, `peek_time` and `len`. An op
/// is `(kind, a, b)`; the origin is `1 + b % 4`, stamped with that
/// origin's next sequence number:
///
/// - 0–2: push sent now, `[0, 1, 2, 3, 4, 7][a % 6]` ms ahead (lane and
///   heap delays; few instants, so same-instant ties are the rule);
/// - 3: a late push, as a mailbox delivers it: sent `a % 3` ms before
///   the clock at a lane delay that still lands at or after it, so it
///   sorts below the lane's back;
/// - 4: `push_arrival` at `now + a % 3`, unless one is queued;
/// - 5, 6: pop from both.
fn assert_keyed_lanes_match_reference(ops: impl IntoIterator<Item = (u8, u64, u64)>) {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let ms = SimTime::from_millis;
    let mut q = EventQueue::with_lanes(KEYED_LANES_MS.map(ms));
    let mut reference = BinaryHeap::new();
    let mut seqs = [1u64; 5];
    let mut arrival_queued = false;
    // Expected (heap, lane) pushes.
    let mut pushes = (0, 0);
    for (i, (kind, a, b)) in ops.into_iter().enumerate() {
        let now = q.now();
        let origin = 1 + b % 4;
        let sent = match kind {
            0..=2 => Some((now, ms([0, 1, 2, 3, 4, 7][a as usize % 6]))),
            3 => {
                let send = now.saturating_sub(ms(a % 3));
                let delay = KEYED_LANES_MS[b as usize % 3].max((now - send).as_millis());
                Some((send, ms(delay)))
            }
            _ => None,
        };
        if let Some((send, delay)) = sent {
            let seq = seqs[origin as usize];
            seqs[origin as usize] += 1;
            let time = send + delay;
            if KEYED_LANES_MS.contains(&delay.as_millis()) {
                pushes.1 += 1;
            } else {
                pushes.0 += 1;
            }
            q.push_keyed_after(delay, EventKey { time, origin, seq }, i);
            reference.push(Reverse(((time, true, origin, seq), i)));
        } else if kind == 4 {
            if !arrival_queued {
                let at = now + ms(a % 3);
                q.push_arrival(at, i);
                reference.push(Reverse(((at, false, 0, 0), i)));
                arrival_queued = true;
                pushes.0 += 1;
            }
        } else {
            let want = reference.pop().map(|Reverse(entry)| entry);
            if matches!(want, Some(((_, false, ..), _))) {
                arrival_queued = false;
            }
            assert_eq!(q.pop(), want.map(|(k, id)| (k.0, id)), "op {i}");
        }
        let next = reference.peek().map(|Reverse((k, _))| k.0);
        assert_eq!(q.peek_time(), next, "op {i}");
        assert_eq!(q.len(), reference.len(), "op {i}");
    }
    while let Some(Reverse((k, id))) = reference.pop() {
        assert_eq!(q.pop(), Some((k.0, id)));
    }
    assert!(q.is_empty());
    let c = q.counters();
    assert_eq!((c.heap_pushes, c.lane_pushes), pushes);
}

proptest! {
    /// Allocation never exceeds capacity, for any demand set and any ε.
    #[test]
    fn allocation_respects_capacity(
        demands in prop::collection::vec(demand_strategy(), 0..40),
        capacity in 0usize..5000,
        eps in 0.0f64..=1.0,
    ) {
        let cfg = AllocConfig { fairness_eps: eps };
        let allocs = allocate(&demands, capacity, &cfg);
        let total: usize = allocs.iter().map(|a| a.slots).sum();
        prop_assert!(total <= capacity, "total {total} > capacity {capacity}");
        prop_assert_eq!(allocs.len(), demands.len());
        // Output order matches input order.
        for (a, d) in allocs.iter().zip(&demands) {
            prop_assert_eq!(a.job, d.job);
        }
    }

    /// With ε-fairness on, every job gets at least its floor
    /// min((1−ε)·S·w/Σw − 1, ⌈V⌉, cap) slots (−1 absorbs integer floors).
    #[test]
    fn fairness_floor_holds(
        demands in prop::collection::vec(demand_strategy(), 1..30),
        capacity in 1usize..2000,
        eps in 0.0f64..0.9,
    ) {
        let cfg = AllocConfig { fairness_eps: eps };
        let allocs = allocate(&demands, capacity, &cfg);
        let total_w: f64 = demands.iter().map(|d| d.weight).sum();
        // Floors are trimmed only when their sum exceeds capacity; skip
        // that regime (it is exercised by the capacity property anyway).
        let floor_sum: f64 = demands
            .iter()
            .map(|d| ((1.0 - eps) * capacity as f64 * d.weight / total_w).floor())
            .sum();
        prop_assume!(floor_sum <= capacity as f64);
        for (a, d) in allocs.iter().zip(&demands) {
            let fair = capacity as f64 * d.weight / total_w;
            let floor = ((1.0 - eps) * fair).floor();
            let cap = (d.remaining_tasks * MAX_USEFUL_FACTOR).ceil();
            let entitled = floor.min(d.virtual_size().ceil()).min(cap);
            prop_assert!(
                a.slots as f64 >= entitled - 1.0,
                "job {} got {} slots, entitled to {entitled}",
                d.job, a.slots
            );
        }
    }

    /// Allocation is work-conserving in the constrained regime: if demand
    /// exceeds capacity (ΣV > S) the allocator hands out every slot.
    #[test]
    fn constrained_regime_is_work_conserving(
        demands in prop::collection::vec(demand_strategy(), 1..30),
        capacity in 1usize..1000,
    ) {
        let total_v: f64 = demands.iter().map(|d| d.virtual_size()).sum();
        prop_assume!(total_v > capacity as f64 * 1.5);
        // Also require the *useful* demand (caps) to cover capacity.
        let cfg = AllocConfig::no_fairness();
        let total_cap: f64 = demands
            .iter()
            .map(|d| (d.remaining_tasks * MAX_USEFUL_FACTOR).ceil())
            .sum();
        prop_assume!(total_cap >= capacity as f64);
        let allocs = allocate(&demands, capacity, &cfg);
        let total: usize = allocs.iter().map(|a| a.slots).sum();
        prop_assert!(
            total >= capacity.saturating_sub(demands.len()),
            "left {} slots unallocated under overload",
            capacity - total
        );
    }

    /// Jobs with no remaining work (zero remaining and downstream tasks)
    /// receive zero slots in either regime: the fairness floor is capped by
    /// ⌈V⌉ = 0 and the useful-slots cap is 0.
    #[test]
    fn zero_demand_jobs_get_zero_slots(
        demands in prop::collection::vec(demand_strategy(), 0..30),
        zeros in prop::collection::vec(0usize..30, 1..10),
        capacity in 0usize..3000,
        eps in 0.0f64..=1.0,
    ) {
        let mut demands = demands;
        // Splice zero-demand jobs in among the live ones.
        for (k, z) in zeros.iter().enumerate() {
            let mut d = JobDemand::simple(1000 + k, 0.0, 1.5);
            d.downstream_tasks = 0.0;
            let at = (*z).min(demands.len());
            demands.insert(at, d);
        }
        let cfg = AllocConfig { fairness_eps: eps };
        let allocs = allocate(&demands, capacity, &cfg);
        for (a, d) in allocs.iter().zip(&demands) {
            if d.remaining_tasks == 0.0 && d.downstream_tasks == 0.0 {
                prop_assert_eq!(
                    a.slots, 0,
                    "zero-demand job {} was granted {} slots", d.job, a.slots
                );
            }
        }
    }

    /// All allocations from one call report the same regime, and that
    /// regime agrees with the paper's switch condition ΣV vs S.
    #[test]
    fn regime_is_uniform_and_matches_total_demand(
        demands in prop::collection::vec(demand_strategy(), 1..30),
        capacity in 1usize..2000,
    ) {
        use hopper::core::Regime;
        let cfg = AllocConfig::no_fairness();
        let allocs = allocate(&demands, capacity, &cfg);
        let total_v: f64 = demands.iter().map(|d| d.virtual_size()).sum();
        let expect = if total_v > capacity as f64 {
            Regime::Constrained
        } else {
            Regime::Proportional
        };
        for a in &allocs {
            prop_assert_eq!(a.regime, expect, "job {} regime mismatch", a.job);
        }
    }

    /// The event queue pops in nondecreasing time order, FIFO on ties.
    #[test]
    fn event_queue_total_order(times in prop::collection::vec(0u64..10_000, 0..300)) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.push(SimTime::from_millis(t), i);
        }
        let mut last: Option<(SimTime, usize)> = None;
        while let Some((t, i)) = q.pop() {
            if let Some((lt, li)) = last {
                prop_assert!(t >= lt);
                if t == lt {
                    prop_assert!(i > li, "FIFO violated on tie");
                }
            }
            last = Some((t, i));
        }
    }

    /// Keyed pushes pop in `EventKey` order — time, then origin, then
    /// the origin's sequence — exactly like the reference heap, and an
    /// arrival pops before every other entry at its instant.
    #[test]
    fn event_queue_keyed_order_matches_reference(
        ops in prop::collection::vec((0u8..5, 0u64..6, 0u64..3), 0..400),
    ) {
        assert_keyed_matches_reference(ops);
    }

    /// A queue with a delay lane pops exactly what the heap-only queue
    /// pops, tie for tie, under random interleavings of every operation.
    #[test]
    fn event_queue_lane_matches_heap(ops in prop::collection::vec((0u8..6, 0u64..12), 0..400)) {
        assert_lane_matches_heap(ops);
    }

    /// Keyed pushes into delay lanes — from four origins, at lane and
    /// heap delays, with late inserts below a lane's back — pop in
    /// `EventKey` order, exactly like the reference heap.
    #[test]
    fn event_queue_keyed_lanes_match_reference(
        ops in prop::collection::vec((0u8..7, 0u64..6, 0u64..12), 0..400),
    ) {
        assert_keyed_lanes_match_reference(ops);
    }

    /// Pareto sampler honours its analytic complementary CDF.
    #[test]
    fn pareto_tail_is_correct(shape in 1.1f64..2.5, scale in 0.1f64..10.0, seed in 0u64..50) {
        let d = Dist::Pareto { shape, scale };
        let mut rng = rng_from_seed(seed);
        let n = 4000;
        let x = scale * 4.0;
        let hits = (0..n).filter(|_| d.sample(&mut rng) > x).count() as f64 / n as f64;
        let expect = d.ccdf(x);
        prop_assert!((hits - expect).abs() < 0.05, "empirical {hits} analytic {expect}");
    }

    /// Percentile is monotone in p and bounded by the sample range.
    #[test]
    fn percentile_monotone(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let p25 = percentile(&xs, 0.25);
        let p50 = percentile(&xs, 0.50);
        let p75 = percentile(&xs, 0.75);
        prop_assert!(p25 <= p50 && p50 <= p75);
        let min = xs.iter().cloned().fold(f64::INFINITY, f64::min);
        let max = xs.iter().cloned().fold(f64::NEG_INFINITY, f64::max);
        prop_assert!(p25 >= min && p75 <= max);
    }

    /// A worker episode never responds twice to the same scheduler within
    /// an episode, and always terminates within its response bound. Job
    /// `j` belongs to scheduler `j % 8`.
    #[test]
    fn episode_terminates_and_never_reprobes(
        entries in prop::collection::vec((0u32..40, 1.0f64..300.0), 0..60),
        threshold in 0usize..6,
        seed in 0u64..20,
    ) {
        let queue: Vec<Reservation> = entries
            .iter()
            .map(|&(j, v)| Reservation {
                job: j,
                remaining_tasks: v as u32,
                virtual_size: v,
            })
            .collect();
        let mut ep = FreeSlotEpisode::new(threshold);
        let mut rng = rng_from_seed(seed);
        let mut probed: Vec<usize> = Vec::new();
        let mut steps = 0;
        while let WorkerAction::Respond { scheduler, job, kind } = ep.next_action(&queue, 8, &mut rng)
        {
            prop_assert_eq!(scheduler, job as usize % 8);
            if kind == hopper::core::ResponseKind::Refusable {
                prop_assert!(!probed.contains(&scheduler), "re-probed {scheduler}");
            }
            probed.push(scheduler);
            ep.mark_probed(scheduler);
            // Simulate a refusal so the episode keeps going.
            ep.record_refusal(job, None);
            steps += 1;
            prop_assert!(steps <= threshold + 4, "episode exceeded its bound");
        }
    }
}

/// The lane-vs-heap differential over 10⁶ operations, so the lane and
/// the heap both grow deep. Ignored by default; run in release with
/// `cargo test --release --test properties -- --ignored`.
#[test]
#[ignore = "large; run in release via -- --ignored"]
fn event_queue_lane_matches_heap_at_scale() {
    let mut rng = rng_from_seed(0x1a4e);
    assert_lane_matches_heap(
        (0..1_000_000).map(|_| (rng.gen_range(0..6u8), rng.gen_range(0..12u64))),
    );
}

/// The keyed-lane differential over 10⁶ operations, so the lanes, their
/// late inserts and the heap all grow deep. Ignored by default; run in
/// release with `cargo test --release --test properties -- --ignored`.
#[test]
#[ignore = "large; run in release via -- --ignored"]
fn event_queue_keyed_lanes_match_reference_at_scale() {
    let mut rng = rng_from_seed(0x1a4f);
    assert_keyed_lanes_match_reference((0..1_000_000).map(|_| {
        (
            rng.gen_range(0..7u8),
            rng.gen_range(0..6u64),
            rng.gen_range(0..12u64),
        )
    }));
}
