//! Conservative-PDES support types for sharded simulation engines.
//!
//! A sharded engine partitions its entities (schedulers, workers)
//! across N shards, each with its own event queue, and advances them in
//! lockstep *windows* bounded by the safe horizon
//! `min(next event across shards) + lookahead`, where the lookahead is
//! the engine's minimum cross-entity message latency. Every event
//! carries an [`EventKey`] — `(time, origin entity, per-origin
//! sequence)`, defined next to the queue in `hopper_sim` and re-exported
//! here — and each shard's queue is a `hopper_sim::EventQueue` fed only
//! through `push_keyed`, so it pops in a total order that does not
//! depend on how entities were partitioned: per-origin sequence
//! numbers are assigned by the emitting entity in its own deterministic
//! emission order, and entities on different shards interact only
//! through messages that pay at least the lookahead. Together those two
//! facts make the execution bit-identical for every shard count (the
//! invariant `tests/shard.rs` pins; see DESIGN.md, "Sharded
//! execution").

pub use hopper_sim::EventKey;
use hopper_sim::SimTime;
use std::sync::{Condvar, Mutex};

/// The conservative-window bound: the earliest instant at which any
/// shard could be affected by another shard's not-yet-executed work.
/// With every cross-shard interaction paying at least `lookahead`, all
/// events strictly before `min(next event) + lookahead` are safe to
/// execute without further synchronization (classic conservative PDES;
/// the message-latency floor is the lookahead). Returns `None` when no
/// shard has a pending event — global termination.
pub fn safe_horizon<I>(next_events: I, lookahead: SimTime) -> Option<SimTime>
where
    I: IntoIterator<Item = Option<SimTime>>,
{
    next_events
        .into_iter()
        .flatten()
        .min()
        .map(|t| t + lookahead)
}

/// A timestamped inter-shard channel: shard pairs exchange messages by
/// posting `(key, payload)` into the destination's mailbox during a
/// window and draining it at the next barrier. Posting order across
/// sending shards is racy, but every message carries its unique
/// [`EventKey`], so the receiving queue re-establishes the one
/// deterministic order.
#[derive(Debug, Default)]
pub struct Mailbox<T> {
    inbox: Mutex<Vec<(EventKey, T)>>,
}

impl<T> Mailbox<T> {
    /// An empty mailbox.
    pub fn new() -> Self {
        Mailbox {
            inbox: Mutex::new(Vec::new()),
        }
    }

    /// Post one message for the owning shard to pick up at its next
    /// drain.
    pub fn post(&self, key: EventKey, msg: T) {
        self.inbox
            .lock()
            .expect("mailbox poisoned")
            .push((key, msg));
    }

    /// Take everything posted since the last drain.
    pub fn drain(&self) -> Vec<(EventKey, T)> {
        std::mem::take(&mut *self.inbox.lock().expect("mailbox poisoned"))
    }

    /// Post a whole window's worth of messages under one lock — shards
    /// buffer their cross-shard sends locally during a window and flush
    /// once at the barrier.
    pub fn post_many(&self, items: Vec<(EventKey, T)>) {
        if items.is_empty() {
            return;
        }
        self.inbox.lock().expect("mailbox poisoned").extend(items);
    }
}

/// A reusable rendezvous barrier with *poisoning*: when one shard
/// panics (a failed invariant, a debug assertion), it poisons the
/// barrier on unwind and every peer blocked at — or later arriving at —
/// the barrier panics too, instead of deadlocking forever waiting for a
/// participant that will never come. `std::sync::Barrier` has no such
/// escape hatch, which turns any single-shard panic in a test run into
/// a hang.
#[derive(Debug)]
pub struct SyncBarrier {
    state: Mutex<BarrierState>,
    cv: Condvar,
    parties: usize,
}

#[derive(Debug)]
struct BarrierState {
    waiting: usize,
    generation: u64,
    poisoned: bool,
}

impl SyncBarrier {
    /// A barrier for `parties` participants.
    pub fn new(parties: usize) -> Self {
        SyncBarrier {
            state: Mutex::new(BarrierState {
                waiting: 0,
                generation: 0,
                poisoned: false,
            }),
            cv: Condvar::new(),
            parties: parties.max(1),
        }
    }

    /// Block until all parties arrive. Panics if the barrier was (or
    /// becomes, while waiting) poisoned by a panicking peer.
    pub fn wait(&self) {
        let mut st = self.state.lock().expect("barrier lock poisoned");
        assert!(!st.poisoned, "peer shard panicked (barrier poisoned)");
        let gen = st.generation;
        st.waiting += 1;
        if st.waiting == self.parties {
            st.waiting = 0;
            st.generation += 1;
            self.cv.notify_all();
            return;
        }
        while st.generation == gen && !st.poisoned {
            st = self.cv.wait(st).expect("barrier lock poisoned");
        }
        assert!(!st.poisoned, "peer shard panicked (barrier poisoned)");
    }

    /// Mark the barrier dead and wake every waiter (each then panics).
    /// Called from a drop guard on a shard's unwind path.
    pub fn poison(&self) {
        if let Ok(mut st) = self.state.lock() {
            st.poisoned = true;
        }
        self.cv.notify_all();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ms(v: u64) -> SimTime {
        SimTime::from_millis(v)
    }

    #[test]
    fn keys_order_by_time_then_origin_then_seq() {
        let a = EventKey {
            time: ms(5),
            origin: 9,
            seq: 3,
        };
        let b = EventKey {
            time: ms(6),
            origin: 0,
            seq: 0,
        };
        let c = EventKey {
            time: ms(5),
            origin: 10,
            seq: 0,
        };
        let d = EventKey {
            time: ms(5),
            origin: 9,
            seq: 4,
        };
        assert!(a < b && a < c && a < d);
        assert!(c < b && d < c);
    }

    #[test]
    fn safe_horizon_is_min_plus_lookahead() {
        let h = safe_horizon([Some(ms(10)), None, Some(ms(7))], ms(1));
        assert_eq!(h, Some(ms(8)));
        assert_eq!(safe_horizon([None, None], ms(1)), None);
    }

    #[test]
    fn mailbox_round_trips() {
        let mb: Mailbox<&'static str> = Mailbox::new();
        let k = |t: u64| EventKey {
            time: ms(t),
            origin: 0,
            seq: t,
        };
        mb.post(k(2), "b");
        mb.post(k(1), "a");
        let got = mb.drain();
        assert_eq!(got.len(), 2);
        assert!(mb.drain().is_empty());
        mb.post_many(vec![(k(3), "c"), (k(4), "d")]);
        assert_eq!(mb.drain().len(), 2);
    }

    #[test]
    fn barrier_synchronizes_two_threads() {
        use std::sync::atomic::{AtomicUsize, Ordering};
        let b = SyncBarrier::new(2);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| {
                    for _ in 0..50 {
                        hits.fetch_add(1, Ordering::SeqCst);
                        b.wait();
                        // Every round, both threads must have bumped.
                        assert_eq!(hits.load(Ordering::SeqCst) % 2, 0);
                        b.wait();
                    }
                });
            }
        });
        assert_eq!(hits.load(Ordering::SeqCst), 100);
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn poisoned_barrier_releases_waiters() {
        let b = SyncBarrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                std::thread::sleep(std::time::Duration::from_millis(20));
                b.poison();
            });
            b.wait(); // would deadlock forever without the poison
        });
    }
}
