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
//! by keyed pushes, so it pops in a total order that does not
//! depend on how entities were partitioned: per-origin sequence
//! numbers are assigned by the emitting entity in its own deterministic
//! emission order, and entities on different shards interact only
//! through messages that pay at least the lookahead. Together those two
//! facts make the execution bit-identical for every shard count (the
//! invariant `tests/shard.rs` pins; see DESIGN.md, "Sharded
//! execution").

pub use hopper_sim::EventKey;
use hopper_sim::SimTime;
use std::sync::atomic::Ordering::{AcqRel, Relaxed, SeqCst};
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize};
use std::sync::{Condvar, Mutex, PoisonError};

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
/// window and draining it after the next barrier. Posting order across
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
        let mut out = Vec::new();
        self.drain_into(&mut out);
        out
    }

    /// Post a whole window's worth of messages under one lock — shards
    /// buffer their cross-shard sends locally during a window and flush
    /// once at its end.
    pub fn post_many(&self, mut items: Vec<(EventKey, T)>) {
        self.post_all(&mut items);
    }

    /// [`post_many`](Self::post_many) without giving up a buffer: moves
    /// every item out and leaves `items` empty. Into an empty inbox the
    /// two buffers are swapped, so `items` comes back with the capacity
    /// the last [`drain_into`](Self::drain_into) left here.
    pub fn post_all(&self, items: &mut Vec<(EventKey, T)>) {
        if items.is_empty() {
            return;
        }
        let mut inbox = self.inbox.lock().expect("mailbox poisoned");
        if inbox.is_empty() {
            std::mem::swap(&mut *inbox, items);
        } else {
            inbox.append(items);
        }
    }

    /// [`drain`](Self::drain) without allocating: appends everything
    /// posted since the last drain to `out`. An empty `out` is swapped
    /// with the inbox, so the buffers circulate between the shards
    /// instead of being freed and allocated every window.
    pub fn drain_into(&self, out: &mut Vec<(EventKey, T)>) {
        let mut inbox = self.inbox.lock().expect("mailbox poisoned");
        if out.is_empty() {
            std::mem::swap(&mut *inbox, out);
        } else {
            out.append(&mut inbox);
        }
    }
}

/// How many times a waiter polls the generation before it yields.
/// Measured on a shared 2-vCPU x86-64 host, as ns per wait of a
/// two-party ping-pong (5 runs of 20,000 waits, 3 times) and wall time
/// of `cargo test --release --test shard` (engines of up to 8 shards,
/// two tests at a time; 3 runs):
///
/// | polls            | ns per wait | test wall |
/// |-----------------:|------------:|----------:|
/// |                0 | 6,000–7,800 | 3.1–3.8 s |
/// |               64 |   830–6,500 | 3.3–3.9 s |
/// |              256 |     230–280 | 3.5–3.7 s |
/// |            2,048 |     210–400 | 5.0–5.6 s |
/// | 256 + 256 yields |   210–1,200 | 1.56–1.63 s |
///
/// 256 is the shortest spin that reliably outlasts a peer's arrival;
/// longer ones only burn the time slice a descheduled peer needs. The
/// last row is the barrier as it stands: after the spin, up to
/// [`YIELD_LIMIT`] polls that each first yield the core, then a park.
/// A yield hands the core to a runnable peer at the cost of one system
/// call, where a park costs two and a wakeup; so oversubscribed engines,
/// which do not spin, gain the most.
const SPIN_LIMIT: u32 = 256;

/// Polls after the spin, each after a `std::thread::yield_now`, before
/// a waiter parks. On `sharded-storm` at seed 1 (2 shards, 2 cores) half
/// of the 192,938 early arrivals outlast the spin: without the yields
/// 96,463 of them parked, with them 662 do (counted with temporary
/// counters).
const YIELD_LIMIT: u32 = 256;

fn cores() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// A reusable rendezvous barrier with *poisoning*: when one shard
/// panics (a failed invariant, a debug assertion), it poisons the
/// barrier on unwind and every peer blocked at — or later arriving at —
/// the barrier panics too, instead of deadlocking forever waiting for a
/// participant that will never come. `std::sync::Barrier` has no such
/// escape hatch, which turns any single-shard panic in a test run into
/// a hang.
///
/// Arrival is one atomic increment; the last arriver resets the count
/// and bumps the generation. Early arrivers spin on the generation for
/// `SPIN_LIMIT` polls, poll it `YIELD_LIMIT` more times with a
/// `yield_now` before each, then park on a condvar. The releaser takes the
/// lock and notifies only when `sleepers` says someone is parked, so a
/// rendezvous whose peers all arrive within the spin costs no syscall.
#[derive(Debug)]
pub struct SyncBarrier {
    parties: usize,
    /// Busy polls before yielding: `SPIN_LIMIT`, or 0 when the parties
    /// outnumber the cores (a spinner would hold the core a late peer
    /// needs).
    spin: u32,
    /// Polls after the spin, each after a `yield_now`, before parking:
    /// `YIELD_LIMIT`, whatever the party count (a yield gives the core
    /// away).
    yields: u32,
    arrived: AtomicUsize,
    generation: AtomicU64,
    poisoned: AtomicBool,
    /// Waiters registered (under `lock`) to park on `cv`.
    sleepers: AtomicUsize,
    lock: Mutex<()>,
    cv: Condvar,
}

impl SyncBarrier {
    /// A barrier for `parties` participants.
    pub fn new(parties: usize) -> Self {
        SyncBarrier {
            parties: parties.max(1),
            spin: if parties <= cores() { SPIN_LIMIT } else { 0 },
            yields: YIELD_LIMIT,
            arrived: AtomicUsize::new(0),
            generation: AtomicU64::new(0),
            poisoned: AtomicBool::new(false),
            sleepers: AtomicUsize::new(0),
            lock: Mutex::new(()),
            cv: Condvar::new(),
        }
    }

    /// Block until all parties arrive. Panics if the barrier was (or
    /// becomes, while waiting) poisoned by a panicking peer.
    ///
    /// Every memory operation on `generation`, `sleepers` and `poisoned`
    /// is `SeqCst`, which rules out a lost wakeup: a waiter registers in
    /// `sleepers` and then re-reads `generation` under the lock, and the
    /// releaser bumps `generation` and then reads `sleepers`, so either
    /// the waiter sees the new generation or the releaser sees the
    /// sleeper and notifies under the same lock.
    pub fn wait(&self) {
        self.check_poison();
        let gen = self.generation.load(SeqCst);
        if self.arrived.fetch_add(1, AcqRel) + 1 == self.parties {
            self.arrived.store(0, Relaxed);
            self.generation.fetch_add(1, SeqCst);
            if self.sleepers.load(SeqCst) > 0 {
                let _g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
                self.cv.notify_all();
            }
            return;
        }
        let released = || self.generation.load(SeqCst) != gen;
        for _ in 0..self.spin {
            if released() {
                return self.check_poison();
            }
            self.check_poison();
            std::hint::spin_loop();
        }
        for _ in 0..self.yields {
            if released() {
                return self.check_poison();
            }
            self.check_poison();
            std::thread::yield_now();
        }
        let mut g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.sleepers.fetch_add(1, SeqCst);
        while !released() && !self.poisoned.load(SeqCst) {
            g = self.cv.wait(g).unwrap_or_else(PoisonError::into_inner);
        }
        self.sleepers.fetch_sub(1, SeqCst);
        drop(g);
        self.check_poison();
    }

    /// Mark the barrier dead and wake every waiter (each then panics).
    /// Called from a drop guard on a shard's unwind path.
    pub fn poison(&self) {
        self.poisoned.store(true, SeqCst);
        let _g = self.lock.lock().unwrap_or_else(PoisonError::into_inner);
        self.cv.notify_all();
    }

    fn check_poison(&self) {
        assert!(
            !self.poisoned.load(SeqCst),
            "peer shard panicked (barrier poisoned)"
        );
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
        // The buffer-keeping pair: a post into an empty inbox and a drain
        // into an empty buffer swap, anything else appends.
        let mut out = vec![(k(5), "e")];
        mb.post_all(&mut out);
        assert!(out.is_empty());
        mb.post_all(&mut vec![(k(6), "f")]);
        let mut got = Vec::new();
        mb.drain_into(&mut got);
        assert_eq!(got, [(k(5), "e"), (k(6), "f")]);
        mb.post(k(7), "g");
        mb.drain_into(&mut got);
        assert_eq!(got.len(), 3);
        assert!(mb.drain().is_empty());
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

    /// More parties than cores, so waiters outlast the spin and park:
    /// each round, after its one `wait`, every party must see all of
    /// this round's arrivals and none from two rounds on (a lost wakeup
    /// hangs the test; a barrier that lets a party through early fails
    /// the lower bound).
    #[test]
    fn barrier_oversubscribed_parties_see_every_arrival() {
        use std::sync::atomic::AtomicUsize;
        const ROUNDS: usize = 10_000;
        let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
        let parties = cores + 2;
        let b = SyncBarrier::new(parties);
        let hits = AtomicUsize::new(0);
        std::thread::scope(|s| {
            for _ in 0..parties {
                s.spawn(|| {
                    for r in 0..ROUNDS {
                        hits.fetch_add(1, Relaxed);
                        b.wait();
                        let h = hits.load(Relaxed);
                        assert!(
                            (r + 1) * parties <= h && h < (r + 2) * parties,
                            "round {r}: {h} arrivals seen"
                        );
                    }
                });
            }
        });
        assert_eq!(hits.load(Relaxed), ROUNDS * parties);
        assert_eq!(b.sleepers.load(SeqCst), 0);
    }

    #[test]
    #[should_panic(expected = "poisoned")]
    fn poisoned_barrier_rejects_a_new_arrival() {
        let b = SyncBarrier::new(2);
        b.poison();
        b.wait();
    }

    /// Poison `b` once `peers` waiters have arrived and `ready` holds,
    /// and check that every one of them panicked.
    fn poison_releases(peers: usize, ready: impl Fn(&SyncBarrier) -> bool) {
        let b = SyncBarrier::new(peers + 1);
        std::thread::scope(|s| {
            let waiters: Vec<_> = (0..peers).map(|_| s.spawn(|| b.wait())).collect();
            while b.arrived.load(SeqCst) < peers || !ready(&b) {
                std::thread::yield_now();
            }
            b.poison();
            for w in waiters {
                let err = w
                    .join()
                    .expect_err("a waiter returned from a poisoned barrier");
                let msg = err
                    .downcast_ref::<&str>()
                    .map(|m| m.to_string())
                    .or_else(|| err.downcast_ref::<String>().cloned())
                    .unwrap_or_default();
                assert!(msg.contains("poisoned"), "unexpected panic: {msg:?}");
            }
        });
    }

    #[test]
    fn poison_releases_spinning_waiters() {
        // Two parties spin on any host with two cores; the peer is
        // poisoned as soon as it has arrived, within its spin unless
        // the host deschedules it for the whole length.
        poison_releases(1, |_| true);
    }

    #[test]
    fn poison_releases_parked_waiters() {
        poison_releases(2, |b| b.sleepers.load(SeqCst) == 2);
    }
}
