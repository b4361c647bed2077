//! A stable discrete-event queue.
//!
//! Every entry is ordered by an [`EventKey`] `(time, origin, seq)`, and
//! events pop in increasing key order. [`EventQueue::push`] and
//! [`EventQueue::push_after`] stamp `origin: 0` and the queue's own
//! insertion sequence, so events scheduled for the same instant pop in
//! the order they were pushed (FIFO). That stability is what makes
//! whole-simulation determinism cheap: no hash-map iteration order or
//! heap tie ambiguity ever leaks into results. A driver whose entities
//! stamp their own keys (the sharded engine, where each emitting entity
//! numbers its own events) uses [`EventQueue::push_keyed`] instead; the
//! pop order is then the keys' order, whatever the insertion order.
//! Every engine queues its next job arrival too, with
//! [`EventQueue::push_arrival`]: its [`EventKey::arrival`] sorts first at
//! its instant.
//!
//! A queue may also keep *delay lanes* ([`EventQueue::with_lanes`]): a
//! push that declares it was sent `d` before it fires
//! ([`EventQueue::push_after`], [`EventQueue::push_keyed_after`]) joins
//! lane `d`. Sends come in clock order, so a lane's entries arrive
//! almost sorted: a push appends, or gallops back to its place among
//! the larger keys at its instant (O(log d) key reads for a place `d`
//! back). Each lane stays sorted by key, and `pop` takes the
//! smallest of the lane fronts and the heap's top, so the pop order is
//! the heap-only order, tie for tie. Events live once in a slab, with
//! their keys; the heap moves 32-byte `(key, slot)` handles and a lane
//! 4-byte slots.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Total-order key of one simulation event: timestamp, emitting entity,
/// and the entity's own emission sequence number. Keys are unique (an
/// origin never reuses a sequence number), so a queue ordered by
/// `EventKey` pops in one deterministic total order regardless of
/// insertion order.
///
/// Sequence number 0 is reserved for [`EventKey::arrival`]: every
/// stamper — [`EventQueue::push`] and each entity of a driver that
/// stamps its own keys — numbers its events from 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub struct EventKey {
    /// Simulation instant the event fires.
    pub time: SimTime,
    /// Emitting entity (driver-defined numbering; e.g. schedulers then
    /// workers). Ties at equal time break by origin, then sequence.
    pub origin: u64,
    /// The origin's emission counter at send — unique per origin.
    pub seq: u64,
}

impl EventKey {
    /// The key of a job arrival at `time`: origin 0, sequence 0, which
    /// sorts before every stamped key at the same instant.
    ///
    /// This is the engines' one ordering rule for arrivals: a job
    /// arriving at `t` is delivered before any other event at `t`, even
    /// one pushed earlier (arrivals are delivered in id order, and an
    /// engine keeps only its next arrival queued, so the key is unique).
    /// It is the order the historical pre-loaded arrival events
    /// produced, where every arrival was pushed first and so held the
    /// lowest sequence number at its instant.
    pub const fn arrival(time: SimTime) -> Self {
        EventKey {
            time,
            origin: 0,
            seq: 0,
        }
    }
}

/// Most delay lanes one queue keeps. Delays past the cap go to the heap,
/// so a pop compares at most this many lane fronts with the heap's top,
/// whatever the configuration.
pub const MAX_LANES: usize = 8;

/// A heap entry: an event's key and the slab slot holding the event.
/// Small and `Copy`, so a sift moves 32 bytes, however large the event
/// is.
#[derive(Debug, Clone, Copy)]
struct Handle {
    key: EventKey,
    slot: u32,
}

impl PartialEq for Handle {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl Eq for Handle {}

impl PartialOrd for Handle {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl Ord for Handle {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// One slab slot: a pending event with its key, or a free slot (`None`;
/// its key is stale).
#[derive(Debug)]
struct Slot<E> {
    key: EventKey,
    event: Option<E>,
}

/// The events pushed at one delay after their send instant: their slab
/// slots, sorted by key. A lane entry is 4 bytes, so a long lane (2-second
/// leases, tens of thousands pending) costs little beyond its events.
#[derive(Debug)]
struct Lane {
    delay: SimTime,
    slots: VecDeque<u32>,
    /// The key of `slots`' front, kept so that a pop compares the lane
    /// fronts without reading the slab.
    front: Option<EventKey>,
}

/// Deterministic work counters of an [`EventQueue`]: how many pushes
/// went to the binary heap and how many to a delay lane. Exact per seed,
/// so they can be compared across runs and gated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Pushes into the binary heap (O(log n) each, and O(log n) to pop).
    pub heap_pushes: u64,
    /// Pushes into a delay lane (O(1) each way, barring late inserts).
    pub lane_pushes: u64,
}

/// A discrete-event priority queue with stable (FIFO) tie-breaking.
///
/// The queue also tracks the simulation clock: [`EventQueue::pop`] advances
/// `now` to the popped event's time, and pushing an event strictly in the
/// past panics in debug builds (an event sourced from time *t* may fire at
/// *t* — zero-latency self-messages are common in schedulers).
#[derive(Debug)]
pub struct EventQueue<E> {
    heap: BinaryHeap<Handle>,
    /// At most [`MAX_LANES`] lanes, one per distinct delay; empty for
    /// [`EventQueue::new`].
    lanes: Vec<Lane>,
    /// Every pending event with its key, stored once; the heap and the
    /// lanes refer to it by slot.
    slab: Vec<Slot<E>>,
    /// Free slots of `slab`, reused last-freed first.
    free: Vec<u32>,
    /// The `seq` the next [`EventQueue::push`] stamps (from 1; 0 is
    /// [`EventKey::arrival`]'s).
    next_seq: u64,
    heap_pushes: u64,
    lane_pushes: u64,
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the clock at time zero. Every event
    /// goes through the binary heap.
    pub fn new() -> Self {
        Self::with_lanes([])
    }

    /// Create an empty queue with a delay lane for each distinct delay of
    /// `delays`, in order, up to [`MAX_LANES`] (later ones go to the
    /// heap). A push that declares one of these delays
    /// ([`EventQueue::push_after`], [`EventQueue::push_keyed_after`])
    /// joins that lane instead of the heap. The pop order is identical
    /// to [`EventQueue::new`]'s.
    pub fn with_lanes(delays: impl IntoIterator<Item = SimTime>) -> Self {
        let mut lanes: Vec<Lane> = Vec::new();
        for delay in delays {
            if lanes.len() == MAX_LANES {
                break;
            }
            if lanes.iter().all(|l| l.delay != delay) {
                lanes.push(Lane {
                    delay,
                    slots: VecDeque::new(),
                    front: None,
                });
            }
        }
        Self {
            heap: BinaryHeap::new(),
            lanes,
            slab: Vec::new(),
            free: Vec::new(),
            next_seq: 1,
            heap_pushes: 0,
            lane_pushes: 0,
            now: SimTime::ZERO,
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.slab.len() - self.free.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Pushes so far, split by store.
    pub fn counters(&self) -> QueueCounters {
        QueueCounters {
            heap_pushes: self.heap_pushes,
            lane_pushes: self.lane_pushes,
        }
    }

    /// The key [`EventQueue::push`] stamps on an event at `at`: origin 0
    /// and the next insertion sequence, so equal instants pop FIFO.
    fn stamp(&mut self, at: SimTime) -> EventKey {
        let key = EventKey {
            time: at,
            origin: 0,
            seq: self.next_seq,
        };
        self.next_seq += 1;
        key
    }

    /// Schedule `event` at absolute time `at`, on the heap.
    ///
    /// Debug-panics if `at` is before the current clock; the engine never
    /// rewrites history.
    pub fn push(&mut self, at: SimTime, event: E) {
        let key = self.stamp(at);
        self.push_entry(key, None, event);
    }

    /// Schedule `event` at `delay` after the current clock. With a lane
    /// for `delay` the event joins it.
    pub fn push_after(&mut self, delay: SimTime, event: E) {
        let key = self.stamp(self.now + delay);
        self.push_entry(key, Some(delay), event);
    }

    /// Schedule `event` under a key its driver stamped, on the heap. Keys
    /// must be unique; a queue fed only by keyed pushes pops in key
    /// order, whatever order the pushes came in. Debug-panics if the
    /// key's time is before the current clock, or if its `seq` is the
    /// arrivals' 0.
    pub fn push_keyed(&mut self, key: EventKey, event: E) {
        debug_assert!(key.seq > 0, "seq 0 is reserved for arrivals: {key:?}");
        self.push_entry(key, None, event);
    }

    /// [`EventQueue::push_keyed`] for an event sent `delay` before
    /// `key.time`; with a lane for `delay` it joins that lane. The send
    /// instant may lie before the clock (a message another shard sent in
    /// the last window): the lane is kept sorted by key either way.
    pub fn push_keyed_after(&mut self, delay: SimTime, key: EventKey, event: E) {
        debug_assert!(key.seq > 0, "seq 0 is reserved for arrivals: {key:?}");
        self.push_entry(key, Some(delay), event);
    }

    /// Schedule a job arrival at `at` under [`EventKey::arrival`], so it
    /// pops before every other event at `at`. A queue may hold only one
    /// arrival at a time.
    pub fn push_arrival(&mut self, at: SimTime, event: E) {
        self.push_entry(EventKey::arrival(at), None, event);
    }

    fn push_entry(&mut self, key: EventKey, delay: Option<SimTime>, event: E) {
        debug_assert!(
            key.time >= self.now,
            "event scheduled in the past: at={:?} now={:?}",
            key.time,
            self.now
        );
        let entry = Slot {
            key,
            event: Some(event),
        };
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slab[slot as usize] = entry;
                slot
            }
            None => {
                let slot = u32::try_from(self.slab.len()).expect("under 2^32 pending events");
                self.slab.push(entry);
                slot
            }
        };
        let Some(lane) = delay.and_then(|d| self.lanes.iter_mut().find(|l| l.delay == d)) else {
            self.heap_pushes += 1;
            self.heap.push(Handle { key, slot });
            return;
        };
        self.lane_pushes += 1;
        let at = insert_point(&lane.slots, |s| self.slab[s as usize].key < key);
        if at == lane.slots.len() {
            lane.slots.push_back(slot);
        } else {
            lane.slots.insert(at, slot);
        }
        if at == 0 {
            lane.front = Some(key);
        }
    }

    /// The earliest pending entry's key and where it is: `Some(i)` for
    /// lane `i`'s front, `None` for the heap's top.
    fn head(&self) -> Option<(EventKey, Option<usize>)> {
        let mut head = self.heap.peek().map(|h| (h.key, None));
        for (i, lane) in self.lanes.iter().enumerate() {
            debug_assert_eq!(
                lane.front,
                lane.slots.front().map(|&s| self.slab[s as usize].key),
                "cached lane front drifted"
            );
            if let Some(key) = lane.front {
                if head.is_none_or(|(k, _)| key < k) {
                    head = Some((key, Some(i)));
                }
            }
        }
        head
    }

    /// Remove the entry [`EventQueue::head`] found, advancing the clock.
    fn take(&mut self, lane: Option<usize>) -> (SimTime, E) {
        let slot = match lane {
            Some(i) => {
                let lane = &mut self.lanes[i];
                let slot = lane.slots.pop_front();
                lane.front = lane.slots.front().map(|&s| self.slab[s as usize].key);
                slot
            }
            None => self.heap.pop().map(|h| h.slot),
        }
        .expect("the head is pending");
        let entry = &mut self.slab[slot as usize];
        let event = entry.event.take().expect("a pending slot is full");
        let time = entry.key.time;
        self.free.push(slot);
        debug_assert!(time >= self.now);
        self.now = time;
        (time, event)
    }

    /// Pop the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let (_, lane) = self.head()?;
        Some(self.take(lane))
    }

    /// Pop the earliest event if it fires strictly before `end` (one
    /// look at the stores' heads, where `peek_time` then `pop` takes two).
    pub fn pop_before(&mut self, end: SimTime) -> Option<(SimTime, E)> {
        let (key, lane) = self.head()?;
        (key.time < end).then(|| self.take(lane))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.head().map(|(key, _)| key.time)
    }
}

/// Where a key goes in a lane sorted by key: the number of entries
/// whose key is smaller (`below`). Sends come in clock order, so this is
/// usually the back; a same-instant tie from a smaller origin, or an
/// event sent earlier on another shard, lands `d` places before it.
/// Galloping back from the back (1, 2, 4, … places) and then bisecting
/// the last step finds it in O(log d) key reads, where a walk took `d`:
/// a burst of same-instant messages from many origins arrives in no
/// particular key order, and its later pushes land thousands of places
/// back.
fn insert_point(slots: &VecDeque<u32>, below: impl Fn(u32) -> bool) -> usize {
    let len = slots.len();
    // `hi`: an entry known to be above the key (or the end).
    let mut hi = len;
    let mut step = 1;
    let mut lo = loop {
        let Some(probe) = hi.checked_sub(step) else {
            break 0;
        };
        if below(slots[probe]) {
            break probe + 1;
        }
        hi = probe;
        step *= 2;
    };
    // Every entry before `lo` is below the key, and `slots[hi]` (if any)
    // above it.
    while lo < hi {
        let mid = lo + (hi - lo) / 2;
        if below(slots[mid]) {
            lo = mid + 1;
        } else {
            hi = mid;
        }
    }
    lo
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(30), "c");
        q.push(SimTime::from_millis(10), "a");
        q.push(SimTime::from_millis(20), "b");
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), "a")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(20), "b")));
        assert_eq!(q.pop(), Some((SimTime::from_millis(30), "c")));
        assert_eq!(q.pop(), None);
    }

    #[test]
    fn same_time_is_fifo() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(SimTime::from_millis(5), i);
        }
        for i in 0..100 {
            assert_eq!(q.pop(), Some((SimTime::from_millis(5), i)));
        }
    }

    #[test]
    fn clock_advances_on_pop() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(42), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_millis(42));
    }

    #[test]
    fn push_after_is_relative_to_now() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 0u32);
        q.pop();
        q.push_after(SimTime::from_millis(5), 1u32);
        assert_eq!(q.pop(), Some((SimTime::from_millis(15), 1)));
    }

    #[test]
    #[should_panic(expected = "scheduled in the past")]
    #[cfg(debug_assertions)]
    fn pushing_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), ());
        q.pop();
        q.push(SimTime::from_millis(5), ());
    }

    #[test]
    fn peek_len_and_counters() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.push(SimTime::from_millis(7), ());
        q.push(SimTime::from_millis(3), ());
        assert_eq!(q.len(), 2);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(3)));
        q.push_after(SimTime::from_millis(1), ());
        q.push_keyed(
            EventKey {
                time: SimTime::from_millis(2),
                origin: 5,
                seq: 1,
            },
            (),
        );
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        let c = q.counters();
        assert_eq!((c.heap_pushes, c.lane_pushes), (4, 0));
    }

    /// Heap, lane and keyed entries pop in one key order, and an arrival
    /// pushed after all of them still pops first at its instant.
    #[test]
    fn lane_merges_with_heap_in_total_order() {
        let ms = SimTime::from_millis;
        let keyed = |t| EventKey {
            time: ms(t),
            origin: 1,
            seq: 1,
        };
        let mut q = EventQueue::with_lanes([ms(5)]);
        q.push(ms(5), "heap@5 first");
        q.push_after(ms(5), "lane@5");
        q.push(ms(5), "heap@5 last");
        q.push_keyed(keyed(5), "keyed@5");
        q.push_arrival(ms(5), "arrival@5");
        q.push_after(ms(2), "heap@2");
        assert_eq!(q.len(), 6);
        assert_eq!(q.peek_time(), Some(ms(2)));
        assert_eq!(q.pop(), Some((ms(2), "heap@2")));
        q.push_after(ms(5), "lane@7");
        q.push_arrival(ms(7), "arrival@7");
        assert_eq!(q.pop(), Some((ms(5), "arrival@5")));
        assert_eq!(q.pop(), Some((ms(5), "heap@5 first")));
        assert_eq!(q.pop(), Some((ms(5), "lane@5")));
        assert_eq!(q.pop(), Some((ms(5), "heap@5 last")));
        assert_eq!(q.pop(), Some((ms(5), "keyed@5")));
        assert_eq!(q.peek_time(), Some(ms(7)));
        assert_eq!(q.pop(), Some((ms(7), "arrival@7")));
        assert_eq!(q.pop(), Some((ms(7), "lane@7")));
        assert!(q.is_empty());
        let c = q.counters();
        assert_eq!((c.heap_pushes, c.lane_pushes), (6, 2));
    }

    /// A keyed lane push with a smaller key than the lane's back (a
    /// same-instant tie from a smaller origin, or a message sent earlier
    /// on another shard) is inserted in key order, not appended.
    #[test]
    fn keyed_lane_inserts_below_its_back() {
        let ms = SimTime::from_millis;
        let key = |t, origin, seq| EventKey {
            time: ms(t),
            origin,
            seq,
        };
        let mut q = EventQueue::with_lanes([ms(3)]);
        q.push_keyed_after(ms(3), key(3, 4, 1), "o4@3");
        q.push_keyed_after(ms(3), key(4, 2, 1), "o2@4");
        q.push_keyed_after(ms(3), key(3, 1, 1), "o1@3");
        q.push_keyed_after(ms(3), key(4, 2, 2), "o2@4'");
        q.push_keyed_after(ms(3), key(3, 4, 2), "o4@3'");
        q.push_keyed(key(3, 3, 1), "heap o3@3");
        let c = q.counters();
        assert_eq!((c.heap_pushes, c.lane_pushes), (1, 5));
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, e)| e)).collect();
        assert_eq!(
            order,
            ["o1@3", "heap o3@3", "o4@3", "o4@3'", "o2@4", "o2@4'"]
        );
    }

    /// A long same-instant burst arriving in descending origin order,
    /// as messages from many origins do: every push after the first
    /// lands below the whole lane so far, with later instants and a
    /// few stragglers mixed in. The lane pops in key order.
    #[test]
    fn keyed_lane_orders_a_descending_burst() {
        let ms = SimTime::from_millis;
        let key = |t, origin| EventKey {
            time: ms(t),
            origin,
            seq: 1,
        };
        let mut q = EventQueue::with_lanes([ms(3)]);
        let mut keys = Vec::new();
        for origin in (1..=5_000u64).rev() {
            keys.push(key(3, origin));
            if origin % 1_000 == 0 {
                keys.push(key(4, origin));
            }
            if origin % 777 == 0 {
                keys.push(key(3, 10_000 + origin));
            }
        }
        for &k in &keys {
            q.push_keyed_after(ms(3), k, k);
        }
        assert_eq!(q.counters().lane_pushes, keys.len() as u64);
        keys.sort();
        let order: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, k)| k)).collect();
        assert_eq!(order, keys);
    }

    /// Repeated delays share a lane, and delays past [`MAX_LANES`] go to
    /// the heap.
    #[test]
    fn lane_count_is_capped() {
        let ms = SimTime::from_millis;
        let mut q = EventQueue::with_lanes([1, 1, 2, 3, 4, 5, 6, 7, 8, 9, 10].map(ms));
        for d in 1..=10 {
            q.push_after(ms(d), d);
        }
        let c = q.counters();
        assert_eq!((c.heap_pushes, c.lane_pushes), (2, MAX_LANES as u64));
        assert_eq!(q.pop_before(ms(1)), None);
        assert_eq!(q.pop_before(ms(2)), Some((ms(1), 1)));
        assert_eq!(q.len(), 9);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop().map(|(_, d)| d)).collect();
        assert_eq!(rest, (2..=10).collect::<Vec<_>>());
        assert!(q.is_empty());
    }

    #[test]
    fn zero_latency_self_message_allowed() {
        let mut q = EventQueue::new();
        q.push(SimTime::from_millis(10), 0u8);
        q.pop();
        // An event may fire at the current instant.
        q.push(q.now(), 1u8);
        assert_eq!(q.pop(), Some((SimTime::from_millis(10), 1)));
    }
}
