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
//!
//! A queue may also keep a FIFO *lane* for events pushed at one fixed
//! delay ([`EventQueue::with_fifo_delay`]). The clock never rewinds and the
//! insertion sequence only grows, so such events arrive already sorted by
//! key: the lane is a plain deque, and `pop` takes the smaller of its
//! front and the heap's top. The pop order is the heap-only order, tie
//! for tie.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// Total-order key of one simulation event: timestamp, emitting entity,
/// and the entity's own emission sequence number. Keys are unique (an
/// origin never reuses a sequence number), so a queue ordered by
/// `EventKey` pops in one deterministic total order regardless of
/// insertion order.
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

/// An event plus its key, as stored in the queue.
#[derive(Debug)]
struct EventEntry<E> {
    key: EventKey,
    event: E,
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key == other.key
    }
}
impl<E> Eq for EventEntry<E> {}

impl<E> PartialOrd for EventEntry<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for EventEntry<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // BinaryHeap is a max-heap; invert so the smallest key pops first.
        other.key.cmp(&self.key)
    }
}

/// Deterministic work counters of an [`EventQueue`]: how many pushes
/// went to the binary heap and how many to the FIFO lane. Exact per
/// seed, so they can be compared across runs and gated.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct QueueCounters {
    /// Pushes into the binary heap (O(log n) each, and O(log n) to pop).
    pub heap_pushes: u64,
    /// Pushes into the fixed-delay FIFO lane (O(1) each way).
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
    heap: BinaryHeap<EventEntry<E>>,
    /// Events pushed `lane_delay` after the clock, in push order, which
    /// is key order. Empty when `lane_delay` is `None`.
    lane: VecDeque<EventEntry<E>>,
    lane_delay: Option<SimTime>,
    /// The `seq` the next [`EventQueue::push`] stamps.
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
        Self {
            heap: BinaryHeap::new(),
            lane: VecDeque::new(),
            lane_delay: None,
            next_seq: 0,
            heap_pushes: 0,
            lane_pushes: 0,
            now: SimTime::ZERO,
        }
    }

    /// Create an empty queue whose [`EventQueue::push_after`] calls with
    /// exactly `delay` go to an O(1) FIFO lane instead of the heap (for
    /// drivers whose messages all pay one fixed latency). The pop order
    /// is identical to [`EventQueue::new`]'s.
    pub fn with_fifo_delay(delay: SimTime) -> Self {
        Self {
            lane_delay: Some(delay),
            ..Self::new()
        }
    }

    /// Current simulation time (the time of the last popped event).
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len() + self.lane.len()
    }

    /// Whether the queue has no pending events.
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty() && self.lane.is_empty()
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

    /// Schedule `event` at absolute time `at`.
    ///
    /// Debug-panics if `at` is before the current clock; the engine never
    /// rewrites history.
    pub fn push(&mut self, at: SimTime, event: E) {
        let key = self.stamp(at);
        self.push_keyed(key, event);
    }

    /// Schedule `event` under a key its driver stamped. Keys must be
    /// unique; a queue fed only by this method pops in key order,
    /// whatever order the pushes came in. Debug-panics if the key's time
    /// is before the current clock.
    pub fn push_keyed(&mut self, key: EventKey, event: E) {
        debug_assert!(
            key.time >= self.now,
            "event scheduled in the past: at={:?} now={:?}",
            key.time,
            self.now
        );
        self.heap_pushes += 1;
        self.heap.push(EventEntry { key, event });
    }

    /// Schedule `event` at `delay` after the current clock. With `delay`
    /// equal to the lane delay the event joins the FIFO lane.
    pub fn push_after(&mut self, delay: SimTime, event: E) {
        let key = self.stamp(self.now + delay);
        if self.lane_delay != Some(delay) {
            self.push_keyed(key, event);
            return;
        }
        debug_assert!(
            self.lane.back().is_none_or(|b| b.key < key),
            "FIFO lane out of order"
        );
        self.lane_pushes += 1;
        self.lane.push_back(EventEntry { key, event });
    }

    /// Whether the earliest pending event is the lane's front.
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => l.key < h.key,
            (lane, _) => lane.is_some(),
        }
    }

    /// Pop the earliest event, advancing the clock to its time.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let entry = if self.lane_first() {
            self.lane.pop_front()
        } else {
            self.heap.pop()
        }?;
        let time = entry.key.time;
        debug_assert!(time >= self.now);
        self.now = time;
        Some((time, entry.event))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => Some(l.key.time.min(h.key.time)),
            (lane, heap) => lane.or(heap).map(|e| e.key.time),
        }
    }

    /// Advance the clock to `t` without popping an event.
    ///
    /// For drivers that merge an external event source (e.g. a lazy
    /// arrival stream) with this queue: delivering a source event at `t`
    /// must advance the clock the same way popping a queued event at `t`
    /// would, so that subsequent [`EventQueue::push_after`] calls are
    /// relative to the right instant. Debug-panics on rewinding.
    pub fn advance_to(&mut self, t: SimTime) {
        debug_assert!(
            t >= self.now,
            "clock rewound: advance_to {t:?} from {:?}",
            self.now
        );
        self.now = t;
    }
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
                seq: 0,
            },
            (),
        );
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1)));
        let c = q.counters();
        assert_eq!((c.heap_pushes, c.lane_pushes), (4, 0));
    }

    #[test]
    fn lane_merges_with_heap_in_total_order() {
        let ms = SimTime::from_millis;
        let mut q = EventQueue::with_fifo_delay(ms(5));
        q.push(ms(5), "heap@5 first");
        q.push_after(ms(5), "lane@5");
        q.push(ms(5), "heap@5 last");
        q.push_after(ms(2), "heap@2");
        assert_eq!(q.len(), 4);
        assert_eq!(q.peek_time(), Some(ms(2)));
        assert_eq!(q.pop(), Some((ms(2), "heap@2")));
        q.push_after(ms(5), "lane@7");
        assert_eq!(q.pop(), Some((ms(5), "heap@5 first")));
        assert_eq!(q.pop(), Some((ms(5), "lane@5")));
        assert_eq!(q.pop(), Some((ms(5), "heap@5 last")));
        assert_eq!(q.peek_time(), Some(ms(7)));
        assert_eq!(q.pop(), Some((ms(7), "lane@7")));
        assert!(q.is_empty());
        let c = q.counters();
        assert_eq!((c.heap_pushes, c.lane_pushes), (3, 2));
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
