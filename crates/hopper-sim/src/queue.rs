//! A stable discrete-event queue.
//!
//! Events are popped in nondecreasing time order; events scheduled for the
//! same instant are popped in the order they were pushed (FIFO). That
//! stability is what makes whole-simulation determinism cheap: no hash-map
//! iteration order or heap tie ambiguity ever leaks into results.
//!
//! A queue may also keep a FIFO *lane* for events pushed at one fixed
//! delay ([`EventQueue::with_fifo_delay`]). The clock never rewinds and the
//! insertion sequence only grows, so such events arrive already sorted by
//! `(time, seq)`: the lane is a plain deque, and `pop` takes the smaller of
//! its front and the heap's top. The pop order is the heap-only order, tie
//! for tie.

use std::cmp::Ordering;
use std::collections::{BinaryHeap, VecDeque};

use crate::time::SimTime;

/// An event plus its scheduling metadata, as stored in the queue.
#[derive(Debug)]
struct EventEntry<E> {
    /// When the event fires.
    time: SimTime,
    /// Monotonic insertion sequence number; breaks same-time ties FIFO.
    seq: u64,
    /// The payload.
    event: E,
}

impl<E> EventEntry<E> {
    /// The total-order key: earlier time first, then earlier push.
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

impl<E> PartialEq for EventEntry<E> {
    fn eq(&self, other: &Self) -> bool {
        self.key() == other.key()
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
        // BinaryHeap is a max-heap; invert so the earliest (time, seq) pops
        // first.
        other.key().cmp(&self.key())
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
    /// is `(time, seq)` order. Empty when `lane_delay` is `None`.
    lane: VecDeque<EventEntry<E>>,
    lane_delay: Option<SimTime>,
    next_seq: u64,
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
            heap_pushes: self.next_seq - self.lane_pushes,
            lane_pushes: self.lane_pushes,
        }
    }

    /// Schedule `event` at absolute time `at`.
    ///
    /// Debug-panics if `at` is before the current clock; the engine never
    /// rewrites history.
    pub fn push(&mut self, at: SimTime, event: E) {
        debug_assert!(
            at >= self.now,
            "event scheduled in the past: at={at:?} now={:?}",
            self.now
        );
        let entry = EventEntry {
            time: at,
            seq: self.next_seq,
            event,
        };
        self.next_seq += 1;
        self.heap.push(entry);
    }

    /// Schedule `event` at `delay` after the current clock. With `delay`
    /// equal to the lane delay the event joins the FIFO lane.
    pub fn push_after(&mut self, delay: SimTime, event: E) {
        if self.lane_delay != Some(delay) {
            self.push(self.now + delay, event);
            return;
        }
        let entry = EventEntry {
            time: self.now + delay,
            seq: self.next_seq,
            event,
        };
        debug_assert!(
            self.lane.back().is_none_or(|b| b.key() < entry.key()),
            "FIFO lane out of order"
        );
        self.next_seq += 1;
        self.lane_pushes += 1;
        self.lane.push_back(entry);
    }

    /// Whether the earliest pending event is the lane's front.
    fn lane_first(&self) -> bool {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => l.key() < h.key(),
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
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        Some((entry.time, entry.event))
    }

    /// Time of the next event without popping it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match (self.lane.front(), self.heap.peek()) {
            (Some(l), Some(h)) => Some(l.time.min(h.time)),
            (lane, heap) => lane.or(heap).map(|e| e.time),
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
        let c = q.counters();
        assert_eq!((c.heap_pushes, c.lane_pushes), (3, 0));
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
