//! Deterministic event calendar.

use crate::time::{SimDuration, SimTime};

/// One scheduled entry: fires at `time`; `seq` (the queue's schedule
/// counter at the moment of the `schedule` call) breaks ties among
/// simultaneous events.
struct Entry<E> {
    time: SimTime,
    seq: u64,
    event: E,
}

impl<E> Entry<E> {
    /// Total order on `(time, seq)`. Keys are unique (`seq` increments on
    /// every schedule), so any heap discipline pops entries in exactly this
    /// order — the heap's arity cannot perturb determinism.
    #[inline]
    fn key(&self) -> (SimTime, u64) {
        (self.time, self.seq)
    }
}

/// Heap arity. A 4-ary heap is ~half the depth of a binary heap: fewer
/// sift levels per push/pop and better cache behaviour on the fat union
/// event types the integrated cluster schedules (measured ~10-15% of the
/// whole-simulation profile moves out of the queue vs `BinaryHeap`).
const D: usize = 4;

/// A time-ordered event queue with deterministic FIFO ordering among
/// simultaneous events.
///
/// Determinism matters: the MCP firmware model resolves races (e.g. an
/// in-transit packet arriving in the same picosecond the send DMA finishes)
/// by event order, and reproducible experiments require that order to be a
/// pure function of the schedule calls, never of heap internals. The
/// `(time, seq)` key is unique per entry, so the d-ary heap used here pops
/// in exactly the order the previous `BinaryHeap` implementation did (see
/// `tests/queue_determinism.rs` for the differential proof).
pub struct EventQueue<E> {
    /// Min-heap on `(time, seq)`, `D`-ary, rooted at index 0.
    heap: Vec<Entry<E>>,
    /// Sequence number the next scheduled entry receives.
    seq: u64,
    now: SimTime,
    popped: u64,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// An empty queue positioned at t = 0.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            seq: 0,
            now: SimTime::ZERO,
            popped: 0,
        }
    }

    /// Current simulation time: the timestamp of the most recently popped
    /// event (or t = 0 before any pop).
    #[inline]
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of events dispatched so far (a cheap progress/perf metric).
    #[inline]
    pub fn events_dispatched(&self) -> u64 {
        self.popped
    }

    /// Schedule `event` to fire at absolute time `at`.
    ///
    /// # Panics
    /// Panics if `at` is earlier than the current time — scheduling into the
    /// past is always a model bug.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled into the past: at={at} now={}",
            self.now
        );
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Entry {
            time: at,
            seq,
            event,
        });
        self.sift_up(self.heap.len() - 1);
    }

    /// Schedule `event` to fire `delta` after the current time — the common
    /// "follow-up event" pattern (`schedule(now + d, ev)` where `now` is the
    /// timestamp of the event being handled, which always equals
    /// [`EventQueue::now`] inside a handler).
    #[inline]
    pub fn schedule_after(&mut self, delta: SimDuration, event: E) {
        let at = self.now + delta;
        self.schedule(at, event);
    }

    /// Pop the earliest event, advancing the clock to its timestamp.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        if self.heap.is_empty() {
            return None;
        }
        let entry = self.heap.swap_remove(0);
        if !self.heap.is_empty() {
            self.sift_down(0);
        }
        debug_assert!(entry.time >= self.now);
        self.now = entry.time;
        self.popped += 1;
        Some((entry.time, entry.event))
    }

    /// Visit every pending entry in pop order — `(time, event)` sorted by
    /// the `(time, seq)` key — without disturbing the heap.
    ///
    /// This exists for the model checker's world digest: the heap's array
    /// layout depends on insertion history, but the *pop order* is the
    /// canonical meaning of the queue's contents. The raw `seq` is
    /// deliberately not exposed: it is an ever-increasing schedule counter,
    /// so two worlds that will dispatch identical events at identical times
    /// would digest differently if the counter leaked in. Relative order
    /// among ties is conveyed by iteration position, which is all a digest
    /// needs (newly scheduled entries always receive larger sequence
    /// numbers than every pending entry, so position is a faithful stand-in
    /// for the counter).
    pub fn iter_ordered(&self) -> impl Iterator<Item = (SimTime, &E)> {
        let mut ix: Vec<usize> = (0..self.heap.len()).collect();
        ix.sort_unstable_by_key(|&i| self.heap[i].key());
        ix.into_iter().map(move |i| {
            let e = &self.heap[i];
            (e.time, &e.event)
        })
    }

    /// Timestamp of the next event without popping it.
    #[inline]
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.first().map(|e| e.time)
    }

    /// Whether any events remain.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// Drop every pending event. The clock, dispatch count and tie-break
    /// sequence are preserved: a cleared queue is "this world, with nothing
    /// scheduled", not a brand-new queue.
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Pre-allocate room for `additional` more events (steady-state runs
    /// can reserve their working set once and never grow the heap again).
    pub fn reserve(&mut self, additional: usize) {
        self.heap.reserve(additional);
    }

    /// Move the entry at `i` up until its parent is no bigger.
    fn sift_up(&mut self, mut i: usize) {
        while i > 0 {
            let parent = (i - 1) / D;
            if self.heap[parent].key() <= self.heap[i].key() {
                break;
            }
            self.heap.swap(i, parent);
            i = parent;
        }
    }

    /// Move the entry at `i` down until no child is smaller.
    fn sift_down(&mut self, mut i: usize) {
        let len = self.heap.len();
        loop {
            let first_child = i * D + 1;
            if first_child >= len {
                break;
            }
            let last_child = (first_child + D).min(len);
            let mut best = first_child;
            let mut best_key = self.heap[first_child].key();
            for c in first_child + 1..last_child {
                let k = self.heap[c].key();
                if k < best_key {
                    best = c;
                    best_key = k;
                }
            }
            if self.heap[i].key() <= best_key {
                break;
            }
            self.heap.swap(i, best);
            i = best;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(30), "c");
        q.schedule(SimTime::from_ns(10), "a");
        q.schedule(SimTime::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn simultaneous_events_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(5);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn clock_advances_with_pops() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(7), ());
        q.schedule(SimTime::from_ns(9), ());
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(7));
        q.pop();
        assert_eq!(q.now(), SimTime::from_ns(9));
        assert_eq!(q.events_dispatched(), 2);
    }

    #[test]
    #[should_panic(expected = "scheduled into the past")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), ());
        q.pop();
        q.schedule(SimTime::from_ns(5), ());
    }

    #[test]
    fn peek_does_not_advance() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(4), 1u8);
        assert_eq!(q.peek_time(), Some(SimTime::from_ns(4)));
        assert_eq!(q.now(), SimTime::ZERO);
        assert_eq!(q.len(), 1);
        assert!(!q.is_empty());
    }

    #[test]
    fn interleaved_schedule_and_pop_keeps_fifo_per_timestamp() {
        let mut q = EventQueue::new();
        let t = SimTime::from_ns(50);
        q.schedule(t, 0);
        q.schedule(t, 1);
        q.schedule(SimTime::from_ns(1), 99);
        assert_eq!(q.pop().unwrap().1, 99);
        q.schedule(t, 2);
        let rest: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(rest, vec![0, 1, 2]);
    }

    #[test]
    fn schedule_after_is_relative_to_the_clock() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), "first");
        q.pop();
        q.schedule_after(SimDuration::from_ns(5), "second");
        let (t, e) = q.pop().unwrap();
        assert_eq!(t, SimTime::from_ns(15));
        assert_eq!(e, "second");
    }

    #[test]
    fn clear_keeps_clock_and_fifo_sequence() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(10), 0);
        q.pop();
        q.schedule(SimTime::from_ns(20), 1);
        q.schedule(SimTime::from_ns(20), 2);
        q.clear();
        assert!(q.is_empty());
        assert_eq!(q.now(), SimTime::from_ns(10), "clock survives clear");
        assert_eq!(q.events_dispatched(), 1);
        // Ties scheduled after the clear still pop FIFO.
        q.schedule(SimTime::from_ns(30), 7);
        q.schedule(SimTime::from_ns(30), 8);
        assert_eq!(q.pop().unwrap().1, 7);
        assert_eq!(q.pop().unwrap().1, 8);
    }

    #[test]
    fn reserve_does_not_disturb_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_ns(2), "b");
        q.reserve(1024);
        q.schedule(SimTime::from_ns(1), "a");
        assert_eq!(q.pop().unwrap().1, "a");
        assert_eq!(q.pop().unwrap().1, "b");
    }

    #[test]
    fn iter_ordered_matches_pop_order() {
        let mut q = EventQueue::new();
        let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
        for i in 0..500u64 {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(SimTime::from_ns(x % 37), i);
        }
        let snapshot: Vec<(SimTime, u64)> = q.iter_ordered().map(|(t, &e)| (t, e)).collect();
        let popped: Vec<(SimTime, u64)> = std::iter::from_fn(|| q.pop()).collect();
        assert_eq!(snapshot, popped);
    }

    #[test]
    fn large_random_schedule_pops_sorted() {
        // Exercise deep sift paths of the d-ary heap.
        let mut q = EventQueue::new();
        let mut x: u64 = 0x243F_6A88_85A3_08D3;
        for i in 0..10_000u64 {
            // xorshift
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            q.schedule(SimTime::from_ns(x % 997), i);
        }
        let mut last = (SimTime::ZERO, 0u64);
        let mut n = 0;
        while let Some((t, seq_marker)) = q.pop() {
            if t == last.0 {
                assert!(seq_marker > last.1, "FIFO among ties");
            } else {
                assert!(t > last.0, "time-sorted");
            }
            last = (t, seq_marker);
            n += 1;
        }
        assert_eq!(n, 10_000);
    }
}
