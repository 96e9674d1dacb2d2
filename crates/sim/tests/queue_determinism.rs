//! Differential proof that the 4-ary-heap [`EventQueue`] pops in exactly
//! the order of the original `BinaryHeap`-backed implementation.
//!
//! The queue's contract is stronger than "time-sorted": simultaneous events
//! pop in schedule order (FIFO), and firmware race resolution depends on it.
//! Because every entry carries a unique `(time, seq)` key, *any* correct
//! min-heap pops the same total order — this test pins that equivalence on
//! randomized workloads with heavy timestamp collisions and interleaved
//! schedule/pop phases. It also pins [`EventQueue::iter_ordered`] (the
//! pending entries in pop order, which the model checker's world digest
//! reads) and [`EventQueue::clear`] against the same reference.

use itb_sim::{EventQueue, SimDuration, SimTime};
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// The previous implementation, kept verbatim as the reference model: a
/// `std::collections::BinaryHeap` of `Reverse<(time, seq, payload)>`.
struct ReferenceQueue {
    heap: BinaryHeap<Reverse<(SimTime, u64, u64)>>,
    seq: u64,
    now: SimTime,
}

impl ReferenceQueue {
    fn new() -> Self {
        ReferenceQueue {
            heap: BinaryHeap::new(),
            seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn schedule(&mut self, at: SimTime, payload: u64) {
        let seq = self.seq;
        self.seq += 1;
        self.heap.push(Reverse((at, seq, payload)));
    }

    fn schedule_after(&mut self, delta: SimDuration, payload: u64) {
        self.schedule(self.now + delta, payload);
    }

    fn pop(&mut self) -> Option<(SimTime, u64)> {
        let (t, _, p) = self.heap.pop()?.0;
        self.now = t;
        Some((t, p))
    }

    /// Drop every pending entry; the clock and the sequence survive.
    fn clear(&mut self) {
        self.heap.clear();
    }

    /// Pending entries sorted by `(time, seq)`, the sequence dropped.
    fn sorted(&self) -> Vec<(SimTime, u64)> {
        let mut all: Vec<(SimTime, u64, u64)> = self.heap.iter().map(|r| r.0).collect();
        all.sort_unstable();
        all.into_iter().map(|(t, _, p)| (t, p)).collect()
    }
}

/// Tiny deterministic xorshift so the workload is reproducible.
struct XorShift(u64);

impl XorShift {
    fn next(&mut self) -> u64 {
        let x = &mut self.0;
        *x ^= *x << 13;
        *x ^= *x >> 7;
        *x ^= *x << 17;
        *x
    }
}

/// Drive both queues through an identical randomized schedule/pop/clear
/// interleaving and assert identical pop sequences and, every round,
/// identical pending contents in pop order.
fn differential_run(seed: u64, rounds: usize, time_range: u64) {
    let mut rng = XorShift(seed);
    let mut dut: EventQueue<u64> = EventQueue::new();
    let mut reference = ReferenceQueue::new();
    let mut payload = 0u64;
    for round in 0..rounds {
        // Burst of schedules, absolute or relative to the clock. A small
        // time range forces many exact ties.
        let burst = (rng.next() % 8) as usize + 1;
        for _ in 0..burst {
            let delta = SimDuration::from_ns(rng.next() % time_range);
            if rng.next().is_multiple_of(2) {
                let at = reference.now + delta;
                dut.schedule(at, payload);
                reference.schedule(at, payload);
            } else {
                dut.schedule_after(delta, payload);
                reference.schedule_after(delta, payload);
            }
            payload += 1;
        }
        let pending: Vec<(SimTime, u64)> = dut.iter_ordered().map(|(t, &p)| (t, p)).collect();
        assert_eq!(
            pending,
            reference.sorted(),
            "iter_ordered diverges at round {round} (seed {seed})"
        );
        // Now and then drop everything pending: the sequence carries on.
        if round % 29 == 28 {
            dut.clear();
            reference.clear();
            assert!(dut.is_empty());
            continue;
        }
        // Pop a few (sometimes none, sometimes a drain).
        let pops = if round % 13 == 0 {
            usize::MAX // drain fully
        } else {
            (rng.next() % 4) as usize
        };
        for _ in 0..pops {
            let got = dut.pop();
            let want = reference.pop();
            assert_eq!(got, want, "divergence at round {round} (seed {seed})");
            if got.is_none() {
                break;
            }
            assert_eq!(dut.now(), reference.now);
        }
    }
    // Final drain: every remaining entry must match too.
    loop {
        let got = dut.pop();
        let want = reference.pop();
        assert_eq!(got, want, "divergence in final drain (seed {seed})");
        if got.is_none() {
            break;
        }
    }
}

#[test]
fn matches_binary_heap_order_on_collision_heavy_schedules() {
    // time_range 3: almost everything ties, exercising pure FIFO order.
    differential_run(0x9E37_79B9_7F4A_7C15, 400, 3);
}

#[test]
fn matches_binary_heap_order_on_sparse_schedules() {
    differential_run(0x2545_F491_4F6C_DD1D, 400, 10_000);
}

#[test]
fn matches_binary_heap_order_across_seeds() {
    for seed in 1..=32u64 {
        differential_run(seed, 120, 7);
        differential_run(seed.wrapping_mul(0xD134_2543_DE82_EF95), 120, 1_000);
    }
}
