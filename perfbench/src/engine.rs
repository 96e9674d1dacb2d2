//! The benchmark's own event loop: `EventQueue::pop` then `World::handle`,
//! exactly what `itb_sim::run_until` does, plus exact work counters and,
//! in traced mode, a host clock read around each call.
//!
//! Per-event handle times include the `Cluster::pump` that every
//! `Cluster::handle` ends with; the pump is not visible from outside.

use itb_gm::{ClusterEvent, FlowWorldEvent};
use itb_net::NetEvent;
use itb_nic::NicEvent;
use itb_sim::{EventQueue, SimTime, World};
use std::time::Instant;

/// Names the event kinds of a world's union event, for per-kind tallies.
pub trait EventKind {
    /// Kind names, indexed by [`EventKind::kind`].
    const KINDS: &'static [&'static str];
    /// Index of this event's kind in [`EventKind::KINDS`].
    fn kind(&self) -> usize;
}

impl EventKind for ClusterEvent {
    const KINDS: &'static [&'static str] = &[
        "net.tx_done",
        "net.rx_flit",
        "net.route_ready",
        "net.ctrl",
        "nic.cpu",
        "nic.dma",
        "gm.host",
        "obs.sample",
        "flow.round",
    ];
    fn kind(&self) -> usize {
        match self {
            ClusterEvent::Net(NetEvent::TxDone { .. }) => 0,
            ClusterEvent::Net(NetEvent::RxFlit { .. }) => 1,
            ClusterEvent::Net(NetEvent::RouteReady { .. }) => 2,
            ClusterEvent::Net(NetEvent::Ctrl { .. }) => 3,
            ClusterEvent::Nic(NicEvent::Cpu { .. }) => 4,
            ClusterEvent::Nic(NicEvent::Dma { .. }) => 5,
            ClusterEvent::Host(_) => 6,
            ClusterEvent::Sample => 7,
            ClusterEvent::FlowRound => 8,
        }
    }
}

impl EventKind for FlowWorldEvent {
    const KINDS: &'static [&'static str] = &["flow.arrival", "flow.round", "flow.deliver"];
    fn kind(&self) -> usize {
        match self {
            FlowWorldEvent::Arrival { .. } => 0,
            FlowWorldEvent::Round => 1,
            FlowWorldEvent::Deliver { .. } => 2,
        }
    }
}

/// Exact, machine-independent work counters of one event loop.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct LoopCounts {
    /// Dispatched events per kind name, in a fixed order.
    pub by_kind: Vec<(&'static str, u64)>,
    /// Events popped (equals `EventQueue::events_dispatched`).
    pub pops: u64,
    /// Events pushed since the queue was created (set-up included).
    pub pushes: u64,
    /// Deepest the queue got.
    pub max_depth: u64,
}

impl LoopCounts {
    /// Dispatched events of one kind (0 when the kind never occurs).
    pub fn kind(&self, name: &str) -> u64 {
        self.by_kind
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|&(_, n)| n)
            .sum()
    }

    /// Fold another loop's counters into these (kinds keep first-seen order).
    pub fn absorb(&mut self, other: &LoopCounts) {
        for &(k, n) in &other.by_kind {
            match self.by_kind.iter_mut().find(|(name, _)| *name == k) {
                Some(slot) => slot.1 += n,
                None => self.by_kind.push((k, n)),
            }
        }
        self.pops += other.pops;
        self.pushes += other.pushes;
        self.max_depth = self.max_depth.max(other.max_depth);
    }
}

/// Host time of one traced event loop, in nanoseconds.
#[derive(Debug, Clone, Default)]
pub struct LoopTimes {
    /// Whole loop.
    pub loop_ns: u64,
    /// Inside `EventQueue::pop` (with its `peek_time`).
    pub pop_ns: u64,
    /// Inside `World::handle`, per kind name.
    pub handle_ns: Vec<(&'static str, u64)>,
}

impl LoopTimes {
    /// Time spent handling events of one kind.
    pub fn handle(&self, name: &str) -> u64 {
        self.handle_ns
            .iter()
            .filter(|(k, _)| *k == name)
            .map(|&(_, n)| n)
            .sum()
    }

    /// Fold another traced loop into this one.
    pub fn absorb(&mut self, other: &LoopTimes) {
        self.loop_ns += other.loop_ns;
        self.pop_ns += other.pop_ns;
        for &(k, n) in &other.handle_ns {
            match self.handle_ns.iter_mut().find(|(name, _)| *name == k) {
                Some(slot) => slot.1 += n,
                None => self.handle_ns.push((k, n)),
            }
        }
    }
}

/// A duration in whole nanoseconds (saturating).
pub(crate) fn nanos(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// What one event loop did: exact counters, allocations made by the
/// dispatch loop itself, and (traced only) host times.
#[derive(Debug, Clone)]
pub struct LoopRun {
    /// Work counters.
    pub counts: LoopCounts,
    /// Allocation calls and bytes requested between the first pop and the
    /// last handle.
    pub allocs: (u64, u64),
    /// Per-layer host times, when traced.
    pub times: Option<LoopTimes>,
}

/// Dispatch events until the queue drains or the next one would fire after
/// `until`. `observe` sees each event just before it is handled. With
/// `traced`, the host clock is read around every pop and handle.
pub fn drive<W, F>(
    world: &mut W,
    q: &mut EventQueue<W::Event>,
    until: SimTime,
    traced: bool,
    observe: F,
) -> LoopRun
where
    W: World,
    W::Event: EventKind,
    F: FnMut(SimTime, &W::Event),
{
    let kinds = <W::Event as EventKind>::KINDS;
    let mut tally = vec![0u64; kinds.len()];
    let mut handle = vec![0u64; kinds.len()];
    let pops0 = q.events_dispatched();
    let (a0, b0) = crate::alloc::snapshot();
    let (max_depth, traced_ns) = if traced {
        let (max_depth, pop_ns, loop_ns) =
            drive_traced(world, q, until, &mut tally, &mut handle, observe);
        (max_depth, Some((pop_ns, loop_ns)))
    } else {
        (drive_plain(world, q, until, &mut tally, observe), None)
    };
    let (a1, b1) = crate::alloc::snapshot();
    let counts = LoopCounts {
        by_kind: kinds.iter().copied().zip(tally).collect(),
        pops: q.events_dispatched() - pops0,
        pushes: q.events_dispatched() + q.len() as u64,
        max_depth,
    };
    let times = traced_ns.map(|(pop_ns, loop_ns)| LoopTimes {
        loop_ns,
        pop_ns,
        handle_ns: kinds.iter().copied().zip(handle).collect(),
    });
    LoopRun {
        counts,
        allocs: (a1 - a0, b1 - b0),
        times,
    }
}

fn drive_plain<W, F>(
    world: &mut W,
    q: &mut EventQueue<W::Event>,
    until: SimTime,
    tally: &mut [u64],
    mut observe: F,
) -> u64
where
    W: World,
    W::Event: EventKind,
    F: FnMut(SimTime, &W::Event),
{
    let mut max_depth = q.len();
    while let Some(t) = q.peek_time() {
        if t > until {
            break;
        }
        let Some((now, ev)) = q.pop() else { break };
        tally[ev.kind()] += 1;
        observe(now, &ev);
        world.handle(now, ev, q);
        max_depth = max_depth.max(q.len());
    }
    max_depth as u64
}

/// Returns (max depth, ns in pop, ns in the whole loop). Three clock reads
/// per event: before the pop, between pop and handle, after the handle; the
/// loop's own bookkeeping (depth tracking, branch) is what lies between one
/// event's handle and the next pop.
fn drive_traced<W, F>(
    world: &mut W,
    q: &mut EventQueue<W::Event>,
    until: SimTime,
    tally: &mut [u64],
    handle_ns: &mut [u64],
    mut observe: F,
) -> (u64, u64, u64)
where
    W: World,
    W::Event: EventKind,
    F: FnMut(SimTime, &W::Event),
{
    let mut max_depth = q.len();
    let mut pop_ns = 0u64;
    let start = Instant::now();
    loop {
        let t0 = Instant::now();
        let next = match q.peek_time() {
            Some(t) if t <= until => q.pop(),
            _ => None,
        };
        let t1 = Instant::now();
        pop_ns += nanos(t1 - t0);
        let Some((now, ev)) = next else { break };
        let k = ev.kind();
        tally[k] += 1;
        observe(now, &ev);
        world.handle(now, ev, q);
        handle_ns[k] += nanos(t1.elapsed());
        max_depth = max_depth.max(q.len());
    }
    (max_depth as u64, pop_ns, nanos(start.elapsed()))
}
