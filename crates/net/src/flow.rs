//! Flow-level network model for the hybrid flow/packet engine.
//!
//! Where the flit model (`network.rs`) spends one event per flit per hop,
//! [`FlowNet`] replaces a long-lived transfer with a single *flow*: a
//! (source host, destination host, byte count) triple routed over the
//! shortest deterministic path, served at the rate a global **max-min
//! fair** allocation grants it, and advanced in coarse sim-time rounds.
//! A 100 000-flow fabric costs one rate solve plus one array sweep per
//! round instead of hundreds of millions of flit events — the trade is
//! that transient contention (worm blocking, Stop&Go backpressure, ITB
//! ejection) is averaged away, which is exactly why the hybrid engine
//! only assigns *uncongested, ITB-free* regions to this model and
//! escalates anything else to packet fidelity.
//!
//! ## Layout and costs
//!
//! The solver touches only dense arrays:
//!
//! * every route lives in one arena owned by the [`FlowNet`]; a flow
//!   keeps its `(offset, length)` span plus a *dense index*. Flows open
//!   in strictly increasing id order, so the arena is in id order too;
//! * the channel→flow index (CSR layout, dense-index order within each
//!   channel) persists across solves. It is rebuilt — arena compacted in
//!   place, dense indices reassigned in id order — only after arrivals,
//!   or once closed/completed flows (tombstones) outnumber live ones;
//! * a closed or completed flow sets a tombstone bit at its dense index,
//!   and a solve starts with those flows already frozen.
//!
//! A rebuild is O(live route entries). A solve on a reused index is
//! O(index items + freezes), with no per-flow slab lookup: its only slab
//! touch is one id-order sweep writing the solved rates back.
//!
//! ## Determinism
//!
//! Everything is a pure function of the topology and the flow set:
//!
//! * routes come from per-root BFS in switch-id/port order (no RNG, no
//!   hash iteration);
//! * the max-min solver pops bottleneck channels in `(saturation level,
//!   channel index)` order under `f64::total_cmp` and freezes flows in id
//!   order within each channel, so its f64 operations execute in a fixed
//!   sequence — IEEE 754 arithmetic is deterministic when the operation
//!   order is. Tombstones change which index items are skipped, never
//!   that sequence, so a reused index solves bit-identically to a fresh
//!   one;
//! * each solved rate crosses to integer picoseconds exactly once via
//!   [`ByteInterval::from_rate`]; rounds, completions and byte counts are
//!   integer arithmetic from there on.
//!
//! Repeated runs therefore produce byte-identical flow schedules, and the
//! engine's state digests can cover flow state directly.

use crate::slab::IdSlab;
use itb_sim::{narrow, ByteInterval, SimDuration};
use itb_topo::{HostId, Node, SwitchId, Topology};

/// Directed-channel index: link `lid` carries channel `lid*2` in its
/// `a → b` orientation and `lid*2 + 1` in `b → a` — the same convention
/// the flit model uses for its per-direction channel array.
type Chan = u32;

const NO_PRED: u16 = u16::MAX;

/// One in-flight flow.
#[derive(Debug, Clone)]
pub struct Flow {
    /// Sending host.
    pub src: HostId,
    /// Receiving host.
    pub dst: HostId,
    /// Bytes still to deliver.
    pub remaining: u64,
    /// Quantised service interval from the last solve.
    pub interval: ByteInterval,
    /// Route span in the arena: directed channels in path order.
    off: u32,
    len: u32,
    /// Position in the dense solver arrays; valid while the channel
    /// index is not stale.
    dense: u32,
}

impl Flow {
    fn span(&self) -> std::ops::Range<usize> {
        self.off as usize..(self.off + self.len) as usize
    }
}

/// A completion produced by [`FlowNet::advance`]: flow `id` finished
/// `offset` after the start of the advanced round.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct FlowCompletion {
    /// The flow's id (the caller's message id).
    pub id: u64,
    /// Completion instant as an offset from the round start. Always at
    /// most the advanced window.
    pub offset: SimDuration,
}

/// The channel→flow index the solver runs on, kept across solves.
#[derive(Default)]
struct ChanIndex {
    /// CSR offsets: the flows on channel `c` are
    /// `items[off[c]..off[c + 1]]`, ascending dense index (= id order).
    off: Vec<u32>,
    items: Vec<u32>,
    /// Arena span `(offset, length)` per dense index.
    spans: Vec<(u32, u32)>,
    /// Bitset over dense indices: flows closed or completed since the
    /// last rebuild.
    tombs: Vec<u64>,
    buried: usize,
    /// A flow opened since the last rebuild, so the index misses it.
    stale: bool,
}

impl ChanIndex {
    /// Retire dense slot `dense` from the index. A stale index is rebuilt
    /// before its next use anyway, so it needs no tombstone.
    fn bury(&mut self, dense: u32) {
        if !self.stale {
            set_bit(&mut self.tombs, dense);
            self.buried += 1;
        }
    }
}

/// The flow-level fabric: deterministic shortest routes, max-min fair
/// rate allocation, coarse-round service.
pub struct FlowNet {
    switches: usize,
    /// Flat `switches × switches` BFS predecessor matrix: `pred[root *
    /// switches + v]` is the switch preceding `v` on the root→v path.
    pred: Vec<u16>,
    /// Directed channel taken on the last hop of root→v, parallel to
    /// `pred`.
    hop_chan: Vec<Chan>,
    /// Per-host attachment: switch index and the host-link uplink /
    /// downlink channels.
    host_switch: Vec<u16>,
    host_up: Vec<Chan>,
    host_down: Vec<Chan>,
    /// Per-channel capacity in bytes/ns (uniform per link direction,
    /// from the configured link bandwidth).
    cap: Vec<f64>,
    flows: IdSlab<Flow>,
    /// Route arena: one span per flow, spans in flow-id order. Closed and
    /// completed flows leave dead spans until the next index rebuild
    /// compacts the arena in place.
    routes: Vec<Chan>,
    /// Highest id opened so far, for the strictly-increasing contract.
    last_id: Option<u64>,
    /// Live flows per directed channel, maintained on open/close/complete.
    /// This — not utilisation — is the escalation signal: a work-conserving
    /// max-min solve drives every busy flow's bottleneck to 100% by
    /// construction, so "links near capacity" carries no information, but
    /// many worms sharing one channel is exactly the regime where the
    /// fluid model averages away HOL blocking and Stop&Go backpressure.
    /// It is also each solve's initial unfrozen load.
    occupancy: Vec<u32>,
    /// Rates allocated by the last solve, in bytes/ns per channel
    /// (reporting + diagnostics).
    alloc: Vec<f64>,
    /// Solver scratch: unfrozen flows per channel during a solve (and the
    /// scatter cursor during an index rebuild).
    load: Vec<u32>,
    index: ChanIndex,
    /// Solver scratch over dense indices, reused across solves: the
    /// frozen bitset, the solved rate, the bottleneck heap's store.
    frozen: Vec<u64>,
    rate: Vec<f64>,
    heap: std::collections::BinaryHeap<ChanSat>,
    total_delivered: u64,
    solves: u64,
}

impl FlowNet {
    /// Build the flow fabric for `topo`, with every channel serving
    /// `link_bytes_per_ns` (0.16 for the 160 MB/s Myrinet link).
    ///
    /// Runs one BFS per switch to fill the predecessor matrix — O(V·E),
    /// a few milliseconds at 1024 switches — so route lookup afterwards
    /// is a pure parent walk with no allocation beyond the route arena.
    pub fn new(topo: &Topology, link_bytes_per_ns: f64) -> Self {
        let n = topo.num_switches();
        assert!(n > 0, "flow fabric needs at least one switch");
        let channels = topo.num_links() * 2;

        let mut pred = vec![NO_PRED; n * n];
        let mut hop_chan = vec![0 as Chan; n * n];
        let mut queue = std::collections::VecDeque::new();
        for root in 0..n {
            let base = root * n;
            queue.clear();
            queue.push_back(root);
            pred[base + root] = narrow::<u16, _>(root);
            while let Some(u) = queue.pop_front() {
                for (_, lid, v) in topo.switch_neighbors(SwitchId(narrow(u))) {
                    let vi = v.idx();
                    if vi != u && pred[base + vi] == NO_PRED {
                        pred[base + vi] = narrow::<u16, _>(u);
                        hop_chan[base + vi] =
                            directed_chan(topo, lid, Node::Switch(SwitchId(narrow(u))));
                        queue.push_back(vi);
                    }
                }
            }
        }

        let mut host_switch = Vec::with_capacity(topo.num_hosts());
        let mut host_up = Vec::with_capacity(topo.num_hosts());
        let mut host_down = Vec::with_capacity(topo.num_hosts());
        for h in topo.host_ids() {
            let (s, _) = topo.host_attachment(h);
            let lid = topo.host_link(h);
            host_switch.push(narrow::<u16, _>(s.idx()));
            host_up.push(directed_chan(topo, lid, Node::Host(h)));
            host_down.push(directed_chan(topo, lid, Node::Switch(s)));
        }

        FlowNet {
            switches: n,
            pred,
            hop_chan,
            host_switch,
            host_up,
            host_down,
            cap: vec![link_bytes_per_ns; channels],
            flows: IdSlab::default(),
            routes: Vec::new(),
            last_id: None,
            occupancy: vec![0; channels],
            alloc: vec![0.0; channels],
            load: vec![0; channels],
            index: ChanIndex::default(),
            frozen: Vec::new(),
            rate: Vec::new(),
            heap: std::collections::BinaryHeap::new(),
            total_delivered: 0,
            solves: 0,
        }
    }

    /// Open flow `id` (the caller's message id) carrying `bytes` from
    /// `src` to `dst`. The route is fixed at open time and written
    /// straight into the route arena.
    ///
    /// Ids must strictly increase from one `open` to the next: that keeps
    /// the arena in id order, which is what lets an index rebuild compact
    /// it in place. Both callers hand out ids from a counter.
    ///
    /// # Panics
    /// Panics if `id` is not greater than every id opened before.
    ///
    /// The new flow serves at a stalled rate until the next [`solve`] —
    /// callers re-solve at the round boundary after admitting arrivals.
    ///
    /// [`solve`]: FlowNet::solve
    pub fn open(&mut self, id: u64, src: HostId, dst: HostId, bytes: u64) {
        assert!(
            self.last_id.is_none_or(|last| id > last),
            "flow id {id} opened out of order"
        );
        self.last_id = Some(id);
        let off = self.routes.len();
        self.push_route(src, dst);
        for &c in &self.routes[off..] {
            self.occupancy[c as usize] += 1;
        }
        self.index.stale = true;
        self.flows.insert(
            id,
            Flow {
                src,
                dst,
                remaining: bytes,
                interval: ByteInterval::from_rate(0.0),
                off: narrow(off),
                len: narrow(self.routes.len() - off),
                dense: 0,
            },
        );
    }

    /// Close flow `id` early (escalation hand-back), returning it so the
    /// caller can re-inject the remaining bytes through the packet path.
    pub fn close(&mut self, id: u64) -> Option<Flow> {
        let flow = self.flows.remove(id)?;
        for &c in &self.routes[flow.span()] {
            self.occupancy[c as usize] -= 1;
        }
        self.index.bury(flow.dense);
        Some(flow)
    }

    /// Append the switch path a `src → dst` flow takes to the route
    /// arena, as directed channels: source uplink, inter-switch hops (BFS
    /// shortest path), destination downlink. Intra-switch flows cross
    /// just the two host links. The parent walk runs backwards, so the
    /// span is reversed in place.
    fn push_route(&mut self, src: HostId, dst: HostId) {
        let start = self.routes.len();
        let s0 = usize::from(self.host_switch[src.idx()]);
        let s1 = usize::from(self.host_switch[dst.idx()]);
        self.routes.push(self.host_down[dst.idx()]);
        let base = s0 * self.switches;
        let mut v = s1;
        while v != s0 {
            let p = self.pred[base + v];
            assert!(p != NO_PRED, "validated topologies are connected");
            self.routes.push(self.hop_chan[base + v]);
            v = usize::from(p);
        }
        self.routes.push(self.host_up[src.idx()]);
        self.routes[start..].reverse();
    }

    /// The switches flow `id`'s path crosses (attachment switches
    /// included), for region-fidelity checks. Deterministic path order.
    pub fn switches_of(&self, src: HostId, dst: HostId) -> Vec<SwitchId> {
        let s0 = usize::from(self.host_switch[src.idx()]);
        let s1 = usize::from(self.host_switch[dst.idx()]);
        let base = s0 * self.switches;
        let mut rev = vec![SwitchId(narrow(s1))];
        let mut v = s1;
        while v != s0 {
            v = usize::from(self.pred[base + v]);
            rev.push(SwitchId(narrow(v)));
        }
        rev.reverse();
        rev
    }

    /// Rebuild the channel→flow index over the live flows: compact the
    /// route arena in place (live spans are in id order, so each moves
    /// down or stays), assign dense indices in id order, and scatter each
    /// route into the CSR. `occupancy` is exactly the live flows per
    /// channel, so it gives the CSR offsets without a counting pass.
    fn rebuild_index(&mut self) {
        let FlowNet {
            flows,
            routes,
            occupancy,
            load,
            index,
            ..
        } = self;
        index.off.clear();
        index.off.push(0);
        let mut total = 0u32;
        for &n in occupancy.iter() {
            total += n;
            index.off.push(total);
        }
        let cursor = load;
        cursor.copy_from_slice(&index.off[..occupancy.len()]);
        index.items.clear();
        index.items.resize(total as usize, 0);
        index.spans.clear();
        let mut write = 0usize;
        for (_, f) in flows.iter_mut() {
            routes.copy_within(f.span(), write);
            f.off = narrow(write);
            f.dense = narrow(index.spans.len());
            index.spans.push((f.off, f.len));
            for &c in &routes[f.span()] {
                index.items[cursor[c as usize] as usize] = f.dense;
                cursor[c as usize] += 1;
            }
            write += f.len as usize;
        }
        routes.truncate(write);
        index.tombs.clear();
        index.tombs.resize(index.spans.len().div_ceil(64), 0);
        index.buried = 0;
        index.stale = false;
    }

    /// Max-min fair allocation over the current flow set, computed
    /// bottleneck-first. Conceptually it is progressive water filling —
    /// every unfrozen flow's rate rises in lockstep until a channel
    /// saturates, the flows crossing it freeze at that level, and the
    /// filling continues on the rest — but the implementation exploits
    /// the lockstep invariant: all unfrozen flows always share one rate
    /// level λ, and a channel's *saturation level*
    /// `s_c = (cap_c − Σ frozen rates on c) / unfrozen_load_c`
    /// does not move while λ rises; only a freeze (which changes the
    /// channel's load and frozen sum) perturbs it. A lazy min-heap keyed
    /// by `(s_c, c)` therefore finds every bottleneck without touching
    /// the active flow set, and each flow is visited exactly once — when
    /// it freezes.
    ///
    /// Cost: the channel→flow index is rebuilt (O(live route entries))
    /// only when flows opened since the last solve, or when tombstones
    /// — flows closed or completed since the last rebuild — outnumber
    /// live flows. Otherwise the solve reuses it with the tombstoned
    /// flows pre-frozen, and costs O(index items + freezes ·
    /// route length) plus the heap's `log channels` per pop, reading only
    /// the index, the route arena and dense per-channel / per-flow arrays.
    /// One id-order sweep then writes the rates back to the flows.
    ///
    /// Determinism: heap order is `f64::total_cmp` on the saturation
    /// level with ties to the lowest channel index, per-channel flow
    /// lists are in flow-id order, and a popped snapshot whose channel
    /// has since risen is re-pushed at the recomputed level rather than
    /// acted on — every f64 operation executes in a fixed sequence. Each
    /// flow's solved rate is quantised through [`ByteInterval::from_rate`]
    /// — the engine's single float→time crossing — before any completion
    /// arithmetic happens.
    ///
    /// The heap is deliberately *lazy on update*: freezing a flow changes
    /// the saturation level of every channel on its route, but pushing a
    /// fresh snapshot per touched channel (as a textbook decrease-key
    /// substitute would) costs a heap push per flow×hop — the dominant
    /// wall-clock term at 100k flows. Instead a channel's level is
    /// recomputed from `(cap − alloc) / load` only when its entry
    /// surfaces at the heap top; stale surfacings re-push once at the
    /// current level. Levels are non-decreasing across freezes, so every
    /// loaded channel always has at least one heap entry at or below its
    /// true level, which is exactly the invariant the pop order needs.
    pub fn solve(&mut self) {
        self.solves += 1;
        self.alloc.fill(0.0);
        let live = self.flows.len();
        if self.index.stale || self.index.buried > live {
            self.rebuild_index();
        }
        if live == 0 {
            return;
        }
        let FlowNet {
            flows,
            routes,
            cap,
            occupancy,
            alloc,
            load,
            index,
            frozen,
            rate,
            heap,
            ..
        } = self;
        load.copy_from_slice(occupancy);
        frozen.clear();
        frozen.extend_from_slice(&index.tombs);
        rate.resize(index.spans.len(), 0.0);
        heap.clear();
        for (c, &l) in load.iter().enumerate() {
            if l > 0 {
                heap.push(ChanSat {
                    s: cap[c] / f64::from(l),
                    c: narrow(c),
                });
            }
        }
        let mut lambda = 0.0f64;
        let mut active = live;
        while active > 0 {
            let Some(top) = heap.pop() else { break };
            let c = top.c as usize;
            if load[c] == 0 {
                continue; // drained by freezes on other bottlenecks
            }
            let s_now = (cap[c] - alloc[c]).max(0.0) / f64::from(load[c]);
            if s_now.total_cmp(&top.s).is_gt() {
                // Stale snapshot: the channel rose since this entry was
                // pushed. Re-queue it at the current level and move on.
                heap.push(ChanSat { s: s_now, c: top.c });
                continue;
            }
            // Saturation levels are non-decreasing along the pop order in
            // exact arithmetic; the max guards against f64 rounding dips.
            lambda = lambda.max(s_now);
            for &d in &index.items[index.off[c] as usize..index.off[c + 1] as usize] {
                if get_bit(frozen, d) {
                    continue;
                }
                set_bit(frozen, d);
                rate[d as usize] = lambda;
                active -= 1;
                let (off, len) = index.spans[d as usize];
                for &c2 in &routes[off as usize..(off + len) as usize] {
                    let c2 = c2 as usize;
                    alloc[c2] += lambda;
                    load[c2] -= 1;
                }
            }
        }
        for (_, f) in flows.iter_mut() {
            f.interval = ByteInterval::from_rate(rate[f.dense as usize]);
        }
    }

    /// Serve every flow for one `window`-long round. Byte progress is the
    /// integer `interval.bytes_in(window)` (sub-byte residue truncates —
    /// the documented coarseness of the flow model); flows that drain
    /// complete at the exact integer offset `interval.time_for(needed)`.
    /// Completions return in flow-id order and are removed from the set.
    pub fn advance(&mut self, window: SimDuration) -> Vec<FlowCompletion> {
        let mut done = Vec::new();
        let FlowNet {
            flows,
            routes,
            occupancy,
            index,
            total_delivered,
            ..
        } = self;
        flows.retain_with_id(|id, f| {
            let served = f.interval.bytes_in(window);
            if served >= f.remaining {
                let offset = f.interval.time_for(f.remaining);
                *total_delivered += f.remaining;
                done.push(FlowCompletion { id, offset });
                for &c in &routes[f.span()] {
                    occupancy[c as usize] -= 1;
                }
                index.bury(f.dense);
                false
            } else {
                *total_delivered += served;
                f.remaining -= served;
                true
            }
        });
        done
    }

    /// Live flow count.
    pub fn len(&self) -> usize {
        self.flows.len()
    }

    /// True when no flows are in flight.
    pub fn is_empty(&self) -> bool {
        self.flows.is_empty()
    }

    /// Live flow ids, ascending.
    pub fn ids(&self) -> impl Iterator<Item = u64> + '_ {
        self.flows.ids()
    }

    /// Look up a live flow.
    pub fn get(&self, id: u64) -> Option<&Flow> {
        self.flows.get(id)
    }

    /// Total bytes delivered across all completed service.
    pub fn bytes_delivered(&self) -> u64 {
        self.total_delivered
    }

    /// Number of solver runs so far.
    pub fn solves(&self) -> u64 {
        self.solves
    }

    /// Post-solve allocation per directed channel (bytes/ns).
    pub fn channel_allocation(&self) -> &[f64] {
        &self.alloc
    }

    /// Deepest sharing (live flows on one directed channel) over the
    /// given link set — the hybrid engine's escalation signal. Unlike
    /// utilisation (always 1.0 at some bottleneck whenever any flow is
    /// busy, by max-min construction) this measures how far the fluid
    /// approximation is being stretched: one or two worms per channel is
    /// the regime the model is honest in; deep sharing means wormhole
    /// HOL blocking the fluid model cannot see.
    pub fn peak_contention(&self, links: impl Iterator<Item = u32>) -> u32 {
        let mut peak = 0;
        for lid in links {
            for c in [lid as usize * 2, lid as usize * 2 + 1] {
                peak = peak.max(self.occupancy[c]);
            }
        }
        peak
    }

    /// Capacity per directed channel (bytes/ns).
    pub fn channel_capacity(&self) -> &[f64] {
        &self.cap
    }

    /// Highest post-solve utilisation (allocation/capacity) over the
    /// directed channels of the given link set, 0.0 when unloaded.
    pub fn peak_utilization(&self, links: impl Iterator<Item = u32>) -> f64 {
        let mut peak = 0.0f64;
        for lid in links {
            for c in [lid as usize * 2, lid as usize * 2 + 1] {
                let u = self.alloc[c] / self.cap[c];
                if u > peak {
                    peak = u;
                }
            }
        }
        peak
    }
}

fn get_bit(bits: &[u64], i: u32) -> bool {
    bits[(i / 64) as usize] >> (i % 64) & 1 == 1
}

fn set_bit(bits: &mut [u64], i: u32) {
    bits[(i / 64) as usize] |= 1 << (i % 64);
}

/// Solver heap entry: channel `c` saturates when the lockstep rate level
/// reaches `s`. The ordering is deliberately reversed — `BinaryHeap` is a
/// max-heap and the solver pops the *lowest* saturation level first, with
/// ties resolving to the lowest channel index. `f64::total_cmp` keeps the
/// order total and deterministic.
#[derive(Debug, Clone, Copy)]
struct ChanSat {
    s: f64,
    c: u32,
}

impl PartialEq for ChanSat {
    fn eq(&self, other: &Self) -> bool {
        self.cmp(other).is_eq()
    }
}
impl Eq for ChanSat {}
impl PartialOrd for ChanSat {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for ChanSat {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.s.total_cmp(&self.s).then(other.c.cmp(&self.c))
    }
}

/// The directed channel of `lid` whose traffic departs `from`.
fn directed_chan(topo: &Topology, lid: itb_topo::LinkId, from: Node) -> Chan {
    let link = topo.link(lid);
    let idx = narrow::<u32, _>(lid.idx());
    if link.a.node == from {
        idx * 2
    } else {
        debug_assert!(link.b.node == from, "link does not touch node");
        idx * 2 + 1
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_sim::SimRng;
    use itb_topo::builders;

    const LINK: f64 = 0.16; // 160 MB/s in bytes/ns

    fn chain_net() -> (itb_topo::Topology, FlowNet) {
        let topo = builders::chain(4, 2);
        let net = FlowNet::new(&topo, LINK);
        (topo, net)
    }

    /// Live flow `id`'s route, read from the arena.
    fn route(net: &FlowNet, id: u64) -> &[Chan] {
        &net.routes[net.get(id).unwrap().span()]
    }

    /// The from-scratch max-min solve over a plain `(id, route)` list in
    /// id order: per-channel load count, a fresh CSR, the same lazy heap
    /// and freeze order. Returns each flow's rate and the per-channel
    /// allocation — the contract a reused index must meet bit for bit.
    fn reference_solve(cap: &[f64], flows: &[(u64, Vec<Chan>)]) -> (Vec<f64>, Vec<f64>) {
        let nch = cap.len();
        let mut alloc = vec![0.0; nch];
        let mut load = vec![0u32; nch];
        for (_, r) in flows {
            for &c in r {
                load[c as usize] += 1;
            }
        }
        let mut off = vec![0usize; nch + 1];
        for c in 0..nch {
            off[c + 1] = off[c] + load[c] as usize;
        }
        let mut cursor = off[..nch].to_vec();
        let mut items = vec![0usize; off[nch]];
        for (fi, (_, r)) in flows.iter().enumerate() {
            for &c in r {
                items[cursor[c as usize]] = fi;
                cursor[c as usize] += 1;
            }
        }
        let mut heap = std::collections::BinaryHeap::new();
        for c in 0..nch {
            if load[c] > 0 {
                heap.push(ChanSat {
                    s: cap[c] / f64::from(load[c]),
                    c: narrow(c),
                });
            }
        }
        let mut rate = vec![f64::NAN; flows.len()];
        let mut frozen = vec![false; flows.len()];
        let mut lambda = 0.0f64;
        let mut active = flows.len();
        while active > 0 {
            let Some(top) = heap.pop() else { break };
            let c = top.c as usize;
            if load[c] == 0 {
                continue;
            }
            let s_now = (cap[c] - alloc[c]).max(0.0) / f64::from(load[c]);
            if s_now.total_cmp(&top.s).is_gt() {
                heap.push(ChanSat { s: s_now, c: top.c });
                continue;
            }
            lambda = lambda.max(s_now);
            for &fi in &items[off[c]..off[c + 1]] {
                if frozen[fi] {
                    continue;
                }
                frozen[fi] = true;
                rate[fi] = lambda;
                active -= 1;
                for &c2 in &flows[fi].1 {
                    alloc[c2 as usize] += lambda;
                    load[c2 as usize] -= 1;
                }
            }
        }
        (rate, alloc)
    }

    #[test]
    fn routes_are_shortest_and_deterministic() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        let a = hosts[0]; // switch 0
        let b = *hosts.last().unwrap(); // switch 3
        net.open(1, a, b, 1);
        net.open(2, a, b, 1);
        net.open(3, hosts[0], hosts[1], 1);
        // 2 host links + 3 inter-switch hops, uplink first.
        let r1 = route(&net, 1).to_vec();
        assert_eq!(r1.len(), 5);
        assert_eq!(r1[0], net.host_up[a.idx()]);
        assert_eq!(r1[4], net.host_down[b.idx()]);
        assert_eq!(route(&net, 2), r1.as_slice());
        let sw = net.switches_of(a, b);
        assert_eq!(sw, vec![SwitchId(0), SwitchId(1), SwitchId(2), SwitchId(3)]);
        // Same-switch flows cross only the two host links.
        assert_eq!(route(&net, 3).len(), 2);
    }

    #[test]
    fn single_flow_gets_the_full_link() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        net.open(1, hosts[0], hosts[6], 1600);
        net.solve();
        let f = net.get(1).unwrap();
        // Full link rate, exactly: 0.16 bytes/ns = 6250 ps/byte.
        assert_eq!(f.interval.ps_per_byte(), 6_250);
        // 1600 bytes at 6250 ps/byte = 10 us exactly.
        let done = net.advance(SimDuration::from_us(20));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 1);
        assert_eq!(done[0].offset, SimDuration::from_us(10));
        assert!(net.is_empty());
        assert_eq!(net.bytes_delivered(), 1600);
    }

    #[test]
    fn shared_bottleneck_splits_fairly() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        // Two flows from different sources into the SAME destination
        // host: its downlink is the bottleneck, each side gets half.
        net.open(1, hosts[0], hosts[6], 8_000);
        net.open(2, hosts[2], hosts[6], 8_000);
        net.solve();
        let i1 = net.get(1).unwrap().interval;
        let i2 = net.get(2).unwrap().interval;
        assert_eq!(i1, i2, "equal demand, equal share");
        assert_eq!(i1.ps_per_byte(), 12_500, "half of 6250 ps/byte rate");
    }

    #[test]
    fn max_min_gives_unbottlenecked_flows_the_rest() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        // Flows 1+2 share a destination downlink (½ link each); flow 3
        // runs the chain the *other way* — reverse-direction channels are
        // disjoint from forward ones, so it must get the full link rate —
        // the defining property separating max-min from proportional.
        net.open(1, hosts[0], hosts[6], 8_000);
        net.open(2, hosts[2], hosts[6], 8_000);
        net.open(3, hosts[4], hosts[1], 8_000);
        net.solve();
        assert_eq!(net.get(1).unwrap().interval.ps_per_byte(), 12_500);
        assert_eq!(net.get(2).unwrap().interval.ps_per_byte(), 12_500);
        assert_eq!(net.get(3).unwrap().interval.ps_per_byte(), 6_250);
        // Utilisation on the shared destination link is 1.0.
        let dst_link = topo.host_link(hosts[6]);
        let peak = net.peak_utilization(std::iter::once(narrow(dst_link.idx())));
        assert!((peak - 1.0).abs() < 1e-9, "{peak}");
    }

    #[test]
    fn advance_rounds_serve_and_complete_in_id_order() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        net.open(1, hosts[0], hosts[6], 800);
        net.open(2, hosts[2], hosts[6], 400);
        net.solve();
        // ½ link rate each (12.5 ns/byte): in a 6 us round flow 2 (400 B,
        // 5 us) completes, flow 1 (800 B, 10 us) survives with 480 served.
        let done = net.advance(SimDuration::from_us(6));
        assert_eq!(done.len(), 1);
        assert_eq!(done[0].id, 2);
        assert_eq!(done[0].offset, SimDuration::from_us(5));
        assert_eq!(net.get(1).unwrap().remaining, 800 - 480);
        // Freed capacity only helps after a re-solve (round boundary).
        net.solve();
        assert_eq!(net.get(1).unwrap().interval.ps_per_byte(), 6_250);
    }

    #[test]
    fn escalation_close_returns_remaining_bytes() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        net.open(7, hosts[0], hosts[6], 2_000);
        net.solve();
        net.advance(SimDuration::from_us(5)); // 800 bytes at full rate
        let f = net.close(7).expect("flow is live");
        assert_eq!(f.remaining, 1_200);
        assert!(net.is_empty());
    }

    #[test]
    fn contention_tracks_live_flows_per_channel() {
        let (topo, mut net) = chain_net();
        let hosts: Vec<HostId> = topo.host_ids().collect();
        let dst_link = narrow::<u32, _>(topo.host_link(hosts[6]).idx());
        assert_eq!(net.peak_contention(std::iter::once(dst_link)), 0);
        // Three flows converge on one destination downlink.
        net.open(1, hosts[0], hosts[6], 800);
        net.open(2, hosts[2], hosts[6], 400);
        net.open(3, hosts[4], hosts[6], 400);
        assert_eq!(net.peak_contention(std::iter::once(dst_link)), 3);
        net.solve();
        // Completions release their channels; an early close does too.
        let done = net.advance(SimDuration::from_ms(1));
        assert_eq!(done.len(), 3);
        assert_eq!(net.peak_contention(std::iter::once(dst_link)), 0);
        net.open(4, hosts[0], hosts[6], 800);
        net.close(4).expect("flow is live");
        assert_eq!(net.peak_contention(std::iter::once(dst_link)), 0);
    }

    #[test]
    fn solver_is_deterministic_across_runs() {
        let run = || {
            let topo = builders::irregular_big(12, 7);
            let mut net = FlowNet::new(&topo, LINK);
            let hosts: Vec<HostId> = topo.host_ids().collect();
            for i in 0..40u64 {
                let s = hosts[(i as usize * 7) % hosts.len()];
                let d = hosts[(i as usize * 13 + 5) % hosts.len()];
                if s != d {
                    net.open(i, s, d, 4_096);
                }
            }
            net.solve();
            net.ids()
                .map(|id| net.get(id).unwrap().interval.ps_per_byte())
                .collect::<Vec<u64>>()
        };
        assert_eq!(run(), run());
    }

    /// Seeded open/close/solve/advance sequences: every solve — after
    /// arrivals (fresh index), departure-only rounds (reused index with
    /// tombstones) and a mass close past the tombstone-rebuild threshold —
    /// must give every flow the reference solver's rate and every
    /// channel the reference allocation, bit for bit. The reference runs
    /// over routes recorded at open time, so arena compaction is checked
    /// too.
    #[test]
    fn reused_index_solves_bit_identically_to_the_reference() {
        let topo = builders::irregular_big(16, 3);
        let hosts: Vec<HostId> = topo.host_ids().collect();
        let (mut fresh, mut reused, mut shrunk) = (0, 0, 0);
        for seed in 1..=4u64 {
            let mut rng = SimRng::new(seed);
            let mut net = FlowNet::new(&topo, LINK);
            let mut live: std::collections::BTreeMap<u64, Vec<Chan>> = Default::default();
            let mut next_id = 0u64;
            for round in 0..60 {
                // Arrivals in about half the rounds; none at all late on,
                // so the tail is departure-only.
                if round < 45 && rng.below(2) == 0 {
                    for _ in 0..rng.below(40) {
                        let s = hosts[rng.below(hosts.len() as u64) as usize];
                        let d = hosts[rng.below(hosts.len() as u64) as usize];
                        if s != d {
                            net.open(next_id, s, d, 200 + rng.below(20_000));
                            live.insert(next_id, route(&net, next_id).to_vec());
                        }
                        next_id += 1;
                    }
                }
                // Early closes (escalation hand-back), and once per run a
                // mass close that leaves tombstones outnumbering the live.
                let ids: Vec<u64> = live.keys().copied().collect();
                for id in ids {
                    if (round == 30 && rng.below(4) != 0) || rng.below(20) == 0 {
                        net.close(id).unwrap();
                        live.remove(&id);
                    }
                }
                if net.index.stale {
                    fresh += 1;
                } else if net.index.buried > net.len() {
                    shrunk += 1;
                } else if net.index.buried > 0 {
                    reused += 1;
                }

                net.solve();
                let flows: Vec<(u64, Vec<Chan>)> = live.clone().into_iter().collect();
                let (rate, alloc) = reference_solve(net.channel_capacity(), &flows);
                assert!(net.ids().eq(live.keys().copied()));
                for ((id, r), rate) in flows.iter().zip(&rate) {
                    assert_eq!(route(&net, *id), r.as_slice());
                    assert_eq!(
                        net.get(*id).unwrap().interval.ps_per_byte(),
                        ByteInterval::from_rate(*rate).ps_per_byte(),
                        "seed {seed} round {round} flow {id}"
                    );
                }
                let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<u64>>();
                assert_eq!(
                    bits(net.channel_allocation()),
                    bits(&alloc),
                    "seed {seed} round {round}"
                );
                for done in net.advance(SimDuration::from_us(20)) {
                    live.remove(&done.id);
                }
            }
        }
        assert!(
            fresh > 0 && reused > 0 && shrunk > 0,
            "{fresh} {reused} {shrunk}"
        );
    }
}
