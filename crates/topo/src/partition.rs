//! Deterministic switch-graph partitioner for the hybrid flow/packet
//! engine's regions.
//!
//! The partition assigns every switch to exactly one region (a *shard*);
//! a [`RegionPlan`] then gives each region a modelling fidelity. Hosts
//! belong to the region of their attachment switch.
//!
//! The partitioner must be a pure function of `(topology, shards, seed)`:
//! which messages the flow engine carries depends on the region
//! assignment, and reproducible runs require the assignment itself to be
//! reproducible. Everything here iterates in id order or seeded-[`SimRng`]
//! order; no hash-map iteration is involved.
//!
//! Algorithm: seeded-start BFS over the switch graph produces a locality
//! preserving visit order; the order is chunked into `shards` contiguous
//! runs of roughly equal weight (weight = 1 + attached hosts, a proxy for
//! event volume); a bounded greedy refinement pass then moves boundary
//! switches to a neighbouring shard when that strictly reduces the edge
//! cut without unbalancing or emptying a shard.

use crate::{SwitchId, Topology};
use itb_sim::{narrow, SimRng};

/// A shard (region) assignment of every switch.
#[derive(Debug, Clone)]
pub struct Partition {
    /// Number of shards actually used (≤ requested; compact ids `0..shards`).
    pub shards: u32,
    /// Shard of each switch, indexed by `SwitchId::idx()`.
    pub shard_of_switch: Vec<u32>,
}

impl Partition {
    /// Shard owning switch `s`.
    #[inline]
    pub fn shard_of(&self, s: SwitchId) -> u32 {
        self.shard_of_switch[s.idx()]
    }
}

/// Event-volume proxy for one switch: itself plus its attached hosts.
fn switch_weight(topo: &Topology, s: SwitchId) -> u64 {
    1 + topo.hosts_at(s).len() as u64
}

/// Modelling fidelity of one region in the hybrid flow/packet engine.
///
/// `Packet` regions simulate every flit through the cut-through switch model
/// (full contention, ITB ejection/reinjection, CRC checks). `Flow` regions
/// replace per-packet events with a max-min fair per-flow rate allocation
/// advanced in coarse rounds — orders of magnitude fewer events, no
/// per-packet state, but no transient contention either.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RegionFidelity {
    /// Full flit-level fidelity: every packet traverses the switch model.
    Packet,
    /// Flow-level fidelity: analytic max-min rate allocation, coarse rounds.
    Flow,
}

/// A [`Partition`] with a fidelity assignment per region (shard).
///
/// The hybrid engine consults the plan when a message is submitted: if every
/// switch on its route lies in `Flow` regions (and the route crosses no ITB
/// hop), the message is carried by the flow engine; otherwise it takes the
/// packet path. Regions can only *escalate* (`Flow` → `Packet`) at runtime —
/// de-escalation would require reconstructing in-flight per-packet state from
/// aggregate rates, which cannot be done deterministically.
#[derive(Debug, Clone)]
pub struct RegionPlan {
    /// The underlying region decomposition (regions == shards).
    pub part: Partition,
    /// Fidelity of each region, indexed by shard id.
    pub fidelity: Vec<RegionFidelity>,
}

impl RegionPlan {
    /// Plan with every region at full packet fidelity. The hybrid engine is
    /// byte-identical to the classic sequential engine under this plan.
    pub fn all_packet(part: Partition) -> Self {
        let n = part.shards as usize;
        Self {
            part,
            fidelity: vec![RegionFidelity::Packet; n],
        }
    }

    /// Plan with every region at flow-level fidelity.
    pub fn all_flow(part: Partition) -> Self {
        let n = part.shards as usize;
        Self {
            part,
            fidelity: vec![RegionFidelity::Flow; n],
        }
    }

    /// Fidelity of the region owning switch `s`.
    #[inline]
    pub fn fidelity_of_switch(&self, s: SwitchId) -> RegionFidelity {
        self.fidelity[self.part.shard_of(s) as usize]
    }

    /// Escalate region `region` to packet fidelity. Returns `true` when the
    /// call changed the plan (the region was at `Flow`).
    pub fn escalate(&mut self, region: u32) -> bool {
        let slot = &mut self.fidelity[region as usize];
        if *slot == RegionFidelity::Flow {
            *slot = RegionFidelity::Packet;
            true
        } else {
            false
        }
    }

    /// True when every region is at packet fidelity (the hybrid engine can
    /// skip its flow machinery entirely).
    pub fn is_all_packet(&self) -> bool {
        self.fidelity.iter().all(|&f| f == RegionFidelity::Packet)
    }

    /// Number of regions currently at flow fidelity.
    pub fn flow_regions(&self) -> usize {
        self.fidelity
            .iter()
            .filter(|&&f| f == RegionFidelity::Flow)
            .count()
    }
}

/// Partition `topo` into at most `shards` shards, deterministically in
/// `(topo, shards, seed)`.
///
/// `shards` is clamped to `[1, num_switches]`; every produced shard owns at
/// least one switch.
///
/// # Panics
/// Panics if the topology has no switches.
pub fn partition(topo: &Topology, shards: usize, seed: u64) -> Partition {
    let n = topo.num_switches();
    assert!(n > 0, "cannot partition a topology with no switches");
    let k = shards.clamp(1, n);

    let weights: Vec<u64> = topo.switch_ids().map(|s| switch_weight(topo, s)).collect();
    let total: u64 = weights.iter().sum();

    // Seeded-start BFS visit order (locality-preserving, deterministic:
    // neighbour iteration follows port order).
    let mut rng = SimRng::new(seed ^ 0x5048_4152_5449_5431); // "PHARTIT1"
    let start: usize = narrow(rng.below(n as u64));
    let mut order = Vec::with_capacity(n);
    let mut seen = vec![false; n];
    let mut frontier = std::collections::VecDeque::new();
    frontier.push_back(start);
    seen[start] = true;
    while let Some(u) = frontier.pop_front() {
        order.push(u);
        for (_, _, v) in topo.switch_neighbors(SwitchId(narrow(u))) {
            if !seen[v.idx()] {
                seen[v.idx()] = true;
                frontier.push_back(v.idx());
            }
        }
        // Validated topologies are connected, but stay total anyway: pull in
        // the lowest unseen switch if BFS stalls.
        if frontier.is_empty() && order.len() < n {
            if let Some(u) = seen.iter().position(|&s| !s) {
                seen[u] = true;
                frontier.push_back(u);
            }
        }
    }

    // Chunk the BFS order into k contiguous runs of ~equal weight, re-aiming
    // the target from what remains before each run so late shards never
    // starve.
    let mut shard_of_switch = vec![0u32; n];
    let mut cur: u32 = 0;
    let mut acc: u64 = 0;
    let mut remaining = total;
    let mut target = remaining.div_ceil(k as u64);
    for (i, &u) in order.iter().enumerate() {
        let more_switches = n - i; // switches not yet assigned (incl. u)
        let shards_left = k as u64 - u64::from(cur);
        // Open a new shard when the current one met its target — unless
        // every remaining switch is needed to keep later shards non-empty.
        if acc >= target && u64::from(cur) + 1 < k as u64 && more_switches as u64 > shards_left - 1
        {
            cur += 1;
            acc = 0;
            target = remaining.div_ceil(k as u64 - u64::from(cur));
        }
        shard_of_switch[u] = cur;
        acc += weights[u];
        remaining -= weights[u];
    }
    let used = cur + 1;

    // Greedy boundary refinement: move a switch to a neighbouring shard when
    // that strictly cuts fewer links, stays under the balance ceiling and
    // leaves no shard empty. Two passes in switch-id order (deterministic).
    let mut shard_sizes = vec![0usize; used as usize];
    let mut shard_weights = vec![0u64; used as usize];
    for u in 0..n {
        shard_sizes[shard_of_switch[u] as usize] += 1;
        shard_weights[shard_of_switch[u] as usize] += weights[u];
    }
    // Ceiling: 25% over the ideal per-shard weight (integer arithmetic).
    let max_load = (total * 5).div_ceil(4 * u64::from(used));
    for _pass in 0..2 {
        for u in 0..n {
            let a = shard_of_switch[u];
            if shard_sizes[a as usize] <= 1 {
                continue; // would empty shard `a`
            }
            // Count links from `u` into each adjacent shard (self-loops are
            // never cut; skip them).
            let mut ties: Vec<(u32, usize)> = Vec::new();
            let mut to_a = 0usize;
            for (_, _, v) in topo.switch_neighbors(SwitchId(narrow(u))) {
                if v.idx() == u {
                    continue;
                }
                let b = shard_of_switch[v.idx()];
                if b == a {
                    to_a += 1;
                } else if let Some(t) = ties.iter_mut().find(|t| t.0 == b) {
                    t.1 += 1;
                } else {
                    ties.push((b, 1));
                }
            }
            // Best candidate: most links, lowest shard id on ties (the push
            // order above already visits lower ports first, but sort anyway
            // for an explicit deterministic rule).
            ties.sort_by_key(|&(b, cnt)| (std::cmp::Reverse(cnt), b));
            if let Some(&(b, cnt)) = ties.first() {
                if cnt > to_a && shard_weights[b as usize] + weights[u] <= max_load {
                    shard_of_switch[u] = b;
                    shard_sizes[a as usize] -= 1;
                    shard_sizes[b as usize] += 1;
                    shard_weights[a as usize] -= weights[u];
                    shard_weights[b as usize] += weights[u];
                }
            }
        }
    }

    Partition {
        shards: used,
        shard_of_switch,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builders;

    /// Switch-to-switch links whose endpoints land in different shards.
    fn edge_cut(topo: &Topology, p: &Partition) -> usize {
        topo.link_ids()
            .filter(|&lid| {
                let link = topo.link(lid);
                match (link.a.node.as_switch(), link.b.node.as_switch()) {
                    (Some(a), Some(b)) => p.shard_of(a) != p.shard_of(b),
                    _ => false,
                }
            })
            .count()
    }

    #[test]
    fn single_shard_has_no_cut() {
        let topo = builders::chain(8, 2);
        let p = partition(&topo, 1, 42);
        assert_eq!(p.shards, 1);
        assert_eq!(edge_cut(&topo, &p), 0);
        assert!(p.shard_of_switch.iter().all(|&s| s == 0));
    }

    #[test]
    fn chain_two_shards_cuts_one_link() {
        let topo = builders::chain(8, 1);
        let p = partition(&topo, 2, 7);
        assert_eq!(p.shards, 2);
        assert_eq!(
            edge_cut(&topo, &p),
            1,
            "a chain split in two cuts exactly one cable"
        );
    }

    #[test]
    fn every_switch_assigned_within_bounds() {
        let spec = builders::IrregularSpec::evaluation_default(16, 99);
        let topo = builders::random_irregular(&spec);
        let p = partition(&topo, 4, 3);
        assert!(p.shards <= 4 && p.shards >= 1);
        assert_eq!(p.shard_of_switch.len(), topo.num_switches());
        assert!(p.shard_of_switch.iter().all(|&s| s < p.shards));
        // Every shard owns at least one switch.
        let mut seen = vec![false; p.shards as usize];
        for &s in &p.shard_of_switch {
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&b| b));
    }

    #[test]
    fn deterministic_per_seed_and_sensitive_to_seed_or_shards() {
        let spec = builders::IrregularSpec::evaluation_default(32, 5);
        let topo = builders::random_irregular(&spec);
        let a = partition(&topo, 4, 11);
        let b = partition(&topo, 4, 11);
        assert_eq!(a.shard_of_switch, b.shard_of_switch);
        let c = partition(&topo, 2, 11);
        assert!(c.shards <= 2);
    }

    #[test]
    fn shards_clamped_to_switch_count() {
        let topo = builders::chain(3, 1);
        let p = partition(&topo, 16, 0);
        assert!(p.shards <= 3);
        let mut seen = vec![false; p.shards as usize];
        for &s in &p.shard_of_switch {
            seen[s as usize] = true;
        }
        assert!(seen.iter().all(|&b| b), "compact shard ids, none empty");
    }

    #[test]
    fn region_plan_escalation_is_one_way() {
        let spec = builders::IrregularSpec::evaluation_default(16, 4);
        let topo = builders::random_irregular(&spec);
        let mut plan = RegionPlan::all_flow(partition(&topo, 4, 9));
        assert!(!plan.is_all_packet());
        assert_eq!(plan.flow_regions(), plan.part.shards as usize);
        for s in topo.switch_ids() {
            assert_eq!(plan.fidelity_of_switch(s), RegionFidelity::Flow);
        }
        assert!(plan.escalate(0), "first escalation flips the region");
        assert!(!plan.escalate(0), "already at packet: no change");
        for s in topo.switch_ids() {
            let expect = if plan.part.shard_of(s) == 0 {
                RegionFidelity::Packet
            } else {
                RegionFidelity::Flow
            };
            assert_eq!(plan.fidelity_of_switch(s), expect);
        }
        for r in 1..plan.part.shards {
            plan.escalate(r);
        }
        assert!(plan.is_all_packet());
        assert_eq!(plan.flow_regions(), 0);

        let all_pkt = RegionPlan::all_packet(partition(&topo, 4, 9));
        assert!(all_pkt.is_all_packet());
    }

    #[test]
    fn weights_roughly_balanced() {
        let spec = builders::IrregularSpec::evaluation_default(64, 2);
        let topo = builders::random_irregular(&spec);
        let p = partition(&topo, 4, 9);
        let mut w = vec![0u64; p.shards as usize];
        for s in topo.switch_ids() {
            w[p.shard_of(s) as usize] += switch_weight(&topo, s);
        }
        let total: u64 = w.iter().sum();
        let ceiling = (total * 5).div_ceil(4 * u64::from(p.shards)) + 5;
        for &x in &w {
            assert!(
                x <= ceiling,
                "shard weight {x} over ceiling {ceiling}: {w:?}"
            );
        }
    }
}
