//! Reference per-pair searches for the route planner. Each runs a fresh
//! search for one host pair and stops at the destination switch. The tests
//! assert that route tables, which read every route out of one search tree
//! per source switch, equal tables built pair by pair from these, route for
//! route.

use itb_routing::metrics::route_links;
use itb_routing::path::{Hop, Segment, SourceRoute};
use itb_routing::planner::{ItbHostSelection, ItbPlanner};
use itb_routing::table::{RouteTable, RoutingPolicy};
use itb_routing::updown::{min_crossings, shortest_any};
use itb_topo::builders::{
    cable, chain, clos, fig6_testbed, random_irregular, ring, torus2d, IrregularSpec,
};
use itb_topo::updown::Direction;
use itb_topo::{HostId, PortKind, SwitchId, Topology, UpDown};
use std::cmp::Reverse;
use std::collections::{BinaryHeap, VecDeque};

/// Direction state of a search: three states per switch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum DirState {
    Start,
    Up,
    Down,
}

impl DirState {
    fn step_allowed(self, next: Direction) -> bool {
        !matches!((self, next), (DirState::Down, Direction::Up))
    }
    fn after(next: Direction) -> DirState {
        match next {
            Direction::Up => DirState::Up,
            Direction::Down => DirState::Down,
        }
    }
    fn state(self, s: SwitchId) -> usize {
        s.idx() * 3
            + match self {
                DirState::Start => 0,
                DirState::Up => 1,
                DirState::Down => 2,
            }
    }
    fn of_state(state: usize) -> (SwitchId, DirState) {
        let d = [DirState::Start, DirState::Up, DirState::Down][state % 3];
        (SwitchId(u16::try_from(state / 3).unwrap()), d)
    }
}

/// Per-pair ITB planner: a (links, ITBs)-lexicographic Dijkstra that stops
/// at the first settled state of the destination switch.
struct PairPlanner {
    selection: ItbHostSelection,
    rr_cursor: Vec<usize>,
}

impl PairPlanner {
    fn route(&mut self, topo: &Topology, ud: &UpDown, src: HostId, dst: HostId) -> SourceRoute {
        self.rr_cursor.resize(topo.num_switches(), 0);
        let (src_sw, _) = topo.host_attachment(src);
        let (dst_sw, dst_port) = topo.host_attachment(dst);
        const INF: (u32, u32) = (u32::MAX, u32::MAX);
        let mut best = vec![INF; topo.num_switches() * 3];
        let mut prev: Vec<Option<(usize, Hop, bool)>> = vec![None; topo.num_switches() * 3];
        let mut heap = BinaryHeap::new();
        let mut seq = 0u64;
        let start = DirState::Start.state(src_sw);
        best[start] = (0, 0);
        heap.push(Reverse(((0, 0), seq, start)));
        let mut goal = None;
        while let Some(Reverse((cost, _, state))) = heap.pop() {
            let (s, d) = DirState::of_state(state);
            if cost > best[state] {
                continue;
            }
            if s == dst_sw {
                goal = Some(state);
                break;
            }
            for (port, link, nbr) in topo.switch_neighbors(s) {
                let dir = ud.direction_from(topo, link, s, port);
                let needs_itb = !d.step_allowed(dir);
                if needs_itb && topo.hosts_at(s).is_empty() {
                    continue;
                }
                let ncost = (cost.0 + 1, cost.1 + u32::from(needs_itb));
                let nstate = DirState::after(dir).state(nbr);
                if ncost < best[nstate] {
                    best[nstate] = ncost;
                    prev[nstate] = Some((
                        state,
                        Hop {
                            switch: s,
                            out_port: port,
                        },
                        needs_itb,
                    ));
                    seq += 1;
                    heap.push(Reverse((ncost, seq, nstate)));
                }
            }
        }
        let mut rev = Vec::new();
        let mut cur = goal.expect("connected topology");
        while let Some((p, hop, itb)) = prev[cur] {
            rev.push((hop, itb));
            cur = p;
        }
        rev.reverse();
        let mut segments = Vec::new();
        let mut cur_from = src;
        let mut cur_hops = Vec::new();
        for (hop, itb_here) in rev {
            if itb_here {
                let hosts = topo.hosts_at(hop.switch);
                let host = match self.selection {
                    ItbHostSelection::First => hosts[0],
                    ItbHostSelection::RoundRobin => {
                        let cur = &mut self.rr_cursor[hop.switch.idx()];
                        let h = hosts[*cur % hosts.len()];
                        *cur = (*cur + 1) % hosts.len();
                        h
                    }
                };
                cur_hops.push(Hop {
                    switch: hop.switch,
                    out_port: topo.host_attachment(host).1,
                });
                segments.push(Segment {
                    from: cur_from,
                    to: host,
                    hops: std::mem::take(&mut cur_hops),
                });
                cur_from = host;
            }
            cur_hops.push(hop);
        }
        cur_hops.push(Hop {
            switch: dst_sw,
            out_port: dst_port,
        });
        segments.push(Segment {
            from: cur_from,
            to: dst,
            hops: cur_hops,
        });
        SourceRoute { src, dst, segments }
    }
}

/// Per-pair BFS from `src` to `dst` that stops at the first popped state
/// of the destination switch; `ud` forbids down→up transitions.
fn pair_bfs(topo: &Topology, ud: Option<&UpDown>, src: HostId, dst: HostId) -> SourceRoute {
    let (src_sw, _) = topo.host_attachment(src);
    let (dst_sw, dst_port) = topo.host_attachment(dst);
    let mut prev: Vec<Option<(usize, Hop)>> = vec![None; topo.num_switches() * 3];
    let mut visited = vec![false; topo.num_switches() * 3];
    visited[DirState::Start.state(src_sw)] = true;
    let mut queue = VecDeque::from([(src_sw, DirState::Start)]);
    while let Some((s, d)) = queue.pop_front() {
        if s == dst_sw {
            let mut hops = vec![Hop {
                switch: s,
                out_port: dst_port,
            }];
            let mut cur = d.state(s);
            while let Some((p, hop)) = prev[cur] {
                hops.push(hop);
                cur = p;
            }
            hops.reverse();
            return SourceRoute::direct(src, dst, hops);
        }
        for (port, link, nbr) in topo.switch_neighbors(s) {
            let next_d = match ud {
                Some(ud) => {
                    let dir = ud.direction_from(topo, link, s, port);
                    if !d.step_allowed(dir) {
                        continue;
                    }
                    DirState::after(dir)
                }
                None => DirState::Start,
            };
            let ni = next_d.state(nbr);
            if !visited[ni] {
                visited[ni] = true;
                prev[ni] = Some((
                    d.state(s),
                    Hop {
                        switch: s,
                        out_port: port,
                    },
                ));
                queue.push_back((nbr, next_d));
            }
        }
    }
    panic!("no path from {src} to {dst}");
}

/// A ring of `n` switches where only every third switch has a host, so
/// some forbidden turns fall on switches that cannot eject and the planner
/// must fall back to longer paths.
fn sparse_ring(n: usize) -> Topology {
    let mut t = Topology::new();
    let switches: Vec<SwitchId> = (0..n).map(|_| t.add_switch_uniform(3)).collect();
    for i in 0..n {
        t.connect_switches(switches[i], 1, switches[(i + 1) % n], 0, cable::SAN)
            .unwrap();
    }
    for &s in switches.iter().step_by(3) {
        let h = t.add_host(PortKind::San);
        t.connect_host(h, s, 2, cable::SAN).unwrap();
    }
    t.validate().unwrap();
    t
}

/// Every topology the oracle test covers, with a label for failures.
fn fabrics() -> Vec<(String, Topology)> {
    let mut out = vec![
        ("fig6".to_string(), fig6_testbed().topo),
        ("ring8x1".to_string(), ring(8, 1)),
        ("ring8x2".to_string(), ring(8, 2)),
        ("ring7x3".to_string(), ring(7, 3)),
        ("chain5x1".to_string(), chain(5, 1)),
        ("chain4x2".to_string(), chain(4, 2)),
        ("sparse_ring9".to_string(), sparse_ring(9)),
        ("sparse_ring12".to_string(), sparse_ring(12)),
        ("torus3x4".to_string(), torus2d(3, 4, 1)),
        ("clos4x2".to_string(), clos(4, 2, 2)),
    ];
    for switches in [8usize, 12, 16, 24, 32] {
        for seed in [1, 7, 23] {
            let spec = IrregularSpec {
                switches,
                ports_per_switch: 8,
                hosts_per_switch: if switches > 16 { 2 } else { 4 },
                seed,
            };
            out.push((
                format!("irregular{switches}/seed{seed}"),
                random_irregular(&spec),
            ));
        }
    }
    out
}

/// The table the per-pair searches produce, in the same source-major pair
/// order `RouteTable` uses.
fn oracle_route(
    topo: &Topology,
    ud: &UpDown,
    policy: RoutingPolicy,
    planner: &mut PairPlanner,
    src: HostId,
    dst: HostId,
) -> SourceRoute {
    match policy {
        RoutingPolicy::UpDown => pair_bfs(topo, Some(ud), src, dst),
        RoutingPolicy::Itb => planner.route(topo, ud, src, dst),
    }
}

#[test]
fn tables_match_per_pair_searches() {
    // The fixtures must reach the two cases a tree could get wrong: a
    // fallback to a longer path, and round-robin picking other hosts.
    let (mut fallback, mut rotated) = (false, false);
    for (name, topo) in fabrics() {
        let ud = UpDown::compute_default(&topo);
        let mut itb_tables = Vec::new();
        for (policy, selection) in [
            (RoutingPolicy::UpDown, ItbHostSelection::First),
            (RoutingPolicy::Itb, ItbHostSelection::First),
            (RoutingPolicy::Itb, ItbHostSelection::RoundRobin),
        ] {
            let table = RouteTable::compute_with_selection(&topo, &ud, policy, selection).unwrap();
            let mut planner = PairPlanner {
                selection,
                rr_cursor: Vec::new(),
            };
            for src in topo.host_ids() {
                for dst in topo.host_ids() {
                    if src == dst {
                        assert!(table.route(src, dst).is_none());
                        continue;
                    }
                    let want = oracle_route(&topo, &ud, policy, &mut planner, src, dst);
                    assert_eq!(
                        table.route(src, dst),
                        Some(&want),
                        "{name} {policy:?}/{selection:?}: route {src}->{dst} differs"
                    );
                    fallback |= policy == RoutingPolicy::Itb
                        && route_links(&want) + 1 > min_crossings(&topo, src, dst).unwrap();
                }
            }
            if policy == RoutingPolicy::Itb {
                itb_tables.push(table);
            }
        }
        rotated |= itb_tables[0].iter().ne(itb_tables[1].iter());
    }
    assert!(fallback, "no fixture forces a non-minimal ITB route");
    assert!(rotated, "no fixture makes round-robin differ from first");
}

#[test]
fn single_pair_wrappers_match_per_pair_searches() {
    for (name, topo) in fabrics().into_iter().take(12) {
        let ud = UpDown::compute_default(&topo);
        let mut planner = ItbPlanner::new(ItbHostSelection::RoundRobin);
        let mut oracle = PairPlanner {
            selection: ItbHostSelection::RoundRobin,
            rr_cursor: Vec::new(),
        };
        for src in topo.host_ids() {
            for dst in topo.host_ids().filter(|&d| d != src) {
                let minimal = pair_bfs(&topo, None, src, dst);
                assert_eq!(
                    shortest_any(&topo, src, dst).as_ref(),
                    Some(&minimal),
                    "{name}"
                );
                assert_eq!(
                    min_crossings(&topo, src, dst),
                    Some(minimal.total_crossings()),
                    "{name}"
                );
                assert_eq!(
                    planner.route(&topo, &ud, src, dst).unwrap(),
                    oracle.route(&topo, &ud, src, dst),
                    "{name}: {src}->{dst}"
                );
            }
        }
    }
}
