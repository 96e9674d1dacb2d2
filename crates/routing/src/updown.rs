//! Shortest-path computation: plain minimal and up\*/down\*-legal.
//!
//! A route search depends only on the source *switch*, so every search here
//! runs once per source switch and records a [`SearchTree`]; the route to
//! each destination is then read back from the tree in O(path). A full
//! route table costs one search per source switch plus O(path) per host
//! pair.

use crate::path::{Hop, SourceRoute};
use itb_sim::narrow;
use itb_topo::updown::Direction;
use itb_topo::{HostId, SwitchId, Topology, UpDown};
use std::collections::VecDeque;

/// Direction state carried along a path search.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub(crate) enum DirState {
    /// No inter-switch link traversed yet (just left the source host).
    Start,
    /// Last traversal was toward an up end.
    Up,
    /// Last traversal was away from an up end.
    Down,
}

impl DirState {
    pub(crate) fn step_allowed(self, next: Direction) -> bool {
        !matches!((self, next), (DirState::Down, Direction::Up))
    }
    pub(crate) fn after(next: Direction) -> DirState {
        match next {
            Direction::Up => DirState::Up,
            Direction::Down => DirState::Down,
        }
    }
    /// Index of the search state `(s, self)`: three states per switch.
    pub(crate) fn state(self, s: SwitchId) -> usize {
        s.idx() * 3
            + match self {
                DirState::Start => 0,
                DirState::Up => 1,
                DirState::Down => 2,
            }
    }
    /// Inverse of [`DirState::state`].
    pub(crate) fn of_state(state: usize) -> (SwitchId, DirState) {
        let d = match state % 3 {
            0 => DirState::Start,
            1 => DirState::Up,
            _ => DirState::Down,
        };
        (SwitchId(narrow(state / 3)), d)
    }
}

/// The result of one search from a source switch over `(switch,
/// direction)` states: the predecessor tree every route from that switch
/// is read back from.
///
/// For each switch the tree keeps the first of its states to settle. That
/// is exactly where a search toward that switch alone would stop, because
/// the settle order does not depend on when the search exits — so a route
/// read back from the tree equals the one a per-pair search finds.
#[derive(Debug, Clone)]
pub struct SearchTree {
    src_sw: SwitchId,
    /// `prev[state]`: predecessor state, the hop taken from it, and whether
    /// an in-transit buffer ejects the packet just before that hop.
    pub(crate) prev: Vec<Option<(usize, Hop, bool)>>,
    /// Per switch: its first settled state and that state's link count.
    goal: Vec<Option<(usize, usize)>>,
}

impl SearchTree {
    pub(crate) fn new(topo: &Topology, src_sw: SwitchId) -> Self {
        let n = topo.num_switches();
        SearchTree {
            src_sw,
            prev: vec![None; n * 3],
            goal: vec![None; n],
        }
    }

    /// The tree in `slot` if it was searched from `src_sw`, else the result
    /// of `search` stored there. Callers walking hosts in order keep one
    /// tree live and search again only when the source switch changes.
    pub(crate) fn reuse(
        slot: &mut Option<SearchTree>,
        src_sw: SwitchId,
        search: impl FnOnce() -> SearchTree,
    ) -> &SearchTree {
        let tree = match slot.take() {
            Some(t) if t.src_sw == src_sw => t,
            _ => search(),
        };
        slot.insert(tree)
    }

    /// Record that `state`, reached over `links` inter-switch links, has
    /// settled. Only the first settled state of each switch is kept.
    pub(crate) fn settle(&mut self, state: usize, links: usize) {
        self.goal[state / 3].get_or_insert((state, links));
    }

    /// The switch this tree was searched from.
    pub(crate) fn source_switch(&self) -> SwitchId {
        self.src_sw
    }

    /// Inter-switch links on the tree path to `sw` (`None` if unreached).
    pub(crate) fn links_to(&self, sw: SwitchId) -> Option<usize> {
        self.goal[sw.idx()].map(|(_, links)| links)
    }

    /// The tree path to `sw` as `(hop, itb_before_hop)` steps, last hop
    /// first; `None` if `sw` was never reached.
    pub(crate) fn steps_back(
        &self,
        sw: SwitchId,
    ) -> Option<impl Iterator<Item = (Hop, bool)> + '_> {
        let (goal, _) = self.goal[sw.idx()]?;
        Some(
            std::iter::successors(self.prev[goal], |&(p, _, _)| self.prev[p])
                .map(|(_, hop, itb)| (hop, itb)),
        )
    }
}

/// One BFS tree of up\*/down\*-legal paths from `src_sw` (down→up
/// transitions forbidden).
///
/// Exploration follows ascending port order, so the routes read back are a
/// deterministic function of the wiring — mirroring the deterministic route
/// choice of the GM mapper.
pub fn updown_tree(topo: &Topology, ud: &UpDown, src_sw: SwitchId) -> SearchTree {
    bfs(topo, Some(ud), src_sw)
}

/// One BFS tree of minimal paths from `src_sw`, legality ignored.
pub(crate) fn minimal_tree(topo: &Topology, src_sw: SwitchId) -> SearchTree {
    bfs(topo, None, src_sw)
}

/// The route `src → dst` read back from a BFS tree searched from `src`'s
/// switch, or `None` when the hosts coincide or `dst` is unreachable.
pub fn direct_route(
    topo: &Topology,
    tree: &SearchTree,
    src: HostId,
    dst: HostId,
) -> Option<SourceRoute> {
    if src == dst {
        return None;
    }
    assert_eq!(
        topo.host_attachment(src).0,
        tree.src_sw,
        "route read back from another switch's tree"
    );
    let (dst_sw, dst_port) = topo.host_attachment(dst);
    let steps = tree.steps_back(dst_sw)?;
    // Exit to the host: allowed from any direction state (host links carry
    // no up/down orientation).
    let mut hops = vec![Hop {
        switch: dst_sw,
        out_port: dst_port,
    }];
    hops.extend(steps.map(|(hop, itb)| {
        debug_assert!(!itb, "BFS trees carry no in-transit buffers");
        hop
    }));
    hops.reverse();
    Some(SourceRoute::direct(src, dst, hops))
}

/// Shortest up\*/down\*-legal route between two hosts, or `None` when the
/// hosts coincide. Up\*/down\* is connected (every pair is reachable via the
/// spanning tree), so a route always exists for distinct hosts.
pub fn shortest_updown(
    topo: &Topology,
    ud: &UpDown,
    src: HostId,
    dst: HostId,
) -> Option<SourceRoute> {
    let tree = updown_tree(topo, ud, topo.host_attachment(src).0);
    direct_route(topo, &tree, src, dst)
}

/// Shortest route ignoring up\*/down\* legality (minimal routing).
pub fn shortest_any(topo: &Topology, src: HostId, dst: HostId) -> Option<SourceRoute> {
    let tree = minimal_tree(topo, topo.host_attachment(src).0);
    direct_route(topo, &tree, src, dst)
}

/// Minimal number of switch crossings between two hosts, ignoring legality.
pub fn min_crossings(topo: &Topology, src: HostId, dst: HostId) -> Option<usize> {
    if src == dst {
        return None;
    }
    let tree = minimal_tree(topo, topo.host_attachment(src).0);
    tree.links_to(topo.host_attachment(dst).0)
        .map(|links| links + 1)
}

/// BFS from `src_sw` over every reachable state; when `ud` is given,
/// forbids down→up transitions. A FIFO pops states in push order, so the
/// first popped state of each switch is also its first visited one.
fn bfs(topo: &Topology, ud: Option<&UpDown>, src_sw: SwitchId) -> SearchTree {
    let mut tree = SearchTree::new(topo, src_sw);
    let mut visited = vec![false; topo.num_switches() * 3];
    let start = DirState::Start.state(src_sw);
    visited[start] = true;
    let mut queue = VecDeque::new();
    queue.push_back((src_sw, DirState::Start, 0));

    while let Some((s, d, links)) = queue.pop_front() {
        tree.settle(d.state(s), links);
        for (port, link, nbr) in topo.switch_neighbors(s) {
            let next_d = match ud {
                Some(ud) => {
                    let dir = ud.direction_from(topo, link, s, port);
                    if !d.step_allowed(dir) {
                        continue;
                    }
                    DirState::after(dir)
                }
                None => DirState::Start, // single state when unconstrained
            };
            let ni = next_d.state(nbr);
            if !visited[ni] {
                visited[ni] = true;
                tree.prev[ni] = Some((
                    d.state(s),
                    Hop {
                        switch: s,
                        out_port: port,
                    },
                    false,
                ));
                queue.push_back((nbr, next_d, links + 1));
            }
        }
    }
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use itb_topo::builders::{chain, fig6_testbed, random_irregular, ring, IrregularSpec};
    use itb_topo::{HostId, SpanningTree};

    #[test]
    fn chain_routes_are_minimal_and_legal() {
        let t = chain(4, 1);
        let ud = UpDown::compute_default(&t);
        // Trees have no forbidden turns: UD route == minimal route.
        let r = shortest_updown(&t, &ud, HostId(0), HostId(3)).unwrap();
        assert_eq!(r.total_crossings(), 4);
        assert!(r.is_well_formed(&t));
        let m = shortest_any(&t, HostId(0), HostId(3)).unwrap();
        assert_eq!(m.total_crossings(), 4);
    }

    #[test]
    fn same_host_has_no_route() {
        let t = chain(2, 1);
        let ud = UpDown::compute_default(&t);
        assert!(shortest_updown(&t, &ud, HostId(0), HostId(0)).is_none());
        assert!(shortest_any(&t, HostId(0), HostId(0)).is_none());
    }

    #[test]
    fn same_switch_pair_is_one_crossing() {
        let t = chain(2, 2); // two hosts per switch
        let ud = UpDown::compute_default(&t);
        // hosts 0 and 1 share switch 0.
        let (s0, _) = t.host_attachment(HostId(0));
        let (s1, _) = t.host_attachment(HostId(1));
        assert_eq!(s0, s1);
        let r = shortest_updown(&t, &ud, HostId(0), HostId(1)).unwrap();
        assert_eq!(r.total_crossings(), 1);
        assert!(r.is_well_formed(&t));
    }

    #[test]
    fn ring_updown_takes_detour() {
        // In a 6-ring rooted anywhere, the two "bottom" switches opposite
        // the root cannot use their direct link for some pairs: the minimal
        // route is forbidden and up*/down* detours.
        let t = ring(6, 1);
        let tree = SpanningTree::compute(&t, SwitchId(0));
        let ud = UpDown::compute(&t, tree);
        let mut detours = 0;
        for a in 0..6u16 {
            for b in 0..6u16 {
                if a == b {
                    continue;
                }
                let udr = shortest_updown(&t, &ud, HostId(a), HostId(b)).unwrap();
                let min = shortest_any(&t, HostId(a), HostId(b)).unwrap();
                assert!(udr.is_well_formed(&t));
                assert!(udr.total_crossings() >= min.total_crossings());
                if udr.total_crossings() > min.total_crossings() {
                    detours += 1;
                }
            }
        }
        assert!(
            detours > 0,
            "a 6-ring must force some non-minimal UD routes"
        );
    }

    #[test]
    fn updown_routes_obey_rule_on_random_networks() {
        for seed in 0..5 {
            let t = random_irregular(&IrregularSpec::evaluation_default(12, seed));
            let ud = UpDown::compute_default(&t);
            let hosts: Vec<_> = t.host_ids().collect();
            for &a in hosts.iter().step_by(5) {
                for &b in hosts.iter().step_by(7) {
                    if a == b {
                        continue;
                    }
                    let r = shortest_updown(&t, &ud, a, b).expect("up*/down* is connected");
                    assert!(r.is_well_formed(&t), "{a:?}->{b:?} seed {seed}");
                    assert_updown_legal(&t, &ud, &r);
                }
            }
        }
    }

    /// Asserts every segment of `r` obeys the up*/down* rule.
    pub(crate) fn assert_updown_legal(t: &Topology, ud: &UpDown, r: &SourceRoute) {
        for seg in &r.segments {
            let mut state = DirState::Start;
            for hop in &seg.hops[..seg.hops.len() - 1] {
                let link = t.link_at(hop.switch, hop.out_port).unwrap();
                let dir = ud.direction_from(t, link, hop.switch, hop.out_port);
                assert!(
                    state.step_allowed(dir),
                    "down->up violation at {} in {r:?}",
                    hop.switch
                );
                state = DirState::after(dir);
            }
        }
    }

    #[test]
    fn fig6_direct_route() {
        let tb = fig6_testbed();
        let ud = UpDown::compute_default(&tb.topo);
        let r = shortest_updown(&tb.topo, &ud, tb.host1, tb.host2).unwrap();
        // host1 -> sw0 -> sw1 -> host2: 2 crossings.
        assert_eq!(r.total_crossings(), 2);
    }

    #[test]
    fn min_crossings_matches_shortest_any() {
        let t = ring(5, 1);
        assert_eq!(
            min_crossings(&t, HostId(0), HostId(2)),
            Some(
                shortest_any(&t, HostId(0), HostId(2))
                    .unwrap()
                    .total_crossings()
            )
        );
    }
}
