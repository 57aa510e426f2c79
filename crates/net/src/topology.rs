//! Nodes, links and longest-prefix routing.

use crate::fault::BurstLoss;
use crate::link::{Direction, LinkConfig};
use std::net::Ipv4Addr;

/// Identifies a node in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifies a link in the topology.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct LinkId(pub usize);

/// A route entry `net/prefix_len → link`, chained to the route its node
/// was given before it. 16 bytes: four to a cache line, never across two.
#[derive(Clone, Copy)]
struct Route {
    net: u32,
    link: u32,
    /// Index in [`Topology::older`] of the node's next-older route.
    older: u32,
    /// 0–32, or [`NO_ROUTE`].
    prefix_len: u8,
}

/// End of a route chain.
const NONE: u32 = u32::MAX;
/// `prefix_len` of the cell of a node that has no route.
const NO_ROUTE: u8 = u8::MAX;

impl Route {
    const EMPTY: Route = Route {
        net: 0,
        link: 0,
        older: NONE,
        prefix_len: NO_ROUTE,
    };

    fn matches(&self, ip: u32) -> bool {
        // In 64 bits a /0 shifts everything out, as it must.
        self.prefix_len <= 32 && u64::from(ip ^ self.net) >> (32 - self.prefix_len) == 0
    }
}

#[derive(Clone)]
pub(crate) struct Link {
    pub(crate) a: NodeId,
    pub(crate) b: NodeId,
    /// Direction a→b.
    pub(crate) ab: Direction,
    /// Direction b→a.
    pub(crate) ba: Direction,
}

// A mega world holds one `Link` per UE: its configurations stay in the
// topology's table (DESIGN §5, *Million-UE worlds*).
const _: () = assert!(std::mem::size_of::<Link>() <= 160);

/// The static network topology: nodes, configured links, and per-node
/// longest-prefix route tables.
///
/// All routes live in one storage. `routes[node]` is the node's newest
/// route, inline, so a leaf with its one default route is looked up in
/// the single cache line that cell sits in and owns no allocation; each
/// older route sits in `older`, chained newest-first from that cell.
///
/// Link configurations are interned: `configs` holds each distinct
/// [`LinkConfig`] once, and a direction stores its index.
#[derive(Clone, Default)]
pub struct Topology {
    routes: Vec<Route>,
    older: Vec<Route>,
    pub(crate) links: Vec<Link>,
    /// Distinct link configurations; never edited in place.
    pub(crate) configs: Vec<LinkConfig>,
}

impl Topology {
    /// An empty topology.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a node. The name documents the call site only; the topology
    /// does not keep it.
    pub fn add_node(&mut self, _name: &str) -> NodeId {
        self.routes.push(Route::EMPTY);
        NodeId(self.routes.len() - 1)
    }

    /// Add a node; like [`Topology::add_node`], the bTelco/region label
    /// is not kept.
    pub fn add_node_in_region(&mut self, name: &str, _region: u32) -> NodeId {
        self.add_node(name)
    }

    /// Add a bidirectional link between `a` and `b` with per-direction
    /// configurations (`ab` applies to packets flowing a→b).
    pub fn add_link(&mut self, a: NodeId, b: NodeId, ab: LinkConfig, ba: LinkConfig) -> LinkId {
        let (ab, ba) = (self.intern(ab), self.intern(ba));
        self.push_link(a, b, ab, ba)
    }

    /// Symmetric convenience: the same config in both directions.
    pub fn add_symmetric_link(&mut self, a: NodeId, b: NodeId, cfg: LinkConfig) -> LinkId {
        let cfg = self.intern(cfg);
        self.push_link(a, b, cfg, cfg)
    }

    fn push_link(&mut self, a: NodeId, b: NodeId, ab: u32, ba: u32) -> LinkId {
        assert!(a != b, "self-links are not supported");
        // A direction id `(link << 1) | d` must leave the world's
        // shared-FIFO tag bit clear.
        assert!(self.links.len() < 1 << 30, "link count overflow");
        self.links.push(Link {
            a,
            b,
            ab: Direction::new(ab, &self.configs[ab as usize]),
            ba: Direction::new(ba, &self.configs[ba as usize]),
        });
        LinkId(self.links.len() - 1)
    }

    /// The index of `cfg` in the config table, added if no equal entry
    /// is there. Linear in the distinct configs, newest first: a world
    /// has a handful, and adds its links config by config.
    fn intern(&mut self, cfg: LinkConfig) -> u32 {
        let at = match self.configs.iter().rposition(|c| *c == cfg) {
            Some(at) => at,
            None => {
                self.configs.push(cfg);
                self.configs.len() - 1
            }
        };
        u32::try_from(at).expect("config count fits u32")
    }

    /// Install (`Some`) or remove (`None`) a burst-loss model on both
    /// directions of `link`; the chains restart good. Copy-on-write: a
    /// direction moves to the entry equal to its config with `model`
    /// swapped in, so the entries other directions share never change
    /// and the table holds no duplicates.
    pub(crate) fn set_burst_loss(&mut self, link: LinkId, model: Option<BurstLoss>) {
        let (ab, ba) = (self.links[link.0].ab.config, self.links[link.0].ba.config);
        let [ab, ba] = [ab, ba].map(|c| {
            let cfg = &self.configs[c as usize];
            if cfg.burst == model {
                c
            } else {
                self.intern(LinkConfig {
                    burst: model,
                    ..cfg.clone()
                })
            }
        });
        let l = &mut self.links[link.0];
        l.ab.set_burst_config(ab);
        l.ba.set_burst_config(ba);
    }

    /// Install a route at `node`: traffic to `net/prefix_len` leaves via
    /// `link` (which must be attached to `node`).
    ///
    /// # Panics
    /// Panics if the link is not attached to the node, or `prefix_len`
    /// exceeds 32.
    pub fn add_route(&mut self, node: NodeId, net: Ipv4Addr, prefix_len: u8, link: LinkId) {
        assert!(prefix_len <= 32, "prefix length {prefix_len} > 32");
        let link = self.attached(node, link);
        let newest = &mut self.routes[node.0];
        let older = if newest.prefix_len == NO_ROUTE {
            NONE
        } else {
            self.older.push(*newest);
            u32::try_from(self.older.len() - 1).expect("route count fits u32")
        };
        *newest = Route {
            net: u32::from(net),
            link,
            older,
            prefix_len,
        };
    }

    /// `link` as a route stores it, checked to be attached to `node`.
    fn attached(&self, node: NodeId, link: LinkId) -> u32 {
        let l = &self.links[link.0];
        assert!(
            l.a == node || l.b == node,
            "route link {link:?} not attached to node {node:?}"
        );
        u32::try_from(link.0).expect("link count fits u32")
    }

    /// Default route (0.0.0.0/0).
    pub fn add_default_route(&mut self, node: NodeId, link: LinkId) {
        self.add_route(node, Ipv4Addr::UNSPECIFIED, 0, link);
    }

    /// Replace any existing default route at `node` with one via `link`
    /// (how the UE's host retargets its radio link after a handover).
    pub fn replace_default_route(&mut self, node: NodeId, link: LinkId) {
        // Unlink every default below the newest route. Their cells are
        // not reused: a node has more than one only if it was *added*
        // more than one, so what this strands is bounded by those calls.
        let (mut above, mut at) = (None, self.routes[node.0].older);
        while at != NONE {
            let below = self.older[at as usize].older;
            if self.older[at as usize].prefix_len != 0 {
                above = Some(at);
            } else if let Some(above) = above {
                self.older[above as usize].older = below;
            } else {
                self.routes[node.0].older = below;
            }
            at = below;
        }
        if self.routes[node.0].prefix_len == 0 {
            // A default is already the newest route — where removing it
            // and adding the new one would put that: retarget it.
            let link = self.attached(node, link);
            let newest = &mut self.routes[node.0];
            (newest.net, newest.link) = (0, link);
        } else {
            self.add_default_route(node, link);
        }
    }

    /// Longest-prefix route lookup for traffic from `node` to `dst`;
    /// among matching routes of equal prefix length, the one added last.
    #[must_use]
    #[inline]
    pub fn route(&self, node: NodeId, dst: Ipv4Addr) -> Option<LinkId> {
        let dst = u32::from(dst);
        let mut r = &self.routes[node.0];
        let mut best: Option<&Route> = None;
        // Newest first, so a later match must be strictly longer to win.
        loop {
            if r.matches(dst) && best.is_none_or(|b| r.prefix_len > b.prefix_len) {
                best = Some(r);
            }
            if r.older == NONE {
                break;
            }
            r = &self.older[r.older as usize];
        }
        best.map(|r| LinkId(r.link as usize))
    }

    /// Number of nodes.
    #[must_use]
    pub fn node_count(&self) -> usize {
        self.routes.len()
    }

    /// One-way propagation latency of the cheapest path `from → to`,
    /// summing each hop's directional latency floor (no queueing, no
    /// jitter). Dijkstra over the static link set — deterministic, and
    /// independent of route tables, so harnesses can derive the RTT
    /// estimates a UE's SIM carries for broker-replica selection without
    /// simulating probes.
    #[must_use]
    pub fn path_latency(&self, from: NodeId, to: NodeId) -> Option<cellbricks_sim::SimDuration> {
        use std::cmp::Reverse;
        use std::collections::BinaryHeap;
        let mut best: Vec<Option<cellbricks_sim::SimDuration>> = vec![None; self.node_count()];
        let mut heap = BinaryHeap::new();
        best[from.0] = Some(cellbricks_sim::SimDuration::ZERO);
        heap.push(Reverse((cellbricks_sim::SimDuration::ZERO, from.0)));
        while let Some(Reverse((dist, n))) = heap.pop() {
            if best[n].is_some_and(|b| dist > b) {
                continue;
            }
            if n == to.0 {
                return Some(dist);
            }
            for l in &self.links {
                let (next, dir) = if l.a.0 == n {
                    (l.b.0, &l.ab)
                } else if l.b.0 == n {
                    (l.a.0, &l.ba)
                } else {
                    continue;
                };
                let cand = dist + self.configs[dir.config as usize].latency;
                if best[next].is_none_or(|b| cand < b) {
                    best[next] = Some(cand);
                    heap.push(Reverse((cand, next)));
                }
            }
        }
        best[to.0]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cellbricks_sim::SimDuration;

    fn cfg() -> LinkConfig {
        LinkConfig::delay_only(SimDuration::from_millis(1))
    }

    #[test]
    fn longest_prefix_wins() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let l_ab = t.add_symmetric_link(a, b, cfg());
        let l_ac = t.add_symmetric_link(a, c, cfg());
        t.add_default_route(a, l_ab);
        t.add_route(a, Ipv4Addr::new(10, 1, 0, 0), 16, l_ac);
        assert_eq!(t.route(a, Ipv4Addr::new(10, 1, 2, 3)), Some(l_ac));
        assert_eq!(t.route(a, Ipv4Addr::new(8, 8, 8, 8)), Some(l_ab));
    }

    #[test]
    fn no_route_is_none() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        t.add_symmetric_link(a, b, cfg());
        assert_eq!(t.route(a, Ipv4Addr::new(1, 2, 3, 4)), None);
    }

    #[test]
    #[should_panic(expected = "not attached")]
    fn route_must_use_attached_link() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let l_bc = t.add_symmetric_link(b, c, cfg());
        t.add_default_route(a, l_bc);
    }

    #[test]
    #[should_panic(expected = "self-links")]
    fn self_link_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        t.add_symmetric_link(a, a, cfg());
    }

    #[test]
    fn replace_default_route_switches_link() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let c = t.add_node("c");
        let l_ab = t.add_symmetric_link(a, b, cfg());
        let l_ac = t.add_symmetric_link(a, c, cfg());
        t.add_default_route(a, l_ab);
        assert_eq!(t.route(a, Ipv4Addr::new(8, 8, 8, 8)), Some(l_ab));
        t.replace_default_route(a, l_ac);
        assert_eq!(t.route(a, Ipv4Addr::new(8, 8, 8, 8)), Some(l_ac));
    }

    #[test]
    fn exact_host_route() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t.add_symmetric_link(a, b, cfg());
        t.add_route(a, Ipv4Addr::new(192, 168, 1, 7), 32, l);
        assert_eq!(t.route(a, Ipv4Addr::new(192, 168, 1, 7)), Some(l));
        assert_eq!(t.route(a, Ipv4Addr::new(192, 168, 1, 8)), None);
    }

    #[test]
    #[should_panic(expected = "> 32")]
    fn prefix_longer_than_an_address_rejected() {
        let mut t = Topology::new();
        let a = t.add_node("a");
        let b = t.add_node("b");
        let l = t.add_symmetric_link(a, b, cfg());
        t.add_route(a, Ipv4Addr::new(10, 0, 0, 0), 33, l);
    }

    /// Links share one table entry per distinct config. Fault plans
    /// install and remove burst models over and over; the table holds
    /// each distinct (config, model) pair once, however many cycles run,
    /// and removal returns a link to its original entry.
    #[test]
    fn burst_loss_cycles_never_grow_the_config_table() {
        let model = |p| BurstLoss {
            p_enter: p,
            p_exit: 0.4,
            loss_good: 0.0,
            loss_bad: 0.9,
        };
        let mut t = Topology::new();
        let hub = t.add_node("hub");
        let links: Vec<LinkId> = (0..6)
            .map(|i| {
                let leaf = t.add_node("leaf");
                if i % 2 == 0 {
                    t.add_symmetric_link(leaf, hub, cfg())
                } else {
                    t.add_link(leaf, hub, cfg(), cfg().with_loss(0.01))
                }
            })
            .collect();
        let entries = |t: &Topology| -> Vec<(u32, u32)> {
            (t.links.iter())
                .map(|l| (l.ab.config, l.ba.config))
                .collect()
        };
        let base = entries(&t);
        assert_eq!(t.configs.len(), 2);
        // Two base configs × {none, model 0.1, model 0.2}.
        let distinct = 2 * 3;
        for cycle in 0..50 {
            for (i, &l) in links.iter().enumerate() {
                let m = [None, Some(model(0.1)), Some(model(0.2))][(i + cycle) % 3];
                t.set_burst_loss(l, m);
                let cfg = &t.configs[t.links[l.0].ba.config as usize];
                assert_eq!(cfg.burst, m);
                assert!(t.configs.len() <= distinct, "cycle {cycle}");
            }
        }
        for &l in &links {
            t.set_burst_loss(l, None);
        }
        assert_eq!(entries(&t), base);
        assert_eq!(t.configs.len(), distinct);
    }

    /// Build-cost guard: a leaf's only route lives in its own cell of the
    /// node table — no cell of its own elsewhere — and adding a route is
    /// O(1) however many its node already has (a hub with one route per
    /// leaf would otherwise take ~10¹⁰ steps here).
    #[test]
    fn hundred_thousand_leaves_build_in_linear_time() {
        const N: usize = 100_000;
        let t0 = std::time::Instant::now();
        let mut t = Topology::new();
        let hub = t.add_node("hub");
        for i in 0..N {
            let leaf = t.add_node("leaf");
            let l = t.add_symmetric_link(leaf, hub, cfg());
            t.add_default_route(leaf, l);
            assert!(t.older.is_empty(), "leaf {i} was given a route cell");
            t.replace_default_route(leaf, l);
        }
        assert!(t.older.is_empty());
        assert_eq!(t.routes.len(), N + 1);
        for i in 0..N {
            t.add_route(hub, Ipv4Addr::from(i as u32), 32, LinkId(i));
        }
        assert_eq!(t.older.len(), N - 1);
        assert_eq!(t.route(hub, Ipv4Addr::from(7)), Some(LinkId(7)));
        assert!(t0.elapsed().as_secs() < 20, "took {:?}", t0.elapsed());
    }
}

#[cfg(test)]
mod proptests {
    use super::*;
    use cellbricks_sim::SimDuration;
    use proptest::prelude::*;

    /// The route table as it was before the single storage: a `Vec` per
    /// node in insertion order, looked up with `filter` + `max_by_key`
    /// (which keeps the *last* of equal maxima).
    #[derive(Default)]
    struct Oracle(Vec<Vec<(u32, u8, LinkId)>>);

    impl Oracle {
        fn add(&mut self, node: NodeId, net: Ipv4Addr, prefix_len: u8, link: LinkId) {
            self.0[node.0].push((u32::from(net), prefix_len, link));
        }

        fn replace_default(&mut self, node: NodeId, link: LinkId) {
            self.0[node.0].retain(|r| r.1 != 0);
            self.add(node, Ipv4Addr::UNSPECIFIED, 0, link);
        }

        fn route(&self, node: NodeId, dst: Ipv4Addr) -> Option<LinkId> {
            let matches = |&&(net, len, _): &&(u32, u8, LinkId)| {
                len == 0 || {
                    let mask = u32::MAX << (32 - u32::from(len));
                    (u32::from(dst) & mask) == (net & mask)
                }
            };
            (self.0[node.0].iter().filter(matches))
                .max_by_key(|r| r.1)
                .map(|r| r.2)
        }
    }

    const NETS: [Ipv4Addr; 5] = [
        Ipv4Addr::new(10, 0, 0, 0),
        Ipv4Addr::new(10, 1, 0, 0),
        Ipv4Addr::new(10, 1, 2, 3),
        Ipv4Addr::new(192, 168, 1, 7),
        Ipv4Addr::new(10, 1, 2, 0),
    ];
    const PREFIXES: [u8; 6] = [0, 8, 16, 24, 32, 32];

    proptest! {
        /// Random `add_route` / `add_default_route` /
        /// `replace_default_route` sequences over a small mesh that keeps
        /// growing leaves — duplicate prefixes, several defaults, a /32
        /// under a covering /8, routes added to old nodes after newer
        /// ones exist — look up exactly as the per-node `Vec` did.
        #[test]
        fn prop_route_matches_per_node_vec_oracle(
            ops in proptest::collection::vec((0u8..6, 0usize..64, 0usize..64, 0usize..5, 0usize..6), 1..60),
            probes in proptest::collection::vec(any::<u32>(), 4..5),
        ) {
            let cfg = LinkConfig::delay_only(SimDuration::from_millis(1));
            let mut t = Topology::new();
            let mut oracle = Oracle::default();
            let mut links_of: Vec<Vec<LinkId>> = Vec::new();
            for i in 0..4 {
                let n = t.add_node("n");
                oracle.0.push(Vec::new());
                links_of.push(Vec::new());
                for j in 0..i {
                    let l = t.add_symmetric_link(NodeId(j), n, cfg.clone());
                    links_of[j].push(l);
                    links_of[i].push(l);
                }
            }
            for (op, node, link, net, prefix) in ops {
                let node = NodeId(node % links_of.len());
                let link = links_of[node.0][link % links_of[node.0].len()];
                match op {
                    0..=2 => {
                        t.add_route(node, NETS[net], PREFIXES[prefix], link);
                        oracle.add(node, NETS[net], PREFIXES[prefix], link);
                    }
                    3 => {
                        t.add_default_route(node, link);
                        oracle.add(node, Ipv4Addr::UNSPECIFIED, 0, link);
                    }
                    4 => {
                        t.replace_default_route(node, link);
                        oracle.replace_default(node, link);
                    }
                    _ => {
                        let leaf = t.add_node("leaf");
                        let l = t.add_symmetric_link(leaf, node, cfg.clone());
                        links_of[node.0].push(l);
                        links_of.push(vec![l]);
                        oracle.0.push(Vec::new());
                    }
                }
                for n in (0..links_of.len()).map(NodeId) {
                    let dsts = (NETS.iter().copied())
                        .chain([Ipv4Addr::new(10, 1, 9, 9), Ipv4Addr::new(8, 8, 8, 8)])
                        .chain(probes.iter().map(|&p| Ipv4Addr::from(p)));
                    for dst in dsts {
                        let want = oracle.route(n, dst);
                        prop_assert_eq!(t.route(n, dst), want, "node {:?} dst {}", n, dst);
                    }
                }
            }
        }
    }
}
