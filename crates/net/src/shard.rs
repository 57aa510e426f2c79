//! Sharded parallel stepping with conservative lookahead sync.
//!
//! The topology is partitioned by bTelco/region into shards; each shard
//! owns its own [`NetWorld`] slice (arrival FIFOs + link state + route
//! tables for its nodes) and its own [`Driver`] (timer wheel, registry,
//! dirty set), stepped on a `std::thread` worker. Workers advance in
//! lockstep windows of `lookahead` = the minimum propagation latency of
//! any inter-shard link: a packet sent across a shard boundary inside a
//! window `[t, t + L)` cannot arrive before `t + L`, so shards never
//! need to see each other's events mid-window — exactly SimBricks'
//! modular synchronization argument. Cross-shard deliveries are parked
//! in a per-world outbox and exchanged at a barrier between windows.
//!
//! # Determinism (bit-identical for any shard count)
//!
//! * Loss/burst decisions draw from **per-link-direction RNG streams**
//!   seeded from `(stream_seed, link, dir)`. A direction is only ever
//!   exercised by the shard owning its source node, so each direction
//!   consumes the same sample sequence under any partition.
//! * Every delivery is tagged `(direction key, per-direction seq)` and
//!   arrivals dispatch in `(time, key, seq)` order — a total order
//!   independent of when a packet joined its direction's FIFO, and
//!   therefore of which barrier window a cross-shard packet happened to
//!   be injected in.
//! * Within a shard the [`Driver`] is the sequential engine unchanged;
//!   mailbox push order between workers is racy, but each direction has
//!   one producer whose order its mailbox keeps, and injection appends
//!   to that direction's FIFO, so the race is erased.
//!
//! The single-shard **legacy** path (a `NetWorld` never split) is
//! untouched: it draws from the world RNG in the pinned order, and the
//! figure-replay gate keeps it byte-for-byte. Sharded runs (including
//! `shards = 1`) form their own determinism class.

use crate::engine::Driver;
use crate::fault::FaultPlan;
use crate::topology::{LinkId, NodeId, Topology};
use crate::world::{CrossPacket, Endpoint, LinkStats, NetWorld};
use cellbricks_sim::{SimDuration, SimTime};
use std::sync::{Arc, Barrier, Mutex};

/// splitmix64 finalizer: decorrelates per-direction stream seeds derived
/// from one experiment seed.
pub(crate) fn mix(seed: u64, stream: u64) -> u64 {
    let mut z = seed ^ stream.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// A partition of a [`Topology`]'s nodes into shards.
#[derive(Clone)]
pub struct ShardPlan {
    node_shard: Arc<Vec<u32>>,
    shards: usize,
}

impl ShardPlan {
    /// Partition by region label: node → `region % shards`. Folding by
    /// modulo keeps a fixed region→shard rule for any shard count, so
    /// the same topology can run at 1, 2 or 4 shards and (with the
    /// per-direction RNG streams) produce identical results.
    ///
    /// # Panics
    /// Panics if `shards == 0`.
    #[must_use]
    pub fn by_region(topology: &Topology, shards: usize) -> Self {
        assert!(shards >= 1, "at least one shard");
        let node_shard = (0..topology.node_count())
            .map(|i| topology.region(NodeId(i)) % shards as u32)
            .collect();
        Self {
            node_shard: Arc::new(node_shard),
            shards,
        }
    }

    /// Number of shards.
    #[must_use]
    pub fn shards(&self) -> usize {
        self.shards
    }

    /// The shard owning `node`.
    #[must_use]
    pub fn shard_of(&self, node: NodeId) -> usize {
        self.node_shard[node.0] as usize
    }

    /// Shared owner table (dense `NodeId` index), for [`NetWorld`]s.
    #[must_use]
    pub(crate) fn node_shard_arc(&self) -> Arc<Vec<u32>> {
        self.node_shard.clone()
    }

    /// The conservative lookahead: the minimum propagation-latency floor
    /// over all links whose endpoints live in different shards. `None`
    /// when no link crosses a shard boundary (shards are independent and
    /// can run decoupled to the horizon).
    #[must_use]
    pub fn lookahead(&self, topology: &Topology) -> Option<SimDuration> {
        (0..topology.link_count())
            .filter_map(|i| {
                let (a, b) = topology.link_ends(LinkId(i));
                (self.node_shard[a.0] != self.node_shard[b.0])
                    .then(|| topology.link_latency_floor(LinkId(i)))
            })
            .min()
    }

    /// Split a fault plan into one plan per shard. Endpoint faults go to
    /// the shard owning the node; link faults go to the shard(s) owning
    /// either end — for a cross-shard link both copies of the link state
    /// must flip, so such an action lands in two plans (and the shared
    /// `fault.*` counters count it twice; scenario-level outcomes, not
    /// fault counters, are the shard-invariant quantities).
    ///
    /// # Panics
    /// Panics if an action names a node or link outside the topology.
    #[must_use]
    pub fn partition_faults(&self, mut plan: FaultPlan, topology: &Topology) -> Vec<FaultPlan> {
        use crate::fault::FaultAction;
        let mut out: Vec<FaultPlan> = (0..self.shards).map(|_| FaultPlan::new()).collect();
        while let Some((at, action)) = plan.pop_due(SimTime::FAR_FUTURE) {
            match &action {
                FaultAction::LinkOutage { link, .. } | FaultAction::SetBurstLoss { link, .. } => {
                    let (a, b) = topology.link_ends(*link);
                    let sa = self.shard_of(a);
                    let sb = self.shard_of(b);
                    out[sa].at(at, action.clone());
                    if sb != sa {
                        out[sb].at(at, action);
                    }
                }
                FaultAction::Endpoint { node, .. } => {
                    out[self.shard_of(*node)].at(at, action);
                }
            }
        }
        out
    }
}

/// One shard's engine state: its world slice and its driver.
pub struct ShardCell {
    /// The shard's [`NetWorld`] slice (from [`NetWorld::into_shards`]).
    pub world: NetWorld,
    /// The shard's sequential engine.
    pub driver: Driver,
}

impl ShardCell {
    /// Wrap a shard world with a fresh driver starting at time zero.
    #[must_use]
    pub fn new(world: NetWorld) -> Self {
        Self {
            world,
            driver: Driver::new(),
        }
    }
}

/// Build shard cells from a world and a plan: split the world and pair
/// each slice with a fresh driver.
#[must_use]
pub fn make_cells(world: NetWorld, plan: &ShardPlan, stream_seed: u64) -> Vec<ShardCell> {
    world
        .into_shards(plan, stream_seed)
        .into_iter()
        .map(ShardCell::new)
        .collect()
}

/// Sum a link's delivery/drop counters across shard world copies. Every
/// shard carries a copy of every link's state, but a direction only
/// advances in the shard owning its source node (the rest stay zero), so
/// the sum is the true per-link tally.
#[must_use]
pub fn merged_link_stats(cells: &[ShardCell], link: LinkId) -> LinkStats {
    let mut total = LinkStats::default();
    for c in cells {
        let s = c.world.link_stats(link);
        total.ab_delivered += s.ab_delivered;
        total.ab_dropped += s.ab_dropped;
        total.ba_delivered += s.ba_delivered;
        total.ba_dropped += s.ba_dropped;
        total.ab_policer_hits += s.ab_policer_hits;
        total.ba_policer_hits += s.ba_policer_hits;
    }
    total
}

/// Step all shards to `until` under the conservative barrier.
///
/// `endpoints[s]` holds shard `s`'s endpoints (each must live on a node
/// the plan assigns to shard `s`). Each worker repeatedly runs its
/// driver over the exclusive window `[t, t + lookahead)`, deposits its
/// outbox into per-destination mailboxes, and meets the others at a
/// barrier where it collects the packets addressed to it — which, by the
/// lookahead argument, can only arrive in later windows. A final
/// inclusive `run_to(until)` processes events at exactly the horizon, so
/// segmented sharded runs chain like segmented [`Driver::run_to`] calls.
///
/// Pass the minimum inter-shard latency from [`ShardPlan::lookahead`];
/// a smaller value is correct but slower (more barriers), a larger one
/// is unsound and will panic in debug builds via the injection check.
///
/// # Panics
/// Panics if the slice lengths differ, `lookahead` is zero, or any
/// worker panics (endpoint livelock, node/shard mismatch).
pub fn run_sharded(
    cells: &mut [ShardCell],
    endpoints: &mut [Vec<&mut (dyn Endpoint + Send)>],
    until: SimTime,
    lookahead: SimDuration,
) {
    assert_eq!(
        cells.len(),
        endpoints.len(),
        "one endpoint set per shard cell"
    );
    assert!(
        lookahead > SimDuration::ZERO,
        "conservative sync needs a positive lookahead"
    );
    let shards = cells.len();
    let barrier = Barrier::new(shards);
    let mailboxes: Vec<Mutex<Vec<CrossPacket>>> =
        (0..shards).map(|_| Mutex::new(Vec::new())).collect();
    std::thread::scope(|scope| {
        for (s, (cell, eps)) in cells.iter_mut().zip(endpoints.iter_mut()).enumerate() {
            let barrier = &barrier;
            let mailboxes = &mailboxes;
            scope.spawn(move || {
                // Reborrow to the unsized trait object the driver takes.
                let mut eps: Vec<&mut dyn Endpoint> = eps
                    .iter_mut()
                    .map(|e| &mut **e as &mut dyn Endpoint)
                    .collect();
                cell.driver.sync(&eps);
                let mut outbuf: Vec<CrossPacket> = Vec::new();
                let mut t = cell.driver.clock();
                while t < until {
                    let t_end = (t + lookahead).min(until);
                    cell.driver.run_window(&mut cell.world, &mut eps, t_end);
                    cell.world.drain_outbox_into(&mut outbuf);
                    for m in outbuf.drain(..) {
                        debug_assert!(
                            m.arrives_at() >= t_end,
                            "lookahead violated: cross packet arrives inside the window"
                        );
                        mailboxes[m.dst_shard()].lock().unwrap().push(m);
                    }
                    // Everyone has deposited …
                    barrier.wait();
                    {
                        let mut inbox = mailboxes[s].lock().unwrap();
                        cell.world.inject_cross(inbox.drain(..));
                    }
                    // … and everyone has collected before the next window.
                    barrier.wait();
                    t = t_end;
                }
                // Events at exactly the horizon: any cross-shard sends
                // they make arrive strictly after `until` and stay in the
                // outbox for the next segment's first exchange.
                cell.driver.run_to(&mut cell.world, &mut eps, until);
            });
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::link::LinkConfig;
    use crate::packet::Packet;
    use crate::world::NetWorld;
    use bytes::Bytes;
    use cellbricks_sim::SimRng;
    use std::net::Ipv4Addr;

    const IP_A: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 1);
    const IP_B: Ipv4Addr = Ipv4Addr::new(10, 0, 0, 2);

    /// Sends one packet to `dst` every `interval`; records receptions.
    struct Chatter {
        node: NodeId,
        src: Ipv4Addr,
        dst: Ipv4Addr,
        next: SimTime,
        interval: SimDuration,
        sent: u32,
        limit: u32,
        received: Vec<SimTime>,
    }

    impl Endpoint for Chatter {
        fn node(&self) -> NodeId {
            self.node
        }
        fn handle_packet(&mut self, now: SimTime, _pkt: Packet, _out: &mut Vec<Packet>) {
            self.received.push(now);
        }
        fn poll_at(&self) -> Option<SimTime> {
            (self.sent < self.limit).then_some(self.next)
        }
        fn poll(&mut self, now: SimTime, out: &mut Vec<Packet>) {
            while self.sent < self.limit && self.next <= now {
                out.push(Packet::control(
                    self.src,
                    self.dst,
                    Bytes::from_static(b"c"),
                ));
                self.sent += 1;
                self.next += self.interval;
            }
        }
    }

    fn chatter(node: NodeId, src: Ipv4Addr, dst: Ipv4Addr, limit: u32) -> Chatter {
        Chatter {
            node,
            src,
            dst,
            next: SimTime::from_millis(10),
            interval: SimDuration::from_millis(10),
            sent: 0,
            limit,
            received: Vec::new(),
        }
    }

    /// Two nodes in different regions, chatting both ways over a lossy
    /// 5 ms link: the canonical cross-shard scenario.
    fn two_region_world(loss: f64) -> (NetWorld, NodeId, NodeId) {
        let mut t = Topology::new();
        let a = t.add_node_in_region("a", 0);
        let b = t.add_node_in_region("b", 1);
        let l = t.add_symmetric_link(
            a,
            b,
            LinkConfig::delay_only(SimDuration::from_millis(5)).with_loss(loss),
        );
        t.add_default_route(a, l);
        t.add_default_route(b, l);
        (NetWorld::new(t, SimRng::new(7)), a, b)
    }

    fn run_with_shards(shards: usize, loss: f64) -> (Vec<SimTime>, Vec<SimTime>) {
        let (world, a, b) = two_region_world(loss);
        let plan = ShardPlan::by_region(world.topology(), shards);
        let lookahead = plan.lookahead(world.topology());
        if shards > 1 {
            assert_eq!(lookahead, Some(SimDuration::from_millis(5)));
        }
        let mut cells = make_cells(world, &plan, 99);
        let mut ca = chatter(a, IP_A, IP_B, 40);
        let mut cb = chatter(b, IP_B, IP_A, 40);
        let mut sets: Vec<Vec<&mut (dyn Endpoint + Send)>> =
            (0..shards).map(|_| Vec::new()).collect();
        sets[plan.shard_of(a)].push(&mut ca);
        sets[plan.shard_of(b)].push(&mut cb);
        run_sharded(
            &mut cells,
            &mut sets,
            SimTime::from_secs(2),
            lookahead.unwrap_or(SimDuration::from_millis(5)),
        );
        (ca.received.clone(), cb.received.clone())
    }

    #[test]
    fn cross_shard_delivery_matches_single_shard() {
        let lossless = run_with_shards(1, 0.0);
        assert_eq!(lossless.0.len(), 40);
        assert_eq!(lossless.1.len(), 40);
        assert_eq!(lossless.0[0], SimTime::from_millis(15));
        assert_eq!(run_with_shards(2, 0.0), lossless);
    }

    #[test]
    fn lossy_streams_invariant_across_shard_counts() {
        // Loss draws come from per-direction streams: the same packets
        // must drop whether or not a barrier sits between the nodes.
        let one = run_with_shards(1, 0.35);
        let two = run_with_shards(2, 0.35);
        assert!(one.0.len() < 40, "loss must actually bite");
        assert_eq!(one, two);
    }

    #[test]
    fn segmented_sharded_run_matches_one_shot() {
        let run = |segments: &[u64]| {
            let (world, a, b) = two_region_world(0.2);
            let plan = ShardPlan::by_region(world.topology(), 2);
            let lookahead = plan.lookahead(world.topology()).unwrap();
            let mut cells = make_cells(world, &plan, 5);
            let mut ca = chatter(a, IP_A, IP_B, 40);
            let mut cb = chatter(b, IP_B, IP_A, 40);
            for &ms in segments {
                let mut sets: Vec<Vec<&mut (dyn Endpoint + Send)>> = vec![vec![], vec![]];
                sets[plan.shard_of(a)].push(&mut ca);
                sets[plan.shard_of(b)].push(&mut cb);
                run_sharded(&mut cells, &mut sets, SimTime::from_millis(ms), lookahead);
            }
            (ca.received.clone(), cb.received.clone())
        };
        // Segment boundaries landing on event instants (multiples of
        // 10 ms) and off them; the chained result must be identical.
        assert_eq!(run(&[2_000]), run(&[10, 15, 100, 400, 401, 2_000]));
    }

    #[test]
    fn fault_partitioning_touches_both_sides_of_cross_links() {
        let (world, a, b) = two_region_world(0.0);
        let plan = ShardPlan::by_region(world.topology(), 2);
        let l = LinkId(0);
        let mut fp = FaultPlan::new();
        fp.link_outage(l, SimTime::from_millis(100), SimDuration::from_millis(50));
        fp.crash_restart(b, SimTime::from_millis(200), SimDuration::from_millis(10));
        let parts = plan.partition_faults(fp, world.topology());
        assert_eq!(parts.len(), 2);
        assert_eq!(parts[0].len(), 1, "link outage for a's shard");
        assert_eq!(parts[1].len(), 2, "link outage + crash for b's shard");
        let _ = a;
    }

    #[test]
    fn outage_fault_is_shard_invariant() {
        let run = |shards: usize| {
            let (world, a, b) = two_region_world(0.0);
            let plan = ShardPlan::by_region(world.topology(), shards);
            let mut fp = FaultPlan::new();
            // Dark over [95, 125) ms: drops the 10 ms-cadence sends at
            // 100, 110, 120 ms in both directions.
            fp.link_outage(
                LinkId(0),
                SimTime::from_millis(95),
                SimDuration::from_millis(30),
            );
            let parts = plan.partition_faults(fp, world.topology());
            let mut cells = make_cells(world, &plan, 11);
            for (cell, part) in cells.iter_mut().zip(parts) {
                cell.driver.set_fault_plan(part);
            }
            let mut ca = chatter(a, IP_A, IP_B, 30);
            let mut cb = chatter(b, IP_B, IP_A, 30);
            let mut sets: Vec<Vec<&mut (dyn Endpoint + Send)>> =
                (0..shards).map(|_| Vec::new()).collect();
            sets[plan.shard_of(a)].push(&mut ca);
            sets[plan.shard_of(b)].push(&mut cb);
            run_sharded(
                &mut cells,
                &mut sets,
                SimTime::from_secs(1),
                SimDuration::from_millis(5),
            );
            let stats = merged_link_stats(&cells, LinkId(0));
            (ca.received.clone(), cb.received.clone(), stats)
        };
        let one = run(1);
        assert_eq!(one.0.len(), 27);
        assert_eq!(one.2.ab_dropped, 3);
        assert_eq!(one.2.ba_dropped, 3);
        assert_eq!(run(2), one);
    }

    #[test]
    fn disconnected_regions_need_no_lookahead() {
        let mut t = Topology::new();
        let a0 = t.add_node_in_region("a0", 0);
        let a1 = t.add_node_in_region("a1", 0);
        let b0 = t.add_node_in_region("b0", 1);
        let b1 = t.add_node_in_region("b1", 1);
        t.add_symmetric_link(a0, a1, LinkConfig::delay_only(SimDuration::from_millis(1)));
        t.add_symmetric_link(b0, b1, LinkConfig::delay_only(SimDuration::from_millis(1)));
        let plan = ShardPlan::by_region(&t, 2);
        assert_eq!(plan.lookahead(&t), None);
    }
}
