//! Valley-free ECMP routing over a fabric.
//!
//! Datacenter Clos fabrics route *up–down*: a packet climbs from its source
//! NIC toward the spine only as far as necessary, then descends to the
//! destination, never climbing again after its first downhill hop. The
//! [`Router`] computes, per destination NIC, the distance fields that make
//! hop-by-hop ECMP next-hop selection O(degree):
//!
//! * `dist_down(x)` — shortest *strictly downhill* distance from `x` to the
//!   destination (∞ if the destination is not below `x`).
//! * `dist_up(x)` — shortest valley-free distance from `x` (still free to
//!   climb) to the destination.
//!
//! Next-hop candidates at every switch are *all* links consistent with the
//! shortest valley-free distance — exactly the equal-cost set a production
//! switch hashes over. Path *selection* among candidates is the caller's
//! (the `astral-net` flow simulator applies the five-tuple hash there, which
//! is where hash polarization emerges).
//!
//! Cross-datacenter gateway peering links (tier 4 ↔ tier 4) are treated as
//! "up" moves so a path may traverse the long-haul segment while still in
//! its climbing phase, then descend inside the remote DC.
//!
//! The router reads the [`Topology`] once, into a compact `Fabric`
//! snapshot (CSR adjacency, up-move feeders, and a tier byte and gateway
//! flag per node). Both field passes are layered BFS over that snapshot,
//! and a walk derives each hop's equal-cost set from it on demand.

use crate::graph::Topology;
use crate::ids::{LinkId, NodeId, NodeKind};
use parking_lot::RwLock;
use std::collections::HashMap;
use std::sync::Arc;

const INF: u16 = u16::MAX;
/// Hard bound on path length; anything longer indicates a routing bug.
const MAX_HOPS: usize = 64;

/// Routing failures on user-supplied topologies. Well-formed Clos fabrics
/// never produce these; hand-built [`Topology`] graphs with inconsistent
/// tiers or adjacency can.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RoutingError {
    /// A walk exceeded the hop bound — the link structure cycles, so
    /// valley-free forwarding cannot terminate.
    HopLimitExceeded {
        /// The hop bound that was exceeded.
        limit: usize,
    },
}

impl std::fmt::Display for RoutingError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            RoutingError::HopLimitExceeded { limit } => {
                write!(f, "routing loop: path exceeded {limit} hops")
            }
        }
    }
}

impl std::error::Error for RoutingError {}

/// Which phase of a valley-free walk we are in.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Phase {
    /// Still allowed to climb (or move laterally across DC gateways).
    Up,
    /// Committed to descending.
    Down,
}

/// The routing view of a topology: out-adjacency in CSR form, each node's
/// up-move feeders, and each node's tier and gateway flag, stamped with
/// the [`Topology::epoch`] it was read at. Built once per [`Router`] in
/// O(links).
#[derive(Debug, PartialEq)]
struct Fabric {
    epoch: u64,
    /// Node `i`'s out-links occupy slots `off[i]..off[i + 1]`.
    off: Vec<u32>,
    /// Link id per slot, ascending within each node.
    link: Vec<u32>,
    /// Far-end node per slot.
    nbr: Vec<u32>,
    /// Node `y`'s feeders — the far ends `x` of its out-links for which
    /// `x -> y` is an up move — occupy `feed[feed_off[y]..feed_off[y + 1]]`.
    feed_off: Vec<u32>,
    feed: Vec<u32>,
    tier: Vec<u8>,
    gate: Vec<bool>,
}

impl Fabric {
    fn new(topo: &Topology) -> Fabric {
        let nodes = topo.nodes();
        let mut off = Vec::with_capacity(nodes.len() + 1);
        let mut link = Vec::with_capacity(topo.links().len());
        off.push(0);
        for node in nodes {
            let start = link.len();
            link.extend(topo.out_links(node.id).iter().map(|l| l.0));
            link[start..].sort_unstable();
            off.push(link.len() as u32);
        }
        let nbr: Vec<u32> = link.iter().map(|&l| topo.link(LinkId(l)).dst.0).collect();
        let mut f = Fabric {
            epoch: topo.epoch(),
            off,
            link,
            nbr,
            feed_off: Vec::with_capacity(nodes.len() + 1),
            feed: Vec::new(),
            tier: nodes.iter().map(|n| n.kind.tier()).collect(),
            gate: nodes
                .iter()
                .map(|n| matches!(n.kind, NodeKind::DcGate { .. }))
                .collect(),
        };
        f.feed_off.push(0);
        for y in 0..nodes.len() {
            for s in f.slots(y) {
                let x = f.nbr[s];
                if f.up_move(x as usize, y) {
                    f.feed.push(x);
                }
            }
            f.feed_off.push(f.feed.len() as u32);
        }
        f
    }

    /// Slot range of `node`'s out-links.
    fn slots(&self, node: usize) -> std::ops::Range<usize> {
        self.off[node] as usize..self.off[node + 1] as usize
    }

    /// The nodes with an up move into `node`.
    fn feeders(&self, node: usize) -> &[u32] {
        &self.feed[self.feed_off[node] as usize..self.feed_off[node + 1] as usize]
    }

    /// True if traversing `src → dst` counts as an "up" move.
    fn up_move(&self, src: usize, dst: usize) -> bool {
        self.tier[dst] > self.tier[src] || (self.gate[src] && self.gate[dst])
    }

    /// True if traversing `src → dst` counts as a "down" move.
    fn down_move(&self, src: usize, dst: usize) -> bool {
        self.tier[dst] < self.tier[src]
    }

    /// Panics (debug builds) when `topo` changed since the snapshot.
    fn check(&self, topo: &Topology) {
        debug_assert_eq!(
            self.epoch,
            topo.epoch(),
            "stale routing snapshot: call Router::clear() after mutating the topology"
        );
    }
}

/// Distance fields toward one destination NIC.
#[derive(Debug)]
pub struct DistField {
    /// The destination the fields point at.
    dst: NodeId,
    /// `dist_down[node]`: downhill-only distance to the destination.
    down: Vec<u16>,
    /// `dist_up[node]`: valley-free distance to the destination.
    up: Vec<u16>,
    /// The snapshot the fields were computed over.
    fabric: Arc<Fabric>,
}

impl DistField {
    /// Downhill-only distance from `node` to the destination.
    pub fn down(&self, node: NodeId) -> Option<u16> {
        let d = self.down[node.index()];
        (d != INF).then_some(d)
    }

    /// Valley-free distance from `node` to the destination.
    pub fn up(&self, node: NodeId) -> Option<u16> {
        let d = self.up[node.index()];
        (d != INF).then_some(d)
    }

    /// Equal-cost next hops from `cur` in `phase`, in link-id order, into
    /// `hops`; `heads[i]` is the node `hops[i]` leads to. Both are cleared
    /// first and left empty when `cur` is the destination or has no route.
    fn next_hops_into(
        &self,
        cur: NodeId,
        phase: Phase,
        hops: &mut Vec<Hop>,
        heads: &mut Vec<NodeId>,
    ) {
        hops.clear();
        heads.clear();
        let c = cur.index();
        let target = match phase {
            Phase::Down => self.down[c],
            Phase::Up => self.up[c],
        };
        if cur == self.dst || target == INF {
            return;
        }
        let f = &*self.fabric;
        for s in f.slots(c) {
            let x = f.nbr[s] as usize;
            let next = if f.down_move(c, x) {
                (self.down[x] != INF && self.down[x] + 1 == target).then_some(Phase::Down)
            } else if phase == Phase::Up && f.up_move(c, x) {
                (self.up[x] != INF && self.up[x] + 1 == target).then_some(Phase::Up)
            } else {
                None
            };
            if let Some(phase) = next {
                hops.push(Hop {
                    link: LinkId(f.link[s]),
                    phase,
                });
                heads.push(NodeId(x as u32));
            }
        }
    }
}

/// A next-hop candidate: the link to take and the phase after taking it.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Hop {
    /// Link to traverse.
    pub link: LinkId,
    /// Phase after the hop.
    pub phase: Phase,
}

/// ECMP router with a per-destination distance-field cache.
#[derive(Debug, Default)]
pub struct Router {
    cache: RwLock<Cache>,
}

/// The router's topology snapshot and the fields computed over it.
#[derive(Debug, Default)]
struct Cache {
    fabric: Option<Arc<Fabric>>,
    fields: HashMap<NodeId, Arc<DistField>>,
}

impl Router {
    /// A router with an empty cache.
    pub fn new() -> Self {
        Router::default()
    }

    /// Drop the topology snapshot and all cached distance fields (call
    /// after mutating the topology).
    pub fn clear(&self) {
        let mut cache = self.cache.write();
        cache.fabric = None;
        cache.fields.clear();
    }

    /// The topology snapshot, read on first use.
    fn fabric(&self, topo: &Topology) -> Arc<Fabric> {
        if let Some(f) = &self.cache.read().fabric {
            f.check(topo);
            return Arc::clone(f);
        }
        let mut cache = self.cache.write();
        let f = cache
            .fabric
            .get_or_insert_with(|| Arc::new(Fabric::new(topo)));
        f.check(topo);
        Arc::clone(f)
    }

    /// Distance fields toward `dst` (computed on first use, then cached).
    pub fn dist_field(&self, topo: &Topology, dst: NodeId) -> Arc<DistField> {
        if let Some(f) = self.cache.read().fields.get(&dst) {
            f.fabric.check(topo);
            return Arc::clone(f);
        }
        let field = Arc::new(compute_field(self.fabric(topo), topo, dst));
        self.cache.write().fields.insert(dst, Arc::clone(&field));
        field
    }

    /// Equal-cost next hops from `cur` (in `phase`) toward `dst`, in
    /// deterministic (link-id) order. Empty when `cur == dst` or no route
    /// exists.
    pub fn next_hops(&self, topo: &Topology, cur: NodeId, phase: Phase, dst: NodeId) -> Vec<Hop> {
        let (mut hops, mut heads) = (Vec::new(), Vec::new());
        self.dist_field(topo, dst)
            .next_hops_into(cur, phase, &mut hops, &mut heads);
        hops
    }

    /// Walk a complete path from `src_nic` to `dst_nic`, using `choose` to
    /// pick among equal-cost candidates at each hop. `choose` receives the
    /// node we are at and the candidate hops (sorted by link id) and returns
    /// an index into them.
    ///
    /// Returns `None` when no valley-free route exists (e.g. cross-rail in a
    /// rail-only fabric).
    pub fn path_with<F>(
        &self,
        topo: &Topology,
        src_nic: NodeId,
        dst_nic: NodeId,
        choose: F,
    ) -> Option<Vec<LinkId>>
    where
        F: FnMut(NodeId, &[Hop]) -> usize,
    {
        self.try_path_with(topo, src_nic, dst_nic, choose)
            .unwrap_or_else(|e| panic!("{e}"))
    }

    /// Fallible variant of [`Router::path_with`] for hand-built topologies:
    /// a cyclic link structure yields [`RoutingError::HopLimitExceeded`]
    /// instead of panicking.
    pub fn try_path_with<F>(
        &self,
        topo: &Topology,
        src_nic: NodeId,
        dst_nic: NodeId,
        choose: F,
    ) -> Result<Option<Vec<LinkId>>, RoutingError>
    where
        F: FnMut(NodeId, &[Hop]) -> usize,
    {
        let mut path = Vec::new();
        Ok(self
            .try_path_with_into(topo, src_nic, dst_nic, choose, &mut path)?
            .then_some(path))
    }

    /// Allocation-free variant of [`Router::try_path_with`]: the walk is
    /// written into `out` (cleared first), so hot callers can reuse one
    /// scratch buffer across flows. Returns `Ok(true)` when a route exists
    /// (`out` holds it — empty for `src_nic == dst_nic`), `Ok(false)` when
    /// the fabric offers none.
    pub fn try_path_with_into<F>(
        &self,
        topo: &Topology,
        src_nic: NodeId,
        dst_nic: NodeId,
        mut choose: F,
        out: &mut Vec<LinkId>,
    ) -> Result<bool, RoutingError>
    where
        F: FnMut(NodeId, &[Hop]) -> usize,
    {
        out.clear();
        if src_nic == dst_nic {
            return Ok(true);
        }
        let field = self.dist_field(topo, dst_nic);
        let (mut hops, mut heads) = (Vec::new(), Vec::new());
        let mut cur = src_nic;
        let mut phase = Phase::Up;
        while cur != dst_nic {
            field.next_hops_into(cur, phase, &mut hops, &mut heads);
            if hops.is_empty() {
                out.clear();
                return Ok(false);
            }
            let idx = choose(cur, &hops);
            debug_assert!(idx < hops.len(), "chooser returned out-of-range index");
            let idx = idx.min(hops.len() - 1);
            out.push(hops[idx].link);
            cur = heads[idx];
            phase = hops[idx].phase;
            if out.len() > MAX_HOPS {
                out.clear();
                return Err(RoutingError::HopLimitExceeded { limit: MAX_HOPS });
            }
        }
        Ok(true)
    }

    /// Shortest valley-free hop count from `src_nic` to `dst_nic`.
    pub fn distance(&self, topo: &Topology, src_nic: NodeId, dst_nic: NodeId) -> Option<u16> {
        if src_nic == dst_nic {
            return Some(0);
        }
        self.dist_field(topo, dst_nic).up(src_nic)
    }

    /// Number of distinct equal-cost shortest valley-free paths.
    pub fn path_count(&self, topo: &Topology, src_nic: NodeId, dst_nic: NodeId) -> u64 {
        if src_nic == dst_nic {
            return 1;
        }
        let field = self.dist_field(topo, dst_nic);
        let mut memo: HashMap<(NodeId, Phase), u64> = HashMap::new();
        count_paths(&field, src_nic, Phase::Up, &mut memo)
    }
}

fn count_paths(
    field: &DistField,
    cur: NodeId,
    phase: Phase,
    memo: &mut HashMap<(NodeId, Phase), u64>,
) -> u64 {
    if cur == field.dst {
        return 1;
    }
    if let Some(&c) = memo.get(&(cur, phase)) {
        return c;
    }
    let (mut hops, mut heads) = (Vec::new(), Vec::new());
    field.next_hops_into(cur, phase, &mut hops, &mut heads);
    let total = hops
        .iter()
        .zip(heads)
        .map(|(hop, next)| count_paths(field, next, hop.phase, memo))
        .sum();
    memo.insert((cur, phase), total);
    total
}

/// Compute distance fields toward `dst` over `fabric` with two layered
/// BFS passes: downhill distances, then valley-free distances seeded with
/// them. Every move costs one hop, so a bucket per distance replaces a
/// priority queue. `topo` is read only by debug checks of the
/// duplex-wiring invariant both passes rely on.
fn compute_field(fabric: Arc<Fabric>, topo: &Topology, dst: NodeId) -> DistField {
    let f = &*fabric;
    let n = f.tier.len();
    let mut down = vec![INF; n];
    down[dst.index()] = 0;

    // Downhill distances: BFS from dst over *reverse* down moves. Walk
    // each node's out-links v -> u with u above v; duplex wiring means the
    // reverse u -> v exists and is a down move. A gateway has nothing
    // above it (gate-gate hops are lateral, not downhill). `layers[d]`
    // keeps the nodes first reached at distance d.
    let mut layers: Vec<Vec<u32>> = vec![vec![dst.0]];
    loop {
        let depth = layers.len() as u16;
        let mut next = Vec::new();
        for &v in layers.last().expect("seeded with dst") {
            let v = v as usize;
            if f.gate[v] {
                continue;
            }
            for s in f.slots(v) {
                let u = f.nbr[s] as usize;
                if f.tier[u] > f.tier[v] && down[u] == INF {
                    debug_assert!(
                        topo.link_between(NodeId(u as u32), NodeId(v as u32))
                            .is_some(),
                        "non-duplex wiring"
                    );
                    down[u] = depth;
                    next.push(u as u32);
                }
            }
        }
        if next.is_empty() {
            break;
        }
        layers.push(next);
    }

    // Valley-free distances: dist_up(x) = min(dist_down(x), 1 + dist_up(y))
    // over up moves (x -> y). The downhill layers seed the buckets; bucket
    // d is final once reached, and an entry whose node has since been
    // reached closer is stale and skipped. Relaxing reads y's feeders,
    // taken from its out-links under the same duplex invariant.
    let mut up = down.clone();
    let mut d = 0;
    while d < layers.len() {
        let layer = std::mem::take(&mut layers[d]);
        let nd = d as u16 + 1;
        for &y in &layer {
            let y = y as usize;
            if up[y] != d as u16 {
                continue;
            }
            for &x in f.feeders(y) {
                let x = x as usize;
                if nd < up[x] {
                    debug_assert!(
                        topo.link_between(NodeId(x as u32), NodeId(y as u32))
                            .is_some(),
                        "non-duplex wiring"
                    );
                    up[x] = nd;
                    if layers.len() == nd as usize {
                        layers.push(Vec::new());
                    }
                    layers[nd as usize].push(x as u32);
                }
            }
        }
        d += 1;
    }

    DistField {
        dst,
        down,
        up,
        fabric,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::astral::{build_astral, AstralParams};
    use crate::ids::GpuId;

    fn fixture() -> (Topology, Router) {
        (build_astral(&AstralParams::sim_small()), Router::new())
    }

    /// GPUs on the same rail, same block: NIC→ToR→NIC = 2 hops.
    #[test]
    fn same_block_same_rail_is_two_hops() {
        let (t, r) = fixture();
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(4)));
        assert_eq!(r.distance(&t, a, b), Some(2));
    }

    /// Same rail, different block, same pod: NIC→ToR→Agg→ToR→NIC = 4 hops.
    #[test]
    fn cross_block_same_rail_is_four_hops() {
        let (t, r) = fixture();
        let p = AstralParams::sim_small();
        let gpus_per_block = p.hosts_per_block as u32 * p.rails as u32;
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(gpus_per_block)));
        assert_eq!(r.distance(&t, a, b), Some(4));
    }

    /// Cross-rail (same host even): must climb to a Core = 6 hops.
    #[test]
    fn cross_rail_goes_through_core() {
        let (t, r) = fixture();
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(1)));
        assert_eq!(r.distance(&t, a, b), Some(6));
        // The path's apex must be a Core switch.
        let path = r.path_with(&t, a, b, |_, _| 0).unwrap();
        let apex = path
            .iter()
            .map(|&l| t.node(t.link(l).dst).kind.tier())
            .max()
            .unwrap();
        assert_eq!(apex, 3);
    }

    /// Cross-pod same-rail also goes through Core (pods share cores).
    #[test]
    fn cross_pod_goes_through_core() {
        let (t, r) = fixture();
        let p = AstralParams::sim_small();
        let gpus_per_pod = p.hosts_per_block as u32 * p.rails as u32 * p.blocks_per_pod as u32;
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(gpus_per_pod)));
        assert_eq!(r.distance(&t, a, b), Some(6));
    }

    /// Every hop of a generated path must be a real link and the walk must
    /// land on the destination, valley-free.
    #[test]
    fn paths_are_wellformed_and_valley_free() {
        let (t, r) = fixture();
        let pairs = [(0u32, 9), (0, 37), (5, 250), (128, 3), (17, 17 + 32)];
        for (ga, gb) in pairs {
            let (a, b) = (t.gpu_nic(GpuId(ga)), t.gpu_nic(GpuId(gb)));
            let path = r.path_with(&t, a, b, |_, _| 0).unwrap();
            let f = Fabric::new(&t);
            let mut cur = a;
            let mut seen_down = false;
            for &l in &path {
                let link = t.link(l);
                assert_eq!(link.src, cur, "discontinuous path");
                let up = f.up_move(link.src.index(), link.dst.index());
                if up {
                    assert!(!seen_down, "valley: up move after down move");
                } else {
                    seen_down = true;
                }
                cur = link.dst;
            }
            assert_eq!(cur, b);
            assert_eq!(path.len() as u16, r.distance(&t, a, b).unwrap());
        }
    }

    /// Different chooser decisions give different equal-length paths,
    /// and the candidate sets are deterministic.
    #[test]
    fn ecmp_offers_multiple_paths() {
        let (t, r) = fixture();
        let p = AstralParams::sim_small();
        let gpb = p.hosts_per_block as u32 * p.rails as u32;
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(gpb)));
        let p0 = r.path_with(&t, a, b, |_, _| 0).unwrap();
        let p1 = r.path_with(&t, a, b, |_, hops| hops.len() - 1).unwrap();
        assert_eq!(p0.len(), p1.len());
        assert_ne!(p0, p1);
        // Same-rail cross-block: dual ToR sides × aggs_per_group paths.
        let count = r.path_count(&t, a, b);
        assert_eq!(
            count,
            (p.tors_per_rail as u64) * (p.aggs_per_group() as u64)
        );
    }

    /// path_count for cross-rail traffic: side × agg × core fan-out up,
    /// then the downhill side is determined by group wiring.
    #[test]
    fn cross_rail_path_count_matches_structure() {
        let (t, r) = fixture();
        let p = AstralParams::sim_small();
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(1)));
        // Up: 2 ToR sides × aggs_per_group aggs × cores_per_group cores.
        // Down from the core: exactly one agg per (group, rank) leads to the
        // dst rail's group per side → 2 down options at the core (dst sides).
        let expected = p.tors_per_rail as u64
            * p.aggs_per_group() as u64
            * p.cores_per_group() as u64
            * p.tors_per_rail as u64;
        assert_eq!(r.path_count(&t, a, b), expected);
    }

    #[test]
    fn distance_to_self_is_zero() {
        let (t, r) = fixture();
        let a = t.gpu_nic(GpuId(0));
        assert_eq!(r.distance(&t, a, a), Some(0));
        assert_eq!(r.path_with(&t, a, a, |_, _| 0), Some(vec![]));
    }

    #[test]
    fn cache_is_reused_and_clearable() {
        let (t, r) = fixture();
        let b = t.gpu_nic(GpuId(9));
        let f1 = r.dist_field(&t, b);
        let f2 = r.dist_field(&t, b);
        assert!(Arc::ptr_eq(&f1, &f2));
        r.clear();
        let f3 = r.dist_field(&t, b);
        assert!(!Arc::ptr_eq(&f1, &f3));
    }

    /// Wire ToR(rail 0) of GPU 0 straight to an Agg of rail 1's group:
    /// a cross-rail shortcut that turns GPU 0 → GPU 1 from 6 hops into 4.
    fn add_shortcut(t: &mut Topology) {
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(1)));
        let tor_a = t.link(t.out_links(a)[0]).dst;
        let tor_b = t.link(t.out_links(b)[0]).dst;
        let agg_b = t
            .out_links(tor_b)
            .iter()
            .map(|&l| t.link(l).dst)
            .find(|&n| t.node(n).kind.tier() == 2)
            .unwrap();
        let link = t.link(t.out_links(a)[0]);
        let (bw, lat) = (link.bandwidth_bps, link.latency);
        t.add_duplex(tor_a, agg_b, bw, lat);
    }

    /// After a mutation, `clear()` rebuilds the snapshot and fields from
    /// the new topology, exactly as a fresh router would.
    #[test]
    fn clear_rebuilds_snapshot_after_mutation() {
        let (mut t, r) = fixture();
        let (a, b) = (t.gpu_nic(GpuId(0)), t.gpu_nic(GpuId(1)));
        assert_eq!(r.distance(&t, a, b), Some(6));
        let before = r.dist_field(&t, b);
        add_shortcut(&mut t);
        r.clear();

        let fresh = Router::new();
        let (got, want) = (r.dist_field(&t, b), fresh.dist_field(&t, b));
        assert_eq!(*got.fabric, *want.fabric);
        assert_eq!(got.fabric.epoch, t.epoch());
        assert_eq!((&got.down, &got.up), (&want.down, &want.up));
        assert_eq!(got.fabric.link.len(), before.fabric.link.len() + 2);
        assert_eq!(r.distance(&t, a, b), Some(4));
        for cur in [a, t.link(t.out_links(a)[0]).dst] {
            for phase in [Phase::Up, Phase::Down] {
                assert_eq!(
                    r.next_hops(&t, cur, phase, b),
                    fresh.next_hops(&t, cur, phase, b)
                );
            }
        }
    }

    /// Routing over a snapshot older than the topology is a caller bug
    /// (a missing `clear()`); debug builds catch it on the next lookup,
    /// cached field or not.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale routing snapshot")]
    fn stale_snapshot_asserts_on_cached_field() {
        let (mut t, r) = fixture();
        let b = t.gpu_nic(GpuId(1));
        r.dist_field(&t, b);
        add_shortcut(&mut t);
        r.dist_field(&t, b);
    }

    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "stale routing snapshot")]
    fn stale_snapshot_asserts_on_new_field() {
        let (mut t, r) = fixture();
        r.dist_field(&t, t.gpu_nic(GpuId(1)));
        add_shortcut(&mut t);
        r.dist_field(&t, t.gpu_nic(GpuId(2)));
    }
}
