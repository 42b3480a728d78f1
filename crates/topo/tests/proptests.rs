//! Property-based tests over the topology builders and router.

use astral_topo::{
    build_astral, build_clos, build_cross_dc, build_rail_only, build_rail_optimized, AstralParams,
    BaselineParams, CrossDcParams, GpuId, Hop, NodeId, NodeKind, Phase, Router, Topology,
};
use proptest::prelude::*;
use std::collections::VecDeque;

const PHASES: [Phase; 2] = [Phase::Up, Phase::Down];

/// The valley-free rules, restated from scratch: the phase after moving
/// `x → y` in `phase`, or `None` when the move is not allowed. Downhill
/// moves are always allowed and commit to descending; climbing (or the
/// lateral gateway ↔ gateway hop) is allowed only before that.
fn step(t: &Topology, x: NodeId, y: NodeId, phase: Phase) -> Option<Phase> {
    let (kx, ky) = (t.node(x).kind, t.node(y).kind);
    let gates = matches!(kx, NodeKind::DcGate { .. }) && matches!(ky, NodeKind::DcGate { .. });
    if ky.tier() < kx.tier() {
        Some(Phase::Down)
    } else if phase == Phase::Up && (ky.tier() > kx.tier() || gates) {
        Some(Phase::Up)
    } else {
        None
    }
}

/// Brute-force reference: BFS backwards from `dst` over the (node, phase)
/// state graph. `dist[node][0]` is the valley-free distance (phase Up),
/// `dist[node][1]` the downhill-only one (phase Down).
fn oracle_dist(t: &Topology, dst: NodeId) -> Vec<[Option<u16>; 2]> {
    let state = |n: NodeId, p: Phase| n.index() * 2 + (p == Phase::Down) as usize;
    let mut preds = vec![Vec::new(); t.nodes().len() * 2];
    for l in t.links() {
        for p in PHASES {
            if let Some(q) = step(t, l.src, l.dst, p) {
                preds[state(l.dst, q)].push(state(l.src, p));
            }
        }
    }
    let mut dist = vec![None; preds.len()];
    let mut queue = VecDeque::new();
    for p in PHASES {
        dist[state(dst, p)] = Some(0u16);
        queue.push_back(state(dst, p));
    }
    while let Some(s) = queue.pop_front() {
        let d = dist[s].unwrap();
        for &ps in &preds[s] {
            if dist[ps].is_none() {
                dist[ps] = Some(d + 1);
                queue.push_back(ps);
            }
        }
    }
    dist.chunks(2).map(|c| [c[0], c[1]]).collect()
}

/// Reference equal-cost set: every out-link (by link id) whose move keeps
/// the walk on a shortest valley-free path.
fn oracle_hops(
    t: &Topology,
    dist: &[[Option<u16>; 2]],
    cur: NodeId,
    phase: Phase,
    dst: NodeId,
) -> Vec<Hop> {
    let at = |n: NodeId, p: Phase| dist[n.index()][(p == Phase::Down) as usize];
    let Some(d) = at(cur, phase).filter(|_| cur != dst) else {
        return Vec::new();
    };
    let mut links = t.out_links(cur).to_vec();
    links.sort();
    links
        .into_iter()
        .filter_map(|link| {
            let next = t.link(link).dst;
            let phase = step(t, cur, next, phase)?;
            (at(next, phase) == Some(d - 1)).then_some(Hop { link, phase })
        })
        .collect()
}

/// Check the router's fields and next hops toward the NICs of `gpus`
/// against the oracle on every node, in both phases.
fn check_against_oracle(t: &Topology, gpus: &[u32]) {
    let r = Router::new();
    for &g in gpus {
        let dst = t.gpu_nic(GpuId(g % t.gpu_count()));
        let dist = oracle_dist(t, dst);
        let field = r.dist_field(t, dst);
        for node in t.nodes() {
            let n = node.id;
            assert_eq!(field.up(n), dist[n.index()][0], "up at {n:?}");
            assert_eq!(field.down(n), dist[n.index()][1], "down at {n:?}");
            for p in PHASES {
                assert_eq!(
                    r.next_hops(t, n, p, dst),
                    oracle_hops(t, &dist, n, p, dst),
                    "next hops at {n:?} in {p:?}"
                );
            }
        }
    }
}

/// Strategy over small-but-varied Astral parameter sets.
fn params_strategy() -> impl Strategy<Value = AstralParams> {
    (1u16..=2, 2u16..=4, 1u8..=4, 1u8..=2).prop_map(|(pods, blocks, rails, tors)| {
        let mut p = AstralParams::sim_small();
        p.pods = pods;
        p.blocks_per_pod = blocks;
        p.hosts_per_block = 4; // keep aggs_per_group = 2 integral
        p.rails = rails;
        p.tors_per_rail = tors;
        p
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Every generated fabric validates and satisfies P2 (identical tier
    /// bandwidth).
    #[test]
    fn astral_builder_invariants(p in params_strategy()) {
        let t = build_astral(&p);
        prop_assert_eq!(t.validate(), Ok(()));
        prop_assert_eq!(t.gpu_count() as u64, p.scale().gpus_total);
        let t01 = t.tier_bandwidth(0, 1);
        let t12 = t.tier_bandwidth(1, 2);
        let t23 = t.tier_bandwidth(2, 3);
        prop_assert!((t01 - t12).abs() / t01 < 1e-9);
        prop_assert!((t12 - t23).abs() / t12 < 1e-9);
    }

    /// Router paths are connected, valley-free, loop-free, and match the
    /// reported distance, for arbitrary GPU pairs and arbitrary ECMP choices.
    #[test]
    fn router_paths_are_sound(
        p in params_strategy(),
        ga in 0u32..64,
        gb in 0u32..64,
        choice_seed in any::<u64>(),
    ) {
        let t = build_astral(&p);
        let n = t.gpu_count();
        let (ga, gb) = (GpuId(ga % n), GpuId(gb % n));
        let (a, b) = (t.gpu_nic(ga), t.gpu_nic(gb));
        let r = Router::new();
        let mut state = choice_seed;
        let path = r.path_with(&t, a, b, |_, hops| {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize % hops.len()
        });
        let path = path.expect("astral is fully connected");
        let dist = r.distance(&t, a, b).unwrap();
        prop_assert_eq!(path.len() as u16, dist);

        let mut cur = a;
        let mut went_down = false;
        let mut visited = std::collections::HashSet::new();
        for &l in &path {
            let link = t.link(l);
            prop_assert_eq!(link.src, cur);
            prop_assert!(visited.insert(link.src), "loop detected");
            let (ts, td) = (t.node(link.src).kind.tier(), t.node(link.dst).kind.tier());
            if td > ts {
                prop_assert!(!went_down, "valley routing");
            } else {
                went_down = true;
            }
            cur = link.dst;
        }
        prop_assert_eq!(cur, b);
    }

    /// All equal-cost candidates at every step lead to paths of equal total
    /// length (ECMP consistency).
    #[test]
    fn ecmp_candidates_are_truly_equal_cost(
        p in params_strategy(),
        ga in 0u32..64,
        gb in 0u32..64,
    ) {
        let t = build_astral(&p);
        let n = t.gpu_count();
        let (ga, gb) = (GpuId(ga % n), GpuId(gb % n));
        let (a, b) = (t.gpu_nic(ga), t.gpu_nic(gb));
        if a == b { return Ok(()); }
        let r = Router::new();
        let total = r.distance(&t, a, b).unwrap() as usize;
        // First-hop candidates: following any of them with first-choice
        // thereafter must complete in total-1 further hops.
        for hop in r.next_hops(&t, a, Phase::Up, b) {
            let mid = t.link(hop.link).dst;
            if mid == b { continue; }
            // Walk from mid with deterministic choices.
            let field_dist = match hop.phase {
                Phase::Up => r.dist_field(&t, b).up(mid),
                Phase::Down => r.dist_field(&t, b).down(mid),
            };
            prop_assert_eq!(field_dist, Some((total - 1) as u16));
        }
    }

    /// Distance fields and equal-cost next hops equal the brute-force
    /// state-graph oracle on every node of random Astral fabrics.
    #[test]
    fn astral_routing_matches_oracle(
        p in params_strategy(),
        gpus in proptest::collection::vec(0u32..1024, 3),
    ) {
        check_against_oracle(&build_astral(&p), &gpus);
    }

    /// The same on the baselines: rail-agnostic Clos, rail-optimized
    /// (full tier-2 mesh) and rail-only (no cross-rail route at all).
    #[test]
    fn baseline_routing_matches_oracle(
        oversub in 1.0f64..4.0,
        gpus in proptest::collection::vec(0u32..1024, 3),
    ) {
        let bp = BaselineParams::sim_small(oversub);
        let mut rail_only = bp.base.clone();
        rail_only.pods = 1;
        for t in [build_clos(&bp), build_rail_optimized(&bp), build_rail_only(&rail_only)] {
            check_against_oracle(&t, &gpus);
        }
    }

    /// The same across datacenters, where gateway ↔ gateway hops are
    /// lateral moves taken while still climbing.
    #[test]
    fn cross_dc_routing_matches_oracle(
        dcs in 2u16..=3,
        gateways in 1u16..=2,
        gpus in proptest::collection::vec(0u32..2048, 3),
    ) {
        let mut p = CrossDcParams::sim_small(4.0);
        p.dcs = dcs;
        p.gateways_per_dc = gateways;
        check_against_oracle(&build_cross_dc(&p), &gpus);
    }

    /// Baselines validate and keep host injection bandwidth identical to
    /// Astral for the same geometry.
    #[test]
    fn baselines_validate(oversub in 1.0f64..8.0) {
        let bp = BaselineParams::sim_small(oversub);
        for t in [build_clos(&bp), build_rail_optimized(&bp)] {
            prop_assert_eq!(t.validate(), Ok(()));
            let astral = build_astral(&bp.base);
            prop_assert!((t.tier_bandwidth(0, 1) - astral.tier_bandwidth(0, 1)).abs() < 1.0);
            // Oversubscription shows up at tier 3 only.
            let ratio = t.tier_bandwidth(1, 2) / t.tier_bandwidth(2, 3);
            prop_assert!((ratio - oversub).abs() / oversub < 1e-6);
        }
    }

    /// GPU ↔ NIC geometry is a bijection onto NIC nodes.
    #[test]
    fn gpu_nic_mapping_is_bijective(p in params_strategy()) {
        let t = build_astral(&p);
        let mut seen = std::collections::HashSet::new();
        for g in 0..t.gpu_count() {
            let nic = t.gpu_nic(GpuId(g));
            let is_nic = matches!(t.node(nic).kind, NodeKind::Nic { .. });
            prop_assert!(is_nic);
            prop_assert!(seen.insert(nic), "two GPUs share a NIC");
        }
        prop_assert_eq!(seen.len(), t.tier_count(0));
    }
}
