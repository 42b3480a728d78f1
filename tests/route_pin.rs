//! Route pins: the exact ECMP paths `NetworkSim::route` picks for a fixed
//! set of NIC pairs and source ports, folded into one FNV-1a digest per
//! fabric. Any change to distance fields, equal-cost candidate sets or
//! their order moves a digest, so routing rewrites must keep every path
//! bit-for-bit.

use astral::net::{ip_of_nic, FiveTuple, NetConfig, NetworkSim, EPHEMERAL_BASE};
use astral::topo::{
    build_astral, build_cross_dc, build_rail_only, AstralParams, CrossDcParams, GpuId, Topology,
};

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x100_0000_01b3)
}

/// Route `pairs` GPU pairs (the structural classes first, then a seeded
/// spread) under four source ports each and fold every path — its length,
/// then its link ids, or a marker for "no route" — into one digest.
fn route_digest(topo: &Topology, pairs: u32) -> u64 {
    let sim = NetworkSim::new(topo, NetConfig::default());
    let n = topo.gpu_count();
    let r = topo.rails() as u32;
    // Cross-rail on one host, same rail on the next host and 16 hosts on
    // (the next block of sim_medium), then the far end of the fabric.
    let mut gpu_pairs = vec![(0, 1), (0, r), (0, 16 * r), (3, n - 1), (n / 2, 5)];
    let mut s = 0x9e37_79b9_7f4a_7c15u64;
    while gpu_pairs.len() < pairs as usize {
        s = s
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        gpu_pairs.push(((s >> 33) as u32 % n, (s >> 11) as u32 % n));
    }
    let mut d = FNV_BASIS;
    for (ga, gb) in gpu_pairs {
        let (a, b) = (topo.gpu_nic(GpuId(ga)), topo.gpu_nic(GpuId(gb)));
        for k in 0..4u16 {
            let sport = EPHEMERAL_BASE | (k * 977 + 1);
            let tuple = FiveTuple::roce(ip_of_nic(a), ip_of_nic(b), sport);
            match sim.route(a, b, &tuple) {
                Some(path) => {
                    d = fnv(d, path.len() as u64);
                    for l in path {
                        d = fnv(d, l.0 as u64);
                    }
                }
                None => d = fnv(d, u64::MAX),
            }
        }
    }
    d
}

#[test]
fn sim_medium_routes_are_pinned() {
    let topo = build_astral(&AstralParams::sim_medium());
    assert_eq!(route_digest(&topo, 192), 0x9c14_5b61_165b_ea49);
}

/// Cross-DC fabrics add lateral gateway hops; rail-only fabrics have no
/// cross-rail route at all.
#[test]
fn gateway_and_routeless_fabrics_are_pinned() {
    let cross = build_cross_dc(&CrossDcParams::sim_small(8.0));
    let mut p = AstralParams::sim_small();
    p.pods = 1;
    let rail_only = build_rail_only(&p);
    assert_eq!(
        (route_digest(&cross, 96), route_digest(&rail_only, 48)),
        (0xc0cd_c321_8f19_cb11, 0xcc1d_1bc4_f097_df09)
    );
}
