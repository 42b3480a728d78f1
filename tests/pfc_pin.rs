//! PFC pins: every link's pause time, ECN marks and bytes, and every
//! flow's finish time, folded into one FNV-1a digest per scenario on
//! `sim_small`. One scenario degrades a host under incast, restores it
//! mid-run and degrades it again, so PFC pauses start, stop and start
//! again; the other is a healthy all-to-all that must never pause. Any
//! change to how the event loop credits bytes, marks or pause time moves
//! a digest.

use astral::net::{FlowId, FlowSpec, FlowState, NetConfig, NetworkSim, QpContext};
use astral::sim::{SimDuration, SimTime};
use astral::topo::{build_astral, AstralParams, GpuId, HostId, Topology};

const FNV_BASIS: u64 = 0xcbf2_9ce4_8422_2325;

fn fnv(acc: u64, x: u64) -> u64 {
    (acc ^ x).wrapping_mul(0x100_0000_01b3)
}

/// Fold every link's counters, then every flow's finish time (or a marker
/// for "unfinished"), into one digest.
fn telemetry_digest(sim: &NetworkSim, flows: &[FlowId]) -> u64 {
    let mut d = FNV_BASIS;
    for c in &sim.telemetry().link {
        d = fnv(d, c.pfc_pause_ns);
        d = fnv(d, c.ecn_marks);
        d = fnv(d, c.bytes);
    }
    for &f in flows {
        d = fnv(d, sim.stats(f).finish.map_or(u64::MAX, |t| t.as_nanos()));
    }
    d
}

fn total_pause_ns(sim: &NetworkSim) -> u64 {
    sim.telemetry().link.iter().map(|c| c.pfc_pause_ns).sum()
}

/// Inject `bytes` from GPU `a` to GPU `b` at `at` on a fresh QP.
fn send(sim: &mut NetworkSim, topo: &Topology, at: SimTime, a: u32, b: u32, bytes: u64) -> FlowId {
    let qp = sim.register_qp_auto(
        topo.gpu_nic(GpuId(a)),
        topo.gpu_nic(GpuId(b)),
        QpContext::anonymous(),
    );
    sim.inject_at(
        at,
        FlowSpec {
            qp,
            bytes,
            weight: 1.0,
        },
    )
    .expect("sim_small routes every GPU pair")
}

/// Incast into host 0's GPUs from one GPU in each other block, plus a
/// same-ToR victim into host 1.
fn incast(sim: &mut NetworkSim, topo: &Topology, at: SimTime, flows: &mut Vec<FlowId>) {
    for blk in 1..=3u32 {
        for g in 0..4u32 {
            flows.push(send(sim, topo, at, 32 * blk + g, g, 200_000_000));
        }
    }
    flows.push(send(sim, topo, at, 32, 4, 400_000_000));
}

/// A PCIe-degraded host under incast: the degraded drain pauses its ToR's
/// ingress; restoring the host mid-run clears the pause while traffic
/// still flows; a second degrade under fresh incast pauses it again.
#[test]
fn degraded_host_incast_is_pinned() {
    let topo = build_astral(&AstralParams::sim_small());
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let mut flows = Vec::new();
    let restore_at = SimTime::ZERO + SimDuration::from_millis(40);
    let redegrade_at = SimTime::ZERO + SimDuration::from_millis(400);

    sim.degrade_host_at(SimTime::ZERO, HostId(0), 0.2);
    incast(&mut sim, &topo, SimTime::ZERO, &mut flows);
    sim.restore_host_at(restore_at, HostId(0));
    // Healthy traffic that spans the restore.
    for g in 0..8u32 {
        flows.push(send(
            &mut sim,
            &topo,
            restore_at,
            64 + g,
            128 + g,
            300_000_000,
        ));
    }
    sim.run_until(restore_at);
    let paused_before_restore = total_pause_ns(&sim);
    assert!(paused_before_restore > 0, "degraded drain must pause");

    // Once restored, no link gains pause time until the second degrade.
    sim.run_until(redegrade_at);
    assert_eq!(total_pause_ns(&sim), paused_before_restore);

    sim.degrade_host_at(redegrade_at, HostId(0), 0.3);
    incast(&mut sim, &topo, redegrade_at, &mut flows);
    sim.run_until_idle();
    assert!(total_pause_ns(&sim) > paused_before_restore);
    assert!(flows.iter().all(|&f| sim.stats(f).state == FlowState::Done));
    assert_eq!(telemetry_digest(&sim, &flows), 0x63ba_999a_abaf_06a0);
}

/// A healthy all-to-all among 32 GPUs spread over both pods: ECN marks and
/// bytes are pinned, and no link ever pauses.
#[test]
fn healthy_all_to_all_is_pinned() {
    let topo = build_astral(&AstralParams::sim_small());
    let mut sim = NetworkSim::new(&topo, NetConfig::default());
    let ranks: Vec<u32> = (0..32u32).map(|i| i * 8 + i % 4).collect();
    let mut flows = Vec::new();
    for &a in &ranks {
        for &b in &ranks {
            if a != b {
                flows.push(send(&mut sim, &topo, SimTime::ZERO, a, b, 8_000_000));
            }
        }
    }
    sim.run_until_idle();
    assert!(sim.telemetry().link.iter().all(|c| c.pfc_pause_ns == 0));
    assert!(flows.iter().all(|&f| sim.stats(f).state == FlowState::Done));
    assert_eq!(telemetry_digest(&sim, &flows), 0x8346_d79b_0a28_72c3);
}
