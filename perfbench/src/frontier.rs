//! `frontier_train`: one 256-rank training job on a 32,768-GPU fabric.
//!
//! Closed loop, one simulated job. The job is placed fragmented across all
//! 16 pods, and every training step runs a pairwise all-to-all and a ring
//! all-reduce through `CollectiveRunner::run_schedule` on the default
//! global solver. The run is a series of identical episodes; each starts
//! on a fresh `Router` (one cold step) and continues with warm steps, so
//! cold routing and the rate solver split the host time.

use crate::measure::{fnv, median, CpuTimer, FNV_BASIS};
use crate::trace::Recorder;
use crate::{time_setups, Named, Outcome, Plan};
use astral_collectives::{pairwise_all_to_all, ring_all_reduce, CollectiveRunner, RunnerConfig};
use astral_collectives::{CollectiveResult, Schedule};
use astral_core::{place_job, PlacementPolicy};
use astral_net::{ip_of_nic, FiveTuple, FlowId, FlowState, EPHEMERAL_BASE};
use astral_sim::SimRng;
use astral_topo::{build_astral, AstralParams, GpuId, NodeId, Topology};
use std::collections::BTreeSet;
use std::hint::black_box;
use std::time::Instant;

/// Ranks in the job.
const RANKS: u32 = 256;
/// Per-rank all-to-all buffer, bytes.
const A2A_BYTES: u64 = 64 << 20;
/// Per-rank all-reduce buffer, bytes.
const AR_BYTES: u64 = 64 << 20;
/// Warm steps after the cold step of each episode.
const WARM_STEPS: usize = 10;
/// Steps folded into the simulated-result digest: the cold step and the
/// first warm step, which every run reaches.
const DIGEST_STEPS: usize = 2;

/// 16 pods × 8 blocks × 32 hosts × 8 rails = 32,768 GPUs.
fn params() -> AstralParams {
    AstralParams {
        pods: 16,
        blocks_per_pod: 8,
        hosts_per_block: 32,
        ..AstralParams::sim_medium()
    }
}

/// What one collective of a step must do, derived from its schedule
/// outside the runner (PXN rail alignment as the runner applies it).
struct Expect {
    transfers: u64,
    flows: u64,
    network_bytes: u64,
    nvlink_bytes: u64,
}

/// The expectation for schedule `s`; also adds the (source NIC,
/// destination NIC) pairs the runner will route to `pairs`.
fn expect(
    topo: &Topology,
    group: &[GpuId],
    s: &Schedule,
    pairs: &mut BTreeSet<(NodeId, NodeId)>,
) -> Expect {
    let mut e = Expect {
        transfers: 0,
        flows: 0,
        network_bytes: 0,
        nvlink_bytes: 0,
    };
    for t in s.steps.iter().flatten() {
        e.transfers += 1;
        if t.bytes == 0 || t.src == t.dst {
            continue;
        }
        let (sg, dg) = (group[t.src], group[t.dst]);
        if topo.same_hb_domain(sg, dg) {
            e.nvlink_bytes += t.bytes;
            continue;
        }
        let rail = topo.gpu_rail(dg);
        if topo.gpu_rail(sg) != rail {
            e.nvlink_bytes += t.bytes;
        }
        let src_nic = topo.host(topo.gpu_host(sg)).nics[rail as usize];
        pairs.insert((src_nic, topo.gpu_nic(dg)));
        e.flows += 1;
        e.network_bytes += t.bytes;
    }
    e
}

/// Everything the measured loop needs, built by one set-up.
struct Setup {
    topo: Topology,
    group: Vec<GpuId>,
}

fn setup(seed: u64) -> Setup {
    let topo = build_astral(&params());
    let placed = place_job(
        &topo,
        RANKS,
        PlacementPolicy::FragmentedAcrossPods { pods: 16 },
    );
    // The seed permutes whole hosts over rank slots; each host keeps its
    // rails in order, so tensor-parallel neighbours stay on NVLink.
    let rails = topo.rails() as usize;
    let mut hosts: Vec<&[GpuId]> = placed.chunks(rails).collect();
    SimRng::new(seed).shuffle(&mut hosts);
    let group = hosts.concat();
    Setup { topo, group }
}

/// Check one collective's result against its expectation, including that
/// every flow it injected (ids `first..first + flows`) delivered its bytes.
fn check(runner: &CollectiveRunner, r: &CollectiveResult, e: &Expect, first: u64) -> bool {
    let sim = runner.sim();
    let flows_ok = (first..first + e.flows).all(|i| {
        let st = sim.stats(FlowId(i as u32));
        st.state == FlowState::Done
            && (st.delivered - st.bytes as f64).abs() <= 1e-6 * st.bytes as f64
    });
    flows_ok
        && r.failed_flows == 0
        && r.network_bytes == e.network_bytes
        && r.nvlink_bytes == e.nvlink_bytes
}

/// Warm the fresh router the first step will use, one layer call at a
/// time: distance fields per destination, then one path walk per NIC pair
/// (which also builds each destination's hop table). Traced runs only.
fn warm_routes(runner: &CollectiveRunner, pairs: &BTreeSet<(NodeId, NodeId)>, rec: &mut Recorder) {
    let sim = runner.sim();
    let topo = sim.topology();
    let dsts: BTreeSet<NodeId> = pairs.iter().map(|&(_, d)| d).collect();
    rec.span("topo.route_field", || {
        for &d in &dsts {
            black_box(sim.router().dist_field(topo, d));
        }
    });
    rec.add("topo.route_fields", dsts.len() as f64);
    rec.span("topo.path_walk", || {
        for &(s, d) in pairs {
            let tuple = FiveTuple::roce(ip_of_nic(s), ip_of_nic(d), EPHEMERAL_BASE | 1);
            black_box(sim.route(s, d, &tuple));
        }
    });
    rec.add("topo.paths_walked", pairs.len() as f64);
}

fn record_step(rec: &mut Recorder, results: [&CollectiveResult; 2], transfers: u64) {
    rec.add("collectives.transfers", transfers as f64);
    for r in results {
        let c = &r.solver;
        rec.add("net.events", c.events as f64);
        rec.add("net.solves", (c.full_solves + c.incremental_solves) as f64);
        rec.add("net.full_solves", c.full_solves as f64);
        rec.add("net.links_scanned", c.links_scanned as f64);
        rec.add("net.flows_resolved", c.flows_resolved as f64);
        rec.peak("net.peak_arena_bytes", c.peak_arena_bytes as f64);
    }
}

fn fold_result(mut d: u64, r: &CollectiveResult) -> u64 {
    d = fnv(d, r.duration.as_nanos());
    for s in &r.step_durations {
        d = fnv(d, s.as_nanos());
    }
    d = fnv(d, r.network_bytes);
    fnv(d, r.nvlink_bytes)
}

/// Run the workload.
pub fn run(plan: &Plan, rec: &mut Recorder) -> Outcome {
    let Setup { topo, group } = setup(plan.seed);
    let n = group.len();

    // Expectations and the NIC pairs the step routes, from one expansion
    // outside the timed loop.
    let mut pairs = BTreeSet::new();
    let e_a2a = expect(
        &topo,
        &group,
        &pairwise_all_to_all(n, A2A_BYTES),
        &mut pairs,
    );
    let e_ar = expect(&topo, &group, &ring_all_reduce(n, AR_BYTES), &mut pairs);

    let aliases = [
        "flows_per_s, cold steps included",
        "warm_step_p50",
        "warm_step_tail",
    ];
    let mut o = Outcome::new(50.0, aliases);
    let mut cold_s = Vec::new();
    let mut digest = FNV_BASIS;
    let mut episodes = 0u64;
    let began = Instant::now();
    while plan.more(began, episodes) {
        let mut runner = CollectiveRunner::new(&topo, RunnerConfig::default());
        let mut flows_before = 0u64;
        for step in 0..=WARM_STEPS {
            rec.set_op(o.attempted);
            let t = CpuTimer::start();
            if step == 0 && rec.on() {
                warm_routes(&runner, &pairs, rec);
            }
            let a2a = rec.span("collectives.expand", || pairwise_all_to_all(n, A2A_BYTES));
            let r_a2a = rec.span("collectives.run", || runner.run_schedule(&group, &a2a));
            let ar = rec.span("collectives.expand", || ring_all_reduce(n, AR_BYTES));
            let r_ar = rec.span("collectives.run", || runner.run_schedule(&group, &ar));
            let dt = t.elapsed_s();
            o.busy_s += dt;
            if step == 0 {
                cold_s.push(dt);
            } else {
                o.op_ms.push(dt * 1e3);
            }
            record_step(rec, [&r_a2a, &r_ar], e_a2a.transfers + e_ar.transfers);

            let ok = check(&runner, &r_a2a, &e_a2a, flows_before)
                && check(&runner, &r_ar, &e_ar, flows_before + e_a2a.flows);
            flows_before += e_a2a.flows + e_ar.flows;
            o.attempted += 1;
            o.failed += u64::from(!ok);
            o.items += e_a2a.flows + e_ar.flows;
            if episodes == 0 && step < DIGEST_STEPS {
                digest = fold_result(fold_result(digest, &r_a2a), &r_ar);
                o.digest_ops += 1;
            }
        }
        episodes += 1;
    }
    o.units = episodes;
    o.digest = digest;
    drop((topo, group));
    o.setup_s = time_setups(plan.setups, || setup(plan.seed));

    o.named = vec![Named::new(
        "cold_step_s",
        median(&cold_s),
        "s",
        format!("median of {} episodes", cold_s.len()),
    )];
    o
}
