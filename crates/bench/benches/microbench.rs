//! Criterion micro-benchmarks over the performance-sensitive substrates:
//! the event queue, ECMP routing, max-min fairness, collective expansion,
//! the end-to-end Seer forecast (the paper's "within seconds" claim), and
//! the hierarchical analyzer.

use criterion::{black_box, criterion_group, criterion_main, Criterion};

fn event_queue(c: &mut Criterion) {
    use astral_sim::{EventQueue, SimTime};
    c.bench_function("event_queue/push_pop_10k", |b| {
        b.iter(|| {
            let mut q = EventQueue::new();
            for i in 0..10_000u64 {
                q.schedule(SimTime::from_nanos((i * 2654435761) % 1_000_000), i);
            }
            let mut acc = 0u64;
            while let Some((_, v)) = q.pop() {
                acc = acc.wrapping_add(v);
            }
            black_box(acc)
        })
    });
}

fn ecmp_routing(c: &mut Criterion) {
    use astral_net::{simulate_route, EcmpHasher};
    use astral_topo::{build_astral, AstralParams, GpuId, Router};
    let topo = build_astral(&AstralParams::sim_medium());
    let router = Router::new();
    let hasher = EcmpHasher::default();
    // Warm the distance-field cache the way steady-state traffic would.
    for g in 0..64u32 {
        simulate_route(
            &topo,
            &router,
            &hasher,
            topo.gpu_nic(GpuId(0)),
            topo.gpu_nic(GpuId(1024 + g)),
            50_000,
        );
    }
    c.bench_function("routing/path_with_cached_fields", |b| {
        let mut sport = 49152u16;
        b.iter(|| {
            sport = sport.wrapping_add(1);
            black_box(simulate_route(
                &topo,
                &router,
                &hasher,
                topo.gpu_nic(GpuId(0)),
                topo.gpu_nic(GpuId(1024 + (sport as u32 % 64))),
                sport,
            ))
        })
    });

    // One never-seen destination per call on the 32,768-GPU fabric of the
    // repo benchmark's frontier_train: the per-field cost every fresh
    // simulation pays once per destination NIC. The warm-up call reads
    // the router's topology snapshot, so timed calls price the field only.
    let frontier = build_astral(&AstralParams {
        pods: 16,
        blocks_per_pod: 8,
        hosts_per_block: 32,
        ..AstralParams::sim_medium()
    });
    let cold = Router::new();
    let mut next = 0u32;
    c.bench_function("routing/cold_dist_field", |b| {
        b.iter(|| {
            next = (next + 1031) % frontier.gpu_count();
            black_box(cold.dist_field(&frontier, frontier.gpu_nic(GpuId(next))))
        })
    });
}

fn fairness(c: &mut Criterion) {
    use astral_net::max_min_rates;
    use astral_sim::SimRng;
    let mut rng = SimRng::new(7);
    let n_links = 512usize;
    let caps: Vec<f64> = (0..n_links)
        .map(|_| 100e9 + rng.below(300) as f64 * 1e9)
        .collect();
    let flows: Vec<Vec<u32>> = (0..256)
        .map(|_| (0..6).map(|_| rng.below(n_links as u64) as u32).collect())
        .collect();
    c.bench_function("fairness/max_min_256_flows_512_links", |b| {
        b.iter(|| black_box(max_min_rates(&caps, &flows, None)))
    });
}

fn collective_expansion(c: &mut Criterion) {
    use astral_collectives::{pairwise_all_to_all, ring_all_reduce};
    c.bench_function("collectives/ring_allreduce_schedule_256", |b| {
        b.iter(|| black_box(ring_all_reduce(256, 1 << 30)))
    });
    c.bench_function("collectives/alltoall_schedule_256", |b| {
        b.iter(|| black_box(pairwise_all_to_all(256, 1 << 30)))
    });
}

fn seer_forecast(c: &mut Criterion) {
    use astral_model::{ModelConfig, ParallelismConfig};
    use astral_seer::{Seer, SeerConfig};
    // The headline workload: a full GPT-3-175B iteration (~100k operators).
    let model = ModelConfig::gpt3_175b();
    let mut par = ParallelismConfig::new(8, 8, 4);
    par.microbatches = 16;
    let seer = Seer::new(SeerConfig::h100_astral_basic());
    let mut group = c.benchmark_group("seer");
    group.sample_size(10);
    group.bench_function("forecast_gpt3_175b_iteration", |b| {
        b.iter(|| black_box(seer.forecast_training(&model, &par).iteration_s))
    });
    group.finish();
}

fn analyzer(c: &mut Criterion) {
    use astral_monitor::{run_fault_scenario, Analyzer, Fault, ScenarioConfig};
    use astral_topo::{build_astral, AstralParams, HostId};
    let topo = build_astral(&AstralParams::sim_small());
    let outcome = run_fault_scenario(
        &topo,
        Fault::PcieDegrade {
            host: HostId(0),
            factor: 0.2,
        },
        &ScenarioConfig::default(),
    );
    let analyzer = Analyzer::new();
    c.bench_function("monitor/hierarchical_diagnosis", |b| {
        b.iter(|| black_box(analyzer.diagnose(&outcome.snapshot, &outcome.prober)))
    });
}

fn flow_sim(c: &mut Criterion) {
    use astral_collectives::{pairwise_all_to_all, CollectiveRunner, RunnerConfig};
    use astral_core::{place_job, PlacementPolicy};
    use astral_topo::{build_astral, AstralParams, GpuId};
    let topo = build_astral(&AstralParams::sim_small());
    let group: Vec<GpuId> = (0..16).map(|h| GpuId(h * 4)).collect();
    let mut g = c.benchmark_group("flowsim");
    g.sample_size(20);
    g.bench_function("allreduce_16_ranks_64MiB", |b| {
        b.iter(|| {
            let mut runner = CollectiveRunner::new(&topo, RunnerConfig::default());
            black_box(runner.all_reduce(&group, 64 << 20).duration)
        })
    });

    // One warm 256-rank pairwise all-to-all on the 32,768-GPU fabric of
    // the repo benchmark's frontier_train. One untimed step first caches
    // every route, so timed calls price the event loop and rate solver.
    // On a healthy fabric an event's cost follows the flows it touches,
    // not the fabric's 262,144 links.
    let frontier = build_astral(&AstralParams {
        pods: 16,
        blocks_per_pod: 8,
        hosts_per_block: 32,
        ..AstralParams::sim_medium()
    });
    let ranks = place_job(
        &frontier,
        256,
        PlacementPolicy::FragmentedAcrossPods { pods: 16 },
    );
    let a2a = pairwise_all_to_all(ranks.len(), 64 << 20);
    let mut runner = CollectiveRunner::new(&frontier, RunnerConfig::default());
    runner.run_schedule(&ranks, &a2a);
    g.sample_size(3);
    g.bench_function("warm_a2a_step_32k", |b| {
        b.iter(|| black_box(runner.run_schedule(&ranks, &a2a).duration))
    });
    g.finish();
}

/// Per-event recompute cost of the fair-share core: a steady pool of flows
/// with one flow finishing and one arriving — the dominant op in every
/// collective — in incremental vs full-rebuild mode.
fn solver_recompute(c: &mut Criterion) {
    use astral_net::{FlowSpec, NetConfig, NetworkSim, QpContext};
    use astral_sim::SimDuration;
    use astral_topo::{build_astral, AstralParams, GpuId};
    let topo = build_astral(&AstralParams::sim_small());
    let mut g = c.benchmark_group("solver");
    for (label, incremental) in [("full_rebuild", false), ("incremental", true)] {
        g.bench_function(&format!("churn_1_of_128_flows/{label}"), |b| {
            let cfg = NetConfig {
                incremental_solver: incremental,
                ..NetConfig::default()
            };
            let mut sim = NetworkSim::new(&topo, cfg);
            let n = 128u32;
            let qps: Vec<_> = (0..n)
                .map(|i| {
                    sim.register_qp(
                        topo.gpu_nic(GpuId(i)),
                        topo.gpu_nic(GpuId((i + n) % (2 * n))),
                        49_152 + i as u16,
                        QpContext::anonymous(),
                    )
                })
                .collect();
            // A long-lived background pool that stays active throughout.
            for &qp in &qps[1..] {
                sim.inject(FlowSpec {
                    qp,
                    bytes: u64::MAX / 4,
                    weight: 1.0,
                })
                .expect("routable");
            }
            let slice = SimDuration::from_secs_f64(1e-3);
            b.iter(|| {
                let id = sim
                    .inject(FlowSpec {
                        qp: qps[0],
                        bytes: 4 << 10,
                        weight: 1.0,
                    })
                    .expect("routable");
                while sim.stats(id).fct().is_none() {
                    let t = sim.now();
                    sim.run_until(t + slice);
                }
                black_box(sim.solver_counters().events)
            })
        });
    }
    g.finish();
}

/// End-to-end 256-GPU cluster-wide all-to-all — the scenario the ≥3×
/// speedup acceptance target is measured on (see perf_solver_alltoall).
fn solver_alltoall_e2e(c: &mut Criterion) {
    use astral_collectives::{CollectiveRunner, RunnerConfig};
    use astral_net::NetConfig;
    use astral_topo::{build_astral, AstralParams, GpuId};
    let topo = build_astral(&AstralParams::sim_small());
    let group: Vec<GpuId> = (0..topo.gpu_count() as u32).map(GpuId).collect();
    let mut g = c.benchmark_group("solver_e2e");
    g.sample_size(10);
    for (label, incremental) in [("full_rebuild", false), ("incremental", true)] {
        g.bench_function(&format!("alltoall_256_ranks_4MiB/{label}"), |b| {
            let cfg = RunnerConfig {
                net: NetConfig {
                    incremental_solver: incremental,
                    ..NetConfig::default()
                },
                ..RunnerConfig::default()
            };
            b.iter(|| {
                let mut runner = CollectiveRunner::new(&topo, cfg);
                black_box(runner.all_to_all(&group, 4 << 20).duration)
            })
        });
    }
    g.finish();
}

criterion_group!(
    benches,
    event_queue,
    ecmp_routing,
    fairness,
    collective_expansion,
    seer_forecast,
    analyzer,
    flow_sim,
    solver_recompute,
    solver_alltoall_e2e
);
criterion_main!(benches);
