//! `whatif_hot` and `whatif_sweep`: one closed-loop client sending batches
//! of 256 what-if queries to one `SeerService`.
//!
//! `whatif_hot` draws every query from a mix of about 20 what-ifs whose
//! forecasts are cached during set-up, so every query is a cache hit.
//! `whatif_sweep` cycles through a seeded universe of distinct scenarios
//! larger than the forecast cache, in a fixed order, so every query misses
//! the FIFO cache and is priced, reusing the operator memo.

use crate::measure::{fnv, CpuTimer, FNV_BASIS};
use crate::trace::Recorder;
use crate::{time_setups, Named, Outcome, Plan};
use astral_model::{ModelConfig, ParallelismConfig};
use astral_seer::{
    run_grid_with, Calibration, CommCalibration, CommKind, CommScope, EfficiencyCurve, GpuSpec,
    GridPoint, LinkClass, NetworkSpec, ScenarioSpec, SeerConfig, SeerService, Testbed, WhatIf,
    WhatIfQuery,
};
use astral_sim::SimRng;
use astral_topo::{build_astral, AstralParams};
use std::hint::black_box;
use std::time::Instant;

/// Queries per `answer_batch` call.
const BATCH: usize = 256;
/// Batches pre-drawn for `whatif_hot`; the loop cycles through them.
const HOT_BATCHES: usize = 64;
/// Distinct scenarios `whatif_sweep` cycles through: more than the
/// service's 4,096-entry forecast cache.
const SWEEP_SCENARIOS: usize = 6144;
/// Topology fingerprint of the baseline fabric.
const BASE_TOPO: u64 = 0x5eed_ca11;

/// Which of the two what-if workloads runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Mode {
    /// Every query a cache hit.
    Hot,
    /// Every query a distinct, priced scenario.
    Sweep,
}

/// Constant sub-unity efficiency curves plus per-scope comm entries, so
/// pricing runs the calibrated path while staying exactly reproducible.
fn calibration() -> Calibration {
    let mut cal = Calibration::ideal();
    cal.compute = EfficiencyCurve::constant(0.85);
    cal.memory = EfficiencyCurve::constant(0.80);
    for (scope, alpha_s, eff) in [
        (CommScope::Nvlink, 3e-6, 0.85),
        (CommScope::Rail, 9e-6, 0.75),
        (CommScope::CrossRail, 14e-6, 0.65),
        (CommScope::CrossDc, 1e-3, 0.55),
    ] {
        cal.comm.insert(
            (scope, CommKind::Ring),
            CommCalibration {
                alpha_s,
                eff: EfficiencyCurve::constant(eff),
            },
        );
    }
    cal
}

/// The baseline every what-if perturbs: a 32-layer LLaMA-3-8B-shaped model
/// on the Astral H100 fabric at TP4×PP2×DP4.
fn baseline() -> ScenarioSpec {
    let mut model = ModelConfig::llama3_8b();
    model.layers = 32;
    model.hidden = 2048;
    model.ffn_hidden = 8192;
    model.vocab = 32000;
    model.seq_len = 2048;
    ScenarioSpec {
        model,
        par: ParallelismConfig::new(4, 2, 4),
        cfg: SeerConfig {
            gpu: GpuSpec::h100(),
            net: NetworkSpec::astral(),
            calibration: calibration(),
        },
        topo_fingerprint: BASE_TOPO,
    }
}

/// (tp, pp, dp) shapes with pairwise distinct (tp, pp), so a shape plus a
/// DP multiplier resolves to a distinct parallelism.
const SHAPES: [(u32, u32, u32); 8] = [
    (2, 2, 8),
    (8, 2, 2),
    (4, 4, 2),
    (2, 4, 4),
    (8, 1, 4),
    (4, 1, 8),
    (2, 1, 16),
    (8, 4, 1),
];
/// HB-domain sizes a topology swap may pick.
const HB_DOMAINS: [u32; 4] = [8, 16, 32, 64];

fn swap_topology(hb: u32) -> WhatIf {
    WhatIf::SwapTopology {
        net: NetworkSpec::astral_with_hb_domain(hb),
        topo_fingerprint: BASE_TOPO ^ hb as u64,
    }
}

/// The hot mix: scale-out, topology swaps, parallelism re-shapes and
/// link-class degradations around the baseline.
fn hot_mix() -> Vec<WhatIfQuery> {
    let mut mix = vec![WhatIfQuery::baseline()];
    for factor in [2u32, 4, 8] {
        mix.push(WhatIfQuery::one(WhatIf::ScaleDp { factor }));
    }
    for hb in [16u32, 32, 64] {
        mix.push(WhatIfQuery::one(swap_topology(hb)));
    }
    for (tp, pp, dp) in SHAPES {
        mix.push(WhatIfQuery::one(WhatIf::SetParallelism { tp, pp, dp }));
    }
    for class in [LinkClass::Nvlink, LinkClass::Rail] {
        for factor in [0.5, 0.25] {
            mix.push(WhatIfQuery::one(WhatIf::DegradeLinkClass { class, factor }));
        }
    }
    mix
}

/// The sweep universe: `SWEEP_SCENARIOS` distinct points of the product
/// shape × DP multiplier × HB domain × degraded class × degradation,
/// chosen and ordered by the seed. Every component changes the resolved
/// scenario, so distinct points resolve to distinct digests.
fn sweep_universe(seed: u64) -> Vec<WhatIfQuery> {
    const SCALES: u32 = 8;
    const DEGRADES: u32 = 16;
    let classes = [LinkClass::Nvlink, LinkClass::Rail];
    let total = SHAPES.len() as u32 * SCALES * HB_DOMAINS.len() as u32 * 2 * DEGRADES;
    let mut ids: Vec<u32> = (0..total).collect();
    SimRng::new(seed).shuffle(&mut ids);
    ids.truncate(SWEEP_SCENARIOS);
    ids.into_iter()
        .map(|mut id| {
            let mut digit = |n: u32| {
                let d = id % n;
                id /= n;
                d as usize
            };
            let (tp, pp, dp) = SHAPES[digit(SHAPES.len() as u32)];
            let factor = 1 + digit(SCALES) as u32;
            let hb = HB_DOMAINS[digit(HB_DOMAINS.len() as u32)];
            let class = classes[digit(2)];
            let degrade = 0.2 + 0.05 * digit(DEGRADES) as f64;
            WhatIfQuery::of(vec![
                WhatIf::SetParallelism { tp, pp, dp },
                WhatIf::ScaleDp { factor },
                swap_topology(hb),
                WhatIf::DegradeLinkClass {
                    class,
                    factor: degrade,
                },
            ])
        })
        .collect()
}

/// Everything the measured loop needs, built by one set-up.
struct Setup {
    svc: SeerService,
    /// Distinct queries; batches refer to them by index.
    queries: Vec<WhatIfQuery>,
    /// Batches, as indices into `queries`, served in order and cycled.
    batches: Vec<Vec<usize>>,
}

fn setup(mode: Mode, seed: u64) -> Setup {
    let mut svc = SeerService::new(baseline());
    match mode {
        Mode::Hot => {
            let queries = hot_mix();
            for q in &queries {
                svc.answer(q);
            }
            let mut rng = SimRng::new(seed);
            let batches = (0..HOT_BATCHES)
                .map(|_| {
                    (0..BATCH)
                        .map(|_| rng.below(queries.len() as u64) as usize)
                        .collect()
                })
                .collect();
            Setup {
                svc,
                queries,
                batches,
            }
        }
        Mode::Sweep => {
            let queries = sweep_universe(seed);
            let batches = (0..queries.len())
                .collect::<Vec<_>>()
                .chunks(BATCH)
                .map(<[usize]>::to_vec)
                .collect();
            Setup {
                svc,
                queries,
                batches,
            }
        }
    }
}

/// Mean |calibrated Seer − testbed| / testbed iteration time, percent, on
/// dense models held out from the calibration.
fn forecast_err_pct(pool: &astral_exec::Pool) -> f64 {
    let topo = build_astral(&AstralParams::sim_small());
    let testbed = Testbed::new(&topo, GpuSpec::h100());
    let mut par = ParallelismConfig::new(4, 2, 4);
    par.microbatches = 4;
    let cal = testbed.calibrate(&par, 42);
    let mut net = NetworkSpec::astral();
    net.hb_domain = topo.hb_domain().gpus_per_domain;
    net.rails = topo.rails() as u32;
    let dense = |mut m: ModelConfig, label: &str| {
        m.layers = 8;
        m.seq_len = m.seq_len.min(4096);
        m.hidden = 2048;
        m.heads = 16;
        m.kv_heads = 4;
        m.ffn_hidden = 8192;
        GridPoint {
            label: label.to_string(),
            model: m,
            par,
        }
    };
    let points = [
        dense(ModelConfig::llama2_70b(), "llama2"),
        dense(ModelConfig::llama3_8b(), "llama3-8b"),
        dense(ModelConfig::llama3_70b(), "llama3-70b"),
    ];
    let out = run_grid_with(pool, &topo, &GpuSpec::h100(), &net, &cal, &points);
    out.iter().map(|o| o.calibrated_dev).sum::<f64>() / out.len() as f64 * 100.0
}

/// Run the workload.
pub fn run(mode: Mode, plan: &Plan, rec: &mut Recorder) -> Outcome {
    let Setup {
        mut svc,
        queries,
        batches,
    } = setup(mode, plan.seed);
    let stats0 = svc.stats();

    let aliases = ["whatif_qps", "batch_p50_ms", "batch_tail_ms"];
    let tail_p = match mode {
        Mode::Hot => 99.0,
        Mode::Sweep => 50.0,
    };
    let mut o = Outcome::new(tail_p, aliases);
    // First answer seen per distinct query; every later answer must match.
    let mut seen: Vec<Option<u64>> = vec![None; queries.len()];
    let mut batch: Vec<WhatIfQuery> = Vec::with_capacity(BATCH);
    let began = Instant::now();
    while plan.more(began, o.units) {
        let idx = &batches[o.units as usize % batches.len()];
        batch.clear();
        batch.extend(idx.iter().map(|&i| queries[i].clone()));
        rec.set_op(o.units);
        let before = svc.stats().forecast_misses;
        let t = CpuTimer::start();
        if rec.on() {
            let probe = CpuTimer::start();
            let specs: Vec<ScenarioSpec> = rec.span("seer.resolve", || {
                batch.iter().map(|q| svc.resolve(q)).collect()
            });
            rec.span("seer.digest", || {
                for spec in &specs {
                    black_box(spec.digest());
                }
            });
            rec.span("bench.probe_free", || drop(specs));
            o.probe_s += probe.elapsed_s();
        }
        let open = rec.begin("seer.answer_hit");
        let answers = svc.answer_batch(&plan.pool, &batch);
        let missed = svc.stats().forecast_misses > before;
        rec.end_as(open, missed.then_some("seer.answer_miss"));
        let dt = t.elapsed_s();
        o.busy_s += dt;
        o.op_ms.push(dt * 1e3);
        o.items += answers.len() as u64;
        o.units += 1;

        for (&i, a) in idx.iter().zip(&answers) {
            let bits = a.forecast.bits_fingerprint();
            let first = *seen[i].get_or_insert(bits);
            o.failed += u64::from(first != bits);
        }
        o.attempted += answers.len() as u64;
    }

    // Each distinct scenario's answer must equal the uncached forecast
    // bitwise; the digest folds them in query order.
    let answered: Vec<usize> = (0..queries.len()).filter(|&i| seen[i].is_some()).collect();
    let oracle = plan.pool.map(&answered, |&i| {
        svc.forecast_uncached(&queries[i]).bits_fingerprint()
    });
    let mut digest = FNV_BASIS;
    for (&i, want) in answered.iter().zip(oracle) {
        let got = seen[i].expect("answered");
        if got != want {
            eprintln!("query {i}: cached answer differs from the uncached forecast");
            o.failed += 1;
        }
        digest = fnv(digest, got);
    }
    o.digest = digest;
    o.digest_ops = answered.len() as u64;

    let st = svc.stats();
    rec.add(
        "seer.forecast_hits",
        (st.forecast_hits - stats0.forecast_hits) as f64,
    );
    rec.add(
        "seer.forecast_misses",
        (st.forecast_misses - stats0.forecast_misses) as f64,
    );
    rec.add(
        "seer.forecast_evictions",
        (st.forecast_evictions - stats0.forecast_evictions) as f64,
    );
    rec.add("seer.op_hits", (st.op_hits - stats0.op_hits) as f64);
    rec.add("seer.op_misses", (st.op_misses - stats0.op_misses) as f64);
    rec.add(
        "seer.op_evictions",
        (st.op_evictions - stats0.op_evictions) as f64,
    );

    if mode == Mode::Sweep {
        let err = forecast_err_pct(&plan.pool);
        o.named.push(Named::new(
            "forecast_err_pct",
            err,
            "%",
            "3 dense models held out from calibration".into(),
        ));
    }
    drop((svc, queries, batches));
    o.setup_s = time_setups(plan.setups, || setup(mode, plan.seed));
    o
}
