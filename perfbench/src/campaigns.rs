//! `fault_campaigns`: the fault lifecycle run as campaigns on `sim_small`.
//!
//! Closed loop, one campaign at a time on the 256-GPU fabric. Campaigns
//! cycle through a fixed mix: seeded cascade campaigns for each substrate
//! hazard (`try_run_cascade`), seeded gray-fault runs under the gray-aware
//! recovery policy (`try_run_training`), and seeded fleet campaigns under
//! first-fit, blast-radius and Seer-admission policies
//! (`try_run_fleet_campaign_with`). Each campaign's seed is drawn from the
//! run's seed.

use crate::measure::{fnv_str, CpuTimer, FNV_BASIS};
use crate::trace::Recorder;
use crate::{time_setups, Outcome, Plan};
use astral_collectives::RunnerConfig;
use astral_core::{
    try_run_cascade, try_run_training, CascadeScript, FaultCampaign, FaultScript, HazardRates,
    InjectedFault, RecoveryPolicy, RecoveryReport, TrainingJobSpec,
};
use astral_exec::Pool;
use astral_fleet::{
    try_run_fleet_campaign_with, FleetCampaign, FleetFaultConfig, FleetPolicy, FleetReport,
    PlacementStrategy, WorkloadConfig,
};
use astral_sim::SimRng;
use astral_topo::{build_astral, AstralParams, Topology};
use std::time::Instant;

/// Campaign inputs generated per run; the loop cycles through them.
const CAMPAIGNS: usize = 4096;
/// Campaigns re-run on a pool of another width to check their
/// fingerprints.
const RECHECKS: usize = 4;
/// Campaigns folded into the simulated-result digest: one full cycle of
/// the mix, which every run reaches.
const DIGEST_CAMPAIGNS: usize = MIX.len();

/// One campaign kind of the mix.
#[derive(Debug, Clone, Copy)]
enum Kind {
    Cascade(HazardRates),
    Gray,
    Fleet(FleetPoint),
}

#[derive(Debug, Clone, Copy)]
enum FleetPoint {
    FirstFit,
    BlastRadius,
    SeerAdmission,
}

const fn hazards(grid_sag: f64, pump: f64, optics: f64) -> HazardRates {
    HazardRates {
        grid_sag,
        pump,
        optics,
    }
}

const POWER: Kind = Kind::Cascade(hazards(0.06, 0.0, 0.0));
const COOLING: Kind = Kind::Cascade(hazards(0.0, 0.06, 0.0));
const OPTICS: Kind = Kind::Cascade(hazards(0.0, 0.0, 0.06));

/// The mix, cycled in order. Cascades are the majority, so the median
/// campaign is a cascade; fleet campaigns are the longest, so the tail is
/// a fleet campaign.
const MIX: [Kind; 13] = [
    POWER,
    COOLING,
    OPTICS,
    Kind::Fleet(FleetPoint::FirstFit),
    POWER,
    COOLING,
    OPTICS,
    Kind::Gray,
    POWER,
    COOLING,
    OPTICS,
    Kind::Fleet(FleetPoint::BlastRadius),
    Kind::Fleet(FleetPoint::SeerAdmission),
];

/// One campaign's inputs, generated during set-up.
#[derive(Debug, Clone)]
enum Input {
    Cascade(TrainingJobSpec, CascadeScript),
    Gray(TrainingJobSpec, FaultScript),
    Fleet(FleetPolicy, FleetCampaign),
}

impl Input {
    fn new(kind: Kind, seed: u64) -> Self {
        match kind {
            Kind::Cascade(hazards) => {
                let campaign = FaultCampaign {
                    scripted: CascadeScript::default(),
                    hazards,
                    horizon_iters: 20,
                    seed,
                };
                Input::Cascade(cascade_spec(seed), campaign.materialize())
            }
            Kind::Gray => Input::Gray(gray_spec(seed), gray_script(seed)),
            Kind::Fleet(p) => Input::Fleet(fleet_policy(p), fleet_campaign(seed)),
        }
    }
}

/// A campaign's report, kept as the fingerprint the re-run must match.
enum Report {
    Cascade(astral_core::CascadeReport),
    Training(RecoveryReport),
    Fleet(FleetReport),
}

impl Report {
    fn fingerprint(&self) -> String {
        match self {
            Report::Cascade(r) => r.fingerprint(),
            Report::Training(r) => r.fingerprint(),
            Report::Fleet(r) => r.fingerprint(),
        }
    }
}

fn cascade_spec(seed: u64) -> TrainingJobSpec {
    TrainingJobSpec {
        iters: 24,
        bytes: 4 << 20,
        comp_s: 0.2,
        seed,
        ..TrainingJobSpec::default()
    }
}

fn cascade_policy() -> RecoveryPolicy {
    RecoveryPolicy {
        checkpoint_interval: 10,
        restart_overhead_s: 1.0,
        ..RecoveryPolicy::default()
    }
}

fn gray_spec(seed: u64) -> TrainingJobSpec {
    TrainingJobSpec {
        iters: 16,
        bytes: 32 << 20,
        comp_s: 0.01,
        seed,
        ..TrainingJobSpec::default()
    }
}

/// One fault of each gray family at seeded iterations and hosts.
fn gray_script(seed: u64) -> FaultScript {
    let mut rng = SimRng::new(seed);
    let hosts = TrainingJobSpec::default().hosts as u64;
    FaultScript {
        faults: vec![
            InjectedFault::FlappingLink {
                at_iter: 2 + rng.below(4) as u32,
                period: 3,
                duty_cycle: 0.34,
                flap_count: 2 + rng.below(2) as u32,
            },
            InjectedFault::DegradingOptic {
                at_iter: 6 + rng.below(4) as u32,
                host_index: rng.below(hosts) as usize,
                decay_per_iter: 0.8,
                floor: 0.3,
            },
            InjectedFault::SlowHost {
                at_iter: 10 + rng.below(4) as u32,
                host_index: rng.below(hosts) as usize,
                factor: 0.1,
                intermittent: rng.chance(0.5),
            },
        ],
    }
}

fn fleet_policy(p: FleetPoint) -> FleetPolicy {
    match p {
        FleetPoint::FirstFit => FleetPolicy {
            placement: PlacementStrategy::FirstFit,
            ..FleetPolicy::default()
        },
        FleetPoint::BlastRadius => FleetPolicy::default(),
        FleetPoint::SeerAdmission => FleetPolicy {
            seer_admission: true,
            ..FleetPolicy::default()
        },
    }
}

fn fleet_campaign(seed: u64) -> FleetCampaign {
    FleetCampaign {
        workload: WorkloadConfig {
            jobs: 10,
            mean_interarrival_s: 10.0,
            min_hosts: 4,
            max_hosts: 12,
            iters: (30, 60),
            seed,
        },
        faults: FleetFaultConfig {
            scripted: Vec::new(),
            mean_interarrival_s: 40.0,
            horizon_s: 300.0,
            seed: seed ^ 0x5eed,
        },
    }
}

/// Run one campaign inside a span named after the layer it enters. `Err`
/// carries the rejected policy's message.
fn run_one(
    topo: &Topology,
    pool: &Pool,
    input: &Input,
    rec: &mut Recorder,
) -> Result<Report, String> {
    match input {
        Input::Cascade(spec, script) => rec
            .span("core.cascade", || {
                try_run_cascade(
                    topo,
                    &cascade_policy(),
                    spec,
                    script,
                    RunnerConfig::default(),
                )
            })
            .map(Report::Cascade)
            .map_err(|e| e.to_string()),
        Input::Gray(spec, script) => rec
            .span("core.training", || {
                try_run_training(topo, &RecoveryPolicy::gray_aware(), spec, script)
            })
            .map(Report::Training)
            .map_err(|e| e.to_string()),
        Input::Fleet(policy, campaign) => rec
            .span("fleet.run", || {
                try_run_fleet_campaign_with(pool, topo, policy, campaign, RunnerConfig::default())
            })
            .map(Report::Fleet)
            .map_err(|e| e.to_string()),
    }
}

fn record(rec: &mut Recorder, r: &Report) {
    let recovery = match r {
        Report::Cascade(c) => &c.recovery,
        Report::Training(t) => t,
        Report::Fleet(f) => {
            rec.add("fleet.jobs", f.jobs.len() as f64);
            rec.add("fleet.completed", f.completed as f64);
            rec.add("fleet.preemptions", f.preemptions as f64);
            rec.add("fleet.spare_claims", f.spare_claims as f64);
            rec.add("fleet.gray_avoided", f.gray_avoided as f64);
            return;
        }
    };
    rec.add("core.runs", 1.0);
    rec.add("core.iters", recovery.iters_done as f64);
    rec.add("core.incidents", recovery.incidents.len() as f64);
    rec.add("core.injections", recovery.injections.len() as f64);
    rec.add("core.spares_claimed", recovery.spares_claimed.len() as f64);
    rec.add("core.quarantined", recovery.quarantined.len() as f64);
    let c = &recovery.solver;
    rec.add("net.events", c.events as f64);
    rec.add("net.solves", (c.full_solves + c.incremental_solves) as f64);
    rec.add("net.full_solves", c.full_solves as f64);
    rec.add("net.links_scanned", c.links_scanned as f64);
    rec.add("net.flows_resolved", c.flows_resolved as f64);
    rec.peak("net.peak_arena_bytes", c.peak_arena_bytes as f64);
}

/// The fabric and every campaign's inputs, seeded by `seed`.
fn setup(seed: u64) -> (Topology, Vec<Input>) {
    let topo = build_astral(&AstralParams::sim_small());
    let mut rng = SimRng::new(seed);
    let inputs = (0..CAMPAIGNS)
        .map(|i| Input::new(MIX[i % MIX.len()], rng.below(1 << 32)))
        .collect();
    (topo, inputs)
}

/// Run the workload.
pub fn run(plan: &Plan, rec: &mut Recorder) -> Outcome {
    let (topo, inputs) = setup(plan.seed);

    // The seeded sample re-run at the end, from the first two cycles,
    // which every run completes; only their fingerprints are kept.
    let mut pick = SimRng::new(plan.seed ^ 0xc0ff_ee00);
    let mut rechecks: Vec<(usize, Option<String>)> = (0..RECHECKS)
        .map(|_| (pick.below(2 * MIX.len() as u64) as usize, None))
        .collect();

    let aliases = ["campaigns_per_s", "campaign_p50_ms", "campaign_tail_ms"];
    let mut o = Outcome::new(90.0, aliases);
    let mut digest = FNV_BASIS;
    let began = Instant::now();
    while plan.more(began, o.attempted) {
        let i = o.attempted as usize;
        rec.set_op(o.attempted);
        let t = CpuTimer::start();
        let result = run_one(&topo, &plan.pool, &inputs[i % CAMPAIGNS], rec);
        let dt = t.elapsed_s();
        o.busy_s += dt;
        o.op_ms.push(dt * 1e3);
        o.items += u64::from(result.is_ok());
        o.attempted += 1;
        match result {
            Ok(r) => {
                record(rec, &r);
                if i < DIGEST_CAMPAIGNS {
                    digest = fnv_str(digest, &r.fingerprint());
                    o.digest_ops += 1;
                }
                for (j, fp) in &mut rechecks {
                    if *j == i {
                        *fp = Some(r.fingerprint());
                    }
                }
            }
            Err(e) => {
                eprintln!("campaign {i} ({:?}) failed: {e}", MIX[i % MIX.len()]);
                o.failed += 1;
            }
        }
    }
    o.units = o.attempted;
    o.digest = digest;

    // The sample, re-run on a pool of another width than the measured
    // one, must reproduce each fingerprint byte for byte.
    let other = Pool::with_threads(if plan.pool.threads() == 1 { 2 } else { 1 });
    let mut off = Recorder::new(false);
    for (i, want) in &rechecks {
        let Some(want) = want else { continue };
        let again = run_one(&topo, &other, &inputs[*i], &mut off);
        if again.map(|r| r.fingerprint()).as_ref() != Ok(want) {
            eprintln!(
                "campaign {i} did not reproduce on a width-{} pool",
                other.threads()
            );
            o.failed += 1;
        }
    }
    drop((topo, inputs));
    o.setup_s = time_setups(plan.setups, || setup(plan.seed));
    o
}
