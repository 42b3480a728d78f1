//! End-to-end and per-layer benchmark of the Astral reproduction.
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Workloads: `frontier_train`, `fault_campaigns`, `whatif_hot`,
//! `whatif_sweep` (see README.md beside this package). The benchmark
//! drives the library only through public functions of `astral-topo`,
//! `astral-collectives`, `astral-net`, `astral-core`, `astral-fleet` and
//! `astral-seer`, timing those calls from outside.
//!
//! With `--trace 0` it measures the end-to-end metrics untraced. With
//! `--trace 1` it runs the workload with spans and counters around the
//! same calls, prints a per-layer table, then replays the same number of
//! loop units untraced to measure the tracing overhead. Either way the
//! last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod campaigns;
mod frontier;
mod measure;
mod trace;
mod whatif;

use astral_exec::Pool;
use measure::{median, peak_rss_mb, percentile, tail_supported, CpuTimer};
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;
use trace::Recorder;

/// Width of the pool the workloads run on. One thread: every timed call
/// runs on the benchmark's own thread, so the process never asks for more
/// CPUs than a shared 2-core host reliably gives it, and the per-call
/// threads a wider pool spawns stay out of the figures.
const POOL_WIDTH: usize = 1;
/// Set-ups timed per run; `setup_s` is their median. They run after the
/// measured loop: the first set-ups of a fresh process on a shared
/// virtual machine run up to 1.7× slower than the rest.
const SETUPS: usize = 15;
/// Samples the per-operation buffer holds before it grows. It is written
/// once up front, so the resident set does not depend on how many
/// operations a run completes.
const SAMPLE_CAPACITY: usize = 1 << 17;

const WORKLOADS: [&str; 4] = [
    "frontier_train",
    "fault_campaigns",
    "whatif_hot",
    "whatif_sweep",
];

/// End-to-end metrics, reported by every workload with `--trace 0`.
const END_TO_END: [(&str, &str); 5] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("items_per_s", "1/s"),
    ("op_p50_ms", "ms"),
    ("op_tail_ms", "ms"),
];

/// Per-layer metrics, reported by every workload with `--trace 1`. A
/// `_s` name is the self time of the span of the same name without the
/// suffix; the rest are counters or ratios of them.
const PER_LAYER: [(&str, &str); 43] = [
    ("topo.route_field_s", "s"),
    ("topo.route_fields", "count"),
    ("topo.path_walk_s", "s"),
    ("topo.paths_walked", "count"),
    ("collectives.expand_s", "s"),
    ("collectives.run_s", "s"),
    ("collectives.transfers", "count"),
    ("net.events", "count"),
    ("net.solves", "count"),
    ("net.full_solves", "count"),
    ("net.links_scanned", "count"),
    ("net.links_scanned_per_solve", "ratio"),
    ("net.flows_resolved", "count"),
    ("net.peak_arena_bytes", "bytes"),
    ("core.cascade_s", "s"),
    ("core.training_s", "s"),
    ("core.runs", "count"),
    ("core.iters", "count"),
    ("core.incidents", "count"),
    ("core.injections", "count"),
    ("core.spares_claimed", "count"),
    ("core.quarantined", "count"),
    ("fleet.run_s", "s"),
    ("fleet.jobs", "count"),
    ("fleet.completed", "count"),
    ("fleet.preemptions", "count"),
    ("fleet.spare_claims", "count"),
    ("fleet.gray_avoided", "count"),
    ("seer.resolve_s", "s"),
    ("seer.digest_s", "s"),
    ("seer.answer_hit_s", "s"),
    ("seer.forecast_hits", "count"),
    ("seer.hit_rate", "ratio"),
    ("seer.answer_miss_s", "s"),
    ("seer.forecast_misses", "count"),
    ("seer.forecast_evictions", "count"),
    ("seer.op_hits", "count"),
    ("seer.op_misses", "count"),
    ("seer.op_evictions", "count"),
    ("seer.op_hit_rate", "ratio"),
    ("bench.traced_s", "s"),
    ("bench.unattributed_s", "s"),
    ("bench.trace_overhead_pct", "%"),
];

/// How one pass of a workload runs.
pub struct Plan {
    /// Input seed.
    pub seed: u64,
    /// Set-ups to time after the loop (see [`time_setups`]).
    pub setups: usize,
    /// Stop starting loop units once this much wall time has passed since
    /// the loop began. The loop ends on wall time, so a run takes about
    /// as long on a busy host as on an idle one; the figures themselves
    /// are CPU time.
    pub seconds: f64,
    /// Stop after this many loop units (the untraced replay of a traced
    /// pass runs exactly as many as the traced one did).
    pub max_units: Option<u64>,
    /// The `astral-exec` pool handed to the library.
    pub pool: Pool,
}

impl Plan {
    /// Whether a loop that began at `began` and has run `units` loop units
    /// starts another.
    pub fn more(&self, began: Instant, units: u64) -> bool {
        began.elapsed().as_secs_f64() < self.seconds && self.max_units.is_none_or(|m| units < m)
    }
}

/// A workload-named end-to-end figure, printed in the report.
pub struct Named {
    name: &'static str,
    value: f64,
    unit: &'static str,
    note: String,
}

impl Named {
    fn new(name: &'static str, value: f64, unit: &'static str, note: String) -> Self {
        Named {
            name,
            value,
            unit,
            note,
        }
    }
}

/// What one pass of a workload measured.
pub struct Outcome {
    /// Wall time of each set-up, seconds.
    pub setup_s: Vec<f64>,
    /// Loop units run: episodes, campaigns or batches.
    pub units: u64,
    /// Operations attempted: steps, campaigns or queries.
    pub attempted: u64,
    /// Operations that returned `Err` or failed an invariant check.
    pub failed: u64,
    /// Host seconds inside the timed operations.
    pub busy_s: f64,
    /// Part of `busy_s` spent in traced-only probe calls.
    pub probe_s: f64,
    /// Host time per operation, milliseconds: the samples of `op_p50_ms`
    /// and `op_tail_ms`.
    pub op_ms: Vec<f64>,
    /// Work items completed, the numerator of `items_per_s`: flows,
    /// campaigns or queries.
    pub items: u64,
    /// Percentile `op_tail_ms` reports. Fixed per workload, so it cannot
    /// flip between runs: the highest of p50/p90/p99 that keeps at least
    /// twenty samples beyond it on a 2-core box at 20 s, twice the ten the
    /// report requires.
    pub tail_p: f64,
    /// The workload's own names for `items_per_s`, `op_p50_ms` and
    /// `op_tail_ms`, printed beside them.
    pub aliases: [&'static str; 3],
    /// Further workload-named figures (not gated).
    pub named: Vec<Named>,
    /// FNV-1a fold of the simulated results of the first `digest_ops`.
    pub digest: u64,
    /// Operations the digest covers.
    pub digest_ops: u64,
}

impl Outcome {
    fn new(tail_p: f64, aliases: [&'static str; 3]) -> Self {
        let mut op_ms = vec![f64::NAN; SAMPLE_CAPACITY];
        op_ms.clear();
        Outcome {
            setup_s: Vec::new(),
            units: 0,
            attempted: 0,
            failed: 0,
            busy_s: 0.0,
            probe_s: 0.0,
            op_ms,
            items: 0,
            tail_p,
            aliases,
            named: Vec::new(),
            digest: 0,
            digest_ops: 0,
        }
    }
}

/// Wall time of each of `n` calls of `setup`, seconds. Each result is
/// dropped, untimed, before the next call.
pub fn time_setups<T>(n: usize, mut setup: impl FnMut() -> T) -> Vec<f64> {
    (0..n)
        .map(|_| {
            let t = CpuTimer::start();
            let built = setup();
            let dt = t.elapsed_s();
            drop(built);
            dt
        })
        .collect()
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut it = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s.is_finite()) {
                    return Err("--seconds must be positive".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload {workload}; one of {WORKLOADS:?}"));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
    })
}

fn run_workload(name: &str, plan: &Plan, rec: &mut Recorder) -> Outcome {
    match name {
        "frontier_train" => frontier::run(plan, rec),
        "fault_campaigns" => campaigns::run(plan, rec),
        "whatif_hot" => whatif::run(whatif::Mode::Hot, plan, rec),
        "whatif_sweep" => whatif::run(whatif::Mode::Sweep, plan, rec),
        _ => unreachable!("workload names are checked by parse_args"),
    }
}

/// A finite JSON number with all its digits.
fn num(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".into()
    }
}

fn result_json(o: &Outcome, metrics: &[(&str, f64, &str)]) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
            num(*value)
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{m}}}}}",
        o.failed == 0,
        o.attempted,
        o.failed
    )
}

fn print_report(workload: &str, a: &Args, width: usize, o: &Outcome) {
    println!(
        "workload {workload}  seed {}  seconds {}  pool width {width}  trace {}",
        a.seed,
        a.seconds,
        u8::from(a.trace)
    );
    let row = |name: &str, value: f64, unit: &str, note: &str| {
        println!("  {name:<20} {value:>14.6} {unit:<6} {note}");
    };
    let [rate, p50, tail] = o.aliases;
    let n = o.op_ms.len();
    let short = if tail_supported(n, o.tail_p) {
        ""
    } else {
        "; fewer than 10 samples beyond"
    };
    for (name, value, unit) in end_to_end(o) {
        let note = match name {
            "setup_s" => format!("median of {} set-ups", o.setup_s.len()),
            "items_per_s" => format!("{rate}; {} in {:.3} s", o.items, o.busy_s),
            "op_p50_ms" => format!("{p50}; {n} samples"),
            "op_tail_ms" => format!("{tail}; p{} of {n} samples{short}", o.tail_p),
            _ => String::new(),
        };
        row(name, value, unit, &note);
    }
    let failed_frac = o.failed as f64 / o.attempted.max(1) as f64;
    let note = format!("{} of {} operations", o.failed, o.attempted);
    row("failed_frac", failed_frac, "ratio", &note);
    for n in &o.named {
        row(n.name, n.value, n.unit, &n.note);
    }
    println!(
        "  {:<20} {:>#18x} over {} operations (ungated)",
        "sim_digest", o.digest, o.digest_ops
    );
}

fn end_to_end(o: &Outcome) -> Vec<(&'static str, f64, &'static str)> {
    let value = |name: &str| match name {
        "setup_s" => median(&o.setup_s),
        "peak_rss_mb" => peak_rss_mb(),
        "items_per_s" => o.items as f64 / o.busy_s,
        "op_p50_ms" => median(&o.op_ms),
        "op_tail_ms" => percentile(&o.op_ms, o.tail_p),
        _ => unreachable!("END_TO_END names are handled above"),
    };
    END_TO_END.iter().map(|&(n, u)| (n, value(n), u)).collect()
}

fn per_layer(
    rec: &Recorder,
    traced: &Outcome,
    untraced: &Outcome,
) -> Vec<(&'static str, f64, &'static str)> {
    let totals = rec.totals();
    let c = |n: &str| rec.counter(n);
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let value = |name: &str| match name {
        "net.links_scanned_per_solve" => ratio(c("net.links_scanned"), c("net.solves")),
        "seer.hit_rate" => ratio(
            c("seer.forecast_hits"),
            c("seer.forecast_hits") + c("seer.forecast_misses"),
        ),
        "seer.op_hit_rate" => ratio(c("seer.op_hits"), c("seer.op_hits") + c("seer.op_misses")),
        "bench.traced_s" => traced.busy_s,
        "bench.unattributed_s" => (traced.busy_s - rec.covered_s()).max(0.0),
        "bench.trace_overhead_pct" => {
            ratio(traced.busy_s - traced.probe_s, untraced.busy_s) * 100.0 - 100.0
        }
        n => match n.strip_suffix("_s") {
            Some(span) => totals.get(span).map_or(0.0, |t| t.self_s),
            None => c(n),
        },
    };
    PER_LAYER.iter().map(|&(n, u)| (n, value(n), u)).collect()
}

fn print_layer_table(rec: &Recorder, traced: &Outcome) {
    let wall = traced.busy_s;
    println!(
        "  per-layer self time over {wall:.3} s traced ({} spans)",
        rec.spans().len()
    );
    println!(
        "    {:<24} {:>12} {:>8} {:>10}",
        "span", "self (s)", "share", "count"
    );
    let mut rows: Vec<_> = rec.totals().into_iter().collect();
    rows.sort_by(|a, b| b.1.self_s.total_cmp(&a.1.self_s));
    for (name, t) in &rows {
        println!(
            "    {name:<24} {:>12.6} {:>7.2}% {:>10}",
            t.self_s,
            100.0 * t.self_s / wall,
            t.count
        );
    }
    let un = (wall - rec.covered_s()).max(0.0);
    println!(
        "    {:<24} {:>12.6} {:>7.2}%",
        "(unattributed)",
        un,
        100.0 * un / wall
    );
    let mut layers: std::collections::BTreeMap<&str, f64> = Default::default();
    for (name, t) in &rows {
        let layer = name.split('.').next().unwrap_or(name);
        *layers.entry(layer).or_default() += t.self_s;
    }
    let shares: Vec<String> = layers
        .iter()
        .map(|(l, s)| format!("{l} {:.1}%", 100.0 * s / wall))
        .collect();
    println!("  per-layer share: {}", shares.join(", "));
    println!("  counters:");
    for (name, v) in rec.counters() {
        println!("    {name:<28} {v}");
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let width = POOL_WIDTH;
    let plan = Plan {
        seed: args.seed,
        setups: SETUPS,
        seconds: args.seconds,
        max_units: None,
        pool: Pool::with_threads(width),
    };

    if !args.trace {
        let mut off = Recorder::new(false);
        let o = run_workload(&args.workload, &plan, &mut off);
        print_report(&args.workload, &args, width, &o);
        println!("{}", result_json(&o, &end_to_end(&o)));
        return ExitCode::SUCCESS;
    }

    let mut rec = Recorder::new(true);
    let traced = run_workload(&args.workload, &Plan { setups: 1, ..plan }, &mut rec);
    let replay = Plan {
        seed: args.seed,
        setups: 1,
        seconds: f64::INFINITY,
        max_units: Some(traced.units),
        pool: Pool::with_threads(width),
    };
    let untraced = run_workload(&args.workload, &replay, &mut Recorder::new(false));
    print_report(&args.workload, &args, width, &traced);
    print_layer_table(&rec, &traced);
    let path = std::path::PathBuf::from(format!(
        "perfbench/out/spans-{}-seed{}.jsonl",
        args.workload, args.seed
    ));
    match rec.write_jsonl(&path) {
        Ok(()) => println!("  spans written to {}", path.display()),
        Err(e) => eprintln!("perfbench: writing {}: {e}", path.display()),
    }
    let mut both = traced;
    both.failed += untraced.failed;
    both.attempted += untraced.attempted;
    let metrics = per_layer(&rec, &both, &untraced);
    println!("{}", result_json(&both, &metrics));
    ExitCode::SUCCESS
}
