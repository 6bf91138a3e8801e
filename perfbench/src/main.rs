//! End-to-end and per-layer benchmark of the Jockey reproduction.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <train|slo|scenarios|service> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! One process runs one workload: it sets the workload up several
//! times (reporting the median as `setup_s`), runs one warm-up pass,
//! then repeats the workload's fixed pass for `--seconds` and reports
//! the median pass. Every pass's simulated outcomes must match the
//! warm-up pass bit for bit; a mismatch or a failed output check counts
//! its operations as failed. With `--trace 1` untraced and traced
//! passes alternate: the traced ones time every layer boundary from
//! the benchmark's own wrappers, and the difference between the two
//! medians is the tracing overhead. End-to-end times are calibrated
//! against a fixed kernel timed just before and just after each timed
//! interval (see [`REFERENCE_NOMINAL_SECS`]). The last stdout line is the JSON
//! result. See `perfbench/README.md` for the workloads and metrics.

mod fleet;
mod measure;
mod scenarios;
mod service;
mod slo;
mod tracer;
mod train;

use std::sync::Arc;
use std::time::Instant;

use jockey_experiments::par::parallel_map;
use measure::{median, result_line, secs_since, Metrics};
use tracer::Tracer;

/// Per-layer metrics, in `BENCHMARK.json` order, with units. Every
/// traced run reports all of them; a layer a workload does not touch
/// reads 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("cluster.runs", "count"),
    ("cluster.self_s", "s"),
    ("cluster.run_us_p50", "us"),
    ("cluster.run_us_p99", "us"),
    ("cluster.tasks", "count"),
    ("cluster.host_ns_per_task", "ns"),
    ("cluster.spare_task_frac", "fraction"),
    ("cluster.useful_work_frac", "fraction"),
    ("cluster.clone_win_frac", "fraction"),
    ("cpa.models", "count"),
    ("cpa.train_s_p50", "s"),
    ("cpa.train_s_p99", "s"),
    ("cpa.train_sims", "count"),
    ("cpa.samples", "count"),
    ("cpa.nonmonotone_models", "count"),
    ("cpa.queries", "count"),
    ("cpa.query_ns_p50", "ns"),
    ("cpa.query_ns_p99", "ns"),
    ("control.ticks", "count"),
    ("control.tick_ns_p50", "ns"),
    ("control.tick_ns_p99", "ns"),
    ("control.self_s", "s"),
    ("control.queries_per_tick", "count"),
    ("plane.ticks", "count"),
    ("plane.tick_ns_p50", "ns"),
    ("plane.tick_ns_p99", "ns"),
    ("plane.refreshes", "count"),
    ("plane.ticks_per_refresh", "count"),
    ("plane.over_committed_rounds", "count"),
    ("plane.busy_s", "s"),
    ("online.absorbs", "count"),
    ("online.absorb_us_p50", "us"),
    ("online.absorb_us_p99", "us"),
    ("online.busy_s", "s"),
    ("online.generations", "count"),
    ("online.drift_fires", "count"),
    ("env.build_s", "s"),
    ("train_models_per_s", "1/s"),
    ("slo_runs_per_s", "1/s"),
    ("submissions_per_s", "1/s"),
    ("admit_p50_us", "us"),
    ("admit_p99_us", "us"),
    ("peak_rss_mb", "MB"),
    ("miss_frac", "fraction"),
    ("admitted_miss_frac", "fraction"),
    ("above_oracle", "fraction"),
    ("pred_err", "fraction"),
    ("trace.overhead_frac", "fraction"),
];

/// What one pass of a workload did.
pub struct Pass {
    /// Host seconds of the pass's timed work.
    pub secs: f64,
    /// Operations the pass completed (models, runs, submissions).
    pub ops: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// Digest of every simulated outcome of the pass.
    pub digest: u64,
    /// Workload throughputs and latencies measured inside the pass,
    /// reported (as medians over untraced passes) by the traced run.
    pub rates: Vec<(&'static str, f64)>,
}

/// One benchmark workload.
pub trait Workload: Sized + Send {
    /// Set-up samples per run; `setup_s` is their median.
    const SETUPS: usize;

    /// Set-ups timed together as one sample, for set-ups too short to
    /// time one at a time: they run across every core, and the sample
    /// is the batch's time over its size.
    const SETUP_BATCH: usize = 1;

    /// Builds the workload's inputs from `seed` (timed as `setup_s`).
    fn setup(seed: u64) -> Self;

    /// Runs the fixed pass once; `tracer` wraps every layer boundary.
    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Pass;

    /// Simulated quality metrics of the last pass, for the summary
    /// line and the traced run.
    fn quality(&self) -> Vec<(&'static str, f64)>;

    /// Per-layer metrics from `tracer` after `traced` traced passes.
    fn layers(&self, tracer: &Tracer, traced: usize, out: &mut Metrics);
}

/// Command line: `--workload W --seed N --seconds S --trace 0|1`.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 42,
        seconds: 10.0,
        trace: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} value {value:?}: {e}");
        match flag.as_str() {
            "--workload" => args.workload = value,
            "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
            "--seconds" => {
                args.seconds = value.parse().map_err(|e| bad(&e))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {value}"));
                }
            }
            "--trace" => {
                args.trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got {value:?}")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// At least this many measured passes, however long they take.
const MIN_PASSES: usize = 3;

/// Host seconds of one calibration call ([`measure::reference_secs`])
/// on the nominal machine, a quiet 2-vCPU x86-64 VM. Every timed
/// interval is calibrated against the calibration calls just before
/// and just after it: raw seconds × this ÷ their mean. Neighbours that
/// slow the whole machine slow the kernel too and cancel out; a change
/// to the program does not touch the kernel.
const REFERENCE_NOMINAL_SECS: f64 = 0.15;

/// `secs` in calibrated seconds, given the calibration calls before
/// and after it.
fn calibrated(secs: f64, before: f64, after: f64) -> f64 {
    secs * REFERENCE_NOMINAL_SECS / ((before + after) / 2.0)
}

/// Runs workload `W` per `args` and returns the result line.
fn run<W: Workload>(args: &Args) -> String {
    let mut references = vec![measure::reference_secs()];
    // The kernel's table is freed; restart the high-water mark so that
    // `peak_rss_mb` covers set-up and the warm-up pass only.
    measure::reset_peak_rss();
    let mut setup_secs = Vec::new();
    let mut setup_cal = Vec::new();
    let mut w = None;
    for _ in 0..W::SETUPS {
        drop(w.take());
        let t = Instant::now();
        let mut batch: Vec<W> = if W::SETUP_BATCH == 1 {
            vec![W::setup(args.seed)]
        } else {
            parallel_map(vec![args.seed; W::SETUP_BATCH], W::setup)
        };
        let secs = secs_since(t) / W::SETUP_BATCH as f64;
        w = batch.pop();
        drop(batch);
        let before = references[references.len() - 1];
        let after = measure::reference_secs();
        references.push(after);
        setup_secs.push(secs);
        setup_cal.push(calibrated(secs, before, after));
    }
    let mut w = w.expect("at least one set-up");

    // The warm-up pass fixes the outcome digest every later pass
    // must reproduce.
    let warm = w.pass(None);
    let expected = warm.digest;
    let mut attempted = warm.ops;
    let mut failed = warm.failed;
    let quality = w.quality();
    let rss = measure::peak_rss_mb();
    references.push(measure::reference_secs());

    let tracer = Arc::new(Tracer::default());
    let mut plain: Vec<Pass> = Vec::new();
    let mut plain_cal: Vec<f64> = Vec::new();
    let mut traced: Vec<Pass> = Vec::new();
    let start = Instant::now();
    loop {
        let enough = plain.len() >= MIN_PASSES && (!args.trace || traced.len() >= MIN_PASSES);
        if enough && secs_since(start) >= args.seconds {
            break;
        }
        let traced_turn = args.trace && plain.len() > traced.len();
        let p = w.pass(traced_turn.then_some(&tracer));
        let before = references[references.len() - 1];
        let after = measure::reference_secs();
        references.push(after);
        attempted += p.ops;
        failed += if p.digest == expected {
            p.failed
        } else {
            p.ops
        };
        if traced_turn {
            traced.push(p);
        } else {
            plain_cal.push(calibrated(p.secs, before, after));
            plain.push(p);
        }
    }

    let ops = warm.ops as f64;
    let pass_secs: Vec<f64> = plain.iter().map(|p| p.secs).collect();
    let setup_s = median(&setup_cal);
    let ops_per_s = ops / median(&plain_cal);
    let rates: Vec<(&'static str, f64)> = warm
        .rates
        .iter()
        .map(|&(name, _)| {
            let xs: Vec<f64> = plain
                .iter()
                .filter_map(|p| p.rates.iter().find(|r| r.0 == name).map(|r| r.1))
                .collect();
            (name, median(&xs))
        })
        .collect();

    let fmt = |kv: &[(&str, f64)]| {
        kv.iter()
            .map(|(k, v)| format!("{k}={v:.6}"))
            .collect::<Vec<_>>()
            .join(" ")
    };
    println!(
        "workload={} seed={} digest={expected:016x} passes={} traced_passes={}",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
    );
    println!("simulated: {}", fmt(&quality));
    println!(
        "host (raw): setup_s={:.4} pass_s={:.4} ops_per_s={:.4} reference_s={:.4} peak_rss_mb={rss:.1} {}",
        median(&setup_secs),
        median(&pass_secs),
        ops / median(&pass_secs),
        median(&references),
        fmt(&rates)
    );
    let list = |xs: &[f64]| {
        xs.iter()
            .map(|x| format!("{x:.4}"))
            .collect::<Vec<_>>()
            .join(",")
    };
    println!("host (calibrated): setup_s={setup_s:.6} ops_per_s={ops_per_s:.4}");
    println!(
        "samples: setup_raw={} setup_cal={} pass_raw={} pass_cal={} reference={}",
        list(&setup_secs),
        list(&setup_cal),
        list(&pass_secs),
        list(&plain_cal),
        list(&references)
    );

    let mut metrics = Metrics::default();
    if args.trace {
        let mut layers = Metrics::default();
        w.layers(&tracer, traced.len(), &mut layers);
        for (k, v) in quality.iter().chain(&rates) {
            layers.put(k, *v, "");
        }
        layers.put("env.build_s", median(&setup_secs), "s");
        layers.put("peak_rss_mb", rss, "MB");
        let traced_secs: Vec<f64> = traced.iter().map(|p| p.secs).collect();
        layers.put(
            "trace.overhead_frac",
            median(&traced_secs) / median(&pass_secs) - 1.0,
            "",
        );
        for &(name, unit) in PER_LAYER {
            metrics.put(name, layers.get(name).unwrap_or(0.0), unit);
        }
        let path = std::path::PathBuf::from(format!(
            "perfbench-out/spans-{}-seed{}.tsv",
            args.workload, args.seed
        ));
        match tracer.write_spans(&path) {
            Ok(()) => println!("spans: {}", path.display()),
            Err(e) => eprintln!("perfbench: could not write {}: {e}", path.display()),
        }
    } else {
        metrics.put("setup_s", setup_s, "s");
        metrics.put("ops_per_s", ops_per_s, "1/s");
    }
    result_line(failed == 0, attempted, failed, &metrics)
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let line = match args.workload.as_str() {
        "train" => run::<train::Train>(&args),
        "slo" => run::<slo::Slo>(&args),
        "scenarios" => run::<scenarios::Scenarios>(&args),
        "service" => run::<service::Service>(&args),
        other => {
            eprintln!("perfbench: unknown workload {other:?} (train, slo, scenarios, service)");
            std::process::exit(2);
        }
    };
    println!("{line}");
}
