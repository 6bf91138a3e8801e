//! `jockey-cli`: an operational front-end for the library.
//!
//! Workflow mirrors how Jockey is deployed for a recurring job:
//!
//! ```text
//! jockey-cli compile  report.scope                       # inspect the plan
//! jockey-cli profile  report.scope -o report.job         # one training run
//! jockey-cli train    report.job                         # fit C(p, a) into the bundle
//! jockey-cli predict  report.job -a 40                   # query the model
//! jockey-cli run      report.job --deadline 45           # SLO-controlled run
//! ```
//!
//! A `.job` bundle is a plain `key=value` text file holding the plan
//! graph (`graph.*`), the training profile (`profile.*`) and, after
//! `train`, the fitted model (`model.*`).

use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::Arc;

use jockey::cluster::{ClusterConfig, ClusterSim, JobSpec};
use jockey::core::control::ControlParams;
use jockey::core::cpa::{CpaModel, TrainConfig};
use jockey::core::oracle::oracle_allocation;
use jockey::core::policy::{JockeySetup, Policy};
use jockey::core::progress::ProgressIndicator;
use jockey::jobgraph::graph::JobGraph;
use jockey::jobgraph::profile::JobProfile;
use jockey::scope::compile_script;
use jockey::simrt::dist::{Dist, LogNormal};
use jockey::simrt::table::KvStore;
use jockey::simrt::time::SimDuration;
use jockey::workloads::recurring::try_training_profile;

const USAGE: &str = "\
jockey-cli — guaranteed job latency for data-parallel jobs

USAGE:
  jockey-cli compile <script.scope>
  jockey-cli profile <script.scope> -o <bundle.job> [--tokens N] [--seed S]
  jockey-cli train   <bundle.job> [--seed S]
  jockey-cli predict <bundle.job> -a <tokens> [-p <progress>]
  jockey-cli feasible <bundle.job> --deadline <minutes>
  jockey-cli run     <bundle.job> --deadline <minutes> [--policy jockey|no-adapt|no-sim|max]
                     [--seed S] [--util U]
  jockey-cli service [--budget N] [--workers N] [--concurrent N] [--jobs N] [--seed S]
                     [--model exact|frozen|online] [--speculation CLONE_TOKENS]
                     [--tail-factor F]
  jockey-cli scenario list
  jockey-cli scenario <name> [--seed S] [--runs N]

A .job bundle is a key=value text file holding the compiled plan graph,
the training profile, and (after `train`) the fitted C(p,a) model.
`service` runs the open-loop SLO admission service driver against one
long-lived control plane and prints the service-level numbers; with
--speculation N, admissions price a clone level (N reserved clone
tokens) against a serial level paying the --tail-factor straggler tail.
`scenario` runs a named cluster scenario (heterogeneous machine
classes, locality stress, correlated rack failures, diurnal load,
heavy-tailed stragglers with clone-on-slow speculation) end to end: it
trains C(p,a) against the scenario's topology and speculation policy
and executes Jockey-controlled runs in it.";

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("error: {e}");
            eprintln!("\n{USAGE}");
            ExitCode::FAILURE
        }
    }
}

fn run(args: &[String]) -> Result<(), String> {
    let mut it = args.iter().map(String::as_str);
    match it.next() {
        Some("compile") => cmd_compile(&parse_flags(it)?),
        Some("profile") => cmd_profile(&parse_flags(it)?),
        Some("train") => cmd_train(&parse_flags(it)?),
        Some("predict") => cmd_predict(&parse_flags(it)?),
        Some("feasible") => cmd_feasible(&parse_flags(it)?),
        Some("run") => cmd_run(&parse_flags(it)?),
        Some("service") => cmd_service(&parse_flags(it)?),
        Some("scenario") => cmd_scenario(&parse_flags(it)?),
        Some("help") | Some("--help") | Some("-h") | None => {
            println!("{USAGE}");
            Ok(())
        }
        Some(other) => Err(format!("unknown command {other:?}")),
    }
}

/// Parsed command line: positional arguments and `--flag value` pairs.
struct Flags {
    positional: Vec<String>,
    named: Vec<(String, String)>,
}

impl Flags {
    fn get(&self, name: &str) -> Option<&str> {
        self.named
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn get_parsed<T: std::str::FromStr>(&self, name: &str, default: T) -> Result<T, String> {
        match self.get(name) {
            None => Ok(default),
            Some(raw) => raw
                .parse()
                .map_err(|_| format!("flag {} expects a number, got {raw:?}", flag(name))),
        }
    }

    /// A required flag holding a finite number `> 0`; `what` names the
    /// value in the "missing" message.
    fn positive_f64(&self, name: &str, what: &str) -> Result<f64, String> {
        if self.get(name).is_none() {
            return Err(format!("missing {} <{what}>", flag(name)));
        }
        let v: f64 = self.get_parsed(name, 0.0)?;
        if v.is_finite() && v > 0.0 {
            Ok(v)
        } else {
            Err(format!(
                "flag {} must be a finite number > 0, got {v}",
                flag(name)
            ))
        }
    }

    /// An optional flag holding a finite number in `[lo, hi]`.
    fn f64_in(&self, name: &str, default: f64, lo: f64, hi: f64) -> Result<f64, String> {
        let v: f64 = self.get_parsed(name, default)?;
        if v.is_finite() && (lo..=hi).contains(&v) {
            Ok(v)
        } else {
            Err(format!(
                "flag {} must be a finite number in [{lo}, {hi}], got {v}",
                flag(name)
            ))
        }
    }

    /// An integer flag that must be at least 1 when given; `default`
    /// answers when it is absent (`None` makes the flag required, with
    /// `what` naming the value in the "missing" message).
    fn positive_u32(&self, name: &str, default: Option<u32>, what: &str) -> Result<u32, String> {
        let Some(raw) = self.get(name) else {
            return default.ok_or_else(|| format!("missing {} <{what}>", flag(name)));
        };
        match raw.parse::<u32>() {
            Ok(v) if v >= 1 => Ok(v),
            _ => Err(format!(
                "flag {} must be an integer >= 1, got {raw:?}",
                flag(name)
            )),
        }
    }

    fn positional(&self, index: usize, what: &str) -> Result<&str, String> {
        self.positional
            .get(index)
            .map(String::as_str)
            .ok_or_else(|| format!("missing {what}"))
    }
}

/// A flag as typed on the command line: `-a` for one-letter names,
/// `--deadline` otherwise.
fn flag(name: &str) -> String {
    if name.chars().count() == 1 {
        format!("-{name}")
    } else {
        format!("--{name}")
    }
}

fn parse_flags<'a>(it: impl Iterator<Item = &'a str>) -> Result<Flags, String> {
    let mut positional = Vec::new();
    let mut named = Vec::new();
    let mut it = it.peekable();
    while let Some(tok) = it.next() {
        if let Some(name) = tok.strip_prefix("--").or_else(|| tok.strip_prefix('-')) {
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{name} expects a value"))?;
            named.push((name.to_string(), value.to_string()));
        } else {
            positional.push(tok.to_string());
        }
    }
    Ok(Flags { positional, named })
}

// ----------------------------------------------------------------------
// Bundle helpers: sections are key prefixes within one KvStore file.
// ----------------------------------------------------------------------

fn section(kv: &KvStore, prefix: &str) -> KvStore {
    let mut out = KvStore::new();
    let full = format!("{prefix}.");
    for key in kv.keys() {
        if let Some(rest) = key.strip_prefix(&full) {
            out.set(rest, kv.get(key).expect("listed key exists"));
        }
    }
    out
}

fn merge_section(into: &mut KvStore, prefix: &str, from: &KvStore) {
    for key in from.keys() {
        into.set(
            &format!("{prefix}.{key}"),
            from.get(key).expect("listed key exists"),
        );
    }
}

fn load_bundle(path: &str) -> Result<(KvStore, Arc<JobGraph>, JobProfile), String> {
    let kv = KvStore::read(Path::new(path)).map_err(|e| format!("reading {path}: {e}"))?;
    let graph = JobGraph::from_kv(&section(&kv, "graph"))
        .ok_or_else(|| format!("{path} has no valid graph section"))?;
    let profile = JobProfile::from_kv(&section(&kv, "profile"))
        .ok_or_else(|| format!("{path} has no valid profile section"))?;
    if profile.stages.len() != graph.num_stages() {
        return Err(format!(
            "{path} has a profile section for {} stages but a graph of {}",
            profile.stages.len(),
            graph.num_stages()
        ));
    }
    Ok((kv, Arc::new(graph), profile))
}

fn compile_file(path: &str) -> Result<jockey::scope::CompiledJob, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    compile_script(&text).map_err(|e| e.to_string())
}

/// Default runtime distributions from the compiler's cost hints, as in
/// the quickstart: per-task medians of 4 s scaled by stage cost. A cost
/// so large that a scaled parameter overflows `f64` is an error.
fn spec_from_compiled(compiled: &jockey::scope::CompiledJob) -> Result<JobSpec, String> {
    let graph = Arc::new(compiled.graph.clone());
    let runtimes = compiled
        .stage_costs
        .iter()
        .enumerate()
        .map(|(i, &c)| {
            let (median, p90) = (4.0 * c, 12.0 * c);
            if median.is_finite() && p90.is_finite() {
                Ok(LogNormal::from_median_p90(median, p90).into())
            } else {
                Err(format!(
                    "stage {i} COST {c:e} overflows the task runtime model"
                ))
            }
        })
        .collect::<Result<Vec<Dist>, String>>()?;
    let queues: Vec<Dist> = (0..graph.num_stages())
        .map(|_| LogNormal::from_median_p90(3.0, 8.0).into())
        .collect();
    Ok(JobSpec::new(graph, runtimes, queues, 0.01, 0.0))
}

// ----------------------------------------------------------------------
// Commands.
// ----------------------------------------------------------------------

fn cmd_compile(flags: &Flags) -> Result<(), String> {
    let path = flags.positional(0, "script path")?;
    let compiled = compile_file(path)?;
    let g = &compiled.graph;
    println!(
        "{}: {} stages ({} barriers), {} tasks",
        g.name(),
        g.num_stages(),
        g.num_barrier_stages(),
        g.total_tasks()
    );
    for s in g.stage_ids() {
        let parents: Vec<String> = g
            .parents(s)
            .iter()
            .map(|&(p, k)| {
                format!(
                    "{p}{}",
                    if k == jockey::jobgraph::EdgeKind::AllToAll {
                        "*"
                    } else {
                        ""
                    }
                )
            })
            .collect();
        println!(
            "  [{}] {:<24} {:>6} tasks  cost {:>5.1}  <- {}",
            s.index(),
            g.stage(s).name,
            g.tasks_in(s),
            compiled.stage_costs[s.index()],
            if parents.is_empty() {
                "-".into()
            } else {
                parents.join(",")
            }
        );
    }
    println!("\n{}", jockey::jobgraph::dot::to_dot(g));
    Ok(())
}

fn cmd_profile(flags: &Flags) -> Result<(), String> {
    let script = flags.positional(0, "script path")?;
    let out = flags.get("o").ok_or("missing -o <bundle.job>")?.to_string();
    let tokens = flags.positive_u32("tokens", Some(40), "tokens")?;
    let seed: u64 = flags.get_parsed("seed", 42)?;

    let compiled = compile_file(script)?;
    let spec = spec_from_compiled(&compiled)?;
    let profile = try_training_profile(&spec, tokens, seed).map_err(|e| e.to_string())?;
    println!(
        "training run: {:.1} min latency, {:.2} CPU-hours across {} task attempts",
        profile.duration / 60.0,
        profile.total_work() / 3600.0,
        profile
            .stages
            .iter()
            .map(|s| s.runtimes.len())
            .sum::<usize>()
    );

    let mut bundle = KvStore::new();
    merge_section(&mut bundle, "graph", &spec.graph.to_kv());
    merge_section(&mut bundle, "profile", &profile.to_kv());
    bundle
        .write(&PathBuf::from(&out))
        .map_err(|e| format!("writing {out}: {e}"))?;
    println!("wrote {out}");
    Ok(())
}

fn cmd_train(flags: &Flags) -> Result<(), String> {
    let path = flags.positional(0, "bundle path")?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let (mut bundle, graph, profile) = load_bundle(path)?;

    let ctx = jockey::core::progress::IndicatorContext::new(
        ProgressIndicator::TotalWorkWithQ,
        &graph,
        &profile,
        None,
    );
    let model = CpaModel::train(&graph, &profile, &ctx, &TrainConfig::default(), seed);
    println!(
        "trained C(p,a): {} allocations x {} samples",
        model.allocations().len(),
        model.sample_count()
    );
    merge_section(&mut bundle, "model", &model.to_kv());
    bundle
        .write(Path::new(path))
        .map_err(|e| format!("writing {path}: {e}"))?;
    println!("updated {path}");
    Ok(())
}

fn cmd_predict(flags: &Flags) -> Result<(), String> {
    let path = flags.positional(0, "bundle path")?;
    let tokens = flags.positive_u32("a", None, "tokens")?;
    let progress = flags.f64_in("p", 0.0, 0.0, 1.0)?;
    let (bundle, _, _) = load_bundle(path)?;
    let model = CpaModel::from_kv(&section(&bundle, "model"))
        .map_err(|e| format!("bundle model: {e}; run `jockey-cli train` first"))?;
    let remaining = model.remaining(progress, tokens);
    println!(
        "predicted remaining at progress {:.0}% with {} tokens: {:.1} min (p{:.0})",
        progress * 100.0,
        tokens,
        remaining / 60.0,
        model.percentile()
    );
    println!(
        "median estimate: {:.1} min",
        model.remaining_percentile(progress, tokens, 50.0) / 60.0
    );
    Ok(())
}

fn cmd_feasible(flags: &Flags) -> Result<(), String> {
    let path = flags.positional(0, "bundle path")?;
    let deadline_mins = flags.positive_f64("deadline", "minutes")?;
    let (bundle, graph, profile) = load_bundle(path)?;
    let model = CpaModel::from_kv(&section(&bundle, "model"))
        .map_err(|e| format!("bundle model: {e}; run `jockey-cli train` first"))?;
    let deadline = SimDuration::from_mins_f64(deadline_mins);
    let cp = profile.critical_path(&graph);
    let max = model.allocations().last().copied().unwrap_or(100);
    let p50 = model.remaining_percentile(0.0, max, 50.0);
    println!("critical path: {:.1} min", cp / 60.0);
    println!("median latency at {max} tokens: {:.1} min", p50 / 60.0);
    if deadline.as_secs_f64() < cp {
        println!("INFEASIBLE: deadline is below the critical path");
    } else if p50 > deadline.as_secs_f64() {
        println!("INFEASIBLE: even the full budget misses the deadline");
    } else {
        match model.min_allocation_for_deadline(deadline, 1.2) {
            Some(a) => println!("FEASIBLE: minimum allocation with 1.2 slack = {a} tokens"),
            None => println!("MARGINAL: feasible only without slack headroom"),
        }
    }
    Ok(())
}

fn cmd_run(flags: &Flags) -> Result<(), String> {
    let path = flags.positional(0, "bundle path")?;
    let deadline_mins = flags.positive_f64("deadline", "minutes")?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let util = flags.f64_in("util", 0.9, 0.0, 1.0)?;
    let policy = match flags.get("policy").unwrap_or("jockey") {
        "jockey" => Policy::Jockey,
        "no-adapt" => Policy::JockeyNoAdapt,
        "no-sim" => Policy::JockeyNoSim,
        "max" => Policy::MaxAllocation,
        other => return Err(format!("unknown policy {other:?}")),
    };

    let (bundle, graph, profile) = load_bundle(path)?;
    let cpa = Arc::new(
        CpaModel::from_kv(&section(&bundle, "model"))
            .map_err(|e| format!("bundle model: {e}; run `jockey-cli train` first"))?,
    );
    let max_tokens = cpa.allocations().last().copied().unwrap_or(100);
    let setup = JockeySetup {
        graph: graph.clone(),
        profile: profile.clone(),
        cpa,
        indicator: ProgressIndicator::TotalWorkWithQ,
        rel_inf: profile
            .stages
            .iter()
            .map(|s| (s.rel_start, s.rel_end))
            .collect(),
        max_tokens,
    };

    let deadline = SimDuration::from_mins_f64(deadline_mins);
    let controller = setup.controller(policy, deadline, ControlParams::default());
    let mut cluster = ClusterConfig::production();
    cluster.background.mean_util = util;
    let mut sim = ClusterSim::new(cluster, seed);
    sim.add_job(JobSpec::from_profile(graph, &profile), controller);
    let result = sim.run_single();

    match result.duration() {
        Some(latency) => {
            let met = latency <= deadline;
            println!(
                "{}: finished in {:.1} min / {:.0} min deadline -> {}",
                policy.name(),
                latency.as_minutes_f64(),
                deadline_mins,
                if met { "SLO MET" } else { "SLO MISSED" }
            );
            let oracle = oracle_allocation(result.work_done_secs, deadline);
            println!(
                "allocation: first {:.0}, median {:.0}, max {:.0} tokens (oracle {})",
                result.trace.first_guarantee(),
                result.trace.median_guarantee(),
                result.trace.max_guarantee(),
                oracle
            );
            println!(
                "tasks: {} guaranteed, {} spare; {:.1} token-hours held",
                result.guaranteed_task_count,
                result.spare_task_count,
                result
                    .trace
                    .guarantee_token_seconds(result.completed_at.expect("finished"))
                    / 3600.0
            );
        }
        None => println!("job did not finish within the simulation horizon"),
    }
    Ok(())
}

fn cmd_service(flags: &Flags) -> Result<(), String> {
    let budget: u32 = flags.get_parsed("budget", 192)?;
    let workers: usize = flags.get_parsed("workers", 4)?;
    let concurrent: usize = flags.get_parsed("concurrent", 128)?;
    let jobs: usize = flags.get_parsed("jobs", 512)?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    if budget == 0 || workers == 0 || concurrent == 0 || jobs == 0 {
        return Err("--budget, --workers, --concurrent and --jobs must be positive".into());
    }
    let model = match flags.get("model").unwrap_or("exact") {
        "exact" => jockey::workloads::service::ModelMode::Exact,
        "frozen" => jockey::workloads::service::ModelMode::Frozen,
        "online" => jockey::workloads::service::ModelMode::Online,
        other => return Err(format!("unknown model mode {other:?}")),
    };
    // --speculation N reserves N clone tokens per speculative
    // admission, priced against a serial level that pays the
    // straggler tail (--tail-factor, default 2x) without cloning.
    let clone_budget: u32 = flags.get_parsed("speculation", 0)?;
    let tail_factor: f64 = flags.get_parsed("tail-factor", 2.0)?;
    if !(tail_factor >= 1.0 && tail_factor.is_finite()) {
        return Err(format!(
            "--tail-factor must be a finite multiplier >= 1, got {tail_factor}"
        ));
    }
    let speculation = (clone_budget > 0).then_some(jockey::workloads::service::SpeculationSpec {
        tail_factor,
        clone_budget,
    });
    if speculation.is_some() && model != jockey::workloads::service::ModelMode::Exact {
        return Err("--speculation requires --model exact".into());
    }

    let cfg = jockey::workloads::service::ServiceConfig {
        budget,
        workers,
        concurrent_per_worker: concurrent.div_ceil(workers),
        submissions_per_worker: jobs.div_ceil(workers),
        seed,
        model,
        speculation,
        ..jockey::workloads::service::ServiceConfig::default()
    };
    let r = jockey::workloads::service::run_service(&cfg);
    println!(
        "service: {} submitted, {} admitted ({:.1}%), {} capacity-rejected, {} infeasible",
        r.submitted,
        r.admitted,
        100.0 * r.admission_rate(),
        r.rejected_capacity,
        r.rejected_infeasible
    );
    println!(
        "SLO: {}/{} met ({:.1}%), {} mid-flight deadline changes",
        r.slo_met,
        r.completed,
        100.0 * r.slo_attainment(),
        r.deadline_changes
    );
    println!(
        "throughput: {:.0} submissions/s, {:.0} ticks/s over {:.2?} wall",
        r.submissions_per_sec, r.ticks_per_sec, r.wall
    );
    println!(
        "tick latency: p50 {:.2} us, p99 {:.2} us, max {:.1} us",
        r.tick_p50_us, r.tick_p99_us, r.tick_max_us
    );
    println!(
        "plane: {} ticks, {} refreshes ({:.0} ticks/refresh), {} over-committed rounds, peak {} slots",
        r.stats.ticks,
        r.stats.refreshes,
        r.ticks_per_refresh(),
        r.stats.over_committed_rounds,
        r.max_slot_count
    );
    if model != jockey::workloads::service::ModelMode::Exact {
        println!(
            "model: {} generations published, {} drift fires, {} prior hits / {} misses",
            r.stats.model_generations_swapped,
            r.stats.drift_detections,
            r.stats.prior_hits,
            r.stats.prior_misses
        );
    }
    if speculation.is_some() {
        println!(
            "speculation: {} clone-level admissions, {} clone tokens reserved",
            r.stats.speculative_admissions, r.stats.clone_tokens_reserved
        );
    }
    println!(
        "drain: {} tokens reserved, {} jobs active after shutdown",
        r.final_reserved, r.final_active
    );
    Ok(())
}

fn cmd_scenario(flags: &Flags) -> Result<(), String> {
    use jockey::workloads::scenario;
    let name = flags.positional(0, "scenario name (or `list`)")?;
    if name == "list" {
        for def in scenario::SCENARIOS {
            println!("{:<16} {} — {}", def.name, def.title, def.blurb);
        }
        return Ok(());
    }
    let def = scenario::find(name).ok_or_else(|| {
        format!(
            "unknown scenario {name:?}; available: {}",
            scenario::names().join(", ")
        )
    })?;
    let seed: u64 = flags.get_parsed("seed", 42)?;
    let runs: usize = flags.get_parsed("runs", 3)?;
    if runs == 0 {
        return Err("--runs must be positive".into());
    }
    println!("{}: {}", def.title, def.blurb);
    let cluster = (def.build)(scenario::base_cluster());
    match &cluster.topology {
        Some(t) => println!(
            "topology: {} racks x {} machines/rack ({} machines), {} replica copies",
            t.racks,
            t.machines_per_rack(),
            t.machine_count(),
            t.data_copies
        ),
        None => println!("topology: flat token pool (legacy model)"),
    }
    let r = scenario::run_scenario(def, seed, runs);
    println!(
        "SLO: {}/{} met against a {:.0}-minute deadline",
        r.met,
        r.runs,
        r.deadline.as_minutes_f64()
    );
    println!(
        "latency: mean {:.1} min ({:.2}x deadline); median allocation {:.1} tokens",
        r.mean_latency_mins, r.mean_rel_deadline, r.mean_median_alloc
    );
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn flags(args: &[&str]) -> Flags {
        parse_flags(args.iter().copied()).unwrap()
    }

    #[test]
    fn parse_flags_splits_positionals_and_named() {
        let f = flags(&["bundle.job", "--deadline", "45", "-a", "12"]);
        assert_eq!(f.positional(0, "x").unwrap(), "bundle.job");
        assert_eq!(f.get("deadline"), Some("45"));
        assert_eq!(f.get_parsed::<u32>("a", 0).unwrap(), 12);
        assert_eq!(f.get_parsed::<u32>("missing", 7).unwrap(), 7);
    }

    #[test]
    fn parse_flags_rejects_dangling_flag() {
        assert!(parse_flags(["--deadline"].into_iter()).is_err());
    }

    #[test]
    fn flags_report_missing_positional() {
        let f = flags(&[]);
        assert!(f.positional(0, "bundle path").is_err());
    }

    #[test]
    fn flags_reject_non_numeric_values() {
        let f = flags(&["--seed", "abc"]);
        assert!(f.get_parsed::<u64>("seed", 0).is_err());
    }

    #[test]
    fn sections_round_trip_through_a_bundle() {
        let mut bundle = KvStore::new();
        let mut graph = KvStore::new();
        graph.set("name", "j");
        graph.set_u64("stages", 1);
        merge_section(&mut bundle, "graph", &graph);
        let mut profile = KvStore::new();
        profile.set_f64("duration", 12.5);
        merge_section(&mut bundle, "profile", &profile);

        let g = section(&bundle, "graph");
        assert_eq!(g.get("name"), Some("j"));
        assert_eq!(g.get_u64("stages"), Some(1));
        let p = section(&bundle, "profile");
        assert_eq!(p.get_f64("duration"), Some(12.5));
        // Sections don't leak into each other.
        assert_eq!(p.get("name"), None);
    }

    #[test]
    fn unknown_command_is_an_error() {
        assert!(run(&["frob".to_string()]).is_err());
        assert!(run(&[]).is_ok()); // Help.
    }

    #[test]
    fn scenario_list_and_unknown_name() {
        assert!(run(&["scenario".into(), "list".into()]).is_ok());
        let err = run(&["scenario".into(), "nope".into()]).unwrap_err();
        assert!(err.contains("hetero-mix"), "{err}");
    }
}
