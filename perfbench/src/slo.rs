//! `slo`: the §5.2 policy sweep. Every catalogue job, at its base
//! deadline (and twice that for the Table 2 jobs), under each of the
//! four policies, three repeats: 336 SLO-controlled runs in the
//! ≈93%-utilised shared cluster on models trained during set-up. It
//! exercises the engine's sparse regime (background load, spare
//! tokens, evictions, failures) and the per-minute control loop, with
//! no training in the timed pass.

use std::sync::Arc;
use std::time::Instant;

use jockey_cluster::{ClusterConfig, SimWorkspace};
use jockey_core::policy::Policy;
use jockey_experiments::env::{Env, Scale};
use jockey_experiments::par::parallel_map_with;
use jockey_simrt::time::SimDuration;
use jockey_workloads::recurring::input_size_factors;

use crate::fleet::{self, RunOutcome, SloRun, Work};
use jockey_experiments::figures::sweep;
use jockey_simrt::stats::{mean, percentile};

use crate::measure::{ratio, secs_since, Digest, Metrics};
use crate::tracer::{in_pass, Tracer};
use crate::{Pass, Workload};

/// Repeats per (job, deadline, policy) cell, as at full scale.
const REPEATS: usize = 3;

/// One sweep cell: (job index, policy, deadline, input-size factor,
/// seed).
pub type Cell = (usize, Policy, SimDuration, f64, u64);

/// The sweep's cells in `figures::sweep::run` order, with its seeds.
pub fn cells(env: &Env) -> Vec<Cell> {
    let mut items = Vec::new();
    for (ji, job) in env.jobs.iter().enumerate() {
        let factors = input_size_factors(REPEATS * 2, 0.18, env.seed ^ (ji as u64));
        let mut deadlines = vec![job.deadline];
        if job.detailed {
            deadlines.push(job.deadline * 2);
        }
        for (di, deadline) in deadlines.into_iter().enumerate() {
            for policy in Policy::ALL {
                for rep in 0..REPEATS {
                    let seed = env.seed
                        ^ ((ji as u64) << 32)
                        ^ ((rep as u64) << 16)
                        ^ (policy_tag(policy) << 8)
                        ^ (deadline.as_millis() & 0xff);
                    items.push((ji, policy, deadline, factors[di * REPEATS + rep], seed));
                }
            }
        }
    }
    items
}

fn policy_tag(p: Policy) -> u64 {
    match p {
        Policy::Jockey => 1,
        Policy::JockeyNoAdapt => 2,
        Policy::JockeyNoSim => 3,
        Policy::MaxAllocation => 4,
    }
}

/// Runs `cells` across every core with one workspace per worker, as
/// `figures::sweep::run` does; outcomes come back in cell order. The
/// traced mirror of `sweep::run`.
pub fn run_cells(
    env: &Env,
    cells: &[Cell],
    cluster: &ClusterConfig,
    trace: Option<(&Arc<Tracer>, u32)>,
) -> Vec<RunOutcome> {
    parallel_map_with(
        cells.to_vec(),
        SimWorkspace::new,
        |ws, (ji, policy, deadline, work_scale, seed)| {
            let job = &env.jobs[ji];
            let req = SloRun {
                spec: &job.gen.spec,
                setup: &job.setup,
                policy,
                deadline,
                work_scale,
                cluster,
                seed,
            };
            fleet::run_slo(&req, ws, trace)
        },
    )
}

/// Jockey-policy miss fraction (incomplete runs count as misses) and
/// mean fraction of allocation above the oracle.
pub fn jockey_quality(outcomes: &[RunOutcome]) -> (f64, f64) {
    let jockey: Vec<&RunOutcome> = outcomes
        .iter()
        .filter(|o| o.policy == Policy::Jockey)
        .collect();
    let missed = jockey.iter().filter(|o| !o.met).count() as f64;
    let above: Vec<f64> = jockey.iter().map(|o| o.frac_above_oracle).collect();
    (ratio(missed, jockey.len() as f64), mean(&above))
}

/// Cluster- and control-layer metrics: `runs` is one pass's engine
/// counters; `tracer` holds `traced` passes' spans and histograms.
pub fn run_layers(runs: &[Work], tracer: &Tracer, traced: usize, out: &mut Metrics) {
    let per_pass = |x: f64| x / traced.max(1) as f64;
    let run_secs = tracer.span_secs("cluster.run");
    let tick = &tracer.control_tick;
    let query = &tracer.model_query;
    let tasks: u64 = runs.iter().map(Work::tasks).sum();
    let sum = |f: fn(&Work) -> f64| runs.iter().map(f).sum::<f64>();
    let run_total = per_pass(run_secs.iter().sum::<f64>());
    out.put("cluster.runs", runs.len() as f64, "");
    out.put("cluster.self_s", run_total - per_pass(tick.sum_secs()), "");
    out.put("cluster.run_us_p50", percentile(&run_secs, 50.0) * 1e6, "");
    out.put("cluster.run_us_p99", percentile(&run_secs, 99.0) * 1e6, "");
    out.put("cluster.tasks", tasks as f64, "");
    out.put(
        "cluster.host_ns_per_task",
        ratio(run_total * 1e9, tasks as f64),
        "",
    );
    out.put(
        "cluster.spare_task_frac",
        ratio(sum(|o| o.spare_tasks as f64), tasks as f64),
        "",
    );
    let work = sum(|o| o.work_done_secs);
    out.put(
        "cluster.useful_work_frac",
        ratio(work, work + sum(|o| o.wasted_secs)),
        "",
    );
    out.put(
        "cluster.clone_win_frac",
        ratio(sum(|o| o.clone_wins as f64), sum(|o| o.clone_tasks as f64)),
        "",
    );
    out.put("control.ticks", per_pass(tick.count() as f64), "");
    out.put("control.tick_ns_p50", tick.quantile_ns(0.5), "");
    out.put("control.tick_ns_p99", tick.quantile_ns(0.99), "");
    out.put(
        "control.self_s",
        per_pass(tick.sum_secs() - query.sum_secs()),
        "",
    );
    out.put(
        "control.queries_per_tick",
        ratio(query.count() as f64, tick.count() as f64),
        "",
    );
    out.put("cpa.queries", per_pass(query.count() as f64), "");
    out.put("cpa.query_ns_p50", query.quantile_ns(0.5), "");
    out.put("cpa.query_ns_p99", query.quantile_ns(0.99), "");
}

/// The `slo` workload.
pub struct Slo {
    env: Env,
    cells: Vec<Cell>,
    cluster: ClusterConfig,
    last: Vec<RunOutcome>,
    /// Engine counters of the last traced pass.
    traced_runs: Vec<Work>,
}

impl Workload for Slo {
    // One set-up trains 21 models in parallel: seconds of work, but with
    // two training pools nested on two cores its time moves by ±15% from
    // one build to the next.
    const SETUPS: usize = 4;

    fn setup(seed: u64) -> Self {
        let mut env = Env::build(Scale::Full, fleet::CATALOGUE_SEED);
        env.seed = seed;
        let cells = cells(&env);
        let cluster = env.experiment_cluster();
        Slo {
            env,
            cells,
            cluster,
            last: Vec::new(),
            traced_runs: Vec::new(),
        }
    }

    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Pass {
        // Untraced passes time the library's sweep itself; traced ones
        // its mirror, which must digest alike.
        let t = Instant::now();
        let (secs, outcomes) = match tracer {
            None => {
                let lib = sweep::run(&self.env);
                let secs = secs_since(t);
                (secs, lib.iter().map(RunOutcome::of_library).collect())
            }
            Some(_) => {
                let runs = in_pass(tracer, |tr| {
                    run_cells(&self.env, &self.cells, &self.cluster, tr)
                });
                (secs_since(t), runs)
            }
        };
        if tracer.is_some() {
            self.traced_runs = outcomes.iter().map(|o| o.work).collect();
        }
        let mut d = Digest::default();
        let mut failed = 0;
        for o in &outcomes {
            o.digest(&mut d);
            failed += u64::from(!fleet::run_ok(o, &self.cluster));
        }
        self.last = outcomes;
        Pass {
            secs,
            ops: self.cells.len() as u64,
            failed,
            digest: d.value(),
            rates: vec![("slo_runs_per_s", self.cells.len() as f64 / secs)],
        }
    }

    fn quality(&self) -> Vec<(&'static str, f64)> {
        let (miss, above) = jockey_quality(&self.last);
        vec![("miss_frac", miss), ("above_oracle", above)]
    }

    fn layers(&self, tracer: &Tracer, traced: usize, out: &mut Metrics) {
        run_layers(&self.traced_runs, tracer, traced, out);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sweep_cells_reproduce_the_library_sweep_traced_or_not() {
        let env = crate::fleet::tests::one_job_env(5);
        let cells = cells(&env);
        assert_eq!(cells.len(), 2 * 4 * REPEATS);
        let lib = sweep::run(&env);
        let cluster = env.experiment_cluster();
        let plain = run_cells(&env, &cells, &cluster, None);
        let tracer = Arc::new(Tracer::default());
        let traced = in_pass(Some(&tracer), |tr| run_cells(&env, &cells, &cluster, tr));
        assert_eq!(plain, traced, "tracing changed a simulated outcome");
        let digest = |xs: &[RunOutcome]| {
            let mut d = Digest::default();
            xs.iter().for_each(|o| o.digest(&mut d));
            d
        };
        let lib_outcomes: Vec<RunOutcome> = lib.iter().map(RunOutcome::of_library).collect();
        assert_eq!(digest(&plain), digest(&lib_outcomes));
        for (o, l) in plain.iter().zip(&lib) {
            assert_eq!(o.policy, l.policy);
            assert_eq!(o.met, l.met);
            assert_eq!(o.duration_secs, l.duration.as_secs_f64());
            assert_eq!(o.frac_above_oracle.to_bits(), l.frac_above_oracle.to_bits());
            assert!(fleet::run_ok(o, &cluster));
        }
        let (miss, _) = jockey_quality(&plain);
        let lib_miss = sweep::by_policy(&lib, Policy::Jockey)
            .iter()
            .filter(|o| !o.met)
            .count();
        assert_eq!(miss, lib_miss as f64 / (2 * REPEATS) as f64);
    }
}
