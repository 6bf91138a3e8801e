//! Speculation experiment (beyond the paper's evaluation): SLO
//! attainment and token overhead of clone-on-slow speculative
//! execution on a heavy-tailed workload, **at equal total token
//! budget**.
//!
//! Every cell runs the same single-stage map job whose task runtimes
//! mix a fast body with a Pareto straggler tail, under one of four
//! clone policies — `off`, or clone-on-slow at a 1.5×/2.0×/3.0×
//! slowdown threshold — crossed with three straggler intensities. The
//! arms are budget-matched: the `off` arm holds all
//! `TOTAL_TOKENS` as guarantee headroom (useless beyond the stage
//! width), the speculative arms hold `TOTAL_TOKENS − CLONE_BUDGET`
//! guaranteed plus the clone budget, so any attainment gain is bought
//! by *reapportioning* tokens, not adding them. At a given seed the
//! original attempts draw identical runtimes in every arm (clone
//! draws happen after all first attempts), so speculation can only
//! shorten a run.
//!
//! Two tables are emitted: `speculation` (SLO attainment and latency
//! per cell) and `speculation_overhead` (clones launched, races won,
//! and the wasted-work fraction the clone budget costs).

use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec, SpeculationConfig};
use jockey_simrt::dist::{Constant, Dist, LogNormal, Pareto};
use jockey_simrt::stats;
use jockey_simrt::table::Table;

use crate::env::Env;
use crate::par::parallel_map;

/// Seed salt decorrelating speculation runs from the other figures.
const SALT: u64 = 0xc10e;

/// Tokens every arm holds in total — guarantee plus clone budget.
const TOTAL_TOKENS: u32 = 20;

/// Clone tokens the speculative arms carve out of [`TOTAL_TOKENS`].
const CLONE_BUDGET: u32 = 4;

/// Width of the probe job's map stage (and the guarantee the
/// speculative arms keep, `TOTAL_TOKENS − CLONE_BUDGET`).
const STAGE_TASKS: u32 = 16;

/// Fraction of straggler draws per sweep row.
const INTENSITIES: &[f64] = &[0.05, 0.15, 0.30];

/// One clone policy arm of the sweep.
#[derive(Clone, Copy)]
struct PolicyArm {
    /// Row label.
    label: &'static str,
    /// Clone-on-slow slowdown threshold; `None` is the off arm.
    threshold: Option<f64>,
}

/// The swept clone policies, off first.
const ARMS: &[PolicyArm] = &[
    PolicyArm {
        label: "off",
        threshold: None,
    },
    PolicyArm {
        label: "clone@1.5x",
        threshold: Some(1.5),
    },
    PolicyArm {
        label: "clone@2.0x",
        threshold: Some(2.0),
    },
    PolicyArm {
        label: "clone@3.0x",
        threshold: Some(3.0),
    },
];

/// The probe job: one map stage whose task runtimes are mostly a fast
/// log-normal body with probability `intensity` of a Pareto straggler
/// draw (`alpha = 1.5` keeps the mean finite, as the speculation
/// machinery requires, while the far quantiles run into the
/// thousands of seconds).
fn probe_spec(intensity: f64) -> JobSpec {
    let mut b = jockey_jobgraph::graph::JobGraphBuilder::new("speculation-probe");
    b.stage("map", STAGE_TASKS);
    let graph = std::sync::Arc::new(b.build().expect("one-stage graph is valid"));
    let runtime = Dist::mixture(
        LogNormal::from_median_p90(10.0, 16.0),
        straggler_tail(),
        intensity,
    );
    JobSpec::new(graph, vec![runtime], vec![Constant(0.0).into()], 0.0, 0.0)
}

/// The straggler tail shared by the probe and the deadline rule.
fn straggler_tail() -> Pareto {
    Pareto::new(300.0, 1.5)
}

/// The cell's SLO deadline: a fixed multiple of the mixture's mean
/// task runtime, so harder intensities get proportionally looser (but
/// still straggler-vulnerable) promises.
fn deadline_secs(intensity: f64) -> f64 {
    let spec = probe_spec(intensity);
    let mean = spec.stage_runtimes[0]
        .mean()
        .expect("mixture of finite-mean components");
    4.0 * mean
}

/// The budget-matched cluster for one arm: dedicated tokens, no
/// background noise, guarantee split per the arm's clone policy.
fn arm_cluster(arm: &PolicyArm) -> (ClusterConfig, u32) {
    let mut cfg = ClusterConfig::dedicated(TOTAL_TOKENS);
    match arm.threshold {
        None => {
            cfg.max_guarantee = TOTAL_TOKENS;
            (cfg, TOTAL_TOKENS)
        }
        Some(t) => {
            cfg.max_guarantee = TOTAL_TOKENS - CLONE_BUDGET;
            cfg.speculation = Some(SpeculationConfig::clone_on_slow(t, CLONE_BUDGET));
            (cfg, TOTAL_TOKENS - CLONE_BUDGET)
        }
    }
}

/// One run's measurements.
struct RunOutcome {
    latency_secs: f64,
    met: bool,
    clone_tasks: u64,
    clone_wins: u64,
    work_done_secs: f64,
    wasted_secs: f64,
}

/// All runs of one `(intensity, arm)` cell, in seed order.
struct Cell {
    intensity: f64,
    arm: &'static PolicyArm,
    deadline: f64,
    outcomes: Vec<RunOutcome>,
}

/// Independent runs per cell at this environment's scale.
fn runs_per_cell(env: &Env) -> usize {
    12 * env.scale.repeats()
}

/// Runs the full sweep: `INTENSITIES × ARMS × runs_per_cell`
/// budget-matched executions, deterministic in the environment seed
/// at any worker count.
fn sweep(env: &Env) -> Vec<Cell> {
    let runs = runs_per_cell(env);
    let mut items = Vec::new();
    for (ii, &intensity) in INTENSITIES.iter().enumerate() {
        for (ai, arm) in ARMS.iter().enumerate() {
            for rep in 0..runs {
                items.push((ii, ai, rep, intensity, arm));
            }
        }
    }
    let outcomes = parallel_map(items.clone(), |(ii, ai, rep, intensity, arm)| {
        let spec = probe_spec(intensity);
        let deadline = deadline_secs(intensity);
        let (cluster, alloc) = arm_cluster(arm);
        // Seeds depend on intensity and repeat but NOT on the arm, so
        // every arm replays the same original runtime draws.
        let seed = env.seed ^ SALT ^ ((ii as u64) << 32) ^ ((rep as u64) << 4);
        let _ = ai;
        let mut sim = ClusterSim::new(cluster.clone(), seed);
        sim.add_job(spec, Box::new(FixedAllocation(alloc)));
        let r = sim.run_single();
        let latency_secs = r
            .duration()
            .map(|d| d.as_secs_f64())
            .unwrap_or_else(|| cluster.max_sim_time.as_secs_f64());
        RunOutcome {
            latency_secs,
            met: r.completed_at.is_some() && latency_secs <= deadline + 1e-9,
            clone_tasks: r.clone_task_count,
            clone_wins: r.clone_wins,
            work_done_secs: r.work_done_secs,
            wasted_secs: r.wasted_secs,
        }
    });

    let mut cells: Vec<Cell> = INTENSITIES
        .iter()
        .flat_map(|&intensity| {
            ARMS.iter().map(move |arm| Cell {
                intensity,
                arm,
                deadline: deadline_secs(intensity),
                outcomes: Vec::new(),
            })
        })
        .collect();
    for ((ii, ai, _, _, _), o) in items.into_iter().zip(outcomes) {
        cells[ii * ARMS.len() + ai].outcomes.push(o);
    }
    cells
}

/// Renders the SLO-attainment table.
fn attainment_table(cells: &[Cell]) -> Table {
    let mut t = Table::new([
        "straggler_frac",
        "policy",
        "runs",
        "met_SLO",
        "deadline_secs",
        "mean_latency_secs",
        "p99_latency_secs",
    ]);
    for c in cells {
        let n = c.outcomes.len().max(1);
        let met = c.outcomes.iter().filter(|o| o.met).count() as f64 / n as f64;
        let lat: Vec<f64> = c.outcomes.iter().map(|o| o.latency_secs).collect();
        t.row([
            format!("{:.2}", c.intensity),
            c.arm.label.to_string(),
            c.outcomes.len().to_string(),
            format!("{:.0}%", met * 100.0),
            format!("{:.0}", c.deadline),
            format!("{:.1}", stats::mean(&lat)),
            format!("{:.1}", stats::percentile(&lat, 99.0)),
        ]);
    }
    t
}

/// Renders the token-overhead table: what the clone budget bought and
/// what it wasted.
fn overhead_table(cells: &[Cell]) -> Table {
    let mut t = Table::new([
        "straggler_frac",
        "policy",
        "guarantee_tokens",
        "clone_tokens",
        "mean_clones",
        "mean_clone_wins",
        "wasted_frac",
    ]);
    for c in cells {
        let n = c.outcomes.len().max(1) as f64;
        let clones: f64 = c.outcomes.iter().map(|o| o.clone_tasks as f64).sum::<f64>() / n;
        let wins: f64 = c.outcomes.iter().map(|o| o.clone_wins as f64).sum::<f64>() / n;
        let work: f64 = c.outcomes.iter().map(|o| o.work_done_secs).sum();
        let wasted: f64 = c.outcomes.iter().map(|o| o.wasted_secs).sum();
        let (_, guarantee) = arm_cluster(c.arm);
        t.row([
            format!("{:.2}", c.intensity),
            c.arm.label.to_string(),
            guarantee.to_string(),
            (TOTAL_TOKENS - guarantee).to_string(),
            format!("{clones:.2}"),
            format!("{wins:.2}"),
            format!("{:.3}", wasted / (work + wasted).max(1e-9)),
        ]);
    }
    t
}

/// Pipeline registration for the speculation sweep.
pub struct SpeculationExperiment;

impl crate::experiment::Experiment for SpeculationExperiment {
    fn name(&self) -> &'static str {
        "speculation"
    }
    fn title(&self) -> &'static str {
        "Clone-on-slow speculation: SLO attainment and token overhead"
    }
    fn run(
        &self,
        env: &crate::env::Env,
        _store: &crate::artifact::ArtifactStore,
    ) -> Vec<crate::experiment::Emission> {
        let cells = sweep(env);
        vec![
            crate::experiment::Emission::Table {
                name: "speculation".into(),
                title: self.title().into(),
                table: attainment_table(&cells),
            },
            crate::experiment::Emission::Table {
                name: "speculation_overhead".into(),
                title: "Clone-on-slow speculation: token overhead".into(),
                table: overhead_table(&cells),
            },
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Scale;

    /// Parses the `met_SLO` percentage of the row for `(intensity
    /// index, arm index)`.
    fn met_pct(tsv: &str, ii: usize, ai: usize) -> f64 {
        let row = tsv
            .lines()
            .nth(1 + ii * ARMS.len() + ai)
            .expect("row present");
        let cell = row.split('\t').nth(3).expect("met_SLO column");
        cell.trim_end_matches('%').parse().expect("percentage")
    }

    #[test]
    fn cloning_improves_attainment_at_equal_budget() {
        let env = Env::build(Scale::Smoke, 42);
        let cells = sweep(&env);
        let tsv = attainment_table(&cells).to_tsv();
        // At every intensity, each speculative arm meets at least as
        // many SLOs as the budget-matched off arm — and at the highest
        // intensity the best arm is strictly better.
        for ii in 0..INTENSITIES.len() {
            let off = met_pct(&tsv, ii, 0);
            for ai in 1..ARMS.len() {
                assert!(
                    met_pct(&tsv, ii, ai) >= off,
                    "intensity {ii} arm {ai} fell below the off arm"
                );
            }
        }
        let hardest = INTENSITIES.len() - 1;
        let off = met_pct(&tsv, hardest, 0);
        let best = (1..ARMS.len())
            .map(|ai| met_pct(&tsv, hardest, ai))
            .fold(f64::MIN, f64::max);
        assert!(
            best > off,
            "no speculative arm beat the off arm at the hardest intensity ({best} vs {off})"
        );
    }

    #[test]
    fn speculation_only_shortens_runs_at_matched_seeds() {
        let env = Env::build(Scale::Smoke, 42);
        let cells = sweep(&env);
        // Seeds are arm-independent, so at every (intensity, repeat)
        // each speculative run is at most as long as the off run.
        for ii in 0..INTENSITIES.len() {
            let off = &cells[ii * ARMS.len()];
            for ai in 1..ARMS.len() {
                let on = &cells[ii * ARMS.len() + ai];
                for (a, b) in off.outcomes.iter().zip(&on.outcomes) {
                    assert!(
                        b.latency_secs <= a.latency_secs + 1e-9,
                        "arm {ai} slowed a run: {} vs {}",
                        b.latency_secs,
                        a.latency_secs
                    );
                }
            }
        }
    }

    #[test]
    fn overhead_rows_account_for_the_clone_budget() {
        let env = Env::build(Scale::Smoke, 42);
        let cells = sweep(&env);
        let tsv = overhead_table(&cells).to_tsv();
        for (i, line) in tsv.lines().skip(1).enumerate() {
            let cols: Vec<&str> = line.split('\t').collect();
            let guarantee: u32 = cols[2].parse().unwrap();
            let clones: u32 = cols[3].parse().unwrap();
            assert_eq!(guarantee + clones, TOTAL_TOKENS, "row {i}");
        }
        // The off arm never launches clones; the 1.5x arm at the
        // hardest intensity does.
        assert!(tsv
            .lines()
            .skip(1)
            .step_by(ARMS.len())
            .all(|l| { l.split('\t').nth(4).unwrap().parse::<f64>().unwrap() == 0.0 }));
        let hardest_fast = cells[(INTENSITIES.len() - 1) * ARMS.len() + 1]
            .outcomes
            .iter()
            .map(|o| o.clone_tasks)
            .sum::<u64>();
        assert!(hardest_fast > 0, "clone-on-slow never engaged");
    }

    #[test]
    fn sweep_is_deterministic_in_the_environment_seed() {
        let env = Env::build(Scale::Smoke, 42);
        let a = attainment_table(&sweep(&env)).to_tsv();
        let b = attainment_table(&sweep(&env)).to_tsv();
        assert_eq!(a, b);
    }
}
