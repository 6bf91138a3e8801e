//! Table 3: the training run of job F compared with two actual runs
//! needing substantially more work — the paper's "job 1" (almost twice
//! the work, missed its deadline slightly) and "job 2" (more work, met
//! the deadline thanks to runtime adaptation).

use jockey_core::policy::Policy;
use jockey_jobgraph::profile::JobProfile;
use jockey_simrt::stats;
use jockey_simrt::table::Table;

use crate::env::Env;
use crate::slo::{run_slo_profiled, SloConfig, SloOutcome};

/// Runs the two inflated executions and builds the comparison table.
pub fn run(env: &Env) -> (Table, Vec<SloOutcome>) {
    let detailed = env.detailed();
    let job = detailed
        .iter()
        .find(|j| j.gen.targets.name == "F")
        .unwrap_or(&detailed[0]);
    let cluster = env.experiment_cluster();
    let deadline = job.deadline.scale(0.9);

    let run_at = |scale: f64, seed: u64| {
        let mut cfg = SloConfig::standard(Policy::Jockey, deadline, cluster.clone(), seed);
        cfg.work_scale = scale;
        run_slo_profiled(job, &cfg)
    };
    let (job1, profile1) = run_at(1.9, env.seed ^ 0x731);
    let (job2, profile2) = run_at(1.45, env.seed ^ 0x732);

    let mut t = Table::new(["statistic", "training", "job 1", "job 2"]);
    let stat = |t: &mut Table, label: &str, f: &dyn Fn(&JobProfile) -> f64| {
        t.row([
            label.to_string(),
            format!("{:.1}", f(&job.profile)),
            format!("{:.1}", f(&profile1)),
            format!("{:.1}", f(&profile2)),
        ]);
    };
    stat(&mut t, "total work [hours]", &|p| p.total_work() / 3_600.0);
    stat(&mut t, "queueing median [sec]", &|p| {
        pooled_percentile(p, 50.0, true)
    });
    stat(&mut t, "queueing 90th perc. [sec]", &|p| {
        pooled_percentile(p, 90.0, true)
    });
    stat(&mut t, "latency median [sec]", &|p| {
        pooled_percentile(p, 50.0, false)
    });
    stat(&mut t, "latency 90th perc. [sec]", &|p| {
        pooled_percentile(p, 90.0, false)
    });
    t.row([
        "completion vs deadline".to_string(),
        "-".to_string(),
        format!("{:.2}", job1.rel_deadline),
        format!("{:.2}", job2.rel_deadline),
    ]);
    (t, vec![job1, job2])
}

/// Pooled task queueing (`queues = true`) or runtime percentile across
/// all stages of a profile.
fn pooled_percentile(p: &JobProfile, q: f64, queues: bool) -> f64 {
    let pooled: Vec<f64> = p
        .stages
        .iter()
        .flat_map(|s| {
            if queues {
                s.queue_times.iter().copied()
            } else {
                s.runtimes.iter().copied()
            }
        })
        .collect();
    if pooled.is_empty() {
        0.0
    } else {
        stats::percentile(&pooled, q)
    }
}

/// Pipeline registration for Table 3.
pub struct Table3Experiment;

impl crate::experiment::Experiment for Table3Experiment {
    fn name(&self) -> &'static str {
        "table3"
    }
    fn title(&self) -> &'static str {
        "Table 3: training vs. actual runs of job F"
    }
    fn run(
        &self,
        env: &crate::env::Env,
        _store: &crate::artifact::ArtifactStore,
    ) -> Vec<crate::experiment::Emission> {
        let (table, _) = run(env);
        vec![crate::experiment::Emission::Table {
            name: "table3".into(),
            title: self.title().into(),
            table,
        }]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::env::Scale;

    #[test]
    fn inflated_runs_do_more_work() {
        let env = Env::build(Scale::Smoke, 13);
        let (t, outcomes) = run(&env);
        assert_eq!(t.len(), 6);
        // Both inflated runs complete and need more work than training.
        let job = &env.detailed()[0];
        let training_work = job.profile.total_work();
        assert!(outcomes[0].work_done_secs > training_work * 1.4);
        assert!(outcomes[1].work_done_secs > training_work * 1.1);
        // Job 1 (1.9x) needs more work than job 2 (1.45x).
        assert!(outcomes[0].work_done_secs > outcomes[1].work_done_secs);
    }
}
