//! Property-based tests of the cluster simulator's conservation and
//! robustness invariants under arbitrary job shapes and noise.

mod common;

use jockey_cluster::{
    BackgroundConfig, ClusterConfig, ClusterSim, FailureConfig, FixedAllocation, JobSpec, RunHooks,
};
use jockey_simrt::dist::{Constant, LogNormal};
use jockey_simrt::observe::ProgressSink;
use proptest::prelude::*;

/// One progress-sample record: `(job, elapsed_secs, stage_fractions)`.
type Sample = (usize, f64, Vec<f64>);

/// Collects every progress sample a run emits.
#[derive(Default)]
struct SampleLog(Vec<Sample>);

impl ProgressSink for SampleLog {
    fn sample(&mut self, job: usize, elapsed_secs: f64, stage_fraction: &[f64]) {
        self.0.push((job, elapsed_secs, stage_fraction.to_vec()));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// With failures enabled the job still finishes, and the work
    /// accounting identity holds: completed work equals the failure-free
    /// total, with waste strictly accounting for the extra attempts.
    #[test]
    fn failure_runs_finish_and_account_work(
        graph in common::arb_graph("cluster-prop"),
        fail_prob in 0.0_f64..0.4,
        seed in any::<u64>(),
    ) {
        let spec = JobSpec::uniform(graph.clone(), Constant(4.0), Constant(0.2), fail_prob);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated_with_failures(6), seed);
        sim.add_job(spec, Box::new(FixedAllocation(6)));
        let r = sim.run_single();
        prop_assert!(r.completed_at.is_some(), "wedged with fail_prob {}", fail_prob);
        let clean_work = graph.total_tasks() as f64 * 4.0;
        prop_assert!((r.work_done_secs - clean_work).abs() < 1e-6);
        if fail_prob == 0.0 {
            prop_assert_eq!(r.wasted_secs, 0.0);
        }
    }

    /// Under any background-noise setting the job completes, and the
    /// eviction machinery never loses completed work permanently.
    #[test]
    fn noisy_cluster_never_wedges(
        graph in common::arb_graph("cluster-prop"),
        mean_util in 0.3_f64..0.99,
        volatility in 0.0_f64..0.2,
        seed in any::<u64>(),
    ) {
        let spec = JobSpec::uniform(
            graph.clone(),
            LogNormal::from_median_p90(3.0, 8.0),
            Constant(0.3),
            0.02,
        );
        let cfg = ClusterConfig {
            topology: None,
            speculation: None,
            total_tokens: 40,
            max_guarantee: 8,
            spare_enabled: true,
            spare_slowdown: 1.3,
            control_period: jockey_simrt::time::SimDuration::from_secs(30),
            background: BackgroundConfig {
                enabled: true,
                mean_util,
                volatility,
                reversion: 0.1,
                overload_rate_per_hour: 4.0,
                overload_duration_mins: 2.0,
                overload_util: 1.0,
                tick: jockey_simrt::time::SimDuration::from_secs(15),
                slowdown_knee: 0.8,
                slowdown_slope: 2.0,
                diurnal_amplitude: 0.0,
                diurnal_period: jockey_simrt::time::SimDuration::from_mins(24 * 60),
                diurnal_phase: 0.0,
            },
            failures: FailureConfig {
                task_failure_prob: None,
                machine_failure_rate_per_hour: 6.0,
                tasks_per_machine: 2,
                data_loss_prob: 0.5,
                rack_failure_rate_per_hour: 0.0,
                replica_loss_prob: 0.0,
            },
            max_sim_time: jockey_simrt::time::SimTime::from_mins(24 * 60),
        };
        let mut sim = ClusterSim::new(cfg, seed);
        sim.add_job(spec, Box::new(FixedAllocation(8)));
        let r = sim.run_single();
        prop_assert!(r.completed_at.is_some(), "job wedged under noise");
        // All tasks completed exactly once at the end.
        let total_attempt_runtime: f64 = r
            .profile
            .stages
            .iter()
            .map(|s| s.runtimes.iter().sum::<f64>())
            .sum();
        prop_assert!(total_attempt_runtime + 1e-6 >= r.work_done_secs);
    }

    /// Guarantee capping: the applied guarantee never exceeds the
    /// configured maximum, whatever the controller requests.
    #[test]
    fn guarantee_is_always_capped(
        graph in common::arb_graph("cluster-prop"),
        request in 1_u32..1000,
        cap in 1_u32..16,
    ) {
        let spec = JobSpec::uniform(graph, Constant(2.0), Constant(0.0), 0.0);
        let mut cfg = ClusterConfig::dedicated(16);
        cfg.max_guarantee = cap;
        let mut sim = ClusterSim::new(cfg, 1);
        sim.add_job(spec, Box::new(FixedAllocation(request)));
        let r = sim.run_single();
        prop_assert!(r.trace.max_guarantee() <= f64::from(cap));
        prop_assert!(r.completed_at.is_some());
    }

    /// Determinism under full noise: identical seeds give identical
    /// traces.
    #[test]
    fn full_noise_determinism(graph in common::arb_graph("cluster-prop"), seed in any::<u64>()) {
        let run = || {
            let spec = JobSpec::uniform(
                graph.clone(),
                LogNormal::from_median_p90(2.0, 6.0),
                Constant(0.1),
                0.05,
            );
            let mut cfg = ClusterConfig::production();
            cfg.total_tokens = 60;
            cfg.max_guarantee = 10;
            let mut sim = ClusterSim::new(cfg, seed);
            sim.add_job(spec, Box::new(FixedAllocation(6)));
            let r = sim.run_single();
            (r.completed_at, r.work_done_secs, r.wasted_secs, r.spare_task_count)
        };
        prop_assert_eq!(run(), run());
    }

    /// Two competing jobs on random DAGs in the dedicated failure-prone
    /// regime, with the per-step invariant checker on: one job has
    /// jittered runtimes and failures, the other constant runtimes
    /// (whole waves finish at one instant), and every scheduler pass
    /// serves both. Both jobs finish, and a second run at the same seed
    /// returns bit-identical results and progress-sample streams
    /// (compared through `Debug`, which prints every `f64` in its
    /// shortest round-trip form).
    #[test]
    fn two_jobs_finish_and_replay_bit_identically(
        graph_a in common::arb_graph("cluster-prop"),
        graph_b in common::arb_graph("cluster-prop"),
        seed in any::<u64>(),
    ) {
        let a = JobSpec::uniform(
            graph_a,
            LogNormal::from_median_p90(3.0, 8.0),
            Constant(0.2),
            0.05,
        );
        let b = JobSpec::uniform(graph_b, Constant(5.0), Constant(0.0), 0.0);
        let run = || {
            let mut sim = ClusterSim::new(ClusterConfig::dedicated_with_failures(8), seed);
            sim.set_invariant_checks(true);
            sim.add_job(a.clone(), Box::new(FixedAllocation(5)));
            sim.add_job(b.clone(), Box::new(FixedAllocation(3)));
            let mut sink = SampleLog::default();
            let results = sim.run_hooked(RunHooks {
                sink: Some(&mut sink),
                reclaim: None,
            });
            (results, sink.0)
        };
        let (first, first_samples) = run();
        prop_assert_eq!(first.len(), 2);
        for r in &first {
            prop_assert!(r.completed_at.is_some(), "{} did not finish", r.name);
        }
        let (second, second_samples) = run();
        prop_assert_eq!(format!("{first:?}"), format!("{second:?}"));
        prop_assert_eq!(format!("{first_samples:?}"), format!("{second_samples:?}"));
    }
}
