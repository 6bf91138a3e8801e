//! Recurring-run machinery: training profiles and input-size variation.
//!
//! Jockey models recurring jobs from a prior execution (§2.6); §2.3
//! notes that "the size of the input data to be processed varies across
//! runs of recurring jobs". This module produces both: a *training
//! profile* by executing a generated job once on a dedicated cluster
//! slice (the stand-in for "a single production run", §5.1), and
//! per-run input-size factors to scale subsequent executions.

use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec};
use jockey_jobgraph::profile::JobProfile;
use jockey_simrt::rng::SeedDeriver;
use rand::Rng;

/// A training run that reached the simulation horizon before its job
/// finished, so it measured no complete profile (e.g. a job whose tasks
/// each run longer than the horizon).
#[derive(Clone, Debug, PartialEq)]
pub struct UnfinishedTraining {
    /// The job's name.
    pub job: String,
    /// The simulation horizon, in hours.
    pub horizon_hours: f64,
}

impl std::fmt::Display for UnfinishedTraining {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "training run for {} did not finish within {} simulated hours",
            self.job, self.horizon_hours
        )
    }
}

impl std::error::Error for UnfinishedTraining {}

/// Executes `spec` once at a fixed `tokens` allocation on a dedicated
/// cluster (failures active, no background noise) and returns the
/// measured profile — the training input for Jockey's models — or an
/// error if the run does not finish within the cluster's 24 h horizon.
///
/// # Panics
///
/// Panics if `tokens` is zero.
pub fn try_training_profile(
    spec: &JobSpec,
    tokens: u32,
    seed: u64,
) -> Result<JobProfile, UnfinishedTraining> {
    assert!(tokens > 0);
    let cfg = ClusterConfig::dedicated_with_failures(tokens);
    let horizon_hours = cfg.max_sim_time.as_secs_f64() / 3600.0;
    let mut sim = ClusterSim::new(cfg, seed);
    sim.add_job(spec.clone(), Box::new(FixedAllocation(tokens)));
    let result = sim.run_single();
    match result.completed_at {
        Some(_) => Ok(result.profile),
        None => Err(UnfinishedTraining {
            job: spec.graph.name().to_string(),
            horizon_hours,
        }),
    }
}

/// [`try_training_profile`] for specs known to finish.
///
/// # Panics
///
/// Panics if `tokens` is zero or the run does not finish within 24
/// simulated hours (a pathological spec).
pub fn training_profile(spec: &JobSpec, tokens: u32, seed: u64) -> JobProfile {
    try_training_profile(spec, tokens, seed).unwrap_or_else(|e| panic!("{e}"))
}

/// Draws `n` input-size factors for successive runs of a recurring
/// job: log-normal around 1.0 with the given coefficient of spread
/// (e.g. 0.15 keeps ~90% of runs within roughly ±25%).
///
/// # Panics
///
/// Panics if `spread` is negative.
pub fn input_size_factors(n: usize, spread: f64, seed: u64) -> Vec<f64> {
    assert!(spread >= 0.0);
    let mut rng = SeedDeriver::new(seed).rng("input-sizes");
    (0..n)
        .map(|_| {
            let u1: f64 = 1.0 - rng.gen::<f64>();
            let u2: f64 = rng.gen();
            let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
            (spread * z).exp()
        })
        .collect()
}

/// Scales a job spec's runtime distributions by an input-size factor,
/// returning a new spec (larger inputs mean proportionally more work
/// per task).
///
/// # Panics
///
/// Panics if `factor` is not strictly positive.
pub fn scaled_spec(spec: &JobSpec, factor: f64) -> JobSpec {
    assert!(factor > 0.0 && factor.is_finite());
    let runtimes = spec
        .stage_runtimes
        .iter()
        .map(|d| jockey_simrt::dist::Dist::scaled(d.clone(), factor))
        .collect();
    JobSpec::new(
        spec.graph.clone(),
        runtimes,
        spec.stage_queues.clone(),
        spec.task_failure_prob,
        spec.data_gb * factor,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::jobs::paper_job;
    use jockey_simrt::stats;

    #[test]
    fn training_profile_measures_the_job() {
        let job = paper_job(1, 2); // Job B, barrier-free, 1605 tasks.
        let p = training_profile(&job.spec, 50, 3);
        assert_eq!(p.stages.len(), job.graph.num_stages());
        assert!(p.total_work() > 0.0);
        assert!(p.duration > 0.0);
        // Every task ran at least once.
        let attempts: usize = p.stages.iter().map(|s| s.runtimes.len()).sum();
        assert!(attempts as u64 >= job.graph.total_tasks());
    }

    #[test]
    fn a_run_past_the_horizon_is_an_error() {
        let job = paper_job(1, 2);
        // A million-fold input stretches the job far past the horizon.
        let slow = scaled_spec(&job.spec, 1e6);
        let err = try_training_profile(&slow, 50, 3).unwrap_err();
        assert_eq!(err.horizon_hours, 24.0);
        assert!(err.to_string().contains("did not finish"), "{err}");
    }

    #[test]
    fn input_size_factors_center_on_one() {
        let f = input_size_factors(4_000, 0.15, 9);
        assert_eq!(f.len(), 4_000);
        let med = stats::percentile(&f, 50.0);
        assert!((med - 1.0).abs() < 0.05, "median {med}");
        assert!(f.iter().all(|&x| x > 0.0));
        // Zero spread means exactly 1.0.
        assert!(input_size_factors(10, 0.0, 9).iter().all(|&x| x == 1.0));
    }

    #[test]
    fn scaled_spec_scales_work() {
        let job = paper_job(2, 2);
        let doubled = scaled_spec(&job.spec, 2.0);
        let base = job.spec.expected_work();
        let scaled = doubled.expected_work();
        if let (Some(b), Some(s)) = (base, scaled) {
            assert!((s / b - 2.0).abs() < 1e-9);
        }
        assert_eq!(doubled.data_gb, job.spec.data_gb * 2.0);
    }
}
