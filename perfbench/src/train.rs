//! `train`: offline C(p, a) training of the 21 catalogue jobs on the
//! full-scale grid (13 allocations × 10 runs: 2730 training
//! simulations per pass). Nearly all work sits in the engine's dense
//! training regime and in `cpa` absorption, with no control-loop or
//! control-plane work. Prediction error is measured against held-out
//! fixed-allocation runs at the Fig. 8 allocations.

use std::sync::Arc;
use std::time::Instant;

use jockey_cluster::{ClusterConfig, FixedAllocation, JobSpec, SimWorkspace};
use jockey_core::cpa::TrainConfig;
use jockey_core::policy::JockeySetup;
use jockey_experiments::env::Scale;
use jockey_experiments::par::parallel_map_with;
use jockey_jobgraph::profile::JobProfile;
use jockey_workloads::jobs::GeneratedJob;

use crate::fleet::{self, Work};
use jockey_simrt::stats::{mean, percentile};

use crate::measure::{secs_since, Digest, Metrics};
use crate::slo::run_layers;
use crate::tracer::{in_pass, Tracer};
use crate::{Pass, Workload};

/// Fig. 8's allocation axis.
const HELD_OUT_ALLOCATIONS: [u32; 9] = [20, 30, 40, 50, 60, 70, 80, 90, 100];

/// Held-out runs per (job, allocation), as Fig. 8 at full scale.
const HELD_OUT_REPEATS: usize = 3;

/// Largest rise of fresh latency from one allocation to the next that
/// still counts as non-increasing. Each grid column is a p95 over ten
/// independent runs, so where extra tokens no longer help (a job
/// narrower than the allocation) neighbouring columns estimate the
/// same latency and differ by sampling noise; 8–10 of 21 models at the
/// parent commit rise by up to 2%. A rise beyond this is a broken
/// model, not noise. Strict rises are counted in
/// `cpa.nonmonotone_models`.
const MONOTONE_TOLERANCE: f64 = 0.05;

/// Checks a trained model: fresh latency finite at every allocation and
/// non-increasing in the allocation (within [`MONOTONE_TOLERANCE`]).
/// Returns `(passes, strictly_monotone)`.
pub fn check_model(setup: &JockeySetup) -> (bool, bool) {
    let fresh: Vec<f64> = (1..=setup.max_tokens)
        .map(|a| setup.cpa.fresh_latency(a))
        .collect();
    let finite = fresh.iter().all(|x| x.is_finite() && *x > 0.0);
    let strict = fresh.windows(2).all(|w| w[1] <= w[0]);
    let tolerant = fresh
        .windows(2)
        .all(|w| w[1] <= w[0] * (1.0 + MONOTONE_TOLERANCE));
    (finite && tolerant, strict)
}

/// The `train` workload.
pub struct Train {
    seed: u64,
    cfg: TrainConfig,
    jobs: Vec<(GeneratedJob, JobProfile)>,
    models: Vec<JockeySetup>,
    held_out: Vec<Work>,
    pred_err: f64,
}

impl Train {
    /// Mean relative error of each model's fresh prediction against the
    /// slowest of its held-out fixed-allocation runs (Fig. 8's method,
    /// over every catalogue job).
    fn evaluate(&mut self, trace: Option<(&Arc<Tracer>, u32)>) {
        let mut items = Vec::new();
        for ji in 0..self.jobs.len() {
            for a in HELD_OUT_ALLOCATIONS {
                for rep in 0..HELD_OUT_REPEATS {
                    items.push((ji, a, rep));
                }
            }
        }
        let specs: Vec<JobSpec> = self
            .jobs
            .iter()
            .map(|(gen, profile)| JobSpec::from_profile(gen.graph.clone(), profile))
            .collect();
        let seed = self.seed;
        let runs = parallel_map_with(items, SimWorkspace::new, |ws, (ji, a, rep)| {
            let s = seed ^ ((ji as u64) << 24) ^ (u64::from(a) << 8) ^ (rep as u64) ^ 0x818;
            let cluster = ClusterConfig::dedicated_with_failures(a);
            let ctl = Box::new(FixedAllocation(a));
            let r = fleet::simulate(cluster, s, specs[ji].clone(), ctl, ws, trace);
            (ji, a, r.duration().map(|d| d.as_secs_f64()), Work::of(&r))
        });
        let mut errs = Vec::new();
        for (ji, setup) in self.models.iter().enumerate() {
            for a in HELD_OUT_ALLOCATIONS {
                let slowest = runs
                    .iter()
                    .filter(|r| r.0 == ji && r.1 == a)
                    .filter_map(|r| r.2)
                    .fold(0.0_f64, f64::max);
                if slowest > 0.0 {
                    let pred = setup.cpa.remaining(0.0, a);
                    errs.push((pred - slowest).abs() / slowest);
                }
            }
        }
        self.held_out = runs.into_iter().map(|r| r.3).collect();
        self.pred_err = mean(&errs);
    }
}

impl Workload for Train {
    // Set-up is 21 profiling runs, tens of milliseconds; samples of
    // several set-ups across every core keep the median steady.
    const SETUPS: usize = 7;
    const SETUP_BATCH: usize = 8;

    fn setup(seed: u64) -> Self {
        let jobs = fleet::catalogue(fleet::FLEET)
            .into_iter()
            .enumerate()
            .map(|(i, gen)| {
                let profile = fleet::profile(&gen, i, fleet::CATALOGUE_SEED);
                (gen, profile)
            })
            .collect();
        Train {
            seed,
            cfg: Scale::Full.train_config(),
            jobs,
            models: Vec::new(),
            held_out: Vec::new(),
            pred_err: 0.0,
        }
    }

    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Pass {
        let first = self.models.is_empty();
        let mut secs = 0.0;
        let mut digest = Digest::default();
        let mut failed = 0;
        in_pass(tracer, |trace| {
            // One job at a time; each training call shards its grid over
            // every core (the library's default). Training the jobs in
            // parallel as well, as `Env::build` does, made the pass time
            // depend on which large jobs happened to overlap.
            let t = Instant::now();
            self.models = (0..self.jobs.len())
                .map(|i| {
                    let (gen, profile) = &self.jobs[i];
                    let seed = fleet::train_seed(i, self.seed);
                    match trace {
                        None => fleet::train(gen, profile, &self.cfg, seed),
                        Some((tr, root)) => tr.span("cpa.train", Some(root), |_| {
                            fleet::train(gen, profile, &self.cfg, seed)
                        }),
                    }
                })
                .collect();
            secs = secs_since(t);
            for setup in &self.models {
                fleet::model_digest(&mut digest, setup);
                failed += u64::from(!check_model(setup).0);
            }
            // Held-out runs do not count towards training throughput;
            // they run on the warm-up pass (for `pred_err`) and on
            // traced passes (for the cluster layer).
            if first || trace.is_some() {
                self.evaluate(trace);
            }
        });
        let models = self.jobs.len() as f64;
        Pass {
            secs,
            ops: self.jobs.len() as u64,
            failed,
            digest: digest.value(),
            rates: vec![("train_models_per_s", models / secs)],
        }
    }

    fn quality(&self) -> Vec<(&'static str, f64)> {
        vec![("pred_err", self.pred_err)]
    }

    fn layers(&self, tracer: &Tracer, traced: usize, out: &mut Metrics) {
        // The cluster layer here covers the held-out runs only: the
        // training simulations run inside `JockeySetup::train`, which
        // has no boundary to wrap. `cpa.train_s_*` is their figure.
        run_layers(&self.held_out, tracer, traced, out);
        let train = tracer.span_secs("cpa.train");
        let models = self.models.len() as f64;
        let grid = (self.cfg.allocations.len() * self.cfg.runs_per_allocation) as f64;
        let samples: usize = self.models.iter().map(|m| m.cpa.sample_count()).sum();
        let nonmonotone = self.models.iter().filter(|m| !check_model(m).1).count();
        out.put("cpa.models", models, "");
        out.put("cpa.train_s_p50", percentile(&train, 50.0), "");
        out.put("cpa.train_s_p99", percentile(&train, 99.0), "");
        out.put("cpa.train_sims", models * grid, "");
        out.put("cpa.samples", samples as f64, "");
        out.put("cpa.nonmonotone_models", nonmonotone as f64, "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_experiments::env::Env;

    #[test]
    fn passes_at_the_catalogue_seed_train_the_library_environment() {
        let lib = Env::build(Scale::Full, fleet::CATALOGUE_SEED);
        let mut w = Train::setup(fleet::CATALOGUE_SEED);
        let plain = w.pass(None);
        assert_eq!(plain.failed, 0);
        for (ours, theirs) in w.models.iter().zip(&lib.jobs) {
            let (mut x, mut y) = (Digest::default(), Digest::default());
            fleet::model_digest(&mut x, ours);
            fleet::model_digest(&mut y, &theirs.setup);
            assert_eq!(x, y, "{}", theirs.name());
        }
        assert_eq!(w.models.len(), lib.jobs.len());
        let pred_err = w.pred_err;
        let tracer = Arc::new(Tracer::default());
        let traced = w.pass(Some(&tracer));
        assert_eq!(plain.digest, traced.digest, "tracing changed a model");
        assert_eq!(w.pred_err, pred_err, "tracing changed the held-out runs");
        assert_eq!(tracer.span_secs("cpa.train").len(), lib.jobs.len());
    }
}
