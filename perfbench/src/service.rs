//! `service`: the SLO-admission service. One submitter keeps about 1000
//! recurring jobs in flight against one `ControlPlane` with a
//! 1500-token budget, sized by one learned `C(p, a)` family model under
//! `ModelMode::Online`, with the family's true work drifting 1.5× at
//! the halfway point. It uses the `plane` and `online` layers and no
//! cluster simulation: reads (admission sizing) sit beside writes (one
//! `ModelStore::record_completion` and one generation per completion).
//!
//! Untraced passes call `jockey_workloads::service::run_service_with_priors`
//! with one worker per instance. Traced passes run [`drive`], which
//! mirrors that loop step for step so that every admission, tick and
//! absorb can be timed from outside; its counts must digest exactly
//! like the library's (checked on every traced pass and by the tests).

use std::sync::Arc;
use std::time::Instant;

use rand::rngs::StdRng;
use rand::Rng;

use jockey_cluster::{JobController, JobStatus};
use jockey_core::admission::AdmissionError;
use jockey_core::cpa::{CpaModel, RunObservation, TrainConfig};
use jockey_core::online::{
    ModelHandle, ModelLifecycleStats, ModelStore, PriorLibrary, RecordedRun,
};
use jockey_core::plane::{ControlPlane, JobHandle, PlaneStats};
use jockey_core::predict::CompletionModel;
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_jobgraph::graph::{JobGraph, JobGraphBuilder};
use jockey_jobgraph::profile::ProfileBuilder;
use jockey_jobgraph::StageId;
use jockey_simrt::rng::SeedDeriver;
use jockey_simrt::stats::percentile;
use jockey_simrt::time::{SimDuration, SimTime};
use jockey_workloads::service::{
    run_service_with_priors, DriftSpec, LinearWork, ServiceConfig, ServiceReport,
};

use crate::measure::{median, ratio, secs_since, Digest, Metrics};
use crate::tracer::{in_pass, timed, TracedModel, Tracer};
use crate::{Pass, Workload};

/// The service shape every pass drives.
pub fn config(seed: u64) -> ServiceConfig {
    ServiceConfig {
        budget: 1500,
        workers: 1,
        concurrent_per_worker: 1000,
        submissions_per_worker: 20_000,
        model: jockey_workloads::service::ModelMode::Online,
        drift: Some(DriftSpec {
            factor: 1.5,
            at_frac: 0.5,
        }),
        seed,
        ..ServiceConfig::default()
    }
}

/// The one-stage plan of every driver job.
fn driver_graph() -> JobGraph {
    let mut b = JobGraphBuilder::new("service-driver");
    b.stage("body", 16);
    b.build().expect("one-stage graph is valid")
}

/// Progress = completed fraction of the one 16-task stage.
fn driver_indicator() -> IndicatorContext {
    let g = driver_graph();
    let mut pb = ProfileBuilder::new(&g);
    for _ in 0..16 {
        pb.record_task(StageId(0), 1.0, 10.0, false);
    }
    let p = pb.finish(160.0, 1.0);
    IndicatorContext::new(ProgressIndicator::VertexFrac, &g, &p, None)
}

/// Cold-start family model: one nominal-work run per grid allocation.
fn bootstrap_family_model(family_work: f64, max_tokens: u32) -> CpaModel {
    let cfg = TrainConfig {
        progress_bins: 16,
        percentile: 95.0,
        sketch_capacity: Some(64),
        ..TrainConfig::fast((1..=max_tokens).collect())
    };
    let bins = cfg.progress_bins;
    let mut model = CpaModel::empty(&cfg);
    for a in 1..=max_tokens {
        let total = family_work / f64::from(a);
        let obs: Vec<RunObservation> = (0..=bins)
            .map(|i| {
                let p = i as f64 / bins as f64;
                RunObservation {
                    elapsed_secs: total * p,
                    progress: p,
                    allocation: a,
                }
            })
            .collect();
        model.absorb_observations(&obs, total, true);
    }
    model
}

/// Largest allocation the family model sizes for (as `run_service`).
fn max_tokens(cfg: &ServiceConfig) -> u32 {
    cfg.tokens_needed.1.saturating_mul(4).max(8)
}

/// A prior library holding the bootstrapped family model, so that
/// `run_service_with_priors` starts from it instead of bootstrapping
/// inside the timed pass. What one instance's set-up builds.
pub fn prior_library(cfg: &ServiceConfig) -> PriorLibrary {
    let priors = PriorLibrary::new();
    let model = bootstrap_family_model(cfg.family_work, max_tokens(cfg));
    priors.insert(&driver_graph(), Arc::new(model));
    priors
}

/// A fresh plane with its online family model, built as
/// `run_service` builds it from an empty prior library: what each
/// traced pass starts from.
pub struct Instance {
    plane: Arc<ControlPlane>,
    store: Arc<ModelStore>,
    model: Arc<dyn CompletionModel>,
    indicator: IndicatorContext,
}

impl Instance {
    /// Bootstraps the prior and the store, as `run_service` does.
    pub fn new(cfg: &ServiceConfig, tracer: Option<&Arc<Tracer>>) -> Self {
        let plane = ControlPlane::new(cfg.budget);
        let max_tokens = max_tokens(cfg);
        let priors = PriorLibrary::new();
        let graph = driver_graph();
        plane.register_model_stats(priors.stats());
        let base = match priors.lookup(&graph) {
            Some(prior) => (*prior).clone(),
            None => {
                let m = bootstrap_family_model(cfg.family_work, max_tokens);
                priors.insert(&graph, Arc::new(m.clone()));
                m
            }
        };
        let stats = ModelLifecycleStats::shared();
        let store = Arc::new(ModelStore::with_stats(base, cfg.online, stats.clone()));
        plane.register_model_stats(stats);
        let floor: Arc<dyn CompletionModel> = Arc::new(LinearWork {
            work: cfg.family_work,
            max_tokens,
        });
        let handle: Arc<dyn CompletionModel> =
            Arc::new(ModelHandle::with_floor(store.clone(), floor));
        let model = match tracer {
            None => handle,
            Some(t) => Arc::new(TracedModel::new(handle, t.clone())),
        };
        Instance {
            plane,
            store,
            model,
            indicator: driver_indicator(),
        }
    }
}

/// A live job owned by the submitter.
struct LiveJob {
    handle: JobHandle,
    seq: u64,
    work: f64,
    deadline: f64,
    work_done: f64,
    elapsed: f64,
    guarantee: u32,
    changed: bool,
    observations: Vec<RunObservation>,
    predicted: f64,
}

fn status_for(job: &LiveJob, frac: f64, finished: bool) -> JobStatus {
    JobStatus {
        now: SimTime::from_secs_f64(job.elapsed),
        elapsed: SimDuration::from_secs_f64(job.elapsed),
        stage_fraction: vec![frac],
        stage_completed: vec![(frac * 16.0) as u32],
        running: job.guarantee,
        running_guaranteed: job.guarantee,
        guarantee: job.guarantee,
        work_done: job.work_done,
        finished,
    }
}

/// Samples a deadline and a work size whose reservation is exactly the
/// sampled token count.
fn sample_job(rng: &mut StdRng, cfg: &ServiceConfig) -> (f64, f64) {
    let deadline = rng.gen_range(cfg.deadline_secs.0..=cfg.deadline_secs.1);
    let (lo, hi) = cfg.tokens_needed;
    let tokens = rng.gen_range(lo..=hi.max(lo));
    let u = (f64::from(tokens) - rng.gen_range(0.05..=0.9)) / f64::from(tokens);
    let work = deadline * f64::from(tokens) * u / cfg.slack;
    (work, deadline)
}

/// Counts of one pass.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct Counts {
    /// Submissions decided.
    pub submitted: u64,
    /// Admitted with a reservation.
    pub admitted: u64,
    /// Refused for lack of capacity.
    pub rejected_capacity: u64,
    /// Refused as infeasible.
    pub rejected_infeasible: u64,
    /// Admitted jobs driven to completion.
    pub completed: u64,
    /// Completions within the (possibly tightened) deadline.
    pub slo_met: u64,
    /// Mid-flight deadline tightenings.
    pub deadline_changes: u64,
    /// Ledger reservation once every handle is dropped.
    pub final_reserved: u32,
    /// Live jobs once every handle is dropped.
    pub final_active: usize,
    /// Refreshes where the fleet outnumbered the budget.
    pub over_committed_rounds: u64,
    /// `JobHandle::tick` calls the plane served.
    pub plane_ticks: u64,
    /// Plane refreshes.
    pub refreshes: u64,
    /// Model generations the store published.
    pub generations: u64,
    /// Drift detections that reset the model.
    pub drift_fires: u64,
}

impl Counts {
    /// The counts of a library run.
    pub fn of_report(r: &ServiceReport) -> Self {
        let mut c = Counts {
            submitted: r.submitted,
            admitted: r.admitted,
            rejected_capacity: r.rejected_capacity,
            rejected_infeasible: r.rejected_infeasible,
            completed: r.completed,
            slo_met: r.slo_met,
            deadline_changes: r.deadline_changes,
            final_reserved: r.final_reserved,
            final_active: r.final_active,
            ..Counts::default()
        };
        c.set_plane(&r.stats);
        c
    }

    fn set_plane(&mut self, s: &PlaneStats) {
        self.over_committed_rounds = s.over_committed_rounds;
        self.plane_ticks = s.ticks;
        self.refreshes = s.refreshes;
        self.generations = s.model_generations_swapped;
        self.drift_fires = s.drift_detections;
    }

    /// Folds every simulated count into `d`.
    pub fn digest(&self, d: &mut Digest) {
        for x in [
            self.submitted,
            self.admitted,
            self.rejected_capacity,
            self.rejected_infeasible,
            self.completed,
            self.slo_met,
            self.deadline_changes,
            u64::from(self.final_reserved),
            self.final_active as u64,
            self.over_committed_rounds,
            self.plane_ticks,
            self.refreshes,
            self.generations,
            self.drift_fires,
        ] {
            d.word(x);
        }
    }

    /// The drain and ledger checks: every reservation returned, no job
    /// left behind, the budget never over-committed, every admitted job
    /// completed.
    pub fn drained(&self) -> bool {
        self.final_reserved == 0
            && self.final_active == 0
            && self.over_committed_rounds == 0
            && self.completed == self.admitted
    }
}

/// Runs the single-submitter loop to completion on `instance`. Returns
/// the counts and the host latency of every `try_add_job` call.
pub fn drive(
    cfg: &ServiceConfig,
    instance: &Instance,
    tracer: Option<&Arc<Tracer>>,
) -> (Counts, Vec<f64>) {
    let mut rng = SeedDeriver::new(cfg.seed)
        .child("service")
        .rng_indexed("worker", 0);
    let mut c = Counts::default();
    let mut admit_secs = Vec::with_capacity(cfg.submissions_per_worker);
    let mut live: Vec<LiveJob> = Vec::new();
    let mut seq: u64 = 0;
    let slack = cfg.slack;
    loop {
        let mut attempts = cfg.concurrent_per_worker.saturating_sub(live.len());
        while attempts > 0 && (seq as usize) < cfg.submissions_per_worker {
            attempts -= 1;
            let (_work, deadline) = sample_job(&mut rng, cfg);
            let factor = cfg
                .drift
                .filter(|d| seq as f64 >= d.at_frac * cfg.submissions_per_worker as f64)
                .map_or(1.0, |d| d.factor);
            let true_work = cfg.family_work * factor;
            let name = format!("w0-j{seq}");
            seq += 1;
            c.submitted += 1;
            let t = Instant::now();
            let admitted: Result<JobHandle, AdmissionError> = instance.plane.try_add_job(
                &name,
                instance.model.clone(),
                instance.indicator.clone(),
                SimDuration::from_secs_f64(deadline),
                slack,
            );
            let ns = t.elapsed().as_nanos() as u64;
            admit_secs.push(ns as f64 / 1e9);
            if let Some(tr) = tracer {
                tr.admit.record(ns);
            }
            match admitted {
                Ok(handle) => {
                    c.admitted += 1;
                    let fresh = [0.0];
                    let d = SimDuration::from_secs_f64(deadline);
                    let sized = instance.model.size_for_deadline(&fresh, d, slack);
                    let predicted = sized.map_or(deadline, |a| {
                        instance.model.remaining_secs(&fresh, 0.0, a) * slack
                    });
                    live.push(LiveJob {
                        handle,
                        seq,
                        work: true_work,
                        deadline,
                        work_done: 0.0,
                        elapsed: 0.0,
                        guarantee: 0,
                        changed: false,
                        observations: vec![RunObservation {
                            elapsed_secs: 0.0,
                            progress: 0.0,
                            allocation: sized.unwrap_or(1),
                        }],
                        predicted,
                    });
                }
                Err(AdmissionError::Infeasible) => c.rejected_infeasible += 1,
                Err(_) => c.rejected_capacity += 1,
            }
        }
        if live.is_empty() {
            if (seq as usize) >= cfg.submissions_per_worker || cfg.concurrent_per_worker == 0 {
                break;
            }
            continue;
        }

        let mut i = 0;
        while i < live.len() {
            let job = &mut live[i];
            job.elapsed += cfg.tick_secs;
            let frac = (job.work_done / job.work).min(1.0);
            let finished = job.work_done >= job.work;
            let st = status_for(job, frac, finished);
            let handle = &mut job.handle;
            let decision = timed(tracer.map(|t| &t.plane_tick), || handle.tick(&st));
            if finished {
                c.completed += 1;
                if job.elapsed <= job.deadline + 1e-9 {
                    c.slo_met += 1;
                }
                let run = RecordedRun {
                    observations: std::mem::take(&mut job.observations),
                    total_secs: job.elapsed,
                    completed: true,
                    predicted_secs: job.predicted,
                };
                timed(tracer.map(|t| &t.absorb), || {
                    instance.store.record_completion(run)
                });
                live.swap_remove(i);
                continue;
            }
            job.guarantee = decision.guarantee;
            job.work_done += f64::from(decision.guarantee) * cfg.tick_secs;
            job.observations.push(RunObservation {
                elapsed_secs: job.elapsed,
                progress: frac,
                allocation: decision.guarantee,
            });
            if cfg.deadline_change_every > 0
                && !job.changed
                && frac > 0.4
                && job.seq.is_multiple_of(cfg.deadline_change_every)
            {
                job.changed = true;
                job.deadline *= 0.85;
                job.handle
                    .deadline_changed(SimDuration::from_secs_f64(job.deadline));
                c.deadline_changes += 1;
            }
            i += 1;
        }
    }
    drop(live);
    c.final_reserved = instance.plane.reserved();
    c.final_active = instance.plane.active_jobs();
    c.set_plane(&instance.plane.stats());
    (c, admit_secs)
}

/// Service instances a pass runs side by side: one per core. They
/// share nothing, so each stays deterministic while the pass keeps
/// every core busy.
fn copies() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// The `service` workload.
pub struct Service {
    cfg: ServiceConfig,
    /// One prior library per instance, for the next untraced pass.
    ready: Vec<PriorLibrary>,
    last: Counts,
    /// Every `try_add_job` latency of the last traced pass, seconds.
    admit_secs: Vec<f64>,
}

impl Service {
    /// One library run per instance, side by side; returns the pass's
    /// seconds (see [`pass_secs`]) and each instance's counts.
    fn run_library(&self, priors: &[PriorLibrary]) -> (f64, Vec<Counts>) {
        let cfg = &self.cfg;
        let reports: Vec<ServiceReport> = std::thread::scope(|scope| {
            let handles: Vec<_> = priors
                .iter()
                .map(|p| scope.spawn(move || run_service_with_priors(cfg, p)))
                .collect();
            handles
                .into_iter()
                .map(|h| h.join().expect("service thread panicked"))
                .collect()
        });
        let walls: Vec<f64> = reports.iter().map(|r| r.wall.as_secs_f64()).collect();
        (
            pass_secs(&walls),
            reports.iter().map(Counts::of_report).collect(),
        )
    }

    /// One mirrored run per instance, side by side, every layer
    /// boundary timed into `tracer`; returns the pass's seconds and
    /// each instance's counts.
    fn run_traced(&mut self, tracer: &Arc<Tracer>) -> (f64, Vec<Counts>) {
        let cfg = &self.cfg;
        let instances: Vec<Instance> = (0..copies())
            .map(|_| Instance::new(cfg, Some(tracer)))
            .collect();
        let results: Vec<(f64, Counts, Vec<f64>)> = in_pass(Some(tracer), |_| {
            std::thread::scope(|scope| {
                let handles: Vec<_> = instances
                    .iter()
                    .map(|inst| {
                        scope.spawn(move || {
                            let t = Instant::now();
                            let (c, admit) = drive(cfg, inst, Some(tracer));
                            (secs_since(t), c, admit)
                        })
                    })
                    .collect();
                handles
                    .into_iter()
                    .map(|h| h.join().expect("submitter thread panicked"))
                    .collect()
            })
        });
        let walls: Vec<f64> = results.iter().map(|r| r.0).collect();
        self.admit_secs = results.iter().flat_map(|r| r.2.iter().copied()).collect();
        (
            pass_secs(&walls),
            results.into_iter().map(|r| r.1).collect(),
        )
    }
}

/// A pass's seconds from its instances' own wall times: their harmonic
/// mean, so that submissions ÷ it is the sum of the instances'
/// throughputs. Each instance runs on whichever core it gets and the
/// two cores are rarely equally fast; the pass's end-to-end time would
/// be the slower instance's alone, and move with the gap between them.
fn pass_secs(walls: &[f64]) -> f64 {
    walls.len() as f64 / walls.iter().map(|w| 1.0 / w).sum::<f64>()
}

impl Workload for Service {
    // One set-up bootstraps a family prior per instance, well under a
    // millisecond; samples of many set-ups across every core keep the
    // median steady.
    const SETUPS: usize = 9;
    const SETUP_BATCH: usize = 256;

    fn setup(seed: u64) -> Self {
        let cfg = config(seed);
        let ready = (0..copies()).map(|_| prior_library(&cfg)).collect();
        Service {
            cfg,
            ready,
            last: Counts::default(),
            admit_secs: Vec::new(),
        }
    }

    fn pass(&mut self, tracer: Option<&Arc<Tracer>>) -> Pass {
        // Every untraced pass starts from fresh priors so that passes
        // repeat exactly (an online run files its adapted model back);
        // the first uses the ones set-up built.
        let (secs, results) = match tracer {
            None => {
                let priors = if self.ready.is_empty() {
                    (0..copies()).map(|_| prior_library(&self.cfg)).collect()
                } else {
                    std::mem::take(&mut self.ready)
                };
                self.run_library(&priors)
            }
            Some(tr) => self.run_traced(tr),
        };

        let mut d = Digest::default();
        let mut failed = 0;
        let mut submitted = 0;
        for c in &results {
            c.digest(&mut d);
            // Identical instances must agree count for count.
            if !c.drained() || *c != results[0] {
                failed += c.submitted;
            }
            submitted += c.submitted;
        }
        self.last = results[0].clone();
        Pass {
            secs,
            ops: submitted,
            failed,
            digest: d.value(),
            rates: vec![("submissions_per_s", submitted as f64 / secs)],
        }
    }

    fn quality(&self) -> Vec<(&'static str, f64)> {
        let c = &self.last;
        let refused = c.rejected_capacity + c.rejected_infeasible;
        let missed = c.completed - c.slo_met;
        vec![
            (
                "miss_frac",
                ratio((refused + missed) as f64, c.submitted as f64),
            ),
            (
                "admitted_miss_frac",
                ratio(missed as f64, c.admitted as f64),
            ),
        ]
    }

    fn layers(&self, tracer: &Tracer, traced: usize, out: &mut Metrics) {
        // Per pass and per instance: every instance records into the
        // one tracer.
        let per_pass = |x: f64| x / (traced.max(1) * copies()) as f64;
        let (tick, admit, absorb, query) = (
            &tracer.plane_tick,
            &tracer.admit,
            &tracer.absorb,
            &tracer.model_query,
        );
        let c = &self.last;
        out.put("admit_p50_us", median(&self.admit_secs) * 1e6, "");
        out.put("admit_p99_us", percentile(&self.admit_secs, 99.0) * 1e6, "");
        out.put("plane.ticks", per_pass(tick.count() as f64), "");
        out.put("plane.tick_ns_p50", tick.quantile_ns(0.5), "");
        out.put("plane.tick_ns_p99", tick.quantile_ns(0.99), "");
        out.put("plane.refreshes", c.refreshes as f64, "");
        out.put(
            "plane.ticks_per_refresh",
            ratio(c.plane_ticks as f64, c.refreshes as f64),
            "",
        );
        out.put(
            "plane.over_committed_rounds",
            c.over_committed_rounds as f64,
            "",
        );
        out.put(
            "plane.busy_s",
            per_pass(tick.sum_secs() + admit.sum_secs()),
            "",
        );
        out.put("online.absorbs", per_pass(absorb.count() as f64), "");
        out.put("online.absorb_us_p50", absorb.quantile_ns(0.5) / 1e3, "");
        out.put("online.absorb_us_p99", absorb.quantile_ns(0.99) / 1e3, "");
        out.put("online.busy_s", per_pass(absorb.sum_secs()), "");
        out.put("online.generations", c.generations as f64, "");
        out.put("online.drift_fires", c.drift_fires as f64, "");
        out.put("cpa.queries", per_pass(query.count() as f64), "");
        out.put("cpa.query_ns_p50", query.quantile_ns(0.5), "");
        out.put("cpa.query_ns_p99", query.quantile_ns(0.99), "");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_workloads::service::run_service;

    fn small(seed: u64) -> ServiceConfig {
        ServiceConfig {
            budget: 150,
            concurrent_per_worker: 100,
            submissions_per_worker: 2_000,
            ..config(seed)
        }
    }

    #[test]
    fn drive_matches_the_library_service_with_one_worker() {
        let cfg = small(7);
        let lib = Counts::of_report(&run_service(&cfg));
        let (c, admit) = drive(&cfg, &Instance::new(&cfg, None), None);
        assert_eq!(c, lib);
        assert_eq!(admit.len() as u64, c.submitted);
        assert!(c.drained());
        assert!(c.admitted > 0 && c.rejected_capacity > 0, "{c:?}");
        assert!(c.generations > 0 && c.drift_fires > 0, "{c:?}");
    }

    #[test]
    fn a_prior_built_in_set_up_changes_no_count() {
        let cfg = small(9);
        let priors = prior_library(&cfg);
        let report = run_service_with_priors(&cfg, &priors);
        assert_eq!(report.stats.prior_hits, 1, "the set-up prior went unused");
        assert_eq!(
            Counts::of_report(&report),
            Counts::of_report(&run_service(&cfg))
        );
    }

    #[test]
    fn tracing_changes_no_count() {
        let cfg = small(11);
        let (plain, _) = drive(&cfg, &Instance::new(&cfg, None), None);
        let tracer = Arc::new(Tracer::default());
        let (traced, _) = drive(&cfg, &Instance::new(&cfg, Some(&tracer)), Some(&tracer));
        assert_eq!(plain, traced);
        assert_eq!(tracer.admit.count(), traced.submitted);
        assert_eq!(tracer.absorb.count(), traced.completed);
        assert!(tracer.plane_tick.count() > 0);
        assert!(tracer.model_query.count() > traced.admitted);
    }
}
