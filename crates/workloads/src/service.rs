//! An open-loop service driver for the multi-job control plane.
//!
//! The paper's setting is a *service*: recurring jobs arrive on their
//! own schedules ("hourly", "daily" — §2.1), each with an SLO deadline,
//! and the cluster either admits them with a latency guarantee or
//! rejects them up front (§1's "does this job fit?"). This module
//! drives one long-lived [`ControlPlane`] the way that service would be
//! driven: many submitter threads, each sustaining a pool of concurrent
//! SLO jobs — admitting through [`ControlPlane::try_add_job`], ticking
//! each live job once per simulated control period, occasionally
//! tightening a deadline mid-flight (§4.3's changing deadlines), and
//! releasing on completion so the next recurrence can take the slot.
//!
//! The driver is *open-loop* in the admission sense: arrivals are not
//! gated on completions — when the ledger is full the submission is
//! **rejected and counted**, not queued, exactly as the paper's
//! admission check behaves. Arrivals are paced at one attempt per
//! vacant pool slot per control round, so a momentarily full ledger
//! refuses that round's recurrences without consuming the rest of the
//! schedule. Job execution is simulated in virtual time
//! (a job accumulates `guarantee × tick_secs` seconds of work per
//! tick), which makes SLO attainment exact and deterministic while the
//! control-plane *overhead* — tick latency, refresh cadence, admission
//! throughput — is measured in real wall-clock time on real threads.
//!
//! [`run_service`] returns a [`ServiceReport`] with the NFR numbers the
//! service bench publishes: sustained submissions/sec, p50/p99/max
//! control-tick latency, SLO attainment, and admission rates. Each
//! worker times one tick in 16 for the percentiles, and the plane
//! times every tick that refreshes or waits for a refresh, the only
//! ticks that can be slow, for the maximum.
//!
//! # Model modes and drift
//!
//! By default every driver job carries its own exact closed-form model
//! ([`ModelMode::Exact`]), which isolates control-plane overhead from
//! prediction error. The learned modes close the online-learning loop
//! instead: one `C(p, a)` family model — bootstrapped from the
//! [`jockey_core::online::PriorLibrary`] or from synthetic nominal runs
//! on a cold start — sizes every admission. [`ModelMode::Frozen`] never
//! updates it; [`ModelMode::Online`] feeds each virtual-time completion
//! back through the [`ModelStore`], so generation swaps, drift
//! detection and window retraining all run under live admission
//! pressure. A [`DriftSpec`] shifts the family's *true* work mid-run,
//! making the SLO-attainment cost of a stale model (and the recovery an
//! adapting one buys) directly measurable.

use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

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
use jockey_core::OnlineConfig;
use jockey_jobgraph::graph::{JobGraph, JobGraphBuilder};
use jockey_jobgraph::profile::ProfileBuilder;
use jockey_jobgraph::StageId;
use jockey_simrt::rng::SeedDeriver;
use jockey_simrt::time::{SimDuration, SimTime};

/// Closed-form completion model for driver jobs: a perfectly divisible
/// job of `work` execution-seconds, `remaining = work · (1 − p) / a`.
///
/// Driver jobs are synthetic, so the model is exact by construction —
/// the run measures the *control plane*, not prediction error (the
/// simulator-accuracy experiments cover that).
#[derive(Clone, Debug)]
pub struct LinearWork {
    /// Total execution seconds.
    pub work: f64,
    /// Largest allocation the model will size (the admission cap).
    pub max_tokens: u32,
}

impl CompletionModel for LinearWork {
    fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.work * (1.0 - progress).max(0.0) / f64::from(allocation.max(1))
    }

    fn max_allocation(&self) -> u32 {
        self.max_tokens
    }
}

/// Which completion model sizes admissions and steers arbitration.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum ModelMode {
    /// Every job carries its own exact [`LinearWork`] model; prediction
    /// error is zero by construction and the run measures the control
    /// plane alone.
    #[default]
    Exact,
    /// One learned family `C(p, a)` model, bootstrapped at the nominal
    /// [`ServiceConfig::family_work`] and never updated — the stale
    /// model a service keeps when online learning is disabled.
    Frozen,
    /// The learned family model behind a [`ModelStore`]: every
    /// completion is absorbed, every absorb publishes a new generation,
    /// and drift fires a window retrain.
    Online,
}

/// Clone-budget speculation for service admissions. When set, every
/// [`ModelMode::Exact`] submission is priced two ways — *serial* at
/// the tail-inflated work with no surcharge, or *speculative* at the
/// nominal work plus `clone_budget` reserved clone tokens — and
/// admitted through [`ControlPlane::try_add_job_speculative`], which
/// picks whichever total-token footprint is smaller. Jobs admitted at
/// the speculative level execute at the nominal work (the clones cut
/// the tail); serial admissions pay the tail.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct SpeculationSpec {
    /// Work multiplier a job pays when it runs without cloning — the
    /// straggler tail the clone budget would cut. Must be ≥ 1.
    pub tail_factor: f64,
    /// Clone tokens the speculative level reserves on top of its
    /// guarantee allocation.
    pub clone_budget: u32,
}

/// A mid-run shift in the family's true work (a regime change the
/// frozen model cannot see).
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct DriftSpec {
    /// Multiplier on the true work of drifted submissions.
    pub factor: f64,
    /// Fraction of each worker's submission quota after which new
    /// submissions run at the drifted work (`0.0` = from the start).
    pub at_frac: f64,
}

/// Configuration for one [`run_service`] run.
#[derive(Clone, Debug)]
pub struct ServiceConfig {
    /// Guaranteed tokens under the plane's management.
    pub budget: u32,
    /// Submitter threads.
    pub workers: usize,
    /// Live-job pool each worker sustains (total concurrency target is
    /// `workers × concurrent_per_worker`).
    pub concurrent_per_worker: usize,
    /// Jobs each worker submits over the run.
    pub submissions_per_worker: usize,
    /// Simulated seconds per control tick.
    pub tick_secs: f64,
    /// Sampled job deadline range, in simulated seconds.
    pub deadline_secs: (f64, f64),
    /// Sampled per-job token requirement range (inclusive); job work is
    /// sized so the admission check reserves exactly this many tokens.
    pub tokens_needed: (u32, u32),
    /// Slack multiplier passed to admission and arbitration.
    pub slack: f64,
    /// Every Nth admitted job (per worker) gets its deadline tightened
    /// by 15% mid-flight, exercising the strict-visibility path.
    /// Zero disables deadline churn.
    pub deadline_change_every: u64,
    /// Root seed; every worker derives an independent stream.
    pub seed: u64,
    /// Which completion model serves admission and arbitration.
    pub model: ModelMode,
    /// Nominal true work (execution seconds) of the recurring family in
    /// the learned modes; ignored under [`ModelMode::Exact`], where
    /// each job's work is sampled to hit its token target.
    pub family_work: f64,
    /// Optional mid-run regime change in the family's true work.
    pub drift: Option<DriftSpec>,
    /// Store parameters (drift window, retained runs) for
    /// [`ModelMode::Online`].
    pub online: OnlineConfig,
    /// Optional clone-budget speculation: admissions price a serial
    /// (tail-inflated) level against a clone level whose reservation
    /// includes the clone budget. Requires [`ModelMode::Exact`].
    pub speculation: Option<SpeculationSpec>,
}

impl Default for ServiceConfig {
    fn default() -> Self {
        ServiceConfig {
            budget: 64,
            workers: 4,
            concurrent_per_worker: 8,
            submissions_per_worker: 200,
            tick_secs: 60.0,
            deadline_secs: (1_800.0, 7_200.0),
            tokens_needed: (1, 4),
            slack: 1.2,
            deadline_change_every: 7,
            seed: 42,
            model: ModelMode::Exact,
            family_work: 3_600.0,
            drift: None,
            online: OnlineConfig::default(),
            speculation: None,
        }
    }
}

/// Aggregate outcome of a [`run_service`] run.
#[derive(Clone, Debug)]
pub struct ServiceReport {
    /// Jobs submitted across all workers.
    pub submitted: u64,
    /// Jobs admitted with a reservation.
    pub admitted: u64,
    /// Rejections because the ledger had no room.
    pub rejected_capacity: u64,
    /// Rejections because no allocation meets the deadline.
    pub rejected_infeasible: u64,
    /// Admitted jobs driven to completion.
    pub completed: u64,
    /// Completed jobs that finished within their (final) deadline.
    pub slo_met: u64,
    /// Mid-flight deadline tightenings applied.
    pub deadline_changes: u64,
    /// Wall-clock duration of the run.
    pub wall: Duration,
    /// Submissions per wall-clock second (admission throughput).
    pub submissions_per_sec: f64,
    /// Control ticks per wall-clock second.
    pub ticks_per_sec: f64,
    /// Median wall-clock latency of one `JobHandle::tick`, microseconds,
    /// over the one tick in 16 that each worker times.
    pub tick_p50_us: f64,
    /// 99th-percentile tick latency over the same sample, microseconds.
    pub tick_p99_us: f64,
    /// Worst tick latency, microseconds: the larger of the slowest
    /// sampled tick and [`PlaneStats::slow_tick_max_ns`], the plane's
    /// slowest refresh or wait for one. Those are the only ticks that
    /// can be slow, so the maximum covers every tick, not just the
    /// sample.
    pub tick_max_us: f64,
    /// High-water mark of the plane's slot table.
    pub max_slot_count: usize,
    /// Ledger reservation after all handles dropped (leak check: 0).
    pub final_reserved: u32,
    /// Live jobs after all handles dropped (leak check: 0).
    pub final_active: usize,
    /// The plane's own work counters.
    pub stats: PlaneStats,
}

impl ServiceReport {
    /// Fraction of completed jobs that met their deadline.
    pub fn slo_attainment(&self) -> f64 {
        if self.completed == 0 {
            return 1.0;
        }
        self.slo_met as f64 / self.completed as f64
    }

    /// Fraction of submissions that were admitted.
    pub fn admission_rate(&self) -> f64 {
        if self.submitted == 0 {
            return 1.0;
        }
        self.admitted as f64 / self.submitted as f64
    }

    /// Average ticks between budget-split refreshes — the measured
    /// refresh cadence (≈ mean live fleet size when the plane is
    /// amortizing correctly).
    pub fn ticks_per_refresh(&self) -> f64 {
        if self.stats.refreshes == 0 {
            return 0.0;
        }
        self.stats.ticks as f64 / self.stats.refreshes as f64
    }
}

/// One worker's contribution, merged into the [`ServiceReport`].
#[derive(Default)]
struct WorkerStats {
    submitted: u64,
    admitted: u64,
    rejected_capacity: u64,
    rejected_infeasible: u64,
    completed: u64,
    slo_met: u64,
    deadline_changes: u64,
    /// Latencies of the sampled ticks, nanoseconds.
    tick_nanos: Vec<u64>,
    max_slots: usize,
}

/// Each worker times one tick in this many, chosen by its own tick
/// count, for [`ServiceReport::tick_p50_us`] and
/// [`ServiceReport::tick_p99_us`]. A tick costs little more than the
/// two clock reads that would time it, so timing every tick would
/// measure the clock; a seed-1 `perfbench` service run still samples
/// about 34,000 ticks.
const TICK_SAMPLE_STRIDE: u64 = 16;

/// A live synthetic job owned by one worker.
struct LiveJob {
    handle: JobHandle,
    /// Per-worker admission sequence number (drives deadline churn).
    seq: u64,
    work: f64,
    deadline: f64,
    work_done: f64,
    elapsed: f64,
    guarantee: u32,
    changed: bool,
    /// Per-tick trace fed back through the store under
    /// [`ModelMode::Online`]; empty otherwise.
    observations: Vec<RunObservation>,
    /// Slack-inflated prediction at the admission-time sizing — the
    /// drift detector's "promised" latency.
    predicted: f64,
}

/// The single-stage plan every driver job executes (and the key the
/// prior library files the family model under).
fn driver_graph() -> JobGraph {
    let mut b = JobGraphBuilder::new("service-driver");
    b.stage("body", 16);
    b.build().expect("one-stage graph is valid")
}

/// The single-stage indicator context all driver jobs share: job
/// progress is the completed-vertex fraction of one 16-task stage.
fn driver_indicator() -> IndicatorContext {
    let g = driver_graph();
    let mut pb = ProfileBuilder::new(&g);
    for _ in 0..16 {
        pb.record_task(StageId(0), 1.0, 10.0, false);
    }
    let p = pb.finish(160.0, 1.0);
    IndicatorContext::new(ProgressIndicator::VertexFrac, &g, &p, None)
}

/// The learned family model shared by every worker in the learned
/// modes.
struct LearnedFamily {
    /// What admission and arbitration consult: the frozen snapshot, or
    /// a [`ModelHandle`] resolving the newest store generation with the
    /// nominal closed-form model demoted to the floor.
    admission_model: Arc<dyn CompletionModel>,
    /// Present under [`ModelMode::Online`]: completions are absorbed
    /// here.
    store: Option<Arc<ModelStore>>,
}

/// Grid and binning for the family `C(p, a)` model.
fn family_train_config(max_tokens: u32) -> TrainConfig {
    TrainConfig {
        progress_bins: 16,
        percentile: 95.0,
        sketch_capacity: Some(64),
        ..TrainConfig::fast((1..=max_tokens).collect())
    }
}

/// Cold-start bootstrap: absorb one synthetic nominal-work run per grid
/// allocation, so every row answers fresh-latency queries before the
/// first real completion lands. Each run includes the `p = 0`
/// observation, seeding bin 0 with the exact full latency.
fn bootstrap_family_model(family_work: f64, max_tokens: u32) -> CpaModel {
    let cfg = family_train_config(max_tokens);
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

/// Builds the learned family for the configured mode, consulting (and
/// seeding) the prior library and registering lifecycle counters on the
/// plane. Returns `None` under [`ModelMode::Exact`].
fn build_family(
    cfg: &ServiceConfig,
    max_tokens: u32,
    priors: &PriorLibrary,
    plane: &Arc<ControlPlane>,
) -> Option<LearnedFamily> {
    if cfg.model == ModelMode::Exact {
        return None;
    }
    let graph = driver_graph();
    plane.register_model_stats(priors.stats());
    let base: CpaModel = match priors.lookup(&graph) {
        Some(prior) => (*prior).clone(),
        None => {
            let m = bootstrap_family_model(cfg.family_work, max_tokens);
            priors.insert(&graph, Arc::new(m.clone()));
            m
        }
    };
    match cfg.model {
        ModelMode::Exact => unreachable!("handled above"),
        ModelMode::Frozen => Some(LearnedFamily {
            admission_model: Arc::new(base),
            store: None,
        }),
        ModelMode::Online => {
            let stats = ModelLifecycleStats::shared();
            let store = Arc::new(ModelStore::with_stats(base, cfg.online, stats.clone()));
            plane.register_model_stats(stats);
            let floor: Arc<dyn CompletionModel> = Arc::new(LinearWork {
                work: cfg.family_work,
                max_tokens,
            });
            Some(LearnedFamily {
                admission_model: Arc::new(ModelHandle::with_floor(store.clone(), floor)),
                store: Some(store),
            })
        }
    }
}

/// Samples one job: a deadline, the token count its SLO needs, and a
/// work size calibrated so admission reserves exactly that count.
fn sample_job(rng: &mut StdRng, cfg: &ServiceConfig) -> (f64, f64, u32) {
    let deadline = rng.gen_range(cfg.deadline_secs.0..=cfg.deadline_secs.1);
    let (lo, hi) = cfg.tokens_needed;
    let tokens = rng.gen_range(lo..=hi.max(lo));
    // work = d·tokens·u / slack with u ∈ (tokens-1, tokens]/tokens ⇒
    // ceil(work·slack/d) = tokens: the reservation is exactly `tokens`.
    let u = (f64::from(tokens) - rng.gen_range(0.05..=0.9)) / f64::from(tokens);
    let work = deadline * f64::from(tokens) * u / cfg.slack;
    (work, deadline, tokens)
}

/// Writes `job`'s status for this tick into `st`, a one-stage status
/// each worker reuses across every tick, so a tick builds no vector.
fn fill_status(st: &mut JobStatus, job: &LiveJob, frac: f64, finished: bool) {
    st.now = SimTime::from_secs_f64(job.elapsed);
    st.elapsed = SimDuration::from_secs_f64(job.elapsed);
    st.stage_fraction[0] = frac;
    st.stage_completed[0] = (frac * 16.0) as u32;
    st.running = job.guarantee;
    st.running_guaranteed = job.guarantee;
    st.guarantee = job.guarantee;
    st.work_done = job.work_done;
    st.finished = finished;
}

/// Runs one worker's submission loop against the shared plane.
fn run_worker(
    plane: &Arc<ControlPlane>,
    cfg: &ServiceConfig,
    worker: usize,
    max_tokens: u32,
    family: Option<&LearnedFamily>,
) -> WorkerStats {
    let mut rng = SeedDeriver::new(cfg.seed)
        .child("service")
        .rng_indexed("worker", worker as u64);
    let indicator = driver_indicator();
    let mut stats = WorkerStats::default();
    let mut live: Vec<LiveJob> = Vec::new();
    let mut seq: u64 = 0;
    let mut ticks: u64 = 0;
    let mut st = JobStatus {
        now: SimTime::ZERO,
        elapsed: SimDuration::ZERO,
        stage_fraction: vec![0.0],
        stage_completed: vec![0],
        running: 0,
        running_guaranteed: 0,
        guarantee: 0,
        work_done: 0.0,
        finished: false,
    };

    loop {
        // Top the pool up to the concurrency target — one submission
        // attempt per vacant slot per control round. Rejected
        // submissions are final (open-loop): the recurrence was refused
        // service, not queued, and the slot's next recurrence arrives
        // with the next round rather than instantly draining the quota
        // against a momentarily full ledger.
        let mut attempts = cfg.concurrent_per_worker.saturating_sub(live.len());
        while attempts > 0 && (seq as usize) < cfg.submissions_per_worker {
            attempts -= 1;
            let (work, deadline, _tokens) = sample_job(&mut rng, cfg);
            // Regime change: submissions past the onset run at the
            // drifted true work. The Exact model sees the true work
            // (drift is invisible to it); the learned modes keep
            // predicting from history.
            let factor = cfg
                .drift
                .filter(|d| seq as f64 >= d.at_frac * cfg.submissions_per_worker as f64)
                .map_or(1.0, |d| d.factor);
            let true_work = match family {
                None => work * factor,
                Some(_) => cfg.family_work * factor,
            };
            let name = format!("w{worker}-j{seq}");
            seq += 1;
            stats.submitted += 1;
            // With speculation, admission prices the serial
            // (tail-inflated) level against the clone level and the
            // job executes at whichever work the chosen level
            // promised; otherwise the plain single-model path runs.
            let admitted: Result<(JobHandle, f64), AdmissionError> = match (cfg.speculation, family)
            {
                (Some(sp), None) => {
                    let levels = [
                        jockey_core::alloc::SpeculationLevel {
                            label: "serial".into(),
                            clone_budget: 0,
                            model: Arc::new(LinearWork {
                                work: true_work * sp.tail_factor,
                                max_tokens,
                            }),
                        },
                        jockey_core::alloc::SpeculationLevel {
                            label: "clone".into(),
                            clone_budget: sp.clone_budget,
                            model: Arc::new(LinearWork {
                                work: true_work,
                                max_tokens,
                            }),
                        },
                    ];
                    plane
                        .try_add_job_speculative(
                            &name,
                            &levels,
                            indicator.clone(),
                            SimDuration::from_secs_f64(deadline),
                            cfg.slack,
                        )
                        .map(|(handle, decision)| {
                            let work = if decision.level == 1 {
                                true_work
                            } else {
                                true_work * sp.tail_factor
                            };
                            (handle, work)
                        })
                }
                _ => {
                    let model: Arc<dyn CompletionModel> = match family {
                        None => Arc::new(LinearWork {
                            work: true_work,
                            max_tokens,
                        }),
                        Some(f) => f.admission_model.clone(),
                    };
                    plane
                        .try_add_job(
                            &name,
                            model,
                            indicator.clone(),
                            SimDuration::from_secs_f64(deadline),
                            cfg.slack,
                        )
                        .map(|handle| (handle, true_work))
                }
            };
            match admitted {
                Ok((handle, true_work)) => {
                    stats.admitted += 1;
                    // Under Online, remember what the model promised at
                    // admission (the drift detector's baseline) and
                    // seed the run trace with the t = 0 observation.
                    let mut observations = Vec::new();
                    let mut predicted = f64::NAN;
                    if let Some(f) = family.filter(|f| f.store.is_some()) {
                        let fresh = [0.0];
                        let d = SimDuration::from_secs_f64(deadline);
                        let sized = f.admission_model.size_for_deadline(&fresh, d, cfg.slack);
                        predicted = sized.map_or(deadline, |a| {
                            f.admission_model.remaining_secs(&fresh, 0.0, a) * cfg.slack
                        });
                        observations.push(RunObservation {
                            elapsed_secs: 0.0,
                            progress: 0.0,
                            allocation: sized.unwrap_or(1),
                        });
                    }
                    live.push(LiveJob {
                        handle,
                        seq,
                        work: true_work,
                        deadline,
                        work_done: 0.0,
                        elapsed: 0.0,
                        guarantee: 0,
                        changed: false,
                        observations,
                        predicted,
                    });
                }
                Err(AdmissionError::Infeasible) => stats.rejected_infeasible += 1,
                Err(_) => stats.rejected_capacity += 1,
            }
        }
        if live.is_empty() {
            if (seq as usize) >= cfg.submissions_per_worker || cfg.concurrent_per_worker == 0 {
                break; // Quota exhausted and every job drained.
            }
            continue; // Whole round rejected; retry next round.
        }

        // One control period: tick every live job once in virtual
        // lockstep, timing every `TICK_SAMPLE_STRIDE`-th tick.
        let mut i = 0;
        while i < live.len() {
            let job = &mut live[i];
            job.elapsed += cfg.tick_secs;
            let frac = (job.work_done / job.work).min(1.0);
            let finished = job.work_done >= job.work;
            fill_status(&mut st, job, frac, finished);
            let t0 = ticks.is_multiple_of(TICK_SAMPLE_STRIDE).then(Instant::now);
            ticks += 1;
            let decision = job.handle.tick(&st);
            if let Some(t0) = t0 {
                stats.tick_nanos.push(t0.elapsed().as_nanos() as u64);
            }
            if finished {
                stats.completed += 1;
                if job.elapsed <= job.deadline + 1e-9 {
                    stats.slo_met += 1;
                }
                // Close the learning loop: the completed run folds into
                // the store, bumping the model generation (and firing a
                // window retrain if the run's latency confirms drift).
                if let Some(store) = family.and_then(|f| f.store.as_ref()) {
                    store.record_completion(RecordedRun {
                        observations: std::mem::take(&mut job.observations),
                        total_secs: job.elapsed,
                        completed: true,
                        predicted_secs: job.predicted,
                    });
                }
                live.swap_remove(i);
                continue;
            }
            job.guarantee = decision.guarantee;
            job.work_done += f64::from(decision.guarantee) * cfg.tick_secs;
            if family.is_some_and(|f| f.store.is_some()) {
                job.observations.push(RunObservation {
                    elapsed_secs: job.elapsed,
                    progress: frac,
                    allocation: decision.guarantee,
                });
            }
            if cfg.deadline_change_every > 0
                && !job.changed
                && frac > 0.4
                && job.seq.is_multiple_of(cfg.deadline_change_every)
            {
                // Tighten the SLO mid-flight; attainment is judged
                // against the new, harder deadline.
                job.changed = true;
                job.deadline *= 0.85;
                job.handle
                    .deadline_changed(SimDuration::from_secs_f64(job.deadline));
                stats.deadline_changes += 1;
            }
            i += 1;
        }
        stats.max_slots = stats.max_slots.max(plane.slot_count());
    }
    stats
}

/// Drives one long-lived [`ControlPlane`] from `cfg.workers` threads
/// and reports the service-level numbers. Learned modes start from a
/// fresh (empty) prior library; use [`run_service_with_priors`] to
/// carry warm priors across runs.
pub fn run_service(cfg: &ServiceConfig) -> ServiceReport {
    run_service_with_priors(cfg, &PriorLibrary::new())
}

/// [`run_service`] against a caller-owned prior library: the family
/// model is borrowed from a structural neighbor when one exists
/// (cold-start bootstrap otherwise), and under [`ModelMode::Online`]
/// the adapted model is filed back at the end of the run, so the next
/// recurrence of the service starts from what this one learned.
pub fn run_service_with_priors(cfg: &ServiceConfig, priors: &PriorLibrary) -> ServiceReport {
    if let Some(sp) = cfg.speculation {
        assert_eq!(
            cfg.model,
            ModelMode::Exact,
            "speculative admission prices exact per-job levels; learned family modes \
             share one model and cannot express the serial/clone split"
        );
        assert!(
            sp.tail_factor >= 1.0 && sp.tail_factor.is_finite(),
            "tail_factor must be a finite multiplier >= 1, got {}",
            sp.tail_factor
        );
    }
    let plane = ControlPlane::new(cfg.budget);
    // Cap the per-job sizing scan well above the largest requirement so
    // infeasible deadlines are detected without walking the budget.
    let max_tokens = cfg.tokens_needed.1.saturating_mul(4).max(8);
    let family = build_family(cfg, max_tokens, priors, &plane);
    let max_slots = AtomicUsize::new(0);
    let start = Instant::now();
    let mut merged: Vec<WorkerStats> = Vec::with_capacity(cfg.workers);
    std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.workers)
            .map(|w| {
                let plane = plane.clone();
                let max_slots = &max_slots;
                let family = family.as_ref();
                scope.spawn(move || {
                    let stats = run_worker(&plane, cfg, w, max_tokens, family);
                    max_slots.fetch_max(stats.max_slots, Ordering::Relaxed);
                    stats
                })
            })
            .collect();
        for h in handles {
            merged.push(h.join().expect("worker panicked"));
        }
    });
    let wall = start.elapsed();
    // File the adapted model as the structure's new prior.
    if let Some(store) = family.as_ref().and_then(|f| f.store.as_ref()) {
        priors.insert(&driver_graph(), store.current());
    }

    let mut tick_nanos: Vec<u64> = Vec::new();
    let mut report = ServiceReport {
        submitted: 0,
        admitted: 0,
        rejected_capacity: 0,
        rejected_infeasible: 0,
        completed: 0,
        slo_met: 0,
        deadline_changes: 0,
        wall,
        submissions_per_sec: 0.0,
        ticks_per_sec: 0.0,
        tick_p50_us: 0.0,
        tick_p99_us: 0.0,
        tick_max_us: 0.0,
        max_slot_count: max_slots.load(Ordering::Relaxed),
        final_reserved: plane.reserved(),
        final_active: plane.active_jobs(),
        stats: plane.stats(),
    };
    for w in merged {
        report.submitted += w.submitted;
        report.admitted += w.admitted;
        report.rejected_capacity += w.rejected_capacity;
        report.rejected_infeasible += w.rejected_infeasible;
        report.completed += w.completed;
        report.slo_met += w.slo_met;
        report.deadline_changes += w.deadline_changes;
        tick_nanos.extend(w.tick_nanos);
    }
    tick_nanos.sort_unstable();
    let quantile = |q: f64| -> f64 {
        if tick_nanos.is_empty() {
            return 0.0;
        }
        let idx = ((tick_nanos.len() - 1) as f64 * q).round() as usize;
        tick_nanos[idx] as f64 / 1_000.0
    };
    report.tick_p50_us = quantile(0.5);
    report.tick_p99_us = quantile(0.99);
    let slowest = tick_nanos.last().copied().unwrap_or(0);
    report.tick_max_us = slowest.max(report.stats.slow_tick_max_ns) as f64 / 1_000.0;
    let secs = wall.as_secs_f64().max(1e-9);
    report.submissions_per_sec = report.submitted as f64 / secs;
    report.ticks_per_sec = report.stats.ticks as f64 / secs;
    report
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speculative_service_admits_and_drains_cleanly() {
        let cfg = ServiceConfig {
            budget: 48,
            workers: 2,
            concurrent_per_worker: 4,
            submissions_per_worker: 40,
            speculation: Some(SpeculationSpec {
                tail_factor: 2.0,
                clone_budget: 1,
            }),
            ..ServiceConfig::default()
        };
        let r = run_service(&cfg);
        assert_eq!(r.submitted, 80);
        assert!(r.completed > 0, "some jobs must run to completion");
        // Leak checks: the ledger returns to empty even though the
        // speculative reservations carried clone surcharges.
        assert_eq!(r.final_reserved, 0);
        assert_eq!(r.final_active, 0);
        // With a cheap 1-token clone budget against a 2x serial tail,
        // multi-token jobs admit speculatively; the counters prove the
        // 2D admission path actually ran and priced clone tokens.
        assert!(
            r.stats.speculative_admissions > 0,
            "no admission chose the clone level"
        );
        assert!(r.stats.clone_tokens_reserved >= r.stats.speculative_admissions);
    }

    #[test]
    #[should_panic(expected = "speculative admission prices exact per-job levels")]
    fn speculative_service_rejects_learned_modes() {
        let cfg = ServiceConfig {
            model: ModelMode::Frozen,
            speculation: Some(SpeculationSpec {
                tail_factor: 2.0,
                clone_budget: 1,
            }),
            ..ServiceConfig::default()
        };
        run_service(&cfg);
    }

    #[test]
    fn sampled_jobs_reserve_exactly_their_token_target() {
        let cfg = ServiceConfig::default();
        let mut rng = SeedDeriver::new(7).rng("sample");
        for _ in 0..500 {
            let (work, deadline, tokens) = sample_job(&mut rng, &cfg);
            let model = LinearWork {
                work,
                max_tokens: 64,
            };
            let sized = model
                .size_for_deadline(&[0.0], SimDuration::from_secs_f64(deadline), cfg.slack)
                .expect("sampled job must be feasible");
            assert_eq!(sized, tokens, "work {work} deadline {deadline}");
        }
    }
}
