//! The online model lifecycle: versioned `C(p, a)` models that keep
//! learning after deployment.
//!
//! Three pieces turn the frozen offline table into a living model:
//!
//! - [`ModelStore`] owns the evolving master model. Every completed
//!   run folds in through [`CpaModel::absorb_observations`] (`O(cells)`,
//!   no simulation) and publishes a fresh snapshot behind an atomic
//!   generation counter, so readers — the control plane's refresh, the
//!   admission ledger's sizing — swap tables between ticks without ever
//!   blocking on a learner. This reuses the control plane's
//!   snapshot-swap idiom: writers prepare a complete immutable value,
//!   then replace one pointer.
//! - [`DriftDetector`] watches completed runs. The master model
//!   predicts completions at a high percentile `P`, so under a
//!   stationary workload an observed completion should exceed its
//!   admission-time prediction with probability about `q = 1 − P/100`.
//!   The detector keeps the last `K` exceedance indicators and fires
//!   when their count leaves the one-sided binomial acceptance region
//!   `K·q + z·sqrt(K·q·(1−q))` — a windowed sign-test that needs no
//!   distributional assumptions about the latencies themselves. A fire
//!   rebuilds the master from the retained recent-run window (absorb is
//!   cheap, so "retraining" is re-absorbing), restoring a model that
//!   reflects current behaviour.
//! - [`PriorLibrary`] gives first-run jobs a borrowed model keyed by
//!   plan structure ([`structure_hash`]): stage count, DAG shape and
//!   barrier pattern — deliberately *not* task counts or names, so a
//!   structural sibling at a different scale still matches. When no
//!   neighbor exists the caller falls back to the floor model (e.g. the
//!   Amdahl estimate) demoted beneath any learned table via
//!   [`ModelHandle`].

use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock, RwLock};

use jockey_jobgraph::graph::{EdgeKind, JobGraph};
use jockey_simrt::rng::fnv1a;
use jockey_simrt::time::SimDuration;

use crate::cpa::{CpaModel, RunObservation};
use crate::predict::CompletionModel;

/// Shared lifecycle counters, updated atomically by stores and prior
/// libraries and summed into `PlaneStats` / service reports.
#[derive(Debug, Default)]
pub struct ModelLifecycleStats {
    /// Model snapshots published (generation bumps).
    pub generations_swapped: AtomicU64,
    /// Drift-detector fires (each triggers a window retrain).
    pub drift_detections: AtomicU64,
    /// Prior-library lookups that found a structural neighbor.
    pub prior_hits: AtomicU64,
    /// Prior-library lookups that found nothing.
    pub prior_misses: AtomicU64,
    /// Completed runs absorbed into a master model.
    pub absorbed_runs: AtomicU64,
    /// Samples those runs contributed.
    pub absorbed_samples: AtomicU64,
}

impl ModelLifecycleStats {
    /// A fresh zeroed counter block behind an [`Arc`].
    pub fn shared() -> Arc<Self> {
        Arc::new(Self::default())
    }
}

/// Drift-detector configuration. `percentile` must match the model's
/// query percentile — it defines the null exceedance rate the sign-test
/// is calibrated against.
#[derive(Clone, Copy, Debug)]
pub struct DriftConfig {
    /// Completions in the sliding window (`K`).
    pub window: usize,
    /// Minimum completions before the test may fire.
    pub min_observations: usize,
    /// One-sided z-threshold on the exceedance count; ~4 keeps the
    /// stationary false-positive rate negligible.
    pub z_threshold: f64,
    /// The model's query percentile `P`; null exceedance rate is
    /// `1 − P/100`.
    pub percentile: f64,
}

impl Default for DriftConfig {
    fn default() -> Self {
        DriftConfig {
            window: 32,
            min_observations: 16,
            z_threshold: 4.0,
            percentile: 95.0,
        }
    }
}

/// Windowed sign-test over observed vs. predicted completions (see the
/// module docs for the statistic).
#[derive(Clone, Debug)]
pub struct DriftDetector {
    cfg: DriftConfig,
    /// Exceedance indicators for the last `K` completions.
    window: VecDeque<bool>,
}

impl DriftDetector {
    /// A detector with the given configuration.
    pub fn new(cfg: DriftConfig) -> Self {
        DriftDetector {
            cfg,
            window: VecDeque::with_capacity(cfg.window.max(1)),
        }
    }

    /// Records one completed run and returns whether drift fired. The
    /// window is cleared on fire so one regime change is reported once,
    /// not on every subsequent completion.
    pub fn record(&mut self, observed_secs: f64, predicted_secs: f64) -> bool {
        self.window.push_back(observed_secs > predicted_secs);
        while self.window.len() > self.cfg.window.max(1) {
            self.window.pop_front();
        }
        if self.window.len() < self.cfg.min_observations {
            return false;
        }
        let k = self.window.len() as f64;
        let q = (1.0 - self.cfg.percentile / 100.0).clamp(0.0, 1.0);
        let exceeded = self.window.iter().filter(|&&e| e).count() as f64;
        let threshold = k * q + self.cfg.z_threshold * (k * q * (1.0 - q)).sqrt();
        if exceeded > threshold {
            self.window.clear();
            true
        } else {
            false
        }
    }

    /// Completions currently in the window.
    pub fn observation_count(&self) -> usize {
        self.window.len()
    }
}

/// One completed (or censored) run, as fed back into a [`ModelStore`].
#[derive(Clone, Debug)]
pub struct RecordedRun {
    /// Per-tick observations over the run's lifetime.
    pub observations: Vec<RunObservation>,
    /// Observed total latency (seconds).
    pub total_secs: f64,
    /// Whether the run completed (vs. was abandoned/censored).
    pub completed: bool,
    /// The model's admission-time latency prediction for this run, in
    /// seconds — the drift detector's reference point. `NAN` when no
    /// prediction was made (e.g. the job was admitted off a floor
    /// model); such runs still absorb but don't enter the drift window.
    pub predicted_secs: f64,
}

/// [`ModelStore`] configuration.
#[derive(Clone, Copy, Debug)]
pub struct OnlineConfig {
    /// Drift-detection parameters; set `drift.percentile` to the
    /// model's query percentile.
    pub drift: DriftConfig,
    /// Completed runs retained for drift-triggered window retrains.
    pub retain_runs: usize,
}

impl Default for OnlineConfig {
    fn default() -> Self {
        OnlineConfig {
            drift: DriftConfig::default(),
            retain_runs: 64,
        }
    }
}

/// What one [`ModelStore::record_completion`] call did.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct AbsorbOutcome {
    /// The generation of the snapshot published by this call.
    pub generation: u64,
    /// Samples folded into the master model.
    pub samples_added: usize,
    /// Whether drift fired and the master was rebuilt from the
    /// retained run window.
    pub drift_retrained: bool,
}

/// The mutable learner state, serialized behind one lock so absorbs
/// from concurrent workers interleave deterministically per-run.
struct StoreInner {
    master: CpaModel,
    detector: DriftDetector,
    recent: VecDeque<RecordedRun>,
    retain: usize,
}

/// Owns the evolving master model and publishes immutable snapshots.
///
/// Readers call [`ModelStore::current`] (a read lock and an `Arc`
/// clone, no contention with learners beyond the pointer swap) and
/// never observe a half-updated table; each absorb bumps
/// [`ModelStore::generation`] so consumers can cheaply detect
/// staleness. That read is cheap but not free, so a reader that asks
/// many queries for one decision takes the snapshot once and queries
/// it (see [`ModelHandle`]).
///
/// A publish is a shallow clone of the master: the master and every
/// snapshot share their sketch rows, and the next absorb copies only
/// the rows it writes (copy-on-write), so a published snapshot never
/// changes after it is taken.
pub struct ModelStore {
    current: RwLock<Arc<CpaModel>>,
    generation: AtomicU64,
    stats: Arc<ModelLifecycleStats>,
    inner: Mutex<StoreInner>,
}

impl ModelStore {
    /// A store seeded with `model` (generation 0) using fresh counters.
    pub fn new(model: CpaModel, cfg: OnlineConfig) -> Self {
        Self::with_stats(model, cfg, ModelLifecycleStats::shared())
    }

    /// A store publishing into shared lifecycle counters.
    pub fn with_stats(model: CpaModel, cfg: OnlineConfig, stats: Arc<ModelLifecycleStats>) -> Self {
        ModelStore {
            current: RwLock::new(Arc::new(model.clone())),
            generation: AtomicU64::new(0),
            stats,
            inner: Mutex::new(StoreInner {
                master: model,
                detector: DriftDetector::new(cfg.drift),
                recent: VecDeque::with_capacity(cfg.retain_runs.min(1024)),
                retain: cfg.retain_runs.max(1),
            }),
        }
    }

    /// The latest published snapshot.
    pub fn current(&self) -> Arc<CpaModel> {
        self.current.read().expect("model lock").clone()
    }

    /// The published model generation (0 = the seed model).
    pub fn generation(&self) -> u64 {
        self.generation.load(Ordering::Acquire)
    }

    /// The lifecycle counters this store reports into.
    pub fn stats(&self) -> Arc<ModelLifecycleStats> {
        self.stats.clone()
    }

    /// Folds one completed run into the master model, runs the drift
    /// test, rebuilds from the retained window when it fires, and
    /// publishes the new snapshot. `O(cells)` on the quiet path.
    pub fn record_completion(&self, run: RecordedRun) -> AbsorbOutcome {
        let mut inner = self.inner.lock().expect("store lock");
        let samples_added =
            inner
                .master
                .absorb_observations(&run.observations, run.total_secs, run.completed);
        self.stats.absorbed_runs.fetch_add(1, Ordering::Relaxed);
        self.stats
            .absorbed_samples
            .fetch_add(samples_added as u64, Ordering::Relaxed);

        let check_drift = run.completed && run.predicted_secs.is_finite();
        let (observed, predicted) = (run.total_secs, run.predicted_secs);
        inner.recent.push_back(run);
        while inner.recent.len() > inner.retain {
            inner.recent.pop_front();
        }

        let drift_retrained = check_drift && inner.detector.record(observed, predicted);
        if drift_retrained {
            self.stats.drift_detections.fetch_add(1, Ordering::Relaxed);
            // "Retrain" = re-absorb the retained window into a vacant
            // copy: the stale history beyond the window is dropped and
            // the model snaps to current behaviour, without a single
            // simulation run. The window folds run by run, oldest first,
            // and the query table is rebuilt once at the end.
            let mut fresh = inner.master.vacant_copy();
            fresh.absorb_runs(
                inner
                    .recent
                    .iter()
                    .map(|r| (r.observations.as_slice(), r.total_secs, r.completed)),
            );
            inner.master = fresh;
        }

        let snapshot = Arc::new(inner.master.clone());
        let generation = self.publish(snapshot);
        AbsorbOutcome {
            generation,
            samples_added,
            drift_retrained,
        }
    }

    /// Replaces the published snapshot and bumps the generation.
    fn publish(&self, snapshot: Arc<CpaModel>) -> u64 {
        *self.current.write().expect("model lock") = snapshot;
        self.stats
            .generations_swapped
            .fetch_add(1, Ordering::Relaxed);
        self.generation.fetch_add(1, Ordering::AcqRel) + 1
    }
}

/// A [`CompletionModel`] view over a [`ModelStore`]: the store's
/// learned table, with an optional *floor* model answering wherever the
/// learned table cannot (infinite predictions from vacant cells,
/// infeasible sizing). The cold-start posture is "borrowed or floor
/// first, learned as soon as samples exist", with the floor demoted
/// automatically because a finite learned answer always wins.
///
/// The handle holds no snapshot of its own; what it answers from is
/// resolved per decision, not per query:
///
/// - [`CompletionModel::pinned`] takes the newest published snapshot
///   once and returns it frozen, blended with the floor. The control
///   plane pins once per model per arbitration refresh, so a refresh
///   of a thousand jobs sharing one handle reads the store once and
///   splits the budget against one generation.
/// - [`CompletionModel::size_for_deadline`] resolves the newest
///   snapshot once per sizing call, so every allocation it probes
///   reads the same generation.
/// - [`CompletionModel::remaining_secs`],
///   [`CompletionModel::remaining_curve`] and
///   [`CompletionModel::max_allocation`] called on the handle itself
///   resolve the newest snapshot on each call; a curve comes from one
///   snapshot.
///
/// Nothing holds a snapshot across decisions, so each decision sees
/// the generation current when it began.
#[derive(Clone)]
pub struct ModelHandle {
    store: Arc<ModelStore>,
    floor: Option<Arc<dyn CompletionModel>>,
}

impl ModelHandle {
    /// A handle with no floor: unanswerable queries stay infinite.
    pub fn new(store: Arc<ModelStore>) -> Self {
        ModelHandle { store, floor: None }
    }

    /// A handle that falls back to `floor` where the learned model has
    /// no answer.
    pub fn with_floor(store: Arc<ModelStore>, floor: Arc<dyn CompletionModel>) -> Self {
        ModelHandle {
            store,
            floor: Some(floor),
        }
    }

    /// The backing store.
    pub fn store(&self) -> &Arc<ModelStore> {
        &self.store
    }

    /// The handle's answers against one snapshot of the learned table.
    fn blend<'a>(&'a self, learned: &'a CpaModel) -> Blend<'a> {
        Blend {
            learned,
            floor: self.floor.as_deref(),
        }
    }
}

impl CompletionModel for ModelHandle {
    fn remaining_secs(&self, fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.blend(&self.store.current())
            .remaining_secs(fs, progress, allocation)
    }

    fn remaining_curve(&self, fs: &[f64], progress: f64, first: u32, out: &mut [f64]) {
        self.blend(&self.store.current())
            .remaining_curve(fs, progress, first, out);
    }

    fn max_allocation(&self) -> u32 {
        self.blend(&self.store.current()).max_allocation()
    }

    fn size_for_deadline(&self, fs: &[f64], deadline: SimDuration, slack: f64) -> Option<u32> {
        self.blend(&self.store.current())
            .size_for_deadline(fs, deadline, slack)
    }

    fn pinned(&self) -> Option<Arc<dyn CompletionModel>> {
        Some(Arc::new(Pinned::new(
            self.store.current(),
            self.floor.clone(),
        )))
    }
}

/// A [`ModelHandle`] pinned to the snapshot that was current when
/// [`CompletionModel::pinned`] was called.
///
/// The jobs of a service family share one handle, so one pinned view
/// answers every job's curve in a refresh. The learned curve depends
/// on progress only through its progress bin, so the view memoises it
/// per bin. A bin's first curve request is answered as the handle
/// would answer it. Its second computes the learned curve over
/// `1..=max_allocation` into the memo, and that and every later
/// request in the bin copy their sub-range from the memo and fill the
/// non-finite entries from the floor for their own job. The memo fills
/// lazily, so a view never computes `bins × max_allocation` values up
/// front, and a view whose jobs each sit in a bin of their own (a
/// small fleet, or one job per handle) computes just the curves the
/// handle would have.
struct Pinned {
    learned: Arc<CpaModel>,
    floor: Option<Arc<dyn CompletionModel>>,
    /// The blend's `max_allocation`, read once at pin time.
    max_allocation: u32,
    /// One memo entry per progress bin.
    curves: Box<[BinCurve]>,
}

/// A pinned view's memo entry for one progress bin.
#[derive(Default)]
struct BinCurve {
    /// Set by the bin's first curve request.
    asked: AtomicBool,
    /// The learned curve at allocations `1..=max_allocation` for
    /// progress in this bin, filled by the bin's second request.
    curve: OnceLock<Box<[f64]>>,
}

impl Pinned {
    /// A view of `learned` over `floor` with an empty memo.
    fn new(learned: Arc<CpaModel>, floor: Option<Arc<dyn CompletionModel>>) -> Self {
        let max_allocation = Blend {
            learned: &learned,
            floor: floor.as_deref(),
        }
        .max_allocation();
        Pinned {
            curves: (0..learned.progress_bins())
                .map(|_| BinCurve::default())
                .collect(),
            learned,
            floor,
            max_allocation,
        }
    }

    fn blend(&self) -> Blend<'_> {
        Blend {
            learned: &self.learned,
            floor: self.floor.as_deref(),
        }
    }
}

impl CompletionModel for Pinned {
    fn remaining_secs(&self, fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.blend().remaining_secs(fs, progress, allocation)
    }

    /// The memoised learned curve of `progress`'s bin, with the floor
    /// filling its non-finite entries. A bin's first request, and any
    /// request reaching outside `1..=max_allocation`, takes the
    /// unmemoised blend.
    fn remaining_curve(&self, fs: &[f64], progress: f64, first: u32, out: &mut [f64]) {
        let end = u64::from(first) + out.len() as u64;
        if first == 0 || end > u64::from(self.max_allocation) + 1 {
            self.blend().remaining_curve(fs, progress, first, out);
            return;
        }
        let bin = self.learned.bin_of(progress);
        let memo = &self.curves[bin];
        let curve = match memo.curve.get() {
            Some(curve) => curve,
            // `Relaxed`: the flag publishes no data (the `OnceLock`
            // publishes the curve), and either reading answers the same
            // bits.
            None if !memo.asked.swap(true, Ordering::Relaxed) => {
                self.blend().remaining_curve(fs, progress, first, out);
                return;
            }
            None => memo.curve.get_or_init(|| {
                let mut curve = vec![0.0; self.max_allocation as usize];
                self.learned.remaining_curve_in_bin(bin, 1, &mut curve);
                curve.into()
            }),
        };
        let start = first as usize - 1;
        out.copy_from_slice(&curve[start..start + out.len()]);
        if let Some(floor) = self.floor.as_deref() {
            fill_from_floor(floor, fs, progress, first, out);
        }
    }

    fn max_allocation(&self) -> u32 {
        self.max_allocation
    }

    fn size_for_deadline(&self, fs: &[f64], deadline: SimDuration, slack: f64) -> Option<u32> {
        self.blend().size_for_deadline(fs, deadline, slack)
    }
}

/// The learned-over-floor blend every [`ModelHandle`] answer comes
/// from: one snapshot of the learned table, with the floor answering
/// where that table has no finite answer.
struct Blend<'a> {
    learned: &'a CpaModel,
    floor: Option<&'a dyn CompletionModel>,
}

impl CompletionModel for Blend<'_> {
    fn remaining_secs(&self, fs: &[f64], progress: f64, allocation: u32) -> f64 {
        let mut out = [0.0];
        self.remaining_curve(fs, progress, allocation, &mut out);
        out[0]
    }

    /// The learned curve where it is finite, the floor (if any) where
    /// the learned model has no answer.
    fn remaining_curve(&self, fs: &[f64], progress: f64, first: u32, out: &mut [f64]) {
        self.learned.remaining_curve(progress, first, out);
        if let Some(floor) = self.floor {
            fill_from_floor(floor, fs, progress, first, out);
        }
    }

    fn max_allocation(&self) -> u32 {
        let learned = self.learned.max_allocation();
        match self.floor {
            Some(floor) => learned.max(floor.max_allocation()),
            None => learned,
        }
    }

    fn size_for_deadline(&self, fs: &[f64], deadline: SimDuration, slack: f64) -> Option<u32> {
        // Size over the *blended* per-allocation curve: the learned
        // model vetoes allocations it has evidence against, and the
        // floor answers only where the learned model is silent. Asking
        // the learned model for a complete sizing first would collapse
        // to the floor's (typically optimistic) answer the moment any
        // learned row pushes past the deadline — discarding exactly the
        // evidence an adapting model has gathered.
        let d = deadline.as_secs_f64();
        crate::predict::min_feasible_allocation(self.max_allocation(), false, |a| {
            self.remaining_secs(fs, 0.0, a) * slack <= d
        })
    }
}

/// Replaces each non-finite entry of a learned curve over allocations
/// `first, first + 1, …` with the floor's answer at that allocation.
fn fill_from_floor(
    floor: &dyn CompletionModel,
    fs: &[f64],
    progress: f64,
    first: u32,
    out: &mut [f64],
) {
    for (a, v) in (first..).zip(out.iter_mut()) {
        if !v.is_finite() {
            *v = floor.remaining_secs(fs, progress, a);
        }
    }
}

/// Hashes the *structure* of a plan graph: stage count, edge shape
/// (producer, consumer, data-flow kind) and the barrier pattern.
/// Task counts and names are deliberately excluded so jobs that share
/// a template at different scales key to the same prior.
pub fn structure_hash(graph: &JobGraph) -> u64 {
    let mut canon = format!("stages={};", graph.num_stages());
    for e in graph.edges() {
        let kind = match e.kind {
            EdgeKind::OneToOne => "1:1",
            EdgeKind::AllToAll => "all",
        };
        canon.push_str(&format!("e={}>{}:{kind};", e.from.0, e.to.0));
    }
    canon.push_str("barriers=");
    for s in graph.stage_ids() {
        canon.push(if graph.is_barrier_stage(s) { '1' } else { '0' });
    }
    fnv1a(canon.as_bytes())
}

/// Cold-start priors: learned models indexed by [`structure_hash`],
/// borrowed by first-run jobs until they earn their own samples.
pub struct PriorLibrary {
    priors: Mutex<HashMap<u64, Arc<CpaModel>>>,
    stats: Arc<ModelLifecycleStats>,
}

impl PriorLibrary {
    /// An empty library with fresh counters.
    pub fn new() -> Self {
        Self::with_stats(ModelLifecycleStats::shared())
    }

    /// An empty library reporting into shared lifecycle counters.
    pub fn with_stats(stats: Arc<ModelLifecycleStats>) -> Self {
        PriorLibrary {
            priors: Mutex::new(HashMap::new()),
            stats,
        }
    }

    /// Looks up a structural neighbor for `graph`, counting the hit or
    /// miss.
    pub fn lookup(&self, graph: &JobGraph) -> Option<Arc<CpaModel>> {
        let found = self
            .priors
            .lock()
            .expect("prior lock")
            .get(&structure_hash(graph))
            .cloned();
        let counter = if found.is_some() {
            &self.stats.prior_hits
        } else {
            &self.stats.prior_misses
        };
        counter.fetch_add(1, Ordering::Relaxed);
        found
    }

    /// Registers (or replaces) the prior for `graph`'s structure.
    pub fn insert(&self, graph: &JobGraph, model: Arc<CpaModel>) {
        self.priors
            .lock()
            .expect("prior lock")
            .insert(structure_hash(graph), model);
    }

    /// Number of distinct structures with a prior.
    pub fn len(&self) -> usize {
        self.priors.lock().expect("prior lock").len()
    }

    /// Whether the library holds no priors.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The lifecycle counters this library reports into.
    pub fn stats(&self) -> Arc<ModelLifecycleStats> {
        self.stats.clone()
    }
}

impl Default for PriorLibrary {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpa::TrainConfig;
    use jockey_jobgraph::graph::JobGraphBuilder;

    fn cfg() -> TrainConfig {
        TrainConfig {
            progress_bins: 20,
            ..TrainConfig::fast(vec![2, 4, 8])
        }
    }

    /// A run at `allocation` completing in `total` seconds with evenly
    /// spaced observations.
    fn run(allocation: u32, total: f64, predicted: f64) -> RecordedRun {
        let observations = (0..10)
            .map(|i| RunObservation {
                elapsed_secs: f64::from(i) / 10.0 * total,
                progress: f64::from(i) / 10.0,
                allocation,
            })
            .collect();
        RecordedRun {
            observations,
            total_secs: total,
            completed: true,
            predicted_secs: predicted,
        }
    }

    fn seeded_store(nominal: f64) -> ModelStore {
        let mut model = CpaModel::empty(&cfg());
        for a in [2_u32, 4, 8] {
            for _ in 0..4 {
                let r = run(a, nominal, f64::NAN);
                model.absorb_observations(&r.observations, r.total_secs, r.completed);
            }
        }
        let online = OnlineConfig {
            drift: DriftConfig {
                window: 16,
                min_observations: 8,
                z_threshold: 3.0,
                percentile: 90.0,
            },
            retain_runs: 32,
        };
        ModelStore::new(model, online)
    }

    #[test]
    fn absorb_bumps_generation_and_updates_snapshot() {
        let store = seeded_store(100.0);
        assert_eq!(store.generation(), 0);
        let before = store.current();

        let outcome = store.record_completion(run(4, 100.0, 120.0));
        assert_eq!(outcome.generation, 1);
        assert!(!outcome.drift_retrained);
        assert_eq!(outcome.samples_added, 11);
        assert_eq!(store.generation(), 1);

        let after = store.current();
        assert!(!Arc::ptr_eq(&before, &after), "snapshot was republished");
        assert_eq!(
            after.sample_count(),
            before.sample_count() + outcome.samples_added
        );
        let stats = store.stats();
        assert_eq!(stats.generations_swapped.load(Ordering::Relaxed), 1);
        assert_eq!(stats.absorbed_runs.load(Ordering::Relaxed), 1);
        assert_eq!(stats.absorbed_samples.load(Ordering::Relaxed), 11);
        assert_eq!(stats.drift_detections.load(Ordering::Relaxed), 0);
    }

    /// Satellite: a seeded drift scenario where the detector fires —
    /// the workload slows 3x against its admission predictions, and the
    /// window retrain snaps the published model to the new regime.
    #[test]
    fn drift_fires_and_window_retrain_tracks_new_regime() {
        let store = seeded_store(100.0);
        let stale_estimate = store.current().fresh_latency(4);
        assert!(stale_estimate <= 110.0, "seed model predicts ~100s");

        let mut fired_at = None;
        for i in 0..16 {
            // Observed 300s vs the stale model's ~100s prediction.
            let outcome = store.record_completion(run(4, 300.0, stale_estimate));
            if outcome.drift_retrained {
                fired_at = Some(i);
                break;
            }
        }
        let fired_at = fired_at.expect("drift should fire within the window");
        assert!(fired_at >= 7, "min_observations gates early fires");
        assert_eq!(store.stats().drift_detections.load(Ordering::Relaxed), 1);

        // The retrained model reflects the 300s regime: the retained
        // window holds only slow runs, so the stale 100s samples are
        // gone from the published table.
        let retrained = store.current().fresh_latency(4);
        assert!(
            (250.0..=320.0).contains(&retrained),
            "retrained fresh latency {retrained} should track 300s"
        );
    }

    /// Satellite: a stationary soak where the detector provably stays
    /// quiet. Exceedances arrive at *exactly* the null rate for a p90
    /// predictor (every 10th completion), so every 32-completion window
    /// holds at most 4 exceedances — far below the z=4 threshold of
    /// ~10 — and no window can ever fire: no retrain storms under
    /// stationarity, deterministically.
    #[test]
    fn stationary_soak_never_fires() {
        let drift_cfg = DriftConfig {
            window: 32,
            min_observations: 16,
            z_threshold: 4.0,
            percentile: 90.0,
        };
        let mut det = DriftDetector::new(drift_cfg);
        for i in 0..2000_u32 {
            let exceeded = i % 10 == 9;
            let (observed, predicted) = if exceeded {
                (120.0, 100.0)
            } else {
                (80.0, 100.0)
            };
            assert!(!det.record(observed, predicted), "false positive at {i}");
        }
        assert_eq!(det.observation_count(), 32);

        // The same detector has teeth: exceedances at 3x the null rate
        // cross the threshold within one window.
        let mut fired = false;
        for i in 0..64_u32 {
            let exceeded = i % 3 != 0; // ~2/3 exceedance rate
            let (observed, predicted) = if exceeded {
                (120.0, 100.0)
            } else {
                (80.0, 100.0)
            };
            fired |= det.record(observed, predicted);
        }
        assert!(fired, "sustained drift must fire");
    }

    #[test]
    fn detector_clears_window_after_fire() {
        let drift_cfg = DriftConfig {
            window: 8,
            min_observations: 4,
            z_threshold: 1.0,
            percentile: 90.0,
        };
        let mut det = DriftDetector::new(drift_cfg);
        let mut fires = 0;
        for _ in 0..4 {
            if det.record(200.0, 100.0) {
                fires += 1;
            }
        }
        assert_eq!(fires, 1, "one fire for one regime change");
        assert_eq!(det.observation_count(), 0, "window cleared on fire");
    }

    #[test]
    fn censored_and_unpredicted_runs_absorb_without_drift_checks() {
        let store = seeded_store(100.0);
        for _ in 0..20 {
            let mut r = run(4, 500.0, f64::NAN); // no admission prediction
            r.completed = false; // censored
            store.record_completion(r);
        }
        assert_eq!(store.stats().drift_detections.load(Ordering::Relaxed), 0);
        assert_eq!(store.stats().absorbed_runs.load(Ordering::Relaxed), 20);
    }

    #[test]
    fn model_handle_floors_vacant_answers() {
        struct Flat;
        impl CompletionModel for Flat {
            fn remaining_secs(&self, _fs: &[f64], _p: f64, a: u32) -> f64 {
                1000.0 / f64::from(a.max(1))
            }
            fn max_allocation(&self) -> u32 {
                8
            }
        }

        let store = Arc::new(ModelStore::new(
            CpaModel::empty(&cfg()),
            OnlineConfig::default(),
        ));
        let bare = ModelHandle::new(store.clone());
        assert_eq!(bare.remaining_secs(&[], 0.0, 4), f64::INFINITY);
        assert_eq!(
            bare.size_for_deadline(&[], SimDuration::from_secs(600), 1.0),
            None
        );

        let floored = ModelHandle::with_floor(store.clone(), Arc::new(Flat));
        assert_eq!(floored.remaining_secs(&[], 0.0, 4), 250.0);
        assert_eq!(
            floored.size_for_deadline(&[], SimDuration::from_secs(600), 1.0),
            Some(2)
        );

        // Once the learned model has samples, it wins over the floor.
        store.record_completion(run(4, 80.0, f64::NAN));
        let learned = floored.remaining_secs(&[], 0.0, 4);
        assert!(learned <= 80.0 + 1e-9, "learned answer {learned}");
    }

    /// Every (progress bin, allocation) answer of `model` at the
    /// configured and at an explicit percentile, as bits.
    fn answer_bits(model: &CpaModel) -> Vec<u64> {
        let mut bits = Vec::new();
        for i in 0..=20 {
            let p = f64::from(i) / 20.0;
            for a in 0..=10 {
                bits.push(model.remaining(p, a).to_bits());
                bits.push(model.remaining_percentile(p, a, 50.0).to_bits());
            }
        }
        bits
    }

    /// Publishing shares sketch rows between the master and every
    /// snapshot: a snapshot taken before an absorb must keep answering
    /// exactly as it did, whichever rows the absorb (or a drift
    /// retrain) rewrote afterwards.
    #[test]
    fn published_snapshots_are_isolated_from_later_absorbs() {
        let bounded = TrainConfig {
            sketch_capacity: Some(8),
            ..cfg()
        };
        let mut model = CpaModel::empty(&bounded);
        for a in [2_u32, 4, 8] {
            for i in 0..6 {
                let r = run(a, 100.0 + f64::from(i), f64::NAN);
                model.absorb_observations(&r.observations, r.total_secs, r.completed);
            }
        }
        let online = OnlineConfig {
            drift: DriftConfig {
                window: 8,
                min_observations: 4,
                z_threshold: 1.0,
                percentile: 90.0,
            },
            retain_runs: 4,
        };
        let store = ModelStore::new(model, online);
        let before = store.current();
        let text = before.to_kv().to_text();
        let bits = answer_bits(&before);

        // Absorbs into every row, then runs slow enough to fire the
        // drift detector and rebuild the master from its window.
        let mut retrained = false;
        for i in 0..12 {
            let a = [2_u32, 4, 8][i % 3];
            retrained |= store
                .record_completion(run(a, 400.0, 100.0))
                .drift_retrained;
        }
        assert!(retrained, "the drift retrain path never ran");
        assert_ne!(store.current().to_kv().to_text(), text, "nothing changed");

        assert_eq!(before.to_kv().to_text(), text);
        assert_eq!(answer_bits(&before), bits);
    }

    /// Floor used by the pinning tests: answers every allocation, up to
    /// a larger cap than the learned grid.
    struct Flat;
    impl CompletionModel for Flat {
        fn remaining_secs(&self, _fs: &[f64], p: f64, a: u32) -> f64 {
            (1.0 - p) * 1000.0 / f64::from(a.max(1))
        }
        fn max_allocation(&self) -> u32 {
            12
        }
    }

    /// A store whose learned model knows allocations 4 and 8 but has
    /// nothing at 2, so queries at and near 2 fall back to the floor.
    fn partly_learned_store() -> Arc<ModelStore> {
        let mut model = CpaModel::empty(&cfg());
        for a in [4_u32, 8] {
            let r = run(a, 400.0 / f64::from(a), f64::NAN);
            model.absorb_observations(&r.observations, r.total_secs, r.completed);
        }
        Arc::new(ModelStore::new(model, OnlineConfig::default()))
    }

    #[test]
    fn pinned_view_answers_as_the_handle_does() {
        let store = partly_learned_store();
        for handle in [
            ModelHandle::new(store.clone()),
            ModelHandle::with_floor(store.clone(), Arc::new(Flat)),
        ] {
            let pinned = handle.pinned().expect("a handle pins");
            assert_eq!(pinned.max_allocation(), handle.max_allocation());
            let mut floored = 0;
            for i in 0..=20 {
                let p = f64::from(i) / 20.0;
                for a in 0..=14 {
                    let (x, y) = (
                        pinned.remaining_secs(&[p], p, a),
                        handle.remaining_secs(&[p], p, a),
                    );
                    assert_eq!(x.to_bits(), y.to_bits(), "p={p} a={a}");
                    if !store.current().remaining(p, a).is_finite() && x.is_finite() {
                        floored += 1;
                    }
                }
            }
            assert_eq!(floored > 0, handle.floor.is_some(), "floor fallbacks");
            for secs in (0..=600).step_by(15) {
                let d = SimDuration::from_secs(secs);
                assert_eq!(
                    pinned.size_for_deadline(&[0.0], d, 1.2),
                    handle.size_for_deadline(&[0.0], d, 1.2),
                    "deadline {secs}s"
                );
            }
        }

        // The view stays on the generation it pinned; the handle moves
        // on with the store. Its memo fills lazily, so a curve first
        // asked for after the store moved on still reads the pinned
        // generation.
        let handle = ModelHandle::with_floor(store.clone(), Arc::new(Flat));
        let pinned = handle.pinned().expect("a handle pins");
        let old = pinned.remaining_secs(&[0.0], 0.0, 2);
        let mut old_curve = vec![0.0; 12];
        handle.remaining_curve(&[0.0], 0.0, 1, &mut old_curve);
        store.record_completion(run(2, 50.0, f64::NAN));
        assert_eq!(
            pinned.remaining_secs(&[0.0], 0.0, 2).to_bits(),
            old.to_bits()
        );
        let mut curve = vec![0.0; 12];
        pinned.remaining_curve(&[0.0], 0.0, 1, &mut curve);
        assert_eq!(curve, old_curve);
        assert_ne!(
            handle.remaining_secs(&[0.0], 0.0, 2).to_bits(),
            old.to_bits()
        );
    }

    #[test]
    fn arbitrate_splits_pinned_jobs_as_it_splits_the_handle() {
        use crate::arbiter::{arbitrate, ArbiterJob};
        use crate::utility::UtilityFunction;

        let store = partly_learned_store();
        let handle: Arc<dyn CompletionModel> =
            Arc::new(ModelHandle::with_floor(store, Arc::new(Flat)));
        let pinned = handle.pinned().expect("a handle pins");
        let jobs: Vec<ArbiterJob> = (0..12_u32)
            .map(|i| ArbiterJob {
                utility: UtilityFunction::deadline(SimDuration::from_secs(200 + u64::from(i) * 37)),
                progress: f64::from(i % 5) / 5.0,
                stage_fraction: vec![f64::from(i % 5) / 5.0],
                elapsed_secs: f64::from(i % 4) * 30.0,
                slack: 1.2,
            })
            .collect();
        let models = |model| vec![model; jobs.len()];
        for budget in [12, 20, 40, 90] {
            let split = arbitrate(&jobs, &models(handle.as_ref()), budget);
            assert_eq!(
                arbitrate(&jobs, &models(pinned.as_ref()), budget),
                split,
                "budget {budget}"
            );
            assert!(split.iter().sum::<u32>() <= budget);
            if budget > 12 {
                assert!(split.iter().any(|&a| a > 1), "budget {budget}: {split:?}");
            }
        }
    }

    /// The drift retrain folds the retained window run by run and
    /// builds the query table once; the master it leaves must be the
    /// one absorbing the window one run at a time would leave, cells
    /// and table alike, on bounded sketches that compact.
    #[test]
    fn drift_retrain_matches_the_per_run_rebuild() {
        // Two progress bins crowd each run's samples into few cells, so
        // a 24-run window overflows their sketches.
        let bounded = TrainConfig {
            sketch_capacity: Some(8),
            progress_bins: 2,
            ..cfg()
        };
        let mut model = CpaModel::empty(&bounded);
        for a in [2_u32, 4, 8] {
            for i in 0..6 {
                let r = run(a, 100.0 + f64::from(i), f64::NAN);
                model.absorb_observations(&r.observations, r.total_secs, r.completed);
            }
        }
        let online = OnlineConfig {
            drift: DriftConfig {
                window: 8,
                min_observations: 4,
                z_threshold: 1.0,
                percentile: 90.0,
            },
            retain_runs: 24,
        };
        let store = ModelStore::new(model, online);
        let mut fires = 0;
        for i in 0..60_u32 {
            let a = [2_u32, 4, 8][i as usize % 3];
            let total = 300.0 + f64::from(i * 7 % 50);
            if !store
                .record_completion(run(a, total, 100.0))
                .drift_retrained
            {
                continue;
            }
            fires += 1;
            let inner = store.inner.lock().unwrap();
            let mut per_run = inner.master.vacant_copy();
            for r in &inner.recent {
                per_run.absorb_observations(&r.observations, r.total_secs, r.completed);
            }
            assert!(per_run.rank_error_bound() > 0, "the window compacted");
            assert_eq!(inner.master.to_kv().to_text(), per_run.to_kv().to_text());
            assert_eq!(answer_bits(&inner.master), answer_bits(&per_run));
        }
        assert!(fires >= 2, "drift fired {fires} times");
    }

    /// Progress values that cover every bin of `cfg()`, both edges of
    /// each, and the values that clamp or map to bin 0 (NaN).
    fn probe_progress() -> Vec<f64> {
        let mut ps: Vec<f64> = (-2..=42).map(|i| f64::from(i) / 40.0).collect();
        ps.extend([f64::NAN, f64::NEG_INFINITY, f64::INFINITY, 0.999_999]);
        ps
    }

    /// The blended curve, and the single query it answers, equal the
    /// blend computed from the learned model's percentile scan bit for
    /// bit, from the handle and from a pinned view, with and without a
    /// floor: the learned answer where it is finite, the floor's
    /// elsewhere. Curves start at `0..=max + 2` and run for lengths
    /// that end inside the learned grid (max 8), between it and the
    /// floor's cap (12), and past both, so the pinned view answers
    /// from its memo and from the blend it falls back to.
    #[test]
    fn blended_curve_matches_the_percentile_scan_blend() {
        let store = partly_learned_store();
        let learned = store.current();
        for floor in [None, Some(Arc::new(Flat) as Arc<dyn CompletionModel>)] {
            let handle = match &floor {
                None => ModelHandle::new(store.clone()),
                Some(f) => ModelHandle::with_floor(store.clone(), f.clone()),
            };
            let pinned = handle.pinned().expect("a handle pins");
            let max = handle.max_allocation();
            assert_eq!(max, if floor.is_some() { 12 } else { 8 });
            for p in probe_progress() {
                let blend = |a: u32| {
                    let v = learned.remaining_percentile(p, a, learned.percentile());
                    match &floor {
                        Some(f) if !v.is_finite() => f.remaining_secs(&[p], p, a),
                        _ => v,
                    }
                };
                for first in 0..=max + 2 {
                    for len in 0..=max + 3 {
                        let mut out = vec![0.0; len as usize];
                        for model in [&handle as &dyn CompletionModel, pinned.as_ref()] {
                            model.remaining_curve(&[p], p, first, &mut out);
                            for (a, v) in (first..).zip(&out) {
                                let want = blend(a).to_bits();
                                assert_eq!(v.to_bits(), want, "p={p} first={first} a={a}");
                            }
                        }
                    }
                }
                for a in 0..=max + 3 {
                    let want = blend(a).to_bits();
                    for model in [&handle as &dyn CompletionModel, pinned.as_ref()] {
                        let one = model.remaining_secs(&[p], p, a);
                        assert_eq!(one.to_bits(), want, "p={p} a={a}");
                    }
                }
            }
        }
    }

    /// The pinned view's memo holds one learned curve per progress bin
    /// that more than one request read, shared by every job in that
    /// bin, while each job's floor fill stays its own: of three jobs in
    /// one bin, at different progress, the first is answered directly,
    /// the second fills the bin's memo entry and the third reads it,
    /// and each gets the floor answer at its own progress. A view that
    /// serves one job fills nothing until a bin is asked for twice.
    #[test]
    fn pinned_memo_is_one_curve_per_shared_bin_and_one_floor_fill_per_job() {
        let store = partly_learned_store();
        let learned = store.current();
        let floor: Arc<dyn CompletionModel> = Arc::new(Flat);
        let filled = |view: &Pinned| {
            view.curves
                .iter()
                .filter(|c| c.curve.get().is_some())
                .count()
        };
        let bits = |v: &[f64]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        let unmemoised = |view: &Pinned, p: f64, first: u32, len: usize| {
            let mut out = vec![0.0; len];
            view.blend().remaining_curve(&[p], p, first, &mut out);
            bits(&out)
        };

        // Three jobs in bin 8 of 20.
        let shared = Pinned::new(learned.clone(), Some(floor.clone()));
        let jobs = [0.41, 0.44, 0.425];
        assert!(jobs.iter().all(|&p| learned.bin_of(p) == 8));
        let mut outs = Vec::new();
        for (i, p) in jobs.into_iter().enumerate() {
            let mut out = vec![0.0; 12];
            shared.remaining_curve(&[p], p, 1, &mut out);
            assert_eq!(bits(&out), unmemoised(&shared, p, 1, 12), "p={p}");
            assert_eq!(filled(&shared), [0, 1, 1][i], "p={p}");
            outs.push(out);
        }
        // Allocations 1..=3 are unlearned: each job's floor answers them
        // at its own progress; the learned entries agree.
        assert!(outs[0][..3].iter().zip(&outs[1][..3]).all(|(x, y)| x > y));
        assert_eq!(outs[0][3..], outs[1][3..]);
        assert_eq!(outs[1][3..], outs[2][3..]);

        // One job alone, asked once per pin (the plane pins per
        // refresh): no memo at all. Asked again within one pin, the
        // view fills the bins it revisits.
        let alone = Pinned::new(learned.clone(), Some(floor));
        let mut out = vec![0.0; 5];
        for (visit, p) in [0.0, 0.5, 0.99, 0.02, 1.0].into_iter().enumerate() {
            alone.remaining_curve(&[p], p, 2, &mut out);
            assert_eq!(bits(&out), unmemoised(&alone, p, 2, 5), "p={p}");
            assert_eq!(filled(&alone), [0, 0, 0, 1, 2][visit], "p={p}");
        }
    }

    #[test]
    fn prior_library_keys_on_structure_not_scale() {
        let build = |tasks: u32, kind: EdgeKind| {
            let mut b = JobGraphBuilder::new("prior");
            let m = b.stage("map", tasks);
            let r = b.stage("reduce", if kind == EdgeKind::OneToOne { tasks } else { 2 });
            b.edge(m, r, kind);
            Arc::new(b.build().unwrap())
        };
        let small = build(8, EdgeKind::AllToAll);
        let large = build(800, EdgeKind::AllToAll);
        let pipeline = build(8, EdgeKind::OneToOne);
        assert_eq!(structure_hash(&small), structure_hash(&large));
        assert_ne!(structure_hash(&small), structure_hash(&pipeline));

        let lib = PriorLibrary::new();
        assert!(lib.lookup(&small).is_none());
        lib.insert(&small, Arc::new(CpaModel::empty(&cfg())));
        assert!(lib.lookup(&large).is_some(), "different scale still hits");
        assert!(lib.lookup(&pipeline).is_none(), "different shape misses");
        assert_eq!(lib.len(), 1);

        let stats = lib.stats();
        assert_eq!(stats.prior_hits.load(Ordering::Relaxed), 1);
        assert_eq!(stats.prior_misses.load(Ordering::Relaxed), 2);
    }
}
