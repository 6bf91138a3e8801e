//! The `C(p, a)` completion-time model, its offline training pipeline
//! (§4.1), and the online absorb path that keeps trained models alive.
//!
//! `C(p, a)` is a random variable: the remaining time to complete the
//! job when it has made progress `p` and holds `a` tokens. The paper
//! estimates its distribution by *repeatedly simulating the job* at
//! each allocation in a grid: a run at allocation `a` finishing at time
//! `T` contributes, for every sampled instant `t`, one observation
//! `(p_t, T − t)`. At runtime the control loop only queries the
//! precomputed table, so no simulation happens on the critical path.
//!
//! Because "we care about the worst-case completion time" (§5.3), the
//! model answers queries at a configurable high percentile (default
//! p95) of the samples in a cell, interpolating linearly between grid
//! allocations. This built-in pessimism is what lets Jockey
//! "over-allocate resources at the start to compensate for potential
//! future failures" (§1).
//!
//! # Living models
//!
//! Each `(allocation, bin)` cell is a mergeable
//! [`CellSketch`], so a completed run folds
//! into the model with [`CpaModel::absorb_observations`] in `O(cells)` — no
//! retraining. With the default `sketch_capacity: None` the sketches
//! are *exact* (plain sorted sample lists) and the model is
//! byte-identical to the pre-sketch format; a bounded capacity trades
//! memory for the sketch's documented rank-error bound.
//! [`CpaModel::train`] itself is a thin wrapper that harvests
//! simulation runs and absorbs them into an empty model.

use std::fmt;
use std::sync::{Arc, Mutex};

use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec, RunHooks, SimWorkspace};
use jockey_jobgraph::graph::JobGraph;
use jockey_jobgraph::profile::JobProfile;
use jockey_simrt::observe::ProgressSink;
use jockey_simrt::rng::SeedDeriver;
use jockey_simrt::time::{SimDuration, SimTime};

use crate::predict::{min_feasible_allocation, CompletionModel};
use crate::progress::IndicatorContext;
use crate::sketch::{CellSketch, MAX_SKETCH_LEVELS, MIN_SKETCH_CAPACITY};

/// Offline training configuration.
#[derive(Clone, Debug)]
pub struct TrainConfig {
    /// Token allocations to simulate (ascending).
    pub allocations: Vec<u32>,
    /// Independent simulated runs per allocation.
    pub runs_per_allocation: usize,
    /// How often progress is sampled during each simulated run.
    pub sample_period: SimDuration,
    /// Number of progress buckets in `[0, 1]`.
    pub progress_bins: usize,
    /// Percentile (0–100) reported by queries; high values encode the
    /// paper's worst-case pessimism.
    pub percentile: f64,
    /// Simulation horizon per training run.
    pub max_sim_time: SimTime,
    /// Worker threads for training; `None` (the default) uses the
    /// machine's available parallelism. The trained model is identical
    /// for any value — RNG streams derive from grid position, never
    /// from thread scheduling.
    pub threads: Option<usize>,
    /// Per-cell quantile-sketch capacity. `None` (the default) keeps
    /// every sample — cells are exact sorted lists and the model is
    /// byte-identical to the pre-sketch format. `Some(k)` bounds each
    /// sketch level at `k` items, trading memory for the tracked
    /// rank-error bound documented on
    /// [`CellSketch`].
    pub sketch_capacity: Option<usize>,
    /// Optional physical topology for the training simulations. `None`
    /// (the default) trains against the legacy flat dedicated cluster;
    /// `Some` trains C(p, a) against the same racks × machine-classes
    /// geometry the evaluation scenario runs on, so the model's
    /// percentiles absorb locality penalties and slow-machine classes.
    pub topology: Option<jockey_cluster::TopologyConfig>,
    /// Optional speculative-execution (clone-on-slow) configuration for
    /// the training simulations. `None` (the default) trains the legacy
    /// `C(p, a)` surface bit-identically; `Some` trains one `C(p, a, s)`
    /// surface — each allocation `a` simulates with `clone_budget` idle
    /// tokens held aside for clones, so the learned completion times
    /// reflect the cloning policy *and* the total reserved footprint
    /// `a + clone_budget` the 2D controller prices (§4.3 extended).
    pub speculation: Option<jockey_cluster::SpeculationConfig>,
}

impl Default for TrainConfig {
    fn default() -> Self {
        // The grid reaches down to single tokens: the control loop
        // releases resources toward the *minimum* utility-maximizing
        // allocation, so the model must know how slow the job's tail
        // really is at tiny allocations.
        TrainConfig {
            allocations: [1, 2, 5]
                .into_iter()
                .chain((1..=10).map(|i| i * 10))
                .collect(),
            runs_per_allocation: 10,
            sample_period: SimDuration::from_secs(30),
            progress_bins: 100,
            percentile: 95.0,
            max_sim_time: SimTime::from_mins(24 * 60),
            threads: None,
            sketch_capacity: None,
            topology: None,
            speculation: None,
        }
    }
}

impl TrainConfig {
    /// A cheap configuration for tests: few allocations, few runs.
    /// Include small allocations so release decisions stay informed.
    pub fn fast(allocations: Vec<u32>) -> Self {
        TrainConfig {
            allocations,
            runs_per_allocation: 4,
            sample_period: SimDuration::from_secs(15),
            progress_bins: 50,
            percentile: 90.0,
            max_sim_time: SimTime::from_mins(12 * 60),
            threads: None,
            sketch_capacity: None,
            topology: None,
            speculation: None,
        }
    }

    /// Validates the configuration, returning the first problem found.
    /// NaN percentiles are rejected (`contains` on a float range is
    /// already NaN-safe; finiteness is still checked explicitly so the
    /// intent survives refactoring).
    pub fn check(&self) -> Result<(), InvalidTrainConfig> {
        if self.allocations.is_empty()
            || self.allocations[0] < 1
            || !self.allocations.windows(2).all(|w| w[0] < w[1])
        {
            return Err(InvalidTrainConfig::Allocations);
        }
        if self.runs_per_allocation < 1 {
            return Err(InvalidTrainConfig::Runs);
        }
        if self.progress_bins < 2 {
            return Err(InvalidTrainConfig::Bins(self.progress_bins));
        }
        if !self.percentile.is_finite() || !(50.0..=100.0).contains(&self.percentile) {
            return Err(InvalidTrainConfig::Percentile(self.percentile));
        }
        if self.sample_period.is_zero() {
            return Err(InvalidTrainConfig::SamplePeriod);
        }
        if let Some(k) = self.sketch_capacity {
            if k < MIN_SKETCH_CAPACITY {
                return Err(InvalidTrainConfig::SketchCapacity(k));
            }
        }
        Ok(())
    }

    fn validate(&self) {
        if let Err(e) = self.check() {
            panic!("invalid train config: {e}");
        }
    }
}

/// Why a [`TrainConfig`] was rejected by [`TrainConfig::check`].
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum InvalidTrainConfig {
    /// The allocation grid is empty, starts below 1, or is not strictly
    /// ascending.
    Allocations,
    /// `runs_per_allocation` must be `>= 1`.
    Runs,
    /// `progress_bins` must be `>= 2`.
    Bins(usize),
    /// `percentile` must be a finite value in `[50, 100]` (NaN is
    /// rejected explicitly).
    Percentile(f64),
    /// `sample_period` must be positive.
    SamplePeriod,
    /// `sketch_capacity` must be at least
    /// [`MIN_SKETCH_CAPACITY`].
    SketchCapacity(usize),
}

impl fmt::Display for InvalidTrainConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidTrainConfig::Allocations => {
                write!(
                    f,
                    "allocation grid must be non-empty, >= 1 and strictly ascending"
                )
            }
            InvalidTrainConfig::Runs => write!(f, "runs_per_allocation must be >= 1"),
            InvalidTrainConfig::Bins(v) => write!(f, "progress_bins must be >= 2, got {v}"),
            InvalidTrainConfig::Percentile(v) => {
                write!(f, "percentile must be a finite value in [50, 100], got {v}")
            }
            InvalidTrainConfig::SamplePeriod => write!(f, "sample_period must be positive"),
            InvalidTrainConfig::SketchCapacity(v) => {
                write!(
                    f,
                    "sketch_capacity must be >= {MIN_SKETCH_CAPACITY}, got {v}"
                )
            }
        }
    }
}

impl std::error::Error for InvalidTrainConfig {}

/// Default training worker count when [`TrainConfig::threads`] is
/// `None`: the machine's available parallelism. Training results are
/// byte-identical for any thread count, so this only tunes wall-clock
/// time — on a 1-core machine it keeps the training loops inline
/// instead of paying spawn/join overhead for no concurrency.
fn default_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Calls `work(&mut state, i, &mut items[i])` for every item on up to
/// `threads` workers, each building its own `state` with `init`.
/// Workers pull the next unclaimed item from one shared queue, so the
/// load balances itself whatever the items cost; one worker runs
/// inline, without spawning. Which worker handles an item is
/// scheduling-dependent, so `work` must depend only on `i` and the
/// item for the result to be thread-count independent.
fn for_each_pulled<T, S>(
    items: &mut [T],
    threads: usize,
    init: impl Fn() -> S + Sync,
    work: impl Fn(&mut S, usize, &mut T) + Sync,
) where
    T: Send,
{
    let threads = threads.clamp(1, items.len().max(1));
    if threads == 1 {
        let mut state = init();
        for (i, item) in items.iter_mut().enumerate() {
            work(&mut state, i, item);
        }
        return;
    }
    let queue = Mutex::new(items.iter_mut().enumerate());
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut state = init();
                loop {
                    // The guard drops at the end of this statement, so
                    // no worker holds the queue while it works.
                    let next = queue.lock().expect("training queue poisoned").next();
                    let Some((i, item)) = next else { break };
                    work(&mut state, i, item);
                }
            });
        }
    });
}

/// Maps progress `p` (clamped to `[0, 1]`) onto one of `bins` buckets.
/// Shared by model queries and training-time bucketing so the two can
/// never drift apart.
fn progress_bin(p: f64, bins: usize) -> usize {
    (((p.clamp(0.0, 1.0)) * bins as f64) as usize).min(bins - 1)
}

/// Linear interpolation between two grid values, repairing the
/// `inf − inf` case that arises when vacant (sample-free) rows sit
/// next to the query. Finite inputs keep the exact historical
/// expression `va + (vb − va) * w`, bit for bit; only answers the
/// straight-line formula turns into NaN are resolved — by the weight's
/// endpoint when it lands on one, and pessimistically (`INFINITY`)
/// strictly between.
fn lerp_grid(va: f64, vb: f64, w: f64) -> f64 {
    let v = va + (vb - va) * w;
    if !v.is_nan() || va.is_nan() || vb.is_nan() {
        return v;
    }
    if w >= 1.0 {
        vb
    } else if w <= 0.0 {
        va
    } else {
        f64::INFINITY
    }
}

/// One runtime observation fed back into the model: at `elapsed_secs`
/// since job start the job had made `progress` while holding
/// `allocation` tokens. A completed run's observations become
/// remaining-time samples `(total − elapsed).max(0)` exactly as
/// training-time harvesting does.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct RunObservation {
    /// Seconds since the job started.
    pub elapsed_secs: f64,
    /// Progress-indicator value in `[0, 1]` at that instant.
    pub progress: f64,
    /// Tokens held at that instant (snapped to the nearest grid point).
    pub allocation: u32,
}

/// A borrowed [`ProgressSink`] that folds each control-tick snapshot
/// straight into `(elapsed, progress)` pairs — the instrumentation used
/// to harvest `C(p, a)` samples from training runs, with no per-sample
/// stage-fraction clone and no lock.
struct SampleCollector<'a> {
    indicator: &'a IndicatorContext,
    samples: &'a mut Vec<(f64, f64)>,
}

impl ProgressSink for SampleCollector<'_> {
    fn sample(&mut self, _job: usize, elapsed_secs: f64, stage_fraction: &[f64]) {
        self.samples
            .push((elapsed_secs, self.indicator.progress(stage_fraction)));
    }
}

/// The samples harvested from one simulated training run.
#[derive(Default)]
struct RunHarvest {
    /// `(elapsed_secs, progress)` pairs at each control tick.
    samples: Vec<(f64, f64)>,
    /// Completion time, horizon-censored for runs that never finished.
    total_secs: f64,
    /// Whether the run actually completed within the horizon.
    completed: bool,
}

/// The trained `C(p, a)` table.
#[derive(Clone, Debug)]
pub struct CpaModel {
    allocations: Vec<u32>,
    bins: usize,
    percentile: f64,
    /// Per-level sketch capacity shared by every cell (`None` = exact).
    sketch_k: Option<usize>,
    /// `cells[alloc_idx][bin]`: a mergeable quantile sketch over the
    /// remaining-time samples. Exact (a plain sorted list) unless a
    /// `sketch_capacity` was configured.
    ///
    /// Each allocation row sits behind its own [`Arc`] and is written
    /// copy-on-write: cloning a model (what [`crate::online::ModelStore`]
    /// does to publish a snapshot) copies row pointers, not sketches,
    /// and a later absorb copies only the rows it touches while the
    /// published snapshot keeps the old ones.
    cells: Vec<Arc<Vec<CellSketch>>>,
    /// Dense `allocations.len() x bins` lookup table: the configured
    /// percentile of each `(allocation, bin)` cell, with the outward
    /// empty-cell fallback already resolved. [`CpaModel::remaining`] —
    /// the per-controller-tick query — reads this instead of
    /// recomputing the percentile over raw samples. Raw `cells` are
    /// retained for explicit-percentile queries, absorption, and
    /// serialization.
    table: Vec<f64>,
    /// Whether the fresh-latency column (`table[·][bin_of(0)]`) is
    /// non-increasing in allocation. When it is — the overwhelmingly
    /// common case, since more tokens never slow a job — feasibility
    /// sizing binary-searches the allocation range; a noisy
    /// non-monotone table falls back to the exhaustive scan.
    fresh_monotone: bool,
}

impl CpaModel {
    /// An empty (sample-free) model with `cfg`'s shape: the starting
    /// point for purely online accumulation via [`CpaModel::absorb_observations`].
    /// Every query on it answers `INFINITY` until samples arrive.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`TrainConfig`].
    pub fn empty(cfg: &TrainConfig) -> Self {
        cfg.validate();
        Self::vacant(
            cfg.allocations.clone(),
            cfg.progress_bins,
            cfg.percentile,
            cfg.sketch_capacity,
        )
    }

    /// A sample-free model with the same shape (grid, bins, percentile,
    /// sketch capacity) as `self` — the seed for drift-triggered
    /// retraining from a retained run window.
    pub fn vacant_copy(&self) -> Self {
        Self::vacant(
            self.allocations.clone(),
            self.bins,
            self.percentile,
            self.sketch_k,
        )
    }

    /// A sample-free model of the given shape, its table all
    /// `INFINITY`. Its cells own no heap buffer, so this costs one
    /// allocation per row plus the table.
    fn vacant(
        allocations: Vec<u32>,
        bins: usize,
        percentile: f64,
        sketch_k: Option<usize>,
    ) -> Self {
        // One `Arc` per row, so a first absorb into a row copies nothing.
        let cells = (0..allocations.len())
            .map(|_| Arc::new(vec![CellSketch::new(sketch_k); bins]))
            .collect();
        let mut model = CpaModel {
            allocations,
            bins,
            percentile,
            sketch_k,
            cells,
            table: Vec::new(),
            fresh_monotone: false,
        };
        model.build_table();
        model
    }

    /// Trains the model by simulating `profile` (replayed through
    /// `spec`'s graph) at every allocation in the grid, indexing
    /// progress with `indicator`.
    ///
    /// Training is deterministic in `seed` and parallelized twice: the
    /// workers simulate the `allocations × runs_per_allocation` grid
    /// cell by cell, then fold the allocation rows. It is a thin
    /// wrapper over the online path: the harvested runs are absorbed,
    /// one by one, into an empty model —
    /// with the default exact sketches this reproduces the historical
    /// trained bytes bit-for-bit, and with a bounded `sketch_capacity`
    /// it matches within the sketch's documented rank-error bound.
    ///
    /// # Panics
    ///
    /// Panics on an invalid [`TrainConfig`].
    pub fn train(
        graph: &Arc<JobGraph>,
        profile: &JobProfile,
        indicator: &IndicatorContext,
        cfg: &TrainConfig,
        seed: u64,
    ) -> Self {
        cfg.validate();
        let seeds = SeedDeriver::new(seed).child("cpa-train");
        let spec = Arc::new(JobSpec::from_profile(graph.clone(), profile));
        let threads = cfg.threads.unwrap_or_else(default_threads);

        // Simulate: the grid is `allocations x runs_per_allocation`
        // cells, and workers pull cells one at a time, each reusing its
        // own SimWorkspace. Every cell's RNG seed derives from its grid
        // position (allocation index, then run index), so the harvests
        // are byte-identical for any thread count.
        let runs = cfg.runs_per_allocation;
        let mut harvests: Vec<RunHarvest> = Vec::new();
        harvests.resize_with(cfg.allocations.len() * runs, RunHarvest::default);
        for_each_pulled(
            &mut harvests,
            threads,
            SimWorkspace::new,
            |ws, cell, harvest| {
                let (ai, run) = (cell / runs, cell % runs);
                let run_seed = seeds
                    .child_indexed("alloc", ai as u64)
                    .seed_indexed("run", run as u64);
                *harvest = train_one_run(&spec, indicator, cfg.allocations[ai], cfg, run_seed, ws);
            },
        );

        // Fold: a run at grid allocation `ai` only touches row `ai`, so
        // rows fold in parallel. Each row absorbs its runs in run order
        // — the same batches in the same order as one serial
        // grid-then-run pass — and then computes its query-table row,
        // which reads no other row.
        let mut model = CpaModel::empty(cfg);
        let bins = model.bins;
        let mut rows: Vec<_> = model
            .cells
            .iter_mut()
            .zip(model.table.chunks_mut(bins))
            .zip(harvests.chunks(runs))
            .collect();
        for_each_pulled(
            &mut rows,
            threads,
            || (FoldScratch::default(), Vec::new()),
            |(scratch, obs), ai, ((row, table_row), row_runs)| {
                let allocation = cfg.allocations[ai];
                for run in row_runs.iter() {
                    obs.clear();
                    obs.extend(run.samples.iter().map(|&(t, p)| RunObservation {
                        elapsed_secs: t,
                        progress: p,
                        allocation,
                    }));
                    let completed_alloc = run.completed.then_some(allocation);
                    scratch.stage(&cfg.allocations, bins, obs, run.total_secs, completed_alloc);
                    scratch.merge(std::slice::from_mut(*row), ai, None);
                }
                fill_row(row, cfg.percentile, |_| true, table_row);
            },
        );
        model.check_fresh_monotone();
        model
    }

    /// Folds one completed (or horizon-censored) run's observations
    /// into the model's sketches in `O(cells)` and incrementally
    /// rebuilds the affected query-table rows. Returns the number of
    /// samples added.
    ///
    /// This is the online counterpart of one training run: each
    /// observation contributes `(total_secs − elapsed).max(0)` to the
    /// cell at its progress bin and nearest grid allocation, and a
    /// completed run additionally contributes a zero-remaining sample
    /// at full progress.
    pub fn absorb_observations(
        &mut self,
        obs: &[RunObservation],
        total_secs: f64,
        completed: bool,
    ) -> usize {
        self.absorb_runs([(obs, total_secs, completed)])
    }

    /// Folds several runs, each `(observations, total_secs, completed)`
    /// as [`CpaModel::absorb_observations`] takes them, in the order
    /// given, then rebuilds the query-table cells they touched once
    /// (see `rebuild_rows`). The result is identical to
    /// absorbing them one call at a time: the table is a function of
    /// the cells alone, and the cells see the same batches in the same
    /// order. Returns the number of samples added.
    pub fn absorb_runs<'r>(
        &mut self,
        runs: impl IntoIterator<Item = (&'r [RunObservation], f64, bool)>,
    ) -> usize {
        let mut touched = vec![false; self.allocations.len() * self.bins];
        let mut scratch = FoldScratch::default();
        let mut added = 0;
        for (obs, total_secs, completed) in runs {
            let completed_alloc = if completed {
                obs.last().map(|o| o.allocation)
            } else {
                None
            };
            scratch.stage(
                &self.allocations,
                self.bins,
                obs,
                total_secs,
                completed_alloc,
            );
            added += scratch.merge(&mut self.cells, 0, Some(&mut touched));
        }
        self.rebuild_rows(&touched);
        added
    }

    /// Precomputes the dense query table from the raw cells: one
    /// configured-percentile value per `(allocation, bin)`, identical to
    /// what the outward-scanning [`CpaModel::remaining_at_grid`] path
    /// returns (including the all-empty-allocation `INFINITY` case), so
    /// `remaining()` is a load + interpolation per tick. Each row fills
    /// in `O(bins)` (see [`fill_row`]).
    fn build_table(&mut self) {
        let bins = self.bins;
        self.table = vec![0.0; self.allocations.len() * bins];
        for (cells, row) in self.cells.iter().zip(self.table.chunks_mut(bins)) {
            fill_row(cells, self.percentile, |_| true, row);
        }
        self.check_fresh_monotone();
    }

    /// Recomputes the table rows that `touched` (one flag per
    /// `(allocation, bin)` cell, row-major) can have changed, and
    /// re-derives the monotone flag. Rows never read other
    /// allocations' cells, so untouched rows keep their exact bytes.
    /// In a touched row only the touched cells' quantiles are
    /// recomputed: merges only add samples, so an untouched non-empty
    /// cell was non-empty, with the same sketch, at the last fill and
    /// its table value is still its own quantile. The empty cells then
    /// take their nearest non-empty neighbour's value again, since one
    /// new sample can move that neighbour.
    fn rebuild_rows(&mut self, touched: &[bool]) {
        let bins = self.bins;
        debug_assert_eq!(touched.len(), self.allocations.len() * bins);
        let rows = touched.chunks(bins).zip(&self.cells);
        for ((row_touched, cells), row) in rows.zip(self.table.chunks_mut(bins)) {
            if row_touched.contains(&true) {
                fill_row(cells, self.percentile, |bin| row_touched[bin], row);
            }
        }
        self.check_fresh_monotone();
    }

    /// Re-derives [`CpaModel::fresh_monotone`] from the dense table.
    fn check_fresh_monotone(&mut self) {
        let bin0 = self.bin_of(0.0);
        self.fresh_monotone = (1..self.allocations.len()).all(|ai| {
            let (prev, cur) = (
                self.table[(ai - 1) * self.bins + bin0],
                self.table[ai * self.bins + bin0],
            );
            // NaN anywhere in the column disqualifies the fast path.
            prev >= cur
        });
    }

    /// The allocation grid the model was trained on.
    pub fn allocations(&self) -> &[u32] {
        &self.allocations
    }

    /// The percentile used by [`CpaModel::remaining`] queries.
    pub fn percentile(&self) -> f64 {
        self.percentile
    }

    /// The per-cell sketch capacity (`None` = exact cells).
    pub fn sketch_capacity(&self) -> Option<usize> {
        self.sketch_k
    }

    /// Total number of represented samples (diagnostics). Bounded
    /// sketches represent more samples than they store — see
    /// [`CpaModel::stored_item_count`].
    pub fn sample_count(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|a| a.iter().map(|c| c.count() as usize))
            .sum()
    }

    /// Number of items physically stored across all sketches — the
    /// model's memory footprint, which a bounded `sketch_capacity`
    /// keeps from growing linearly with absorbed runs.
    pub fn stored_item_count(&self) -> usize {
        self.cells
            .iter()
            .flat_map(|a| a.iter().map(CellSketch::item_count))
            .sum()
    }

    /// The summed worst-case rank error across all cells (diagnostics);
    /// zero for exact models.
    pub fn rank_error_bound(&self) -> u64 {
        self.cells
            .iter()
            .flat_map(|a| a.iter().map(CellSketch::rank_error_bound))
            .sum()
    }

    /// The number of progress bins.
    pub(crate) fn progress_bins(&self) -> usize {
        self.bins
    }

    /// The progress bin a query at progress `p` reads: `p` is clamped
    /// to `[0, 1]`, and NaN maps to bin 0.
    pub(crate) fn bin_of(&self, p: f64) -> usize {
        progress_bin(p, self.bins)
    }

    /// The remaining-time estimate at a single grid allocation index,
    /// searching outward from the progress bin for the nearest
    /// non-empty cell.
    fn remaining_at_grid(&self, ai: usize, bin: usize, percentile: f64) -> f64 {
        grid_remaining(&self.cells[ai], bin, percentile)
    }

    /// `C(p, a)` at the model's configured percentile, linearly
    /// interpolated between grid allocations and clamped to the grid's
    /// endpoints outside it.
    ///
    /// This is the control loop's per-tick query: it reads the
    /// precomputed percentile table (one value per grid cell, empty-cell
    /// fallback already folded in) instead of re-running the percentile
    /// computation over raw samples. Answers are bit-identical to
    /// [`CpaModel::remaining_percentile`] at the configured percentile.
    pub fn remaining(&self, progress: f64, allocation: u32) -> f64 {
        let mut out = [0.0];
        self.remaining_curve(progress, allocation, &mut out);
        out[0]
    }

    /// [`CpaModel::remaining`] at allocations `first, first + 1, …`,
    /// written to `out` in order: one progress-bin lookup and one grid
    /// search for `first`, then a grid cursor that only moves forward.
    pub fn remaining_curve(&self, progress: f64, first: u32, out: &mut [f64]) {
        self.remaining_curve_in_bin(self.bin_of(progress), first, out);
    }

    /// [`CpaModel::remaining_curve`] at every progress that
    /// [`CpaModel::bin_of`] maps to `bin`: the curve depends on progress
    /// only through its bin.
    pub(crate) fn remaining_curve_in_bin(&self, bin: usize, first: u32, out: &mut [f64]) {
        let at = |ai: usize| self.table[ai * self.bins + bin];
        let grid = &self.allocations;
        let last = grid.len() - 1;
        // `hi` is the first grid index with `grid[hi] >= allocation`.
        let mut hi = grid.partition_point(|&g| g < first);
        for (allocation, v) in (first..).zip(out.iter_mut()) {
            *v = if allocation <= grid[0] {
                at(0)
            } else if allocation >= grid[last] {
                at(last)
            } else {
                while grid[hi] < allocation {
                    hi += 1;
                }
                // `grid[hi - 1] < allocation <= grid[hi]`: interpolate
                // between the surrounding grid points.
                let (ga, gb) = (grid[hi - 1], grid[hi]);
                let w = f64::from(allocation - ga) / f64::from(gb - ga);
                lerp_grid(at(hi - 1), at(hi), w)
            };
        }
    }

    /// `C(p, a)` at an explicit percentile.
    ///
    /// # Panics
    ///
    /// Panics if `percentile` is outside `[0, 100]`.
    pub fn remaining_percentile(&self, progress: f64, allocation: u32, percentile: f64) -> f64 {
        assert!((0.0..=100.0).contains(&percentile));
        let bin = self.bin_of(progress);
        let grid = &self.allocations;
        if allocation <= grid[0] {
            return self.remaining_at_grid(0, bin, percentile);
        }
        if allocation >= *grid.last().expect("non-empty grid") {
            return self.remaining_at_grid(grid.len() - 1, bin, percentile);
        }
        // Find surrounding grid points.
        let hi = grid.partition_point(|&g| g < allocation);
        let lo = hi - 1;
        let (ga, gb) = (grid[lo], grid[hi]);
        if ga == allocation {
            return self.remaining_at_grid(lo, bin, percentile);
        }
        let va = self.remaining_at_grid(lo, bin, percentile);
        let vb = self.remaining_at_grid(hi, bin, percentile);
        let w = f64::from(allocation - ga) / f64::from(gb - ga);
        lerp_grid(va, vb, w)
    }

    /// Estimated full-job latency at allocation `a` (progress 0) — the
    /// quantity used for a-priori sizing and feasibility checks.
    pub fn fresh_latency(&self, allocation: u32) -> f64 {
        self.remaining(0.0, allocation)
    }

    /// The smallest allocation whose (pessimistic) fresh latency with
    /// multiplier `slack` meets `deadline`, if any does.
    ///
    /// When the fresh-latency grid is monotone (checked once at build
    /// time), this is a binary search over the allocation range —
    /// `fresh_latency` is a piecewise-linear interpolation of the grid
    /// column, so a non-increasing column makes the feasibility
    /// predicate monotone in `a`. Otherwise it falls back to the
    /// exhaustive ascending scan; both paths return identical answers
    /// on monotone tables. Shared with the generic trait default via
    /// [`min_feasible_allocation`].
    pub fn min_allocation_for_deadline(&self, deadline: SimDuration, slack: f64) -> Option<u32> {
        let d = deadline.as_secs_f64();
        let max = *self.allocations.last().expect("non-empty grid");
        min_feasible_allocation(max, self.fresh_monotone, |a| {
            self.fresh_latency(a) * slack <= d
        })
    }

    /// Serializes the trained table to a [`jockey_simrt::table::KvStore`],
    /// so models can be trained once and shipped alongside job profiles.
    ///
    /// Exact cells (the default) serialize precisely as the pre-sketch
    /// format did — one `cell.<alloc>.<bin>` sample list per non-empty
    /// cell — so frozen offline-trained models stay byte-identical.
    /// Bounded sketches additionally emit a top-level `sketch_k`, one
    /// `cell.<alloc>.<bin>.l<i>` list per non-empty upper level, and a
    /// `cell.<alloc>.<bin>.c` compaction-counter list per compacted
    /// cell (one entry per level), which is everything needed to
    /// resume absorbing.
    pub fn to_kv(&self) -> jockey_simrt::table::KvStore {
        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", self.bins as u64);
        kv.set_f64("percentile", self.percentile);
        kv.set_f64_list(
            "allocations",
            &self
                .allocations
                .iter()
                .map(|&a| f64::from(a))
                .collect::<Vec<_>>(),
        );
        if let Some(k) = self.sketch_k {
            kv.set_u64("sketch_k", k as u64);
        }
        for (ai, alloc_cells) in self.cells.iter().enumerate() {
            for (bin, cell) in alloc_cells.iter().enumerate() {
                write_cell(&mut kv, &format!("cell.{ai}.{bin}"), cell);
            }
        }
        kv
    }

    /// Deserializes a table written by [`CpaModel::to_kv`].
    pub fn from_kv(kv: &jockey_simrt::table::KvStore) -> Result<CpaModel, ModelLoadError> {
        let bins = kv
            .get_u64("bins")
            .ok_or(ModelLoadError::MissingKey("bins"))? as usize;
        let percentile = kv
            .get_f64("percentile")
            .ok_or(ModelLoadError::MissingKey("percentile"))?;
        let allocations: Vec<u32> = kv
            .get_f64_list("allocations")
            .ok_or(ModelLoadError::MissingKey("allocations"))?
            .into_iter()
            .map(|a| a as u32)
            .collect();
        if bins == 0 || allocations.is_empty() {
            return Err(ModelLoadError::EmptyModel);
        }
        if !percentile.is_finite() || !(0.0..=100.0).contains(&percentile) {
            return Err(ModelLoadError::BadPercentile(percentile));
        }
        let sketch_k = match kv.get_u64("sketch_k") {
            Some(k) if (k as usize) < MIN_SKETCH_CAPACITY => {
                return Err(ModelLoadError::BadSketchCapacity(k));
            }
            Some(k) => Some(k as usize),
            None => None,
        };
        // Raw per-cell parts (sketch levels, per-level compaction
        // counts), grown level-by-level as keys arrive; a cell with no
        // key allocates nothing.
        type RawCell = (Vec<Vec<f64>>, Vec<u64>);
        let mut raw: Vec<Vec<RawCell>> =
            vec![vec![(Vec::new(), Vec::new()); bins]; allocations.len()];
        fn level_mut(levels: &mut Vec<Vec<f64>>, li: usize) -> &mut Vec<f64> {
            if levels.len() <= li {
                levels.resize(li + 1, Vec::new());
            }
            &mut levels[li]
        }
        for key in kv.keys() {
            if let Some(rest) = key.strip_prefix("cell.") {
                let bad = || ModelLoadError::BadCell(key.to_string());
                let parts: Vec<&str> = rest.split('.').collect();
                if parts.len() != 2 && parts.len() != 3 {
                    return Err(bad());
                }
                let ai: usize = parts[0].parse().map_err(|_| bad())?;
                let bin: usize = parts[1].parse().map_err(|_| bad())?;
                if ai >= allocations.len() || bin >= bins {
                    return Err(bad());
                }
                let values = kv.get_f64_list(key).ok_or_else(bad)?;
                let (levels, comps) = &mut raw[ai][bin];
                match parts.get(2) {
                    None => *level_mut(levels, 0) = values,
                    Some(&"c") => {
                        if values.len() > MAX_SKETCH_LEVELS {
                            return Err(bad());
                        }
                        let mut parsed = Vec::with_capacity(values.len());
                        for c in values {
                            if !(c.is_finite() && c >= 0.0 && c.fract() == 0.0) {
                                return Err(bad());
                            }
                            parsed.push(c as u64);
                        }
                        if let Some(top) = parsed.len().checked_sub(1) {
                            level_mut(levels, top);
                        }
                        *comps = parsed;
                    }
                    Some(level_key) => {
                        let li: usize = level_key
                            .strip_prefix('l')
                            .and_then(|s| s.parse().ok())
                            .filter(|&li| (1..MAX_SKETCH_LEVELS).contains(&li))
                            .ok_or_else(bad)?;
                        *level_mut(levels, li) = values;
                    }
                }
            }
        }
        let mut cells = Vec::with_capacity(allocations.len());
        for (ai, alloc_raw) in raw.into_iter().enumerate() {
            let mut alloc_cells = Vec::with_capacity(bins);
            for (bin, (levels, comps)) in alloc_raw.into_iter().enumerate() {
                let sketch = CellSketch::from_parts(sketch_k, levels, comps)
                    .ok_or_else(|| ModelLoadError::BadCell(format!("cell.{ai}.{bin}")))?;
                alloc_cells.push(sketch);
            }
            cells.push(Arc::new(alloc_cells));
        }
        let mut model = CpaModel {
            allocations,
            bins,
            percentile,
            sketch_k,
            cells,
            table: Vec::new(),
            fresh_monotone: false,
        };
        model.build_table();
        Ok(model)
    }
}

/// Writes one cell under `key` (`cell.<alloc>.<bin>`) as
/// [`CpaModel::to_kv`] serializes it: level 0's items as `key` and each
/// other level `i` as `key.l<i>`, both only when non-empty; and, once
/// any level has compacted, the counters as `key.c`, one entry per
/// level, trailing zeros included. An exact or never-compacted cell
/// therefore writes only its plain sample list.
pub(crate) fn write_cell(kv: &mut jockey_simrt::table::KvStore, key: &str, cell: &CellSketch) {
    if !cell.level(0).is_empty() {
        kv.set_f64_list(key, cell.level(0));
    }
    let levels = 0..cell.num_levels();
    for li in levels.clone().skip(1) {
        if !cell.level(li).is_empty() {
            kv.set_f64_list(&format!("{key}.l{li}"), cell.level(li));
        }
    }
    if levels.clone().any(|li| cell.compactions(li) > 0) {
        let comps: Vec<f64> = levels.map(|li| cell.compactions(li) as f64).collect();
        kv.set_f64_list(&format!("{key}.c"), &comps);
    }
}

/// The grid index nearest to `allocation` (lower index wins ties).
fn nearest_grid_index(grid: &[u32], allocation: u32) -> usize {
    let hi = grid.partition_point(|&g| g < allocation);
    if hi == 0 {
        return 0;
    }
    if hi == grid.len() {
        return grid.len() - 1;
    }
    if allocation - grid[hi - 1] <= grid[hi] - allocation {
        hi - 1
    } else {
        hi
    }
}

/// The remaining-time estimate of one allocation row at `bin`,
/// searching outward from the bin for the nearest non-empty cell (the
/// lower bin first at each distance). It answers explicit-percentile
/// queries, which read one bin; the query table fills whole rows with
/// [`fill_row`], which the tests hold to this scan bit for bit.
fn grid_remaining(cells: &[CellSketch], bin: usize, percentile: f64) -> f64 {
    let bins = cells.len();
    // Search outward: prefer the queried bin, then neighbors.
    for d in 0..bins {
        let candidates = [bin.checked_sub(d), bin.checked_add(d).filter(|&b| b < bins)];
        for b in candidates.into_iter().flatten() {
            if !cells[b].is_empty() {
                return cells[b].quantile(percentile);
            }
        }
    }
    // No samples at this allocation at all: treat it as unusably
    // slow, never as instantaneous.
    f64::INFINITY
}

/// Writes one allocation row's query-table values to `out`: each
/// non-empty cell answers its own `percentile`, each empty cell the
/// nearest non-empty cell's answer with the lower bin winning a tie,
/// and a row with no sample at all `INFINITY` — what [`grid_remaining`]
/// returns at every bin, in `O(bins)` rather than its `O(bins²)`, with
/// each quantile computed once. Only the non-empty cells that `stale`
/// names are recomputed; every other non-empty cell must already hold
/// its own quantile in `out`.
fn fill_row(cells: &[CellSketch], percentile: f64, stale: impl Fn(usize) -> bool, out: &mut [f64]) {
    // The nearest non-empty bin below the one being visited.
    let mut below: Option<usize> = None;
    for (bin, cell) in cells.iter().enumerate() {
        if cell.is_empty() {
            continue;
        }
        if stale(bin) {
            out[bin] = cell.quantile(percentile);
        }
        // The empty bins between `below` and `bin` each copy the nearer
        // end, the lower one on a tie.
        for gap in below.map_or(0, |b| b + 1)..bin {
            let from = match below {
                Some(b) if gap - b <= bin - gap => b,
                _ => bin,
            };
            out[gap] = out[from];
        }
        below = Some(bin);
    }
    match below {
        None => out.fill(f64::INFINITY),
        Some(last) => {
            let v = out[last];
            out[last + 1..].fill(v);
        }
    }
}

/// The absorb path's staging buffers: one run's samples are staged,
/// then merged into the sketches. Reused across runs, so folding a
/// run allocates only when a buffer grows.
#[derive(Default)]
struct FoldScratch {
    /// `(cell, remaining)` pairs of the staged run, sorted by cell then
    /// value.
    staged: Vec<((usize, usize), f64)>,
    /// One cell's batch of values, handed to its sketch.
    batch: Vec<f64>,
}

impl FoldScratch {
    /// Stages one completed (or horizon-censored) run: each
    /// observation contributes `(total_secs − elapsed).max(0)` to the
    /// cell at its nearest grid allocation and progress bin, and a run
    /// that completed at `completed_alloc` adds a zero-remaining sample
    /// at full progress.
    fn stage(
        &mut self,
        grid: &[u32],
        bins: usize,
        obs: &[RunObservation],
        total_secs: f64,
        completed_alloc: Option<u32>,
    ) {
        // Stage every sample as a `(cell, remaining)` pair and sort once
        // by cell then value: each cell's batch comes out contiguous and
        // ascending, and cells are visited in the same ascending
        // `(allocation, bin)` order a keyed map would yield — so the
        // sketches absorb byte-identical batches, without a map node and
        // a vector allocation per touched cell.
        self.staged.clear();
        self.staged.extend(obs.iter().map(|o| {
            let ai = nearest_grid_index(grid, o.allocation);
            let bin = progress_bin(o.progress, bins);
            ((ai, bin), (total_secs - o.elapsed_secs).max(0.0))
        }));
        if let Some(a) = completed_alloc {
            self.staged
                .push(((nearest_grid_index(grid, a), bins - 1), 0.0));
        }
        // Two pairs compare equal only when their values have the same
        // bits (`total_cmp`), so the unstable sort's output is the
        // stable sort's, without its buffer.
        self.staged
            .sort_unstable_by(|x, y| x.0.cmp(&y.0).then(x.1.total_cmp(&y.1)));
    }

    /// Merges the staged run into `rows`, which hold grid rows
    /// `first_row..`, marks each touched `(allocation, bin)` cell in
    /// `touched` (row-major over the whole grid), and returns the
    /// number of samples merged. Cells of one row are contiguous, so
    /// each touched row is made unique (copied if a snapshot shares it)
    /// once, not once per cell.
    fn merge(
        &mut self,
        rows: &mut [Arc<Vec<CellSketch>>],
        first_row: usize,
        mut touched: Option<&mut [bool]>,
    ) -> usize {
        let staged = &self.staged;
        let mut row: Option<(usize, &mut Vec<CellSketch>)> = None;
        let mut i = 0;
        while i < staged.len() {
            let key = staged[i].0;
            let end = staged[i..]
                .iter()
                .position(|e| e.0 != key)
                .map_or(staged.len(), |p| i + p);
            self.batch.clear();
            self.batch.extend(staged[i..end].iter().map(|e| e.1));
            if row.as_ref().is_none_or(|&(ai, _)| ai != key.0) {
                row = Some((key.0, Arc::make_mut(&mut rows[key.0 - first_row])));
            }
            let (_, cells) = row.as_mut().expect("row set above");
            if let Some(t) = touched.as_deref_mut() {
                t[key.0 * cells.len() + key.1] = true;
            }
            cells[key.1].extend_sorted(&self.batch);
            i = end;
        }
        staged.len()
    }
}

/// Why a serialized `C(p, a)` table failed to load
/// ([`CpaModel::from_kv`]).
#[derive(Clone, Debug, PartialEq)]
pub enum ModelLoadError {
    /// A required key is missing or has the wrong type.
    MissingKey(&'static str),
    /// `bins` is zero or the allocation grid is empty.
    EmptyModel,
    /// The stored `percentile` is not a finite value in `[0, 100]`.
    BadPercentile(f64),
    /// A `cell.<alloc>.<bin>[...]` key is malformed, out of range, not
    /// a float list, or inconsistent with the cell's other parts.
    BadCell(String),
    /// The stored `sketch_k` is below the supported minimum.
    BadSketchCapacity(u64),
}

impl fmt::Display for ModelLoadError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ModelLoadError::MissingKey(k) => write!(f, "missing or mistyped key `{k}`"),
            ModelLoadError::EmptyModel => write!(f, "model has no bins or no allocations"),
            ModelLoadError::BadPercentile(v) => {
                write!(f, "percentile must be a finite value in [0, 100], got {v}")
            }
            ModelLoadError::BadCell(k) => write!(f, "malformed cell key `{k}`"),
            ModelLoadError::BadSketchCapacity(v) => {
                write!(f, "sketch_k must be >= {MIN_SKETCH_CAPACITY}, got {v}")
            }
        }
    }
}

impl std::error::Error for ModelLoadError {}

impl CompletionModel for CpaModel {
    fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
        self.remaining(progress, allocation)
    }

    fn remaining_curve(&self, _fs: &[f64], progress: f64, first: u32, out: &mut [f64]) {
        CpaModel::remaining_curve(self, progress, first, out);
    }

    fn max_allocation(&self) -> u32 {
        *self.allocations.last().expect("non-empty grid")
    }

    fn size_for_deadline(&self, _fs: &[f64], deadline: SimDuration, slack: f64) -> Option<u32> {
        self.min_allocation_for_deadline(deadline, slack)
    }
}

/// Simulates one training run at `allocation` and returns its
/// harvest. The hot path is allocation-lean: the shared spec is never
/// deep-cloned, per-job state vectors are rented from `ws`,
/// trace/profile recording is off, and snapshots flow through a
/// borrowed [`SampleCollector`] into the harvest's sample buffer.
fn train_one_run(
    spec: &Arc<JobSpec>,
    indicator: &IndicatorContext,
    allocation: u32,
    cfg: &TrainConfig,
    seed: u64,
    ws: &mut SimWorkspace,
) -> RunHarvest {
    let mut samples: Vec<(f64, f64)> = Vec::new();
    let mut sim_cfg = ClusterConfig::dedicated_with_failures(allocation);
    sim_cfg.control_period = cfg.sample_period;
    sim_cfg.max_sim_time = cfg.max_sim_time;
    sim_cfg.topology = cfg.topology.clone();
    if let Some(sp) = &cfg.speculation {
        // The clone budget rides on top of the allocation: training at
        // `a` under speculation level `s` simulates exactly the
        // `a + clone_budget(s)` token footprint the 2D controller
        // reserves, with the extra tokens idle unless a straggler draws
        // a clone onto them.
        sim_cfg.total_tokens = allocation + sp.clone_budget;
        sim_cfg.max_guarantee = allocation;
        sim_cfg.speculation = Some(sp.clone());
    }
    let mut sim = ClusterSim::with_workspace(sim_cfg, seed, ws);
    sim.set_record_trace(false);
    sim.set_record_profile(false);
    sim.add_job_shared(spec.clone(), Box::new(FixedAllocation(allocation)));
    let result = {
        let mut collector = SampleCollector {
            indicator,
            samples: &mut samples,
        };
        sim.run_single_hooked(RunHooks {
            sink: Some(&mut collector),
            reclaim: Some(ws),
        })
    };
    // A run that hit the simulation horizon is censored: its true
    // completion is *at least* the horizon. Using the horizon as the
    // completion time keeps the samples finite, so starved allocations
    // read as "very slow" rather than leaving empty cells that would be
    // misread as "instant". But each such sample is only a *lower*
    // bound on the true remaining time, not a pessimistic estimate;
    // ROADMAP item 1 tracks the C(p, a) errors this causes.
    let completed = result.duration().is_some();
    let total_secs = match result.duration() {
        Some(d) => d.as_secs_f64(),
        None => cfg.max_sim_time.as_secs_f64(),
    };
    RunHarvest {
        samples,
        total_secs,
        completed,
    }
}

/// Runs the job once on an effectively unconstrained cluster and
/// returns the relative stage windows — the `minstage-inf` indicator's
/// inputs ("a simulation of the job with no constraint on resources",
/// §5.4).
pub fn unconstrained_rel_windows(
    graph: &Arc<JobGraph>,
    profile: &JobProfile,
    seed: u64,
) -> Vec<(f64, f64)> {
    let tokens = u32::try_from(graph.total_tasks())
        .unwrap_or(u32::MAX)
        .max(1);
    let spec = JobSpec::from_profile(graph.clone(), profile);
    let mut sim = ClusterSim::new(ClusterConfig::dedicated(tokens), seed);
    sim.add_job(spec, Box::new(FixedAllocation(tokens)));
    let result = sim.run_single();
    result
        .profile
        .stages
        .iter()
        .map(|s| (s.rel_start, s.rel_end))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::progress::ProgressIndicator;
    use jockey_cluster::FixedAllocation;
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;

    /// map(12 x 10 s) --barrier--> reduce(2 x 20 s), deterministic.
    fn fixture() -> (Arc<JobGraph>, JobProfile) {
        let mut b = JobGraphBuilder::new("train-me");
        let m = b.stage("map", 12);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        // Produce a profile by actually running the job once.
        let spec = JobSpec::uniform(graph.clone(), Constant(10.0), Constant(0.5), 0.0);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(6), 3);
        sim.add_job(spec, Box::new(FixedAllocation(6)));
        let profile = sim.run_single().profile;
        (graph, profile)
    }

    fn model(graph: &Arc<JobGraph>, profile: &JobProfile) -> (CpaModel, IndicatorContext) {
        let ind = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, graph, profile, None);
        let cfg = TrainConfig::fast(vec![2, 4, 8]);
        let m = CpaModel::train(graph, profile, &ind, &cfg, 42);
        (m, ind)
    }

    #[test]
    fn trained_model_has_samples_and_monotone_allocations() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        assert!(m.sample_count() > 20);
        let at = |a| m.fresh_latency(a);
        assert!(at(2) > at(4), "2 tokens {} vs 4 tokens {}", at(2), at(4));
        assert!(at(4) > at(8), "4 tokens {} vs 8 tokens {}", at(4), at(8));
    }

    #[test]
    fn fresh_latency_approximates_true_runtime() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        // True latency at 4 tokens: 3 map waves (30s+q) + 1 reduce wave
        // (20s+q) ≈ 52 s. The p90 estimate should be within ~25%.
        let est = m.fresh_latency(4);
        assert!((40.0..70.0).contains(&est), "estimate {est}");
    }

    #[test]
    fn remaining_decreases_with_progress() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let early = m.remaining(0.05, 4);
        let late = m.remaining(0.9, 4);
        assert!(late < early, "late {late} vs early {early}");
        // At completion the remaining time is ~0.
        assert!(m.remaining(1.0, 4) < 16.0);
    }

    #[test]
    fn interpolation_between_grid_points() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let v2 = m.fresh_latency(2);
        let v3 = m.fresh_latency(3);
        let v4 = m.fresh_latency(4);
        assert!((v3 - (v2 + v4) / 2.0).abs() < 1e-9, "{v2} {v3} {v4}");
        // Outside the grid: clamped.
        assert_eq!(m.fresh_latency(1), v2);
        assert_eq!(m.fresh_latency(100), m.fresh_latency(8));
    }

    #[test]
    fn min_allocation_binary_search_matches_exhaustive_scan() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        assert!(m.fresh_monotone, "trained fixture should be monotone");
        let max = *m.allocations.last().unwrap();
        // Sweep deadlines from far-infeasible to trivially-feasible,
        // including exact grid latencies, for several slacks.
        let mut deadlines: Vec<f64> = (0..200).map(|i| 0.5 + 1.1 * f64::from(i)).collect();
        deadlines.extend((1..=max).map(|a| m.fresh_latency(a)));
        for slack in [0.8, 1.0, 1.2, 2.0] {
            for &d in &deadlines {
                let deadline = SimDuration::from_secs_f64(d);
                let fast = m.min_allocation_for_deadline(deadline, slack);
                // Reference: the pre-optimization exhaustive ascending
                // scan, over the same tick-quantized deadline.
                let dq = deadline.as_secs_f64();
                let slow = (1..=max).find(|&a| m.fresh_latency(a) * slack <= dq);
                assert_eq!(fast, slow, "deadline {d}s slack {slack}");
            }
        }
    }

    #[test]
    fn non_monotone_tables_fall_back_to_the_scan() {
        let (graph, profile) = fixture();
        let (mut m, _) = model(&graph, &profile);
        // Corrupt the fresh column so latency *rises* with allocation.
        let bin0 = m.bin_of(0.0);
        m.table[m.bins + bin0] = m.table[bin0] + 100.0;
        m.check_fresh_monotone();
        assert!(!m.fresh_monotone);
        let max = *m.allocations.last().unwrap();
        for d in [10.0, 50.0, 120.0, 500.0] {
            let deadline = SimDuration::from_secs_f64(d);
            let fast = m.min_allocation_for_deadline(deadline, 1.0);
            let slow = (1..=max).find(|&a| m.fresh_latency(a) <= d);
            assert_eq!(fast, slow, "deadline {d}s");
        }
    }

    #[test]
    fn min_allocation_for_deadline_is_minimal() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let d = SimDuration::from_secs(80);
        let a = m.min_allocation_for_deadline(d, 1.0).unwrap();
        assert!(m.fresh_latency(a) <= 80.0);
        if a > 1 {
            assert!(m.fresh_latency(a - 1) > 80.0);
        }
        // Impossible deadline -> None.
        assert_eq!(
            m.min_allocation_for_deadline(SimDuration::from_secs(1), 1.0),
            None
        );
    }

    #[test]
    fn percentile_queries_are_ordered() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let p50 = m.remaining_percentile(0.0, 4, 50.0);
        let p95 = m.remaining_percentile(0.0, 4, 95.0);
        assert!(p95 >= p50);
    }

    #[test]
    fn training_is_deterministic() {
        let (graph, profile) = fixture();
        let ind = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let cfg = TrainConfig::fast(vec![2, 4]);
        let a = CpaModel::train(&graph, &profile, &ind, &cfg, 7);
        let b = CpaModel::train(&graph, &profile, &ind, &cfg, 7);
        assert_eq!(a.sample_count(), b.sample_count());
        assert_eq!(a.fresh_latency(3), b.fresh_latency(3));
    }

    /// The trained cells and query table must be bit-identical whatever
    /// the worker count — seeding is positional, never
    /// scheduling-dependent — on the flat, topology and speculation
    /// training paths. The counts cover the inline path (1), uneven
    /// splits of the 12 grid cells (2, 3, 5), more workers than cells
    /// (13) and the machine default.
    #[test]
    fn train_is_thread_count_independent() {
        // Random runtimes, so every cell's draws depend on its seed.
        let (graph, profile) = straggler_fixture();
        let base = TrainConfig::fast(vec![2, 4, 8]);
        assert_eq!(base.allocations.len() * base.runs_per_allocation, 12);
        let mut topology = base.clone();
        topology.topology = Some(jockey_cluster::TopologyConfig::uniform(2, 4));
        let mut speculation = base.clone();
        speculation.speculation = Some(jockey_cluster::SpeculationConfig::clone_on_slow(1.5, 2));
        let ind = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        for (name, cfg) in [
            ("flat", base),
            ("topology", topology),
            ("speculation", speculation),
        ] {
            let with_threads = |threads: Option<usize>| {
                let mut cfg = cfg.clone();
                cfg.threads = threads;
                CpaModel::train(&graph, &profile, &ind, &cfg, 7)
            };
            let one = with_threads(Some(1));
            assert!(one.sample_count() > 0, "{name}: trained model is empty");
            for threads in [Some(2), Some(3), Some(5), Some(13), None] {
                let other = with_threads(threads);
                assert_eq!(
                    one.cells, other.cells,
                    "{name}: cells, 1 vs {threads:?} threads"
                );
                let bits = |m: &CpaModel| m.table.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(
                    bits(&one),
                    bits(&other),
                    "{name}: table, 1 vs {threads:?} threads"
                );
                assert_eq!(
                    one.fresh_monotone, other.fresh_monotone,
                    "{name}: monotone flag"
                );
            }
        }
    }

    /// A profile with a genuine straggler tail: most map attempts take
    /// 10 s, a quarter take 240 s, so the empirical runtime dist has
    /// mean 67.5 s and attempts drawing the tail cross any threshold
    /// above ~1.5x well before they finish.
    fn straggler_fixture() -> (Arc<JobGraph>, JobProfile) {
        let mut b = JobGraphBuilder::new("train-straggle");
        b.stage("map", 12);
        let graph = Arc::new(b.build().unwrap());
        let mut pb = jockey_jobgraph::profile::ProfileBuilder::new(&graph);
        for i in 0..12 {
            let rt = if i % 4 == 0 { 240.0 } else { 10.0 };
            pb.record_task(jockey_jobgraph::StageId(0), 0.0, rt, false);
        }
        let profile = pb.finish(300.0, 4.0);
        (graph, profile)
    }

    /// Training with a speculation config simulates a different engine
    /// (idle clone headroom, clone-on-slow watcher) — on a job with a
    /// straggler tail the trained C(p, a, s) surface must differ from
    /// the legacy C(p, a) surface while staying a valid monotone model.
    #[test]
    fn speculation_training_produces_a_distinct_surface() {
        let (graph, profile) = straggler_fixture();
        let ind = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let cfg = TrainConfig::fast(vec![2, 4, 8]);
        let mut sp_cfg = cfg.clone();
        sp_cfg.speculation = Some(jockey_cluster::SpeculationConfig::clone_on_slow(1.5, 2));
        let plain = CpaModel::train(&graph, &profile, &ind, &cfg, 42);
        let spec = CpaModel::train(&graph, &profile, &ind, &sp_cfg, 42);
        assert!(spec.sample_count() > 0);
        // The surfaces come from different simulations (clone launches
        // rewrite straggler completions), so at least one grid latency
        // must differ.
        assert!(
            (2..=8).any(|a| spec.fresh_latency(a) != plain.fresh_latency(a)),
            "speculation-trained surface is identical to the plain one"
        );
        assert!(spec.fresh_latency(2) >= spec.fresh_latency(8));
    }

    #[test]
    fn unconstrained_windows_cover_unit_interval() {
        let (graph, profile) = fixture();
        let rel = unconstrained_rel_windows(&graph, &profile, 5);
        assert_eq!(rel.len(), 2);
        // Map starts at 0; reduce ends at the job end.
        assert_eq!(rel[0].0, 0.0);
        assert!(rel[1].1 > 0.9);
        // Reduce starts after map in an unconstrained run too (barrier).
        assert!(rel[1].0 >= rel[0].1 - 0.3);
    }

    /// Satellite: `remaining()` answers from the precomputed table must
    /// be bit-identical to the raw `percentile_sorted` scan path
    /// (exposed via `remaining_percentile` at the configured percentile)
    /// across the whole trained grid — on-grid, between grid points, and
    /// clamped outside it, at every progress bin.
    #[test]
    fn table_queries_match_percentile_scan_bit_for_bit() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let max = *m.allocations().last().unwrap();
        for bin in 0..m.bins {
            // Probe a progress value inside each bin.
            let p = (bin as f64 + 0.5) / m.bins as f64;
            for a in 1..=(max + 4) {
                let fast = m.remaining(p, a);
                let slow = m.remaining_percentile(p, a, m.percentile());
                assert_eq!(
                    fast.to_bits(),
                    slow.to_bits(),
                    "p={p} a={a}: table {fast} vs scan {slow}"
                );
            }
        }
    }

    /// Satellite: the precomputed table folds in the outward empty-cell
    /// fallback scan exactly — sparse models answer from the nearest
    /// non-empty bin, and allocations with no samples at all read as
    /// `INFINITY`, matching `remaining_at_grid`.
    #[test]
    fn table_matches_scan_on_sparse_and_empty_cells() {
        // Hand-build a sparse model through the kv path: allocation 0
        // has samples only in bins 2 and 7; allocation 1 has none.
        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 10);
        kv.set_f64("percentile", 90.0);
        kv.set_f64_list("allocations", &[2.0, 8.0]);
        kv.set_f64_list("cell.0.2", &[5.0, 7.0, 11.0]);
        kv.set_f64_list("cell.0.7", &[1.0, 2.0]);
        let m = CpaModel::from_kv(&kv).expect("loads");
        for bin in 0..10 {
            let p = (bin as f64 + 0.5) / 10.0;
            // Allocation on-grid at 2: nearest non-empty cell answers.
            let fast = m.remaining(p, 2);
            let slow = m.remaining_at_grid(0, bin, 90.0);
            assert_eq!(fast.to_bits(), slow.to_bits(), "bin {bin}");
            assert!(fast.is_finite());
            // Allocation 8 has no samples anywhere: INFINITY, exactly as
            // the scan reports it.
            assert_eq!(m.remaining(p, 8), f64::INFINITY);
            assert_eq!(m.remaining_at_grid(1, bin, 90.0), f64::INFINITY);
            // Interpolating toward an empty allocation stays INFINITY
            // on both paths (finite + w * (inf - finite)).
            assert_eq!(
                m.remaining(p, 5).to_bits(),
                m.remaining_percentile(p, 5, 90.0).to_bits()
            );
        }
        // The queried bin itself wins when non-empty; ties between
        // equidistant neighbors prefer the lower bin — both inherited
        // from the scan, bit-for-bit.
        assert_eq!(
            m.remaining(0.25, 2),
            jockey_simrt::stats::percentile_sorted(&[5.0, 7.0, 11.0], 90.0)
        );
        assert_eq!(
            m.remaining(0.45, 2), // bin 4: closest non-empty are 2 and 7 -> bin 2 wins at d=2.
            jockey_simrt::stats::percentile_sorted(&[5.0, 7.0, 11.0], 90.0)
        );
    }

    #[test]
    fn model_implements_completion_model() {
        let (graph, profile) = fixture();
        let (m, _) = model(&graph, &profile);
        let cm: &dyn CompletionModel = &m;
        assert_eq!(cm.max_allocation(), 8);
        assert!(cm.remaining_secs(&[], 0.0, 4) > 0.0);
    }
}

#[cfg(test)]
mod absorb_tests {
    use super::*;
    use jockey_simrt::rng::SeedDeriver;
    use rand::Rng;

    fn cfg(sketch_capacity: Option<usize>) -> TrainConfig {
        TrainConfig {
            progress_bins: 20,
            sketch_capacity,
            ..TrainConfig::fast(vec![2, 4, 8, 16])
        }
    }

    /// A deterministic synthetic run: samples every `period` seconds at
    /// linearly growing progress, completing at `total`.
    fn synth_run(seed: u64, allocation: u32) -> (Vec<RunObservation>, f64) {
        let mut rng = SeedDeriver::new(seed).rng("synth-run");
        let total: f64 = rng.gen_range(200.0..2000.0) / f64::from(allocation);
        let ticks = rng.gen_range(5..40);
        let obs = (0..ticks)
            .map(|i| {
                let frac = f64::from(i) / f64::from(ticks);
                RunObservation {
                    elapsed_secs: frac * total,
                    progress: (frac + rng.gen_range(-0.05..0.05)).clamp(0.0, 1.0),
                    allocation,
                }
            })
            .collect();
        (obs, total)
    }

    fn runs(seed: u64, n: u64, grid: &[u32]) -> Vec<(Vec<RunObservation>, f64)> {
        (0..n)
            .map(|i| synth_run(seed ^ (i * 977), grid[(i % grid.len() as u64) as usize]))
            .collect()
    }

    /// Satellite: absorbing the same trace set under any batch split or
    /// order yields the *identical* exact model — the per-cell sample
    /// multiset is order-free, and exact sketches are its unique sorted
    /// rendering. Checked on serialized bytes, the strongest equality.
    #[test]
    fn absorb_order_and_batch_split_do_not_change_exact_models() {
        let c = cfg(None);
        let all = runs(31, 24, &c.allocations);

        let mut one_by_one = CpaModel::empty(&c);
        for (obs, total) in &all {
            one_by_one.absorb_observations(obs, *total, true);
        }

        let mut reversed = CpaModel::empty(&c);
        for (obs, total) in all.iter().rev() {
            reversed.absorb_observations(obs, *total, true);
        }

        // One giant batch: all runs' observations fused, completion
        // markers replayed separately to keep per-run semantics.
        let mut fused = CpaModel::empty(&c);
        for (obs, total) in &all {
            let (head, tail) = obs.split_at(obs.len() / 2);
            fused.absorb_observations(head, *total, false);
            fused.absorb_observations(tail, *total, true);
        }

        let bytes = one_by_one.to_kv().to_text();
        assert_eq!(reversed.to_kv().to_text(), bytes, "reversed order");
        assert_eq!(fused.to_kv().to_text(), bytes, "split batches");
        assert_eq!(one_by_one.rank_error_bound(), 0);
    }

    /// Satellite: a bounded-sketch model absorbed in arbitrary batch
    /// splits answers every cell quantile within the documented rank
    /// error of the exact (one-shot) model built from the same samples.
    #[test]
    fn bounded_absorb_stays_within_documented_error_of_one_shot() {
        let exact_cfg = cfg(None);
        let bounded_cfg = cfg(Some(16));
        let all = runs(77, 48, &exact_cfg.allocations);

        let mut exact = CpaModel::empty(&exact_cfg);
        let mut bounded = CpaModel::empty(&bounded_cfg);
        for (i, (obs, total)) in all.iter().enumerate() {
            exact.absorb_observations(obs, *total, true);
            // Vary the split point per run to exercise merge orders.
            let split = (i * 7) % obs.len().max(1);
            let (head, tail) = obs.split_at(split);
            bounded.absorb_observations(head, *total, false);
            bounded.absorb_observations(tail, *total, true);
        }
        assert_eq!(bounded.sample_count(), exact.sample_count());

        let mut checked = 0;
        for ai in 0..exact.allocations.len() {
            for bin in 0..exact.bins {
                let cell = &exact.cells[ai][bin];
                if cell.is_empty() {
                    assert!(bounded.cells[ai][bin].is_empty());
                    continue;
                }
                let sorted = cell.level(0);
                let sk = &bounded.cells[ai][bin];
                // Documented bound: rank error <= sum of compaction
                // errors, plus one top-level item weight for the
                // interpolation straddle.
                let slop = (sk.rank_error_bound() + (1 << (sk.num_levels() - 1))) as f64;
                for q in [10.0, 50.0, 90.0, 95.0] {
                    let v = sk.quantile(q);
                    let rank = q / 100.0 * (sorted.len() as f64 - 1.0);
                    let lo = ((rank - slop).floor().max(0.0)) as usize;
                    let hi = ((rank + slop).ceil() as usize).min(sorted.len() - 1);
                    assert!(
                        sorted[lo] <= v && v <= sorted[hi],
                        "cell ({ai},{bin}) q={q}: {v} outside [{}, {}]",
                        sorted[lo],
                        sorted[hi]
                    );
                    checked += 1;
                }
            }
        }
        assert!(checked > 100, "too few non-empty cells ({checked} checks)");
    }

    /// Absorb only touches the dirty allocation's table row; the other
    /// rows keep their exact bytes, and untouched allocations stay
    /// INFINITY (vacant).
    #[test]
    fn absorb_rebuilds_only_dirty_rows() {
        let c = cfg(None);
        let mut m = CpaModel::empty(&c);
        assert_eq!(m.fresh_latency(4), f64::INFINITY);

        let (obs, total) = synth_run(5, 4);
        let added = m.absorb_observations(&obs, total, true);
        assert_eq!(added, obs.len() + 1);
        assert!(m.fresh_latency(4).is_finite());
        // Rows of other allocations were never touched.
        assert_eq!(m.remaining(0.5, 2), f64::INFINITY);
        assert_eq!(m.remaining(0.5, 16), f64::INFINITY);
        assert_eq!(m.sample_count(), added);
    }

    /// Off-grid allocations snap to the nearest grid point (lower wins
    /// ties), so online traces from interpolated guarantees land in
    /// real cells.
    #[test]
    fn absorb_snaps_allocations_to_nearest_grid_point() {
        let c = cfg(None);
        let mut m = CpaModel::empty(&c);
        assert_eq!(nearest_grid_index(m.allocations(), 1), 0); // below the grid
        assert_eq!(nearest_grid_index(m.allocations(), 3), 0); // tie 2 vs 4 -> lower
        assert_eq!(nearest_grid_index(m.allocations(), 5), 1); // nearest 4
        assert_eq!(nearest_grid_index(m.allocations(), 7), 2); // nearest 8
        assert_eq!(nearest_grid_index(m.allocations(), 40), 3); // above the grid

        let obs = [RunObservation {
            elapsed_secs: 0.0,
            progress: 0.0,
            allocation: 5,
        }];
        m.absorb_observations(&obs, 100.0, false);
        assert!(m.fresh_latency(4).is_finite(), "sample landed at grid 4");
        assert_eq!(m.fresh_latency(2), f64::INFINITY);
    }

    /// Bounded sketches cap the stored footprint while the represented
    /// sample count keeps growing.
    #[test]
    fn bounded_model_footprint_stays_sublinear() {
        let c = cfg(Some(16));
        let mut m = CpaModel::empty(&c);
        for i in 0..200 {
            let (obs, total) = synth_run(1000 + i, 4);
            m.absorb_observations(&obs, total, true);
        }
        assert!(m.sample_count() > 2000, "samples {}", m.sample_count());
        assert!(
            m.stored_item_count() < m.sample_count() / 2,
            "stored {} vs represented {}",
            m.stored_item_count(),
            m.sample_count()
        );
        assert!(m.rank_error_bound() > 0);
    }

    /// Bounded models round-trip through kv: levels, compaction
    /// counters, and capacity all survive, and queries are preserved
    /// bit-for-bit (serialization is lossless on the sketch state).
    #[test]
    fn bounded_model_round_trips_through_kv() {
        let c = cfg(Some(16));
        let mut m = CpaModel::empty(&c);
        for i in 0..60 {
            let (obs, total) = synth_run(9000 + i, c.allocations[(i % 4) as usize]);
            m.absorb_observations(&obs, total, true);
        }
        assert!(m.rank_error_bound() > 0, "want a compacted model");

        let text = m.to_kv().to_text();
        let kv = jockey_simrt::table::KvStore::from_text(&text).expect("parses");
        let round = CpaModel::from_kv(&kv).expect("loads");
        assert_eq!(round.sketch_capacity(), Some(16));
        assert_eq!(round.sample_count(), m.sample_count());
        assert_eq!(round.rank_error_bound(), m.rank_error_bound());
        assert_eq!(round.cells, m.cells);
        assert_eq!(round.to_kv().to_text(), text, "fixed point");

        // And absorbing *after* the round-trip behaves identically.
        let (obs, total) = synth_run(424_242, 8);
        let mut a = m.clone();
        let mut b = round;
        a.absorb_observations(&obs, total, true);
        b.absorb_observations(&obs, total, true);
        assert_eq!(a.cells, b.cells);
    }

    /// The `O(bins)` row fill answers what the outward scan answers at
    /// every bin, bit for bit: on random rows with anywhere from no to
    /// every cell filled, in exact and bounded mode, including empty
    /// bins equidistant from two filled ones (the lower must win). With
    /// `stale` naming only some filled cells, the others keep the value
    /// already in the row, so a row whose filled cells hold their own
    /// quantiles and whose empty cells hold garbage fills the same.
    #[test]
    fn row_fill_matches_the_outward_scan() {
        let mut rng = SeedDeriver::new(31).rng("row-fill");
        let (mut ties, mut vacant, mut full) = (0, 0, 0);
        for trial in 0..600 {
            let bins = rng.gen_range(1..=24);
            let k = (trial % 2 == 1).then_some(8);
            let filled_pct = rng.gen_range(0..=100);
            let cells: Vec<CellSketch> = (0..bins)
                .map(|_| {
                    let mut cell = CellSketch::new(k);
                    if rng.gen_range(0..100) < filled_pct {
                        for _ in 0..rng.gen_range(1..40) {
                            cell.push(rng.gen_range(0.0..1_000.0));
                        }
                    }
                    cell
                })
                .collect();
            let filled: Vec<usize> = (0..bins).filter(|&b| !cells[b].is_empty()).collect();
            vacant += usize::from(filled.is_empty());
            full += usize::from(filled.len() == bins);
            ties += (0..bins)
                .filter(|&b| {
                    let below = filled.iter().rev().find(|&&f| f < b);
                    let above = filled.iter().find(|&&f| f > b);
                    cells[b].is_empty()
                        && matches!((below, above), (Some(&l), Some(&h)) if b - l == h - b)
                })
                .count();
            let scan: Vec<u64> = (0..bins)
                .map(|b| grid_remaining(&cells, b, 95.0).to_bits())
                .collect();
            let bits = |row: &[f64]| row.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            let mut row = vec![f64::NAN; bins];
            fill_row(&cells, 95.0, |_| true, &mut row);
            assert_eq!(bits(&row), scan, "trial {trial}");
            // Refill with only some filled cells stale: the others keep
            // their quantiles, every empty cell starts as garbage.
            let stale: Vec<bool> = (0..bins).map(|_| rng.gen_bool(0.3)).collect();
            for (b, v) in row.iter_mut().enumerate() {
                if cells[b].is_empty() || stale[b] {
                    *v = -1.0;
                }
            }
            fill_row(&cells, 95.0, |b| stale[b], &mut row);
            assert_eq!(bits(&row), scan, "trial {trial}, partial refill");
        }
        assert!(
            ties > 20 && vacant > 5 && full > 5,
            "{ties} ties, {vacant} vacant rows, {full} full rows"
        );
    }

    /// An empty model and a vacant copy hold no heap buffer in any
    /// cell: every row is the same run of allocation-free sketches.
    #[test]
    fn empty_and_vacant_cells_own_no_buffer() {
        for k in [None, Some(64)] {
            let c = cfg(k);
            let mut m = CpaModel::empty(&c);
            let no_buffers = |m: &CpaModel| {
                m.cells
                    .iter()
                    .flat_map(|row| row.iter())
                    .all(|c| c.heap_buffers() == 0)
            };
            assert!(no_buffers(&m), "empty, k={k:?}");
            for i in 0..20 {
                let (obs, total) = synth_run(600 + i, c.allocations[(i % 4) as usize]);
                m.absorb_observations(&obs, total, true);
            }
            assert!(!no_buffers(&m));
            assert!(no_buffers(&m.vacant_copy()), "vacant copy, k={k:?}");
        }
    }

    #[test]
    fn vacant_copy_preserves_shape_and_drops_samples() {
        let c = cfg(Some(32));
        let mut m = CpaModel::empty(&c);
        let (obs, total) = synth_run(3, 8);
        m.absorb_observations(&obs, total, true);
        let v = m.vacant_copy();
        assert_eq!(v.allocations(), m.allocations());
        assert_eq!(v.sketch_capacity(), m.sketch_capacity());
        assert_eq!(v.sample_count(), 0);
        assert_eq!(v.fresh_latency(8), f64::INFINITY);
    }

    /// Property: a curve from any start equals the single query and the
    /// percentile scan at the configured percentile, bit for bit — on
    /// the default 13-point grid, a dense grid and a one-point grid;
    /// with some allocation rows vacant (their `INFINITY`, and the NaN
    /// `lerp_grid` repairs between a vacant and a learned row); at
    /// progress outside `[0, 1]`; from every start `0..=max + 3`.
    #[test]
    fn remaining_curve_matches_single_queries_bit_for_bit() {
        let grids: [Vec<u32>; 3] = [
            TrainConfig::default().allocations,
            (1..=40).collect(),
            vec![7],
        ];
        let mut rng = SeedDeriver::new(5).rng("curve-grids");
        let (mut finite, mut infinite) = (0_usize, 0_usize);
        for (gi, grid) in grids.iter().enumerate() {
            for trial in 0..6_u64 {
                let c = TrainConfig {
                    progress_bins: 10,
                    sketch_capacity: (trial % 2 == 1).then_some(8),
                    ..TrainConfig::fast(grid.clone())
                };
                let mut m = CpaModel::empty(&c);
                // Trial 0 stays wholly vacant; the others learn a
                // random subset of rows.
                for (i, &a) in grid.iter().enumerate() {
                    if trial > 0 && rng.gen_bool(0.5) {
                        let (obs, total) = synth_run(1_000 * gi as u64 + 40 * trial + i as u64, a);
                        m.absorb_observations(&obs, total, true);
                    }
                }
                let max = *grid.last().expect("non-empty grid");
                for step in 0..=24 {
                    let progress = -0.1 + 1.2 * f64::from(step) / 24.0;
                    for first in 0..=max + 3 {
                        let mut out = vec![0.0; (max + 4 - first) as usize];
                        m.remaining_curve(progress, first, &mut out);
                        for (a, v) in (first..).zip(&out) {
                            let one = m.remaining(progress, a);
                            let scan = m.remaining_percentile(progress, a, m.percentile());
                            assert_eq!(
                                (v.to_bits(), v.to_bits()),
                                (one.to_bits(), scan.to_bits()),
                                "grid {gi} trial {trial} p={progress} first={first} a={a}"
                            );
                            if v.is_finite() {
                                finite += 1;
                            } else {
                                infinite += 1;
                            }
                        }
                    }
                }
            }
        }
        assert!(
            finite > 0 && infinite > 0,
            "{finite} finite, {infinite} not"
        );
    }

    /// Folding several runs and building once leaves the model that
    /// absorbing them one call at a time leaves, on bounded sketches.
    #[test]
    fn absorb_runs_matches_one_absorb_per_run() {
        let c = cfg(Some(8));
        let all = runs(47, 40, &c.allocations);
        let mut one_by_one = CpaModel::empty(&c);
        for (obs, total) in &all {
            one_by_one.absorb_observations(obs, *total, true);
        }
        let mut batched = CpaModel::empty(&c);
        let added = batched.absorb_runs(
            all.iter()
                .map(|(obs, total)| (obs.as_slice(), *total, true)),
        );
        assert_eq!(added, one_by_one.sample_count());
        assert!(batched.rank_error_bound() > 0, "the sketches compacted");
        assert_eq!(batched.to_kv().to_text(), one_by_one.to_kv().to_text());
        assert_eq!(batched.table, one_by_one.table);
        assert_eq!(batched.fresh_monotone, one_by_one.fresh_monotone);
    }

    /// After every absorb, the table the touched-cell rebuild leaves is
    /// the one a fresh build over the same cells gives, bit for bit:
    /// on exact and bounded sketches, in rows that still have empty
    /// cells and in rows whose last empty cell just filled, with
    /// off-grid allocations and multi-run batches.
    #[test]
    fn touched_cell_rebuild_matches_a_fresh_table_build() {
        let row_counts = |m: &CpaModel| -> Vec<(u64, bool)> {
            m.cells
                .iter()
                .map(|row| {
                    let count = row.iter().map(CellSketch::count).sum();
                    (count, row.iter().any(CellSketch::is_empty))
                })
                .collect()
        };
        for k in [None, Some(8)] {
            let c = TrainConfig {
                progress_bins: 12,
                sketch_capacity: k,
                ..TrainConfig::fast(vec![2, 4, 8, 16])
            };
            let mut rng = SeedDeriver::new(23).rng("touched-cells");
            let mut model = CpaModel::empty(&c);
            let (mut partial, mut filled, mut full) = (0, 0, 0);
            for _ in 0..150 {
                // One to three runs of a few samples each, at any
                // allocation in 1..=20: most are off the grid and snap
                // to its nearest point.
                let batch: Vec<(Vec<RunObservation>, f64, bool)> = (0..rng.gen_range(1..=3))
                    .map(|_| {
                        let allocation = rng.gen_range(1..=20);
                        let total: f64 = rng.gen_range(10.0..500.0);
                        let obs = (0..rng.gen_range(1..=3))
                            .map(|_| {
                                let p: f64 = rng.gen_range(0.0..1.0);
                                RunObservation {
                                    elapsed_secs: p * total,
                                    progress: p,
                                    allocation,
                                }
                            })
                            .collect();
                        (obs, total, rng.gen_bool(0.3))
                    })
                    .collect();
                let before = row_counts(&model);
                model.absorb_runs(batch.iter().map(|(o, t, done)| (o.as_slice(), *t, *done)));
                for ((count, empty), (was_count, was_empty)) in
                    row_counts(&model).into_iter().zip(before)
                {
                    if count == was_count {
                        continue;
                    }
                    match (was_empty, empty) {
                        (_, true) => partial += 1,
                        (true, false) => filled += 1,
                        (false, false) => full += 1,
                    }
                }
                let mut fresh = model.clone();
                fresh.build_table();
                let bits = |m: &CpaModel| m.table.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
                assert_eq!(bits(&model), bits(&fresh), "k={k:?}");
                assert_eq!(model.fresh_monotone, fresh.fresh_monotone, "k={k:?}");
            }
            assert!(
                partial > 0 && filled > 0 && full > 0,
                "k={k:?}: {partial} {filled} {full}"
            );
            if k.is_some() {
                assert!(model.rank_error_bound() > 0, "the sketches compacted");
            }
        }
    }
}

#[cfg(test)]
mod persistence_tests {
    use super::*;
    use crate::progress::{IndicatorContext, ProgressIndicator};
    use jockey_cluster::FixedAllocation;
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;

    #[test]
    fn kv_roundtrip_preserves_queries() {
        let mut b = JobGraphBuilder::new("persist");
        let m = b.stage("map", 8);
        let r = b.stage("reduce", 2);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph.clone(), Constant(10.0), Constant(0.5), 0.0);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(4), 3);
        sim.add_job(spec, Box::new(FixedAllocation(4)));
        let profile = sim.run_single().profile;
        let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let model = CpaModel::train(&graph, &profile, &ctx, &TrainConfig::fast(vec![2, 4]), 1);

        let round = CpaModel::from_kv(&model.to_kv()).expect("round-trips");
        assert_eq!(round.allocations(), model.allocations());
        assert_eq!(round.percentile(), model.percentile());
        assert_eq!(round.sample_count(), model.sample_count());
        for p in [0.0, 0.3, 0.7, 1.0] {
            for a in [1, 2, 3, 4, 8] {
                assert_eq!(round.remaining(p, a), model.remaining(p, a), "p={p} a={a}");
            }
        }
    }

    /// The on-disk artifact cache persists trained models through the
    /// `to_kv` → `to_text` → `from_text` → `from_kv` path, so a warm
    /// cache is only byte-equivalent to retraining if that full text
    /// round-trip is *bit*-identical — Rust's `{}` float formatting is
    /// shortest-round-trip, and this test is the proof.
    #[test]
    fn kv_text_round_trip_is_bit_identical() {
        let mut b = JobGraphBuilder::new("persist-text");
        let m = b.stage("map", 9);
        let r = b.stage("reduce", 3);
        b.edge(m, r, EdgeKind::AllToAll);
        let graph = Arc::new(b.build().unwrap());
        let spec = JobSpec::uniform(graph.clone(), Constant(7.0), Constant(0.5), 0.0);
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(4), 11);
        sim.add_job(spec, Box::new(FixedAllocation(4)));
        let profile = sim.run_single().profile;
        let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
        let model = CpaModel::train(&graph, &profile, &ctx, &TrainConfig::fast(vec![2, 4, 6]), 5);

        let text = model.to_kv().to_text();
        let kv = jockey_simrt::table::KvStore::from_text(&text).expect("parses");
        let round = CpaModel::from_kv(&kv).expect("text round-trips");

        // Fixed point: re-serializing reproduces the exact same text,
        // which covers every stored sample bit-for-bit (any mantissa
        // drift would change the shortest-round-trip rendering).
        assert_eq!(round.to_kv().to_text(), text);

        // And the query surface agrees bitwise, at the configured and
        // at explicit percentiles.
        for p in [0.0, 0.25, 0.5, 0.75, 1.0] {
            for a in [1, 2, 3, 4, 5, 6, 9] {
                assert_eq!(
                    round.remaining(p, a).to_bits(),
                    model.remaining(p, a).to_bits(),
                    "remaining(p={p}, a={a})"
                );
                assert_eq!(
                    round.remaining_percentile(p, a, 90.0).to_bits(),
                    model.remaining_percentile(p, a, 90.0).to_bits(),
                    "remaining_percentile(p={p}, a={a})"
                );
            }
        }
    }

    /// Exact models must not leak any sketch-era keys: their serialized
    /// form is exactly the pre-sketch format (no `sketch_k`, no level
    /// or compaction keys), which is what keeps frozen-mode digests
    /// byte-identical across the refactor.
    #[test]
    fn exact_models_serialize_in_the_legacy_format() {
        let c = TrainConfig::fast(vec![2, 4]);
        let mut m = CpaModel::empty(&c);
        let obs: Vec<RunObservation> = (0..30)
            .map(|i| RunObservation {
                elapsed_secs: f64::from(i),
                progress: f64::from(i) / 30.0,
                allocation: 4,
            })
            .collect();
        m.absorb_observations(&obs, 30.0, true);
        let text = m.to_kv().to_text();
        assert!(!text.contains("sketch_k"), "unexpected sketch_k:\n{text}");
        for key in m.to_kv().keys() {
            if let Some(rest) = key.strip_prefix("cell.") {
                assert_eq!(rest.split('.').count(), 2, "sketch-era key `{key}`");
            }
        }
    }

    #[test]
    fn from_kv_rejects_malformed() {
        let kv = jockey_simrt::table::KvStore::new();
        assert_eq!(
            CpaModel::from_kv(&kv).unwrap_err(),
            ModelLoadError::MissingKey("bins")
        );

        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 0);
        kv.set_f64("percentile", 95.0);
        kv.set_f64_list("allocations", &[1.0]);
        assert_eq!(
            CpaModel::from_kv(&kv).unwrap_err(),
            ModelLoadError::EmptyModel
        );

        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 10);
        kv.set_f64("percentile", f64::NAN);
        kv.set_f64_list("allocations", &[1.0]);
        assert!(matches!(
            CpaModel::from_kv(&kv),
            Err(ModelLoadError::BadPercentile(v)) if v.is_nan()
        ));

        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 10);
        kv.set_f64("percentile", 95.0);
        kv.set_f64_list("allocations", &[1.0]);
        kv.set_f64_list("cell.5.0", &[1.0]); // Allocation index out of range.
        assert_eq!(
            CpaModel::from_kv(&kv).unwrap_err(),
            ModelLoadError::BadCell("cell.5.0".into())
        );

        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 10);
        kv.set_f64("percentile", 95.0);
        kv.set_f64_list("allocations", &[1.0]);
        kv.set_f64_list("cell.0.not-a-bin", &[1.0]);
        assert!(matches!(
            CpaModel::from_kv(&kv),
            Err(ModelLoadError::BadCell(_))
        ));

        // Sketch-era malformations: a level-zero suffix (`l0` shadows
        // the base key), a dotted tail that is neither `c` nor `l<i>`,
        // non-integer compaction counters, levels or counter lists past
        // MAX_SKETCH_LEVELS, and an undersized sketch_k.
        for (key, vals) in [
            ("cell.0.1.l0", vec![1.0]),
            ("cell.0.1.x7", vec![1.0]),
            ("cell.0.1.l2.9", vec![1.0]),
            ("cell.0.1.c", vec![1.5]),
            ("cell.0.1.c", vec![-1.0]),
            ("cell.0.1.l64", vec![1.0]),
            ("cell.0.1.l1000", vec![1.0]),
            ("cell.0.1.c", vec![0.0; 65]),
        ] {
            let mut kv = jockey_simrt::table::KvStore::new();
            kv.set_u64("bins", 10);
            kv.set_f64("percentile", 95.0);
            kv.set_f64_list("allocations", &[1.0]);
            kv.set_f64_list(key, &vals);
            assert!(
                matches!(CpaModel::from_kv(&kv), Err(ModelLoadError::BadCell(_))),
                "key `{key}` with {vals:?} should be rejected"
            );
        }

        let mut kv = jockey_simrt::table::KvStore::new();
        kv.set_u64("bins", 10);
        kv.set_f64("percentile", 95.0);
        kv.set_f64_list("allocations", &[1.0]);
        kv.set_u64("sketch_k", 2);
        assert_eq!(
            CpaModel::from_kv(&kv).unwrap_err(),
            ModelLoadError::BadSketchCapacity(2)
        );
    }

    #[test]
    fn train_config_check_rejects_bad_values() {
        assert!(TrainConfig::default().check().is_ok());

        let cfg = TrainConfig {
            allocations: vec![],
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::Allocations));

        let cfg = TrainConfig {
            allocations: vec![4, 2],
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::Allocations));

        let cfg = TrainConfig {
            runs_per_allocation: 0,
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::Runs));

        let cfg = TrainConfig {
            progress_bins: 1,
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::Bins(1)));

        // NaN must not sneak through the percentile range check.
        let cfg = TrainConfig {
            percentile: f64::NAN,
            ..TrainConfig::default()
        };
        assert!(matches!(
            cfg.check(),
            Err(InvalidTrainConfig::Percentile(v)) if v.is_nan()
        ));

        let cfg = TrainConfig {
            sample_period: SimDuration::ZERO,
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::SamplePeriod));

        let cfg = TrainConfig {
            sketch_capacity: Some(4),
            ..TrainConfig::default()
        };
        assert_eq!(cfg.check(), Err(InvalidTrainConfig::SketchCapacity(4)));
    }
}
