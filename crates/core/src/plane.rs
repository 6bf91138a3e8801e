//! A multi-job control plane: N concurrent SLO jobs against one shared
//! token budget, without a global lock.
//!
//! [`ControlPlane`] is the runtime of §4.4's inter-job arbiter: every
//! job is admitted against a reservation ledger, and the greedy
//! marginal-utility split ([`crate::arbiter::arbitrate`]) moves tokens
//! between the admitted jobs as they progress. Re-running that
//! O(N · budget) split on every tick would serialize N splits per
//! control period, so the plane is structured to scale:
//!
//! - **Sharded per-job slots.** Each job's state snapshot lives behind
//!   its own small `Mutex`, and its [`JobHandle`] holds the slot
//!   itself; a tick touches only its own slot and reads the published
//!   split, so jobs never contend with each other on the hot path, and
//!   only a tick that refreshes reads the slot table.
//! - **Published budget snapshot.** The per-job allocation vector sits
//!   behind an `RwLock`; a tick reads its own entry under the read
//!   guard. The refresher computes the next split off every lock into
//!   buffers it keeps, and publishes it by swapping them in under the
//!   write lock, so a publish copies and allocates nothing.
//! - **Batched tick scheduling.** The expensive greedy split runs once
//!   per *refresh epoch* (about once per control period across the
//!   whole fleet, i.e. every ~N ticks) instead of once per tick. A
//!   single ticking job wins a `try_lock` election, gathers the slot
//!   snapshots, computes the split off every job lock, and publishes
//!   it; everyone else reads the current snapshot and moves on.
//!
//! Each job's share is still recomputed from a fleet-wide view about
//! once per control period. [`JobHandle`] implements `JobController`
//! (smoothing the raw share with §4.3's hysteresis), so plane-managed
//! jobs drop into `ClusterSim` or a real scheduler unchanged.
//!
//! # Service lifecycle
//!
//! The plane is built to run *indefinitely* under churn:
//!
//! - **Slot recycling.** A job that finishes (or whose handle is
//!   dropped) releases its slot; released ids go through a free list
//!   and are reissued to later admissions, so a plane that has served
//!   100k recurring jobs costs the same per refresh as one serving its
//!   current live fleet. The refresh epoch counts *active* jobs, not
//!   the slot table's high-water mark.
//! - **Deadline-aware admission.** [`ControlPlane::try_add_job`] sizes
//!   a reservation from the job's completion model
//!   ([`CompletionModel::size_for_deadline`]) against a live
//!   [`AdmissionController`] ledger and rejects jobs whose SLO cannot
//!   fit the configured budget, instead of letting the arbitration's
//!   1-token floor silently over-commit it. Until the next periodic
//!   refresh folds a new SLO job into the fleet split, its ticks serve
//!   the *reservation* as the default share — safe (reservations sum
//!   within the budget) and refresh-free, so sustained admission churn
//!   cannot degenerate into per-tick re-arbitration.
//! - **Strict deadline-change visibility.** Deadline changes bump a
//!   *strict* generation counter after updating the slot; a tick that
//!   observes an unapplied strict generation refuses to serve the
//!   current snapshot and instead waits out (or performs) a refresh
//!   that includes the change. This closes the lost-force-refresh race
//!   where an in-flight refresher's counter reset could swallow a
//!   concurrent deadline change for a full epoch.
//! - **Serial-guarded snapshots.** Snapshot entries carry the slot
//!   occupant's serial; a recycled slot id never inherits the previous
//!   occupant's allocation from a stale snapshot.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, MutexGuard, PoisonError, RwLock};

use jockey_cluster::{ControlDecision, JobController, JobStatus};
use jockey_simrt::time::SimDuration;

use crate::admission::{AdmissionController, AdmissionError};
use crate::arbiter::{arbitrate_into, ArbiterJob, ArbiterScratch};
use crate::control::{clamp, smooth};
use crate::online::ModelLifecycleStats;
use crate::predict::CompletionModel;
use crate::progress::IndicatorContext;
use crate::utility::UtilityFunction;

/// One job's latest state snapshot, sharded behind its own lock.
struct SlotState {
    progress: f64,
    stage_fraction: Vec<f64>,
    elapsed_secs: f64,
    finished: bool,
    utility: UtilityFunction,
}

struct JobSlot {
    model: Arc<dyn CompletionModel>,
    slack: f64,
    /// Unique occupant serial (never reused): distinguishes this job
    /// from earlier occupants of the same recycled slot id.
    serial: u64,
    /// Default share served before the first refresh that includes this
    /// job: its ledger reservation.
    reserved: u32,
    state: Mutex<SlotState>,
}

impl JobSlot {
    /// Per-slot poison recovery: a snapshot is overwritten wholesale on
    /// every tick, so a panicking holder cannot leave it half-updated.
    fn lock(&self) -> MutexGuard<'_, SlotState> {
        self.state.lock().unwrap_or_else(PoisonError::into_inner)
    }
}

/// A per-epoch allocation snapshot, published whole under the plane's
/// snapshot lock.
#[derive(Default)]
struct Snapshot {
    /// Guaranteed tokens per slot id.
    alloc: Vec<u32>,
    /// The occupant serial each entry was computed for (0 = vacant).
    /// A job admitted after this snapshot was gathered — including one
    /// reusing a recycled slot id — misses here and falls back to its
    /// reservation until the next refresh.
    serial: Vec<u64>,
}

impl Snapshot {
    fn share_for(&self, id: usize, serial: u64) -> Option<u32> {
        if self.serial.get(id).copied() == Some(serial) {
            Some(self.alloc[id])
        } else {
            None
        }
    }
}

/// The refresh's buffers, kept under the refresh gate and overwritten
/// by each refresh, so a refresh of a fleet no larger than an earlier
/// one allocates nothing but what its pinned views allocate. Between
/// splits it holds no model: each split borrows the slots' models, or
/// a pinned view that lives only as long as the split.
#[derive(Default)]
struct Gather {
    /// One arbitration input per active job, in slot order.
    jobs: Vec<ArbiterJob>,
    /// The slot id of each entry of `jobs`.
    active: Vec<usize>,
    /// For each entry of `jobs`, the index of its model's pinned view
    /// in `views`, or `None` when its slot's own model answers.
    view_index: Vec<Option<usize>>,
    /// The pinning models met in this split, each by its data address
    /// with its view. A service family shares one model, so the list
    /// is short, and models that do not pin never enter it. Emptied
    /// when the split returns.
    views: Vec<(usize, Arc<dyn CompletionModel>)>,
    /// The storage of each split's per-job model list, empty between
    /// splits (see [`reborrow`]).
    models: Vec<&'static dyn CompletionModel>,
    /// The split being computed; publishing swaps it with the
    /// published one, whose buffers the next split overwrites.
    next: Snapshot,
    /// The arbiter's buffers.
    arbiter: ArbiterScratch,
}

/// Empties `models` and returns its storage as a list of borrows of
/// another lifetime, so one buffer serves every split without holding
/// a model between them. A `Vec`'s `IntoIter` mapped into an element
/// of the same layout collects in place, reusing the allocation.
fn reborrow<'b>(mut models: Vec<&dyn CompletionModel>) -> Vec<&'b dyn CompletionModel> {
    models.clear();
    models
        .into_iter()
        .map(|_| unreachable!("emptied"))
        .collect()
}

/// Counters describing how much arbitration work the plane performed.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PlaneStats {
    /// Total job ticks served.
    pub ticks: u64,
    /// Budget-split recomputations (refresh epochs).
    pub refreshes: u64,
    /// Refreshes in which the active fleet outnumbered the budget, so
    /// the 1-token-per-job floor handed out more tokens than the plane
    /// owns. Zero while every job enters through admission
    /// ([`ControlPlane::try_add_job`] and its speculative variant): a
    /// non-zero count means the 1-token floor was breached.
    pub over_committed_rounds: u64,
    /// Model generations published by online model stores registered
    /// via [`ControlPlane::register_model_stats`] — one per absorbed
    /// completion or drift retrain.
    pub model_generations_swapped: u64,
    /// Drift-detector firings across registered model stores.
    pub drift_detections: u64,
    /// Cold-start prior-library hits across registered stores.
    pub prior_hits: u64,
    /// Cold-start prior-library misses across registered stores.
    pub prior_misses: u64,
    /// Jobs admitted through the 2D speculative path
    /// ([`ControlPlane::try_add_job_speculative`]) with a non-zero
    /// clone budget — i.e. admissions where speculation actually won
    /// the (allocation, level) search.
    pub speculative_admissions: u64,
    /// Cumulative clone-budget tokens priced into reservations by
    /// speculative admissions.
    pub clone_tokens_reserved: u64,
    /// Clone attempts launched by jobs reporting through
    /// [`ControlPlane::record_speculation`].
    pub clone_tasks_launched: u64,
    /// Straggler races won by a clone, reported through
    /// [`ControlPlane::record_speculation`].
    pub clone_wins: u64,
}

/// The sharded multi-job control runtime.
pub struct ControlPlane {
    budget: u32,
    /// Slot table: `None` entries are released slots awaiting reuse.
    /// The outer lock is held only to push/recycle or to iterate shared
    /// references — never while evaluating models.
    slots: RwLock<Vec<Option<Arc<JobSlot>>>>,
    /// Released slot ids, reissued to later admissions.
    free: Mutex<Vec<usize>>,
    /// Admitted-and-unreleased job count: the refresh epoch length.
    active: AtomicU64,
    /// SLO reservation ledger backing [`ControlPlane::try_add_job`].
    ledger: Mutex<AdmissionController>,
    /// The published allocation snapshot.
    snapshot: RwLock<Snapshot>,
    /// Refresh election: the ticking job that wins this `try_lock`
    /// recomputes the split, gathering into the buffers the gate
    /// guards; losers use the current snapshot.
    refresh_gate: Mutex<Gather>,
    /// Ticks since the last completed refresh.
    ticks_since_refresh: AtomicU64,
    /// Bumped by every deadline change, *after* the slot update. A tick
    /// observing `applied_strict < strict_gen` refuses to serve the
    /// published snapshot (it may predate the change) and blocks on the
    /// gate until a post-change refresh publishes.
    strict_gen: AtomicU64,
    /// The `strict_gen` the last refresher loaded *before* gathering.
    applied_strict: AtomicU64,
    /// Occupant serial source; starts at 1 (0 marks vacancy).
    next_serial: AtomicU64,
    ticks: AtomicU64,
    refreshes: AtomicU64,
    over_committed_rounds: AtomicU64,
    speculative_admissions: AtomicU64,
    clone_tokens_reserved: AtomicU64,
    clone_tasks_launched: AtomicU64,
    clone_wins: AtomicU64,
    /// Lifecycle counters of the online model stores serving this
    /// plane's jobs, registered via
    /// [`ControlPlane::register_model_stats`] and summed into
    /// [`ControlPlane::stats`].
    model_stats: Mutex<Vec<Arc<ModelLifecycleStats>>>,
}

impl ControlPlane {
    /// Creates a plane managing `budget` guaranteed tokens.
    ///
    /// # Panics
    ///
    /// Panics if `budget` is zero.
    pub fn new(budget: u32) -> Arc<Self> {
        assert!(budget > 0);
        Arc::new(ControlPlane {
            budget,
            slots: RwLock::new(Vec::new()),
            free: Mutex::new(Vec::new()),
            active: AtomicU64::new(0),
            ledger: Mutex::new(AdmissionController::new(budget)),
            snapshot: RwLock::new(Snapshot::default()),
            refresh_gate: Mutex::new(Gather::default()),
            ticks_since_refresh: AtomicU64::new(0),
            strict_gen: AtomicU64::new(0),
            applied_strict: AtomicU64::new(0),
            next_serial: AtomicU64::new(1),
            ticks: AtomicU64::new(0),
            refreshes: AtomicU64::new(0),
            over_committed_rounds: AtomicU64::new(0),
            speculative_admissions: AtomicU64::new(0),
            clone_tokens_reserved: AtomicU64::new(0),
            clone_tasks_launched: AtomicU64::new(0),
            clone_wins: AtomicU64::new(0),
            model_stats: Mutex::new(Vec::new()),
        })
    }

    /// Admits a job only if its SLO fits: sizes the minimum reservation
    /// meeting `deadline` from the model's fresh predictions, reserves
    /// it in the plane's ledger, and registers the job. The reservation
    /// is freed when the job finishes or its handle is dropped.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Infeasible`] when no allocation meets the
    /// deadline, [`AdmissionError::InsufficientCapacity`] when the
    /// unreserved budget cannot hold the reservation, and
    /// [`AdmissionError::DuplicateName`] while a live job already holds
    /// a reservation under `name`.
    pub fn try_add_job(
        self: &Arc<Self>,
        name: &str,
        model: Arc<dyn CompletionModel>,
        indicator: IndicatorContext,
        deadline: SimDuration,
        slack: f64,
    ) -> Result<JobHandle, AdmissionError> {
        let stage_count = indicator.stage_count();
        let fresh = vec![0.0; stage_count];
        let required = self
            .ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .try_admit(name, model.as_ref(), &fresh, deadline, slack)?;
        let slot = self.new_slot(
            model,
            slack,
            stage_count,
            UtilityFunction::deadline(deadline),
            required,
        );
        Ok(self.admit_slot(slot, indicator, name.to_string()))
    }

    /// Admits an SLO job through the 2D (allocation, speculation)
    /// search: sizes each level's minimum deadline-meeting allocation
    /// from its own `C(p, a, s)` surface, picks the level with the
    /// smallest *total* token cost `a + clone_budget(s)` (ties go to
    /// the lower level), and reserves the full total in the plane's
    /// ledger — a clone token held for straggler races is priced
    /// exactly like a guaranteed token. The job's ticks are served the
    /// guarantee part `a`; the clone budget stays idle headroom the
    /// cluster's clone-on-slow watcher can draw on.
    ///
    /// The chosen level is fixed for the job's lifetime (speculation is
    /// a cluster-level engine configuration, not a per-tick actuator);
    /// the per-tick allocation still floats with the fleet split, over
    /// the chosen level's surface.
    ///
    /// # Errors
    ///
    /// [`AdmissionError::Infeasible`] when no level has a
    /// deadline-meeting allocation, and the same capacity/duplicate
    /// errors as [`ControlPlane::try_add_job`] — capacity is judged
    /// against the chosen level's *total* cost.
    ///
    /// # Panics
    ///
    /// Panics if `levels` is empty.
    pub fn try_add_job_speculative(
        self: &Arc<Self>,
        name: &str,
        levels: &[crate::alloc::SpeculationLevel],
        indicator: IndicatorContext,
        deadline: SimDuration,
        slack: f64,
    ) -> Result<(JobHandle, crate::alloc::SpeculativeDecision), AdmissionError> {
        assert!(!levels.is_empty(), "need at least one speculation level");
        let stage_count = indicator.stage_count();
        let fresh = vec![0.0; stage_count];
        let mut best: Option<(crate::alloc::SpeculativeDecision, u32)> = None;
        for (s, level) in levels.iter().enumerate() {
            let Some(a) = level.model.size_for_deadline(&fresh, deadline, slack) else {
                continue;
            };
            let total = a + level.clone_budget;
            // Ascending level order: a tie on total cost keeps the
            // earlier (less speculative) level.
            if best.is_none_or(|(d, _)| total < d.total_tokens) {
                best = Some((
                    crate::alloc::SpeculativeDecision {
                        allocation: a,
                        level: s,
                        total_tokens: total,
                    },
                    level.clone_budget,
                ));
            }
        }
        let Some((decision, clone_budget)) = best else {
            return Err(AdmissionError::Infeasible);
        };
        self.ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .try_reserve(name, decision.total_tokens)?;
        if clone_budget > 0 {
            self.speculative_admissions.fetch_add(1, Ordering::Relaxed);
            self.clone_tokens_reserved
                .fetch_add(u64::from(clone_budget), Ordering::Relaxed);
        }
        let slot = self.new_slot(
            levels[decision.level].model.clone(),
            slack,
            stage_count,
            UtilityFunction::deadline(deadline),
            decision.allocation,
        );
        Ok((self.admit_slot(slot, indicator, name.to_string()), decision))
    }

    /// Folds one finished job's speculation counters (clone attempts
    /// launched, races won) into the plane's stats. The cluster engine
    /// owns these counts — callers report them from the run's
    /// `JobResult` when it completes.
    pub fn record_speculation(&self, clones_launched: u64, clone_wins: u64) {
        self.clone_tasks_launched
            .fetch_add(clones_launched, Ordering::Relaxed);
        self.clone_wins.fetch_add(clone_wins, Ordering::Relaxed);
    }

    fn new_slot(
        &self,
        model: Arc<dyn CompletionModel>,
        slack: f64,
        stage_count: usize,
        utility: UtilityFunction,
        reserved: u32,
    ) -> Arc<JobSlot> {
        Arc::new(JobSlot {
            model,
            slack,
            serial: self.next_serial.fetch_add(1, Ordering::Relaxed),
            reserved,
            state: Mutex::new(SlotState {
                progress: 0.0,
                stage_fraction: vec![0.0; stage_count],
                elapsed_secs: 0.0,
                finished: false,
                utility,
            }),
        })
    }

    /// Installs a slot, recycling a released id when one is free. The
    /// published snapshot cannot cover the newcomer (its serial is
    /// fresh), so its ticks serve the slot's reservation until the next
    /// refresh folds it in.
    fn admit_slot(
        self: &Arc<Self>,
        slot: Arc<JobSlot>,
        indicator: IndicatorContext,
        name: String,
    ) -> JobHandle {
        let id = {
            let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
            let recycled = self
                .free
                .lock()
                .unwrap_or_else(PoisonError::into_inner)
                .pop();
            match recycled {
                Some(id) => {
                    slots[id] = Some(slot.clone());
                    id
                }
                None => {
                    slots.push(Some(slot.clone()));
                    slots.len() - 1
                }
            }
        };
        self.active.fetch_add(1, Ordering::Relaxed);
        JobHandle {
            plane: self.clone(),
            slot,
            id,
            indicator,
            smoothed: None,
            name,
            released: false,
        }
    }

    /// Returns a released job's slot to the free list and frees its
    /// ledger reservation.
    fn release_job(&self, id: usize, name: &str) {
        {
            let mut slots = self.slots.write().unwrap_or_else(PoisonError::into_inner);
            if slots.get_mut(id).and_then(Option::take).is_some() {
                self.free
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner)
                    .push(id);
                self.active.fetch_sub(1, Ordering::Relaxed);
            }
        }
        self.ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .release(name);
        // No generation bump: survivors converge on the freed tokens at
        // the next periodic refresh (bounded by one control period),
        // and the serial guard keeps the freed id's stale snapshot
        // entry from leaking to its next occupant.
    }

    /// Registers an online model store's lifecycle counters so
    /// [`ControlPlane::stats`] reports model generations, drift
    /// detections and prior-library traffic alongside the plane's own
    /// arbitration work. Stores serving several jobs register once.
    pub fn register_model_stats(&self, stats: Arc<ModelLifecycleStats>) {
        self.model_stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .push(stats);
    }

    /// The plane's work counters, including the summed lifecycle
    /// counters of every registered model store.
    pub fn stats(&self) -> PlaneStats {
        let mut stats = PlaneStats {
            ticks: self.ticks.load(Ordering::Relaxed),
            refreshes: self.refreshes.load(Ordering::Relaxed),
            over_committed_rounds: self.over_committed_rounds.load(Ordering::Relaxed),
            speculative_admissions: self.speculative_admissions.load(Ordering::Relaxed),
            clone_tokens_reserved: self.clone_tokens_reserved.load(Ordering::Relaxed),
            clone_tasks_launched: self.clone_tasks_launched.load(Ordering::Relaxed),
            clone_wins: self.clone_wins.load(Ordering::Relaxed),
            ..PlaneStats::default()
        };
        for m in self
            .model_stats
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .iter()
        {
            stats.model_generations_swapped += m.generations_swapped.load(Ordering::Relaxed);
            stats.drift_detections += m.drift_detections.load(Ordering::Relaxed);
            stats.prior_hits += m.prior_hits.load(Ordering::Relaxed);
            stats.prior_misses += m.prior_misses.load(Ordering::Relaxed);
        }
        stats
    }

    /// Guaranteed tokens under management.
    pub fn budget(&self) -> u32 {
        self.budget
    }

    /// Live (admitted, unreleased) jobs.
    pub fn active_jobs(&self) -> usize {
        self.active.load(Ordering::Relaxed) as usize
    }

    /// Slot-table length including free entries — the high-water mark
    /// of *concurrent* jobs, bounded under churn by slot recycling.
    pub fn slot_count(&self) -> usize {
        self.slots
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .len()
    }

    /// Tokens reserved by the admitted jobs.
    pub fn reserved(&self) -> u32 {
        self.ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .reserved()
    }

    /// Tokens still unreserved for new SLO admissions.
    pub fn available(&self) -> u32 {
        self.ledger
            .lock()
            .unwrap_or_else(PoisonError::into_inner)
            .available()
    }

    /// Serves one job tick: updates the job's own slot, opportunistically
    /// refreshes the fleet snapshot when an epoch has elapsed, and
    /// returns the job's share from the published snapshot. Only a tick
    /// that refreshes reads the slot table.
    fn tick_job(&self, slot: &JobSlot, id: usize, progress: f64, status: &JobStatus) -> u32 {
        self.ticks.fetch_add(1, Ordering::Relaxed);
        {
            let mut s = slot.lock();
            s.progress = progress;
            s.stage_fraction.clear();
            s.stage_fraction.extend_from_slice(&status.stage_fraction);
            s.elapsed_secs = status.elapsed.as_secs_f64();
            s.finished = status.finished;
        }

        // One refresh per epoch: an epoch is one tick per *active* job,
        // so each job sees a fleet-fresh split about once per control
        // period at 1/N of the cost of re-splitting on every tick.
        let epoch = self.active.load(Ordering::Relaxed).max(1);
        let due = self.ticks_since_refresh.fetch_add(1, Ordering::AcqRel) >= epoch - 1;
        // `goal` is the newest deadline change this tick has observed;
        // a snapshot older than it must never be served.
        let goal = self.strict_gen.load(Ordering::Acquire);
        if self.applied_strict.load(Ordering::Acquire) < goal {
            // Unapplied deadline change: wait out (or perform) a
            // refresh at least as fresh as `goal`. The blocking lock —
            // rather than the opportunistic `try_lock` — is what closes
            // the lost-force-refresh race: an in-flight refresher may
            // have gathered pre-change state, but it cannot advance
            // `applied_strict` past `goal`, so we refresh again behind
            // it.
            while self.applied_strict.load(Ordering::Acquire) < goal {
                // A panicking refresher cannot leave the gather
                // half-updated for the next one: every refresh
                // overwrites each entry it reads.
                let mut gather = self
                    .refresh_gate
                    .lock()
                    .unwrap_or_else(PoisonError::into_inner);
                if self.applied_strict.load(Ordering::Acquire) < goal {
                    self.refresh_locked(&mut gather);
                }
            }
        } else if due {
            if let Ok(mut gather) = self.refresh_gate.try_lock() {
                self.refresh_locked(&mut gather);
            }
        }

        if status.finished {
            return 1;
        }
        let share = self
            .snapshot
            .read()
            .unwrap_or_else(PoisonError::into_inner)
            .share_for(id, slot.serial);
        share.unwrap_or(slot.reserved).max(1)
    }

    /// Runs one refresh while the caller holds the refresh gate,
    /// recording the generation observed *before* gathering so a
    /// deadline change landing mid-refresh leaves
    /// `applied_strict < strict_gen` and forces a follow-up.
    fn refresh_locked(&self, gather: &mut Gather) {
        let strict = self.strict_gen.load(Ordering::Acquire);
        self.ticks_since_refresh.store(0, Ordering::Release);
        self.refresh(gather);
        self.applied_strict.store(strict, Ordering::Release);
    }

    /// Recomputes the greedy split from the current slot snapshots and
    /// publishes it. Runs while holding only the refresh gate and the
    /// slot table's read lock: slot locks are taken one at a time to
    /// copy state out, the expensive marginal-utility scan touches no
    /// lock at all, and the publish swaps buffers under the snapshot's
    /// write lock.
    fn refresh(&self, gather: &mut Gather) {
        self.refreshes.fetch_add(1, Ordering::Relaxed);
        {
            let slots = self.slots.read().unwrap_or_else(PoisonError::into_inner);
            self.split(&slots, gather);
        }
        // `arbitrate` needs at least one token per job. Admission keeps
        // the active fleet within the budget (every reservation is at
        // least one token), so this count stays zero; a non-zero value
        // flags a broken floor instead of absorbing it silently.
        if gather.jobs.len() as u32 > self.budget {
            self.over_committed_rounds.fetch_add(1, Ordering::Relaxed);
        }
        let mut published = self
            .snapshot
            .write()
            .unwrap_or_else(PoisonError::into_inner);
        std::mem::swap(&mut *published, &mut gather.next);
    }

    /// Gathers every active slot into `gather` and splits the budget
    /// across them into `gather.next`. Every buffer is overwritten in
    /// place, so each refresh reuses the storage earlier refreshes
    /// grew.
    fn split(&self, slots: &[Option<Arc<JobSlot>>], gather: &mut Gather) {
        let Gather {
            jobs,
            active,
            view_index,
            views,
            models,
            next,
            arbiter,
        } = gather;
        active.clear();
        view_index.clear();
        next.serial.clear();
        next.serial.resize(slots.len(), 0);
        // One frozen view per distinct pinning model per refresh: the
        // jobs of a service family share one handle, so the split reads
        // its store once, not once per C(p, a) query, and sees one
        // generation. Each job's model is looked up among the pinning
        // models met so far, by address; models that do not pin are
        // borrowed from their slots as they are and never enter the
        // list, so a fleet of per-job closed-form models searches an
        // empty list.
        let mut n = 0;
        for (i, slot) in slots.iter().enumerate() {
            let Some(slot) = slot else { continue };
            next.serial[i] = slot.serial;
            let s = slot.lock();
            if s.finished {
                continue;
            }
            active.push(i);
            let key = Arc::as_ptr(&slot.model).cast::<()>().addr();
            view_index.push(match views.iter().position(|&(k, _)| k == key) {
                Some(v) => Some(v),
                None => slot.model.pinned().map(|pinned| {
                    views.push((key, pinned));
                    views.len() - 1
                }),
            });
            if let Some(job) = jobs.get_mut(n) {
                job.utility.clone_from(&s.utility);
                job.progress = s.progress;
                job.stage_fraction.clone_from(&s.stage_fraction);
                job.elapsed_secs = s.elapsed_secs;
                job.slack = slot.slack;
            } else {
                jobs.push(ArbiterJob {
                    utility: s.utility.clone(),
                    progress: s.progress,
                    stage_fraction: s.stage_fraction.clone(),
                    elapsed_secs: s.elapsed_secs,
                    slack: slot.slack,
                });
            }
            n += 1;
        }
        jobs.truncate(n);
        next.alloc.clear();
        next.alloc.resize(slots.len(), 1);
        if !jobs.is_empty() {
            let mut borrowed = reborrow(std::mem::take(models));
            borrowed.extend(
                active
                    .iter()
                    .zip(view_index.iter())
                    .map(|(&i, v)| match *v {
                        Some(v) => views[v].1.as_ref(),
                        None => slots[i].as_ref().expect("gathered slot").model.as_ref(),
                    }),
            );
            let budget = self.budget.max(jobs.len() as u32);
            let split = arbitrate_into(jobs, &borrowed, budget, arbiter);
            for (&i, &share) in active.iter().zip(split) {
                next.alloc[i] = share;
            }
            *models = reborrow(borrowed);
        }
        views.clear();
    }

    fn set_deadline(&self, slot: &JobSlot, new_deadline: SimDuration) {
        {
            let mut s = slot.lock();
            s.utility = s.utility.with_deadline(new_deadline);
        }
        // Publish the change *after* the slot update: any tick that
        // observes the new generation is guaranteed a post-change
        // gather (the slot mutex orders the two writes).
        self.strict_gen.fetch_add(1, Ordering::Release);
    }
}

/// Hysteresis coefficient applied to the plane's raw shares: without
/// it, jobs with near-equal marginal utilities would swap tokens every
/// refresh, and each swing demotes or evicts running tasks.
const PLANE_HYSTERESIS: f64 = 0.3;

/// A per-job `JobController` served by a [`ControlPlane`].
///
/// The handle owns the job's slot: when the job finishes (first tick
/// with `finished`) or the handle is dropped, the slot is released back
/// to the plane's free list and any SLO reservation is freed.
pub struct JobHandle {
    plane: Arc<ControlPlane>,
    /// The job's slot, shared with the plane's slot table until
    /// release.
    slot: Arc<JobSlot>,
    id: usize,
    indicator: IndicatorContext,
    smoothed: Option<f64>,
    /// Ledger reservation name, freed on release.
    name: String,
    released: bool,
}

impl JobHandle {
    /// The plane this handle belongs to.
    pub fn plane(&self) -> &Arc<ControlPlane> {
        &self.plane
    }

    /// The job's slot id within the plane. Slot ids are recycled: a
    /// released id may be reissued to a later admission.
    pub fn id(&self) -> usize {
        self.id
    }

    /// Whether the job's slot has been released (on finish or by
    /// [`JobHandle::release`]).
    pub fn is_released(&self) -> bool {
        self.released
    }

    /// Releases the job's slot and reservation early (cancellation).
    /// Subsequent ticks return the 1-token floor without touching the
    /// plane. Idempotent.
    pub fn release(&mut self) {
        if !self.released {
            self.released = true;
            self.plane.release_job(self.id, &self.name);
        }
    }
}

impl Drop for JobHandle {
    fn drop(&mut self) {
        self.release();
    }
}

impl JobController for JobHandle {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        if self.released {
            return ControlDecision {
                guarantee: 1,
                raw: Some(1.0),
                progress: None,
                predicted_completion: None,
            };
        }
        let p = self.indicator.progress(&status.stage_fraction);
        let raw = self.plane.tick_job(&self.slot, self.id, p, status);
        if status.finished {
            // Release immediately: pacing a finished job's give-back
            // through hysteresis would hold budget nobody can use, and
            // a finished slot scanned forever would leak refresh work.
            self.smoothed = Some(1.0);
            self.release();
            return ControlDecision {
                guarantee: 1,
                raw: Some(f64::from(raw)),
                progress: Some(p),
                predicted_completion: None,
            };
        }
        let next = smooth(self.smoothed, f64::from(raw), PLANE_HYSTERESIS);
        self.smoothed = Some(next);
        ControlDecision {
            guarantee: clamp(next, 1),
            raw: Some(f64::from(raw)),
            progress: Some(p),
            predicted_completion: None,
        }
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        if self.released {
            return;
        }
        self.plane.set_deadline(&self.slot, new_deadline);
        // A new SLO is a fresh sizing problem (same as JockeyController).
        self.smoothed = None;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpa::{CpaModel, TrainConfig};
    use crate::progress::ProgressIndicator;
    use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec};
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;
    use jockey_simrt::time::SimTime;
    use std::sync::Weak;

    /// remaining = work * (1 - progress) / a.
    struct Toy {
        work: f64,
    }

    impl CompletionModel for Toy {
        fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
            self.work * (1.0 - progress) / f64::from(allocation.max(1))
        }
        fn max_allocation(&self) -> u32 {
            100
        }
    }

    fn toy_indicator() -> IndicatorContext {
        let mut b = JobGraphBuilder::new("plane-toy");
        b.stage("only", 10);
        let g = b.build().unwrap();
        let mut pb = jockey_jobgraph::profile::ProfileBuilder::new(&g);
        for _ in 0..10 {
            pb.record_task(jockey_jobgraph::StageId(0), 1.0, 10.0, false);
        }
        let p = pb.finish(100.0, 1.0);
        IndicatorContext::new(ProgressIndicator::VertexFrac, &g, &p, None)
    }

    fn status(minute: u64, frac: f64, guarantee: u32) -> JobStatus {
        JobStatus {
            now: SimTime::from_mins(minute),
            elapsed: SimDuration::from_mins(minute),
            stage_fraction: vec![frac],
            stage_completed: vec![(frac * 10.0) as u32],
            running: guarantee,
            running_guaranteed: guarantee,
            guarantee,
            work_done: frac * 100.0,
            finished: frac >= 1.0,
        }
    }

    /// Admits a [`Toy`] job through the plane's ledger.
    fn admit(plane: &Arc<ControlPlane>, name: &str, work: f64, deadline_mins: u64) -> JobHandle {
        plane
            .try_add_job(
                name,
                Arc::new(Toy { work }),
                toy_indicator(),
                SimDuration::from_mins(deadline_mins),
                1.0,
            )
            .expect("admitted")
    }

    #[test]
    fn tight_deadline_wins_the_budget() {
        let plane = ControlPlane::new(20);
        let mut tight = admit(&plane, "tight", 36_000.0, 60);
        let mut loose = admit(&plane, "loose", 36_000.0, 120);
        // The first round serves reservations; the second the split.
        tight.tick(&status(0, 0.0, 0));
        loose.tick(&status(0, 0.0, 0));
        let dt = tight.tick(&status(0, 0.0, 0));
        let dl = loose.tick(&status(0, 0.0, 0));
        assert!(dt.guarantee > dl.guarantee, "tight {dt:?} vs loose {dl:?}");
        // The tight job needs 10 tokens (36000/3600) to be on time.
        assert!(dt.guarantee >= 10, "{dt:?}");
    }

    #[test]
    fn refreshes_are_amortized_across_ticks() {
        let n = 16;
        // Each job reserves 10 tokens (36000/3600).
        let plane = ControlPlane::new(10 * n as u32);
        let mut handles: Vec<JobHandle> = (0..n)
            .map(|i| admit(&plane, &format!("job-{i}"), 36_000.0, 60))
            .collect();
        // Drive 20 whole control rounds.
        for minute in 0..20 {
            for h in &mut handles {
                h.tick(&status(minute, 0.02 * minute as f64, 4));
            }
        }
        let stats = plane.stats();
        assert_eq!(stats.ticks, 20 * n as u64);
        // Roughly one refresh per round — far fewer than one per tick.
        assert!(stats.refreshes <= 25 && stats.refreshes >= 10, "{stats:?}");
    }

    /// A [`Toy`] that counts the refreshes that pin it and keeps a weak
    /// reference to the last view it handed out.
    struct PinCounter {
        work: f64,
        pins: AtomicU64,
        last_view: Mutex<Weak<dyn CompletionModel>>,
    }

    impl PinCounter {
        fn new(work: f64) -> Self {
            PinCounter {
                work,
                pins: AtomicU64::new(0),
                last_view: Mutex::new(Weak::<Toy>::new()),
            }
        }
    }

    impl CompletionModel for PinCounter {
        fn remaining_secs(&self, fs: &[f64], progress: f64, allocation: u32) -> f64 {
            Toy { work: self.work }.remaining_secs(fs, progress, allocation)
        }
        fn max_allocation(&self) -> u32 {
            100
        }
        fn pinned(&self) -> Option<Arc<dyn CompletionModel>> {
            self.pins.fetch_add(1, Ordering::Relaxed);
            let view: Arc<dyn CompletionModel> = Arc::new(Toy { work: self.work });
            *self.last_view.lock().unwrap() = Arc::downgrade(&view);
            Some(view)
        }
    }

    #[test]
    fn each_refresh_pins_each_shared_model_once() {
        let plane = ControlPlane::new(200);
        let shared: Vec<Arc<PinCounter>> = (0..2)
            .map(|_| Arc::new(PinCounter::new(36_000.0)))
            .collect();
        // Four jobs on the first model, two on the second.
        let mut handles: Vec<JobHandle> = (0..6)
            .map(|i| {
                let model: Arc<dyn CompletionModel> = shared[usize::from(i >= 4)].clone();
                plane
                    .try_add_job(
                        &format!("job-{i}"),
                        model,
                        toy_indicator(),
                        SimDuration::from_mins(60),
                        1.0,
                    )
                    .expect("admitted")
            })
            .collect();
        for minute in 0..5 {
            for h in &mut handles {
                h.tick(&status(minute, 0.02 * minute as f64, 4));
            }
        }
        let refreshes = plane.stats().refreshes;
        assert!(refreshes >= 4, "{:?}", plane.stats());
        for model in &shared {
            assert_eq!(model.pins.load(Ordering::Relaxed), refreshes);
        }
    }

    #[test]
    fn finished_jobs_release_their_share() {
        // Each job reserves 4 tokens (7200/1800) of the 8.
        let plane = ControlPlane::new(8);
        let mut a = admit(&plane, "a", 7_200.0, 30);
        let mut b = admit(&plane, "b", 7_200.0, 30);
        a.tick(&status(0, 0.0, 0));
        b.tick(&status(0, 0.0, 0));
        // Job A finishes; its share collapses and B inherits the budget
        // at the next refresh.
        let d = a.tick(&status(5, 1.0, 4));
        assert_eq!(d.guarantee, 1, "finished job should hold no budget");
        let before = b.tick(&status(5, 0.1, 4)).guarantee;
        let after = b.tick(&status(6, 0.1, before)).guarantee;
        assert!(after >= before, "survivor kept {after} vs {before}");
    }

    #[test]
    fn deadline_change_forces_a_fresh_split() {
        let plane = ControlPlane::new(20);
        let mut a = admit(&plane, "a", 36_000.0, 120);
        let mut b = admit(&plane, "b", 36_000.0, 120);
        // The first round serves reservations; the second the split.
        a.tick(&status(0, 0.0, 0));
        b.tick(&status(0, 0.0, 0));
        let g0 = a.tick(&status(0, 0.0, 0)).guarantee;
        b.tick(&status(0, 0.0, 0));
        // Quarter A's deadline: its share must grow at the next ticks.
        a.deadline_changed(SimDuration::from_mins(30));
        let mut g = g0;
        for minute in 1..=6 {
            g = a.tick(&status(minute, 0.01 * minute as f64, g)).guarantee;
        }
        assert!(g > g0, "tightened job stayed at {g} (was {g0})");
    }

    #[test]
    fn snapshot_is_recovered_after_a_panicking_reader() {
        // Poison one slot lock by panicking while holding it; the
        // plane must keep serving every job.
        let plane = ControlPlane::new(10);
        let mut a = admit(&plane, "a", 36_000.0, 60);
        a.tick(&status(0, 0.0, 0));
        {
            let plane = plane.clone();
            let _ = std::thread::spawn(move || {
                let slots = plane.slots.read().unwrap();
                let _guard = slots[0].as_ref().unwrap().state.lock().unwrap();
                panic!("poison the slot");
            })
            .join();
        }
        let d = a.tick(&status(1, 0.05, 4));
        assert!(d.guarantee >= 1, "plane stopped serving after poison");
    }

    #[test]
    fn slot_count_stays_bounded_across_churn() {
        // Regression: slots used to grow on admission and never shrink,
        // so every finished job was locked, scanned and counted in the
        // refresh epoch forever. 10k admit→finish cycles must leave the
        // table no larger than the peak concurrency.
        let plane = ControlPlane::new(8);
        let mut anchor = admit(&plane, "anchor", 36_000.0, 120); // 5 tokens
        for cycle in 0..10_000_u64 {
            let mut h = admit(&plane, "churn", 3_600.0, 30); // 2 tokens
            h.tick(&status(0, 0.0, 0));
            let d = h.tick(&status(1, 1.0, 2));
            assert_eq!(d.guarantee, 1);
            assert!(h.is_released(), "finished job must release its slot");
            if cycle % 1000 == 0 {
                anchor.tick(&status(cycle, 0.0, 2));
            }
            assert!(
                plane.slot_count() <= 2,
                "cycle {cycle}: slot table grew to {}",
                plane.slot_count()
            );
            assert_eq!(plane.active_jobs(), 1);
        }
        drop(anchor);
        assert_eq!(plane.active_jobs(), 0);
        assert_eq!(plane.stats().over_committed_rounds, 0);
    }

    /// remaining = work * (1 - fs[0]) / a: reads the stage fractions
    /// where [`Toy`] reads the progress.
    struct Staged {
        work: f64,
    }

    impl CompletionModel for Staged {
        fn remaining_secs(&self, fs: &[f64], _progress: f64, allocation: u32) -> f64 {
            self.work * (1.0 - fs[0]) / f64::from(allocation.max(1))
        }
        fn max_allocation(&self) -> u32 {
            100
        }
    }

    /// A gather reused across refreshes splits exactly as a fresh one
    /// while the fleet shrinks, grows and recycles slot ids, jobs
    /// change deadlines, and one pinning model is shared beside per-job
    /// ones. After a split nothing holds a model on the gather's behalf:
    /// the shared model is held by its slots alone, and its pinned view
    /// is gone.
    #[test]
    fn reused_gather_splits_as_a_fresh_one_across_churn() {
        let plane = ControlPlane::new(60);
        let counter = Arc::new(PinCounter::new(20_000.0));
        let shared: Arc<dyn CompletionModel> = counter.clone();
        let mut state = 0x5851_f42d_4c95_7f2d_u64;
        let mut next = |m: u64| {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) % m
        };
        let mut reused = Gather::default();
        let mut handles: Vec<JobHandle> = Vec::new();
        let (mut smallest, mut largest, mut recycled) = (usize::MAX, 0, 0);
        for round in 0..200_u64 {
            // Bursts of admissions and of departures.
            let phase = (round / 20) % 2 == 0;
            if phase || handles.is_empty() {
                for _ in 0..=next(3) {
                    let model: Arc<dyn CompletionModel> = if next(2) == 0 {
                        shared.clone()
                    } else {
                        Arc::new(Staged {
                            work: 2_000.0 + next(30_000) as f64,
                        })
                    };
                    let slots_before = plane.slot_count();
                    if let Ok(h) = plane.try_add_job(
                        &format!("job-{round}"),
                        model,
                        toy_indicator(),
                        SimDuration::from_mins(30 + next(90)),
                        1.0 + next(3) as f64 / 10.0,
                    ) {
                        recycled += usize::from(h.id() < slots_before);
                        handles.push(h);
                    }
                }
            } else {
                for _ in 0..=next(3) {
                    if !handles.is_empty() {
                        let i = next(handles.len() as u64) as usize;
                        handles.swap_remove(i);
                    }
                }
            }
            for h in &mut handles {
                if next(8) == 0 {
                    h.deadline_changed(SimDuration::from_mins(20 + next(100)));
                }
                let frac = if next(30) == 0 {
                    1.0
                } else {
                    next(95) as f64 / 100.0
                };
                h.tick(&status(round, frac, 1 + next(8) as u32));
            }
            handles.retain(|h| !h.is_released());

            let slots = plane.slots.read().unwrap().clone();
            let mut fresh = Gather::default();
            plane.split(&slots, &mut fresh);
            plane.split(&slots, &mut reused);
            assert_eq!(reused.next.alloc, fresh.next.alloc, "round {round}");
            assert_eq!(reused.next.serial, fresh.next.serial, "round {round}");
            assert_eq!(reused.jobs.len(), handles.len(), "round {round}");
            // This test's two handles, plus one per slot it occupies.
            let holders = slots
                .iter()
                .flatten()
                .filter(|slot| Arc::ptr_eq(&slot.model, &shared))
                .count();
            assert_eq!(
                Arc::strong_count(&counter),
                2 + holders,
                "round {round}: a model outlived the split"
            );
            let view = counter.last_view.lock().unwrap().upgrade();
            assert!(
                view.is_none(),
                "round {round}: a pinned view outlived the split"
            );
            smallest = smallest.min(handles.len());
            largest = largest.max(handles.len());
        }
        assert!(
            smallest <= 2 && largest >= 12,
            "fleet {smallest}..={largest}"
        );
        assert!(recycled > 0, "no slot id was recycled");
    }

    #[test]
    fn released_ids_are_recycled() {
        let plane = ControlPlane::new(20);
        let _keep = admit(&plane, "keep", 36_000.0, 60);
        let mut a = admit(&plane, "a", 36_000.0, 60);
        let freed = a.id();
        a.release();
        let b = admit(&plane, "b", 36_000.0, 60);
        assert_eq!(b.id(), freed, "released id should be reissued");
        assert_eq!(plane.slot_count(), 2);
    }

    #[test]
    fn deadline_change_survives_a_concurrent_refresh_election() {
        // Regression for the lost-force-refresh race: a refresher that
        // was elected *before* a deadline change used to reset the
        // force flag while publishing pre-change state, delaying the
        // resplit by up to a full epoch. Simulate the in-flight
        // election by holding the refresh gate while the deadline
        // changes; the next tick must still observe the new split.
        let plane = ControlPlane::new(20);
        let mut a = admit(&plane, "a", 36_000.0, 120);
        let mut b = admit(&plane, "b", 36_000.0, 120);
        // The first round serves reservations; the second the split.
        a.tick(&status(0, 0.0, 0));
        b.tick(&status(0, 0.0, 0));
        let g0 = a.tick(&status(0, 0.0, 0)).guarantee;
        b.tick(&status(0, 0.0, 0));

        let gate = plane.refresh_gate.lock().unwrap();
        a.deadline_changed(SimDuration::from_mins(30));
        // While the gate is held, the change cannot have been applied.
        assert!(
            plane.applied_strict.load(Ordering::Acquire) < plane.strict_gen.load(Ordering::Acquire)
        );
        let ticker = std::thread::spawn(move || {
            // This tick blocks until the stale election clears, then
            // refreshes with post-change state.
            b.tick(&status(1, 0.01, 4)).raw.unwrap()
        });
        std::thread::sleep(std::time::Duration::from_millis(50));
        drop(gate);
        let b_raw = ticker.join().unwrap();
        let a_raw = a.tick(&status(1, 0.01, g0)).raw.unwrap();
        // 36 000 s of work in 30 min needs ~20 tokens: the tightened
        // job takes essentially the whole budget in the very next
        // published snapshot.
        assert!(a_raw >= 15.0, "tightened job got raw {a_raw}");
        assert!(b_raw < a_raw, "loose job got raw {b_raw} vs {a_raw}");
    }

    #[test]
    fn try_add_job_rejects_what_does_not_fit() {
        let plane = ControlPlane::new(10);
        // 36 000 s of work in 60 min ⇒ 10 tokens: fills the ledger.
        let first = plane
            .try_add_job(
                "big",
                Arc::new(Toy { work: 36_000.0 }),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .expect("fits exactly");
        assert_eq!(plane.reserved(), 10);
        assert_eq!(plane.available(), 0);
        // A second SLO job cannot fit, even a tiny one.
        match plane.try_add_job(
            "small",
            Arc::new(Toy { work: 3_600.0 }),
            toy_indicator(),
            SimDuration::from_mins(60),
            1.0,
        ) {
            Err(AdmissionError::InsufficientCapacity {
                required,
                available,
            }) => {
                assert_eq!((required, available), (1, 0));
            }
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("expected capacity rejection"),
        }
        // Duplicate names are refused while the job is live.
        assert!(matches!(
            plane.try_add_job(
                "big",
                Arc::new(Toy { work: 3_600.0 }),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            ),
            Err(AdmissionError::DuplicateName)
        ));
        // An impossible deadline is rejected without reserving.
        assert!(matches!(
            plane.try_add_job(
                "impossible",
                Arc::new(Toy { work: 1.0e9 }),
                toy_indicator(),
                SimDuration::from_mins(1),
                1.0,
            ),
            Err(AdmissionError::Infeasible)
        ));
        drop(first);
        // Dropping the admitted handle frees the reservation.
        assert_eq!(plane.reserved(), 0);
        assert!(plane
            .try_add_job(
                "small",
                Arc::new(Toy { work: 3_600.0 }),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .is_ok());
    }

    #[test]
    fn slo_jobs_serve_their_reservation_before_the_first_refresh() {
        // SLO admissions do not force a refresh (under churn that would
        // degenerate into per-tick arbitration); until the periodic
        // refresh folds them in, their ticks serve the ledger
        // reservation — not the 1-token floor, and not a stale snapshot
        // entry left by a previous occupant of a recycled slot id.
        let plane = ControlPlane::new(20);
        let mut big = plane
            .try_add_job(
                "big",
                Arc::new(Toy { work: 36_000.0 }),
                toy_indicator(),
                SimDuration::from_mins(60), // needs 10 tokens
                1.0,
            )
            .unwrap();
        let mut side = plane
            .try_add_job(
                "side",
                Arc::new(Toy { work: 36_000.0 }),
                toy_indicator(),
                SimDuration::from_mins(120), // needs 5 tokens
                1.0,
            )
            .unwrap();
        // Epoch is 2 ticks: the fleet's first tick precedes any refresh
        // and must serve the new job's reservation as the raw share.
        assert_eq!(big.tick(&status(0, 0.0, 0)).raw, Some(10.0));
        // side's first tick lands on the epoch boundary: it refreshes
        // and reads an arbitrated share instead.
        side.tick(&status(0, 0.0, 0));
        // "big" finishes; its recycled slot id goes to a small job whose
        // first tick must see its own 2-token reservation, not the dead
        // job's snapshot entry.
        big.tick(&status(10, 1.0, 10));
        assert!(big.is_released());
        let freed = big.id();
        side.tick(&status(10, 0.3, 5)); // epoch boundary: refreshes
        let mut next = plane
            .try_add_job(
                "next",
                Arc::new(Toy { work: 7_200.0 }),
                toy_indicator(),
                SimDuration::from_mins(60), // needs 2 tokens
                1.0,
            )
            .unwrap();
        assert_eq!(next.id(), freed, "slot id should be recycled");
        assert_eq!(next.tick(&status(11, 0.0, 0)).raw, Some(2.0));
    }

    #[test]
    fn finished_slo_jobs_free_their_reservation() {
        let plane = ControlPlane::new(12);
        let mut h = plane
            .try_add_job(
                "recurring",
                Arc::new(Toy { work: 7_200.0 }),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .unwrap();
        assert_eq!(plane.reserved(), 2);
        h.tick(&status(0, 0.0, 0));
        h.tick(&status(30, 1.0, 2));
        assert!(h.is_released());
        assert_eq!(plane.reserved(), 0);
        assert_eq!(plane.active_jobs(), 0);
        // The name is reusable for the next recurrence.
        assert!(plane
            .try_add_job(
                "recurring",
                Arc::new(Toy { work: 7_200.0 }),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .is_ok());
    }

    /// [`Toy`] with a straggler tail the speculative surface removes.
    struct TailToy {
        work: f64,
        tail: f64,
    }

    impl CompletionModel for TailToy {
        fn remaining_secs(&self, _fs: &[f64], progress: f64, allocation: u32) -> f64 {
            self.tail * self.work * (1.0 - progress) / f64::from(allocation.max(1))
        }
        fn max_allocation(&self) -> u32 {
            100
        }
    }

    fn tail_levels(work: f64, tail: f64, clone_budget: u32) -> Vec<crate::alloc::SpeculationLevel> {
        vec![
            crate::alloc::SpeculationLevel {
                label: "off".into(),
                clone_budget: 0,
                model: Arc::new(TailToy { work, tail }),
            },
            crate::alloc::SpeculationLevel {
                label: "clone@2.0x".into(),
                clone_budget,
                model: Arc::new(TailToy { work, tail: 1.0 }),
            },
        ]
    }

    #[test]
    fn speculative_admission_prices_the_clone_budget() {
        let plane = ControlPlane::new(20);
        // Tail doubles the plain surface: 36 000 s in 60 min needs 20
        // plain tokens but only 10 + 2 with cloning.
        let (h, d) = plane
            .try_add_job_speculative(
                "tailed",
                &tail_levels(36_000.0, 2.0, 2),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .expect("fits with speculation");
        assert_eq!(d.level, 1);
        assert_eq!(d.allocation, 10);
        assert_eq!(d.total_tokens, 12);
        // The ledger holds the *total*: guarantee plus clone budget.
        assert_eq!(plane.reserved(), 12);
        let s = plane.stats();
        assert_eq!(s.speculative_admissions, 1);
        assert_eq!(s.clone_tokens_reserved, 2);
        plane.record_speculation(7, 3);
        let s = plane.stats();
        assert_eq!(s.clone_tasks_launched, 7);
        assert_eq!(s.clone_wins, 3);
        drop(h);
        assert_eq!(plane.reserved(), 0, "total reservation freed on drop");
    }

    #[test]
    fn speculative_admission_falls_back_to_level_zero() {
        // No tail: speculation is pure surcharge, level 0 must win and
        // the speculative counters stay untouched.
        let plane = ControlPlane::new(20);
        let (_h, d) = plane
            .try_add_job_speculative(
                "plain",
                &tail_levels(36_000.0, 1.0, 2),
                toy_indicator(),
                SimDuration::from_mins(60),
                1.0,
            )
            .unwrap();
        assert_eq!(d.level, 0);
        assert_eq!(d.total_tokens, d.allocation);
        assert_eq!(plane.reserved(), d.allocation);
        let s = plane.stats();
        assert_eq!(s.speculative_admissions, 0);
        assert_eq!(s.clone_tokens_reserved, 0);
    }

    #[test]
    fn speculative_admission_rejects_on_total_cost() {
        // The guarantee alone (10) fits a 11-token plane, but the
        // total with the clone budget (12) does not: capacity is judged
        // against what speculation actually holds.
        let plane = ControlPlane::new(11);
        match plane.try_add_job_speculative(
            "tailed",
            &tail_levels(36_000.0, 2.0, 2),
            toy_indicator(),
            SimDuration::from_mins(60),
            1.0,
        ) {
            Err(AdmissionError::InsufficientCapacity {
                required,
                available,
            }) => assert_eq!((required, available), (12, 11)),
            Err(other) => panic!("unexpected error {other}"),
            Ok(_) => panic!("expected capacity rejection"),
        }
        assert_eq!(plane.reserved(), 0);
    }

    #[test]
    fn registered_model_stats_surface_in_plane_stats() {
        let plane = ControlPlane::new(8);
        let a = ModelLifecycleStats::shared();
        let b = ModelLifecycleStats::shared();
        plane.register_model_stats(a.clone());
        plane.register_model_stats(b.clone());
        a.generations_swapped.fetch_add(3, Ordering::Relaxed);
        a.drift_detections.fetch_add(1, Ordering::Relaxed);
        b.generations_swapped.fetch_add(2, Ordering::Relaxed);
        b.prior_hits.fetch_add(4, Ordering::Relaxed);
        b.prior_misses.fetch_add(5, Ordering::Relaxed);
        let s = plane.stats();
        assert_eq!(s.model_generations_swapped, 5);
        assert_eq!(s.drift_detections, 1);
        assert_eq!(s.prior_hits, 4);
        assert_eq!(s.prior_misses, 5);
        // The plane's own counters are untouched by registration.
        assert_eq!(s.ticks, 0);
        assert_eq!(s.refreshes, 0);
    }

    #[test]
    fn plane_managed_jobs_share_a_cluster_budget() {
        // End-to-end: two trained jobs run concurrently in ClusterSim
        // under one plane.
        let trained_job = |seed: u64| {
            let mut b = JobGraphBuilder::new(format!("plane-{seed}"));
            let m = b.stage("map", 24);
            let r = b.stage("reduce", 2);
            b.edge(m, r, EdgeKind::AllToAll);
            let graph = Arc::new(b.build().unwrap());
            let spec = JobSpec::uniform(graph.clone(), Constant(20.0), Constant(0.5), 0.0);
            let mut sim = ClusterSim::new(ClusterConfig::dedicated(6), seed);
            sim.add_job(spec, Box::new(FixedAllocation(6)));
            (graph.clone(), sim.run_single().profile)
        };
        let (g1, p1) = trained_job(1);
        let (g2, p2) = trained_job(2);
        let ctx1 = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &g1, &p1, None);
        let ctx2 = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &g2, &p2, None);
        let cfg = TrainConfig::fast(vec![1, 2, 4, 8, 12]);
        let m1 = Arc::new(CpaModel::train(&g1, &p1, &ctx1, &cfg, 3));
        let m2 = Arc::new(CpaModel::train(&g2, &p2, &ctx2, &cfg, 4));
        let d1 = SimDuration::from_secs_f64(m1.fresh_latency(12) * 1.6);
        let d2 = SimDuration::from_secs_f64(m2.fresh_latency(12) * 5.0);

        let plane = ControlPlane::new(12);
        let c1 = plane
            .try_add_job("tight", m1.clone(), ctx1, d1, 1.2)
            .expect("tight job fits");
        let c2 = plane
            .try_add_job("loose", m2.clone(), ctx2, d2, 1.2)
            .expect("loose job fits");
        let mut cluster = ClusterConfig::dedicated(12);
        cluster.max_guarantee = 12;
        cluster.control_period = SimDuration::from_secs(15);
        let mut sim = ClusterSim::new(cluster, 9);
        let i1 = sim.add_job(JobSpec::from_profile(g1.clone(), &p1), Box::new(c1));
        let i2 = sim.add_job(JobSpec::from_profile(g2.clone(), &p2), Box::new(c2));
        let results = sim.run();
        let l1 = results[i1].duration().expect("job 1 finished");
        let l2 = results[i2].duration().expect("job 2 finished");
        assert!(l1 <= d1, "tight job missed: {l1:?} vs {d1:?}");
        assert!(l2 <= d2, "loose job missed: {l2:?} vs {d2:?}");
        // Combined medians stay within the plane's budget.
        assert!(
            results[i1].trace.median_guarantee() + results[i2].trace.median_guarantee()
                <= 12.0 + 1e-9
        );
    }
}
