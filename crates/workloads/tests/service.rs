//! Driver-level tests: the open-loop service must conserve every
//! counter, drain the plane, keep deterministic sampling — and, in the
//! learned modes, lose SLOs under drift with a frozen model while an
//! online one adapts and recovers them.

use jockey_core::online::{DriftConfig, OnlineConfig, PriorLibrary};
use jockey_workloads::service::{
    run_service, run_service_with_priors, DriftSpec, ModelMode, ServiceConfig,
};

fn small_cfg() -> ServiceConfig {
    ServiceConfig {
        // Each worker's 6-slot pool wants ~15 tokens on average, so the
        // ledger oversubscribes even when thread scheduling serializes
        // the workers — capacity rejects cannot depend on interleaving.
        budget: 12,
        workers: 4,
        concurrent_per_worker: 6,
        submissions_per_worker: 60,
        tick_secs: 60.0,
        deadline_secs: (1_800.0, 5_400.0),
        tokens_needed: (1, 4),
        slack: 1.2,
        deadline_change_every: 5,
        seed: 11,
        model: ModelMode::Exact,
        family_work: 3_600.0,
        drift: None,
        online: OnlineConfig::default(),
        speculation: None,
    }
}

/// The seeded drift scenario: a recurring family whose true work
/// tripled. Six 2-token jobs exactly saturate the 12-token budget at
/// the nominal sizing, so stale predictions cannot be rescued by spare
/// capacity.
fn drift_cfg(model: ModelMode) -> ServiceConfig {
    ServiceConfig {
        budget: 12,
        workers: 1,
        concurrent_per_worker: 6,
        submissions_per_worker: 36,
        tick_secs: 60.0,
        deadline_secs: (5_200.0, 5_800.0),
        tokens_needed: (1, 4),
        slack: 1.2,
        deadline_change_every: 0,
        seed: 23,
        model,
        family_work: 3_600.0,
        drift: Some(DriftSpec {
            factor: 4.0,
            at_frac: 0.0,
        }),
        online: OnlineConfig {
            drift: DriftConfig {
                window: 12,
                min_observations: 6,
                z_threshold: 3.0,
                percentile: 95.0,
            },
            retain_runs: 32,
        },
        speculation: None,
    }
}

#[test]
fn service_run_conserves_jobs_and_drains_the_plane() {
    let cfg = small_cfg();
    let report = run_service(&cfg);

    let total = (cfg.workers * cfg.submissions_per_worker) as u64;
    assert_eq!(report.submitted, total);
    assert_eq!(
        report.admitted + report.rejected_capacity + report.rejected_infeasible,
        report.submitted,
        "every submission is admitted or rejected"
    );
    // Sampled jobs are feasible by construction; only capacity rejects.
    assert_eq!(report.rejected_infeasible, 0);
    // Every admitted job is driven to completion by the worker loop.
    assert_eq!(report.completed, report.admitted);
    assert!(report.admitted > 0, "nothing was admitted: {report:?}");

    // After the run every handle has dropped: the ledger and the active
    // fleet must both drain to zero (the slot-leak regression).
    assert_eq!(report.final_reserved, 0, "leaked reservations");
    assert_eq!(report.final_active, 0, "leaked active jobs");

    // The slot table is bounded by peak concurrency, not total jobs.
    assert!(
        report.max_slot_count <= cfg.workers * cfg.concurrent_per_worker,
        "slot table {} exceeds the concurrency target",
        report.max_slot_count
    );

    // Admission-guarded jobs at slack 1.2 on an exact model: SLO
    // attainment stays high even with mid-flight deadline tightening.
    assert!(
        report.slo_attainment() >= 0.9,
        "attainment {} (met {} of {})",
        report.slo_attainment(),
        report.slo_met,
        report.completed
    );
    assert!(report.deadline_changes > 0, "churn path never exercised");

    // The ledger admits only what fits: with worker pools wanting
    // ~2.5 tokens per slot against a 12-token budget, some submissions
    // must have been refused.
    assert!(report.rejected_capacity > 0, "{report:?}");

    // Refreshes stay amortized: many ticks per refresh on average.
    assert!(
        report.ticks_per_refresh() > 2.0,
        "refresh cadence collapsed: {:?}",
        report.stats
    );
}

#[test]
fn tick_latency_is_ordered_and_its_max_covers_every_refresh() {
    // Several workers share the plane, so refreshes race ticks and
    // deadline changes make ticks wait; the percentiles come from the
    // sampled ticks and the maximum also covers the plane's refreshes
    // and waits.
    let report = run_service(&small_cfg());
    assert!(report.stats.refreshes > 0, "{:?}", report.stats);
    assert!(report.stats.slow_tick_max_ns > 0, "{:?}", report.stats);
    assert!(
        0.0 < report.tick_p50_us
            && report.tick_p50_us <= report.tick_p99_us
            && report.tick_p99_us <= report.tick_max_us,
        "p50 {} p99 {} max {}",
        report.tick_p50_us,
        report.tick_p99_us,
        report.tick_max_us
    );
    assert!(
        report.tick_max_us >= report.stats.slow_tick_max_ns as f64 / 1_000.0,
        "max {} us below the plane's slowest refresh or wait {} ns",
        report.tick_max_us,
        report.stats.slow_tick_max_ns
    );
}

#[test]
fn service_counters_are_deterministic_per_seed() {
    // Wall-clock numbers vary run to run, but the virtual-time outcome
    // (admissions, completions, SLO hits) is a pure function of the
    // seed and the worker-local virtual lockstep.
    let cfg = ServiceConfig {
        workers: 1,
        ..small_cfg()
    };
    let a = run_service(&cfg);
    let b = run_service(&cfg);
    assert_eq!(a.submitted, b.submitted);
    assert_eq!(a.admitted, b.admitted);
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.slo_met, b.slo_met);
    assert_eq!(a.deadline_changes, b.deadline_changes);
}

#[test]
fn frozen_model_loses_slos_under_drift_and_the_online_model_restores_them() {
    // Phase 1 — frozen: the family's true work tripled but the model
    // still predicts the nominal regime, so admission undersizes every
    // reservation and the saturated budget cannot cover the shortfall.
    let frozen = run_service(&drift_cfg(ModelMode::Frozen));
    assert!(frozen.completed > 0, "{frozen:?}");
    assert!(
        frozen.slo_attainment() <= 0.4,
        "stale model should lose SLOs: attainment {} ({} of {})",
        frozen.slo_attainment(),
        frozen.slo_met,
        frozen.completed
    );
    // A frozen model never learns: no generations, no drift handling.
    assert_eq!(frozen.stats.model_generations_swapped, 0);
    assert_eq!(frozen.stats.drift_detections, 0);

    // Phase 2 — online: completions feed back through the store; the
    // windowed sign-test sees observed latencies blow through the
    // admission-time promises and fires a window retrain.
    let priors = PriorLibrary::new();
    let adapting = run_service_with_priors(&drift_cfg(ModelMode::Online), &priors);
    assert!(
        adapting.stats.drift_detections >= 1,
        "drift never detected: {:?}",
        adapting.stats
    );
    assert!(
        adapting.stats.model_generations_swapped >= adapting.completed,
        "every completion publishes a generation: {:?}",
        adapting.stats
    );
    assert_eq!(adapting.stats.prior_misses, 1, "cold start misses once");

    // Phase 3 — the next recurrence of the service starts from the
    // adapted prior: jobs are sized for the drifted regime up front and
    // the SLOs the frozen model lost are met again.
    let recovered = run_service_with_priors(&drift_cfg(ModelMode::Online), &priors);
    assert!(
        recovered.stats.prior_hits >= 1,
        "warm start should hit the prior library: {:?}",
        recovered.stats
    );
    assert!(recovered.completed > 0, "{recovered:?}");
    assert!(
        recovered.slo_attainment() >= 0.8
            && recovered.slo_attainment() >= frozen.slo_attainment() + 0.3,
        "adapted model should restore SLOs: frozen {} vs recovered {} ({} of {})",
        frozen.slo_attainment(),
        recovered.slo_attainment(),
        recovered.slo_met,
        recovered.completed
    );
}

#[test]
fn stationary_online_service_never_fires_the_drift_detector() {
    // Same saturated service, no regime change: online learning must be
    // a no-op in steady state — generations advance with absorbed
    // completions, but the detector stays quiet and SLOs hold.
    let cfg = ServiceConfig {
        drift: None,
        ..drift_cfg(ModelMode::Online)
    };
    let report = run_service(&cfg);
    assert!(report.completed > 0, "{report:?}");
    assert_eq!(
        report.stats.drift_detections, 0,
        "spurious drift fire: {:?}",
        report.stats
    );
    assert!(
        report.stats.model_generations_swapped >= report.completed,
        "{:?}",
        report.stats
    );
    assert!(
        report.slo_attainment() >= 0.9,
        "stationary attainment collapsed: {} ({} of {})",
        report.slo_attainment(),
        report.slo_met,
        report.completed
    );
}

/// A pinned golden for the online admission service that, unlike the
/// benchmark's digest (one instance per core), does not depend on the
/// machine: one worker, `ModelMode::Online`, the family's true work
/// drifting 1.5x at the halfway point. With one worker every count is
/// a pure function of the seed, so any change to sizing, arbitration,
/// absorb or publish that moves an outcome shows up here.
#[test]
fn online_drift_service_counts_are_pinned() {
    let cfg = ServiceConfig {
        budget: 150,
        workers: 1,
        concurrent_per_worker: 100,
        submissions_per_worker: 2_000,
        model: ModelMode::Online,
        drift: Some(DriftSpec {
            factor: 1.5,
            at_frac: 0.5,
        }),
        seed: 7,
        ..ServiceConfig::default()
    };
    let r = run_service(&cfg);
    assert_eq!(r.submitted, 2_000);
    assert_eq!(r.admitted, 1_242);
    assert_eq!(r.rejected_capacity, 758);
    assert_eq!(r.rejected_infeasible, 0);
    assert_eq!(r.completed, 1_242);
    assert_eq!(r.slo_met, 1_242);
    assert_eq!(r.deadline_changes, 178);
    assert_eq!(r.stats.model_generations_swapped, 1_242);
    assert_eq!(r.stats.drift_detections, 10);
}
