//! Jockey: guaranteed job latency for data-parallel clusters.
//!
//! This crate implements the paper's contribution — the three
//! components of Fig. 2 plus the baselines and extensions evaluated in
//! §5:
//!
//! - [`cpa`]: the **offline job simulator pipeline** producing
//!   `C(p, a)`, the distribution of remaining completion time at
//!   progress `p` under token allocation `a` (§4.1). Training runs the
//!   shared cluster simulator in dedicated mode, replaying the job's
//!   measured profile, and indexes remaining times by a progress
//!   indicator.
//! - [`predict`]: the modified **Amdahl's-Law model** (§4.1) used by
//!   the "Jockey w/o simulator" baseline, and the [`predict::CompletionModel`]
//!   trait both predictors implement.
//! - [`progress`]: the six **job progress indicators** of §4.2/§5.4
//!   (`totalworkWithQ`, `totalwork`, `vertexfrac`, `cp`, `minstage`,
//!   `minstage-inf`).
//! - [`control`]: the **resource-allocation control loop** (§4.3): the
//!   pure [`alloc::ArgminPolicy`] decision core, then slack, dead-zone
//!   gate, hysteresis and min clamp as straight-line code, with one
//!   tick journal attributing every grant to the step that moved it.
//! - [`alloc`]: the side-effect-free **allocation policy**
//!   (progress → candidate utilities → raw argmin).
//! - [`plane`]: the **multi-job control plane**: N concurrent SLO jobs
//!   against one shared budget with sharded slots and an atomic
//!   snapshot instead of a global lock.
//! - [`utility`]: piecewise-linear job utility functions.
//! - [`policy`]: ready-made policies — Jockey, Jockey w/o adaptation,
//!   Jockey w/o simulator, and max-allocation — as used in §5.2.
//! - [`oracle`]: the oracle allocation `O(T, d) = ceil(T/d)` impact
//!   baseline (§5.1).
//! - [`admission`]: SLO admission control ("does this job fit?", §1).
//! - [`arbiter`]: the multi-job marginal-utility split (§4.4's future
//!   work), [`arbiter::arbitrate`]; the [`plane`] runs it live against
//!   one shared budget.
//! - [`fallback`]: the §5.6 fair-share fallback guard on persistent
//!   model error, a wrapper around any controller.
//! - [`recal`]: §4.4/§5.6 online model recalibration (runtime
//!   inflation tracking), a Jockey controller with a λ-scaled model.
//! - [`sketch`]: the mergeable per-cell **quantile sketch** backing
//!   `C(p, a)` cells — exact by default, bounded-memory on request,
//!   with a tracked rank-error bound.
//! - [`online`]: the **online model lifecycle** — versioned model
//!   store with atomic generation swap, drift detection over observed
//!   vs. predicted completions, and a structure-keyed prior library
//!   for cold-start jobs.
//!
//! # Examples
//!
//! See `examples/quickstart.rs` in the workspace root for the
//! end-to-end flow: profile a job, train `C(p, a)`, and run the control
//! loop against a noisy shared cluster.

pub mod admission;
pub mod alloc;
pub mod arbiter;
pub mod control;
pub mod cpa;
pub mod fallback;
pub mod online;
pub mod oracle;
pub mod plane;
pub mod policy;
pub mod predict;
pub mod progress;
pub mod recal;
pub mod sketch;
pub mod utility;

pub use admission::{AdmissionController, AdmissionError, Reservation};
pub use alloc::{ArgminPolicy, SpeculationLevel, SpeculativeDecision};
pub use control::{ControlParams, ControlTick, InvalidControlParams, JockeyController};
pub use cpa::{CpaModel, InvalidTrainConfig, ModelLoadError, RunObservation, TrainConfig};
pub use fallback::FallbackGuard;
pub use online::{
    structure_hash, AbsorbOutcome, DriftConfig, DriftDetector, ModelHandle, ModelLifecycleStats,
    ModelStore, OnlineConfig, PriorLibrary, RecordedRun,
};
pub use oracle::oracle_allocation;
pub use plane::{ControlPlane, JobHandle, PlaneStats};
pub use policy::Policy;
pub use predict::{min_feasible_allocation, AmdahlModel, CompletionModel};
pub use progress::{IndicatorContext, ProgressIndicator};
pub use recal::{recalibrated, RecalibratingController, ScaledModel};
pub use sketch::CellSketch;
pub use utility::UtilityFunction;
