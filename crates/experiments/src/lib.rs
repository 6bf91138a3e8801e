//! The evaluation harness: regenerates every table and figure of the
//! paper's §2 measurement study and §5 evaluation through a
//! declarative experiment pipeline.
//!
//! Each figure/table has a module under [`figures`] exposing a
//! `run(&Env) -> …` entry point and an [`experiment::Experiment`]
//! registration. The `jockey-repro` binary drives the whole pipeline: `--list` shows the registry, `--only fig6,table1`
//! selects a subset, `--jobs N` pins the worker count, and outputs land
//! as TSVs under `results/`.
//!
//! The harness layers, bottom up:
//!
//! - [`env`](mod@env): builds the evaluation jobs (Table 2's A–G plus synthetic
//!   recurring jobs), their training profiles and trained
//!   [`jockey_core::policy::JockeySetup`]s, at three scales (smoke /
//!   quick / full), optionally loading trained models from the on-disk
//!   artifact cache.
//! - [`slo`]: runs one SLO-controlled job execution in the shared
//!   cluster and extracts the §5.1 metrics (deadline met, completion
//!   relative to deadline, allocation above oracle, allocation stats).
//! - [`par`]: a deterministic parallel map used for experiment sweeps
//!   and the pipeline runner.
//! - [`artifact`]: the [`artifact::ArtifactStore`] memoizing expensive
//!   shared products (the §5.2 sweep, Fig. 6 scenario traces, trained
//!   `C(p, a)` models via `JOCKEY_ARTIFACTS`).
//! - [`experiment`]: the [`experiment::Experiment`] trait and static
//!   registry — each figure declares its artifact needs and returns
//!   emissions as data.
//! - [`runner`]: topologically orders experiments by artifact
//!   dependencies, executes independent ones in parallel, and emits
//!   outputs serially in registry order (byte-identical at any
//!   `--jobs` level).
//! - [`report`]: results directory, table output and self-check
//!   parsing helpers.
//! - [`cli`]: the `jockey-repro` command line on top of it all.

pub mod artifact;
pub mod cli;
pub mod env;
pub mod experiment;
pub mod figures;
pub mod par;
pub mod report;
pub mod runner;
pub mod slo;

pub use artifact::{ArtifactId, ArtifactStore};
pub use env::{Env, EvalJob, Scale};
pub use experiment::{Emission, Experiment};
pub use slo::{run_slo, SloConfig, SloOutcome};
