//! Shared helpers for the criterion benchmark targets.
//!
//! Each paper table/figure has a benchmark in `benches/figures.rs`
//! that regenerates it at smoke scale; `benches/kernels.rs` measures
//! the hot paths (cluster simulation, C(p,a) training and queries,
//! progress indicators); `benches/control_plane.rs` times control
//! ticks and plane rounds; `benches/ablations.rs` compares design
//! alternatives called out in DESIGN.md (progress indicators,
//! prediction models).

use std::sync::OnceLock;

use jockey_core::cpa::{CpaModel, RunObservation, TrainConfig};
use jockey_experiments::env::{Env, Scale};

/// A process-wide smoke-scale environment, built once and shared by
/// every benchmark (training is far more expensive than any single
/// measured iteration).
pub fn smoke_env() -> &'static Env {
    static ENV: OnceLock<Env> = OnceLock::new();
    ENV.get_or_init(|| Env::build(Scale::Smoke, 42))
}

/// A service family's learned model, in the shape the benchmark's
/// `service` workload gives it: every allocation in `1..=max_tokens`
/// on 16 progress bins with 64-item sketches, seeded with one run per
/// allocation that does `work` seconds of work at that allocation and
/// samples each bin, so no row has an empty cell.
pub fn family_model(work: f64, max_tokens: u32) -> CpaModel {
    let cfg = TrainConfig {
        progress_bins: 16,
        percentile: 95.0,
        sketch_capacity: Some(64),
        ..TrainConfig::fast((1..=max_tokens).collect())
    };
    let mut model = CpaModel::empty(&cfg);
    for a in 1..=max_tokens {
        let total = work / f64::from(a);
        let obs: Vec<RunObservation> = (0..=16)
            .map(|i| RunObservation {
                elapsed_secs: total * f64::from(i) / 16.0,
                progress: f64::from(i) / 16.0,
                allocation: a,
            })
            .collect();
        model.absorb_observations(&obs, total, true);
    }
    model
}
