//! Equivalence of the batched dense-regime run loop against the
//! event-granular reference.
//!
//! The engine's completion batching (`ClusterSim::set_batching`)
//! drains same-instant `TaskDone` events as one batch and runs a
//! single merged scheduler pass. Its contract is *bit-identical
//! results*: task state, RNG streams, results, traces and progress
//! samples all match per-event stepping — only observer/journal line
//! interleaving may differ. These tests pin that contract across
//! random DAGs, seeds, queue backends, a rack topology and a
//! multi-job cluster, comparing everything a run returns except
//! journals.

use std::sync::Arc;

use jockey_cluster::{
    ClusterConfig, ClusterSim, FixedAllocation, JobResult, JobSpec, RunHooks, TopologyConfig,
};
use jockey_jobgraph::graph::{EdgeKind, JobGraph, JobGraphBuilder};
use jockey_simrt::dist::{Constant, LogNormal};
use jockey_simrt::event::QueueBackend;
use jockey_simrt::observe::ProgressSink;
use proptest::prelude::*;

/// One progress-sample record: `(job, elapsed_secs, stage_fractions)`.
type Sample = (usize, f64, Vec<f64>);

/// Collects every progress sample a run emits, exactly as training's
/// borrowed sink sees them.
#[derive(Default)]
struct SampleLog(Vec<Sample>);

impl ProgressSink for SampleLog {
    fn sample(&mut self, job: usize, elapsed_secs: f64, stage_fraction: &[f64]) {
        self.0.push((job, elapsed_secs, stage_fraction.to_vec()));
    }
}

/// Random fork/chain DAGs with consistent one-to-one task counts
/// (same shape family as `props.rs`).
fn arb_graph() -> impl Strategy<Value = Arc<JobGraph>> {
    (
        proptest::collection::vec((1_usize..4, 1_u32..8), 1..5),
        any::<u64>(),
    )
        .prop_map(|(segments, link_seed)| {
            let mut b = JobGraphBuilder::new("batch-equiv");
            let mut last = Vec::new();
            for (si, &(len, tasks)) in segments.iter().enumerate() {
                let mut prev = None;
                for k in 0..len {
                    let s = b.stage(format!("s{si}_{k}"), tasks);
                    if let Some(p) = prev {
                        b.edge(p, s, EdgeKind::OneToOne);
                    }
                    prev = Some(s);
                }
                last.push(prev.expect("non-empty segment"));
            }
            for si in 1..last.len() {
                let from = (link_seed as usize + si) % si;
                let first_idx: usize = segments[..si].iter().map(|&(l, _)| l).sum();
                b.edge(
                    last[from],
                    jockey_jobgraph::StageId(first_idx),
                    EdgeKind::AllToAll,
                );
            }
            Arc::new(b.build().expect("valid by construction"))
        })
}

/// Runs `spec` once and returns the results plus the sample stream.
/// The batched arm turns invariant checks off (they force per-event
/// stepping); the reference arm leaves them on, so every compared run
/// also passes the per-step invariants.
fn run_arm(
    cfg: &ClusterConfig,
    specs: &[(JobSpec, u32)],
    seed: u64,
    batched: bool,
) -> (Vec<JobResult>, Vec<Sample>) {
    let mut sim = ClusterSim::new(cfg.clone(), seed);
    sim.set_batching(batched);
    sim.set_invariant_checks(!batched);
    for (spec, alloc) in specs {
        sim.add_job(spec.clone(), Box::new(FixedAllocation(*alloc)));
    }
    let mut sink = SampleLog::default();
    let results = sim.run_hooked(RunHooks {
        sink: Some(&mut sink),
        reclaim: None,
    });
    (results, sink.0)
}

/// Asserts two runs returned bit-identical observable outcomes:
/// result fields, traces, profiles and the progress-sample stream.
fn assert_equivalent(cfg: &ClusterConfig, specs: &[(JobSpec, u32)], seed: u64) {
    let (reference, ref_samples) = run_arm(cfg, specs, seed, false);
    let (batched, batch_samples) = run_arm(cfg, specs, seed, true);
    assert_eq!(reference.len(), batched.len());
    for (r, b) in reference.iter().zip(&batched) {
        assert_eq!(r.name, b.name);
        assert_eq!(r.started_at, b.started_at);
        assert_eq!(r.completed_at, b.completed_at, "completion for {}", r.name);
        assert_eq!(
            r.work_done_secs.to_bits(),
            b.work_done_secs.to_bits(),
            "work for {}",
            r.name
        );
        assert_eq!(
            r.wasted_secs.to_bits(),
            b.wasted_secs.to_bits(),
            "waste for {}",
            r.name
        );
        assert_eq!(r.guaranteed_task_count, b.guaranteed_task_count);
        assert_eq!(r.spare_task_count, b.spare_task_count);
        assert_eq!(r.trace.guarantee, b.trace.guarantee);
        assert_eq!(r.trace.raw_allocation, b.trace.raw_allocation);
        assert_eq!(r.trace.running, b.trace.running);
        assert_eq!(r.trace.progress, b.trace.progress);
        assert_eq!(r.trace.predicted_completion, b.trace.predicted_completion);
        assert_eq!(r.trace.background_util, b.trace.background_util);
        assert_eq!(r.trace.stage_fractions, b.trace.stage_fractions);
        assert_eq!(r.profile, b.profile, "profile for {}", r.name);
    }
    assert_eq!(ref_samples, batch_samples, "progress sample streams");
}

/// The dense training regime: a dedicated failure-prone cluster where
/// the gate holds and batches actually form.
fn training_cfg(backend: QueueBackend) -> ClusterConfig {
    let mut cfg = ClusterConfig::dedicated_with_failures(8);
    cfg.queue_backend = backend;
    cfg
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Batched == reference over random DAGs, seeds and failure rates
    /// on every queue backend, in the gated (dedicated) regime where
    /// same-instant completion batches actually form (constant
    /// runtimes make whole stage waves finish at one instant).
    #[test]
    fn batched_matches_reference_dense(
        graph in arb_graph(),
        fail_prob in 0.0_f64..0.3,
        seed in any::<u64>(),
    ) {
        let spec = JobSpec::uniform(graph, Constant(4.0), Constant(0.2), fail_prob);
        for backend in [QueueBackend::BinaryHeap, QueueBackend::Adaptive] {
            assert_equivalent(&training_cfg(backend), &[(spec.clone(), 8)], seed);
        }
    }

    /// Batched == reference with jittered runtimes (batches are rarer
    /// and interleave with per-event steps) and two competing jobs
    /// sharing the merged scheduler pass.
    #[test]
    fn batched_matches_reference_two_jobs(
        graph_a in arb_graph(),
        graph_b in arb_graph(),
        seed in any::<u64>(),
    ) {
        let a = JobSpec::uniform(
            graph_a,
            LogNormal::from_median_p90(3.0, 8.0),
            Constant(0.2),
            0.05,
        );
        let b = JobSpec::uniform(graph_b, Constant(5.0), Constant(0.0), 0.0);
        let cfg = training_cfg(QueueBackend::Adaptive);
        assert_equivalent(&cfg, &[(a, 5), (b, 3)], seed);
    }

    /// Enabling batching under a disqualifying config (spare capacity,
    /// background load) is a no-op: the static gate keeps the run on
    /// the per-event path, so results still match exactly.
    #[test]
    fn batching_is_inert_when_gated_off(graph in arb_graph(), seed in any::<u64>()) {
        let spec = JobSpec::uniform(
            graph,
            LogNormal::from_median_p90(2.0, 6.0),
            Constant(0.1),
            0.05,
        );
        let mut cfg = ClusterConfig::production();
        cfg.total_tokens = 60;
        cfg.max_guarantee = 10;
        assert_equivalent(&cfg, &[(spec, 6)], seed);
    }
}

/// Topology runs are statically gated off the batch path: machine
/// placement reads the free slots live, and a merged pass — which
/// frees every same-instant completion's slot before placing the
/// first replacement — genuinely places differently than interleaved
/// per-event passes (observed as divergent completion times before
/// the gate grew its topology arm). Enabling batching must therefore
/// be a no-op here, with results still matching exactly.
#[test]
fn batching_is_inert_on_topology() {
    let mut b = JobGraphBuilder::new("batch-equiv-topo");
    let m = b.stage("map", 24);
    let r = b.stage("reduce", 6);
    b.edge(m, r, EdgeKind::AllToAll);
    let graph = Arc::new(b.build().unwrap());
    let spec = JobSpec::uniform(graph, Constant(6.0), Constant(0.3), 0.05);
    for seed in [1_u64, 9, 42, 1234] {
        let mut cfg = training_cfg(QueueBackend::Adaptive);
        cfg.topology = Some(TopologyConfig::google_mix(2));
        assert_equivalent(&cfg, &[(spec.clone(), 8)], seed);
    }
}
