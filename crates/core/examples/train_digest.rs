//! Prints a digest of a fixed-seed `C(p, a)` training table — a quick
//! way to confirm training determinism across code changes — and a
//! second digest of a bounded-sketch model trained on the same profile,
//! whose cells have compacted into several levels, so the serialized
//! `.l<i>` level lists and `.c` compaction counters are covered too:
//!
//! ```text
//! cargo run --release -p jockey-core --example train_digest
//! ```

use std::sync::Arc;

use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec};
use jockey_core::cpa::{CpaModel, TrainConfig};
use jockey_core::progress::{IndicatorContext, ProgressIndicator};
use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
use jockey_simrt::dist::Uniform;
use jockey_simrt::rng::fnv1a;

fn main() {
    let mut b = JobGraphBuilder::new("digest-job");
    let m = b.stage("map", 24);
    let mid = b.stage("mid", 24);
    let r = b.stage("reduce", 4);
    b.edge(m, mid, EdgeKind::OneToOne);
    b.edge(mid, r, EdgeKind::AllToAll);
    let graph = Arc::new(b.build().unwrap());

    let spec = JobSpec::uniform(
        graph.clone(),
        Uniform::new(5.0, 15.0),
        Uniform::new(0.0, 1.0),
        0.05,
    );
    let mut sim = ClusterSim::new(ClusterConfig::dedicated_with_failures(12), 77);
    sim.add_job(spec, Box::new(FixedAllocation(12)));
    let profile = sim.run_single().profile;

    let ctx = IndicatorContext::new(ProgressIndicator::TotalWorkWithQ, &graph, &profile, None);
    let cfg = TrainConfig {
        allocations: vec![2, 4, 8, 16],
        runs_per_allocation: 6,
        ..TrainConfig::fast(vec![2])
    };
    let model = CpaModel::train(&graph, &profile, &ctx, &cfg, 1234);
    let text = model.to_kv().to_text();
    println!("profile_work={:.9}", profile.total_work());
    println!("samples={}", model.sample_count());
    println!("digest={:016x}", fnv1a(text.as_bytes()));

    // Capacity-8 sketches over 24 runs per allocation: the busiest
    // cells compact twice over, writing `.l1`, `.l2` and `.c` keys.
    let bounded_cfg = TrainConfig {
        runs_per_allocation: 24,
        sketch_capacity: Some(8),
        ..cfg
    };
    let bounded = CpaModel::train(&graph, &profile, &ctx, &bounded_cfg, 1234);
    let text = bounded.to_kv().to_text();
    for key in [".l1=", ".l2=", ".c="] {
        assert!(text.contains(key), "no {key:?} key in the bounded model");
    }
    println!("bounded_digest={:016x}", fnv1a(text.as_bytes()));
}
