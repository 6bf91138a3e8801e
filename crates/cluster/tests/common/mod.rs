//! Strategies shared by the cluster integration tests.

use std::sync::Arc;

use jockey_jobgraph::graph::{EdgeKind, JobGraph, JobGraphBuilder};
use jockey_jobgraph::StageId;
use proptest::prelude::*;

/// Random fork/chain DAGs named `name`: one to four segments, each a
/// chain of one to three equal-width stages joined one-to-one, with
/// every later segment fed all-to-all from the end of an earlier one.
pub fn arb_graph(name: &'static str) -> impl Strategy<Value = Arc<JobGraph>> {
    (
        proptest::collection::vec((1_usize..4, 1_u32..8), 1..5),
        any::<u64>(),
    )
        .prop_map(move |(segments, link_seed)| {
            let mut b = JobGraphBuilder::new(name);
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
                // First stage of segment si.
                let first_idx: usize = segments[..si].iter().map(|&(l, _)| l).sum();
                b.edge(last[from], StageId(first_idx), EdgeKind::AllToAll);
            }
            Arc::new(b.build().expect("valid by construction"))
        })
}
