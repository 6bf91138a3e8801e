//! Property-based tests of the job-graph invariants.

use jockey_jobgraph::graph::{EdgeKind, JobGraph, JobGraphBuilder, StageId};
use jockey_jobgraph::profile::ProfileBuilder;
use jockey_jobgraph::task::{TaskDeps, TaskId};
use proptest::prelude::*;

/// Strategy: random layered DAGs. Stage `i` may receive edges only
/// from stages `< i`, so the construction is acyclic by design.
fn arb_graph() -> impl Strategy<Value = JobGraph> {
    (
        proptest::collection::vec(1_u32..12, 1..12),
        proptest::collection::vec((any::<u32>(), any::<bool>()), 0..20),
    )
        .prop_map(|(tasks, raw_edges)| {
            let mut b = JobGraphBuilder::new("prop");
            let ids: Vec<StageId> = tasks
                .iter()
                .enumerate()
                .map(|(i, &t)| b.stage(format!("s{i}"), t))
                .collect();
            let mut seen = std::collections::HashSet::new();
            for (raw, all2all) in raw_edges {
                if ids.len() < 2 {
                    break;
                }
                let to = 1 + (raw as usize) % (ids.len() - 1);
                let from = (raw as usize / ids.len().max(1)) % to;
                if !seen.insert((from, to)) {
                    continue;
                }
                // One-to-one requires equal task counts.
                let kind = if all2all || tasks[from] != tasks[to] {
                    EdgeKind::AllToAll
                } else {
                    EdgeKind::OneToOne
                };
                b.edge(ids[from], ids[to], kind);
            }
            b.build().expect("layered construction is valid")
        })
}

proptest! {
    /// Topological order puts every parent before its children.
    #[test]
    fn topo_order_respects_all_edges(g in arb_graph()) {
        let pos: std::collections::HashMap<StageId, usize> = g
            .topo_order()
            .iter()
            .enumerate()
            .map(|(i, &s)| (s, i))
            .collect();
        for e in g.edges() {
            prop_assert!(pos[&e.from] < pos[&e.to]);
        }
        prop_assert_eq!(g.topo_order().len(), g.num_stages());
    }

    /// The critical path dominates every stage's own cost and every
    /// single edge's two-stage path; and it is monotone in costs.
    #[test]
    fn critical_path_dominates_local_paths(
        g in arb_graph(),
        base in 0.1_f64..10.0,
    ) {
        let costs: Vec<f64> = (0..g.num_stages()).map(|i| base + i as f64).collect();
        let cp = g.critical_path(&costs);
        for s in g.stage_ids() {
            prop_assert!(cp >= costs[s.index()] - 1e-9);
        }
        for e in g.edges() {
            prop_assert!(cp >= costs[e.from.index()] + costs[e.to.index()] - 1e-9);
        }
        // Doubling costs doubles the critical path.
        let doubled: Vec<f64> = costs.iter().map(|c| c * 2.0).collect();
        prop_assert!((g.critical_path(&doubled) - 2.0 * cp).abs() < 1e-6);
    }

    /// `L_s` satisfies the Bellman relation: for each edge (u, v),
    /// `L_u >= cost_v + L_v`.
    #[test]
    fn longest_path_bellman_consistent(g in arb_graph()) {
        let costs: Vec<f64> = (0..g.num_stages()).map(|i| 1.0 + (i % 5) as f64).collect();
        let ls = g.longest_path_to_end(&costs);
        for e in g.edges() {
            prop_assert!(
                ls[e.from.index()] >= costs[e.to.index()] + ls[e.to.index()] - 1e-9
            );
        }
        for leaf in g.leaves() {
            prop_assert_eq!(ls[leaf.index()], 0.0);
        }
    }

    /// Task readiness: with no stage complete, exactly the root tasks
    /// are ready; with everything complete, every task is ready.
    #[test]
    fn readiness_boundary_conditions(g in arb_graph()) {
        let deps = TaskDeps::new(&g);
        let none = vec![0_u32; g.num_stages()];
        let all: Vec<u32> = g.stage_ids().map(|s| g.tasks_in(s)).collect();

        let initial = deps.initial_tasks();
        let root_count: u64 = g.roots().iter().map(|&s| u64::from(g.tasks_in(s))).sum();
        prop_assert_eq!(initial.len() as u64, root_count);
        for t in &initial {
            prop_assert!(deps.is_ready(*t, &none, |_| false));
        }
        for t in deps.all_tasks() {
            prop_assert!(deps.is_ready(t, &all, |_| true));
        }
    }

    /// Candidate dependents are sound: every candidate lists the
    /// completed task's stage among its parents.
    #[test]
    fn candidates_are_children(g in arb_graph()) {
        let deps = TaskDeps::new(&g);
        for s in g.stage_ids() {
            let t = TaskId::new(s, 0);
            for c in deps.candidate_dependents(t, true) {
                prop_assert!(
                    g.parents(c.stage).iter().any(|&(p, _)| p == s),
                    "candidate {:?} does not read {:?}", c, s
                );
            }
        }
    }

    /// Profiles round-trip through the text format for arbitrary
    /// recorded values. As after any finished run, every stage holds
    /// at least one observation (`from_kv` rejects an empty stage).
    #[test]
    fn profile_kv_roundtrip(
        g in arb_graph(),
        samples in proptest::collection::vec((0.0_f64..100.0, 0.0_f64..10.0), 1..40),
    ) {
        let mut pb = ProfileBuilder::new(&g);
        for i in 0..samples.len().max(g.num_stages()) {
            let (run, queue) = samples[i % samples.len()];
            let stage = StageId(i % g.num_stages());
            pb.record_task(stage, queue, run, i % 7 == 0);
        }
        let p = pb.finish(1000.0, 5.0);
        let round = jockey_jobgraph::profile::JobProfile::from_kv(&p.to_kv()).unwrap();
        prop_assert_eq!(round, p);
    }
}
