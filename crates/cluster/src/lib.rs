//! A Cosmos-like shared-cluster simulator.
//!
//! This crate is the substrate the Jockey controller runs against: a
//! discrete-event simulator of a data-parallel cluster with the
//! scheduling mechanisms §2 of the paper identifies as the sources of
//! latency variance:
//!
//! - **Token scheduling**: each job is guaranteed a number of tokens;
//!   one running task consumes one token, released on completion
//!   (§2.1). A job's guarantee is the control knob Jockey actuates.
//! - **Spare capacity**: unused tokens are redistributed to jobs with
//!   pending tasks. Spare-class tasks run at lower priority — slower,
//!   and **evicted** when the capacity is reclaimed (§2.4). The
//!   availability of spare tokens fluctuates with the background load.
//! - **Background load**: an Ornstein–Uhlenbeck utilization process
//!   with occasional overload events stands in for the thousands of
//!   other jobs in the production cluster, driving both spare-token
//!   availability and a cluster-wide slowdown factor.
//! - **Failures**: per-task failure probability (rerun), and
//!   machine-failure events that kill running tasks and can force
//!   recomputation of completed tasks in unfinished stages — the
//!   "failures before a barrier particularly delay progress" effect.
//!
//! The same simulator doubles as Jockey's *offline job simulator*
//! (§4.1): configured with a fixed token allocation, no background load
//! and no spare capacity, it reproduces exactly the event set the paper
//! describes ("allocating tasks to machines, restarting failed tasks and
//! scheduling tasks as their inputs become available").
//!
//! # Examples
//!
//! ```
//! use std::sync::Arc;
//! use jockey_cluster::{ClusterConfig, ClusterSim, FixedAllocation, JobSpec};
//! use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
//! use jockey_simrt::dist::Constant;
//!
//! let mut b = JobGraphBuilder::new("tiny");
//! let m = b.stage("map", 4);
//! let r = b.stage("reduce", 2);
//! b.edge(m, r, EdgeKind::AllToAll);
//! let graph = Arc::new(b.build().unwrap());
//! let spec = JobSpec::uniform(graph, Constant(10.0), Constant(0.5), 0.0);
//!
//! let mut sim = ClusterSim::new(ClusterConfig::dedicated(4), 7);
//! sim.add_job(spec, Box::new(FixedAllocation(4)));
//! let results = sim.run();
//! assert!(results[0].completed_at.is_some());
//! ```

pub mod background;
pub mod config;
pub mod controller;
pub mod engine;
mod failure;
mod invariants;
pub mod job;
mod scheduler;
pub mod sim;
mod speculation;
pub mod topology;
pub mod trace;
pub mod workspace;

pub use background::BackgroundModel;
pub use config::{
    BackgroundConfig, ClusterConfig, FailureConfig, InvalidClusterConfig, SpeculationConfig,
};
pub use controller::{ControlDecision, FixedAllocation, JobController, JobStatus};
pub use engine::{EngineCore, JobRun, RunningTask, TaskState, TaskTable, TokenClass};
pub use job::JobSpec;
pub use sim::{ClusterSim, JobResult, RunHooks};
pub use topology::{ClusterTopology, MachineClass, TopologyConfig};
pub use trace::RunTrace;
pub use workspace::SimWorkspace;
