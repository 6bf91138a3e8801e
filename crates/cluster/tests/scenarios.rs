//! Scenario tests for the cluster simulator's control-facing paths:
//! deadline-change events, controller interaction, multi-job
//! contention, and token-class accounting.

use std::sync::{Arc, Mutex};

use jockey_cluster::{
    ClusterConfig, ClusterSim, ControlDecision, FixedAllocation, JobController, JobSpec, JobStatus,
};
use jockey_jobgraph::graph::{EdgeKind, JobGraph, JobGraphBuilder};
use jockey_simrt::dist::Constant;
use jockey_simrt::time::{SimDuration, SimTime};

fn graph(map: u32, reduce: u32) -> Arc<JobGraph> {
    let mut b = JobGraphBuilder::new("scenario");
    let m = b.stage("map", map);
    let r = b.stage("reduce", reduce);
    b.edge(m, r, EdgeKind::AllToAll);
    Arc::new(b.build().unwrap())
}

fn spec(map: u32, reduce: u32, secs: f64) -> JobSpec {
    JobSpec::uniform(graph(map, reduce), Constant(secs), Constant(0.0), 0.0)
}

/// Records every status it sees and answers with a fixed allocation.
struct Spy {
    allocation: u32,
    log: Arc<Mutex<Vec<(f64, u32)>>>,
    deadline_changes: Arc<Mutex<Vec<f64>>>,
}

impl JobController for Spy {
    fn tick(&mut self, status: &JobStatus) -> ControlDecision {
        self.log
            .lock()
            .unwrap()
            .push((status.elapsed.as_secs_f64(), status.running));
        ControlDecision::simple(self.allocation)
    }

    fn deadline_changed(&mut self, new_deadline: SimDuration) {
        self.deadline_changes
            .lock()
            .unwrap()
            .push(new_deadline.as_secs_f64());
    }
}

#[test]
fn deadline_change_event_reaches_controller_at_the_right_time() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let changes = Arc::new(Mutex::new(Vec::new()));
    let controller = Spy {
        allocation: 2,
        log: log.clone(),
        deadline_changes: changes.clone(),
    };
    let mut sim = ClusterSim::new(ClusterConfig::dedicated(4), 1);
    let idx = sim.add_job(spec(20, 2, 30.0), Box::new(controller));
    sim.schedule_deadline_change(idx, SimTime::from_mins(2), SimDuration::from_mins(7));
    let r = sim.run_single();
    assert!(r.completed_at.is_some());
    let changes = changes.lock().unwrap();
    assert_eq!(changes.as_slice(), &[420.0]);
    // The controller also got regular ticks before and after.
    let log = log.lock().unwrap();
    assert!(log.iter().any(|&(t, _)| t < 120.0));
    assert!(log.iter().any(|&(t, _)| t > 120.0));
}

#[test]
fn controller_sees_monotone_elapsed_and_bounded_running() {
    let log = Arc::new(Mutex::new(Vec::new()));
    let controller = Spy {
        allocation: 3,
        log: log.clone(),
        deadline_changes: Arc::new(Mutex::new(Vec::new())),
    };
    let mut cfg = ClusterConfig::dedicated(3);
    cfg.control_period = SimDuration::from_secs(15);
    let mut sim = ClusterSim::new(cfg, 2);
    sim.add_job(spec(12, 2, 10.0), Box::new(controller));
    sim.run();
    let log = log.lock().unwrap();
    assert!(log.len() >= 3);
    let mut prev = -1.0;
    for &(t, running) in log.iter() {
        assert!(t >= prev, "elapsed went backwards");
        prev = t;
        assert!(running <= 3, "more tasks running than tokens");
    }
}

#[test]
fn two_jobs_with_guarantees_make_proportional_progress() {
    // 10 tokens, two identical jobs with guarantees 6 and 2: the
    // 6-token job must finish first, and roughly 3x sooner on its
    // map phase.
    let mut cfg = ClusterConfig::dedicated(8);
    cfg.max_guarantee = 8;
    cfg.spare_enabled = false;
    let mut sim = ClusterSim::new(cfg, 3);
    let fast = sim.add_job(spec(36, 2, 10.0), Box::new(FixedAllocation(6)));
    let slow = sim.add_job(spec(36, 2, 10.0), Box::new(FixedAllocation(2)));
    let results = sim.run();
    let fast_done = results[fast].completed_at.unwrap();
    let slow_done = results[slow].completed_at.unwrap();
    assert!(fast_done < slow_done);
    // 36 tasks at 6 tokens = 6 waves (60 s) + 10 s reduce = 70 s;
    // at 2 tokens = 18 waves (180 s) + 10 s = 190 s.
    assert_eq!(fast_done, SimTime::from_secs(70));
    assert_eq!(slow_done, SimTime::from_secs(190));
}

#[test]
fn spare_tasks_upgrade_when_guarantee_rises() {
    // A controller that starts at 1 token and jumps to 8 at t=60s.
    struct Stepper;
    impl JobController for Stepper {
        fn tick(&mut self, status: &JobStatus) -> ControlDecision {
            ControlDecision::simple(if status.elapsed < SimDuration::from_secs(60) {
                1
            } else {
                8
            })
        }
    }
    let mut cfg = ClusterConfig::dedicated(16);
    cfg.max_guarantee = 8;
    cfg.spare_enabled = true; // Idle tokens flow to the job as spare.
    let mut sim = ClusterSim::new(cfg, 4);
    sim.add_job(spec(64, 2, 20.0), Box::new(Stepper));
    let r = sim.run_single();
    assert!(r.completed_at.is_some());
    // Early tasks ran as spare; after the jump most run guaranteed.
    assert!(r.spare_task_count > 0, "no spare tasks at low guarantee");
    assert!(
        r.guaranteed_task_count > 0,
        "no guaranteed tasks after the step"
    );
    assert_eq!(r.guaranteed_task_count + r.spare_task_count, 66);
}

#[test]
fn work_conservation_across_classes() {
    // Recorded work is actual token occupancy, so a spare-assisted run
    // finishes sooner but books at least as many task-seconds (spare
    // tasks carry the 1.25x class penalty).
    let run = |spare: bool| {
        let mut cfg = ClusterConfig::dedicated(12);
        cfg.max_guarantee = 4;
        cfg.spare_enabled = spare;
        let mut sim = ClusterSim::new(cfg, 5);
        sim.add_job(spec(24, 2, 10.0), Box::new(FixedAllocation(4)));
        sim.run_single()
    };
    let with_spare = run(true);
    let without = run(false);
    assert!(with_spare.completed_at.unwrap() < without.completed_at.unwrap());
    // Guaranteed-only run's work is exactly the clean total.
    assert_eq!(without.work_done_secs, 24.0 * 10.0 + 2.0 * 10.0);
    // The spare run is slower per task (1.25x class penalty) so its
    // recorded occupancy is at least the clean total.
    assert!(with_spare.work_done_secs >= without.work_done_secs);
}

#[test]
fn zero_guarantee_job_still_finishes_via_spare() {
    let mut cfg = ClusterConfig::dedicated(8);
    cfg.spare_enabled = true;
    let mut sim = ClusterSim::new(cfg, 6);
    sim.add_job(spec(8, 1, 5.0), Box::new(FixedAllocation(0)));
    let r = sim.run_single();
    assert!(r.completed_at.is_some(), "spare-only job wedged");
    assert_eq!(r.guaranteed_task_count, 0);
    assert_eq!(r.spare_task_count, 9);
}

#[test]
fn staggered_jobs_share_cleanly() {
    let mut cfg = ClusterConfig::dedicated(4);
    cfg.max_guarantee = 4;
    cfg.spare_enabled = false;
    let mut sim = ClusterSim::new(cfg, 7);
    let first = sim.add_job(spec(8, 2, 10.0), Box::new(FixedAllocation(2)));
    let second = sim.add_job_at(
        spec(8, 2, 10.0),
        Box::new(FixedAllocation(2)),
        SimTime::from_secs(30),
    );
    let results = sim.run();
    assert!(results[first].completed_at.is_some());
    assert!(results[second].completed_at.is_some());
    assert_eq!(results[second].started_at, SimTime::from_secs(30));
    // Each held at most its 2-token guarantee: identical durations.
    assert_eq!(
        results[first].duration().unwrap(),
        results[second].duration().unwrap()
    );
}

#[test]
fn machine_failures_with_topology_kill_co_resident_tasks() {
    use jockey_cluster::{FailureConfig, TopologyConfig};
    let mut cfg = ClusterConfig::dedicated(8);
    // Few machines (2 racks x 2, 4 slots each): failures hit multiple
    // tasks.
    cfg.topology = Some(TopologyConfig::uniform(2, 2));
    cfg.failures = FailureConfig {
        task_failure_prob: Some(0.0),
        machine_failure_rate_per_hour: 120.0,
        tasks_per_machine: 2, // Ignored: the topology sets the count.
        data_loss_prob: 0.0,
        rack_failure_rate_per_hour: 0.0,
        replica_loss_prob: 0.0,
    };
    let mut sim = ClusterSim::new(cfg, 13);
    sim.add_job(spec(40, 4, 8.0), Box::new(FixedAllocation(8)));
    let r = sim.run_single();
    assert!(
        r.completed_at.is_some(),
        "job must survive machine failures"
    );
    assert!(r.wasted_secs > 0.0, "machine failures should waste work");
}
