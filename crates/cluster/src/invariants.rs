//! Post-step invariant checks over the engine core.
//!
//! Enabled by default in debug/test builds (see
//! [`ClusterSim::set_invariant_checks`](crate::ClusterSim::set_invariant_checks)),
//! these verify after every dispatched event that no policy layer —
//! scheduler, failure model, controller — has corrupted the run.

use jockey_simrt::observe::SimObserver;
use jockey_simrt::time::SimTime;

use crate::engine::{EngineCore, RunningTask, TaskState};

/// Verifies the simulator's core invariants after an event:
///
/// 1. **Event-time monotonicity** — dispatched event times never go
///    backwards.
/// 2. **Token conservation** — per job, guaranteed-class tasks never
///    exceed the guarantee and clone-class attempts never exceed the
///    configured clone budget (nor exist at all with speculation off),
///    and globally `guaranteed + spare + clone + background + idle =
///    capacity` with `idle >= 0` for the spare class (guaranteed
///    admission is bounded separately, so a guarantee above cluster
///    size surfaces here too).
/// 3. **Per-stage task accounting** — `pending + ready + running +
///    done == total` per stage, the `Done` count matches `completed`,
///    the running list matches `Running` task states (1:1 without
///    speculation; per distinct task with sibling attempts racing, and
///    every entry — so no orphan clones — anchored to a live attempt),
///    and `done_tasks` equals the per-stage sum.
/// 4. **Running-set accounting** — each job's incremental per-class
///    running counts, and under a topology the per-machine load the
///    placement reads, equal a recount of the running lists, and the
///    task table's running-position index points at entries of the
///    right task (and, without speculation, at every entry).
/// 5. **Monotone stage fractions** — completed counts never decrease
///    except through an explicit data-loss rollback (which lowers the
///    floor).
pub(crate) fn check(core: &mut EngineCore, now: SimTime) {
    if now < core.last_event_time {
        violation(
            core,
            now,
            "event-time monotonicity",
            format!(
                "event dispatched at {:.3}s after the clock reached {:.3}s",
                now.as_secs_f64(),
                core.last_event_time.as_secs_f64()
            ),
        );
    }
    core.last_event_time = now;

    // Token conservation.
    let total = core.cfg.total_tokens;
    core.background.advance_to(now);
    let bg_demand = core.background.demand_tokens(now, total);
    let mut guar_running: u32 = 0;
    let mut spare_running: u32 = 0;
    let mut clone_running: u32 = 0;
    for (j, job) in core.jobs.iter().enumerate() {
        // Counted from the running list itself, never from the engine's
        // incremental class counts (those are checked against these
        // below, under running-set accounting).
        let [g, sp, c] = class_totals(job.running());
        if g > job.guarantee() {
            violation(
                core,
                now,
                "token conservation",
                format!(
                    "job {j} runs {g} guaranteed tasks above its guarantee {}",
                    job.guarantee()
                ),
            );
        }
        guar_running += g;
        spare_running += sp;
        match &core.cfg.speculation {
            Some(sp) if c > sp.clone_budget => violation(
                core,
                now,
                "token conservation",
                format!(
                    "job {j} runs {c} clone attempts above the clone budget {}",
                    sp.clone_budget
                ),
            ),
            None if c > 0 => violation(
                core,
                now,
                "token conservation",
                format!("job {j} runs {c} clone attempts with speculation disabled"),
            ),
            _ => {}
        }
        clone_running += c;
    }
    let spare_budget = (i64::from(total)
        - i64::from(bg_demand)
        - i64::from(guar_running)
        - i64::from(clone_running))
    .max(0);
    if i64::from(spare_running) > spare_budget {
        violation(
            core,
            now,
            "token conservation",
            format!(
                "{spare_running} spare tasks exceed the spare budget {spare_budget} \
                 (capacity {total} - background {bg_demand} - guaranteed {guar_running})"
            ),
        );
    }

    // Per-stage task accounting.
    for (j, job) in core.jobs.iter().enumerate() {
        let graph = &job.spec().graph;
        let mut done_total: u64 = 0;
        let mut running_states: usize = 0;
        for s in graph.stage_ids() {
            let mut done: u32 = 0;
            for st in job.tasks.stage_states(s.index()) {
                match st {
                    TaskState::Done { .. } => done += 1,
                    TaskState::Running { .. } => running_states += 1,
                    TaskState::Pending | TaskState::Ready => {}
                }
            }
            if done != job.completed[s.index()] {
                violation(
                    core,
                    now,
                    "per-stage task accounting",
                    format!(
                        "job {j} stage {}: {done} Done task states but completed counter is {}",
                        s.index(),
                        job.completed[s.index()]
                    ),
                );
            }
            done_total += u64::from(done);
        }
        if done_total != job.done_tasks {
            violation(
                core,
                now,
                "per-stage task accounting",
                format!(
                    "job {j}: per-stage completed sum {done_total} != done_tasks {}",
                    job.done_tasks
                ),
            );
        }
        // Under speculation one task can hold several running-list
        // entries (sibling attempts racing), but still exactly one
        // `Running` task state; without it the two counts match 1:1.
        let speculating = core.cfg.speculation.is_some();
        let expected_running_states = if speculating {
            job.running()
                .iter()
                .enumerate()
                .filter(|(i, r)| !job.running()[..*i].iter().any(|o| o.task == r.task))
                .count()
        } else {
            job.running().len()
        };
        if running_states != expected_running_states {
            violation(
                core,
                now,
                "per-stage task accounting",
                format!(
                    "job {j}: {running_states} Running task states but {} distinct running-list \
                     tasks ({} entries)",
                    expected_running_states,
                    job.running().len()
                ),
            );
        }
        for r in job.running() {
            // Every entry — clones included — must point at a task in a
            // `Running` state whose attempt is held by some live
            // sibling entry (an orphan clone fails here: its task has
            // moved on to `Done`/`Ready` but the entry survived).
            match job.task_state(r.task) {
                TaskState::Running { attempt } if attempt == r.attempt => {}
                TaskState::Running { attempt }
                    if speculating
                        && job
                            .running()
                            .iter()
                            .any(|o| o.task == r.task && o.attempt == attempt) => {}
                other => violation(
                    core,
                    now,
                    "per-stage task accounting",
                    format!(
                        "job {j}: running-list entry s{}/{} attempt {} ({:?}) has task state \
                         {other:?}",
                        r.task.stage.index(),
                        r.task.index,
                        r.attempt,
                        r.class
                    ),
                ),
            }
        }
    }

    // Running-set accounting: the engine's incremental per-class and
    // per-machine counts match a recount of the running lists.
    let mut machine_load = vec![0_u32; core.machine_load.len()];
    for (j, job) in core.jobs.iter().enumerate() {
        let counted = class_totals(job.running());
        if counted != job.class_counts {
            violation(
                core,
                now,
                "running-set accounting",
                format!(
                    "job {j}: class counts {:?} but the running list holds {counted:?} \
                     (guaranteed, spare, clone)",
                    job.class_counts
                ),
            );
        }
        for m in job.running().iter().filter_map(|r| r.machine) {
            machine_load[m as usize] += 1;
        }
        // The running-position index: every indexed position holds an
        // entry of its task, and without speculation (at most one entry
        // per task) every entry is indexed at its own position.
        for slot in 0..job.tasks.total() {
            let Some(pos) = job.tasks.running_pos_at(slot) else {
                continue;
            };
            let held = job.running().get(pos).map(|r| job.tasks.slot(r.task));
            if held != Some(slot) {
                violation(
                    core,
                    now,
                    "running-set accounting",
                    format!(
                        "job {j}: task slot {slot} is indexed at running position {pos}, which \
                         holds {held:?}"
                    ),
                );
            }
        }
        if core.cfg.speculation.is_none() {
            for (pos, r) in job.running().iter().enumerate() {
                let indexed = job.tasks.running_pos(r.task);
                if indexed != Some(pos) {
                    violation(
                        core,
                        now,
                        "running-set accounting",
                        format!(
                            "job {j}: running entry {pos} (s{}/{}) is indexed at {indexed:?}",
                            r.task.stage.index(),
                            r.task.index
                        ),
                    );
                }
            }
        }
    }
    for (m, (&counted, &kept)) in machine_load.iter().zip(&core.machine_load).enumerate() {
        if counted != kept {
            violation(
                core,
                now,
                "running-set accounting",
                format!(
                    "machine {m}: load count {kept} but {counted} running entries are hosted there"
                ),
            );
        }
    }

    // Monotone stage fractions.
    for j in 0..core.jobs.len() {
        for s in 0..core.jobs[j].completed.len() {
            if core.jobs[j].completed[s] < core.completed_floor[j][s] {
                violation(
                    core,
                    now,
                    "monotone stage fractions",
                    format!(
                        "job {j} stage {s}: completed fell from {} to {} without a data-loss rollback",
                        core.completed_floor[j][s], core.jobs[j].completed[s]
                    ),
                );
            }
        }
        core.completed_floor[j].copy_from_slice(&core.jobs[j].completed);
    }
}

/// Running entries per token class, `[guaranteed, spare, clone]`,
/// counted from the list.
fn class_totals(running: &[RunningTask]) -> [u32; 3] {
    let mut counts = [0; 3];
    for r in running {
        counts[r.class.slot()] += 1;
    }
    counts
}

/// Panics with the violation and the tail of the attached journal.
fn violation(core: &EngineCore, now: SimTime, what: &str, detail: String) -> ! {
    let tail = match core.observer.tail(32) {
        Some(t) if !t.is_empty() => format!("\nlast journal entries:\n{t}"),
        _ => String::from("\n(no journal attached; call ClusterSim::attach_journal for history)"),
    };
    panic!(
        "sim invariant violated at {:.3}s: {what}: {detail}{tail}",
        now.as_secs_f64()
    );
}

// ----------------------------------------------------------------------
// Invariant checkers: each must fire on a seeded violation. The tests
// corrupt private simulator state directly — no legitimate event path
// produces these states (that is the point of the checks).
// ----------------------------------------------------------------------
#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::ClusterConfig;
    use crate::controller::FixedAllocation;
    use crate::engine::TokenClass;
    use crate::job::JobSpec;
    use crate::sim::ClusterSim;
    use jockey_jobgraph::graph::{EdgeKind, JobGraphBuilder};
    use jockey_simrt::dist::Constant;
    use jockey_simrt::observe::SharedJournal;
    use std::sync::Arc;

    fn spec(map_tasks: u32, reduce_tasks: u32, secs: f64) -> JobSpec {
        let mut b = JobGraphBuilder::new("test-job");
        let m = b.stage("map", map_tasks);
        let r = b.stage("reduce", reduce_tasks);
        b.edge(m, r, EdgeKind::AllToAll);
        JobSpec::uniform(
            Arc::new(b.build().unwrap()),
            Constant(secs),
            Constant(0.0),
            0.0,
        )
    }

    /// Steps a fresh sim until the first task completes, so tasks are
    /// both `Done` and `Running` and the clock has advanced.
    fn stepped_sim(journal: bool) -> (ClusterSim, Option<SharedJournal>, SimTime) {
        let mut sim = ClusterSim::new(ClusterConfig::dedicated(4), 1);
        let journal = journal.then(|| sim.attach_journal(64));
        sim.add_job(spec(8, 2, 10.0), Box::new(FixedAllocation(4)));
        sim.engine.prime();
        while sim.engine.core.jobs[0].done_tasks == 0 {
            let (now, event) = sim
                .engine
                .core
                .queue
                .pop()
                .expect("job cannot finish with no done tasks");
            sim.engine.step(now, event, None);
        }
        let now = sim.engine.core.last_event_time;
        (sim, journal, now)
    }

    #[test]
    #[should_panic(expected = "event-time monotonicity")]
    fn invariant_fires_on_time_regression() {
        let (mut sim, _, now) = stepped_sim(false);
        assert!(now > SimTime::ZERO);
        check(&mut sim.engine.core, SimTime::ZERO);
    }

    #[test]
    #[should_panic(expected = "token conservation")]
    fn invariant_fires_on_guarantee_overcommit() {
        let (mut sim, _, now) = stepped_sim(false);
        assert!(sim.engine.core.jobs[0].running_in_class(TokenClass::Guaranteed) > 0);
        sim.engine.core.jobs[0].guarantee = 0;
        check(&mut sim.engine.core, now);
    }

    #[test]
    #[should_panic(expected = "token conservation")]
    fn invariant_fires_on_clone_without_speculation() {
        let (mut sim, _, now) = stepped_sim(false);
        // Forge a clone-class attempt in a run with speculation off: no
        // legitimate path creates one.
        sim.engine.core.jobs[0].running[0].class = TokenClass::Clone;
        check(&mut sim.engine.core, now);
    }

    #[test]
    #[should_panic(expected = "clone budget")]
    fn invariant_fires_on_clone_budget_overrun() {
        use crate::config::SpeculationConfig;
        let (mut sim, _, now) = stepped_sim(false);
        sim.engine.core.cfg.max_guarantee = 2;
        sim.engine.core.cfg.speculation = Some(SpeculationConfig::clone_on_slow(2.0, 1));
        // Two forged clones against a budget of one. Reclassifying
        // existing guaranteed entries keeps every other account intact.
        sim.engine.core.jobs[0].running[0].class = TokenClass::Clone;
        sim.engine.core.jobs[0].running[1].class = TokenClass::Clone;
        check(&mut sim.engine.core, now);
    }

    #[test]
    #[should_panic(expected = "running-set accounting")]
    fn invariant_fires_on_class_count_drift() {
        let (mut sim, _, now) = stepped_sim(false);
        // A spare count with no spare entry behind it: the recount of
        // the running list disagrees with the incremental count.
        sim.engine.core.jobs[0].class_counts[TokenClass::Spare.slot()] += 1;
        check(&mut sim.engine.core, now);
    }

    #[test]
    #[should_panic(expected = "running-set accounting")]
    fn invariant_fires_on_machine_load_drift() {
        use crate::topology::TopologyConfig;
        let mut cfg = ClusterConfig::dedicated(4);
        cfg.topology = Some(TopologyConfig::uniform(2, 4));
        let mut sim = ClusterSim::new(cfg, 1);
        sim.add_job(spec(8, 2, 10.0), Box::new(FixedAllocation(4)));
        sim.engine.prime();
        let (now, event) = sim.engine.core.queue.pop().expect("job start");
        sim.engine.step(now, event, None);
        let m = sim.engine.core.jobs[0].running()[0]
            .machine
            .expect("topology places every task") as usize;
        sim.engine.core.machine_load[m] -= 1;
        check(&mut sim.engine.core, now);
    }

    #[test]
    #[should_panic(expected = "running-set accounting")]
    fn invariant_fires_on_running_position_drift() {
        let (mut sim, _, now) = stepped_sim(false);
        let job = &mut sim.engine.core.jobs[0];
        assert!(
            job.running.len() >= 2,
            "four tokens keep several tasks running"
        );
        // Swap two entries behind the index's back, as a swap-remove
        // that forgot to re-point the moved entry would leave it.
        job.running.swap(0, 1);
        check(&mut sim.engine.core, now);
    }

    #[test]
    #[should_panic(expected = "per-stage task accounting")]
    fn invariant_fires_on_completed_counter_drift() {
        let (mut sim, _, now) = stepped_sim(false);
        sim.engine.core.jobs[0].completed[0] += 1;
        check(&mut sim.engine.core, now);
    }

    #[test]
    #[should_panic(expected = "monotone stage fractions")]
    fn invariant_fires_on_fraction_regression() {
        let (mut sim, _, now) = stepped_sim(false);
        // A floor above the live counter models a completion count that
        // silently went backwards (without the data-loss path that
        // legitimately lowers the floor).
        sim.engine.core.completed_floor[0][0] = sim.engine.core.jobs[0].completed[0] + 1;
        check(&mut sim.engine.core, now);
    }

    #[test]
    #[should_panic(expected = "no journal attached")]
    fn invariant_panic_hints_at_journal_when_absent() {
        let (mut sim, _, now) = stepped_sim(false);
        sim.engine.core.jobs[0].guarantee = 0;
        check(&mut sim.engine.core, now);
    }

    #[test]
    fn invariant_panic_includes_journal_tail() {
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            let (mut sim, journal, now) = stepped_sim(true);
            assert!(!journal.expect("journal attached").is_empty());
            sim.engine.core.jobs[0].guarantee = 0;
            check(&mut sim.engine.core, now);
        }));
        let payload = result.expect_err("corrupted sim must panic");
        let msg = payload
            .downcast_ref::<String>()
            .cloned()
            .expect("panic payload is a formatted message");
        assert!(msg.contains("token conservation"), "{msg}");
        assert!(msg.contains("last journal entries"), "{msg}");
        // The tail shows real dispatched events, e.g. TaskDone records.
        assert!(msg.contains("TaskDone"), "{msg}");
    }

    #[test]
    fn invariant_checks_can_be_disabled() {
        let (mut sim, _, _) = stepped_sim(false);
        // Checks default to on in debug builds and off in release ones.
        assert_eq!(
            sim.engine.core.invariants_enabled,
            cfg!(debug_assertions),
            "the default follows the build profile"
        );
        sim.set_invariant_checks(true);
        assert!(sim.engine.core.invariants_enabled);
        sim.set_invariant_checks(false);
        assert!(!sim.engine.core.invariants_enabled);
        sim.engine.core.jobs[0].guarantee = 0; // Would trip token conservation.
        let (now, event) = sim.engine.core.queue.pop().expect("events remain");
        sim.engine.step(now, event, None); // Must not panic with checks off.
        assert_eq!(sim.engine.core.last_event_time, now);
    }
}
