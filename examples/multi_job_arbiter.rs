//! The §4.4 future-work prototype: an inter-job arbiter that splits a
//! token budget across concurrent SLO jobs by expected marginal
//! utility.
//!
//! Two jobs share an 80-token budget. One is far behind (tight
//! deadline), the other comfortably ahead; the arbiter shifts tokens
//! from low to high marginal utility, re-evaluated as progress evolves.
//! The live run admits both into a `ControlPlane`, which refuses a job
//! whose reservation would not fit the budget.
//!
//! Run with: `cargo run --release --example multi_job_arbiter`

use std::sync::Arc;

use jockey::core::arbiter::{arbitrate, ArbiterJob};
use jockey::core::cpa::TrainConfig;
use jockey::core::policy::JockeySetup;
use jockey::core::progress::ProgressIndicator;
use jockey::core::utility::UtilityFunction;
use jockey::simrt::time::SimDuration;
use jockey::workloads::jobs::paper_job;
use jockey::workloads::recurring::training_profile;

fn main() {
    // Two of the paper's jobs: C (short tasks, wide) and E (outliers).
    let specs = [paper_job(2, 5), paper_job(4, 5)];
    let setups: Vec<JockeySetup> = specs
        .iter()
        .enumerate()
        .map(|(i, j)| {
            let profile = training_profile(&j.spec, 60, i as u64 ^ 0xab);
            JockeySetup::train(
                j.graph.clone(),
                profile,
                ProgressIndicator::TotalWorkWithQ,
                &TrainConfig::default(),
                i as u64 ^ 0xab,
            )
        })
        .collect();

    // Job C gets a tight deadline (1.6x its 100-token latency), job E a
    // loose one (4x).
    let deadlines = [
        SimDuration::from_secs_f64(setups[0].cpa.fresh_latency(100) * 1.6),
        SimDuration::from_secs_f64(setups[1].cpa.fresh_latency(100) * 4.0),
    ];
    for (s, d) in setups.iter().zip(&deadlines) {
        println!(
            "{}: deadline {:.0} min (latency at 100 tokens ~{:.0} min)",
            s.graph.name(),
            d.as_minutes_f64(),
            s.cpa.fresh_latency(100) / 60.0
        );
    }

    // Arbitrate an 80-token budget at several points in (virtual)
    // time, with job C stalled at low progress and job E coasting.
    println!("\nbudget: 80 tokens");
    println!(
        "{:<28}{:>12}{:>12}",
        "situation",
        setups[0].graph.name(),
        setups[1].graph.name()
    );
    for (label, p0, p1, elapsed_frac) in [
        ("start of both jobs", 0.0, 0.0, 0.0),
        ("C behind, E ahead", 0.2, 0.7, 0.5),
        ("C very behind, E ahead", 0.3, 0.9, 0.75),
        ("both nearly done", 0.95, 0.95, 0.9),
    ] {
        let jobs: Vec<ArbiterJob> = setups
            .iter()
            .zip(&deadlines)
            .zip([p0, p1])
            .map(|((setup, &deadline), progress)| ArbiterJob {
                model: setup.cpa.clone() as Arc<dyn jockey::core::predict::CompletionModel>,
                utility: UtilityFunction::deadline(deadline),
                progress,
                stage_fraction: vec![progress; setup.graph.num_stages()],
                elapsed_secs: deadline.as_secs_f64() * elapsed_frac,
                slack: 1.2,
            })
            .collect();
        let alloc = arbitrate(&jobs, 80);
        println!("{label:<28}{:>12}{:>12}", alloc[0], alloc[1]);
    }
    println!(
        "\nTokens follow marginal utility: the behind-schedule job with the\n\
         tight deadline receives the bulk of the budget until it recovers,\n\
         after which both release capacity back to the cluster."
    );

    // ---- Live version: both jobs run concurrently in one cluster,
    // admitted into and coordinated by a ControlPlane.
    use jockey::cluster::{ClusterConfig, ClusterSim, JobSpec};
    use jockey::core::ControlPlane;

    println!("\nlive run: both jobs concurrently under an 80-token control plane");
    let plane = ControlPlane::new(80);
    let mut cluster = ClusterConfig::production();
    cluster.total_tokens = 300;
    cluster.background.mean_util = 0.7;
    let mut sim = ClusterSim::new(cluster, 21);
    let mut admitted = Vec::new();
    for (setup, &deadline) in setups.iter().zip(&deadlines) {
        let name = setup.graph.name();
        // A refusal is the plane keeping its guarantee to the jobs it
        // already holds, not an error.
        match plane.try_add_job(
            name,
            setup.cpa.clone(),
            setup.indicator_context(),
            deadline,
            1.2,
        ) {
            Ok(handle) => {
                println!(
                    "  {name}: admitted (plane reserves {} of {} tokens)",
                    plane.reserved(),
                    plane.budget()
                );
                let i = sim.add_job(
                    JobSpec::from_profile(setup.graph.clone(), &setup.profile),
                    Box::new(handle),
                );
                admitted.push((setup, deadline, i));
            }
            Err(e) => println!("  {name}: refused ({e})"),
        }
    }
    let results = sim.run();
    for (setup, deadline, i) in admitted {
        let r = &results[i];
        let outcome = match r.duration() {
            Some(latency) => format!(
                "{:.1} / {:.0} min ({})",
                latency.as_minutes_f64(),
                deadline.as_minutes_f64(),
                if latency <= deadline { "met" } else { "missed" }
            ),
            None => "incomplete".to_string(),
        };
        println!(
            "  {}: {outcome}, median {:.0} tokens",
            setup.graph.name(),
            r.trace.median_guarantee(),
        );
    }
}
