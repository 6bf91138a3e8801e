//! Service-level NFR benchmark: the control plane as a long-lived
//! SLO-admission service under open-loop churn.
//!
//! Unlike the microbenchmarks (`control_plane.rs` measures the cost of
//! one tick in a static fleet), this target runs the full
//! `jockey_workloads::service` driver — multi-threaded submitters,
//! recurring deadline jobs, admission rejections, completions and
//! mid-flight deadline changes — at 1k and 10k concurrent jobs, and
//! reports the service numbers a capacity plan needs: sustained
//! submissions/sec, p50/p99/max control-tick latency, SLO attainment,
//! admission rate, and the refresh cadence. Results are recorded in
//! DESIGN.md §12 (*Service NFRs*).
//!
//! Not a criterion bench: one run already aggregates hundreds of
//! thousands of ticks (one in 16 timed, plus every refresh the plane
//! times), and the scenario — a plane serving a
//! churning fleet — does not fit criterion's repeated-iteration model.
//! One run of a scenario lasts well under a second, though, and its
//! throughput moves by tens of percent from run to run on a shared
//! host, so full mode runs each scenario [`REPEATS`] times and reports
//! the median and the min–max range of submissions/sec and of the
//! largest tick latency; the other columns come from the median run.

// Custom harness: no criterion macros here.
#![allow(missing_docs)]

use jockey_workloads::service::{run_service, ServiceConfig, ServiceReport};

/// Runs per scenario in full mode (smoke mode runs each once).
const REPEATS: usize = 5;

struct Scenario {
    name: &'static str,
    cfg: ServiceConfig,
}

fn scenarios(smoke: bool) -> Vec<Scenario> {
    if smoke {
        // CI gate: one small end-to-end run, a few seconds.
        return vec![Scenario {
            name: "smoke-128",
            cfg: ServiceConfig {
                budget: 192,
                workers: 4,
                concurrent_per_worker: 32,
                submissions_per_worker: 64,
                deadline_change_every: 16,
                ..ServiceConfig::default()
            },
        }];
    }
    vec![
        Scenario {
            name: "concurrent-1k",
            cfg: ServiceConfig {
                budget: 1_500,
                workers: 8,
                concurrent_per_worker: 125,
                submissions_per_worker: 250,
                deadline_change_every: 50,
                ..ServiceConfig::default()
            },
        },
        Scenario {
            name: "concurrent-10k",
            cfg: ServiceConfig {
                budget: 15_000,
                workers: 16,
                concurrent_per_worker: 625,
                submissions_per_worker: 1_250,
                deadline_change_every: 500,
                ..ServiceConfig::default()
            },
        },
    ]
}

fn main() {
    let smoke = std::env::var_os("JOCKEY_BENCH_SMOKE").is_some();
    println!(
        "service bench ({} mode): open-loop SLO service driver",
        if smoke { "smoke" } else { "full" }
    );
    println!(
        "{:<15} {:>5} {:>8} {:>7} {:>7} {:>22} {:>9} {:>9} {:>26} {:>8}",
        "scenario",
        "runs",
        "admit%",
        "slo%",
        "chg",
        "subs/s med [min-max]",
        "p50_us",
        "p99_us",
        "max_us med [min-max]",
        "tks/rfr",
    );
    let repeats = if smoke { 1 } else { REPEATS };
    for s in scenarios(smoke) {
        let mut runs: Vec<ServiceReport> = (0..repeats)
            .map(|_| {
                let r = run_service(&s.cfg);
                assert_eq!(r.final_reserved, 0, "{}: leaked reservations", s.name);
                assert_eq!(r.final_active, 0, "{}: leaked jobs", s.name);
                assert_eq!(
                    r.stats.over_committed_rounds, 0,
                    "{}: admission-guarded plane over-committed",
                    s.name
                );
                r
            })
            .collect();
        let mut max_ticks: Vec<f64> = runs.iter().map(|r| r.tick_max_us).collect();
        max_ticks.sort_by(f64::total_cmp);
        runs.sort_by(|a, b| a.submissions_per_sec.total_cmp(&b.submissions_per_sec));
        let (lo, med, hi) = (&runs[0], &runs[runs.len() / 2], &runs[runs.len() - 1]);
        println!(
            "{:<15} {:>5} {:>7.1}% {:>6.1}% {:>7} {:>22} {:>9.2} {:>9.1} {:>26} {:>8.0}",
            s.name,
            runs.len(),
            100.0 * med.admission_rate(),
            100.0 * med.slo_attainment(),
            med.deadline_changes,
            format!(
                "{:.0} [{:.0}-{:.0}]",
                med.submissions_per_sec, lo.submissions_per_sec, hi.submissions_per_sec
            ),
            med.tick_p50_us,
            med.tick_p99_us,
            format!(
                "{:.1} [{:.1}-{:.1}]",
                max_ticks[max_ticks.len() / 2],
                max_ticks[0],
                max_ticks[max_ticks.len() - 1]
            ),
            med.ticks_per_refresh(),
        );
        println!(
            "  median run: wall {:.2?}, ticks {} ({:.0}/s), refreshes {}, submitted {}, admitted {}, rej_capacity {}, rej_infeasible {}, completed {}, slo_met {}, max slots {}",
            med.wall,
            med.stats.ticks,
            med.ticks_per_sec,
            med.stats.refreshes,
            med.submitted,
            med.admitted,
            med.rejected_capacity,
            med.rejected_infeasible,
            med.completed,
            med.slo_met,
            med.max_slot_count
        );
    }
}
