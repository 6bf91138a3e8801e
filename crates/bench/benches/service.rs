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
//! Not a criterion bench: one run *is* the measurement (the driver
//! already aggregates hundreds of thousands of timed ticks), and the
//! scenario — a plane serving a churning fleet for minutes — does not
//! fit criterion's repeated-iteration model.

// Custom harness: no criterion macros here.
#![allow(missing_docs)]

use jockey_workloads::service::{run_service, ServiceConfig};

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
        "{:<15} {:>10} {:>8} {:>7} {:>7} {:>10} {:>10} {:>9} {:>9} {:>10} {:>8} {:>9}",
        "scenario",
        "submitted",
        "admit%",
        "slo%",
        "chg",
        "subs/s",
        "ticks/s",
        "p50_us",
        "p99_us",
        "max_us",
        "tks/rfr",
        "maxslots"
    );
    for s in scenarios(smoke) {
        let r = run_service(&s.cfg);
        assert_eq!(r.final_reserved, 0, "{}: leaked reservations", s.name);
        assert_eq!(r.final_active, 0, "{}: leaked jobs", s.name);
        assert_eq!(
            r.stats.over_committed_rounds, 0,
            "{}: admission-guarded plane over-committed",
            s.name
        );
        println!(
            "{:<15} {:>10} {:>7.1}% {:>6.1}% {:>7} {:>10.0} {:>10.0} {:>9.2} {:>9.1} {:>10.1} {:>8.0} {:>9}",
            s.name,
            r.submitted,
            100.0 * r.admission_rate(),
            100.0 * r.slo_attainment(),
            r.deadline_changes,
            r.submissions_per_sec,
            r.ticks_per_sec,
            r.tick_p50_us,
            r.tick_p99_us,
            r.tick_max_us,
            r.ticks_per_refresh(),
            r.max_slot_count
        );
        println!(
            "  detail: wall {:.2?}, ticks {}, refreshes {}, admitted {}, rej_capacity {}, rej_infeasible {}, completed {}, slo_met {}",
            r.wall,
            r.stats.ticks,
            r.stats.refreshes,
            r.admitted,
            r.rejected_capacity,
            r.rejected_infeasible,
            r.completed,
            r.slo_met
        );
    }
}
