//! Cluster simulator configuration.

use std::fmt;

use jockey_simrt::event::QueueBackend;
use jockey_simrt::time::{SimDuration, SimTime};

/// Background-load process parameters (see [`crate::background`]).
///
/// Utilization is modelled as a mean-reverting (Ornstein–Uhlenbeck)
/// process sampled at a fixed tick, plus Poisson-arriving overload
/// events that pin utilization near saturation — standing in for the
/// paper's "higher load on the cluster at that time" episodes.
#[derive(Clone, Debug, PartialEq)]
pub struct BackgroundConfig {
    /// Whether any background load exists at all. `false` gives the
    /// dedicated-cluster mode used by the offline job simulator.
    pub enabled: bool,
    /// Long-run mean utilization of cluster tokens by other jobs
    /// (the paper's cluster averages 0.8).
    pub mean_util: f64,
    /// Standard deviation of the per-tick utilization innovation.
    pub volatility: f64,
    /// Mean-reversion rate per tick, in `(0, 1]`.
    pub reversion: f64,
    /// Overload events per hour (Poisson arrivals).
    pub overload_rate_per_hour: f64,
    /// Mean overload duration in minutes (exponential).
    pub overload_duration_mins: f64,
    /// Utilization during an overload event.
    pub overload_util: f64,
    /// How often the process is resampled.
    pub tick: SimDuration,
    /// Utilization above which task slowdown begins.
    pub slowdown_knee: f64,
    /// Slowdown multiplier gained per unit utilization above the knee:
    /// `slowdown = 1 + slope * max(0, util - knee)`.
    pub slowdown_slope: f64,
    /// Amplitude of the diurnal modulation applied to `mean_util`:
    /// the OU process reverts toward `mean_util + amplitude *
    /// sin(2π (t / period + phase))`, clamped to `[0, 1]`. Zero (the
    /// default) disables modulation and leaves the stationary process
    /// bit-identical.
    pub diurnal_amplitude: f64,
    /// Period of the diurnal cycle (a simulated day, typically).
    pub diurnal_period: SimDuration,
    /// Phase offset in cycles, in `[0, 1)`: 0 starts the run at the
    /// cycle's zero crossing heading into the peak.
    pub diurnal_phase: f64,
}

impl BackgroundConfig {
    /// No background load: a dedicated cluster.
    pub fn none() -> Self {
        BackgroundConfig {
            enabled: false,
            mean_util: 0.0,
            volatility: 0.0,
            reversion: 1.0,
            overload_rate_per_hour: 0.0,
            overload_duration_mins: 0.0,
            overload_util: 0.0,
            tick: SimDuration::from_secs(30),
            slowdown_knee: 1.0,
            slowdown_slope: 0.0,
            diurnal_amplitude: 0.0,
            diurnal_period: SimDuration::from_mins(24 * 60),
            diurnal_phase: 0.0,
        }
    }

    /// A production-like shared cluster: ~80% mean utilization with
    /// bursts, occasional overloads, and load-dependent slowdown.
    pub fn production() -> Self {
        BackgroundConfig {
            enabled: true,
            mean_util: 0.80,
            volatility: 0.035,
            reversion: 0.10,
            overload_rate_per_hour: 0.35,
            overload_duration_mins: 10.0,
            overload_util: 1.0,
            tick: SimDuration::from_secs(30),
            slowdown_knee: 0.80,
            slowdown_slope: 2.5,
            diurnal_amplitude: 0.0,
            diurnal_period: SimDuration::from_mins(24 * 60),
            diurnal_phase: 0.0,
        }
    }
}

/// Failure-injection parameters.
#[derive(Clone, Debug, PartialEq)]
pub struct FailureConfig {
    /// If set, overrides each job's own task-failure probability.
    pub task_failure_prob: Option<f64>,
    /// Per-machine failure hazard, in failures per machine-hour. The
    /// slice's aggregate failure arrival rate is this value times its
    /// machine count ([`PlacementConfig::machines`](crate::placement::PlacementConfig)
    /// when placement is enabled, else `ceil(total_tokens /
    /// tasks_per_machine)`).
    pub machine_failure_rate_per_hour: f64,
    /// Running tasks killed by one machine failure (a machine hosts a
    /// handful of task slots).
    pub tasks_per_machine: u32,
    /// Probability that a machine failure also destroys the output of
    /// completed tasks in still-incomplete stages, forcing
    /// recomputation (the costly pre-barrier failure mode).
    pub data_loss_prob: f64,
    /// Per-rack correlated-failure hazard, in failures per rack-hour.
    /// A rack failure kills every task resident on the rack's machines
    /// at once. Requires a topology (racks are undefined in the flat
    /// model); zero disables rack failures entirely.
    pub rack_failure_rate_per_hour: f64,
    /// Probability that each input replica hosted on a failed machine
    /// is destroyed with it. A split that loses its last replica is
    /// re-replicated onto a fresh machine, but tasks reading it pay
    /// remote penalties until placement catches up. Requires a
    /// topology; zero disables replica loss.
    pub replica_loss_prob: f64,
}

impl FailureConfig {
    /// No failures at all.
    pub fn none() -> Self {
        FailureConfig {
            task_failure_prob: Some(0.0),
            machine_failure_rate_per_hour: 0.0,
            tasks_per_machine: 2,
            data_loss_prob: 0.0,
            rack_failure_rate_per_hour: 0.0,
            replica_loss_prob: 0.0,
        }
    }

    /// Production-like failure rates: job-specific task failures, and a
    /// per-machine hazard sized so the default 1000-token / 500-machine
    /// production slice sees about one machine failure per four hours.
    pub fn production() -> Self {
        FailureConfig {
            task_failure_prob: None,
            machine_failure_rate_per_hour: 0.25 / 500.0,
            tasks_per_machine: 2,
            data_loss_prob: 0.5,
            rack_failure_rate_per_hour: 0.0,
            replica_loss_prob: 0.0,
        }
    }
}

/// Speculative-execution (clone-on-slow) parameters.
///
/// When configured, the engine watches running attempts against a
/// per-stage expected-runtime estimate (derived from the stage's
/// runtime/queue `Dist` means) and launches a clone on an idle token
/// once an attempt exceeds `slowdown_threshold` times its expectation.
/// The first attempt to finish wins; all sibling attempts are killed
/// and their partial work is accounted as wasted. `None` (the default)
/// runs the legacy engine bit-identically.
#[derive(Clone, Debug, PartialEq)]
pub struct SpeculationConfig {
    /// An attempt is a straggler once its elapsed occupancy exceeds
    /// this multiple of the expected occupancy. Must be `> 1.0` — at
    /// `1.0` or below, half of all attempts would be cloned on sight.
    pub slowdown_threshold: f64,
    /// Maximum concurrent clone attempts per job. Clones occupy idle
    /// tokens outside the job's guarantee, so the budget must fit in
    /// the spare headroom `total_tokens - max_guarantee`.
    pub clone_budget: u32,
    /// How often the watcher scans running attempts.
    pub watch_period: SimDuration,
}

impl SpeculationConfig {
    /// Clone-on-slow at `threshold` with `clone_budget` concurrent
    /// clones per job, watching every 15 simulated seconds.
    pub fn clone_on_slow(threshold: f64, clone_budget: u32) -> Self {
        SpeculationConfig {
            slowdown_threshold: threshold,
            clone_budget,
            watch_period: SimDuration::from_secs(15),
        }
    }
}

/// Full simulator configuration.
#[derive(Clone, Debug, PartialEq)]
pub struct ClusterConfig {
    /// Optional machine-level placement and locality model
    /// (disabled = abstract token pool). Superseded by `topology`;
    /// the two are mutually exclusive.
    pub placement: Option<crate::placement::PlacementConfig>,
    /// Optional physical topology: racks × heterogeneous machine
    /// classes with replica placement (see [`crate::topology`]). When
    /// `None` the simulator runs the legacy flat model bit-identically.
    pub topology: Option<crate::topology::TopologyConfig>,
    /// Total tokens in the simulated cluster slice (guaranteed +
    /// spare + background).
    pub total_tokens: u32,
    /// Upper bound on any single job's guarantee (the paper's
    /// experiments cap at 100 tokens).
    pub max_guarantee: u32,
    /// Whether unused capacity is redistributed as spare tokens.
    pub spare_enabled: bool,
    /// Optional straggler mitigation: clone-on-slow speculative
    /// execution with kill-on-first-finish (see [`SpeculationConfig`]).
    /// When `None` the simulator runs the legacy model bit-identically.
    pub speculation: Option<SpeculationConfig>,
    /// Runtime multiplier for spare-class tasks ("pushed into the
    /// background during periods of contention").
    pub spare_slowdown: f64,
    /// How often each job's controller is invoked.
    pub control_period: SimDuration,
    /// Background-load model.
    pub background: BackgroundConfig,
    /// Failure injection.
    pub failures: FailureConfig,
    /// Hard stop: jobs not finished by then are reported incomplete.
    pub max_sim_time: SimTime,
    /// Event-queue data structure. Both backends produce identical
    /// event streams. The adaptive default starts on the heap (fastest
    /// at sparse occupancy) and promotes itself to the calendar ladder
    /// at dense occupancy, so neither regime pays a tax; the plain heap
    /// remains as the reference for tests and benches to A/B against.
    pub queue_backend: QueueBackend,
}

impl ClusterConfig {
    /// A dedicated, failure-free cluster of exactly `tokens` tokens
    /// with no spare capacity — the configuration of Jockey's offline
    /// job simulator at allocation `a = tokens`.
    pub fn dedicated(tokens: u32) -> Self {
        ClusterConfig {
            placement: None,
            topology: None,
            total_tokens: tokens,
            max_guarantee: tokens,
            spare_enabled: false,
            speculation: None,
            spare_slowdown: 1.25,
            control_period: SimDuration::from_secs(30),
            background: BackgroundConfig::none(),
            failures: FailureConfig::none(),
            max_sim_time: SimTime::from_mins(24 * 60),
            queue_backend: QueueBackend::Adaptive,
        }
    }

    /// Like [`ClusterConfig::dedicated`] but with the job's own failure
    /// probabilities active, matching §4.1's simulator ("restarting
    /// failed tasks").
    pub fn dedicated_with_failures(tokens: u32) -> Self {
        let mut c = Self::dedicated(tokens);
        c.failures = FailureConfig {
            task_failure_prob: None,
            machine_failure_rate_per_hour: 0.0,
            tasks_per_machine: 2,
            data_loss_prob: 0.0,
            rack_failure_rate_per_hour: 0.0,
            replica_loss_prob: 0.0,
        };
        c
    }

    /// A production-like shared cluster slice: 1000 tokens, 100-token
    /// per-job guarantee cap, spare capacity, background load and
    /// failures.
    pub fn production() -> Self {
        ClusterConfig {
            placement: None,
            topology: None,
            total_tokens: 1_000,
            max_guarantee: 100,
            spare_enabled: true,
            speculation: None,
            spare_slowdown: 1.25,
            control_period: SimDuration::from_mins(1),
            background: BackgroundConfig::production(),
            failures: FailureConfig::production(),
            max_sim_time: SimTime::from_mins(24 * 60),
            queue_backend: QueueBackend::Adaptive,
        }
    }

    /// Validates parameter ranges, returning the first problem found.
    /// NaN is rejected wherever a range is checked (range `contains`
    /// already excludes it; the open-ended bounds check it explicitly).
    pub fn validate(&self) -> Result<(), InvalidClusterConfig> {
        use InvalidClusterConfig as E;
        if self.total_tokens == 0 {
            return Err(E::TotalTokens);
        }
        if self.max_guarantee == 0 || self.max_guarantee > self.total_tokens {
            return Err(E::MaxGuarantee(self.max_guarantee));
        }
        if !self.spare_slowdown.is_finite() || self.spare_slowdown < 1.0 {
            return Err(E::SpareSlowdown(self.spare_slowdown));
        }
        if self.control_period.is_zero() {
            return Err(E::ControlPeriod);
        }
        if let Some(sp) = &self.speculation {
            if !sp.slowdown_threshold.is_finite() || sp.slowdown_threshold <= 1.0 {
                return Err(E::Speculation(
                    "slowdown_threshold must be finite and > 1.0 (NaN is rejected)",
                ));
            }
            if sp.clone_budget == 0 {
                return Err(E::Speculation("clone_budget must be >= 1"));
            }
            if sp.watch_period.is_zero() {
                return Err(E::Speculation("watch_period must be positive"));
            }
        }
        let b = &self.background;
        if b.enabled {
            if !(0.0..=1.0).contains(&b.mean_util) || !(0.0..=1.0).contains(&b.overload_util) {
                return Err(E::Background("utilizations must be in [0, 1]"));
            }
            if b.tick.is_zero() {
                return Err(E::Background("tick must be positive"));
            }
            if !(0.0..=1.0).contains(&b.reversion) {
                return Err(E::Background("reversion must be in [0, 1]"));
            }
            if !b.diurnal_amplitude.is_finite() || b.diurnal_amplitude < 0.0 {
                return Err(E::Background("diurnal_amplitude must be finite and >= 0"));
            }
            if b.diurnal_amplitude > 0.0 && b.diurnal_period.is_zero() {
                return Err(E::Background(
                    "diurnal_period must be positive when diurnal_amplitude > 0",
                ));
            }
            if !b.diurnal_phase.is_finite() {
                return Err(E::Background("diurnal_phase must be finite"));
            }
        }
        if let Some(p) = &self.placement {
            p.validate().map_err(E::Placement)?;
        }
        if let Some(t) = &self.topology {
            t.validate().map_err(E::Topology)?;
        }
        let f = &self.failures;
        if let Some(p) = f.task_failure_prob {
            if !(0.0..=1.0).contains(&p) {
                return Err(E::Failures("task_failure_prob must be in [0, 1]"));
            }
        }
        if !f.machine_failure_rate_per_hour.is_finite() || f.machine_failure_rate_per_hour < 0.0 {
            return Err(E::Failures(
                "machine_failure_rate_per_hour must be finite and >= 0",
            ));
        }
        if !(0.0..=1.0).contains(&f.data_loss_prob) {
            return Err(E::Failures("data_loss_prob must be in [0, 1]"));
        }
        if !f.rack_failure_rate_per_hour.is_finite() || f.rack_failure_rate_per_hour < 0.0 {
            return Err(E::Failures(
                "rack_failure_rate_per_hour must be finite and >= 0",
            ));
        }
        if !(0.0..=1.0).contains(&f.replica_loss_prob) {
            return Err(E::Failures("replica_loss_prob must be in [0, 1]"));
        }
        self.validate_cross_field()
    }

    /// Checks that independently-valid sections agree with each other.
    /// The failure model's machine accounting, the placement/topology
    /// machine counts, and the token pool must describe the *same*
    /// cluster — historically each was validated alone and could
    /// silently contradict the others.
    fn validate_cross_field(&self) -> Result<(), InvalidClusterConfig> {
        use InvalidClusterConfig as E;
        let f = &self.failures;
        if self.placement.is_some() && self.topology.is_some() {
            return Err(E::Inconsistent(
                "placement and topology are mutually exclusive; topology supersedes placement",
            ));
        }
        if self.topology.is_none() {
            if f.rack_failure_rate_per_hour > 0.0 {
                return Err(E::Inconsistent(
                    "rack_failure_rate_per_hour requires a topology (racks are undefined in the \
                     flat model)",
                ));
            }
            if f.replica_loss_prob > 0.0 {
                return Err(E::Inconsistent(
                    "replica_loss_prob requires a topology (there are no replicas in the flat \
                     model)",
                ));
            }
        }
        if f.machine_failure_rate_per_hour > 0.0 {
            // The machine count implied by the failure model must be
            // able to host the token pool, or the per-machine hazard
            // describes a different cluster than the one simulated.
            if let Some(t) = &self.topology {
                let capacity = u64::from(t.machine_count()) * u64::from(t.slots_per_machine);
                if capacity < u64::from(self.total_tokens) {
                    return Err(E::Inconsistent(
                        "topology machines x slots_per_machine cannot host total_tokens, so the \
                         per-machine failure hazard contradicts the simulated cluster",
                    ));
                }
            } else if let Some(p) = &self.placement {
                let capacity = u64::from(p.machines) * u64::from(f.tasks_per_machine);
                if capacity < u64::from(self.total_tokens) {
                    return Err(E::Inconsistent(
                        "placement machines x failures.tasks_per_machine cannot host \
                         total_tokens, so the per-machine failure hazard contradicts the \
                         simulated cluster",
                    ));
                }
            } else if f.tasks_per_machine == 0 {
                return Err(E::Inconsistent(
                    "tasks_per_machine must be >= 1 when machine failures are enabled without a \
                     placement or topology (it defines the implied machine count)",
                ));
            }
        }
        if let Some(sp) = &self.speculation {
            // Clones race outside the winner job's guarantee, so the
            // budget must fit in the headroom every job is promised to
            // leave idle — otherwise a fully-guaranteed job could never
            // clone and the admission ledger would price phantom tokens.
            if sp.clone_budget > self.total_tokens - self.max_guarantee {
                return Err(E::Inconsistent(
                    "speculation clone_budget exceeds the spare headroom total_tokens - \
                     max_guarantee, so clones could never be placed alongside a fully-guaranteed \
                     job",
                ));
            }
        }
        Ok(())
    }
}

/// Why a [`ClusterConfig`] was rejected by
/// [`ClusterConfig::validate`].
#[derive(Clone, Debug, PartialEq)]
pub enum InvalidClusterConfig {
    /// `total_tokens` must be positive.
    TotalTokens,
    /// `max_guarantee` must be in `[1, total_tokens]`.
    MaxGuarantee(u32),
    /// `spare_slowdown` must be a finite value `>= 1` (NaN is rejected
    /// explicitly).
    SpareSlowdown(f64),
    /// `control_period` must be positive.
    ControlPeriod,
    /// A background-load parameter is out of range.
    Background(&'static str),
    /// The placement model is invalid.
    Placement(String),
    /// The topology model is invalid.
    Topology(String),
    /// A failure-injection parameter is out of range.
    Failures(&'static str),
    /// A speculative-execution parameter is out of range.
    Speculation(&'static str),
    /// Two individually-valid sections contradict each other (e.g. the
    /// failure model's machine accounting vs. the topology's).
    Inconsistent(&'static str),
}

impl fmt::Display for InvalidClusterConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            InvalidClusterConfig::TotalTokens => write!(f, "total_tokens must be positive"),
            InvalidClusterConfig::MaxGuarantee(v) => {
                write!(f, "max_guarantee must be in [1, total_tokens], got {v}")
            }
            InvalidClusterConfig::SpareSlowdown(v) => {
                write!(f, "spare_slowdown must be a finite value >= 1, got {v}")
            }
            InvalidClusterConfig::ControlPeriod => write!(f, "control_period must be positive"),
            InvalidClusterConfig::Background(what) => write!(f, "background {what}"),
            InvalidClusterConfig::Placement(what) => write!(f, "{what}"),
            InvalidClusterConfig::Topology(what) => write!(f, "topology {what}"),
            InvalidClusterConfig::Failures(what) => write!(f, "{what}"),
            InvalidClusterConfig::Speculation(what) => write!(f, "speculation {what}"),
            InvalidClusterConfig::Inconsistent(what) => write!(f, "{what}"),
        }
    }
}

impl std::error::Error for InvalidClusterConfig {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_validate() {
        assert_eq!(ClusterConfig::dedicated(10).validate(), Ok(()));
        assert_eq!(
            ClusterConfig::dedicated_with_failures(10).validate(),
            Ok(())
        );
        assert_eq!(ClusterConfig::production().validate(), Ok(()));
    }

    #[test]
    fn dedicated_has_no_noise() {
        let c = ClusterConfig::dedicated(42);
        assert!(!c.background.enabled);
        assert!(!c.spare_enabled);
        assert_eq!(c.failures.task_failure_prob, Some(0.0));
        assert_eq!(c.total_tokens, 42);
        assert_eq!(c.max_guarantee, 42);
    }

    #[test]
    fn validation_catches_bad_values() {
        let mut c = ClusterConfig::dedicated(10);
        c.total_tokens = 0;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::dedicated(10);
        c.max_guarantee = 11;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::dedicated(10);
        c.spare_slowdown = 0.5;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::production();
        c.background.mean_util = 1.5;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::production();
        c.failures.data_loss_prob = -0.1;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::dedicated(10);
        c.failures.task_failure_prob = Some(2.0);
        assert!(c.validate().is_err());
    }

    #[test]
    fn cross_field_validation_catches_contradictions() {
        use crate::placement::PlacementConfig;
        use crate::topology::TopologyConfig;

        // Placement and topology are mutually exclusive.
        let mut c = ClusterConfig::dedicated(10);
        c.placement = Some(PlacementConfig::production());
        c.topology = Some(TopologyConfig::google_mix(4));
        assert_eq!(
            c.validate(),
            Err(InvalidClusterConfig::Inconsistent(
                "placement and topology are mutually exclusive; topology supersedes placement",
            ))
        );

        // Rack failures and replica loss are meaningless without racks.
        let mut c = ClusterConfig::dedicated(10);
        c.failures.rack_failure_rate_per_hour = 0.5;
        assert!(matches!(
            c.validate(),
            Err(InvalidClusterConfig::Inconsistent(_))
        ));
        let mut c = ClusterConfig::dedicated(10);
        c.failures.replica_loss_prob = 0.5;
        assert!(matches!(
            c.validate(),
            Err(InvalidClusterConfig::Inconsistent(_))
        ));

        // A topology too small to host the token pool contradicts the
        // per-machine failure hazard (it would fail machines that the
        // token accounting pretends don't exist).
        let mut c = ClusterConfig::dedicated(100);
        c.topology = Some(TopologyConfig::uniform(2, 4)); // 8 machines x 4 slots = 32
        c.failures.machine_failure_rate_per_hour = 0.01;
        assert!(matches!(
            c.validate(),
            Err(InvalidClusterConfig::Inconsistent(_))
        ));
        // Enough machines: the same config validates.
        c.topology = Some(TopologyConfig::uniform(5, 6)); // 30 x 4 = 120
        assert_eq!(c.validate(), Ok(()));

        // Same contradiction through the legacy placement model.
        let mut c = ClusterConfig::dedicated(100);
        c.placement = Some(PlacementConfig {
            machines: 10,
            locality_fraction: 0.9,
            remote_penalty: 1.3,
        });
        c.failures.machine_failure_rate_per_hour = 0.01;
        c.failures.tasks_per_machine = 2; // 10 x 2 = 20 < 100 tokens
        assert!(matches!(
            c.validate(),
            Err(InvalidClusterConfig::Inconsistent(_))
        ));
        c.failures.tasks_per_machine = 10; // 10 x 10 = 100
        assert_eq!(c.validate(), Ok(()));

        // tasks_per_machine = 0 with failures on and no machine model
        // would silently fall back to max(1) in machine_count().
        let mut c = ClusterConfig::dedicated(10);
        c.failures.machine_failure_rate_per_hour = 0.01;
        c.failures.tasks_per_machine = 0;
        assert!(matches!(
            c.validate(),
            Err(InvalidClusterConfig::Inconsistent(_))
        ));
    }

    #[test]
    fn speculation_parameters_validate() {
        // A sane clone-on-slow config passes.
        let mut c = ClusterConfig::production();
        c.speculation = Some(SpeculationConfig::clone_on_slow(2.0, 10));
        assert_eq!(c.validate(), Ok(()));

        // Threshold at or below 1.0 would clone the median attempt.
        let mut c = ClusterConfig::production();
        c.speculation = Some(SpeculationConfig::clone_on_slow(1.0, 10));
        assert!(matches!(
            c.validate(),
            Err(InvalidClusterConfig::Speculation(_))
        ));
        let mut c = ClusterConfig::production();
        c.speculation = Some(SpeculationConfig::clone_on_slow(f64::NAN, 10));
        assert!(matches!(
            c.validate(),
            Err(InvalidClusterConfig::Speculation(_))
        ));

        // A zero clone budget is speculation that can never speculate.
        let mut c = ClusterConfig::production();
        c.speculation = Some(SpeculationConfig::clone_on_slow(2.0, 0));
        assert!(matches!(
            c.validate(),
            Err(InvalidClusterConfig::Speculation(_))
        ));

        // The watcher must actually fire.
        let mut c = ClusterConfig::production();
        let mut sp = SpeculationConfig::clone_on_slow(2.0, 10);
        sp.watch_period = SimDuration::from_secs(0);
        c.speculation = Some(sp);
        assert!(matches!(
            c.validate(),
            Err(InvalidClusterConfig::Speculation(_))
        ));

        // Cross-field: the clone budget must fit in the headroom the
        // guarantee cap leaves idle (total_tokens - max_guarantee).
        let mut c = ClusterConfig::dedicated(10); // max_guarantee == total
        c.speculation = Some(SpeculationConfig::clone_on_slow(2.0, 1));
        assert!(matches!(
            c.validate(),
            Err(InvalidClusterConfig::Inconsistent(_))
        ));
        c.max_guarantee = 8; // headroom 2 >= budget 1
        assert_eq!(c.validate(), Ok(()));
    }

    #[test]
    fn diurnal_parameters_validate() {
        let mut c = ClusterConfig::production();
        c.background.diurnal_amplitude = 0.25;
        assert_eq!(c.validate(), Ok(()));
        c.background.diurnal_period = SimDuration::from_secs(0);
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::production();
        c.background.diurnal_amplitude = f64::NAN;
        assert!(c.validate().is_err());
        let mut c = ClusterConfig::production();
        c.background.diurnal_phase = f64::INFINITY;
        assert!(c.validate().is_err());
    }

    #[test]
    fn validation_rejects_nan() {
        // `spare_slowdown < 1.0` alone would let NaN through: every
        // comparison against NaN is false.
        let mut c = ClusterConfig::dedicated(10);
        c.spare_slowdown = f64::NAN;
        assert!(matches!(
            c.validate(),
            Err(InvalidClusterConfig::SpareSlowdown(v)) if v.is_nan()
        ));

        let mut c = ClusterConfig::dedicated(10);
        c.failures.machine_failure_rate_per_hour = f64::NAN;
        assert!(c.validate().is_err());

        let mut c = ClusterConfig::production();
        c.background.mean_util = f64::NAN;
        assert!(c.validate().is_err());
    }
}
