//! Aggregate background-load model.
//!
//! Rather than simulating thousands of co-located jobs individually,
//! the simulator models their aggregate token demand as a stochastic
//! utilization process: an Ornstein–Uhlenbeck (mean-reverting) random
//! walk sampled on a fixed tick, overlaid with Poisson-arriving
//! *overload events* during which utilization pins at a configured
//! ceiling. This captures the two phenomena §2.3–§2.4 attribute to
//! other jobs: fluctuating spare-token availability, and cluster-wide
//! slowdown under contention.

use crate::config::BackgroundConfig;
use jockey_simrt::dist::exp_duration;
use jockey_simrt::time::{SimDuration, SimTime};
use rand::rngs::StdRng;
use rand::Rng;

/// The evolving background-load state.
///
/// Call [`BackgroundModel::advance_to`] before reading; the model
/// resamples itself on its internal tick.
#[derive(Clone, Debug)]
pub struct BackgroundModel {
    cfg: BackgroundConfig,
    rng: StdRng,
    /// Current OU utilization (before overload override).
    util: f64,
    /// Time the process last ticked.
    last_tick: SimTime,
    /// End of the current overload event, if one is active.
    overload_until: Option<SimTime>,
    /// Next scheduled overload arrival.
    next_overload: SimTime,
}

impl BackgroundModel {
    /// Creates the model; `rng` must be a dedicated stream.
    pub fn new(cfg: BackgroundConfig, mut rng: StdRng) -> Self {
        let next_overload = if cfg.enabled && cfg.overload_rate_per_hour > 0.0 {
            SimTime::ZERO + exp_duration(&mut rng, 3600.0 / cfg.overload_rate_per_hour)
        } else {
            SimTime::MAX
        };
        let util = cfg.mean_util;
        BackgroundModel {
            cfg,
            rng,
            util,
            last_tick: SimTime::ZERO,
            overload_until: None,
            next_overload,
        }
    }

    /// Advances the process to `now`, resampling on each elapsed tick.
    ///
    /// Overload-arrival draws and OU tick draws share one RNG stream,
    /// so they are consumed in *simulated-time order* (ties go to the
    /// arrival, matching a caller that advances one instant at a
    /// time). The trajectory therefore depends only on the tick grid
    /// and the RNG stream — never on how callers chunk their
    /// `advance_to` calls.
    pub fn advance_to(&mut self, now: SimTime) {
        if !self.cfg.enabled {
            return;
        }
        loop {
            let next_tick = self.last_tick + self.cfg.tick;
            let arrival_due = self.next_overload <= now;
            let tick_due = next_tick <= now;
            if arrival_due && (!tick_due || self.next_overload <= next_tick) {
                // Start an overload episode and schedule the next.
                let dur = exp_duration(
                    &mut self.rng,
                    self.cfg.overload_duration_mins.max(0.01) * 60.0,
                );
                let start = self.next_overload;
                self.overload_until = Some(start + dur);
                self.next_overload = start
                    + exp_duration(&mut self.rng, 3600.0 / self.cfg.overload_rate_per_hour)
                    + dur;
            } else if tick_due {
                // One OU step. The reversion target is the (possibly
                // diurnally-modulated) mean evaluated *at the tick
                // being stepped*.
                self.last_tick = next_tick;
                let noise: f64 = standard_normal(&mut self.rng) * self.cfg.volatility;
                let target = self.effective_mean(self.last_tick);
                self.util += self.cfg.reversion * (target - self.util) + noise;
                self.util = self.util.clamp(0.0, 1.0);
            } else {
                break;
            }
        }
        if let Some(until) = self.overload_until {
            if now >= until {
                self.overload_until = None;
            }
        }
    }

    /// The OU reversion target at `at`: the configured mean, plus the
    /// diurnal modulation when enabled. With `diurnal_amplitude == 0`
    /// this returns `mean_util` exactly (no trig evaluated), keeping
    /// the stationary process bit-identical to the pre-diurnal model.
    pub fn effective_mean(&self, at: SimTime) -> f64 {
        if self.cfg.diurnal_amplitude == 0.0 {
            return self.cfg.mean_util;
        }
        let cycles = at.as_secs_f64() / self.cfg.diurnal_period.as_secs_f64();
        let wave = (std::f64::consts::TAU * (cycles + self.cfg.diurnal_phase)).sin();
        (self.cfg.mean_util + self.cfg.diurnal_amplitude * wave).clamp(0.0, 1.0)
    }

    /// Current effective utilization in `[0, 1]`.
    pub fn utilization(&self, now: SimTime) -> f64 {
        if !self.cfg.enabled {
            return 0.0;
        }
        match self.overload_until {
            Some(until) if now < until => self.cfg.overload_util,
            _ => self.util,
        }
    }

    /// Tokens demanded by background jobs out of `total`.
    pub fn demand_tokens(&self, now: SimTime, total: u32) -> u32 {
        // Disabled, the utilization is 0: skip the software `round` in
        // every scheduling pass of a dedicated (training) cluster.
        if !self.cfg.enabled {
            return 0;
        }
        (self.utilization(now) * f64::from(total)).round() as u32
    }

    /// Cluster-wide task slowdown multiplier at `now`:
    /// `1 + slope * max(0, util - knee)`.
    pub fn slowdown(&self, now: SimTime) -> f64 {
        let u = self.utilization(now);
        1.0 + self.cfg.slowdown_slope * (u - self.cfg.slowdown_knee).max(0.0)
    }

    /// True while an overload episode is active.
    pub fn in_overload(&self, now: SimTime) -> bool {
        matches!(self.overload_until, Some(until) if now < until)
    }

    /// The process resampling period.
    pub fn tick(&self) -> SimDuration {
        self.cfg.tick
    }
}

/// One Box–Muller standard normal draw.
fn standard_normal(rng: &mut StdRng) -> f64 {
    let u1: f64 = 1.0 - rng.gen::<f64>();
    let u2: f64 = rng.gen();
    (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
}

#[cfg(test)]
mod tests {
    use super::*;
    use jockey_simrt::rng::SeedDeriver;

    fn rng() -> StdRng {
        SeedDeriver::new(11).rng("bg")
    }

    #[test]
    fn disabled_model_is_silent() {
        let mut m = BackgroundModel::new(BackgroundConfig::none(), rng());
        m.advance_to(SimTime::from_mins(60));
        assert_eq!(m.utilization(SimTime::from_mins(60)), 0.0);
        assert_eq!(m.demand_tokens(SimTime::from_mins(60), 1000), 0);
        assert_eq!(m.slowdown(SimTime::from_mins(60)), 1.0);
    }

    #[test]
    fn utilization_reverts_to_mean() {
        let mut cfg = BackgroundConfig::production();
        cfg.overload_rate_per_hour = 0.0;
        let mut m = BackgroundModel::new(cfg.clone(), rng());
        let mut total = 0.0;
        let mut n = 0;
        for minute in 1..=600 {
            let t = SimTime::from_mins(minute);
            m.advance_to(t);
            total += m.utilization(t);
            n += 1;
        }
        let avg = total / f64::from(n);
        assert!((avg - cfg.mean_util).abs() < 0.05, "avg {avg}");
    }

    #[test]
    fn utilization_stays_in_bounds() {
        let mut cfg = BackgroundConfig::production();
        cfg.volatility = 0.5; // Extreme noise.
        let mut m = BackgroundModel::new(cfg, rng());
        for minute in 1..=240 {
            let t = SimTime::from_mins(minute);
            m.advance_to(t);
            let u = m.utilization(t);
            assert!((0.0..=1.0).contains(&u), "u {u}");
        }
    }

    #[test]
    fn overloads_occur_and_end() {
        let mut cfg = BackgroundConfig::production();
        cfg.overload_rate_per_hour = 6.0; // Frequent for the test.
        cfg.overload_duration_mins = 5.0;
        let mut m = BackgroundModel::new(cfg.clone(), rng());
        let mut overloaded_minutes = 0;
        let mut normal_minutes = 0;
        for minute in 1..=600 {
            let t = SimTime::from_mins(minute);
            m.advance_to(t);
            if m.in_overload(t) {
                overloaded_minutes += 1;
                assert_eq!(m.utilization(t), cfg.overload_util);
            } else {
                normal_minutes += 1;
            }
        }
        assert!(overloaded_minutes > 10, "got {overloaded_minutes}");
        assert!(normal_minutes > 100, "got {normal_minutes}");
    }

    #[test]
    fn slowdown_kicks_in_above_knee() {
        let mut cfg = BackgroundConfig::production();
        cfg.overload_rate_per_hour = 0.0;
        cfg.slowdown_knee = 0.0;
        cfg.slowdown_slope = 2.0;
        let m = BackgroundModel::new(cfg.clone(), rng());
        let t = SimTime::ZERO;
        let expected = 1.0 + 2.0 * m.utilization(t);
        assert!((m.slowdown(t) - expected).abs() < 1e-12);
    }

    #[test]
    fn demand_tokens_scales_with_total() {
        let mut cfg = BackgroundConfig::production();
        cfg.overload_rate_per_hour = 0.0;
        cfg.volatility = 0.0;
        let m = BackgroundModel::new(cfg, rng());
        assert_eq!(m.demand_tokens(SimTime::ZERO, 1000), 800);
        assert_eq!(m.demand_tokens(SimTime::ZERO, 10), 8);
    }

    #[test]
    fn deterministic_for_same_seed() {
        let cfg = BackgroundConfig::production();
        let mut a = BackgroundModel::new(cfg.clone(), rng());
        let mut b = BackgroundModel::new(cfg, rng());
        for minute in 1..=120 {
            let t = SimTime::from_mins(minute);
            a.advance_to(t);
            b.advance_to(t);
            assert_eq!(a.utilization(t), b.utilization(t));
        }
    }

    /// The trajectory is a function of the tick grid and the RNG
    /// stream, not of how callers chunk their `advance_to` calls:
    /// advancing in one jump visits exactly the per-tick states (OU
    /// utilization *and* overload-episode bookkeeping) that many small
    /// steps visit.
    #[test]
    fn advance_granularity_does_not_change_tick_states() {
        let mut cfg = BackgroundConfig::production();
        cfg.overload_rate_per_hour = 6.0; // Exercise the episode path.
        cfg.overload_duration_mins = 5.0;
        cfg.diurnal_amplitude = 0.2; // And the modulated OU target.
        cfg.diurnal_period = SimDuration::from_mins(240);

        // Fine: one advance per simulated second for four hours.
        let mut fine = BackgroundModel::new(cfg.clone(), rng());
        let mut fine_states = Vec::new();
        for sec in 1..=(4 * 3600) {
            let t = SimTime::from_secs(sec);
            fine.advance_to(t);
            if sec % 30 == 0 {
                // On the 30 s tick grid: record the post-tick state.
                fine_states.push((fine.utilization(t).to_bits(), fine.in_overload(t)));
            }
        }

        // Coarse: jump straight to each tick boundary.
        let mut coarse = BackgroundModel::new(cfg.clone(), rng());
        let mut coarse_states = Vec::new();
        for tick in 1..=(4 * 3600 / 30) {
            let t = SimTime::from_secs(tick * 30);
            coarse.advance_to(t);
            coarse_states.push((coarse.utilization(t).to_bits(), coarse.in_overload(t)));
        }
        assert_eq!(fine_states, coarse_states);

        // Coarsest: one four-hour jump lands in the same final state.
        let mut jump = BackgroundModel::new(cfg, rng());
        let end = SimTime::from_secs(4 * 3600);
        jump.advance_to(end);
        assert_eq!(
            jump.utilization(end).to_bits(),
            fine_states.last().unwrap().0
        );
    }

    #[test]
    fn zero_amplitude_diurnal_is_bit_identical_to_stationary() {
        let stationary = BackgroundConfig::production();
        let mut explicit = stationary.clone();
        explicit.diurnal_amplitude = 0.0;
        explicit.diurnal_phase = 0.25; // Irrelevant at zero amplitude.
        let mut a = BackgroundModel::new(stationary, rng());
        let mut b = BackgroundModel::new(explicit, rng());
        for minute in 1..=240 {
            let t = SimTime::from_mins(minute);
            a.advance_to(t);
            b.advance_to(t);
            assert_eq!(a.utilization(t).to_bits(), b.utilization(t).to_bits());
        }
    }

    #[test]
    fn diurnal_modulation_shifts_the_daily_load_profile() {
        let mut cfg = BackgroundConfig::production();
        cfg.overload_rate_per_hour = 0.0;
        cfg.mean_util = 0.5;
        cfg.volatility = 0.01;
        cfg.diurnal_amplitude = 0.3;
        cfg.diurnal_period = SimDuration::from_mins(24 * 60);
        cfg.diurnal_phase = 0.0; // Peak at 6 h, trough at 18 h.
        let mut m = BackgroundModel::new(cfg, rng());
        let mut peak = 0.0;
        let mut trough = 0.0;
        let mut peak_n = 0.0;
        let mut trough_n = 0.0;
        for minute in 1..=(24 * 60) {
            let t = SimTime::from_mins(minute);
            m.advance_to(t);
            let hour = minute as f64 / 60.0;
            if (5.0..7.0).contains(&hour) {
                peak += m.utilization(t);
                peak_n += 1.0;
            }
            if (17.0..19.0).contains(&hour) {
                trough += m.utilization(t);
                trough_n += 1.0;
            }
        }
        let peak = peak / peak_n;
        let trough = trough / trough_n;
        assert!(
            peak - trough > 0.3,
            "diurnal peak {peak:.3} vs trough {trough:.3}"
        );
    }
}
