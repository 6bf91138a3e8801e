//! Property-based tests of the simulation runtime's invariants.

use jockey_simrt::dist::{Constant, Dist, Empirical, Exponential, LogNormal, Pareto, Uniform};
use jockey_simrt::event::EventQueue;
use jockey_simrt::rng::SeedDeriver;
use jockey_simrt::series::TimeSeries;
use jockey_simrt::stats::{percentile_sorted, Ecdf, OnlineStats};
use jockey_simrt::time::{SimDuration, SimTime};
use proptest::prelude::*;

proptest! {
    /// Percentiles of a sorted sample stay within its range and are
    /// monotone in the requested quantile.
    #[test]
    fn percentile_bounds_and_monotonicity(
        mut xs in proptest::collection::vec(-1e6_f64..1e6, 1..200),
        q1 in 0.0_f64..100.0,
        q2 in 0.0_f64..100.0,
    ) {
        xs.sort_by(f64::total_cmp);
        let (lo, hi) = (q1.min(q2), q1.max(q2));
        let plo = percentile_sorted(&xs, lo);
        let phi = percentile_sorted(&xs, hi);
        prop_assert!(plo <= phi + 1e-9);
        prop_assert!(plo >= xs[0] - 1e-9);
        prop_assert!(phi <= xs[xs.len() - 1] + 1e-9);
    }

    /// An ECDF is a valid distribution function: monotone, 0 below the
    /// minimum, 1 at and above the maximum, and quantile is a
    /// right-inverse up to sample resolution.
    #[test]
    fn ecdf_is_a_distribution_function(
        xs in proptest::collection::vec(-1e3_f64..1e3, 1..100),
        probe in -2e3_f64..2e3,
    ) {
        let e = Ecdf::new(xs.clone());
        let min = xs.iter().copied().fold(f64::INFINITY, f64::min);
        let max = xs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        prop_assert_eq!(e.eval(min - 1.0), 0.0);
        prop_assert_eq!(e.eval(max), 1.0);
        let f = e.eval(probe);
        prop_assert!((0.0..=1.0).contains(&f));
        prop_assert!(e.eval(probe + 1.0) >= f);
    }

    /// Welford merging is equivalent to batch accumulation, regardless
    /// of the split point.
    #[test]
    fn online_stats_merge_associative(
        xs in proptest::collection::vec(-1e4_f64..1e4, 2..120),
        split_frac in 0.0_f64..1.0,
    ) {
        let split = ((xs.len() as f64 * split_frac) as usize).min(xs.len());
        let mut whole = OnlineStats::new();
        for &x in &xs { whole.push(x); }
        let mut a = OnlineStats::new();
        let mut b = OnlineStats::new();
        for &x in &xs[..split] { a.push(x); }
        for &x in &xs[split..] { b.push(x); }
        a.merge(&b);
        prop_assert_eq!(a.count(), whole.count());
        prop_assert!((a.mean() - whole.mean()).abs() < 1e-6);
        prop_assert!((a.variance() - whole.variance()).abs() < 1e-4 * (1.0 + whole.variance()));
    }

    /// The event queue releases events in nondecreasing time order,
    /// FIFO within a timestamp.
    #[test]
    fn event_queue_is_stable_priority_queue(
        times in proptest::collection::vec(0_u64..1000, 1..100),
    ) {
        let mut q = EventQueue::new();
        for (i, &t) in times.iter().enumerate() {
            q.schedule(SimTime::from_millis(t), (t, i));
        }
        let mut last: Option<(u64, usize)> = None;
        while let Some((at, (t, i))) = q.pop() {
            prop_assert_eq!(at.as_millis(), t);
            if let Some((lt, li)) = last {
                prop_assert!(t > lt || (t == lt && i > li), "order violated");
            }
            last = Some((t, i));
        }
    }

    /// Distributions only emit non-negative, finite samples.
    #[test]
    fn distributions_emit_valid_samples(seed in any::<u64>()) {
        let mut rng = SeedDeriver::new(seed).rng("props");
        let dists: Vec<Dist> = vec![
            Constant(4.0).into(),
            Uniform::new(0.0, 10.0).into(),
            Exponential::with_mean(3.0).into(),
            LogNormal::from_median_p90(2.0, 9.0).into(),
            Pareto::new(1.0, 1.5).into(),
            Empirical::new(vec![0.0, 0.5, 7.0, 1e4]).into(),
            Dist::mixture(LogNormal::from_median_p90(2.0, 9.0), Pareto::new(60.0, 1.2), 0.1),
            Dist::clamped(Pareto::new(1.0, 0.5), 0.0, 100.0),
            Dist::scaled(Exponential::with_mean(3.0), 2.5),
            Dist::scaled(
                Dist::clamped(
                    Dist::mixture(Uniform::new(1.0, 2.0), Pareto::new(5.0, 0.8), 0.3),
                    0.5,
                    500.0,
                ),
                0.1,
            ),
        ];
        for d in &dists {
            for _ in 0..50 {
                let x = d.sample(&mut rng);
                prop_assert!(x.is_finite() && x >= 0.0, "bad sample {}", x);
            }
        }
    }

    /// The log-normal (median, p90) fit reproduces its own parameters.
    #[test]
    fn lognormal_fit_roundtrip(median in 0.01_f64..1e4, ratio in 1.0_f64..50.0) {
        let d = LogNormal::from_median_p90(median, median * ratio);
        prop_assert!((d.median() / median - 1.0).abs() < 1e-9);
        prop_assert!((d.p90() / (median * ratio) - 1.0).abs() < 1e-9);
    }

    /// Time-series integral is additive across any split point.
    #[test]
    fn series_integral_additive(
        steps in proptest::collection::vec((1_u64..120, 0.0_f64..100.0), 1..30),
        split_min in 0_u64..300,
    ) {
        let mut s = TimeSeries::new();
        let mut t = SimTime::ZERO;
        for &(dt, v) in &steps {
            s.push(t, v);
            t += SimDuration::from_mins(dt);
        }
        let end = t;
        let mid = SimTime::from_mins(split_min).min(end);
        // integral(0..mid as end) + remaining piece == integral(0..end)
        let total = s.integral_until(end);
        let first = s.integral_until(mid);
        prop_assert!(first <= total + 1e-6);
    }

    /// Derived seed streams never collide across indices (sampled).
    #[test]
    fn seed_streams_distinct(root in any::<u64>(), a in 0_u64..1000, b in 0_u64..1000) {
        prop_assume!(a != b);
        let d = SeedDeriver::new(root);
        prop_assert_ne!(d.seed_indexed("s", a), d.seed_indexed("s", b));
    }
}
