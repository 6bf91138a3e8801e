//! Piecewise-linear job utility functions.
//!
//! §2.2: "Directly specifying a utility function to indicate a job's
//! deadline and importance alleviates this problem for our users." The
//! evaluation (§5.1) uses, for a deadline of `d` minutes, the
//! piecewise-linear function through `(0, 1)`, `(d, 1)`, `(d+10, −1)`,
//! `(d+1000, −1000)`: flat until the deadline, dropping sharply after
//! it, and ever more negative the later the job finishes.

use jockey_simrt::time::SimDuration;

/// A piecewise-linear utility over completion time (seconds from job
/// start). Between knots the function interpolates linearly; beyond the
/// last knot it extrapolates the final segment's slope.
#[derive(Debug, PartialEq)]
pub struct UtilityFunction {
    /// `(completion_secs, utility)` knots, strictly increasing in time.
    knots: Vec<(f64, f64)>,
    /// The deadline this function encodes, if built from one.
    deadline: Option<SimDuration>,
}

/// Written out so `clone_from` copies the knots into the target's
/// existing buffer: the control plane's refresh re-gathers every job's
/// utility into reused storage without allocating.
impl Clone for UtilityFunction {
    fn clone(&self) -> Self {
        UtilityFunction {
            knots: self.knots.clone(),
            deadline: self.deadline,
        }
    }

    fn clone_from(&mut self, source: &Self) {
        self.knots.clone_from(&source.knots);
        self.deadline = source.deadline;
    }
}

impl UtilityFunction {
    /// Builds a utility from explicit knots.
    ///
    /// # Panics
    ///
    /// Panics if fewer than two knots are given or times are not
    /// strictly increasing.
    pub fn from_knots(knots: Vec<(f64, f64)>) -> Self {
        assert!(knots.len() >= 2, "need at least two knots");
        assert!(
            knots.windows(2).all(|w| w[0].0 < w[1].0),
            "knot times must be strictly increasing"
        );
        UtilityFunction {
            knots,
            deadline: None,
        }
    }

    /// The paper's standard deadline utility (§5.1): for deadline `d`,
    /// the function through `(0, 1)`, `(d, 1)`, `(d + 10 min, −1)`,
    /// `(d + 1000 min, −1000)`.
    ///
    /// # Panics
    ///
    /// Panics if `deadline` is zero.
    pub fn deadline(deadline: SimDuration) -> Self {
        assert!(!deadline.is_zero(), "deadline must be positive");
        let d = deadline.as_secs_f64();
        UtilityFunction {
            knots: vec![
                (0.0, 1.0),
                (d, 1.0),
                (d + 600.0, -1.0),
                (d + 60_000.0, -1000.0),
            ],
            deadline: Some(deadline),
        }
    }

    /// The deadline encoded by this function, if any.
    pub fn deadline_duration(&self) -> Option<SimDuration> {
        self.deadline
    }

    /// Evaluates the utility of completing at `t_secs` from job start.
    pub fn eval(&self, t_secs: f64) -> f64 {
        let k = &self.knots;
        if t_secs <= k[0].0 {
            return k[0].1;
        }
        for w in k.windows(2) {
            let (t0, u0) = w[0];
            let (t1, u1) = w[1];
            if t_secs <= t1 {
                return u0 + (u1 - u0) * (t_secs - t0) / (t1 - t0);
            }
        }
        // Extrapolate the final slope.
        let (t0, u0) = k[k.len() - 2];
        let (t1, u1) = k[k.len() - 1];
        u1 + (u1 - u0) / (t1 - t0) * (t_secs - t1)
    }

    /// The most this utility can return, if its knot values never
    /// rise: the first knot's value. `None` when some knot's value
    /// rises above (or is not comparable to) the one before it.
    ///
    /// With non-rising knots, [`UtilityFunction::eval`] never exceeds
    /// the first knot's value: before the first knot it returns that
    /// value, each interpolation adds a non-positive term to a knot's
    /// value, and so does the extrapolation past the last knot (IEEE
    /// rounding is monotone, so adding a non-positive term never
    /// rounds up). A NaN time evaluates to NaN. So a job whose utility
    /// already equals its ceiling can gain nothing from more tokens,
    /// which is what lets [`crate::arbiter::arbitrate`] skip it, and
    /// stop a behind job's curve at the first allocation that reaches
    /// it.
    pub fn ceiling(&self) -> Option<f64> {
        self.knots
            .windows(2)
            .all(|w| w[1].1 <= w[0].1)
            .then_some(self.knots[0].1)
    }

    /// A copy shifted left by `shift`: `U'(t) = U(t + shift)`. This is
    /// how the control loop's dead zone tightens the deadline (§4.3).
    pub fn shifted_left(&self, shift: SimDuration) -> Self {
        let s = shift.as_secs_f64();
        let knots = self
            .knots
            .iter()
            .map(|&(t, u)| (t - s, u))
            .collect::<Vec<_>>();
        // Times may now start below zero but remain strictly increasing.
        UtilityFunction {
            knots,
            deadline: self
                .deadline
                .map(|d| SimDuration::from_secs_f64((d.as_secs_f64() - s).max(0.0))),
        }
    }

    /// A copy with the deadline replaced, preserving the standard
    /// shape. Only valid on functions built by
    /// [`UtilityFunction::deadline`].
    ///
    /// # Panics
    ///
    /// Panics if this function was not built from a deadline.
    pub fn with_deadline(&self, new_deadline: SimDuration) -> Self {
        assert!(
            self.deadline.is_some(),
            "with_deadline requires a deadline-shaped utility"
        );
        UtilityFunction::deadline(new_deadline)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deadline_shape_matches_paper() {
        let d = SimDuration::from_mins(60);
        let u = UtilityFunction::deadline(d);
        assert_eq!(u.eval(0.0), 1.0);
        assert_eq!(u.eval(3_600.0), 1.0);
        assert_eq!(u.eval(1_800.0), 1.0);
        // 10 minutes late: -1.
        assert!((u.eval(3_600.0 + 600.0) - (-1.0)).abs() < 1e-9);
        // Halfway through the drop: 0.
        assert!(u.eval(3_600.0 + 300.0).abs() < 1e-9);
        // 1000 minutes late: -1000.
        assert!((u.eval(3_600.0 + 60_000.0) - (-1000.0)).abs() < 1e-9);
        assert_eq!(u.deadline_duration(), Some(d));
    }

    #[test]
    fn extrapolates_final_slope() {
        let u = UtilityFunction::deadline(SimDuration::from_mins(10));
        let end = 600.0 + 60_000.0;
        let slope = (-1000.0 - (-1.0)) / (60_000.0 - 600.0);
        let expected = -1000.0 + slope * 1_000.0;
        assert!((u.eval(end + 1_000.0) - expected).abs() < 1e-6);
    }

    #[test]
    fn earlier_is_never_worse() {
        let u = UtilityFunction::deadline(SimDuration::from_mins(45));
        let mut prev = f64::INFINITY;
        for i in 0..200 {
            let t = i as f64 * 60.0;
            let v = u.eval(t);
            assert!(v <= prev + 1e-12, "utility increased at {t}");
            prev = v;
        }
    }

    #[test]
    fn shifted_left_tightens_deadline() {
        let u = UtilityFunction::deadline(SimDuration::from_mins(60));
        let s = u.shifted_left(SimDuration::from_mins(3));
        // At 57 minutes the shifted function is still flat.
        assert_eq!(s.eval(57.0 * 60.0), 1.0);
        // At 60 minutes the shifted function has started dropping.
        assert!(s.eval(60.0 * 60.0) < 1.0);
        assert_eq!(s.deadline_duration(), Some(SimDuration::from_mins(57)));
    }

    #[test]
    fn with_deadline_replaces() {
        let u = UtilityFunction::deadline(SimDuration::from_mins(60));
        let v = u.with_deadline(SimDuration::from_mins(30));
        assert_eq!(v.eval(1_900.0), 1.0 - (1_900.0 - 1_800.0) / 600.0 * 2.0);
        assert_eq!(v.deadline_duration(), Some(SimDuration::from_mins(30)));
    }

    #[test]
    fn custom_knots_interpolate() {
        let u = UtilityFunction::from_knots(vec![(0.0, 10.0), (100.0, 0.0)]);
        assert_eq!(u.eval(-5.0), 10.0);
        assert_eq!(u.eval(50.0), 5.0);
        assert_eq!(u.eval(100.0), 0.0);
    }

    #[test]
    fn ceiling_is_the_first_knot_of_non_rising_knots() {
        let d = UtilityFunction::deadline(SimDuration::from_mins(60));
        assert_eq!(d.ceiling(), Some(1.0));
        assert_eq!(
            d.shifted_left(SimDuration::from_mins(90)).ceiling(),
            Some(1.0)
        );
        // Flat and tied knots still never rise.
        let flat = UtilityFunction::from_knots(vec![(0.0, 3.0), (5.0, 3.0), (9.0, 3.0)]);
        assert_eq!(flat.ceiling(), Some(3.0));
        let falling = UtilityFunction::from_knots(vec![(0.0, 2.0), (5.0, 2.0), (9.0, -4.0)]);
        assert_eq!(falling.ceiling(), Some(2.0));
        // One rising knot anywhere removes the ceiling.
        let rising = UtilityFunction::from_knots(vec![(0.0, 2.0), (5.0, 1.0), (9.0, 1.5)]);
        assert_eq!(rising.ceiling(), None);
        let nan = UtilityFunction::from_knots(vec![(0.0, 2.0), (5.0, f64::NAN)]);
        assert_eq!(nan.ceiling(), None);
    }

    #[test]
    fn eval_never_exceeds_the_ceiling() {
        let utilities = [
            UtilityFunction::deadline(SimDuration::from_secs_f64(700.0)),
            UtilityFunction::deadline(SimDuration::from_mins(60))
                .shifted_left(SimDuration::from_secs_f64(1_234.5)),
            UtilityFunction::from_knots(vec![(0.0, 0.1), (0.3, 0.1), (1e9, 0.1 - 1e-17)]),
            UtilityFunction::from_knots(vec![(-5.0, f64::INFINITY), (5.0, 1.0)]),
            UtilityFunction::from_knots(vec![(1.0, 7.0), (2.0, 7.0)]),
        ];
        let times = [
            f64::NEG_INFINITY,
            -1e300,
            -1.0,
            0.0,
            1e-300,
            0.3,
            1.0,
            1.5,
            2.0,
            699.999_999_999,
            700.0,
            700.000_000_001,
            4_321.0,
            1e9,
            1e300,
            f64::INFINITY,
        ];
        for (i, u) in utilities.iter().enumerate() {
            let c = u.ceiling().expect("non-rising knots");
            for &t in &times {
                let v = u.eval(t);
                assert!(v.is_nan() || v <= c, "utility {i} at {t}: {v} > {c}");
            }
            assert!(u.eval(f64::NAN).is_nan(), "utility {i}");
        }
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_unsorted_knots() {
        UtilityFunction::from_knots(vec![(5.0, 1.0), (5.0, 0.0)]);
    }
}
