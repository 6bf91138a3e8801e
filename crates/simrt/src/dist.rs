//! Sampling distributions for task runtimes, queueing delays and
//! failure processes.
//!
//! The Jockey paper's job simulator replays *per-stage distributions of
//! task runtimes and initialization latencies* extracted from a prior run
//! (§4.1). This module provides the distribution families the workspace
//! uses to model those quantities:
//!
//! - [`LogNormal`] — the canonical heavy-ish-tailed task-runtime model,
//!   fit directly from a (median, p90) pair as published in Table 2.
//! - [`Pareto`] — the straggler/outlier tail.
//! - [`Exponential`], [`Uniform`], [`Constant`] — building blocks.
//! - [`Empirical`] — resampling of recorded values, used when replaying a
//!   measured profile.
//! - [`Mixture`], [`Clamped`], [`Scaled`] — combinators, e.g. "97%
//!   log-normal body + 3% Pareto outliers, clamped to 1 hour".
//!
//! All samples are non-negative `f64` values; callers interpret the unit
//! (this workspace uses seconds).
//!
//! Hot paths that sample millions of times per run (the cluster
//! simulator's per-task-attempt draws) use the concrete [`Dist`] enum:
//! a closed universe of the families above that dispatches by `match`
//! and samples through a statically-typed RNG (`sample_with`), avoiding
//! the vtable call and pointer chase of `Arc<dyn Sample>` per draw.
//! Every family (and [`Dist`] itself) also implements the object-safe
//! [`Sample`] trait.

use std::sync::Arc;

use rand::Rng;

/// A sampleable, non-negative, real-valued distribution.
pub trait Sample: Send + Sync {
    /// Draws one value.
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64;

    /// The distribution mean, if known in closed form.
    fn mean(&self) -> Option<f64> {
        None
    }
}

/// A degenerate distribution returning a fixed value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Constant(pub f64);

impl Sample for Constant {
    fn sample(&self, _rng: &mut dyn rand::RngCore) -> f64 {
        self.0
    }

    fn mean(&self) -> Option<f64> {
        Some(self.0)
    }
}

/// Uniform distribution on `[lo, hi)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Uniform {
    lo: f64,
    hi: f64,
}

impl Uniform {
    /// Creates a uniform distribution on `[lo, hi)`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`, either bound is negative, or either is not
    /// finite.
    pub fn new(lo: f64, hi: f64) -> Self {
        assert!(lo.is_finite() && hi.is_finite() && lo >= 0.0 && lo <= hi);
        Uniform { lo, hi }
    }
}

impl Uniform {
    /// Draws one value through a statically-dispatched RNG.
    #[inline]
    pub fn sample_with<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + rng.gen::<f64>() * (self.hi - self.lo)
    }
}

impl Sample for Uniform {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn mean(&self) -> Option<f64> {
        Some((self.lo + self.hi) / 2.0)
    }
}

/// Exponential distribution parameterized by its mean.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Exponential {
    mean: f64,
}

impl Exponential {
    /// Creates an exponential distribution with the given mean.
    ///
    /// # Panics
    ///
    /// Panics if `mean` is not strictly positive and finite.
    pub fn with_mean(mean: f64) -> Self {
        assert!(mean.is_finite() && mean > 0.0, "invalid mean {mean}");
        Exponential { mean }
    }
}

impl Exponential {
    /// Draws one value through a statically-dispatched RNG.
    #[inline]
    pub fn sample_with<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF sampling; `1 - u` avoids ln(0).
        let u: f64 = rng.gen();
        -self.mean * (1.0 - u).ln()
    }
}

impl Sample for Exponential {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn mean(&self) -> Option<f64> {
        Some(self.mean)
    }
}

/// Log-normal distribution: `exp(mu + sigma * Z)` with `Z ~ N(0, 1)`.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct LogNormal {
    mu: f64,
    sigma: f64,
}

/// Standard-normal quantile of 0.9, used by [`LogNormal::from_median_p90`].
const Z_90: f64 = 1.281_551_565_544_600_5;

impl LogNormal {
    /// Creates a log-normal from its underlying normal parameters.
    ///
    /// # Panics
    ///
    /// Panics if `sigma` is negative or either parameter is not finite.
    pub fn new(mu: f64, sigma: f64) -> Self {
        assert!(mu.is_finite() && sigma.is_finite() && sigma >= 0.0);
        LogNormal { mu, sigma }
    }

    /// Fits a log-normal to a published (median, p90) pair.
    ///
    /// The median of a log-normal is `exp(mu)` and its p90 is
    /// `exp(mu + Z_90 * sigma)`, so both parameters are identified
    /// exactly. This is how the workspace reconstructs the per-stage task
    /// runtime distributions of Table 2.
    ///
    /// # Panics
    ///
    /// Panics if `median <= 0` or `p90 < median`.
    ///
    /// # Examples
    ///
    /// ```
    /// use jockey_simrt::dist::LogNormal;
    ///
    /// // Job A's overall vertex runtimes: median 16.3 s, p90 61.5 s.
    /// let d = LogNormal::from_median_p90(16.3, 61.5);
    /// assert!((d.median() - 16.3).abs() < 1e-9);
    /// assert!((d.p90() - 61.5).abs() < 1e-9);
    /// ```
    pub fn from_median_p90(median: f64, p90: f64) -> Self {
        assert!(median > 0.0, "median must be positive, got {median}");
        assert!(p90 >= median, "p90 {p90} below median {median}");
        let mu = median.ln();
        let sigma = (p90.ln() - mu) / Z_90;
        LogNormal::new(mu, sigma)
    }

    /// The distribution median, `exp(mu)`.
    pub fn median(&self) -> f64 {
        self.mu.exp()
    }

    /// The 90th percentile.
    pub fn p90(&self) -> f64 {
        (self.mu + Z_90 * self.sigma).exp()
    }

    /// Draws a standard normal via Box–Muller (one of the pair).
    fn standard_normal<R: rand::RngCore + ?Sized>(rng: &mut R) -> f64 {
        // `1 - u` keeps the argument of ln strictly positive.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos()
    }

    /// Draws one value through a statically-dispatched RNG.
    #[inline]
    pub fn sample_with<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        (self.mu + self.sigma * Self::standard_normal(rng)).exp()
    }
}

impl Sample for LogNormal {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn mean(&self) -> Option<f64> {
        Some((self.mu + self.sigma * self.sigma / 2.0).exp())
    }
}

/// Pareto distribution with scale `x_m` and shape `alpha`, used for
/// straggler tails.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Pareto {
    scale: f64,
    alpha: f64,
}

impl Pareto {
    /// Creates a Pareto distribution with minimum value `scale` and tail
    /// index `alpha`.
    ///
    /// # Panics
    ///
    /// Panics unless both parameters are strictly positive and finite.
    pub fn new(scale: f64, alpha: f64) -> Self {
        assert!(scale.is_finite() && scale > 0.0);
        assert!(alpha.is_finite() && alpha > 0.0);
        Pareto { scale, alpha }
    }
}

impl Pareto {
    /// Draws one value through a statically-dispatched RNG.
    #[inline]
    pub fn sample_with<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>();
        self.scale / u.powf(1.0 / self.alpha)
    }
}

impl Sample for Pareto {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn mean(&self) -> Option<f64> {
        (self.alpha > 1.0).then(|| self.alpha * self.scale / (self.alpha - 1.0))
    }
}

/// Resamples uniformly from a recorded set of values.
///
/// Used to replay measured profiles: sampling from an `Empirical` of a
/// stage's observed task runtimes reproduces that stage's distribution
/// without assuming a parametric family.
#[derive(Clone, Debug, PartialEq)]
pub struct Empirical {
    // Shared so cloning a job spec (or a `Dist`) holding thousands of
    // recorded runtimes costs a refcount bump, not a vector copy.
    values: Arc<[f64]>,
}

impl Empirical {
    /// Creates an empirical distribution over `values`.
    ///
    /// # Panics
    ///
    /// Panics if `values` is empty or contains a negative or non-finite
    /// value.
    pub fn new(values: Vec<f64>) -> Self {
        assert!(!values.is_empty(), "empirical distribution needs samples");
        assert!(
            values.iter().all(|v| v.is_finite() && *v >= 0.0),
            "empirical samples must be finite and non-negative"
        );
        Empirical {
            values: values.into(),
        }
    }

    /// The recorded values backing this distribution.
    pub fn values(&self) -> &[f64] {
        &self.values
    }

    /// Draws one value through a statically-dispatched RNG.
    #[inline]
    pub fn sample_with<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let i = rng.gen_range(0..self.values.len() as u64) as usize;
        self.values[i]
    }
}

impl Sample for Empirical {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn mean(&self) -> Option<f64> {
        Some(self.values.iter().sum::<f64>() / self.values.len() as f64)
    }
}

/// A two-component mixture: with probability `p_second`, sample the
/// second distribution, otherwise the first.
pub struct Mixture<A, B> {
    first: A,
    second: B,
    p_second: f64,
}

impl<A: Sample, B: Sample> Mixture<A, B> {
    /// Creates a mixture drawing from `second` with probability
    /// `p_second`.
    ///
    /// # Panics
    ///
    /// Panics unless `p_second` is in `[0, 1]`.
    pub fn new(first: A, second: B, p_second: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_second));
        Mixture {
            first,
            second,
            p_second,
        }
    }
}

impl<A: Sample, B: Sample> Sample for Mixture<A, B> {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        if rng.gen::<f64>() < self.p_second {
            self.second.sample(rng)
        } else {
            self.first.sample(rng)
        }
    }

    fn mean(&self) -> Option<f64> {
        let a = self.first.mean()?;
        let b = self.second.mean()?;
        Some(a * (1.0 - self.p_second) + b * self.p_second)
    }
}

/// Clamps samples of an inner distribution to `[lo, hi]`.
pub struct Clamped<D> {
    inner: D,
    lo: f64,
    hi: f64,
}

impl<D: Sample> Clamped<D> {
    /// Clamps `inner` to `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn new(inner: D, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi);
        Clamped { inner, lo, hi }
    }
}

impl<D: Sample> Sample for Clamped<D> {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.inner.sample(rng).clamp(self.lo, self.hi)
    }

    fn mean(&self) -> Option<f64> {
        // The truncated mean has no closed form in general; the inner
        // mean clamped into the support is a finite, same-scale
        // estimate (exact when the clamp never binds).
        self.inner.mean().map(|m| m.clamp(self.lo, self.hi))
    }
}

/// Scales samples of an inner distribution by a constant factor.
pub struct Scaled<D> {
    inner: D,
    factor: f64,
}

impl<D: Sample> Scaled<D> {
    /// Multiplies every sample of `inner` by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn new(inner: D, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0);
        Scaled { inner, factor }
    }
}

impl<D: Sample> Sample for Scaled<D> {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.inner.sample(rng) * self.factor
    }

    fn mean(&self) -> Option<f64> {
        self.inner.mean().map(|m| m * self.factor)
    }
}

/// A concrete, closed-universe distribution: every family this
/// workspace samples in simulator hot paths, dispatched by `match`
/// instead of through a vtable.
///
/// `JobSpec` stores stage runtime/queue models as `Dist` so the
/// per-task-attempt draw in the cluster engine is a direct call
/// monomorphized over the engine's `StdRng` ([`Dist::sample_with`]) —
/// no `Arc<dyn Sample>` pointer chase per attempt.
///
/// Construct variants from the concrete family types via `From`/`Into`
/// (`Dist::from(Uniform::new(1.0, 2.0))`) and combinators via
/// [`Dist::mixture`], [`Dist::clamped`] and [`Dist::scaled`].
#[derive(Clone)]
pub enum Dist {
    /// A fixed value.
    Constant(Constant),
    /// Uniform on `[lo, hi)`.
    Uniform(Uniform),
    /// Exponential by mean.
    Exponential(Exponential),
    /// Log-normal task-runtime body.
    LogNormal(LogNormal),
    /// Pareto straggler tail.
    Pareto(Pareto),
    /// Resampling of recorded values.
    Empirical(Empirical),
    /// Two-component mixture drawing `second` with probability
    /// `p_second`.
    Mixture {
        /// Component drawn with probability `1 - p_second`.
        first: Box<Dist>,
        /// Component drawn with probability `p_second`.
        second: Box<Dist>,
        /// Probability of drawing `second`.
        p_second: f64,
    },
    /// Inner distribution clamped to `[lo, hi]`.
    Clamped {
        /// The distribution being clamped.
        inner: Box<Dist>,
        /// Lower clamp bound.
        lo: f64,
        /// Upper clamp bound.
        hi: f64,
    },
    /// Inner distribution scaled by a constant factor.
    Scaled {
        /// The distribution being scaled.
        inner: Box<Dist>,
        /// Multiplier applied to every sample.
        factor: f64,
    },
}

impl Dist {
    /// A two-component mixture drawing `second` with probability
    /// `p_second`.
    ///
    /// # Panics
    ///
    /// Panics unless `p_second` is in `[0, 1]`.
    pub fn mixture(first: impl Into<Dist>, second: impl Into<Dist>, p_second: f64) -> Self {
        assert!((0.0..=1.0).contains(&p_second));
        Dist::Mixture {
            first: Box::new(first.into()),
            second: Box::new(second.into()),
            p_second,
        }
    }

    /// Clamps `inner` to `[lo, hi]`.
    ///
    /// # Panics
    ///
    /// Panics if `lo > hi`.
    pub fn clamped(inner: impl Into<Dist>, lo: f64, hi: f64) -> Self {
        assert!(lo <= hi);
        Dist::Clamped {
            inner: Box::new(inner.into()),
            lo,
            hi,
        }
    }

    /// Multiplies every sample of `inner` by `factor`.
    ///
    /// # Panics
    ///
    /// Panics if `factor` is negative or not finite.
    pub fn scaled(inner: impl Into<Dist>, factor: f64) -> Self {
        assert!(factor.is_finite() && factor >= 0.0);
        Dist::Scaled {
            inner: Box::new(inner.into()),
            factor,
        }
    }

    /// Draws one value through a statically-dispatched RNG.
    ///
    /// Monomorphizes over the caller's concrete RNG type; for the same
    /// RNG state this produces bit-identical draws to the [`Sample`]
    /// impl (the underlying `next_u64` stream and arithmetic are
    /// identical).
    #[inline]
    pub fn sample_with<R: rand::RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Dist::Constant(d) => d.0,
            Dist::Uniform(d) => d.sample_with(rng),
            Dist::Exponential(d) => d.sample_with(rng),
            Dist::LogNormal(d) => d.sample_with(rng),
            Dist::Pareto(d) => d.sample_with(rng),
            Dist::Empirical(d) => d.sample_with(rng),
            Dist::Mixture {
                first,
                second,
                p_second,
            } => {
                if rng.gen::<f64>() < *p_second {
                    second.sample_with(rng)
                } else {
                    first.sample_with(rng)
                }
            }
            Dist::Clamped { inner, lo, hi } => inner.sample_with(rng).clamp(*lo, *hi),
            Dist::Scaled { inner, factor } => inner.sample_with(rng) * factor,
        }
    }

    /// The distribution mean, if known in closed form. `Clamped` is
    /// the one estimated case: the truncated mean has no closed form,
    /// so it reports the inner mean clamped into the support — finite
    /// and on the right scale (exact when the clamp never binds),
    /// which is what mean consumers like the speculation watcher need.
    pub fn mean(&self) -> Option<f64> {
        match self {
            Dist::Constant(d) => d.mean(),
            Dist::Uniform(d) => d.mean(),
            Dist::Exponential(d) => Sample::mean(d),
            Dist::LogNormal(d) => d.mean(),
            Dist::Pareto(d) => d.mean(),
            Dist::Empirical(d) => d.mean(),
            Dist::Mixture {
                first,
                second,
                p_second,
            } => {
                let a = first.mean()?;
                let b = second.mean()?;
                Some(a * (1.0 - p_second) + b * p_second)
            }
            Dist::Clamped { inner, lo, hi } => inner.mean().map(|m| m.clamp(*lo, *hi)),
            Dist::Scaled { inner, factor } => inner.mean().map(|m| m * factor),
        }
    }
}

impl std::fmt::Debug for Dist {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Dist::Constant(d) => f.debug_tuple("Constant").field(&d.0).finish(),
            Dist::Uniform(d) => d.fmt(f),
            Dist::Exponential(d) => d.fmt(f),
            Dist::LogNormal(d) => d.fmt(f),
            Dist::Pareto(d) => d.fmt(f),
            Dist::Empirical(d) => d.fmt(f),
            Dist::Mixture {
                first,
                second,
                p_second,
            } => f
                .debug_struct("Mixture")
                .field("first", first)
                .field("second", second)
                .field("p_second", p_second)
                .finish(),
            Dist::Clamped { inner, lo, hi } => f
                .debug_struct("Clamped")
                .field("inner", inner)
                .field("lo", lo)
                .field("hi", hi)
                .finish(),
            Dist::Scaled { inner, factor } => f
                .debug_struct("Scaled")
                .field("inner", inner)
                .field("factor", factor)
                .finish(),
        }
    }
}

impl Sample for Dist {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.sample_with(rng)
    }

    fn mean(&self) -> Option<f64> {
        Dist::mean(self)
    }
}

impl From<Constant> for Dist {
    fn from(d: Constant) -> Dist {
        Dist::Constant(d)
    }
}

impl From<Uniform> for Dist {
    fn from(d: Uniform) -> Dist {
        Dist::Uniform(d)
    }
}

impl From<Exponential> for Dist {
    fn from(d: Exponential) -> Dist {
        Dist::Exponential(d)
    }
}

impl From<LogNormal> for Dist {
    fn from(d: LogNormal) -> Dist {
        Dist::LogNormal(d)
    }
}

impl From<Pareto> for Dist {
    fn from(d: Pareto) -> Dist {
        Dist::Pareto(d)
    }
}

impl From<Empirical> for Dist {
    fn from(d: Empirical) -> Dist {
        Dist::Empirical(d)
    }
}

impl<A: Into<Dist>, B: Into<Dist>> From<Mixture<A, B>> for Dist {
    fn from(m: Mixture<A, B>) -> Dist {
        Dist::mixture(m.first, m.second, m.p_second)
    }
}

impl<D: Into<Dist>> From<Clamped<D>> for Dist {
    fn from(c: Clamped<D>) -> Dist {
        Dist::clamped(c.inner, c.lo, c.hi)
    }
}

impl<D: Into<Dist>> From<Scaled<D>> for Dist {
    fn from(s: Scaled<D>) -> Dist {
        Dist::scaled(s.inner, s.factor)
    }
}

impl Sample for Box<dyn Sample> {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.as_ref().sample(rng)
    }

    fn mean(&self) -> Option<f64> {
        self.as_ref().mean()
    }
}

impl Sample for std::sync::Arc<dyn Sample> {
    fn sample(&self, rng: &mut dyn rand::RngCore) -> f64 {
        self.as_ref().sample(rng)
    }

    fn mean(&self) -> Option<f64> {
        self.as_ref().mean()
    }
}

/// Draws `true` with probability `p`.
///
/// # Panics
///
/// Panics unless `p` is in `[0, 1]`.
pub fn bernoulli(rng: &mut dyn rand::RngCore, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    rng.gen::<f64>() < p
}

/// Draws an exponential waiting time with the given mean (seconds) as a
/// [`SimDuration`].
///
/// This is the single shared inter-event draw used by the cluster
/// simulator's background-overload and failure processes; it consumes
/// exactly one `f64` from `rng` and is bit-identical to
/// `Exponential::with_mean(mean_secs).sample_with(rng)` (both compute
/// `-mean * ln(1 - u)` from one uniform draw).
///
/// # Panics
///
/// Panics if `mean_secs` is not strictly positive and finite.
pub fn exp_duration<R: rand::RngCore + ?Sized>(
    rng: &mut R,
    mean_secs: f64,
) -> crate::time::SimDuration {
    let secs = Exponential::with_mean(mean_secs).sample_with(rng);
    crate::time::SimDuration::from_secs_f64(secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedDeriver;
    use crate::stats;

    fn draw<D: Sample>(d: &D, n: usize) -> Vec<f64> {
        let mut rng = SeedDeriver::new(1234).rng("dist-tests");
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn constant_is_constant() {
        let xs = draw(&Constant(3.5), 10);
        assert!(xs.iter().all(|&x| x == 3.5));
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 4.0);
        let xs = draw(&d, 20_000);
        assert!(xs.iter().all(|&x| (2.0..4.0).contains(&x)));
        let m = stats::mean(&xs);
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(7.0);
        let m = stats::mean(&draw(&d, 50_000));
        assert!((m - 7.0).abs() < 0.25, "mean {m}");
    }

    #[test]
    fn lognormal_fit_matches_published_quantiles() {
        let d = LogNormal::from_median_p90(3.0, 68.3);
        let xs = {
            let mut v = draw(&d, 100_000);
            v.sort_by(f64::total_cmp);
            v
        };
        let med = stats::percentile_sorted(&xs, 50.0);
        let p90 = stats::percentile_sorted(&xs, 90.0);
        assert!((med / 3.0 - 1.0).abs() < 0.05, "median {med}");
        assert!((p90 / 68.3 - 1.0).abs() < 0.05, "p90 {p90}");
    }

    #[test]
    fn lognormal_degenerate_sigma() {
        let d = LogNormal::from_median_p90(5.0, 5.0);
        let xs = draw(&d, 100);
        assert!(xs.iter().all(|&x| (x - 5.0).abs() < 1e-9));
    }

    #[test]
    fn pareto_respects_scale_and_mean() {
        let d = Pareto::new(2.0, 3.0);
        let xs = draw(&d, 50_000);
        assert!(xs.iter().all(|&x| x >= 2.0));
        let m = stats::mean(&xs);
        assert!((m - 3.0).abs() < 0.1, "mean {m}");
        assert_eq!(Pareto::new(1.0, 0.5).mean(), None);
    }

    #[test]
    fn empirical_resamples_recorded_values() {
        let d = Empirical::new(vec![1.0, 2.0, 4.0]);
        let xs = draw(&d, 3_000);
        assert!(xs.iter().all(|&x| x == 1.0 || x == 2.0 || x == 4.0));
        for target in [1.0, 2.0, 4.0] {
            let frac = xs.iter().filter(|&&x| x == target).count() as f64 / xs.len() as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.05, "frac of {target}: {frac}");
        }
    }

    #[test]
    fn mixture_weights_components() {
        let d = Mixture::new(Constant(1.0), Constant(10.0), 0.25);
        let xs = draw(&d, 20_000);
        let frac_hi = xs.iter().filter(|&&x| x == 10.0).count() as f64 / xs.len() as f64;
        assert!((frac_hi - 0.25).abs() < 0.02, "frac {frac_hi}");
        assert!((d.mean().unwrap() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn clamped_limits_range() {
        let d = Clamped::new(Pareto::new(1.0, 0.8), 0.0, 5.0);
        assert!(draw(&d, 5_000).iter().all(|&x| x <= 5.0));
    }

    #[test]
    fn clamped_mean_is_the_inner_mean_clamped_into_the_support() {
        // Exact when the clamp never binds on the mean...
        let loose = Dist::clamped(Constant(3.0), 0.0, 10.0);
        assert_eq!(loose.mean(), Some(3.0));
        // ...pinned to the bound when it does...
        let tight = Dist::clamped(Exponential::with_mean(40.0), 0.0, 5.0);
        assert_eq!(tight.mean(), Some(5.0));
        // ...and still None when the inner mean is unknown (here an
        // infinite-mean Pareto), matching the generic combinator.
        let unknown = Dist::clamped(Pareto::new(1.0, 0.8), 0.0, 5.0);
        assert_eq!(unknown.mean(), None);
        assert_eq!(Clamped::new(Constant(7.0), 0.0, 4.0).mean(), Some(4.0));
    }

    #[test]
    fn scaled_multiplies() {
        let d = Scaled::new(Constant(3.0), 2.5);
        assert_eq!(d.sample(&mut SeedDeriver::new(0).rng("x")), 7.5);
        assert_eq!(d.mean(), Some(7.5));
    }

    #[test]
    fn bernoulli_frequency() {
        let mut rng = SeedDeriver::new(5).rng("bern");
        let n = 20_000;
        let hits = (0..n).filter(|_| bernoulli(&mut rng, 0.1)).count();
        let frac = hits as f64 / n as f64;
        assert!((frac - 0.1).abs() < 0.01, "frac {frac}");
    }

    #[test]
    #[should_panic(expected = "probability out of range")]
    fn bernoulli_rejects_bad_probability() {
        let mut rng = SeedDeriver::new(5).rng("bern");
        bernoulli(&mut rng, 1.5);
    }

    #[test]
    fn boxed_dyn_sample_works() {
        let d: Box<dyn Sample> = Box::new(Constant(2.0));
        assert_eq!(d.sample(&mut SeedDeriver::new(0).rng("x")), 2.0);
        assert_eq!(d.mean(), Some(2.0));
    }

    /// The `Dist` enum must draw the exact same stream as the trait
    /// objects it replaces: same RNG state in, bit-identical samples
    /// out, for every family and nested combinator.
    #[test]
    fn dist_enum_matches_trait_objects_bit_for_bit() {
        let cases: Vec<(Dist, Box<dyn Sample>)> = vec![
            (Constant(3.5).into(), Box::new(Constant(3.5))),
            (
                Uniform::new(2.0, 9.0).into(),
                Box::new(Uniform::new(2.0, 9.0)),
            ),
            (
                Exponential::with_mean(4.0).into(),
                Box::new(Exponential::with_mean(4.0)),
            ),
            (
                LogNormal::from_median_p90(3.0, 20.0).into(),
                Box::new(LogNormal::from_median_p90(3.0, 20.0)),
            ),
            (
                Pareto::new(1.0, 1.5).into(),
                Box::new(Pareto::new(1.0, 1.5)),
            ),
            (
                Empirical::new(vec![1.0, 2.0, 4.0, 8.0, 16.0]).into(),
                Box::new(Empirical::new(vec![1.0, 2.0, 4.0, 8.0, 16.0])),
            ),
            (
                Mixture::new(
                    LogNormal::from_median_p90(2.0, 8.0),
                    Pareto::new(5.0, 1.2),
                    0.03,
                )
                .into(),
                Box::new(Mixture::new(
                    LogNormal::from_median_p90(2.0, 8.0),
                    Pareto::new(5.0, 1.2),
                    0.03,
                )),
            ),
            (
                Clamped::new(Pareto::new(1.0, 0.5), 0.0, 100.0).into(),
                Box::new(Clamped::new(Pareto::new(1.0, 0.5), 0.0, 100.0)),
            ),
            (
                Scaled::new(Uniform::new(1.0, 2.0), 2.5).into(),
                Box::new(Scaled::new(Uniform::new(1.0, 2.0), 2.5)),
            ),
            (
                Dist::clamped(
                    Dist::mixture(LogNormal::new(1.0, 0.8), Pareto::new(3.0, 1.1), 0.1),
                    0.5,
                    50.0,
                ),
                Box::new(Clamped::new(
                    Mixture::new(LogNormal::new(1.0, 0.8), Pareto::new(3.0, 1.1), 0.1),
                    0.5,
                    50.0,
                )),
            ),
        ];
        for (i, (dist, dynd)) in cases.iter().enumerate() {
            // Static dispatch (the engine hot path) vs dynamic dispatch
            // (the old seam) from identical seeds.
            let mut r1 = SeedDeriver::new(99).rng_indexed("equiv", i as u64);
            let mut r2 = SeedDeriver::new(99).rng_indexed("equiv", i as u64);
            for _ in 0..500 {
                let a = dist.sample_with(&mut r1);
                let b = dynd.sample(&mut r2);
                assert!(a.to_bits() == b.to_bits(), "case {i}: {a} != {b}");
            }
            match (dist.mean(), dynd.mean()) {
                (Some(a), Some(b)) => assert_eq!(a.to_bits(), b.to_bits(), "case {i} mean"),
                (a, b) => assert_eq!(a, b, "case {i} mean"),
            }
        }
    }

    /// Cloning a `Dist::Empirical` shares the recorded values.
    #[test]
    fn empirical_clone_is_shallow() {
        let d = Empirical::new(vec![1.0; 10_000]);
        let e = d.clone();
        assert!(std::ptr::eq(d.values().as_ptr(), e.values().as_ptr()));
        assert_eq!(d, e);
    }

    /// `exp_duration` is bit-identical to the inline `1 - u` inverse-CDF
    /// draw it replaced in the cluster crate's background and failure
    /// processes: same RNG stream in, same `f64::to_bits` out.
    #[test]
    fn exp_duration_matches_legacy_inline_draw() {
        for mean in [0.5, 30.0, 3600.0] {
            let mut a = SeedDeriver::new(99).rng("exp-dedup");
            let mut b = SeedDeriver::new(99).rng("exp-dedup");
            let mut c = SeedDeriver::new(99).rng("exp-dedup");
            for _ in 0..1_000 {
                // The exact expression background.rs and failure.rs each
                // carried before deduplication: one uniform draw, then
                // `-mean * ln(1 - u)`.
                let legacy: f64 = {
                    let u: f64 = 1.0 - a.gen::<f64>();
                    -mean * u.ln()
                };
                let raw = Exponential::with_mean(mean).sample_with(&mut b);
                assert_eq!(raw.to_bits(), legacy.to_bits());
                // And the shared helper quantizes that same sample.
                let shared = exp_duration(&mut c, mean);
                assert_eq!(shared, crate::time::SimDuration::from_secs_f64(legacy));
            }
        }
    }
}
