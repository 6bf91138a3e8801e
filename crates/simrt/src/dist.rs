//! Sampling distributions for task runtimes, queueing delays and
//! failure processes.
//!
//! The Jockey paper's job simulator replays *per-stage distributions of
//! task runtimes and initialization latencies* extracted from a prior run
//! (§4.1). [`Dist`] is the one representation of such a distribution in
//! this workspace, and [`Dist::sample`] the one way to draw from it. Its
//! variants are the families the workspace models those quantities with:
//!
//! - [`LogNormal`] — the canonical heavy-ish-tailed task-runtime model,
//!   fit directly from a (median, p90) pair as published in Table 2.
//! - [`Pareto`] — the straggler/outlier tail.
//! - [`Exponential`], [`Uniform`], [`Constant`] — building blocks.
//! - [`Empirical`] — resampling of recorded values, used when replaying a
//!   measured profile.
//! - [`Dist::mixture`], [`Dist::clamped`], [`Dist::scaled`] —
//!   combinators, e.g. "97% log-normal body + 3% Pareto outliers,
//!   clamped to 1 hour".
//!
//! Each family type validates its parameters in its constructor and
//! converts into a `Dist` with `From`/`Into`. All samples are
//! non-negative `f64` values; callers interpret the unit (this
//! workspace uses seconds).
//!
//! `Dist` is a closed enum dispatched by `match`, and its draw is
//! generic over the RNG, so the cluster engine's per-task-attempt draw
//! — the hottest call in training — monomorphizes over the engine's
//! `StdRng` with no vtable hop (DESIGN.md §10).

use std::sync::Arc;

use rand::{Rng, RngCore};

/// A degenerate distribution returning a fixed value.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Constant(pub f64);

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

    #[inline]
    fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        self.lo + rng.gen::<f64>() * (self.hi - self.lo)
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

    #[inline]
    fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // Inverse-CDF sampling; `1 - u` avoids ln(0).
        let u: f64 = rng.gen();
        -self.mean * (1.0 - u).ln()
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

    #[inline]
    fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        // A standard normal via Box–Muller (one of the pair); `1 - u`
        // keeps the argument of ln strictly positive.
        let u1: f64 = 1.0 - rng.gen::<f64>();
        let u2: f64 = rng.gen();
        let z = (-2.0 * u1.ln()).sqrt() * (2.0 * std::f64::consts::PI * u2).cos();
        (self.mu + self.sigma * z).exp()
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

    #[inline]
    fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let u: f64 = 1.0 - rng.gen::<f64>();
        self.scale / u.powf(1.0 / self.alpha)
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

    #[inline]
    fn draw<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        let i = rng.gen_range(0..self.values.len() as u64) as usize;
        self.values[i]
    }
}

/// A sampleable, non-negative, real-valued distribution: one of the
/// family types above, or a combinator over other `Dist`s.
///
/// `JobSpec` stores stage runtime/queue models as `Dist`, so the
/// per-task-attempt draw in the cluster engine is a `match` plus a
/// direct call monomorphized over the engine's `StdRng`
/// ([`Dist::sample`]).
///
/// Construct variants from the family types via `From`/`Into`
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

    /// Draws one value.
    ///
    /// Generic over the RNG, so each caller's concrete RNG type gets
    /// its own monomorphized copy.
    #[inline]
    pub fn sample<R: RngCore + ?Sized>(&self, rng: &mut R) -> f64 {
        match self {
            Dist::Constant(d) => d.0,
            Dist::Uniform(d) => d.draw(rng),
            Dist::Exponential(d) => d.draw(rng),
            Dist::LogNormal(d) => d.draw(rng),
            Dist::Pareto(d) => d.draw(rng),
            Dist::Empirical(d) => d.draw(rng),
            Dist::Mixture {
                first,
                second,
                p_second,
            } => {
                if rng.gen::<f64>() < *p_second {
                    second.sample(rng)
                } else {
                    first.sample(rng)
                }
            }
            Dist::Clamped { inner, lo, hi } => inner.sample(rng).clamp(*lo, *hi),
            Dist::Scaled { inner, factor } => inner.sample(rng) * factor,
        }
    }

    /// The distribution mean, if known in closed form. `Clamped` is
    /// the one estimated case: the truncated mean has no closed form,
    /// so it reports the inner mean clamped into the support — finite
    /// and on the right scale (exact when the clamp never binds),
    /// which is what mean consumers like the speculation watcher need.
    pub fn mean(&self) -> Option<f64> {
        match self {
            Dist::Constant(d) => Some(d.0),
            Dist::Uniform(d) => Some((d.lo + d.hi) / 2.0),
            Dist::Exponential(d) => Some(d.mean),
            Dist::LogNormal(d) => Some((d.mu + d.sigma * d.sigma / 2.0).exp()),
            Dist::Pareto(d) => (d.alpha > 1.0).then(|| d.alpha * d.scale / (d.alpha - 1.0)),
            Dist::Empirical(d) => Some(d.values.iter().sum::<f64>() / d.values.len() as f64),
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

macro_rules! dist_from_family {
    ($($family:ident),*) => {$(
        impl From<$family> for Dist {
            fn from(d: $family) -> Dist {
                Dist::$family(d)
            }
        }
    )*};
}

dist_from_family!(Constant, Uniform, Exponential, LogNormal, Pareto, Empirical);

/// Draws `true` with probability `p`.
///
/// # Panics
///
/// Panics unless `p` is in `[0, 1]`.
pub fn bernoulli<R: RngCore + ?Sized>(rng: &mut R, p: f64) -> bool {
    assert!((0.0..=1.0).contains(&p), "probability out of range: {p}");
    rng.gen::<f64>() < p
}

/// Draws an exponential waiting time with the given mean (seconds) as a
/// [`SimDuration`].
///
/// This is the single shared inter-event draw used by the cluster
/// simulator's background-overload and failure processes; it consumes
/// exactly one `f64` from `rng` and is bit-identical to sampling
/// `Dist::from(Exponential::with_mean(mean_secs))` (both compute
/// `-mean * ln(1 - u)` from one uniform draw).
///
/// # Panics
///
/// Panics if `mean_secs` is not strictly positive and finite.
///
/// [`SimDuration`]: crate::time::SimDuration
pub fn exp_duration<R: RngCore + ?Sized>(rng: &mut R, mean_secs: f64) -> crate::time::SimDuration {
    let secs = Exponential::with_mean(mean_secs).draw(rng);
    crate::time::SimDuration::from_secs_f64(secs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::SeedDeriver;
    use crate::stats;

    fn draw(d: impl Into<Dist>, n: usize) -> Vec<f64> {
        let d = d.into();
        let mut rng = SeedDeriver::new(1234).rng("dist-tests");
        (0..n).map(|_| d.sample(&mut rng)).collect()
    }

    #[test]
    fn constant_is_constant() {
        let xs = draw(Constant(3.5), 10);
        assert!(xs.iter().all(|&x| x == 3.5));
    }

    #[test]
    fn uniform_bounds_and_mean() {
        let d = Uniform::new(2.0, 4.0);
        let xs = draw(d, 20_000);
        assert!(xs.iter().all(|&x| (2.0..4.0).contains(&x)));
        let m = stats::mean(&xs);
        assert!((m - 3.0).abs() < 0.05, "mean {m}");
    }

    #[test]
    fn exponential_mean_converges() {
        let d = Exponential::with_mean(7.0);
        let m = stats::mean(&draw(d, 50_000));
        assert!((m - 7.0).abs() < 0.25, "mean {m}");
    }

    #[test]
    fn lognormal_fit_matches_published_quantiles() {
        let d = LogNormal::from_median_p90(3.0, 68.3);
        let xs = {
            let mut v = draw(d, 100_000);
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
        let xs = draw(d, 100);
        assert!(xs.iter().all(|&x| (x - 5.0).abs() < 1e-9));
    }

    #[test]
    fn pareto_respects_scale_and_mean() {
        let d = Pareto::new(2.0, 3.0);
        let xs = draw(d, 50_000);
        assert!(xs.iter().all(|&x| x >= 2.0));
        let m = stats::mean(&xs);
        assert!((m - 3.0).abs() < 0.1, "mean {m}");
        assert_eq!(Dist::from(Pareto::new(1.0, 0.5)).mean(), None);
    }

    #[test]
    fn empirical_resamples_recorded_values() {
        let d = Empirical::new(vec![1.0, 2.0, 4.0]);
        let xs = draw(d, 3_000);
        assert!(xs.iter().all(|&x| x == 1.0 || x == 2.0 || x == 4.0));
        for target in [1.0, 2.0, 4.0] {
            let frac = xs.iter().filter(|&&x| x == target).count() as f64 / xs.len() as f64;
            assert!((frac - 1.0 / 3.0).abs() < 0.05, "frac of {target}: {frac}");
        }
    }

    #[test]
    fn mixture_weights_components() {
        let d = Dist::mixture(Constant(1.0), Constant(10.0), 0.25);
        let xs = draw(d.clone(), 20_000);
        let frac_hi = xs.iter().filter(|&&x| x == 10.0).count() as f64 / xs.len() as f64;
        assert!((frac_hi - 0.25).abs() < 0.02, "frac {frac_hi}");
        assert!((d.mean().unwrap() - 3.25).abs() < 1e-12);
    }

    #[test]
    fn clamped_limits_range() {
        let d = Dist::clamped(Pareto::new(1.0, 0.8), 0.0, 5.0);
        assert!(draw(d, 5_000).iter().all(|&x| x <= 5.0));
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
        // infinite-mean Pareto).
        let unknown = Dist::clamped(Pareto::new(1.0, 0.8), 0.0, 5.0);
        assert_eq!(unknown.mean(), None);
        assert_eq!(Dist::clamped(Constant(7.0), 0.0, 4.0).mean(), Some(4.0));
    }

    #[test]
    fn scaled_multiplies() {
        let d = Dist::scaled(Constant(3.0), 2.5);
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

    /// [`crate::rng::fnv1a`] over the little-endian bytes of a stream
    /// of 64-bit words.
    fn digest(words: impl IntoIterator<Item = u64>) -> u64 {
        let bytes: Vec<u8> = words.into_iter().flat_map(u64::to_le_bytes).collect();
        crate::rng::fnv1a(&bytes)
    }

    /// Every draw consumes a fixed `next_u64` stream through fixed
    /// arithmetic, and every simulation output depends on it. For each
    /// case, the `to_bits` of the first draw and an FNV-1a digest of
    /// the `to_bits` of the first 300 draws (then the mean) from a
    /// fixed seed must equal recorded values, so any change to what a
    /// draw consumes or computes shows here.
    #[test]
    fn draw_streams_are_pinned() {
        const DRAWS: usize = 300;
        let dists: Vec<Dist> = vec![
            Constant(3.5).into(),
            Uniform::new(2.0, 9.0).into(),
            Exponential::with_mean(4.0).into(),
            LogNormal::from_median_p90(3.0, 20.0).into(),
            Pareto::new(1.0, 1.5).into(),
            Empirical::new(vec![1.0, 2.0, 4.0, 8.0, 16.0]).into(),
            Dist::mixture(
                LogNormal::from_median_p90(2.0, 8.0),
                Pareto::new(5.0, 1.2),
                0.03,
            ),
            Dist::clamped(Pareto::new(1.0, 0.5), 0.0, 100.0),
            Dist::scaled(Uniform::new(1.0, 2.5), 2.5),
            Dist::clamped(
                Dist::mixture(LogNormal::new(1.0, 0.8), Pareto::new(3.0, 1.1), 0.1),
                0.5,
                50.0,
            ),
        ];
        let rng = |i: usize| SeedDeriver::new(99).rng_indexed("pinned", i as u64);
        let mut got: Vec<(u64, u64)> = dists
            .iter()
            .enumerate()
            .map(|(i, d)| {
                let mut r = rng(i);
                let bits: Vec<u64> = (0..DRAWS).map(|_| d.sample(&mut r).to_bits()).collect();
                let mean = d.mean().map_or(u64::MAX, f64::to_bits);
                (bits[0], digest(bits.iter().copied().chain([mean])))
            })
            .collect();
        let mut r = rng(dists.len());
        let exp: Vec<u64> = (0..DRAWS)
            .map(|_| exp_duration(&mut r, 30.0).as_secs_f64().to_bits())
            .collect();
        got.push((exp[0], digest(exp)));
        let mut r = rng(dists.len() + 1);
        let coins: Vec<u64> = (0..DRAWS)
            .map(|_| u64::from(bernoulli(&mut r, 0.3)))
            .collect();
        got.push((coins[0], digest(coins)));
        let want = [
            (0x400c_0000_0000_0000, 0xa906_8b35_fb6f_4999),
            (0x4012_49c8_89f4_73f8, 0x0163_408d_792d_e5e1),
            (0x402c_87b7_94aa_afd1, 0x8e3d_00b0_5629_4d30),
            (0x4047_6f4e_4efd_ef9a, 0xdea7_2561_7902_deb0),
            (0x3ff1_e3ba_484f_2a89, 0x9ce3_42e8_60c9_e631),
            (0x4010_0000_0000_0000, 0x2e17_2d5f_72ab_2c64),
            (0x4005_2185_1e85_ee4a, 0x22cd_1713_285d_d2f9),
            (0x400b_9549_ccb6_a95d, 0xc040_b387_9779_bf2c),
            (0x4016_6155_90ae_bc78, 0x0a9c_66dc_4cbd_f329),
            (0x400c_673a_ea63_6a92, 0xdc50_02c2_f641_691b),
            (0x404c_c126_e978_d4fe, 0x485d_8e83_01f1_8b69),
            (0x0000_0000_0000_0000, 0xb032_d53f_7dd5_9f65),
        ];
        assert_eq!(
            got, want,
            "recorded streams (first draw bits, digest) moved"
        );
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
                let raw = Dist::from(Exponential::with_mean(mean)).sample(&mut b);
                assert_eq!(raw.to_bits(), legacy.to_bits());
                // And the shared helper quantizes that same sample.
                let shared = exp_duration(&mut c, mean);
                assert_eq!(shared, crate::time::SimDuration::from_secs_f64(legacy));
            }
        }
    }
}
