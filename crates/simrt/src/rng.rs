//! Reproducible random-number streams.
//!
//! Every stochastic component in the workspace (task runtimes per stage,
//! failure injection, background job arrivals, …) must draw from its own
//! independent stream so that adding or removing one component does not
//! perturb the randomness seen by another. [`SeedDeriver`] provides this:
//! it deterministically maps a root seed plus a string label (and optional
//! indices) to a 64-bit child seed via SplitMix64 finalization over an
//! FNV-1a hash of the label.

use rand::rngs::StdRng;
use rand::SeedableRng;

/// SplitMix64 finalizer: a high-quality 64-bit mixing function.
///
/// Used to decorrelate derived seeds; passes through zero-free avalanche
/// for any input change.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a hash of a byte string — the workspace's one content hash:
/// it folds stream labels into seeds here, and keys plan structures,
/// artifact caches and emitted-output digests elsewhere.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xCBF2_9CE4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01B3);
    }
    h
}

/// Derives independent, reproducible random streams from a root seed.
///
/// # Examples
///
/// ```
/// use jockey_simrt::rng::SeedDeriver;
/// use rand::Rng;
///
/// let root = SeedDeriver::new(42);
/// let mut a = root.rng("task-runtimes");
/// let mut b = root.rng("failures");
/// // Streams are independent but reproducible.
/// let x: f64 = a.gen();
/// let y: f64 = b.gen();
/// assert_ne!(x, y);
/// assert_eq!(SeedDeriver::new(42).rng("task-runtimes").gen::<f64>(), x);
/// ```
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct SeedDeriver {
    root: u64,
}

impl SeedDeriver {
    /// Creates a deriver rooted at `seed`.
    pub fn new(seed: u64) -> Self {
        SeedDeriver {
            root: splitmix64(seed),
        }
    }

    /// The (mixed) root seed.
    pub fn root(&self) -> u64 {
        self.root
    }

    /// Derives a child seed for the stream named `label`.
    pub fn seed(&self, label: &str) -> u64 {
        splitmix64(self.root ^ fnv1a(label.as_bytes()))
    }

    /// Derives a child seed for the `index`-th stream named `label`.
    pub fn seed_indexed(&self, label: &str, index: u64) -> u64 {
        splitmix64(self.seed(label) ^ splitmix64(index.wrapping_add(1)))
    }

    /// A ready-to-use RNG for the stream named `label`.
    pub fn rng(&self, label: &str) -> StdRng {
        StdRng::seed_from_u64(self.seed(label))
    }

    /// A ready-to-use RNG for the `index`-th stream named `label`.
    pub fn rng_indexed(&self, label: &str, index: u64) -> StdRng {
        StdRng::seed_from_u64(self.seed_indexed(label, index))
    }

    /// A sub-deriver scoped under `label`, for hierarchical components.
    pub fn child(&self, label: &str) -> SeedDeriver {
        SeedDeriver {
            root: self.seed(label),
        }
    }

    /// A sub-deriver scoped under `label` and `index` (e.g. per-run).
    pub fn child_indexed(&self, label: &str, index: u64) -> SeedDeriver {
        SeedDeriver {
            root: self.seed_indexed(label, index),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fnv1a_matches_reference_vectors() {
        // Standard FNV-1a test vectors.
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
        assert_eq!(fnv1a(b"foobar"), 0x8594_4171_f739_67e8);
    }
    use rand::Rng;

    #[test]
    fn same_label_same_stream() {
        let d = SeedDeriver::new(7);
        assert_eq!(d.seed("x"), d.seed("x"));
        assert_eq!(d.seed_indexed("x", 3), d.seed_indexed("x", 3));
    }

    #[test]
    fn different_labels_differ() {
        let d = SeedDeriver::new(7);
        assert_ne!(d.seed("x"), d.seed("y"));
        assert_ne!(d.seed_indexed("x", 0), d.seed_indexed("x", 1));
        assert_ne!(d.seed("x"), d.seed_indexed("x", 0));
    }

    #[test]
    fn different_roots_differ() {
        assert_ne!(SeedDeriver::new(1).seed("x"), SeedDeriver::new(2).seed("x"));
    }

    #[test]
    fn children_are_scoped() {
        let d = SeedDeriver::new(7);
        let c = d.child("cluster");
        assert_ne!(c.seed("x"), d.seed("x"));
        assert_eq!(c.seed("x"), d.child("cluster").seed("x"));
    }

    #[test]
    fn rng_is_reproducible() {
        let mut a = SeedDeriver::new(7).rng("r");
        let mut b = SeedDeriver::new(7).rng("r");
        for _ in 0..16 {
            assert_eq!(a.gen::<u64>(), b.gen::<u64>());
        }
    }

    #[test]
    fn splitmix_avalanches() {
        // Flipping one input bit should change roughly half the output
        // bits; just check outputs differ substantially.
        let a = splitmix64(0);
        let b = splitmix64(1);
        assert!((a ^ b).count_ones() > 16);
    }

    #[test]
    fn streams_look_decorrelated() {
        // Crude independence check: correlation of two derived streams
        // stays small.
        let d = SeedDeriver::new(99);
        let mut a = d.rng("a");
        let mut b = d.rng("b");
        let n = 4_096;
        let (mut sa, mut sb, mut sab) = (0.0, 0.0, 0.0);
        for _ in 0..n {
            let x: f64 = a.gen::<f64>() - 0.5;
            let y: f64 = b.gen::<f64>() - 0.5;
            sa += x * x;
            sb += y * y;
            sab += x * y;
        }
        let corr = sab / (sa.sqrt() * sb.sqrt());
        assert!(corr.abs() < 0.05, "correlation too high: {corr}");
    }
}
