//! A mergeable quantile sketch for `C(p, a)` sample cells.
//!
//! [`CellSketch`] is a deterministic fixed-capacity compacting sketch
//! in the KLL/MRL family: items live in levels, an item at level `i`
//! stands for `2^i` original samples, and every level is kept as an
//! ascending-sorted run. When a level outgrows the capacity `k`, its
//! buffer is *pair-compacted*: the sorted buffer is split into adjacent
//! pairs and one item of each pair (alternating parity across
//! compactions) is promoted to the next level with doubled weight.
//!
//! # Error bound
//!
//! One pair-compaction of the level-`i` buffer changes the weight below
//! any query point by at most `2^i` (each pair contributes either its
//! low or its high item; adjacent pairs telescope). The sketch counts
//! every compaction per level, so
//!
//! ```text
//! rank_error_bound() = Σ_i compactions[i] · 2^i
//! ```
//!
//! is a *tracked, worst-case* bound on the rank error of any quantile
//! answer, in units of original samples. Queries interpolate on the
//! expanded weighted multiset exactly as
//! [`percentile_sorted`] does
//! on a raw sorted slice, so a sketch that has never compacted —
//! including every sketch in *exact* mode (`capacity == None`, level 0
//! unbounded) — answers **bit-identically** to the raw sample list.
//! That exactness is what keeps frozen offline-trained models
//! byte-identical to the pre-sketch format.
//!
//! Sketches merge level-wise in `O(items)`: merging preserves both the
//! weighted multiset and the compaction counters, so the bound above
//! survives arbitrary batch splits and absorb orders (the property
//! tests in `cpa` drive this).

use jockey_simrt::stats::percentile_sorted;

/// A mergeable, deterministic compacting quantile sketch over `f64`
/// samples. `capacity == None` is *exact* mode: level 0 is unbounded
/// and never compacts, so the sketch is just a sorted sample list.
///
/// Level 0 lives inline and the higher levels only come into being at
/// the first compaction, so an empty sketch owns no heap buffer and a
/// sketch that has never compacted — every exact-mode sketch among
/// them — owns exactly one, its sorted sample list.
#[derive(Clone, Debug, PartialEq)]
pub struct CellSketch {
    /// Per-level buffer capacity; `None` = exact (unbounded level 0).
    capacity: Option<usize>,
    /// Level 0: items of weight 1.
    base: Level,
    /// Levels `1..`: `upper[i - 1]` holds the items of weight `2^i`.
    /// Empty (unallocated) until the first compaction.
    upper: Vec<Level>,
}

/// One sketch level.
#[derive(Clone, Debug, Default, PartialEq)]
struct Level {
    /// The level's items, ascending-sorted.
    items: Vec<f64>,
    /// Pair-compaction operations performed at this level. The low bit
    /// doubles as the next compaction's selection parity, so the
    /// counters fully determine the sketch's future behaviour — no
    /// hidden state to serialize.
    compactions: u64,
}

/// Smallest permitted per-level capacity: below this the worst-case
/// rank error per compaction rivals the buffer itself.
pub const MIN_SKETCH_CAPACITY: usize = 8;

/// Most levels a sketch may have: a level-`i` item weighs `2^i`
/// samples and counts are `u64`.
pub const MAX_SKETCH_LEVELS: usize = 64;

impl CellSketch {
    /// An empty sketch. `capacity == None` is exact mode. Allocates
    /// nothing.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is below [`MIN_SKETCH_CAPACITY`].
    pub fn new(capacity: Option<usize>) -> Self {
        if let Some(k) = capacity {
            assert!(k >= MIN_SKETCH_CAPACITY, "sketch capacity {k} too small");
        }
        CellSketch {
            capacity,
            base: Level::default(),
            upper: Vec::new(),
        }
    }

    /// Builds a sketch by bulk-loading an ascending-sorted batch.
    pub fn from_sorted(sorted: Vec<f64>, capacity: Option<usize>) -> Self {
        let mut s = CellSketch::new(capacity);
        s.base.items = sorted;
        s.shrink();
        s
    }

    /// Reconstructs a sketch from serialized parts: `levels[i]` holds
    /// the items of weight `2^i`, `compactions[i]` the level's
    /// compaction count (missing trailing counts are zero). Levels are
    /// re-sorted defensively (already-sorted input round-trips
    /// bit-identically). Returns `None` when the shapes disagree or
    /// there are more than [`MAX_SKETCH_LEVELS`] levels.
    pub fn from_parts(
        capacity: Option<usize>,
        mut levels: Vec<Vec<f64>>,
        compactions: Vec<u64>,
    ) -> Option<Self> {
        if capacity.is_some_and(|k| k < MIN_SKETCH_CAPACITY) {
            return None;
        }
        if levels.is_empty() {
            levels.push(Vec::new());
        }
        if compactions.len() > levels.len() || levels.len() > MAX_SKETCH_LEVELS {
            return None;
        }
        let mut counts = compactions.into_iter().chain(std::iter::repeat(0));
        let mut levels = levels.into_iter().map(|mut items| {
            items.sort_by(f64::total_cmp);
            Level {
                items,
                compactions: counts.next().expect("endless counts"),
            }
        });
        let base = levels.next().expect("at least one level");
        Some(CellSketch {
            capacity,
            base,
            upper: levels.collect(),
        })
    }

    /// The per-level capacity (`None` = exact mode).
    pub fn capacity(&self) -> Option<usize> {
        self.capacity
    }

    /// The number of levels (at least 1).
    pub fn num_levels(&self) -> usize {
        1 + self.upper.len()
    }

    /// The ascending-sorted items of level `i`, each weighing `2^i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_levels()`.
    pub fn level(&self, i: usize) -> &[f64] {
        &self.level_at(i).items
    }

    /// Pair-compactions performed at level `i`.
    ///
    /// # Panics
    ///
    /// Panics if `i >= self.num_levels()`.
    pub fn compactions(&self, i: usize) -> u64 {
        self.level_at(i).compactions
    }

    fn level_at(&self, i: usize) -> &Level {
        if i == 0 {
            &self.base
        } else {
            &self.upper[i - 1]
        }
    }

    fn level_at_mut(&mut self, i: usize) -> &mut Level {
        if i == 0 {
            &mut self.base
        } else {
            &mut self.upper[i - 1]
        }
    }

    /// Every level, bottom up.
    fn iter_levels(&self) -> impl Iterator<Item = &Level> {
        std::iter::once(&self.base).chain(&self.upper)
    }

    /// Whether the sketch holds no items at all.
    pub fn is_empty(&self) -> bool {
        self.iter_levels().all(|l| l.items.is_empty())
    }

    /// Total represented sample count (the summed item weights).
    pub fn count(&self) -> u64 {
        self.iter_levels()
            .enumerate()
            .map(|(i, l)| (l.items.len() as u64) << i)
            .sum()
    }

    /// Stored item count (the sketch's actual footprint).
    pub fn item_count(&self) -> usize {
        self.iter_levels().map(|l| l.items.len()).sum()
    }

    /// Tracked worst-case rank error of any quantile answer, in units
    /// of original samples: `Σ_i compactions[i] · 2^i`. Zero for exact
    /// or never-compacted sketches.
    pub fn rank_error_bound(&self) -> u64 {
        self.iter_levels()
            .enumerate()
            .map(|(i, l)| l.compactions << i)
            .sum()
    }

    /// The heap buffers the sketch owns: its level-0 list, the upper
    /// level array and each upper level's list, counting only those
    /// with an allocation.
    #[cfg(test)]
    pub(crate) fn heap_buffers(&self) -> usize {
        let owns = |capacity: usize| usize::from(capacity > 0);
        owns(self.base.items.capacity())
            + owns(self.upper.capacity())
            + self
                .upper
                .iter()
                .map(|l| owns(l.items.capacity()))
                .sum::<usize>()
    }

    /// Inserts one sample.
    pub fn push(&mut self, v: f64) {
        let items = &mut self.base.items;
        let at = items.partition_point(|&x| x.total_cmp(&v).is_lt());
        items.insert(at, v);
        self.shrink();
    }

    /// Merges an ascending-sorted batch of samples.
    pub fn extend_sorted(&mut self, sorted: &[f64]) {
        merge_into(&mut self.base.items, sorted);
        self.shrink();
    }

    /// Folds `other` into `self` level-wise in `O(items)`. The weighted
    /// multisets and compaction counters add, so the merged sketch's
    /// [`CellSketch::rank_error_bound`] is the sum of both bounds plus
    /// whatever compactions the merge itself triggers.
    ///
    /// # Panics
    ///
    /// Panics if the two sketches were built with different capacities.
    pub fn merge(&mut self, other: &CellSketch) {
        assert_eq!(self.capacity, other.capacity, "incompatible sketches");
        if other.upper.len() > self.upper.len() {
            self.upper.resize_with(other.upper.len(), Level::default);
        }
        let mine = std::iter::once(&mut self.base).chain(&mut self.upper);
        for (mine, theirs) in mine.zip(other.iter_levels()) {
            merge_into(&mut mine.items, &theirs.items);
            mine.compactions += theirs.compactions;
        }
        self.shrink();
    }

    /// The `q`-th percentile (`0..=100`) of the expanded weighted
    /// multiset, with the same rank definition and linear interpolation
    /// as [`percentile_sorted`] — to which it is bit-identical whenever
    /// every item weighs 1 (exact mode, or bounded mode before the
    /// first compaction).
    ///
    /// # Panics
    ///
    /// Panics on an empty sketch or a percentile outside `[0, 100]`.
    pub fn quantile(&self, q: f64) -> f64 {
        assert!((0.0..=100.0).contains(&q), "percentile {q} out of range");
        assert!(!self.is_empty(), "quantile of an empty sketch");
        if self.upper.iter().all(|l| l.items.is_empty()) {
            // Single-level fast path: defer to the raw-slice kernel so
            // frozen-mode answers stay bit-for-bit identical.
            return percentile_sorted(&self.base.items, q);
        }
        // Rank on the expanded multiset of `total` samples, exactly as
        // percentile_sorted ranks a slice of length `total`.
        let total = self.count();
        let rank = q / 100.0 * (total - 1) as f64;
        let lo = rank.floor() as u64;
        let hi = rank.ceil() as u64;
        // Walk from the end nearer the ranks.
        let from_top = lo >= total / 2;
        let (vlo, vhi) = self.merged_values_at(total, lo, hi, from_top);
        vlo + (vhi - vlo) * (rank - lo as f64)
    }

    /// The pre-merge-walk multi-level quantile: expand every level into
    /// `(value, weight)` pairs, sort, and index. Kept as the oracle the
    /// merge walk is held to bit for bit.
    #[cfg(test)]
    fn quantile_by_sort(&self, q: f64) -> f64 {
        let levels: Vec<&[f64]> = self.iter_levels().map(|l| l.items.as_slice()).collect();
        quantile_by_sort(&levels, q)
    }

    /// Compacts every over-full level, cascading promotions upward.
    fn shrink(&mut self) {
        let Some(k) = self.capacity else { return };
        let mut i = 0;
        while i < self.num_levels() {
            if self.level(i).len() > k {
                self.compact_level(i);
            }
            i += 1;
        }
    }

    /// One pair-compaction of level `i`: promote alternate items of the
    /// sorted buffer to level `i + 1` with doubled weight. An odd
    /// trailing item stays at level `i` un-promoted (no error). The
    /// selection parity alternates with the compaction counter so
    /// successive compactions' rank errors partially cancel. The
    /// promoted items are gathered at the front of the level's own
    /// buffer, which then keeps only the trailing item, so a
    /// compaction allocates only when level `i + 1` grows.
    fn compact_level(&mut self, i: usize) {
        if self.upper.len() == i {
            self.upper.push(Level::default());
        }
        let level = self.level_at_mut(i);
        let mut buf = std::mem::take(&mut level.items);
        let parity = (level.compactions & 1) as usize;
        level.compactions += 1;
        let half = buf.len() / 2;
        let odd = (buf.len() % 2 == 1).then(|| buf[buf.len() - 1]);
        // `2 * j + parity >= j`: each read is ahead of every write.
        for j in 0..half {
            buf[j] = buf[2 * j + parity];
        }
        merge_into(&mut self.upper[i].items, &buf[..half]);
        buf.clear();
        buf.extend(odd);
        self.level_at_mut(i).items = buf;
    }

    /// The values of the items covering expanded positions `lo <= hi`
    /// (0-based) of the sketch's weighted multiset of `total` samples,
    /// found by one merge walk over the already-sorted levels, read in
    /// place — no buffer, no sort. The walk starts from the smallest
    /// items, or with `from_top` from the largest: a caller walking
    /// from the end nearer the ranks visits about 5% of the weight for
    /// a p95. Equal values are bit-identical under `total_cmp`, so the
    /// order in which the walk visits ties cannot change an answer, and
    /// both directions answer alike. A position past the end answers
    /// the largest item.
    fn merged_values_at(&self, total: u64, lo: u64, hi: u64, from_top: bool) -> (f64, f64) {
        // The two targets as positions in walk order, nearer one first.
        let (near, far) = if from_top {
            (
                (total - 1).saturating_sub(hi),
                (total - 1).saturating_sub(lo),
            )
        } else {
            (lo, hi)
        };
        // Items taken so far from each level's walk end.
        let mut taken = [0_usize; MAX_SKETCH_LEVELS];
        let mut cum = 0_u64;
        let mut v_near = None;
        let mut last = f64::NAN;
        loop {
            // The next head across levels in walk order (lowest level
            // on ties).
            let mut next: Option<(usize, f64)> = None;
            for (i, level) in self.iter_levels().enumerate() {
                let items = &level.items;
                let head = if from_top {
                    items.len().checked_sub(taken[i] + 1).map(|j| items[j])
                } else {
                    items.get(taken[i]).copied()
                };
                let Some(v) = head else { continue };
                let first = next.is_none_or(|(_, best)| {
                    let ord = v.total_cmp(&best);
                    if from_top {
                        ord.is_gt()
                    } else {
                        ord.is_lt()
                    }
                });
                if first {
                    next = Some((i, v));
                }
            }
            let Some((i, v)) = next else {
                // Only the ascending walk can run out: past the end.
                return (v_near.unwrap_or(last), last);
            };
            taken[i] += 1;
            cum += 1_u64 << i;
            last = v;
            if v_near.is_none() && near < cum {
                v_near = Some(v);
            }
            if far < cum {
                let v_near = v_near.unwrap_or(v);
                return if from_top { (v, v_near) } else { (v_near, v) };
            }
        }
    }
}

/// Merges the ascending-sorted `src` into the ascending-sorted `dst` in
/// place, preserving the bitwise order `f64::total_cmp` defines: `dst`
/// grows by `src.len()` and the merge fills it from the back, so no
/// second buffer is needed. Two values compare equal only when their
/// bits match, so the placement of ties cannot change the bytes.
fn merge_into(dst: &mut Vec<f64>, src: &[f64]) {
    if src.is_empty() {
        return;
    }
    let (mut i, mut j) = (dst.len(), src.len());
    dst.resize(i + j, 0.0);
    while j > 0 {
        let out = i + j - 1;
        if i > 0 && dst[i - 1].total_cmp(&src[j - 1]).is_gt() {
            dst[out] = dst[i - 1];
            i -= 1;
        } else {
            dst[out] = src[j - 1];
            j -= 1;
        }
    }
}

/// The expand-and-sort quantile of the weighted multiset `levels`
/// (level `i` items weigh `2^i`): the oracle both sketch layouts'
/// merge walks are held to.
#[cfg(test)]
fn quantile_by_sort(levels: &[&[f64]], q: f64) -> f64 {
    let mut items: Vec<(f64, u64)> = Vec::new();
    for (i, level) in levels.iter().enumerate() {
        items.extend(level.iter().map(|&v| (v, 1_u64 << i)));
    }
    items.sort_by(|a, b| a.0.total_cmp(&b.0));
    let total: u64 = items.iter().map(|&(_, w)| w).sum();
    let rank = q / 100.0 * (total - 1) as f64;
    let lo = rank.floor() as u64;
    let hi = rank.ceil() as u64;
    let value_at = |j: u64| {
        let mut cum = 0_u64;
        for &(v, w) in &items {
            cum += w;
            if j < cum {
                return v;
            }
        }
        items.last().expect("non-empty items").0
    };
    let (vlo, vhi) = (value_at(lo), value_at(hi));
    vlo + (vhi - vlo) * (rank - lo as f64)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cpa::write_cell;
    use jockey_simrt::rng::SeedDeriver;
    use jockey_simrt::table::KvStore;
    use proptest::prelude::*;
    use rand::Rng;

    /// The sketch's parts as [`CellSketch::from_parts`] takes them.
    fn parts(s: &CellSketch) -> (Vec<Vec<f64>>, Vec<u64>) {
        (0..s.num_levels())
            .map(|i| (s.level(i).to_vec(), s.compactions(i)))
            .unzip()
    }

    /// The previous layout, kept as the reference the inline-level
    /// layout is held to: every level in one `Vec<Vec<f64>>` and the
    /// counters in a parallel `Vec<u64>`, both allocated up front, with
    /// merges and compactions writing freshly allocated buffers.
    #[derive(Clone, Debug)]
    struct RefSketch {
        capacity: Option<usize>,
        levels: Vec<Vec<f64>>,
        compactions: Vec<u64>,
    }

    impl RefSketch {
        fn new(capacity: Option<usize>) -> Self {
            RefSketch {
                capacity,
                levels: vec![Vec::new()],
                compactions: vec![0],
            }
        }

        fn from_parts(
            capacity: Option<usize>,
            mut levels: Vec<Vec<f64>>,
            mut compactions: Vec<u64>,
        ) -> Option<Self> {
            if capacity.is_some_and(|k| k < MIN_SKETCH_CAPACITY) {
                return None;
            }
            if levels.is_empty() {
                levels.push(Vec::new());
            }
            if compactions.len() > levels.len() || levels.len() > MAX_SKETCH_LEVELS {
                return None;
            }
            compactions.resize(levels.len(), 0);
            for level in &mut levels {
                level.sort_by(f64::total_cmp);
            }
            Some(RefSketch {
                capacity,
                levels,
                compactions,
            })
        }

        fn is_empty(&self) -> bool {
            self.levels.iter().all(Vec::is_empty)
        }

        fn count(&self) -> u64 {
            self.levels
                .iter()
                .enumerate()
                .map(|(i, l)| (l.len() as u64) << i)
                .sum()
        }

        fn item_count(&self) -> usize {
            self.levels.iter().map(Vec::len).sum()
        }

        fn rank_error_bound(&self) -> u64 {
            self.compactions
                .iter()
                .enumerate()
                .map(|(i, &c)| c << i)
                .sum()
        }

        fn push(&mut self, v: f64) {
            let at = self.levels[0].partition_point(|&x| x.total_cmp(&v).is_lt());
            self.levels[0].insert(at, v);
            self.shrink();
        }

        fn extend_sorted(&mut self, sorted: &[f64]) {
            self.levels[0] = merge_sorted(&self.levels[0], sorted);
            self.shrink();
        }

        fn merge(&mut self, other: &RefSketch) {
            assert_eq!(self.capacity, other.capacity, "incompatible sketches");
            if other.levels.len() > self.levels.len() {
                self.levels.resize(other.levels.len(), Vec::new());
                self.compactions.resize(other.levels.len(), 0);
            }
            for (i, level) in other.levels.iter().enumerate() {
                if !level.is_empty() {
                    self.levels[i] = merge_sorted(&self.levels[i], level);
                }
            }
            for (i, &c) in other.compactions.iter().enumerate() {
                self.compactions[i] += c;
            }
            self.shrink();
        }

        fn quantile(&self, q: f64) -> f64 {
            if self.levels[1..].iter().all(Vec::is_empty) {
                return percentile_sorted(&self.levels[0], q);
            }
            let levels: Vec<&[f64]> = self.levels.iter().map(Vec::as_slice).collect();
            quantile_by_sort(&levels, q)
        }

        fn write_kv(&self, kv: &mut KvStore, key: &str) {
            if !self.levels[0].is_empty() {
                kv.set_f64_list(key, &self.levels[0]);
            }
            for (li, level) in self.levels.iter().enumerate().skip(1) {
                if !level.is_empty() {
                    kv.set_f64_list(&format!("{key}.l{li}"), level);
                }
            }
            if self.compactions.iter().any(|&c| c > 0) {
                let comps: Vec<f64> = self.compactions.iter().map(|&c| c as f64).collect();
                kv.set_f64_list(&format!("{key}.c"), &comps);
            }
        }

        fn shrink(&mut self) {
            let Some(k) = self.capacity else { return };
            let mut i = 0;
            while i < self.levels.len() {
                if self.levels[i].len() > k {
                    self.compact_level(i);
                }
                i += 1;
            }
        }

        fn compact_level(&mut self, i: usize) {
            if self.levels.len() == i + 1 {
                self.levels.push(Vec::new());
                self.compactions.push(0);
            }
            let buf = std::mem::take(&mut self.levels[i]);
            let parity = (self.compactions[i] & 1) as usize;
            let even = buf.len() & !1;
            let promoted: Vec<f64> = buf[..even]
                .iter()
                .copied()
                .skip(parity)
                .step_by(2)
                .collect();
            if even < buf.len() {
                self.levels[i].push(buf[even]);
            }
            self.compactions[i] += 1;
            self.levels[i + 1] = merge_sorted(&self.levels[i + 1], &promoted);
        }
    }

    fn merge_sorted(a: &[f64], b: &[f64]) -> Vec<f64> {
        let mut out = Vec::with_capacity(a.len() + b.len());
        let (mut i, mut j) = (0, 0);
        while i < a.len() && j < b.len() {
            if a[i].total_cmp(&b[j]).is_le() {
                out.push(a[i]);
                i += 1;
            } else {
                out.push(b[j]);
                j += 1;
            }
        }
        out.extend_from_slice(&a[i..]);
        out.extend_from_slice(&b[j..]);
        out
    }

    fn exact_quantile(sorted: &[f64], q: f64) -> f64 {
        percentile_sorted(sorted, q)
    }

    /// The sketch's documented guarantee, checked directly: for every
    /// probed percentile, the answer must lie between the exact values
    /// at ranks `rank ± (bound + w_max)` — `w_max` covering the
    /// interpolation straddle between two adjacent heavy items.
    fn assert_within_bound(sketch: &CellSketch, sorted: &[f64], q: f64) {
        let v = sketch.quantile(q);
        let n = sorted.len() as f64;
        let slop = (sketch.rank_error_bound() + (1 << (sketch.num_levels() - 1))) as f64;
        let rank = q / 100.0 * (n - 1.0);
        let lo_rank = ((rank - slop).floor().max(0.0)) as usize;
        let hi_rank = ((rank + slop).ceil() as usize).min(sorted.len() - 1);
        assert!(
            sorted[lo_rank] <= v && v <= sorted[hi_rank],
            "q={q}: {v} outside [{}, {}] (bound {slop} ranks)",
            sorted[lo_rank],
            sorted[hi_rank],
        );
    }

    #[test]
    fn exact_mode_matches_percentile_sorted_bit_for_bit() {
        let mut rng = SeedDeriver::new(7).rng("sketch-exact");
        let mut s = CellSketch::new(None);
        let mut raw: Vec<f64> = Vec::new();
        for _ in 0..257 {
            let v: f64 = rng.gen_range(-5.0..5000.0);
            s.push(v);
            raw.push(v);
        }
        raw.sort_by(f64::total_cmp);
        assert_eq!(s.level(0), raw);
        assert_eq!(s.rank_error_bound(), 0);
        for q in [0.0, 1.0, 37.5, 50.0, 90.0, 95.0, 99.9, 100.0] {
            assert_eq!(
                s.quantile(q).to_bits(),
                exact_quantile(&raw, q).to_bits(),
                "q={q}"
            );
        }
    }

    #[test]
    fn bounded_mode_stays_within_tracked_rank_error() {
        let mut rng = SeedDeriver::new(11).rng("sketch-bound");
        for k in [8, 16, 64] {
            let mut s = CellSketch::new(Some(k));
            let mut raw: Vec<f64> = Vec::new();
            for _ in 0..4000 {
                let v: f64 = rng.gen_range(0.0..1.0_f64).powi(3) * 1e4;
                s.push(v);
                raw.push(v);
            }
            raw.sort_by(f64::total_cmp);
            assert_eq!(s.count(), raw.len() as u64);
            assert!(s.item_count() <= raw.len());
            assert!(s.rank_error_bound() > 0, "k={k} never compacted");
            for q in [0.0, 10.0, 50.0, 90.0, 95.0, 99.0, 100.0] {
                assert_within_bound(&s, &raw, q);
            }
        }
    }

    #[test]
    fn merge_is_weight_preserving_and_split_insensitive() {
        let mut rng = SeedDeriver::new(13).rng("sketch-merge");
        let vals: Vec<f64> = (0..3000).map(|_| rng.gen_range(0.0..100.0)).collect();
        let mut sorted = vals.clone();
        sorted.sort_by(f64::total_cmp);

        // One sketch per arbitrary chunk, merged pairwise in a skewed
        // order; the result must keep the total weight and the bound.
        for chunk in [1, 7, 128, 1000] {
            let mut merged = CellSketch::new(Some(16));
            for piece in vals.chunks(chunk) {
                let mut part = CellSketch::new(Some(16));
                for &v in piece {
                    part.push(v);
                }
                merged.merge(&part);
            }
            assert_eq!(merged.count(), vals.len() as u64, "chunk {chunk}");
            for q in [5.0, 50.0, 95.0] {
                assert_within_bound(&merged, &sorted, q);
            }
        }
    }

    #[test]
    fn from_parts_round_trips() {
        let mut s = CellSketch::new(Some(8));
        for i in 0..100 {
            s.push(f64::from(i) * 0.5);
        }
        let (levels, comps) = parts(&s);
        let rebuilt = CellSketch::from_parts(s.capacity(), levels, comps).expect("parts are valid");
        assert_eq!(rebuilt, s);
        // A counter given without any level still counts.
        let bare = CellSketch::from_parts(Some(8), vec![], vec![3]).expect("valid parts");
        assert_eq!((bare.num_levels(), bare.compactions(0)), (1, 3));
        // Shape mismatches are rejected, not mangled.
        assert!(CellSketch::from_parts(Some(8), vec![vec![1.0]], vec![0, 0, 0]).is_none());
        assert!(CellSketch::from_parts(Some(2), vec![vec![1.0]], vec![0]).is_none());
        // A level past the last one a u64 count can weigh.
        let mut deep = vec![Vec::new(); MAX_SKETCH_LEVELS + 1];
        deep[MAX_SKETCH_LEVELS] = vec![1.0];
        assert!(CellSketch::from_parts(Some(8), deep, Vec::new()).is_none());
    }

    #[test]
    fn empty_and_tiny_sketches_behave() {
        let mut s = CellSketch::new(None);
        assert!(s.is_empty());
        assert_eq!(s.count(), 0);
        s.push(3.5);
        assert_eq!(s.quantile(0.0), 3.5);
        assert_eq!(s.quantile(100.0), 3.5);
    }

    /// One sample, drawn so that duplicates and both signed zeros are
    /// common.
    fn sample() -> impl Strategy<Value = f64> {
        (0_u32..8, -100.0_f64..100.0).prop_map(|(pick, v)| match pick {
            0 => -0.0,
            1 => 0.0,
            2 => 1.0,
            3 => 50.0,
            _ => v,
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The merge walk over sorted levels, from either end, answers
        /// bit for bit what the expand-and-sort oracle answers, on
        /// bounded sketches with several compacted levels, built from
        /// single pushes and sorted batches alike.
        #[test]
        fn merge_walk_quantile_matches_the_sort_oracle(
            k in 8_usize..=16,
            values in proptest::collection::vec(sample(), 1..800),
            batch in 1_usize..40,
            q in 0.0_f64..=100.0,
        ) {
            let mut s = CellSketch::new(Some(k));
            for (i, chunk) in values.chunks(batch).enumerate() {
                if i % 2 == 0 {
                    chunk.iter().for_each(|&v| s.push(v));
                } else {
                    let mut sorted = chunk.to_vec();
                    sorted.sort_by(f64::total_cmp);
                    s.extend_sorted(&sorted);
                }
            }
            prop_assert_eq!(s.count(), values.len() as u64);
            let total = s.count();
            for q in [0.0, 100.0, 50.0, 95.0, 5.0, q] {
                let oracle = s.quantile_by_sort(q).to_bits();
                prop_assert_eq!(
                    s.quantile(q).to_bits(),
                    oracle,
                    "q={} levels={}",
                    q,
                    s.num_levels()
                );
                // Both walk directions, whichever `quantile` picks.
                let rank = q / 100.0 * (total - 1) as f64;
                let (lo, hi) = (rank.floor() as u64, rank.ceil() as u64);
                for from_top in [false, true] {
                    let (vlo, vhi) = s.merged_values_at(total, lo, hi, from_top);
                    prop_assert_eq!(
                        (vlo + (vhi - vlo) * (rank - lo as f64)).to_bits(),
                        oracle,
                        "q={} from_top={}",
                        q,
                        from_top
                    );
                }
            }
        }
    }

    /// One step of a sketch's life, applied alike to the sketch and to
    /// the reference layout.
    #[derive(Clone, Debug)]
    enum Op {
        Push(f64),
        /// An ascending batch for `extend_sorted`.
        Extend(Vec<f64>),
        /// Merge a sketch that absorbed these values in sorted batches.
        Merge(Vec<f64>),
        /// Rebuild both from the sketch's own parts.
        Rebuild,
    }

    /// Pushes, batches, merges and rebuilds in the ratio 4 : 3 : 2 : 1.
    fn op() -> impl Strategy<Value = Op> {
        (
            0_u32..10,
            sample(),
            proptest::collection::vec(sample(), 0..40),
            proptest::collection::vec(sample(), 0..120),
        )
            .prop_map(|(pick, v, mut batch, values)| match pick {
                0..=3 => Op::Push(v),
                4..=6 => {
                    batch.sort_by(f64::total_cmp);
                    Op::Extend(batch)
                }
                7..=8 => Op::Merge(values),
                _ => Op::Rebuild,
            })
    }

    /// The sketch and the reference state, compared level by level.
    fn assert_same_state(s: &CellSketch, r: &RefSketch) {
        prop_assert_eq!(s.num_levels(), r.levels.len());
        for i in 0..s.num_levels() {
            let bits = |l: &[f64]| l.iter().map(|v| v.to_bits()).collect::<Vec<_>>();
            prop_assert_eq!(bits(s.level(i)), bits(&r.levels[i]), "level {}", i);
            prop_assert_eq!(s.compactions(i), r.compactions[i], "level {}", i);
        }
        prop_assert_eq!(s.is_empty(), r.is_empty());
        prop_assert_eq!(s.count(), r.count());
        prop_assert_eq!(s.item_count(), r.item_count());
        prop_assert_eq!(s.rank_error_bound(), r.rank_error_bound());
        let (mut kv_s, mut kv_r) = (KvStore::new(), KvStore::new());
        write_cell(&mut kv_s, "cell.3.5", s);
        r.write_kv(&mut kv_r, "cell.3.5");
        prop_assert_eq!(kv_s.to_text(), kv_r.to_text());
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// The inline-level layout with in-place merges is the
        /// reference layout byte for byte: after every push,
        /// `extend_sorted`, `merge` and `from_parts` rebuild, in exact
        /// and bounded mode, both hold the same levels and counters,
        /// answer the same quantile bits and serialize the same text.
        #[test]
        fn sketch_matches_the_reference_layout(
            capacity in (0_u32..2, 8_usize..=12).prop_map(|(pick, k)| (pick == 1).then_some(k)),
            ops in proptest::collection::vec(op(), 1..40),
            q in 0.0_f64..=100.0,
        ) {
            let mut s = CellSketch::new(capacity);
            let mut r = RefSketch::new(capacity);
            for op in ops {
                match op {
                    Op::Push(v) => {
                        s.push(v);
                        r.push(v);
                    }
                    Op::Extend(batch) => {
                        s.extend_sorted(&batch);
                        r.extend_sorted(&batch);
                    }
                    Op::Merge(values) => {
                        let mut other_s = CellSketch::new(capacity);
                        let mut other_r = RefSketch::new(capacity);
                        for chunk in values.chunks(13) {
                            let mut batch = chunk.to_vec();
                            batch.sort_by(f64::total_cmp);
                            other_s.extend_sorted(&batch);
                            other_r.extend_sorted(&batch);
                        }
                        s.merge(&other_s);
                        r.merge(&other_r);
                    }
                    Op::Rebuild => {
                        let (levels, comps) = parts(&s);
                        s = CellSketch::from_parts(capacity, levels.clone(), comps.clone())
                            .expect("own parts are valid");
                        r = RefSketch::from_parts(capacity, levels, comps)
                            .expect("own parts are valid");
                    }
                }
                assert_same_state(&s, &r);
                if !s.is_empty() {
                    for q in [0.0, 5.0, 50.0, 95.0, 100.0, q] {
                        prop_assert_eq!(s.quantile(q).to_bits(), r.quantile(q).to_bits(), "q={}", q);
                    }
                }
            }
        }
    }

    /// An empty sketch owns no heap buffer, however it was made; a
    /// sketch that has never compacted owns exactly one, its level-0
    /// list, in either mode and through a clone.
    #[test]
    fn empty_sketches_own_no_buffer_and_uncompacted_ones_own_one() {
        for capacity in [None, Some(8), Some(64)] {
            let mut s = CellSketch::new(capacity);
            assert_eq!(s.heap_buffers(), 0);
            assert_eq!(s.clone().heap_buffers(), 0);
            s.extend_sorted(&[]);
            s.merge(&CellSketch::new(capacity));
            assert_eq!(s.heap_buffers(), 0);
            for v in [3.0, 1.0, 2.0] {
                s.push(v);
            }
            s.extend_sorted(&[0.5, 4.0]);
            assert_eq!(s.rank_error_bound(), 0);
            assert_eq!(s.heap_buffers(), 1);
            assert_eq!(s.clone().heap_buffers(), 1);
        }
        let many: Vec<f64> = (0..1000).map(f64::from).collect();
        let mut exact = CellSketch::new(None);
        exact.extend_sorted(&many);
        exact.merge(&CellSketch::from_sorted(many.clone(), None));
        assert_eq!(exact.heap_buffers(), 1);
        // The first compaction allocates the upper-level array and
        // level 1.
        let compacted = CellSketch::from_sorted(many, Some(8));
        assert!(compacted.rank_error_bound() > 0);
        assert_eq!(compacted.heap_buffers(), 1 + compacted.num_levels());
        // Parts with nothing in them load as an empty sketch.
        for levels in [vec![], vec![Vec::new()]] {
            let s = CellSketch::from_parts(Some(8), levels, Vec::new()).expect("valid parts");
            assert_eq!(s.heap_buffers(), 0);
        }
        let one = CellSketch::from_parts(None, vec![vec![2.0, 1.0]], vec![0]).expect("valid");
        assert_eq!(one.heap_buffers(), 1);
    }

    #[test]
    fn merge_walk_separates_signed_zeros_across_levels() {
        // -0.0 sorts below +0.0 under total_cmp; a sketch whose upper
        // level holds one and level 0 the other must answer the same
        // bits the oracle does at every rank (interpolation itself may
        // turn -0.0 into +0.0; both paths share that arithmetic).
        let s = CellSketch::from_parts(Some(8), vec![vec![0.0, 0.0], vec![-0.0]], vec![1, 0])
            .expect("valid parts");
        for q in [0.0, 25.0, 50.0, 75.0, 100.0] {
            assert_eq!(
                s.quantile(q).to_bits(),
                s.quantile_by_sort(q).to_bits(),
                "q={q}"
            );
        }
        assert_eq!(s.quantile(100.0).to_bits(), 0.0_f64.to_bits());
    }
}
