//! Statistics, digests and the result line: the measuring side of the
//! benchmark, independent of any workload.

use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;

use jockey_simrt::stats::percentile;

/// Median of `xs` (mean of the middle pair for even lengths); 0 when
/// empty.
pub fn median(xs: &[f64]) -> f64 {
    if xs.is_empty() {
        0.0
    } else {
        percentile(xs, 50.0)
    }
}

/// `num / den`, or 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// FNV-1a digest over a stream of 64-bit words: the fingerprint of a
/// pass's simulated outcomes. Passes and runs at one seed must agree
/// on it exactly.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct Digest(u64);

impl Default for Digest {
    fn default() -> Self {
        Digest(0xcbf2_9ce4_8422_2325)
    }
}

impl Digest {
    /// Folds one word in.
    pub fn word(&mut self, w: u64) {
        for b in w.to_le_bytes() {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    /// Folds a float in by its exact bit pattern.
    pub fn float(&mut self, x: f64) {
        self.word(x.to_bits());
    }

    /// The digest value.
    pub fn value(self) -> u64 {
        self.0
    }
}

/// Seconds elapsed since `t`.
pub fn secs_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// Peak resident set size of this process in MB (`VmHWM`), or 0 where
/// `/proc` is unavailable.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Restarts the peak-RSS high-water mark at the current resident size
/// (Linux `clear_refs` 5); a no-op where that is unavailable.
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Events one calibration-kernel call processes.
const REFERENCE_EVENTS: u64 = 400_000;

/// A fixed discrete-event loop owned by the benchmark: a binary-heap
/// event queue whose every event reads and writes a random slot of a
/// 32 MiB table. It has the simulator's instruction mix (heap
/// operations, branches, scattered memory beyond the caches) but none
/// of its code, so no change to the program changes its speed; only
/// the machine does. Returns a checksum.
pub fn reference_kernel() -> u64 {
    use std::cmp::Reverse;
    use std::collections::BinaryHeap;
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut table = vec![0_u64; 1 << 22];
    let mask = table.len() - 1;
    let mut heap = BinaryHeap::with_capacity(4096);
    for id in 0..4096_u64 {
        heap.push(Reverse((next() >> 40, id)));
    }
    let mut sum = 0_u64;
    for _ in 0..REFERENCE_EVENTS {
        let Reverse((t, id)) = heap.pop().expect("the queue never drains");
        let slot = (next() as usize) & mask;
        table[slot] = table[slot].wrapping_add(t ^ id);
        sum = sum.wrapping_add(table[(slot * 31 + 7) & mask]);
        heap.push(Reverse((t + (next() >> 44) + 1, id)));
    }
    std::hint::black_box(sum)
}

/// Host seconds for one [`reference_kernel`] call per core, side by
/// side.
pub fn reference_secs() -> f64 {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let t = Instant::now();
    std::thread::scope(|s| {
        for _ in 1..cores {
            s.spawn(reference_kernel);
        }
        reference_kernel();
    });
    secs_since(t)
}

/// Sub-buckets per power of two in [`LogHistogram`] (~19% wide).
const SUB: u32 = 4;
/// Bucket count: covers 1 ns up to 2^64 ns.
const BUCKETS: usize = 64 * SUB as usize;

/// A lock-free log-bucket histogram of nanosecond durations, for
/// boundaries too fine to keep one span per call (control ticks, model
/// queries, admissions). Quantiles are read at bucket midpoints.
pub struct LogHistogram {
    buckets: Vec<AtomicU64>,
    count: AtomicU64,
    sum_ns: AtomicU64,
}

impl Default for LogHistogram {
    fn default() -> Self {
        LogHistogram {
            buckets: (0..BUCKETS).map(|_| AtomicU64::new(0)).collect(),
            count: AtomicU64::new(0),
            sum_ns: AtomicU64::new(0),
        }
    }
}

impl LogHistogram {
    fn bucket_of(ns: u64) -> usize {
        let ns = ns.max(1);
        let log = 63 - ns.leading_zeros();
        // The SUB bits below the leading one pick the sub-bucket.
        let frac = if log >= SUB {
            (ns >> (log - SUB)) & u64::from(SUB - 1)
        } else {
            (ns << (SUB - log)) & u64::from(SUB - 1)
        };
        (log * SUB) as usize + frac as usize
    }

    fn bucket_mid(i: usize) -> f64 {
        let log = (i as u32) / SUB;
        let frac = (i as u32) % SUB;
        let lo = 2f64.powi(log as i32) * (1.0 + f64::from(frac) / f64::from(SUB));
        lo * (1.0 + 0.5 / f64::from(SUB))
    }

    /// Records one duration. Counters are statistics only, so relaxed
    /// ordering suffices.
    pub fn record(&self, ns: u64) {
        self.buckets[Self::bucket_of(ns)].fetch_add(1, Ordering::Relaxed);
        self.count.fetch_add(1, Ordering::Relaxed);
        self.sum_ns.fetch_add(ns, Ordering::Relaxed);
    }

    /// Calls recorded.
    pub fn count(&self) -> u64 {
        self.count.load(Ordering::Relaxed)
    }

    /// Total recorded time in seconds.
    pub fn sum_secs(&self) -> f64 {
        self.sum_ns.load(Ordering::Relaxed) as f64 / 1e9
    }

    /// Approximate quantile in nanoseconds; 0 when empty.
    pub fn quantile_ns(&self, q: f64) -> f64 {
        let n = self.count();
        if n == 0 {
            return 0.0;
        }
        let rank = ((n as f64 * q).ceil() as u64).clamp(1, n);
        let mut seen = 0;
        for (i, b) in self.buckets.iter().enumerate() {
            seen += b.load(Ordering::Relaxed);
            if seen >= rank {
                return Self::bucket_mid(i);
            }
        }
        Self::bucket_mid(BUCKETS - 1)
    }
}

/// One reported metric.
pub struct Metric {
    /// Metric name, as declared in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit string.
    pub unit: &'static str,
}

/// The ordered set of metrics one invocation reports.
#[derive(Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    /// Appends a metric.
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
        });
    }

    /// The value of `name`, if reported.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.0.iter().find(|m| m.name == name).map(|m| m.value)
    }
}

/// Renders a JSON number; non-finite values (never expected) become 0
/// so the result line always parses.
fn json_number(x: f64) -> String {
    if x.is_finite() {
        format!("{x}")
    } else {
        "0".to_string()
    }
}

/// The final result line: `{"correct", "attempted", "failed", "metrics"}`.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &Metrics) -> String {
    let mut s = format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{"
    );
    for (i, m) in metrics.0.iter().enumerate() {
        if i > 0 {
            s.push_str(", ");
        }
        let _ = write!(
            s,
            "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    s.push_str("}}");
    s
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_interpolates_and_reads_0_when_empty() {
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn histogram_quantiles_land_in_the_right_bucket() {
        let h = LogHistogram::default();
        for ns in 1..=1000 {
            h.record(ns);
        }
        assert_eq!(h.count(), 1000);
        let p50 = h.quantile_ns(0.5);
        assert!((400.0..=640.0).contains(&p50), "p50 {p50}");
        let p99 = h.quantile_ns(0.99);
        assert!((850.0..=1250.0).contains(&p99), "p99 {p99}");
        assert!(h.quantile_ns(0.99) >= h.quantile_ns(0.5));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let mut m = Metrics::default();
        m.put("setup_s", 0.5, "s");
        let line = result_line(true, 3, 0, &m);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": \
             {\"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
    }
}
