//! Run diagnostics: simulation observers and a ring-buffer journal.
//!
//! Simulators built on this crate emit a stream of diagnostic records —
//! event dispatches, clock advances, RNG stream forks, scheduling
//! decisions — through a [`SimObserver`]. A simulator holds its
//! observer as an `Option`, and `None` (the default) costs one branch
//! per record; attaching a [`RingJournal`] (usually via the shareable
//! [`SharedJournal`]) retains the last `N` records so that a failing
//! run can be reconstructed event by event.
//!
//! Call sites should use the [`observe!`](crate::observe!) macro, which
//! skips message formatting entirely when the observer is disabled:
//!
//! ```
//! use jockey_simrt::observe::{EntryKind, SharedJournal, SimObserver};
//! use jockey_simrt::time::SimTime;
//!
//! let mut journal = SharedJournal::new(64);
//! let mut obs = journal.clone();
//! let at = SimTime::from_secs(5);
//! jockey_simrt::observe!(obs, at, EntryKind::Event, "task {} done", 3);
//! assert_eq!(journal.len(), 1);
//! assert!(journal.dump().contains("task 3 done"));
//! ```

use std::collections::VecDeque;
use std::fmt;
use std::sync::{Arc, Mutex};

use crate::time::SimTime;

/// Category of a journal entry.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum EntryKind {
    /// An event was popped off the queue and dispatched.
    Event,
    /// The simulation clock advanced.
    Clock,
    /// A named RNG stream was forked from the root seed.
    RngFork,
    /// A control or scheduling decision was applied.
    Decision,
    /// A task lifecycle transition (start, completion, kill, eviction,
    /// recomputation).
    Task,
    /// An invariant checker's observation.
    Invariant,
}

impl fmt::Display for EntryKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            EntryKind::Event => "event",
            EntryKind::Clock => "clock",
            EntryKind::RngFork => "rng",
            EntryKind::Decision => "decision",
            EntryKind::Task => "task",
            EntryKind::Invariant => "invariant",
        };
        f.write_str(s)
    }
}

/// One recorded diagnostic entry.
#[derive(Clone, Debug)]
pub struct JournalEntry {
    /// Monotone sequence number (survives ring-buffer eviction, so gaps
    /// reveal how much history was dropped).
    pub seq: u64,
    /// Simulation time the entry was recorded at.
    pub at: SimTime,
    /// Entry category.
    pub kind: EntryKind,
    /// Rendered message.
    pub message: String,
}

impl fmt::Display for JournalEntry {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "#{:<6} {:>10.3}s {:<9} {}",
            self.seq,
            self.at.as_secs_f64(),
            self.kind,
            self.message
        )
    }
}

/// Observer of simulation internals.
///
/// Implementations must be cheap to call: `record` runs on the
/// simulator's hot path. The [`observe!`](crate::observe!) macro
/// consults [`SimObserver::enabled`] first so disabled observers never
/// even format their message.
pub trait SimObserver {
    /// Whether this observer wants records at all. Call sites use this
    /// to skip message formatting; the default is `true`.
    fn enabled(&self) -> bool {
        true
    }

    /// Records one diagnostic entry.
    fn record(&mut self, at: SimTime, kind: EntryKind, message: fmt::Arguments<'_>);

    /// Renders the most recent `n` entries (oldest first), or `None` if
    /// this observer keeps no history.
    fn tail(&self, n: usize) -> Option<String> {
        let _ = n;
        None
    }
}

impl<O: SimObserver + ?Sized> SimObserver for Box<O> {
    fn enabled(&self) -> bool {
        (**self).enabled()
    }
    fn record(&mut self, at: SimTime, kind: EntryKind, message: fmt::Arguments<'_>) {
        (**self).record(at, kind, message);
    }
    fn tail(&self, n: usize) -> Option<String> {
        (**self).tail(n)
    }
}

/// An absent observer records nothing, and asking whether it is
/// enabled is a branch on the `Option`, not a call through the inner
/// observer's vtable.
impl<O: SimObserver> SimObserver for Option<O> {
    fn enabled(&self) -> bool {
        self.as_ref().is_some_and(O::enabled)
    }
    fn record(&mut self, at: SimTime, kind: EntryKind, message: fmt::Arguments<'_>) {
        if let Some(o) = self {
            o.record(at, kind, message);
        }
    }
    fn tail(&self, n: usize) -> Option<String> {
        self.as_ref()?.tail(n)
    }
}

/// Receives in-flight progress samples from a simulation run.
///
/// This is the borrowed, allocation-free seam for harvesting per-tick
/// job progress: the simulator calls [`ProgressSink::sample`] each time
/// it consults a job's controller, lending the per-stage completion
/// fractions instead of requiring callers to smuggle an
/// `Arc<Mutex<Vec<_>>>` into a recording controller. Implementations
/// own whatever accumulation they need; the borrow ends per call.
pub trait ProgressSink {
    /// One sample: the job's index within the run, seconds since the
    /// job started, and the completed fraction of each stage.
    fn sample(&mut self, job: usize, elapsed_secs: f64, stage_fraction: &[f64]);
}

impl<S: ProgressSink + ?Sized> ProgressSink for &mut S {
    fn sample(&mut self, job: usize, elapsed_secs: f64, stage_fraction: &[f64]) {
        (**self).sample(job, elapsed_secs, stage_fraction);
    }
}

/// A fixed-capacity ring buffer of [`JournalEntry`] records: the most
/// recent `capacity` entries are retained, older ones are dropped.
#[derive(Clone, Debug)]
pub struct RingJournal {
    capacity: usize,
    next_seq: u64,
    entries: VecDeque<JournalEntry>,
}

impl RingJournal {
    /// Creates a journal retaining at most `capacity` entries
    /// (`capacity` is clamped to at least 1).
    pub fn new(capacity: usize) -> Self {
        RingJournal {
            capacity: capacity.max(1),
            next_seq: 0,
            entries: VecDeque::new(),
        }
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Total number of entries ever recorded (including evicted ones).
    pub fn recorded(&self) -> u64 {
        self.next_seq
    }

    /// The retained entries, oldest first.
    pub fn entries(&self) -> impl Iterator<Item = &JournalEntry> {
        self.entries.iter()
    }

    /// Renders the last `n` retained entries, oldest first.
    pub fn tail_string(&self, n: usize) -> String {
        let skip = self.entries.len().saturating_sub(n);
        let mut out = String::new();
        for e in self.entries.iter().skip(skip) {
            out.push_str(&e.to_string());
            out.push('\n');
        }
        out
    }
}

impl SimObserver for RingJournal {
    fn record(&mut self, at: SimTime, kind: EntryKind, message: fmt::Arguments<'_>) {
        if self.entries.len() == self.capacity {
            self.entries.pop_front();
        }
        self.entries.push_back(JournalEntry {
            seq: self.next_seq,
            at,
            kind,
            message: message.to_string(),
        });
        self.next_seq += 1;
    }

    fn tail(&self, n: usize) -> Option<String> {
        Some(self.tail_string(n))
    }
}

/// A [`RingJournal`] behind `Arc<Mutex>`: clone one handle into the
/// simulator as its observer and keep another to inspect the journal
/// after (or during) the run.
#[derive(Clone, Debug)]
pub struct SharedJournal(Arc<Mutex<RingJournal>>);

impl SharedJournal {
    /// Creates a shared journal retaining `capacity` entries.
    pub fn new(capacity: usize) -> Self {
        SharedJournal(Arc::new(Mutex::new(RingJournal::new(capacity))))
    }

    /// Runs `f` with the locked journal.
    pub fn with<R>(&self, f: impl FnOnce(&RingJournal) -> R) -> R {
        f(&self.0.lock().expect("journal lock poisoned"))
    }

    /// Number of retained entries.
    pub fn len(&self) -> usize {
        self.with(RingJournal::len)
    }

    /// True if nothing has been retained.
    pub fn is_empty(&self) -> bool {
        self.with(RingJournal::is_empty)
    }

    /// Renders every retained entry, oldest first — the thing to
    /// `eprintln!` from a failing test.
    pub fn dump(&self) -> String {
        self.with(|j| j.tail_string(usize::MAX))
    }
}

impl SimObserver for SharedJournal {
    fn record(&mut self, at: SimTime, kind: EntryKind, message: fmt::Arguments<'_>) {
        self.0
            .lock()
            .expect("journal lock poisoned")
            .record(at, kind, message);
    }

    fn tail(&self, n: usize) -> Option<String> {
        Some(self.with(|j| j.tail_string(n)))
    }
}

/// Records a diagnostic entry through a [`SimObserver`], skipping
/// message formatting entirely when the observer is disabled.
///
/// `observe!(obs, at, kind, "fmt", args...)` — `obs` must implement
/// [`SimObserver`]; `at` is a [`SimTime`]; `kind` an [`EntryKind`].
#[macro_export]
macro_rules! observe {
    ($obs:expr, $at:expr, $kind:expr, $($fmt:tt)+) => {
        if $crate::observe::SimObserver::enabled(&$obs) {
            $crate::observe::SimObserver::record(
                &mut $obs,
                $at,
                $kind,
                ::core::format_args!($($fmt)+),
            );
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(j: &mut impl SimObserver, secs: u64, msg: &str) {
        j.record(
            SimTime::from_secs(secs),
            EntryKind::Event,
            format_args!("{msg}"),
        );
    }

    #[test]
    fn absent_observer_is_disabled_and_keeps_nothing() {
        let mut o: Option<RingJournal> = None;
        assert!(!o.enabled());
        entry(&mut o, 1, "dropped");
        assert_eq!(o.tail(10), None);
    }

    #[test]
    fn present_observer_records_through_the_option() {
        let journal = SharedJournal::new(4);
        let mut o: Option<Box<dyn SimObserver>> = Some(Box::new(journal.clone()));
        assert!(o.enabled());
        entry(&mut o, 3, "kept");
        assert_eq!(journal.len(), 1);
        assert!(o.tail(1).unwrap().contains("kept"));
    }

    #[test]
    fn ring_journal_retains_only_capacity() {
        let mut j = RingJournal::new(3);
        for i in 0..5 {
            entry(&mut j, i, &format!("e{i}"));
        }
        assert_eq!(j.len(), 3);
        assert_eq!(j.recorded(), 5);
        let seqs: Vec<u64> = j.entries().map(|e| e.seq).collect();
        assert_eq!(seqs, vec![2, 3, 4]);
        let tail = j.tail_string(2);
        assert!(tail.contains("e3") && tail.contains("e4") && !tail.contains("e2"));
    }

    #[test]
    fn zero_capacity_is_clamped() {
        let mut j = RingJournal::new(0);
        entry(&mut j, 1, "kept");
        assert_eq!(j.len(), 1);
    }

    #[test]
    fn shared_journal_sees_observer_records() {
        let journal = SharedJournal::new(16);
        let mut obs: Box<dyn SimObserver> = Box::new(journal.clone());
        entry(&mut obs, 2, "through the box");
        assert_eq!(journal.len(), 1);
        assert!(journal.dump().contains("through the box"));
        assert!(obs.tail(5).unwrap().contains("through the box"));
    }

    #[test]
    fn observe_macro_skips_formatting_when_disabled() {
        struct Panicky;
        impl fmt::Display for Panicky {
            fn fmt(&self, _: &mut fmt::Formatter<'_>) -> fmt::Result {
                panic!("message was formatted for a disabled observer");
            }
        }
        let mut obs: Option<RingJournal> = None;
        crate::observe!(obs, SimTime::ZERO, EntryKind::Clock, "{}", Panicky);
        let mut journal = SharedJournal::new(4);
        crate::observe!(journal, SimTime::ZERO, EntryKind::Clock, "tick {}", 1);
        assert!(journal.dump().contains("tick 1"));
    }

    #[test]
    fn entries_render_with_time_and_kind() {
        let mut j = RingJournal::new(4);
        j.record(
            SimTime::from_millis(1_500),
            EntryKind::Decision,
            format_args!("guarantee=4"),
        );
        let line = j.tail_string(1);
        assert!(line.contains("1.500s"), "{line}");
        assert!(line.contains("decision"), "{line}");
        assert!(line.contains("guarantee=4"), "{line}");
    }
}
