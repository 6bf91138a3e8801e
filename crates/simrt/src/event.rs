//! Deterministic future-event list.
//!
//! [`EventQueue`] is a priority queue keyed by [`SimTime`] with FIFO
//! tie-breaking: two events scheduled for the same instant pop in the
//! order they were scheduled. This property is what makes the simulators
//! in this workspace deterministic — `std::collections::BinaryHeap` alone
//! does not guarantee any order among equal keys.
//!
//! Two backends implement the same contract (see [`QueueBackend`]):
//!
//! - **Adaptive** (the default): starts on a 4-ary min-heap (cheapest at
//!   low occupancy) and promotes itself to the bucket ladder the first
//!   time the pending-event count crosses
//!   [`ADAPTIVE_PROMOTE_LEN`](EventQueue::ADAPTIVE_PROMOTE_LEN), so
//!   neither the sparse nor the dense regime pays for the other's data
//!   structure. Promotion is invisible: both representations emit the
//!   identical `(time, seq)` stream. The ladder is a calendar structure
//!   exploiting the near-monotone event times of a discrete-event
//!   simulation: events within a sliding window land in fixed-width
//!   time buckets (O(1) schedule); buckets are sorted lazily when the
//!   pop cursor reaches them, so the per-event cost is O(1) amortized
//!   for the dispatch-heavy simulator hot path. Events beyond the
//!   window wait in an overflow heap and migrate into buckets when the
//!   window advances.
//! - **BinaryHeap**: the straightforward `(time, seq)` min-heap. Kept
//!   as the reference implementation; the property tests in
//!   `tests/queue_equiv.rs` prove the adaptive backend, before and
//!   after promotion, produces the exact same `(time, payload)` stream.
//!
//! All backends order events by `(time, sequence)` where the sequence
//! number is assigned at schedule time, so switching backends never
//! changes a simulation's event stream.

use std::cmp::Ordering;
use std::collections::BinaryHeap;

use crate::time::SimTime;

/// Number of buckets in the bucket ladder's sliding window (a power
/// of two so slot indexing is a mask).
const NUM_BUCKETS: usize = 256;

/// log2 of the bucket width in milliseconds. 1024 ms buckets with 256
/// of them give a ~4.4 simulated-minute window — wide enough that task
/// completions and control ticks land in buckets, while rare far-future
/// events (machine-failure arrivals hours out) take the overflow path.
const BUCKET_SHIFT: u32 = 10;

/// Bucket width in milliseconds.
const BUCKET_WIDTH_MS: u64 = 1 << BUCKET_SHIFT;

/// A pending event: payload `E` scheduled at a time, ordered for a
/// min-heap with a sequence number breaking ties FIFO.
struct Scheduled<E> {
    at: SimTime,
    seq: u64,
    event: E,
}

impl<E> Scheduled<E> {
    /// The `(time, seq)` order as one integer: time in the high half,
    /// sequence in the low half.
    #[inline]
    fn key(&self) -> u128 {
        (u128::from(self.at.as_millis()) << 64) | u128::from(self.seq)
    }
}

impl<E> PartialEq for Scheduled<E> {
    fn eq(&self, other: &Self) -> bool {
        self.at == other.at && self.seq == other.seq
    }
}

impl<E> Eq for Scheduled<E> {}

impl<E> PartialOrd for Scheduled<E> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}

impl<E> Ord for Scheduled<E> {
    fn cmp(&self, other: &Self) -> Ordering {
        // Reversed so that the `BinaryHeap` max-heap behaves as a min-heap
        // on (time, sequence).
        other
            .at
            .cmp(&self.at)
            .then_with(|| other.seq.cmp(&self.seq))
    }
}

/// A 4-ary min-heap on `(time, seq)`: the adaptive queue's
/// representation below the promotion threshold.
///
/// Each node has four children, so the tree is half as deep as a
/// binary heap's and a pop moves an element through half as many
/// levels. A pop walks the vacancy left at the root down along the
/// smallest children to the bottom, picking each level's smallest of
/// four by a two-round tournament, then lets the former last leaf rise
/// back to its place. `seq` is unique, so the key order is total and
/// the pop order equals the binary reference heap's exactly.
struct QuadHeap<E> {
    items: Vec<Scheduled<E>>,
}

impl<E> QuadHeap<E> {
    const ARITY: usize = 4;

    fn new() -> Self {
        QuadHeap { items: Vec::new() }
    }

    fn len(&self) -> usize {
        self.items.len()
    }

    fn peek(&self) -> Option<&Scheduled<E>> {
        self.items.first()
    }

    fn clear(&mut self) {
        self.items.clear();
    }

    fn push(&mut self, s: Scheduled<E>) {
        self.items.push(s);
        self.sift_up(self.items.len() - 1);
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        let last = self.items.pop()?;
        if self.items.is_empty() {
            return Some(last);
        }
        let top = std::mem::replace(&mut self.items[0], last);
        self.sift_down_root();
        Some(top)
    }

    /// Moves the element at `pos` up until its parent is smaller.
    fn sift_up(&mut self, mut pos: usize) {
        let key = self.items[pos].key();
        while pos > 0 {
            let parent = (pos - 1) / Self::ARITY;
            if self.items[parent].key() < key {
                break;
            }
            self.items.swap(pos, parent);
            pos = parent;
        }
    }

    /// Restores the order after a pop moved the last leaf to the root.
    /// A former leaf is usually among the largest keys, so instead of
    /// testing it at every level on the way down, the root swaps with
    /// its smallest child all the way to the bottom and then sifts up,
    /// which is rarely more than a level.
    fn sift_down_root(&mut self) {
        let n = self.items.len();
        let items = &mut self.items[..];
        let mut pos = 0;
        let mut first = 1;
        while first + Self::ARITY <= n {
            let c = &items[first..first + Self::ARITY];
            let (k0, k1, k2, k3) = (c[0].key(), c[1].key(), c[2].key(), c[3].key());
            let (a, ka) = if k1 < k0 { (1, k1) } else { (0, k0) };
            let (b, kb) = if k3 < k2 { (3, k3) } else { (2, k2) };
            let best = first + if kb < ka { b } else { a };
            items.swap(pos, best);
            pos = best;
            first = Self::ARITY * pos + 1;
        }
        // The last internal node may have one to three children.
        if let Some(best) = (first..n).min_by_key(|&c| items[c].key()) {
            items.swap(pos, best);
            pos = best;
        }
        self.sift_up(pos);
    }
}

/// Which data structure an [`EventQueue`] runs on.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum QueueBackend {
    /// Occupancy-triggered hybrid: runs on a 4-ary heap while few
    /// events are pending and promotes itself (once per run; `reset`
    /// demotes) to the bucket ladder when the pending count crosses
    /// [`EventQueue::ADAPTIVE_PROMOTE_LEN`]. The default: neither the
    /// sparse nor the dense regime pays the other representation's
    /// tax, and no manual flag is needed.
    #[default]
    Adaptive,
    /// `(time, seq)` binary min-heap: O(log n) per operation. The
    /// reference implementation the adaptive backend is proved against.
    BinaryHeap,
}

/// One time bucket of the bucket ladder. Entries are appended
/// unsorted; the bucket is sorted *descending* by `(time, seq)` the
/// first time the pop cursor drains it, so the minimum pops from the
/// back in O(1).
struct Bucket<E> {
    items: Vec<Scheduled<E>>,
    sorted: bool,
}

impl<E> Default for Bucket<E> {
    fn default() -> Self {
        Bucket {
            items: Vec::new(),
            sorted: true,
        }
    }
}

impl<E> Bucket<E> {
    fn sort_for_drain(&mut self) {
        if !self.sorted {
            // Descending on (time, seq): the next event to fire sits at
            // the back. `seq` is unique, so the order is total.
            self.items
                .sort_unstable_by_key(|s| std::cmp::Reverse((s.at, s.seq)));
            self.sorted = true;
        }
    }

    /// Inserts while keeping descending order (used only when events
    /// are scheduled into the bucket currently being drained).
    fn insert_sorted(&mut self, s: Scheduled<E>) {
        debug_assert!(self.sorted);
        let pos = self
            .items
            .partition_point(|e| (e.at, e.seq) > (s.at, s.seq));
        self.items.insert(pos, s);
    }
}

/// The calendar/ladder structure a promoted [`QueueBackend::Adaptive`]
/// queue runs on.
///
/// Invariants:
/// - every bucketed event has `cursor_ms <= at < window_end_ms`;
/// - every overflow event has `at >= window_end_ms`;
/// - `cursor_ms` is the quantized slot the pop cursor sits on and never
///   exceeds the time of the next event to fire, so no event is ever
///   scheduled behind the cursor (schedule rejects `at < now` and
///   `cursor_ms <= quantize(now)` holds throughout).
struct BucketLadder<E> {
    buckets: Vec<Bucket<E>>,
    /// One bit per slot: set iff the bucket holds events. Lets the pop
    /// cursor jump straight to the next occupied bucket with a bitwise
    /// scan instead of stepping through empty slots one by one — the
    /// difference between O(1) and O(gap/bucket-width) per pop when
    /// events are sparse in time (e.g. 60 s control-tick gaps).
    occupied: [u64; NUM_BUCKETS / 64],
    /// Events at or beyond `window_end_ms`, min-ordered by `(at, seq)`.
    overflow: BinaryHeap<Scheduled<E>>,
    /// Number of events currently stored in `buckets`.
    in_buckets: usize,
    /// Quantized (bucket-aligned) time of the pop cursor's slot.
    cursor_ms: u64,
    /// Exclusive upper bound of the bucketed window. Frozen between
    /// window jumps so bucket/overflow membership is unambiguous.
    window_end_ms: u64,
}

impl<E> BucketLadder<E> {
    fn new() -> Self {
        let mut buckets = Vec::with_capacity(NUM_BUCKETS);
        buckets.resize_with(NUM_BUCKETS, Bucket::default);
        BucketLadder {
            buckets,
            occupied: [0; NUM_BUCKETS / 64],
            overflow: BinaryHeap::new(),
            in_buckets: 0,
            cursor_ms: 0,
            window_end_ms: NUM_BUCKETS as u64 * BUCKET_WIDTH_MS,
        }
    }

    fn slot_of(at_ms: u64) -> usize {
        ((at_ms >> BUCKET_SHIFT) as usize) & (NUM_BUCKETS - 1)
    }

    fn len(&self) -> usize {
        self.in_buckets + self.overflow.len()
    }

    fn mark_occupied(&mut self, slot: usize) {
        self.occupied[slot >> 6] |= 1 << (slot & 63);
    }

    fn mark_empty(&mut self, slot: usize) {
        self.occupied[slot >> 6] &= !(1 << (slot & 63));
    }

    /// Circular distance (in slots) from `from_slot` to the nearest
    /// occupied slot, 0 if `from_slot` itself is occupied. `None` when
    /// the buckets are empty. The window spans at most `NUM_BUCKETS`
    /// buckets and nothing lives behind the cursor, so the circular
    /// scan order is exactly time order.
    fn next_occupied_distance(&self, from_slot: usize) -> Option<usize> {
        const WORDS: usize = NUM_BUCKETS / 64;
        let word = from_slot >> 6;
        let bit = from_slot & 63;
        let masked = self.occupied[word] >> bit;
        if masked != 0 {
            return Some(masked.trailing_zeros() as usize);
        }
        // Wrap through the remaining words; the last iteration revisits
        // `word`, whose bits at or above `bit` are known zero.
        for i in 1..=WORDS {
            let w = self.occupied[(word + i) % WORDS];
            if w != 0 {
                return Some(64 - bit + (i - 1) * 64 + w.trailing_zeros() as usize);
            }
        }
        None
    }

    fn push(&mut self, s: Scheduled<E>) {
        let at_ms = s.at.as_millis();
        if at_ms >= self.window_end_ms {
            self.overflow.push(s);
            return;
        }
        debug_assert!(at_ms >= self.cursor_ms);
        let slot = Self::slot_of(at_ms);
        self.mark_occupied(slot);
        let bucket = &mut self.buckets[slot];
        if bucket.items.is_empty() {
            bucket.sorted = true;
        }
        // Scheduling into the slot currently being drained must keep
        // its sorted tail intact; any other slot appends and sorts
        // lazily when the cursor arrives.
        if slot == Self::slot_of(self.cursor_ms) && bucket.sorted && !bucket.items.is_empty() {
            bucket.insert_sorted(s);
        } else {
            bucket.sorted = bucket.items.is_empty();
            bucket.items.push(s);
        }
        self.in_buckets += 1;
    }

    fn pop(&mut self) -> Option<Scheduled<E>> {
        if self.in_buckets == 0 {
            self.jump_to_overflow()?;
        }
        // Jump the cursor to the next occupied bucket. The cursor never
        // passes an event: nothing can be scheduled before it.
        let slot = Self::slot_of(self.cursor_ms);
        let d = self
            .next_occupied_distance(slot)
            .expect("in_buckets > 0 implies an occupied slot");
        if d > 0 {
            self.cursor_ms = ((self.cursor_ms >> BUCKET_SHIFT) + d as u64) << BUCKET_SHIFT;
            debug_assert!(self.cursor_ms < self.window_end_ms);
        }
        let slot = Self::slot_of(self.cursor_ms);
        let bucket = &mut self.buckets[slot];
        bucket.sort_for_drain();
        let s = bucket.items.pop().expect("occupied bucket");
        if bucket.items.is_empty() {
            self.mark_empty(slot);
        }
        self.in_buckets -= 1;
        Some(s)
    }

    /// All pending events live in the overflow heap: jump the window to
    /// the earliest of them and migrate everything that now fits.
    /// Called only when the buckets are empty, so the jump cannot
    /// reorder anything.
    fn jump_to_overflow(&mut self) -> Option<()> {
        debug_assert_eq!(self.in_buckets, 0);
        let first = self.overflow.peek()?.at.as_millis();
        self.cursor_ms = first >> BUCKET_SHIFT << BUCKET_SHIFT;
        self.window_end_ms = self
            .cursor_ms
            .saturating_add(NUM_BUCKETS as u64 * BUCKET_WIDTH_MS);
        while let Some(s) = self.overflow.peek() {
            if s.at.as_millis() >= self.window_end_ms {
                break;
            }
            let s = self.overflow.pop().expect("peeked");
            let slot = Self::slot_of(s.at.as_millis());
            self.mark_occupied(slot);
            let bucket = &mut self.buckets[slot];
            bucket.sorted = bucket.items.is_empty();
            bucket.items.push(s);
            self.in_buckets += 1;
        }
        Some(())
    }

    /// Minimum pending `(time)` without mutating cursor state.
    fn peek_time(&self) -> Option<SimTime> {
        if self.in_buckets == 0 {
            return self.overflow.peek().map(|s| s.at);
        }
        let from = Self::slot_of(self.cursor_ms);
        let d = self
            .next_occupied_distance(from)
            .expect("in_buckets > 0 implies an occupied slot");
        let bucket = &self.buckets[(from + d) & (NUM_BUCKETS - 1)];
        bucket.items.iter().map(|s| s.at).min()
    }

    fn clear(&mut self) {
        for b in &mut self.buckets {
            b.items.clear();
            b.sorted = true;
        }
        self.occupied = [0; NUM_BUCKETS / 64];
        self.overflow.clear();
        self.in_buckets = 0;
    }
}

enum Backend<E> {
    Heap(BinaryHeap<Scheduled<E>>),
    /// The adaptive hybrid. Events live in exactly one of the two
    /// structures: the 4-ary heap until promotion, the ladder after.
    /// Both allocations persist across `reset` so pooled queues keep
    /// their storage whichever regime the next run lands in.
    Adaptive {
        heap: QuadHeap<E>,
        ladder: BucketLadder<E>,
        promoted: bool,
    },
}

/// A future-event list with deterministic FIFO ordering of simultaneous
/// events.
///
/// # Examples
///
/// ```
/// use jockey_simrt::event::EventQueue;
/// use jockey_simrt::time::SimTime;
///
/// let mut q = EventQueue::new();
/// q.schedule(SimTime::from_secs(2), "b");
/// q.schedule(SimTime::from_secs(2), "c");
/// q.schedule(SimTime::from_secs(1), "a");
/// let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
/// assert_eq!(order, vec!["a", "b", "c"]);
/// ```
pub struct EventQueue<E> {
    backend: Backend<E>,
    next_seq: u64,
    /// Time of the most recently popped event, used to reject scheduling
    /// into the past.
    now: SimTime,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Pending-event count at which an [`QueueBackend::Adaptive`] queue
    /// promotes from its 4-ary heap to the bucket ladder. Chosen above
    /// the sparse engine regime (~60–70 in-flight completions at 60
    /// tokens) and well below the dense regime (hundreds of in-flight
    /// tasks, where the ladder wins ~2x on the hold model). Promotion
    /// is one-way per run: occupancy hovering around the threshold must
    /// not thrash representations, so only `reset` demotes.
    ///
    /// Re-measured for the 4-ary heap on the `queue_depth` hold model
    /// of `benches/simrt_kernel.rs` (nproc 2, 2026-10-19), with builds
    /// that pin each representation at every depth; criterion means
    /// of two alternating runs, µs per 8192 rounds, heap vs ladder:
    /// 32: 444, 477 vs 513, 496; 64: 443, 469 vs 525, 533; 128: 505,
    /// 537 vs 569, 541; 192: 521, 545 vs 564, 588; 256: 480, 536 vs
    /// 680, 606. The heap holds at least even through 256, but the same
    /// hold model with 32-byte payloads (the engine's event size) put
    /// the ladder ahead at 64–128 on minima (40–43 vs 45–51 ns per
    /// round). With no clear crossover the threshold stays at 128.
    pub const ADAPTIVE_PROMOTE_LEN: usize = 128;

    /// Creates an empty queue positioned at [`SimTime::ZERO`], using the
    /// default (adaptive) backend.
    pub fn new() -> Self {
        Self::with_backend(QueueBackend::default())
    }

    /// Creates an empty queue on an explicit backend.
    pub fn with_backend(backend: QueueBackend) -> Self {
        EventQueue {
            backend: match backend {
                QueueBackend::Adaptive => Backend::Adaptive {
                    heap: QuadHeap::new(),
                    ladder: BucketLadder::new(),
                    promoted: false,
                },
                QueueBackend::BinaryHeap => Backend::Heap(BinaryHeap::new()),
            },
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    /// True if an adaptive queue has promoted to the ladder (test/bench
    /// introspection; always false for the heap backend).
    pub fn is_promoted(&self) -> bool {
        matches!(self.backend, Backend::Adaptive { promoted: true, .. })
    }

    /// Schedules `event` to fire at `at`.
    ///
    /// # Panics
    ///
    /// Panics if `at` is earlier than the time of the last popped event:
    /// scheduling into the past indicates a simulator bug and would
    /// silently corrupt causality.
    pub fn schedule(&mut self, at: SimTime, event: E) {
        assert!(
            at >= self.now,
            "scheduled event at {at:?} before current time {:?}",
            self.now
        );
        let seq = self.next_seq;
        self.next_seq += 1;
        let s = Scheduled { at, seq, event };
        match &mut self.backend {
            Backend::Heap(h) => h.push(s),
            Backend::Adaptive {
                heap,
                ladder,
                promoted,
            } => {
                if *promoted {
                    ladder.push(s);
                } else {
                    heap.push(s);
                    if heap.len() >= Self::ADAPTIVE_PROMOTE_LEN {
                        // Promote: position the ladder window at the
                        // current quantized time and migrate the heap.
                        // Drain order is irrelevant — the ladder
                        // re-establishes (time, seq) order on pop — so
                        // the emitted stream is unchanged (the
                        // `adaptive_matches_reference` test pins this).
                        debug_assert_eq!(ladder.len(), 0);
                        ladder.cursor_ms = self.now.as_millis() >> BUCKET_SHIFT << BUCKET_SHIFT;
                        ladder.window_end_ms = ladder
                            .cursor_ms
                            .saturating_add(NUM_BUCKETS as u64 * BUCKET_WIDTH_MS);
                        for ev in heap.items.drain(..) {
                            ladder.push(ev);
                        }
                        *promoted = true;
                    }
                }
            }
        }
    }

    /// Removes and returns the next event and its firing time, advancing
    /// the queue's notion of "now". Returns `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = match &mut self.backend {
            Backend::Heap(h) => h.pop()?,
            Backend::Adaptive {
                heap,
                ladder,
                promoted,
            } => {
                if *promoted {
                    ladder.pop()?
                } else {
                    heap.pop()?
                }
            }
        };
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// Removes and returns the next event only if it fires exactly at
    /// `at` — the helper batch-draining consumers use to pull every
    /// same-instant event without disturbing later ones.
    pub fn pop_at(&mut self, at: SimTime) -> Option<E> {
        if self.peek_time() != Some(at) {
            return None;
        }
        self.pop().map(|(_, e)| e)
    }

    /// The firing time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        match &self.backend {
            Backend::Heap(h) => h.peek().map(|s| s.at),
            Backend::Adaptive {
                heap,
                ladder,
                promoted,
            } => {
                if *promoted {
                    ladder.peek_time()
                } else {
                    heap.peek().map(|s| s.at)
                }
            }
        }
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        match &self.backend {
            Backend::Heap(h) => h.len(),
            Backend::Adaptive {
                heap,
                ladder,
                promoted,
            } => {
                if *promoted {
                    ladder.len()
                } else {
                    heap.len()
                }
            }
        }
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events without changing "now".
    pub fn clear(&mut self) {
        match &mut self.backend {
            Backend::Heap(h) => h.clear(),
            Backend::Adaptive { heap, ladder, .. } => {
                heap.clear();
                ladder.clear();
            }
        }
    }

    /// Empties the queue and rewinds it to a fresh state ("now" back to
    /// [`SimTime::ZERO`], sequence counter reset) while keeping the
    /// backend's allocated storage — lets repeated-simulation loops pool
    /// a queue across runs (see `jockey-cluster`'s `SimWorkspace`). An
    /// adaptive queue demotes back to the heap so the next run re-probes
    /// its own regime.
    pub fn reset(&mut self) {
        self.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
        match &mut self.backend {
            Backend::Heap(_) => {}
            Backend::Adaptive {
                ladder, promoted, ..
            } => {
                ladder.cursor_ms = 0;
                ladder.window_end_ms = NUM_BUCKETS as u64 * BUCKET_WIDTH_MS;
                *promoted = false;
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    /// An adaptive queue already promoted to the ladder, so the ladder
    /// is exercised at low occupancy (the threshold would otherwise
    /// keep every small test on the heap).
    fn ladder<E>() -> EventQueue<E> {
        EventQueue {
            backend: Backend::Adaptive {
                heap: QuadHeap::new(),
                ladder: BucketLadder::new(),
                promoted: true,
            },
            next_seq: 0,
            now: SimTime::ZERO,
        }
    }

    fn both() -> [EventQueue<i32>; 3] {
        [
            ladder(),
            EventQueue::with_backend(QueueBackend::BinaryHeap),
            EventQueue::with_backend(QueueBackend::Adaptive),
        ]
    }

    #[test]
    fn pops_in_time_order() {
        for mut q in both() {
            q.schedule(SimTime::from_secs(5), 5);
            q.schedule(SimTime::from_secs(1), 1);
            q.schedule(SimTime::from_secs(3), 3);
            let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, vec![1, 3, 5]);
        }
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        for mut q in both() {
            let t = SimTime::from_secs(7);
            for i in 0..100 {
                q.schedule(t, i);
            }
            let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
            assert_eq!(order, (0..100).collect::<Vec<_>>());
        }
    }

    #[test]
    fn now_tracks_last_pop() {
        for mut q in both() {
            q.schedule(SimTime::from_secs(2), 0);
            assert_eq!(q.now(), SimTime::ZERO);
            q.pop();
            assert_eq!(q.now(), SimTime::from_secs(2));
        }
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn scheduling_into_the_past_panics() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(9), ());
    }

    #[test]
    #[should_panic(expected = "before current time")]
    fn heap_backend_rejects_past_too() {
        let mut q = EventQueue::with_backend(QueueBackend::BinaryHeap);
        q.schedule(SimTime::from_secs(10), ());
        q.pop();
        q.schedule(SimTime::from_secs(9), ());
    }

    #[test]
    fn scheduling_at_now_is_allowed() {
        for mut q in both() {
            q.schedule(SimTime::from_secs(4), 0);
            q.pop();
            q.schedule(q.now(), 1);
            assert_eq!(q.pop(), Some((SimTime::from_secs(4), 1)));
        }
    }

    #[test]
    fn peek_and_len() {
        for mut q in both() {
            assert!(q.is_empty());
            assert_eq!(q.peek_time(), None);
            q.schedule(SimTime::from_secs(1) + SimDuration::from_millis(5), 0);
            assert_eq!(q.len(), 1);
            assert_eq!(q.peek_time(), Some(SimTime::from_millis(1_005)));
        }
    }

    #[test]
    fn peek_does_not_disturb_order() {
        // A peek past empty buckets must not advance the cursor: events
        // scheduled afterwards at earlier times still pop first.
        let mut q = ladder();
        q.schedule(SimTime::from_secs(50), 50);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(50)));
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(50), 50)));
    }

    #[test]
    fn far_future_events_take_the_overflow_path() {
        let mut q = ladder();
        // Beyond the initial window (~262 s), into overflow.
        q.schedule(SimTime::from_mins(60), 1);
        q.schedule(SimTime::from_mins(90), 2);
        q.schedule(SimTime::from_secs(1), 0);
        assert_eq!(q.len(), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![0, 1, 2]);
    }

    #[test]
    fn overflow_jump_then_near_schedule_stays_ordered() {
        let mut q = ladder();
        q.schedule(SimTime::from_mins(60), 1);
        // Pop jumps the window out to t=60min.
        assert_eq!(q.pop(), Some((SimTime::from_mins(60), 1)));
        // New events near the jumped-to time interleave correctly with
        // further far-future ones.
        q.schedule(SimTime::from_mins(60) + SimDuration::from_millis(1), 2);
        q.schedule(SimTime::from_mins(600), 4);
        q.schedule(SimTime::from_mins(61), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![2, 3, 4]);
    }

    #[test]
    fn interleaved_hold_model_matches_reference() {
        // A deterministic hold-model run (pop one, schedule one ahead)
        // must produce identical streams on the ladder and the heap.
        let mut promoted = ladder();
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut x: u64 = 0x9E37_79B9;
        for i in 0..64 {
            let t = SimTime::from_millis((i * 37) % 1_000);
            promoted.schedule(t, i);
            heap.schedule(t, i);
        }
        for i in 64..4_096 {
            let (ta, a) = promoted.pop().unwrap();
            let (tb, b) = heap.pop().unwrap();
            assert_eq!((ta, a), (tb, b));
            // Pseudo-random hold time, occasionally zero (tie) or huge
            // (overflow path).
            x = x
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            let hold = match x % 7 {
                0 => 0,
                1 => x % 300_000, // up to 5 sim-minutes: beyond the window
                _ => x % 20_000,
            };
            let t = ta + SimDuration::from_millis(hold);
            promoted.schedule(t, i);
            heap.schedule(t, i);
        }
        while let Some(a) = promoted.pop() {
            assert_eq!(Some(a), heap.pop());
        }
        assert!(heap.pop().is_none());
    }

    #[test]
    fn adaptive_matches_reference_across_promotion() {
        // The same hold model as above, run with a depth that crosses
        // the promotion threshold mid-stream: the adaptive queue must
        // emit the identical (time, payload) stream as the heap
        // reference before, during and after promotion.
        let mut adaptive = EventQueue::with_backend(QueueBackend::Adaptive);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        let mut x: u64 = 0x1234_5678;
        // Start below the threshold...
        for i in 0..32i64 {
            let t = SimTime::from_millis((i as u64 * 53) % 2_000);
            adaptive.schedule(t, i);
            heap.schedule(t, i);
        }
        assert!(!adaptive.is_promoted());
        // ...then grow the pending set well past it while popping: each
        // round pops one and schedules one, plus a second while i < 600
        // so the depth ramps from 32 to ~600 (crossing the threshold)
        // and then holds.
        for i in 32..4_096i64 {
            let a = adaptive.pop();
            let b = heap.pop();
            assert_eq!(a, b);
            assert!(a.is_some());
            let now = adaptive.now();
            let mut hold = |tag: i64| {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                let h = match x % 7 {
                    0 => 0,
                    1 => x % 300_000,
                    _ => x % 20_000,
                };
                (now + SimDuration::from_millis(h), tag)
            };
            let (t, e) = hold(i);
            adaptive.schedule(t, e);
            heap.schedule(t, e);
            if i < 600 {
                let (t, e) = hold(10_000 + i);
                adaptive.schedule(t, e);
                heap.schedule(t, e);
            }
        }
        assert!(adaptive.is_promoted(), "depth 600 must trigger promotion");
        while let Some(a) = adaptive.pop() {
            assert_eq!(Some(a), heap.pop());
        }
        assert!(heap.pop().is_none());
    }

    #[test]
    fn adaptive_promotes_at_threshold_and_reset_demotes() {
        let mut q = EventQueue::with_backend(QueueBackend::Adaptive);
        for i in 0..EventQueue::<usize>::ADAPTIVE_PROMOTE_LEN - 1 {
            q.schedule(SimTime::from_millis(i as u64), i);
        }
        assert!(!q.is_promoted());
        q.schedule(SimTime::from_secs(99), usize::MAX);
        assert!(q.is_promoted());
        // Promotion sticks for the rest of the run even as it drains...
        let n = q.len();
        for i in 0..n {
            let (_, _e) = q.pop().expect("still full");
            if i + 1 < n {
                assert!(q.is_promoted());
            }
        }
        // ...and reset demotes back to the heap.
        q.reset();
        assert!(!q.is_promoted());
        q.schedule(SimTime::from_secs(1), 7);
        assert_eq!(q.pop(), Some((SimTime::from_secs(1), 7)));
    }

    #[test]
    fn pop_at_drains_only_the_given_instant() {
        for mut q in both() {
            let t = SimTime::from_secs(3);
            q.schedule(t, 1);
            q.schedule(t, 2);
            q.schedule(SimTime::from_secs(4), 3);
            assert_eq!(q.pop(), Some((t, 1)));
            assert_eq!(q.pop_at(t), Some(2));
            // Next event is later: pop_at must leave it alone.
            assert_eq!(q.pop_at(t), None);
            assert_eq!(q.len(), 1);
            assert_eq!(q.pop(), Some((SimTime::from_secs(4), 3)));
            assert_eq!(q.pop_at(SimTime::from_secs(9)), None);
        }
    }

    #[test]
    fn reset_reuses_storage_and_rewinds() {
        for mut q in both() {
            q.schedule(SimTime::from_secs(5), 1);
            q.schedule(SimTime::from_mins(99), 2);
            q.pop();
            q.reset();
            assert!(q.is_empty());
            assert_eq!(q.now(), SimTime::ZERO);
            // Sequence restarts: FIFO ties behave like a fresh queue.
            q.schedule(SimTime::from_secs(1), 7);
            q.schedule(SimTime::from_secs(1), 8);
            assert_eq!(q.pop(), Some((SimTime::from_secs(1), 7)));
            assert_eq!(q.pop(), Some((SimTime::from_secs(1), 8)));
        }
    }
}
