//! Deterministic future-event list.
//!
//! [`EventQueue`] is a priority queue keyed by [`SimTime`] with FIFO
//! tie-breaking: two events scheduled for the same instant pop in the
//! order they were scheduled. This property is what makes the simulators
//! in this workspace deterministic — `std::collections::BinaryHeap` alone
//! does not guarantee any order among equal keys.
//!
//! The queue is a 4-ary min-heap ordered by `(time, sequence)`, where
//! the sequence number is assigned at schedule time. The property tests
//! in `tests/queue_equiv.rs` prove it emits exactly the `(time,
//! payload)` stream of a plain `(time, seq)` reference heap built on
//! `std::collections::BinaryHeap`, at every depth a simulation reaches.

use crate::time::SimTime;

/// A pending event: payload `E` scheduled at a time, with a sequence
/// number breaking ties FIFO.
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

/// A 4-ary min-heap on `(time, seq)`.
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
    heap: QuadHeap<E>,
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
    /// Creates an empty queue positioned at [`SimTime::ZERO`].
    pub fn new() -> Self {
        EventQueue {
            heap: QuadHeap::new(),
            next_seq: 0,
            now: SimTime::ZERO,
        }
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
        self.heap.push(Scheduled { at, seq, event });
    }

    /// Removes and returns the next event and its firing time, advancing
    /// the queue's notion of "now". Returns `None` when empty.
    pub fn pop(&mut self) -> Option<(SimTime, E)> {
        let s = self.heap.pop()?;
        debug_assert!(s.at >= self.now);
        self.now = s.at;
        Some((s.at, s.event))
    }

    /// The firing time of the next event without removing it.
    pub fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|s| s.at)
    }

    /// The time of the most recently popped event (simulation "now").
    pub fn now(&self) -> SimTime {
        self.now
    }

    /// Number of pending events.
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if no events are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drops all pending events without changing "now".
    pub fn clear(&mut self) {
        self.heap.clear();
    }

    /// Empties the queue and rewinds it to a fresh state ("now" back to
    /// [`SimTime::ZERO`], sequence counter reset) while keeping the
    /// heap's allocated storage — lets repeated-simulation loops pool a
    /// queue across runs (see `jockey-cluster`'s `SimWorkspace`).
    pub fn reset(&mut self) {
        self.clear();
        self.next_seq = 0;
        self.now = SimTime::ZERO;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::time::SimDuration;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(5), 5);
        q.schedule(SimTime::from_secs(1), 1);
        q.schedule(SimTime::from_secs(3), 3);
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec![1, 3, 5]);
    }

    #[test]
    fn simultaneous_events_pop_fifo() {
        let mut q = EventQueue::new();
        let t = SimTime::from_secs(7);
        for i in 0..100 {
            q.schedule(t, i);
        }
        let order: Vec<i32> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn now_tracks_last_pop() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(2), 0);
        assert_eq!(q.now(), SimTime::ZERO);
        q.pop();
        assert_eq!(q.now(), SimTime::from_secs(2));
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
    fn scheduling_at_now_is_allowed() {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(4), 0);
        q.pop();
        q.schedule(q.now(), 1);
        assert_eq!(q.pop(), Some((SimTime::from_secs(4), 1)));
    }

    #[test]
    fn peek_and_len() {
        let mut q = EventQueue::new();
        assert!(q.is_empty());
        assert_eq!(q.peek_time(), None);
        q.schedule(SimTime::from_secs(1) + SimDuration::from_millis(5), 0);
        assert_eq!(q.len(), 1);
        assert_eq!(q.peek_time(), Some(SimTime::from_millis(1_005)));
    }

    #[test]
    fn peek_does_not_disturb_order() {
        // Events scheduled after a peek at earlier times still pop first.
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_secs(50), 50);
        assert_eq!(q.peek_time(), Some(SimTime::from_secs(50)));
        q.schedule(SimTime::from_secs(2), 2);
        assert_eq!(q.pop(), Some((SimTime::from_secs(2), 2)));
        assert_eq!(q.pop(), Some((SimTime::from_secs(50), 50)));
    }

    #[test]
    fn reset_reuses_storage_and_rewinds() {
        let mut q = EventQueue::new();
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
