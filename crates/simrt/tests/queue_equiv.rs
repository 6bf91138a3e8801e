//! Property proof that [`EventQueue`] (a 4-ary heap) is observationally
//! identical to a plain `(time, seq)` reference heap.
//!
//! Every simulator in this workspace depends on the queue's exact
//! `(time, payload)` stream — same-instant events must pop in schedule
//! order — so the queue is exercised here against the reference on
//! randomized interleavings of schedules and pops, including heavy
//! ties, far-future events, scheduling-at-now edge cases and deep
//! queues. A queue pair can be preloaded with far-future sentinels so
//! the program runs on a heap that already has several levels.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use jockey_simrt::event::EventQueue;
use jockey_simrt::time::{SimDuration, SimTime};
use proptest::prelude::*;

/// The test oracle: a `(time, seq)` min-heap on
/// `std::collections::BinaryHeap`. The sequence number is unique, so
/// the payload never takes part in the order.
#[derive(Default)]
struct Reference {
    heap: BinaryHeap<Reverse<(SimTime, u64, u32)>>,
    next_seq: u64,
    now: SimTime,
}

impl Reference {
    fn schedule(&mut self, at: SimTime, event: u32) {
        assert!(at >= self.now, "reference: scheduled into the past");
        self.heap.push(Reverse((at, self.next_seq, event)));
        self.next_seq += 1;
    }

    fn pop(&mut self) -> Option<(SimTime, u32)> {
        let Reverse((at, _, event)) = self.heap.pop()?;
        self.now = at;
        Some((at, event))
    }

    fn peek_time(&self) -> Option<SimTime> {
        self.heap.peek().map(|Reverse((at, _, _))| *at)
    }
}

/// One step of an interleaved workload. Schedule offsets are relative
/// to the queue's current "now" so generated programs never violate the
/// no-scheduling-into-the-past contract.
#[derive(Clone, Debug)]
enum Op {
    /// Schedule an event `offset_ms` after the last popped time.
    Schedule { offset_ms: u64 },
    /// Pop the next event (a no-op on an empty queue).
    Pop,
}

/// Far beyond any time a generated program reaches.
const SENTINEL_AT: SimTime = SimTime::from_millis(1 << 50);

/// A (queue, reference) pair preloaded with `sentinels` identical
/// far-future events.
fn pair(sentinels: usize) -> (EventQueue<u32>, Reference) {
    let mut queue = EventQueue::new();
    let mut reference = Reference::default();
    for i in 0..sentinels {
        let id = u32::MAX - i as u32;
        queue.schedule(SENTINEL_AT, id);
        reference.schedule(SENTINEL_AT, id);
    }
    (queue, reference)
}

/// The starting points every program runs from: a fresh queue, and
/// heaps already holding 3, 20, 127 and 1024 sentinels (two, three,
/// five and six levels, so sift-downs cross several depths and break
/// many same-time ties by sequence). Simulations reach 1024 pending
/// events: the deepest full-scale training run holds about 1000.
const SENTINEL_COUNTS: [usize; 5] = [0, 3, 20, 127, 1024];

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted mix decoded from a selector: mostly short offsets, some
    // zero (same-instant ties), a few far-future ones, and pops.
    (0_u8..9, 0_u64..5_000, 300_000_u64..3_000_000).prop_map(|(sel, short, far)| match sel {
        0..=3 => Op::Schedule { offset_ms: short },
        4 => Op::Schedule { offset_ms: 0 },
        5 => Op::Schedule { offset_ms: far },
        _ => Op::Pop,
    })
}

proptest! {
    /// Interleaved schedule/pop programs produce identical
    /// `(time, payload)` streams on the queue and the reference from
    /// every starting depth, and draining the remainder at the end
    /// agrees too.
    #[test]
    fn queue_matches_reference_on_interleaved_programs(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        for sentinels in SENTINEL_COUNTS {
            let (mut queue, mut reference) = pair(sentinels);
            let mut next_id: u32 = 0;
            for op in &ops {
                match *op {
                    Op::Schedule { offset_ms } => {
                        let at = queue.now() + SimDuration::from_millis(offset_ms);
                        queue.schedule(at, next_id);
                        reference.schedule(at, next_id);
                        next_id += 1;
                    }
                    Op::Pop => prop_assert_eq!(queue.pop(), reference.pop()),
                }
                prop_assert_eq!(queue.len(), reference.heap.len());
                prop_assert_eq!(queue.peek_time(), reference.peek_time());
                prop_assert_eq!(queue.now(), reference.now);
            }
            // Drain whatever is left: the tails must agree
            // element-for-element.
            loop {
                let a = queue.pop();
                prop_assert_eq!(a, reference.pop());
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// A hold model (schedule one, pop one) that keeps up to ~1100
    /// events with interleaved times pending matches the reference at
    /// every pop and through the final drain.
    #[test]
    fn deep_hold_programs_match_reference(
        depth in 150_usize..1_100,
        offsets in proptest::collection::vec(0_u64..30_000, 1_200..1_500),
    ) {
        let (mut queue, mut reference) = pair(0);
        for (i, &off) in offsets.iter().enumerate() {
            let at = queue.now() + SimDuration::from_millis(off);
            queue.schedule(at, i as u32);
            reference.schedule(at, i as u32);
            if i >= depth {
                prop_assert_eq!(queue.pop(), reference.pop());
            }
        }
        loop {
            let a = queue.pop();
            prop_assert_eq!(a, reference.pop());
            if a.is_none() {
                break;
            }
        }
    }

    /// Bursts of same-instant events pop FIFO on a deep queue.
    #[test]
    fn same_instant_bursts_pop_fifo(
        burst_sizes in proptest::collection::vec(1_usize..20, 1..20),
        gap_ms in 0_u64..2_000,
    ) {
        let (mut q, mut reference) = pair(127);
        let mut id: u32 = 0;
        let mut t = SimTime::ZERO;
        for &n in &burst_sizes {
            for _ in 0..n {
                q.schedule(t, id);
                reference.schedule(t, id);
                id += 1;
            }
            t += SimDuration::from_millis(gap_ms);
        }
        let mut popped = 0_usize;
        // The sentinels pop after every burst event.
        while let Some((at, e)) = q.pop().filter(|&(at, _)| at < SENTINEL_AT) {
            prop_assert_eq!(Some((at, e)), reference.pop());
            // FIFO across the whole program: ids were assigned in
            // nondecreasing time order, so the stream is exactly 0..id.
            prop_assert_eq!(e, popped as u32);
            popped += 1;
        }
        prop_assert_eq!(popped, id as usize);
    }

    /// The queue rejects scheduling before the last popped time, and
    /// accepts scheduling exactly at it.
    #[test]
    fn past_rejection(
        first_ms in 1_u64..1_000_000,
        behind_ms in 1_u64..1_000,
    ) {
        let mut q = EventQueue::new();
        q.schedule(SimTime::from_millis(first_ms), 0_u8);
        q.pop();
        // Exactly at now: allowed.
        q.schedule(q.now(), 1);
        prop_assert_eq!(q.pop(), Some((SimTime::from_millis(first_ms), 1)));
        // Strictly before now: rejected by panic.
        let at = SimTime::from_millis(first_ms.saturating_sub(behind_ms));
        let result = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            q.schedule(at, 2);
        }));
        prop_assert!(result.is_err(), "the queue accepted a past event");
    }
}
