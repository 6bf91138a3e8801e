//! Property proof that the adaptive event-queue backend — on the heap,
//! on the bucket ladder, and across promotion — is observationally
//! identical to the `BinaryHeap` reference.
//!
//! Every simulator in this workspace depends on the queue's exact
//! `(time, payload)` stream — same-instant events must pop in schedule
//! order — so the adaptive backend is exercised here against the heap
//! on randomized interleavings of schedules and pops, including heavy
//! ties, far-future overflow events, scheduling-at-now edge cases, and
//! occupancy ramps crossing the promotion threshold mid-program. To
//! reach the ladder at low occupancy, a queue pair is first loaded with
//! [`EventQueue::ADAPTIVE_PROMOTE_LEN`] far-future sentinels: they sit
//! in the ladder's overflow heap past every program event, so the
//! program itself runs on sparsely filled buckets. Fewer sentinels
//! leave the adaptive queue on its 4-ary heap at a chosen depth.

use jockey_simrt::event::{EventQueue, QueueBackend};
use jockey_simrt::time::{SimDuration, SimTime};
use proptest::prelude::*;

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

/// An (adaptive, heap) pair preloaded with `sentinels` identical
/// far-future events; `ADAPTIVE_PROMOTE_LEN` of them promote the
/// adaptive queue to the ladder before the program starts.
fn pair(sentinels: usize) -> (EventQueue<u32>, EventQueue<u32>) {
    let mut adaptive = EventQueue::with_backend(QueueBackend::Adaptive);
    let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
    for i in 0..sentinels {
        let id = u32::MAX - i as u32;
        adaptive.schedule(SENTINEL_AT, id);
        heap.schedule(SENTINEL_AT, id);
    }
    (adaptive, heap)
}

/// The starting points every program runs from: a fresh adaptive queue
/// (4-ary heap first, promoting if the program grows deep enough),
/// queues whose heap already holds 3, 20 or one short of the threshold
/// sentinels (two, three and five heap levels, so sift-downs cross
/// several depths and break many same-time ties by sequence), and one
/// promoted to the ladder up front.
const SENTINEL_COUNTS: [usize; 5] = [
    0,
    3,
    20,
    EventQueue::<u32>::ADAPTIVE_PROMOTE_LEN - 1,
    EventQueue::<u32>::ADAPTIVE_PROMOTE_LEN,
];

fn op_strategy() -> impl Strategy<Value = Op> {
    // Weighted mix decoded from a selector: mostly short offsets
    // (bucket window), some zero (same-instant ties), a few far-future
    // ones (overflow path, > 262 s window), and pops.
    (0_u8..9, 0_u64..5_000, 300_000_u64..3_000_000).prop_map(|(sel, short, far)| match sel {
        0..=3 => Op::Schedule { offset_ms: short },
        4 => Op::Schedule { offset_ms: 0 },
        5 => Op::Schedule { offset_ms: far },
        _ => Op::Pop,
    })
}

proptest! {
    /// Interleaved schedule/pop programs produce identical
    /// `(time, payload)` streams on the adaptive backend (fresh,
    /// pre-loaded below the threshold, and pre-promoted) and the heap,
    /// and draining the remainder at the end agrees too.
    #[test]
    fn adaptive_matches_heap_on_interleaved_programs(
        ops in proptest::collection::vec(op_strategy(), 1..400),
    ) {
        for sentinels in SENTINEL_COUNTS {
            let (mut adaptive, mut heap) = pair(sentinels);
            prop_assert_eq!(
                adaptive.is_promoted(),
                sentinels >= EventQueue::<u32>::ADAPTIVE_PROMOTE_LEN
            );
            let mut next_id: u32 = 0;
            for op in &ops {
                match *op {
                    Op::Schedule { offset_ms } => {
                        let at = adaptive.now() + SimDuration::from_millis(offset_ms);
                        adaptive.schedule(at, next_id);
                        heap.schedule(at, next_id);
                        next_id += 1;
                    }
                    Op::Pop => prop_assert_eq!(adaptive.pop(), heap.pop()),
                }
                prop_assert_eq!(adaptive.len(), heap.len());
                prop_assert_eq!(adaptive.peek_time(), heap.peek_time());
                prop_assert_eq!(adaptive.now(), heap.now());
            }
            // Drain whatever is left: the tails must agree
            // element-for-element.
            loop {
                let a = adaptive.pop();
                prop_assert_eq!(a, heap.pop());
                if a.is_none() {
                    break;
                }
            }
        }
    }

    /// Programs deep enough to force adaptive promotion mid-stream stay
    /// identical to the heap reference through the representation
    /// switch, and the switch itself is observed.
    #[test]
    fn adaptive_promotion_preserves_the_stream(
        depth in 150_usize..400,
        offsets in proptest::collection::vec(0_u64..30_000, 600..900),
    ) {
        let mut adaptive = EventQueue::with_backend(QueueBackend::Adaptive);
        let mut heap = EventQueue::with_backend(QueueBackend::BinaryHeap);
        for (i, &off) in offsets.iter().enumerate() {
            let at = adaptive.now() + SimDuration::from_millis(off);
            let id = i as u32;
            adaptive.schedule(at, id);
            heap.schedule(at, id);
            // Hold the queue near `depth` pending events.
            if i >= depth {
                prop_assert_eq!(adaptive.pop(), heap.pop());
            }
        }
        prop_assert!(adaptive.is_promoted());
        loop {
            let a = adaptive.pop();
            let b = heap.pop();
            prop_assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    /// Bursts of same-instant events pop FIFO on the bucket ladder.
    #[test]
    fn same_instant_bursts_pop_fifo(
        burst_sizes in proptest::collection::vec(1_usize..20, 1..20),
        gap_ms in 0_u64..2_000,
    ) {
        let (mut q, mut reference) = pair(EventQueue::<u32>::ADAPTIVE_PROMOTE_LEN);
        prop_assert!(q.is_promoted());
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

    /// Both backends reject scheduling before the last popped time, and
    /// accept scheduling exactly at it.
    #[test]
    fn past_rejection_matches_on_both_backends(
        first_ms in 1_u64..1_000_000,
        behind_ms in 1_u64..1_000,
    ) {
        for backend in [QueueBackend::BinaryHeap, QueueBackend::Adaptive] {
            let mut q = EventQueue::with_backend(backend);
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
            prop_assert!(result.is_err(), "backend {backend:?} accepted a past event");
        }
    }
}
