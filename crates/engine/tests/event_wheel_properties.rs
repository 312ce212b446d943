//! Property tests: the event wheel pops in exactly the order a
//! `BinaryHeap<Reverse<(time, seq, ev)>>` oracle would.
//!
//! The stream generator respects the wheel's contract (pushes after a pop
//! are at or after that pop's time — the engine always pushes at its
//! current clock or later) while stressing every structural case:
//! same-timestamp ties, bucket boundary times, slot collisions across
//! windows, and far-future overflow entries that must drain back into the
//! buckets as the window advances. A third property checks the bucket node
//! slab: popped nodes are reused, across window jumps too, so the slab
//! never holds more nodes than the wheel ever held events.

use dasr_engine::wheel::EventWheel;
use proptest::prelude::*;
use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Time deltas covering ties, the near window, its boundary, and far
/// overflow (the window spans 4096 µs).
fn arb_delta() -> impl Strategy<Value = u64> {
    prop_oneof![
        0u64..8,                            // ties and immediate follow-ups
        8u64..4_095,                        // inside the near window
        4_090u64..4_100,                    // straddling the window boundary
        4_096u64..50_000,                   // just past the window
        50_000u64..5_000_000,               // far future
        (0u64..70).prop_map(|k| k * 4_096), // exact slot collisions
    ]
}

/// One batch: some pushes (at clock + delta) followed by a drain up to
/// `clock + horizon`.
fn arb_batches() -> impl Strategy<Value = Vec<(Vec<u64>, u64)>> {
    prop::collection::vec(
        (prop::collection::vec(arb_delta(), 0..12), arb_delta()),
        1..40,
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Interleaved pushes and horizon-limited drains pop identically to
    /// the heap oracle, and both structures agree on the residue.
    #[test]
    fn wheel_matches_binary_heap_oracle(batches in arb_batches()) {
        let mut wheel = EventWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u8)>> = BinaryHeap::new();
        let mut seq = 0u64;
        // The engine's clock: pushes never go below the last popped time.
        let mut clock = 0u64;
        for (deltas, horizon_delta) in batches {
            for d in deltas {
                seq += 1;
                let t = clock + d;
                wheel.push(t, seq, 0u8);
                heap.push(Reverse((t, seq, 0u8)));
            }
            let horizon = clock + horizon_delta;
            loop {
                let got = wheel.pop_due(horizon);
                let want = match heap.peek() {
                    Some(&Reverse((t, s, e))) if t <= horizon => {
                        heap.pop();
                        Some((t, s, e))
                    }
                    _ => None,
                };
                prop_assert_eq!(got, want, "divergence at horizon {}", horizon);
                match got {
                    Some((t, _, _)) => clock = clock.max(t),
                    None => break,
                }
            }
            prop_assert_eq!(wheel.len(), heap.len(), "residue size differs");
        }
        // Drain the residue with an unbounded horizon: total order must
        // match to the last event.
        loop {
            let got = wheel.pop_due(u64::MAX);
            let want = heap.pop().map(|Reverse(x)| x);
            prop_assert_eq!(got, want, "divergence in final drain");
            if got.is_none() {
                break;
            }
        }
        prop_assert!(wheel.is_empty());
    }

    /// Pure ties: many events at the same timestamp pop in push (seq)
    /// order even when they arrive via the overflow heap.
    #[test]
    fn same_timestamp_ties_pop_in_seq_order(
        far in any::<bool>(),
        n in 2usize..40,
    ) {
        let mut wheel = EventWheel::new();
        let t = if far { 1_000_000 } else { 100 };
        for seq in 0..n as u64 {
            wheel.push(t, seq, 0u8);
        }
        for seq in 0..n as u64 {
            prop_assert_eq!(wheel.pop_due(u64::MAX), Some((t, seq, 0u8)));
        }
        prop_assert!(wheel.is_empty());
    }

    /// Node-slab reuse across window jumps: however far the window jumps
    /// (far-future deltas make it leap past empty stretches), the slab
    /// never grows past the peak number of queued events, pops still match
    /// the heap oracle, and once the wheel is empty every node can be
    /// handed out again without growing the slab.
    #[test]
    fn node_slab_is_reused_across_window_jumps(batches in arb_batches()) {
        let mut wheel = EventWheel::new();
        let mut heap: BinaryHeap<Reverse<(u64, u64, u8)>> = BinaryHeap::new();
        let mut seq = 0u64;
        let mut clock = 0u64;
        let mut peak = 0usize;
        for (deltas, horizon_delta) in batches {
            for d in deltas {
                seq += 1;
                wheel.push(clock + d, seq, 0u8);
                heap.push(Reverse((clock + d, seq, 0u8)));
                peak = peak.max(wheel.len());
            }
            let horizon = clock + horizon_delta;
            while let Some(got) = wheel.pop_due(horizon) {
                prop_assert_eq!(Some(got), heap.pop().map(|Reverse(x)| x));
                clock = got.0;
            }
            prop_assert!(
                wheel.slab_nodes() <= peak,
                "slab holds {} nodes, but at most {} events were ever queued",
                wheel.slab_nodes(),
                peak
            );
        }
        while let Some(got) = wheel.pop_due(u64::MAX) {
            prop_assert_eq!(Some(got), heap.pop().map(|Reverse(x)| x));
            clock = got.0;
        }
        prop_assert!(heap.is_empty());
        // Every node is free now: refilling one bucket with as many events
        // as the slab holds must reuse all of them.
        let nodes = wheel.slab_nodes();
        for _ in 0..nodes {
            seq += 1;
            wheel.push(clock, seq, 0u8);
        }
        prop_assert_eq!(wheel.slab_nodes(), nodes, "freed nodes were not reused");
        for _ in 0..nodes {
            prop_assert!(wheel.pop_due(clock).is_some());
        }
        prop_assert!(wheel.is_empty());
    }
}
