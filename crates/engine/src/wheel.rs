//! Hierarchical bucketed event wheel — the engine's fast event queue.
//!
//! The simulation's event queue was a `BinaryHeap<Reverse<(SimTime, u64,
//! Ev)>>`: every push and pop pays `O(log n)` comparisons on a 24-byte
//! tuple, and the heap's access pattern is cache-hostile. Discrete-event
//! timestamps, however, are *almost sorted*: most events (governor ready
//! callbacks, CPU-burst and I/O completions) land within a few milliseconds
//! of the clock. [`EventWheel`] exploits that, the classic timer-wheel
//! design used by OS timer subsystems:
//!
//! - **Near events** (`time < base + SPAN`, with `SPAN` = 4096 µs) go into
//!   one of `SPAN` µs-granularity buckets (`slot = time % SPAN`). A bucket
//!   holds events of exactly one timestamp at a time, in push order — which
//!   is sequence order, so FIFO pop preserves the `(time, seq)` total
//!   order. An occupancy bitmap (64 words) finds the next non-empty bucket
//!   with a handful of `trailing_zeros` scans.
//! - **Buckets are intrusive FIFO lists over one node slab.** Each bucket
//!   is a `head`/`tail` pair of node indices; a node carries its event and
//!   the index of the next node in its bucket. Popped nodes go onto a free
//!   list threaded through the same `next` field, so a whole engine's
//!   buckets share one allocation that stops growing once it reaches the
//!   peak number of near events, instead of one heap buffer per bucket.
//! - **Far events** overflow into a small `BinaryHeap` ordered by
//!   `(time, seq)`. Whenever the window advances (`base` moves up to the
//!   time of the event just popped, or to the overflow minimum when the
//!   buckets are empty), due overflow entries drain into buckets — in heap
//!   order, so same-timestamp ties drain in sequence order.
//!
//! The pop order is **exactly** the heap's `(time, seq)` order; the
//! property test in `tests/event_wheel_properties.rs` checks this against a
//! `BinaryHeap` oracle over randomized streams including ties and
//! far-future times.
//!
//! ## Window invariants
//!
//! 1. Every bucketed event has `base <= time < base + SPAN`; the slot↔time
//!    mapping is a bijection within the window, so a bucket never mixes
//!    timestamps.
//! 2. Every overflow event has `time >= base + SPAN` (maintained by
//!    draining on every rebase), so bucketed events always precede
//!    overflow events.
//! 3. `base` only advances to timestamps that have already been reached by
//!    the popped-event clock, so a later push (which the engine issues at
//!    its current clock or after) is never below `base`.
//! 4. Every node is either linked into exactly one bucket or on the free
//!    list, never both.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

/// Width of the near window, in microseconds (= number of buckets).
const SPAN: usize = 4096;
/// Occupancy bitmap words (`SPAN / 64`).
const WORDS: usize = SPAN / 64;
/// End-of-list marker for bucket and free-list links.
const NIL: u32 = u32::MAX;

/// Mutation count below which `strict-invariants` checks run every time
/// (unit tests); past it they sample every [`CHECK_EVERY`]th mutation so
/// the O(`SPAN`) scan amortizes to ~O(1) in long simulations.
#[cfg(feature = "strict-invariants")]
const CHECK_ALWAYS: u64 = 64;
#[cfg(feature = "strict-invariants")]
const CHECK_EVERY: u64 = 1024;

/// One slab node: a bucketed event plus the link to the next node of its
/// bucket (or of the free list, while the node is free).
#[derive(Debug, Clone, Copy)]
struct Node<E> {
    time: u64,
    seq: u64,
    ev: E,
    next: u32,
}

/// A monotone event queue ordered by `(time, seq)`.
///
/// `seq` values must strictly increase from push to push (the engine's
/// global event counter); times pushed after a pop must be `>=` that pop's
/// time.
#[derive(Debug)]
pub struct EventWheel<E> {
    /// Window start: no event below this time remains in the wheel.
    base: u64,
    /// Node slab shared by every bucket; grows only past its high-water
    /// mark of simultaneously bucketed events.
    nodes: Vec<Node<E>>,
    /// Head of the free-node list (`NIL` when empty).
    free: u32,
    /// First node of each bucket, `slot = time % SPAN` (`NIL` = empty).
    head: [u32; SPAN],
    /// Last node of each bucket, where pushes append.
    tail: [u32; SPAN],
    /// One bit per bucket: set iff the bucket is non-empty.
    occupied: [u64; WORDS],
    /// Events currently held in buckets.
    bucket_len: usize,
    /// Far-future events (`time >= base + SPAN`), min-ordered.
    overflow: BinaryHeap<Reverse<(u64, u64, E)>>,
    #[cfg(feature = "strict-invariants")]
    check_tick: u64,
    /// Reused node marks for the free-list disjointness check.
    #[cfg(feature = "strict-invariants")]
    check_scratch: Vec<bool>,
}

impl<E: Copy + Ord> EventWheel<E> {
    /// Creates an empty wheel with its window starting at time 0.
    pub fn new() -> Self {
        Self {
            base: 0,
            nodes: Vec::new(),
            free: NIL,
            head: [NIL; SPAN],
            tail: [NIL; SPAN],
            occupied: [0; WORDS],
            bucket_len: 0,
            overflow: BinaryHeap::new(),
            #[cfg(feature = "strict-invariants")]
            check_tick: 0,
            #[cfg(feature = "strict-invariants")]
            check_scratch: Vec::new(),
        }
    }

    /// Total queued events.
    pub fn len(&self) -> usize {
        self.bucket_len + self.overflow.len()
    }

    /// True when no events are queued.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Nodes in the bucket slab, live and free: the high-water mark of
    /// simultaneously bucketed events. Popped nodes are reused, so this
    /// stays bounded however many events pass through the wheel.
    pub fn slab_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Queues `ev` at `(time, seq)`.
    ///
    /// `time` must be `>=` the time of the most recent pop (debug-asserted
    /// via the window base).
    // dasr-lint: no-alloc
    pub fn push(&mut self, time: u64, seq: u64, ev: E) {
        debug_assert!(time >= self.base, "push below the wheel window");
        if time < self.base + SPAN as u64 {
            self.link(time, seq, ev);
        } else {
            self.overflow.push(Reverse((time, seq, ev)));
        }
        self.debug_check();
    }

    /// Pops the `(time, seq)`-minimal event if its time is `<= t`;
    /// `None` when the wheel is empty or the next event is after `t`.
    // dasr-lint: no-alloc
    pub fn pop_due(&mut self, t: u64) -> Option<(u64, u64, E)> {
        self.pop_through(t, u64::MAX)
    }

    /// Pops the `(time, seq)`-minimal event if its key is `<= (t, seq)`
    /// lexicographically; `None` when the wheel is empty or the next event
    /// is later. The engine bounds pops by the next pending arrival this
    /// way: an event at the arrival's µs runs first only if it was queued
    /// before the arrival was submitted.
    // dasr-lint: no-alloc
    pub fn pop_through(&mut self, t: u64, seq: u64) -> Option<(u64, u64, E)> {
        if self.bucket_len == 0 {
            let &Reverse((ot, os, _)) = self.overflow.peek()?;
            if (ot, os) > (t, seq) {
                return None;
            }
            // Jump the window to the overflow minimum; the drain below
            // refills the buckets, so the scan always finds this event.
            self.rebase(ot);
        }
        let slot = self
            .first_occupied()
            // dasr-lint: allow(G3) reason="wheel invariant: non-zero bucket_len implies an occupied slot; the expect restates it"
            .expect("non-zero bucket_len implies an occupied slot");
        let n = self.head[slot];
        let node = self.nodes[n as usize];
        if (node.time, node.seq) > (t, seq) {
            return None;
        }
        self.head[slot] = node.next;
        if node.next == NIL {
            self.tail[slot] = NIL;
            self.occupied[slot / 64] &= !(1 << (slot % 64));
        }
        self.nodes[n as usize].next = self.free;
        self.free = n;
        self.bucket_len -= 1;
        if node.time > self.base {
            self.rebase(node.time);
        }
        self.debug_check();
        Some((node.time, node.seq, node.ev))
    }

    /// Appends `(time, seq, ev)` to its bucket, reusing a free node when
    /// one exists. `time` must lie inside the window.
    // dasr-lint: no-alloc
    fn link(&mut self, time: u64, seq: u64, ev: E) {
        let slot = (time % SPAN as u64) as usize;
        let node = Node {
            time,
            seq,
            ev,
            next: NIL,
        };
        let n = if self.free == NIL {
            debug_assert!(self.nodes.len() < NIL as usize, "node slab overflow");
            self.nodes.push(node);
            (self.nodes.len() - 1) as u32
        } else {
            let n = self.free;
            // dasr-lint: allow(G3) reason="free-list invariant: every link on the free list is a slab index (checked by strict-invariants)"
            self.free = self.nodes[n as usize].next;
            self.nodes[n as usize] = node;
            n
        };
        let last = self.tail[slot];
        if last == NIL {
            self.head[slot] = n;
            self.occupied[slot / 64] |= 1 << (slot % 64);
        } else {
            self.nodes[last as usize].next = n;
        }
        self.tail[slot] = n;
        self.bucket_len += 1;
    }

    /// Advances the window start to `new_base` and drains newly-due
    /// overflow events into their buckets (in heap order, preserving seq
    /// order for equal timestamps).
    // dasr-lint: no-alloc
    fn rebase(&mut self, new_base: u64) {
        debug_assert!(new_base >= self.base);
        self.base = new_base;
        let limit = new_base + SPAN as u64;
        while let Some(&Reverse((time, _, _))) = self.overflow.peek() {
            if time >= limit {
                break;
            }
            // dasr-lint: allow(G3) reason="pop follows a successful peek on the same heap in the same iteration"
            let Reverse((time, seq, ev)) = self.overflow.pop().expect("peeked");
            self.link(time, seq, ev);
        }
    }

    /// First occupied slot in circular order from `base % SPAN` — the
    /// bucket holding the earliest timestamp (window times map to slots
    /// monotonically along that circular order).
    // dasr-lint: no-alloc
    fn first_occupied(&self) -> Option<usize> {
        let start = (self.base % SPAN as u64) as usize;
        let sw = start / 64;
        let sb = start % 64;
        // dasr-lint: allow(G3) reason="sw = start/64 with start < SPAN, inside the fixed occupancy bitmap"
        let head = self.occupied[sw] & (u64::MAX << sb);
        if head != 0 {
            return Some(sw * 64 + head.trailing_zeros() as usize);
        }
        for i in 1..=WORDS {
            let idx = (sw + i) % WORDS;
            let mut word = self.occupied[idx];
            if idx == sw {
                // Wrapped all the way around: only bits below the start.
                word &= !(u64::MAX << sb);
            }
            if word != 0 {
                return Some(idx * 64 + word.trailing_zeros() as usize);
            }
        }
        None
    }

    /// Structural self-check (`strict-invariants` builds only): the window
    /// invariants from the module docs, bitmap/bucket agreement, and the
    /// slab's bookkeeping — the nodes reachable from the buckets number
    /// `bucket_len`, each bucket holds one in-window timestamp in seq
    /// order, and the free list is disjoint from the live nodes and
    /// accounts for every other node. A violation here means `pop_due`
    /// could skip or misorder an event, or a node could be handed out
    /// twice. Sampled past the first [`CHECK_ALWAYS`] mutations to keep
    /// large simulations tractable.
    fn debug_check(&mut self) {
        #[cfg(feature = "strict-invariants")]
        {
            self.check_tick += 1;
            if self.check_tick > CHECK_ALWAYS && !self.check_tick.is_multiple_of(CHECK_EVERY) {
                return;
            }
            let limit = self.base + SPAN as u64;
            let mut marks = std::mem::take(&mut self.check_scratch);
            marks.clear();
            marks.resize(self.nodes.len(), false);
            let mut total = 0;
            for slot in 0..SPAN {
                // dasr-lint: allow(G3) reason="strict-invariants self-check: slot enumerates the fixed bucket array; failure is a deliberate abort"
                let bit = (self.occupied[slot / 64] >> (slot % 64)) & 1 == 1;
                debug_assert_eq!(
                    bit,
                    self.head[slot] != NIL,
                    "occupancy bit for slot {slot} disagrees with its bucket"
                );
                debug_assert_eq!(
                    self.head[slot] == NIL,
                    self.tail[slot] == NIL,
                    "bucket {slot} has a head without a tail or vice versa"
                );
                let mut n = self.head[slot];
                let mut last = NIL;
                let mut first: Option<(u64, u64)> = None;
                while n != NIL {
                    debug_assert!(
                        (n as usize) < marks.len() && !marks[n as usize],
                        "bucket {slot} links node {n} twice or out of the slab"
                    );
                    marks[n as usize] = true;
                    let node = self.nodes[n as usize];
                    debug_assert!(
                        self.base <= node.time && node.time < limit,
                        "bucketed time {} outside window [{}, {limit})",
                        node.time,
                        self.base
                    );
                    debug_assert_eq!(
                        (node.time % SPAN as u64) as usize,
                        slot,
                        "time {} filed in the wrong bucket",
                        node.time
                    );
                    if let Some((t0, prev_seq)) = first {
                        debug_assert_eq!(node.time, t0, "bucket {slot} mixes timestamps");
                        debug_assert!(node.seq > prev_seq, "bucket {slot} out of seq order");
                    }
                    first = Some((node.time, node.seq));
                    total += 1;
                    last = n;
                    n = node.next;
                }
                debug_assert_eq!(
                    self.tail[slot], last,
                    "tail of bucket {slot} is not its last node"
                );
            }
            debug_assert_eq!(
                total, self.bucket_len,
                "bucket_len must match the nodes linked into buckets"
            );
            let mut free = 0;
            let mut n = self.free;
            while n != NIL {
                debug_assert!(
                    (n as usize) < marks.len() && !marks[n as usize],
                    "free list reaches live or repeated node {n}"
                );
                marks[n as usize] = true;
                free += 1;
                n = self.nodes[n as usize].next;
            }
            debug_assert_eq!(
                total + free,
                self.nodes.len(),
                "every slab node must be live or free"
            );
            self.check_scratch = marks;
            for &Reverse((time, _, _)) in self.overflow.iter() {
                debug_assert!(time >= limit, "overflow time {time} is due but not drained");
            }
        }
    }
}

impl<E: Copy + Ord> Default for EventWheel<E> {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Drains everything due by `t`, returning `(time, seq)` pairs.
    fn drain(w: &mut EventWheel<u8>, t: u64) -> Vec<(u64, u64)> {
        let mut out = Vec::new();
        while let Some((time, seq, _)) = w.pop_due(t) {
            out.push((time, seq));
        }
        out
    }

    #[test]
    fn pops_in_time_then_seq_order() {
        let mut w = EventWheel::new();
        w.push(30, 1, 0u8);
        w.push(10, 2, 0);
        w.push(10, 3, 0);
        w.push(20, 4, 0);
        assert_eq!(w.len(), 4);
        assert_eq!(drain(&mut w, 100), vec![(10, 2), (10, 3), (20, 4), (30, 1)]);
        assert!(w.is_empty());
    }

    #[test]
    fn respects_the_due_horizon() {
        let mut w = EventWheel::new();
        w.push(10, 1, 0u8);
        w.push(50, 2, 0);
        assert_eq!(w.pop_due(9), None);
        assert_eq!(w.pop_due(10), Some((10, 1, 0)));
        assert_eq!(w.pop_due(10), None, "50 is not due yet");
        assert_eq!(w.pop_due(50), Some((50, 2, 0)));
    }

    #[test]
    fn pop_through_bounds_by_seq_at_the_bound_time() {
        let mut w = EventWheel::new();
        w.push(10, 1, 0u8);
        w.push(10, 5, 0);
        w.push(2_000_000, 6, 0); // overflow, bounded the same way
        assert_eq!(w.pop_through(10, 0), None, "seq 1 is after the bound");
        assert_eq!(w.pop_through(10, 1), Some((10, 1, 0)));
        assert_eq!(w.pop_through(10, 4), None, "seq 5 is after the bound");
        assert_eq!(w.pop_through(11, 0), Some((10, 5, 0)));
        assert_eq!(w.pop_through(2_000_000, 5), None);
        assert_eq!(w.pop_through(2_000_000, 6), Some((2_000_000, 6, 0)));
    }

    #[test]
    fn far_future_events_overflow_and_return() {
        let mut w = EventWheel::new();
        w.push(5, 1, 0u8);
        w.push(1_000_000, 2, 0); // way beyond the 4096 µs window
        w.push(1_000_000, 3, 0); // same-timestamp tie in overflow
        w.push(9_000_000, 4, 0);
        assert_eq!(w.pop_due(u64::MAX), Some((5, 1, 0)));
        assert_eq!(w.pop_due(u64::MAX), Some((1_000_000, 2, 0)));
        // Push near the new window position after the jump.
        w.push(1_000_001, 5, 0);
        assert_eq!(w.pop_due(u64::MAX), Some((1_000_000, 3, 0)));
        assert_eq!(w.pop_due(u64::MAX), Some((1_000_001, 5, 0)));
        assert_eq!(w.pop_due(u64::MAX), Some((9_000_000, 4, 0)));
        assert_eq!(w.pop_due(u64::MAX), None);
    }

    #[test]
    fn interleaves_pushes_at_the_popped_clock() {
        // The engine pushes follow-up events at the clock of the event
        // just handled; the wheel must order them against queued ones.
        let mut w = EventWheel::new();
        w.push(100, 1, 0u8);
        w.push(300, 2, 0);
        assert_eq!(w.pop_due(1_000), Some((100, 1, 0)));
        w.push(200, 3, 0); // handler schedules something before 300
        w.push(100, 4, 0); // and something right now
        assert_eq!(drain(&mut w, 1_000), vec![(100, 4), (200, 3), (300, 2)]);
    }

    #[test]
    fn window_boundary_times() {
        let mut w = EventWheel::new();
        w.push(SPAN as u64 - 1, 1, 0u8); // last bucket of the window
        w.push(SPAN as u64, 2, 0); // first overflow time
        assert_eq!(w.pop_due(u64::MAX), Some((SPAN as u64 - 1, 1, 0)));
        assert_eq!(w.pop_due(u64::MAX), Some((SPAN as u64, 2, 0)));
    }

    #[test]
    fn slot_collision_across_windows_stays_ordered() {
        // `t` and `t + SPAN` share a slot; the second must wait in
        // overflow until the first is gone, never mixing into its bucket.
        let mut w = EventWheel::new();
        w.push(7, 1, 0u8);
        w.push(7 + SPAN as u64, 2, 0);
        assert_eq!(w.pop_due(u64::MAX), Some((7, 1, 0)));
        assert_eq!(w.pop_due(u64::MAX), Some((7 + SPAN as u64, 2, 0)));
    }

    #[test]
    fn popped_nodes_are_reused() {
        let mut w = EventWheel::new();
        let mut seq = 0;
        for round in 0..100u64 {
            for k in 0..8 {
                seq += 1;
                w.push(round * 10 + k, seq, 0u8);
            }
            assert_eq!(drain(&mut w, round * 10 + 7).len(), 8);
        }
        assert_eq!(w.slab_nodes(), 8, "the slab never outgrows its peak");
    }

    /// Proves the `strict-invariants` wiring is live: a stray occupancy
    /// bit must trip the structural check on the next mutation.
    #[test]
    #[cfg(feature = "strict-invariants")]
    #[should_panic(expected = "disagrees with its bucket")]
    fn strict_invariants_catch_bitmap_corruption() {
        let mut w = EventWheel::new();
        w.occupied[3] |= 1; // bit set, bucket 192 empty
        w.push(1, 1, 0u8);
    }

    /// A free list that reaches a live node would hand it out twice; the
    /// structural check must refuse it.
    #[test]
    #[cfg(feature = "strict-invariants")]
    #[should_panic(expected = "free list reaches live")]
    fn strict_invariants_catch_free_list_overlap() {
        let mut w = EventWheel::new();
        w.push(1, 1, 0u8);
        w.push(2, 2, 0);
        assert_eq!(w.pop_due(1), Some((1, 1, 0)));
        // Node 0 is free; point its link at live node 1.
        w.nodes[0].next = 1;
        w.push(3, 3, 0);
    }

    #[test]
    fn empty_wheel_behaves() {
        let mut w: EventWheel<u8> = EventWheel::new();
        assert!(w.is_empty());
        assert_eq!(w.pop_due(u64::MAX), None);
        w.push(1, 1, 0);
        assert_eq!(w.len(), 1);
    }
}
