//! Property tests: the fast-path [`Engine`] (generational slab, event
//! wheel, allocation-free dispatch) produces **bit-identical** telemetry to
//! [`OracleEngine`], the preserved pre-fast-path implementation
//! (`HashMap` request tables + `BinaryHeap` event queue).
//!
//! Every comparison is exact (`IntervalStats: PartialEq` compares `f64`
//! fields bitwise via `==`): latencies, wait totals, utilization
//! percentages, counters. Randomized request mixes run through both
//! engines at several container sizes, across multiple interval
//! boundaries, and under mid-run resizes and balloon operations.
//!
//! A second family pins the engine's streamed arrivals
//! ([`Engine::run_with_arrivals`]) to its batch path (`submit_at` every
//! arrival, then `run_until`), which the first family pins to the oracle.

use dasr_containers::ResourceVector;
use dasr_engine::oracle::OracleEngine;
use dasr_engine::request::{Op, RequestSpec};
use dasr_engine::{Engine, EngineConfig, IntervalStats, SimTime};
use proptest::prelude::*;

fn arb_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..20_000).prop_map(|us| Op::CpuBurst { us }),
        (0u64..2_000, any::<bool>()).prop_map(|(page, write)| Op::PageAccess { page, write }),
        (1u32..8_192).prop_map(|bytes| Op::LogWrite { bytes }),
        (0u32..4, any::<bool>()).prop_map(|(lock, exclusive)| Op::LockAcquire { lock, exclusive }),
        (1u32..32).prop_map(|mb| Op::MemoryGrant { mb }),
        (1u64..5_000).prop_map(|us| Op::Think { us }),
    ]
}

/// Random op sequences bent to the engine's deadlock-avoidance discipline
/// (locks in increasing id order, grants before locks) — same generator as
/// `tests/invariants.rs`.
fn arb_spec() -> impl Strategy<Value = RequestSpec> {
    arb_spec_of(arb_op())
}

/// [`arb_spec`] over an arbitrary op strategy.
fn arb_spec_of(op: impl Strategy<Value = Op>) -> impl Strategy<Value = RequestSpec> {
    prop::collection::vec(op, 1..10).prop_map(|mut ops| {
        let mut lock_ids: Vec<u32> = ops
            .iter()
            .filter_map(|op| match op {
                Op::LockAcquire { lock, .. } => Some(*lock),
                _ => None,
            })
            .collect();
        lock_ids.sort_unstable();
        lock_ids.dedup();
        let mut next = 0;
        let mut seen = std::collections::HashSet::new();
        for op in ops.iter_mut() {
            if let Op::LockAcquire { lock, .. } = op {
                while next < lock_ids.len() && seen.contains(&lock_ids[next]) {
                    next += 1;
                }
                if next < lock_ids.len() {
                    *lock = lock_ids[next];
                    seen.insert(lock_ids[next]);
                }
            }
        }
        ops.sort_by_key(|op| !matches!(op, Op::MemoryGrant { .. }));
        RequestSpec::new(ops)
    })
}

/// A handful of container shapes from tiny (memory-starved, low IOPS) to
/// large, exercising admission control, eviction, and governor throttling
/// differently.
fn arb_container() -> impl Strategy<Value = ResourceVector> {
    prop_oneof![
        (0usize..1).prop_map(|_| ResourceVector::new(0.5, 8.0, 100.0, 5.0)),
        (0usize..1).prop_map(|_| ResourceVector::new(1.0, 64.0, 200.0, 10.0)),
        (0usize..1).prop_map(|_| ResourceVector::new(2.0, 256.0, 400.0, 20.0)),
        (0usize..1).prop_map(|_| ResourceVector::new(8.0, 1_024.0, 1_600.0, 80.0)),
    ]
}

/// Asserts both engines report bit-identical interval telemetry.
fn assert_intervals_equal(fast: &mut Engine, oracle: &mut OracleEngine) -> IntervalStats {
    let a = fast.end_interval();
    let b = oracle.end_interval();
    assert_eq!(a, b, "fast engine and oracle telemetry diverged");
    a
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Random mixes at random container sizes: telemetry is bit-identical
    /// across several interval boundaries and after the full drain.
    #[test]
    fn random_mixes_are_bit_identical(
        specs in prop::collection::vec(arb_spec(), 1..50),
        container in arb_container(),
        prewarm_pages in 0u64..2_000,
    ) {
        let cfg = EngineConfig::default();
        let mut fast = Engine::new(cfg, container);
        let mut oracle = OracleEngine::new(cfg, container);
        fast.prewarm(prewarm_pages);
        oracle.prewarm(prewarm_pages);
        for (i, spec) in specs.iter().enumerate() {
            let at = SimTime::from_micros(i as u64 * 811);
            fast.submit_at(at, spec.clone());
            oracle.submit_at(at, spec.clone());
        }
        // Several interval boundaries while work is in flight…
        for ms in [7u64, 40, 250] {
            fast.run_until(SimTime::from_millis(ms));
            oracle.run_until(SimTime::from_millis(ms));
            let s = assert_intervals_equal(&mut fast, &mut oracle);
            prop_assert!(s.end == SimTime::from_millis(ms));
        }
        // …then the full drain.
        fast.run_until(SimTime::from_secs(600));
        oracle.run_until(SimTime::from_secs(600));
        let s = assert_intervals_equal(&mut fast, &mut oracle);
        prop_assert_eq!(s.outstanding, 0, "everything must drain");
        prop_assert_eq!(fast.outstanding(), oracle.outstanding());
    }

    /// Mid-run resizes (up, down, or both) leave the engines in lockstep:
    /// governor re-rating, pool eviction, and writeback accounting match.
    #[test]
    fn mid_run_resizes_stay_bit_identical(
        specs in prop::collection::vec(arb_spec(), 1..40),
        up in any::<bool>(),
        resize_ms in 1u64..200,
    ) {
        let cfg = EngineConfig::default();
        let start = ResourceVector::new(2.0, 256.0, 400.0, 20.0);
        let mut fast = Engine::new(cfg, start);
        let mut oracle = OracleEngine::new(cfg, start);
        for (i, spec) in specs.iter().enumerate() {
            let at = SimTime::from_micros(i as u64 * 499);
            fast.submit_at(at, spec.clone());
            oracle.submit_at(at, spec.clone());
        }
        let t1 = SimTime::from_millis(resize_ms);
        fast.run_until(t1);
        oracle.run_until(t1);
        let target = if up {
            ResourceVector::new(16.0, 4_096.0, 3_200.0, 160.0)
        } else {
            ResourceVector::new(0.5, 16.0, 100.0, 5.0)
        };
        fast.apply_resources(target);
        oracle.apply_resources(target);
        assert_intervals_equal(&mut fast, &mut oracle);
        // Resize back mid-flight, then drain.
        let t2 = t1 + 50_000;
        fast.run_until(t2);
        oracle.run_until(t2);
        fast.apply_resources(start);
        oracle.apply_resources(start);
        fast.run_until(SimTime::from_secs(600));
        oracle.run_until(SimTime::from_secs(600));
        let s = assert_intervals_equal(&mut fast, &mut oracle);
        prop_assert_eq!(s.outstanding, 0);
    }

    /// Ballooning (start, step, abort-or-commit) under load matches the
    /// oracle exactly, including eviction writeback counts.
    #[test]
    fn balloon_lifecycle_stays_bit_identical(
        specs in prop::collection::vec(arb_spec(), 1..30),
        target_mb in 4.0f64..64.0,
        commit in any::<bool>(),
    ) {
        let cfg = EngineConfig::default();
        let container = ResourceVector::new(2.0, 256.0, 400.0, 20.0);
        let mut fast = Engine::new(cfg, container);
        let mut oracle = OracleEngine::new(cfg, container);
        fast.prewarm(20_000);
        oracle.prewarm(20_000);
        for (i, spec) in specs.iter().enumerate() {
            let at = SimTime::from_micros(i as u64 * 613);
            fast.submit_at(at, spec.clone());
            oracle.submit_at(at, spec.clone());
        }
        fast.start_balloon(target_mb);
        oracle.start_balloon(target_mb);
        fast.run_until(SimTime::from_secs(2));
        oracle.run_until(SimTime::from_secs(2));
        prop_assert_eq!(fast.balloon_active(), oracle.balloon_active());
        if commit {
            fast.commit_balloon();
            oracle.commit_balloon();
        } else {
            fast.abort_balloon();
            oracle.abort_balloon();
        }
        fast.run_until(SimTime::from_secs(600));
        oracle.run_until(SimTime::from_secs(600));
        let s = assert_intervals_equal(&mut fast, &mut oracle);
        prop_assert_eq!(s.outstanding, 0);
    }
}

/// Arrival and op-duration grid, µs. The device base latencies (disk 500,
/// log 300) are multiples of it too, so completions, wake-ups and arrivals
/// keep landing on the same µs — the ties the streamed merge must order
/// exactly as queued arrival events would have been ordered.
const GRID: u64 = 100;
/// Length of one streamed call's window, µs.
const WINDOW: u64 = 80 * GRID;

fn arb_grid_op() -> impl Strategy<Value = Op> {
    prop_oneof![
        (1u64..40).prop_map(|k| Op::CpuBurst { us: k * GRID }),
        (0u64..600, any::<bool>()).prop_map(|(page, write)| Op::PageAccess { page, write }),
        (1u32..4_096).prop_map(|bytes| Op::LogWrite { bytes }),
        (0u32..3, any::<bool>()).prop_map(|(lock, exclusive)| Op::LockAcquire { lock, exclusive }),
        (1u32..16).prop_map(|mb| Op::MemoryGrant { mb }),
        (1u64..20).prop_map(|k| Op::Think { us: k * GRID }),
    ]
}

/// One streamed call: the stream (grid gaps from the window start, 0 =
/// same-µs run; the tail may run past the window), `submit_at`s issued
/// before the call in random time order, and what the controller does
/// after the call.
#[derive(Debug, Clone)]
struct Call {
    stream: Vec<(u64, RequestSpec)>,
    submits: Vec<(u64, RequestSpec)>,
    action: u8,
}

fn arb_call() -> impl Strategy<Value = Call> {
    let spec = || arb_spec_of(arb_grid_op());
    (
        prop::collection::vec((0u64..5, spec()), 0..30),
        prop::collection::vec((0u64..160, spec()), 0..4),
        0u8..8,
    )
        .prop_map(|(stream, submits, action)| Call {
            stream,
            submits,
            action,
        })
}

/// Applies the controller's between-call action to an engine (either
/// implementation: the two share the method names).
macro_rules! act {
    ($e:expr, $action:expr) => {
        match $action {
            1 => $e.apply_resources(ResourceVector::new(4.0, 512.0, 800.0, 40.0)),
            2 => $e.apply_resources(ResourceVector::new(0.5, 16.0, 100.0, 5.0)),
            3 => $e.start_balloon(8.0),
            4 => $e.abort_balloon(),
            5 => $e.commit_balloon(),
            _ => {}
        }
    };
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Streaming each window's arrivals is bit-identical to submitting
    /// them all when the call starts: across same-µs arrival runs, ties
    /// with events queued before the call and events pushed during it,
    /// stream items past the window (they wait in the arrival lane),
    /// out-of-order `submit_at`s, admission rejections, and resizes and
    /// balloon steps between calls. The batch side also runs on the
    /// oracle, which queues every arrival as an event, so the tie-heavy
    /// grid pins the arrival lane's order as well.
    #[test]
    fn streamed_arrivals_match_batch_submission(
        calls in prop::collection::vec(arb_call(), 1..8),
        max_outstanding in (0usize..3).prop_map(|i| [3, 12, 400][i]),
        prewarm_pages in 0u64..600,
    ) {
        let cfg = EngineConfig {
            max_outstanding,
            balloon_step_us: 10 * GRID,
            ..EngineConfig::default()
        };
        let container = ResourceVector::new(1.0, 64.0, 200.0, 10.0);
        let mut streamed = Engine::new(cfg, container);
        let mut batch = Engine::new(cfg, container);
        let mut oracle = OracleEngine::new(cfg, container);
        streamed.prewarm(prewarm_pages);
        batch.prewarm(prewarm_pages);
        oracle.prewarm(prewarm_pages);
        for (k, call) in calls.iter().enumerate() {
            let start = k as u64 * WINDOW;
            for (offset, spec) in &call.submits {
                let at = SimTime::from_micros(start + offset * GRID);
                streamed.submit_at(at, spec.clone());
                batch.submit_at(at, spec.clone());
                oracle.submit_at(at, spec.clone());
            }
            let mut at = start;
            let items: Vec<(SimTime, RequestSpec)> = call
                .stream
                .iter()
                .map(|(gap, spec)| {
                    at += gap * GRID;
                    (SimTime::from_micros(at), spec.clone())
                })
                .collect();
            let end = SimTime::from_micros(start + WINDOW);
            for (at, spec) in &items {
                batch.submit_at(*at, spec.clone());
                oracle.submit_at(*at, spec.clone());
            }
            batch.run_until(end);
            oracle.run_until(end);
            streamed.run_with_arrivals(end, items);
            let (a, b) = (streamed.end_interval(), batch.end_interval());
            prop_assert_eq!(&a, &b, "window {} diverged", k);
            prop_assert_eq!(&b, &oracle.end_interval(), "window {} left the oracle", k);
            act!(streamed, call.action);
            act!(batch, call.action);
            act!(oracle, call.action);
        }
        let drain = SimTime::from_secs(600);
        streamed.run_until(drain);
        batch.run_until(drain);
        oracle.run_until(drain);
        let (a, b) = (streamed.end_interval(), batch.end_interval());
        prop_assert_eq!(&a, &b, "final drain diverged");
        prop_assert_eq!(&b, &oracle.end_interval(), "final drain left the oracle");
        prop_assert_eq!(a.outstanding, 0);
    }
}
