//! The fire-count rollup answers exactly what a full decode answers.
//!
//! `Store::fire_counts` reads no segment byte: fully-covered batches sum
//! their index tally, every other batch sums its (run, interval) rollup
//! rows. These tests hold it to a decode-everything oracle — a
//! `Store::cursor` fold through `FireCounts::record` — over random
//! multi-run, multi-tenant streams, both frame formats, batch sizes
//! {1, 3, 256}, empty / straddling / whole-run windows, read threads
//! {1, 2, 8}, and all three ways a store gets its index: the live
//! writer, a reopen that trusts the sidecars, and a reopen that rebuilds
//! them. They also feed the sidecar parser hostile bytes, and check that
//! a pre-rollup (`DASRIDX\x02`) sidecar is rebuilt on open.

use dasr_core::obs::{BalloonPhase, DenyReason, EventKind, RunEvent};
use dasr_core::SampleRecord;
use dasr_store::crc::crc32;
use dasr_store::index::{self, SegmentIndex};
use dasr_store::{
    FireCounts, FormatVersion, Query, RecordPayload, RunId, RunMeta, Store, WriterConfig,
};
use dasr_telemetry::{ProbeStatus, TelemetrySample};
use proptest::prelude::*;
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU32, Ordering};

const RUNS: usize = 3;

fn fresh_dir(tag: &str) -> PathBuf {
    static NEXT: AtomicU32 = AtomicU32::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    let dir = std::env::temp_dir().join(format!("dasr-rollup-{tag}-{}-{n}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn kind(k: u8) -> EventKind {
    match k {
        0 => EventKind::IntervalStart,
        1 => EventKind::IntervalEnd {
            latency_ms: Some(12.5),
            completed: 40,
            rejected: 1,
        },
        2 => EventKind::ResizeIssued {
            from_rung: 1,
            to_rung: 2,
        },
        3 => EventKind::ResizeDenied {
            reason: DenyReason::Cooldown,
        },
        4 => EventKind::ResizeDenied {
            reason: DenyReason::Budget,
        },
        5 => EventKind::BudgetThrottle { headroom_pct: 7.0 },
        6 => EventKind::BalloonTrigger {
            phase: BalloonPhase::Started,
            target_mb: Some(512.0),
        },
        7 => EventKind::BalloonTrigger {
            phase: BalloonPhase::Aborted,
            target_mb: None,
        },
        8 => EventKind::BalloonTrigger {
            phase: BalloonPhase::Confirmed,
            target_mb: Some(512.0),
        },
        _ => EventKind::SloViolation {
            observed_ms: 30.0,
            goal_ms: 20.0,
        },
    }
}

fn sample(tenant: u64, interval: u64) -> SampleRecord {
    SampleRecord {
        tenant: Some(tenant),
        sample: TelemetrySample {
            interval,
            util_pct: [40.0, 0.0, 10.0, 5.0],
            wait_ms: [0.0; 7],
            latency_ms: Some(15.0),
            avg_latency_ms: None,
            completed: 50,
            arrivals: 52,
            rejected: 0,
            mem_used_mb: 512.0,
            mem_capacity_mb: 1024.0,
            disk_reads_per_sec: 1.0,
        },
        probe: ProbeStatus::Inactive,
    }
}

/// One generated record: (run slot, tenant, interval, kind code); kind
/// code 10 is a telemetry sample, 0..=9 an event shape.
type Gen = (usize, u64, u64, u8);

fn stream() -> impl Strategy<Value = Vec<Gen>> {
    prop::collection::vec((0usize..RUNS, 0u64..5, 0u64..40, 0u8..11), 1..300)
}

/// Appends `recs` across `RUNS` interleaved runs (so batches mix runs)
/// and commits them all.
fn populate(store: &mut Store, recs: &[Gen]) -> Vec<RunId> {
    let runs: Vec<RunId> = (0..RUNS)
        .map(|i| store.begin_run(RunMeta::new("auto", "cpuio", "rollup", i as u64)))
        .collect();
    for &(slot, tenant, interval, code) in recs {
        let payload = if code == 10 {
            RecordPayload::Sample(sample(tenant, interval))
        } else {
            RecordPayload::Event(RunEvent {
                tenant: Some(tenant),
                interval,
                kind: kind(code),
            })
        };
        store.append(runs[slot], payload).expect("append");
    }
    for &run in &runs {
        store.end_run(run).expect("commit");
    }
    runs
}

/// The decode-everything answer: stream every matching record through
/// the cursor and count it with `FireCounts::record`.
fn oracle(store: &Store, run: Option<RunId>, window: Range<u64>) -> FireCounts {
    let mut counts = FireCounts::default();
    let cursor = store
        .cursor(Query {
            intervals: Some(window),
            run,
            ..Query::default()
        })
        .expect("cursor");
    for rec in cursor {
        if let RecordPayload::Event(ev) = rec.expect("decode").payload {
            counts.record(&ev.kind);
        }
    }
    counts
}

/// `fire_counts` equals the oracle for every run filter and window, at
/// every read-thread count.
fn assert_matches_oracle(store: &mut Store, runs: &[RunId], windows: &[Range<u64>], tag: &str) {
    let filters = std::iter::once(None).chain(runs.iter().copied().map(Some));
    for run in filters {
        for w in windows {
            let want = oracle(store, run, w.clone());
            for threads in [1usize, 2, 8] {
                store.set_read_threads(threads);
                let got = store.fire_counts(run, w.clone()).expect("fire_counts");
                assert_eq!(
                    got, want,
                    "{tag}: run {run:?} window {w:?} at {threads} threads"
                );
            }
        }
    }
}

fn sidecars(dir: &Path) -> Vec<PathBuf> {
    let mut out: Vec<PathBuf> = std::fs::read_dir(dir)
        .expect("read dir")
        .map(|e| e.expect("dir entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "idx"))
        .collect();
    out.sort();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// The rollup path equals the decode-everything oracle on the live
    /// store, after a reopen that trusts the sidecars, and after a
    /// reopen that rebuilds them from the segments.
    #[test]
    fn fire_counts_equal_a_full_decode(
        recs in stream(),
        batch in 0usize..3,
        v2 in any::<bool>(),
        cut in (0u64..45, 0u64..45),
    ) {
        let cfg = WriterConfig {
            batch_records: [1, 3, 256][batch],
            // Small segments: sealed sidecars, not just the active one.
            segment_max_bytes: 1024,
            format: if v2 { FormatVersion::V2 } else { FormatVersion::V1 },
        };
        let (lo, hi) = (cut.0.min(cut.1), cut.0.max(cut.1));
        let windows = [0..0, 7..7, lo..hi, lo..lo + 1, 0..40, 0..u64::MAX];
        let dir = fresh_dir("equiv");
        let tag = format!("{} batch {}", cfg.format, cfg.batch_records);

        let mut store = Store::open_with(&dir, cfg).expect("open");
        let runs = populate(&mut store, &recs);
        assert_matches_oracle(&mut store, &runs, &windows, &format!("live, {tag}"));
        store.close().expect("close");

        let mut store = Store::open_with(&dir, cfg).expect("reopen");
        prop_assert!(store.recovery_notes().is_empty(), "{:?}", store.recovery_notes());
        assert_matches_oracle(&mut store, &runs, &windows, &format!("sidecars, {tag}"));
        store.close().expect("close");

        let files = sidecars(&dir);
        for path in &files {
            std::fs::remove_file(path).expect("drop sidecar");
        }
        let mut store = Store::open_with(&dir, cfg).expect("rebuild");
        // Every sealed segment (all but the active one) is rebuilt.
        let rebuilt = store
            .recovery_notes()
            .iter()
            .filter(|n| n.detail.contains("rebuilt"))
            .count();
        prop_assert_eq!(rebuilt, files.len().saturating_sub(1));
        assert_matches_oracle(&mut store, &runs, &windows, &format!("rebuilt, {tag}"));
        store.close().expect("close");
        std::fs::remove_dir_all(&dir).expect("cleanup");
    }
}

/// A sealed segment's valid v3 sidecar bytes, from a small store whose
/// batches mix runs, tenants, intervals and event shapes.
fn sealed_sidecar() -> Vec<u8> {
    let dir = fresh_dir("hostile");
    let cfg = WriterConfig {
        batch_records: 5,
        segment_max_bytes: 512,
        format: FormatVersion::V2,
    };
    let mut store = Store::open_with(&dir, cfg).expect("open");
    let recs: Vec<Gen> = (0..80u64)
        .map(|i| ((i % 3) as usize, i % 4, (i * 7) % 23, (i % 11) as u8))
        .collect();
    populate(&mut store, &recs);
    store.close().expect("close");
    let bytes = std::fs::read(dir.join(SegmentIndex::file_name(0))).expect("sealed sidecar");
    std::fs::remove_dir_all(&dir).expect("cleanup");
    let idx = SegmentIndex::from_bytes(&bytes).expect("valid sidecar");
    assert!(idx.entries.len() > 2 && idx.rollup.len() > idx.entries.len());
    bytes
}

/// Recomputes the trailing CRC, so the parser's structural checks — not
/// the checksum — have to catch the damage.
fn reseal(bytes: &mut [u8]) {
    if bytes.len() >= index::HEADER_LEN + 4 {
        let crc_at = bytes.len() - 4;
        let crc = crc32(&bytes[index::HEADER_LEN..crc_at]);
        bytes[crc_at..].copy_from_slice(&crc.to_le_bytes());
    }
}

/// Whatever `from_bytes` accepts must be a usable index: every entry's
/// rollup decodes, and the index survives its own round trip.
fn assert_usable(bytes: &[u8]) {
    if let Ok(idx) = SegmentIndex::from_bytes(bytes) {
        for (i, e) in idx.entries.iter().enumerate() {
            let rows = idx.rollup_rows(i).expect("accepted rollup has a row count");
            for row in rows {
                let row = row.expect("accepted rollup decodes");
                assert!(e.min_interval <= row.interval && row.interval <= e.max_interval);
                assert!(e.min_run <= row.run && row.run <= e.max_run);
            }
        }
        let again = SegmentIndex::from_bytes(&idx.to_bytes()).expect("round trip");
        assert_eq!(again, idx);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Truncated sidecars never parse into a panic: `from_bytes` returns
    /// an error or a usable index (with the CRC fixed up, too).
    #[test]
    fn truncated_sidecars_never_panic(cut in 0usize..4096, fix_crc in any::<bool>()) {
        let full = sealed_sidecar_cached();
        let mut bytes = full[..cut.min(full.len())].to_vec();
        if fix_crc {
            reseal(&mut bytes);
        }
        assert_usable(&bytes);
    }

    /// Mutated sidecars — in the header, the fixed entries or the rollup
    /// rows — return an error or a usable index, never panic.
    #[test]
    fn mutated_sidecars_never_panic(
        edits in prop::collection::vec((0usize..4096, 0u8..=255), 1..6),
        fix_crc in any::<bool>(),
    ) {
        let mut bytes = sealed_sidecar_cached();
        for &(at, byte) in &edits {
            let at = at % bytes.len();
            bytes[at] = byte;
        }
        if fix_crc {
            reseal(&mut bytes);
        }
        assert_usable(&bytes);
    }
}

fn sealed_sidecar_cached() -> Vec<u8> {
    static BYTES: std::sync::OnceLock<Vec<u8>> = std::sync::OnceLock::new();
    BYTES.get_or_init(sealed_sidecar).clone()
}

/// A sidecar in the pre-rollup `DASRIDX\x02` layout (82-byte entries,
/// no rollup section) fails the magic check: `Store::open` rebuilds it
/// from the segment, says so in a recovery note, and writes it back in
/// the current layout.
#[test]
fn pre_rollup_sidecars_are_rebuilt_on_open() {
    let dir = fresh_dir("upgrade");
    let cfg = WriterConfig {
        batch_records: 4,
        segment_max_bytes: 512,
        format: FormatVersion::V2,
    };
    let mut store = Store::open_with(&dir, cfg).expect("open");
    let recs: Vec<Gen> = (0..120u64)
        .map(|i| ((i % 2) as usize, i % 3, i % 17, (i % 10) as u8))
        .collect();
    let runs = populate(&mut store, &recs);
    let want = store.fire_counts(Some(runs[1]), 3..9).expect("fires");
    store.close().expect("close");

    // Rewrite the sealed segment 0's sidecar as its v2-layout twin.
    let path = dir.join(SegmentIndex::file_name(0));
    let v3 = std::fs::read(&path).expect("sidecar");
    let idx = SegmentIndex::from_bytes(&v3).expect("v3 parses");
    let mut v2 = v3[..index::HEADER_LEN + idx.entries.len() * index::ENTRY_LEN].to_vec();
    v2[7] = 0x02;
    let crc = crc32(&v2[index::HEADER_LEN..]);
    v2.extend_from_slice(&crc.to_le_bytes());
    std::fs::write(&path, &v2).expect("write v2 sidecar");
    assert!(SegmentIndex::from_bytes(&v2)
        .expect_err("v2 magic")
        .contains("magic"));

    let store = Store::open_with(&dir, cfg).expect("reopen");
    assert!(
        store
            .recovery_notes()
            .iter()
            .any(|n| n.segment == Some(0) && n.detail.contains("rebuilt")),
        "notes: {:?}",
        store.recovery_notes()
    );
    assert_eq!(store.fire_counts(Some(runs[1]), 3..9).expect("fires"), want);
    assert_eq!(
        store.fire_counts(Some(runs[1]), 3..9).expect("fires"),
        oracle(&store, Some(runs[1]), 3..9)
    );
    store.close().expect("close");
    assert_eq!(std::fs::read(&path).expect("rewritten"), v3);
    std::fs::remove_dir_all(&dir).expect("cleanup");
}
