//! `docs/STORE_FORMAT.md` is normative: this test extracts the worked
//! hex dump from the document and checks it both ways —
//!
//! * **encode**: the real encoder, fed the example's described records,
//!   produces exactly the documented bytes;
//! * **decode**: the real decoder, fed the documented bytes, yields a
//!   well-formed segment whose records carry the documented values.
//!
//! Any drift between the spec and the implementation fails here.

use dasr_core::obs::{EventKind, RunEvent};
use dasr_store::codec::BatchEncoder;
use dasr_store::crc::crc32;
use dasr_store::index::{FireTally, SegmentIndex};
use dasr_store::{segment, FormatVersion, RecordPayload, RunId, StoredRecord};

fn spec_text() -> String {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../../docs/STORE_FORMAT.md");
    std::fs::read_to_string(path).expect("docs/STORE_FORMAT.md exists")
}

/// Extracts the bytes of the `n`-th `hexdump` fenced block (1-based:
/// block 1 is the §7 v1 walk, block 2 the §10 v2 walk, block 3 the
/// §10.1 index sidecar of that v2 segment).
fn doc_bytes(text: &str, n: usize) -> Vec<u8> {
    let block = text
        .split("```hexdump")
        .nth(n)
        .expect("spec has enough ```hexdump blocks")
        .split("```")
        .next()
        .expect("block is closed");
    let mut out = Vec::new();
    for line in block.lines() {
        let Some((offset, rest)) = line.trim().split_once("  ") else {
            continue;
        };
        let offset = usize::from_str_radix(offset, 16).expect("offset column is hex");
        assert_eq!(offset, out.len(), "dump rows are contiguous");
        for tok in rest.split_whitespace() {
            out.push(u8::from_str_radix(tok, 16).expect("byte column is hex"));
        }
    }
    out
}

fn example_records() -> [StoredRecord; 2] {
    [
        StoredRecord {
            run: RunId(0),
            payload: RecordPayload::Event(RunEvent {
                tenant: Some(0),
                interval: 0,
                kind: EventKind::IntervalStart,
            }),
        },
        StoredRecord {
            run: RunId(0),
            payload: RecordPayload::Event(RunEvent {
                tenant: Some(0),
                interval: 1,
                kind: EventKind::ResizeIssued {
                    from_rung: 1,
                    to_rung: 2,
                },
            }),
        },
    ]
}

#[test]
fn worked_example_matches_the_real_encoder() {
    let recs = example_records();
    let mut payload = Vec::new();
    for r in &recs {
        r.encode_into(&mut payload);
    }
    let mut expected = segment::header_bytes(0, FormatVersion::V1).to_vec();
    segment::append_batch(&mut expected, recs.len() as u32, &payload);

    let documented = doc_bytes(&spec_text(), 1);
    assert_eq!(documented.len(), 126, "§7 says 126 bytes total");
    assert_eq!(payload.len(), 98, "§7 says payload_len = 98");
    assert_eq!(documented, expected, "spec hex == encoder output");
}

#[test]
fn worked_example_decodes_to_the_documented_values() {
    let bytes = doc_bytes(&spec_text(), 1);
    let scan = segment::scan(&bytes).expect("spec segment scans clean");
    assert_eq!(scan.segment_id, 0);
    assert!(scan.torn.is_none());
    assert_eq!(scan.valid_len as usize, bytes.len());
    assert_eq!(scan.batches.len(), 1);
    assert_eq!(scan.batches[0].n_records, 2);

    let decoded = scan.batches[0].records().expect("records decode");
    assert_eq!(decoded, example_records());

    // The walked CRC value in the §7 table.
    let payload = scan.batches[0].payload;
    assert_eq!(crc32(payload), 0x677D_EF86);
    assert_eq!(scan.version, FormatVersion::V1);
}

/// The same two records as §7, encoded with the v2 compact frame
/// format: the real `BatchEncoder` must reproduce the §10 hex dump
/// byte for byte.
#[test]
fn v2_worked_example_matches_the_real_encoder() {
    let recs = example_records();
    let mut enc = BatchEncoder::new();
    let mut payload = Vec::new();
    for r in &recs {
        enc.encode_into(r, &mut payload);
    }
    let mut expected = segment::header_bytes(0, FormatVersion::V2).to_vec();
    segment::append_batch(&mut expected, recs.len() as u32, &payload);

    let documented = doc_bytes(&spec_text(), 2);
    assert_eq!(documented.len(), 42, "§10 says 42 bytes total");
    assert_eq!(payload.len(), 14, "§10 says payload_len = 14");
    assert_eq!(documented, expected, "spec hex == v2 encoder output");
}

#[test]
fn v2_worked_example_decodes_to_the_documented_values() {
    let bytes = doc_bytes(&spec_text(), 2);
    let scan = segment::scan(&bytes).expect("spec segment scans clean");
    assert_eq!(scan.segment_id, 0);
    assert_eq!(scan.version, FormatVersion::V2);
    assert!(scan.torn.is_none());
    assert_eq!(scan.valid_len as usize, bytes.len());
    assert_eq!(scan.batches.len(), 1);
    assert_eq!(scan.batches[0].n_records, 2);
    let decoded = scan.batches[0].records().expect("records decode");
    assert_eq!(decoded, example_records());
}

/// The §10.1 sidecar is what the real indexer builds for the §10
/// segment, byte for byte.
#[test]
fn sidecar_worked_example_matches_the_real_indexer() {
    let text = spec_text();
    let segment = doc_bytes(&text, 2);
    let documented = doc_bytes(&text, 3);
    assert_eq!(documented.len(), 127, "§10.1 says 127 bytes total");
    let built = SegmentIndex::build_from_segment(&segment).expect("§10 segment indexes");
    assert_eq!(documented, built.to_bytes(), "spec hex == indexer output");
}

#[test]
fn sidecar_worked_example_decodes_to_the_documented_values() {
    let bytes = doc_bytes(&spec_text(), 3);
    let idx = SegmentIndex::from_bytes(&bytes).expect("spec sidecar parses");
    assert_eq!(idx.segment_id, 0);
    assert_eq!(idx.version, FormatVersion::V2);
    assert_eq!(idx.seg_bytes, 42);
    assert_eq!(idx.entries.len(), 1);
    let e = &idx.entries[0];
    assert_eq!((e.offset, e.n_records), (16, 2));
    assert_eq!((e.min_interval, e.max_interval), (0, 1));
    assert_eq!((e.min_run, e.max_run), (0, 0));
    assert_eq!(e.tenant_filter.0, 1 << 47);
    assert_eq!(e.kinds.0, 0b101);
    assert_eq!(e.fires, FireTally([1, 1, 0, 0, 0, 0, 0, 0, 0]));
    let rows: Vec<_> = idx
        .rollup_rows(0)
        .expect("rows")
        .map(|r| r.map(|r| (r.run, r.interval, r.fires)))
        .collect::<Result<_, _>>()
        .expect("rows decode");
    assert_eq!(
        rows,
        vec![
            (0, 0, FireTally([1, 0, 0, 0, 0, 0, 0, 0, 0])),
            (0, 1, FireTally([0, 1, 0, 0, 0, 0, 0, 0, 0])),
        ]
    );
    assert_eq!(crc32(&bytes[0x20..0x7b]), 0x637A_4A96);
}

#[test]
fn documented_crc_vectors_hold() {
    // §5's test-vector table.
    assert_eq!(crc32(b""), 0x0000_0000);
    assert_eq!(crc32(b"a"), 0xE8B7_BE43);
    assert_eq!(crc32(b"123456789"), 0xCBF4_3926);
    assert_eq!(crc32(&[0u8; 32]), 0x190A_55AD);
}
