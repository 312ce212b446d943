//! The store's read fast path: query descriptions, a lazy streaming
//! [`RecordCursor`], and the parallel per-segment fold behind every
//! `Store` query.
//!
//! Three ideas, layered (DESIGN.md §17):
//!
//! 1. **A [`Query`] is data.** Interval window, run, tenant, and record
//!    shape are one struct checked at two granularities: against an
//!    [`IndexEntry`] (may this *batch* hold a match? — pure index
//!    arithmetic, no file I/O) and against a decoded [`StoredRecord`]
//!    (is this record a match?). Every batch the entry check rejects is
//!    never read off disk, which is where the tenant-presence filter and
//!    kind bitmap pay off.
//! 2. **Batches stream through one reusable buffer.** A segment reader
//!    seeks to each surviving batch, reads exactly its frame into a
//!    buffer reused across batches *and* segments, CRC-checks it, and
//!    decodes records one at a time. A [`StoredRecord`] owns no heap
//!    data, so handing stack copies to a visitor allocates nothing:
//!    memory is O(largest batch), not O(result set) — the
//!    `store_query` example pins this with a VmHWM measurement.
//! 3. **Segments fan out; results fold in segment order.** Sealed
//!    segments are independent files, so workers claim them off an
//!    atomic cursor (the `FleetScheduler` pattern) and build per-segment
//!    partials. Partials are then folded *in segment id order*, so the
//!    result is byte-identical to a single-threaded scan at any thread
//!    count — the `scan_equivalence` test pins threads {1, 2, 8} against
//!    each other.

use std::fs::File;
use std::io::{Read as _, Seek as _, SeekFrom};
use std::ops::Range;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};

use crate::codec::BatchDecoder;
use crate::crc::crc32;
use crate::index::{IndexEntry, SegmentIndex};
use crate::record::{etag_of, Cursor, RecordPayload, RunId, StoredRecord};
use crate::segment::{self, FormatVersion, BATCH_OVERHEAD};
use crate::store::{FireCounts, StoreError};
use crate::writer::WriterSnapshot;

/// What record shapes a query wants.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Shape {
    /// Events and samples alike.
    #[default]
    All,
    /// Telemetry samples only.
    Samples,
    /// Events only, restricted to the tags whose bits are set in the
    /// mask (`1 << etag`; [`KindSet::ALL_EVENTS`](crate::index::KindSet::ALL_EVENTS)
    /// for every event).
    Events(u16),
}

/// A declarative record query: every field narrows the result, `None`
/// (or [`Shape::All`]) leaves that axis unconstrained.
///
/// The same struct prunes at batch granularity
/// ([`matches_entry`](Self::matches_entry) — index arithmetic only) and
/// filters at record granularity
/// ([`matches_record`](Self::matches_record)).
#[derive(Debug, Clone, Default)]
pub struct Query {
    /// Keep records whose billing interval is in this half-open window.
    pub intervals: Option<Range<u64>>,
    /// Keep records of this run.
    pub run: Option<RunId>,
    /// Keep records stamped with this tenant (un-stamped records never
    /// match a tenant constraint).
    pub tenant: Option<u64>,
    /// Keep records of this shape.
    pub shape: Shape,
}

impl Query {
    /// True when a batch described by `e` may hold a matching record —
    /// a `false` here is a *proof* of absence, so the batch is skipped
    /// without touching segment bytes.
    // dasr-lint: no-alloc
    pub fn matches_entry(&self, e: &IndexEntry) -> bool {
        if e.n_records == 0 {
            return false;
        }
        if let Some(w) = &self.intervals {
            if !e.overlaps_intervals(w.start, w.end) {
                return false;
            }
        }
        if let Some(run) = self.run {
            if !e.may_contain_run(run.0) {
                return false;
            }
        }
        if let Some(t) = self.tenant {
            if !e.may_contain_tenant(t) {
                return false;
            }
        }
        match self.shape {
            Shape::All => true,
            Shape::Samples => e.kinds.has_samples(),
            Shape::Events(mask) => e.kinds.intersects(mask),
        }
    }

    /// True when `rec` itself matches every constraint.
    // dasr-lint: no-alloc
    pub fn matches_record(&self, rec: &StoredRecord) -> bool {
        if let Some(w) = &self.intervals {
            let i = rec.interval();
            if i < w.start || i >= w.end {
                return false;
            }
        }
        if let Some(run) = self.run {
            if rec.run != run {
                return false;
            }
        }
        if let Some(t) = self.tenant {
            if rec.tenant() != Some(t) {
                return false;
            }
        }
        match (&self.shape, &rec.payload) {
            (Shape::All, _) => true,
            (Shape::Samples, RecordPayload::Sample(_)) => true,
            (Shape::Samples, RecordPayload::Event(_)) => false,
            (Shape::Events(mask), RecordPayload::Event(ev)) => mask & (1 << etag_of(&ev.kind)) != 0,
            (Shape::Events(_), RecordPayload::Sample(_)) => false,
        }
    }
}

/// The exact byte length of entry `i`'s batch frame: entries are
/// contiguous in file order, so it runs to the next entry (or the
/// segment's end).
// dasr-lint: no-alloc
fn frame_len(idx: &SegmentIndex, i: usize) -> usize {
    let end = idx
        .entries
        .get(i + 1)
        .map_or(idx.seg_bytes, |next| next.offset);
    // entries[i] follows a successful matches-check at index i; get(i+1)
    // guards the far edge.
    (end - idx.entries[i].offset) as usize
}

/// Parses and CRC-verifies one batch frame already in memory. Returns
/// the record count; the payload is `frame[8 .. len - 4]`.
fn verify_frame(frame: &[u8], offset: u64) -> Result<u32, String> {
    let len = frame.len();
    if len < BATCH_OVERHEAD {
        return Err(format!(
            "batch frame at offset {offset} shorter than its overhead"
        ));
    }
    // Frame length checked against BATCH_OVERHEAD just above.
    let n_records = u32::from_le_bytes([frame[0], frame[1], frame[2], frame[3]]);
    let payload_len = u32::from_le_bytes([frame[4], frame[5], frame[6], frame[7]]) as usize;
    if payload_len + BATCH_OVERHEAD != len {
        return Err(format!(
            "batch at offset {offset} promises {payload_len} payload bytes, index allots {len}"
        ));
    }
    let payload = &frame[8..8 + payload_len];
    let stored_crc = u32::from_le_bytes([
        frame[len - 4],
        frame[len - 3],
        frame[len - 2],
        frame[len - 1],
    ]);
    let actual = crc32(payload);
    if stored_crc != actual {
        return Err(format!(
            "batch at offset {offset} fails CRC: stored {stored_crc:08x}, computed {actual:08x}"
        ));
    }
    Ok(n_records)
}

/// Seeks to one batch frame, reads exactly `len` bytes into the caller's
/// reusable buffer, and CRC-verifies it. Returns the record count; the
/// payload is `buf[8 .. len - 4]`.
fn read_frame(file: &mut File, offset: u64, len: usize, buf: &mut Vec<u8>) -> Result<u32, String> {
    if len < BATCH_OVERHEAD {
        return Err(format!(
            "batch frame at offset {offset} shorter than its overhead"
        ));
    }
    buf.resize(len, 0);
    file.seek(SeekFrom::Start(offset))
        .map_err(|e| format!("seek to batch at offset {offset} failed: {e}"))?;
    file.read_exact(buf)
        .map_err(|e| format!("read of batch at offset {offset} failed: {e}"))?;
    verify_frame(buf, offset)
}

/// Streams one segment's matching records into `fold(acc, &record)`,
/// reading only the batches `query.matches_entry` admits, through the
/// caller's reusable buffer.
///
/// Two read strategies, picked per segment: when at least half the
/// batches survive pruning the whole segment is read in one sequential
/// pass (one syscall, frames sliced out of the buffer); a sparse match
/// seeks to each surviving frame instead, so a narrow query never pays
/// for the batches it pruned.
fn fold_segment<T>(
    dir: &Path,
    idx: &SegmentIndex,
    query: &Query,
    acc: &mut T,
    fold: &(impl Fn(&mut T, &StoredRecord) + ?Sized),
    buf: &mut Vec<u8>,
) -> Result<(), String> {
    let name = || segment::file_name(idx.segment_id);
    let matching = idx
        .entries
        .iter()
        .filter(|e| query.matches_entry(e))
        .count();
    if matching == 0 {
        return Ok(());
    }
    let mut decode = |frame: &[u8], offset: u64| -> Result<(), String> {
        let n_records =
            verify_frame(frame, offset).map_err(|e| format!("segment {}: {e}", name()))?;
        let payload = &frame[8..frame.len() - 4];
        segment::decode_payload(idx.version, payload, n_records, |rec| {
            if query.matches_record(rec) {
                fold(acc, rec);
            }
        })
        .map_err(|e| format!("segment {} batch at offset {offset}: {e}", name()))
    };
    let dense = matching * 2 >= idx.entries.len();
    if dense {
        // Sequential read of the full segment; frames are slices of it.
        buf.clear();
        let mut file = File::open(dir.join(name()))
            .map_err(|e| format!("segment {} open failed: {e}", name()))?;
        file.read_to_end(buf)
            .map_err(|e| format!("segment {} read failed: {e}", name()))?;
        let seg = std::mem::take(buf);
        let mut result = Ok(());
        for (i, entry) in idx.entries.iter().enumerate() {
            if !query.matches_entry(entry) {
                continue;
            }
            let (at, len) = (entry.offset as usize, frame_len(idx, i));
            let Some(frame) = seg.get(at..at + len) else {
                result = Err(format!(
                    "segment {} batch at offset {at} runs past the file ({} bytes)",
                    name(),
                    seg.len()
                ));
                break;
            };
            if let Err(e) = decode(frame, entry.offset) {
                result = Err(e);
                break;
            }
        }
        *buf = seg;
        return result;
    }
    let mut file: Option<File> = None;
    for (i, entry) in idx.entries.iter().enumerate() {
        if !query.matches_entry(entry) {
            continue;
        }
        let file = match file.as_mut() {
            Some(f) => f,
            None => {
                let path = dir.join(name());
                file.insert(
                    File::open(&path)
                        .map_err(|e| format!("segment {} open failed: {e}", name()))?,
                )
            }
        };
        let len = frame_len(idx, i);
        if len < BATCH_OVERHEAD {
            return Err(format!(
                "segment {}: batch frame at offset {} shorter than its overhead",
                name(),
                entry.offset
            ));
        }
        buf.resize(len, 0);
        file.seek(SeekFrom::Start(entry.offset)).map_err(|e| {
            format!(
                "segment {}: seek to batch at offset {} failed: {e}",
                name(),
                entry.offset
            )
        })?;
        file.read_exact(buf).map_err(|e| {
            format!(
                "segment {}: read of batch at offset {} failed: {e}",
                name(),
                entry.offset
            )
        })?;
        decode(&buf[..], entry.offset)?;
    }
    Ok(())
}

/// Runs `query` over every segment, folding matching records into one
/// accumulator per segment (`make` builds each), and returns the
/// partials **in segment id order** — so any associative combine the
/// caller does is independent of thread count.
///
/// Segments whose entries all fail the batch check are skipped without
/// opening their files. With `threads > 1` and more than one working
/// segment, workers claim segments off an atomic cursor; otherwise the
/// fold runs inline on the caller's thread. Both paths produce
/// identical partials (`scan_equivalence` pins it).
pub(crate) fn fold_records<T, M, F>(
    dir: &Path,
    indices: &[SegmentIndex],
    query: &Query,
    threads: usize,
    make: M,
    fold: F,
) -> Result<Vec<T>, StoreError>
where
    T: Send,
    M: Fn() -> T + Sync,
    F: Fn(&mut T, &StoredRecord) + Sync,
{
    let work: Vec<&SegmentIndex> = indices
        .iter()
        .filter(|idx| idx.entries.iter().any(|e| query.matches_entry(e)))
        .collect();
    let threads = threads.clamp(1, work.len().max(1));
    if threads <= 1 {
        let mut buf = Vec::new();
        let mut out = Vec::with_capacity(work.len());
        for idx in &work {
            let mut acc = make();
            fold_segment(dir, idx, query, &mut acc, &fold, &mut buf)
                .map_err(StoreError::Corrupt)?;
            out.push(acc);
        }
        return Ok(out);
    }
    let cursor = AtomicUsize::new(0);
    let partials: Mutex<Vec<(usize, Result<T, String>)>> =
        Mutex::new(Vec::with_capacity(work.len()));
    std::thread::scope(|scope| {
        for _ in 0..threads {
            scope.spawn(|| {
                let mut buf = Vec::new();
                loop {
                    let k = cursor.fetch_add(1, Ordering::Relaxed);
                    let Some(idx) = work.get(k) else { break };
                    let mut acc = make();
                    let res =
                        fold_segment(dir, idx, query, &mut acc, &fold, &mut buf).map(|()| acc);
                    partials
                        .lock()
                        .unwrap_or_else(std::sync::PoisonError::into_inner)
                        .push((k, res));
                }
            });
        }
    });
    let mut partials = partials
        .into_inner()
        .unwrap_or_else(std::sync::PoisonError::into_inner);
    partials.sort_unstable_by_key(|(k, _)| *k);
    partials
        .into_iter()
        .map(|(_, r)| r.map_err(StoreError::Corrupt))
        .collect()
}

/// True when every record a batch described by `e` could contribute to
/// the query is *provably* admitted — the interval window contains the
/// batch's whole bounding box and the run filter (if any) is pinned by
/// `min_run == max_run`. For such a batch the entry's tally IS the
/// answer.
// dasr-lint: no-alloc
fn tally_covers_entry(query: &Query, e: &IndexEntry) -> bool {
    query
        .intervals
        .as_ref()
        .is_none_or(|w| w.start <= e.min_interval && e.max_interval < w.end)
        && query
            .run
            .is_none_or(|r| e.min_run == e.max_run && e.min_run == r.0)
}

/// One segment's contribution to a fire-count query, from its index
/// alone: a fully-covered batch sums its entry tally, any other batch
/// the query admits sums the rollup rows of the (run, interval) pairs
/// the query keeps.
fn fires_segment(
    idx: &SegmentIndex,
    query: &Query,
    counts: &mut FireCounts,
) -> Result<(), &'static str> {
    let window = query.intervals.as_ref();
    for (i, entry) in idx.entries.iter().enumerate() {
        if !query.matches_entry(entry) {
            continue;
        }
        if tally_covers_entry(query, entry) {
            counts.merge_tally(&entry.fires);
            continue;
        }
        for row in idx.rollup_rows(i)? {
            let row = row?;
            if let Some(run) = query.run {
                // Rows run in (run, interval) order: past the window's
                // end in the queried run, nothing later can match.
                let past_end = window.is_some_and(|w| row.interval >= w.end);
                if row.run > run.0 || (row.run == run.0 && past_end) {
                    break;
                }
                if row.run < run.0 {
                    continue;
                }
            }
            if window.is_none_or(|w| w.contains(&row.interval)) {
                counts.merge_tally(&row.fires);
            }
        }
    }
    Ok(())
}

/// Rule-fire counting answered from the index alone: per-batch
/// [`FireTally`](crate::index::FireTally)s for batches the window
/// covers, (run, interval) rollup rows for the rest — no segment file
/// is opened. Segments are summed in id order.
///
/// `query.tenant` must be `None` (the index does not split fires by
/// tenant), and `query.shape` must admit every event shape the tallies
/// count (the [`Store::fire_counts`](crate::Store::fire_counts) mask):
/// a narrower mask would make the index overcount relative to a decode.
pub(crate) fn fold_fires(
    indices: &[SegmentIndex],
    query: &Query,
) -> Result<FireCounts, StoreError> {
    debug_assert!(query.tenant.is_none(), "fire counts are not per tenant");
    let mut total = FireCounts::default();
    for idx in indices {
        fires_segment(idx, query, &mut total).map_err(|e| {
            StoreError::Corrupt(format!(
                "segment {} index: {e}",
                segment::file_name(idx.segment_id)
            ))
        })?;
    }
    Ok(total)
}

/// A lazy, pull-based record stream over a store snapshot: decodes one
/// record per [`next`](Iterator::next) call from a single reusable
/// batch buffer, skipping batches the query's index check rejects.
///
/// Obtained from [`Store::cursor`](crate::Store::cursor). Yields
/// matching records in append order (segment order, then file order).
/// The first decode or I/O error is yielded as `Err` and ends the
/// stream; results reflect everything flushed before the cursor was
/// created.
pub struct RecordCursor {
    dir: PathBuf,
    query: Query,
    snapshot: Arc<WriterSnapshot>,
    /// Position in `indices`.
    seg: usize,
    /// Next entry to consider within the current segment.
    entry: usize,
    /// Open handle for the current segment (dropped at each boundary).
    file: Option<File>,
    /// Reusable frame buffer — the cursor's only per-batch storage.
    buf: Vec<u8>,
    version: FormatVersion,
    decoder: BatchDecoder,
    /// Payload byte length of the loaded batch (payload = `buf[8..8+len]`).
    payload_len: usize,
    /// Decode position within the payload.
    at: usize,
    /// Records left to decode in the loaded batch.
    remaining: u32,
    /// Set after yielding an error; the stream is over.
    failed: bool,
}

impl RecordCursor {
    pub(crate) fn new(dir: PathBuf, snapshot: Arc<WriterSnapshot>, query: Query) -> Self {
        Self {
            dir,
            query,
            snapshot,
            seg: 0,
            entry: 0,
            file: None,
            buf: Vec::new(),
            version: FormatVersion::default(),
            decoder: BatchDecoder::new(),
            payload_len: 0,
            at: 0,
            remaining: 0,
            failed: false,
        }
    }

    /// Loads the next batch that survives the index check into the
    /// reusable buffer. `Ok(false)` means the store is exhausted.
    fn load_next_batch(&mut self) -> Result<bool, String> {
        loop {
            let Some(idx) = self.snapshot.indices.get(self.seg) else {
                return Ok(false);
            };
            while self.entry < idx.entries.len() {
                let i = self.entry;
                self.entry += 1;
                if !self.query.matches_entry(&idx.entries[i]) {
                    continue;
                }
                let file = match self.file.as_mut() {
                    Some(f) => f,
                    None => {
                        let path = self.dir.join(segment::file_name(idx.segment_id));
                        self.file.insert(File::open(&path).map_err(|e| {
                            format!(
                                "segment {} open failed: {e}",
                                segment::file_name(idx.segment_id)
                            )
                        })?)
                    }
                };
                let len = frame_len(idx, i);
                let n_records = read_frame(file, idx.entries[i].offset, len, &mut self.buf)
                    .map_err(|e| format!("segment {}: {e}", segment::file_name(idx.segment_id)))?;
                self.version = idx.version;
                self.payload_len = len - BATCH_OVERHEAD;
                self.at = 0;
                self.remaining = n_records;
                self.decoder.reset();
                return Ok(true);
            }
            self.seg += 1;
            self.entry = 0;
            self.file = None;
        }
    }

    /// Decodes the next record of the loaded batch.
    fn decode_one(&mut self) -> Result<StoredRecord, String> {
        let payload = &self.buf[8..8 + self.payload_len];
        let (rec, used) = match self.version {
            FormatVersion::V1 => StoredRecord::decode(&payload[self.at..])?,
            FormatVersion::V2 => {
                let mut c = Cursor::new(&payload[self.at..]);
                let rec = self.decoder.decode_next(&mut c)?;
                (rec, c.pos())
            }
        };
        self.at += used;
        self.remaining -= 1;
        if self.remaining == 0 && self.at != self.payload_len {
            return Err(format!(
                "batch payload has {} trailing bytes after its promised records",
                self.payload_len - self.at
            ));
        }
        Ok(rec)
    }
}

impl Iterator for RecordCursor {
    type Item = Result<StoredRecord, StoreError>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.failed {
            return None;
        }
        loop {
            while self.remaining > 0 {
                match self.decode_one() {
                    Ok(rec) => {
                        if self.query.matches_record(&rec) {
                            return Some(Ok(rec));
                        }
                    }
                    Err(e) => {
                        self.failed = true;
                        return Some(Err(StoreError::Corrupt(e)));
                    }
                }
            }
            match self.load_next_batch() {
                Ok(true) => {}
                Ok(false) => return None,
                Err(e) => {
                    self.failed = true;
                    return Some(Err(StoreError::Corrupt(e)));
                }
            }
        }
    }
}
