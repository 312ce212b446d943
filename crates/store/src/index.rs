//! Sparse per-segment time index.
//!
//! One [`IndexEntry`] per batch: the batch's file offset plus the
//! *bounding box* of what it contains — interval range and run-id range.
//! The index is sparse (batch granularity, not record granularity) because
//! fleet event streams are tenant-major: intervals are **not** monotone
//! within a segment, so a query cannot binary-search; it can, however,
//! skip every batch whose bounding box misses the query, which is the
//! scan-cost win (`store_scan` benches measure it).
//!
//! The index is a pure *cache*: it lives in a `.idx` sidecar next to its
//! segment and is rebuilt from the segment bytes whenever it is missing,
//! fails its CRC, or describes a different byte length than the recovered
//! segment (a crash can tear the sidecar just like the log — rebuilding is
//! always safe because the segment is the single source of truth).
//!
//! Beyond the bounding boxes, each entry carries two *content filters*
//! so the common queries can skip batches without touching segment
//! bytes at all:
//!
//! - [`TenantFilter`] — a 64-bit hashed tenant-presence filter (one bit
//!   per tenant via SplitMix64). `tenant_events` skips any batch whose
//!   filter lacks the queried tenant's bit; false positives only cost a
//!   decode, never correctness.
//! - [`KindSet`] — a per-etag event-kind bitmap plus a has-samples bit.
//!   `fire_counts` skips batches holding nothing it counts; `run_samples`
//!   skips all-event batches.
//! - [`FireTally`] — per-batch rule-fire counters, one slot per counted
//!   event shape. A batch the query's window and run filter admit *in
//!   full* is answered by summing its tally.
//!
//! Beside the fixed entries each segment keeps a **fire-count rollup**:
//! per batch, one [`FireTally`] row for every (run, interval) pair whose
//! events the batch counts, varint-encoded into one byte arena per
//! segment ([`SegmentIndex::rollup`]). A batch the window only partly
//! covers — or that mixes runs — is answered by summing the rows the
//! query admits, so `fire_counts` never reads a segment byte.
//!
//! Byte layout (little-endian; `docs/STORE_FORMAT.md` §4):
//!
//! ```text
//! index  := magic "DASRIDX\x03" | segment_id u32 | n_entries u32
//!           | seg_bytes u64 | seg_version u16 | reserved u16×3
//!           | entry* | rollup | crc32(entry* rollup) u32
//! entry  := offset u64 | n_records u32 | min_interval u64 | max_interval u64
//!           | min_run u32 | max_run u32 | tenant_filter u64
//!           | kinds u16 | fires u32×9                          (82 bytes)
//! rollup := (n_rows uvar | row*) per entry, in entry order
//! row    := run_delta uvar | interval_delta uvar | mask uvar | count uvar*
//! ```
//!
//! (Sidecars under the older magics — `DASRIDX\x01` with 36-byte
//! entries, `DASRIDX\x02` without the rollup — simply fail the magic
//! check and are rebuilt from their segment: the sidecar is a cache, so
//! the upgrade is self-healing.)

use crate::codec::{put_uvar, read_uvar};
use crate::crc::crc32;
use crate::record::{etag, etag_of, Cursor, RecordPayload, StoredRecord};
use crate::segment::{self, FormatVersion};
use dasr_core::obs::{BalloonPhase, DenyReason, EventKind};

/// First eight bytes of every index sidecar.
pub const MAGIC: [u8; 8] = *b"DASRIDX\x03";
/// Index header length in bytes.
pub const HEADER_LEN: usize = 32;
/// Encoded size of one [`IndexEntry`].
pub const ENTRY_LEN: usize = 82;

/// SplitMix64 finalizer — the fixed, seedless bit mixer behind
/// [`TenantFilter`]. Deterministic by construction: the same tenant id
/// always hashes to the same bit on every platform.
// dasr-lint: no-alloc
fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// A 64-bit hashed tenant-presence filter: bit `splitmix64(t) % 64` is
/// set for every tenant `t` stamped on a record in the batch. A clear
/// bit proves absence; a set bit only permits presence (one-in-64 false
/// positives per absent tenant are the price of eight bytes per batch).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct TenantFilter(pub u64);

impl TenantFilter {
    /// Adds `tenant`'s bit (un-stamped records leave the filter alone —
    /// tenant queries never match them).
    // dasr-lint: no-alloc
    pub fn stamp(&mut self, tenant: Option<u64>) {
        if let Some(t) = tenant {
            self.0 |= 1u64 << (splitmix64(t) & 63);
        }
    }

    /// False when the batch provably holds no record of `tenant`.
    // dasr-lint: no-alloc
    pub fn may_contain(self, tenant: u64) -> bool {
        self.0 & (1u64 << (splitmix64(tenant) & 63)) != 0
    }
}

/// A bitmap of what record shapes a batch holds: one bit per event tag
/// (`1 << etag`, tags 0..=6) plus [`Self::SAMPLES`] for telemetry
/// samples.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct KindSet(pub u16);

impl KindSet {
    /// Bit set when the batch holds any [`RecordPayload::Sample`].
    pub const SAMPLES: u16 = 1 << 15;
    /// Mask covering every event-tag bit.
    pub const ALL_EVENTS: u16 = (1 << etag::COUNT) - 1;

    /// Adds `rec`'s shape to the set.
    // dasr-lint: no-alloc
    pub fn stamp(&mut self, rec: &StoredRecord) {
        match &rec.payload {
            RecordPayload::Event(ev) => self.0 |= 1 << etag_of(&ev.kind),
            RecordPayload::Sample(_) => self.0 |= Self::SAMPLES,
        }
    }

    /// True when the batch may hold an event whose tag bit is in `mask`.
    // dasr-lint: no-alloc
    pub fn intersects(self, mask: u16) -> bool {
        self.0 & mask != 0
    }

    /// True when the batch may hold telemetry samples.
    // dasr-lint: no-alloc
    pub fn has_samples(self) -> bool {
        self.0 & Self::SAMPLES != 0
    }
}

/// Per-batch rule-fire counters, one `u32` slot per event shape that
/// `FireCounts::record` counts, in the same order `FireCounts` lists
/// its fields (the slot order is part of the sidecar wire format):
///
/// ```text
/// 0 interval_starts   1 resizes_issued    2 denied_cooldown
/// 3 denied_budget     4 budget_throttles  5 balloon_started
/// 6 balloon_aborted   7 balloon_confirmed 8 slo_violations
/// ```
///
/// `IntervalEnd` events and samples tally nothing, mirroring what the
/// decode path would count. A `u32` per slot cannot overflow: a batch
/// holds at most `n_records` (itself a `u32`) events.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct FireTally(pub [u32; Self::SLOTS]);

impl FireTally {
    /// Number of counter slots.
    pub const SLOTS: usize = 9;

    /// The slot `kind` tallies into — `None` for the shapes nothing
    /// counts (`IntervalEnd`), exactly as `FireCounts::record` counts.
    // dasr-lint: no-alloc
    pub fn slot(kind: &EventKind) -> Option<usize> {
        Some(match kind {
            EventKind::IntervalStart => 0,
            EventKind::IntervalEnd { .. } => return None,
            EventKind::ResizeIssued { .. } => 1,
            EventKind::ResizeDenied {
                reason: DenyReason::Cooldown,
            } => 2,
            EventKind::ResizeDenied {
                reason: DenyReason::Budget,
            } => 3,
            EventKind::BudgetThrottle { .. } => 4,
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Started,
                ..
            } => 5,
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Aborted,
                ..
            } => 6,
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Confirmed,
                ..
            } => 7,
            EventKind::SloViolation { .. } => 8,
        })
    }

    /// Tallies one event (exactly the events `FireCounts::record` counts).
    // dasr-lint: no-alloc
    pub fn stamp(&mut self, kind: &EventKind) {
        if let Some(slot) = Self::slot(kind) {
            self.0[slot] += 1;
        }
    }
}

/// One batch's bounding box in the sparse index.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IndexEntry {
    /// File offset of the batch header inside the segment.
    pub offset: u64,
    /// Records in the batch.
    pub n_records: u32,
    /// Smallest billing interval of any record in the batch.
    pub min_interval: u64,
    /// Largest billing interval of any record in the batch.
    pub max_interval: u64,
    /// Smallest run id of any record in the batch.
    pub min_run: u32,
    /// Largest run id of any record in the batch.
    pub max_run: u32,
    /// Hashed presence filter over the batch's tenant stamps.
    pub tenant_filter: TenantFilter,
    /// Bitmap of the record shapes (event tags / samples) present.
    pub kinds: KindSet,
    /// Rule-fire counters over the batch's events — lets fully-covered
    /// batches answer `fire_counts` without being read at all.
    pub fires: FireTally,
}

impl IndexEntry {
    /// Bounding box of `records` (which must be non-empty) at `offset`.
    pub fn from_records(offset: u64, records: &[StoredRecord]) -> Self {
        debug_assert!(!records.is_empty(), "batches are never empty");
        let mut e = Self::empty(offset);
        for r in records {
            e.absorb(r);
        }
        e
    }

    /// Starts a bounding box at `offset` with no records yet.
    pub fn empty(offset: u64) -> Self {
        Self {
            offset,
            n_records: 0,
            min_interval: u64::MAX,
            max_interval: 0,
            min_run: u32::MAX,
            max_run: 0,
            tenant_filter: TenantFilter::default(),
            kinds: KindSet::default(),
            fires: FireTally::default(),
        }
    }

    /// Widens the box (and content filters) to cover `rec`.
    // dasr-lint: no-alloc
    pub fn absorb(&mut self, rec: &StoredRecord) {
        let interval = rec.interval();
        self.n_records += 1;
        self.min_interval = self.min_interval.min(interval);
        self.max_interval = self.max_interval.max(interval);
        self.min_run = self.min_run.min(rec.run.0);
        self.max_run = self.max_run.max(rec.run.0);
        self.tenant_filter.stamp(rec.tenant());
        self.kinds.stamp(rec);
        if let RecordPayload::Event(ev) = &rec.payload {
            self.fires.stamp(&ev.kind);
        }
    }

    /// True when the batch may hold intervals in `[start, end)`.
    // dasr-lint: no-alloc
    pub fn overlaps_intervals(&self, start: u64, end: u64) -> bool {
        self.n_records > 0 && self.min_interval < end && self.max_interval >= start
    }

    /// True when the batch may hold records of `run`.
    // dasr-lint: no-alloc
    pub fn may_contain_run(&self, run: u32) -> bool {
        self.n_records > 0 && self.min_run <= run && self.max_run >= run
    }

    /// True when the batch may hold records of `tenant`.
    // dasr-lint: no-alloc
    pub fn may_contain_tenant(&self, tenant: u64) -> bool {
        self.n_records > 0 && self.tenant_filter.may_contain(tenant)
    }
}

/// One row of a batch's fire-count rollup: the rule fires the batch
/// holds for one (run, billing interval) pair.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct RollupRow {
    /// Run id the row counts.
    pub run: u32,
    /// Billing interval the row counts.
    pub interval: u64,
    /// The pair's rule-fire counters (never all zero).
    pub fires: FireTally,
}

/// Builds one batch's [`IndexEntry`] and fire-count rollup rows from its
/// records — the single code path behind the writer thread's appends
/// and [`SegmentIndex::build_from_segment`]'s recovery scan.
#[derive(Debug)]
pub struct BatchIndexer {
    entry: IndexEntry,
    /// Rollup rows sorted by (run, interval); the buffer is reused
    /// across batches.
    rows: Vec<RollupRow>,
}

impl BatchIndexer {
    /// An indexer for a batch at `offset`.
    pub fn new(offset: u64) -> Self {
        Self {
            entry: IndexEntry::empty(offset),
            rows: Vec::new(),
        }
    }

    /// Starts a new batch at `offset`, keeping the row buffer.
    // dasr-lint: no-alloc
    pub fn restart(&mut self, offset: u64) {
        self.entry = IndexEntry::empty(offset);
        self.rows.clear();
    }

    /// Records absorbed since the last restart.
    // dasr-lint: no-alloc
    pub fn n_records(&self) -> u32 {
        self.entry.n_records
    }

    /// Widens the entry to cover `rec` and counts its rule fire, if
    /// any, into the row of its (run, interval).
    // dasr-lint: no-alloc
    pub fn absorb(&mut self, rec: &StoredRecord) {
        self.entry.absorb(rec);
        let RecordPayload::Event(ev) = &rec.payload else {
            return;
        };
        let Some(slot) = FireTally::slot(&ev.kind) else {
            return;
        };
        let key = (rec.run.0, ev.interval);
        let at = match self
            .rows
            .binary_search_by_key(&key, |r| (r.run, r.interval))
        {
            Ok(at) => at,
            Err(at) => {
                self.rows.insert(
                    at,
                    RollupRow {
                        run: key.0,
                        interval: key.1,
                        fires: FireTally::default(),
                    },
                );
                at
            }
        };
        if let Some(row) = self.rows.get_mut(at) {
            row.fires.0[slot] += 1;
        }
    }
}

/// Appends `rows` (sorted by (run, interval), inside `entry`'s box) in
/// the rollup wire form: the row count, then per row the run as a delta
/// from the previous row's (the first from `min_run`), the interval as
/// an offset from the smallest one the row may hold (`min_interval`
/// when the run changed, else the previous interval + 1), a bitmask of
/// the non-zero slots, and those slots' counts.
fn encode_rows(entry: &IndexEntry, rows: &[RollupRow], out: &mut Vec<u8>) {
    put_uvar(out, rows.len() as u64);
    let (mut run, mut next_interval) = (entry.min_run, entry.min_interval);
    for row in rows {
        let run_delta = row.run - run;
        if run_delta > 0 {
            next_interval = entry.min_interval;
        }
        put_uvar(out, u64::from(run_delta));
        put_uvar(out, row.interval - next_interval);
        let mask = row
            .fires
            .0
            .iter()
            .enumerate()
            .filter(|(_, &n)| n > 0)
            .fold(0u64, |m, (slot, _)| m | 1 << slot);
        put_uvar(out, mask);
        for &n in row.fires.0.iter().filter(|&&n| n > 0) {
            put_uvar(out, u64::from(n));
        }
        run = row.run;
        next_interval = row.interval.wrapping_add(1);
    }
}

/// Streams one entry's rollup rows off the arena, in (run, interval)
/// order. Every row is checked as it is decoded: inside the entry's run
/// and interval box, a non-empty slot mask of non-zero `u32` counts.
/// A malformed row ends the stream with an error.
#[derive(Debug)]
pub struct RollupRows<'a> {
    cursor: Cursor<'a>,
    left: u64,
    entry: &'a IndexEntry,
    run: u64,
    next_interval: u64,
}

impl<'a> RollupRows<'a> {
    /// Starts reading `entry`'s rows at the front of `bytes`; the row
    /// count may not exceed the entry's `n_records`.
    pub fn new(bytes: &'a [u8], entry: &'a IndexEntry) -> Result<Self, &'static str> {
        let mut cursor = Cursor::new(bytes);
        let left = read_uvar(&mut cursor).map_err(|_| "rollup row count truncated")?;
        if left > u64::from(entry.n_records) {
            return Err("rollup holds more rows than its batch has records");
        }
        Ok(Self {
            cursor,
            left,
            entry,
            run: u64::from(entry.min_run),
            next_interval: entry.min_interval,
        })
    }

    /// Bytes consumed so far.
    pub fn consumed(&self) -> usize {
        self.cursor.pos()
    }

    /// The next varint of the current row.
    fn uvar(&mut self) -> Result<u64, &'static str> {
        read_uvar(&mut self.cursor).map_err(|_| "rollup row truncated")
    }

    fn row(&mut self) -> Result<RollupRow, &'static str> {
        let e = self.entry;
        let run_delta = self.uvar()?;
        if run_delta > 0 {
            self.next_interval = e.min_interval;
        }
        self.run = self.run.saturating_add(run_delta);
        let run = u32::try_from(self.run)
            .ok()
            .filter(|&r| r <= e.max_run)
            .ok_or("rollup row outside the entry's run box")?;
        let interval = self
            .next_interval
            .checked_add(self.uvar()?)
            .filter(|&i| e.min_interval <= i && i <= e.max_interval)
            .ok_or("rollup row outside the entry's interval box")?;
        self.next_interval = interval.wrapping_add(1);
        let mask = self.uvar()?;
        if mask == 0 || mask >> FireTally::SLOTS != 0 {
            return Err("rollup row has an empty or out-of-range slot mask");
        }
        let mut fires = FireTally::default();
        let mut left = mask;
        while left != 0 {
            let slot = left.trailing_zeros() as usize;
            left &= left - 1;
            let count = self
                .uvar()
                .and_then(|n| u32::try_from(n).map_err(|_| "rollup count exceeds u32"))?;
            if count == 0 {
                return Err("rollup row has a zero count under its mask");
            }
            if let Some(c) = fires.0.get_mut(slot) {
                *c = count;
            }
        }
        Ok(RollupRow {
            run,
            interval,
            fires,
        })
    }
}

impl Iterator for RollupRows<'_> {
    type Item = Result<RollupRow, &'static str>;

    fn next(&mut self) -> Option<Self::Item> {
        if self.left == 0 {
            return None;
        }
        let row = self.row();
        // An error ends the stream.
        self.left = if row.is_ok() { self.left - 1 } else { 0 };
        Some(row)
    }
}

/// Checks one entry's rollup at the front of `bytes` against every
/// consistency rule a sidecar must meet — each row valid (see
/// [`RollupRows`]) and the rows summing, slot by slot, to the entry's
/// `fires` — and returns the bytes it spans.
fn check_rows(bytes: &[u8], entry: &IndexEntry) -> Result<usize, &'static str> {
    let mut rows = RollupRows::new(bytes, entry)?;
    let mut sums = [0u64; FireTally::SLOTS];
    for row in rows.by_ref() {
        for (sum, n) in sums.iter_mut().zip(row?.fires.0) {
            *sum += u64::from(n);
        }
    }
    if sums
        .iter()
        .zip(entry.fires.0)
        .any(|(&sum, total)| sum != u64::from(total))
    {
        return Err("rollup rows do not sum to the entry's fire tally");
    }
    Ok(rows.consumed())
}

/// The sparse index of one segment: an [`IndexEntry`] per batch, in file
/// order, stamped with the segment byte length it describes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SegmentIndex {
    /// The segment this index describes.
    pub segment_id: u32,
    /// The segment's record-payload format (mirrored from its header so
    /// readers can plan a query without opening the segment file).
    pub version: FormatVersion,
    /// Segment byte length the entries cover (staleness check: a sidecar
    /// whose `seg_bytes` differs from the recovered segment is rebuilt).
    pub seg_bytes: u64,
    /// One entry per batch, in file order.
    pub entries: Vec<IndexEntry>,
    /// Every entry's encoded rollup rows, back to back in entry order
    /// (the sidecar's rollup section, kept in its wire form).
    pub rollup: Vec<u8>,
    /// Where each entry's rows start in `rollup`, one per pushed or
    /// parsed entry. Not on the wire: derived as the rollup is built or
    /// parsed.
    rollup_starts: Vec<usize>,
}

impl SegmentIndex {
    /// File name of segment `id`'s sidecar (`seg-000042.idx`).
    pub fn file_name(id: u32) -> String {
        format!("seg-{id:06}.idx")
    }

    /// An empty index for a fresh segment (header only).
    pub fn fresh(segment_id: u32, version: FormatVersion) -> Self {
        Self {
            segment_id,
            version,
            seg_bytes: segment::HEADER_LEN as u64,
            entries: Vec::new(),
            rollup: Vec::new(),
            rollup_starts: Vec::new(),
        }
    }

    /// Appends the batch `batch` has indexed: its entry, and its rollup
    /// rows encoded onto the arena.
    pub fn push(&mut self, batch: &BatchIndexer) {
        self.rollup_starts.push(self.rollup.len());
        encode_rows(&batch.entry, &batch.rows, &mut self.rollup);
        self.entries.push(batch.entry);
    }

    /// The rollup rows of entry `i`, in (run, interval) order.
    pub fn rollup_rows(&self, i: usize) -> Result<RollupRows<'_>, &'static str> {
        let (Some(entry), Some(&start)) = (self.entries.get(i), self.rollup_starts.get(i)) else {
            return Err("entry has no rollup");
        };
        let bytes = self
            .rollup
            .get(start..)
            .ok_or("rollup offset past the arena")?;
        RollupRows::new(bytes, entry)
    }

    /// Records in the segment, summed over the entries.
    pub fn records(&self) -> u64 {
        self.entries.iter().map(|e| u64::from(e.n_records)).sum()
    }

    /// Largest run id any entry has seen (`None` for an empty segment) —
    /// recovery uses this as the run-id high-water mark without decoding
    /// a single record.
    pub fn max_run(&self) -> Option<u32> {
        self.entries
            .iter()
            .filter(|e| e.n_records > 0)
            .map(|e| e.max_run)
            .max()
    }

    /// Serializes the sidecar bytes.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out =
            Vec::with_capacity(HEADER_LEN + self.entries.len() * ENTRY_LEN + self.rollup.len() + 4);
        out.extend_from_slice(&MAGIC);
        out.extend_from_slice(&self.segment_id.to_le_bytes());
        out.extend_from_slice(&(self.entries.len() as u32).to_le_bytes());
        out.extend_from_slice(&self.seg_bytes.to_le_bytes());
        out.extend_from_slice(&self.version.wire().to_le_bytes());
        out.extend_from_slice(&[0u8; 6]);
        for e in &self.entries {
            out.extend_from_slice(&e.offset.to_le_bytes());
            out.extend_from_slice(&e.n_records.to_le_bytes());
            out.extend_from_slice(&e.min_interval.to_le_bytes());
            out.extend_from_slice(&e.max_interval.to_le_bytes());
            out.extend_from_slice(&e.min_run.to_le_bytes());
            out.extend_from_slice(&e.max_run.to_le_bytes());
            out.extend_from_slice(&e.tenant_filter.0.to_le_bytes());
            out.extend_from_slice(&e.kinds.0.to_le_bytes());
            for slot in e.fires.0 {
                out.extend_from_slice(&slot.to_le_bytes());
            }
        }
        out.extend_from_slice(&self.rollup);
        let crc = crc32(&out[HEADER_LEN..]);
        out.extend_from_slice(&crc.to_le_bytes());
        out
    }

    /// Parses a sidecar; any inconsistency is an error (the caller then
    /// rebuilds from the segment).
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, String> {
        if bytes.len() < HEADER_LEN + 4 {
            return Err("index sidecar truncated".to_string());
        }
        if bytes[..8] != MAGIC {
            return Err("bad index magic".to_string());
        }
        let segment_id = u32::from_le_bytes([bytes[8], bytes[9], bytes[10], bytes[11]]);
        let n_entries = u32::from_le_bytes([bytes[12], bytes[13], bytes[14], bytes[15]]) as usize;
        let seg_bytes = u64::from_le_bytes([
            bytes[16], bytes[17], bytes[18], bytes[19], bytes[20], bytes[21], bytes[22], bytes[23],
        ]);
        let version = FormatVersion::from_wire(u16::from_le_bytes([bytes[24], bytes[25]]))?;
        let body_end = n_entries
            .checked_mul(ENTRY_LEN)
            .and_then(|len| len.checked_add(HEADER_LEN))
            .filter(|&end| end + 4 <= bytes.len())
            .ok_or_else(|| {
                format!(
                    "index sidecar length {} cannot hold {n_entries} entries",
                    bytes.len()
                )
            })?;
        let crc_at = bytes.len() - 4;
        let stored_crc = u32::from_le_bytes([
            bytes[crc_at],
            bytes[crc_at + 1],
            bytes[crc_at + 2],
            bytes[crc_at + 3],
        ]);
        let actual = crc32(&bytes[HEADER_LEN..crc_at]);
        if stored_crc != actual {
            return Err(format!(
                "index sidecar fails CRC: stored {stored_crc:08x}, computed {actual:08x}"
            ));
        }
        let rollup = &bytes[body_end..crc_at];
        let mut entries = Vec::with_capacity(n_entries);
        let mut rollup_starts = Vec::with_capacity(n_entries);
        let mut rollup_at = 0usize;
        for chunk in bytes[HEADER_LEN..body_end].chunks_exact(ENTRY_LEN) {
            let u64_at = |at: usize| {
                let mut a = [0u8; 8];
                a.copy_from_slice(&chunk[at..at + 8]);
                u64::from_le_bytes(a)
            };
            let u32_at = |at: usize| {
                let mut a = [0u8; 4];
                a.copy_from_slice(&chunk[at..at + 4]);
                u32::from_le_bytes(a)
            };
            let mut fires = FireTally::default();
            for (slot, v) in fires.0.iter_mut().enumerate() {
                *v = u32_at(46 + slot * 4);
            }
            let entry = IndexEntry {
                offset: u64_at(0),
                n_records: u32_at(8),
                min_interval: u64_at(12),
                max_interval: u64_at(20),
                min_run: u32_at(28),
                max_run: u32_at(32),
                tenant_filter: TenantFilter(u64_at(36)),
                kinds: KindSet(u16::from_le_bytes([chunk[44], chunk[45]])),
                fires,
            };
            rollup_starts.push(rollup_at);
            rollup_at += check_rows(&rollup[rollup_at..], &entry)
                .map_err(|e| format!("entry {}: {e}", entries.len()))?;
            entries.push(entry);
        }
        if rollup_at != rollup.len() {
            return Err(format!(
                "index sidecar has {} bytes after its rollup rows",
                rollup.len() - rollup_at
            ));
        }
        Ok(Self {
            segment_id,
            version,
            seg_bytes,
            entries,
            rollup: rollup.to_vec(),
            rollup_starts,
        })
    }

    /// Rebuilds the index by scanning (and fully decoding) the segment
    /// bytes — the fallback when the sidecar is missing or untrustworthy.
    pub fn build_from_segment(bytes: &[u8]) -> Result<Self, String> {
        let scan = segment::scan(bytes)?;
        let mut idx = Self::fresh(scan.segment_id, scan.version);
        idx.seg_bytes = scan.valid_len;
        idx.entries.reserve(scan.batches.len());
        idx.rollup_starts.reserve(scan.batches.len());
        let mut batch = BatchIndexer::new(0);
        for frame in &scan.batches {
            batch.restart(frame.offset);
            segment::decode_payload(frame.version, frame.payload, frame.n_records, |rec| {
                batch.absorb(rec)
            })
            .map_err(|e| format!("batch at offset {}: {e}", frame.offset))?;
            idx.push(&batch);
        }
        Ok(idx)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::record::{RecordPayload, RunId};
    use dasr_core::obs::{EventKind, RunEvent};

    /// An index holding one batch per record slice, offsets 16 apart.
    fn index_of(version: FormatVersion, batches: &[&[StoredRecord]]) -> SegmentIndex {
        let mut idx = SegmentIndex::fresh(3, version);
        for (i, recs) in batches.iter().enumerate() {
            let mut batch = BatchIndexer::new(16 * (i as u64 + 1));
            for r in *recs {
                batch.absorb(r);
            }
            idx.push(&batch);
        }
        idx.seg_bytes = 4096;
        idx
    }

    fn rec(run: u32, interval: u64) -> StoredRecord {
        StoredRecord {
            run: RunId(run),
            payload: RecordPayload::Event(RunEvent {
                tenant: None,
                interval,
                kind: EventKind::IntervalStart,
            }),
        }
    }

    #[test]
    fn bounding_boxes_and_overlap() {
        let e = IndexEntry::from_records(16, &[rec(1, 10), rec(3, 50), rec(2, 30)]);
        assert_eq!(e.n_records, 3);
        assert_eq!((e.min_interval, e.max_interval), (10, 50));
        assert_eq!((e.min_run, e.max_run), (1, 3));
        assert!(e.overlaps_intervals(0, 11));
        assert!(e.overlaps_intervals(50, 51));
        assert!(!e.overlaps_intervals(0, 10));
        assert!(!e.overlaps_intervals(51, 100));
        assert!(e.may_contain_run(2));
        assert!(!e.may_contain_run(4));
        assert!(!IndexEntry::empty(0).overlaps_intervals(0, u64::MAX));
    }

    #[test]
    fn tenant_filter_proves_absence_without_false_negatives() {
        let mut e = IndexEntry::empty(16);
        for t in [0u64, 7, 1_000_000] {
            e.absorb(&StoredRecord {
                run: RunId(0),
                payload: RecordPayload::Event(RunEvent {
                    tenant: Some(t),
                    interval: 1,
                    kind: EventKind::IntervalStart,
                }),
            });
        }
        // Stamped tenants must always pass (no false negatives).
        for t in [0u64, 7, 1_000_000] {
            assert!(e.may_contain_tenant(t), "tenant {t}");
        }
        // With 3 of 64 bits set, *some* absent tenant must fail the
        // filter — find one deterministically.
        let miss = (0..1000u64).find(|t| !e.may_contain_tenant(*t));
        assert!(miss.is_some(), "filter never prunes anything");
        // An un-stamped record contributes nothing.
        let mut blank = IndexEntry::empty(0);
        blank.absorb(&StoredRecord {
            run: RunId(0),
            payload: RecordPayload::Event(RunEvent {
                tenant: None,
                interval: 1,
                kind: EventKind::IntervalStart,
            }),
        });
        assert_eq!(blank.tenant_filter, TenantFilter(0));
    }

    #[test]
    fn kind_set_tracks_event_tags_and_samples() {
        let mut e = IndexEntry::empty(16);
        e.absorb(&rec(0, 1)); // IntervalStart
        assert!(e.kinds.intersects(1 << etag::INTERVAL_START));
        assert!(!e.kinds.intersects(1 << etag::BUDGET_THROTTLE));
        assert!(!e.kinds.has_samples());
        assert!(e.kinds.intersects(KindSet::ALL_EVENTS));
    }

    #[test]
    fn fire_tally_slot_mapping_and_round_trip() {
        // One event per counted shape (some twice), exercising every
        // tally slot plus the two no-count shapes.
        let ev = |kind: EventKind| StoredRecord {
            run: RunId(0),
            payload: RecordPayload::Event(RunEvent {
                tenant: None,
                interval: 1,
                kind,
            }),
        };
        let mut e = BatchIndexer::new(16);
        e.absorb(&ev(EventKind::IntervalStart));
        e.absorb(&ev(EventKind::IntervalEnd {
            latency_ms: Some(2.0),
            completed: 5,
            rejected: 0,
        }));
        e.absorb(&ev(EventKind::ResizeIssued {
            from_rung: 0,
            to_rung: 1,
        }));
        e.absorb(&ev(EventKind::ResizeDenied {
            reason: DenyReason::Cooldown,
        }));
        e.absorb(&ev(EventKind::ResizeDenied {
            reason: DenyReason::Budget,
        }));
        e.absorb(&ev(EventKind::ResizeDenied {
            reason: DenyReason::Budget,
        }));
        e.absorb(&ev(EventKind::BudgetThrottle { headroom_pct: 1.0 }));
        e.absorb(&ev(EventKind::BalloonTrigger {
            phase: BalloonPhase::Started,
            target_mb: Some(64.0),
        }));
        e.absorb(&ev(EventKind::BalloonTrigger {
            phase: BalloonPhase::Aborted,
            target_mb: None,
        }));
        e.absorb(&ev(EventKind::BalloonTrigger {
            phase: BalloonPhase::Confirmed,
            target_mb: Some(64.0),
        }));
        e.absorb(&ev(EventKind::SloViolation {
            observed_ms: 9.0,
            goal_ms: 5.0,
        }));
        // IntervalEnd tallies nothing; every other slot as documented.
        assert_eq!(e.entry.fires, FireTally([1, 1, 1, 2, 1, 1, 1, 1, 1]));
        assert_eq!(e.n_records(), 11);
        // All in one (run, interval): one rollup row carrying the tally.
        assert_eq!(e.rows.len(), 1);
        assert_eq!(e.rows[0].fires, e.entry.fires);

        // The tally survives the sidecar wire format.
        let mut idx = SegmentIndex::fresh(3, FormatVersion::V2);
        idx.push(&e);
        let parsed = SegmentIndex::from_bytes(&idx.to_bytes()).expect("parse");
        assert_eq!(parsed, idx);
    }

    #[test]
    fn sidecar_round_trips() {
        let idx = index_of(FormatVersion::V2, &[&[rec(0, 5)], &[rec(1, 7), rec(1, 9)]]);
        let bytes = idx.to_bytes();
        let back = SegmentIndex::from_bytes(&bytes).expect("parses");
        assert_eq!(back, idx);
        assert_eq!(back.records(), 3);
        assert_eq!(back.max_run(), Some(1));
        assert_eq!(
            SegmentIndex::fresh(9, FormatVersion::default()).max_run(),
            None
        );
    }

    #[test]
    fn each_entry_reads_its_own_rollup_rows() {
        let built = index_of(
            FormatVersion::V2,
            &[
                &[rec(0, 5)],
                &[rec(1, 7), rec(1, 9), rec(1, 9)],
                &[rec(2, 4)],
            ],
        );
        let parsed = SegmentIndex::from_bytes(&built.to_bytes()).expect("parses");
        for idx in [&built, &parsed] {
            let rows = |i| {
                idx.rollup_rows(i)
                    .expect("rows")
                    .map(|r| r.map(|r| (r.run, r.interval, r.fires.0[0])))
                    .collect::<Result<Vec<_>, _>>()
                    .expect("rows decode")
            };
            assert_eq!(rows(0), vec![(0, 5, 1)]);
            assert_eq!(rows(1), vec![(1, 7, 1), (1, 9, 2)]);
            assert_eq!(rows(2), vec![(2, 4, 1)]);
            assert!(idx.rollup_rows(3).is_err(), "no entry 3");
        }
    }

    #[test]
    fn corrupt_sidecars_are_rejected() {
        let idx = index_of(FormatVersion::V1, &[&[rec(0, 1)]]);
        let bytes = idx.to_bytes();
        assert!(SegmentIndex::from_bytes(&bytes[..10]).is_err());
        let mut bad = bytes.clone();
        bad[0] = b'X';
        assert!(SegmentIndex::from_bytes(&bad).is_err());
        let mut bad = bytes.clone();
        bad[HEADER_LEN + 2] ^= 1; // entry byte: CRC must catch it
        assert!(SegmentIndex::from_bytes(&bad).is_err());
        let mut bad = bytes;
        bad.truncate(bad.len() - 1);
        assert!(SegmentIndex::from_bytes(&bad).is_err());
        // Older-magic sidecars fail the magic check → rebuilt.
        for magic in [0x01, 0x02] {
            let mut old = idx.to_bytes();
            old[7] = magic;
            assert!(SegmentIndex::from_bytes(&old)
                .expect_err("old magic")
                .contains("magic"));
        }
    }

    #[test]
    fn rollup_rows_encode_and_inconsistent_rollups_are_rejected() {
        let ev = |run: u32, interval: u64, kind: EventKind| StoredRecord {
            run: RunId(run),
            payload: RecordPayload::Event(RunEvent {
                tenant: Some(1),
                interval,
                kind,
            }),
        };
        let recs = [
            ev(
                0,
                3,
                EventKind::ResizeIssued {
                    from_rung: 0,
                    to_rung: 1,
                },
            ),
            ev(1, 4, EventKind::BudgetThrottle { headroom_pct: 1.0 }),
            ev(0, 5, EventKind::IntervalStart),
        ];
        let idx = index_of(FormatVersion::V2, &[&recs]);
        // Rows sorted by (run, interval): (0,3) slot 1, (0,5) slot 0 —
        // interval 5 − (3 + 1) = 1 — then (1,4) slot 4, its interval
        // again from min_interval 3.
        assert_eq!(
            idx.rollup,
            vec![3, 0, 0, 0b10, 1, 0, 1, 0b1, 1, 1, 1, 0b1_0000, 1]
        );
        assert_eq!(SegmentIndex::from_bytes(&idx.to_bytes()).expect("ok"), idx);

        let reject = |edit: &dyn Fn(&mut Vec<u8>), why: &str| {
            let mut bad = idx.clone();
            edit(&mut bad.rollup);
            let err = SegmentIndex::from_bytes(&bad.to_bytes()).expect_err(why);
            assert!(err.contains("rollup"), "{why}: {err}");
        };
        reject(&|r| r[0] = 4, "more rows than records");
        reject(&|r| r[0] = 2, "rows stop short of the tally");
        reject(&|r| r[4] = 2, "rows overcount the tally");
        reject(&|r| r[9] = 2, "run past max_run");
        reject(&|r| r[6] = 2, "interval past max_interval");
        reject(&|r| r[3] = 0, "empty slot mask");
        // Slot 9 does not exist: a mask naming it is refused even when
        // the slots that do exist still sum to the tally.
        reject(
            &|r| {
                r.splice(3..5, [0x82, 0x04, 1, 1]).for_each(drop);
            },
            "slot mask past slot 8",
        );
        reject(&|r| r[3] = 0x80 | 0x7f, "truncated varint");
        reject(&|r| r[4] = 0, "zero count under the mask");
        reject(&|r| r.push(0), "bytes after the rows");
        // A huge row count is refused before anything is decoded.
        reject(
            &|r| {
                r.splice(0..1, [0xff, 0xff, 0xff, 0xff, 0x0f])
                    .for_each(drop)
            },
            "row count far past n_records",
        );
    }

    #[test]
    fn rebuild_matches_incremental_construction() {
        for version in [FormatVersion::V1, FormatVersion::V2] {
            let mut seg = segment::header_bytes(5, version).to_vec();
            let recs = [rec(0, 3), rec(0, 8), rec(1, 1)];
            let mut payload = Vec::new();
            match version {
                FormatVersion::V1 => {
                    for r in &recs {
                        r.encode_into(&mut payload);
                    }
                }
                FormatVersion::V2 => {
                    let mut enc = crate::codec::BatchEncoder::new();
                    for r in &recs {
                        enc.encode_into(r, &mut payload);
                    }
                }
            }
            segment::append_batch(&mut seg, recs.len() as u32, &payload);
            let rebuilt = SegmentIndex::build_from_segment(&seg).expect("rebuilds");
            assert_eq!(rebuilt.segment_id, 5);
            assert_eq!(rebuilt.version, version);
            assert_eq!(rebuilt.seg_bytes, seg.len() as u64);
            assert_eq!(rebuilt.entries, vec![IndexEntry::from_records(16, &recs)]);
            let rows: Vec<_> = rebuilt
                .rollup_rows(0)
                .expect("rows")
                .map(|r| r.map(|r| (r.run, r.interval)))
                .collect::<Result<_, _>>()
                .expect("rows decode");
            assert_eq!(rows, vec![(0, 3), (0, 8), (1, 1)]);
        }
    }
}
