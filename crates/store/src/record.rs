//! Binary record codec: [`RunEvent`]s and [`SampleRecord`]s as
//! fixed-layout little-endian frames.
//!
//! The store is a *binary* log — JSONL is the interchange format at the
//! edges (sinks, recordings), but on disk every record is a compact frame
//! whose floats are stored as raw IEEE-754 bits (`f64::to_bits`). That
//! choice is what makes the store lossless: a float that round-trips
//! through its bits is the *same* float, so a recording loaded back from
//! the store renders byte-identical JSONL to the live run
//! (`store_replay_roundtrip` pins this). The full byte layout is specified
//! in `docs/STORE_FORMAT.md`; the `format_spec` test decodes the worked
//! hex example in that document with this module's real decoder, so the
//! spec cannot drift from the implementation.
//!
//! Record types here are R1-protected (`dasr-lint`): no `String` fields —
//! human-readable output is rendered from structure at print time, never
//! stored.

use dasr_containers::RESOURCE_KINDS;
use dasr_core::obs::{BalloonPhase, DenyReason, EventKind, RunEvent};
use dasr_core::SampleRecord;
use dasr_engine::waits::WAIT_CLASSES;
use dasr_telemetry::{ProbeStatus, TelemetrySample};

/// Record kind tag: a [`RunEvent`] frame.
pub const KIND_EVENT: u8 = 1;
/// Record kind tag: a [`SampleRecord`] frame.
pub const KIND_SAMPLE: u8 = 2;

/// Wire encoding of "no tenant stamp".
pub const TENANT_NONE: u64 = u64::MAX;

/// Event-kind tags (field `etag` of an event frame).
pub mod etag {
    /// [`super::EventKind::IntervalStart`].
    pub const INTERVAL_START: u8 = 0;
    /// [`super::EventKind::IntervalEnd`].
    pub const INTERVAL_END: u8 = 1;
    /// [`super::EventKind::ResizeIssued`].
    pub const RESIZE_ISSUED: u8 = 2;
    /// [`super::EventKind::ResizeDenied`].
    pub const RESIZE_DENIED: u8 = 3;
    /// [`super::EventKind::BudgetThrottle`].
    pub const BUDGET_THROTTLE: u8 = 4;
    /// [`super::EventKind::BalloonTrigger`].
    pub const BALLOON_TRIGGER: u8 = 5;
    /// [`super::EventKind::SloViolation`].
    pub const SLO_VIOLATION: u8 = 6;

    /// Number of distinct event tags.
    pub const COUNT: u8 = 7;
}

/// The wire tag of an event kind (shared by both frame formats and the
/// index's per-batch kind bitmap).
// dasr-lint: no-alloc
pub fn etag_of(kind: &EventKind) -> u8 {
    match kind {
        EventKind::IntervalStart => etag::INTERVAL_START,
        EventKind::IntervalEnd { .. } => etag::INTERVAL_END,
        EventKind::ResizeIssued { .. } => etag::RESIZE_ISSUED,
        EventKind::ResizeDenied { .. } => etag::RESIZE_DENIED,
        EventKind::BudgetThrottle { .. } => etag::BUDGET_THROTTLE,
        EventKind::BalloonTrigger { .. } => etag::BALLOON_TRIGGER,
        EventKind::SloViolation { .. } => etag::SLO_VIOLATION,
    }
}

/// Flag bits shared by event and sample frames.
pub(crate) mod flag {
    /// Event: `latency_ms`/`target_mb` present. Sample: `latency_ms`
    /// present.
    pub const OPT_A: u8 = 1 << 0;
    /// Sample: `avg_latency_ms` present.
    pub const OPT_B: u8 = 1 << 1;
    /// Sample: balloon probe active.
    pub const PROBE_ACTIVE: u8 = 1 << 2;
    /// Sample: active probe reached its target.
    pub const PROBE_REACHED: u8 = 1 << 3;
}

/// A run's identity within one store: dense, assigned by
/// [`Store::begin_run`](crate::Store::begin_run) in open order.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct RunId(pub u32);

impl std::fmt::Display for RunId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "run-{:04}", self.0)
    }
}

/// What a stored record carries: one of the two telemetry shapes that
/// cross the closed loop's seams.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum RecordPayload {
    /// A structured run event (the `core::obs` stream).
    Event(RunEvent),
    /// A per-interval telemetry sample + probe state (the `core::replay`
    /// unit — what [`ReplaySource`](dasr_core::ReplaySource) plays back).
    Sample(SampleRecord),
}

/// One record of the segmented log: a run-stamped payload.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StoredRecord {
    /// The run this record belongs to.
    pub run: RunId,
    /// The payload.
    pub payload: RecordPayload,
}

impl StoredRecord {
    /// The record's billing interval (what the sparse time index ranges
    /// over).
    // dasr-lint: no-alloc
    pub fn interval(&self) -> u64 {
        match &self.payload {
            RecordPayload::Event(ev) => ev.interval,
            RecordPayload::Sample(s) => s.sample.interval,
        }
    }

    /// The record's tenant stamp, if any.
    // dasr-lint: no-alloc
    pub fn tenant(&self) -> Option<u64> {
        match &self.payload {
            RecordPayload::Event(ev) => ev.tenant,
            RecordPayload::Sample(s) => s.tenant,
        }
    }

    /// Appends the record's wire frame (`rec_len u16` + body) to `buf`.
    ///
    /// The frame layout is fixed per kind — see `docs/STORE_FORMAT.md` —
    /// so the append hot path never allocates beyond the caller's buffer.
    pub fn encode_into(&self, buf: &mut Vec<u8>) {
        let len_at = buf.len();
        put_u16(buf, 0); // patched below
        put_u32(buf, self.run.0);
        match &self.payload {
            RecordPayload::Event(ev) => {
                buf.push(KIND_EVENT);
                encode_event(ev, buf);
            }
            RecordPayload::Sample(rec) => {
                buf.push(KIND_SAMPLE);
                encode_sample(rec, buf);
            }
        }
        let body = (buf.len() - len_at - 2) as u16;
        buf[len_at..len_at + 2].copy_from_slice(&body.to_le_bytes());
    }

    /// Decodes one wire frame from the front of `bytes`; returns the
    /// record and the number of bytes consumed.
    pub fn decode(bytes: &[u8]) -> Result<(Self, usize), String> {
        let mut c = Cursor::new(bytes);
        let body_len = c.u16()? as usize;
        let frame_len = 2 + body_len;
        if bytes.len() < frame_len {
            return Err(format!(
                "record frame truncated: header promises {body_len} body bytes, {} available",
                bytes.len() - 2
            ));
        }
        let run = RunId(c.u32()?);
        let kind = c.u8()?;
        let payload = match kind {
            KIND_EVENT => RecordPayload::Event(decode_event(&mut c)?),
            KIND_SAMPLE => RecordPayload::Sample(decode_sample(&mut c)?),
            other => return Err(format!("unknown record kind {other}")),
        };
        if c.pos != frame_len {
            return Err(format!(
                "record frame length mismatch: header promises {frame_len} bytes, decoder consumed {}",
                c.pos
            ));
        }
        Ok((Self { run, payload }, frame_len))
    }
}

/// Event frame body: `tenant u64 | interval u64 | etag u8 | flags u8 |
/// a u64 | b u64 | c u64` (42 bytes; unused of a/b/c are zero).
// dasr-lint: no-alloc
fn encode_event(ev: &RunEvent, buf: &mut Vec<u8>) {
    put_u64(buf, ev.tenant.unwrap_or(TENANT_NONE));
    put_u64(buf, ev.interval);
    let (tag, flags, a, b, cc) = match &ev.kind {
        EventKind::IntervalStart => (etag::INTERVAL_START, 0, 0, 0, 0),
        EventKind::IntervalEnd {
            latency_ms,
            completed,
            rejected,
        } => (
            etag::INTERVAL_END,
            latency_ms.map_or(0, |_| flag::OPT_A),
            latency_ms.map_or(0, f64::to_bits),
            *completed,
            *rejected,
        ),
        EventKind::ResizeIssued { from_rung, to_rung } => (
            etag::RESIZE_ISSUED,
            0,
            u64::from(*from_rung),
            u64::from(*to_rung),
            0,
        ),
        EventKind::ResizeDenied { reason } => {
            let code = match reason {
                DenyReason::Cooldown => 0,
                DenyReason::Budget => 1,
            };
            (etag::RESIZE_DENIED, 0, code, 0, 0)
        }
        EventKind::BudgetThrottle { headroom_pct } => {
            (etag::BUDGET_THROTTLE, 0, headroom_pct.to_bits(), 0, 0)
        }
        EventKind::BalloonTrigger { phase, target_mb } => {
            let code = match phase {
                BalloonPhase::Started => 0,
                BalloonPhase::Aborted => 1,
                BalloonPhase::Confirmed => 2,
            };
            (
                etag::BALLOON_TRIGGER,
                target_mb.map_or(0, |_| flag::OPT_A),
                code,
                target_mb.map_or(0, f64::to_bits),
                0,
            )
        }
        EventKind::SloViolation {
            observed_ms,
            goal_ms,
        } => (
            etag::SLO_VIOLATION,
            0,
            observed_ms.to_bits(),
            goal_ms.to_bits(),
            0,
        ),
    };
    buf.push(tag);
    buf.push(flags);
    put_u64(buf, a);
    put_u64(buf, b);
    put_u64(buf, cc);
}

fn decode_event(c: &mut Cursor<'_>) -> Result<RunEvent, String> {
    let tenant = opt_tenant(c.u64()?);
    let interval = c.u64()?;
    let tag = c.u8()?;
    let flags = c.u8()?;
    let a = c.u64()?;
    let b = c.u64()?;
    let cc = c.u64()?;
    let kind = match tag {
        etag::INTERVAL_START => EventKind::IntervalStart,
        etag::INTERVAL_END => EventKind::IntervalEnd {
            latency_ms: (flags & flag::OPT_A != 0).then(|| f64::from_bits(a)),
            completed: b,
            rejected: cc,
        },
        etag::RESIZE_ISSUED => EventKind::ResizeIssued {
            from_rung: a as u8,
            to_rung: b as u8,
        },
        etag::RESIZE_DENIED => EventKind::ResizeDenied {
            reason: match a {
                0 => DenyReason::Cooldown,
                1 => DenyReason::Budget,
                other => return Err(format!("unknown deny-reason code {other}")),
            },
        },
        etag::BUDGET_THROTTLE => EventKind::BudgetThrottle {
            headroom_pct: f64::from_bits(a),
        },
        etag::BALLOON_TRIGGER => EventKind::BalloonTrigger {
            phase: match a {
                0 => BalloonPhase::Started,
                1 => BalloonPhase::Aborted,
                2 => BalloonPhase::Confirmed,
                other => return Err(format!("unknown balloon-phase code {other}")),
            },
            target_mb: (flags & flag::OPT_A != 0).then(|| f64::from_bits(b)),
        },
        etag::SLO_VIOLATION => EventKind::SloViolation {
            observed_ms: f64::from_bits(a),
            goal_ms: f64::from_bits(b),
        },
        other => return Err(format!("unknown event tag {other}")),
    };
    Ok(RunEvent {
        tenant,
        interval,
        kind,
    })
}

/// Sample frame body: `tenant u64 | interval u64 | flags u8 | n_util u8 |
/// n_wait u8 | util f64-bits×n_util | wait f64-bits×n_wait | latency u64 |
/// avg u64 | completed u64 | arrivals u64 | rejected u64 | mem_used u64 |
/// mem_cap u64 | disk_rps u64` (171 bytes at the current arities).
// dasr-lint: no-alloc
fn encode_sample(rec: &SampleRecord, buf: &mut Vec<u8>) {
    let s = &rec.sample;
    put_u64(buf, rec.tenant.unwrap_or(TENANT_NONE));
    put_u64(buf, s.interval);
    let mut flags = 0u8;
    if s.latency_ms.is_some() {
        flags |= flag::OPT_A;
    }
    if s.avg_latency_ms.is_some() {
        flags |= flag::OPT_B;
    }
    match rec.probe {
        ProbeStatus::Inactive => {}
        ProbeStatus::Active { reached_target } => {
            flags |= flag::PROBE_ACTIVE;
            if reached_target {
                flags |= flag::PROBE_REACHED;
            }
        }
    }
    buf.push(flags);
    buf.push(RESOURCE_KINDS.len() as u8);
    buf.push(WAIT_CLASSES.len() as u8);
    for v in &s.util_pct {
        put_u64(buf, v.to_bits());
    }
    for v in &s.wait_ms {
        put_u64(buf, v.to_bits());
    }
    put_u64(buf, s.latency_ms.map_or(0, f64::to_bits));
    put_u64(buf, s.avg_latency_ms.map_or(0, f64::to_bits));
    put_u64(buf, s.completed);
    put_u64(buf, s.arrivals);
    put_u64(buf, s.rejected);
    put_u64(buf, s.mem_used_mb.to_bits());
    put_u64(buf, s.mem_capacity_mb.to_bits());
    put_u64(buf, s.disk_reads_per_sec.to_bits());
}

fn decode_sample(c: &mut Cursor<'_>) -> Result<SampleRecord, String> {
    let tenant = opt_tenant(c.u64()?);
    let interval = c.u64()?;
    let flags = c.u8()?;
    let n_util = c.u8()? as usize;
    let n_wait = c.u8()? as usize;
    if n_util != RESOURCE_KINDS.len() || n_wait != WAIT_CLASSES.len() {
        return Err(format!(
            "sample arity mismatch: frame has {n_util} util / {n_wait} wait slots, \
             this build expects {} / {}",
            RESOURCE_KINDS.len(),
            WAIT_CLASSES.len()
        ));
    }
    let mut util_pct = [0.0; RESOURCE_KINDS.len()];
    for slot in &mut util_pct {
        *slot = f64::from_bits(c.u64()?);
    }
    let mut wait_ms = [0.0; WAIT_CLASSES.len()];
    for slot in &mut wait_ms {
        *slot = f64::from_bits(c.u64()?);
    }
    let latency_bits = c.u64()?;
    let avg_bits = c.u64()?;
    let completed = c.u64()?;
    let arrivals = c.u64()?;
    let rejected = c.u64()?;
    let mem_used_mb = f64::from_bits(c.u64()?);
    let mem_capacity_mb = f64::from_bits(c.u64()?);
    let disk_reads_per_sec = f64::from_bits(c.u64()?);
    let probe = if flags & flag::PROBE_ACTIVE != 0 {
        ProbeStatus::Active {
            reached_target: flags & flag::PROBE_REACHED != 0,
        }
    } else {
        ProbeStatus::Inactive
    };
    Ok(SampleRecord {
        tenant,
        sample: TelemetrySample {
            interval,
            util_pct,
            wait_ms,
            latency_ms: (flags & flag::OPT_A != 0).then(|| f64::from_bits(latency_bits)),
            avg_latency_ms: (flags & flag::OPT_B != 0).then(|| f64::from_bits(avg_bits)),
            completed,
            arrivals,
            rejected,
            mem_used_mb,
            mem_capacity_mb,
            disk_reads_per_sec,
        },
        probe,
    })
}

// dasr-lint: no-alloc
fn opt_tenant(wire: u64) -> Option<u64> {
    (wire != TENANT_NONE).then_some(wire)
}

// dasr-lint: no-alloc
fn put_u16(buf: &mut Vec<u8>, v: u16) {
    buf.extend_from_slice(&v.to_le_bytes());
}

// dasr-lint: no-alloc
fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

// dasr-lint: no-alloc
fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

/// Bounds-checked little-endian reader over a byte slice. Shared with
/// the v2 codec ([`crate::codec`]) and the index's rollup reader, which
/// layer varint reads on top of the same truncation-checked primitive.
#[derive(Debug)]
pub struct Cursor<'a> {
    bytes: &'a [u8],
    pos: usize,
}

impl<'a> Cursor<'a> {
    /// A reader positioned at the start of `bytes`.
    pub fn new(bytes: &'a [u8]) -> Self {
        Self { bytes, pos: 0 }
    }

    /// Bytes consumed so far.
    pub fn pos(&self) -> usize {
        self.pos
    }

    fn take(&mut self, n: usize) -> Result<&'a [u8], String> {
        let end = self.pos.checked_add(n).filter(|&e| e <= self.bytes.len());
        match end {
            Some(end) => {
                // dasr-lint: allow(G3) reason="end is checked_add-filtered to at most bytes.len() before slicing"
                let out = &self.bytes[self.pos..end];
                self.pos = end;
                Ok(out)
            }
            None => Err(format!(
                "record truncated at byte {} (wanted {n} more of {})",
                self.pos,
                self.bytes.len()
            )),
        }
    }

    /// Reads one byte; errors on truncation.
    pub fn u8(&mut self) -> Result<u8, String> {
        match self.bytes.get(self.pos) {
            Some(&b) => {
                self.pos += 1;
                Ok(b)
            }
            None => Err(format!(
                "record truncated at byte {} (wanted 1 more of {})",
                self.pos,
                self.bytes.len()
            )),
        }
    }

    fn u16(&mut self) -> Result<u16, String> {
        let b = self.take(2)?;
        Ok(u16::from_le_bytes([b[0], b[1]]))
    }

    fn u32(&mut self) -> Result<u32, String> {
        let b = self.take(4)?;
        Ok(u32::from_le_bytes([b[0], b[1], b[2], b[3]]))
    }

    /// Reads a little-endian `u64`; errors on truncation.
    pub fn u64(&mut self) -> Result<u64, String> {
        let b = self.take(8)?;
        let mut arr = [0u8; 8];
        arr.copy_from_slice(b);
        Ok(u64::from_le_bytes(arr))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample(interval: u64) -> SampleRecord {
        SampleRecord {
            tenant: Some(9),
            sample: TelemetrySample {
                interval,
                util_pct: [12.5, 0.0, 99.9, 50.0],
                wait_ms: [1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0],
                latency_ms: Some(41.25),
                avg_latency_ms: None,
                completed: 640,
                arrivals: 650,
                rejected: 10,
                mem_used_mb: 1024.5,
                mem_capacity_mb: 2048.0,
                disk_reads_per_sec: 17.75,
            },
            probe: ProbeStatus::Active {
                reached_target: true,
            },
        }
    }

    fn all_events() -> Vec<EventKind> {
        vec![
            EventKind::IntervalStart,
            EventKind::IntervalEnd {
                latency_ms: Some(f64::consts_hack()),
                completed: 7,
                rejected: 0,
            },
            EventKind::IntervalEnd {
                latency_ms: None,
                completed: 0,
                rejected: 0,
            },
            EventKind::ResizeIssued {
                from_rung: 2,
                to_rung: 4,
            },
            EventKind::ResizeDenied {
                reason: DenyReason::Cooldown,
            },
            EventKind::ResizeDenied {
                reason: DenyReason::Budget,
            },
            EventKind::BudgetThrottle { headroom_pct: 12.5 },
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Started,
                target_mb: Some(1740.5),
            },
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Aborted,
                target_mb: None,
            },
            EventKind::BalloonTrigger {
                phase: BalloonPhase::Confirmed,
                target_mb: Some(900.0),
            },
            EventKind::SloViolation {
                observed_ms: 150.5,
                goal_ms: 100.0,
            },
        ]
    }

    trait ConstsHack {
        /// An f64 that does not survive a decimal round trip naively —
        /// bit-exact storage must preserve it anyway.
        fn consts_hack() -> f64;
    }
    impl ConstsHack for f64 {
        fn consts_hack() -> f64 {
            0.1 + 0.2 // 0.30000000000000004
        }
    }

    #[test]
    fn every_event_kind_round_trips_bit_exactly() {
        for (i, kind) in all_events().into_iter().enumerate() {
            let rec = StoredRecord {
                run: RunId(42),
                payload: RecordPayload::Event(RunEvent {
                    tenant: if i % 2 == 0 { Some(i as u64) } else { None },
                    interval: 1000 + i as u64,
                    kind,
                }),
            };
            let mut buf = Vec::new();
            rec.encode_into(&mut buf);
            let (back, used) = StoredRecord::decode(&buf).expect("decodes");
            assert_eq!(used, buf.len());
            assert_eq!(back, rec);
            // Stable encoding: re-encoding yields identical bytes.
            let mut buf2 = Vec::new();
            back.encode_into(&mut buf2);
            assert_eq!(buf2, buf);
        }
    }

    #[test]
    fn sample_round_trips_bit_exactly() {
        for probe in [
            ProbeStatus::Inactive,
            ProbeStatus::Active {
                reached_target: false,
            },
            ProbeStatus::Active {
                reached_target: true,
            },
        ] {
            let mut s = sample(77);
            s.probe = probe;
            s.tenant = None;
            let rec = StoredRecord {
                run: RunId(0),
                payload: RecordPayload::Sample(s),
            };
            let mut buf = Vec::new();
            rec.encode_into(&mut buf);
            let (back, used) = StoredRecord::decode(&buf).expect("decodes");
            assert_eq!(used, buf.len());
            assert_eq!(back, rec);
        }
    }

    #[test]
    fn frames_concatenate_and_split() {
        let mut buf = Vec::new();
        let recs: Vec<StoredRecord> = (0..5)
            .map(|i| StoredRecord {
                run: RunId(i),
                payload: if i % 2 == 0 {
                    RecordPayload::Event(RunEvent {
                        tenant: Some(u64::from(i)),
                        interval: u64::from(i) * 10,
                        kind: EventKind::IntervalStart,
                    })
                } else {
                    RecordPayload::Sample(sample(u64::from(i)))
                },
            })
            .collect();
        for r in &recs {
            r.encode_into(&mut buf);
        }
        let mut at = 0;
        let mut back = Vec::new();
        while at < buf.len() {
            let (rec, used) = StoredRecord::decode(&buf[at..]).expect("frame");
            back.push(rec);
            at += used;
        }
        assert_eq!(back, recs);
    }

    #[test]
    fn truncated_and_corrupt_frames_are_rejected() {
        let rec = StoredRecord {
            run: RunId(1),
            payload: RecordPayload::Sample(sample(3)),
        };
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        for cut in [0, 1, 5, buf.len() - 1] {
            assert!(StoredRecord::decode(&buf[..cut]).is_err(), "cut = {cut}");
        }
        // Unknown kind byte.
        let mut bad = buf.clone();
        bad[6] = 99;
        assert!(StoredRecord::decode(&bad).is_err());
        // Arity byte from a different build.
        let mut bad = buf;
        bad[24] = 3; // n_util
        assert!(StoredRecord::decode(&bad).is_err());
    }

    #[test]
    fn nan_payloads_survive_bit_exactly() {
        // NaN never survives JSON; the binary format must carry it.
        let rec = StoredRecord {
            run: RunId(0),
            payload: RecordPayload::Event(RunEvent {
                tenant: None,
                interval: 0,
                kind: EventKind::SloViolation {
                    observed_ms: f64::NAN,
                    goal_ms: f64::NEG_INFINITY,
                },
            }),
        };
        let mut buf = Vec::new();
        rec.encode_into(&mut buf);
        let (back, _) = StoredRecord::decode(&buf).expect("decodes");
        match back.payload {
            RecordPayload::Event(RunEvent {
                kind:
                    EventKind::SloViolation {
                        observed_ms,
                        goal_ms,
                    },
                ..
            }) => {
                assert_eq!(observed_ms.to_bits(), f64::NAN.to_bits());
                assert_eq!(goal_ms.to_bits(), f64::NEG_INFINITY.to_bits());
            }
            other => panic!("wrong payload {other:?}"),
        }
    }
}
