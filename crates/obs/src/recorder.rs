//! Bounded lock-free flight recorder.
//!
//! A fixed-size ring of per-query event records, written on the serving hot
//! path and dumped on demand or when an anomaly detector fires. The design
//! constraints, in order:
//!
//! 1. **The record path allocates nothing and reads no clock.** Timestamps
//!    and durations arrive as fields of the caller-built [`QueryRecord`]
//!    (taken from an injected `av_trace::Clock`); tenant names are
//!    truncated into a fixed-width [`TenantTag`] before the call. The
//!    `hot-path-alloc` lint rule in `av-analyze` enforces this over the
//!    marked region below.
//! 2. **No locks, no `unsafe`.** Every slot is a bank of `AtomicU64` words
//!    guarded by a per-slot sequence word (a safe-Rust seqlock). All
//!    accesses use `SeqCst`, so the torn-read argument is a statement
//!    about one total order of operations — see [`FlightRecorder::dump`].
//! 3. **Readers never block writers.** A dump walks the ring, re-checking
//!    each slot's sequence word around the copy and skipping slots that a
//!    writer touched mid-read.
//!
//! Slot protocol: a writer claims a global sequence number `seq` from
//! `next` and owns slot `seq % capacity`. It waits for the slot's previous
//! lap to finish (state == `done(seq - capacity)`), publishes
//! `state = writing(seq)` (odd), stores the record words, then publishes
//! `state = done(seq)` (even). Writers of *different* slots never interact;
//! writers of the same slot are serialized by the lap handoff, which only
//! contends when a full ring lap completes while a record is mid-write.

use serde::{Deserialize, Serialize};
use std::sync::atomic::{
    AtomicU64, Ordering::Acquire, Ordering::Relaxed, Ordering::Release, Ordering::SeqCst,
};

/// Bytes of tenant name preserved per record (longer names truncate).
pub const TENANT_TAG_BYTES: usize = 16;

/// Fixed-width tenant label: the first [`TENANT_TAG_BYTES`] bytes of the
/// tenant name, zero-padded. Building one copies bytes and never allocates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Default)]
pub struct TenantTag([u8; TENANT_TAG_BYTES]);

impl TenantTag {
    pub fn new(tenant: &str) -> TenantTag {
        let mut tag = [0u8; TENANT_TAG_BYTES];
        let src = tenant.as_bytes();
        let n = src.len().min(TENANT_TAG_BYTES);
        tag[..n].copy_from_slice(&src[..n]);
        TenantTag(tag)
    }

    /// The stored prefix, decoded (invalid UTF-8 from a truncated
    /// multi-byte character is dropped).
    pub fn decode(&self) -> String {
        let end = self.0.iter().position(|&b| b == 0).unwrap_or(TENANT_TAG_BYTES);
        String::from_utf8_lossy(&self.0[..end])
            .trim_end_matches('\u{FFFD}')
            .to_string()
    }

    fn to_words(self) -> [u64; 2] {
        let mut lo = [0u8; 8];
        let mut hi = [0u8; 8];
        lo.copy_from_slice(&self.0[..8]);
        hi.copy_from_slice(&self.0[8..]);
        [u64::from_le_bytes(lo), u64::from_le_bytes(hi)]
    }

    fn from_words(w: [u64; 2]) -> TenantTag {
        let mut tag = [0u8; TENANT_TAG_BYTES];
        tag[..8].copy_from_slice(&w[0].to_le_bytes());
        tag[8..].copy_from_slice(&w[1].to_le_bytes());
        TenantTag(tag)
    }
}

/// How one served request ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum RecordStatus {
    /// Executed and returned a result.
    Ok,
    /// Turned away by admission control (queue full).
    Shed,
    /// Execution failed.
    Error,
}

impl RecordStatus {
    fn to_code(self) -> u64 {
        match self {
            RecordStatus::Ok => 0,
            RecordStatus::Shed => 1,
            RecordStatus::Error => 2,
        }
    }

    fn from_code(code: u64) -> RecordStatus {
        match code {
            1 => RecordStatus::Shed,
            2 => RecordStatus::Error,
            _ => RecordStatus::Ok,
        }
    }
}

/// One served query's structured event record. `Copy`, fixed width, built
/// entirely from values the serving path already holds — constructing and
/// recording one performs no allocation.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct QueryRecord {
    pub tenant: TenantTag,
    /// Fingerprint of the query as submitted (pre-routing).
    pub plan_fp: u64,
    /// Canonical fingerprint of the view the query routed through
    /// (0 when no view fired).
    pub view_fp: u64,
    /// Deployment epoch the request executed against.
    pub epoch: u64,
    pub status: RecordStatus,
    /// Subtree replacements made by view routing (the route decision).
    pub route_hits: u32,
    /// Result-cache shard that served the lookup.
    pub cache_shard: u32,
    pub cache_hit: bool,
    /// Time spent waiting in admission control.
    pub admit_wait_nanos: u64,
    /// Route + execute time (excludes admission wait).
    pub exec_nanos: u64,
    pub rows: u64,
    pub bytes: u64,
    /// Estimator-predicted cost of the routed plan (NaN when the published
    /// deployment carries no estimate for this query).
    pub est_cost: f64,
    /// Measured cost actually paid.
    pub meas_cost: f64,
}

impl QueryRecord {
    /// True when the deployment carried an estimate for this query.
    pub fn has_estimate(&self) -> bool {
        !self.est_cost.is_nan()
    }
}

/// Words per slot: the packed [`QueryRecord`] plus its global sequence.
const WORDS: usize = 13;

// hot-path: begin — packing runs once per recorded query, inside the
// writer's critical window; it must stay allocation-free.

fn pack(seq: u64, r: &QueryRecord) -> [u64; WORDS] {
    let tenant = r.tenant.to_words();
    let flags = r.status.to_code()
        | ((r.cache_hit as u64) << 4)
        | ((r.route_hits as u64) << 16)
        | ((r.cache_shard as u64) << 40);
    [
        seq,
        tenant[0],
        tenant[1],
        r.plan_fp,
        r.view_fp,
        r.epoch,
        flags,
        r.admit_wait_nanos,
        r.exec_nanos,
        r.rows,
        r.bytes,
        r.est_cost.to_bits(),
        r.meas_cost.to_bits(),
    ]
}

// hot-path: end

fn unpack(w: &[u64; WORDS]) -> (u64, QueryRecord) {
    let flags = w[6];
    (
        w[0],
        QueryRecord {
            tenant: TenantTag::from_words([w[1], w[2]]),
            plan_fp: w[3],
            view_fp: w[4],
            epoch: w[5],
            status: RecordStatus::from_code(flags & 0xF),
            cache_hit: (flags >> 4) & 1 == 1,
            route_hits: ((flags >> 16) & 0xFF_FFFF) as u32,
            cache_shard: (flags >> 40) as u32,
            admit_wait_nanos: w[7],
            exec_nanos: w[8],
            rows: w[9],
            bytes: w[10],
            est_cost: f64::from_bits(w[11]),
            meas_cost: f64::from_bits(w[12]),
        },
    )
}

/// Per-slot state encoding. 0 = never written; `writing(seq)` (odd) while a
/// record is being stored; `done(seq)` (even, nonzero) once stable.
fn writing(seq: u64) -> u64 {
    seq * 2 + 1
}

fn done(seq: u64) -> u64 {
    seq * 2 + 2
}

struct Slot {
    state: AtomicU64,
    words: [AtomicU64; WORDS],
}

impl Slot {
    fn new() -> Slot {
        Slot {
            state: AtomicU64::new(0),
            words: std::array::from_fn(|_| AtomicU64::new(0)),
        }
    }
}

/// One decoded flight-recorder entry, as exported by a dump.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlightRecord {
    /// Global sequence number (record order across all threads).
    pub seq: u64,
    pub tenant: String,
    pub plan_fp: u64,
    pub view_fp: u64,
    pub epoch: u64,
    pub status: RecordStatus,
    pub route_hits: u32,
    pub cache_shard: u32,
    pub cache_hit: bool,
    pub admit_wait_nanos: u64,
    pub exec_nanos: u64,
    pub rows: u64,
    pub bytes: u64,
    /// `None` when the deployment carried no estimate (NaN in the record).
    pub est_cost: Option<f64>,
    pub meas_cost: f64,
}

/// A captured ring snapshot: why it was taken and the records, in global
/// sequence order (oldest surviving record first).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlightDump {
    /// What triggered the dump (`"on-demand"`, an anomaly kind, …).
    pub reason: String,
    /// Global sequence counter at capture time.
    pub seq_at: u64,
    pub records: Vec<FlightRecord>,
}

/// The bounded lock-free ring. Construction and dumping allocate; the
/// record path does not.
pub struct FlightRecorder {
    slots: Vec<Slot>,
    next: AtomicU64,
}

impl FlightRecorder {
    /// A ring holding the last `capacity` records (minimum 2).
    pub fn new(capacity: usize) -> FlightRecorder {
        let cap = capacity.max(2);
        FlightRecorder {
            slots: (0..cap).map(|_| Slot::new()).collect(),
            next: AtomicU64::new(0),
        }
    }

    pub fn capacity(&self) -> usize {
        self.slots.len()
    }

    /// Global sequence counter: total records ever claimed.
    pub fn sequence(&self) -> u64 {
        self.next.load(SeqCst)
    }

    /// Records currently resident (capacity once the ring has wrapped).
    pub fn len(&self) -> usize {
        (self.sequence() as usize).min(self.capacity())
    }

    pub fn is_empty(&self) -> bool {
        self.sequence() == 0
    }

    // hot-path: begin — the record path must stay allocation-free,
    // lock-free and wall-clock-free (enforced by av-analyze's
    // `hot-path-alloc` rule; timestamps arrive inside `rec`).

    /// Record one query. Returns the record's global sequence number.
    /// Wait-free against readers; a writer only spins when a full ring lap
    /// completed while the slot's previous writer was still mid-record.
    pub fn record(&self, rec: &QueryRecord) -> u64 {
        let seq = self.next.fetch_add(1, SeqCst);
        let cap = self.slots.len() as u64;
        let slot = &self.slots[(seq % cap) as usize];
        let prev = if seq >= cap { done(seq - cap) } else { 0 };
        // Lap handoff: sequence numbers are unique, so this writer is the
        // *only* thread waiting for `prev` and the only one that will ever
        // transition the state away from it — an acquire-load spin plus a
        // plain store claims the slot without an atomic RMW. The wait is
        // bounded by one in-flight record, but that record's writer may be
        // *descheduled* mid-record on an oversubscribed host; spinning
        // through its absence burns whole timeslices the stalled writer
        // needs, so after a short spin the wait yields the CPU instead.
        let mut spins = 0u32;
        while slot.state.load(Acquire) != prev {
            spins += 1;
            if spins > 64 {
                std::thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        slot.state.store(writing(seq), Relaxed);
        let words = pack(seq, rec);
        // Release suffices for the payload *and* the `done` store: the
        // acquire spin above orders them after the previous lap, each
        // payload release-store keeps the odd `writing` store ahead of it,
        // and the `done` release-store synchronizes with any reader whose
        // acquire load of the state observes it, carrying the payload
        // along. On x86 every store here is a plain mov — the record
        // path's only RMW is the sequence claim.
        for (w, v) in slot.words.iter().zip(words) {
            w.store(v, Release);
        }
        slot.state.store(done(seq), Release);
        seq
    }

    // hot-path: end

    /// Copy every stable record out of the ring, oldest first.
    ///
    /// Torn-read freedom: the copy is accepted only if the slot's state word
    /// reads the same *even* value before and after it. The writer's odd
    /// `writing(seq)` store precedes its payload release-stores, which
    /// keep it ahead of them in visibility; the `done(seq)` release-store
    /// then synchronizes with any reader whose (acquire-or-stronger) state
    /// load observes it, carrying the payload. The reader's payload loads
    /// are themselves `SeqCst`, so if one observes a value released by a
    /// newer writer, that writer's odd store happens-before the reader's
    /// second state load — which then cannot re-read the old even value,
    /// and the copy is rejected. Same-slot writers are serialized by the
    /// lap handoff, so two accepted even reads of one value bracket no
    /// writer activity.
    pub fn dump(&self, reason: &str) -> FlightDump {
        let seq_at = self.sequence();
        let mut records: Vec<FlightRecord> = Vec::with_capacity(self.len());
        let mut words = [0u64; WORDS];
        for slot in &self.slots {
            // A handful of retries rides out a concurrent writer; a slot
            // overwritten faster than we can read it is simply skipped —
            // dumps are best-effort snapshots, not barriers.
            for _ in 0..8 {
                let before = slot.state.load(SeqCst);
                if before == 0 {
                    break; // never written
                }
                if before % 2 == 1 {
                    std::hint::spin_loop();
                    continue; // mid-write; retry
                }
                for (out, w) in words.iter_mut().zip(&slot.words) {
                    *out = w.load(SeqCst);
                }
                if slot.state.load(SeqCst) == before {
                    let (seq, rec) = unpack(&words);
                    records.push(FlightRecord {
                        seq,
                        tenant: rec.tenant.decode(),
                        plan_fp: rec.plan_fp,
                        view_fp: rec.view_fp,
                        epoch: rec.epoch,
                        status: rec.status,
                        route_hits: rec.route_hits,
                        cache_shard: rec.cache_shard,
                        cache_hit: rec.cache_hit,
                        admit_wait_nanos: rec.admit_wait_nanos,
                        exec_nanos: rec.exec_nanos,
                        rows: rec.rows,
                        bytes: rec.bytes,
                        est_cost: if rec.est_cost.is_nan() {
                            None
                        } else {
                            Some(rec.est_cost)
                        },
                        meas_cost: rec.meas_cost,
                    });
                    break;
                }
            }
        }
        records.sort_by_key(|r| r.seq);
        FlightDump {
            reason: reason.to_string(),
            seq_at,
            records,
        }
    }
}

impl std::fmt::Debug for FlightRecorder {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FlightRecorder")
            .field("capacity", &self.capacity())
            .field("sequence", &self.sequence())
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(i: u64) -> QueryRecord {
        QueryRecord {
            tenant: TenantTag::new("tenant0"),
            plan_fp: i,
            view_fp: !i,
            epoch: 3,
            status: RecordStatus::Ok,
            route_hits: 1,
            cache_shard: (i % 16) as u32,
            cache_hit: i.is_multiple_of(2),
            admit_wait_nanos: 10 * i,
            exec_nanos: 1000 + i,
            rows: 7 * i,
            bytes: 31 * i,
            est_cost: i as f64 * 0.5,
            meas_cost: i as f64 * 0.75,
        }
    }

    #[test]
    fn empty_ring_dumps_nothing() {
        let r = FlightRecorder::new(8);
        assert!(r.is_empty());
        let d = r.dump("on-demand");
        assert_eq!(d.seq_at, 0);
        assert!(d.records.is_empty());
    }

    #[test]
    fn records_roundtrip_through_pack() {
        let r = FlightRecorder::new(8);
        for i in 0..5 {
            assert_eq!(r.record(&rec(i)), i);
        }
        let d = r.dump("on-demand");
        assert_eq!(d.records.len(), 5);
        for (i, fr) in d.records.iter().enumerate() {
            let want = rec(i as u64);
            assert_eq!(fr.seq, i as u64);
            assert_eq!(fr.tenant, "tenant0");
            assert_eq!(fr.plan_fp, want.plan_fp);
            assert_eq!(fr.view_fp, want.view_fp);
            assert_eq!(fr.epoch, want.epoch);
            assert_eq!(fr.status, want.status);
            assert_eq!(fr.route_hits, want.route_hits);
            assert_eq!(fr.cache_shard, want.cache_shard);
            assert_eq!(fr.cache_hit, want.cache_hit);
            assert_eq!(fr.admit_wait_nanos, want.admit_wait_nanos);
            assert_eq!(fr.exec_nanos, want.exec_nanos);
            assert_eq!(fr.rows, want.rows);
            assert_eq!(fr.bytes, want.bytes);
            assert_eq!(fr.est_cost, Some(want.est_cost));
            assert_eq!(fr.meas_cost, want.meas_cost);
        }
    }

    #[test]
    fn wraparound_keeps_the_newest_records_in_order() {
        let r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(&rec(i));
        }
        assert_eq!(r.len(), 4);
        assert_eq!(r.sequence(), 10);
        let d = r.dump("on-demand");
        let seqs: Vec<u64> = d.records.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "last lap survives, oldest first");
        for fr in &d.records {
            assert_eq!(fr.plan_fp, fr.seq, "slot holds its latest lap's record");
        }
    }

    #[test]
    fn missing_estimate_is_nan_in_and_none_out() {
        let r = FlightRecorder::new(4);
        let mut q = rec(1);
        q.est_cost = f64::NAN;
        assert!(!q.has_estimate());
        r.record(&q);
        let d = r.dump("on-demand");
        assert_eq!(d.records[0].est_cost, None);
    }

    #[test]
    fn tenant_tags_truncate_and_decode() {
        assert_eq!(TenantTag::new("acme").decode(), "acme");
        assert_eq!(TenantTag::new("").decode(), "");
        let long = "tenant-with-a-very-long-name";
        assert_eq!(TenantTag::new(long).decode(), &long[..TENANT_TAG_BYTES]);
        let tag = TenantTag::new("round-trip");
        assert_eq!(TenantTag::from_words(tag.to_words()), tag);
    }

    #[test]
    fn dump_is_serializable() {
        let r = FlightRecorder::new(4);
        r.record(&rec(2));
        let text = serde_json::to_string_pretty(&r.dump("unit-test")).expect("serializes");
        assert!(text.contains("\"reason\""), "{text}");
        assert!(text.contains("unit-test"), "{text}");
    }
}
