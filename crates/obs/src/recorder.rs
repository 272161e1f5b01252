//! Bounded flight recorder.
//!
//! A fixed-size ring of per-query event records, written once per served
//! request and dumped on demand or when an SLO burn-rate alert fires. The
//! ring is plain data: [`crate::Obs`] keeps it under the one lock that
//! `observe_query` already holds, so recording is a [`QueryRecord`] copy
//! into a slot, and a capture is a copy of the resident records. Records
//! are decoded into the exported [`FlightRecord`] form (tenant string,
//! `Option` estimate) only when a reader asks, outside the lock.
//!
//! Timestamps and durations arrive as fields of the caller-built
//! [`QueryRecord`] (taken from an injected `av_trace::Clock`); tenant names
//! are truncated into a fixed-width [`TenantTag`] before the call.

use serde::{Deserialize, Serialize};

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
        let end = self
            .0
            .iter()
            .position(|&b| b == 0)
            .unwrap_or(TENANT_TAG_BYTES);
        String::from_utf8_lossy(&self.0[..end])
            .trim_end_matches('\u{FFFD}')
            .to_string()
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

impl FlightRecord {
    fn decode(seq: u64, r: &QueryRecord) -> FlightRecord {
        FlightRecord {
            seq,
            tenant: r.tenant.decode(),
            plan_fp: r.plan_fp,
            view_fp: r.view_fp,
            epoch: r.epoch,
            status: r.status,
            route_hits: r.route_hits,
            cache_shard: r.cache_shard,
            cache_hit: r.cache_hit,
            admit_wait_nanos: r.admit_wait_nanos,
            exec_nanos: r.exec_nanos,
            rows: r.rows,
            bytes: r.bytes,
            est_cost: r.has_estimate().then_some(r.est_cost),
            meas_cost: r.meas_cost,
        }
    }
}

/// A captured ring snapshot: why it was taken and the records, in global
/// sequence order (oldest surviving record first).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FlightDump {
    /// What triggered the dump (`"on-demand"`, `"slo_latency_burn"`, …).
    pub reason: String,
    /// Global sequence counter at capture time.
    pub seq_at: u64,
    pub records: Vec<FlightRecord>,
}

/// A ring capture as copied under the lock, not yet decoded: the resident
/// records oldest first, the newest carrying sequence `seq_at - 1`.
#[derive(Debug, Clone)]
pub(crate) struct RawDump {
    pub(crate) seq_at: u64,
    pub(crate) records: Vec<QueryRecord>,
}

impl RawDump {
    pub(crate) fn decode(&self, reason: &str) -> FlightDump {
        let first = self.seq_at - self.records.len() as u64;
        FlightDump {
            reason: reason.to_string(),
            seq_at: self.seq_at,
            records: (first..)
                .zip(&self.records)
                .map(|(seq, r)| FlightRecord::decode(seq, r))
                .collect(),
        }
    }
}

/// One ring slot: a record padded to whole cache lines (a 112-byte
/// [`QueryRecord`] takes two), so neighbouring records share no line.
/// Successive requests are often recorded from different cores, and a
/// line shared by two records would pass between them on every write.
#[derive(Debug, Clone, Copy)]
#[repr(align(64))]
struct Slot(QueryRecord);

/// The ring of the newest `capacity` records. Not internally synchronized:
/// [`crate::Obs`] owns the locking.
#[derive(Debug)]
pub(crate) struct FlightRecorder {
    slots: Vec<Slot>,
    capacity: usize,
    /// The slot the next record goes to: `next % capacity`, kept so a
    /// record pays no division.
    cursor: usize,
    next: u64,
}

impl FlightRecorder {
    /// A ring holding the last `capacity` records (minimum 2).
    pub(crate) fn new(capacity: usize) -> FlightRecorder {
        let capacity = capacity.max(2);
        FlightRecorder {
            slots: Vec::with_capacity(capacity),
            capacity,
            cursor: 0,
            next: 0,
        }
    }

    /// Global sequence counter: total records ever recorded.
    pub(crate) fn sequence(&self) -> u64 {
        self.next
    }

    /// Record one query as sequence number [`FlightRecorder::sequence`].
    pub(crate) fn record(&mut self, rec: &QueryRecord) {
        let slot = Slot(*rec);
        if self.slots.len() < self.capacity {
            self.slots.push(slot);
        } else {
            self.slots[self.cursor] = slot;
        }
        self.cursor += 1;
        if self.cursor == self.capacity {
            self.cursor = 0;
        }
        self.next += 1;
    }

    /// Copy the resident records out, oldest first: the oldest sits at the
    /// next slot to be written. Until the ring first wraps, that is one
    /// past the end, and the copy is the ring as stored.
    pub(crate) fn capture(&self) -> RawDump {
        let (newer, older) = self.slots.split_at(self.cursor);
        let records = older.iter().chain(newer).map(|slot| slot.0).collect();
        RawDump {
            seq_at: self.next,
            records,
        }
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
        let d = r.capture().decode("on-demand");
        assert_eq!(d.seq_at, 0);
        assert!(d.records.is_empty());
    }

    #[test]
    fn records_decode_field_for_field() {
        let mut r = FlightRecorder::new(8);
        for i in 0..5 {
            r.record(&rec(i));
        }
        let d = r.capture().decode("on-demand");
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
        let mut r = FlightRecorder::new(4);
        for i in 0..10 {
            r.record(&rec(i));
        }
        assert_eq!(r.sequence(), 10);
        let d = r.capture().decode("on-demand");
        let seqs: Vec<u64> = d.records.iter().map(|x| x.seq).collect();
        assert_eq!(seqs, vec![6, 7, 8, 9], "last lap survives, oldest first");
        for fr in &d.records {
            assert_eq!(fr.plan_fp, fr.seq, "slot holds its latest lap's record");
        }
    }

    #[test]
    fn missing_estimate_is_nan_in_and_none_out() {
        let mut r = FlightRecorder::new(4);
        let mut q = rec(1);
        q.est_cost = f64::NAN;
        assert!(!q.has_estimate());
        r.record(&q);
        let d = r.capture().decode("on-demand");
        assert_eq!(d.records[0].est_cost, None);
    }

    #[test]
    fn tenant_tags_truncate_and_decode() {
        assert_eq!(TenantTag::new("acme").decode(), "acme");
        assert_eq!(TenantTag::new("").decode(), "");
        let long = "tenant-with-a-very-long-name";
        assert_eq!(TenantTag::new(long).decode(), &long[..TENANT_TAG_BYTES]);
    }

    #[test]
    fn dump_is_serializable() {
        let mut r = FlightRecorder::new(4);
        r.record(&rec(2));
        let text =
            serde_json::to_string_pretty(&r.capture().decode("unit-test")).expect("serializes");
        assert!(text.contains("\"reason\""), "{text}");
        assert!(text.contains("unit-test"), "{text}");
    }
}
