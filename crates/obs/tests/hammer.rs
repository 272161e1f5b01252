//! Concurrency hammer for the flight recorder (ISSUE 9 satellite 3):
//! N writer threads push records through ≥4 ring wraps while a dumper
//! thread snapshots continuously. Every record a dump returns must be
//! internally consistent (no torn records — all fields derive from one
//! `(thread, iteration)` pair by fixed formulas), and per-thread sequence
//! numbers must be strictly increasing in record-iteration order.

use av_obs::{FlightRecord, FlightRecorder, QueryRecord, RecordStatus, TenantTag};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::thread;

const THREADS: u64 = 8;
const PER_THREAD: u64 = 1_000;
const CAPACITY: usize = 128;
// 8 * 1000 / 128 = 62.5 ring wraps — far past the required 4.

/// Every field is a fixed function of the `(tid, i)` pair, so a dumper can
/// recompute the whole record from `plan_fp` alone and detect any torn
/// mix of two writes.
fn make_record(tid: u64, i: u64) -> QueryRecord {
    let fp = (tid << 32) | i;
    QueryRecord {
        tenant: TenantTag::new(tenant_name(tid).as_str()),
        plan_fp: fp,
        view_fp: fp ^ 0xdead_beef_cafe_f00d,
        epoch: tid + 1,
        status: RecordStatus::Ok,
        route_hits: (i % 7) as u32,
        cache_shard: (tid % 4) as u32,
        cache_hit: i.is_multiple_of(3),
        admit_wait_nanos: fp.wrapping_mul(3),
        exec_nanos: fp.wrapping_mul(31),
        rows: fp.wrapping_add(17),
        bytes: fp.wrapping_mul(5),
        est_cost: (fp % 1_000) as f64 + 0.5,
        meas_cost: (fp % 997) as f64 + 0.25,
    }
}

fn tenant_name(tid: u64) -> String {
    format!("tenant-{tid}")
}

/// Panic with context unless `rec` matches the formulas for its `plan_fp`.
fn check_consistency(rec: &FlightRecord) {
    let fp = rec.plan_fp;
    let tid = fp >> 32;
    let i = fp & 0xffff_ffff;
    assert!(tid < THREADS, "impossible thread id in {rec:?}");
    assert!(i < PER_THREAD, "impossible iteration in {rec:?}");
    let want = make_record(tid, i);
    assert_eq!(rec.tenant, tenant_name(tid), "torn tenant: {rec:?}");
    assert_eq!(rec.view_fp, want.view_fp, "torn view_fp: {rec:?}");
    assert_eq!(rec.epoch, want.epoch, "torn epoch: {rec:?}");
    assert_eq!(rec.status, want.status, "torn status: {rec:?}");
    assert_eq!(rec.route_hits, want.route_hits, "torn route_hits: {rec:?}");
    assert_eq!(rec.cache_shard, want.cache_shard, "torn cache_shard: {rec:?}");
    assert_eq!(rec.cache_hit, want.cache_hit, "torn cache_hit: {rec:?}");
    assert_eq!(
        rec.admit_wait_nanos, want.admit_wait_nanos,
        "torn admit_wait: {rec:?}"
    );
    assert_eq!(rec.exec_nanos, want.exec_nanos, "torn exec_nanos: {rec:?}");
    assert_eq!(rec.rows, want.rows, "torn rows: {rec:?}");
    assert_eq!(rec.bytes, want.bytes, "torn bytes: {rec:?}");
    assert_eq!(rec.est_cost, Some(want.est_cost), "torn est_cost: {rec:?}");
    assert_eq!(rec.meas_cost, want.meas_cost, "torn meas_cost: {rec:?}");
}

#[test]
fn hammer_no_torn_records_across_ring_wraps() {
    let recorder = Arc::new(FlightRecorder::new(CAPACITY));
    let done = Arc::new(AtomicBool::new(false));
    // (tid, i) -> global seq, reported by each writer for the monotonicity
    // check after the fact.
    let seqs: Arc<Mutex<Vec<Vec<u64>>>> = Arc::new(Mutex::new(Vec::new()));

    let dumper = {
        let recorder = Arc::clone(&recorder);
        let done = Arc::clone(&done);
        thread::spawn(move || {
            let mut dumps = 0u64;
            let mut records_seen = 0u64;
            let mut take = |recorder: &FlightRecorder| {
                let dump = recorder.dump("hammer");
                assert!(dump.records.len() <= CAPACITY);
                let mut last_seq = None;
                for rec in &dump.records {
                    check_consistency(rec);
                    if let Some(prev) = last_seq {
                        assert!(rec.seq > prev, "dump not in sequence order");
                    }
                    last_seq = Some(rec.seq);
                    records_seen += 1;
                }
                dumps += 1;
            };
            while !done.load(Ordering::SeqCst) {
                take(&recorder);
            }
            // One more capture after the writers finish: on a single core
            // the loop above can spend its whole timeslice dumping an
            // empty ring before any writer runs, so only this dump is
            // guaranteed to overlap committed records.
            take(&recorder);
            (dumps, records_seen)
        })
    };

    let writers: Vec<_> = (0..THREADS)
        .map(|tid| {
            let recorder = Arc::clone(&recorder);
            let seqs = Arc::clone(&seqs);
            thread::spawn(move || {
                let mut mine = Vec::with_capacity(PER_THREAD as usize);
                for i in 0..PER_THREAD {
                    mine.push(recorder.record(&make_record(tid, i)));
                }
                seqs.lock().unwrap().push(mine);
            })
        })
        .collect();

    for w in writers {
        w.join().expect("writer panicked");
    }
    done.store(true, Ordering::SeqCst);
    let (dumps, records_seen) = dumper.join().expect("dumper panicked");
    assert!(dumps > 0, "dumper never ran");
    assert!(records_seen > 0, "dumper never saw a committed record");

    // Global counter saw every claim exactly once.
    assert_eq!(recorder.sequence(), THREADS * PER_THREAD);

    // Per-thread sequence numbers are strictly increasing in issue order,
    // and no two records anywhere share a sequence number.
    let seqs = seqs.lock().unwrap();
    assert_eq!(seqs.len(), THREADS as usize);
    let mut all: Vec<u64> = Vec::with_capacity((THREADS * PER_THREAD) as usize);
    for mine in seqs.iter() {
        assert_eq!(mine.len(), PER_THREAD as usize);
        for pair in mine.windows(2) {
            assert!(pair[0] < pair[1], "per-thread seqs must be monotone");
        }
        all.extend_from_slice(mine);
    }
    all.sort_unstable();
    for (expect, got) in all.iter().enumerate() {
        assert_eq!(*got, expect as u64, "sequence numbers must be dense");
    }

    // The final quiescent dump holds exactly the newest CAPACITY records.
    let final_dump = recorder.dump("final");
    assert_eq!(final_dump.records.len(), CAPACITY);
    assert_eq!(final_dump.seq_at, THREADS * PER_THREAD);
    for rec in &final_dump.records {
        assert!(
            rec.seq >= THREADS * PER_THREAD - CAPACITY as u64,
            "stale record survived: seq {}",
            rec.seq
        );
        check_consistency(rec);
    }
}

#[test]
fn hammer_concurrent_writers_on_a_tiny_ring() {
    // Capacity 2 maximizes same-slot contention: every record contends for
    // one of two slots, stressing the lap-handoff CAS.
    let recorder = Arc::new(FlightRecorder::new(2));
    let writers: Vec<_> = (0..4u64)
        .map(|tid| {
            let recorder = Arc::clone(&recorder);
            thread::spawn(move || {
                for i in 0..500 {
                    recorder.record(&make_record(tid, i));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer panicked");
    }
    assert_eq!(recorder.sequence(), 2_000);
    let dump = recorder.dump("tiny");
    assert_eq!(dump.records.len(), 2);
    for rec in &dump.records {
        check_consistency(rec);
        assert!(rec.seq >= 1_998);
    }
}
