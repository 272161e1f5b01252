//! Concurrency hammers for the telemetry layer's one lock. Writer threads
//! push records through `Obs::observe_query` across many ring wraps while a
//! reader snapshots continuously: every dump must be a dense run of
//! sequence numbers ending at its capture point, and every record must be
//! internally consistent (all fields derive from one `(thread, iteration)`
//! pair by fixed formulas, so a torn mix of two writes is detectable).

#![allow(
    clippy::disallowed_methods,
    reason = "writer and reader threads hammer the one lock"
)]

use av_obs::{
    FlightDump, FlightRecord, Obs, ObsConfig, QueryRecord, RecordStatus, SloConfig, TenantTag,
};
use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;

const THREADS: u64 = 8;
const PER_THREAD: u64 = 1_000;
const CAPACITY: usize = 128;
// 8 * 1000 / 128 = 62.5 ring wraps.

/// Every field is a fixed function of the `(tid, i)` pair, so a reader can
/// recompute the whole record from `plan_fp` alone.
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
    assert_eq!(
        rec.cache_shard, want.cache_shard,
        "torn cache_shard: {rec:?}"
    );
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

/// A dump is at most one ring of records with dense, increasing sequence
/// numbers whose newest is the last record before the capture point.
fn check_dump(dump: &FlightDump) {
    assert!(dump.records.len() <= CAPACITY);
    let first = dump.seq_at - dump.records.len() as u64;
    for (seq, rec) in (first..).zip(&dump.records) {
        assert_eq!(rec.seq, seq, "dump sequence not dense and increasing");
        check_consistency(rec);
    }
}

#[test]
fn hammer_dumps_are_dense_and_untorn_across_ring_wraps() {
    let obs = Obs::new(ObsConfig {
        recorder_capacity: CAPACITY,
        ..ObsConfig::default()
    });
    let done = AtomicBool::new(false);
    let (dumps, records_seen) = thread::scope(|s| {
        let reader = s.spawn(|| {
            let (mut dumps, mut records_seen) = (0u64, 0usize);
            let mut take = || {
                let dump = obs.dump_now("hammer");
                check_dump(&dump);
                dumps += 1;
                records_seen += dump.records.len();
            };
            while !done.load(Ordering::SeqCst) {
                take();
            }
            // One more capture after the writers finish: on a single core
            // the loop above can spend its whole timeslice dumping an
            // empty ring before any writer runs.
            take();
            (dumps, records_seen)
        });
        let writers: Vec<_> = (0..THREADS)
            .map(|tid| {
                let obs = &obs;
                s.spawn(move || {
                    for i in 0..PER_THREAD {
                        obs.observe_query(i, &make_record(tid, i), "Scan");
                    }
                })
            })
            .collect();
        for w in writers {
            w.join().expect("writer panicked");
        }
        done.store(true, Ordering::SeqCst);
        reader.join().expect("reader panicked")
    });
    assert!(dumps > 0 && records_seen > 0, "reader never saw a record");

    let total = THREADS * PER_THREAD;
    assert_eq!(obs.stats().recorded, total);
    assert_eq!(obs.totals().served, total);
    let last = obs.dump_now("final");
    check_dump(&last);
    assert_eq!(last.seq_at, total);
    assert_eq!(last.records.len(), CAPACITY, "exactly the newest ring");
}

#[test]
fn a_triggered_dump_ends_with_the_request_that_triggered_it() {
    // One SLO interval spans the whole run, so the window never rotates and
    // `now_nanos` is free to name the request: a good observation cannot
    // fire an alert, so only the shedding writer's records can trigger.
    let config = ObsConfig {
        slo: SloConfig {
            interval_nanos: u64::MAX,
            min_events: 8,
            ..SloConfig::default()
        },
        ..ObsConfig::default()
    };
    let shed_fp = |i: u64| (1 << 40) | i;
    for _ in 0..50 {
        let obs = Obs::new(config.clone());
        let done = AtomicBool::new(false);
        thread::scope(|s| {
            s.spawn(|| {
                let mut i = 0;
                while !done.load(Ordering::SeqCst) {
                    let mut rec = make_record(0, 0);
                    rec.plan_fp = i;
                    obs.observe_query(i, &rec, "Scan");
                    i += 1;
                }
            });
            s.spawn(|| {
                for i in 0..16 {
                    let mut rec = make_record(1, i);
                    rec.plan_fp = shed_fp(i);
                    rec.status = RecordStatus::Shed;
                    obs.observe_query(shed_fp(i), &rec, "Scan");
                }
                done.store(true, Ordering::SeqCst);
            });
        });
        let alerts = obs.alerts();
        let dumps = obs.dumps();
        assert_eq!(
            alerts.len(),
            2,
            "both objectives fire on the shedding tenant"
        );
        assert_eq!(dumps.len(), 2, "one dump per alert");
        for (alert, dump) in alerts.iter().zip(&dumps) {
            let last = dump.records.last().expect("non-empty dump");
            assert_eq!(last.seq, dump.seq_at - 1);
            assert_eq!(last.status, RecordStatus::Shed);
            assert_eq!(
                last.plan_fp, alert.at_nanos,
                "the trigger is the newest record"
            );
        }
    }
}
