//! Two threads observing a seeded stream of records leave the same counts
//! as one thread observing all of it: request totals, the totals' sketch
//! buckets, the residual aggregates' counts and the SLO request counts. The
//! lock `observe_query` takes must serialize every count.

#![allow(clippy::disallowed_methods, reason = "two threads observe one stream")]

use av_obs::{Obs, ObsConfig, QueryRecord, RecordStatus, TenantTag};
use std::sync::Barrier;
use std::thread;

const RECORDS: u64 = 4_000;
const OPS: [&str; 3] = ["Aggregate", "Join", "Project"];

/// splitmix64 — a seeded stream without a dev-dependency.
fn stream(mut state: u64) -> impl FnMut() -> u64 {
    move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Served, shed and failed requests of three tenants, with sub-µs to
/// multi-ms latencies, some estimates missing, degenerate or NaN.
fn records(seed: u64) -> Vec<(QueryRecord, &'static str)> {
    let mut next = stream(seed);
    (0..RECORDS)
        .map(|i| {
            let r = next();
            let status = match r % 16 {
                0 => RecordStatus::Shed,
                1 => RecordStatus::Error,
                _ => RecordStatus::Ok,
            };
            let est_cost = match (r >> 8) % 5 {
                0 => f64::NAN,
                1 => 0.0,
                k => k as f64 * 0.25,
            };
            let rec = QueryRecord {
                tenant: TenantTag::new(["a", "b", "c"][(r >> 4) as usize % 3]),
                plan_fp: i,
                view_fp: (r >> 12) % 7,
                epoch: 1,
                status,
                route_hits: ((r >> 16) % 3) as u32,
                cache_shard: 0,
                cache_hit: (r >> 20).is_multiple_of(2),
                admit_wait_nanos: (r >> 24) % 2_000,
                exec_nanos: (r >> 32) % 20_000_000,
                rows: 1,
                bytes: 8,
                est_cost,
                meas_cost: if (r >> 40).is_multiple_of(50) {
                    f64::NAN
                } else {
                    ((r >> 44) % 100) as f64 * 0.01
                },
            };
            (rec, OPS[(r >> 52) as usize % OPS.len()])
        })
        .collect()
}

/// Observe `recs` on `threads` threads, each taking every `threads`-th
/// record, released together. Every call passes the same clock reading, so
/// no SLO window rotates and the counts cannot depend on the interleaving.
fn observe(recs: &[(QueryRecord, &'static str)], threads: usize) -> Obs {
    let obs = Obs::new(ObsConfig::default());
    let start = Barrier::new(threads);
    thread::scope(|s| {
        for lane in 0..threads {
            let (obs, start) = (&obs, &start);
            s.spawn(move || {
                start.wait();
                for (rec, op) in recs.iter().skip(lane).step_by(threads) {
                    obs.observe_query(1_000, rec, op);
                }
            });
        }
    });
    obs
}

/// Every count the snapshot carries, as comparable text.
fn counts(obs: &Obs) -> Vec<String> {
    let t = obs.totals();
    let mut out = vec![format!(
        "served {} shed {} errors {} rewritten {} hits {} exec {} nan {}",
        t.served, t.shed, t.errors, t.rewritten, t.rewrite_hits, t.exec_nanos, t.nan_rejected
    )];
    for sketch in [&t.latency_us, &t.query_cost] {
        let snap = sketch.snapshot();
        let buckets: Vec<(f64, u64)> = snap.buckets.iter().map(|b| (b.upper, b.count)).collect();
        out.push(format!("count {} buckets {buckets:?}", snap.count));
    }
    let stats = obs.stats();
    out.push(format!(
        "recorded {} residuals {}",
        stats.recorded, stats.residuals.recorded
    ));
    let keyed = stats
        .residuals
        .per_view
        .iter()
        .map(|(k, a)| (k.to_string(), a))
        .chain(stats.residuals.per_op.iter().map(|(k, a)| (k.clone(), a)));
    for (key, a) in keyed {
        out.push(format!(
            "{key}: {} {} {}",
            a.samples, a.degenerate, a.overestimates
        ));
    }
    for slo in &stats.slo {
        out.push(format!(
            "{}: {} {}",
            slo.tenant, slo.requests, slo.shed_or_failed
        ));
    }
    out
}

#[test]
fn two_threads_count_what_one_thread_counts() {
    for seed in [7, 42] {
        let recs = records(seed);
        let one = counts(&observe(&recs, 1));
        assert_eq!(counts(&observe(&recs, 2)), one, "seed {seed}");
        assert!(one.len() > 10, "the stream reaches views, ops and tenants");
    }
}
