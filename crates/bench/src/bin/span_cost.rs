//! Span-cost probe: isolates av-trace's per-span overhead two ways.
//!
//! 1. **Hot micro loop** — open/attr/close the same span shape 100k times
//!    on one tracer. This is the lower bound: everything stays in cache
//!    and the clock's vDSO path is hot.
//! 2. **In-context replay** — the JOB workload replayed cold through
//!    `ExecCache` with tracing off vs. on, interleaved, median-of-60.
//!    Replay queries are tens of microseconds with ~7 spans each, so this
//!    is the densest realistic span rate; the per-span delta here runs
//!    2–3× the hot-loop figure (cold clock/cache effects).
//!
//! `exec_bench` owns the acceptance-budget measurement (< 5% over its
//! whole workload); this binary exists to attribute regressions when that
//! number moves. Knobs: `AV_JOB_SCALE`, `AV_SEED` via the usual env vars.

use av_bench::BenchConfig;
use av_engine::{ExecCache, Pricing};
use av_trace::Tracer;
use av_workload::job::job_workload;
use std::time::Instant;

const REPLAY_REPS: usize = 60;

fn main() {
    let cfg = BenchConfig::from_env();
    let w = job_workload(cfg.job_scale, cfg.seed);
    let plans = w.plans();
    // Warm the allocator and page cache before timing anything.
    for _ in 0..10 {
        let c = ExecCache::new(Pricing::paper_defaults(), 1);
        for p in &plans {
            c.run(&w.catalog, p).expect("query executes");
        }
    }

    // Hot micro loop: one span + three numeric attrs, a string attr on
    // every fourth (the executor's scan-span shape).
    let t = Tracer::new();
    let n = 100_000u64;
    let t0 = Instant::now();
    for i in 0..n {
        let s = t.span("exec.filter");
        if i % 4 == 0 {
            s.record_str("table", "cast_info");
        }
        s.record_num("rows", i as f64);
        s.record_num("bytes", 1.0);
        s.record_num("ops", 2.0);
    }
    println!(
        "hot micro loop: {:.0} ns/span",
        t0.elapsed().as_secs_f64() / n as f64 * 1e9
    );

    // In-context: cold replays off vs. on, interleaved so drift hits both.
    let mut off = Vec::with_capacity(REPLAY_REPS);
    let mut on = Vec::with_capacity(REPLAY_REPS);
    let tracer = Tracer::new();
    for _ in 0..REPLAY_REPS {
        let c = ExecCache::new(Pricing::paper_defaults(), 1);
        let t0 = Instant::now();
        for p in &plans {
            c.run(&w.catalog, p).expect("query executes");
        }
        off.push(t0.elapsed().as_secs_f64());
        let c = ExecCache::new(Pricing::paper_defaults(), 1).with_tracer(tracer.clone());
        let t0 = Instant::now();
        for p in &plans {
            c.run(&w.catalog, p).expect("query executes");
        }
        on.push(t0.elapsed().as_secs_f64());
    }
    off.sort_by(|a, b| a.total_cmp(b));
    on.sort_by(|a, b| a.total_cmp(b));
    let (off_p50, on_p50) = (off[REPLAY_REPS / 2], on[REPLAY_REPS / 2]);
    let spans_per_rep = tracer.span_count() as f64 / REPLAY_REPS as f64;
    println!(
        "replay p50: off {:.4}ms on {:.4}ms ({:+.1}%)  {:.0} spans/rep  delta/span {:.0} ns",
        off_p50 * 1e3,
        on_p50 * 1e3,
        (on_p50 / off_p50 - 1.0) * 100.0,
        spans_per_rep,
        (on_p50 - off_p50) / spans_per_rep * 1e9
    );
}
