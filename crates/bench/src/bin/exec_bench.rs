//! Executor micro-benchmark, three gated sections:
//!
//! - **micro** — rows/sec for filter / aggregate micro-ops over JOB-scale
//!   tables, interpreted reference kernels vs the default selection-vector +
//!   typed-kernel path. The micro tables sit *below* the 16k-row parallel
//!   cutover on purpose: that regime gets no help from threading, so
//!   whatever the typed kernels buy is exactly what a small-batch query
//!   feels. Each micro asserts the two paths produce bitwise-identical
//!   batches and execution reports, and the bench fails if any optimized
//!   micro is slower than its reference.
//! - **spawn** — the same plan at 8k–64k rows through the serial path and
//!   the shared av-sched pool (parallelism forced on via a zero `min_rows`
//!   so the sub-cutover sizes are measured too), bitwise-equal. On
//!   multi-core hosts the pooled path must be profitable (≥1.0x vs serial)
//!   from 16k rows up — the measurement `PAR_MIN_ROWS` = 16_384 rests on.
//!   Single-core hosts report the numbers but skip the gate.
//! - **cache** — the plan-result cache's hit-rate and speedup on a cold then
//!   warm replay of the full JOB workload.
//!
//! Writes `BENCH_exec.json` (machine-readable, consumed by CI) to the
//! working directory and prints the same numbers as tables.
//!
//! Knobs: `AV_JOB_SCALE` (table scale, default 0.05), `AV_EXEC_SCALE`
//! (extra multiplier for the micro tables, default 20 — at the defaults the
//! fact table lands at 12k rows, under the cutover), `AV_EXEC_REPS`
//! (default 20), `AV_EXEC_THREADS` (pooled thread count on the spawn ladder,
//! default 4), `AV_SEED`.

use av_bench::{render_table, BenchConfig};
use av_engine::{ExecCache, Executor, Pricing};
use av_plan::{AggExpr, AggFunc, CmpOp, Expr, PlanBuilder, PlanRef};
use av_workload::job::job_workload;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct MicroResult {
    op: String,
    /// Input rows driven through the operator per iteration.
    rows: usize,
    /// Interpreted per-row kernels + mask materialization.
    reference_rows_per_sec: f64,
    /// Selection vectors + typed comparison / hoisted aggregate kernels.
    optimized_rows_per_sec: f64,
    /// optimized / reference (>1 means the typed path wins).
    speedup: f64,
}

#[derive(Debug, Clone, Serialize)]
struct SpawnResult {
    /// Fact-table rows driven through the plan.
    rows: usize,
    serial_rows_per_sec: f64,
    /// Through the shared av-sched pool.
    pooled_rows_per_sec: f64,
    /// serial time / pooled time (>1: parallelism profitable at this size).
    pooled_speedup: f64,
}

#[derive(Debug, Clone, Serialize)]
struct CacheResult {
    queries: usize,
    cold_seconds: f64,
    warm_seconds: f64,
    hit_rate: f64,
    speedup: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ExecBenchReport {
    job_scale: f64,
    exec_scale: f64,
    reps: usize,
    /// Pooled thread count on the spawn ladder (`AV_EXEC_THREADS`).
    threads: usize,
    /// Serial-fallback cutover: batches under this many rows never go
    /// parallel (see `av_engine::par::PAR_MIN_ROWS`).
    par_min_rows: usize,
    /// Host cores (`available_parallelism`); the spawn gate only applies
    /// when this is > 1.
    cores: usize,
    micro: Vec<MicroResult>,
    spawn: Vec<SpawnResult>,
    cache: CacheResult,
}

fn envf(key: &str, default: f64) -> f64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

/// Interleaved best-of-reps wall times for `plan` under two executors.
/// Alternating rep-by-rep means clock-frequency and allocator drift hits
/// both sides equally; taking each side's minimum rejects shared-core
/// scheduling noise (the minimum is the cleanest observation of the true
/// cost, and both sides get the same number of chances at it).
fn time_pair(a: &Executor<'_>, b: &Executor<'_>, plan: &PlanRef, reps: usize) -> (f64, f64) {
    // One warm-up run each keeps allocator noise out of the first sample.
    a.run(plan).expect("benchmark plan executes");
    b.run(plan).expect("benchmark plan executes");
    let (mut best_a, mut best_b) = (f64::INFINITY, f64::INFINITY);
    for _ in 0..reps {
        let start = Instant::now();
        a.run(plan).expect("benchmark plan executes");
        best_a = best_a.min(start.elapsed().as_secs_f64());
        let start = Instant::now();
        b.run(plan).expect("benchmark plan executes");
        best_b = best_b.min(start.elapsed().as_secs_f64());
    }
    (best_a, best_b)
}

fn main() {
    // Debug runs schema-verify every executed plan (no-op in release, so
    // measured throughput is unaffected where it matters).
    if cfg!(debug_assertions) {
        av_analyze::install_engine_gate();
    }
    let cfg = BenchConfig::from_env();
    let exec_scale = envf("AV_EXEC_SCALE", 20.0);
    let reps = envf("AV_EXEC_REPS", 20.0) as usize;
    let threads = envf("AV_EXEC_THREADS", 4.0) as usize;
    let pricing = Pricing::paper_defaults();

    // Micro tables: the JOB schema scaled up so every batch dwarfs the
    // 1024-row chunk size and per-operator throughput is measurable.
    let micro_w = job_workload(cfg.job_scale * exec_scale, cfg.seed);
    let cast_rows = micro_w
        .catalog
        .table("cast_info")
        .expect("JOB schema")
        .row_count();

    let aggs = || {
        vec![
            AggExpr {
                func: AggFunc::Count,
                input: None,
                output: "n".into(),
            },
            AggExpr {
                func: AggFunc::Sum,
                input: Some("c.production_year".into()),
                output: "s".into(),
            },
            AggExpr {
                func: AggFunc::Min,
                input: Some("c.note".into()),
                output: "lo".into(),
            },
            AggExpr {
                func: AggFunc::Max,
                input: Some("c.note".into()),
                output: "hi".into(),
            },
        ]
    };
    let filter = PlanBuilder::scan("cast_info", "c")
        .filter(Expr::col("c.production_year").cmp(CmpOp::Gt, Expr::int(1990)))
        .build();
    let filter_and = PlanBuilder::scan("cast_info", "c")
        .filter(
            Expr::col("c.production_year")
                .cmp(CmpOp::Gt, Expr::int(1970))
                .and(Expr::col("c.production_year").cmp(CmpOp::Le, Expr::int(2010)))
                .and(Expr::col("c.kind_id").cmp(CmpOp::Lt, Expr::int(5))),
        )
        .build();
    let aggregate = PlanBuilder::scan("cast_info", "c")
        .aggregate(&["c.kind_id"], aggs())
        .build();
    let filter_agg = PlanBuilder::scan("cast_info", "c")
        .filter(Expr::col("c.production_year").cmp(CmpOp::Gt, Expr::int(1990)))
        .aggregate(&["c.kind_id"], aggs())
        .build();

    let micros: Vec<(&str, usize, PlanRef)> = vec![
        ("filter", cast_rows, filter),
        ("filter_and", cast_rows, filter_and),
        ("aggregate", cast_rows, aggregate),
        ("filter_agg", cast_rows, filter_agg),
    ];
    assert!(
        cast_rows < av_engine::par::PAR_MIN_ROWS,
        "micro tables must sit below the parallel cutover ({cast_rows} rows); \
         lower AV_EXEC_SCALE"
    );

    let reference = Executor::new(&micro_w.catalog, pricing)
        .with_threads(1)
        .with_reference_kernels(true);
    let optimized = Executor::new(&micro_w.catalog, pricing).with_threads(1);
    let mut micro = Vec::with_capacity(micros.len());
    for (op, rows, plan) in &micros {
        // Both paths must agree bitwise — batch *and* cost report — before
        // their relative speed means anything.
        let r = reference.run(plan).expect("benchmark plan executes");
        let o = optimized.run(plan).expect("benchmark plan executes");
        assert!(r.batch == o.batch, "{op}: optimized batch diverged");
        assert!(r.report == o.report, "{op}: optimized report diverged");
        let (tr, to) = time_pair(&reference, &optimized, plan, reps);
        micro.push(MicroResult {
            op: op.to_string(),
            rows: *rows,
            reference_rows_per_sec: *rows as f64 / tr,
            optimized_rows_per_sec: *rows as f64 / to,
            speedup: tr / to,
        });
    }

    // Spawn-overhead ladder: one filter+aggregate plan at 8k..64k fact rows,
    // serial vs pooled, parallelism forced on (min_rows 0) so the
    // sub-cutover sizes are measured rather than short-circuited. Both must
    // agree bitwise before speed means anything — this is the determinism
    // contract the pool is built around.
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cast_base = 12_000.0; // job_workload's cast_info rows at scale 1.0
    let mut spawn = Vec::new();
    for target in [8_192usize, 16_384, 32_768, 65_536] {
        let w = job_workload(target as f64 / cast_base, cfg.seed);
        let rows = w.catalog.table("cast_info").expect("JOB schema").row_count();
        let plan = PlanBuilder::scan("cast_info", "c")
            .filter(Expr::col("c.production_year").cmp(CmpOp::Gt, Expr::int(1990)))
            .aggregate(&["c.kind_id"], aggs())
            .build();
        let serial = Executor::new(&w.catalog, pricing).with_threads(1);
        let pooled = Executor::new(&w.catalog, pricing)
            .with_threads(threads)
            .with_par_min_rows(0);
        let s = serial.run(&plan).expect("benchmark plan executes");
        let p = pooled.run(&plan).expect("benchmark plan executes");
        assert!(
            s.batch == p.batch,
            "pooled@{rows}: batch diverged from serial"
        );
        assert!(
            s.report == p.report,
            "pooled@{rows}: report diverged from serial"
        );
        let (serial_t, pooled_t) = time_pair(&serial, &pooled, &plan, reps);
        spawn.push(SpawnResult {
            rows,
            serial_rows_per_sec: rows as f64 / serial_t,
            pooled_rows_per_sec: rows as f64 / pooled_t,
            pooled_speedup: serial_t / pooled_t,
        });
    }

    // Cache replay: the full JOB workload cold, then warm. Every plan is
    // distinct, so the warm pass's hit-rate is exactly 1/2 overall.
    let replay_w = job_workload(cfg.job_scale, cfg.seed);
    let plans = replay_w.plans();
    let cache = ExecCache::new(pricing, 1);
    let start = Instant::now();
    for p in &plans {
        cache.run(&replay_w.catalog, p).expect("query executes");
    }
    let cold_seconds = start.elapsed().as_secs_f64();
    let start = Instant::now();
    for p in &plans {
        cache.run(&replay_w.catalog, p).expect("query executes");
    }
    let warm_seconds = start.elapsed().as_secs_f64();
    let stats = cache.stats();
    let cache_result = CacheResult {
        queries: plans.len(),
        cold_seconds,
        warm_seconds,
        hit_rate: stats.hit_rate(),
        speedup: cold_seconds / warm_seconds.max(1e-12),
    };

    let report = ExecBenchReport {
        job_scale: cfg.job_scale,
        exec_scale,
        reps,
        threads,
        par_min_rows: av_engine::par::PAR_MIN_ROWS,
        cores,
        micro: micro.clone(),
        spawn: spawn.clone(),
        cache: cache_result.clone(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_exec.json", &json).expect("BENCH_exec.json written");

    let rows: Vec<Vec<String>> = micro
        .iter()
        .map(|m| {
            vec![
                m.op.clone(),
                m.rows.to_string(),
                format!("{:.0}", m.reference_rows_per_sec),
                format!("{:.0}", m.optimized_rows_per_sec),
                format!("{:.2}x", m.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &["op", "rows", "reference rows/s", "optimized rows/s", "speedup"],
            &rows,
        )
    );
    let spawn_rows: Vec<Vec<String>> = spawn
        .iter()
        .map(|s| {
            vec![
                s.rows.to_string(),
                format!("{:.0}", s.serial_rows_per_sec),
                format!("{:.0}", s.pooled_rows_per_sec),
                format!("{:.2}x", s.pooled_speedup),
            ]
        })
        .collect();
    println!(
        "\nspawn overhead ({cores} core(s), {threads} threads, cutover {} rows):\n{}",
        av_engine::par::PAR_MIN_ROWS,
        render_table(
            &["rows", "serial rows/s", "pooled rows/s", "pooled speedup"],
            &spawn_rows,
        )
    );
    println!(
        "\ncache replay: {} queries, cold {:.3}s, warm {:.3}s ({:.0}x), hit-rate {:.2}",
        cache_result.queries,
        cache_result.cold_seconds,
        cache_result.warm_seconds,
        cache_result.speedup,
        cache_result.hit_rate,
    );
    println!("\nwrote BENCH_exec.json");

    // Regression gates: an "optimized" path slower than the reference it
    // replaced fails the build outright.
    for m in &micro {
        assert!(
            m.speedup >= 1.0,
            "{}: selection-vector path regressed ({:.2}x vs reference)",
            m.op,
            m.speedup
        );
    }
    assert!(
        cache_result.hit_rate >= 0.49,
        "warm replay must be cache-served"
    );
    assert!(
        cache_result.speedup > 1.0,
        "cache hits must be cheaper than execution"
    );
    // Cutover gate: the shared pool must make parallelism profitable from
    // the 16k-row cutover up — the measurement `PAR_MIN_ROWS = 16_384`
    // rests on. Only meaningful with real cores to win on.
    if cores > 1 {
        for s in spawn.iter().filter(|s| s.rows >= 16_000) {
            assert!(
                s.pooled_speedup >= 1.0,
                "pooled parallelism unprofitable at {} rows ({:.2}x vs serial); \
                 the 16_384-row cutover is no longer justified",
                s.rows,
                s.pooled_speedup
            );
        }
    } else {
        println!("single core: spawn-overhead cutover gate skipped (report-only)");
    }
}
