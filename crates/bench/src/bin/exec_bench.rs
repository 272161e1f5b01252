//! Executor micro-benchmark, two gated sections:
//!
//! - **micro** — rows/sec for filter / aggregate / join micro-ops over
//!   JOB-scale tables, interpreted reference kernels vs the default
//!   selection-vector + typed-kernel path (whose joins on a short-span
//!   `Int` key index an array where the reference hashes, and whose
//!   projections forward columns without copying them). `view_join` has
//!   the shape of a query the server answers from a view: a materialized
//!   two-column `Int` view joined to a projected, filtered `title`, with an
//!   aggregate on top. Each micro
//!   asserts the two paths produce bitwise-identical batches and execution
//!   reports, and the bench fails if any optimized micro is slower than its
//!   reference.
//! - **cache** — the plan-result cache's hit-rate and speedup on a cold then
//!   warm replay of the full JOB workload.
//!
//! Writes `BENCH_exec.json` (machine-readable, consumed by CI) to the
//! working directory and prints the same numbers as tables.
//!
//! Knobs: `AV_JOB_SCALE` (table scale, default 0.05), `AV_EXEC_SCALE`
//! (extra multiplier for the micro tables, default 20 — at the defaults the
//! fact table lands at 12k rows), `AV_EXEC_REPS` (default 20), `AV_SEED`.

#![allow(
    clippy::disallowed_methods,
    reason = "a benchmark binary times its runs on the wall clock"
)]

use av_bench::{knob, render_table, BenchConfig};
use av_engine::{ExecCache, Executor, Pricing, Table};
use av_plan::{AggExpr, AggFunc, CmpOp, Expr, PlanBuilder, PlanRef};
use av_workload::job::job_workload;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct MicroResult {
    op: String,
    /// Input rows driven through the operator per iteration (both scanned
    /// tables for a join).
    rows: usize,
    /// Interpreted per-row kernels + mask materialization.
    reference_rows_per_sec: f64,
    /// Selection vectors + typed comparison / hoisted aggregate kernels +
    /// direct-indexed join tables.
    optimized_rows_per_sec: f64,
    /// optimized / reference (>1 means the typed path wins).
    speedup: f64,
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
    /// Host cores (`available_parallelism`); each run uses one.
    cores: usize,
    micro: Vec<MicroResult>,
    cache: CacheResult,
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
    let exec_scale = knob("AV_EXEC_SCALE", 20.0);
    let reps = knob("AV_EXEC_REPS", 20usize);
    let pricing = Pricing::paper_defaults();

    // Micro tables: the JOB schema scaled up so every batch dwarfs the
    // 1024-row chunk size and per-operator throughput is measurable.
    let mut micro_w = job_workload(cfg.job_scale * exec_scale, cfg.seed);
    // A materialized view as the server stores one: the rows of a filtered
    // projection of `cast_info`, under already-qualified column names.
    let view = Executor::new(&micro_w.catalog, pricing)
        .run(
            &PlanBuilder::scan("cast_info", "c")
                .filter(
                    Expr::col("c.kind_id")
                        .eq(Expr::int(2))
                        .and(Expr::col("c.production_year").cmp(CmpOp::Gt, Expr::int(1980))),
                )
                .project(&[("c.movie_id", "c.movie_id"), ("c.kind_id", "c.kind_id")])
                .build(),
        )
        .expect("view plan executes")
        .batch;
    micro_w
        .catalog
        .add_table(
            Table::new(
                "cast_view",
                view.names
                    .iter()
                    .map(String::as_str)
                    .zip(view.columns.iter().cloned())
                    .collect(),
            )
            .expect("rectangular"),
        )
        .expect("fresh table name");
    let rows_of = |table: &str| {
        micro_w
            .catalog
            .table(table)
            .expect("JOB schema")
            .row_count()
    };
    let cast_rows = rows_of("cast_info");
    let join_rows = cast_rows + rows_of("title");
    let view_join_rows = rows_of("cast_view") + rows_of("title");

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

    // Joins: `title` builds (it is the smaller side) on its dense `id`, a
    // key span the default path indexes directly. The `join` micro narrows
    // both sides to two `Int` columns first, so that copying output string
    // cells, the same work on both paths, does not drown the build and
    // probe it measures.
    let join = PlanBuilder::scan("cast_info", "c")
        .project(&[
            ("c.movie_id", "c.movie_id"),
            ("c.production_year", "c.production_year"),
        ])
        .join(
            PlanBuilder::scan("title", "t")
                .project(&[("t.id", "t.id"), ("t.kind_id", "t.kind_id")]),
            &[("c.movie_id", "t.id")],
        )
        .build();
    let filter_join_agg = PlanBuilder::scan("cast_info", "c")
        .filter(Expr::col("c.production_year").cmp(CmpOp::Gt, Expr::int(1990)))
        .join(
            PlanBuilder::scan("title", "t")
                .filter(Expr::col("t.kind_id").cmp(CmpOp::Lt, Expr::int(5))),
            &[("c.movie_id", "t.id")],
        )
        .aggregate(&["t.kind_id"], aggs())
        .build();

    // The view scan (alias-free: its names are stored qualified) against
    // `π(σ(title))`: the projection forwards `title`'s columns through the
    // filter's selection, and the join reads them through it.
    let view_join = PlanBuilder::scan("cast_view", "")
        .join(
            PlanBuilder::scan("title", "t")
                .filter(Expr::col("t.production_year").cmp(CmpOp::Gt, Expr::int(1990)))
                .project(&[("t.id", "t.id"), ("t.kind_id", "t.kind_id")]),
            &[("c.movie_id", "t.id")],
        )
        .aggregate(
            &["t.kind_id"],
            vec![
                AggExpr {
                    func: AggFunc::Count,
                    input: None,
                    output: "n".into(),
                },
                AggExpr {
                    func: AggFunc::Max,
                    input: Some("c.kind_id".into()),
                    output: "hi".into(),
                },
            ],
        )
        .build();

    let micros: Vec<(&str, usize, PlanRef)> = vec![
        ("filter", cast_rows, filter),
        ("filter_and", cast_rows, filter_and),
        ("aggregate", cast_rows, aggregate),
        ("filter_agg", cast_rows, filter_agg),
        ("join", join_rows, join),
        ("filter_join_agg", join_rows, filter_join_agg),
        ("view_join", view_join_rows, view_join),
    ];

    let reference = Executor::new(&micro_w.catalog, pricing).with_reference_kernels(true);
    let optimized = Executor::new(&micro_w.catalog, pricing);
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
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        micro: micro.clone(),
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
            &[
                "op",
                "rows",
                "reference rows/s",
                "optimized rows/s",
                "speedup"
            ],
            &rows,
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
}
