//! NN compute-path benchmark: SIMD lane kernels vs the naive baseline,
//! Wide-Deep epoch time on the arena trainer vs the per-sample trainer
//! (same fused ops and backward, no arena reuse), and benefit-matrix
//! construction cold vs memoized.
//!
//! Writes `BENCH_nn.json` (machine-readable, consumed by CI) into the
//! working directory and prints the same numbers as tables.
//!
//! Knobs: `AV_NN_QUERIES` (default 226) and `AV_NN_VIEWS` (default 28)
//! size the benefit matrix like the paper's IMDb workload; `AV_NN_EPOCHS`
//! (default 8) and `AV_NN_TRAIN` (default 96) size the training run;
//! `AV_NN_REPS` (default 5) sets kernel timing repetitions;
//! `AV_NN_EPOCH_REPS` (default 3) sets trainer repetitions (best-of).
//!
//! `--trace-out <path>` dumps one traced training + batched-inference pass
//! (`cost.epoch`, `cost.grad_reduce`, `cost.forward_batch`,
//! `cost.encode_cache` spans) as chrome://tracing JSON.

#![allow(
    clippy::disallowed_methods,
    reason = "a benchmark binary times its runs on the wall clock"
)]

use av_bench::knob;
use av_cost::widedeep::{WideDeep, WideDeepConfig};
use av_cost::{FeatureInput, TableMeta};
use av_nn::Tensor;
use av_plan::{CmpOp, Expr, PlanBuilder, PlanRef};
use av_trace::Tracer;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use serde::Serialize;
use std::time::Instant;

#[derive(Debug, Clone, Serialize)]
struct KernelResult {
    m: usize,
    k: usize,
    n: usize,
    /// Share of `A`'s entries that are exactly zero (the kernels skip
    /// those terms, so sparse activations cost less than dense ones).
    a_zero_share: f64,
    naive_gflops: f64,
    simd_gflops: f64,
    /// naive / SIMD wall-time ratio (>1 means the SIMD kernel wins). CI
    /// fails if this ever drops below 1.0 — a regression gate, so a <1.0×
    /// "optimization" can never ship silently again.
    speedup: f64,
}

#[derive(Debug, Clone, Serialize)]
struct EpochResult {
    train_samples: usize,
    epochs: usize,
    /// Per-sample trainer: fresh graph per sample, features re-derived per
    /// use, no pinned or reused buffers.
    per_sample_epoch_seconds: f64,
    /// One pinned arena graph + one-time sample preparation.
    arena_epoch_seconds: f64,
    /// per-sample / arena.
    speedup: f64,
}

#[derive(Debug, Clone, Serialize)]
struct MatrixResult {
    queries: usize,
    views: usize,
    pairs: usize,
    /// Per-pair whole-graph forwards (the seed inference path).
    cold_seconds: f64,
    /// `predict_batch` with an empty encoder cache (includes all encodes).
    memoized_seconds: f64,
    /// `predict_batch` again with the cache fully warm.
    warm_seconds: f64,
    /// cold / memoized.
    speedup: f64,
    cache_hits: u64,
    cache_misses: u64,
}

#[derive(Debug, Clone, Serialize)]
struct NnBenchReport {
    /// Host cores (`available_parallelism`). Every timing here is
    /// single-threaded; recorded so runs on different hosts compare.
    cores: usize,
    kernel: Vec<KernelResult>,
    epoch: EpochResult,
    matrix: MatrixResult,
}

/// One distinct view plan per `k`.
fn view_plan(k: i64) -> PlanRef {
    PlanBuilder::scan("ev", "t")
        .filter(Expr::col("t.kind").eq(Expr::int(k)))
        .project(&[("t.uid", "t.uid"), ("t.v", "t.v")])
        .build()
}

/// One distinct query plan per `(base view, i)`.
fn query_plan(base: &PlanRef, i: i64) -> PlanRef {
    PlanBuilder::from_plan(base.clone())
        .filter(Expr::col("t.v").cmp(CmpOp::Gt, Expr::int(i)))
        .count_star(&["t.uid"], "n")
        .build()
}

fn tables(rows: f64) -> Vec<TableMeta> {
    vec![TableMeta {
        name: "ev".into(),
        rows,
        columns: 3.0,
        bytes: rows * 24.0,
        avg_distinct_ratio: 0.4,
        column_names: vec!["uid".into(), "kind".into(), "v".into()],
        column_types: vec!["Int".into(), "Int".into(), "Int".into()],
    }]
}

fn rand_tensor(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Tensor {
    let data: Vec<f32> = (0..rows * cols).map(|_| rng.gen_range(-1.0..1.0)).collect();
    Tensor::from_vec(rows, cols, data)
}

/// A ReLU'd random tensor: about half its entries are exactly zero, at
/// random positions, like the activations feeding a hidden layer.
fn relu_tensor(rng: &mut ChaCha8Rng, rows: usize, cols: usize) -> Tensor {
    let mut t = rand_tensor(rng, rows, cols);
    t.relu_assign();
    t
}

fn bench_kernels(reps: usize) -> Vec<KernelResult> {
    let mut rng = ChaCha8Rng::seed_from_u64(7);
    // Dense squares: 64..256 are L1/L2-resident; 512 and 1024 spill to
    // L2/L3 so the GFLOP/s claims survive contact with real working sets.
    // Then RLView's Q-network layers (16→16→64→16→1) at the row count of
    // one target-Q pass (32 transitions × ~100 next-state actions), on
    // half-zero activations.
    let shapes = [
        (64, 64, 64, false),
        (128, 128, 128, false),
        (256, 128, 256, false),
        (512, 512, 512, false),
        (1024, 1024, 1024, false),
        (3200, 16, 16, true),
        (3200, 16, 64, true),
        (3200, 64, 16, true),
        (3200, 16, 1, true),
    ];
    let mut out = Vec::with_capacity(shapes.len());
    for &(m, k, n, relu) in &shapes {
        let a = if relu {
            relu_tensor(&mut rng, m, k)
        } else {
            rand_tensor(&mut rng, m, k)
        };
        let b = rand_tensor(&mut rng, k, n);
        let mut simd = Tensor::zeros(m, n);
        // Correctness first: the SIMD kernel must match the scalar fma
        // reference bitwise (the fixed-order reduction contract).
        a.matmul_into(&b, &mut simd);
        assert_eq!(
            a.matmul_reference(&b),
            simd,
            "SIMD kernel must match the scalar fma reference bitwise"
        );
        let flops = 2.0 * (m * k * n) as f64;
        // Narrow shapes finish in microseconds: repeat each timed sample
        // until it covers ~32 MFLOP so timer resolution stays negligible.
        let calls = ((3.2e7 / flops).ceil() as usize).max(1);
        // Interleaved best-of-reps: load noise on a shared core only ever
        // slows a run down, so the minimum is the most faithful estimate,
        // and interleaving keeps slow phases from biasing one kernel.
        let mut tn = f64::INFINITY;
        let mut tb = f64::INFINITY;
        for _ in 0..reps {
            let start = Instant::now();
            for _ in 0..calls {
                std::hint::black_box(a.matmul_naive(&b));
            }
            tn = tn.min(start.elapsed().as_secs_f64() / calls as f64);
            let start = Instant::now();
            for _ in 0..calls {
                a.matmul_into(&b, &mut simd);
                std::hint::black_box(&simd);
            }
            tb = tb.min(start.elapsed().as_secs_f64() / calls as f64);
        }
        out.push(KernelResult {
            m,
            k,
            n,
            a_zero_share: a.as_slice().iter().filter(|&&v| v == 0.0).count() as f64
                / (m * k) as f64,
            naive_gflops: flops / tn / 1e9,
            simd_gflops: flops / tb / 1e9,
            speedup: tn / tb,
        });
    }
    out
}

fn main() {
    let mut trace_out: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--trace-out" => trace_out = Some(argv.next().expect("--trace-out needs a path")),
            other => panic!("unknown argument {other:?} (expected --trace-out <path>)"),
        }
    }
    let queries = knob("AV_NN_QUERIES", 226usize);
    let views = knob("AV_NN_VIEWS", 28usize);
    let train_n = knob("AV_NN_TRAIN", 96usize);
    let epochs = knob("AV_NN_EPOCHS", 8usize);
    let reps = knob("AV_NN_REPS", 5usize).max(1);

    // ---- kernels -----------------------------------------------------------
    let kernel = bench_kernels(reps);

    // ---- workload: Q distinct queries × V distinct candidate views ---------
    let view_plans: Vec<PlanRef> = (0..views as i64).map(view_plan).collect();
    let query_plans: Vec<PlanRef> = (0..queries as i64)
        .map(|i| query_plan(&view_plans[(i as usize) % views], i))
        .collect();
    let train: Vec<(FeatureInput, f64)> = (0..train_n)
        .map(|i| {
            let rows = 100.0 * (1 + i % 10) as f64;
            let input = FeatureInput {
                query: query_plans[i % queries].clone(),
                view: view_plans[i % views].clone(),
                tables: tables(rows),
            };
            let y = (1.0 + rows).ln() * (1.0 + 0.01 * (i % views) as f64);
            (input, y)
        })
        .collect();

    let config = WideDeepConfig {
        epochs,
        ..WideDeepConfig::default()
    };

    // ---- epoch time: per-sample vs arena ------------------------------------
    // Both trainers run the same fused ops and the same backward, so the
    // ratio is what pinned params, one-time sample preparation and buffer
    // reuse buy.
    // The two trainers are interleaved and each keeps its best-of-reps
    // (minimum) time: machine-load noise only ever slows a run down, so the
    // minimum is the most faithful estimate of each path's true cost, and
    // interleaving keeps slow phases from biasing one trainer.
    let epoch_reps = knob("AV_NN_EPOCH_REPS", 3usize).max(1);
    let mut per_sample = f64::INFINITY;
    let mut arena = f64::INFINITY;
    let mut model = None;
    for _ in 0..epoch_reps {
        let start = Instant::now();
        let _ = WideDeep::fit_reference(&train, config.clone());
        per_sample = per_sample.min(start.elapsed().as_secs_f64() / epochs as f64);

        let start = Instant::now();
        model = Some(WideDeep::fit(&train, config.clone()));
        arena = arena.min(start.elapsed().as_secs_f64() / epochs as f64);
    }
    let model = model.expect("at least one rep");

    let epoch = EpochResult {
        train_samples: train.len(),
        epochs,
        per_sample_epoch_seconds: per_sample,
        arena_epoch_seconds: arena,
        speedup: per_sample / arena,
    };

    // ---- benefit matrix: per-pair whole graphs vs memoized batch -----------
    let inputs: Vec<FeatureInput> = query_plans
        .iter()
        .flat_map(|q| {
            view_plans.iter().map(|v| FeatureInput {
                query: q.clone(),
                view: v.clone(),
                tables: tables(500.0),
            })
        })
        .collect();

    let start = Instant::now();
    let cold: Vec<f64> = inputs.iter().map(|i| model.estimate_uncached(i)).collect();
    let cold_seconds = start.elapsed().as_secs_f64();

    let start = Instant::now();
    let memoized = model.predict_batch(&inputs);
    let memoized_seconds = start.elapsed().as_secs_f64();
    let (hits, misses) = model.encode_cache_stats();

    let start = Instant::now();
    let warm = model.predict_batch(&inputs);
    let warm_seconds = start.elapsed().as_secs_f64();

    // The fast path must agree with the seed path bitwise, pair by pair.
    for ((c, m), w) in cold.iter().zip(&memoized).zip(&warm) {
        assert_eq!(c.to_bits(), m.to_bits(), "memoized != cold estimate");
        assert_eq!(c.to_bits(), w.to_bits(), "warm != cold estimate");
    }

    let matrix = MatrixResult {
        queries,
        views,
        pairs: inputs.len(),
        cold_seconds,
        memoized_seconds,
        warm_seconds,
        speedup: cold_seconds / memoized_seconds.max(1e-12),
        cache_hits: hits,
        cache_misses: misses,
    };

    if let Some(path) = &trace_out {
        let tracer = Tracer::new();
        let traced = WideDeep::fit_with_tracer(&train, config, &tracer)
            .0
            .with_tracer(tracer.clone());
        let _ = traced.predict_batch(&inputs[..inputs.len().min(64)]);
        let snap = tracer.snapshot();
        std::fs::write(path, av_trace::chrome_trace(&snap)).expect("trace written");
        println!(
            "wrote {path} ({} spans) — open in chrome://tracing",
            snap.spans.len()
        );
    }

    let report = NnBenchReport {
        cores: std::thread::available_parallelism().map_or(1, |n| n.get()),
        kernel: kernel.clone(),
        epoch: epoch.clone(),
        matrix: matrix.clone(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_nn.json", &json).expect("BENCH_nn.json written");

    let rows: Vec<Vec<String>> = kernel
        .iter()
        .map(|k| {
            vec![
                format!("{}x{}x{}", k.m, k.k, k.n),
                format!("{:.2}", k.naive_gflops),
                format!("{:.2}", k.simd_gflops),
                format!("{:.2}x", k.speedup),
            ]
        })
        .collect();
    println!(
        "{}",
        av_bench::render_table(
            &["matmul", "naive GFLOP/s", "SIMD GFLOP/s", "speedup"],
            &rows
        )
    );
    println!(
        "\nepoch ({} samples, {} epochs): per-sample {:.3}s, arena {:.3}s ({:.2}x)",
        epoch.train_samples,
        epoch.epochs,
        epoch.per_sample_epoch_seconds,
        epoch.arena_epoch_seconds,
        epoch.speedup,
    );
    println!(
        "benefit matrix ({}x{} = {} pairs): cold {:.3}s, memoized {:.3}s ({:.2}x), warm {:.3}s; cache {} hits / {} misses",
        matrix.queries,
        matrix.views,
        matrix.pairs,
        matrix.cold_seconds,
        matrix.memoized_seconds,
        matrix.speedup,
        matrix.warm_seconds,
        matrix.cache_hits,
        matrix.cache_misses,
    );
    println!("\nwrote BENCH_nn.json");

    // Regression gate: every kernel shape must win, every time. This is
    // what lets CI catch a <1.0x "optimization" before it ships.
    for k in &kernel {
        assert!(
            k.speedup >= 1.0,
            "kernel regression: {}x{}x{} SIMD speedup {:.3}x < 1.0x",
            k.m,
            k.k,
            k.n,
            k.speedup
        );
    }
    assert!(
        epoch.speedup > 1.0,
        "arena trainer must beat the per-sample trainer"
    );
    assert!(
        matrix.speedup > 1.0,
        "memoized benefit matrix must beat per-pair forwards"
    );
    assert!(
        matrix.cache_misses <= (queries + views) as u64,
        "each distinct plan should be encoded at most once"
    );
}
