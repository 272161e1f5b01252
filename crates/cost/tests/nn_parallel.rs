//! Determinism properties of the batched NN compute path:
//!
//! - refitting with the same seed reproduces every parameter bit for bit
//!   (one arena graph; samples accumulate in the seeded shuffle's order,
//!   so nothing varies from run to run);
//! - `predict_batch` equals per-sample `estimate` equals the uncached
//!   whole-graph forward, bitwise (batched head rows are independent, and
//!   a memoized encoding is the same tensor a cold encode produces);
//! - the encoder cache serves hits after a cold pass without changing any
//!   prediction.

use av_cost::widedeep::{WideDeep, WideDeepConfig};
use av_cost::{CostEstimator, FeatureInput, TableMeta};
use av_plan::{Expr, PlanBuilder};

/// Labelled pairs over a tiny synthetic schema: many (query, view) pairs
/// sharing a handful of distinct plans, like a real benefit matrix.
fn synth_samples(n: usize) -> Vec<(FeatureInput, f64)> {
    (0..n)
        .map(|i| {
            let rows = 100.0 * (1 + i % 10) as f64;
            let sel = 1 + (i % 4) as i64;
            let view = PlanBuilder::scan("ev", "t")
                .filter(Expr::col("t.kind").eq(Expr::int(sel)))
                .project(&[("t.uid", "t.uid")])
                .build();
            let query = PlanBuilder::from_plan(view.clone())
                .count_star(&["t.uid"], "n")
                .build();
            let input = FeatureInput {
                query,
                view,
                tables: vec![TableMeta {
                    name: "ev".into(),
                    rows,
                    columns: 3.0,
                    bytes: rows * 24.0,
                    avg_distinct_ratio: 0.4,
                    column_names: vec!["uid".into(), "kind".into(), "v".into()],
                    column_types: vec!["Int".into(), "Int".into(), "Int".into()],
                }],
            };
            let y = (1.0 + rows).ln() * (1.0 + 0.1 * sel as f64);
            (input, y)
        })
        .collect()
}

fn config() -> WideDeepConfig {
    WideDeepConfig {
        epochs: 4,
        batch_size: 8,
        embed_dim: 8,
        lstm1_hidden: 8,
        lstm2_hidden: 8,
        ..WideDeepConfig::default()
    }
}

#[test]
fn refit_with_same_seed_is_reproducible() {
    let samples = synth_samples(20);
    let a = WideDeep::fit(&samples, config());
    let b = WideDeep::fit(&samples, config());
    assert_eq!(a.param_bits(), b.param_bits());
}

#[test]
fn predict_batch_matches_per_sample_estimate_bitwise() {
    let samples = synth_samples(24);
    let model = WideDeep::fit(&samples, config());
    let inputs: Vec<FeatureInput> = samples.iter().map(|(i, _)| i.clone()).collect();
    let batched = model.predict_batch(&inputs);
    for (inp, b) in inputs.iter().zip(&batched) {
        let single = model.estimate(inp);
        assert_eq!(
            single.to_bits(),
            b.to_bits(),
            "batched row must equal per-sample estimate bitwise"
        );
    }
}

#[test]
fn memoized_estimate_matches_uncached_forward_bitwise() {
    let samples = synth_samples(24);
    let model = WideDeep::fit(&samples, config());
    for (inp, _) in &samples {
        let cold = model.estimate_uncached(inp);
        let cached = model.estimate(inp);
        assert_eq!(
            cold.to_bits(),
            cached.to_bits(),
            "cache path must equal the whole-graph forward bitwise"
        );
    }
}

#[test]
fn encoder_cache_hits_after_cold_pass_and_preserves_results() {
    let samples = synth_samples(16);
    let model = WideDeep::fit(&samples, config());
    let inputs: Vec<FeatureInput> = samples.iter().map(|(i, _)| i.clone()).collect();
    let cold = model.predict_batch(&inputs);
    let (_, misses_after_cold) = model.encode_cache_stats();
    // 16 samples share 4 distinct views and 4 distinct queries.
    assert!(
        misses_after_cold <= 8,
        "cold pass should encode each distinct plan once, got {misses_after_cold} misses"
    );
    let warm = model.predict_batch(&inputs);
    let (hits, misses) = model.encode_cache_stats();
    assert_eq!(misses, misses_after_cold, "warm pass must not re-encode");
    assert!(
        hits >= inputs.len() as u64,
        "warm pass must be cache-served"
    );
    let cold_bits: Vec<u64> = cold.iter().map(|v| v.to_bits()).collect();
    let warm_bits: Vec<u64> = warm.iter().map(|v| v.to_bits()).collect();
    assert_eq!(cold_bits, warm_bits);
}

#[test]
fn estimate_batch_trait_default_agrees_with_override() {
    // The trait's default maps estimate(); WideDeep overrides with the
    // batched path. Both must agree bitwise.
    let samples = synth_samples(12);
    let model = WideDeep::fit(&samples, config());
    let inputs: Vec<FeatureInput> = samples.iter().map(|(i, _)| i.clone()).collect();
    let via_trait = CostEstimator::estimate_batch(&model, &inputs);
    let mapped: Vec<f64> = inputs.iter().map(|i| model.estimate(i)).collect();
    let a: Vec<u64> = via_trait.iter().map(|v| v.to_bits()).collect();
    let b: Vec<u64> = mapped.iter().map(|v| v.to_bits()).collect();
    assert_eq!(a, b);
}
