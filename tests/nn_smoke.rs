//! Tier-1 smoke over the learned cost model: on `mini(42)`, executed
//! (query, view) pairs train a small Wide-Deep twice. The two fits must hold
//! the same parameters bit for bit and predict the same costs bit for bit.

use autoview::core::{collect_pair_truth, preprocess_and_measure};
use autoview::cost::{FeatureInput, WideDeep, WideDeepConfig};
use autoview::engine::Pricing;
use autoview::workload::cloud::mini;

#[test]
fn wide_deep_fits_and_predicts_bitwise_reproducibly() {
    let w = mini(42);
    let mut catalog = w.catalog.clone();
    let queries = w.plans();
    let pre = preprocess_and_measure(&mut catalog, &queries, Pricing::paper_defaults())
        .expect("preprocesses");
    let pairs = collect_pair_truth(&catalog, &pre, &queries, 24, 42).expect("measures pairs");
    assert!(
        pairs.len() >= 8,
        "mini has rewritable pairs: {}",
        pairs.len()
    );
    let train: Vec<(FeatureInput, f64)> = pairs
        .iter()
        .map(|p| (p.sample.input.clone(), p.sample.cost_qv))
        .collect();
    let config = WideDeepConfig {
        epochs: 3,
        batch_size: 8,
        embed_dim: 8,
        lstm1_hidden: 8,
        lstm2_hidden: 8,
        ..WideDeepConfig::default()
    };

    let a = WideDeep::fit(&train, config.clone());
    let b = WideDeep::fit(&train, config);
    assert_eq!(a.param_bits(), b.param_bits(), "refit changes a weight");
    // Recorded before the register-tiled narrow-matrix kernels landed
    // (same value on the AVX2 and portable backends): every forward and
    // backward matmul of the fit feeds these weights, so a reassociated
    // kernel chain moves the hash.
    assert_eq!(
        fnv1a(&a.param_bits()),
        0xf59a_ed66_1aac_acc5,
        "pinned Wide-Deep weights"
    );

    let inputs: Vec<FeatureInput> = train.into_iter().map(|(input, _)| input).collect();
    let (pa, pb) = (a.predict_batch(&inputs), b.predict_batch(&inputs));
    assert!(pa.iter().all(|v| v.is_finite()), "predictions are finite");
    let bits = |p: &[f64]| -> Vec<u64> { p.iter().map(|v| v.to_bits()).collect() };
    assert_eq!(bits(&pa), bits(&pb), "refit changes a prediction");
}

/// FNV-1a over the little-endian bytes of each weight's bit pattern.
fn fnv1a(words: &[u32]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in words.iter().flat_map(|w| w.to_le_bytes()) {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x100_0000_01b3);
    }
    h
}
