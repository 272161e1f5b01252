//! Train and compare cost estimators on measured ground truth.
//!
//! ```sh
//! cargo run --release --example cost_estimation
//! ```
//!
//! Collects (query, view) → A(q|v) ground truth by executing rewritten
//! queries on the engine, trains the Wide-Deep model and the baselines, and
//! prints test-set MAE/MAPE — a miniature of the paper's Table III.

use autoview::core::{collect_pair_truth, preprocess_and_measure};
use autoview::cost::{
    mae, mape, metrics::split_7_1_2, Ablation, CostEstimator, FeatureInput, Gbm, GbmConfig,
    LinearRegression, OptimizerEstimator, WideDeep, WideDeepConfig,
};
use autoview::engine::Pricing;
use autoview::workload::cloud::mini;

fn main() {
    let workload = mini(7);
    let pricing = Pricing::paper_defaults();
    let mut catalog = workload.catalog.clone();
    let plans = workload.plans();

    let pre = preprocess_and_measure(&mut catalog, &plans, pricing).expect("preprocess");
    let pairs = collect_pair_truth(&catalog, &pre, &plans, 200, 1).expect("ground truth");
    println!(
        "collected {} labelled (query, view) pairs from {} candidates",
        pairs.len(),
        pre.analysis.candidates.len()
    );

    let samples: Vec<(FeatureInput, f64)> = pairs
        .iter()
        .map(|p| (p.sample.input.clone(), p.sample.cost_qv))
        .collect();
    let (train_idx, _, test_idx) = split_7_1_2(samples.len(), 9);
    let train: Vec<(FeatureInput, f64)> = train_idx.iter().map(|&i| samples[i].clone()).collect();
    let test: Vec<&(FeatureInput, f64)> = test_idx.iter().map(|&i| &samples[i]).collect();
    let truth: Vec<f64> = test.iter().map(|(_, y)| *y).collect();

    let wd_cfg = WideDeepConfig {
        epochs: 15,
        ..WideDeepConfig::default()
    };
    let mut ablated = wd_cfg.clone();
    ablated.ablation = Ablation::NExp;

    let models: Vec<Box<dyn CostEstimator>> = vec![
        Box::new(OptimizerEstimator::default()),
        Box::new(LinearRegression::fit(&train)),
        Box::new(Gbm::fit_samples(&train, GbmConfig::default())),
        Box::new(WideDeep::fit(&train, ablated)),
        Box::new(WideDeep::fit(&train, wd_cfg)),
    ];

    println!("\n{:<12} {:>12} {:>10}", "estimator", "MAE ($)", "MAPE (%)");
    for m in &models {
        let preds: Vec<f64> = test.iter().map(|(inp, _)| m.estimate(inp)).collect();
        println!(
            "{:<12} {:>12.6} {:>10.2}",
            m.name(),
            mae(&truth, &preds),
            mape(&truth, &preds)
        );
    }
}
