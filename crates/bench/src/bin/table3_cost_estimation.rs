//! Table III — cost-estimation accuracy (MAE / MAPE) for every estimator:
//! Optimizer, DeepLearn, LR, GBM, the three Wide-Deep ablations, and W-D.
//!
//! Ground truth: for JOB-scale, measured `A(q|v)` from executing rewritten
//! queries (the paper's exact protocol); the 7:1:2 split and Adam training
//! follow Table II (epochs scaled by `AV_EPOCH_SCALE`).

use av_bench::{render_table, setup_experiment, BenchConfig};
use av_core::{table2_defaults, WorkloadKind};
use av_cost::{
    mae, metrics::mape_floored, Ablation, CostEstimator, DeepLearnEstimator, FeatureInput, Gbm,
    GbmConfig, LinearRegression, OptimizerEstimator, PairSample, WideDeep,
};

fn main() {
    let cfg = BenchConfig::from_env();
    println!(
        "== Table III: cost estimation (epoch scale {}, pair cap {}) ==\n",
        cfg.epoch_scale, cfg.train_pairs
    );

    let mut rows = Vec::new();
    for (which, kind) in [
        ("job", WorkloadKind::Job),
        ("wk1", WorkloadKind::Wk1),
        ("wk2", WorkloadKind::Wk2),
    ] {
        let exp = setup_experiment(which, &cfg, cfg.train_pairs);
        let samples: Vec<PairSample> = exp.pairs.iter().map(|p| p.sample.clone()).collect();
        if samples.len() < 10 {
            eprintln!("{which}: too few pairs ({}), skipping", samples.len());
            continue;
        }
        let (train_idx, _val_idx, test_idx) =
            av_cost::metrics::split_7_1_2(samples.len(), cfg.seed);
        let train: Vec<PairSample> = train_idx.iter().map(|&i| samples[i].clone()).collect();
        let test: Vec<PairSample> = test_idx.iter().map(|&i| samples[i].clone()).collect();
        let train_pairs: Vec<(FeatureInput, f64)> =
            train.iter().map(|s| (s.input.clone(), s.cost_qv)).collect();
        let truth: Vec<f64> = test.iter().map(|s| s.cost_qv).collect();
        // Percentage errors are meaningless against near-zero costs (a
        // rewrite can collapse a query to an empty view scan); floor at 5%
        // of the mean cost, as a real benchmark would.
        let floor = 0.05 * truth.iter().map(|y| y.abs()).sum::<f64>() / truth.len() as f64;

        let defaults = table2_defaults(kind);
        let wd_cfg = |ablation| {
            let mut c = defaults.widedeep(cfg.seed, cfg.epoch_scale);
            c.ablation = ablation;
            // Scaled batch size: the paper's 128 assumes tens of thousands
            // of samples.
            c.batch_size = c.batch_size.min(train.len().max(1));
            c
        };

        let estimators: Vec<(String, Vec<f64>)> = vec![
            evaluate(&OptimizerEstimator::default(), &test),
            evaluate(
                &DeepLearnEstimator::fit(
                    &train,
                    (defaults.epochs as f64 * cfg.epoch_scale * 10.0) as usize,
                    defaults.lr as f32,
                    cfg.seed,
                ),
                &test,
            ),
            evaluate(&LinearRegression::fit(&train_pairs), &test),
            evaluate(&Gbm::fit_samples(&train_pairs, GbmConfig::default()), &test),
            evaluate(&WideDeep::fit(&train_pairs, wd_cfg(Ablation::NExp)), &test),
            evaluate(&WideDeep::fit(&train_pairs, wd_cfg(Ablation::NStr)), &test),
            evaluate(&WideDeep::fit(&train_pairs, wd_cfg(Ablation::NKw)), &test),
            evaluate(&WideDeep::fit(&train_pairs, wd_cfg(Ablation::None)), &test),
        ];

        for (name, preds) in estimators {
            rows.push(vec![
                which.to_uppercase(),
                name,
                format!("{:.3}", mae(&truth, &preds) * 1e6),
                format!("{:.2}", mape_floored(&truth, &preds, floor)),
            ]);
        }
        eprintln!(
            "{which}: {} pairs ({} train / {} test)",
            samples.len(),
            train.len(),
            test.len()
        );
    }
    println!(
        "{}",
        render_table(&["workload", "estimator", "MAE (µ$)", "MAPE (%)"], &rows)
    );
    println!(
        "Expected shape (paper Table III): Optimizer worst; learned models better;\n\
         W-D best, with N-Kw ≥ N-Str ≥ N-Exp among the ablations."
    );
}

fn evaluate(est: &dyn CostEstimator, test: &[PairSample]) -> (String, Vec<f64>) {
    (
        est.name().to_string(),
        test.iter().map(|s| est.estimate(&s.input)).collect(),
    )
}
