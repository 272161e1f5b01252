//! Table V — end-to-end comparison of the four estimator × selector
//! combinations: O&B, O&R, W&B, W&R, on JOB plus one sampled project from
//! each cloud workload (the paper's P1 ⊂ WK1 and P2 ⊂ WK2).
//!
//! Reported per method: materialized views (#m) and their overhead (o_m),
//! rewritten queries #(q|v) and their measured benefit (b_{q|v}), rewritten
//! workload latency, and the saved-cost ratio r_c = (b − o) / c_q.

use av_bench::{build_workload, render_table, BenchConfig};
use av_core::{
    collect_pair_truth, preprocess_and_measure, table2_defaults, AutoViewConfig, AutoViewSystem,
    EstimatorKind, SelectorKind, WorkloadKind,
};
use av_cost::{CostEstimator, FeatureInput, OptimizerEstimator, WideDeep};
use av_engine::Pricing;
use av_select::BigSubConfig;

fn main() {
    let cfg = BenchConfig::from_env();
    let mut rows = Vec::new();

    for (label, which, kind, project) in [
        ("JOB", "job", WorkloadKind::Job, None),
        ("P1", "wk1", WorkloadKind::Wk1, Some(0usize)),
        ("P2", "wk2", WorkloadKind::Wk2, Some(0usize)),
    ] {
        let workload = build_workload(which, &cfg);
        // P1/P2: restrict to one project, the paper's sampling trick for
        // keeping full-materialization experiments affordable.
        let plans: Vec<_> = workload
            .queries
            .iter()
            .filter(|q| project.map(|p| q.project == p).unwrap_or(true))
            .map(|q| q.plan.clone())
            .collect();
        let pricing = Pricing::paper_defaults();
        let defaults = table2_defaults(kind);

        // Shared measurement across the four combos.
        let mut catalog = workload.catalog.clone();
        let pre = preprocess_and_measure(&mut catalog, &plans, pricing).expect("preprocess");
        let pairs =
            collect_pair_truth(&catalog, &pre, &plans, cfg.train_pairs, cfg.seed).expect("pairs");
        eprintln!(
            "{label}: {} queries, {} candidates, {} training pairs",
            plans.len(),
            pre.analysis.candidates.len(),
            pairs.len()
        );

        // Train each estimator once.
        let train: Vec<(FeatureInput, f64)> = pairs
            .iter()
            .map(|p| (p.sample.input.clone(), p.sample.cost_qv))
            .collect();
        let wd = WideDeep::fit(&train, defaults.widedeep(cfg.seed, cfg.epoch_scale));
        let opt = OptimizerEstimator::default();
        let estimators: [(&str, &dyn CostEstimator, EstimatorKind); 2] = [
            ("O", &opt, EstimatorKind::Optimizer),
            (
                "W",
                &wd,
                EstimatorKind::WideDeep(defaults.widedeep(cfg.seed, cfg.epoch_scale)),
            ),
        ];

        let rl_cfg = defaults.rlview(cfg.seed, cfg.epoch_scale);
        let bigsub_cfg = BigSubConfig {
            iterations: rl_cfg.n1 + rl_cfg.n2,
            seed: cfg.seed,
            ..BigSubConfig::default()
        };

        let raw_cost: f64 = pre.query_costs.iter().sum();
        let raw_latency: f64 = pre.query_latencies.iter().sum();
        rows.push(vec![
            label.to_string(),
            "raw".into(),
            plans.len().to_string(),
            format!("{raw_cost:.4}"),
            format!("{raw_latency:.1}"),
            "-".into(),
            "-".into(),
            "-".into(),
            "-".into(),
        ]);

        for (ename, est, ekind) in estimators {
            for (sname, selector) in [
                ("B", SelectorKind::BigSub(bigsub_cfg.clone())),
                ("R", SelectorKind::RlView(rl_cfg.clone())),
            ] {
                let sys = AutoViewSystem::new(
                    catalog.clone(),
                    plans.clone(),
                    AutoViewConfig {
                        pricing,
                        estimator: ekind.clone(),
                        selector,
                        max_training_pairs: cfg.train_pairs,
                        seed: cfg.seed,
                    },
                );
                let instance = sys.build_instance(&pre, est);
                let selection = sys.config.selector.run(&instance);
                let r = sys
                    .execute_selection(&pre, &selection)
                    .expect("deployment executes");
                rows.push(vec![
                    label.to_string(),
                    format!("{ename}&{sname}"),
                    format!("{}", r.num_rewritten),
                    format!("{:.4}", r.benefit),
                    format!("{:.1}", r.rewritten_latency),
                    r.num_views.to_string(),
                    format!("{:.4}", r.view_overhead),
                    format!("{:.2}", r.saved_ratio_percent),
                    format!("{:.4}", r.estimated_utility),
                ]);
            }
        }
    }

    println!("== Table V: end-to-end results ==\n");
    println!(
        "{}",
        render_table(
            &[
                "data",
                "method",
                "#(q|v)",
                "b_qv ($)",
                "latency(s)",
                "#m",
                "o_m ($)",
                "r_c (%)",
                "est.util ($)",
            ],
            &rows
        )
    );
    println!(
        "Expected shape (paper Table V): W&R attains the best saved-cost ratio r_c;\n\
         learned cost model (W&*) beats Optimizer-driven selection; more views\n\
         (#m) does not imply more savings."
    );
}
