//! Baseline cost estimators (paper Section VI-A): Optimizer, DeepLearn, LR.

use crate::features::{numerical_features, FeatureInput, PairSample, TableMeta};
use crate::linalg::{dot, ridge_fit};
use crate::CostEstimator;
use av_nn::{Adam, Graph, Linear, ParamStore, Tensor};
use av_plan::{CmpOp, Expr, PlanNode, PlanRef};
use std::collections::HashMap;

// ---------------------------------------------------------------------------
// Optimizer: analytical cost algebra
// ---------------------------------------------------------------------------

/// The traditional baseline: estimate `A(q|v) = A(q) − A(s) + A(scan v)`
/// with an optimizer-style analytical cost model over table statistics and
/// heuristic selectivities. No training. Mirrors the paper's observation
/// that errors accumulate across the three independent estimates.
#[derive(Debug, Clone)]
pub struct OptimizerEstimator {
    /// Dollars per abstract CPU operation (β / ops-per-core-minute); the
    /// default matches the engine's pricing scale.
    pub dollars_per_op: f64,
}

impl Default for OptimizerEstimator {
    fn default() -> Self {
        // β = 0.1 $/core·min over 2e6 ops/min.
        OptimizerEstimator {
            dollars_per_op: 0.1 / 2.0e6,
        }
    }
}

/// Heuristic selectivity of a predicate: 0.1 per equality conjunct, 0.3 per
/// range conjunct — the classic System-R magic numbers.
fn selectivity(e: &Expr) -> f64 {
    match e {
        Expr::Cmp { op, .. } => match op {
            CmpOp::Eq => 0.1,
            CmpOp::Ne => 0.9,
            _ => 0.3,
        },
        Expr::And(v) => v.iter().map(selectivity).product(),
        Expr::Or(v) => {
            let miss: f64 = v.iter().map(|e| 1.0 - selectivity(e)).product();
            1.0 - miss
        }
        Expr::Not(e) => 1.0 - selectivity(e),
        _ => 1.0,
    }
}

impl OptimizerEstimator {
    /// Estimated output cardinality and cumulative cost (abstract ops) of a
    /// plan under the analytical model.
    pub fn card_and_ops(&self, plan: &PlanNode, tables: &HashMap<&str, &TableMeta>) -> (f64, f64) {
        match plan {
            PlanNode::TableScan { table, .. } => {
                let t = tables.get(table.as_str());
                let rows = t.map(|t| t.rows).unwrap_or(1000.0);
                let cols = t.map(|t| t.columns).unwrap_or(4.0);
                (rows, rows * (cols + 1.0))
            }
            PlanNode::Filter { input, predicate } => {
                let (rows, ops) = self.card_and_ops(input, tables);
                let preds = predicate.referenced_columns().len().max(1) as f64;
                (rows * selectivity(predicate), ops + rows * 2.0 * preds)
            }
            PlanNode::Project { input, exprs } => {
                let (rows, ops) = self.card_and_ops(input, tables);
                (rows, ops + rows * exprs.len().max(1) as f64)
            }
            PlanNode::Join {
                left, right, on, ..
            } => {
                let (lr, lops) = self.card_and_ops(left, tables);
                let (rr, rops) = self.card_and_ops(right, tables);
                // Foreign-key-ish guess: |L⋈R| ≈ |L|·|R| / max(|L|,|R|).
                let out = (lr * rr / lr.max(rr).max(1.0)).max(1.0);
                let k = on.len().max(1) as f64;
                (out, lops + rops + 4.0 * k * (lr + rr) + out)
            }
            PlanNode::Aggregate {
                input, group_by, ..
            } => {
                let (rows, ops) = self.card_and_ops(input, tables);
                // Distinct-group guess: square-root rule per grouping column.
                let groups = if group_by.is_empty() {
                    1.0
                } else {
                    rows.sqrt().max(1.0)
                };
                (groups, ops + rows * 2.0)
            }
        }
    }

    /// Analytical `A_{β,γ}` estimate of a single plan, in dollars.
    pub fn plan_cost(&self, plan: &PlanRef, metas: &[TableMeta]) -> f64 {
        let map: HashMap<&str, &TableMeta> = metas.iter().map(|t| (t.name.as_str(), t)).collect();
        let (_, ops) = self.card_and_ops(plan, &map);
        ops * self.dollars_per_op
    }

    /// Analytical cost of scanning the materialized result of `view`.
    pub fn view_scan_cost(&self, view: &PlanRef, metas: &[TableMeta]) -> f64 {
        let map: HashMap<&str, &TableMeta> = metas.iter().map(|t| (t.name.as_str(), t)).collect();
        let (card, _) = self.card_and_ops(view, &map);
        let width = view.output_columns(&|t| {
            map.get(t)
                .map(|m| m.column_names.clone())
                .unwrap_or_default()
        });
        card * (width.len().max(1) as f64 + 1.0) * self.dollars_per_op
    }
}

impl CostEstimator for OptimizerEstimator {
    fn estimate(&self, input: &FeatureInput) -> f64 {
        let q = self.plan_cost(&input.query, &input.tables);
        let s = self.plan_cost(&input.view, &input.tables);
        let scan = self.view_scan_cost(&input.view, &input.tables);
        (q - s + scan).max(0.0)
    }

    fn name(&self) -> &'static str {
        "Optimizer"
    }
}

// ---------------------------------------------------------------------------
// DeepLearn: learned single-plan cost model, combined like Optimizer
// ---------------------------------------------------------------------------

/// Single-plan numerical features: shape counters plus table statistics.
fn single_plan_features(plan: &PlanRef, tables: &[TableMeta]) -> Vec<f64> {
    let shape = crate::features::plan_shape(plan);
    let total_rows: f64 = tables.iter().map(|t| t.rows).sum();
    let total_bytes: f64 = tables.iter().map(|t| t.bytes).sum();
    let total_cols: f64 = tables.iter().map(|t| t.columns).sum();
    let log1p = |x: f64| (1.0 + x).ln();
    vec![
        shape[0],
        shape[1],
        shape[2],
        shape[3],
        shape[4],
        plan.node_count() as f64,
        tables.len() as f64,
        total_cols,
        log1p(total_rows),
        log1p(total_bytes),
    ]
}

/// The learned-estimator baseline ([36]-style): a small MLP predicts the
/// cost of a *single* plan; the rewritten cost is composed as
/// `NN(q) − NN(s) + ridge(scan of v)`. Like Optimizer, the three-way
/// composition accumulates error — but each component is learned, so it
/// lands between Optimizer and the pair-trained models, as in Table III.
pub struct DeepLearnEstimator {
    store: ParamStore,
    l1: Linear,
    l2: Linear,
    l3: Linear,
    scan_model: Vec<f64>,
    y_mean: f64,
    y_std: f64,
    x_mean: Vec<f64>,
    x_std: Vec<f64>,
}

impl DeepLearnEstimator {
    /// Train on labelled pairs: the single-plan model sees `(q, cost_q)` and
    /// `(s, cost_s)`; the scan model regresses `cost_vscan` on `s` features.
    pub fn fit(samples: &[PairSample], epochs: usize, lr: f32, seed: u64) -> DeepLearnEstimator {
        // Assemble the single-plan training set.
        let mut xs: Vec<Vec<f64>> = Vec::new();
        let mut ys: Vec<f64> = Vec::new();
        for s in samples {
            xs.push(single_plan_features(&s.input.query, &s.input.tables));
            ys.push(s.cost_q);
            xs.push(single_plan_features(&s.input.view, &s.input.tables));
            ys.push(s.cost_s);
        }
        let dim = xs.first().map(|x| x.len()).unwrap_or(10);
        let (x_mean, x_std) = normalization_stats(&xs, dim);
        let (y_mean, y_std) = scalar_stats(&ys);

        let mut store = ParamStore::with_seed(seed);
        let l1 = Linear::new(&mut store, dim, 32);
        let l2 = Linear::new(&mut store, 32, 32);
        let l3 = Linear::new(&mut store, 32, 1);
        let mut adam = Adam::new(lr);

        for _ in 0..epochs {
            store.zero_grads();
            if xs.is_empty() {
                break;
            }
            let rows: Vec<Vec<f32>> = xs.iter().map(|x| normalize(x, &x_mean, &x_std)).collect();
            let row_refs: Vec<&[f32]> = rows.iter().map(|r| r.as_slice()).collect();
            let targets: Vec<f32> = ys.iter().map(|&y| ((y - y_mean) / y_std) as f32).collect();
            let mut g = Graph::new();
            let x = g.input(Tensor::from_rows(&row_refs));
            let h = l1.forward_with(&mut g, &store, x);
            let h = g.relu(h);
            let h = l2.forward_with(&mut g, &store, h);
            let h = g.relu(h);
            let pred = l3.forward_with(&mut g, &store, h);
            let t = g.input(Tensor::from_vec(targets.len(), 1, targets));
            let loss = g.mse(pred, t);
            g.backward(loss);
            g.accumulate_param_grads(&mut store);
            adam.step(&mut store);
        }

        // Ridge model for the view-scan cost from view features.
        let scan_rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|s| {
                let mut f = single_plan_features(&s.input.view, &s.input.tables);
                f.push(1.0);
                f
            })
            .collect();
        let scan_y: Vec<f64> = samples.iter().map(|s| s.cost_vscan).collect();
        let scan_model = ridge_fit(&scan_rows, &scan_y, 1e-6).unwrap_or_else(|| vec![0.0; dim + 1]);

        DeepLearnEstimator {
            store,
            l1,
            l2,
            l3,
            scan_model,
            y_mean,
            y_std,
            x_mean,
            x_std,
        }
    }

    fn predict_plan(&self, plan: &PlanRef, tables: &[TableMeta]) -> f64 {
        let x = single_plan_features(plan, tables);
        let row = normalize(&x, &self.x_mean, &self.x_std);
        let mut g = Graph::new();
        let xn = g.input(Tensor::from_rows(&[row.as_slice()]));
        let h = self.l1.forward_with(&mut g, &self.store, xn);
        let h = g.relu(h);
        let h = self.l2.forward_with(&mut g, &self.store, h);
        let h = g.relu(h);
        let pred = self.l3.forward_with(&mut g, &self.store, h);
        g.value(pred).get(0, 0) as f64 * self.y_std + self.y_mean
    }
}

impl CostEstimator for DeepLearnEstimator {
    fn estimate(&self, input: &FeatureInput) -> f64 {
        let q = self.predict_plan(&input.query, &input.tables);
        let s = self.predict_plan(&input.view, &input.tables);
        let mut f = single_plan_features(&input.view, &input.tables);
        f.push(1.0);
        let scan = dot(&f, &self.scan_model);
        (q - s + scan).max(0.0)
    }

    fn name(&self) -> &'static str {
        "DeepLearn"
    }
}

// ---------------------------------------------------------------------------
// LR: ridge regression on pair features
// ---------------------------------------------------------------------------

/// Linear-regression baseline: ridge fit of the pair's numerical features
/// (plus intercept) directly against `A(q|v)`.
#[derive(Debug, Clone)]
pub struct LinearRegression {
    weights: Vec<f64>,
}

impl LinearRegression {
    /// Fit on labelled pairs.
    pub fn fit(samples: &[(FeatureInput, f64)]) -> LinearRegression {
        let rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|(inp, _)| {
                let mut f = numerical_features(inp).to_vec();
                f.push(1.0);
                f
            })
            .collect();
        let y: Vec<f64> = samples.iter().map(|(_, t)| *t).collect();
        let weights = ridge_fit(&rows, &y, 1e-6)
            .unwrap_or_else(|| vec![0.0; crate::features::NUM_FEATURES + 1]);
        LinearRegression { weights }
    }
}

impl CostEstimator for LinearRegression {
    fn estimate(&self, input: &FeatureInput) -> f64 {
        let mut f = numerical_features(input).to_vec();
        f.push(1.0);
        dot(&f, &self.weights)
    }

    fn name(&self) -> &'static str {
        "LR"
    }
}

// ---------------------------------------------------------------------------
// shared helpers
// ---------------------------------------------------------------------------

pub(crate) fn normalization_stats(xs: &[Vec<f64>], dim: usize) -> (Vec<f64>, Vec<f64>) {
    let n = xs.len().max(1) as f64;
    let mut mean = vec![0.0; dim];
    for x in xs {
        for (m, v) in mean.iter_mut().zip(x) {
            *m += v;
        }
    }
    for m in &mut mean {
        *m /= n;
    }
    let mut std = vec![0.0; dim];
    for x in xs {
        for ((s, v), m) in std.iter_mut().zip(x).zip(&mean) {
            *s += (v - m).powi(2);
        }
    }
    for s in &mut std {
        *s = (*s / n).sqrt().max(1e-9);
    }
    (mean, std)
}

pub(crate) fn scalar_stats(ys: &[f64]) -> (f64, f64) {
    let n = ys.len().max(1) as f64;
    let mean = ys.iter().sum::<f64>() / n;
    let var = ys.iter().map(|y| (y - mean).powi(2)).sum::<f64>() / n;
    (mean, var.sqrt().max(1e-12))
}

pub(crate) fn normalize(x: &[f64], mean: &[f64], std: &[f64]) -> Vec<f32> {
    x.iter()
        .zip(mean)
        .zip(std)
        .map(|((v, m), s)| ((v - m) / s) as f32)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_plan::PlanBuilder;

    fn meta(rows: f64) -> TableMeta {
        TableMeta {
            name: "t".into(),
            rows,
            columns: 3.0,
            bytes: rows * 24.0,
            avg_distinct_ratio: 0.5,
            column_names: vec!["a".into(), "b".into(), "c".into()],
            column_types: vec!["Int".into(), "Int".into(), "Int".into()],
        }
    }

    fn input(rows: f64) -> FeatureInput {
        let view = PlanBuilder::scan("t", "x")
            .filter(Expr::col("x.a").eq(Expr::int(1)))
            .project(&[("x.b", "b")])
            .build();
        let query = PlanBuilder::from_plan(view.clone())
            .count_star(&["b"], "n")
            .build();
        FeatureInput {
            query,
            view,
            tables: vec![meta(rows)],
        }
    }

    #[test]
    fn optimizer_cost_grows_with_table_size() {
        let o = OptimizerEstimator::default();
        assert!(o.estimate(&input(100_000.0)) > o.estimate(&input(100.0)));
    }

    #[test]
    fn optimizer_estimate_is_nonnegative() {
        let o = OptimizerEstimator::default();
        assert!(o.estimate(&input(10.0)) >= 0.0);
    }

    #[test]
    fn selectivity_heuristics() {
        let eq = Expr::col("a").eq(Expr::int(1));
        assert!((selectivity(&eq) - 0.1).abs() < 1e-12);
        let both = eq.clone().and(Expr::col("b").cmp(CmpOp::Gt, Expr::int(2)));
        assert!((selectivity(&both) - 0.03).abs() < 1e-12);
        let either = Expr::Or(vec![eq.clone(), eq]);
        assert!((selectivity(&either) - 0.19).abs() < 1e-12);
    }

    #[test]
    fn lr_fits_linear_cost_surface() {
        // Synthetic: cost = 2 × (query node count) + 0.5 × n_tables.
        let samples: Vec<(FeatureInput, f64)> = (1..30)
            .map(|i| {
                let inp = input(100.0 * i as f64);
                let cost = 2.0 * inp.query.node_count() as f64 + 0.5;
                (inp, cost)
            })
            .collect();
        let lr = LinearRegression::fit(&samples);
        let pred = lr.estimate(&samples[0].0);
        assert!((pred - samples[0].1).abs() < 0.2, "pred {pred}");
    }

    #[test]
    fn deeplearn_learns_single_plan_costs() {
        // Cost proportional to log rows: learnable from the feature vector.
        let samples: Vec<PairSample> = (1..40)
            .map(|i| {
                let rows = 50.0 * i as f64;
                let inp = input(rows);
                let base = (1.0 + rows).ln();
                PairSample {
                    input: inp,
                    cost_qv: base * 0.5,
                    cost_q: base,
                    cost_s: base * 0.6,
                    cost_vscan: base * 0.1,
                }
            })
            .collect();
        let m = DeepLearnEstimator::fit(&samples, 400, 0.01, 3);
        let probe = &samples[20];
        let pred = m.estimate(&probe.input);
        let truth = probe.cost_q - probe.cost_s + probe.cost_vscan;
        assert!(
            (pred - truth).abs() < 0.5 * truth.abs().max(1.0),
            "pred {pred} truth {truth}"
        );
    }

    #[test]
    fn normalization_stats_are_sane() {
        let xs = vec![vec![0.0, 10.0], vec![2.0, 10.0]];
        let (mean, std) = normalization_stats(&xs, 2);
        assert_eq!(mean, vec![1.0, 10.0]);
        assert!((std[0] - 1.0).abs() < 1e-12);
        assert!(std[1] >= 1e-9, "zero-variance guarded");
    }
}
