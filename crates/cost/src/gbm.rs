//! Gradient-boosted regression trees — the XGBoost stand-in for the paper's
//! GBM baseline.
//!
//! Squared-error boosting: each round fits a depth-limited regression tree
//! to the current residuals (exact greedy splits) and adds it with
//! shrinkage.

use crate::features::{numerical_features, FeatureInput};
use crate::CostEstimator;

/// GBM hyper-parameters.
#[derive(Debug, Clone)]
pub struct GbmConfig {
    pub n_trees: usize,
    pub max_depth: usize,
    pub learning_rate: f64,
    /// Minimum samples in a leaf; splits creating smaller leaves are
    /// rejected.
    pub min_leaf: usize,
}

impl Default for GbmConfig {
    fn default() -> Self {
        GbmConfig {
            n_trees: 80,
            max_depth: 3,
            learning_rate: 0.1,
            min_leaf: 3,
        }
    }
}

#[derive(Debug, Clone)]
enum Node {
    Leaf(f64),
    Split {
        feature: usize,
        threshold: f64,
        left: Box<Node>,
        right: Box<Node>,
    },
}

impl Node {
    fn predict(&self, x: &[f64]) -> f64 {
        match self {
            Node::Leaf(v) => *v,
            Node::Split {
                feature,
                threshold,
                left,
                right,
            } => {
                if x[*feature] <= *threshold {
                    left.predict(x)
                } else {
                    right.predict(x)
                }
            }
        }
    }
}

/// A fitted gradient-boosted model.
#[derive(Debug, Clone)]
pub struct Gbm {
    base: f64,
    trees: Vec<Node>,
    config: GbmConfig,
}

impl Gbm {
    /// Fit on raw feature rows and targets.
    pub fn fit(rows: &[Vec<f64>], y: &[f64], config: GbmConfig) -> Gbm {
        assert_eq!(rows.len(), y.len(), "row/target mismatch");
        let base = if y.is_empty() {
            0.0
        } else {
            y.iter().sum::<f64>() / y.len() as f64
        };
        let mut pred = vec![base; y.len()];
        let mut trees = Vec::with_capacity(config.n_trees);
        let indices: Vec<usize> = (0..rows.len()).collect();
        for _ in 0..config.n_trees {
            let residuals: Vec<f64> = y.iter().zip(&pred).map(|(t, p)| t - p).collect();
            let tree = build_tree(
                rows,
                &residuals,
                &indices,
                config.max_depth,
                config.min_leaf,
            );
            for (i, p) in pred.iter_mut().enumerate() {
                *p += config.learning_rate * tree.predict(&rows[i]);
            }
            trees.push(tree);
        }
        Gbm {
            base,
            trees,
            config,
        }
    }

    /// Fit directly from labelled pair samples using the numerical features.
    pub fn fit_samples(samples: &[(FeatureInput, f64)], config: GbmConfig) -> Gbm {
        let rows: Vec<Vec<f64>> = samples
            .iter()
            .map(|(inp, _)| numerical_features(inp).to_vec())
            .collect();
        let y: Vec<f64> = samples.iter().map(|(_, t)| *t).collect();
        Gbm::fit(&rows, &y, config)
    }

    /// Predict for a raw feature row.
    pub fn predict(&self, x: &[f64]) -> f64 {
        self.base
            + self
                .trees
                .iter()
                .map(|t| self.config.learning_rate * t.predict(x))
                .sum::<f64>()
    }
}

impl CostEstimator for Gbm {
    fn estimate(&self, input: &FeatureInput) -> f64 {
        self.predict(&numerical_features(input))
    }

    fn name(&self) -> &'static str {
        "GBM"
    }
}

fn build_tree(
    rows: &[Vec<f64>],
    targets: &[f64],
    indices: &[usize],
    depth: usize,
    min_leaf: usize,
) -> Node {
    let mean = if indices.is_empty() {
        0.0
    } else {
        indices.iter().map(|&i| targets[i]).sum::<f64>() / indices.len() as f64
    };
    if depth == 0 || indices.len() < 2 * min_leaf {
        return Node::Leaf(mean);
    }

    let n_features = rows.first().map(|r| r.len()).unwrap_or(0);
    let total_sum: f64 = indices.iter().map(|&i| targets[i]).sum();
    let n = indices.len() as f64;
    let mut best: Option<(f64, usize, f64)> = None; // (gain, feature, threshold)

    // Indexing by feature is clearer than iterating row slices here.
    #[allow(clippy::needless_range_loop)]
    for f in 0..n_features {
        let mut sorted: Vec<usize> = indices.to_vec();
        sorted.sort_by(|&a, &b| rows[a][f].total_cmp(&rows[b][f]));
        let mut left_sum = 0.0;
        for (pos, &i) in sorted.iter().enumerate() {
            left_sum += targets[i];
            let left_n = (pos + 1) as f64;
            let right_n = n - left_n;
            if (pos + 1) < min_leaf || (indices.len() - pos - 1) < min_leaf {
                continue;
            }
            // Skip ties: can only split between distinct values.
            if pos + 1 < sorted.len() && rows[i][f] == rows[sorted[pos + 1]][f] {
                continue;
            }
            let right_sum = total_sum - left_sum;
            // Variance-reduction gain (up to constants):
            let gain = left_sum * left_sum / left_n + right_sum * right_sum / right_n
                - total_sum * total_sum / n;
            if best.map(|(g, _, _)| gain > g).unwrap_or(gain > 1e-12) {
                let threshold = if pos + 1 < sorted.len() {
                    (rows[i][f] + rows[sorted[pos + 1]][f]) / 2.0
                } else {
                    rows[i][f]
                };
                best = Some((gain, f, threshold));
            }
        }
    }

    match best {
        None => Node::Leaf(mean),
        Some((_, feature, threshold)) => {
            let (left, right): (Vec<usize>, Vec<usize>) = indices
                .iter()
                .partition(|&&i| rows[i][feature] <= threshold);
            if left.is_empty() || right.is_empty() {
                return Node::Leaf(mean);
            }
            Node::Split {
                feature,
                threshold,
                left: Box::new(build_tree(rows, targets, &left, depth - 1, min_leaf)),
                right: Box::new(build_tree(rows, targets, &right, depth - 1, min_leaf)),
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn step_data() -> (Vec<Vec<f64>>, Vec<f64>) {
        // y = 10 when x > 0.5 else 2, with a nuisance feature.
        let rows: Vec<Vec<f64>> = (0..100)
            .map(|i| vec![(i as f64) / 100.0, ((i * 7) % 13) as f64])
            .collect();
        let y: Vec<f64> = rows
            .iter()
            .map(|r| if r[0] > 0.5 { 10.0 } else { 2.0 })
            .collect();
        (rows, y)
    }

    #[test]
    fn learns_a_step_function() {
        let (rows, y) = step_data();
        let g = Gbm::fit(&rows, &y, GbmConfig::default());
        assert!((g.predict(&[0.9, 0.0]) - 10.0).abs() < 0.5);
        assert!((g.predict(&[0.1, 0.0]) - 2.0).abs() < 0.5);
    }

    #[test]
    fn constant_target_yields_constant_prediction() {
        let rows: Vec<Vec<f64>> = (0..20).map(|i| vec![i as f64]).collect();
        let y = vec![5.0; 20];
        let g = Gbm::fit(&rows, &y, GbmConfig::default());
        assert!((g.predict(&[3.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn boosting_reduces_training_error_monotonically_enough() {
        let (rows, y) = step_data();
        let small = Gbm::fit(
            &rows,
            &y,
            GbmConfig {
                n_trees: 2,
                ..GbmConfig::default()
            },
        );
        let big = Gbm::fit(&rows, &y, GbmConfig::default());
        let err = |g: &Gbm| {
            rows.iter()
                .zip(&y)
                .map(|(r, t)| (g.predict(r) - t).abs())
                .sum::<f64>()
        };
        assert!(err(&big) < err(&small));
    }

    #[test]
    fn respects_min_leaf() {
        let rows: Vec<Vec<f64>> = (0..4).map(|i| vec![i as f64]).collect();
        let y = vec![0.0, 0.0, 10.0, 10.0];
        let g = Gbm::fit(
            &rows,
            &y,
            GbmConfig {
                n_trees: 1,
                max_depth: 5,
                learning_rate: 1.0,
                min_leaf: 3,
            },
        );
        // min_leaf 3 forbids any split of 4 samples (needs ≥ 2·3) → leaf mean.
        assert!((g.predict(&[0.0]) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn empty_training_set_predicts_zero() {
        let g = Gbm::fit(&[], &[], GbmConfig::default());
        assert_eq!(g.predict(&[1.0, 2.0]), 0.0);
    }
}
