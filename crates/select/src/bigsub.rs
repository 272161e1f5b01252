//! BigSub baseline (Jindal et al., PVLDB'18): iterative bipartite labeling
//! with a convergence freeze.
//!
//! BigSub runs the same alternating optimization as IterView, but — to force
//! convergence — forbids turning *selected* subqueries back to unselected
//! once the iteration count passes a threshold. The paper observes this
//! makes it degenerate toward a greedy method with correspondingly poorer
//! utility, which is the motivation for RLView.

use crate::iterview::{IterView, IterViewConfig};
use crate::SelectionResult;
use av_ilp::MvsInstance;

/// Configuration for [`BigSub`].
#[derive(Debug, Clone)]
pub struct BigSubConfig {
    /// Total iterations. 1→0 flips are forbidden after the first third of
    /// them, BigSub's early freeze.
    pub iterations: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for BigSubConfig {
    fn default() -> Self {
        BigSubConfig {
            iterations: 100,
            seed: 42,
        }
    }
}

/// The BigSub solver.
pub struct BigSub;

impl BigSub {
    /// Run BigSub on an instance.
    pub fn run(instance: &MvsInstance, config: BigSubConfig) -> SelectionResult {
        IterView::new(
            instance,
            IterViewConfig {
                iterations: config.iterations,
                seed: config.seed,
            },
        )
        .freeze_from(config.iterations / 3)
        .run()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_instance;

    #[test]
    fn bigsub_is_deterministic() {
        let m = random_instance(20, 10, 12);
        let a = BigSub::run(&m, BigSubConfig::default());
        let b = BigSub::run(&m, BigSubConfig::default());
        assert_eq!(a.z, b.z);
        assert!((a.utility - b.utility).abs() < 1e-12);
    }

    #[test]
    fn trajectory_stabilizes_after_freeze() {
        // After the freeze the selected set only grows, so the set of
        // distinct utilities in the frozen tail should be small relative to
        // the pre-freeze churn on a contended instance.
        let m = random_instance(21, 16, 20);
        // 60 iterations freeze after the first 20.
        let cfg = BigSubConfig {
            iterations: 60,
            seed: 3,
        };
        let r = BigSub::run(&m, cfg);
        assert_eq!(r.trajectory.len(), 60);
        let tail = &r.trajectory[40..];
        let tail_range = tail.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - tail.iter().copied().fold(f64::INFINITY, f64::min);
        let head = &r.trajectory[..20];
        let head_range = head.iter().copied().fold(f64::NEG_INFINITY, f64::max)
            - head.iter().copied().fold(f64::INFINITY, f64::min);
        assert!(
            tail_range <= head_range + 1e-9,
            "frozen tail should churn no more than the head (tail {tail_range}, head {head_range})"
        );
    }

    #[test]
    fn utility_is_consistent_with_instance() {
        let m = random_instance(22, 8, 10);
        let r = BigSub::run(&m, BigSubConfig::default());
        assert!((m.utility(&r.z, &r.y) - r.utility).abs() < 1e-9);
    }
}
