//! # av-select — materialized view selection
//!
//! Solvers for the MVS problem (paper Section V), all over the shared
//! [`av_ilp::MvsInstance`] formulation:
//!
//! - [`greedy`]: the four top-k baselines **TopkFreq**, **TopkOver**,
//!   **TopkBen**, **TopkNorm** (Nectar-style ranking heuristics);
//! - [`iterview`]: the paper's iterative optimizer — probabilistic Z-Opt
//!   flips (Eq. 3) alternating with exact per-query Y-Opt;
//! - [`bigsub`]: the BigSub baseline — IterView plus the freeze rule that
//!   forbids unselecting after a threshold iteration (degenerates greedy);
//! - [`rlview`]: **RLView** (Algorithm 2) — the iterative process recast as
//!   an MDP and driven by a DQN with experience replay.
//!
//! Every solver returns a [`SelectionResult`] with the chosen `z`/`y`, the
//! achieved utility, and the per-iteration utility trajectory used by the
//! paper's convergence study (Fig. 10).

#![forbid(unsafe_code)]

pub mod bigsub;
pub mod greedy;
pub mod iterview;
pub mod rlview;

pub use bigsub::{BigSub, BigSubConfig};
pub use greedy::{greedy_best, greedy_sweep, greedy_topk, GreedyRank};
pub use iterview::{IterView, IterViewConfig};
pub use rlview::{RlView, RlViewConfig};

use av_ilp::MvsInstance;
use av_trace::Tracer;

/// Which view selector consumes a benefit matrix — the one dispatch point
/// for the batch pipeline, the online engine and the serving layer's
/// re-optimizer.
#[derive(Debug, Clone)]
pub enum SelectorKind {
    RlView(RlViewConfig),
    BigSub(BigSubConfig),
    IterView(IterViewConfig),
    /// A greedy ranking with its best `k` found by sweeping.
    Greedy(GreedyRank),
}

impl Default for SelectorKind {
    fn default() -> Self {
        SelectorKind::IterView(IterViewConfig::default())
    }
}

impl SelectorKind {
    /// Short display name (`R` / `B` / `I` / rank name).
    pub fn short_name(&self) -> &'static str {
        match self {
            SelectorKind::RlView(_) => "R",
            SelectorKind::BigSub(_) => "B",
            SelectorKind::IterView(_) => "I",
            SelectorKind::Greedy(r) => r.name(),
        }
    }

    /// Run the selector on an instance.
    pub fn run(&self, instance: &MvsInstance) -> SelectionResult {
        self.run_traced(instance, &Tracer::disabled())
    }

    /// Run the selector with telemetry: RLView and IterView record episode
    /// and iteration spans/metrics into `tracer`; the other selectors run
    /// untraced (the caller's phase span still times them).
    pub fn run_traced(&self, instance: &MvsInstance, tracer: &Tracer) -> SelectionResult {
        match self {
            SelectorKind::RlView(cfg) => RlView::run_traced(instance, cfg.clone(), tracer),
            SelectorKind::BigSub(cfg) => BigSub::run(instance, cfg.clone()),
            SelectorKind::IterView(cfg) => IterView::new(instance, cfg.clone()).run_traced(tracer),
            SelectorKind::Greedy(rank) => greedy_best(instance, *rank).1,
        }
    }
}

/// Outcome of a selection run.
#[derive(Debug, Clone)]
pub struct SelectionResult {
    /// Candidates chosen to materialize.
    pub z: Vec<bool>,
    /// Per-query view usage, `y[i][j]`.
    pub y: Vec<Vec<bool>>,
    /// Utility of `(z, y)` — the paper's `U_{Q,V_S}`.
    pub utility: f64,
    /// Utility after each iteration/step, for convergence plots.
    pub trajectory: Vec<f64>,
    /// Iteration (1-based index into `trajectory`) that reached `utility`.
    pub best_iteration: usize,
}

impl SelectionResult {
    /// Build a result from a `z` assignment, solving `Y` exactly.
    pub fn from_z(instance: &MvsInstance, z: Vec<bool>) -> SelectionResult {
        let y = instance.solve_y(&z);
        let utility = instance.utility(&z, &y);
        SelectionResult {
            z,
            y,
            utility,
            trajectory: vec![utility],
            best_iteration: 1,
        }
    }

    /// Number of materialized views.
    pub fn num_materialized(&self) -> usize {
        self.z.iter().filter(|&&b| b).count()
    }

    /// Number of (query, view) rewrite pairs.
    pub fn num_rewrites(&self) -> usize {
        self.y
            .iter()
            .map(|row| row.iter().filter(|&&b| b).count())
            .sum()
    }
}

#[cfg(test)]
mod result_tests {
    use super::*;

    fn instance() -> MvsInstance {
        MvsInstance {
            benefits: vec![vec![3.0, 0.0], vec![2.0, 4.0]],
            overheads: vec![1.0, 1.5],
            overlaps: vec![],
        }
    }

    #[test]
    fn from_z_solves_y_and_counts() {
        let m = instance();
        let r = SelectionResult::from_z(&m, vec![true, true]);
        assert_eq!(r.num_materialized(), 2);
        assert_eq!(r.num_rewrites(), 3); // q0 uses v0; q1 uses v0 and v1
        assert!((r.utility - (3.0 + 2.0 + 4.0 - 2.5)).abs() < 1e-12);
        assert_eq!(r.trajectory, vec![r.utility]);
        assert_eq!(r.best_iteration, 1);
    }

    #[test]
    fn empty_selection_has_zero_everything() {
        let m = instance();
        let r = SelectionResult::from_z(&m, vec![false, false]);
        assert_eq!(r.num_materialized(), 0);
        assert_eq!(r.num_rewrites(), 0);
        assert_eq!(r.utility, 0.0);
    }
}

#[cfg(test)]
pub(crate) mod testutil {
    use av_ilp::MvsInstance;
    use rand::Rng;
    use rand_chacha::rand_core::SeedableRng;
    use rand_chacha::ChaCha8Rng;

    /// Deterministic random instance with mild sharing and conflicts.
    pub fn random_instance(seed: u64, nq: usize, nc: usize) -> MvsInstance {
        let mut rng = ChaCha8Rng::seed_from_u64(seed);
        let benefits = (0..nq)
            .map(|_| {
                (0..nc)
                    .map(|_| {
                        if rng.gen_bool(0.35) {
                            rng.gen_range(0.5..6.0)
                        } else {
                            0.0
                        }
                    })
                    .collect()
            })
            .collect();
        let overheads = (0..nc).map(|_| rng.gen_range(0.5..8.0)).collect();
        let mut overlaps = Vec::new();
        for j in 0..nc {
            for k in j + 1..nc {
                if rng.gen_bool(0.15) {
                    overlaps.push((j, k));
                }
            }
        }
        MvsInstance {
            benefits,
            overheads,
            overlaps,
        }
    }
}
