//! Greedy top-k baselines (paper Section VI-A, after Nectar [10]).

use crate::SelectionResult;
use av_ilp::MvsInstance;

/// Candidate ranking strategy for the top-k baselines.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum GreedyRank {
    /// Frequency in the workload: the more queries can use the candidate,
    /// the higher the rank.
    TopkFreq,
    /// Materialization overhead: the bigger the overhead, the lower the rank.
    TopkOver,
    /// Total potential benefit: the bigger, the higher.
    TopkBen,
    /// Ratio of (potential utility) to overhead: the bigger, the higher.
    TopkNorm,
}

impl GreedyRank {
    /// All four strategies, in the paper's order.
    pub const ALL: [GreedyRank; 4] = [
        GreedyRank::TopkFreq,
        GreedyRank::TopkOver,
        GreedyRank::TopkBen,
        GreedyRank::TopkNorm,
    ];

    /// Display name matching the paper.
    pub fn name(self) -> &'static str {
        match self {
            GreedyRank::TopkFreq => "TopkFreq",
            GreedyRank::TopkOver => "TopkOver",
            GreedyRank::TopkBen => "TopkBen",
            GreedyRank::TopkNorm => "TopkNorm",
        }
    }

    /// Candidate order (best first) under this strategy.
    pub fn order(self, instance: &MvsInstance) -> Vec<usize> {
        let nc = instance.num_candidates();
        let score: Vec<f64> = (0..nc)
            .map(|j| match self {
                GreedyRank::TopkFreq => {
                    instance.benefits.iter().filter(|row| row[j] > 0.0).count() as f64
                }
                GreedyRank::TopkOver => -instance.overheads[j],
                GreedyRank::TopkBen => instance.max_benefit(j),
                GreedyRank::TopkNorm => {
                    let o = instance.overheads[j].max(1e-12);
                    (instance.max_benefit(j) - instance.overheads[j]) / o
                }
            })
            .collect();
        let mut order: Vec<usize> = (0..nc).collect();
        order.sort_by(|&a, &b| score[b].total_cmp(&score[a]).then(a.cmp(&b)));
        order
    }
}

/// Materialize the top-k candidates under `rank` and solve `Y` exactly.
pub fn greedy_topk(instance: &MvsInstance, rank: GreedyRank, k: usize) -> SelectionResult {
    let order = rank.order(instance);
    let mut z = vec![false; instance.num_candidates()];
    for &j in order.iter().take(k) {
        z[j] = true;
    }
    SelectionResult::from_z(instance, z)
}

/// Utility for every `k ∈ [0, |Z|]` (the curves of the paper's Fig. 9).
/// Returns `(k, utility)` pairs.
pub fn greedy_sweep(instance: &MvsInstance, rank: GreedyRank) -> Vec<(usize, f64)> {
    let order = rank.order(instance);
    let mut z = vec![false; instance.num_candidates()];
    let mut out = Vec::with_capacity(order.len() + 1);
    out.push((0, instance.utility_of_z(&z)));
    for (idx, &j) in order.iter().enumerate() {
        z[j] = true;
        out.push((idx + 1, instance.utility_of_z(&z)));
    }
    out
}

/// Best `k` and its utility under a ranking (the paper's Table IV rows).
pub fn greedy_best(instance: &MvsInstance, rank: GreedyRank) -> (usize, SelectionResult) {
    let sweep = greedy_sweep(instance, rank);
    let (best_k, _) = sweep
        .iter()
        .copied()
        .max_by(|a, b| a.1.total_cmp(&b.1))
        .expect("sweep non-empty");
    (best_k, greedy_topk(instance, rank, best_k))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_instance;

    #[test]
    fn k_zero_selects_nothing() {
        let m = random_instance(1, 6, 8);
        let r = greedy_topk(&m, GreedyRank::TopkBen, 0);
        assert_eq!(r.num_materialized(), 0);
        assert_eq!(r.utility, 0.0);
    }

    #[test]
    fn k_counts_match() {
        let m = random_instance(2, 6, 8);
        for k in 0..=8 {
            let r = greedy_topk(&m, GreedyRank::TopkFreq, k);
            assert_eq!(r.num_materialized(), k.min(8));
        }
    }

    #[test]
    fn topkover_prefers_cheap_candidates() {
        let m = MvsInstance {
            benefits: vec![vec![1.0, 1.0, 1.0]],
            overheads: vec![5.0, 1.0, 3.0],
            overlaps: vec![],
        };
        let order = GreedyRank::TopkOver.order(&m);
        assert_eq!(order, vec![1, 2, 0]);
    }

    #[test]
    fn topkben_prefers_high_benefit() {
        let m = MvsInstance {
            benefits: vec![vec![1.0, 9.0], vec![1.0, 0.0]],
            overheads: vec![1.0, 1.0],
            overlaps: vec![],
        };
        assert_eq!(GreedyRank::TopkBen.order(&m), vec![1, 0]);
        // but TopkFreq prefers the widely-shared one
        assert_eq!(GreedyRank::TopkFreq.order(&m), vec![0, 1]);
    }

    #[test]
    fn sweep_has_len_z_plus_one_and_starts_at_zero() {
        let m = random_instance(3, 5, 7);
        let s = greedy_sweep(&m, GreedyRank::TopkNorm);
        assert_eq!(s.len(), 8);
        assert_eq!(s[0], (0, 0.0));
    }

    #[test]
    fn sweep_rises_then_falls_on_skewed_instance() {
        // A few great candidates, many lousy ones: the utility curve must
        // peak strictly inside (0, |Z|) — the paper's Fig. 9 shape.
        let nc = 10;
        let benefits = vec![
            (0..nc)
                .map(|j| if j < 3 { 50.0 } else { 0.1 })
                .collect::<Vec<f64>>();
            4
        ];
        let overheads = (0..nc).map(|j| if j < 3 { 1.0 } else { 30.0 }).collect();
        let m = MvsInstance {
            benefits,
            overheads,
            overlaps: vec![],
        };
        let s = greedy_sweep(&m, GreedyRank::TopkNorm);
        let peak = s.iter().max_by(|a, b| a.1.total_cmp(&b.1)).expect("some");
        assert!(peak.0 > 0 && peak.0 < nc);
        assert!(s.last().expect("last").1 < peak.1);
    }

    #[test]
    fn greedy_best_returns_argmax_of_sweep() {
        let m = random_instance(4, 8, 10);
        for rank in GreedyRank::ALL {
            let sweep = greedy_sweep(&m, rank);
            let (k, r) = greedy_best(&m, rank);
            let max_u = sweep
                .iter()
                .map(|&(_, u)| u)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!((r.utility - max_u).abs() < 1e-9, "{}: k={k}", rank.name());
        }
    }
}
