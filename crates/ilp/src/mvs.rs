//! The Materialized View Selection ILP (paper Definition 7 / Section V-A).
//!
//! Variables: `z_j` — materialize candidate subquery `j`; `y_ij` — query `i`
//! uses view `j`. Maximize `Σ y_ij·B_ij − Σ z_j·O_j` subject to
//! `y_ij ≤ z_j` and, for overlapping candidates `j,k`,
//! `y_ij + y_ik ≤ 1` per query.

use crate::mwis::max_weight_independent_set;

/// A concrete MVS instance: the benefit matrix, overheads and conflicts.
#[derive(Debug, Clone)]
pub struct MvsInstance {
    /// `benefits[i][j]` — benefit `B_{q_i, v_j}` of using view `j` for query
    /// `i`; 0 when the view is not applicable.
    pub benefits: Vec<Vec<f64>>,
    /// `overheads[j]` — total overhead `O_{v_j}` of materializing candidate `j`.
    pub overheads: Vec<f64>,
    /// Overlapping candidate pairs `(j, k)`, j < k.
    pub overlaps: Vec<(usize, usize)>,
}

/// A solution: which candidates to materialize and which views each query
/// uses.
#[derive(Debug, Clone, PartialEq)]
pub struct MvsSolution {
    pub z: Vec<bool>,
    /// `y[i][j]`.
    pub y: Vec<Vec<bool>>,
    pub utility: f64,
}

impl MvsInstance {
    /// Number of queries.
    pub fn num_queries(&self) -> usize {
        self.benefits.len()
    }

    /// Number of candidate subqueries (`|Z|`).
    pub fn num_candidates(&self) -> usize {
        self.overheads.len()
    }

    /// Conflict pairs among a query's usable views, restricted to `items`.
    fn conflicts_within(&self, items: &[usize]) -> Vec<(usize, usize)> {
        let mut pos = vec![usize::MAX; self.num_candidates()];
        for (idx, &j) in items.iter().enumerate() {
            pos[j] = idx;
        }
        self.overlaps
            .iter()
            .filter_map(|&(a, b)| {
                let (pa, pb) = (pos[a], pos[b]);
                (pa != usize::MAX && pb != usize::MAX).then_some((pa, pb))
            })
            .collect()
    }

    /// Exact `Y-Opt` for one query given a fixed `z` (the per-query local
    /// ILP of the paper's Function Y-Opt): choose a non-overlapping subset
    /// of the materialized, beneficial views maximizing total benefit.
    pub fn solve_y_for_query(&self, i: usize, z: &[bool]) -> Vec<bool> {
        let items: Vec<usize> = (0..self.num_candidates())
            .filter(|&j| z[j] && self.benefits[i][j] > 0.0)
            .collect();
        let weights: Vec<f64> = items.iter().map(|&j| self.benefits[i][j]).collect();
        let conflicts = self.conflicts_within(&items);
        let picks = max_weight_independent_set(&weights, &conflicts);
        let mut y = vec![false; self.num_candidates()];
        for (idx, &j) in items.iter().enumerate() {
            y[j] = picks[idx];
        }
        y
    }

    /// Exact `Y` for all queries given `z`.
    pub fn solve_y(&self, z: &[bool]) -> Vec<Vec<bool>> {
        (0..self.num_queries())
            .map(|i| self.solve_y_for_query(i, z))
            .collect()
    }

    /// Total benefit of a `Y` assignment.
    pub fn total_benefit(&self, y: &[Vec<bool>]) -> f64 {
        y.iter()
            .enumerate()
            .map(|(i, row)| {
                row.iter()
                    .enumerate()
                    .map(|(j, &used)| if used { self.benefits[i][j] } else { 0.0 })
                    .sum::<f64>()
            })
            .sum()
    }

    /// Total overhead of a `z` assignment.
    pub fn total_overhead(&self, z: &[bool]) -> f64 {
        z.iter()
            .zip(&self.overheads)
            .map(|(&zj, &o)| if zj { o } else { 0.0 })
            .sum()
    }

    /// Utility `U = Σ y·B − Σ z·O` (paper Definition 6).
    pub fn utility(&self, z: &[bool], y: &[Vec<bool>]) -> f64 {
        self.total_benefit(y) - self.total_overhead(z)
    }

    /// Utility of a `z` assignment under its optimal `Y`.
    pub fn utility_of_z(&self, z: &[bool]) -> f64 {
        let y = self.solve_y(z);
        self.utility(z, &y)
    }

    /// Maximum potential benefit of candidate `j` (`B_max[j]` in IterView):
    /// the benefit if every applicable query used it, conflicts ignored.
    pub fn max_benefit(&self, j: usize) -> f64 {
        self.benefits.iter().map(|row| row[j].max(0.0)).sum()
    }

    /// Best `z` found by a node-budgeted search, and whether the search
    /// finished (the returned utility is then the proved optimum).
    ///
    /// Depth-first branch and bound over `z` with exact inner `Y`:
    /// the bound at a node is the utility of the incumbent-feasible part
    /// plus `Σ max(0, B_max[j] − O_j)` over undecided candidates, which
    /// dominates any completion because conflicts only remove benefit.
    /// `node_budget` caps the nodes visited; a search that the cap cut
    /// returns its incumbent flagged unproved. The bound is loose, so at the
    /// benchmark scales (about 100 candidates) no practical budget finishes.
    pub fn solve_exact(&self, node_budget: usize) -> (MvsSolution, bool) {
        self.solve_exact_from(node_budget, None)
    }

    /// [`MvsInstance::solve_exact`] with a warm-start incumbent: the search
    /// starts from `z0`'s utility, so a budget-capped run always returns a
    /// solution at least as good as the warm start.
    pub fn solve_exact_from(
        &self,
        node_budget: usize,
        warm_start: Option<&[bool]>,
    ) -> (MvsSolution, bool) {
        let n = self.num_candidates();
        // Candidate order: descending net potential.
        let mut order: Vec<usize> = (0..n).collect();
        let net: Vec<f64> = (0..n)
            .map(|j| self.max_benefit(j) - self.overheads[j])
            .collect();
        order.sort_by(|&a, &b| net[b].total_cmp(&net[a]));

        let mut suffix_potential = vec![0.0; n + 1];
        for d in (0..n).rev() {
            suffix_potential[d] = suffix_potential[d + 1] + net[order[d]].max(0.0);
        }

        let mut best: Option<MvsSolution> = warm_start.map(|z0| {
            let y = self.solve_y(z0);
            let utility = self.utility(z0, &y);
            MvsSolution {
                z: z0.to_vec(),
                y,
                utility,
            }
        });
        let mut z = vec![false; n];
        let mut budget = Budget {
            left: node_budget,
            cut: false,
        };
        self.exact_dfs(0, &order, &suffix_potential, &mut z, &mut best, &mut budget);
        let optimal = !budget.cut;
        let sol = best.unwrap_or_else(|| {
            let z = vec![false; n];
            let y = self.solve_y(&z);
            let utility = self.utility(&z, &y);
            MvsSolution { z, y, utility }
        });
        (sol, optimal)
    }

    fn exact_dfs(
        &self,
        depth: usize,
        order: &[usize],
        suffix_potential: &[f64],
        z: &mut Vec<bool>,
        best: &mut Option<MvsSolution>,
        budget: &mut Budget,
    ) {
        if budget.left == 0 {
            budget.cut = true;
            return;
        }
        budget.left -= 1;

        // Evaluate the partial assignment completed with all-false: an
        // anytime incumbent and the basis of the bound.
        let y = self.solve_y(z);
        let u = self.utility(z, &y);
        if best.as_ref().map(|b| u > b.utility).unwrap_or(true) {
            *best = Some(MvsSolution {
                z: z.clone(),
                y,
                utility: u,
            });
        }
        if depth == order.len() {
            return;
        }
        // Bound: u already counts fixed candidates; undecided ones add at
        // most their net potential.
        if u + suffix_potential[depth]
            <= best
                .as_ref()
                .map(|b| b.utility)
                .unwrap_or(f64::NEG_INFINITY)
                + 1e-12
        {
            return;
        }
        let j = order[depth];
        z[j] = true;
        self.exact_dfs(depth + 1, order, suffix_potential, z, best, budget);
        z[j] = false;
        self.exact_dfs(depth + 1, order, suffix_potential, z, best, budget);
    }
}

/// Nodes [`MvsInstance::solve_exact_from`] may still visit, and whether it
/// has had to skip one.
struct Budget {
    left: usize,
    cut: bool,
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two queries, two candidates; candidate 0 benefits both queries.
    fn small() -> MvsInstance {
        MvsInstance {
            benefits: vec![vec![5.0, 0.0], vec![4.0, 3.0]],
            overheads: vec![2.0, 10.0],
            overlaps: vec![],
        }
    }

    #[test]
    fn y_opt_respects_z() {
        let m = small();
        let y = m.solve_y_for_query(1, &[false, true]);
        assert_eq!(y, vec![false, true]);
        let y = m.solve_y_for_query(1, &[false, false]);
        assert_eq!(y, vec![false, false]);
    }

    #[test]
    fn y_opt_respects_overlap() {
        let mut m = small();
        m.overlaps = vec![(0, 1)];
        // Query 1 can use both but they conflict → picks the better (4 > 3).
        let y = m.solve_y_for_query(1, &[true, true]);
        assert_eq!(y, vec![true, false]);
    }

    #[test]
    fn utility_accounting() {
        let m = small();
        let z = vec![true, false];
        let y = m.solve_y(&z);
        // benefit 5 + 4 = 9, overhead 2 → utility 7
        assert!((m.utility(&z, &y) - 7.0).abs() < 1e-12);
        assert!((m.utility_of_z(&z) - 7.0).abs() < 1e-12);
    }

    #[test]
    fn exact_solver_picks_profitable_candidate_only() {
        let m = small();
        let (sol, optimal) = m.solve_exact(100_000);
        assert!(optimal);
        // candidate 1 costs 10 for benefit 3 → never; candidate 0 nets +7.
        assert_eq!(sol.z, vec![true, false]);
        assert!((sol.utility - 7.0).abs() < 1e-12);
    }

    #[test]
    fn exact_solver_handles_overlap_tradeoff() {
        // One query; two conflicting views. Separately profitable, but only
        // one can be used — the solver must not pay both overheads.
        let m = MvsInstance {
            benefits: vec![vec![10.0, 9.0]],
            overheads: vec![1.0, 1.0],
            overlaps: vec![(0, 1)],
        };
        let (sol, _) = m.solve_exact(100_000);
        assert_eq!(sol.z, vec![true, false]);
        assert!((sol.utility - 9.0).abs() < 1e-12);
    }

    #[test]
    fn max_benefit_sums_positive_rows() {
        let m = small();
        assert!((m.max_benefit(0) - 9.0).abs() < 1e-12);
        assert!((m.max_benefit(1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn budget_exhaustion_is_reported() {
        let m = small();
        let (_, optimal) = m.solve_exact(1);
        assert!(!optimal);
    }

    #[test]
    fn a_search_that_spends_exactly_its_budget_is_proved() {
        let empty = MvsInstance {
            benefits: vec![vec![]],
            overheads: vec![],
            overlaps: vec![],
        };
        assert!(empty.solve_exact(1).1);
        assert!(!empty.solve_exact(0).1);
        // One profitable candidate: the root, then take it, then leave it.
        let one = MvsInstance {
            benefits: vec![vec![5.0]],
            overheads: vec![1.0],
            overlaps: vec![],
        };
        assert!(one.solve_exact(3).1);
        assert!(!one.solve_exact(2).1);
    }

    #[test]
    fn exact_matches_brute_force_on_random_instances() {
        use rand::Rng;
        use rand_chacha::rand_core::SeedableRng;
        let mut rng = rand_chacha::ChaCha8Rng::seed_from_u64(77);
        for _ in 0..20 {
            let nq = rng.gen_range(1..4usize);
            let nc = rng.gen_range(1..6usize);
            let benefits: Vec<Vec<f64>> = (0..nq)
                .map(|_| {
                    (0..nc)
                        .map(|_| {
                            if rng.gen_bool(0.5) {
                                rng.gen_range(0.0..10.0)
                            } else {
                                0.0
                            }
                        })
                        .collect()
                })
                .collect();
            let overheads: Vec<f64> = (0..nc).map(|_| rng.gen_range(0.0..8.0)).collect();
            let mut overlaps = Vec::new();
            for j in 0..nc {
                for k in j + 1..nc {
                    if rng.gen_bool(0.3) {
                        overlaps.push((j, k));
                    }
                }
            }
            let m = MvsInstance {
                benefits,
                overheads,
                overlaps,
            };
            let (sol, optimal) = m.solve_exact(1_000_000);
            assert!(optimal);
            // Brute force over z.
            let mut best = f64::NEG_INFINITY;
            for mask in 0..(1usize << nc) {
                let z: Vec<bool> = (0..nc).map(|j| mask >> j & 1 == 1).collect();
                best = best.max(m.utility_of_z(&z));
            }
            assert!(
                (sol.utility - best).abs() < 1e-9,
                "B&B {} != brute force {}",
                sol.utility,
                best
            );
        }
    }
}
