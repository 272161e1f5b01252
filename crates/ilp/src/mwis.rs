//! Maximum-weight independent set: the per-query `Y-Opt` kernel.

/// Maximum-weight independent set, solved exactly: pick items maximizing
/// `Σ w` such that no conflicting pair is picked together. Items with
/// non-positive weight are never picked, and a self-pair `(a, a)` forbids
/// `a`.
///
/// Depth-first branch and bound over the conflict graph. Items are visited
/// in a stable order of `|w|` descending, and a takeable item is taken
/// before it is left out. A node is pruned when the weight taken so far plus
/// every positive weight still undecided cannot beat the incumbent by more
/// than `1e-12`, so among equal sets the first one found is returned.
pub fn max_weight_independent_set(weights: &[f64], conflicts: &[(usize, usize)]) -> Vec<bool> {
    let n = weights.len();
    let mut order: Vec<usize> = (0..n).collect();
    order.sort_by(|&a, &b| weights[b].abs().total_cmp(&weights[a].abs()));
    // Optimistic completion of a node at depth `d`: Σ max(w, 0) over order[d..].
    let mut pos_suffix = vec![0.0; n + 1];
    for d in (0..n).rev() {
        pos_suffix[d] = pos_suffix[d + 1] + weights[order[d]].max(0.0);
    }
    let mut takeable: Vec<bool> = weights.iter().map(|&w| w > 0.0).collect();
    let mut neighbours: Vec<Vec<usize>> = vec![Vec::new(); n];
    for &(a, b) in conflicts {
        if a == b {
            takeable[a] = false;
        } else {
            neighbours[a].push(b);
            neighbours[b].push(a);
        }
    }
    let mut search = Search {
        weights,
        order,
        pos_suffix,
        takeable,
        neighbours,
        taken: vec![false; n],
        best: vec![false; n],
        best_weight: f64::NEG_INFINITY,
    };
    search.dfs(0, 0.0);
    search.best
}

struct Search<'a> {
    weights: &'a [f64],
    order: Vec<usize>,
    pos_suffix: Vec<f64>,
    takeable: Vec<bool>,
    neighbours: Vec<Vec<usize>>,
    taken: Vec<bool>,
    best: Vec<bool>,
    best_weight: f64,
}

impl Search<'_> {
    fn dfs(&mut self, depth: usize, current: f64) {
        if current + self.pos_suffix[depth] <= self.best_weight + 1e-12 {
            return;
        }
        if depth == self.order.len() {
            // The bound above already required `current` to beat the incumbent.
            self.best_weight = current;
            self.best.clone_from(&self.taken);
            return;
        }
        let v = self.order[depth];
        if self.takeable[v] && !self.neighbours[v].iter().any(|&u| self.taken[u]) {
            self.taken[v] = true;
            self.dfs(depth + 1, current + self.weights[v]);
            self.taken[v] = false;
        }
        self.dfs(depth + 1, current);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mwis_chain() {
        // path graph a-b-c with weights 3,2,2 → {a, c}
        let picks = max_weight_independent_set(&[3.0, 2.0, 2.0], &[(0, 1), (1, 2)]);
        assert_eq!(picks, vec![true, false, true]);
    }

    #[test]
    fn mwis_skips_nonpositive_weights() {
        let picks = max_weight_independent_set(&[-1.0, 0.0, 5.0], &[]);
        assert_eq!(picks, vec![false, false, true]);
    }

    #[test]
    fn a_self_pair_forbids_its_item() {
        let picks = max_weight_independent_set(&[4.0, 1.0], &[(0, 0)]);
        assert_eq!(picks, vec![false, true]);
    }

    #[test]
    fn ties_keep_the_first_set_in_visit_order() {
        // Equal weights: the stable |w| order visits item 0 first and takes it.
        let picks = max_weight_independent_set(&[2.0, 2.0], &[(0, 1)]);
        assert_eq!(picks, vec![true, false]);
        // {1, 2} ties {0} exactly; the search finds {0} first and keeps it.
        let picks = max_weight_independent_set(&[4.0, 2.0, 2.0], &[(0, 1), (0, 2)]);
        assert_eq!(picks, vec![true, false, false]);
    }

    #[test]
    fn empty_input_picks_nothing() {
        assert!(max_weight_independent_set(&[], &[]).is_empty());
    }
}
