//! The paper's Function `IterView`: alternating probabilistic Z-Opt and
//! exact Y-Opt (Section V-A2).

use crate::SelectionResult;
use av_ilp::MvsInstance;
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// Best-seen state during the loop: (utility, z, y, iteration).
type BestState = (f64, Vec<bool>, Vec<Vec<bool>>, usize);

/// Configuration for [`IterView`].
#[derive(Debug, Clone)]
pub struct IterViewConfig {
    /// Number of Z-Opt/Y-Opt iterations (`n` in the paper, `n₁` inside
    /// RLView).
    pub iterations: usize,
    /// RNG seed for the random initialization and flip thresholds.
    pub seed: u64,
    /// BigSub-style freeze: after this iteration, 1→0 flips are forbidden.
    /// `None` (the default) is pure IterView.
    pub freeze_after: Option<usize>,
}

impl Default for IterViewConfig {
    fn default() -> Self {
        IterViewConfig {
            iterations: 100,
            seed: 42,
            freeze_after: None,
        }
    }
}

/// Iterative optimizer state (also the substrate of BigSub and the warm
/// start of RLView).
pub struct IterView<'a> {
    instance: &'a MvsInstance,
    config: IterViewConfig,
    rng: ChaCha8Rng,
    /// `B_max[j]` — benefit if every applicable query used view j.
    b_max: Vec<f64>,
    /// Current assignment.
    pub z: Vec<bool>,
    pub y: Vec<Vec<bool>>,
    /// `B_cur[j]` — realized benefit of view j under current `y`.
    b_cur: Vec<f64>,
    /// `O_cur` — current total overhead.
    o_cur: f64,
    o_max: f64,
    /// Queries each candidate can benefit (`B_ij > 0`), for incremental
    /// Y-Opt: flipping `z_j` only perturbs these rows of `Y`.
    affected: Vec<Vec<usize>>,
}

impl<'a> IterView<'a> {
    /// Initialize `Z` and `Y` randomly (IterView lines 2–9).
    pub fn new(instance: &'a MvsInstance, config: IterViewConfig) -> IterView<'a> {
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed);
        let nc = instance.num_candidates();
        let nq = instance.num_queries();

        let mut z = vec![false; nc];
        let mut o_cur = 0.0;
        let mut b_max = vec![0.0; nc];
        for j in 0..nc {
            z[j] = rng.gen_bool(0.5);
            if z[j] {
                o_cur += instance.overheads[j];
            }
            b_max[j] = instance.max_benefit(j);
        }

        // Random feasible Y: y_ij may be 1 only when z_j, positive benefit,
        // and no conflict with already-set views of the same query.
        let overlap = overlap_matrix(instance);
        let mut y = vec![vec![false; nc]; nq];
        for (i, row) in y.iter_mut().enumerate() {
            for j in 0..nc {
                let conflict = (0..nc).any(|k| k != j && row[k] && overlap[j][k]);
                if z[j] && instance.benefits[i][j] > 0.0 && !conflict {
                    row[j] = rng.gen_bool(0.5);
                }
            }
        }
        let b_cur = realized_benefits(instance, &y);
        let o_max: f64 = instance.overheads.iter().sum();
        let mut affected = vec![Vec::new(); nc];
        for (i, row) in instance.benefits.iter().enumerate() {
            for (j, &b) in row.iter().enumerate() {
                if b > 0.0 {
                    affected[j].push(i);
                }
            }
        }

        IterView {
            instance,
            config,
            rng,
            b_max,
            z,
            y,
            b_cur,
            o_cur,
            o_max,
            affected,
        }
    }

    /// Current utility `Σ y·B − Σ z·O`.
    pub fn utility(&self) -> f64 {
        let b: f64 = self.b_cur.iter().sum();
        b - self.o_cur
    }

    /// One Z-Opt pass (paper Function Z-Opt): flip each `z_j` whose flip
    /// probability (Eq. 3) reaches the round's random threshold `tau`.
    pub fn z_opt(&mut self, tau: f64, frozen: bool) {
        let b_cur_total: f64 = self.b_cur.iter().sum();
        let b_max_total: f64 = self.b_max.iter().sum();
        for j in 0..self.instance.num_candidates() {
            let o_j = self.instance.overheads[j];
            let p_overhead = if self.z[j] {
                safe_div(o_j, self.o_cur)
            } else {
                1.0 - safe_div(self.o_cur, self.o_max)
            };
            let p_benefit = if self.z[j] {
                1.0 - safe_div(self.b_cur[j], b_cur_total)
            } else {
                safe_div(
                    safe_div(self.b_max[j], o_j),
                    safe_div(b_max_total, self.o_max),
                )
            };
            let p_flip = (p_overhead.clamp(0.0, 1.0)) * (p_benefit.clamp(0.0, 1.0));
            if p_flip >= tau {
                if self.z[j] && frozen {
                    continue; // BigSub freeze: selected stays selected
                }
                self.z[j] = !self.z[j];
                if self.z[j] {
                    self.o_cur += o_j;
                } else {
                    self.o_cur -= o_j;
                }
            }
        }
    }

    /// One Y-Opt pass: exact per-query local ILP given the current `Z`.
    pub fn y_opt(&mut self) {
        self.y = self.instance.solve_y(&self.z);
        // Views that are no longer materialized lose their usages; realized
        // benefits are recomputed from scratch.
        self.b_cur = realized_benefits(self.instance, &self.y);
    }

    /// Flip one specific candidate (the RLView action) and re-solve `Y`
    /// incrementally: only queries with `B_ij > 0` can change their optimal
    /// view set when `z_j` flips, so only those rows are re-solved.
    pub fn apply_flip(&mut self, j: usize) {
        self.z[j] = !self.z[j];
        if self.z[j] {
            self.o_cur += self.instance.overheads[j];
        } else {
            self.o_cur -= self.instance.overheads[j];
        }
        let affected = std::mem::take(&mut self.affected);
        for &i in &affected[j] {
            // Retract the old row's contribution, re-solve, re-apply.
            for (k, &used) in self.y[i].iter().enumerate() {
                if used {
                    self.b_cur[k] -= self.instance.benefits[i][k];
                }
            }
            let row = self.instance.solve_y_for_query(i, &self.z);
            for (k, &used) in row.iter().enumerate() {
                if used {
                    self.b_cur[k] += self.instance.benefits[i][k];
                }
            }
            self.y[i] = row;
        }
        self.affected = affected;
    }

    /// Realized benefit of candidate `j` under current `y`.
    pub fn realized_benefit(&self, j: usize) -> f64 {
        self.b_cur[j]
    }

    /// `B_max[j]`.
    pub fn max_benefit(&self, j: usize) -> f64 {
        self.b_max[j]
    }

    /// Current total overhead.
    pub fn current_overhead(&self) -> f64 {
        self.o_cur
    }

    /// Total overhead of materializing everything.
    pub fn max_overhead(&self) -> f64 {
        self.o_max
    }

    /// Run the full loop (paper IterView lines 10–13), returning the final
    /// state and recording the utility trajectory. The reported `z`/`y` are
    /// the *best seen*, since the raw process oscillates (the observation
    /// motivating RLView).
    pub fn run(self) -> SelectionResult {
        self.run_traced(&av_trace::Tracer::disabled())
    }

    /// [`IterView::run`] with iteration telemetry: one `select.iterview`
    /// span carrying the iteration count and best utility, plus a
    /// `select.iter_utility` histogram of every iteration's utility.
    pub fn run_traced(mut self, tracer: &av_trace::Tracer) -> SelectionResult {
        let span = tracer.span("select.iterview");
        let mut trajectory = Vec::with_capacity(self.config.iterations);
        let mut best: Option<BestState> = None;
        for iter in 0..self.config.iterations {
            let tau: f64 = self.rng.gen_range(0.0..1.0);
            let frozen = self.config.freeze_after.map(|f| iter >= f).unwrap_or(false);
            self.z_opt(tau, frozen);
            self.y_opt();
            let u = self.utility();
            trajectory.push(u);
            if tracer.is_enabled() {
                tracer.metrics().observe("select.iter_utility", u);
            }
            if best.as_ref().map(|(b, ..)| u > *b).unwrap_or(true) {
                best = Some((u, self.z.clone(), self.y.clone(), iter + 1));
            }
        }
        if tracer.is_enabled() {
            span.record_num("iterations", self.config.iterations as f64);
            if let Some((u, _, _, at)) = &best {
                span.record_num("best_utility", *u);
                span.record_num("best_iteration", *at as f64);
            }
        }
        let (utility, z, y, best_iteration) = best.unwrap_or_else(|| {
            let z = vec![false; self.instance.num_candidates()];
            let y = self.instance.solve_y(&z);
            (0.0, z, y, 0)
        });
        SelectionResult {
            z,
            y,
            utility,
            trajectory,
            best_iteration,
        }
    }
}

fn safe_div(a: f64, b: f64) -> f64 {
    if b.abs() < 1e-12 {
        0.0
    } else {
        a / b
    }
}

fn realized_benefits(instance: &MvsInstance, y: &[Vec<bool>]) -> Vec<f64> {
    let nc = instance.num_candidates();
    let mut b = vec![0.0; nc];
    for (i, row) in y.iter().enumerate() {
        for (j, &used) in row.iter().enumerate() {
            if used {
                b[j] += instance.benefits[i][j];
            }
        }
    }
    b
}

/// Dense overlap matrix helper shared by the selection algorithms.
pub(crate) fn overlap_matrix(instance: &MvsInstance) -> Vec<Vec<bool>> {
    let n = instance.num_candidates();
    let mut m = vec![vec![false; n]; n];
    for &(j, k) in &instance.overlaps {
        m[j][k] = true;
        m[k][j] = true;
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_instance;

    #[test]
    fn init_respects_y_constraints() {
        let m = random_instance(10, 12, 16);
        let iv = IterView::new(&m, IterViewConfig::default());
        let overlap = overlap_matrix(&m);
        for (i, row) in iv.y.iter().enumerate() {
            for j in 0..m.num_candidates() {
                if row[j] {
                    assert!(iv.z[j], "y ≤ z violated");
                    assert!(m.benefits[i][j] > 0.0);
                    for k in 0..m.num_candidates() {
                        assert!(!(k != j && row[k] && overlap[j][k]), "overlap violated");
                    }
                }
            }
        }
    }

    #[test]
    fn run_is_deterministic_per_seed() {
        let m = random_instance(11, 10, 12);
        let a = IterView::new(&m, IterViewConfig::default()).run();
        let b = IterView::new(&m, IterViewConfig::default()).run();
        assert_eq!(a.z, b.z);
        assert_eq!(a.trajectory, b.trajectory);
    }

    #[test]
    fn best_utility_dominates_trajectory() {
        let m = random_instance(12, 10, 12);
        let r = IterView::new(&m, IterViewConfig::default()).run();
        let max_in_traj = r
            .trajectory
            .iter()
            .copied()
            .fold(f64::NEG_INFINITY, f64::max);
        assert!((r.utility - max_in_traj).abs() < 1e-9);
        assert!((m.utility(&r.z, &r.y) - r.utility).abs() < 1e-9);
    }

    #[test]
    fn utility_bookkeeping_matches_instance() {
        let m = random_instance(13, 8, 10);
        let mut iv = IterView::new(&m, IterViewConfig::default());
        iv.y_opt();
        let direct = m.utility(&iv.z, &iv.y);
        assert!((iv.utility() - direct).abs() < 1e-9);
        iv.apply_flip(3);
        let direct = m.utility(&iv.z, &iv.y);
        assert!((iv.utility() - direct).abs() < 1e-9);
    }

    #[test]
    fn oscillation_is_visible_without_freeze() {
        // The raw IterView trajectory on a contended instance should not be
        // monotone — the convergence defect the paper fixes with RLView.
        let m = random_instance(14, 20, 24);
        let r = IterView::new(
            &m,
            IterViewConfig {
                iterations: 60,
                ..IterViewConfig::default()
            },
        )
        .run();
        let drops = r
            .trajectory
            .windows(2)
            .filter(|w| w[1] < w[0] - 1e-9)
            .count();
        assert!(
            drops > 0,
            "expected oscillation, trajectory {:?}",
            r.trajectory
        );
    }

    #[test]
    fn freeze_prevents_unselecting() {
        let m = random_instance(15, 10, 12);
        let cfg = IterViewConfig {
            iterations: 40,
            freeze_after: Some(0),
            seed: 7,
        };
        let mut iv = IterView::new(&m, cfg);
        let initial: Vec<bool> = iv.z.clone();
        for _ in 0..40 {
            iv.z_opt(0.0, true); // tau 0 → every eligible flip fires
            iv.y_opt();
        }
        for (j, &was_selected) in initial.iter().enumerate() {
            if was_selected {
                assert!(iv.z[j], "frozen candidate {j} was unselected");
            }
        }
    }
}
