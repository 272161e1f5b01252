//! RLView (paper Algorithm 2): the iterative MVS optimization recast as a
//! Markov Decision Process and driven by a Deep Q-Network.
//!
//! - **State** `e = ⟨Z, Y⟩`: the current materialization and usage labels.
//! - **Action** `a_j`: flip `z_j`; the environment (the exact per-query ILP
//!   `Y-Opt`) then recomputes `Y`.
//! - **Reward** `r_t = U(e_{t+1}) − U(e_t)`: the utility change.
//! - **Q-network** `μ(e, a | θ)`: a 16→64→16→1 MLP over a 16-dimensional
//!   per-action feature vector (the paper's four fully-connected layers with
//!   16, 64, 16, 1 neurons and ReLU activations).
//! - **Experience replay**: transitions `⟨e_t, a_t, r_t, e_{t+1}⟩` stored as
//!   feature vectors; once the memory reaches `n_m` entries, minibatches
//!   fine-tune θ with the Q-learning target `r + γ·max_a' Q(e', a')`.
//!
//! The warm start is the paper's own recipe: run `IterView` for `n₁`
//! iterations and take its final state as `e₀`. One engineering addition on
//! top of the paper's text: ε-greedy exploration with a decaying ε (the
//! standard DQN practice; with pure argmax an untrained network can lock
//! into a poor flip cycle).

use crate::iterview::{IterView, IterViewConfig};
use crate::SelectionResult;
use av_ilp::MvsInstance;
use av_nn::{Adam, Graph, Linear, ParamStore, Tensor};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;
use std::collections::VecDeque;

/// Dimensionality of the per-action state feature vector.
pub const FEATURE_DIM: usize = 16;

/// Configuration for [`RlView`] (paper Table II: `n₁`, `n₂`, `n_m`, γ).
#[derive(Debug, Clone)]
pub struct RlViewConfig {
    /// IterView warm-start iterations (`n₁`).
    pub n1: usize,
    /// RL epochs (`n₂`).
    pub n2: usize,
    /// Replay-memory threshold and sliding-window size (`n_m`).
    pub memory_size: usize,
    /// Reward decay rate γ.
    pub gamma: f64,
    /// Adam learning rate for the DQN.
    pub lr: f32,
    /// Minibatch size for fine-tuning.
    pub batch_size: usize,
    /// Fine-tune the DQN every this many environment steps (1 = the paper's
    /// per-step update; larger values amortize training on big instances).
    pub train_every: usize,
    /// Initial exploration rate (decays linearly to 0 over the epochs).
    pub epsilon: f64,
    /// Safety cap on steps per epoch (the paper's loop is bounded by the
    /// reward-positivity condition; the cap guards degenerate instances).
    pub max_steps_per_epoch: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for RlViewConfig {
    fn default() -> Self {
        RlViewConfig {
            n1: 10,
            n2: 90,
            memory_size: 20,
            gamma: 0.9,
            lr: 1e-3,
            batch_size: 32,
            train_every: 1,
            epsilon: 0.2,
            max_steps_per_epoch: 200,
            seed: 42,
        }
    }
}

/// One replay transition, stored as features so training never re-runs the
/// (expensive) environment.
struct Transition {
    /// φ(e_t, a_t).
    phi: [f32; FEATURE_DIM],
    /// r_t.
    reward: f64,
    /// φ(e_{t+1}, a_j) for every action j, for the bootstrap max.
    next_phis: Vec<[f32; FEATURE_DIM]>,
}

/// The 16→64→16→1 Q-network.
struct QNet {
    store: ParamStore,
    l1: Linear,
    l2: Linear,
    l3: Linear,
    l4: Linear,
    adam: Adam,
}

impl QNet {
    fn new(seed: u64, lr: f32) -> QNet {
        let mut store = ParamStore::with_seed(seed);
        let l1 = Linear::new(&mut store, FEATURE_DIM, 16);
        let l2 = Linear::new(&mut store, 16, 64);
        let l3 = Linear::new(&mut store, 64, 16);
        let l4 = Linear::new(&mut store, 16, 1);
        QNet {
            store,
            l1,
            l2,
            l3,
            l4,
            adam: Adam::new(lr),
        }
    }

    fn forward(&self, g: &mut Graph, x: av_nn::NodeId) -> av_nn::NodeId {
        let h = self.l1.forward_with(g, &self.store, x);
        let h = g.relu(h);
        let h = self.l2.forward_with(g, &self.store, h);
        let h = g.relu(h);
        let h = self.l3.forward_with(g, &self.store, h);
        let h = g.relu(h);
        self.l4.forward_with(g, &self.store, h)
    }

    /// Q-values for a batch of feature rows (no gradient).
    fn q_values(&self, phis: &[[f32; FEATURE_DIM]]) -> Vec<f64> {
        if phis.is_empty() {
            return Vec::new();
        }
        let rows: Vec<&[f32]> = phis.iter().map(|p| p.as_slice()).collect();
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&rows));
        let q = self.forward(&mut g, x);
        (0..phis.len())
            .map(|i| g.value(q).get(i, 0) as f64)
            .collect()
    }

    /// One minibatch Q-learning update (paper Function DQN): predictions
    /// for the taken actions regress toward `r + γ·max Q(next)`. Returns
    /// the minibatch MSE, for telemetry.
    fn train_batch(&mut self, batch: &[&Transition], gamma: f64) -> f64 {
        // Target-Q pass. The minibatch is sampled with replacement from a
        // small memory, so it often holds a transition more than once:
        // only the distinct transitions (first-seen order) are forwarded,
        // and each duplicate reuses its transition's max. All their
        // next-state rows go through ONE batched forward; rows are
        // independent in every kernel, so each Q-value, and so each
        // target, is bit-identical to a per-transition forward.
        let mut distinct: Vec<&Transition> = Vec::with_capacity(batch.len());
        let slot: Vec<usize> = batch
            .iter()
            .map(|&t| {
                distinct
                    .iter()
                    .position(|&d| std::ptr::eq(d, t))
                    .unwrap_or_else(|| {
                        distinct.push(t);
                        distinct.len() - 1
                    })
            })
            .collect();
        let all_next: Vec<[f32; FEATURE_DIM]> = distinct
            .iter()
            .flat_map(|t| t.next_phis.iter().copied())
            .collect();
        let all_q = self.q_values(&all_next);
        let mut at = 0usize;
        let next_best: Vec<f64> = distinct
            .iter()
            .map(|t| {
                let qs = &all_q[at..at + t.next_phis.len()];
                at += t.next_phis.len();
                let best = qs.iter().copied().fold(f64::NEG_INFINITY, f64::max);
                if best.is_finite() {
                    best
                } else {
                    0.0
                }
            })
            .collect();
        let targets: Vec<f32> = batch
            .iter()
            .zip(&slot)
            .map(|(t, &s)| (t.reward + gamma * next_best[s]) as f32)
            .collect();
        let rows: Vec<&[f32]> = batch.iter().map(|t| t.phi.as_slice()).collect();
        let mut g = Graph::new();
        let x = g.input(Tensor::from_rows(&rows));
        let pred = self.forward(&mut g, x);
        let target = g.input(Tensor::from_vec(targets.len(), 1, targets));
        let loss = g.mse(pred, target);
        let loss_value = g.value(loss).get(0, 0) as f64;
        g.backward(loss);
        g.accumulate_param_grads(&mut self.store);
        self.adam.step(&mut self.store);
        loss_value
    }
}

/// The RLView solver.
pub struct RlView;

impl RlView {
    /// Run RLView on an instance (paper Algorithm 2). The returned
    /// trajectory concatenates the IterView warm start with the RL steps.
    pub fn run(instance: &MvsInstance, config: RlViewConfig) -> SelectionResult {
        Self::run_traced(instance, config, &av_trace::Tracer::disabled())
    }

    /// [`RlView::run`] with episode telemetry: one `select.episode` span
    /// per RL epoch (epsilon, steps, episode reward), `select.q_loss` and
    /// `select.episode_reward` histograms, and `select.epsilon` /
    /// `select.replay_size` gauges.
    pub fn run_traced(
        instance: &MvsInstance,
        config: RlViewConfig,
        tracer: &av_trace::Tracer,
    ) -> SelectionResult {
        let nc = instance.num_candidates();
        if nc == 0 {
            return SelectionResult::from_z(instance, Vec::new());
        }
        let mut rng = ChaCha8Rng::seed_from_u64(config.seed ^ 0x5eed);

        // Warm start: IterView for n₁ iterations, keeping its final state.
        let mut iv = IterView::new(
            instance,
            IterViewConfig {
                iterations: config.n1,
                seed: config.seed,
                freeze_after: None,
            },
        );
        let mut trajectory = Vec::new();
        for _ in 0..config.n1 {
            let tau: f64 = rng.gen_range(0.0..1.0);
            iv.z_opt(tau, false);
            iv.y_opt();
            trajectory.push(iv.utility());
        }
        iv.y_opt();

        let mut qnet = QNet::new(config.seed, config.lr);
        let mut memory: VecDeque<Transition> = VecDeque::new();
        let mut best = (
            iv.utility(),
            iv.z.clone(),
            iv.y.clone(),
            trajectory.len().max(1),
        );

        let freq: Vec<f64> = (0..nc)
            .map(|j| instance.benefits.iter().filter(|row| row[j] > 0.0).count() as f64)
            .collect();
        let degree = overlap_degrees(instance);

        for ep in 0..config.n2 {
            let eps = config.epsilon * (1.0 - ep as f64 / config.n2.max(1) as f64);
            let span = tracer.span("select.episode");
            let epoch_start_utility = iv.utility();
            if tracer.is_enabled() {
                span.record_num("epoch", ep as f64);
                span.record_num("epsilon", eps);
                tracer.metrics().set_gauge("select.epsilon", eps);
            }
            let mut t = 0usize;
            loop {
                let r_prev = iv.utility();
                // Within an epoch, the previous step already featurized this
                // state at this `t` as its transition's next state.
                let fresh;
                let phis = match memory.back() {
                    Some(prev) if t > 0 => &prev.next_phis,
                    _ => {
                        fresh = featurize_all(instance, &iv, &freq, &degree, t);
                        &fresh
                    }
                };
                let action = if rng.gen_bool(eps.clamp(0.0, 1.0)) {
                    rng.gen_range(0..nc)
                } else {
                    argmax(&qnet.q_values(phis))
                };
                let phi_taken = phis[action];
                iv.apply_flip(action);
                let r_next = iv.utility();
                trajectory.push(r_next);
                let reward = r_next - r_prev;
                let next_phis = featurize_all(instance, &iv, &freq, &degree, t + 1);
                memory.push_back(Transition {
                    phi: phi_taken,
                    reward,
                    next_phis,
                });
                while memory.len() > config.memory_size.max(config.batch_size) * 4 {
                    memory.pop_front();
                }

                if r_next > best.0 {
                    best = (r_next, iv.z.clone(), iv.y.clone(), trajectory.len());
                }

                // Fine-tune once the memory is warm (Algorithm 2 line 16).
                if memory.len() >= config.memory_size && t.is_multiple_of(config.train_every.max(1))
                {
                    let bs = config.batch_size.min(memory.len());
                    let picks: Vec<&Transition> = (0..bs)
                        .map(|_| {
                            let i = rng.gen_range(0..memory.len());
                            &memory[i]
                        })
                        .collect();
                    let q_loss = qnet.train_batch(&picks, config.gamma);
                    if tracer.is_enabled() {
                        tracer.metrics().observe("select.q_loss", q_loss);
                    }
                }

                t += 1;
                // Paper line 17: repeat while t < |Z| ∨ r_t > 0.
                let continue_loop = (t < nc || reward > 0.0) && t < config.max_steps_per_epoch;
                if !continue_loop {
                    break;
                }
            }
            if tracer.is_enabled() {
                let episode_reward = iv.utility() - epoch_start_utility;
                span.record_num("steps", t as f64);
                span.record_num("episode_reward", episode_reward);
                let metrics = tracer.metrics();
                metrics.observe("select.episode_reward", episode_reward);
                metrics.set_gauge("select.replay_size", memory.len() as f64);
            }
        }

        let (utility, z, y, best_iteration) = best;
        SelectionResult {
            z,
            y,
            utility,
            trajectory,
            best_iteration,
        }
    }
}

fn argmax(v: &[f64]) -> usize {
    let mut best = 0;
    for (i, &x) in v.iter().enumerate() {
        if x > v[best] {
            best = i;
        }
    }
    best
}

fn overlap_degrees(instance: &MvsInstance) -> Vec<f64> {
    let mut d = vec![0.0; instance.num_candidates()];
    for &(j, k) in &instance.overlaps {
        d[j] += 1.0;
        d[k] += 1.0;
    }
    d
}

/// Per-action features φ(e, a_j) for every candidate j.
fn featurize_all(
    instance: &MvsInstance,
    iv: &IterView<'_>,
    freq: &[f64],
    degree: &[f64],
    t: usize,
) -> Vec<[f32; FEATURE_DIM]> {
    let nc = instance.num_candidates();
    let nq = instance.num_queries().max(1) as f64;
    let o_max = iv.max_overhead().max(1e-9);
    let b_max_total: f64 = (0..nc).map(|j| iv.max_benefit(j)).sum::<f64>().max(1e-9);
    let b_cur_total: f64 = (0..nc).map(|j| iv.realized_benefit(j)).sum();
    let utility = iv.utility();
    let max_net = (0..nc)
        .map(|j| (iv.max_benefit(j) - instance.overheads[j]).abs())
        .fold(1e-9, f64::max);
    let z_frac = iv.z.iter().filter(|&&b| b).count() as f64 / nc.max(1) as f64;

    (0..nc)
        .map(|j| {
            let net = (iv.max_benefit(j) - instance.overheads[j]) / max_net;
            let direction = if iv.z[j] { -net } else { net };
            [
                iv.z[j] as u8 as f32,
                (instance.overheads[j] / o_max) as f32,
                (iv.max_benefit(j) / b_max_total) as f32,
                (iv.realized_benefit(j) / (b_cur_total + 1e-9)) as f32,
                (iv.realized_benefit(j) / (iv.max_benefit(j) + 1e-9)) as f32,
                (degree[j] / nc as f64) as f32,
                (freq[j] / nq) as f32,
                net as f32,
                direction as f32,
                (iv.current_overhead() / o_max) as f32,
                (b_cur_total / b_max_total) as f32,
                z_frac as f32,
                (utility / b_max_total) as f32,
                ((t as f64) / nc as f64).min(1.0) as f32,
                ((instance.overheads[j] / o_max) * z_frac) as f32,
                1.0,
            ]
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::random_instance;

    fn quick_config(seed: u64) -> RlViewConfig {
        RlViewConfig {
            n1: 5,
            n2: 8,
            memory_size: 10,
            batch_size: 8,
            max_steps_per_epoch: 30,
            seed,
            ..RlViewConfig::default()
        }
    }

    #[test]
    fn runs_and_reports_consistent_utility() {
        let m = random_instance(30, 8, 10);
        let r = RlView::run(&m, quick_config(1));
        assert!((m.utility(&r.z, &r.y) - r.utility).abs() < 1e-9);
        assert!(r.trajectory.len() >= 5);
    }

    #[test]
    fn deterministic_per_seed() {
        let m = random_instance(31, 8, 10);
        let a = RlView::run(&m, quick_config(2));
        let b = RlView::run(&m, quick_config(2));
        assert_eq!(a.z, b.z);
        assert!((a.utility - b.utility).abs() < 1e-12);
    }

    #[test]
    fn empty_instance_is_handled() {
        let m = MvsInstance {
            benefits: vec![],
            overheads: vec![],
            overlaps: vec![],
        };
        let r = RlView::run(&m, quick_config(3));
        assert_eq!(r.utility, 0.0);
        assert!(r.z.is_empty());
    }

    #[test]
    fn beats_or_matches_empty_selection() {
        let m = random_instance(32, 12, 14);
        let r = RlView::run(&m, quick_config(4));
        assert!(r.utility >= 0.0, "best-seen must dominate the empty set");
    }

    #[test]
    fn finds_obvious_single_candidate() {
        // One hugely-profitable candidate among junk: RLView must select it.
        let nc = 6;
        let benefits = vec![
            (0..nc)
                .map(|j| if j == 2 { 100.0 } else { 0.05 })
                .collect::<Vec<f64>>();
            5
        ];
        let overheads = (0..nc).map(|j| if j == 2 { 1.0 } else { 20.0 }).collect();
        let m = MvsInstance {
            benefits,
            overheads,
            overlaps: vec![],
        };
        let r = RlView::run(&m, quick_config(5));
        assert!(r.z[2], "the profitable candidate must be selected");
        assert!(r.utility > 400.0);
    }

    #[test]
    fn late_trajectory_is_more_stable_than_iterview() {
        // The headline claim of Fig. 10: RLView's utility stabilizes while
        // IterView keeps oscillating. Compare tail variance on a contended
        // instance with matched iteration budgets.
        let m = random_instance(33, 16, 20);
        let rl = RlView::run(
            &m,
            RlViewConfig {
                n1: 10,
                n2: 30,
                memory_size: 15,
                batch_size: 16,
                max_steps_per_epoch: 40,
                seed: 6,
                ..RlViewConfig::default()
            },
        );
        let iter = crate::iterview::IterView::new(
            &m,
            crate::iterview::IterViewConfig {
                iterations: rl.trajectory.len(),
                seed: 6,
                freeze_after: None,
            },
        )
        .run();
        let tail_var = |t: &[f64]| {
            let tail = &t[t.len() - t.len() / 4..];
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            tail.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / tail.len() as f64
        };
        assert!(
            tail_var(&rl.trajectory) <= tail_var(&iter.trajectory) + 1e-9,
            "RLView tail variance {} vs IterView {}",
            tail_var(&rl.trajectory),
            tail_var(&iter.trajectory)
        );
    }
}
