//! Ablation study for RLView's design choices (beyond the paper's own
//! ablations): what do the IterView warm start, the DQN fine-tuning and the
//! ε-greedy exploration each contribute?
//!
//! Four configurations on the WK1-like instance:
//! - `full`        — RLView as implemented;
//! - `no-warmup`   — n₁ = 0 (start from a random state);
//! - `no-training` — replay threshold set above any reachable memory size,
//!   so the Q-network never updates (random-init argmax policy);
//! - `no-explore`  — ε = 0 (the paper's literal greedy-argmax policy).

use av_bench::{render_table, setup_experiment, BenchConfig};
use av_core::{table2_defaults, WorkloadKind};
use av_select::{RlView, RlViewConfig};

fn main() {
    let cfg = BenchConfig::from_env();
    let exp = setup_experiment("wk1", &cfg, usize::MAX);
    let defaults = table2_defaults(WorkloadKind::Wk1);
    let base = defaults.rlview(cfg.seed, cfg.epoch_scale);

    let variants: Vec<(&str, RlViewConfig)> = vec![
        ("full", base.clone()),
        (
            "no-warmup",
            RlViewConfig {
                n1: 0,
                ..base.clone()
            },
        ),
        (
            "no-training",
            RlViewConfig {
                memory_size: usize::MAX / 2,
                ..base.clone()
            },
        ),
        (
            "no-explore",
            RlViewConfig {
                epsilon: 0.0,
                ..base
            },
        ),
    ];

    let mut rows = Vec::new();
    for (name, rl_cfg) in variants {
        let r = RlView::run(&exp.actual, rl_cfg);
        let tail = &r.trajectory[r
            .trajectory
            .len()
            .saturating_sub(r.trajectory.len() / 4)
            .min(r.trajectory.len() - 1)..];
        let mean = tail.iter().sum::<f64>() / tail.len() as f64;
        let sd = (tail.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / tail.len() as f64).sqrt();
        rows.push(vec![
            name.to_string(),
            format!("{:.4}", r.utility),
            format!("{:.4}", mean),
            format!("{:.4}", sd),
            r.trajectory.len().to_string(),
        ]);
    }
    println!("== RLView ablations (WK1-like instance) ==\n");
    println!(
        "{}",
        render_table(
            &[
                "variant",
                "best utility ($)",
                "tail mean ($)",
                "tail sd",
                "steps"
            ],
            &rows
        )
    );
    println!(
        "Expected: `full` dominates; `no-training` oscillates (highest tail sd);\n\
         `no-warmup` wastes early steps; `no-explore` risks plateauing early."
    );
}
