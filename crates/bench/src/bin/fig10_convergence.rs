//! Fig. 10 — convergence comparison: per-iteration utility of IterView vs
//! RLView on the WK1- and WK2-like workloads.
//!
//! The expected shape: IterView keeps oscillating (no memory across
//! iterations); RLView stabilizes once the DQN's replay memory warms up.
//! WK1's skewed benefits/overheads produce wider swings than WK2's.

use av_bench::{render_table, setup_experiment, BenchConfig};
use av_core::{table2_defaults, WorkloadKind};
use av_select::{IterView, IterViewConfig, RlView};

fn main() {
    let cfg = BenchConfig::from_env();
    for (which, kind) in [("wk1", WorkloadKind::Wk1), ("wk2", WorkloadKind::Wk2)] {
        let exp = setup_experiment(which, &cfg, usize::MAX);
        let defaults = table2_defaults(kind);
        let mut rl_cfg = defaults.rlview(cfg.seed, 1.0);
        // Keep the per-iteration granularity of the paper's Fig. 10 x-axis
        // (~n₁+n₂ points): a handful of flips per RL epoch.
        rl_cfg.max_steps_per_epoch = 6;
        let rl = RlView::run(&exp.actual, rl_cfg);

        // Match total iteration budgets: n = n₁ + n₂ (paper's protocol).
        let iter = IterView::new(
            &exp.actual,
            IterViewConfig {
                iterations: rl.trajectory.len(),
                seed: cfg.seed,
            },
        )
        .run();

        println!(
            "== Fig. 10 ({}): intermediate utility per iteration ==\n",
            which.to_uppercase()
        );
        let n = rl.trajectory.len();
        let step = (n / 16).max(1);
        let rows: Vec<Vec<String>> = (0..n)
            .step_by(step)
            .map(|i| {
                vec![
                    i.to_string(),
                    format!("{:.4}", iter.trajectory.get(i).copied().unwrap_or(f64::NAN)),
                    format!("{:.4}", rl.trajectory[i]),
                ]
            })
            .collect();
        println!(
            "{}",
            render_table(&["iteration", "IterView ($)", "RLView ($)"], &rows)
        );

        let tail = |t: &[f64]| {
            let tail = &t[t.len().saturating_sub(t.len() / 4).min(t.len() - 1)..];
            let mean = tail.iter().sum::<f64>() / tail.len() as f64;
            let var = tail.iter().map(|x| (x - mean).powi(2)).sum::<f64>() / tail.len() as f64;
            (mean, var.sqrt())
        };
        let (im, isd) = tail(&iter.trajectory);
        let (rm, rsd) = tail(&rl.trajectory);
        println!(
            "tail (last quarter): IterView mean ${im:.4} ± {isd:.4}, RLView mean ${rm:.4} ± {rsd:.4}"
        );
        println!(
            "best utility:        IterView ${:.4}, RLView ${:.4}\n",
            iter.utility, rl.utility
        );
    }
}
