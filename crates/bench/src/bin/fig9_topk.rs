//! Fig. 9 — utility-vs-k curves for the four greedy top-k selectors
//! (TopkFreq, TopkOver, TopkBen, TopkNorm) on each workload.
//!
//! The expected shape: curves rise while profitable candidates remain, peak
//! strictly inside (0, |Z|), then fall as overhead dominates.

use av_bench::{render_table, setup_experiment, BenchConfig};
use av_select::{greedy_sweep, GreedyRank};

fn main() {
    let cfg = BenchConfig::from_env();
    for which in ["job", "wk1", "wk2"] {
        let exp = setup_experiment(which, &cfg, usize::MAX);
        let nc = exp.actual.num_candidates();
        println!(
            "== Fig. 9 ({}): utility ($) vs k, |Z| = {nc} ==\n",
            which.to_uppercase()
        );
        let sweeps: Vec<(GreedyRank, Vec<(usize, f64)>)> = GreedyRank::ALL
            .iter()
            .map(|&r| (r, greedy_sweep(&exp.actual, r)))
            .collect();

        // Sample ~12 k values across the range for a readable table.
        let step = (nc / 12).max(1);
        let mut rows = Vec::new();
        for k in (0..=nc).step_by(step) {
            let mut row = vec![k.to_string()];
            for (_, sweep) in &sweeps {
                row.push(format!("{:.4}", sweep[k].1));
            }
            rows.push(row);
        }
        println!(
            "{}",
            render_table(&["k", "TopkFreq", "TopkOver", "TopkBen", "TopkNorm"], &rows)
        );
        for (rank, sweep) in &sweeps {
            let peak = sweep
                .iter()
                .max_by(|a, b| a.1.total_cmp(&b.1))
                .expect("non-empty sweep");
            println!(
                "{:10} peaks at k = {} with utility ${:.4}",
                rank.name(),
                peak.0,
                peak.1
            );
        }
        println!();
    }
}
