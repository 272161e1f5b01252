//! Compare view-selection algorithms on one instance: greedy top-k sweeps,
//! IterView's oscillation, BigSub's freeze, RLView's convergence, and the
//! exact ILP optimum.
//!
//! ```sh
//! cargo run --release --example view_selection
//! ```

use autoview::core::{collect_pair_truth, preprocess_and_measure};
use autoview::engine::Pricing;
use autoview::ilp::MvsInstance;
use autoview::select::{
    greedy_best, BigSub, BigSubConfig, GreedyRank, IterView, IterViewConfig, RlView, RlViewConfig,
};
use autoview::workload::cloud::mini;

fn main() {
    // Build a measured MVS instance from a real (mini) workload.
    let workload = mini(21);
    let pricing = Pricing::paper_defaults();
    let mut catalog = workload.catalog.clone();
    let plans = workload.plans();
    let pre = preprocess_and_measure(&mut catalog, &plans, pricing).expect("preprocess");
    let pairs = collect_pair_truth(&catalog, &pre, &plans, usize::MAX, 3).expect("pairs");

    let nc = pre.analysis.candidates.len();
    let mut benefits = vec![vec![0.0; nc]; plans.len()];
    for p in &pairs {
        benefits[p.query][p.candidate] = p.actual_benefit;
    }
    let instance = MvsInstance {
        benefits,
        overheads: pre.overheads.clone(),
        overlaps: pre.analysis.overlap_pairs.clone(),
    };
    println!(
        "instance: {} queries × {} candidates, {} overlap pairs\n",
        instance.num_queries(),
        instance.num_candidates(),
        instance.overlaps.len()
    );

    for rank in GreedyRank::ALL {
        let (k, r) = greedy_best(&instance, rank);
        println!(
            "{:<10} best k = {:<3} utility = ${:.4}",
            rank.name(),
            k,
            r.utility
        );
    }

    let iter = IterView::new(
        &instance,
        IterViewConfig {
            iterations: 60,
            ..IterViewConfig::default()
        },
    )
    .run();
    println!(
        "{:<10} best iter = {:<2} utility = ${:.4} (oscillating trajectory)",
        "IterView", iter.best_iteration, iter.utility
    );

    let big = BigSub::run(
        &instance,
        BigSubConfig {
            iterations: 60,
            ..BigSubConfig::default()
        },
    );
    println!(
        "{:<10} best iter = {:<2} utility = ${:.4} (frozen after 20)",
        "BigSub", big.best_iteration, big.utility
    );

    let rl = RlView::run(
        &instance,
        RlViewConfig {
            n1: 10,
            n2: 25,
            memory_size: 20,
            max_steps_per_epoch: 60,
            ..RlViewConfig::default()
        },
    );
    println!(
        "{:<10} best iter = {:<2} utility = ${:.4} (DQN-stabilized)",
        "RLView", rl.best_iteration, rl.utility
    );

    let (opt, proven) = instance.solve_exact(500_000);
    println!(
        "{:<10} utility = ${:.4}{}",
        "OPT",
        opt.utility,
        if proven {
            " (proven optimal)"
        } else {
            " (budget)"
        }
    );
}
