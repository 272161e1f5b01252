//! Tier-1 smoke over online mode: one tiny workload streams twice through
//! `OnlineSystem`. The bootstrap fires when the window fills, and every
//! arrival after it must be served exactly as a direct `Executor::run` of
//! the submitted plan on the view-free base catalog would answer it, for no
//! more than that run costs.

use autoview::core::{OnlineSystem, OnlineSystemConfig};
use autoview::engine::{Executor, Pricing};
use autoview::workload::cloud::mini;
use av_serve::ServeConfig;

#[test]
fn two_passes_bootstrap_then_serve_the_oracle_for_less() {
    let w = mini(103);
    let plans = w.plans();
    let mut serve = ServeConfig::default();
    serve.lifecycle.byte_budget = usize::MAX;
    let mut sys = OnlineSystem::new(
        w.catalog.clone(),
        &[],
        OnlineSystemConfig {
            serve,
            window_size: plans.len(),
            ..OnlineSystemConfig::default()
        },
    )
    .expect("constructs");

    for (i, plan) in plans.iter().enumerate() {
        let out = sys.ingest(plan).expect("ingests");
        assert_eq!(out.reoptimized, i + 1 == plans.len(), "arrival {i}");
    }
    assert_eq!(sys.server().epoch(), 1, "the bootstrap published epoch 1");

    let exec = Executor::new(&w.catalog, Pricing::paper_defaults());
    let mut hits = 0;
    for plan in &plans {
        let out = sys.ingest(plan).expect("ingests");
        assert_eq!(out.batch, exec.run(plan).expect("direct run").batch);
        assert!(out.actual_cost <= out.baseline_cost);
        hits += out.rewrite_hits;
    }
    assert!(hits > 0, "the bootstrapped views route the second pass");

    let report = sys.report();
    assert_eq!(report.queries, 2 * plans.len() as u64);
    assert!(report.net_saving().is_finite());
    assert!(report.live_views > 0);
}
