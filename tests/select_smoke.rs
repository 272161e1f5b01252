//! Tier-1 smoke over selection: `mini(42)` runs `AutoViewSystem::run`
//! twice under each of IterView and a small RLView. The two runs of one
//! selector must agree bit for bit, and the published selection must serve
//! every query exactly, routing at least the queries the batch pipeline
//! rewrote.

use autoview::core::{AutoViewConfig, AutoViewSystem, EndToEndReport, EstimatorKind, SelectorKind};
use autoview::engine::{Executor, Pricing, RecordBatch};
use autoview::plan::{Fingerprint, PlanRef};
use autoview::select::{IterViewConfig, RlViewConfig};
use autoview::workload::cloud::mini;
use av_online::LifecycleConfig;
use av_serve::ServeConfig;
use std::sync::Arc;

fn run(selector: SelectorKind) -> (AutoViewSystem, EndToEndReport) {
    let w = mini(42);
    let mut sys = AutoViewSystem::new(
        w.catalog.clone(),
        w.plans(),
        AutoViewConfig {
            estimator: EstimatorKind::Optimizer,
            selector,
            max_training_pairs: 30,
            ..AutoViewConfig::default()
        },
    );
    let report = sys.run().expect("pipeline runs");
    (sys, report)
}

fn selected_fingerprints(sys: &AutoViewSystem) -> Vec<Fingerprint> {
    sys.selected_views()
        .iter()
        .map(|v| v.canonical_fp)
        .collect()
}

/// Publish `sys`'s selection with budgets that admit every view, serve the
/// workload, and check it against direct execution.
fn assert_serves_oracle(sys: &AutoViewSystem, report: &EndToEndReport, oracle: &[RecordBatch]) {
    let (server, published) = sys
        .publish(
            ServeConfig {
                lifecycle: LifecycleConfig {
                    byte_budget: usize::MAX,
                    min_benefit_per_byte: 0.0,
                    tenant_byte_budget: usize::MAX,
                },
                ..ServeConfig::default()
            },
            None,
        )
        .expect("publishes");
    assert_eq!(published.admitted + published.rejected, report.num_views);
    let mut routed = 0;
    for (plan, expected) in sys.queries.iter().zip(oracle) {
        let resp = server.execute("t0", plan).expect("serves");
        assert_eq!(
            *resp.batch, *expected,
            "{}: served == direct execution",
            report.method
        );
        routed += usize::from(resp.rewrite_hits >= 1);
    }
    assert!(
        routed >= report.num_rewritten,
        "{}: serving routed {routed} queries, the pipeline rewrote {}",
        report.method,
        report.num_rewritten
    );
}

#[test]
fn selection_is_reproducible_and_serves_the_oracle() {
    let w = mini(42);
    let exec = Executor::new(&w.catalog, Pricing::paper_defaults());
    let oracle: Vec<RecordBatch> = w
        .plans()
        .iter()
        .map(|p: &PlanRef| Arc::unwrap_or_clone(exec.run(p).expect("direct run").batch))
        .collect();

    let small_rl = RlViewConfig {
        n1: 3,
        n2: 6,
        max_steps_per_epoch: 40,
        batch_size: 16,
        ..RlViewConfig::default()
    };
    for (selector, name) in [
        (
            SelectorKind::IterView(IterViewConfig::default()),
            "IterView",
        ),
        (SelectorKind::RlView(small_rl), "RLView"),
    ] {
        let (first, a) = run(selector.clone());
        let (second, b) = run(selector);
        assert_eq!(
            a.estimated_utility.to_bits(),
            b.estimated_utility.to_bits(),
            "{name}: utility"
        );
        assert_eq!(a.num_views, b.num_views, "{name}: view count");
        assert_eq!(
            selected_fingerprints(&first),
            selected_fingerprints(&second),
            "{name}: selected views"
        );
        assert!(a.num_views > 0, "{name}: mini has profitable views");
        assert_serves_oracle(&first, &a, &oracle);
        if name == "RLView" {
            // Recorded before the register-tiled narrow-matrix kernels
            // landed (same values on the AVX2 and portable backends): the
            // Q-network's forward and backward passes feed every RLView
            // decision, so a reassociated kernel chain moves these bits.
            assert_eq!(
                a.estimated_utility.to_bits(),
                0x3f90_36fb_7b5e_a740,
                "RLView: pinned utility"
            );
            assert_eq!(a.num_views, 14, "RLView: pinned view count");
        }
    }
}
