//! Tier-1 smoke over the served path: one tiny workload goes through
//! `AutoViewSystem::run → publish → execute → reoptimize → execute`, and
//! every response must equal a direct `Executor::run` of the submitted plan
//! on the view-free base catalog.

use autoview::core::{AutoViewConfig, AutoViewSystem, EstimatorKind, SelectorKind};
use autoview::engine::{Executor, Pricing, RecordBatch};
use autoview::select::IterViewConfig;
use autoview::workload::cloud::mini;
use av_online::LifecycleConfig;
use av_serve::{ServeConfig, ViewServer};
use std::sync::Arc;

fn assert_serves_oracle(
    server: &ViewServer,
    plans: &[autoview::plan::PlanRef],
    oracle: &[RecordBatch],
) {
    let mut hits = 0;
    for (plan, expected) in plans.iter().zip(oracle) {
        let resp = server.execute("tenant0", plan).expect("serves");
        assert_eq!(resp.epoch, server.epoch());
        assert_eq!(*resp.batch, *expected, "served == direct execution");
        hits += resp.rewrite_hits;
    }
    assert!(
        hits > 0,
        "epoch {}: live views route the workload",
        server.epoch()
    );
}

#[test]
fn run_publish_execute_reoptimize_execute_matches_direct_execution() {
    let w = mini(102);
    let plans = w.plans();
    let exec = Executor::new(&w.catalog, Pricing::paper_defaults());
    let oracle: Vec<RecordBatch> = plans
        .iter()
        .map(|p| Arc::unwrap_or_clone(exec.run(p).expect("direct run").batch))
        .collect();

    let mut sys = AutoViewSystem::new(
        w.catalog.clone(),
        plans.clone(),
        AutoViewConfig {
            estimator: EstimatorKind::Optimizer,
            selector: SelectorKind::IterView(IterViewConfig::default()),
            max_training_pairs: 30,
            ..AutoViewConfig::default()
        },
    );
    let report = sys.run().expect("pipeline runs");
    assert!(report.num_views > 0, "mini workload has profitable views");

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
            Some("tenant0"),
        )
        .expect("publishes");
    assert_eq!(published.epoch, 1);
    assert_eq!(published.admitted + published.rejected, report.num_views);
    assert_serves_oracle(&server, &plans, &oracle);

    // Routing is idempotent: a routed plan holds no subtree a view of the
    // same deployment still matches.
    let deployment = server.current();
    let mut routed_plans = 0;
    for plan in &plans {
        let (routed, hits) = deployment.route(plan);
        routed_plans += usize::from(hits > 0);
        assert_eq!(deployment.route(&routed).1, 0, "routing a routed plan");
    }
    assert!(routed_plans > 0, "at least one plan has rewrite hits");

    // An un-traced system still runs on a real clock: the requests above
    // carry non-zero times, the tenant's SLO window saw them, and the
    // pipeline's phase timings are readable.
    let dump = server.obs().dump_now("smoke");
    assert!(dump.records.iter().any(|r| r.exec_nanos > 0));
    let slo = server.obs().slo_stats();
    let tenant = slo.iter().find(|t| t.tenant == "tenant0").expect("tenant0");
    assert!(tenant.requests > 0 && tenant.p99_us >= tenant.p50_us);
    let preprocess = sys
        .tracer()
        .metrics()
        .timing("pipeline.preprocess")
        .expect("phase timing recorded");
    assert!(preprocess.total_seconds > 0.0);

    // Re-optimize on half the workload: views the window no longer wants
    // are dropped, and the next epoch still answers every query exactly.
    let reopt = server
        .reoptimize(&plans[..plans.len() / 2], Some("tenant0"))
        .expect("reoptimizes");
    assert_eq!(reopt.epoch, 2);
    assert_eq!(server.current().views().len(), reopt.live_views);
    assert_serves_oracle(&server, &plans, &oracle);
}
