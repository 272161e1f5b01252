//! A refused preflight must leave the planner exactly where the published
//! epoch is: no half-applied view may survive into later re-optimizations.
//! A rewrite is published only if the prover proves it: a refuted one and
//! an undecided one are both refused.
//!
//! Release builds only: in debug builds view routing itself panics on a
//! refused rewrite (the `route_through_views` debug gate) before the
//! preflight can turn it into a typed error.
#![cfg(not(debug_assertions))]

use av_cost::OptimizerEstimator;
use av_engine::{Column, Executor, Pricing, Table};
use av_equiv::canonical_fingerprint;
use av_online::{CandidateView, LifecycleConfig};
use av_plan::{Expr, Fingerprint, PlanBuilder, PlanRef};
use av_serve::{ServeConfig, ServeError, ViewServer};
use av_workload::cloud::mini;

/// `SELECT v FROM t WHERE k = <k>` — two of these with different literals
/// have equal arity and types, so only the prover can tell them apart.
fn slice_of_t(k: i64) -> PlanRef {
    PlanBuilder::scan("t", "a")
        .filter(Expr::col("a.k").eq(Expr::int(k)))
        .project(&[("a.v", "a.v")])
        .build()
}

/// `SELECT v FROM t WHERE k = <k> OR v = 1` — the prover compares
/// disjunctions only syntactically, so two of these with different `k` can
/// be neither proved nor refuted.
fn disjunctive_slice_of_t(k: i64) -> PlanRef {
    PlanBuilder::scan("t", "a")
        .filter(Expr::Or(vec![
            Expr::col("a.k").eq(Expr::int(k)),
            Expr::col("a.v").eq(Expr::int(1)),
        ]))
        .project(&[("a.v", "a.v")])
        .build()
}

/// `mini(76)`'s catalog plus the table `t(k, v)`.
fn catalog_with_t() -> av_engine::Catalog {
    let mut catalog = mini(76).catalog;
    catalog
        .add_table(
            Table::new(
                "t",
                vec![
                    ("k", Column::Int((0..60).map(|i| i % 6).collect())),
                    ("v", Column::Int((0..60).collect())),
                ],
            )
            .expect("valid table"),
        )
        .expect("fresh name");
    catalog
}

/// A server whose lifecycle budgets never turn a view away.
fn unlimited_server(catalog: av_engine::Catalog) -> ViewServer {
    ViewServer::new(
        catalog,
        Box::new(OptimizerEstimator::default()),
        ServeConfig {
            lifecycle: LifecycleConfig {
                byte_budget: usize::MAX,
                min_benefit_per_byte: 0.0,
                tenant_byte_budget: usize::MAX,
            },
            ..ServeConfig::default()
        },
    )
}

#[test]
fn refused_preflight_leaves_the_planner_on_the_published_epoch() {
    let w = mini(76);
    let catalog = catalog_with_t();
    let over_k3 = PlanBuilder::from_plan(slice_of_t(3))
        .count_star(&[], "n")
        .build();
    let mut window = w.plans();
    window.extend([over_k3.clone(), over_k3.clone()]);

    let exec = Executor::new(&catalog, Pricing::paper_defaults());
    let oracle: Vec<_> = window
        .iter()
        .map(|p| exec.run(p).expect("oracle run").batch)
        .collect();

    let server = unlimited_server(catalog);

    // The k = 2 slice, filed under the k = 3 slice's canonical fingerprint:
    // routing substitutes it for a subquery it does not contain.
    let mislabeled = CandidateView {
        plan: slice_of_t(2),
        canonical_fp: canonical_fingerprint(&slice_of_t(3)),
        expected_benefit: 1.0,
        overhead: 0.0,
    };
    let err = server
        .publish(&[mislabeled], None, std::slice::from_ref(&over_k3))
        .expect_err("a refuted rewrite must not be published");
    match err {
        ServeError::InvalidDeployment(msg) => {
            assert!(msg.contains("refuted"), "prover verdict is reported: {msg}")
        }
        other => panic!("expected InvalidDeployment, got {other}"),
    }
    assert_eq!(server.epoch(), 0, "the old epoch stays published");
    assert_eq!(server.metrics().counters["serve.preflight_failures"], 1);
    let published: Vec<Fingerprint> = server.current().views().iter().map(|(fp, _)| *fp).collect();
    assert_eq!(
        server.planner_live_fingerprints(),
        published,
        "the refused view must not stay live in the planner"
    );

    // The next re-optimization starts from the published state and lands.
    let summary = server
        .reoptimize(&window, None)
        .expect("well-formed reoptimize");
    assert_eq!(summary.epoch, 1);
    assert!(summary.admitted > 0, "the window selects views");
    assert_eq!(server.planner_live_fingerprints().len(), summary.live_views);
    let mut hits = 0;
    for (plan, expected) in window.iter().zip(&oracle) {
        let resp = server.execute("t0", plan).expect("serves");
        assert_eq!(resp.epoch, 1);
        assert_eq!(&resp.batch, expected, "served == direct execution");
        hits += resp.rewrite_hits;
    }
    assert!(hits > 0, "published views route the window");
}

#[test]
fn unproved_rewrite_is_refused_at_preflight() {
    let server = unlimited_server(catalog_with_t());
    let over_k3 = PlanBuilder::from_plan(disjunctive_slice_of_t(3))
        .count_star(&[], "n")
        .build();

    // The k = 2 disjunction filed under the k = 3 one's canonical
    // fingerprint: the schemas agree, and the prover can only say Unknown.
    let mislabeled = CandidateView {
        plan: disjunctive_slice_of_t(2),
        canonical_fp: canonical_fingerprint(&disjunctive_slice_of_t(3)),
        expected_benefit: 1.0,
        overhead: 0.0,
    };
    let err = server
        .publish(&[mislabeled], None, std::slice::from_ref(&over_k3))
        .expect_err("an unproved rewrite must not be published");
    match err {
        ServeError::InvalidDeployment(msg) => {
            assert!(
                msg.contains("unproved"),
                "prover verdict is reported: {msg}"
            )
        }
        other => panic!("expected InvalidDeployment, got {other}"),
    }
    assert_eq!(server.epoch(), 0, "the old epoch stays published");
    assert_eq!(server.metrics().counters["serve.preflight_failures"], 1);
    assert!(server.planner_live_fingerprints().is_empty());
}
