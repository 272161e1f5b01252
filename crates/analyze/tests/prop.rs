//! Property tests for the plan verifier:
//!
//! (a) every plan the builder can produce over a known catalog verifies,
//!     and the inferred schema agrees exactly (names and types) with what
//!     the executor actually returns;
//! (b) mutation-corrupted plans — renamed column, swapped literal type,
//!     dropped join key — are rejected with the right diagnostic;
//! (c) the full JOB workload and its candidates verify clean, and every
//!     rewrite they produce verifies and is proved.

use av_analyze::{gate_rewrite, verify_plan};
use av_engine::{
    rewrite_subtree_with_view, Catalog, Column, ColumnType, Executor, Pricing, Table, ViewStore,
};
use av_plan::{find_subtree, AggExpr, AggFunc, CmpOp, Expr, PlanBuilder, PlanRef};
use proptest::prelude::*;

/// `ta(k Int, v Int, s Str)` and `tb(k Int, w Float)`, with enough rows to
/// exercise joins.
fn catalog() -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        Table::new(
            "ta",
            vec![
                ("k", Column::Int((0..24).map(|i| i % 6).collect())),
                ("v", Column::Int((0..24).map(|i| i * 3 - 7).collect())),
                (
                    "s",
                    Column::str((0..24).map(|i| format!("s{}", i % 4)).collect()),
                ),
            ],
        )
        .expect("rectangular"),
    )
    .expect("fresh");
    c.add_table(
        Table::new(
            "tb",
            vec![
                ("k", Column::Int((0..18).map(|i| i % 6).collect())),
                (
                    "w",
                    Column::Float((0..18).map(|i| i as f64 / 2.0).collect()),
                ),
            ],
        )
        .expect("rectangular"),
    )
    .expect("fresh");
    c
}

/// A random well-typed plan: scan → optional filter → optional join →
/// optional aggregate. Always valid by construction.
fn valid_plan(threshold: i64, with_filter: bool, with_join: bool, agg: u8) -> PlanRef {
    let mut b = PlanBuilder::scan("ta", "a");
    if with_filter {
        b = b.filter(Expr::col("a.v").cmp(CmpOp::Gt, Expr::int(threshold)));
    }
    if with_join {
        b = b.join(PlanBuilder::scan("tb", "b"), &[("a.k", "b.k")]);
    }
    match agg % 3 {
        0 => b.build(),
        1 => b.count_star(&["a.s"], "n").build(),
        _ => b
            .aggregate(
                &["a.k"],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Some("a.v".into()),
                    output: "sv".into(),
                }],
            )
            .build(),
    }
}

fn column_type(c: &Column) -> ColumnType {
    match c {
        Column::Int(_) => ColumnType::Int,
        Column::Float(_) => ColumnType::Float,
        Column::Str(_) => ColumnType::Str,
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// (a) Builder plans verify, and the inferred schema is exactly the
    /// executed batch's column names and types.
    #[test]
    fn builder_plans_verify_and_schema_matches_execution(
        threshold in -10i64..80,
        with_filter in any::<bool>(),
        with_join in any::<bool>(),
        agg in 0u8..3,
    ) {
        let cat = catalog();
        let plan = valid_plan(threshold, with_filter, with_join, agg);
        let schema = verify_plan(&cat, &plan).expect("builder plan verifies");
        let result = Executor::new(&cat, Pricing::paper_defaults())
            .run(&plan)
            .expect("verified plan executes");
        let names: Vec<&str> = schema.iter().map(|(n, _)| n.as_str()).collect();
        let got: Vec<&str> = result.batch.names.iter().map(String::as_str).collect();
        prop_assert_eq!(names, got, "schema names must match execution");
        for ((name, ty), col) in schema.iter().zip(&result.batch.columns) {
            prop_assert_eq!(
                *ty,
                column_type(col),
                "column {} type must match execution", name
            );
        }
    }

    /// (b1) Renaming a referenced column makes the plan fail with
    /// `unbound-column`, and the diagnostic names the missing column.
    #[test]
    fn renamed_column_is_rejected(
        threshold in -10i64..80,
        with_join in any::<bool>(),
    ) {
        let cat = catalog();
        let mut b = PlanBuilder::scan("ta", "a")
            .filter(Expr::col("a.bogus").cmp(CmpOp::Gt, Expr::int(threshold)));
        if with_join {
            b = b.join(PlanBuilder::scan("tb", "b"), &[("a.k", "b.k")]);
        }
        let err = verify_plan(&cat, &b.build()).expect_err("must reject");
        prop_assert_eq!(err.code(), "unbound-column");
        prop_assert!(err.to_string().contains("a.bogus"));
    }

    /// (b2) Swapping an int literal for a string literal in a numeric
    /// comparison fails with `type-mismatch`.
    #[test]
    fn swapped_literal_type_is_rejected(s in "[a-z]{1,6}") {
        let cat = catalog();
        let plan = PlanBuilder::scan("ta", "a")
            .filter(Expr::col("a.v").cmp(CmpOp::Gt, Expr::str(&s)))
            .build();
        let err = verify_plan(&cat, &plan).expect_err("must reject");
        prop_assert_eq!(err.code(), "type-mismatch");
    }

    /// (b3) A join key that does not exist on the right side fails with
    /// `unbound-column`; a key of the wrong type fails with
    /// `type-mismatch`.
    #[test]
    fn bad_join_keys_are_rejected(drop_key in any::<bool>()) {
        let cat = catalog();
        let right_key = if drop_key { "b.gone" } else { "b.w" };
        let left = if drop_key { "a.k" } else { "a.s" };
        let plan = PlanBuilder::scan("ta", "a")
            .join(PlanBuilder::scan("tb", "b"), &[(left, right_key)])
            .build();
        let err = verify_plan(&cat, &plan).expect_err("must reject");
        let want = if drop_key { "unbound-column" } else { "type-mismatch" };
        prop_assert_eq!(err.code(), want);
    }

    /// The verifier is sound w.r.t. the engine on corrupted plans too:
    /// whenever verification rejects a mutated plan, the engine either
    /// errors or (for type confusions it tolerates via runtime coercion
    /// rules) still runs — but a verifier *pass* always implies the engine
    /// runs cleanly.
    #[test]
    fn verifier_pass_implies_engine_runs(
        threshold in -10i64..80,
        with_filter in any::<bool>(),
        with_join in any::<bool>(),
        agg in 0u8..3,
    ) {
        let cat = catalog();
        let plan = valid_plan(threshold, with_filter, with_join, agg);
        if verify_plan(&cat, &plan).is_ok() {
            prop_assert!(
                Executor::new(&cat, Pricing::paper_defaults()).run(&plan).is_ok(),
                "verified plans must execute"
            );
        }
    }
}

/// (c) Full JOB workload: all queries and all candidates verify clean, and
/// every rewrite verifies and passes the Proved-only gate. Mirrors the
/// `av-analyze` binary at a smaller scale.
#[test]
fn job_workload_and_rewrites_verify_clean() {
    let w = av_workload::job::job_workload(0.02, 7);
    let mut cat = w.catalog.clone();
    let plans = w.plans();
    assert_eq!(plans.len(), 226, "JOB has 113 templates × 2");

    for (i, p) in plans.iter().enumerate() {
        let schema = verify_plan(&cat, p).unwrap_or_else(|e| panic!("query {i}: {e}"));
        assert!(!schema.is_empty());
    }

    let analysis = av_equiv::analyze_workload(&plans);
    assert!(!analysis.candidates.is_empty());
    for cand in &analysis.candidates {
        verify_plan(&cat, &cand.plan).unwrap_or_else(|e| panic!("candidate {}: {e}", cand.id));
    }

    let mut views = ViewStore::new();
    for cand in &analysis.candidates {
        views
            .materialize(&mut cat, cand.plan.clone(), Pricing::paper_defaults())
            .unwrap_or_else(|e| panic!("candidate {} materializes: {e}", cand.id));
    }
    let resolve = |t: &str| {
        views
            .views()
            .iter()
            .find(|v| v.table_name == t)
            .map(|v| v.plan.clone())
    };
    let mut rewrites = 0usize;
    for (i, matches) in analysis.query_matches.iter().enumerate() {
        for m in matches {
            let Some(view) = views.view(av_engine::ViewId(m.candidate)) else {
                continue;
            };
            let Some(subtree) = find_subtree(&plans[i], m.subtree_fp) else {
                continue;
            };
            let Some((rewritten, _)) = rewrite_subtree_with_view(&cat, &plans[i], &subtree, view)
            else {
                continue;
            };
            verify_plan(&cat, &rewritten).unwrap_or_else(|e| {
                panic!("rewrite of query {i} via candidate {}: {e}", m.candidate)
            });
            gate_rewrite(&cat, &plans[i], &rewritten, &resolve).unwrap_or_else(|e| {
                panic!("rewrite of query {i} via candidate {}: {e}", m.candidate)
            });
            rewrites += 1;
        }
    }
    assert!(
        rewrites > 0,
        "JOB workload must produce verifiable rewrites"
    );
}
