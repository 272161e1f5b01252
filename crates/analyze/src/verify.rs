//! The plan verifier: structural checks plus full schema inference, and
//! the prover-backed gate every view rewrite passes through.

use crate::containment::{prove_rewrite, Verdict, ViewDef};
use crate::schema::{infer_schema, Schema};
use av_engine::Catalog;
use av_plan::{check_structure, PlanError, PlanNode, PlanRef};
use std::fmt;

/// Verify a plan end to end: structural well-formedness, then bottom-up
/// schema/type inference against the catalog. Returns the root schema.
pub fn verify_plan(catalog: &Catalog, plan: &PlanNode) -> Result<Schema, PlanError> {
    check_structure(plan)?;
    infer_schema(catalog, plan)
}

/// Why [`gate_rewrite`] refused a rewrite.
#[derive(Debug)]
pub enum RewriteRefused {
    /// The prover found a witness row on which the plans diverge.
    Refuted { witness: String },
    /// The prover could not decide (`reason`). A rewrite is served only if
    /// proved, so this refuses it as firmly as a witness does.
    Unproved { reason: String },
}

impl fmt::Display for RewriteRefused {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RewriteRefused::Refuted { witness } => {
                write!(f, "refuted by the semantic prover: {witness}")
            }
            RewriteRefused::Unproved { reason } => {
                write!(f, "unproved by the semantic prover: {reason}")
            }
        }
    }
}

/// The rewrite gate every substitution site goes through: the semantic
/// prover decides, and only a `Proved` rewrite is accepted.
pub fn gate_rewrite(
    catalog: &Catalog,
    original: &PlanRef,
    rewritten: &PlanRef,
    view_def: ViewDef,
) -> Result<(), RewriteRefused> {
    match prove_rewrite(catalog, original, rewritten, view_def) {
        Verdict::Proved => Ok(()),
        Verdict::Refuted { witness } => Err(RewriteRefused::Refuted { witness }),
        Verdict::Unknown { reason } => Err(RewriteRefused::Unproved { reason }),
    }
}

/// Adapter with the engine's [`av_engine::PreflightFn`] signature.
fn preflight(catalog: &Catalog, plan: &PlanNode) -> Result<(), String> {
    verify_plan(catalog, plan)
        .map(|_| ())
        .map_err(|e| e.to_string())
}

/// Install the verifier as the engine's pre-dispatch gate (see
/// `av_engine::preflight`): every subsequent `Executor::run` in this
/// process verifies its plan before touching any data. Returns `true` iff
/// this call installed the gate.
pub fn install_engine_gate() -> bool {
    av_engine::install_preflight(preflight)
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_engine::{Catalog, Column, ColumnType, Executor, Pricing, Table, ViewStore};
    use av_plan::{Expr, PlanBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            Table::new(
                "users",
                vec![
                    ("id", Column::Int((0..20).collect())),
                    ("score", Column::Float((0..20).map(|i| i as f64).collect())),
                    (
                        "name",
                        Column::str((0..20).map(|i| format!("u{i}")).collect()),
                    ),
                ],
            )
            .expect("valid"),
        )
        .expect("ok");
        c.add_table(
            Table::new(
                "acts",
                vec![
                    ("uid", Column::Int((0..30).map(|i| i % 20).collect())),
                    (
                        "kind",
                        Column::str((0..30).map(|i| format!("k{}", i % 3)).collect()),
                    ),
                ],
            )
            .expect("valid"),
        )
        .expect("ok");
        c
    }

    fn joined() -> PlanBuilder {
        PlanBuilder::scan("users", "u").join(PlanBuilder::scan("acts", "a"), &[("u.id", "a.uid")])
    }

    #[test]
    fn valid_join_aggregate_verifies_with_types() {
        let plan = joined()
            .filter(Expr::col("a.kind").eq(Expr::str("k1")))
            .count_star(&["u.name"], "cnt")
            .build();
        let schema = verify_plan(&catalog(), &plan).expect("verifies");
        assert_eq!(
            schema,
            vec![
                ("u.name".to_string(), ColumnType::Str),
                ("cnt".to_string(), ColumnType::Int),
            ]
        );
    }

    #[test]
    fn unknown_table_rejected() {
        let plan = PlanBuilder::scan("ghost", "g").build();
        let err = verify_plan(&catalog(), &plan).expect_err("rejects");
        assert_eq!(err.code(), "unknown-table");
    }

    #[test]
    fn renamed_column_rejected_as_unbound() {
        let plan = PlanBuilder::scan("users", "u")
            .filter(Expr::col("u.idd").eq(Expr::int(1)))
            .build();
        let err = verify_plan(&catalog(), &plan).expect_err("rejects");
        assert_eq!(err.code(), "unbound-column");
        assert!(err.to_string().contains("u.idd"));
    }

    #[test]
    fn string_vs_int_comparison_rejected() {
        let plan = PlanBuilder::scan("users", "u")
            .filter(Expr::col("u.name").eq(Expr::int(3)))
            .build();
        let err = verify_plan(&catalog(), &plan).expect_err("rejects");
        assert_eq!(err.code(), "type-mismatch");
    }

    #[test]
    fn string_join_key_against_int_rejected() {
        let plan = PlanBuilder::scan("users", "u")
            .join(PlanBuilder::scan("acts", "a"), &[("u.name", "a.uid")])
            .build();
        let err = verify_plan(&catalog(), &plan).expect_err("rejects");
        assert_eq!(err.code(), "type-mismatch");
    }

    #[test]
    fn dropped_join_key_rejected_as_unbound() {
        let plan = PlanBuilder::scan("users", "u")
            .join(PlanBuilder::scan("acts", "a"), &[("u.id", "a.gone")])
            .build();
        let err = verify_plan(&catalog(), &plan).expect_err("rejects");
        assert_eq!(err.code(), "unbound-column");
        assert!(err.to_string().contains("a.gone"));
    }

    #[test]
    fn sum_over_string_rejected() {
        let plan = PlanBuilder::scan("users", "u")
            .aggregate(
                &[],
                vec![av_plan::AggExpr {
                    func: av_plan::AggFunc::Sum,
                    input: Some("u.name".into()),
                    output: "s".into(),
                }],
            )
            .build();
        let err = verify_plan(&catalog(), &plan).expect_err("rejects");
        assert_eq!(err.code(), "bad-aggregate");
    }

    #[test]
    fn string_predicate_rejected_as_non_boolean() {
        let plan = PlanBuilder::scan("users", "u")
            .filter(Expr::col("u.name"))
            .build();
        let err = verify_plan(&catalog(), &plan).expect_err("rejects");
        assert_eq!(err.code(), "non-boolean-predicate");
    }

    #[test]
    fn whatever_the_engine_accepts_the_verifier_accepts() {
        // Cross-check on a small family of plans: if the executor runs a
        // plan, verification must pass too (the verifier is sound w.r.t.
        // the engine, never stricter on valid plans).
        let cat = catalog();
        let exec = Executor::new(&cat, Pricing::paper_defaults());
        let plans = vec![
            joined().build(),
            joined()
                .project(&[("u.name", "n"), ("a.kind", "k")])
                .build(),
            joined()
                .filter(Expr::col("u.score").cmp(av_plan::CmpOp::Gt, Expr::int(5)))
                .count_star(&["a.kind"], "c")
                .build(),
        ];
        for p in plans {
            exec.run(&p).expect("engine runs");
            verify_plan(&cat, &p).expect("verifier agrees");
        }
    }

    /// The stored-table → defining-plan resolver the prover inlines views
    /// through.
    fn defs(store: &ViewStore) -> impl Fn(&str) -> Option<PlanRef> + '_ {
        |t| {
            store
                .views()
                .iter()
                .find(|v| v.table_name == t)
                .map(|v| v.plan.clone())
        }
    }

    #[test]
    fn rewrite_with_materialized_view_verifies() {
        let mut cat = catalog();
        let mut store = ViewStore::new();
        let sub = PlanBuilder::scan("acts", "a")
            .filter(Expr::col("a.kind").eq(Expr::str("k1")))
            .project(&[("a.uid", "a.uid"), ("a.kind", "a.kind")])
            .build();
        let query = PlanBuilder::from_plan(sub.clone())
            .count_star(&["a.kind"], "cnt")
            .build();
        store
            .materialize(&mut cat, sub, Pricing::paper_defaults())
            .expect("materializes");
        let view = &store.views()[0];
        let (rewritten, n) = av_engine::rewrite_with_view(&query, view);
        assert_eq!(n, 1);
        verify_plan(&cat, &rewritten).expect("rewritten plan verifies");
        gate_rewrite(&cat, &query, &rewritten, &defs(&store)).expect("rewrite is proved");
    }

    #[test]
    fn schema_changing_substitution_rejected() {
        // Splice a view whose stored schema does NOT cover the consumer's
        // required columns: the aggregate above references a.kind, but the
        // view only stores a.uid.
        let mut cat = catalog();
        let mut store = ViewStore::new();
        let narrow = PlanBuilder::scan("acts", "a")
            .filter(Expr::col("a.kind").eq(Expr::str("k1")))
            .project(&[("a.uid", "a.uid")])
            .build();
        store
            .materialize(&mut cat, narrow, Pricing::paper_defaults())
            .expect("materializes");
        let view = &store.views()[0];

        let wide_sub = PlanBuilder::scan("acts", "a")
            .filter(Expr::col("a.kind").eq(Expr::str("k1")))
            .project(&[("a.uid", "a.uid"), ("a.kind", "a.kind")])
            .build();
        let query = PlanBuilder::from_plan(wide_sub.clone())
            .count_star(&["a.kind"], "cnt")
            .build();
        // Force the splice as if the narrow view matched the wide subtree.
        let bad = av_plan::PlanNode::Aggregate {
            input: av_plan::PlanNode::TableScan {
                table: view.table_name.clone(),
                alias: String::new(),
            }
            .into_ref(),
            group_by: vec!["a.kind".into()],
            aggs: vec![av_plan::AggExpr {
                func: av_plan::AggFunc::Count,
                input: None,
                output: "cnt".into(),
            }],
        }
        .into_ref();
        let err = verify_plan(&cat, &bad).expect_err("rewritten plan fails verification");
        assert_eq!(err.code(), "unbound-column");
        gate_rewrite(&cat, &query, &bad, &defs(&store)).expect_err("gate refuses the splice");
    }

    #[test]
    fn undecided_rewrite_is_refused_as_unproved() {
        // A view over `kind = 'k2' OR uid = 1` spliced in for the query's
        // `kind = 'k1' OR uid = 1`: same schema, and the prover compares
        // disjunctions only syntactically, so it can neither prove nor
        // refute the splice. Only a proved rewrite passes.
        let mut cat = catalog();
        let mut store = ViewStore::new();
        let slice = |kind: &str| {
            PlanBuilder::scan("acts", "a")
                .filter(Expr::Or(vec![
                    Expr::col("a.kind").eq(Expr::str(kind)),
                    Expr::col("a.uid").eq(Expr::int(1)),
                ]))
                .project(&[("a.uid", "a.uid"), ("a.kind", "a.kind")])
                .build()
        };
        store
            .materialize(&mut cat, slice("k2"), Pricing::paper_defaults())
            .expect("materializes");
        let view = &store.views()[0];
        let sub = slice("k1");
        let query = PlanBuilder::from_plan(sub.clone())
            .count_star(&["a.kind"], "cnt")
            .build();
        let (rewritten, n) =
            av_engine::rewrite_subtree_with_view(&cat, &query, &sub, view).expect("view applies");
        assert_eq!(n, 1);
        verify_plan(&cat, &rewritten).expect("the schemas agree");
        let verdict = gate_rewrite(&cat, &query, &rewritten, &defs(&store));
        assert!(
            matches!(verdict, Err(RewriteRefused::Unproved { .. })),
            "expected Unproved, got {verdict:?}"
        );
    }
}
