//! Property tests for plans: fingerprint stability, feature-row totality,
//! expression evaluation totality, and parser determinism.

use av_plan::{
    parse_query, plan_feature_rows, CmpOp, Expr, Fingerprint, PlanBuilder, PlanRef, Value,
};
use proptest::prelude::*;

/// Strategy: a random scalar predicate over a fixed column set.
fn arb_expr() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        (0..4usize).prop_map(|i| Expr::col(format!("a.c{i}"))),
        (-20i64..20).prop_map(Expr::int),
        "[a-z]{1,6}".prop_map(Expr::str),
    ];
    leaf.prop_recursive(3, 24, 4, |inner| {
        prop_oneof![
            (inner.clone(), inner.clone(), any::<u8>()).prop_map(|(l, r, op)| {
                let op = match op % 6 {
                    0 => CmpOp::Eq,
                    1 => CmpOp::Ne,
                    2 => CmpOp::Lt,
                    3 => CmpOp::Le,
                    4 => CmpOp::Gt,
                    _ => CmpOp::Ge,
                };
                l.cmp(op, r)
            }),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::And),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::Or),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

/// Strategy: a random small plan over one or two tables.
fn arb_plan() -> impl Strategy<Value = PlanRef> {
    (arb_expr(), arb_expr(), any::<bool>(), any::<bool>()).prop_map(|(p1, p2, join, agg)| {
        let left = PlanBuilder::scan("t1", "a")
            .filter(p1)
            .project(&[("a.c0", "a.c0"), ("a.c1", "a.c1")]);
        let b = if join {
            let right = PlanBuilder::scan("t2", "b")
                .filter(p2)
                .project(&[("b.c0", "b.c0")]);
            left.join(right, &[("a.c0", "b.c0")])
        } else {
            left
        };
        if agg {
            b.count_star(&["a.c1"], "n").build()
        } else {
            b.build()
        }
    })
}

proptest! {
    #[test]
    fn fingerprint_is_stable_and_clone_invariant(plan in arb_plan()) {
        let fp1 = Fingerprint::of(&plan);
        let fp2 = Fingerprint::of(&plan.node().clone().into_ref());
        prop_assert_eq!(fp1, fp2);
    }

    #[test]
    fn feature_rows_cover_every_operator(plan in arb_plan()) {
        let rows = plan_feature_rows(&plan);
        prop_assert_eq!(rows.len(), plan.node_count());
        // Every row starts with the operator keyword, which is non-empty.
        for row in rows {
            prop_assert!(!row.is_empty());
            prop_assert!(!row[0].text().is_empty());
        }
    }

    #[test]
    fn expr_eval_is_total(e in arb_expr(), v in -25i64..25) {
        // No panic for any expression over any binding, including NULLs.
        let resolve = |name: &str| {
            if name.ends_with("c0") {
                Value::Int(v)
            } else if name.ends_with("c1") {
                Value::Str(format!("s{v}"))
            } else {
                Value::Null
            }
        };
        let _ = e.eval(&resolve);
        let _ = e.eval_bool(&resolve);
    }

    #[test]
    fn display_then_parse_round_trips_filters(v in -50i64..50, c in 0..3usize) {
        // The parser is deterministic: the same filter SQL parsed twice
        // gives plans with one fingerprint.
        let sql = format!("select a.c{c} from t a where a.c{c} > {v}");
        let p1 = parse_query(&sql).expect("parses");
        let p2 = parse_query(&sql).expect("parses again");
        prop_assert_eq!(Fingerprint::of(&p1), Fingerprint::of(&p2));
    }

    #[test]
    fn subquery_enumeration_is_consistent(plan in arb_plan()) {
        let subs = av_plan::enumerate_subqueries(&plan);
        for s in &subs {
            prop_assert_eq!(s.fingerprint, Fingerprint::of(&s.plan));
            prop_assert!(av_plan::subquery::contains_subtree(&plan, s.fingerprint));
        }
    }
}

/// The case proptest once shrank `display_then_parse_round_trips_filters`
/// to (`v = -1, c = 0`), kept as a plain test since the proptest shim
/// replays no saved cases: a negative literal on the right of a comparison
/// parses, the same way each time, to the literal itself.
#[test]
fn a_negative_literal_in_a_filter_parses_to_itself() {
    let sql = "select a.c0 from t a where a.c0 > -1";
    let plan = parse_query(sql).expect("parses");
    assert_eq!(
        Fingerprint::of(&plan),
        Fingerprint::of(&parse_query(sql).expect("parses again"))
    );
    let expected = PlanBuilder::scan("t", "a")
        .filter(Expr::col("a.c0").cmp(CmpOp::Gt, Expr::int(-1)))
        .project(&[("a.c0", "a.c0")])
        .build();
    assert_eq!(
        Fingerprint::of(&plan),
        Fingerprint::of(&expected),
        "{plan:?}"
    );
}
