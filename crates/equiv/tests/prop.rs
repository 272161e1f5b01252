//! Property tests for the one equivalence key: canonicalization is
//! idempotent and semantics-preserving, and the canonical fingerprint is
//! reflexive, alias-invariant and separates different tables.

use av_equiv::canon::normalize_expr;
use av_equiv::{canonical_fingerprint, canonicalize};
use av_plan::{CmpOp, Expr, Fingerprint, PlanBuilder, PlanNode, Value};
use proptest::prelude::*;

fn arb_pred() -> impl Strategy<Value = Expr> {
    let leaf = prop_oneof![
        ((0..3usize), -9i64..9, 0..6u8).prop_map(|(c, v, op)| {
            let op = match op {
                0 => CmpOp::Eq,
                1 => CmpOp::Ne,
                2 => CmpOp::Lt,
                3 => CmpOp::Le,
                4 => CmpOp::Gt,
                _ => CmpOp::Ge,
            };
            Expr::col(format!("x.c{c}")).cmp(op, Expr::int(v))
        }),
        ((0..3usize), "[a-c]{1,3}")
            .prop_map(|(c, s)| { Expr::col(format!("x.c{c}")).eq(Expr::str(s)) }),
    ];
    leaf.prop_recursive(3, 16, 3, |inner| {
        prop_oneof![
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::And),
            proptest::collection::vec(inner.clone(), 2..4).prop_map(Expr::Or),
            inner.prop_map(|e| Expr::Not(Box::new(e))),
        ]
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn canonicalization_is_idempotent(pred in arb_pred()) {
        let plan = PlanBuilder::scan("t", "x")
            .filter(pred)
            .project(&[("x.c0", "x.c0")])
            .build();
        let once = canonicalize(&plan);
        let twice = canonicalize(&once);
        prop_assert_eq!(Fingerprint::of(&once), Fingerprint::of(&twice));
    }

    #[test]
    fn canonicalization_preserves_predicate_semantics(pred in arb_pred(), probe in -10i64..10) {
        let plan = PlanBuilder::scan("t", "x").filter(pred.clone()).build();
        let canon = canonicalize(&plan);
        let PlanNode::Filter { predicate: canon_pred, .. } = canon.node() else {
            panic!("the filter survives canonicalization");
        };
        // Same truth value under an arbitrary binding, modulo the alias
        // rename x→a0.
        let bind_orig = |name: &str| {
            if name.ends_with("c0") { Value::Int(probe) }
            else if name.ends_with("c1") { Value::Str(format!("s{probe}")) }
            else { Value::Int(-probe) }
        };
        prop_assert_eq!(
            pred.eval_bool(&bind_orig),
            canon_pred.eval_bool(&bind_orig),
            "canonicalization changed semantics"
        );
    }

    #[test]
    fn canonical_fingerprint_is_reflexive_and_alias_invariant(pred in arb_pred()) {
        let mk = |alias: &str| {
            let renamed = rename_prefix(&pred, alias);
            PlanBuilder::scan("t", alias)
                .filter(renamed)
                .project(&[
                    (&format!("{alias}.c0"), &format!("{alias}.c0")),
                ])
                .build()
        };
        let a = mk("x");
        let b = mk("zz");
        prop_assert_eq!(canonical_fingerprint(&a), canonical_fingerprint(&a.clone()));
        prop_assert_eq!(
            canonical_fingerprint(&a),
            canonical_fingerprint(&b),
            "alias rename must not matter"
        );
    }

    #[test]
    fn self_conjunction_normalizes_to_the_predicate(pred in arb_pred()) {
        let doubled = Expr::And(vec![pred.clone(), pred.clone()]);
        prop_assert_eq!(normalize_expr(&doubled), normalize_expr(&pred));
    }

    #[test]
    fn different_tables_never_share_a_canonical_fingerprint(pred in arb_pred()) {
        let a = PlanBuilder::scan("t1", "x").filter(pred.clone()).project(&[("x.c0", "x.c0")]).build();
        let b = PlanBuilder::scan("t2", "x").filter(pred).project(&[("x.c0", "x.c0")]).build();
        prop_assert_ne!(canonical_fingerprint(&a), canonical_fingerprint(&b));
    }
}

/// Rename `x.` prefixes in a predicate to `alias.`.
fn rename_prefix(e: &Expr, alias: &str) -> Expr {
    match e {
        Expr::Column(c) => Expr::Column(match c.split_once('.') {
            Some((_, rest)) => format!("{alias}.{rest}"),
            None => c.clone(),
        }),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Cmp { op, left, right } => Expr::Cmp {
            op: *op,
            left: Box::new(rename_prefix(left, alias)),
            right: Box::new(rename_prefix(right, alias)),
        },
        Expr::And(v) => Expr::And(v.iter().map(|e| rename_prefix(e, alias)).collect()),
        Expr::Or(v) => Expr::Or(v.iter().map(|e| rename_prefix(e, alias)).collect()),
        Expr::Not(inner) => Expr::Not(Box::new(rename_prefix(inner, alias))),
        Expr::Arith { op, left, right } => Expr::Arith {
            op: *op,
            left: Box::new(rename_prefix(left, alias)),
            right: Box::new(rename_prefix(right, alias)),
        },
    }
}
