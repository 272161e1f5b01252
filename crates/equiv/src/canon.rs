//! Plan canonicalization: alias renaming and expression normal forms.

use av_plan::expr::ArithOp;
use av_plan::{AggExpr, CmpOp, Expr, Fingerprint, PlanNode, PlanRef, ProjExpr};
use std::collections::HashMap;

/// Canonicalize a plan:
/// - table aliases renamed positionally (`a0`, `a1`, …) in scan pre-order,
///   with every qualified column reference rewritten to match;
/// - comparisons flipped so a lone literal sits on the right;
/// - AND/OR flattened, operands sorted and deduplicated;
/// - `NOT(NOT(e))` reduced to `e`;
/// - join conditions sorted.
///
/// Structurally different but semantically equal subqueries (alias renames,
/// predicate permutations) map to the same canonical tree, so canonical
/// [`Fingerprint`] equality is a sound and fast equivalence test.
pub fn canonicalize(plan: &PlanRef) -> PlanRef {
    let mut aliases = HashMap::new();
    collect_aliases(plan, &mut aliases);
    rewrite(plan, &aliases)
}

/// The key candidate clustering, view admission, view routing and the
/// rewrite prover's fast path all match on: the structural fingerprint of
/// `plan`'s canonical form.
pub fn canonical_fingerprint(plan: &PlanRef) -> Fingerprint {
    Fingerprint::of(&canonicalize(plan))
}

fn collect_aliases(plan: &PlanNode, map: &mut HashMap<String, String>) {
    plan.visit_preorder(&mut |n| {
        if let PlanNode::TableScan { alias, .. } = n {
            if !alias.is_empty() && !map.contains_key(alias) {
                let fresh = format!("a{}", map.len());
                map.insert(alias.clone(), fresh);
            }
        }
    });
}

fn remap_name(name: &str, aliases: &HashMap<String, String>) -> String {
    if let Some((prefix, rest)) = name.split_once('.') {
        if let Some(new) = aliases.get(prefix) {
            return format!("{new}.{rest}");
        }
    }
    name.to_string()
}

fn rewrite(plan: &PlanRef, aliases: &HashMap<String, String>) -> PlanRef {
    match plan.node() {
        PlanNode::TableScan { table, alias } => PlanNode::TableScan {
            table: table.clone(),
            alias: if alias.is_empty() {
                String::new()
            } else {
                aliases[alias].clone()
            },
        }
        .into_ref(),
        PlanNode::Filter { input, predicate } => PlanNode::Filter {
            input: rewrite(input, aliases),
            predicate: normalize_expr(&remap_expr(predicate, aliases)),
        }
        .into_ref(),
        PlanNode::Project { input, exprs } => PlanNode::Project {
            input: rewrite(input, aliases),
            exprs: exprs
                .iter()
                .map(|p| ProjExpr {
                    expr: normalize_expr(&remap_expr(&p.expr, aliases)),
                    alias: remap_name(&p.alias, aliases),
                })
                .collect(),
        }
        .into_ref(),
        PlanNode::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let mut on: Vec<(String, String)> = on
                .iter()
                .map(|(l, r)| (remap_name(l, aliases), remap_name(r, aliases)))
                .collect();
            on.sort();
            PlanNode::Join {
                left: rewrite(left, aliases),
                right: rewrite(right, aliases),
                on,
                join_type: *join_type,
            }
            .into_ref()
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => PlanNode::Aggregate {
            input: rewrite(input, aliases),
            group_by: group_by.iter().map(|g| remap_name(g, aliases)).collect(),
            aggs: aggs
                .iter()
                .map(|a| AggExpr {
                    func: a.func,
                    input: a.input.as_ref().map(|c| remap_name(c, aliases)),
                    output: remap_name(&a.output, aliases),
                })
                .collect(),
        }
        .into_ref(),
    }
}

fn remap_expr(e: &Expr, aliases: &HashMap<String, String>) -> Expr {
    match e {
        Expr::Column(c) => Expr::Column(remap_name(c, aliases)),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Cmp { op, left, right } => Expr::Cmp {
            op: *op,
            left: Box::new(remap_expr(left, aliases)),
            right: Box::new(remap_expr(right, aliases)),
        },
        Expr::And(v) => Expr::And(v.iter().map(|e| remap_expr(e, aliases)).collect()),
        Expr::Or(v) => Expr::Or(v.iter().map(|e| remap_expr(e, aliases)).collect()),
        Expr::Not(e) => Expr::Not(Box::new(remap_expr(e, aliases))),
        Expr::Arith { op, left, right } => Expr::Arith {
            op: *op,
            left: Box::new(remap_expr(left, aliases)),
            right: Box::new(remap_expr(right, aliases)),
        },
    }
}

/// Normalize an expression to its canonical form (see [`canonicalize`]).
pub fn normalize_expr(e: &Expr) -> Expr {
    match e {
        Expr::Column(_) | Expr::Literal(_) => e.clone(),
        Expr::Cmp { op, left, right } => {
            let l = normalize_expr(left);
            let r = normalize_expr(right);
            // Literal-vs-column: put the column left, flipping the operator.
            if matches!(l, Expr::Literal(_)) && !matches!(r, Expr::Literal(_)) {
                Expr::Cmp {
                    op: op.flipped(),
                    left: Box::new(r),
                    right: Box::new(l),
                }
            } else if matches!((&l, &r), (Expr::Column(_), Expr::Column(_)))
                && expr_key(&r) < expr_key(&l)
                && matches!(op, CmpOp::Eq | CmpOp::Ne)
            {
                // Symmetric ops over two columns: order operands.
                Expr::Cmp {
                    op: *op,
                    left: Box::new(r),
                    right: Box::new(l),
                }
            } else {
                Expr::Cmp {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                }
            }
        }
        Expr::And(v) => {
            let mut parts = flatten(v, true);
            parts.sort_by_key(expr_key);
            parts.dedup();
            if parts.len() == 1 {
                parts.pop().expect("one part")
            } else {
                Expr::And(parts)
            }
        }
        Expr::Or(v) => {
            let mut parts = flatten(v, false);
            parts.sort_by_key(expr_key);
            parts.dedup();
            if parts.len() == 1 {
                parts.pop().expect("one part")
            } else {
                Expr::Or(parts)
            }
        }
        Expr::Not(inner) => {
            let n = normalize_expr(inner);
            match n {
                Expr::Not(e) => *e,
                other => Expr::Not(Box::new(other)),
            }
        }
        Expr::Arith { op, left, right } => {
            let l = normalize_expr(left);
            let r = normalize_expr(right);
            // Commutative arithmetic: order operands.
            if matches!(op, ArithOp::Add | ArithOp::Mul) && expr_key(&r) < expr_key(&l) {
                Expr::Arith {
                    op: *op,
                    left: Box::new(r),
                    right: Box::new(l),
                }
            } else {
                Expr::Arith {
                    op: *op,
                    left: Box::new(l),
                    right: Box::new(r),
                }
            }
        }
    }
}

fn flatten(v: &[Expr], is_and: bool) -> Vec<Expr> {
    let mut out = Vec::with_capacity(v.len());
    for e in v {
        let n = normalize_expr(e);
        match (is_and, n) {
            (true, Expr::And(inner)) => out.extend(inner),
            (false, Expr::Or(inner)) => out.extend(inner),
            (_, other) => out.push(other),
        }
    }
    out
}

fn expr_key(e: &Expr) -> String {
    e.to_string()
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_plan::parse_query;

    fn canon_fp(sql: &str) -> Fingerprint {
        canonical_fingerprint(&parse_query(sql).expect("parses"))
    }

    #[test]
    fn alias_renaming_makes_plans_identical() {
        assert_eq!(
            canon_fp("select t1.x from t t1 where t1.k = 3"),
            canon_fp("select t7.x from t t7 where t7.k = 3"),
        );
    }

    #[test]
    fn predicate_order_is_normalized() {
        assert_eq!(
            canon_fp("select a.x from t a where a.k = 1 and a.j = 2"),
            canon_fp("select a.x from t a where a.j = 2 and a.k = 1"),
        );
    }

    #[test]
    fn flipped_comparison_is_normalized() {
        assert_eq!(
            canon_fp("select a.x from t a where a.k > 5"),
            canon_fp("select a.x from t a where 5 < a.k"),
        );
    }

    #[test]
    fn different_literals_stay_different() {
        assert_ne!(
            canon_fp("select a.x from t a where a.k = 1"),
            canon_fp("select a.x from t a where a.k = 2"),
        );
    }

    #[test]
    fn different_tables_stay_different() {
        assert_ne!(
            canon_fp("select a.x from t a"),
            canon_fp("select a.x from u a"),
        );
    }

    #[test]
    fn double_negation_eliminated() {
        let e = Expr::Not(Box::new(Expr::Not(Box::new(
            Expr::col("a.x").eq(Expr::int(1)),
        ))));
        assert_eq!(normalize_expr(&e), Expr::col("a.x").eq(Expr::int(1)));
    }

    #[test]
    fn duplicate_conjuncts_deduped() {
        let e = Expr::col("a.x")
            .eq(Expr::int(1))
            .and(Expr::col("a.x").eq(Expr::int(1)));
        assert_eq!(normalize_expr(&e), Expr::col("a.x").eq(Expr::int(1)));
    }

    #[test]
    fn symmetric_column_equality_ordered() {
        let a = normalize_expr(&Expr::col("a.y").eq(Expr::col("a.x")));
        let b = normalize_expr(&Expr::col("a.x").eq(Expr::col("a.y")));
        assert_eq!(a, b);
    }

    #[test]
    fn commutative_arith_ordered() {
        let a = normalize_expr(&Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(Expr::col("a.y")),
            right: Box::new(Expr::col("a.x")),
        });
        let b = normalize_expr(&Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(Expr::col("a.x")),
            right: Box::new(Expr::col("a.y")),
        });
        assert_eq!(a, b);
    }
}
