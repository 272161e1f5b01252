//! Feature serialization of plans (Section IV-A / Fig. 4 of the paper).
//!
//! Each plan becomes a *two-dimensional sequence*: the outer sequence is the
//! pre-order list of operators, the inner sequence is each operator's
//! attribute list in prefix notation. Tokens are either *keywords* (operator
//! names, comparison ops, column and table names — a closed vocabulary drawn
//! from the database) or *strings* (literal constants — an open vocabulary
//! encoded char-by-char by the cost model's string encoder).

use crate::expr::Expr;
use crate::node::PlanNode;
use crate::value::Value;
use serde::{Deserialize, Serialize};

/// One token of a feature row.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Token {
    /// Closed-vocabulary symbol: operator/aggregate/comparison keyword, or a
    /// table/column name from the schema.
    Keyword(String),
    /// Open-vocabulary literal rendered as text, encoded char-level.
    Str(String),
}

impl Token {
    /// Keyword constructor.
    pub fn kw(s: impl Into<String>) -> Token {
        Token::Keyword(s.into())
    }

    /// String-literal constructor.
    pub fn s(s: impl Into<String>) -> Token {
        Token::Str(s.into())
    }

    /// The textual payload of the token.
    pub fn text(&self) -> &str {
        match self {
            Token::Keyword(s) | Token::Str(s) => s,
        }
    }
}

/// The attribute sequence of one operator, e.g.
/// `[Filter, AND, EQ, dt, '1010', EQ, memo_type, 'pen']`.
pub type FeatureRow = Vec<Token>;

/// Serialize a plan into its two-dimensional feature sequence: one
/// [`FeatureRow`] per operator, in pre-order (root first), matching the
/// flattened plan listing in the paper's Fig. 4.
pub fn plan_feature_rows(plan: &PlanNode) -> Vec<FeatureRow> {
    let mut rows = Vec::with_capacity(plan.node_count());
    plan.visit_preorder(&mut |n| rows.push(operator_feature_row(n)));
    rows
}

/// Serialize a single operator into its attribute sequence.
pub fn operator_feature_row(node: &PlanNode) -> FeatureRow {
    let mut row = vec![Token::kw(node.op_keyword())];
    match node {
        PlanNode::TableScan { table, .. } => row.push(Token::kw(table)),
        PlanNode::Filter { predicate, .. } => expr_tokens(predicate, &mut row),
        PlanNode::Project { exprs, .. } => {
            for p in exprs {
                expr_tokens(&p.expr, &mut row);
            }
        }
        PlanNode::Join { on, join_type, .. } => {
            for (l, r) in on {
                row.push(Token::kw("EQ"));
                row.push(Token::kw(l));
                row.push(Token::kw(r));
            }
            row.push(Token::kw(join_type.keyword()));
        }
        PlanNode::Aggregate { group_by, aggs, .. } => {
            for g in group_by {
                row.push(Token::kw(g));
            }
            for a in aggs {
                row.push(Token::kw(a.func.keyword()));
                if let Some(c) = &a.input {
                    row.push(Token::kw(c));
                }
                row.push(Token::kw(&a.output));
            }
        }
    }
    row
}

/// Prefix-notation serialization of an expression: operator keyword first,
/// then operand tokens.
fn expr_tokens(expr: &Expr, out: &mut FeatureRow) {
    match expr {
        Expr::Column(c) => out.push(Token::kw(c)),
        Expr::Literal(v) => out.push(match v {
            Value::Str(s) => Token::s(s.clone()),
            other => Token::s(other.to_string()),
        }),
        Expr::Cmp { op, left, right } => {
            out.push(Token::kw(op.keyword()));
            expr_tokens(left, out);
            expr_tokens(right, out);
        }
        Expr::And(v) => {
            out.push(Token::kw("AND"));
            for e in v {
                expr_tokens(e, out);
            }
        }
        Expr::Or(v) => {
            out.push(Token::kw("OR"));
            for e in v {
                expr_tokens(e, out);
            }
        }
        Expr::Not(e) => {
            out.push(Token::kw("NOT"));
            expr_tokens(e, out);
        }
        Expr::Arith { op, left, right } => {
            out.push(Token::kw(op.keyword()));
            expr_tokens(left, out);
            expr_tokens(right, out);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::Expr;

    fn texts(row: &FeatureRow) -> Vec<&str> {
        row.iter().map(|t| t.text()).collect()
    }

    #[test]
    fn filter_row_is_prefix_notation() {
        let p = PlanBuilder::scan("user_memo", "t1")
            .filter(
                Expr::col("dt")
                    .eq(Expr::str("1010"))
                    .and(Expr::col("memo_type").eq(Expr::str("pen"))),
            )
            .build();
        let rows = plan_feature_rows(&p);
        // Pre-order: Filter first, then Scan.
        assert_eq!(
            texts(&rows[0]),
            vec![
                "Filter",
                "AND",
                "EQ",
                "dt",
                "1010",
                "EQ",
                "memo_type",
                "pen"
            ]
        );
        assert_eq!(texts(&rows[1]), vec!["Scan", "user_memo"]);
    }

    #[test]
    fn literal_tokens_are_strings_columns_are_keywords() {
        let p = PlanBuilder::scan("t", "a")
            .filter(Expr::col("a.x").eq(Expr::int(7)))
            .build();
        let rows = plan_feature_rows(&p);
        assert_eq!(rows[0][2], Token::kw("a.x"));
        assert_eq!(rows[0][3], Token::s("7"));
    }

    #[test]
    fn row_count_equals_operator_count() {
        let p = PlanBuilder::scan("a", "a")
            .join(PlanBuilder::scan("b", "b"), &[("a.k", "b.k")])
            .count_star(&["a.k"], "cnt")
            .build();
        assert_eq!(plan_feature_rows(&p).len(), p.node_count());
    }

    #[test]
    fn aggregate_row_contains_func_keyword() {
        let p = PlanBuilder::scan("a", "a")
            .count_star(&["a.k"], "cnt")
            .build();
        let rows = plan_feature_rows(&p);
        assert_eq!(texts(&rows[0]), vec!["Aggregate", "a.k", "COUNT", "cnt"]);
    }

    #[test]
    fn join_row_lists_condition_and_type() {
        let p = PlanBuilder::scan("a", "a")
            .join(PlanBuilder::scan("b", "b"), &[("a.k", "b.k")])
            .build();
        let rows = plan_feature_rows(&p);
        assert_eq!(texts(&rows[0]), vec!["Join", "EQ", "a.k", "b.k", "inner"]);
    }
}
