//! Fluent builder for logical plans.

use crate::expr::{AggExpr, AggFunc, Expr};
use crate::node::{JoinType, PlanNode, PlanRef, ProjExpr};

/// Fluent plan builder.
///
/// ```
/// use av_plan::{PlanBuilder, Expr};
///
/// let plan = PlanBuilder::scan("user_memo", "t1")
///     .filter(Expr::col("t1.dt").eq(Expr::str("1010")))
///     .project(&[("t1.user_id", "uid")])
///     .build();
/// assert_eq!(plan.node_count(), 3);
/// ```
#[derive(Debug, Clone)]
pub struct PlanBuilder {
    plan: PlanRef,
}

impl PlanBuilder {
    /// Start from a base-table scan with an alias.
    pub fn scan(table: impl Into<String>, alias: impl Into<String>) -> PlanBuilder {
        PlanBuilder {
            plan: PlanNode::TableScan {
                table: table.into(),
                alias: alias.into(),
            }
            .into_ref(),
        }
    }

    /// Continue building from an existing subtree.
    pub fn from_plan(plan: PlanRef) -> PlanBuilder {
        PlanBuilder { plan }
    }

    /// Add a filter. Consecutive filters are merged into one conjunction so
    /// structurally-equal predicates produce structurally-equal plans.
    pub fn filter(self, predicate: Expr) -> PlanBuilder {
        let plan = match self.plan.node() {
            PlanNode::Filter {
                input,
                predicate: existing,
            } => PlanNode::Filter {
                input: input.clone(),
                predicate: existing.clone().and(predicate),
            },
            _ => PlanNode::Filter {
                input: self.plan,
                predicate,
            },
        };
        PlanBuilder {
            plan: plan.into_ref(),
        }
    }

    /// Project columns given as `(input_column, output_alias)` pairs.
    pub fn project(self, cols: &[(&str, &str)]) -> PlanBuilder {
        PlanBuilder {
            plan: PlanNode::Project {
                input: self.plan,
                exprs: cols.iter().map(|(c, a)| ProjExpr::column(*c, *a)).collect(),
            }
            .into_ref(),
        }
    }

    /// Project arbitrary expressions.
    pub fn project_exprs(self, exprs: Vec<ProjExpr>) -> PlanBuilder {
        PlanBuilder {
            plan: PlanNode::Project {
                input: self.plan,
                exprs,
            }
            .into_ref(),
        }
    }

    /// Inner-join with another subtree on `(left_col, right_col)` pairs.
    pub fn join(self, right: PlanBuilder, on: &[(&str, &str)]) -> PlanBuilder {
        self.join_typed(right, on, JoinType::Inner)
    }

    /// Join with an explicit join type.
    pub fn join_typed(
        self,
        right: PlanBuilder,
        on: &[(&str, &str)],
        join_type: JoinType,
    ) -> PlanBuilder {
        PlanBuilder {
            plan: PlanNode::Join {
                left: self.plan,
                right: right.plan,
                on: on
                    .iter()
                    .map(|(l, r)| (l.to_string(), r.to_string()))
                    .collect(),
                join_type,
            }
            .into_ref(),
        }
    }

    /// Group by `group_by` columns and compute the given aggregates.
    pub fn aggregate(self, group_by: &[&str], aggs: Vec<AggExpr>) -> PlanBuilder {
        PlanBuilder {
            plan: PlanNode::Aggregate {
                input: self.plan,
                group_by: group_by.iter().map(|s| s.to_string()).collect(),
                aggs,
            }
            .into_ref(),
        }
    }

    /// Shorthand for `COUNT(*) AS alias` grouped by the given columns.
    pub fn count_star(self, group_by: &[&str], alias: &str) -> PlanBuilder {
        self.aggregate(
            group_by,
            vec![AggExpr {
                func: AggFunc::Count,
                input: None,
                output: alias.to_string(),
            }],
        )
    }

    /// Finish and return the shared plan.
    ///
    /// In debug builds this is a gate: the structural checks of
    /// [`crate::check`] run on the finished tree and a violation panics
    /// with the typed [`crate::PlanError`] diagnostic. Release builds skip
    /// the walk; use [`PlanBuilder::try_build`] to get the error as a
    /// value in any profile.
    pub fn build(self) -> PlanRef {
        #[cfg(debug_assertions)]
        if let Err(e) = crate::check::check_structure(&self.plan) {
            panic!("plan builder produced an ill-formed plan: {e}");
        }
        self.plan
    }

    /// Finish, returning a typed error if the plan is structurally
    /// ill-formed (see [`crate::check::check_structure`]).
    pub fn try_build(self) -> Result<PlanRef, crate::PlanError> {
        crate::check::check_structure(&self.plan)?;
        Ok(self.plan)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::CmpOp;

    #[test]
    fn consecutive_filters_merge() {
        let p = PlanBuilder::scan("t", "a")
            .filter(Expr::col("a.x").eq(Expr::int(1)))
            .filter(Expr::col("a.y").cmp(CmpOp::Gt, Expr::int(2)))
            .build();
        assert_eq!(p.node_count(), 2, "merged filter keeps plan at scan+filter");
        match p.node() {
            PlanNode::Filter { predicate, .. } => match predicate {
                Expr::And(v) => assert_eq!(v.len(), 2),
                other => panic!("expected conjunction, got {other}"),
            },
            other => panic!("expected filter root, got {other:?}"),
        }
    }

    #[test]
    fn join_builder_produces_join_node() {
        let p = PlanBuilder::scan("t1", "a")
            .join(PlanBuilder::scan("t2", "b"), &[("a.id", "b.id")])
            .build();
        match p.node() {
            PlanNode::Join { on, join_type, .. } => {
                assert_eq!(on, &[("a.id".to_string(), "b.id".to_string())]);
                assert_eq!(*join_type, JoinType::Inner);
            }
            other => panic!("expected join, got {other:?}"),
        }
    }

    #[test]
    fn count_star_emits_count_aggregate() {
        let p = PlanBuilder::scan("t", "a")
            .count_star(&["a.k"], "cnt")
            .build();
        match p.node() {
            PlanNode::Aggregate { group_by, aggs, .. } => {
                assert_eq!(group_by, &["a.k".to_string()]);
                assert_eq!(aggs[0].output, "cnt");
                assert!(aggs[0].input.is_none());
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }
}
