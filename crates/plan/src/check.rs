//! Catalog-free structural well-formedness checks.
//!
//! These run at plan-builder exit (debug builds) and cover everything that
//! can be decided without a catalog: degenerate operator shapes and
//! duplicate output names. Binding and typing — which need table schemas —
//! live in the full verifier in `av-analyze`.

use crate::error::PlanError;
use crate::node::PlanNode;

/// Check structural invariants of every operator in the subtree.
pub fn check_structure(plan: &PlanNode) -> Result<(), PlanError> {
    check_node(plan)?;
    for c in plan.children() {
        check_structure(c)?;
    }
    Ok(())
}

fn check_node(plan: &PlanNode) -> Result<(), PlanError> {
    match plan {
        PlanNode::TableScan { table, .. } => {
            if table.is_empty() {
                return Err(PlanError::Malformed {
                    operator: "Scan",
                    reason: "empty table name".into(),
                });
            }
        }
        PlanNode::Filter { .. } => {}
        PlanNode::Project { exprs, .. } => {
            if exprs.is_empty() {
                return Err(PlanError::Malformed {
                    operator: "Project",
                    reason: "no projected columns".into(),
                });
            }
            check_unique(exprs.iter().map(|p| p.alias.as_str()), "Project")?;
        }
        PlanNode::Join { on, .. } => {
            for (l, r) in on {
                if l.is_empty() || r.is_empty() {
                    return Err(PlanError::Malformed {
                        operator: "Join",
                        reason: "empty join-key name".into(),
                    });
                }
            }
        }
        PlanNode::Aggregate { group_by, aggs, .. } => {
            if group_by.is_empty() && aggs.is_empty() {
                return Err(PlanError::Malformed {
                    operator: "Aggregate",
                    reason: "no group keys and no aggregates".into(),
                });
            }
            check_unique(
                group_by
                    .iter()
                    .map(|s| s.as_str())
                    .chain(aggs.iter().map(|a| a.output.as_str())),
                "Aggregate",
            )?;
        }
    }
    Ok(())
}

fn check_unique<'a>(
    names: impl Iterator<Item = &'a str>,
    operator: &'static str,
) -> Result<(), PlanError> {
    let mut seen: Vec<&str> = Vec::new();
    for n in names {
        if seen.contains(&n) {
            return Err(PlanError::DuplicateColumn {
                column: n.to_string(),
                operator,
            });
        }
        seen.push(n);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggExpr, AggFunc, Expr};
    use crate::node::ProjExpr;
    use crate::PlanBuilder;

    #[test]
    fn well_formed_plan_passes() {
        let p = PlanBuilder::scan("t", "a")
            .filter(Expr::col("a.x").eq(Expr::int(1)))
            .project(&[("a.x", "x")])
            .build();
        assert!(check_structure(&p).is_ok());
    }

    #[test]
    fn empty_projection_rejected() {
        let p = PlanNode::Project {
            input: PlanBuilder::scan("t", "a").build(),
            exprs: vec![],
        };
        assert_eq!(check_structure(&p).unwrap_err().code(), "malformed");
    }

    #[test]
    fn duplicate_project_alias_rejected() {
        let p = PlanNode::Project {
            input: PlanBuilder::scan("t", "a").build(),
            exprs: vec![ProjExpr::column("a.x", "x"), ProjExpr::column("a.y", "x")],
        };
        assert_eq!(check_structure(&p).unwrap_err().code(), "duplicate-column");
    }

    #[test]
    fn duplicate_aggregate_output_rejected() {
        let p = PlanNode::Aggregate {
            input: PlanBuilder::scan("t", "a").build(),
            group_by: vec!["a.k".into()],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                input: None,
                output: "a.k".into(),
            }],
        };
        assert_eq!(check_structure(&p).unwrap_err().code(), "duplicate-column");
    }

    #[test]
    fn empty_table_name_rejected_deep_in_tree() {
        let p = PlanNode::Filter {
            input: PlanNode::TableScan {
                table: String::new(),
                alias: "a".into(),
            }
            .into_ref(),
            predicate: Expr::col("a.x").eq(Expr::int(1)),
        };
        assert_eq!(check_structure(&p).unwrap_err().code(), "malformed");
    }
}
