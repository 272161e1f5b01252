//! Query rewriting: replace subtrees with materialized-view scans.
//!
//! Given a query plan and a materialized view whose defining subquery is
//! structurally identical to some subtree of the query, splice a scan of the
//! view's stored table over that subtree. The rewritten plan computes the
//! same result (the stored table *is* the subtree's output, column names
//! included) but skips re-executing the subquery — the source of the
//! paper's benefit `B_{q,v} = A_{β,γ}(q) − A_{β,γ}(q|v)`.

use crate::catalog::Catalog;
use crate::view::MaterializedView;
use av_plan::{Fingerprint, PlanNode, PlanRef};
use std::sync::Arc;

/// A scan of `view`'s stored table. Empty alias = view scan: the stored
/// column names pass through as-is.
fn view_scan(view: &MaterializedView) -> PlanRef {
    PlanNode::TableScan {
        table: view.table_name.clone(),
        alias: String::new(),
    }
    .into_ref()
}

/// Rewrite `plan` using one view. Returns the rewritten plan and how many
/// subtrees were replaced (0 means the view did not apply).
pub fn rewrite_with_view(plan: &PlanRef, view: &MaterializedView) -> (PlanRef, usize) {
    let mut count = 0;
    let out = splice(plan, view.fingerprint, &view_scan(view), &mut count);
    (out, count)
}

/// The plan that stands in for `subtree` (the *query's own* matching
/// subquery, which may use different aliases than the view's defining
/// plan): a scan of `view`'s stored table, renamed positionally to the
/// subtree's output columns. Equivalent plans produce same-arity outputs in
/// corresponding positions, so the positional rename preserves semantics.
///
/// `None` when the match is stale: the view's table is gone from `catalog`
/// or the arities differ.
pub fn view_replacement(
    catalog: &Catalog,
    subtree: &PlanRef,
    view: &MaterializedView,
) -> Option<PlanRef> {
    let subtree_columns = subtree.output_columns(&|t| catalog.table_columns(t));
    let view_columns = &catalog.table(&view.table_name)?.column_names;
    if subtree_columns.len() != view_columns.len() {
        return None;
    }
    // Rename only when the names differ; a bare scan keeps plans minimal.
    Some(if &subtree_columns == view_columns {
        view_scan(view)
    } else {
        PlanNode::Project {
            input: view_scan(view),
            exprs: view_columns
                .iter()
                .zip(&subtree_columns)
                .map(|(from, to)| av_plan::ProjExpr::column(from.clone(), to.clone()))
                .collect(),
        }
        .into_ref()
    })
}

/// Rewrite every occurrence of `subtree` in `plan` with
/// [`view_replacement`]'s stand-in for it.
///
/// Returns the rewritten plan and the number of subtrees replaced, or `None`
/// when the match is stale or `subtree` does not occur in `plan`.
pub fn rewrite_subtree_with_view(
    catalog: &Catalog,
    plan: &PlanRef,
    subtree: &PlanRef,
    view: &MaterializedView,
) -> Option<(PlanRef, usize)> {
    let replacement = view_replacement(catalog, subtree, view)?;
    let mut count = 0;
    let out = splice(plan, Fingerprint::of(subtree), &replacement, &mut count);
    (count > 0).then_some((out, count))
}

fn splice(
    plan: &PlanRef,
    target: Fingerprint,
    replacement: &PlanRef,
    count: &mut usize,
) -> PlanRef {
    rewrite_top_down(plan, &mut |node| {
        (Fingerprint::of(node) == target).then(|| {
            *count += 1;
            replacement.clone()
        })
    })
}

/// Rebuild `plan` from the root down. Where `replace` returns a plan, that
/// plan stands in for the whole subtree and the walk does not descend into
/// it; elsewhere the children are rebuilt. Untouched subtrees stay shared
/// with `plan`.
pub fn rewrite_top_down(
    plan: &PlanRef,
    replace: &mut dyn FnMut(&PlanRef) -> Option<PlanRef>,
) -> PlanRef {
    if let Some(replacement) = replace(plan) {
        return replacement;
    }
    match plan.node() {
        PlanNode::TableScan { .. } => plan.clone(),
        PlanNode::Filter { input, predicate } => {
            let new_input = rewrite_top_down(input, replace);
            if Arc::ptr_eq(&new_input, input) {
                plan.clone()
            } else {
                PlanNode::Filter {
                    input: new_input,
                    predicate: predicate.clone(),
                }
                .into_ref()
            }
        }
        PlanNode::Project { input, exprs } => {
            let new_input = rewrite_top_down(input, replace);
            if Arc::ptr_eq(&new_input, input) {
                plan.clone()
            } else {
                PlanNode::Project {
                    input: new_input,
                    exprs: exprs.clone(),
                }
                .into_ref()
            }
        }
        PlanNode::Join {
            left,
            right,
            on,
            join_type,
        } => {
            let new_left = rewrite_top_down(left, replace);
            let new_right = rewrite_top_down(right, replace);
            if Arc::ptr_eq(&new_left, left) && Arc::ptr_eq(&new_right, right) {
                plan.clone()
            } else {
                PlanNode::Join {
                    left: new_left,
                    right: new_right,
                    on: on.clone(),
                    join_type: *join_type,
                }
                .into_ref()
            }
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let new_input = rewrite_top_down(input, replace);
            if Arc::ptr_eq(&new_input, input) {
                plan.clone()
            } else {
                PlanNode::Aggregate {
                    input: new_input,
                    group_by: group_by.clone(),
                    aggs: aggs.clone(),
                }
                .into_ref()
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Column;
    use crate::catalog::Table;
    use crate::exec::Executor;
    use crate::meter::Pricing;
    use crate::view::ViewStore;
    use av_plan::{Expr, PlanBuilder};

    fn setup() -> (Catalog, ViewStore, PlanRef, PlanRef) {
        let mut cat = Catalog::new();
        cat.add_table(
            Table::new(
                "events",
                vec![
                    ("uid", Column::Int((0..200).map(|i| i % 20).collect())),
                    ("kind", Column::Int((0..200).map(|i| i % 4).collect())),
                    ("val", Column::Int((0..200).collect())),
                ],
            )
            .expect("valid"),
        )
        .expect("ok");

        // Subquery s: filtered projection.
        let sub = PlanBuilder::scan("events", "e")
            .filter(Expr::col("e.kind").eq(Expr::int(1)))
            .project(&[("e.uid", "e.uid"), ("e.val", "e.val")])
            .build();
        // Query q: aggregate over s.
        let query = PlanBuilder::from_plan(sub.clone())
            .count_star(&["e.uid"], "n")
            .build();

        let mut store = ViewStore::new();
        store
            .materialize(&mut cat, sub.clone(), Pricing::paper_defaults())
            .expect("materializes");
        (cat, store, query, sub)
    }

    #[test]
    fn rewrite_replaces_matching_subtree() {
        let (_cat, store, query, _sub) = setup();
        let (rewritten, n) = rewrite_with_view(&query, &store.views()[0]);
        assert_eq!(n, 1);
        let s = rewritten.display_indent();
        assert!(s.contains("__view_0"));
        assert!(!s.contains("Filter"), "subtree replaced:\n{s}");
    }

    #[test]
    fn rewritten_query_produces_identical_results() {
        let (cat, store, query, _sub) = setup();
        let (rewritten, _) = rewrite_with_view(&query, &store.views()[0]);
        let exec = Executor::new(&cat, Pricing::paper_defaults());
        let orig = exec.run(&query).expect("original runs");
        let rew = exec.run(&rewritten).expect("rewritten runs");
        assert_eq!(orig.batch, rew.batch);
    }

    #[test]
    fn rewritten_query_is_cheaper() {
        let (cat, store, query, _sub) = setup();
        let (rewritten, _) = rewrite_with_view(&query, &store.views()[0]);
        let exec = Executor::new(&cat, Pricing::paper_defaults());
        let orig = exec.run(&query).expect("runs");
        let rew = exec.run(&rewritten).expect("runs");
        assert!(
            rew.report.cost_dollars < orig.report.cost_dollars,
            "rewritten {} should cost less than original {}",
            rew.report.cost_dollars,
            orig.report.cost_dollars
        );
    }

    #[test]
    fn non_matching_view_leaves_plan_untouched() {
        let (mut cat, mut store, query, _sub) = setup();
        let other = PlanBuilder::scan("events", "e")
            .filter(Expr::col("e.kind").eq(Expr::int(3)))
            .project(&[("e.uid", "e.uid")])
            .build();
        store
            .materialize(&mut cat, other, Pricing::paper_defaults())
            .expect("materializes");
        let (rewritten, n) = rewrite_with_view(&query, &store.views()[1]);
        assert_eq!(n, 0);
        assert_eq!(rewritten.display_indent(), query.display_indent());
    }

    #[test]
    fn cross_alias_rewrite_with_rename_preserves_results() {
        // View defined with alias `e`; an equivalent query subtree uses `z`.
        let (mut cat, mut store, _query, _sub) = setup();
        let view_plan = PlanBuilder::scan("events", "e")
            .filter(Expr::col("e.kind").eq(Expr::int(2)))
            .project(&[("e.uid", "e.uid"), ("e.val", "e.val")])
            .build();
        let id = store
            .materialize(&mut cat, view_plan, Pricing::paper_defaults())
            .expect("materializes");
        let view = store.view(id).expect("exists");

        let sub_z = PlanBuilder::scan("events", "z")
            .filter(Expr::col("z.kind").eq(Expr::int(2)))
            .project(&[("z.uid", "z.uid"), ("z.val", "z.val")])
            .build();
        let query_z = PlanBuilder::from_plan(sub_z.clone())
            .count_star(&["z.uid"], "n")
            .build();

        let (rewritten, n) =
            rewrite_subtree_with_view(&cat, &query_z, &sub_z, view).expect("view applies");
        assert_eq!(n, 1);
        let exec = Executor::new(&cat, Pricing::paper_defaults());
        let orig = exec.run(&query_z).expect("original runs");
        let rew = exec.run(&rewritten).expect("rewritten runs");
        assert_eq!(orig.batch, rew.batch);
        assert!(rew.report.cost_dollars < orig.report.cost_dollars);
    }
}
