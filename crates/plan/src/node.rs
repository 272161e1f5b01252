//! Logical plan nodes.

use crate::expr::{AggExpr, Expr};
use crate::subquery::Fingerprint;
use serde::{Deserialize, Serialize};
use std::fmt;
use std::hash::{Hash, Hasher};
use std::ops::Deref;
use std::sync::{Arc, OnceLock};

/// Shared, immutable reference to a plan subtree.
///
/// Plans are persistent trees: rewrites build new spines and share unchanged
/// subtrees, so enumerating and comparing subqueries is cheap. A plan never
/// changes once [`PlanNode::into_ref`] has built it: [`Plan`] has no
/// `DerefMut` and no public field, so the fingerprint it memoizes is the
/// fingerprint of the tree it holds for as long as any `Arc` to it lives.
pub type PlanRef = Arc<Plan>;

/// The payload of a [`PlanRef`]: one [`PlanNode`] and its structural
/// [`Fingerprint`], computed by the first [`Plan::fingerprint`] call and
/// read back by every later one. It derefs to the node, and `Hash`, `Eq`,
/// `Debug` and serde forward to the node alone, so hashing, comparing,
/// printing or serializing a plan gives exactly what its bare node gives.
pub struct Plan {
    node: PlanNode,
    fp: OnceLock<Fingerprint>,
}

impl Plan {
    /// The node this plan holds.
    pub fn node(&self) -> &PlanNode {
        &self.node
    }

    /// [`Fingerprint::of`] this plan. The first call walks the tree; every
    /// later call on the same `Arc` is one atomic load.
    pub fn fingerprint(&self) -> Fingerprint {
        *self.fp.get_or_init(|| Fingerprint::of(&self.node))
    }

    /// Whether two handles hold the same plan: the same `Arc`, else
    /// structurally equal trees. A cache keyed by a 64-bit fingerprint
    /// checks a hit with this, so a colliding plan is never served another
    /// plan's entry.
    pub fn same(a: &PlanRef, b: &PlanRef) -> bool {
        Arc::ptr_eq(a, b) || a.node == b.node
    }
}

impl Deref for Plan {
    type Target = PlanNode;

    fn deref(&self) -> &PlanNode {
        &self.node
    }
}

impl PartialEq for Plan {
    fn eq(&self, other: &Plan) -> bool {
        self.node == other.node
    }
}

impl Eq for Plan {}

impl Hash for Plan {
    fn hash<H: Hasher>(&self, state: &mut H) {
        self.node.hash(state);
    }
}

impl fmt::Debug for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        fmt::Debug::fmt(&self.node, f)
    }
}

impl Serialize for Plan {
    fn to_json(&self) -> serde::Json {
        self.node.to_json()
    }
}

impl Deserialize for Plan {
    fn from_json(v: &serde::Json) -> Result<Plan, serde::DeError> {
        PlanNode::from_json(v).map(PlanNode::into_plan)
    }
}

/// Join types. The workloads in the paper use inner joins; left joins are
/// supported so the equivalence detector has a non-commutative case to reason
/// about.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum JoinType {
    Inner,
    Left,
}

impl JoinType {
    /// Keyword used in display and feature rows.
    pub fn keyword(self) -> &'static str {
        match self {
            JoinType::Inner => "inner",
            JoinType::Left => "left",
        }
    }
}

/// One projected column: an expression plus its output name.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct ProjExpr {
    pub expr: Expr,
    pub alias: String,
}

impl ProjExpr {
    /// Projection that renames (or simply forwards) a column.
    pub fn column(name: impl Into<String>, alias: impl Into<String>) -> ProjExpr {
        ProjExpr {
            expr: Expr::Column(name.into()),
            alias: alias.into(),
        }
    }
}

/// A logical plan operator. Subtrees are the paper's *subqueries*.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum PlanNode {
    /// Scan of a base table (or of a materialized view, after rewriting).
    /// Output columns are qualified as `alias.column`.
    TableScan { table: String, alias: String },
    /// Row filter.
    Filter { input: PlanRef, predicate: Expr },
    /// Column projection / renaming / computed columns.
    Project {
        input: PlanRef,
        exprs: Vec<ProjExpr>,
    },
    /// Equi-join on column pairs.
    Join {
        left: PlanRef,
        right: PlanRef,
        /// Pairs of (left column, right column) joined with equality.
        on: Vec<(String, String)>,
        join_type: JoinType,
    },
    /// Hash aggregation.
    Aggregate {
        input: PlanRef,
        group_by: Vec<String>,
        aggs: Vec<AggExpr>,
    },
}

impl PlanNode {
    /// Wrap in a shared reference: the one way a [`PlanRef`] is built.
    pub fn into_ref(self) -> PlanRef {
        Arc::new(self.into_plan())
    }

    fn into_plan(self) -> Plan {
        Plan {
            node: self,
            fp: OnceLock::new(),
        }
    }

    /// Operator keyword, as shown in plan displays (`Scan`, `Filter`, ...).
    pub fn op_keyword(&self) -> &'static str {
        match self {
            PlanNode::TableScan { .. } => "Scan",
            PlanNode::Filter { .. } => "Filter",
            PlanNode::Project { .. } => "Project",
            PlanNode::Join { .. } => "Join",
            PlanNode::Aggregate { .. } => "Aggregate",
        }
    }

    /// Child subtrees, left to right.
    pub fn children(&self) -> Vec<&PlanRef> {
        match self {
            PlanNode::TableScan { .. } => vec![],
            PlanNode::Filter { input, .. }
            | PlanNode::Project { input, .. }
            | PlanNode::Aggregate { input, .. } => vec![input],
            PlanNode::Join { left, right, .. } => vec![left, right],
        }
    }

    /// Names of the columns this operator produces, in output order.
    ///
    /// Scans cannot know their table's columns without a catalog, so callers
    /// provide `table_columns`; every other operator derives its schema
    /// structurally.
    pub fn output_columns(&self, table_columns: &dyn Fn(&str) -> Vec<String>) -> Vec<String> {
        match self {
            PlanNode::TableScan { table, alias } => {
                // An empty alias marks a materialized-view scan: the stored
                // column names are already qualified by the defining plan and
                // must pass through unchanged.
                let cols = table_columns(table);
                if alias.is_empty() {
                    cols
                } else {
                    cols.into_iter().map(|c| format!("{alias}.{c}")).collect()
                }
            }
            PlanNode::Filter { input, .. } => input.output_columns(table_columns),
            PlanNode::Project { exprs, .. } => exprs.iter().map(|p| p.alias.clone()).collect(),
            PlanNode::Join { left, right, .. } => {
                let mut cols = left.output_columns(table_columns);
                cols.extend(right.output_columns(table_columns));
                cols
            }
            PlanNode::Aggregate { group_by, aggs, .. } => {
                let mut cols = group_by.clone();
                cols.extend(aggs.iter().map(|a| a.output.clone()));
                cols
            }
        }
    }

    /// Base tables referenced anywhere in the subtree, in scan order,
    /// duplicates preserved (a self-join scans the table twice).
    pub fn base_tables(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit_preorder(&mut |n| {
            if let PlanNode::TableScan { table, .. } = n {
                out.push(table.clone());
            }
        });
        out
    }

    /// Number of operators in the subtree.
    pub fn node_count(&self) -> usize {
        1 + self
            .children()
            .iter()
            .map(|c| c.node_count())
            .sum::<usize>()
    }

    /// Depth-first pre-order visit.
    pub fn visit_preorder(&self, f: &mut dyn FnMut(&PlanNode)) {
        f(self);
        for c in self.children() {
            c.visit_preorder(f);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::{AggFunc, CmpOp};

    fn sample() -> PlanRef {
        // Mirrors the paper's Fig. 2 query.
        let memo = PlanNode::TableScan {
            table: "user_memo".into(),
            alias: "t1".into(),
        }
        .into_ref();
        let left = PlanNode::Project {
            input: PlanNode::Filter {
                input: memo,
                predicate: Expr::col("t1.dt")
                    .eq(Expr::str("1010"))
                    .and(Expr::col("t1.memo_type").eq(Expr::str("pen"))),
            }
            .into_ref(),
            exprs: vec![
                ProjExpr::column("t1.user_id", "t1.user_id"),
                ProjExpr::column("t1.memo", "t1.memo"),
            ],
        }
        .into_ref();
        let action = PlanNode::TableScan {
            table: "user_action".into(),
            alias: "t2".into(),
        }
        .into_ref();
        let right = PlanNode::Project {
            input: PlanNode::Filter {
                input: action,
                predicate: Expr::col("t2.type")
                    .eq(Expr::int(1))
                    .and(Expr::col("t2.dt").eq(Expr::str("1010"))),
            }
            .into_ref(),
            exprs: vec![
                ProjExpr::column("t2.user_id", "t2.user_id"),
                ProjExpr::column("t2.action", "t2.action"),
            ],
        }
        .into_ref();
        let join = PlanNode::Join {
            left,
            right,
            on: vec![("t1.user_id".into(), "t2.user_id".into())],
            join_type: JoinType::Inner,
        }
        .into_ref();
        PlanNode::Aggregate {
            input: join,
            group_by: vec!["t1.user_id".into()],
            aggs: vec![AggExpr {
                func: AggFunc::Count,
                input: None,
                output: "cnt".into(),
            }],
        }
        .into_ref()
    }

    #[test]
    fn node_count_matches_structure() {
        // Aggregate + Join + 2×(Project + Filter + Scan) = 8
        assert_eq!(sample().node_count(), 8);
    }

    #[test]
    fn base_tables_in_scan_order() {
        assert_eq!(sample().base_tables(), vec!["user_memo", "user_action"]);
    }

    #[test]
    fn output_columns_of_aggregate() {
        let cols = sample().output_columns(&|_| vec![]);
        assert_eq!(cols, vec!["t1.user_id", "cnt"]);
    }

    #[test]
    fn output_columns_of_scan_qualify_alias() {
        let scan = PlanNode::TableScan {
            table: "user_memo".into(),
            alias: "m".into(),
        };
        let cols = scan.output_columns(&|t| {
            assert_eq!(t, "user_memo");
            vec!["user_id".into(), "memo".into()]
        });
        assert_eq!(cols, vec!["m.user_id", "m.memo"]);
    }

    #[test]
    fn join_concatenates_child_schemas() {
        let plan = sample();
        if let PlanNode::Aggregate { input, .. } = plan.node() {
            let cols = input.output_columns(&|_| vec![]);
            assert_eq!(
                cols,
                vec!["t1.user_id", "t1.memo", "t2.user_id", "t2.action"]
            );
        } else {
            panic!("expected aggregate root");
        }
    }

    #[test]
    fn filter_predicate_on_comparison_keyword() {
        let e = Expr::col("a").cmp(CmpOp::Ge, Expr::int(10));
        assert_eq!(e.to_string(), "GE(a, 10)");
    }
}
