//! # av-plan — logical plans for AutoView
//!
//! Logical query plans, a small expression language, a SQL-ish parser and the
//! feature serialization used by the cost estimator (Fig. 4 of the paper).
//!
//! A SQL query is parsed into a tree of [`PlanNode`]s. Every subtree rooted at
//! an `Aggregate`, `Join` or `Project` is a *subquery* in the paper's sense and
//! is a candidate for materialization. The crate is engine-agnostic: execution
//! and costing live in `av-engine`, equivalence reasoning in `av-equiv`.
//!
//! ```
//! use av_plan::parser::parse_query;
//!
//! let plan = parse_query(
//!     "SELECT t1.user_id, COUNT(*) AS cnt \
//!      FROM user_memo t1 JOIN user_action t2 ON t1.user_id = t2.user_id \
//!      WHERE t1.dt = '1010' AND t2.type = 1 \
//!      GROUP BY t1.user_id",
//! ).unwrap();
//! assert!(plan.display_indent().contains("Join"));
//! ```

#![forbid(unsafe_code)]

pub mod builder;
pub mod check;
pub mod display;
pub mod error;
pub mod expr;
pub mod features;
pub mod node;
pub mod parser;
pub mod subquery;
pub mod value;

pub use builder::PlanBuilder;
pub use check::check_structure;
pub use error::PlanError;
pub use expr::{AggExpr, AggFunc, CmpOp, Expr};
pub use features::{plan_feature_rows, FeatureRow, Token};
pub use node::{JoinType, Plan, PlanNode, PlanRef, ProjExpr};
pub use parser::{parse_query, ParseError};
pub use subquery::{
    common_subtree_exists, enumerate_subqueries, find_subtree, is_subquery_root, Fingerprint,
};
pub use value::Value;
