//! # av-engine — in-memory columnar query engine with cost metering
//!
//! The execution substrate for AutoView. The paper measures query costs on
//! MaxCompute / PostgreSQL; this crate plays that role: it executes logical
//! plans from `av-plan` over in-memory columnar tables while metering CPU and
//! memory usage, and converts usage into dollars with the cloud pricing model
//! of the paper's Definitions 1–3 (α storage $/GB, β CPU $/(core·min),
//! γ memory $/(GB·min)).
//!
//! It also owns materialized views: [`ViewStore`] materializes a subquery,
//! records its overhead `O_v = A_α(v) + A_{β,γ}(s)`, and the rewriter splices
//! view scans into query plans so the *actual* rewritten cost
//! `A_{β,γ}(q|v)` — the ground truth the Wide-Deep model learns — comes from
//! real execution.
//!
//! ```
//! use av_engine::{Catalog, Column, Executor, Pricing, Table};
//! use av_plan::{Expr, PlanBuilder};
//!
//! let mut catalog = Catalog::new();
//! catalog.add_table(Table::new(
//!     "t",
//!     vec![("id", Column::Int((0..100).collect())),
//!          ("v", Column::Int((0..100).map(|i| i % 7).collect()))],
//! ).unwrap());
//!
//! let plan = PlanBuilder::scan("t", "a")
//!     .filter(Expr::col("a.v").eq(Expr::int(3)))
//!     .project(&[("a.id", "id")])
//!     .build();
//! let exec = Executor::new(&catalog, Pricing::paper_defaults());
//! let result = exec.run(&plan).unwrap();
//! assert_eq!(result.batch.num_rows(), 14);
//! assert!(result.report.cost_dollars > 0.0);
//! ```

#![forbid(unsafe_code)]

pub mod batch;
pub mod cache;
pub mod catalog;
pub mod error;
pub mod exec;
pub mod keys;
pub mod meter;
pub mod par;
pub mod preflight;
pub mod rewrite;
mod sel;
pub mod view;

pub use batch::{Column, RecordBatch};
pub use cache::{CacheStats, ExecCache, ShardedExecCache};
pub use catalog::{Catalog, ColumnType, Table, TableStats};
pub use error::EngineError;
pub use exec::{ExecResult, Executor};
pub use meter::{CostMeter, ExecutionReport, Pricing, ResourceUsage};
pub use preflight::{install_preflight, preflight_installed, PreflightFn};
pub use rewrite::{
    rewrite_subtree_with_view, rewrite_top_down, rewrite_with_view, view_replacement,
};
pub use view::{MaterializedView, ViewId, ViewStore};
