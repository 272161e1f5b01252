//! Feature extraction (paper Section IV-A).
//!
//! Features come from two sources — query/view plans and the metadata of
//! their input tables — and split into *numerical* features (table
//! statistics, plan shape counters) and *non-numerical* features (the plan
//! token sequences of Fig. 4 and the schema keyword set).

use av_engine::Catalog;
use av_plan::{plan_feature_rows, PlanNode, PlanRef, Token};
use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

/// Metadata of one input table (from the metadata database).
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TableMeta {
    pub name: String,
    pub rows: f64,
    pub columns: f64,
    pub bytes: f64,
    pub avg_distinct_ratio: f64,
    pub column_names: Vec<String>,
    pub column_types: Vec<String>,
}

/// One estimation input: the query, the candidate view's defining subquery,
/// and the metadata of every table either of them touches.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct FeatureInput {
    pub query: PlanRef,
    pub view: PlanRef,
    pub tables: Vec<TableMeta>,
}

/// One labelled training pair, as collected in the metadata database: the
/// estimation input plus the measured costs the baselines need.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct PairSample {
    pub input: FeatureInput,
    /// Ground truth `A_{β,γ}(q|v)` — the Wide-Deep target.
    pub cost_qv: f64,
    /// Measured `A_{β,γ}(q)` (raw query).
    pub cost_q: f64,
    /// Measured `A_{β,γ}(s)` (the view's defining subquery).
    pub cost_s: f64,
    /// Measured cost of scanning the materialized view.
    pub cost_vscan: f64,
}

/// Table metadata for every base table a (query, view) pair touches (the
/// paper's "associated tables" features), pulled live from the catalog.
pub fn tables_meta(catalog: &Catalog, query: &PlanRef, view: &PlanRef) -> Vec<TableMeta> {
    let mut names: BTreeSet<String> = query.base_tables().into_iter().collect();
    names.extend(view.base_tables());
    names
        .into_iter()
        .filter_map(|n| {
            let t = catalog.table(&n)?;
            Some(TableMeta {
                name: t.name.clone(),
                rows: t.stats.row_count as f64,
                columns: t.stats.column_count as f64,
                bytes: t.stats.total_bytes as f64,
                avg_distinct_ratio: t.stats.avg_distinct_ratio,
                column_names: t.column_names.clone(),
                column_types: t
                    .column_types
                    .iter()
                    .map(|c| c.keyword().to_string())
                    .collect(),
            })
        })
        .collect()
}

/// Number of numerical features (see [`numerical_features`]).
pub const NUM_FEATURES: usize = 18;

/// Shape counters of a plan: scans, filters, projects, joins, aggregates.
pub fn plan_shape(plan: &PlanNode) -> [f64; 5] {
    let mut c = [0.0; 5];
    plan.visit_preorder(&mut |n| {
        let i = match n {
            PlanNode::TableScan { .. } => 0,
            PlanNode::Filter { .. } => 1,
            PlanNode::Project { .. } => 2,
            PlanNode::Join { .. } => 3,
            PlanNode::Aggregate { .. } => 4,
        };
        c[i] += 1.0;
    });
    c
}

/// The fixed-length numerical feature vector of an input: plan shape
/// counters for query and view, plus aggregate table statistics. Raw
/// (unnormalized); the wide model z-normalizes with training-set statistics.
pub fn numerical_features(input: &FeatureInput) -> [f64; NUM_FEATURES] {
    let qs = plan_shape(&input.query);
    let vs = plan_shape(&input.view);
    let total_rows: f64 = input.tables.iter().map(|t| t.rows).sum();
    let total_bytes: f64 = input.tables.iter().map(|t| t.bytes).sum();
    let total_cols: f64 = input.tables.iter().map(|t| t.columns).sum();
    let n_tables = input.tables.len() as f64;
    let avg_distinct = if input.tables.is_empty() {
        0.0
    } else {
        input
            .tables
            .iter()
            .map(|t| t.avg_distinct_ratio)
            .sum::<f64>()
            / n_tables
    };
    let max_rows = input.tables.iter().map(|t| t.rows).fold(0.0, f64::max);
    // Log-scale the magnitudes: costs grow multiplicatively with data size,
    // and the wide model is linear.
    let log1p = |x: f64| (1.0 + x).ln();
    [
        qs[0],
        qs[1],
        qs[2],
        qs[3],
        qs[4],
        vs[0],
        vs[1],
        vs[2],
        vs[3],
        vs[4],
        input.query.node_count() as f64,
        input.view.node_count() as f64,
        n_tables,
        total_cols,
        log1p(total_rows),
        log1p(total_bytes),
        log1p(max_rows),
        avg_distinct,
    ]
}

/// The schema keyword set of an input (paper: table names, column names,
/// column types), deduplicated, order-stable.
pub fn schema_keywords(input: &FeatureInput) -> Vec<String> {
    let mut out: Vec<String> = Vec::new();
    let mut push = |s: String| {
        if !out.contains(&s) {
            out.push(s);
        }
    };
    for t in &input.tables {
        push(t.name.clone());
        for c in &t.column_names {
            push(c.clone());
        }
        for ty in &t.column_types {
            push(ty.clone());
        }
    }
    out
}

/// The two plan token sequences (query first, then view), each a pre-order
/// list of per-operator token rows.
pub fn plan_tokens(input: &FeatureInput) -> (Vec<Vec<Token>>, Vec<Vec<Token>>) {
    (
        plan_feature_rows(&input.query),
        plan_feature_rows(&input.view),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_plan::{Expr, PlanBuilder};

    fn sample_input() -> FeatureInput {
        let view = PlanBuilder::scan("user_memo", "t1")
            .filter(Expr::col("t1.dt").eq(Expr::str("1010")))
            .project(&[("t1.user_id", "t1.user_id")])
            .build();
        let query = PlanBuilder::from_plan(view.clone())
            .count_star(&["t1.user_id"], "cnt")
            .build();
        FeatureInput {
            query,
            view,
            tables: vec![TableMeta {
                name: "user_memo".into(),
                rows: 1000.0,
                columns: 3.0,
                bytes: 24000.0,
                avg_distinct_ratio: 0.5,
                column_names: vec!["user_id".into(), "memo".into(), "dt".into()],
                column_types: vec!["Int".into(), "String".into(), "String".into()],
            }],
        }
    }

    #[test]
    fn numerical_vector_has_fixed_length_and_plan_counts() {
        let f = numerical_features(&sample_input());
        assert_eq!(f.len(), NUM_FEATURES);
        // query shape: 1 scan, 1 filter, 1 project, 0 join, 1 aggregate
        assert_eq!(&f[0..5], &[1.0, 1.0, 1.0, 0.0, 1.0]);
        // view shape: 1 scan, 1 filter, 1 project
        assert_eq!(&f[5..10], &[1.0, 1.0, 1.0, 0.0, 0.0]);
        assert_eq!(f[10], 4.0); // query node count
        assert_eq!(f[11], 3.0); // view node count
    }

    #[test]
    fn magnitudes_are_log_scaled() {
        let f = numerical_features(&sample_input());
        assert!((f[14] - (1001.0f64).ln()).abs() < 1e-9);
    }

    #[test]
    fn schema_keywords_dedupe_preserving_order() {
        let kws = schema_keywords(&sample_input());
        assert_eq!(
            kws,
            vec!["user_memo", "user_id", "memo", "dt", "Int", "String"]
        );
    }

    #[test]
    fn plan_tokens_cover_both_plans() {
        let (q, v) = plan_tokens(&sample_input());
        assert_eq!(q.len(), 4);
        assert_eq!(v.len(), 3);
        assert_eq!(q[0][0], Token::kw("Aggregate"));
        assert_eq!(v[0][0], Token::kw("Project"));
    }

    #[test]
    fn empty_tables_yield_zero_stats() {
        let mut input = sample_input();
        input.tables.clear();
        let f = numerical_features(&input);
        assert_eq!(f[12], 0.0);
        assert_eq!(f[17], 0.0);
    }
}
