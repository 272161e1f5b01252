//! Materialized views: creation, overhead accounting, storage.

use crate::catalog::{Catalog, Table};
use crate::error::EngineError;
use crate::exec::Executor;
use crate::meter::Pricing;
use av_plan::{Fingerprint, PlanRef};
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// Identifier of a materialized view within a [`ViewStore`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct ViewId(pub usize);

/// A materialized view: the defining subquery, its stored table name, and
/// its overhead components (Definitions 2–3).
#[derive(Debug, Clone)]
pub struct MaterializedView {
    pub id: ViewId,
    /// Defining subquery plan `s`.
    pub plan: PlanRef,
    /// Structural fingerprint of `plan`.
    pub fingerprint: Fingerprint,
    /// Name of the stored result table in the catalog.
    pub table_name: String,
    /// `A_α(v)` — storage fee of the materialized bytes.
    pub space_overhead: f64,
    /// `A_{β,γ}(s)` — one-off computation cost of the defining subquery.
    pub compute_overhead: f64,
    /// Bytes of the materialized result.
    pub byte_size: usize,
    /// Rows of the materialized result.
    pub row_count: usize,
}

impl MaterializedView {
    /// Materialize `plan` into `catalog` as table `__view_<id>`: executes the
    /// subquery, stores the result and records overheads.
    pub fn materialize(
        catalog: &mut Catalog,
        plan: PlanRef,
        pricing: Pricing,
        id: ViewId,
    ) -> Result<MaterializedView, EngineError> {
        let result = Executor::new(catalog, pricing).run(&plan)?;
        let table_name = format!("__view_{}", id.0);
        // The executor's `Arc` is unique here, so this moves the batch.
        let table = Table::from_batch(table_name.clone(), Arc::unwrap_or_clone(result.batch));
        let byte_size = table.byte_size();
        let row_count = table.row_count();
        catalog.add_table(table)?;
        Ok(MaterializedView {
            id,
            fingerprint: Fingerprint::of(&plan),
            plan,
            table_name,
            space_overhead: pricing.storage_dollars(byte_size),
            compute_overhead: result.report.cost_dollars,
            byte_size,
            row_count,
        })
    }

    /// Total overhead `O_v = A_α(v) + A_{β,γ}(s)` (Definition 3).
    pub fn total_overhead(&self) -> f64 {
        self.space_overhead + self.compute_overhead
    }
}

/// Creates and tracks materialized views. Stored results are registered in
/// the catalog as tables named `__view_<n>` with an empty scan alias
/// convention (see `av-plan`), so rewritten plans can scan them directly.
#[derive(Debug, Clone, Default)]
pub struct ViewStore {
    views: Vec<MaterializedView>,
}

impl ViewStore {
    /// Empty store.
    pub fn new() -> ViewStore {
        ViewStore::default()
    }

    /// Materialize `plan` into `catalog` and keep its record, numbered in
    /// creation order.
    pub fn materialize(
        &mut self,
        catalog: &mut Catalog,
        plan: PlanRef,
        pricing: Pricing,
    ) -> Result<ViewId, EngineError> {
        let view = MaterializedView::materialize(catalog, plan, pricing, ViewId(self.views.len()))?;
        let id = view.id;
        self.views.push(view);
        Ok(id)
    }

    /// Look up a view.
    pub fn view(&self, id: ViewId) -> Option<&MaterializedView> {
        self.views.get(id.0)
    }

    /// All views in creation order.
    pub fn views(&self) -> &[MaterializedView] {
        &self.views
    }

    /// Number of materialized views.
    pub fn len(&self) -> usize {
        self.views.len()
    }

    /// True iff no views are materialized.
    pub fn is_empty(&self) -> bool {
        self.views.is_empty()
    }

    /// Sum of all view overheads `Σ O_v`.
    pub fn total_overhead(&self) -> f64 {
        self.views.iter().map(|v| v.total_overhead()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::batch::Column;
    use av_plan::{Expr, PlanBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            Table::new(
                "t",
                vec![
                    ("k", Column::Int((0..50).map(|i| i % 5).collect())),
                    ("v", Column::Int((0..50).collect())),
                ],
            )
            .expect("valid"),
        )
        .expect("ok");
        c
    }

    #[test]
    fn materialize_stores_result_table() {
        let mut cat = catalog();
        let mut store = ViewStore::new();
        let plan = PlanBuilder::scan("t", "a")
            .filter(Expr::col("a.k").eq(Expr::int(2)))
            .project(&[("a.v", "a.v")])
            .build();
        let id = store
            .materialize(&mut cat, plan, Pricing::paper_defaults())
            .expect("materializes");
        let view = store.view(id).expect("exists");
        assert_eq!(view.row_count, 10);
        let stored = cat.table(&view.table_name).expect("table registered");
        assert_eq!(stored.column_names, vec!["a.v"]);
        assert_eq!(stored.row_count(), 10);
    }

    #[test]
    fn overhead_combines_space_and_compute() {
        let mut cat = catalog();
        let mut store = ViewStore::new();
        let plan = PlanBuilder::scan("t", "a")
            .project(&[("a.v", "a.v")])
            .build();
        let id = store
            .materialize(&mut cat, plan, Pricing::paper_defaults())
            .expect("materializes");
        let v = store.view(id).expect("exists");
        assert!(v.space_overhead > 0.0);
        assert!(v.compute_overhead > 0.0);
        assert!((v.total_overhead() - (v.space_overhead + v.compute_overhead)).abs() < 1e-15);
        assert!((store.total_overhead() - v.total_overhead()).abs() < 1e-15);
    }

    #[test]
    fn view_ids_are_sequential() {
        let mut cat = catalog();
        let mut store = ViewStore::new();
        for i in 0..3 {
            let plan = PlanBuilder::scan("t", "a")
                .filter(Expr::col("a.k").eq(Expr::int(i)))
                .project(&[("a.v", "a.v")])
                .build();
            let id = store
                .materialize(&mut cat, plan, Pricing::paper_defaults())
                .expect("materializes");
            assert_eq!(id, ViewId(i as usize));
        }
        assert_eq!(store.len(), 3);
    }
}
