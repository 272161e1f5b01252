//! Tables, schemas, statistics and the catalog.

use crate::batch::{Column, RecordBatch};
use crate::error::EngineError;
use serde::{Deserialize, Serialize};
use std::collections::{HashMap, HashSet};
use std::sync::Arc;

/// Column data types.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ColumnType {
    Int,
    Float,
    Str,
}

impl ColumnType {
    /// Type keyword used in schema features (`Int`, `Float`, `String`).
    pub fn keyword(self) -> &'static str {
        match self {
            ColumnType::Int => "Int",
            ColumnType::Float => "Float",
            ColumnType::Str => "String",
        }
    }
}

/// Per-table statistics: the *numerical features* of Section IV-A.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct TableStats {
    pub row_count: usize,
    pub column_count: usize,
    pub total_bytes: usize,
    /// Average distinct-value ratio across columns, a crude selectivity hint.
    pub avg_distinct_ratio: f64,
}

/// A stored base table or materialized-view result.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct Table {
    pub name: String,
    /// Unqualified column names, parallel to `data.columns`.
    pub column_names: Vec<String>,
    pub column_types: Vec<ColumnType>,
    pub data: RecordBatch,
    pub stats: TableStats,
}

impl Table {
    /// Build a table from named columns, computing statistics.
    pub fn new(
        name: impl Into<String>,
        columns: Vec<(&str, Column)>,
    ) -> Result<Table, EngineError> {
        let name = name.into();
        let lens: HashSet<usize> = columns.iter().map(|(_, c)| c.len()).collect();
        if lens.len() > 1 {
            return Err(EngineError::RaggedColumns { table: name });
        }
        let column_names: Vec<String> = columns.iter().map(|(n, _)| n.to_string()).collect();
        let column_types: Vec<ColumnType> = columns
            .iter()
            .map(|(_, c)| match c {
                Column::Int(_) => ColumnType::Int,
                Column::Float(_) => ColumnType::Float,
                Column::Str(_) => ColumnType::Str,
            })
            .collect();
        let cols: Vec<Column> = columns.into_iter().map(|(_, c)| c).collect();
        let data = RecordBatch {
            names: column_names.clone(),
            columns: cols,
        };
        let stats = compute_stats(&data);
        Ok(Table {
            name,
            column_names,
            column_types,
            data,
            stats,
        })
    }

    /// Build a table directly from a batch produced by the executor (used
    /// when materializing views). Column names are kept as-is (they carry
    /// the defining plan's qualification).
    pub fn from_batch(name: impl Into<String>, batch: RecordBatch) -> Table {
        let column_names = batch.names.clone();
        let column_types = batch
            .columns
            .iter()
            .map(|c| match c {
                Column::Int(_) => ColumnType::Int,
                Column::Float(_) => ColumnType::Float,
                Column::Str(_) => ColumnType::Str,
            })
            .collect();
        let stats = compute_stats(&batch);
        Table {
            name: name.into(),
            column_names,
            column_types,
            data: batch,
            stats,
        }
    }

    /// Number of rows.
    pub fn row_count(&self) -> usize {
        self.data.num_rows()
    }

    /// Approximate byte size of the stored data: `stats.total_bytes`,
    /// measured once at construction. Tables are immutable once built, so
    /// every scan charges this number without re-walking the strings.
    pub fn byte_size(&self) -> usize {
        self.stats.total_bytes
    }
}

fn compute_stats(data: &RecordBatch) -> TableStats {
    let rows = data.num_rows();
    let mut ratio_sum = 0.0;
    for c in &data.columns {
        let distinct = match c {
            Column::Int(v) => v.iter().collect::<HashSet<_>>().len(),
            Column::Float(v) => v.iter().map(|f| f.to_bits()).collect::<HashSet<_>>().len(),
            Column::Str(v) => v.iter().collect::<HashSet<_>>().len(),
        };
        ratio_sum += if rows == 0 {
            0.0
        } else {
            distinct as f64 / rows as f64
        };
    }
    TableStats {
        row_count: rows,
        column_count: data.num_columns(),
        total_bytes: data.byte_size(),
        avg_distinct_ratio: if data.num_columns() == 0 {
            0.0
        } else {
            ratio_sum / data.num_columns() as f64
        },
    }
}

/// The catalog: all base tables and materialized-view tables by name.
///
/// Tables are stored behind `Arc`, so cloning a catalog copies only the
/// name → table map, never the column data. That makes catalog snapshots
/// copy-on-write: `av-serve` publishes an `Arc<Catalog>` per deployment
/// epoch, and successive deployments share every unchanged table. Tables
/// are immutable once registered (mutation is add/drop only), so sharing
/// is always sound.
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct Catalog {
    tables: HashMap<String, Arc<Table>>,
    /// Version counter bumped on every successful mutation (table added or
    /// dropped, including view materialization). Cached execution results
    /// keyed by `(plan fingerprint, epoch)` are invalidated by the bump.
    #[serde(default)]
    epoch: u64,
}

impl Catalog {
    /// Empty catalog.
    pub fn new() -> Catalog {
        Catalog::default()
    }

    /// Register a table; the name must be fresh.
    pub fn add_table(&mut self, table: Table) -> Result<(), EngineError> {
        if self.tables.contains_key(&table.name) {
            return Err(EngineError::DuplicateTable(table.name.clone()));
        }
        self.tables.insert(table.name.clone(), Arc::new(table));
        self.epoch += 1;
        Ok(())
    }

    /// Remove a table (used when dropping materialized views). The returned
    /// `Arc` may still be shared with catalog snapshots cloned earlier.
    pub fn drop_table(&mut self, name: &str) -> Option<Arc<Table>> {
        let removed = self.tables.remove(name);
        if removed.is_some() {
            self.epoch += 1;
        }
        removed
    }

    /// Current version of the catalog contents. Two catalogs with the same
    /// epoch that started from the same state hold the same tables, so the
    /// epoch is a sound cache-invalidation key for execution results.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Look up a table.
    pub fn table(&self, name: &str) -> Option<&Table> {
        self.tables.get(name).map(|t| t.as_ref())
    }

    /// Names of all registered tables, in sorted (deterministic) order.
    #[allow(
        clippy::disallowed_methods,
        reason = "the names are sorted before they leave"
    )]
    pub fn table_names(&self) -> impl Iterator<Item = &str> {
        let mut names: Vec<&str> = self.tables.keys().map(|s| s.as_str()).collect();
        names.sort_unstable();
        names.into_iter()
    }

    /// Number of registered tables.
    pub fn len(&self) -> usize {
        self.tables.len()
    }

    /// True iff no tables are registered.
    pub fn is_empty(&self) -> bool {
        self.tables.is_empty()
    }

    /// Unqualified column names of a table, for plan schema derivation.
    pub fn table_columns(&self, name: &str) -> Vec<String> {
        self.tables
            .get(name)
            .map(|t| t.column_names.clone())
            .unwrap_or_default()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stats_reflect_data() {
        let t = Table::new(
            "t",
            vec![
                ("id", Column::Int(vec![1, 2, 3, 4])),
                ("grp", Column::Int(vec![0, 0, 1, 1])),
            ],
        )
        .expect("valid table");
        assert_eq!(t.stats.row_count, 4);
        assert_eq!(t.stats.column_count, 2);
        assert_eq!(t.stats.total_bytes, 64);
        // distinct ratios: 4/4 and 2/4 → avg 0.75
        assert!((t.stats.avg_distinct_ratio - 0.75).abs() < 1e-12);
    }

    #[test]
    fn ragged_columns_rejected() {
        let err = Table::new(
            "bad",
            vec![("a", Column::Int(vec![1])), ("b", Column::Int(vec![1, 2]))],
        )
        .expect_err("ragged");
        assert_eq!(
            err,
            EngineError::RaggedColumns {
                table: "bad".into()
            }
        );
    }

    #[test]
    fn duplicate_table_rejected() {
        let mut c = Catalog::new();
        let t = Table::new("t", vec![("a", Column::Int(vec![]))]).expect("ok");
        c.add_table(t.clone()).expect("first add ok");
        assert_eq!(
            c.add_table(t).expect_err("duplicate"),
            EngineError::DuplicateTable("t".into())
        );
    }

    #[test]
    fn empty_table_has_zero_stats() {
        let t = Table::new("e", vec![("a", Column::Int(vec![]))]).expect("ok");
        assert_eq!(t.stats.row_count, 0);
        assert_eq!(t.stats.avg_distinct_ratio, 0.0);
    }

    #[test]
    fn catalog_column_lookup() {
        let mut c = Catalog::new();
        c.add_table(
            Table::new(
                "t",
                vec![("x", Column::Int(vec![])), ("y", Column::str(vec![]))],
            )
            .expect("ok"),
        )
        .expect("ok");
        assert_eq!(c.table_columns("t"), vec!["x", "y"]);
        assert!(c.table_columns("missing").is_empty());
    }
}
