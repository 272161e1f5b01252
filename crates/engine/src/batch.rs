//! Columnar record batches.

use av_plan::Value;
use serde::{Deserialize, Serialize};
use std::sync::Arc;

/// A typed column of values. Columns never store NULLs; NULL only arises
/// transiently during expression evaluation (e.g. division by zero).
///
/// String payloads sit behind an `Arc`: scans and the plan-result cache
/// clone whole columns constantly, and sharing makes that O(1) instead of a
/// per-string heap copy. Mutation goes through [`Arc::make_mut`], so an
/// unshared column (the only kind builders ever hold) mutates in place.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Column {
    Int(Vec<i64>),
    Float(Vec<f64>),
    Str(Arc<Vec<String>>),
}

impl Column {
    /// String column from owned values (wraps them in the shared `Arc`).
    pub fn str(values: Vec<String>) -> Column {
        Column::Str(Arc::new(values))
    }

    /// Number of values.
    pub fn len(&self) -> usize {
        match self {
            Column::Int(v) => v.len(),
            Column::Float(v) => v.len(),
            Column::Str(v) => v.len(),
        }
    }

    /// True iff the column has no values.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Value at row `i`.
    pub fn get(&self, i: usize) -> Value {
        match self {
            Column::Int(v) => Value::Int(v[i]),
            Column::Float(v) => Value::Float(v[i]),
            Column::Str(v) => Value::Str(v[i].clone()),
        }
    }

    /// An empty column of the same type.
    pub fn empty_like(&self) -> Column {
        match self {
            Column::Int(_) => Column::Int(Vec::new()),
            Column::Float(_) => Column::Float(Vec::new()),
            Column::Str(_) => Column::Str(Arc::new(Vec::new())),
        }
    }

    /// Append the value at `row` of `src` (a column of the same type).
    ///
    /// # Panics
    /// Panics if the column types differ.
    pub fn push_from(&mut self, src: &Column, row: usize) {
        match (self, src) {
            (Column::Int(d), Column::Int(s)) => d.push(s[row]),
            (Column::Float(d), Column::Float(s)) => d.push(s[row]),
            (Column::Str(d), Column::Str(s)) => Arc::make_mut(d).push(s[row].clone()),
            _ => panic!("push_from across mismatched column types"),
        }
    }

    /// Append a scalar [`Value`], coercing Int/Float as needed.
    ///
    /// # Panics
    /// Panics on NULL or on string/number mismatch.
    pub fn push_value(&mut self, v: &Value) {
        match (self, v) {
            (Column::Int(d), Value::Int(i)) => d.push(*i),
            (Column::Int(d), Value::Float(f)) => d.push(*f as i64),
            (Column::Float(d), Value::Float(f)) => d.push(*f),
            (Column::Float(d), Value::Int(i)) => d.push(*i as f64),
            (Column::Str(d), Value::Str(s)) => Arc::make_mut(d).push(s.clone()),
            (col, v) => panic!("cannot push {v:?} into {col:?}"),
        }
    }

    /// Approximate in-memory byte size of the column data.
    pub fn byte_size(&self) -> usize {
        match self {
            Column::Int(v) => v.len() * 8,
            Column::Float(v) => v.len() * 8,
            Column::Str(v) => v.iter().map(|s| s.len() + 24).sum(),
        }
    }

    /// Keep only rows where `mask` is true.
    pub fn filter(&self, mask: &[bool]) -> Column {
        match self {
            Column::Int(v) => Column::Int(
                v.iter()
                    .zip(mask)
                    .filter_map(|(x, &m)| m.then_some(*x))
                    .collect(),
            ),
            Column::Float(v) => Column::Float(
                v.iter()
                    .zip(mask)
                    .filter_map(|(x, &m)| m.then_some(*x))
                    .collect(),
            ),
            Column::Str(v) => Column::Str(Arc::new(
                v.iter()
                    .zip(mask)
                    .filter(|&(_, &m)| m)
                    .map(|(x, _)| x.clone())
                    .collect(),
            )),
        }
    }

    /// Approximate in-memory byte size the column *would* have after
    /// gathering `sel` — what [`Column::take_sel`] will allocate — computed
    /// without materializing anything. Lets the cost meter charge a
    /// selection-vector filter exactly what the materializing mask filter
    /// used to charge.
    pub fn byte_size_sel(&self, sel: &[u32]) -> usize {
        match self {
            Column::Int(_) | Column::Float(_) => sel.len() * 8,
            Column::Str(v) => sel.iter().map(|&i| v[i as usize].len() + 24).sum(),
        }
    }

    /// Gather rows by a selection vector of `u32` row indices (ascending by
    /// convention, though nothing here requires it). The narrow index type
    /// is the one filters produce: engine batches stay far below `u32::MAX`
    /// rows, and half-width indices halve the selection vector's footprint.
    pub fn take_sel(&self, sel: &[u32]) -> Column {
        match self {
            Column::Int(v) => Column::Int(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Float(v) => Column::Float(sel.iter().map(|&i| v[i as usize]).collect()),
            Column::Str(v) => Column::Str(Arc::new(
                sel.iter().map(|&i| v[i as usize].clone()).collect(),
            )),
        }
    }

    /// Gather rows by index.
    pub fn take(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(indices.iter().map(|&i| v[i]).collect()),
            Column::Float(v) => Column::Float(indices.iter().map(|&i| v[i]).collect()),
            Column::Str(v) => {
                Column::Str(Arc::new(indices.iter().map(|&i| v[i].clone()).collect()))
            }
        }
    }

    /// Gather rows by index, emitting the type's default value (`0`, `0.0`,
    /// `""`) wherever the index is `usize::MAX`. Used to pad the build side
    /// of left joins for unmatched probe rows.
    pub fn take_with_default(&self, indices: &[usize]) -> Column {
        match self {
            Column::Int(v) => Column::Int(
                indices
                    .iter()
                    .map(|&i| if i == usize::MAX { 0 } else { v[i] })
                    .collect(),
            ),
            Column::Float(v) => Column::Float(
                indices
                    .iter()
                    .map(|&i| if i == usize::MAX { 0.0 } else { v[i] })
                    .collect(),
            ),
            Column::Str(v) => Column::Str(Arc::new(
                indices
                    .iter()
                    .map(|&i| {
                        if i == usize::MAX {
                            String::new()
                        } else {
                            v[i].clone()
                        }
                    })
                    .collect(),
            )),
        }
    }
}

/// A named set of equal-length columns — the unit of data flow between
/// operators and the storage format of tables and materialized views.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RecordBatch {
    /// Column names, parallel to `columns`. Names produced by scans are
    /// qualified (`alias.column`).
    pub names: Vec<String>,
    /// Column data, all of equal length.
    pub columns: Vec<Column>,
}

impl RecordBatch {
    /// Empty batch with no columns.
    pub fn empty() -> RecordBatch {
        RecordBatch {
            names: Vec::new(),
            columns: Vec::new(),
        }
    }

    /// Number of rows (0 for a column-less batch).
    pub fn num_rows(&self) -> usize {
        self.columns.first().map(|c| c.len()).unwrap_or(0)
    }

    /// Number of columns.
    pub fn num_columns(&self) -> usize {
        self.columns.len()
    }

    /// Index of a named column.
    pub fn column_index(&self, name: &str) -> Option<usize> {
        self.names.iter().position(|n| n == name)
    }

    /// Column data by name.
    pub fn column(&self, name: &str) -> Option<&Column> {
        self.column_index(name).map(|i| &self.columns[i])
    }

    /// Total approximate byte size of all columns.
    pub fn byte_size(&self) -> usize {
        self.columns.iter().map(|c| c.byte_size()).sum()
    }

    /// Row `i` rendered as values, for tests and display.
    pub fn row(&self, i: usize) -> Vec<Value> {
        self.columns.iter().map(|c| c.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn batch() -> RecordBatch {
        RecordBatch {
            names: vec!["a.id".into(), "a.name".into()],
            columns: vec![
                Column::Int(vec![1, 2, 3]),
                Column::str(vec!["x".into(), "y".into(), "z".into()]),
            ],
        }
    }

    #[test]
    fn filter_keeps_masked_rows() {
        let c = Column::Int(vec![10, 20, 30, 40]);
        assert_eq!(
            c.filter(&[true, false, true, false]),
            Column::Int(vec![10, 30])
        );
    }

    #[test]
    fn take_gathers_with_repeats() {
        let c = Column::str(vec!["a".into(), "b".into()]);
        assert_eq!(
            c.take(&[1, 1, 0]),
            Column::str(vec!["b".into(), "b".into(), "a".into()])
        );
    }

    #[test]
    fn take_sel_matches_take() {
        let c = Column::str(vec!["a".into(), "bb".into(), "ccc".into()]);
        assert_eq!(c.take_sel(&[2, 0]), c.take(&[2, 0]));
        let f = Column::Float(vec![1.5, 2.5, 3.5]);
        assert_eq!(f.take_sel(&[1]), Column::Float(vec![2.5]));
        assert_eq!(f.take_sel(&[]), Column::Float(vec![]));
    }

    #[test]
    fn byte_size_sel_predicts_take_sel_footprint() {
        let c = Column::str(vec!["a".into(), "bb".into(), "ccc".into()]);
        let sel = [0u32, 2];
        assert_eq!(c.byte_size_sel(&sel), c.take_sel(&sel).byte_size());
        let i = Column::Int(vec![7, 8, 9]);
        assert_eq!(i.byte_size_sel(&sel), i.take_sel(&sel).byte_size());
    }

    #[test]
    fn byte_size_counts_string_payload() {
        let c = Column::str(vec!["abcd".into()]);
        assert_eq!(c.byte_size(), 4 + 24);
        assert_eq!(Column::Int(vec![1, 2]).byte_size(), 16);
    }

    #[test]
    fn batch_lookup_by_name() {
        let b = batch();
        assert_eq!(b.column_index("a.name"), Some(1));
        assert!(b.column("missing").is_none());
        assert_eq!(b.num_rows(), 3);
    }

    #[test]
    fn push_value_coerces_numerics() {
        let mut c = Column::Float(vec![]);
        c.push_value(&Value::Int(3));
        assert_eq!(c, Column::Float(vec![3.0]));
    }

    #[test]
    #[should_panic(expected = "cannot push")]
    fn push_value_rejects_type_mismatch() {
        let mut c = Column::Int(vec![]);
        c.push_value(&Value::Str("no".into()));
    }
}
