//! Plan interpreter with cost metering.
//!
//! The hot path is organised around these ideas (see DESIGN.md, "executor
//! internals"):
//!
//! - **Bound expressions** — column references are resolved to column
//!   indices once per operator ([`BoundExpr`]), never per row;
//! - **Interned keys** — join and group-by keys are encoded to fixed-width
//!   `u64` codes ([`crate::keys`]) instead of hashing `Vec<Value>` per row;
//!   a join on one `Int` key column whose build-side values span a short
//!   range skips the codes and the hash table and indexes an array by
//!   `key − min` instead;
//! - **Borrowed scans and selection vectors** — a scan borrows its table's
//!   columns from the catalog instead of copying them, and filters compile
//!   their predicates to typed kernels ([`crate::sel`]) that emit, in one
//!   branch-free pass, a vector of surviving row indices instead of a
//!   filtered batch; stacked filters refine the selection, aggregates
//!   consume it in place, and rows are gathered once at the next join,
//!   projection, or the plan root. The old materializing mask path survives
//!   behind [`Executor::with_reference_kernels`] as the bitwise-equal
//!   baseline;
//! - **One probe pass** — a join probes every row straight into its two
//!   output index vectors, with the key-column type and the table layout
//!   (direct-indexed or hashed) resolved once outside the row loop; the
//!   reference kernels always hash, and both layouts emit the same pairs in
//!   the same order;
//! - **Chunked aggregates** — partial aggregation alone runs over fixed
//!   1024-row chunks ([`crate::par`]) merged in chunk order, because its f64
//!   partial sums depend on where the chunks fall; batches *and*
//!   [`ExecutionReport`]s therefore depend on the row count alone.
//!
//! All cost charges are analytic functions of row counts and byte sizes, so
//! the meter never observes timing.

use crate::batch::{Column, RecordBatch};
use crate::catalog::Catalog;
use crate::error::EngineError;
use crate::keys::{self, KeyCol, KeyInterner};
use crate::meter::{CostMeter, ExecutionReport, Pricing};
use crate::par;
use crate::sel::{apply_ord, emit, CompiledPred, SelBatch};
use av_plan::expr::ArithOp;
use av_plan::{AggFunc, CmpOp, Expr, JoinType, PlanNode, Value};
use std::borrow::Cow;
use std::cmp::Ordering;
use std::collections::hash_map::Entry;
use std::sync::Arc;

/// Result of executing a plan: the data plus the priced execution report.
///
/// The batch is shared: [`crate::ExecCache`] stores the allocation a miss
/// produced and hands the same `Arc` to every later hit, so a clone of an
/// `ExecResult` copies no column data.
#[derive(Debug, Clone)]
pub struct ExecResult {
    pub batch: Arc<RecordBatch>,
    pub report: ExecutionReport,
}

/// Executes logical plans against a catalog, metering cost.
pub struct Executor<'a> {
    catalog: &'a Catalog,
    pricing: Pricing,
    reference_kernels: bool,
}

impl<'a> Executor<'a> {
    /// New executor over a catalog with a pricing model. Queries run on
    /// the calling thread.
    pub fn new(catalog: &'a Catalog, pricing: Pricing) -> Executor<'a> {
        Executor {
            catalog,
            pricing,
            reference_kernels: false,
        }
    }

    /// Run filters through the materializing boolean-mask path,
    /// aggregates through the per-row dispatch loop and every join through
    /// the hashed table — the pre-selection-vector implementation, kept as
    /// the correctness and performance baseline. Batches and reports are
    /// bitwise identical in both modes (the property tests and
    /// `exec_bench`'s regression gate both pin this down); only wall-clock
    /// differs.
    pub fn with_reference_kernels(mut self, on: bool) -> Executor<'a> {
        self.reference_kernels = on;
        self
    }

    /// Execute a plan, returning the result batch and its execution report.
    ///
    /// If a preflight verifier is installed (see [`crate::preflight`]),
    /// the plan is verified against the catalog before any operator runs.
    pub fn run(&self, plan: &PlanNode) -> Result<ExecResult, EngineError> {
        crate::preflight::check(self.catalog, plan)?;
        let mut meter = CostMeter::new();
        let sb = self.exec(plan, &mut meter)?;
        // The root is the last materialization point: a plan ending in a
        // filter gathers its surviving rows exactly once, here, and a plan
        // that is a bare scan copies its borrowed table here.
        let bytes = sb.bytes;
        let batch = sb.into_batch();
        let report = meter.report(&self.pricing, bytes, batch.num_rows());
        Ok(ExecResult {
            batch: Arc::new(batch),
            report,
        })
    }

    /// Execute and return only the cost in dollars (`A_{β,γ}`).
    pub fn cost(&self, plan: &PlanNode) -> Result<f64, EngineError> {
        Ok(self.run(plan)?.report.cost_dollars)
    }

    fn exec(&self, plan: &PlanNode, meter: &mut CostMeter) -> Result<SelBatch<'a>, EngineError> {
        match plan {
            PlanNode::TableScan { table, alias } => self.exec_scan(table, alias, meter),
            PlanNode::Filter { input, predicate } => {
                let sb = self.exec(input, meter)?;
                if self.reference_kernels {
                    exec_filter_reference(sb.into_batch(), predicate, meter)
                } else {
                    exec_filter_sel(sb, predicate, meter)
                }
            }
            PlanNode::Project { input, exprs } => {
                let sb = self.exec(input, meter)?;
                if self.reference_kernels {
                    exec_project_reference(sb.into_batch(), exprs, meter)
                } else {
                    exec_project_sel(sb, exprs, meter)
                }
            }
            PlanNode::Join {
                left,
                right,
                on,
                join_type,
            } => {
                // Joins gather selected inputs: probe/build internals index
                // dense columns. Dense inputs (a bare scan) stay borrowed.
                let lb = self.exec(left, meter)?.dense();
                let rb = self.exec(right, meter)?.dense();
                exec_join(lb, rb, on, *join_type, !self.reference_kernels, meter)
            }
            PlanNode::Aggregate {
                input,
                group_by,
                aggs,
            } => {
                let sb = self.exec(input, meter)?;
                if self.reference_kernels {
                    exec_aggregate_reference(sb.into_batch(), group_by, aggs, meter)
                } else {
                    exec_aggregate_sel(sb, group_by, aggs, meter)
                }
            }
        }
    }

    /// Scan a table by borrowing its columns from the catalog: no cell is
    /// copied, and the byte charge is the size recorded in the table's
    /// statistics rather than a fresh walk over its strings.
    fn exec_scan(
        &self,
        table: &str,
        alias: &str,
        meter: &mut CostMeter,
    ) -> Result<SelBatch<'a>, EngineError> {
        let catalog: &'a Catalog = self.catalog;
        let t = catalog
            .table(table)
            .ok_or_else(|| EngineError::UnknownTable(table.to_string()))?;
        // Scanning charges one op per cell plus a per-row dispatch cost.
        meter.charge_rows(t.row_count(), t.data.num_columns() + 1);
        meter.alloc_bytes(t.byte_size());
        let names = if alias.is_empty() {
            // Materialized-view scan: stored names are already qualified.
            t.column_names.clone()
        } else {
            t.column_names
                .iter()
                .map(|c| format!("{alias}.{c}"))
                .collect()
        };
        Ok(SelBatch {
            names,
            columns: Cow::Borrowed(&t.data.columns),
            sel: None,
            bytes: t.byte_size(),
        })
    }
}

/// An [`Expr`] with every column reference resolved to a column index of one
/// specific batch shape. Binding fails loudly on unknown columns (rather
/// than treating typos as always-NULL) and happens once per operator, so
/// per-row evaluation never searches names.
#[derive(Debug, Clone)]
pub(crate) enum BoundExpr {
    Col(usize),
    Lit(Value),
    Cmp {
        op: CmpOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
    And(Vec<BoundExpr>),
    Or(Vec<BoundExpr>),
    Not(Box<BoundExpr>),
    Arith {
        op: ArithOp,
        left: Box<BoundExpr>,
        right: Box<BoundExpr>,
    },
}

impl BoundExpr {
    pub(crate) fn bind(expr: &Expr, names: &[String]) -> Result<BoundExpr, EngineError> {
        Ok(match expr {
            Expr::Column(c) => BoundExpr::Col(require_column(names, c)?),
            Expr::Literal(v) => BoundExpr::Lit(v.clone()),
            Expr::Cmp { op, left, right } => BoundExpr::Cmp {
                op: *op,
                left: Box::new(BoundExpr::bind(left, names)?),
                right: Box::new(BoundExpr::bind(right, names)?),
            },
            Expr::And(v) => BoundExpr::And(
                v.iter()
                    .map(|e| BoundExpr::bind(e, names))
                    .collect::<Result<_, _>>()?,
            ),
            Expr::Or(v) => BoundExpr::Or(
                v.iter()
                    .map(|e| BoundExpr::bind(e, names))
                    .collect::<Result<_, _>>()?,
            ),
            Expr::Not(e) => BoundExpr::Not(Box::new(BoundExpr::bind(e, names)?)),
            Expr::Arith { op, left, right } => BoundExpr::Arith {
                op: *op,
                left: Box::new(BoundExpr::bind(left, names)?),
                right: Box::new(BoundExpr::bind(right, names)?),
            },
        })
    }

    /// Evaluate against one row. Mirrors [`Expr::eval`] exactly.
    fn eval(&self, cols: &[Column], row: usize) -> Value {
        match self {
            BoundExpr::Col(i) => cols[*i].get(row),
            BoundExpr::Lit(v) => v.clone(),
            BoundExpr::Cmp { op, left, right } => {
                let l = left.eval(cols, row);
                let r = right.eval(cols, row);
                Value::Int(op.apply(&l, &r) as i64)
            }
            BoundExpr::And(v) => Value::Int(v.iter().all(|e| e.eval_bool(cols, row)) as i64),
            BoundExpr::Or(v) => Value::Int(v.iter().any(|e| e.eval_bool(cols, row)) as i64),
            BoundExpr::Not(e) => Value::Int(!e.eval_bool(cols, row) as i64),
            BoundExpr::Arith { op, left, right } => {
                op.apply(&left.eval(cols, row), &right.eval(cols, row))
            }
        }
    }

    /// Evaluate as a predicate. The common `column op literal` shape skips
    /// [`Value`] construction entirely (no string clone per row).
    pub(crate) fn eval_bool(&self, cols: &[Column], row: usize) -> bool {
        match self {
            BoundExpr::Cmp { op, left, right } => match (left.as_ref(), right.as_ref()) {
                (BoundExpr::Col(i), BoundExpr::Lit(v)) => cmp_col_lit(*op, &cols[*i], row, v),
                (BoundExpr::Lit(v), BoundExpr::Col(i)) => {
                    cmp_col_lit(op.flipped(), &cols[*i], row, v)
                }
                _ => {
                    let l = left.eval(cols, row);
                    let r = right.eval(cols, row);
                    op.apply(&l, &r)
                }
            },
            BoundExpr::And(v) => v.iter().all(|e| e.eval_bool(cols, row)),
            BoundExpr::Or(v) => v.iter().any(|e| e.eval_bool(cols, row)),
            BoundExpr::Not(e) => !e.eval_bool(cols, row),
            other => match other.eval(cols, row) {
                Value::Int(i) => i != 0,
                Value::Float(f) => f != 0.0,
                _ => false,
            },
        }
    }
}

/// `column[row] op lit` without materialising a [`Value`] for the cell.
/// Replicates [`CmpOp::apply`] for every column-type/literal pairing;
/// stored cells are never NULL, so only the literal can short-circuit.
fn cmp_col_lit(op: CmpOp, col: &Column, row: usize, lit: &Value) -> bool {
    match (col, lit) {
        (_, Value::Null) => false,
        (Column::Int(d), Value::Int(b)) => apply_ord(op, d[row].cmp(b), d[row] == *b),
        (Column::Int(d), Value::Float(b)) => {
            let a = d[row] as f64;
            apply_ord(op, a.total_cmp(b), a == *b)
        }
        (Column::Float(d), Value::Int(b)) => {
            let b = *b as f64;
            apply_ord(op, d[row].total_cmp(&b), d[row] == b)
        }
        (Column::Float(d), Value::Float(b)) => apply_ord(op, d[row].total_cmp(b), d[row] == *b),
        (Column::Str(d), Value::Str(b)) => {
            apply_ord(op, d[row].as_str().cmp(b.as_str()), d[row] == *b)
        }
        // Mixed string/number: never SQL-equal; strings sort after numbers.
        (Column::Str(_), _) => apply_ord(op, Ordering::Greater, false),
        (_, Value::Str(_)) => apply_ord(op, Ordering::Less, false),
    }
}

fn require_column(names: &[String], name: &str) -> Result<usize, EngineError> {
    names
        .iter()
        .position(|n| n == name)
        .ok_or_else(|| EngineError::UnknownColumn(name.to_string()))
}

/// Reference filter: per-row interpreted mask, materialized output. The
/// optimized [`exec_filter_sel`] must keep row-for-row the rows this keeps
/// and charge byte-for-byte what this charges.
fn exec_filter_reference<'a>(
    batch: RecordBatch,
    predicate: &Expr,
    meter: &mut CostMeter,
) -> Result<SelBatch<'a>, EngineError> {
    let bound = BoundExpr::bind(predicate, &batch.names)?;
    let rows = batch.num_rows();
    let pred_weight = predicate.referenced_columns().len().max(1) * 2;
    meter.charge_rows(rows, pred_weight);

    let mask: Vec<bool> = (0..rows)
        .map(|i| bound.eval_bool(&batch.columns, i))
        .collect();
    let in_bytes = batch.byte_size();
    let columns: Vec<Column> = batch.columns.iter().map(|c| c.filter(&mask)).collect();
    let out = RecordBatch {
        names: batch.names,
        columns,
    };
    Ok(emit(out, in_bytes, meter))
}

/// Optimized filter: compile the predicate to typed kernels and build (or
/// refine) a selection vector in one pass over the live rows — no batch
/// materialization, no boolean mask, and borrowed columns stay borrowed.
/// All analytic cost charges replicate [`exec_filter_reference`] exactly:
/// the filtered byte size is computed from the selection without gathering,
/// and the input's byte size is the one its producer already charged.
fn exec_filter_sel<'a>(
    sb: SelBatch<'a>,
    predicate: &Expr,
    meter: &mut CostMeter,
) -> Result<SelBatch<'a>, EngineError> {
    let bound = BoundExpr::bind(predicate, &sb.names)?;
    let rows = sb.num_rows();
    let pred_weight = predicate.referenced_columns().len().max(1) * 2;
    meter.charge_rows(rows, pred_weight);

    let pred = CompiledPred::compile(bound, &sb.columns);
    let sel = match sb.sel {
        None => {
            // Selection indices are u32: engine batches stay far below that
            // bound.
            assert!(
                rows <= u32::MAX as usize,
                "batch too large for u32 selection vectors"
            );
            pred.eval_dense(&sb.columns, rows)
        }
        Some(cands) => pred.eval_sel(&sb.columns, cands),
    };

    let out_bytes: usize = sb.columns.iter().map(|c| c.byte_size_sel(&sel)).sum();
    meter.alloc_bytes(out_bytes);
    meter.free_bytes(sb.bytes);
    Ok(SelBatch {
        sel: Some(sel),
        bytes: out_bytes,
        ..sb
    })
}

/// Reference projection over a dense batch.
fn exec_project_reference<'a>(
    batch: RecordBatch,
    exprs: &[av_plan::ProjExpr],
    meter: &mut CostMeter,
) -> Result<SelBatch<'a>, EngineError> {
    let rows = batch.num_rows();
    meter.charge_rows(rows, exprs.len().max(1));

    let mut names = Vec::with_capacity(exprs.len());
    let mut columns = Vec::with_capacity(exprs.len());
    for p in exprs {
        names.push(p.alias.clone());
        match &p.expr {
            // Fast path: plain column forwarding.
            Expr::Column(c) => {
                let idx = require_column(&batch.names, c)?;
                columns.push(batch.columns[idx].clone());
            }
            expr => {
                // Computed column: evaluate per row; infer output type from
                // the first row (empty input defaults to Float).
                let bound = BoundExpr::bind(expr, &batch.names)?;
                let vals: Vec<Value> = (0..rows).map(|i| bound.eval(&batch.columns, i)).collect();
                columns.push(values_to_column(&vals));
            }
        }
    }
    let in_bytes = batch.byte_size();
    Ok(emit(RecordBatch { names, columns }, in_bytes, meter))
}

/// Projection over a possibly-selected batch, read in place: forwarded
/// columns are gathered through the selection (or cloned when dense), and
/// computed expressions are evaluated at the live rows, so columns the
/// projection drops are never copied.
fn exec_project_sel<'a>(
    sb: SelBatch<'a>,
    exprs: &[av_plan::ProjExpr],
    meter: &mut CostMeter,
) -> Result<SelBatch<'a>, EngineError> {
    let rows = sb.num_rows();
    meter.charge_rows(rows, exprs.len().max(1));
    let sel = sb.sel.as_deref();
    let mut names = Vec::with_capacity(exprs.len());
    let mut columns = Vec::with_capacity(exprs.len());
    for p in exprs {
        names.push(p.alias.clone());
        match &p.expr {
            Expr::Column(c) => {
                let col = &sb.columns[require_column(&sb.names, c)?];
                columns.push(match sel {
                    Some(s) => col.take_sel(s),
                    None => col.clone(),
                });
            }
            expr => {
                let bound = BoundExpr::bind(expr, &sb.names)?;
                let vals: Vec<Value> = match sel {
                    Some(s) => s
                        .iter()
                        .map(|&i| bound.eval(&sb.columns, i as usize))
                        .collect(),
                    None => (0..rows).map(|i| bound.eval(&sb.columns, i)).collect(),
                };
                columns.push(values_to_column(&vals));
            }
        }
    }
    Ok(emit(RecordBatch { names, columns }, sb.bytes, meter))
}

fn values_to_column(vals: &[Value]) -> Column {
    let mut col = match vals.iter().find(|v| !v.is_null()) {
        Some(Value::Int(_)) => Column::Int(Vec::with_capacity(vals.len())),
        Some(Value::Str(_)) => Column::str(Vec::with_capacity(vals.len())),
        _ => Column::Float(Vec::with_capacity(vals.len())),
    };
    for v in vals {
        // NULLs (e.g. division by zero) are stored as a zero of the column
        // type; the engine's stored data is NULL-free by construction.
        match (&mut col, v) {
            (c, v) if !v.is_null() => c.push_value(v),
            (Column::Int(d), _) => d.push(0),
            (Column::Float(d), _) => d.push(0.0),
            (Column::Str(d), _) => std::sync::Arc::make_mut(d).push(String::new()),
        }
    }
    col
}

/// Key-column views for one side of an equi-join, with ints promoted to
/// float codes wherever the opposite side's column is a float. A `None`
/// pairing means some key pair is string-vs-number, which can never be
/// equal: the join short-circuits to zero matches.
fn join_key_cols<'b>(
    own: &'b [Column],
    own_keys: &[usize],
    other: &[Column],
    other_keys: &[usize],
) -> Option<Vec<KeyCol<'b>>> {
    own_keys
        .iter()
        .zip(other_keys)
        .map(|(&k, &ok)| {
            let col = &own[k];
            match (col, &other[ok]) {
                (Column::Str(_), Column::Str(_)) => Some(KeyCol::of(col, false)),
                (Column::Str(_), _) | (_, Column::Str(_)) => None,
                (Column::Int(_), Column::Float(_)) => Some(KeyCol::of(col, true)),
                _ => Some(KeyCol::of(col, false)),
            }
        })
        .collect()
}

/// Build-side hash table in chained layout: key code → (first, last) build
/// row, plus forward links in `next`, so each code's build rows chain in
/// ascending order without a heap allocation per distinct key.
struct JoinTable {
    heads: keys::CodeMap<u64, (usize, usize)>,
    next: Vec<usize>,
}

impl JoinTable {
    fn build(codes: &[u64]) -> JoinTable {
        let mut heads: keys::CodeMap<u64, (usize, usize)> =
            keys::CodeMap::with_capacity_and_hasher(codes.len(), Default::default());
        let mut next = vec![usize::MAX; codes.len()];
        for (i, &code) in codes.iter().enumerate() {
            match heads.entry(code) {
                Entry::Vacant(e) => {
                    e.insert((i, i));
                }
                Entry::Occupied(mut e) => {
                    let last = e.get().1;
                    next[last] = i;
                    e.get_mut().1 = i;
                }
            }
        }
        JoinTable { heads, next }
    }

    /// Probe rows `0..rows` in ascending order into (probe row, build row)
    /// pairs, each row's build chain ascending; a left join records a miss
    /// as build row `usize::MAX`. `code_of` is monomorphized per key shape,
    /// so a single-`Int`-key probe carries no key-column dispatch.
    fn probe(
        &self,
        rows: usize,
        keep_misses: bool,
        code_of: impl Fn(usize) -> Option<u64>,
    ) -> (Vec<usize>, Vec<usize>) {
        let (mut pidx, mut bidx) = (Vec::new(), Vec::new());
        for i in 0..rows {
            match code_of(i).and_then(|c| self.heads.get(&c)) {
                Some(&(first, _)) => {
                    let mut j = first;
                    while j != usize::MAX {
                        pidx.push(i);
                        bidx.push(j);
                        j = self.next[j];
                    }
                }
                None if keep_misses => {
                    pidx.push(i);
                    bidx.push(usize::MAX);
                }
                None => {}
            }
        }
        (pidx, bidx)
    }
}

/// Build-side table for a single `Int` key whose values span a short
/// range: `first[key - min]` is the first build row carrying that key, and
/// `next` links each build row to the next one with the same key. A probe
/// is one subtraction, one bounds check and one array read: no key code,
/// no hash. [`DirectTable::build`] declines every other key set, and the
/// join falls back to [`JoinTable`].
struct DirectTable {
    min: i64,
    first: Vec<u32>,
    next: Vec<u32>,
    /// Distinct build keys, the bucket count [`JoinTable`] would hold.
    distinct: usize,
}

impl DirectTable {
    /// Marks an empty slot and the end of a chain.
    const NONE: u32 = u32::MAX;

    /// Index `keys` directly when their span (`max − min + 1`) is at most
    /// `32 × rows + 1024`: the slot array then costs at most 128 bytes per
    /// build row beyond a fixed 4 KiB. The span is computed in `i128`, so
    /// keys reaching from `i64::MIN` to `i64::MAX` decline instead of
    /// overflowing. An empty build side, or one too long for `u32` row
    /// indices, declines too.
    fn build(keys: &[i64]) -> Option<DirectTable> {
        let (&k0, rest) = keys.split_first()?;
        let (min, max) = rest
            .iter()
            .fold((k0, k0), |(lo, hi), &k| (lo.min(k), hi.max(k)));
        let span = i128::from(max) - i128::from(min) + 1;
        if span > 32 * keys.len() as i128 + 1024 || keys.len() >= Self::NONE as usize {
            return None;
        }
        let mut first = vec![Self::NONE; usize::try_from(span).ok()?];
        let mut next = vec![Self::NONE; keys.len()];
        let mut distinct = 0;
        // Walking the rows backwards and prepending leaves every chain in
        // ascending row order, the order the hashed table emits.
        for (i, &k) in keys.iter().enumerate().rev() {
            let slot = &mut first[k.wrapping_sub(min) as u64 as usize];
            distinct += usize::from(*slot == Self::NONE);
            next[i] = *slot;
            *slot = i as u32;
        }
        Some(DirectTable {
            min,
            first,
            next,
            distinct,
        })
    }

    /// [`JoinTable::probe`] for probe keys `keys`: the same pairs in the
    /// same order.
    fn probe(&self, keys: &[i64], keep_misses: bool) -> (Vec<usize>, Vec<usize>) {
        let (mut pidx, mut bidx) = (Vec::new(), Vec::new());
        for (i, &k) in keys.iter().enumerate() {
            // `k − min` modulo 2^64 is below the span exactly when
            // `min ≤ k ≤ max`: a key above `max` does not wrap, and a key
            // under `min` wraps to `2^64 + k − min ≥ 2^63 − min`, which is
            // at least the span because `max < 2^63`.
            let offset = k.wrapping_sub(self.min) as u64;
            let mut j = usize::try_from(offset)
                .ok()
                .and_then(|o| self.first.get(o).copied())
                .unwrap_or(Self::NONE);
            if j == Self::NONE && keep_misses {
                pidx.push(i);
                bidx.push(usize::MAX);
            }
            while j != Self::NONE {
                pidx.push(i);
                bidx.push(j as usize);
                j = self.next[j as usize];
            }
        }
        (pidx, bidx)
    }
}

fn exec_join<'a>(
    left: SelBatch<'_>,
    right: SelBatch<'_>,
    on: &[(String, String)],
    join_type: JoinType,
    allow_direct: bool,
    meter: &mut CostMeter,
) -> Result<SelBatch<'a>, EngineError> {
    let lkeys: Vec<usize> = on
        .iter()
        .map(|(l, _)| require_column(&left.names, l))
        .collect::<Result<_, _>>()?;
    let rkeys: Vec<usize> = on
        .iter()
        .map(|(_, r)| require_column(&right.names, r))
        .collect::<Result<_, _>>()?;

    // Build the hash table on the smaller side for inner joins (ties build
    // right). Left joins must probe the left side to keep every probe row,
    // so they always build right.
    let build_right = match join_type {
        JoinType::Left => true,
        JoinType::Inner => right.num_rows() <= left.num_rows(),
    };
    let (build, probe, bkeys, pkeys) = if build_right {
        (&right, &left, &rkeys, &lkeys)
    } else {
        (&left, &right, &lkeys, &rkeys)
    };
    let build_rows = build.num_rows();
    let probe_rows = probe.num_rows();
    meter.charge_rows(build_rows, 4 * on.len().max(1)); // hash + insert
    meter.charge_rows(probe_rows, 4 * on.len().max(1)); // hash + probe

    // (probe row, build row) match pairs; usize::MAX marks a left-join miss.
    let keep_misses = join_type == JoinType::Left;
    let (pidx, bidx, table_bytes) = match (
        join_key_cols(&build.columns, bkeys, &probe.columns, pkeys),
        join_key_cols(&probe.columns, pkeys, &build.columns, bkeys),
    ) {
        (Some(bcols), Some(pcols)) => {
            // The meter charges the hash table's model whichever layout
            // runs: one bucket header per distinct key, one chain link and
            // one key code per build row, plus the interner's dictionaries
            // (empty for a single `Int` key, the only direct-indexed shape).
            let direct = match (&bcols[..], &pcols[..]) {
                ([KeyCol::Int(b)], [KeyCol::Int(p)]) if allow_direct => {
                    DirectTable::build(b).map(|t| (t, *p))
                }
                _ => None,
            };
            match direct {
                Some((table, p)) => {
                    let (pidx, bidx) = table.probe(p, keep_misses);
                    (pidx, bidx, table.distinct * 48 + build_rows * 16)
                }
                None => {
                    let mut interner = KeyInterner::new();
                    let codes = keys::encode_rows(&bcols, build_rows, &mut interner);
                    let table = JoinTable::build(&codes);
                    let table_bytes =
                        table.heads.len() * 48 + build_rows * 16 + interner.approx_bytes();
                    // A single `Int` key reads its slice directly; every
                    // other shape encodes through the interner.
                    let (rows, keep) = (probe_rows, keep_misses);
                    let (pidx, bidx) = match pcols[..] {
                        [KeyCol::Int(d)] => table.probe(rows, keep, |i| Some(d[i] as u64)),
                        _ => table.probe(rows, keep, |i| keys::probe_code(&pcols, i, &interner)),
                    };
                    (pidx, bidx, table_bytes)
                }
            }
        }
        // A string key against a numeric key can never match: inner joins
        // produce nothing, left joins keep every probe row unmatched.
        _ if keep_misses => ((0..probe_rows).collect(), vec![usize::MAX; probe_rows], 0),
        _ => (Vec::new(), Vec::new(), 0),
    };
    meter.alloc_bytes(table_bytes);
    meter.charge_rows(pidx.len(), left.columns.len() + right.columns.len());

    // Assemble output in left-columns-then-right-columns order regardless
    // of which side built the table.
    let (lidx, ridx) = if build_right {
        (&pidx, &bidx)
    } else {
        (&bidx, &pidx)
    };
    let mut names = left.names;
    names.extend(right.names);
    let mut columns: Vec<Column> = left
        .columns
        .iter()
        .map(|c| c.take_with_default(lidx))
        .collect();
    columns.extend(right.columns.iter().map(|c| c.take_with_default(ridx)));
    let freed = left.bytes + right.bytes + table_bytes;
    Ok(emit(RecordBatch { names, columns }, freed, meter))
}

/// Running state of one aggregate within one group. Min/max track the row
/// index of the current extremum (first occurrence wins ties), so values
/// are only compared — never cloned — until output assembly.
#[derive(Clone)]
struct AggState {
    count: usize,
    sum: f64,
    min_row: Option<usize>,
    max_row: Option<usize>,
}

impl AggState {
    fn new() -> AggState {
        AggState {
            count: 0,
            sum: 0.0,
            min_row: None,
            max_row: None,
        }
    }

    fn update(&mut self, col: Option<&Column>, row: usize) {
        self.count += 1;
        let Some(col) = col else { return };
        match col {
            Column::Int(d) => self.sum += d[row] as f64,
            Column::Float(d) => self.sum += d[row],
            Column::Str(_) => {}
        }
        if self.min_row.map(|m| col_lt(col, row, m)).unwrap_or(true) {
            self.min_row = Some(row);
        }
        if self.max_row.map(|m| col_lt(col, m, row)).unwrap_or(true) {
            self.max_row = Some(row);
        }
    }

    /// Fold `other` (from a later chunk) into `self`. Sums accumulate in
    /// chunk order; extrema replace only on strict improvement, preserving
    /// first-occurrence tie-breaking.
    fn merge(&mut self, other: &AggState, col: Option<&Column>) {
        self.count += other.count;
        self.sum += other.sum;
        let Some(col) = col else { return };
        if let Some(o) = other.min_row {
            if self.min_row.map(|m| col_lt(col, o, m)).unwrap_or(true) {
                self.min_row = Some(o);
            }
        }
        if let Some(o) = other.max_row {
            if self.max_row.map(|m| col_lt(col, m, o)).unwrap_or(true) {
                self.max_row = Some(o);
            }
        }
    }
}

/// Strict `col[a] < col[b]` under the engine's total order (floats by IEEE
/// totalOrder, matching [`Value::total_cmp`] within one typed column).
fn col_lt(col: &Column, a: usize, b: usize) -> bool {
    match col {
        Column::Int(d) => d[a] < d[b],
        Column::Float(d) => d[a].total_cmp(&d[b]).is_lt(),
        Column::Str(d) => d[a] < d[b],
    }
}

/// Per-chunk partial aggregation result: group codes in chunk-local
/// first-seen order, with the first row and per-aggregate states for each.
struct ChunkAgg {
    order: Vec<u64>,
    first_rows: Vec<usize>,
    states: Vec<Vec<AggState>>,
}

/// Reference aggregation over a dense batch: per-row `AggState::update`
/// with the column-type match re-dispatched every row.
fn exec_aggregate_reference<'a>(
    batch: RecordBatch,
    group_by: &[String],
    aggs: &[av_plan::AggExpr],
    meter: &mut CostMeter,
) -> Result<SelBatch<'a>, EngineError> {
    let gidx: Vec<usize> = group_by
        .iter()
        .map(|g| require_column(&batch.names, g))
        .collect::<Result<_, _>>()?;
    let ainput: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| match &a.input {
            Some(c) => require_column(&batch.names, c).map(Some),
            None => Ok(None),
        })
        .collect::<Result<_, _>>()?;
    let acols: Vec<Option<&Column>> = ainput
        .iter()
        .map(|ai| ai.map(|i| &batch.columns[i]))
        .collect();

    let rows = batch.num_rows();
    meter.charge_rows(rows, (group_by.len() + aggs.len()).max(1) * 2);

    // Group keys become u64 codes once, up front; a column never mixes
    // types, so per-column natural encoding matches Value equality exactly.
    let mut interner = KeyInterner::new();
    let kcols: Vec<KeyCol> = gidx
        .iter()
        .map(|&k| KeyCol::of(&batch.columns[k], false))
        .collect();
    let codes = keys::encode_rows(&kcols, rows, &mut interner);

    // Chunked partial aggregation, merged in chunk order: group order is
    // global first-seen order and float sums accumulate in a fixed order.
    let partials = par::map_chunks(rows, |_, range| {
        let mut slot_of: keys::CodeMap<u64, usize> = keys::CodeMap::default();
        let mut agg = ChunkAgg {
            order: Vec::new(),
            first_rows: Vec::new(),
            states: Vec::new(),
        };
        for i in range {
            let code = codes[i];
            let slot = *slot_of.entry(code).or_insert_with(|| {
                agg.order.push(code);
                agg.first_rows.push(i);
                agg.states.push(vec![AggState::new(); aggs.len()]);
                agg.states.len() - 1
            });
            for (a, col) in acols.iter().enumerate() {
                agg.states[slot][a].update(*col, i);
            }
        }
        agg
    });

    let mut slot_of: keys::CodeMap<u64, usize> = keys::CodeMap::default();
    let mut first_rows: Vec<usize> = Vec::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    for chunk in partials {
        for (local, &code) in chunk.order.iter().enumerate() {
            let slot = *slot_of.entry(code).or_insert_with(|| {
                first_rows.push(chunk.first_rows[local]);
                states.push(vec![AggState::new(); aggs.len()]);
                states.len() - 1
            });
            for (a, col) in acols.iter().enumerate() {
                states[slot][a].merge(&chunk.states[local][a], *col);
            }
        }
    }

    // A global aggregate (no GROUP BY) over empty input still yields one row.
    let empty_global = group_by.is_empty() && states.is_empty();
    if empty_global {
        first_rows.push(usize::MAX);
        states.push(vec![AggState::new(); aggs.len()]);
    }

    let n_groups = states.len();
    meter.alloc_bytes(n_groups * (group_by.len() + aggs.len()).max(1) * 16);

    let mut names: Vec<String> = group_by.to_vec();
    names.extend(aggs.iter().map(|a| a.output.clone()));

    let mut columns: Vec<Column> = Vec::with_capacity(names.len());
    // Group-key columns: the first-seen row of each group carries the key.
    for &src in &gidx {
        columns.push(batch.columns[src].take(&first_rows));
    }
    // Aggregate columns.
    for (a, agg) in aggs.iter().enumerate() {
        columns.push(build_agg_column(agg.func, acols[a], &states, a));
    }

    let in_bytes = batch.byte_size();
    Ok(emit(RecordBatch { names, columns }, in_bytes, meter))
}

/// Optimized aggregation over a possibly-selected batch. Two changes over
/// [`exec_aggregate_reference`], neither observable in the output:
///
/// - the input is consumed *through* the selection vector — only the
///   group-key columns are gathered (for code encoding); aggregate inputs
///   are read in place at their original row indices;
/// - the per-row column-type and aggregate-function dispatch is hoisted out
///   of the inner loop ([`update_chunk_hoisted`]): chunk slots are resolved
///   first, then each aggregate updates its states in one typed pass that
///   maintains only the state fields its output actually reads.
///
/// Chunk boundaries fall on logical rows, exactly where the reference path
/// chunks the materialized batch, so per-group f64 partial sums add in the
/// identical order and the outputs are bitwise equal.
fn exec_aggregate_sel<'a>(
    sb: SelBatch<'_>,
    group_by: &[String],
    aggs: &[av_plan::AggExpr],
    meter: &mut CostMeter,
) -> Result<SelBatch<'a>, EngineError> {
    let cols: &[Column] = &sb.columns;
    let gidx: Vec<usize> = group_by
        .iter()
        .map(|g| require_column(&sb.names, g))
        .collect::<Result<_, _>>()?;
    let ainput: Vec<Option<usize>> = aggs
        .iter()
        .map(|a| match &a.input {
            Some(c) => require_column(&sb.names, c).map(Some),
            None => Ok(None),
        })
        .collect::<Result<_, _>>()?;
    let acols: Vec<Option<&Column>> = ainput.iter().map(|ai| ai.map(|i| &cols[i])).collect();

    let rows = sb.num_rows();
    meter.charge_rows(rows, (group_by.len() + aggs.len()).max(1) * 2);

    let sel: Option<&[u32]> = sb.sel.as_deref();
    let rowof = |j: usize| match sel {
        Some(s) => s[j] as usize,
        None => j,
    };

    // Group keys become u64 codes once, up front. With a selection, just
    // the key columns are gathered so the encoder sees the live rows in
    // logical order — the same sequence the reference path encodes from
    // the materialized batch.
    let mut interner = KeyInterner::new();
    let gathered: Option<Vec<Column>> = match (sel, gidx.is_empty()) {
        (Some(s), false) => Some(gidx.iter().map(|&k| cols[k].take_sel(s)).collect()),
        _ => None,
    };
    let codes: Vec<u64> = if gidx.is_empty() {
        Vec::new() // global aggregate: one implicit group, nothing to encode
    } else {
        let kcols: Vec<KeyCol> = match &gathered {
            Some(g) => g.iter().map(|c| KeyCol::of(c, false)).collect(),
            None => gidx.iter().map(|&k| KeyCol::of(&cols[k], false)).collect(),
        };
        keys::encode_rows(&kcols, rows, &mut interner)
    };

    let partials = par::map_chunks(rows, |_, range| {
        let mut slot_of: keys::CodeMap<u64, usize> = keys::CodeMap::default();
        let mut agg = ChunkAgg {
            order: Vec::new(),
            first_rows: Vec::new(),
            states: Vec::new(),
        };
        // Resolve every row's group slot first, so the update loops below
        // are free of hashing and of the per-row column-type match.
        let mut slots: Vec<u32> = Vec::with_capacity(range.len());
        for j in range.clone() {
            let code = if gidx.is_empty() { 0 } else { codes[j] };
            let slot = *slot_of.entry(code).or_insert_with(|| {
                agg.order.push(code);
                agg.first_rows.push(rowof(j));
                agg.states.push(vec![AggState::new(); aggs.len()]);
                agg.states.len() - 1
            });
            slots.push(slot as u32);
        }
        for (a, col) in acols.iter().enumerate() {
            update_chunk_hoisted(
                *col,
                aggs[a].func,
                &mut agg.states,
                &slots,
                range.start,
                &rowof,
                a,
            );
        }
        agg
    });

    let mut slot_of: keys::CodeMap<u64, usize> = keys::CodeMap::default();
    let mut first_rows: Vec<usize> = Vec::new();
    let mut states: Vec<Vec<AggState>> = Vec::new();
    for chunk in partials {
        for (local, &code) in chunk.order.iter().enumerate() {
            let slot = *slot_of.entry(code).or_insert_with(|| {
                first_rows.push(chunk.first_rows[local]);
                states.push(vec![AggState::new(); aggs.len()]);
                states.len() - 1
            });
            for (a, col) in acols.iter().enumerate() {
                states[slot][a].merge(&chunk.states[local][a], *col);
            }
        }
    }

    // A global aggregate (no GROUP BY) over empty input still yields one row.
    let empty_global = group_by.is_empty() && states.is_empty();
    if empty_global {
        first_rows.push(usize::MAX);
        states.push(vec![AggState::new(); aggs.len()]);
    }

    let n_groups = states.len();
    meter.alloc_bytes(n_groups * (group_by.len() + aggs.len()).max(1) * 16);

    let mut names: Vec<String> = group_by.to_vec();
    names.extend(aggs.iter().map(|a| a.output.clone()));

    let mut columns: Vec<Column> = Vec::with_capacity(names.len());
    // Group-key columns: `first_rows` holds *original* row indices, so the
    // keys gather straight from the unmaterialized input.
    for &src in &gidx {
        columns.push(cols[src].take(&first_rows));
    }
    for (a, agg) in aggs.iter().enumerate() {
        columns.push(build_agg_column(agg.func, acols[a], &states, a));
    }
    Ok(emit(RecordBatch { names, columns }, sb.bytes, meter))
}

/// One chunk's updates for a single aggregate with both the column-type
/// match *and* the aggregate function hoisted out of the row loop.
///
/// The per-row [`AggState::update`] must maintain every state field because
/// it cannot know which output will be read; here the function is known, so
/// each pass touches only the fields its output reads (COUNT reads `count`,
/// SUM reads `sum`, AVG both, MIN/MAX their extremum row). The fields that
/// *are* read get field-for-field the reference's updates — same f64
/// accumulation order, same strict-inequality first-occurrence
/// tie-breaking — so outputs stay bitwise equal. `slots[off]` is the group
/// slot of logical row `jstart + off`; `rowof` maps logical to original
/// row indices.
fn update_chunk_hoisted(
    col: Option<&Column>,
    func: AggFunc,
    states: &mut [Vec<AggState>],
    slots: &[u32],
    jstart: usize,
    rowof: &impl Fn(usize) -> usize,
    a: usize,
) {
    macro_rules! pass {
        (|$row:ident, $st:ident| $body:expr) => {
            for (off, &s) in slots.iter().enumerate() {
                let $row = rowof(jstart + off);
                let $st: &mut AggState = &mut states[s as usize][a];
                $body;
            }
        };
    }
    let count_only = |states: &mut [Vec<AggState>]| {
        for &s in slots {
            states[s as usize][a].count += 1;
        }
    };
    match (col, func) {
        // COUNT ignores its input; without an input column only `count`
        // can advance (a MIN/MAX over no column emits zeros unread).
        (None, _) | (_, AggFunc::Count) => count_only(states),
        (Some(Column::Int(d)), AggFunc::Sum) => pass!(|row, st| st.sum += d[row] as f64),
        (Some(Column::Int(d)), AggFunc::Avg) => pass!(|row, st| {
            st.count += 1;
            st.sum += d[row] as f64;
        }),
        (Some(Column::Int(d)), AggFunc::Min) => pass!(|row, st| {
            if st.min_row.map(|m| d[row] < d[m]).unwrap_or(true) {
                st.min_row = Some(row);
            }
        }),
        (Some(Column::Int(d)), AggFunc::Max) => pass!(|row, st| {
            if st.max_row.map(|m| d[m] < d[row]).unwrap_or(true) {
                st.max_row = Some(row);
            }
        }),
        (Some(Column::Float(d)), AggFunc::Sum) => pass!(|row, st| st.sum += d[row]),
        (Some(Column::Float(d)), AggFunc::Avg) => pass!(|row, st| {
            st.count += 1;
            st.sum += d[row];
        }),
        (Some(Column::Float(d)), AggFunc::Min) => pass!(|row, st| {
            if st
                .min_row
                .map(|m| d[row].total_cmp(&d[m]).is_lt())
                .unwrap_or(true)
            {
                st.min_row = Some(row);
            }
        }),
        (Some(Column::Float(d)), AggFunc::Max) => pass!(|row, st| {
            if st
                .max_row
                .map(|m| d[m].total_cmp(&d[row]).is_lt())
                .unwrap_or(true)
            {
                st.max_row = Some(row);
            }
        }),
        // Strings never sum: SUM's output field stays 0.0 exactly as the
        // reference leaves it, and AVG degenerates to 0.0 / count.
        (Some(Column::Str(_)), AggFunc::Sum) => {}
        (Some(Column::Str(_)), AggFunc::Avg) => count_only(states),
        (Some(Column::Str(d)), AggFunc::Min) => pass!(|row, st| {
            if st.min_row.map(|m| d[row] < d[m]).unwrap_or(true) {
                st.min_row = Some(row);
            }
        }),
        (Some(Column::Str(d)), AggFunc::Max) => pass!(|row, st| {
            if st.max_row.map(|m| d[m] < d[row]).unwrap_or(true) {
                st.max_row = Some(row);
            }
        }),
    }
}

/// Materialise one aggregate's output column. Min/max over a group with no
/// input values (only possible for the empty-input global aggregate) emit
/// the *input column's* typed default — `Str` columns yield `""`, `Float`
/// columns `0.0` — instead of a hard-coded `Int(0)` that would panic or
/// silently change the column type.
fn build_agg_column(
    func: AggFunc,
    input: Option<&Column>,
    states: &[Vec<AggState>],
    a: usize,
) -> Column {
    match func {
        AggFunc::Count => Column::Int(states.iter().map(|st| st[a].count as i64).collect()),
        AggFunc::Sum => Column::Float(states.iter().map(|st| st[a].sum).collect()),
        AggFunc::Avg => Column::Float(
            states
                .iter()
                .map(|st| {
                    let s = &st[a];
                    if s.count == 0 {
                        0.0
                    } else {
                        s.sum / s.count as f64
                    }
                })
                .collect(),
        ),
        AggFunc::Min | AggFunc::Max => {
            // MIN/MAX without an input column degenerates to a zero count
            // column (COUNT(*) has no ordered value to pick).
            let Some(col) = input else {
                return Column::Int(vec![0; states.len()]);
            };
            let rows: Vec<usize> = states
                .iter()
                .map(|st| {
                    let s = &st[a];
                    let row = if func == AggFunc::Min {
                        s.min_row
                    } else {
                        s.max_row
                    };
                    row.unwrap_or(usize::MAX)
                })
                .collect();
            col.take_with_default(&rows)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::catalog::Table;
    use av_plan::{AggExpr, CmpOp, PlanBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            Table::new(
                "orders",
                vec![
                    ("id", Column::Int((0..100).collect())),
                    ("cust", Column::Int((0..100).map(|i| i % 10).collect())),
                    (
                        "amount",
                        Column::Float((0..100).map(|i| i as f64).collect()),
                    ),
                ],
            )
            .expect("valid"),
        )
        .expect("ok");
        c.add_table(
            Table::new(
                "customers",
                vec![
                    ("id", Column::Int((0..10).collect())),
                    (
                        "tier",
                        Column::str(
                            (0..10)
                                .map(|i| if i < 3 { "gold" } else { "basic" }.into())
                                .collect(),
                        ),
                    ),
                ],
            )
            .expect("valid"),
        )
        .expect("ok");
        c
    }

    fn run(c: &Catalog, plan: &PlanNode) -> ExecResult {
        Executor::new(c, Pricing::paper_defaults())
            .run(plan)
            .expect("plan executes")
    }

    #[test]
    fn scan_qualifies_columns_with_alias() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o").build();
        let r = run(&c, &plan);
        assert_eq!(r.batch.names, vec!["o.id", "o.cust", "o.amount"]);
        assert_eq!(r.batch.num_rows(), 100);
    }

    #[test]
    fn filter_selects_matching_rows() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o")
            .filter(Expr::col("o.cust").eq(Expr::int(3)))
            .build();
        assert_eq!(run(&c, &plan).batch.num_rows(), 10);
    }

    #[test]
    fn scan_of_unknown_table_errors() {
        let c = catalog();
        let plan = PlanBuilder::scan("missing", "m").build();
        let err = Executor::new(&c, Pricing::paper_defaults())
            .run(&plan)
            .expect_err("unknown table");
        assert_eq!(err, EngineError::UnknownTable("missing".into()));
    }

    #[test]
    fn join_on_unknown_key_errors() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o")
            .join(PlanBuilder::scan("customers", "c"), &[("o.cust", "c.zzz")])
            .build();
        let err = Executor::new(&c, Pricing::paper_defaults())
            .run(&plan)
            .expect_err("unknown join key");
        assert_eq!(err, EngineError::UnknownColumn("c.zzz".into()));
    }

    #[test]
    fn filter_on_unknown_column_errors() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o")
            .filter(Expr::col("o.nope").eq(Expr::int(3)))
            .build();
        let err = Executor::new(&c, Pricing::paper_defaults())
            .run(&plan)
            .expect_err("unknown column");
        assert_eq!(err, EngineError::UnknownColumn("o.nope".into()));
    }

    #[test]
    fn inner_join_matches_keys() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o")
            .join(PlanBuilder::scan("customers", "c"), &[("o.cust", "c.id")])
            .build();
        let r = run(&c, &plan);
        assert_eq!(r.batch.num_rows(), 100); // every order has a customer
        assert_eq!(r.batch.num_columns(), 5);
    }

    #[test]
    fn join_filters_compose() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o")
            .join(
                PlanBuilder::scan("customers", "c")
                    .filter(Expr::col("c.tier").eq(Expr::str("gold"))),
                &[("o.cust", "c.id")],
            )
            .build();
        // gold customers are ids 0,1,2 → 30 orders
        assert_eq!(run(&c, &plan).batch.num_rows(), 30);
    }

    #[test]
    fn left_join_keeps_unmatched_probe_rows() {
        let mut c = Catalog::new();
        c.add_table(Table::new("l", vec![("k", Column::Int(vec![1, 2, 3]))]).expect("ok"))
            .expect("ok");
        c.add_table(Table::new("r", vec![("k", Column::Int(vec![2]))]).expect("ok"))
            .expect("ok");
        let plan = PlanBuilder::scan("l", "l")
            .join_typed(
                PlanBuilder::scan("r", "r"),
                &[("l.k", "r.k")],
                JoinType::Left,
            )
            .build();
        assert_eq!(run(&c, &plan).batch.num_rows(), 3);
    }

    #[test]
    fn left_join_on_string_keys_pads_defaults() {
        let mut c = Catalog::new();
        c.add_table(
            Table::new(
                "l",
                vec![("k", Column::str(vec!["a".into(), "b".into(), "c".into()]))],
            )
            .expect("ok"),
        )
        .expect("ok");
        c.add_table(
            Table::new(
                "r",
                vec![
                    ("k", Column::str(vec!["b".into()])),
                    ("v", Column::str(vec!["hit".into()])),
                ],
            )
            .expect("ok"),
        )
        .expect("ok");
        let plan = PlanBuilder::scan("l", "l")
            .join_typed(
                PlanBuilder::scan("r", "r"),
                &[("l.k", "r.k")],
                JoinType::Left,
            )
            .build();
        let r = run(&c, &plan);
        assert_eq!(r.batch.num_rows(), 3);
        let v = r.batch.column("r.v").expect("col");
        assert_eq!(
            *v,
            Column::str(vec!["".into(), "hit".into(), "".into()]),
            "misses pad with the type default, matches carry the value"
        );
    }

    #[test]
    fn inner_join_builds_on_smaller_side_with_same_rows() {
        let c = catalog();
        // orders (100 rows) joined to customers (10 rows): build side is
        // customers whichever operand order is used, and both orders
        // produce the same multiset of rows.
        let small_right = PlanBuilder::scan("orders", "o")
            .join(PlanBuilder::scan("customers", "c"), &[("o.cust", "c.id")])
            .build();
        let small_left = PlanBuilder::scan("customers", "c")
            .join(PlanBuilder::scan("orders", "o"), &[("c.id", "o.cust")])
            .build();
        let a = run(&c, &small_right);
        let b = run(&c, &small_left);
        assert_eq!(a.batch.num_rows(), 100);
        assert_eq!(b.batch.num_rows(), 100);
    }

    #[test]
    fn join_of_string_key_against_numeric_key_matches_nothing() {
        let mut c = Catalog::new();
        c.add_table(
            Table::new("l", vec![("k", Column::str(vec!["1".into(), "2".into()]))]).expect("ok"),
        )
        .expect("ok");
        c.add_table(Table::new("r", vec![("k", Column::Int(vec![1, 2]))]).expect("ok"))
            .expect("ok");
        let inner = PlanBuilder::scan("l", "l")
            .join(PlanBuilder::scan("r", "r"), &[("l.k", "r.k")])
            .build();
        assert_eq!(run(&c, &inner).batch.num_rows(), 0);
        let left = PlanBuilder::scan("l", "l")
            .join_typed(
                PlanBuilder::scan("r", "r"),
                &[("l.k", "r.k")],
                JoinType::Left,
            )
            .build();
        assert_eq!(
            run(&c, &left).batch.num_rows(),
            2,
            "left join keeps probe rows"
        );
    }

    #[test]
    fn join_int_keys_meet_float_keys_numerically() {
        let mut c = Catalog::new();
        c.add_table(Table::new("l", vec![("k", Column::Int(vec![1, 2, 3]))]).expect("ok"))
            .expect("ok");
        c.add_table(Table::new("r", vec![("k", Column::Float(vec![2.0, 3.5]))]).expect("ok"))
            .expect("ok");
        let plan = PlanBuilder::scan("l", "l")
            .join(PlanBuilder::scan("r", "r"), &[("l.k", "r.k")])
            .build();
        assert_eq!(
            run(&c, &plan).batch.num_rows(),
            1,
            "only Int(2) ↔ Float(2.0)"
        );
    }

    #[test]
    fn direct_table_indexes_spans_up_to_the_cap() {
        // Four build rows: the cap is 32 × 4 + 1024 = 1152.
        let t = DirectTable::build(&[-3, 5, 5, 1148]).expect("a span at the cap indexes directly");
        assert_eq!(t.first.len(), 1152);
        assert_eq!(t.distinct, 3);
        assert!(
            DirectTable::build(&[-3, 5, 5, 1149]).is_none(),
            "a span one past the cap hashes"
        );
        assert!(
            DirectTable::build(&[]).is_none(),
            "an empty build side hashes"
        );
    }

    #[test]
    fn extreme_key_spans_fall_back_without_overflow() {
        // Debug builds check arithmetic: the span of `i64::MIN..=i64::MAX`
        // must be computed without overflow and decline.
        assert!(DirectTable::build(&[i64::MAX, i64::MIN, 0]).is_none());
        // A short span at either end of `i64` indexes directly, and probe
        // keys at the other end wrap past every slot.
        let top = DirectTable::build(&[i64::MAX, i64::MAX - 1]).expect("short span");
        let (pidx, bidx) = top.probe(&[i64::MIN, i64::MAX, 0, i64::MAX - 2], true);
        assert_eq!(pidx, vec![0, 1, 2, 3]);
        assert_eq!(bidx, vec![usize::MAX, 0, usize::MAX, usize::MAX]);
        let bottom = DirectTable::build(&[i64::MIN, i64::MIN + 1]).expect("short span");
        let (pidx, bidx) = bottom.probe(&[i64::MAX, i64::MIN + 1, -1], false);
        assert_eq!((pidx, bidx), (vec![1], vec![1]));

        let mut c = Catalog::new();
        let extremes = || Column::Int(vec![i64::MIN, 0, i64::MAX, i64::MIN]);
        c.add_table(Table::new("l", vec![("k", extremes())]).expect("ok"))
            .expect("ok");
        c.add_table(Table::new("r", vec![("k", extremes())]).expect("ok"))
            .expect("ok");
        let plan = PlanBuilder::scan("l", "l")
            .join(PlanBuilder::scan("r", "r"), &[("l.k", "r.k")])
            .build();
        assert_eq!(run(&c, &plan).batch.num_rows(), 6);
    }

    #[test]
    fn aggregate_count_and_sum() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o").aggregate(
            &["o.cust"],
            vec![
                AggExpr {
                    func: AggFunc::Count,
                    input: None,
                    output: "n".into(),
                },
                AggExpr {
                    func: AggFunc::Sum,
                    input: Some("o.amount".into()),
                    output: "total".into(),
                },
            ],
        );
        let r = run(&c, &plan.build());
        assert_eq!(r.batch.num_rows(), 10);
        // Group for cust=0: ids 0,10,...,90 → count 10, sum 450
        let cust = r.batch.column("o.cust").expect("col");
        let n = r.batch.column("n").expect("col");
        let total = r.batch.column("total").expect("col");
        let row0 = (0..10)
            .find(|&i| cust.get(i) == Value::Int(0))
            .expect("group exists");
        assert_eq!(n.get(row0), Value::Int(10));
        assert_eq!(total.get(row0), Value::Float(450.0));
    }

    #[test]
    fn global_aggregate_on_empty_input_yields_one_row() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o")
            .filter(Expr::col("o.id").cmp(CmpOp::Lt, Expr::int(0)))
            .count_star(&[], "n")
            .build();
        let r = run(&c, &plan);
        assert_eq!(r.batch.num_rows(), 1);
        assert_eq!(r.batch.column("n").expect("col").get(0), Value::Int(0));
    }

    #[test]
    fn min_max_over_empty_str_input_yields_typed_default() {
        let c = catalog();
        // Empty filter result, then MIN/MAX over the Str tier column: the
        // old executor fell back to Value::Int(0) and panicked pushing an
        // Int into a Str column.
        let plan = PlanBuilder::scan("customers", "c")
            .filter(Expr::col("c.id").cmp(CmpOp::Lt, Expr::int(0)))
            .aggregate(
                &[],
                vec![
                    AggExpr {
                        func: AggFunc::Min,
                        input: Some("c.tier".into()),
                        output: "lo".into(),
                    },
                    AggExpr {
                        func: AggFunc::Max,
                        input: Some("c.tier".into()),
                        output: "hi".into(),
                    },
                ],
            )
            .build();
        let r = run(&c, &plan);
        assert_eq!(r.batch.num_rows(), 1);
        assert_eq!(
            r.batch.column("lo").expect("col").get(0),
            Value::Str("".into())
        );
        assert_eq!(
            r.batch.column("hi").expect("col").get(0),
            Value::Str("".into())
        );
    }

    #[test]
    fn min_max_over_empty_float_input_stays_float() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o")
            .filter(Expr::col("o.id").cmp(CmpOp::Lt, Expr::int(0)))
            .aggregate(
                &[],
                vec![AggExpr {
                    func: AggFunc::Min,
                    input: Some("o.amount".into()),
                    output: "lo".into(),
                }],
            )
            .build();
        let r = run(&c, &plan);
        // The old fallback coerced the column to Int; the typed default
        // keeps it Float.
        assert_eq!(r.batch.column("lo").expect("col").get(0), Value::Float(0.0));
    }

    #[test]
    fn min_max_over_string_groups() {
        let c = catalog();
        let plan = PlanBuilder::scan("customers", "c")
            .aggregate(
                &["c.tier"],
                vec![
                    AggExpr {
                        func: AggFunc::Min,
                        input: Some("c.id".into()),
                        output: "lo".into(),
                    },
                    AggExpr {
                        func: AggFunc::Max,
                        input: Some("c.id".into()),
                        output: "hi".into(),
                    },
                ],
            )
            .build();
        let r = run(&c, &plan);
        assert_eq!(r.batch.num_rows(), 2);
        let tier = r.batch.column("c.tier").expect("col");
        let lo = r.batch.column("lo").expect("col");
        let hi = r.batch.column("hi").expect("col");
        let gold = (0..2)
            .find(|&i| tier.get(i) == Value::Str("gold".into()))
            .expect("gold group");
        assert_eq!(lo.get(gold), Value::Int(0));
        assert_eq!(hi.get(gold), Value::Int(2));
    }

    #[test]
    fn min_max_avg_aggregates() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o").aggregate(
            &[],
            vec![
                AggExpr {
                    func: AggFunc::Min,
                    input: Some("o.amount".into()),
                    output: "lo".into(),
                },
                AggExpr {
                    func: AggFunc::Max,
                    input: Some("o.amount".into()),
                    output: "hi".into(),
                },
                AggExpr {
                    func: AggFunc::Avg,
                    input: Some("o.amount".into()),
                    output: "mean".into(),
                },
            ],
        );
        let r = run(&c, &plan.build());
        assert_eq!(r.batch.column("lo").expect("col").get(0), Value::Float(0.0));
        assert_eq!(
            r.batch.column("hi").expect("col").get(0),
            Value::Float(99.0)
        );
        assert_eq!(
            r.batch.column("mean").expect("col").get(0),
            Value::Float(49.5)
        );
    }

    #[test]
    fn computed_projection_evaluates_arithmetic() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o").project_exprs(vec![av_plan::ProjExpr {
            expr: Expr::Arith {
                op: av_plan::expr::ArithOp::Mul,
                left: Box::new(Expr::col("o.amount")),
                right: Box::new(Expr::int(2)),
            },
            alias: "double".into(),
        }]);
        let r = run(&c, &plan.build());
        assert_eq!(
            r.batch.column("double").expect("col").get(3),
            Value::Float(6.0)
        );
    }

    #[test]
    fn cost_grows_with_work() {
        let c = catalog();
        let cheap = PlanBuilder::scan("customers", "c").build();
        let pricey = PlanBuilder::scan("orders", "o")
            .join(PlanBuilder::scan("customers", "c"), &[("o.cust", "c.id")])
            .count_star(&["c.tier"], "n")
            .build();
        let rc = run(&c, &cheap);
        let rp = run(&c, &pricey);
        assert!(rp.report.cost_dollars > rc.report.cost_dollars);
        assert!(rp.report.usage.latency_seconds > 0.0);
    }

    #[test]
    fn deterministic_execution() {
        let c = catalog();
        let plan = PlanBuilder::scan("orders", "o")
            .count_star(&["o.cust"], "n")
            .build();
        let a = run(&c, &plan);
        let b = run(&c, &plan);
        assert_eq!(a.batch, b.batch);
        assert_eq!(a.report.cost_dollars, b.report.cost_dollars);
    }
}
