//! Selection-vector filters over borrowed columns: compiled typed
//! predicate kernels.
//!
//! Operators exchange a [`SelBatch`]: named columns, each borrowed or owned,
//! plus an optional sorted vector of surviving row indices (`u32`). A scan's
//! columns are *borrowed* from the catalog (`Cow::Borrowed`), so nothing
//! copies a whole table; a filter leaves the columns untouched and only
//! emits or refines the selection, and a projection of plain columns keeps
//! the selection and forwards the columns it names (a borrowed column stays
//! borrowed, an owned one moves). Downstream operators consume the
//! selection directly: stacked filters refine it, aggregates iterate it,
//! and a join reads its keys through it and gathers its output columns once
//! through the composed indices. Rows are copied only where an operator
//! builds new rows (a join's output, a computed projection over a
//! selection, an aggregate's groups) or at the plan root. A
//! `Scan → Filter → Project → Aggregate` pipeline therefore copies no row
//! data at all before the aggregate's output.
//!
//! Predicates are compiled once per operator: each top-level conjunct of
//! the common `column <op> literal` shape becomes a [`Kernel`] that loops
//! over the raw `i64`/`f64`/`String` column slice with the comparison
//! operator hoisted *out* of the loop (see [`cmp_run!`]), so the inner loop
//! carries no per-row enum dispatch and builds no [`av_plan::Value`]. The
//! loops are branch-free on the verdict: each row writes its index, then
//! the write cursor advances by the verdict's 0/1.
//! Every other expression shape falls back to the interpreted
//! [`BoundExpr::eval_bool`] over exactly the same rows, so a compiled filter
//! keeps row-for-row the rows the reference mask filter keeps — the
//! equivalence the executor's property tests pin down. Kernels read columns
//! through [`Borrow<Column>`], so they run alike over a batch's owned
//! columns and over a [`SelBatch`]'s mix of borrowed and owned ones.

use crate::batch::{Column, RecordBatch};
use crate::exec::BoundExpr;
use crate::meter::CostMeter;
use av_plan::{CmpOp, Value};
use std::borrow::{Borrow, Cow};
use std::cmp::Ordering;

/// The unit of data flow between operators inside the executor: named
/// columns, each borrowed from the catalog or owned by the operator that
/// built it, plus an optional selection. `sel: None` means "all rows" (a
/// dense batch); `sel: Some(v)` means only the rows listed in `v` (ascending
/// original row indices) are live — the column data is untouched input.
#[derive(Debug)]
pub(crate) struct SelBatch<'a> {
    pub names: Vec<String>,
    pub columns: Vec<Cow<'a, Column>>,
    pub sel: Option<Vec<u32>>,
    /// Byte size the live rows occupy, or would occupy if gathered — the
    /// number the cost meter charges for this batch. Every producer already
    /// knows it (a scan from the table's statistics, every other operator
    /// from its own output charge), so no consumer re-walks the strings.
    pub bytes: usize,
}

impl<'a> SelBatch<'a> {
    /// Live (logical) row count.
    pub fn num_rows(&self) -> usize {
        match &self.sel {
            Some(s) => s.len(),
            None => self.columns.first().map_or(0, |c| c.len()),
        }
    }

    /// The live rows as an owned batch: gathers through the selection, or
    /// copies borrowed columns of a dense batch (owned ones move).
    pub fn into_batch(self) -> RecordBatch {
        let columns = match &self.sel {
            Some(sel) => self.columns.iter().map(|c| c.take_sel(sel)).collect(),
            None => self.columns.into_iter().map(Cow::into_owned).collect(),
        };
        RecordBatch {
            names: self.names,
            columns,
        }
    }
}

/// Close an operator that built `out`: charge its bytes, release the
/// `freed` input bytes, and hand `out` on with its size attached.
pub(crate) fn emit<'a>(out: RecordBatch, freed: usize, meter: &mut CostMeter) -> SelBatch<'a> {
    let bytes = out.byte_size();
    meter.alloc_bytes(bytes);
    meter.free_bytes(freed);
    SelBatch {
        names: out.names,
        columns: out.columns.into_iter().map(Cow::Owned).collect(),
        sel: None,
        bytes,
    }
}

/// `Eq`/`Ne` under SQL equality, ordering ops from a total-order verdict —
/// the split [`av_plan::CmpOp::apply`] makes. SQL equality and the total
/// order disagree on floats (`-0.0 == 0.0` but `total_cmp` says less), so
/// both verdicts are carried.
pub(crate) fn apply_ord(op: CmpOp, ord: Ordering, sql_equal: bool) -> bool {
    match op {
        CmpOp::Eq => sql_equal,
        CmpOp::Ne => !sql_equal,
        CmpOp::Lt => ord.is_lt(),
        CmpOp::Le => ord.is_le(),
        CmpOp::Gt => ord.is_gt(),
        CmpOp::Ge => ord.is_ge(),
    }
}

/// Where a conjunct's row verdicts go: a fresh selection over `0..rows`
/// (the first conjunct) or a refinement of the selection the previous
/// conjuncts left. Both loops are branch-free on the verdict: every row
/// writes its index at the cursor, and the cursor advances by the
/// verdict's 0/1.
enum Sink<'s> {
    Fill(&'s mut Vec<u32>, usize),
    Retain(&'s mut Vec<u32>),
}

impl Sink<'_> {
    #[inline]
    fn run(self, keep: impl Fn(usize) -> bool) {
        let (sel, n) = match self {
            Sink::Fill(sel, rows) => {
                *sel = vec![0; rows];
                let mut n = 0;
                for i in 0..rows {
                    sel[n] = i as u32;
                    n += usize::from(keep(i));
                }
                (sel, n)
            }
            Sink::Retain(sel) => {
                let mut n = 0;
                for r in 0..sel.len() {
                    let i = sel[r];
                    sel[n] = i;
                    n += usize::from(keep(i as usize));
                }
                (sel, n)
            }
        };
        sel.truncate(n);
    }
}

/// Expand a comparison into one specialized [`Sink::run`] loop per
/// operator: the `CmpOp` match runs once, outside the loop, and each arm
/// monomorphizes a branch-free-on-`op` row test from the `$ord`/`$eq`
/// closures.
macro_rules! cmp_run {
    ($sink:expr, $op:expr, $ord:expr, $eq:expr) => {{
        let ord = $ord;
        let eq = $eq;
        match $op {
            CmpOp::Eq => $sink.run(|r| eq(r)),
            CmpOp::Ne => $sink.run(|r| !eq(r)),
            CmpOp::Lt => $sink.run(|r| ord(r) == Ordering::Less),
            CmpOp::Le => $sink.run(|r| ord(r) != Ordering::Greater),
            CmpOp::Gt => $sink.run(|r| ord(r) == Ordering::Greater),
            CmpOp::Ge => $sink.run(|r| ord(r) != Ordering::Less),
        }
    }};
}

/// One conjunct of a compiled predicate. Typed variants replicate
/// `cmp_col_lit`'s semantics exactly (int/float promotion, `total_cmp`
/// ordering with SQL equality); `Const` covers comparisons decided at
/// compile time (NULL literals, string-vs-number type mismatches).
#[derive(Debug)]
enum Kernel {
    Const(bool),
    /// `Int column <op> Int literal`.
    IntInt {
        col: usize,
        op: CmpOp,
        lit: i64,
    },
    /// `Int column <op> Float literal`: the cell promotes to `f64`.
    IntFloat {
        col: usize,
        op: CmpOp,
        lit: f64,
    },
    /// `Float column <op> numeric literal` (int literals pre-promoted).
    Float {
        col: usize,
        op: CmpOp,
        lit: f64,
    },
    /// `Str column <op> Str literal`.
    Str {
        col: usize,
        op: CmpOp,
        lit: String,
    },
    /// Anything else: interpreted per row, same verdicts as the reference.
    General(BoundExpr),
}

impl Kernel {
    fn compile(e: BoundExpr) -> Kernel {
        if let BoundExpr::Cmp { op, left, right } = &e {
            match (left.as_ref(), right.as_ref()) {
                (BoundExpr::Col(i), BoundExpr::Lit(v)) => return Kernel::typed(*op, *i, v),
                (BoundExpr::Lit(v), BoundExpr::Col(i)) => {
                    return Kernel::typed(op.flipped(), *i, v)
                }
                _ => {}
            }
        }
        Kernel::General(e)
    }

    /// `column[col] <op> lit` with the literal's type known up front. The
    /// column's type is resolved lazily at evaluation (the kernel is always
    /// evaluated against the batch it was bound to).
    fn typed(op: CmpOp, col: usize, lit: &Value) -> Kernel {
        match lit {
            Value::Null => Kernel::Const(false),
            Value::Int(b) => Kernel::IntInt { col, op, lit: *b },
            Value::Float(b) => Kernel::IntFloat { col, op, lit: *b },
            Value::Str(s) => Kernel::Str {
                col,
                op,
                lit: s.clone(),
            },
        }
    }

    /// Resolve the column type the first time the kernel meets its batch:
    /// numeric promotions and string/number mismatches depend on it.
    fn bind<C: Borrow<Column>>(self, cols: &[C]) -> Kernel {
        match self {
            Kernel::IntInt { col, op, lit } => match cols[col].borrow() {
                Column::Int(_) => Kernel::IntInt { col, op, lit },
                Column::Float(_) => Kernel::Float {
                    col,
                    op,
                    lit: lit as f64,
                },
                // String column vs number: never SQL-equal; strings sort
                // after numbers (the reference's `cmp_col_lit` fallback).
                Column::Str(_) => Kernel::Const(apply_ord(op, Ordering::Greater, false)),
            },
            Kernel::IntFloat { col, op, lit } => match cols[col].borrow() {
                Column::Int(_) => Kernel::IntFloat { col, op, lit },
                Column::Float(_) => Kernel::Float { col, op, lit },
                Column::Str(_) => Kernel::Const(apply_ord(op, Ordering::Greater, false)),
            },
            Kernel::Str { col, op, lit } => match cols[col].borrow() {
                Column::Str(_) => Kernel::Str { col, op, lit },
                // Number column vs string literal: numbers sort before.
                _ => Kernel::Const(apply_ord(op, Ordering::Less, false)),
            },
            k => k,
        }
    }

    /// Feed this conjunct's verdict on every row of `sink` to it.
    fn run<C: Borrow<Column>>(&self, cols: &[C], sink: Sink) {
        const BOUND: &str = "kernel bound to these columns";
        match self {
            Kernel::Const(keep) => sink.run(|_| *keep),
            Kernel::IntInt { col, op, lit } => {
                let Column::Int(d) = cols[*col].borrow() else {
                    unreachable!("{BOUND}")
                };
                let lit = *lit;
                cmp_run!(sink, *op, |r: usize| d[r].cmp(&lit), |r: usize| d[r] == lit)
            }
            Kernel::IntFloat { col, op, lit } => {
                let Column::Int(d) = cols[*col].borrow() else {
                    unreachable!("{BOUND}")
                };
                let lit = *lit;
                cmp_run!(
                    sink,
                    *op,
                    |r: usize| (d[r] as f64).total_cmp(&lit),
                    |r: usize| d[r] as f64 == lit
                )
            }
            Kernel::Float { col, op, lit } => {
                let Column::Float(d) = cols[*col].borrow() else {
                    unreachable!("{BOUND}")
                };
                let lit = *lit;
                cmp_run!(sink, *op, |r: usize| d[r].total_cmp(&lit), |r: usize| d[r]
                    == lit)
            }
            Kernel::Str { col, op, lit } => {
                let Column::Str(d) = cols[*col].borrow() else {
                    unreachable!("{BOUND}")
                };
                let lit = lit.as_str();
                cmp_run!(sink, *op, |r: usize| d[r].as_str().cmp(lit), |r: usize| d
                    [r]
                    == lit)
            }
            Kernel::General(e) => sink.run(|r| e.eval_bool(cols, r)),
        }
    }
}

/// A predicate compiled to a conjunction of [`Kernel`]s. The first conjunct
/// fills a fresh selection; the rest refine it, so later conjuncts only
/// touch rows the earlier ones kept — the columnar analogue of the
/// reference path's per-row short-circuit, producing the identical row set.
#[derive(Debug)]
pub(crate) struct CompiledPred {
    kernels: Vec<Kernel>,
}

impl CompiledPred {
    /// Compile a bound predicate against the columns it was bound to.
    /// Top-level conjunctions are flattened; each conjunct becomes a typed
    /// kernel when it is a `column <op> literal`, an interpreted fallback
    /// otherwise.
    pub fn compile<C: Borrow<Column>>(bound: BoundExpr, cols: &[C]) -> CompiledPred {
        fn flatten<C: Borrow<Column>>(e: BoundExpr, cols: &[C], out: &mut Vec<Kernel>) {
            match e {
                BoundExpr::And(v) => {
                    for c in v {
                        flatten(c, cols, out);
                    }
                }
                other => out.push(Kernel::compile(other).bind(cols)),
            }
        }
        let mut kernels = Vec::new();
        flatten(bound, cols, &mut kernels);
        CompiledPred { kernels }
    }

    /// Rows of `0..rows` kept by every conjunct, ascending.
    pub fn eval_dense<C: Borrow<Column>>(&self, cols: &[C], rows: usize) -> Vec<u32> {
        let Some((first, rest)) = self.kernels.split_first() else {
            // Empty conjunction (`And([])`) keeps everything, like the
            // reference's vacuous `all()`.
            return (0..rows as u32).collect();
        };
        let mut sel = Vec::new();
        first.run(cols, Sink::Fill(&mut sel, rows));
        refine(rest, cols, sel)
    }

    /// Candidates of `cands` kept by every conjunct, in order.
    pub fn eval_sel<C: Borrow<Column>>(&self, cols: &[C], cands: Vec<u32>) -> Vec<u32> {
        refine(&self.kernels, cols, cands)
    }
}

/// Narrow `sel` by each of `kernels` in turn, stopping once it is empty.
fn refine<C: Borrow<Column>>(kernels: &[Kernel], cols: &[C], mut sel: Vec<u32>) -> Vec<u32> {
    for k in kernels {
        if sel.is_empty() {
            break;
        }
        k.run(cols, Sink::Retain(&mut sel));
    }
    sel
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_plan::Expr;

    fn batch() -> RecordBatch {
        RecordBatch {
            names: vec!["t.i".into(), "t.f".into(), "t.s".into()],
            columns: vec![
                Column::Int(vec![-2, -1, 0, 1, 2, 3]),
                Column::Float(vec![-0.0, 0.0, 1.5, f64::NAN, 2.5, -3.0]),
                Column::str(
                    ["a", "bb", "c", "", "bb", "z"]
                        .iter()
                        .map(|s| s.to_string())
                        .collect(),
                ),
            ],
        }
    }

    /// Compiled verdicts must match the interpreted reference row for row.
    fn assert_matches_reference(expr: &Expr) {
        let b = batch();
        let bound = BoundExpr::bind(expr, &b.names).expect("binds");
        let reference: Vec<u32> = (0..b.num_rows())
            .filter(|&r| bound.eval_bool(&b.columns, r))
            .map(|r| r as u32)
            .collect();
        let pred = CompiledPred::compile(bound, &b.columns);
        assert_eq!(
            pred.eval_dense(&b.columns, b.num_rows()),
            reference,
            "dense eval of {expr:?}"
        );
        // Refinement over a partial candidate list keeps the same subset.
        let cands: Vec<u32> = (0..b.num_rows() as u32).step_by(2).collect();
        let expect: Vec<u32> = cands
            .iter()
            .copied()
            .filter(|c| reference.contains(c))
            .collect();
        assert_eq!(
            pred.eval_sel(&b.columns, cands),
            expect,
            "sel eval of {expr:?}"
        );
    }

    #[test]
    fn typed_kernels_match_interpreted_eval() {
        let ops = [
            CmpOp::Eq,
            CmpOp::Ne,
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
        ];
        for op in ops {
            assert_matches_reference(&Expr::col("t.i").cmp(op, Expr::int(1)));
            assert_matches_reference(&Expr::col("t.i").cmp(op, Expr::Literal(Value::Float(0.5))));
            assert_matches_reference(&Expr::col("t.f").cmp(op, Expr::int(0)));
            assert_matches_reference(&Expr::col("t.f").cmp(op, Expr::Literal(Value::Float(0.0))));
            assert_matches_reference(&Expr::col("t.s").cmp(op, Expr::str("bb")));
            // Flipped literal-column order.
            assert_matches_reference(&Expr::int(1).cmp(op, Expr::col("t.i")));
            // Type mismatches decided at compile time.
            assert_matches_reference(&Expr::col("t.s").cmp(op, Expr::int(1)));
            assert_matches_reference(&Expr::col("t.i").cmp(op, Expr::str("1")));
            assert_matches_reference(&Expr::col("t.f").cmp(op, Expr::Literal(Value::Null)));
        }
    }

    #[test]
    fn conjunctions_and_fallbacks_match_interpreted_eval() {
        let p = Expr::col("t.i").cmp(CmpOp::Gt, Expr::int(-1));
        let q = Expr::col("t.f").cmp(CmpOp::Le, Expr::Literal(Value::Float(2.0)));
        let r = Expr::col("t.s").cmp(CmpOp::Ne, Expr::str("c"));
        assert_matches_reference(&p.clone().and(q.clone()));
        assert_matches_reference(&p.clone().and(q.clone()).and(r.clone()));
        // Or / Not fall back to the interpreted kernel.
        assert_matches_reference(&Expr::Or(vec![p.clone(), q.clone()]));
        assert_matches_reference(&Expr::Not(Box::new(p.clone())).and(r));
        // Column-vs-column comparison is a general kernel too.
        assert_matches_reference(&Expr::col("t.i").cmp(CmpOp::Lt, Expr::col("t.f")));
    }

    #[test]
    fn float_total_order_and_sql_equality_both_respected() {
        // -0.0: SQL-equal to 0.0, but total_cmp orders it below.
        assert_matches_reference(&Expr::col("t.f").eq(Expr::Literal(Value::Float(0.0))));
        assert_matches_reference(
            &Expr::col("t.f").cmp(CmpOp::Lt, Expr::Literal(Value::Float(0.0))),
        );
        // NaN cells: never SQL-equal, ordered above everything by total_cmp.
        assert_matches_reference(
            &Expr::col("t.f").cmp(CmpOp::Gt, Expr::Literal(Value::Float(1e300))),
        );
    }
}
