//! Expression language: column references, literals, comparisons, boolean
//! connectives and arithmetic.

use crate::value::Value;
use serde::{Deserialize, Serialize};
use std::fmt;

/// Comparison operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum CmpOp {
    Eq,
    Ne,
    Lt,
    Le,
    Gt,
    Ge,
}

impl CmpOp {
    /// The operator with its operands swapped (`a < b` ⇔ `b > a`).
    pub fn flipped(self) -> CmpOp {
        match self {
            CmpOp::Eq => CmpOp::Eq,
            CmpOp::Ne => CmpOp::Ne,
            CmpOp::Lt => CmpOp::Gt,
            CmpOp::Le => CmpOp::Ge,
            CmpOp::Gt => CmpOp::Lt,
            CmpOp::Ge => CmpOp::Le,
        }
    }

    /// Keyword used in feature rows and display, matching the paper's plan
    /// rendering (`EQ(dt, '1010')`).
    pub fn keyword(self) -> &'static str {
        match self {
            CmpOp::Eq => "EQ",
            CmpOp::Ne => "NE",
            CmpOp::Lt => "LT",
            CmpOp::Le => "LE",
            CmpOp::Gt => "GT",
            CmpOp::Ge => "GE",
        }
    }

    /// Apply the comparison under SQL semantics (NULL compares to nothing).
    pub fn apply(self, a: &Value, b: &Value) -> bool {
        if a.is_null() || b.is_null() {
            return false;
        }
        match self {
            CmpOp::Eq => a.sql_eq(b),
            CmpOp::Ne => !a.sql_eq(b),
            CmpOp::Lt => a.total_cmp(b).is_lt(),
            CmpOp::Le => a.total_cmp(b).is_le(),
            CmpOp::Gt => a.total_cmp(b).is_gt(),
            CmpOp::Ge => a.total_cmp(b).is_ge(),
        }
    }
}

/// Arithmetic operators.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ArithOp {
    Add,
    Sub,
    Mul,
    Div,
}

impl ArithOp {
    /// Keyword used in feature rows and display.
    pub fn keyword(self) -> &'static str {
        match self {
            ArithOp::Add => "ADD",
            ArithOp::Sub => "SUB",
            ArithOp::Mul => "MUL",
            ArithOp::Div => "DIV",
        }
    }

    /// Apply the operator to two values: NULL when either is not numeric
    /// or on division by zero; an integer when both inputs are integers,
    /// the operator is not `Div` and the result is whole; a float
    /// otherwise.
    #[inline]
    pub fn apply(self, l: &Value, r: &Value) -> Value {
        let (Some(a), Some(b)) = (l.as_f64(), r.as_f64()) else {
            return Value::Null;
        };
        let out = match self {
            ArithOp::Add => a + b,
            ArithOp::Sub => a - b,
            ArithOp::Mul => a * b,
            ArithOp::Div => {
                if b == 0.0 {
                    return Value::Null;
                }
                a / b
            }
        };
        if matches!((l, r), (Value::Int(_), Value::Int(_)))
            && out.fract() == 0.0
            && self != ArithOp::Div
        {
            Value::Int(out as i64)
        } else {
            Value::Float(out)
        }
    }
}

/// A scalar expression over named columns.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Expr {
    /// Reference to a column by qualified name (e.g. `t1.user_id`).
    Column(String),
    /// Literal constant.
    Literal(Value),
    /// Binary comparison.
    Cmp {
        op: CmpOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
    /// N-ary conjunction.
    And(Vec<Expr>),
    /// N-ary disjunction.
    Or(Vec<Expr>),
    /// Negation.
    Not(Box<Expr>),
    /// Binary arithmetic.
    Arith {
        op: ArithOp,
        left: Box<Expr>,
        right: Box<Expr>,
    },
}

impl Expr {
    /// Convenience constructor for a column reference.
    pub fn col(name: impl Into<String>) -> Expr {
        Expr::Column(name.into())
    }

    /// Convenience constructor for an integer literal.
    pub fn int(v: i64) -> Expr {
        Expr::Literal(Value::Int(v))
    }

    /// Convenience constructor for a string literal.
    pub fn str(v: impl Into<String>) -> Expr {
        Expr::Literal(Value::Str(v.into()))
    }

    /// Build `self op other`.
    pub fn cmp(self, op: CmpOp, other: Expr) -> Expr {
        Expr::Cmp {
            op,
            left: Box::new(self),
            right: Box::new(other),
        }
    }

    /// Build `self = other`.
    pub fn eq(self, other: Expr) -> Expr {
        self.cmp(CmpOp::Eq, other)
    }

    /// Conjoin two predicates, flattening nested ANDs.
    pub fn and(self, other: Expr) -> Expr {
        let mut parts = Vec::new();
        for e in [self, other] {
            match e {
                Expr::And(v) => parts.extend(v),
                other => parts.push(other),
            }
        }
        Expr::And(parts)
    }

    /// All column names referenced by this expression, in first-seen order.
    pub fn referenced_columns(&self) -> Vec<String> {
        let mut out = Vec::new();
        self.visit_columns(&mut |c| {
            if !out.iter().any(|o| o == c) {
                out.push(c.to_string());
            }
        });
        out
    }

    fn visit_columns(&self, f: &mut dyn FnMut(&str)) {
        match self {
            Expr::Column(c) => f(c),
            Expr::Literal(_) => {}
            Expr::Cmp { left, right, .. } | Expr::Arith { left, right, .. } => {
                left.visit_columns(f);
                right.visit_columns(f);
            }
            Expr::And(v) | Expr::Or(v) => v.iter().for_each(|e| e.visit_columns(f)),
            Expr::Not(e) => e.visit_columns(f),
        }
    }

    /// Evaluate the expression against a row, where `resolve` maps a column
    /// name to its value. The engine's executor evaluates bound column
    /// indices instead, through the same [`CmpOp::apply`] and
    /// [`ArithOp::apply`]; this by-name form serves the property tests
    /// (`av-equiv` checks that canonicalization keeps every predicate's
    /// value).
    pub fn eval(&self, resolve: &dyn Fn(&str) -> Value) -> Value {
        match self {
            Expr::Column(c) => resolve(c),
            Expr::Literal(v) => v.clone(),
            Expr::Cmp { op, left, right } => {
                let l = left.eval(resolve);
                let r = right.eval(resolve);
                Value::Int(op.apply(&l, &r) as i64)
            }
            Expr::And(v) => Value::Int(v.iter().all(|e| e.eval_bool(resolve)) as i64),
            Expr::Or(v) => Value::Int(v.iter().any(|e| e.eval_bool(resolve)) as i64),
            Expr::Not(e) => Value::Int(!e.eval_bool(resolve) as i64),
            Expr::Arith { op, left, right } => op.apply(&left.eval(resolve), &right.eval(resolve)),
        }
    }

    /// Evaluate as a boolean predicate; NULL and non-truthy values are false.
    pub fn eval_bool(&self, resolve: &dyn Fn(&str) -> Value) -> bool {
        match self.eval(resolve) {
            Value::Int(i) => i != 0,
            Value::Float(f) => f != 0.0,
            _ => false,
        }
    }
}

impl fmt::Display for Expr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Expr::Column(c) => write!(f, "{c}"),
            Expr::Literal(v) => write!(f, "{v}"),
            Expr::Cmp { op, left, right } => {
                write!(f, "{}({left}, {right})", op.keyword())
            }
            Expr::And(v) => {
                write!(f, "AND(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Or(v) => {
                write!(f, "OR(")?;
                for (i, e) in v.iter().enumerate() {
                    if i > 0 {
                        write!(f, ", ")?;
                    }
                    write!(f, "{e}")?;
                }
                write!(f, ")")
            }
            Expr::Not(e) => write!(f, "NOT({e})"),
            Expr::Arith { op, left, right } => {
                write!(f, "{}({left}, {right})", op.keyword())
            }
        }
    }
}

/// Aggregate functions supported by the `Aggregate` operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum AggFunc {
    Count,
    Sum,
    Min,
    Max,
    Avg,
}

impl AggFunc {
    /// Keyword used in feature rows and display (`COUNT`, `SUM`, ...).
    pub fn keyword(self) -> &'static str {
        match self {
            AggFunc::Count => "COUNT",
            AggFunc::Sum => "SUM",
            AggFunc::Min => "MIN",
            AggFunc::Max => "MAX",
            AggFunc::Avg => "AVG",
        }
    }
}

/// One aggregate output: `func(input_column) AS output_name`.
///
/// `COUNT(*)` is represented with `input: None`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct AggExpr {
    pub func: AggFunc,
    pub input: Option<String>,
    pub output: String,
}

impl fmt::Display for AggExpr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match &self.input {
            Some(c) => write!(f, "{}=[{}({})]", self.output, self.func.keyword(), c),
            None => write!(f, "{}=[{}()]", self.output, self.func.keyword()),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row<'a>(resolve: &'a [(&'a str, Value)]) -> impl Fn(&str) -> Value + 'a {
        move |c: &str| {
            resolve
                .iter()
                .find(|(n, _)| *n == c)
                .map(|(_, v)| v.clone())
                .unwrap_or(Value::Null)
        }
    }

    #[test]
    fn cmp_flip_is_involutive_on_ordering_ops() {
        for op in [
            CmpOp::Lt,
            CmpOp::Le,
            CmpOp::Gt,
            CmpOp::Ge,
            CmpOp::Eq,
            CmpOp::Ne,
        ] {
            assert_eq!(op.flipped().flipped(), op);
        }
    }

    #[test]
    fn eval_comparison_and_conjunction() {
        let e = Expr::col("a")
            .cmp(CmpOp::Gt, Expr::int(3))
            .and(Expr::col("b").eq(Expr::str("x")));
        let r = [("a", Value::Int(5)), ("b", Value::Str("x".into()))];
        assert!(e.eval_bool(&row(&r)));
        let r2 = [("a", Value::Int(2)), ("b", Value::Str("x".into()))];
        assert!(!e.eval_bool(&row(&r2)));
    }

    #[test]
    fn and_flattens_nested_conjunctions() {
        let e = Expr::col("a")
            .eq(Expr::int(1))
            .and(Expr::col("b").eq(Expr::int(2)))
            .and(Expr::col("c").eq(Expr::int(3)));
        match e {
            Expr::And(v) => assert_eq!(v.len(), 3),
            other => panic!("expected flattened And, got {other:?}"),
        }
    }

    #[test]
    fn null_comparisons_are_false() {
        let e = Expr::col("a").eq(Expr::int(1));
        assert!(!e.eval_bool(&row(&[("a", Value::Null)])));
        let ne = Expr::col("a").cmp(CmpOp::Ne, Expr::int(1));
        assert!(!ne.eval_bool(&row(&[("a", Value::Null)])));
    }

    #[test]
    fn division_by_zero_yields_null() {
        let e = Expr::Arith {
            op: ArithOp::Div,
            left: Box::new(Expr::int(1)),
            right: Box::new(Expr::int(0)),
        };
        assert!(e.eval(&row(&[])).is_null());
    }

    #[test]
    fn display_uses_prefix_notation() {
        let e = Expr::col("dt")
            .eq(Expr::str("1010"))
            .and(Expr::col("memo_type").eq(Expr::str("pen")));
        assert_eq!(e.to_string(), "AND(EQ(dt, '1010'), EQ(memo_type, 'pen'))");
    }

    #[test]
    fn referenced_columns_deduplicates_in_order() {
        let e = Expr::col("b")
            .eq(Expr::col("a"))
            .and(Expr::col("b").cmp(CmpOp::Lt, Expr::int(4)));
        assert_eq!(
            e.referenced_columns(),
            vec!["b".to_string(), "a".to_string()]
        );
    }

    #[test]
    fn integer_arithmetic_stays_integer() {
        let e = Expr::Arith {
            op: ArithOp::Add,
            left: Box::new(Expr::int(2)),
            right: Box::new(Expr::int(3)),
        };
        assert_eq!(e.eval(&row(&[])), Value::Int(5));
    }
}
