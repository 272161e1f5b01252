//! A recursive-descent parser for the SQL subset the workloads use.
//!
//! Supported grammar (case-insensitive keywords):
//!
//! ```text
//! query     := SELECT select_list FROM from_item (JOIN from_item ON eq_list)*
//!              (WHERE predicate)? (GROUP BY column_list)?
//! from_item := ident (ident)? | '(' query ')' ident
//! select    := '*' | item (',' item)*
//! item      := expr (AS ident)? | agg '(' ('*'|column) ')' (AS ident)?
//! ```
//!
//! Single-table WHERE conjuncts are pushed below joins onto their scan, so
//! parsed plans take the Filter-above-Scan / Join-above-Project shape shown
//! in the paper's Fig. 2.

use crate::expr::{AggExpr, AggFunc, ArithOp, CmpOp, Expr};
use crate::node::{JoinType, PlanNode, PlanRef, ProjExpr};
use crate::value::Value;
use std::fmt;

/// Parse error with byte offset into the source text.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseError {
    pub message: String,
    pub offset: usize,
}

impl fmt::Display for ParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "parse error at byte {}: {}", self.offset, self.message)
    }
}

impl std::error::Error for ParseError {}

/// Parse a SQL query into a logical plan.
pub fn parse_query(sql: &str) -> Result<PlanRef, ParseError> {
    let tokens = lex(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let plan = p.query(None)?;
    p.expect_end()?;
    Ok(plan)
}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Ident(String),
    Int(i64),
    Float(f64),
    Str(String),
    Sym(char),
    // two-char comparison symbols are folded into these
    Le,
    Ge,
    Ne,
}

struct Lexed {
    tok: Tok,
    offset: usize,
}

fn lex(sql: &str) -> Result<Vec<Lexed>, ParseError> {
    let b = sql.as_bytes();
    let mut i = 0;
    let mut out = Vec::new();
    while i < b.len() {
        let c = b[i] as char;
        if c.is_ascii_whitespace() {
            i += 1;
            continue;
        }
        let start = i;
        if c.is_ascii_alphabetic() || c == '_' {
            let mut j = i;
            while j < b.len()
                && ((b[j] as char).is_ascii_alphanumeric() || b[j] == b'_' || b[j] == b'.')
            {
                j += 1;
            }
            out.push(Lexed {
                tok: Tok::Ident(sql[i..j].to_string()),
                offset: start,
            });
            i = j;
        } else if c.is_ascii_digit() {
            let mut j = i;
            let mut is_float = false;
            while j < b.len() && ((b[j] as char).is_ascii_digit() || b[j] == b'.') {
                if b[j] == b'.' {
                    is_float = true;
                }
                j += 1;
            }
            let text = &sql[i..j];
            let tok = if is_float {
                Tok::Float(text.parse().map_err(|_| ParseError {
                    message: format!("bad float literal {text}"),
                    offset: start,
                })?)
            } else {
                Tok::Int(text.parse().map_err(|_| ParseError {
                    message: format!("bad int literal {text}"),
                    offset: start,
                })?)
            };
            out.push(Lexed { tok, offset: start });
            i = j;
        } else if c == '\'' {
            let mut j = i + 1;
            while j < b.len() && b[j] != b'\'' {
                j += 1;
            }
            if j >= b.len() {
                return Err(ParseError {
                    message: "unterminated string literal".into(),
                    offset: start,
                });
            }
            out.push(Lexed {
                tok: Tok::Str(sql[i + 1..j].to_string()),
                offset: start,
            });
            i = j + 1;
        } else if c == '<' && i + 1 < b.len() && b[i + 1] == b'=' {
            out.push(Lexed {
                tok: Tok::Le,
                offset: start,
            });
            i += 2;
        } else if c == '>' && i + 1 < b.len() && b[i + 1] == b'=' {
            out.push(Lexed {
                tok: Tok::Ge,
                offset: start,
            });
            i += 2;
        } else if (c == '<' && i + 1 < b.len() && b[i + 1] == b'>')
            || (c == '!' && i + 1 < b.len() && b[i + 1] == b'=')
        {
            out.push(Lexed {
                tok: Tok::Ne,
                offset: start,
            });
            i += 2;
        } else if "(),*=<>+-/".contains(c) {
            out.push(Lexed {
                tok: Tok::Sym(c),
                offset: start,
            });
            i += 1;
        } else {
            return Err(ParseError {
                message: format!("unexpected character {c:?}"),
                offset: start,
            });
        }
    }
    Ok(out)
}

struct Parser {
    tokens: Vec<Lexed>,
    pos: usize,
}

/// One item in the FROM clause: a plan plus the alias its columns carry.
struct FromItem {
    plan: PlanRef,
    alias: String,
}

enum SelectItem {
    Star,
    Expr(Expr, Option<String>),
    Agg(AggFunc, Option<String>, Option<String>),
}

impl Parser {
    fn peek(&self) -> Option<&Tok> {
        self.tokens.get(self.pos).map(|l| &l.tok)
    }

    fn offset(&self) -> usize {
        self.tokens
            .get(self.pos)
            .map(|l| l.offset)
            .unwrap_or(usize::MAX)
    }

    fn err<T>(&self, message: impl Into<String>) -> Result<T, ParseError> {
        Err(ParseError {
            message: message.into(),
            offset: self.offset(),
        })
    }

    fn bump(&mut self) -> Option<Tok> {
        let t = self.tokens.get(self.pos).map(|l| l.tok.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if let Some(Tok::Ident(s)) = self.peek() {
            if s.eq_ignore_ascii_case(kw) {
                self.pos += 1;
                return true;
            }
        }
        false
    }

    fn expect_kw(&mut self, kw: &str) -> Result<(), ParseError> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            self.err(format!("expected keyword {kw}"))
        }
    }

    fn eat_sym(&mut self, c: char) -> bool {
        if self.peek() == Some(&Tok::Sym(c)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_sym(&mut self, c: char) -> Result<(), ParseError> {
        if self.eat_sym(c) {
            Ok(())
        } else {
            self.err(format!("expected {c:?}"))
        }
    }

    fn ident(&mut self) -> Result<String, ParseError> {
        match self.peek() {
            Some(Tok::Ident(s)) if !is_reserved(s) => {
                let s = s.clone();
                self.pos += 1;
                Ok(s)
            }
            _ => self.err("expected identifier"),
        }
    }

    fn expect_end(&self) -> Result<(), ParseError> {
        if self.pos == self.tokens.len() {
            Ok(())
        } else {
            self.err("trailing tokens after query")
        }
    }

    /// Parse a full SELECT query. `default_alias` is used for a bare table in
    /// FROM when the query is a derived table `( ... ) alias`.
    fn query(&mut self, default_alias: Option<&str>) -> Result<PlanRef, ParseError> {
        self.expect_kw("select")?;
        let items = self.select_list()?;
        self.expect_kw("from")?;

        let mut from_items = vec![self.parse_from_item(default_alias)?];
        let mut join_conds = Vec::new();
        while self.eat_kw("join") || {
            if self.eat_kw("inner") {
                self.expect_kw("join")?;
                true
            } else {
                false
            }
        } {
            from_items.push(self.parse_from_item(None)?);
            self.expect_kw("on")?;
            join_conds.push(self.eq_list()?);
        }

        let predicate = if self.eat_kw("where") {
            Some(self.predicate()?)
        } else {
            None
        };

        let group_by = if self.eat_kw("group") {
            self.expect_kw("by")?;
            Some(self.column_list()?)
        } else {
            None
        };

        self.assemble(from_items, join_conds, predicate, group_by, items)
    }

    fn parse_from_item(&mut self, default_alias: Option<&str>) -> Result<FromItem, ParseError> {
        if self.eat_sym('(') {
            let alias_peek = None; // alias comes after the ')'
            let plan = self.query(alias_peek)?;
            self.expect_sym(')')?;
            let alias = self.ident()?;
            Ok(FromItem { plan, alias })
        } else {
            let table = self.ident()?;
            let alias = match self.peek() {
                Some(Tok::Ident(s)) if !is_reserved(s) => self.ident()?,
                _ => default_alias
                    .map(|s| s.to_string())
                    .unwrap_or_else(|| table.clone()),
            };
            Ok(FromItem {
                plan: PlanNode::TableScan {
                    table,
                    alias: alias.clone(),
                }
                .into_ref(),
                alias,
            })
        }
    }

    fn select_list(&mut self) -> Result<Vec<SelectItem>, ParseError> {
        let mut items = Vec::new();
        loop {
            if self.eat_sym('*') {
                items.push(SelectItem::Star);
            } else if let Some(Tok::Ident(s)) = self.peek() {
                if let Some(func) = agg_func(s) {
                    self.pos += 1;
                    self.expect_sym('(')?;
                    let input = if self.eat_sym('*') {
                        None
                    } else {
                        Some(self.ident()?)
                    };
                    self.expect_sym(')')?;
                    let alias = if self.eat_kw("as") {
                        Some(self.ident()?)
                    } else {
                        None
                    };
                    items.push(SelectItem::Agg(func, input, alias));
                } else {
                    let expr = self.add_expr()?;
                    let alias = if self.eat_kw("as") {
                        Some(self.ident()?)
                    } else {
                        None
                    };
                    items.push(SelectItem::Expr(expr, alias));
                }
            } else {
                return self.err("expected select item");
            }
            if !self.eat_sym(',') {
                break;
            }
        }
        Ok(items)
    }

    fn column_list(&mut self) -> Result<Vec<String>, ParseError> {
        let mut cols = vec![self.ident()?];
        while self.eat_sym(',') {
            cols.push(self.ident()?);
        }
        Ok(cols)
    }

    fn eq_list(&mut self) -> Result<Vec<(String, String)>, ParseError> {
        let mut pairs = Vec::new();
        loop {
            let l = self.ident()?;
            self.expect_sym('=')?;
            let r = self.ident()?;
            pairs.push((l, r));
            if !self.eat_kw("and") {
                break;
            }
        }
        Ok(pairs)
    }

    // predicate := and_term (OR and_term)*
    fn predicate(&mut self) -> Result<Expr, ParseError> {
        let first = self.and_term()?;
        if !self.eat_kw("or") {
            return Ok(first);
        }
        let mut terms = vec![first, self.and_term()?];
        while self.eat_kw("or") {
            terms.push(self.and_term()?);
        }
        Ok(Expr::Or(terms))
    }

    fn and_term(&mut self) -> Result<Expr, ParseError> {
        let first = self.atom()?;
        if !self.eat_kw("and") {
            return Ok(first);
        }
        let mut terms = vec![first, self.atom()?];
        while self.eat_kw("and") {
            terms.push(self.atom()?);
        }
        Ok(Expr::And(terms))
    }

    fn atom(&mut self) -> Result<Expr, ParseError> {
        if self.eat_kw("not") {
            return Ok(Expr::Not(Box::new(self.atom()?)));
        }
        if self.eat_sym('(') {
            let e = self.predicate()?;
            self.expect_sym(')')?;
            return Ok(e);
        }
        let left = self.add_expr()?;
        let op = match self.bump() {
            Some(Tok::Sym('=')) => CmpOp::Eq,
            Some(Tok::Sym('<')) => CmpOp::Lt,
            Some(Tok::Sym('>')) => CmpOp::Gt,
            Some(Tok::Le) => CmpOp::Le,
            Some(Tok::Ge) => CmpOp::Ge,
            Some(Tok::Ne) => CmpOp::Ne,
            _ => return self.err("expected comparison operator"),
        };
        let right = self.add_expr()?;
        Ok(left.cmp(op, right))
    }

    // add_expr := mul_expr (('+'|'-') mul_expr)*
    fn add_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.mul_expr()?;
        loop {
            let op = if self.eat_sym('+') {
                ArithOp::Add
            } else if self.eat_sym('-') {
                ArithOp::Sub
            } else {
                break;
            };
            let rhs = self.mul_expr()?;
            e = Expr::Arith {
                op,
                left: Box::new(e),
                right: Box::new(rhs),
            };
        }
        Ok(e)
    }

    fn mul_expr(&mut self) -> Result<Expr, ParseError> {
        let mut e = self.primary()?;
        loop {
            let op = if self.eat_sym('*') {
                ArithOp::Mul
            } else if self.eat_sym('/') {
                ArithOp::Div
            } else {
                break;
            };
            let rhs = self.primary()?;
            e = Expr::Arith {
                op,
                left: Box::new(e),
                right: Box::new(rhs),
            };
        }
        Ok(e)
    }

    fn primary(&mut self) -> Result<Expr, ParseError> {
        // Unary minus on a numeric literal.
        if self.eat_sym('-') {
            return match self.bump() {
                Some(Tok::Int(i)) => Ok(Expr::Literal(Value::Int(-i))),
                Some(Tok::Float(f)) => Ok(Expr::Literal(Value::Float(-f))),
                _ => {
                    self.pos = self.pos.saturating_sub(1);
                    self.err("expected numeric literal after '-'")
                }
            };
        }
        match self.bump() {
            Some(Tok::Ident(s)) if !is_reserved(&s) => Ok(Expr::Column(s)),
            Some(Tok::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Tok::Float(f)) => Ok(Expr::Literal(Value::Float(f))),
            Some(Tok::Str(s)) => Ok(Expr::Literal(Value::Str(s))),
            _ => {
                self.pos = self.pos.saturating_sub(1);
                self.err("expected value expression")
            }
        }
    }

    /// Assemble the parsed pieces into a plan: push single-alias WHERE
    /// conjuncts onto their FROM item, left-deep join the items, apply the
    /// residual predicate, then Aggregate or Project for the select list.
    fn assemble(
        &self,
        from_items: Vec<FromItem>,
        join_conds: Vec<Vec<(String, String)>>,
        predicate: Option<Expr>,
        group_by: Option<Vec<String>>,
        items: Vec<SelectItem>,
    ) -> Result<PlanRef, ParseError> {
        let aliases: Vec<String> = from_items.iter().map(|f| f.alias.clone()).collect();

        // Split the WHERE conjunction into per-alias pushdowns + residual.
        let mut pushed: Vec<Option<Expr>> = vec![None; from_items.len()];
        let mut residual: Option<Expr> = None;
        if let Some(pred) = predicate {
            let conjuncts = match pred {
                Expr::And(v) => v,
                other => vec![other],
            };
            for c in conjuncts {
                let owner = single_owner(&c, &aliases);
                match owner {
                    Some(idx) => {
                        pushed[idx] = Some(match pushed[idx].take() {
                            Some(p) => p.and(c),
                            None => c,
                        })
                    }
                    None => {
                        residual = Some(match residual.take() {
                            Some(p) => p.and(c),
                            None => c,
                        })
                    }
                }
            }
        }

        let mut plans: Vec<PlanRef> = Vec::with_capacity(from_items.len());
        for (item, push) in from_items.into_iter().zip(pushed) {
            let plan = match push {
                Some(p) => PlanNode::Filter {
                    input: item.plan,
                    predicate: p,
                }
                .into_ref(),
                None => item.plan,
            };
            plans.push(plan);
        }

        let mut iter = plans.into_iter();
        let Some(mut plan) = iter.next() else {
            return self.err("query has no FROM items");
        };
        for (right, on) in iter.zip(join_conds) {
            plan = PlanNode::Join {
                left: plan,
                right,
                on,
                join_type: JoinType::Inner,
            }
            .into_ref();
        }

        if let Some(p) = residual {
            plan = PlanNode::Filter {
                input: plan,
                predicate: p,
            }
            .into_ref();
        }

        // Select list → Aggregate or Project.
        let has_agg = items.iter().any(|i| matches!(i, SelectItem::Agg(..)));
        if has_agg || group_by.is_some() {
            let group_by = group_by.unwrap_or_default();
            let mut aggs = Vec::new();
            for item in &items {
                match item {
                    SelectItem::Agg(func, input, alias) => {
                        let output = alias.clone().unwrap_or_else(|| {
                            format!("{}_{}", func.keyword().to_lowercase(), aggs.len())
                        });
                        aggs.push(AggExpr {
                            func: *func,
                            input: input.clone(),
                            output,
                        });
                    }
                    SelectItem::Expr(Expr::Column(c), _) => {
                        if !group_by.contains(c) {
                            return self
                                .err(format!("non-aggregated column {c} must appear in GROUP BY"));
                        }
                    }
                    SelectItem::Expr(..) => {
                        return self.err("computed select items not allowed with GROUP BY")
                    }
                    SelectItem::Star => return self.err("SELECT * not allowed with aggregation"),
                }
            }
            plan = PlanNode::Aggregate {
                input: plan,
                group_by,
                aggs,
            }
            .into_ref();
        } else if !items.iter().any(|i| matches!(i, SelectItem::Star)) {
            let mut exprs = Vec::with_capacity(items.len());
            for item in items {
                // `has_agg` and the Star scan above make these arms
                // impossible, but a typed error beats a panic if the
                // select-list grammar ever grows.
                let SelectItem::Expr(expr, alias) = item else {
                    return self.err("aggregate or * mixed into a plain select list");
                };
                let alias = alias.unwrap_or_else(|| match &expr {
                    Expr::Column(c) => c.clone(),
                    other => other.to_string(),
                });
                exprs.push(ProjExpr { expr, alias });
            }
            plan = PlanNode::Project { input: plan, exprs }.into_ref();
        }
        Ok(plan)
    }
}

/// If every column in `e` belongs to exactly one alias, return its index.
fn single_owner(e: &Expr, aliases: &[String]) -> Option<usize> {
    let cols = e.referenced_columns();
    if cols.is_empty() {
        return None;
    }
    let mut owner: Option<usize> = None;
    for c in cols {
        let prefix = c.split('.').next()?;
        let idx = aliases.iter().position(|a| a == prefix)?;
        match owner {
            None => owner = Some(idx),
            Some(o) if o == idx => {}
            Some(_) => return None,
        }
    }
    owner
}

fn agg_func(s: &str) -> Option<AggFunc> {
    match s.to_ascii_lowercase().as_str() {
        "count" => Some(AggFunc::Count),
        "sum" => Some(AggFunc::Sum),
        "min" => Some(AggFunc::Min),
        "max" => Some(AggFunc::Max),
        "avg" => Some(AggFunc::Avg),
        _ => None,
    }
}

fn is_reserved(s: &str) -> bool {
    matches!(
        s.to_ascii_lowercase().as_str(),
        "select"
            | "from"
            | "where"
            | "group"
            | "by"
            | "join"
            | "inner"
            | "on"
            | "and"
            | "or"
            | "not"
            | "as"
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::node::PlanNode;

    #[test]
    fn parses_fig2_query_shape() {
        let sql = "select t1.user_id, count(*) as cnt from ( \
                     select t1.user_id, t1.memo from user_memo t1 \
                     where t1.dt = '1010' and t1.memo_type = 'pen' ) t1 \
                   inner join ( \
                     select t2.user_id, t2.action from user_action t2 \
                     where t2.type = 1 and t2.dt = '1010' ) t2 \
                   on t1.user_id = t2.user_id \
                   group by t1.user_id";
        let plan = parse_query(sql).expect("fig2 query parses");
        let s = plan.display_indent();
        assert!(s.starts_with("Aggregate"));
        assert!(s.contains("Join"));
        assert_eq!(s.matches("Project").count(), 2);
        assert_eq!(s.matches("Filter").count(), 2);
        assert_eq!(s.matches("TableScan").count(), 2);
    }

    #[test]
    fn pushes_single_table_predicates_below_join() {
        let plan = parse_query(
            "select a.x, b.y from t1 a join t2 b on a.id = b.id \
             where a.x > 5 and b.y = 'k'",
        )
        .expect("parses");
        // Expected shape: Project → Join → (Filter→Scan, Filter→Scan)
        if let PlanNode::Project { input, .. } = plan.node() {
            if let PlanNode::Join { left, right, .. } = input.node() {
                assert!(matches!(left.node(), PlanNode::Filter { .. }));
                assert!(matches!(right.node(), PlanNode::Filter { .. }));
                return;
            }
        }
        panic!("unexpected shape:\n{}", plan.display_indent());
    }

    #[test]
    fn cross_table_predicate_stays_above_join() {
        let plan = parse_query("select a.x from t1 a join t2 b on a.id = b.id where a.x > b.y")
            .expect("parses");
        if let PlanNode::Project { input, .. } = plan.node() {
            assert!(matches!(input.node(), PlanNode::Filter { .. }));
        } else {
            panic!("expected project root");
        }
    }

    #[test]
    fn select_star_produces_no_project() {
        let plan = parse_query("select * from t1 a where a.x = 1").expect("parses");
        assert!(matches!(plan.node(), PlanNode::Filter { .. }));
    }

    #[test]
    fn aggregate_without_group_by() {
        let plan = parse_query("select count(*) as n from t a").expect("parses");
        match plan.node() {
            PlanNode::Aggregate { group_by, aggs, .. } => {
                assert!(group_by.is_empty());
                assert_eq!(aggs[0].output, "n");
            }
            other => panic!("expected aggregate, got {other:?}"),
        }
    }

    #[test]
    fn default_alias_is_table_name() {
        let plan = parse_query("select user_memo.x from user_memo").expect("parses");
        let mut found = false;
        plan.visit_preorder(&mut |n| {
            if let PlanNode::TableScan { alias, .. } = n {
                assert_eq!(alias, "user_memo");
                found = true;
            }
        });
        assert!(found);
    }

    #[test]
    fn rejects_unaggregated_column_outside_group_by() {
        let err = parse_query("select a.x, count(*) as n from t a group by a.y")
            .expect_err("must reject");
        assert!(err.message.contains("GROUP BY"));
    }

    #[test]
    fn rejects_trailing_garbage() {
        assert!(parse_query("select a.x from t a extra").is_err());
    }

    #[test]
    fn rejects_unterminated_string() {
        assert!(parse_query("select a.x from t a where a.s = 'oops").is_err());
    }

    #[test]
    fn parses_comparison_operators() {
        for (op_text, kw) in [
            ("=", "EQ"),
            ("<", "LT"),
            (">", "GT"),
            ("<=", "LE"),
            (">=", "GE"),
            ("<>", "NE"),
            ("!=", "NE"),
        ] {
            let plan =
                parse_query(&format!("select a.x from t a where a.x {op_text} 3")).expect("parses");
            assert!(
                plan.display_indent().contains(kw),
                "{op_text} should render as {kw}"
            );
        }
    }

    #[test]
    fn parses_or_and_not_predicates() {
        let plan = parse_query("select a.x from t a where not (a.x = 1 or a.y = 2) and a.z = 3")
            .expect("parses");
        let s = plan.display_indent();
        assert!(s.contains("NOT(OR("));
        assert!(s.contains("EQ(a.z, 3)"));
    }

    #[test]
    fn parses_arithmetic_in_predicates() {
        let plan = parse_query("select a.x from t a where a.x + 1 > a.y * 2").expect("parses");
        assert!(plan
            .display_indent()
            .contains("GT(ADD(a.x, 1), MUL(a.y, 2))"));
    }
}
