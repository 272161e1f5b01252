//! Semantic rewrite prover: decide, without executing anything, whether a
//! view-rewritten plan computes the same result as the original.
//!
//! [`prove_rewrite`] inlines every materialized-view scan back into its
//! defining plan (so both sides range over base tables only), then
//! normalizes each side into a *block* normal form:
//!
//! - **sources** — the base-table scans (and nested aggregate sub-blocks),
//!   alias-free, in a canonical order;
//! - **join equivalence classes** — the union-find closure of inner-join
//!   `on` pairs and `col = col` filter atoms;
//! - **predicate domains** — per equivalence class, an interval/point
//!   abstraction of the conjunctive `col ⋈ literal` atoms
//!   ([`Domain`]: eq/ne point sets plus lower/upper bounds);
//! - **opaque atoms** — every other conjunct (disjunctions, arithmetic,
//!   non-equality column comparisons), compared syntactically after class
//!   canonicalization;
//! - **output / aggregate signature** — positional output expressions with
//!   every column replaced by its class root, plus the group-by +
//!   aggregate-function shape.
//!
//! Comparing the two normal forms yields a three-valued [`Verdict`]:
//!
//! - `Proved` — the forms are equal: the rewrite returns identical results
//!   on every database instance.
//! - `Refuted { witness }` — a concrete separating fact was found (a value
//!   one predicate admits and the other rejects, a dropped join edge, a
//!   different aggregate); the rewrite is wrong on some instance.
//! - `Unknown { reason }` — neither. `gate_rewrite` accepts only `Proved`,
//!   so an undecided rewrite is refused, never served.
//!
//! `Refuted` is only ever returned with evidence (a separating value found
//! by probing both domains, or a structural difference that changes results
//! on some instance). Syntactic differences that *might* still be
//! equivalent (e.g. differing disjunctions) stay `Unknown`: the verdict
//! names what the prover could not decide, and the gate refuses the
//! rewrite either way.

use av_engine::{Catalog, ColumnType};
use av_equiv::canonical_fingerprint;
use av_plan::{AggFunc, CmpOp, Expr, JoinType, PlanNode, PlanRef, Value};
use std::collections::BTreeMap;
use std::fmt;

/// Outcome of a containment proof attempt.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The rewritten plan provably computes the original's result.
    Proved,
    /// The rewrite is provably wrong; `witness` describes a separating
    /// instance (a value or structural difference that changes results).
    Refuted { witness: String },
    /// The prover cannot decide; the rewrite gate refuses it.
    Unknown { reason: String },
}

impl Verdict {
    pub fn is_proved(&self) -> bool {
        matches!(self, Verdict::Proved)
    }

    pub fn is_refuted(&self) -> bool {
        matches!(self, Verdict::Refuted { .. })
    }

    pub fn label(&self) -> &'static str {
        match self {
            Verdict::Proved => "proved",
            Verdict::Refuted { .. } => "refuted",
            Verdict::Unknown { .. } => "unknown",
        }
    }
}

impl fmt::Display for Verdict {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Verdict::Proved => write!(f, "proved"),
            Verdict::Refuted { witness } => write!(f, "refuted: {witness}"),
            Verdict::Unknown { reason } => write!(f, "unknown: {reason}"),
        }
    }
}

/// Resolves a materialized view's stored table name to its defining plan.
pub type ViewDef<'a> = &'a dyn Fn(&str) -> Option<PlanRef>;

/// Prove that `rewritten` computes the same result as `original`.
///
/// `view_def` maps a view's stored-table name (the `__view_N` table a
/// rewrite scans with an empty alias) back to the view's defining plan, so
/// the proof ranges over base tables only. An unresolvable view scan yields
/// `Unknown`, never `Refuted`.
pub fn prove_rewrite(
    catalog: &Catalog,
    original: &PlanRef,
    rewritten: &PlanRef,
    view_def: ViewDef,
) -> Verdict {
    let orig = match inline_views(original, view_def, 0) {
        Ok(p) => p,
        Err(reason) => return Verdict::Unknown { reason },
    };
    let rewr = match inline_views(rewritten, view_def, 0) {
        Ok(p) => p,
        Err(reason) => return Verdict::Unknown { reason },
    };
    // Fast path: after inlining, canonical structural equality is already a
    // proof (alias renames, predicate permutations, flipped comparisons).
    if canonical_fingerprint(&orig) == canonical_fingerprint(&rewr) {
        return Verdict::Proved;
    }
    let a = match normalize_plan(catalog, &orig) {
        Ok(b) => collapse_trivial(b),
        Err(reason) => return Verdict::Unknown { reason },
    };
    let b = match normalize_plan(catalog, &rewr) {
        Ok(b) => collapse_trivial(b),
        Err(reason) => return Verdict::Unknown { reason },
    };
    compare_blocks(catalog, &a, &b)
}

// ---------------------------------------------------------------------------
// View inlining
// ---------------------------------------------------------------------------

fn inline_views(plan: &PlanRef, view_def: ViewDef, depth: usize) -> Result<PlanRef, String> {
    if depth > 8 {
        return Err("view inlining exceeded depth 8 (self-referential view?)".into());
    }
    Ok(match plan.node() {
        PlanNode::TableScan { table, alias } => {
            if alias.is_empty() {
                // Empty alias is the materialized-view scan convention.
                let def = view_def(table)
                    .ok_or_else(|| format!("view scan `{table}` has no known defining plan"))?;
                return inline_views(&def, view_def, depth + 1);
            }
            plan.clone()
        }
        PlanNode::Filter { input, predicate } => PlanNode::Filter {
            input: inline_views(input, view_def, depth)?,
            predicate: predicate.clone(),
        }
        .into_ref(),
        PlanNode::Project { input, exprs } => PlanNode::Project {
            input: inline_views(input, view_def, depth)?,
            exprs: exprs.clone(),
        }
        .into_ref(),
        PlanNode::Join {
            left,
            right,
            on,
            join_type,
        } => PlanNode::Join {
            left: inline_views(left, view_def, depth)?,
            right: inline_views(right, view_def, depth)?,
            on: on.clone(),
            join_type: *join_type,
        }
        .into_ref(),
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => PlanNode::Aggregate {
            input: inline_views(input, view_def, depth)?,
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        }
        .into_ref(),
    })
}

// ---------------------------------------------------------------------------
// Block normal form
// ---------------------------------------------------------------------------

/// One relation a block ranges over.
#[derive(Debug, Clone)]
enum Source {
    /// Base-table scan.
    Base(String),
    /// Nested aggregate subquery, normalized into its own block.
    Derived(Box<Block>),
}

/// Group-by + aggregate signature of an aggregate block.
#[derive(Debug, Clone)]
struct AggSig {
    /// (visible output name, resolved grouping expression).
    group_by: Vec<(String, Expr)>,
    /// (function, resolved input expression, output name).
    aggs: Vec<(AggFunc, Option<Expr>, String)>,
}

/// Raw normal form of one plan: sources plus the conjunctive constraint
/// soup, with every column reference rewritten to `§<source>:<column>`.
#[derive(Debug, Clone)]
struct Block {
    sources: Vec<Source>,
    /// `col = col` equalities (inner-join `on` pairs and filter atoms).
    unions: Vec<(String, String)>,
    /// `col ⋈ literal` atoms.
    ranges: Vec<(String, CmpOp, Value)>,
    /// Conjuncts outside the range/equality fragment.
    opaques: Vec<Expr>,
    /// Positional output (alias, resolved expression); empty for
    /// aggregate blocks, whose outputs live in `agg`.
    outputs: Vec<(String, Expr)>,
    agg: Option<AggSig>,
}

type Env = Vec<(String, Expr)>;

fn col_id(src: usize, key: &str) -> String {
    format!("\u{a7}{src}:{key}")
}

/// Split a `§src:key` id back into its parts.
fn parse_col_id(id: &str) -> Option<(usize, &str)> {
    let rest = id.strip_prefix('\u{a7}')?;
    let (src, key) = rest.split_once(':')?;
    src.parse().ok().map(|s| (s, key))
}

struct BlockBuilder {
    sources: Vec<Source>,
    unions: Vec<(String, String)>,
    ranges: Vec<(String, CmpOp, Value)>,
    opaques: Vec<Expr>,
}

impl BlockBuilder {
    fn new() -> BlockBuilder {
        BlockBuilder {
            sources: Vec::new(),
            unions: Vec::new(),
            ranges: Vec::new(),
            opaques: Vec::new(),
        }
    }

    /// Walk the SPJ region of `plan`, accumulating sources and constraints;
    /// returns the visible-name environment at this node.
    fn walk(&mut self, catalog: &Catalog, plan: &PlanRef) -> Result<Env, String> {
        match plan.node() {
            PlanNode::TableScan { table, alias } => {
                if alias.is_empty() {
                    return Err(format!("unresolved view scan `{table}`"));
                }
                let t = catalog
                    .table(table)
                    .ok_or_else(|| format!("unknown table `{table}`"))?;
                let s = self.sources.len();
                self.sources.push(Source::Base(table.clone()));
                Ok(t.column_names
                    .iter()
                    .map(|c| (format!("{alias}.{c}"), Expr::Column(col_id(s, c))))
                    .collect())
            }
            PlanNode::Filter { input, predicate } => {
                let env = self.walk(catalog, input)?;
                self.add_predicate(predicate, &env)?;
                Ok(env)
            }
            PlanNode::Project { input, exprs } => {
                let env = self.walk(catalog, input)?;
                exprs
                    .iter()
                    .map(|p| Ok((p.alias.clone(), resolve_expr(&p.expr, &env)?)))
                    .collect()
            }
            PlanNode::Join {
                left,
                right,
                on,
                join_type,
            } => {
                if *join_type == JoinType::Left {
                    return Err("left join is outside the proved fragment".into());
                }
                let mut env = self.walk(catalog, left)?;
                env.extend(self.walk(catalog, right)?);
                for (l, r) in on {
                    let le = resolve_col(l, &env)?;
                    let re = resolve_col(r, &env)?;
                    match (le, re) {
                        (Expr::Column(a), Expr::Column(b)) => self.unions.push((a, b)),
                        (a, b) => self.opaques.push(Expr::Cmp {
                            op: CmpOp::Eq,
                            left: Box::new(a),
                            right: Box::new(b),
                        }),
                    }
                }
                Ok(env)
            }
            PlanNode::Aggregate { group_by, aggs, .. } => {
                // A nested aggregate becomes a derived source: its own block,
                // referenced positionally.
                let inner = normalize_plan(catalog, plan)?;
                let s = self.sources.len();
                self.sources.push(Source::Derived(Box::new(inner)));
                let names: Vec<String> = group_by
                    .iter()
                    .cloned()
                    .chain(aggs.iter().map(|a| a.output.clone()))
                    .collect();
                Ok(names
                    .into_iter()
                    .enumerate()
                    .map(|(i, n)| (n, Expr::Column(col_id(s, &format!("p{i}")))))
                    .collect())
            }
        }
    }

    /// Flatten a filter predicate into conjuncts and classify each one.
    fn add_predicate(&mut self, predicate: &Expr, env: &Env) -> Result<(), String> {
        let resolved = resolve_expr(predicate, env)?;
        let normalized = av_equiv::canon::normalize_expr(&resolved);
        let conjuncts = match normalized {
            Expr::And(parts) => parts,
            other => vec![other],
        };
        for atom in conjuncts {
            match &atom {
                Expr::Cmp { op, left, right } => match (op, left.as_ref(), right.as_ref()) {
                    (CmpOp::Eq, Expr::Column(a), Expr::Column(b)) => {
                        self.unions.push((a.clone(), b.clone()));
                    }
                    (_, Expr::Column(c), Expr::Literal(v)) => {
                        self.ranges.push((c.clone(), *op, v.clone()));
                    }
                    _ => self.opaques.push(atom),
                },
                _ => self.opaques.push(atom),
            }
        }
        Ok(())
    }
}

/// First-match name lookup, mirroring the schema verifier's binding rule.
fn resolve_col(name: &str, env: &Env) -> Result<Expr, String> {
    env.iter()
        .find(|(n, _)| n == name)
        .map(|(_, e)| e.clone())
        .ok_or_else(|| format!("unbound column `{name}`"))
}

fn resolve_expr(e: &Expr, env: &Env) -> Result<Expr, String> {
    Ok(match e {
        Expr::Column(c) => resolve_col(c, env)?,
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Cmp { op, left, right } => Expr::Cmp {
            op: *op,
            left: Box::new(resolve_expr(left, env)?),
            right: Box::new(resolve_expr(right, env)?),
        },
        Expr::And(v) => Expr::And(
            v.iter()
                .map(|e| resolve_expr(e, env))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Or(v) => Expr::Or(
            v.iter()
                .map(|e| resolve_expr(e, env))
                .collect::<Result<_, _>>()?,
        ),
        Expr::Not(inner) => Expr::Not(Box::new(resolve_expr(inner, env)?)),
        Expr::Arith { op, left, right } => Expr::Arith {
            op: *op,
            left: Box::new(resolve_expr(left, env)?),
            right: Box::new(resolve_expr(right, env)?),
        },
    })
}

fn normalize_plan(catalog: &Catalog, plan: &PlanRef) -> Result<Block, String> {
    match plan.node() {
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let mut b = BlockBuilder::new();
            let env = b.walk(catalog, input)?;
            let gb = group_by
                .iter()
                .map(|g| Ok((g.clone(), resolve_col(g, &env)?)))
                .collect::<Result<Vec<_>, String>>()?;
            let agg_sig = aggs
                .iter()
                .map(|a| {
                    let input = match &a.input {
                        Some(c) => Some(resolve_col(c, &env)?),
                        None => None,
                    };
                    Ok((a.func, input, a.output.clone()))
                })
                .collect::<Result<Vec<_>, String>>()?;
            Ok(Block {
                sources: b.sources,
                unions: b.unions,
                ranges: b.ranges,
                opaques: b.opaques,
                outputs: Vec::new(),
                agg: Some(AggSig {
                    group_by: gb,
                    aggs: agg_sig,
                }),
            })
        }
        _ => {
            let mut b = BlockBuilder::new();
            let env = b.walk(catalog, plan)?;
            Ok(Block {
                sources: b.sources,
                unions: b.unions,
                ranges: b.ranges,
                opaques: b.opaques,
                outputs: env,
                agg: None,
            })
        }
    }
}

/// Unwrap trivial wrapper blocks. A root `Aggregate` normalizes into an
/// aggregate block directly, but the same aggregate reached through a
/// rename-only `Project` (the shape view inlining produces when the matched
/// subtree is the whole query) becomes a wrapper block around one derived
/// source — structurally different, semantically identical. When the wrapper
/// adds no constraints and its outputs are the inner block's positional
/// outputs in order, replace it with the inner block, carrying the wrapper's
/// visible names onto the aggregate signature.
fn collapse_trivial(mut block: Block) -> Block {
    block.sources = block
        .sources
        .into_iter()
        .map(|s| match s {
            Source::Derived(inner) => Source::Derived(Box::new(collapse_trivial(*inner))),
            base => base,
        })
        .collect();
    if block.agg.is_some()
        || block.sources.len() != 1
        || !block.unions.is_empty()
        || !block.ranges.is_empty()
        || !block.opaques.is_empty()
    {
        return block;
    }
    let arity = match &block.sources[0] {
        Source::Derived(inner) => match &inner.agg {
            Some(sig) => sig.group_by.len() + sig.aggs.len(),
            None => return block,
        },
        Source::Base(_) => return block,
    };
    let identity = block.outputs.len() == arity
        && block.outputs.iter().enumerate().all(|(i, (_, e))| match e {
            Expr::Column(c) => parse_col_id(c).is_some_and(|(s, k)| s == 0 && k == format!("p{i}")),
            _ => false,
        });
    if !identity {
        return block;
    }
    let Some(Source::Derived(inner)) = block.sources.pop() else {
        unreachable!("checked above");
    };
    let mut inner = *inner;
    let sig = inner.agg.as_mut().expect("derived source is an aggregate");
    for (i, (name, _)) in block.outputs.iter().enumerate() {
        if i < sig.group_by.len() {
            sig.group_by[i].0 = name.clone();
        } else {
            let j = i - sig.group_by.len();
            sig.aggs[j].2 = name.clone();
        }
    }
    inner
}

// ---------------------------------------------------------------------------
// Predicate domains
// ---------------------------------------------------------------------------

fn veq(a: &Value, b: &Value) -> bool {
    a.total_cmp(b).is_eq()
}

/// Interval/point abstraction of the conjunctive `col ⋈ literal` atoms on
/// one equivalence class. `None` bounds are unconstrained; the `bool` marks
/// an inclusive bound.
#[derive(Debug, Clone, Default)]
struct Domain {
    eqs: Vec<Value>,
    nes: Vec<Value>,
    lo: Option<(Value, bool)>,
    hi: Option<(Value, bool)>,
}

impl Domain {
    fn add(&mut self, op: CmpOp, v: Value, int_class: bool) {
        // On provably integer columns, strict bounds close up (`< 5` ⇔
        // `≤ 4`) so syntactically different but equal constraints unify.
        let int_shift = |v: &Value, d: i64| match v {
            Value::Int(i) if int_class => Some(Value::Int(i + d)),
            _ => None,
        };
        match op {
            CmpOp::Eq => {
                if !self.eqs.iter().any(|e| veq(e, &v)) {
                    self.eqs.push(v);
                }
            }
            CmpOp::Ne => {
                if !self.nes.iter().any(|e| veq(e, &v)) {
                    self.nes.push(v);
                }
            }
            CmpOp::Lt => match int_shift(&v, -1) {
                Some(c) => self.tighten_hi(c, true),
                None => self.tighten_hi(v, false),
            },
            CmpOp::Le => self.tighten_hi(v, true),
            CmpOp::Gt => match int_shift(&v, 1) {
                Some(c) => self.tighten_lo(c, true),
                None => self.tighten_lo(v, false),
            },
            CmpOp::Ge => self.tighten_lo(v, true),
        }
    }

    fn tighten_lo(&mut self, v: Value, inclusive: bool) {
        let replace = match &self.lo {
            None => true,
            Some((cur, cur_inc)) => match v.total_cmp(cur) {
                std::cmp::Ordering::Greater => true,
                std::cmp::Ordering::Equal => *cur_inc && !inclusive,
                std::cmp::Ordering::Less => false,
            },
        };
        if replace {
            self.lo = Some((v, inclusive));
        }
    }

    fn tighten_hi(&mut self, v: Value, inclusive: bool) {
        let replace = match &self.hi {
            None => true,
            Some((cur, cur_inc)) => match v.total_cmp(cur) {
                std::cmp::Ordering::Less => true,
                std::cmp::Ordering::Equal => *cur_inc && !inclusive,
                std::cmp::Ordering::Greater => false,
            },
        };
        if replace {
            self.hi = Some((v, inclusive));
        }
    }

    fn is_trivial(&self) -> bool {
        self.eqs.is_empty() && self.nes.is_empty() && self.lo.is_none() && self.hi.is_none()
    }

    /// Would a (non-null) value satisfy every atom folded into this domain?
    fn contains(&self, v: &Value) -> bool {
        if v.is_null() {
            return false;
        }
        if !self.eqs.iter().all(|e| veq(e, v)) {
            return false;
        }
        if self.nes.iter().any(|e| veq(e, v)) {
            return false;
        }
        if let Some((lo, inc)) = &self.lo {
            let ord = v.total_cmp(lo);
            if ord.is_lt() || (ord.is_eq() && !inc) {
                return false;
            }
        }
        if let Some((hi, inc)) = &self.hi {
            let ord = v.total_cmp(hi);
            if ord.is_gt() || (ord.is_eq() && !inc) {
                return false;
            }
        }
        true
    }

    /// The conjunction admits no value at all (e.g. two distinct `=` atoms).
    fn is_unsat(&self) -> bool {
        if let Some(e) = self.eqs.first() {
            return !self.contains(e);
        }
        if let (Some((lo, lo_inc)), Some((hi, hi_inc))) = (&self.lo, &self.hi) {
            let ord = lo.total_cmp(hi);
            if ord.is_gt() || (ord.is_eq() && !(*lo_inc && *hi_inc)) {
                return true;
            }
        }
        false
    }

    fn sorted(&self) -> Domain {
        let mut d = self.clone();
        d.eqs.sort_by(|a, b| a.total_cmp(b));
        d.nes.sort_by(|a, b| a.total_cmp(b));
        d
    }

    fn structurally_eq(&self, other: &Domain) -> bool {
        let (a, b) = (self.sorted(), other.sorted());
        let bound_eq = |x: &Option<(Value, bool)>, y: &Option<(Value, bool)>| match (x, y) {
            (None, None) => true,
            (Some((v, i)), Some((w, j))) => veq(v, w) && i == j,
            _ => false,
        };
        a.eqs.len() == b.eqs.len()
            && a.eqs.iter().zip(&b.eqs).all(|(x, y)| veq(x, y))
            && a.nes.len() == b.nes.len()
            && a.nes.iter().zip(&b.nes).all(|(x, y)| veq(x, y))
            && bound_eq(&a.lo, &b.lo)
            && bound_eq(&a.hi, &b.hi)
    }

    fn constants(&self) -> Vec<Value> {
        let mut out: Vec<Value> = self.eqs.iter().chain(&self.nes).cloned().collect();
        if let Some((v, _)) = &self.lo {
            out.push(v.clone());
        }
        if let Some((v, _)) = &self.hi {
            out.push(v.clone());
        }
        out
    }

    fn render(&self) -> String {
        let d = self.sorted();
        format!("eq{:?} ne{:?} lo{:?} hi{:?}", d.eqs, d.nes, d.lo, d.hi)
    }
}

/// Candidate separating values for a pair of domains: the constants of both
/// plus, type-permitting, neighbours and midpoints. Fractional candidates
/// are only synthesized when the class is provably `Float` (a fractional
/// witness on an integer column would be unsound).
fn witness_candidates(a: &Domain, b: &Domain, ty: Option<ColumnType>) -> Vec<Value> {
    let mut out: Vec<Value> = Vec::new();
    let mut push = |v: Value| {
        if !out.iter().any(|o| veq(o, &v)) {
            out.push(v);
        }
    };
    let consts: Vec<Value> = a.constants().into_iter().chain(b.constants()).collect();
    let float_ok =
        ty == Some(ColumnType::Float) || consts.iter().any(|v| matches!(v, Value::Float(_)));
    for c in &consts {
        push(c.clone());
        match c {
            Value::Int(i) => {
                push(Value::Int(i - 1));
                push(Value::Int(i + 1));
                if float_ok && ty != Some(ColumnType::Int) {
                    push(Value::Float(*i as f64 - 0.5));
                    push(Value::Float(*i as f64 + 0.5));
                }
            }
            Value::Float(f) => {
                push(Value::Float(f - 1.0));
                push(Value::Float(f + 1.0));
                push(Value::Float(f - 0.5));
                push(Value::Float(f + 0.5));
            }
            Value::Str(s) => {
                push(Value::Str(format!("{s}\u{1}")));
                if !s.is_empty() {
                    push(Value::Str(s[..s.len() - 1].to_string()));
                }
            }
            Value::Null => {}
        }
    }
    // Midpoints of adjacent numeric constants separate strict/non-strict
    // bound pairs like `> 5` vs `≥ 6` on float columns.
    if float_ok && ty != Some(ColumnType::Int) {
        let mut nums: Vec<f64> = consts.iter().filter_map(|v| v.as_f64()).collect();
        nums.sort_by(|x, y| x.total_cmp(y));
        for w in nums.windows(2) {
            push(Value::Float((w[0] + w[1]) / 2.0));
        }
    }
    out
}

/// Compare two domains on one class: `Ok(true)` equal, `Ok(false)` with a
/// witness impossible to find (undecided), `Err(witness)` provably
/// different.
fn compare_domains(a: &Domain, b: &Domain, ty: Option<ColumnType>) -> Result<bool, String> {
    if a.structurally_eq(b) {
        return Ok(true);
    }
    for v in witness_candidates(a, b, ty) {
        if a.contains(&v) != b.contains(&v) {
            return Err(format!("{v:?}"));
        }
    }
    Ok(false)
}

// ---------------------------------------------------------------------------
// Rendering: canonical source order + class roots
// ---------------------------------------------------------------------------

#[derive(Debug, Clone)]
enum RSource {
    Base(String),
    Derived(String, Block),
}

/// Output / grouping expression after class-root substitution: pure column
/// references compare by class (differences refute); anything else compares
/// syntactically (differences stay unknown).
#[derive(Debug, Clone, PartialEq, Eq)]
enum RExpr {
    Col(String),
    Other(String),
}

/// Rendered aggregate signature: class-rooted group-by expressions and
/// `(function, input, output name)` triples.
type RAgg = (Vec<(String, RExpr)>, Vec<(AggFunc, Option<RExpr>, String)>);

#[derive(Debug)]
struct Rendered {
    sources: Vec<RSource>,
    /// Equivalence classes with ≥ 2 members, each sorted, the set sorted.
    classes: Vec<Vec<String>>,
    /// Class root → non-trivial domain.
    domains: Vec<(String, Domain)>,
    class_types: BTreeMap<String, Option<ColumnType>>,
    opaques: Vec<String>,
    outputs: Vec<(String, RExpr)>,
    agg: Option<RAgg>,
}

struct UnionFind {
    parent: BTreeMap<String, String>,
}

impl UnionFind {
    fn new() -> UnionFind {
        UnionFind {
            parent: BTreeMap::new(),
        }
    }

    fn find(&mut self, x: &str) -> String {
        let p = match self.parent.get(x) {
            Some(p) if p != x => p.clone(),
            _ => {
                self.parent
                    .entry(x.to_string())
                    .or_insert_with(|| x.to_string());
                return x.to_string();
            }
        };
        let root = self.find(&p);
        self.parent.insert(x.to_string(), root.clone());
        root
    }

    fn union(&mut self, a: &str, b: &str) {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra != rb {
            // Deterministic: smaller string becomes the root.
            let (keep, drop) = if ra < rb { (ra, rb) } else { (rb, ra) };
            self.parent.insert(drop, keep);
        }
    }

    fn classes(&mut self) -> BTreeMap<String, Vec<String>> {
        let keys: Vec<String> = self.parent.keys().cloned().collect();
        let mut out: BTreeMap<String, Vec<String>> = BTreeMap::new();
        for k in keys {
            let r = self.find(&k);
            out.entry(r).or_default().push(k);
        }
        out
    }
}

/// Canonical key of a derived block, used to order and align sources.
fn block_key(catalog: &Catalog, b: &Block) -> Result<String, String> {
    let perm = stable_perm(catalog, b)?;
    let r = render_block(catalog, b, &perm)?;
    Ok(rendered_key(&r))
}

fn rendered_key(r: &Rendered) -> String {
    let srcs: Vec<String> = r
        .sources
        .iter()
        .map(|s| match s {
            RSource::Base(t) => format!("b:{t}"),
            RSource::Derived(k, _) => format!("d:{k}"),
        })
        .collect();
    let doms: Vec<String> = r
        .domains
        .iter()
        .map(|(root, d)| format!("{root}={}", d.render()))
        .collect();
    format!(
        "S{srcs:?} C{:?} D{doms:?} P{:?} O{:?} A{:?}",
        r.classes, r.opaques, r.outputs, r.agg
    )
}

/// Source sort keys for canonical ordering (stable: ties keep scan
/// pre-order, which both sides of a rewrite share).
fn source_keys(catalog: &Catalog, b: &Block) -> Result<Vec<String>, String> {
    b.sources
        .iter()
        .map(|s| match s {
            Source::Base(t) => Ok(format!("b:{t}")),
            Source::Derived(inner) => Ok(format!("d:{}", block_key(catalog, inner)?)),
        })
        .collect()
}

/// The stable canonical permutation: `perm[raw] = canonical position`.
fn stable_perm(catalog: &Catalog, b: &Block) -> Result<Vec<usize>, String> {
    let keys = source_keys(catalog, b)?;
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&x, &y| keys[x].cmp(&keys[y]).then(x.cmp(&y)));
    let mut perm = vec![0usize; keys.len()];
    for (canonical, raw) in order.iter().enumerate() {
        perm[*raw] = canonical;
    }
    Ok(perm)
}

/// All permutations that differ from the stable one only inside tie groups
/// (sources with identical sort keys), capped to keep the search tiny.
fn tie_perms(catalog: &Catalog, b: &Block) -> Result<Vec<Vec<usize>>, String> {
    let keys = source_keys(catalog, b)?;
    let mut order: Vec<usize> = (0..keys.len()).collect();
    order.sort_by(|&x, &y| keys[x].cmp(&keys[y]).then(x.cmp(&y)));
    // Group canonical positions by key.
    let mut groups: Vec<Vec<usize>> = Vec::new();
    let mut i = 0;
    while i < order.len() {
        let mut j = i + 1;
        while j < order.len() && keys[order[j]] == keys[order[i]] {
            j += 1;
        }
        groups.push((i..j).collect());
        i = j;
    }
    let mut perms: Vec<Vec<usize>> = vec![order.clone()];
    for g in &groups {
        if g.len() < 2 {
            continue;
        }
        let mut next = Vec::new();
        for p in &perms {
            for gp in permutations(g) {
                if next.len() >= 24 {
                    break;
                }
                let mut q = p.clone();
                for (slot, &pos) in g.iter().zip(&gp) {
                    q[*slot] = order[pos];
                }
                next.push(q);
            }
        }
        perms = next;
        if perms.len() >= 24 {
            perms.truncate(24);
            break;
        }
    }
    // Convert each ordering back to a raw→canonical permutation.
    Ok(perms
        .into_iter()
        .map(|ord| {
            let mut perm = vec![0usize; ord.len()];
            for (canonical, raw) in ord.iter().enumerate() {
                perm[*raw] = canonical;
            }
            perm
        })
        .collect())
}

fn permutations(items: &[usize]) -> Vec<Vec<usize>> {
    if items.len() <= 1 {
        return vec![items.to_vec()];
    }
    let mut out = Vec::new();
    for (i, &first) in items.iter().enumerate() {
        let mut rest: Vec<usize> = items.to_vec();
        rest.remove(i);
        for mut tail in permutations(&rest) {
            let mut p = vec![first];
            p.append(&mut tail);
            out.push(p);
        }
    }
    out
}

fn remap_col(id: &str, perm: &[usize]) -> String {
    match parse_col_id(id) {
        Some((src, key)) if src < perm.len() => col_id(perm[src], key),
        _ => id.to_string(),
    }
}

fn remap_expr(e: &Expr, map: &dyn Fn(&str) -> String) -> Expr {
    match e {
        Expr::Column(c) => Expr::Column(map(c)),
        Expr::Literal(v) => Expr::Literal(v.clone()),
        Expr::Cmp { op, left, right } => Expr::Cmp {
            op: *op,
            left: Box::new(remap_expr(left, map)),
            right: Box::new(remap_expr(right, map)),
        },
        Expr::And(v) => Expr::And(v.iter().map(|e| remap_expr(e, map)).collect()),
        Expr::Or(v) => Expr::Or(v.iter().map(|e| remap_expr(e, map)).collect()),
        Expr::Not(inner) => Expr::Not(Box::new(remap_expr(inner, map))),
        Expr::Arith { op, left, right } => Expr::Arith {
            op: *op,
            left: Box::new(remap_expr(left, map)),
            right: Box::new(remap_expr(right, map)),
        },
    }
}

/// Type of one `§src:key` column, via the catalog for base sources.
fn col_type(catalog: &Catalog, sources: &[&Source], id: &str) -> Option<ColumnType> {
    let (src, key) = parse_col_id(id)?;
    match sources.get(src)? {
        Source::Base(t) => {
            let table = catalog.table(t)?;
            let idx = table.column_names.iter().position(|c| c == key)?;
            table.column_types.get(idx).copied()
        }
        Source::Derived(_) => None,
    }
}

fn render_block(catalog: &Catalog, b: &Block, perm: &[usize]) -> Result<Rendered, String> {
    // Canonically reordered sources.
    let mut src_slots: Vec<Option<&Source>> = vec![None; b.sources.len()];
    for (raw, s) in b.sources.iter().enumerate() {
        src_slots[perm[raw]] = Some(s);
    }
    let sources_in_order: Vec<&Source> = src_slots
        .into_iter()
        .map(|s| s.expect("permutation is a bijection"))
        .collect();
    let sources = sources_in_order
        .iter()
        .map(|s| match s {
            Source::Base(t) => Ok(RSource::Base(t.clone())),
            Source::Derived(inner) => Ok(RSource::Derived(
                block_key(catalog, inner)?,
                (**inner).clone(),
            )),
        })
        .collect::<Result<Vec<_>, String>>()?;

    // Union-find over remapped ids.
    let mut uf = UnionFind::new();
    let touch = |uf: &mut UnionFind, id: &str| {
        uf.find(id);
    };
    for (a, c) in &b.unions {
        uf.union(&remap_col(a, perm), &remap_col(c, perm));
    }
    for (c, _, _) in &b.ranges {
        touch(&mut uf, &remap_col(c, perm));
    }
    let collect_cols = |e: &Expr, uf: &mut UnionFind| {
        let mapped = remap_expr(e, &|c| remap_col(c, perm));
        for c in mapped.referenced_columns() {
            uf.find(&c);
        }
        mapped
    };
    let opaque_mapped: Vec<Expr> = b.opaques.iter().map(|e| collect_cols(e, &mut uf)).collect();
    let outputs_mapped: Vec<(String, Expr)> = b
        .outputs
        .iter()
        .map(|(a, e)| (a.clone(), collect_cols(e, &mut uf)))
        .collect();
    let agg_mapped = b.agg.as_ref().map(|sig| {
        let gb: Vec<(String, Expr)> = sig
            .group_by
            .iter()
            .map(|(a, e)| (a.clone(), collect_cols(e, &mut uf)))
            .collect();
        let aggs: Vec<(AggFunc, Option<Expr>, String)> = sig
            .aggs
            .iter()
            .map(|(f, i, o)| (*f, i.as_ref().map(|e| collect_cols(e, &mut uf)), o.clone()))
            .collect();
        (gb, aggs)
    });

    // Domains per class, with integer-closure when the class is provably Int.
    type DomainMaps = (
        BTreeMap<String, Domain>,
        BTreeMap<String, Option<ColumnType>>,
    );
    let build_domains = |uf: &mut UnionFind| -> Result<DomainMaps, String> {
        let mut types: BTreeMap<String, Option<ColumnType>> = BTreeMap::new();
        for (root, members) in uf.classes() {
            let mut ty = None;
            for m in &members {
                if let Some(t) = col_type(catalog, &sources_in_order, m) {
                    ty = Some(t);
                    break;
                }
            }
            types.insert(root, ty);
        }
        let mut domains: BTreeMap<String, Domain> = BTreeMap::new();
        for (c, op, v) in &b.ranges {
            let root = uf.find(&remap_col(c, perm));
            let int_class = types.get(&root).copied().flatten() == Some(ColumnType::Int);
            domains
                .entry(root)
                .or_default()
                .add(*op, v.clone(), int_class);
        }
        for d in domains.values() {
            if d.is_unsat() {
                return Err("unsatisfiable conjunctive predicate".into());
            }
        }
        Ok((domains, types))
    };
    let (domains, _) = build_domains(&mut uf)?;

    // Constant saturation: classes pinned to the same single `=` constant
    // hold equal values on every surviving row, so merging them is sound —
    // it keeps `x = 5 ∧ y = 5` and `x = 5 ∧ y = 5 ∧ x = y` in one form.
    let mut by_const: BTreeMap<String, Vec<String>> = BTreeMap::new();
    for (root, d) in &domains {
        if d.eqs.len() == 1 {
            by_const
                .entry(format!("{:?}", d.eqs[0]))
                .or_default()
                .push(root.clone());
        }
    }
    for group in by_const.values() {
        for pair in group.windows(2) {
            uf.union(&pair[0], &pair[1]);
        }
    }
    let (domains, class_types) = build_domains(&mut uf)?;

    // Final class partition (only classes that actually tie columns) and a
    // pure root-lookup map for expression substitution.
    let class_map = uf.classes();
    let classes: Vec<Vec<String>> = class_map
        .values()
        .filter(|m| m.len() >= 2)
        .cloned()
        .collect();
    let mut root_map: BTreeMap<String, String> = BTreeMap::new();
    for (root, members) in &class_map {
        for m in members {
            root_map.insert(m.clone(), root.clone());
        }
    }
    let find = move |c: &str| root_map.get(c).cloned().unwrap_or_else(|| c.to_string());

    let root_of = |e: &Expr| remap_expr(e, &|c| find(c));
    let rexpr = |e: &Expr| -> RExpr {
        let rooted = av_equiv::canon::normalize_expr(&root_of(e));
        match &rooted {
            Expr::Column(c) => RExpr::Col(c.clone()),
            other => RExpr::Other(other.to_string()),
        }
    };

    let mut opaques: Vec<String> = opaque_mapped
        .iter()
        .map(|e| av_equiv::canon::normalize_expr(&root_of(e)).to_string())
        .collect();
    opaques.sort();
    let outputs: Vec<(String, RExpr)> = outputs_mapped
        .iter()
        .map(|(a, e)| (a.clone(), rexpr(e)))
        .collect();
    let agg = agg_mapped.map(|(gb, aggs)| {
        (
            gb.iter().map(|(a, e)| (a.clone(), rexpr(e))).collect(),
            aggs.iter()
                .map(|(f, i, o)| (*f, i.as_ref().map(&rexpr), o.clone()))
                .collect(),
        )
    });

    Ok(Rendered {
        sources,
        classes,
        domains: domains
            .into_iter()
            .filter(|(_, d)| !d.is_trivial())
            .collect(),
        class_types,
        opaques,
        outputs,
        agg,
    })
}

// ---------------------------------------------------------------------------
// Comparison
// ---------------------------------------------------------------------------

fn compare_blocks(catalog: &Catalog, a: &Block, b: &Block) -> Verdict {
    let pa = match stable_perm(catalog, a) {
        Ok(p) => p,
        Err(reason) => return Verdict::Unknown { reason },
    };
    let ra = match render_block(catalog, a, &pa) {
        Ok(r) => r,
        Err(reason) => return Verdict::Unknown { reason },
    };
    let perms = match tie_perms(catalog, b) {
        Ok(p) => p,
        Err(reason) => return Verdict::Unknown { reason },
    };
    let mut refuted = None;
    let mut unknown = None;
    for perm in perms {
        let rb = match render_block(catalog, b, &perm) {
            Ok(r) => r,
            Err(reason) => {
                unknown.get_or_insert(reason);
                continue;
            }
        };
        match compare_rendered(catalog, &ra, &rb) {
            Verdict::Proved => return Verdict::Proved,
            Verdict::Refuted { witness } => refuted.get_or_insert(witness),
            Verdict::Unknown { reason } => unknown.get_or_insert(reason),
        };
    }
    // A wrong tie permutation manufactures differences, so an Unknown under
    // any alignment outranks a Refuted under another.
    match (unknown, refuted) {
        (Some(reason), _) => Verdict::Unknown { reason },
        (None, Some(witness)) => Verdict::Refuted { witness },
        (None, None) => Verdict::Unknown {
            reason: "no source alignment compared".into(),
        },
    }
}

fn compare_rendered(catalog: &Catalog, a: &Rendered, b: &Rendered) -> Verdict {
    // 1. Sources, positionally in canonical order. A count mismatch between
    //    base-only FROM lists is conclusive under bag semantics, but once a
    //    derived sub-block is involved the block boundary itself is a
    //    normalization artifact, so the same mismatch is only inconclusive.
    if a.sources.len() != b.sources.len() {
        let any_derived = a
            .sources
            .iter()
            .chain(&b.sources)
            .any(|s| matches!(s, RSource::Derived(..)));
        if any_derived {
            return Verdict::Unknown {
                reason: format!(
                    "blocks nest differently: {} vs {} sources with derived sub-blocks",
                    a.sources.len(),
                    b.sources.len()
                ),
            };
        }
        return Verdict::Refuted {
            witness: format!(
                "source count differs: {} vs {} relations",
                a.sources.len(),
                b.sources.len()
            ),
        };
    }
    let derived_pairs: Vec<(&Block, &Block)> = {
        let mut pairs = Vec::new();
        for (i, (sa, sb)) in a.sources.iter().zip(&b.sources).enumerate() {
            match (sa, sb) {
                (RSource::Base(ta), RSource::Base(tb)) => {
                    if ta != tb {
                        return Verdict::Refuted {
                            witness: format!("source {i} scans `{ta}` vs `{tb}`"),
                        };
                    }
                }
                (RSource::Derived(ka, ba), RSource::Derived(kb, bb)) => {
                    if ka != kb {
                        pairs.push((ba, bb));
                    }
                }
                _ => {
                    return Verdict::Refuted {
                        witness: format!("source {i} is a base scan on one side only"),
                    }
                }
            }
        }
        pairs
    };
    // Derived sub-blocks whose keys differ get a recursive semantic
    // comparison. With several of them the positional pairing itself is
    // ambiguous, so a failed recursion is only conclusive when unique.
    let ambiguous = derived_pairs.len() > 1;
    for (ba, bb) in derived_pairs {
        match compare_blocks(catalog, ba, bb) {
            Verdict::Proved => {}
            Verdict::Refuted { witness } if !ambiguous => {
                return Verdict::Refuted {
                    witness: format!("nested aggregate differs: {witness}"),
                }
            }
            Verdict::Refuted { .. } | Verdict::Unknown { .. } => {
                return Verdict::Unknown {
                    reason: "nested aggregate sub-blocks differ".into(),
                }
            }
        }
    }

    // 2. Join equivalence classes.
    if a.classes != b.classes {
        let only = |x: &Rendered, y: &Rendered| -> Vec<String> {
            x.classes
                .iter()
                .filter(|c| !y.classes.contains(c))
                .map(|c| c.join("~"))
                .collect()
        };
        return Verdict::Refuted {
            witness: format!(
                "join equivalence classes differ: only original {:?}, only rewritten {:?}",
                only(a, b),
                only(b, a)
            ),
        };
    }

    // 3. Predicate domains per class root.
    let roots: Vec<&String> = a
        .domains
        .iter()
        .map(|(r, _)| r)
        .chain(b.domains.iter().map(|(r, _)| r))
        .collect();
    let empty = Domain::default();
    for root in roots {
        let da = a
            .domains
            .iter()
            .find(|(r, _)| r == root)
            .map(|(_, d)| d)
            .unwrap_or(&empty);
        let db = b
            .domains
            .iter()
            .find(|(r, _)| r == root)
            .map(|(_, d)| d)
            .unwrap_or(&empty);
        let ty = a
            .class_types
            .get(root)
            .or_else(|| b.class_types.get(root))
            .copied()
            .flatten();
        match compare_domains(da, db, ty) {
            Ok(true) => {}
            Ok(false) => {
                return Verdict::Unknown {
                    reason: format!(
                        "predicate domains on {root} differ without a separating value"
                    ),
                }
            }
            Err(witness) => {
                return Verdict::Refuted {
                    witness: format!(
                        "predicate on {root}: value {witness} satisfies one side only \
                         (original {}, rewritten {})",
                        da.render(),
                        db.render()
                    ),
                }
            }
        }
    }

    // 4. Opaque atoms: syntactic multiset equality only — a difference here
    //    could still be semantically equal, so it is never a refutation.
    if a.opaques != b.opaques {
        return Verdict::Unknown {
            reason: format!(
                "opaque predicate atoms differ: {:?} vs {:?}",
                a.opaques, b.opaques
            ),
        };
    }

    // 5. Aggregate signature.
    match (&a.agg, &b.agg) {
        (None, None) => {}
        (Some(_), None) | (None, Some(_)) => {
            return Verdict::Refuted {
                witness: "aggregate present on one side only".into(),
            }
        }
        (Some((gba, aggsa)), Some((gbb, aggsb))) => {
            if gba.len() != gbb.len() || aggsa.len() != aggsb.len() {
                return Verdict::Refuted {
                    witness: "aggregate arity differs".into(),
                };
            }
            for (i, ((na, ea), (nb, eb))) in gba.iter().zip(gbb).enumerate() {
                if na != nb {
                    return Verdict::Refuted {
                        witness: format!("group-by column {i} named `{na}` vs `{nb}`"),
                    };
                }
                match cmp_rexpr(ea, eb) {
                    ExprCmp::Equal => {}
                    ExprCmp::DifferentColumns => {
                        return Verdict::Refuted {
                            witness: format!(
                                "group-by column {i} (`{na}`) groups different equivalence classes"
                            ),
                        }
                    }
                    ExprCmp::Undecided => {
                        return Verdict::Unknown {
                            reason: format!("group-by expression {i} differs non-trivially"),
                        }
                    }
                }
            }
            for (i, ((fa, ia, oa), (fb, ib, ob))) in aggsa.iter().zip(aggsb).enumerate() {
                if fa != fb {
                    return Verdict::Refuted {
                        witness: format!(
                            "aggregate {i} applies {} vs {}",
                            fa.keyword(),
                            fb.keyword()
                        ),
                    };
                }
                if oa != ob {
                    return Verdict::Refuted {
                        witness: format!("aggregate {i} named `{oa}` vs `{ob}`"),
                    };
                }
                match (ia, ib) {
                    (None, None) => {}
                    (Some(_), None) | (None, Some(_)) => {
                        return Verdict::Refuted {
                            witness: format!(
                                "aggregate {i} ({}) counts rows on one side and a column \
                                 on the other (NULLs count differently)",
                                fa.keyword()
                            ),
                        }
                    }
                    (Some(ea), Some(eb)) => match cmp_rexpr(ea, eb) {
                        ExprCmp::Equal => {}
                        ExprCmp::DifferentColumns => {
                            return Verdict::Refuted {
                                witness: format!(
                                    "aggregate {i} ({}) reads different equivalence classes",
                                    fa.keyword()
                                ),
                            }
                        }
                        ExprCmp::Undecided => {
                            return Verdict::Unknown {
                                reason: format!("aggregate {i} input differs non-trivially"),
                            }
                        }
                    },
                }
            }
        }
    }

    // 6. Positional outputs (SPJ blocks; aggregate outputs were compared
    //    above as part of the signature).
    if a.agg.is_none() {
        if a.outputs.len() != b.outputs.len() {
            return Verdict::Refuted {
                witness: format!(
                    "output arity differs: {} vs {} columns",
                    a.outputs.len(),
                    b.outputs.len()
                ),
            };
        }
        for (i, ((na, ea), (nb, eb))) in a.outputs.iter().zip(&b.outputs).enumerate() {
            if na != nb {
                return Verdict::Refuted {
                    witness: format!("output column {i} named `{na}` vs `{nb}`"),
                };
            }
            match cmp_rexpr(ea, eb) {
                ExprCmp::Equal => {}
                ExprCmp::DifferentColumns => {
                    return Verdict::Refuted {
                        witness: format!(
                            "output column {i} (`{na}`) draws from different equivalence classes"
                        ),
                    }
                }
                ExprCmp::Undecided => {
                    return Verdict::Unknown {
                        reason: format!("output expression {i} (`{na}`) differs non-trivially"),
                    }
                }
            }
        }
    }

    Verdict::Proved
}

enum ExprCmp {
    Equal,
    /// Two plain columns from different classes: provably different values
    /// on some instance.
    DifferentColumns,
    /// At least one side is computed; a syntactic difference proves nothing.
    Undecided,
}

fn cmp_rexpr(a: &RExpr, b: &RExpr) -> ExprCmp {
    match (a, b) {
        (RExpr::Col(x), RExpr::Col(y)) => {
            if x == y {
                ExprCmp::Equal
            } else {
                ExprCmp::DifferentColumns
            }
        }
        (RExpr::Other(x), RExpr::Other(y)) if x == y => ExprCmp::Equal,
        _ => ExprCmp::Undecided,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_engine::{Catalog, Column, Pricing, Table, ViewStore};
    use av_plan::{AggExpr, Expr, PlanBuilder};

    fn catalog() -> Catalog {
        let mut c = Catalog::new();
        c.add_table(
            Table::new(
                "users",
                vec![
                    ("id", Column::Int((0..20).collect())),
                    ("score", Column::Float((0..20).map(|i| i as f64).collect())),
                    (
                        "name",
                        Column::str((0..20).map(|i| format!("u{i}")).collect()),
                    ),
                ],
            )
            .expect("valid"),
        )
        .expect("ok");
        c.add_table(
            Table::new(
                "acts",
                vec![
                    ("uid", Column::Int((0..30).map(|i| i % 20).collect())),
                    (
                        "kind",
                        Column::str((0..30).map(|i| format!("k{}", i % 3)).collect()),
                    ),
                    ("n", Column::Int((0..30).collect())),
                ],
            )
            .expect("valid"),
        )
        .expect("ok");
        c
    }

    fn no_views(_: &str) -> Option<PlanRef> {
        None
    }

    fn prove(cat: &Catalog, a: &PlanRef, b: &PlanRef) -> Verdict {
        prove_rewrite(cat, a, b, &no_views)
    }

    #[test]
    fn identical_plans_prove() {
        let cat = catalog();
        let p = PlanBuilder::scan("users", "u")
            .filter(Expr::col("u.id").cmp(CmpOp::Lt, Expr::int(5)))
            .build();
        assert_eq!(prove(&cat, &p, &p.clone()), Verdict::Proved);
    }

    #[test]
    fn alias_renames_prove() {
        let cat = catalog();
        let mk = |alias: &str| {
            PlanBuilder::scan("users", alias)
                .filter(Expr::col(format!("{alias}.id")).eq(Expr::int(3)))
                .project(&[(format!("{alias}.name").as_str(), "u.name")])
                .build()
        };
        // Different aliases AND different output names → not the fast path,
        // but the block form ignores aliases... output names still differ,
        // so rename one side's projection to match.
        let a = mk("u");
        let b = PlanBuilder::scan("users", "w")
            .filter(Expr::col("w.id").eq(Expr::int(3)))
            .project(&[("w.name", "u.name")])
            .build();
        assert_eq!(prove(&cat, &a, &b), Verdict::Proved);
    }

    #[test]
    fn predicate_literal_change_refuted() {
        let cat = catalog();
        let mk = |lit: i64| {
            PlanBuilder::scan("users", "u")
                .filter(Expr::col("u.id").eq(Expr::int(lit)))
                .build()
        };
        let v = prove(&cat, &mk(3), &mk(4));
        assert!(v.is_refuted(), "got {v}");
    }

    #[test]
    fn strict_vs_nonstrict_bound_refuted() {
        let cat = catalog();
        let mk = |op: CmpOp| {
            PlanBuilder::scan("users", "u")
                .filter(Expr::col("u.id").cmp(op, Expr::int(5)))
                .build()
        };
        let v = prove(&cat, &mk(CmpOp::Lt), &mk(CmpOp::Le));
        assert!(v.is_refuted(), "got {v}");
    }

    #[test]
    fn int_closure_unifies_equal_bounds() {
        // id < 5 on an Int column ⇔ id ≤ 4.
        let cat = catalog();
        let a = PlanBuilder::scan("users", "u")
            .filter(Expr::col("u.id").cmp(CmpOp::Lt, Expr::int(5)))
            .build();
        let b = PlanBuilder::scan("users", "u")
            .filter(Expr::col("u.id").cmp(CmpOp::Le, Expr::int(4)))
            .build();
        assert_eq!(prove(&cat, &a, &b), Verdict::Proved);
    }

    #[test]
    fn float_bound_gap_refuted() {
        // score > 5 vs score ≥ 6 admit different floats (e.g. 5.5).
        let cat = catalog();
        let a = PlanBuilder::scan("users", "u")
            .filter(Expr::col("u.score").cmp(CmpOp::Gt, Expr::int(5)))
            .build();
        let b = PlanBuilder::scan("users", "u")
            .filter(Expr::col("u.score").cmp(CmpOp::Ge, Expr::int(6)))
            .build();
        let v = prove(&cat, &a, &b);
        assert!(v.is_refuted(), "got {v}");
    }

    #[test]
    fn dropped_join_edge_refuted() {
        let cat = catalog();
        let mk = |on: &[(&str, &str)]| {
            PlanBuilder::scan("users", "u")
                .join(PlanBuilder::scan("acts", "a"), on)
                .build()
        };
        let a = mk(&[("u.id", "a.uid")]);
        let b = mk(&[("u.id", "a.n")]);
        let v = prove(&cat, &a, &b);
        assert!(v.is_refuted(), "got {v}");
    }

    #[test]
    fn swapped_aggregate_refuted() {
        let cat = catalog();
        let mk = |func: AggFunc| {
            PlanBuilder::scan("acts", "a")
                .aggregate(
                    &["a.kind"],
                    vec![AggExpr {
                        func,
                        input: Some("a.n".into()),
                        output: "x".into(),
                    }],
                )
                .build()
        };
        let v = prove(&cat, &mk(AggFunc::Min), &mk(AggFunc::Max));
        assert!(v.is_refuted(), "got {v}");
    }

    #[test]
    fn differing_disjunction_is_unknown_not_refuted() {
        let cat = catalog();
        let mk = |k: &str| {
            PlanBuilder::scan("acts", "a")
                .filter(Expr::Or(vec![
                    Expr::col("a.kind").eq(Expr::str(k)),
                    Expr::col("a.n").eq(Expr::int(1)),
                ]))
                .build()
        };
        let v = prove(&cat, &mk("k1"), &mk("k2"));
        assert!(
            matches!(v, Verdict::Unknown { .. }),
            "opaque differences must not refute, got {v}"
        );
    }

    #[test]
    fn unresolvable_view_scan_is_unknown() {
        let cat = catalog();
        let orig = PlanBuilder::scan("users", "u").build();
        let reww = PlanNode::TableScan {
            table: "__view_0".into(),
            alias: String::new(),
        }
        .into_ref();
        let v = prove(&cat, &orig, &reww);
        assert!(matches!(v, Verdict::Unknown { .. }), "got {v}");
    }

    #[test]
    fn real_view_rewrite_proves_through_resolver() {
        let mut cat = catalog();
        let mut store = ViewStore::new();
        let sub = PlanBuilder::scan("acts", "a")
            .filter(Expr::col("a.kind").eq(Expr::str("k1")))
            .project(&[("a.uid", "a.uid"), ("a.kind", "a.kind")])
            .build();
        let query = PlanBuilder::from_plan(sub.clone())
            .count_star(&["a.kind"], "cnt")
            .build();
        store
            .materialize(&mut cat, sub, Pricing::paper_defaults())
            .expect("materializes");
        let view = &store.views()[0];
        let (rewritten, n) = av_engine::rewrite_with_view(&query, view);
        assert_eq!(n, 1);
        let defs = |t: &str| {
            store
                .views()
                .iter()
                .find(|v| v.table_name == t)
                .map(|v| v.plan.clone())
        };
        assert_eq!(
            prove_rewrite(&cat, &query, &rewritten, &defs),
            Verdict::Proved
        );
    }

    #[test]
    fn cross_alias_rename_project_proves() {
        // The view was defined under alias `z`; the rewrite splices a
        // positional rename Project mapping the view's columns back to the
        // query's `a.*` names — the case whole-plan canonical fingerprints
        // cannot handle.
        let mut cat = catalog();
        let mut store = ViewStore::new();
        let view_def = PlanBuilder::scan("acts", "z")
            .filter(Expr::col("z.kind").eq(Expr::str("k1")))
            .project(&[("z.uid", "z.uid"), ("z.kind", "z.kind")])
            .build();
        store
            .materialize(&mut cat, view_def, Pricing::paper_defaults())
            .expect("materializes");
        let view = &store.views()[0];

        let sub = PlanBuilder::scan("acts", "a")
            .filter(Expr::col("a.kind").eq(Expr::str("k1")))
            .project(&[("a.uid", "a.uid"), ("a.kind", "a.kind")])
            .build();
        let query = PlanBuilder::from_plan(sub.clone())
            .count_star(&["a.kind"], "cnt")
            .build();
        let (rewritten, n) =
            av_engine::rewrite_subtree_with_view(&cat, &query, &sub, view).expect("view applies");
        assert_eq!(n, 1);
        let defs = |t: &str| {
            store
                .views()
                .iter()
                .find(|v| v.table_name == t)
                .map(|v| v.plan.clone())
        };
        assert_eq!(
            prove_rewrite(&cat, &query, &rewritten, &defs),
            Verdict::Proved
        );
    }

    #[test]
    fn whole_query_aggregate_rewrite_proves() {
        // The matched subtree is the entire query, so the rewrite is a
        // rename-only Project over the view scan. After inlining, the
        // original normalizes as a root aggregate block while the rewrite
        // wraps the same aggregate in a derived source; collapse_trivial
        // must unify the two shapes. Regression: this pair used to come
        // back `Refuted { "source count differs: 2 vs 1 relations" }`.
        let mut cat = catalog();
        let mut store = ViewStore::new();
        let view_def = PlanBuilder::scan("users", "w")
            .join(PlanBuilder::scan("acts", "z"), &[("w.id", "z.uid")])
            .aggregate(
                &["z.kind"],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Some("z.n".into()),
                    output: "total".into(),
                }],
            )
            .build();
        store
            .materialize(&mut cat, view_def, Pricing::paper_defaults())
            .expect("materializes");
        let view = &store.views()[0];

        let query = PlanBuilder::scan("users", "u")
            .join(PlanBuilder::scan("acts", "a"), &[("u.id", "a.uid")])
            .aggregate(
                &["a.kind"],
                vec![AggExpr {
                    func: AggFunc::Sum,
                    input: Some("a.n".into()),
                    output: "total".into(),
                }],
            )
            .build();
        let (rewritten, n) =
            av_engine::rewrite_subtree_with_view(&cat, &query, &query, view).expect("view applies");
        assert_eq!(n, 1);
        let defs = |t: &str| {
            store
                .views()
                .iter()
                .find(|v| v.table_name == t)
                .map(|v| v.plan.clone())
        };
        assert_eq!(
            prove_rewrite(&cat, &query, &rewritten, &defs),
            Verdict::Proved
        );
    }

    #[test]
    fn constant_pinned_classes_unify() {
        // u.id = 3 ∧ a.uid = 3 is the same constraint set with or without
        // the redundant join edge u.id = a.uid.
        let cat = catalog();
        let base = || {
            PlanBuilder::scan("users", "u")
                .join(PlanBuilder::scan("acts", "a"), &[("u.id", "a.uid")])
                .filter(
                    Expr::col("u.id")
                        .eq(Expr::int(3))
                        .and(Expr::col("a.uid").eq(Expr::int(3))),
                )
                .build()
        };
        // Both sides share the join; one adds a redundant u.id = a.uid
        // filter atom that constant saturation must absorb.
        let a = base();
        let b = PlanBuilder::from_plan(base())
            .filter(Expr::col("u.id").eq(Expr::col("a.uid")))
            .build();
        assert_eq!(prove(&cat, &a, &b), Verdict::Proved);
    }
}
