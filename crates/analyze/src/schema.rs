//! Bottom-up typed schema inference over logical plans.
//!
//! Every operator's output schema is derived from its children against a
//! catalog, and every expression is type-checked along the way. The rules
//! mirror the executor's runtime semantics (`av-engine`): qualification of
//! scan columns by alias, pass-through of stored view columns under an
//! empty alias, numeric truthiness of predicates, and the aggregate output
//! types the hash aggregator actually produces.

use av_engine::{Catalog, ColumnType};
use av_plan::expr::ArithOp;
use av_plan::{AggFunc, Expr, PlanError, PlanNode};

/// An inferred output schema: column names with their types, in output
/// order.
pub type Schema = Vec<(String, ColumnType)>;

/// Type of an expression. `None` means "unknown" (a NULL literal), which
/// unifies with everything — mirroring SQL's untyped NULL.
pub type ExprType = Option<ColumnType>;

/// Infer the output schema of `plan` against `catalog`, rejecting unbound
/// columns, type-mismatched predicates / join keys / arithmetic, and
/// aggregates over incompatible inputs.
pub fn infer_schema(catalog: &Catalog, plan: &PlanNode) -> Result<Schema, PlanError> {
    match plan {
        PlanNode::TableScan { table, alias } => {
            let t = catalog
                .table(table)
                .ok_or_else(|| PlanError::UnknownTable {
                    table: table.clone(),
                })?;
            Ok(t.column_names
                .iter()
                .zip(&t.column_types)
                .map(|(c, &ty)| {
                    // Empty alias = materialized-view scan: stored names
                    // already carry the defining plan's qualification.
                    let name = if alias.is_empty() {
                        c.clone()
                    } else {
                        format!("{alias}.{c}")
                    };
                    (name, ty)
                })
                .collect())
        }
        PlanNode::Filter { input, predicate } => {
            let schema = infer_schema(catalog, input)?;
            let ty = type_of_expr(&schema, predicate, "Filter")?;
            if ty == Some(ColumnType::Str) {
                return Err(PlanError::NonBooleanPredicate {
                    context: format!("Filter predicate {predicate}"),
                });
            }
            Ok(schema)
        }
        PlanNode::Project { input, exprs } => {
            let schema = infer_schema(catalog, input)?;
            let mut out = Schema::with_capacity(exprs.len());
            for p in exprs {
                let ty = type_of_expr(&schema, &p.expr, "Project")?;
                // An untyped (pure NULL) projection defaults to Int, the
                // engine's representation of NULL-only columns.
                out.push((p.alias.clone(), ty.unwrap_or(ColumnType::Int)));
            }
            Ok(out)
        }
        PlanNode::Join {
            left, right, on, ..
        } => {
            let ls = infer_schema(catalog, left)?;
            let rs = infer_schema(catalog, right)?;
            for (lk, rk) in on {
                let lt = lookup(&ls, lk).ok_or_else(|| PlanError::UnboundColumn {
                    column: lk.clone(),
                    operator: "Join",
                    available: names(&ls),
                })?;
                let rt = lookup(&rs, rk).ok_or_else(|| PlanError::UnboundColumn {
                    column: rk.clone(),
                    operator: "Join",
                    available: names(&rs),
                })?;
                if !comparable(Some(lt), Some(rt)) {
                    return Err(PlanError::TypeMismatch {
                        context: format!("Join key {lk} = {rk}"),
                        left: lt.keyword().into(),
                        right: rt.keyword().into(),
                    });
                }
            }
            let mut out = ls;
            out.extend(rs);
            // Ambiguous names make downstream binding (first match wins)
            // silently positional — reject them.
            for i in 1..out.len() {
                if out[..i].iter().any(|(n, _)| n == &out[i].0) {
                    return Err(PlanError::DuplicateColumn {
                        column: out[i].0.clone(),
                        operator: "Join",
                    });
                }
            }
            Ok(out)
        }
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => {
            let schema = infer_schema(catalog, input)?;
            let mut out = Schema::with_capacity(group_by.len() + aggs.len());
            for g in group_by {
                let ty = lookup(&schema, g).ok_or_else(|| PlanError::UnboundColumn {
                    column: g.clone(),
                    operator: "Aggregate",
                    available: names(&schema),
                })?;
                out.push((g.clone(), ty));
            }
            for a in aggs {
                let in_ty = match &a.input {
                    Some(c) => {
                        Some(lookup(&schema, c).ok_or_else(|| PlanError::UnboundColumn {
                            column: c.clone(),
                            operator: "Aggregate",
                            available: names(&schema),
                        })?)
                    }
                    None => None,
                };
                let out_ty =
                    agg_output_type(a.func, in_ty).ok_or_else(|| PlanError::BadAggregate {
                        agg: a.to_string(),
                        reason: format!(
                            "{} cannot consume a {} column",
                            a.func.keyword(),
                            in_ty.map_or("?", |t| t.keyword())
                        ),
                    })?;
                out.push((a.output.clone(), out_ty));
            }
            Ok(out)
        }
    }
}

/// Output type of an aggregate, or `None` if the function cannot consume
/// the input type. Mirrors the engine's finalizer: COUNT → Int, SUM/AVG →
/// Float (and numeric-only), MIN/MAX preserve the input type.
fn agg_output_type(func: AggFunc, input: ExprType) -> Option<ColumnType> {
    match func {
        AggFunc::Count => Some(ColumnType::Int),
        AggFunc::Sum | AggFunc::Avg => match input {
            Some(ColumnType::Str) => None,
            _ => Some(ColumnType::Float),
        },
        AggFunc::Min | AggFunc::Max => Some(input.unwrap_or(ColumnType::Int)),
    }
}

/// Infer an expression's type over `schema`, checking every sub-expression.
pub fn type_of_expr(
    schema: &Schema,
    expr: &Expr,
    operator: &'static str,
) -> Result<ExprType, PlanError> {
    match expr {
        Expr::Column(c) => match lookup(schema, c) {
            Some(ty) => Ok(Some(ty)),
            None => Err(PlanError::UnboundColumn {
                column: c.clone(),
                operator,
                available: names(schema),
            }),
        },
        Expr::Literal(v) => Ok(match v {
            av_plan::Value::Int(_) => Some(ColumnType::Int),
            av_plan::Value::Float(_) => Some(ColumnType::Float),
            av_plan::Value::Str(_) => Some(ColumnType::Str),
            av_plan::Value::Null => None,
        }),
        Expr::Cmp { op, left, right } => {
            let lt = type_of_expr(schema, left, operator)?;
            let rt = type_of_expr(schema, right, operator)?;
            if !comparable(lt, rt) {
                return Err(PlanError::TypeMismatch {
                    context: format!("{}({left}, {right})", op.keyword()),
                    left: type_name(lt),
                    right: type_name(rt),
                });
            }
            Ok(Some(ColumnType::Int))
        }
        Expr::And(v) | Expr::Or(v) => {
            for e in v {
                let ty = type_of_expr(schema, e, operator)?;
                if ty == Some(ColumnType::Str) {
                    return Err(PlanError::NonBooleanPredicate {
                        context: format!("connective operand {e}"),
                    });
                }
            }
            Ok(Some(ColumnType::Int))
        }
        Expr::Not(e) => {
            let ty = type_of_expr(schema, e, operator)?;
            if ty == Some(ColumnType::Str) {
                return Err(PlanError::NonBooleanPredicate {
                    context: format!("NOT({e})"),
                });
            }
            Ok(Some(ColumnType::Int))
        }
        Expr::Arith { op, left, right } => {
            let lt = type_of_expr(schema, left, operator)?;
            let rt = type_of_expr(schema, right, operator)?;
            if lt == Some(ColumnType::Str) || rt == Some(ColumnType::Str) {
                return Err(PlanError::TypeMismatch {
                    context: format!("{}({left}, {right})", op.keyword()),
                    left: type_name(lt),
                    right: type_name(rt),
                });
            }
            Ok(
                if lt == Some(ColumnType::Int)
                    && rt == Some(ColumnType::Int)
                    && !matches!(op, ArithOp::Div)
                {
                    Some(ColumnType::Int)
                } else {
                    Some(ColumnType::Float)
                },
            )
        }
    }
}

/// Numbers compare with numbers, strings with strings, NULL with anything.
fn comparable(a: ExprType, b: ExprType) -> bool {
    match (a, b) {
        (None, _) | (_, None) => true,
        (Some(ColumnType::Str), Some(ColumnType::Str)) => true,
        (Some(ColumnType::Str), _) | (_, Some(ColumnType::Str)) => false,
        _ => true,
    }
}

fn lookup(schema: &Schema, name: &str) -> Option<ColumnType> {
    schema.iter().find(|(n, _)| n == name).map(|&(_, ty)| ty)
}

fn names(schema: &Schema) -> Vec<String> {
    schema.iter().map(|(n, _)| n.clone()).collect()
}

fn type_name(t: ExprType) -> String {
    t.map_or("Null", |t| t.keyword()).to_string()
}
