//! The JOB-like workload: an IMDB-flavoured schema and the paper's
//! 113 + 113 query construction.
//!
//! The paper uses the real IMDB database (3.7 GB) with the 113 queries of
//! the Join Order Benchmark, then "for making more redundant computation"
//! generates one extra query per raw query by modifying predicates —
//! 226 queries total (Table I). We reproduce the *structure*: 21 tables
//! named after IMDB's, 113 seeded multi-join templates, and one
//! literal-perturbed variant per template.

use crate::gen::{QueryRecord, Workload};
use av_engine::{Catalog, Column, Table};
use av_plan::{AggExpr, AggFunc, Expr, PlanBuilder, PlanNode, PlanRef, Value};
use rand::Rng;
use rand_chacha::rand_core::SeedableRng;
use rand_chacha::ChaCha8Rng;

/// The 21 IMDB tables of JOB.
pub const IMDB_TABLES: [&str; 21] = [
    "title",
    "name",
    "cast_info",
    "char_name",
    "movie_companies",
    "company_name",
    "company_type",
    "movie_info",
    "info_type",
    "movie_info_idx",
    "movie_keyword",
    "keyword",
    "kind_type",
    "link_type",
    "movie_link",
    "aka_name",
    "aka_title",
    "person_info",
    "role_type",
    "comp_cast_type",
    "complete_cast",
];

/// Foreign-key edges `(child, fk_col, parent)` of the IMDB-like schema.
/// Every child's `fk_col` references `parent.id`.
const FK_EDGES: [(&str, &str, &str); 12] = [
    ("cast_info", "movie_id", "title"),
    ("cast_info", "person_id", "name"),
    ("movie_companies", "movie_id", "title"),
    ("movie_companies", "company_id", "company_name"),
    ("movie_info", "movie_id", "title"),
    ("movie_info_idx", "movie_id", "title"),
    ("movie_keyword", "movie_id", "title"),
    ("movie_keyword", "keyword_id", "keyword"),
    ("movie_link", "movie_id", "title"),
    ("aka_title", "movie_id", "title"),
    ("person_info", "person_id", "name"),
    ("complete_cast", "movie_id", "title"),
];

/// Base row counts at scale 1.0 (fact tables large, dimensions small).
fn base_rows(table: &str) -> usize {
    match table {
        "title" | "name" => 4000,
        "cast_info" => 12000,
        "movie_info" | "movie_keyword" => 8000,
        "movie_companies" | "movie_info_idx" | "person_info" => 5000,
        "movie_link" | "aka_title" | "aka_name" | "complete_cast" => 2000,
        "char_name" | "keyword" | "company_name" => 1500,
        _ => 60, // the small type/dimension tables
    }
}

/// Generate the JOB-like workload. `scale` multiplies table sizes;
/// `seed` drives all randomness.
pub fn job_workload(scale: f64, seed: u64) -> Workload {
    let mut rng = ChaCha8Rng::seed_from_u64(seed);
    let mut catalog = Catalog::new();

    for table in IMDB_TABLES {
        let rows = ((base_rows(table) as f64 * scale) as usize).max(20);
        let mut cols: Vec<(&str, Column)> = vec![("id", Column::Int((0..rows as i64).collect()))];
        // FK columns this table carries.
        let fk_cols: Vec<&str> = FK_EDGES
            .iter()
            .filter(|(c, _, _)| *c == table)
            .map(|(_, f, _)| *f)
            .collect();
        let mut fk_data: Vec<(&str, Column)> = Vec::new();
        for f in fk_cols {
            let parent = FK_EDGES
                .iter()
                .find(|(c, fc, _)| *c == table && *fc == f)
                .map(|(_, _, p)| *p)
                .expect("edge exists");
            let parent_rows = ((base_rows(parent) as f64 * scale) as usize).max(20) as i64;
            fk_data.push((
                f,
                Column::Int((0..rows).map(|_| rng.gen_range(0..parent_rows)).collect()),
            ));
        }
        cols.extend(fk_data);
        // Filterable attributes shared across all tables.
        cols.push((
            "kind_id",
            Column::Int((0..rows).map(|_| rng.gen_range(0..7i64)).collect()),
        ));
        cols.push((
            "production_year",
            Column::Int((0..rows).map(|_| rng.gen_range(1950..2020i64)).collect()),
        ));
        cols.push((
            "note",
            Column::str(
                (0..rows)
                    .map(|_| {
                        ["(producer)", "(writer)", "(uncredited)", "(voice)", ""]
                            [rng.gen_range(0..5)]
                        .to_string()
                    })
                    .collect(),
            ),
        ));
        catalog
            .add_table(Table::new(table, cols).expect("rectangular"))
            .expect("unique names");
    }

    // ---- 113 join templates ------------------------------------------------
    // Each template: a chain through the FK graph rooted at a fact table,
    // per-table filters drawn from a shared pool (creating cross-template
    // sharing), and a Project or Aggregate on top.
    let mut pool_rng = ChaCha8Rng::seed_from_u64(seed ^ 0xf00d);
    let shared_filters: Vec<(i64, i64)> = (0..10)
        .map(|_| {
            (
                pool_rng.gen_range(0..7i64),
                pool_rng.gen_range(1950..2015i64),
            )
        })
        .collect();

    let mut queries = Vec::with_capacity(226);
    for template in 0..113 {
        let plan = build_template(template, &shared_filters, &mut rng);
        queries.push(QueryRecord {
            id: queries.len(),
            project: 0,
            plan: plan.clone(),
        });
        // The perturbed variant: one literal changed.
        let variant = perturb_literal(&plan, &mut rng);
        queries.push(QueryRecord {
            id: queries.len(),
            project: 0,
            plan: variant,
        });
    }

    Workload {
        name: "JOB".into(),
        catalog,
        queries,
        num_projects: 1,
    }
}

fn build_template(template: usize, shared_filters: &[(i64, i64)], rng: &mut ChaCha8Rng) -> PlanRef {
    // Choose a fact edge and a shared child filter from a small pool: the
    // (edge, filter) combo is the reusable subquery, so the pool size caps
    // the candidate count near the paper's |Z| = 28.
    let combo = template % 24;
    let e1 = FK_EDGES[combo % FK_EDGES.len()];
    let (kind, year) = shared_filters[combo % shared_filters.len()];

    // Child subplan: filtered projection from the pool — the shared piece.
    let child_alias = format!("c{combo}");
    let child = PlanBuilder::scan(e1.0, &child_alias)
        .filter(
            Expr::col(format!("{child_alias}.kind_id"))
                .eq(Expr::int(kind))
                .and(
                    Expr::col(format!("{child_alias}.production_year"))
                        .cmp(av_plan::CmpOp::Gt, Expr::int(year)),
                ),
        )
        .project(&[
            (
                &format!("{child_alias}.{}", e1.1),
                &format!("{child_alias}.{}", e1.1),
            ),
            (
                &format!("{child_alias}.kind_id"),
                &format!("{child_alias}.kind_id"),
            ),
        ]);

    // Parent subplan. Every third template draws its parent filter from a
    // small pool, so the *whole join* recurs across templates (with
    // different tops) — that containment is what creates the paper's
    // overlapping candidate pairs.
    let shared_join = template.is_multiple_of(3);
    let parent_lit = if shared_join {
        1950 + (template as i64 % 8) * 9
    } else {
        1950 + (template as i64 * 7) % 97
    };
    let parent_alias = if shared_join {
        format!("pp{}", template % 8)
    } else {
        format!("p{template}")
    };
    let parent = PlanBuilder::scan(e1.2, &parent_alias)
        .filter(
            Expr::col(format!("{parent_alias}.production_year"))
                .cmp(av_plan::CmpOp::Gt, Expr::int(parent_lit)),
        )
        .project(&[
            (&format!("{parent_alias}.id"), &format!("{parent_alias}.id")),
            (
                &format!("{parent_alias}.kind_id"),
                &format!("{parent_alias}.kind_id"),
            ),
        ]);

    let join = child.join(
        parent,
        &[(
            &format!("{child_alias}.{}", e1.1),
            &format!("{parent_alias}.id"),
        )],
    );

    // Shared-join templates vary the top so the recurring join sits under
    // distinct queries; the rest split half aggregate, half project.
    if shared_join {
        let agg = match (template / 24) % 3 {
            0 => AggExpr {
                func: AggFunc::Count,
                input: None,
                output: "cnt".into(),
            },
            1 => AggExpr {
                func: AggFunc::Sum,
                input: Some(format!("{parent_alias}.id")),
                output: "sum_id".into(),
            },
            _ => AggExpr {
                func: AggFunc::Max,
                input: Some(format!("{child_alias}.kind_id")),
                output: "max_kind".into(),
            },
        };
        join.aggregate(&[&format!("{parent_alias}.kind_id")], vec![agg])
            .build()
    } else if template.is_multiple_of(2) {
        join.aggregate(
            &[&format!("{parent_alias}.kind_id")],
            vec![AggExpr {
                func: AggFunc::Count,
                input: None,
                output: "cnt".into(),
            }],
        )
        .build()
    } else {
        let _ = rng;
        join.project(&[
            (&format!("{parent_alias}.id"), "movie"),
            (&format!("{child_alias}.kind_id"), "kind"),
        ])
        .build()
    }
}

/// Produce the paper's "manually modified predicate" variant: walk the plan
/// and nudge the *last* integer literal found in a filter — the
/// template-specific parent predicate — so the variant still shares the
/// pooled child subquery with its template.
pub fn perturb_literal(plan: &PlanRef, rng: &mut ChaCha8Rng) -> PlanRef {
    let delta = rng.gen_range(1..4i64);
    // First pass: count int literals.
    let mut total = 0usize;
    rewrite(plan, &mut |e: &Expr| {
        if matches!(e, Expr::Literal(Value::Int(_))) {
            total += 1;
        }
        None
    });
    // Second pass: replace the last one.
    let mut seen = 0usize;
    rewrite(plan, &mut |e: &Expr| {
        if let Expr::Literal(Value::Int(v)) = e {
            seen += 1;
            if seen == total {
                return Some(Expr::Literal(Value::Int(v + delta)));
            }
        }
        None
    })
}

/// Structural map over a plan's filter predicates.
fn rewrite(plan: &PlanRef, subst: &mut dyn FnMut(&Expr) -> Option<Expr>) -> PlanRef {
    match plan.node() {
        PlanNode::TableScan { .. } => plan.clone(),
        PlanNode::Filter { input, predicate } => PlanNode::Filter {
            input: rewrite(input, subst),
            predicate: rewrite_expr(predicate, subst),
        }
        .into_ref(),
        PlanNode::Project { input, exprs } => PlanNode::Project {
            input: rewrite(input, subst),
            exprs: exprs.clone(),
        }
        .into_ref(),
        PlanNode::Join {
            left,
            right,
            on,
            join_type,
        } => PlanNode::Join {
            left: rewrite(left, subst),
            right: rewrite(right, subst),
            on: on.clone(),
            join_type: *join_type,
        }
        .into_ref(),
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => PlanNode::Aggregate {
            input: rewrite(input, subst),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        }
        .into_ref(),
    }
}

fn rewrite_expr(e: &Expr, subst: &mut dyn FnMut(&Expr) -> Option<Expr>) -> Expr {
    if let Some(new) = subst(e) {
        return new;
    }
    match e {
        Expr::Column(_) | Expr::Literal(_) => e.clone(),
        Expr::Cmp { op, left, right } => Expr::Cmp {
            op: *op,
            left: Box::new(rewrite_expr(left, subst)),
            right: Box::new(rewrite_expr(right, subst)),
        },
        Expr::And(v) => Expr::And(v.iter().map(|e| rewrite_expr(e, subst)).collect()),
        Expr::Or(v) => Expr::Or(v.iter().map(|e| rewrite_expr(e, subst)).collect()),
        Expr::Not(inner) => Expr::Not(Box::new(rewrite_expr(inner, subst))),
        Expr::Arith { op, left, right } => Expr::Arith {
            op: *op,
            left: Box::new(rewrite_expr(left, subst)),
            right: Box::new(rewrite_expr(right, subst)),
        },
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use av_engine::{Executor, Pricing};

    #[test]
    fn has_21_tables_and_226_queries() {
        let w = job_workload(0.05, 1);
        assert_eq!(w.catalog.len(), 21);
        assert_eq!(w.queries.len(), 226);
    }

    #[test]
    fn variants_differ_from_templates() {
        let w = job_workload(0.05, 1);
        for pair in w.queries.chunks(2) {
            assert_ne!(
                av_plan::Fingerprint::of(&pair[0].plan),
                av_plan::Fingerprint::of(&pair[1].plan),
                "variant must differ from its template"
            );
        }
    }

    #[test]
    fn queries_execute_and_have_positive_cost() {
        let w = job_workload(0.05, 1);
        let exec = Executor::new(&w.catalog, Pricing::paper_defaults());
        for q in w.queries.iter().step_by(20) {
            let r = exec.run(&q.plan).expect("JOB query executes");
            assert!(r.report.cost_dollars > 0.0);
        }
    }

    #[test]
    fn workload_contains_shared_subqueries() {
        let w = job_workload(0.05, 1);
        let analysis = av_equiv::analyze_workload(&w.plans());
        assert!(analysis.equivalent_pairs > 100, "JOB-like sharing expected");
        let shared = analysis
            .candidates
            .iter()
            .filter(|c| c.query_frequency >= 2)
            .count();
        assert!(shared >= 10, "got {shared} shared candidates");
    }

    #[test]
    fn deterministic_per_seed() {
        let a = job_workload(0.05, 3);
        let b = job_workload(0.05, 3);
        for (x, y) in a.queries.iter().zip(&b.queries) {
            assert_eq!(
                av_plan::Fingerprint::of(&x.plan),
                av_plan::Fingerprint::of(&y.plan)
            );
        }
    }

    #[test]
    fn perturb_changes_exactly_one_literal() {
        let mut rng = ChaCha8Rng::seed_from_u64(9);
        let plan = PlanBuilder::scan("t", "a")
            .filter(
                Expr::col("a.x")
                    .eq(Expr::int(5))
                    .and(Expr::col("a.y").eq(Expr::int(7))),
            )
            .project(&[("a.x", "x")])
            .build();
        let v = perturb_literal(&plan, &mut rng);
        let count_lits = |p: &PlanRef| {
            let mut lits = Vec::new();
            p.visit_preorder(&mut |n| {
                if let PlanNode::Filter { predicate, .. } = n {
                    collect_ints(predicate, &mut lits);
                }
            });
            lits
        };
        fn collect_ints(e: &Expr, out: &mut Vec<i64>) {
            match e {
                Expr::Literal(Value::Int(i)) => out.push(*i),
                Expr::Cmp { left, right, .. } => {
                    collect_ints(left, out);
                    collect_ints(right, out);
                }
                Expr::And(v) | Expr::Or(v) => v.iter().for_each(|e| collect_ints(e, out)),
                Expr::Not(e) => collect_ints(e, out),
                _ => {}
            }
        }
        let orig = count_lits(&plan);
        let pert = count_lits(&v);
        assert_eq!(orig.len(), pert.len());
        let diffs: Vec<usize> = orig
            .iter()
            .zip(&pert)
            .enumerate()
            .filter(|(_, (a, b))| a != b)
            .map(|(i, _)| i)
            .collect();
        assert_eq!(diffs, vec![orig.len() - 1], "only the last literal changes");
    }
}
