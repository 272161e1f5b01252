//! Mutation suite for the semantic rewrite prover (ISSUE 8 satellite).
//!
//! Builds every view rewrite the equivalence analyzer induces over the
//! 226-query JOB workload, then checks two properties:
//!
//! 1. **Soundness on the real rewrites** — ≥95% statically `Proved`,
//!    the remainder `Unknown`, and none `Refuted` (the acceptance bar
//!    from ISSUE 8).
//! 2. **Sensitivity under mutation** — systematically perturbing the
//!    rewritten side (literal shifts, strict/non-strict bound swaps,
//!    dropped join edges, swapped aggregate functions) must never yield
//!    `Proved`. A mutant may be `Refuted` or `Unknown`, but a prover
//!    that blesses a semantically different plan is broken.

use av_analyze::{prove_rewrite, Verdict};
use av_engine::{rewrite_subtree_with_view, Catalog, Pricing, ViewStore};
use av_plan::{find_subtree, AggExpr, CmpOp, Expr, JoinType, PlanNode, PlanRef, Value};

/// Every (original, rewritten) pair the analyzer induces on JOB, plus the
/// view store needed to resolve `__view_N` scans.
fn job_rewrites() -> (Catalog, ViewStore, Vec<(PlanRef, PlanRef)>) {
    let w = av_workload::job::job_workload(0.01, 7);
    let mut catalog: Catalog = w.catalog.clone();
    let plans = w.plans();
    assert_eq!(plans.len(), 226, "JOB workload should have 226 queries");

    let analysis = av_equiv::analyze_workload(&plans);
    let mut views = ViewStore::new();
    for cand in &analysis.candidates {
        views
            .materialize(&mut catalog, cand.plan.clone(), Pricing::paper_defaults())
            .expect("candidate materializes");
    }

    let mut pairs = Vec::new();
    for (i, matches) in analysis.query_matches.iter().enumerate() {
        for m in matches {
            let Some(view) = views.view(av_engine::ViewId(m.candidate)) else {
                continue;
            };
            let Some(subtree) = find_subtree(&plans[i], m.subtree_fp) else {
                continue;
            };
            let Some((rewritten, _)) =
                rewrite_subtree_with_view(&catalog, &plans[i], &subtree, view)
            else {
                continue;
            };
            pairs.push((plans[i].clone(), rewritten));
        }
    }
    (catalog, views, pairs)
}

fn resolver(views: &ViewStore) -> impl Fn(&str) -> Option<PlanRef> + '_ {
    move |t: &str| {
        views
            .views()
            .iter()
            .find(|v| v.table_name == t)
            .map(|v| v.plan.clone())
    }
}

// ---------------------------------------------------------------------------
// Mutators: rewrite the plan tree, returning None when the mutation point
// does not occur in this plan.
// ---------------------------------------------------------------------------

/// Apply `f` to every node (bottom-up rebuild); `hit` records whether any
/// node was actually changed.
fn map_plan(plan: &PlanRef, f: &dyn Fn(PlanNode) -> PlanNode) -> PlanRef {
    let node = match plan.node() {
        PlanNode::TableScan { table, alias } => PlanNode::TableScan {
            table: table.clone(),
            alias: alias.clone(),
        },
        PlanNode::Filter { input, predicate } => PlanNode::Filter {
            input: map_plan(input, f),
            predicate: predicate.clone(),
        },
        PlanNode::Project { input, exprs } => PlanNode::Project {
            input: map_plan(input, f),
            exprs: exprs.clone(),
        },
        PlanNode::Join {
            left,
            right,
            on,
            join_type,
        } => PlanNode::Join {
            left: map_plan(left, f),
            right: map_plan(right, f),
            on: on.clone(),
            join_type: *join_type,
        },
        PlanNode::Aggregate {
            input,
            group_by,
            aggs,
        } => PlanNode::Aggregate {
            input: map_plan(input, f),
            group_by: group_by.clone(),
            aggs: aggs.clone(),
        },
    };
    f(node).into_ref()
}

fn map_expr(e: &Expr, f: &dyn Fn(&Expr) -> Option<Expr>) -> Expr {
    if let Some(replaced) = f(e) {
        return replaced;
    }
    match e {
        Expr::Cmp { op, left, right } => Expr::Cmp {
            op: *op,
            left: Box::new(map_expr(left, f)),
            right: Box::new(map_expr(right, f)),
        },
        Expr::And(parts) => Expr::And(parts.iter().map(|p| map_expr(p, f)).collect()),
        Expr::Or(parts) => Expr::Or(parts.iter().map(|p| map_expr(p, f)).collect()),
        Expr::Not(inner) => Expr::Not(Box::new(map_expr(inner, f))),
        Expr::Arith { op, left, right } => Expr::Arith {
            op: *op,
            left: Box::new(map_expr(left, f)),
            right: Box::new(map_expr(right, f)),
        },
        other => other.clone(),
    }
}

fn mutate_predicates(plan: &PlanRef, f: &dyn Fn(&Expr) -> Option<Expr>) -> PlanRef {
    map_plan(plan, &|node| match node {
        PlanNode::Filter { input, predicate } => PlanNode::Filter {
            input,
            predicate: map_expr(&predicate, f),
        },
        other => other,
    })
}

/// Shift the first integer literal in a comparison by +1 (weaken/strengthen
/// depending on the operator — either way, a different predicate).
fn mutate_literal(plan: &PlanRef) -> Option<PlanRef> {
    let hit = std::cell::Cell::new(false);
    let out = mutate_predicates(plan, &|e| match e {
        Expr::Cmp { op, left, right } if !hit.get() => match right.as_ref() {
            Expr::Literal(Value::Int(n)) => {
                hit.set(true);
                Some(Expr::Cmp {
                    op: *op,
                    left: left.clone(),
                    right: Box::new(Expr::Literal(Value::Int(n + 1))),
                })
            }
            _ => None,
        },
        _ => None,
    });
    hit.get().then_some(out)
}

/// Swap the first strict bound for its non-strict twin (`<` → `<=`).
fn mutate_bound(plan: &PlanRef) -> Option<PlanRef> {
    let hit = std::cell::Cell::new(false);
    let out = mutate_predicates(plan, &|e| match e {
        Expr::Cmp { op, left, right } if !hit.get() => {
            let flipped = match op {
                CmpOp::Lt => Some(CmpOp::Le),
                CmpOp::Gt => Some(CmpOp::Ge),
                _ => None,
            }?;
            hit.set(true);
            Some(Expr::Cmp {
                op: flipped,
                left: left.clone(),
                right: right.clone(),
            })
        }
        _ => None,
    });
    hit.get().then_some(out)
}

/// Drop the first join's equality conditions entirely (cross join).
fn mutate_drop_join_edge(plan: &PlanRef) -> Option<PlanRef> {
    let hit = std::cell::Cell::new(false);
    let out = map_plan(plan, &|node| match node {
        PlanNode::Join {
            left,
            right,
            on,
            join_type: JoinType::Inner,
        } if !hit.get() && !on.is_empty() => {
            hit.set(true);
            PlanNode::Join {
                left,
                right,
                on: Vec::new(),
                join_type: JoinType::Inner,
            }
        }
        other => other,
    });
    hit.get().then_some(out)
}

/// Swap the first aggregate function (Min↔Max, Sum→Count, Count→Sum...).
fn mutate_agg(plan: &PlanRef) -> Option<PlanRef> {
    use av_plan::AggFunc;
    let hit = std::cell::Cell::new(false);
    let out = map_plan(plan, &|node| match node {
        PlanNode::Aggregate {
            input,
            group_by,
            mut aggs,
        } if !hit.get() && !aggs.is_empty() => {
            hit.set(true);
            let AggExpr {
                func,
                input: ai,
                output,
            } = aggs[0].clone();
            let swapped = match func {
                AggFunc::Min => AggFunc::Max,
                AggFunc::Max => AggFunc::Min,
                AggFunc::Sum => AggFunc::Avg,
                AggFunc::Avg => AggFunc::Sum,
                AggFunc::Count => AggFunc::Min,
            };
            aggs[0] = AggExpr {
                func: swapped,
                input: ai,
                output,
            };
            PlanNode::Aggregate {
                input,
                group_by,
                aggs,
            }
        }
        other => other,
    });
    hit.get().then_some(out)
}

// ---------------------------------------------------------------------------
// The suite.
// ---------------------------------------------------------------------------

#[test]
fn job_rewrites_prove_statically() {
    let (catalog, views, pairs) = job_rewrites();
    assert!(!pairs.is_empty(), "JOB should induce view rewrites");
    let resolve = resolver(&views);

    let (mut proved, mut unknown, mut refuted) = (0usize, 0usize, 0usize);
    for (orig, rewritten) in &pairs {
        match prove_rewrite(&catalog, orig, rewritten, &resolve) {
            Verdict::Proved => proved += 1,
            Verdict::Unknown { .. } => unknown += 1,
            Verdict::Refuted { witness } => {
                refuted += 1;
                eprintln!("REFUTED real rewrite: {witness}");
            }
        }
    }
    let total = pairs.len();
    eprintln!("job rewrites: {proved} proved / {unknown} unknown / {refuted} refuted of {total}");
    assert_eq!(refuted, 0, "a real rewrite must never be refuted");
    assert!(
        proved * 100 >= total * 95,
        "expected ≥95% proved, got {proved}/{total}"
    );
}

#[test]
fn mutants_are_never_proved() {
    let (catalog, views, pairs) = job_rewrites();
    let resolve = resolver(&views);

    type Mutator<'a> = &'a dyn Fn(&PlanRef) -> Option<PlanRef>;
    let mutators: &[(&str, Mutator)] = &[
        ("literal+1", &mutate_literal),
        ("strict→nonstrict", &mutate_bound),
        ("drop-join-edge", &mutate_drop_join_edge),
        ("swap-agg", &mutate_agg),
    ];

    let mut mutants = 0usize;
    let mut rejected = 0usize;
    for (orig, rewritten) in &pairs {
        for (name, m) in mutators {
            let Some(mutant) = m(rewritten) else { continue };
            mutants += 1;
            match prove_rewrite(&catalog, orig, &mutant, &resolve) {
                Verdict::Proved => {
                    panic!("mutant `{name}` was PROVED — prover is unsound")
                }
                Verdict::Refuted { .. } | Verdict::Unknown { .. } => rejected += 1,
            }
        }
    }
    eprintln!("mutants: {rejected}/{mutants} rejected");
    assert!(mutants > 0, "mutators should apply to some rewrites");
    assert_eq!(mutants, rejected);
}

#[test]
fn mutants_on_originals_are_never_proved() {
    // Mutating the *original* (so the rewritten side claims more than the
    // query asks) must equally never be blessed in the other direction:
    // prove_rewrite(original_mutant, rewritten) — the rewritten plan now
    // disagrees with the query it claims to implement.
    let (catalog, views, pairs) = job_rewrites();
    let resolve = resolver(&views);

    let mut mutants = 0usize;
    for (orig, rewritten) in pairs.iter().take(50) {
        let Some(mutant) = mutate_literal(orig) else {
            continue;
        };
        mutants += 1;
        if prove_rewrite(&catalog, &mutant, rewritten, &resolve) == Verdict::Proved {
            panic!("original-side mutant was PROVED");
        }
    }
    assert!(mutants > 0);
}
