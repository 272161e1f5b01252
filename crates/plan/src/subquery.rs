//! Subquery enumeration, structural fingerprints and common-subtree
//! (overlap) detection.
//!
//! The paper defines a *subquery* as any subplan rooted at an `Aggregate`,
//! `Join` or `Project` operator, and calls two subqueries *overlapping*
//! (Def. 5) when their plan trees share a common subtree — such views cannot
//! both be used to rewrite the same query.

use crate::node::{PlanNode, PlanRef};
use std::collections::hash_map::DefaultHasher;
use std::collections::HashSet;
use std::hash::{Hash, Hasher};

/// Structural fingerprint of a plan subtree.
///
/// Two subtrees with equal fingerprints are structurally identical with
/// overwhelming probability (64-bit hash over the full tree). Semantic
/// equivalence beyond structural identity is `av-equiv`'s job; fingerprints
/// are its fast path and the basis of overlap detection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Fingerprint(pub u64);

impl Fingerprint {
    /// Fingerprint a subtree.
    pub fn of(plan: &PlanNode) -> Fingerprint {
        let mut h = DefaultHasher::new();
        plan.hash(&mut h);
        Fingerprint(h.finish())
    }
}

/// A subquery extracted from a larger query plan.
#[derive(Debug, Clone)]
pub struct ExtractedSubquery {
    /// The subplan itself (shared with the parent plan).
    pub plan: PlanRef,
    /// Structural fingerprint of `plan`.
    pub fingerprint: Fingerprint,
    /// Depth of the subquery root below the query root (root = 0).
    pub depth: usize,
}

/// Enumerate all subqueries of `plan`: every subtree rooted at Aggregate,
/// Join or Project, including the root itself if it qualifies.
///
/// Scans and bare filters are not considered worth materializing (a view on a
/// raw scan is just a table copy), matching the paper's pre-process rule.
pub fn enumerate_subqueries(plan: &PlanRef) -> Vec<ExtractedSubquery> {
    let mut out = Vec::new();
    walk(plan, 0, &mut out);
    out
}

/// Is `plan` rooted at an operator the paper counts as a subquery
/// (Aggregate, Join or Project)? The one statement of the rule: candidate
/// enumeration and view routing both ask it.
pub fn is_subquery_root(plan: &PlanNode) -> bool {
    matches!(
        plan,
        PlanNode::Aggregate { .. } | PlanNode::Join { .. } | PlanNode::Project { .. }
    )
}

fn walk(plan: &PlanRef, depth: usize, out: &mut Vec<ExtractedSubquery>) {
    if is_subquery_root(plan) {
        out.push(ExtractedSubquery {
            plan: plan.clone(),
            fingerprint: Fingerprint::of(plan),
            depth,
        });
    }
    match plan.node() {
        PlanNode::TableScan { .. } => {}
        PlanNode::Filter { input, .. }
        | PlanNode::Project { input, .. }
        | PlanNode::Aggregate { input, .. } => walk(input, depth + 1, out),
        PlanNode::Join { left, right, .. } => {
            walk(left, depth + 1, out);
            walk(right, depth + 1, out);
        }
    }
}

/// Fingerprints of *all* subtrees (every operator, not just subquery roots).
/// Used for overlap detection: two plans overlap iff these sets intersect.
pub fn all_subtree_fingerprints(plan: &PlanNode) -> HashSet<Fingerprint> {
    let mut set = HashSet::with_capacity(plan.node_count());
    collect_fps(plan, &mut set);
    set
}

fn collect_fps(plan: &PlanNode, set: &mut HashSet<Fingerprint>) {
    set.insert(Fingerprint::of(plan));
    for c in plan.children() {
        collect_fps(c, set);
    }
}

/// Overlap test (paper Def. 5): do the two plan trees share any common
/// subtree? Scan-only sharing counts, mirroring the paper's conservative
/// rule that views derived from the same scanned partition conflict.
pub fn common_subtree_exists(a: &PlanNode, b: &PlanNode) -> bool {
    let fa = all_subtree_fingerprints(a);
    let fb = all_subtree_fingerprints(b);
    !fa.is_disjoint(&fb)
}

/// Check whether `sub` occurs as a subtree of `plan` (structural identity).
pub fn contains_subtree(plan: &PlanNode, sub_fp: Fingerprint) -> bool {
    if Fingerprint::of(plan) == sub_fp {
        return true;
    }
    plan.children().iter().any(|c| contains_subtree(c, sub_fp))
}

/// The first subtree of `plan` (pre-order) whose fingerprint is `sub_fp`.
pub fn find_subtree(plan: &PlanRef, sub_fp: Fingerprint) -> Option<PlanRef> {
    if Fingerprint::of(plan) == sub_fp {
        return Some(plan.clone());
    }
    plan.children()
        .into_iter()
        .find_map(|c| find_subtree(c, sub_fp))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::builder::PlanBuilder;
    use crate::expr::Expr;

    fn fig2_query() -> PlanRef {
        let left = PlanBuilder::scan("user_memo", "t1")
            .filter(
                Expr::col("t1.dt")
                    .eq(Expr::str("1010"))
                    .and(Expr::col("t1.memo_type").eq(Expr::str("pen"))),
            )
            .project(&[("t1.user_id", "t1.user_id"), ("t1.memo", "t1.memo")]);
        let right = PlanBuilder::scan("user_action", "t2")
            .filter(
                Expr::col("t2.type")
                    .eq(Expr::int(1))
                    .and(Expr::col("t2.dt").eq(Expr::str("1010"))),
            )
            .project(&[("t2.user_id", "t2.user_id"), ("t2.action", "t2.action")]);
        left.join(right, &[("t1.user_id", "t2.user_id")])
            .count_star(&["t1.user_id"], "cnt")
            .build()
    }

    #[test]
    fn fig2_has_three_subqueries_plus_root() {
        // s1 (left Project), s2 (right Project), s3 (Join), and the root
        // Aggregate also qualifies — the paper's Fig. 2 draws s1, s2, s3
        // inside q.
        let subs = enumerate_subqueries(&fig2_query());
        assert_eq!(subs.len(), 4);
        let ops: Vec<&str> = subs.iter().map(|s| s.plan.op_keyword()).collect();
        assert_eq!(ops, vec!["Aggregate", "Join", "Project", "Project"]);
    }

    #[test]
    fn identical_subtrees_share_fingerprints() {
        let a = PlanBuilder::scan("t", "x")
            .filter(Expr::col("x.a").eq(Expr::int(1)))
            .project(&[("x.a", "a")])
            .build();
        let b = PlanBuilder::scan("t", "x")
            .filter(Expr::col("x.a").eq(Expr::int(1)))
            .project(&[("x.a", "a")])
            .build();
        assert_eq!(Fingerprint::of(&a), Fingerprint::of(&b));
    }

    #[test]
    fn different_literals_change_fingerprint() {
        let a = PlanBuilder::scan("t", "x")
            .filter(Expr::col("x.a").eq(Expr::int(1)))
            .build();
        let b = PlanBuilder::scan("t", "x")
            .filter(Expr::col("x.a").eq(Expr::int(2)))
            .build();
        assert_ne!(Fingerprint::of(&a), Fingerprint::of(&b));
    }

    #[test]
    fn overlap_detected_between_join_and_its_input() {
        let q = fig2_query();
        let subs = enumerate_subqueries(&q);
        let join = &subs[1]; // s3
        let left_proj = &subs[2]; // s1
        assert!(common_subtree_exists(&join.plan, &left_proj.plan));
    }

    #[test]
    fn disjoint_plans_do_not_overlap() {
        let a = PlanBuilder::scan("t1", "a")
            .project(&[("a.x", "x")])
            .build();
        let b = PlanBuilder::scan("t2", "b")
            .project(&[("b.y", "y")])
            .build();
        assert!(!common_subtree_exists(&a, &b));
    }

    #[test]
    fn contains_subtree_finds_nested_node() {
        let q = fig2_query();
        let subs = enumerate_subqueries(&q);
        for s in &subs {
            assert!(contains_subtree(&q, s.fingerprint));
        }
        let unrelated = PlanBuilder::scan("zzz", "z")
            .project(&[("z.a", "a")])
            .build();
        assert!(!contains_subtree(&q, Fingerprint::of(&unrelated)));
    }

    #[test]
    fn depths_increase_down_the_tree() {
        let subs = enumerate_subqueries(&fig2_query());
        assert_eq!(subs[0].depth, 0); // Aggregate root
        assert_eq!(subs[1].depth, 1); // Join
        assert!(subs[2].depth > subs[1].depth);
    }
}
