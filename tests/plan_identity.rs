//! A plan's memoized fingerprint is its tree's fingerprint. For every plan
//! and every subtree of three workloads, `Plan::fingerprint` equals the
//! full `Fingerprint::of` walk, before and after a serde round trip, and
//! the `Debug` and JSON forms are the bare node's: the memo cell is
//! invisible to hashing, comparing, printing and serializing.

use autoview::plan::{Expr, Fingerprint, PlanBuilder, PlanRef};
use autoview::workload::{cloud::mini, cloud::wk2, job::job_workload, Workload};

/// Check `plan` and its round-tripped copy `back` subtree by subtree;
/// returns the subtrees checked.
fn check(plan: &PlanRef, back: &PlanRef) -> usize {
    let fp = Fingerprint::of(plan);
    assert_eq!(plan.fingerprint(), fp, "memoized fingerprint of {plan:?}");
    assert_eq!(plan.fingerprint(), fp, "the memo reads back what it stored");
    assert_eq!(back.fingerprint(), fp, "after a serde round trip");
    assert_eq!(back, plan);
    assert_eq!(format!("{back:?}"), format!("{plan:?}"));
    assert_eq!(format!("{plan:?}"), format!("{:?}", plan.node()));
    let (kids, back_kids) = (plan.children(), back.children());
    assert_eq!(kids.len(), back_kids.len());
    1 + kids
        .iter()
        .zip(back_kids)
        .map(|(k, b)| check(k, b))
        .sum::<usize>()
}

fn check_workload(w: &Workload) {
    let mut subtrees = 0;
    for plan in w.plans() {
        let json = serde_json::to_string(&plan).expect("serializes");
        assert_eq!(
            json,
            serde_json::to_string(plan.node()).expect("serializes")
        );
        let back: PlanRef = serde_json::from_str(&json).expect("deserializes");
        subtrees += check(&plan, &back);
    }
    assert!(
        subtrees > w.plans().len(),
        "{}: subtrees were walked",
        w.name
    );
}

#[test]
fn memoized_fingerprints_equal_the_full_walk_on_every_subtree() {
    check_workload(&mini(42));
    check_workload(&job_workload(0.05, 42));
    check_workload(&wk2(0.002, 42));
}

#[test]
fn a_plan_prints_and_serializes_as_its_bare_node() {
    let predicate = Expr::col("a.k").eq(Expr::int(2));
    let plan = PlanBuilder::scan("t", "a")
        .filter(predicate.clone())
        .build();
    plan.fingerprint();
    assert_eq!(
        format!("{plan:?}"),
        format!("Filter {{ input: TableScan {{ table: \"t\", alias: \"a\" }}, predicate: {predicate:?} }}")
    );
    let scan = serde_json::to_string(&PlanBuilder::scan("t", "a").build()).expect("serializes");
    let json = serde_json::to_string(&plan).expect("serializes");
    assert!(
        json.contains(&scan),
        "the child serializes as a bare node: {json}"
    );
    assert!(!json.contains("fp"), "no memo field in {json}");
}
