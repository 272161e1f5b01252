//! Property tests for the executor: algebraic laws over random data.

use av_engine::{Catalog, Column, Executor, Pricing, Table};
use av_plan::{CmpOp, Expr, JoinType, PlanBuilder, PlanNode};
use proptest::prelude::*;

fn catalog_from(a_keys: Vec<i64>, a_vals: Vec<i64>, b_keys: Vec<i64>) -> Catalog {
    let mut c = Catalog::new();
    c.add_table(
        Table::new(
            "ta",
            vec![
                ("k", Column::Int(a_keys)),
                ("v", Column::Int(a_vals)),
            ],
        )
        .expect("rectangular"),
    )
    .expect("fresh");
    c.add_table(Table::new("tb", vec![("k", Column::Int(b_keys))]).expect("rectangular"))
        .expect("fresh");
    c
}

fn exec(c: &Catalog, p: &av_plan::PlanRef) -> av_engine::ExecResult {
    Executor::new(c, Pricing::paper_defaults())
        .run(p)
        .expect("plan executes")
}

fn agg(func: av_plan::AggFunc, input: Option<&str>, output: &str) -> av_plan::AggExpr {
    av_plan::AggExpr {
        func,
        input: input.map(str::to_string),
        output: output.to_string(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Filtering by `p AND q` equals filtering by `p` then by `q`.
    #[test]
    fn filter_conjunction_splits(
        keys in proptest::collection::vec(-5i64..5, 1..40),
        vals in proptest::collection::vec(-5i64..5, 40),
        t1 in -5i64..5,
        t2 in -5i64..5,
    ) {
        let n = keys.len();
        let c = catalog_from(keys, vals[..n].to_vec(), vec![0]);
        let p = Expr::col("a.k").cmp(CmpOp::Gt, Expr::int(t1));
        let q = Expr::col("a.v").cmp(CmpOp::Le, Expr::int(t2));

        let combined = PlanBuilder::scan("ta", "a")
            .filter(p.clone().and(q.clone()))
            .build();
        // Bypass the builder's filter merging to get two stacked filters.
        let stacked = PlanNode::Filter {
            input: PlanNode::Filter {
                input: PlanNode::TableScan { table: "ta".into(), alias: "a".into() }.into_ref(),
                predicate: p,
            }
            .into_ref(),
            predicate: q,
        }
        .into_ref();
        prop_assert_eq!(exec(&c, &combined).batch, exec(&c, &stacked).batch);
    }

    /// Inner-join row count is symmetric in its inputs.
    #[test]
    fn join_commutativity_row_count(
        a in proptest::collection::vec(-4i64..4, 1..30),
        b in proptest::collection::vec(-4i64..4, 1..30),
    ) {
        let n = a.len();
        let c = catalog_from(a.clone(), vec![0; n], b);
        let ab = PlanBuilder::scan("ta", "a")
            .join(PlanBuilder::scan("tb", "b"), &[("a.k", "b.k")])
            .build();
        let ba = PlanBuilder::scan("tb", "b")
            .join(PlanBuilder::scan("ta", "a"), &[("b.k", "a.k")])
            .build();
        prop_assert_eq!(exec(&c, &ab).batch.num_rows(), exec(&c, &ba).batch.num_rows());
    }

    /// COUNT(*) grouped equals the table's row count when summed.
    #[test]
    fn group_counts_sum_to_total(
        keys in proptest::collection::vec(-3i64..3, 1..50),
    ) {
        let n = keys.len();
        let c = catalog_from(keys, vec![0; n], vec![0]);
        let plan = PlanBuilder::scan("ta", "a").count_star(&["a.k"], "n").build();
        let r = exec(&c, &plan);
        let counts = r.batch.column("n").expect("count col");
        let total: i64 = (0..r.batch.num_rows())
            .map(|i| match counts.get(i) {
                av_plan::Value::Int(x) => x,
                other => panic!("count must be int, got {other:?}"),
            })
            .sum();
        prop_assert_eq!(total as usize, n);
    }

    /// Left join keeps exactly the probe side's row count when the build
    /// side has unique keys.
    #[test]
    fn left_join_unique_build_preserves_probe_rows(
        a in proptest::collection::vec(-8i64..8, 1..30),
    ) {
        let n = a.len();
        let unique: Vec<i64> = (-8..8).collect();
        let c = catalog_from(a, vec![0; n], unique);
        let plan = PlanBuilder::scan("ta", "a")
            .join_typed(PlanBuilder::scan("tb", "b"), &[("a.k", "b.k")], JoinType::Left)
            .build();
        prop_assert_eq!(exec(&c, &plan).batch.num_rows(), n);
    }

    /// Pushing a *selective* filter below a join never costs more than
    /// filtering after it. (An unselective filter can legitimately lose:
    /// it pays evaluation on every probe row while the late filter only
    /// sees the join's — possibly smaller — output. Our cost model makes
    /// pushdown a win exactly when the filter keeps at most half the rows,
    /// so the property is restricted to that regime.)
    #[test]
    fn selective_pushdown_never_increases_cost(
        a in proptest::collection::vec(-4i64..4, 5..40),
        b in proptest::collection::vec(-4i64..4, 5..40),
        t in -3i64..3,
    ) {
        let n = a.len();
        let kept = a.iter().filter(|&&k| k > t).count();
        prop_assume!(2 * kept <= n, "only selective filters are guaranteed wins");
        let c = catalog_from(a, vec![0; n], b);
        let pred = Expr::col("a.k").cmp(CmpOp::Gt, Expr::int(t));
        let pushed = PlanBuilder::scan("ta", "a")
            .filter(pred.clone())
            .join(PlanBuilder::scan("tb", "b"), &[("a.k", "b.k")])
            .build();
        let late = PlanNode::Filter {
            input: PlanBuilder::scan("ta", "a")
                .join(PlanBuilder::scan("tb", "b"), &[("a.k", "b.k")])
                .build(),
            predicate: pred,
        }
        .into_ref();
        let rp = exec(&c, &pushed);
        let rl = exec(&c, &late);
        prop_assert_eq!(rp.batch.num_rows(), rl.batch.num_rows());
        prop_assert!(rp.report.cost_dollars <= rl.report.cost_dollars + 1e-12);
    }

    /// Selection-vector execution is bit-identical to the materializing
    /// reference path: same batches, same cost reports, over plans mixing
    /// typed filter kernels (int/float/string, stacked and conjoined),
    /// projections and grouped aggregates. This is the contract that lets
    /// `exec_bench` compare the two modes as a pure speedup.
    #[test]
    fn selection_vectors_match_reference_kernels(
        a in proptest::collection::vec(-6i64..6, 1..60),
        t1 in -5i64..5,
        t2 in -5i64..5,
        stacked in proptest::any::<bool>(),
    ) {
        let n = a.len();
        let vals: Vec<i64> = a.iter().map(|&k| k.wrapping_mul(7) + 2).collect();
        let c = catalog_from(a, vals[..n].to_vec(), vec![0]);
        let p = Expr::col("a.k").cmp(CmpOp::Gt, Expr::int(t1));
        let q = Expr::col("a.v").cmp(CmpOp::Le, Expr::int(t2));
        let builder = if stacked {
            // Two stacked filters: the second refines the selection.
            PlanBuilder::scan("ta", "a").filter(p).filter(q)
        } else {
            PlanBuilder::scan("ta", "a").filter(p.and(q))
        };
        let plan = builder
            .aggregate(
                &["a.k"],
                vec![
                    agg(av_plan::AggFunc::Count, None, "n"),
                    agg(av_plan::AggFunc::Sum, Some("a.v"), "s"),
                    agg(av_plan::AggFunc::Min, Some("a.v"), "lo"),
                    agg(av_plan::AggFunc::Max, Some("a.v"), "hi"),
                ],
            )
            .build();
        let optimized = exec(&c, &plan);
        let reference = Executor::new(&c, Pricing::paper_defaults())
            .with_reference_kernels(true)
            .run(&plan)
            .expect("reference");
        prop_assert_eq!(optimized.batch, reference.batch);
        prop_assert_eq!(optimized.report, reference.report);
    }

    /// A filtered plan that ends *without* an aggregate materializes at the
    /// root; both modes must still agree bitwise, including on projections.
    #[test]
    fn selection_vectors_match_reference_at_root(
        a in proptest::collection::vec(-6i64..6, 1..60),
        t in -5i64..5,
        project in proptest::any::<bool>(),
    ) {
        let n = a.len();
        let c = catalog_from(a, vec![3; n], vec![0]);
        let builder = PlanBuilder::scan("ta", "a")
            .filter(Expr::col("a.k").cmp(CmpOp::Ne, Expr::int(t)));
        let plan = if project {
            builder.project(&[("a.v", "v")]).build()
        } else {
            builder.build()
        };
        let optimized = exec(&c, &plan);
        let reference = Executor::new(&c, Pricing::paper_defaults())
            .with_reference_kernels(true)
            .run(&plan)
            .expect("reference");
        prop_assert_eq!(optimized.batch, reference.batch);
        prop_assert_eq!(optimized.report, reference.report);
    }

    /// A cache hit returns the same batch and the same report as the cold
    /// run, and never re-executes while the catalog is unchanged.
    #[test]
    fn cache_hit_reproduces_cold_run(
        a in proptest::collection::vec(-6i64..6, 1..50),
        t in -5i64..5,
    ) {
        let n = a.len();
        let c = catalog_from(a, vec![1; n], vec![0]);
        let plan = PlanBuilder::scan("ta", "a")
            .filter(Expr::col("a.k").cmp(CmpOp::Le, Expr::int(t)))
            .count_star(&["a.k"], "n")
            .build();
        let cache = av_engine::ExecCache::new(Pricing::paper_defaults(), 1);
        let cold = cache.run(&c, &plan).expect("cold");
        let warm = cache.run(&c, &plan).expect("warm");
        prop_assert_eq!(&cold.batch, &warm.batch);
        prop_assert_eq!(cold.report, warm.report);
        prop_assert_eq!(cache.stats().hits, 1);
        prop_assert_eq!(cache.stats().misses, 1);
        // And the cached result matches a plain executor run.
        let direct = exec(&c, &plan);
        prop_assert_eq!(direct.batch, cold.batch);
        prop_assert_eq!(direct.report, cold.report);
    }

    /// Routing a query through a view admitted by the online lifecycle
    /// manager returns exactly the same rows as running it unrewritten —
    /// even when the view was defined under different table aliases and
    /// sits among twenty near-miss views admitted before and after it.
    #[test]
    fn lifecycle_routed_query_matches_unrewritten(
        keys in proptest::collection::vec(-5i64..5, 1..40),
        vals in proptest::collection::vec(-5i64..5, 40),
        t in -5i64..5,
    ) {
        use av_online::{AdmitOutcome, LifecycleConfig, ViewLifecycleManager};

        let n = keys.len();
        let mut c = catalog_from(keys, vals[..n].to_vec(), vec![0]);

        // Shared subtree: filter + project. The query aggregates on top of
        // it; the view is the same subtree under a different alias, the
        // decoys the same shape with another threshold.
        let subtree = |alias: &str, threshold: i64| {
            let k = format!("{alias}.k");
            let v = format!("{alias}.v");
            PlanBuilder::scan("ta", alias)
                .filter(Expr::col(&k).cmp(CmpOp::Gt, Expr::int(threshold)))
                .project(&[(k.as_str(), k.as_str()), (v.as_str(), v.as_str())])
                .build()
        };
        let query = PlanBuilder::from_plan(subtree("a", t)).count_star(&["a.k"], "n").build();

        let mut mgr = ViewLifecycleManager::new(LifecycleConfig {
            byte_budget: usize::MAX,
            min_benefit_per_byte: 0.0,
            tenant_byte_budget: usize::MAX,
        });
        // Offset 0 is the matching view: ten decoys before it, ten after.
        for offset in -10i64..=10 {
            let view_plan = subtree("x", t + offset);
            let view_fp = av_equiv::canonical_fingerprint(&view_plan);
            let outcome = mgr
                .admit(&mut c, view_plan, view_fp, 1.0, Pricing::paper_defaults())
                .expect("view materializes");
            prop_assert!(matches!(outcome, AdmitOutcome::Admitted { .. }));
        }
        prop_assert_eq!(mgr.live().len(), 21);

        let (routed, hits) = av_online::route_through_views(&c, mgr.index(), &query);
        prop_assert_eq!(hits, 1, "the one equivalent view fires, no decoy does");
        prop_assert_eq!(exec(&c, &query).batch, exec(&c, &routed).batch);
    }
}

/// End-to-end determinism on the JOB-like workload: the cache echoes every
/// query's cold batch and cost report exactly. Tables at this scale exceed
/// the 1024-row chunk size, so the chunked paths (filter mask, join probe,
/// partial aggregates) really engage.
#[test]
fn job_workload_is_thread_count_invariant() {
    let w = av_workload::job::job_workload(0.02, 7);
    let plans = w.plans();
    assert!(!plans.is_empty());
    let serial = Executor::new(&w.catalog, Pricing::paper_defaults());
    let cache = av_engine::ExecCache::new(Pricing::paper_defaults(), 1);
    for (i, p) in plans.iter().enumerate() {
        let rs = serial.run(p).expect("serial run");
        let rc = cache.run(&w.catalog, p).expect("cached run");
        assert_eq!(rs.batch, rc.batch, "query {i}: cache batch diverges");
        assert_eq!(rs.report, rc.report, "query {i}: cache diverges");
    }
    // A second pass over the workload is served entirely from the cache.
    for p in &plans {
        cache.run(&w.catalog, p).expect("warm run");
    }
    assert!(
        cache.stats().hits >= plans.len() as u64,
        "replaying the workload must hit the cache"
    );
}
