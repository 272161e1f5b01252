//! From SQL text to materialized views: parse queries, detect the shared
//! subquery, materialize it, rewrite, and verify the rewritten queries
//! return identical results at lower cost.
//!
//! ```sh
//! cargo run --release --example sql_to_views
//! ```
//!
//! Uses the paper's running example (Fig. 2): two analytical queries over
//! `user_memo` / `user_action` sharing a filtered join.

use autoview::engine::{Catalog, Column, Executor, Pricing, Table, ViewStore};
use autoview::equiv::analyze_workload;
use autoview::plan::parse_query;

fn main() {
    // ---- schema + data ----------------------------------------------------
    let mut catalog = Catalog::new();
    let n = 2000;
    catalog
        .add_table(
            Table::new(
                "user_memo",
                vec![
                    ("user_id", Column::Int((0..n).map(|i| i % 97).collect())),
                    (
                        "memo_type",
                        Column::str(
                            (0..n)
                                .map(|i| if i % 3 == 0 { "pen" } else { "note" }.to_string())
                                .collect(),
                        ),
                    ),
                    (
                        "dt",
                        Column::str(
                            (0..n)
                                .map(|i| if i % 2 == 0 { "1010" } else { "1009" }.to_string())
                                .collect(),
                        ),
                    ),
                ],
            )
            .expect("rectangular"),
        )
        .expect("fresh");
    catalog
        .add_table(
            Table::new(
                "user_action",
                vec![
                    (
                        "user_id",
                        Column::Int((0..n).map(|i| (i * 7) % 97).collect()),
                    ),
                    ("type", Column::Int((0..n).map(|i| i % 4).collect())),
                    (
                        "dt",
                        Column::str(
                            (0..n)
                                .map(|i| if i % 2 == 0 { "1010" } else { "1008" }.to_string())
                                .collect(),
                        ),
                    ),
                ],
            )
            .expect("rectangular"),
        )
        .expect("fresh");

    // ---- two queries sharing the filtered join ----------------------------
    let q1 = parse_query(
        "select t1.user_id, count(*) as cnt from ( \
           select t1.user_id from user_memo t1 \
           where t1.dt = '1010' and t1.memo_type = 'pen' ) t1 \
         join ( \
           select t2.user_id from user_action t2 \
           where t2.type = 2 and t2.dt = '1010' ) t2 \
         on t1.user_id = t2.user_id group by t1.user_id",
    )
    .expect("q1 parses");
    let q2 = parse_query(
        "select t1.user_id, max(t2.user_id) as m from ( \
           select t1.user_id from user_memo t1 \
           where t1.dt = '1010' and t1.memo_type = 'pen' ) t1 \
         join ( \
           select t2.user_id from user_action t2 \
           where t2.type = 2 and t2.dt = '1010' ) t2 \
         on t1.user_id = t2.user_id group by t1.user_id",
    )
    .expect("q2 parses");

    println!("q1 plan:\n{}", q1.display_indent());

    // ---- find the shared subquery -----------------------------------------
    let analysis = analyze_workload(&[q1.clone(), q2.clone()]);
    let shared = analysis
        .candidates
        .iter()
        .filter(|c| c.query_frequency == 2)
        .max_by_key(|c| c.plan.node_count())
        .expect("the join is shared");
    println!(
        "shared subquery (used by {} queries):\n{}",
        shared.query_frequency,
        shared.plan.display_indent()
    );

    // ---- materialize + rewrite + verify ------------------------------------
    let pricing = Pricing::paper_defaults();
    let mut views = ViewStore::new();
    let vid = views
        .materialize(&mut catalog, shared.plan.clone(), pricing)
        .expect("materializes");
    let view = views.view(vid).expect("exists");
    println!(
        "materialized {} rows, overhead ${:.6}",
        view.row_count,
        view.total_overhead()
    );

    let exec = Executor::new(&catalog, pricing);
    for (name, q) in [("q1", &q1), ("q2", &q2)] {
        let (rewritten, applied) = autoview::engine::rewrite_with_view(q, view);
        assert_eq!(applied, 1, "{name} must be rewritable");
        let before = exec.run(q).expect("raw runs");
        let after = exec.run(&rewritten).expect("rewritten runs");
        assert_eq!(before.batch, after.batch, "{name} results must match");
        println!(
            "{name}: ${:.6} -> ${:.6}  (benefit ${:.6}, {} rows)",
            before.report.cost_dollars,
            after.report.cost_dollars,
            before.report.cost_dollars - after.report.cost_dollars,
            after.batch.num_rows(),
        );
    }
}
