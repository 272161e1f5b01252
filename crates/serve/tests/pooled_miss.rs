//! Served misses from two clients at once return exactly the batch a lone
//! executor returns.
//!
//! Two client threads send distinct plans (every request misses the result
//! cache) over a table of `ROWS` rows, many 1024-row chunks, so the filter
//! and the aggregate each fold many chunks on the client's own thread.

#![allow(clippy::disallowed_methods, reason = "two threads send misses at once")]

use av_cost::OptimizerEstimator;
use av_engine::{Catalog, Column, Executor, Pricing, Table};
use av_plan::{CmpOp, Expr, PlanBuilder, PlanRef};
use av_serve::{ServeConfig, ViewServer};

const ROWS: usize = 24_576;
const CLIENTS: usize = 2;
const PLANS_PER_CLIENT: usize = 6;

fn catalog() -> Catalog {
    let uid: Vec<i64> = (0..ROWS as i64).collect();
    let kind: Vec<i64> = (0..ROWS as i64).map(|i| i % 7).collect();
    let v: Vec<i64> = (0..ROWS as i64).map(|i| (i * 37) % 1000).collect();
    let table = Table::new(
        "ev",
        vec![
            ("uid", Column::Int(uid)),
            ("kind", Column::Int(kind)),
            ("v", Column::Int(v)),
        ],
    )
    .expect("columns have equal length");
    let mut catalog = Catalog::new();
    catalog.add_table(table).expect("fresh catalog");
    catalog
}

/// One distinct plan per `k`: a filtered scan grouped by `kind`.
fn plan(k: i64) -> PlanRef {
    PlanBuilder::scan("ev", "t")
        .filter(Expr::col("t.v").cmp(CmpOp::Gt, Expr::int(10 * k)))
        .count_star(&["t.kind"], "n")
        .build()
}

#[test]
fn concurrent_served_misses_match_serial() {
    let catalog = catalog();
    let pricing = Pricing::paper_defaults();
    let serial = Executor::new(&catalog, pricing);
    let server = ViewServer::new(
        catalog.clone(),
        Box::new(OptimizerEstimator::default()),
        ServeConfig::default(),
    );
    let plans: Vec<Vec<PlanRef>> = (0..CLIENTS)
        .map(|c| {
            (0..PLANS_PER_CLIENT)
                .map(|i| plan((c * PLANS_PER_CLIENT + i) as i64))
                .collect()
        })
        .collect();

    std::thread::scope(|s| {
        for client_plans in &plans {
            let (server, serial) = (&server, &serial);
            s.spawn(move || {
                for p in client_plans {
                    let served = server.execute("t", p).expect("served");
                    let want = serial.run(p).expect("serial run");
                    assert_eq!(served.batch, want.batch, "served miss != serial executor");
                }
            });
        }
    });

    let stats = server.cache_stats();
    assert_eq!(stats.hits, 0, "every plan is distinct");
    assert_eq!(stats.misses, (CLIENTS * PLANS_PER_CLIENT) as u64);
}
