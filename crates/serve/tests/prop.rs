//! Serving-correctness properties: concurrent sessions over a shared
//! snapshot return byte-identical batches to serial, view-free execution —
//! including while an epoch swap lands mid-load.

#![allow(
    clippy::disallowed_methods,
    reason = "concurrent clients race an epoch swap"
)]

use av_cost::OptimizerEstimator;
use av_engine::{Executor, Pricing, RecordBatch};
use av_online::LifecycleConfig;
use av_serve::{ServeConfig, ViewServer};
use av_workload::cloud::mini;
use proptest::prelude::*;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

fn server_for(w: &av_workload::Workload) -> ViewServer {
    ViewServer::new(
        w.catalog.clone(),
        Box::new(OptimizerEstimator::default()),
        ServeConfig {
            lifecycle: LifecycleConfig {
                byte_budget: usize::MAX,
                min_benefit_per_byte: 0.0,
                tenant_byte_budget: usize::MAX,
            },
            ..ServeConfig::default()
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(6))]

    /// The golden serving invariant: whatever the interleaving of client
    /// threads and however the deployment epoch advances underneath them,
    /// every response is byte-identical to serial execution of the same
    /// plan against the raw catalog (no views, no cache, no concurrency).
    #[test]
    fn concurrent_sessions_match_serial_across_epoch_swap(
        seed in 0u64..1000,
        clients in 2usize..5,
        rounds in 1usize..3,
    ) {
        let w = mini(seed);
        let plans = w.plans();

        // Serial ground truth on the untouched catalog.
        let exec = Executor::new(&w.catalog, Pricing::paper_defaults());
        let expected: Vec<RecordBatch> = plans
            .iter()
            .map(|p| Arc::unwrap_or_clone(exec.run(p).expect("serial run").batch))
            .collect();

        let server = server_for(&w);
        let mismatches = AtomicU64::new(0);
        let failures = AtomicU64::new(0);
        let served = AtomicU64::new(0);

        std::thread::scope(|scope| {
            // Client threads hammer the server; each compares every batch
            // against the serial reference.
            for client in 0..clients {
                let server = &server;
                let plans = &plans;
                let expected = &expected;
                let mismatches = &mismatches;
                let failures = &failures;
                let served = &served;
                scope.spawn(move || {
                    let tenant = format!("tenant{}", client % 2);
                    for round in 0..rounds {
                        for k in 0..plans.len() {
                            // Spread clients over the plan list.
                            let i = (k + client + round) % plans.len();
                            match server.execute(&tenant, &plans[i]) {
                                Ok(resp) => {
                                    served.fetch_add(1, Ordering::Relaxed);
                                    if *resp.batch != expected[i] {
                                        mismatches.fetch_add(1, Ordering::Relaxed);
                                    }
                                }
                                Err(_) => {
                                    failures.fetch_add(1, Ordering::Relaxed);
                                }
                            }
                        }
                    }
                });
            }
            // Re-optimizer swaps the deployment mid-load.
            let server = &server;
            let plans = &plans;
            scope.spawn(move || {
                server.reoptimize(plans, Some("tenant0")).expect("reoptimizes");
            });
        });

        let total = (clients * rounds * plans.len()) as u64;
        prop_assert_eq!(served.load(Ordering::Relaxed), total, "every request served");
        prop_assert_eq!(failures.load(Ordering::Relaxed), 0, "zero failed queries across the swap");
        prop_assert_eq!(mismatches.load(Ordering::Relaxed), 0, "concurrent == serial");
        prop_assert_eq!(server.epoch(), 1, "the swap landed");

        // After the dust settles the new epoch still serves identical rows.
        for (i, p) in plans.iter().enumerate() {
            let resp = server.execute("tenant1", p).expect("post-swap serve");
            prop_assert_eq!(&*resp.batch, &expected[i]);
            prop_assert_eq!(resp.epoch, 1);
        }
    }
}
