//! Workspace-spanning integration tests: the full Fig. 3 pipeline, the
//! accounting identities behind the Table V metrics, and failure injection.

use autoview::core::{
    collect_pair_truth, preprocess_and_measure, AutoViewConfig, AutoViewSystem, EstimatorKind,
    SelectorKind,
};
use autoview::cost::{CostEstimator, FeatureInput, WideDeepConfig};
use autoview::engine::{Executor, Pricing};
use autoview::ilp::MvsInstance;
use autoview::select::{GreedyRank, RlViewConfig, SelectionResult};
use autoview::workload::cloud::mini;

fn quick_config() -> AutoViewConfig {
    AutoViewConfig {
        estimator: EstimatorKind::WideDeep(WideDeepConfig {
            epochs: 4,
            embed_dim: 8,
            lstm1_hidden: 8,
            lstm2_hidden: 8,
            ..WideDeepConfig::default()
        }),
        selector: SelectorKind::RlView(RlViewConfig {
            n1: 5,
            n2: 6,
            memory_size: 10,
            max_steps_per_epoch: 25,
            ..RlViewConfig::default()
        }),
        max_training_pairs: 60,
        ..AutoViewConfig::default()
    }
}

#[test]
fn full_pipeline_reduces_workload_cost() {
    let w = mini(100);
    let mut sys = AutoViewSystem::new(w.catalog.clone(), w.plans(), quick_config());
    let r = sys.run().expect("pipeline");
    // The headline property: recommended views save net cost.
    assert!(
        r.benefit > r.view_overhead,
        "net savings expected: benefit {} vs overhead {}",
        r.benefit,
        r.view_overhead
    );
    assert!(r.saved_ratio_percent > 0.0);
    // Latency must also drop (the rewritten workload skips shared work).
    assert!(r.rewritten_latency < r.raw_latency);
}

#[test]
fn rewritten_workload_preserves_every_query_result() {
    let w = mini(101);
    let pricing = Pricing::paper_defaults();
    let mut catalog = w.catalog.clone();
    let plans = w.plans();
    let pre = preprocess_and_measure(&mut catalog, &plans, pricing).expect("preprocess");
    let exec = Executor::new(&catalog, pricing);

    // Use every candidate for every matching query: results must be intact
    // regardless of which subset a selector would choose.
    for (i, ms) in pre.analysis.query_matches.iter().enumerate() {
        for m in ms {
            let Some(rw) =
                autoview::core::truth::rewrite_pair(&catalog, &pre, &plans[i], i, m.candidate)
            else {
                continue;
            };
            let orig = exec.run(&plans[i]).expect("raw");
            let new = exec.run(&rw).expect("rewritten");
            assert_eq!(
                orig.batch, new.batch,
                "query {i} rewritten with candidate {} changed results",
                m.candidate
            );
        }
    }
}

#[test]
fn selection_utility_accounting_is_consistent_across_selectors() {
    let w = mini(102);
    let pricing = Pricing::paper_defaults();
    let mut catalog = w.catalog.clone();
    let plans = w.plans();
    let pre = preprocess_and_measure(&mut catalog, &plans, pricing).expect("preprocess");
    let pairs = collect_pair_truth(&catalog, &pre, &plans, usize::MAX, 7).expect("pairs");

    let nc = pre.analysis.candidates.len();
    let mut benefits = vec![vec![0.0; nc]; plans.len()];
    for p in &pairs {
        benefits[p.query][p.candidate] = p.actual_benefit;
    }
    let instance = MvsInstance {
        benefits,
        overheads: pre.overheads.clone(),
        overlaps: pre.analysis.overlap_pairs.clone(),
    };

    let check = |r: &SelectionResult| {
        assert!(
            (instance.utility(&r.z, &r.y) - r.utility).abs() < 1e-9,
            "reported utility must match recomputation"
        );
        // y respects z and overlap constraints by construction.
        for row in &r.y {
            for (j, &used) in row.iter().enumerate() {
                if used {
                    assert!(r.z[j], "y ≤ z violated");
                }
            }
            for &(a, b) in &instance.overlaps {
                assert!(!(row[a] && row[b]), "overlap constraint violated");
            }
        }
    };
    for rank in GreedyRank::ALL {
        let (_, r) = autoview::select::greedy_best(&instance, rank);
        check(&r);
    }
    let (opt, _) = instance.solve_exact(200_000);
    assert!(
        GreedyRank::ALL
            .iter()
            .all(|&rk| autoview::select::greedy_best(&instance, rk).1.utility
                <= opt.utility + 1e-9),
        "OPT dominates every greedy method"
    );
}

#[test]
fn adversarial_estimator_does_not_break_the_system() {
    // A cost model that answers garbage must degrade utility, never crash,
    // and the deployment accounting must stay truthful (measured numbers).
    struct Liar;
    impl CostEstimator for Liar {
        fn estimate(&self, _input: &FeatureInput) -> f64 {
            -1e9 // absurd: claims every rewrite has huge negative cost
        }
        fn name(&self) -> &'static str {
            "Liar"
        }
    }

    let w = mini(103);
    let pricing = Pricing::paper_defaults();
    let mut catalog = w.catalog.clone();
    let plans = w.plans();
    let pre = preprocess_and_measure(&mut catalog, &plans, pricing).expect("preprocess");

    let sys = AutoViewSystem::new(catalog.clone(), plans.clone(), quick_config());
    let instance = sys.build_instance(&pre, &Liar);
    // The liar inflates every benefit; selection will materialize far too
    // much — but execution must still succeed and report honest numbers.
    let selection = SelectorKind::Greedy(GreedyRank::TopkBen).run(&instance);
    let r = sys.execute_selection(&pre, &selection).expect("executes");
    assert!(r.num_views > 0);
    assert!(r.benefit.is_finite());
    assert!(
        r.estimated_utility > r.benefit,
        "the lie shows up as estimated ≫ measured"
    );
}

#[test]
fn degenerate_workloads_produce_sane_selections() {
    // All-distinct queries (no sharing): candidates may exist only from
    // chance collisions; selection must never claim negative-utility wins.
    let w = autoview::workload::gen::generate(&autoview::workload::GeneratorConfig {
        name: "degenerate".into(),
        seed: 1,
        share_probability: 0.0,
        pool_per_table: 1,
        tables: 4,
        queries: 12,
        rows_range: (30, 60),
        ..autoview::workload::GeneratorConfig::default()
    });
    let pricing = Pricing::paper_defaults();
    let mut catalog = w.catalog.clone();
    let plans = w.plans();
    let pre = preprocess_and_measure(&mut catalog, &plans, pricing).expect("preprocess");
    let pairs = collect_pair_truth(&catalog, &pre, &plans, usize::MAX, 2).expect("pairs");
    let nc = pre.analysis.candidates.len();
    let mut benefits = vec![vec![0.0; nc]; plans.len()];
    for p in &pairs {
        benefits[p.query][p.candidate] = p.actual_benefit;
    }
    let instance = MvsInstance {
        benefits,
        overheads: pre.overheads.clone(),
        overlaps: pre.analysis.overlap_pairs.clone(),
    };
    let (opt, _) = instance.solve_exact(100_000);
    assert!(opt.utility >= 0.0, "empty selection is always available");
}

#[test]
fn metadata_db_round_trips_through_json() {
    let w = mini(104);
    let mut sys = AutoViewSystem::new(w.catalog.clone(), w.plans(), quick_config());
    sys.run().expect("pipeline");
    let json = sys.metadata.to_json();
    let back: autoview::core::MetadataDb = serde_json::from_str(&json).expect("parses");
    assert_eq!(back.num_pairs(), sys.metadata.num_pairs());
    assert_eq!(back.query_costs.len(), 40);
}
