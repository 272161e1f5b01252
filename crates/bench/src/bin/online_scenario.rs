//! Online scenario: the 226-query JOB workload replayed in two shifting
//! phases, streamed through two engines:
//!
//! - **adaptive** — drift detection on, re-selecting views when the window's
//!   candidate cost-mass distribution shifts;
//! - **static** — the same engine with drift detection disabled, so it keeps
//!   the one-shot selection bootstrapped on the first phase.
//!
//! Both pay for their own view materializations; the table reports the
//! cumulative cost each actually spent and the net saving vs. running every
//! query unrewritten. The adaptive engine's metrics snapshot is printed at
//! the end.
//!
//! Deterministic for a fixed seed (`AV_SEED`); scale with `AV_JOB_SCALE`.
//! `--trace-out <path>` dumps the adaptive engine's span tree as
//! chrome://tracing JSON.

use av_bench::{render_table, BenchConfig};
use av_cost::OptimizerEstimator;
use av_engine::Pricing;
use av_online::{DriftConfig, LifecycleConfig, OnlineConfig, OnlineEngine, SelectorKind};
use av_plan::PlanRef;
use av_select::IterViewConfig;
use av_workload::job::job_workload;

/// Passes over each phase's query list. Phase A streams long enough to
/// bootstrap and settle; phase B long enough for the adaptive engine's
/// re-selection to amortize its new materializations.
const PASSES_PER_PHASE: usize = 2;

fn engine(workload_catalog: &av_engine::Catalog, window: usize, seed: u64, adaptive: bool) -> OnlineEngine {
    OnlineEngine::new(
        workload_catalog.clone(),
        Box::new(OptimizerEstimator::default()),
        OnlineConfig {
            pricing: Pricing::paper_defaults(),
            window_size: window,
            check_every: 16,
            drift: DriftConfig {
                // An infinite threshold never triggers: the static engine
                // keeps whatever the bootstrap selected.
                threshold: if adaptive { 0.3 } else { f64::INFINITY },
                min_queries_between: window as u64 / 2,
            },
            lifecycle: LifecycleConfig {
                byte_budget: usize::MAX,
                min_benefit_per_byte: 0.0,
                tenant_byte_budget: usize::MAX,
            },
            selector: SelectorKind::IterView(IterViewConfig {
                iterations: 60,
                seed,
                freeze_after: None,
            }),
        },
    )
}

fn stream(eng: &mut OnlineEngine, phases: &[&[PlanRef]]) {
    for phase in phases {
        for _ in 0..PASSES_PER_PHASE {
            for q in *phase {
                eng.ingest(q).expect("query executes");
            }
        }
    }
}

fn main() {
    if cfg!(debug_assertions) {
        av_analyze::install_engine_gate();
    }
    let mut trace_out: Option<String> = None;
    let mut argv = std::env::args().skip(1);
    while let Some(a) = argv.next() {
        match a.as_str() {
            "--trace-out" => trace_out = Some(argv.next().expect("--trace-out needs a path")),
            other => panic!("unknown argument {other:?} (expected --trace-out <path>)"),
        }
    }
    let cfg = BenchConfig::from_env();
    let w = job_workload(cfg.job_scale, cfg.seed);
    let plans = w.plans();
    // JOB queries come in template pairs (query 2t, 2t+1), and templates
    // share their reusable subquery through a pool of 24 (edge, filter)
    // combos. Split by combo class — not position — so the two phases have
    // *disjoint* candidate subqueries: a genuine workload shift.
    let mut phase_a: Vec<PlanRef> = Vec::new();
    let mut phase_b: Vec<PlanRef> = Vec::new();
    for (i, p) in plans.iter().enumerate() {
        if (i / 2) % 24 < 12 {
            phase_a.push(p.clone());
        } else {
            phase_b.push(p.clone());
        }
    }
    println!(
        "JOB replay: {} queries, phase A = {} x{PASSES_PER_PHASE}, phase B = {} x{PASSES_PER_PHASE} (seed {})\n",
        plans.len(),
        phase_a.len(),
        phase_b.len(),
        cfg.seed
    );

    let window = phase_a.len().min(phase_b.len());
    let mut adaptive = engine(&w.catalog, window, cfg.seed, true);
    let mut static_ = engine(&w.catalog, window, cfg.seed, false);
    stream(&mut adaptive, &[&phase_a, &phase_b]);
    stream(&mut static_, &[&phase_a, &phase_b]);

    let rows: Vec<Vec<String>> = [("adaptive", &adaptive), ("static", &static_)]
        .into_iter()
        .map(|(name, eng)| {
            let r = eng.report();
            let m = eng.metrics();
            vec![
                name.to_string(),
                format!("{:.4}", r.baseline_cost),
                format!("{:.4}", r.actual_cost),
                format!("{:.4}", r.view_overhead),
                format!("{:.4}", r.net_saving()),
                m.counter("online.views_admitted").to_string(),
                m.counter("online.views_evicted").to_string(),
                m.counter("online.rewrite_hits").to_string(),
                m.counter("online.drift_triggers").to_string(),
                m.counter("online.reopt_runs").to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "engine", "raw $", "paid $", "views $", "net saved $", "admit", "evict", "hits",
                "drifts", "reopts",
            ],
            &rows,
        )
    );

    let gap = adaptive.report().net_saving() - static_.report().net_saving();
    println!("\nadaptive saved {gap:.4} $ more than static one-shot selection");
    assert!(
        gap > 0.0,
        "adaptive must beat static on a phase-shifted workload"
    );

    if let Some(path) = &trace_out {
        let snap = adaptive.tracer().snapshot();
        std::fs::write(path, av_trace::chrome_trace(&snap)).expect("trace written");
        println!(
            "\nwrote {path} ({} spans, {} phases) — open in chrome://tracing",
            snap.spans.len(),
            snap.phase_names().len()
        );
        println!("\nper-phase profile:\n{}", av_trace::profile_tree(&snap));
    }

    println!("\nadaptive metrics snapshot:\n{}", adaptive.metrics_json());
}
