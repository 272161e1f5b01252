//! Online scenario: the 226-query JOB workload replayed in two shifting
//! phases, streamed through two `OnlineSystem`s:
//!
//! - **adaptive** — drift detection on, re-selecting views when the window's
//!   candidate cost-mass distribution shifts;
//! - **static** — the same system with drift detection disabled, so it keeps
//!   the one-shot selection bootstrapped on the first phase.
//!
//! Both pay for their own view materializations; the table reports the
//! cumulative cost each actually spent and the net saving vs. running every
//! query unrewritten. The adaptive server's metrics snapshot is printed at
//! the end.
//!
//! Deterministic for a fixed seed (`AV_SEED`); scale with `AV_JOB_SCALE`.
//! `--trace-out <path>` dumps the adaptive server's span tree (`serve.reopt`
//! phases) as chrome://tracing JSON.

use av_bench::{render_table, BenchConfig};
use av_core::{OnlineSystem, OnlineSystemConfig, SelectorKind};
use av_online::DriftConfig;
use av_plan::PlanRef;
use av_select::IterViewConfig;
use av_serve::ServeConfig;
use av_trace::Tracer;
use av_workload::job::job_workload;

/// Passes over each phase's query list. Phase A streams long enough to
/// bootstrap and settle; phase B long enough for the adaptive engine's
/// re-selection to amortize its new materializations.
const PASSES_PER_PHASE: usize = 2;

fn system(catalog: &av_engine::Catalog, window: usize, seed: u64, adaptive: bool) -> OnlineSystem {
    let mut serve = ServeConfig::default();
    serve.lifecycle.byte_budget = usize::MAX;
    serve.selector = SelectorKind::IterView(IterViewConfig {
        iterations: 60,
        seed,
        freeze_after: None,
    });
    OnlineSystem::with_tracer(
        catalog.clone(),
        &[],
        OnlineSystemConfig {
            serve,
            window_size: window,
            check_every: 16,
            drift: DriftConfig {
                // An infinite threshold never triggers: the static system
                // keeps whatever the bootstrap selected.
                threshold: if adaptive { 0.3 } else { f64::INFINITY },
                min_queries_between: window as u64 / 2,
            },
            ..OnlineSystemConfig::default()
        },
        Tracer::new(),
    )
    .expect("constructs")
}

fn stream(sys: &mut OnlineSystem, phases: &[&[PlanRef]]) {
    for phase in phases {
        for _ in 0..PASSES_PER_PHASE {
            for q in *phase {
                sys.ingest(q).expect("query executes");
            }
        }
    }
}

fn main() {
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
    let mut adaptive = system(&w.catalog, window, cfg.seed, true);
    let mut static_ = system(&w.catalog, window, cfg.seed, false);
    stream(&mut adaptive, &[&phase_a, &phase_b]);
    stream(&mut static_, &[&phase_a, &phase_b]);

    let rows: Vec<Vec<String>> = [("adaptive", &adaptive), ("static", &static_)]
        .into_iter()
        .map(|(name, sys)| {
            let r = sys.report();
            vec![
                name.to_string(),
                format!("{:.4}", r.baseline_cost),
                format!("{:.4}", r.actual_cost),
                format!("{:.4}", r.view_overhead),
                format!("{:.4}", r.net_saving()),
                r.views_admitted.to_string(),
                r.views_evicted.to_string(),
                sys.server().metrics().counters["serve.rewrite_hits"].to_string(),
                r.drift_triggers.to_string(),
                r.reopts.to_string(),
            ]
        })
        .collect();
    println!(
        "{}",
        render_table(
            &[
                "engine",
                "raw $",
                "paid $",
                "views $",
                "net saved $",
                "admit",
                "evict",
                "hits",
                "drifts",
                "reopts",
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

    let report = adaptive.report();
    println!(
        "adaptive: {} estimator residuals recorded, {} admissions rejected, {} preflights refused",
        adaptive.server().stats_snapshot().residuals.recorded,
        report.admissions_rejected,
        report.preflight_refused
    );

    if let Some(path) = &trace_out {
        let snap = adaptive.server().tracer().snapshot();
        std::fs::write(path, av_trace::chrome_trace(&snap)).expect("trace written");
        println!(
            "\nwrote {path} ({} spans, {} phases) — open in chrome://tracing",
            snap.spans.len(),
            snap.phase_names().len()
        );
        println!("\nper-phase profile:\n{}", av_trace::profile_tree(&snap));
    }

    let metrics = serde_json::to_string_pretty(&adaptive.server().metrics()).expect("serializes");
    println!("\nadaptive metrics snapshot:\n{metrics}");
}
