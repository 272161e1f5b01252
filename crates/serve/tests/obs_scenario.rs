//! End-to-end telemetry scenario: a phase-shifted workload whose second
//! phase regresses latency, driven through a deterministic stepping clock.
//!
//! Phase A serves the mini workload with a tiny per-read clock step
//! (healthy, tens of microseconds per request). Phase B replays the same
//! queries with a huge step, so every request's measured latency blows
//! through the SLO threshold. The test asserts the full alerting path:
//! the healthy phase stores no flight-recorder dump, the multi-window
//! burn-rate monitor fires in phase B, its alert stores a dump, and the
//! dump contains the offending phase-B records.

use av_cost::OptimizerEstimator;
use av_obs::{Objective, RecordStatus};
use av_online::LifecycleConfig;
use av_plan::Fingerprint;
use av_serve::{ObsConfig, ServeConfig, ViewServer};
use av_trace::{Clock, Tracer};
use av_workload::cloud::mini;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

/// A clock that self-advances by a configurable step on every read, so
/// each timed region in the serving path accrues deterministic latency
/// without any sleeping.
#[derive(Clone)]
struct SteppingClock {
    nanos: Arc<AtomicU64>,
    step: Arc<AtomicU64>,
}

impl SteppingClock {
    fn new(step: u64) -> SteppingClock {
        SteppingClock {
            nanos: Arc::new(AtomicU64::new(0)),
            step: Arc::new(AtomicU64::new(step)),
        }
    }

    fn set_step(&self, step: u64) {
        self.step.store(step, Ordering::SeqCst);
    }
}

impl Clock for SteppingClock {
    fn now_nanos(&self) -> u64 {
        let step = self.step.load(Ordering::SeqCst);
        self.nanos.fetch_add(step, Ordering::SeqCst) + step
    }
}

fn server_on(clock: &SteppingClock, w: &av_workload::Workload) -> ViewServer {
    server_with(clock, w, ObsConfig::default())
}

fn server_with(clock: &SteppingClock, w: &av_workload::Workload, obs: ObsConfig) -> ViewServer {
    let tracer = Tracer::with_clock(Box::new(clock.clone()));
    ViewServer::with_tracer(
        w.catalog.clone(),
        Box::new(OptimizerEstimator::default()),
        ServeConfig {
            lifecycle: LifecycleConfig {
                byte_budget: usize::MAX,
                min_benefit_per_byte: 0.0,
                tenant_byte_budget: usize::MAX,
            },
            obs,
            ..ServeConfig::default()
        },
        tracer,
    )
}

/// Value of the un-labeled sample `name` in a Prometheus scrape body.
fn sample(text: &str, name: &str) -> f64 {
    text.lines()
        .find_map(|l| l.strip_prefix(name)?.strip_prefix(' ')?.parse().ok())
        .unwrap_or_else(|| panic!("no sample {name} in:\n{text}"))
}

#[test]
fn phase_shift_fires_burn_alert_and_dumps_offending_queries() {
    // Phase A: ~2µs per clock read — far under the 10ms SLO threshold.
    let clock = SteppingClock::new(2_000);
    let w = mini(91);
    let plans = w.plans();
    let server = server_on(&clock, &w);

    // Warm up: admit views so routed queries carry frozen cost estimates.
    server.reoptimize(&plans, None).expect("reoptimizes");

    for _ in 0..8 {
        for p in &plans {
            server.execute("acme", p).expect("healthy phase serves");
        }
    }
    assert!(
        server.obs().alerts().is_empty(),
        "healthy phase must not breach the SLO"
    );
    assert!(
        server.obs().dumps().is_empty(),
        "healthy phase must store no dump"
    );

    // Phase B: 10ms per clock read — every request now measures well over
    // the 10ms latency threshold (three reads, so two steps, span a request).
    clock.set_step(10_000_000);
    let phase_b_fps: Vec<u64> = plans.iter().map(|p| Fingerprint::of(p).0).collect();
    for _ in 0..12 {
        for p in &plans {
            server.execute("acme", p).expect("slow phase still serves");
        }
    }

    // The burn-rate monitor fired for the latency objective.
    let alerts = server.obs().alerts();
    assert!(
        alerts
            .iter()
            .any(|a| a.tenant == "acme" && a.objective == Objective::LatencyP99),
        "phase shift must fire a latency burn-rate alert, got {alerts:?}"
    );
    let fired = alerts
        .iter()
        .find(|a| a.objective == Objective::LatencyP99)
        .expect("latency alert");
    assert!(fired.fast_burn >= 6.0, "fast window saturates its burn");
    assert!(fired.slow_burn >= 3.0, "slow window saturates its burn");

    // The alert captured a flight dump.
    let dumps = server.obs().dumps();
    let reasons: Vec<&str> = dumps.iter().map(|d| d.reason.as_str()).collect();
    assert!(
        reasons.contains(&"slo_latency_burn"),
        "burn alert dumps the ring, got {reasons:?}"
    );

    // The dump holds the offending queries: phase-B fingerprints whose
    // measured latency breached the threshold.
    let dump = dumps
        .iter()
        .find(|d| d.reason == "slo_latency_burn")
        .expect("slo dump");
    let threshold_nanos = 10_000u64 * 1_000;
    let offending = dump
        .records
        .iter()
        .filter(|r| {
            r.tenant == "acme"
                && r.status == RecordStatus::Ok
                && phase_b_fps.contains(&r.plan_fp)
                && r.admit_wait_nanos + r.exec_nanos > threshold_nanos
        })
        .count();
    assert!(
        offending > 0,
        "dump must contain the slow phase-B records themselves"
    );

    // The snapshot agrees with the alert history and serializes.
    let stats = server.stats_snapshot();
    assert!(stats.enabled);
    assert!(!stats.alerts.is_empty());
    assert!(!stats.dumps.is_empty());
    let t = stats
        .slo
        .iter()
        .find(|t| t.tenant == "acme")
        .expect("tenant slo stats");
    assert!(t.alerts_fired > 0);
    assert!(t.p99_us >= 10_000.0, "p99 reflects the regression");
    let json = serde_json::to_string(&stats).expect("stats serialize");
    assert!(json.contains("slo_latency_burn"));

    // Each alert is counted once, in the SLO windows, and the scrape folds
    // `serve_slo_alerts` from them.
    let text = server.prometheus_text();
    let per_tenant: f64 = text
        .lines()
        .filter_map(|l| l.strip_prefix("slo_alerts_fired_total{"))
        .map(|l| {
            l.rsplit(' ')
                .next()
                .expect("value")
                .parse::<f64>()
                .expect("number")
        })
        .sum();
    assert!(per_tenant > 0.0);
    assert_eq!(sample(&text, "serve_slo_alerts"), per_tenant);
}

#[test]
fn routed_queries_record_residuals_and_export_exposition() {
    let clock = SteppingClock::new(1_000);
    let w = mini(92);
    let plans = w.plans();
    let server = server_on(&clock, &w);

    // No estimates before the first swap: nothing to compare against.
    server.execute("t0", &plans[0]).expect("serves");
    assert_eq!(server.stats_snapshot().residuals.recorded, 0);

    // After reoptimize the deployment carries frozen per-query estimates;
    // routed repeats feed the residual stream.
    server.reoptimize(&plans, None).expect("reoptimizes");
    assert!(
        server.current().estimate_count() > 0,
        "swap freezes estimates for routed window queries"
    );
    for _ in 0..2 {
        for p in &plans {
            server.execute("t0", p).expect("serves");
        }
    }
    let stats = server.stats_snapshot();
    assert!(
        stats.residuals.recorded > 0,
        "routed repeats must record residuals"
    );
    assert!(!stats.residuals.per_view.is_empty());
    assert!(!stats.residuals.per_op.is_empty());

    // The exposition stitches registry metrics, SLO series and residual
    // aggregates into one scrape body.
    let text = server.prometheus_text();
    assert!(text.contains("serve_latency_us_bucket"));
    assert!(text.contains("le=\"+Inf\""));
    assert!(text.contains("slo_requests{tenant=\"t0\"}"));
    assert!(text.contains("residuals_recorded_total"));
    assert!(text.contains("residual_q_error_mean{view="));

    // Every serve/cache family of the committed scrape body
    // (METRICS_serve.prom) is still exposed, under the same type, although
    // none of them is pushed per request any more.
    let mut families: Vec<String> = (0..16)
        .flat_map(|i| ["hit", "miss"].map(|k| format!("engine_cache_shard{i}_{k} counter")))
        .collect();
    families.extend(
        [
            "serve_preflight_proved counter",
            "serve_preflight_unknown counter",
            "serve_reopt_runs counter",
            "serve_requests counter",
            "serve_requests_rewritten counter",
            "serve_rewrite_hits counter",
            "serve_swaps counter",
            "serve_epoch gauge",
            "serve_frozen_estimates gauge",
            "serve_live_views gauge",
            "serve_route_memo_hits gauge",
            "serve_route_memo_misses gauge",
            "serve_latency_us histogram",
            "serve_query_cost histogram",
            "serve_reopt_seconds_total counter",
            "serve_reopt_count counter",
            "serve_request_seconds_total counter",
            "serve_request_count counter",
        ]
        .map(String::from),
    );
    for family in &families {
        assert!(
            text.contains(&format!("# TYPE {family}\n")),
            "family {family} dropped from the exposition"
        );
    }
    assert!(!text.contains("# TYPE sched_"), "no sched_ family");

    // The folded series agree with their owners.
    let totals = server.obs().totals();
    let served = 1 + 2 * plans.len() as u64;
    assert_eq!(totals.served, served);
    assert_eq!(
        sample(&text, "serve_requests"),
        (stats.recorded - totals.shed - totals.errors) as f64
    );
    assert_eq!(sample(&text, "serve_latency_us_count"), served as f64);
    assert_eq!(sample(&text, "serve_request_count"), served as f64);
    let shard_hits: f64 = (0..16)
        .map(|i| sample(&text, &format!("engine_cache_shard{i}_hit")))
        .sum();
    assert_eq!(shard_hits, server.cache_stats().hits as f64);

    // On-demand dump sees the most recent traffic without storing itself.
    let dump = server.obs().dump_now("on-demand");
    assert!(!dump.records.is_empty());
    assert!(server.obs().dumps().is_empty());
    assert!(dump.records.iter().all(|r| r.status == RecordStatus::Ok));

    // Telemetry off changes no answer and records nothing.
    let quiet = server_with(&SteppingClock::new(1_000), &w, ObsConfig::disabled());
    quiet.reoptimize(&plans, None).expect("reoptimizes");
    for p in &plans {
        let loud = server.execute("t0", p).expect("serves");
        let silent = quiet.execute("t0", p).expect("serves");
        assert_eq!(loud.batch, silent.batch);
        assert_eq!(loud.cost_dollars, silent.cost_dollars);
        assert_eq!(loud.rewrite_hits, silent.rewrite_hits);
    }
    assert_eq!(quiet.stats_snapshot().recorded, 0);
    assert_eq!(quiet.obs().totals().served, 0);
}
