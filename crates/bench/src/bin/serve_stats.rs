//! `serve stats` — stand up the demo serving stack, drive closed-loop
//! traffic through a re-optimization swap, and print the telemetry layer's
//! snapshot as a dashboard: per-tenant SLO windows and burn rates, the
//! estimator-residual summary, stored flight-recorder dumps, and the
//! result-cache counters.
//!
//! Modes (mutually exclusive, dashboard is the default):
//!   --json   print the full `ObsStats` snapshot as JSON
//!   --prom   print the Prometheus text exposition
//!   --dump   capture an on-demand flight-recorder dump and print it as JSON
//!
//! Knobs: `AV_SERVE_SEED` (default 70), `AV_SERVE_TENANTS` (default 4),
//! `AV_SERVE_STATS_CLIENTS` (default 8), `AV_SERVE_STATS_REQUESTS`
//! (default 64 per client).

use av_bench::{knob, render_table};
use av_cost::OptimizerEstimator;
use av_online::LifecycleConfig;
use av_serve::{
    run_closed_loop, AdmissionConfig, ClosedLoopConfig, LoadReport, ObsConfig, ServeConfig,
    ViewServer,
};
use av_workload::cloud::mini;
use std::time::Duration;

fn expect_clean(report: &LoadReport, label: &str) {
    assert_eq!(report.failed, 0, "{label} pass: failed queries");
    assert_eq!(report.rejected, 0, "{label} pass: shed load");
}

fn main() {
    let mode = std::env::args().nth(1).unwrap_or_default();
    let seed = knob("AV_SERVE_SEED", 70u64);
    let tenants = knob("AV_SERVE_TENANTS", 4usize);
    let clients = knob("AV_SERVE_STATS_CLIENTS", 8usize);
    let requests = knob("AV_SERVE_STATS_REQUESTS", 64usize);

    let w = mini(seed);
    let plans = w.plans();
    let server = ViewServer::new(
        w.catalog.clone(),
        Box::new(OptimizerEstimator::default()),
        ServeConfig {
            lifecycle: LifecycleConfig {
                byte_budget: usize::MAX,
                min_benefit_per_byte: 0.0,
                tenant_byte_budget: usize::MAX,
            },
            admission: AdmissionConfig {
                max_inflight_per_tenant: 32,
                max_queued_per_tenant: 256,
            },
            obs: ObsConfig::default(),
            ..ServeConfig::default()
        },
    );

    // Cold pass, a re-optimization swap, then a warm pass on the new
    // epoch: after this the SLO windows, residual store (post-swap
    // queries carry estimates) and flight ring all have real traffic.
    let cfg = ClosedLoopConfig {
        clients,
        requests_per_client: requests,
        think: Duration::from_micros(500),
        tenants,
    };
    let cold = run_closed_loop(&server, &plans, &cfg);
    expect_clean(&cold, "cold");
    let reopt = server
        .reoptimize(&plans, Some("tenant0"))
        .expect("reoptimize");
    assert!(reopt.admitted > 0, "re-optimization admits views");
    let warm = run_closed_loop(&server, &plans, &cfg);
    expect_clean(&warm, "warm");
    assert!(
        warm.rewrite_hits > 0,
        "published views must route the workload"
    );
    let stats = server.stats_snapshot();

    match mode.as_str() {
        "--json" => {
            println!(
                "{}",
                serde_json::to_string_pretty(&stats).expect("stats to json")
            );
            return;
        }
        "--prom" => {
            print!("{}", server.prometheus_text());
            return;
        }
        "--dump" => {
            let dump = server.obs().dump_now("serve-stats");
            println!(
                "{}",
                serde_json::to_string_pretty(&dump).expect("dump to json")
            );
            return;
        }
        "" => {}
        other => {
            eprintln!("unknown flag {other}; expected --json, --prom or --dump");
            std::process::exit(2);
        }
    }

    println!("== serve stats (seed {seed}, {clients} clients x {requests} requests, {tenants} tenants) ==");
    println!(
        "epoch {}  live views {}  cold {:.0} qps / warm {:.0} qps  recorded {}",
        reopt.epoch, reopt.live_views, cold.qps, warm.qps, stats.recorded
    );

    println!("\n-- per-tenant SLO --");
    let rows: Vec<Vec<String>> = stats
        .slo
        .iter()
        .map(|t| {
            vec![
                t.tenant.clone(),
                format!("{}", t.requests),
                format!("{}", t.shed_or_failed),
                format!("{:.1}", t.p50_us),
                format!("{:.1}", t.p95_us),
                format!("{:.1}", t.p99_us),
                format!("{:.2}", t.latency_fast_burn),
                format!("{:.2}", t.latency_slow_burn),
                format!("{:.2}", t.availability_fast_burn),
                format!("{:.2}", t.availability_slow_burn),
                format!("{}", t.alerts_fired),
            ]
        })
        .collect();
    print!(
        "{}",
        render_table(
            &[
                "tenant",
                "reqs",
                "shed",
                "p50us",
                "p95us",
                "p99us",
                "lat-fast",
                "lat-slow",
                "avail-fast",
                "avail-slow",
                "alerts",
            ],
            &rows,
        )
    );

    println!(
        "\n-- estimator residuals ({} recorded) --",
        stats.residuals.recorded
    );
    let agg_row = |label: String, a: &av_serve::ErrorAggregate| {
        let over_pct = if a.samples > 0 {
            a.overestimates as f64 / a.samples as f64 * 100.0
        } else {
            0.0
        };
        vec![
            label,
            format!("{}", a.samples),
            format!("{:.2}", a.q_mean()),
            format!("{:.2}", a.q_p50),
            format!("{:.2}", a.q_p95),
            format!("{:.2}", a.q_max),
            format!("{over_pct:.0}%"),
            format!("{}", a.degenerate),
        ]
    };
    let mut rows: Vec<Vec<String>> = stats
        .residuals
        .per_op
        .iter()
        .map(|(op, a)| agg_row(format!("op:{op}"), a))
        .collect();
    rows.extend(
        stats
            .residuals
            .per_view
            .iter()
            .map(|(view, a)| agg_row(format!("view:{view:08x}"), a)),
    );
    print!(
        "{}",
        render_table(
            &["series", "samples", "mean-q", "p50-q", "p95-q", "max-q", "over", "degen"],
            &rows,
        )
    );

    if !stats.alerts.is_empty() {
        println!("\n-- SLO alerts --");
        for a in &stats.alerts {
            println!(
                "  {} {:?}: fast {:.1}x slow {:.1}x at {}ns",
                a.tenant, a.objective, a.fast_burn, a.slow_burn, a.at_nanos
            );
        }
    }

    println!("\n-- flight recorder --");
    if stats.dumps.is_empty() {
        println!(
            "  no alert-triggered dumps ({} suppressed)",
            stats.dumps_suppressed
        );
    } else {
        for d in &stats.dumps {
            println!("  {} at seq {} ({} records)", d.reason, d.seq_at, d.records);
        }
        println!("  {} further alerts suppressed", stats.dumps_suppressed);
    }

    let cache = server.cache_stats();
    let total = cache.hits + cache.misses;
    println!(
        "\n-- result cache --\n  {} hits / {} misses ({:.0}% hit rate), {} evictions ({} bytes shed)",
        cache.hits,
        cache.misses,
        if total > 0 {
            cache.hits as f64 / total as f64 * 100.0
        } else {
            0.0
        },
        cache.evictions,
        cache.evicted_bytes
    );

    let (memo_hits, memo_misses) = server.current().route_memo_stats();
    let memo_total = memo_hits + memo_misses;
    println!(
        "\n-- route memo --\n  {} hits / {} misses ({:.0}% hit rate)",
        memo_hits,
        memo_misses,
        if memo_total > 0 {
            memo_hits as f64 / memo_total as f64 * 100.0
        } else {
            0.0
        }
    );
    println!("\nre-run with --json, --prom or --dump for machine-readable output");
}
