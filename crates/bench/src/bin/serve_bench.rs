//! Serving-layer benchmark: closed-loop latency/throughput at 1, 8 and 64
//! concurrent clients, cold vs warm cache, with a re-optimization landing
//! mid-load at the highest concurrency — plus one open-loop run at a fixed
//! arrival rate.
//!
//! Writes `BENCH_serve.json` (machine-readable, consumed by CI) into the
//! working directory and prints the same numbers as tables.
//!
//! Throughput model: clients are closed-loop (request → think → repeat), so
//! on a single core qps ≈ clients / (think + service) until 1/service
//! saturates the machine. The scaling claim this benchmark checks — warm
//! 64-client throughput ≥ 4× the 1-client figure — comes from overlapping
//! think times, not from parallel execution, and holds on one core.
//!
//! With cores to win on, warm top-concurrency throughput must also clear
//! 1.5x the pre-pool 9,491 qps seed figure.
//!
//! Knobs: `AV_SERVE_REQUESTS` (default 64) requests per client,
//! `AV_SERVE_THINK_US` (default 2000) think time in microseconds,
//! `AV_SERVE_SEED` (default 70) workload seed, `AV_SERVE_TENANTS`
//! (default 4), `AV_SERVE_OPEN_QPS` (default 400) open-loop arrival rate.

use av_cost::OptimizerEstimator;
use av_online::LifecycleConfig;
use av_serve::{
    run_closed_loop, run_open_loop, AdmissionConfig, ClosedLoopConfig, FlightDump, LoadReport,
    ObsConfig, OpenLoopConfig, ServeConfig, ViewServer,
};
use av_workload::cloud::mini;
use serde::Serialize;
use std::time::Duration;

#[derive(Debug, Clone, Serialize)]
struct BenchConfig {
    seed: u64,
    requests_per_client: usize,
    think_us: u64,
    tenants: usize,
    plans: usize,
    cores: usize,
}

#[derive(Debug, Clone, Serialize)]
struct ReoptRecord {
    epoch: u64,
    admitted: usize,
    dropped: usize,
    rejected: usize,
    live_views: usize,
    /// The swap landed while the warm 64-client run was in flight.
    during_live_load: bool,
}

#[derive(Debug, Clone, Serialize)]
struct LevelResult {
    clients: usize,
    cold: LoadReport,
    warm: LoadReport,
    /// Only at the highest level: the warm run with re-optimization racing
    /// it, and a post-swap pass served entirely from the new epoch.
    #[serde(skip_serializing_if = "Option::is_none")]
    reopt: Option<ReoptRecord>,
    #[serde(skip_serializing_if = "Option::is_none")]
    post_reopt: Option<LoadReport>,
}

#[derive(Debug, Clone, Serialize)]
struct CacheRecord {
    hits: u64,
    misses: u64,
    evictions: u64,
    /// Result bytes shed by capacity evictions (memory-pressure signal).
    evicted_bytes: u64,
    hit_rate: f64,
    shards: usize,
}

/// Telemetry-overhead measurement: the warm top-concurrency ladder run at
/// zero think time with the flight recorder / SLO monitor / residual
/// stream on vs off, interleaved, best-of-`reps` throughput per mode.
///
/// The *measurement* is the saturated service-time delta, not closed-loop
/// latency: with more clients than cores, mean latency at saturation is
/// roughly `clients x service - think`, so a sub-microsecond service-time
/// cost shows up amplified `clients`-fold in the mean. Saturated qps is
/// `1 / service`, making `1/qps_on - 1/qps_off` the exact per-query cost
/// in nanoseconds. The *gate* is an absolute backstop on that cost.
#[derive(Debug, Clone, Serialize)]
struct ObsRecord {
    reps: usize,
    qps_off: f64,
    qps_on: f64,
    /// Informational: best warm mean latency per mode at saturation.
    mean_us_off: f64,
    mean_us_on: f64,
    /// Per-query telemetry cost in nanoseconds: the median over reps of
    /// the paired per-rep `1/qps_on - 1/qps_off` at saturation, where
    /// throughput is the reciprocal of service time. May be negative
    /// within noise.
    overhead_ns: f64,
    /// `(qps_off / qps_on - 1)` in percent of the saturated warm-hit
    /// service time — the most adversarial denominator the bench has.
    overhead_pct: f64,
    /// Counters from the telemetry-on server after its measured run.
    recorded: u64,
    residuals_recorded: u64,
    alerts: u64,
    dumps: u64,
}

/// The flight-recorder artifact (`FLIGHT_serve.json`): the stored
/// anomaly/alert-triggered dumps plus one on-demand capture at the end.
#[derive(Debug, Clone, Serialize)]
struct FlightArtifact {
    stored: Vec<FlightDump>,
    on_demand: FlightDump,
}

#[derive(Debug, Clone, Serialize)]
struct ScalingRecord {
    qps_warm_1: f64,
    qps_warm_max: f64,
    ratio: f64,
}

#[derive(Debug, Clone, Serialize)]
struct ServeBenchReport {
    config: BenchConfig,
    levels: Vec<LevelResult>,
    scaling: ScalingRecord,
    open_loop: LoadReport,
    /// Sharded result-cache counters of the 64-client server.
    cache: CacheRecord,
    /// Telemetry on-vs-off overhead on the warm top-concurrency ladder.
    obs: ObsRecord,
}

fn envu(key: &str, default: u64) -> u64 {
    std::env::var(key)
        .ok()
        .and_then(|v| v.parse().ok())
        .unwrap_or(default)
}

fn server_with_obs(w: &av_workload::Workload, obs: ObsConfig) -> ViewServer {
    ViewServer::new(
        w.catalog.clone(),
        Box::new(OptimizerEstimator::default()),
        ServeConfig {
            lifecycle: LifecycleConfig {
                byte_budget: usize::MAX,
                min_benefit_per_byte: 0.0,
                tenant_byte_budget: usize::MAX,
            },
            // Deep enough that 64 closed-loop clients queue rather than
            // shed: queue wait is charged to latency, not dropped.
            admission: AdmissionConfig {
                max_inflight_per_tenant: 32,
                max_queued_per_tenant: 256,
            },
            obs,
            ..ServeConfig::default()
        },
    )
}

fn server_for(w: &av_workload::Workload) -> ViewServer {
    server_with_obs(w, ObsConfig::default())
}

/// Interleave telemetry-off and telemetry-on warm runs at the top
/// concurrency with zero think time and keep each mode's best (maximum)
/// saturated throughput: the ceiling is what the service path actually
/// sustains, the rest is scheduler noise shared by both modes. Returns
/// the record plus the last telemetry-on server, whose counters and
/// ring feed the artifacts.
fn measure_obs_overhead(
    w: &av_workload::Workload,
    plans: &[av_plan::PlanRef],
    cfg: &ClosedLoopConfig,
    reps: usize,
) -> (ObsRecord, ViewServer) {
    let warmup_cfg = ClosedLoopConfig {
        think: Duration::ZERO,
        requests_per_client: (cfg.requests_per_client * 4).max(256),
        ..cfg.clone()
    };
    // Much longer measured runs than the ladder's: scheduler disturbances
    // (background kernel work, preemption storms) cost a roughly fixed
    // number of milliseconds regardless of run length, so their per-query
    // contribution shrinks linearly with requests. At ~40ms a single
    // disturbance reads as ±500ns/query; at ~160ms it is down in the
    // double digits. The floors keep the measurement honest when
    // `AV_SERVE_REQUESTS` is dialed down for a smoke run.
    let cfg = ClosedLoopConfig {
        requests_per_client: (cfg.requests_per_client * 16).max(1024),
        ..warmup_cfg.clone()
    };
    let mut best_qps = [0.0f64; 2];
    let mut best_mean = [f64::INFINITY; 2];
    let mut deltas_ns = Vec::new();
    let mut last_on = None;
    for rep in 0..reps {
        // Alternate which mode goes first so slow drift in the host's
        // background load cancels out of the comparison.
        let order = if rep % 2 == 0 {
            [false, true]
        } else {
            [true, false]
        };
        let mut rep_qps = [0.0f64; 2];
        for on in order {
            let obs = if on {
                ObsConfig::default()
            } else {
                ObsConfig::disabled()
            };
            let server = server_with_obs(w, obs);
            let warmup = run_closed_loop(&server, plans, &warmup_cfg);
            expect_clean(&warmup, "obs ladder warmup");
            let warm = run_closed_loop(&server, plans, &cfg);
            expect_clean(&warm, "obs ladder warm");
            let i = on as usize;
            rep_qps[i] = warm.qps;
            best_qps[i] = best_qps[i].max(warm.qps);
            best_mean[i] = best_mean[i].min(warm.mean_us);
            if on {
                last_on = Some(server);
            }
        }
        // Pair the two adjacent runs of this rep: they share the host's
        // state of the moment, so their difference isolates the telemetry
        // cost far better than any cross-rep comparison.
        deltas_ns.push((1.0 / rep_qps[1] - 1.0 / rep_qps[0]) * 1e9);
    }
    // Median of the paired deltas: robust to a rep that caught a noisy
    // neighbour or an unlucky preemption in either mode.
    deltas_ns.sort_by(f64::total_cmp);
    let overhead_ns = deltas_ns[deltas_ns.len() / 2];
    println!(
        "telemetry per-rep paired deltas (ns/query, sorted): {:?}",
        deltas_ns.iter().map(|d| d.round()).collect::<Vec<_>>()
    );
    let server = last_on.expect("telemetry-on rep ran");
    let stats = server.stats_snapshot();
    let record = ObsRecord {
        reps,
        qps_off: best_qps[0],
        qps_on: best_qps[1],
        mean_us_off: best_mean[0],
        mean_us_on: best_mean[1],
        overhead_ns,
        overhead_pct: overhead_ns / (1e9 / best_qps[0]) * 100.0,
        recorded: stats.recorded,
        residuals_recorded: stats.residuals.recorded,
        alerts: stats.alerts.len() as u64,
        dumps: stats.dumps.len() as u64,
    };
    (record, server)
}

fn expect_clean(report: &LoadReport, label: &str) {
    assert_eq!(report.failed, 0, "{label}: failed queries");
    assert_eq!(report.rejected, 0, "{label}: shed load (widen admission)");
}

fn row(label: &str, r: &LoadReport) -> Vec<String> {
    vec![
        label.to_string(),
        format!("{}", r.requests),
        format!("{:.0}", r.qps),
        format!("{:.0}", r.p50_us),
        format!("{:.0}", r.p95_us),
        format!("{:.0}", r.p99_us),
        format!("{}", r.rewrite_hits),
    ]
}

fn main() {
    let seed = envu("AV_SERVE_SEED", 70);
    let requests_per_client = envu("AV_SERVE_REQUESTS", 64) as usize;
    let think_us = envu("AV_SERVE_THINK_US", 2000);
    let tenants = envu("AV_SERVE_TENANTS", 4) as usize;
    let open_qps = envu("AV_SERVE_OPEN_QPS", 400) as f64;

    let w = mini(seed);
    let plans = w.plans();
    let cores = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    let config = BenchConfig {
        seed,
        requests_per_client,
        think_us,
        tenants,
        plans: plans.len(),
        cores,
    };

    let levels_spec = [1usize, 8, 64];
    let top = *levels_spec.last().expect("levels");
    let mut levels: Vec<LevelResult> = Vec::new();
    let mut rows: Vec<Vec<String>> = Vec::new();
    let mut cache = None;

    for &clients in &levels_spec {
        // Fresh server per level: `cold` really is an empty result cache
        // and an epoch-0, view-free deployment.
        let server = server_for(&w);
        let cfg = ClosedLoopConfig {
            clients,
            requests_per_client,
            think: Duration::from_micros(think_us),
            tenants,
        };
        let cold = run_closed_loop(&server, &plans, &cfg);
        expect_clean(&cold, &format!("cold@{clients}"));

        let (warm, reopt, post_reopt) = if clients == top {
            // Race a re-optimization against the warm run: the swap must
            // land while clients are in flight, and nothing may fail.
            let reopt_delay = Duration::from_secs_f64((cold.wall_seconds * 0.25).max(0.001));
            let mut summary = None;
            let warm = std::thread::scope(|scope| {
                let server = &server;
                let plans = &plans;
                let handle = scope.spawn(move || {
                    std::thread::sleep(reopt_delay);
                    server.reoptimize(plans, Some("tenant0")).expect("reoptimizes")
                });
                let warm = run_closed_loop(server, plans, &cfg);
                summary = Some(handle.join().expect("reopt thread"));
                warm
            });
            let summary = summary.expect("reopt summary");
            assert_eq!(server.epoch(), 1, "the mid-load swap landed");
            assert!(summary.admitted > 0, "re-optimization admits views");
            let post = run_closed_loop(&server, &plans, &cfg);
            expect_clean(&post, &format!("post_reopt@{clients}"));
            assert!(
                post.rewrite_hits > 0,
                "published views must route the workload"
            );
            (
                warm,
                Some(ReoptRecord {
                    epoch: summary.epoch,
                    admitted: summary.admitted,
                    dropped: summary.dropped,
                    rejected: summary.rejected,
                    live_views: summary.live_views,
                    during_live_load: true,
                }),
                Some(post),
            )
        } else {
            (run_closed_loop(&server, &plans, &cfg), None, None)
        };
        expect_clean(&warm, &format!("warm@{clients}"));

        rows.push(row(&format!("cold  x{clients}"), &cold));
        rows.push(row(&format!("warm  x{clients}"), &warm));
        if let Some(p) = &post_reopt {
            rows.push(row(&format!("post  x{clients}"), p));
        }
        if clients == top {
            let stats = server.cache_stats();
            cache = Some(CacheRecord {
                hits: stats.hits,
                misses: stats.misses,
                evictions: stats.evictions,
                evicted_bytes: stats.evicted_bytes,
                hit_rate: stats.hit_rate(),
                shards: server.shard_stats().len(),
            });
        }
        levels.push(LevelResult {
            clients,
            cold,
            warm,
            reopt,
            post_reopt,
        });
    }

    let qps_warm_1 = levels[0].warm.qps;
    let qps_warm_max = levels.last().expect("levels").warm.qps;
    let scaling = ScalingRecord {
        qps_warm_1,
        qps_warm_max,
        ratio: if qps_warm_1 > 0.0 {
            qps_warm_max / qps_warm_1
        } else {
            0.0
        },
    };

    // One open-loop run on a fresh server: fixed arrival rate, bounded
    // queue, latency measured from the scheduled arrival.
    let open_server = server_for(&w);
    let open_loop = run_open_loop(
        &open_server,
        &plans,
        &OpenLoopConfig {
            workers: 4,
            target_qps: open_qps,
            requests: (requests_per_client * 4).max(32),
            queue_depth: 64,
            tenants,
        },
    );
    assert_eq!(open_loop.failed, 0, "open loop: failed queries");
    rows.push(row(&format!("open  @{open_qps:.0}qps"), &open_loop));

    // Telemetry overhead at the top concurrency, then export the
    // telemetry-on server's scrape body and flight-recorder artifacts.
    let obs_reps = envu("AV_SERVE_OBS_REPS", 5) as usize;
    let top_cfg = ClosedLoopConfig {
        clients: top,
        requests_per_client,
        think: Duration::from_micros(think_us),
        tenants,
    };
    let (mut obs, obs_server) = measure_obs_overhead(&w, &plans, &top_cfg, obs_reps);
    // Populate the residual stream before exporting: routed queries only
    // carry estimates once views are published, so swap a deployment in
    // and take one short pass over the plans.
    obs_server
        .reoptimize(&plans, Some("tenant0"))
        .expect("obs server reoptimizes");
    let residual_pass = run_closed_loop(&obs_server, &plans, &top_cfg);
    expect_clean(&residual_pass, "obs residual pass");
    let final_stats = obs_server.stats_snapshot();
    obs.recorded = final_stats.recorded;
    obs.residuals_recorded = final_stats.residuals.recorded;
    obs.alerts = final_stats.alerts.len() as u64;
    obs.dumps = final_stats.dumps.len() as u64;
    std::fs::write("METRICS_serve.prom", obs_server.prometheus_text())
        .expect("METRICS_serve.prom written");
    let flight = FlightArtifact {
        stored: obs_server.obs().dumps(),
        on_demand: obs_server.obs().dump_now("bench-on-demand"),
    };
    std::fs::write(
        "FLIGHT_serve.json",
        serde_json::to_string_pretty(&flight).expect("flight serializes"),
    )
    .expect("FLIGHT_serve.json written");

    // Telemetry gate: an absolute backstop at 300ns — ~3x the measured
    // per-query cost — catches the regressions that matter (a dump captured
    // on the serving path costs ~1ms; the old per-fire capture bug measured
    // +30µs per query). The measurement is the saturated service-time
    // delta: at think 0, qps is the reciprocal of service time, so
    // `1/qps_on - 1/qps_off` is exact nanoseconds per query. The tracked
    // number is `obs.cost_ns` on the pathbench ledger.
    let backstop_ns = 300.0;

    let report = ServeBenchReport {
        config: config.clone(),
        levels,
        scaling: scaling.clone(),
        open_loop,
        cache: cache.expect("top level ran"),
        obs: obs.clone(),
    };
    let json = serde_json::to_string_pretty(&report).expect("report serializes");
    std::fs::write("BENCH_serve.json", &json).expect("BENCH_serve.json written");

    println!(
        "{}",
        av_bench::render_table(
            &["phase", "requests", "qps", "p50 µs", "p95 µs", "p99 µs", "rewrites"],
            &rows
        )
    );
    println!(
        "\nscaling (warm, think {think_us}µs, {cores} core(s)): 1 client {:.0} qps -> {top} clients {:.0} qps ({:.1}x)",
        scaling.qps_warm_1, scaling.qps_warm_max, scaling.ratio
    );
    println!(
        "\ntelemetry overhead (saturated x{top}, think 0, best of {obs_reps}): \
         off {:.0} qps -> on {:.0} qps = {:+.0}ns/query ({:+.2}% of the {:.1}µs warm hit); \
         {backstop_ns:.0}ns backstop; {} records, {} residuals, {} alerts, {} dumps",
        obs.qps_off, obs.qps_on, obs.overhead_ns, obs.overhead_pct,
        1e6 / obs.qps_off,
        obs.recorded, obs.residuals_recorded, obs.alerts, obs.dumps
    );
    println!("wrote BENCH_serve.json, METRICS_serve.prom, FLIGHT_serve.json");

    assert!(
        scaling.ratio >= 4.0,
        "64-client warm throughput must be >= 4x the 1-client figure, got {:.2}x",
        scaling.ratio
    );
    assert!(
        obs.recorded > 0,
        "the telemetry-on ladder must flow through the flight recorder"
    );
    assert!(
        obs.residuals_recorded > 0,
        "the post-swap pass must feed the estimator-residual stream"
    );
    assert!(
        obs.overhead_ns < backstop_ns,
        "telemetry regression backstop: per-query cost must stay under {backstop_ns:.0}ns, \
         got {:+.0}ns/query (off {:.0} qps, on {:.0} qps)",
        obs.overhead_ns,
        obs.qps_off,
        obs.qps_on
    );
    // Absolute throughput gate vs the pre-pool seed figure (9,491 qps warm
    // at 64 clients): the pooled, elastically parallel server must clear
    // 1.5x that. The win comes from real parallel execution, so the gate
    // only binds with cores to parallelize across; on one core the ladder
    // is reported but the multiplier is unreachable by construction.
    const SEED_WARM_TOP_QPS: f64 = 9_491.0;
    if cores > 1 {
        assert!(
            scaling.qps_warm_max >= 1.5 * SEED_WARM_TOP_QPS,
            "warm x{top} throughput {:.0} qps below 1.5x the {SEED_WARM_TOP_QPS:.0} qps seed figure",
            scaling.qps_warm_max
        );
    } else {
        println!(
            "single core: warm x{top} absolute gate (>= {:.0} qps) skipped, measured {:.0} qps",
            1.5 * SEED_WARM_TOP_QPS,
            scaling.qps_warm_max
        );
    }
}
