//! Closed-loop workload replay against a [`ViewServer`].
//!
//! This module is the one library module that allows clippy's
//! `disallowed_methods` (the wall-clock and raw-thread rules of
//! `crates/clippy.toml`): its entire purpose is measuring real request
//! latency under concurrency, each client a thread of its own, so an
//! injected test clock would measure the mock instead of the system.
//! Closed-loop throughput feeds `serve_bench`'s telemetry-overhead
//! measurement and `serve_stats`' snapshot.
//!
//! [`run_closed_loop`]: each simulated client issues a request, waits for
//! the response, *thinks* for a fixed interval, and repeats — the classic
//! interactive-session model. Throughput scales with client count (think
//! times overlap) until service time saturates the machine; at zero think
//! time, saturated qps is `1 / service`. Open-loop (paced-arrival) load
//! lives in `pathbench`, which drives its own `serve_swap` workload.

#![allow(
    clippy::disallowed_methods,
    reason = "a load generator times real requests from client threads of its own"
)]

use crate::server::{ServeError, ViewServer};
use av_plan::PlanRef;
use av_trace::QuantileSketch;
use serde::{Deserialize, Serialize};
use std::time::{Duration, Instant};

/// Closed-loop client settings.
#[derive(Debug, Clone)]
pub struct ClosedLoopConfig {
    /// Simulated concurrent clients (one thread each).
    pub clients: usize,
    /// Requests each client issues before exiting.
    pub requests_per_client: usize,
    /// Think time between a response and the client's next request.
    pub think: Duration,
    /// Distinct tenants; client `i` submits as `tenant{i % tenants}`.
    pub tenants: usize,
}

impl Default for ClosedLoopConfig {
    fn default() -> Self {
        ClosedLoopConfig {
            clients: 1,
            requests_per_client: 64,
            think: Duration::from_millis(2),
            tenants: 4,
        }
    }
}

/// Aggregated result of one load run. Latencies are microseconds; mean and
/// max are exact, percentiles come from the clients' merged
/// [`QuantileSketch`]es (within 1/32 of the exact nearest-rank value).
#[derive(Debug, Clone, Default, Serialize, Deserialize)]
pub struct LoadReport {
    pub requests: u64,
    /// Engine or deployment errors — must be zero in a healthy run.
    pub failed: u64,
    /// Admission-control rejections (shed load, not failures).
    pub rejected: u64,
    pub wall_seconds: f64,
    pub qps: f64,
    pub mean_us: f64,
    pub p50_us: f64,
    pub p95_us: f64,
    pub p99_us: f64,
    pub max_us: f64,
    /// Σ view-routing subtree replacements across all requests.
    pub rewrite_hits: u64,
}

#[derive(Default)]
struct ClientTally {
    latencies_us: QuantileSketch,
    failed: u64,
    rejected: u64,
    rewrite_hits: u64,
}

fn merge_report(tallies: Vec<ClientTally>, wall_seconds: f64) -> LoadReport {
    let mut all = QuantileSketch::new();
    let mut failed = 0;
    let mut rejected = 0;
    let mut rewrite_hits = 0;
    for t in tallies {
        all.merge(&t.latencies_us);
        failed += t.failed;
        rejected += t.rejected;
        rewrite_hits += t.rewrite_hits;
    }
    let requests = all.count();
    let at = |q| all.quantile(q).unwrap_or(0.0);
    LoadReport {
        requests,
        failed,
        rejected,
        wall_seconds,
        qps: if wall_seconds > 0.0 {
            requests as f64 / wall_seconds
        } else {
            0.0
        },
        mean_us: all.mean(),
        p50_us: at(0.50),
        p95_us: at(0.95),
        p99_us: at(0.99),
        max_us: at(1.0),
        rewrite_hits,
    }
}

/// Replay `plans` from `cfg.clients` simulated sessions, each cycling
/// request → think → request. Client `i` starts at plan offset `i` so
/// concurrent clients spread over the workload instead of convoying.
pub fn run_closed_loop(
    server: &ViewServer,
    plans: &[PlanRef],
    cfg: &ClosedLoopConfig,
) -> LoadReport {
    if plans.is_empty() || cfg.clients == 0 {
        return LoadReport::default();
    }
    let started = Instant::now();
    #[allow(
        clippy::expect_used,
        reason = "a client panics only if `execute` did; the join passes that panic on"
    )]
    let tallies: Vec<ClientTally> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..cfg.clients)
            .map(|client| {
                scope.spawn(move || {
                    let tenant = format!("tenant{}", client % cfg.tenants.max(1));
                    let mut tally = ClientTally::default();
                    for r in 0..cfg.requests_per_client {
                        let plan = &plans[(client + r) % plans.len()];
                        let t0 = Instant::now();
                        match server.execute(&tenant, plan) {
                            Ok(resp) => {
                                tally.latencies_us.observe(t0.elapsed().as_secs_f64() * 1e6);
                                tally.rewrite_hits += resp.rewrite_hits as u64;
                            }
                            Err(ServeError::Rejected(_)) => tally.rejected += 1,
                            Err(_) => tally.failed += 1,
                        }
                        if !cfg.think.is_zero() {
                            std::thread::sleep(cfg.think);
                        }
                    }
                    tally
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("client thread"))
            .collect()
    });
    merge_report(tallies, started.elapsed().as_secs_f64())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::ServeConfig;
    use av_cost::OptimizerEstimator;
    use av_online::LifecycleConfig;
    use av_workload::cloud::mini;

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

    #[test]
    fn closed_loop_completes_every_request() {
        let w = mini(81);
        let plans = w.plans();
        let server = server_for(&w);
        let report = run_closed_loop(
            &server,
            &plans,
            &ClosedLoopConfig {
                clients: 4,
                requests_per_client: 8,
                think: Duration::from_micros(100),
                tenants: 2,
            },
        );
        assert_eq!(report.requests, 32);
        assert_eq!(report.failed, 0);
        assert_eq!(report.rejected, 0);
        assert!(report.qps > 0.0);
        assert!(report.p50_us <= report.p95_us && report.p95_us <= report.p99_us);
        assert!(report.p99_us <= report.max_us);
    }
}
