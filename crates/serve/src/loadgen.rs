//! Workload replay against a [`ViewServer`]: closed- and open-loop clients.
//!
//! This module is the one sanctioned wall-clock site in library code (see
//! `av-analyze`'s determinism lint): its entire purpose is measuring real
//! request latency under concurrency, so an injected test clock would
//! measure the mock instead of the system. Closed-loop throughput feeds
//! `serve_bench`'s telemetry-overhead measurement; nothing here is
//! replayed.
//!
//! - **Closed loop** ([`run_closed_loop`]): each simulated client issues a
//!   request, waits for the response, *thinks* for a fixed interval, and
//!   repeats — the classic interactive-session model. Throughput scales
//!   with client count (think times overlap) until service time saturates
//!   the machine; at zero think time, saturated qps is `1 / service`.
//! - **Open loop** ([`run_open_loop`]): a dispatcher emits arrivals at a
//!   fixed rate into a bounded queue drained by a worker pool. When the
//!   queue is full the dispatcher blocks (backpressure, counted) instead
//!   of buffering unboundedly. Latency is measured from the *scheduled*
//!   arrival, so queue delay — including coordinated omission — is charged
//!   to the report.

use crate::server::{ServeError, ViewServer};
use av_plan::PlanRef;
use av_trace::QuantileSketch;
use serde::{Deserialize, Serialize};
use std::collections::VecDeque;
use std::sync::{Condvar, Mutex};
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

/// Open-loop settings.
#[derive(Debug, Clone)]
pub struct OpenLoopConfig {
    /// Worker threads draining the arrival queue.
    pub workers: usize,
    /// Arrival rate (requests per second).
    pub target_qps: f64,
    /// Total arrivals to dispatch.
    pub requests: usize,
    /// Arrival queue bound; a full queue blocks the dispatcher.
    pub queue_depth: usize,
    /// Distinct tenants, assigned round-robin per arrival.
    pub tenants: usize,
}

impl Default for OpenLoopConfig {
    fn default() -> Self {
        OpenLoopConfig {
            workers: 4,
            target_qps: 500.0,
            requests: 256,
            queue_depth: 64,
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
    /// Dispatcher blocks on a full queue (open loop only).
    pub backpressure_events: u64,
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

fn merge_report(tallies: Vec<ClientTally>, wall_seconds: f64, backpressure: u64) -> LoadReport {
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
        backpressure_events: backpressure,
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
                                tally
                                    .latencies_us
                                    .observe(t0.elapsed().as_secs_f64() * 1e6);
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
    merge_report(tallies, started.elapsed().as_secs_f64(), 0)
}

/// One scheduled arrival: `(plan index, tenant index, scheduled instant)`.
type Arrival = (usize, usize, Instant);

/// A bounded MPMC queue of scheduled arrivals; the `bool` is the closed
/// flag.
struct ArrivalQueue {
    state: Mutex<(VecDeque<Arrival>, bool)>,
    not_empty: Condvar,
    not_full: Condvar,
    depth: usize,
}

impl ArrivalQueue {
    fn new(depth: usize) -> ArrivalQueue {
        ArrivalQueue {
            state: Mutex::new((VecDeque::new(), false)),
            not_empty: Condvar::new(),
            not_full: Condvar::new(),
            depth: depth.max(1),
        }
    }

    /// Blocking push; returns `true` if the dispatcher had to wait
    /// (backpressure).
    fn push(&self, item: Arrival) -> bool {
        let mut state = self.state.lock().expect("arrival queue poisoned");
        let mut waited = false;
        while state.0.len() >= self.depth {
            waited = true;
            state = self.not_full.wait(state).expect("arrival queue poisoned");
        }
        state.0.push_back(item);
        drop(state);
        self.not_empty.notify_one();
        waited
    }

    /// Blocking pop; `None` once closed and drained.
    fn pop(&self) -> Option<Arrival> {
        let mut state = self.state.lock().expect("arrival queue poisoned");
        loop {
            if let Some(item) = state.0.pop_front() {
                drop(state);
                self.not_full.notify_one();
                return Some(item);
            }
            if state.1 {
                return None;
            }
            state = self.not_empty.wait(state).expect("arrival queue poisoned");
        }
    }

    fn close(&self) {
        self.state.lock().expect("arrival queue poisoned").1 = true;
        self.not_empty.notify_all();
    }
}

/// Dispatch `cfg.requests` arrivals at `cfg.target_qps` into a bounded
/// queue drained by `cfg.workers` threads. Latency is measured from each
/// arrival's *scheduled* instant, so time spent queued (or stalled behind
/// a full queue) counts against the service, not the client.
pub fn run_open_loop(server: &ViewServer, plans: &[PlanRef], cfg: &OpenLoopConfig) -> LoadReport {
    if plans.is_empty() || cfg.workers == 0 || cfg.requests == 0 || cfg.target_qps <= 0.0 {
        return LoadReport::default();
    }
    let queue = ArrivalQueue::new(cfg.queue_depth);
    let interval = Duration::from_secs_f64(1.0 / cfg.target_qps);
    let started = Instant::now();

    let (tallies, backpressure) = std::thread::scope(|scope| {
        let workers: Vec<_> = (0..cfg.workers)
            .map(|_| {
                let queue = &queue;
                scope.spawn(move || {
                    let mut tally = ClientTally::default();
                    while let Some((plan_idx, tenant_idx, scheduled)) = queue.pop() {
                        let tenant = format!("tenant{tenant_idx}");
                        match server.execute(&tenant, &plans[plan_idx]) {
                            Ok(resp) => {
                                tally
                                    .latencies_us
                                    .observe(scheduled.elapsed().as_secs_f64() * 1e6);
                                tally.rewrite_hits += resp.rewrite_hits as u64;
                            }
                            Err(ServeError::Rejected(_)) => tally.rejected += 1,
                            Err(_) => tally.failed += 1,
                        }
                    }
                    tally
                })
            })
            .collect();

        // Dispatcher runs on this thread: pace arrivals, then close.
        let mut backpressure = 0u64;
        let tenants = cfg.tenants.max(1);
        for i in 0..cfg.requests {
            let scheduled = started + interval.mul_f64(i as f64);
            let now = Instant::now();
            if scheduled > now {
                std::thread::sleep(scheduled - now);
            }
            if queue.push((i % plans.len(), i % tenants, scheduled)) {
                backpressure += 1;
            }
        }
        queue.close();
        let tallies: Vec<ClientTally> = workers
            .into_iter()
            .map(|h| h.join().expect("worker thread"))
            .collect();
        (tallies, backpressure)
    });
    merge_report(tallies, started.elapsed().as_secs_f64(), backpressure)
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

    #[test]
    fn open_loop_drains_all_arrivals() {
        let w = mini(82);
        let plans = w.plans();
        let server = server_for(&w);
        let report = run_open_loop(
            &server,
            &plans,
            &OpenLoopConfig {
                workers: 2,
                target_qps: 2000.0,
                requests: 64,
                queue_depth: 8,
                tenants: 2,
            },
        );
        assert_eq!(report.requests + report.rejected, 64);
        assert_eq!(report.failed, 0);
        assert!(report.wall_seconds > 0.0);
    }
}
