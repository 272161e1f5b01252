//! Serving load: two closed-loop clients (`serve_hot`, `serve_miss`) and
//! one open-loop generator racing a planner thread (`serve_swap`).
//!
//! Thread budget: never more than two load threads (the box has two
//! cores); the program's own pool workers are its business.

use crate::setup::{checksum, Request, TENANT};
use crate::stats::Histogram;
use crate::trace::{Recorder, Span};
use av_plan::PlanRef;
use av_serve::{ServeError, ViewServer};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::time::{Duration, Instant};

/// Closed-loop clients; each cycles its own interleaved share of the
/// working set, so no client ever finds a result the other just cached.
pub const CLIENTS: usize = 2;
/// Open-loop arrival rate of `serve_swap`, requests per second.
pub const SWAP_RATE: u64 = 1_000;
/// Reoptimizations fired during one `serve_swap` run, spaced evenly by
/// issued-request count.
pub const SWAPS: u64 = 9;
/// Spans kept per load thread in a traced window.
const SPAN_CAP: usize = 1 << 17;

/// What happened to one request, as the load generator saw it.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct Verdict {
    /// Answered, and the batch matched the oracle.
    pub correct: bool,
    /// Refused by admission control.
    pub shed: bool,
    /// Answered through at least one view.
    pub rewritten: bool,
    /// Deployment epoch that answered (0 when refused or failed).
    pub epoch: u64,
}

/// Issue one request and check the reply against the oracle.
pub fn issue(server: &ViewServer, request: &Request) -> Verdict {
    match server.execute(TENANT, &request.plan) {
        Ok(resp) => Verdict {
            correct: checksum(&resp.batch) == request.checksum,
            shed: false,
            rewritten: resp.rewrite_hits > 0,
            epoch: resp.epoch,
        },
        Err(ServeError::Rejected(_)) => Verdict {
            shed: true,
            ..Verdict::default()
        },
        Err(_) => Verdict::default(),
    }
}

/// Counters and latency distributions of one measured interval.
#[derive(Clone)]
pub struct LoadStats {
    /// Latency charged to the request: from call start in a closed loop,
    /// from the due time in an open loop.
    pub latency: Histogram,
    /// Call start to reply, whatever the loop.
    pub service: Histogram,
    pub attempted: u64,
    pub correct: u64,
    pub shed: u64,
    pub rewritten: u64,
    /// Failed, refused, wrong, or slower than the workload's limit.
    pub slo_missed: u64,
    pub elapsed_s: f64,
}

impl LoadStats {
    fn new() -> LoadStats {
        LoadStats {
            latency: Histogram::new(),
            service: Histogram::new(),
            attempted: 0,
            correct: 0,
            shed: 0,
            rewritten: 0,
            slo_missed: 0,
            elapsed_s: 0.0,
        }
    }

    fn record(&mut self, verdict: Verdict, latency_ns: u64, service_ns: u64, slo_ns: u64) {
        self.attempted += 1;
        self.latency.record(latency_ns);
        self.service.record(service_ns);
        self.correct += u64::from(verdict.correct);
        self.shed += u64::from(verdict.shed);
        self.rewritten += u64::from(verdict.rewritten);
        self.slo_missed += u64::from(!verdict.correct || latency_ns > slo_ns);
    }

    pub fn merge(&mut self, other: &LoadStats) {
        self.latency.merge(&other.latency);
        self.service.merge(&other.service);
        self.attempted += other.attempted;
        self.correct += other.correct;
        self.shed += other.shed;
        self.rewritten += other.rewritten;
        self.slo_missed += other.slo_missed;
        self.elapsed_s = self.elapsed_s.max(other.elapsed_s);
    }

    pub fn failed(&self) -> u64 {
        self.attempted - self.correct
    }

    /// Correct responses per second.
    pub fn rate(&self) -> f64 {
        self.correct as f64 / self.elapsed_s
    }
}

/// One closed-loop window: `CLIENTS` threads, zero think time, each waiting
/// for its reply (and checking it) before sending the next request.
/// `cursors` carries each client's place in its cycle from window to
/// window: a client that started over would find the keys it sent just
/// before the last window closed still cached, and `serve_miss` would hit.
/// Returns the merged statistics and each client's spans.
pub fn closed_window(
    server: &ViewServer,
    requests: &[Request],
    cursors: &mut [usize; CLIENTS],
    seconds: f64,
    slo_ns: u64,
    trace_epoch: Option<Instant>,
) -> (LoadStats, Vec<Vec<Span>>) {
    let start = Instant::now();
    let deadline = start + Duration::from_secs_f64(seconds);
    let per_client: Vec<(LoadStats, Vec<Span>)> = std::thread::scope(|scope| {
        let handles: Vec<_> = cursors
            .iter_mut()
            .enumerate()
            .map(|(lane, cursor)| {
                scope.spawn(move || {
                    let mine: Vec<&Request> = requests.iter().skip(lane).step_by(CLIENTS).collect();
                    let mut rec = Recorder::new(trace_epoch, SPAN_CAP);
                    let mut stats = LoadStats::new();
                    loop {
                        let request = mine[*cursor % mine.len()];
                        let id = ((lane as u64) << 48) | *cursor as u64;
                        *cursor += 1;
                        let t0 = Instant::now();
                        let verdict = rec.span("serve.execute", id, |_| issue(server, request));
                        let t1 = Instant::now();
                        let nanos = (t1 - t0).as_nanos() as u64;
                        stats.record(verdict, nanos, nanos, slo_ns);
                        if t1 >= deadline {
                            break;
                        }
                    }
                    stats.elapsed_s = start.elapsed().as_secs_f64();
                    (stats, rec.into_spans())
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("load client panicked"))
            .collect()
    });
    let mut merged = LoadStats::new();
    let mut spans = Vec::new();
    for (stats, client_spans) in per_client {
        merged.merge(&stats);
        spans.push(client_spans);
    }
    (merged, spans)
}

/// Spin until `due`. A sleeping generator wakes tens of microseconds late
/// and with cold caches, which is more than a cache hit takes to serve and
/// varies with the host; at 2 000 req/s the waits are at most 500 us, and
/// the planner thread has the other core.
fn wait_until(due: Instant) -> Instant {
    loop {
        let now = Instant::now();
        if now >= due {
            return now;
        }
        std::hint::spin_loop();
    }
}

/// Result of an open-loop run: one [`LoadStats`] per window of consecutive
/// requests, and how late the generator itself started requests whose
/// predecessor had already finished.
pub struct OpenLoopRun {
    pub windows: Vec<LoadStats>,
    pub generator_late: Histogram,
}

/// Open-loop generator: request `i` is due at `start + i * period` whether
/// or not earlier ones have finished, and its latency runs from that due
/// time — a stall is charged to every request that queued behind it.
/// `issued` is published after each send so a planner can trigger on it.
pub fn open_loop(
    total: u64,
    period: Duration,
    windows: u64,
    slo_ns: u64,
    issued: &AtomicU64,
    mut serve: impl FnMut(u64) -> Verdict,
) -> OpenLoopRun {
    let per_window = total.div_ceil(windows).max(1);
    let mut out = OpenLoopRun {
        windows: Vec::new(),
        generator_late: Histogram::new(),
    };
    let start = Instant::now();
    let mut window_start = start;
    let mut current = LoadStats::new();
    let mut previous_done = start;
    for i in 0..total {
        let due = start + period.mul_f64(i as f64);
        let t0 = wait_until(due);
        if previous_done <= due {
            out.generator_late.record((t0 - due).as_nanos() as u64);
        }
        issued.store(i + 1, Ordering::Release);
        let verdict = serve(i);
        let t1 = Instant::now();
        previous_done = t1;
        current.record(
            verdict,
            (t1 - due).as_nanos() as u64,
            (t1 - t0).as_nanos() as u64,
            slo_ns,
        );
        if (i + 1) % per_window == 0 || i + 1 == total {
            // A window runs from its first request's due time to its last
            // request's reply, so a backlog lowers its completion rate.
            current.elapsed_s = (t1 - window_start).as_secs_f64();
            out.windows
                .push(std::mem::replace(&mut current, LoadStats::new()));
            window_start = start + period.mul_f64((i + 1) as f64);
        }
    }
    out
}

/// How many swaps must have fired once `issued` requests have been sent:
/// one each time the count crosses a multiple of `every`, never at the
/// very end of the run.
pub fn swaps_due(issued: u64, every: u64, total: u64) -> u64 {
    issued.min(total.saturating_sub(1)) / every.max(1)
}

/// What the planner thread did during a `serve_swap` run.
#[derive(Default)]
pub struct PlannerStats {
    /// Wall time of each `reoptimize` call, seconds.
    pub swap_s: Vec<f64>,
    pub failed: u64,
    /// Route-memo counters of the deployments this run replaced.
    pub memo_hits: u64,
    pub memo_misses: u64,
    pub spans: Vec<Span>,
}

/// Planner loop: fire `reoptimize` on alternating half-workload windows
/// each time the generator's issued count crosses a multiple of `every`.
fn planner(
    server: &ViewServer,
    halves: [&[PlanRef]; 2],
    issued: &AtomicU64,
    generator_done: &AtomicBool,
    every: u64,
    total: u64,
    trace_epoch: Option<Instant>,
) -> PlannerStats {
    let mut rec = Recorder::new(trace_epoch, SPAN_CAP);
    let mut stats = PlannerStats::default();
    let mut fired = 0u64;
    loop {
        let due = swaps_due(issued.load(Ordering::Acquire), every, total);
        if fired < due {
            let outgoing = server.current();
            let window = halves[(fired % 2) as usize];
            let t0 = Instant::now();
            let result = rec.span("serve.reoptimize", fired, |_| {
                server.reoptimize(window, Some(TENANT))
            });
            stats.swap_s.push(t0.elapsed().as_secs_f64());
            stats.failed += u64::from(result.is_err());
            fired += 1;
            let (hits, misses) = outgoing.route_memo_stats();
            stats.memo_hits += hits;
            stats.memo_misses += misses;
        } else if generator_done.load(Ordering::Acquire) {
            break;
        } else {
            std::thread::sleep(Duration::from_micros(100));
        }
    }
    stats.spans = rec.into_spans();
    stats
}

/// Result of one `serve_swap` run.
pub struct SwapRun {
    pub load: OpenLoopRun,
    pub planner: PlannerStats,
    /// Service time of the first request for each plan after each swap.
    pub post_swap_first: Histogram,
    pub generator_spans: Vec<Span>,
}

/// `serve_swap`: an open loop at [`SWAP_RATE`] over the hot set for
/// `seconds`, with [`SWAPS`] reoptimizations landing under it.
pub fn swap_run(
    server: &ViewServer,
    requests: &[Request],
    plans: &[PlanRef],
    seconds: f64,
    slo_ns: u64,
    trace_epoch: Option<Instant>,
) -> SwapRun {
    let windows = SWAPS + 1;
    let every = ((SWAP_RATE as f64 * seconds) as u64 / windows).max(1);
    let total = every * windows;
    let period = Duration::from_secs_f64(1.0 / SWAP_RATE as f64);
    let (first_half, second_half) = plans.split_at(plans.len() / 2);

    let issued = AtomicU64::new(0);
    let generator_done = AtomicBool::new(false);
    let mut rec = Recorder::new(trace_epoch, SPAN_CAP);
    let mut post_swap_first = Histogram::new();
    let mut last_epoch = vec![server.current().epoch(); requests.len()];

    let (load, planner_stats) = std::thread::scope(|scope| {
        let planner_handle = scope.spawn(|| {
            planner(
                server,
                [first_half, second_half],
                &issued,
                &generator_done,
                every,
                total,
                trace_epoch,
            )
        });
        let load = open_loop(total, period, windows, slo_ns, &issued, |i| {
            let idx = (i % requests.len() as u64) as usize;
            let t0 = Instant::now();
            let verdict = rec.span("serve.execute", i, |_| issue(server, &requests[idx]));
            if verdict.epoch != 0 && verdict.epoch != last_epoch[idx] {
                last_epoch[idx] = verdict.epoch;
                post_swap_first.record(t0.elapsed().as_nanos() as u64);
            }
            verdict
        });
        generator_done.store(true, Ordering::Release);
        (load, planner_handle.join().expect("planner panicked"))
    });
    SwapRun {
        load,
        planner: planner_stats,
        post_swap_first,
        generator_spans: rec.into_spans(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK: Verdict = Verdict {
        correct: true,
        shed: false,
        rewritten: false,
        epoch: 1,
    };

    #[test]
    fn count_triggered_swaps_fire_exactly_nine_times() {
        let (every, total) = (2_000u64, 20_000u64);
        let mut fired = 0;
        for issued in 0..=total {
            let due = swaps_due(issued, every, total);
            assert!(due == fired || due == fired + 1);
            fired = due;
        }
        assert_eq!(fired, SWAPS);
        assert_eq!(swaps_due(1_999, every, total), 0);
        assert_eq!(swaps_due(2_000, every, total), 1);
    }

    #[test]
    fn open_loop_charges_a_stall_to_the_requests_due_during_it() {
        // 2000 req/s; request 20 stalls for 50 ms, so the ~100 requests due
        // during the stall start late and are charged the wait.
        let period = Duration::from_micros(500);
        let stall = Duration::from_millis(50);
        let issued = AtomicU64::new(0);
        let run = open_loop(200, period, 1, 1_000_000, &issued, |i| {
            if i == 20 {
                std::thread::sleep(stall);
            }
            OK
        });
        assert_eq!(issued.load(Ordering::Acquire), 200);
        assert_eq!(run.windows.len(), 1);
        let w = &run.windows[0];
        assert_eq!((w.attempted, w.correct), (200, 200));
        // Requests 21..120 were due during the stall and waited for the
        // rest of it; all but the last two waited past the 1 ms limit.
        assert!(
            w.slo_missed >= 90,
            "requests queued behind the stall are charged for it: {} missed",
            w.slo_missed
        );
        assert!(w.latency.quantile(1.0) >= stall.as_nanos() as f64);
        // Service time stays small for everything but the stalled request:
        // the charge comes from the due time, not from the call.
        assert!(w.service.quantile(0.9) < 1_000_000.0);
        // The generator's own lateness excludes the backlog it inherited.
        assert!(run.generator_late.count() < 200);
    }

    #[test]
    fn open_loop_splits_requests_into_equal_windows() {
        let issued = AtomicU64::new(0);
        let run = open_loop(50, Duration::from_micros(20), 10, u64::MAX, &issued, |_| OK);
        assert_eq!(run.windows.len(), 10);
        assert!(run
            .windows
            .iter()
            .all(|w| w.attempted == 5 && w.elapsed_s > 0.0));
    }
}
